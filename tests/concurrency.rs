//! Real multi-threaded stress tests (the scaling *figures* use the
//! deterministic DES; these tests verify the runtime is actually safe to
//! share across OS threads, per the paper's locking model: callers hold
//! locks, each thread uses its own v_log slot).

use std::sync::Arc;

use clobber_repro::nvm::{Backend, Runtime, RuntimeOptions};
use clobber_repro::pds::{BpTree, HashMap, SkipList};
use clobber_repro::pmem::{PmemPool, PoolOptions};
use parking_lot::{Mutex, RwLock};

const THREADS: usize = 4;
const OPS_PER_THREAD: u64 = 150;

fn runtime(backend: Backend) -> (Arc<PmemPool>, Arc<Runtime>) {
    let pool = Arc::new(PmemPool::create(PoolOptions::performance(256 << 20)).unwrap());
    let rt = Arc::new(Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap());
    (pool, rt)
}

#[test]
fn hashmap_under_bucket_locks_from_many_threads() {
    for backend in [Backend::clobber(), Backend::Undo, Backend::Redo] {
        let (pool, rt) = runtime(backend);
        HashMap::register(&rt);
        let map = HashMap::create(&rt).unwrap();
        // One rwlock per bucket, as the paper's hashmap uses.
        let buckets = map.buckets();
        let locks: Arc<Vec<RwLock<()>>> = Arc::new((0..buckets).map(|_| RwLock::new(())).collect());
        crossbeam::scope(|s| {
            for t in 0..THREADS {
                let (rt, map, locks) = (rt.clone(), map, locks.clone());
                s.spawn(move |_| {
                    for i in 0..OPS_PER_THREAD {
                        let key = (t as u64) * OPS_PER_THREAD + i;
                        let bucket = (map.lock_of(key) % buckets) as usize;
                        let _guard = locks[bucket].write();
                        map.insert(&rt, key, &key.to_le_bytes()).unwrap();
                    }
                    for i in 0..OPS_PER_THREAD {
                        let key = (t as u64) * OPS_PER_THREAD + i;
                        let bucket = (map.lock_of(key) % buckets) as usize;
                        let _guard = locks[bucket].read();
                        assert_eq!(map.get(&rt, key).unwrap(), Some(key.to_le_bytes().to_vec()));
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(
            map.len(&pool).unwrap() as u64,
            THREADS as u64 * OPS_PER_THREAD,
            "backend {}",
            backend.label()
        );
        // Slots are leased per live thread and returned on exit, so the
        // count is bounded by *peak concurrency*: a thread that finishes
        // before a peer starts hands its slot to that peer.
        let slots = rt.slot_count();
        assert!(
            (1..=THREADS).contains(&slots),
            "v_log slots bounded by peak concurrency, got {slots}"
        );
    }
}

#[test]
fn skiplist_under_global_lock_from_many_threads() {
    let (pool, rt) = runtime(Backend::clobber());
    SkipList::register(&rt);
    let sl = SkipList::create(&rt).unwrap();
    let lock = Arc::new(Mutex::new(()));
    crossbeam::scope(|s| {
        for t in 0..THREADS {
            let (rt, sl, lock) = (rt.clone(), sl, lock.clone());
            s.spawn(move |_| {
                for i in 0..OPS_PER_THREAD {
                    let key = (t as u64) * OPS_PER_THREAD + i;
                    let _guard = lock.lock();
                    sl.insert(&rt, key, &key.to_le_bytes()).unwrap();
                }
            });
        }
    })
    .unwrap();
    let dumped = sl.dump(&pool).unwrap();
    assert_eq!(dumped.len() as u64, THREADS as u64 * OPS_PER_THREAD);
    assert!(
        dumped.windows(2).all(|w| w[0].0 < w[1].0),
        "sorted after races"
    );
}

#[test]
fn bptree_under_a_tree_lock_from_many_threads() {
    let (pool, rt) = runtime(Backend::Undo);
    BpTree::register(&rt);
    let bt = BpTree::create(&rt).unwrap();
    let lock = Arc::new(Mutex::new(()));
    crossbeam::scope(|s| {
        for t in 0..THREADS {
            let (rt, bt, lock) = (rt.clone(), bt, lock.clone());
            s.spawn(move |_| {
                for i in 0..OPS_PER_THREAD {
                    let key = (t as u64) * OPS_PER_THREAD + i;
                    let _guard = lock.lock();
                    bt.insert_u64(&rt, key, &key.to_le_bytes()).unwrap();
                }
            });
        }
    })
    .unwrap();
    assert_eq!(
        bt.len(&pool).unwrap() as u64,
        THREADS as u64 * OPS_PER_THREAD
    );
}

#[test]
fn independent_counters_need_no_locks() {
    // Disjoint data: each thread owns its own cell, so no application locks
    // are needed and slots keep the v_logs independent.
    let (pool, rt) = runtime(Backend::clobber());
    rt.register("bump", |tx, args| {
        let cell = clobber_repro::pmem::PAddr::new(args.u64(0)?);
        let v = tx.read_u64(cell)?;
        tx.write_u64(cell, v + 1)?;
        Ok(None)
    });
    let cells: Vec<_> = (0..THREADS).map(|_| pool.alloc(8).unwrap()).collect();
    for c in &cells {
        pool.persist(*c, 8).unwrap();
    }
    crossbeam::scope(|s| {
        for (t, cell) in cells.iter().enumerate() {
            let rt = rt.clone();
            let cell = *cell;
            s.spawn(move |_| {
                for _ in 0..500 {
                    rt.run(
                        "bump",
                        &clobber_repro::nvm::ArgList::new().with_u64(cell.offset()),
                    )
                    .unwrap();
                }
                let _ = t;
            });
        }
    })
    .unwrap();
    for c in &cells {
        assert_eq!(pool.read_u64(*c).unwrap(), 500);
    }
}
