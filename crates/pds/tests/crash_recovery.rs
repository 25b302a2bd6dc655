//! Crash-recovery testing of the persistent data structures.
//!
//! A write probe captures an adversarial crash image (`drop_all`: nothing
//! unfenced survives) after the N-th transactional store, landing inside an
//! arbitrary structure operation. Recovery must then produce:
//!
//! * under the **clobber** backend: all committed operations *plus* the
//!   interrupted one (completed by re-execution);
//! * under the **undo** backend: all committed operations only (rollback);
//!
//! and the structure's full invariant checker must pass either way.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use clobber_nvm::{Backend, Runtime, RuntimeOptions};
use clobber_pds::{AvlTree, BpTree, HashMap, RbTree, SkipList};
use clobber_pmem::{CrashConfig, PmemPool, PoolMode, PoolOptions};

struct Trap {
    countdown: Mutex<Option<u64>>,
    image: Mutex<Option<Vec<u8>>>,
    seed: u64,
}

impl Trap {
    fn install(rt: &Runtime, after_writes: u64, seed: u64) -> Arc<Trap> {
        let trap = Arc::new(Trap {
            countdown: Mutex::new(Some(after_writes)),
            image: Mutex::new(None),
            seed,
        });
        let t = trap.clone();
        rt.set_write_probe(Some(Arc::new(move |pool| {
            let mut cd = t.countdown.lock().unwrap();
            if let Some(n) = *cd {
                if n == 0 {
                    *t.image.lock().unwrap() =
                        Some(pool.crash_media(&CrashConfig::drop_all(t.seed)));
                    *cd = None;
                } else {
                    *cd = Some(n - 1);
                }
            }
        })));
        trap
    }

    fn image(&self) -> Option<Vec<u8>> {
        self.image.lock().unwrap().take()
    }
}

/// Insert keys 0..n with deterministic values; key i is inserted by the
/// i-th transaction.
fn value_of(k: u64) -> Vec<u8> {
    let mut v = vec![0u8; 64];
    v[..8].copy_from_slice(&k.to_le_bytes());
    v[63] = k as u8 ^ 0x5A;
    v
}

/// Counts the total transactional stores an insert stream performs (dry
/// run with a counting probe).
fn count_writes(structure: &str, backend: Backend, n_keys: u64) -> u64 {
    let counter = Arc::new(Mutex::new(0u64));
    let c = counter.clone();
    run_inserts(structure, backend, n_keys, move |rt| {
        rt.set_write_probe(Some(Arc::new(move |_| {
            *c.lock().unwrap() += 1;
        })));
    });
    let n = *counter.lock().unwrap();
    n
}

/// Sets up a structure, applies `hook` to the runtime, and inserts
/// `n_keys` keys.
fn run_inserts(structure: &str, backend: Backend, n_keys: u64, hook: impl FnOnce(&Runtime)) {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(64 << 20)).unwrap());
    let rt = Runtime::create(pool, RuntimeOptions::new(backend)).unwrap();
    match structure {
        "hashmap" => HashMap::register(&rt),
        "skiplist" => SkipList::register(&rt),
        "rbtree" => RbTree::register(&rt),
        "avltree" => AvlTree::register(&rt),
        "bptree" => BpTree::register(&rt),
        _ => unreachable!(),
    }
    hook(&rt);
    match structure {
        "hashmap" => {
            let h = HashMap::create(&rt).unwrap();
            for k in 0..n_keys {
                h.insert(&rt, k, &value_of(k)).unwrap();
            }
        }
        "skiplist" => {
            let h = SkipList::create(&rt).unwrap();
            for k in 0..n_keys {
                h.insert(&rt, k, &value_of(k)).unwrap();
            }
        }
        "rbtree" => {
            let h = RbTree::create(&rt).unwrap();
            for k in 0..n_keys {
                h.insert(&rt, k, &value_of(k)).unwrap();
            }
        }
        "avltree" => {
            let h = AvlTree::create(&rt).unwrap();
            for k in 0..n_keys {
                h.insert(&rt, k, &value_of(k)).unwrap();
            }
        }
        "bptree" => {
            let h = BpTree::create(&rt).unwrap();
            for k in 0..n_keys {
                h.insert_u64(&rt, k, &value_of(k)).unwrap();
            }
        }
        _ => unreachable!(),
    }
}

/// Runs the crash-at-write-`w` experiment for one structure under one
/// backend; returns `(recovered_pairs, reexecuted_count, rolled_back)`.
fn crash_experiment(
    structure: &str,
    backend: Backend,
    n_keys: u64,
    crash_at_write: u64,
    seed: u64,
) -> (BTreeMap<u64, Vec<u8>>, usize, usize) {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(64 << 20)).unwrap());
    let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap();
    let register = |rt: &Runtime| match structure {
        "hashmap" => HashMap::register(rt),
        "skiplist" => SkipList::register(rt),
        "rbtree" => RbTree::register(rt),
        "avltree" => AvlTree::register(rt),
        "bptree" => BpTree::register(rt),
        _ => unreachable!(),
    };
    register(&rt);
    enum Handle {
        H(HashMap),
        S(SkipList),
        R(RbTree),
        A(AvlTree),
        B(BpTree),
    }
    let h = match structure {
        "hashmap" => Handle::H(HashMap::create(&rt).unwrap()),
        "skiplist" => Handle::S(SkipList::create(&rt).unwrap()),
        "rbtree" => Handle::R(RbTree::create(&rt).unwrap()),
        "avltree" => Handle::A(AvlTree::create(&rt).unwrap()),
        "bptree" => Handle::B(BpTree::create(&rt).unwrap()),
        _ => unreachable!(),
    };
    let root = match &h {
        Handle::H(x) => x.root(),
        Handle::S(x) => x.root(),
        Handle::R(x) => x.root(),
        Handle::A(x) => x.root(),
        Handle::B(x) => x.root(),
    };
    rt.set_app_root(root).unwrap();
    let trap = Trap::install(&rt, crash_at_write, seed);
    for k in 0..n_keys {
        match &h {
            Handle::H(x) => x.insert(&rt, k, &value_of(k)).unwrap(),
            Handle::S(x) => x.insert(&rt, k, &value_of(k)).unwrap(),
            Handle::R(x) => x.insert(&rt, k, &value_of(k)).unwrap(),
            Handle::A(x) => x.insert(&rt, k, &value_of(k)).unwrap(),
            Handle::B(x) => x.insert_u64(&rt, k, &value_of(k)).unwrap(),
        }
    }
    let image = trap.image().expect("trap fired inside the insert stream");

    let pool2 = Arc::new(PmemPool::open_from_media(image, PoolMode::CrashSim).unwrap());
    let rt2 = Runtime::open(pool2.clone(), RuntimeOptions::new(backend)).unwrap();
    register(&rt2);
    let report = rt2.recover().unwrap();
    // The heap itself must be structurally sound after any recovery.
    pool2.check_heap().unwrap();
    let root2 = rt2.app_root().unwrap();
    let pairs: BTreeMap<u64, Vec<u8>> = match structure {
        "hashmap" => HashMap::open(root2)
            .dump(&pool2)
            .unwrap()
            .into_iter()
            .collect(),
        "skiplist" => SkipList::open(root2)
            .dump(&pool2)
            .unwrap()
            .into_iter()
            .collect(),
        "rbtree" => RbTree::open(root2)
            .dump(&pool2)
            .unwrap()
            .into_iter()
            .collect(),
        "avltree" => AvlTree::open(root2)
            .dump(&pool2)
            .unwrap()
            .into_iter()
            .collect(),
        "bptree" => BpTree::open(root2)
            .dump(&pool2)
            .unwrap()
            .into_iter()
            .map(|(k, v)| (u64::from_be_bytes(k[24..32].try_into().unwrap()), v))
            .collect(),
        _ => unreachable!(),
    };
    (pairs, report.reexecuted.len(), report.rolled_back)
}

#[test]
fn clobber_recovery_completes_the_interrupted_insert() {
    for structure in ["hashmap", "skiplist", "rbtree", "avltree", "bptree"] {
        let n = 24;
        let total = count_writes(structure, Backend::clobber(), n);
        // Crash points landing in early, middle and late inserts.
        for (i, crash_at) in [3u64, total / 2, total - 2].into_iter().enumerate() {
            let (pairs, reexec, rolled) =
                crash_experiment(structure, Backend::clobber(), n, crash_at, 100 + i as u64);
            assert_eq!(rolled, 0, "{structure}");
            assert!(reexec <= 1, "{structure}: at most one in-flight tx");
            // Keys form a prefix 0..m with m >= the committed count; the
            // interrupted insert (if any) was completed, so contents are
            // exactly 0..len and every value is intact.
            let len = pairs.len() as u64;
            assert!(len <= n, "{structure}");
            for k in 0..len {
                assert_eq!(
                    pairs.get(&k),
                    Some(&value_of(k)),
                    "{structure} crash@{crash_at}: key {k}"
                );
            }
            if reexec == 1 {
                assert!(len >= 1, "{structure}: re-executed insert must be present");
            }
        }
    }
}

#[test]
fn undo_recovery_rolls_back_the_interrupted_insert() {
    for structure in ["hashmap", "skiplist", "rbtree", "avltree", "bptree"] {
        let (pairs, reexec, _rolled) = crash_experiment(structure, Backend::Undo, 24, 47, 200);
        assert_eq!(reexec, 0, "{structure}");
        // Contents are exactly the committed prefix.
        let len = pairs.len() as u64;
        for k in 0..len {
            assert_eq!(pairs.get(&k), Some(&value_of(k)), "{structure}: key {k}");
        }
    }
}

#[test]
fn redo_recovery_discards_the_uncommitted_insert() {
    for structure in ["hashmap", "rbtree"] {
        let (pairs, _reexec, _rolled) = crash_experiment(structure, Backend::Redo, 24, 20, 300);
        let len = pairs.len() as u64;
        for k in 0..len {
            assert_eq!(pairs.get(&k), Some(&value_of(k)), "{structure}: key {k}");
        }
    }
}

#[test]
fn sweep_many_crash_points_on_the_rbtree() {
    // Rotations make the rbtree the most interesting re-execution target:
    // sweep a range of crash points through fixup-heavy inserts.
    let total = count_writes("rbtree", Backend::clobber(), 16);
    for crash_at in (0..total.min(120)).step_by(7) {
        let (pairs, _reexec, rolled) =
            crash_experiment("rbtree", Backend::clobber(), 16, crash_at, 400 + crash_at);
        assert_eq!(rolled, 0);
        let len = pairs.len() as u64;
        for k in 0..len {
            assert_eq!(
                pairs.get(&k),
                Some(&value_of(k)),
                "crash@{crash_at}: key {k}"
            );
        }
    }
}

#[test]
fn sweep_many_crash_points_on_the_skiplist() {
    // Tower links make skiplist inserts multi-node updates; sweep crash
    // points through a stream whose deterministic tower heights cover
    // several levels.
    let total = count_writes("skiplist", Backend::clobber(), 16);
    for crash_at in (0..total.min(120)).step_by(11) {
        let (pairs, _reexec, rolled) =
            crash_experiment("skiplist", Backend::clobber(), 16, crash_at, 600 + crash_at);
        assert_eq!(rolled, 0);
        let len = pairs.len() as u64;
        for k in 0..len {
            assert_eq!(
                pairs.get(&k),
                Some(&value_of(k)),
                "crash@{crash_at}: key {k}"
            );
        }
    }
}

#[test]
fn sweep_many_crash_points_on_the_avltree() {
    // Height rebalancing makes the avltree's re-execution path distinct
    // from the rbtree's recoloring; sweep through rotation-heavy inserts.
    let total = count_writes("avltree", Backend::clobber(), 16);
    for crash_at in (0..total.min(120)).step_by(9) {
        let (pairs, _reexec, rolled) =
            crash_experiment("avltree", Backend::clobber(), 16, crash_at, 700 + crash_at);
        assert_eq!(rolled, 0);
        let len = pairs.len() as u64;
        for k in 0..len {
            assert_eq!(
                pairs.get(&k),
                Some(&value_of(k)),
                "crash@{crash_at}: key {k}"
            );
        }
    }
}

#[test]
fn sweep_crash_points_through_bptree_splits() {
    // 24 sequential inserts with leaf capacity 8 force splits; crash points
    // step through them.
    let total = count_writes("bptree", Backend::clobber(), 24);
    for crash_at in (0..total - 1).step_by(13) {
        let (pairs, _reexec, rolled) =
            crash_experiment("bptree", Backend::clobber(), 24, crash_at, 500 + crash_at);
        assert_eq!(rolled, 0);
        let len = pairs.len() as u64;
        for k in 0..len {
            assert_eq!(
                pairs.get(&k),
                Some(&value_of(k)),
                "crash@{crash_at}: key {k}"
            );
        }
    }
}
