//! Lock-manager contention microbenchmarks — the A/B instrument for the
//! per-node FIFO rw-lock manager against a single serializing lock.
//!
//! Two groups, each at 1/2/4/8 racing OS threads:
//!
//! * `lock_contend_raw` — bare `LockManager` acquire/release cycles:
//!   `disjoint` (every thread its own lock id — the per-node shape, whose
//!   fast path never queues) vs `serialized` (all threads on one
//!   exclusive id — every acquisition after the first queues FIFO).
//! * `lock_contend_hashmap` — real locked transactions: `per_node` drives
//!   `HashMap::insert_sync` over thread-disjoint buckets, `serialized`
//!   routes the same inserts through one global exclusive lock.
//!
//! On a single-core host multi-thread rows measure contention overhead
//! only (no parallel speedup is physically available) — the DES-costed
//! scaling series lives in `fig6::run_multithread` / `repro fig6`.
//! EXPERIMENTS.md records both views.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use clobber_nvm::{Backend, LockManager, LockRequest, Runtime, RuntimeOptions};
use clobber_pds::HashMap;
use clobber_pmem::{PmemPool, PoolOptions};

/// Acquire/release cycles per thread per batch.
const OPS: usize = 512;
/// Inserts per thread per batch in the transactional group.
const TX_OPS: usize = 64;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn raw(c: &mut Criterion) {
    let mut group = c.benchmark_group("lock_contend_raw");
    group.sample_size(15);
    let pool = Arc::new(PmemPool::create(PoolOptions::performance(1 << 20)).unwrap());
    let mgr = LockManager::new();
    for threads in THREADS {
        for (label, per_thread) in [("disjoint", true), ("serialized", false)] {
            let (pool, mgr) = (&pool, &mgr);
            group.bench_function(format!("{label}/t{threads}"), |b| {
                b.iter(|| {
                    std::thread::scope(|s| {
                        for t in 0..threads as u64 {
                            s.spawn(move || {
                                let lock = if per_thread { 1 + t } else { 0 };
                                for _ in 0..OPS {
                                    drop(mgr.acquire(pool, &[LockRequest::exclusive(lock)]));
                                }
                            });
                        }
                    });
                });
            });
        }
    }
    group.finish();
}

fn hashmap_inserts(c: &mut Criterion) {
    let mut group = c.benchmark_group("lock_contend_hashmap");
    group.sample_size(10);
    for threads in THREADS {
        for (label, per_node) in [("per_node", true), ("serialized", false)] {
            let pool = Arc::new(
                PmemPool::create(PoolOptions::performance(256 << 20).with_shards(4)).unwrap(),
            );
            let rt = Arc::new(
                Runtime::create(pool.clone(), RuntimeOptions::new(Backend::clobber())).unwrap(),
            );
            HashMap::register(&rt);
            let map = HashMap::create(&rt).unwrap();
            // Thread-disjoint buckets (a bucket lock belongs to
            // `lock mod threads`), so the per-node series never queues.
            let keys: Vec<Vec<u64>> = {
                let mut keys: Vec<Vec<u64>> = vec![Vec::new(); threads];
                let mut k = 1u64;
                while keys.iter().any(|v| v.len() < TX_OPS) {
                    let t = (map.lock_of(k) % threads as u64) as usize;
                    if keys[t].len() < TX_OPS {
                        keys[t].push(k);
                    }
                    k += 1;
                }
                keys
            };
            let serial_lock = [LockRequest::exclusive(0x5E71A117)];
            group.bench_function(format!("{label}/t{threads}"), |b| {
                b.iter(|| {
                    std::thread::scope(|s| {
                        for thread_keys in &keys {
                            let (rt, map, serial_lock) = (&rt, &map, &serial_lock);
                            s.spawn(move || {
                                for &k in thread_keys {
                                    if per_node {
                                        map.insert_sync(rt, k, b"contend").unwrap();
                                    } else {
                                        let _guard = rt.locks().acquire(rt.pool(), serial_lock);
                                        map.insert(rt, k, b"contend").unwrap();
                                    }
                                }
                            });
                        }
                    });
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, raw, hashmap_inserts);
criterion_main!(benches);
