//! Contended-allocator microbenchmarks — the before/after instrument for
//! sharded allocator arenas and thread-local reservation magazines.
//!
//! Pool configurations at 1/2/4/8 threads:
//!
//! * `shards1_arenas1` — one shard, one arena: one lock (the PR 2 shape).
//! * `sharded4_arenas1` — 4 shards, one arena: every allocator call
//!   locks the one mirror plus **all** shards (the PR 3 shape — the
//!   baseline the arena work must beat).
//! * `sharded4_arenas4` — 4 shards at the new default arena count:
//!   the regression check against `sharded4_arenas1`.
//! * `sharded16_arenas1` — PR 3's all-shard locking at 16 shards: 17 lock
//!   acquisitions per allocator call. Shows why all-shard locking cannot
//!   scale with the shard count.
//! * `sharded16_arenas4` — 16 shards, four arenas: an allocator call
//!   locks one arena mirror plus only the 1–4 shards covering that arena,
//!   and reservation magazines serve repeat `reserve`s with no lock at
//!   all.
//!
//! Each iteration is one *batch*: `threads` scoped threads each performing
//! `OPS` allocator operations; the printed time is per batch (divide by
//! `threads * OPS` for per-op cost — EXPERIMENTS.md records both). The
//! transactional benchmark works in bursts of [`TX_ALLOCS`] reservations
//! per publish/fence, the vacation-style commit shape that lets freed
//! blocks refill the magazines. Pools run in performance mode so the
//! numbers isolate lock structure rather than cache simulation.
//!
//! On a single-core host the multi-thread rows measure contention overhead
//! only (no parallel speedup is physically available); the per-op lock
//! structure shows up directly in the 1-thread rows.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use clobber_pmem::{PmemPool, PoolOptions};

const POOL: u64 = 64 << 20;
/// Allocator operations per thread per batch.
const OPS: usize = 512;
/// Reservations per transactional burst (one publish + fence per burst).
const TX_ALLOCS: usize = 8;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn variants() -> [(&'static str, PoolOptions); 5] {
    [
        (
            "shards1_arenas1",
            PoolOptions::performance(POOL).with_arenas(1),
        ),
        (
            "sharded4_arenas1",
            PoolOptions::performance(POOL).with_shards(4).with_arenas(1),
        ),
        (
            "sharded4_arenas4",
            PoolOptions::performance(POOL).with_shards(4).with_arenas(4),
        ),
        (
            "sharded16_arenas1",
            PoolOptions::performance(POOL)
                .with_shards(16)
                .with_arenas(1),
        ),
        (
            "sharded16_arenas4",
            PoolOptions::performance(POOL)
                .with_shards(16)
                .with_arenas(4),
        ),
    ]
}

/// Immediate-path churn: `alloc(64)` + `free` per operation. After the
/// first batch every allocation is a free-list pop, so the measured cost is
/// the redo-protected metadata update under whatever locks the engine
/// takes.
fn alloc_free(c: &mut Criterion) {
    let mut group = c.benchmark_group("alloc_contend_alloc_free");
    group.sample_size(15);
    for (label, opts) in variants() {
        let pool = Arc::new(PmemPool::create(opts).unwrap());
        for threads in THREADS {
            let pool = pool.clone();
            group.bench_function(format!("{label}/t{threads}"), |b| {
                b.iter(|| {
                    std::thread::scope(|s| {
                        for _ in 0..threads {
                            let pool = &pool;
                            s.spawn(move || {
                                for _ in 0..OPS {
                                    let a = pool.alloc(64).unwrap();
                                    pool.free(a).unwrap();
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

/// Transactional-path churn in commit-sized bursts: `TX_ALLOCS`×
/// `reserve(64)`, one `publish` of the burst, the commit `fence`, then the
/// frees — the allocator slice of a vacation-style transaction. The frees
/// stock the home arena's free list, so the next burst's first locked
/// reserve refills the thread's magazine and the rest of the burst is
/// lock-free.
fn reserve_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("alloc_contend_reserve_publish");
    group.sample_size(15);
    for (label, opts) in variants() {
        let pool = Arc::new(PmemPool::create(opts).unwrap());
        for threads in THREADS {
            let pool = pool.clone();
            group.bench_function(format!("{label}/t{threads}"), |b| {
                b.iter(|| {
                    std::thread::scope(|s| {
                        for _ in 0..threads {
                            let pool = &pool;
                            s.spawn(move || {
                                let mut burst = Vec::with_capacity(TX_ALLOCS);
                                for _ in 0..OPS / TX_ALLOCS {
                                    burst.clear();
                                    for _ in 0..TX_ALLOCS {
                                        burst.push(pool.reserve(64).unwrap());
                                    }
                                    pool.publish(&burst).unwrap();
                                    pool.fence();
                                    for &r in &burst {
                                        pool.free(r).unwrap();
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

criterion_group!(benches, alloc_free, reserve_publish);
criterion_main!(benches);
