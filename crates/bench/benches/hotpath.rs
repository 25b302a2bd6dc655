//! Hot-path microbenchmarks for the pmem substrate and the transactional
//! fast path — the before/after instrument for the dense line cache.
//!
//! `crashsim_reference` runs the map-based reference cache (the original
//! model, kept for A/B comparison); `crashsim_dense` runs the dense
//! paged cache; `performance` skips cache simulation
//! entirely and bounds what the CrashSim path can hope to reach.
//! `crashsim_sharded4` runs the pool at 4 shards — what routing and
//! per-shard locks cost against the one-shard `crashsim_dense` baseline.
//! EXPERIMENTS.md records the measured numbers.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use clobber_nvm::{Runtime, RuntimeOptions};
use clobber_pds::HashMap;
use clobber_pmem::{PmemPool, PoolOptions};
use clobber_workloads::Workload;

const STORE_POOL: u64 = 16 << 20;
const LOAD_POOL: u64 = 64 << 20;

fn variants(capacity: u64) -> [(&'static str, PoolOptions); 4] {
    [
        ("crashsim_dense", PoolOptions::crash_sim(capacity)),
        (
            "crashsim_reference",
            PoolOptions::crash_sim(capacity).with_reference_cache(),
        ),
        (
            "crashsim_sharded4",
            PoolOptions::crash_sim(capacity).with_shards(4),
        ),
        ("performance", PoolOptions::performance(capacity)),
    ]
}

/// Raw substrate store path: one 64-byte store + flush per iteration, a
/// fence every 64 — the instruction mix of a logging-heavy transaction.
fn store_flush_fence(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_store");
    group.sample_size(20);
    for (label, opts) in variants(STORE_POOL) {
        let pool = PmemPool::create(opts).unwrap();
        let base = pool.alloc(1 << 20).unwrap();
        let data = [0xA5u8; 64];
        let mut i = 0u64;
        group.bench_function(format!("{label}/store64_flush"), |b| {
            b.iter(|| {
                let addr = base.add((i % 16_384) * 64);
                i += 1;
                pool.write_bytes(addr, &data).unwrap();
                pool.flush(addr, 64).unwrap();
                if i.is_multiple_of(64) {
                    pool.fence();
                }
            });
        });
    }
    group.finish();
}

/// End-to-end YCSB-Load step: one hashmap insert transaction (clobber
/// backend) per iteration, 256-byte values as in the paper's §5.2.
fn ycsb_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_ycsb_load");
    group.sample_size(10);
    for (label, opts) in variants(LOAD_POOL) {
        let pool = Arc::new(PmemPool::create(opts).unwrap());
        let rt = Runtime::create(pool, RuntimeOptions::default()).unwrap();
        HashMap::register(&rt);
        let map = HashMap::create(&rt).unwrap();
        let value = Workload::value_for(0, 256);
        let mut key = 0u64;
        group.bench_function(format!("{label}/hashmap_insert"), |b| {
            b.iter(|| {
                // Wrap the key space so long runs settle into steady-state
                // updates and cannot exhaust the pool.
                key = (key + 1) % 8192;
                map.insert(&rt, key.wrapping_mul(0x9E37_79B9_7F4A_7C15), &value)
                    .unwrap();
            });
        });
    }
    group.finish();
}

/// The same store/flush/fence mix and YCSB-Load insert with a tracer
/// attached — the tracing-ON overhead instrument against the
/// `crashsim_dense` rows of the groups above (EXPERIMENTS.md table).
/// The ring is drained in the untimed `iter_batched` setup slot so the
/// measured path is recording itself, not trace post-processing.
fn traced_variants(c: &mut Criterion) {
    use clobber_pmem::Tracer;
    use criterion::BatchSize;

    let mut group = c.benchmark_group("hotpath_store_traced");
    group.sample_size(20);
    let pool = PmemPool::create(PoolOptions::crash_sim(STORE_POOL)).unwrap();
    let base = pool.alloc(1 << 20).unwrap();
    let tracer = Arc::new(Tracer::with_capacity(1 << 16));
    pool.set_tracer(Some(tracer.clone()));
    let data = [0xA5u8; 64];
    let mut i = 0u64;
    let mut setups = 0u64;
    group.bench_function("crashsim_dense_traced/store64_flush", |b| {
        let tracer = tracer.clone();
        b.iter_batched(
            || {
                setups += 1;
                if setups.is_multiple_of(8192) {
                    let _ = tracer.take();
                }
            },
            |()| {
                let addr = base.add((i % 16_384) * 64);
                i += 1;
                pool.write_bytes(addr, &data).unwrap();
                pool.flush(addr, 64).unwrap();
                if i.is_multiple_of(64) {
                    pool.fence();
                }
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();

    let mut group = c.benchmark_group("hotpath_ycsb_load_traced");
    group.sample_size(10);
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(LOAD_POOL)).unwrap());
    let tracer = Arc::new(Tracer::with_capacity(1 << 16));
    pool.set_tracer(Some(tracer.clone()));
    let rt = Runtime::create(pool, RuntimeOptions::default()).unwrap();
    HashMap::register(&rt);
    let map = HashMap::create(&rt).unwrap();
    let value = Workload::value_for(0, 256);
    let mut key = 0u64;
    let mut setups = 0u64;
    group.bench_function("crashsim_dense_traced/hashmap_insert", |b| {
        let tracer = tracer.clone();
        b.iter_batched(
            || {
                setups += 1;
                if setups.is_multiple_of(512) {
                    let _ = tracer.take();
                }
            },
            |()| {
                key = (key + 1) % 8192;
                map.insert(&rt, key.wrapping_mul(0x9E37_79B9_7F4A_7C15), &value)
                    .unwrap();
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// Log-append A/B for the cache-line-buffered writer: the line buffer
/// (one streaming flush per full 64-byte line, fence deferred to the sync
/// point, here every 8 appends) vs the same with the sync fence routed
/// through the group-commit coalescer (single-threaded: identical fence
/// count, measures the epoch-protocol overhead). Fence *counts* are pinned
/// in `ulog.rs`/`group_commit.rs` tests; this measures the wall-clock side
/// on the dense CrashSim engine.
fn log_append(c: &mut Criterion) {
    use clobber_nvm::GroupCommit;
    use clobber_pmem::{LogWriter, Ulog};

    const CAP: u64 = 1 << 20;
    const RESET_EVERY: u64 = 1024;
    const SYNC_EVERY: u64 = 8;

    let mut group = c.benchmark_group("hotpath_log_append");
    group.sample_size(20);
    let pre = [0x5Au8; 8];

    for (label, grouped) in [
        ("v2_line_buffered/append8", false),
        ("v2_group_commit_path/append8", true),
    ] {
        let pool = PmemPool::create(PoolOptions::crash_sim(STORE_POOL)).unwrap();
        let base = pool.alloc(CAP).unwrap();
        let src = pool.alloc(64).unwrap();
        let gc = GroupCommit::new(1);
        let mut w = LogWriter::new(Ulog::format_v2(&pool, base, CAP).unwrap());
        let mut i = 0u64;
        group.bench_function(label, |b| {
            b.iter(|| {
                if i == RESET_EVERY {
                    w.reset_unfenced(&pool).unwrap();
                    pool.fence();
                    i = 0;
                }
                w.append(&pool, src, &pre).unwrap();
                i += 1;
                if i.is_multiple_of(SYNC_EVERY) {
                    if grouped {
                        w.sync_with(&pool, |p| gc.fence(p)).unwrap();
                    } else {
                        w.sync(&pool).unwrap();
                    }
                }
            });
        });
    }
    group.finish();
}

/// The access-table traffic of one batched transaction: 8-byte loads at
/// scattered heap addresses (chain walks over nodes the allocator handed
/// out in no particular order), then the refined to-log probe one store
/// runs against that read set. Load cost is reported per `N` loads at three
/// table sizes — EXPERIMENTS.md divides by `N` — because what matters is
/// whether the per-access cost depends on how many ranges the transaction
/// already holds. (The group and bench names predate the table, so older
/// rows still map.)
fn rangeset_scattered(c: &mut Criterion) {
    use clobber_nvm::access::{AccessTable, Kind, ToLog};
    // Seeded splitmix64: 8-byte fields of 32-byte nodes spread over a
    // 16 MiB heap, in a fixed pseudo-random order.
    let addrs = |n: usize| -> Vec<u64> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                (1 << 20) + (z % (512 << 10)) * 32 + (z >> 60) % 4 * 8
            })
            .collect()
    };
    let mut group = c.benchmark_group("hotpath_rangeset");
    group.sample_size(20);
    for n in [32usize, 512, 4096] {
        let addrs = addrs(n);
        group.bench_function(format!("insert_8b_scattered_x{n}"), |b| {
            let mut table = AccessTable::new();
            b.iter(|| {
                table.clear();
                for &a in &addrs {
                    table.load(a, a + 8, true);
                }
                criterion::black_box(&table);
            });
        });
    }
    group.bench_function("store_sequence_over_512", |b| {
        let addrs = addrs(512);
        let mut table = AccessTable::new();
        for (i, &a) in addrs.iter().enumerate() {
            table.load(a, a + 8, true);
            if i % 2 == 0 {
                table.insert(Kind::Logged, a, a + 8);
            }
        }
        let mut to_log = Vec::new();
        let mut i = 0usize;
        b.iter(|| {
            // Alternate a store that hits a read-set entry with one to a
            // neighbouring field that hits nothing; unmarked, so every
            // iteration probes the same table.
            i = (i + 1) % (2 * addrs.len());
            let s = addrs[i / 2] + (i as u64 % 2) * 32;
            to_log.clear();
            table.store(s, s + 8, ToLog::ReadUnlogged, false, &mut to_log);
            criterion::black_box(to_log.len())
        });
    });
    group.finish();
}

/// The per-access primitives the transaction and log paths are built from,
/// on the default one-shard pool in both pool modes — and at 4 shards, so
/// what routing costs above one shard stays a row: a word load, a word
/// store with its separate flush, the fused store+flush, and a
/// group-commit fence with nobody else requesting.
fn pool_access(c: &mut Criterion) {
    use clobber_nvm::GroupCommit;
    use clobber_pmem::PAddr;

    let mut group = c.benchmark_group("hotpath_pool_access");
    group.sample_size(20);
    for (label, opts) in [
        ("performance", PoolOptions::performance(STORE_POOL)),
        (
            "performance_shards4",
            PoolOptions::performance(STORE_POOL).with_shards(4),
        ),
        ("crashsim_dense", PoolOptions::crash_sim(STORE_POOL)),
    ] {
        let pool = PmemPool::create(opts).unwrap();
        let raw = pool.alloc((64 << 10) + 64).unwrap();
        let base = PAddr::new((raw.offset() + 63) & !63);
        let gc = GroupCommit::new(1);
        let mut i = 0u64;
        // A fence every 64 stores keeps the cache model's pending set
        // bounded, as in `store_flush_fence`.
        let mut next = |pool: &PmemPool| {
            i += 1;
            if i.is_multiple_of(64) {
                pool.fence();
            }
            (base.add((i % 1024) * 64), i)
        };
        group.bench_function(format!("{label}/read_u64"), |b| {
            b.iter(|| {
                let (addr, _) = next(&pool);
                criterion::black_box(pool.read_u64(addr).unwrap())
            });
        });
        group.bench_function(format!("{label}/write_u64_then_flush"), |b| {
            b.iter(|| {
                let (addr, v) = next(&pool);
                pool.write_u64(addr, v).unwrap();
                pool.flush(addr, 8).unwrap();
            });
        });
        group.bench_function(format!("{label}/store_flush_8"), |b| {
            b.iter(|| {
                let (addr, v) = next(&pool);
                pool.store_flush(addr, &v.to_le_bytes()).unwrap();
            });
        });
        group.bench_function(format!("{label}/group_commit_fence_uncontended"), |b| {
            b.iter(|| gc.fence(&pool));
        });
    }
    group.finish();
}

/// What a crash-sim pool instance costs before it has done anything, at
/// three capacities: reopen an image → first `store_flush` → fence → take
/// the image back (the battery's per-pool pattern: the buffer is recycled,
/// so the allocator's zeroing or faulting-in of a fresh pool-sized buffer
/// is not in the loop). The cache model is paged, so rows that stay close
/// together are the "a crash point costs what it touches, not the pool"
/// property; what still grows with the pool is the cache's slot table
/// (4 bytes per 4 KiB).
fn crash_sim_first_store(c: &mut Criterion) {
    use clobber_pmem::{PAddr, PoolMode};

    let mut group = c.benchmark_group("crash_sim_first_store");
    group.sample_size(20);
    for mib in [1u64, 8, 64] {
        let fresh = PmemPool::create(PoolOptions::crash_sim(mib << 20)).unwrap();
        let mut image = fresh.into_media();
        group.bench_function(format!("{mib}MiB"), |b| {
            b.iter(|| {
                let media = std::mem::take(&mut image);
                let pool = PmemPool::open_from_media(media, PoolMode::CrashSim).unwrap();
                pool.store_flush(PAddr::new(4096), &[0xA5; 64]).unwrap();
                pool.fence();
                image = pool.into_media();
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    crash_sim_first_store,
    pool_access,
    store_flush_fence,
    ycsb_load,
    traced_variants,
    log_append,
    rangeset_scattered
);
criterion_main!(benches);
