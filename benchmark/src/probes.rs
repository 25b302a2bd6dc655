//! Per-layer probes: a timed loop over one layer's public function, shaped
//! like the calls the workload makes. One tiny harness per persistence
//! primitive, in the spirit of pmembench. Every probe reports host ns per
//! call as the median of [`REPEATS`] timed loops on fresh or steady state.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use clobber_kvnet::{Envelope, KvRequest};
use clobber_nvm::{ArgList, Backend, Runtime, RuntimeOptions};
use clobber_pds::HashMap;
use clobber_pmem::{LogWriter, PAddr, PmemPool, PoolOptions, Ulog};
use clobber_workloads::{Mix, Request, RequestStream};

use crate::stats::median;
use crate::workloads::serve::{self, KEY_SPACE};

/// Timed loops per probe; the median is reported.
pub const REPEATS: usize = 5;

/// The call shape a service workload showed, which its probes reuse.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    /// set/get mix.
    pub mix: Mix,
    /// Observed mean requests per executed batch, rounded (1..=16).
    pub batch: usize,
}

/// Host ns per call, per probe. Probes a workload does not run stay 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// Registered no-op txfunc via `run_on`.
    pub empty_tx_ns: f64,
    /// `locks().acquire(batch_locks(keys))` + drop, per SET.
    pub lock_acquire_release_ns_per_set: f64,
    /// `LogWriter::append` of one 8-byte entry + `sync`.
    pub ulog_append_ns: f64,
    /// `reserve(64)` + `publish`.
    pub alloc_reserve_publish_ns: f64,
    /// `GroupCommit::fence` with no other committer.
    pub group_commit_fence_ns: f64,
    /// `write_u64` + `flush` of one line, performance pool.
    pub pool_store_flush_ns: f64,
    /// `fence`, performance pool.
    pub pool_fence_ns: f64,
    /// `write_u64` + `flush` of one line, crash-sim pool (cache model).
    pub cache_store_flush_ns: f64,
    /// `HashMap::snapshot_get` of a preloaded zipf key.
    pub snapshot_get_ns: f64,
    /// `HashMap::insert_batch_on`, per SET of the batch.
    pub insert_batch_ns_per_set: f64,
    /// `process_batch_on` minus the direct table calls, per request.
    pub service_self_ns_per_req: f64,
}

/// Median over [`REPEATS`] runs of `body`, which returns `(ns, calls)`.
fn per_call(mut body: impl FnMut() -> (u64, u64)) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (ns, calls) = body();
            ns as f64 / calls.max(1) as f64
        })
        .collect();
    median(&samples)
}

fn perf_runtime(bytes: u64) -> (Arc<PmemPool>, Arc<Runtime>) {
    let pool = Arc::new(PmemPool::create(PoolOptions::performance(bytes)).expect("pool"));
    let rt = Arc::new(
        Runtime::create(pool.clone(), RuntimeOptions::new(Backend::clobber())).expect("runtime"),
    );
    (pool, rt)
}

/// `core.runtime.empty_tx_ns`.
pub fn empty_tx(iters: u64) -> f64 {
    let (_pool, rt) = perf_runtime(16 << 20);
    rt.register("noop", |_tx, _args| Ok(None));
    let args = ArgList::new();
    per_call(|| {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(rt.run_on(0, "noop", black_box(&args)).expect("noop tx"));
        }
        (t.elapsed().as_nanos() as u64, iters)
    })
}

/// `pmem.ulog.append_ns`.
pub fn ulog_append(iters: u64) -> f64 {
    let pool = PmemPool::create(PoolOptions::performance(16 << 20)).expect("pool");
    let cap = 4u64 << 20;
    let base = pool.alloc(cap).expect("log buffer");
    let log = Ulog::format_v2(&pool, base, cap).expect("format");
    let target = pool.alloc(64).expect("target");
    let old = 7u64.to_le_bytes();
    // An 8-byte entry takes 3 payload words of a 7-word line; stay well
    // inside the buffer between truncations.
    let per_fill = (cap / 64).min(iters);
    per_call(|| {
        let mut w = LogWriter::new(log);
        let mut ns = 0;
        let mut done = 0;
        while done < iters {
            w.reset_unfenced(&pool).expect("truncate");
            let n = per_fill.min(iters - done);
            let t = Instant::now();
            for _ in 0..n {
                w.append(&pool, black_box(target), black_box(&old))
                    .expect("append");
                w.sync(&pool).expect("sync");
            }
            ns += t.elapsed().as_nanos() as u64;
            done += n;
        }
        (ns, iters)
    })
}

/// `pmem.alloc.reserve_publish_ns`.
pub fn alloc_reserve_publish(iters: u64) -> f64 {
    per_call(|| {
        let pool = PmemPool::create(PoolOptions::performance(64 << 20)).expect("pool");
        let t = Instant::now();
        for _ in 0..iters {
            let a = pool.reserve(black_box(64)).expect("reserve");
            pool.publish(&[a]).expect("publish");
        }
        (t.elapsed().as_nanos() as u64, iters)
    })
}

/// `core.group_commit.fence_ns`.
pub fn group_commit_fence(iters: u64) -> f64 {
    let (pool, rt) = perf_runtime(16 << 20);
    per_call(|| {
        let t = Instant::now();
        for _ in 0..iters {
            rt.group_commit().fence(&pool);
        }
        (t.elapsed().as_nanos() as u64, iters)
    })
}

/// `pmem.pool.store_flush_ns` (performance) / `pmem.cache.store_flush_ns`
/// (crash-sim): store 8 bytes and flush the line, over 1 024 lines, with a
/// fence every 64 lines so the cache model's pending set stays bounded.
pub fn store_flush(opts: PoolOptions, iters: u64) -> f64 {
    let pool = PmemPool::create(opts).expect("pool");
    let base = pool.alloc(64 * 1024 + 64).expect("lines");
    let first = (base.offset() + 63) & !63;
    per_call(|| {
        let t = Instant::now();
        for i in 0..iters {
            let addr = PAddr::new(first + (i % 1024) * 64);
            pool.write_u64(addr, black_box(i)).expect("store");
            pool.flush(addr, 8).expect("flush");
            if i % 64 == 63 {
                pool.fence();
            }
        }
        (t.elapsed().as_nanos() as u64, iters)
    })
}

/// `pmem.pool.fence_ns`.
pub fn pool_fence(iters: u64) -> f64 {
    let pool = PmemPool::create(PoolOptions::performance(1 << 20)).expect("pool");
    per_call(|| {
        let t = Instant::now();
        for _ in 0..iters {
            pool.fence();
        }
        (t.elapsed().as_nanos() as u64, iters)
    })
}

/// The next `n` requests of `stream` as `(key id, is_set)`.
fn draw(stream: &mut RequestStream, n: usize) -> Vec<(u64, bool)> {
    stream
        .by_ref()
        .take(n)
        .map(|r| match r {
            Request::Set { key, .. } => (clobber_kvnet::key_id(&key), true),
            Request::Get { key } => (clobber_kvnet::key_id(&key), false),
        })
        .collect()
}

/// The probes that need a preloaded table, on one shared service:
/// `snapshot_get`, lock acquire/release, `insert_batch_on`, and the
/// service's own share of `process_batch_on`.
pub fn table_probes(shape: ServeShape, batches: usize, out: &mut Probes) {
    let (pool, mut svc, _model) = serve::preloaded_service(32 << 20);
    let rt = svc.rt().clone();
    let table: HashMap = *svc.server().table();
    let mut stream = RequestStream::zipf(shape.mix, u64::MAX, KEY_SPACE, 0x9806E, 0.99);

    // Batches with the workload's size and mix. Keys are distinct within a
    // batch: a repeated key in one batch corrupts the heap (README,
    // "findings"), and a probe must leave its pool healthy.
    let drawn: Vec<Vec<(u64, bool)>> = (0..batches)
        .map(|_| {
            let mut b = draw(&mut stream, shape.batch);
            b.sort_unstable();
            b.dedup_by_key(|(k, _)| *k);
            b
        })
        .collect();
    let pairs: Vec<Vec<(u64, Vec<u8>)>> = drawn
        .iter()
        .map(|b| {
            b.iter()
                .filter(|(_, set)| *set)
                .map(|&(k, _)| (k, RequestStream::value_bytes(k)))
                .collect()
        })
        .collect();
    let gets: Vec<Vec<u64>> = drawn
        .iter()
        .map(|b| b.iter().filter(|(_, s)| !*s).map(|&(k, _)| k).collect())
        .collect();
    let envelopes: Vec<Vec<Envelope>> = drawn
        .iter()
        .map(|b| {
            b.iter()
                .enumerate()
                .map(|(i, &(k, set))| Envelope {
                    conn: i,
                    opaque: i as u64,
                    req: if set {
                        KvRequest::Set {
                            key: RequestStream::key_bytes(k),
                            value: RequestStream::value_bytes(k),
                        }
                    } else {
                        KvRequest::Get {
                            key: RequestStream::key_bytes(k),
                        }
                    },
                })
                .collect()
        })
        .collect();
    let sets: u64 = pairs.iter().map(|p| p.len() as u64).sum();
    let reqs: u64 = drawn.iter().map(|b| b.len() as u64).sum();

    let keys: Vec<u64> = draw(&mut stream, 4096)
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    out.snapshot_get_ns = per_call(|| {
        let t = Instant::now();
        for &k in &keys {
            black_box(
                table
                    .snapshot_get(&pool, black_box(k))
                    .expect("snapshot_get"),
            );
        }
        (t.elapsed().as_nanos() as u64, keys.len() as u64)
    });

    if sets > 0 {
        out.lock_acquire_release_ns_per_set = per_call(|| {
            let t = Instant::now();
            for p in pairs.iter().filter(|p| !p.is_empty()) {
                let ids: Vec<u64> = p.iter().map(|&(k, _)| k).collect();
                drop(
                    rt.locks()
                        .acquire(&pool, &table.batch_locks(black_box(&ids))),
                );
            }
            (t.elapsed().as_nanos() as u64, sets)
        });
        out.insert_batch_ns_per_set = per_call(|| {
            let t = Instant::now();
            for p in pairs.iter().filter(|p| !p.is_empty()) {
                table.insert_batch_on(&rt, 0, black_box(p)).expect("batch");
            }
            (t.elapsed().as_nanos() as u64, sets)
        });
    }

    // The service's own share: the same batches through `process_batch_on`
    // and through the direct table calls it makes, alternating per repeat.
    let mut through = Vec::with_capacity(REPEATS);
    let mut direct = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let t = Instant::now();
        for b in &envelopes {
            black_box(svc.process_batch_on(0, black_box(b)).expect("batch"));
        }
        through.push(t.elapsed().as_nanos() as f64 / reqs as f64);
        let t = Instant::now();
        for (p, g) in pairs.iter().zip(&gets) {
            if !p.is_empty() {
                table.insert_batch_on(&rt, 0, black_box(p)).expect("batch");
            }
            for &k in g {
                black_box(table.snapshot_get(&pool, k).expect("snapshot_get"));
            }
        }
        direct.push(t.elapsed().as_nanos() as f64 / reqs as f64);
    }
    out.service_self_ns_per_req = median(&through) - median(&direct);
    pool.check_heap().expect("probes leave the heap healthy");
}
