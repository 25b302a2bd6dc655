//! `kv_crash_recover`: serve on an armed crash-sim pool, crash strictly
//! inside a SET, restart, check durability.
//!
//! Each cycle (= one op) reopens a pristine 8 MiB crash-sim image (1 024
//! preloaded keys, versioned 64-byte values) and then, timed on the host
//! clock and priced on the simulated clock:
//!
//! 1. serves 8 single-request batches through `process_batch_on` (75 % SET,
//!    zipf 0.99 — per-request commit) on the pool with a fault plan armed,
//!    then the SET that `FaultPlan::crash_at(k)` interrupts, `k` strictly
//!    inside that SET's persist events;
//! 2. after an adversarial `crash(drop_all)` (untimed), restarts:
//!    `open_from_media` → `Runtime::open` → `KvServer::register` →
//!    `recover_with(default().no_wait())` → `KvServer::open` → first GET
//!    answered.
//!
//! It is also the durability check: after the restart every key must hold
//! its last acknowledged version (or the interrupted request's).

use std::sync::Arc;
use std::time::Instant;

use clobber_apps::{KvServer, LockScheme};
use clobber_kvnet::{Envelope, KvRequest, KvResponse, KvService};
use clobber_nvm::{Backend, RecoveryOptions, RecoveryReport, Runtime, RuntimeOptions};
use clobber_pmem::{CrashConfig, FaultPlan, PmemPool, PoolMode, PoolOptions};
use clobber_sim::CostModel;
use clobber_workloads::{Mix, RequestStream};

use super::RoundOut;
use crate::alloc_count::{counted, set_counting};
use crate::metrics::Events;
use crate::model::{versioned_value, KvModel};
use crate::rng::SplitMix64;
use crate::spans::{self, span};
use crate::stats::percentile_nearest_rank;

/// Crash/restart cycles per round.
pub const CYCLES: u64 = 240;
/// Preloaded keys.
pub const KEYS: u64 = 1024;
/// Requests served on the armed pool before the interrupted SET.
pub const WARM_REQUESTS: usize = 8;
/// Crash-sim pool size.
pub const POOL_BYTES: u64 = 8 << 20;

fn options() -> RuntimeOptions {
    RuntimeOptions::new(Backend::clobber())
}

fn set_env(key: u64, value: &[u8]) -> Envelope {
    Envelope {
        conn: 0,
        opaque: key,
        req: KvRequest::Set {
            key: RequestStream::key_bytes(key),
            value: value.to_vec(),
        },
    }
}

fn get_env(key: u64) -> Envelope {
    Envelope {
        conn: 0,
        opaque: key,
        req: KvRequest::Get {
            key: RequestStream::key_bytes(key),
        },
    }
}

/// Reopens `media` the way a restarted server does, untimed: pool, runtime,
/// registered txfuncs, recovery.
fn reopen(media: Vec<u8>) -> (Arc<PmemPool>, Arc<Runtime>, RecoveryReport) {
    let pool = Arc::new(PmemPool::open_from_media(media, PoolMode::CrashSim).expect("reopen"));
    let rt = Arc::new(Runtime::open(pool.clone(), options()).expect("runtime"));
    KvServer::register(&rt);
    let report = rt
        .recover_with(&RecoveryOptions::default().no_wait())
        .expect("recovery");
    (pool, rt, report)
}

/// A service on a reopened image.
fn open_service(image: Vec<u8>) -> (Arc<PmemPool>, KvService) {
    let (pool, rt, _report) = reopen(image);
    let server = KvServer::open(&rt, LockScheme::BucketRw).expect("server");
    (pool, KvService::new(rt, server))
}

/// Builds the pristine image: every key at version 0, everything durable.
fn pristine_image(seed: u64) -> (Vec<u8>, KvModel) {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(POOL_BYTES)).expect("pool"));
    let rt = Arc::new(Runtime::create(pool.clone(), options()).expect("runtime"));
    let server = KvServer::create(&rt, LockScheme::BucketRw).expect("server");
    let mut model = KvModel::new();
    let keys: Vec<u64> = (0..KEYS).collect();
    for chunk in keys.chunks(16) {
        let pairs: Vec<(u64, Vec<u8>)> =
            chunk.iter().map(|&k| (k, versioned_value(k, 0))).collect();
        server
            .table()
            .insert_batch_on(&rt, 0, &pairs)
            .expect("preload");
        for (k, v) in &pairs {
            model.set(*k, v);
        }
    }
    let image = pool
        .crash(&CrashConfig::drop_all(seed))
        .expect("crash")
        .media_snapshot();
    (image, model)
}

/// The persist-event indices of a SET at which a crash leaves recovery real
/// work, learned by dry runs on the reopened image: `count_only` gives the
/// event range of the cheapest SET (the first transaction after a reopen
/// and a later one, a hot and a cold key), then one crash per index inside
/// that range tells whether the interrupted transaction was already durably
/// begun. Before that point a restart finds nothing to do, so those indices
/// are left out: every timed restart recovers something.
fn working_trip_points(image: &[u8]) -> Vec<u64> {
    let (pool, mut svc) = open_service(image.to_vec());
    let mut least = u64::MAX;
    for key in [0, KEYS - 1, 1] {
        pool.arm_faults(FaultPlan::count_only());
        svc.process_batch_on(0, &[set_env(key, &versioned_value(key, u64::MAX))])
            .expect("dry-run SET");
        least = least.min(pool.disarm_faults());
    }
    drop((svc, pool));
    let points: Vec<u64> = (1..least.saturating_sub(1))
        .filter(|&k| {
            let (pool, mut svc) = open_service(image.to_vec());
            pool.arm_faults(FaultPlan::crash_at(k));
            let key = k % KEYS;
            let res = svc.process_batch_on(0, &[set_env(key, &versioned_value(key, u64::MAX))]);
            assert!(res.is_err(), "event {k} of {least} is inside the SET");
            let media = pool
                .crash(&CrashConfig::drop_all(k))
                .expect("crash")
                .media_snapshot();
            // Did recovery have an interrupted transaction to finish?
            !reopen(media).2.is_clean()
        })
        .collect();
    assert!(
        !points.is_empty(),
        "some crash point must leave recovery work"
    );
    points
}

/// One round of `cycles` crash/restart cycles.
pub fn run_round(cycles: u64, seed: u64, traced: bool) -> RoundOut {
    let mut out = RoundOut::default();
    let cost = CostModel::optane();

    let setup = Instant::now();
    let (image, model0) = pristine_image(seed);
    let trip_points = working_trip_points(&image);
    // Zipf 0.99 keys (the stream's own SET/GET draw is not used); versions
    // are assigned as requests are issued.
    let mut stream = RequestStream::zipf(Mix::InsertMost, u64::MAX, KEYS, seed, 0.99);
    let mut rng = SplitMix64::new(seed ^ 0xC4A5_4ED0);
    // Exactly 75 % SETs over the round, in a seeded order (a cycle has 3 to 8
    // of them): drawing each request's kind left 2 % between seeds in every
    // per-op count.
    let warm_total = cycles as usize * WARM_REQUESTS;
    let mut is_set: Vec<bool> = (0..warm_total).map(|i| i % 4 != 3).collect();
    for i in (1..warm_total).rev() {
        is_set.swap(i, rng.below(i as u64 + 1) as usize);
    }
    out.setup_ns = setup.elapsed().as_nanos() as u64;

    let mut sim_lat: Vec<u64> = Vec::with_capacity(cycles as usize);
    if traced {
        // Per cycle: one `process_batch_on` per request, the interrupted SET,
        // `restart` and its six steps.
        spans::enable(cycles as usize * (WARM_REQUESTS + 8) + 16);
    }
    let (allocs0, bytes0) = counted();

    for cycle in 0..cycles {
        spans::set_group(cycle);
        let mut model = model0.clone();
        let (pool, mut svc) = open_service(image.clone());

        // The cycle's requests (client side): versions in issue order, then
        // the SET the crash will interrupt.
        let mut version = 0u64;
        let mut next_set = |key: u64| {
            version += 1;
            set_env(key, &versioned_value(key, version))
        };
        let mut next_key = || clobber_kvnet::key_id(stream.next().expect("endless stream").key());
        let warm: Vec<Envelope> = is_set[cycle as usize * WARM_REQUESTS..][..WARM_REQUESTS]
            .iter()
            .map(|&set| {
                let key = next_key();
                if set {
                    next_set(key)
                } else {
                    get_env(key)
                }
            })
            .collect();
        let victim = next_set(next_key());
        let KvRequest::Set {
            value: victim_value,
            ..
        } = &victim.req
        else {
            unreachable!("the victim is a SET")
        };
        let victim_key = victim.opaque;
        let trip = trip_points[rng.below(trip_points.len() as u64) as usize];

        // ---- timed, part 1: per-request commit on the armed pool, up to
        // and including the SET the crash interrupts ----
        let stats = pool.stats().clone();
        let mut before = stats.snapshot();
        let mut cycle_sim = 0u64;
        let mut serve_timed = |svc: &mut KvService, env: &Envelope| {
            set_counting(true);
            let t = Instant::now();
            let res = {
                let _s = span("kvnet.service.process_batch_on");
                svc.process_batch_on(0, std::slice::from_ref(env))
            };
            out.armed_serve_ns += t.elapsed().as_nanos() as u64;
            set_counting(false);
            // Priced per request, as `serve()` prices a batch; the snapshot
            // is taken outside the timed span.
            let after = stats.snapshot();
            let events = after.delta(&before);
            before = after;
            cycle_sim += cost.op_cost(&events);
            out.armed_delta.add(&Events::of(&events));
            res
        };
        pool.arm_faults(FaultPlan::count_only());
        let answers: Vec<_> = warm.iter().map(|env| serve_timed(&mut svc, env)).collect();
        pool.arm_faults(FaultPlan::crash_at(trip));
        let interrupted = serve_timed(&mut svc, &victim);
        out.armed_reqs += WARM_REQUESTS as u64 + 1;
        let tripped = pool.fault_tripped() == Some(trip) && interrupted.is_err();

        // Every warm answer against the model, in issue order.
        for (env, answer) in warm.iter().zip(answers) {
            let ok = match (&env.req, answer.as_ref().map(|r| &r[0].2)) {
                (KvRequest::Set { value, .. }, Ok(KvResponse::Stored)) => {
                    model.set(env.opaque, value);
                    true
                }
                (KvRequest::Get { .. }, Ok(KvResponse::Value(v))) => {
                    model.get(env.opaque) == Some(v.as_slice())
                }
                _ => false,
            };
            if !ok {
                out.fail(|| format!("cycle {cycle}: {:?} answered {answer:?}", env.req));
            }
        }

        let crashing = Instant::now();
        let crashed = pool
            .crash(&CrashConfig::drop_all(seed ^ cycle))
            .expect("crash");
        out.crash_ns += crashing.elapsed().as_nanos() as u64;
        let media = crashed.media_snapshot();
        drop((svc, pool, crashed));

        // ---- timed, part 2: restart until the first GET is answered ----
        set_counting(true);
        let started = Instant::now();
        let restart = span("restart");
        let pool = {
            let _s = span("pmem.pool.open_from_media");
            Arc::new(PmemPool::open_from_media(media, PoolMode::CrashSim).expect("reopen"))
        };
        let rt = {
            let _s = span("core.runtime.open");
            Arc::new(Runtime::open(pool.clone(), options()).expect("runtime"))
        };
        {
            let _s = span("apps.kvserver.register");
            KvServer::register(&rt);
        }
        let report = {
            let _s = span("core.recovery.recover_with");
            rt.recover_with(&RecoveryOptions::default().no_wait())
        };
        let server = {
            let _s = span("apps.kvserver.open");
            KvServer::open(&rt, LockScheme::BucketRw)
        };
        let first_get = server.as_ref().ok().map(|server| {
            let _s = span("kvnet.service.first_get");
            let mut svc = KvService::new(rt.clone(), *server);
            svc.process_batch_on(0, &[get_env(victim_key)])
        });
        drop(restart);
        out.restart_ns += started.elapsed().as_nanos() as u64;
        set_counting(false);
        if cycle % 16 == 0 {
            out.rss_mib = out.rss_mib.max(crate::unit::rss_mib());
        }

        let events = pool.stats().snapshot();
        cycle_sim += cost.op_cost(&events);
        sim_lat.push(cycle_sim);
        out.sim_ns += cycle_sim;
        out.restart_delta.add(&Events::of(&events));

        // ---- verification, outside the timed span ----
        let in_flight = Some((victim_key, victim_value.as_slice()));
        let verdict = (|| -> Result<(), String> {
            if !tripped {
                return Err(format!(
                    "event {trip} did not interrupt the SET ({:?})",
                    interrupted.as_ref().map(|_| ())
                ));
            }
            let report = report
                .as_ref()
                .map_err(|e| format!("recovery failed: {e}"))?;
            if report.is_clean() {
                return Err("the restart found no interrupted transaction".into());
            }
            let server = server.as_ref().map_err(|e| format!("server open: {e}"))?;
            match first_get {
                Some(Ok(r)) => match &r[0].2 {
                    KvResponse::Value(v)
                        if Some(v.as_slice()) == model.get(victim_key) || v == victim_value => {}
                    other => return Err(format!("first GET of key {victim_key}: {other:?}")),
                },
                other => return Err(format!("first GET: {other:?}")),
            }
            let dump = server
                .table()
                .dump(&pool)
                .map_err(|e| format!("dump: {e}"))?;
            model.check_dump(&dump, in_flight)?;
            pool.check_heap().map_err(|e| format!("check_heap: {e}"))?;
            let again = rt
                .recover_with(&RecoveryOptions::default().no_wait())
                .map_err(|e| format!("second recover: {e}"))?;
            if !again.is_clean() {
                return Err(format!("second recover found work: {again:?}"));
            }
            Ok(())
        })();
        if let Err(why) = verdict {
            if why.starts_with("check_heap") {
                out.heap_check_failures += 1;
                out.heap_error.get_or_insert(why.clone());
            }
            out.fail(|| format!("cycle {cycle} (key {victim_key}, event {trip}): {why}"));
        }
    }

    let (allocs1, bytes1) = counted();
    out.allocs = allocs1 - allocs0;
    out.alloc_bytes = bytes1 - bytes0;
    if traced {
        out.spans = spans::take();
    }
    out.ops = cycles;
    out.delta = out.armed_delta;
    out.delta.add(&out.restart_delta);
    out.server_ns = out.armed_serve_ns + out.restart_ns;
    out.priced_calls = cycles * (WARM_REQUESTS as u64 + 2);
    sim_lat.sort_unstable();
    out.sim_p50_ns = percentile_nearest_rank(&sim_lat, 0.50);
    out.sim_p99_ns = percentile_nearest_rank(&sim_lat, 0.99);
    out.sim_samples = sim_lat.len() as u64;
    out
}
