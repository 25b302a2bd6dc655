//! Crash sweep over the batched service path (satellite 1).
//!
//! The DES transport makes a whole multi-client batched service run a
//! deterministic persist-event stream, so the product's `CrashBattery`
//! applies unchanged: count the events once, then for every index `k`
//! replay the identical run, trip an injected crash at `k` (often
//! mid-batch, between a batch's open and close frames), take a power
//! failure, recover, run the battery's checks with the table invariant,
//! and keep serving. Runs at shard counts {1, 4}, on two populations: the
//! wide key space, and two keys — where every drain SETs one key two to
//! four times, so each batch frees blocks it allocated itself.

use std::sync::Arc;

use clobber_apps::{KvServer, LockScheme};
use clobber_kvnet::{
    serve, Admission, AdmissionConfig, Envelope, KvRequest, KvResponse, KvService, ServeConfig,
    SimNet, SimNetConfig,
};
use clobber_nvm::{
    reopen_media, Backend, CrashBattery, ExploreSession, Nested, Runtime, RuntimeOptions,
    SweepSummary, TxError,
};
use clobber_pmem::{PmemPool, PoolOptions};
use clobber_workloads::{Mix, RequestStream};

/// Small log capacities keep each replayed pool cheap to create.
fn net_options() -> RuntimeOptions {
    let mut opts = RuntimeOptions::new(Backend::clobber());
    opts.clobber_log_cap = 32 << 10;
    opts.redo_log_cap = 32 << 10;
    opts
}

/// A small multi-client population: enough clients that batches really
/// coalesce, few enough requests that the sweep stays cheap.
fn sim_cfg(key_space: u64) -> SimNetConfig {
    SimNetConfig {
        clients: 4,
        requests_per_client: 5,
        key_space,
        seed: 7,
        mix: Mix::InsertMost,
        zipf_theta: Some(0.9),
        window: 1,
        think_ns: 500,
        shed_backoff_ns: 20_000,
    }
}

/// The service as a battery workload: a fresh pool with the server state
/// created, reopen with its txfuncs registered, and the table invariant.
fn session(shards: u32) -> ExploreSession<'static> {
    ExploreSession {
        build: Box::new(move || {
            let opts = PoolOptions::crash_sim(2 << 20).with_shards(shards);
            let pool = Arc::new(PmemPool::create(opts).unwrap());
            let rt = Runtime::create(pool.clone(), net_options()).unwrap();
            KvServer::create(&rt, LockScheme::BucketRw).unwrap();
            (pool, rt)
        }),
        reopen: Box::new(move |media| {
            let (pool, rt) = reopen_media(media, shards, net_options());
            KvServer::register(&rt);
            (pool, rt)
        }),
        check: Box::new(|pool, rt| {
            check_table(pool, &KvServer::open(rt, LockScheme::BucketRw).unwrap())
        }),
    }
}

fn service(rt: &Arc<Runtime>) -> KvService {
    KvService::new(
        rt.clone(),
        KvServer::open(rt, LockScheme::BucketRw).unwrap(),
    )
}

/// Drives the whole simulated population through the batched serve loop.
/// An injected crash surfaces as the `TxError` from the mid-batch
/// transaction (a trip on a trailing fence can still complete `Ok`); an
/// un-crashed run must not fail.
fn run_batched_service(rt: &Arc<Runtime>, cfg: &SimNetConfig) {
    let mut adm = Admission::new(AdmissionConfig::default());
    let mut net = SimNet::new(cfg).with_window(1);
    let outcome: Result<(), TxError> = serve(
        &mut service(rt),
        &mut adm,
        &mut net,
        &ServeConfig {
            max_batch: 8,
            ..ServeConfig::default()
        },
    );
    if rt.pool().fault_tripped().is_none() {
        outcome.expect("an un-crashed run must not fail");
    }
}

/// Every key in the table must carry exactly the deterministic workload
/// value for that key — whatever committed prefix of batches survived.
fn check_table(pool: &PmemPool, server: &KvServer) -> Result<(), String> {
    let pairs = server
        .table()
        .dump(pool)
        .map_err(|e| format!("dump: {e}"))?;
    match pairs
        .iter()
        .find(|(key, value)| *value != RequestStream::value_bytes(*key))
    {
        Some((key, _)) => Err(format!("key {key} holds a torn or foreign value")),
        None => Ok(()),
    }
}

/// Runs `f` with the battery over the batched service of `cfg`'s
/// population at `shards` shards.
fn with_battery<R>(shards: u32, cfg: &SimNetConfig, f: impl FnOnce(&CrashBattery<'_>) -> R) -> R {
    f(&CrashBattery {
        session: &session(shards),
        drive: &|rt| run_batched_service(rt, cfg),
        nested: Nested::Off,
    })
}

/// Counts the persist events one full service run issues.
fn count_events(shards: u32, cfg: &SimNetConfig) -> u64 {
    let n = with_battery(shards, cfg, |b| b.count_events()).unwrap_or_else(|v| panic!("{v}"));
    assert!(n > 0, "service run must issue persist events");
    n
}

/// The sweep: a crash at every persist event of the run, and every
/// recovered table keeps serving batched writes.
fn sweep_net(shards: u32, cfg: &SimNetConfig) -> SweepSummary {
    let summary = with_battery(shards, cfg, |b| {
        b.sweep(1, u64::MAX, |r| {
            let ctx = format!("{shards} shards k={}", r.crash_at);
            let mut svc = service(&r.rt);
            let responses = svc
                .process_batch_on(
                    0,
                    &[Envelope {
                        conn: 0,
                        opaque: 0,
                        req: KvRequest::Set {
                            key: RequestStream::key_bytes(999),
                            value: RequestStream::value_bytes(999),
                        },
                    }],
                )
                .unwrap_or_else(|e| panic!("{ctx}: post-recovery batch failed: {e}"));
            assert_eq!(responses[0].2, KvResponse::Stored, "{ctx}");
            check_table(&r.pool, svc.server()).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            r.pool
                .check_heap()
                .unwrap_or_else(|e| panic!("{ctx}: heap check failed: {e}"));
        })
    })
    .unwrap_or_else(|v| panic!("{shards} shards: {v}"));
    assert!(summary.events > 0, "the run issues persist events");
    assert_eq!(summary.crash_points, summary.events, "{shards} shards");
    assert_eq!(summary.not_tripped, 0, "{shards} shards: every event trips");
    summary
}

#[test]
fn batched_service_crash_sweep_one_shard() {
    sweep_net(1, &sim_cfg(64));
    sweep_net(1, &sim_cfg(2));
}

#[test]
fn batched_service_crash_sweep_sharded4() {
    for key_space in [64, 2] {
        let cfg = sim_cfg(key_space);
        assert_eq!(sweep_net(4, &cfg), sweep_net(1, &cfg), "{key_space} keys");
    }
}

/// The ordering contract extends through the service layer: the whole
/// multi-client batched run issues the same number of persist events at
/// every shard count.
#[test]
fn service_event_count_is_shard_invariant() {
    for key_space in [64, 2] {
        let cfg = sim_cfg(key_space);
        assert_eq!(count_events(1, &cfg), count_events(4, &cfg));
    }
}
