//! Crash sweep over the batched service path (satellite 1).
//!
//! The DES transport makes a whole multi-client batched service run a
//! deterministic persist-event stream, so the core crash-sweep recipe
//! applies unchanged: count the events once, then for each chosen index
//! `k` replay the identical run, trip an injected crash at `k` (often
//! mid-batch, between a batch's open and close frames), take an
//! adversarial `drop_all` power failure, recover, and check that the
//! table conserves the workload invariant. Runs at shard counts {1, 4}.

use std::sync::Arc;

use clobber_apps::{KvServer, LockScheme};
use clobber_kvnet::{
    serve, Admission, AdmissionConfig, Envelope, KvRequest, KvResponse, KvService, ServeConfig,
    SimNet, SimNetConfig,
};
use clobber_nvm::{Backend, Runtime, RuntimeOptions, TxError};
use clobber_pmem::{
    CacheImpl, CrashConfig, FaultPlan, PmemPool, PoolConcurrency, PoolMode, PoolOptions,
};
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
fn sim_cfg() -> SimNetConfig {
    SimNetConfig {
        clients: 4,
        requests_per_client: 5,
        key_space: 64,
        seed: 7,
        mix: Mix::InsertMost,
        zipf_theta: Some(0.9),
        window: 1,
        think_ns: 500,
        shed_backoff_ns: 20_000,
    }
}

/// Fresh pool + service, identical across calls so persist-event streams
/// replay exactly.
fn setup(concurrency: PoolConcurrency) -> (Arc<PmemPool>, KvService) {
    let opts = PoolOptions::crash_sim(2 << 20).with_concurrency(concurrency);
    let pool = Arc::new(PmemPool::create(opts).unwrap());
    let rt = Arc::new(Runtime::create(pool.clone(), net_options()).unwrap());
    let server = KvServer::create(&rt, LockScheme::BucketRw).unwrap();
    (pool, KvService::new(rt, server))
}

/// Drives the whole simulated population through the batched serve loop.
/// An injected crash surfaces as the `TxError` from the mid-batch
/// transaction (a trip on a trailing fence can still complete `Ok`).
fn run_batched_service(svc: &mut KvService) -> Result<(), TxError> {
    let mut adm = Admission::new(AdmissionConfig::default());
    let mut net = SimNet::new(&sim_cfg()).with_window(1);
    serve(
        svc,
        &mut adm,
        &mut net,
        &ServeConfig {
            max_batch: 8,
            ..ServeConfig::default()
        },
    )
}

/// Every key in the table must carry exactly the deterministic workload
/// value for that key — whatever committed prefix of batches survived.
fn check_table(pool: &PmemPool, server: &KvServer, ctx: &str) {
    for (key, value) in server.table().dump(pool).unwrap() {
        assert_eq!(
            value,
            RequestStream::value_bytes(key),
            "{ctx}: key {key} holds a torn or foreign value"
        );
    }
    pool.check_heap()
        .unwrap_or_else(|e| panic!("{ctx}: heap check failed: {e}"));
}

/// Counts the persist events one full service run issues.
fn count_events(concurrency: PoolConcurrency) -> u64 {
    let (pool, mut svc) = setup(concurrency);
    pool.arm_faults(FaultPlan::count_only());
    run_batched_service(&mut svc).expect("count run must not fail");
    let n = pool.disarm_faults();
    assert!(n > 0, "service run must issue persist events");
    check_table(&pool, svc.server(), "baseline");
    n
}

/// Replays the run to event `k`, trips, and returns the surviving media
/// after an adversarial power failure.
fn crash_at(concurrency: PoolConcurrency, k: u64) -> Vec<u8> {
    let (pool, mut svc) = setup(concurrency);
    pool.arm_faults(FaultPlan::crash_at(k));
    let _ = run_batched_service(&mut svc);
    assert_eq!(pool.fault_tripped(), Some(k), "event {k} must trip");
    pool.crash(&CrashConfig::drop_all(0x17E7 ^ k))
        .unwrap()
        .media_snapshot()
}

/// Recovers `media`, checks the table invariant, recovery idempotence,
/// and that the recovered service keeps serving batches.
fn recover_and_check(media: Vec<u8>, concurrency: PoolConcurrency, ctx: &str) {
    let pool = Arc::new(
        PmemPool::open_from_media_with(media, PoolMode::CrashSim, CacheImpl::Dense, concurrency)
            .unwrap(),
    );
    let rt = Arc::new(Runtime::open(pool.clone(), net_options()).unwrap());
    KvServer::register(&rt);
    rt.recover_with(&clobber_nvm::RecoveryOptions::default().no_wait())
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    let server = KvServer::open(&rt, LockScheme::BucketRw).unwrap();
    check_table(&pool, &server, ctx);
    // Idempotence: recovery left nothing ongoing behind.
    let again = rt
        .recover_with(&clobber_nvm::RecoveryOptions::default().no_wait())
        .unwrap();
    assert!(
        again.is_clean(),
        "{ctx}: second recover found leftover work: {again:?}"
    );
    // The recovered table keeps serving batched writes.
    let mut svc = KvService::new(rt, server);
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
    check_table(&pool, svc.server(), ctx);
}

/// The sweep: ~24 evenly-spaced crash points over the run.
fn sweep_net(concurrency: PoolConcurrency) {
    let events = count_events(concurrency);
    let stride = (events / 24).max(1);
    let mut k = 0;
    let mut points = 0;
    while k < events {
        let media = crash_at(concurrency, k);
        recover_and_check(media, concurrency, &format!("{concurrency:?} k={k}"));
        points += 1;
        k += stride;
    }
    assert!(points > 0);
}

#[test]
fn batched_service_crash_sweep_global_lock() {
    sweep_net(PoolConcurrency::GlobalLock);
}

#[test]
fn batched_service_crash_sweep_sharded4() {
    sweep_net(PoolConcurrency::Sharded { shards: 4 });
}

/// The ordering contract extends through the service layer: the whole
/// multi-client batched run issues the same number of persist events at
/// every shard count.
#[test]
fn service_event_count_is_shard_invariant() {
    let baseline = count_events(PoolConcurrency::GlobalLock);
    for concurrency in [
        PoolConcurrency::Sharded { shards: 4 },
        PoolConcurrency::SingleThread,
    ] {
        assert_eq!(baseline, count_events(concurrency), "{concurrency:?}");
    }
}
