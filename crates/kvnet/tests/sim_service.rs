//! DES-transport service runs: bit-determinism across reruns, fence
//! amortization from batching, admission shedding, and snapshot reads.

use std::sync::Arc;

use clobber_apps::{KvServer, LockScheme};
use clobber_kvnet::{
    serve, Admission, AdmissionConfig, KvService, ServeConfig, SimNet, SimNetConfig, SimReport,
};
use clobber_nvm::{Backend, Runtime, RuntimeOptions};
use clobber_pmem::{PmemPool, PoolOptions, StatsSnapshot, Trace, Tracer};
use clobber_trace::EventKind;
use clobber_workloads::{Mix, RequestStream};

struct RunOutput {
    report: SimReport,
    stats: StatsSnapshot,
    trace: Trace,
    pairs: Vec<(u64, Vec<u8>)>,
}

fn run_service(cfg: &SimNetConfig, max_batch: usize, adm: AdmissionConfig) -> RunOutput {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(16 << 20)).unwrap());
    let rt =
        Arc::new(Runtime::create(pool.clone(), RuntimeOptions::new(Backend::clobber())).unwrap());
    let server = KvServer::create(&rt, LockScheme::BucketRw).unwrap();
    let tracer = Arc::new(Tracer::new());
    pool.set_tracer(Some(tracer.clone()));
    let mut svc = KvService::new(rt, server);
    let mut admission = Admission::new(adm);
    let mut net = SimNet::new(cfg).with_window(cfg.window);
    serve(
        &mut svc,
        &mut admission,
        &mut net,
        &ServeConfig {
            max_batch,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    pool.set_tracer(None);
    let mut pairs = svc.server().table().dump(&pool).unwrap();
    pairs.sort();
    RunOutput {
        report: net.report(),
        stats: pool.stats().snapshot(),
        trace: tracer.take(),
        pairs,
    }
}

fn base_cfg() -> SimNetConfig {
    SimNetConfig {
        clients: 6,
        requests_per_client: 32,
        key_space: 256,
        seed: 11,
        mix: Mix::InsertMost,
        zipf_theta: Some(0.99),
        window: 1,
        think_ns: 500,
        shed_backoff_ns: 20_000,
    }
}

/// Determinism: the same simulated client population against the same
/// service must produce bit-identical traces, counters, latencies, and table
/// contents on every run.
#[test]
fn des_service_runs_are_bit_deterministic_across_reruns() {
    let cfg = base_cfg();
    let adm = AdmissionConfig::default();
    let golden = run_service(&cfg, 16, adm);
    assert!(golden.report.completed == 6 * 32, "{:?}", golden.report);
    let other = run_service(&cfg, 16, adm);
    assert_eq!(other.trace, golden.trace, "trace diverged");
    assert_eq!(other.stats, golden.stats, "counters diverged");
    assert_eq!(other.report, golden.report, "latency report diverged");
    assert_eq!(other.pairs, golden.pairs, "table contents diverged");
    // The table holds exactly the deterministic workload values.
    assert!(!golden.pairs.is_empty());
    for (key, value) in &golden.pairs {
        assert_eq!(value, &RequestStream::value_bytes(*key));
    }
    // net_* accounting closes: every accepted request was either batched
    // into a transaction (set) or served off the snapshot path (get).
    let s = &golden.stats;
    assert_eq!(s.net_accepted, s.net_batched + s.net_snapshot_reads);
    assert_eq!(s.net_accepted, golden.report.completed);
}

/// Amortization: with ≥4 concurrent clients, batched group commit spends
/// fewer fences per request than per-request commit on the identical
/// workload.
#[test]
fn batched_commit_amortizes_fences_across_clients() {
    let cfg = base_cfg();
    let adm = AdmissionConfig::default();
    let batched = run_service(&cfg, 16, adm);
    let per_request = run_service(&cfg, 1, adm);
    assert_eq!(batched.report.completed, per_request.report.completed);
    assert_eq!(
        batched.pairs, per_request.pairs,
        "batching must not change the table contents"
    );
    let fences_per_req = |o: &RunOutput| o.stats.fences as f64 / o.report.completed.max(1) as f64;
    assert!(
        fences_per_req(&batched) < fences_per_req(&per_request),
        "batched {} >= per-request {} fences/request",
        fences_per_req(&batched),
        fences_per_req(&per_request)
    );
    // The batcher genuinely coalesced multiple clients: some batch-open
    // event records at least 4 requests in one transaction.
    let best_batch = batched
        .trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::NetBatchOpen)
        .map(|e| e.b)
        .max()
        .unwrap_or(0);
    assert!(
        best_batch >= 4,
        "largest coalesced batch only had {best_batch} requests"
    );
    // Batch framing is balanced: every open has a matching close.
    let opens = batched
        .trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::NetBatchOpen)
        .count();
    let closes = batched
        .trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::NetBatchClose)
        .count();
    assert_eq!(opens, closes);
    assert!(opens > 0);
    // And per-request mode batches exactly one set per transaction.
    assert!(per_request
        .trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::NetBatchOpen)
        .all(|e| e.b == 1));
}

/// Overload sheds with the typed response instead of queueing; shed
/// requests are resubmitted by the client and eventually complete.
#[test]
fn overload_sheds_typed_responses_and_work_still_completes() {
    let cfg = SimNetConfig {
        clients: 8,
        window: 2,
        ..base_cfg()
    };
    let tight = AdmissionConfig {
        per_conn_window: 1,
        global_cap: 3,
    };
    let out = run_service(&cfg, 16, tight);
    assert!(
        out.report.shed > 0,
        "tight caps must shed: {:?}",
        out.report
    );
    assert_eq!(out.stats.net_shed, out.report.shed);
    assert_eq!(out.report.completed, 8 * 32, "shed work completes on retry");
    assert_eq!(out.stats.net_accepted, out.report.completed);
    // Shedding shows up in the tail, not just the counters.
    assert!(out.report.p999_ns >= out.report.p99_ns);

    // An uncontended run with the same population sheds nothing.
    let roomy = run_service(&cfg, 16, AdmissionConfig::default());
    assert_eq!(roomy.report.shed, 0);
    assert_eq!(roomy.stats.net_shed, 0);
}

/// Search-heavy traffic rides the snapshot path: reads never enter a
/// transaction, so a get-dominated mix spends almost no fences.
#[test]
fn snapshot_gets_bypass_transactions() {
    let cfg = SimNetConfig {
        mix: Mix::SearchIntensive,
        ..base_cfg()
    };
    let out = run_service(&cfg, 16, AdmissionConfig::default());
    assert!(out.stats.net_snapshot_reads > out.stats.net_batched);
    assert_eq!(
        out.stats.net_accepted,
        out.stats.net_batched + out.stats.net_snapshot_reads
    );
    // The insert-heavy mix from the same population pays far more fences.
    let writey = run_service(&base_cfg(), 16, AdmissionConfig::default());
    assert!(out.stats.fences < writey.stats.fences / 2);
}
