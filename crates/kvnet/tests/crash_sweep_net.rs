//! Crash sweep over the batched service path (satellite 1).
//!
//! The DES transport makes a whole multi-client batched service run a
//! deterministic persist-event stream, so the product's `CrashBattery`
//! applies unchanged: count the events once, then for every index `k`
//! replay the identical run, trip an injected crash at `k` (often
//! mid-batch, between a batch's open and close frames), take a power
//! failure, recover, run the battery's checks with the table invariant,
//! and keep serving. Runs on two populations: the wide key space, and two keys — where every drain SETs one key two to
//! four times, so each batch frees blocks it allocated itself. A last case
//! sweeps one batch whose begin record spans the v_log's lines by the
//! dozen, and one too large for the v_log.

use std::sync::Arc;

use clobber_apps::{KvServer, LockScheme};
use clobber_kvnet::{
    key_id, serve, Admission, AdmissionConfig, Envelope, KvRequest, KvResponse, KvService,
    ServeConfig, SimNet, SimNetConfig,
};
use clobber_nvm::{
    reopen_media, Backend, CrashBattery, ExploreSession, Nested, Runtime, RuntimeOptions,
    SweepSummary, TxError, VLOG_CAP,
};
use clobber_pmem::{CrashConfig, PmemPool, PoolOptions};
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

/// A table invariant the battery checks after each recovery.
type TableCheck = fn(&PmemPool, &KvServer) -> Result<(), String>;

/// The service as a battery workload: a fresh pool with the server state
/// created, reopen with its txfuncs registered, and the table invariant.
fn session(check: TableCheck) -> ExploreSession<'static> {
    ExploreSession {
        build: Box::new(move || {
            let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(2 << 20)).unwrap());
            let rt = Runtime::create(pool.clone(), net_options()).unwrap();
            KvServer::create(&rt, LockScheme::BucketRw).unwrap();
            (pool, rt)
        }),
        reopen: Box::new(move |media| {
            let (pool, rt) = reopen_media(media, net_options());
            KvServer::register(&rt);
            (pool, rt)
        }),
        check: Box::new(move |pool, rt| {
            check(pool, &KvServer::open(rt, LockScheme::BucketRw).unwrap())
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

/// The sweep: a crash at every persist event of the batched service run of
/// `cfg`'s population, and every recovered table keeps serving batched
/// writes.
fn sweep_net(cfg: &SimNetConfig) -> SweepSummary {
    let summary = CrashBattery {
        session: &session(check_table),
        drive: &|rt| run_batched_service(rt, cfg),
        nested: Nested::Off,
    }
    .sweep(1, u64::MAX, |r| {
        let ctx = format!("k={}", r.crash_at);
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
    .unwrap_or_else(|v| panic!("{v}"));
    assert!(summary.events > 0, "the run issues persist events");
    assert_eq!(summary.crash_points, summary.events);
    assert_eq!(summary.not_tripped, 0, "every event trips");
    summary
}

#[test]
fn batched_service_crash_sweep() {
    sweep_net(&sim_cfg(64));
    sweep_net(&sim_cfg(2));
}

/// SETs in the large batch: 16 values of 128 bytes, ≈ 2.3 KB of arguments
/// in one begin record, past the 2 KiB a record's arguments were once
/// capped at.
const BIG: u64 = 16;

/// The large batch's value for key `id`.
fn big_value(id: u64) -> Vec<u8> {
    (0..128u64).map(|i| (id * 31 + i) as u8).collect()
}

/// One batch of `n` SETs of 128-byte values, keys `0..n`.
fn big_batch(n: u64) -> Vec<Envelope> {
    (0..n)
        .map(|k| {
            let key = RequestStream::key_bytes(k);
            Envelope {
                conn: 0,
                opaque: k,
                req: KvRequest::Set {
                    value: big_value(key_id(&key)),
                    key,
                },
            }
        })
        .collect()
}

/// The large batch is one transaction: all of its keys hold their values,
/// or none is in the table.
fn check_big_batch(pool: &PmemPool, server: &KvServer) -> Result<(), String> {
    let pairs = server
        .table()
        .dump(pool)
        .map_err(|e| format!("dump: {e}"))?;
    let whole = pairs.len() == BIG as usize && pairs.iter().all(|(k, v)| *v == big_value(*k));
    match pairs.is_empty() || whole {
        true => Ok(()),
        false => Err(format!("{} of {BIG} keys survived", pairs.len())),
    }
}

/// Serves `batch` as one drain; an injected crash may end it early.
fn serve_batch(rt: &Arc<Runtime>, batch: &[Envelope]) {
    match service(rt).process_batch_on(0, batch) {
        Ok(responses) => assert!(responses.iter().all(|r| r.2 == KvResponse::Stored)),
        Err(e) => assert!(rt.pool().fault_tripped().is_some(), "{e}"),
    }
}

#[test]
fn a_batch_past_the_old_args_cap_commits_and_recovers_at_every_event() {
    let batch = big_batch(BIG);
    let session = session(check_big_batch);
    let (pool, rt) = (session.build)();
    let rt = Arc::new(rt);
    serve_batch(&rt, &batch);
    let gets: Vec<Envelope> = batch
        .iter()
        .map(|e| match &e.req {
            KvRequest::Set { key, .. } => Envelope {
                req: KvRequest::Get { key: key.clone() },
                ..*e
            },
            KvRequest::Get { .. } => unreachable!(),
        })
        .collect();
    let read = service(&rt).process_batch_on(0, &gets).unwrap();
    for (e, (_, _, resp)) in batch.iter().zip(read) {
        let KvRequest::Set { value, .. } = &e.req else {
            unreachable!()
        };
        assert_eq!(resp, KvResponse::Value(value.clone()));
    }

    // A record past the v_log is refused before the begin stores
    // anything: the slot's words and v_log, its clobber log and the
    // table stay byte for byte as they were. (The pool does not: the
    // txfunc reserved a block before its first store, and the abort
    // cancels it.)
    let slot = rt.slot_handle(0).unwrap();
    let clog = slot.clobber_log(&pool).unwrap();
    let begin_bytes = |pool: &PmemPool| {
        let image = pool.crash_media(&CrashConfig::keep_all(0));
        let at = |base: clobber_pmem::PAddr, len: u64| {
            image[base.offset() as usize..][..len as usize].to_vec()
        };
        let table = KvServer::open(&rt, LockScheme::BucketRw)
            .unwrap()
            .table()
            .dump(pool)
            .unwrap();
        (at(slot.base(), 8 << 10), at(clog.base(), 16), table)
    };
    let before = begin_bytes(&pool);
    match service(&rt).process_batch_on(0, &big_batch(VLOG_CAP / 128)) {
        Err(TxError::VlogCapacity { needed, .. }) => assert!(needed > VLOG_CAP),
        other => panic!("{other:?}"),
    }
    assert!(begin_bytes(&pool) == before);
    drop((rt, pool));

    let summary = CrashBattery {
        session: &session,
        drive: &|rt| serve_batch(rt, &batch),
        nested: Nested::Off,
    }
    .sweep(1, u64::MAX, |r| {
        serve_batch(&r.rt, &batch);
        check_big_batch(
            &r.pool,
            &KvServer::open(&r.rt, LockScheme::BucketRw).unwrap(),
        )
        .and_then(|()| match r.pool.check_heap() {
            Ok(_) => Ok(()),
            Err(e) => Err(format!("heap: {e}")),
        })
        .unwrap_or_else(|e| panic!("k={}: {e}", r.crash_at));
    })
    .unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(summary.crash_points, summary.events);
    assert_eq!(summary.not_tripped, 0);
}
