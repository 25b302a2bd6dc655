//! Cross-crate integration tests: the full system — simulated NVM,
//! runtime, compiler, data structures and applications — exercised
//! together through crashes and recovery.

use std::sync::Arc;

use clobber_repro::apps::kvserver::{KvServer, LockScheme};
use clobber_repro::apps::{TreeKind, Vacation, Yada};
use clobber_repro::nvm::{
    reopen_media, ArgList, Backend, CrashBattery, ExploreSession, Nested, Runtime, RuntimeOptions,
    SweepSummary, TxError,
};
use clobber_repro::pds::HashMap;
use clobber_repro::pmem::{
    CrashConfig, EventKind, FaultPlan, PAddr, PmemPool, PoolMode, PoolOptions, Tracer,
};
use clobber_repro::txir::pipeline::{compile, register_compiled, CompileOptions};
use clobber_repro::txir::programs;
use clobber_repro::workloads::vacation::ActionStream;
use clobber_repro::workloads::{Mix, RequestStream};

/// A workload as lazily run steps, one transaction each.
type Steps<'w> = Box<dyn Iterator<Item = Result<(), TxError>> + 'w>;

/// The crash point a count-only dry run of `steps` on a freshly built
/// `pool` teaches: three fifths of the way through the counted persist
/// events, moved into the transaction that event falls in — to the middle
/// of its events after its first fence, where its begin is durable, and
/// short of its commit, whatever fences a later change adds or removes.
fn learn_trip_point(pool: &PmemPool, steps: Steps<'_>) -> u64 {
    let tracer = Arc::new(Tracer::new());
    pool.set_tracer(Some(tracer.clone()));
    pool.arm_faults(FaultPlan::count_only());
    let mut bounds = vec![0];
    for step in steps {
        step.expect("the dry run is crash-free");
        bounds.push(pool.fault_events());
    }
    pool.set_tracer(None);
    let target = bounds[bounds.len() - 1] * 3 / 5;
    let next = bounds.partition_point(|&b| b <= target);
    let (start, end) = (bounds[next - 1], bounds[next]);
    // An armed plan stamps each traced persist event with its index.
    let begun = tracer
        .take()
        .events
        .iter()
        .find(|e| e.kind == EventKind::Fence && (start..end).contains(&e.seq))
        .expect("the transaction fences")
        .seq
        + 1;
    (begun + end) / 2
}

/// Builds the world twice: a dry run learns the trip point, then the
/// workload — it stops at its first error — runs armed to die there.
/// Returns the image an adversarial power failure leaves behind, and the
/// crashed world.
fn crash_inside<W>(
    seed: u64,
    build: impl Fn() -> (Arc<PmemPool>, W),
    steps: impl for<'w> Fn(&'w W) -> Steps<'w>,
) -> (Vec<u8>, W) {
    let k = {
        let (pool, world) = build();
        learn_trip_point(&pool, steps(&world))
    };
    let (pool, world) = build();
    pool.arm_faults(FaultPlan::crash_at(k));
    // A trip on the workload's final fence can still let it return `Ok`.
    let _ = steps(&world).try_for_each(|step| step);
    assert!(
        pool.fault_tripped().is_some(),
        "event {k} lies inside the workload"
    );
    (pool.crash_media(&CrashConfig::drop_all(seed)), world)
}

#[test]
fn compiled_and_handwritten_transactions_share_a_pool() {
    // A statically compiled IR transaction (list insert) and a hand-written
    // hashmap run against the same pool; a crash interrupts one of them and
    // recovery completes both worlds.
    let compiled = Arc::new(compile(programs::list_insert(), CompileOptions::default()).unwrap());
    let (media, (_, _, head)) = crash_inside(
        1,
        || {
            let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(64 << 20)).unwrap());
            let rt = Runtime::create(pool.clone(), RuntimeOptions::default()).unwrap();
            HashMap::register(&rt);
            let map = HashMap::create(&rt).unwrap();
            register_compiled(&rt, compiled.clone());
            let head = pool.alloc(8).unwrap();
            pool.persist(head, 8).unwrap();
            rt.set_app_root(map.root()).unwrap();
            (pool, (rt, map, head))
        },
        |(rt, map, head)| {
            Box::new((0..16u64).map(move |i| {
                match (i / 2, i % 2) {
                    (k, 0) => map.insert(rt, k, format!("v{k}").as_bytes()),
                    (k, _) => rt
                        .run(
                            "list_insert",
                            &ArgList::new().with_u64(head.offset()).with_u64(1000 + k),
                        )
                        .map(drop),
                }
            }))
        },
    );

    let pool2 = Arc::new(PmemPool::open_from_media(media, PoolMode::CrashSim).unwrap());
    let rt2 = Runtime::open(pool2.clone(), RuntimeOptions::default()).unwrap();
    HashMap::register(&rt2);
    register_compiled(&rt2, compiled);
    let report = rt2.recover().unwrap();
    assert!(report.reexecuted.len() <= 1);

    // Hashmap contents are a verified prefix.
    let map2 = HashMap::open(&pool2, rt2.app_root().unwrap()).unwrap();
    for (k, v) in map2.dump(&pool2).unwrap() {
        assert_eq!(v, format!("v{k}").into_bytes());
    }
    // The list's nodes chain correctly (IR node layout: [val][next]).
    let mut cur = pool2.read_u64(head).unwrap();
    let mut seen = 0;
    while cur != 0 {
        let val = pool2.read_u64(PAddr::new(cur)).unwrap();
        assert!((1000..1008).contains(&val), "bad list value {val}");
        cur = pool2.read_u64(PAddr::new(cur + 8)).unwrap();
        seen += 1;
    }
    assert!(seen >= map2.len(&pool2).unwrap().saturating_sub(1));
}

#[test]
fn kv_server_survives_a_mid_request_power_failure() {
    let (media, _) = crash_inside(
        2,
        || {
            let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(64 << 20)).unwrap());
            let rt = Runtime::create(pool.clone(), RuntimeOptions::default()).unwrap();
            let server = KvServer::create(&rt, LockScheme::BucketRw).unwrap();
            (pool, (rt, server))
        },
        |(rt, server)| {
            Box::new(
                RequestStream::new(Mix::InsertIntensive, 60, 40, 3)
                    .map(move |req| server.handle(rt, &req).map(drop)),
            )
        },
    );

    let pool2 = Arc::new(PmemPool::open_from_media(media, PoolMode::CrashSim).unwrap());
    let rt2 = Runtime::open(pool2.clone(), RuntimeOptions::default()).unwrap();
    KvServer::register(&rt2);
    rt2.recover().unwrap();
    let server2 = KvServer::open(&rt2, LockScheme::BucketRw).unwrap();
    // Every key the recovered store holds must carry an intact value (no
    // torn writes); keys set before the crash point must be present.
    let table = server2.table();
    for (k, v) in table.dump(&pool2).unwrap() {
        assert_eq!(v, RequestStream::value_bytes(k), "torn value for {k}");
    }
}

#[test]
fn vacation_conservation_holds_through_crashes() {
    // Armed after setup, so the crash lands inside a reservation transaction.
    let (media, _) = crash_inside(
        4,
        || {
            let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(128 << 20)).unwrap());
            let rt = Runtime::create(pool.clone(), RuntimeOptions::default()).unwrap();
            let v = Vacation::create(&rt, TreeKind::RedBlack, 40).unwrap();
            (pool, (rt, v))
        },
        |(rt, v)| {
            Box::new(
                ActionStream::new(120, 40, 15, 3, 8)
                    .map(move |action| v.run_action(rt, 0, &action).map(drop)),
            )
        },
    );

    let pool2 = Arc::new(PmemPool::open_from_media(media, PoolMode::CrashSim).unwrap());
    let rt2 = Runtime::open(pool2.clone(), RuntimeOptions::default()).unwrap();
    Vacation::register(&rt2);
    let report = rt2.recover().unwrap();
    let v2 = Vacation::open(&rt2).unwrap();
    // The books balance: every reservation held by a customer is matched by
    // a decremented item — even for the re-executed transaction.
    v2.verify(&pool2).unwrap();
    assert!(report.rolled_back == 0);
}

#[test]
fn yada_mesh_survives_crash_and_converges() {
    let (media, _) = crash_inside(
        5,
        || {
            let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(128 << 20)).unwrap());
            let rt = Runtime::create(pool.clone(), RuntimeOptions::default()).unwrap();
            let mesh = Yada::create(&rt, 50, 20.0, 31).unwrap();
            (pool, (rt, mesh))
        },
        |(rt, mesh)| Box::new((0..30).map(move |_| mesh.refine_step(rt, 0).map(drop))),
    );

    let pool2 = Arc::new(PmemPool::open_from_media(media, PoolMode::CrashSim).unwrap());
    let rt2 = Runtime::open(pool2.clone(), RuntimeOptions::default()).unwrap();
    Yada::register(&rt2);
    rt2.recover().unwrap();
    let mesh2 = Yada::open(&rt2).unwrap();
    mesh2.verify(&pool2, false).unwrap();
    let stats = mesh2.refine_all(&rt2, 0, 100_000).unwrap();
    assert!(!stats.capped);
    mesh2.verify(&pool2, true).unwrap();
}

#[test]
fn repeated_crashes_during_recovery_still_converge() {
    // Crash mid-insert, start recovering, crash again mid-recovery, recover
    // again: the battery puts the re-crashed image through every check the
    // first one passes (recovery is idempotent because re-execution
    // restores inputs first), and a recovery that was never crashed fails
    // the test.
    let opts = RuntimeOptions::default();
    let session = ExploreSession {
        build: Box::new(move || {
            let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(8 << 20)).unwrap());
            let rt = Runtime::create(pool.clone(), opts).unwrap();
            HashMap::register(&rt);
            let map = HashMap::create(&rt).unwrap();
            rt.set_app_root(map.root()).unwrap();
            (pool, rt)
        }),
        reopen: Box::new(move |media| {
            let (pool, rt) = reopen_media(media, opts);
            HashMap::register(&rt);
            (pool, rt)
        }),
        check: Box::new(|pool, rt| {
            let root = rt.app_root().map_err(|e| e.to_string())?;
            let map = HashMap::open(pool, root).map_err(|e| e.to_string())?;
            let pairs = map.dump(pool).map_err(|e| e.to_string())?;
            match pairs
                .iter()
                .find(|(k, v)| *v != format!("v{k}").into_bytes())
            {
                Some((k, _)) => Err(format!("torn value for {k}")),
                None => Ok(()),
            }
        }),
    };
    fn inserts(rt: &Runtime) -> Steps<'_> {
        let map = HashMap::open(rt.pool(), rt.app_root().unwrap()).unwrap();
        Box::new((0..10u64).map(move |k| map.insert(rt, k, format!("v{k}").as_bytes())))
    }
    // Stops at the insert the crash kills.
    let drive = |rt: &Arc<Runtime>| drop(inserts(rt).try_for_each(|step| step));
    let battery = CrashBattery {
        session: &session,
        drive: &drive,
        nested: Nested::Rotating,
    };
    let mut summary = SweepSummary::default();
    let (pool, rt) = (session.build)();
    let k = learn_trip_point(&pool, inserts(&rt));
    battery
        .crash_point(k, &mut summary, &mut |_| {})
        .unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(summary.not_tripped, 0);
    assert!(
        summary.nested_points >= 1,
        "no recovery was crashed: {summary:?}"
    );
}

#[test]
fn backends_reach_identical_data_structure_states() {
    // Determinism across logging strategies on a multi-structure workload.
    let mut fingerprints = Vec::new();
    for backend in [
        Backend::NoLog,
        Backend::clobber(),
        Backend::Undo,
        Backend::Redo,
        Backend::Atlas,
    ] {
        let pool = Arc::new(PmemPool::create(PoolOptions::performance(64 << 20)).unwrap());
        let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap();
        HashMap::register(&rt);
        let map = HashMap::create(&rt).unwrap();
        for k in 0..100u64 {
            map.insert(&rt, k % 37, format!("{}", k * k).as_bytes())
                .unwrap();
        }
        for k in (0..37u64).step_by(3) {
            map.remove(&rt, k).unwrap();
        }
        let mut dump = map.dump(&pool).unwrap();
        dump.sort();
        fingerprints.push(dump);
    }
    for w in fingerprints.windows(2) {
        assert_eq!(w[0], w[1]);
    }
}
