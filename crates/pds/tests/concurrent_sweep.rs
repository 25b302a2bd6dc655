//! Tentpole acceptance: concurrent persistent structures survive crashes.
//!
//! Three tiers:
//!
//! * **Racing sweeps** — 2 (exhaustively 4) OS threads drive
//!   `insert_sync`/`remove_sync` on the hash map (per-bucket locks) and
//!   the skiplist (global lock) while a [`FaultPlan`] crash trips at a
//!   swept persist event; after a power failure (a seeded subset of the
//!   un-fenced lines kept) and recovery, the structure must pass its full
//!   structural check with every surviving key holding exactly its
//!   canonical value.
//! * **Deterministic 2-lane sweep** — a fixed interleaved schedule over
//!   *both* structures through `run_on_locked`, crashed at every strided
//!   persist event; the recovered media must be byte-identical between
//!   runs (the determinism contract extended to locked transactions).
//!
//!   Both tiers run the product's `CrashBattery`, so every visited crash
//!   point also gets the heap walk, recovery idempotence and byte parity.
//! * **Explorer over the real concurrent hash map** — a schedule
//!   recorded from genuinely racing `insert_sync` threads feeds the
//!   PR 8 [`Explorer`], which must enumerate its interleavings and crash
//!   prefixes with zero invariant violations (the injected-bug hunt
//!   stays covered by `explore_pds.rs`).
//!
//! The stride-1, 4-thread exhaustive tier runs behind `--ignored`
//! (CI: `workflow_dispatch` with `full_sweep=true`).

use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};

use clobber_nvm::{
    reopen_media, ArgList, Backend, CrashBattery, ExploreOptions, ExploreSession, Explorer,
    LockRequest, Nested, Runtime, RuntimeOptions, Schedule, SweepSummary, TxError,
};
use clobber_pds::workload::{value_of, ExploreWorkload};
use clobber_pds::{hashmap, skiplist, HashMap, SkipList};
use clobber_pmem::{PAddr, PmemPool, PoolOptions, Tracer};

const KEYS_PER_THREAD: u64 = 10;

/// Small logs keep the many replayed pools cheap.
fn rt_options() -> RuntimeOptions {
    let mut opts = RuntimeOptions::new(Backend::clobber());
    opts.clobber_log_cap = 32 << 10;
    opts.redo_log_cap = 32 << 10;
    opts
}

enum Handle {
    H(HashMap),
    S(SkipList),
}

impl Handle {
    fn root(&self) -> PAddr {
        match self {
            Handle::H(x) => x.root(),
            Handle::S(x) => x.root(),
        }
    }

    fn open(structure: &str, rt: &Runtime) -> Handle {
        let root = rt.app_root().unwrap();
        match structure {
            "hashmap" => Handle::H(HashMap::open(rt.pool(), root).unwrap()),
            "skiplist" => Handle::S(SkipList::open(rt.pool(), root).unwrap()),
            _ => unreachable!(),
        }
    }
}

fn setup(structure: &str) -> (Arc<PmemPool>, Runtime, Handle) {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(8 << 20)).unwrap());
    let rt = Runtime::create(pool.clone(), rt_options()).unwrap();
    let h = match structure {
        "hashmap" => {
            HashMap::register(&rt);
            Handle::H(HashMap::create(&rt).unwrap())
        }
        "skiplist" => {
            SkipList::register(&rt);
            Handle::S(SkipList::create(&rt).unwrap())
        }
        _ => unreachable!(),
    };
    rt.set_app_root(h.root()).unwrap();
    (pool, rt, h)
}

/// `threads` racing workers, each inserting its own key range through the
/// `*_sync` locked entry points, then removing its first key. Workers
/// stop at the first error — after a fault trips, every pool op fails.
fn run_racing(rt: &Runtime, h: &Handle, threads: usize) {
    let start = Barrier::new(threads);
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let (rt, start, h) = (rt, &start, h);
            s.spawn(move || {
                start.wait();
                let work = || -> Result<(), TxError> {
                    for i in 0..KEYS_PER_THREAD {
                        let key = t * 1000 + i;
                        match h {
                            Handle::H(x) => x.insert_sync(rt, key, &value_of(key))?,
                            Handle::S(x) => x.insert_sync(rt, key, &value_of(key))?,
                        };
                    }
                    match h {
                        Handle::H(x) => x.remove_sync(rt, t * 1000)?,
                        Handle::S(x) => x.remove_sync(rt, t * 1000)?,
                    };
                    Ok(())
                };
                let _ = work();
            });
        }
    });
}

/// The subset-robust invariant: structurally sound, no duplicate keys,
/// every present key holding exactly `value_of(key)`.
fn check_contents(pool: &PmemPool, h: &Handle) -> Result<(), String> {
    let pairs = match h {
        Handle::H(x) => x.dump(pool),
        Handle::S(x) => x.dump(pool),
    }
    .map_err(|e| format!("dump: {e}"))?;
    let mut seen = BTreeSet::new();
    for (k, v) in pairs {
        if !seen.insert(k) {
            return Err(format!("key {k} present twice"));
        }
        if v != value_of(k) {
            return Err(format!("key {k} holds torn bytes"));
        }
    }
    Ok(())
}

/// The racing sweep: the battery at strided crash points of a run whose
/// persist-event count is only approximate (racing runs are
/// schedule-dependent, so a race that finishes before event `k` is a
/// not-tripped point — the battery still checks that the race itself left
/// a consistent structure). Each recovered structure keeps serving through
/// the locked paths.
fn racing_sweep(structure: &'static str, threads: usize, stride_div: u64) {
    let session = ExploreSession {
        build: Box::new(move || {
            let (pool, rt, _) = setup(structure);
            (pool, rt)
        }),
        reopen: Box::new(move |media| {
            let (pool, rt) = reopen_media(media, rt_options());
            match structure {
                "hashmap" => HashMap::register(&rt),
                "skiplist" => SkipList::register(&rt),
                _ => unreachable!(),
            }
            (pool, rt)
        }),
        check: Box::new(move |pool, rt| check_contents(pool, &Handle::open(structure, rt))),
    };
    let drive = |rt: &Arc<Runtime>| run_racing(rt, &Handle::open(structure, rt), threads);
    let battery = CrashBattery {
        session: &session,
        drive: &drive,
        nested: Nested::Off,
    };
    let ctx = format!("{structure} threads={threads}");
    let events = battery
        .count_events()
        .unwrap_or_else(|v| panic!("{ctx}: {v}"));
    assert!(events > 0, "{structure}: racing run issues persist events");
    battery
        .sweep((events / stride_div).max(1), u64::MAX, |r| {
            let h = Handle::open(structure, &r.rt);
            match &h {
                Handle::H(x) => x.insert_sync(&r.rt, 777_777, &value_of(777_777)).unwrap(),
                Handle::S(x) => x.insert_sync(&r.rt, 777_777, &value_of(777_777)).unwrap(),
            }
            check_contents(&r.pool, &h).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        })
        .unwrap_or_else(|v| panic!("{ctx}: {v}"));
}

/// Tier-1 racing sweep: 2 threads, strided crash points.
#[test]
fn racing_hashmap_sweep_recovers() {
    racing_sweep("hashmap", 2, 8);
}

/// Tier-1 racing sweep over the skiplist (one structure lock).
#[test]
fn racing_skiplist_sweep_recovers() {
    racing_sweep("skiplist", 2, 8);
}

/// Exhaustive tier (CI `full_sweep=true`): 4 racing threads, every
/// persist event.
#[test]
#[ignore = "stride-1 exhaustive racing sweep; run explicitly or via CI full_sweep"]
fn racing_sweep_exhaustive() {
    racing_sweep("hashmap", 4, u64::MAX);
    racing_sweep("skiplist", 4, u64::MAX);
}

// ---------------------------------------------------------------------------
// Deterministic 2-lane sweep: byte-identical recovery between runs.

/// Both structures in one pool, built in a fixed order so the layout is
/// identical in every build.
fn setup_two() -> (Arc<PmemPool>, Runtime, HashMap, SkipList) {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(4 << 20)).unwrap());
    let rt = Runtime::create(pool.clone(), rt_options()).unwrap();
    HashMap::register(&rt);
    SkipList::register(&rt);
    let map = HashMap::create(&rt).unwrap();
    let sl = SkipList::create(&rt).unwrap();
    rt.set_app_root(map.root()).unwrap();
    (pool, rt, map, sl)
}

/// The fixed 2-lane locked schedule: lane 0 works the hash map, lane 1
/// the skiplist, strictly alternating. Stops at the first error (dead
/// pool after a trip).
fn run_two_lane(rt: &Runtime, map: &HashMap, sl: &SkipList) -> Result<(), TxError> {
    let hm_args = |k: u64| {
        ArgList::new()
            .with_u64(map.arg())
            .with_u64(k)
            .with_bytes(&value_of(k))
    };
    let sl_args = |k: u64| {
        ArgList::new()
            .with_u64(sl.root().offset())
            .with_u64(k)
            .with_bytes(&value_of(k))
    };
    for k in [1u64, 2, 3] {
        rt.run_on_locked(
            0,
            &[LockRequest::exclusive(map.lock_of(k))],
            hashmap::TX_INSERT,
            &hm_args(k),
        )?;
        rt.run_on_locked(
            1,
            &[LockRequest::exclusive(sl.lock())],
            skiplist::TX_INSERT,
            &sl_args(10 * k),
        )?;
    }
    rt.run_on_locked(
        0,
        &[LockRequest::exclusive(map.lock_of(1))],
        hashmap::TX_REMOVE,
        &ArgList::new().with_u64(map.arg()).with_u64(1),
    )?;
    rt.run_on_locked(
        1,
        &[LockRequest::exclusive(sl.lock())],
        skiplist::TX_REMOVE,
        &ArgList::new().with_u64(sl.root().offset()).with_u64(10),
    )?;
    Ok(())
}

/// The battery over the fixed 2-lane schedule at ~12 strided crash points;
/// `served` gets each recovered pool's media, in order.
fn two_lane_sweep(mut served: impl FnMut(usize, Vec<u8>)) -> SweepSummary {
    // The build order is fixed, so the skiplist root (the map's is the app
    // root) is the same address in every build.
    let sl = setup_two().3;
    let session = ExploreSession {
        build: Box::new(move || {
            let (pool, rt, _, _) = setup_two();
            (pool, rt)
        }),
        reopen: Box::new(move |media| {
            let (pool, rt) = reopen_media(media, rt_options());
            HashMap::register(&rt);
            SkipList::register(&rt);
            (pool, rt)
        }),
        check: Box::new(move |pool, rt| {
            check_contents(
                pool,
                &Handle::H(HashMap::open(rt.pool(), rt.app_root().unwrap()).unwrap()),
            )?;
            check_contents(pool, &Handle::S(sl))
        }),
    };
    let drive = |rt: &Arc<Runtime>| {
        let _ = run_two_lane(
            rt,
            &HashMap::open(rt.pool(), rt.app_root().unwrap()).unwrap(),
            &sl,
        );
    };
    let battery = CrashBattery {
        session: &session,
        drive: &drive,
        nested: Nested::Off,
    };
    let events = battery.count_events().unwrap_or_else(|v| panic!("{v}"));
    let mut point = 0;
    let summary = battery
        .sweep((events / 12).max(1), u64::MAX, |r| {
            served(point, r.pool.media_snapshot());
            point += 1;
        })
        .unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(summary.not_tripped, 0, "every event trips");
    summary
}

/// The determinism contract, extended to locked transactions: crash the
/// fixed 2-lane schedule at every strided persist event and recover —
/// the sweep summary and the recovered media are identical between runs.
#[test]
fn two_lane_sweep_recovers_byte_identically_across_runs() {
    let mut golden = Vec::new();
    let reference = two_lane_sweep(|_, media| golden.push(media));
    assert!(
        reference.crash_points >= 8,
        "sweep must cover a real spread of crash points"
    );
    let summary = two_lane_sweep(|point, media| {
        assert!(
            golden[point] == media,
            "crash point #{point}: recovered media diverged between runs"
        );
    });
    assert_eq!(summary, reference, "sweep summary diverged between runs");
}

// ---------------------------------------------------------------------------
// Explorer over the real concurrent hash map.

/// Record a schedule from genuinely racing `insert_sync` threads, then
/// let the explorer enumerate its interleavings and crash prefixes: the
/// real concurrent hash map (not just the injected-bug workload) yields
/// zero violations.
#[test]
fn explorer_clears_schedule_recorded_from_racing_hashmap_threads() {
    let wl = ExploreWorkload::new();
    let (pool, rt) = wl.build();
    let map = HashMap::open(rt.pool(), rt.app_root().unwrap()).unwrap();

    // Two real threads race through the locked path: one inserts keys 1
    // and 2, the other key 3 (the acceptance workload's shape, but with
    // the interleaving chosen by the scheduler, not by us). The `leased`
    // rendezvous after each thread's first insert keeps both slot leases
    // held concurrently — on a 1-CPU host a thread can otherwise finish
    // (and return its slot) before its peer starts, collapsing the
    // recorded schedule to one lane.
    let tracer = Arc::new(Tracer::new());
    pool.set_tracer(Some(tracer.clone()));
    let start = Barrier::new(2);
    let leased = Barrier::new(2);
    std::thread::scope(|s| {
        for keys in [vec![1u64, 2], vec![3u64]] {
            let (rt, map, start, leased) = (&rt, &map, &start, &leased);
            s.spawn(move || {
                start.wait();
                let mut first = true;
                for k in keys {
                    map.insert_sync(rt, k, &value_of(k)).unwrap();
                    if std::mem::take(&mut first) {
                        leased.wait();
                    }
                }
            });
        }
    });
    pool.set_tracer(None);
    wl.check(&pool, &rt).expect("racing run is clean");

    let seed = Schedule::from_trace(&tracer.take()).expect("recorded schedule parses");
    assert_eq!(seed.len(), 3, "one op per recorded insert");
    let lanes: BTreeSet<usize> = seed.ops.iter().map(|o| o.slot).collect();
    assert_eq!(lanes.len(), 2, "two racing threads -> two lanes");

    let opts = ExploreOptions::default()
        .with_budget(64)
        .with_crash_stride(5)
        .with_max_crash_points(8);
    let explorer = Explorer::new(wl.session(), seed, opts);
    let report = explorer.run().expect("exploration runs");
    assert!(report.complete, "3-op schedule fits the budget");
    assert!(report.schedules_run >= 3, "all (2,1)-lane merges explored");
    assert!(report.crashes_planted > 0);
    assert!(
        report.failures.is_empty(),
        "concurrent hashmap must survive exploration: {:?}",
        report.failures
    );
}
