//! Recovery restarts from the top: it rolls back every durable entry of the
//! in-flight begin, truncates the log and re-runs the txfunc as an ordinary
//! transaction. A crash *inside* recovery is then harmless because, for the
//! in-flight begin, the clobber log only ever holds the originals — the
//! replay's clobbering stores wait in its deferred buffer for a sync of its
//! log — so the next scan rolls back to the same inputs.
//!
//! The workloads: `chain` read-modify-writes `CELLS` cells, each store a
//! clobber-logged one, and `shift` clobbers several inputs with one store.
//! The initial crash interrupts the txfunc's commit after its log sync and
//! keeps every store, so some cells hold clobbered values on media.
//! Recovery is then crashed at each of its own persist events, under
//! `drop_all` and under seeded draws that keep half the dirty and half the
//! flushed-unfenced lines.

use std::sync::Arc;

use clobber_nvm::{ArgList, Backend, RecoveryOptions, Runtime, RuntimeOptions};
use clobber_pmem::{
    CrashConfig, EventKind, FaultPlan, PAddr, PmemPool, PoolMode, PoolOptions, Tracer,
};

/// Read-modify-write cells in the chain.
const CELLS: u64 = 10;
/// Seeded draws per nested crash point, besides `drop_all`.
const DRAWS: u64 = 4;

/// Initial value seeded into cell `i`.
fn seed_value(i: u64) -> u64 {
    1_000 + 7 * i
}

/// Expected value of cell `i` after one committed run of `txfunc`.
fn final_value(txfunc: &str, i: u64) -> u64 {
    match (txfunc, i) {
        ("chain", _) => seed_value(i) + i + 1,
        (_, 0) => seed_value(0) + 1,
        (_, i) if i + 1 == CELLS => 2 * seed_value(i - 1),
        (_, i) => seed_value(i - 1),
    }
}

/// `chain` read-modify-writes each cell in turn. `shift` clobbers several
/// inputs with one store — cells `0..CELLS - 1` move up a slot — then
/// clobbers the first cell again, and doubles the last, which reads back
/// the bulk store's deferred value and overwrites part of it.
fn register_txfuncs(rt: &Runtime) {
    rt.register("chain", move |tx, args| {
        let base = PAddr::new(args.u64(0)?);
        for i in 0..CELLS {
            let cell = base.add(8 * i);
            let v = tx.read_u64(cell)?;
            tx.write_u64(cell, v + i + 1)?;
        }
        Ok(None)
    });
    rt.register("shift", move |tx, args| {
        let base = PAddr::new(args.u64(0)?);
        let mut cells = [0u8; 8 * (CELLS as usize - 1)];
        tx.read_into(base, &mut cells)?;
        tx.write_bytes(base.add(8), &cells)?;
        let head = tx.read_u64(base)?;
        tx.write_u64(base, head + 1)?;
        let last = base.add(8 * (CELLS - 1));
        let v = tx.read_u64(last)?;
        tx.write_u64(last, 2 * v)?;
        Ok(None)
    });
}

/// A fresh pool holding the seeded cells, with the txfuncs registered.
fn world() -> (Arc<PmemPool>, Runtime, PAddr) {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(1 << 20)).unwrap());
    let rt = Runtime::create(pool.clone(), RuntimeOptions::new(Backend::clobber())).unwrap();
    let base = pool.alloc(8 * CELLS).unwrap();
    for i in 0..CELLS {
        pool.write_u64(base.add(8 * i), seed_value(i)).unwrap();
    }
    pool.persist(base, 8 * CELLS).unwrap();
    rt.set_app_root(base).unwrap();
    register_txfuncs(&rt);
    (pool, rt, base)
}

/// Crashes a `txfunc` run inside its commit, once its log sync has made
/// the begin and every pre-image durable and `applied` of its deferred
/// stores have reached the pool, and returns the media with every store
/// kept: the applied stores' inputs are clobbered on media.
fn interrupted_media(txfunc: &str, applied: u64) -> Vec<u8> {
    let run = |rt: &Runtime, base: PAddr| rt.run(txfunc, &ArgList::new().with_u64(base.offset()));
    // A traced dry run finds the commit's first store to a cell (an armed
    // plan stamps each traced persist event with its index).
    let first_store = {
        let (pool, rt, base) = world();
        pool.arm_faults(FaultPlan::count_only());
        let tracer = Arc::new(Tracer::new());
        pool.set_tracer(Some(tracer.clone()));
        run(&rt, base).unwrap();
        let cells = base.offset()..base.offset() + 8 * CELLS;
        let trace = tracer.take();
        let store = trace
            .events
            .iter()
            .find(|e| e.kind == EventKind::Store && cells.contains(&e.a));
        store.expect("the commit applies the deferred stores").seq
    };
    let (pool, rt, base) = world();
    pool.arm_faults(FaultPlan::crash_at(first_store + applied));
    assert!(run(&rt, base).is_err(), "the crash lands inside the commit");
    pool.crash_media(&CrashConfig::keep_all(0xCAFE))
}

fn reopen(image: Vec<u8>) -> (Arc<PmemPool>, Runtime) {
    let pool = Arc::new(PmemPool::open_from_media(image, PoolMode::CrashSim).unwrap());
    let rt = Runtime::open(pool.clone(), RuntimeOptions::new(Backend::clobber())).unwrap();
    register_txfuncs(&rt);
    (pool, rt)
}

fn opts() -> RecoveryOptions {
    RecoveryOptions::default().no_wait()
}

/// Checks that every clobber-log entry counting for slot 0's in-flight
/// begin holds exactly the seed bytes at its address, and returns how
/// many there are (none when the slot is idle).
fn assert_log_holds_originals(pool: &PmemPool, rt: &Runtime, at: &str) -> usize {
    let slot = rt.slot_handle(0).unwrap();
    let begin = slot.status(pool).unwrap();
    let clog = slot.clobber_log(pool).unwrap();
    if begin == 0 || clog.generation(pool).unwrap() < begin {
        return 0;
    }
    let base = rt.app_root().unwrap().offset();
    let seed: Vec<u8> = (0..CELLS)
        .flat_map(|i| seed_value(i).to_le_bytes())
        .collect();
    let entries = clog.entries(pool).unwrap();
    for (addr, data) in &entries {
        let off = addr
            .offset()
            .checked_sub(base)
            .filter(|o| o + data.len() as u64 <= 8 * CELLS)
            .unwrap_or_else(|| panic!("{at}: an entry at {addr:?} outside the cells"));
        let off = off as usize;
        assert_eq!(
            data[..],
            seed[off..off + data.len()],
            "{at}: the entry at cell byte {off} is not an original"
        );
    }
    entries.len()
}

fn check_final_state(txfunc: &str, pool: &PmemPool, rt: &Runtime, at: &str) {
    let base = rt.app_root().unwrap();
    for i in 0..CELLS {
        assert_eq!(
            pool.read_u64(base.add(8 * i)).unwrap(),
            final_value(txfunc, i),
            "{at}: cell {i} after recovery"
        );
    }
}

/// Counts the persist events of a full (uncrashed) recovery from `image`.
fn recovery_event_count(image: Vec<u8>) -> u64 {
    let (pool, rt) = reopen(image);
    pool.arm_faults(FaultPlan::count_only());
    rt.recover_with(&opts()).unwrap();
    pool.disarm_faults()
}

/// The invariant itself: crashed at any one of its persist events, under
/// `drop_all` and under seeded draws, recovery leaves a log whose entries
/// for the in-flight begin are all originals. A clean recovery of that
/// image then commits the txfunc's values, and a second one finds nothing.
#[test]
fn a_crash_at_any_recovery_event_leaves_only_originals_in_the_log() {
    for (txfunc, applied) in [("chain", 5), ("shift", 1)] {
        let image = interrupted_media(txfunc, applied);
        {
            let (pool, rt) = reopen(image.clone());
            let n = assert_log_holds_originals(&pool, &rt, txfunc);
            assert!(n > 0, "{txfunc}: the forward run logs its inputs");
        }
        let m0 = recovery_event_count(image.clone());
        let mut logged = 0;
        for j in 0..m0 {
            let (pool, rt) = reopen(image.clone());
            pool.arm_faults(FaultPlan::crash_at(j));
            let _ = rt.recover_with(&opts());
            assert_eq!(pool.fault_tripped(), Some(j), "{txfunc}: event {j}");
            let draws = (0..DRAWS).map(|d| CrashConfig::new(0.5, 0.5, j * DRAWS + d));
            for cfg in std::iter::once(CrashConfig::drop_all(j)).chain(draws) {
                let at = format!("{txfunc} recovery crash_at({j}) {cfg:?}");
                let (pool2, rt2) = reopen(pool.crash_media(&cfg));
                logged += assert_log_holds_originals(&pool2, &rt2, &at);
                let report = rt2
                    .recover_with(&opts())
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                assert!(report.abandoned == 0, "{at}: {report:?}");
                check_final_state(txfunc, &pool2, &rt2, &at);
                assert!(
                    rt2.recover_with(&opts()).unwrap().is_clean(),
                    "{at}: second recovery"
                );
            }
        }
        assert!(logged > 0, "{txfunc}: no crashed image held a replay's log");
    }
}

/// The adversary's schedule: recovery cycle `c` is crashed at persist
/// event `c`. Every cycle restarts from the top and no recovery issues
/// more events than the first, so cycle `m0` at the latest runs to the end.
#[test]
fn every_event_crash_schedule_completes_within_m0_plus_one_cycles() {
    for (txfunc, applied) in [("chain", 2), ("shift", 1)] {
        let image = interrupted_media(txfunc, applied);
        let m0 = recovery_event_count(image.clone());
        let mut media = image;
        let mut cycles = 0u64;
        let (pool, rt) = loop {
            assert!(
                cycles <= m0,
                "{txfunc}: not done after {cycles} cycles (a clean recovery has {m0} events)"
            );
            let (pool, rt) = reopen(media);
            pool.arm_faults(FaultPlan::crash_at(cycles));
            let res = rt.recover_with(&opts());
            if pool.fault_tripped().is_none() {
                res.unwrap();
                break (pool, rt);
            }
            media = pool.crash_media(&CrashConfig::drop_all(0xBAD5EED ^ (cycles << 8)));
            cycles += 1;
        };
        check_final_state(txfunc, &pool, &rt, txfunc);
        assert!(rt.recover_with(&opts()).unwrap().is_clean());
    }
}
