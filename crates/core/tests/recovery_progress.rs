//! Persistent re-execution progress: a txfunc interrupted repeatedly —
//! including crashes *during recovery itself* — resumes past its last
//! persisted watermark instead of restarting from scratch, so an
//! adversary that keeps crashing recovery cannot starve it forever.
//!
//! The workload is a `chain` txfunc issuing `CELLS` read-modify-writes,
//! each a clobber-logged store. A forward run syncs their entries once, at
//! its commit; a recovery replay orders each deferred store at once, so
//! every one is a persisted watermark opportunity. The initial crash
//! interrupts the chain's commit; each recovery cycle is then crashed at a
//! chosen persist event with the adversarial `drop_all` policy, and the
//! checkpoint watermark in the v_log slot is read back between cycles.

use std::sync::Arc;

use clobber_nvm::{ArgList, Backend, RecoveryOptions, Runtime, RuntimeOptions};
use clobber_pmem::{
    CrashConfig, EventKind, FaultPlan, PAddr, PmemPool, PoolMode, PoolOptions, Tracer,
};

/// Read-modify-write cells in the chain (== max watermark value).
const CELLS: u64 = 10;
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
/// stores have reached the pool, and returns the adversarial media image.
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
    pool.crash_media(&CrashConfig::drop_all(0xCAFE))
}

fn interrupted_chain_media(applied: u64) -> Vec<u8> {
    interrupted_media("chain", applied)
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

/// Reads the persisted watermark (checkpointed store count) of slot 0's
/// in-flight begin.
fn watermark(image: &[u8]) -> Option<u64> {
    let (pool, rt) = reopen(image.to_vec());
    let slot = rt.slot_handle(0).unwrap();
    let begin = slot.status(&pool).unwrap();
    slot.checkpoint(&pool, begin).unwrap().map(|c| c.stores)
}

fn check_final_state(txfunc: &str, pool: &PmemPool, rt: &Runtime) {
    let base = rt.app_root().unwrap();
    for i in 0..CELLS {
        assert_eq!(
            pool.read_u64(base.add(8 * i)).unwrap(),
            final_value(txfunc, i),
            "{txfunc}: cell {i} after recovery"
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

/// A single crash inside recovery leaves a valid checkpoint behind, and
/// the next recovery resumes from it rather than restarting: the report
/// says so, and the re-executed chain commits the right values.
#[test]
fn crashed_recovery_leaves_a_resumable_watermark() {
    let image = interrupted_chain_media(5);
    let m0 = recovery_event_count(image.clone());
    assert!(
        m0 > 10,
        "recovery should have a rich event stream, got {m0}"
    );

    // Crash recovery mid-re-execution.
    let (pool, rt) = reopen(image);
    pool.arm_faults(FaultPlan::crash_at(m0 / 2));
    let _ = rt.recover_with(&opts());
    assert_eq!(pool.fault_tripped(), Some(m0 / 2));
    let media = pool.crash_media(&CrashConfig::drop_all(0x5EED));

    let w = watermark(&media).expect("mid-re-execution crash persisted a checkpoint");
    assert!(w > 0 && w <= CELLS, "watermark in range: {w}");

    // The next recovery resumes past the watermark and completes.
    let (pool2, rt2) = reopen(media);
    let slot = rt2.slot_handle(0).unwrap();
    let begin = slot.status(&pool2).unwrap();
    let report = rt2.recover_with(&opts()).unwrap();
    assert_eq!(report.reexecuted, vec!["chain".to_string()]);
    assert_eq!(report.resumed, 1, "{report:?}");
    assert!(report.watermark_advances >= 1, "{report:?}");
    check_final_state("chain", &pool2, &rt2);

    // Idempotence, and the next transaction's begin retires the checkpoint.
    assert!(rt2.recover_with(&opts()).unwrap().is_clean());
    let base = rt2.app_root().unwrap();
    rt2.run("chain", &ArgList::new().with_u64(base.offset()))
        .unwrap();
    assert_eq!(
        slot.checkpoint(&pool2, begin).unwrap(),
        None,
        "a fresh begin must rebind the checkpoint's line"
    );
}

/// The acceptance sweep: recovery cycle `c` is crashed at persist event
/// `c` (covering every event index as cycles accumulate). The persisted
/// watermark never regresses, advances strictly across the sweep, and the
/// transaction completes within a bounded number of cycles — the chain, and
/// the shift, whose bulk store clobbers many inputs at once.
#[test]
fn every_event_crash_schedule_makes_bounded_progress() {
    // The shift's replay checkpoints twice, the chain's `CELLS` times.
    for (txfunc, applied, min_advances) in [("chain", 2, 2), ("shift", 1, 1)] {
        let image = interrupted_media(txfunc, applied);
        let m0 = recovery_event_count(image.clone());

        let mut media = image;
        let mut last_w: Option<u64> = None;
        let mut advances = 0u64;
        let mut cycles = 0u64;
        let (pool, rt) = loop {
            assert!(
                cycles <= m0 + 2,
                "{txfunc}: no forward progress after {cycles} cycles (initial event count {m0})"
            );
            let (pool, rt) = reopen(media.clone());
            pool.arm_faults(FaultPlan::crash_at(cycles));
            let res = rt.recover_with(&opts());
            match pool.fault_tripped() {
                Some(j) => {
                    assert_eq!(j, cycles);
                    media = pool.crash_media(&CrashConfig::drop_all(0xBAD5EED ^ (cycles << 8)));
                    let w = watermark(&media);
                    match (last_w, w) {
                        (Some(old), Some(new)) => {
                            assert!(new >= old, "{txfunc}: watermark regressed: {old} -> {new}");
                            if new > old {
                                advances += 1;
                            }
                        }
                        (Some(old), None) => panic!("{txfunc}: persisted watermark {old} vanished"),
                        (None, Some(_)) => advances += 1,
                        (None, None) => {}
                    }
                    last_w = w;
                    cycles += 1;
                }
                None => {
                    res.unwrap();
                    break (pool, rt);
                }
            }
        };
        assert!(
            advances >= min_advances,
            "{txfunc}: the watermark should advance across the sweep (advances={advances}, cycles={cycles})"
        );
        check_final_state(txfunc, &pool, &rt);
        assert!(rt.recover_with(&opts()).unwrap().is_clean());
    }
}

/// An adversary pinned to one early event index cannot make recovery
/// regress: the watermark stays monotone across stalled cycles and a
/// clean recovery still completes the chain afterwards.
#[test]
fn fixed_event_adversary_never_regresses_the_watermark() {
    let image = interrupted_chain_media(4);
    let mut media = image;
    let mut last_w: Option<u64> = None;
    for cycle in 0..5u64 {
        let (pool, rt) = reopen(media.clone());
        pool.arm_faults(FaultPlan::crash_at(10));
        let _ = rt.recover_with(&opts());
        assert_eq!(pool.fault_tripped(), Some(10), "cycle {cycle}");
        media = pool.crash_media(&CrashConfig::drop_all(0xF1D0 ^ cycle));
        let w = watermark(&media);
        if let (Some(old), Some(new)) = (last_w, w) {
            assert!(
                new >= old,
                "cycle {cycle}: watermark regressed {old} -> {new}"
            );
        }
        assert!(
            !(last_w.is_some() && w.is_none()),
            "cycle {cycle}: watermark vanished"
        );
        last_w = w;
    }
    let (pool, rt) = reopen(media);
    let report = rt.recover_with(&opts()).unwrap();
    assert_eq!(report.reexecuted, vec!["chain".to_string()]);
    check_final_state("chain", &pool, &rt);
}

/// A traced resumed recovery narrates its progress: a `resume` step
/// carrying the watermark it starts from, and `checkpoint` steps with
/// strictly increasing watermarks.
#[test]
fn resumed_recovery_trace_carries_watermark_steps() {
    let image = interrupted_chain_media(5);
    let m0 = recovery_event_count(image.clone());
    let (pool, rt) = reopen(image);
    pool.arm_faults(FaultPlan::crash_at(m0 / 2));
    let _ = rt.recover_with(&opts());
    let media = pool.crash_media(&CrashConfig::drop_all(0x7ACE));
    let w = watermark(&media).expect("checkpoint persisted");

    let (pool2, rt2) = reopen(media);
    let tracer = Arc::new(Tracer::new());
    pool2.set_tracer(Some(tracer.clone()));
    rt2.recover_with(&opts()).unwrap();
    pool2.set_tracer(None);
    let trace = tracer.take();

    let steps: Vec<(u64, u64)> = trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::RecoveryStep)
        .map(|e| (e.a, e.b))
        .collect();
    let resumes: Vec<u64> = steps
        .iter()
        .filter(|(a, _)| *a == clobber_trace::recovery_steps::RESUME)
        .map(|(_, b)| *b)
        .collect();
    assert_eq!(resumes, vec![w], "one resume step at the watermark");
    let checkpoints: Vec<u64> = steps
        .iter()
        .filter(|(a, _)| *a == clobber_trace::recovery_steps::CHECKPOINT)
        .map(|(_, b)| *b)
        .collect();
    assert!(
        !checkpoints.is_empty(),
        "resumed re-execution persists further checkpoints"
    );
    assert!(
        checkpoints.windows(2).all(|p| p[0] < p[1]),
        "checkpoint watermarks strictly increase: {checkpoints:?}"
    );
    assert!(
        checkpoints.iter().all(|c| *c >= w),
        "checkpoints never fall behind the resume watermark {w}: {checkpoints:?}"
    );
}
