//! Systematic crash-point sweep: the product's `CrashBattery` over the
//! workloads in `common/mod.rs`.
//!
//! For each backend the battery counts the persist events of a fixed
//! transfer script, then crashes at every swept event index, recovers, and
//! runs its checks (heap walk, conservation, idempotence, byte parity) —
//! and additionally crashes *recovery itself* at a rotating recovery
//! event. The default runs are bounded for CI; set
//! `CLOBBER_FULL_SWEEP=1` (or run the `--ignored` test) for stride-1 and
//! exhaustive nested coverage.

mod common;

use std::sync::Arc;

use common::{
    explore_check, register_parked_plain, reopen, reopen_with, setup_with, sweep, sweep_clean,
    sweep_regrow, sweep_with, total, transfer_args, two_parked_transfers, unless_crashed,
    write_undecodable_begin, ACCOUNTS, INITIAL, SCRIPT,
};

use clobber_nvm::{
    Backend, CrashBattery, ExploreSession, Nested, RecoveryOptions, Runtime, SlotQuarantineKind,
    SweepSummary, TxError,
};
use clobber_pmem::{FaultPlan, PAddr, PmemError};

/// Stride between swept crash points. Release builds (and
/// `CLOBBER_FULL_SWEEP=1`) visit every event; plain debug-mode
/// `cargo test` strides so tier-1 stays quick while still crossing every
/// transaction in the script.
fn smoke_stride() -> u64 {
    if std::env::var_os("CLOBBER_FULL_SWEEP").is_some() || !cfg!(debug_assertions) {
        1
    } else {
        7
    }
}

fn assert_covered(s: &SweepSummary, label: &str) {
    assert!(s.events > 0, "{label}: no events counted");
    assert!(s.crash_points > 0, "{label}: no crash points visited");
    assert!(s.nested_points > 0, "{label}: no nested recovery crashes");
}

#[test]
fn sweep_clobber() {
    let s = sweep(Backend::clobber(), smoke_stride(), Nested::Rotating);
    assert_covered(&s, "clobber");
    assert!(
        s.reexecuted + s.abandoned > 0,
        "clobber sweep should recover by re-execution: {s:?}"
    );
}

#[test]
fn sweep_undo() {
    let s = sweep(Backend::Undo, smoke_stride(), Nested::Rotating);
    assert_covered(&s, "undo");
    assert!(s.rolled_back > 0, "undo sweep should roll back: {s:?}");
}

#[test]
fn sweep_redo() {
    let s = sweep(Backend::Redo, smoke_stride(), Nested::Rotating);
    assert_covered(&s, "redo");
    assert!(
        s.rolled_back + s.redo_applied > 0,
        "redo sweep should discard or replay logs: {s:?}"
    );
}

#[test]
fn sweep_atlas() {
    let s = sweep(Backend::Atlas, smoke_stride(), Nested::Rotating);
    assert_covered(&s, "atlas");
    assert!(s.rolled_back > 0, "atlas sweep should roll back: {s:?}");
}

/// The sweep at 4 shards must agree point-for-point with the one-shard
/// sweep: same event count, same crash/nested points visited, same
/// recovery actions — zero lock-step divergence. This is the
/// shard-count-invariance contract of the persist-event order applied to
/// the full workload → crash → recover pipeline.
#[test]
fn sweep_clobber_at_4_shards_matches_one_shard() {
    let stride = smoke_stride();
    let reference = sweep(Backend::clobber(), stride, Nested::Rotating);
    assert_covered(&reference, "clobber/1 shard");
    let s = sweep_with(Backend::clobber(), stride, Nested::Rotating, 4);
    assert_eq!(s, reference, "4-shard sweep diverged");
}

/// Satellite 3 (torn line): a v2 line whose marker word is torn must be
/// detected by the self-validating marker and dropped — together with every
/// entry at or past it — instead of being replayed as garbage. The crash
/// model tears at line granularity on its own, so this injects a *sub-line*
/// tear (bit flips inside one marker word) by hand into a mid-transaction
/// crash image, then requires recovery to parse the log as a clean prefix
/// and still conserve.
#[test]
fn torn_v2_marker_drops_the_line_and_recovery_conserves() {
    let backend = Backend::clobber();
    let media = two_parked_transfers(backend, [(0, 1, 30), (2, 3, 45)]);
    let (pool, rt) = reopen(media, backend);
    register_parked_plain(&rt);

    // Both of slot 0's pre-images live in data line 0 (two 3-word entries).
    let slot0 = rt.slot_handle(0).unwrap();
    let clog = slot0.clobber_log(&pool).unwrap();
    let parsed = clog.entries(&pool).unwrap();
    assert_eq!(parsed.len(), 2, "both pre-images durable before the tear");
    pool.inject_bit_corruption(clog.v2_marker_addr(0), 8, 99, 8)
        .unwrap();
    assert!(
        clog.entries(&pool).unwrap().is_empty(),
        "a torn marker must invalidate the whole line"
    );

    // Recovery sees an empty clobber log for slot 0: nothing to restore,
    // but the begin record still re-executes the transaction. The
    // adversarial crash dropped the un-fenced clobbering stores, so
    // re-execution from pristine inputs conserves.
    let report = rt.recover().unwrap();
    assert_eq!(report.reexecuted.len(), 2, "{report:?}");
    let base = rt.app_root().unwrap();
    assert_eq!(total(&pool, base), ACCOUNTS * INITIAL);
    assert!(rt.recover().unwrap().is_clean());
}

/// A log header that is not the log magic is typed corruption, never an
/// empty log: one flipped bit in slot 0's magic word must make `entries`
/// fail, Strict recovery return the error, and BestEffort quarantine
/// exactly that slot while slot 1 recovers — and stay that way on a second
/// scan. Parsing the image as empty would silently discard the durable
/// pre-images (or, under redo, a committed transaction) behind the header.
#[test]
fn corrupt_log_header_is_typed_corruption_not_an_empty_log() {
    let assignments = [(0, 1, 30), (2, 3, 45)];
    for backend in [Backend::clobber(), Backend::Undo, Backend::Redo] {
        let label = backend.label();
        let media = two_parked_transfers(backend, assignments);
        let (pool, rt) = reopen(media, backend);
        register_parked_plain(&rt);
        let base = rt.app_root().unwrap();
        let slots = [rt.slot_handle(0).unwrap(), rt.slot_handle(1).unwrap()];

        let log = if backend == Backend::Redo {
            // Redo persists nothing before commit, so the parked image holds
            // two idle slots. Stage each transfer as crashed between its
            // commit point and the in-place apply — the one window in which
            // recovery depends on the redo log.
            for (slot, (from, to, amount)) in slots.iter().zip(assignments) {
                let rlog = slot.redo_log(&pool).unwrap();
                for (account, balance) in [(from, INITIAL - amount), (to, INITIAL + amount)] {
                    rlog.append(&pool, base.add(account * 8), &balance.to_le_bytes())
                        .unwrap();
                }
                slot.set_redo_committed(&pool, &|p| p.fence()).unwrap();
            }
            slots[0].redo_log(&pool).unwrap()
        } else {
            slots[0].clobber_log(&pool).unwrap()
        };
        assert_eq!(log.entries(&pool).unwrap().len(), 2, "{label}");
        pool.inject_bit_corruption(log.base(), 8, 7, 1).unwrap();
        assert!(
            matches!(log.entries(&pool), Err(PmemError::CorruptPool(_))),
            "{label}: a corrupt header must not parse"
        );

        // Strict: the scan dies on the corrupt log, touching nothing.
        match rt.recover() {
            Err(TxError::Pmem(PmemError::CorruptPool(_))) => {}
            other => panic!("{label}: strict recovery should fail, got {other:?}"),
        }

        // BestEffort: slot 0 is set aside with its reason, slot 1 recovers.
        let opts = RecoveryOptions::best_effort().no_wait();
        let report = rt.recover_with(&opts).unwrap();
        assert_eq!(report.quarantined.len(), 1, "{label}: {report:?}");
        let q = &report.quarantined[0];
        assert_eq!(
            (q.slot, q.kind),
            (0, SlotQuarantineKind::CorruptClobberLog),
            "{label}"
        );
        assert!(q.reason.contains("log magic"), "{label}: {q:?}");
        assert_eq!(
            report.reexecuted.len() + report.rolled_back + report.redo_applied,
            1,
            "{label}: the healthy slot must still recover: {report:?}"
        );
        assert_eq!(total(&pool, base), ACCOUNTS * INITIAL, "{label}");

        // Idempotent: a second scan repeats the quarantine and finds
        // nothing else to do.
        let again = rt.recover_with(&opts).unwrap();
        assert_eq!(again.quarantined, report.quarantined, "{label}");
        assert_eq!(
            again.reexecuted.len() + again.rolled_back + again.redo_applied,
            0,
            "{label}: {again:?}"
        );

        // The corrupt log is never appended to either.
        match rt.run_on(0, "parked_transfer", &transfer_args(base, (4, 5, 1))) {
            Err(TxError::Pmem(PmemError::CorruptPool(_))) => {}
            other => panic!("{label}: a tx on the corrupt slot should fail, got {other:?}"),
        }
        assert_eq!(total(&pool, base), ACCOUNTS * INITIAL, "{label}");
    }
}

/// Alloc-heavy sweep: the vacation-style growing-reallocation script
/// (pmalloc bigger / copy / swap root / pfree old, every transaction)
/// crashed at every swept persist event, with the list invariant *and* a
/// full `check_heap` walk asserted after every recovery. Run at shard
/// counts 1 and 4, which must agree point-for-point — the allocator
/// sits entirely inside the shard-count-invariance contract.
#[test]
fn sweep_regrow_alloc_heavy_across_shard_counts() {
    let stride = smoke_stride();
    let reference = sweep_regrow(Backend::clobber(), stride, 1);
    assert!(reference.events > 0, "regrow script must issue events");
    assert!(reference.crash_points > 0);
    assert!(
        reference.reexecuted + reference.abandoned > 0,
        "clobber regrow sweep should recover by re-execution: {reference:?}"
    );
    let s = sweep_regrow(Backend::clobber(), stride, 4);
    assert_eq!(s, reference, "regrow 4-shard sweep diverged");
}

/// The regrow sweep holds under undo logging too (PMDK-style transactional
/// allocation with snapshot logging instead of re-execution).
#[test]
fn sweep_regrow_undo() {
    let s = sweep_regrow(Backend::Undo, smoke_stride(), 1);
    assert!(s.events > 0 && s.crash_points > 0);
    assert!(
        s.rolled_back > 0,
        "undo regrow sweep should roll back: {s:?}"
    );
}

/// And under redo logging, whose commit marker may persist only with the
/// headers of the blocks its replay writes into: a marker kept without them
/// leaves the live list in a block the heap calls free.
#[test]
fn sweep_regrow_redo() {
    let s = sweep_regrow(Backend::Redo, smoke_stride(), 1);
    assert!(s.events > 0 && s.crash_points > 0);
    assert!(s.redo_applied > 0, "redo regrow sweep should replay: {s:?}");
}

/// Registers `preserved_transfer`: the amount is volatile input, recorded
/// with `vlog_preserve` before the first store.
fn register_preserved_transfer(rt: &Runtime) {
    rt.register("preserved_transfer", |tx, args| {
        let base = PAddr::new(args.u64(0)?);
        let (from, to) = (args.u64(1)?, args.u64(2)?);
        let blob = tx.vlog_preserve(&args.u64(3)?.to_le_bytes())?;
        let amount = u64::from_le_bytes(blob.as_slice().try_into().expect("an 8-byte blob"));
        let from_bal = tx.read_u64(base.add(from * 8))?;
        tx.write_u64(base.add(from * 8), from_bal - amount)?;
        let to_bal = tx.read_u64(base.add(to * 8))?;
        tx.write_u64(base.add(to * 8), to_bal + amount)?;
        Ok(None)
    });
}

/// A transaction crashed before its preserve is durable is abandoned by
/// recovery; a crash inside that abandon must leave the slot recoverable,
/// not stuck on a checkpoint that no store ever earned. Every outer point
/// × every nested recovery event.
#[test]
fn abandoned_preserve_survives_a_crash_inside_recovery() {
    let backend = Backend::clobber();
    let session = ExploreSession {
        build: Box::new(move || {
            let (pool, rt, _) = setup_with(backend, 1);
            register_preserved_transfer(&rt);
            (pool, rt)
        }),
        reopen: Box::new(move |media| {
            let (pool, rt) = reopen_with(media, backend, 1);
            register_preserved_transfer(&rt);
            (pool, rt)
        }),
        check: Box::new(explore_check),
    };
    let drive = |rt: &Arc<Runtime>| {
        let base = rt.app_root().unwrap();
        let run = SCRIPT.iter().try_for_each(|&step| {
            rt.run("preserved_transfer", &transfer_args(base, step))
                .map(drop)
        });
        unless_crashed(rt, run);
    };
    let battery = CrashBattery {
        session: &session,
        drive: &drive,
        nested: Nested::Exhaustive,
    };
    let s = sweep_clean(&battery, 1, |r| {
        let base = r.rt.app_root().unwrap();
        r.rt.run("preserved_transfer", &transfer_args(base, (0, 1, 5)))
            .unwrap();
        assert_eq!(total(&r.pool, base), ACCOUNTS * INITIAL, "k={}", r.crash_at);
    });
    assert!(s.abandoned > 0, "no crash landed before a preserve: {s:?}");
    assert!(s.nested_points > 0, "{s:?}");
}

/// The full acceptance sweep: stride 1 on every backend with a nested
/// recovery crash at *every* recovery event. Quadratic in the event count —
/// run explicitly with `cargo test --release -- --ignored` or via
/// `CLOBBER_FULL_SWEEP=1`.
#[test]
#[ignore = "exhaustive; minutes of runtime — run with --ignored"]
fn full_sweep_exhaustive_nested() {
    for backend in [
        Backend::clobber(),
        Backend::Undo,
        Backend::Redo,
        Backend::Atlas,
    ] {
        let s = sweep(backend, 1, Nested::Exhaustive);
        println!(
            "{}: {} outer, {} nested, {} reexec, {} rolled back, {} redo",
            backend.label(),
            s.crash_points,
            s.nested_points,
            s.reexecuted,
            s.rolled_back,
            s.redo_applied
        );
        assert_covered(&s, backend.label());
        assert_eq!(
            s.crash_points,
            s.events,
            "{}: every event visited",
            backend.label()
        );
        // The exhaustive sweep must hold — point-for-point — at 4 shards
        // too.
        let sharded = sweep_with(backend, 1, Nested::Exhaustive, 4);
        assert_eq!(
            sharded,
            s,
            "{}: 4-shard exhaustive sweep diverged",
            backend.label()
        );
    }
}

/// BestEffort recovery quarantines a deliberately corrupted v_log slot and
/// still recovers the healthy slot, without aborting the scan; Strict fails.
#[test]
fn best_effort_quarantines_corrupted_slot() {
    let backend = Backend::clobber();
    let media = two_parked_transfers(backend, [(0, 1, 30), (2, 3, 45)]);

    // Slot 0's begin record is whole but names no UTF-8 txfunc.
    let (pool, rt) = reopen(media, backend);
    register_parked_plain(&rt);
    write_undecodable_begin(&pool, &rt.slot_handle(0).unwrap());

    // Strict: the scan dies on the corrupt slot.
    match rt.recover() {
        Err(TxError::CorruptVlog(_)) => {}
        other => panic!("strict recovery should fail on corruption, got {other:?}"),
    }

    // BestEffort: slot 0 is quarantined with a reason, slot 1 recovers.
    let report = rt
        .recover_with(&RecoveryOptions::best_effort().no_wait())
        .unwrap();
    assert_eq!(report.slots_scanned, 2);
    assert_eq!(report.quarantined.len(), 1, "{report:?}");
    assert_eq!(report.quarantined[0].slot, 0);
    assert_eq!(report.quarantined[0].kind, SlotQuarantineKind::CorruptVlog);
    assert!(
        report.quarantined[0].reason.contains("not UTF-8"),
        "reason should name the validation failure: {:?}",
        report.quarantined[0]
    );
    assert_eq!(
        report.reexecuted,
        vec!["parked_transfer".to_string()],
        "the healthy slot must still re-execute"
    );
    assert!(!report.is_clean(), "quarantine is not a clean recovery");

    // drop_all dropped the interrupted stores, so the quarantined slot's
    // transfer simply never happened: conservation still holds.
    let base = rt.app_root().unwrap();
    assert_eq!(total(&pool, base), ACCOUNTS * INITIAL);
}

/// Transient read faults during recovery are retried with backoff and then
/// succeed, with the retries surfaced in the report and pool stats.
#[test]
fn transient_faults_during_recovery_are_retried() {
    let backend = Backend::clobber();
    let media = two_parked_transfers(backend, [(0, 1, 30), (2, 3, 45)]);
    let (pool, rt) = reopen(media, backend);
    register_parked_plain(&rt);

    pool.arm_faults(FaultPlan::transient_reads(2));
    let report = rt.recover().unwrap();
    pool.disarm_faults();

    assert_eq!(report.transient_retries, 2, "{report:?}");
    assert_eq!(report.reexecuted.len(), 2, "both slots recover: {report:?}");
    let snap = pool.stats().snapshot();
    assert_eq!(snap.fault_retries, 2);
    assert_eq!(snap.faults_tripped, 2);
    let base = rt.app_root().unwrap();
    assert_eq!(total(&pool, base), ACCOUNTS * INITIAL);
}

/// When transient faults outlast the retry budget, Strict propagates the
/// fault and BestEffort quarantines the affected slots instead.
#[test]
fn exhausted_transient_retries_follow_the_policy() {
    let backend = Backend::clobber();
    let media = two_parked_transfers(backend, [(0, 1, 30), (2, 3, 45)]);

    let (pool, rt) = reopen(media.clone(), backend);
    register_parked_plain(&rt);
    pool.arm_faults(FaultPlan::transient_reads(1_000));
    match rt.recover() {
        Err(TxError::Pmem(PmemError::TransientMediaFault { .. })) => {}
        other => panic!("strict recovery should surface the fault, got {other:?}"),
    }
    pool.disarm_faults();

    let (pool, rt) = reopen(media, backend);
    register_parked_plain(&rt);
    pool.arm_faults(FaultPlan::transient_reads(1_000));
    let opts = RecoveryOptions::best_effort().no_wait();
    let report = rt.recover_with(&opts).unwrap();
    pool.disarm_faults();
    assert_eq!(report.quarantined.len(), 2, "{report:?}");
    for q in &report.quarantined {
        assert_eq!(q.kind, SlotQuarantineKind::RetriesExhausted, "{q:?}");
    }
    // Every slot burns its full retry budget before giving up.
    assert_eq!(
        report.transient_retries,
        2 * opts.max_retries as u64,
        "{report:?}"
    );
}

/// A crash *between* the two recovery attempts of the sweep is covered by
/// `sweep`; this pins the simplest idempotence case — calling `recover`
/// twice back-to-back after a mid-transaction crash.
#[test]
fn recover_twice_is_idempotent() {
    let backend = Backend::clobber();
    let media = two_parked_transfers(backend, [(0, 1, 30), (2, 3, 45)]);
    let (pool, rt) = reopen(media, backend);
    register_parked_plain(&rt);
    let first = rt.recover().unwrap();
    assert_eq!(first.reexecuted.len(), 2);
    let second = rt.recover().unwrap();
    assert!(second.is_clean(), "{second:?}");
    let base = rt.app_root().unwrap();
    assert_eq!(total(&pool, base), ACCOUNTS * INITIAL);
}
