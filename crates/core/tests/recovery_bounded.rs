//! Bounded-time recovery.
//!
//! The global budget and per-slot deadline degradations, the typed
//! multi-slot quarantine taxonomy, the report's timing, and the traced
//! quarantine step.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{
    parked_transfers, register_parked_plain, reopen, total, two_parked_transfers, ACCOUNTS, INITIAL,
};

use clobber_nvm::{Backend, RecoveryOptions, SlotQuarantineKind, TxError};
use clobber_pmem::{EventKind, FaultPlan, Tracer};

fn opts() -> RecoveryOptions {
    RecoveryOptions::default().no_wait()
}

fn be_opts() -> RecoveryOptions {
    RecoveryOptions::best_effort().no_wait()
}

/// Several slots failing with *distinct* fault kinds in one best-effort
/// scan: the corrupt v_log record, the unreadable clobber log, and the
/// healthy slot each get the right verdict, and the retry count matches
/// the armed fault plan exactly.
#[test]
fn multi_slot_quarantine_reports_distinct_kinds() {
    let backend = Backend::clobber();
    let media = parked_transfers(backend, &[(0, 1, 30), (2, 3, 45), (4, 5, 60)]);
    let (pool, rt) = reopen(media, backend);
    register_parked_plain(&rt);

    // Slot 0: corrupt the v_log begin record (name length driven far past
    // NAME_CAP by seeded bit flips).
    let slot0 = rt.slot_handle(0).unwrap();
    let (rec_start, _) = slot0.record_region();
    pool.inject_bit_corruption(rec_start, 8, 1234, 16).unwrap();

    // Slot 1: point its clobber-log descriptor outside the pool, so the
    // log read dies with a media-level addressing fault.
    let slot1 = rt.slot_handle(1).unwrap();
    pool.write_u64(slot1.base().add(32), 1 << 40).unwrap();

    // Two transient read faults on top: retried and absorbed.
    pool.arm_faults(FaultPlan::transient_reads(2));
    let report = rt.recover_with(&be_opts()).unwrap();
    pool.disarm_faults();

    assert_eq!(report.slots_scanned, 3, "{report:?}");
    assert_eq!(report.quarantined.len(), 2, "{report:?}");
    assert_eq!(report.quarantined[0].slot, 0);
    assert_eq!(report.quarantined[0].kind, SlotQuarantineKind::CorruptVlog);
    assert_eq!(report.quarantined[1].slot, 1);
    assert_eq!(report.quarantined[1].kind, SlotQuarantineKind::MediaFault);
    assert_eq!(
        report.reexecuted,
        vec!["parked_transfer".to_string()],
        "the healthy slot still recovers"
    );
    assert_eq!(
        report.transient_retries, 2,
        "retries match the armed plan: {report:?}"
    );
    assert!(!report.is_clean());

    // Both quarantined transfers were dropped whole; conservation holds.
    let base = rt.app_root().unwrap();
    assert_eq!(total(&pool, base), ACCOUNTS * INITIAL);
}

/// A zero global budget quarantines every slot (best-effort) with the
/// typed reason instead of hanging the pool open, and a later unbounded
/// scan still recovers everything.
#[test]
fn exhausted_global_budget_degrades_gracefully() {
    let backend = Backend::clobber();
    let media = two_parked_transfers(backend, [(0, 1, 30), (2, 3, 45)]);

    let (pool, rt) = reopen(media.clone(), backend);
    register_parked_plain(&rt);
    let report = rt
        .recover_with(&be_opts().with_total_budget(Duration::ZERO))
        .unwrap();
    assert_eq!(report.quarantined.len(), 2, "{report:?}");
    for q in &report.quarantined {
        assert_eq!(q.kind, SlotQuarantineKind::BudgetExceeded, "{q:?}");
    }
    assert_eq!(report.budget_expired, 2);
    assert!(report.reexecuted.is_empty());
    assert_eq!(pool.stats().snapshot().rec_budget_expired, 2);

    // Strict surfaces the same condition as a typed error on the first slot.
    let (_pool2, rt2) = reopen(media.clone(), backend);
    register_parked_plain(&rt2);
    match rt2.recover_with(&opts().with_total_budget(Duration::ZERO)) {
        Err(TxError::RecoveryBudgetExceeded { slot: 0 }) => {}
        other => panic!("strict zero budget: {other:?}"),
    }

    // Nothing was consumed or damaged: a real scan still recovers both.
    let (pool3, rt3) = reopen(media, backend);
    register_parked_plain(&rt3);
    let full = rt3.recover_with(&opts()).unwrap();
    assert_eq!(full.reexecuted.len(), 2, "{full:?}");
    let base = rt3.app_root().unwrap();
    assert_eq!(total(&pool3, base), ACCOUNTS * INITIAL);
}

/// A zero per-slot deadline behaves like the budget, per slot.
#[test]
fn exhausted_slot_deadline_quarantines_each_slot() {
    let backend = Backend::clobber();
    let media = two_parked_transfers(backend, [(0, 1, 30), (2, 3, 45)]);
    let (pool, rt) = reopen(media, backend);
    register_parked_plain(&rt);
    let report = rt
        .recover_with(&be_opts().with_slot_deadline(Duration::ZERO))
        .unwrap();
    assert_eq!(report.quarantined.len(), 2, "{report:?}");
    for q in &report.quarantined {
        assert_eq!(q.kind, SlotQuarantineKind::BudgetExceeded, "{q:?}");
        assert!(q.reason.contains("deadline"), "{q:?}");
    }
    assert!(report.reexecuted.is_empty());

    // Quarantined slots stay ongoing (the torn transfers are still
    // un-repaired); a later unbounded scan picks them up and restores
    // conservation.
    let full = rt.recover_with(&opts()).unwrap();
    assert_eq!(full.reexecuted.len(), 2, "{full:?}");
    let base = rt.app_root().unwrap();
    assert_eq!(total(&pool, base), ACCOUNTS * INITIAL);
}

/// The report times the scan and each slot on the options' clock: real
/// durations under the default clock, exact zeros under the no-op clock
/// (which keeps sweep reports bit-identical).
#[test]
fn report_times_the_scan_and_each_slot() {
    let backend = Backend::clobber();
    let media = two_parked_transfers(backend, [(0, 1, 30), (2, 3, 45)]);
    let (_pool, rt) = reopen(media.clone(), backend);
    register_parked_plain(&rt);
    let timed = rt.recover_with(&RecoveryOptions::default()).unwrap();
    assert_eq!(timed.slot_durations.len(), timed.slots_scanned);
    assert!(timed.wall_time > Duration::ZERO, "{timed:?}");
    assert!(
        timed.slot_durations.iter().any(|d| *d > Duration::ZERO),
        "{timed:?}"
    );

    let (_pool2, rt2) = reopen(media, backend);
    register_parked_plain(&rt2);
    let quiet = rt2.recover_with(&opts()).unwrap();
    assert_eq!(quiet.wall_time, Duration::ZERO);
    assert!(quiet.slot_durations.iter().all(|d| *d == Duration::ZERO));
}

/// Quarantine decisions show up in the persist-event trace as typed
/// recovery steps carrying the slot index.
#[test]
fn quarantine_is_traced() {
    let backend = Backend::clobber();
    let media = two_parked_transfers(backend, [(0, 1, 30), (2, 3, 45)]);
    let (pool, rt) = reopen(media, backend);
    register_parked_plain(&rt);
    let slot0 = rt.slot_handle(0).unwrap();
    let (rec_start, _) = slot0.record_region();
    pool.inject_bit_corruption(rec_start, 8, 1234, 16).unwrap();

    let tracer = Arc::new(Tracer::new());
    pool.set_tracer(Some(tracer.clone()));
    let report = rt.recover_with(&be_opts()).unwrap();
    pool.set_tracer(None);
    assert_eq!(report.quarantined.len(), 1);

    let trace = tracer.take();
    let quarantines: Vec<u64> = trace
        .events
        .iter()
        .filter(|e| {
            e.kind == EventKind::RecoveryStep && e.a == clobber_trace::recovery_steps::QUARANTINE
        })
        .map(|e| e.b)
        .collect();
    assert_eq!(quarantines, vec![0], "one quarantine step for slot 0");
}
