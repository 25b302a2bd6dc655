//! Parallel, bounded-time recovery.
//!
//! The slot scan may be partitioned across worker threads
//! ([`RecoveryOptions::with_workers`]); these tests prove the parallel
//! scan is observationally identical to the serial one — bit-identical
//! durable state and identical reports — for disjoint and conflicting
//! slot write sets, across pool shard counts, and when resuming
//! from persisted re-execution checkpoints. The bounded-time half covers
//! the global budget and per-slot deadline degradations, and the typed
//! multi-slot quarantine taxonomy.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{
    parked_transfers, register_parked_plain, reopen, reopen_with, total, two_parked_transfers,
    ACCOUNTS, INITIAL,
};

use clobber_nvm::{Backend, RecoveryOptions, RecoveryReport, SlotQuarantineKind, TxError};
use clobber_pmem::{CrashConfig, EventKind, FaultPlan, Tracer};

/// Four parked transfers over pairwise-disjoint account ranges.
const DISJOINT: [(u64, u64, u64); 4] = [(0, 1, 30), (2, 3, 45), (4, 5, 60), (6, 7, 15)];
/// Two transfers sharing account 1 (one conflict group) plus two disjoint.
const CONFLICTING: [(u64, u64, u64); 4] = [(0, 1, 30), (1, 2, 45), (4, 5, 10), (6, 7, 20)];

fn opts() -> RecoveryOptions {
    RecoveryOptions::default().no_wait()
}

fn be_opts() -> RecoveryOptions {
    RecoveryOptions::best_effort().no_wait()
}

/// Asserts the scan-outcome fields of two reports match (wall-clock and
/// worker bookkeeping are allowed to differ between serial and parallel).
fn assert_same_outcome(a: &RecoveryReport, b: &RecoveryReport, ctx: &str) {
    assert_eq!(a.slots_scanned, b.slots_scanned, "{ctx}: slots_scanned");
    assert_eq!(a.reexecuted, b.reexecuted, "{ctx}: reexecuted");
    assert_eq!(a.rolled_back, b.rolled_back, "{ctx}: rolled_back");
    assert_eq!(a.redo_applied, b.redo_applied, "{ctx}: redo_applied");
    assert_eq!(a.abandoned, b.abandoned, "{ctx}: abandoned");
    assert_eq!(a.resumed, b.resumed, "{ctx}: resumed");
    assert_eq!(
        a.watermark_advances, b.watermark_advances,
        "{ctx}: watermark_advances"
    );
    assert_eq!(a.transient_retries, b.transient_retries, "{ctx}: retries");
    assert_eq!(a.budget_expired, b.budget_expired, "{ctx}: budget_expired");
    assert_eq!(
        a.quarantined.len(),
        b.quarantined.len(),
        "{ctx}: quarantined"
    );
}

/// Recovers `media` serially and with `workers` threads on fresh pools
/// of `shards` shards, asserting identical reports, bit-identical durable
/// state, and conservation; returns the common media image.
fn assert_parallel_parity(media: Vec<u8>, workers: usize, shards: u32, ctx: &str) -> Vec<u8> {
    let backend = Backend::clobber();
    let (pool_s, rt_s) = reopen_with(media.clone(), backend, shards);
    register_parked_plain(&rt_s);
    let serial = rt_s.recover_with(&opts()).unwrap();
    assert_eq!(serial.workers_used, 1, "{ctx}");

    let (pool_p, rt_p) = reopen_with(media, backend, shards);
    register_parked_plain(&rt_p);
    let parallel = rt_p.recover_with(&opts().with_workers(workers)).unwrap();
    assert!(parallel.workers_used > 1, "{ctx}: {parallel:?}");

    assert_same_outcome(&serial, &parallel, ctx);
    let media_s = pool_s.crash_media(&CrashConfig::drop_all(3));
    let media_p = pool_p.crash_media(&CrashConfig::drop_all(3));
    assert_eq!(media_s, media_p, "{ctx}: durable state diverged");

    let base = rt_p.app_root().unwrap();
    assert_eq!(total(&pool_p, base), ACCOUNTS * INITIAL, "{ctx}");
    media_s
}

/// Slots with disjoint logged write sets recover concurrently and land on
/// exactly the serial scan's durable state, at shard counts 1 and 4.
#[test]
fn disjoint_slots_recover_in_parallel_bit_identically() {
    let media = parked_transfers(Backend::clobber(), &DISJOINT);
    for shards in [1u32, 4] {
        assert_parallel_parity(
            media.clone(),
            4,
            shards,
            &format!("disjoint, shards={shards}"),
        );
    }
}

/// Slots whose write sets overlap are grouped and serialized in slot-id
/// order on one worker; the outcome still matches the serial scan.
#[test]
fn conflicting_slots_serialize_deterministically() {
    let media = parked_transfers(Backend::clobber(), &CONFLICTING);
    for workers in [2usize, 4] {
        assert_parallel_parity(
            media.clone(),
            workers,
            1,
            &format!("conflicting, workers={workers}"),
        );
    }
}

/// A crash *inside* recovery leaves per-slot checkpoints behind; the next
/// scan resumes them identically whether it runs serially or in parallel.
#[test]
fn parallel_scan_resumes_from_checkpoints_like_serial() {
    let backend = Backend::clobber();
    let media = parked_transfers(backend, &DISJOINT);

    // Count a full recovery's persist events, then crash one mid-scan.
    let (pool_m, rt_m) = reopen(media.clone(), backend);
    register_parked_plain(&rt_m);
    pool_m.arm_faults(FaultPlan::count_only());
    rt_m.recover_with(&opts()).unwrap();
    let m = pool_m.disarm_faults();

    let (pool_c, rt_c) = reopen(media, backend);
    register_parked_plain(&rt_c);
    pool_c.arm_faults(FaultPlan::crash_at(2 * m / 3));
    let _ = rt_c.recover_with(&opts());
    assert_eq!(pool_c.fault_tripped(), Some(2 * m / 3));
    let crashed = pool_c.crash_media(&CrashConfig::drop_all(0xD15C));

    let final_media = assert_parallel_parity(crashed, 4, 1, "resumed scan");

    // The resumed scan really did make use of a persisted watermark.
    let (pool_f, rt_f) = reopen(final_media, backend);
    register_parked_plain(&rt_f);
    assert!(rt_f.recover_with(&opts()).unwrap().is_clean());
    let _ = pool_f;
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

/// Smoke slice of the exhaustive sweep below: one crash point inside
/// recovery per pattern, parallel-vs-serial parity on the resumed scan.
#[test]
fn parallel_recovery_crash_parity_smoke() {
    parallel_recovery_crash_parity(7);
}

/// Exhaustive: for each slot pattern, crash recovery at *every* persist
/// event, then prove the resumed scan's parallel/serial parity from each
/// crashed image. Quadratic; run via the full-sweep CI dispatch.
#[test]
#[ignore = "exhaustive: run with --ignored (CI full_sweep dispatch)"]
fn parallel_recovery_crash_parity_exhaustive() {
    parallel_recovery_crash_parity(1);
}

fn parallel_recovery_crash_parity(stride: u64) {
    let backend = Backend::clobber();
    for (pi, pattern) in [&DISJOINT[..], &CONFLICTING[..]].iter().enumerate() {
        let media = parked_transfers(backend, pattern);

        let (pool_m, rt_m) = reopen(media.clone(), backend);
        register_parked_plain(&rt_m);
        pool_m.arm_faults(FaultPlan::count_only());
        rt_m.recover_with(&opts()).unwrap();
        let m = pool_m.disarm_faults();
        assert!(m > 0);

        let mut j = pi as u64 % stride;
        while j < m {
            let (pool_c, rt_c) = reopen(media.clone(), backend);
            register_parked_plain(&rt_c);
            pool_c.arm_faults(FaultPlan::crash_at(j));
            let _ = rt_c.recover_with(&opts());
            assert_eq!(pool_c.fault_tripped(), Some(j));
            let crashed = pool_c.crash_media(&CrashConfig::drop_all(0xE4 ^ (j << 8)));
            assert_parallel_parity(
                crashed,
                4,
                1,
                &format!("pattern {pi}, recovery crash at {j}"),
            );
            j += stride;
        }
    }
}
