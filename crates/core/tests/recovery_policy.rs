//! Recovery policy and quarantine.
//!
//! The typed multi-slot quarantine taxonomy, the phase that decides a
//! quarantine's kind, a report that reads no clock, and the traced
//! quarantine step.

mod common;

use std::sync::Arc;

use common::{
    parked_transfers, register_parked_plain, reopen, total, two_parked_transfers,
    write_undecodable_begin, ACCOUNTS, INITIAL,
};

use clobber_nvm::{Backend, RecoveryOptions, Runtime, SlotQuarantineKind, TxError};
use clobber_pmem::{EventKind, FaultPlan, PAddr, PmemError, Tracer};

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

    // Slot 0: a whole v_log begin record that does not decode.
    write_undecodable_begin(&pool, &rt.slot_handle(0).unwrap());

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

/// A corrupt structure the replayed txfunc walks into — here a chain walk
/// that finds a self-looped node — is media damage, not a corrupt log: the
/// slot's clobber log validated and was rolled back before the replay ran.
/// Strict recovery returns the txfunc's error unchanged.
#[test]
fn a_corrupt_structure_met_by_the_replay_is_a_media_fault() {
    let backend = Backend::clobber();
    let media = two_parked_transfers(backend, [(0, 1, 30), (2, 3, 45)]);
    let register = |rt: &Runtime| {
        rt.register("parked_transfer", |tx, args| {
            let base = PAddr::new(args.u64(0)?);
            let (from, to, amount) = (args.u64(1)?, args.u64(2)?, args.u64(3)?);
            let from_bal = tx.read_u64(base.add(from * 8))?;
            if from == 0 {
                return Err(PmemError::CorruptPool("node 0x40 links to itself".into()).into());
            }
            tx.write_u64(base.add(from * 8), from_bal - amount)?;
            let to_bal = tx.read_u64(base.add(to * 8))?;
            tx.write_u64(base.add(to * 8), to_bal + amount)?;
            Ok(None)
        });
    };

    let (pool, rt) = reopen(media.clone(), backend);
    register(&rt);
    let report = rt.recover_with(&be_opts()).unwrap();
    assert_eq!(report.quarantined.len(), 1, "{report:?}");
    let q = &report.quarantined[0];
    assert_eq!(
        (q.slot, q.kind),
        (0, SlotQuarantineKind::MediaFault),
        "{q:?}"
    );
    assert!(q.reason.contains("links to itself"), "{q:?}");
    assert_eq!(report.reexecuted, vec!["parked_transfer".to_string()]);
    let base = rt.app_root().unwrap();
    assert_eq!(total(&pool, base), ACCOUNTS * INITIAL);

    let (_pool2, rt2) = reopen(media, backend);
    register(&rt2);
    match rt2.recover_with(&opts()) {
        Err(TxError::Pmem(PmemError::CorruptPool(why))) => {
            assert_eq!(why, "node 0x40 links to itself")
        }
        other => panic!("strict replay failure: {other:?}"),
    }
}

/// Recovery reads no clock: two default scans of two reopened copies of
/// one crashed image report exactly the same.
#[test]
fn recovery_of_one_image_reports_the_same_twice() {
    let backend = Backend::clobber();
    let media = two_parked_transfers(backend, [(0, 1, 30), (2, 3, 45)]);
    let (_pool, rt) = reopen(media.clone(), backend);
    register_parked_plain(&rt);
    let first = rt.recover().unwrap();
    let (_pool2, rt2) = reopen(media, backend);
    register_parked_plain(&rt2);
    let second = rt2.recover().unwrap();
    assert_eq!(first.reexecuted.len(), 2, "{first:?}");
    assert_eq!(first, second);
}

/// Quarantine decisions show up in the persist-event trace as typed
/// recovery steps carrying the slot index.
#[test]
fn quarantine_is_traced() {
    let backend = Backend::clobber();
    let media = two_parked_transfers(backend, [(0, 1, 30), (2, 3, 45)]);
    let (pool, rt) = reopen(media, backend);
    register_parked_plain(&rt);
    write_undecodable_begin(&pool, &rt.slot_handle(0).unwrap());

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
