//! Property-based crash testing: a bank of accounts with transfer
//! transactions. The invariant — the total balance is conserved — must hold
//! after a crash (a seeded subset of the un-fenced lines kept) at *any*
//! persist event of a generated
//! transfer script, under every failure-atomic backend, regardless of
//! whether recovery completes the interrupted transfer (clobber) or rolls
//! it back (undo/redo/atlas). Each case is one `CrashBattery` crash point,
//! so it also gets the heap walk, idempotence, byte parity and a crash
//! inside recovery.

mod common;

use std::sync::Arc;

use clobber_nvm::{Backend, CrashBattery, Nested, Runtime, SweepSummary};
use common::{bank_session, total, transfer_args, unless_crashed, ACCOUNTS, INITIAL};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn transfers_conserve_total_across_crashes(
        transfers in proptest::collection::vec((0u64..8, 0u64..8, 0u64..50), 1..25),
        crash_draw in any::<u64>(),
        backend_idx in 0usize..4,
    ) {
        let backend = [Backend::clobber(), Backend::Undo, Backend::Redo, Backend::Atlas][backend_idx];
        let session = bank_session(backend);
        let drive = |rt: &Arc<Runtime>| {
            let base = rt.app_root().unwrap();
            let script = |&t| rt.run("transfer", &transfer_args(base, t)).map(drop);
            unless_crashed(rt, transfers.iter().try_for_each(script));
        };
        let battery = CrashBattery { session: &session, drive: &drive, nested: Nested::Rotating };
        let fail = |v| TestCaseError::fail(format!("under {}: {v}", backend.label()));

        // The clean run must conserve the total (the session's check).
        let events = battery.count_events().map_err(fail)?;
        // A script of refused transfers alone persists nothing to crash.
        if events > 0 {
            let mut summary = SweepSummary::default();
            battery
                .crash_point(crash_draw % events, &mut summary, &mut |r| {
                    // The recovered bank keeps working.
                    let base = r.rt.app_root().unwrap();
                    r.rt.run("transfer", &transfer_args(base, (0, 1, 5))).unwrap();
                    assert_eq!(total(&r.pool, base), ACCOUNTS * INITIAL);
                })
                .map_err(fail)?;
            prop_assert_eq!(summary.not_tripped, 0, "every counted event trips");
        }
    }
}
