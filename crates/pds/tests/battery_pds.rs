//! The `CrashBattery` on the hash-map exploration workload: the injected
//! ordering bug is reported with its reason at the clean run and at the
//! crash points where it is live, a crash point past the last event is
//! not-tripped, and exhaustive nesting crashes an allocating recovery at
//! exactly its counted persist events.

use std::sync::Arc;

use clobber_nvm::{CrashBattery, ExploreSession, Nested, Runtime, Schedule, SweepSummary};
use clobber_pds::workload::ExploreWorkload;

/// Runs `f` with a battery that replays `schedule` over `session`.
fn with_battery<R>(
    session: &ExploreSession<'_>,
    schedule: &Schedule,
    nested: Nested,
    f: impl FnOnce(&CrashBattery<'_>) -> R,
) -> R {
    let drive = |rt: &Arc<Runtime>| {
        schedule.replay(rt);
    };
    f(&CrashBattery {
        session,
        drive: &drive,
        nested,
    })
}

#[test]
fn injected_ordering_bug_is_reported_with_reason_and_crash_point() {
    let wl = ExploreWorkload::with_bug();
    let session = wl.session();
    // Seed order (racy insert before the mark) survives every crash point.
    let seed = wl.buggy_schedule();
    let clean = with_battery(&session, &seed, Nested::Off, |b| {
        b.sweep(5, u64::MAX, |_| {})
    })
    .expect("the seed order is clean");
    assert!(
        clean.crash_points > 0 && clean.not_tripped == 0,
        "{clean:?}"
    );

    // Mark first: the racy insert publishes corrupted bytes for key 7. The
    // sweep stops at the crash-free run...
    let mut bad = seed.clone();
    bad.ops.swap(1, 2);
    let v = with_battery(&session, &bad, Nested::Off, |b| {
        b.sweep(1, u64::MAX, |_| {})
    })
    .expect_err("the clean run is corrupt");
    assert_eq!((v.crash_at, v.visited.crash_points), (None, 0), "{v}");
    assert!(v.reason.contains("key 7"), "{v}");

    // ...and crash by crash the corruption is there once recovery has the
    // racy insert to complete, not before; past the end nothing trips.
    let mut prefix = bad.clone();
    prefix.ops.truncate(2);
    let before = with_battery(&session, &prefix, Nested::Off, |b| b.count_events())
        .expect("insert + mark alone are clean");
    let point = |k| {
        let mut p = SweepSummary::default();
        with_battery(&session, &bad, Nested::Off, |b| {
            b.crash_point(k, &mut p, &mut |_| {}).map(|()| p)
        })
    };
    point(before).expect("nothing of the racy insert is durable at its first event");
    let last = v.visited.events - 1;
    let at_last = point(last).expect_err("the racy insert is re-executed");
    assert_eq!((at_last.crash_at, at_last.nested_at), (Some(last), None));
    assert!(at_last.reason.contains("key 7"), "{at_last}");
    let past = with_battery(&session, &prefix, Nested::Off, |b| {
        let mut p = SweepSummary::default();
        b.crash_point(before, &mut p, &mut |_| panic!("nothing to recover"))
            .map(|()| p)
    })
    .expect("an intact run is not a violation");
    assert_eq!((past.crash_points, past.not_tripped), (1, 1));
}

#[test]
fn exhaustive_nesting_visits_every_recovery_event_of_an_insert() {
    let wl = ExploreWorkload::new();
    let session = wl.session();
    let schedule = wl.seed_schedule();
    // Inside the last insert, so recovery re-executes an allocating txfunc.
    let k = with_battery(&session, &schedule, Nested::Off, |b| b.count_events()).unwrap() - 2;
    let (mut point, mut served) = (SweepSummary::default(), Vec::new());
    with_battery(&session, &schedule, Nested::Exhaustive, |b| {
        b.crash_point(k, &mut point, &mut |r| served.push(r.nested_at))
    })
    .expect("recovery survives a crash at any of its own events");
    let m = point.recovery_events;
    assert!(m > 1, "re-executing an insert persists: {point:?}");
    assert_eq!(point.nested_points, m);
    assert!(served
        .into_iter()
        .eq(std::iter::once(None).chain((0..m).map(Some))));
}
