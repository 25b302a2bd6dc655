//! The `CrashBattery` itself, on the explore bank (`common::explore_setup`):
//! each check it runs is shown to be the one that reports an injected
//! fault of its kind, at the crash points where that fault is live — so
//! deleting any one check fails a test here — plus the not-tripped
//! outcome and the nested-crash placement.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clobber_nvm::{
    ArgList, CheckFn, CrashBattery, ExploreSession, Nested, Runtime, Schedule, ScheduleOp,
    SweepSummary, Violation,
};
use clobber_pmem::{PAddr, PmemPool};
use common::{
    explore_base, explore_check, explore_reopen, explore_setup, transfer_op, FLAG_OFFSET,
};

/// Two more injected faults beside `common`'s conservation bug. `underflow`
/// stores 24 bytes *before* the account array, onto its allocator block
/// header: balances still add up, only the heap walk sees the unknown
/// block state. `stamp` stores a value that depends on volatile state, so
/// two re-executions from one image write different bytes (into the flag
/// cell, outside the conservation sum).
fn register_faults(rt: &Runtime) {
    static STAMP: AtomicU64 = AtomicU64::new(1);
    rt.register("underflow", |tx, args| {
        tx.write_u64(PAddr::new(args.u64(0)? - 24), 0)?;
        Ok(None)
    });
    rt.register("stamp", |tx, args| {
        let flag = PAddr::new(args.u64(0)? + FLAG_OFFSET);
        let seen = tx.read_u64(flag)?;
        tx.write_u64(flag, seen + STAMP.fetch_add(1, Ordering::Relaxed))?;
        Ok(None)
    });
}

/// The explore bank with every injected-fault txfunc registered.
fn session(check: CheckFn<'static>) -> ExploreSession<'static> {
    ExploreSession {
        build: Box::new(|| {
            let (pool, rt, _) = explore_setup(true);
            register_faults(&rt);
            (pool, rt)
        }),
        reopen: Box::new(|media| {
            let (pool, rt) = explore_reopen(media, true);
            register_faults(&rt);
            (pool, rt)
        }),
        check,
    }
}

/// A one-argument (`[base]`) dispatch of `name` on slot 0.
fn op(name: &str) -> ScheduleOp {
    ScheduleOp {
        slot: 0,
        name: name.to_string(),
        args: ArgList::new().with_u64(explore_base().offset()),
    }
}

fn transfer(slot: usize, step: (u64, u64, u64)) -> ScheduleOp {
    transfer_op(explore_base(), slot, step)
}

/// Runs `f` with a battery that replays `ops` over `session`.
fn with_battery<R>(
    session: &ExploreSession<'_>,
    ops: &[ScheduleOp],
    nested: Nested,
    f: impl FnOnce(&CrashBattery<'_>) -> R,
) -> R {
    let schedule = Schedule { ops: ops.to_vec() };
    let drive = |rt: &Arc<Runtime>| {
        schedule.replay(rt);
    };
    f(&CrashBattery {
        session,
        drive: &drive,
        nested,
    })
}

/// One crash point with nothing served.
fn point(b: &CrashBattery<'_>, k: u64) -> Result<SweepSummary, Box<Violation>> {
    let mut point = SweepSummary::default();
    b.crash_point(k, &mut point, &mut |_| {}).map(|()| point)
}

#[test]
fn each_check_reports_the_fault_injected_for_it_where_it_is_live() {
    let bank = session(Box::new(explore_check));
    // `reserve` arms the `common` bug: `take_if_reserved` then debits 60
    // with no credit.
    for (healthy, faulty, reason) in [
        (
            op("reserve"),
            op("take_if_reserved"),
            "conservation violated: total 7940",
        ),
        (
            transfer(0, (0, 1, 30)),
            op("underflow"),
            "heap check failed: corrupt pool: block",
        ),
        (
            transfer(0, (0, 1, 30)),
            op("stamp"),
            "two recoveries of the same media diverged",
        ),
    ] {
        let boundary = with_battery(&bank, std::slice::from_ref(&healthy), Nested::Off, |b| {
            b.count_events().expect("the healthy prefix is clean")
        });
        // Crash at every event of healthy + faulty: no point inside the
        // healthy prefix fails, one inside the faulty op does, and each
        // failure is pinned to its own crash point and reports this check.
        // (A later point may pass: its power failure may keep the faulty
        // op's commit, leaving recovery nothing to re-run.) The run may
        // itself be faulty, so its end is the first crash point that no
        // longer trips (reported clean or not).
        let mut failed = 0;
        with_battery(&bank, &[healthy, faulty], Nested::Off, |b| {
            for k in 0.. {
                match point(b, k) {
                    Ok(p) if p.not_tripped == 1 => break,
                    Err(v) if v.visited.not_tripped == 1 => break,
                    Ok(_) => {}
                    Err(v) => {
                        assert!(k >= boundary, "the healthy prefix failed: {v}");
                        assert_eq!((v.crash_at, v.nested_at), (Some(k), None), "{v}");
                        assert_eq!(v.visited.crash_points, 1, "{v}");
                        assert!(v.reason.starts_with(reason), "{v}");
                        failed += 1;
                    }
                }
            }
        });
        assert!(failed > 0, "never reported: {reason}");
    }

    // A sweep of the conservation bug stops at the clean run, which leaks.
    let leaky = [op("reserve"), op("take_if_reserved")];
    let v = with_battery(&bank, &leaky, Nested::Off, |b| {
        b.sweep(1, u64::MAX, |_| panic!("no point is reached"))
            .expect_err("the clean run leaks")
    });
    assert_eq!((v.crash_at, v.visited.crash_points), (None, 0), "{v}");
    assert!(
        v.to_string()
            .starts_with("clean run: conservation violated"),
        "{v}"
    );
}

#[test]
fn idempotence_check_reports_work_left_for_a_second_recovery() {
    // The injected fault: an invariant "check" that is not read-only — it
    // sets slot 0's status word again, as a recovery that forgot to retire
    // the slot would leave it. The word names no v_log begin, so the
    // second recovery has a slot to abandon.
    let bank = session(Box::new(|pool, rt| {
        explore_check(pool, rt)?;
        if rt.slot_count() > 0 {
            let slot = rt.slot_handle(0).map_err(|e| e.to_string())?;
            slot.mark_ongoing(pool).map_err(|e| e.to_string())?;
        }
        Ok(())
    }));
    let v = with_battery(&bank, &[transfer(0, (0, 1, 30))], Nested::Off, |b| {
        point(b, b.count_events().unwrap() - 1)
            .expect_err("the second recovery has a transfer to re-execute")
    });
    assert!(v.reason.starts_with("second recovery was not clean"), "{v}");
    assert!(v.reason.contains("abandoned: 1"), "{v}");
}

#[test]
fn a_crash_point_past_the_last_event_is_not_tripped() {
    let bank = session(Box::new(explore_check));
    with_battery(&bank, &[transfer(0, (0, 1, 30))], Nested::Rotating, |b| {
        let events = b.count_events().unwrap();
        let mut p = SweepSummary::default();
        b.crash_point(events + 3, &mut p, &mut |_| panic!("nothing to recover"))
            .expect("an intact run is not a violation");
        assert_eq!((p.crash_points, p.not_tripped, p.nested_points), (1, 1, 0));
        // A sweep never plants past the last event.
        let s = b.sweep(1, u64::MAX, |_| {}).unwrap();
        assert_eq!((s.crash_points, s.not_tripped), (events, 0));
    });
}

#[test]
fn nested_crashes_land_on_exactly_the_counted_recovery_events() {
    let bank = session(Box::new(explore_check));
    let ops = [transfer(0, (0, 1, 30)), transfer(1, (2, 3, 45))];
    // A crash point whose recovery has real work: inside the last transfer.
    let k = with_battery(&bank, &ops, Nested::Off, |b| b.count_events().unwrap()) - 2;
    let visit = |nested: Nested| {
        let (mut p, mut served) = (SweepSummary::default(), Vec::new());
        with_battery(&bank, &ops, nested, |b| {
            b.crash_point(k, &mut p, &mut |r| served.push((r.crash_at, r.nested_at)))
                .unwrap()
        });
        (p, served)
    };

    let (plain, served) = visit(Nested::Off);
    assert_eq!(served, [(k, None)]);
    assert_eq!((plain.recovery_events, plain.nested_points), (0, 0));
    assert_eq!(plain.reexecuted, 1, "the interrupted transfer re-executes");

    let (all, served) = visit(Nested::Exhaustive);
    let m = all.recovery_events;
    assert!(
        m > 1,
        "recovering an interrupted transfer persists: {all:?}"
    );
    assert_eq!(all.nested_points, m);
    let expected = std::iter::once(None).chain((0..m).map(Some));
    assert!(served.into_iter().map(|(_, j)| j).eq(expected));

    let (one, served) = visit(Nested::Rotating);
    assert_eq!((one.recovery_events, one.nested_points), (m, 1));
    assert_eq!(served, [(k, None), (k, Some(k % m))]);
}

/// Payload the `keep_second` txfunc gives the block it keeps.
const KEPT: [u8; 64] = [0x5A; 64];

/// Allocates two blocks, fills and keeps the second, frees the first again
/// and links the survivor into the flag cell. The link clobbers an input,
/// so its log fence falls between the `pfree` and the commit.
fn register_keep_second(rt: &Runtime) {
    rt.register("keep_second", |tx, args| {
        let flag = PAddr::new(args.u64(0)? + FLAG_OFFSET);
        let a = tx.pmalloc(64)?;
        let b = tx.pmalloc(64)?;
        tx.write_bytes(b, &KEPT)?;
        tx.pfree(a)?;
        let linked = tx.read_u64(flag)?;
        tx.write_u64(flag, linked + b.offset())?;
        Ok(None)
    });
}

#[test]
fn a_block_freed_by_its_own_transaction_never_reaches_the_heap_walk() {
    // Slot 0 exists before the run, so the allocated-block count moves with
    // the transaction alone.
    let build = || {
        let (pool, rt, _) = explore_setup(false);
        register_keep_second(&rt);
        rt.slot_handle(0).unwrap();
        (pool, rt)
    };
    let before = build().0.check_heap().unwrap().allocated_blocks;
    let bank = ExploreSession {
        build: Box::new(build),
        reopen: Box::new(|media| {
            let (pool, rt) = explore_reopen(media, false);
            register_keep_second(&rt);
            (pool, rt)
        }),
        check: Box::new(move |pool: &PmemPool, rt: &Runtime| {
            let base = rt.app_root().map_err(|e| e.to_string())?;
            let kept = pool.read_u64(base.add(FLAG_OFFSET)).unwrap();
            let allocated = pool
                .check_heap()
                .map_err(|e| e.to_string())?
                .allocated_blocks;
            if kept != 0 && pool.read_bytes(PAddr::new(kept), 64).unwrap() != KEPT {
                return Err(format!("kept block {kept:#x} is not intact"));
            }
            // One more block, or none when the begin record never became
            // durable. A crash between the commit fence and the cleared
            // status re-executes over an already published block — the
            // documented publish-to-commit leak, one block per crash, and a
            // point takes at most two (its own and one nested).
            let leak = if kept != 0 { 1..=3 } else { 0..=0 };
            if !leak.contains(&allocated.wrapping_sub(before)) {
                return Err(format!(
                    "{allocated} allocated blocks, {before} before, kept {kept:#x}"
                ));
            }
            Ok(())
        }),
    };
    let s = with_battery(&bank, &[op("keep_second")], Nested::Rotating, |b| {
        b.sweep(1, u64::MAX, |_| {})
            .unwrap_or_else(|v| panic!("{v}"))
    });
    assert_eq!((s.crash_points, s.not_tripped), (s.events, 0));
    assert!(s.reexecuted > 0 && s.nested_points > 0, "{s:?}");
    // Uncrashed, the count is exact: the freed block is not allocated.
    let (pool, rt) = (bank.build)();
    rt.run_on(0, "keep_second", &op("keep_second").args)
        .unwrap();
    assert_eq!(pool.check_heap().unwrap().allocated_blocks, before + 1);
}
