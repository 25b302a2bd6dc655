//! Trace replay and schedule minimization: a recorded crash reproduces
//! event-for-event from its extracted schedule, traces survive the binary
//! format round-trip, and ddmin shrinks a failing schedule to its culprits.

mod common;

use std::sync::Arc;

use clobber_nvm::{minimize_schedule, ArgList, Backend, Schedule};
use clobber_pmem::{FaultPlan, PAddr, Tracer};
use clobber_trace::Trace;
use common::*;

/// A mid-script crash point: deep enough that several transactions (and
/// their logs) precede it, shallow enough to leave ops un-run.
fn mid_crash_point() -> u64 {
    let n = count_script_events(Backend::clobber());
    assert!(n > 4);
    n / 2
}

/// The tentpole acceptance check: record a crash-sweep failure, extract the
/// schedule from the trace, replay it through a fresh identical pool under
/// the same fault plan, and diff the two traces — they must be identical,
/// FaultTrip and all.
#[test]
fn replay_reproduces_crash_event_for_event() {
    let backend = Backend::clobber();
    let k = mid_crash_point();
    let recorded = traced_crash_at(backend, k);
    assert_eq!(
        recorded.events.last().map(|e| e.kind),
        Some(clobber_pmem::EventKind::FaultTrip),
        "a tripped trace ends at the trip"
    );

    let schedule = Schedule::from_trace(&recorded).unwrap();
    assert!(!schedule.is_empty());
    assert!(
        schedule.len() <= SCRIPT.len(),
        "no more dispatches than the script has"
    );

    // Fresh, identically-configured pool; arm the same plan, then attach
    // the tracer (in that order, so sequence numbers line up).
    let (pool, rt, _base) = setup(backend);
    pool.arm_faults(FaultPlan::crash_at(k));
    let tracer = Arc::new(Tracer::new());
    pool.set_tracer(Some(tracer.clone()));
    let report = schedule.replay(&rt);
    assert_eq!(
        report.tripped_at,
        Some(k),
        "replay must trip at the same event"
    );
    assert_eq!(pool.fault_tripped(), Some(k));
    let replayed = tracer.take();

    assert!(
        recorded.diff(&replayed).is_none(),
        "replay diverged from recording: {}",
        recorded.diff(&replayed).unwrap()
    );
}

/// The Chrome export of a real (tripped) trace is non-trivial.
#[test]
fn trace_exports_to_chrome_json() {
    let recorded = traced_crash_at(Backend::clobber(), mid_crash_point());
    let json = recorded.to_chrome_json();
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"transfer\""), "txfunc names are exported");
}

/// Schedules extracted from a trace replay cleanly with no faults armed:
/// the ops run, nothing trips, and the invariant holds.
#[test]
fn schedule_replays_clean_without_faults() {
    let backend = Backend::clobber();
    let trace = traced_script_run(backend);
    let schedule = Schedule::from_trace(&trace).unwrap();
    assert_eq!(schedule.len(), SCRIPT.len());

    let (pool, rt, base) = setup(backend);
    let report = schedule.replay(&rt);
    assert_eq!(report.ops_run, SCRIPT.len());
    assert_eq!(report.aborted, 0);
    assert_eq!(report.tripped_at, None);
    assert_eq!(total(&pool, base), ACCOUNTS * INITIAL);
}

/// Builds the minimization workload: `noise` transfers shuffled around two
/// culprit ops that each move 20 from account 0 to account 1. Only the
/// culprits touch account 1's balance upward past the failure threshold.
fn seeded_failing_schedule(base: PAddr) -> Schedule {
    let op = |f: u64, t: u64, a: u64| clobber_nvm::ScheduleOp {
        slot: 0,
        name: "transfer".to_string(),
        args: ArgList::new()
            .with_u64(base.offset())
            .with_u64(f)
            .with_u64(t)
            .with_u64(a),
    };
    let mut ops = Vec::new();
    for i in 0..16u64 {
        // Noise: small transfers that never involve account 1.
        ops.push(op(2 + (i % 3), 5 + (i % 3), 1 + (i % 7)));
        if i == 4 || i == 11 {
            ops.push(op(0, 1, 20)); // culprit
        }
    }
    Schedule { ops }
}

/// Satellite/tentpole acceptance: ddmin shrinks the seeded failing
/// schedule to <= 25% of its length while preserving the failure — here,
/// "account 1 ends at least 40 over its initial balance", which exactly
/// the two culprit ops cause.
#[test]
fn minimizer_shrinks_failing_schedule() {
    let backend = Backend::clobber();
    // The predicate rebuilds an identical pool per candidate, so the base
    // address is the same in every probe run.
    let (_pool, _rt, base) = setup(backend);
    let schedule = seeded_failing_schedule(base);

    let fails = |candidate: &Schedule| {
        let (pool, rt, base) = setup(backend);
        candidate.replay(&rt);
        pool.read_u64(base.add(8)).unwrap() >= INITIAL + 40
    };
    assert!(fails(&schedule), "seeded schedule must fail to begin with");

    let minimal = minimize_schedule(&schedule, fails);
    assert!(fails(&minimal), "minimized schedule must still fail");
    assert!(
        minimal.len() * 4 <= schedule.len(),
        "ddmin must shrink to <= 25%: {} of {}",
        minimal.len(),
        schedule.len()
    );
    // And in this workload the minimum is exactly the two culprits.
    assert_eq!(minimal.len(), 2);
    for op in &minimal.ops {
        assert_eq!(op.args.u64(1).unwrap(), 0);
        assert_eq!(op.args.u64(2).unwrap(), 1);
    }
}

// ---------------------------------------------------------------------------
// Trace::diff on genuinely divergent runs (ISSUE 8 satellite)
// ---------------------------------------------------------------------------

/// Replays `sched` on a fresh identical pool under a tracer (no faults)
/// and returns the recorded trace.
fn traced_schedule_run(backend: Backend, sched: &Schedule) -> Trace {
    let (pool, rt, _base) = setup(backend);
    let tracer = Arc::new(Tracer::new());
    pool.set_tracer(Some(tracer.clone()));
    let report = sched.replay(&rt);
    assert_eq!(report.aborted, 0);
    pool.set_tracer(None);
    tracer.take()
}

/// Two schedules that share their first dispatch and then transfer
/// different amounts diverge at the *second* dispatch's `TxBegin`: the
/// amount lives in the argument blob, while the stores and ulog appends
/// that follow record offsets and lengths only — identical across the two
/// runs. `diff` must report exactly that index and kind.
#[test]
fn diff_reports_first_divergent_dispatch_exactly() {
    let backend = Backend::clobber();
    let (_pool, _rt, base) = setup(backend);
    let sched = |mid_amount: u64| Schedule {
        ops: vec![
            transfer_op(base, 0, (0, 1, 30)),
            transfer_op(base, 0, (2, 3, mid_amount)),
            transfer_op(base, 0, (4, 5, 20)),
        ],
    };
    let a = traced_schedule_run(backend, &sched(10));
    let b = traced_schedule_run(backend, &sched(11));

    let d = a.diff(&b).expect("different amounts must diverge");
    let second_begin = a
        .events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind == clobber_pmem::EventKind::TxBegin)
        .map(|(i, _)| i)
        .nth(1)
        .expect("three dispatches recorded");
    assert_eq!(d.index, second_begin, "first divergence is dispatch #2");
    assert_eq!(
        d.left.expect("present in both").kind,
        clobber_pmem::EventKind::TxBegin
    );
    assert_eq!(
        d.right.expect("present in both").kind,
        clobber_pmem::EventKind::TxBegin
    );
    // diff is symmetric in where it points, and reflexively clean.
    assert_eq!(b.diff(&a).expect("symmetric").index, d.index);
    assert!(a.diff(&a).is_none());
}

/// A tripped run diverges from the clean run exactly where the injector
/// splices its `FaultTrip`: event `k` itself is recorded before the plan
/// check, so the traces share everything up to and including it, and the
/// divergence index is the tripped trace's final position.
#[test]
fn diff_pinpoints_the_fault_trip_against_the_clean_run() {
    let backend = Backend::clobber();
    let k = mid_crash_point();
    let clean = traced_script_run(backend);
    let tripped = traced_crash_at(backend, k);

    let d = clean.diff(&tripped).expect("tripped run must diverge");
    assert_eq!(
        d.index,
        tripped.events.len() - 1,
        "the shared prefix is everything before the trip"
    );
    let right = d.right.expect("tripped side has the trip");
    assert_eq!(right.kind, clobber_pmem::EventKind::FaultTrip);
    assert_eq!(right.a, k, "the trip names the tripping persist event");
    let left = d.left.expect("the clean run continues past the trip");
    assert_ne!(left.kind, clobber_pmem::EventKind::FaultTrip);
    // And the mirrored diff reports the same index.
    assert_eq!(tripped.diff(&clean).expect("symmetric").index, d.index);
}

// ---------------------------------------------------------------------------
// minimize_schedule edge cases (ISSUE 8 satellite)
// ---------------------------------------------------------------------------

/// Degenerate inputs: an empty failing schedule minimizes to itself, and a
/// single failing op cannot shrink further — ddmin must terminate on both
/// without probing nonsense subsets.
#[test]
fn minimizer_handles_empty_and_single_op_schedules() {
    let empty = Schedule { ops: Vec::new() };
    let min_empty = minimize_schedule(&empty, |_| true);
    assert!(min_empty.is_empty());

    let one = Schedule {
        ops: vec![clobber_nvm::ScheduleOp {
            slot: 0,
            name: "solo".to_string(),
            args: ArgList::new().with_u64(7),
        }],
    };
    let min_one = minimize_schedule(&one, |s| !s.is_empty());
    assert_eq!(min_one.len(), 1);
    assert_eq!(min_one.ops[0].name, "solo");
}

/// The ddmin complement case: 12 ops where the failure needs the ops at
/// original positions 2 and 9 *together*. At granularity 2 each half holds
/// one culprit, so neither subset fails and neither complement (the same
/// halves) shrinks anything; ddmin must raise granularity and reduce via
/// chunk complements before it can isolate the pair. The result is exactly
/// the two culprits, in their original relative order.
#[test]
fn minimizer_isolates_two_non_adjacent_culprits() {
    let op = |i: u64| clobber_nvm::ScheduleOp {
        slot: 0,
        name: format!("op{i}"),
        args: ArgList::new().with_u64(i),
    };
    let sched = Schedule {
        ops: (0..12).map(op).collect(),
    };
    let has = |s: &Schedule, tag: u64| s.ops.iter().any(|o| o.args.u64(0) == Ok(tag));
    let fails = |s: &Schedule| has(s, 2) && has(s, 9);
    assert!(fails(&sched), "the full schedule must fail");

    let minimal = minimize_schedule(&sched, fails);
    assert_eq!(
        minimal
            .ops
            .iter()
            .map(|o| o.name.as_str())
            .collect::<Vec<_>>(),
        vec!["op2", "op9"],
        "exactly the two culprits survive, in order"
    );
}
