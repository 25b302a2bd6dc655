//! Golden-trace pins: the recorded event sequence is a pool-wide total
//! order defined by fault-mutex acquisition, so a fixed workload records it
//! bit-identically on every run — and tracing must be invisible (no stats
//! drift) when disabled.

mod common;

use std::sync::Arc;

use clobber_nvm::Backend;
use clobber_pmem::{EventKind, Tracer};
use common::*;

/// The same workload records the same trace on every run.
#[test]
fn golden_trace_is_deterministic() {
    for backend in [
        Backend::clobber(),
        Backend::Undo,
        Backend::Redo,
        Backend::Atlas,
    ] {
        let golden = traced_script_run(backend);
        assert!(
            !golden.events.is_empty(),
            "{}: golden trace must not be empty",
            backend.label()
        );
        let other = traced_script_run(backend);
        assert!(
            golden.diff(&other).is_none(),
            "{}: trace diverged between runs: {}",
            backend.label(),
            golden.diff(&other).unwrap()
        );
    }
}

/// The trace's shape matches the workload: one TxBegin/TxCommit pair per
/// script entry, no aborts, and a persist-event stream underneath.
#[test]
fn golden_trace_shape_matches_script() {
    let trace = traced_script_run(Backend::clobber());
    let counts = trace.kind_counts();
    assert_eq!(counts[EventKind::TxBegin as usize], SCRIPT.len() as u64);
    assert_eq!(counts[EventKind::TxCommit as usize], SCRIPT.len() as u64);
    assert_eq!(counts[EventKind::TxAbort as usize], 0);
    assert_eq!(counts[EventKind::FaultTrip as usize], 0);
    assert!(counts[EventKind::Store as usize] > 0, "stores missing");
    assert!(counts[EventKind::Flush as usize] > 0, "flushes missing");
    assert!(counts[EventKind::Fence as usize] > 0, "fences missing");
    assert!(
        counts[EventKind::VlogAppend as usize] >= SCRIPT.len() as u64,
        "each clobber tx persists a v_log begin record"
    );
    assert_eq!(trace.dropped, 0, "ring must not overflow on the script");
    // Sequence numbers are nondecreasing after the stable (seq, thread) merge.
    for pair in trace.events.windows(2) {
        assert!(pair[0].seq <= pair[1].seq, "merge violated seq order");
    }
}

/// Tracing sequence numbers come from the same counter as fault trip
/// indices: tracing a run armed with `count_only` yields persist events
/// numbered exactly `0..n` where `n` is the disarm count.
#[test]
fn trace_seq_matches_fault_event_count() {
    let backend = Backend::clobber();
    let (pool, rt, base) = setup(backend);
    pool.arm_faults(clobber_pmem::FaultPlan::count_only());
    let tracer = Arc::new(Tracer::new());
    pool.set_tracer(Some(tracer.clone()));
    run_script(&rt, base).unwrap();
    pool.set_tracer(None);
    let n = pool.disarm_faults();
    let trace = tracer.take();
    let persist_seqs: Vec<u64> = trace
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::Store | EventKind::Flush | EventKind::Fence
            )
        })
        .map(|e| e.seq)
        .collect();
    assert_eq!(persist_seqs.len() as u64, n, "one trace event per persist");
    for (i, seq) in persist_seqs.iter().enumerate() {
        assert_eq!(*seq, i as u64, "persist events number densely from 0");
    }
}

/// Satellite 3 (stats half): with no tracer attached the trace counters
/// stay at zero and the full stats snapshot is identical to a run that
/// never heard of tracing — attaching and detaching must not perturb the
/// workload's counters either.
#[test]
fn disabled_tracing_leaves_stats_untouched() {
    let backend = Backend::clobber();

    let (pool, rt, base) = setup(backend);
    run_script(&rt, base).unwrap();
    let baseline = pool.stats().snapshot();
    assert_eq!(baseline.trace_events, 0);
    assert_eq!(baseline.trace_dropped, 0);

    // Same run with an explicit set_tracer(None): bit-identical snapshot.
    let (pool, rt, base) = setup(backend);
    pool.set_tracer(None);
    run_script(&rt, base).unwrap();
    let explicit_off = pool.stats().snapshot();
    assert_eq!(baseline, explicit_off, "set_tracer(None) must be inert");

    // Attach-then-detach before the run: still bit-identical.
    let (pool, rt, base) = setup(backend);
    pool.set_tracer(Some(Arc::new(Tracer::new())));
    pool.set_tracer(None);
    run_script(&rt, base).unwrap();
    let detached = pool.stats().snapshot();
    assert_eq!(
        baseline, detached,
        "a detached tracer must leave no residue"
    );

    // With tracing ON the only drift allowed is the trace counters
    // themselves: the workload's own counters must not move.
    let (pool, rt, base) = setup(backend);
    pool.set_tracer(Some(Arc::new(Tracer::new())));
    run_script(&rt, base).unwrap();
    pool.set_tracer(None);
    let mut traced = pool.stats().snapshot();
    assert!(traced.trace_events > 0, "tracing must count its events");
    assert_eq!(traced.trace_dropped, 0);
    traced.trace_events = 0;
    traced.trace_dropped = 0;
    assert_eq!(
        baseline, traced,
        "tracing must not perturb non-trace counters"
    );
}
