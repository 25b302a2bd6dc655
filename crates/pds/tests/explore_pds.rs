//! Acceptance tests for the schedule explorer on the pds hash-map
//! workload (ISSUE 8).
//!
//! * Bounded exploration of the 2-thread, 3-op workload enumerates every
//!   non-pruned interleaving (all inserts use the allocator, so under the
//!   sound conflict policy nothing is pruned: 3 merges of the (2,1)
//!   lanes), plants a crash at every strided persist prefix of each, and
//!   finds zero invariant violations.
//! * The exploration is deterministic: identical report counts,
//!   explored-schedule lists, and media outcome hashes on every run.
//! * A seeded known-bad schedule (the injected ordering bug behind the
//!   workload's test-only flag) is found and ddmin-minimized to its two
//!   culprit ops.
//! * The exhaustive stride-1 variant over a 4-op workload runs behind
//!   `--ignored` (CI: `workflow_dispatch` with `full_sweep=true`).

use clobber_nvm::{ArgList, ExploreOptions, ExploreReport, Explorer, Schedule, ScheduleOp};
use clobber_pds::hashmap::TX_INSERT;
use clobber_pds::workload::{value_of, ExploreWorkload, TX_MARK, TX_RACY_INSERT};

fn explore(wl: &ExploreWorkload, seed: Schedule, opts: ExploreOptions) -> ExploreReport {
    Explorer::new(wl.session(), seed, opts)
        .run()
        .expect("exploration baseline")
}

fn smoke_opts() -> ExploreOptions {
    ExploreOptions::default()
        .with_budget(64)
        .with_crash_stride(3)
}

#[test]
fn bounded_exploration_enumerates_every_interleaving_cleanly() {
    let wl = ExploreWorkload::new();
    let report = explore(&wl, wl.seed_schedule(), smoke_opts());
    assert!(report.complete, "budget 64 covers the whole space");
    // (2,1) lanes of all-conflicting inserts: 3 merges, nothing pruned.
    assert_eq!(report.schedules_run, 3);
    assert_eq!(report.schedules_pruned, 0);
    assert_eq!(report.explored.len(), 3);
    let unique: std::collections::BTreeSet<String> = report
        .explored
        .iter()
        .map(|s| format!("{:?}", s.ops.iter().map(|o| o.slot).collect::<Vec<_>>()))
        .collect();
    assert_eq!(unique.len(), 3, "three distinct slot orders");
    assert!(report.crashes_planted > 0, "crash prefixes were explored");
    assert!(
        report.failures.is_empty(),
        "clean workload has no violations: {:?}",
        report.failures
    );
    assert_eq!(report.frontier, None);
}

#[test]
fn exploration_is_identical_across_runs() {
    // Identity needs every candidate and *some* crash points per
    // candidate, not the full sweep depth — cap points to keep the
    // debug-mode tier fast (the stride-1 tier runs behind --ignored).
    let opts = smoke_opts().with_crash_stride(7).with_max_crash_points(8);
    let wl = ExploreWorkload::new();
    let base_report = explore(&wl, wl.seed_schedule(), opts.clone());
    assert!(
        base_report.failures.is_empty(),
        "{:?}",
        base_report.failures
    );
    let report = explore(&wl, wl.seed_schedule(), opts);
    assert_eq!(report.schedules_run, base_report.schedules_run);
    assert_eq!(report.schedules_pruned, base_report.schedules_pruned);
    assert_eq!(report.crashes_planted, base_report.crashes_planted);
    assert_eq!(report.explored, base_report.explored);
    assert_eq!(
        report.outcomes, base_report.outcomes,
        "durable media outcome of every candidate is the same every run"
    );
    assert_eq!(report.complete, base_report.complete);
    assert_eq!(report.failures.len(), base_report.failures.len());
}

#[test]
fn injected_ordering_bug_is_found_and_minimized() {
    let wl = ExploreWorkload::with_bug();
    let report = explore(&wl, wl.buggy_schedule(), smoke_opts());
    assert_eq!(report.failures.len(), 1, "the bug is found");
    let failure = &report.failures[0];
    assert_eq!(
        failure.crash_at, None,
        "the reordering corrupts even the crash-free run"
    );
    assert!(
        failure.reason.contains("key 7"),
        "reason names the corrupted key: {}",
        failure.reason
    );
    // ddmin shrinks the interleaving to exactly the two racing ops, in
    // the order that makes them race.
    assert_eq!(failure.minimized.ops.len(), 2, "{:?}", failure.minimized);
    assert_eq!(failure.minimized.ops[0].name, TX_MARK);
    assert_eq!(failure.minimized.ops[1].name, TX_RACY_INSERT);
    // Stopping at the failure cap leaves a resumable frontier.
    assert!(!report.complete);
    assert!(report.frontier.is_some());
}

/// Exhaustive tier: stride-1 crash planting over a 4-op, 2-thread insert
/// workload (6 interleavings). Run with `--ignored` (CI `full_sweep`).
#[test]
#[ignore = "exhaustive; run with --ignored (CI full_sweep)"]
fn exhaustive_two_thread_exploration_full_stride() {
    let wl = ExploreWorkload::new();
    let (root, _) = wl.layout();
    let insert = |slot: usize, key: u64| ScheduleOp {
        slot,
        name: TX_INSERT.to_string(),
        args: ArgList::new()
            .with_u64(root.offset())
            .with_u64(key)
            .with_bytes(&value_of(key)),
    };
    let seed = Schedule {
        ops: vec![insert(0, 1), insert(0, 2), insert(1, 3), insert(1, 4)],
    };
    let opts = ExploreOptions::default()
        .with_budget(1 << 20)
        .with_crash_stride(1);
    let report = explore(&wl, seed, opts);
    assert!(report.complete);
    assert_eq!(report.schedules_run, 6, "C(4,2) merges of the (2,2) lanes");
    assert_eq!(report.schedules_pruned, 0);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
}
