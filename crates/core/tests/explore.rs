//! Explorer mechanics on the bank-transfer harness: golden-pinned
//! pruning counts, pruning soundness via outcome hashes, determinism,
//! budget/frontier resume, preemption bounding, and the injected
//! conservation bug.
//!
//! The workload (see `common::explore_setup`) transfers money between
//! eight accounts on two logical slots; transfers never allocate, so the
//! sound conflict policy sees genuinely disjoint footprints and actually
//! prunes — unlike the pds hash-map workload, where every insert touches
//! the allocator.

mod common;

use clobber_nvm::{ExploreOptions, ExploreReport, Explorer, Schedule};
use clobber_trace::ConflictPolicy;
use common::{
    explore_base, explore_buggy_seed, explore_seed, explore_session, transfer_op, ACCOUNTS, INITIAL,
};

fn explore(buggy: bool, seed: Schedule, opts: ExploreOptions) -> ExploreReport {
    Explorer::new(explore_session(buggy), seed, opts)
        .run()
        .expect("exploration baseline")
}

/// Cheap smoke options: a few crash points per candidate is plenty for
/// mechanics tests (the exhaustive stride-1 tiers live in the pds suite).
fn smoke_opts() -> ExploreOptions {
    ExploreOptions::default()
        .with_budget(64)
        .with_crash_stride(11)
        .with_max_crash_points(4)
}

/// A seed whose slot-1 op conflicts with the first slot-0 op (shares
/// account 1) but commutes with the second (accounts 2–3 disjoint from
/// 1 and 4): the tree has both real branches and a pruned one.
fn mixed_seed() -> Schedule {
    let base = explore_base();
    Schedule {
        ops: vec![
            transfer_op(base, 0, (0, 1, 30)),
            transfer_op(base, 0, (2, 3, 45)),
            transfer_op(base, 1, (1, 4, 10)),
        ],
    }
}

#[test]
fn sleep_set_pruning_counts_are_golden() {
    // Disjoint slot-1 op: every reordering commutes, so exactly one
    // interleaving runs and the other two merge orders are pruned.
    let seed = explore_seed(explore_base());
    let report = explore(false, seed, smoke_opts());
    assert!(report.complete);
    assert_eq!(report.schedules_run, 1, "one representative per class");
    assert_eq!(report.schedules_pruned, 2, "two commutative twins pruned");
    assert!(report.failures.is_empty(), "{:?}", report.failures);
}

#[test]
fn pruning_is_sound_every_pruned_order_has_the_same_outcome() {
    // Under no_pruning all three interleavings execute; their clean-run
    // media hashes must all equal the single representative's hash that
    // the sound policy kept — the commutativity fact pruning relies on.
    let seed = explore_seed(explore_base());
    let sound = explore(false, seed.clone(), smoke_opts());
    let full = explore(
        false,
        seed,
        smoke_opts().with_policy(ConflictPolicy::no_pruning()),
    );
    assert_eq!(sound.schedules_run, 1);
    assert_eq!(full.schedules_run, 3);
    assert_eq!(full.schedules_pruned, 0);
    let sound_outcomes: std::collections::BTreeSet<u64> = sound.outcomes.iter().copied().collect();
    let full_outcomes: std::collections::BTreeSet<u64> = full.outcomes.iter().copied().collect();
    assert_eq!(
        sound_outcomes, full_outcomes,
        "pruned interleavings reach no durable state the kept one doesn't"
    );
    assert_eq!(full_outcomes.len(), 1, "all three orders commute");
}

#[test]
fn exploration_is_deterministic_across_reruns() {
    // Same seed + budget, same result.
    let base_report = explore(false, mixed_seed(), smoke_opts());
    assert_eq!(base_report.schedules_run, 2, "mixed seed: two real classes");
    assert_eq!(base_report.schedules_pruned, 1);
    let report = explore(false, mixed_seed(), smoke_opts());
    assert_eq!(report.schedules_run, base_report.schedules_run);
    assert_eq!(report.schedules_pruned, base_report.schedules_pruned);
    assert_eq!(report.crashes_planted, base_report.crashes_planted);
    assert_eq!(report.explored, base_report.explored);
    assert_eq!(report.outcomes, base_report.outcomes);
    assert_eq!(report.failures.len(), base_report.failures.len());
}

#[test]
fn budget_frontier_resume_matches_uninterrupted_run() {
    let opts = smoke_opts().with_policy(ConflictPolicy::no_pruning());
    let full = explore(false, mixed_seed(), opts.clone());
    assert!(full.complete);
    assert_eq!(full.schedules_run, 3);

    // Re-run one candidate at a time, feeding each stop's frontier back.
    let mut explored = Vec::new();
    let mut outcomes = Vec::new();
    let (mut run, mut pruned, mut planted) = (0u64, 0u64, 0u64);
    let mut frontier: Option<Vec<u8>> = None;
    for _ in 0..16 {
        let mut step_opts = opts.clone().with_budget(1);
        if let Some(f) = frontier.take() {
            step_opts = step_opts.resume_after(f);
        }
        let step = explore(false, mixed_seed(), step_opts);
        explored.extend(step.explored);
        outcomes.extend(step.outcomes);
        run += step.schedules_run;
        pruned += step.schedules_pruned;
        planted += step.crashes_planted;
        if step.complete {
            break;
        }
        frontier = Some(step.frontier.expect("stopped runs leave a frontier"));
    }
    assert_eq!(explored, full.explored, "split runs cover the same list");
    assert_eq!(outcomes, full.outcomes);
    assert_eq!(run, full.schedules_run);
    assert_eq!(pruned, full.schedules_pruned, "no prune counted twice");
    assert_eq!(planted, full.crashes_planted);
}

#[test]
fn split_resume_with_pruning_counts_each_prune_once() {
    // Same as above but under the sound policy, where prune events
    // interleave with executions: 2 executed, 1 pruned in total.
    let full = explore(false, mixed_seed(), smoke_opts());
    assert_eq!((full.schedules_run, full.schedules_pruned), (2, 1));
    let step1 = explore(false, mixed_seed(), smoke_opts().with_budget(1));
    assert!(!step1.complete);
    let step2 = explore(
        false,
        mixed_seed(),
        smoke_opts().resume_after(step1.frontier.clone().expect("frontier")),
    );
    assert!(step2.complete);
    let mut explored = step1.explored.clone();
    explored.extend(step2.explored.clone());
    assert_eq!(explored, full.explored);
    assert_eq!(
        step1.schedules_run + step2.schedules_run,
        full.schedules_run
    );
    assert_eq!(
        step1.schedules_pruned + step2.schedules_pruned,
        full.schedules_pruned
    );
    assert_eq!(
        step1.crashes_planted + step2.crashes_planted,
        full.crashes_planted
    );
}

#[test]
fn preemption_bound_zero_keeps_run_to_completion_orders() {
    // Bound 0 forbids switching away from a lane with runnable ops:
    // only the two run-to-completion merges survive; the third order
    // (preempting slot 0 mid-stream) is rejected by the bound.
    let report = explore(
        false,
        mixed_seed(),
        smoke_opts()
            .with_policy(ConflictPolicy::no_pruning())
            .with_preemption_bound(0),
    );
    assert!(report.complete);
    assert_eq!(report.schedules_run, 2);
    assert_eq!(report.schedules_pruned, 1);
    for sched in &report.explored {
        let slots: Vec<usize> = sched.ops.iter().map(|o| o.slot).collect();
        assert!(
            slots == vec![0, 0, 1] || slots == vec![1, 0, 0],
            "bound 0 only allows run-to-completion orders, got {slots:?}"
        );
    }
}

#[test]
fn injected_conservation_bug_is_found_and_minimized() {
    let seed = explore_buggy_seed(explore_base());
    let report = explore(true, seed, smoke_opts());
    assert_eq!(report.failures.len(), 1, "the reordering bug is found");
    let failure = &report.failures[0];
    assert_eq!(failure.crash_at, None, "the clean run already leaks 60");
    assert!(
        failure.reason.contains("conservation"),
        "reason: {}",
        failure.reason
    );
    assert_eq!(
        failure
            .minimized
            .ops
            .iter()
            .map(|o| o.name.as_str())
            .collect::<Vec<_>>(),
        vec!["reserve", "take_if_reserved"],
        "ddmin keeps exactly the two racing ops, in racing order"
    );
    assert!(!report.complete, "stops at the failure cap");
    assert!(report.frontier.is_some());
    // Sanity: the workload's conserved total is what the check pins.
    assert_eq!(ACCOUNTS * INITIAL, 8000);
}
