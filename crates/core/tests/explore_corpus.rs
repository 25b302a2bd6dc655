//! Seed-corpus regression (ISSUE 8 satellite): every checked-in schedule
//! under `tests/corpus/` explores to completion within a fixed budget with
//! zero invariant violations, and its interleaving-space shape (runs vs.
//! prunes) is golden-pinned so conflict-analysis regressions surface as a
//! corpus diff, not a silent coverage loss.
//!
//! Corpus files use the `Schedule` text format with a base-offset sentinel
//! of 0 in `arg0`; [`load`] rewrites it to the freshly built pool's actual
//! account base before exploring.

mod common;

use clobber_nvm::{ArgList, ExploreOptions, Explorer, Schedule};
use clobber_pmem::PAddr;
use common::{explore_base, explore_session};

/// name, text, expected (schedules_run, schedules_pruned). A pruned
/// count is per *branch*, not per leaf: one sleep-set skip removes a whole
/// subtree of interleavings and counts once, so run + pruned equals the
/// merge count only when every pruned subtree is a single leaf.
const CORPUS: &[(&str, &str, (u64, u64))] = &[
    (
        "two_lane_contention.sched",
        include_str!("corpus/two_lane_contention.sched"),
        (6, 0), // every cross-lane pair shares an account: nothing prunes
    ),
    (
        "two_lane_disjoint.sched",
        include_str!("corpus/two_lane_disjoint.sched"),
        (1, 2), // slot 1 commutes with everything: one representative
    ),
    (
        "mixed_conflict.sched",
        include_str!("corpus/mixed_conflict.sched"),
        (2, 1), // conflicts with the first slot-0 op, commutes with the second
    ),
    (
        "no_write_ops.sched",
        include_str!("corpus/no_write_ops.sched"),
        (1, 4), // empty-footprint and disjoint writers all commute; one
                // pruned branch is a two-leaf subtree, counted once
    ),
    (
        "single_lane.sched",
        include_str!("corpus/single_lane.sched"),
        (1, 0), // one lane has exactly one interleaving
    ),
];

/// Parses a corpus entry and rewrites the `arg0` base sentinel to the
/// workload's real account base (all bank-op arguments are u64s).
fn load(text: &str, base: PAddr) -> Schedule {
    let mut sched = Schedule::from_text(text).expect("corpus entry must parse");
    for op in &mut sched.ops {
        assert_eq!(op.args.u64(0), Ok(0), "corpus ops carry the base sentinel");
        let mut args = ArgList::new().with_u64(base.offset());
        for i in 1..op.args.len() {
            args = args.with_u64(op.args.u64(i).expect("bank ops take u64 args"));
        }
        op.args = args;
    }
    sched
}

#[test]
fn corpus_explores_cleanly_within_budget() {
    let base = explore_base();
    for &(name, text, (want_run, want_pruned)) in CORPUS {
        let seed = load(text, base);
        // The text format round-trips every corpus entry exactly.
        assert_eq!(
            Schedule::from_text(&seed.to_text()).expect("round-trip"),
            seed,
            "{name}: to_text/from_text must round-trip"
        );
        let opts = ExploreOptions::default()
            .with_budget(64)
            .with_crash_stride(7)
            .with_max_crash_points(4);
        let explorer = Explorer::new(explore_session(false), seed, opts);
        let report = explorer.run().expect("corpus baseline must replay");
        assert!(report.complete, "{name}: budget 64 must cover the space");
        assert!(
            report.failures.is_empty(),
            "{name}: corpus seeds are violation-free: {:?}",
            report.failures
        );
        assert_eq!(
            (report.schedules_run, report.schedules_pruned),
            (want_run, want_pruned),
            "{name}: interleaving-space shape is pinned"
        );
        assert!(
            report.crashes_planted > 0,
            "{name}: crash prefixes explored"
        );
    }
}
