//! Determinism contract for the explorer itself: any schedule the
//! explorer emits, replayed twice on identically built fresh pools,
//! produces bit-identical persist-event traces and bit-identical
//! `StatsSnapshot`s. This is the property every other explorer guarantee
//! (rerun-invariant outcome hashes, resumable counters, reproducible
//! failures) bottoms out in.

mod common;

use std::sync::Arc;

use clobber_nvm::{ExploreOptions, Explorer, Schedule};
use clobber_pmem::{StatsSnapshot, Trace, Tracer};
use clobber_trace::ConflictPolicy;
use common::{explore_base, explore_session, explore_setup, transfer_op};
use proptest::prelude::*;

/// Replays `sched` on a fresh, identically prepared pool under a tracer
/// and returns the trace plus the pool's counter snapshot.
fn traced_replay(sched: &Schedule) -> (Trace, StatsSnapshot) {
    let (pool, rt, _base) = explore_setup(false);
    let max_slot = sched.ops.iter().map(|op| op.slot).max().unwrap_or(0);
    rt.slot_handle(max_slot).expect("pre-create slots");
    let tracer = Arc::new(Tracer::new());
    pool.set_tracer(Some(tracer.clone()));
    let _ = sched.replay(&rt);
    pool.set_tracer(None);
    (tracer.take(), pool.stats().snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn explored_schedules_replay_bit_identically(
        script in proptest::collection::vec(
            (0usize..2, 0u64..8, 0u64..8, 1u64..50), 1..5),
    ) {
        let base = explore_base();
        let seed_schedule = Schedule {
            ops: script
                .iter()
                .map(|&(slot, f, t, a)| transfer_op(base, slot, (f, t, a)))
                .collect(),
        };
        // Clean runs only (no crash planting): the property under test is
        // replay determinism, and budget 8 keeps each case cheap.
        let opts = ExploreOptions::default()
            .with_budget(8)
            .with_max_crash_points(0)
            .with_policy(ConflictPolicy::no_pruning());
        let explorer = Explorer::new(
            explore_session(false),
            seed_schedule,
            opts,
        );
        let report = explorer.run().expect("baseline");
        prop_assert!(!report.explored.is_empty());
        for sched in report.explored.iter().take(3) {
            let (trace_a, snap_a) = traced_replay(sched);
            let (trace_b, snap_b) = traced_replay(sched);
            prop_assert_eq!(
                trace_a.diff(&trace_b), None,
                "same explored schedule, same fresh pool, different trace"
            );
            prop_assert_eq!(&trace_a, &trace_b);
            prop_assert_eq!(snap_a, snap_b);
        }
    }
}
