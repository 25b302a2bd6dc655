//! Two smoke runs with one seed must agree bit-for-bit on everything the
//! simulated clock and the counters produce.

use clobber_benchmark::unit::{run_unit, UnitArgs};
use clobber_benchmark::workloads::Workload;

/// The metrics that must repeat exactly (the host-clock ones may not).
const EXACT: [&str; 5] = [
    "sim_ops_per_s",
    "sim_p50_ns",
    "sim_p99_ns",
    "fences_per_op",
    "log_bytes_per_op",
];

fn smoke(workload: Workload, seed: u64) -> (Vec<(String, u64)>, u64, u64, bool) {
    let r = run_unit(&UnitArgs {
        workload,
        seed,
        seconds: 0.0,
        trace: false,
        smoke: true,
    });
    let exact = r
        .metrics
        .iter()
        .filter(|m| EXACT.contains(&m.name))
        .map(|m| (m.name.to_string(), m.value.to_bits()))
        .collect();
    (exact, r.attempted, r.failed, r.correct)
}

#[test]
fn two_smoke_runs_with_one_seed_are_bit_identical() {
    for w in Workload::ALL {
        let a = smoke(w, 7);
        let b = smoke(w, 7);
        assert_eq!(a.0.len(), EXACT.len(), "{}", w.name());
        assert_eq!(a, b, "{}: simulated clock or counts differ", w.name());
        assert!(a.3, "{}: output checks failed", w.name());
        assert_eq!(a.2, 0, "{}: failed_ops_share must be 0", w.name());
        assert!(a.1 > 0);
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    for w in Workload::ALL {
        assert_ne!(
            smoke(w, 7).0,
            smoke(w, 8).0,
            "{}: the inputs must depend on the seed",
            w.name()
        );
    }
}
