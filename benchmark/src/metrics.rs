//! The metric tables (names, units, directions, bounds — mirrored in
//! `BENCHMARK.json`) and the arithmetic from measured rounds to metrics.
//!
//! Clocks: `sim_*`, every `*_per_op` count and `sim.cost.*` are on the DES
//! cost-model clock (exact, repeat bit-for-bit for one seed). `wall_*`,
//! `setup_s`, `host.*` and every `*_ns` / `*_us` metric are on the host
//! clock and count server-side time only.

use std::collections::BTreeMap;

use clobber_pmem::StatsSnapshot;
use clobber_sim::CostModel;

use crate::probes::Probes;
use crate::spans;
use crate::stats::{median, spread};
use crate::workloads::{RoundOut, Workload};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word used in `BENCHMARK.json`.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The host: what the Rust code itself costs on this machine (noisy).
    Host,
    /// The DES cost model over counted events (exact for one seed).
    Sim,
}

impl Clock {
    /// `host` / `sim`.
    pub fn word(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

use Clock::{Host, Sim};

/// One end-to-end metric: reported by every workload, gated by `bound`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen between single
    /// runs of different seeds (the `bound` of `BENCHMARK.json`): at least
    /// three times the widest spread seen between such runs.
    pub bound: f64,
    /// The same between two suites of one seed (`compare`), whose values are
    /// medians of nine interleaved children: the issue's bounds. On the
    /// simulated clock one seed repeats exactly, so nothing is allowed.
    pub suite_bound: f64,
    /// Clock.
    pub clock: Clock,
}

/// The end-to-end metrics, in reporting order.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25, suite_bound: 0.10, clock: Host },
    EndToEnd { name: "wall_ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.25, suite_bound: 0.10, clock: Host },
    EndToEnd { name: "sim_ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.03, suite_bound: 0.0, clock: Sim },
    EndToEnd { name: "sim_p50_ns", unit: "ns", better: Better::Lower, bound: 0.03, suite_bound: 0.0, clock: Sim },
    EndToEnd { name: "sim_p99_ns", unit: "ns", better: Better::Lower, bound: 0.03, suite_bound: 0.0, clock: Sim },
    EndToEnd { name: "fences_per_op", unit: "count", better: Better::Lower, bound: 0.04, suite_bound: 0.0, clock: Sim },
    EndToEnd { name: "log_bytes_per_op", unit: "bytes", better: Better::Lower, bound: 0.03, suite_bound: 0.0, clock: Sim },
    EndToEnd { name: "host_allocs_per_op", unit: "count", better: Better::Lower, bound: 0.01, suite_bound: 0.01, clock: Host },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Better::Lower, bound: 0.10, suite_bound: 0.10, clock: Host },
];

/// One per-layer metric: a diagnostic, no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `module.metric` name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Clock.
    pub clock: Clock,
}

const fn lo(clock: Clock, name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        clock,
    }
}

const fn hi(clock: Clock, name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        clock,
    }
}

/// The per-layer metrics, grouped by module. A metric a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: [PerLayer; 71] = [
    lo(Host, "kvnet.proto.decode_ns_per_req", "ns"),
    lo(Host, "kvnet.proto.encode_ns_per_resp", "ns"),
    lo(Host, "kvnet.admission.ns_per_req", "ns"),
    lo(Sim, "kvnet.admission.shed_per_req", "count"),
    lo(Host, "kvnet.service.batch_ns_per_req", "ns"),
    lo(Host, "kvnet.service.self_ns_per_req", "ns"),
    hi(Sim, "kvnet.service.batch_size_mean", "count"),
    lo(Sim, "kvnet.service.snapshot_reads_per_req", "count"),
    lo(Sim, "kvnet.transport.cost_model_ns_per_batch", "ns"),
    lo(Host, "host.service_p50_us", "us"),
    lo(Host, "host.service_p99_us", "us"),
    lo(Host, "pds.hashmap.insert_batch_ns_per_set", "ns"),
    lo(Host, "pds.hashmap.snapshot_get_ns", "ns"),
    lo(Host, "pds.bptree.insert_ns", "ns"),
    lo(Host, "pds.hashmap.insert_ns", "ns"),
    lo(Host, "pds.skiplist.insert_ns", "ns"),
    lo(Host, "pds.rbtree.insert_ns", "ns"),
    lo(Sim, "pds.bptree.sim_ns_per_op", "ns"),
    lo(Sim, "pds.hashmap.sim_ns_per_op", "ns"),
    lo(Sim, "pds.skiplist.sim_ns_per_op", "ns"),
    lo(Sim, "pds.rbtree.sim_ns_per_op", "ns"),
    lo(Host, "core.lock.acquire_release_ns_per_set", "ns"),
    lo(Sim, "core.lock.acquisitions_per_op", "count"),
    lo(Sim, "core.lock.waits_per_op", "count"),
    lo(Host, "core.runtime.empty_tx_ns", "ns"),
    lo(Sim, "core.vlog.bytes_per_op", "bytes"),
    lo(Sim, "core.vlog.flushes_per_op", "count"),
    lo(Sim, "core.vlog.fences_per_op", "count"),
    lo(Sim, "core.group_commit.epochs_per_op", "count"),
    hi(Sim, "core.group_commit.fences_saved_per_op", "count"),
    lo(Host, "core.group_commit.fence_ns", "ns"),
    hi(Sim, "core.backend.sim_speedup_vs_undo", "ratio"),
    lo(Sim, "core.backend.log_bytes_ratio_vs_undo", "ratio"),
    lo(Host, "core.recovery.recover_ns", "ns"),
    lo(Host, "core.recovery.runtime_open_ns", "ns"),
    lo(Sim, "core.recovery.reexecuted_per_restart", "count"),
    lo(Sim, "core.recovery.slots_scanned_per_restart", "count"),
    lo(Host, "pmem.pool.open_ns", "ns"),
    lo(Host, "pmem.pool.crash_ns", "ns"),
    lo(Sim, "pmem.ulog.entries_per_op", "count"),
    lo(Sim, "pmem.ulog.bytes_per_op", "bytes"),
    lo(Sim, "pmem.ulog.flushes_per_op", "count"),
    lo(Sim, "pmem.ulog.fences_per_op", "count"),
    lo(Host, "pmem.ulog.append_ns", "ns"),
    lo(Sim, "pmem.alloc.reserves_per_op", "count"),
    lo(Sim, "pmem.alloc.frees_per_op", "count"),
    hi(Sim, "pmem.alloc.magazine_hit_share", "ratio"),
    lo(Host, "pmem.alloc.reserve_publish_ns", "ns"),
    lo(Sim, "pmem.alloc.heap_check_failures", "count"),
    lo(Sim, "pmem.pool.writes_per_op", "count"),
    lo(Sim, "pmem.pool.write_bytes_per_op", "bytes"),
    lo(Sim, "pmem.pool.reads_per_op", "count"),
    lo(Sim, "pmem.pool.read_bytes_per_op", "bytes"),
    lo(Sim, "pmem.pool.flushes_per_op", "count"),
    lo(Host, "pmem.pool.store_flush_ns", "ns"),
    lo(Host, "pmem.pool.fence_ns", "ns"),
    lo(Host, "pmem.cache.store_flush_ns", "ns"),
    lo(Host, "pmem.cache.armed_serve_ns_per_req", "ns"),
    lo(Sim, "sim.cost.share_fence", "ratio"),
    lo(Sim, "sim.cost.share_flush", "ratio"),
    lo(Sim, "sim.cost.share_log", "ratio"),
    lo(Sim, "sim.cost.share_write", "ratio"),
    lo(Sim, "sim.cost.share_read", "ratio"),
    lo(Sim, "sim.cost.share_alloc", "ratio"),
    lo(Sim, "sim.cost.share_base", "ratio"),
    lo(Host, "host.alloc_bytes_per_op", "bytes"),
    lo(Host, "host.client_share", "ratio"),
    lo(Host, "host.round_spread", "ratio"),
    lo(Host, "host.trace_overhead_share", "ratio"),
    lo(Host, "host.budget_unattributed_share", "ratio"),
    lo(Host, "host.failed_ops_share", "ratio"),
];

macro_rules! events {
    ($($field:ident),* $(,)?) => {
        /// The persistence and service counters the benchmark reports,
        /// copied out of a `StatsSnapshot` delta so rounds can be summed.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Events {
            $(
                #[doc = concat!("`StatsSnapshot::", stringify!($field), "`.")]
                pub $field: u64,
            )*
        }

        impl Events {
            /// Copies the reported counters out of `s`.
            pub fn of(s: &StatsSnapshot) -> Events {
                Events { $($field: s.$field,)* }
            }

            /// Adds `other` field-wise.
            pub fn add(&mut self, other: &Events) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

events!(
    flushes,
    fences,
    writes,
    write_bytes,
    reads,
    read_bytes,
    allocs,
    frees,
    reserves,
    magazine_hits,
    log_entries,
    log_bytes,
    vlog_entries,
    vlog_bytes,
    interposed_reads,
    clog_flushes,
    clog_fences,
    vlog_flushes,
    vlog_fences,
    gc_epochs,
    gc_fences_saved,
    rec_slots_scanned,
    rec_reexecuted,
    lock_acquisitions,
    lock_waits,
    net_accepted,
    net_shed,
    net_batched,
    net_snapshot_reads,
);

/// The cost model's terms for `events` priced `calls` times, in the order
/// fence, flush, log, write, read, alloc, base. Their sum is the simulated
/// time (before `op_cost`'s per-call truncation to whole ns).
pub fn cost_terms(cost: &CostModel, e: &Events, calls: u64) -> [f64; 7] {
    [
        e.fences as f64 * cost.fence_ns,
        e.flushes as f64 * cost.flush_ns,
        (e.log_entries + e.vlog_entries) as f64 * cost.log_entry_ns
            + (e.log_bytes + e.vlog_bytes) as f64 * cost.log_byte_ns,
        e.writes as f64 * cost.write_ns + e.write_bytes as f64 * cost.write_byte_ns,
        e.reads as f64 * cost.read_ns
            + e.read_bytes as f64 * cost.read_byte_ns
            + e.interposed_reads as f64 * cost.interposed_read_ns,
        e.allocs as f64 * cost.alloc_ns + e.frees as f64 * cost.free_ns,
        calls as f64 * cost.base_op_ns,
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Server-side host throughput of one round.
pub fn wall_ops_per_s(r: &RoundOut) -> f64 {
    ratio(r.ops as f64 * 1e9, r.server_ns as f64)
}

/// `wall_ops_per_s` of a run: the rate of its **fastest round**. The rounds
/// of a run do identical work, and the commonest disturbance on this shared
/// box slows some rounds of a run down (phases of 1–5 s), so the fastest of
/// ~12–30 rounds is the steadiest estimate tried: across ten runs in a
/// disturbed quarter of an hour its quartiles were 6–11 % of the median
/// apart where those of the per-run median were 6–19 % (README, "Run
/// shape", which also has the estimators that did no better).
pub fn best_wall_ops_per_s(rounds: &[RoundOut]) -> f64 {
    rounds.iter().map(wall_ops_per_s).fold(0.0, f64::max)
}

/// The end-to-end metrics of one run, in [`END_TO_END`] order. `rounds` are
/// the measured (untraced) rounds of one seed: host-clock values are the
/// median over them (`wall_ops_per_s`: the fastest round, see
/// [`best_wall_ops_per_s`]), simulated-clock values and counts are exact and
/// equal in every round, so the first round's are reported.
pub fn end_to_end(rounds: &[RoundOut]) -> Vec<f64> {
    let first = &rounds[0];
    let ops = first.ops as f64;
    let over = |f: &dyn Fn(&RoundOut) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    vec![
        over(&|r| r.setup_ns as f64 / 1e9),
        best_wall_ops_per_s(rounds),
        ratio(ops * 1e9, first.sim_ns as f64),
        first.sim_p50_ns as f64,
        first.sim_p99_ns as f64,
        ratio(first.delta.fences as f64, ops),
        ratio((first.delta.log_bytes + first.delta.vlog_bytes) as f64, ops),
        over(&|r| ratio(r.allocs as f64, r.ops as f64)),
        over(&|r| r.rss_mib),
    ]
}

/// Span names whose time the probes decompose (the transaction bodies);
/// every other server-side span is attributed by its own self time.
const BODY_SPANS: [&str; 5] = [
    "kvnet.service.process_batch_on",
    "pds.bptree.insert_on",
    "pds.hashmap.insert_on",
    "pds.skiplist.insert_on",
    "pds.rbtree.insert_on",
];

/// Everything the traced run adds to the untraced rounds.
#[derive(Debug, Default)]
pub struct Traced {
    /// The traced rounds (spans on), their spans moved out.
    pub rounds: Vec<RoundOut>,
    /// Count, total and self time per span name, summed over the rounds.
    pub span_totals: BTreeMap<&'static str, spans::NameTotal>,
    /// The first traced round's spans, for the trace file.
    pub first_spans: Vec<spans::Span>,
    /// Probe results.
    pub probes: Probes,
    /// `ds_load` only: the same stream on `Backend::Undo`.
    pub undo: Option<RoundOut>,
}

/// The per-layer metrics of one run, in [`PER_LAYER`] order.
pub fn per_layer(w: Workload, rounds: &[RoundOut], traced: &Traced) -> Vec<f64> {
    let first = &rounds[0];
    let e = &first.delta;
    let ops = first.ops as f64;
    let per_op = |n: u64| ratio(n as f64, ops);
    let p = &traced.probes;
    let crash = w == Workload::KvCrashRecover;

    // Span totals over all traced rounds, per op of those rounds.
    let totals = &traced.span_totals;
    let traced_ops: u64 = traced.rounds.iter().map(|r| r.ops).sum();
    let span_total = |name: &str| {
        ratio(
            totals.get(name).map_or(0, |t| t.total_ns) as f64,
            traced_ops as f64,
        )
    };
    let span_self = |name: &str| {
        ratio(
            totals.get(name).map_or(0, |t| t.self_ns) as f64,
            traced_ops as f64,
        )
    };

    // Tracing overhead and the budget row compare like with like: medians
    // of rounds on both sides (the fastest of many untraced rounds against
    // three traced ones would overstate both).
    let median_wall = |rs: &[RoundOut]| median(&rs.iter().map(wall_ops_per_s).collect::<Vec<_>>());
    let trace_overhead = 1.0 - ratio(median_wall(&traced.rounds), median_wall(rounds));
    let untraced_ns_per_op = ratio(1e9, median_wall(rounds));

    // The budget row: span self times outside the transaction bodies, plus
    // events/op priced at the probes' ns/event. What is left of the
    // untraced ns/op is the tx body, clobber detection and argument
    // marshalling, which have no outside entry point.
    let by_spans: f64 = totals
        .iter()
        .filter(|(name, _)| !name.starts_with("client.") && !BODY_SPANS.contains(name))
        .map(|(_, t)| t.self_ns as f64)
        .sum::<f64>()
        / (traced_ops.max(1)) as f64;
    // The probes price the events of the transaction bodies only: on
    // `kv_crash_recover` those of the armed serving — the restart's events
    // happen inside the restart spans, whose self time `by_spans` holds.
    let b = if crash { &first.armed_delta } else { e };
    // One transaction per insert; in the service, one per lock-set grant.
    let txs = if w == Workload::DsLoad {
        first.ops
    } else {
        b.lock_acquisitions
    };
    let data_flushes = b.flushes.saturating_sub(b.clog_flushes + b.vlog_flushes);
    let by_probes = per_op(txs) * p.empty_tx_ns
        + per_op(b.net_batched) * p.lock_acquire_release_ns_per_set
        + per_op(b.log_entries) * p.ulog_append_ns
        + per_op(b.reserves) * p.alloc_reserve_publish_ns
        + per_op(b.net_snapshot_reads) * p.snapshot_get_ns
        + per_op(data_flushes)
            * if crash {
                p.cache_store_flush_ns
            } else {
                p.pool_store_flush_ns
            };
    let attributed = by_spans + by_probes;

    let terms = cost_terms(&CostModel::optane(), e, first.priced_calls);
    let terms_sum: f64 = terms.iter().sum();

    let ds = |i: usize, f: &dyn Fn(&crate::workloads::DsOut) -> u64| {
        let host: Vec<f64> = rounds
            .iter()
            .map(|r| ratio(f(&r.per_ds[i]) as f64, r.per_ds[i].ops as f64))
            .collect();
        median(&host)
    };

    let service_us = |f: &dyn Fn(&RoundOut) -> u64| {
        median(&rounds.iter().map(|r| f(r) as f64 / 1e3).collect::<Vec<_>>())
    };
    let attempted: u64 = rounds.iter().map(|r| r.ops).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let over = |f: &dyn Fn(&RoundOut) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());

    let (speedup_vs_undo, log_ratio_vs_undo) = match &traced.undo {
        Some(u) => (
            ratio(u.sim_ns as f64, first.sim_ns as f64),
            ratio(
                (e.log_bytes + e.vlog_bytes) as f64,
                (u.delta.log_bytes + u.delta.vlog_bytes) as f64,
            ),
        ),
        None => (0.0, 0.0),
    };

    vec![
        // kvnet
        span_total("kvnet.proto.decode"),
        span_total("kvnet.proto.encode"),
        span_self("kvnet.admission.try_admit") + span_self("kvnet.admission.complete"),
        per_op(e.net_shed),
        span_total("kvnet.service.process_batch_on"),
        p.service_self_ns_per_req,
        ratio(
            (e.net_batched + e.net_snapshot_reads) as f64,
            first.batches as f64,
        ),
        per_op(e.net_snapshot_reads),
        ratio(first.batch_cost_ns as f64, first.batches as f64),
        service_us(&|r| r.service_p50_ns),
        service_us(&|r| r.service_p99_ns),
        // pds (`per_ds` is in figure order: bptree, hashmap, skiplist, rbtree)
        p.insert_batch_ns_per_set,
        p.snapshot_get_ns,
        ds(0, &|d| d.host_ns),
        ds(1, &|d| d.host_ns),
        ds(2, &|d| d.host_ns),
        ds(3, &|d| d.host_ns),
        ds(0, &|d| d.sim_ns),
        ds(1, &|d| d.sim_ns),
        ds(2, &|d| d.sim_ns),
        ds(3, &|d| d.sim_ns),
        // core.lock
        p.lock_acquire_release_ns_per_set,
        per_op(e.lock_acquisitions),
        per_op(e.lock_waits),
        // core.runtime / vlog / group_commit
        p.empty_tx_ns,
        per_op(e.vlog_bytes),
        per_op(e.vlog_flushes),
        per_op(e.vlog_fences),
        per_op(e.gc_epochs),
        per_op(e.gc_fences_saved),
        p.group_commit_fence_ns,
        // core.backend
        speedup_vs_undo,
        log_ratio_vs_undo,
        // core.recovery, pool open/crash
        span_total("core.recovery.recover_with"),
        span_total("core.runtime.open"),
        per_op(e.rec_reexecuted),
        per_op(e.rec_slots_scanned),
        span_total("pmem.pool.open_from_media"),
        over(&|r| ratio(r.crash_ns as f64, r.ops as f64)),
        // pmem.ulog
        per_op(e.log_entries),
        per_op(e.log_bytes),
        per_op(e.clog_flushes),
        per_op(e.clog_fences),
        p.ulog_append_ns,
        // pmem.alloc
        per_op(e.reserves),
        per_op(e.frees),
        ratio(e.magazine_hits as f64, e.reserves as f64),
        p.alloc_reserve_publish_ns,
        rounds.iter().map(|r| r.heap_check_failures).sum::<u64>() as f64,
        // pmem.pool / pmem.cache
        per_op(e.writes),
        per_op(e.write_bytes),
        per_op(e.reads),
        per_op(e.read_bytes),
        per_op(e.flushes),
        p.pool_store_flush_ns,
        p.pool_fence_ns,
        p.cache_store_flush_ns,
        over(&|r| ratio(r.armed_serve_ns as f64, r.armed_reqs as f64)),
        // sim.cost
        ratio(terms[0], terms_sum),
        ratio(terms[1], terms_sum),
        ratio(terms[2], terms_sum),
        ratio(terms[3], terms_sum),
        ratio(terms[4], terms_sum),
        ratio(terms[5], terms_sum),
        ratio(terms[6], terms_sum),
        // host
        over(&|r| ratio(r.alloc_bytes as f64, r.ops as f64)),
        over(&|r| ratio(r.client_ns as f64, (r.client_ns + r.server_ns) as f64)),
        spread(&rounds.iter().map(wall_ops_per_s).collect::<Vec<_>>()),
        trace_overhead,
        1.0 - ratio(attributed, untraced_ns_per_op),
        ratio(failed as f64, attempted as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used once");
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn cost_terms_sum_to_the_models_price() {
        let e = Events {
            fences: 3,
            flushes: 5,
            log_entries: 2,
            log_bytes: 64,
            vlog_entries: 1,
            vlog_bytes: 100,
            writes: 7,
            write_bytes: 300,
            reads: 11,
            read_bytes: 500,
            allocs: 2,
            frees: 1,
            ..Events::default()
        };
        let snapshot = StatsSnapshot {
            fences: 3,
            flushes: 5,
            log_entries: 2,
            log_bytes: 64,
            vlog_entries: 1,
            vlog_bytes: 100,
            writes: 7,
            write_bytes: 300,
            reads: 11,
            read_bytes: 500,
            allocs: 2,
            frees: 1,
            ..StatsSnapshot::default()
        };
        let cost = CostModel::optane();
        let sum: f64 = cost_terms(&cost, &e, 1).iter().sum();
        assert_eq!(sum as u64, cost.op_cost(&snapshot));
        assert_eq!(Events::of(&snapshot), e);
    }
}
