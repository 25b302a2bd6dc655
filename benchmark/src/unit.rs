//! One measured run of one workload: what the command line
//! `--workload W --seed N --seconds S --trace 0|1` executes.
//!
//! Untraced (`--trace 0`): one warm-up round (discarded), then measured
//! rounds of the same seed until `seconds` have passed (at least
//! [`MIN_ROUNDS`]). Host-clock metrics are the median over the measured
//! rounds; simulated-clock metrics and counts must be identical in every
//! round — a difference is reported as incorrect output.
//!
//! Traced (`--trace 1`): a third of the time on untraced rounds (counts and
//! the untraced rate), three rounds with spans on, then the probes.

use std::time::Instant;

use clobber_nvm::Backend;
use clobber_pmem::PoolOptions;
use clobber_workloads::Mix;

use crate::json::Json;
use crate::metrics::{self, Traced, END_TO_END, PER_LAYER};
use crate::probes::{self, Probes, ServeShape};
use crate::spans;
use crate::workloads::{ds_load, RoundOut, Workload};

/// Fewest measured rounds behind a median (2 with `--smoke`).
pub const MIN_ROUNDS: usize = 3;
/// Rounds with spans on in a traced run.
pub const TRACED_ROUNDS: usize = 3;
/// Most spans written to a Chrome trace file (aggregates use all of them).
pub const TRACE_FILE_SPANS: usize = 40_000;

/// Command-line arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct UnitArgs {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Tiny op counts, for tests and `run --smoke`.
    pub smoke: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from the metric tables.
    pub name: &'static str,
    /// Unit from the metric tables.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct UnitResult {
    /// Every output check passed and the simulated clock repeated exactly.
    pub correct: bool,
    /// Ops attempted in the measured rounds.
    pub attempted: u64,
    /// Ops that failed in the measured rounds.
    pub failed: u64,
    /// The end-to-end metrics (untraced) or the per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable remarks: round count, sample counts, first failure.
    pub notes: Vec<String>,
}

impl UnitResult {
    /// The one-line JSON object the run prints last.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().fold(Json::obj(), |obj, m| {
            obj.with(
                m.name,
                Json::obj().with("value", m.value).with("unit", m.unit),
            )
        });
        Json::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
    }
}

/// Resident set of this process right now (`VmRSS`), in MiB; 0 where
/// `/proc` is unavailable.
pub fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Measured rounds of one seed until `seconds` have passed.
fn measured_rounds(args: &UnitArgs, seconds: f64, min_rounds: usize) -> Vec<RoundOut> {
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || started.elapsed().as_secs_f64() < seconds {
        rounds.push(args.workload.run_round(args.seed, args.smoke, false));
    }
    rounds
}

/// Checks common to both kinds of run; returns `(correct, attempted,
/// failed)` and appends remarks.
fn verdict(rounds: &[RoundOut], notes: &mut Vec<String>) -> (bool, u64, u64) {
    let attempted = rounds.iter().map(|r| r.ops).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let repeats = rounds
        .iter()
        .all(|r| r.deterministic_part() == rounds[0].deterministic_part());
    if !repeats {
        notes.push("simulated clock or counts differ between rounds of one seed".into());
    }
    if let Some(why) = rounds.iter().find_map(|r| r.first_failure.as_deref()) {
        notes.push(format!("first failure: {why}"));
    }
    if let Some(why) = rounds.iter().find_map(|r| r.heap_error.as_deref()) {
        notes.push(format!("check_heap: {why}"));
    }
    (failed == 0 && repeats, attempted, failed)
}

/// The probes `w` runs, shaped by what `first` observed.
fn run_probes(w: Workload, first: &RoundOut, smoke: bool) -> Probes {
    let scale = if smoke { 20 } else { 1 };
    let mut p = Probes {
        empty_tx_ns: probes::empty_tx(20_000 / scale),
        ulog_append_ns: probes::ulog_append(50_000 / scale),
        alloc_reserve_publish_ns: probes::alloc_reserve_publish(50_000 / scale),
        group_commit_fence_ns: probes::group_commit_fence(100_000 / scale),
        pool_store_flush_ns: probes::store_flush(
            PoolOptions::performance(4 << 20),
            100_000 / scale,
        ),
        pool_fence_ns: probes::pool_fence(100_000 / scale),
        ..Probes::default()
    };
    match w {
        Workload::KvWriteBatched | Workload::KvReadHeavy => {
            let requests = first.delta.net_batched + first.delta.net_snapshot_reads;
            let batch = (requests as f64 / first.batches.max(1) as f64).round() as usize;
            let shape = ServeShape {
                mix: if w == Workload::KvWriteBatched {
                    Mix::InsertIntensive
                } else {
                    Mix::SearchIntensive
                },
                batch: batch.clamp(1, 16),
            };
            probes::table_probes(shape, 600 / scale as usize, &mut p);
        }
        Workload::DsLoad => {}
        Workload::KvCrashRecover => {
            p.cache_store_flush_ns =
                probes::store_flush(PoolOptions::crash_sim(4 << 20), 50_000 / scale);
        }
    }
    p
}

/// Runs one unit. A traced run also writes
/// `<benchmark dir>/out/trace_<workload>.json`.
pub fn run_unit(args: &UnitArgs) -> UnitResult {
    let w = args.workload;
    let mut notes = Vec::new();

    // Warm-up: page in the binary, the allocator's arenas and the CPU's
    // caches; its numbers are discarded.
    let warm = w.run_round(args.seed, args.smoke, false);

    if !args.trace {
        let min_rounds = if args.smoke { 2 } else { MIN_ROUNDS };
        let rounds = measured_rounds(args, args.seconds, min_rounds);
        let (mut correct, attempted, failed) = verdict(&rounds, &mut notes);
        if warm.deterministic_part() != rounds[0].deterministic_part() {
            correct = false;
            notes.push("warm-up round differs from the measured rounds".into());
        }
        let values = metrics::end_to_end(&rounds);
        notes.push(format!(
            "{} measured rounds of {} {}s; sim_p50_ns/sim_p99_ns over {} samples per round",
            rounds.len(),
            rounds[0].ops,
            w.op(),
            rounds[0].sim_samples
        ));
        let walls: Vec<f64> = rounds.iter().map(metrics::wall_ops_per_s).collect();
        notes.push(format!(
            "wall_ops_per_s per round: {}",
            walls
                .iter()
                .map(|v| format!("{v:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        return UnitResult {
            correct,
            attempted,
            failed,
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(m, value)| Metric {
                    name: m.name,
                    unit: m.unit,
                    value,
                })
                .collect(),
            notes,
        };
    }

    let rounds = measured_rounds(args, args.seconds / 3.0, 2);
    let mut traced = Traced::default();
    for i in 0..TRACED_ROUNDS {
        let mut round = w.run_round(args.seed, args.smoke, true);
        // Keep the totals of every round but the spans of the first only:
        // a read-heavy round records 660 K of them.
        let spans = std::mem::take(&mut round.spans);
        spans::add_totals(&mut traced.span_totals, &spans);
        if i == 0 {
            traced.first_spans = spans;
        }
        traced.rounds.push(round);
    }
    if w == Workload::DsLoad {
        traced.undo = Some(ds_load::run_round(
            w.round_ops(args.smoke) / 4,
            w.pool_bytes(args.smoke),
            args.seed,
            false,
            Backend::Undo,
        ));
    }
    traced.probes = run_probes(w, &rounds[0], args.smoke);

    let (mut correct, attempted, failed) = verdict(&rounds, &mut notes);
    // Spans must not change what the program does.
    for r in &traced.rounds {
        if r.deterministic_part() != rounds[0].deterministic_part() {
            correct = false;
            notes.push("a traced round differs from the untraced rounds".into());
        }
    }
    let trace_path = format!("{}/out/trace_{}.json", env!("CARGO_MANIFEST_DIR"), w.name());
    let written =
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/out")).and_then(|()| {
            std::fs::write(
                &trace_path,
                spans::chrome_trace(&traced.first_spans, TRACE_FILE_SPANS),
            )
        });
    match written {
        Ok(()) => notes.push(format!(
            "trace: {trace_path} ({} of {} spans)",
            TRACE_FILE_SPANS.min(traced.first_spans.len()),
            traced.first_spans.len()
        )),
        Err(e) => {
            correct = false;
            notes.push(format!("trace file {trace_path}: {e}"));
        }
    }
    let values = metrics::per_layer(w, &rounds, &traced);
    UnitResult {
        correct,
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .zip(values)
            .map(|(m, value)| Metric {
                name: m.name,
                unit: m.unit,
                value,
            })
            .collect(),
        notes,
    }
}
