//! `run`: the whole benchmark in one command, and `compare`: two result
//! files side by side.
//!
//! `run` is a parent process that executes **one single-threaded child at a
//! time**, one child per (workload, round), with the rounds interleaved
//! round-robin across the four workloads (w1r0, w2r0, w3r0, w4r0, w1r1, …)
//! so every workload samples the same phases of a noisy machine. A child is
//! exactly the command `BENCHMARK.json` names; round `r` uses `seed + r`.
//! Round 0 is a warm-up and is discarded.

use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::metrics::{Better, Clock, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, spread};
use crate::workloads::Workload;

/// Arguments of `run`.
#[derive(Debug, Clone, Copy)]
pub struct SuiteArgs {
    /// Base seed; round `r` uses `seed + r`.
    pub seed: u64,
    /// Also run one traced child per workload (per-layer metrics, traces).
    pub traced: bool,
    /// Tiny op counts; the whole command stays under 15 s.
    pub smoke: bool,
}

/// `--seconds` of a full-size child: the `run_seconds` of `BENCHMARK.json`,
/// so a child is exactly the gated command. Shorter children did not hold
/// the 10 % suite bound on `kv_crash_recover`: the nine values of one suite
/// were 14 % apart (IQR / median) with 4-s and with 8-s children, 8–12 %
/// with 25-s ones.
pub const CHILD_SECONDS: f64 = 25.0;

/// Where `run` writes its result file.
pub const OUT_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out/latest.json");

impl SuiteArgs {
    /// Measured rounds per workload (plus one discarded warm-up round).
    pub fn rounds(&self) -> u64 {
        if self.smoke {
            2
        } else {
            9
        }
    }

    /// `--seconds` handed to every child.
    pub fn child_seconds(&self) -> f64 {
        if self.smoke {
            0.0
        } else {
            CHILD_SECONDS
        }
    }
}

/// Runs one child and parses the JSON object it prints last.
fn run_child(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child and reaps it.
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = Json::parse(last).map_err(|e| {
        format!(
            "{} seed {seed}: no result line ({e}); status {}; stderr: {}",
            w.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    for note in stdout.lines().filter(|l| l.starts_with("# ")) {
        eprintln!("  {}/{seed}: {}", w.name(), &note[2..]);
    }
    Ok(doc)
}

fn metric_value(doc: &Json, name: &str) -> Option<f64> {
    doc.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Runs the suite, prints every metric by name with its unit, writes the
/// result file, and returns whether every output check passed.
///
/// # Errors
///
/// Returns a message if a child could not be run or the file not written.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    let mut untraced: Vec<Vec<Json>> = vec![Vec::new(); Workload::ALL.len()];
    let (rounds, seconds) = (args.rounds(), args.child_seconds());
    for round in 0..=rounds {
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            eprintln!(
                "round {round}/{rounds} {}{}",
                w.name(),
                if round == 0 {
                    " (warm-up, discarded)"
                } else {
                    ""
                }
            );
            let doc = run_child(w, args.seed + round, seconds, false, args.smoke)?;
            if round > 0 {
                untraced[i].push(doc);
            }
        }
    }
    let mut traced: Vec<Option<Json>> = vec![None; Workload::ALL.len()];
    if args.traced {
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            eprintln!("traced {}", w.name());
            traced[i] = Some(run_child(w, args.seed, seconds, true, args.smoke)?);
        }
    }

    let mut all_correct = true;
    let mut workloads = Json::obj();
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let docs = &untraced[i];
        let flag = |doc: &Json| doc.get("correct") == Some(&Json::Bool(true));
        let sum = |key: &str| -> f64 {
            docs.iter()
                .chain(traced[i].iter())
                .filter_map(|d| d.get(key)?.as_f64())
                .sum()
        };
        let correct = docs.iter().chain(traced[i].iter()).all(flag);
        all_correct &= correct;

        println!("== {} (op = {}) — {}", w.name(), w.op(), w.why());
        let mut e2e = Json::obj();
        for m in END_TO_END {
            let values: Vec<f64> = docs
                .iter()
                .filter_map(|d| metric_value(d, m.name))
                .collect();
            let (q1, q3) = quartiles(&values);
            println!(
                "{:<44} {:>18.6} {:<6} [{} clock, median of {} rounds, spread {:.4}, bound {}]",
                m.name,
                median(&values),
                m.unit,
                m.clock.word(),
                values.len(),
                spread(&values),
                m.suite_bound
            );
            e2e = e2e.with(
                m.name,
                Json::obj()
                    .with("unit", m.unit)
                    .with("better", m.better.word())
                    .with("bound", m.suite_bound)
                    .with("clock", m.clock.word())
                    .with("median", median(&values))
                    .with("q1", q1)
                    .with("q3", q3)
                    .with("spread", spread(&values))
                    .with("rounds", values.as_slice()),
            );
        }
        let mut layers = Json::obj();
        if let Some(doc) = &traced[i] {
            for m in PER_LAYER {
                let value = metric_value(doc, m.name).unwrap_or(0.0);
                println!(
                    "{:<44} {:>18.6} {:<6} [{} clock]",
                    m.name,
                    value,
                    m.unit,
                    m.clock.word()
                );
                layers = layers.with(
                    m.name,
                    Json::obj()
                        .with("unit", m.unit)
                        .with("better", m.better.word())
                        .with("clock", m.clock.word())
                        .with("value", value),
                );
            }
        }
        println!(
            "{:<44} {:>18} [attempted {}, failed {}]",
            "output checks",
            if correct { "passed" } else { "FAILED" },
            sum("attempted"),
            sum("failed")
        );
        workloads = workloads.with(
            w.name(),
            Json::obj()
                .with("why", w.why())
                .with("op", w.op())
                .with("ops_per_round", w.round_ops(args.smoke))
                .with("correct", correct)
                .with("attempted", sum("attempted"))
                .with("failed", sum("failed"))
                .with("end_to_end", e2e)
                .with("per_layer", layers),
        );
    }

    let doc = Json::obj()
        .with("schema", "clobber-benchmark/1")
        .with("seed", args.seed)
        .with("rounds", rounds)
        .with("unit_seconds", seconds)
        .with("smoke", args.smoke)
        .with("traced", args.traced)
        .with("commit", first_line("git", &["rev-parse", "HEAD"]))
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .with("rustc", first_line("rustc", &["--version"]))
        .with("correct", all_correct)
        .with("workloads", workloads);
    if let Some(dir) = Path::new(OUT_FILE).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(OUT_FILE, doc.pretty()).map_err(|e| format!("{OUT_FILE}: {e}"))?;
    eprintln!("wrote {OUT_FILE}");
    Ok(all_correct)
}

/// How one (workload, metric) row of `compare` reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` improved by more than the run-to-run spread (or every round of
    /// `b` reads better than every round of `a`).
    Better,
    /// No worse than the bound allows.
    WithinBound,
    /// Worse than `a` by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound: the data cannot say.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a` for one metric from their per-round values.
/// `exact` says the metric repeats bit-for-bit and round `r` of both sides
/// used the same seed: the spread between rounds is then the spread between
/// seeds, not noise, and any worsening beyond `bound` is real.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64, exact: bool) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Positive = b improved, as a share of a's median.
    let gain = if ma == 0.0 {
        0.0
    } else {
        match better {
            Better::Higher => (mb - ma) / ma.abs(),
            Better::Lower => (ma - mb) / ma.abs(),
        }
    };
    let noise = if exact { 0.0 } else { spread(a).max(spread(b)) };
    let every_round_better = !a.is_empty()
        && !b.is_empty()
        && match better {
            Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
            Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
        };
    if every_round_better || (gain > 0.0 && gain > noise) {
        Verdict::Better
    } else if noise > bound {
        Verdict::Unresolved
    } else if gain < -bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

fn rounds_of(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("rounds"))
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// `compare a.json b.json`: one row per (workload, end-to-end metric) with
/// both medians, the bound and the verdict. Returns the table and whether
/// any row is `worse`.
///
/// # Errors
///
/// Returns a message if a file cannot be read or parsed.
pub fn compare(path_a: &str, path_b: &str) -> Result<(String, bool), String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    // Round `r` of both sides must have had the same inputs: the simulated
    // clock is then exact and held to no change at all.
    if a.get("seed").is_none() || a.get("seed") != b.get("seed") {
        return Err(format!("{path_a} and {path_b} are not suites of one seed"));
    }
    let mut table = format!(
        "a = {path_a}\nb = {path_b}\n{:<18} {:<20} {:>16} {:>16} {:>8} {:>8} {:>6}  {}\n",
        "workload", "metric", "a (median)", "b (median)", "change", "spread", "bound", "verdict"
    );
    let mut any_worse = false;
    let mut counts = [0usize; 4];
    for w in Workload::ALL {
        for m in END_TO_END {
            let (ra, rb) = (
                rounds_of(&a, w.name(), m.name),
                rounds_of(&b, w.name(), m.name),
            );
            let verdict = if ra.is_empty() || rb.is_empty() {
                Verdict::Unresolved
            } else {
                judge(&ra, &rb, m.better, m.suite_bound, m.clock == Clock::Sim)
            };
            any_worse |= verdict == Verdict::Worse;
            counts[verdict as usize] += 1;
            let (ma, mb) = (median(&ra), median(&rb));
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            let identical = if ra == rb && !ra.is_empty() {
                " (bit-identical)"
            } else {
                ""
            };
            table.push_str(&format!(
                "{:<18} {:<20} {:>16.4} {:>16.4} {:>+7.2}% {:>7.2}% {:>5.0}%  {}{}\n",
                w.name(),
                m.name,
                ma,
                mb,
                change * 100.0,
                spread(&ra).max(spread(&rb)) * 100.0,
                m.suite_bound * 100.0,
                verdict.word(),
                identical
            ));
        }
    }
    table.push_str(&format!(
        "better {}  within-bound {}  worse {}  unresolved {}\n",
        counts[Verdict::Better as usize],
        counts[Verdict::WithinBound as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize]
    ));
    Ok((table, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_separates_the_four_verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Worse by 20 % on a higher-is-better metric with a 10 % bound.
        let worse = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(
            judge(&a, &worse, Better::Higher, 0.10, false),
            Verdict::Worse
        );
        // The same numbers are an improvement when lower is better.
        assert_eq!(
            judge(&a, &worse, Better::Lower, 0.10, false),
            Verdict::Better
        );
        // 3 % slower: inside the bound.
        let near = [97.0, 98.0, 96.0, 97.5, 96.5];
        assert_eq!(
            judge(&a, &near, Better::Higher, 0.10, false),
            Verdict::WithinBound
        );
        // Spread wider than the bound: cannot tell.
        let noisy = [60.0, 140.0, 100.0, 75.0, 125.0];
        assert_eq!(
            judge(&a, &noisy, Better::Higher, 0.10, false),
            Verdict::Unresolved
        );
        // ... unless every round of b beats every round of a.
        let clear = [300.0, 500.0, 400.0, 350.0, 450.0];
        assert_eq!(
            judge(&a, &clear, Better::Higher, 0.10, false),
            Verdict::Better
        );
        // An exact metric at bound 0: its spread between seeds is not noise,
        // identical values are within bound, the smallest worsening is worse.
        let seeds = [8.0, 9.0, 10.0];
        assert_eq!(
            judge(&seeds, &seeds, Better::Lower, 0.0, true),
            Verdict::WithinBound
        );
        let crept = [8.0, 9.01, 10.0];
        assert_eq!(
            judge(&seeds, &crept, Better::Lower, 0.0, true),
            Verdict::Worse
        );
        assert_eq!(
            judge(&crept, &seeds, Better::Lower, 0.0, true),
            Verdict::Better
        );
    }
}
