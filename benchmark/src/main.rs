//! Command line of the benchmark.
//!
//! ```text
//! clobber-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! clobber-benchmark run [--seed N] [--traced] [--smoke]
//! clobber-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is one measured run of one workload (what
//! `BENCHMARK.json` names); its last line of standard output is one JSON
//! object. `run` executes the whole suite through children of that form.
//! Every form exits non-zero if an output check fails.

use std::process::ExitCode;

use clobber_benchmark::suite::{self, SuiteArgs};
use clobber_benchmark::unit::{run_unit, UnitArgs};
use clobber_benchmark::workloads::Workload;

const USAGE: &str = "usage:
  clobber-benchmark --workload <kv_write_batched|kv_read_heavy|ds_load|kv_crash_recover> \\
                    --seed <n> --seconds <s> --trace <0|1> [--smoke]
  clobber-benchmark run [--seed N] [--traced] [--smoke]
  clobber-benchmark compare <a.json> <b.json>";

/// `--flag value` pairs and bare `--switches` after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("bad value for {flag}: {v}")))
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        self.parsed(flag)?.ok_or_else(|| format!("missing {flag}"))
    }

    fn switch(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn unit(flags: &Flags) -> Result<bool, String> {
    let name: String = flags.required("--workload")?;
    let seconds: f64 = flags.required("--seconds")?;
    if !(0.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let args = UnitArgs {
        workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?,
        seed: flags.required("--seed")?,
        seconds,
        trace: match flags.required::<u8>("--trace")? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, got {other}")),
        },
        smoke: flags.switch("--smoke"),
    };
    let result = run_unit(&args);
    for m in &result.metrics {
        println!("{:<44} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for note in &result.notes {
        println!("# {note}");
    }
    println!("{}", result.to_json().encode());
    Ok(result.correct)
}

fn run(flags: &Flags) -> Result<bool, String> {
    suite::run(&SuiteArgs {
        seed: flags.parsed("--seed")?.unwrap_or(42),
        traced: flags.switch("--traced"),
        smoke: flags.switch("--smoke"),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => run(&Flags(argv[1..].to_vec())),
        Some("compare") => match (argv.get(1), argv.get(2)) {
            (Some(a), Some(b)) => suite::compare(a, b).map(|(table, any_worse)| {
                print!("{table}");
                !any_worse
            }),
            _ => Err(USAGE.to_string()),
        },
        Some(first) if first.starts_with("--") => unit(&Flags(argv)),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(2)
        }
    }
}
