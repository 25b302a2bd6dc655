//! Regenerates every table and figure of the Clobber-NVM evaluation.
//!
//! ```text
//! repro [fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|fig_kv_scale|all] \
//!       [--quick] [--out DIR] [--trace-out PATH] [--zipf THETA] [--seed N]
//! ```
//!
//! Each experiment writes `fig*.csv` into the output directory (default:
//! the current directory) and prints a summary table, mirroring the
//! original artifact's `run_all.sh` behaviour (paper Appendix A.5).
//!
//! `--trace-out PATH` additionally records the persist-event trace of each
//! selected figure's first runtime (fig6/fig7/fig10/fig11 only) and writes
//! it as Chrome trace-event JSON — load it in Perfetto or
//! `chrome://tracing`. The figure label is inserted before the extension:
//! `--trace-out t.json` with fig6 writes `t-fig6.json`.

use std::path::PathBuf;
use std::time::Instant;

use clobber_bench::{common::Scale, write_csv};
use clobber_bench::{fig10, fig11, fig12, fig13, fig14, fig6, fig7, fig8, fig9, fig_kv_scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut scale = Scale::Full;
    let mut out_dir = PathBuf::from(".");
    let mut trace_out: Option<PathBuf> = None;
    // Knobs for the request-stream generator (fig_kv_scale): zipf skew
    // theta and the base RNG seed (client `c` streams with `seed + c`).
    let mut zipf = 0.99f64;
    let mut seed = 42u64;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--zipf" => {
                zipf = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--zipf requires a theta in (0, 1), or 0 for uniform");
                    std::process::exit(2);
                })
            }
            "--seed" => {
                seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed requires an unsigned integer");
                    std::process::exit(2);
                })
            }
            "--out" => {
                out_dir = PathBuf::from(it.next().unwrap_or_else(|| {
                    eprintln!("--out requires a directory");
                    std::process::exit(2);
                }))
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(it.next().unwrap_or_else(|| {
                    eprintln!("--trace-out requires a path");
                    std::process::exit(2);
                })))
            }
            "all" => which = all_figures(),
            other if other.starts_with("fig") => which.push(other.to_string()),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: repro [fig6..fig14|fig_kv_scale|all] [--quick] [--out DIR] \
                     [--trace-out PATH] [--zipf THETA] [--seed N]"
                );
                std::process::exit(2);
            }
        }
    }
    if which.is_empty() {
        which = all_figures();
    }
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    for fig in which {
        let t = Instant::now();
        println!("==> {fig} (scale: {scale:?})");
        let tracing = trace_out.is_some() && TRACEABLE.contains(&fig.as_str());
        if tracing {
            clobber_bench::common::arm_trace_capture();
        }
        run_one(&fig, scale, &out_dir, zipf, seed);
        if tracing {
            write_trace(&fig, trace_out.as_ref().unwrap());
        }
        println!("    done in {:.1}s\n", t.elapsed().as_secs_f64());
    }
}

/// Figures whose runners support `--trace-out`.
const TRACEABLE: [&str; 4] = ["fig6", "fig7", "fig10", "fig11"];

/// Writes the captured trace as Chrome JSON to `base` with the figure
/// label inserted before the extension (`t.json` -> `t-fig6.json`).
fn write_trace(fig: &str, base: &std::path::Path) {
    let Some(trace) = clobber_bench::common::take_captured_trace() else {
        eprintln!("    {fig}: no runtime was created, no trace captured");
        return;
    };
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let ext = base.extension().and_then(|s| s.to_str()).unwrap_or("json");
    let path = base.with_file_name(format!("{stem}-{fig}.{ext}"));
    std::fs::write(&path, trace.to_chrome_json()).expect("write trace");
    println!(
        "    trace: {} events ({} dropped) -> {}",
        trace.events.len(),
        trace.dropped,
        path.display()
    );
}

fn all_figures() -> Vec<String> {
    let mut figs: Vec<String> = (6..=14).map(|i| format!("fig{i}")).collect();
    figs.push("fig_kv_scale".to_string());
    figs
}

fn run_one(fig: &str, scale: Scale, out: &std::path::Path, zipf: f64, seed: u64) {
    match fig {
        "fig6" => {
            let rows = fig6::run(scale);
            emit(out, "fig6.csv", fig6::HEADER, rows.iter().map(|r| r.csv()));
            // Paper-style summary: clobber-vs-pmdk speedups.
            for kind in clobber_bench::common::DsKind::all() {
                let pick = |sys: &str, t: usize| {
                    rows.iter()
                        .find(|r| r.system == sys && r.structure == kind.label() && r.threads == t)
                        .map(|r| r.throughput)
                        .unwrap_or(0.0)
                };
                println!(
                    "    {:<9} clobber/pmdk: {:.2}x @1t  clobber/atlas: {:.2}x @1t",
                    kind.label(),
                    pick("clobber", 1) / pick("pmdk", 1).max(1.0),
                    pick("clobber", 1) / pick("atlas", 1).max(1.0),
                );
            }
            // Real multi-thread Clobber series: racing OS threads through
            // the lock manager, costed by the DES model (EXPERIMENTS.md
            // explains the 1-CPU caveat).
            let mt = fig6::run_multithread(scale);
            emit(
                out,
                "fig6_mt.csv",
                fig6::MT_HEADER,
                mt.iter().map(|r| r.csv()),
            );
            for r in mt.iter().filter(|r| r.series == "per-node") {
                let gl = mt
                    .iter()
                    .find(|g| {
                        g.series == "global-lock"
                            && g.structure == r.structure
                            && g.threads == r.threads
                    })
                    .map(|g| g.throughput)
                    .unwrap_or(0.0);
                println!(
                    "    [mt] {:<9} {}t: per-node/global {:.2}x  fences/tx {:.2}  waits {}",
                    r.structure,
                    r.threads,
                    r.throughput / gl.max(1.0),
                    r.fences_per_tx,
                    r.lock_waits
                );
            }
        }
        "fig7" => {
            let rows = fig7::run(scale);
            emit(out, "fig7.csv", fig7::HEADER, rows.iter().map(|r| r.csv()));
            for (ds, entries, bytes) in fig7::paper_ratios(&rows) {
                println!(
                    "    {ds:<9} clobber entries = {:.1}% of pmdk;  pmdk bytes = {:.1}x clobber",
                    entries * 100.0,
                    bytes
                );
            }
        }
        "fig8" => {
            let rows = fig8::run(scale);
            emit(out, "fig8.csv", fig8::HEADER, rows.iter().map(|r| r.csv()));
            for r in &rows {
                println!(
                    "    {:<9} iDO/clobber: {:.1}x points, {:.1}x bytes",
                    r.structure,
                    r.ido_points / r.clobber_points.max(1e-9),
                    r.ido_bytes / r.clobber_bytes.max(1e-9)
                );
            }
        }
        "fig9" => {
            let rows = fig9::run(scale);
            emit(out, "fig9.csv", fig9::HEADER, rows.iter().map(|r| r.csv()));
            for r in &rows {
                println!(
                    "    {:<8} {:<9} total {:.2} ms (open {:.2} + apply {:.3})",
                    r.system,
                    r.structure,
                    (r.open_ns + r.apply_ns) as f64 / 1e6,
                    r.open_ns as f64 / 1e6,
                    r.apply_ns as f64 / 1e6
                );
            }
            let scaling = fig9::run_scaling();
            emit(
                out,
                "fig9_scaling.csv",
                fig9::SCALING_HEADER,
                scaling.iter().map(|r| r.csv()),
            );
            for r in &scaling {
                println!(
                    "    pool {:>2} MiB slots {}: apply {:.3} ms, wall {:.3} ms, {} entries",
                    r.pool_mib,
                    r.slots,
                    r.apply_ns as f64 / 1e6,
                    r.wall_ns as f64 / 1e6,
                    r.entries_applied
                );
            }
        }
        "fig10" => {
            let rows = fig10::run(scale);
            emit(
                out,
                "fig10.csv",
                fig10::HEADER,
                rows.iter().map(|r| r.csv()),
            );
            for mix in clobber_workloads::Mix::all() {
                let pick = |sys: &str| {
                    rows.iter()
                        .find(|r| {
                            r.system == sys
                                && r.mix == mix.label()
                                && r.locks == "rwlock"
                                && r.threads == 1
                        })
                        .map(|r| r.throughput)
                        .unwrap_or(0.0)
                };
                println!(
                    "    {:<9} clobber/pmdk {:.2}x  clobber/mnemosyne {:.2}x  @1t",
                    mix.label(),
                    pick("clobber") / pick("pmdk").max(1.0),
                    pick("clobber") / pick("mnemosyne").max(1.0)
                );
            }
        }
        "fig11" => {
            let rows = fig11::run(scale);
            emit(
                out,
                "fig11.csv",
                fig11::HEADER,
                rows.iter().map(|r| r.csv()),
            );
            for r in rows.iter().filter(|r| r.system != "nolog") {
                println!(
                    "    {:<10} {:<8} q={} overhead {:+.0}%",
                    r.system, r.tree, r.queries_per_task, r.overhead_pct
                );
            }
        }
        "fig12" => {
            let rows = fig12::run(scale);
            emit(
                out,
                "fig12.csv",
                fig12::HEADER,
                rows.iter().map(|r| r.csv()),
            );
            for r in &rows {
                println!(
                    "    angle {:>2}  {:<8} {:>9.2} ms  ({} steps, {} triangles, {:+.0}%)",
                    r.angle, r.system, r.elapsed_ms, r.steps, r.final_triangles, r.overhead_pct
                );
            }
        }
        "fig13" => {
            let rows = fig13::run(scale);
            emit(
                out,
                "fig13.csv",
                fig13::HEADER,
                rows.iter().map(|r| r.csv()),
            );
            let stat = fig13::run_static();
            emit(
                out,
                "fig13_static.csv",
                fig13::STATIC_HEADER,
                stat.iter().map(|r| r.csv()),
            );
            for r in &rows {
                println!(
                    "    {:<22} speedup {:+.1}%  extra entries {:+.0}%  extra bytes {:+.0}%",
                    r.workload, r.speedup_pct, r.extra_entries_pct, r.extra_bytes_pct
                );
            }
            for r in &stat {
                println!(
                    "    [static] {:<18} {} -> {} sites",
                    r.program, r.conservative_sites, r.refined_sites
                );
            }
        }
        "fig14" => {
            let rows = fig14::run();
            emit(
                out,
                "fig14.csv",
                fig14::HEADER,
                rows.iter().map(|r| r.csv()),
            );
            for r in &rows {
                println!(
                    "    {:<20} {:>4} insts  frontend {:>7} ns  passes {:>7} ns  ({:.0}%)",
                    r.program, r.instructions, r.frontend_ns, r.passes_ns, r.overhead_pct
                );
            }
        }
        "fig_kv_scale" => {
            let rows = fig_kv_scale::run(scale, zipf, seed);
            emit(
                out,
                "fig_kv_scale.csv",
                fig_kv_scale::HEADER,
                rows.iter().map(|r| r.csv()),
            );
            for r in rows.iter().filter(|r| r.mode == "batched") {
                let pr = rows
                    .iter()
                    .find(|p| p.mode == "per-request" && p.clients == r.clients)
                    .expect("per-request row");
                println!(
                    "    {:>2} clients: {:>9.0} rps  p99 {:>7} ns  fences/req {:.2} \
                     (per-request {:.2})  shed {}",
                    r.clients,
                    r.throughput_rps,
                    r.p99_ns,
                    r.fences_per_req,
                    pr.fences_per_req,
                    r.shed
                );
            }
        }
        other => {
            eprintln!("unknown figure `{other}`");
            std::process::exit(2);
        }
    }
}

fn emit(out: &std::path::Path, file: &str, header: &str, rows: impl Iterator<Item = String>) {
    let rows: Vec<String> = rows.collect();
    let path = out.join(file);
    write_csv(&path, header, &rows).expect("write csv");
    println!("    wrote {} ({} rows)", path.display(), rows.len());
}
