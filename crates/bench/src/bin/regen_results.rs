//! Regenerates the paper's tables and figures.
//!
//! Usage: `cargo run --release -p equinox-bench --bin regen-results
//! [--quick] [id]...`, where each id is one entry of
//! [`equinox_bench::EXPERIMENTS`] (`fig2`, `fig6`, `table1`, …,
//! `checks`). With no ids, every experiment runs. An unknown id exits 2
//! before anything runs. `--quick` switches to the reduced
//! [`ExperimentScale::Quick`] grids. Logs go to stdout, artifacts into
//! `results/`.
//!
//! ## Parallel execution and determinism
//!
//! The selected experiments are independent, so they run concurrently
//! on the `equinox-par` pool (`EQUINOX_THREADS` sizes it; `1` forces
//! serial). Each one renders its log and its `results/` payloads into
//! memory; the main thread then prints logs and writes files in registry
//! order. Every artifact is byte-identical at any thread count; stdout
//! is not, since it carries wall clocks. Those readings land in
//! `results/bench_timings.json`, the one artifact exempt from the
//! byte-identity rule, since it records timings of this very run.
//!
//! ## Gates
//!
//! Every failed gate prints as `{id}: gate {name} failed: {detail}` on
//! stderr after all experiments ran, and the process exits 1. Under
//! `--quick` each experiment also has a `quick_budget` gate on its wall
//! clock, so a grid that accidentally regained full scale is named.

use equinox_bench::{Experiment, Gate, Output};
use equinox_core::ExperimentScale;
use std::fmt::Write as _;
use std::fs;
use std::time::Instant;

/// A completed experiment, in registry order.
struct Done {
    experiment: &'static Experiment,
    output: Output,
    wall_s: f64,
}

fn write_result(name: &str, content: &str) {
    let _ = fs::create_dir_all("results");
    let path = format!("results/{name}");
    match fs::write(&path, content) {
        Ok(()) => println!("  [wrote {path}]"),
        Err(e) => eprintln!("  [failed to write {path}: {e}]"),
    }
}

/// Renders `results/bench_timings.json`: per-id wall clock, pool size,
/// and the compile-cache counters. Deliberately *not* covered by the
/// byte-identical determinism contract — it measures this run.
fn timings_json(threads: usize, quick: bool, total_s: f64, done: &[Done]) -> String {
    let cache = equinox_isa::cache::stats();
    let mut json = String::from("{\"tool\":\"regen-results\"");
    let _ = write!(json, ",\"threads\":{threads},\"quick\":{quick}");
    let _ = write!(json, ",\"total_s\":{total_s:.3}");
    let _ = write!(
        json,
        ",\"compile_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{}}}",
        cache.hits, cache.misses, cache.evictions
    );
    json.push_str(",\"experiments\":[");
    for (i, d) in done.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(json, "{{\"id\":\"{}\",\"wall_s\":{:.3}", d.experiment.id, d.wall_s);
        if quick {
            let budget = d.experiment.quick_budget_s;
            let _ = write!(
                json,
                ",\"budget_s\":{budget:.1},\"within_budget\":{}",
                d.wall_s <= budget
            );
        }
        json.push('}');
    }
    let rows: Vec<&str> =
        done.iter().flat_map(|d| &d.output.comparisons).map(String::as_str).collect();
    let _ = writeln!(json, "],\"comparisons\":[{}]}}", rows.join(","));
    json
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    let selected = equinox_bench::select(&args).unwrap_or_else(|e| {
        eprintln!("regen-results: {e}");
        std::process::exit(2);
    });
    let scale = if quick { ExperimentScale::Quick } else { ExperimentScale::Full };
    let threads = equinox_par::thread_count();
    let start = Instant::now();

    let mut done = equinox_par::parallel_map(selected, |experiment| {
        let t = Instant::now();
        let output = (experiment.run)(scale);
        Done { experiment, output, wall_s: t.elapsed().as_secs_f64() }
    });

    for d in &mut done {
        let e = d.experiment;
        println!("\n=== {}: {} ===", e.id, e.title);
        print!("{}", d.output.log);
        for (name, content) in &d.output.files {
            write_result(name, content);
        }
        if quick {
            let (wall_s, budget) = (d.wall_s, e.quick_budget_s);
            println!("  [{wall_s:.1}s of a {budget:.0}s --quick budget]");
            d.output.gates.push(Gate::new("quick_budget", wall_s <= budget, || {
                format!("--quick run took {wall_s:.1}s, over its {budget:.0}s budget")
            }));
        } else {
            println!("  [{:.1}s]", d.wall_s);
        }
    }

    let elapsed = start.elapsed().as_secs_f64();
    write_result("bench_timings.json", &timings_json(threads, quick, elapsed, &done));
    println!("\nAll selected experiments done in {elapsed:.1}s ({threads} thread(s)).");

    let mut failed = false;
    for d in &done {
        for g in d.output.gates.iter().filter(|g| !g.ok) {
            eprintln!("{}: gate {} failed: {}", d.experiment.id, g.name, g.detail);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
