//! Regenerates the paper's tables and figures at full scale.
//!
//! Usage: `cargo run --release -p equinox-bench --bin regen-results
//! [--quick] [fig2|fig6|table1|fig7|…|fault|fleet|serve|fitted|checks]...`
//!
//! With no ids, everything is regenerated. `--quick` switches to the
//! reduced [`ExperimentScale::Quick`] grids (the CI fault-injection
//! smoke job runs `--quick fault`). Output goes to stdout and, for the
//! figure CSVs and JSON artifacts, into `results/`.
//!
//! ## Parallel execution and determinism
//!
//! The selected experiments are independent, so they run concurrently
//! on the `equinox-par` pool (`EQUINOX_THREADS` sizes it; `1` forces
//! serial). Each job renders its human log and its `results/` payloads
//! into memory; the main thread then prints logs and writes files in
//! the canonical experiment order, so stdout and every artifact are
//! byte-identical at any thread count. Wall-clock readings land in
//! `results/bench_timings.json` — the one artifact exempt from the
//! bit-identical rule, since it records timings of this very run.
//!
//! ## Quick-run budgets
//!
//! Under `--quick` every experiment has a per-id wall-clock budget
//! (`EQUINOX_QUICK_BUDGET_<ID>_S` overrides one id; the coarse
//! `EQUINOX_QUICK_BUDGET_S` overrides all of them uniformly). A
//! summary table prints on exit and only the offending ids fail the
//! run, so a CI blowup names the experiment that regained full scale.

use equinox_core::experiments::{
    ablation, allreduce, bounds_calibration, diurnal, fault_sweep, fig10, fig11, fig2, fig6,
    fig7, fig8, fig9, fitted, fleet, numerics, serve, software_sched, table1, table2, table3,
};
use equinox_core::ExperimentScale;
use std::fmt::Write as _;
use std::fs;
use std::time::Instant;

/// What one experiment job produced, rendered but not yet emitted.
struct JobBody {
    /// The human log the serial driver would have printed.
    log: String,
    /// `results/` payloads as `(file name, content)`.
    files: Vec<(String, String)>,
    /// A gate failure (SLO violation, check errors, …); reported after
    /// every job has run instead of exiting mid-run.
    failure: Option<String>,
    /// Pre-rendered JSON rows for the `comparisons` array of
    /// `bench_timings.json` (wall-clock comparisons a job measured
    /// itself; timing data, so exempt from the byte-identity contract
    /// like the rest of that file).
    comparisons: Vec<String>,
}

/// One selected experiment, ready to run on any worker.
struct Job {
    id: &'static str,
    title: &'static str,
    run: Box<dyn FnOnce() -> JobBody + Send>,
}

/// A completed job, in canonical order.
struct JobResult {
    id: &'static str,
    title: &'static str,
    body: JobBody,
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

/// Default `--quick` wall-clock budget per experiment id, seconds.
/// Sized ~3× the observed quick runtimes so only a grid that
/// accidentally regained full scale trips them.
fn default_quick_budget_s(id: &str) -> f64 {
    match id {
        "fig2" => 240.0,
        "fig6" | "table1" | "fig8" | "software" | "diurnal" => 60.0,
        "fig7" | "fig9" | "table2" | "fig10" => 90.0,
        "table3" => 15.0,
        "bounds" | "numerics" => 30.0,
        "serve" => 40.0,
        "fig11" | "ablation" | "fault" | "fleet" | "fitted" | "allreduce" => 120.0,
        "checks" => 180.0,
        _ => 120.0,
    }
}

/// The effective `--quick` budget for `id`: the coarse
/// `EQUINOX_QUICK_BUDGET_S` (when set) overrides every id uniformly,
/// else `EQUINOX_QUICK_BUDGET_<ID>_S`, else the built-in default.
fn quick_budget_s(id: &str) -> f64 {
    if let Some(b) = std::env::var("EQUINOX_QUICK_BUDGET_S")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        return b;
    }
    let key = format!("EQUINOX_QUICK_BUDGET_{}_S", id.to_uppercase());
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| default_quick_budget_s(id))
}

/// Renders `results/bench_timings.json`: per-id wall clock, pool size,
/// and the compile-cache counters. Deliberately *not* covered by the
/// byte-identical determinism contract — it measures this run.
fn timings_json(threads: usize, quick: bool, total_s: f64, results: &[JobResult]) -> String {
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
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(json, "{{\"id\":\"{}\",\"wall_s\":{:.3}", r.id, r.wall_s);
        if quick {
            let budget = quick_budget_s(r.id);
            let _ = write!(
                json,
                ",\"budget_s\":{budget:.1},\"within_budget\":{}",
                r.wall_s <= budget
            );
        }
        json.push('}');
    }
    json.push_str("],\"comparisons\":[");
    let mut first = true;
    for r in results {
        for row in &r.body.comparisons {
            if !first {
                json.push(',');
            }
            first = false;
            json.push_str(row);
        }
    }
    json.push_str("]}\n");
    json
}

fn jobs_for(selected: impl Fn(&str) -> bool, scale: ExperimentScale) -> Vec<Job> {
    let mut jobs: Vec<Job> = Vec::new();
    let mut push = |id: &'static str,
                    title: &'static str,
                    run: Box<dyn FnOnce() -> JobBody + Send>| {
        jobs.push(Job { id, title, run });
    };

    if selected("fig2") {
        push("fig2", "hbfp8 vs fp32 convergence (Figure 2)", Box::new(move || {
            let mut log = String::new();
            let fig = fig2::run(scale);
            let _ = writeln!(log, "{fig}");
            let mut csv = String::from("task,encoding,epoch,train_loss,val_metric\n");
            for (task, curves) in [
                ("classification", &fig.classification),
                ("language", &fig.language),
                ("lstm_bptt", &fig.lstm),
            ] {
                for c in curves {
                    for p in &c.points {
                        let _ = writeln!(
                            csv,
                            "{task},{},{},{},{}",
                            c.label, p.epoch, p.train_loss, p.val_metric
                        );
                    }
                }
            }
            JobBody {
                log,
                comparisons: Vec::new(),
                files: vec![("fig2_convergence.csv".into(), csv)],
                failure: None,
            }
        }));
    }

    if selected("fig6") {
        push("fig6", "design-space scatter (Figure 6)", Box::new(move || {
            let mut log = String::new();
            let fig = fig6::run();
            let _ = writeln!(log, "{fig}");
            JobBody {
                log,
                comparisons: Vec::new(),
                files: vec![
                    ("fig6a_hbfp8.csv".into(), fig.hbfp8_csv),
                    ("fig6b_bfloat16.csv".into(), fig.bf16_csv),
                ],
                failure: None,
            }
        }));
    }

    if selected("table1") {
        push("table1", "Pareto-optimal designs (Table 1)", Box::new(move || {
            let mut log = String::new();
            let table = table1::run();
            let _ = writeln!(log, "{table}");
            JobBody {
                log,
                comparisons: Vec::new(),
                files: vec![("table1_pareto.txt".into(), table.to_string())],
                failure: None,
            }
        }));
    }

    if selected("fig7") {
        push("fig7", "inference tail latency vs throughput (Figure 7)", Box::new(move || {
            let mut log = String::new();
            let mut files = Vec::new();
            for encoding in [
                equinox_arith::Encoding::Hbfp8,
                equinox_arith::Encoding::Bfloat16,
            ] {
                let fig = fig7::run(encoding, scale);
                let _ = writeln!(log, "{fig}");
                let mut csv = String::from("config,load,inference_tops,p99_ms\n");
                for s in &fig.series {
                    for p in &s.points {
                        let _ = writeln!(
                            csv,
                            "{},{},{},{}",
                            s.name, p.load, p.inference_tops, p.p99_ms
                        );
                    }
                }
                let panel = if encoding == equinox_arith::Encoding::Hbfp8 { "a" } else { "b" };
                files.push((format!("fig7{panel}_{encoding}.csv"), csv));
            }
            JobBody { log, files, failure: None, comparisons: Vec::new() }
        }));
    }

    if selected("fig8") {
        push("fig8", "cycle breakdown (Figure 8)", Box::new(move || {
            let mut log = String::new();
            let fig = fig8::run(scale);
            let _ = writeln!(log, "{fig}");
            let mut csv = String::from("load,config,working,dummy,idle,other\n");
            for b in &fig.bars {
                let _ = writeln!(
                    csv,
                    "{},{},{},{},{},{}",
                    b.load,
                    if b.with_training { "Inf+Train" } else { "Inf" },
                    b.breakdown.working,
                    b.breakdown.dummy,
                    b.breakdown.idle,
                    b.breakdown.other
                );
            }
            JobBody {
                log,
                comparisons: Vec::new(),
                files: vec![("fig8_breakdown.csv".into(), csv)],
                failure: None,
            }
        }));
    }

    if selected("fig9") {
        push("fig9", "training throughput vs inference load (Figure 9)", Box::new(move || {
            let mut log = String::new();
            let fig = fig9::run(scale);
            let _ = writeln!(log, "{fig}");
            for name in ["Equinox_min", "Equinox_50us", "Equinox_500us", "Equinox_none"] {
                if let Some(frac) = fig.peak_fraction(name) {
                    let _ = writeln!(
                        log,
                        "  {name}: {:.0}% of the dedicated-accelerator bound",
                        frac * 100.0
                    );
                }
            }
            let mut csv = String::from("config,load,training_tops\n");
            for s in &fig.series {
                for p in &s.points {
                    let _ = writeln!(csv, "{},{},{}", s.name, p.load, p.training_tops);
                }
            }
            JobBody {
                log,
                comparisons: Vec::new(),
                files: vec![("fig9_training.csv".into(), csv)],
                failure: None,
            }
        }));
    }

    if selected("table2") {
        push("table2", "workload sensitivity (Table 2, + MLP/Transformer extension)", Box::new(move || {
            let mut log = String::new();
            let table = table2::run_extended(scale);
            let _ = writeln!(log, "{table}");
            JobBody {
                log,
                comparisons: Vec::new(),
                files: vec![("table2_workloads.txt".into(), table.to_string())],
                failure: None,
            }
        }));
    }

    if selected("table3") {
        push("table3", "area and power (Table 3)", Box::new(move || {
            let mut log = String::new();
            let report = table3::run();
            let _ = writeln!(log, "{report}");
            let (ca, cp) = report.controller_overhead();
            let (ea, ep) = report.encoding_overhead();
            let _ = writeln!(
                log,
                "\n  controller overhead: {:.2}% area, {:.2}% power (paper: <1%)",
                ca * 100.0,
                cp * 100.0
            );
            let _ = writeln!(
                log,
                "  encoding overhead:   {:.1}% area, {:.1}% power (paper: 4% / 13%)",
                ea * 100.0,
                ep * 100.0
            );
            JobBody {
                log,
                comparisons: Vec::new(),
                files: vec![("table3_area_power.txt".into(), report.to_string())],
                failure: None,
            }
        }));
    }

    if selected("fig10") {
        push("fig10", "scheduling policies (Figure 10)", Box::new(move || {
            let mut log = String::new();
            let fig = fig10::run(scale);
            let _ = writeln!(log, "{fig}");
            let mut csv = String::from("policy,load,inference_tops,p99_ms,training_tops\n");
            for s in &fig.series {
                for p in &s.points {
                    let _ = writeln!(
                        csv,
                        "{},{},{},{},{}",
                        s.name, p.load, p.inference_tops, p.p99_ms, p.training_tops
                    );
                }
            }
            JobBody {
                log,
                comparisons: Vec::new(),
                files: vec![("fig10_scheduling.csv".into(), csv)],
                failure: None,
            }
        }));
    }

    if selected("fig11") {
        push("fig11", "adaptive batching (Figure 11)", Box::new(move || {
            let mut log = String::new();
            let fig = fig11::run(scale);
            let _ = writeln!(log, "{fig}");
            let mut csv =
                String::from("panel,series,load,inference_tops,p99_ms,training_tops\n");
            for (panel, series) in [
                ("a", &fig.panel_a),
                ("b", &fig.panel_b),
                ("c", &fig.panel_c),
            ] {
                for s in series {
                    for p in &s.points {
                        let _ = writeln!(
                            csv,
                            "{panel},{},{},{},{},{}",
                            s.name, p.load, p.inference_tops, p.p99_ms, p.training_tops
                        );
                    }
                }
            }
            JobBody {
                log,
                comparisons: Vec::new(),
                files: vec![("fig11_batching.csv".into(), csv)],
                failure: None,
            }
        }));
    }

    if selected("software") {
        push("software", "software vs hardware scheduling (§6 text)", Box::new(move || {
            let mut log = String::new();
            let study = software_sched::run(scale);
            let _ = writeln!(log, "{study}");
            JobBody {
                log,
                comparisons: Vec::new(),
                files: vec![("software_scheduling.txt".into(), study.to_string())],
                failure: None,
            }
        }));
    }

    if selected("diurnal") {
        push("diurnal", "training for free over a day (extension)", Box::new(move || {
            let mut log = String::new();
            let d = diurnal::run(scale);
            let _ = writeln!(log, "{d}");
            JobBody {
                log,
                comparisons: Vec::new(),
                files: vec![("diurnal.txt".into(), d.to_string())],
                failure: None,
            }
        }));
    }

    if selected("ablation") {
        push("ablation", "design-choice ablations (extensions)", Box::new(move || {
            let mut log = String::new();
            let a = ablation::run(scale);
            let _ = writeln!(log, "{a}");
            JobBody {
                log,
                comparisons: Vec::new(),
                files: vec![("ablations.txt".into(), a.to_string())],
                failure: None,
            }
        }));
    }

    if selected("fault") {
        push("fault", "fault injection × graceful degradation (extension)", Box::new(move || {
            let mut log = String::new();
            let sweep = fault_sweep::run(scale);
            let _ = writeln!(log, "{sweep}");
            // The CI smoke gate: a panic anywhere above already failed
            // the run; additionally fail on SLO violations in the
            // no-fault baseline or degradation configs rejected by
            // equinox-check.
            let failure = if !sweep.baseline_is_clean() {
                Some("fault: no-fault baseline violated the SLO".into())
            } else if sweep.has_check_errors() {
                Some("fault: a degradation policy failed the equinox-check lints".into())
            } else {
                None
            };
            JobBody {
                log,
                comparisons: Vec::new(),
                files: vec![("fault_sweep.json".into(), sweep.to_json())],
                failure,
            }
        }));
    }

    if selected("fleet") {
        push("fleet", "fleet size × routing policy × load (extension)", Box::new(move || {
            let mut log = String::new();
            let sweep = fleet::run(scale);
            let _ = writeln!(log, "{sweep}");
            // The CI smoke gate: training-aware routing must harvest
            // strictly more fleet-wide free epochs than round-robin at
            // the moderate operating point, on every fleet size,
            // without violating the inference SLO.
            let failure = (!sweep.training_aware_wins()).then(|| {
                "fleet: training-aware routing failed the harvest-advantage/SLO gate".to_string()
            });
            JobBody {
                log,
                comparisons: Vec::new(),
                files: vec![("fleet_sweep.json".into(), sweep.to_json())],
                failure,
            }
        }));
    }

    if selected("allreduce") {
        push("allreduce", "gradient all-reduce: harvest-vs-sync frontier (extension)", Box::new(move || {
            let mut log = String::new();
            let sweep = allreduce::run(scale);
            let _ = writeln!(log, "{sweep}");
            // The CI smoke gate: the full topology × schedule × load
            // frontier is present; every fabric still completes its
            // round with strictly positive synced epochs at the
            // moderate load; the paid tier is untouched at the
            // one-big-switch reference cells; every link conserves
            // bytes; and the EQX09xx fabric lints are clean.
            let failure = (!sweep.passes()).then(|| {
                let mut failed = Vec::new();
                if !sweep.frontier_complete() {
                    failed.push("frontier_complete");
                }
                if !sweep.synced_positive_at_moderate() {
                    failed.push("synced_positive_at_moderate");
                }
                if !sweep.reference_slo_clean() {
                    failed.push("reference_slo_clean");
                }
                if !sweep.conserved() {
                    failed.push("conserved");
                }
                if !sweep.lints_clean() {
                    failed.push("lints_clean");
                }
                format!("allreduce: harvest-vs-sync gate failed ({})", failed.join(", "))
            });
            JobBody {
                log,
                comparisons: Vec::new(),
                files: vec![("allreduce_sweep.json".into(), sweep.to_json())],
                failure,
            }
        }));
    }

    if selected("serve") {
        push("serve", "admission control × overload × autoscaling (extension)", Box::new(move || {
            let mut log = String::new();
            let sweep = serve::run(scale);
            let _ = writeln!(log, "{sweep}");
            // The CI smoke gate: under 120 % offered load (clean and
            // faulted) the priority policy must hold the paid tier's
            // p999 inside the deadline while admit-all violates it,
            // shed free traffic first, autoscale without losing
            // in-flight requests, reach trace scale, and keep the
            // EQX07xx serving lints clean.
            let failure = (!sweep.passes()).then(|| {
                let mut failed = Vec::new();
                if !sweep.priority_protects_paid() {
                    failed.push("priority_protects_paid");
                }
                if !sweep.free_is_shed_first() {
                    failed.push("free_is_shed_first");
                }
                if !sweep.autoscale_drains_cleanly() {
                    failed.push("autoscale_drains_cleanly");
                }
                if !sweep.trace_scale_reached() {
                    failed.push("trace_scale_reached");
                }
                if !sweep.lints_clean() {
                    failed.push("lints_clean");
                }
                format!("serve: serving-layer gate failed ({})", failed.join(", "))
            });
            JobBody {
                log,
                comparisons: Vec::new(),
                files: vec![("serve_sweep.json".into(), sweep.to_json())],
                failure,
            }
        }));
    }

    if selected("bounds") {
        push("bounds", "static bound calibration against the cycle-accurate sim (extension)", Box::new(move || {
            let mut log = String::new();
            let cal = bounds_calibration::run(scale);
            let _ = writeln!(log, "{cal}");
            // The CI smoke gate: on every (paper model × lowering) cell
            // the dispatcher-accounted cycles must land inside the
            // static `[lower, upper]`, the bounds must stay tight
            // (upper/lower ≤ 4×), and the discrete-event engine probes
            // at the fig10/fig11 operating points must agree with the
            // static accounting.
            let failure = (!cal.all_calibrated()).then(|| {
                let names: Vec<String> = cal
                    .failures()
                    .iter()
                    .map(|c| format!("{}/{}", c.model, c.mode))
                    .collect();
                format!("bounds: calibration gate failed on {}", names.join(", "))
            });
            JobBody {
                log,
                comparisons: Vec::new(),
                files: vec![("bounds_calibration.json".into(), cal.to_json())],
                failure,
            }
        }));
    }

    if selected("fitted") {
        push("fitted", "fitted distributional surrogate: tables + calibration gate (extension)", Box::new(move || {
            let mut log = String::new();
            // Fit (or reuse this process's shared fit) and gate the
            // tables against held-out cycle-accurate runs.
            let t_fit = Instant::now();
            let cal = fitted::FittedCalibration::shared(scale);
            let fit_s = t_fit.elapsed().as_secs_f64();
            let _ = writeln!(log, "{cal}");
            // The wall-clock comparison the tier exists for: the
            // largest cycle-accurate grid cell vs the fitted scaled
            // sweep, normalised per simulated device-interval. Timing
            // rows land in bench_timings.json's `comparisons` array
            // (exempt from the byte-identity contract).
            let t_ref = Instant::now();
            let (ref_devices, ref_intervals) = fleet::run_reference_cell(scale);
            let ref_s = t_ref.elapsed().as_secs_f64();
            let t_scaled = Instant::now();
            let scaled = fleet::run_scaled(scale);
            let scaled_s = t_scaled.elapsed().as_secs_f64();
            let ref_di = (ref_devices as u64 * ref_intervals) as f64;
            let scaled_di: f64 = scaled
                .iter()
                .map(|c| (c.fleet_size as u64 * c.intervals) as f64)
                .sum();
            let throughput_x = if ref_s > 0.0 && scaled_s > 0.0 {
                (scaled_di / scaled_s) / (ref_di / ref_s)
            } else {
                0.0
            };
            let _ = writeln!(
                log,
                "  wall-clock: cycle-accurate {ref_devices}x{ref_intervals} \
                 device-intervals in {ref_s:.1}s vs fitted {scaled_di:.0} \
                 device-intervals in {scaled_s:.1}s — {throughput_x:.2}x \
                 per device-interval (fit itself: {fit_s:.1}s)",
            );
            let mut comparisons = vec![
                format!("{{\"id\":\"fit\",\"wall_s\":{fit_s:.3}}}"),
                format!(
                    "{{\"id\":\"cycle_accurate_reference\",\"wall_s\":{ref_s:.3},\
                     \"devices\":{ref_devices},\"intervals\":{ref_intervals},\
                     \"device_intervals\":{ref_di:.0}}}"
                ),
            ];
            for c in &scaled {
                comparisons.push(format!(
                    "{{\"id\":\"fitted_scaled_{}x{}\",\"devices\":{},\
                     \"intervals\":{},\"device_intervals\":{}}}",
                    c.fleet_size,
                    c.intervals,
                    c.fleet_size,
                    c.intervals,
                    c.fleet_size as u64 * c.intervals,
                ));
            }
            comparisons.push(format!(
                "{{\"id\":\"fitted_scaled_total\",\"wall_s\":{scaled_s:.3},\
                 \"device_intervals\":{scaled_di:.0},\
                 \"throughput_x_vs_cycle_accurate\":{throughput_x:.2}}}"
            ));
            // The CI smoke gate: every fitted sample inside the static
            // envelope, measured service contained, and every
            // sufficiently-populated held-out contention bucket within
            // the relative-error ceiling — failures are named per
            // (model, bucket).
            let failure = (!cal.all_calibrated()).then(|| {
                format!("fitted: calibration gate failed ({})", cal.failures().join("; "))
            });
            JobBody {
                log,
                comparisons,
                files: vec![("fitted_tables.json".into(), cal.to_json())],
                failure,
            }
        }));
    }

    if selected("numerics") {
        push("numerics", "HBFP numerics-pass calibration against the executed fixed-point kernels (extension)", Box::new(move || {
            let mut log = String::new();
            let sweep = numerics::run(scale);
            let _ = writeln!(log, "{sweep}");
            // The CI smoke gate: on every (paper model × lowering) cell
            // the EQX08xx pass must be error-free and every reduction
            // chain it marked safe must survive the executed-arithmetic
            // probes (adversarial, tightness, and seeded random) with
            // zero saturation events — a single false-safe verdict
            // fails the job by name.
            let failure = (!sweep.all_calibrated()).then(|| {
                let names: Vec<String> = sweep
                    .failures()
                    .iter()
                    .map(|c| format!("{}/{}", c.model, c.mode))
                    .collect();
                format!(
                    "numerics: calibration gate failed on {} ({} false-safe verdict(s))",
                    names.join(", "),
                    sweep.false_safe_count(),
                )
            });
            JobBody {
                log,
                comparisons: Vec::new(),
                files: vec![("numerics_sweep.json".into(), sweep.to_json())],
                failure,
            }
        }));
    }

    if selected("checks") {
        push("checks", "equinox-check verdicts for the drivers' configurations", Box::new(move || {
            let mut log = String::new();
            use equinox_core::Equinox;
            use equinox_isa::models::ModelSpec;
            use equinox_model::LatencyConstraint;
            // One verdict per (driver, design, workload) the experiment
            // drivers exercise; regenerated alongside the artifacts so the
            // static-analysis state of every published number is recorded.
            let grid: [(&str, LatencyConstraint, ModelSpec, usize); 7] = [
                ("fig7/fig8/fig10/fig11", LatencyConstraint::Micros(500), ModelSpec::lstm_2048_25(), 0),
                ("fig9", LatencyConstraint::Micros(50), ModelSpec::lstm_2048_25(), 0),
                ("fig9/min", LatencyConstraint::MinLatency, ModelSpec::lstm_2048_25(), 0),
                ("table2/gru", LatencyConstraint::Micros(500), ModelSpec::gru_2816_1500(), 0),
                ("table2/resnet", LatencyConstraint::Micros(500), ModelSpec::resnet50(), 8),
                ("table2/mlp", LatencyConstraint::Micros(500), ModelSpec::mlp_2048x5(), 0),
                ("diurnal/fault", LatencyConstraint::Micros(500), ModelSpec::lstm_2048_25(), 0),
            ];
            // The grid rows are independent: analyze them concurrently
            // and stitch log + JSON back together in row order.
            let verdicts = equinox_par::parallel_map(grid.to_vec(), |(driver, constraint, model, batch)| {
                let eq = Equinox::build(equinox_arith::Encoding::Hbfp8, constraint)
                    .expect("paper designs exist");
                let batch = if batch == 0 { eq.dims().n } else { batch };
                let report = eq.check(&model, batch);
                (driver, report)
            });
            let mut check_errors = 0usize;
            let mut json = String::from("{\"tool\":\"regen-results\",\"reports\":[");
            for (i, (driver, report)) in verdicts.iter().enumerate() {
                let _ = writeln!(
                    log,
                    "  {driver}: {} error(s), {} warning(s)",
                    report.error_count(),
                    report.warning_count()
                );
                check_errors += report.error_count();
                if i > 0 {
                    json.push(',');
                }
                let _ = write!(
                    json,
                    "{{\"driver\":\"{driver}\",\"report\":{}}}",
                    report.to_json()
                );
            }
            // The training lowerings behind every "training for free" number:
            // one full backward-pass + weight-update program per paper model
            // on the 500 µs design, vetted by the operand-level dataflow
            // pass. The GRU's 1500-step unroll exceeds the facade's default
            // analysis cap, so these rows use one large enough that nothing
            // is skipped.
            let eq = Equinox::build(equinox_arith::Encoding::Hbfp8, LatencyConstraint::Micros(500))
                .expect("paper designs exist");
            let training_reports = equinox_par::parallel_map(
                vec![
                    ModelSpec::lstm_2048_25(),
                    ModelSpec::gru_2816_1500(),
                    ModelSpec::resnet50(),
                    ModelSpec::mlp_2048x5(),
                ],
                |model| {
                    let report = eq.check_training(&model, 16_000_000);
                    (model.name().to_string(), report)
                },
            );
            for (name, report) in &training_reports {
                let _ = writeln!(
                    log,
                    "  training/{name}: {} error(s), {} warning(s)",
                    report.error_count(),
                    report.warning_count()
                );
                check_errors += report.error_count();
                let _ = write!(
                    json,
                    ",{{\"driver\":\"training/{name}\",\"report\":{}}}",
                    report.to_json()
                );
            }
            json.push_str("]}");
            let failure = (check_errors > 0).then(|| {
                format!("checks: {check_errors} error-severity diagnostic(s) in driver configurations")
            });
            JobBody {
                log,
                comparisons: Vec::new(),
                files: vec![("driver_checks.json".into(), json)],
                failure,
            }
        }));
    }

    jobs
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    let selected = |id: &str| {
        args.is_empty() || args.iter().any(|a| a == id || a.starts_with(id))
    };
    let scale = if quick { ExperimentScale::Quick } else { ExperimentScale::Full };
    let threads = equinox_par::thread_count();
    let start = Instant::now();

    // Enumerate in canonical order, run concurrently, then emit logs /
    // write artifacts back in that order (see the module docs for the
    // determinism contract).
    let jobs = jobs_for(selected, scale);
    let results = equinox_par::parallel_map(jobs, |job| {
        let t = Instant::now();
        let body = (job.run)();
        JobResult { id: job.id, title: job.title, body, wall_s: t.elapsed().as_secs_f64() }
    });

    let mut failures: Vec<String> = Vec::new();
    for r in &results {
        println!("\n=== {}: {} ===", r.id, r.title);
        print!("{}", r.body.log);
        for (name, content) in &r.body.files {
            write_result(name, content);
        }
        println!("  [{:.1}s]", r.wall_s);
        failures.extend(r.body.failure.iter().cloned());
    }

    let elapsed = start.elapsed().as_secs_f64();
    write_result(
        "bench_timings.json",
        &timings_json(threads, quick, elapsed, &results),
    );
    println!("\nAll selected experiments done in {elapsed:.1}s ({threads} thread(s)).");

    if quick {
        // The CI smoke job runs `--quick`; a blowup here means a grid
        // accidentally regained full scale. Budgets are per-id so the
        // offender is named instead of failing on the aggregate.
        println!("\n--quick wall-clock budgets:");
        println!("  {:<10} {:>8} {:>10}  verdict", "id", "wall_s", "budget_s");
        for r in &results {
            let budget = quick_budget_s(r.id);
            let ok = r.wall_s <= budget;
            println!(
                "  {:<10} {:>8.1} {:>10.0}  {}",
                r.id,
                r.wall_s,
                budget,
                if ok { "ok" } else { "OVER" }
            );
            if !ok {
                failures.push(format!(
                    "{}: --quick run took {:.1}s, over its {budget:.0}s smoke budget",
                    r.id, r.wall_s
                ));
            }
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("{f}");
        }
        std::process::exit(1);
    }
}
