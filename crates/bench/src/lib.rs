//! # equinox-bench
//!
//! The experiment registry that regenerates every table and figure of
//! the paper's evaluation, plus the extension sweeps.
//!
//! [`EXPERIMENTS`] declares each regen id exactly once: its title, its
//! `--quick` wall-clock budget and the function that runs it. Everything
//! else is driven from that table:
//!
//! * `cargo run --release -p equinox-bench --bin regen-results [--quick] [ids…]`
//!   runs the selected entries (all of them with no ids), writes their
//!   files into `results/` and fails on any gate.
//! * `tests/determinism.rs` renders every entry at 1 and 4 threads and
//!   diffs the files and gate verdicts.
//!
//! See `DESIGN.md` for the per-experiment index and `EXPERIMENTS.md`
//! for paper-vs-measured numbers.

use equinox_arith::Encoding;
use equinox_core::experiments::{
    ablation, allreduce, bounds_calibration, diurnal, fault_sweep, fig10, fig11, fig2, fig6,
    fig7, fig8, fig9, fitted, fleet, numerics, serve, software_sched, table1, table2, table3,
};
use equinox_core::{Equinox, ExperimentScale};
use equinox_isa::models::ModelSpec;
use equinox_model::LatencyConstraint;
use std::fmt::Write as _;
use std::time::Instant;

/// One regen id: what it is called, how long `--quick` may take, and
/// how to run it.
#[derive(Debug)]
pub struct Experiment {
    /// The id `regen-results` accepts on its command line.
    pub id: &'static str,
    /// The human title printed above the experiment's log.
    pub title: &'static str,
    /// The `--quick` wall-clock budget, seconds: about 3× the measured
    /// quick runtime, at least 15 s, so only a grid that regained full
    /// scale trips it.
    pub quick_budget_s: f64,
    /// Runs the experiment and renders everything it emits.
    pub run: fn(ExperimentScale) -> Output,
}

/// Everything one experiment produced, rendered but not yet emitted.
#[derive(Debug, Default)]
pub struct Output {
    /// The human log printed to stdout.
    pub log: String,
    /// `results/` payloads as `(file name, content)`. Byte-identical at
    /// any thread count.
    pub files: Vec<(String, String)>,
    /// The pass/fail checks this run is held to.
    pub gates: Vec<Gate>,
    /// Pre-rendered JSON rows for the `comparisons` array of
    /// `bench_timings.json`: wall-clock comparisons the experiment
    /// measured itself, exempt from the byte-identity contract.
    pub comparisons: Vec<String>,
}

/// One named pass/fail check on an experiment's results.
#[derive(Debug)]
pub struct Gate {
    /// A stable name, unique within its experiment.
    pub name: &'static str,
    /// Whether the check passed.
    pub ok: bool,
    /// What went wrong; empty when the gate passed.
    pub detail: String,
}

impl Gate {
    /// A gate named `name`; `detail` only runs when the gate failed.
    pub fn new(name: &'static str, ok: bool, detail: impl FnOnce() -> String) -> Gate {
        Gate { name, ok, detail: if ok { String::new() } else { detail() } }
    }
}

impl Output {
    fn new(log: String, files: Vec<(&str, String)>) -> Output {
        let files = files.into_iter().map(|(name, body)| (name.to_string(), body)).collect();
        Output { log, files, ..Output::default() }
    }

    fn with_gates(mut self, gates: Vec<Gate>) -> Output {
        self.gates = gates;
        self
    }
}

/// Every regen id, in the order `regen-results` runs and reports them.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment { id: "fig2", title: "hbfp8 vs fp32 convergence (Figure 2)", quick_budget_s: 30.0, run: run_fig2 },
    Experiment { id: "fig6", title: "design-space scatter (Figure 6)", quick_budget_s: 15.0, run: run_fig6 },
    Experiment { id: "table1", title: "Pareto-optimal designs (Table 1)", quick_budget_s: 15.0, run: run_table1 },
    Experiment { id: "fig7", title: "inference tail latency vs throughput (Figure 7)", quick_budget_s: 15.0, run: run_fig7 },
    Experiment { id: "fig8", title: "cycle breakdown (Figure 8)", quick_budget_s: 15.0, run: run_fig8 },
    Experiment { id: "fig9", title: "training throughput vs inference load (Figure 9)", quick_budget_s: 15.0, run: run_fig9 },
    Experiment { id: "table2", title: "workload sensitivity (Table 2, + MLP/Transformer extension)", quick_budget_s: 15.0, run: run_table2 },
    Experiment { id: "table3", title: "area and power (Table 3)", quick_budget_s: 15.0, run: run_table3 },
    Experiment { id: "fig10", title: "scheduling policies (Figure 10)", quick_budget_s: 15.0, run: run_fig10 },
    Experiment { id: "fig11", title: "adaptive batching (Figure 11)", quick_budget_s: 15.0, run: run_fig11 },
    Experiment { id: "software", title: "software vs hardware scheduling (§6 text)", quick_budget_s: 15.0, run: run_software },
    Experiment { id: "diurnal", title: "training for free over a day (extension)", quick_budget_s: 15.0, run: run_diurnal },
    Experiment { id: "ablation", title: "design-choice ablations (extensions)", quick_budget_s: 15.0, run: run_ablation },
    Experiment { id: "fault", title: "fault injection × graceful degradation (extension)", quick_budget_s: 15.0, run: run_fault },
    Experiment { id: "fleet", title: "fleet size × routing policy × load (extension)", quick_budget_s: 15.0, run: run_fleet },
    Experiment { id: "allreduce", title: "gradient all-reduce: harvest-vs-sync frontier (extension)", quick_budget_s: 15.0, run: run_allreduce },
    Experiment { id: "serve", title: "admission control × overload × autoscaling (extension)", quick_budget_s: 40.0, run: run_serve },
    Experiment { id: "bounds", title: "static bound calibration against the cycle-accurate sim (extension)", quick_budget_s: 15.0, run: run_bounds },
    Experiment { id: "fitted", title: "fitted distributional surrogate: tables + calibration gate (extension)", quick_budget_s: 15.0, run: run_fitted },
    Experiment { id: "numerics", title: "HBFP numerics-pass calibration against the executed fixed-point kernels (extension)", quick_budget_s: 15.0, run: run_numerics },
    Experiment { id: "checks", title: "equinox-check verdicts for the drivers' configurations", quick_budget_s: 15.0, run: run_checks },
];

/// The registry entries named by `ids`, in registry order; every entry
/// when `ids` is empty. Ids match exactly; the first unknown one is
/// returned as an error message listing the valid ids.
pub fn select(ids: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if let Some(unknown) = ids.iter().find(|a| !EXPERIMENTS.iter().any(|e| e.id == *a)) {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        return Err(format!("unknown experiment id `{unknown}`; valid ids: {}", valid.join(", ")));
    }
    Ok(EXPERIMENTS
        .iter()
        .filter(|e| ids.is_empty() || ids.iter().any(|a| a == e.id))
        .collect())
}

fn run_fig2(scale: ExperimentScale) -> Output {
    let fig = fig2::run(scale);
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
    Output::new(format!("{fig}\n"), vec![("fig2_convergence.csv", csv)])
}

fn run_fig6(_: ExperimentScale) -> Output {
    let fig = fig6::run();
    let log = format!("{fig}\n");
    Output::new(log, vec![("fig6a_hbfp8.csv", fig.hbfp8_csv), ("fig6b_bfloat16.csv", fig.bf16_csv)])
}

fn run_table1(_: ExperimentScale) -> Output {
    let table = table1::run();
    Output::new(format!("{table}\n"), vec![("table1_pareto.txt", table.to_string())])
}

fn run_fig7(scale: ExperimentScale) -> Output {
    let mut out = Output::default();
    for (panel, encoding) in [("a", Encoding::Hbfp8), ("b", Encoding::Bfloat16)] {
        let fig = fig7::run(encoding, scale);
        let _ = writeln!(out.log, "{fig}");
        let mut csv = String::from("config,load,inference_tops,p99_ms\n");
        for s in &fig.series {
            for p in &s.points {
                let _ = writeln!(csv, "{},{},{},{}", s.name, p.load, p.inference_tops, p.p99_ms);
            }
        }
        out.files.push((format!("fig7{panel}_{encoding}.csv"), csv));
    }
    out
}

fn run_fig8(scale: ExperimentScale) -> Output {
    let fig = fig8::run(scale);
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
    Output::new(format!("{fig}\n"), vec![("fig8_breakdown.csv", csv)])
}

fn run_fig9(scale: ExperimentScale) -> Output {
    let fig = fig9::run(scale);
    let mut log = format!("{fig}\n");
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
    Output::new(log, vec![("fig9_training.csv", csv)])
}

fn run_table2(scale: ExperimentScale) -> Output {
    let table = table2::run_extended(scale);
    Output::new(format!("{table}\n"), vec![("table2_workloads.txt", table.to_string())])
}

fn run_table3(_: ExperimentScale) -> Output {
    let report = table3::run();
    let mut log = format!("{report}\n");
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
    Output::new(log, vec![("table3_area_power.txt", report.to_string())])
}

fn run_fig10(scale: ExperimentScale) -> Output {
    let fig = fig10::run(scale);
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
    Output::new(format!("{fig}\n"), vec![("fig10_scheduling.csv", csv)])
}

fn run_fig11(scale: ExperimentScale) -> Output {
    let fig = fig11::run(scale);
    let mut csv = String::from("panel,series,load,inference_tops,p99_ms,training_tops\n");
    for (panel, series) in [("a", &fig.panel_a), ("b", &fig.panel_b), ("c", &fig.panel_c)] {
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
    Output::new(format!("{fig}\n"), vec![("fig11_batching.csv", csv)])
}

fn run_software(scale: ExperimentScale) -> Output {
    let study = software_sched::run(scale);
    Output::new(format!("{study}\n"), vec![("software_scheduling.txt", study.to_string())])
}

fn run_diurnal(scale: ExperimentScale) -> Output {
    let d = diurnal::run(scale);
    Output::new(format!("{d}\n"), vec![("diurnal.txt", d.to_string())])
}

fn run_ablation(scale: ExperimentScale) -> Output {
    let a = ablation::run(scale);
    Output::new(format!("{a}\n"), vec![("ablations.txt", a.to_string())])
}

fn run_fault(scale: ExperimentScale) -> Output {
    let sweep = fault_sweep::run(scale);
    Output::new(format!("{sweep}\n"), vec![("fault_sweep.json", sweep.to_json())]).with_gates(vec![
        Gate::new("baseline_clean", sweep.baseline_is_clean(), || {
            "the no-fault baseline violated the SLO".into()
        }),
        Gate::new("policies_pass_checks", !sweep.has_check_errors(), || {
            "a degradation policy failed the equinox-check lints".into()
        }),
    ])
}

fn run_fleet(scale: ExperimentScale) -> Output {
    let sweep = fleet::run(scale);
    Output::new(format!("{sweep}\n"), vec![("fleet_sweep.json", sweep.to_json())]).with_gates(vec![
        Gate::new("training_aware_wins", sweep.training_aware_wins(), || {
            "training-aware routing did not harvest more free epochs than round-robin \
             at the moderate load with a clean SLO on every fleet size"
                .into()
        }),
    ])
}

fn run_allreduce(scale: ExperimentScale) -> Output {
    let sweep = allreduce::run(scale);
    let log = format!("{sweep}\n");
    let gates = vec![
        Gate::new("frontier_complete", sweep.frontier_complete(), || {
            "a (topology, schedule, load) cell is missing".into()
        }),
        Gate::new("synced_positive_at_moderate", sweep.synced_positive_at_moderate(), || {
            "a fabric did not complete its round with positive synced epochs at the moderate load"
                .into()
        }),
        Gate::new("reference_slo_clean", sweep.reference_slo_clean(), || {
            "the paid tier was touched at a one-big-switch reference cell".into()
        }),
        Gate::new("conserved", sweep.conserved(), || "a link did not conserve bytes".into()),
        Gate::new("lints_clean", sweep.lints_clean(), || {
            "the EQX09xx interconnect lints reported an error".into()
        }),
    ];
    Output::new(log, vec![("allreduce_sweep.json", sweep.to_json())]).with_gates(gates)
}

fn run_serve(scale: ExperimentScale) -> Output {
    let sweep = serve::run(scale);
    let log = format!("{sweep}\n");
    let gates = vec![
        Gate::new("priority_protects_paid", sweep.priority_protects_paid(), || {
            "at 120% load the priority policy did not hold the paid SLO while admit-all broke it"
                .into()
        }),
        Gate::new("free_is_shed_first", sweep.free_is_shed_first(), || {
            "free traffic was not shed at a higher rate than paid".into()
        }),
        Gate::new("autoscale_drains_cleanly", sweep.autoscale_drains_cleanly(), || {
            "the autoscaling day did not both grow and shrink, or lost a request".into()
        }),
        Gate::new("trace_scale_reached", sweep.trace_scale_reached(), || {
            "the heaviest cell offered fewer requests than trace scale".into()
        }),
        Gate::new("lints_clean", sweep.lints_clean(), || {
            "the EQX07xx serving lints reported an error".into()
        }),
    ];
    Output::new(log, vec![("serve_sweep.json", sweep.to_json())]).with_gates(gates)
}

fn run_bounds(scale: ExperimentScale) -> Output {
    let cal = bounds_calibration::run(scale);
    let gate = Gate::new("all_calibrated", cal.all_calibrated(), || {
        let cells: Vec<String> =
            cal.failures().iter().map(|c| format!("{}/{}", c.model, c.mode)).collect();
        format!("calibration failed on {}", cells.join(", "))
    });
    Output::new(format!("{cal}\n"), vec![("bounds_calibration.json", cal.to_json())])
        .with_gates(vec![gate])
}

fn run_fitted(scale: ExperimentScale) -> Output {
    // Fit (or reuse this process's shared fit) and gate the tables
    // against held-out cycle-accurate runs.
    let t_fit = Instant::now();
    let cal = fitted::FittedCalibration::shared(scale);
    let fit_s = t_fit.elapsed().as_secs_f64();
    let mut log = format!("{cal}\n");
    // The wall-clock comparison the tier exists for: the largest
    // cycle-accurate grid cell vs the fitted scaled sweep, normalised
    // per simulated device-interval.
    let t_ref = Instant::now();
    let (ref_devices, ref_intervals) = fleet::run_reference_cell(scale);
    let ref_s = t_ref.elapsed().as_secs_f64();
    let t_scaled = Instant::now();
    let scaled = fleet::run_scaled(scale);
    let scaled_s = t_scaled.elapsed().as_secs_f64();
    let ref_di = (ref_devices as u64 * ref_intervals) as f64;
    let scaled_di: f64 = scaled.iter().map(|c| (c.fleet_size as u64 * c.intervals) as f64).sum();
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
    let gate = Gate::new("all_calibrated", cal.all_calibrated(), || cal.failures().join("; "));
    Output {
        comparisons,
        ..Output::new(log, vec![("fitted_tables.json", cal.to_json())]).with_gates(vec![gate])
    }
}

fn run_numerics(scale: ExperimentScale) -> Output {
    let sweep = numerics::run(scale);
    let gate = Gate::new("all_calibrated", sweep.all_calibrated(), || {
        let cells: Vec<String> =
            sweep.failures().iter().map(|c| format!("{}/{}", c.model, c.mode)).collect();
        format!(
            "calibration failed on {} ({} false-safe verdict(s))",
            cells.join(", "),
            sweep.false_safe_count(),
        )
    });
    Output::new(format!("{sweep}\n"), vec![("numerics_sweep.json", sweep.to_json())])
        .with_gates(vec![gate])
}

fn run_checks(_: ExperimentScale) -> Output {
    // One verdict per (driver, design, workload) the experiment drivers
    // exercise, so the static-analysis state of every published number
    // is recorded.
    let grid: [(&str, LatencyConstraint, ModelSpec); 7] = [
        ("fig7/fig8/fig10/fig11", LatencyConstraint::Micros(500), ModelSpec::lstm_2048_25()),
        ("fig9", LatencyConstraint::Micros(50), ModelSpec::lstm_2048_25()),
        ("fig9/min", LatencyConstraint::MinLatency, ModelSpec::lstm_2048_25()),
        ("table2/gru", LatencyConstraint::Micros(500), ModelSpec::gru_2816_1500()),
        ("table2/resnet", LatencyConstraint::Micros(500), ModelSpec::resnet50()),
        ("table2/mlp", LatencyConstraint::Micros(500), ModelSpec::mlp_2048x5()),
        ("diurnal/fault", LatencyConstraint::Micros(500), ModelSpec::lstm_2048_25()),
    ];
    let verdicts = equinox_par::parallel_map(grid.to_vec(), |(driver, constraint, model)| {
        let eq = Equinox::build(Encoding::Hbfp8, constraint).expect("paper designs exist");
        (driver.to_string(), eq.check(&model, model.serving_batch(&eq.dims())))
    });
    // The training lowerings behind every "training for free" number:
    // one full backward-pass + weight-update program per paper model on
    // the 500 µs design. The GRU's 1500-step unroll exceeds the facade's
    // default analysis cap, so these rows use one large enough that
    // nothing is skipped.
    let eq = Equinox::build(Encoding::Hbfp8, LatencyConstraint::Micros(500))
        .expect("paper designs exist");
    let training = equinox_par::parallel_map(
        vec![
            ModelSpec::lstm_2048_25(),
            ModelSpec::gru_2816_1500(),
            ModelSpec::resnet50(),
            ModelSpec::mlp_2048x5(),
        ],
        |model| (format!("training/{}", model.name()), eq.check_training(&model, 16_000_000)),
    );
    let mut log = String::new();
    let mut json = String::from("{\"tool\":\"regen-results\",\"reports\":[");
    let mut errors = 0usize;
    for (i, (driver, report)) in verdicts.iter().chain(&training).enumerate() {
        let _ = writeln!(
            log,
            "  {driver}: {} error(s), {} warning(s)",
            report.error_count(),
            report.warning_count()
        );
        errors += report.error_count();
        if i > 0 {
            json.push(',');
        }
        let _ = write!(json, "{{\"driver\":\"{driver}\",\"report\":{}}}", report.to_json());
    }
    json.push_str("]}");
    let gate = Gate::new("no_check_errors", errors == 0, || {
        format!("{errors} error-severity diagnostic(s) in driver configurations")
    });
    Output::new(log, vec![("driver_checks.json", json)]).with_gates(vec![gate])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn ids(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        select(&args).map(|sel| sel.iter().map(|e| e.id).collect())
    }

    #[test]
    fn ids_are_unique() {
        let unique: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(unique.len(), EXPERIMENTS.len());
    }

    #[test]
    fn select_matches_ids_exactly_in_registry_order() {
        assert_eq!(ids(&[]).unwrap().len(), EXPERIMENTS.len());
        assert_eq!(ids(&["serve", "fig2", "serve"]).unwrap(), ["fig2", "serve"]);
        assert_eq!(ids(&["fig11"]).unwrap(), ["fig11"]);
        for bad in ["serv", "fig2bogus", "fig1", "", "--full"] {
            let err = ids(&["fig2", bad]).unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "{err}");
            assert!(err.contains("fig2, fig6, table1"), "{err}");
        }
    }

    #[test]
    fn budgets_have_the_fifteen_second_floor() {
        for e in EXPERIMENTS {
            assert!(e.quick_budget_s >= 15.0, "{}: {}", e.id, e.quick_budget_s);
        }
    }

    /// The per-experiment index in DESIGN.md lists exactly the registry
    /// ids, so the documentation cannot drift from the code.
    #[test]
    fn design_index_lists_every_registry_id() {
        let design = include_str!("../../../DESIGN.md");
        let index = design
            .split("## Per-experiment index")
            .nth(1)
            .and_then(|s| s.split("\n## ").next())
            .expect("DESIGN.md has a per-experiment index");
        let documented: BTreeSet<&str> = index
            .lines()
            .filter_map(|l| l.strip_prefix('|')?.split('|').next())
            .map(str::trim)
            .filter(|c| !c.is_empty() && *c != "ID" && !c.starts_with('-'))
            .collect();
        let registered: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(documented, registered);
    }
}
