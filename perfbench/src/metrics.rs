//! Every metric the benchmark reports: name, unit, direction and what
//! it measures. `BENCHMARK.json` at the repository root declares the
//! same names (a test keeps the two in step).

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// What it measures.
    pub what: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        what,
    }
}

/// End-to-end metrics, measured with tracing off (`--trace 0`). Every
/// workload reports every one.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower", "host time of one set-up in a fresh process on a one-thread pool, at the reference host speed (set-ups repeated for at least 50 ms per process and averaged), median over several processes"),
    m("run_s", "s", "lower", "host time of one closed-loop iteration on a one-thread pool, at the reference host speed, median over the run"),
    m("items_per_s", "1/s", "higher", "simulated requests offered (fleet and engine workloads) or training samples processed (hbfp_train) per host second at the reference host speed, median over iterations"),
    m("peak_rss_mb", "MB", "lower", "peak resident set of the measuring process, a fresh one, over its set-up and first iteration"),
];

/// Per-layer metrics, measured in the traced run (`--trace 1`). Host
/// times are medians over traced iterations (set-up layers: the one
/// traced set-up); `sim.*` and `train.*` are deterministic modelled
/// results. A layer a workload does not reach reports 0.
pub const PER_LAYER: &[Metric] = &[
    // arith::gemm and the trainer (hbfp_train)
    m(
        "arith.gemm.calls",
        "count",
        "lower",
        "GEMM calls per iteration",
    ),
    m(
        "arith.gemm.macs",
        "MAC",
        "lower",
        "multiply-accumulates per iteration, all precisions",
    ),
    m(
        "arith.gemm.busy_s",
        "s",
        "lower",
        "host time inside GEMM calls per iteration",
    ),
    m(
        "arith.gemm_f32.mac_per_s",
        "MAC/s",
        "higher",
        "fp32 GEMM throughput",
    ),
    m(
        "arith.gemm_bf16.mac_per_s",
        "MAC/s",
        "higher",
        "bfloat16 GEMM throughput",
    ),
    m(
        "arith.gemm_hbfp.mac_per_s",
        "MAC/s",
        "higher",
        "hbfp8 GEMM throughput",
    ),
    m(
        "arith.quant.busy_s",
        "s",
        "lower",
        "host time in weight-store and write-back conversions per iteration",
    ),
    m(
        "trainer.self_s",
        "s",
        "lower",
        "trainer time outside the arith calls per iteration",
    ),
    // isa::lower + isa::cache, check passes, model (paper_colocate set-up)
    m(
        "isa.lower.instr",
        "instr",
        "lower",
        "instructions lowered in set-up",
    ),
    m(
        "isa.lower.busy_s",
        "s",
        "lower",
        "host time lowering in set-up",
    ),
    m(
        "isa.lower.instr_per_s",
        "instr/s",
        "higher",
        "lowering throughput",
    ),
    m(
        "isa.cache.hits",
        "count",
        "higher",
        "compile-cache hits during a cold set-up",
    ),
    m(
        "isa.cache.misses",
        "count",
        "lower",
        "compile-cache misses during a cold set-up",
    ),
    m(
        "check.dataflow.busy_s",
        "s",
        "lower",
        "host time in the dataflow pass",
    ),
    m(
        "check.resources.busy_s",
        "s",
        "lower",
        "host time in the resources pass (installation fit included)",
    ),
    m(
        "check.encoding.busy_s",
        "s",
        "lower",
        "host time in the encoding pass",
    ),
    m(
        "check.config.busy_s",
        "s",
        "lower",
        "host time in the configuration lints",
    ),
    m(
        "check.bounds.busy_s",
        "s",
        "lower",
        "host time in the bounds pass",
    ),
    m(
        "check.numerics.busy_s",
        "s",
        "lower",
        "host time in the numerics pass",
    ),
    m(
        "check.instr_per_s",
        "instr/s",
        "higher",
        "instructions checked per host second over all passes",
    ),
    m(
        "model.build.busy_s",
        "s",
        "lower",
        "host time of Equinox::build (design-space exploration)",
    ),
    // sim::loadgen, sim::engine, sim::stats
    m(
        "sim.loadgen.trace.ns_per_arrival",
        "ns",
        "lower",
        "trace_arrivals cost per arrival",
    ),
    m(
        "sim.loadgen.poisson.ns_per_arrival",
        "ns",
        "lower",
        "poisson_arrivals cost per arrival",
    ),
    m(
        "sim.engine.busy_s",
        "s",
        "lower",
        "host time in Simulation::run per iteration",
    ),
    m(
        "sim.engine.req_per_s",
        "1/s",
        "higher",
        "engine requests completed per host second",
    ),
    m(
        "sim.engine.ns_per_batch",
        "ns",
        "lower",
        "engine host time per batch issued",
    ),
    m(
        "sim.engine.batches",
        "count",
        "lower",
        "batches issued per iteration",
    ),
    m(
        "sim.engine.training_iters",
        "count",
        "higher",
        "training iterations' worth of MMU cycles granted per iteration",
    ),
    m(
        "sim.stats.merge_s",
        "s",
        "lower",
        "host time of LatencyStats::merged over the per-device runs",
    ),
    // fleet: front end and surrogate walks
    m(
        "fleet.run.busy_s",
        "s",
        "lower",
        "host time in Fleet::run per iteration",
    ),
    m(
        "fleet.run.ns_per_arrival",
        "ns",
        "lower",
        "Fleet::run host time per offered arrival",
    ),
    m(
        "fleet.residual_s",
        "s",
        "lower",
        "Fleet::run minus the probed loadgen, merge and net spans",
    ),
    m(
        "fleet.admission.shed_frac",
        "frac",
        "lower",
        "share of offered requests shed at admission",
    ),
    m(
        "fleet.autoscale.spans",
        "count",
        "lower",
        "autoscaler join and drain spans",
    ),
    m(
        "fleet.fitted.lookups",
        "count",
        "lower",
        "fitted-table lookups per iteration",
    ),
    m(
        "fleet.fitted.sample_ns",
        "ns",
        "lower",
        "FittedTable::sample cost per draw (probe on synthetic depths, not the run's)",
    ),
    // net
    m(
        "net.round.busy_s",
        "s",
        "lower",
        "host time of one all-reduce round (probe)",
    ),
    m(
        "net.link_packets",
        "count",
        "lower",
        "packet-sized units delivered over all links in the round",
    ),
    m(
        "net.packets_per_s",
        "1/s",
        "higher",
        "link packets per host second of the round",
    ),
    m(
        "net.round_cycles",
        "cycles",
        "lower",
        "simulated cycles of the round",
    ),
    m(
        "net.retries",
        "count",
        "lower",
        "go-back-N retransmissions in the round",
    ),
    m(
        "net.dropped_packets",
        "count",
        "lower",
        "packets dropped on all links in the round",
    ),
    m(
        "net.peak_link_util",
        "frac",
        "lower",
        "highest per-link utilization in the round",
    ),
    // modelled results (deterministic per seed)
    m(
        "sim.p99_ms",
        "ms",
        "lower",
        "simulated p99 latency (fleet_256: fleet; paper_colocate: priority at 90% load)",
    ),
    m(
        "sim.paid_p999_ms",
        "ms",
        "lower",
        "paid-tier simulated p999 latency",
    ),
    m(
        "sim.free_epochs",
        "epochs",
        "higher",
        "harvested training epochs",
    ),
    m(
        "sim.synced_epochs",
        "epochs",
        "higher",
        "harvested epochs after gradient all-reduce",
    ),
    m(
        "sim.train_tops",
        "TOp/s",
        "higher",
        "co-hosted training throughput under priority, mean over loads",
    ),
    m(
        "sim.fitted_err",
        "frac",
        "lower",
        "max held-out quantile error of the fitted tables against the engine",
    ),
    m(
        "train.hbfp8_gap",
        "ppl",
        "lower",
        "hbfp8 minus fp32 final validation perplexity, Markov LM",
    ),
    // the tracing itself
    m(
        "par.pool_time_ratio",
        "x",
        "lower",
        "host time of one iteration on the default equinox-par pool over the one-thread median (below 1: the pool helps)",
    ),
    m(
        "trace.overhead_frac",
        "frac",
        "lower",
        "traced run_s over untraced run_s, minus one",
    ),
    m(
        "trace.unattributed_frac",
        "frac",
        "lower",
        "share of a traced iteration outside every layer span",
    ),
];

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every metric name used by the benchmark.
    pub(crate) fn all() -> impl Iterator<Item = &'static Metric> {
        END_TO_END.iter().chain(PER_LAYER)
    }

    /// True for a valid metric name: `[A-Za-z0-9_.-]+`, starting with a
    /// letter or digit, at most 64 characters.
    pub(crate) fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for metric in all() {
            assert!(valid_name(metric.name), "{}", metric.name);
            assert!(seen.insert(metric.name), "duplicate {}", metric.name);
            assert!(
                matches!(metric.better, "lower" | "higher"),
                "{}",
                metric.name
            );
            assert!(
                !metric.unit.is_empty() && metric.unit.len() <= 16,
                "{}",
                metric.name
            );
        }
        for name in crate::workloads::NAMES {
            assert!(valid_name(name), "{name}");
        }
        assert!(!valid_name("a b") && !valid_name("") && !valid_name(".a"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let declared: BTreeSet<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let ours: BTreeSet<&str> = all()
            .map(|m| m.name)
            .chain(crate::workloads::NAMES)
            .collect();
        assert_eq!(declared, ours);
        for metric in all() {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                metric.name, metric.unit, metric.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for name in crate::workloads::NAMES {
            let entry = format!(
                "\"name\": \"{name}\", \"why\": \"{}\"",
                crate::workloads::why(name)
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
