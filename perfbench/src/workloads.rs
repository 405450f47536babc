//! The four workloads: set-up, one closed-loop iteration, and the
//! per-layer metrics of a traced iteration.
//!
//! Every input is generated from the workload seed, either up front in
//! set-up or, for the fleet workloads, by the fleet's own load
//! generator from `FleetRunOptions::seed` (that generator is one of the
//! layers being measured). One iteration makes one call at a time from
//! this thread; the `equinox-par` pool may fan a call out internally.

use crate::trace::Tracer;
use equinox::arith::rng::SplitMix64;
use equinox::arith::{Encoding, Matrix};
use equinox::check::{self, BoundsOptions, BufferBudget, NumericsOptions, Pass, PassSelection};
use equinox::core::experiments::allreduce::gradient_bytes;
use equinox::core::experiments::{fitted, ExperimentScale};
use equinox::core::Equinox;
use equinox::fleet::{
    AdmissionSpec, ArrivalSource, AutoscalePolicy, DeviceSpec, FittedTable, Fleet, FleetReport,
    FleetRunOptions, InterconnectSpec, RoutingPolicy, Topology,
};
use equinox::isa::cache::{self, compile_inference_cached, lower_training_cached};
use equinox::isa::lower::InferenceTiming;
use equinox::isa::models::ModelSpec;
use equinox::isa::training::{estimate_training_instructions, TrainingProfile, TrainingSetup};
use equinox::isa::{ArrayDims, EquinoxError};
use equinox::model::table1::LatencyConstraint;
use equinox::net::{run_allreduce_round, RoundOutcome};
use equinox::sim::loadgen::{
    poisson_arrivals, rate_for_load, split_seed, trace_arrivals, trace_mean_load, DiurnalProfile,
    FlashCrowd,
};
use equinox::sim::{
    AcceleratorConfig, CostModel, FaultScenario, LatencyStats, RequestClass, SchedulerPolicy,
    Simulation, SloSpec,
};
use equinox::trainer::backend::{Backend, Bf16Backend, Fp32Backend, Hbfp8Backend};
use equinox::trainer::dataset::{self, ClassificationData, LanguageData, SequenceData};
use equinox::trainer::lstm::{train_lstm_lm, LstmConfig};
use equinox::trainer::train::{
    train_classifier, train_language_model, ConvergenceCurve, TrainConfig,
};
use std::sync::Arc;

/// Workload names, in the order `--help` lists them.
pub const NAMES: [&str; 4] = ["serve_day", "fleet_256", "paper_colocate", "hbfp_train"];

/// Why each workload is in the benchmark: the layers it stresses.
pub fn why(name: &str) -> &'static str {
    match name {
        "serve_day" => "trace-day traffic at 120% overload into 8 devices with priority admission and the autoscaler: trace load generation dominates the run and admission sheds most requests",
        "fleet_256" => "Poisson traffic into 256 fitted-surrogate devices on a tree fabric: O(devices) routing and admission scans, the latency merge and the all-reduce packet loop",
        "paper_colocate" => "the paper's single-device evaluation: DSE, lowering and check passes in set-up, the cycle-accurate engine in the run; no fleet and no trace",
        "hbfp_train" => "the fig2 training tasks under fp32, hbfp8 and bfloat16: the arith GEMM kernels do most of the work and no simulator layer runs",
        _ => "",
    }
}

/// Per-request deadline as a multiple of the batch service time (the
/// serve and fleet sweeps' rule).
const DEADLINE_X: f64 = 16.0;

/// Share of arrivals that are paid-tier (the serve sweep's mix).
const PAID_FRACTION: f64 = 0.6;

/// Seed stream of the interconnect's background phases (see the
/// `equinox-fleet` crate docs).
const INTERCONNECT_STREAM: u64 = 1 << 33;

/// `serve_day`: devices, batch-service intervals in the day, overload.
const SERVE_DEVICES: usize = 8;
const SERVE_INTERVALS: u64 = 600;
const SERVE_LOAD: f64 = 1.2;

/// `fleet_256`: devices (the second half harvests), batch-service
/// intervals, offered load, devices per leaf switch.
const FLEET_DEVICES: usize = 256;
const FLEET_INTERVALS: u64 = 8;
const FLEET_LOAD: f64 = 0.3;
const FLEET_LEAF_GROUP: usize = 16;

/// Share of the LSTM's hbfp8 gradient one all-reduce round moves in
/// `fleet_256` (a 2 MiB bucket): it keeps the round under a second of
/// host time, so a run holds about ten iterations, while 128
/// participants still push millions of packets through the tree.
const FLEET_GRADIENT_SHARE: u64 = 8;

/// Inference DMA bytes per issued batch on a device's host link (the
/// allreduce sweep's figure).
const DMA_BYTES_PER_BATCH: u64 = 65_536;

/// `paper_colocate`: offered loads and simulated requests per cell.
const COLOCATE_LOADS: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
const COLOCATE_REQUESTS: f64 = 37_500.0;

/// Training-lowering size above which `Equinox::check` skips the
/// training analysis (its own cap; the traced set-up checks the probes
/// lowered what it lowers).
const TRAINING_CHECK_CAP: u64 = 2_000_000;

/// `hbfp_train`: dataset sizes and epochs.
const CLS_TRAIN: usize = 256;
const CLS_VAL: usize = 64;
const LM_TRAIN: usize = 512;
const LM_VAL: usize = 128;
const LSTM_SEQS: usize = 48;
const TRAIN_EPOCHS: usize = 3;

/// FNV-1a over integer counters and the bit patterns of floats: equal
/// fingerprints mean bit-identical simulated results.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds in one integer.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in one float by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The result of one iteration.
pub struct Outcome {
    /// Simulated requests offered, or training samples processed.
    pub items: u64,
    /// Digest of every simulated statistic the iteration produced.
    pub fingerprint: u64,
    /// Named correctness gates; every one must hold.
    pub gates: Vec<(&'static str, bool)>,
    /// Per-layer values known from the results alone (counts and
    /// modelled statistics), keyed by per-layer metric name.
    pub values: Vec<(&'static str, f64)>,
    /// The fleet report, kept for the probes of a traced iteration.
    report: Option<FleetReport>,
}

/// A set-up workload, ready to iterate.
pub enum Workload {
    /// `serve_day` and `fleet_256`.
    Fleet(Box<FleetWorkload>),
    /// `paper_colocate`.
    Colocate(Box<Colocate>),
    /// `hbfp_train`.
    Train(Box<Train>),
}

impl Workload {
    /// Sets up workload `name` from `seed`, recording set-up spans.
    ///
    /// # Errors
    ///
    /// `InvalidArgument` for an unknown name; otherwise whatever the
    /// layers return.
    pub fn setup(name: &str, seed: u64, tracer: &Tracer) -> Result<Self, EquinoxError> {
        Ok(match name {
            "serve_day" => Workload::Fleet(Box::new(FleetWorkload::serve_day(seed)?)),
            "fleet_256" => Workload::Fleet(Box::new(FleetWorkload::fleet_256(seed, tracer)?)),
            "paper_colocate" => Workload::Colocate(Box::new(Colocate::setup(seed, tracer)?)),
            "hbfp_train" => Workload::Train(Box::new(Train::setup(seed))),
            _ => {
                return Err(EquinoxError::invalid_argument(
                    "perfbench",
                    format!("unknown workload '{name}' (known: {})", NAMES.join(", ")),
                ))
            }
        })
    }

    /// Runs one iteration, recording spans around each layer call when
    /// the tracer is enabled.
    ///
    /// # Errors
    ///
    /// Whatever the layers return.
    pub fn run(&self, tracer: &Tracer) -> Result<Outcome, EquinoxError> {
        match self {
            Workload::Fleet(w) => w.run(tracer),
            Workload::Colocate(w) => w.run(tracer),
            Workload::Train(w) => Ok(w.run(tracer)),
        }
    }

    /// The per-layer metrics of the traced iteration whose spans start
    /// at `mark` and which produced `outcome`. Fleet workloads first
    /// call the public entry points of the layers that are reachable
    /// only inside `Fleet::run`, on the same inputs.
    ///
    /// # Errors
    ///
    /// Whatever the probed layers return.
    pub fn layer_metrics(
        &self,
        outcome: &Outcome,
        tracer: &Tracer,
        mark: usize,
    ) -> Result<Vec<(&'static str, f64)>, EquinoxError> {
        let mut out = outcome.values.clone();
        match self {
            Workload::Fleet(w) => out.extend(w.probe(outcome, tracer, mark)?),
            Workload::Colocate(_) => out.extend(Colocate::layer_metrics(outcome, tracer, mark)),
            Workload::Train(_) => out.extend(Train::layer_metrics(tracer, mark)),
        }
        Ok(out)
    }
}

fn ns_to_s(ns: Option<u64>) -> f64 {
    ns.unwrap_or(0) as f64 / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The value of `name` in `values` (0 when absent).
fn lookup(values: &[(&'static str, f64)], name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

// ---------------------------------------------------------------- fleets

/// A fleet and the options of its run.
pub struct FleetWorkload {
    fleet: Fleet,
    opts: FleetRunOptions,
    /// The fitted table every device shares, when devices are fitted.
    table: Option<Arc<FittedTable>>,
    /// Fitted workloads: max held-out quantile error and whether every
    /// fit passed its calibration gate.
    calibration: Option<(f64, bool)>,
    /// The deadline the paid tier's p999 must stay inside, if gated.
    paid_deadline_s: Option<f64>,
}

/// The serve sweep's synthetic device: 16-request batches served in
/// 16 µs at 1 GHz, the second half co-hosting training, evaluated by
/// the static-bounds surrogate with exact bounds.
fn serve_device(i: usize) -> DeviceSpec {
    let dims = ArrayDims { n: 16, w: 4, m: 4 };
    let config = AcceleratorConfig::new(format!("serve[{i}]"), dims, 1e9, Encoding::Hbfp8);
    let timing = InferenceTiming {
        total_cycles: 16_000,
        mmu_busy_cycles: 12_000,
        mmu_utilization: 0.85,
        stall_cycles: 1_000,
        simd_busy_cycles: 2_000,
        total_macs: 32_000_000,
        macs_per_request: 2_000_000,
        batch: 16,
    };
    let spec = DeviceSpec::new(config, timing);
    let spec = if i >= SERVE_DEVICES / 2 {
        spec.with_training(TrainingProfile {
            iteration_macs: 1_000_000_000,
            iteration_mmu_cycles: 40_000,
            iteration_dram_bytes: 4_000_000,
            iteration_simd_cycles: 4_000,
            batch: 128,
        })
    } else {
        spec
    };
    spec.with_static_bounds(16_000, 16_000)
}

impl FleetWorkload {
    fn serve_day(seed: u64) -> Result<Self, EquinoxError> {
        let mut devices: Vec<DeviceSpec> = (0..SERVE_DEVICES).map(serve_device).collect();
        let horizon = SERVE_INTERVALS * devices[0].timing.total_cycles;
        // Device 0 runs cycle-accurately under the serve fault cell's
        // DRAM throttle (the surrogate cannot price faults).
        devices[0] = DeviceSpec::new(devices[0].config.clone(), devices[0].timing).with_scenario(
            FaultScenario::named("dram_throttle").with_throttle(
                horizon * 3 / 10,
                horizon * 6 / 10,
                0.35,
            ),
        );
        let deadline_s = DEADLINE_X * devices[1].service_time_s();
        let profile = DiurnalProfile::thirty_percent_average();
        let crowd = FlashCrowd {
            start_frac: 0.55,
            duration_frac: 0.08,
            multiplier: 2.5,
        };
        let rate_scale = SERVE_LOAD / trace_mean_load(&profile, &[crowd])?;
        let horizon_s = horizon as f64 / devices[0].config.freq_hz;
        let opts = FleetRunOptions {
            source: ArrivalSource::Trace {
                profile,
                rate_scale,
                crowd,
            },
            policy: RoutingPolicy::training_aware_default(),
            admission: AdmissionSpec::priority_default(),
            autoscale: Some(AutoscalePolicy {
                min_devices: 2,
                initial_devices: 2,
                up_backlog_batches: 1.0,
                down_backlog_batches: 0.125,
                sustain_s: horizon_s / 200.0,
                drain_grace_s: horizon_s / 100.0,
            }),
            paid_fraction: PAID_FRACTION,
            horizon_cycles: horizon,
            seed,
            slo: Some(SloSpec::new(deadline_s)?),
        };
        Ok(FleetWorkload {
            fleet: Fleet::new(devices)?,
            opts,
            table: None,
            calibration: None,
            paid_deadline_s: Some(deadline_s),
        })
    }

    fn fleet_256(seed: u64, tracer: &Tracer) -> Result<Self, EquinoxError> {
        // Not `FittedCalibration::shared`: that caches per process, and
        // set-up is measured cold.
        let cal = {
            let _s = tracer.span("fleet.fitted.fit");
            fitted::run(ExperimentScale::Quick)
        };
        let fit = cal.fit("LSTM").ok_or_else(|| {
            EquinoxError::invalid_argument("perfbench", "the LSTM table was not fitted")
        })?;
        let devices: Vec<DeviceSpec> = (0..FLEET_DEVICES)
            .map(|i| fit.device(&format!("fit[{i}]"), i >= FLEET_DEVICES / 2))
            .collect();
        let interconnect = InterconnectSpec::datacenter(
            gradient_bytes() / FLEET_GRADIENT_SHARE,
            DMA_BYTES_PER_BATCH,
        )
        .with_topology(Topology::Tree {
            leaf_group: FLEET_LEAF_GROUP,
        });
        let fleet = Fleet::new(devices)?.with_interconnect(interconnect)?;
        let deadline_s = DEADLINE_X * fit.measured_cycles as f64 / cal.freq_hz;
        let max_err = cal
            .fits
            .iter()
            .flat_map(|f| &f.buckets)
            .filter(|b| b.checked)
            .map(|b| b.max_occupancy_rel_err.max(b.max_duration_rel_err))
            .fold(0.0, f64::max);
        Ok(FleetWorkload {
            fleet,
            opts: FleetRunOptions {
                source: ArrivalSource::Poisson { load: FLEET_LOAD },
                policy: RoutingPolicy::training_aware_default(),
                admission: AdmissionSpec::priority_default(),
                autoscale: None,
                paid_fraction: PAID_FRACTION,
                horizon_cycles: FLEET_INTERVALS * fit.measured_cycles,
                seed,
                slo: Some(SloSpec::new(deadline_s)?),
            },
            table: Some(Arc::clone(&fit.table)),
            calibration: Some((max_err, cal.all_calibrated())),
            paid_deadline_s: None,
        })
    }

    fn run(&self, tracer: &Tracer) -> Result<Outcome, EquinoxError> {
        let lookups_before = self.table.as_ref().map_or(0, |t| t.lookup_count());
        let report = {
            let _s = tracer.span("fleet.run");
            self.fleet.run(&self.opts)?
        };
        let lookups = self.table.as_ref().map_or(0, |t| t.lookup_count()) - lookups_before;

        let mut fp = Fingerprint::default();
        for v in [
            report.offered_requests,
            report.admission_shed_requests,
            report.scaling_spans.len(),
            report.dropped_requests(),
            report.deadline_misses(),
        ] {
            fp.u64(v as u64);
        }
        fp.u64(report.completed_requests());
        fp.u64(report.shed_requests());
        for q in [0.5, 0.99, 0.999] {
            fp.f64(report.latency.quantile(q));
        }
        for d in &report.devices {
            fp.u64(d.assigned_requests as u64);
            fp.u64(d.report.completed_requests);
            fp.u64(d.report.batches_issued);
            fp.f64(d.report.training_mmu_cycles);
            fp.f64(d.free_epochs);
        }
        for l in &report.class_ledgers {
            for v in [
                l.offered_requests,
                l.shed_requests,
                l.completed_requests,
                l.deadline_misses,
                l.unattributed_requests,
                l.sync_deadline_misses,
            ] {
                fp.u64(v as u64);
            }
            fp.f64(l.p999_s());
            fp.f64(l.displaced_epochs);
        }
        for s in &report.scaling_spans {
            fp.u64(s.device as u64);
            fp.f64(s.t_s);
        }
        if let Some(s) = &report.sync {
            fp.u64(s.round_cycles);
            fp.u64(s.retries);
            fp.f64(s.synced_free_epochs);
            fp.f64(s.bg_delay_mean_cycles);
        }
        fp.u64(lookups);

        let paid_p999_s = report.class_ledger(RequestClass::Paid).p999_s();
        let mut gates = Vec::new();
        if let Some(deadline_s) = self.paid_deadline_s {
            gates.push(("paid_p999_within_deadline", paid_p999_s <= deadline_s));
        }
        if let Some(s) = &report.sync {
            gates.push(("round_conserves", s.conserved));
        }
        if let Some((_, calibrated)) = self.calibration {
            gates.push(("fitted_all_calibrated", calibrated));
        }
        let offered = report.offered_requests as f64;
        let mut values = vec![
            ("sim.p99_ms", report.p99_ms()),
            ("sim.paid_p999_ms", paid_p999_s * 1e3),
            ("sim.free_epochs", report.free_epochs()),
            ("sim.synced_epochs", report.synced_free_epochs()),
            (
                "fleet.admission.shed_frac",
                ratio(report.admission_shed_requests as f64, offered),
            ),
            ("fleet.autoscale.spans", report.scaling_spans.len() as f64),
            ("fleet.fitted.lookups", lookups as f64),
        ];
        if let Some((err, _)) = self.calibration {
            values.push(("sim.fitted_err", err));
        }
        Ok(Outcome {
            items: report.offered_requests as u64,
            fingerprint: fp.finish(),
            gates,
            values,
            report: Some(report),
        })
    }

    /// Re-runs, outside `Fleet::run` and on its inputs, the layer entry
    /// points it calls internally (each checked to reproduce the run's
    /// own result), then attributes `fleet.run`. Admission is not
    /// probed: its inputs (router candidate, backlogs, active set) exist
    /// only inside the run, so its cost stays in `fleet.residual_s`.
    fn probe(
        &self,
        outcome: &Outcome,
        tracer: &Tracer,
        mark: usize,
    ) -> Result<Vec<(&'static str, f64)>, EquinoxError> {
        let report = outcome
            .report
            .as_ref()
            .expect("fleet outcomes carry their report");
        let freq_ref = self.fleet.reference_freq_hz();
        let fleet_rate_per_cycle = self.fleet.max_request_rate_per_s() / freq_ref;
        let horizon = self.opts.horizon_cycles;
        let arrival_seed = split_seed(self.opts.seed, 0);
        let mut out = Vec::new();

        let (arrivals, loadgen_name) = match self.opts.source {
            ArrivalSource::Trace {
                profile,
                rate_scale,
                crowd,
            } => {
                let _s = tracer.span("sim.loadgen.trace");
                let a = trace_arrivals(
                    &profile,
                    &[crowd],
                    rate_scale,
                    fleet_rate_per_cycle,
                    horizon,
                    arrival_seed,
                )?;
                (a, "sim.loadgen.trace.ns_per_arrival")
            }
            ArrivalSource::Poisson { load } => {
                let _s = tracer.span("sim.loadgen.poisson");
                let rate = rate_for_load(load, fleet_rate_per_cycle)?;
                (
                    poisson_arrivals(rate, horizon, arrival_seed)?,
                    "sim.loadgen.poisson.ns_per_arrival",
                )
            }
            ArrivalSource::Diurnal { .. } => unreachable!("no workload uses a diurnal source"),
        };
        probe_matches("loadgen", arrivals.len() == report.offered_requests)?;

        let merged = {
            let _s = tracer.span("sim.stats.merge");
            LatencyStats::merged(report.devices.iter().map(|d| &d.report.latency))
        };
        probe_matches("merge", merged == report.latency)?;

        if let (Some(spec), Some(sync)) = (self.fleet.interconnect(), &report.sync) {
            let round = self.probe_round(spec, report, tracer)?;
            probe_matches("net", round.round_cycles == sync.round_cycles)?;
            let packets: u64 = round
                .links
                .iter()
                .map(|l| l.delivered_bytes.div_ceil(u64::from(spec.packet_bytes)))
                .sum();
            let busy = ns_to_s(tracer.total_ns_since(mark).get("net.round").copied());
            out.extend([
                ("net.round.busy_s", busy),
                ("net.link_packets", packets as f64),
                ("net.packets_per_s", ratio(packets as f64, busy)),
                ("net.round_cycles", round.round_cycles as f64),
                ("net.retries", round.retries as f64),
                (
                    "net.dropped_packets",
                    round.links.iter().map(|l| l.dropped_packets).sum::<u64>() as f64,
                ),
                ("net.peak_link_util", round.peak_utilization()),
            ]);
        }

        // The queue depths the run looked up are internal to `Fleet::run`,
        // so this probe draws as often as the run did but at synthetic
        // depths; it prices `sample` alone and is not subtracted from the
        // residual.
        if let Some(table) = &self.table {
            let draws = lookup(&outcome.values, "fleet.fitted.lookups").max(1.0) as u64;
            let mut rng = SplitMix64::seed_from_u64(split_seed(self.opts.seed, 2));
            let depth_cap = 4 * table.batch + 1;
            let _s = tracer.span("fleet.fitted.sample");
            let mut acc = 0.0;
            for i in 0..draws {
                acc += table
                    .sample(i as usize % depth_cap, rng.next_f64())
                    .duration_cycles;
            }
            std::hint::black_box(acc);
        }

        let totals = tracer.total_ns_since(mark);
        let total = |name| ns_to_s(totals.get(name).copied());
        let run_s = total("fleet.run");
        let loadgen_s = total("sim.loadgen.trace") + total("sim.loadgen.poisson");
        let offered = report.offered_requests as f64;
        out.extend([
            (loadgen_name, ratio(loadgen_s * 1e9, arrivals.len() as f64)),
            ("sim.stats.merge_s", total("sim.stats.merge")),
            ("fleet.run.busy_s", run_s),
            ("fleet.run.ns_per_arrival", ratio(run_s * 1e9, offered)),
            (
                "fleet.residual_s",
                run_s - loadgen_s - total("sim.stats.merge") - total("net.round"),
            ),
        ]);
        if self.table.is_some() {
            let draws = lookup(&outcome.values, "fleet.fitted.lookups").max(1.0);
            out.push((
                "fleet.fitted.sample_ns",
                total("fleet.fitted.sample") * 1e9 / draws,
            ));
        }
        Ok(out)
    }

    /// One all-reduce round over the run's participants, with the
    /// background demand `Fleet::run` derives from the device reports.
    fn probe_round(
        &self,
        spec: &InterconnectSpec,
        report: &FleetReport,
        tracer: &Tracer,
    ) -> Result<RoundOutcome, EquinoxError> {
        let devices = self.fleet.devices();
        let horizon = self.opts.horizon_cycles.max(1) as f64;
        let participants: Vec<usize> = devices
            .iter()
            .enumerate()
            .filter(|(_, d)| {
                d.training.is_some()
                    && !matches!(d.config.scheduler, SchedulerPolicy::InferenceOnly)
            })
            .map(|(i, _)| i)
            .collect();
        let bg: Vec<f64> = devices
            .iter()
            .zip(&report.devices)
            .map(|(d, o)| {
                let mut bytes = o.report.batches_issued as f64 * spec.dma_bytes_per_batch as f64;
                if let Some(p) = &d.training {
                    if p.iteration_mmu_cycles > 0 {
                        bytes += o.report.training_mmu_cycles * p.iteration_dram_bytes as f64
                            / p.iteration_mmu_cycles as f64;
                    }
                }
                bytes / horizon
            })
            .collect();
        let _s = tracer.span("net.round");
        run_allreduce_round(
            spec,
            devices.len(),
            &participants,
            &bg,
            split_seed(self.opts.seed, INTERCONNECT_STREAM),
        )
    }
}

fn probe_matches(what: &str, ok: bool) -> Result<(), EquinoxError> {
    if ok {
        Ok(())
    } else {
        Err(EquinoxError::invalid_argument(
            "perfbench probe",
            format!("the {what} probe did not reproduce the run's own result"),
        ))
    }
}

// ------------------------------------------------------- paper_colocate

/// The paper's single-device evaluation on Equinox_500us.
pub struct Colocate {
    config: AcceleratorConfig,
    timing: InferenceTiming,
    training: TrainingProfile,
    horizon: u64,
    /// Arrivals per load, shared by the three schedulers at that load.
    arrivals: Vec<Vec<u64>>,
}

impl Colocate {
    fn setup(seed: u64, tracer: &Tracer) -> Result<Self, EquinoxError> {
        let eq = {
            let _s = tracer.span("model.build");
            Equinox::build(Encoding::Hbfp8, LatencyConstraint::Micros(500))?
        };
        let dims = eq.dims();
        for model in [ModelSpec::lstm_2048_25(), ModelSpec::gru_2816_1500()] {
            if tracer.enabled() {
                probe_check_passes(&eq, &model, tracer)?;
            }
            let misses = cache::stats().misses;
            let report = {
                let _s = tracer.span("check");
                eq.check(&model, dims.n)
            };
            gate_clean(model.name(), &report)?;
            if tracer.enabled() {
                probe_matches("check", cache::stats().misses == misses)?;
            }
        }
        // A compile-cache hit: `Equinox::check` lowered it above.
        let lstm = compile_inference_cached(
            &ModelSpec::lstm_2048_25(),
            &dims,
            dims.n,
            eq.config().encoding,
            &BufferBudget::paper_default(),
        );
        let timing = InferenceTiming::from_program(&lstm, &dims, dims.n);
        let training = eq.training_profile(&ModelSpec::lstm_2048_25());
        let sim = Simulation::new(eq.config().clone(), timing, Some(training))?;
        let max_rate = sim.max_request_rate_per_cycle();
        let horizon = (COLOCATE_REQUESTS / (COLOCATE_LOADS[0] * max_rate)) as u64;
        let arrivals = {
            let _s = tracer.span("sim.loadgen.poisson");
            COLOCATE_LOADS
                .iter()
                .enumerate()
                .map(|(i, &load)| {
                    let a = poisson_arrivals(
                        rate_for_load(load, max_rate)?,
                        horizon,
                        split_seed(seed, i as u64),
                    )?;
                    tracer.count("sim.loadgen.arrivals", a.len() as f64);
                    Ok(a)
                })
                .collect::<Result<Vec<_>, EquinoxError>>()?
        };
        Ok(Colocate {
            config: eq.config().clone(),
            timing,
            training,
            horizon,
            arrivals,
        })
    }

    fn layer_metrics(outcome: &Outcome, tracer: &Tracer, mark: usize) -> Vec<(&'static str, f64)> {
        let busy = ns_to_s(tracer.total_ns_since(mark).get("sim.engine").copied());
        let value = |name| lookup(&outcome.values, name);
        vec![
            ("sim.engine.busy_s", busy),
            (
                "sim.engine.req_per_s",
                ratio(value("sim.engine.completed"), busy),
            ),
            (
                "sim.engine.ns_per_batch",
                ratio(busy * 1e9, value("sim.engine.batches")),
            ),
        ]
    }

    fn schedulers(&self) -> [SchedulerPolicy; 3] {
        [
            SchedulerPolicy::InferenceOnly,
            SchedulerPolicy::Priority {
                queue_threshold: 2 * self.config.dims.n,
            },
            SchedulerPolicy::Fair,
        ]
    }

    fn run(&self, tracer: &Tracer) -> Result<Outcome, EquinoxError> {
        let mut fp = Fingerprint::default();
        let (mut items, mut completed, mut batches, mut training_iters) = (0u64, 0u64, 0u64, 0.0);
        let (mut p99_ms, mut train_tops) = (0.0, 0.0);
        for (li, arrivals) in self.arrivals.iter().enumerate() {
            for scheduler in self.schedulers() {
                let mut config = self.config.clone();
                config.scheduler = scheduler;
                let sim = Simulation::new(config, self.timing, Some(self.training))?;
                let r = {
                    let _s = tracer.span("sim.engine");
                    sim.run(arrivals, self.horizon)?
                };
                items += arrivals.len() as u64;
                completed += r.completed_requests;
                batches += r.batches_issued;
                training_iters +=
                    r.training_mmu_cycles / self.training.iteration_mmu_cycles.max(1) as f64;
                if let SchedulerPolicy::Priority { .. } = scheduler {
                    train_tops += r.training_tops() / COLOCATE_LOADS.len() as f64;
                    if li + 1 == COLOCATE_LOADS.len() {
                        p99_ms = r.p99_ms();
                    }
                }
                for v in [
                    r.completed_requests,
                    r.batches_issued,
                    r.incomplete_batches,
                    r.shed_requests,
                ] {
                    fp.u64(v);
                }
                for v in [
                    r.latency.p50(),
                    r.latency.p99(),
                    r.latency.max(),
                    r.inference_throughput_ops,
                    r.training_throughput_ops,
                    r.training_mmu_cycles,
                ] {
                    fp.f64(v);
                }
            }
        }
        Ok(Outcome {
            items,
            fingerprint: fp.finish(),
            gates: Vec::new(),
            values: vec![
                ("sim.p99_ms", p99_ms),
                ("sim.train_tops", train_tops),
                ("sim.engine.batches", batches as f64),
                ("sim.engine.completed", completed as f64),
                ("sim.engine.training_iters", training_iters),
            ],
            report: None,
        })
    }
}

/// Traced set-up only: what `Equinox::check` does for `model` at the
/// design's batch, one call per pass so each pass gets its own span,
/// plus the bounds pass, which `Equinox::check` does not run:
/// installation fit, the program passes over the inference lowering
/// and, under the training cap, the training lowering, then the
/// configuration lints. The lowerings land in the compile cache, and
/// the caller checks that `Equinox::check` lowers nothing new after
/// them, i.e. that the probes saw the programs it checks.
fn probe_check_passes(
    eq: &Equinox,
    model: &ModelSpec,
    tracer: &Tracer,
) -> Result<(), EquinoxError> {
    let dims = eq.dims();
    let encoding = eq.config().encoding;
    let budget = BufferBudget::paper_default();
    let cost = CostModel::from_config(eq.config());
    {
        let _s = tracer.span(pass_span(Pass::Resources));
        gate_clean(
            model.name(),
            &check::analyze_installation(model, encoding, dims.n, &budget),
        )?;
    }
    let mut programs = vec![{
        let _s = tracer.span("isa.lower");
        compile_inference_cached(model, &dims, dims.n, encoding, &budget)
    }];
    // `Equinox::check`'s training minibatch (the GRU's long unroll at 32).
    let setup = TrainingSetup {
        batch: if model.name() == "GRU" { 32 } else { 128 },
        encoding,
        ..TrainingSetup::paper_default()
    };
    if estimate_training_instructions(model, &dims, &setup) <= TRAINING_CHECK_CAP {
        let _s = tracer.span("isa.lower");
        programs.push(lower_training_cached(model, &dims, &setup));
    }
    for program in &programs {
        tracer.count("isa.lower.instr", program.instructions().len() as f64);
        tracer.count("check.instr", program.instructions().len() as f64);
        for pass in [
            Pass::Dataflow,
            Pass::Resources,
            Pass::Encoding,
            Pass::Bounds,
            Pass::Numerics,
        ] {
            let _s = tracer.span(pass_span(pass));
            let (report, _) = check::analyze_program_with(
                program,
                &dims,
                &budget,
                encoding,
                &PassSelection::none().with(pass),
                Some(&cost),
                &BoundsOptions::default(),
                &NumericsOptions::default(),
            );
            gate_clean(program.name(), &report)?;
        }
    }
    let _s = tracer.span(pass_span(Pass::Config));
    gate_clean("config", &check::analyze_config(eq.config(), None))
}

fn pass_span(pass: Pass) -> &'static str {
    match pass {
        Pass::Dataflow => "check.dataflow",
        Pass::Resources => "check.resources",
        Pass::Encoding => "check.encoding",
        Pass::Config => "check.config",
        Pass::Bounds => "check.bounds",
        Pass::Numerics => "check.numerics",
    }
}

fn gate_clean(subject: &str, report: &check::Report) -> Result<(), EquinoxError> {
    if report.has_errors() {
        return Err(EquinoxError::AnalysisRejected {
            subject: subject.to_string(),
            errors: report.error_count(),
            report: report.render_human(),
        });
    }
    Ok(())
}

// ----------------------------------------------------------- hbfp_train

/// The fig2 tasks on seed-derived data.
pub struct Train {
    cls: ClassificationData,
    lm: LanguageData,
    seqs: SequenceData,
    cls_cfg: TrainConfig,
    lm_cfg: TrainConfig,
    lstm_cfg: LstmConfig,
}

/// A pass-through [`Backend`] that records a span around every call:
/// `arith.gemm_<precision>` for GEMMs (with call and MAC counters) and
/// `arith.quant` for the weight-store and write-back conversions.
pub struct TimedBackend<'a> {
    inner: &'a dyn Backend,
    tracer: &'a Tracer,
    gemm: &'static str,
    macs: &'static str,
}

impl<'a> TimedBackend<'a> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: &'a dyn Backend, tracer: &'a Tracer) -> Self {
        let (gemm, macs) = match inner.name() {
            "fp32" => ("arith.gemm_f32", "arith.gemm_f32.macs"),
            "bfloat16" => ("arith.gemm_bf16", "arith.gemm_bf16.macs"),
            _ => ("arith.gemm_hbfp", "arith.gemm_hbfp.macs"),
        };
        TimedBackend {
            inner,
            tracer,
            gemm,
            macs,
        }
    }
}

impl Backend for TimedBackend<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn gemm(&self, a: &Matrix, b: &Matrix) -> Matrix {
        self.tracer.count("arith.gemm.calls", 1.0);
        self.tracer
            .count(self.macs, (a.rows() * a.cols() * b.cols()) as f64);
        let _s = self.tracer.span(self.gemm);
        self.inner.gemm(a, b)
    }

    fn store_weights(&self, weights: &Matrix) -> Matrix {
        let _s = self.tracer.span("arith.quant");
        self.inner.store_weights(weights)
    }

    fn writeback(&self, values: &Matrix) -> Matrix {
        let _s = self.tracer.span("arith.quant");
        self.inner.writeback(values)
    }
}

/// The three fig2 backends, in fig2's order.
fn backends(hbfp8: &Hbfp8Backend) -> [&dyn Backend; 3] {
    [&Fp32Backend, hbfp8, &Bf16Backend]
}

impl Train {
    fn setup(seed: u64) -> Self {
        let init = split_seed(seed, 3);
        let cls_cfg = TrainConfig {
            epochs: TRAIN_EPOCHS,
            seed: init,
            ..TrainConfig::default()
        };
        Train {
            cls: dataset::teacher_student(CLS_TRAIN, CLS_VAL, 16, 4, split_seed(seed, 0)),
            lm: dataset::markov_text(LM_TRAIN, LM_VAL, 16, split_seed(seed, 1)),
            seqs: dataset::markov_sequences(LSTM_SEQS, LSTM_SEQS / 4, 20, 8, split_seed(seed, 2)),
            cls_cfg,
            lm_cfg: TrainConfig {
                hidden: 32,
                lr: 0.3,
                ..cls_cfg
            },
            lstm_cfg: LstmConfig {
                epochs: TRAIN_EPOCHS,
                seed: init,
                ..LstmConfig::default()
            },
        }
    }

    /// Trains every task under every backend: classifier, language
    /// model and LSTM curves, in that order.
    pub fn curves(&self, tracer: &Tracer) -> Vec<ConvergenceCurve> {
        let hbfp8 = Hbfp8Backend::new();
        let mut curves = Vec::new();
        for backend in backends(&hbfp8) {
            let timed = TimedBackend::new(backend, tracer);
            let b: &dyn Backend = if tracer.enabled() { &timed } else { backend };
            let _s = tracer.span("trainer");
            curves.push(train_classifier(b, &self.cls, &self.cls_cfg));
            curves.push(train_language_model(b, &self.lm, &self.lm_cfg));
            curves.push(train_lstm_lm(b, &self.seqs, &self.lstm_cfg));
        }
        curves
    }

    fn run(&self, tracer: &Tracer) -> Outcome {
        let curves = self.curves(tracer);
        let mut fp = Fingerprint::default();
        for c in &curves {
            for p in &c.points {
                fp.u64(p.epoch as u64);
                fp.f64(f64::from(p.train_loss));
                fp.f64(f64::from(p.val_metric));
            }
        }
        let samples = (self.cls.train_x.rows() + self.lm.train_x.rows() + self.seqs.train.len())
            * TRAIN_EPOCHS
            * 3;
        // Curves come per backend (fp32, hbfp8, bf16) × task (cls, lm, lstm).
        let gap = f64::from(curves[4].final_metric()) - f64::from(curves[1].final_metric());
        let finite = curves
            .iter()
            .all(|c| c.points.iter().all(|p| p.val_metric.is_finite()));
        Outcome {
            items: samples as u64,
            fingerprint: fp.finish(),
            gates: vec![("curves_finite", finite)],
            values: vec![("train.hbfp8_gap", gap)],
            report: None,
        }
    }

    fn layer_metrics(tracer: &Tracer, mark: usize) -> Vec<(&'static str, f64)> {
        let totals = tracer.total_ns_since(mark);
        let self_ns = tracer.self_ns_since(mark);
        let counters = tracer.take_counters();
        let count = |name| counters.get(name).copied().unwrap_or(0.0);
        let busy = |name| ns_to_s(totals.get(name).copied());
        let kernels = [
            (
                "arith.gemm_f32",
                "arith.gemm_f32.macs",
                "arith.gemm_f32.mac_per_s",
            ),
            (
                "arith.gemm_bf16",
                "arith.gemm_bf16.macs",
                "arith.gemm_bf16.mac_per_s",
            ),
            (
                "arith.gemm_hbfp",
                "arith.gemm_hbfp.macs",
                "arith.gemm_hbfp.mac_per_s",
            ),
        ];
        let mut out = vec![
            ("arith.gemm.calls", count("arith.gemm.calls")),
            ("arith.gemm.macs", kernels.iter().map(|k| count(k.1)).sum()),
            ("arith.gemm.busy_s", kernels.iter().map(|k| busy(k.0)).sum()),
            ("arith.quant.busy_s", busy("arith.quant")),
            ("trainer.self_s", ns_to_s(self_ns.get("trainer").copied())),
        ];
        out.extend(
            kernels
                .iter()
                .map(|&(span, macs, metric)| (metric, ratio(count(macs), busy(span)))),
        );
        out
    }
}
