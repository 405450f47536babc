//! Experiment drivers — one module per paper table/figure.
//!
//! Every driver takes an [`ExperimentScale`] so the same code serves
//! quick CI checks (`Quick`) and the full regeneration runs (`Full`)
//! behind `cargo run -p equinox-bench --bin regen-results`.

pub mod ablation;
pub mod allreduce;
pub mod bounds_calibration;
pub mod diurnal;
pub mod fault_sweep;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fitted;
pub mod fleet;
pub mod numerics;
pub mod serve;
pub mod software_sched;
pub mod table1;
pub mod table2;
pub mod table3;

use crate::accelerator::Equinox;
use equinox_arith::Encoding;
use equinox_fleet::DeviceSpec;
use equinox_isa::cache::{compile_inference_cached, lower_training_cached};
use equinox_isa::lower::InferenceTiming;
use equinox_isa::models::ModelSpec;
use equinox_isa::training::{TrainingProfile, TrainingSetup};
use equinox_isa::validate::BufferBudget;
use equinox_isa::{ArrayDims, Program};
use equinox_sim::AcceleratorConfig;
use std::sync::Arc;

/// One (model, lowering) cell of the analyzer calibration sweeps on
/// `eq`: the training iteration at the model's training minibatch, or
/// the inference program at its serving batch. Returns the program and
/// the batch it was lowered at.
pub(crate) fn lower_cell(eq: &Equinox, model: &ModelSpec, training: bool) -> (Arc<Program>, usize) {
    let dims = eq.dims();
    let encoding = eq.config().encoding;
    if training {
        let setup = TrainingSetup::for_model(model, encoding);
        (lower_training_cached(model, &dims, &setup), setup.batch)
    } else {
        let batch = model.serving_batch(&dims);
        let budget = BufferBudget::paper_default();
        (compile_inference_cached(model, &dims, batch, encoding, &budget), batch)
    }
}

/// The synthetic serving device of the fleet sweeps: 16-request batches
/// served in 16 µs at 1 GHz (saturation 1 M req/s), evaluated by the
/// static-bounds surrogate with exact bounds so service times match the
/// engine. A harvesting device co-hosts a training context.
pub(crate) fn synthetic_serving_device(name: String, harvests: bool) -> DeviceSpec {
    let dims = ArrayDims { n: 16, w: 4, m: 4 };
    let config = AcceleratorConfig::new(name, dims, 1e9, Encoding::Hbfp8);
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
    let spec = if harvests {
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

/// How much work an experiment run should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentScale {
    /// Reduced loads/epochs/requests — seconds of runtime, for tests.
    Quick,
    /// The paper-scale sweep.
    Full,
}

impl ExperimentScale {
    /// The offered-load sweep for load-based figures.
    pub fn loads(self) -> Vec<f64> {
        match self {
            ExperimentScale::Quick => vec![0.1, 0.3, 0.5, 0.7, 0.9],
            ExperimentScale::Full => {
                vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0]
            }
        }
    }

    /// Target completed requests per simulation point.
    pub fn target_requests(self) -> u64 {
        match self {
            ExperimentScale::Quick => 1200,
            ExperimentScale::Full => 12000,
        }
    }

    /// Training epochs for the Figure 2 runs.
    pub fn epochs(self) -> usize {
        match self {
            ExperimentScale::Quick => 10,
            ExperimentScale::Full => 40,
        }
    }
}

/// One measured point of a load sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    /// Offered load (fraction of saturation).
    pub load: f64,
    /// Achieved inference throughput, TOp/s.
    pub inference_tops: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Achieved training throughput, TOp/s.
    pub training_tops: f64,
}

/// A named series of load points (one line of a figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Points in ascending load order.
    pub points: Vec<LoadPoint>,
}

impl Series {
    /// The highest inference throughput achieved under `p99_limit_ms`
    /// (the paper's "throughput under latency constraints").
    pub fn max_tops_under_latency(&self, p99_limit_ms: f64) -> f64 {
        self.points
            .iter()
            .filter(|p| p.p99_ms <= p99_limit_ms)
            .map(|p| p.inference_tops)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_differ() {
        assert!(ExperimentScale::Quick.loads().len() < ExperimentScale::Full.loads().len());
        assert!(ExperimentScale::Quick.target_requests() < ExperimentScale::Full.target_requests());
        assert!(ExperimentScale::Quick.epochs() < ExperimentScale::Full.epochs());
    }

    #[test]
    fn series_latency_constrained_max() {
        let s = Series {
            name: "x".into(),
            points: vec![
                LoadPoint { load: 0.5, inference_tops: 100.0, p99_ms: 1.0, training_tops: 0.0 },
                LoadPoint { load: 0.9, inference_tops: 300.0, p99_ms: 10.0, training_tops: 0.0 },
            ],
        };
        assert_eq!(s.max_tops_under_latency(5.0), 100.0);
        assert_eq!(s.max_tops_under_latency(20.0), 300.0);
        assert_eq!(s.max_tops_under_latency(0.1), 0.0);
    }
}
