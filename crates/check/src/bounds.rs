//! Pass family `06xx`: static `[lower, upper]` cycle and energy bounds.
//!
//! An abstract interpretation over the lowered program's sync regions:
//! instead of simulating a concrete schedule, each region is priced
//! under the two extreme schedules the hardware admits —
//!
//! * **best case** (the lower bound): DMA transfers overlap compute
//!   perfectly (steady-state double buffering, warm staging buffers)
//!   and every SIMD instruction drains behind MMU issue, so a region
//!   costs only its MMU occupancy plus the pipeline fill charged at the
//!   `Sync`;
//! * **worst case** (the upper bound): nothing overlaps — the full SIMD
//!   occupancy serializes after the MMU, and each sync region's DRAM
//!   traffic blocks the pipeline: one cold access latency per region
//!   (in-region transfers stream back-to-back, so their latencies
//!   pipeline; the `Sync` drains the channel) plus the
//!   bandwidth-limited transfer of every byte.
//!
//! Both schedules price instructions through the *same*
//! [`CostModel`] the cycle-accurate simulator reads its rates from, so
//! the analyzer and `equinox-sim` cannot drift: the simulator's
//! measured batch latency is provably contained in `[lower, upper]`
//! because its accounting (`InferenceTiming::from_program`) charges
//! per region exactly `mmu + fill + simd_tail` with
//! `0 ≤ simd_tail ≤ simd` and never charges inference DMA.
//!
//! Energy brackets use the interval machinery from the dataflow pass:
//! the lower bound prices each *distinct* loaded byte once (perfect
//! reuse, tracked per buffer with an [`IntervalSet`]), the upper bound
//! prices every transfer in full; both add static (leakage + DRAM
//! interface) power over the corresponding duration bound.
//!
//! Diagnostics: [`Code::BOUND_INVERSION`] (internal soundness),
//! [`Code::UNOVERLAPPABLE_DMA`], [`Code::UTILIZATION_BELOW_FLOOR`],
//! [`Code::ENERGY_OVER_ENVELOPE`].

use std::collections::BTreeMap;

use crate::diag::{Code, Diagnostic, Report, Span};
use crate::intervals::IntervalSet;
use equinox_arith::Encoding;
use equinox_isa::instruction::BufferKind;
use equinox_isa::{Instruction, Program};
use equinox_model::{EncodingParams, TechnologyParams};
use equinox_sim::{CostModel, EnergyParams};

/// Tunables for the bounds pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundsOptions {
    /// Best-case MMU utilization below which
    /// [`Code::UTILIZATION_BELOW_FLOOR`] fires (fraction of peak MACs).
    pub utilization_floor: f64,
}

impl Default for BoundsOptions {
    fn default() -> Self {
        BoundsOptions { utilization_floor: 0.05 }
    }
}

/// An inclusive `[lower, upper]` cycle interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleBounds {
    /// Best-case (perfect overlap) cycles.
    pub lower: u64,
    /// Worst-case (fully serialized, cold transfers) cycles.
    pub upper: u64,
}

impl CycleBounds {
    /// True when `cycles` falls inside the interval (inclusive).
    pub fn contains(&self, cycles: u64) -> bool {
        self.lower <= cycles && cycles <= self.upper
    }

    /// Looseness of the bracket (`upper / lower`; 1.0 for the empty
    /// interval at zero, infinite when only the lower bound is zero).
    pub fn ratio(&self) -> f64 {
        if self.upper == 0 {
            1.0
        } else if self.lower == 0 {
            f64::INFINITY
        } else {
            self.upper as f64 / self.lower as f64
        }
    }
}

/// An inclusive `[lower, upper]` energy interval, joules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBounds {
    /// Best-case energy: unique DMA bytes, best-case duration.
    pub lower_j: f64,
    /// Worst-case energy: all traffic priced, worst-case duration.
    pub upper_j: f64,
}

/// Bounds for one sync region (the instructions up to and including a
/// `Sync`, or the trailing unsynchronized tail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionBounds {
    /// Instruction-index range of the region.
    pub span: Span,
    /// The region's cycle interval.
    pub cycles: CycleBounds,
    /// MMU occupancy inside the region.
    pub mmu_cycles: u64,
    /// SIMD occupancy inside the region.
    pub simd_cycles: u64,
    /// DRAM/host bytes moved by the region.
    pub dma_bytes: u64,
    /// Number of discrete transfers (each pays access latency in the
    /// worst case).
    pub dma_transfers: u64,
}

/// Whole-program static bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramBounds {
    /// Program-total cycle interval.
    pub cycles: CycleBounds,
    /// Program-total energy interval, when the cost model carries
    /// energy pricing.
    pub energy: Option<EnergyBounds>,
    /// Per-region breakdown, in program order.
    pub regions: Vec<RegionBounds>,
    /// Total multiply-accumulates in the program.
    pub total_macs: u64,
    /// Peak MACs per cycle of the priced geometry.
    pub peak_macs_per_cycle: u64,
    /// Total MMU occupancy (both schedules execute it in full).
    pub mmu_cycles: u64,
    /// Total SIMD occupancy.
    pub simd_cycles: u64,
    /// All DRAM/host bytes moved, counting repeats.
    pub dma_bytes_total: u64,
    /// Bytes that must move even under perfect reuse: distinct loaded
    /// bytes (per buffer) plus all store/host traffic.
    pub dma_bytes_unique: u64,
    /// Worst-case cycles spent on transfers (latency + bandwidth).
    pub dma_cycles_upper: u64,
}

impl ProgramBounds {
    /// Highest MMU utilization any schedule can reach: total MACs over
    /// the best-case duration at peak issue width.
    pub fn best_case_utilization(&self) -> f64 {
        if self.cycles.lower == 0 || self.peak_macs_per_cycle == 0 {
            return 0.0;
        }
        let peak = self.cycles.lower as f64 * self.peak_macs_per_cycle as f64;
        (self.total_macs as f64 / peak).min(1.0)
    }
}

/// Internal soundness check: inverted intervals anywhere in `bounds`
/// produce [`Code::BOUND_INVERSION`] errors. A non-empty result is a
/// bug in the analysis, never a property of the analyzed program; the
/// check is public so it can be exercised on hand-built values.
pub fn soundness_diagnostics(bounds: &ProgramBounds) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if bounds.cycles.lower > bounds.cycles.upper {
        out.push(Diagnostic::error(
            Code::BOUND_INVERSION,
            format!(
                "program cycle bounds inverted: lower {} > upper {}",
                bounds.cycles.lower, bounds.cycles.upper
            ),
        ));
    }
    for region in &bounds.regions {
        if region.cycles.lower > region.cycles.upper {
            out.push(
                Diagnostic::error(
                    Code::BOUND_INVERSION,
                    format!(
                        "region cycle bounds inverted: lower {} > upper {}",
                        region.cycles.lower, region.cycles.upper
                    ),
                )
                .with_span(region.span),
            );
        }
    }
    if let Some(energy) = bounds.energy {
        if energy.lower_j > energy.upper_j {
            out.push(Diagnostic::error(
                Code::BOUND_INVERSION,
                format!(
                    "energy bounds inverted: lower {:.6e} J > upper {:.6e} J",
                    energy.lower_j, energy.upper_j
                ),
            ));
        }
    }
    out
}

/// Computes `[lower, upper]` cycle (and, when the cost model carries
/// [`EnergyParams`], energy) bounds for `program` without emitting
/// diagnostics. See the module docs for the two schedules priced.
pub fn compute_bounds(program: &Program, cost: &CostModel) -> ProgramBounds {
    let fill = cost.fill_cycles();
    let mut regions = Vec::new();
    let mut total_macs = 0u64;
    let mut mmu_total = 0u64;
    let mut simd_total = 0u64;
    let mut dma_bytes_total = 0u64;
    let mut dma_cycles_upper = 0u64;
    let mut lower = 0u64;
    let mut upper = 0u64;
    // Per-buffer distinct loaded bytes, for the energy lower bound and
    // the unique-traffic statistic.
    let mut loaded: BTreeMap<BufferKind, IntervalSet> = BTreeMap::new();
    let mut load_bytes_total = 0u64;
    let mut store_host_bytes = 0u64;
    // Dynamic energy, picojoules, priced per instruction.
    let mut dyn_upper_pj = 0.0f64;

    // Current region accumulator.
    let mut region_start = 0usize;
    let mut region_mmu = 0u64;
    let mut region_simd = 0u64;
    let mut region_dma_bytes = 0u64;
    let mut region_dma_transfers = 0u64;

    let mut close_region = |start: usize,
                            end: usize,
                            mmu: u64,
                            simd: u64,
                            dma_bytes: u64,
                            dma_transfers: u64,
                            trailing: bool|
     -> RegionBounds {
        // Best case: DMA fully overlapped, SIMD drains behind MMU
        // issue. The fill is charged at every `Sync` (matching the
        // simulator's accounting); a trailing region is charged only
        // when it performs datapath work.
        let charged = !trailing || mmu > 0 || simd > 0;
        let lo = if charged { mmu + fill } else { 0 };
        // Worst case: full SIMD occupancy serializes, and the region's
        // transfers block instead of overlapping. Within a region the
        // transfers queue back-to-back on the channel, so the DRAM
        // access latency pipelines behind the stream and is paid once
        // per region (the `Sync` drains the channel; the next region
        // starts cold).
        let dma_up = cost.dma_transfer_cycles(dma_bytes).ceil() as u64
            + if dma_transfers > 0 { cost.dram_latency_cycles } else { 0 };
        let hi = if charged { mmu + fill + simd } else { 0 } + dma_up;
        dma_cycles_upper += dma_up;
        RegionBounds {
            span: Span { start, end },
            cycles: CycleBounds { lower: lo, upper: hi },
            mmu_cycles: mmu,
            simd_cycles: simd,
            dma_bytes,
            dma_transfers,
        }
    };

    for (index, instr) in program.instructions().iter().enumerate() {
        if let Some(energy) = &cost.energy {
            dyn_upper_pj += energy.instruction_energy_pj(instr);
        }
        match *instr {
            Instruction::MatMulTile { .. } => {
                region_mmu += cost.mmu_cycles(instr);
                total_macs += instr.macs();
            }
            Instruction::Simd { .. } => {
                region_simd += cost.simd_cycles(instr);
            }
            Instruction::LoadDram { target, region } => {
                loaded.entry(target).or_default().insert(region.offset, region.end());
                load_bytes_total += region.bytes;
                region_dma_bytes += region.bytes;
                region_dma_transfers += 1;
            }
            Instruction::StoreDram { region, .. } => {
                store_host_bytes += region.bytes;
                region_dma_bytes += region.bytes;
                region_dma_transfers += 1;
            }
            Instruction::HostIo { bytes } => {
                store_host_bytes += bytes;
                region_dma_bytes += bytes;
                region_dma_transfers += 1;
            }
            Instruction::Sync => {
                let region = close_region(
                    region_start,
                    index + 1,
                    region_mmu,
                    region_simd,
                    region_dma_bytes,
                    region_dma_transfers,
                    false,
                );
                lower += region.cycles.lower;
                upper += region.cycles.upper;
                mmu_total += region_mmu;
                simd_total += region_simd;
                dma_bytes_total += region_dma_bytes;
                regions.push(region);
                region_start = index + 1;
                region_mmu = 0;
                region_simd = 0;
                region_dma_bytes = 0;
                region_dma_transfers = 0;
            }
        }
    }
    if region_start < program.len() {
        let region = close_region(
            region_start,
            program.len(),
            region_mmu,
            region_simd,
            region_dma_bytes,
            region_dma_transfers,
            true,
        );
        lower += region.cycles.lower;
        upper += region.cycles.upper;
        mmu_total += region_mmu;
        simd_total += region_simd;
        dma_bytes_total += region_dma_bytes;
        regions.push(region);
    }

    let unique_load_bytes: u64 = loaded.values().map(IntervalSet::covered_bytes).sum();
    let dma_bytes_unique = unique_load_bytes + store_host_bytes;
    let energy = cost.energy.as_ref().map(|params| {
        // Best case re-prices repeated loads at zero: each distinct
        // byte pays the SRAM write once (perfect reuse).
        let duplicate_load_bytes = load_bytes_total - unique_load_bytes;
        let dyn_lower_pj = dyn_upper_pj
            - duplicate_load_bytes as f64 * params.sram_energy_pj_per_byte * params.energy_scale;
        let second = |cycles: u64| {
            if cost.freq_hz > 0.0 { cycles as f64 / cost.freq_hz } else { 0.0 }
        };
        EnergyBounds {
            lower_j: dyn_lower_pj * 1e-12 + params.static_power_w() * second(lower),
            upper_j: dyn_upper_pj * 1e-12 + params.static_power_w() * second(upper),
        }
    });

    ProgramBounds {
        cycles: CycleBounds { lower, upper },
        energy,
        regions,
        total_macs,
        peak_macs_per_cycle: cost.peak_macs_per_cycle(),
        mmu_cycles: mmu_total,
        simd_cycles: simd_total,
        dma_bytes_total,
        dma_bytes_unique,
        dma_cycles_upper,
    }
}

/// Runs the bounds pass: computes [`ProgramBounds`] and appends the
/// `06xx` diagnostics to `report`.
pub fn analyze(
    report: &mut Report,
    program: &Program,
    cost: &CostModel,
    options: &BoundsOptions,
) -> ProgramBounds {
    let bounds = compute_bounds(program, cost);
    report.extend(soundness_diagnostics(&bounds));

    // EQX0602 — judged at program scope (a load-only prologue region is
    // fine if later compute covers it): even with perfect overlap, the
    // transfers cannot hide behind the datapath work.
    let compute_cycles = bounds.mmu_cycles + bounds.simd_cycles;
    if bounds.dma_cycles_upper > compute_cycles && bounds.dma_cycles_upper > 0 {
        let mut diag = Diagnostic::warning(
            Code::UNOVERLAPPABLE_DMA,
            format!(
                "worst-case DRAM/host traffic ({} cycles for {} bytes) exceeds total \
                 datapath occupancy ({} cycles): transfers cannot be fully overlapped",
                bounds.dma_cycles_upper, bounds.dma_bytes_total, compute_cycles
            ),
        );
        if let Some(index) = largest_transfer_index(program) {
            diag = diag.with_span(Span::at(index));
        }
        report.push(diag);
    }

    // EQX0603 — even the best-case schedule leaves the MMU mostly idle.
    if bounds.total_macs > 0 {
        let best = bounds.best_case_utilization();
        if best < options.utilization_floor {
            report.push(Diagnostic::warning(
                Code::UTILIZATION_BELOW_FLOOR,
                format!(
                    "best-case MMU utilization {:.4} is below the floor {:.4}",
                    best, options.utilization_floor
                ),
            ));
        }
    }

    // EQX0604 — the worst-case energy cannot be sustained inside the
    // configured power envelope over the worst-case duration.
    if let (Some(energy), Some(params)) = (bounds.energy, cost.energy.as_ref()) {
        if cost.freq_hz > 0.0 && params.power_budget_w > 0.0 {
            let envelope_j =
                params.power_budget_w * bounds.cycles.upper as f64 / cost.freq_hz;
            if energy.upper_j > envelope_j {
                report.push(Diagnostic::warning(
                    Code::ENERGY_OVER_ENVELOPE,
                    format!(
                        "worst-case energy {:.6e} J exceeds the {:.1} W envelope over the \
                         worst-case duration ({:.6e} J)",
                        energy.upper_j, params.power_budget_w, envelope_j
                    ),
                ));
            }
        }
    }

    bounds
}

/// Index of the single largest DRAM/host transfer, for EQX0602's span.
fn largest_transfer_index(program: &Program) -> Option<usize> {
    program
        .instructions()
        .iter()
        .enumerate()
        .filter_map(|(i, instr)| match *instr {
            Instruction::LoadDram { region, .. } | Instruction::StoreDram { region, .. } => {
                Some((i, region.bytes))
            }
            Instruction::HostIo { bytes } => Some((i, bytes)),
            _ => None,
        })
        .max_by_key(|&(i, bytes)| (bytes, std::cmp::Reverse(i)))
        .map(|(i, _)| i)
}

/// The paper's energy pricing for one encoding at one operating point:
/// `EncodingParams` ALU/word constants joined with the TSMC 28nm
/// technology table and the voltage-derived dynamic-energy scale at
/// `freq_hz`.
pub fn paper_energy_params(encoding: Encoding, freq_hz: f64) -> EnergyParams {
    let enc = EncodingParams::for_encoding(encoding);
    let tech = TechnologyParams::tsmc28();
    EnergyParams {
        alu_energy_pj: enc.alu_energy_pj,
        sram_energy_pj_per_byte: tech.sram_energy_pj_per_byte,
        bytes_per_value: enc.bytes_per_value,
        dram_power_w: tech.dram_power_w,
        sram_static_w: tech.sram_static_w(),
        power_budget_w: tech.power_budget_w,
        energy_scale: tech.energy_scale_at(freq_hz),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_arith::Encoding;
    use equinox_isa::instruction::Region;
    use equinox_isa::layers::{GemmMode, GemmStep};
    use equinox_isa::lower::{compile_inference, InferenceTiming};
    use equinox_isa::models::ModelSpec;
    use equinox_isa::ArrayDims;
    use equinox_sim::AcceleratorConfig;

    fn paper_cost() -> CostModel {
        let dims = ArrayDims { n: 186, w: 3, m: 3 };
        let config = AcceleratorConfig::new("bounds", dims, 610e6, Encoding::Hbfp8);
        CostModel::from_config(&config).with_energy(paper_energy_params(Encoding::Hbfp8, 610e6))
    }

    #[test]
    fn bounds_bracket_the_simulator_accounting_for_paper_models() {
        let cost = paper_cost();
        let dims = cost.dims;
        for model in [
            ModelSpec::lstm_2048_25(),
            ModelSpec::gru_2816_1500(),
            ModelSpec::resnet50(),
            ModelSpec::mlp_2048x5(),
        ] {
            let batch = model.serving_batch(&dims);
            let program = compile_inference(&model, &dims, batch);
            let timing = InferenceTiming::from_program(&program, &dims, batch);
            let bounds = compute_bounds(&program, &cost);
            assert!(
                bounds.cycles.contains(timing.total_cycles),
                "{}: measured {} outside [{}, {}]",
                model.name(),
                timing.total_cycles,
                bounds.cycles.lower,
                bounds.cycles.upper
            );
            assert!(
                bounds.cycles.ratio() <= 4.0,
                "{}: ratio {} too loose",
                model.name(),
                bounds.cycles.ratio()
            );
            let energy = bounds.energy.expect("energy attached");
            assert!(energy.lower_j > 0.0 && energy.lower_j <= energy.upper_j);
            assert!(soundness_diagnostics(&bounds).is_empty());
        }
    }

    #[test]
    fn sync_only_programs_price_exactly_the_fill() {
        let cost = paper_cost();
        let mut program = Program::new("syncs");
        program.push(Instruction::Sync);
        program.push(Instruction::Sync);
        let bounds = compute_bounds(&program, &cost);
        let fill = 2 * cost.fill_cycles();
        assert_eq!(bounds.cycles, CycleBounds { lower: fill, upper: fill });
        assert_eq!(bounds.cycles.ratio(), 1.0);
        let timing = InferenceTiming::from_program(&program, &cost.dims, 1);
        assert!(bounds.cycles.contains(timing.total_cycles));
    }

    #[test]
    fn trailing_dma_only_region_costs_nothing_in_the_lower_bound() {
        let cost = paper_cost();
        let mut program = Program::new("epilogue");
        program.push(Instruction::matmul(100, 10, 10, GemmMode::VectorMatrix));
        program.push(Instruction::Sync);
        program.push(Instruction::StoreDram {
            source: BufferKind::Activation,
            region: Region::new(0, 4096),
        });
        let bounds = compute_bounds(&program, &cost);
        let timing = InferenceTiming::from_program(&program, &cost.dims, 1);
        assert!(bounds.cycles.contains(timing.total_cycles));
        assert_eq!(bounds.regions.len(), 2);
        assert_eq!(bounds.regions[1].cycles.lower, 0, "uncharged trailing store");
        assert!(bounds.regions[1].cycles.upper > 0, "worst case still pays the transfer");
    }

    #[test]
    fn unoverlappable_dma_is_flagged_at_the_largest_transfer() {
        let cost = paper_cost();
        let mut program = Program::new("dma-bound");
        program.push(Instruction::LoadDram {
            target: BufferKind::Weight,
            region: Region::new(0, 50_000_000),
        });
        program.push(Instruction::matmul(4, 4, 4, GemmMode::VectorMatrix));
        program.push(Instruction::Sync);
        let mut report = Report::new("dma-bound");
        analyze(&mut report, &program, &cost, &BoundsOptions::default());
        assert!(report.has_code(Code::UNOVERLAPPABLE_DMA), "{}", report.render_human());
        let diag = report
            .diagnostics()
            .iter()
            .find(|d| d.code == Code::UNOVERLAPPABLE_DMA)
            .unwrap();
        assert_eq!(diag.span, Some(Span::at(0)));
        assert!(!report.has_errors());
    }

    #[test]
    fn compute_heavy_programs_do_not_trip_the_dma_lint() {
        let cost = paper_cost();
        let program = compile_inference(&ModelSpec::lstm_2048_25(), &cost.dims, 186);
        let mut report = Report::new("lstm");
        analyze(&mut report, &program, &cost, &BoundsOptions::default());
        assert!(!report.has_code(Code::UNOVERLAPPABLE_DMA), "{}", report.render_human());
        assert!(!report.has_code(Code::BOUND_INVERSION));
    }

    #[test]
    fn low_utilization_is_flagged_against_the_floor() {
        let cost = paper_cost();
        let mut program = Program::new("tiny");
        program.push(Instruction::matmul(1, 1, 1, GemmMode::VectorMatrix));
        program.push(Instruction::Sync);
        let mut report = Report::new("tiny");
        let bounds = analyze(&mut report, &program, &cost, &BoundsOptions::default());
        assert!(bounds.best_case_utilization() < 0.05);
        assert!(report.has_code(Code::UTILIZATION_BELOW_FLOOR), "{}", report.render_human());
        // A zero-MAC program must not fire the lint.
        let empty = Program::new("empty");
        let mut clean = Report::new("empty");
        analyze(&mut clean, &empty, &cost, &BoundsOptions::default());
        assert!(!clean.has_code(Code::UTILIZATION_BELOW_FLOOR));
    }

    #[test]
    fn energy_over_envelope_fires_under_a_tiny_power_budget() {
        let mut params = paper_energy_params(Encoding::Hbfp8, 610e6);
        params.power_budget_w = 1e-6;
        let dims = ArrayDims { n: 186, w: 3, m: 3 };
        let config = AcceleratorConfig::new("tiny-envelope", dims, 610e6, Encoding::Hbfp8);
        let cost = CostModel::from_config(&config).with_energy(params);
        let program = compile_inference(&ModelSpec::mlp_2048x5(), &dims, 8);
        let mut report = Report::new("tiny-envelope");
        analyze(&mut report, &program, &cost, &BoundsOptions::default());
        assert!(report.has_code(Code::ENERGY_OVER_ENVELOPE), "{}", report.render_human());
        // The paper's real 75 W envelope is respected.
        let real = paper_cost();
        let mut ok = Report::new("real-envelope");
        analyze(&mut ok, &program, &real, &BoundsOptions::default());
        assert!(!ok.has_code(Code::ENERGY_OVER_ENVELOPE), "{}", ok.render_human());
    }

    #[test]
    fn soundness_check_catches_hand_built_inversions() {
        let cost = paper_cost();
        let program = compile_inference(&ModelSpec::lstm_2048_25(), &cost.dims, 186);
        let mut bounds = compute_bounds(&program, &cost);
        assert!(soundness_diagnostics(&bounds).is_empty());
        std::mem::swap(&mut bounds.cycles.lower, &mut bounds.cycles.upper);
        let diags = soundness_diagnostics(&bounds);
        assert!(diags.iter().any(|d| d.code == Code::BOUND_INVERSION));
        assert!(diags.iter().all(|d| d.severity == crate::diag::Severity::Error));
    }

    #[test]
    fn repeated_loads_price_once_in_the_energy_lower_bound() {
        let cost = paper_cost();
        let mut program = Program::new("reload");
        for _ in 0..3 {
            program.push(Instruction::LoadDram {
                target: BufferKind::Weight,
                region: Region::new(0, 1000),
            });
        }
        program.push(Instruction::matmul(10, 10, 10, GemmMode::VectorMatrix));
        program.push(Instruction::Sync);
        let bounds = compute_bounds(&program, &cost);
        assert_eq!(bounds.dma_bytes_total, 3000);
        assert_eq!(bounds.dma_bytes_unique, 1000);
        let energy = bounds.energy.unwrap();
        assert!(energy.lower_j < energy.upper_j);
    }

    #[test]
    fn bounds_are_monotone_in_batch_size_and_layer_width() {
        let cost = paper_cost();
        let mut previous = CycleBounds { lower: 0, upper: 0 };
        for batch in [1usize, 4, 16, 64] {
            let program = compile_inference(&ModelSpec::mlp_2048x5(), &cost.dims, batch);
            let bounds = compute_bounds(&program, &cost);
            assert!(bounds.cycles.lower >= previous.lower, "batch {batch}");
            assert!(bounds.cycles.upper >= previous.upper, "batch {batch}");
            previous = bounds.cycles;
        }
        previous = CycleBounds { lower: 0, upper: 0 };
        for width in [256u32, 512, 1024, 2048] {
            let model = ModelSpec::new(
                format!("dense_{width}"),
                vec![GemmStep::dense(width as usize, width as usize)],
            );
            let program = compile_inference(&model, &cost.dims, 8);
            let bounds = compute_bounds(&program, &cost);
            assert!(bounds.cycles.lower >= previous.lower, "width {width}");
            assert!(bounds.cycles.upper >= previous.upper, "width {width}");
            previous = bounds.cycles;
        }
    }

    #[test]
    fn paper_energy_params_mirror_the_technology_table() {
        let params = paper_energy_params(Encoding::Hbfp8, 610e6);
        let tech = TechnologyParams::tsmc28();
        assert_eq!(params.power_budget_w, tech.power_budget_w);
        assert_eq!(params.sram_energy_pj_per_byte, tech.sram_energy_pj_per_byte);
        assert_eq!(params.dram_power_w, tech.dram_power_w);
        assert!((params.sram_static_w - tech.sram_static_w()).abs() < 1e-12);
        assert!(params.energy_scale > 0.0 && params.energy_scale <= 1.0);
        assert_eq!(params.bytes_per_value, 1.0);
    }
}
