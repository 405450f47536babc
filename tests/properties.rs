//! Cross-crate property tests on workspace-level invariants.

use equinox::isa::lower::{compile_inference, InferenceTiming};
use equinox::isa::models::ModelSpec;
use equinox::isa::ArrayDims;
use equinox::model::{DesignSpace, TechnologyParams};
use equinox_arith::check::for_each_case;
use equinox_arith::Encoding;

/// The compiler conserves MACs for any geometry and batch: lowering
/// never drops or duplicates work.
#[test]
fn lowering_conserves_macs() {
    for_each_case(12, 0x707201, |g| {
        // Degenerate 1×1 tiles make the LSTM program hundreds of
        // millions of instructions; realistic tiles keep the property
        // run fast while covering the same arithmetic.
        let dims = ArrayDims {
            n: g.usize_in(8, 64),
            w: g.usize_in(2, 8),
            m: g.usize_in(2, 8),
        };
        let batch = g.usize_in(1, 32);
        let model = ModelSpec::lstm_2048_25();
        let program = compile_inference(&model, &dims, batch);
        assert_eq!(program.total_macs(), batch as u64 * model.macs_per_sample());
        let timing = InferenceTiming::from_program(&program, &dims, batch);
        assert_eq!(timing.total_macs, program.total_macs());
        assert!(timing.total_cycles >= timing.mmu_busy_cycles);
        assert!(timing.mmu_utilization > 0.0 && timing.mmu_utilization <= 1.0);
    });
}

/// Effective throughput never exceeds the geometry's peak.
#[test]
fn effective_throughput_bounded_by_peak() {
    for_each_case(12, 0x707202, |g| {
        let dims = ArrayDims {
            n: g.usize_in(8, 64),
            w: g.usize_in(2, 8),
            m: g.usize_in(2, 8),
        };
        let model = ModelSpec::lstm_2048_25();
        let program = compile_inference(&model, &dims, dims.n.max(1));
        let timing = InferenceTiming::from_program(&program, &dims, dims.n.max(1));
        let peak = 2.0 * dims.alu_count() as f64 * 1e9;
        assert!(timing.effective_throughput_ops(1e9) <= peak * (1.0 + 1e-9));
    });
}

/// Every design in the sweep respects both envelopes, for any
/// (reasonably sized) sweep limits.
#[test]
fn swept_designs_feasible() {
    for_each_case(12, 0x707203, |g| {
        let n_max = g.usize_in(2, 24);
        let w_max = g.usize_in(2, 16);
        let tech = TechnologyParams::tsmc28();
        let space = DesignSpace::sweep_with_limits(Encoding::Hbfp8, &tech, n_max, w_max);
        for p in space.points() {
            assert!(p.area_mm2 <= tech.die_area_mm2 + 1e-9);
            assert!(p.power_w <= tech.power_budget_w + 1e-9);
        }
        // The frontier is monotone: higher throughput costs latency.
        for pair in space.frontier().windows(2) {
            assert!(pair[0].throughput_ops <= pair[1].throughput_ops);
            assert!(pair[0].service_time_s <= pair[1].service_time_s);
        }
    });
}

/// hbfp8 GEMM through the full datapath stays close to fp32 for
/// unit-scale operands of any shape. The error is normalized by the
/// operand norms (a near-cancelling exact result would make an
/// output-relative metric meaningless).
#[test]
fn hbfp_gemm_error_bounded() {
    for_each_case(12, 0x707204, |g| {
        use equinox_arith::{gemm, Matrix};
        let mrows = g.usize_in(1, 8);
        let k = g.usize_in(1, 64);
        let ncols = g.usize_in(1, 8);
        let a = Matrix::from_fn(mrows, k, |r, c| ((r * 7 + c * 3) as f32).sin());
        let b = Matrix::from_fn(k, ncols, |r, c| ((r * 5 + c * 11) as f32).cos());
        let exact = gemm::gemm_f32(&a, &b);
        let approx = gemm::gemm_hbfp(&a, &b, &gemm::HbfpGemmConfig::default());
        let abs = exact.zip_map(&approx, |e, x| x - e).frobenius_norm();
        let scale = a.frobenius_norm() * b.frobenius_norm() + f32::MIN_POSITIVE;
        assert!(abs / scale < 0.05, "normalized err {}", abs / scale);
    });
}

/// Deterministic invariant: the simulation is reproducible — identical
/// seeds give identical reports.
#[test]
fn simulation_deterministic() {
    use equinox::core::{Equinox, RunOptions};
    use equinox::model::LatencyConstraint;
    let eq = Equinox::build(Encoding::Hbfp8, LatencyConstraint::Micros(50)).unwrap();
    let run = || {
        let r = eq
            .run(&RunOptions {
                target_requests: 400,
                ..RunOptions::colocated(0.6)
            })
            .expect("simulation run");
        (
            r.completed_requests,
            r.latency.p99(),
            r.training_mmu_cycles,
            r.batches_issued,
        )
    };
    assert_eq!(run(), run());
}

/// The static bounds bracket the dispatcher's timing accounting for
/// any geometry and batch, and widening the workload (larger batch or
/// wider layers) never shrinks either bound.
#[test]
fn static_bounds_bracket_timing_and_grow_with_the_workload() {
    use equinox::check::bounds::compute_bounds;
    use equinox::isa::layers::{GemmMode, GemmStep};
    use equinox::sim::{AcceleratorConfig, CostModel};

    for_each_case(12, 0x707205, |g| {
        let dims = ArrayDims {
            n: g.usize_in(8, 64),
            w: g.usize_in(2, 8),
            m: g.usize_in(2, 8),
        };
        let config = AcceleratorConfig::new("prop", dims, 1e9, Encoding::Hbfp8);
        let cost = CostModel::from_config(&config);
        let batch = g.usize_in(1, 16);
        let width = g.usize_in(64, 512);
        let model_of = |k: usize| {
            ModelSpec::new(
                "prop-mlp",
                vec![GemmStep {
                    k,
                    out: k,
                    rows_per_sample: 1,
                    simd_elems_per_sample: k,
                    mode: GemmMode::VectorMatrix,
                    repeats: 2,
                    weights_shared_across_repeats: false,
                }],
            )
        };
        let bounds_of = |k: usize, b: usize| {
            let model = model_of(k);
            let program = compile_inference(&model, &dims, b);
            let timing = InferenceTiming::from_program(&program, &dims, b);
            let bounds = compute_bounds(&program, &cost);
            assert!(
                bounds.cycles.contains(timing.total_cycles),
                "measured {} outside [{}, {}] at k={k} b={b} dims={dims:?}",
                timing.total_cycles,
                bounds.cycles.lower,
                bounds.cycles.upper,
            );
            bounds
        };
        let base = bounds_of(width, batch);
        let bigger_batch = bounds_of(width, batch * 2);
        assert!(bigger_batch.cycles.lower >= base.cycles.lower);
        assert!(bigger_batch.cycles.upper >= base.cycles.upper);
        let wider = bounds_of(width * 2, batch);
        assert!(wider.cycles.lower >= base.cycles.lower);
        assert!(wider.cycles.upper >= base.cycles.upper);
    });
}

/// Adjacent-but-non-overlapping byte regions are legal dataflow: a
/// consumer reading exactly the union of two back-to-back definitions
/// must never trip the use-before-define or clobber lints.
#[test]
fn adjacent_regions_are_not_dataflow_hazards() {
    use equinox::check::diag::Code;
    use equinox::check::{analyze_program, BufferBudget};
    use equinox::isa::instruction::{BufferKind, Region};
    use equinox::isa::layers::GemmMode;
    use equinox::isa::{Instruction, Program};

    for_each_case(24, 0x707206, |g| {
        let dims = ArrayDims { n: 16, w: 4, m: 4 };
        // Two loads defining [off, off+a) and [off+a, off+a+b): they
        // touch but share no byte.
        let off = g.usize_in(0, 4096) as u64 * 16;
        let a = g.usize_in(1, 256) as u64 * 16;
        let b = g.usize_in(1, 256) as u64 * 16;
        let mut p = Program::new("adjacent");
        p.push(Instruction::LoadDram {
            target: BufferKind::Activation,
            region: Region::new(off, a),
        });
        p.push(Instruction::LoadDram {
            target: BufferKind::Activation,
            region: Region::new(off + a, b),
        });
        p.push(Instruction::LoadDram {
            target: BufferKind::Weight,
            region: Region::new(0, 64),
        });
        p.push(Instruction::Sync);
        // The consumer reads the union; its output lands immediately
        // after the inputs — adjacent again, still no overlap.
        p.push(Instruction::MatMulTile {
            rows: 4,
            k_span: 8,
            out_span: 8,
            mode: GemmMode::VectorMatrix,
            weights: Region::new(0, 64),
            input: Region::new(off, a + b),
            output: Region::new(off + a + b, 64),
        });
        p.push(Instruction::Sync);
        p.push(Instruction::StoreDram {
            source: BufferKind::Activation,
            region: Region::new(off + a + b, 64),
        });
        let report =
            analyze_program(&p, &dims, &BufferBudget::paper_default(), Encoding::Hbfp8);
        for code in [Code::PARTIAL_CLOBBER, Code::DMA_RACE] {
            assert!(
                !report.has_code(code),
                "false positive {code:?} at off={off} a={a} b={b}: {}",
                report.render_human(),
            );
        }
    });
}

/// Ring and binomial-tree all-reduce schedules are bitwise-identical
/// reducers: over random group sizes, gradient lengths, and values,
/// both produce exactly the plain wrapping-sum of the inputs — the
/// property that makes the swept schedules interchangeable in the
/// harvest arithmetic.
#[test]
fn allreduce_schedules_reduce_bitwise_identically() {
    use equinox::net::{reduce_gradients, AllReduceSchedule};

    for_each_case(24, 0x707208, |g| {
        let k = g.usize_in(2, 13);
        let n = g.usize_in(1, 400);
        let grads: Vec<Vec<i64>> = (0..k)
            .map(|_| (0..n).map(|_| g.next_u64() as i64).collect())
            .collect();
        let expected: Vec<i64> = (0..n)
            .map(|j| grads.iter().fold(0i64, |acc, v| acc.wrapping_add(v[j])))
            .collect();
        let ring = reduce_gradients(AllReduceSchedule::Ring, &grads);
        let tree = reduce_gradients(AllReduceSchedule::Tree, &grads);
        assert_eq!(ring, expected, "ring diverged at k={k} n={n}");
        assert_eq!(tree, expected, "tree diverged at k={k} n={n}");
    });
}

/// Every simulated all-reduce round conserves bytes on every link —
/// offered equals delivered plus dropped plus still-queued — for
/// random fleets, participant groups, fabrics, schedules, switching
/// policies, and background loads. Holds even when PFC deadlocks or a
/// flow aborts: packets may die, bytes may not.
#[test]
fn allreduce_flows_conserve_link_bytes() {
    use equinox::net::{
        run_allreduce_round, AllReduceSchedule, InterconnectSpec, SwitchPolicy, Topology,
    };

    for_each_case(24, 0x707209, |g| {
        let n = g.usize_in(2, 9);
        let k = g.usize_in(2, n + 1);
        let start = g.usize_in(0, n - k + 1);
        let participants: Vec<usize> = (start..start + k).collect();
        let topology = match g.usize_in(0, 3) {
            0 => Topology::OneBigSwitch,
            1 => Topology::Ring,
            _ => Topology::Tree { leaf_group: g.usize_in(2, 5) },
        };
        let switching = if g.usize_in(0, 2) == 0 {
            SwitchPolicy::DropTail
        } else {
            SwitchPolicy::Pfc
        };
        let schedule = if g.usize_in(0, 2) == 0 {
            AllReduceSchedule::Ring
        } else {
            AllReduceSchedule::Tree
        };
        let spec = InterconnectSpec::datacenter(g.usize_in(4_096, 262_144) as u64, 65_536)
            .with_topology(topology)
            .with_switching(switching)
            .with_schedule(schedule);
        let bg: Vec<f64> = (0..n).map(|_| g.next_f64() * 16.0).collect();
        let outcome = run_allreduce_round(&spec, n, &participants, &bg, g.next_u64())
            .expect("drawn specs validate");
        assert!(
            outcome.conserves(),
            "link byte conservation violated: n={n} k={k} {topology:?} \
             {switching:?} {schedule:?}",
        );
        assert!(outcome.round_cycles > 0);
        // Drop-tail fabrics must always finish the round: go-back-N
        // recovers every loss within the retry budget.
        if switching == SwitchPolicy::DropTail {
            assert!(
                outcome.completed(),
                "drop-tail round failed: n={n} k={k} {topology:?} {schedule:?} \
                 ({} aborted, truncated {})",
                outcome.aborted_flows,
                outcome.truncated,
            );
        }
    });
}

/// The all-reduce entry point never panics: for random interconnect
/// specs whose cycle, byte and window knobs are often 0, 1 or their
/// type's maximum, random link rates and background caps (NaN and
/// infinities among them), random background demands (NaN and ±∞
/// among them) and random participant lists, `run_allreduce_round`
/// returns `Ok` or `Err`. Gradients stay ≤ 1 MiB and ≤ 64 packets,
/// fleets ≤ 16 devices and retry budgets ≤ 3, so every case is cheap.
#[test]
fn allreduce_round_never_panics_on_extreme_specs() {
    use equinox::net::{
        run_allreduce_round, AllReduceSchedule, InterconnectSpec, SwitchPolicy, Topology,
    };
    use equinox_arith::rng::SplitMix64;

    /// 0, 1 or `max` one time in sixteen each; otherwise
    /// 1..=`moderate`.
    fn knob(g: &mut SplitMix64, max: u64, moderate: u64) -> u64 {
        match g.usize_in(0, 16) {
            0 => 0,
            1 => 1,
            2 => max,
            _ => 1 + g.next_u64() % moderate,
        }
    }

    let mut rounds = 0;
    for_each_case(256, 0x70720a, |g| {
        let n = g.usize_in(1, 17);
        let topology = match g.usize_in(0, 3) {
            0 => Topology::OneBigSwitch,
            1 => Topology::Ring,
            _ => Topology::Tree { leaf_group: knob(g, u64::MAX, 8) as usize },
        };
        let switching = if g.next_bool() { SwitchPolicy::DropTail } else { SwitchPolicy::Pfc };
        let schedule = if g.next_bool() { AllReduceSchedule::Ring } else { AllReduceSchedule::Tree };
        let mut spec = InterconnectSpec::datacenter(0, knob(g, u64::MAX, 1 << 16))
            .with_topology(topology)
            .with_switching(switching)
            .with_schedule(schedule);
        spec.link.rate_bytes_per_cycle = match g.usize_in(0, 32) {
            0 => 0.0,
            1 => -1.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => 1e-300,
            5 => 1e300,
            _ => g.f64_in(0.5, 64.0),
        };
        spec.link.latency_cycles = knob(g, u64::MAX, 2_000);
        spec.link.queue_bytes = knob(g, u64::MAX, 1 << 20);
        spec.packet_bytes = knob(g, u64::from(u32::MAX), 8_192) as u32;
        spec.window_packets = knob(g, u64::from(u32::MAX), 32) as u32;
        spec.timeout_cycles = knob(g, u64::MAX, 50_000);
        spec.retry_budget = g.usize_in(0, 4) as u32;
        spec.gradient_bytes =
            knob(g, 1 << 20, 1 << 20).min(64 * u64::from(spec.packet_bytes.max(1)));
        spec.bg_cap_frac = match g.usize_in(0, 8) {
            0 => 0.0,
            1 => 1.0,
            2 => f64::NAN,
            _ => g.next_f64(),
        };
        let mut demand: Vec<f64> = (0..n)
            .map(|_| match g.usize_in(0, 8) {
                0 => 0.0,
                1 => -1.0,
                2 => 1e-300,
                3 => 1e300,
                _ => g.next_f64() * 16.0,
            })
            .collect();
        if g.usize_in(0, 8) == 0 {
            let i = g.usize_in(0, n);
            demand[i] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][g.usize_in(0, 3)];
        }
        let mut participants: Vec<usize> =
            (0..g.usize_in(0, 7)).map(|_| g.usize_in(0, n)).collect();
        if g.usize_in(0, 8) == 0 {
            participants.push(n); // out of range: the round must reject it
        }
        if let Ok(out) = run_allreduce_round(&spec, n, &participants, &demand, g.next_u64()) {
            rounds += usize::from(out.flows > 0);
        }
    });
    // The draws must reach the packet loop, not only the validation.
    assert!(rounds >= 32, "only {rounds} of 256 cases simulated flows");
}

/// The numerics pass is never false-safe: for random reduction
/// geometries, every chain the pass marks saturation-safe survives the
/// executed 25-bit accumulator at worst-case operand magnitudes (and
/// on seeded random data), and every chain it marks unsafe demonstrably
/// saturates. This is the same replay the `numerics` calibration gate
/// runs over the paper lowerings, driven here over arbitrary shapes.
#[test]
fn numerics_verdicts_never_false_safe_against_executed_arithmetic() {
    use equinox::check::numerics::{compute_numerics, NumericsOptions};
    use equinox::isa::layers::GemmMode;
    use equinox::isa::{Instruction, Program};
    use equinox_core::experiments::numerics::probe_chain;

    for_each_case(24, 0x707207, |g| {
        let mut p = Program::new("prop-numerics");
        for _ in 0..g.usize_in(1, 5) {
            let k = g.usize_in(1, 2048);
            p.push(Instruction::matmul(
                g.usize_in(1, 8),
                k,
                g.usize_in(1, 8),
                GemmMode::VectorMatrix,
            ));
        }
        let summary = compute_numerics(&p, Encoding::Hbfp8, &NumericsOptions::default());
        assert!(!summary.chains.is_empty());
        for v in &summary.chains {
            let probe = probe_chain(v, 2);
            assert!(
                !probe.false_safe(),
                "false-safe verdict: k={} declared safe up to {} but saturated \
                 (adversarial {} / random {})",
                v.k_span,
                v.safe_depth,
                probe.adversarial_saturations,
                probe.random_saturations,
            );
            assert!(
                probe.sound(),
                "unsound verdict at k={} (safe_depth {}, static_safe {})",
                v.k_span,
                v.safe_depth,
                probe.static_safe,
            );
        }
    });
}
