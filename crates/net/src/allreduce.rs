//! All-reduce schedules: the flow plan each free epoch runs over the
//! harvesting participants, and the fixed-point value semantics that
//! make every schedule produce bitwise-identical reduced gradients.

use crate::fabric::Fabric;
use crate::report::RoundOutcome;
use crate::sim::NetSim;
use crate::spec::{AllReduceSchedule, InterconnectSpec};
use equinox_arith::rng::SplitMix64;
use equinox_isa::EquinoxError;

/// One gradient transfer of a schedule step: `bytes` from device
/// `src` to device `dst` (fleet device indices, not participant
/// ranks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepFlow {
    /// Sending device.
    pub src: usize,
    /// Receiving device.
    pub dst: usize,
    /// Transfer size, bytes.
    pub bytes: u64,
}

/// The flow plan of one all-reduce round over `participants` (fleet
/// device indices; rank `r` is `participants[r]`), moving
/// `gradient_bytes` per participant. Steps are barriers: the engine
/// launches a step's flows together once the previous step fully
/// completed.
///
/// * [`AllReduceSchedule::Ring`]: `2(k−1)` steps; in each, every rank
///   sends one `⌈G/k⌉`-byte chunk to its clockwise neighbour
///   (reduce-scatter, then all-gather).
/// * [`AllReduceSchedule::Tree`]: `⌈log₂ k⌉` reduce levels folding
///   full gradients pairwise into rank 0, then the mirrored broadcast
///   levels back out.
///
/// Fewer than two participants need no communication: the plan is
/// empty.
pub fn schedule_steps(
    schedule: AllReduceSchedule,
    participants: &[usize],
    gradient_bytes: u64,
) -> Vec<Vec<StepFlow>> {
    let k = participants.len();
    if k < 2 {
        return Vec::new();
    }
    match schedule {
        AllReduceSchedule::Ring => {
            let chunk = gradient_bytes.div_ceil(k as u64);
            (0..2 * (k - 1))
                .map(|_| {
                    (0..k)
                        .map(|i| StepFlow {
                            src: participants[i],
                            dst: participants[(i + 1) % k],
                            bytes: chunk,
                        })
                        .collect()
                })
                .collect()
        }
        AllReduceSchedule::Tree => {
            let levels = usize::BITS - (k - 1).leading_zeros();
            let mut steps = Vec::new();
            for l in 0..levels {
                let stride = 1usize << l;
                let step: Vec<StepFlow> = (0..k)
                    .filter(|r| r % (stride << 1) == stride)
                    .map(|r| StepFlow {
                        src: participants[r],
                        dst: participants[r - stride],
                        bytes: gradient_bytes,
                    })
                    .collect();
                if !step.is_empty() {
                    steps.push(step);
                }
            }
            let reduce = steps.clone();
            for step in reduce.iter().rev() {
                steps.push(
                    step.iter()
                        .map(|f| StepFlow { src: f.dst, dst: f.src, bytes: f.bytes })
                        .collect(),
                );
            }
            steps
        }
    }
}

/// The value side of a round: reduces `grads` (one fixed-point `i64`
/// vector per participant, all the same length) the way `schedule`
/// moves data, with wrapping addition. Because wrapping integer
/// addition is associative and commutative, the ring's chunked
/// reduce-scatter and the tree's pairwise fold return bitwise-equal
/// vectors — the workspace property suite asserts exactly this.
///
/// # Panics
///
/// Panics if the gradient vectors have unequal lengths.
pub fn reduce_gradients(schedule: AllReduceSchedule, grads: &[Vec<i64>]) -> Vec<i64> {
    let k = grads.len();
    let Some(first) = grads.first() else { return Vec::new() };
    assert!(
        grads.iter().all(|g| g.len() == first.len()),
        "gradient vectors must have equal lengths"
    );
    if k == 1 {
        return first.clone();
    }
    let n = first.len();
    match schedule {
        AllReduceSchedule::Ring => {
            // Chunk c covers values (c·n)/k .. ((c+1)·n)/k.
            let range = |c: usize| (c * n) / k..((c + 1) * n) / k;
            let mut work: Vec<Vec<i64>> = grads.to_vec();
            for s in 0..k - 1 {
                // Snapshot the sent chunks, then apply: rank i sends
                // chunk (i − s) mod k to rank (i + 1) mod k.
                let sends: Vec<(usize, usize, Vec<i64>)> = (0..k)
                    .map(|i| {
                        let c = (i + k - s % k) % k;
                        ((i + 1) % k, c, work[i][range(c)].to_vec())
                    })
                    .collect();
                for (dst, c, payload) in sends {
                    for (slot, v) in work[dst][range(c)].iter_mut().zip(payload) {
                        *slot = slot.wrapping_add(v);
                    }
                }
            }
            // After k−1 steps rank i fully owns chunk (i + 1) mod k;
            // the all-gather steps copy (never add), so assembling the
            // owned chunks is exact.
            let mut out = vec![0i64; n];
            for c in 0..k {
                let owner = (c + k - 1) % k;
                out[range(c)].copy_from_slice(&work[owner][range(c)]);
            }
            out
        }
        AllReduceSchedule::Tree => {
            let mut work: Vec<Vec<i64>> = grads.to_vec();
            let levels = usize::BITS - (k - 1).leading_zeros();
            for l in 0..levels {
                let stride = 1usize << l;
                for r in (0..k).filter(|r| r % (stride << 1) == stride) {
                    let (low, high) = work.split_at_mut(r);
                    for (slot, v) in low[r - stride].iter_mut().zip(&high[0]) {
                        *slot = slot.wrapping_add(*v);
                    }
                }
            }
            // The broadcast levels copy rank 0's vector back out.
            work.swap_remove(0)
        }
    }
}

/// Simulates one all-reduce round: builds the fabric, attaches each
/// device's background demand (`bg_demand_bytes_per_cycle[i]` for
/// device `i`, with injection phases drawn from a `SplitMix64` seeded
/// by `seed` — the fleet passes `split_seed(seed, 1 << 33)`), then
/// runs `spec.schedule`'s steps over `participants`.
///
/// # Errors
///
/// [`EquinoxError::InvalidArgument`] when the spec fails
/// [`InterconnectSpec::validate`], a participant index is out of
/// range, the demand slice length differs from `n_devices`, or a
/// demand is NaN or infinite. (A zero or negative demand attaches no
/// background source.)
pub fn run_allreduce_round(
    spec: &InterconnectSpec,
    n_devices: usize,
    participants: &[usize],
    bg_demand_bytes_per_cycle: &[f64],
    seed: u64,
) -> Result<RoundOutcome, EquinoxError> {
    spec.validate(n_devices)?;
    if bg_demand_bytes_per_cycle.len() != n_devices {
        return Err(EquinoxError::invalid_argument(
            "run_allreduce_round",
            format!(
                "expected {} background demands, got {}",
                n_devices,
                bg_demand_bytes_per_cycle.len()
            ),
        ));
    }
    if let Some((device, bad)) =
        bg_demand_bytes_per_cycle.iter().enumerate().find(|(_, d)| !d.is_finite())
    {
        return Err(EquinoxError::invalid_argument(
            "run_allreduce_round",
            format!("background demand of device {device} must be finite, got {bad}"),
        ));
    }
    if let Some(&bad) = participants.iter().find(|&&p| p >= n_devices) {
        return Err(EquinoxError::invalid_argument(
            "run_allreduce_round",
            format!("participant {bad} out of range for {n_devices} devices"),
        ));
    }
    let fabric = Fabric::build(spec.topology, n_devices, spec.link);
    let mut sim = NetSim::new(&fabric, spec);
    let mut rng = SplitMix64::seed_from_u64(seed);
    for (device, &demand) in bg_demand_bytes_per_cycle.iter().enumerate() {
        let phase = rng.next_u64();
        sim.add_background(device, demand, phase);
    }
    let steps = schedule_steps(spec.schedule, participants, spec.gradient_bytes);
    sim.run_steps(&steps);
    Ok(sim.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Topology;

    #[test]
    fn ring_schedule_shape_is_2k_minus_2_steps_of_k_chunks() {
        let parts = [2, 5, 6, 7];
        let steps = schedule_steps(AllReduceSchedule::Ring, &parts, 1_000);
        assert_eq!(steps.len(), 6);
        for step in &steps {
            assert_eq!(step.len(), 4);
            for f in step {
                assert_eq!(f.bytes, 250);
                assert!(parts.contains(&f.src) && parts.contains(&f.dst));
            }
        }
        // Rank 3's clockwise neighbour is rank 0.
        assert!(steps[0].iter().any(|f| f.src == 7 && f.dst == 2));
    }

    #[test]
    fn tree_schedule_folds_into_rank_zero_and_mirrors_back() {
        let parts = [0, 1, 2, 3, 4];
        let steps = schedule_steps(AllReduceSchedule::Tree, &parts, 64);
        // Levels for k=5: strides 1, 2, 4 → 3 reduce + 3 broadcast.
        assert_eq!(steps.len(), 6);
        assert_eq!(steps[0], vec![
            StepFlow { src: 1, dst: 0, bytes: 64 },
            StepFlow { src: 3, dst: 2, bytes: 64 },
        ]);
        assert_eq!(steps[2], vec![StepFlow { src: 4, dst: 0, bytes: 64 }]);
        // Broadcast mirrors the reduce in reverse order.
        assert_eq!(steps[3], vec![StepFlow { src: 0, dst: 4, bytes: 64 }]);
        assert_eq!(steps[5], vec![
            StepFlow { src: 0, dst: 1, bytes: 64 },
            StepFlow { src: 2, dst: 3, bytes: 64 },
        ]);
    }

    #[test]
    fn fewer_than_two_participants_need_no_steps() {
        assert!(schedule_steps(AllReduceSchedule::Ring, &[3], 1_000).is_empty());
        assert!(schedule_steps(AllReduceSchedule::Tree, &[], 1_000).is_empty());
    }

    #[test]
    fn ring_and_tree_reductions_are_bitwise_identical() {
        // Values chosen to wrap if summed naively.
        let grads: Vec<Vec<i64>> = (0..5)
            .map(|d| (0..37).map(|j| i64::MAX / 3 + d * 1_000 + j).collect())
            .collect();
        let ring = reduce_gradients(AllReduceSchedule::Ring, &grads);
        let tree = reduce_gradients(AllReduceSchedule::Tree, &grads);
        assert_eq!(ring, tree);
        // And both equal the plain wrapping fold.
        let mut expect = vec![0i64; 37];
        for g in &grads {
            for (slot, v) in expect.iter_mut().zip(g) {
                *slot = slot.wrapping_add(*v);
            }
        }
        assert_eq!(ring, expect);
    }

    #[test]
    fn a_round_on_the_datacenter_spec_completes_and_conserves() {
        for schedule in [AllReduceSchedule::Ring, AllReduceSchedule::Tree] {
            for topology in [Topology::Ring, Topology::Tree { leaf_group: 2 }] {
                let spec = InterconnectSpec::datacenter(1 << 20, 65_536)
                    .with_schedule(schedule)
                    .with_topology(topology);
                let demand = vec![4.0; 8];
                let out =
                    run_allreduce_round(&spec, 8, &[0, 2, 4, 6], &demand, 42).unwrap();
                assert!(out.completed(), "{schedule:?}/{topology:?}: {out:?}");
                assert!(out.conserves());
                assert!(out.round_cycles > 0);
                // Ring: 2(k−1) steps; binomial tree over k=4: 2·log₂ 4.
                let expect = match schedule {
                    AllReduceSchedule::Ring => 6,
                    AllReduceSchedule::Tree => 4,
                };
                assert_eq!(out.per_step_cycles.len(), expect);
            }
        }
    }

    #[test]
    fn round_rejects_bad_inputs() {
        let spec = InterconnectSpec::datacenter(1 << 20, 65_536);
        assert!(run_allreduce_round(&spec, 4, &[0, 9], &[0.0; 4], 1).is_err());
        assert!(run_allreduce_round(&spec, 4, &[0, 1], &[0.0; 3], 1).is_err());
        let mut bad = spec;
        bad.gradient_bytes = 0;
        assert!(run_allreduce_round(&bad, 4, &[0, 1], &[0.0; 4], 1).is_err());
    }

    fn round_with_demand(demand: f64) -> Result<RoundOutcome, EquinoxError> {
        let spec = InterconnectSpec::datacenter(1 << 20, 65_536);
        run_allreduce_round(&spec, 4, &[0, 1, 2, 3], &[1.0, demand, 1.0, 1.0], 3)
    }

    #[test]
    fn a_nan_demand_is_rejected() {
        let err = round_with_demand(f64::NAN).unwrap_err();
        assert_eq!(err.kind(), "invalid-argument");
    }

    #[test]
    fn an_infinite_demand_is_rejected() {
        for demand in [f64::INFINITY, f64::NEG_INFINITY] {
            let err = round_with_demand(demand).unwrap_err();
            assert_eq!(err.kind(), "invalid-argument", "{demand}");
        }
    }

    #[test]
    fn a_zero_or_negative_demand_attaches_no_background() {
        let spec = InterconnectSpec::datacenter(1 << 20, 65_536);
        let quiet = run_allreduce_round(&spec, 4, &[0, 1, 2, 3], &[0.0; 4], 3).unwrap();
        assert_eq!(quiet.bg_packets_delivered + quiet.bg_packets_dropped, 0);
        for demand in [0.0, -0.0, -5.0, f64::MIN] {
            let out = run_allreduce_round(&spec, 4, &[0, 1, 2, 3], &[demand; 4], 3).unwrap();
            assert_eq!(out, quiet, "{demand}");
        }
        // Only device 1's zero demand goes quiet; the others still load
        // their links.
        let mixed = round_with_demand(0.0).unwrap();
        assert!(mixed.bg_packets_delivered > 0);
    }
}
