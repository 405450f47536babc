//! Poisson request traffic (§5: "a load generator that creates inference
//! requests following Poisson arrival rates").

use equinox_arith::rng::SplitMix64;
use equinox_isa::EquinoxError;

/// Generates Poisson arrival times (in cycles) with a deterministic
/// seed.
///
/// # Errors
///
/// [`EquinoxError::InvalidArgument`] if `rate_per_cycle` is negative or
/// not finite.
///
/// # Example
///
/// ```
/// use equinox_sim::loadgen::poisson_arrivals;
/// let arrivals = poisson_arrivals(1e-3, 1_000_000, 42).unwrap();
/// // Rate 1e-3 per cycle over 1e6 cycles ⇒ ≈1000 arrivals.
/// assert!(arrivals.len() > 800 && arrivals.len() < 1200);
/// ```
pub fn poisson_arrivals(
    rate_per_cycle: f64,
    horizon_cycles: u64,
    seed: u64,
) -> Result<Vec<u64>, EquinoxError> {
    if !rate_per_cycle.is_finite() || rate_per_cycle < 0.0 {
        return Err(EquinoxError::invalid_argument(
            "loadgen::poisson_arrivals",
            format!("rate must be finite and non-negative, got {rate_per_cycle}"),
        ));
    }
    let mut arrivals = Vec::new();
    if rate_per_cycle == 0.0 {
        return Ok(arrivals);
    }
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut t = 0.0f64;
    loop {
        // Exponential inter-arrival: -ln(U)/λ.
        let u: f64 = rng.next_f64().max(f64::MIN_POSITIVE);
        t += -u.ln() / rate_per_cycle;
        if t >= horizon_cycles as f64 {
            break;
        }
        arrivals.push(t as u64);
    }
    Ok(arrivals)
}

/// Derives the seed of auxiliary stream `stream` from a base `seed`.
///
/// This is the workspace's **seed-splitting convention**: one
/// user-facing seed fans out into any number of decorrelated SplitMix64
/// streams by spacing the stream index with the SplitMix64 Weyl
/// constant and hashing the combination through one generator step.
/// Neighbouring stream indices therefore land in unrelated parts of the
/// state space, and `split_seed(s, i) != s` for every `i` (the output
/// is always one `next_u64` past the mixed state).
///
/// The fleet layer derives all of its randomness this way: stream 0
/// seeds the fleet-wide arrival process, stream 1 the router's
/// randomized policy draws, and streams `2 + i` are reserved for
/// device `i`. Adding a device or switching the routing policy thus
/// never perturbs the offered traffic.
pub fn split_seed(seed: u64, stream: u64) -> u64 {
    let mut rng = SplitMix64::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64()
}

/// Converts an offered load fraction into an arrival rate per cycle.
///
/// `max_request_rate_per_cycle` is the accelerator's saturation request
/// rate (batch size / batch service cycles); `load` is the fraction of
/// it to offer.
///
/// # Errors
///
/// [`EquinoxError::InvalidArgument`] if `load` is negative or not
/// finite.
pub fn rate_for_load(load: f64, max_request_rate_per_cycle: f64) -> Result<f64, EquinoxError> {
    if !load.is_finite() || load < 0.0 {
        return Err(EquinoxError::invalid_argument(
            "loadgen::rate_for_load",
            format!("load must be finite and non-negative, got {load}"),
        ));
    }
    Ok(load * max_request_rate_per_cycle)
}

/// A diurnal load profile: the service-demand variability that leaves
/// inference accelerators at ≈30 % average load (§1, citing the
/// warehouse-scale-computing literature). The profile is a raised
/// sinusoid over the day with a peak-hours plateau.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalProfile {
    /// Lowest load fraction (deep night).
    pub trough: f64,
    /// Highest load fraction (peak hour).
    pub peak: f64,
}

impl DiurnalProfile {
    /// A profile averaging ≈30 % load, matching the paper's motivation.
    pub fn thirty_percent_average() -> Self {
        DiurnalProfile { trough: 0.08, peak: 0.62 }
    }

    /// Load fraction at `t` in [0, 1) of the day.
    pub fn load_at(&self, t: f64) -> f64 {
        let phase = (t.fract() * std::f64::consts::TAU - std::f64::consts::PI).cos();
        self.trough + (self.peak - self.trough) * 0.5 * (1.0 + phase)
    }

    /// Mean load over the day (closed form: midpoint of trough/peak).
    pub fn mean_load(&self) -> f64 {
        0.5 * (self.trough + self.peak)
    }
}

/// Generates non-homogeneous Poisson arrivals following a diurnal
/// profile over `horizon_cycles` (one simulated "day"), by thinning a
/// homogeneous process at the peak rate.
///
/// # Errors
///
/// [`EquinoxError::InvalidArgument`] if the profile's peak rate is
/// malformed (negative or not finite).
pub fn diurnal_arrivals(
    profile: &DiurnalProfile,
    max_request_rate_per_cycle: f64,
    horizon_cycles: u64,
    seed: u64,
) -> Result<Vec<u64>, EquinoxError> {
    let peak_rate = profile.peak * max_request_rate_per_cycle;
    let candidates = poisson_arrivals(peak_rate, horizon_cycles, seed)?;
    let mut rng = SplitMix64::seed_from_u64(seed.wrapping_add(0x5EED));
    Ok(candidates
        .into_iter()
        .filter(|&t| {
            let day_t = t as f64 / horizon_cycles as f64;
            let keep = profile.load_at(day_t) / profile.peak;
            rng.next_f64() < keep
        })
        .collect())
}

/// A flash-crowd burst: a multiplicative surge on the instantaneous
/// arrival rate over a window of the horizon. Composed with a
/// [`DiurnalProfile`] by [`trace_arrivals`], this models the
/// trace-scale overload events a production serving layer must degrade
/// gracefully under (the admission/autoscale study in `equinox-fleet`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// Window start as a fraction of the horizon, in `[0, 1)`.
    pub start_frac: f64,
    /// Window length as a fraction of the horizon; the window must end
    /// at or before the horizon (`start_frac + duration_frac ≤ 1`).
    pub duration_frac: f64,
    /// Rate multiplier inside the window (≥ 0; values below 1 model a
    /// brownout, values above 1 a crowd).
    pub multiplier: f64,
}

impl FlashCrowd {
    /// Window end as a fraction of the horizon.
    pub fn end_frac(&self) -> f64 {
        self.start_frac + self.duration_frac
    }

    fn validate(&self) -> Result<(), EquinoxError> {
        let ok = self.start_frac.is_finite()
            && self.duration_frac.is_finite()
            && self.multiplier.is_finite()
            && self.start_frac >= 0.0
            && self.duration_frac > 0.0
            && self.end_frac() <= 1.0
            && self.multiplier >= 0.0;
        if ok {
            Ok(())
        } else {
            Err(EquinoxError::invalid_argument(
                "FlashCrowd",
                format!(
                    "need 0 ≤ start < start + duration ≤ 1 and a finite \
                     multiplier ≥ 0, got start {} duration {} multiplier {}",
                    self.start_frac, self.duration_frac, self.multiplier
                ),
            ))
        }
    }
}

/// ∫₀ˣ `load_at` in closed form: the raised sinusoid integrates to
/// `m·x + (c/τ)·sin(τx − π)` with `m` the trough/peak midpoint and `c`
/// the half-swing (the `sin(−π)` constant at `x = 0` is kept so the
/// antiderivative is exactly zero there in floating point too).
fn diurnal_integral(profile: &DiurnalProfile, x: f64) -> f64 {
    use std::f64::consts::{PI, TAU};
    let m = 0.5 * (profile.trough + profile.peak);
    let c = 0.5 * (profile.peak - profile.trough);
    m * x + c / TAU * ((TAU * x - PI).sin() - (-PI).sin())
}

/// One piece of the piecewise cumulative intensity: a span of the
/// normalized day over which the flash-crowd multiplier is constant.
struct TraceSegment {
    x0: f64,
    x1: f64,
    /// Product of the multipliers of every crowd covering this span.
    mult: f64,
    /// Cumulative load-units at `x0` / `x1` (load fraction × day).
    cum0: f64,
    cum1: f64,
    /// `diurnal_integral` at `x0`, cached for the inversion.
    i0: f64,
    /// Bound `ε` on the float error of [`TraceSegment::cumulative`]
    /// against the exact cumulative intensity (see [`newton_cycle`]).
    err: f64,
}

impl TraceSegment {
    /// The computed cumulative load-units at `x`: the expression the
    /// bisection in [`invert_cumulative`] compares against its target.
    fn cumulative(&self, profile: &DiurnalProfile, x: f64) -> f64 {
        self.cum0 + self.mult * (diurnal_integral(profile, x) - self.i0)
    }
}

fn build_segments(profile: &DiurnalProfile, crowds: &[FlashCrowd]) -> Vec<TraceSegment> {
    let mut cuts = vec![0.0, 1.0];
    for c in crowds {
        cuts.push(c.start_frac);
        cuts.push(c.end_frac());
    }
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    let m = 0.5 * (profile.trough + profile.peak);
    let c = 0.5 * (profile.peak - profile.trough);
    let mut segments = Vec::with_capacity(cuts.len());
    let mut cum = 0.0;
    for w in cuts.windows(2) {
        let (x0, x1) = (w[0], w[1]);
        if x1 <= x0 {
            continue;
        }
        let mid = 0.5 * (x0 + x1);
        let mult: f64 = crowds
            .iter()
            .filter(|c| c.start_frac <= mid && mid < c.end_frac())
            .map(|c| c.multiplier)
            .product();
        let i0 = diurnal_integral(profile, x0);
        let cum1 = cum + mult * (diurnal_integral(profile, x1) - i0);
        // Float error of `cumulative(x)` for |x| ≤ 2, with u = 2⁻⁵³:
        // the `sin` argument `τx − π` is off by ≤ 3·10⁻¹⁵ and `sin`
        // adds ≤ 1 ulp, which the `c/τ` factor shrinks to ≤ 10⁻¹⁵·c;
        // each product and sum adds ≤ u of its magnitude (≤ m + c +
        // |i0| inside the bracket, then mult·that, then |cum0|); and
        // rounding `m` and `c` can leave `m − c` a few u below
        // `trough`, so the exact function may dip by ≤ 2u·mult·(m + c)
        // across the day. Together ≲ 10⁻¹⁵·(1 + |cum0| + mult·(1 + m +
        // c + |i0|)); ε is a hundred times that.
        let err = 1e-13 * (1.0 + cum.abs() + mult * (1.0 + m + c + i0.abs()));
        segments.push(TraceSegment { x0, x1, mult, cum0: cum, cum1, i0, err });
        cum = cum1;
    }
    segments
}

fn validate_trace(profile: &DiurnalProfile, crowds: &[FlashCrowd]) -> Result<(), EquinoxError> {
    if !(profile.trough.is_finite() && profile.peak.is_finite())
        || profile.trough < 0.0
        || profile.peak < profile.trough
    {
        return Err(EquinoxError::invalid_argument(
            "loadgen::trace",
            format!(
                "diurnal profile needs 0 ≤ trough ≤ peak, got trough {} peak {}",
                profile.trough, profile.peak
            ),
        ));
    }
    for c in crowds {
        c.validate()?;
    }
    Ok(())
}

/// Mean load fraction of the composed trace over the day: the diurnal
/// mean with each flash-crowd window's share scaled by its multiplier.
/// `trace_arrivals` at `rate_scale = load / trace_mean_load(...)`
/// offers exactly `load ×` the saturation volume in expectation — how
/// the fleet drivers pin "120 % offered load" against true capacity.
///
/// # Errors
///
/// [`EquinoxError::InvalidArgument`] on a malformed profile or crowd
/// window (see [`trace_arrivals`]).
pub fn trace_mean_load(
    profile: &DiurnalProfile,
    crowds: &[FlashCrowd],
) -> Result<f64, EquinoxError> {
    validate_trace(profile, crowds)?;
    Ok(build_segments(profile, crowds).last().map_or(0.0, |s| s.cum1))
}

/// The segment whose cumulative span covers `target` load-units.
fn segment_at(segments: &[TraceSegment], target: f64) -> &TraceSegment {
    &segments[segments.partition_point(|s| s.cum1 <= target).min(segments.len() - 1)]
}

/// The time-rescaling targets: the arrivals of one unit-rate
/// exponential stream drawn from `seed`, in cumulative load-units
/// (`volume` expected arrivals per unit), up to `total_units`.
fn rescaled_targets(seed: u64, volume: f64, total_units: f64) -> impl Iterator<Item = f64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut unit_t = 0.0f64;
    std::iter::from_fn(move || {
        let u: f64 = rng.next_f64().max(f64::MIN_POSITIVE);
        unit_t += -u.ln();
        let target = unit_t / volume;
        (target < total_units).then_some(target)
    })
}

/// The arrival cycle of normalized-day position `x` on a
/// `horizon`-cycle day, before the stream's ordering clamps.
fn cycle_at(x: f64, horizon: f64) -> u64 {
    (x * horizon) as u64
}

/// The reference inversion: bisects the closed-form antiderivative of
/// segment `s` for the position at which the cumulative intensity
/// reaches `target` load-units. 64 halvings take the bracket to one
/// ulp; the result is the final lower bracket end `lo`. A segment with
/// a zero multiplier maps every target to its start.
///
/// This is the slow path. [`trace_arrivals`] calls it only for the
/// arrivals [`newton_cycle`] cannot certify, and every cycle the
/// shortcut returns is the one this bisection yields.
fn invert_cumulative(profile: &DiurnalProfile, s: &TraceSegment, target: f64) -> f64 {
    if s.mult <= 0.0 {
        return s.x0;
    }
    let (mut lo, mut hi) = (s.x0, s.x1);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if s.cumulative(profile, mid) <= target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Newton steps [`newton_cycle`] takes at most.
const NEWTON_STEPS: usize = 6;

/// A Newton step this short leaves the iterate within ~1e-13 of the
/// root (the error after a step is about `|f''/2f'|·step²`, and
/// `|f''/f'| ≤ π·(peak − trough)/trough` is ≈ 21 for the ≈30 %-average
/// day), far inside the certified window.
const NEWTON_TOLERANCE: f64 = 1e-7;

/// Half-width `w` of the window certified around the Newton root.
const CERTIFIED_HALF_WIDTH: f64 = 1e-10;

/// How far below the certified window the bisection's final `lo` may
/// sit: its bracket ends at most `2⁻⁶⁴ + 2⁻⁵²` wide (each float
/// midpoint halves the bracket to within `2⁻⁵³` of the day).
const BISECTION_SLACK: f64 = 4.0 * f64::EPSILON;

/// The fast path of the inversion: returns the cycle
/// `cycle_at(invert_cumulative(profile, s, target), horizon)` without
/// bisecting, together with the Newton root, or `None` when it cannot
/// certify that cycle.
///
/// Newton from `guess` (the previous arrival's root) solves
/// `f(x) = cumulative(x) − target = 0` with `f' = mult·load_at(x)`.
/// The exact cumulative intensity `G` is non-decreasing (`mult ≥ 0`,
/// `load_at ≥ trough ≥ 0`; the dip rounding of its constants allows
/// is inside `ε`), and the computed one stays within the segment's `ε`
/// of it. So if `cumulative(a) + 2ε ≤ target` at `a = root − w`, every
/// bisection midpoint `≤ a` keeps the lower half (`cumulative(mid) ≤
/// G(mid) + ε ≤ G(a) + ε ≤ cumulative(a) + 2ε ≤ target`), and
/// symmetrically, if `cumulative(b) − 2ε > target` at `b = root + w`,
/// every midpoint `≥ b` keeps the upper half. The bisection's final `lo` then lies in
/// `[a − BISECTION_SLACK, b]`, and if both ends of that interval fall
/// in the same cycle, so does `lo`.
fn newton_cycle(
    profile: &DiurnalProfile,
    s: &TraceSegment,
    target: f64,
    guess: f64,
    horizon: f64,
) -> Option<(u64, f64)> {
    let mut x = guess.clamp(s.x0, s.x1);
    for _ in 0..NEWTON_STEPS {
        let slope = s.mult * profile.load_at(x);
        if slope <= 0.0 {
            return None;
        }
        let step = (s.cumulative(profile, x) - target) / slope;
        x = (x - step).clamp(s.x0, s.x1);
        if step.abs() <= NEWTON_TOLERANCE {
            break;
        }
    }
    let (a, b) = (x - CERTIFIED_HALF_WIDTH, x + CERTIFIED_HALF_WIDTH);
    let certified = s.cumulative(profile, a) + 2.0 * s.err <= target
        && s.cumulative(profile, b) - 2.0 * s.err > target;
    let cycle = cycle_at(a - BISECTION_SLACK, horizon);
    (certified && cycle == cycle_at(b, horizon)).then_some((cycle, x))
}

/// Generates a trace-scale arrival stream: non-homogeneous Poisson
/// traffic whose intensity is the diurnal profile composed with any
/// number of [`FlashCrowd`] windows, all scaled by `rate_scale`. At
/// fraction `x` of the horizon the instantaneous rate is
/// `rate_scale × load_at(x) × ∏ crowd multipliers × max_request_rate`.
///
/// Unlike the thinning in [`diurnal_arrivals`], this samples by *time
/// rescaling*: one fixed unit-rate exponential stream is mapped through
/// the inverse of the closed-form cumulative intensity. Two properties
/// fall out by construction and are load-bearing for the serving-layer
/// sweeps: the arrival **count is exactly monotone** in `rate_scale`
/// for a fixed seed (scaling only moves the cutoff down the same unit
/// stream), and every arrival is **strictly inside the horizon**
/// (`Simulation::run` rejects at/past-horizon arrivals).
///
/// Each arrival's position is the point where the cumulative intensity
/// reaches its target. The reference answer is a 64-step bisection of
/// the antiderivative (64 `sin` calls); the stream is defined as its
/// output, bit for bit. Most arrivals take a certified shortcut
/// instead: 2–3 Newton steps from the previous arrival's root, then
/// two evaluations that prove the bisection's result lies within a
/// window of ±10⁻¹⁰ of the day around that root. The proof rests on
/// the exact intensity being monotone and on a per-segment bound
/// `ε = 10⁻¹³·(1 + |cum0| + mult·(1 + m + c + |i0|))` on the float
/// error of the computed one (a hundred times a rounding analysis of
/// its terms; `m`, `c` are the profile's mean and half-swing). When
/// the whole window falls in one cycle, that cycle is the answer.
/// Otherwise (the window straddles a cycle boundary, Newton stalls on
/// a zero-load stretch, or the proof fails) the arrival falls back to
/// the bisection. The share that falls back grows with the horizon:
/// 0.2 % of arrivals on the 9.4·10⁶-cycle `--quick` `serve` day, 3 %
/// on the 1.5·10⁸-cycle full one.
///
/// # Errors
///
/// [`EquinoxError::InvalidArgument`] if `rate_scale` or the saturation
/// rate is negative or not finite, the profile has `trough < 0` or
/// `peak < trough`, or a crowd window is malformed (empty, outside
/// `[0, 1]`, or with a negative/non-finite multiplier).
pub fn trace_arrivals(
    profile: &DiurnalProfile,
    crowds: &[FlashCrowd],
    rate_scale: f64,
    max_request_rate_per_cycle: f64,
    horizon_cycles: u64,
    seed: u64,
) -> Result<Vec<u64>, EquinoxError> {
    for (name, v) in [("rate_scale", rate_scale), ("max rate", max_request_rate_per_cycle)] {
        if !v.is_finite() || v < 0.0 {
            return Err(EquinoxError::invalid_argument(
                "loadgen::trace_arrivals",
                format!("{name} must be finite and non-negative, got {v}"),
            ));
        }
    }
    validate_trace(profile, crowds)?;
    let segments = build_segments(profile, crowds);
    let total_units = segments.last().map_or(0.0, |s| s.cum1);
    // Expected arrivals per load-unit: the whole-day volume at 100 %.
    let volume = rate_scale * max_request_rate_per_cycle * horizon_cycles as f64;
    let mut arrivals = Vec::new();
    if volume <= 0.0 || total_units <= 0.0 {
        return Ok(arrivals);
    }
    let horizon = horizon_cycles as f64;
    let mut root = 0.0;
    let mut last_cycle = 0u64;
    for target in rescaled_targets(seed, volume, total_units) {
        let s = segment_at(&segments, target);
        let (cycle, x) = newton_cycle(profile, s, target, root, horizon).unwrap_or_else(|| {
            let x = invert_cumulative(profile, s, target);
            (cycle_at(x, horizon), x)
        });
        root = x;
        // The inversion is monotone up to one ulp of bisection noise;
        // clamping to the previous arrival keeps the stream sorted, and
        // the `min` keeps the last cycle strictly inside the horizon.
        let cycle = cycle.min(horizon_cycles - 1).max(last_cycle);
        last_cycle = cycle;
        arrivals.push(cycle);
    }
    Ok(arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use equinox_arith::check::for_each_case;

    #[test]
    fn poisson_properties_hold_across_rate_horizon_seed() {
        // The three properties the fleet router relies on, over random
        // (rate, horizon, seed) triples: monotonically non-decreasing
        // output, every arrival strictly inside the horizon, and
        // bitwise determinism for a fixed seed.
        for_each_case(64, 0x10AD_6E11, |g| {
            let rate = g.f64_in(1e-7, 5e-3);
            let horizon = g.usize_in(1, 4_000_000) as u64;
            let seed = g.next_u64();
            let a = poisson_arrivals(rate, horizon, seed).unwrap();
            let b = poisson_arrivals(rate, horizon, seed).unwrap();
            assert_eq!(a, b, "bitwise-deterministic for seed {seed}");
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
            assert!(a.iter().all(|&t| t < horizon), "within horizon {horizon}");
        });
    }

    #[test]
    fn split_seed_is_deterministic_and_decorrelated() {
        for_each_case(64, 0x5EED_CA5E, |g| {
            let seed = g.next_u64();
            assert_eq!(split_seed(seed, 3), split_seed(seed, 3));
            // Distinct streams draw distinct seeds, and no stream
            // echoes the base seed back (so a derived arrival stream
            // never aliases one generated directly from `seed`).
            assert_ne!(split_seed(seed, 0), split_seed(seed, 1));
            assert_ne!(split_seed(seed, 1), split_seed(seed, 2));
            assert_ne!(split_seed(seed, 0), seed);
        });
    }

    #[test]
    fn split_streams_yield_independent_arrival_processes() {
        let a = poisson_arrivals(1e-4, 2_000_000, split_seed(9, 0)).unwrap();
        let b = poisson_arrivals(1e-4, 2_000_000, split_seed(9, 1)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = poisson_arrivals(1e-4, 1_000_000, 7).unwrap();
        let b = poisson_arrivals(1e-4, 1_000_000, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = poisson_arrivals(1e-4, 1_000_000, 7).unwrap();
        let b = poisson_arrivals(1e-4, 1_000_000, 8).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_sorted_and_in_horizon() {
        let a = poisson_arrivals(1e-3, 500_000, 3).unwrap();
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 500_000));
    }

    #[test]
    fn rate_matches_count_statistically() {
        let a = poisson_arrivals(1e-3, 10_000_000, 1).unwrap();
        let expected = 10_000.0;
        let got = a.len() as f64;
        assert!((got - expected).abs() < 5.0 * expected.sqrt(), "{got}");
    }

    #[test]
    fn zero_rate_empty() {
        assert!(poisson_arrivals(0.0, 1_000_000, 1).unwrap().is_empty());
    }

    #[test]
    fn negative_rate_is_invalid_argument() {
        let err = poisson_arrivals(-1e-3, 1_000_000, 1).unwrap_err();
        assert_eq!(err.kind(), "invalid-argument");
        assert!(err.to_string().contains("poisson_arrivals"));
    }

    #[test]
    fn nan_rate_is_invalid_argument() {
        let err = poisson_arrivals(f64::NAN, 1_000_000, 1).unwrap_err();
        assert_eq!(err.kind(), "invalid-argument");
        let err = poisson_arrivals(f64::INFINITY, 1_000_000, 1).unwrap_err();
        assert_eq!(err.kind(), "invalid-argument");
    }

    #[test]
    fn load_to_rate() {
        assert_eq!(rate_for_load(0.5, 1e-3).unwrap(), 5e-4);
        assert_eq!(rate_for_load(0.0, 1e-3).unwrap(), 0.0);
    }

    #[test]
    fn negative_load_is_invalid_argument() {
        let err = rate_for_load(-0.1, 1.0).unwrap_err();
        assert_eq!(err.kind(), "invalid-argument");
        assert!(err.to_string().contains("rate_for_load"));
        assert!(rate_for_load(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn diurnal_profile_shape() {
        let p = DiurnalProfile::thirty_percent_average();
        // Peak at midday (t = 0.5), trough at midnight (t = 0).
        assert!((p.load_at(0.0) - p.trough).abs() < 1e-9);
        assert!((p.load_at(0.5) - p.peak).abs() < 1e-9);
        assert!((p.mean_load() - 0.35).abs() < 0.06);
        // Monotone rise through the morning.
        assert!(p.load_at(0.25) > p.load_at(0.1));
    }

    #[test]
    fn diurnal_arrivals_track_profile() {
        let p = DiurnalProfile::thirty_percent_average();
        let horizon = 40_000_000u64;
        let arrivals = diurnal_arrivals(&p, 1e-3, horizon, 9).unwrap();
        // Total volume ≈ mean load × peak-equivalent volume.
        let expected = p.mean_load() * 1e-3 * horizon as f64;
        let got = arrivals.len() as f64;
        assert!((got - expected).abs() < 6.0 * expected.sqrt(), "{got} vs {expected}");
        // Midday density exceeds midnight density several-fold.
        let in_window = |lo: f64, hi: f64| {
            arrivals
                .iter()
                .filter(|&&t| {
                    let x = t as f64 / horizon as f64;
                    x >= lo && x < hi
                })
                .count() as f64
        };
        let night = in_window(0.0, 0.1) + in_window(0.9, 1.0);
        let midday = in_window(0.45, 0.65);
        assert!(midday > 2.0 * night, "midday {midday} vs night {night}");
    }

    #[test]
    fn diurnal_arrivals_sorted_and_deterministic() {
        let p = DiurnalProfile::thirty_percent_average();
        let a = diurnal_arrivals(&p, 1e-4, 10_000_000, 3).unwrap();
        let b = diurnal_arrivals(&p, 1e-4, 10_000_000, 3).unwrap();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    /// A random-but-valid trace composition for the property tests. One
    /// profile in four has a zero-load trough and one crowd in four is
    /// a full (0×) brownout: the edge cases of the inversion.
    fn random_trace(g: &mut equinox_arith::rng::SplitMix64) -> (DiurnalProfile, Vec<FlashCrowd>) {
        let trough = if g.usize_in(0, 4) == 0 { 0.0 } else { g.f64_in(0.0, 0.4) };
        let profile = DiurnalProfile { trough, peak: trough + g.f64_in(0.05, 0.6) };
        let crowds = (0..g.usize_in(0, 4))
            .map(|_| {
                let start_frac = g.f64_in(0.0, 0.8);
                FlashCrowd {
                    start_frac,
                    duration_frac: g.f64_in(0.01, 1.0 - start_frac),
                    multiplier: if g.usize_in(0, 4) == 0 { 0.0 } else { g.f64_in(0.0, 4.0) },
                }
            })
            .collect();
        (profile, crowds)
    }

    /// FNV-1a over the little-endian bytes of an arrival stream.
    fn fnv1a(arrivals: &[u64]) -> u64 {
        arrivals
            .iter()
            .flat_map(|t| t.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// The `serve` sweep's trace day: the ≈30 % profile with a 2.5×
    /// crowd over 0.55–0.63 of the day.
    fn serve_day() -> (DiurnalProfile, [FlashCrowd; 1]) {
        let crowd = FlashCrowd { start_frac: 0.55, duration_frac: 0.08, multiplier: 2.5 };
        (DiurnalProfile::thirty_percent_average(), [crowd])
    }

    #[test]
    fn trace_streams_match_the_pinned_bisection_output() {
        // Hashes of the streams the pure 64-step bisection produced
        // before the Newton shortcut existed: the shortcut must
        // reproduce them bit for bit.
        let (p, crowd) = serve_day();
        let scale = 1.2 / trace_mean_load(&p, &crowd).unwrap();
        for (seed, len, hash) in
            [(1, 92_144, 0xdf92_13d3_0ba2_7e38), (48_271, 92_612, 0xa1e5_d39a_8034_e05b)]
        {
            let a =
                trace_arrivals(&p, &crowd, scale, 8e-3, 9_600_000, split_seed(seed, 0)).unwrap();
            assert_eq!((a.len(), fnv1a(&a)), (len, hash), "serve day, seed {seed}");
        }
        let stacked = [
            FlashCrowd { start_frac: 0.1, duration_frac: 0.5, multiplier: 1.75 },
            FlashCrowd { start_frac: 0.3, duration_frac: 0.05, multiplier: 0.0 },
            FlashCrowd { start_frac: 0.45, duration_frac: 0.3, multiplier: 3.5 },
        ];
        let a = trace_arrivals(&p, &stacked, 0.9, 4e-3, 7_777_777, 0xC0_FFEE).unwrap();
        assert_eq!((a.len(), fnv1a(&a)), (29_462, 0x8e04_d1b9_7fc0_26c0), "stacked crowds");
    }

    /// Replays `trace_arrivals`' inversion, asserting on every arrival
    /// that the Newton shortcut, whenever it answers, gives the
    /// bisection's cycle. Returns (arrivals, bisection fallbacks).
    fn shortcut_against_bisection(
        profile: &DiurnalProfile,
        crowds: &[FlashCrowd],
        volume: f64,
        horizon: u64,
        seed: u64,
    ) -> (usize, usize) {
        let segments = build_segments(profile, crowds);
        let total_units = segments.last().map_or(0.0, |s| s.cum1);
        let (mut root, mut arrivals, mut fallbacks) = (0.0, 0, 0);
        for target in rescaled_targets(seed, volume, total_units) {
            let s = segment_at(&segments, target);
            let x = invert_cumulative(profile, s, target);
            match newton_cycle(profile, s, target, root, horizon as f64) {
                Some((cycle, newton_root)) => {
                    assert_eq!(
                        cycle,
                        cycle_at(x, horizon as f64),
                        "arrival {arrivals}: target {target}, bisection {x}, newton {newton_root}"
                    );
                    root = newton_root;
                }
                None => {
                    fallbacks += 1;
                    root = x;
                }
            }
            arrivals += 1;
        }
        (arrivals, fallbacks)
    }

    #[test]
    fn newton_shortcut_agrees_with_bisection_on_random_traces() {
        for_each_case(256, 0x0E37_0C1E, |g| {
            let (profile, crowds) = random_trace(g);
            let horizon = (2f64.powf(g.f64_in(0.0, 40.0)) as u64).max(1);
            // `rate_scale` in [0, 2) on a saturation rate of up to a
            // thousand arrivals per day, whatever the horizon.
            let volume = g.f64_in(0.0, 2.0) * g.f64_in(0.0, 1_000.0);
            shortcut_against_bisection(&profile, &crowds, volume, horizon, g.next_u64());
        });
    }

    #[test]
    fn newton_shortcut_answers_nearly_every_serve_day_arrival() {
        // Equality alone would also pass a shortcut that always falls
        // back; this pins the coverage the speed-up depends on.
        let (p, crowd) = serve_day();
        let volume = 1.2 / trace_mean_load(&p, &crowd).unwrap() * 8e-3 * 9.6e6;
        let (arrivals, fallbacks) =
            shortcut_against_bisection(&p, &crowd, volume, 9_600_000, split_seed(1, 0));
        assert_eq!(arrivals, 92_144);
        assert!(fallbacks * 100 <= arrivals, "{fallbacks} of {arrivals} arrivals fell back");
    }

    #[test]
    fn trace_is_deterministic_under_split_seed_and_in_horizon() {
        for_each_case(64, 0x7ACE_D5EED, |g| {
            let (profile, crowds) = random_trace(g);
            let horizon = g.usize_in(1, 1_000_000) as u64;
            let seed = split_seed(g.next_u64(), g.next_u64() & 0xFF);
            let a = trace_arrivals(&profile, &crowds, 1.0, 1e-3, horizon, seed).unwrap();
            let b = trace_arrivals(&profile, &crowds, 1.0, 1e-3, horizon, seed).unwrap();
            assert_eq!(a, b, "bitwise-deterministic for derived seed {seed}");
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
            assert!(a.iter().all(|&t| t < horizon), "strictly inside horizon {horizon}");
        });
    }

    #[test]
    fn trace_distinct_split_streams_decorrelate() {
        let p = DiurnalProfile::thirty_percent_average();
        let crowds = [FlashCrowd { start_frac: 0.5, duration_frac: 0.1, multiplier: 3.0 }];
        let a = trace_arrivals(&p, &crowds, 1.0, 1e-3, 2_000_000, split_seed(9, 0)).unwrap();
        let b = trace_arrivals(&p, &crowds, 1.0, 1e-3, 2_000_000, split_seed(9, 1)).unwrap();
        assert!(a.len() > 100 && b.len() > 100);
        assert_ne!(a, b);
    }

    #[test]
    fn trace_count_is_exactly_monotone_in_rate_scale() {
        // Not merely statistically monotone: time rescaling maps one
        // fixed unit-rate stream through the scaled cumulative
        // intensity, so raising the scale can only extend the accepted
        // prefix. Every sampled scale pair must order exactly.
        for_each_case(64, 0x7ACE_5CA1E, |g| {
            let (profile, crowds) = random_trace(g);
            let horizon = g.usize_in(10_000, 1_000_000) as u64;
            let seed = g.next_u64();
            let s1 = g.f64_in(0.0, 1.5);
            let s2 = s1 + g.f64_in(0.0, 1.5);
            let a = trace_arrivals(&profile, &crowds, s1, 1e-3, horizon, seed).unwrap();
            let b = trace_arrivals(&profile, &crowds, s2, 1e-3, horizon, seed).unwrap();
            assert!(
                a.len() <= b.len(),
                "scale {s1} gave {} arrivals but scale {s2} gave {}",
                a.len(),
                b.len()
            );
        });
    }

    #[test]
    fn trace_crowd_window_concentrates_density() {
        // A 5× crowd over [0.4, 0.5) of a flat profile: the window's
        // arrival density must be ≈5× the outside density.
        let flat = DiurnalProfile { trough: 0.3, peak: 0.3 };
        let crowds = [FlashCrowd { start_frac: 0.4, duration_frac: 0.1, multiplier: 5.0 }];
        let horizon = 20_000_000u64;
        let a = trace_arrivals(&flat, &crowds, 1.0, 1e-3, horizon, 11).unwrap();
        let density = |lo: f64, hi: f64| {
            let n = a
                .iter()
                .filter(|&&t| {
                    let x = t as f64 / horizon as f64;
                    x >= lo && x < hi
                })
                .count();
            n as f64 / (hi - lo)
        };
        let inside = density(0.4, 0.5);
        let outside = (density(0.0, 0.4) + density(0.5, 1.0)) / 2.0;
        assert!(
            (inside / outside - 5.0).abs() < 0.5,
            "crowd density ratio {} (inside {inside}, outside {outside})",
            inside / outside
        );
        // And the mean-load closed form accounts for the crowd mass.
        let mean = trace_mean_load(&flat, &crowds).unwrap();
        assert!((mean - 0.3 * 1.4).abs() < 1e-9, "{mean}");
        let expected = mean * 1e-3 * horizon as f64;
        let got = a.len() as f64;
        assert!((got - expected).abs() < 6.0 * expected.sqrt(), "{got} vs {expected}");
    }

    #[test]
    fn trace_without_crowds_tracks_the_diurnal_day() {
        let p = DiurnalProfile::thirty_percent_average();
        let horizon = 40_000_000u64;
        let a = trace_arrivals(&p, &[], 1.0, 1e-3, horizon, 9).unwrap();
        let expected = p.mean_load() * 1e-3 * horizon as f64;
        let got = a.len() as f64;
        assert!((got - expected).abs() < 6.0 * expected.sqrt(), "{got} vs {expected}");
        let in_window = |lo: f64, hi: f64| {
            a.iter()
                .filter(|&&t| {
                    let x = t as f64 / horizon as f64;
                    x >= lo && x < hi
                })
                .count() as f64
        };
        let night = in_window(0.0, 0.1) + in_window(0.9, 1.0);
        let midday = in_window(0.45, 0.65);
        assert!(midday > 2.0 * night, "midday {midday} vs night {night}");
    }

    #[test]
    fn trace_rejects_malformed_inputs() {
        let p = DiurnalProfile::thirty_percent_average();
        let crowd = |s, d, m| FlashCrowd { start_frac: s, duration_frac: d, multiplier: m };
        for bad in [
            crowd(-0.1, 0.2, 2.0),
            crowd(0.5, 0.6, 2.0),
            crowd(0.5, 0.0, 2.0),
            crowd(0.5, 0.1, -1.0),
            crowd(0.5, 0.1, f64::NAN),
        ] {
            let err = trace_arrivals(&p, &[bad], 1.0, 1e-3, 1_000, 1).unwrap_err();
            assert_eq!(err.kind(), "invalid-argument", "{bad:?}");
        }
        let bad_profile = DiurnalProfile { trough: 0.5, peak: 0.2 };
        assert!(trace_arrivals(&bad_profile, &[], 1.0, 1e-3, 1_000, 1).is_err());
        assert!(trace_arrivals(&p, &[], f64::NAN, 1e-3, 1_000, 1).is_err());
        assert!(trace_arrivals(&p, &[], -1.0, 1e-3, 1_000, 1).is_err());
        assert!(trace_mean_load(&bad_profile, &[]).is_err());
        // Degenerate-but-valid inputs produce empty streams, not errors.
        assert!(trace_arrivals(&p, &[], 0.0, 1e-3, 1_000, 1).unwrap().is_empty());
        assert!(trace_arrivals(&p, &[], 1.0, 1e-3, 0, 1).unwrap().is_empty());
    }
}
