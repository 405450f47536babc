//! Host-speed calibration of the end-to-end times.
//!
//! On a shared host the same code runs at different speeds depending
//! on what other tenants run beside it. On the 2-vCPU reference box a
//! fixed loop ran 1.5–1.8x slower for ten to thirty seconds at a time,
//! on both vCPUs together, which moves a wall-clock time far more than
//! the changes the benchmark is meant to catch and outlasts any one
//! run, so no statistic over one run's iterations can remove it. Each
//! timed section is therefore bracketed by samples of a fixed kernel,
//! and the end-to-end times are reported at the reference speed: the
//! measured time scaled by [`REFERENCE_KERNEL_S`] over the kernel's time
//! around the section. The kernel (sorting 64 KiB of pseudo-random
//! words: branchy, cache-resident integer work) slowed with hbfp_train's
//! iterations through such a spell (correlation 0.88 over one 40 s
//! run). It lives here and not in the program, so a change to the
//! program moves the section's time and not the scale; the raw
//! wall-clock medians are printed too.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time at the reference speed: about its time on the
/// reference box in a quiet spell.
pub const REFERENCE_KERNEL_S: f64 = 1.5e-4;

/// Kernel runs per sample; a sample is their median.
const RUNS_PER_SAMPLE: usize = 5;

/// Words the kernel sorts (64 KiB: past L1, inside L2).
const WORDS: usize = 8192;

/// Sorts a fixed pseudo-random table and folds the result.
fn kernel() -> u64 {
    let mut table = [0u64; WORDS];
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for slot in table.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *slot = x;
    }
    let mut table = black_box(table);
    table.sort_unstable();
    table
        .iter()
        .enumerate()
        .fold(0, |h, (i, &w)| h.rotate_left(5) ^ w ^ i as u64)
}

/// One sample: the median time of [`RUNS_PER_SAMPLE`] kernel runs,
/// seconds.
pub fn sample_s() -> f64 {
    let mut times = [0.0; RUNS_PER_SAMPLE];
    for t in &mut times {
        let start = Instant::now();
        black_box(kernel());
        *t = start.elapsed().as_secs_f64();
    }
    times.sort_by(f64::total_cmp);
    times[RUNS_PER_SAMPLE / 2]
}

/// `raw_s` measured between two kernel samples, at the reference speed.
pub fn at_reference(raw_s: f64, before_s: f64, after_s: f64) -> f64 {
    raw_s * REFERENCE_KERNEL_S / (0.5 * (before_s + after_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_scaling_is_proportional() {
        assert_eq!(kernel(), kernel());
        assert!(sample_s() > 0.0);
        let r = REFERENCE_KERNEL_S;
        assert_eq!(at_reference(2.0, r, r), 2.0);
        assert_eq!(at_reference(2.0, 2.0 * r, 2.0 * r), 1.0);
    }
}
