//! The parallel runtime's determinism contract: every serialized
//! result is byte-identical at any thread count.
//!
//! Every entry of the experiment registry ([`equinox_bench::EXPERIMENTS`])
//! is run at `EQUINOX_THREADS`-equivalent 1 (forced serial) and 4
//! (work-stealing engaged) via [`equinox_par::set_thread_override`], and
//! its `results/` files and gate verdicts must match. The container
//! running CI may only have one core — that's fine: with 4 workers on
//! one core the OS interleaves them arbitrarily, which is exactly the
//! schedule nondeterminism the contract must be immune to.

use equinox_bench::{Output, EXPERIMENTS};
use equinox_core::experiments::fitted;
use equinox_core::ExperimentScale;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Thread-count overrides are process-global; probes must not overlap.
fn override_guard() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `probe()` under a forced thread count, restoring the default
/// afterwards even if the probe panics.
fn with_threads<T>(threads: usize, probe: impl Fn() -> T) -> T {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            equinox_par::set_thread_override(None);
        }
    }
    let _restore = Restore;
    equinox_par::set_thread_override(Some(threads));
    probe()
}

/// Every registry entry's `--quick` output at 1 and at 4 threads, keyed
/// by id. Rendered once per test process and shared by every test below.
fn registry_renderings() -> &'static BTreeMap<&'static str, (Output, Output)> {
    static RENDERINGS: OnceLock<BTreeMap<&'static str, (Output, Output)>> = OnceLock::new();
    RENDERINGS.get_or_init(|| {
        let _g = override_guard();
        EXPERIMENTS
            .iter()
            .map(|e| {
                let run = || (e.run)(ExperimentScale::Quick);
                (e.id, (with_threads(1, run), with_threads(4, run)))
            })
            .collect()
    })
}

fn verdicts(out: &Output) -> Vec<(&str, bool)> {
    out.gates.iter().map(|g| (g.name, g.ok)).collect()
}

/// Asserts that registry entry `id` wrote the same files and reached the
/// same gate verdicts at 1 and 4 threads.
fn assert_entry_invariant(id: &str) {
    let (serial, parallel) = &registry_renderings()[id];
    assert!(!serial.files.is_empty(), "{id}: writes no file");
    assert_eq!(serial.files.len(), parallel.files.len(), "{id}: file count differs");
    for ((name, a), (other, b)) in serial.files.iter().zip(&parallel.files) {
        assert_eq!(name, other, "{id}: file list differs between 1 and 4 threads");
        // Not assert_eq!: a failure would print both files in full.
        assert!(a == b, "{id}: {name} differs between 1 and 4 threads");
    }
    assert_eq!(verdicts(serial), verdicts(parallel), "{id}: gate verdicts differ");
}

#[test]
fn every_registry_entry_is_thread_count_invariant() {
    let mut writers: BTreeMap<&str, &str> = BTreeMap::new();
    for (id, (serial, _)) in registry_renderings() {
        assert_entry_invariant(id);
        for (name, _) in &serial.files {
            if let Some(other) = writers.insert(name, id) {
                panic!("{name} is written by both {other} and {id}");
            }
        }
        let mut gate_names: Vec<&str> = serial.gates.iter().map(|g| g.name).collect();
        gate_names.sort_unstable();
        gate_names.dedup();
        assert_eq!(gate_names.len(), serial.gates.len(), "{id}: duplicate gate names");
    }
}

// Named views over single registry entries, so a failure names its
// experiment; the registry-wide test above covers the same renderings.

#[test]
fn fig6_csvs_are_thread_count_invariant() {
    assert_entry_invariant("fig6");
}

#[test]
fn table1_is_thread_count_invariant() {
    assert_entry_invariant("table1");
}

#[test]
fn fig7_quick_series_is_thread_count_invariant() {
    assert_entry_invariant("fig7");
}

#[test]
fn fig8_quick_breakdown_is_thread_count_invariant() {
    assert_entry_invariant("fig8");
}

#[test]
fn fig9_quick_series_is_thread_count_invariant() {
    assert_entry_invariant("fig9");
}

#[test]
fn fig10_quick_series_is_thread_count_invariant() {
    assert_entry_invariant("fig10");
}

#[test]
fn fig11_quick_panels_are_thread_count_invariant() {
    assert_entry_invariant("fig11");
}

#[test]
fn fleet_sweep_json_is_thread_count_invariant() {
    assert_entry_invariant("fleet");
}

#[test]
fn allreduce_sweep_json_is_thread_count_invariant() {
    assert_entry_invariant("allreduce");
}

#[test]
fn serve_sweep_json_is_thread_count_invariant() {
    assert_entry_invariant("serve");
}

#[test]
fn numerics_sweep_json_is_thread_count_invariant() {
    assert_entry_invariant("numerics");
}

#[test]
fn check_report_is_thread_count_invariant() {
    assert_entry_invariant("checks");
}

#[test]
fn fitted_tables_json_is_thread_count_invariant() {
    // The registry's `fitted` entry reads the process-shared
    // `FittedCalibration::shared`, so its 4-thread rendering would reuse
    // the 1-thread fit. Calling `fitted::run` directly makes both
    // renderings genuinely refit.
    let _g = override_guard();
    let run = || fitted::run(ExperimentScale::Quick).to_json();
    assert!(with_threads(1, run) == with_threads(4, run), "fitted tables differ");
}

#[test]
fn gemm_kernels_are_thread_count_invariant() {
    use equinox_arith::gemm::{gemm_bf16, gemm_f32};
    use equinox_arith::Matrix;
    let _g = override_guard();
    let a = Matrix::from_fn(64, 96, |i, j| ((i * 31 + j * 17) % 23) as f32 - 11.0);
    let b = Matrix::from_fn(96, 48, |i, j| ((i * 13 + j * 7) % 19) as f32 - 9.0);
    let probe = || {
        let f = gemm_f32(&a, &b);
        let h = gemm_bf16(&a, &b);
        format!("{:?}{:?}", f.as_slice(), h.as_slice())
    };
    assert_eq!(with_threads(1, probe), with_threads(4, probe));
}
