#!/usr/bin/env bash
# Full offline quality gate: lint, build, test, and run the static
# analyzer sweep. Everything here works without network access.
#
# rustfmt is intentionally not enforced: the codebase predates a
# rustfmt profile and conformance would be a whole-tree churn.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> determinism guard: no HashMap/HashSet/wall-clock reads in"
echo "    result-producing crates outside the documented allowlist"
bash scripts/determinism_guard.sh

echo "==> clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> build (release)"
cargo build --workspace --release

echo "==> tests (incl. tests/determinism.rs, which renders every registry"
echo "    experiment at 1 and 4 threads and diffs its files and gates)"
cargo test --workspace --quiet

echo "==> perfbench unit tests: the benchmark harness still builds against"
echo "    the public API it drives"
cargo test --release --manifest-path perfbench/Cargo.toml --quiet

echo "==> equinox-check sweep: inference + training lowerings across the"
echo "    paper family; exits non-zero on any error-severity diagnostic"
echo "    except installation-fit findings (EQX0203/EQX0204), which are"
echo "    reported and counted but do not fail the sweep"
echo "    (writes results/equinox_check.json)"
cargo run --release -p equinox-check --bin equinox-check

echo "==> every registry experiment on its reduced grid; fails by name on"
echo "    any gate (see each entry in crates/bench/src/lib.rs) or on a"
echo "    blown per-id --quick wall-clock budget"
cargo run --release -p equinox-bench --bin regen-results -- --quick

echo "==> rustdoc (warnings are errors; no external deps to document)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> wall-clock + compile-cache profile of this run"
cat results/bench_timings.json

echo "OK"
