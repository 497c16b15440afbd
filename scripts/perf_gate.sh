#!/usr/bin/env bash
# CI perf-regression gate: run the obs_smoke workload and the frontier
# smoke into the git-ignored results/ci/ directory, then (a) compare the
# obs_smoke metrics snapshot against the checked-in baseline
# (results/baseline_smoke.json) with the per-key tolerances in
# crates/bench/src/gate.rs, and (b) assert the frontier's baseline-free
# storage/recreation invariants.
#
#   ./scripts/perf_gate.sh            # gate: exit 1 on regression
#   ./scripts/perf_gate.sh --refresh  # rerun, then adopt current as baseline
set -euo pipefail
cd "$(dirname "$0")/.."

out=results/ci
mkdir -p "$out"

cargo run --release -q -p bench --bin obs_smoke -- --results-dir "$out" >/dev/null
# Page-format storage/recreation gate (smoke tier; the 1M tier runs
# locally via `frontier --tier full` — see EXPERIMENTS.md).
cargo run --release -q -p bench --bin frontier -- --results-dir "$out" >/dev/null
cargo run --release -q -p bench --bin perf_gate -- --results-dir "$out" "$@"
