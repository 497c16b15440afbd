#!/usr/bin/env bash
# Build loadgen (release) and run it from the repository root.
#
#   benchmarks/run.sh                      every workload, end to end and per
#                                          layer, every metric printed by name
#   benchmarks/run.sh --all --out FILE     the same, plus a trajectory point
#   benchmarks/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run; the result object is the
#                                          last line of stdout (BENCHMARK.json)
#
# The shipping defaults are what is measured, so every ORPHEUS_* knob is
# unset. Data directories (tens of MB each) live in a scratch directory
# under the build directory and are removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

for knob in $(compgen -e | grep '^ORPHEUS_' || true); do
  unset "$knob"
done

target="${CARGO_TARGET_DIR:-benchmarks/loadgen/target}"
export LOADGEN_SCRATCH="$target/loadgen-scratch.$$"
export LOADGEN_COMMIT="${LOADGEN_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
trap 'rm -rf "$LOADGEN_SCRATCH"' EXIT

cargo build --release --quiet --manifest-path benchmarks/loadgen/Cargo.toml

if [ $# -eq 0 ]; then
  set -- --all
fi
"$target/release/loadgen" "$@"
