#!/usr/bin/env bash
# Net non-test Rust lines per crate (ROADMAP item 6: LOC is a tracked
# metric). A file counts up to its first `#[cfg(test)]`; blank lines and
# `//` comment lines (doc comments included) are not code. Only `src/`
# trees are read — `tests/`, `benches/` and `examples/` are test code.
#
#   scripts/loc.sh            every crate, then the total
#   scripts/loc.sh <crate>    one crate's figure alone (e.g. orpheus-core)
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # <src dir> -> code lines
  find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { n++ }
    END { print n + 0 }'
}

if [ $# -eq 1 ]; then
  count "crates/$1/src"
  exit
fi

total=0
for dir in crates/*/src src; do
  case "$dir" in
    src) name="orpheusdb (cli)" ;;
    *) name="${dir#crates/}"; name="${name%/src}" ;;
  esac
  n=$(count "$dir")
  total=$((total + n))
  printf '%-18s %7d\n' "$name" "$n"
done
printf '%-18s %7d\n' total "$total"
