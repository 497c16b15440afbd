#!/usr/bin/env bash
# Repository CI gate: formatting, lints, release build, full test suite.
# Run from the repo root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> orpheus-lint (L001-L013 invariant catalog)"
# Project static analysis: no panicking paths in the storage engine, span
# guards actually held, deterministic cost estimation, SAFETY-commented
# unsafe, no #[ignore]d tests, every suppression justified, no raw
# thread spawns outside the exec-pool crate — plus the call-graph rules:
# no lock-order cycles, no guard held across blocking I/O, no silently
# discarded Results, every command entry point traced. See
# crates/lint/README.md for the rule catalog.
cargo run --release -q -p lint

echo "==> cargo test"
cargo test --workspace -q

echo "==> examples (release; each must exit 0)"
# The examples are the library surface end to end — mutation, merge, CSV,
# provenance, and the only non-test callers of `optimize`. Compiling them
# is not enough: a panic or an `Err` out of main fails the gate here.
for example in examples/*.rs; do
  cargo run --release -q --example "$(basename "$example" .rs)" > /dev/null
done

echo "==> benchmarks/loadgen unit tests (unedited; the benchmark's link surface)"
# loadgen is a workspace of its own, so nothing above compiles it. Its
# tests are the only compile-time guard on the public signatures the
# benchmark links (`Client`, `output_messages`, `protocol::{read_server,
# write_server}`, `EngineHandle`, `Snapshot::run`, …) and they replay its
# reply / reopen oracles against this tree.
(cd benchmarks/loadgen && cargo test --release -q)

echo "==> fault-injection / crash-recovery suite (release)"
# The crash-point matrix walks a fault through every I/O of a commit; run
# it in release so the full matrix stays fast.
cargo test -p pagestore --release -q --test crash_matrix --test pool_props
# The same walk one and two layers up: every I/O of an `OrpheusDb::commit`
# and of a two-commit server batch leaves the batch visible whole or not
# at all (one store, one visibility point). Beside it, the reopen legs: a
# CVD of 300+ pages under a 64-frame pool, histories that read back as
# they were closed, write cycles that reuse their staging pages — and
# each CVD's records in RAM are its data table's tuples, byte for byte,
# after keyed, unkeyed, merge and schema-evolving commits and a reopen.
cargo test -p orpheus-core --release -q --lib metadata::tests
# A checkout copied at its first read commits what one copied at once
# commits: random keyed, unkeyed and merge histories.
cargo test -p orpheus-core --release -q --lib commands::tests::copy_on_first_read
cargo test -p orpheus-server --release -q --lib a_batch_has_exactly_one_visibility_point

echo "==> tuple codec round-trip + table crash byte-identity suite (release)"
# Property/fuzz round-trips for the tuple codec: randomized rows,
# page-overflow chains, and torn-tail truncations must decode exactly or
# fail with a typed error — plus the table crash matrix: a fault at every
# I/O of a checkpoint must replay committed pages byte-identically, and
# the same logical history must rebuild identical page images. See
# crates/relstore/tests/{codec_props,crash_tables}.rs.
cargo test -p relstore --release -q --test codec_props --test crash_tables

echo "==> CLI probe: golden transcript"
# Drive the interactive shell with a fixed command script and require its
# output — stdout and the `error:` lines on stderr — to equal
# results/ci/cli_probe.golden byte for byte. That file was written by the
# binary before commit by rid, so a change that alters every run alike
# still fails here. The script commits inserted rows, fails a
# commit on a duplicate key (twice: the staging table survives a failed
# commit), commits a fresh checkout after that, and issues all five plan
# shapes (SELECT, GROUP BY vid, V_DIFF, V_INTERSECT, JOIN), SELECTs whose
# WHERE is tested in the fetch (every operator, a text column, and `rid`)
# and `log`.
# The shell alone then runs `group_by_cmds`, every aggregate of GROUP BY
# vid: its lines were recorded by the binary that still answered GROUP BY
# with unnest, hash join and hash aggregate, so the one-pass version
# aggregate is checked against that chain.
# Every tuple of `t` carries the text column `s`, so none of them takes the
# Flat codec's word path (a tuple of Int64 and Float64 values only, read
# by offset). The shell alone therefore also runs `number_cmds` on a
# second CVD `n` of ints and floats: every 7th row's `a2` is NULL (those
# tuples take the walker) and one `x` is NaN. Its selects, diff,
# intersection and GROUP BYs were recorded by the binary before the word
# path.
# The slow-query threshold is lifted so no timing line reaches stderr.
awk 'BEGIN { print "k,a1,a2,s"; for (i = 0; i < 500; i++) print i "," i % 7 "," i * 3 % 101 ",x" i % 9 }' \
  > /tmp/orpheus_ci_probe.csv
awk 'BEGIN {
  print "k,a1,a2,x"
  for (i = 0; i < 150; i++)
    print i "," i % 11 "," (i % 7 == 6 ? "" : i * 5 % 37) "," (i == 123 ? "NaN" : i * 0.25 - 30)
}' > /tmp/orpheus_ci_numbers.csv
probe_cmds() {
  cat <<'EOF'
create_user ci
config ci
init t -f /tmp/orpheus_ci_probe.csv -s k:int,a1:int,a2:int,s:text -k k
checkout t -v 0 -t w
insert w 500,3,7,x3
insert w 501,4,50,new
commit -t w -m probe
checkout t -v 1 -t d
insert d 7,1,1,dup
commit -t d -m duplicate key
commit -t d -m again
checkout t -v 1 -t r
insert r 502,5,9,retry
commit -t r -m retry
run SELECT * FROM VERSION 0, 1 OF CVD t WHERE a1 > 3 LIMIT 400
run SELECT * FROM VERSION 0 OF CVD t WHERE a2 = 50
run SELECT * FROM VERSION 0, 1 OF CVD t WHERE a2 <> 50 LIMIT 30
run SELECT * FROM VERSION 1 OF CVD t WHERE a1 != 6 LIMIT 12
run SELECT * FROM VERSION 0 OF CVD t WHERE a2 < 4
run SELECT * FROM VERSION 1 OF CVD t WHERE a2 <= 2
run SELECT * FROM VERSION 0 OF CVD t WHERE k >= 493
run SELECT * FROM VERSION 0 OF CVD t WHERE s = 'x4' LIMIT 40
run SELECT * FROM VERSION 0, 1 OF CVD t WHERE rid < 9
run SELECT vid, count(k) FROM CVD t GROUP BY vid
run SELECT * FROM V_DIFF(1, 0) OF CVD t
run SELECT * FROM V_INTERSECT(0, 1) OF CVD t
run SELECT * FROM VERSION 0 OF CVD t JOIN VERSION 1 ON a1
diff t -v 0 1
log t
EOF
}
group_by_cmds() {
  cat <<'EOF'
run SELECT vid, count(*) FROM CVD t GROUP BY vid
run SELECT vid, sum(a2) FROM CVD t GROUP BY vid
run SELECT vid, avg(a2) FROM CVD t WHERE a1 > 3 GROUP BY vid
run SELECT vid, min(s) FROM CVD t GROUP BY vid
run SELECT vid, max(k) FROM CVD t WHERE k >= 500 GROUP BY vid
EOF
}
number_cmds() {
  cat <<'EOF'
init n -f /tmp/orpheus_ci_numbers.csv -s k:int,a1:int,a2:int,x:float -k k
checkout n -v 0 -t nw
insert nw 150,12,9,1.5
insert nw 151,13,,-0.0
insert nw 152,3,36,NaN
commit -t nw -m numbers
checkout n -v 1 -t nm
insert nm 153,14,7,2.25
commit -t nm -m more
run SELECT * FROM VERSION 0, 1 OF CVD n WHERE a1 > 9 LIMIT 50
run SELECT * FROM VERSION 2 OF CVD n WHERE x >= 5.5
run SELECT * FROM VERSION 1 OF CVD n WHERE a2 = 9
run SELECT * FROM V_DIFF(2, 0) OF CVD n
run SELECT * FROM V_INTERSECT(0, 2) OF CVD n
run SELECT vid, sum(x) FROM CVD n WHERE x < 1000 GROUP BY vid
run SELECT vid, sum(x) FROM CVD n GROUP BY vid
run SELECT vid, avg(a1) FROM CVD n GROUP BY vid
EOF
}
golden=results/ci/cli_probe.golden
{ probe_cmds; group_by_cmds; number_cmds; echo quit; } |
  ORPHEUS_SLOW_MS=1000000000 ./target/release/orpheusdb 2>&1 | cmp - "$golden"
echo "CLI output equals $golden"

echo "==> server probe: golden wire transcript"
# The same script through `serve --port 0` and `client --user ci`: the
# server's replies, every row of them, must equal
# results/ci/server_probe.golden byte for byte. That file was recorded
# by the binary before the typed command surface (one grammar shared by
# the shell, the session and the engine). The one line that differs from
# that recording is `init`'s tag, which gained the shell's ` (<path>)`
# suffix when the shell's own `init` was folded into the library's.
server_probe() { # compare the wire transcript with the golden
  local dir port pid status=0
  dir=$(mktemp -d /tmp/orpheus_ci_probe_srv.XXXXXX)
  ORPHEUS_SLOW_MS=1000000000 ./target/release/orpheusdb serve --port 0 > "$dir/serve.log" 2>&1 &
  pid=$!
  port=
  for _ in $(seq 100); do
    port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$dir/serve.log")
    [ -n "$port" ] && break
    sleep 0.1
  done
  if [ -n "$port" ]; then
    { probe_cmds; echo quit; } |
      ./target/release/orpheusdb client --port "$port" --user ci > "$dir/out" 2>&1 || status=$?
  else
    cat "$dir/serve.log"; status=1
  fi
  kill "$pid"
  wait "$pid" 2>/dev/null || true
  [ "$status" -eq 0 ] && cmp "$dir/out" results/ci/server_probe.golden || status=1
  rm -rf "$dir"
  return "$status"
}
server_probe
echo "server replies equal results/ci/server_probe.golden"

echo "==> observability smoke (explain analyze + metrics --json + trace dump)"
# End-to-end check of the obs pipeline: a durable commit/checkout workload
# followed by `explain analyze`, `metrics --json` (including the
# obs.journal.* counters), and `trace dump --json` — every exported
# Chrome-trace JSONL line is schema-checked, the request/commit/WAL-fsync
# spans must appear under non-zero trace ids, and a disabled journal
# (sample 0) must record zero further allocations. Writes a trace summary
# (trace_smoke.json) next to the metrics snapshot, into the git-ignored
# results/ci/ so a CI run never dirties the checked-in result files.
cargo run --release -q -p bench --bin obs_smoke -- --results-dir results/ci

echo "==> server smoke (concurrent sessions, group commit, backpressure)"
# In-process gate over the multi-session front end: 8 concurrent scripted
# clients, final state byte-compared against a serial replay of the commit
# log, pagestore.wal.fsyncs < commit count (group commit), a 53300
# backpressure leg, metrics schema check, and a leaked-thread check after
# clean shutdown. Every scripted commit runs under a client-chosen trace
# id; the gate requires `trace dump --json` to show each commit's request
# span plus its WAL-fsync attribution (real fsync on the batch leader,
# shared event on followers), and a traced read must carry its engine-side
# query span and its reply span. See crates/bench/src/bin/server_smoke.rs.
cargo run --release -q -p bench --bin server_smoke -- --results-dir results/ci

echo "==> frontier smoke (storage bytes vs recreation cost)"
# Loads small SCI/CUR datasets, asserts each stores no more bytes than
# its recorded bound (bench::gate), sweeps the materialization-budget
# frontier (every point within its β, more budget
# never worsens ΣR), and validates the LMG budget planner against the
# branch-and-bound oracle. Writes results/ci/frontier_smoke.json against
# a pinned schema; the 1M-record tier is recorded as skipped with a
# reason (it runs locally via `frontier --tier full` — numbers in
# EXPERIMENTS.md). perf_gate re-checks the document.
cargo run --release -q -p bench --bin frontier -- --results-dir results/ci

echo "==> server crash recovery (kill -9 mid-load, WAL replay)"
# The external leg: the real `serve` binary on a loopback port, concurrent
# line clients driving commits, then SIGKILL mid-load. The write-ahead log
# must bring the store back on reopen — twice, once dirty and once clean.
srv_dir=$(mktemp -d /tmp/orpheus_ci_srv.XXXXXX)
awk 'BEGIN { print "k,a"; for (i = 0; i < 20; i++) print i "," i }' > "$srv_dir/seed.csv"
start_server() { # stderr carries the one-line recovery report of the open
  ./target/release/orpheusdb serve --port 0 --data-dir "$srv_dir" > "$srv_dir/serve.log" 2> "$srv_dir/serve.err" &
  srv_pid=$!
  srv_port=
  for _ in $(seq 100); do
    srv_port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$srv_dir/serve.log")
    [ -n "$srv_port" ] && return 0
    kill -0 "$srv_pid" 2>/dev/null || { cat "$srv_dir/serve.log"; return 1; }
    sleep 0.1
  done
  echo "server did not report a port"; return 1
}
start_server
./target/release/orpheusdb client --port "$srv_port" --user ci <<EOF
init t -f $srv_dir/seed.csv -s k:int,a:int -k k
EOF
client_pids=()
for w in 1 2 3 4; do
  (
    for i in $(seq 1 6); do
      printf 'checkout t -v 0 -t w%sc%s\ninsert w%sc%s %s,%s\ncommit -t w%sc%s -m load\n' \
        "$w" "$i" "$w" "$i" $((100 + w * 10 + i)) "$w" "$w" "$i"
    done | ./target/release/orpheusdb client --port "$srv_port" --user "w$w" || true
  ) > "$srv_dir/w$w.out" 2>&1 &
  client_pids+=($!)
done
# A fifth client checks out and inserts, then holds its staging table
# (unlogged scratch pages) open across the others' checkpoints, uncommitted.
(
  { printf 'checkout t -v 0 -t idle\ninsert idle 9000,9\n'; sleep 2; } |
    ./target/release/orpheusdb client --port "$srv_port" --user w5 || true
) > /dev/null 2>&1 &
client_pids+=($!)
sleep 0.4
kill -9 "$srv_pid"
wait "$srv_pid" 2>/dev/null || true
for pid in "${client_pids[@]}"; do wait "$pid" 2>/dev/null || true; done
# Reopen #1: dirty WAL. A commit's durability point only appends to the
# log, and pages reach pages.db when the log passes its bound, so the log
# the kill left holds several batches and recovery replays them all. The
# log must still show v0 and every version the pre-kill server
# acknowledged; the idle client's table must be gone (its name free
# again); then land one more commit on top.
start_server
replayed=$(sed -n 's/^recovery: .* in \([0-9]*\) batch(es).*/\1/p' "$srv_dir/serve.err")
[ "${replayed:-0}" -ge 2 ] || { cat "$srv_dir/serve.err"; echo "reopen #1 replayed ${replayed:-no} batches, expected >= 2"; exit 1; }
echo "reopen #1 replayed $replayed batches from the log"
recovered=$("./target/release/orpheusdb" client --port "$srv_port" --user ci <<EOF
log t
checkout t -v 0 -t idle
checkout t -v 0 -t rec
insert rec 9999,9
commit -t rec -m after crash
EOF
)
echo "$recovered" | grep -q '\* v0 ' || { echo "WAL recovery lost v0"; exit 1; }
for vid in $(cat "$srv_dir"/w?.out | sed -n 's/^-- COMMIT \(v[0-9]*\)$/\1/p'); do
  echo "$recovered" | grep -qF "* $vid  ←" || { echo "acknowledged $vid lost"; exit 1; }
done
echo "$recovered" | grep -q 'into idle' || { echo "the uncommitted checkout survived"; exit 1; }
echo "$recovered" | grep -q -- '-- COMMIT v' || { echo "post-recovery commit failed"; exit 1; }
kill -9 "$srv_pid"
wait "$srv_pid" 2>/dev/null || true
# Reopen #2: the post-crash commit must itself have been made durable.
start_server
./target/release/orpheusdb client --port "$srv_port" --user ci <<EOF > "$srv_dir/final.log"
log t
EOF
grep -q 'msg: after crash' "$srv_dir/final.log" || { echo "commit after recovery not durable"; exit 1; }
kill "$srv_pid"
wait "$srv_pid" 2>/dev/null || true
# One store: everything above came back from pages.db and wal.log alone.
[ ! -e "$srv_dir/catalog.orc" ] || { echo "a catalog.orc appeared in the data dir"; exit 1; }
rm -rf "$srv_dir"
echo "WAL recovered across two kill -9 reopens"

echo "==> ThreadSanitizer (exec-pool + orpheus-server concurrency tests)"
# Data-race gate over the two crates that own threads. TSan needs a
# nightly toolchain (-Zsanitizer=thread) plus rust-src (-Zbuild-std, so
# std itself is instrumented). When the host toolchain cannot run the
# leg it is SKIPPED WITH A RECORDED REASON — results/ci/tsan_skip.txt —
# mirroring the perf gate's contract (crates/bench/src/gate.rs): a
# silently skipped sanitizer leg would read as "no data races" when
# nothing actually ran. A genuine test failure under TSan still fails CI.
mkdir -p results/ci
tsan_skip=""
tsan_host=$(rustc -vV | sed -n 's/^host: //p')
if ! command -v rustup > /dev/null 2>&1; then
  tsan_skip="rustup unavailable; cannot select a nightly toolchain"
elif ! rustup toolchain list 2> /dev/null | grep -q '^nightly'; then
  tsan_skip="no nightly toolchain installed (TSan needs -Zsanitizer=thread)"
elif ! rustup component list --toolchain nightly 2> /dev/null | grep -q 'rust-src (installed)'; then
  tsan_skip="nightly toolchain lacks rust-src (TSan needs -Zbuild-std)"
fi
if [ -z "$tsan_skip" ] && ! RUSTFLAGS="-Zsanitizer=thread" \
    cargo +nightly build -Zbuild-std --target "$tsan_host" \
      -p exec-pool -p orpheus-server --tests -q > results/ci/tsan_build.log 2>&1; then
  tsan_skip="nightly cannot build -Zsanitizer=thread for $tsan_host (see results/ci/tsan_build.log)"
fi
if [ -n "$tsan_skip" ]; then
  printf 'skipped: %s\n' "$tsan_skip" | tee results/ci/tsan_skip.txt
else
  rm -f results/ci/tsan_skip.txt
  RUSTFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -Zbuild-std --target "$tsan_host" \
      -q -p exec-pool -p orpheus-server
  echo "TSan: exec-pool + orpheus-server race-free" | tee results/ci/tsan_ok.txt
fi

echo "==> perf-regression gate (deterministic work counters)"
# Compares the smoke run's counters against results/baseline_smoke.json
# with per-key tolerances (crates/bench/src/gate.rs), and re-checks the
# frontier smoke's document. Refresh after an intentional perf change:
# ./scripts/perf_gate.sh --refresh
cargo run --release -q -p bench --bin perf_gate -- --results-dir results/ci

echo "==> trajectory point for the newest issue (results/BENCH_<n>.json)"
# A speed-up that is not in the trajectory did not happen (ROADMAP 7a):
# the newest `ISSUE n` line in CHANGES.md must have its paired
# parent/change runs checked in.
newest=$(grep -oE 'ISSUE [0-9]+' CHANGES.md | awk '{ print $2 }' | sort -n | tail -1)
[ -n "$newest" ] || { echo "no 'ISSUE n' line in CHANGES.md"; exit 1; }
[ -s "results/BENCH_$newest.json" ] || { echo "ISSUE $newest has no results/BENCH_$newest.json"; exit 1; }
echo "ISSUE $newest -> results/BENCH_$newest.json"

echo "==> net non-test Rust lines per crate (scripts/loc.sh), gated"
# Net LOC is a tracked metric (ROADMAP): printed on every run so a PR's
# before/after figures come from the same counter. A crate more than 5 %
# above its `loc_by_crate.parent` in the newest results/BENCH_<n>.json,
# or missing from it (a new crate), fails the gate unless CHANGES.md's
# newest line names it (and says why).
loc=$(scripts/loc.sh)
echo "$loc"
bench=$(ls results/BENCH_*.json | sed 's/.*BENCH_\([0-9]*\)\.json$/\1/' | sort -n | tail -1)
bench="results/BENCH_$bench.json"
grown=$(awk -F'"' -v now="$loc" '
  /"loc_by_crate"/ { in_loc = 1 }
  in_loc && /"parent"/ { in_parent = 1; next }
  in_parent && /}/ { exit }
  in_parent && NF >= 3 { n = $3; gsub(/[^0-9]/, "", n); parent[$2] = n; crates++ }
  END {
    if (!crates) { print "?"; exit }
    lines = split(now, line, "\n")
    for (i = 1; i <= lines; i++) {
      name = line[i]; sub(/[ \t]+[0-9]+[ \t]*$/, "", name)
      count = line[i]; sub(/.*[ \t]/, "", count)
      if (name == "total") continue
      if (!(name in parent)) print name "\tis new since"
      else if (count + 0 > parent[name] * 1.05) print name "\tgrew > 5 % over"
    }
  }' "$bench")
[ "$grown" != "?" ] || { echo "$bench has no loc_by_crate.parent"; exit 1; }
newest_change=$(grep -m1 '^- ' CHANGES.md)
unnamed=0
while IFS=$'\t' read -r crate why; do
  [ -n "$crate" ] || continue
  echo "$crate $why its parent in $bench"
  if ! printf '%s' "$newest_change" | grep -qF -- "$crate"; then
    echo "  and CHANGES.md's newest line does not name it"
    unnamed=1
  fi
done <<< "$grown"
[ "$unnamed" -eq 0 ] || exit 1
echo "no crate is new or grew > 5 % over $bench's parent unnamed"

echo "CI OK"
