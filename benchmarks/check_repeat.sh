#!/usr/bin/env bash
# Do two sets of runs of the same build agree?
#
# Runs two sets of RUNS (default 3) end-to-end runs of every workload, each
# run with its own seed (the same seeds in both sets), takes each metric's
# median per set, and fails if the second set's median is worse than the
# first's by more than the metric's bound in BENCHMARK.json. The medians
# and the verdicts go to benchmarks/results/repeat_<n>.json.
#
#   benchmarks/check_repeat.sh [OUT.json]     # default results/repeat_11.json
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-benchmarks/results/repeat_11.json}"
runs="${RUNS:-3}"

python3 - "$out" "$runs" <<'EOF'
import json, statistics, subprocess, sys

out, runs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in bench["workloads"]]
metrics = bench["end_to_end"]

def one(workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}

sets = []
for s in range(2):
    medians = {}
    for w in workloads:
        values = [one(w, seed) for seed in range(1, runs + 1)]
        medians[w] = {m["name"]: statistics.median(v[m["name"]] for v in values) for m in metrics}
        print(f"set {s + 1} {w}: {medians[w]}", flush=True)
    sets.append(medians)

rows, agree = [], True
for w in workloads:
    for m in metrics:
        a, b = sets[0][w][m["name"]], sets[1][w][m["name"]]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        ok = worse <= m["bound"]
        agree &= ok
        rows.append({"workload": w, "metric": m["name"], "unit": m["unit"], "first": a, "second": b,
                     "worse_by": worse, "bound": m["bound"], "within_bound": ok})
        print(f"{'ok  ' if ok else 'FAIL'} {w:18} {m['name']:12} {a:12.4f} -> {b:12.4f}  worse by {worse:+.3f} (bound {m['bound']})")
json.dump({"runs_per_set": runs, "seconds": bench["run_seconds"], "agree": agree, "metrics": rows},
          open(out, "w"), indent=1)
print(f"wrote {out}: {'the two sets agree' if agree else 'the two sets DISAGREE'}")
sys.exit(0 if agree else 1)
EOF
