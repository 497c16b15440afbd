//! CI perf-regression gate over the `obs_smoke` metrics snapshot and the
//! `parallel_scaling` results.
//!
//! Compares the current run's snapshot (`<--results-dir>/metrics_smoke.json`,
//! produced by `scripts/perf_gate.sh` into the git-ignored `results/ci/`)
//! against the checked-in baseline `results/baseline_smoke.json`, using the
//! per-key tolerances in `bench::gate`. Deterministic work counters are the
//! gated quantities; wall-clock latencies never are.
//!
//! Additionally asserts the baseline-free invariants of
//! `<--results-dir>/parallel_scaling.json`: the parallel scan path
//! copied **zero** bytes from coordinator to workers (pages ship as
//! leases), morsel allocations stayed within budget, and the ≥2× @ 4
//! threads wall-clock leg either ran (hosts with ≥4 cores) and met its
//! floor, or recorded its skip reason.
//!
//! And of `<--results-dir>/frontier_smoke.json` (the storage/recreation
//! gate): each dataset stores no more bytes than its recorded bound,
//! every budget-frontier point respects its β, the LMG/exact oracle ratio holds, and the full (1M) tier ran
//! or recorded why it did not.
//!
//! Exit status 1 on any regression. When an intentional engine change moves
//! a counter, refresh the baseline:
//!
//! ```text
//! ./scripts/perf_gate.sh --refresh
//! ```

use std::process::ExitCode;

const BASELINE: &str = "results/baseline_smoke.json";

fn load(path: &std::path::Path) -> Result<obs::Json, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    obs::parse(&src).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = bench::Args::from_env();
    let refresh = args.rest.iter().any(|a| a == "--refresh");
    let baseline_path = std::path::PathBuf::from(BASELINE);
    let current_path = args.results_dir.join("metrics_smoke.json");

    if refresh {
        match std::fs::copy(&current_path, &baseline_path) {
            Ok(_) => {
                println!(
                    "perf gate: baseline refreshed from {}",
                    current_path.display()
                );
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("perf gate: refresh failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let (baseline, current) = match (load(&baseline_path), load(&current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("perf gate: {err}");
            }
            eprintln!("perf gate: run ./scripts/perf_gate.sh to produce both files");
            return ExitCode::FAILURE;
        }
    };

    let mut report = bench::gate::compare(&baseline, &current);
    println!(
        "perf gate: {} gated key(s), baseline {}",
        report.checked,
        baseline_path.display()
    );

    // Scaling results: absolute (baseline-free) zero-copy and wall-clock
    // assertions over the parallel_scaling run.
    let scaling_path = args.results_dir.join("parallel_scaling.json");
    match load(&scaling_path) {
        Ok(scaling) => {
            let s = bench::gate::check_scaling(&scaling);
            if let Some(reason) = scaling
                .get_path("wall_clock_leg/skip_reason")
                .and_then(obs::Json::as_str)
                .filter(|r| !r.is_empty())
            {
                println!("  scaling wall-clock leg skipped: {reason}");
            }
            println!("perf gate: {} scaling assertion(s) checked", s.checked);
            report.checked += s.checked;
            report.regressions.extend(s.regressions);
        }
        Err(err) => {
            eprintln!("perf gate: {err}");
            report
                .regressions
                .push("parallel_scaling.json: missing — scaling gate did not run".into());
        }
    }

    // Frontier results: absolute storage/recreation assertions over the
    // frontier smoke run.
    let frontier_path = args.results_dir.join("frontier_smoke.json");
    match load(&frontier_path) {
        Ok(frontier) => {
            let f = bench::gate::check_frontier(&frontier);
            if let Some(reason) = frontier
                .get_path("full_tier/skip_reason")
                .and_then(obs::Json::as_str)
                .filter(|r| !r.is_empty())
            {
                println!("  frontier full tier skipped: {reason}");
            }
            println!("perf gate: {} frontier assertion(s) checked", f.checked);
            report.checked += f.checked;
            report.regressions.extend(f.regressions);
        }
        Err(err) => {
            eprintln!("perf gate: {err}");
            report
                .regressions
                .push("frontier_smoke.json: missing — frontier gate did not run".into());
        }
    }

    for msg in &report.improvements {
        println!("  improved  {msg}");
    }
    if report.passed() {
        if !report.improvements.is_empty() {
            println!(
                "perf gate: PASS with improvements — consider ./scripts/perf_gate.sh --refresh"
            );
        } else {
            println!("perf gate: PASS");
        }
        ExitCode::SUCCESS
    } else {
        for msg in &report.regressions {
            eprintln!("  REGRESSED {msg}");
        }
        eprintln!(
            "perf gate: FAIL — {} regression(s). If intentional, refresh the baseline:\n  ./scripts/perf_gate.sh --refresh",
            report.regressions.len()
        );
        ExitCode::FAILURE
    }
}
