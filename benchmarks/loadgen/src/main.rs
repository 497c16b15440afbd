//! `loadgen` — the wire-level commit / checkout / versioned-query
//! benchmark for `orpheus-server`, with a layer ladder.
//!
//! ```text
//! loadgen --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! loadgen --all [--seed <n>] [--seconds <s>] [--out <file>]
//! ```
//!
//! The first form is the contract of `BENCHMARK.json`: one workload, one
//! JSON result line last on stdout (end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1`). The second runs every workload
//! both ways and prints every metric by name with its unit. Run from the
//! repository root; see `benchmarks/README.md`.

mod check;
mod data;
mod layers;
mod run;
mod script;
mod stats;
mod target;
mod workload;

use obs::Json;
use run::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Spec, WORKLOADS};

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
    results: PathBuf,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scratch: std::env::var_os("LOADGEN_SCRATCH")
            .map_or_else(|| PathBuf::from("benchmarks/scratch"), PathBuf::from),
        results: PathBuf::from("benchmarks/results"),
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--all" {
            parsed.all = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<f64>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: `{value}` is not a whole number"))?
            }
            "--seconds" => parsed.seconds = number()?,
            "--trace" => parsed.trace = number()? != 0.0,
            "--scratch" => parsed.scratch = value.into(),
            "--results" => parsed.results = value.into(),
            "--out" => parsed.out = Some(value.into()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.all == parsed.workload.is_some() {
        return Err("give either --workload <name> or --all".into());
    }
    Ok(parsed)
}

/// The contract's result object.
fn result_json(outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            (
                name,
                Json::object(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    Json::object(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::object(metrics)),
    ])
}

fn run_one(spec: &'static Spec, args: &Args, trace: bool) -> Result<Outcome, String> {
    let scratch = args
        .scratch
        .join(format!("{}-{}", spec.name, std::process::id()));
    let outcome = if trace {
        layers::traced(spec, args.seed, &scratch, &args.results)
    } else {
        run::end_to_end(spec, args.seed, args.seconds, &scratch)
    };
    // The data directories are tens of MB each; never leave them behind.
    let cleaned = match std::fs::remove_dir_all(&scratch) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("{}: {e}", scratch.display()))
        }
        _ => Ok(()),
    };
    let outcome = outcome?;
    cleaned?;
    for e in outcome.errors.iter().take(10) {
        eprintln!("loadgen: {}: {e}", spec.name);
    }
    Ok(outcome)
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Every workload, end to end and traced; every metric printed by name.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut correct = true;
    let mut point = Vec::new();
    println!(
        "loadgen --all: seed {}, {} s per workload, {} core(s)",
        args.seed,
        args.seconds,
        host_cores()
    );
    for spec in WORKLOADS {
        println!("\n== {} — {}", spec.name, run::describe(spec.source));
        let mut entry = Vec::new();
        for trace in [false, true] {
            let outcome = run_one(spec, args, trace)?;
            correct &= outcome.failed == 0;
            println!(
                "-- {}: attempted {}, failed {}, {} round(s) of {} units",
                if trace { "per layer" } else { "end to end" },
                outcome.attempted,
                outcome.failed,
                outcome.rounds,
                outcome.samples
            );
            for &(name, value, unit) in &outcome.metrics {
                println!("{name:<36} {value:>16.4} {unit}");
            }
            entry.push((
                if trace { "per_layer" } else { "end_to_end" },
                result_json(&outcome),
            ));
        }
        point.push((spec.name, Json::object(entry)));
    }
    if let Some(out) = &args.out {
        let doc = Json::object(vec![
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("host_cores", Json::Num(host_cores() as f64)),
            (
                "commit",
                Json::Str(std::env::var("LOADGEN_COMMIT").unwrap_or_else(|_| "unknown".into())),
            ),
            ("workloads", Json::object(point)),
        ]);
        std::fs::write(out, doc.to_string_pretty())
            .map_err(|e| format!("{}: {e}", out.display()))?;
        println!("\nwrote {}", out.display());
    }
    Ok(correct)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if args.all {
        return run_all(&args);
    }
    let name = args.workload.as_deref().unwrap_or_default();
    let spec = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })?;
    let outcome = run_one(spec, &args, args.trace)?;
    println!("{}", result_json(&outcome).to_string_compact());
    Ok(outcome.failed == 0)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("loadgen: outputs were wrong or operations failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use run::END_TO_END;
    use std::path::Path;

    fn benchmark_json() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        obs::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(list) else {
            panic!("BENCHMARK.json has no {list} array")
        };
        items
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn sample(metrics: &[(&'static str, &'static str)]) -> String {
        let outcome = Outcome {
            attempted: 10,
            failed: 0,
            metrics: metrics.iter().map(|&(n, u)| (n, 1.5, u)).collect(),
            errors: Vec::new(),
            samples: 0,
            rounds: 0,
        };
        result_json(&outcome).to_string_compact()
    }

    /// The output and `BENCHMARK.json` name the same metrics with the
    /// same units, so the two cannot drift.
    #[test]
    fn output_carries_every_metric_benchmark_json_declares() {
        let doc = benchmark_json();
        for (list, ours) in [("end_to_end", END_TO_END), ("per_layer", layers::PER_LAYER)] {
            let theirs = declared(&doc, list);
            let required: Vec<String> = theirs
                .iter()
                .map(|(n, _)| format!("metrics/{n}/value"))
                .collect();
            let required: Vec<&str> = required.iter().map(String::as_str).collect();
            let out = sample(ours);
            assert_eq!(
                obs::missing_keys(&out, &required).unwrap(),
                Vec::<String>::new(),
                "{list}"
            );
            assert_eq!(
                obs::missing_keys(&out, &["correct", "attempted", "failed"])
                    .unwrap()
                    .len(),
                0
            );
            let ours: Vec<(String, String)> =
                ours.iter().map(|&(n, u)| (n.into(), u.into())).collect();
            assert_eq!(ours, theirs, "{list}: names, order and units");
        }
    }

    #[test]
    fn workloads_are_the_ones_benchmark_json_declares() {
        let doc = benchmark_json();
        let Some(Json::Arr(items)) = doc.get("workloads") else {
            panic!("BENCHMARK.json has no workloads")
        };
        let theirs: Vec<&str> = items
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
        assert_eq!(ours, theirs);
        assert!(doc.get("end_to_end").is_some());
    }

    #[test]
    fn result_line_has_whole_counts_and_no_nan() {
        let outcome = Outcome {
            attempted: 1200,
            failed: 0,
            metrics: vec![("setup_s", f64::NAN, "s")],
            errors: Vec::new(),
            samples: 0,
            rounds: 0,
        };
        let line = result_json(&outcome).to_string_compact();
        assert!(line.contains("\"attempted\":1200"), "{line}");
        assert!(line.contains("\"correct\":true"), "{line}");
        assert!(obs::parse(&line).is_ok(), "{line}");
    }

    #[test]
    fn arguments_of_the_contract_parse() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload read_pinned --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("read_pinned"), 7, 3.0, true)
        );
        assert!(parse_args(&argv("--all --seed 2")).unwrap().all);
        assert!(parse_args(&argv("--seed 2")).is_err());
        assert!(parse_args(&argv("--workload x --bogus 1")).is_err());
    }
}
