//! Shared experiment harness: dataset loading, timing, and table output.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md's per-experiment index); this library
//! holds the plumbing they share.

pub mod gate;

use benchgen::VersionedDataset;
use models::{load_cvd, ModelKind, VersioningModel};
use orpheus_core::cvd::Cvd;
use partition::Vid;
use relstore::{Column, DataType, Database, Schema, Value};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Time a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Millisecond rendering with two decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Convert a generated benchmark dataset into a CVD by replaying every
/// version as a commit (the record manager re-derives rids under the
/// no-cross-version-diff rule; contents are identical so the structure
/// mirrors the generator's).
pub fn dataset_to_cvd(d: &VersionedDataset) -> Cvd {
    let mut cols = vec![Column::new("k", DataType::Int64)];
    for i in 1..d.spec.num_attrs {
        cols.push(Column::new(format!("a{i}"), DataType::Int64));
    }
    let schema = Schema::new(cols);
    let to_rows = |v: Vid| -> Vec<Vec<Value>> {
        d.version_records(v)
            .iter()
            .map(|&rid| d.record(rid).iter().map(|&x| Value::Int64(x)).collect())
            .collect()
    };
    let (mut cvd, _) = Cvd::init(
        d.spec.name.clone(),
        schema,
        vec!["k".into()],
        to_rows(Vid(0)),
        "generator",
    )
    .expect("init cvd");
    for v in d.versions().skip(1) {
        let parents: Vec<Vid> = d.graph.parents(v).to_vec();
        cvd.commit(&parents, to_rows(v), "replay", "generator")
            .expect("replay commit");
    }
    cvd
}

/// Load a CVD into a fresh database under the given physical model.
pub fn load_model(kind: ModelKind, cvd: &Cvd) -> (Database, Box<dyn VersioningModel>) {
    let mut db = Database::new();
    let mut model = kind.build(cvd.name());
    load_cvd(model.as_mut(), &mut db, cvd).expect("load model");
    (db, model)
}

/// Evenly spaced sample of `n` version ids (the paper samples 100 versions
/// per dataset for checkout timing).
pub fn sample_versions(num_versions: usize, n: usize) -> Vec<Vid> {
    let n = n.min(num_versions).max(1);
    (0..n).map(|i| Vid((i * num_versions / n) as u32)).collect()
}

/// Print a row of fixed-width columns.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
}

/// Print a header row followed by a rule.
pub fn header(cells: &[&str]) {
    row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    println!("{}", "-".repeat(15 * cells.len()));
}

/// Standard banner for experiment binaries.
pub fn banner(title: &str, paper_ref: &str) {
    println!("\n=== {title} ===");
    println!("reproduces: {paper_ref}\n");
}

/// The options the experiment binaries share, from their command line.
/// Each binary reads the ones it uses; an argument that is none of them
/// is left in `rest` for the binary (`perf_gate --refresh`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// `--results-dir DIR`: where outputs land (default `results/`). CI
    /// points it at the git-ignored `results/ci/` so gate runs never dirty
    /// the checked-in result files.
    pub results_dir: PathBuf,
    /// `--tier full`: `frontier` runs its 1M-record tier (`--tier smoke`,
    /// the default, does not).
    pub full_tier: bool,
    /// `--reps N`: `parallel_scaling`'s best-of count per timing.
    pub reps: Option<usize>,
    /// Every other argument, in order.
    pub rest: Vec<String>,
}

impl Args {
    /// Parse `args` (without the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            results_dir: PathBuf::from("results"),
            full_tier: false,
            reps: None,
            rest: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--results-dir" => parsed.results_dir = PathBuf::from(value()?),
                "--tier" => {
                    parsed.full_tier = match value()?.as_str() {
                        "full" => true,
                        "smoke" => false,
                        other => return Err(format!("--tier is full or smoke, not {other:?}")),
                    }
                }
                "--reps" => {
                    let n = value()?;
                    let n = n.parse().ok().filter(|&n| n > 0);
                    parsed.reps = Some(n.ok_or("--reps needs a positive count")?);
                }
                _ => parsed.rest.push(arg),
            }
        }
        Ok(parsed)
    }

    /// This process's options; a malformed one ends it with exit status 2.
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }
}

/// Directory experiment outputs land in: `--results-dir`, or `results/`.
pub fn results_dir() -> PathBuf {
    Args::from_env().results_dir
}

/// Write a metrics registry snapshot to `metrics_<name>.json` under
/// [`results_dir`] so every experiment run leaves a machine-readable
/// record next to its text output. Returns the path written.
pub fn write_metrics_snapshot(name: &str, registry: &obs::Registry) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("metrics_{name}.json"));
    std::fs::write(&path, registry.to_json().to_string_pretty())?;
    Ok(path)
}

/// Write an experiment's text table to `<name>.txt` under [`results_dir`].
pub fn write_text_result(name: &str, content: &str) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.txt"));
    std::fs::write(&path, content)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchgen::{generate, DatasetSpec};

    #[test]
    fn dataset_replay_preserves_structure() {
        let d = generate(&DatasetSpec::sci("T", 30, 5, 10));
        let cvd = dataset_to_cvd(&d);
        assert_eq!(cvd.num_versions(), d.num_versions());
        // Record counts match: replay reassigns rids but the dedup
        // structure is identical.
        assert_eq!(cvd.num_records() as u64, d.num_records());
        for v in d.versions() {
            assert_eq!(
                cvd.version_records(v).unwrap().len(),
                d.version_records(v).len(),
                "version {v} size mismatch"
            );
        }
    }

    #[test]
    fn the_three_options_parse_and_leave_the_rest() {
        let parse = |args: &[&str]| Args::parse(args.iter().map(|a| a.to_string()));
        let none = parse(&[]).unwrap();
        assert_eq!(none.results_dir, PathBuf::from("results"));
        assert!(!none.full_tier && none.reps.is_none() && none.rest.is_empty());
        let all = parse(&[
            "--results-dir",
            "results/ci",
            "--refresh",
            "--tier",
            "full",
            "--reps",
            "1",
        ])
        .unwrap();
        assert_eq!(all.results_dir, PathBuf::from("results/ci"));
        assert!(all.full_tier);
        assert_eq!(all.reps, Some(1));
        assert_eq!(all.rest, ["--refresh"]);
        assert!(!parse(&["--tier", "smoke"]).unwrap().full_tier);
        for bad in [
            &["--reps", "0"][..],
            &["--reps", "x"],
            &["--tier", "big"],
            &["--results-dir"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn sampling() {
        assert_eq!(sample_versions(10, 3), vec![Vid(0), Vid(3), Vid(6)]);
        assert_eq!(sample_versions(2, 5).len(), 2);
    }
}
