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

/// Directory experiment outputs land in: `$ORPHEUS_RESULTS_DIR` when set,
/// `results/` otherwise. CI points this at the git-ignored `results/ci/`
/// so gate runs never dirty the checked-in result files.
pub fn results_dir() -> std::path::PathBuf {
    std::env::var_os("ORPHEUS_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("results"))
}

/// Write a metrics registry snapshot to `metrics_<name>.json` under
/// [`results_dir`] so every experiment run leaves a machine-readable
/// record next to its text output. Returns the path written.
pub fn write_metrics_snapshot(
    name: &str,
    registry: &obs::Registry,
) -> std::io::Result<std::path::PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("metrics_{name}.json"));
    std::fs::write(&path, registry.to_json().to_string_pretty())?;
    Ok(path)
}

/// Write an experiment's text table to `<name>.txt` under [`results_dir`].
pub fn write_text_result(name: &str, content: &str) -> std::io::Result<std::path::PathBuf> {
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
    fn sampling() {
        assert_eq!(sample_versions(10, 3), vec![Vid(0), Vid(3), Vid(6)]);
        assert_eq!(sample_versions(2, 5).len(), 2);
    }
}
