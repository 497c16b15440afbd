//! Fig. 5.14 / 5.15 — the benefit of partitioning: average checkout time
//! and storage size without partitioning vs LyreSplit at γ = 1.5|R| and
//! γ = 2|R|, on SCI_* and CUR_* datasets.
//!
//! Expected shape: with ≤2× storage, checkout time drops by 3–20× and the
//! reduction grows with dataset size; CUR reductions are smaller because
//! its versions are larger (|E|/|V| is the floor, Observation 5.1).

use bench::{dataset_to_cvd, sample_versions, time};
use benchgen::{generate, DatasetSpec};
use models::{ModelKind, PartitionedStore};
use partition::lyresplit_for_budget;
use relstore::ExecContext;

fn main() {
    bench::banner(
        "Fig 5.14 / 5.15: benefit of partitioning",
        "Fig. 5.14(a,b), 5.15(a,b) — checkout time and storage, with vs without partitioning",
    );
    let specs = [
        DatasetSpec::sci("SCI_10K", 1000, 100, 10),
        DatasetSpec::sci("SCI_50K", 1000, 100, 50),
        DatasetSpec::sci("SCI_100K", 2000, 200, 50),
        DatasetSpec::cur("CUR_10K", 1000, 100, 10),
        DatasetSpec::cur("CUR_50K", 1000, 100, 50),
    ];
    bench::header(&[
        "dataset",
        "scheme",
        "parts",
        "storage MB",
        "checkout ms",
        "speedup",
    ]);
    for spec in specs {
        let dataset = generate(&spec);
        let cvd = dataset_to_cvd(&dataset);
        let samples = sample_versions(cvd.num_versions(), 50);

        // Baseline: unpartitioned split-by-rlist.
        let (db, model) = bench::load_model(ModelKind::SplitByRlist, &cvd);
        let (_, t) = time(|| {
            for &v in &samples {
                let mut ctx = ExecContext::new();
                model.checkout(&db, &cvd, v, &mut ctx).expect("checkout");
            }
        });
        let base_ms = t.as_secs_f64() * 1e3 / samples.len() as f64;
        let base_mb = model.storage_bytes(&db) as f64 / (1024.0 * 1024.0);
        bench::row(&[
            spec.name.clone(),
            "no partition".into(),
            "1".into(),
            format!("{base_mb:.1}"),
            format!("{base_ms:.2}"),
            "1.0x".into(),
        ]);
        drop(db);

        let tree = cvd.tree();
        for factor in [1.5f64, 2.0] {
            let gamma = (factor * cvd.num_records() as f64) as u64;
            let res = lyresplit_for_budget(&tree, gamma);
            let mut pdb = relstore::Database::new();
            let store = PartitionedStore::build(&mut pdb, &cvd, res.partitioning).expect("build");
            let (_, t) = time(|| {
                for &v in &samples {
                    let mut ctx = ExecContext::new();
                    store.checkout(&pdb, v, &mut ctx).expect("checkout");
                }
            });
            let part_ms = t.as_secs_f64() * 1e3 / samples.len() as f64;
            let mb = store.storage_bytes(&pdb) as f64 / (1024.0 * 1024.0);
            bench::row(&[
                spec.name.clone(),
                format!("γ={factor}|R|"),
                store.partitioning().num_partitions().to_string(),
                format!("{mb:.1}"),
                format!("{part_ms:.2}"),
                format!("{:.1}x", base_ms / part_ms.max(1e-9)),
            ]);
        }
        println!();
    }
}
