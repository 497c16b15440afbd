//! Fig. 5.8 — storage size vs checkout time frontier for LyreSplit, Agglo,
//! and KMeans on SCI and CUR datasets.
//!
//! Each point is one partitioning scheme (one parameter value: δ for
//! LyreSplit, capacity BC for Agglo, k for KMeans). We evaluate the exact
//! storage cost S = Σ|Rk| (records) and measure actual checkout time over a
//! sample of versions served from materialized partitions. Expected shape:
//! all curves fall then flatten with more storage; LyreSplit dominates.

use bench::{dataset_to_cvd, ms, sample_versions, time};
use benchgen::{generate, DatasetSpec};
use models::PartitionedStore;
use partition::{
    agglo_partition, kmeans_partition, lyresplit, AggloParams, KmeansParams, Partitioning,
};
use relstore::ExecContext;

fn checkout_time_ms(cvd: &orpheus_core::Cvd, p: Partitioning) -> (u64, f64, usize) {
    let mut db = relstore::Database::new();
    let store = PartitionedStore::build(&mut db, cvd, p).expect("build store");
    let storage = store.storage_records(&db);
    let parts = store.partitioning().num_partitions();
    let samples = sample_versions(cvd.num_versions(), 50);
    let (_, t) = time(|| {
        for &v in &samples {
            let mut ctx = ExecContext::new();
            store.checkout(&db, v, &mut ctx).expect("checkout");
        }
    });
    (storage, t.as_secs_f64() * 1e3 / samples.len() as f64, parts)
}

fn main() {
    bench::banner(
        "Fig 5.8: storage vs checkout-time frontier",
        "Fig. 5.8(a–f) — LyreSplit vs Agglo vs KMeans",
    );
    let specs = [
        DatasetSpec::sci("SCI_10K", 1000, 100, 10),
        DatasetSpec::sci("SCI_50K", 1000, 100, 50),
        DatasetSpec::cur("CUR_10K", 1000, 100, 10),
        DatasetSpec::cur("CUR_50K", 1000, 100, 50),
    ];
    for spec in specs {
        let dataset = generate(&spec);
        let cvd = dataset_to_cvd(&dataset);
        let tree = cvd.tree();
        let bipartite = cvd.bipartite();
        println!("--- {} ---", spec.name);
        bench::header(&["algorithm", "param", "parts", "S (records)", "checkout ms"]);

        for delta in [0.0001, 0.001, 0.01, 0.05, 0.2, 0.5, 1.0] {
            let res = lyresplit(&tree, delta);
            let (s, t, parts) = checkout_time_ms(&cvd, res.partitioning);
            bench::row(&[
                "LyreSplit".into(),
                format!("δ={delta}"),
                parts.to_string(),
                s.to_string(),
                format!("{t:.2}"),
            ]);
        }
        let r = bipartite.num_records();
        for cap_factor in [8u64, 4, 2, 1] {
            let p = agglo_partition(
                &bipartite,
                AggloParams {
                    capacity: (r / cap_factor).max(1),
                    ..AggloParams::default()
                },
            );
            let (s, t, parts) = checkout_time_ms(&cvd, p);
            bench::row(&[
                "Agglo".into(),
                format!("BC=R/{cap_factor}"),
                parts.to_string(),
                s.to_string(),
                format!("{t:.2}"),
            ]);
        }
        for k in [2usize, 5, 10, 20] {
            let p = kmeans_partition(
                &bipartite,
                KmeansParams {
                    k,
                    iterations: 5,
                    ..KmeansParams::default()
                },
            );
            let (s, t, parts) = checkout_time_ms(&cvd, p);
            bench::row(&[
                "KMeans".into(),
                format!("k={k}"),
                parts.to_string(),
                s.to_string(),
                format!("{t:.2}"),
            ]);
        }
        let _ = ms(std::time::Duration::ZERO);
        println!();
    }
}
