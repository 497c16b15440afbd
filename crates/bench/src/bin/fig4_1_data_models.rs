//! Fig. 4.1 — comparison between the five data models on storage size (a),
//! commit time (b), and checkout time (c), over the scaled SCI_* datasets.
//!
//! Protocol (§4.2): load the full dataset, check out the latest version
//! into a materialized table, and commit it straight back as a new version.
//! We report wall-clock time for both operations plus the physical storage
//! footprint. Expected shape: a-table-per-version ≈ 10× storage of the
//! split models; combined-table and split-by-vlist commits are orders of
//! magnitude slower than split-by-rlist; delta-based checkout degrades with
//! chain depth while a-table-per-version checkout is minimal.

use bench::{dataset_to_cvd, load_model, ms, time};
use benchgen::{generate, DatasetSpec};
use models::ModelKind;
use partition::Rid;
use relstore::ExecContext;

fn main() {
    bench::banner(
        "Fig 4.1: data model comparison",
        "Fig. 4.1(a,b,c) — storage / commit / checkout across five data models",
    );
    let specs = [
        DatasetSpec::sci("SCI_10K", 1000, 100, 10),
        DatasetSpec::sci("SCI_20K", 1000, 100, 20),
        DatasetSpec::sci("SCI_50K", 1000, 100, 50),
        DatasetSpec::sci("SCI_80K", 1000, 100, 80),
    ];
    bench::header(&[
        "dataset",
        "model",
        "storage MB",
        "commit ms",
        "sim cmt ms",
        "checkout ms",
        "sim co ms",
    ]);
    let registry = obs::Registry::new();
    let mut total_tracker = relstore::CostTracker::new();
    for spec in specs {
        let dataset = generate(&spec);
        let mut cvd = dataset_to_cvd(&dataset);
        let latest = cvd.latest_version();
        // The commit payload: the latest version checked out and committed
        // back unchanged (plus one modified row so the commit is not a
        // pure no-op for every model).
        let mut rows: Vec<relstore::Row> = cvd
            .checkout_rows(&[latest])
            .unwrap()
            .into_iter()
            .map(|(_, r)| r.clone())
            .collect();
        if let Some(first) = rows.first_mut() {
            first[1] = relstore::Value::Int64(-1);
        }
        let commit_res = cvd
            .commit(&[latest], rows, "recommit", "bench")
            .expect("commit");
        let new_rids: Vec<Rid> = {
            let total = cvd.num_records();
            ((total - commit_res.new_records)..total)
                .map(|i| Rid(i as u64))
                .collect()
        };

        for kind in ModelKind::all() {
            // Load everything *except* the final version; time its commit.
            let mut db = relstore::Database::new();
            let mut model = kind.build(cvd.name());
            model.init(&mut db, &cvd).unwrap();
            let mut seen: std::collections::HashSet<Rid> = Default::default();
            for v in cvd.graph().versions() {
                if v == commit_res.vid {
                    continue;
                }
                let rids = cvd.version_records(v).unwrap();
                let fresh: Vec<Rid> = rids.iter().copied().filter(|r| seen.insert(*r)).collect();
                model
                    .apply_commit(&mut db, &cvd, v, &fresh, &mut relstore::CostTracker::new())
                    .unwrap();
            }
            let mut commit_tracker = relstore::CostTracker::new();
            let (_, commit_t) = time(|| {
                model
                    .apply_commit(
                        &mut db,
                        &cvd,
                        commit_res.vid,
                        &new_rids,
                        &mut commit_tracker,
                    )
                    .unwrap()
            });
            // Checkout the (pre-commit) latest version.
            let mut ctx = ExecContext::new();
            let (out, checkout_t) = time(|| model.checkout(&db, &cvd, latest, &mut ctx).unwrap());
            assert_eq!(out.len(), cvd.version_records(latest).unwrap().len());
            registry.observe_duration("fig4_1.commit.latency_us", commit_t);
            registry.observe_duration("fig4_1.checkout.latency_us", checkout_t);
            total_tracker.absorb(&commit_tracker);
            total_tracker.absorb(&ctx.tracker);
            let storage_mb = model.storage_bytes(&db) as f64 / (1024.0 * 1024.0);
            bench::row(&[
                spec.name.clone(),
                kind.name().to_string(),
                format!("{storage_mb:.1}"),
                ms(commit_t),
                format!("{:.1}", commit_tracker.simulated_millis(&ctx.model)),
                ms(checkout_t),
                format!("{:.1}", ctx.tracker.simulated_millis(&ctx.model)),
            ]);
        }
        println!();
    }
    total_tracker.publish(&registry);
    match bench::write_metrics_snapshot("fig4_1_data_models", &registry) {
        Ok(path) => println!("metrics snapshot: {}", path.display()),
        Err(e) => eprintln!("warning: could not write metrics snapshot: {e}"),
    }
    // Reload helper kept warm for the linter.
    let _ = load_model;
}
