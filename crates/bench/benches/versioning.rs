//! Criterion micro-benchmarks for the primitive versioning operations the
//! Chapter 4 figures are built from: per-model commit and checkout.

use bench::{dataset_to_cvd, load_model};
use benchgen::{generate, DatasetSpec};
use criterion::{criterion_group, criterion_main, Criterion};
use models::ModelKind;
use partition::Rid;
use relstore::ExecContext;
use std::hint::black_box;

fn bench_models(c: &mut Criterion) {
    let dataset = generate(&DatasetSpec::sci("SCI_5K", 200, 20, 25));
    let mut cvd = dataset_to_cvd(&dataset);
    let latest = cvd.latest_version();
    let rows: Vec<relstore::Row> = cvd
        .checkout_rows(&[latest])
        .unwrap()
        .into_iter()
        .map(|(_, r)| r.clone())
        .collect();
    let res = cvd.commit(&[latest], rows, "bench", "b").unwrap();
    let new_rids: Vec<Rid> = {
        let total = cvd.num_records();
        ((total - res.new_records)..total)
            .map(|i| Rid(i as u64))
            .collect()
    };

    let mut checkout = c.benchmark_group("checkout");
    checkout.sample_size(10);
    for kind in ModelKind::all() {
        let (db, model) = load_model(kind, &cvd);
        checkout.bench_function(kind.name(), |b| {
            b.iter(|| {
                let mut ctx = ExecContext::new();
                black_box(model.checkout(&db, &cvd, latest, &mut ctx).unwrap())
            })
        });
    }
    checkout.finish();

    let mut commit = c.benchmark_group("commit");
    commit.sample_size(10);
    for kind in ModelKind::all() {
        commit.bench_function(kind.name(), |b| {
            b.iter_batched(
                || {
                    // Fresh store without the final version.
                    let mut db = relstore::Database::new();
                    let mut model = kind.build(cvd.name());
                    model.init(&mut db, &cvd).unwrap();
                    let mut seen: std::collections::HashSet<Rid> = Default::default();
                    for v in cvd.graph().versions() {
                        if v == res.vid {
                            continue;
                        }
                        let fresh: Vec<Rid> = cvd
                            .version_records(v)
                            .unwrap()
                            .iter()
                            .copied()
                            .filter(|r| seen.insert(*r))
                            .collect();
                        model
                            .apply_commit(
                                &mut db,
                                &cvd,
                                v,
                                &fresh,
                                &mut relstore::CostTracker::new(),
                            )
                            .unwrap();
                    }
                    (db, model)
                },
                |(mut db, mut model)| {
                    model
                        .apply_commit(
                            &mut db,
                            &cvd,
                            res.vid,
                            &new_rids,
                            &mut relstore::CostTracker::new(),
                        )
                        .unwrap();
                    // Return the store so its drop is not timed.
                    black_box((db, model))
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    commit.finish();
}

criterion_group!(benches, bench_models);
criterion_main!(benches);
