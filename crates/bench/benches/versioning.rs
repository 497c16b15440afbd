//! Criterion micro-benchmarks for the primitive versioning operations the
//! Chapter 4 figures are built from: per-model commit and checkout, and
//! the engine's `GROUP BY vid` over a many-version store.

use bench::{dataset_to_cvd, load_model};
use benchgen::{generate, DatasetSpec};
use criterion::{criterion_group, criterion_main, Criterion};
use models::ModelKind;
use orpheus_core::OrpheusDb;
use partition::{Rid, Vid};
use relstore::{Column, DataType, ExecContext, Row, RowId, Schema, Value};
use std::collections::HashMap;
use std::hint::black_box;

/// The 200-version CUR history (20 int attributes, seed 7: 9 592
/// records in 234 054 version memberships) in an in-memory `OrpheusDb`,
/// made as a user makes it: check each version's parents out, edit the
/// staging table into the version's exact contents, commit.
fn cur_store() -> OrpheusDb {
    let d = generate(
        &DatasetSpec::cur("t", 200, 20, 50)
            .with_attrs(20)
            .with_seed(7),
    );
    let rows = |v: Vid| d.version_records(v).iter().map(|&r| d.record(r));
    let row = |record: &[i64]| -> Row { record.iter().map(|&x| Value::Int64(x)).collect() };
    let mut cols = vec![Column::new("k", DataType::Int64)];
    cols.extend((1..20).map(|i| Column::new(format!("a{i}"), DataType::Int64)));
    let mut odb = OrpheusDb::new();
    odb.create_user("gen").unwrap();
    odb.login("gen").unwrap();
    let root = rows(Vid(0)).map(row).collect();
    odb.init_cvd("t", Schema::new(cols), vec!["k".into()], root)
        .unwrap();
    for v in d.versions().skip(1) {
        odb.checkout("t", d.graph.parents(v), "seed").unwrap();
        let staged = odb.staging_table_mut("seed").unwrap();
        let ints = |row: &Row| -> Vec<i64> { row.iter().map(|x| x.as_i64().unwrap()).collect() };
        let mut surplus: HashMap<Vec<i64>, RowId> =
            staged.iter().map(|(id, r)| (ints(&r), id)).collect();
        let missing: Vec<&[i64]> = rows(v).filter(|r| surplus.remove(*r).is_none()).collect();
        for id in surplus.into_values() {
            staged.delete(id).unwrap();
        }
        for record in missing {
            staged.insert(row(record)).unwrap();
        }
        assert_eq!(odb.commit("seed", "seed").unwrap().vid, v);
    }
    odb
}

fn bench_group_by_vid(c: &mut Criterion) {
    let odb = cur_store();
    let mut group = c.benchmark_group("group_by_vid");
    group.sample_size(10);
    for (name, sql) in [
        ("count", "SELECT vid, count(*) FROM CVD t GROUP BY vid"),
        (
            "sum_where",
            "SELECT vid, sum(a1) FROM CVD t WHERE a2 > 5000 GROUP BY vid",
        ),
    ] {
        group.bench_function(name, |b| b.iter(|| black_box(odb.run(sql).unwrap())));
    }
    group.finish();
}

fn bench_models(c: &mut Criterion) {
    let dataset = generate(&DatasetSpec::sci("SCI_5K", 200, 20, 25));
    let mut cvd = dataset_to_cvd(&dataset);
    let latest = cvd.latest_version();
    let rows: Vec<relstore::Row> = cvd
        .checkout_rows(&[latest])
        .unwrap()
        .into_iter()
        .map(|(_, r)| r.to_vec())
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

criterion_group!(benches, bench_group_by_vid, bench_models);
criterion_main!(benches);
