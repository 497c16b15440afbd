//! Criterion micro-benchmarks for the Chapter 5 partitioners: LyreSplit vs
//! the NScale baselines, and partitioned checkout.

use bench::dataset_to_cvd;
use benchgen::{generate, DatasetSpec};
use criterion::{criterion_group, criterion_main, Criterion};
use models::PartitionedStore;
use partition::{
    agglo_partition, kmeans_partition, lyresplit, lyresplit_for_budget, AggloParams, KmeansParams,
    Vid,
};
use relstore::ExecContext;
use std::hint::black_box;

fn bench_partitioners(c: &mut Criterion) {
    let dataset = generate(&DatasetSpec::sci("SCI_10K", 1000, 100, 10));
    let tree = dataset.tree();
    let bipartite = &dataset.bipartite;

    let mut g = c.benchmark_group("partitioning");
    g.sample_size(10);
    g.bench_function("lyresplit_delta_0.1", |b| {
        b.iter(|| black_box(lyresplit(&tree, 0.1)))
    });
    g.bench_function("lyresplit_budget_2R", |b| {
        b.iter(|| black_box(lyresplit_for_budget(&tree, 2 * dataset.num_records())))
    });
    g.bench_function("agglo", |b| {
        b.iter(|| black_box(agglo_partition(bipartite, AggloParams::default())))
    });
    g.bench_function("kmeans_k8", |b| {
        b.iter(|| {
            black_box(kmeans_partition(
                bipartite,
                KmeansParams {
                    iterations: 3,
                    ..KmeansParams::default()
                },
            ))
        })
    });
    g.finish();

    // Checkout through a partitioned store vs single partition.
    let cvd = dataset_to_cvd(&dataset);
    let res = lyresplit_for_budget(&tree, 2 * dataset.num_records());
    let mut db = relstore::Database::new();
    let store = PartitionedStore::build(&mut db, &cvd, res.partitioning).unwrap();
    let mut db_single = relstore::Database::new();
    let single = PartitionedStore::build(
        &mut db_single,
        &cvd,
        partition::Partitioning::single(cvd.num_versions()),
    )
    .unwrap();
    let v = Vid(cvd.num_versions() as u32 / 2);

    let mut g = c.benchmark_group("partitioned_checkout");
    g.sample_size(20);
    g.bench_function("lyresplit_partitions", |b| {
        b.iter(|| {
            let mut ctx = ExecContext::new();
            black_box(store.checkout(&db, v, &mut ctx).unwrap())
        })
    });
    g.bench_function("single_partition", |b| {
        b.iter(|| {
            let mut ctx = ExecContext::new();
            black_box(single.checkout(&db_single, v, &mut ctx).unwrap())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_partitioners);
criterion_main!(benches);
