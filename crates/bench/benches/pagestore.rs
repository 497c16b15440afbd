//! Criterion micro-benchmarks for the paged storage layer: slotted-page
//! operations, buffer-pool hit/miss paths, heap scans that overflow the
//! pool (eviction + write-back churn), and the tuple codec that reads the
//! pages' rows.

use criterion::{criterion_group, criterion_main, Criterion};
use pagestore::{BufferPool, HeapFile, Page};
use relstore::codec;
use relstore::Value;
use std::hint::black_box;

fn bench_page_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("page");
    group.sample_size(20);
    group.bench_function("insert_until_full", |b| {
        let tuple = [7u8; 64];
        b.iter(|| {
            let mut page = Page::new();
            let mut n = 0u32;
            while page.insert(&tuple).is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
    group.bench_function("scan_full_page", |b| {
        let mut page = Page::new();
        while page.insert(&[7u8; 64]).is_some() {}
        b.iter(|| {
            let total: usize = page.live_tuples().map(|(_, t)| t.len()).sum();
            black_box(total)
        })
    });
    group.finish();
}

fn bench_buffer_pool(c: &mut Criterion) {
    // 256 pages of data over pools on either side of the working set.
    let n_pages = 256u32;
    let build = |frames: usize| {
        let pool = BufferPool::in_memory(frames);
        for _ in 0..n_pages {
            let (_, mut page) = pool.allocate_pinned(false).unwrap();
            page.insert(&[1u8; 128]).unwrap_or(0);
        }
        pool
    };
    let mut group = c.benchmark_group("buffer_pool");
    group.sample_size(20);
    group.bench_function("fetch_all_hits", |b| {
        let pool = build(n_pages as usize);
        b.iter(|| {
            let mut sum = 0usize;
            for id in 0..n_pages {
                sum += pool.fetch(id).unwrap().live_count();
            }
            black_box(sum)
        })
    });
    group.bench_function("fetch_with_eviction", |b| {
        let pool = build(n_pages as usize / 8);
        b.iter(|| {
            let mut sum = 0usize;
            for id in 0..n_pages {
                sum += pool.fetch(id).unwrap().live_count();
            }
            black_box(sum)
        })
    });
    group.finish();
}

fn bench_heap(c: &mut Criterion) {
    let mut group = c.benchmark_group("heap");
    group.sample_size(10);
    group.bench_function("insert_10k_small_pool", |b| {
        b.iter(|| {
            let pool = BufferPool::in_memory(8);
            let mut heap = HeapFile::new();
            for i in 0..10_000u32 {
                heap.insert(&pool, &i.to_le_bytes()).unwrap();
            }
            black_box(heap.num_pages())
        })
    });
    group.bench_function("scan_larger_than_pool", |b| {
        let pool = BufferPool::in_memory(8);
        let mut heap = HeapFile::new();
        for i in 0..10_000u32 {
            heap.insert(&pool, &[i as u8; 64]).unwrap();
        }
        b.iter(|| {
            let mut tuples = 0usize;
            for ord in 0..heap.num_pages() {
                tuples += heap.tuples_on_page(&pool, ord).unwrap().len();
            }
            black_box(tuples)
        })
    });
    group.finish();
}

/// The decoder of a versioned read, over 2 000 tuples shaped like a data
/// table's rows (a rid and 20 Int64 values), each timed case reading all
/// of them once (divide by 2 000 for a tuple): `probe` is the column a
/// pushed-down WHERE tests, `decode_row` the row that passes. `flat_words`
/// is the word path (every value 8 bytes, read by offset), `flat_walker`
/// the same tuples with one NULL each (the walker).
fn bench_codec(c: &mut Criterion) {
    const TUPLES: i64 = 2_000;
    let rows: Vec<Vec<Value>> = (0..TUPLES)
        .map(|rid| {
            let attrs = (0..20).map(|a| Value::Int64(rid * 31 + a * 7 % 10_000));
            std::iter::once(Value::Int64(rid)).chain(attrs).collect()
        })
        .collect();
    let with_null = rows.iter().enumerate().map(|(i, row)| {
        let mut row = row.clone();
        row[1 + i % 20] = Value::Null;
        row
    });
    let cases = [
        (
            "flat_words",
            rows.iter()
                .enumerate()
                .map(|(i, r)| codec::encode_row(i as u64, r))
                .collect::<Vec<_>>(),
        ),
        (
            "flat_walker",
            with_null
                .enumerate()
                .map(|(i, r)| codec::encode_row(i as u64, &r))
                .collect(),
        ),
    ];
    let mut group = c.benchmark_group("codec");
    group.sample_size(30);
    for (name, tuples) in &cases {
        group.bench_function(format!("{name}/probe_x2000"), |b| {
            b.iter(|| {
                let probed = tuples.iter().filter_map(|t| codec::probe(t, 11).unwrap());
                black_box(probed.count())
            })
        });
        group.bench_function(format!("{name}/decode_row_x2000"), |b| {
            b.iter(|| {
                let values: usize = tuples
                    .iter()
                    .map(|t| codec::decode_row(t).unwrap().1.len())
                    .sum();
                black_box(values)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_page_ops,
    bench_buffer_pool,
    bench_heap,
    bench_codec
);
criterion_main!(benches);
