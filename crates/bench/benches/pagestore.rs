//! Criterion micro-benchmarks for the paged storage layer: slotted-page
//! operations, buffer-pool hit/miss paths, and heap scans that overflow
//! the pool (eviction + write-back churn).

use criterion::{criterion_group, criterion_main, Criterion};
use pagestore::{BufferPool, HeapFile, Page};
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

criterion_group!(benches, bench_page_ops, bench_buffer_pool, bench_heap);
criterion_main!(benches);
