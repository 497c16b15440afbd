//! Commit-latency cost of crash safety: checkpointing a batch of dirty
//! pages through a file-backed pool **with** a write-ahead log (append +
//! fsync + write-back + truncate) versus the same pool **without** one
//! (plain write-back + fsync). The delta is the WAL overhead a durable
//! `commit` pays; EXPERIMENTS.md records the measured numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use pagestore::{BufferPool, FilePager, Wal};
use std::hint::black_box;
use std::path::PathBuf;

const DIRTY_PAGES: u32 = 64;
const POOL_FRAMES: usize = 128;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pagestore-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Dirty `DIRTY_PAGES` pages (first run allocates them) so the following
/// `flush_all` has a full batch to write.
fn dirty_batch(pool: &BufferPool) {
    for id in 0..DIRTY_PAGES {
        if id < pool.num_pages() {
            pool.fetch_mut(id).unwrap().insert(&[0xAB; 64]).unwrap_or(0);
        } else {
            pool.allocate_pinned(false)
                .unwrap()
                .1
                .insert(&[0xAB; 64])
                .unwrap();
        }
    }
}

fn bench_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint_64_dirty_pages");
    group.sample_size(20);

    group.bench_function("file_pool_no_wal", |b| {
        let dir = scratch_dir("nowal");
        let pager = FilePager::open(dir.join("pages.db")).unwrap();
        let pool = BufferPool::new(Box::new(pager), POOL_FRAMES);
        b.iter(|| {
            dirty_batch(&pool);
            pool.flush_all().unwrap();
            black_box(pool.stats().flushed_writes)
        });
        let _ = std::fs::remove_dir_all(&dir);
    });

    group.bench_function("file_pool_wal", |b| {
        let dir = scratch_dir("wal");
        let pager = FilePager::open(dir.join("pages.db")).unwrap();
        let wal = Wal::open_file(dir.join("wal.log")).unwrap();
        let pool = BufferPool::with_wal(Box::new(pager), wal, POOL_FRAMES);
        b.iter(|| {
            dirty_batch(&pool);
            pool.flush_all().unwrap();
            black_box(pool.stats().checkpoints)
        });
        let _ = std::fs::remove_dir_all(&dir);
    });

    group.finish();
}

/// The end-to-end surface: a full OrpheusDB `commit` (checkout → modify →
/// commit) on an in-memory instance versus a durable one, so the WAL cost
/// is seen in proportion to the versioning work around it.
fn bench_commit_path(c: &mut Criterion) {
    use orpheus_core::{OrpheusDb, Vid};
    use relstore::{Column, DataType, Schema, Value};

    let rows: Vec<Vec<Value>> = (0..512)
        .map(|i| vec![Value::Int64(i), Value::Int64(i * 7)])
        .collect();
    let schema = || {
        Schema::new(vec![
            Column::new("id", DataType::Int64),
            Column::new("x", DataType::Int64),
        ])
    };
    let seed = |odb: &mut OrpheusDb| {
        odb.create_user("bench").unwrap();
        odb.login("bench").unwrap();
        odb.init_cvd("cvd", schema(), vec!["id".into()], rows.clone())
            .unwrap();
    };
    let commit_once = |odb: &mut OrpheusDb, i: i64| {
        let table = format!("w{i}");
        odb.checkout("cvd", &[Vid(0)], &table).unwrap();
        odb.staging_table_mut(&table)
            .unwrap()
            .insert(vec![Value::Int64(100_000 + i), Value::Int64(i)])
            .unwrap();
        black_box(odb.commit(&table, "bench").unwrap().vid)
    };

    let mut group = c.benchmark_group("orpheus_commit");
    group.sample_size(20);

    group.bench_function("in_memory", |b| {
        let mut odb = OrpheusDb::new();
        seed(&mut odb);
        let mut i = 0i64;
        b.iter(|| {
            i += 1;
            commit_once(&mut odb, i)
        })
    });

    group.bench_function("durable_wal", |b| {
        let dir = scratch_dir("commit");
        let (mut odb, _) = OrpheusDb::open_durable(&dir, 512).unwrap();
        seed(&mut odb);
        let mut i = 0i64;
        b.iter(|| {
            i += 1;
            commit_once(&mut odb, i)
        });
        let _ = std::fs::remove_dir_all(&dir);
    });

    group.finish();
}

criterion_group!(benches, bench_checkpoint, bench_commit_path);
criterion_main!(benches);
