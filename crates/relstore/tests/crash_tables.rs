//! Crash-point matrix for tables: a crash mid-checkpoint of a table
//! must replay to exactly the bytes the committed history produced.
//! For every I/O operation inside the in-flight checkpoint, inject a
//! fault there, reopen, recover, and compare raw page images against
//! clean reference runs. Also pins rebuild determinism: replaying the
//! same logical history into a fresh store yields identical page images.
//! A second matrix runs the
//! same history through a `Database`: after the crash the table is in
//! the reopened catalog, rows and page images those of a committed state.

use std::path::{Path, PathBuf};
use std::rc::Rc;

use pagestore::{
    FaultKind, FaultPager, FaultPlan, FaultWal, FilePager, FileWalStore, IoStats, Wal, PAGE_SIZE,
};
use relstore::{BufferPool, Column, DataType, Database, Schema, Table, Value};

const CAP: usize = 8;

fn unique_base(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "relstore-crash-tables-{tag}-{}",
        std::process::id()
    ))
}

/// A fresh durable store in `dir` whose pager and WAL share one fault
/// plan (same shape as pagestore's crash matrix).
fn open_faulty(dir: &Path, plan: &FaultPlan) -> Rc<BufferPool> {
    std::fs::create_dir_all(dir).unwrap();
    let pager = FaultPager::new(
        Box::new(FilePager::open_recoverable(dir.join("pages.db")).unwrap()),
        plan.clone(),
    );
    let store = FaultWal::new(
        Box::new(FileWalStore::open(dir.join("wal.log")).unwrap()),
        plan.clone(),
    );
    Rc::new(BufferPool::with_wal(
        Box::new(pager),
        Wal::new(Box::new(store)),
        CAP,
    ))
}

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("k", DataType::Int64),
        Column::new("tag", DataType::Text),
        Column::new("rlist", DataType::IntArray),
    ])
}

fn row(i: i64) -> Vec<Value> {
    // Text and an int array: tuples of varying shape.
    let tag = format!("commit-tag-{}", i % 4);
    Vec::from([
        Value::Int64(i),
        Value::Text(tag),
        Value::IntArray(vec![i, i + 2, i + 7]),
    ])
}

/// Commits 1 and 2 — the durable history that must survive any fault.
fn committed_prefix(table: &mut Table) {
    for i in 0..20 {
        table.insert(row(i)).unwrap();
    }
    table.pool().flush_all().unwrap();
    for i in 20..32 {
        table.insert(row(i)).unwrap();
    }
    table.update(3, row(103)).unwrap();
    table.pool().flush_all().unwrap();
}

/// The in-flight commit 3's body (everything before its checkpoint).
fn inflight_body(table: &mut Table) -> relstore::Result<()> {
    for i in 32..40 {
        table.insert(row(i))?;
    }
    table.update(7, row(107))?;
    Ok(())
}

/// Raw images of every page in the store.
fn page_images(pool: &BufferPool) -> Vec<[u8; PAGE_SIZE]> {
    (0..pool.num_pages())
        .map(|id| *pool.fetch(id).unwrap().bytes())
        .collect()
}

/// Clean reference run: the page images after commit 2 and after
/// commit 3, plus the I/O op count of commit 3's checkpoint alone.
fn reference_run(dir: &Path) -> (Vec<[u8; PAGE_SIZE]>, Vec<[u8; PAGE_SIZE]>, u64) {
    let plan = FaultPlan::unarmed();
    let pool = open_faulty(dir, &plan);
    let mut table = Table::with_pool("t", schema(), Rc::clone(&pool));
    committed_prefix(&mut table);
    let after_c2 = page_images(&pool);
    inflight_body(&mut table).unwrap();
    let at_flush = plan.ops();
    pool.flush_all().unwrap();
    let flush_ops = plan.ops() - at_flush;
    let after_c3 = page_images(&pool);
    (after_c2, after_c3, flush_ops)
}

/// Which committed state the recovered store matches, byte for byte.
/// Panics if it matches neither — a torn checkpoint leaked through.
fn matches_reference(
    got: &[[u8; PAGE_SIZE]],
    after_c2: &[[u8; PAGE_SIZE]],
    after_c3: &[[u8; PAGE_SIZE]],
    context: &str,
) -> bool {
    for (want, label) in [(after_c2, "commit 2"), (after_c3, "commit 3")] {
        if got.len() < want.len() {
            continue;
        }
        let prefix_ok = got[..want.len()]
            .iter()
            .zip(want.iter())
            .all(|(g, w)| g == w);
        // A crashed allocation may have grown the file past the reference;
        // such tail pages must be empty, never half-written tuples.
        let tail_ok = got[want.len()..]
            .iter()
            .all(|img| pagestore::live_cells(img).count() == 0);
        if prefix_ok && tail_ok {
            return label == "commit 3";
        }
    }
    panic!("{context}: recovered pages match neither committed state byte-for-byte");
}

/// Every crash point inside commit 3's checkpoint, for both crash kinds: recovery must land on one committed state exactly.
#[test]
fn crash_mid_checkpoint_replays_committed_bytes() {
    let base = unique_base("matrix");
    let _ = std::fs::remove_dir_all(&base);
    let ref_dir = base.join("ref");
    let (after_c2, after_c3, flush_ops) = reference_run(&ref_dir);
    assert!(
        flush_ops >= 6,
        "checkpoint = WAL write + sync + page writes + sync + header + sync"
    );
    let mut committed = 0u32;
    let mut rolled_back = 0u32;
    for fault in [FaultKind::CrashStop, FaultKind::ShortWrite] {
        for nth in 1..=flush_ops {
            let dir = base.join(format!("{fault:?}-{nth}"));
            let plan = FaultPlan::unarmed();
            {
                let pool = open_faulty(&dir, &plan);
                let mut table = Table::with_pool("t", schema(), Rc::clone(&pool));
                committed_prefix(&mut table);
                inflight_body(&mut table).unwrap();
                plan.arm(nth, fault);
                pool.flush_all()
                    .expect_err("the armed fault must surface as an error");
                assert!(plan.fired(), "fault point {nth} was never reached");
            }
            let (pool, _report) = BufferPool::open_durable(&dir, CAP).unwrap();
            let context = format!("{fault:?} at checkpoint op {nth}");
            if matches_reference(&page_images(&pool), &after_c2, &after_c3, &context) {
                committed += 1;
            } else {
                rolled_back += 1;
            }
        }
    }
    assert!(rolled_back > 0, "some fault points must lose commit 3");
    assert!(committed > 0, "some fault points must replay commit 3");
    std::fs::remove_dir_all(&base).unwrap();
}

/// The history of `committed_prefix` + `inflight_body` on table `t` of a
/// database over a faulty pool; commit 3's checkpoint is left to the caller.
fn database_history(dir: &Path, plan: &FaultPlan) -> Database {
    let pool = Rc::into_inner(open_faulty(dir, plan)).unwrap();
    let mut db = Database::open_pool(pool, obs::Recorder::new()).unwrap();
    let t = db.create_table("t", schema()).unwrap();
    t.create_index("k_pk", "k", true, relstore::IndexKind::BTree)
        .unwrap();
    for i in 0..20 {
        t.insert(row(i)).unwrap();
    }
    db.checkpoint().unwrap();
    let t = db.table_mut("t").unwrap();
    for i in 20..32 {
        t.insert(row(i)).unwrap();
    }
    t.update(3, row(103)).unwrap();
    db.checkpoint().unwrap();
    inflight_body(db.table_mut("t").unwrap()).unwrap();
    db
}

type Images = Vec<[u8; PAGE_SIZE]>;

/// What a reopen of `dir` finds: table `t`'s rows and every page image.
fn reopened(dir: &Path) -> (Vec<(u64, Vec<Value>)>, Images) {
    let (db, _report) = Database::open_durable(dir, CAP).unwrap();
    assert_eq!(db.table_names(), ["t"], "the table is in the catalog");
    let t = db.table("t").unwrap();
    assert!(t.has_index("k_pk"));
    (t.rows().unwrap(), page_images(db.pool()))
}

/// Was "the catalog starts empty after a reopen": a crash at every I/O
/// of a checkpoint that carries table pages *and* their directory page.
/// The reopened database holds the table, with the rows and the page
/// images of commit 2 or of commit 3 — byte for byte.
#[test]
fn crash_mid_checkpoint_reopens_the_table() {
    let base = unique_base("database");
    let _ = std::fs::remove_dir_all(&base);
    let (c2_dir, c3_dir) = (base.join("c2"), base.join("c3"));
    drop(database_history(&c2_dir, &FaultPlan::unarmed()));
    let after_c2 = reopened(&c2_dir);
    let plan = FaultPlan::unarmed();
    let db = database_history(&c3_dir, &plan);
    let at_flush = plan.ops();
    db.checkpoint().unwrap();
    let flush_ops = plan.ops() - at_flush;
    drop(db);
    let after_c3 = reopened(&c3_dir);
    assert_eq!(after_c3.0.len(), 40);
    assert_ne!(after_c2.0, after_c3.0);
    let (mut committed, mut rolled_back) = (0u32, 0u32);
    for fault in [FaultKind::CrashStop, FaultKind::ShortWrite] {
        for nth in 1..=flush_ops {
            let dir = base.join(format!("{fault:?}-{nth}"));
            let plan = FaultPlan::unarmed();
            let db = database_history(&dir, &plan);
            plan.arm(nth, fault);
            db.checkpoint()
                .expect_err("the armed fault must surface as an error");
            drop(db);
            let (rows, images) = reopened(&dir);
            let context = format!("{fault:?} at checkpoint op {nth}");
            if matches_reference(&images, &after_c2.1, &after_c3.1, &context) {
                assert_eq!(rows, after_c3.0, "{context}");
                committed += 1;
            } else {
                assert_eq!(rows, after_c2.0, "{context}");
                rolled_back += 1;
            }
        }
    }
    assert!(committed > 0 && rolled_back > 0);
    std::fs::remove_dir_all(&base).unwrap();
}

/// The durable history of the scratch leg: logged tables `t`, `early`
/// and `late`, then `early` dropped, so the last durability point has
/// its pages free.
fn durable_prefix(dir: &Path, plan: &FaultPlan) -> Database {
    let pool = Rc::into_inner(open_faulty(dir, plan)).unwrap();
    let mut db = Database::open_pool(pool, obs::Recorder::new()).unwrap();
    for name in ["t", "early", "late"] {
        let table = db.create_table(name, schema()).unwrap();
        for i in 0..400 {
            table.insert(row(i)).unwrap();
        }
        db.checkpoint().unwrap();
    }
    db.drop_table("early").unwrap();
    db.checkpoint().unwrap();
    db
}

/// The scratch leg up to its in-flight checkpoint: after the durable
/// prefix, `late` dropped (the durable state still reaches its pages), a
/// scratch table filled past the pool so its dirty pages spill — onto
/// `early`'s pages, never onto `late`'s — and `t` grown. Returns the
/// scratch table's page count.
fn scratch_history(dir: &Path, plan: &FaultPlan) -> (Database, usize) {
    let mut db = durable_prefix(dir, plan);
    let free = db.pool().free_pages();
    db.drop_table("late").unwrap();
    let held = db.pool().free_pages() - free;
    let s = db.create_scratch_table("s", schema()).unwrap();
    for i in 0..6_000 {
        s.insert(row(i)).unwrap();
    }
    let pages = s.num_heap_pages();
    assert!(free > 0 && held > 0 && pages > CAP, "{free} {held} {pages}");
    assert!(db.io_stats().write_backs > 0, "the scratch table spilled");
    assert_eq!(
        db.io_stats().wal_drains,
        0,
        "the log still holds early's pages"
    );
    assert_eq!(
        db.pool().free_pages(),
        held,
        "early's pages taken, late's not"
    );
    inflight_body(db.table_mut("t").unwrap()).unwrap();
    (db, pages)
}

/// What a reopen of the scratch leg's store finds: its tables, `t`'s
/// rows, the free pages, and the image of every page that is not free.
#[derive(Debug, PartialEq)]
struct Reopened {
    tables: Vec<String>,
    rows: Vec<(u64, Vec<Value>)>,
    free: usize,
    reached: Vec<(u32, [u8; PAGE_SIZE])>,
}

fn reopen_scratch(dir: &Path) -> Reopened {
    let (db, _report) = Database::open_durable(dir, CAP).unwrap();
    let images = page_images(db.pool());
    // Unlogged allocations pop the free list and may spill: they name it.
    let free: Vec<u32> = (0..db.pool().free_pages())
        .map(|_| db.pool().allocate_pinned(true).unwrap().0)
        .collect();
    let reached = (0..images.len() as u32).filter(|id| !free.contains(id));
    Reopened {
        tables: db.table_names().into_iter().map(str::to_owned).collect(),
        rows: db.table("t").unwrap().rows().unwrap(),
        free: free.len(),
        reached: reached.map(|id| (id, images[id as usize])).collect(),
    }
}

/// A fault at every I/O of a checkpoint taken while a scratch table is
/// live with pages spilled to disk — onto pages freed at an earlier
/// durability point whose images the log still holds, since no
/// write-back has run — and a crash before that checkpoint. The reopened
/// store is the durable prefix, as a store that never had a scratch table
/// reopens it, or the new state — every page it reaches byte for byte,
/// so no spill hit a page a durable state reaches — and the reopen frees
/// every page of the scratch table. (Which scratch pages reached the disk
/// differs with the crash point; nothing reaches them.)
#[test]
fn crash_mid_checkpoint_with_a_spilled_scratch_table() {
    let base = unique_base("scratch");
    let _ = std::fs::remove_dir_all(&base);
    let (c2_dir, c3_dir) = (base.join("c2"), base.join("c3"));
    drop(durable_prefix(&c2_dir, &FaultPlan::unarmed()));
    let after_c2 = reopen_scratch(&c2_dir);
    let plan = FaultPlan::unarmed();
    let (db, pages) = scratch_history(&c3_dir, &plan);
    let at_flush = plan.ops();
    db.checkpoint().unwrap();
    let flush_ops = plan.ops() - at_flush;
    drop(db);
    let after_c3 = reopen_scratch(&c3_dir);
    assert_eq!(after_c2.tables, ["late", "t"]);
    assert_eq!(after_c3.tables, ["t"]);
    assert!(after_c3.free >= pages, "scratch pages freed");
    let spilled = base.join("spilled");
    drop(scratch_history(&spilled, &FaultPlan::unarmed()));
    let got = reopen_scratch(&spilled);
    assert_eq!(got.reached, after_c2.reached, "crash after the spill");
    assert_eq!((&got.tables, &got.rows), (&after_c2.tables, &after_c2.rows));
    let (mut committed, mut rolled_back) = (0u32, 0u32);
    for fault in [FaultKind::CrashStop, FaultKind::ShortWrite] {
        for nth in 1..=flush_ops {
            let dir = base.join(format!("{fault:?}-{nth}"));
            let plan = FaultPlan::unarmed();
            let (db, _) = scratch_history(&dir, &plan);
            plan.arm(nth, fault);
            db.checkpoint()
                .expect_err("the armed fault must surface as an error");
            drop(db);
            let got = reopen_scratch(&dir);
            let context = format!("{fault:?} at checkpoint op {nth}");
            let want = if got.reached == after_c3.reached {
                committed += 1;
                &after_c3
            } else {
                rolled_back += 1;
                &after_c2
            };
            assert!(got.reached == want.reached, "{context}: neither state");
            assert_eq!(
                (&got.tables, &got.rows),
                (&want.tables, &want.rows),
                "{context}"
            );
            assert!(got.free >= pages, "{context}: scratch pages freed");
        }
    }
    assert!(committed > 0 && rolled_back > 0);
    std::fs::remove_dir_all(&base).unwrap();
}

/// Frames for the durability-point legs: room for one round's dirty
/// pages, not for the pages the rounds accumulate, so committed pages
/// that are not yet in the page file get evicted.
const ROUND_CAP: usize = 32;

/// Rows per round: about a dozen pages.
const ROUND_ROWS: i64 = 500;

/// A row whose text fills its tuple.
fn fat_row(i: i64) -> Vec<Value> {
    Vec::from([
        Value::Int64(i),
        Value::Text(format!("{i:0>180}")),
        Value::IntArray(vec![i, i + 1]),
    ])
}

/// Round `r` of a history of durability points: a dozen pages of
/// inserts and one update of an earlier row. The durability point is the
/// caller's.
fn round(table: &mut Table, r: i64) -> relstore::Result<()> {
    for i in 0..ROUND_ROWS {
        table.insert(fat_row(r * ROUND_ROWS + i))?;
    }
    table.update(r as u64, fat_row(-r))?;
    Ok(())
}

/// A fresh store in `dir` over a `ROUND_CAP` pool, and its table `t`.
fn open_rounds(dir: &Path, plan: &FaultPlan) -> (Rc<BufferPool>, Table) {
    std::fs::create_dir_all(dir).unwrap();
    let pager = FaultPager::new(
        Box::new(FilePager::open_recoverable(dir.join("pages.db")).unwrap()),
        plan.clone(),
    );
    let store = FaultWal::new(
        Box::new(FileWalStore::open(dir.join("wal.log")).unwrap()),
        plan.clone(),
    );
    let pool = Rc::new(BufferPool::with_wal(
        Box::new(pager),
        Wal::new(Box::new(store)),
        ROUND_CAP,
    ));
    let table = Table::with_pool("t", schema(), Rc::clone(&pool));
    (pool, table)
}

/// The page images a reopen of `dir` recovers.
fn recovered(dir: &Path) -> Images {
    page_images(&BufferPool::open_durable(dir, ROUND_CAP).unwrap().0)
}

/// Run rounds `0..n` in `dir` without faults, each ending in its
/// durability point — or stop after the first whose durability point
/// passes the log bound and so runs the write-back — then crash. Returns
/// the rounds run, the I/Os of the last round's body and of its
/// durability point, and its counters.
fn clean_rounds(dir: &Path, n: i64) -> (i64, u64, u64, IoStats) {
    let plan = FaultPlan::unarmed();
    let (pool, mut table) = open_rounds(dir, &plan);
    let mut last = (0, 0, 0, IoStats::new());
    for r in 0..n {
        let (start, io) = (plan.ops(), pool.stats());
        round(&mut table, r).unwrap();
        let body = plan.ops();
        pool.checkpoint().unwrap();
        let io = pool.stats().since(&io);
        last = (r + 1, body - start, plan.ops() - body, io);
        if io.wal_drains > 0 {
            break;
        }
    }
    last
}

/// Several durability points, then a crash at every I/O of the write-back
/// the log bound triggers: the page writes, the page-file sync, the next
/// generation's header write and its sync. The batch that triggered it was durable
/// before any of them, so every crash recovers to it, byte for byte.
#[test]
fn crash_mid_write_back_recovers_the_last_durability_point() {
    let base = unique_base("write-back");
    let _ = std::fs::remove_dir_all(&base);
    let probe = base.join("probe");
    let (rounds, _, ops, io) = clean_rounds(&probe, i64::MAX);
    assert!(rounds > 3 && io.wal_drains == 1, "{rounds} rounds");
    let after = recovered(&probe);
    let prefix = base.join("prefix");
    assert_eq!(clean_rounds(&prefix, rounds - 1).3.wal_drains, 0);
    let before = recovered(&prefix);
    // The batch's one log write and the log fsync come first.
    let dp_ops = 2;
    assert!(ops > dp_ops + 3, "page writes, sync, header write, sync");
    for fault in [FaultKind::CrashStop, FaultKind::ShortWrite] {
        for nth in dp_ops + 1..=ops {
            let dir = base.join(format!("{fault:?}-{nth}"));
            let plan = FaultPlan::unarmed();
            {
                let (pool, mut table) = open_rounds(&dir, &plan);
                for r in 0..rounds {
                    round(&mut table, r).unwrap();
                    if r == rounds - 1 {
                        plan.arm(nth, fault);
                    }
                    let done = pool.checkpoint();
                    assert_eq!(done.is_err(), r == rounds - 1, "round {r}");
                }
            }
            let context = format!("{fault:?} at write-back op {nth}");
            assert!(
                matches_reference(&recovered(&dir), &before, &after, &context),
                "{context}: the durable batch was lost"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
    std::fs::remove_dir_all(&base).unwrap();
}

/// Committed pages that are only in the log get evicted: the eviction
/// writes them to the page file, with no sync. A crash at every I/O of a
/// round that evicts such pages — its allocations and eviction writes,
/// then its durability point — recovers to the round before or the round
/// itself, byte for byte.
#[test]
fn crash_after_evicting_logged_pages_recovers_a_committed_state() {
    let base = unique_base("evict");
    let _ = std::fs::remove_dir_all(&base);
    let rounds = 4;
    let prefix = base.join("prefix");
    clean_rounds(&prefix, rounds - 1);
    let before = recovered(&prefix);
    let all = base.join("all");
    let (_, body_ops, dp_ops, io) = clean_rounds(&all, rounds);
    assert!(io.write_backs > 0, "the round evicted logged pages");
    assert_eq!(io.wal_drains, 0);
    let after = recovered(&all);
    let (mut kept, mut lost) = (0, 0);
    for fault in [FaultKind::CrashStop, FaultKind::ShortWrite] {
        for nth in 1..=body_ops + dp_ops {
            let dir = base.join(format!("{fault:?}-{nth}"));
            let plan = FaultPlan::unarmed();
            {
                let (pool, mut table) = open_rounds(&dir, &plan);
                for r in 0..rounds - 1 {
                    round(&mut table, r).unwrap();
                    pool.checkpoint().unwrap();
                }
                plan.arm(nth, fault);
                round(&mut table, rounds - 1)
                    .and_then(|()| Ok(pool.checkpoint()?))
                    .expect_err("the armed fault must surface as an error");
            }
            let context = format!("{fault:?} at op {nth} of the evicting round");
            if matches_reference(&recovered(&dir), &before, &after, &context) {
                kept += 1;
            } else {
                lost += 1;
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
    assert!(kept > 0 && lost > 0, "{kept} kept, {lost} lost");
    std::fs::remove_dir_all(&base).unwrap();
}

/// Rebuild determinism: the same logical history in a fresh store encodes
/// to identical page images, which crash byte-identity depends on.
#[test]
fn same_history_rebuilds_identical_page_images() {
    let base = unique_base("rebuild");
    let _ = std::fs::remove_dir_all(&base);
    let (a, b): (Vec<_>, Vec<_>) = ["a", "b"]
        .map(|leg| {
            let dir = base.join(leg);
            let plan = FaultPlan::unarmed();
            let pool = open_faulty(&dir, &plan);
            let mut table = Table::with_pool("t", schema(), Rc::clone(&pool));
            committed_prefix(&mut table);
            inflight_body(&mut table).unwrap();
            pool.flush_all().unwrap();
            page_images(&pool)
        })
        .into();
    assert_eq!(a.len(), b.len(), "page counts differ");
    for (id, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x, y, "page {id} differs between identical histories");
    }
    std::fs::remove_dir_all(&base).unwrap();
}

/// A fault at every I/O of the first round after a write-back — its
/// allocations, then its durability point, the first batch of the log's
/// second generation — with the first generation's longer history still
/// in the file behind it. Recovery lands on the round before or the
/// round itself, byte for byte: none of the stale batches is replayed.
#[test]
fn crash_in_the_first_round_after_a_write_back_recovers_a_committed_state() {
    let base = unique_base("recycled");
    let _ = std::fs::remove_dir_all(&base);
    let prefix = base.join("prefix");
    let (rounds, ..) = clean_rounds(&prefix, i64::MAX);
    let before = recovered(&prefix);
    // Generation 1's rounds, each acknowledged; the last one's
    // durability point runs the write-back.
    let history = |dir: &Path, plan: &FaultPlan| {
        let (pool, mut table) = open_rounds(dir, plan);
        for r in 0..rounds {
            round(&mut table, r).unwrap();
            pool.checkpoint().unwrap();
        }
        assert_eq!(pool.stats().wal_drains, 1);
        (pool, table)
    };
    let all = base.join("all");
    let plan = FaultPlan::unarmed();
    let ops = {
        let (pool, mut table) = history(&all, &plan);
        let start = plan.ops();
        round(&mut table, rounds).unwrap();
        pool.checkpoint().unwrap();
        let io = pool.stats();
        assert_eq!((io.wal_drains, io.wal_file_grows), (1, 1));
        plan.ops() - start
    };
    let after = recovered(&all);
    let (mut kept, mut lost) = (0, 0);
    for fault in [FaultKind::CrashStop, FaultKind::ShortWrite] {
        for nth in 1..=ops {
            let dir = base.join(format!("{fault:?}-{nth}"));
            let plan = FaultPlan::unarmed();
            {
                let (pool, mut table) = history(&dir, &plan);
                plan.arm(nth, fault);
                round(&mut table, rounds)
                    .and_then(|()| Ok(pool.checkpoint()?))
                    .expect_err("the armed fault must surface as an error");
            }
            let context = format!("{fault:?} at op {nth} of generation 2's first round");
            if matches_reference(&recovered(&dir), &before, &after, &context) {
                kept += 1;
            } else {
                lost += 1;
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
    assert!(kept > 0 && lost > 0, "{kept} kept, {lost} lost");
    std::fs::remove_dir_all(&base).unwrap();
}

/// Tables `t` (20 rows) and `u` (300 rows) committed, then rows into
/// both and a durability point that fails: a transient error at its
/// sync, every byte of the batch written; or a torn write that kills the
/// store. The next batch is shorter — `u` dropped, or the store reopened
/// and only `t` grown — and is acknowledged; then a crash. The reopen
/// finds exactly the acknowledged state, none of the failed batch's
/// leftovers behind the shorter one.
#[test]
fn a_failed_batch_then_a_shorter_one_reopens_the_acknowledged_state() {
    let base = unique_base("shorter");
    let _ = std::fs::remove_dir_all(&base);
    let start = |dir: &Path, plan: &FaultPlan| {
        let pool = Rc::into_inner(open_faulty(dir, plan)).unwrap();
        let mut db = Database::open_pool(pool, obs::Recorder::new()).unwrap();
        for (name, rows) in [("t", 0..20), ("u", 1_000..1_300)] {
            let table = db.create_table(name, schema()).unwrap();
            for i in rows {
                table.insert(row(i)).unwrap();
            }
        }
        db.checkpoint().unwrap();
        db
    };
    for fault in [FaultKind::Error, FaultKind::ShortWrite] {
        let failed = fault == FaultKind::Error;
        // The acknowledged history, with no fault.
        let reference = base.join(format!("{fault:?}-ref"));
        let mut db = start(&reference, &FaultPlan::unarmed());
        for i in 20..25 {
            db.table_mut("t").unwrap().insert(row(i)).unwrap();
        }
        if failed {
            db.drop_table("u").unwrap();
        }
        db.checkpoint().unwrap();
        drop(db);
        let want = reopened_tables(&reference);
        // The same, with a failed batch first.
        let dir = base.join(format!("{fault:?}"));
        let plan = FaultPlan::unarmed();
        let mut db = start(&dir, &plan);
        for i in 20..25 {
            db.table_mut("t").unwrap().insert(row(i)).unwrap();
        }
        for i in 1_300..1_600 {
            db.table_mut("u").unwrap().insert(row(i)).unwrap();
        }
        let before = plan.ops();
        plan.arm(if failed { 2 } else { 1 }, fault);
        db.checkpoint().expect_err("the batch fails");
        // One write and one sync; a transient error's batch is then taken
        // back from the log, one write and one sync more.
        let ops = if failed { 4 } else { 1 };
        assert_eq!(plan.ops() - before, ops, "one write, one sync");
        let db = if failed {
            db.drop_table("u").unwrap();
            db
        } else {
            drop(db);
            let mut db = Database::open_durable(&dir, CAP).unwrap().0;
            for i in 20..25 {
                db.table_mut("t").unwrap().insert(row(i)).unwrap();
            }
            db
        };
        db.checkpoint().unwrap();
        drop(db);
        assert_eq!(reopened_tables(&dir), want, "{fault:?}");
    }
    std::fs::remove_dir_all(&base).unwrap();
}

/// A table's rows, by rid.
type Rows = Vec<(u64, Vec<Value>)>;

/// Every table a reopen of `dir` finds, with its rows.
fn reopened_tables(dir: &Path) -> Vec<(String, Rows)> {
    let (db, _report) = Database::open_durable(dir, CAP).unwrap();
    db.table_names()
        .into_iter()
        .map(|name| (name.to_owned(), db.table(name).unwrap().rows().unwrap()))
        .collect()
}
