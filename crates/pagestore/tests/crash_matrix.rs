//! The crash-point matrix: for **every** I/O operation in a commit
//! followed by a write-back (`flush_all`: WAL write, WAL sync, page
//! writes, data sync, the next generation's header), inject a fault at exactly that
//! operation, "crash" the process, reopen the store from its files, run
//! recovery, and verify:
//!
//! * every previously committed checkpoint reads back byte-identical, and
//! * the in-flight commit is atomic — all of its effects or none.
//!
//! Three fault kinds cover the failure space: `CrashStop` (die before the
//! operation, unsynced log tail lost with the page cache), `ShortWrite`
//! (a torn write reaches disk, then death), and `Error` (a transient
//! failure the caller retries without crashing).

use pagestore::{
    BufferPool, Error, FaultKind, FaultPager, FaultPlan, FaultWal, FilePager, FileWalStore, Wal,
    WalStore,
};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::rc::Rc;

const CAP: usize = 8;

fn unique_base(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pagestore-crash-matrix-{tag}-{}",
        std::process::id()
    ))
}

/// A fresh store in `dir` whose pager *and* WAL share one fault plan, so
/// arming the plan walks a single crash point through the whole commit
/// protocol in I/O order.
fn open_faulty(dir: &Path, plan: &FaultPlan) -> BufferPool {
    std::fs::create_dir_all(dir).unwrap();
    let pager = FaultPager::new(
        Box::new(FilePager::open_recoverable(dir.join("pages.db")).unwrap()),
        plan.clone(),
    );
    let store = FaultWal::new(
        Box::new(FileWalStore::open(dir.join("wal.log")).unwrap()),
        plan.clone(),
    );
    BufferPool::with_wal(Box::new(pager), Wal::new(Box::new(store)), CAP)
}

/// Commits 1 and 2 — the durable history that must survive any fault.
fn committed_prefix(pool: &BufferPool) {
    // Commit 1: pages 0, 1, 2.
    for i in 0..3u32 {
        let (id, mut page) = pool.allocate_pinned(false).unwrap();
        assert_eq!(id, i);
        page.insert(format!("c1-p{id}").as_bytes()).unwrap();
    }
    pool.flush_all().unwrap();
    // Commit 2: update page 1, add page 3.
    pool.fetch_mut(1).unwrap().insert(b"c2-p1").unwrap();
    let (id, mut page) = pool.allocate_pinned(false).unwrap();
    assert_eq!(id, 3);
    page.insert(b"c2-p3").unwrap();
    drop(page);
    pool.flush_all().unwrap();
}

/// The in-flight commit 3: dirties two existing pages and allocates a new
/// one. Split from its checkpoint so tests can fault them separately.
fn inflight_body(pool: &BufferPool) -> pagestore::Result<()> {
    pool.fetch_mut(0)?.insert(b"c3-p0").unwrap();
    pool.fetch_mut(2)?.insert(b"c3-p2").unwrap();
    // Usually page 4 — but after a crashed earlier attempt whose allocate
    // reached the file, the id can be higher. Verification scans for it.
    let (_, mut page) = pool.allocate_pinned(false)?;
    page.insert(b"c3-p4").unwrap();
    Ok(())
}

/// Reopen `dir` without faults, recover, and check consistency. Returns
/// whether commit 3 is present; panics if the store is inconsistent —
/// a damaged prefix or a half-applied commit 3.
fn verify_after_recovery(dir: &Path, context: &str) -> bool {
    let (pool, _report) = BufferPool::open_durable(dir, CAP).unwrap();
    // Commits 1 and 2, byte-identical.
    let check = |id: u32, slot: u16, want: &[u8]| {
        let page = pool.fetch(id).unwrap();
        let got = page.get(slot);
        assert_eq!(
            got,
            Some(want),
            "{context}: page {id} slot {slot} must hold {:?}",
            String::from_utf8_lossy(want)
        );
    };
    check(0, 0, b"c1-p0");
    check(1, 0, b"c1-p1");
    check(1, 1, b"c2-p1");
    check(2, 0, b"c1-p2");
    check(3, 0, b"c2-p3");
    assert_eq!(
        pool.fetch(1).unwrap().live_count(),
        2,
        "{context}: page 1 has exactly its two committed tuples"
    );
    // Commit 3: all or nothing. Its fresh page is usually id 4, but an
    // earlier crashed attempt may have grown the file first — scan the
    // tail; every tail page is either commit 3's or empty (a dangling
    // allocation is invisible, never half-written).
    let has_p0 = pool.fetch(0).unwrap().get(1) == Some(b"c3-p0".as_slice());
    let has_p2 = pool.fetch(2).unwrap().get(1) == Some(b"c3-p2".as_slice());
    let mut has_p4 = false;
    for id in 4..pool.num_pages() {
        let page = pool.fetch(id).unwrap();
        if page.get(0) == Some(b"c3-p4".as_slice()) {
            assert!(!has_p4, "{context}: commit 3's page must appear once");
            has_p4 = true;
        } else {
            assert_eq!(
                page.live_count(),
                0,
                "{context}: tail page {id} must be empty if it is not commit 3's"
            );
        }
    }
    assert!(
        has_p0 == has_p2 && has_p2 == has_p4,
        "{context}: commit 3 must be atomic, got p0={has_p0} p2={has_p2} p4={has_p4}"
    );
    if !has_p0 {
        assert_eq!(pool.fetch(0).unwrap().live_count(), 1, "{context}");
        assert_eq!(pool.fetch(2).unwrap().live_count(), 1, "{context}");
    }
    has_p0
}

/// Run the scripted workload against `dir`, arming a fault `nth` I/O
/// operations into commit 3 (body + checkpoint). Returns the error the
/// fault surfaced as.
fn run_to_fault(dir: &Path, nth: u64, kind: FaultKind) -> Error {
    let plan = FaultPlan::unarmed();
    let pool = open_faulty(dir, &plan);
    committed_prefix(&pool);
    plan.arm(nth, kind);
    let result = inflight_body(&pool).and_then(|()| pool.flush_all());
    let err = result.expect_err("the armed fault must surface as an error");
    assert!(plan.fired(), "fault point {nth} was never reached");
    err
}

/// Count the I/O operations in commit 3 (body, checkpoint) with an
/// unarmed plan, and sanity-check the clean run. `caller` keeps the probe
/// directories of tests running in parallel apart.
fn commit3_op_counts(caller: &str) -> (u64, u64) {
    let base = unique_base(&format!("probe-{caller}"));
    let _ = std::fs::remove_dir_all(&base);
    let plan = FaultPlan::unarmed();
    let pool = open_faulty(&base, &plan);
    committed_prefix(&pool);
    let at_body_start = plan.ops();
    inflight_body(&pool).unwrap();
    let at_flush_start = plan.ops();
    pool.flush_all().unwrap();
    let at_end = plan.ops();
    drop(pool);
    assert!(
        verify_after_recovery(&base, "probe"),
        "clean run must commit"
    );
    std::fs::remove_dir_all(&base).unwrap();
    (at_flush_start - at_body_start, at_end - at_flush_start)
}

/// Every crash point in commit 3, for both crash kinds: recovery must
/// restore a consistent store with commit 3 atomically present or absent.
#[test]
fn crash_matrix_every_fault_point_recovers_consistently() {
    let (body_ops, flush_ops) = commit3_op_counts("matrix");
    assert!(body_ops >= 1, "commit 3 allocates a page");
    assert!(
        flush_ops >= 8,
        "checkpoint = WAL write + WAL sync + 3 page writes + data sync + header write + sync"
    );
    let base = unique_base("matrix");
    let _ = std::fs::remove_dir_all(&base);
    let mut committed = 0u32;
    let mut rolled_back = 0u32;
    for kind in [FaultKind::CrashStop, FaultKind::ShortWrite] {
        for nth in 1..=(body_ops + flush_ops) {
            let dir = base.join(format!("{kind:?}-{nth}"));
            run_to_fault(&dir, nth, kind);
            let context = format!("{kind:?} at op {nth}");
            if verify_after_recovery(&dir, &context) {
                committed += 1;
            } else {
                rolled_back += 1;
            }
        }
    }
    // The matrix must exercise both outcomes: early faults roll the
    // commit back, faults after the WAL durability point replay it.
    assert!(rolled_back > 0, "some fault points must lose the commit");
    assert!(committed > 0, "some fault points must preserve the commit");
    std::fs::remove_dir_all(&base).unwrap();
}

/// Transient errors at every checkpoint I/O: the store stays alive, a
/// retried checkpoint succeeds, and commit 3 becomes fully durable.
#[test]
fn transient_error_at_every_checkpoint_op_is_retryable() {
    let (body_ops, flush_ops) = commit3_op_counts("transient");
    let base = unique_base("transient");
    let _ = std::fs::remove_dir_all(&base);
    for nth in 1..=flush_ops {
        let dir = base.join(format!("err-{nth}"));
        let plan = FaultPlan::unarmed();
        let pool = open_faulty(&dir, &plan);
        committed_prefix(&pool);
        inflight_body(&pool).unwrap();
        plan.arm(nth, FaultKind::Error);
        pool.flush_all()
            .expect_err("the armed fault must surface as an error");
        assert!(!plan.crashed(), "Error kind must not kill the store");
        // Retry: the dirty pages are still in the pool, the WAL may hold
        // a half-appended batch — the retried checkpoint must cope.
        pool.flush_all().expect("retried checkpoint succeeds");
        drop(pool);
        let context = format!("Error at checkpoint op {nth} then retry");
        assert!(
            verify_after_recovery(&dir, &context),
            "{context}: commit 3 must be durable after a successful retry"
        );
    }
    let _ = body_ops;
    std::fs::remove_dir_all(&base).unwrap();
}

/// Double crash: a fault during commit 3, then a second fault during the
/// *recovered* store's next commit, must still leave commits 1–2 intact.
#[test]
fn crash_during_recovery_reopen_then_crash_again() {
    let (body_ops, flush_ops) = commit3_op_counts("double");
    let total = body_ops + flush_ops;
    let base = unique_base("double");
    let _ = std::fs::remove_dir_all(&base);
    // First crash mid-WAL-append, second crash at every later point of a
    // fresh attempt on the recovered store.
    let first = body_ops + 2; // inside the WAL append run
    for second in 1..=total {
        let dir = base.join(format!("double-{second}"));
        run_to_fault(&dir, first, FaultKind::CrashStop);
        // Reopen with faults again, recover through the faulty pager
        // (recovery's own writes are part of the I/O stream but the plan
        // is not yet armed), then re-attempt commit 3.
        let plan = FaultPlan::unarmed();
        let pool = {
            std::fs::create_dir_all(&dir).unwrap();
            let pager = FaultPager::new(
                Box::new(FilePager::open_recoverable(dir.join("pages.db")).unwrap()),
                plan.clone(),
            );
            let store = FaultWal::new(
                Box::new(FileWalStore::open(dir.join("wal.log")).unwrap()),
                plan.clone(),
            );
            let pool = BufferPool::with_wal(Box::new(pager), Wal::new(Box::new(store)), CAP);
            pool.recover().unwrap();
            pool
        };
        plan.arm(second, FaultKind::CrashStop);
        let _ = inflight_body(&pool).and_then(|()| pool.flush_all());
        drop(pool);
        let context = format!("double crash, second at op {second}");
        verify_after_recovery(&dir, &context);
    }
    std::fs::remove_dir_all(&base).unwrap();
}

/// A log store whose armed write puts down half its bytes, fails, and
/// leaves the process alive — an ENOSPC-like fault. (`FaultKind::
/// ShortWrite` tears the same way but kills the store.)
struct TearOnce {
    inner: FileWalStore,
    armed: Rc<Cell<bool>>,
}

impl WalStore for TearOnce {
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn read_at(&mut self, offset: u64, len: usize) -> pagestore::Result<Vec<u8>> {
        self.inner.read_at(offset, len)
    }
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> pagestore::Result<()> {
        if !self.armed.replace(false) {
            return self.inner.write_at(offset, bytes);
        }
        self.inner.write_at(offset, &bytes[..bytes.len() / 2])?;
        Err(Wal::io_error("no space left on device"))
    }
    fn sync(&mut self) -> pagestore::Result<()> {
        self.inner.sync()
    }
    fn truncate(&mut self, len: u64) -> pagestore::Result<()> {
        self.inner.truncate(len)
    }
}

/// A durability point whose write fails part-way, a retried one that
/// succeeds, more batches, then a crash before any write-back: recovery
/// finds every acknowledged batch. The retried batch goes where the torn
/// one went, over it: after it, recovery would stop at the torn record.
#[test]
fn a_failed_write_never_strands_a_later_batch() {
    let dir = unique_base("torn-write");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let armed = Rc::new(Cell::new(false));
    let store = TearOnce {
        inner: FileWalStore::open(dir.join("wal.log")).unwrap(),
        armed: Rc::clone(&armed),
    };
    let pager = FilePager::open_recoverable(dir.join("pages.db")).unwrap();
    let pool = BufferPool::with_wal(Box::new(pager), Wal::new(Box::new(store)), CAP);
    let mut acknowledged = Vec::new();
    for batch in 0..5u32 {
        let text = format!("batch {batch}");
        if batch == 0 {
            drop(pool.allocate_pinned(false).unwrap());
        }
        pool.fetch_mut(0).unwrap().insert(text.as_bytes()).unwrap();
        if batch == 1 {
            armed.set(true);
            pool.checkpoint()
                .expect_err("the torn write surfaces as an error");
        }
        pool.checkpoint().unwrap();
        acknowledged.push(text);
    }
    assert_eq!(pool.stats().wal_drains, 0, "no write-back ran");
    drop(pool);
    let (pool, report) = BufferPool::open_durable(&dir, CAP).unwrap();
    assert_eq!(
        (report.batches_applied, report.torn_bytes_truncated),
        (5, 0)
    );
    let page = pool.fetch(0).unwrap();
    let got: Vec<&[u8]> = (0..page.live_count() as u16)
        .map(|slot| page.get(slot).unwrap())
        .collect();
    let want: Vec<&[u8]> = acknowledged.iter().map(|t| t.as_bytes()).collect();
    assert_eq!(got, want);
    drop(page);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Raw images of every page of the store in `dir`, after recovery.
fn recovered_images(dir: &Path) -> Vec<[u8; pagestore::PAGE_SIZE]> {
    let (pool, _report) = BufferPool::open_durable(dir, CAP).unwrap();
    (0..pool.num_pages())
        .map(|id| *pool.fetch(id).unwrap().bytes())
        .collect()
}

/// The free list under the matrix: commit 3 frees committed page 3 and
/// reuses it (no new page is allocated, so the file cannot grow). A crash
/// at any I/O of its checkpoint leaves page 3 byte-identical to what
/// commit 2 wrote, or byte-identical to its new owner's image — together
/// with the rest of commit 3, never apart from it.
#[test]
fn freed_then_reused_page_recovers_byte_identically() {
    let reuse = |pool: &BufferPool| {
        pool.free_page(3);
        let (id, mut page) = pool.allocate_pinned(false).unwrap();
        assert_eq!(id, 3, "the freed page is handed out again");
        page.insert(b"c3-new-owner-of-p3").unwrap();
        drop(page);
        pool.fetch_mut(0).unwrap().insert(b"c3-p0").unwrap();
    };
    let base = unique_base("reuse");
    let _ = std::fs::remove_dir_all(&base);
    let (after_c2, after_c3, flush_ops) = {
        let dir = base.join("reference");
        let plan = FaultPlan::unarmed();
        let pool = open_faulty(&dir, &plan);
        committed_prefix(&pool);
        drop(pool);
        let after_c2 = recovered_images(&dir);
        let dir = base.join("reference-c3");
        let pool = open_faulty(&dir, &plan);
        committed_prefix(&pool);
        reuse(&pool);
        let at_flush = plan.ops();
        pool.flush_all().unwrap();
        let flush_ops = plan.ops() - at_flush;
        drop(pool);
        (after_c2, recovered_images(&dir), flush_ops)
    };
    assert_eq!(after_c2.len(), after_c3.len(), "reuse allocates nothing");
    assert_ne!(after_c2[3], after_c3[3]);
    let (mut kept, mut lost) = (0, 0);
    for kind in [FaultKind::CrashStop, FaultKind::ShortWrite] {
        for nth in 1..=flush_ops {
            let dir = base.join(format!("{kind:?}-{nth}"));
            let plan = FaultPlan::unarmed();
            let pool = open_faulty(&dir, &plan);
            committed_prefix(&pool);
            reuse(&pool);
            plan.arm(nth, kind);
            pool.flush_all()
                .expect_err("the armed fault must surface as an error");
            drop(pool);
            let got = recovered_images(&dir);
            if got == after_c3 {
                kept += 1;
            } else {
                assert!(got == after_c2, "{kind:?} at op {nth}: neither state");
                lost += 1;
            }
        }
    }
    assert!(kept > 0 && lost > 0, "{kept} kept, {lost} lost");
    std::fs::remove_dir_all(&base).unwrap();
}

/// Page 0's tuples after recovery of `dir`, as text.
fn page0_tuples(dir: &Path) -> Vec<String> {
    let (pool, _report) = BufferPool::open_durable(dir, CAP).unwrap();
    let page = pool.fetch(0).unwrap();
    (0..page.live_count() as u16)
        .map(|slot| String::from_utf8(page.get(slot).unwrap().to_vec()).unwrap())
        .collect()
}

/// One durability point: tuple `r{round}` onto page 0, then the
/// checkpoint. Each batch is one page image and a commit record.
fn one_page_round(pool: &BufferPool, round: u32) -> pagestore::Result<()> {
    pool.fetch_mut(0)?
        .insert(format!("r{round}").as_bytes())
        .unwrap();
    pool.checkpoint()
}

/// A store whose log has just started generation 2 behind `rounds`
/// one-page rounds: generation 1 is over a megabyte of batches that all
/// have the shape, and the LSNs, of generation 2's first ones.
fn past_a_write_back(dir: &Path, plan: &FaultPlan) -> (BufferPool, u32) {
    let pool = open_faulty(dir, plan);
    drop(pool.allocate_pinned(false).unwrap());
    let mut rounds = 0;
    while pool.stats().wal_drains == 0 {
        one_page_round(&pool, rounds).unwrap();
        rounds += 1;
    }
    assert!(rounds > 100, "{rounds} rounds filled the log");
    (pool, rounds)
}

/// A fault at every I/O of the first two batches after a write-back,
/// with generation 1's longer history behind them in the file. Recovery
/// must replay exactly the acknowledged rounds, plus — all or nothing —
/// the one in flight. Replaying generation 1's stale batches behind
/// generation 2's would put page 0 back to its image before them.
#[test]
fn the_first_batches_of_a_recycled_log_recover_exactly() {
    let base = unique_base("recycled");
    let _ = std::fs::remove_dir_all(&base);
    let (ops, rounds) = {
        let plan = FaultPlan::unarmed();
        let (pool, rounds) = past_a_write_back(&base.join("probe"), &plan);
        let start = plan.ops();
        one_page_round(&pool, rounds).unwrap();
        one_page_round(&pool, rounds + 1).unwrap();
        assert_eq!(pool.stats().wal_file_grows, 1, "only the first format");
        (plan.ops() - start, rounds)
    };
    assert_eq!(ops, 4, "two batches: a write and a sync each");
    let want = |n: u32| (0..n).map(|r| format!("r{r}")).collect::<Vec<_>>();
    let (mut kept, mut lost) = (0, 0);
    for kind in [FaultKind::CrashStop, FaultKind::ShortWrite] {
        for nth in 1..=ops {
            let dir = base.join(format!("{kind:?}-{nth}"));
            let plan = FaultPlan::unarmed();
            let (pool, _) = past_a_write_back(&dir, &plan);
            plan.arm(nth, kind);
            let mut acked = rounds;
            while one_page_round(&pool, acked).is_ok() {
                acked += 1;
            }
            drop(pool);
            let got = page0_tuples(&dir);
            let context = format!("{kind:?} at I/O {nth}, {acked} rounds acknowledged");
            if got == want(acked + 1) {
                kept += 1;
            } else {
                assert_eq!(got, want(acked), "{context}");
                lost += 1;
            }
        }
    }
    assert!(kept > 0 && lost > 0, "{kept} kept, {lost} lost");
    std::fs::remove_dir_all(&base).unwrap();
}

/// Pages 0, 1 and 2 committed, then a batch of all three whose
/// durability point fails: a transient error at its sync (every byte
/// written), or a torn write that kills the store. The next batch is
/// shorter — page 2 freed, or the store reopened and one page written —
/// and is acknowledged; then a crash. Recovery replays exactly the
/// acknowledged batches: none of the failed batch's leftovers behind the
/// shorter one.
#[test]
fn a_failed_batch_then_a_shorter_one_recovers_exactly() {
    let base = unique_base("shorter");
    let _ = std::fs::remove_dir_all(&base);
    for kind in [FaultKind::Error, FaultKind::ShortWrite] {
        let dir = base.join(format!("{kind:?}"));
        let plan = FaultPlan::unarmed();
        let pool = open_faulty(&dir, &plan);
        for id in 0..3u32 {
            let (got, mut page) = pool.allocate_pinned(false).unwrap();
            assert_eq!(got, id);
            page.insert(format!("p{id}-v1").as_bytes()).unwrap();
        }
        pool.checkpoint().unwrap();
        for id in 0..3u32 {
            let mut page = pool.fetch_mut(id).unwrap();
            page.insert(format!("p{id}-failed").as_bytes()).unwrap();
        }
        let failing_io = if kind == FaultKind::Error { 2 } else { 1 };
        plan.arm(failing_io, kind);
        pool.checkpoint().expect_err("the batch fails");
        let pool = if kind == FaultKind::Error {
            pool.free_page(2);
            pool
        } else {
            drop(pool);
            BufferPool::open_durable(&dir, CAP).unwrap().0
        };
        let mut page = pool.fetch_mut(0).unwrap();
        page.insert(b"p0-acked").unwrap();
        drop(page);
        pool.checkpoint().unwrap();
        drop(pool);
        let (pool, report) = BufferPool::open_durable(&dir, CAP).unwrap();
        let tuples = |id: u32| {
            let page = pool.fetch(id).unwrap();
            (0..page.live_count() as u16)
                .map(|slot| String::from_utf8(page.get(slot).unwrap().to_vec()).unwrap())
                .collect::<Vec<_>>()
        };
        let failed = kind == FaultKind::Error;
        let p0 = if failed {
            vec!["p0-v1", "p0-failed", "p0-acked"]
        } else {
            vec!["p0-v1", "p0-acked"]
        };
        assert_eq!(tuples(0), p0, "{kind:?}: {report}");
        let p1 = if failed {
            vec!["p1-v1", "p1-failed"]
        } else {
            vec!["p1-v1"]
        };
        assert_eq!(tuples(1), p1, "{kind:?}: {report}");
        assert_eq!(tuples(2), ["p2-v1"], "{kind:?}: {report}");
        assert_eq!(report.torn_bytes_truncated, 0, "{kind:?}: {report}");
    }
    std::fs::remove_dir_all(&base).unwrap();
}
