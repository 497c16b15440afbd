//! Property tests over the buffer pool's I/O accounting: random
//! fetch/mutate/flush/allocate/reset sequences must keep the [`IoStats`]
//! counters self-consistent at every step.
//!
//! Invariants checked after every operation:
//! * `physical_reads ≤ logical_reads` — a miss is always a read;
//! * `write_backs ≤ evictions` — only evicted pages are written back;
//! * every counter is monotonic between resets;
//! * `since` against any earlier snapshot never panics, including
//!   snapshots taken *before* a counter reset (the saturating-sub
//!   regression), and its deltas are themselves consistent.
//!
//! A third leg checks contents, not counters: in a pool with more frames
//! than its store has pages when it starts (so frames stay empty until
//! the store outgrows them), every live page reads back what was last
//! written to it.
//!
//! The last leg runs the same kind of traffic, held pins included, in
//! and out of bulk reads on a write-ahead-logged pool, at capacities below
//! and above the bulk-read ring: no held guard or lease ever loses its
//! page, every page reads back its last write, and the bulk reads leave
//! at most a ring of page images behind.

use pagestore::{
    BufferPool, Error, IoStats, MemPager, Page, PageLease, PageRef, Pager, RING_PAGES,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone, Copy)]
enum Op {
    Fetch(u32),
    FetchMut(u32),
    Flush,
    Allocate,
    ResetStats,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored shim's `prop_oneof!` is uniform; repeat the hot ops to
    // weight the mix toward reads and writes.
    prop_oneof![
        (0..8u32).prop_map(Op::Fetch),
        (0..8u32).prop_map(Op::Fetch),
        (0..8u32).prop_map(Op::Fetch),
        (0..8u32).prop_map(Op::FetchMut),
        (0..8u32).prop_map(Op::FetchMut),
        Just(Op::Flush),
        Just(Op::Allocate),
        Just(Op::ResetStats),
    ]
}

#[derive(Debug, Clone, Copy)]
enum ModelOp {
    Fetch(u32),
    Mutate(u32),
    Lease(u32),
    Free(u32),
    Flush,
    Allocate,
}

fn model_op_strategy() -> impl Strategy<Value = ModelOp> {
    prop_oneof![
        (0..16u32).prop_map(ModelOp::Fetch),
        (0..16u32).prop_map(ModelOp::Fetch),
        (0..16u32).prop_map(ModelOp::Mutate),
        (0..16u32).prop_map(ModelOp::Mutate),
        (0..16u32).prop_map(ModelOp::Lease),
        (0..16u32).prop_map(ModelOp::Free),
        Just(ModelOp::Flush),
        Just(ModelOp::Allocate),
    ]
}

/// The one tuple every page of the model leg holds.
fn tuple(page: &PageRef<'_>) -> Vec<u8> {
    page.get(0).expect("slot 0").to_vec()
}

fn leased(lease: &PageLease) -> Vec<u8> {
    lease.get(0).expect("slot 0").to_vec()
}

fn assert_invariants(s: &IoStats) {
    assert!(
        s.physical_reads <= s.logical_reads,
        "misses cannot exceed requests: {s:?}"
    );
    assert!(
        s.write_backs <= s.evictions,
        "write-backs only happen at eviction: {s:?}"
    );
    assert_eq!(s.hits(), s.logical_reads - s.physical_reads);
    let rate = s.hit_rate();
    assert!((0.0..=1.0).contains(&rate), "hit rate {rate} out of range");
    assert_eq!(s.pages_written(), s.write_backs + s.flushed_writes);
}

fn assert_monotonic(now: &IoStats, prev: &IoStats) {
    assert!(
        now.logical_reads >= prev.logical_reads,
        "{now:?} < {prev:?}"
    );
    assert!(now.physical_reads >= prev.physical_reads);
    assert!(now.evictions >= prev.evictions);
    assert!(now.write_backs >= prev.write_backs);
    assert!(now.flushed_writes >= prev.flushed_writes);
    assert!(now.wal_appends >= prev.wal_appends);
    assert!(now.checkpoints >= prev.checkpoints);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn io_stats_invariants_hold_under_random_workloads(
        ops in prop::collection::vec(op_strategy(), 1..200),
    ) {
        // A pool smaller than the page set, so fetches miss and evict.
        let pool = BufferPool::in_memory(3);
        for _ in 0..8 {
            drop(pool.allocate_pinned(false).unwrap());
        }
        pool.reset_stats();
        let mut prev = pool.stats();
        // A snapshot deliberately kept across resets: diffing against it
        // must saturate, never panic or wrap.
        let mut stale_snapshot = pool.stats();
        let mut did_reset = false;
        for op in ops {
            match op {
                Op::Fetch(id) => {
                    let id = id % pool.num_pages().max(1);
                    drop(pool.fetch(id).unwrap());
                }
                Op::FetchMut(id) => {
                    let id = id % pool.num_pages().max(1);
                    drop(pool.fetch_mut(id).unwrap());
                }
                Op::Flush => pool.flush_all().unwrap(),
                Op::Allocate => drop(pool.allocate_pinned(false).unwrap()),
                Op::ResetStats => {
                    stale_snapshot = pool.stats(); // pre-reset snapshot
                    pool.reset_stats();
                    prev = pool.stats();
                    did_reset = true;
                }
            }
            let now = pool.stats();
            assert_invariants(&now);
            assert_monotonic(&now, &prev);
            let delta = now.since(&prev);
            assert_invariants(&delta);
            // The regression case: a snapshot from before the last reset
            // is "ahead" of the live counters; since() must saturate.
            let stale_delta = now.since(&stale_snapshot);
            if !did_reset {
                assert_invariants(&stale_delta);
            }
            prev = now;
        }
    }

    /// The same invariants hold for a WAL-attached (no-steal) pool, where
    /// eviction behaviour differs and checkpoints write WAL records.
    #[test]
    fn io_stats_invariants_hold_with_wal(
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let wal = pagestore::Wal::new(Box::new(pagestore::MemWalStore::new()));
        let pool = BufferPool::with_wal(
            Box::new(pagestore::MemPager::new()),
            wal,
            4,
        );
        for _ in 0..3 {
            drop(pool.allocate_pinned(false).unwrap());
        }
        pool.flush_all().unwrap();
        pool.reset_stats();
        let mut prev = pool.stats();
        for op in ops {
            let result = match op {
                Op::Fetch(id) => pool.fetch(id % pool.num_pages()).map(drop),
                Op::FetchMut(id) => pool.fetch_mut(id % pool.num_pages()).map(drop),
                Op::Flush => pool.flush_all(),
                // Under no-steal the pool can legitimately run out of
                // clean frames; that error is part of the contract.
                Op::Allocate => pool.allocate_pinned(false).map(drop),
                Op::ResetStats => {
                    pool.reset_stats();
                    prev = pool.stats();
                    Ok(())
                }
            };
            if let Err(e) = result {
                assert!(
                    matches!(e, pagestore::Error::PoolExhausted { .. }),
                    "only exhaustion may fail: {e}"
                );
            }
            let now = pool.stats();
            assert_invariants(&now);
            assert_monotonic(&now, &prev);
            // WAL-specific: appends only grow at checkpoints, and a
            // checkpointed batch is image records + one commit record.
            prev = now;
        }
    }

    /// Every live page reads back its last write — through fetches,
    /// mutations, leases (whose image stays frozen while the page changes),
    /// frees, flushes and allocations, and, once allocations outgrow the 6
    /// frames, evictions. Until then some frames never hold a page: a
    /// freed page's frame is taken before an empty one.
    #[test]
    fn pages_read_back_their_last_write_while_frames_stay_empty(
        ops in prop::collection::vec(model_op_strategy(), 1..200),
    ) {
        const CAPACITY: usize = 6;
        let pool = BufferPool::in_memory(CAPACITY);
        let mut model: HashMap<u32, Vec<u8>> = HashMap::new();
        let allocate = |model: &mut HashMap<u32, Vec<u8>>| {
            let (id, mut page) = pool.allocate_pinned(false).unwrap();
            let value = format!("page {id} write 0").into_bytes();
            assert_eq!(page.live_count(), 0, "an allocated page starts empty");
            page.insert(&value).unwrap();
            model.insert(id, value);
        };
        for _ in 0..2 {
            allocate(&mut model);
        }
        let mut lease: Option<(PageLease, Vec<u8>)> = None;
        for (n, op) in ops.into_iter().enumerate() {
            let mut live: Vec<u32> = model.keys().copied().collect();
            live.sort_unstable();
            let pick = |i: u32| live[i as usize % live.len()];
            match op {
                ModelOp::Fetch(i) => {
                    let id = pick(i);
                    assert_eq!(tuple(&pool.fetch(id).unwrap()), model[&id], "page {id}");
                }
                ModelOp::Mutate(i) => {
                    let id = pick(i);
                    let value = format!("page {id} write {}", n + 1).into_bytes();
                    assert!(pool.fetch_mut(id).unwrap().update(0, &value).unwrap());
                    model.insert(id, value);
                }
                ModelOp::Lease(i) => {
                    let id = pick(i);
                    // A dirty page refuses; the held lease stays.
                    if let Ok(l) = pool.lease(id) {
                        assert_eq!(leased(&l), model[&id], "lease of page {id}");
                        let frozen = model[&id].clone();
                        lease = Some((l, frozen));
                    }
                }
                ModelOp::Free(i) if live.len() > 1 => {
                    let id = pick(i);
                    pool.free_page(id);
                    model.remove(&id);
                }
                ModelOp::Free(_) => {}
                ModelOp::Flush => pool.flush_all().unwrap(),
                // Pages 0..12: the store outgrows the pool mid-run.
                ModelOp::Allocate if pool.num_pages() < 12 || pool.free_pages() > 0 => {
                    allocate(&mut model)
                }
                ModelOp::Allocate => {}
            }
            if let Some((l, frozen)) = &lease {
                assert_eq!(&leased(l), frozen, "a lease's image is frozen");
            }
            assert!(pool.images() <= CAPACITY);
            if pool.stats().evictions == 0 {
                assert!(pool.images() <= pool.num_pages() as usize);
            }
        }
        drop(lease);
        for (id, value) in &model {
            assert_eq!(&tuple(&pool.fetch(*id).unwrap()), value, "page {id} at the end");
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum RingOp {
    Fetch(u32),
    Mutate(u32),
    /// Fetch a page and keep the guard (at most three are kept).
    Hold(u32),
    Release,
    Lease(u32),
    Free(u32),
    /// A durability point: dirty pages become unwritten.
    Checkpoint,
    /// A durability point and the write-back: every page clean.
    Flush,
    Allocate,
}

fn ring_op_strategy() -> impl Strategy<Value = RingOp> {
    let page = || 0..128u32;
    prop_oneof![
        page().prop_map(RingOp::Fetch),
        page().prop_map(RingOp::Fetch),
        page().prop_map(RingOp::Fetch),
        page().prop_map(RingOp::Fetch),
        page().prop_map(RingOp::Fetch),
        page().prop_map(RingOp::Fetch),
        page().prop_map(RingOp::Mutate),
        page().prop_map(RingOp::Mutate),
        page().prop_map(RingOp::Hold),
        Just(RingOp::Release),
        page().prop_map(RingOp::Lease),
        page().prop_map(RingOp::Free),
        Just(RingOp::Checkpoint),
        Just(RingOp::Flush),
        Just(RingOp::Allocate),
    ]
}

/// A pool and what each of its pages, guards and lease should read.
struct RingModel<'p> {
    pool: &'p BufferPool,
    pages: HashMap<u32, Vec<u8>>,
    /// The pages as of the last durability point: what a crash comes
    /// back to.
    durable: HashMap<u32, Vec<u8>>,
    /// Pages written since then: no-steal keeps each resident and dirty.
    dirty: HashSet<u32>,
    held: Vec<(u32, PageRef<'p>, Vec<u8>)>,
    lease: Option<(PageLease, Vec<u8>)>,
    serial: usize,
    /// Images that operations outside a bulk read added.
    gained_outside: usize,
    /// Allocations inside a bulk read: they take frames as outside one.
    allocated_inside: usize,
    /// Pages mutated or allocated since the last flush: a bound on the
    /// dirty and unwritten frames.
    writes: usize,
    /// The most frames held, dirty or unwritten at once: the ring grows
    /// past [`RING_PAGES`] frames only while every one of them is busy.
    busy_max: usize,
}

impl<'p> RingModel<'p> {
    fn busy(&self) -> usize {
        self.held.len() + usize::from(self.lease.is_some()) + self.writes
    }

    /// A failure the pool may answer `op` with: running out of frames,
    /// when every frame could be held or dirty.
    fn exhausted(&self, e: Error) {
        assert!(matches!(e, Error::PoolExhausted { .. }), "{e}");
        assert!(
            self.busy() >= self.pool.capacity(),
            "exhausted with {} busy",
            self.busy()
        );
    }

    fn apply(&mut self, op: RingOp, inside: bool) {
        let pool = self.pool;
        let images = pool.images();
        self.serial += 1;
        let mut live: Vec<u32> = self.pages.keys().copied().collect();
        live.sort_unstable();
        let pick = |i: u32| live[i as usize % live.len()];
        let is_held = |held: &[(u32, PageRef<'p>, Vec<u8>)], id| held.iter().any(|h| h.0 == id);
        match op {
            RingOp::Fetch(i) => match pool.fetch(pick(i)) {
                Ok(page) => assert_eq!(tuple(&page), self.pages[&pick(i)], "page {}", pick(i)),
                Err(e) => self.exhausted(e),
            },
            RingOp::Mutate(i) => {
                let id = pick(i);
                let value = format!("page {id} write {}", self.serial).into_bytes();
                match pool.fetch_mut(id) {
                    Ok(mut page) => {
                        assert!(page.update(0, &value).unwrap());
                        self.pages.insert(id, value);
                        self.dirty.insert(id);
                        self.writes += 1;
                    }
                    Err(Error::PageBusy(busy)) => assert!(busy == id && is_held(&self.held, id)),
                    Err(e) => self.exhausted(e),
                }
            }
            RingOp::Hold(i) => {
                if self.held.len() == 3 {
                    self.held.remove(0);
                }
                match pool.fetch(pick(i)) {
                    Ok(page) => self
                        .held
                        .push((pick(i), page, self.pages[&pick(i)].clone())),
                    Err(e) => self.exhausted(e),
                }
            }
            RingOp::Release => drop(self.held.pop()),
            RingOp::Lease(i) => match pool.lease(pick(i)) {
                Ok(lease) => {
                    assert_eq!(leased(&lease), self.pages[&pick(i)]);
                    self.lease = Some((lease, self.pages[&pick(i)].clone()));
                }
                Err(Error::PageDirty(_)) => assert!(pool.is_dirty(pick(i))),
                Err(e) => self.exhausted(e),
            },
            RingOp::Free(i) => {
                let id = pick(i);
                if live.len() > 1 && !is_held(&self.held, id) {
                    pool.free_page(id);
                    self.pages.remove(&id);
                    self.dirty.remove(&id);
                }
            }
            RingOp::Checkpoint => {
                pool.checkpoint().unwrap();
                self.durable = self.pages.clone();
                self.dirty.clear();
            }
            RingOp::Flush => {
                pool.flush_all().unwrap();
                self.durable = self.pages.clone();
                self.dirty.clear();
                self.writes = 0;
            }
            RingOp::Allocate if pool.num_pages() < 120 || pool.free_pages() > 0 => {
                match pool.allocate_pinned(false) {
                    Ok((id, mut page)) => {
                        let value = format!("page {id} write {}", self.serial).into_bytes();
                        assert_eq!(page.live_count(), 0, "an allocated page starts empty");
                        page.insert(&value).unwrap();
                        self.pages.insert(id, value);
                        self.dirty.insert(id);
                        self.writes += 1;
                        self.allocated_inside += usize::from(inside);
                    }
                    Err(e) => self.exhausted(e),
                }
            }
            RingOp::Allocate => {}
        }
        if !inside {
            self.gained_outside += pool.images() - images;
        }
        self.busy_max = self.busy_max.max(self.busy());
        self.check();
    }

    fn check(&self) {
        for (id, guard, value) in &self.held {
            assert_eq!(&tuple(guard), value, "held guard on page {id}");
            assert!(self.pool.is_resident(*id), "held page {id} evicted");
        }
        if let Some((lease, frozen)) = &self.lease {
            assert_eq!(&leased(lease), frozen, "a lease's image is frozen");
            assert!(
                self.pool.is_resident(lease.id()),
                "leased page {} evicted",
                lease.id()
            );
        }
        for &id in &self.dirty {
            assert!(self.pool.is_dirty(id), "dirty page {id} left its frame");
        }
        let ring = RING_PAGES.max(self.busy_max + 1);
        let bound = ring + self.gained_outside + self.allocated_inside;
        let images = self.pool.images();
        assert!(images <= self.pool.capacity());
        assert!(images <= bound, "{images} images, at most {bound} expected");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Runs of operations, each inside a bulk read or not, on a logged
    /// pool over 96 stored pages (growing to 120) with 12 or 64 frames,
    /// then a crash.
    #[test]
    fn bulk_reads_keep_every_held_page_and_leave_a_ring_of_images(
        small in any::<bool>(),
        runs in prop::collection::vec((any::<bool>(), prop::collection::vec(ring_op_strategy(), 1..100)), 1..8),
    ) {
        let mut pager = MemPager::new();
        let mut pages = HashMap::new();
        for _ in 0..96 {
            let id = pager.allocate().unwrap();
            let value = format!("page {id} write 0").into_bytes();
            let mut page = Page::new();
            page.insert(&value).unwrap();
            pager.write(id, &page).unwrap();
            pages.insert(id, value);
        }
        let wal = pagestore::Wal::new(Box::new(pagestore::MemWalStore::new()));
        let capacity = if small { 12 } else { 64 };
        let pool = BufferPool::with_wal(Box::new(pager), wal, capacity);
        let mut model = RingModel {
            pool: &pool,
            durable: pages.clone(),
            dirty: HashSet::new(),
            pages,
            held: Vec::new(),
            lease: None,
            serial: 0,
            gained_outside: 0,
            allocated_inside: 0,
            writes: 0,
            busy_max: 0,
        };
        for (inside, ops) in runs {
            if inside {
                pool.bulk_read(|| ops.iter().for_each(|&op| model.apply(op, true)));
            } else {
                ops.iter().for_each(|&op| model.apply(op, false));
            }
        }
        model.held.clear();
        model.lease = None;
        for (id, value) in &model.pages {
            assert_eq!(&tuple(&pool.fetch(*id).unwrap()), value, "page {id} at the end");
        }
        // No dirty page reached the data file: a crash loses exactly the
        // writes since the last flush.
        pool.recover().unwrap();
        for (id, value) in &model.durable {
            assert_eq!(&tuple(&pool.fetch(*id).unwrap()), value, "page {id} after a crash");
        }
    }
}
