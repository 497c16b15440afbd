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

use pagestore::{BufferPool, IoStats, PageLease, PageRef};
use proptest::prelude::*;
use std::collections::HashMap;

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
