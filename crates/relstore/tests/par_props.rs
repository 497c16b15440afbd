//! Property-based tests for the page-ordered `RidFetch`: for arbitrary
//! tables — including tables bigger than their buffer pool, so the fetch
//! runs under eviction pressure — it stays byte-identical to the hash
//! join over a full scan that it replaced.

use proptest::prelude::*;
use relstore::{
    collect, BufferPool, Column, DataType, ExecContext, HashJoin, Project, RidFetch, Schema,
    SeqScan, Table, Value, Values,
};
use std::rc::Rc;

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("rid", DataType::Int64),
        Column::new("k", DataType::Int64),
        Column::new("pad", DataType::Text),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `RidFetch` returns exactly the rows, in exactly the order, of the
    /// `Project(HashJoin(Values keys, SeqScan))` tree it replaced — over
    /// tables with tombstones, relocated tuples and
    /// overflow-chain tuples, clean and dirty, a 4-frame
    /// pool and a roomy one — and reads each touched page exactly once
    /// (plus the chain pages of the overflow tuples it returns).
    #[test]
    fn rid_fetch_matches_hash_join_over_scan(
        pads in prop::collection::vec(0..200u8, 1..100),
        // (row, what): delete it, grow it past its page (relocation), or
        // make it an overflow tuple.
        edits in prop::collection::vec((0..100usize, 0..3u8), 0..30),
        subset in prop::collection::btree_set(-3i64..103, 0..100),
        // 0: no keys; 1: every key, absent ones included; else `subset`.
        key_mode in 0..5u8,
        small_pool in any::<bool>(),
        flush in any::<bool>(),
    ) {
        const BIG: usize = 9_000; // two overflow-chain pages
        let pool = Rc::new(BufferPool::in_memory(if small_pool { 4 } else { 256 }));
        let mut t = Table::with_pool("p", schema(), pool);
        let row = |rid: usize, edit: usize, pad: usize| vec![
            Value::Int64(rid as i64),
            Value::Int64(rid as i64 % 7),
            Value::Text(format!("{rid}.{edit}:{}", "x".repeat(pad))),
        ];
        // rid -> is it live, and is it an overflow tuple.
        let mut live: Vec<Option<bool>> = Vec::new();
        for (rid, &pad) in pads.iter().enumerate() {
            t.insert(row(rid, 0, pad as usize)).unwrap();
            live.push(Some(false));
        }
        for (edit, &(at, what)) in edits.iter().enumerate() {
            let rid = at % live.len();
            if live[rid].is_none() {
                continue;
            }
            match what {
                0 => {
                    t.delete(rid as u64).unwrap();
                    live[rid] = None;
                }
                1 => {
                    t.update(rid as u64, row(rid, edit + 1, 3_000)).unwrap();
                    live[rid] = Some(false);
                }
                _ => {
                    t.update(rid as u64, row(rid, edit + 1, BIG)).unwrap();
                    live[rid] = Some(true);
                }
            }
        }
        if flush {
            t.pool().flush_all().unwrap();
        }
        let keys: Vec<i64> = match key_mode {
            0 => Vec::new(),
            1 => (-3..live.len() as i64 + 3).collect(),
            _ => subset.into_iter().collect(),
        };
        let wanted = |big: bool| keys.iter()
            .filter(|&&k| k >= 0 && live.get(k as usize).copied().flatten() == Some(big))
            .count();

        let join = HashJoin::new(
            Box::new(Values::ints("rid", keys.iter().copied())),
            Box::new(SeqScan::new(&t)),
            0,
            0,
        );
        let mut oracle = Project::columns(Box::new(join), &[1, 2, 3]);
        let want = collect(&mut oracle, &mut ExecContext::new()).unwrap();
        prop_assert_eq!(want.len(), wanted(false) + wanted(true));

        let mut fetch = RidFetch::new(&t, keys.iter().copied());
        let before = t.io_stats();
        let mut ctx = ExecContext::new();
        let got = collect(&mut fetch, &mut ctx).unwrap();
        let delta = t.io_stats().since(&before);
        prop_assert_eq!(&got, &want, "rows");
        let reads = (fetch.touched_pages() + 2 * wanted(true)) as u64;
        prop_assert_eq!(delta.logical_reads, reads, "pool reads");
        prop_assert_eq!(ctx.tracker.measured.logical_reads, reads, "measured reads");
        prop_assert_eq!(ctx.tracker.measured.physical_reads, delta.physical_reads);
    }
}
