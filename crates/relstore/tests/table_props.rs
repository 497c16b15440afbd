//! Property-based tests for the storage engine: arbitrary operation
//! sequences keep tables and indexes consistent, and the executor agrees
//! with a naive reference implementation.

use proptest::prelude::*;
use relstore::{
    Column, CostTracker, DataType, ExecContext, Executor, Expr, Filter, HashJoin, IndexKind,
    MergeJoin, Schema, SeqScan, Table, Value, Values,
};

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    DeleteAt(usize),
    UpdateAt(usize, i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..10_000i64, any::<i64>()).prop_map(|(k, v)| Op::Insert(k, v % 1000)),
        any::<usize>().prop_map(Op::DeleteAt),
        (any::<usize>(), 0..1000i64).prop_map(|(i, v)| Op::UpdateAt(i, v)),
    ]
}

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("k", DataType::Int64),
        Column::new("v", DataType::Int64),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any operation sequence, the index finds exactly the live rows,
    /// and live_row_count matches a reference model.
    #[test]
    fn table_and_index_stay_consistent(ops in prop::collection::vec(op_strategy(), 0..60)) {
        let mut table = Table::new("t", schema());
        table.create_index("k_ix", "k", false, IndexKind::BTree).unwrap();
        // Reference model: (key, value) with stable ids.
        let mut model: Vec<Option<(i64, i64)>> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    table.insert(vec![Value::Int64(k), Value::Int64(v)]).unwrap();
                    model.push(Some((k, v)));
                }
                Op::DeleteAt(i) => {
                    let live: Vec<usize> = model
                        .iter()
                        .enumerate()
                        .filter_map(|(id, s)| s.is_some().then_some(id))
                        .collect();
                    if live.is_empty() { continue; }
                    let id = live[i % live.len()];
                    table.delete(id as u64).unwrap();
                    model[id] = None;
                }
                Op::UpdateAt(i, v) => {
                    let live: Vec<usize> = model
                        .iter()
                        .enumerate()
                        .filter_map(|(id, s)| s.is_some().then_some(id))
                        .collect();
                    if live.is_empty() { continue; }
                    let id = live[i % live.len()];
                    let k = model[id].unwrap().0;
                    table.update(id as u64, vec![Value::Int64(k), Value::Int64(v)]).unwrap();
                    model[id] = Some((k, v));
                }
            }
        }
        let live: Vec<(i64, i64)> = model.iter().flatten().copied().collect();
        prop_assert_eq!(table.live_row_count(), live.len());
        // Every live key is findable through the index with the right value.
        let mut tracker = CostTracker::new();
        for (id, slot) in model.iter().enumerate() {
            if let Some((k, v)) = slot {
                let hits = table.index_lookup("k_ix", *k, &mut tracker).unwrap();
                prop_assert!(hits.contains(&(id as u64)));
                prop_assert_eq!(table.get(id as u64).unwrap()[1].as_i64().unwrap(), *v);
            } else {
                prop_assert!(table.get(id as u64).is_none());
            }
        }
    }

    /// Filter agrees with a direct scan for arbitrary thresholds.
    #[test]
    fn filter_matches_reference(
        rows in prop::collection::vec((0..100i64, -50..50i64), 0..40),
        threshold in -60..60i64,
    ) {
        let mut table = Table::new("t", schema());
        for (k, v) in &rows {
            table.insert(vec![Value::Int64(*k), Value::Int64(*v)]).unwrap();
        }
        let mut ctx = ExecContext::new();
        let scan = Box::new(SeqScan::new(&table));
        let mut filter = Filter::new(scan, Expr::col(1).gt(Expr::lit(threshold)));
        let got = filter.collect(&mut ctx).unwrap();
        let want = rows.iter().filter(|(_, v)| *v > threshold).count();
        prop_assert_eq!(got.len(), want);
    }

    /// Hash join and merge join agree on arbitrary key multisets.
    #[test]
    fn join_strategies_agree(
        left in prop::collection::vec(0..30i64, 0..30),
        right in prop::collection::vec(0..30i64, 0..30),
    ) {
        let mut ctx = ExecContext::new();
        let h = {
            let l = Box::new(Values::ints("k", left.clone()));
            let r = Box::new(Values::ints("k", right.clone()));
            HashJoin::new(l, r, 0, 0).collect(&mut ctx).unwrap()
        };
        let m = {
            let l = Box::new(Values::ints("k", left.clone()));
            let r = Box::new(Values::ints("k", right.clone()));
            MergeJoin::new(l, r, 0, 0).collect(&mut ctx).unwrap()
        };
        // Reference: Σ count_left(k) × count_right(k).
        let count = |v: &[i64], k: i64| v.iter().filter(|&&x| x == k).count();
        let mut keys: Vec<i64> = left.clone();
        keys.extend(&right);
        keys.sort_unstable();
        keys.dedup();
        let expect: usize = keys.iter().map(|&k| count(&left, k) * count(&right, k)).sum();
        prop_assert_eq!(h.len(), expect);
        prop_assert_eq!(m.len(), expect);
    }

    /// cluster_on preserves the multiset of rows and sorts physically.
    #[test]
    fn clustering_preserves_rows(rows in prop::collection::vec((0..1000i64, any::<i64>()), 1..50)) {
        let mut table = Table::new("t", schema());
        for (k, v) in &rows {
            table.insert(vec![Value::Int64(*k), Value::Int64(*v % 100)]).unwrap();
        }
        let mut before: Vec<(i64, i64)> = table
            .rows()
            .unwrap()
            .into_iter()
            .map(|(_, r)| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        table.cluster_on("k").unwrap();
        let after: Vec<(i64, i64)> = table
            .rows()
            .unwrap()
            .into_iter()
            .map(|(_, r)| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        prop_assert!(after.windows(2).all(|w| w[0].0 <= w[1].0), "not sorted");
        before.sort_unstable();
        let mut sorted_after = after;
        sorted_after.sort_unstable();
        prop_assert_eq!(before, sorted_after);
    }

    /// Expression evaluation never panics and comparison is antisymmetric.
    #[test]
    fn value_compare_antisymmetric(a in any::<i64>(), b in any::<i64>()) {
        let va = Value::Int64(a);
        let vb = Value::Int64(b);
        let ab = va.compare(&vb).unwrap();
        let ba = vb.compare(&va).unwrap();
        prop_assert_eq!(ab, ba.reverse());
        prop_assert_eq!(va.total_cmp(&vb), vb.total_cmp(&va).reverse());
    }
}
