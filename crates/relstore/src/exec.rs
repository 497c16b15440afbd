//! Volcano-style query executor.
//!
//! Operators pull rows from their children through [`Executor::next`],
//! charging I/O and CPU costs to the [`ExecContext`]'s tracker. The three
//! join strategies analysed in §5.5.5 (hash join, merge join,
//! index-nested-loop join) are implemented with the cost behaviour the paper
//! observes:
//!
//! * **hash join** builds a hash table on the build side then streams the
//!   probe side sequentially — linear in the probe side regardless of
//!   physical layout;
//! * **merge join** sorts both inputs (quick when already sorted) and merges;
//! * **index-nested-loop join** performs one index probe plus one heap fetch
//!   per outer row — each fetch is a random page unless the inner table is
//!   clustered on the join column.

use crate::cost::{CostModel, CostTracker};
use crate::error::{Error, Result};
use crate::expr::Expr;
use crate::schema::{Column, Schema};
use crate::table::{Row, Table};
use crate::value::{DataType, Value};
use std::collections::{HashMap, VecDeque};

/// Mutable state threaded through an execution.
#[derive(Debug, Default)]
pub struct ExecContext {
    pub tracker: CostTracker,
    pub model: CostModel,
}

impl ExecContext {
    pub fn new() -> Self {
        ExecContext {
            tracker: CostTracker::new(),
            model: CostModel::default(),
        }
    }
}

/// A pull-based operator.
pub trait Executor {
    fn schema(&self) -> &Schema;
    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Row>>;

    /// Drain the operator into a vector.
    fn collect(&mut self, ctx: &mut ExecContext) -> Result<Vec<Row>>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        while let Some(row) = self.next(ctx)? {
            out.push(row);
        }
        Ok(out)
    }
}

/// Boxed executor with a borrow lifetime (scans borrow their tables).
pub type BoxExec<'a> = Box<dyn Executor + 'a>;

/// Drain any boxed executor.
pub fn collect(exec: &mut dyn Executor, ctx: &mut ExecContext) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    while let Some(row) = exec.next(ctx)? {
        out.push(row);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Leaf operators
// ---------------------------------------------------------------------------

/// Full sequential scan of a table, streamed one heap page at a time
/// through the buffer pool. The estimated charge covers every heap slot up
/// front; measured page traffic accrues in `tracker.measured` as pages are
/// actually pulled, so scanning a table larger than the pool shows
/// physical reads and evictions the estimate only models.
pub struct SeqScan<'a> {
    table: &'a Table,
    page_ord: usize,
    buf: VecDeque<Row>,
    charged: bool,
}

impl<'a> SeqScan<'a> {
    pub fn new(table: &'a Table) -> Self {
        SeqScan {
            table,
            page_ord: 0,
            buf: VecDeque::new(),
            charged: false,
        }
    }
}

impl Executor for SeqScan<'_> {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Row>> {
        if !self.charged {
            // Charge the whole heap up front: a seq scan reads every page.
            ctx.tracker
                .seq_scan(self.table.heap_size() as u64, &ctx.model);
            self.charged = true;
        }
        loop {
            if let Some(row) = self.buf.pop_front() {
                return Ok(Some(row));
            }
            if self.page_ord >= self.table.num_heap_pages() {
                return Ok(None);
            }
            let rows = self.table.read_page_rows(self.page_ord, &mut ctx.tracker)?;
            self.page_ord += 1;
            self.buf.extend(rows.into_iter().map(|(_, r)| r));
        }
    }
}

/// A literal row set (e.g. an `rlist` unnested outside the engine). Rows
/// are pulled from an iterator one `next` at a time, so a leaf over
/// borrowed rows clones only what its consumer asks for.
pub struct Values<'a> {
    schema: Schema,
    rows: Box<dyn Iterator<Item = Row> + 'a>,
}

impl<'a> Values<'a> {
    pub fn new(schema: Schema, rows: impl IntoIterator<Item = Row, IntoIter: 'a>) -> Self {
        Values {
            schema,
            rows: Box::new(rows.into_iter()),
        }
    }

    /// Single-int-column convenience used for id lists.
    pub fn ints(name: &str, vals: impl IntoIterator<Item = i64, IntoIter: 'a>) -> Self {
        Values::new(
            Schema::new(vec![Column::new(name, DataType::Int64)]),
            vals.into_iter().map(|v| vec![Value::Int64(v)]),
        )
    }
}

impl Executor for Values<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Row>> {
        match self.rows.next() {
            Some(r) => {
                ctx.tracker.emit(1);
                Ok(Some(r))
            }
            None => Ok(None),
        }
    }
}

// ---------------------------------------------------------------------------
// Unary operators
// ---------------------------------------------------------------------------

/// Filters rows by a predicate.
pub struct Filter<'a> {
    child: BoxExec<'a>,
    predicate: Expr,
}

impl<'a> Filter<'a> {
    pub fn new(child: BoxExec<'a>, predicate: Expr) -> Self {
        Filter { child, predicate }
    }
}

impl Executor for Filter<'_> {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Row>> {
        while let Some(row) = self.child.next(ctx)? {
            if self.predicate.matches(&row, &mut ctx.tracker)? {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

/// Computes a list of expressions per input row.
pub struct Project<'a> {
    child: BoxExec<'a>,
    exprs: Vec<Expr>,
    schema: Schema,
}

impl<'a> Project<'a> {
    pub fn new(child: BoxExec<'a>, exprs: Vec<(String, Expr, DataType)>) -> Self {
        let schema = Schema::new(
            exprs
                .iter()
                .map(|(n, _, dt)| Column::nullable(n.clone(), *dt))
                .collect(),
        );
        Project {
            child,
            exprs: exprs.into_iter().map(|(_, e, _)| e).collect(),
            schema,
        }
    }

    /// Project by column ordinals.
    pub fn columns(child: BoxExec<'a>, indices: &[usize]) -> Self {
        let schema = child.schema().project(indices);
        Project {
            exprs: indices.iter().map(|&i| Expr::Col(i)).collect(),
            child,
            schema,
        }
    }
}

impl Executor for Project<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Row>> {
        match self.child.next(ctx)? {
            Some(row) => {
                let out = self
                    .exprs
                    .iter()
                    .map(|e| e.eval(&row, &mut ctx.tracker))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Some(out))
            }
            None => Ok(None),
        }
    }
}

/// Emits at most `n` rows.
pub struct Limit<'a> {
    child: BoxExec<'a>,
    remaining: usize,
}

impl<'a> Limit<'a> {
    pub fn new(child: BoxExec<'a>, n: usize) -> Self {
        Limit {
            child,
            remaining: n,
        }
    }
}

impl Executor for Limit<'_> {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Row>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.child.next(ctx)? {
            Some(r) => {
                self.remaining -= 1;
                Ok(Some(r))
            }
            None => Ok(None),
        }
    }
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

pub(crate) fn join_key(row: &Row, col: usize) -> Result<Option<i64>> {
    match &row[col] {
        Value::Int64(v) => Ok(Some(*v)),
        Value::Null => Ok(None),
        other => Err(Error::TypeError(format!(
            "join keys must be Int64, got {other}"
        ))),
    }
}

/// Hash join: builds on the left child, probes with the right child.
/// Output schema is `left ⨝ right`.
pub struct HashJoin<'a> {
    left: BoxExec<'a>,
    right: BoxExec<'a>,
    left_key: usize,
    right_key: usize,
    schema: Schema,
    built: Option<HashMap<i64, Vec<Row>>>,
    pending: Vec<Row>,
}

impl<'a> HashJoin<'a> {
    pub fn new(left: BoxExec<'a>, right: BoxExec<'a>, left_key: usize, right_key: usize) -> Self {
        let schema = left.schema().join(right.schema());
        HashJoin {
            left,
            right,
            left_key,
            right_key,
            schema,
            built: None,
            pending: Vec::new(),
        }
    }
}

impl Executor for HashJoin<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Row>> {
        if self.built.is_none() {
            let mut map: HashMap<i64, Vec<Row>> = HashMap::new();
            while let Some(row) = self.left.next(ctx)? {
                ctx.tracker.ops(1); // hash insert
                if let Some(k) = join_key(&row, self.left_key)? {
                    map.entry(k).or_default().push(row);
                }
            }
            self.built = Some(map);
        }
        loop {
            if let Some(row) = self.pending.pop() {
                ctx.tracker.emit(1);
                return Ok(Some(row));
            }
            match self.right.next(ctx)? {
                None => return Ok(None),
                Some(right_row) => {
                    ctx.tracker.ops(1); // hash probe
                    if let Some(k) = join_key(&right_row, self.right_key)? {
                        if let Some(matches) = self.built.as_ref().and_then(|b| b.get(&k)) {
                            for l in matches {
                                let mut out = l.clone();
                                out.extend(right_row.iter().cloned());
                                self.pending.push(out);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Merge join: sorts both inputs on their keys, then merges.
pub struct MergeJoin<'a> {
    left: Option<BoxExec<'a>>,
    right: Option<BoxExec<'a>>,
    left_key: usize,
    right_key: usize,
    schema: Schema,
    merged: Option<std::vec::IntoIter<Row>>,
}

impl<'a> MergeJoin<'a> {
    pub fn new(left: BoxExec<'a>, right: BoxExec<'a>, left_key: usize, right_key: usize) -> Self {
        let schema = left.schema().join(right.schema());
        MergeJoin {
            left: Some(left),
            right: Some(right),
            left_key,
            right_key,
            schema,
            merged: None,
        }
    }

    fn materialize(&mut self, ctx: &mut ExecContext) -> Result<()> {
        let (Some(mut left), Some(mut right)) = (self.left.take(), self.right.take()) else {
            return Err(Error::InvalidOperation(
                "merge join inputs were already consumed".into(),
            ));
        };
        let mut l = collect(left.as_mut(), ctx)?;
        let mut r = collect(right.as_mut(), ctx)?;
        let (lk, rk) = (self.left_key, self.right_key);
        // Sorting an already-sorted run is cheap in practice (timsort-like
        // behaviour); charge comparisons only.
        ctx.tracker.ops((l.len() + r.len()) as u64);
        l.sort_by(|a, b| a[lk].total_cmp(&b[lk]));
        r.sort_by(|a, b| a[rk].total_cmp(&b[rk]));
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < l.len() && j < r.len() {
            ctx.tracker.ops(1);
            let (a, b) = (&l[i][lk], &r[j][rk]);
            match a.total_cmp(b) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if a.is_null() {
                        i += 1;
                        j += 1;
                        continue;
                    }
                    // Emit the cross product of the equal runs.
                    let i_end = (i..l.len()).take_while(|&x| l[x][lk] == *a).count() + i;
                    let j_end = (j..r.len()).take_while(|&x| r[x][rk] == *a).count() + j;
                    for li in i..i_end {
                        for rj in j..j_end {
                            let mut row = l[li].clone();
                            row.extend(r[rj].iter().cloned());
                            ctx.tracker.emit(1);
                            out.push(row);
                        }
                    }
                    i = i_end;
                    j = j_end;
                }
            }
        }
        self.merged = Some(out.into_iter());
        Ok(())
    }
}

impl Executor for MergeJoin<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Row>> {
        if self.merged.is_none() {
            self.materialize(ctx)?;
        }
        match self.merged.as_mut() {
            Some(it) => Ok(it.next()),
            None => Err(Error::InvalidOperation(
                "merge join output was not materialized".into(),
            )),
        }
    }
}

/// Index-nested-loop join: for each outer row, probe `inner` through the
/// named index and fetch matching heap rows. Fetch cost depends on whether
/// the inner table is clustered on the index column — exactly the contrast
/// in Fig. 5.7(c) vs 5.7(f).
pub struct IndexNestedLoopJoin<'a> {
    outer: BoxExec<'a>,
    inner: &'a Table,
    index: String,
    index_col: usize,
    outer_key: usize,
    schema: Schema,
    pending: Vec<Row>,
    last_page: Option<u64>,
}

impl<'a> IndexNestedLoopJoin<'a> {
    pub fn new(
        outer: BoxExec<'a>,
        inner: &'a Table,
        index: impl Into<String>,
        outer_key: usize,
    ) -> Result<Self> {
        let index = index.into();
        let index_col = inner.index_column(&index)?;
        let schema = outer.schema().join(inner.schema());
        Ok(IndexNestedLoopJoin {
            outer,
            inner,
            index,
            index_col,
            outer_key,
            schema,
            pending: Vec::new(),
            last_page: None,
        })
    }
}

impl Executor for IndexNestedLoopJoin<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Row>> {
        loop {
            if let Some(row) = self.pending.pop() {
                ctx.tracker.emit(1);
                return Ok(Some(row));
            }
            match self.outer.next(ctx)? {
                None => return Ok(None),
                Some(outer_row) => {
                    let Some(k) = join_key(&outer_row, self.outer_key)? else {
                        continue;
                    };
                    let ids = self.inner.index_lookup(&self.index, k, &mut ctx.tracker)?;
                    let rows = self.inner.fetch_with_state(
                        ids,
                        Some(self.index_col),
                        &mut ctx.tracker,
                        &ctx.model,
                        &mut self.last_page,
                    )?;
                    for inner_row in rows {
                        let mut out = outer_row.clone();
                        out.extend(inner_row);
                        self.pending.push(out);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexKind;

    fn data_table(n: i64) -> Table {
        let mut t = Table::new(
            "data",
            Schema::new(vec![
                Column::new("rid", DataType::Int64),
                Column::new("v", DataType::Int64),
            ]),
        );
        for i in 0..n {
            t.insert(vec![Value::Int64(i), Value::Int64(i * 10)])
                .unwrap();
        }
        t
    }

    #[test]
    fn seqscan_filter_project() {
        let t = data_table(10);
        let mut ctx = ExecContext::new();
        let scan = Box::new(SeqScan::new(&t));
        let filt = Box::new(Filter::new(scan, Expr::col(1).gt(Expr::lit(50i64))));
        let mut proj = Project::columns(filt, &[0]);
        let rows = proj.collect(&mut ctx).unwrap();
        assert_eq!(rows.len(), 4); // v in {60,70,80,90}
        assert_eq!(rows[0], vec![Value::Int64(6)]);
        assert!(ctx.tracker.seq_pages >= 1);
    }

    #[test]
    fn seqscan_larger_than_pool_is_correct_and_measured() {
        use pagestore::BufferPool;
        use std::rc::Rc;
        let pool = Rc::new(BufferPool::in_memory(4));
        let mut t = Table::with_pool(
            "big",
            Schema::new(vec![
                Column::new("rid", DataType::Int64),
                Column::new("payload", DataType::Text),
            ]),
            pool,
        );
        let n = 300i64;
        for i in 0..n {
            t.insert(vec![Value::Int64(i), Value::Text("p".repeat(256))])
                .unwrap();
        }
        assert!(t.num_heap_pages() > t.pool().capacity());
        let mut ctx = ExecContext::new();
        let rows = SeqScan::new(&t).collect(&mut ctx).unwrap();
        assert_eq!(rows.len(), n as usize);
        let rids: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(rids, (0..n).collect::<Vec<_>>());
        // More pages were faulted in than the pool can hold at once.
        assert!(ctx.tracker.measured.physical_reads > t.pool().capacity() as u64);
        assert!(t.io_stats().evictions > 0);
    }

    #[test]
    fn hash_join_matches() {
        let t = data_table(100);
        let mut ctx = ExecContext::new();
        let probe = Box::new(SeqScan::new(&t));
        let build = Box::new(Values::ints("rid", vec![3, 5, 97]));
        let mut join = HashJoin::new(build, probe, 0, 0);
        let rows = join.collect(&mut ctx).unwrap();
        assert_eq!(rows.len(), 3);
        // Output schema: build cols then probe cols.
        assert_eq!(join.schema().len(), 3);
    }

    #[test]
    fn merge_join_handles_duplicates() {
        let left = Box::new(Values::ints("k", vec![1, 2, 2, 3]));
        let right = Box::new(Values::ints("k", vec![2, 2, 3, 4]));
        let mut join = MergeJoin::new(left, right, 0, 0);
        let mut ctx = ExecContext::new();
        let rows = join.collect(&mut ctx).unwrap();
        // 2x2 for key 2, 1x1 for key 3.
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn index_nested_loop_join() {
        let mut t = data_table(1000);
        t.create_index("rid_ix", "rid", true, IndexKind::BTree)
            .unwrap();
        let outer = Box::new(Values::ints("rid", vec![10, 20, 30]));
        let mut join = IndexNestedLoopJoin::new(outer, &t, "rid_ix", 0).unwrap();
        let mut ctx = ExecContext::new();
        let rows = join.collect(&mut ctx).unwrap();
        assert_eq!(rows.len(), 3);
        // Without clustering on rid... table is insertion-ordered which IS
        // rid order here, but clustering is Clustering::None → random pages.
        assert_eq!(ctx.tracker.random_pages, 3);
    }

    #[test]
    fn inl_join_clustered_fetch_cheaper() {
        let mut t = data_table(5000);
        t.cluster_on("rid").unwrap();
        t.create_index("rid_ix", "rid", true, IndexKind::BTree)
            .unwrap();
        let keys: Vec<i64> = (0..2000).collect();
        let outer = Box::new(Values::ints("rid", keys.clone()));
        let mut join = IndexNestedLoopJoin::new(outer, &t, "rid_ix", 0).unwrap();
        let mut clustered_ctx = ExecContext::new();
        join.collect(&mut clustered_ctx).unwrap();

        // Same join against a PK-clustered copy (cluster on v, not rid).
        let mut t2 = data_table(5000);
        t2.cluster_on("v").unwrap();
        t2.create_index("rid_ix", "rid", true, IndexKind::BTree)
            .unwrap();
        let outer = Box::new(Values::ints("rid", keys));
        let mut join2 = IndexNestedLoopJoin::new(outer, &t2, "rid_ix", 0).unwrap();
        let mut random_ctx = ExecContext::new();
        join2.collect(&mut random_ctx).unwrap();

        let m = CostModel::default();
        assert!(clustered_ctx.tracker.total(&m) < random_ctx.tracker.total(&m));
    }

    #[test]
    fn limit_stops_after_n_rows() {
        let child = Box::new(Values::ints("x", vec![3, 1, 2]));
        let mut lim = Limit::new(child, 2);
        let mut ctx = ExecContext::new();
        let out = lim.collect(&mut ctx).unwrap();
        assert_eq!(out, vec![vec![Value::Int64(3)], vec![Value::Int64(1)]]);
    }

    #[test]
    fn hash_join_skips_null_keys() {
        let schema = Schema::new(vec![Column::nullable("k", DataType::Int64)]);
        let left = Box::new(Values::new(
            schema.clone(),
            vec![vec![Value::Null], vec![Value::Int64(1)]],
        ));
        let right = Box::new(Values::new(
            schema,
            vec![vec![Value::Null], vec![Value::Int64(1)]],
        ));
        let mut join = HashJoin::new(left, right, 0, 0);
        let mut ctx = ExecContext::new();
        assert_eq!(join.collect(&mut ctx).unwrap().len(), 1);
    }
}
