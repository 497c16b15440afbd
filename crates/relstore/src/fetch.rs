//! The page-ordered rid fetch: [`RidFetch`] reads the pages a list of
//! row ids lives on, in place on the calling thread, and decodes only the
//! wanted slots.

use crate::cost::CostTracker;
use crate::error::Result;
use crate::exec::{ExecContext, Executor};
use crate::expr::ColumnTest;
use crate::schema::Schema;
use crate::table::{Row, Table, TouchedPages};
use std::collections::VecDeque;

/// Page-ordered fetch of the rows a row-id list names — the rid join of
/// checkout and versioned queries (§5.5.5), which is *one rlist plus the
/// records it names*, not a scan. A CVD's data table numbers its rows by
/// rid, so its row directory is the rid index.
///
/// Construction resolves every id through the row directory to a tuple
/// address (ids with no live row are skipped, as an inner join would) and
/// sorts the addresses by `(page, slot)`. Execution pins each touched
/// page **once**, as rows are pulled, and decodes only the wanted slots,
/// so rows come out in physical order: exactly the rows and order of
/// `Project(HashJoin(Values ids, SeqScan table))` on a table whose first
/// column is its row id, without reading the pages or decoding the tuples
/// that join discards. A `Limit` above stops the page reads.
///
/// A fetch may carry a [`ColumnTest`] (a pushed-down `WHERE`): every
/// located tuple is tested on its encoded bytes, and only the rows that
/// pass are decoded and emitted.
///
/// Estimated cost: one index probe per id (the estimate models the
/// paper's PostgreSQL plan, which probes an index on `rid`), one tuple
/// per located row (plus, under a test, the operator evaluations of
/// testing it), and per touched page a sequential read when it directly
/// follows the previous touched page, a random read otherwise — charged
/// before the first row.
pub struct RidFetch<'a> {
    table: &'a Table,
    touched: TouchedPages,
    probes: u64,
    test: Option<ColumnTest>,
    /// Next touched page to read.
    next_page: usize,
    out: VecDeque<Row>,
    started: bool,
}

impl<'a> RidFetch<'a> {
    /// Fetch the rows of `table` whose row ids are `ids`.
    pub fn new(table: &'a Table, ids: impl IntoIterator<Item = i64>) -> Self {
        let mut probes = 0;
        let touched = table.locate(ids.into_iter().inspect(|_| probes += 1));
        RidFetch {
            table,
            touched,
            probes,
            test: None,
            next_page: 0,
            out: VecDeque::new(),
            started: false,
        }
    }

    /// Emit only the rows that pass `test`.
    pub fn with_test(self, test: Option<ColumnTest>) -> Self {
        RidFetch { test, ..self }
    }

    /// Rows the keys resolved to — what the fetch emits, unless a test
    /// discards some.
    pub fn rows(&self) -> usize {
        self.touched.rows()
    }

    /// Distinct heap pages holding those rows — exactly the data pages
    /// the fetch reads (overflow chains come on top).
    pub fn touched_pages(&self) -> usize {
        self.touched.len()
    }

    fn charge(&self, tracker: &mut CostTracker) {
        tracker.index_probes(self.probes);
        tracker.tuples += self.touched.rows() as u64;
        if self.test.is_some() {
            tracker.ops(ColumnTest::OPS * self.touched.rows() as u64);
        }
        let mut last = None;
        for i in 0..self.touched.len() {
            let ord = self.touched.page(i).0;
            if last.is_some_and(|l| ord == l + 1) {
                tracker.seq_pages += 1;
            } else {
                tracker.random_pages += 1;
            }
            last = Some(ord);
        }
    }
}

impl Executor for RidFetch<'_> {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Row>> {
        if !self.started {
            self.started = true;
            self.charge(&mut ctx.tracker);
        }
        loop {
            if let Some(row) = self.out.pop_front() {
                return Ok(Some(row));
            }
            if self.next_page >= self.touched.len() {
                return Ok(None);
            }
            let (ord, slots) = self.touched.page(self.next_page);
            self.next_page += 1;
            let test = self.test.as_ref();
            let rows = Table::read_slot_rows(self.table, ord, slots, test, &mut ctx.tracker)?;
            self.out.extend(rows);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::exec::{collect, Filter, HashJoin, Project, SeqScan, Values};
    use crate::schema::Column;
    use crate::value::{DataType, Value};
    use std::rc::Rc;

    fn data_table(n: i64) -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::new("rid", DataType::Int64),
                Column::new("x", DataType::Int64),
                Column::new("tag", DataType::Text),
            ]),
        );
        for i in 0..n {
            t.insert(vec![
                Value::Int64(i),
                Value::Int64(i * 7 % 100),
                Value::Text(format!("row-{i}")),
            ])
            .unwrap();
        }
        t
    }

    /// The oracle `RidFetch` replaces: `Project(HashJoin(Values, SeqScan))`.
    fn rid_join_oracle(t: &Table, keys: &[i64]) -> Vec<Row> {
        let build = Box::new(Values::ints("rid", keys.iter().copied()));
        let join = HashJoin::new(build, Box::new(SeqScan::new(t)), 0, 0);
        let cols: Vec<usize> = (1..1 + t.schema().len()).collect();
        let mut project = Project::columns(Box::new(join), &cols);
        collect(&mut project, &mut ExecContext::new()).unwrap()
    }

    #[test]
    fn rid_fetch_matches_hash_join_oracle() {
        let t = data_table(2_000);
        t.pool().flush_all().unwrap();
        // Sparse, with a duplicate and two absent keys.
        let mut keys: Vec<i64> = (0..700).step_by(37).collect();
        keys.extend([74, -5, 9_999]);
        let want = rid_join_oracle(&t, &keys);
        assert_eq!(want.len(), keys.len() - 2);
        let before = t.io_stats();
        let mut ctx = ExecContext::new();
        let mut fetch = RidFetch::new(&t, keys.iter().copied());
        assert_eq!(fetch.rows(), want.len());
        let rows = collect(&mut fetch, &mut ctx).unwrap();
        assert_eq!(rows, want);
        // Only the touched pages were read, each once.
        let delta = t.io_stats().since(&before);
        assert_eq!(delta.logical_reads, fetch.touched_pages() as u64);
        assert!(fetch.touched_pages() < t.num_heap_pages());
        assert_eq!(ctx.tracker.measured.logical_reads, delta.logical_reads);
        assert_eq!(ctx.tracker.index_tuples, keys.len() as u64);
        assert_eq!(ctx.tracker.estimated_pages(), fetch.touched_pages() as u64);
    }

    /// A test on the fetch emits exactly what a `Filter` over the
    /// unfiltered fetch emits, and decodes only those rows — overflow
    /// tuples too, which are tested once their chain is read.
    #[test]
    fn rid_fetch_test_matches_a_filter_above_the_fetch() {
        use crate::expr::{BinOp, ColumnTest};
        let pool = Rc::new(pagestore::BufferPool::in_memory(64));
        let mut t = Table::with_pool("w", data_table(0).schema().clone(), pool);
        for i in 0..300i64 {
            let tag = match i % 25 {
                0 => "z".repeat(3 * pagestore::PAGE_SIZE),
                r => format!("t{}", r % 4),
            };
            t.insert(vec![
                Value::Int64(i),
                Value::Int64(i * 7 % 100),
                Value::Text(tag),
            ])
            .unwrap();
        }
        t.pool().flush_all().unwrap();
        for (column, op, literal) in [
            (1, BinOp::Gt, Value::Int64(90)),
            (1, BinOp::Eq, Value::Float64(49.0)),
            (1, BinOp::Ne, Value::Int64(0)),
            (2, BinOp::Ge, Value::from("z")),
            (2, BinOp::Le, Value::from("t1")),
        ] {
            let test = ColumnTest::new(column, op, literal).unwrap();
            let filter = Filter::new(Box::new(RidFetch::new(&t, 0..300)), test.expr(0));
            let want = collect(&mut { filter }, &mut ExecContext::new()).unwrap();
            assert!(!want.is_empty() && want.len() < 300, "{test:?}");
            let before = t.io_stats();
            let mut ctx = ExecContext::new();
            let mut fetch = RidFetch::new(&t, 0..300).with_test(Some(test.clone()));
            let rows = collect(&mut fetch, &mut ctx).unwrap();
            assert_eq!(rows, want, "{test:?}");
            let decoded = t.io_stats().since(&before).tuples_decoded;
            assert_eq!(decoded, want.len() as u64, "{test:?}");
            assert_eq!(ctx.tracker.operator_evals, 300 * ColumnTest::OPS);
        }
    }

    #[test]
    fn rid_fetch_limit_stops_reading_pages() {
        let t = data_table(2_000);
        let fetch = RidFetch::new(&t, 0..2_000);
        let touched = fetch.touched_pages() as u64;
        let mut ctx = ExecContext::new();
        let mut limit = crate::exec::Limit::new(Box::new(fetch), 3);
        assert_eq!(collect(&mut limit, &mut ctx).unwrap().len(), 3);
        assert_eq!(ctx.tracker.measured.logical_reads, 1);
        assert!(touched > 1);
    }

    /// An id names a row through the directory alone: a deleted row, a
    /// negative id and one past the directory locate nothing, but each is
    /// still charged its probe.
    #[test]
    fn rid_fetch_skips_ids_with_no_live_row() {
        let mut t = data_table(50);
        t.delete(7).unwrap();
        let ids = [3, 7, -1, i64::MIN, 50, i64::MAX, 9];
        let fetch = RidFetch::new(&t, ids);
        assert_eq!(fetch.rows(), 2);
        let mut ctx = ExecContext::new();
        let rows = collect(&mut { fetch }, &mut ctx).unwrap();
        assert_eq!(rows, rid_join_oracle(&t, &ids));
        assert_eq!(ctx.tracker.index_tuples, ids.len() as u64);
        assert!(collect(&mut RidFetch::new(&t, []), &mut ctx)
            .unwrap()
            .is_empty());
    }

    /// A page the pool cannot supply is an error, never a shorter result
    /// (the rule `Table::fetch` follows).
    #[test]
    fn rid_fetch_surfaces_storage_errors() {
        let pool = Rc::new(pagestore::BufferPool::in_memory(2));
        let mut t = Table::with_pool(
            "w",
            Schema::new(vec![
                Column::new("rid", DataType::Int64),
                Column::new("pad", DataType::Text),
            ]),
            Rc::clone(&pool),
        );
        for i in 0..40i64 {
            t.insert(vec![Value::Int64(i), Value::Text("y".repeat(1_000))])
                .unwrap();
        }
        pool.flush_all().unwrap();
        let fetch = || RidFetch::new(&t, 0..40);
        let rows = collect(&mut fetch(), &mut ExecContext::new()).unwrap();
        assert_eq!(rows.len(), 40);
        // Both frames pinned: every other page is unreadable.
        let _a = pool.fetch(0).unwrap();
        let _b = pool.fetch(1).unwrap();
        let err = collect(&mut fetch(), &mut ExecContext::new());
        assert!(matches!(err, Err(Error::Storage(_))), "{err:?}");
    }

    /// Fetch every row of `t` by row id, returning the rows and the
    /// pool's counters across the fetch.
    fn fetch_all(t: &Table) -> (Vec<Row>, pagestore::IoStats) {
        let mut fetch = RidFetch::new(t, 0..t.live_row_count() as i64);
        let before = t.io_stats();
        let rows = collect(&mut fetch, &mut ExecContext::new()).unwrap();
        (rows, t.io_stats().since(&before))
    }

    /// `pagestore.page.decode_us` is not 0 after a fetch, and
    /// `decoded_tuples` counts its rows; `Table::rows` times its decoding
    /// too.
    #[test]
    fn decode_time_is_counted_wherever_tuples_are_decoded() {
        let t = data_table(2_000);
        t.pool().flush_all().unwrap();
        let decode_us = |delta: pagestore::IoStats| {
            let registry = obs::Registry::new();
            delta.publish(&registry);
            registry.gauge("pagestore.page.decode_us").unwrap_or(0.0)
        };
        let (rows, delta) = fetch_all(&t);
        assert_eq!(delta.tuples_decoded, rows.len() as u64);
        assert!(decode_us(delta) > 0.0, "fetch: {delta:?}");
        let before = t.io_stats();
        assert_eq!(t.rows().unwrap().len(), 2_000);
        let delta = t.io_stats().since(&before);
        assert_eq!(delta.tuples_decoded, 2_000);
        assert!(decode_us(delta) > 0.0, "Table::rows: {delta:?}");
    }

    /// Dirty pages read in place like clean ones.
    #[test]
    fn rid_fetch_reads_dirty_and_clean_pages_alike() {
        let t = data_table(500);
        let (dirty, _) = fetch_all(&t);
        assert_eq!(dirty.len(), 500);
        t.pool().flush_all().unwrap();
        assert_eq!(fetch_all(&t).0, dirty);
    }

    /// A pool smaller than the touched pages still reads them all: each
    /// page is unpinned before the next is read.
    #[test]
    fn rid_fetch_reads_through_a_pool_smaller_than_its_pages() {
        let pool = Rc::new(pagestore::BufferPool::in_memory(4));
        let mut t = Table::with_pool(
            "w",
            Schema::new(vec![
                Column::new("rid", DataType::Int64),
                Column::new("pad", DataType::Text),
            ]),
            pool,
        );
        for i in 0..400i64 {
            t.insert(vec![Value::Int64(i), Value::Text("y".repeat(256))])
                .unwrap();
        }
        assert!(t.num_heap_pages() > t.pool().capacity());
        t.pool().flush_all().unwrap();
        let (rows, delta) = fetch_all(&t);
        assert_eq!(rows, rid_join_oracle(&t, &(0..400).collect::<Vec<_>>()));
        assert_eq!(delta.logical_reads, t.num_heap_pages() as u64);
    }
}
