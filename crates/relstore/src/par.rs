//! Morsel-driven parallel reads.
//!
//! The buffer pool is single-threaded (`Rc<BufferPool>`), so parallelism
//! follows the morsel-driven split of HyPer: the **coordinator** thread
//! does every page access — charging estimated and measured I/O exactly
//! like the sequential path — and hands out **zero-copy page leases**
//! ([`PageView`](pagestore::PageView)), while the
//! [`WorkerPool`](exec_pool::WorkerPool) workers do the CPU-only work
//! (slot parsing and tuple decoding) against the shared frames.
//!
//! Leases share the frame's `Arc<Page>` — the coordinator never
//! materialises an owned copy of a page before dispatch, which is what
//! once made 4-thread runs *slower* than sequential ones. Only pages that
//! cannot be leased (a wanted tuple with an overflow chain, a dirty
//! frame) fall back to an owned copy, counted in
//! `IoStats::bytes_copied_to_workers` so the perf gate can assert the hot
//! path stays at zero. Because live leases pin their frames against
//! eviction, dispatch proceeds in [`LeaseWaves`] bounded by the pool
//! capacity, so a pool smaller than the page list still reads it —
//! zero-copy — wave by wave.
//!
//! [`RidFetch`] is the one operator on that machinery: it leases only the
//! pages its keys live on (and, on one thread, skips the machinery
//! altogether).
//!
//! Determinism: morsels are contiguous runs of the page list and results
//! are reassembled in morsel order, so output row order is physical
//! `(page, slot)` order — the sequential pipeline's — at every thread
//! count.

use crate::codec;
use crate::cost::CostTracker;
use crate::error::Result;
use crate::exec::{ExecContext, Executor};
use crate::expr::ColumnTest;
use crate::schema::Schema;
use crate::table::{Row, Table, TouchedPages};
use exec_pool::WorkerPool;
use pagestore::PageView;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Pages per morsel. Sixteen 8 KiB pages ≈ 128 KiB of tuple data — small
/// enough that a morsel's working set stays cache-resident on a worker,
/// large enough to amortise the per-task queue round trip (~800 rows at
/// the default 50 rows/page). Measured on SCI_100K: 8 and 32 land within
/// a few percent; 16 is the flat middle of that plateau. Morsel size
/// never affects output bytes — merge order is morsel order — only the
/// task granularity.
const MORSEL_PAGES: usize = 16;

/// Frames kept free of leases during a dispatch wave, so the coordinator
/// can still pull overflow-chain and dirty pages through the pool while
/// the wave's leases pin their frames against eviction.
const LEASE_RESERVE: usize = 2;

/// A morsel: the position of its first page in the page list, and one
/// view per page from there on.
type Morsel = (usize, Vec<PageView>);

/// Leases a table's touched pages in coordinator-paced **waves**: each
/// wave holds at most `pool.capacity() - LEASE_RESERVE` simultaneous
/// leases, grouped into contiguous [`MORSEL_PAGES`]-sized morsels. Leases
/// refuse eviction, so leasing the whole list up front would wedge any
/// pool smaller than it; waves bound the lease footprint while keeping
/// every page on the zero-copy path. Wave boundaries never affect output
/// bytes — merge order is morsel order and waves are dispatched in order.
struct LeaseWaves<'a> {
    table: &'a Table,
    touched: &'a TouchedPages,
    next: usize,
    budget: usize,
    pages_per_morsel: usize,
}

impl<'a> LeaseWaves<'a> {
    fn new(table: &'a Table, touched: &'a TouchedPages) -> Self {
        let budget = table.pool().capacity().saturating_sub(LEASE_RESERVE).max(1);
        LeaseWaves {
            table,
            touched,
            next: 0,
            budget,
            pages_per_morsel: MORSEL_PAGES.min(budget),
        }
    }

    /// Lease the next wave of morsels — zero-copy for clean pages whose
    /// wanted tuples are inline — charging the measured pool traffic to
    /// `tracker`. Returns `None` once the list is exhausted.
    fn next_wave(&mut self, tracker: &mut CostTracker) -> Result<Option<Vec<Morsel>>> {
        let total = self.touched.len();
        if self.next >= total {
            return Ok(None);
        }
        let mut wave = Vec::new();
        let mut leased = 0;
        while self.next < total && leased < self.budget {
            let take = self
                .pages_per_morsel
                .min(self.budget - leased)
                .min(total - self.next);
            let mut views = Vec::with_capacity(take);
            for i in self.next..self.next + take {
                let (ord, slots) = self.touched.page(i);
                views.push(self.table.lease_slots(ord, slots, tracker)?);
            }
            wave.push((self.next, views));
            self.next += take;
            leased += take;
        }
        Ok(Some(wave))
    }
}

/// Per-worker emitted-row counts shared with an explain node.
type WorkerRows = Rc<RefCell<Vec<u64>>>;

/// Page-ordered fetch of the rows a row-id list names — the rid join of
/// checkout and versioned queries (§5.5.5), which is *one rlist plus the
/// records it names*, not a scan. A CVD's data table numbers its rows by
/// rid, so its row directory is the rid index.
///
/// Construction resolves every id through the row directory to a tuple
/// address (ids with no live row are skipped, as an inner join would) and
/// sorts the addresses by `(page, slot)`. Execution pins each touched
/// page **once** and decodes only the wanted slots, so rows come out in
/// physical order: exactly the rows and order of
/// `Project(HashJoin(Values ids, SeqScan table))` on a table whose first
/// column is its row id, without reading the pages or decoding the tuples
/// that join discards.
///
/// With no pool, or a one-thread pool, pages are read in place on the
/// coordinator as rows are pulled — no leases, no copies, and a `Limit`
/// above stops the page reads. With more threads the touched-page list
/// goes through [`LeaseWaves`] and the workers decode their morsels'
/// wanted slots; output order is morsel order, so every thread count is
/// byte-identical.
///
/// A fetch may carry a [`ColumnTest`] (a pushed-down `WHERE`): every
/// located tuple is tested on its encoded bytes, on the coordinator and on
/// the workers alike, and only the rows that pass are decoded and emitted.
///
/// Estimated cost: one index probe per id (the estimate models the
/// paper's PostgreSQL plan, which probes an index on `rid`), one tuple
/// per located row (plus, under a test, the operator evaluations of
/// testing it), and per touched page a sequential read when it directly follows the previous
/// touched page, a random read otherwise — charged on the coordinator
/// before the first row, the same at every thread count.
pub struct RidFetch<'a> {
    table: &'a Table,
    touched: TouchedPages,
    probes: u64,
    test: Option<ColumnTest>,
    /// Morsel workers; `None` reads in place on the coordinator.
    workers: Option<WorkerPool>,
    /// Next touched page the coordinator reads in place.
    next_page: usize,
    out: VecDeque<Row>,
    started: bool,
    worker_rows: WorkerRows,
}

impl<'a> RidFetch<'a> {
    /// Fetch the rows of `table` whose row ids are `ids`.
    pub fn new(
        table: &'a Table,
        ids: impl IntoIterator<Item = i64>,
        pool: Option<&WorkerPool>,
    ) -> Self {
        let mut probes = 0;
        let touched = table.locate(ids.into_iter().inspect(|_| probes += 1));
        let workers = pool.filter(|p| p.threads() > 1).cloned();
        let parallelism = workers.as_ref().map_or(1, WorkerPool::threads);
        RidFetch {
            table,
            touched,
            probes,
            test: None,
            workers,
            next_page: 0,
            out: VecDeque::new(),
            started: false,
            worker_rows: Rc::new(RefCell::new(vec![0; parallelism])),
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

    /// Degree of parallelism this fetch runs at.
    pub fn parallelism(&self) -> usize {
        self.worker_rows.borrow().len()
    }

    /// Shared per-worker emitted-row counts, for
    /// [`ExplainNode::set_worker_rows`](crate::explain::ExplainNode::set_worker_rows).
    pub fn worker_rows(&self) -> Rc<RefCell<Vec<u64>>> {
        Rc::clone(&self.worker_rows)
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

    /// Lease the touched pages wave by wave and let the workers test and
    /// decode each morsel's wanted slots, appending rows in morsel order.
    fn run_on_workers(&mut self, pool: &WorkerPool, ctx: &mut ExecContext) -> Result<()> {
        let (table, touched, test) = (self.table, &self.touched, self.test.as_ref());
        let mut waves = LeaseWaves::new(table, touched);
        while let Some(wave) = waves.next_wave(&mut ctx.tracker)? {
            let tasks: Vec<_> = wave
                .into_iter()
                .map(|(first, views)| {
                    move |worker: usize| -> Result<(usize, Vec<Row>, Duration)> {
                        let (mut rows, started) = (Vec::new(), Instant::now());
                        for (i, view) in views.iter().enumerate() {
                            for bytes in view.tuples_at(touched.page(first + i).1)? {
                                rows.extend(codec::decode_if(bytes, test)?);
                            }
                        }
                        Ok((worker, rows, started.elapsed()))
                    }
                })
                .collect();
            let mut worker_rows = self.worker_rows.borrow_mut();
            let mut wave_decoded = 0;
            for result in pool.run(tasks)? {
                let (worker, rows, walk_time) = result?;
                table.pool().note_decode_time(walk_time);
                wave_decoded += rows.len() as u64;
                worker_rows[worker] += rows.len() as u64;
                self.out.extend(rows);
            }
            // Every decoded tuple is a row out. Mirror the tally into the
            // pool counter outside any since-window (the morsel_allocs
            // pattern), so pagestore.page.decoded_tuples stays
            // thread-count-invariant.
            ctx.tracker.measured.tuples_decoded += wave_decoded;
            table.pool().note_tuples_decoded(wave_decoded);
        }
        Ok(())
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
            if let Some(pool) = self.workers.take() {
                self.run_on_workers(&pool, ctx)?;
                self.next_page = self.touched.len();
            }
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
    fn rid_fetch_matches_hash_join_oracle_at_every_thread_count() {
        let t = data_table(2_000);
        t.pool().flush_all().unwrap();
        // Sparse, with a duplicate and two absent keys.
        let mut keys: Vec<i64> = (0..700).step_by(37).collect();
        keys.extend([74, -5, 9_999]);
        let want = rid_join_oracle(&t, &keys);
        assert_eq!(want.len(), keys.len() - 2);
        let mut serial = None;
        for threads in [1, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let before = t.io_stats();
            let mut ctx = ExecContext::new();
            let mut fetch = RidFetch::new(&t, keys.iter().copied(), Some(&pool));
            assert_eq!(fetch.rows(), want.len());
            let rows = collect(&mut fetch, &mut ctx).unwrap();
            assert_eq!(rows, want, "threads={threads}");
            // Only the touched pages were read, each once, none copied.
            let delta = t.io_stats().since(&before);
            assert_eq!(delta.logical_reads, fetch.touched_pages() as u64);
            assert!(fetch.touched_pages() < t.num_heap_pages());
            assert_eq!(delta.bytes_copied_to_workers, 0);
            assert_eq!(ctx.tracker.measured.logical_reads, delta.logical_reads);
            assert_eq!(
                fetch.worker_rows().borrow().iter().sum::<u64>(),
                if threads > 1 { want.len() as u64 } else { 0 }
            );
            // Estimated charges do not depend on the thread count.
            let mut charged = ctx.tracker;
            charged.measured = Default::default();
            assert_eq!(*serial.get_or_insert(charged), charged, "threads={threads}");
            assert_eq!(charged.index_tuples, keys.len() as u64);
            assert_eq!(charged.estimated_pages(), fetch.touched_pages() as u64);
        }
    }

    /// A test on the fetch emits exactly what a `Filter` over the
    /// unfiltered fetch emits, at every thread count, and decodes only
    /// those rows — overflow tuples too, which are tested once their chain
    /// is read. Estimated charges do not depend on the thread count.
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
        let fetch = |threads, test| {
            let workers = WorkerPool::new(threads);
            RidFetch::new(&t, 0..300, Some(&workers)).with_test(test)
        };
        for (column, op, literal) in [
            (1, BinOp::Gt, Value::Int64(90)),
            (1, BinOp::Eq, Value::Float64(49.0)),
            (1, BinOp::Ne, Value::Int64(0)),
            (2, BinOp::Ge, Value::from("z")),
            (2, BinOp::Le, Value::from("t1")),
        ] {
            let test = ColumnTest::new(column, op, literal).unwrap();
            let filter = Filter::new(Box::new(fetch(1, None)), test.expr(0));
            let want = collect(&mut { filter }, &mut ExecContext::new()).unwrap();
            assert!(!want.is_empty() && want.len() < 300, "{test:?}");
            let mut charged = None;
            for threads in [1, 2, 4] {
                let before = t.io_stats();
                let mut ctx = ExecContext::new();
                let rows = collect(&mut fetch(threads, Some(test.clone())), &mut ctx).unwrap();
                assert_eq!(rows, want, "{threads} threads, {test:?}");
                let decoded = t.io_stats().since(&before).tuples_decoded;
                assert_eq!(decoded, want.len() as u64, "{threads} threads");
                let mut tracker = ctx.tracker;
                tracker.measured = Default::default();
                assert_eq!(*charged.get_or_insert(tracker), tracker);
                assert_eq!(tracker.operator_evals, 300 * ColumnTest::OPS);
            }
        }
    }

    #[test]
    fn rid_fetch_serial_limit_stops_reading_pages() {
        let t = data_table(2_000);
        let fetch = RidFetch::new(&t, 0..2_000, None);
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
        let fetch = RidFetch::new(&t, ids, None);
        assert_eq!(fetch.rows(), 2);
        let mut ctx = ExecContext::new();
        let rows = collect(&mut { fetch }, &mut ctx).unwrap();
        assert_eq!(rows, rid_join_oracle(&t, &ids));
        assert_eq!(ctx.tracker.index_tuples, ids.len() as u64);
    }

    /// A page the pool cannot supply is an error, never a shorter result
    /// (the rule `Table::fetch` follows), on the coordinator and through
    /// the lease waves alike.
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
        for threads in [1, 4] {
            let workers = WorkerPool::new(threads);
            let fetch = || RidFetch::new(&t, 0..40, Some(&workers));
            let rows = collect(&mut fetch(), &mut ExecContext::new()).unwrap();
            assert_eq!(rows.len(), 40);
            // Both frames pinned: every other page is unreadable.
            let _a = pool.fetch(0).unwrap();
            let _b = pool.fetch(1).unwrap();
            let err = collect(&mut fetch(), &mut ExecContext::new());
            assert!(matches!(err, Err(Error::Storage(_))), "{err:?}");
        }
    }

    /// Fetch every row of `t` by row id at `threads`, returning the
    /// rows and the pool's counters across the fetch.
    fn fetch_all(t: &Table, threads: usize) -> (Vec<Row>, pagestore::IoStats) {
        let workers = WorkerPool::new(threads);
        let keys = 0..t.live_row_count() as i64;
        let mut fetch = RidFetch::new(t, keys, Some(&workers));
        let before = t.io_stats();
        let rows = collect(&mut fetch, &mut ExecContext::new()).unwrap();
        (rows, t.io_stats().since(&before))
    }

    /// The workers report the time their tasks spent walking tuples, so
    /// `pagestore.page.decode_us` is not 0 at 4 threads while
    /// `decoded_tuples` counts the same rows as at 1; `Table::rows` times
    /// its decoding too.
    #[test]
    fn decode_time_is_counted_wherever_tuples_are_decoded() {
        let t = data_table(2_000);
        t.pool().flush_all().unwrap();
        let decode_us = |delta: pagestore::IoStats| {
            let registry = obs::Registry::new();
            delta.publish(&registry);
            registry.gauge("pagestore.page.decode_us").unwrap_or(0.0)
        };
        let (rows, delta) = fetch_all(&t, 4);
        assert_eq!(delta.tuples_decoded, rows.len() as u64);
        assert!(decode_us(delta) > 0.0, "4-thread fetch: {delta:?}");
        let before = t.io_stats();
        assert_eq!(t.rows().unwrap().len(), 2_000);
        let delta = t.io_stats().since(&before);
        assert_eq!(delta.tuples_decoded, 2_000);
        assert!(decode_us(delta) > 0.0, "Table::rows: {delta:?}");
    }

    #[test]
    fn rid_fetch_on_dirty_pages_falls_back_to_counted_copies() {
        // No flush: every heap page is dirty, so each one must be copied
        // (and counted) rather than leased — output stays identical.
        let t = data_table(500);
        let (serial, _) = fetch_all(&t, 1);
        let (rows, delta) = fetch_all(&t, 4);
        assert_eq!(rows, serial);
        assert!(delta.bytes_copied_to_workers > 0);
        assert_eq!(delta.morsel_allocs, t.num_heap_pages() as u64);
        // Checkpointed, the same fetch ships leases: nothing copied.
        t.pool().flush_all().unwrap();
        let (rows, delta) = fetch_all(&t, 4);
        assert_eq!(rows, serial);
        assert_eq!(delta.bytes_copied_to_workers, 0);
        assert_eq!(delta.morsel_allocs, 0);
    }

    #[test]
    fn rid_fetch_pool_smaller_than_its_pages_stays_zero_copy_via_waves() {
        // 4-frame pool, many-page heap: leases refuse eviction, so the
        // fetch must proceed in capacity-bounded waves instead of wedging.
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
        let (serial, _) = fetch_all(&t, 1);
        assert_eq!(serial.len(), 400);
        let (rows, delta) = fetch_all(&t, 4);
        assert_eq!(rows, serial);
        assert_eq!(delta.bytes_copied_to_workers, 0);
    }

    #[test]
    fn rid_fetch_with_no_keys_or_fewer_morsels_than_workers() {
        let t = data_table(60);
        let workers = WorkerPool::new(4);
        let mut empty = RidFetch::new(&t, [], Some(&workers));
        assert!(collect(&mut empty, &mut ExecContext::new())
            .unwrap()
            .is_empty());
        // 60 rows fit on a handful of pages — far fewer morsels than the
        // eight workers; idle workers must not deadlock or drop rows.
        let (rows, _) = fetch_all(&t, 8);
        assert_eq!(rows.len(), 60);
        assert_eq!(rows, fetch_all(&t, 1).0);
    }

    #[test]
    fn worker_panic_mid_morsel_surfaces_as_err() {
        // A panic inside a worker task must surface as Err, not deadlock.
        let pool = WorkerPool::new(2);
        let tasks: Vec<Box<dyn FnOnce(usize) -> u32 + Send>> = vec![
            Box::new(|_| 1),
            Box::new(|_| panic!("worker exploded mid-morsel")),
        ];
        let err = pool.run(tasks);
        let msg = format!("{}", Error::from(err.unwrap_err()));
        assert!(msg.contains("exploded"), "{msg}");
    }
}
