//! A named catalog of tables over one shared buffer pool.

use crate::codec;
use crate::directory::Directory;
use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::table::{Table, DEFAULT_POOL_PAGES};
use obs::{Recorder, Registry};
use pagestore::{BufferPool, IoStats, RecoveryReport};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;

/// A database: a catalog of named tables sharing one buffer pool.
///
/// OrpheusDB keeps its CVD data tables, versioning tables, metadata tables,
/// and the temporary staging area (checked-out tables) all in one database,
/// as the original does with a single PostgreSQL schema — and, like
/// PostgreSQL's `shared_buffers`, every table created through the catalog
/// competes for the same pool of page frames.
#[derive(Debug)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    pool: Rc<BufferPool>,
    /// Scoped span recorder; the pool's spans are routed here too, so
    /// parallel tests never share span trees through the global recorder.
    recorder: Recorder,
    /// Scoped metrics registry ([`publish_metrics`](Self::publish_metrics)).
    metrics: Registry,
    /// The table directory of a durable database, brought level with
    /// `tables` at each [`checkpoint`](Self::checkpoint). An in-memory
    /// database has none: nothing of it is ever reopened.
    directory: Option<RefCell<Directory>>,
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl Database {
    pub fn new() -> Self {
        Database::with_pool_capacity(DEFAULT_POOL_PAGES)
    }

    /// A database whose shared pool holds `pages` 8 KiB frames.
    pub fn with_pool_capacity(pages: usize) -> Self {
        Database::from_pool(BufferPool::in_memory(pages), Recorder::new())
    }

    fn from_pool(pool: BufferPool, recorder: Recorder) -> Self {
        pool.set_recorder(recorder.clone());
        Database {
            tables: BTreeMap::new(),
            pool: Rc::new(pool),
            recorder,
            metrics: Registry::new(),
            directory: None,
        }
    }

    /// The tuple codec, as a value: a forward kept for
    /// `benchmarks/loadgen/src/layers.rs`, its one caller (see
    /// [`codec::Flat`]); delete it with that caller.
    pub fn default_format(&self) -> codec::Flat {
        codec::Flat
    }

    /// Open (or create) a database whose shared pool is backed by a
    /// durable page file plus write-ahead log in `dir`. Crash recovery
    /// runs before the pool comes up; the returned report says what it
    /// repaired.
    pub fn open_durable(dir: impl AsRef<Path>, pages: usize) -> Result<(Self, RecoveryReport)> {
        let (pool, report) = BufferPool::open_durable(dir, pages)?;
        Ok((Database::open_pool(pool, Recorder::new())?, report))
    }

    /// The durable database stored behind `pool`, which has a write-ahead
    /// log attached and has been recovered (tests wrap its pager and log
    /// in fault injectors). Every table the directory at page 0 describes
    /// is opened by reading its pages — nothing is written, so a database
    /// larger than the pool opens too. Spans land in `recorder`, under
    /// whatever span the caller holds open there.
    pub fn open_pool(pool: BufferPool, recorder: Recorder) -> Result<Self> {
        let mut db = Database::from_pool(pool, recorder);
        let (directory, tables) = Directory::load(&db.pool, &db.recorder)?;
        db.directory = Some(RefCell::new(directory));
        db.tables = tables;
        Ok(db)
    }

    /// Whether the shared pool has a write-ahead log attached, i.e.
    /// [`checkpoint`](Self::checkpoint) is an atomic durability point.
    pub fn is_durable(&self) -> bool {
        self.pool.is_durable()
    }

    /// The durability point. On a durable database: bring the table
    /// directory level with the tables, then log every dirty page in one
    /// atomic batch — scratch tables' pages excepted — with one log fsync,
    /// and return `Ok(true)`. Pages reach `pages.db` when the log passes
    /// its bound, or at [`close`](Self::close). On an in-memory database
    /// there is nothing to make durable and it returns `Ok(false)` without
    /// touching the pool (so I/O counters and eviction state are
    /// unperturbed).
    pub fn checkpoint(&self) -> Result<bool> {
        let Some(directory) = &self.directory else {
            return Ok(false);
        };
        directory.borrow_mut().sync(&self.tables, &self.pool)?;
        self.pool.checkpoint()?;
        Ok(true)
    }

    /// Clean shutdown: a last durability point, then every committed page
    /// written to `pages.db` and the log file cut to zero, so a reopen
    /// replays nothing and the data directory holds no log bytes. A no-op
    /// in memory.
    pub fn close(self) -> Result<()> {
        if let Some(directory) = &self.directory {
            directory.borrow_mut().sync(&self.tables, &self.pool)?;
            self.pool.close()?;
        }
        Ok(())
    }

    /// Replay the write-ahead log into the page file, as after a crash.
    /// Fails on a non-durable database, while any page is pinned, or
    /// while a scratch table holds pages (recovery would lose them).
    pub fn recover(&self) -> Result<RecoveryReport> {
        Ok(self.pool.recover()?)
    }

    /// The buffer pool shared by tables created through this catalog.
    pub fn pool(&self) -> &Rc<BufferPool> {
        &self.pool
    }

    /// Cumulative I/O counters of the shared pool.
    pub fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Zero the shared pool's I/O counters (e.g. between experiments).
    pub fn reset_io_stats(&self) {
        self.pool.reset_stats()
    }

    /// The scoped span recorder this database (and its pool) writes to.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The scoped metrics registry of this database.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Publish the pool's cumulative I/O counters (and hit ratio), its
    /// free-page, unlogged-page and page-image counts and the directory's
    /// table count into the scoped registry. Idempotent: counters are
    /// set, not added.
    pub fn publish_metrics(&self) {
        self.pool.stats().publish(&self.metrics);
        self.metrics
            .gauge_set("pagestore.pool.free_pages", self.pool.free_pages() as f64);
        self.metrics
            .gauge_set("pagestore.pool.images", self.pool.images() as f64);
        let unlogged = self.pool.unlogged_pages() as f64;
        self.metrics
            .gauge_set("pagestore.pool.unlogged_pages", unlogged);
        let described = self.directory.as_ref().map_or(0, |d| d.borrow().len());
        self.metrics
            .gauge_set("relstore.directory.tables", described as f64);
    }

    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) -> Result<&mut Table> {
        self.add_table(name.into(), schema, |name, schema, pool| {
            Table::with_pool(name, schema, pool)
        })
    }

    /// [`create_table`](Self::create_table) for a scratch table, whose
    /// every page is unlogged ([`pagestore::HeapFile::unlogged`]): it
    /// lives in the catalog until dropped, but no checkpoint logs or
    /// writes back its pages and no reopen finds it.
    pub fn create_scratch_table(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
    ) -> Result<&mut Table> {
        self.add_table(name.into(), schema, Table::scratch)
    }

    fn add_table(
        &mut self,
        name: String,
        schema: Schema,
        make: fn(String, Schema, Rc<BufferPool>) -> Table,
    ) -> Result<&mut Table> {
        if self.tables.contains_key(&name) {
            return Err(Error::TableExists(name));
        }
        codec::check_width(schema.len())?;
        let table = make(name.clone(), schema, Rc::clone(&self.pool));
        Ok(self.tables.entry(name).or_insert(table))
    }

    /// Remove a table and give its pages back to the pool.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.tables
            .remove(name)
            .ok_or_else(|| Error::TableNotFound(name.to_owned()))?
            .free()
    }

    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| Error::TableNotFound(name.to_owned()))
    }

    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| Error::TableNotFound(name.to_owned()))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Names of tables with the given prefix (partitions of a CVD share a
    /// common prefix).
    pub fn tables_with_prefix(&self, prefix: &str) -> Vec<&str> {
        self.tables
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.as_str())
            .collect()
    }

    /// Total storage footprint across all tables, in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.tables.values().map(Table::storage_bytes).sum()
    }

    /// Storage footprint of tables matching a prefix.
    pub fn storage_bytes_with_prefix(&self, prefix: &str) -> usize {
        self.tables_with_prefix(prefix)
            .iter()
            .map(|n| self.tables[*n].storage_bytes())
            .sum()
    }

    /// Physical on-page bytes of tables matching a prefix. Scans the heaps; see
    /// [`Table::encoded_bytes`].
    pub fn encoded_bytes_with_prefix(&self, prefix: &str) -> Result<usize> {
        let mut total = 0;
        for n in self.tables_with_prefix(prefix) {
            total += self.tables[n].encoded_bytes()?;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::{DataType, Value};

    fn schema() -> Schema {
        Schema::new(vec![Column::new("x", DataType::Int64)])
    }

    #[test]
    fn create_drop_lookup() {
        let mut db = Database::new();
        db.create_table("t", schema()).unwrap();
        assert!(db.create_table("t", schema()).is_err());
        assert!(db.has_table("t"));
        db.table_mut("t")
            .unwrap()
            .insert(vec![Value::Int64(1)])
            .unwrap();
        assert_eq!(db.table("t").unwrap().live_row_count(), 1);
        db.drop_table("t").unwrap();
        assert!(db.table("t").is_err());
    }

    #[test]
    fn prefix_listing() {
        let mut db = Database::new();
        for n in ["cvd_p1", "cvd_p2", "other", "cvd_meta"] {
            db.create_table(n, schema()).unwrap();
        }
        assert_eq!(
            db.tables_with_prefix("cvd_"),
            vec!["cvd_meta", "cvd_p1", "cvd_p2"]
        );
    }

    #[test]
    fn checkpoint_is_a_noop_on_in_memory_databases() {
        let mut db = Database::with_pool_capacity(8);
        db.create_table("t", schema()).unwrap();
        db.table_mut("t")
            .unwrap()
            .insert(vec![Value::Int64(1)])
            .unwrap();
        let before = db.io_stats();
        assert!(!db.is_durable());
        assert!(!db.checkpoint().unwrap());
        assert_eq!(db.io_stats(), before, "no-op checkpoint must not do I/O");
        assert!(db.recover().is_err(), "recover needs a WAL");
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("relstore-db-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn wide_schema() -> Schema {
        Schema::new(vec![
            Column::new("k", DataType::Int64),
            Column::nullable("tag", DataType::Text),
        ])
    }

    fn wide_row(i: i64) -> Vec<Value> {
        vec![Value::Int64(i), Value::Text(format!("tag-{}", i % 3))]
    }

    fn rows_of(db: &Database, name: &str) -> Vec<(crate::RowId, Vec<Value>)> {
        db.table(name).unwrap().rows().unwrap()
    }

    #[test]
    fn durable_database_reopens_with_its_tables() {
        let dir = scratch("durable");
        let (expected, pages, file_len);
        {
            let (mut db, report) = Database::open_durable(&dir, 8).unwrap();
            assert!(!report.did_work(), "fresh directory has nothing to repair");
            assert!(db.is_durable());
            let t = db.create_table("t", wide_schema()).unwrap();
            t.create_index("k_pk", "k", true, crate::IndexKind::BTree)
                .unwrap();
            for i in 0..300 {
                t.insert(wide_row(i)).unwrap();
            }
            t.delete(7).unwrap();
            t.update(9, wide_row(1_009)).unwrap();
            db.create_table("empty", schema()).unwrap();
            assert!(db.checkpoint().unwrap());
            assert!(db.io_stats().checkpoints >= 1);
            expected = rows_of(&db, "t");
            // Made after the last checkpoint: must not survive.
            db.create_table("volatile", schema()).unwrap();
            db.table_mut("t").unwrap().insert(wide_row(5_000)).unwrap();
            pages = db.pool().num_pages();
            file_len = std::fs::metadata(dir.join("pages.db")).unwrap().len();
        }
        for _ in 0..2 {
            let (db, _) = Database::open_durable(&dir, 8).unwrap();
            assert_eq!(db.table_names(), ["empty", "t"]);
            assert_eq!(rows_of(&db, "t"), expected);
            let t = db.table("t").unwrap();
            assert_eq!(t.live_row_count(), 299);
            let mut tr = crate::cost::CostTracker::new();
            assert_eq!(t.index_lookup("k_pk", 1_009, &mut tr).unwrap(), [9]);
            assert!(t.index_lookup("k_pk", 7, &mut tr).unwrap().is_empty());
            assert_eq!(db.table("empty").unwrap().live_row_count(), 0);
            // Opening read; it wrote nothing and grew nothing.
            assert_eq!(db.pool().num_pages(), pages);
            assert_eq!(db.io_stats().pages_written(), 0);
            db.checkpoint().unwrap();
            assert_eq!(db.io_stats().wal_appends, 0, "no frame was dirty");
            drop(db);
            let len = std::fs::metadata(dir.join("pages.db")).unwrap().len();
            assert_eq!(len, file_len, "open, close, open: same file");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn altered_and_dropped_tables_reach_the_directory_at_the_checkpoint() {
        let dir = scratch("alter");
        {
            let (mut db, _) = Database::open_durable(&dir, 64).unwrap();
            for name in ["a", "gone"] {
                let t = db.create_table(name, wide_schema()).unwrap();
                for i in (0..2_000).rev() {
                    t.insert(wide_row(i)).unwrap();
                }
            }
            db.checkpoint().unwrap();
            let a = db.table_mut("a").unwrap();
            a.add_column(Column::nullable("extra", DataType::Int64), Value::Null)
                .unwrap();
            a.widen_column("k", DataType::Float64).unwrap();
            a.cluster_on("k").unwrap();
            a.create_index("extra_ix", "extra", false, crate::IndexKind::Hash)
                .unwrap();
            db.drop_table("gone").unwrap();
            // Created and dropped between two checkpoints: the directory
            // never hears of it.
            db.create_table("brief", schema()).unwrap();
            db.drop_table("brief").unwrap();
            db.checkpoint().unwrap();
            db.publish_metrics();
            assert_eq!(db.metrics().gauge("relstore.directory.tables"), Some(1.0));
        }
        let (db, _) = Database::open_durable(&dir, 64).unwrap();
        assert_eq!(db.table_names(), ["a"]);
        let a = db.table("a").unwrap();
        assert_eq!(a.schema().len(), 3);
        assert_eq!(a.schema().column(0).unwrap().dtype, DataType::Float64);
        assert_eq!(a.clustering(), crate::Clustering::On(0));
        assert!(a.has_index("extra_ix"));
        let keys: Vec<Value> = a
            .rows()
            .unwrap()
            .into_iter()
            .map(|(_, r)| r[0].clone())
            .collect();
        let sorted: Vec<Value> = (0..2_000).map(|i| Value::Float64(i as f64)).collect();
        assert_eq!(keys, sorted, "clustered order survives");
        // The dropped table's pages are free again, found by reachability.
        db.publish_metrics();
        assert!(db.metrics().gauge("pagestore.pool.free_pages").unwrap() >= 2.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn close_empties_the_log_and_a_reopen_replays_nothing() {
        let dir = scratch("close");
        let file_len = |dir: &Path| std::fs::metadata(dir.join("wal.log")).unwrap().len();
        {
            let (mut db, _) = Database::open_durable(&dir, 64).unwrap();
            let t = db.create_table("t", wide_schema()).unwrap();
            for i in 0..500 {
                t.insert(wide_row(i)).unwrap();
            }
            db.checkpoint().unwrap();
            // The log's records, not its file: that one is pre-written.
            assert!(db.pool().log_len() > 0, "the log carries the batch");
            db.table_mut("t").unwrap().insert(wide_row(500)).unwrap();
            db.close().unwrap();
        }
        assert_eq!(file_len(&dir), 0);
        let (db, report) = Database::open_durable(&dir, 64).unwrap();
        assert!(!report.did_work(), "{report}");
        assert_eq!(db.table("t").unwrap().live_row_count(), 501);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: `drop_table` only forgot the table; its pages stayed
    /// allocated and dirty, so memory and the page file grew per drop.
    #[test]
    fn dropped_tables_give_their_pages_back() {
        let mut db = Database::with_pool_capacity(64);
        let mut high_water = 0;
        for round in 0..20 {
            let t = db.create_table("staging", wide_schema()).unwrap();
            for i in 0..1_000 {
                t.insert(wide_row(i)).unwrap();
            }
            db.drop_table("staging").unwrap();
            if round == 0 {
                high_water = db.pool().num_pages();
            }
        }
        assert_eq!(db.pool().num_pages(), high_water);
        assert_eq!(db.pool().free_pages(), high_water as usize);
        assert!(db.drop_table("staging").is_err());
    }

    /// A live scratch table of 30+ dirty pages adds nothing to a
    /// checkpoint: the same log bytes and page writes as without it.
    /// (Restated for the one-fsync durability point: it writes no page,
    /// so the logged images stand for the pages written.)
    #[test]
    fn a_live_scratch_table_adds_no_checkpoint_io() {
        let checkpoint_io = |tag: &str, with_scratch: bool| {
            let dir = scratch(tag);
            let (mut db, _) = Database::open_durable(&dir, 256).unwrap();
            let t = db.create_table("t", wide_schema()).unwrap();
            for i in 0..500 {
                t.insert(wide_row(i)).unwrap();
            }
            db.checkpoint().unwrap();
            if with_scratch {
                let s = db.create_scratch_table("s", wide_schema()).unwrap();
                for i in 0..15_000 {
                    s.insert(wide_row(i)).unwrap();
                }
                assert!(s.num_heap_pages() >= 30, "{}", s.num_heap_pages());
            }
            let t = db.table_mut("t").unwrap();
            for i in 500..700 {
                t.insert(wide_row(i)).unwrap();
            }
            t.update(3, wide_row(3_000)).unwrap();
            let before = db.io_stats();
            db.checkpoint().unwrap();
            let io = db.io_stats().since(&before);
            if with_scratch {
                assert_eq!(db.table("s").unwrap().live_row_count(), 15_000);
                assert!(db.pool().unlogged_pages() >= 30);
            }
            drop(db);
            std::fs::remove_dir_all(&dir).unwrap();
            (
                io.wal_appends,
                io.wal_bytes,
                io.flushed_writes,
                io.write_backs,
            )
        };
        let without = checkpoint_io("no-scratch", false);
        assert!(without.0 > 0, "the checkpoint logged t's pages");
        assert_eq!(checkpoint_io("with-scratch", true), without);
    }

    /// A scratch table is never described: a reopen does not find it and
    /// frees its pages. A logged table
    /// dropped and re-created as scratch under its name leaves too.
    #[test]
    fn scratch_tables_do_not_survive_a_reopen() {
        let dir = scratch("scratch-reopen");
        let pages;
        {
            let (mut db, _) = Database::open_durable(&dir, 64).unwrap();
            let t = db.create_table("t", wide_schema()).unwrap();
            t.insert(wide_row(1)).unwrap();
            db.checkpoint().unwrap();
            db.drop_table("t").unwrap();
            for name in ["t", "s"] {
                let s = db.create_scratch_table(name, wide_schema()).unwrap();
                assert!(s.is_scratch());
                for i in 0..5_000 {
                    s.insert(wide_row(i)).unwrap();
                }
            }
            db.checkpoint().unwrap();
            pages = db.pool().num_pages() as usize;
            assert!(db.pool().unlogged_pages() > 10);
        }
        let (db, _) = Database::open_durable(&dir, 64).unwrap();
        assert!(db.table_names().is_empty());
        assert_eq!(db.pool().free_pages(), pages - 1, "all but the directory");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_store_larger_than_its_pool_reopens() {
        let dir = scratch("small-pool");
        {
            let (mut db, _) = Database::open_durable(&dir, 512).unwrap();
            let t = db.create_table("big", wide_schema()).unwrap();
            for i in 0..40_000 {
                t.insert(wide_row(i)).unwrap();
            }
            assert!(t.num_heap_pages() > 64);
            db.checkpoint().unwrap();
        }
        let (db, _) = Database::open_durable(&dir, 16).unwrap();
        let big = db.table("big").unwrap();
        assert_eq!(big.live_row_count(), 40_000);
        assert_eq!(big.get(39_999).unwrap(), wide_row(39_999));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_page_file_without_a_directory_is_a_typed_error() {
        let dir = scratch("foreign");
        {
            let (pool, _) = BufferPool::open_durable(&dir, 8).unwrap();
            let mut t = Table::with_pool("raw", schema(), Rc::new(pool));
            t.insert(vec![Value::Int64(1)]).unwrap();
            t.pool().flush_all().unwrap();
        }
        assert!(matches!(
            Database::open_durable(&dir, 8),
            Err(Error::Storage(m)) if m.contains("table directory")
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A store that crashed before its first checkpoint holds an empty
    /// page 0 at most: it opens as a fresh one.
    #[test]
    fn a_store_that_never_checkpointed_opens_empty() {
        let dir = scratch("unborn");
        {
            let (mut db, _) = Database::open_durable(&dir, 8).unwrap();
            db.create_table("t", schema()).unwrap();
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int64(1)])
                .unwrap();
        }
        let (mut db, _) = Database::open_durable(&dir, 8).unwrap();
        assert!(db.table_names().is_empty());
        db.create_table("t", schema()).unwrap();
        db.checkpoint().unwrap();
        drop(db);
        let (db, _) = Database::open_durable(&dir, 8).unwrap();
        assert_eq!(db.table_names(), ["t"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pool_spans_land_in_the_scoped_recorder() {
        // Two frames, three pages: fetching page 2 must miss and evict,
        // and those spans must land in *this* database's recorder, not
        // the process-wide one (parallel tests would cross-contaminate).
        let mut db = Database::with_pool_capacity(2);
        db.create_table("t", schema()).unwrap();
        for i in 0..3000 {
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int64(i)])
                .unwrap();
        }
        let t = db.table("t").unwrap();
        assert!(t.num_heap_pages() > 2, "need more pages than frames");
        let mut tracker = crate::cost::CostTracker::new();
        for ord in 0..t.num_heap_pages() {
            t.read_page_rows(ord, &mut tracker).unwrap();
        }
        let report = db.recorder().report();
        assert!(report.find("pagestore.pool.miss").is_some(), "{report:?}");
    }

    #[test]
    fn publish_metrics_fills_the_scoped_registry() {
        let mut db = Database::with_pool_capacity(8);
        db.create_table("t", schema()).unwrap();
        db.table_mut("t")
            .unwrap()
            .insert_many([vec![Value::Int64(1)], vec![Value::Int64(2)]])
            .unwrap();
        db.publish_metrics();
        let m = db.metrics();
        assert!(m.counter("pagestore.pool.logical_reads") > 0);
        assert!(m.gauge("pagestore.pool.hit_ratio").is_some());
        let images = db.pool().images() as f64;
        assert!(images > 0.0 && images <= 8.0, "{images}");
        assert_eq!(m.gauge("pagestore.pool.images"), Some(images));
    }

    #[test]
    fn encoded_bytes_count_the_stored_tuples() {
        let mut db = Database::with_pool_capacity(8);
        let table = db.create_table("f", schema()).unwrap();
        for i in 0..200 {
            table.insert(vec![Value::Int64(i)]).unwrap();
        }
        // A row id, a count and one tagged word: 8 + 2 + 9 bytes.
        let stored = db.table("f").unwrap().encoded_bytes().unwrap();
        assert_eq!(stored, 200 * 19);
        assert_eq!(db.encoded_bytes_with_prefix("f").unwrap(), stored);
    }

    /// A row is one tuple, whose value count is a `u16`: a table wider
    /// than that is refused when it is created or widened, with a typed
    /// error naming the width and the limit, and nothing is created.
    #[test]
    fn a_table_wider_than_a_tuple_is_refused() {
        let wide = |n: usize| {
            let columns = (0..n).map(|i| Column::nullable(format!("c{i}"), DataType::Int64));
            Schema::new(columns.collect())
        };
        let mut db = Database::with_pool_capacity(8);
        let refused = Error::TooManyColumns {
            columns: 65_536,
            limit: 65_535,
        };
        assert_eq!(db.create_table("w", wide(65_536)).unwrap_err(), refused);
        assert!(!db.has_table("w"));
        assert_eq!(
            refused.to_string(),
            "too many columns: 65536 (a row holds at most 65535)"
        );
        let t = db.create_table("w", wide(65_535)).unwrap();
        let id = t.insert(vec![Value::Int64(7); 65_535]).unwrap();
        let extra = Column::nullable("extra", DataType::Int64);
        assert_eq!(t.add_column(extra, Value::Null).unwrap_err(), refused);
        assert_eq!(t.schema().len(), 65_535);
        assert_eq!(t.get(id).unwrap(), vec![Value::Int64(7); 65_535]);
    }

    #[test]
    fn tables_share_the_catalog_pool() {
        let mut db = Database::with_pool_capacity(8);
        db.create_table("a", schema()).unwrap();
        db.create_table("b", schema()).unwrap();
        db.table_mut("a")
            .unwrap()
            .insert(vec![Value::Int64(1)])
            .unwrap();
        db.table_mut("b")
            .unwrap()
            .insert(vec![Value::Int64(2)])
            .unwrap();
        assert_eq!(db.table("b").unwrap().get(0), Some(vec![Value::Int64(2)]));
        assert!(std::rc::Rc::ptr_eq(
            db.table("a").unwrap().pool(),
            db.pool()
        ));
        assert!(db.io_stats().logical_reads > 0);
        db.reset_io_stats();
        assert_eq!(db.io_stats(), pagestore::IoStats::default());
    }
}
