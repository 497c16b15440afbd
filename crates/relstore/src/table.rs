//! Heap tables with physical clustering, tombstoned deletion, and
//! index maintenance.
//!
//! Row storage lives on `pagestore` slotted pages behind a shared buffer
//! pool: every heap access goes through [`pagestore::BufferPool::fetch`],
//! so tables report *measured* page traffic (logical reads, misses,
//! evictions, write-backs) alongside the estimated cost model. An
//! in-memory directory maps each [`RowId`] to its current
//! [`TupleAddr`]; indexes likewise stay in memory, but the heap fetch an
//! index probe triggers is charged to the pool like any other.

use crate::codec;
use crate::cost::{CostModel, CostTracker};
use crate::error::{Error, Result};
use crate::expr::ColumnTest;
use crate::index::{Index, IndexKind};
use crate::schema::{Column, Schema};
use crate::value::{DataType, Value};
use pagestore::{slot_tuple, BufferPool, HeapFile, IoStats, PageId, SlotTuple, TupleAddr};
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::rc::Rc;
use std::time::Instant;

/// A row is an ordered list of values matching a table's schema.
pub type Row = Vec<Value>;

/// Identifies a row slot within a table's heap. Stable across deletes, but
/// invalidated by [`Table::cluster_on`] (which physically reorders the heap).
pub type RowId = u64;

/// Buffer-pool frames given to a table created without an explicit pool
/// (4 MiB of 8 KiB pages).
pub const DEFAULT_POOL_PAGES: usize = 512;

/// Per-row overhead charged by [`Table::storage_bytes`]
/// (PostgreSQL's tuple header is 23 bytes).
const ROW_HEADER: usize = 24;

/// Largest row id [`Table::open`] accepts from a stored tuple: the row
/// directory it sizes by that id lives in memory.
const MAX_ROW_ID: RowId = 1 << 28;

/// The page format a [`descriptor`](Table::descriptor) names: the Flat
/// tuple codec ([`codec`]), the one format there is.
const TUPLE_FORMAT: &str = "flat";

/// Physical row order of the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clustering {
    /// Insertion order; no correlation with any column.
    None,
    /// Rows physically sorted by this column (ascending). Fetches by this
    /// column in key order behave sequentially rather than randomly —
    /// the distinction Fig. 5.7 measures.
    On(usize),
}

#[derive(Debug)]
struct IndexEntry {
    column: usize,
    unique: bool,
    index: Index,
}

/// The heap pages a set of rows lives on, ascending, each with the
/// ascending slots wanted from it — what [`Table::locate`] resolves row
/// ids to, and the order a page-ordered fetch emits rows in.
#[derive(Debug, Default)]
pub(crate) struct TouchedPages {
    /// `(page ordinal, its range of `slots`)`.
    pages: Vec<(usize, Range<usize>)>,
    slots: Vec<u16>,
}

impl TouchedPages {
    /// Pages touched.
    pub(crate) fn len(&self) -> usize {
        self.pages.len()
    }

    /// Rows located.
    pub(crate) fn rows(&self) -> usize {
        self.slots.len()
    }

    /// The `i`-th touched page: its ordinal and wanted slots.
    pub(crate) fn page(&self, i: usize) -> (usize, &[u16]) {
        let (ord, slots) = &self.pages[i];
        (*ord, &self.slots[slots.clone()])
    }
}

/// A heap table stored on buffer-pooled slotted pages.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    pool: Rc<BufferPool>,
    heap: HeapFile,
    /// `RowId` → current tuple address; `None` marks a deleted row.
    directory: Vec<Option<TupleAddr>>,
    live_count: usize,
    /// Payload bytes of live rows plus `ROW_HEADER` each, kept incrementally.
    bytes_live: usize,
    clustering: Clustering,
    indexes: HashMap<String, IndexEntry>,
    /// The change log: every id an `update` or `delete` has reached since
    /// the table was created or opened, or `None` once ids or the schema
    /// were rewritten wholesale (see [`changed_ids`](Self::changed_ids)).
    changed: Option<BTreeSet<RowId>>,
    /// The heap cell every insert encodes its row into, reused so that an
    /// insert allocates nothing.
    cell: Vec<u8>,
}

impl Table {
    /// A table over its own private in-memory pool of
    /// [`DEFAULT_POOL_PAGES`] frames.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table::with_pool(
            name,
            schema,
            Rc::new(BufferPool::in_memory(DEFAULT_POOL_PAGES)),
        )
    }

    /// A table whose pages live in `pool` (shared with other tables of the
    /// same database).
    pub fn with_pool(name: impl Into<String>, schema: Schema, pool: Rc<BufferPool>) -> Self {
        Table {
            name: name.into(),
            schema,
            pool,
            heap: HeapFile::new(),
            directory: Vec::new(),
            live_count: 0,
            bytes_live: 0,
            clustering: Clustering::None,
            indexes: HashMap::new(),
            changed: Some(BTreeSet::new()),
            cell: Vec::new(),
        }
    }

    /// A [`with_pool`](Self::with_pool) table whose every page — data and
    /// overflow — is unlogged ([`HeapFile::unlogged`]): a checkpoint
    /// neither logs nor writes it back, the table directory never
    /// describes it, and a reopen frees its pages. For tables that die
    /// with their session.
    pub(crate) fn scratch(name: impl Into<String>, schema: Schema, pool: Rc<BufferPool>) -> Self {
        Table {
            heap: HeapFile::unlogged(),
            ..Table::with_pool(name, schema, pool)
        }
    }

    /// What the table directory records about this table, as a row: name,
    /// page format (always [`TUPLE_FORMAT`]), first heap page, a NULL where
    /// stores written before Flat became the one format kept a dictionary
    /// page, clustering column, column count; then name, type, nullable
    /// per column; then name, column, unique, is-btree per index (sorted
    /// by name, so equal tables describe themselves equally).
    pub(crate) fn descriptor(&self) -> Row {
        let first = self.heap.page_ids().first();
        let mut row = vec![
            Value::Text(self.name.clone()),
            Value::from(TUPLE_FORMAT),
            first.map_or(Value::Null, |&p| Value::Int64(i64::from(p))),
            Value::Null,
            match self.clustering {
                Clustering::None => Value::Null,
                Clustering::On(col) => Value::Int64(col as i64),
            },
            Value::Int64(self.schema.len() as i64),
        ];
        for c in self.schema.columns() {
            row.extend([
                Value::Text(c.name.clone()),
                Value::from(c.dtype.name()),
                Value::Bool(c.nullable),
            ]);
        }
        let mut indexes: Vec<_> = self.indexes.iter().collect();
        indexes.sort_by_key(|(name, _)| name.as_str());
        for (name, e) in indexes {
            row.extend([
                Value::Text(name.clone()),
                Value::Int64(e.column as i64),
                Value::Bool(e.unique),
                Value::Bool(e.index.kind() == IndexKind::BTree),
            ]);
        }
        row
    }

    /// Open the table a [`descriptor`](Self::descriptor) row describes by
    /// reading its pages once: the row directory, the live-row accounting
    /// and every index are rebuilt from the tuples, which carry their row
    /// ids. Nothing is written. Every page the table uses is added to
    /// `reached`. A row that is no descriptor is a typed error, and so is
    /// one naming another page format, before any page is read.
    pub(crate) fn open(
        desc: &[Value],
        pool: Rc<BufferPool>,
        reached: &mut Vec<PageId>,
    ) -> Result<Table> {
        let bad = || Error::Storage("malformed table descriptor".into());
        let page = |v: &Value| match v {
            Value::Null => Some(None),
            v => v.as_i64().and_then(|x| PageId::try_from(x).ok()).map(Some),
        };
        let [Value::Text(name), Value::Text(format), root, dict_root, clustering, Value::Int64(ncols), rest @ ..] =
            desc
        else {
            return Err(bad());
        };
        if format != TUPLE_FORMAT {
            return Err(Error::Storage(format!(
                "table {name}: page format {format} is not supported (only {TUPLE_FORMAT})"
            )));
        }
        if !dict_root.is_null() {
            return Err(bad());
        }
        let ncols = usize::try_from(*ncols).ok().and_then(|n| n.checked_mul(3));
        let (columns, indexes) = ncols
            .and_then(|n| rest.split_at_checked(n))
            .filter(|(_, indexes)| indexes.len() % 4 == 0)
            .ok_or_else(bad)?;
        let mut schema = Vec::new();
        for column in columns.chunks(3) {
            let [Value::Text(name), Value::Text(dtype), Value::Bool(nullable)] = column else {
                return Err(bad());
            };
            schema.push(Column {
                name: name.clone(),
                dtype: DataType::from_name(dtype).ok_or_else(bad)?,
                nullable: *nullable,
            });
        }
        // A column number is only good if the schema has that column.
        let width = schema.len();
        let column = |v: &Value| {
            let col = v.as_i64().and_then(|x| usize::try_from(x).ok());
            col.filter(|&c| c < width).ok_or_else(bad)
        };
        let mut table = Table::with_pool(name.clone(), Schema::new(schema), Rc::clone(&pool));
        if !clustering.is_null() {
            table.clustering = Clustering::On(column(clustering)?);
        }
        for index in indexes.chunks(4) {
            let [Value::Text(name), col, Value::Bool(unique), Value::Bool(btree)] = index else {
                return Err(bad());
            };
            let kind = [IndexKind::Hash, IndexKind::BTree][usize::from(*btree)];
            let entry = IndexEntry {
                column: column(col)?,
                unique: *unique,
                index: Index::new(kind),
            };
            table.indexes.insert(name.clone(), entry);
        }
        if let Some(root) = page(root).ok_or_else(bad)? {
            let adopt = |addr, bytes: &[u8]| table.adopt(addr, bytes);
            table.heap = HeapFile::open(&pool, root, reached, adopt)?;
        }
        Ok(table)
    }

    /// Account for one stored tuple found by [`open`](Self::open): what
    /// [`insert`](Self::insert) does for a new row, minus the write.
    fn adopt(&mut self, addr: TupleAddr, bytes: &[u8]) -> Result<()> {
        let (id, row) = codec::decode_row(bytes)?;
        self.schema.check_row(&row)?;
        self.check_unique(&row)?;
        let at = id as usize;
        if id >= MAX_ROW_ID || self.directory.get(at).is_some_and(Option::is_some) {
            return Err(Error::Storage(format!(
                "{}: stored row id {id} is out of range or repeated",
                self.name
            )));
        }
        if at >= self.directory.len() {
            self.directory.resize(at + 1, None);
        }
        self.directory[at] = Some(addr);
        self.note_live(id, Self::row_bytes(&row), Some(&row));
        Ok(())
    }

    /// Fail if `row` repeats a key of a unique index.
    fn check_unique(&self, row: &[Value]) -> Result<()> {
        for entry in self.indexes.values().filter(|e| e.unique) {
            if let Some(key) = row[entry.column].as_i64() {
                if !entry.index.get(key).is_empty() {
                    return Err(Error::DuplicateKey(format!(
                        "{}: key {} in column {}",
                        self.name, key, entry.column
                    )));
                }
            }
        }
        Ok(())
    }

    /// Enter live row `id`, of `bytes` ([`row_bytes`](Self::row_bytes)),
    /// into every index, whose keys are read from `row` (given whenever
    /// the table has an index), and into the byte accounting.
    fn note_live(&mut self, id: RowId, bytes: usize, row: Option<&[Value]>) {
        for entry in self.indexes.values_mut() {
            if let Some(key) = row.and_then(|row| row[entry.column].as_i64()) {
                entry.index.insert(key, id);
            }
        }
        self.bytes_live += bytes;
        self.live_count += 1;
    }

    /// Give every page of the table back to the pool (`drop_table`).
    pub(crate) fn free(mut self) -> Result<()> {
        Ok(self.heap.clear(&self.pool)?)
    }

    /// Whether this is a [`scratch`](Self::scratch) table.
    pub(crate) fn is_scratch(&self) -> bool {
        self.heap.is_unlogged()
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn clustering(&self) -> Clustering {
        self.clustering
    }

    /// The buffer pool backing this table's heap.
    pub fn pool(&self) -> &Rc<BufferPool> {
        &self.pool
    }

    /// Cumulative I/O counters of the backing pool. Shared-pool tables see
    /// traffic from every table on the pool; use [`CostTracker::measured`]
    /// for per-operation attribution.
    pub fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Number of live (non-deleted) rows.
    pub fn live_row_count(&self) -> usize {
        self.live_count
    }

    /// Total heap slots including tombstones. Ids are not reused until
    /// [`cluster_on`](Self::cluster_on) renumbers the rows, so every id at
    /// or past an earlier `heap_size` was inserted since.
    pub fn heap_size(&self) -> usize {
        self.directory.len()
    }

    /// Every id an `update` or `delete` has reached since the table was
    /// created or opened, ascending; a row whose id is not here holds what
    /// was inserted. An id is logged before the write that could change
    /// it, so a failed write can only over-report. `None` once
    /// [`cluster_on`](Self::cluster_on), [`add_column`](Self::add_column)
    /// or [`widen_column`](Self::widen_column) rewrote the ids or the schema.
    pub fn changed_ids(&self) -> Option<&BTreeSet<RowId>> {
        self.changed.as_ref()
    }

    /// Log `id` as changed ([`changed_ids`](Self::changed_ids)).
    fn mark_changed(&mut self, id: RowId) {
        if let Some(changed) = &mut self.changed {
            changed.insert(id);
        }
    }

    /// Data pages currently in the heap file.
    pub fn num_heap_pages(&self) -> usize {
        self.heap.num_pages()
    }

    /// Approximate storage footprint in bytes (live rows + per-row header).
    pub fn storage_bytes(&self) -> usize {
        self.bytes_live
    }

    /// Physical bytes this table's live tuples occupy on heap pages,
    /// computed by scanning the heap.
    pub fn encoded_bytes(&self) -> Result<usize> {
        let mut total = 0;
        for ord in 0..self.heap.num_pages() {
            for (_, bytes) in self.heap.tuples_on_page(&self.pool, ord)? {
                total += bytes.len();
            }
        }
        Ok(total)
    }

    fn row_bytes(row: &[Value]) -> usize {
        ROW_HEADER + row.iter().map(Value::byte_size).sum::<usize>()
    }

    fn addr_of(&self, id: RowId) -> Result<TupleAddr> {
        self.directory
            .get(id as usize)
            .copied()
            .flatten()
            .ok_or(Error::RowNotFound(id))
    }

    /// Read and decode the live row at `id`.
    fn read_row(&self, id: RowId) -> Result<Row> {
        let addr = self.addr_of(id)?;
        let bytes = self.heap.get(&self.pool, addr)?;
        let (stored_id, row) = codec::decode_row(&bytes)?;
        self.pool.note_tuples_decoded(1);
        debug_assert_eq!(stored_id, id);
        Ok(row)
    }

    /// Number the next inserted row `first` or later: the ids below it are
    /// left unused, as if their rows had been inserted and deleted.
    pub fn reserve_ids(&mut self, first: RowId) {
        if (self.directory.len() as RowId) < first {
            self.directory.resize(first as usize, None);
        }
    }

    /// Insert a row, maintaining all indexes. Returns the new row's id.
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        Ok(self.insert_many([row])?.start)
    }

    /// Insert rows, owned or borrowed, in order, maintaining all indexes;
    /// returns their ids, which are consecutive. Each row is checked
    /// against the schema and the unique indexes (rows earlier in the
    /// batch included) and encoded into the table's one reused cell, so a
    /// row is copied once, onto its page. Stops at the first error,
    /// keeping the rows before it.
    pub fn insert_many(
        &mut self,
        rows: impl IntoIterator<Item = impl AsRef<[Value]>>,
    ) -> Result<Range<RowId>> {
        let first = self.directory.len() as RowId;
        let rows = rows.into_iter();
        self.directory.reserve(rows.size_hint().0);
        for row in rows {
            let row = row.as_ref();
            self.schema.check_row(row)?;
            // Enforce uniqueness before touching any index.
            self.check_unique(row)?;
            let id = self.directory.len() as RowId;
            HeapFile::begin_cell(&mut self.cell);
            codec::encode_into(id, row, &mut self.cell);
            self.push_cell(id, Self::row_bytes(row), Some(row))?;
        }
        Ok(first..self.directory.len() as RowId)
    }

    /// [`insert_many`](Self::insert_many) of rows given as their encoded
    /// values, the bytes [`codec::encode_values`] writes for a row: each
    /// is checked against the schema — a row of words by one pass over its
    /// tags, without decoding it — and copied once, behind its row id and
    /// count, onto its page. It refuses exactly the rows `insert_many`
    /// would refuse decoded, with a typed error, and stops there, keeping
    /// the rows before it.
    pub fn insert_encoded<'v>(
        &mut self,
        rows: impl IntoIterator<Item = &'v [u8]>,
    ) -> Result<Range<RowId>> {
        let first = self.directory.len() as RowId;
        for values in rows {
            // An index needs the row's keys.
            let decode = !self.indexes.is_empty();
            let (size, row) = codec::admit_values(values, &self.schema, decode)?;
            if let Some(row) = &row {
                self.check_unique(row)?;
            }
            let id = self.directory.len() as RowId;
            HeapFile::begin_cell(&mut self.cell);
            codec::encode_header(id, self.schema.len(), &mut self.cell);
            self.cell.extend_from_slice(values);
            self.push_cell(id, ROW_HEADER + size, row.as_deref())?;
        }
        Ok(first..self.directory.len() as RowId)
    }

    /// Store the tuple in `self.cell` as row `id`, the next one, and note
    /// it live ([`note_live`](Self::note_live)).
    fn push_cell(&mut self, id: RowId, bytes: usize, row: Option<&[Value]>) -> Result<()> {
        // The cell's tag byte is not the tuple's.
        self.pool.note_tuple_encoded(self.cell.len() as u64 - 1);
        let addr = self.heap.insert_cell(&self.pool, &self.cell)?;
        self.directory.push(Some(addr));
        self.note_live(id, bytes, row);
        Ok(())
    }

    /// Delete a row by id (tombstone in the directory, slot reclaimed on
    /// the page).
    pub fn delete(&mut self, id: RowId) -> Result<()> {
        let addr = self.addr_of(id)?;
        self.mark_changed(id);
        let row = self.read_row(id)?;
        for entry in self.indexes.values_mut() {
            if let Some(key) = row[entry.column].as_i64() {
                entry.index.remove(key, id);
            }
        }
        self.heap.delete(&self.pool, addr)?;
        self.directory[id as usize] = None;
        self.bytes_live -= Self::row_bytes(&row);
        self.live_count -= 1;
        Ok(())
    }

    /// Replace a row in place, maintaining indexes. Uniqueness is validated
    /// across *all* indexes before any index is mutated, so a failed update
    /// leaves the table untouched.
    pub fn update(&mut self, id: RowId, row: Row) -> Result<()> {
        let addr = self.addr_of(id)?;
        self.mark_changed(id);
        self.schema.check_row(&row)?;
        let old = self.read_row(id)?;
        for entry in self.indexes.values() {
            let old_key = old[entry.column].as_i64();
            let new_key = row[entry.column].as_i64();
            if entry.unique && old_key != new_key {
                if let Some(k) = new_key {
                    if !entry.index.get(k).is_empty() {
                        return Err(Error::DuplicateKey(format!(
                            "{}: key {k} in column {}",
                            self.name, entry.column
                        )));
                    }
                }
            }
        }
        for entry in self.indexes.values_mut() {
            let old_key = old[entry.column].as_i64();
            let new_key = row[entry.column].as_i64();
            if old_key != new_key {
                if let Some(k) = old_key {
                    entry.index.remove(k, id);
                }
                if let Some(k) = new_key {
                    entry.index.insert(k, id);
                }
            }
        }
        let bytes = codec::encode_row(id, &row);
        self.pool.note_tuple_encoded(bytes.len() as u64);
        let new_addr = self.heap.update(&self.pool, addr, &bytes)?;
        self.directory[id as usize] = Some(new_addr);
        self.bytes_live += Self::row_bytes(&row);
        self.bytes_live -= Self::row_bytes(&old);
        Ok(())
    }

    /// Fetch a live row by id (a buffer-pool page access).
    pub fn get(&self, id: RowId) -> Option<Row> {
        self.read_row(id).ok()
    }

    /// Every live row in physical (page) order, read page by page as
    /// [`read_page_rows`](Self::read_page_rows) reads them.
    pub fn rows(&self) -> Result<Vec<(RowId, Row)>> {
        let mut rows = Vec::with_capacity(self.live_count);
        let mut tracker = CostTracker::default();
        for ord in 0..self.heap.num_pages() {
            rows.extend(self.read_page_rows(ord, &mut tracker)?);
        }
        Ok(rows)
    }

    /// The live rows among `ids`, in the order [`rows`](Self::rows)
    /// returns them (page, then slot); ids of deleted rows are skipped.
    pub fn rows_of(&self, ids: impl IntoIterator<Item = RowId>) -> Result<Vec<(RowId, Row)>> {
        let mut live: Vec<(TupleAddr, RowId)> = ids
            .into_iter()
            .filter_map(|id| Some((self.addr_of(id).ok()?, id)))
            .collect();
        live.sort_unstable_by_key(|&(addr, _)| (addr.page_ord, addr.slot));
        live.into_iter()
            .map(|(_, id)| Ok((id, self.read_row(id)?)))
            .collect()
    }

    /// [`rows`](Self::rows) for inspection: a table that cannot be read
    /// iterates as empty, so never rebuild state from this. Nothing in
    /// the workspace calls it; it stays because `benchmarks/loadgen`,
    /// which links this crate and is not edited with it, does.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, Row)> {
        self.rows().unwrap_or_default().into_iter()
    }

    /// The stored tuples of data page `page_ord`, byte for byte, in slot
    /// order: what [`read_page_rows`](Self::read_page_rows) decodes. An
    /// inline tuple is copied once, off the page.
    pub fn read_page_tuples(&self, page_ord: usize) -> Result<Vec<std::sync::Arc<[u8]>>> {
        let tuples = self.heap.tuples_on_page(&self.pool, page_ord)?;
        Ok(tuples.into_iter().map(|(_, bytes)| bytes).collect())
    }

    /// Decode every live row on data page `page_ord`, attributing the
    /// measured page traffic to `tracker`. The unit of a paged seq scan.
    pub fn read_page_rows(
        &self,
        page_ord: usize,
        tracker: &mut CostTracker,
    ) -> Result<Vec<(RowId, Row)>> {
        let before = self.pool.stats();
        let tuples = self.heap.tuples_on_page(&self.pool, page_ord)?;
        tracker.measured.absorb(&self.pool.stats().since(&before));
        // Decode outside the measured window: decoding reads the already
        // materialized bytes, never the pool.
        let started = Instant::now();
        let mut out = Vec::with_capacity(tuples.len());
        for (_, bytes) in tuples {
            out.push(codec::decode_row(&bytes)?);
        }
        self.pool.note_tuples_decoded(out.len() as u64);
        self.pool.note_decode_time(started.elapsed());
        Ok(out)
    }

    /// Decode the rows in `slots` of data page `page_ord` that pass
    /// `test`, in place under one pin — no tuple bytes are copied unless a
    /// tuple overflowed, and a tuple that fails is never decoded —
    /// attributing the measured page traffic to `tracker`. The unit of a
    /// page-ordered fetch.
    pub(crate) fn read_slot_rows(
        &self,
        page_ord: usize,
        slots: &[u16],
        test: Option<&ColumnTest>,
        tracker: &mut CostTracker,
    ) -> Result<Vec<Row>> {
        let before = self.pool.stats();
        // In slot order; an overflow tuple's entry is filled in below.
        let mut rows = Vec::with_capacity(slots.len());
        let mut chains = Vec::new();
        let started;
        {
            let page = self.heap.pin_page(&self.pool, page_ord)?;
            started = Instant::now();
            for &slot in slots {
                match slot_tuple(&page, slot)? {
                    SlotTuple::Inline(bytes) => rows.push(codec::decode_if(bytes, test)?),
                    SlotTuple::Overflow(head) => {
                        chains.push((rows.len(), head));
                        rows.push(None);
                    }
                }
            }
        }
        let mut decode_time = started.elapsed();
        // Chains are read with the data page unpinned, as `HeapFile::get`
        // does: a small pool needs the frame. Only their decoding is timed.
        for (i, head) in chains {
            let bytes = self.heap.read_chain(&self.pool, head)?;
            let started = Instant::now();
            rows[i] = codec::decode_if(&bytes, test)?;
            decode_time += started.elapsed();
        }
        let rows: Vec<Row> = rows.into_iter().flatten().collect();
        tracker.measured.absorb(&self.pool.stats().since(&before));
        self.pool.note_tuples_decoded(rows.len() as u64);
        self.pool.note_decode_time(decode_time);
        Ok(rows)
    }

    /// Create an index on `column`. The column must be `Int64`.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        column: &str,
        unique: bool,
        kind: IndexKind,
    ) -> Result<()> {
        let name = name.into();
        let col = self.schema.index_of(column)?;
        if self.schema.column(col).map(|c| c.dtype) != Some(DataType::Int64) {
            return Err(Error::TypeError(format!(
                "index {name}: only Int64 columns are indexable"
            )));
        }
        let mut index = Index::new(kind);
        for (id, row) in self.rows()? {
            if let Some(key) = row[col].as_i64() {
                if unique && !index.get(key).is_empty() {
                    return Err(Error::DuplicateKey(format!(
                        "{}: key {key} while building unique index {name}",
                        self.name
                    )));
                }
                index.insert(key, id);
            }
        }
        self.indexes.insert(
            name,
            IndexEntry {
                column: col,
                unique,
                index,
            },
        );
        Ok(())
    }

    pub fn has_index(&self, name: &str) -> bool {
        self.indexes.contains_key(name)
    }

    /// Look up row ids by key via an index, charging index-probe cost.
    pub fn index_lookup(
        &self,
        index: &str,
        key: i64,
        tracker: &mut CostTracker,
    ) -> Result<&[RowId]> {
        let entry = self
            .indexes
            .get(index)
            .ok_or_else(|| Error::IndexNotFound(index.to_owned()))?;
        tracker.index_probes(1);
        Ok(entry.index.get(key))
    }

    /// Resolve row `ids` through the row directory to the pages and slots
    /// holding their rows. An id with no live row — deleted, negative or
    /// past the directory — is skipped; no page is touched.
    pub(crate) fn locate(&self, ids: impl IntoIterator<Item = i64>) -> TouchedPages {
        let addr = |id: i64| {
            self.directory
                .get(usize::try_from(id).ok()?)
                .copied()
                .flatten()
        };
        let mut addrs: Vec<TupleAddr> = ids.into_iter().filter_map(addr).collect();
        addrs.sort_unstable_by_key(|a| (a.page_ord, a.slot));
        let mut touched = TouchedPages::default();
        for addr in addrs {
            let ord = addr.page_ord as usize;
            let at = touched.slots.len();
            touched.slots.push(addr.slot);
            match touched.pages.last_mut() {
                Some((last, slots)) if *last == ord => slots.end = at + 1,
                _ => touched.pages.push((ord, at..at + 1)),
            }
        }
        touched
    }

    /// Column an index is built over.
    pub fn index_column(&self, index: &str) -> Result<usize> {
        self.indexes
            .get(index)
            .map(|e| e.column)
            .ok_or_else(|| Error::IndexNotFound(index.to_owned()))
    }

    /// Fetch rows by id, charging heap I/O according to the physical layout.
    ///
    /// When the table is clustered on `via_column`, row ids correlate with
    /// physical position, so id-ordered fetches touch heap pages in order:
    /// a fetch on the same page as the previous one is free, the next page
    /// costs a sequential read, and any larger jump costs a random read.
    /// This is the mechanism behind Fig. 5.7: sparse probe sets pay one
    /// random page each, while dense probe sets degrade gracefully into a
    /// sequential scan. `last_page` carries the page-position state across
    /// calls (the index-nested-loop join probes one outer row at a time).
    /// Tombstoned ids are skipped; any other read failure is returned.
    ///
    /// The estimated charge models a cold read of every page; the measured
    /// counters record what the pool actually did (repeat probes of a hot
    /// page are buffer hits).
    pub fn fetch_with_state(
        &self,
        ids: &[RowId],
        via_column: Option<usize>,
        tracker: &mut CostTracker,
        model: &CostModel,
        last_page: &mut Option<u64>,
    ) -> Result<Vec<Row>> {
        let clustered = match (self.clustering, via_column) {
            (Clustering::On(c), Some(v)) => c == v,
            _ => false,
        };
        let rpp = model.rows_per_page as u64;
        for &id in ids {
            if clustered {
                let page = id / rpp;
                match *last_page {
                    Some(lp) if page == lp => {}
                    Some(lp) if page == lp + 1 => tracker.seq_pages += 1,
                    _ => tracker.random_pages += 1,
                }
                *last_page = Some(page);
            } else {
                tracker.random_pages += 1;
            }
        }
        tracker.tuples += ids.len() as u64;
        let before = self.pool.stats();
        // Only a tombstoned id is "no row"; a storage error is an error.
        let rows = ids
            .iter()
            .filter_map(|&id| match self.read_row(id) {
                Err(Error::RowNotFound(_)) => None,
                row => Some(row),
            })
            .collect();
        tracker.measured.absorb(&self.pool.stats().since(&before));
        rows
    }

    /// [`Table::fetch_with_state`] with fresh page state (batch fetches).
    pub fn fetch(
        &self,
        ids: &[RowId],
        via_column: Option<usize>,
        tracker: &mut CostTracker,
        model: &CostModel,
    ) -> Result<Vec<Row>> {
        let mut state = None;
        self.fetch_with_state(ids, via_column, tracker, model, &mut state)
    }

    /// Physically re-sort the heap by `column` (PostgreSQL `CLUSTER`).
    /// Compacts tombstones, invalidates old row ids, rewrites every heap
    /// page, and rebuilds indexes.
    pub fn cluster_on(&mut self, column: &str) -> Result<()> {
        let col = self.schema.index_of(column)?;
        self.changed = None;
        let mut live_rows: Vec<Row> = self.rows()?.into_iter().map(|(_, r)| r).collect();
        live_rows.sort_by(|a, b| a[col].total_cmp(&b[col]));
        let specs: Vec<(String, usize, bool, IndexKind)> = self
            .indexes
            .iter()
            .map(|(n, e)| (n.clone(), e.column, e.unique, e.index.kind()))
            .collect();
        self.indexes.clear();
        self.heap.clear(&self.pool)?;
        self.directory.clear();
        self.live_count = 0;
        self.bytes_live = 0;
        for row in live_rows {
            self.insert(row)?;
        }
        for (name, col, unique, kind) in specs {
            let colname = self
                .schema
                .column(col)
                .ok_or_else(|| Error::ColumnNotFound(format!("column #{col}")))?
                .name
                .clone();
            self.create_index(name, &colname, unique, kind)?;
        }
        self.clustering = Clustering::On(col);
        Ok(())
    }

    /// Rewrite the live row at `id` with `f` applied, keeping the directory
    /// and byte accounting consistent. Index keys must not change.
    fn rewrite_row(&mut self, id: RowId, f: impl FnOnce(&mut Row)) -> Result<()> {
        let addr = self.addr_of(id)?;
        self.mark_changed(id);
        let mut row = self.read_row(id)?;
        self.bytes_live -= Self::row_bytes(&row);
        f(&mut row);
        self.bytes_live += Self::row_bytes(&row);
        let bytes = codec::encode_row(id, &row);
        self.pool.note_tuple_encoded(bytes.len() as u64);
        let new_addr = self.heap.update(&self.pool, addr, &bytes)?;
        self.directory[id as usize] = Some(new_addr);
        Ok(())
    }

    fn live_ids(&self) -> Vec<RowId> {
        self.directory
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.map(|_| i as RowId))
            .collect()
    }

    /// Add a column (schema evolution). Existing rows get `fill`.
    pub fn add_column(&mut self, col: Column, fill: Value) -> Result<()> {
        if !col.nullable && fill.is_null() {
            return Err(Error::SchemaMismatch(format!(
                "non-nullable column {} cannot be back-filled with NULL",
                col.name
            )));
        }
        codec::check_width(self.schema.len() + 1)?;
        self.changed = None;
        self.schema.add_column(col)?;
        for id in self.live_ids() {
            let fill = fill.clone();
            self.rewrite_row(id, |row| row.push(fill))?;
        }
        Ok(())
    }

    /// Widen a column's type, converting stored values (§4.3 single-pool).
    pub fn widen_column(&mut self, name: &str, to: DataType) -> Result<()> {
        let col = self.schema.index_of(name)?;
        self.changed = None;
        self.schema.widen_column(name, to)?;
        for id in self.live_ids() {
            self.rewrite_row(id, |row| {
                if let Some(widened) = row[col].widen(to) {
                    row[col] = widened;
                }
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tbl() -> Table {
        Table::new(
            "t",
            Schema::new(vec![
                Column::new("rid", DataType::Int64),
                Column::new("x", DataType::Int64),
            ]),
        )
    }

    #[test]
    fn insert_get_delete() {
        let mut t = tbl();
        let id = t.insert(vec![Value::Int64(1), Value::Int64(10)]).unwrap();
        assert_eq!(t.get(id).unwrap()[1], Value::Int64(10));
        t.delete(id).unwrap();
        assert!(t.get(id).is_none());
        assert_eq!(t.live_row_count(), 0);
        assert!(t.delete(id).is_err());
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let mut t = tbl();
        t.create_index("pk", "rid", true, IndexKind::BTree).unwrap();
        t.insert(vec![Value::Int64(1), Value::Int64(0)]).unwrap();
        let err = t.insert(vec![Value::Int64(1), Value::Int64(1)]);
        assert!(matches!(err, Err(Error::DuplicateKey(_))));
        assert_eq!(t.live_row_count(), 1);
    }

    /// A batch whose fourth row repeats the second's key: `insert_many`
    /// of borrowed rows stops there with the error, keeping the three rows
    /// before it, indexed, exactly as a loop of `insert` does.
    #[test]
    fn insert_many_stops_at_an_in_batch_duplicate_like_a_loop_of_insert() {
        let rows: Vec<Row> = [1, 2, 3, 2, 5]
            .map(|k| vec![Value::Int64(k), Value::Int64(k * 10)])
            .to_vec();
        let (mut batch, mut looped) = (tbl(), tbl());
        for t in [&mut batch, &mut looped] {
            t.create_index("pk", "rid", true, IndexKind::BTree).unwrap();
        }
        let err = batch.insert_many(rows.iter());
        assert!(matches!(err, Err(Error::DuplicateKey(_))), "{err:?}");
        let looped_err = rows
            .iter()
            .try_for_each(|r| looped.insert(r.clone()).map(drop));
        assert_eq!(err.map(drop), looped_err);
        assert_eq!(batch.rows().unwrap(), looped.rows().unwrap());
        assert_eq!(batch.live_row_count(), 3);
        let mut tr = CostTracker::new();
        for k in 1..=5 {
            let ids = batch.index_lookup("pk", k, &mut tr).unwrap();
            assert_eq!(
                ids,
                looped.index_lookup("pk", k, &mut tr).unwrap(),
                "key {k}"
            );
        }
        let next = vec![Value::Int64(9), Value::Int64(0)];
        assert_eq!(batch.insert_many([&next]).unwrap(), 3..4);
        assert_eq!(looped.insert(next).unwrap(), 3);
    }

    #[test]
    fn index_lookup_after_update() {
        let mut t = tbl();
        t.create_index("ix", "x", false, IndexKind::Hash).unwrap();
        let id = t.insert(vec![Value::Int64(1), Value::Int64(10)]).unwrap();
        t.update(id, vec![Value::Int64(1), Value::Int64(20)])
            .unwrap();
        let mut tr = CostTracker::new();
        assert!(t.index_lookup("ix", 10, &mut tr).unwrap().is_empty());
        assert_eq!(t.index_lookup("ix", 20, &mut tr).unwrap(), [id]);
    }

    #[test]
    fn failed_update_leaves_all_indexes_intact() {
        let mut t = tbl();
        t.create_index("x_ix", "x", false, IndexKind::Hash).unwrap();
        t.create_index("rid_pk", "rid", true, IndexKind::BTree)
            .unwrap();
        t.insert(vec![Value::Int64(1), Value::Int64(10)]).unwrap();
        let id = t.insert(vec![Value::Int64(2), Value::Int64(20)]).unwrap();
        // Update would change x (non-unique) AND collide on rid (unique):
        // must fail without disturbing either index.
        let err = t.update(id, vec![Value::Int64(1), Value::Int64(99)]);
        assert!(matches!(err, Err(Error::DuplicateKey(_))));
        let mut tr = CostTracker::new();
        assert_eq!(t.index_lookup("x_ix", 20, &mut tr).unwrap(), [id]);
        assert!(t.index_lookup("x_ix", 99, &mut tr).unwrap().is_empty());
        assert_eq!(t.index_lookup("rid_pk", 2, &mut tr).unwrap(), [id]);
    }

    #[test]
    fn cluster_sorts_physically() {
        let mut t = tbl();
        for v in [3i64, 1, 2] {
            t.insert(vec![Value::Int64(v), Value::Int64(v * 10)])
                .unwrap();
        }
        t.delete(1).unwrap(); // remove rid=1
        t.cluster_on("rid").unwrap();
        let rows = t.rows().unwrap();
        let rids: Vec<i64> = rows.iter().map(|(_, r)| r[0].as_i64().unwrap()).collect();
        assert_eq!(rids, vec![2, 3]);
        assert_eq!(t.clustering(), Clustering::On(0));
    }

    #[test]
    fn fetch_cost_depends_on_clustering() {
        let mut t = tbl();
        for v in 0..100i64 {
            t.insert(vec![Value::Int64(v), Value::Int64(v)]).unwrap();
        }
        t.cluster_on("rid").unwrap();
        let ids: Vec<RowId> = (0..100).collect();
        let model = CostModel::default();
        let mut clustered = CostTracker::new();
        t.fetch(&ids, Some(0), &mut clustered, &model).unwrap();
        let mut random = CostTracker::new();
        t.fetch(&ids, Some(1), &mut random, &model).unwrap();
        assert!(clustered.total(&model) < random.total(&model) / 5.0);
    }

    #[test]
    fn add_and_widen_column() {
        let mut t = tbl();
        t.insert(vec![Value::Int64(1), Value::Int64(2)]).unwrap();
        t.add_column(Column::nullable("y", DataType::Int64), Value::Null)
            .unwrap();
        assert_eq!(t.get(0).unwrap()[2], Value::Null);
        t.widen_column("x", DataType::Float64).unwrap();
        assert_eq!(t.get(0).unwrap()[1], Value::Float64(2.0));
    }

    #[test]
    fn storage_bytes_counts_live_rows_only() {
        let mut t = tbl();
        t.insert(vec![Value::Int64(1), Value::Int64(2)]).unwrap();
        t.insert(vec![Value::Int64(2), Value::Int64(3)]).unwrap();
        let before = t.storage_bytes();
        t.delete(0).unwrap();
        assert!(t.storage_bytes() < before);
    }

    #[test]
    fn rows_live_on_pages_and_charge_measured_io() {
        // Wide rows over a tiny pool: the table must still behave like an
        // in-memory heap while the pool churns underneath.
        let mut t = Table::with_pool(
            "big",
            Schema::new(vec![
                Column::new("rid", DataType::Int64),
                Column::new("payload", DataType::Text),
            ]),
            Rc::new(BufferPool::in_memory(4)),
        );
        let n = 200i64;
        for v in 0..n {
            t.insert(vec![Value::Int64(v), Value::Text("x".repeat(512))])
                .unwrap();
        }
        assert!(t.num_heap_pages() > t.pool().capacity());
        let before = t.io_stats();
        assert_eq!(t.rows().unwrap().len(), n as usize);
        // The scan touched more distinct pages than fit in the pool, so it
        // must have gone to the pager for most of them.
        let scan = t.io_stats().since(&before);
        assert!(scan.logical_reads >= t.num_heap_pages() as u64);
        assert!(scan.physical_reads > t.pool().capacity() as u64);
        assert!(scan.evictions > 0);
    }

    /// Regression: `fetch` went through `get` (`read_row(..).ok()`) and the
    /// index build through a lossy `iter` (`unwrap_or_default()`), so a
    /// page the pool could not supply came back as *fewer rows* — a short
    /// checkout, a partial index, a `cluster_on` that dropped rows.
    #[test]
    fn storage_errors_surface_instead_of_shortening_results() {
        let mut t = Table::with_pool(
            "wide",
            Schema::new(vec![
                Column::new("rid", DataType::Int64),
                Column::new("payload", DataType::Text),
            ]),
            Rc::new(BufferPool::in_memory(2)),
        );
        for v in 0..40i64 {
            t.insert(vec![Value::Int64(v), Value::Text("x".repeat(1_000))])
                .unwrap();
        }
        assert!(t.num_heap_pages() > 4);
        let ids: Vec<RowId> = (0..40).collect();
        let (model, mut tr) = (CostModel::default(), CostTracker::new());
        assert_eq!(t.fetch(&ids, None, &mut tr, &model).unwrap().len(), 40);
        t.delete(7).unwrap();
        assert_eq!(t.fetch(&ids, None, &mut tr, &model).unwrap().len(), 39);
        let pool = Rc::clone(t.pool());
        {
            // Both frames pinned: every other page is unreadable.
            let _a = pool.fetch(0).unwrap();
            let _b = pool.fetch(1).unwrap();
            assert!(matches!(
                t.fetch(&ids, None, &mut tr, &model),
                Err(Error::Storage(_))
            ));
            assert!(t.rows().is_err());
            assert!(t.create_index("pk", "rid", true, IndexKind::BTree).is_err());
            assert!(!t.has_index("pk"));
            assert!(t.cluster_on("rid").is_err());
        }
        assert_eq!(t.live_row_count(), 39);
        assert_eq!(t.fetch(&ids, None, &mut tr, &model).unwrap().len(), 39);
    }

    #[test]
    fn the_change_log_names_every_row_a_write_reached() {
        let mut t = tbl();
        for v in 0..4i64 {
            t.insert(vec![Value::Int64(v), Value::Int64(v)]).unwrap();
        }
        assert!(
            t.changed_ids().unwrap().is_empty(),
            "inserts are not changes"
        );
        t.update(1, vec![Value::Int64(1), Value::Int64(9)]).unwrap();
        t.delete(2).unwrap();
        // A write that fails has still been logged: the log over-reports.
        t.create_index("pk", "rid", true, IndexKind::BTree).unwrap();
        assert!(t.update(3, vec![Value::Int64(0), Value::Int64(3)]).is_err());
        assert!(t.delete(9).is_err(), "no such row: nothing to log");
        t.insert(vec![Value::Int64(7), Value::Int64(7)]).unwrap();
        let logged: Vec<RowId> = t.changed_ids().unwrap().iter().copied().collect();
        assert_eq!(logged, [1, 2, 3]);
        let rewrites: [fn(&mut Table) -> Result<()>; 3] = [
            |t| t.cluster_on("x"),
            |t| t.add_column(Column::nullable("y", DataType::Int64), Value::Null),
            |t| t.widen_column("x", DataType::Float64),
        ];
        for rewrite in rewrites {
            let mut t = tbl();
            t.insert(vec![Value::Int64(1), Value::Int64(2)]).unwrap();
            rewrite(&mut t).unwrap();
            assert!(t.changed_ids().is_none(), "ids or schema were rewritten");
        }
    }

    /// An update that outgrows its page moves the row; `rows_of` still
    /// returns rows in the order `rows` does, not in id order.
    #[test]
    fn rows_of_follows_the_heap_order() {
        let mut t = Table::new(
            "wide",
            Schema::new(vec![
                Column::new("rid", DataType::Int64),
                Column::new("payload", DataType::Text),
            ]),
        );
        for v in 0..30i64 {
            t.insert(vec![Value::Int64(v), Value::Text("x".repeat(500))])
                .unwrap();
        }
        t.update(2, vec![Value::Int64(2), Value::Text("y".repeat(3_000))])
            .unwrap();
        t.delete(5).unwrap();
        let rows = t.rows().unwrap();
        assert_ne!(rows[2].0, 2, "row 2 relocated");
        assert_eq!(t.rows_of(0..30).unwrap(), rows);
        let some: Vec<_> = rows.iter().filter(|(id, _)| id % 2 == 0).cloned().collect();
        let ids = [4, 2, 0, 5, 99].into_iter().chain((6..30).step_by(2));
        assert_eq!(t.rows_of(ids).unwrap(), some);
    }

    #[test]
    fn repeated_gets_hit_the_buffer_pool() {
        let mut t = tbl();
        let id = t.insert(vec![Value::Int64(1), Value::Int64(10)]).unwrap();
        let before = t.io_stats();
        for _ in 0..10 {
            t.get(id).unwrap();
        }
        let d = t.io_stats().since(&before);
        assert_eq!(d.logical_reads, 10);
        assert_eq!(d.physical_reads, 0, "resident page must not be re-read");
    }
}
