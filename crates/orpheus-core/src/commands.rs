//! The OrpheusDB command surface (§3.3): git-style version control
//! commands, the access-controlled staging area, user management, CSV
//! import/export, and the `run` command for versioned SQL. A command line
//! is parsed by [`Command::parse`] and run here.
//!
//! `OrpheusDb` plays the role of the middleware in Fig. 3.1: the query
//! translator ([`crate::query`]), record/version managers
//! ([`crate::cvd`]), partition optimizer (`optimize`: a LyreSplit plan
//! from [`partition`]), provenance manager (the staging registry here),
//! and the access controller (staging-table ownership checks).

use crate::command::{Command, View};
use crate::cvd::{only_in, Changes, CommitResult, Cvd};
use crate::error::{Error, Result};
use crate::metadata;
use crate::plan::{self, Decorator, Instrumented, LogicalPlan, Plain, RidSet, Tables};
use crate::query::{parse_query, QueryResult, VQuery};
use partition::{lyresplit_for_budget, LyreSplitResult, Rid, Vid};
use relstore::{Column, DataType, Database, ExecContext, Row, RowId, Schema, Value};
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::time::Instant;

/// Provenance metadata of an uncommitted checkout (staging table or file):
/// which CVD and parent versions it derives from, who owns it, and when it
/// was created (§3.2, provenance manager).
#[derive(Debug, Clone, PartialEq)]
pub struct StagingInfo {
    pub cvd: String,
    pub parents: Vec<Vid>,
    pub owner: String,
    pub created_at: u64,
    /// The rid of each checked-out row, indexed by its `RowId`.
    rids: Vec<Rid>,
    /// Whether the rows of `rids` are in the staging table. Until the
    /// first read they are not: the table holds the inserted rows alone,
    /// numbered from `rids.len()` (see [`OrpheusDb::checkout`]).
    copied: bool,
    /// A single-parent checkout of a CVD with a primary key: the only
    /// kind a commit by rid applies to (see [`changes_of`]).
    keyed: bool,
}

/// Output of [`OrpheusDb::execute`].
#[derive(Debug, Clone, PartialEq)]
pub enum CommandOutput {
    Message(String),
    Version(Vid),
    Table(QueryResult),
    Listing(Vec<String>),
}

/// The OrpheusDB middleware.
pub struct OrpheusDb {
    db: Database,
    cvds: HashMap<String, Cvd>,
    users: Vec<String>,
    current_user: Option<String>,
    staging: HashMap<String, StagingInfo>,
    clock: u64,
    /// Cumulative cost accounting across every command this instance ran.
    /// Commands absorb their per-query trackers here instead of dropping
    /// them, so `metrics` reports lifetime estimated I/O.
    tracker: RefCell<relstore::CostTracker>,
    /// Whether every command that changes the catalog tables (`commit`,
    /// `init`, `drop`, `create_user`) ends with its own durability point
    /// (the default). The server's group-commit path turns this off and
    /// issues one checkpoint per *batch* of such commands instead, so N
    /// concurrent commits cost one WAL fsync rather than N.
    auto_checkpoint: bool,
    /// Slow-query threshold in milliseconds (default
    /// [`obs::journal::DEFAULT_SLOW_MS`]): any command taking at least
    /// this long logs one structured line to stderr with its trace id and
    /// top self-time spans. `0` logs every command. Always on —
    /// independent of journal sampling.
    slow_ms: u64,
    /// The first durability point that failed, once one has. The instance
    /// then holds changes the store may lack, so it serves nothing more
    /// and writes nothing back: a reopen recovers the last durability
    /// point that held.
    poisoned: OnceCell<String>,
}

impl Default for OrpheusDb {
    fn default() -> Self {
        Self::new()
    }
}

impl OrpheusDb {
    pub fn new() -> Self {
        OrpheusDb::over(Database::new())
    }

    fn over(db: Database) -> Self {
        // A checkout is copied only when read, so most runs never add to
        // these: `metrics --json` carries them from the start, at zero.
        for counter in [
            "orpheus.checkout.rows_copied",
            "orpheus.checkout.materialized",
        ] {
            db.metrics().counter_add(counter, 0);
        }
        OrpheusDb {
            db,
            cvds: HashMap::new(),
            users: Vec::new(),
            current_user: None,
            staging: HashMap::new(),
            clock: 0,
            tracker: RefCell::new(relstore::CostTracker::new()),
            auto_checkpoint: true,
            slow_ms: obs::journal::DEFAULT_SLOW_MS,
            poisoned: OnceCell::new(),
        }
    }

    /// An OrpheusDB instance whose relational storage lives in `dir`
    /// behind a write-ahead log: every `commit` ends with an atomic
    /// checkpoint, and reopening after a crash replays the log. The
    /// returned report says what recovery repaired.
    ///
    /// The page file is the only durable store: users, the clock and
    /// every CVD — version graph, metadata, attributes, records — live in
    /// tables ([`crate::metadata`]) beside the data, and are made durable
    /// by the same WAL batch. Opening reads them back and writes nothing.
    /// Staging tables are scratch tables the store never describes, so
    /// none comes back: uncommitted work is lost with its session.
    pub fn open_durable(
        dir: impl AsRef<std::path::Path>,
        pool_pages: usize,
    ) -> Result<(Self, relstore::RecoveryReport)> {
        let (pool, report) =
            relstore::BufferPool::open_durable(dir, pool_pages).map_err(relstore::Error::from)?;
        Ok((OrpheusDb::open_pool(pool)?, report))
    }

    /// [`open_durable`](Self::open_durable) over a write-ahead-logged,
    /// already recovered pool — how crash tests put fault injectors under
    /// a whole instance.
    pub fn open_pool(pool: relstore::BufferPool) -> Result<Self> {
        let recorder = obs::Recorder::new();
        let _span = recorder.enter("orpheus.open");
        let db = Database::open_pool(pool, recorder.clone())?;
        let (users, clock, cvds) = metadata::load(&db)?;
        let mut odb = OrpheusDb::over(db);
        (odb.users, odb.clock) = (users, clock);
        for cvd in cvds {
            odb.register(cvd);
        }
        Ok(odb)
    }

    /// Whether catalog-changing commands end with their own checkpoint.
    pub fn auto_checkpoint(&self) -> bool {
        self.auto_checkpoint
    }

    /// Toggle the per-command checkpoint. With `false`, callers own
    /// durability: they must call [`checkpoint`](Self::checkpoint)
    /// themselves (the server's group-commit loop does this once per
    /// batch). Data is still fully WAL-logged either way — this only
    /// moves *when* the atomic durability point happens.
    pub fn set_auto_checkpoint(&mut self, on: bool) {
        self.auto_checkpoint = on;
    }

    /// Does nothing: the engine has one execution path, and no code reads
    /// a thread count. It stays only because `benchmarks/loadgen` calls it.
    pub fn set_threads(&mut self, _threads: usize) {}

    /// Slow-query threshold in milliseconds.
    pub fn slow_ms(&self) -> u64 {
        self.slow_ms
    }

    /// Set the slow-query threshold; `0` logs every command.
    pub fn set_slow_ms(&mut self, ms: u64) {
        self.slow_ms = ms;
    }

    /// Whether the storage layer has a write-ahead log attached.
    pub fn is_durable(&self) -> bool {
        self.db.is_durable()
    }

    /// Force a durability point (`checkpoint`): one WAL-protected batch
    /// carrying every dirty page — data, catalog tables and the table
    /// directory alike. Returns `false` (doing nothing) on an in-memory
    /// instance. One that fails poisons the instance.
    pub fn checkpoint(&self) -> Result<bool> {
        self.alive()?;
        let done = self.db.checkpoint().map_err(Error::from);
        if let Err(e) = &done {
            self.poisoned.get_or_init(|| e.to_string());
        }
        done
    }

    /// [`Error::Poisoned`] once a durability point has failed.
    fn alive(&self) -> Result<()> {
        (self.poisoned.get()).map_or(Ok(()), |first| Err(Error::Poisoned(first.clone())))
    }

    /// Clean shutdown: a last durability point, then every committed page
    /// written to the page file and the log emptied. Uncommitted staging
    /// tables are lost, as on any exit. A poisoned instance writes nothing.
    pub fn close(self) -> Result<()> {
        self.alive()?;
        Ok(self.db.close()?)
    }

    /// The durability point a catalog-changing command ends with, unless
    /// the caller owns durability ([`set_auto_checkpoint`](Self::set_auto_checkpoint)).
    fn durability_point(&self) -> Result<()> {
        if self.auto_checkpoint {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Replay the write-ahead log (`recover`), as after a crash. Refused
    /// while any table is checked out: recovery discards every dirty
    /// frame, and a staging table's pages are never logged.
    pub fn recover(&self) -> Result<relstore::RecoveryReport> {
        let mut checked_out: Vec<String> = self.staging.keys().cloned().collect();
        checked_out.retain(|t| self.db.has_table(t));
        if !checked_out.is_empty() {
            checked_out.sort();
            return Err(Error::CheckedOut(checked_out));
        }
        Ok(self.db.recover()?)
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    // -- user management (`create_user`, `config`, `whoami`) ---------------

    pub fn create_user(&mut self, name: &str) -> Result<()> {
        if self.users.iter().any(|u| u == name) {
            return Err(Error::UserError(format!("user {name} already exists")));
        }
        self.add_user(name)?;
        self.durability_point()
    }

    fn add_user(&mut self, name: &str) -> Result<()> {
        metadata::put_user(&mut self.db, name)?;
        self.users.push(name.to_owned());
        Ok(())
    }

    /// Log in (`config`).
    pub fn login(&mut self, name: &str) -> Result<()> {
        if !self.users.iter().any(|u| u == name) {
            return Err(Error::UserError(format!("no such user: {name}")));
        }
        self.current_user = Some(name.to_owned());
        Ok(())
    }

    pub fn whoami(&self) -> Result<&str> {
        self.current_user
            .as_deref()
            .ok_or_else(|| Error::UserError("no user logged in".into()))
    }

    // -- observability (`stats`, `metrics`, `spans`) ------------------------

    /// Buffer-pool I/O counters accumulated since the last reset.
    pub fn io_stats(&self) -> relstore::IoStats {
        self.db.io_stats()
    }

    /// Zero the buffer-pool I/O counters (`stats reset`).
    pub fn reset_io_stats(&self) {
        self.db.reset_io_stats()
    }

    /// The scoped span recorder every command and pool operation writes to.
    pub fn recorder(&self) -> &obs::Recorder {
        self.db.recorder()
    }

    /// The scoped metrics registry (latency histograms live here; counters
    /// are refreshed by [`publish_metrics`](Self::publish_metrics)).
    pub fn metrics(&self) -> &obs::Registry {
        self.db.metrics()
    }

    /// Lifetime estimated cost counters accumulated across commands.
    pub fn cost_tracker(&self) -> relstore::CostTracker {
        *self.tracker.borrow()
    }

    /// Refresh the registry's counters from the pool's cumulative
    /// `IoStats` and the lifetime cost tracker, and gauge
    /// `orpheus.cvd.record_bytes` from the CVDs ([`Cvd::record_bytes`]).
    /// Idempotent (counters are set, not added); histograms are untouched
    /// — they accumulate as commands run.
    pub fn publish_metrics(&self) {
        self.db.publish_metrics();
        let records: usize = self.cvds.values().map(Cvd::record_bytes).sum();
        self.db
            .metrics()
            .gauge_set("orpheus.cvd.record_bytes", records as f64);
        self.tracker.borrow().publish(self.db.metrics());
        self.db.recorder().journal().publish(self.db.metrics());
    }

    /// Render the shared pool's counters for the `stats` shell command.
    pub fn stats_report(&self) -> String {
        let s = self.db.io_stats();
        let mut report = format!(
            "buffer pool: {} frames × {} B pages\n\
             logical reads : {}\n\
             buffer hits   : {} ({:.1}% hit rate)\n\
             physical reads: {}\n\
             evictions     : {}\n\
             pages written : {} ({} eviction write-backs, {} flushed)\n\
             free pages    : {} of {} allocated\n\
             unlogged pages: {} (checked-out tables: rows inserted, and copies made on first read)",
            self.db.pool().capacity(),
            relstore::PAGE_SIZE,
            s.logical_reads,
            s.hits(),
            s.hit_rate() * 100.0,
            s.physical_reads,
            s.evictions,
            s.pages_written(),
            s.write_backs,
            s.flushed_writes,
            self.db.pool().free_pages(),
            self.db.pool().num_pages(),
            self.db.pool().unlogged_pages(),
        );
        if self.db.is_durable() {
            report.push_str(&format!(
                "\nwal           : {} records / {} B, {} fsync(s), {} checkpoint(s), \
                 {} write-back(s) ({} page-file sync(s)), {} file grow(s)",
                s.wal_appends,
                s.wal_bytes,
                s.wal_fsyncs,
                s.checkpoints,
                s.wal_drains,
                s.pager_syncs,
                s.wal_file_grows
            ));
        }
        report
    }

    // -- cvd lifecycle ------------------------------------------------------

    /// `init`: register a new CVD from a schema and initial rows.
    pub fn init_cvd(
        &mut self,
        name: &str,
        schema: Schema,
        pk: Vec<String>,
        rows: Vec<Row>,
    ) -> Result<Vid> {
        if self.cvds.contains_key(name) {
            return Err(Error::CvdExists(name.to_owned()));
        }
        // All or nothing: a name taken half-way would leave tables behind.
        let tables = metadata::tables_of(name);
        if let Some(taken) = tables.into_iter().find(|t| self.db.has_table(t)) {
            return Err(relstore::Error::TableExists(taken).into());
        }
        let author = self.whoami()?.to_owned();
        let (cvd, v0) = Cvd::init(name, schema, pk, rows, &author)?;
        metadata::create(&mut self.db, &cvd)?;
        // `init` is not charged to the lifetime tracker.
        let mut tracker = relstore::CostTracker::new();
        let records = cvd.num_records();
        metadata::append(&mut self.db, &cvd, v0, records, &mut tracker, self.clock)?;
        self.register(cvd);
        self.durability_point()?;
        Ok(v0)
    }

    /// Take `cvd`, whose tables exist, into the instance.
    fn register(&mut self, cvd: Cvd) {
        self.cvds.insert(cvd.name().to_owned(), cvd);
    }

    /// `log`: render a CVD's version graph as text — the command-line
    /// analogue of the demo's version-graph visualization (the SIGMOD'17 demo).
    pub fn log(&self, cvd_name: &str) -> Result<String> {
        let cvd = self.cvd(cvd_name)?;
        let mut out = String::new();
        for meta in cvd.metas().iter().rev() {
            let parents = if meta.parents.is_empty() {
                "(root)".to_string()
            } else {
                meta.parents
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let records = cvd.version_records(meta.vid)?.len();
            out.push_str(&format!(
                "* {}  ← {parents}
    author: {}  records: {records}  msg: {}
",
                meta.vid, meta.author, meta.message
            ));
        }
        Ok(out)
    }

    /// `ls`: all CVD names.
    pub fn list_cvds(&self) -> Vec<String> {
        let mut names: Vec<String> = self.cvds.keys().cloned().collect();
        names.sort();
        names
    }

    /// `drop`: remove a CVD and its physical tables.
    pub fn drop_cvd(&mut self, name: &str) -> Result<()> {
        self.cvds
            .remove(name)
            .ok_or_else(|| Error::CvdNotFound(name.to_owned()))?;
        metadata::drop_cvd(&mut self.db, name)?;
        // Its checkouts go with it; a CSV checkout has no table to drop.
        let mut gone: Vec<String> = (self.staging.iter())
            .filter(|(_, info)| info.cvd == name)
            .map(|(staged, _)| staged.clone())
            .collect();
        gone.sort();
        for staged in gone {
            self.staging.remove(&staged);
            if self.db.has_table(&staged) {
                self.db.drop_table(&staged)?;
            }
        }
        self.durability_point()
    }

    pub fn cvd(&self, name: &str) -> Result<&Cvd> {
        self.cvds
            .get(name)
            .ok_or_else(|| Error::CvdNotFound(name.to_owned()))
    }

    // -- checkout / commit ---------------------------------------------------

    /// `checkout [cvd] -v [vids] -t [table]`: check one or more versions
    /// out into a private staging table — a scratch table, which no
    /// checkpoint logs and no reopen finds: it is committed or lost.
    ///
    /// Nothing is copied yet. The checkout keeps its rid list and an empty
    /// table whose ids start at the number of rows checked out, so `insert`
    /// appends beside rows it never reads, and a commit by rid finds them
    /// unchanged. The first [`staging_table`](Self::staging_table) or
    /// [`staging_table_mut`](Self::staging_table_mut) copies the rows in;
    /// before it, the table itself shows only the inserted rows.
    pub fn checkout(&mut self, cvd_name: &str, versions: &[Vid], table: &str) -> Result<()> {
        let _span = self.db.recorder().enter("orpheus.checkout");
        let start = Instant::now();
        let owner = self.whoami()?.to_owned();
        crate::command::check_versions(versions)?;
        let created_at = self.tick();
        self.check_unclaimed(table)?;
        let cvd = self.cvd(cvd_name)?;
        let rids = cvd.checkout_rids(versions)?;
        let keyed = versions.len() == 1 && !cvd.pk_names().is_empty();
        let schema = cvd.schema().clone();
        let t = self.db.create_scratch_table(table, schema)?;
        t.reserve_ids(rids.len() as RowId);
        self.staging.insert(
            table.to_owned(),
            StagingInfo {
                cvd: cvd_name.to_owned(),
                parents: versions.to_vec(),
                owner,
                created_at,
                rids,
                copied: false,
                keyed,
            },
        );
        self.db
            .metrics()
            .observe_duration("orpheus.checkout.latency_us", start.elapsed());
        Ok(())
    }

    /// Copy checkout `table`'s rows into its staging table, unless they
    /// are there. The table is built again as a checkout that copied at
    /// once would have built it: the version's rows first, then the rows
    /// inserted since, each with the id and bytes it would have had. Each
    /// record's tuple is copied raw, less its rid, never decoded. A copy
    /// that fails takes the checkout along.
    fn copy_checkout(&mut self, table: &str) -> Result<()> {
        let Some(info) = self.staging.get(table).filter(|info| !info.copied) else {
            return Ok(());
        };
        let _span = self.db.recorder().enter("orpheus.checkout.copy");
        let cvd = (self.cvds.get(&info.cvd)).ok_or_else(|| Error::CvdNotFound(info.cvd.clone()))?;
        let copied = info.rids.len() as u64;
        let rows = info.rids.iter().map(|&rid| cvd.values(rid));
        if let Err(e) = rebuild(&mut self.db, table, rows) {
            self.staging.remove(table);
            if self.db.has_table(table) {
                self.db.drop_table(table)?;
            }
            return Err(e);
        }
        let metrics = self.db.metrics();
        metrics.counter_add("orpheus.checkout.rows_copied", copied);
        metrics.counter_add("orpheus.checkout.materialized", 1);
        if let Some(info) = self.staging.get_mut(table) {
            info.copied = true;
        }
        Ok(())
    }

    /// Copy every checkout of `cvd` not copied yet: what a schema-evolving
    /// commit does first, since it widens and pads the records the rid
    /// lists name, and a later copy would stage them under the wrong schema.
    fn copy_checkouts_of(&mut self, cvd: &str) -> Result<()> {
        let mut open: Vec<String> = (self.staging.iter())
            .filter(|(_, info)| info.cvd == cvd && !info.copied)
            .map(|(table, _)| table.clone())
            .collect();
        open.sort();
        open.iter().try_for_each(|table| self.copy_checkout(table))
    }

    /// A checkout's name must be free: no table, and no other checkout
    /// (a CSV checkout has no table), may hold it.
    fn check_unclaimed(&self, name: &str) -> Result<()> {
        if self.staging.contains_key(name) || self.db.has_table(name) {
            return Err(relstore::Error::TableExists(name.to_owned()).into());
        }
        Ok(())
    }

    /// Access-control check on a staging table (§3.3.1: only the user who
    /// checked a table out may read or commit it).
    fn authorize(&self, table: &str) -> Result<&StagingInfo> {
        let info = self
            .staging
            .get(table)
            .ok_or_else(|| Error::NotCheckedOut(table.to_owned()))?;
        let user = self.whoami()?;
        if info.owner != user {
            return Err(Error::PermissionDenied {
                user: user.to_owned(),
                table: table.to_owned(),
            });
        }
        Ok(info)
    }

    /// Mutable access to a staging table for the current user (to run
    /// modifications before committing). The first access copies the
    /// checked-out rows in ([`checkout`](Self::checkout)).
    pub fn staging_table_mut(&mut self, table: &str) -> Result<&mut relstore::Table> {
        self.authorize(table)?;
        self.copy_checkout(table)?;
        self.db.table_mut(table).map_err(Error::Storage)
    }

    /// A staging table for the current user to read, its rows copied in
    /// as by [`staging_table_mut`](Self::staging_table_mut).
    pub fn staging_table(&mut self, table: &str) -> Result<&relstore::Table> {
        Ok(self.staging_table_mut(table)?)
    }

    /// `insert`: append a row to a staging table without copying the
    /// checked-out rows in.
    fn insert(&mut self, table: &str, values: &str) -> Result<()> {
        self.authorize(table)?;
        let t = self.db.table_mut(table)?;
        t.insert(parse_csv_row(t.schema(), values)?)?;
        Ok(())
    }

    /// `commit -t [table] -m [message]`: add the (possibly modified)
    /// staging table back to its CVD as a new version, then drop it from
    /// the staging area.
    pub fn commit(&mut self, table: &str, message: &str) -> Result<CommitResult> {
        let _span = self.db.recorder().enter("orpheus.commit");
        let start = Instant::now();
        let info = self.authorize(table)?;
        // Rows staged under an older schema are all compared: the commit
        // widens them as it evolves the CVD's. So are those of a checkout
        // a commit by rid does not apply to, which must be copied in.
        let own_schema = self.cvd(&info.cvd)?.schema() == self.db.table(table)?.schema();
        let by_rid = info.keyed && own_schema;
        if !by_rid {
            self.copy_checkout(table)?;
        }
        let info = self.authorize(table)?.clone();
        let staged = self.db.table(table)?;
        let schema = staged.schema().clone();
        let changes = changes_of(staged, by_rid.then_some(&info.rids[..]))?;
        let result = self.apply_commit(&info, &schema, changes, message)?;
        // Cleanup: remove the staging table (§3.3.1).
        self.db.drop_table(table)?;
        self.end_commit(table, start)?;
        Ok(result)
    }

    /// The part of a commit that does not depend on where the rows came
    /// from: the new version in the CVD, its records and rlist in the
    /// model's tables, and its catalog rows.
    fn apply_commit(
        &mut self,
        info: &StagingInfo,
        schema: &Schema,
        changes: Changes,
        message: &str,
    ) -> Result<CommitResult> {
        let author = self.whoami()?.to_owned();
        let evolves = schema != self.cvd(&info.cvd)?.schema();
        if evolves {
            self.copy_checkouts_of(&info.cvd)?;
        }
        let cvd =
            (self.cvds.get_mut(&info.cvd)).ok_or_else(|| Error::CvdNotFound(info.cvd.clone()))?;
        let compared = changes.rows.len() as u64;
        let result = cvd.commit_changes(&info.parents, schema, changes, message, &author)?;
        self.db
            .metrics()
            .counter_add("orpheus.commit.rows_compared", compared);
        let mut tracker = self.tracker.borrow_mut();
        let (vid, new) = (result.vid, result.new_records);
        metadata::append(&mut self.db, cvd, vid, new, &mut tracker, self.clock)?;
        Ok(result)
    }

    /// The end of every commit: the staging entry goes, and once the
    /// tables hold the new version a durability point makes sure a crash
    /// cannot lose it. On an in-memory instance that is a no-op; under
    /// group commit the server issues one per batch instead.
    fn end_commit(&mut self, staged: &str, start: Instant) -> Result<()> {
        self.staging.remove(staged);
        self.durability_point()?;
        self.db
            .metrics()
            .observe_duration("orpheus.commit.latency_us", start.elapsed());
        Ok(())
    }

    /// `checkout … -f file.csv`: materialize into CSV text instead of a
    /// table (for analysis in Python/R, §3.3.1).
    pub fn checkout_csv(&mut self, cvd_name: &str, versions: &[Vid], file: &str) -> Result<String> {
        let owner = self.whoami()?.to_owned();
        crate::command::check_versions(versions)?;
        let created_at = self.tick();
        self.check_unclaimed(file)?;
        let cvd = self.cvd(cvd_name)?;
        let rows = cvd.checkout_rows(versions)?;
        let csv = to_csv(cvd.schema(), rows.iter().map(|(_, r)| &r[..]));
        self.staging.insert(
            file.to_owned(),
            StagingInfo {
                cvd: cvd_name.to_owned(),
                parents: versions.to_vec(),
                owner,
                created_at,
                rids: Vec::new(),
                copied: true,
                keyed: false,
            },
        );
        Ok(csv)
    }

    /// `commit -f file.csv -s schema`: commit CSV contents with an explicit
    /// schema string (`name:type,…`) so columns map correctly.
    pub fn commit_csv(
        &mut self,
        file: &str,
        csv: &str,
        schema_spec: &str,
        message: &str,
    ) -> Result<CommitResult> {
        let _span = self.db.recorder().enter("orpheus.commit");
        let start = Instant::now();
        let info = self.authorize(file)?.clone();
        let schema = parse_schema_spec(schema_spec)?;
        let rows = from_csv(&schema, csv)?;
        let result = self.apply_commit(&info, &schema, Changes::all(rows), message)?;
        self.end_commit(file, start)?;
        Ok(result)
    }

    /// `diff -v a b`: records in one version but not the other.
    pub fn diff(&self, cvd_name: &str, a: Vid, b: Vid) -> Result<(QueryResult, QueryResult)> {
        let _span = self.db.recorder().enter("orpheus.diff");
        let tables = self.tables(cvd_name)?;
        let mut ctx = ExecContext::new();
        let left = tables.run(&LogicalPlan::Fetch(RidSet::Diff(a, b), None), &mut ctx)?;
        let right = tables.run(&LogicalPlan::Fetch(RidSet::Diff(b, a), None), &mut ctx)?;
        self.tracker.borrow_mut().absorb(&ctx.tracker);
        Ok((left, right))
    }

    /// `optimize`: run LyreSplit under a storage threshold
    /// `γ = gamma_factor × |R|` (`gamma_factor` finite and ≥ 1.0) and
    /// report its plan — partitions, estimated storage and estimated
    /// average checkout, in records. Nothing is materialized: the CVD
    /// keeps its one split-by-rlist layout.
    pub fn optimize(&self, cvd_name: &str, gamma_factor: f64) -> Result<LyreSplitResult> {
        if !(gamma_factor.is_finite() && gamma_factor >= 1.0) {
            return Err(Error::Parse(format!(
                "bad gamma {gamma_factor}: must be a finite number ≥ 1.0 (multiple of |R|)"
            )));
        }
        let _span = self.db.recorder().enter("orpheus.optimize");
        let cvd = self.cvd(cvd_name)?;
        let gamma = (gamma_factor * cvd.num_records() as f64) as u64;
        Ok(lyresplit_for_budget(&cvd.tree(), gamma))
    }

    /// `plan_storage`: solve the materialization-budget problem for a
    /// CVD's version graph — which versions stay fully materialized and
    /// which are stored as deltas under `C ≤ β = factor × C_min`
    /// (deltastore Problem 7.3, LMG heuristic; the branch-and-bound in
    /// `deltastore::exact` validates the heuristic in its own tests).
    /// Costs are record counts: a materialization weighs `|records(v)|`,
    /// a parent→child delta weighs the symmetric record difference.
    pub fn plan_storage(&self, cvd_name: &str, factor: f64) -> Result<Vec<String>> {
        let _span = self.db.recorder().enter("orpheus.plan_storage");
        let cvd = self.cvd(cvd_name)?;
        let n = cvd.num_versions();
        let mut graph = deltastore::StorageGraph::new(n, false);
        for (i, meta) in cvd.metas().iter().enumerate() {
            let vid = Vid(i as u32);
            let node = i + 1; // deltastore versions are 1-based
            let recs = cvd.version_records(vid)?;
            graph.add_materialization(node, recs.len() as u64, recs.len() as u64);
            for &p in &meta.parents {
                let parent = cvd.version_records(p)?;
                let d = (only_in(parent, recs).len() + only_in(recs, parent).len()).max(1) as u64;
                graph.add_delta(p.0 as usize + 1, node, d, d);
            }
        }
        let plan = deltastore::plan_with_budget(&graph, factor);
        let mat = plan.materialized();
        let mut out = vec![
            format!(
                "budget β = {} records ({} × min storage {})",
                plan.beta, plan.factor, plan.min_storage
            ),
            format!(
                "materialized {} of {n} version(s): {}",
                mat.len(),
                mat.iter()
                    .map(|v| format!("v{}", v - 1))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
        ];
        out.push(format!(
            "storage {} | sum recreation {} | max recreation {}",
            plan.solution.storage_cost(),
            plan.solution.sum_recreation(),
            plan.solution.max_recreation()
        ));
        Ok(out)
    }

    /// One version's `[rid, attrs…]` rows — a `RidFetch` of its records
    /// from the data table, lowered like every other read — with what
    /// that cost.
    pub fn read_version(&self, cvd_name: &str, vid: Vid) -> Result<(Vec<Row>, ExecContext)> {
        let _span = self.db.recorder().enter("orpheus.checkout");
        let mut ctx = ExecContext::new();
        let fetch = LogicalPlan::Fetch(RidSet::Union(vec![vid]), None);
        let rows = self.tables(cvd_name)?.run(&fetch, &mut ctx)?.rows;
        self.tracker.borrow_mut().absorb(&ctx.tracker);
        Ok((rows, ctx))
    }

    /// The engine-side plan source for a CVD: its split-by-rlist tables.
    pub(crate) fn tables(&self, cvd_name: &str) -> Result<Tables<'_>> {
        Ok(Tables {
            db: &self.db,
            cvd: self.cvd(cvd_name)?,
        })
    }

    /// Plan `query`, lower it over the engine's tables with `dec` and
    /// drain it — the whole query path; the decorator is the only thing
    /// `run` and `explain analyze` disagree on.
    fn query<D: Decorator>(&self, query: &VQuery, dec: &D) -> Result<(QueryResult, D::Node)> {
        self.alive()?;
        let _span = self.db.recorder().enter("orpheus.query");
        let start = Instant::now();
        let tables = self.tables(query.cvd())?;
        let mut ctx = ExecContext::new();
        let result = plan::execute(&LogicalPlan::of(query), &tables, dec, &mut ctx);
        self.tracker.borrow_mut().absorb(&ctx.tracker);
        self.db
            .metrics()
            .observe_duration("orpheus.query.latency_us", start.elapsed());
        result
    }

    /// `run`: execute a versioned SQL string (§3.3.2).
    pub fn run(&self, sql: &str) -> Result<QueryResult> {
        Ok(self.query(&parse_query(sql)?, &Plain)?.0)
    }

    /// `explain analyze <query>`: run the query through the instrumenting
    /// decorator and report estimated vs. actual figures per operator, plus
    /// the buffer pool's `IoStats` delta across the whole execution. The
    /// root operator's inclusive measured page reads reconcile with that
    /// delta.
    pub fn explain_analyze(&self, sql: &str) -> Result<relstore::ExplainReport> {
        self.explain(&parse_query(sql)?)
    }

    fn explain(&self, query: &VQuery) -> Result<relstore::ExplainReport> {
        let start = Instant::now();
        let pool_before = self.db.io_stats();
        let (_, node) = self.query(query, &Instrumented)?;
        Ok(relstore::ExplainReport {
            root: node.snapshot(),
            pool_delta: self.db.io_stats().since(&pool_before),
            wall: start.elapsed(),
        })
    }

    /// An immutable, thread-safe snapshot of a CVD for lock-free reads.
    /// Server sessions pin one of these and evaluate versioned SQL against
    /// it on their own thread, without ever entering the engine thread.
    pub fn snapshot(&self, cvd: &str) -> Result<crate::snapshot::Snapshot> {
        self.alive()?;
        Ok(crate::snapshot::Snapshot::of(self.cvd(cvd)?))
    }

    /// Execute `line` on behalf of `user`: [`Command::parse`], then
    /// [`execute_command_as`](Self::execute_command_as).
    pub fn execute_as(&mut self, user: &str, line: &str) -> Result<CommandOutput> {
        let command = Command::parse(line)?;
        self.execute_command_as(user, &command, line)
    }

    /// Run a parsed command on behalf of `user`, auto-registering unknown
    /// users — the multi-session entry point; `line` is its text, for the
    /// slow-query log. The instance-wide `config` login is saved and
    /// restored around the command, so interleaved sessions never observe
    /// each other's identity (the engine serializes these calls; this
    /// makes each call self-contained).
    pub fn execute_command_as(
        &mut self,
        user: &str,
        command: &Command,
        line: &str,
    ) -> Result<CommandOutput> {
        if !self.users.iter().any(|u| u == user) {
            // Nobody was told this user exists: its row waits for the
            // next durability point rather than forcing one.
            self.add_user(user)?;
        }
        let prev = self.current_user.replace(user.to_owned());
        let out = self.execute_command(command, line);
        self.current_user = prev;
        out
    }

    /// Execute a command line; the textual surface of §3.3.1 (e.g.
    /// `checkout Interaction -v 1 -t my_table`).
    pub fn execute(&mut self, line: &str) -> Result<CommandOutput> {
        let command = Command::parse(line)?;
        self.execute_command(&command, line)
    }

    /// Every command but introspection runs under an `orpheus.request`
    /// span: a fresh trace id is minted here (CLI/shell), or the open
    /// server-session trace is inherited, so the WAL spans downstream
    /// re-attach to this request. Commands at or over the slow-query
    /// threshold additionally log one structured line to stderr (stdout
    /// stays byte-identical whatever the timing).
    fn execute_command(&mut self, command: &Command, line: &str) -> Result<CommandOutput> {
        self.alive()?;
        if command.is_introspection() {
            return self.apply(command);
        }
        let started = std::time::Instant::now();
        let (trace_id, result) = {
            let span = self.db.recorder().enter_request("orpheus.request");
            let trace_id = span.trace_id();
            (trace_id, self.apply(command))
        };
        let elapsed = started.elapsed();
        if elapsed.as_millis() as u64 >= self.slow_ms {
            self.log_slow_query(line, trace_id, elapsed);
        }
        result
    }

    /// One line per over-threshold command: trace id, latency, statement,
    /// and the top-3 self-time spans from the journal (when the trace was
    /// sampled). Written to stderr so CI's stdout determinism diff and
    /// shell pipelines never see it.
    fn log_slow_query(&self, line: &str, trace_id: u64, elapsed: std::time::Duration) {
        let events = self.db.recorder().journal().trace_events(trace_id);
        let top = obs::journal::self_times(&events);
        let spans = if top.is_empty() {
            " spans=(journal disabled or unsampled)".to_owned()
        } else {
            let mut s = String::from(" spans=");
            for (i, (name, us)) in top.iter().take(3).enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("{name}:{us}us"));
            }
            s
        };
        eprintln!(
            "slow-query trace={trace_id:#x} ms={} stmt={line:?}{spans}",
            elapsed.as_millis()
        );
    }

    /// Run one parsed command: the one `match` over the command surface.
    fn apply(&mut self, command: &Command) -> Result<CommandOutput> {
        use CommandOutput::{Listing, Message, Table, Version};
        Ok(match command {
            Command::CreateUser(name) => {
                self.create_user(name)?;
                Message(format!("created user {name}"))
            }
            Command::Config(name) => {
                self.login(name)?;
                Message(format!("logged in as {name}"))
            }
            Command::Whoami => Message(self.whoami()?.to_owned()),
            Command::Ls => Listing(self.list_cvds()),
            Command::Log(name) => Message(self.log(name)?),
            Command::Drop(name) => {
                self.drop_cvd(name)?;
                Message(format!("dropped {name}"))
            }
            Command::Checkout(cvd, versions, table) => {
                self.checkout(cvd, versions, table)?;
                let n = versions.len();
                Message(format!("checked out {n} version(s) of {cvd} into {table}"))
            }
            Command::Insert(table, values) => {
                self.insert(table, values)?;
                Message(format!("inserted 1 row into {table}"))
            }
            Command::Init(cvd, path, schema, pk) => {
                let csv = std::fs::read_to_string(path)
                    .map_err(|e| Error::Parse(format!("cannot read {path}: {e}")))?;
                let rows = from_csv(schema, &csv)?;
                let v0 = self.init_cvd(cvd, schema.clone(), pk.clone(), rows)?;
                Message(format!("initialized {cvd} at {v0} ({path})"))
            }
            Command::Commit(table, message, schema) => {
                if let Some(schema) = schema {
                    self.authorize(table)?;
                    self.copy_checkout(table)?;
                    metadata::sync_table_schema(self.db.table_mut(table)?, schema, 0)?;
                }
                Version(self.commit(table, message)?.vid)
            }
            Command::Diff(cvd, a, b) => Table(self.diff(cvd, *a, *b)?.0),
            Command::Optimize(cvd, gamma) => {
                let plan = self.optimize(cvd, *gamma)?;
                Message(format!(
                    "LyreSplit plan for {cvd} at γ = {gamma} × |R|: {} partition(s), \
                     est. storage {} records, est. avg checkout {:.1} records \
                     (plan only; storage unchanged)",
                    plan.partitioning.num_partitions(),
                    plan.est_storage,
                    plan.est_checkout_avg
                ))
            }
            Command::PlanStorage(cvd, factor) => Listing(self.plan_storage(cvd, *factor)?),
            Command::Run(query) => Table(self.query(query, &Plain)?.0),
            Command::Explain(query, json) => {
                let report = self.explain(query)?;
                Message(if *json {
                    report.to_json().to_string_pretty()
                } else {
                    report.to_text()
                })
            }
            Command::Metrics(View::Reset) => {
                self.db.metrics().reset();
                Message("metrics reset".into())
            }
            Command::Metrics(view) => {
                self.publish_metrics();
                Message(match view {
                    View::Json => self.db.metrics().to_json().to_string_pretty(),
                    _ => self.db.metrics().render_text(),
                })
            }
            Command::Trace(View::Reset) => {
                self.db.recorder().journal().clear();
                Message("trace journal reset".into())
            }
            Command::Trace(view) => Message(match view {
                View::Json => self.db.recorder().journal().to_chrome_jsonl(),
                _ => self.db.recorder().journal().summary_text(),
            }),
            Command::Spans(View::Reset) => {
                self.db.recorder().reset();
                Message("span tree reset".into())
            }
            Command::Spans(view) => {
                let report = self.db.recorder().report();
                Message(match view {
                    View::Json => report.to_json().to_string_pretty(),
                    _ => report.to_text(),
                })
            }
            Command::Stats(View::Reset) => {
                self.reset_io_stats();
                Message("buffer-pool counters reset".into())
            }
            Command::Stats(_) => Message(self.stats_report()),
            Command::Checkpoint => Message(if self.checkpoint()? {
                "checkpoint complete".into()
            } else {
                "in-memory instance: nothing to checkpoint (open with a data \
                 directory for durability)"
                    .into()
            }),
            Command::Recover => Message(format!("recovery: {}", self.recover()?)),
        })
    }
}

/// What a commit of the staging table `staged` compares with its parent.
///
/// Given each checked-out row's parent rid (`origins`, by `RowId`), a row
/// that no write reached since keeps its rid unread. Only the rows updated
/// or inserted are compared, and only with the records of the rows
/// updated or deleted. Under a primary key that is exact: a parent record
/// equal to a changed row has that row's key, so its own row was edited
/// too, or the commit fails the key check. Without `origins`, or once the
/// table's ids were rewritten, every row is compared ([`Changes::all`]).
fn changes_of(staged: &relstore::Table, origins: Option<&[Rid]>) -> Result<Changes> {
    let (Some(origins), Some(changed)) = (origins, staged.changed_ids()) else {
        let rows = staged.rows()?.into_iter().map(|(_, r)| r).collect();
        return Ok(Changes::all(rows));
    };
    let checked_out = origins.len() as RowId;
    let (mut kept, mut candidates) = (Vec::with_capacity(origins.len()), Vec::new());
    for (id, &rid) in (0..).zip(origins) {
        if changed.contains(&id) {
            candidates.push(rid);
        } else {
            kept.push(rid);
        }
    }
    let inserted = checked_out..staged.heap_size() as RowId;
    let ids = changed.range(..checked_out).copied().chain(inserted);
    Ok(Changes {
        kept,
        candidates: Some(candidates),
        rows: staged.rows_of(ids)?.into_iter().map(|(_, r)| r).collect(),
    })
}

/// Build staging table `table` again from `rows`, each its encoded values,
/// then the rows inserted into it, in id order.
fn rebuild<'a>(db: &mut Database, table: &str, rows: impl Iterator<Item = &'a [u8]>) -> Result<()> {
    let staged = db.table(table)?;
    let (schema, mut inserted) = (staged.schema().clone(), staged.rows()?);
    inserted.sort_unstable_by_key(|&(id, _)| id);
    db.drop_table(table)?;
    let t = db.create_scratch_table(table, schema)?;
    t.insert_encoded(rows)?;
    t.insert_many(inserted.iter().map(|(_, row)| row))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// CSV import/export
// ---------------------------------------------------------------------------

/// Serialize rows to CSV with a header line.
pub fn to_csv<'a>(schema: &Schema, rows: impl Iterator<Item = &'a [Value]>) -> String {
    let mut out = String::new();
    let header: Vec<&str> = schema.columns().iter().map(|c| c.name.as_str()).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        let fields: Vec<String> = row
            .iter()
            .map(|v| match v {
                Value::Null => String::new(),
                Value::Text(s) if s.contains(',') || s.contains('"') => {
                    format!("\"{}\"", s.replace('"', "\"\""))
                }
                other => other.to_string(),
            })
            .collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

/// Parse CSV text (with header) into rows of the given schema.
pub fn from_csv(schema: &Schema, csv: &str) -> Result<Vec<Row>> {
    let mut lines = csv.lines();
    let header = lines
        .next()
        .ok_or_else(|| Error::Parse("empty csv".into()))?;
    let names: Vec<&str> = header.split(',').collect();
    if names.len() != schema.len() {
        return Err(Error::Parse(format!(
            "csv has {} columns, schema expects {}",
            names.len(),
            schema.len()
        )));
    }
    let mut rows = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        rows.push(parse_csv_row(schema, line)?);
    }
    Ok(rows)
}

/// Parse one CSV data line (no header) into a row of the given schema.
/// Shared by [`from_csv`] and the `insert` command.
pub fn parse_csv_row(schema: &Schema, line: &str) -> Result<Row> {
    let fields = split_csv_line(line);
    if fields.len() != schema.len() {
        return Err(Error::Parse(format!(
            "csv row has {} fields, expected {}",
            fields.len(),
            schema.len()
        )));
    }
    let mut row = Vec::with_capacity(fields.len());
    for (field, col) in fields.iter().zip(schema.columns()) {
        let v = if field.is_empty() {
            Value::Null
        } else {
            match col.dtype {
                DataType::Int64 => Value::Int64(
                    field
                        .parse()
                        .map_err(|_| Error::Parse(format!("bad int: {field}")))?,
                ),
                DataType::Float64 => Value::Float64(
                    field
                        .parse()
                        .map_err(|_| Error::Parse(format!("bad float: {field}")))?,
                ),
                DataType::Bool => Value::Bool(field == "true"),
                DataType::Text => Value::Text(field.clone()),
                DataType::IntArray => {
                    return Err(Error::Parse("arrays not supported in csv".into()))
                }
            }
        };
        row.push(v);
    }
    Ok(row)
}

fn split_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes && chars.peek() == Some(&'"') => {
                cur.push('"');
                chars.next();
            }
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => fields.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

/// Parse a schema spec string: `name:int,name:text,name:float,name:bool`.
pub fn parse_schema_spec(spec: &str) -> Result<Schema> {
    let mut schema = Schema::empty();
    for part in spec.split(',') {
        let (name, ty) = part
            .split_once(':')
            .ok_or_else(|| Error::Parse(format!("bad schema entry: {part}")))?;
        let dtype = match ty.trim().to_ascii_lowercase().as_str() {
            "int" | "integer" => DataType::Int64,
            "float" | "decimal" | "double" => DataType::Float64,
            "text" | "string" | "varchar" => DataType::Text,
            "bool" | "boolean" => DataType::Bool,
            other => return Err(Error::Parse(format!("unknown type: {other}"))),
        };
        let column = Column::nullable(name.trim(), dtype);
        let twice = format!("column {} named twice in the schema", column.name);
        schema.add_column(column).map_err(|_| Error::Parse(twice))?;
    }
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the reopen tests in `metadata` reach under an instance.
    impl OrpheusDb {
        pub(crate) fn database(&mut self) -> &mut Database {
            &mut self.db
        }

        pub(crate) fn users(&self) -> &[String] {
            &self.users
        }

        /// [`commit`](Self::commit) in the all-changed form: the checkout's
        /// rids are forgotten, so every staged row is compared.
        pub(crate) fn commit_all_changed(
            &mut self,
            table: &str,
            message: &str,
        ) -> Result<CommitResult> {
            if let Some(info) = self.staging.get_mut(table) {
                info.keyed = false;
            }
            self.commit(table, message)
        }
    }

    fn setup() -> OrpheusDb {
        let mut odb = OrpheusDb::new();
        odb.create_user("alice").unwrap();
        odb.create_user("bob").unwrap();
        odb.login("alice").unwrap();
        let schema = Schema::new(vec![
            Column::new("protein1", DataType::Text),
            Column::new("protein2", DataType::Text),
            Column::new("coexpression", DataType::Int64),
        ]);
        let rows = vec![
            vec![Value::from("A"), Value::from("B"), Value::Int64(10)],
            vec![Value::from("C"), Value::from("D"), Value::Int64(90)],
            vec![Value::from("E"), Value::from("F"), Value::Int64(50)],
        ];
        odb.init_cvd(
            "Interaction",
            schema,
            vec!["protein1".into(), "protein2".into()],
            rows,
        )
        .unwrap();
        odb
    }

    #[test]
    fn plan_storage_reports_materializations_under_budget() {
        let mut odb = setup();
        // Grow a few versions so the plan has real deltas to choose from.
        for i in 0..4 {
            odb.checkout("Interaction", &[Vid(i)], "w").unwrap();
            let t = odb.staging_table_mut("w").unwrap();
            t.insert(vec![
                Value::from(format!("X{i}")),
                Value::from(format!("Y{i}")),
                Value::Int64(i as i64),
            ])
            .unwrap();
            odb.commit("w", "grow").unwrap();
        }
        let out = odb.execute("plan_storage Interaction -b 1.0").unwrap();
        let CommandOutput::Listing(lines) = out else {
            panic!("expected listing, got {out:?}");
        };
        assert!(lines[0].contains("budget β"), "{lines:?}");
        assert!(lines[1].contains("materialized"), "{lines:?}");
        // With β = C_min only the root anchors; deltas carry the rest.
        assert!(lines[1].contains("1 of 5"), "{lines:?}");
        // A loose budget may only lower the recreation objective.
        let loose = odb.execute("plan_storage Interaction -b 5.0").unwrap();
        let CommandOutput::Listing(loose_lines) = loose else {
            panic!("expected listing");
        };
        assert!(loose_lines[2].contains("sum recreation"), "{loose_lines:?}");
        // Bad factors are parse errors, not silent defaults.
        assert!(odb.execute("plan_storage Interaction -b nope").is_err());
        assert!(odb.execute("plan_storage Interaction -b 0.5").is_err());
    }

    #[test]
    fn checkout_modify_commit_cycle() {
        let mut odb = setup();
        odb.checkout("Interaction", &[Vid(0)], "work").unwrap();
        {
            let t = odb.staging_table_mut("work").unwrap();
            let (id, mut row) = t
                .rows()
                .unwrap()
                .into_iter()
                .find(|(_, r)| r[0] == Value::from("A"))
                .unwrap();
            row[2] = Value::Int64(11);
            t.update(id, row).unwrap();
        }
        let res = odb.commit("work", "bump AB").unwrap();
        assert_eq!(res.vid, Vid(1));
        assert_eq!(res.new_records, 1);
        // Staging table is gone after commit.
        assert!(odb.staging_table("work").is_err());
        let meta = odb.cvd("Interaction").unwrap().meta(Vid(1)).unwrap();
        assert_eq!(meta.parents, vec![Vid(0)]);
        assert_eq!(meta.author, "alice");
        assert_eq!(meta.message, "bump AB");
    }

    #[test]
    fn access_control_blocks_other_users() {
        let mut odb = setup();
        odb.checkout("Interaction", &[Vid(0)], "private").unwrap();
        odb.login("bob").unwrap();
        assert!(matches!(
            odb.staging_table("private"),
            Err(Error::PermissionDenied { .. })
        ));
        assert!(matches!(
            odb.commit("private", "steal"),
            Err(Error::PermissionDenied { .. })
        ));
        odb.login("alice").unwrap();
        assert!(odb.commit("private", "mine").is_ok());
    }

    #[test]
    fn command_strings_roundtrip() {
        let mut odb = setup();
        let out = odb.execute("whoami").unwrap();
        assert_eq!(out, CommandOutput::Message("alice".into()));
        odb.execute("checkout Interaction -v 0 -t t1").unwrap();
        let out = odb.execute("commit -t t1 -m no changes").unwrap();
        assert_eq!(out, CommandOutput::Version(Vid(1)));
        let out = odb.execute("ls").unwrap();
        assert_eq!(out, CommandOutput::Listing(vec!["Interaction".into()]));
        let out = odb
            .execute("run SELECT * FROM VERSION 0 OF CVD Interaction WHERE coexpression > 40")
            .unwrap();
        match out {
            CommandOutput::Table(t) => assert_eq!(t.rows.len(), 2),
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn versioned_sql_aggregate() {
        let mut odb = setup();
        odb.checkout("Interaction", &[Vid(0)], "w").unwrap();
        {
            let t = odb.staging_table_mut("w").unwrap();
            t.insert(vec![Value::from("G"), Value::from("H"), Value::Int64(99)])
                .unwrap();
        }
        odb.commit("w", "insert GH").unwrap();
        let result = odb
            .run("SELECT vid, count(*) FROM CVD Interaction GROUP BY vid")
            .unwrap();
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.rows[0], vec![Value::Int64(0), Value::Int64(3)]);
        assert_eq!(result.rows[1], vec![Value::Int64(1), Value::Int64(4)]);
    }

    #[test]
    fn csv_checkout_commit() {
        let mut odb = setup();
        let csv = odb
            .checkout_csv("Interaction", &[Vid(0)], "data.csv")
            .unwrap();
        assert!(csv.starts_with("protein1,protein2,coexpression\n"));
        assert_eq!(csv.lines().count(), 4);
        // Edit the csv externally: change a value.
        let edited = csv.replace("A,B,10", "A,B,12");
        let res = odb
            .commit_csv(
                "data.csv",
                &edited,
                "protein1:text,protein2:text,coexpression:int",
                "via csv",
            )
            .unwrap();
        assert_eq!(res.new_records, 1);
    }

    #[test]
    fn optimize_reports_a_lyresplit_plan() {
        let mut odb = setup();
        // A couple of divergent versions.
        for i in 0..4 {
            let table = format!("t{i}");
            odb.checkout("Interaction", &[Vid(i)], &table).unwrap();
            {
                let t = odb.staging_table_mut(&table).unwrap();
                t.insert(vec![
                    Value::from(format!("X{i}")),
                    Value::from("Y"),
                    Value::Int64(i as i64),
                ])
                .unwrap();
            }
            odb.commit(&table, "grow").unwrap();
        }
        let tables = odb.db.table_names().len();
        let plan = odb.optimize("Interaction", 2.0).unwrap();
        let records = odb.cvd("Interaction").unwrap().num_records() as u64;
        assert!(plan.partitioning.num_partitions() >= 1);
        assert!(plan.est_storage <= 2 * records, "{plan:?}");
        let out = odb.execute("optimize Interaction -g 2.0").unwrap();
        let CommandOutput::Message(m) = out else {
            panic!("expected message, got {out:?}");
        };
        assert!(
            m.contains("partition(s)") && m.contains("est. storage"),
            "{m}"
        );
        // A plan, not a second store.
        assert_eq!(odb.db.table_names().len(), tables);
    }

    /// Regression: `-g NaN` and `-g -3` were taken silently.
    #[test]
    fn optimize_rejects_gamma_that_is_not_a_finite_factor_of_at_least_one() {
        let mut odb = setup();
        for bad in ["NaN", "-3", "inf", "0.5", "two"] {
            match odb.execute(&format!("optimize Interaction -g {bad}")) {
                Err(Error::Parse(m)) => assert!(m.contains(bad), "{bad}: {m}"),
                other => panic!("-g {bad}: expected a parse error, got {other:?}"),
            }
        }
        assert!(odb.execute("optimize Interaction -g 1").is_ok());
    }

    /// Regression: `run` and `explain` sliced the untrimmed line at the
    /// verb's byte length, so two no-break spaces before `run` panicked
    /// and two plain spaces parsed `un SELECT …`.
    #[test]
    fn whitespace_before_the_verb_is_only_whitespace() {
        let mut odb = setup();
        let sql = "SELECT * FROM VERSION 0 OF CVD Interaction WHERE coexpression > 40";
        for pad in ["  ", "\u{a0}\u{a0}", "\t\u{3000}"] {
            match odb.execute(&format!("{pad}run {sql}")) {
                Ok(CommandOutput::Table(t)) => assert_eq!(t.rows.len(), 2, "{pad:?}"),
                other => panic!("{pad:?} run: {other:?}"),
            }
            match odb.execute(&format!("{pad}explain analyze {sql}")) {
                Ok(CommandOutput::Message(m)) => assert!(m.contains("act rows=2"), "{m}"),
                other => panic!("{pad:?} explain: {other:?}"),
            }
        }
    }

    fn missing_value(flag: &str) -> Error {
        Error::Parse(format!("missing {flag} <value>"))
    }

    /// Regression: `init … -k` with nothing after `-k` created the CVD
    /// with no primary key.
    #[test]
    fn init_refuses_a_bare_k_flag() {
        let dir = std::env::temp_dir().join(format!("orpheus-bare-k-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("d.csv");
        std::fs::write(&csv, "k\n1\n2\n").unwrap();
        let mut odb = setup();
        let init = format!("init d -f {} -s k:int -k", csv.display());
        assert_eq!(odb.execute(&init), Err(missing_value("-k")));
        assert!(odb.cvd("d").is_err(), "nothing was created");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: `optimize … -g` with nothing after `-g` planned at the
    /// default γ 2.0.
    #[test]
    fn optimize_refuses_a_bare_g_flag() {
        let mut odb = setup();
        assert_eq!(
            odb.execute("optimize Interaction -g"),
            Err(missing_value("-g"))
        );
    }

    /// Regression: `plan_storage … -b` with nothing after `-b` fell back
    /// to the default factor.
    #[test]
    fn plan_storage_refuses_a_bare_b_flag() {
        let mut odb = setup();
        assert_eq!(
            odb.execute("plan_storage Interaction -b"),
            Err(missing_value("-b"))
        );
    }

    /// Regression: a `-m` message stopped at its first word starting with
    /// `-`, so `-m revert -x and retry` committed the message `revert`.
    #[test]
    fn commit_message_runs_to_the_next_flag_of_the_command() {
        let mut odb = setup();
        odb.execute("checkout Interaction -v 0 -t w").unwrap();
        odb.execute("commit -t w -m revert -x and retry").unwrap();
        odb.execute("checkout Interaction -v 1 -t w2").unwrap();
        odb.execute("commit -m -- dashed -t w2").unwrap();
        let cvd = odb.cvd("Interaction").unwrap();
        assert_eq!(cvd.meta(Vid(1)).unwrap().message, "revert -x and retry");
        assert_eq!(cvd.meta(Vid(2)).unwrap().message, "-- dashed");
    }

    #[test]
    fn run_v_diff_and_intersect() {
        let mut odb = setup();
        odb.checkout("Interaction", &[Vid(0)], "w").unwrap();
        {
            let t = odb.staging_table_mut("w").unwrap();
            let (id, mut row) = t.rows().unwrap().remove(0);
            row[2] = Value::Int64(1234);
            t.update(id, row).unwrap();
        }
        odb.commit("w", "change one").unwrap();
        let diff = odb
            .run("SELECT * FROM V_DIFF(1, 0) OF CVD Interaction")
            .unwrap();
        assert_eq!(diff.rows.len(), 1);
        assert_eq!(diff.rows[0][3], Value::Int64(1234));
        let common = odb
            .run("SELECT * FROM V_INTERSECT(0, 1) OF CVD Interaction")
            .unwrap();
        assert_eq!(common.rows.len(), 2);
    }

    #[test]
    fn log_renders_version_graph() {
        let mut odb = setup();
        odb.checkout("Interaction", &[Vid(0)], "w").unwrap();
        odb.commit("w", "second").unwrap();
        let out = odb.log("Interaction").unwrap();
        // Newest first, with parent pointers and metadata.
        let first = out.lines().next().unwrap();
        assert!(first.starts_with("* v1"), "{first}");
        assert!(out.contains("← v0"));
        assert!(out.contains("(root)"));
        assert!(out.contains("msg: second"));
        assert!(odb.log("nope").is_err());
    }

    #[test]
    fn run_cross_version_join() {
        let mut odb = setup();
        odb.checkout("Interaction", &[Vid(0)], "w").unwrap();
        {
            let t = odb.staging_table_mut("w").unwrap();
            let (id, mut row) = t
                .rows()
                .unwrap()
                .into_iter()
                .find(|(_, r)| r[0] == Value::from("A"))
                .unwrap();
            row[2] = Value::Int64(11);
            t.update(id, row).unwrap();
        }
        odb.commit("w", "bump").unwrap();
        // Join v0 × v1 on coexpression: the two unchanged records match
        // themselves (90=90, 50=50); the changed pair (10 vs 11) does not.
        let rs = odb
            .run("SELECT * FROM VERSION 0 OF CVD Interaction JOIN VERSION 1 ON coexpression")
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        // Output carries both sides' attributes.
        assert_eq!(rs.schema.len(), 8);
    }

    #[test]
    fn drop_removes_everything() {
        let mut odb = setup();
        odb.execute("drop Interaction").unwrap();
        assert!(odb.cvd("Interaction").is_err());
        assert!(odb
            .run("SELECT * FROM VERSION 0 OF CVD Interaction")
            .is_err());
    }

    #[test]
    fn csv_quoting_roundtrip() {
        let schema = Schema::new(vec![
            Column::new("name", DataType::Text),
            Column::new("x", DataType::Int64),
        ]);
        let rows = vec![
            vec![Value::from("a,b"), Value::Int64(1)],
            vec![Value::from("q\"uote"), Value::Int64(2)],
        ];
        let csv = to_csv(&schema, rows.iter().map(|r| r.as_slice()));
        let parsed = from_csv(&schema, &csv).unwrap();
        assert_eq!(parsed, rows);
    }

    #[test]
    fn schema_spec_parsing() {
        let s = parse_schema_spec("a:int, b:text, c:float, d:bool").unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.column(2).unwrap().dtype, DataType::Float64);
        assert!(parse_schema_spec("nope").is_err());
        assert!(parse_schema_spec("x:blob").is_err());
        // `Schema::new` would keep the second `k`, and a WHERE on `k`
        // would test it.
        assert_eq!(
            parse_schema_spec("k:int, a:text,k :int").unwrap_err(),
            Error::Parse("column k named twice in the schema".into())
        );
    }

    #[test]
    fn commit_checkpoints_a_durable_instance() {
        let dir = std::env::temp_dir().join(format!("orpheus-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut odb, report) = OrpheusDb::open_durable(&dir, 64).unwrap();
            assert!(!report.did_work());
            assert!(odb.is_durable());
            odb.create_user("alice").unwrap();
            odb.login("alice").unwrap();
            let schema = Schema::new(vec![Column::new("x", DataType::Int64)]);
            odb.init_cvd("d", schema, vec!["x".into()], vec![vec![Value::Int64(1)]])
                .unwrap();
            odb.checkout("d", &[Vid(0)], "w").unwrap();
            odb.staging_table_mut("w")
                .unwrap()
                .insert(vec![Value::Int64(2)])
                .unwrap();
            let before = odb.io_stats().checkpoints;
            odb.commit("w", "add 2").unwrap();
            assert!(
                odb.io_stats().checkpoints > before,
                "commit on a durable instance must end in a checkpoint"
            );
            // The shell surface: `checkpoint` and `recover` respond.
            match odb.execute("checkpoint").unwrap() {
                CommandOutput::Message(m) => assert!(m.contains("checkpoint complete"), "{m}"),
                other => panic!("expected message, got {other:?}"),
            }
            match odb.execute("recover").unwrap() {
                CommandOutput::Message(m) => assert!(m.contains("recovery:"), "{m}"),
                other => panic!("expected message, got {other:?}"),
            }
        }
        // Reopen: the committed pages survive process death.
        let (odb, _) = OrpheusDb::open_durable(&dir, 64).unwrap();
        assert!(odb.db.pool().num_pages() > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The catalog snapshot brings the full logical state back after a
    /// hard crash (no clean shutdown): versions, records, authors, users —
    /// and the reopened instance accepts new commits on top.
    #[test]
    fn reopened_durable_instance_recovers_the_catalog() {
        let dir = std::env::temp_dir().join(format!("orpheus-catrec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut odb, _) = OrpheusDb::open_durable(&dir, 64).unwrap();
            odb.create_user("alice").unwrap();
            odb.login("alice").unwrap();
            let schema = Schema::new(vec![
                Column::new("k", DataType::Int64),
                Column::new("x", DataType::Int64),
            ]);
            odb.init_cvd(
                "d",
                schema,
                vec!["k".into()],
                vec![vec![Value::Int64(1), Value::Int64(10)]],
            )
            .unwrap();
            odb.checkout("d", &[Vid(0)], "w").unwrap();
            odb.staging_table_mut("w")
                .unwrap()
                .insert(vec![Value::Int64(2), Value::Int64(20)])
                .unwrap();
            odb.commit("w", "add 2").unwrap();
            // No explicit checkpoint and no clean drop-order shutdown:
            // the commit's own durability point must be enough.
        }
        let (mut odb, _) = OrpheusDb::open_durable(&dir, 64).unwrap();
        odb.login("alice").unwrap(); // users survived
        let v1 = odb.run("SELECT * FROM VERSION 1 OF CVD d").unwrap();
        assert_eq!(v1.rows.len(), 2, "committed version survived the reopen");
        assert_eq!(odb.cvd("d").unwrap().meta(Vid(1)).unwrap().author, "alice");
        // The recovered instance is fully writable.
        odb.checkout("d", &[Vid(1)], "w2").unwrap();
        odb.staging_table_mut("w2")
            .unwrap()
            .insert(vec![Value::Int64(3), Value::Int64(30)])
            .unwrap();
        let r = odb.commit("w2", "post-recovery").unwrap();
        assert_eq!(r.vid, Vid(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: `recover` on a live instance discarded a checked-out
    /// table's rows and said nothing, so the next commit stored a version
    /// of the one row inserted after it. Now it refuses, naming the table.
    #[test]
    fn recover_refuses_while_tables_are_checked_out() {
        let dir = std::env::temp_dir().join(format!("orpheus-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut odb, _) = OrpheusDb::open_durable(&dir, 64).unwrap();
        odb.create_user("alice").unwrap();
        odb.login("alice").unwrap();
        let csv = dir.join("d.csv");
        std::fs::write(&csv, "k,x\n1,10\n2,20\n3,30\n").unwrap();
        let init = format!("init d -f {} -s k:int,x:int -k k", csv.display());
        for line in [&init, "checkout d -v 0 -t w", "insert w 4,40"] {
            odb.execute(line).unwrap();
        }
        let err = odb.execute("recover").unwrap_err();
        assert_eq!(err, Error::CheckedOut(vec!["w".into()]));
        assert!(err.to_string().contains("checked-out tables: w"), "{err}");
        odb.execute("insert w 5,50").unwrap();
        odb.execute("commit -t w -m after").unwrap();
        assert!(odb.log("d").unwrap().contains("records: 5  msg: after"));
        assert!(odb.execute("recover").is_ok(), "nothing checked out now");
        drop(odb);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: `init e` with `e__meta` taken failed after creating
    /// `e__sbr_data` and `e__sbr_vtab`, and every later `init e` failed on
    /// those until a reopen. Now it checks every name before creating any.
    #[test]
    fn a_failed_init_leaves_no_tables_behind() {
        let mut odb = setup();
        odb.checkout("Interaction", &[Vid(0)], "e__meta").unwrap();
        let tables = odb.db.table_names().len();
        let schema = Schema::new(vec![Column::new("k", DataType::Int64)]);
        let rows = vec![vec![Value::Int64(1)]];
        let init = |odb: &mut OrpheusDb| odb.init_cvd("e", schema.clone(), vec![], rows.clone());
        let err = init(&mut odb).unwrap_err();
        assert_eq!(err.to_string(), "storage: table already exists: e__meta");
        assert_eq!(odb.db.table_names().len(), tables, "nothing was created");
        odb.commit("e__meta", "free the name").unwrap();
        assert_eq!(init(&mut odb).unwrap(), Vid(0));
        assert!(odb.list_cvds().contains(&"e".to_owned()));
    }

    /// `setup`'s CVD plus `d` and `e`, one row each.
    fn two_cvds() -> OrpheusDb {
        let mut odb = setup();
        for (name, k) in [("d", 1), ("e", 2)] {
            let schema = Schema::new(vec![Column::new("k", DataType::Int64)]);
            let rows = vec![vec![Value::Int64(k)]];
            odb.init_cvd(name, schema, vec!["k".into()], rows).unwrap();
        }
        odb
    }

    /// Regression: a CSV checkout named after a live staging table took
    /// its entry over, and `commit -t w` then made `e` v1 out of `d`'s
    /// row; a table checkout could take a CSV checkout's name the same
    /// way. Both now refuse a name in use.
    #[test]
    fn a_checkout_refuses_a_name_another_checkout_holds() {
        let mut odb = two_cvds();
        odb.checkout("d", &[Vid(0)], "w").unwrap();
        let taken = Error::Storage(relstore::Error::TableExists("w".into()));
        assert_eq!(odb.checkout_csv("e", &[Vid(0)], "w").unwrap_err(), taken);
        odb.checkout_csv("e", &[Vid(0)], "e.csv").unwrap();
        let err = odb.checkout("d", &[Vid(0)], "e.csv").unwrap_err();
        assert_eq!(
            err,
            Error::Storage(relstore::Error::TableExists("e.csv".into()))
        );
        assert!(!odb.database().has_table("e.csv"));
        odb.commit("w", "still d's").unwrap();
        assert_eq!(odb.cvd("d").unwrap().latest_version(), Vid(1));
        assert_eq!(odb.cvd("e").unwrap().latest_version(), Vid(0));
        let csv = odb.commit_csv("e.csv", "k\n2\n3\n", "k:int", "still e's");
        assert_eq!(csv.unwrap().vid, Vid(1));
        assert_eq!(odb.cvd("d").unwrap().latest_version(), Vid(1));
    }

    /// Regression: `drop d` forgot its checkouts but left their scratch
    /// tables, so the name stayed taken and the pages allocated.
    #[test]
    fn drop_takes_the_cvds_checked_out_tables_along() {
        let mut odb = two_cvds();
        odb.checkout("d", &[Vid(0)], "w").unwrap();
        odb.checkout_csv("d", &[Vid(0)], "d.csv").unwrap();
        odb.checkout("e", &[Vid(0)], "x").unwrap();
        odb.drop_cvd("d").unwrap();
        assert!(!odb.database().has_table("w"));
        assert!(odb.staging_table("w").is_err() && odb.staging_table("x").is_ok());
        odb.commit("x", "e lives on").unwrap();
        assert_eq!(odb.database().pool().unlogged_pages(), 0);
        odb.checkout("e", &[Vid(0)], "w").unwrap();
        odb.checkout_csv("e", &[Vid(0)], "d.csv").unwrap();
        odb.commit("w", "in w again").unwrap();
        assert_eq!(odb.cvd("e").unwrap().latest_version(), Vid(2));
    }

    #[test]
    fn checkpoint_command_is_informative_in_memory() {
        let mut odb = setup();
        match odb.execute("checkpoint").unwrap() {
            CommandOutput::Message(m) => assert!(m.contains("in-memory"), "{m}"),
            other => panic!("expected message, got {other:?}"),
        }
        assert!(odb.execute("recover").is_err(), "recover needs a WAL");
    }

    /// The tentpole acceptance test: EXPLAIN ANALYZE on a hash join over
    /// two versions prints estimated and actual rows, measured page reads,
    /// and per-operator wall time — and the root operator's inclusive
    /// measured I/O reconciles with the pool's own `IoStats` delta.
    #[test]
    fn explain_analyze_join_reconciles_with_pool_delta() {
        let mut odb = setup();
        odb.checkout("Interaction", &[Vid(0)], "w").unwrap();
        {
            let t = odb.staging_table_mut("w").unwrap();
            t.insert(vec![Value::from("G"), Value::from("H"), Value::Int64(90)])
                .unwrap();
        }
        odb.commit("w", "add GH").unwrap();
        let sql = "SELECT * FROM VERSION 0 OF CVD Interaction JOIN VERSION 1 ON coexpression";
        let expected = odb.run(sql).unwrap().rows.len() as u64;
        let report = odb.explain_analyze(sql).unwrap();
        assert_eq!(report.root.stats.rows, expected);
        assert_eq!(report.root.children.len(), 2, "join has two inputs");
        // Reconciliation: the instrumented root saw exactly the page
        // traffic the pool recorded across the query.
        assert_eq!(
            report.root.stats.measured.logical_reads, report.pool_delta.logical_reads,
            "root inclusive measured reads must match the pool delta"
        );
        assert_eq!(
            report.root.stats.measured.physical_reads,
            report.pool_delta.physical_reads
        );
        assert!(report.root.stats.measured.logical_reads > 0);
        let text = report.to_text();
        assert!(
            text.contains("HashJoin left.coexpression=right.coexpression"),
            "{text}"
        );
        assert!(
            text.contains("RidFetch Interaction__sbr_data (left)"),
            "{text}"
        );
        assert!(text.contains("est rows="), "{text}");
        assert!(text.contains("act rows="), "{text}");
        assert!(text.contains("time="), "{text}");
        assert!(text.contains("pool delta:"), "{text}");
    }

    /// Regression (drift audit): commit paths used to pass a throwaway
    /// `CostTracker` to `apply_commit`, losing the charges. They must
    /// accumulate in the instance-wide tracker, as must query trackers.
    #[test]
    fn command_costs_accumulate_in_the_lifetime_tracker() {
        let mut odb = setup();
        assert_eq!(odb.cost_tracker().tuples, 0);
        odb.checkout("Interaction", &[Vid(0)], "w").unwrap();
        {
            let t = odb.staging_table_mut("w").unwrap();
            t.insert(vec![Value::from("G"), Value::from("H"), Value::Int64(7)])
                .unwrap();
        }
        odb.commit("w", "add").unwrap();
        let after_commit = odb.cost_tracker();
        assert!(
            after_commit.tuples > 0,
            "apply_commit charges must land in the cumulative tracker"
        );
        odb.run("SELECT * FROM VERSION 1 OF CVD Interaction")
            .unwrap();
        let after_query = odb.cost_tracker();
        assert!(after_query.tuples > after_commit.tuples);
        assert!(
            after_query.measured.logical_reads > 0,
            "measured side absorbed"
        );
    }

    #[test]
    fn metrics_command_exports_counters_and_latency_histograms() {
        let mut odb = setup();
        odb.checkout("Interaction", &[Vid(0)], "w").unwrap();
        odb.commit("w", "noop").unwrap();
        odb.run("SELECT * FROM VERSION 1 OF CVD Interaction")
            .unwrap();
        let out = odb.execute("metrics --json").unwrap();
        let m = match out {
            CommandOutput::Message(m) => m,
            other => panic!("expected message, got {other:?}"),
        };
        let doc = obs::parse(&m).unwrap();
        let reads = doc
            .get_path("counters/pagestore.pool.logical_reads")
            .and_then(obs::Json::as_f64)
            .unwrap();
        assert!(reads > 0.0, "{m}");
        assert!(
            doc.get_path("gauges/pagestore.pool.hit_ratio").is_some(),
            "{m}"
        );
        assert!(
            doc.get_path("counters/relstore.tracker.tuples")
                .and_then(obs::Json::as_f64)
                .unwrap()
                > 0.0,
            "{m}"
        );
        for h in [
            "histograms/orpheus.commit.latency_us",
            "histograms/orpheus.checkout.latency_us",
            "histograms/orpheus.query.latency_us",
        ] {
            let p50 = doc
                .get_path(&format!("{h}/p50"))
                .and_then(obs::Json::as_f64)
                .unwrap_or_else(|| panic!("missing {h}: {m}"));
            let p99 = doc
                .get_path(&format!("{h}/p99"))
                .and_then(obs::Json::as_f64)
                .unwrap();
            assert!(p50 <= p99, "{h}: p50 {p50} > p99 {p99}");
        }
        // Text form and reset.
        match odb.execute("metrics").unwrap() {
            CommandOutput::Message(t) => assert!(t.contains("orpheus.commit.latency_us"), "{t}"),
            other => panic!("expected message, got {other:?}"),
        }
        odb.execute("metrics reset").unwrap();
        match odb.execute("metrics --json").unwrap() {
            CommandOutput::Message(t) => {
                let doc = obs::parse(&t).unwrap();
                assert!(doc
                    .get_path("histograms/orpheus.commit.latency_us")
                    .is_none());
            }
            other => panic!("expected message, got {other:?}"),
        }
    }

    #[test]
    fn spans_command_shows_the_command_tree() {
        let mut odb = setup();
        odb.checkout("Interaction", &[Vid(0)], "w").unwrap();
        odb.commit("w", "noop").unwrap();
        odb.run("SELECT * FROM VERSION 1 OF CVD Interaction")
            .unwrap();
        match odb.execute("spans").unwrap() {
            CommandOutput::Message(m) => {
                assert!(m.contains("orpheus.checkout"), "{m}");
                assert!(m.contains("orpheus.commit"), "{m}");
                assert!(m.contains("orpheus.query"), "{m}");
            }
            other => panic!("expected message, got {other:?}"),
        }
        match odb.execute("spans --json").unwrap() {
            CommandOutput::Message(m) => {
                obs::parse(&m).unwrap();
            }
            other => panic!("expected message, got {other:?}"),
        }
        odb.execute("spans reset").unwrap();
        match odb.execute("spans").unwrap() {
            CommandOutput::Message(m) => assert!(m.contains("no spans"), "{m}"),
            other => panic!("expected message, got {other:?}"),
        }
    }

    #[test]
    fn traced_commit_attributes_wal_fsync_to_the_request() {
        let dir = std::env::temp_dir().join(format!("orpheus-trace-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut odb, _) = OrpheusDb::open_durable(&dir, 64).unwrap();
            odb.execute("create_user alice").unwrap();
            odb.execute("config alice").unwrap();
            let csv = dir.join("seed.csv");
            std::fs::write(&csv, "x\n1\n2\n").unwrap();
            odb.execute(&format!("init d -f {} -s x:int -k x", csv.display()))
                .unwrap();
            odb.execute("checkout d -v 0 -t w").unwrap();
            odb.execute("insert w 3").unwrap();
            odb.execute("commit -t w -m add3").unwrap();
            // The WAL fsync of the commit's checkpoint is journaled under
            // the same trace as the commit's own request span.
            let events = odb.recorder().journal().snapshot();
            let fsync = events
                .iter()
                .rev()
                .find(|e| e.phase == obs::Phase::End && e.name.as_ref() == "pagestore.wal.fsync")
                .unwrap_or_else(|| panic!("no fsync event journaled: {events:?}"));
            assert_ne!(fsync.trace_id, 0);
            let same_trace: Vec<&str> = events
                .iter()
                .filter(|e| e.trace_id == fsync.trace_id && e.phase == obs::Phase::End)
                .map(|e| e.name.as_ref())
                .collect();
            assert!(same_trace.contains(&"orpheus.request"), "{same_trace:?}");
            assert!(same_trace.contains(&"orpheus.commit"), "{same_trace:?}");
            // Each executed command minted its own trace.
            let request_traces: std::collections::HashSet<u64> = events
                .iter()
                .filter(|e| e.name.as_ref() == "orpheus.request")
                .map(|e| e.trace_id)
                .collect();
            assert!(request_traces.len() >= 5, "{request_traces:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_dump_and_reset_commands_export_the_journal() {
        let mut odb = setup();
        odb.execute("checkout Interaction -v 0 -t w").unwrap();
        match odb.execute("trace dump").unwrap() {
            CommandOutput::Message(m) => {
                assert!(m.contains("journal:"), "{m}");
                assert!(m.contains("trace 0x"), "{m}");
            }
            other => panic!("expected message, got {other:?}"),
        }
        match odb.execute("trace dump --json").unwrap() {
            CommandOutput::Message(m) => {
                assert!(!m.is_empty());
                for line in m.lines() {
                    let missing = obs::missing_keys(
                        line,
                        &["name", "ph", "ts", "pid", "tid", "args/trace", "args/span"],
                    )
                    .unwrap();
                    assert!(missing.is_empty(), "{missing:?} in {line}");
                }
            }
            other => panic!("expected message, got {other:?}"),
        }
        odb.execute("trace reset").unwrap();
        match odb.execute("trace dump --json").unwrap() {
            CommandOutput::Message(m) => assert!(m.is_empty(), "{m}"),
            other => panic!("expected message, got {other:?}"),
        }
        assert!(odb.execute("trace bogus").is_err());
        assert!(odb.execute("trace dump --bogus").is_err());
    }

    #[test]
    fn journal_counters_appear_in_published_metrics() {
        let mut odb = setup();
        odb.execute("checkout Interaction -v 0 -t w").unwrap();
        let m = match odb.execute("metrics --json").unwrap() {
            CommandOutput::Message(m) => m,
            other => panic!("expected message, got {other:?}"),
        };
        let doc = obs::parse(&m).unwrap();
        let recorded = doc
            .get_path("counters/obs.journal.recorded")
            .and_then(obs::Json::as_f64)
            .unwrap();
        assert!(recorded > 0.0, "{m}");
        assert_eq!(
            doc.get_path("counters/obs.journal.dropped")
                .and_then(obs::Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn slow_query_log_threshold_zero_logs_without_breaking_commands() {
        // The slow-query line goes to stderr (stdout stays deterministic),
        // so here we only assert the logging path runs and commands still
        // succeed with the threshold forced to "log everything".
        let mut odb = setup();
        odb.set_slow_ms(0);
        assert_eq!(odb.slow_ms(), 0);
        odb.execute("checkout Interaction -v 0 -t w").unwrap();
        match odb.execute("run SELECT * FROM VERSION 0 OF CVD Interaction") {
            Ok(CommandOutput::Table(t)) => assert_eq!(t.rows.len(), 3),
            other => panic!("expected table, got {other:?}"),
        }
    }

    /// Regression: `stats` on an in-memory instance must not report WAL
    /// traffic — there is no WAL, and printing zeros misleads experiments
    /// comparing durable vs in-memory runs.
    #[test]
    fn stats_report_omits_wal_section_without_a_wal() {
        let mut odb = setup();
        odb.checkout("Interaction", &[Vid(0)], "work").unwrap();
        match odb.execute("stats").unwrap() {
            CommandOutput::Message(m) => {
                assert!(
                    !m.contains("wal"),
                    "in-memory stats must not mention WAL: {m}"
                )
            }
            other => panic!("expected message, got {other:?}"),
        }
    }

    #[test]
    fn durable_metrics_include_wal_fsyncs() {
        let dir = std::env::temp_dir().join(format!("orpheus-obs-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut odb, _) = OrpheusDb::open_durable(&dir, 64).unwrap();
            odb.create_user("alice").unwrap();
            odb.login("alice").unwrap();
            let schema = Schema::new(vec![Column::new("x", DataType::Int64)]);
            odb.init_cvd("d", schema, vec!["x".into()], vec![vec![Value::Int64(1)]])
                .unwrap();
            odb.checkout("d", &[Vid(0)], "w").unwrap();
            odb.staging_table_mut("w")
                .unwrap()
                .insert(vec![Value::Int64(2)])
                .unwrap();
            odb.commit("w", "add 2").unwrap();
            // The durable stats line reports fsyncs alongside records.
            let stats = odb.stats_report();
            assert!(stats.contains("fsync(s)"), "{stats}");
            // The open pre-wrote the log, so no commit grew its file.
            assert!(stats.contains(", 0 file grow(s)"), "{stats}");
            // And metrics --json carries the WAL fsync counter.
            let out = odb.execute("metrics --json").unwrap();
            let m = match out {
                CommandOutput::Message(m) => m,
                other => panic!("expected message, got {other:?}"),
            };
            let doc = obs::parse(&m).unwrap();
            let fsyncs = doc
                .get_path("counters/pagestore.wal.fsyncs")
                .and_then(obs::Json::as_f64)
                .unwrap();
            assert!(fsyncs > 0.0, "{m}");
            // WAL activity shows up as spans nested under the checkpoint.
            let report = odb.recorder().report();
            assert!(report.find("pagestore.checkpoint").is_some());
            assert!(report.find("pagestore.wal.fsync").is_some());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_command_reports_and_resets_pool_counters() {
        let mut odb = setup();
        odb.checkout("Interaction", &[Vid(0)], "work").unwrap();
        assert!(odb.io_stats().logical_reads > 0);
        let out = odb.execute("stats").unwrap();
        match out {
            CommandOutput::Message(m) => {
                assert!(m.contains("hit rate"), "report missing hit rate: {m}");
                assert!(m.contains("physical reads"), "report missing reads: {m}");
            }
            other => panic!("expected message, got {other:?}"),
        }
        odb.execute("stats reset").unwrap();
        assert_eq!(odb.io_stats(), relstore::IoStats::default());
    }

    /// A CVD of many pages (2 500 rows), with a second version whose diff
    /// against v0 is non-trivial.
    fn setup_large() -> OrpheusDb {
        let mut odb = OrpheusDb::new();
        odb.create_user("alice").unwrap();
        odb.login("alice").unwrap();
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int64),
            Column::new("grp", DataType::Int64),
            Column::new("score", DataType::Int64),
        ]);
        let rows: Vec<Row> = (0..2500i64)
            .map(|i| {
                vec![
                    Value::Int64(i),
                    Value::Int64(i % 7),
                    Value::Int64(i * 3 % 101),
                ]
            })
            .collect();
        odb.init_cvd("Big", schema, vec!["k".into()], rows).unwrap();
        odb.checkout("Big", &[Vid(0)], "work").unwrap();
        {
            let t = odb.staging_table_mut("work").unwrap();
            let targets: Vec<_> = t
                .rows()
                .unwrap()
                .into_iter()
                .filter(|(_, r)| r[0].as_i64().unwrap() % 5 == 0)
                .collect();
            for (id, mut row) in targets {
                row[2] = Value::Int64(row[2].as_i64().unwrap() + 1000);
                t.update(id, row).unwrap();
            }
        }
        odb.commit("work", "bump every fifth score").unwrap();
        odb
    }

    /// Every checkout, diff and versioned query over a many-page CVD
    /// answers the same on the engine, on a pinned snapshot and through
    /// the instrumented plan `explain analyze` runs.
    #[test]
    fn outputs_agree_across_engine_snapshot_and_explain() {
        let odb = setup_large();
        let queries = [
            "SELECT * FROM VERSION 0, 1 OF CVD Big WHERE score > 500 LIMIT 900",
            "SELECT * FROM VERSION 1 OF CVD Big",
            "SELECT vid, sum(score) FROM CVD Big GROUP BY vid",
            "SELECT * FROM V_DIFF(1, 0) OF CVD Big",
            "SELECT * FROM V_INTERSECT(0, 1) OF CVD Big",
            "SELECT * FROM VERSION 0 OF CVD Big JOIN VERSION 1 ON k",
        ];
        let snap = odb.snapshot("Big").unwrap();
        let pinned = |sql: &str| snap.run(sql).unwrap();
        let checkout = odb.read_version("Big", Vid(1)).unwrap().0;
        assert_eq!(checkout, pinned("SELECT * FROM VERSION 1 OF CVD Big").rows);
        let (left, right) = odb.diff("Big", Vid(0), Vid(1)).unwrap();
        assert_eq!(left, pinned("SELECT * FROM V_DIFF(0, 1) OF CVD Big"));
        assert_eq!(right, pinned("SELECT * FROM V_DIFF(1, 0) OF CVD Big"));
        for q in queries {
            let base = odb.run(q).unwrap();
            assert!(!base.rows.is_empty(), "{q}");
            assert_eq!(pinned(q), base, "pinned: {q}");
            let report = odb.explain_analyze(q).unwrap();
            assert_eq!(report.root.stats.rows, base.rows.len() as u64, "{q}");
        }
        let report = odb
            .explain_analyze("SELECT * FROM VERSION 1 OF CVD Big")
            .unwrap();
        let text = report.to_text();
        assert!(
            text.starts_with("RidFetch Big__sbr_data  (est rows="),
            "{text}"
        );
    }

    /// A commit by rid compares the rows inserted, not the parent's: ten
    /// inserts over 1 260 checked-out rows compare 10, the all-changed
    /// form 1 270 — for the same new version.
    #[test]
    fn a_commit_compares_only_the_rows_it_touched() {
        let mut odb = OrpheusDb::new();
        odb.create_user("alice").unwrap();
        odb.login("alice").unwrap();
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int64),
            Column::new("a", DataType::Int64),
        ]);
        let row = |k: i64| vec![Value::Int64(k), Value::Int64(k % 7)];
        odb.init_cvd("c", schema, vec!["k".into()], (0..1_260).map(row).collect())
            .unwrap();
        let compared = |odb: &OrpheusDb| odb.metrics().counter("orpheus.commit.rows_compared");
        let mut results = Vec::new();
        for all_changed in [false, true] {
            let before = compared(&odb);
            odb.checkout("c", &[Vid(0)], "w").unwrap();
            let t = odb.staging_table_mut("w").unwrap();
            for k in 5_000..5_010 {
                t.insert(row(k)).unwrap();
            }
            let result = if all_changed {
                odb.commit_all_changed("w", "ten more").unwrap()
            } else {
                odb.commit("w", "ten more").unwrap()
            };
            let expected = if all_changed { 1_270 } else { 10 };
            assert_eq!(compared(&odb) - before, expected);
            let out = odb.execute("metrics").unwrap();
            let CommandOutput::Message(text) = out else {
                panic!("expected the metrics text, got {out:?}");
            };
            assert!(text.contains("orpheus.commit.rows_compared"), "{text}");
            results.push((result.new_records, result.reused_records));
        }
        assert_eq!(results, [(10, 1_260), (10, 1_260)]);
    }

    /// Gauge `orpheus.cvd.record_bytes` is what the CVDs hold in RAM: each
    /// record's tuple and 8 bytes per rid listed. A commit adds exactly its
    /// new tuples and its rlist.
    #[test]
    fn the_record_bytes_gauge_counts_tuples_and_rlists() {
        let mut odb = setup();
        let gauge = |odb: &OrpheusDb| {
            odb.publish_metrics();
            odb.metrics().gauge("orpheus.cvd.record_bytes").unwrap()
        };
        let held = |odb: &OrpheusDb| {
            let cvd = odb.cvd("Interaction").unwrap();
            let records = (0..cvd.num_records() as u64).map(|r| cvd.tuple(Rid(r)).len());
            let versions = cvd.graph().versions();
            let rids = versions.map(|v| cvd.version_records(v).unwrap().len());
            (records.sum::<usize>() + 8 * rids.sum::<usize>()) as f64
        };
        let before = gauge(&odb);
        assert_eq!(before, held(&odb));
        odb.execute("checkout Interaction -v 0 -t w").unwrap();
        odb.execute("insert w G,H,7").unwrap();
        odb.commit("w", "one more").unwrap();
        // A 40-byte tuple — header 10, rid 9, two 1-byte texts 6 each, an
        // integer 9 — and an rlist of 4 rids.
        assert_eq!(odb.cvd("Interaction").unwrap().tuple(Rid(3)).len(), 40);
        assert_eq!(gauge(&odb), before + 40.0 + 32.0);
        assert_eq!(gauge(&odb), held(&odb));
    }

    /// A checkout taken before another commit evolved the schema stages
    /// its rows in the old one, so its commit compares every row: by rid
    /// it would compare the edited row alone and drop the others.
    #[test]
    fn a_checkout_older_than_the_schema_is_committed_whole() {
        let mut odb = setup();
        odb.checkout("Interaction", &[Vid(0)], "old").unwrap();
        odb.checkout("Interaction", &[Vid(0)], "new").unwrap();
        let note = Column::nullable("note", DataType::Text);
        let t = odb.staging_table_mut("new").unwrap();
        t.add_column(note, Value::Null).unwrap();
        odb.commit("new", "add a column").unwrap();
        let t = odb.staging_table_mut("old").unwrap();
        let (id, mut row) = t.rows().unwrap().remove(0);
        row[2] = Value::Int64(11);
        t.update(id, row).unwrap();
        let res = odb.commit("old", "bump").unwrap();
        assert_eq!((res.new_records, res.reused_records), (1, 2));
    }

    /// Regression: a schema-evolving commit widened and padded the CVD's
    /// schema, attributes and records before it could still fail, so a
    /// failed commit left version 0 reading differently through the engine
    /// and a pin, and the next checkout staged the failed schema.
    #[test]
    fn a_failed_schema_evolving_commit_changes_nothing() {
        let mut odb = OrpheusDb::new();
        odb.create_user("alice").unwrap();
        odb.login("alice").unwrap();
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int64),
            Column::new("x", DataType::Int64),
        ]);
        let rows = vec![vec![Value::Int64(1), Value::Int64(2)]];
        odb.init_cvd("d", schema, vec!["k".into()], rows).unwrap();
        let sql = "SELECT * FROM VERSION 0 OF CVD d";
        let seen = |odb: &OrpheusDb| {
            let cvd = odb.cvd("d").unwrap();
            let pinned = odb.snapshot("d").unwrap().run(sql).unwrap();
            (
                cvd.schema().clone(),
                cvd.attributes().to_vec(),
                cvd.record(Rid(0)).unwrap(),
                cvd.metas().to_vec(),
                odb.run(sql).unwrap(),
                (pinned.schema, pinned.rows),
            )
        };
        let before = seen(&odb);
        // A failed commit keeps its checkout, so each attempt takes a name
        // of its own.
        for (file, csv, spec, error) in [
            (
                "f.csv",
                "k,y\n1,5\n",
                "k:int,y:int",
                "null in non-nullable column x",
            ),
            (
                "g.csv",
                "k,x\n1,1.5\n1,2.5\n",
                "k:int,x:float",
                "duplicate key",
            ),
        ] {
            odb.checkout_csv("d", &[Vid(0)], file).unwrap();
            let err = odb.commit_csv(file, csv, spec, "evolve").unwrap_err();
            assert!(err.to_string().contains(error), "{err}");
            assert_eq!(seen(&odb), before, "after {spec}");
        }
        odb.checkout("d", &[Vid(0)], "w").unwrap();
        let staged = odb.staging_table("w").unwrap().schema().clone();
        assert_eq!(&staged, odb.cvd("d").unwrap().schema());
        assert_eq!(staged.len(), 2);
    }

    /// Regression: `checkout Interaction -v 0 0` was taken, and its
    /// commit made `v1 ← v0, v0`. The library refuses it as the parser
    /// does, before any table or checkout exists.
    #[test]
    fn a_checkout_refuses_a_version_listed_twice() {
        let mut odb = setup();
        let twice = [Vid(0), Vid(0)];
        let err = odb.checkout("Interaction", &twice, "w").unwrap_err();
        assert!(
            matches!(&err, Error::Parse(m) if m.contains("listed twice")),
            "{err}"
        );
        let err = odb
            .checkout_csv("Interaction", &twice, "w.csv")
            .unwrap_err();
        assert!(matches!(err, Error::Parse(_)), "{err}");
        assert!(!odb.database().has_table("w"));
        assert!(odb.staging_table("w").is_err() && odb.staging_table("w.csv").is_err());
        odb.checkout("Interaction", &[Vid(0)], "w").unwrap();
        odb.commit("w", "once").unwrap();
        let meta = odb.cvd("Interaction").unwrap().meta(Vid(1)).unwrap();
        assert_eq!(meta.parents, [Vid(0)]);
    }

    /// Regression: a library checkout of no versions was taken, and its
    /// commit made `v1 ← (root)`, a second root beside v0. The library
    /// refuses it as the parser does (`missing values for -v`).
    #[test]
    fn a_checkout_refuses_an_empty_version_list() {
        let mut odb = setup();
        let err = odb.checkout("Interaction", &[], "w").unwrap_err();
        assert!(matches!(&err, Error::Parse(_)), "{err}");
        let err = odb.checkout_csv("Interaction", &[], "w.csv").unwrap_err();
        assert!(matches!(&err, Error::Parse(_)), "{err}");
        assert!(!odb.database().has_table("w"));
        assert!(odb.staging_table("w").is_err() && odb.staging_table("w.csv").is_err());
        let parse = Command::parse("checkout Interaction -v -t w").unwrap_err();
        assert!(matches!(parse, Error::Parse(_)), "{parse}");
        assert_eq!(odb.cvd("Interaction").unwrap().num_versions(), 1);
        assert_eq!(
            odb.optimize("Interaction", 2.0)
                .unwrap()
                .partitioning
                .num_partitions(),
            1
        );
    }

    /// A checkout that is only inserted into is never copied: before a
    /// read its table holds the inserted rows alone, numbered after the
    /// version's, and its commit is the commit by rid an eager checkout
    /// makes. The first read copies the version in, once.
    #[test]
    fn an_insert_only_checkout_copies_nothing() {
        let mut odb = setup();
        let counter = |odb: &OrpheusDb, name: &str| odb.metrics().counter(name);
        odb.execute("checkout Interaction -v 0 -t w").unwrap();
        odb.execute("insert w G,H,7").unwrap();
        odb.execute("insert w I,J,8").unwrap();
        let staged = odb.database().table("w").unwrap();
        let ids: Vec<RowId> = staged.rows().unwrap().iter().map(|&(id, _)| id).collect();
        assert_eq!(
            ids,
            [3, 4],
            "the inserted rows alone, after the version's 3"
        );
        let res = odb.commit("w", "two more").unwrap();
        assert_eq!((res.new_records, res.reused_records), (2, 3));
        assert_eq!(counter(&odb, "orpheus.commit.rows_compared"), 2);
        assert_eq!(counter(&odb, "orpheus.checkout.rows_copied"), 0);
        assert_eq!(counter(&odb, "orpheus.checkout.materialized"), 0);
        odb.execute("checkout Interaction -v 1 -t r").unwrap();
        odb.execute("insert r K,L,9").unwrap();
        assert_eq!(odb.staging_table("r").unwrap().live_row_count(), 6);
        assert_eq!(odb.staging_table("r").unwrap().live_row_count(), 6);
        assert_eq!(counter(&odb, "orpheus.checkout.rows_copied"), 5);
        assert_eq!(counter(&odb, "orpheus.checkout.materialized"), 1);
        let doc = match odb.execute("metrics --json").unwrap() {
            CommandOutput::Message(m) => obs::parse(&m).unwrap(),
            other => panic!("expected the metrics, got {other:?}"),
        };
        let copies = doc.get_path("counters/orpheus.checkout.materialized");
        assert_eq!(copies.and_then(obs::Json::as_f64), Some(1.0));
    }

    /// Differential: a checkout copied at its first read commits exactly
    /// what a checkout copied at once commits. Random histories of keyed,
    /// unkeyed and merge checkouts run on two instances, one of which
    /// reads every staging table as soon as it is checked out; every
    /// read, commit outcome and CVD must agree.
    mod copy_on_first_read {
        use super::*;
        use proptest::prelude::*;

        /// One checkout, edited and committed.
        #[derive(Debug, Clone)]
        struct Cycle {
            /// Of the keyed CVD `h`, or else of the unkeyed `u`.
            keyed: bool,
            /// Parents, modulo the version count; two distinct ones merge.
            parents: (usize, usize, bool),
            /// Rows inserted before the first read, and after it.
            before: usize,
            after: usize,
            /// Read the table (copying it), insert `after` rows, update
            /// one row and delete another.
            read: bool,
            /// Insert one key twice, fail the commit twice, then delete
            /// the second copy and retry (keyed only).
            clash: bool,
            /// Another user commits a new column before this commit.
            evolve: bool,
        }

        fn cycle() -> impl Strategy<Value = Cycle> {
            (
                (any::<bool>(), any::<usize>(), any::<usize>(), any::<bool>()),
                (0..4usize, 0..4usize),
                (any::<bool>(), any::<bool>(), any::<bool>()),
            )
                .prop_map(
                    |((keyed, p, q, merge), (before, after), (read, clash, evolve))| Cycle {
                        keyed,
                        parents: (p, q, merge),
                        before,
                        after,
                        read,
                        clash,
                        evolve,
                    },
                )
        }

        fn instance() -> OrpheusDb {
            let mut odb = OrpheusDb::new();
            for user in ["alice", "bob"] {
                odb.create_user(user).unwrap();
            }
            odb.login("alice").unwrap();
            let schema = Schema::new(vec![
                Column::new("k", DataType::Int64),
                Column::nullable("x", DataType::Int64),
                Column::nullable("s", DataType::Text),
            ]);
            let rows = |n: i64| -> Vec<Row> {
                let row = |k: i64| {
                    vec![
                        Value::Int64(k),
                        Value::Int64(k * 3),
                        format!("s{}", k % 4).into(),
                    ]
                };
                (0..n).map(row).collect()
            };
            odb.init_cvd("h", schema.clone(), vec!["k".into()], rows(40))
                .unwrap();
            odb.init_cvd("u", schema, vec![], rows(30)).unwrap();
            odb
        }

        /// `width` values for key `k`: the checkout's own columns, then
        /// nulls for the columns added since.
        fn row(k: i64, width: usize) -> Row {
            let mut row = vec![
                Value::Int64(k),
                Value::Int64(k % 7),
                format!("n{}", k % 3).into(),
            ];
            row.resize(width, Value::Null);
            row
        }

        fn insert_line(k: i64, width: usize) -> String {
            let fields: Vec<String> = row(k, width)
                .iter()
                .map(|v| {
                    if v.is_null() {
                        String::new()
                    } else {
                        v.to_string()
                    }
                })
                .collect();
            format!("insert w {}", fields.join(","))
        }

        /// Another user commits `cvd`'s latest version with one more column.
        fn evolve(odb: &mut OrpheusDb, cvd: &str, serial: usize) {
            odb.login("bob").unwrap();
            let latest = odb.cvd(cvd).unwrap().latest_version();
            let csv = odb.checkout_csv(cvd, &[latest], "e.csv").unwrap();
            let mut spec: Vec<String> = (odb.cvd(cvd).unwrap().schema().columns().iter())
                .map(|c| {
                    format!(
                        "{}:{}",
                        c.name,
                        ["int", "text"][(c.dtype == DataType::Text) as usize]
                    )
                })
                .collect();
            spec.push(format!("c{serial}:int"));
            let mut lines = csv.lines().map(str::to_owned);
            let header = format!("{},c{serial}", lines.next().unwrap());
            let body = lines.map(|l| format!("{l},{serial}\n"));
            let csv = std::iter::once(header + "\n")
                .chain(body)
                .collect::<String>();
            odb.commit_csv("e.csv", &csv, &spec.join(","), "evolve")
                .unwrap();
            odb.login("alice").unwrap();
        }

        /// Run `c` on `odb`, reading the staging table at once if `eager`;
        /// returns what it saw.
        fn run(odb: &mut OrpheusDb, eager: bool, c: &Cycle, serial: usize) -> Vec<String> {
            let cvd = if c.keyed { "h" } else { "u" };
            let versions = odb.cvd(cvd).unwrap().num_versions();
            let (p, q, merge) = c.parents;
            let mut parents = vec![Vid((p % versions) as u32)];
            if merge && !parents.contains(&Vid((q % versions) as u32)) {
                parents.push(Vid((q % versions) as u32));
            }
            odb.checkout(cvd, &parents, "w").unwrap();
            if eager {
                odb.staging_table("w").unwrap();
            }
            let width = odb.cvd(cvd).unwrap().schema().len();
            let key = |i: usize| 1_000 + (serial * 10 + i) as i64;
            let mut seen = Vec::new();
            for i in 0..c.before {
                odb.execute(&insert_line(key(i), width)).unwrap();
            }
            if c.evolve {
                evolve(odb, cvd, serial);
            }
            if c.read {
                let t = odb.staging_table_mut("w").unwrap();
                let pages = (t.num_heap_pages(), t.encoded_bytes().unwrap());
                seen.push(format!("{:?} {pages:?}", t.rows().unwrap()));
                for i in c.before..c.before + c.after {
                    t.insert(row(key(i), width)).unwrap();
                }
                let rows = t.rows().unwrap();
                let (id, mut edited) = rows[serial % rows.len()].clone();
                edited[1] = Value::Int64(-(serial as i64));
                t.update(id, edited).unwrap();
                t.delete(rows[(serial * 7 + 3) % rows.len()].0).unwrap();
            }
            if c.clash && c.keyed {
                let line = insert_line(900 + serial as i64, width);
                odb.execute(&line).unwrap();
                odb.execute(&line).unwrap();
                for _ in 0..2 {
                    seen.push(format!("{:?}", odb.commit("w", "clash")));
                }
                let t = odb.staging_table_mut("w").unwrap();
                t.delete(t.heap_size() as RowId - 1).unwrap();
            }
            seen.push(format!("{:?}", odb.commit("w", &format!("cycle {serial}"))));
            seen
        }

        /// Each CVD's records, rid lists and versions, and every row of
        /// its tables — records and rlists.
        fn state(odb: &mut OrpheusDb) -> Vec<String> {
            let mut seen = Vec::new();
            for name in ["h", "u"] {
                let cvd = odb.cvd(name).unwrap();
                let records: Vec<Row> = (0..cvd.num_records() as u64)
                    .map(|r| cvd.record(Rid(r)).unwrap())
                    .collect();
                let rids = cvd.version_records_raw();
                seen.push(format!(
                    "{} {records:?} {rids:?} {:?}",
                    cvd.num_records(),
                    cvd.metas()
                ));
                let db = odb.database();
                for table in db.tables_with_prefix(&format!("{name}__")) {
                    seen.push(format!(
                        "{table} {:?}",
                        db.table(table).unwrap().rows().unwrap()
                    ));
                }
            }
            seen
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            #[test]
            fn commits_what_an_eager_copy_commits(cycles in prop::collection::vec(cycle(), 1..7)) {
                let (mut lazy, mut eager) = (instance(), instance());
                for (serial, c) in cycles.iter().enumerate() {
                    let seen = run(&mut lazy, false, c, serial);
                    prop_assert_eq!(seen, run(&mut eager, true, c, serial), "{:?}", c);
                    prop_assert_eq!(state(&mut lazy), state(&mut eager), "{:?}", c);
                }
            }
        }
    }
}
