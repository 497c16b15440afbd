//! Snapshot-isolated reads for multi-session servers.
//!
//! Records in a CVD are immutable and versions only ever grow, so a
//! *snapshot* — a watermark over a CVD's records and per-version record
//! lists, with the star schema of its time — stays valid forever: later
//! commits add versions the snapshot simply does not know about. A pin
//! copies pointers, not values: each record — its data-table tuple — and
//! each record list is the CVD's own, shared, and a schema-evolving
//! commit re-encodes every record into a new tuple instead of changing
//! the one a pin shares (copy-on-write), so a pin keeps its records under
//! its own star schema. A server session
//! pins a [`Snapshot`] once and evaluates versioned SQL against it on its
//! own thread, entirely outside the engine thread: readers are lock-free
//! and never block (or are blocked by) writers.
//!
//! A snapshot is a [`Source`] for the one plan lowering in
//! [`crate::plan`]: the engine's tables and a snapshot run the *same*
//! operator tree above the leaves, and the snapshot's leaves are
//! in-memory [`relstore::Values`] nodes over the shared tuples, each
//! tested and decoded by the codec as the engine's `RidFetch` tests and
//! decodes one on a page (the test reading only the values up to its
//! column: a record was checked when it was made), in exactly the order
//! the engine's physical data table would
//! produce (ascending rid = data-table insertion order). Output is therefore
//! byte-identical to [`OrpheusDb::run`](crate::OrpheusDb::run) on the
//! same version set — pinned by the query-corpus test in `plan.rs`.

use crate::cvd::Cvd;
use crate::error::{Error, Result};
use crate::plan::{self, Decorator, LogicalPlan, Op, Plain, Source};
use crate::query::{parse_query, QueryResult, VQuery};
use partition::{Rid, Vid};
use relstore::{codec, Column, ColumnTest, Estimate, ExecContext, Row, Schema, Values};
use std::mem::size_of;
use std::sync::Arc;

/// An immutable, `Send + Sync` view of one CVD at pin time.
#[derive(Debug, Clone)]
pub struct Snapshot {
    name: String,
    /// The `[rid, attrs…]` star schema of the physical data table.
    star: Schema,
    /// The CVD's records by rid — the data table's insertion order — each
    /// its data-table tuple, of `star`'s values.
    records: Vec<Arc<[u8]>>,
    /// Per-version record ids, ascending.
    versions: Vec<Arc<[Rid]>>,
}

impl Snapshot {
    /// Pin `cvd` as of now: a pointer to each record and record list,
    /// and the star schema. No value is copied.
    pub(crate) fn of(cvd: &Cvd) -> Snapshot {
        Snapshot {
            name: cvd.name().to_owned(),
            star: crate::metadata::data_schema(cvd),
            records: cvd.tuples().to_vec(),
            versions: cvd.version_records_raw().to_vec(),
        }
    }

    /// Bytes this pin holds of its own: its pointer arrays, its name and
    /// its schema. The records and record lists it points to are the
    /// CVD's.
    pub fn pinned_bytes(&self) -> usize {
        let columns = self.star.columns().iter();
        let names: usize = columns.map(|c| size_of::<Column>() + c.name.len()).sum();
        let records = self.records.len() * size_of::<Arc<[u8]>>();
        let versions = self.versions.len() * size_of::<Arc<[Rid]>>();
        size_of::<Snapshot>() + self.name.len() + names + records + versions
    }

    /// Name of the CVD this snapshot pins.
    pub fn cvd(&self) -> &str {
        &self.name
    }

    /// Number of versions visible in this snapshot.
    pub fn num_versions(&self) -> usize {
        self.versions.len()
    }

    /// Latest version visible in this snapshot.
    pub fn latest_version(&self) -> Vid {
        Vid(self.versions.len().saturating_sub(1) as u32)
    }

    /// Evaluate a versioned SQL string against this snapshot. Supports
    /// the full `run` surface; the CVD named in the query must be the
    /// pinned one.
    pub fn run(&self, sql: &str) -> Result<QueryResult> {
        let query = parse_query(sql)?;
        let (mut schema, mut rows) = (Schema::new(vec![]), Vec::new());
        let on_schema = |s: &Schema| -> Result<()> {
            schema = s.clone();
            Ok(())
        };
        self.execute_with(&query, on_schema, |row| {
            rows.push(row);
            Ok(())
        })?;
        Ok(QueryResult { schema, rows })
    }

    /// The one evaluation: lower `query`'s plan over this snapshot, hand
    /// its result schema to `on_schema`, then each row to `on_row` as the
    /// operator root yields it — nothing is collected here, so a consumer
    /// that renders rows as they come holds one at a time. An error from
    /// either callback stops the pull and is returned as is.
    pub fn execute_with<E: From<Error>>(
        &self,
        query: &VQuery,
        on_schema: impl FnOnce(&Schema) -> std::result::Result<(), E>,
        mut on_row: impl FnMut(Row) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        if query.cvd() != self.name {
            let (asked, pinned) = (query.cvd(), &self.name);
            return Err(Error::CvdNotFound(format!("{asked} (this session pins {pinned})")).into());
        }
        let (mut root, (), schema) = plan::lower(&LogicalPlan::of(query), self, &Plain, "")?;
        on_schema(&schema)?;
        let mut ctx = ExecContext::new();
        while let Some(row) = root.next(&mut ctx).map_err(Error::from)? {
            on_row(row)?;
        }
        Ok(())
    }
}

/// The snapshot source: every leaf is a [`Values`] node over the shared
/// records, fed in exactly the order the engine's data table would
/// produce them.
impl Source for Snapshot {
    fn star(&self) -> Schema {
        self.star.clone()
    }

    fn versions(&self) -> &[Arc<[Rid]>] {
        &self.versions
    }

    /// A [`Values`] leaf: each shared tuple is tested on the values up to
    /// the tested column, and decoded into its star row `[rid, attrs…]`
    /// only when it passes and is pulled.
    fn fetch<'a, D: Decorator>(
        &'a self,
        rids: Vec<Rid>,
        test: Option<ColumnTest>,
        side: &str,
        dec: &D,
    ) -> Result<Op<'a, D>> {
        let n = rids.len();
        let tuples = rids
            .into_iter()
            .filter_map(|rid| self.records.get(rid.idx()));
        let rows =
            tuples.filter_map(move |t| codec::decode_prefix_if(t, test.as_ref()).transpose());
        let values = Box::new(Values::new(self.star.clone(), rows));
        let label = format_args!("Values star rows{side}");
        Ok(dec.wrap(values, vec![], label, |_| Estimate::new(n as f64, 0.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::{corpus_db, QUERY_CORPUS};
    use relstore::DataType;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn snapshot_is_send_and_sync() {
        assert_send_sync::<Snapshot>();
    }

    #[test]
    fn snapshot_is_isolated_from_later_commits() {
        let mut odb = corpus_db();
        let snap = odb.snapshot("T").unwrap();
        assert_eq!(snap.num_versions(), 4);
        assert_eq!(snap.latest_version(), Vid(3));
        odb.execute("checkout T -v 3 -t w4").unwrap();
        odb.execute("insert w4 300,late,1").unwrap();
        odb.execute("commit -t w4 -m v4").unwrap();
        // The pinned snapshot does not see v4…
        assert!(snap.run("SELECT * FROM VERSION 4 OF CVD T").is_err());
        assert_eq!(snap.num_versions(), 4);
        // …but a fresh pin does.
        let fresh = odb.snapshot("T").unwrap();
        assert_eq!(fresh.num_versions(), 5);
        let rows = fresh
            .run("SELECT * FROM VERSION 4 OF CVD T WHERE k = 300")
            .unwrap();
        assert_eq!(rows.rows.len(), 1);
    }

    /// Leaves yield on `next`: they used to clone the whole resolved
    /// version into a `Vec` before the first row, so `LIMIT 5` cost the
    /// version. Drained, the charges are what they were.
    #[test]
    fn a_limit_pulls_only_its_rows_from_the_pinned_leaf() {
        let snap = corpus_db().snapshot("S").unwrap();
        let emitted = |sql| {
            let plan = LogicalPlan::of(&parse_query(sql).unwrap());
            let (mut root, (), _) = plan::lower(&plan, &snap, &Plain, "").unwrap();
            let mut ctx = ExecContext::new();
            let rows = relstore::collect(root.as_mut(), &mut ctx).unwrap();
            (rows.len(), ctx.tracker.tuples)
        };
        // The corpus's largest version: 50 records.
        assert_eq!(emitted("SELECT * FROM VERSION 40 OF CVD S"), (50, 50));
        assert_eq!(emitted("SELECT * FROM VERSION 40 OF CVD S LIMIT 5"), (5, 5));
        let first = |sql: &str| snap.run(sql).unwrap().rows;
        assert_eq!(
            first("SELECT * FROM VERSION 40 OF CVD S LIMIT 5"),
            first("SELECT * FROM VERSION 40 OF CVD S")[..5]
        );
    }

    /// Every corpus query over `T`, answered by `answer`, errors included.
    fn t_corpus(answer: impl Fn(&str) -> Result<QueryResult>) -> Vec<String> {
        let over_t = QUERY_CORPUS.iter().filter(|q| q.contains("OF CVD T"));
        let shown = |r: QueryResult| (r.schema.columns().to_vec(), r.rows);
        over_t
            .map(|q| format!("{q}: {:?}", answer(q).map(shown)))
            .collect()
    }

    /// A pin taken before a schema-evolving commit — a new column, and
    /// `score` widened from Int64 to Float64 — answers as it did before
    /// that commit: the commit replaces each record the pin shares
    /// instead of widening it in place. A fresh pin agrees with the
    /// engine.
    #[test]
    fn a_pin_keeps_its_rows_across_a_schema_evolving_commit() {
        let mut odb = corpus_db();
        let old = odb.snapshot("T").unwrap();
        let before = t_corpus(|q| old.run(q));
        assert_eq!(before, t_corpus(|q| odb.run(q)));
        odb.execute("checkout T -v 3 -t w").unwrap();
        let spec = "k:int,name:text,score:float,tag:text";
        odb.execute(&format!("commit -t w -s {spec} -m evolve"))
            .unwrap();
        let union = odb.cvd("T").unwrap().schema();
        assert_eq!(union.column(2).unwrap().dtype, DataType::Float64);
        assert_eq!(union.len(), 4);
        assert_eq!(t_corpus(|q| old.run(q)), before);
        let fresh = odb.snapshot("T").unwrap();
        let now = t_corpus(|q| fresh.run(q));
        assert_ne!(now, before);
        assert_eq!(now, t_corpus(|q| odb.run(q)));
    }

    /// Pins copy pointers: 64 pins of one CVD hold every record and
    /// record list the CVD holds, and none of their own.
    #[test]
    fn pins_share_every_record_and_rlist() {
        let odb = corpus_db();
        let pins: Vec<Snapshot> = (0..64).map(|_| odb.snapshot("S").unwrap()).collect();
        let cvd = odb.cvd("S").unwrap();
        for (rid, record) in cvd.tuples().iter().enumerate() {
            assert_eq!(Arc::strong_count(record), 65, "record {rid}");
            assert!(pins.iter().all(|p| Arc::ptr_eq(&p.records[rid], record)));
        }
        for (vid, rlist) in cvd.version_records_raw().iter().enumerate() {
            assert!(
                pins.iter().all(|p| Arc::ptr_eq(&p.versions[vid], rlist)),
                "v{vid}"
            );
        }
        let pointers = (cvd.num_records() + cvd.num_versions()) * size_of::<Arc<[Rid]>>();
        assert!(
            pins[0].pinned_bytes() < pointers + 1_024,
            "{}",
            pins[0].pinned_bytes()
        );
    }

    #[test]
    fn snapshot_rejects_other_cvds() {
        let odb = corpus_db();
        let snap = odb.snapshot("T").unwrap();
        assert!(matches!(
            snap.run("SELECT * FROM VERSION 0 OF CVD Other"),
            Err(Error::CvdNotFound(_))
        ));
    }
}
