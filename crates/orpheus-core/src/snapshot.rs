//! Snapshot-isolated reads for multi-session servers.
//!
//! Records in a CVD are immutable and versions only ever grow, so a
//! *snapshot* — a pinned copy of a CVD's records, per-version record
//! lists, and schema — stays valid forever: later commits add versions
//! the snapshot simply does not know about. A server session pins a
//! [`Snapshot`] once and evaluates versioned SQL against it on its own
//! thread, entirely outside the engine thread: readers are lock-free and
//! never block (or are blocked by) writers.
//!
//! A snapshot is a [`Source`] for the one plan lowering in
//! [`crate::plan`]: the engine's tables and a snapshot run the *same*
//! operator tree above the leaves, and the snapshot's leaves are
//! in-memory [`relstore::Values`] nodes fed in exactly the order the
//! engine's physical data table would produce (ascending rid =
//! data-table insertion order). Output is therefore byte-identical to
//! [`OrpheusDb::run`](crate::OrpheusDb::run) on the same version set —
//! pinned by the query-corpus test in `plan.rs`.

use crate::cvd::Cvd;
use crate::error::{Error, Result};
use crate::plan::{self, Decorator, LogicalPlan, Op, Plain, Source};
use crate::query::{parse_query, QueryResult, VQuery};
use partition::{Rid, Vid};
use relstore::{ColumnTest, Estimate, ExecContext, Row, Schema, Value, Values};

/// An immutable, `Send + Sync` view of one CVD at pin time.
#[derive(Debug, Clone)]
pub struct Snapshot {
    name: String,
    /// The `[rid, attrs…]` star schema of the physical data table.
    star: Schema,
    /// Star rows indexed by rid — the data table's insertion order.
    rows: Vec<Row>,
    /// Per-version record ids, ascending.
    version_rids: Vec<Vec<Rid>>,
}

impl Snapshot {
    /// Pin `cvd` as of now.
    pub(crate) fn of(cvd: &Cvd) -> Snapshot {
        let star = crate::metadata::data_schema(cvd);
        let width = star.len();
        let rows = (0..cvd.num_records())
            .map(|rid| {
                let mut row = crate::metadata::data_row(cvd, Rid(rid as u64));
                // Records committed before a schema evolution may be
                // narrower than the union schema; pad like the engine's
                // migrated tables do.
                row.resize(width, Value::Null);
                row
            })
            .collect();
        Snapshot {
            name: cvd.name().to_owned(),
            star,
            rows,
            version_rids: cvd.version_records_raw().to_vec(),
        }
    }

    /// Name of the CVD this snapshot pins.
    pub fn cvd(&self) -> &str {
        &self.name
    }

    /// Number of versions visible in this snapshot.
    pub fn num_versions(&self) -> usize {
        self.version_rids.len()
    }

    /// Latest version visible in this snapshot.
    pub fn latest_version(&self) -> Vid {
        Vid(self.version_rids.len().saturating_sub(1) as u32)
    }

    /// Evaluate a versioned SQL string against this snapshot. Supports
    /// the full `run` surface; the CVD named in the query must be the
    /// pinned one.
    pub fn run(&self, sql: &str) -> Result<QueryResult> {
        self.execute(&parse_query(sql)?)
    }

    /// [`run`](Self::run) for a query that is already parsed.
    pub fn execute(&self, query: &VQuery) -> Result<QueryResult> {
        let (mut schema, mut rows) = (Schema::new(vec![]), Vec::new());
        let on_schema = |s: &Schema| -> Result<()> {
            schema = s.clone();
            Ok(())
        };
        self.execute_with(query, on_schema, |row| {
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

/// The snapshot source: every leaf is a [`Values`] node over pinned rows,
/// fed in exactly the order the engine's data table would produce them.
impl Source for Snapshot {
    fn star(&self) -> Schema {
        self.star.clone()
    }

    fn versions(&self) -> &[Vec<Rid>] {
        &self.version_rids
    }

    /// A [`Values`] leaf: each pinned row is tested, and cloned only when
    /// it passes and is pulled.
    fn fetch<'a, D: Decorator>(
        &'a self,
        rids: Vec<Rid>,
        test: Option<ColumnTest>,
        side: &str,
        dec: &D,
    ) -> Result<Op<'a, D>> {
        let n = rids.len();
        let passes = move |row: &&Row| test.as_ref().is_none_or(|t| t.passes(row));
        let rows = rids
            .into_iter()
            .filter_map(|r| self.rows.get(r.idx()))
            .filter(passes)
            .cloned();
        let values = Box::new(Values::new(self.star.clone(), rows));
        let label = format_args!("Values star rows{side}");
        Ok(dec.wrap(values, vec![], label, |_| Estimate::new(n as f64, 0.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::corpus_db;

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
