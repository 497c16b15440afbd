//! # models — the Chapter 4 comparison and the Chapter 5 partitioned store
//!
//! The physical data models for CVDs that Chapter 4 compares. OrpheusDB
//! adopts one of them, split-by-rlist, and its engine (`orpheus-core`)
//! writes that layout directly through `orpheus_core::metadata`; the
//! models here are experiment code: the figures and tests load a [`Cvd`]
//! into each to compare them, and nothing the engine runs reads them.
//!
//! Each model implements [`VersioningModel`]: it maintains a physical
//! representation of a CVD inside a [`relstore::Database`] and supports the
//! two primitive operations the paper benchmarks — `commit` (register a new
//! version's records) and `checkout` (materialize a version's records).
//!
//! | model | §4.1 | storage | commit | checkout |
//! |---|---|---|---|---|
//! | [`ATablePerVersion`] | 4.5 | one table per version (≈10× redundancy) | insert all rows | read one table |
//! | [`CombinedTable`] | 4.1 | single table + `vlist` int[] | append vid to every reused record's vlist | full scan with `<@` containment |
//! | [`SplitByVlist`] | 4.2 | data table + (rid → vlist) | append vid per reused record | scan versioning table + hash join |
//! | [`SplitByRlist`] | 4.3 | data table + (vid → rlist) | insert **one** versioning tuple | index rlist + hash join |
//! | [`DeltaBased`] | 4.4 | per-version delta from a base | store delta vs closest parent | replay chain to the root |
//!
//! [`PartitionedStore`] is Chapter 5's partition-optimized split-by-rlist
//! storage, which the Chapter 5 figures build from a LyreSplit
//! partitioning; the engine's `optimize` only reports such a plan.

mod a_table_per_version;
mod combined_table;
mod delta_based;
mod partitioned;
mod split_by_rlist;
mod split_by_vlist;

pub use a_table_per_version::ATablePerVersion;
pub use combined_table::CombinedTable;
pub use delta_based::DeltaBased;
pub use partitioned::PartitionedStore;
pub use split_by_rlist::SplitByRlist;
pub use split_by_vlist::SplitByVlist;

use orpheus_core::{Cvd, Result};
use partition::{Rid, Vid};
use relstore::{Database, ExecContext, Executor, RidFetch, Row, Table, Value, WorkerPool};

/// Which physical model a store uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    ATablePerVersion,
    CombinedTable,
    SplitByVlist,
    SplitByRlist,
    DeltaBased,
}

impl ModelKind {
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::ATablePerVersion => "a-table-per-version",
            ModelKind::CombinedTable => "combined-table",
            ModelKind::SplitByVlist => "split-by-vlist",
            ModelKind::SplitByRlist => "split-by-rlist",
            ModelKind::DeltaBased => "delta-based",
        }
    }

    pub fn all() -> [ModelKind; 5] {
        [
            ModelKind::ATablePerVersion,
            ModelKind::CombinedTable,
            ModelKind::SplitByVlist,
            ModelKind::SplitByRlist,
            ModelKind::DeltaBased,
        ]
    }

    /// Instantiate the model for a CVD name.
    pub fn build(self, cvd_name: &str) -> Box<dyn VersioningModel> {
        match self {
            ModelKind::ATablePerVersion => Box::new(ATablePerVersion::new(cvd_name)),
            ModelKind::CombinedTable => Box::new(CombinedTable::new(cvd_name)),
            ModelKind::SplitByVlist => Box::new(SplitByVlist::new(cvd_name)),
            ModelKind::SplitByRlist => Box::new(SplitByRlist::new(cvd_name)),
            ModelKind::DeltaBased => Box::new(DeltaBased::new(cvd_name)),
        }
    }
}

/// A physical representation of a CVD.
pub trait VersioningModel {
    fn kind(&self) -> ModelKind;

    /// Table-name prefix of this model's physical tables.
    fn table_prefix(&self) -> String;

    /// Create the physical tables for an empty CVD.
    fn init(&mut self, db: &mut Database, cvd: &Cvd) -> Result<()>;

    /// Register version `vid` (already present in `cvd`): `new_rids` are the
    /// records this commit introduced; reused records are the rest of
    /// `cvd.version_records(vid)`. I/O the commit performs (page writes,
    /// index probes, array rewrites) is charged to `tracker` so experiments
    /// can report the disk-level cost the wall clock hides in memory.
    fn apply_commit(
        &mut self,
        db: &mut Database,
        cvd: &Cvd,
        vid: Vid,
        new_rids: &[Rid],
        tracker: &mut relstore::CostTracker,
    ) -> Result<()>;

    /// Materialize a version's records as `[rid, attrs…]` rows, charging
    /// executor costs to `ctx`.
    fn checkout(
        &self,
        db: &Database,
        cvd: &Cvd,
        vid: Vid,
        ctx: &mut ExecContext,
    ) -> Result<Vec<Row>>;

    /// Total physical storage in bytes.
    fn storage_bytes(&self, db: &Database) -> usize;
}

/// Replay an entire CVD into a model: init + apply_commit for every version
/// in commit order.
pub fn load_cvd(model: &mut dyn VersioningModel, db: &mut Database, cvd: &Cvd) -> Result<()> {
    model.init(db, cvd)?;
    let mut seen: std::collections::HashSet<Rid> = std::collections::HashSet::new();
    let mut tracker = relstore::CostTracker::new();
    for v in cvd.graph().versions() {
        let rids = cvd.version_records(v)?;
        let new_rids: Vec<Rid> = rids.iter().copied().filter(|r| seen.insert(*r)).collect();
        model.apply_commit(db, cvd, v, &new_rids, &mut tracker)?;
    }
    Ok(())
}

/// Align a `[rid, attrs…]` row read from a per-version physical table to
/// the CVD's *current* union schema: pad attributes added since the table
/// was written and widen values whose column type evolved (§4.3). Needed by
/// the models that freeze a schema per version (a-table-per-version,
/// delta-based); the shared-table models evolve in place instead.
fn align_row_to_schema(cvd: &Cvd, mut row: Row) -> Row {
    let want = cvd.schema().columns();
    while row.len() < want.len() + 1 {
        row.push(Value::Null);
    }
    for (i, col) in want.iter().enumerate() {
        let v = &row[i + 1];
        if v.data_type().map(|d| d != col.dtype).unwrap_or(false) {
            if let Some(w) = v.widen(col.dtype) {
                row[i + 1] = w;
            }
        }
    }
    row
}

/// `data ⨝ ids`, drained: the rid fetch a split-by-rlist checkout ends
/// with. `ids` are row ids of `data` — in the engine's data table, the
/// rids themselves.
fn fetch_rids(
    data: &Table,
    ids: Vec<i64>,
    pool: Option<&WorkerPool>,
    ctx: &mut ExecContext,
) -> Result<Vec<Row>> {
    Ok(RidFetch::new(data, ids, pool).collect(ctx)?)
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use orpheus_core::metadata::data_row;
    use relstore::{Column, DataType, Schema};

    /// Build the Fig. 3.2 protein-interaction CVD: four versions
    /// v0={r0,r1,r2}, v1 updates r0, v2 branches from v0, v3 merges v1+v2.
    pub fn fig32_cvd() -> (Cvd, Vec<Vid>) {
        let schema = Schema::new(vec![
            Column::new("protein1", DataType::Text),
            Column::new("protein2", DataType::Text),
            Column::new("coexpression", DataType::Int64),
        ]);
        let r = |a: &str, b: &str, c: i64| -> Row {
            vec![Value::from(a), Value::from(b), Value::Int64(c)]
        };
        let (mut cvd, v0) = Cvd::init(
            "Interaction",
            schema,
            vec!["protein1".into(), "protein2".into()],
            vec![r("A", "B", 0), r("C", "D", 87), r("E", "F", 164)],
            "alice",
        )
        .unwrap();
        let rows: Vec<Row> = cvd
            .checkout_rows(&[v0])
            .unwrap()
            .into_iter()
            .map(|(_, x)| x.clone())
            .collect();
        let mut m1 = rows.clone();
        m1[0][2] = Value::Int64(83); // update (A, B)
        let v1 = cvd.commit(&[v0], m1, "update AB", "bob").unwrap().vid;
        let mut m2 = rows.clone();
        m2.push(r("G", "H", 975)); // insert
        let v2 = cvd.commit(&[v0], m2, "insert GH", "carol").unwrap().vid;
        let merged: Vec<Row> = cvd
            .checkout_rows(&[v1, v2])
            .unwrap()
            .into_iter()
            .map(|(_, x)| x.clone())
            .collect();
        let v3 = cvd.commit(&[v1, v2], merged, "merge", "dave").unwrap().vid;
        (cvd, vec![v0, v1, v2, v3])
    }

    /// Load a CVD into a fresh database under the given model.
    pub fn loaded(kind: ModelKind, cvd: &Cvd) -> (Database, Box<dyn VersioningModel>) {
        let mut db = Database::new();
        let mut model = kind.build(cvd.name());
        load_cvd(model.as_mut(), &mut db, cvd).unwrap();
        (db, model)
    }

    /// Checkout through the model and compare against the CVD's logical
    /// record set (order-insensitive).
    pub fn assert_checkout_matches(
        kind: ModelKind,
        db: &Database,
        model: &dyn VersioningModel,
        cvd: &Cvd,
        v: Vid,
    ) {
        let mut ctx = ExecContext::new();
        let mut got = model.checkout(db, cvd, v, &mut ctx).unwrap();
        let mut want: Vec<Row> = cvd
            .version_records(v)
            .unwrap()
            .iter()
            .map(|&rid| data_row(cvd, rid))
            .collect();
        let key = |r: &Row| r[0].as_i64().unwrap();
        got.sort_by_key(key);
        want.sort_by_key(key);
        assert_eq!(got, want, "{} checkout of {v} diverges", kind.name());
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn all_models_checkout_all_versions_identically() {
        let (cvd, vids) = fig32_cvd();
        for kind in ModelKind::all() {
            let (db, model) = loaded(kind, &cvd);
            for &v in &vids {
                assert_checkout_matches(kind, &db, model.as_ref(), &cvd, v);
            }
        }
    }

    #[test]
    fn storage_ordering_matches_paper() {
        // Fig 4.1(a): a-table-per-version ≫ others; split models dedupe.
        let (cvd, _) = fig32_cvd();
        let mut sizes = std::collections::HashMap::new();
        for kind in ModelKind::all() {
            let (db, model) = loaded(kind, &cvd);
            sizes.insert(kind, model.storage_bytes(&db));
        }
        assert!(
            sizes[&ModelKind::ATablePerVersion] > sizes[&ModelKind::SplitByRlist],
            "a-table-per-version should dominate storage"
        );
        assert!(sizes[&ModelKind::ATablePerVersion] > sizes[&ModelKind::SplitByVlist]);
    }

    #[test]
    fn incremental_commit_after_load() {
        // Apply a fresh commit through every model after the initial load.
        let (mut cvd, vids) = fig32_cvd();
        let mut stores: Vec<(ModelKind, Database, Box<dyn VersioningModel>)> = ModelKind::all()
            .into_iter()
            .map(|k| {
                let (db, m) = loaded(k, &cvd);
                (k, db, m)
            })
            .collect();
        let rows: Vec<Row> = cvd
            .checkout_rows(&[vids[3]])
            .unwrap()
            .into_iter()
            .map(|(_, x)| x.clone())
            .collect();
        let mut modified = rows.clone();
        modified[0][2] = Value::Int64(1);
        let res = cvd.commit(&[vids[3]], modified, "tweak", "eve").unwrap();
        let new_rids: Vec<Rid> = {
            let prev: std::collections::HashSet<Rid> = vids
                .iter()
                .flat_map(|&v| cvd.version_records(v).unwrap().iter().copied())
                .collect();
            cvd.version_records(res.vid)
                .unwrap()
                .iter()
                .copied()
                .filter(|r| !prev.contains(r))
                .collect()
        };
        for (kind, db, model) in &mut stores {
            model
                .apply_commit(
                    db,
                    &cvd,
                    res.vid,
                    &new_rids,
                    &mut relstore::CostTracker::new(),
                )
                .unwrap();
            assert_checkout_matches(*kind, db, model.as_ref(), &cvd, res.vid);
        }
    }
}
