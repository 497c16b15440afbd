//! Partition-optimized split-by-rlist storage (Chapter 5) — experiment
//! code, like the data models.
//!
//! The data table is broken into per-partition tables so a checkout only
//! reads the partition containing its version. Each version lives in
//! exactly one partition; records shared across partitions are duplicated
//! (§5.1). Partitionings come from `partition::lyresplit` (or the
//! baselines); [`PartitionedStore::build`] materializes one for the
//! Chapter 5 figures (`fig5_8`, `fig5_14`). The engine keeps one physical
//! layout: its `optimize` command only reports a LyreSplit plan.

use super::fetch_rids;
use orpheus_core::metadata::{data_row, data_schema};
use orpheus_core::{Cvd, Error, Result};
use partition::{Partitioning, Vid};
use relstore::{
    Column, CostTracker, DataType, Database, ExecContext, IndexKind, Row, Schema, Value,
};

/// A partitioned physical representation of a CVD.
#[derive(Debug, Clone)]
pub struct PartitionedStore {
    cvd_name: String,
    partitioning: Partitioning,
}

impl PartitionedStore {
    fn partition_table(&self, pid: usize) -> String {
        format!("{}__part{}_data", self.cvd_name, pid)
    }

    fn vtab_name(&self) -> String {
        format!("{}__part_vtab", self.cvd_name)
    }

    fn table_prefix(&self) -> String {
        format!("{}__part", self.cvd_name)
    }

    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Materialize the given partitioning: one clustered data table per
    /// partition plus a `[vid, pid, rlist]` versioning table.
    pub fn build(db: &mut Database, cvd: &Cvd, partitioning: Partitioning) -> Result<Self> {
        assert_eq!(partitioning.num_versions(), cvd.num_versions());
        let store = PartitionedStore {
            cvd_name: cvd.name().to_owned(),
            partitioning,
        };
        store.drop_tables(db);
        let bipartite = cvd.bipartite();
        for (pid, group) in store.partitioning.groups().iter().enumerate() {
            let table = db.create_table(store.partition_table(pid), data_schema(cvd))?;
            for rid in bipartite.union(group) {
                table.insert(data_row(cvd, rid))?;
            }
            table.cluster_on("rid")?;
            table.create_index("rid_pk", "rid", true, IndexKind::BTree)?;
        }
        let vtab = db.create_table(
            store.vtab_name(),
            Schema::new(vec![
                Column::new("vid", DataType::Int64),
                Column::new("pid", DataType::Int64),
                Column::new("rlist", DataType::IntArray),
            ]),
        )?;
        vtab.create_index("vid_pk", "vid", true, IndexKind::BTree)?;
        for v in cvd.graph().versions() {
            let rlist: Vec<i64> = cvd.version_records(v)?.iter().map(|r| r.0 as i64).collect();
            vtab.insert(vec![
                Value::Int64(v.0 as i64),
                Value::Int64(store.partitioning.partition_of(v) as i64),
                Value::IntArray(rlist),
            ])?;
        }
        Ok(store)
    }

    /// Remove this store's physical tables (before a rebuild).
    fn drop_tables(&self, db: &mut Database) {
        for name in db
            .tables_with_prefix(&self.table_prefix())
            .into_iter()
            .map(str::to_owned)
            .collect::<Vec<_>>()
        {
            // Best-effort cleanup: the table may already be gone.
            drop(db.drop_table(&name));
        }
    }

    /// Checkout: one versioning-tuple lookup, then a rid fetch from the
    /// version's partition only.
    pub fn checkout(&self, db: &Database, vid: Vid, ctx: &mut ExecContext) -> Result<Vec<Row>> {
        let vtab = db.table(&self.vtab_name())?;
        let ids = vtab.index_lookup("vid_pk", vid.0 as i64, &mut ctx.tracker)?;
        let rows = vtab.fetch(ids, Some(0), &mut ctx.tracker, &ctx.model)?;
        let row = rows.first().ok_or(Error::VersionNotFound(vid.0))?;
        let pid = row[1]
            .as_i64()
            .ok_or_else(|| Error::Internal("partition id column is not an integer".into()))?
            as usize;
        let rlist = row[2].as_int_array().unwrap_or(&[]);
        ctx.tracker.ops(rlist.len() as u64);
        let data = db.table(&self.partition_table(pid))?;
        // A partition holds a subset of the records, so its row ids are
        // not rids: translate through its `rid_pk`. The fetch charges the
        // probe, so the translation is not charged again.
        let mut uncharged = CostTracker::new();
        let mut ids = Vec::with_capacity(rlist.len());
        for &rid in rlist {
            let id = data.index_lookup("rid_pk", rid, &mut uncharged)?.first();
            ids.push(id.map_or(-1, |&id| id as i64));
        }
        fetch_rids(data, ids, ctx)
    }

    /// Records stored across all partitions (the storage cost `S`).
    pub fn storage_records(&self, db: &Database) -> u64 {
        (0..self.partitioning.num_partitions())
            .filter_map(|pid| db.table(&self.partition_table(pid)).ok())
            .map(|t| t.live_row_count() as u64)
            .sum()
    }

    pub fn storage_bytes(&self, db: &Database) -> usize {
        db.storage_bytes_with_prefix(&self.table_prefix())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fig32_cvd;

    #[test]
    fn build_and_checkout_all_versions() {
        let (cvd, vids) = fig32_cvd();
        let mut db = Database::new();
        // Two partitions: {v0, v1} and {v2, v3}.
        let p = Partitioning::from_assignment(vec![0, 0, 1, 1]);
        let store = PartitionedStore::build(&mut db, &cvd, p).unwrap();
        for &v in &vids {
            let mut ctx = ExecContext::new();
            let mut got = store.checkout(&db, v, &mut ctx).unwrap();
            got.sort_by_key(|r| r[0].as_i64().unwrap());
            let want: Vec<i64> = cvd
                .version_records(v)
                .unwrap()
                .iter()
                .map(|r| r.0 as i64)
                .collect();
            let got_rids: Vec<i64> = got.iter().map(|r| r[0].as_i64().unwrap()).collect();
            assert_eq!(got_rids, want);
        }
    }

    /// A checkout examines its version's records and nothing else, however
    /// many other records share the partition: the rid fetch is
    /// page-ordered, not a partition scan.
    #[test]
    fn checkout_examines_only_its_versions_records() {
        let (cvd, vids) = fig32_cvd();
        for p in [Partitioning::single(4), Partitioning::singletons(4)] {
            let mut db = Database::new();
            let store = PartitionedStore::build(&mut db, &cvd, p).unwrap();
            let mut ctx = ExecContext::new();
            let rows = store.checkout(&db, vids[0], &mut ctx).unwrap();
            assert_eq!(rows.len(), 3);
            // The versioning tuple plus v0's three records.
            assert_eq!(ctx.tracker.tuples, 1 + 3);
        }
    }

    #[test]
    fn storage_matches_partitioning_evaluation() {
        let (cvd, _) = fig32_cvd();
        let mut db = Database::new();
        let p = Partitioning::from_assignment(vec![0, 0, 1, 1]);
        let expected = p.evaluate(&cvd.bipartite()).storage_records;
        let store = PartitionedStore::build(&mut db, &cvd, p).unwrap();
        assert_eq!(store.storage_records(&db), expected);
    }
}
