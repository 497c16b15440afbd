//! Partition-optimized split-by-rlist storage (Chapter 5).
//!
//! The data table is broken into per-partition tables so a checkout only
//! reads the partition containing its version. Each version lives in
//! exactly one partition; records shared across partitions are duplicated
//! (§5.1). Partitionings come from `partition::lyresplit` (or the
//! baselines); [`PartitionedStore::build`] materializes one.

use crate::cvd::Cvd;
use crate::error::{Error, Result};
use crate::models::{data_row, data_schema};
use partition::{Partitioning, Rid, Vid};
use relstore::{
    Column, DataType, Database, ExecContext, IndexKind, Row, Schema, Value, WorkerPool,
};

/// A partitioned physical representation of a CVD.
#[derive(Debug, Clone)]
pub struct PartitionedStore {
    cvd_name: String,
    partitioning: Partitioning,
}

impl PartitionedStore {
    pub fn partition_table(&self, pid: usize) -> String {
        format!("{}__part{}_data", self.cvd_name, pid)
    }

    pub fn vtab_name(&self) -> String {
        format!("{}__part_vtab", self.cvd_name)
    }

    pub fn table_prefix(&self) -> String {
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

    /// Remove this store's physical tables (used before a rebuild and by
    /// the migration engine).
    pub fn drop_tables(&self, db: &mut Database) {
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
        self.checkout_with_pool(db, vid, None, ctx)
    }

    /// [`checkout`](Self::checkout) with an optional morsel worker pool: a
    /// multi-threaded pool decodes the fetched pages morsel-parallel, any
    /// other value reads them on the calling thread. Rows are identical.
    pub fn checkout_with_pool(
        &self,
        db: &Database,
        vid: Vid,
        pool: Option<&WorkerPool>,
        ctx: &mut ExecContext,
    ) -> Result<Vec<Row>> {
        let vtab = db.table(&self.vtab_name())?;
        let ids = vtab.index_lookup("vid_pk", vid.0 as i64, &mut ctx.tracker)?;
        let rows = vtab.fetch(ids, Some(0), &mut ctx.tracker, &ctx.model)?;
        let row = rows.first().ok_or(Error::VersionNotFound(vid.0))?;
        let pid = row[1]
            .as_i64()
            .ok_or_else(|| Error::Internal("partition id column is not an integer".into()))?
            as usize;
        let rlist: Vec<i64> = row[2].as_int_array().unwrap_or(&[]).to_vec();
        ctx.tracker.ops(rlist.len() as u64);
        let data = db.table(&self.partition_table(pid))?;
        crate::plan::rid_join_rows(data, rlist, pool, ctx)
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

    /// Append a freshly committed version to an existing partition (online
    /// maintenance, §5.4): inserts the version's missing records into that
    /// partition's table and registers the versioning tuple. The membership
    /// probes charge into the caller's `tracker` so maintenance I/O shows
    /// up in cumulative cost accounting instead of vanishing.
    pub fn append_version(
        &mut self,
        db: &mut Database,
        cvd: &Cvd,
        vid: Vid,
        pid: usize,
        new_partition: bool,
        tracker: &mut relstore::CostTracker,
    ) -> Result<()> {
        assert_eq!(vid.idx(), self.partitioning.num_versions());
        if new_partition {
            assert_eq!(pid, self.partitioning.num_partitions());
            let table = db.create_table(self.partition_table(pid), data_schema(cvd))?;
            for &rid in cvd.version_records(vid)? {
                table.insert(data_row(cvd, rid))?;
            }
            table.cluster_on("rid")?;
            table.create_index("rid_pk", "rid", true, IndexKind::BTree)?;
        } else {
            let table = db.table_mut(&self.partition_table(pid))?;
            for &rid in cvd.version_records(vid)? {
                if table
                    .index_lookup("rid_pk", rid.0 as i64, tracker)?
                    .is_empty()
                {
                    table.insert(data_row(cvd, rid))?;
                }
            }
        }
        let mut assignment = self.partitioning.assignment().to_vec();
        assignment.push(pid);
        self.partitioning = Partitioning::from_assignment(assignment);
        let vtab = db.table_mut(&self.vtab_name())?;
        let rlist: Vec<i64> = cvd
            .version_records(vid)?
            .iter()
            .map(|r| r.0 as i64)
            .collect();
        vtab.insert(vec![
            Value::Int64(vid.0 as i64),
            Value::Int64(pid as i64),
            Value::IntArray(rlist),
        ])?;
        Ok(())
    }

    /// Migrate to a new partitioning by rebuilding (the physical analogue
    /// of the migration engine; cost accounting for intelligent-vs-naive
    /// migration lives in [`partition::online`]).
    pub fn migrate(
        self,
        db: &mut Database,
        cvd: &Cvd,
        target: Partitioning,
    ) -> Result<PartitionedStore> {
        self.drop_tables(db);
        PartitionedStore::build(db, cvd, target)
    }

    /// Rid set of one partition (for tests and experiments).
    pub fn partition_records(&self, db: &Database, pid: usize) -> Result<Vec<Rid>> {
        let table = db.table(&self.partition_table(pid))?;
        let mut out: Vec<Rid> = table
            .iter()
            .map(|(_, r)| {
                r[0].as_i64()
                    .map(|v| Rid(v as u64))
                    .ok_or_else(|| Error::Internal("rid column is not an integer".into()))
            })
            .collect::<Result<_>>()?;
        out.sort_unstable();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::testutil::fig32_cvd;
    use partition::lyresplit_for_budget;

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

    #[test]
    fn append_and_migrate() {
        let (mut cvd, vids) = fig32_cvd();
        let mut db = Database::new();
        let p = Partitioning::from_assignment(vec![0, 0, 1, 1]);
        let mut store = PartitionedStore::build(&mut db, &cvd, p).unwrap();
        // Commit a new version derived from v3 and append it online.
        let rows: Vec<Row> = cvd
            .checkout_rows(&[vids[3]])
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        let res = cvd.commit(&[vids[3]], rows, "same", "eve").unwrap();
        let mut tracker = relstore::CostTracker::new();
        store
            .append_version(&mut db, &cvd, res.vid, 1, false, &mut tracker)
            .unwrap();
        assert!(
            tracker.index_tuples > 0,
            "membership probes must charge the caller's tracker"
        );
        let mut ctx = ExecContext::new();
        assert_eq!(store.checkout(&db, res.vid, &mut ctx).unwrap().len(), 4);

        // Migrate to a LyreSplit partitioning.
        let tree = cvd.tree();
        let target = lyresplit_for_budget(&tree, cvd.num_records() as u64 * 2).partitioning;
        let store = store.migrate(&mut db, &cvd, target).unwrap();
        let mut ctx = ExecContext::new();
        assert_eq!(store.checkout(&db, vids[0], &mut ctx).unwrap().len(), 3);
    }
}
