//! Approach 4.2: split-by-vlist — a data table plus a versioning table
//! mapping each `rid` to the array of versions containing it
//! (Fig. 3.2(c.i)).
//!
//! Commit still pays an array append per reused record (in the smaller
//! versioning table); checkout scans the versioning table for containment,
//! then hash-joins the matching rids with the data table.

use super::{ModelKind, VersioningModel};
use orpheus_core::metadata::{data_row, data_schema, sync_table_schema};
use orpheus_core::{Cvd, Error, Result};
use partition::{Rid, Vid};
use relstore::{
    Column, DataType, Database, ExecContext, Executor, Expr, Filter, HashJoin, IndexKind, Project,
    Row, Schema, SeqScan, Value,
};

/// `{cvd}__svl_data` `[rid, attrs…]` + `{cvd}__svl_vmap` `[rid, vlist]`.
#[derive(Debug, Clone)]
pub struct SplitByVlist {
    cvd_name: String,
}

impl SplitByVlist {
    pub fn new(cvd_name: impl Into<String>) -> Self {
        SplitByVlist {
            cvd_name: cvd_name.into(),
        }
    }

    fn data_name(&self) -> String {
        format!("{}__svl_data", self.cvd_name)
    }

    fn vmap_name(&self) -> String {
        format!("{}__svl_vmap", self.cvd_name)
    }
}

impl VersioningModel for SplitByVlist {
    fn kind(&self) -> ModelKind {
        ModelKind::SplitByVlist
    }

    fn table_prefix(&self) -> String {
        format!("{}__svl_", self.cvd_name)
    }

    fn init(&mut self, db: &mut Database, cvd: &Cvd) -> Result<()> {
        let data = db.create_table(self.data_name(), data_schema(cvd))?;
        data.create_index("rid_pk", "rid", true, IndexKind::BTree)?;
        let vmap = db.create_table(
            self.vmap_name(),
            Schema::new(vec![
                Column::new("rid", DataType::Int64),
                Column::new("vlist", DataType::IntArray),
            ]),
        )?;
        vmap.create_index("rid_pk", "rid", true, IndexKind::BTree)?;
        Ok(())
    }

    fn apply_commit(
        &mut self,
        db: &mut Database,
        cvd: &Cvd,
        vid: Vid,
        new_rids: &[Rid],
        tracker: &mut relstore::CostTracker,
    ) -> Result<()> {
        {
            let data = db.table_mut(&self.data_name())?;
            sync_table_schema(data, cvd.schema(), 1)?;
            tracker.seq_scan(new_rids.len() as u64, &relstore::CostModel::default());
            for &rid in new_rids {
                data.insert(data_row(cvd, rid))?;
            }
        }
        let vmap = db.table_mut(&self.vmap_name())?;
        let new_set: std::collections::HashSet<Rid> = new_rids.iter().copied().collect();
        // UPDATE vmap SET vlist = vlist + vid WHERE rid IN (reused rids):
        // an array-append update per reused record, as in combined-table,
        // but on the narrower versioning table.
        for &rid in cvd.version_records(vid)? {
            if new_set.contains(&rid) {
                continue;
            }
            // Owned: the updates below need the table back.
            let ids = vmap.index_lookup("rid_pk", rid.0 as i64, tracker)?.to_vec();
            for id in ids {
                let mut row = vmap
                    .get(id)
                    .ok_or_else(|| Error::Internal("index points at a missing row".into()))?
                    .clone();
                if let Value::IntArray(v) = &mut row[1] {
                    tracker.ops(v.len() as u64 + 1);
                    v.push(vid.0 as i64);
                }
                tracker.random_pages += 2; // heap read + write-back
                tracker.tuples += 1;
                vmap.update(id, row)?;
            }
        }
        for &rid in new_rids {
            vmap.insert(vec![
                Value::Int64(rid.0 as i64),
                Value::IntArray(vec![vid.0 as i64]),
            ])?;
        }
        Ok(())
    }

    fn checkout(
        &self,
        db: &Database,
        _cvd: &Cvd,
        vid: Vid,
        ctx: &mut ExecContext,
    ) -> Result<Vec<Row>> {
        let vmap = db.table(&self.vmap_name())?;
        let data = db.table(&self.data_name())?;
        // tmp := SELECT rid FROM vmap WHERE ARRAY[vid] <@ vlist
        let scan = Box::new(SeqScan::new(vmap));
        let filt = Box::new(Filter::new(
            scan,
            Expr::array_has(Expr::col(1), vid.0 as i64),
        ));
        let rid_list = Box::new(Project::columns(filt, &[0]));
        // Hash join: build on tmp, probe the data table sequentially
        // (the plan §4.2 found best for these splits).
        let probe = Box::new(SeqScan::new(data));
        let join = Box::new(HashJoin::new(rid_list, probe, 0, 0));
        // Join output = [rid(tmp), rid(data), attrs…] → drop the build key.
        let cols: Vec<usize> = (1..join.schema().len()).collect();
        let mut project = Project::columns(join, &cols);
        Ok(project.collect(ctx)?)
    }

    fn storage_bytes(&self, db: &Database) -> usize {
        db.storage_bytes_with_prefix(&self.table_prefix())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::super::*;

    #[test]
    fn data_table_deduplicates_records() {
        let (cvd, _) = fig32_cvd();
        let (db, _model) = loaded(ModelKind::SplitByVlist, &cvd);
        let data = db.table(&format!("{}__svl_data", cvd.name())).unwrap();
        assert_eq!(data.live_row_count(), cvd.num_records());
        let vmap = db.table(&format!("{}__svl_vmap", cvd.name())).unwrap();
        assert_eq!(vmap.live_row_count(), cvd.num_records());
    }

    #[test]
    fn checkout_joins_data_table() {
        let (cvd, vids) = fig32_cvd();
        let (db, model) = loaded(ModelKind::SplitByVlist, &cvd);
        let mut ctx = ExecContext::new();
        let rows = model.checkout(&db, &cvd, vids[3], &mut ctx).unwrap();
        assert_eq!(rows.len(), 4);
        // Both tables were scanned fully.
        assert!(ctx.tracker.seq_pages >= 2);
    }
}
