//! Approach 4.1: the combined table — data attributes plus a `vlist` array
//! column holding every version each record belongs to (Fig. 3.2b).
//!
//! Commit is expensive: every record reused by the new version needs its
//! `vlist` appended (an array copy per record). Checkout requires a full
//! scan with the `ARRAY[vid] <@ vlist` containment check (Table 4.1).

use super::{ModelKind, VersioningModel};
use orpheus_core::metadata::{data_row, data_schema, sync_table_schema};
use orpheus_core::{Cvd, Error, Result};
use partition::{Rid, Vid};
use relstore::{
    Column, DataType, Database, ExecContext, Executor, Expr, Filter, IndexKind, Project, Row,
    SeqScan, Value,
};

/// Single `{cvd}__combined` table: `[rid, vlist, attrs…]` (the versioning
/// attribute sits before the data attributes so schema evolution can append
/// new data columns at the end).
#[derive(Debug, Clone)]
pub struct CombinedTable {
    cvd_name: String,
}

impl CombinedTable {
    pub fn new(cvd_name: impl Into<String>) -> Self {
        CombinedTable {
            cvd_name: cvd_name.into(),
        }
    }

    fn table_name(&self) -> String {
        format!("{}__combined", self.cvd_name)
    }
}

impl VersioningModel for CombinedTable {
    fn kind(&self) -> ModelKind {
        ModelKind::CombinedTable
    }

    fn table_prefix(&self) -> String {
        self.table_name()
    }

    fn init(&mut self, db: &mut Database, cvd: &Cvd) -> Result<()> {
        let data = data_schema(cvd);
        let mut cols = vec![
            data.columns()[0].clone(),
            Column::new("vlist", DataType::IntArray),
        ];
        cols.extend(data.columns()[1..].iter().cloned());
        let table = db.create_table(self.table_name(), relstore::Schema::new(cols))?;
        // The rid index exists to locate records during commit; checkout
        // never uses it (the containment scan is the point).
        table.create_index("rid_pk", "rid", true, IndexKind::BTree)?;
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
        let table = db.table_mut(&self.table_name())?;
        sync_table_schema(table, cvd.schema(), 2)?;
        let vlist_col = 1;
        let new_set: std::collections::HashSet<Rid> = new_rids.iter().copied().collect();
        // UPDATE combined SET vlist = vlist + vid WHERE rid IN (reused):
        // one array-copying update per reused record — the expensive path
        // (a random page read + write per updated row, plus the array copy).
        for &rid in cvd.version_records(vid)? {
            if new_set.contains(&rid) {
                continue;
            }
            // Owned: the updates below need the table back.
            let ids = table
                .index_lookup("rid_pk", rid.0 as i64, tracker)?
                .to_vec();
            for id in ids {
                let mut row = table
                    .get(id)
                    .ok_or_else(|| Error::Internal("index points at a missing row".into()))?
                    .clone();
                if let Value::IntArray(v) = &mut row[vlist_col] {
                    tracker.ops(v.len() as u64 + 1);
                    v.push(vid.0 as i64);
                }
                tracker.random_pages += 2; // heap read + write-back
                tracker.tuples += 1;
                table.update(id, row)?;
            }
        }
        tracker.seq_scan(new_rids.len() as u64, &relstore::CostModel::default());
        for &rid in new_rids {
            let mut row = data_row(cvd, rid);
            row.insert(1, Value::IntArray(vec![vid.0 as i64]));
            table.insert(row)?;
        }
        Ok(())
    }

    fn checkout(
        &self,
        db: &Database,
        cvd: &Cvd,
        vid: Vid,
        ctx: &mut ExecContext,
    ) -> Result<Vec<Row>> {
        let table = db.table(&self.table_name())?;
        let scan = Box::new(SeqScan::new(table));
        let filter = Box::new(Filter::new(
            scan,
            Expr::array_has(Expr::col(1), vid.0 as i64),
        ));
        // Project away vlist: emit [rid, attrs…].
        let mut cols = vec![0usize];
        cols.extend(2..cvd.schema().len() + 2);
        let mut project = Project::columns(filter, &cols);
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
    use relstore::CostModel;

    #[test]
    fn single_table_with_vlists() {
        let (cvd, _) = fig32_cvd();
        let (db, _model) = loaded(ModelKind::CombinedTable, &cvd);
        let t = db.table(&format!("{}__combined", cvd.name())).unwrap();
        // 5 distinct records in the running example.
        assert_eq!(t.live_row_count(), 5);
        // Record r1 ("C","D") is in all four versions.
        let vlists: Vec<Vec<i64>> = t
            .rows()
            .unwrap()
            .into_iter()
            .filter(|(_, r)| r[0] == Value::Int64(1))
            .map(|(_, r)| r[1].as_int_array().unwrap().to_vec())
            .collect();
        assert_eq!(vlists, vec![vec![0i64, 1, 2, 3]]);
    }

    #[test]
    fn checkout_scans_whole_table() {
        let (cvd, vids) = fig32_cvd();
        let (db, model) = loaded(ModelKind::CombinedTable, &cvd);
        let mut ctx = ExecContext::new();
        let rows = model.checkout(&db, &cvd, vids[0], &mut ctx).unwrap();
        assert_eq!(rows.len(), 3);
        // All 5 heap rows were scanned, not just v0's 3.
        assert!(ctx.tracker.tuples >= 5);
        // Containment checks charge per array element.
        assert!(ctx.tracker.operator_evals > 0);
    }

    #[test]
    fn commit_cost_grows_with_version_size() {
        // The combined-table commit touches every reused record; its cost
        // should exceed split-by-rlist's by a wide margin on the same data.
        let (cvd, _) = fig32_cvd();
        let (_db, _) = loaded(ModelKind::CombinedTable, &cvd);
        // Structural assertion: every version's records carry full vlists,
        // i.e. commits wrote v3 into 4 arrays (all records of the merge).
        let (db, _) = loaded(ModelKind::CombinedTable, &cvd);
        let t = db.table(&format!("{}__combined", cvd.name())).unwrap();
        let in_v3 = t
            .rows()
            .unwrap()
            .into_iter()
            .filter(|(_, r)| r[1].as_int_array().unwrap().contains(&3))
            .count();
        assert_eq!(in_v3, cvd.version_records(partition::Vid(3)).unwrap().len());
        let m = CostModel::default();
        let _ = m;
    }
}
