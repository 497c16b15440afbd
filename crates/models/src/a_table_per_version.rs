//! Approach 4.5: one table per version. Minimal checkout time, maximal
//! storage (every shared record is duplicated per version).

use super::{align_row_to_schema, ModelKind, VersioningModel};
use orpheus_core::metadata::{data_row, data_schema};
use orpheus_core::{Cvd, Result};
use partition::{Rid, Vid};
use relstore::{Database, ExecContext, Executor, Row, SeqScan};

/// One physical table per version: `{cvd}__v{vid}`.
#[derive(Debug, Clone)]
pub struct ATablePerVersion {
    cvd_name: String,
}

impl ATablePerVersion {
    pub fn new(cvd_name: impl Into<String>) -> Self {
        ATablePerVersion {
            cvd_name: cvd_name.into(),
        }
    }

    fn table_name(&self, vid: Vid) -> String {
        format!("{}__tpv_v{}", self.cvd_name, vid.0)
    }
}

impl VersioningModel for ATablePerVersion {
    fn kind(&self) -> ModelKind {
        ModelKind::ATablePerVersion
    }

    fn table_prefix(&self) -> String {
        format!("{}__tpv_", self.cvd_name)
    }

    fn init(&mut self, _db: &mut Database, _cvd: &Cvd) -> Result<()> {
        Ok(())
    }

    fn apply_commit(
        &mut self,
        db: &mut Database,
        cvd: &Cvd,
        vid: Vid,
        _new_rids: &[Rid],
        tracker: &mut relstore::CostTracker,
    ) -> Result<()> {
        let table = db.create_table(self.table_name(vid), data_schema(cvd))?;
        let rids = cvd.version_records(vid)?;
        // Bulk insert of the whole version: sequential page writes.
        tracker.seq_scan(rids.len() as u64, &relstore::CostModel::default());
        for &rid in rids {
            table.insert(data_row(cvd, rid))?;
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
        let table = db.table(&self.table_name(vid))?;
        let mut scan = SeqScan::new(table);
        let rows = scan.collect(ctx)?;
        // This version's table froze the schema at commit time; align to
        // the CVD's evolved schema.
        Ok(rows
            .into_iter()
            .map(|r| align_row_to_schema(cvd, r))
            .collect())
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
    fn creates_one_table_per_version() {
        let (cvd, _) = fig32_cvd();
        let (db, model) = loaded(ModelKind::ATablePerVersion, &cvd);
        assert_eq!(db.tables_with_prefix(&model.table_prefix()).len(), 4);
    }

    #[test]
    fn checkout_reads_only_the_versions_table() {
        let (cvd, vids) = fig32_cvd();
        let (db, model) = loaded(ModelKind::ATablePerVersion, &cvd);
        let mut ctx = ExecContext::new();
        let rows = model.checkout(&db, &cvd, vids[0], &mut ctx).unwrap();
        assert_eq!(rows.len(), 3);
        // Only v0's 3 tuples were touched.
        assert_eq!(ctx.tracker.tuples, 3);
    }
}
