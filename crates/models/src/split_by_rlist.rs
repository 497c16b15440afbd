//! Approach 4.3: split-by-rlist — the model OrpheusDB adopts
//! (Fig. 3.2(c.ii)).
//!
//! The versioning table maps each `vid` to the array of its records, so a
//! commit inserts exactly **one** versioning tuple (no array appends), and
//! a checkout reads one versioning tuple through the primary-key index,
//! unnests it, and fetches the rids' records from the data table page by
//! page — a record's rid is its row id there, so the row directory is the
//! rid index. The tables are the engine's own:
//! `init` and `apply_commit` write them through `orpheus_core::metadata`.

use super::{fetch_rids, ModelKind, VersioningModel};
use orpheus_core::metadata::{self, append_rlist, data_name, vtab_name};
use orpheus_core::{Cvd, Error, Result};
use partition::{Rid, Vid};
use relstore::{Database, ExecContext, Row, WorkerPool};

/// `{cvd}__sbr_data` `[rid, attrs…]` + `{cvd}__sbr_vtab` `[vid, rlist]`.
#[derive(Debug, Clone)]
pub struct SplitByRlist {
    cvd_name: String,
}

impl SplitByRlist {
    pub fn new(cvd_name: impl Into<String>) -> Self {
        SplitByRlist {
            cvd_name: cvd_name.into(),
        }
    }

    /// [`VersioningModel::checkout`] with an optional morsel worker pool:
    /// a multi-threaded pool decodes the fetched pages morsel-parallel,
    /// any other value reads them on the calling thread. Rows are identical.
    pub fn checkout_with_pool(
        &self,
        db: &Database,
        vid: Vid,
        pool: Option<&WorkerPool>,
        ctx: &mut ExecContext,
    ) -> Result<Vec<Row>> {
        let vtab = db.table(&vtab_name(&self.cvd_name))?;
        let data = db.table(&data_name(&self.cvd_name))?;
        // Retrieve the single versioning tuple via the vid primary key.
        let ids = vtab.index_lookup("vid_pk", vid.0 as i64, &mut ctx.tracker)?;
        let rows = vtab.fetch(ids, Some(0), &mut ctx.tracker, &ctx.model)?;
        let row = rows.first().ok_or(Error::VersionNotFound(vid.0))?;
        let rlist: Vec<i64> = row[1].as_int_array().unwrap_or(&[]).to_vec();
        ctx.tracker.ops(rlist.len() as u64); // unnest(rlist)
        fetch_rids(data, rlist, pool, ctx)
    }
}

impl VersioningModel for SplitByRlist {
    fn kind(&self) -> ModelKind {
        ModelKind::SplitByRlist
    }

    fn table_prefix(&self) -> String {
        format!("{}__sbr_", self.cvd_name)
    }

    fn init(&mut self, db: &mut Database, cvd: &Cvd) -> Result<()> {
        metadata::create(db, cvd)
    }

    fn apply_commit(
        &mut self,
        db: &mut Database,
        cvd: &Cvd,
        vid: Vid,
        new_rids: &[Rid],
        tracker: &mut relstore::CostTracker,
    ) -> Result<()> {
        append_rlist(db, cvd, vid, new_rids, tracker)
    }

    fn checkout(
        &self,
        db: &Database,
        _cvd: &Cvd,
        vid: Vid,
        ctx: &mut ExecContext,
    ) -> Result<Vec<Row>> {
        self.checkout_with_pool(db, vid, None, ctx)
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
    fn versioning_table_one_row_per_version() {
        let (cvd, _) = fig32_cvd();
        let (db, _model) = loaded(ModelKind::SplitByRlist, &cvd);
        let vtab = db.table(&format!("{}__sbr_vtab", cvd.name())).unwrap();
        assert_eq!(vtab.live_row_count(), 4);
        // v3's rlist holds its 4 records.
        let row = vtab
            .rows()
            .unwrap()
            .into_iter()
            .find(|(_, r)| r[0] == Value::Int64(3))
            .unwrap()
            .1;
        assert_eq!(row[1].as_int_array().unwrap().len(), 4);
    }

    #[test]
    fn commit_is_single_versioning_insert() {
        // Structural proof of the cheap commit: committing a version with no
        // new records leaves the data table untouched.
        let (mut cvd, vids) = fig32_cvd();
        let (mut db, mut model) = loaded(ModelKind::SplitByRlist, &cvd);
        let before = db
            .table(&format!("{}__sbr_data", cvd.name()))
            .unwrap()
            .live_row_count();
        let rows: Vec<Row> = cvd
            .checkout_rows(&[vids[3]])
            .unwrap()
            .into_iter()
            .map(|(_, x)| x.clone())
            .collect();
        let res = cvd.commit(&[vids[3]], rows, "noop", "eve").unwrap();
        model
            .apply_commit(
                &mut db,
                &cvd,
                res.vid,
                &[],
                &mut relstore::CostTracker::new(),
            )
            .unwrap();
        let data = db.table(&format!("{}__sbr_data", cvd.name())).unwrap();
        assert_eq!(data.live_row_count(), before);
        let vtab = db.table(&format!("{}__sbr_vtab", cvd.name())).unwrap();
        assert_eq!(vtab.live_row_count(), 5);
    }

    #[test]
    fn checkout_uses_vid_index_not_vtab_scan() {
        let (cvd, vids) = fig32_cvd();
        let (db, model) = loaded(ModelKind::SplitByRlist, &cvd);
        let mut ctx = ExecContext::new();
        let rows = model.checkout(&db, &cvd, vids[1], &mut ctx).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(ctx.tracker.index_tuples >= 1);
    }
}
