//! Approach 4.4: the delta-based model — each version stores its
//! modifications from a single precedent version (the parent sharing the
//! most records), with a tombstone flag for deletions, plus a precedent
//! metadata table mapping each version to its base.
//!
//! Checkout must replay the delta chain back to the root, remembering which
//! records were already decided — cheap commits, expensive checkouts, and
//! no way to run advanced queries without recreating versions (§4.1).

use super::{align_row_to_schema, ModelKind, VersioningModel};
use orpheus_core::metadata::{data_row, data_schema};
use orpheus_core::{Cvd, Error, Result};
use partition::{Rid, Vid};
use relstore::{Column, DataType, Database, ExecContext, Row, Value};
use std::collections::HashMap;

/// Per-version delta tables `{cvd}__delta_v{vid}` `[rid, tombstone, attrs…]`
/// plus an in-model precedent map (vid → base vid).
#[derive(Debug, Clone)]
pub struct DeltaBased {
    cvd_name: String,
    /// The precedent metadata table: `base[vid] = None` for the root.
    base: HashMap<Vid, Option<Vid>>,
}

impl DeltaBased {
    pub fn new(cvd_name: impl Into<String>) -> Self {
        DeltaBased {
            cvd_name: cvd_name.into(),
            base: HashMap::new(),
        }
    }

    fn table_name(&self, vid: Vid) -> String {
        format!("{}__delta_v{}", self.cvd_name, vid.0)
    }

    /// The version this vid stores its delta against.
    pub fn base_of(&self, vid: Vid) -> Option<Vid> {
        self.base.get(&vid).copied().flatten()
    }

    fn delta_schema(cvd: &Cvd) -> relstore::Schema {
        let mut schema = data_schema(cvd);
        // [rid, tombstone, attrs…] — insert tombstone after rid by
        // rebuilding the column list.
        let mut cols = vec![
            schema.columns()[0].clone(),
            Column::new("tombstone", DataType::Bool),
        ];
        cols.extend(schema.columns()[1..].iter().cloned());
        schema = relstore::Schema::new(cols);
        schema
    }
}

impl VersioningModel for DeltaBased {
    fn kind(&self) -> ModelKind {
        ModelKind::DeltaBased
    }

    fn table_prefix(&self) -> String {
        format!("{}__delta_", self.cvd_name)
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
        // Base = the parent sharing the largest number of records (§4.1);
        // versions with multiple parents store the delta from one only.
        let parents = cvd.graph().parents(vid);
        let base = parents
            .iter()
            .max_by_key(|&&p| cvd.graph().weight(p, vid))
            .copied();
        self.base.insert(vid, base);

        let table = db.create_table(self.table_name(vid), Self::delta_schema(cvd))?;
        let rids = cvd.version_records(vid)?;
        match base {
            None => {
                // Root: everything is an insert.
                for &rid in rids {
                    let mut row = data_row(cvd, rid);
                    row.insert(1, Value::Bool(false));
                    table.insert(row)?;
                }
            }
            Some(b) => {
                let base_rids = cvd.version_records(b)?;
                // Inserts: in vid but not in base.
                for &rid in rids {
                    if base_rids.binary_search(&rid).is_err() {
                        let mut row = data_row(cvd, rid);
                        row.insert(1, Value::Bool(false));
                        table.insert(row)?;
                    }
                }
                // Deletes: in base but not in vid → tombstones.
                for &rid in base_rids {
                    if rids.binary_search(&rid).is_err() {
                        let mut row = data_row(cvd, rid);
                        row.insert(1, Value::Bool(true));
                        table.insert(row)?;
                    }
                }
            }
        }
        // Delta rows written sequentially into the fresh table.
        tracker.seq_scan(
            table.live_row_count() as u64,
            &relstore::CostModel::default(),
        );
        Ok(())
    }

    fn checkout(
        &self,
        db: &Database,
        cvd: &Cvd,
        vid: Vid,
        ctx: &mut ExecContext,
    ) -> Result<Vec<Row>> {
        if !self.base.contains_key(&vid) {
            return Err(Error::VersionNotFound(vid.0));
        }
        // Walk the precedent chain target → root; the first occurrence of a
        // record (closest to the target) decides its fate.
        let mut seen: std::collections::HashSet<i64> = Default::default();
        let mut out = Vec::new();
        let mut cursor = Some(vid);
        while let Some(v) = cursor {
            // A full scan of the delta table: estimated I/O for every heap
            // slot, measured I/O for the pages pulled through the pool.
            let table = db.table(&self.table_name(v))?;
            ctx.tracker.seq_scan(table.heap_size() as u64, &ctx.model);
            let before = table.io_stats();
            let rows = table.rows()?;
            ctx.tracker
                .measured
                .absorb(&table.io_stats().since(&before));
            for (_, mut row) in rows {
                let rid = row[0]
                    .as_i64()
                    .ok_or_else(|| Error::Internal("delta rid column is not an integer".into()))?;
                if !seen.insert(rid) {
                    continue; // decided by a nearer delta
                }
                let tombstone = row[1].as_bool().unwrap_or(false);
                if !tombstone {
                    row.remove(1);
                    // Older deltas may predate schema evolution: pad new
                    // attributes and widen evolved types.
                    out.push(align_row_to_schema(cvd, row));
                }
            }
            cursor = self.base.get(&v).copied().flatten();
        }
        Ok(out)
    }

    fn storage_bytes(&self, db: &Database) -> usize {
        db.storage_bytes_with_prefix(&self.table_prefix())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::super::*;
    use super::DeltaBased;
    use orpheus_core::Error;
    use relstore::DataType;

    #[test]
    fn merge_version_bases_on_heaviest_parent() {
        let (cvd, vids) = fig32_cvd();
        let mut db = Database::new();
        let mut model = DeltaBased::new(cvd.name());
        load_cvd(&mut model, &mut db, &cvd).unwrap();
        // v3 merges v1 (w=3) and v2 (w=4): base must be v2.
        assert_eq!(model.base_of(vids[3]), Some(vids[2]));
        assert_eq!(model.base_of(vids[0]), None);
    }

    #[test]
    fn deltas_are_small_for_small_changes() {
        let (cvd, vids) = fig32_cvd();
        let mut db = Database::new();
        let mut model = DeltaBased::new(cvd.name());
        load_cvd(&mut model, &mut db, &cvd).unwrap();
        // v1 updated one record: delta = 1 insert + 1 tombstone.
        let t = db
            .table(&format!("{}__delta_v{}", cvd.name(), vids[1].0))
            .unwrap();
        assert_eq!(t.live_row_count(), 2);
        // v2 inserted one record: delta = 1 insert.
        let t = db
            .table(&format!("{}__delta_v{}", cvd.name(), vids[2].0))
            .unwrap();
        assert_eq!(t.live_row_count(), 1);
    }

    #[test]
    fn checkout_replays_chain_with_tombstones() {
        let (cvd, vids) = fig32_cvd();
        let (db, model) = loaded(ModelKind::DeltaBased, &cvd);
        for &v in &vids {
            assert_checkout_matches(ModelKind::DeltaBased, &db, model.as_ref(), &cvd, v);
        }
    }

    /// Regression: the chain replay read each delta table through a
    /// lossy scan, so a page the pool could not supply made the checkout
    /// *shorter* instead of failing.
    #[test]
    fn checkout_surfaces_storage_errors() {
        use relstore::{Column, Schema};
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int64),
            Column::new("pad", DataType::Text),
        ]);
        let rows: Vec<Row> = (0..40)
            .map(|k| vec![Value::Int64(k), Value::Text("x".repeat(1_000))])
            .collect();
        let (cvd, v0) = Cvd::init("wide", schema, vec!["k".into()], rows, "a").unwrap();
        let mut db = Database::with_pool_capacity(2);
        let mut model = DeltaBased::new(cvd.name());
        load_cvd(&mut model, &mut db, &cvd).unwrap();
        let pages = db.table("wide__delta_v0").unwrap().num_heap_pages();
        assert!(pages > 4, "{pages}");
        let mut ctx = ExecContext::new();
        assert_eq!(model.checkout(&db, &cvd, v0, &mut ctx).unwrap().len(), 40);
        // Both frames pinned: every other page is unreadable.
        let pool = db.pool();
        let _a = pool.fetch(0).unwrap();
        let _b = pool.fetch(1).unwrap();
        let starved = model.checkout(&db, &cvd, v0, &mut ExecContext::new());
        assert!(matches!(starved, Err(Error::Storage(_))), "{starved:?}");
    }

    #[test]
    fn checkout_cost_grows_with_chain_depth() {
        // A long chain: checking out the tip must touch every delta table.
        use relstore::{Column, Schema};
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int64),
            Column::new("x", DataType::Int64),
        ]);
        let rows: Vec<Row> = (0..50)
            .map(|i| vec![Value::Int64(i), Value::Int64(0)])
            .collect();
        let (mut cvd, mut tip) = Cvd::init("chain", schema, vec!["k".into()], rows, "a").unwrap();
        for step in 1..10i64 {
            let mut rows: Vec<Row> = cvd
                .checkout_rows(&[tip])
                .unwrap()
                .into_iter()
                .map(|(_, r)| r.to_vec())
                .collect();
            rows[(step % 50) as usize][1] = Value::Int64(step);
            tip = cvd.commit(&[tip], rows, "step", "a").unwrap().vid;
        }
        let (db, model) = loaded(ModelKind::DeltaBased, &cvd);
        let mut ctx_root = ExecContext::new();
        model
            .checkout(&db, &cvd, partition::Vid(0), &mut ctx_root)
            .unwrap();
        let mut ctx_tip = ExecContext::new();
        let got = model.checkout(&db, &cvd, tip, &mut ctx_tip).unwrap();
        assert_eq!(got.len(), 50);
        assert!(ctx_tip.tracker.tuples > ctx_root.tracker.tuples);
    }
}
