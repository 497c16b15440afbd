//! Regression test: incremental commits across a schema change must leave
//! every physical model serving type-correct checkouts of *old* versions
//! (per-version tables freeze their schema; §4.3's single-pool widening
//! has to be applied on read).

use models::{load_cvd, ModelKind};
use orpheus_core::{OrpheusDb, Vid};
use partition::Rid;
use relstore::{Column, CostTracker, DataType, Database, ExecContext, Schema, Value};

#[test]
fn incremental_commit_across_widening_serves_aligned_rows() {
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int64),
        Column::new("x", DataType::Int64),
    ]);
    let mut odb = OrpheusDb::new();
    odb.create_user("a").unwrap();
    odb.login("a").unwrap();
    let rows = vec![vec![Value::Int64(1), Value::Int64(7)]];
    let v0 = odb.init_cvd("t", schema, vec!["k".into()], rows).unwrap();
    let cvd0 = odb.cvd("t").unwrap().clone();
    // Schema evolves AFTER the physical stores were loaded: x widens to
    // decimal and a new column appears.
    odb.checkout_csv("t", &[v0], "t.csv").unwrap();
    let csv = "k,x,note\n1,7.5,updated\n";
    let res = odb
        .commit_csv("t.csv", csv, "k:int,x:float,note:text", "widen")
        .unwrap();
    let cvd = odb.cvd("t").unwrap();
    let new_rids: Vec<Rid> = ((cvd.num_records() - res.new_records)..cvd.num_records())
        .map(|i| Rid(i as u64))
        .collect();

    for kind in ModelKind::all() {
        let mut db = Database::new();
        let mut model = kind.build(cvd.name());
        load_cvd(model.as_mut(), &mut db, &cvd0).unwrap();
        model
            .apply_commit(&mut db, cvd, res.vid, &new_rids, &mut CostTracker::new())
            .unwrap();

        // Old version's checkout must match the (widened) logical record:
        // x = Float64(7.0), note = NULL.
        let mut ctx = ExecContext::new();
        let rows = model.checkout(&db, cvd, v0, &mut ctx).unwrap();
        assert_eq!(rows.len(), 1, "{}", kind.name());
        assert_eq!(rows[0][2], Value::Float64(7.0), "{} x type", kind.name());
        assert_eq!(rows[0][3], Value::Null, "{} padded column", kind.name());

        // New version serves the committed values.
        let mut ctx = ExecContext::new();
        let rows = model.checkout(&db, cvd, res.vid, &mut ctx).unwrap();
        assert_eq!(rows[0][2], Value::Float64(7.5), "{}", kind.name());
        assert_eq!(rows[0][3], Value::from("updated"), "{}", kind.name());
    }
    assert_eq!(res.vid, Vid(1));
}
