//! Integration tests for the versioned query layer (§3.3.2) against a
//! multi-version protein-interaction CVD, exercising the query paths the
//! command surface builds on.

use orpheus_core::cvd::Cvd;
use orpheus_core::models::{load_cvd, SplitByRlist};
use orpheus_core::plan::{LogicalPlan, Tables};
use orpheus_core::query::{parse_query, versions_where_aggregate, QueryResult};
use orpheus_core::Vid;
use relstore::{BinOp, Column, DataType, Database, ExecContext, Schema, Value};

fn row(p1: &str, p2: &str, coex: i64) -> Vec<Value> {
    vec![Value::from(p1), Value::from(p2), Value::Int64(coex)]
}

/// Four versions: v0 base; v1 bumps one score; v2 adds records; v3 merges.
fn setup() -> (Database, Cvd, SplitByRlist) {
    let schema = Schema::new(vec![
        Column::new("protein1", DataType::Text),
        Column::new("protein2", DataType::Text),
        Column::new("coexpression", DataType::Int64),
    ]);
    let (mut cvd, v0) = Cvd::init(
        "Interaction",
        schema,
        vec!["protein1".into(), "protein2".into()],
        vec![row("A", "B", 10), row("C", "D", 90), row("E", "F", 50)],
        "alice",
    )
    .unwrap();
    let base: Vec<Vec<Value>> = cvd
        .checkout_rows(&[v0])
        .unwrap()
        .into_iter()
        .map(|(_, r)| r.clone())
        .collect();
    let mut m1 = base.clone();
    m1[0][2] = Value::Int64(95);
    let v1 = cvd.commit(&[v0], m1, "bump AB", "bob").unwrap().vid;
    let mut m2 = base.clone();
    m2.push(row("G", "H", 99));
    m2.push(row("I", "J", 5));
    let v2 = cvd.commit(&[v0], m2, "add GH IJ", "carol").unwrap().vid;
    let merged: Vec<Vec<Value>> = cvd
        .checkout_rows(&[v1, v2])
        .unwrap()
        .into_iter()
        .map(|(_, r)| r.clone())
        .collect();
    cvd.commit(&[v1, v2], merged, "merge", "dave").unwrap();

    let mut db = Database::new();
    let mut model = SplitByRlist::new(cvd.name());
    load_cvd(&mut model, &mut db, &cvd).unwrap();
    (db, cvd, model)
}

/// Parse, plan, lower and drain `sql` over the loaded tables — what
/// `OrpheusDb::run` does, minus the command surface.
fn run(sql: &str) -> QueryResult {
    let (db, cvd, model) = setup();
    let tables = Tables {
        db: &db,
        cvd: &cvd,
        model: &model,
        pool: None,
    };
    let plan = LogicalPlan::of(&parse_query(sql).unwrap());
    tables.run(&plan, &mut ExecContext::new()).unwrap()
}

#[test]
fn select_across_versions_unions_records() {
    // v1 ∪ v2 with coexpression > 80: AB(95 in v1), CD(90 in both), GH(99).
    let rs = run("SELECT * FROM VERSION 1, 2 OF CVD Interaction WHERE coexpression > 80");
    assert_eq!(rs.rows.len(), 3);
}

#[test]
fn limit_caps_results() {
    let rs = run("SELECT * FROM VERSION 3 OF CVD Interaction LIMIT 2");
    assert_eq!(rs.rows.len(), 2);
}

#[test]
fn aggregate_by_version_counts_and_sums() {
    let rs = run("SELECT vid, count(*) FROM CVD Interaction GROUP BY vid");
    // v0: 3, v1: 3, v2: 5, v3: 5.
    let counts: Vec<(i64, i64)> = rs
        .rows
        .iter()
        .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
        .collect();
    assert_eq!(counts, vec![(0, 3), (1, 3), (2, 5), (3, 5)]);

    let rs = run("SELECT vid, max(coexpression) FROM CVD Interaction GROUP BY vid");
    let max_v3 = rs.rows.iter().find(|r| r[0] == Value::Int64(3)).unwrap();
    assert_eq!(max_v3[1], Value::Int64(99));
}

#[test]
fn aggregate_with_predicate_filters_first() {
    let rs = run("SELECT vid, count(*) FROM CVD Interaction WHERE protein1 = 'A' GROUP BY vid");
    // Every version has exactly one (A, B) record.
    assert_eq!(rs.rows.len(), 4);
    for r in &rs.rows {
        assert_eq!(r[1], Value::Int64(1));
    }
}

#[test]
fn versions_where_aggregate_selects_versions() {
    // §4.1's example: "find versions where the total count of tuples with
    // protein1 = X is greater than N" — here versions with > 4 records.
    let counts = run("SELECT vid, count(*) FROM CVD Interaction GROUP BY vid");
    let vids = versions_where_aggregate(&counts, BinOp::Gt, &Value::Int64(4)).unwrap();
    assert_eq!(vids, vec![Vid(2), Vid(3)]);
}

#[test]
fn v_diff_and_v_intersect_materialize() {
    // v1 \ v0 = the bumped AB record.
    let rs = run("SELECT * FROM V_DIFF(1, 0) OF CVD Interaction");
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][3], Value::Int64(95));
    // Records common to all four versions: CD and EF.
    let rs = run("SELECT * FROM V_INTERSECT(0, 1, 2, 3) OF CVD Interaction");
    assert_eq!(rs.rows.len(), 2);
}

#[test]
fn graph_primitives_on_the_merge() {
    let (_, cvd, _) = setup();
    // ancestor(v3) = {v0, v1, v2}; descendant(v0) = {v1, v2, v3};
    // parent(v3) = {v1, v2}.
    let mut anc = cvd.graph().ancestors(Vid(3));
    anc.sort();
    assert_eq!(anc, vec![Vid(0), Vid(1), Vid(2)]);
    let mut desc = cvd.graph().descendants(Vid(0));
    desc.sort();
    assert_eq!(desc, vec![Vid(1), Vid(2), Vid(3)]);
    assert_eq!(cvd.graph().parents(Vid(3)), &[Vid(1), Vid(2)]);
    assert_eq!(cvd.meta(Vid(3)).unwrap().author, "dave");
}

#[test]
fn checkout_costs_reflect_version_sizes() {
    let (db, cvd, model) = setup();
    use orpheus_core::models::VersioningModel;
    let mut small = ExecContext::new();
    model.checkout(&db, &cvd, Vid(0), &mut small).unwrap();
    let mut large = ExecContext::new();
    model.checkout(&db, &cvd, Vid(3), &mut large).unwrap();
    // Both scan the same shared data table, so page costs match, but the
    // larger version emits more tuples.
    assert!(large.tracker.tuples >= small.tracker.tuples);
}
