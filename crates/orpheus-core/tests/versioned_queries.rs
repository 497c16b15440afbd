//! Integration tests for the versioned query layer (§3.3.2) against a
//! multi-version protein-interaction CVD, exercising the query paths the
//! command surface builds on.

use orpheus_core::query::{versions_where_aggregate, QueryResult};
use orpheus_core::{OrpheusDb, Vid};
use relstore::{BinOp, Column, DataType, Schema, Value};

fn row(p1: &str, p2: &str, coex: i64) -> Vec<Value> {
    vec![Value::from(p1), Value::from(p2), Value::Int64(coex)]
}

/// Four versions: v0 base; v1 bumps one score; v2 adds records; v3 merges.
fn setup() -> OrpheusDb {
    let schema = Schema::new(vec![
        Column::new("protein1", DataType::Text),
        Column::new("protein2", DataType::Text),
        Column::new("coexpression", DataType::Int64),
    ]);
    let mut odb = OrpheusDb::new();
    for user in ["alice", "bob", "carol", "dave"] {
        odb.create_user(user).unwrap();
    }
    odb.login("alice").unwrap();
    let rows = vec![row("A", "B", 10), row("C", "D", 90), row("E", "F", 50)];
    let pk = vec!["protein1".into(), "protein2".into()];
    odb.init_cvd("Interaction", schema, pk, rows).unwrap();
    odb.login("bob").unwrap();
    odb.checkout("Interaction", &[Vid(0)], "w").unwrap();
    let t = odb.staging_table_mut("w").unwrap();
    let (id, mut ab) = t.rows().unwrap().swap_remove(0);
    ab[2] = Value::Int64(95);
    t.update(id, ab).unwrap();
    odb.commit("w", "bump AB").unwrap();
    odb.login("carol").unwrap();
    for line in [
        "checkout Interaction -v 0 -t w",
        "insert w G,H,99",
        "insert w I,J,5",
        "commit -t w -m add GH IJ",
    ] {
        odb.execute(line).unwrap();
    }
    odb.login("dave").unwrap();
    odb.checkout("Interaction", &[Vid(1), Vid(2)], "w").unwrap();
    odb.commit("w", "merge").unwrap();
    odb
}

/// Parse, plan, lower and drain `sql` over the engine's tables.
fn run(sql: &str) -> QueryResult {
    setup().run(sql).unwrap()
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
    let odb = setup();
    let cvd = odb.cvd("Interaction").unwrap();
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
    let odb = setup();
    let (_, small) = odb.read_version("Interaction", Vid(0)).unwrap();
    let (_, large) = odb.read_version("Interaction", Vid(3)).unwrap();
    // Both read the same shared data table, but the larger version emits
    // more tuples.
    assert!(large.tracker.tuples > small.tracker.tuples);
}
