//! Property-based tests on the core invariants, spanning crates:
//! commit/checkout roundtrips, model agreement, LyreSplit's Theorem 5.2
//! bounds, storage-solution validity, delta roundtrips, and CSV I/O.

use orpheusdb::deltastore::{self, GenConfig, GraphShape};
use orpheusdb::models::{load_cvd, ModelKind};
use orpheusdb::orpheus::commands::{from_csv, to_csv};
use orpheusdb::orpheus::cvd::Cvd;
use orpheusdb::partition::{lyresplit, Partitioning, VersionTree, Vid};
use orpheusdb::relstore::{Column, DataType, Database, ExecContext, Schema, Value};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Random edit histories for CVDs
// ---------------------------------------------------------------------------

/// One user action against the current tip of a branch.
#[derive(Debug, Clone)]
enum Edit {
    Insert(i64),
    Update(usize),
    Delete(usize),
    /// Branch from an earlier version (index modulo history length).
    BranchFrom(usize),
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0..10_000i64).prop_map(Edit::Insert),
        any::<usize>().prop_map(Edit::Update),
        any::<usize>().prop_map(Edit::Delete),
        any::<usize>().prop_map(Edit::BranchFrom),
    ]
}

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("k", DataType::Int64),
        Column::new("x", DataType::Int64),
    ])
}

/// Apply a random script, returning the CVD and every committed row set.
fn build_cvd(script: &[Vec<Edit>]) -> (Cvd, Vec<Vec<Vec<Value>>>) {
    let init: Vec<Vec<Value>> = (0..20i64)
        .map(|i| vec![Value::Int64(i), Value::Int64(i * 2)])
        .collect();
    let (mut cvd, v0) = Cvd::init("prop", schema(), vec!["k".into()], init.clone(), "p").unwrap();
    let mut histories = vec![init];
    let mut next_key = 10_000i64;
    let mut tip = v0;
    for commit in script {
        let mut parent = tip;
        let mut rows: Vec<Vec<Value>> = histories[parent.idx()].clone();
        for e in commit {
            match e {
                Edit::BranchFrom(i) => {
                    parent = Vid((i % histories.len()) as u32);
                    rows = histories[parent.idx()].clone();
                }
                Edit::Insert(x) => {
                    next_key += 1;
                    rows.push(vec![Value::Int64(next_key), Value::Int64(*x)]);
                }
                Edit::Update(i) if !rows.is_empty() => {
                    let i = i % rows.len();
                    let bump = rows[i][1].as_i64().unwrap() + 1;
                    rows[i][1] = Value::Int64(bump);
                }
                Edit::Delete(i) if !rows.is_empty() => {
                    let i = i % rows.len();
                    rows.remove(i);
                }
                _ => {}
            }
        }
        let res = cvd.commit(&[parent], rows.clone(), "prop", "p").unwrap();
        tip = res.vid;
        histories.push(rows);
    }
    (cvd, histories)
}

fn normalize(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by_key(|r| r[0].as_i64().unwrap());
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Committed rows come back exactly from every checkout, on every model.
    #[test]
    fn commit_checkout_roundtrip(script in prop::collection::vec(
        prop::collection::vec(edit_strategy(), 1..6), 1..8)) {
        let (cvd, histories) = build_cvd(&script);
        // Logical roundtrip.
        for (i, rows) in histories.iter().enumerate() {
            let got: Vec<Vec<Value>> = cvd
                .checkout_rows(&[Vid(i as u32)])
                .unwrap()
                .into_iter()
                .map(|(_, r)| r.to_vec())
                .collect();
            prop_assert_eq!(normalize(got), normalize(rows.clone()));
        }
        // Physical models agree (drop the leading rid column).
        for kind in ModelKind::all() {
            let mut db = Database::new();
            let mut model = kind.build(cvd.name());
            load_cvd(model.as_mut(), &mut db, &cvd).unwrap();
            for (i, rows) in histories.iter().enumerate() {
                let mut ctx = ExecContext::new();
                let got: Vec<Vec<Value>> = model
                    .checkout(&db, &cvd, Vid(i as u32), &mut ctx)
                    .unwrap()
                    .into_iter()
                    .map(|r| r[1..].to_vec())
                    .collect();
                prop_assert_eq!(
                    normalize(got),
                    normalize(rows.clone()),
                    "model {} version {}", kind.name(), i
                );
            }
        }
    }

    /// Eq. 5.4: the CVD's record count equals Σ|R(v)| − Σ w(edges) on its
    /// version tree.
    #[test]
    fn record_count_satisfies_eq_5_4(script in prop::collection::vec(
        prop::collection::vec(edit_strategy(), 1..5), 1..10)) {
        let (cvd, _) = build_cvd(&script);
        let tree = cvd.tree();
        prop_assert_eq!(tree.num_records(), cvd.num_records() as u64 + tree.rhat);
    }
}

// ---------------------------------------------------------------------------
// LyreSplit bounds on random version trees
// ---------------------------------------------------------------------------

/// A random version tree: parent links plus sizes/weights with w ≤ min
/// of both endpoint sizes.
fn tree_strategy() -> impl Strategy<Value = VersionTree> {
    prop::collection::vec((any::<u32>(), 10..500u64, 0..100u64), 1..40).prop_map(|nodes| {
        let n = nodes.len();
        let mut parent = vec![None];
        let mut weight = vec![0u64];
        let mut sizes = vec![nodes[0].1];
        for (i, &(psel, size, wsel)) in nodes.iter().enumerate().skip(1) {
            let p = (psel as usize) % i;
            parent.push(Some(Vid(p as u32)));
            let w = 1 + wsel % sizes[p].min(size);
            weight.push(w);
            sizes.push(size);
        }
        let _ = n;
        VersionTree::from_parts(parent, weight, sizes)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 5.2: LyreSplit is a ((1+δ)^ℓ, 1/δ)-approximation.
    #[test]
    fn lyresplit_theorem_5_2(tree in tree_strategy(), delta in 0.05f64..1.0) {
        let res = lyresplit(&tree, delta);
        // Valid partitioning: every version in exactly one partition.
        prop_assert_eq!(res.partitioning.num_versions(), tree.num_versions());
        let r = tree.num_records() as f64;
        let storage_bound = (1.0 + delta).powi(res.levels as i32) * r;
        prop_assert!(
            res.est_storage as f64 <= storage_bound + 1e-6,
            "storage {} > bound {}", res.est_storage, storage_bound
        );
        let checkout_bound =
            tree.bipartite_edges() as f64 / tree.num_versions() as f64 / delta;
        prop_assert!(
            res.est_checkout_avg <= checkout_bound + 1e-6,
            "checkout {} > bound {}", res.est_checkout_avg, checkout_bound
        );
    }

    /// Partitioning cost summary sits between the extremes of
    /// Observations 5.1/5.2.
    #[test]
    fn partitioning_extremes(tree in tree_strategy(), delta in 0.05f64..1.0) {
        let res = lyresplit(&tree, delta);
        prop_assert!(res.est_storage >= tree.num_records());
        prop_assert!(res.est_storage <= tree.bipartite_edges());
        let floor = tree.bipartite_edges() as f64 / tree.num_versions() as f64;
        prop_assert!(res.est_checkout_avg + 1e-9 >= floor);
    }

    /// Partitioning::from_assignment compaction keeps groups intact.
    #[test]
    fn partition_assignment_compaction(assign in prop::collection::vec(0..20usize, 1..50)) {
        let p = Partitioning::from_assignment(assign.clone());
        prop_assert_eq!(p.num_versions(), assign.len());
        for (i, &a) in assign.iter().enumerate() {
            for (j, &b) in assign.iter().enumerate() {
                prop_assert_eq!(
                    a == b,
                    p.partition_of(Vid(i as u32)) == p.partition_of(Vid(j as u32))
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Deltastore invariants
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All solvers produce valid, graph-consistent trees that respect
    /// their constraints, on random instances.
    #[test]
    fn deltastore_solvers_valid(
        versions in 3usize..30,
        seed in 0u64..500,
        directed in any::<bool>(),
        shape_sel in 0usize..4,
    ) {
        let shape = [
            GraphShape::Chain,
            GraphShape::Flat,
            GraphShape::Random,
            GraphShape::Tree { branching: 3 },
        ][shape_sel];
        let g = GenConfig {
            versions,
            shape,
            base_items: 200,
            adds_per_step: 25,
            removes_per_step: 8,
            extra_edges: versions,
            directed,
            decouple_phi: false,
            seed,
        }
        .build();
        let mst = deltastore::p1_min_storage(&g);
        prop_assert!(mst.is_valid());
        prop_assert!(mst.consistent_with(&g));
        let spt = deltastore::p2_min_recreation(&g);
        prop_assert!(spt.is_valid());
        prop_assert!(mst.storage_cost() <= spt.storage_cost());
        prop_assert!(spt.sum_recreation() <= mst.sum_recreation());

        let theta = spt.sum_recreation() * 2;
        let p5 = deltastore::p5_min_storage_sum(&g, theta);
        prop_assert!(p5.is_valid() && p5.consistent_with(&g));
        prop_assert!(p5.sum_recreation() <= theta);
        prop_assert!(p5.storage_cost() >= mst.storage_cost());

        let beta = mst.storage_cost() * 2;
        let p3 = deltastore::p3_min_sum_recreation(&g, beta);
        prop_assert!(p3.is_valid() && p3.consistent_with(&g));
        prop_assert!(p3.storage_cost() <= beta);

        let theta = spt.max_recreation() * 2;
        if let Some(p6) = deltastore::p6_min_storage_max(&g, theta) {
            prop_assert!(p6.is_valid() && p6.consistent_with(&g));
            prop_assert!(p6.max_recreation() <= theta);
        }
    }

    /// Undirected generated instances satisfy the triangle inequality
    /// (Eq. 7.3) by construction.
    #[test]
    fn undirected_triangle_inequality(versions in 3usize..15, seed in 0u64..200) {
        let g = GenConfig {
            versions,
            directed: false,
            extra_edges: versions * 3,
            seed,
            ..GenConfig::default()
        }
        .build();
        prop_assert!(g.satisfies_triangle_inequality());
    }

    /// Delta encode/apply/reverse roundtrip for arbitrary item sets.
    #[test]
    fn delta_roundtrip(
        a in prop::collection::btree_set(0u64..1000, 0..200),
        b in prop::collection::btree_set(0u64..1000, 0..200),
    ) {
        let ca = deltastore::VersionContent::new(a.into_iter().collect(), 10);
        let cb = deltastore::VersionContent::new(b.into_iter().collect(), 10);
        let d = deltastore::Delta::between(&ca, &cb);
        prop_assert_eq!(&d.apply(&ca), &cb);
        prop_assert_eq!(&d.reversed().apply(&cb), &ca);
        // Empty delta ⇔ equal contents.
        prop_assert_eq!(d.is_empty(), ca == cb);
    }
}

// ---------------------------------------------------------------------------
// CSV roundtrip
// ---------------------------------------------------------------------------

fn value_strategy(dtype: DataType) -> BoxedStrategy<Value> {
    match dtype {
        DataType::Int64 => any::<i64>().prop_map(Value::Int64).boxed(),
        DataType::Text => "[a-zA-Z0-9 ,\"']{0,12}"
            .prop_map(|s: String| Value::Text(s))
            .boxed(),
        _ => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// to_csv/from_csv roundtrip with quoting, commas, and empty strings.
    /// (NULLs and empty text both serialize to the empty field; we only
    /// test non-null values here and cover NULL in unit tests.)
    #[test]
    fn csv_roundtrip(rows in prop::collection::vec(
        (value_strategy(DataType::Int64), value_strategy(DataType::Text)), 0..20)) {
        let schema = Schema::new(vec![
            Column::new("n", DataType::Int64),
            Column::new("s", DataType::Text),
        ]);
        let rows: Vec<Vec<Value>> = rows.into_iter().map(|(a, b)| vec![a, b]).collect();
        let csv = to_csv(&schema, rows.iter().map(|r| r.as_slice()));
        let parsed = from_csv(&schema, &csv).unwrap();
        // Empty strings read back as NULL; map them for comparison.
        let expect: Vec<Vec<Value>> = rows
            .into_iter()
            .map(|r| {
                r.into_iter()
                    .map(|v| match v {
                        Value::Text(s) if s.is_empty() => Value::Null,
                        other => other,
                    })
                    .collect()
            })
            .collect();
        prop_assert_eq!(parsed, expect);
    }

    /// The VQuel lexer and parser never panic on arbitrary input.
    #[test]
    fn vquel_parser_total(input in ".{0,80}") {
        let _ = orpheusdb::vquel::parse(&input);
    }
}
