//! Cross-crate integration tests: the full pipeline from generated
//! benchmark datasets through OrpheusDB's physical models, the partition
//! optimizer, the delta storage engine, VQuel, and lineage inference.

use orpheusdb::benchgen::{generate, DatasetSpec};
use orpheusdb::deltastore;
use orpheusdb::models::{load_cvd, ModelKind, PartitionedStore};
use orpheusdb::orpheus::cvd::Cvd;
use orpheusdb::partition::{lyresplit_for_budget, Vid};
use orpheusdb::provenance;
use orpheusdb::relstore::{Column, DataType, Database, ExecContext, Schema, Value};
use orpheusdb::vquel;

/// Replay a generated dataset into a CVD (same logic the bench harness
/// uses, duplicated here so the integration test stands alone).
fn dataset_to_cvd(d: &orpheusdb::benchgen::VersionedDataset) -> Cvd {
    let mut cols = vec![Column::new("k", DataType::Int64)];
    for i in 1..d.spec.num_attrs {
        cols.push(Column::new(format!("a{i}"), DataType::Int64));
    }
    let to_rows = |v: Vid| -> Vec<Vec<Value>> {
        d.version_records(v)
            .iter()
            .map(|&rid| d.record(rid).iter().map(|&x| Value::Int64(x)).collect())
            .collect()
    };
    let (mut cvd, _) = Cvd::init(
        d.spec.name.clone(),
        Schema::new(cols),
        vec!["k".into()],
        to_rows(Vid(0)),
        "gen",
    )
    .unwrap();
    for v in d.versions().skip(1) {
        let parents: Vec<Vid> = d.graph.parents(v).to_vec();
        cvd.commit(&parents, to_rows(v), "replay", "gen").unwrap();
    }
    cvd
}

#[test]
fn all_models_agree_on_generated_history() {
    for spec in [
        DatasetSpec::sci("SCI_E2E", 60, 8, 12),
        DatasetSpec::cur("CUR_E2E", 60, 8, 12),
    ] {
        let d = generate(&spec);
        let cvd = dataset_to_cvd(&d);
        // Reference record sets per version from the logical CVD.
        let reference: Vec<Vec<i64>> = cvd
            .graph()
            .versions()
            .map(|v| {
                let mut rids: Vec<i64> = cvd
                    .version_records(v)
                    .unwrap()
                    .iter()
                    .map(|r| r.0 as i64)
                    .collect();
                rids.sort_unstable();
                rids
            })
            .collect();
        for kind in ModelKind::all() {
            let mut db = Database::new();
            let mut model = kind.build(cvd.name());
            load_cvd(model.as_mut(), &mut db, &cvd).unwrap();
            for v in cvd.graph().versions() {
                let mut ctx = ExecContext::new();
                let mut got: Vec<i64> = model
                    .checkout(&db, &cvd, v, &mut ctx)
                    .unwrap()
                    .iter()
                    .map(|r| r[0].as_i64().unwrap())
                    .collect();
                got.sort_unstable();
                assert_eq!(
                    got,
                    reference[v.idx()],
                    "{} diverges on {v} of {}",
                    kind.name(),
                    spec.name
                );
            }
        }
    }
}

#[test]
fn partitioned_store_serves_identical_checkouts() {
    let d = generate(&DatasetSpec::sci("SCI_PART", 120, 10, 15));
    let cvd = dataset_to_cvd(&d);
    let res = lyresplit_for_budget(&cvd.tree(), 2 * cvd.num_records() as u64);
    assert!(res.partitioning.num_partitions() >= 1);
    let mut db = Database::new();
    let store = PartitionedStore::build(&mut db, &cvd, res.partitioning).unwrap();
    for v in cvd.graph().versions() {
        let mut ctx = ExecContext::new();
        let mut got: Vec<i64> = store
            .checkout(&db, v, &mut ctx)
            .unwrap()
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        got.sort_unstable();
        let want: Vec<i64> = cvd
            .version_records(v)
            .unwrap()
            .iter()
            .map(|r| r.0 as i64)
            .collect();
        assert_eq!(got, want, "partitioned checkout diverges on {v}");
    }
    // Storage matches the partitioning's model-level evaluation.
    let expected = store
        .partitioning()
        .evaluate(&cvd.bipartite())
        .storage_records;
    assert_eq!(store.storage_records(&db), expected);
}

#[test]
fn deltastore_plans_storage_for_cvd_versions() {
    // Bridge Chapter 4's CVD to Chapter 7's storage planner: treat each
    // version's rid set as version content and plan delta storage.
    let d = generate(&DatasetSpec::sci("SCI_DELTA", 40, 5, 20));
    let cvd = dataset_to_cvd(&d);
    let contents: Vec<deltastore::VersionContent> = cvd
        .graph()
        .versions()
        .map(|v| {
            deltastore::VersionContent::new(
                cvd.version_records(v)
                    .unwrap()
                    .iter()
                    .map(|r| r.0)
                    .collect(),
                64,
            )
        })
        .collect();
    // Reveal version-graph edges plus materialization of everything.
    let mut pairs = Vec::new();
    for v in cvd.graph().versions() {
        for &p in cvd.graph().parents(v) {
            pairs.push((p.idx() + 1, v.idx() + 1));
        }
    }
    let g = deltastore::delta::graph_from_contents(&contents, &pairs);
    assert!(g.is_connected());
    let mst = deltastore::p1_min_storage(&g);
    assert!(mst.is_valid());
    let all_mat: u64 = contents.iter().map(|c| c.materialized_bytes()).sum();
    // Delta storage must crush full materialization on versioned data.
    assert!(mst.storage_cost() < all_mat / 5);
    // A recreation-bounded plan stays feasible and valid.
    let spt = deltastore::p2_min_recreation(&g);
    let plan = deltastore::p5_min_storage_sum(&g, spt.sum_recreation() * 2);
    assert!(plan.is_valid());
    assert!(plan.sum_recreation() <= spt.sum_recreation() * 2);
    assert!(plan.storage_cost() <= mst.storage_cost() * 3);
}

#[test]
fn vquel_queries_cvd_metadata() {
    // Export a CVD's version graph + metadata into the VQuel conceptual
    // model and query it.
    let d = generate(&DatasetSpec::sci("SCI_VQ", 25, 4, 8));
    let cvd = dataset_to_cvd(&d);
    let mut repo = vquel::Repository::new();
    let author = repo.add_author("gen", "gen@lab");
    let mut vids = Vec::new();
    for meta in cvd.metas() {
        let parents: Vec<usize> = meta.parents.iter().map(|p| p.idx()).collect();
        let v = repo.add_version(
            &format!("v{:02}", meta.vid.0),
            &meta.message,
            meta.commit_t as i64,
            author,
            &parents,
        );
        let rel = repo.add_relation(v, "Data", &["rid"], true);
        for &rid in cvd.version_records(meta.vid).unwrap().iter().take(20) {
            repo.add_record(rel, vec![Value::Int64(rid.0 as i64)], &[]);
        }
        vids.push(v);
    }
    // Every version is found; the root has no ancestors; some version has
    // at least 2 descendants.
    let rs = vquel::execute(
        &repo,
        "range of V is Version retrieve V.commit_id sort by V.creation_ts",
    )
    .unwrap();
    assert_eq!(rs.rows.len(), cvd.num_versions());
    let rs = vquel::execute(
        &repo,
        r#"
        range of V is Version(commit_id = "v00")
        range of D is V.D()
        retrieve unique V.commit_id, count(D)
        "#,
    )
    .unwrap();
    let descendants = rs.rows[0][1].as_i64().unwrap();
    assert_eq!(descendants as usize, cvd.num_versions() - 1);
}

#[test]
fn provenance_recovers_generated_lineage_direction() {
    // Export a few CVD versions as untracked artifacts; inference should
    // link children to ancestors (timestamp-oriented).
    let d = generate(&DatasetSpec::sci("SCI_PROV", 12, 2, 30));
    let cvd = dataset_to_cvd(&d);
    let mut repo = provenance::UntrackedRepository::new();
    for meta in cvd.metas() {
        let rows: Vec<Vec<i64>> = cvd
            .version_records(meta.vid)
            .unwrap()
            .iter()
            .map(|&rid| {
                let r = cvd.record(rid).unwrap();
                vec![r[0].as_i64().unwrap(), r[1].as_i64().unwrap()]
            })
            .collect();
        repo.add(provenance::Artifact::new(
            format!("v{}.csv", meta.vid.0),
            vec!["k".into(), "a1".into()],
            rows,
            meta.commit_t as i64,
        ));
    }
    let lineage = provenance::infer_lineage(&repo, provenance::InferConfig::default());
    // Every non-root version gets a parent, and the parent is one of its
    // true ancestors in the version graph (siblings can be more similar
    // than the direct parent, which the paper accepts).
    for v in cvd.graph().versions().skip(1) {
        let e = lineage
            .parent_of(v.idx())
            .unwrap_or_else(|| panic!("no parent inferred for {v}"));
        assert!(e.from < v.idx(), "edge must respect timestamps");
    }
}

#[test]
fn online_maintenance_tracks_streamed_dataset() {
    let d = generate(&DatasetSpec::sci("SCI_ONLINE", 150, 15, 10));
    let mut m = orpheusdb::partition::OnlineMaintainer::new(orpheusdb::partition::OnlineConfig {
        gamma_factor: 2.0,
        mu: 1.5,
        delta_star: 0.05,
        check_every: 10,
    });
    for v in d.versions() {
        let parents: Vec<Vid> = d.graph.parents(v).to_vec();
        m.commit(d.version_records(v).to_vec(), &parents);
    }
    assert_eq!(m.num_versions(), 150);
    // Storage respects the budget and Cavg stays within µ of best.
    assert!(m.storage_records() <= 2 * d.num_records() + d.version_records(Vid(149)).len() as u64);
    assert!(m.checkout_avg() <= 1.5 * m.best_checkout_avg() + 1.0);
}
