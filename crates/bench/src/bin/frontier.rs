//! frontier — storage bytes vs recreation cost across materialization
//! budgets.
//!
//! Loads SCI/CUR datasets once in the split-by-rlist layout and measures
//! the physical bytes their tuples take on pages, the wall cost of
//! recreating (checking out) sampled versions, and the
//! storage/recreation frontier swept by the budget factor (`plan_storage -b`) through `deltastore::plan_with_budget`.
//! A branch-and-bound oracle leg validates the budget planner on
//! exhaustively solvable instances.
//!
//! Two tiers: the default smoke tier (small, seconds — the CI gate) and
//! `--tier full` (SCI/CUR at 1M+ records, thousands of
//! versions — run locally; numbers live in EXPERIMENTS.md). The tier
//! that did NOT run is recorded in the results document with a skip
//! reason — never silently dropped. Output JSON is self-checked against
//! the pinned schema below and gated by `perf_gate` via
//! `bench::gate::check_frontier`.

use benchgen::{generate, DatasetSpec, VersionedDataset};
use deltastore::exact::{solve_exact, ExactProblem};
use deltastore::{plan_with_budget, GenConfig, GraphShape, StorageGraph};
use obs::Json;
use relstore::{Column, DataType, Database, Schema, Value};
use std::process::ExitCode;

/// Budget factors swept for the frontier (β = factor × C_min).
const FACTORS: [f64; 6] = [1.0, 1.25, 1.5, 2.0, 3.0, 5.0];

/// Required keys of the results document — the pinned schema the CI
/// gate (and this binary itself) checks with `obs::missing_keys`.
const SCHEMA: [&str; 8] = [
    "tier",
    "datasets",
    "budget_oracle/ran",
    "budget_oracle/skip_reason",
    "budget_oracle/worst_ratio",
    "budget_oracle/max_ratio",
    "full_tier/ran",
    "full_tier/skip_reason",
];

/// Load a dataset into a fresh catalog in the split-by-rlist layout:
/// `{name}__sbr_data` holds every record, `{name}__sbr_vtab` maps each
/// version to its sorted rlist.
fn load(d: &VersionedDataset) -> Database {
    let mut db = Database::with_pool_capacity(4096);
    let mut cols = vec![Column::new("k", DataType::Int64)];
    for i in 1..d.spec.num_attrs {
        cols.push(Column::new(format!("a{i}"), DataType::Int64));
    }
    let data_name = format!("{}__sbr_data", d.spec.name);
    let vtab_name = format!("{}__sbr_vtab", d.spec.name);
    db.create_table(&data_name, Schema::new(cols)).unwrap();
    let data = db.table_mut(&data_name).unwrap();
    for rid in 0..d.num_records() {
        let row = d
            .record(partition::Rid(rid))
            .iter()
            .map(|&x| Value::Int64(x))
            .collect();
        data.insert(row).unwrap();
    }
    db.create_table(
        &vtab_name,
        Schema::new(vec![
            Column::new("v", DataType::Int64),
            Column::new("rlist", DataType::IntArray),
        ]),
    )
    .unwrap();
    let vtab = db.table_mut(&vtab_name).unwrap();
    for v in d.versions() {
        let rlist: Vec<i64> = d.version_records(v).iter().map(|r| r.0 as i64).collect();
        vtab.insert(vec![Value::Int64(v.0 as i64), Value::IntArray(rlist)])
            .unwrap();
    }
    db
}

/// Recreate (check out) the sampled versions through the vtab: read the
/// version's rlist, then fetch every record — the decode-heavy path.
/// Returns (ms per checkout, tuples decoded).
fn checkout_sample(db: &Database, name: &str, samples: &[partition::Vid]) -> (f64, u64) {
    let data = db.table(&format!("{name}__sbr_data")).unwrap();
    let vtab = db.table(&format!("{name}__sbr_vtab")).unwrap();
    let before = db.io_stats();
    let (rows, t) = bench::time(|| {
        let mut rows = 0u64;
        for &v in samples {
            let vrow = vtab.get(v.0 as u64).expect("version row");
            let Value::IntArray(rlist) = &vrow[1] else {
                panic!("vtab rlist must be an IntArray");
            };
            for &rid in rlist {
                let r = data.get(rid as u64).expect("record");
                rows += r.len() as u64;
            }
        }
        rows
    });
    assert!(rows > 0, "checkout produced no attribute values");
    let decoded = db.io_stats().since(&before).tuples_decoded;
    (t.as_secs_f64() * 1e3 / samples.len() as f64, decoded)
}

/// The deltastore graph of a generated dataset: node `i+1` per version
/// `Vid(i)`, materialization cost = version size, parent→child delta =
/// symmetric-difference size (both in records, as `plan_storage` does).
fn storage_graph(d: &VersionedDataset) -> StorageGraph {
    let mut g = StorageGraph::new(d.num_versions(), false);
    for v in d.versions() {
        let node = v.idx() + 1;
        let size = d.version_records(v).len() as u64;
        g.add_materialization(node, size, size);
        for &p in d.graph.parents(v) {
            let common = d.graph.weight(p, v);
            let psize = d.version_records(p).len() as u64;
            let delta = (psize + size - 2 * common).max(1);
            g.add_delta(p.idx() + 1, node, delta, delta);
        }
    }
    g
}

/// One dataset's section of the results document.
fn run_dataset(spec: &DatasetSpec, full: bool) -> Json {
    let d = generate(spec);
    let stats = d.stats();
    println!("--- {} ---", stats);

    let n_samples = if full { 24 } else { 12 };
    let samples = bench::sample_versions(d.num_versions(), n_samples);
    let prefix = format!("{}__sbr", spec.name);

    let db = load(&d);
    let bytes = db.encoded_bytes_with_prefix(&prefix).unwrap();
    let (ms, decoded) = checkout_sample(&db, &spec.name, &samples);
    println!(
        "storage: {bytes} B; checkout {ms:.2} ms over {} versions",
        samples.len()
    );

    // The storage/recreation frontier: sweep the budget factor.
    let g = storage_graph(&d);
    let frontier: Vec<Json> = FACTORS
        .iter()
        .map(|&factor| {
            let plan = plan_with_budget(&g, factor);
            println!(
                "  β = {:>12} ({factor}× min {}): storage {:>12}, ΣR {:>14}, maxR {:>12}, {} materialized",
                plan.beta,
                plan.min_storage,
                plan.solution.storage_cost(),
                plan.solution.sum_recreation(),
                plan.solution.max_recreation(),
                plan.materialized().len()
            );
            Json::object(vec![
                ("factor", Json::Num(factor)),
                ("beta", Json::Num(plan.beta as f64)),
                ("min_storage", Json::Num(plan.min_storage as f64)),
                ("storage_records", Json::Num(plan.solution.storage_cost() as f64)),
                ("sum_recreation", Json::Num(plan.solution.sum_recreation() as f64)),
                ("max_recreation", Json::Num(plan.solution.max_recreation() as f64)),
                ("materialized", Json::Num(plan.materialized().len() as f64)),
            ])
        })
        .collect();

    Json::object(vec![
        ("name", Json::Str(spec.name.clone())),
        ("versions", Json::Num(stats.versions as f64)),
        ("records", Json::Num(stats.records as f64)),
        (
            "storage",
            Json::object(vec![("bytes", Json::Num(bytes as f64))]),
        ),
        (
            "recreation",
            Json::object(vec![
                ("sampled_versions", Json::Num(samples.len() as f64)),
                ("ms_per_checkout", Json::Num(ms)),
                ("decoded_tuples", Json::Num(decoded as f64)),
            ]),
        ),
        ("frontier", Json::Arr(frontier)),
    ])
}

/// The oracle leg: the LMG budget plan vs branch-and-bound on small
/// exhaustively solvable instances. Cheap, so it always runs; the skip
/// contract exists for symmetry with the other recorded legs.
fn budget_oracle() -> Json {
    let mut worst: f64 = 1.0;
    let mut cases = 0u32;
    for seed in [11u64, 12, 13, 14] {
        let g = GenConfig {
            versions: 9,
            shape: GraphShape::Random,
            base_items: 200,
            adds_per_step: 30,
            removes_per_step: 10,
            extra_edges: 10,
            seed,
            ..GenConfig::default()
        }
        .build();
        for factor in [1.0, 1.5, 2.0] {
            let plan = plan_with_budget(&g, factor);
            let exact = solve_exact(
                &g,
                ExactProblem::MinSumRecreationStorage { beta: plan.beta },
            )
            .expect("β ≥ C_min is always feasible");
            worst =
                worst.max(plan.solution.sum_recreation() as f64 / exact.sum_recreation() as f64);
            cases += 1;
        }
    }
    println!("budget oracle: {cases} case(s), worst LMG/exact ratio {worst:.3}");
    Json::object(vec![
        ("ran", Json::Bool(true)),
        ("skip_reason", Json::Str(String::new())),
        ("cases", Json::Num(cases as f64)),
        ("worst_ratio", Json::Num(worst)),
        ("max_ratio", Json::Num(1.5)),
    ])
}

fn main() -> ExitCode {
    let full = bench::Args::from_env().full_tier;
    bench::banner(
        "frontier: storage bytes vs recreation cost",
        "materialization budget (Problems 7.1/7.3)",
    );
    let specs = if full {
        DatasetSpec::scale_presets()
    } else {
        vec![
            DatasetSpec::sci("SCI_SMOKE", 60, 8, 40),
            DatasetSpec::cur("CUR_SMOKE", 60, 8, 40),
        ]
    };
    let datasets: Vec<Json> = specs.iter().map(|s| run_dataset(s, full)).collect();

    let full_tier = if full {
        Json::object(vec![
            ("ran", Json::Bool(true)),
            ("skip_reason", Json::Str(String::new())),
        ])
    } else {
        Json::object(vec![
            ("ran", Json::Bool(false)),
            (
                "skip_reason",
                Json::Str(
                    "run without --tier full — the 1M-record tier runs locally; \
                     its numbers are recorded in EXPERIMENTS.md"
                        .into(),
                ),
            ),
        ])
    };
    let doc = Json::object(vec![
        (
            "tier",
            Json::Str(if full { "full" } else { "smoke" }.into()),
        ),
        ("datasets", Json::Arr(datasets)),
        ("budget_oracle", budget_oracle()),
        ("full_tier", full_tier),
    ]);

    // Self-check against the pinned schema before anything consumes it.
    let rendered = doc.to_string_pretty();
    let missing = obs::missing_keys(&rendered, &SCHEMA).expect("own output must parse");
    if !missing.is_empty() {
        eprintln!("frontier: output violates its schema, missing: {missing:?}");
        return ExitCode::FAILURE;
    }

    let report = bench::gate::check_frontier(&doc);
    if !report.passed() {
        for msg in &report.regressions {
            eprintln!("  FAIL {msg}");
        }
        eprintln!("frontier: {} assertion(s) failed", report.regressions.len());
        return ExitCode::FAILURE;
    }
    println!(
        "frontier: {} assertion(s) passed on the {} tier",
        report.checked,
        if full { "full" } else { "smoke" }
    );

    let dir = bench::results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: could not create results dir: {e}");
    }
    let name = if full {
        "frontier_full.json"
    } else {
        "frontier_smoke.json"
    };
    let path = dir.join(name);
    match std::fs::write(&path, rendered) {
        Ok(()) => println!("results: {}", path.display()),
        Err(e) => {
            eprintln!("frontier: could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
