//! CI observability smoke test.
//!
//! Drives a scripted commit/checkout workload against a durable OrpheusDb
//! seeded from a benchgen dataset, then checks the two machine-readable
//! observability surfaces end to end:
//!
//! * `explain analyze [--json]` on a hash-join-over-versions query must
//!   produce a plan tree with estimated and actual row counts, and its
//!   JSON form must carry the documented schema;
//! * `metrics --json` must parse and contain the WAL fsync, write-back
//!   and page-file sync counters (and no durability point may have grown
//!   the pre-written log file), the buffer-pool hit ratio, free-page
//!   and directory-table gauges, commit/checkout/query latency histogram
//!   percentiles, and the `obs.journal.*` counters;
//! * `trace dump --json` must export Chrome-trace-event JSONL where
//!   every line carries the documented keys, with the request, commit,
//!   and WAL-fsync spans present under non-zero trace ids (a summary is
//!   written to `results/trace_smoke.json`);
//! * disabling the journal (`sample 0`) must record zero further
//!   journal allocations.
//!
//! Any violation panics, so a broken pipeline fails `scripts/ci.sh`.

use benchgen::{generate, DatasetSpec};
use orpheus_core::{CommandOutput, OrpheusDb};
use partition::Vid;
use relstore::{Column, DataType, Schema, Value};

/// Unwrap a command's textual output.
fn text(out: CommandOutput) -> String {
    match out {
        CommandOutput::Message(s) => s,
        other => panic!("expected a text payload, got {other:?}"),
    }
}

/// Assert that a JSON document parses and contains every required path
/// (paths use `/` separators because metric names contain dots).
fn check_schema(what: &str, src: &str, required: &[&str]) {
    match obs::missing_keys(src, required) {
        Ok(missing) if missing.is_empty() => {}
        Ok(missing) => panic!("{what}: missing required keys {missing:?} in:\n{src}"),
        Err(e) => panic!("{what}: output is not valid JSON ({e}):\n{src}"),
    }
}

fn num(doc: &obs::Json, path: &str) -> f64 {
    doc.get_path(path)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("expected a number at {path}"))
}

fn main() {
    bench::banner(
        "observability smoke: explain analyze + metrics --json",
        "CI gate — span/metrics/explain pipeline on a benchgen workload",
    );
    let dir = std::env::temp_dir().join(format!("orpheus-obs-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut db, _) = OrpheusDb::open_durable(&dir, 256).expect("open durable store");
    db.create_user("ci").unwrap();
    db.login("ci").unwrap();

    // Seed a CVD from a generated dataset's root version.
    let d = generate(&DatasetSpec::sci("SMOKE", 20, 4, 4));
    let schema = Schema::new(
        std::iter::once(Column::new("k", DataType::Int64))
            .chain((1..d.spec.num_attrs).map(|i| Column::new(format!("a{i}"), DataType::Int64)))
            .collect(),
    );
    let rows: Vec<Vec<Value>> = d
        .version_records(Vid(0))
        .iter()
        .map(|&rid| d.record(rid).iter().map(|&x| Value::Int64(x)).collect())
        .collect();
    let width = d.spec.num_attrs;
    db.init_cvd("SMOKE", schema, vec!["k".into()], rows)
        .expect("init cvd");

    // Scripted workload: checkout the latest version, add a row, commit.
    // Driven through the command surface so each step is a traced
    // request and lands in the event journal.
    for round in 0..3i64 {
        let table = format!("work{round}");
        let latest = db.cvd("SMOKE").unwrap().latest_version();
        db.execute(&format!("checkout SMOKE -v {} -t {table}", latest.0))
            .expect("checkout");
        let row: Vec<String> = (0..width)
            .map(|c| (10_000 + round * 100 + c as i64).to_string())
            .collect();
        db.execute(&format!("insert {table} {}", row.join(",")))
            .expect("insert");
        db.execute(&format!("commit -t {table} -m smoke round"))
            .expect("commit");
    }

    // A couple of reads so the query path shows up in the histograms.
    let count = match db
        .execute("run SELECT * FROM VERSION 0 OF CVD SMOKE JOIN VERSION 1 ON k")
        .expect("join query")
    {
        CommandOutput::Table(res) => res.rows.len(),
        other => panic!("expected a result table, got {other:?}"),
    };

    // explain analyze: text form shows the plan tree with estimates,
    // actuals, and the pool reconciliation footer.
    let plan = text(
        db.execute("explain analyze SELECT * FROM VERSION 0 OF CVD SMOKE JOIN VERSION 1 ON k")
            .expect("explain analyze"),
    );
    for needle in [
        "HashJoin",
        "RidFetch",
        "est rows=",
        "act rows=",
        "time=",
        "pool delta:",
    ] {
        assert!(
            plan.contains(needle),
            "explain analyze output lacks {needle:?}:\n{plan}"
        );
    }
    println!("{plan}\n");

    // JSON form must match the documented schema and agree with `run`.
    let plan_json = text(
        db.execute(
            "explain analyze --json SELECT * FROM VERSION 0 OF CVD SMOKE JOIN VERSION 1 ON k",
        )
        .expect("explain analyze --json"),
    );
    check_schema(
        "explain analyze --json",
        &plan_json,
        &[
            "plan/label",
            "plan/est_rows",
            "plan/act_rows",
            "plan/time_us",
            "plan/children",
            "pool_delta/logical_reads",
            "pool_delta/physical_reads",
            "wall_us",
        ],
    );
    let doc = obs::parse(&plan_json).unwrap();
    assert_eq!(
        num(&doc, "plan/act_rows") as usize,
        count,
        "explain analyze actual rows disagree with run()"
    );

    // metrics --json after the workload: WAL fsyncs, hit ratio, and the
    // three command latency histograms must all be present.
    let metrics = text(db.execute("metrics --json").expect("metrics --json"));
    check_schema(
        "metrics --json",
        &metrics,
        &[
            "counters/pagestore.wal.fsyncs",
            "counters/pagestore.wal.file_grows",
            "counters/pagestore.wal.drains",
            "counters/pagestore.pager.syncs",
            "counters/pagestore.pool.logical_reads",
            "counters/relstore.tracker.tuples",
            "counters/orpheus.checkout.rows_copied",
            "gauges/pagestore.pool.hit_ratio",
            "gauges/pagestore.pool.free_pages",
            "gauges/pagestore.pool.images",
            "gauges/orpheus.cvd.record_bytes",
            "gauges/pagestore.pool.unlogged_pages",
            "gauges/relstore.directory.tables",
            "histograms/orpheus.commit.latency_us/p50",
            "histograms/orpheus.commit.latency_us/p99",
            "histograms/orpheus.checkout.latency_us/p50",
            "histograms/orpheus.query.latency_us/p50",
            "counters/obs.journal.recorded",
            "counters/obs.journal.dropped",
            "counters/obs.journal.allocs",
            "gauges/obs.journal.events",
        ],
    );
    let doc = obs::parse(&metrics).unwrap();
    assert!(
        num(&doc, "counters/pagestore.wal.fsyncs") > 0.0,
        "durable workload recorded no WAL fsyncs"
    );
    // The open pre-wrote the log: no durability point grew the file.
    assert_eq!(
        num(&doc, "counters/pagestore.wal.file_grows"),
        0.0,
        "a durability point grew wal.log"
    );
    assert!(
        num(&doc, "histograms/orpheus.commit.latency_us/p50")
            <= num(&doc, "histograms/orpheus.commit.latency_us/p99"),
        "commit latency percentiles out of order"
    );

    // Span tree covers the whole command surface.
    let spans = text(db.execute("spans").expect("spans"));
    for needle in ["orpheus.commit", "orpheus.checkout", "orpheus.query"] {
        assert!(spans.contains(needle), "span tree lacks {needle}:\n{spans}");
    }

    // trace dump --json: every JSONL line must carry the Chrome trace
    // schema, and the workload's request/commit/WAL-fsync spans must be
    // present under non-zero trace ids.
    let dump = text(db.execute("trace dump --json").expect("trace dump --json"));
    let mut names = std::collections::BTreeSet::new();
    let mut traces = std::collections::BTreeSet::new();
    let mut lines = 0usize;
    for line in dump.lines().filter(|l| !l.trim().is_empty()) {
        check_schema(
            "trace dump --json line",
            line,
            &[
                "name",
                "cat",
                "ph",
                "ts",
                "pid",
                "tid",
                "args/trace",
                "args/span",
            ],
        );
        let ev = obs::parse(line).expect("trace event");
        let name = ev.get_path("name").and_then(|v| v.as_str()).expect("name");
        let trace = ev
            .get_path("args/trace")
            .and_then(|v| v.as_str())
            .expect("args.trace");
        assert_ne!(trace, "0x0", "journaled event with an untraced id: {line}");
        names.insert(name.to_owned());
        traces.insert(trace.to_owned());
        lines += 1;
    }
    for needle in ["orpheus.request", "orpheus.commit", "pagestore.wal.fsync"] {
        assert!(
            names.contains(needle),
            "trace dump lacks {needle:?} events; saw {names:?}"
        );
    }
    let journal = db.recorder().journal();
    assert_eq!(
        journal.dropped(),
        0,
        "smoke workload overflowed the journal"
    );
    let trace_summary = obs::Json::object(vec![
        ("events", obs::Json::Num(lines as f64)),
        ("traces", obs::Json::Num(traces.len() as f64)),
        ("recorded", obs::Json::Num(journal.recorded() as f64)),
        ("dropped", obs::Json::Num(journal.dropped() as f64)),
        (
            "span_names",
            obs::Json::Arr(names.iter().cloned().map(obs::Json::Str).collect()),
        ),
    ]);
    let trace_path = bench::results_dir().join("trace_smoke.json");
    match std::fs::create_dir_all(bench::results_dir())
        .and_then(|()| std::fs::write(&trace_path, trace_summary.to_string_pretty()))
    {
        Ok(()) => println!("trace summary: {}", trace_path.display()),
        Err(e) => eprintln!("warning: could not write trace summary: {e}"),
    }
    println!("trace dump: {lines} events across {} traces", traces.len());

    // Disabled journal = zero further allocations, even under load.
    journal.set_sample(0);
    let allocs_before = journal.allocs();
    db.execute("run SELECT * FROM VERSION 0 OF CVD SMOKE JOIN VERSION 1 ON k")
        .expect("query with journal disabled");
    assert_eq!(
        db.recorder().journal().allocs(),
        allocs_before,
        "a disabled journal must not allocate"
    );

    match bench::write_metrics_snapshot("smoke", db.metrics()) {
        Ok(path) => println!("metrics snapshot: {}", path.display()),
        Err(e) => eprintln!("warning: could not write metrics snapshot: {e}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!("joined rows: {count}");
    println!("observability smoke: all checks passed");
}
