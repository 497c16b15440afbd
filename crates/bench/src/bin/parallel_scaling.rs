//! Morsel-driven parallel execution: checkout and version-query speedup.
//!
//! Runs the split-by-rlist checkout and a filtered version scan over the
//! SCI_100K dataset at 1/2/4/8 morsel workers and reports wall-clock
//! speedup over the sequential plans. Worker threads only do CPU work
//! (tuple decode, hash probes, predicate/projection evaluation); all page
//! I/O stays on the coordinator, which hands the workers **zero-copy page
//! leases** — the coordinator no longer materialises an owned snapshot of
//! every page before dispatch.
//!
//! Alongside raw wall clock (which only scales when the machine has the
//! cores — the CI container may have one), the binary *measures* the
//! serial fraction by timing the coordinator's page-lease pass alone, and
//! reports the projected speedup `T₁ / (T_io + (T₁ − T_io)/N)` that the
//! measured split supports — projected against **effective cores**
//! `min(threads, cores)`: more threads than cores cannot beat the cores,
//! and pretending otherwise made the old report claim 2.9× "projected" on
//! a 1-core box.
//!
//! Output rows must be identical at every worker count — the binary
//! asserts it, the same guarantee `orpheus-core`'s determinism tests pin
//! down at row level.
//!
//! Besides the human-readable table (`parallel_scaling.txt`), the binary
//! writes `parallel_scaling.json` with the deterministic zero-copy
//! counters (`bytes_copied_to_workers`, `morsel_allocs`) and the
//! wall-clock leg's outcome — *ran* with its measured speedup, or
//! *skipped* with the recorded reason — for `perf_gate` to assert.

use benchgen::{generate, DatasetSpec};
use obs::Json;
use orpheus_core::models::{load_cvd, SplitByRlist};
use orpheus_core::plan::{LogicalPlan, Tables};
use orpheus_core::query::VQuery;
use partition::Vid;
use relstore::{BinOp, Database, ExecContext, Row, Value, WorkerPool};
use std::fmt::Write as _;
use std::time::Duration;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Wall-clock acceptance: checkout at this thread count must beat the
/// sequential run by this factor — asserted by the perf gate only when
/// the host has at least this many cores.
const WALL_LEG_THREADS: usize = 4;
const WALL_LEG_MIN_SPEEDUP: f64 = 2.0;

/// Repetitions per timing (best-of). `ORPHEUS_SCALING_REPS` overrides,
/// e.g. CI runs with 1 to keep the gate fast.
fn reps() -> usize {
    std::env::var("ORPHEUS_SCALING_REPS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3)
}

/// Best-of-N wall time for a closure that returns the produced rows.
fn best_of<F: FnMut() -> Vec<Row>>(mut f: F) -> (Vec<Row>, Duration) {
    let mut best: Option<(Vec<Row>, Duration)> = None;
    for _ in 0..reps() {
        let (rows, t) = bench::time(&mut f);
        if best.as_ref().map(|(_, b)| t < *b).unwrap_or(true) {
            best = Some((rows, t));
        }
    }
    best.unwrap()
}

fn main() {
    bench::banner(
        "parallel_scaling: morsel-driven checkout and version queries",
        "engine extension — work-stealing morsel parallelism over SCI_100K",
    );

    let d = generate(&DatasetSpec::sci("SCI_100K", 2000, 200, 50));
    let cvd = bench::dataset_to_cvd(&d);
    let mut db = Database::new();
    let mut model = SplitByRlist::new(cvd.name());
    load_cvd(&mut model, &mut db, &cvd).expect("load model");
    // Checkpoint the freshly loaded pages: leases are only granted on
    // clean frames, and the measured legs must run the zero-copy path.
    db.pool().flush_all().expect("flush");

    // Largest version = the heaviest checkout; the scan query filters the
    // same versions the checkout materializes.
    let target = cvd
        .graph()
        .versions()
        .max_by_key(|&v| cvd.version_records(v).map(|r| r.len()).unwrap_or(0))
        .unwrap_or(Vid(0));
    let data = db.table(&model.data_name()).expect("data table");
    let data_rows = data.live_row_count();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "dataset: |R|={} records in the data table, checkout target {} ({} records), {} core(s)\n",
        data_rows,
        target,
        cvd.version_records(target).map(|r| r.len()).unwrap_or(0),
        cores,
    );

    // The serial fraction: time the coordinator's page-lease pass on its
    // own (everything else runs on the workers).
    let (_, t_io) = best_of(|| {
        let mut tracker = relstore::CostTracker::new();
        let mut rows = 0usize;
        for ord in 0..data.num_heap_pages() {
            let view = data.lease_page(ord, &mut tracker).expect("lease");
            rows += view.tuples().map(|t| t.len()).unwrap_or(0);
        }
        vec![vec![Value::Int64(rows as i64)]]
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "parallel_scaling — SCI_100K (|R|={data_rows}), best of {} runs, {cores} core(s)",
        reps()
    );
    let _ = writeln!(
        out,
        "coordinator page-lease pass (serial fraction): {} ms",
        bench::ms(t_io)
    );
    let cols = [
        "threads",
        "checkout ms",
        "wall",
        "projected",
        "query ms",
        "wall",
        "projected",
    ];
    let _ = writeln!(
        out,
        "{:>8} {:>14} {:>8} {:>10} {:>14} {:>8} {:>10}",
        cols[0], cols[1], cols[2], cols[3], cols[4], cols[5], cols[6]
    );
    bench::header(&cols);

    // Amdahl projection from the measured serial fraction: the lease pass
    // stays on the coordinator, the rest of the sequential time is
    // worker-parallel CPU — bounded by the cores the host actually has.
    let project = |t1: Duration, threads: usize| -> f64 {
        let n = threads.min(cores).max(1);
        let t1 = t1.as_secs_f64();
        let io = t_io.as_secs_f64().min(t1);
        t1 / (io + (t1 - io) / n as f64)
    };

    let io_before = db.io_stats();
    let mut base_checkout: Option<(Vec<Row>, Duration)> = None;
    let mut base_query: Option<(Vec<Row>, Duration)> = None;
    let mut wall4 = (0.0f64, 0.0f64);
    let mut proj4 = (0.0f64, 0.0f64);
    // Each parallel ParHashJoin run allocates one scratch row per worker;
    // the gate checks the measured morsel allocs against this budget.
    let mut alloc_budget = 0u64;
    for threads in THREAD_COUNTS {
        let pool = (threads > 1).then(|| WorkerPool::new(threads));
        if threads > cores {
            let msg = format!(
                "warning: {threads} threads > {cores} core(s) — wall clock cannot scale past \
                 the cores; projections use min(threads, cores)"
            );
            println!("{msg}");
            let _ = writeln!(out, "{msg}");
        }

        let (co_rows, co_t) = best_of(|| {
            let mut ctx = ExecContext::new();
            model
                .checkout_with_pool(&db, target, pool.as_ref(), &mut ctx)
                .expect("checkout")
        });

        // `a1 > 0` scans and filters every record of the target version.
        let plan = LogicalPlan::of(&VQuery::SelectVersions {
            cvd: cvd.name().to_owned(),
            versions: vec![target],
            predicate: Some(("a1".into(), BinOp::Gt, Value::Int64(0))),
            limit: None,
        });
        let (q_rows, q_t) = best_of(|| {
            let mut ctx = ExecContext::new();
            let tables = Tables {
                db: &db,
                cvd: &cvd,
                model: &model,
                pool: pool.clone(),
            };
            tables.run(&plan, &mut ctx).expect("select versions").rows
        });
        if threads > 1 {
            // checkout + query legs, `reps()` runs each, one ParHashJoin
            // scratch row per worker per run.
            alloc_budget += (threads * reps() * 2) as u64;
        }

        match (&base_checkout, &base_query) {
            (Some((rows, _)), Some((qrows, _))) => {
                assert_eq!(
                    &co_rows, rows,
                    "checkout rows diverged at {threads} threads"
                );
                assert_eq!(&q_rows, qrows, "query rows diverged at {threads} threads");
            }
            _ => {
                base_checkout = Some((co_rows, co_t));
                base_query = Some((q_rows, q_t));
            }
        }

        let co_wall =
            base_checkout.as_ref().unwrap().1.as_secs_f64() / co_t.as_secs_f64().max(1e-9);
        let q_wall = base_query.as_ref().unwrap().1.as_secs_f64() / q_t.as_secs_f64().max(1e-9);
        let co_proj = project(base_checkout.as_ref().unwrap().1, threads);
        let q_proj = project(base_query.as_ref().unwrap().1, threads);
        if threads == WALL_LEG_THREADS {
            wall4 = (co_wall, q_wall);
            proj4 = (co_proj, q_proj);
        }
        let cells = [
            threads.to_string(),
            bench::ms(co_t),
            format!("{co_wall:.2}x"),
            format!("{co_proj:.2}x"),
            bench::ms(q_t),
            format!("{q_wall:.2}x"),
            format!("{q_proj:.2}x"),
        ];
        bench::row(&cells);
        let _ = writeln!(
            out,
            "{:>8} {:>14} {:>8} {:>10} {:>14} {:>8} {:>10}",
            cells[0], cells[1], cells[2], cells[3], cells[4], cells[5], cells[6]
        );
    }
    let io = db.io_stats().since(&io_before);

    println!(
        "\n4-thread speedup: checkout wall {:.2}x / projected {:.2}x, \
         filtered scan wall {:.2}x / projected {:.2}x",
        wall4.0, proj4.0, wall4.1, proj4.1
    );
    println!(
        "coordinator → worker copies: {} B, {} morsel allocs (budget {})",
        io.bytes_copied_to_workers, io.morsel_allocs, alloc_budget
    );
    let _ = writeln!(
        out,
        "\ncoordinator → worker copies: {} B, {} morsel allocs (budget {})",
        io.bytes_copied_to_workers, io.morsel_allocs, alloc_budget
    );

    // The wall-clock acceptance leg only means something with real cores;
    // on smaller machines it is RECORDED as skipped (never silently
    // dropped) and the deterministic counters above carry the gate.
    let wall_ran = cores >= WALL_LEG_THREADS;
    let skip_reason = if wall_ran {
        String::new()
    } else {
        format!(
            "host has {cores} core(s) < {WALL_LEG_THREADS} — wall-clock speedup needs real \
             parallelism; gated on zero-copy counters instead"
        )
    };
    if !wall_ran {
        println!("wall-clock leg skipped: {skip_reason}");
        let _ = writeln!(out, "wall-clock leg skipped: {skip_reason}");
    }

    let json = Json::object(vec![
        ("dataset", Json::Str("SCI_100K".into())),
        ("cores", Json::Num(cores as f64)),
        ("reps", Json::Num(reps() as f64)),
        (
            "zero_copy",
            Json::object(vec![
                (
                    "bytes_copied_to_workers",
                    Json::Num(io.bytes_copied_to_workers as f64),
                ),
                ("morsel_allocs", Json::Num(io.morsel_allocs as f64)),
                ("morsel_allocs_budget", Json::Num(alloc_budget as f64)),
            ]),
        ),
        (
            "wall_clock_leg",
            Json::object(vec![
                ("ran", Json::Bool(wall_ran)),
                ("skip_reason", Json::Str(skip_reason)),
                ("threads", Json::Num(WALL_LEG_THREADS as f64)),
                ("min_speedup", Json::Num(WALL_LEG_MIN_SPEEDUP)),
                ("checkout_speedup", Json::Num(wall4.0)),
                ("query_speedup", Json::Num(wall4.1)),
            ]),
        ),
        (
            "projected",
            Json::object(vec![
                ("checkout_at_4", Json::Num(proj4.0)),
                ("query_at_4", Json::Num(proj4.1)),
            ]),
        ),
    ]);
    let dir = bench::results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: could not create results dir: {e}");
    }
    let json_path = dir.join("parallel_scaling.json");
    match std::fs::write(&json_path, json.to_string_pretty()) {
        Ok(()) => println!("results: {}", json_path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", json_path.display()),
    }
    match bench::write_text_result("parallel_scaling", &out) {
        Ok(path) => println!("results: {}", path.display()),
        Err(e) => eprintln!("warning: could not write results: {e}"),
    }
}
