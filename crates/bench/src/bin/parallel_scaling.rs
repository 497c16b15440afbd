//! Morsel-driven parallel execution: sparse and dense rid-fetch speedup.
//!
//! Runs the split-by-rlist checkout of one version (a sparse fetch) and a
//! fetch of every record (a dense one) over the SCI_100K dataset at
//! 1/2/4/8 morsel workers and reports wall-clock speedup over one thread.
//! Both are a `RidFetch` of rids, which are the data table's row ids: at
//! one thread the coordinator reads the touched pages in place; with more, it
//! hands the workers **zero-copy page leases** of those pages and the
//! workers decode the wanted tuples.
//!
//! Alongside raw wall clock (which only scales when the machine has the
//! cores — the CI container may have one), the binary *measures* the
//! serial fraction — a one-thread dense fetch minus the time it spent
//! decoding (`IoStats::decode_nanos`), i.e. the page reads that stay on
//! the coordinator — and reports the projected speedup
//! `T₁ / (T_io + (T₁ − T_io)/N)` that the measured split supports —
//! projected against **effective cores**
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
use models::{load_cvd, SplitByRlist};
use obs::Json;
use orpheus_core::metadata::data_name;
use partition::Vid;
use relstore::{Database, ExecContext, RidFetch, Row, WorkerPool};
use std::fmt::Write as _;
use std::time::Duration;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Wall-clock acceptance: the dense fetch at this thread count must beat
/// the one-thread run by this factor — asserted by the perf gate only when
/// the host has at least this many cores. (One version's checkout is a
/// ~1 ms fetch since it stopped scanning: nothing for workers to win.)
const WALL_LEG_THREADS: usize = 4;
const WALL_LEG_MIN_SPEEDUP: f64 = 2.0;

/// Repetitions per timing (best-of). `--reps` overrides, e.g. CI runs
/// with 1 to keep the gate fast.
fn reps() -> usize {
    bench::Args::from_env().reps.unwrap_or(3)
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

    // Largest version = the heaviest checkout.
    let target = cvd
        .graph()
        .versions()
        .max_by_key(|&v| cvd.version_records(v).map(|r| r.len()).unwrap_or(0))
        .unwrap_or(Vid(0));
    let data = db.table(&data_name(cvd.name())).expect("data table");
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

    // Every rid of the data table through the operator itself: the dense
    // end of Fig. 5.7, where the fetch is one ordered pass over the heap
    // and there is enough decoding for workers to matter.
    let dense = |pool: Option<&WorkerPool>| {
        let mut fetch = RidFetch::new(data, 0..data_rows as i64, pool);
        relstore::collect(&mut fetch, &mut ExecContext::new()).expect("dense fetch")
    };
    // The serial fraction: what a one-thread dense fetch spends outside
    // decoding (everything else runs on the workers). The checkout reads
    // only the target's share of the heap.
    let t_io = (0..reps())
        .map(|_| {
            let before = db.io_stats();
            let (_, t) = bench::time(|| dense(None));
            let decode = db.io_stats().since(&before).decode_nanos;
            t.saturating_sub(Duration::from_nanos(decode))
        })
        .min()
        .unwrap_or_default();
    let rids = cvd.version_records(target).expect("target records");
    let touched = RidFetch::new(data, rids.iter().map(|r| r.0 as i64), None).touched_pages();
    let t_io_checkout = t_io.mul_f64(touched as f64 / data.num_heap_pages().max(1) as f64);
    println!(
        "target lives on {touched} of {} data pages\n",
        data.num_heap_pages()
    );

    let mut out = String::new();
    let _ = writeln!(
        out,
        "parallel_scaling — SCI_100K (|R|={data_rows}), best of {} runs, {cores} core(s)",
        reps()
    );
    let _ = writeln!(
        out,
        "coordinator page reads (serial fraction): {} ms whole heap, {} ms checkout",
        bench::ms(t_io),
        bench::ms(t_io_checkout)
    );
    let cols = [
        "threads",
        "checkout ms",
        "wall",
        "projected",
        "dense fetch ms",
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
    let project = |t1: Duration, t_io: Duration, threads: usize| -> f64 {
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
    // The lease path allocates nothing it has to count (no page copies, no
    // scratch rows): the gate holds the measured morsel allocs to zero.
    let alloc_budget = 0u64;
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

        let (q_rows, q_t) = best_of(|| dense(pool.as_ref()));
        match (&base_checkout, &base_query) {
            (Some((rows, _)), Some((qrows, _))) => {
                assert_eq!(
                    &co_rows, rows,
                    "checkout rows diverged at {threads} threads"
                );
                assert_eq!(&q_rows, qrows, "dense fetch diverged at {threads} threads");
            }
            _ => {
                base_checkout = Some((co_rows, co_t));
                base_query = Some((q_rows, q_t));
            }
        }

        let co_wall =
            base_checkout.as_ref().unwrap().1.as_secs_f64() / co_t.as_secs_f64().max(1e-9);
        let q_wall = base_query.as_ref().unwrap().1.as_secs_f64() / q_t.as_secs_f64().max(1e-9);
        let co_proj = project(base_checkout.as_ref().unwrap().1, t_io_checkout, threads);
        let q_proj = project(base_query.as_ref().unwrap().1, t_io, threads);
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
         dense fetch wall {:.2}x / projected {:.2}x",
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
