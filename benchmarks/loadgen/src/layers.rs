//! The traced run (`--trace 1`): per-layer metrics and the span file.
//!
//! Counts are deltas of the server's own counters across one ordinary
//! two-client round. Timings come from the layer ladder: the first units
//! of client 0's script replayed by a single client at four depths
//! (socket, engine handle, library, storage primitives), each on a fresh
//! copy of the seeded state. A layer's self time is its rung's p50 minus
//! the next rung's. Nothing here feeds an end-to-end metric, and nothing
//! is recorded inside the program: every span is a call the harness made.

use crate::check;
use crate::data::{self, Oracle, ATTRS, CVD};
use crate::run::{self, ms, ClientLog, Outcome, Prepared, Round};
use crate::script::{Class, Unit};
use crate::stats::{median, p50, p95, ratio};
use crate::target::{expect_ok, Core, Engine, Wire};
use crate::workload::{Kind, Spec};
use orpheus_core::OrpheusDb;
use orpheus_server::protocol::{read_server, write_server};
use orpheus_server::{EngineService, ServerMsg};
use relstore::{collect, Database, ExecContext, Row, SeqScan};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Per-layer metrics, as `BENCHMARK.json` lists them: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.op_p95_ms", "ms"),
    ("wire.cycles_per_s", "1/s"),
    ("wire.queries_per_s", "1/s"),
    ("wire.commit_p50_ms", "ms"),
    ("wire.commit_p95_ms", "ms"),
    ("wire.checkout_p50_ms", "ms"),
    ("wire.checkout_p95_ms", "ms"),
    ("wire.query_p50_ms", "ms"),
    ("wire.query_p95_ms", "ms"),
    ("wire.pin_p50_ms", "ms"),
    ("wire.reopen_s", "s"),
    ("wire.stored_bytes_per_user_byte", "ratio"),
    ("protocol.reply_bytes_per_op", "B"),
    ("protocol.encode_us_per_op", "us"),
    ("protocol.decode_us_per_op", "us"),
    ("session.rtt_us", "us"),
    ("session.self_commit_us", "us"),
    ("session.self_checkout_us", "us"),
    ("session.self_query_us", "us"),
    ("engine.self_commit_us", "us"),
    ("engine.self_checkout_us", "us"),
    ("engine.self_query_us", "us"),
    ("engine.pin_us", "us"),
    ("engine.batch_size_mean", "count"),
    ("engine.backpressure_rejections", "count"),
    ("core.checkout_us", "us"),
    ("core.commit_apply_us", "us"),
    ("core.checkpoint_us", "us"),
    ("core.select_us", "us"),
    ("core.diff_us", "us"),
    ("core.open_durable_ms", "ms"),
    ("snapshot.build_us", "us"),
    ("snapshot.select_us", "us"),
    ("snapshot.diff_us", "us"),
    ("snapshot.rss_kb_per_pin", "KiB"),
    ("catalog.file_bytes", "B"),
    ("catalog.bytes_written_per_commit", "B"),
    ("relstore.tuples_examined_per_row", "ratio"),
    ("relstore.decoded_tuples_per_op", "count"),
    ("relstore.decode_us_per_op", "us"),
    ("relstore.scan_us_per_page", "us"),
    ("relstore.insert_us_per_row", "us"),
    ("relstore.encode_ns_per_row", "ns"),
    ("relstore.decode_ns_per_row", "ns"),
    ("pagestore.hit_ratio", "ratio"),
    ("pagestore.physical_reads_per_op", "count"),
    ("pagestore.evictions_per_op", "count"),
    ("pagestore.write_backs_per_op", "count"),
    ("pagestore.wal_bytes_per_commit", "B"),
    ("pagestore.fsyncs_per_commit", "count"),
    ("pagestore.flushed_pages_per_commit", "count"),
    ("pagestore.checkpoint_us", "us"),
    ("pagestore.fsync_us", "us"),
    ("pagestore.file_bytes", "B"),
    ("obs.journal_overhead_pct", "%"),
    ("obs.journal_dropped", "count"),
    ("ladder.residual_pct", "%"),
];

/// Units of client 0's script each rung replays (after the warm-up).
const CYCLE_SLICE: usize = 100;
const QUERY_SLICE: usize = 200;
/// Repetitions behind each storage-rung median.
const STORAGE_REPS: usize = 15;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One call the harness made into a layer.
struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    id: usize,
    parent: Option<usize>,
    /// Spans of one unit of work share this.
    op: usize,
}

/// Spans kept in memory until the run ends; times are µs since `epoch`.
struct Trace {
    spans: Vec<Span>,
    epoch: Instant,
}

impl Trace {
    fn push(
        &mut self,
        name: String,
        start: Instant,
        took: Duration,
        parent: Option<usize>,
        op: usize,
    ) -> usize {
        let start_us = us(start.duration_since(self.epoch));
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us + us(took),
            id,
            parent,
            op,
        });
        id
    }

    /// One span per request of a rung's replay; a commit's durability
    /// point, where the rung sees it, is a child span.
    fn add_rung(&mut self, rung: &str, log: &ClientLog) {
        for t in &log.ops {
            let id = self.push(
                format!("{rung}.{}", t.class.name()),
                t.sent,
                t.took,
                None,
                t.unit,
            );
            if let Some(ckpt) = t.checkpoint {
                self.push(
                    format!("{rung}.checkpoint"),
                    t.sent + (t.took - ckpt),
                    ckpt,
                    Some(id),
                    t.unit,
                );
            }
        }
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(io)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"id\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_us, s.end_us, s.id, s.op
            )
            .map_err(io)?;
        }
        out.flush().map_err(io)
    }
}

/// p50 per class of one rung's replay, in µs; `query_us` pools both
/// query shapes, and a commit is also split at its durability point.
struct Rung {
    p50_us: BTreeMap<Class, f64>,
    query_us: f64,
    commit_apply_us: f64,
    checkpoint_us: f64,
}

impl Rung {
    fn of(log: &ClientLog) -> Rung {
        let of = |pred: &dyn Fn(Class) -> bool| -> Vec<f64> {
            log.ops
                .iter()
                .filter(|t| pred(t.class))
                .map(|t| us(t.took))
                .collect()
        };
        let p50_us = Class::ALL
            .into_iter()
            .map(|c| (c, p50(&of(&|x| x == c)).unwrap_or(0.0)))
            .collect();
        let commits = || log.ops.iter().filter(|t| t.class == Class::Commit);
        let apply: Vec<f64> = commits()
            .map(|t| us(t.took - t.checkpoint.unwrap_or_default()))
            .collect();
        let ckpt: Vec<f64> = commits().filter_map(|t| t.checkpoint.map(us)).collect();
        Rung {
            p50_us,
            query_us: p50(&of(&Class::is_query)).unwrap_or(0.0),
            commit_apply_us: p50(&apply).unwrap_or(0.0),
            checkpoint_us: p50(&ckpt).unwrap_or(0.0),
        }
    }

    fn get(&self, class: Class) -> f64 {
        self.p50_us.get(&class).copied().unwrap_or(0.0)
    }
}

/// A fresh copy of the seeded state for one rung, at `dir`.
fn fresh_copy(prepared: &Prepared, dir: &Path) -> Result<(), String> {
    match &prepared.seed_dir {
        Some(seed) => run::copy_dir(seed, dir),
        None => Ok(()),
    }
}

fn counter(doc: &obs::Json, name: &str) -> f64 {
    doc.get_path(&format!("counters/{name}"))
        .or_else(|| doc.get_path(&format!("gauges/{name}")))
        .and_then(obs::Json::as_f64)
        .unwrap_or(0.0)
}

/// The storage rung: the primitives the library's commands are built
/// from, timed on tables shaped like the workload's.
struct Storage {
    insert_us_per_row: f64,
    scan_us_per_page: f64,
    rows_per_page: f64,
    encode_ns_per_row: f64,
    decode_ns_per_row: f64,
    checkpoint_us: f64,
    fsync_us: f64,
}

/// Time one storage-rung call and record its span; returns µs.
fn timed(
    trace: &mut Trace,
    name: &str,
    op: usize,
    f: impl FnOnce() -> Result<(), String>,
) -> Result<f64, String> {
    let started = Instant::now();
    f()?;
    let took = started.elapsed();
    trace.push(format!("storage.{name}"), started, took, None, op);
    Ok(us(took))
}

fn storage_rung(
    spec: &Spec,
    oracle: &Oracle,
    dirty_pages: usize,
    scratch: &Path,
    trace: &mut Trace,
) -> Result<Storage, String> {
    let e = |e: relstore::Error| format!("storage rung: {e}");
    let io = |e: std::io::Error| format!("storage rung: {e}");
    let version_rows = (oracle.mean_version_rows() as usize).max(1);
    let rows: Vec<Row> = oracle.records.iter().map(|r| data::to_row(r)).collect();

    // Table::insert of a version-sized staging table (what checkout does).
    let mut db = Database::with_pool_capacity(spec.pool_pages());
    let mut insert = Vec::new();
    for rep in 0..STORAGE_REPS {
        let name = format!("staging{rep}");
        let table = db.create_table(&name, data::schema()).map_err(e)?;
        insert.push(timed(trace, "insert", rep, || {
            for row in rows.iter().cycle().take(version_rows) {
                table.insert(row.clone()).map_err(e)?;
            }
            Ok(())
        })?);
        db.drop_table(&name).map_err(e)?;
    }

    // SeqScan over a data-table-shaped table in a pool of the workload's size.
    let data_table = db.create_table("data", data::schema()).map_err(e)?;
    for row in &rows {
        data_table.insert(row.clone()).map_err(e)?;
    }
    let data_table = db.table("data").map_err(e)?;
    let pages = data_table.num_heap_pages().max(1);
    let mut scan = Vec::new();
    for rep in 0..STORAGE_REPS {
        scan.push(timed(trace, "scan", rep, || {
            let mut plan = SeqScan::new(data_table);
            std::hint::black_box(collect(&mut plan, &mut ExecContext::new()).map_err(e)?);
            Ok(())
        })?);
    }

    // PageFormat encode/decode of the workload's rows.
    let format = relstore::codec::format_for(db.default_format());
    let mut encoded = Vec::new();
    let encode = timed(trace, "encode", 0, || {
        for (i, row) in rows.iter().enumerate() {
            encoded.push(format.encode_row(i as u64, row).map_err(e)?);
        }
        Ok(())
    })?;
    let decode = timed(trace, "decode", 0, || {
        for bytes in &encoded {
            std::hint::black_box(format.decode_row(bytes).map_err(e)?);
        }
        Ok(())
    })?;

    // Database::checkpoint with a commit's dirty-page count, and the raw
    // sync_all of a file in the same directory (the device floor).
    let (mut checkpoint, mut fsync) = (Vec::new(), Vec::new());
    if spec.durable {
        let dir = scratch.join("storage");
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(io)?;
        }
        let (mut ddb, _report) = Database::open_durable(&dir, spec.pool_pages()).map_err(e)?;
        ddb.create_table("dirty", data::schema()).map_err(e)?;
        let per_checkpoint = (dirty_pages as f64 * rows.len() as f64 / pages as f64) as usize;
        let mut source = rows.iter().cycle();
        for rep in 0..STORAGE_REPS {
            let table = ddb.table_mut("dirty").map_err(e)?;
            for row in source.by_ref().take(per_checkpoint.max(1)) {
                table.insert(row.clone()).map_err(e)?;
            }
            checkpoint.push(timed(trace, "checkpoint", rep, || {
                ddb.checkpoint().map(drop).map_err(e)
            })?);
        }
        let mut file = std::fs::File::create(dir.join("fsync.probe")).map_err(io)?;
        for rep in 0..2 * STORAGE_REPS {
            file.write_all(&[0u8; 512]).map_err(io)?;
            fsync.push(timed(trace, "fsync", rep, || file.sync_all().map_err(io))?);
        }
    }
    Ok(Storage {
        insert_us_per_row: median(&insert) / version_rows as f64,
        scan_us_per_page: median(&scan) / pages as f64,
        rows_per_page: rows.len() as f64 / pages as f64,
        encode_ns_per_row: encode * 1e3 / rows.len().max(1) as f64,
        decode_ns_per_row: decode * 1e3 / rows.len().max(1) as f64,
        checkpoint_us: median(&checkpoint),
        fsync_us: median(&fsync),
    })
}

/// `protocol.*`: re-encode and re-decode the replies the wire rung
/// captured, on in-memory buffers. Returns `(bytes, encode µs, decode µs)` per reply.
fn protocol_costs(frames: &[Vec<ServerMsg>]) -> Result<(f64, f64, f64), String> {
    let n = frames.len().max(1) as f64;
    let e = |e: orpheus_server::ProtoError| format!("re-encoding a reply: {e}");
    let mut buf = Vec::new();
    let started = Instant::now();
    for reply in frames {
        for msg in reply.iter().chain([&ServerMsg::Ready]) {
            write_server(&mut buf, msg).map_err(e)?;
        }
    }
    let encode = us(started.elapsed());
    let mut reader = buf.as_slice();
    let started = Instant::now();
    while !reader.is_empty() {
        std::hint::black_box(read_server(&mut reader).map_err(e)?);
    }
    let decode = us(started.elapsed());
    Ok((buf.len() as f64 / n, encode / n, decode / n))
}

/// Replay `slice` by one client through the socket of a server on a fresh
/// copy; also the idle round trip and the memory one pin holds.
fn wire_rung(
    spec: &Spec,
    prepared: &Prepared,
    slice: &[Unit],
    dir: &Path,
) -> Result<(ClientLog, f64, f64), String> {
    run::on_seeded_server(spec, prepared, dir, |addr, _| {
        let mut wire = Wire::connect(addr, "client0")?;
        let log = run::drive(&mut wire, slice, spec.warmup_units, true);
        let mut rtt = Vec::new();
        for _ in 0..200 {
            let sent = Instant::now();
            expect_ok(&mut wire, "whoami")?;
            rtt.push(us(sent.elapsed()));
        }
        wire.close()?;
        let mut kb_per_pin = 0.0;
        if spec.kind == Kind::ReadPinned {
            let before = run::rss_kb();
            let mut sessions = Vec::new();
            for i in 0..4 {
                let mut s = Wire::connect(addr, &format!("pinner{i}"))?;
                expect_ok(&mut s, &format!("pin {CVD}"))?;
                sessions.push(s);
            }
            kb_per_pin = (run::rss_kb() - before) / sessions.len() as f64;
            for s in sessions {
                s.close()?;
            }
        }
        Ok((log, p50(&rtt).unwrap_or(0.0), kb_per_pin))
    })
}

/// The same slice through `EngineHandle`, no socket.
fn engine_rung(
    spec: &'static Spec,
    prepared: &Prepared,
    seed: u64,
    slice: &[Unit],
    dir: &Path,
) -> Result<ClientLog, String> {
    fresh_copy(prepared, dir)?;
    let data_dir = spec.durable.then_some(dir);
    let service = EngineService::start(run::engine_config(spec, data_dir))
        .map_err(|e| format!("engine rung: {e}"))?;
    let mut engine = Engine::new(service.handle(), "client0");
    if !spec.durable {
        data::seed_through(&mut engine, spec.source, seed, &dir.with_extension("csv"))?;
    }
    let log = run::drive(&mut engine, slice, spec.warmup_units, false);
    drop(engine);
    service
        .shutdown()
        .map_err(|e| format!("engine rung: {e}"))?;
    Ok(log)
}

/// The same slice through `OrpheusDb` on this thread. Also times
/// `open_durable` on the seeded directory.
fn core_rung(
    spec: &'static Spec,
    prepared: &Prepared,
    seed: u64,
    slice: &[Unit],
    dir: &Path,
    trace: &mut Trace,
) -> Result<(ClientLog, f64), String> {
    fresh_copy(prepared, dir)?;
    let started = Instant::now();
    let db = if spec.durable {
        OrpheusDb::open_durable(dir, spec.pool_pages())
            .map_err(|e| format!("core rung: {e}"))?
            .0
    } else {
        OrpheusDb::new()
    };
    let open = started.elapsed();
    trace.push("core.open".into(), started, open, None, 0);
    let mut core = Core::new(db, "client0");
    if !spec.durable {
        data::seed_through(&mut core, spec.source, seed, &dir.with_extension("csv"))?;
    }
    let log = run::drive(&mut core, slice, spec.warmup_units, false);
    Ok((log, if spec.durable { ms(open) } else { 0.0 }))
}

/// `cycles_per_s` of a single-client slice with the trace journal off
/// (`ORPHEUS_TRACE_SAMPLE=0`) against on (`=1`), as a percentage.
fn journal_overhead(
    spec: &Spec,
    prepared: &Prepared,
    slice: &[Unit],
    dir: &Path,
) -> Result<f64, String> {
    let mut rate = [0.0; 2];
    for (i, sample) in ["0", "1"].into_iter().enumerate() {
        fresh_copy(prepared, dir)?;
        // No other thread of this process is running here: every server
        // thread of the previous step has been joined.
        std::env::set_var(obs::journal::SAMPLE_ENV, sample);
        let server = run::start_server(spec, Some(dir));
        std::env::remove_var(obs::journal::SAMPLE_ENV);
        let server = server?;
        let mut wire = Wire::connect(server.local_addr(), "client0")?;
        let log = run::drive(&mut wire, slice, spec.warmup_units, false);
        wire.close()?;
        run::stop_server(server)?;
        rate[i] = log.unit_ms.len() as f64 / log.end.duration_since(log.start).as_secs_f64();
    }
    Ok(100.0 * ratio(rate[0] - rate[1], rate[0]))
}

/// The two-client round whose counter deltas become the per-layer counts.
fn counted_round(
    spec: &Spec,
    prepared: &Prepared,
    scripts: &[Vec<Unit>],
    dir: &Path,
) -> Result<(Round, obs::Json, obs::Json), String> {
    run::on_seeded_server(spec, prepared, dir, |addr, _| {
        let before = run::server_counters(addr)?;
        let round = run::run_round(spec, addr, scripts, &prepared.oracle)?;
        Ok((round, before, run::server_counters(addr)?))
    })
}

pub fn traced(
    spec: &'static Spec,
    seed: u64,
    scratch: &Path,
    results: &Path,
) -> Result<Outcome, String> {
    let mut prepared = run::setup_repeated(spec, seed, scratch, 1)?;
    // Durable rungs each copy the seeded directory; only the in-memory
    // workload keeps its set-up server (its state lives nowhere else).
    if spec.durable {
        if let Some(server) = prepared.server.take() {
            run::stop_server(server)?;
        }
    }
    let scripts = run::scripts(spec, &prepared.oracle, seed);
    let dir = scratch.join("rung");
    let mut trace = Trace {
        spans: Vec::new(),
        epoch: Instant::now(),
    };
    let mut errors = Vec::new();

    // Counts, and the client-observed latency of each operation class.
    let (round, before, after) = counted_round(spec, &prepared, &scripts, &dir)?;
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    let units = round.unit_ms.len() as f64;
    let commits = round.class(Class::Commit).len() as f64;
    let queries = round.queries();
    let (mut attempted, mut failed) = (round.attempted, round.failed);
    errors.extend(round.errors.iter().cloned());
    let (catalog_bytes, pages_bytes, wal_bytes) = (
        run::file_len(&dir.join("catalog.orc")) as f64,
        run::file_len(&dir.join("pages.db")) as f64,
        run::file_len(&dir.join("wal.log")) as f64,
    );
    let mut user_rows = prepared.oracle.records.len();
    user_rows += round.acks.iter().map(|a| a.inserted.len()).sum::<usize>();
    let mut reopen = Vec::new();
    if spec.durable {
        for rep in 0..3 {
            let acks = if rep == 0 { round.acks.as_slice() } else { &[] };
            let (wrong, took) =
                run::reopen_and_check(spec, &dir, &prepared.oracle, acks, &mut errors)?;
            attempted += 1;
            failed += wrong;
            reopen.push(took.as_secs_f64());
        }
    }

    // The ladder.
    let slice_len = if spec.inserts_per_cycle > 0 {
        CYCLE_SLICE
    } else {
        QUERY_SLICE
    };
    let slice = &scripts[0][..(spec.warmup_units + slice_len).min(scripts[0].len())];
    let (wire_log, rtt_us, kb_per_pin) = wire_rung(spec, &prepared, slice, &dir)?;
    let (reply_bytes, encode_us, decode_us) = protocol_costs(&wire_log.frames)?;
    if let Some(server) = prepared.server.take() {
        run::stop_server(server)?;
    }
    let engine_log = engine_rung(spec, &prepared, seed, slice, &dir)?;
    let (core_log, open_ms) = core_rung(spec, &prepared, seed, slice, &dir, &mut trace)?;
    for (name, log) in [
        ("wire", &wire_log),
        ("engine", &engine_log),
        ("core", &core_log),
    ] {
        trace.add_rung(name, log);
        attempted += log.attempted;
        errors.extend(log.errors.iter().cloned());
        // Every rung must give the answers the wire gives.
        failed +=
            log.failed + check::check_client(slice, &log.observed, &prepared.oracle, &mut errors).1;
    }
    let (wire, engine, core) = (
        Rung::of(&wire_log),
        Rung::of(&engine_log),
        Rung::of(&core_log),
    );
    let flushed_per_commit = ratio(delta("pagestore.pool.flushed_writes"), commits);
    let storage = storage_rung(
        spec,
        &prepared.oracle,
        flushed_per_commit as usize,
        scratch,
        &mut trace,
    )?;
    let overhead = if spec.kind == Kind::CycleDurable {
        journal_overhead(spec, &prepared, slice, &dir)?
    } else {
        0.0
    };
    trace.write(&results.join(format!("trace_{}.jsonl", spec.name)))?;

    // What the storage rung accounts for in one unit of the core rung.
    let pinned = spec.kind == Kind::ReadPinned;
    let version_rows = prepared.oracle.mean_version_rows();
    let data_pages = prepared.oracle.records.len() as f64 / storage.rows_per_page;
    let per_unit = |class: Class| {
        core_log.ops.iter().filter(|t| t.class == class).count() as f64
            / core_log.unit_ms.len().max(1) as f64
    };
    let scan_us = if pinned {
        0.0
    } else {
        data_pages * storage.scan_us_per_page
    };
    let accounted = per_unit(Class::Checkout) * version_rows * storage.insert_us_per_row
        + per_unit(Class::Insert) * storage.insert_us_per_row
        + per_unit(Class::Commit)
            * (version_rows / storage.rows_per_page * storage.scan_us_per_page
                + spec.inserts_per_cycle as f64 * storage.insert_us_per_row
                + storage.checkpoint_us)
        + (per_unit(Class::Select) + per_unit(Class::Diff)) * scan_us;
    let core_unit_us = Class::ALL
        .into_iter()
        .map(|c| per_unit(c) * core.get(c))
        .sum::<f64>();

    let logical = delta("pagestore.pool.logical_reads");
    let p95_ms = |s: &[f64]| p95(s).unwrap_or(0.0);
    let p50_ms = |s: &[f64]| p50(s).unwrap_or(0.0);
    let only_if = |on: bool, v: f64| if on { v } else { 0.0 };
    let values = vec![
        ("wire.op_p95_ms", p95_ms(&round.unit_ms)),
        ("wire.cycles_per_s", ratio(commits, round.wall_s)),
        (
            "wire.queries_per_s",
            ratio(queries.len() as f64, round.wall_s),
        ),
        ("wire.commit_p50_ms", p50_ms(round.class(Class::Commit))),
        ("wire.commit_p95_ms", p95_ms(round.class(Class::Commit))),
        ("wire.checkout_p50_ms", p50_ms(round.class(Class::Checkout))),
        ("wire.checkout_p95_ms", p95_ms(round.class(Class::Checkout))),
        ("wire.query_p50_ms", p50_ms(&queries)),
        ("wire.query_p95_ms", p95_ms(&queries)),
        ("wire.pin_p50_ms", p50_ms(round.class(Class::Pin))),
        ("wire.reopen_s", median(&reopen)),
        (
            "wire.stored_bytes_per_user_byte",
            ratio(
                pages_bytes + catalog_bytes + wal_bytes,
                (user_rows * ATTRS * 8) as f64,
            ),
        ),
        ("protocol.reply_bytes_per_op", reply_bytes),
        ("protocol.encode_us_per_op", encode_us),
        ("protocol.decode_us_per_op", decode_us),
        ("session.rtt_us", rtt_us),
        (
            "session.self_commit_us",
            wire.get(Class::Commit) - engine.get(Class::Commit),
        ),
        (
            "session.self_checkout_us",
            wire.get(Class::Checkout) - engine.get(Class::Checkout),
        ),
        ("session.self_query_us", wire.query_us - engine.query_us),
        (
            "engine.self_commit_us",
            engine.get(Class::Commit) - core.get(Class::Commit),
        ),
        (
            "engine.self_checkout_us",
            engine.get(Class::Checkout) - core.get(Class::Checkout),
        ),
        ("engine.self_query_us", engine.query_us - core.query_us),
        ("engine.pin_us", engine.get(Class::Pin)),
        (
            "engine.batch_size_mean",
            ratio(
                delta("orpheus.server.commits_total"),
                delta("orpheus.server.group_commit.batches"),
            ),
        ),
        (
            "engine.backpressure_rejections",
            delta("orpheus.server.backpressure_rejections"),
        ),
        ("core.checkout_us", core.get(Class::Checkout)),
        ("core.commit_apply_us", core.commit_apply_us),
        ("core.checkpoint_us", core.checkpoint_us),
        ("core.select_us", only_if(!pinned, core.get(Class::Select))),
        ("core.diff_us", only_if(!pinned, core.get(Class::Diff))),
        ("core.open_durable_ms", open_ms),
        ("snapshot.build_us", core.get(Class::Pin)),
        (
            "snapshot.select_us",
            only_if(pinned, core.get(Class::Select)),
        ),
        ("snapshot.diff_us", only_if(pinned, core.get(Class::Diff))),
        ("snapshot.rss_kb_per_pin", kb_per_pin),
        ("catalog.file_bytes", catalog_bytes),
        (
            "catalog.bytes_written_per_commit",
            ratio(catalog_bytes * delta("pagestore.pool.checkpoints"), commits),
        ),
        (
            "relstore.tuples_examined_per_row",
            ratio(delta("relstore.tracker.tuples"), round.rows_returned as f64),
        ),
        (
            "relstore.decoded_tuples_per_op",
            ratio(delta("pagestore.page.decoded_tuples"), units),
        ),
        (
            "relstore.decode_us_per_op",
            ratio(delta("pagestore.page.decode_us"), units),
        ),
        ("relstore.scan_us_per_page", storage.scan_us_per_page),
        ("relstore.insert_us_per_row", storage.insert_us_per_row),
        ("relstore.encode_ns_per_row", storage.encode_ns_per_row),
        ("relstore.decode_ns_per_row", storage.decode_ns_per_row),
        (
            "pagestore.hit_ratio",
            if logical == 0.0 {
                1.0
            } else {
                1.0 - delta("pagestore.pool.physical_reads") / logical
            },
        ),
        (
            "pagestore.physical_reads_per_op",
            ratio(delta("pagestore.pool.physical_reads"), units),
        ),
        (
            "pagestore.evictions_per_op",
            ratio(delta("pagestore.pool.evictions"), units),
        ),
        (
            "pagestore.write_backs_per_op",
            ratio(delta("pagestore.pool.write_backs"), units),
        ),
        (
            "pagestore.wal_bytes_per_commit",
            ratio(delta("pagestore.wal.bytes"), commits),
        ),
        (
            "pagestore.fsyncs_per_commit",
            ratio(delta("pagestore.wal.fsyncs"), commits),
        ),
        ("pagestore.flushed_pages_per_commit", flushed_per_commit),
        ("pagestore.checkpoint_us", storage.checkpoint_us),
        ("pagestore.fsync_us", storage.fsync_us),
        ("pagestore.file_bytes", pages_bytes),
        ("obs.journal_overhead_pct", overhead),
        ("obs.journal_dropped", delta("obs.journal.dropped")),
        (
            "ladder.residual_pct",
            100.0 * ratio(core_unit_us - accounted, core_unit_us),
        ),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics: run::with_units(PER_LAYER, values)?,
        errors,
        samples: round.unit_ms.len(),
        rounds: 1,
    })
}
