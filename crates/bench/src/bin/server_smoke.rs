//! CI server smoke gate.
//!
//! Boots the multi-session TCP front end on a durable store, drives 8
//! concurrent scripted clients (checkout → insert → commit cycles plus
//! pinned snapshot reads), and then checks the promises the server
//! makes, end to end:
//!
//! * **Serial equivalence** — the final database state, dumped through a
//!   client, is byte-identical to a serial replay of the same commit log
//!   in a fresh single-session `OrpheusDb`;
//! * **Group commit** — `pagestore.wal.fsyncs` stays strictly below the
//!   commit count (one durability point per batch, not per commit);
//! * **Metrics schema** — `metrics --json` carries every documented
//!   `orpheus.server.*` and `obs.journal.*` key (counters, gauges,
//!   latency percentiles); a missing key fails the gate;
//! * **End-to-end tracing** — every scripted commit runs under a
//!   client-chosen trace id; `trace dump --json` must show, per commit
//!   trace, the request span and a WAL-fsync event (real or shared
//!   group-commit attribution), and a traced read must carry its
//!   engine-side query span and its reply span;
//! * **Backpressure** — a full commit admission queue answers `53300`
//!   immediately instead of queueing without bound;
//! * **Clean shutdown** — every service thread joins (no leaked threads,
//!   verified against `/proc/self/status`), and `wal.log` is left empty:
//!   the engine writes the log back to `pages.db` on its way out.
//!
//! Any violation panics, so a broken server fails `scripts/ci.sh`.

use orpheus_server::{
    client::render_messages, output_messages, Client, EngineConfig, Server, ServerConfig,
};
use std::io::Write as _;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::Duration;

const WRITERS: usize = 8;
const COMMITS: usize = 3;

/// Run one query, panic on a typed error, return the completion tag.
fn ok(c: &mut Client, line: &str) -> String {
    let reply = c.query(line).expect("query transport");
    if let Some((code, msg)) = reply.error() {
        panic!("query `{line}` failed [{code}]: {msg}");
    }
    reply.tag().unwrap_or_default().to_owned()
}

/// The client-chosen trace id for writer `w`'s commit `i` (never 0).
fn commit_trace(w: usize, i: usize) -> u64 {
    0x5347_0000_0000_0000 | ((w as u64) << 8) | (i as u64 + 1)
}

/// One scripted client: pin a snapshot, verify the read repeats, then
/// run checkout → insert → commit cycles, each from this writer's
/// previous version. Every writer stages its checkout, then writer 0
/// stalls the engine and all commit together, so each wave of commits
/// queues into one batch. Commits run under client-chosen trace ids,
/// which the server must echo on the completion.
fn scripted_client(addr: SocketAddr, w: usize, staged: &Barrier) {
    let mut c = Client::connect(addr, &format!("w{w}")).expect("connect");
    ok(&mut c, "pin t");
    let read = "run SELECT vid, count(*) FROM CVD t GROUP BY vid";
    let baseline = c.query(read).expect("snapshot read").render();
    let mut parent = 0u32;
    for i in 0..COMMITS {
        let table = format!("w{w}c{i}");
        ok(&mut c, &format!("checkout t -v {parent} -t {table}"));
        let k = 1000 + w * 100 + i;
        ok(&mut c, &format!("insert {table} {k},{w},{i}"));
        staged.wait();
        if w == 0 {
            ok(&mut c, "sleep 80");
        }
        staged.wait();
        let trace = commit_trace(w, i);
        let reply = c
            .query_traced(&format!("commit -t {table} -m w{w} c{i}"), trace)
            .expect("traced commit");
        if let Some((code, msg)) = reply.error() {
            panic!("traced commit failed [{code}]: {msg}");
        }
        assert_eq!(
            reply.trace(),
            Some(trace),
            "server must echo the wire trace id"
        );
        let tag = reply.tag().unwrap_or_default();
        parent = tag
            .strip_prefix("COMMIT v")
            .unwrap_or_else(|| panic!("unexpected commit tag: {tag}"))
            .parse()
            .expect("vid");
        // The pinned snapshot must not see this session's own commit.
        let again = c.query(read).expect("snapshot read").render();
        assert_eq!(again, baseline, "pinned read changed under own commits");
    }
    c.terminate().expect("terminate");
}

/// Parse `log t` into `(vid, parent, author, msg)` entries, oldest first.
fn parse_log(log: &str) -> Vec<(u32, u32, String, String)> {
    let lines: Vec<&str> = log.lines().collect();
    let mut entries = Vec::new();
    for pair in lines.chunks(2) {
        let [head, detail] = pair else {
            panic!("odd log line count in:\n{log}")
        };
        let (vid_part, parents) = head
            .trim_start_matches("* ")
            .split_once("  ← ")
            .expect("log head");
        let vid: u32 = vid_part.trim_start_matches('v').parse().expect("vid");
        let parent: u32 = if parents == "(root)" {
            0
        } else {
            parents.trim_start_matches('v').parse().expect("parent")
        };
        let after = detail.trim().strip_prefix("author: ").expect("author");
        let (author, rest) = after.split_once("  records: ").expect("records");
        let (_n, msg) = rest.split_once("  msg: ").expect("msg");
        entries.push((vid, parent, author.to_owned(), msg.to_owned()));
    }
    entries.sort_by_key(|e| e.0);
    entries
}

/// The state-dump query set, identical on both sides of the comparison.
fn dump_queries(max_vid: u32) -> Vec<String> {
    let mut qs: Vec<String> = (0..=max_vid)
        .map(|v| format!("run SELECT * FROM VERSION {v} OF CVD t"))
        .collect();
    qs.push("run SELECT vid, count(*) FROM CVD t GROUP BY vid".into());
    qs.push("run SELECT vid, sum(k) FROM CVD t GROUP BY vid".into());
    qs.push(format!("run SELECT * FROM V_DIFF({max_vid}, 0) OF CVD t"));
    qs.push("log t".into());
    qs
}

fn check_schema(what: &str, src: &str, required: &[&str]) {
    match obs::missing_keys(src, required) {
        Ok(missing) if missing.is_empty() => {}
        Ok(missing) => panic!("{what}: missing required keys {missing:?}"),
        Err(e) => panic!("{what}: output is not valid JSON ({e}):\n{src}"),
    }
}

fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

fn main() {
    bench::banner(
        "server smoke: concurrent sessions, group commit, backpressure",
        "CI gate — multi-session front end vs serial replay",
    );
    let threads_before = thread_count();

    let dir = std::env::temp_dir().join(format!("orpheus-server-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let csv = std::env::temp_dir().join(format!("orpheus-server-smoke-{}.csv", std::process::id()));
    {
        let mut f = std::fs::File::create(&csv).expect("seed csv");
        writeln!(f, "k,w,i").unwrap();
        for k in 0..20 {
            writeln!(f, "{k},-1,-1").unwrap();
        }
    }

    let server = Server::start(ServerConfig {
        port: 0,
        // The writers and the admin session, all live at once.
        workers: WRITERS + 1,
        engine: EngineConfig {
            data_dir: Some(dir.clone()),
            ..EngineConfig::default()
        },
    })
    .expect("start server");
    let addr = server.local_addr();
    println!("server at {addr}, {WRITERS} scripted clients × {COMMITS} commits");

    let mut admin = Client::connect(addr, "admin").expect("connect admin");
    ok(
        &mut admin,
        &format!("init t -f {} -s k:int,w:int,i:int -k k", csv.display()),
    );
    let pool = exec_pool::WorkerPool::new(WRITERS);
    let staged = Barrier::new(WRITERS);
    let staged = &staged;
    let tasks: Vec<_> = (0..WRITERS)
        .map(|w| move |_worker: usize| scripted_client(addr, w, staged))
        .collect();
    pool.run(tasks).expect("scripted clients");

    // --- serial equivalence --------------------------------------------
    let log_text = ok(&mut admin, "log t");
    let entries = parse_log(&log_text);
    assert_eq!(entries.len(), 1 + WRITERS * COMMITS, "commit count");
    let mut replay = orpheus_core::OrpheusDb::new();
    replay
        .execute_as(
            "admin",
            &format!("init t -f {} -s k:int,w:int,i:int -k k", csv.display()),
        )
        .expect("replay init");
    for (vid, parent, author, msg) in entries.iter().filter(|e| e.0 > 0) {
        let (w_part, c_part) = msg.split_once(' ').expect("msg shape");
        let w: usize = w_part.trim_start_matches('w').parse().expect("w");
        let i: usize = c_part.trim_start_matches('c').parse().expect("i");
        let table = format!("w{w}c{i}");
        replay
            .execute_as(author, &format!("checkout t -v {parent} -t {table}"))
            .expect("replay checkout");
        let k = 1000 + w * 100 + i;
        replay
            .execute_as(author, &format!("insert {table} {k},{w},{i}"))
            .expect("replay insert");
        let out = replay
            .execute_as(author, &format!("commit -t {table} -m {msg}"))
            .expect("replay commit");
        assert_eq!(
            out,
            orpheus_core::CommandOutput::Version(partition::Vid(*vid)),
            "replay assigned a different vid for {msg}"
        );
    }
    let max_vid = entries.last().expect("entries").0;
    for q in dump_queries(max_vid) {
        let live = {
            let reply = admin.query(&q).expect("dump query");
            assert!(reply.error().is_none(), "`{q}` failed on the server");
            reply.render()
        };
        let replayed = render_messages(&output_messages(
            &replay.execute_as("admin", &q).expect("replay query"),
        ));
        assert_eq!(live, replayed, "state diverged on `{q}`");
    }
    println!("serial equivalence: {} queries byte-identical", max_vid + 5);

    // --- metrics schema + group-commit assertion -----------------------
    let metrics_json = ok(&mut admin, "metrics --json");
    check_schema(
        "metrics --json",
        &metrics_json,
        &[
            "counters/orpheus.server.sessions_total",
            "counters/orpheus.server.queries_total",
            "counters/orpheus.server.snapshot_reads_total",
            "counters/orpheus.server.reply_bytes_total",
            "counters/orpheus.server.reply_flushes_total",
            "counters/orpheus.server.commits_total",
            "counters/orpheus.server.group_commit.batches",
            "counters/orpheus.server.backpressure_rejections",
            "counters/orpheus.checkout.rows_copied",
            "counters/pagestore.wal.fsyncs",
            "counters/pagestore.wal.drains",
            "counters/pagestore.pager.syncs",
            "gauges/pagestore.pool.free_pages",
            "gauges/pagestore.pool.images",
            "gauges/orpheus.cvd.record_bytes",
            "gauges/pagestore.pool.unlogged_pages",
            "gauges/relstore.directory.tables",
            "gauges/orpheus.server.active_sessions",
            "gauges/orpheus.server.queued_commits",
            "gauges/orpheus.server.pinned_bytes",
            "histograms/orpheus.server.query.latency_us/p50",
            "histograms/orpheus.server.query.latency_us/p95",
            "histograms/orpheus.server.query.latency_us/p99",
            "histograms/orpheus.server.group_commit.batch_size/p50",
            "counters/obs.journal.recorded",
            "counters/obs.journal.dropped",
            "counters/obs.journal.allocs",
            "gauges/obs.journal.events",
        ],
    );
    let registry = server.registry().clone();
    let commits = registry.counter("orpheus.server.commits_total");
    let fsyncs = registry.counter("pagestore.wal.fsyncs");
    let batches = registry.counter("orpheus.server.group_commit.batches");
    assert_eq!(commits, (WRITERS * COMMITS) as u64);
    assert!(
        fsyncs < commits,
        "group commit must fsync less than once per commit: {fsyncs} fsyncs / {commits} commits"
    );
    println!("group commit: {commits} commits → {batches} batches, {fsyncs} WAL fsyncs");

    // --- end-to-end tracing --------------------------------------------
    // A traced read: the engine's query span and the session's reply span
    // must re-attach to it.
    let read_trace = 0x5347_0000_0000_ff00u64;
    let reply = admin
        .query_traced("run SELECT * FROM VERSION 0 OF CVD t", read_trace)
        .expect("traced read");
    assert!(reply.error().is_none(), "traced read failed");
    assert_eq!(reply.trace(), Some(read_trace), "trace echo on read");

    let dump = ok(&mut admin, "trace dump --json");
    let mut by_trace: std::collections::HashMap<u64, Vec<String>> =
        std::collections::HashMap::new();
    for line in dump.lines().filter(|l| !l.trim().is_empty()) {
        check_schema(
            "trace dump --json line",
            line,
            &["name", "ph", "ts", "args/trace", "args/span"],
        );
        let ev = obs::parse(line).expect("trace event");
        let name = ev.get_path("name").and_then(|v| v.as_str()).expect("name");
        let trace = ev
            .get_path("args/trace")
            .and_then(|v| v.as_str())
            .expect("args.trace");
        let trace = u64::from_str_radix(trace.trim_start_matches("0x"), 16).expect("hex trace");
        by_trace.entry(trace).or_default().push(name.to_owned());
    }
    for w in 0..WRITERS {
        for i in 0..COMMITS {
            let trace = commit_trace(w, i);
            let names = by_trace
                .get(&trace)
                .unwrap_or_else(|| panic!("no journal events for commit trace {trace:#x}"));
            assert!(
                names.iter().any(|n| n == "orpheus.request"),
                "commit trace {trace:#x} lost its request span: {names:?}"
            );
            assert!(
                names
                    .iter()
                    .any(|n| n == "pagestore.wal.fsync" || n == "pagestore.wal.fsync.shared"),
                "commit trace {trace:#x} has no WAL-fsync attribution: {names:?}"
            );
        }
    }
    let read_names = by_trace
        .get(&read_trace)
        .unwrap_or_else(|| panic!("no journal events for read trace {read_trace:#x}"));
    for span in ["orpheus.query", "orpheus.server.reply"] {
        assert!(
            read_names.iter().any(|n| n == span),
            "{span} did not re-attach to the read trace: {read_names:?}"
        );
    }
    println!(
        "tracing: {} traces journaled; every commit trace carries its WAL-fsync attribution",
        by_trace.len()
    );

    match bench::write_metrics_snapshot("server_smoke", &registry) {
        Ok(path) => println!("metrics snapshot: {}", path.display()),
        Err(e) => eprintln!("warning: could not write metrics snapshot: {e}"),
    }

    admin.terminate().expect("terminate admin");
    let log_len = || {
        std::fs::metadata(dir.join("wal.log"))
            .expect("wal.log")
            .len()
    };
    assert!(
        log_len() > 0,
        "the live log holds the batches since a write-back"
    );
    server.shutdown().expect("clean shutdown");
    assert_eq!(log_len(), 0, "a clean shutdown writes the log back");
    println!("clean shutdown: wal.log is empty");

    // --- backpressure leg ----------------------------------------------
    let small = Server::start(ServerConfig {
        port: 0,
        workers: WRITERS,
        engine: EngineConfig {
            admission_capacity: 2,
            ..EngineConfig::default()
        },
    })
    .expect("start backpressure server");
    let baddr = small.local_addr();
    let mut stall = Client::connect(baddr, "admin").expect("connect");
    ok(&mut stall, "sleep 400");
    std::thread::sleep(Duration::from_millis(30));
    let outcomes = pool
        .run(
            (0..6)
                .map(|i| {
                    move |_worker: usize| {
                        let mut c = Client::connect(baddr, &format!("b{i}")).expect("connect");
                        let reply = c.query("commit -t none -m x").expect("commit");
                        let (code, _) = reply.error().expect("commit must fail");
                        let code = code.to_owned();
                        c.terminate().expect("terminate");
                        code
                    }
                })
                .collect(),
        )
        .expect("backpressure clients");
    let rejected = outcomes.iter().filter(|c| *c == "53300").count();
    assert!(
        rejected >= 1,
        "overflowing a capacity-2 admission queue must reject with 53300: {outcomes:?}"
    );
    println!("backpressure: {rejected}/6 commits rejected with 53300");
    stall.terminate().expect("terminate");
    small.shutdown().expect("clean shutdown");

    // --- no leaked threads ---------------------------------------------
    std::thread::sleep(Duration::from_millis(50));
    let threads_after = thread_count();
    assert!(
        threads_after <= threads_before,
        "leaked threads: {threads_before} before, {threads_after} after"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&csv);
    println!("server smoke: all checks passed");
}
