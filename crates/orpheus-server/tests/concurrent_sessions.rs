//! Multi-session integration tests: N writers × M readers against one
//! server, equivalence with a serial replay, group-commit fsync
//! batching, wire-level backpressure, and snapshot isolation.

#![expect(
    clippy::disallowed_methods,
    reason = "the tests drive clients from threads of their own"
)]

use orpheus_core::CommandOutput;
use orpheus_server::{
    client::render_messages, output_messages, Client, ClientError, EngineConfig, Server,
    ServerConfig,
};
use relstore::DataType;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Duration;

/// A unique scratch path under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("orpheus-server-{tag}-{}", std::process::id()))
}

/// The seed's `w` values start here: 2^53 + 1, so no `w` of the seed is
/// a Float64 — a seed row widened from Int64 to Float64 reads otherwise.
const SEED_W: i64 = (1 << 53) + 1;

/// Write the 20-row seed CSV and return its path.
fn seed_csv(tag: &str) -> PathBuf {
    let path = scratch(&format!("{tag}-seed.csv"));
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "k,w,i").unwrap();
    for k in 0..20 {
        writeln!(f, "{k},{},-1", SEED_W + 2 * k).unwrap();
    }
    f.flush().unwrap();
    path
}

fn init_line(csv: &Path) -> String {
    format!("init t -f {} -s k:int,w:int,i:int -k k", csv.display())
}

fn start_server(workers: usize, engine: EngineConfig) -> Server {
    Server::start(ServerConfig {
        port: 0,
        workers,
        engine,
    })
    .unwrap()
}

/// Assert the reply succeeded and return its completion tag.
fn tag_of(c: &mut Client, line: &str) -> String {
    let reply = c.query(line).unwrap();
    if let Some((code, msg)) = reply.error() {
        panic!("query `{line}` failed [{code}]: {msg}");
    }
    reply.tag().unwrap_or_default().to_owned()
}

/// Hold every writer at `barrier` once it has staged its checkout, stall
/// the engine from writer 0, then release them all: their commits queue
/// behind the stall, and the engine drains them into one batch.
fn stall_then_release(c: &mut Client, w: usize, barrier: &Barrier) {
    barrier.wait();
    if w == 0 {
        tag_of(c, "sleep 100");
    }
    barrier.wait();
}

/// One writer's workload: `commits` cycles of checkout → insert → commit,
/// each from this writer's previous version, every commit held back
/// until all writers have staged theirs when `stall` is given. Returns
/// the committed vids.
fn writer_workload(
    addr: std::net::SocketAddr,
    w: usize,
    commits: usize,
    stall: Option<&Barrier>,
) -> Vec<u32> {
    let mut c = Client::connect(addr, &format!("w{w}")).unwrap();
    let mut parent = 0u32;
    let mut vids = Vec::new();
    for i in 0..commits {
        let table = format!("w{w}c{i}");
        tag_of(&mut c, &format!("checkout t -v {parent} -t {table}"));
        let k = 1000 + w * 100 + i;
        tag_of(&mut c, &format!("insert {table} {k},{w},{i}"));
        if let Some(barrier) = stall {
            stall_then_release(&mut c, w, barrier);
        }
        let tag = tag_of(&mut c, &format!("commit -t {table} -m w{w} c{i}"));
        let vid: u32 = tag
            .strip_prefix("COMMIT v")
            .unwrap_or_else(|| panic!("unexpected commit tag: {tag}"))
            .parse()
            .unwrap();
        parent = vid;
        vids.push(vid);
    }
    c.terminate().unwrap();
    vids
}

/// One parsed `log` entry.
struct LogEntry {
    vid: u32,
    parent: u32,
    author: String,
    msg: String,
}

/// Parse the `log t` text (latest first) into entries, oldest first.
fn parse_log(log: &str) -> Vec<LogEntry> {
    let lines: Vec<&str> = log.lines().collect();
    let mut entries = Vec::new();
    for pair in lines.chunks(2) {
        let [head, detail] = pair else {
            panic!("odd log line count in:\n{log}")
        };
        let (vid_part, parents) = head
            .trim_start_matches("* ")
            .split_once("  ← ")
            .unwrap_or_else(|| panic!("bad log head: {head}"));
        let vid: u32 = vid_part.trim_start_matches('v').parse().unwrap();
        let parent: u32 = if parents == "(root)" {
            0
        } else {
            parents.trim_start_matches('v').parse().unwrap()
        };
        let after_author = detail.trim().strip_prefix("author: ").unwrap();
        let (author, rest) = after_author.split_once("  records: ").unwrap();
        let (_records, msg) = rest.split_once("  msg: ").unwrap();
        entries.push(LogEntry {
            vid,
            parent,
            author: author.to_owned(),
            msg: msg.to_owned(),
        });
    }
    entries.sort_by_key(|e| e.vid);
    entries
}

/// The state-dump query set: every version's contents plus aggregates,
/// a diff, and the log itself.
fn dump_queries(max_vid: u32) -> Vec<String> {
    let mut qs = Vec::new();
    for v in 0..=max_vid {
        qs.push(format!("run SELECT * FROM VERSION {v} OF CVD t"));
    }
    qs.push("run SELECT vid, count(*) FROM CVD t GROUP BY vid".into());
    qs.push("run SELECT vid, sum(k) FROM CVD t GROUP BY vid".into());
    qs.push(format!("run SELECT * FROM V_DIFF({max_vid}, 0) OF CVD t"));
    qs.push("log t".into());
    qs
}

/// The last commit of the replay test evolves the schema: `w` widens
/// from int to float, and `note` is new.
const EVOLVED: &str = "k:int,w:float,i:int,note:text";

/// What a reader reads of its pin: every version's count, and v0 whole.
fn pinned_reads(c: &mut Client) -> [String; 2] {
    ["run SELECT vid, count(*) FROM CVD t GROUP BY vid", READ_V0]
        .map(|q| c.query(q).unwrap().render())
}

const READ_V0: &str = "run SELECT * FROM VERSION 0 OF CVD t";

/// A reply, typed: its column types, then its transcript.
fn typed(out: &CommandOutput) -> (Vec<DataType>, String) {
    let types = match out {
        CommandOutput::Table(table) => table.schema.columns().iter().map(|c| c.dtype).collect(),
        _ => Vec::new(),
    };
    (types, render_messages(&output_messages(out)))
}

/// N concurrent writers and M concurrent snapshot readers against one
/// server, then one schema-evolving commit while the readers are still
/// pinned; afterwards the server's final state must be byte-identical to
/// a serial replay of the same commit log in a fresh single-session db.
#[test]
fn concurrent_sessions_match_serial_replay() {
    const WRITERS: usize = 4;
    const READERS: usize = 3;
    const COMMITS: usize = 4;

    let csv = seed_csv("replay");
    let server = start_server(8, EngineConfig::default());
    let addr = server.local_addr();

    let mut admin = Client::connect(addr, "admin").unwrap();
    tag_of(&mut admin, &init_line(&csv));
    // What every pin reads of v0, whenever it was taken: the seed, typed
    // as it was loaded, read from an instance that only loaded it.
    let mut seeded = orpheus_core::OrpheusDb::new();
    seeded.execute_as("admin", &init_line(&csv)).unwrap();
    let (types, v0) = typed(&seeded.execute_as("admin", READ_V0).unwrap());
    assert_eq!(types, [DataType::Int64; 4], "rid, k, w, i");
    let v0 = &v0;

    let evolved = Barrier::new(READERS + 1);
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| s.spawn(move || writer_workload(addr, w, COMMITS, None)))
            .collect();
        for r in 0..READERS {
            let evolved = &evolved;
            s.spawn(move || {
                let mut c = Client::connect(addr, &format!("r{r}")).unwrap();
                let pin_tag = tag_of(&mut c, "pin t");
                assert!(pin_tag.starts_with("PIN t@v"), "{pin_tag}");
                // Snapshot reads are repeatable while writers commit…
                let baseline = pinned_reads(&mut c);
                let steady = (0..10).all(|_| {
                    std::thread::sleep(Duration::from_millis(5));
                    pinned_reads(&mut c) == baseline
                });
                // (checked past the barrier, which a panic would leave
                // the others waiting at)…
                evolved.wait();
                assert_eq!(&baseline[1], v0, "a pin reads the seed as typed");
                assert!(steady, "pinned read changed under writers");
                // …and after a commit widened and padded the records the
                // pin shares.
                let again = pinned_reads(&mut c);
                assert_eq!(again, baseline, "pinned read changed by an evolution");
                // Re-pinning advances to a fresh snapshot.
                tag_of(&mut c, "unpin t");
                tag_of(&mut c, "pin t");
                assert_ne!(pinned_reads(&mut c), baseline);
                c.terminate().unwrap();
            });
        }
        for w in writers {
            w.join().unwrap();
        }
        tag_of(&mut admin, "checkout t -v 0 -t evolve");
        tag_of(
            &mut admin,
            &format!("commit -t evolve -s {EVOLVED} -m evolve"),
        );
        evolved.wait();
    });

    // Every version committed exactly once.
    let log_text = tag_of(&mut admin, "log t");
    let entries = parse_log(&log_text);
    assert_eq!(entries.len(), 2 + WRITERS * COMMITS);

    // Serial replay: same commit log, fresh in-memory single-session db.
    let mut replay = orpheus_core::OrpheusDb::new();
    replay.execute_as("admin", &init_line(&csv)).unwrap();
    for e in entries.iter().filter(|e| e.vid > 0) {
        if e.msg == "evolve" {
            for line in [
                format!("checkout t -v {} -t evolve", e.parent),
                format!("commit -t evolve -s {EVOLVED} -m evolve"),
            ] {
                replay.execute_as(&e.author, &line).unwrap();
            }
            continue;
        }
        // Message "w{w} c{i}" determines the row the commit inserted.
        let (w_part, c_part) = e.msg.split_once(' ').unwrap();
        let w: usize = w_part.trim_start_matches('w').parse().unwrap();
        let i: usize = c_part.trim_start_matches('c').parse().unwrap();
        let table = format!("w{w}c{i}");
        replay
            .execute_as(&e.author, &format!("checkout t -v {} -t {table}", e.parent))
            .unwrap();
        let k = 1000 + w * 100 + i;
        replay
            .execute_as(&e.author, &format!("insert {table} {k},{w},{i}"))
            .unwrap();
        let out = replay
            .execute_as(&e.author, &format!("commit -t {table} -m {}", e.msg))
            .unwrap();
        assert_eq!(
            out,
            CommandOutput::Version(partition::Vid(e.vid)),
            "replay assigned a different vid for {}",
            e.msg
        );
    }

    // Byte-compare the full state dump, live server vs serial replay; the
    // replay's reads after the evolution are typed as it declared.
    let max_vid = entries.last().unwrap().vid;
    for q in dump_queries(max_vid) {
        let live = {
            let reply = admin.query(&q).unwrap();
            assert!(reply.error().is_none(), "`{q}` failed on the server");
            reply.render()
        };
        let (types, replayed) = typed(&replay.execute_as("admin", &q).unwrap());
        if q.contains("SELECT *") {
            let evolved = [DataType::Float64, DataType::Int64, DataType::Text];
            assert_eq!(types[2..], evolved, "`{q}`: rid, k, then w, i, note");
        }
        assert_eq!(live, replayed, "state diverged on `{q}`");
    }

    admin.terminate().unwrap();
    server.shutdown().unwrap();
    std::fs::remove_file(&csv).ok();
}

/// Group commit: under concurrent write load the WAL fsync count stays
/// strictly below the commit count (one durability point per batch).
#[test]
fn group_commit_batches_fsyncs_below_commit_count() {
    const WRITERS: usize = 8;
    const COMMITS: usize = 3;

    let dir = scratch("fsync");
    std::fs::remove_dir_all(&dir).ok();
    let csv = seed_csv("fsync");
    let server = start_server(
        WRITERS + 1,
        EngineConfig {
            data_dir: Some(dir.clone()),
            ..EngineConfig::default()
        },
    );
    let addr = server.local_addr();

    let mut admin = Client::connect(addr, "admin").unwrap();
    tag_of(&mut admin, &init_line(&csv));

    // Each wave of commits queues behind a stalled engine.
    let barrier = Barrier::new(WRITERS);
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let barrier = &barrier;
            s.spawn(move || writer_workload(addr, w, COMMITS, Some(barrier)));
        }
    });

    // `metrics` publishes the pagestore stats into the shared registry.
    tag_of(&mut admin, "metrics --json");
    let registry = server.registry().clone();
    let commits = registry.counter("orpheus.server.commits_total");
    let fsyncs = registry.counter("pagestore.wal.fsyncs");
    let batches = registry.counter("orpheus.server.group_commit.batches");
    assert_eq!(commits, (WRITERS * COMMITS) as u64);
    assert!(
        batches < commits,
        "batching never coalesced: {batches} batches"
    );
    assert!(
        fsyncs < commits,
        "group commit must fsync less than once per commit: {fsyncs} fsyncs, {commits} commits"
    );

    admin.terminate().unwrap();
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&csv).ok();
}

/// Regression: only `commit` took the group-commit path; `create_user`,
/// `init` and `drop` were acknowledged with their pages still dirty, and
/// lost if the server died before someone committed. Copy the page file
/// and the log from under the running server and open the copy.
#[test]
fn acknowledged_init_and_create_user_are_durable_before_any_commit() {
    let dir = scratch("ack");
    std::fs::remove_dir_all(&dir).ok();
    let csv = seed_csv("ack");
    let server = start_server(
        2,
        EngineConfig {
            data_dir: Some(dir.clone()),
            ..EngineConfig::default()
        },
    );
    let mut admin = Client::connect(server.local_addr(), "admin").unwrap();
    tag_of(&mut admin, "create_user carol");
    tag_of(&mut admin, &init_line(&csv));
    tag_of(&mut admin, &init_line(&csv).replace("init t", "init gone"));
    tag_of(&mut admin, "drop gone");

    let copy = scratch("ack-copy");
    std::fs::remove_dir_all(&copy).ok();
    std::fs::create_dir_all(&copy).unwrap();
    for file in ["pages.db", "wal.log"] {
        std::fs::copy(dir.join(file), copy.join(file)).unwrap();
    }
    let (mut db, _) = orpheus_core::OrpheusDb::open_durable(&copy, 64).unwrap();
    db.login("carol").expect("the created user is there");
    assert_eq!(
        db.list_cvds(),
        ["t"],
        "init and drop both reached the store"
    );
    assert!(db.log("t").unwrap().contains("* v0"), "with its v0");
    let v0 = db.run("SELECT * FROM VERSION 0 OF CVD t").unwrap();
    assert_eq!(v0.rows.len(), 20);
    assert!(!dir.join("catalog.orc").exists(), "one store, one file");

    admin.terminate().unwrap();
    server.shutdown().unwrap();
    for d in [&dir, &copy] {
        std::fs::remove_dir_all(d).ok();
    }
    std::fs::remove_file(&csv).ok();
}

/// A full admission queue rejects new commits with the typed `53300`
/// error immediately — no hang, no unbounded queueing.
#[test]
fn full_admission_queue_rejects_commits_over_the_wire() {
    let server = start_server(
        8,
        EngineConfig {
            admission_capacity: 2,
            ..EngineConfig::default()
        },
    );
    let addr = server.local_addr();

    let mut admin = Client::connect(addr, "admin").unwrap();
    // Stall the engine so queued commits cannot drain while we overflow.
    tag_of(&mut admin, "sleep 400");
    std::thread::sleep(Duration::from_millis(30));

    let outcomes: Vec<(String, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                s.spawn(move || {
                    let mut c = Client::connect(addr, &format!("w{i}")).unwrap();
                    // Fails either way (nothing checked out); what matters
                    // is *which* error and that it returns promptly.
                    let reply = c.query("commit -t none -m x").unwrap();
                    let (code, msg) = reply.error().expect("commit must fail");
                    let out = (code.to_owned(), msg.to_owned());
                    c.terminate().unwrap();
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let rejected = outcomes.iter().filter(|(c, _)| c == "53300").count();
    let applied = outcomes.iter().filter(|(c, _)| c == "42P01").count();
    assert_eq!(rejected + applied, 6);
    assert!(
        rejected >= 1,
        "overflowing a capacity-2 queue with 6 commits must reject some: {outcomes:?}"
    );
    assert!(outcomes
        .iter()
        .filter(|(c, _)| c == "53300")
        .all(|(_, m)| m.contains("retry later")));
    assert!(
        server
            .registry()
            .counter("orpheus.server.backpressure_rejections")
            >= 1
    );

    admin.terminate().unwrap();
    server.shutdown().unwrap();
}

/// When every session worker is busy and the hand-off buffer is full,
/// a new connection is refused with the typed backpressure error.
#[test]
fn session_overflow_is_refused_with_typed_error() {
    let server = start_server(1, EngineConfig::default());
    let addr = server.local_addr();

    // Occupies the single worker.
    let mut c1 = Client::connect(addr, "alice").unwrap();
    tag_of(&mut c1, "whoami");
    // Occupies the single hand-off slot (never completes startup).
    let _parked = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(50));

    // The third connection must be refused, not queued.
    match Client::connect(addr, "carol") {
        Err(ClientError::Rejected { code, message }) => {
            assert_eq!(code, "53300");
            assert!(message.contains("too many sessions"), "{message}");
        }
        Err(other) => panic!("expected a 53300 rejection, got {other:?}"),
        Ok(_) => panic!("expected a 53300 rejection, got a session"),
    }

    c1.terminate().unwrap();
    server.shutdown().unwrap();
}

/// End-to-end tracing: 8 concurrent clients issue traced commits; the
/// server's journal export must show, for every committed query's trace
/// id, the request span plus a WAL-fsync event (the real span on the
/// batch leader, the shared-attribution event on followers), and a traced
/// read must carry its engine-side query span and its reply span.
#[test]
fn traced_queries_export_complete_traces() {
    const WRITERS: usize = 8;

    let dir = scratch("trace");
    std::fs::remove_dir_all(&dir).ok();
    let csv = seed_csv("trace");
    let server = start_server(
        WRITERS + 1,
        EngineConfig {
            data_dir: Some(dir.clone()),
            ..EngineConfig::default()
        },
    );
    let addr = server.local_addr();

    let mut admin = Client::connect(addr, "admin").unwrap();
    tag_of(&mut admin, &init_line(&csv));

    // Trace-unaware clients still get a server-minted trace id back.
    let minted = admin.query("whoami").unwrap().trace();
    assert!(
        minted.is_some_and(|t| t != 0),
        "no minted trace: {minted:?}"
    );

    // One traced commit per writer, under caller-chosen trace ids, all
    // queued behind a stalled engine so they share a batch.
    let barrier = Barrier::new(WRITERS);
    let commit_traces: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut c = Client::connect(addr, &format!("w{w}")).unwrap();
                    let trace = 0x7e57_0000_0000_0100 + w as u64;
                    let table = format!("tw{w}");
                    tag_of(&mut c, &format!("checkout t -v 0 -t {table}"));
                    tag_of(&mut c, &format!("insert {table} {},{w},0", 2000 + w));
                    stall_then_release(&mut c, w, barrier);
                    let reply = c
                        .query_traced(&format!("commit -t {table} -m t{w}"), trace)
                        .unwrap();
                    assert!(reply.error().is_none(), "{:?}", reply.error());
                    assert_eq!(reply.trace(), Some(trace), "wire trace must be echoed");
                    c.terminate().unwrap();
                    trace
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // A traced read: the engine's query span and the session's reply
    // span re-attach to it.
    let read_trace = 0x7e57_0000_0000_1000u64;
    let reply = admin
        .query_traced("run SELECT * FROM VERSION 0 OF CVD t", read_trace)
        .unwrap();
    assert!(reply.error().is_none(), "{:?}", reply.error());
    assert_eq!(reply.trace(), Some(read_trace));

    // Export the journal and index event names by trace id.
    let dump = tag_of(&mut admin, "trace dump --json");
    let mut by_trace: std::collections::HashMap<u64, Vec<String>> =
        std::collections::HashMap::new();
    for line in dump.lines().filter(|l| !l.trim().is_empty()) {
        let ev = obs::json::parse(line).expect("chrome trace line must parse");
        let name = ev
            .get("name")
            .and_then(obs::json::Json::as_str)
            .expect("event has a name")
            .to_owned();
        let trace = ev
            .get_path("args/trace")
            .and_then(obs::json::Json::as_str)
            .expect("event has args.trace");
        let trace = u64::from_str_radix(trace.trim_start_matches("0x"), 16).unwrap();
        by_trace.entry(trace).or_default().push(name);
    }

    for &trace in &commit_traces {
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
    let read_names = by_trace
        .get(&read_trace)
        .unwrap_or_else(|| panic!("no journal events for read trace {read_trace:#x}"));
    for span in ["orpheus.query", "orpheus.server.reply"] {
        assert!(
            read_names.iter().any(|n| n == span),
            "{span} did not re-attach to the read trace: {read_names:?}"
        );
    }

    admin.terminate().unwrap();
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&csv).ok();
}

/// No session can change a server-wide setting: `threads` is not a
/// command, so it is answered with a parse error frame and the session
/// goes on. (It used to set the engine's worker count for every session.)
#[test]
fn a_session_cannot_set_a_server_wide_knob() {
    let server = start_server(2, EngineConfig::default());
    let mut c = Client::connect(server.local_addr(), "a").unwrap();
    for line in ["threads 4", "threads"] {
        let reply = c.query(line).unwrap();
        let (code, msg) = reply.error().unwrap_or_else(|| panic!("{line}: {reply:?}"));
        assert_eq!(code, "42601", "{line}: {msg}");
        assert!(msg.contains("unknown command: threads"), "{line}: {msg}");
    }
    let whoami = c.query("whoami").unwrap();
    assert!(whoami.error().is_none(), "{:?}", whoami.error());
    c.terminate().unwrap();
    server.shutdown().unwrap();
}

/// Pinned snapshots are immutable: a writer's commit is invisible until
/// the reader re-pins.
#[test]
fn snapshot_isolation_across_sessions() {
    let csv = seed_csv("iso");
    let server = start_server(4, EngineConfig::default());
    let addr = server.local_addr();

    let mut admin = Client::connect(addr, "admin").unwrap();
    tag_of(&mut admin, &init_line(&csv));

    let mut reader = Client::connect(addr, "reader").unwrap();
    let pin0 = tag_of(&mut reader, "pin t");
    assert!(pin0.starts_with("PIN t@v0 (1 versions)"), "{pin0}");
    let before = reader
        .query("run SELECT vid, count(*) FROM CVD t GROUP BY vid")
        .unwrap()
        .render();

    let mut writer = Client::connect(addr, "writer").unwrap();
    tag_of(&mut writer, "checkout t -v 0 -t wtab");
    tag_of(&mut writer, "insert wtab 999,9,9");
    assert_eq!(tag_of(&mut writer, "commit -t wtab -m grow"), "COMMIT v1");

    // Pinned view unchanged; the engine view (log) already moved on.
    let after = reader
        .query("run SELECT vid, count(*) FROM CVD t GROUP BY vid")
        .unwrap()
        .render();
    assert_eq!(before, after);
    assert!(tag_of(&mut reader, "log t").contains("* v1"));

    // Re-pin: the new version becomes visible.
    tag_of(&mut reader, "pin t");
    let repinned = reader
        .query("run SELECT vid, count(*) FROM CVD t GROUP BY vid")
        .unwrap()
        .render();
    assert_ne!(before, repinned);
    // v1 = the 20 seed rows plus the writer's insert.
    assert!(repinned.contains("1 | 21"), "{repinned}");

    reader.terminate().unwrap();
    writer.terminate().unwrap();
    admin.terminate().unwrap();
    server.shutdown().unwrap();
    std::fs::remove_file(&csv).ok();
}

/// Gauge `orpheus.server.pinned_bytes`, read over the wire, counts what
/// live pins hold of their own: it grows with a pin, a re-pin replaces
/// the old snapshot's share, and it is 0 again after an unpin and after a
/// pinned session disconnects.
#[test]
fn pinned_bytes_follow_the_live_pins() {
    let csv = seed_csv("pinned-bytes");
    let server = start_server(4, EngineConfig::default());
    let addr = server.local_addr();
    let mut admin = Client::connect(addr, "admin").unwrap();
    tag_of(&mut admin, &init_line(&csv));
    let mut gauge = || {
        let json = obs::json::parse(&tag_of(&mut admin, "metrics --json")).unwrap();
        let bytes = json.get_path("gauges/orpheus.server.pinned_bytes");
        bytes.and_then(obs::json::Json::as_f64).unwrap()
    };
    assert_eq!(gauge(), 0.0);

    let mut reader = Client::connect(addr, "reader").unwrap();
    tag_of(&mut reader, "pin t");
    let one = gauge();
    assert!(one > 0.0, "{one}");
    tag_of(&mut reader, "pin t");
    assert_eq!(gauge(), one, "a re-pin replaces the pin");
    tag_of(&mut reader, "unpin t");
    assert_eq!(gauge(), 0.0);
    tag_of(&mut reader, "pin t");
    assert_eq!(gauge(), one);
    reader.terminate().unwrap();
    // The server notices the disconnect on the session's own thread.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while gauge() != 0.0 {
        assert!(
            std::time::Instant::now() < deadline,
            "a closed session's pin"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    admin.terminate().unwrap();
    server.shutdown().unwrap();
    std::fs::remove_file(&csv).ok();
}

/// A bad query answers with the same error frame whether or not the
/// session has pinned the CVD: the pinned path runs on the session thread
/// but maps errors through the engine's one SQLSTATE table. (It used to
/// answer `XX000` for everything, so an unknown version was `42P01`
/// unpinned and `XX000` pinned.)
#[test]
fn pinned_and_unpinned_error_frames_are_identical() {
    let csv = seed_csv("errs");
    let server = start_server(4, EngineConfig::default());
    let addr = server.local_addr();

    let mut admin = Client::connect(addr, "admin").unwrap();
    tag_of(&mut admin, &init_line(&csv));

    let mut unpinned = Client::connect(addr, "plain").unwrap();
    let mut pinned = Client::connect(addr, "pinner").unwrap();
    tag_of(&mut pinned, "pin t");
    // The pin really serves reads locally.
    tag_of(&mut pinned, "run SELECT * FROM VERSION 0 OF CVD t");

    for (line, code) in [
        // Unknown version.
        ("run SELECT * FROM VERSION 999 OF CVD t", "42P01"),
        ("run SELECT * FROM V_DIFF(0, 999) OF CVD t", "42P01"),
        // Unknown column in WHERE: a storage-level error, internal.
        (
            "run SELECT * FROM VERSION 0 OF CVD t WHERE nope > 1",
            "XX000",
        ),
        // Unknown CVD in a JOIN.
        (
            "run SELECT * FROM VERSION 0 OF CVD nope JOIN VERSION 0 ON k",
            "42P01",
        ),
        // A version id past u32 is a parse error, not version 1.
        ("run SELECT * FROM VERSION 4294967297 OF CVD t", "42601"),
    ] {
        let want = unpinned.query(line).unwrap();
        let got = pinned.query(line).unwrap();
        assert_eq!(want.error().map(|(c, _)| c), Some(code), "{line}");
        assert_eq!(got.messages, want.messages, "{line}");
    }

    pinned.terminate().unwrap();
    unpinned.terminate().unwrap();
    admin.terminate().unwrap();
    server.shutdown().unwrap();
    std::fs::remove_file(&csv).ok();
}
