//! The reply path against real sockets: peers that stall mid-frame,
//! results larger than the flush window, and frames over the limit.
//!
//! Every test that used to hang runs under a watchdog, so a regression is
//! a failed assertion, not a hung CI.

use orpheus_core::{CommandOutput, OrpheusDb};
use orpheus_server::protocol::{self, MAX_FRAME, WINDOW};
use orpheus_server::{
    client::render_messages, output_messages, Client, ClientError, ClientMsg, EngineConfig, Server,
    ServerConfig, ServerMsg,
};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("orpheus-reply-{tag}-{}", std::process::id()))
}

fn start_server(workers: usize) -> Server {
    Server::start(ServerConfig {
        port: 0,
        workers,
        engine: EngineConfig::default(),
    })
    .unwrap()
}

fn ok(c: &mut Client, line: &str) -> orpheus_server::Reply {
    let reply = c.query(line).unwrap();
    if let Some((code, msg)) = reply.error() {
        panic!("`{line}` failed [{code}]: {msg}");
    }
    reply
}

/// Run `body` on a thread of its own and fail if it is still running
/// after `secs`: the bugs below were hangs.
fn within(secs: u64, what: &str, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        body();
        tx.send(()).ok();
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Err(RecvTimeoutError::Timeout) => panic!("{what}: still running after {secs} s"),
        // Finished, or panicked (the sender dropped): join surfaces which.
        _ => runner.join().unwrap(),
    }
}

/// A peer that sends `Q` + two length bytes and goes quiet used to hold
/// its worker in an unbounded mid-frame retry, so `Server::shutdown`,
/// which joins the workers, never returned.
#[test]
fn a_stalled_half_frame_does_not_wedge_shutdown() {
    within(20, "shutdown behind a half frame", || {
        let server = start_server(2);
        let mut peer = TcpStream::connect(server.local_addr()).unwrap();
        let hello = ClientMsg::Startup {
            user: "loris".into(),
        };
        protocol::write_client(&mut peer, &hello).unwrap();
        // The worker is serving this session once it has answered.
        assert!(matches!(
            protocol::read_server(&mut peer).unwrap(),
            ServerMsg::StartupOk { .. }
        ));
        peer.write_all(&[b'Q', 0, 0]).unwrap();
        let started = Instant::now();
        server.shutdown().unwrap();
        assert!(started.elapsed() < Duration::from_secs(6));
        // The session ended on the stall; the peer sees its socket closed.
        assert!(protocol::read_server(&mut peer).is_err());
    });
}

/// `refuse` ran a whole-frame read on the acceptor thread: one refused
/// peer sending a single byte stopped the server accepting anyone.
#[test]
fn a_half_frame_on_a_refused_connection_does_not_stop_the_acceptor() {
    within(20, "accepting behind a refused half frame", || {
        let server = start_server(1);
        let addr = server.local_addr();
        // Occupies the one worker…
        let mut c1 = Client::connect(addr, "alice").unwrap();
        ok(&mut c1, "whoami");
        // …and the one hand-off slot (never completes startup).
        let _parked = TcpStream::connect(addr).unwrap();
        // Refused, having sent one byte of a startup frame.
        let mut half = TcpStream::connect(addr).unwrap();
        half.write_all(b"U").unwrap();
        // The next connection still gets its typed refusal.
        match Client::connect(addr, "carol") {
            Err(ClientError::Rejected { code, .. }) => assert_eq!(code, "53300"),
            Err(other) => panic!("expected a 53300 rejection, got {other:?}"),
            Ok(_) => panic!("expected a 53300 rejection, got a session"),
        }
        // So did the half-frame peer.
        match protocol::read_server(&mut half).unwrap() {
            ServerMsg::Error { code, .. } => assert_eq!(code, "53300"),
            other => panic!("expected a 53300 rejection, got {other:?}"),
        }
        c1.terminate().unwrap();
        server.shutdown().unwrap();
    });
}

/// `sleep 18446744073709551615` parsed, and the engine thread slept for
/// ever: every later commit, unpinned query and pin of every session
/// waited behind it, and `Server::shutdown` never joined. A stall past
/// 10 s is now a parse error, and the engine answers the next line at once.
#[test]
fn a_sleep_past_ten_seconds_is_refused_and_the_engine_stays_free() {
    within(8, "the engine behind a refused sleep", || {
        let server = start_server(2);
        let mut c = Client::connect(server.local_addr(), "napper").unwrap();
        for line in ["sleep 18446744073709551615", "sleep 10001"] {
            let reply = c.query(line).unwrap();
            let want = ("42601", "usage: sleep <millis>");
            assert_eq!(reply.error(), Some(want), "{line}");
        }
        let started = Instant::now();
        let log = c.query("log nope").unwrap();
        assert_eq!(log.error().map(|(code, _)| code), Some("42P01"));
        assert!(started.elapsed() < Duration::from_secs(2));
        c.terminate().unwrap();
        server.shutdown().unwrap();
    });
}

/// A line that does not parse is answered by the session, before the
/// engine sees it, so it no longer registers its user as any line the
/// engine runs does.
#[test]
fn a_line_that_does_not_parse_registers_nobody() {
    let server = start_server(2);
    let addr = server.local_addr();
    let mut admin = Client::connect(addr, "admin").unwrap();
    let mut ghost = Client::connect(addr, "ghost").unwrap();
    let reply = ghost.query("bogus_cmd").unwrap();
    let want = ("42601", "parse error: unknown command: bogus_cmd");
    assert_eq!(reply.error(), Some(want));
    let config = admin.query("config ghost").unwrap();
    assert_eq!(
        config.error().map(|(_, msg)| msg),
        Some("user error: no such user: ghost")
    );
    ok(&mut ghost, "whoami");
    ok(&mut admin, "config ghost");
    ghost.terminate().unwrap();
    admin.terminate().unwrap();
    server.shutdown().unwrap();
}

/// A result several windows long, pinned (streamed from the operator
/// root, flushed per window) and unpinned (rendered from the engine's
/// whole answer): the same frames, and the frames the library's own
/// answer renders to.
#[test]
fn a_pinned_reply_longer_than_the_window_matches_unpinned_and_library() {
    let csv = scratch("wide.csv");
    let mut text = String::from("k,a,b\n");
    for k in 0..6000 {
        text.push_str(&format!("{k},{},{}\n", k * 7 % 1013, k * 31));
    }
    std::fs::write(&csv, &text).unwrap();
    let init = format!("init t -f {} -s k:int,a:int,b:int -k k", csv.display());
    let sql = "SELECT * FROM VERSION 0 OF CVD t WHERE a > 100";

    let mut db = OrpheusDb::new();
    db.create_user("admin").unwrap();
    db.execute_as("admin", &init).unwrap();
    let library = CommandOutput::Table(db.run(sql).unwrap());
    let want = output_messages(&library);

    let server = start_server(3);
    let addr = server.local_addr();
    let mut admin = Client::connect(addr, "admin").unwrap();
    ok(&mut admin, &init);
    let mut pinned = Client::connect(addr, "pinner").unwrap();
    ok(&mut pinned, "pin t");

    let counters = |name: &str| server.registry().counter(&format!("orpheus.server.{name}"));
    let before = (
        counters("reply_flushes_total"),
        counters("reply_bytes_total"),
        counters("snapshot_reads_total"),
    );
    let streamed = ok(&mut pinned, &format!("run {sql}"));
    let flushes = counters("reply_flushes_total") - before.0;
    let bytes = counters("reply_bytes_total") - before.1;
    assert_eq!(counters("snapshot_reads_total") - before.2, 1);
    // One write per window, and the last.
    assert!(bytes as usize > 3 * WINDOW, "{bytes} bytes");
    assert_eq!(flushes, bytes / WINDOW as u64 + 1, "{bytes} bytes");

    let whole = ok(&mut admin, &format!("run {sql}"));
    let strip = |reply: &orpheus_server::Reply| -> Vec<ServerMsg> {
        let mut msgs = reply.messages.clone();
        for msg in &mut msgs {
            if let ServerMsg::CommandComplete { trace, .. } = msg {
                assert!(trace.is_some());
                *trace = None;
            }
        }
        msgs
    };
    assert_eq!(strip(&streamed), want);
    assert_eq!(strip(&whole), want);
    assert_eq!(streamed.render(), render_messages(&want));
    assert!(want.len() > 5000, "{} messages", want.len());

    pinned.terminate().unwrap();
    admin.terminate().unwrap();
    server.shutdown().unwrap();
    std::fs::remove_file(&csv).ok();
}

/// One row wider than `MAX_FRAME`: the reply used to die mid-write with
/// the connection; now both the streamed and the rendered path answer
/// `54000` and go on serving the session.
#[test]
fn an_over_limit_row_answers_54000_and_the_session_lives() {
    let csv = scratch("huge.csv");
    let half = "y".repeat(MAX_FRAME as usize / 2 + 1);
    std::fs::write(&csv, format!("k,a,b\n1,{half},{half}\n2,small,row\n")).unwrap();
    let init = format!("init t -f {} -s k:int,a:text,b:text -k k", csv.display());

    let server = start_server(3);
    let addr = server.local_addr();
    let mut plain = Client::connect(addr, "admin").unwrap();
    ok(&mut plain, &init);
    let mut pinned = Client::connect(addr, "pinner").unwrap();
    ok(&mut pinned, "pin t");

    for c in [&mut plain, &mut pinned] {
        let reply = c.query("run SELECT * FROM VERSION 0 OF CVD t").unwrap();
        assert_eq!(reply.error().map(|(code, _)| code), Some("54000"));
        assert_eq!(reply.messages.len(), 1, "the error alone");
        // The same session answers the next query, rows and all.
        let next = ok(c, "run SELECT * FROM VERSION 0 OF CVD t WHERE k > 1");
        assert_eq!(next.tag(), Some("SELECT 1"));
        assert_eq!(next.rows()[0][2].as_deref(), Some("small"));
    }

    pinned.terminate().unwrap();
    plain.terminate().unwrap();
    server.shutdown().unwrap();
    std::fs::remove_file(&csv).ok();
}
