//! Per-connection session handling.
//!
//! A session is one TCP connection, served start-to-finish by one worker
//! thread from the server's session pool. The lifecycle is:
//!
//! 1. **Startup** — the first frame must be `Startup{user}`; the server
//!    answers `StartupOk{session_id}` (or a `PROTOCOL` error and closes).
//! 2. **Query loop** — each `Query` frame gets `[RowDescription DataRow*]
//!    (CommandComplete | Error)` followed by `Ready`, rendered as wire
//!    bytes into the session's one frame buffer and written when the
//!    reply ends or the buffer passes the window ([`Reply`]). Errors do
//!    not kill the session.
//! 3. **Terminate** — an `X` frame (or EOF) ends the session.
//!
//! Routing inside the query loop is what makes readers lock-free. The
//! session answers its own three verbs; every other line is parsed once,
//! here, into a [`Command`]:
//!
//! * `pin <cvd>` asks the engine for an immutable [`Snapshot`] and caches
//!   it in the session. From then on `run SELECT … OF CVD <cvd>` is
//!   evaluated *on the session thread* against the snapshot, from the
//!   query already parsed — no engine round-trip, no lock, and repeatable
//!   reads until `unpin`/re-`pin` — and its rows go from the operator
//!   root straight into the reply. `sleep <millis>` (≤ 10 s) is a test
//!   hook that stalls the engine.
//! * a line that does not parse is answered here, without an engine
//!   round trip.
//! * every other command goes to the engine parsed, with its line beside
//!   it for the slow-query log. The engine decides from the command
//!   ([`Command::is_durable`]) which ones — `commit`, `init`, `drop`,
//!   `create_user` — take the bounded admission queue and the
//!   group-commit path, so their reply follows the batch's durability
//!   point.

use crate::engine::{map_err, EngineError, EngineHandle};
use crate::protocol::{self, code, ClientMsg, FrameBuf, Framed, ProtoError, ServerMsg};
use obs::Registry;
use orpheus_core::{Command, CommandOutput, Snapshot};
use relstore::{Schema, Value};
use std::collections::HashMap;
use std::fmt::Display;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How often a blocked session read wakes up to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(200);

/// Where a command's output goes, frame by frame: wire bytes in the
/// session's buffer ([`Reply`], the live server) or messages
/// (`Vec<ServerMsg>`, the transcript oracle). [`render`] and a pinned
/// `run` are the only producers, so the two can never disagree; `Reply`
/// writes a table row's integers without `fmt`, and a test pins its bytes
/// to `write_server` over the oracle's messages.
trait Sink {
    fn columns<D: Display>(&mut self, names: impl ExactSizeIterator<Item = D>) -> Framed;

    fn row<D: Display>(&mut self, fields: impl ExactSizeIterator<Item = Option<D>>) -> Framed;

    fn complete(&mut self, tag: &impl Display) -> Framed;

    fn table_head(&mut self, schema: &Schema) -> Framed {
        self.columns(schema.columns().iter().map(|c| c.name.as_str()))
    }

    fn table_row(&mut self, row: &[Value]) -> Framed {
        self.row(row.iter().map(|v| (!v.is_null()).then_some(v)))
    }

    fn table_end(&mut self, rows: usize) -> Framed {
        self.complete(&format_args!("SELECT {rows}"))
    }
}

/// The one walk over a command's output.
fn render(out: &CommandOutput, sink: &mut impl Sink) -> Framed {
    match out {
        CommandOutput::Table(t) => {
            sink.table_head(&t.schema)?;
            for row in &t.rows {
                sink.table_row(row)?;
            }
            sink.table_end(t.rows.len())
        }
        CommandOutput::Version(v) => sink.complete(&format_args!("COMMIT {v}")),
        CommandOutput::Message(m) => sink.complete(m),
        CommandOutput::Listing(items) => {
            sink.columns(["name"].into_iter())?;
            for item in items {
                sink.row([Some(item)].into_iter())?;
            }
            sink.complete(&format_args!("LIST {}", items.len()))
        }
    }
}

/// Trace-agnostic: the live server writes the request's trace id where it
/// encodes `CommandComplete`, so replay transcripts stay byte-identical.
impl Sink for Vec<ServerMsg> {
    fn columns<D: Display>(&mut self, names: impl ExactSizeIterator<Item = D>) -> Framed {
        let columns = names.map(|c| c.to_string()).collect();
        self.push(ServerMsg::RowDescription { columns });
        Ok(())
    }

    fn row<D: Display>(&mut self, fields: impl ExactSizeIterator<Item = Option<D>>) -> Framed {
        let fields = fields.map(|f| f.map(|v| v.to_string())).collect();
        self.push(ServerMsg::DataRow { fields });
        Ok(())
    }

    fn complete(&mut self, tag: &impl Display) -> Framed {
        let (tag, trace) = (tag.to_string(), None);
        self.push(ServerMsg::CommandComplete { tag, trace });
        Ok(())
    }
}

/// Render one command output as its wire messages: the message sink of the
/// walk the live server renders into bytes. The transcript oracle of the
/// serial-replay harnesses.
pub fn output_messages(out: &CommandOutput) -> Vec<ServerMsg> {
    let mut msgs = Vec::new();
    // The message sink never fails.
    drop(render(out, &mut msgs));
    msgs
}

/// Why a reply stopped short: the command failed — the client gets an `E`
/// frame and the session goes on — or the wire did, and the session ends.
enum ReplyError {
    Command(EngineError),
    Wire(ProtoError),
}

impl From<EngineError> for ReplyError {
    fn from(e: EngineError) -> Self {
        ReplyError::Command(e)
    }
}

impl From<orpheus_core::Error> for ReplyError {
    fn from(e: orpheus_core::Error) -> Self {
        ReplyError::Command(map_err(&e))
    }
}

impl From<ProtoError> for ReplyError {
    fn from(e: ProtoError) -> Self {
        match e {
            // The frame was rolled back before any of it left the buffer,
            // so an over-limit result is a failed command, not a dead wire.
            ProtoError::TooLarge(n) => ReplyError::Command(EngineError {
                code: code::LIMIT,
                message: format!("reply frame of {n} bytes exceeds MAX_FRAME"),
            }),
            e => ReplyError::Wire(e),
        }
    }
}

/// One query's reply: frames are rendered straight into the session's
/// buffer and reach `out` in one write when the reply ends or whenever the
/// buffer passes [`protocol::WINDOW`], so memory is bounded by the window
/// plus one frame however large the result. The buffer is empty between
/// replies.
struct Reply<'a, W: Write> {
    buf: &'a mut FrameBuf,
    out: W,
    /// Counts each write (`orpheus.server.reply_flushes_total`) and its
    /// bytes (`…reply_bytes_total`) before making it, so a client that
    /// has read its reply finds the reply counted.
    registry: &'a Registry,
    /// Echoed on `CommandComplete` so the client can correlate its reply
    /// with a server-side `trace dump`.
    trace: u64,
    /// Whether part of the reply has been handed to `out`.
    flushed: bool,
}

impl<'a, W: Write> Reply<'a, W> {
    fn new(buf: &'a mut FrameBuf, out: W, registry: &'a Registry, trace: u64) -> Self {
        Reply {
            buf,
            out,
            registry,
            trace,
            flushed: false,
        }
    }

    fn flush(&mut self) -> Framed {
        let bytes = self.buf.bytes();
        self.registry
            .counter_add("orpheus.server.reply_flushes_total", 1);
        self.registry
            .counter_add("orpheus.server.reply_bytes_total", bytes.len() as u64);
        self.flushed = true;
        self.out.write_all(bytes)?;
        self.buf.clear();
        Ok(())
    }

    /// Append a frame; past the window, hand over what is there.
    fn frame(&mut self, encode: impl FnOnce(&mut FrameBuf) -> Framed) -> Framed {
        encode(self.buf)?;
        if self.buf.bytes().len() >= protocol::WINDOW {
            self.flush()?;
        }
        Ok(())
    }

    /// End the reply: on a failed command the `E` frame — alone, if nothing
    /// was flushed yet (what was rendered is rolled back), after the rows
    /// already sent otherwise — then `Z`, then the last write.
    fn finish(mut self, result: Result<(), ReplyError>) -> Result<(), ProtoError> {
        match result {
            Ok(()) => {}
            Err(ReplyError::Wire(e)) => return Err(e),
            Err(ReplyError::Command(e)) => {
                if !self.flushed {
                    self.buf.clear();
                }
                self.buf.error(e.code, &e.message).or_else(|_| {
                    self.buf
                        .error(code::LIMIT, "error message exceeds MAX_FRAME")
                })?;
            }
        }
        self.buf.server(&ServerMsg::Ready)?;
        self.flush()
    }
}

impl<W: Write> Sink for Reply<'_, W> {
    fn columns<D: Display>(&mut self, names: impl ExactSizeIterator<Item = D>) -> Framed {
        self.frame(|buf| buf.fields(b'T', names.map(Some)))
    }

    fn row<D: Display>(&mut self, fields: impl ExactSizeIterator<Item = Option<D>>) -> Framed {
        self.frame(|buf| buf.fields(b'D', fields))
    }

    /// Integers and NULLs skip `fmt`; the bytes are `row`'s.
    fn table_row(&mut self, row: &[Value]) -> Framed {
        self.frame(|buf| buf.value_row(row))
    }

    /// No window check: `Z` and the reply's last write follow at once.
    fn complete(&mut self, tag: &impl Display) -> Framed {
        self.buf.command_complete(tag, Some(self.trace))
    }
}

/// Shared per-server session bookkeeping (active-session gauge, and the
/// bytes live pins hold).
pub(crate) struct SessionCounters {
    pub active: AtomicUsize,
    /// Changed only together with its gauge, under this lock, so the
    /// gauge always shows the last total.
    pub pinned_bytes: Mutex<usize>,
}

/// A session's pinned snapshots, by CVD. What they hold of their own
/// ([`Snapshot::pinned_bytes`]) is counted server-wide in gauge
/// `orpheus.server.pinned_bytes` while they live: a pin adds it; an unpin,
/// the snapshot a re-pin replaces and the session's end take it away.
struct Pins<'a> {
    by_cvd: HashMap<String, Snapshot>,
    bytes: &'a Mutex<usize>,
    registry: &'a Registry,
}

impl Pins<'_> {
    /// Pin `snap` for `cvd`, or unpin `cvd` (`None`). Whether a snapshot
    /// of `cvd` was pinned before.
    fn set(&mut self, cvd: &str, snap: Option<Snapshot>) -> bool {
        let size = |s: &Option<Snapshot>| s.as_ref().map_or(0, Snapshot::pinned_bytes);
        let added = size(&snap);
        let old = match snap {
            Some(snap) => self.by_cvd.insert(cvd.to_owned(), snap),
            None => self.by_cvd.remove(cvd),
        };
        let mut total = self.bytes.lock().unwrap_or_else(PoisonError::into_inner);
        *total = *total + added - size(&old);
        let gauge = "orpheus.server.pinned_bytes";
        self.registry.gauge_set(gauge, *total as f64);
        old.is_some()
    }
}

impl Drop for Pins<'_> {
    fn drop(&mut self) {
        let cvds: Vec<String> = self.by_cvd.keys().cloned().collect();
        for cvd in cvds {
            self.set(&cvd, None);
        }
    }
}

/// Serve one connection to completion. Returns `Ok` for every orderly
/// close (terminate, EOF, server shutdown) and `Err` only for transport
/// faults worth logging.
pub(crate) fn serve_session(
    stream: TcpStream,
    session_id: u64,
    engine: &EngineHandle,
    counters: &SessionCounters,
    shutdown: &AtomicBool,
) -> Result<(), ProtoError> {
    drop(stream.set_nodelay(true));
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    // A peer that stops reading stalls a reply no longer than one that
    // stops writing stalls a request.
    stream.set_write_timeout(Some(POLL_INTERVAL * protocol::STALL_TICKS))?;
    let registry = engine.registry().clone();
    // Requests are read through a buffer: a frame costs a copy, not three
    // system calls, and a timeout never loses bytes already taken.
    let mut requests = BufReader::new(&stream);

    // Startup handshake.
    let user = loop {
        match protocol::read_client(&mut requests) {
            Ok(ClientMsg::Startup { user }) => break user,
            Ok(_) => {
                let mut frame = FrameBuf::default();
                frame.error(code::PROTOCOL, "expected a startup frame")?;
                return Ok((&stream).write_all(frame.bytes())?);
            }
            Err(ProtoError::Timeout) => {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(ProtoError::Closed) => return Ok(()),
            Err(e) => return Err(e),
        }
    };
    protocol::write_server(&mut &stream, &ServerMsg::StartupOk { session_id })?;
    registry.counter_add("orpheus.server.sessions_total", 1);
    let active = counters.active.fetch_add(1, Ordering::SeqCst) + 1;
    registry.gauge_set("orpheus.server.active_sessions", active as f64);

    let pins = Pins {
        by_cvd: HashMap::new(),
        bytes: &counters.pinned_bytes,
        registry: &registry,
    };
    let result = query_loop(&mut requests, &stream, &user, engine, pins, shutdown);

    let active = counters.active.fetch_sub(1, Ordering::SeqCst) - 1;
    registry.gauge_set("orpheus.server.active_sessions", active as f64);
    result
}

fn query_loop(
    requests: &mut impl Read,
    stream: &TcpStream,
    user: &str,
    engine: &EngineHandle,
    mut pins: Pins<'_>,
    shutdown: &AtomicBool,
) -> Result<(), ProtoError> {
    let registry = engine.registry().clone();
    // The session's one frame buffer, reused by every reply.
    let mut buf = FrameBuf::default();
    loop {
        let (line, wire_trace) = match protocol::read_client(requests) {
            Ok(ClientMsg::Query { line, trace }) => (line, trace),
            Ok(ClientMsg::Terminate) => return Ok(()),
            Ok(ClientMsg::Startup { .. }) => {
                let (code, message) = (code::PROTOCOL, "session already started".into());
                let refused = Err(EngineError { code, message }.into());
                Reply::new(&mut buf, stream, &registry, 0).finish(refused)?;
                continue;
            }
            Err(ProtoError::Timeout) => {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Err(ProtoError::Closed) => return Ok(()),
            Err(e) => return Err(e),
        };
        // Adopt the client's trace id, or mint one so every query is
        // traceable end to end even from trace-unaware clients.
        let trace = match wire_trace {
            Some(t) if t != 0 => t,
            _ => obs::mint_trace_id(),
        };
        let start = Instant::now();
        let mut reply = Reply::new(&mut buf, stream, &registry, trace);
        let routed = dispatch(&line, user, engine, &mut pins, &mut reply);
        registry.counter_add("orpheus.server.queries_total", 1);
        // Rendering what the engine sent back whole, and the write that
        // hands the reply to the socket.
        let span = engine
            .recorder()
            .enter_with("orpheus.server.reply", obs::TraceCtx::from_wire(trace));
        let rendered = routed.and_then(|out| match out {
            Some(out) => Ok(render(&out, &mut reply)?),
            None => Ok(()),
        });
        reply.finish(rendered)?;
        drop(span);
        registry.observe_duration("orpheus.server.query.latency_us", start.elapsed());
    }
}

fn usage(text: &str) -> EngineError {
    EngineError {
        code: code::PARSE,
        message: format!("usage: {text}"),
    }
}

/// The longest `sleep` a session may ask of the engine: every other
/// session waits it out.
const MAX_SLEEP_MS: u64 = 10_000;

/// Route one query line: the session's own verbs and a `run` against a
/// pinned snapshot stay on this thread; every other command goes to the
/// engine parsed, with its line beside it. The request's trace id
/// (`reply.trace`, already adopted or minted, never 0) rides along to the
/// engine so remote spans re-attach to this request. What the engine
/// answers comes back whole (`Some`) for the caller to render; a pinned
/// `run` streams its rows into `reply` from the operator root as they are
/// produced and returns `None`.
fn dispatch<W: Write>(
    line: &str,
    user: &str,
    engine: &EngineHandle,
    pins: &mut Pins<'_>,
    reply: &mut Reply<'_, W>,
) -> Result<Option<CommandOutput>, ReplyError> {
    let trace = reply.trace;
    let line = line.trim();
    let mut words = line.split_whitespace();
    let out = match words.next() {
        Some("pin") => {
            let cvd = words.next().ok_or_else(|| usage("pin <cvd>"))?;
            let snap = engine.snapshot(cvd)?;
            let tag = format!(
                "PIN {cvd}@{} ({} versions)",
                snap.latest_version(),
                snap.num_versions()
            );
            pins.set(cvd, Some(snap));
            CommandOutput::Message(tag)
        }
        Some("unpin") => {
            let cvd = words.next().ok_or_else(|| usage("unpin <cvd>"))?;
            CommandOutput::Message(if pins.set(cvd, None) {
                format!("UNPIN {cvd}")
            } else {
                format!("UNPIN {cvd} (was not pinned)")
            })
        }
        Some("sleep") => {
            // Test hook: stall the engine without holding this session.
            let millis = words
                .next()
                .and_then(|w| w.parse::<u64>().ok())
                .filter(|&ms| ms <= MAX_SLEEP_MS)
                .ok_or_else(|| usage("sleep <millis>"))?;
            engine.sleep(millis);
            CommandOutput::Message(format!("SLEEP {millis}"))
        }
        _ => {
            let command = Command::parse(line)?;
            // A pinned snapshot of the query's CVD answers it here.
            if let Command::Run(query) = &command {
                if let Some(snap) = pins.by_cvd.get(query.cvd()) {
                    // Lock-free read on this session thread; journal it
                    // under the request trace so snapshot reads show up
                    // in dumps.
                    let _span = engine.recorder().enter_with(
                        "orpheus.server.snapshot_read",
                        obs::TraceCtx::from_wire(trace),
                    );
                    let (reply, mut rows) = (std::cell::RefCell::new(reply), 0);
                    let on_schema = |s: &Schema| Ok(reply.borrow_mut().table_head(s)?);
                    snap.execute_with(query, on_schema, |row| {
                        rows += 1;
                        Ok::<(), ReplyError>(reply.borrow_mut().table_row(&row)?)
                    })?;
                    engine
                        .registry()
                        .counter_add("orpheus.server.snapshot_reads_total", 1);
                    reply.into_inner().table_end(rows)?;
                    return Ok(None);
                }
            }
            engine.send(user, line, command, trace)?
        }
    };
    Ok(Some(out))
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "concurrency tests spawn their own threads"
)]
mod tests {
    use super::*;
    use crate::protocol::{read_server, write_server, MAX_FRAME, WINDOW};
    use orpheus_core::query::QueryResult;
    use proptest::prelude::*;
    use relstore::{Column, DataType};

    /// Regression: `Pins::set` added, computed the total and subtracted
    /// in three steps and then set the gauge, so two sessions unpinning
    /// at once could each set the other's share: the gauge ended above
    /// zero with nothing pinned.
    #[test]
    fn the_pinned_bytes_gauge_ends_at_zero_after_concurrent_pins() {
        let mut odb = orpheus_core::OrpheusDb::new();
        odb.create_user("a").unwrap();
        odb.login("a").unwrap();
        let schema = Schema::new(vec![Column::new("k", DataType::Int64)]);
        let rows = (0..50).map(|k| vec![Value::Int64(k)]).collect();
        odb.init_cvd("t", schema, vec![], rows).unwrap();
        let snap = odb.snapshot("t").unwrap();
        let registry = Registry::new();
        let counters = SessionCounters {
            active: AtomicUsize::new(0),
            pinned_bytes: Mutex::new(0),
        };
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let mut pins = Pins {
                        by_cvd: HashMap::new(),
                        bytes: &counters.pinned_bytes,
                        registry: &registry,
                    };
                    for _ in 0..1_000 {
                        pins.set("t", Some(snap.clone()));
                        pins.set("t", Some(snap.clone()));
                        pins.set("t", None);
                    }
                    // Dropped pinned: the session's end unpins.
                    pins.set("t", Some(snap.clone()));
                });
            }
        });
        let total = *counters.pinned_bytes.lock().unwrap();
        let gauge = registry.gauge("orpheus.server.pinned_bytes");
        assert_eq!((total, gauge), (0, Some(0.0)));
    }

    #[test]
    fn output_messages_cover_every_variant() {
        let msgs = output_messages(&CommandOutput::Message("hi".into()));
        assert_eq!(
            msgs,
            vec![ServerMsg::CommandComplete {
                tag: "hi".into(),
                trace: None
            }]
        );

        let msgs = output_messages(&CommandOutput::Version(partition::Vid(7)));
        assert_eq!(
            msgs,
            vec![ServerMsg::CommandComplete {
                tag: "COMMIT v7".into(),
                trace: None,
            }]
        );

        let msgs = output_messages(&CommandOutput::Listing(vec!["a".into(), "b".into()]));
        assert_eq!(msgs.len(), 4);
        assert_eq!(
            msgs[3],
            ServerMsg::CommandComplete {
                tag: "LIST 2".into(),
                trace: None,
            }
        );

        let schema = Schema::new(vec![
            Column::nullable("k", DataType::Int64),
            Column::nullable("name", DataType::Text),
        ]);
        let table = QueryResult {
            schema,
            rows: vec![
                vec![Value::Int64(1), Value::Text("x".into())],
                vec![Value::Int64(2), Value::Null],
            ],
        };
        let msgs = output_messages(&CommandOutput::Table(table));
        assert_eq!(
            msgs[0],
            ServerMsg::RowDescription {
                columns: vec!["k".into(), "name".into()]
            }
        );
        assert_eq!(
            msgs[2],
            ServerMsg::DataRow {
                fields: vec![Some("2".into()), None]
            }
        );
        assert_eq!(
            msgs[3],
            ServerMsg::CommandComplete {
                tag: "SELECT 2".into(),
                trace: None,
            }
        );
    }

    const TRACE: u64 = 0x7ace;

    /// One reply as the live server builds it — `run` renders into the
    /// session's `buf`, `finish` ends it — written to a `Vec`. Returns the
    /// wire bytes and the `(writes, bytes)` the registry counted.
    fn reply_on(
        buf: &mut FrameBuf,
        run: impl FnOnce(&mut Reply<'_, &mut Vec<u8>>) -> Result<(), ReplyError>,
    ) -> (Vec<u8>, (u64, u64)) {
        let (mut wire, registry) = (Vec::new(), Registry::new());
        let mut reply = Reply::new(buf, &mut wire, &registry, TRACE);
        let result = run(&mut reply);
        reply.finish(result).unwrap();
        assert!(
            buf.bytes().is_empty(),
            "the buffer is empty between replies"
        );
        let counted = |name: &str| registry.counter(&format!("orpheus.server.{name}"));
        let sent = (counted("reply_flushes_total"), counted("reply_bytes_total"));
        assert_eq!(sent.1, wire.len() as u64);
        (wire, sent)
    }

    /// A socket that, as each write arrives, checks the registry already
    /// counts it: a client that has read a whole reply must find it
    /// counted. Counting after the write let a client see the reply
    /// before its count.
    struct Witness<'r> {
        registry: &'r Registry,
        wire: Vec<u8>,
        writes: u64,
    }

    impl Write for Witness<'_> {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.write_all(bytes)?;
            Ok(bytes.len())
        }

        fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.writes += 1;
            self.wire.extend_from_slice(bytes);
            let counted = |name: &str| self.registry.counter(&format!("orpheus.server.{name}"));
            assert_eq!(counted("reply_flushes_total"), self.writes);
            assert_eq!(counted("reply_bytes_total"), self.wire.len() as u64);
            Ok(())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_reply_write_is_counted_before_it_is_made() {
        let schema = Schema::new(vec![Column::nullable("t", DataType::Text)]);
        let rows = vec![vec![Value::Text("w".repeat(1000))]; 3 * WINDOW / 1000];
        let out = CommandOutput::Table(QueryResult { schema, rows });
        let registry = Registry::new();
        let mut socket = Witness {
            registry: &registry,
            wire: Vec::new(),
            writes: 0,
        };
        let mut buf = FrameBuf::default();
        let mut reply = Reply::new(&mut buf, &mut socket, &registry, TRACE);
        let rendered = render(&out, &mut reply).map_err(ReplyError::from);
        reply.finish(rendered).unwrap();
        assert!(socket.writes > 3, "{} writes", socket.writes);
        assert_eq!(decode(&socket.wire), on_the_wire(output_messages(&out)));
    }

    fn decode(mut wire: &[u8]) -> Vec<ServerMsg> {
        let mut msgs = Vec::new();
        while !wire.is_empty() {
            msgs.push(read_server(&mut wire).unwrap());
        }
        msgs
    }

    /// The transcript oracle's messages as the wire carries them: the
    /// request's trace id on the completion, `Ready` at the end.
    fn on_the_wire(mut msgs: Vec<ServerMsg>) -> Vec<ServerMsg> {
        for msg in &mut msgs {
            if let ServerMsg::CommandComplete { trace, .. } = msg {
                *trace = Some(TRACE);
            }
        }
        msgs.push(ServerMsg::Ready);
        msgs
    }

    fn error(code: &str, message: &str) -> ServerMsg {
        let (code, message) = (code.into(), message.into());
        ServerMsg::Error { code, message }
    }

    fn text() -> impl Strategy<Value = String> {
        "[a-zA-Z0-9 |,'\"é-üα-ω一-龥]{0,12}"
    }

    fn value() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int64),
            (-1.0e12..1.0e12).prop_map(Value::Float64),
            text().prop_map(Value::Text),
            any::<bool>().prop_map(Value::Bool),
            prop::collection::vec(any::<i64>(), 0..5).prop_map(Value::IntArray),
            Just(Value::Null),
        ]
    }

    /// Any command output: tables of 0..5 columns (zero columns and zero
    /// rows included), listings, messages, versions.
    fn output() -> impl Strategy<Value = CommandOutput> {
        let table = (
            prop::collection::vec(text(), 0..5),
            prop::collection::vec(value(), 0..40),
            0..4usize,
        )
            .prop_map(|(names, cells, empty_rows)| {
                let width = names.len();
                let columns = names
                    .into_iter()
                    .map(|n| Column::nullable(&n, DataType::Text));
                let rows = match width {
                    0 => vec![vec![]; empty_rows],
                    _ => cells.chunks_exact(width).map(<[Value]>::to_vec).collect(),
                };
                CommandOutput::Table(QueryResult {
                    schema: Schema::new(columns.collect()),
                    rows,
                })
            });
        prop_oneof![
            table,
            prop::collection::vec(text(), 0..6).prop_map(CommandOutput::Listing),
            text().prop_map(CommandOutput::Message),
            any::<u32>().prop_map(|v| CommandOutput::Version(partition::Vid(v))),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The wire is untouched: what the frame sink writes is, byte for
        /// byte, `write_server` over the message sink's output, and decodes
        /// back to it.
        #[test]
        fn the_frame_sink_writes_what_the_message_sink_says(out in output()) {
            let want = on_the_wire(output_messages(&out));
            let (wire, sent) = reply_on(&mut FrameBuf::default(), |r| Ok(render(&out, r)?));
            let mut bytes = Vec::new();
            for msg in &want {
                write_server(&mut bytes, msg).unwrap();
            }
            prop_assert_eq!(&wire, &bytes);
            prop_assert_eq!(decode(&wire), want);
            prop_assert_eq!(sent.0, 1);
        }
    }

    /// The frame sink writes an integer's digits and a NULL without `fmt`:
    /// rows holding every `Value` kind, the integers at their extremes,
    /// reach the wire as `write_server` writes the message sink's output.
    #[test]
    fn directly_written_integers_and_nulls_are_the_message_sinks_bytes() {
        let kinds = [
            Value::Int64(i64::MIN),
            Value::Null,
            Value::Float64(-0.5),
            Value::Text("é|,".into()),
            Value::Bool(true),
            Value::IntArray(vec![i64::MIN, -1, 0, i64::MAX]),
            Value::Int64(i64::MAX),
        ];
        let columns = (0..kinds.len()).map(|i| Column::nullable(format!("c{i}"), DataType::Text));
        let rows = [0, -1, 9, 10, -100_000, 1 << 40]
            .into_iter()
            .map(|k| {
                let mut row = kinds.to_vec();
                row.push(Value::Int64(k));
                row.rotate_left(k.rem_euclid(kinds.len() as i64) as usize);
                row
            })
            .collect();
        let schema = Schema::new(
            columns
                .chain([Column::nullable("k", DataType::Int64)])
                .collect(),
        );
        let out = CommandOutput::Table(QueryResult { schema, rows });
        let (wire, _) = reply_on(&mut FrameBuf::default(), |r| Ok(render(&out, r)?));
        let mut bytes = Vec::new();
        for msg in on_the_wire(output_messages(&out)) {
            write_server(&mut bytes, &msg).unwrap();
        }
        assert_eq!(wire, bytes);
    }

    /// Satellite regression: an over-limit frame used to surface while
    /// writing and kill the session, earlier frames already sent. Now the
    /// frame never leaves the encoder, the reply is `E 54000` + `Z`, and
    /// the session's buffer serves the next reply.
    #[test]
    fn an_over_limit_frame_is_an_error_reply_not_a_dead_session() {
        let mut buf = FrameBuf::default();
        let limit = |n: usize| {
            let message = format!("reply frame of {n} bytes exceeds MAX_FRAME");
            vec![error(code::LIMIT, &message), ServerMsg::Ready]
        };
        let huge = "x".repeat(MAX_FRAME as usize + 1);
        let out = CommandOutput::Message(huge.clone());
        let (wire, _) = reply_on(&mut buf, |r| Ok(render(&out, r)?));
        assert_eq!(decode(&wire), limit(huge.len() + 4 + 8));

        // One very wide row behind narrow ones: what was rendered is rolled
        // back, the reply is the error alone.
        let schema = Schema::new(vec![Column::nullable("t", DataType::Text)]);
        let rows = vec![vec![Value::Text("narrow".into())], vec![Value::Text(huge)]];
        let out = CommandOutput::Table(QueryResult { schema, rows });
        let (wire, sent) = reply_on(&mut buf, |r| Ok(render(&out, r)?));
        assert_eq!(decode(&wire), limit(2 + 4 + MAX_FRAME as usize + 1));
        assert_eq!(sent.0, 1);

        let out = CommandOutput::Message("still here".into());
        let (wire, _) = reply_on(&mut buf, |r| Ok(render(&out, r)?));
        assert_eq!(decode(&wire), on_the_wire(output_messages(&out)));
    }

    /// A row source that fails after `n` rows: before the first flush the
    /// reply is exactly the error (`E Z`); after it, the rows already sent
    /// stand and the reply ends `T D* E Z`. Either way the next reply on the
    /// same buffer is whole.
    #[test]
    fn a_row_source_failing_on_either_side_of_the_first_flush() {
        let schema = Schema::new(vec![Column::nullable("t", DataType::Text)]);
        let row = vec![Value::Text("r".repeat(1013))];
        let per_row = 5 + 2 + 4 + 1013;
        let first_flush = WINDOW.div_ceil(per_row);
        let failure = || EngineError {
            code: code::INTERNAL,
            message: "row source failed".into(),
        };
        let mut buf = FrameBuf::default();
        let mut sides = [0, 0];
        for n in [0, 1, first_flush - 1, first_flush, first_flush + 1, 200] {
            let (wire, sent) = reply_on(&mut buf, |r| {
                r.table_head(&schema)?;
                for _ in 0..n {
                    r.table_row(&row)?;
                }
                Err(failure().into())
            });
            let tail = [error(code::INTERNAL, "row source failed"), ServerMsg::Ready];
            let got = decode(&wire);
            if n < first_flush {
                assert_eq!(got, tail, "{n} rows");
                assert_eq!(sent.0, 1);
            } else {
                assert_eq!(got.len(), 1 + n + 2, "{n} rows");
                assert!(matches!(got[0], ServerMsg::RowDescription { .. }));
                assert!(got[1..=n]
                    .iter()
                    .all(|m| matches!(m, ServerMsg::DataRow { .. })));
                assert_eq!(got[1 + n..], tail);
                assert_eq!(sent.0, 1 + (n / first_flush) as u64);
            }
            sides[(n >= first_flush) as usize] += 1;
            let out = CommandOutput::Message("next".into());
            let (wire, _) = reply_on(&mut buf, |r| Ok(render(&out, r)?));
            assert_eq!(decode(&wire), on_the_wire(output_messages(&out)));
        }
        assert_eq!(sides, [3, 3]);
    }
}
