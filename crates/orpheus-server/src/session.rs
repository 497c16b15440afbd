//! Per-connection session handling.
//!
//! A session is one TCP connection, served start-to-finish by one worker
//! thread from the server's session pool. The lifecycle is:
//!
//! 1. **Startup** — the first frame must be `Startup{user}`; the server
//!    answers `StartupOk{session_id}` (or a `PROTOCOL` error and closes).
//! 2. **Query loop** — each `Query` frame gets `[RowDescription DataRow*]
//!    (CommandComplete | Error)` followed by `Ready`. Errors do not kill
//!    the session.
//! 3. **Terminate** — an `X` frame (or EOF) ends the session.
//!
//! Routing inside the query loop is what makes readers lock-free:
//!
//! * `pin <cvd>` asks the engine for an immutable [`Snapshot`] and caches
//!   it in the session. From then on `run SELECT … OF CVD <cvd>` is
//!   evaluated *on the session thread* against the snapshot — no engine
//!   round-trip, no lock, and repeatable reads until `unpin`/re-`pin`.
//! * `commit …` — and `init`, `drop`, `create_user`, which change the
//!   catalog tables just as durably — go through the engine's bounded
//!   admission queue and the group-commit path, so the reply follows the
//!   batch's durability point.
//! * everything else is forwarded to the engine thread verbatim.

use crate::engine::{map_err, EngineError, EngineHandle};
use crate::protocol::{self, code, ClientMsg, ProtoError, ServerMsg};
use orpheus_core::query::QueryResult;
use orpheus_core::{CommandOutput, Snapshot};
use relstore::Value;
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How often a blocked session read wakes up to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(200);

/// Render one command output as its wire messages. Shared by the live
/// server and by serial-replay harnesses that byte-compare transcripts.
/// Trace-agnostic: the query loop stamps the request's trace id onto the
/// final `CommandComplete` (see [`stamp_trace`]), so replay transcripts
/// stay byte-identical.
pub fn output_messages(out: &CommandOutput) -> Vec<ServerMsg> {
    match out {
        CommandOutput::Table(t) => table_messages(t),
        CommandOutput::Version(v) => vec![ServerMsg::CommandComplete {
            tag: format!("COMMIT {v}"),
            trace: None,
        }],
        CommandOutput::Message(m) => vec![ServerMsg::CommandComplete {
            tag: m.clone(),
            trace: None,
        }],
        CommandOutput::Listing(items) => {
            let mut msgs = vec![ServerMsg::RowDescription {
                columns: vec!["name".into()],
            }];
            for item in items {
                msgs.push(ServerMsg::DataRow {
                    fields: vec![Some(item.clone())],
                });
            }
            msgs.push(ServerMsg::CommandComplete {
                tag: format!("LIST {}", items.len()),
                trace: None,
            });
            msgs
        }
        CommandOutput::Csv(text) => {
            let mut msgs = vec![ServerMsg::RowDescription {
                columns: vec!["csv".into()],
            }];
            msgs.push(ServerMsg::DataRow {
                fields: vec![Some(text.clone())],
            });
            msgs.push(ServerMsg::CommandComplete {
                tag: "CSV".into(),
                trace: None,
            });
            msgs
        }
    }
}

fn table_messages(t: &QueryResult) -> Vec<ServerMsg> {
    let mut msgs = vec![ServerMsg::RowDescription {
        columns: t.schema.columns().iter().map(|c| c.name.clone()).collect(),
    }];
    for row in &t.rows {
        msgs.push(ServerMsg::DataRow {
            fields: row.iter().map(render_value).collect(),
        });
    }
    msgs.push(ServerMsg::CommandComplete {
        tag: format!("SELECT {}", t.rows.len()),
        trace: None,
    });
    msgs
}

/// Echo the request's trace id on every `CommandComplete` so the client
/// can correlate its reply with a server-side `trace dump`.
fn stamp_trace(msgs: &mut [ServerMsg], trace: u64) {
    for msg in msgs.iter_mut() {
        if let ServerMsg::CommandComplete { trace: t, .. } = msg {
            *t = Some(trace);
        }
    }
}

fn render_value(v: &Value) -> Option<String> {
    match v {
        Value::Null => None,
        other => Some(other.to_string()),
    }
}

/// Shared per-server session bookkeeping (active-session gauge).
pub(crate) struct SessionCounters {
    pub active: AtomicUsize,
}

/// Serve one connection to completion. Returns `Ok` for every orderly
/// close (terminate, EOF, server shutdown) and `Err` only for transport
/// faults worth logging.
pub(crate) fn serve_session(
    mut stream: TcpStream,
    session_id: u64,
    engine: &EngineHandle,
    counters: &SessionCounters,
    shutdown: &AtomicBool,
) -> Result<(), ProtoError> {
    drop(stream.set_nodelay(true));
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let registry = engine.registry().clone();

    // Startup handshake.
    let user = loop {
        match protocol::read_client(&mut stream) {
            Ok(ClientMsg::Startup { user }) => break user,
            Ok(_) => {
                protocol::write_server(
                    &mut stream,
                    &ServerMsg::Error {
                        code: code::PROTOCOL.into(),
                        message: "expected a startup frame".into(),
                    },
                )?;
                return Ok(());
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
    protocol::write_server(&mut stream, &ServerMsg::StartupOk { session_id })?;
    registry.counter_add("orpheus.server.sessions_total", 1);
    let active = counters.active.fetch_add(1, Ordering::SeqCst) + 1;
    registry.gauge_set("orpheus.server.active_sessions", active as f64);

    let result = query_loop(&mut stream, session_id, &user, engine, shutdown);

    let active = counters.active.fetch_sub(1, Ordering::SeqCst) - 1;
    registry.gauge_set("orpheus.server.active_sessions", active as f64);
    result
}

fn query_loop(
    stream: &mut TcpStream,
    session_id: u64,
    user: &str,
    engine: &EngineHandle,
    shutdown: &AtomicBool,
) -> Result<(), ProtoError> {
    let registry = engine.registry().clone();
    let mut pinned: HashMap<String, Snapshot> = HashMap::new();
    loop {
        let (line, wire_trace) = match protocol::read_client(stream) {
            Ok(ClientMsg::Query { line, trace }) => (line, trace),
            Ok(ClientMsg::Terminate) => return Ok(()),
            Ok(ClientMsg::Startup { .. }) => {
                write_all(
                    stream,
                    &[
                        ServerMsg::Error {
                            code: code::PROTOCOL.into(),
                            message: "session already started".into(),
                        },
                        ServerMsg::Ready,
                    ],
                )?;
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
        let msgs = match dispatch(&line, session_id, user, trace, engine, &mut pinned) {
            Ok(mut msgs) => {
                stamp_trace(&mut msgs, trace);
                msgs
            }
            Err(e) => vec![ServerMsg::Error {
                code: e.code.into(),
                message: e.message,
            }],
        };
        registry.counter_add("orpheus.server.queries_total", 1);
        registry.observe_duration("orpheus.server.query.latency_us", start.elapsed());
        write_all(stream, &msgs)?;
        protocol::write_server(stream, &ServerMsg::Ready)?;
    }
}

fn write_all(stream: &mut TcpStream, msgs: &[ServerMsg]) -> Result<(), ProtoError> {
    for msg in msgs {
        protocol::write_server(stream, msg)?;
    }
    stream.flush()?;
    Ok(())
}

/// Route one query line: snapshot commands stay on this thread, durable
/// writes take the admission queue, everything else goes to the engine. `trace`
/// is the request's trace id (already adopted or minted, never 0); it
/// rides along to the engine so remote spans re-attach to this request.
fn dispatch(
    line: &str,
    session_id: u64,
    user: &str,
    trace: u64,
    engine: &EngineHandle,
    pinned: &mut HashMap<String, Snapshot>,
) -> Result<Vec<ServerMsg>, EngineError> {
    let trimmed = line.trim();
    let mut words = trimmed.split_whitespace();
    let cmd = words.next().unwrap_or("");
    match cmd {
        "pin" => {
            let cvd = words.next().ok_or_else(|| EngineError {
                code: code::PARSE,
                message: "usage: pin <cvd>".into(),
            })?;
            let snap = engine.snapshot(cvd)?;
            let tag = format!(
                "PIN {cvd}@{} ({} versions)",
                snap.latest_version(),
                snap.num_versions()
            );
            pinned.insert(cvd.to_owned(), snap);
            Ok(vec![ServerMsg::CommandComplete { tag, trace: None }])
        }
        "unpin" => {
            let cvd = words.next().ok_or_else(|| EngineError {
                code: code::PARSE,
                message: "usage: unpin <cvd>".into(),
            })?;
            let tag = match pinned.remove(cvd) {
                Some(_) => format!("UNPIN {cvd}"),
                None => format!("UNPIN {cvd} (was not pinned)"),
            };
            Ok(vec![ServerMsg::CommandComplete { tag, trace: None }])
        }
        "sleep" => {
            // Test hook: stall the engine without holding this session.
            let millis = words
                .next()
                .and_then(|w| w.parse::<u64>().ok())
                .ok_or_else(|| EngineError {
                    code: code::PARSE,
                    message: "usage: sleep <millis>".into(),
                })?;
            engine.sleep(millis);
            Ok(vec![ServerMsg::CommandComplete {
                tag: format!("SLEEP {millis}"),
                trace: None,
            }])
        }
        // Acknowledged means durable: whatever changes the catalog tables
        // is answered only after its batch's checkpoint.
        "commit" | "init" | "drop" | "create_user" => {
            let out = engine.submit_commit(session_id, user, trimmed, trace)?;
            Ok(output_messages(&out))
        }
        "run" => {
            let sql = trimmed.strip_prefix("run").unwrap_or("").trim();
            // A pinned snapshot of the query's CVD answers it here. A parse
            // failure, or no such pin, falls through to the engine.
            let local = orpheus_core::query::parse_query(sql)
                .ok()
                .and_then(|query| Some((pinned.get(query.cvd())?, query)));
            if let Some((snap, query)) = local {
                // Lock-free read on this session thread; journal it under
                // the request trace so snapshot reads show up in dumps.
                let _span = engine.recorder().enter_with(
                    "orpheus.server.snapshot_read",
                    obs::TraceCtx::from_wire(trace),
                );
                let table = snap.execute(&query).map_err(|e| map_err(&e))?;
                engine
                    .registry()
                    .counter_add("orpheus.server.snapshot_reads_total", 1);
                return Ok(table_messages(&table));
            }
            let out = engine.execute(session_id, user, trimmed, trace)?;
            Ok(output_messages(&out))
        }
        _ => {
            let out = engine.execute(session_id, user, trimmed, trace)?;
            Ok(output_messages(&out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

        let msgs = output_messages(&CommandOutput::Csv("k,v\n1,2\n".into()));
        assert_eq!(msgs.len(), 3);

        let schema = relstore::Schema::new(vec![
            relstore::Column::nullable("k", relstore::DataType::Int64),
            relstore::Column::nullable("name", relstore::DataType::Text),
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
}
