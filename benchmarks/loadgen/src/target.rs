//! The rungs of the layer ladder: one command interface at three depths.
//!
//! Every rung answers a command line with the server messages the wire
//! would carry, so scripts, checks and seeding are written once and run
//! against the socket, the engine handle, or the library.

use orpheus_core::{CommandOutput, OrpheusDb, Snapshot};
use orpheus_server::{output_messages, Client, EngineHandle, ServerMsg};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

pub trait Target {
    /// Run one command line. `Err` is a transport or engine failure that
    /// produced no reply; a reply may still carry an `Error` frame.
    fn run(&mut self, line: &str) -> Result<Vec<ServerMsg>, String>;

    /// Time the last `commit` spent in its durability point, where the
    /// rung can see it apart from the rest of the commit.
    fn last_checkpoint(&self) -> Option<Duration> {
        None
    }
}

/// The completion tag of a successful reply; the error frame otherwise.
pub fn tag(msgs: &[ServerMsg]) -> Result<&str, String> {
    for msg in msgs {
        match msg {
            ServerMsg::Error { code, message } => return Err(format!("[{code}] {message}")),
            ServerMsg::CommandComplete { tag, .. } => return Ok(tag),
            _ => {}
        }
    }
    Err("reply without a completion".into())
}

/// The start of a command line, for error messages.
pub fn brief(line: &str) -> String {
    line.chars().take(60).collect()
}

/// Run `line` and return its completion tag; any failure names the line.
pub fn expect_ok(target: &mut dyn Target, line: &str) -> Result<String, String> {
    let msgs = target.run(line)?;
    tag(&msgs)
        .map(str::to_owned)
        .map_err(|e| format!("`{}`: {e}", brief(line)))
}

/// Data rows of a reply as integers, the leading `rid` column dropped
/// (record ids are the server's own; the oracle knows contents).
pub fn data_rows(msgs: &[ServerMsg]) -> Result<Vec<Vec<i64>>, String> {
    let mut rows = Vec::new();
    for msg in msgs {
        if let ServerMsg::DataRow { fields } = msg {
            let row: Result<Vec<i64>, String> = fields
                .iter()
                .skip(1)
                .map(|f| {
                    f.as_deref()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| format!("non-integer field {f:?}"))
                })
                .collect();
            rows.push(row?);
        }
    }
    Ok(rows)
}

/// Wire rung: a real session over loopback TCP.
pub struct Wire(pub Client);

impl Wire {
    pub fn connect(addr: SocketAddr, user: &str) -> Result<Wire, String> {
        Client::connect(addr, user)
            .map(Wire)
            .map_err(|e| format!("connect as {user}: {e}"))
    }

    pub fn close(self) -> Result<(), String> {
        self.0.terminate().map_err(|e| e.to_string())
    }
}

impl Target for Wire {
    fn run(&mut self, line: &str) -> Result<Vec<ServerMsg>, String> {
        self.0
            .query(line)
            .map(|r| r.messages)
            .map_err(|e| e.to_string())
    }
}

fn wrap(out: Result<CommandOutput, String>) -> Vec<ServerMsg> {
    match out {
        Ok(out) => output_messages(&out),
        Err(message) => vec![ServerMsg::Error {
            code: "XX000".into(),
            message,
        }],
    }
}

/// The routing of `session::dispatch` that both in-process rungs repeat:
/// `pin` takes a snapshot (through `snapshot`) and keeps it, and `run`
/// while pinned is answered from it on the calling thread. `None` means
/// the command goes to the engine.
fn route_pinned(
    pinned: &mut Option<Snapshot>,
    line: &str,
    snapshot: impl FnOnce() -> Result<Snapshot, String>,
) -> Result<Option<Vec<ServerMsg>>, String> {
    let out = match (line.split_whitespace().next(), &*pinned) {
        (Some("pin"), _) => {
            let snap = pinned.insert(snapshot()?);
            Ok(CommandOutput::Message(format!(
                "PIN {}@{}",
                snap.cvd(),
                snap.latest_version()
            )))
        }
        (Some("run"), Some(snap)) => snap
            .run(line["run".len()..].trim())
            .map(CommandOutput::Table)
            .map_err(|e| e.to_string()),
        _ => return Ok(None),
    };
    Ok(Some(wrap(out)))
}

/// Engine rung: the session's routing (`session::dispatch`) without the
/// socket, straight onto the engine thread's channel.
pub struct Engine {
    pub handle: EngineHandle,
    pub user: String,
    pinned: Option<Snapshot>,
}

impl Engine {
    pub fn new(handle: EngineHandle, user: &str) -> Engine {
        Engine {
            handle,
            user: user.to_owned(),
            pinned: None,
        }
    }
}

impl Target for Engine {
    fn run(&mut self, line: &str) -> Result<Vec<ServerMsg>, String> {
        let handle = &self.handle;
        let snapshot = || handle.snapshot(crate::data::CVD).map_err(|e| e.to_string());
        if let Some(reply) = route_pinned(&mut self.pinned, line, snapshot)? {
            return Ok(reply);
        }
        let out = if line.starts_with("commit") {
            handle.submit_commit(1, &self.user, line, 0)
        } else {
            handle.execute(1, &self.user, line, 0)
        };
        Ok(wrap(out.map_err(|e| e.to_string())))
    }
}

/// Core rung: the library on the calling thread. The durability point the
/// server issues once per commit batch is issued here after each commit,
/// and timed on its own.
pub struct Core {
    pub db: OrpheusDb,
    pub user: String,
    pinned: Option<Snapshot>,
    checkpoint: Option<Duration>,
}

impl Core {
    /// `db` configured as the engine thread configures its own.
    pub fn new(mut db: OrpheusDb, user: &str) -> Core {
        db.set_threads(1);
        db.set_auto_checkpoint(false);
        Core {
            db,
            user: user.to_owned(),
            pinned: None,
            checkpoint: None,
        }
    }
}

impl Target for Core {
    fn run(&mut self, line: &str) -> Result<Vec<ServerMsg>, String> {
        self.checkpoint = None;
        let db = &self.db;
        let snapshot = || db.snapshot(crate::data::CVD).map_err(|e| e.to_string());
        if let Some(reply) = route_pinned(&mut self.pinned, line, snapshot)? {
            return Ok(reply);
        }
        let out = self.db.execute_as(&self.user, line);
        if line.starts_with("commit") && out.is_ok() {
            let started = Instant::now();
            self.db.checkpoint().map_err(|e| e.to_string())?;
            self.checkpoint = Some(started.elapsed());
        }
        Ok(wrap(out.map_err(|e| e.to_string())))
    }

    fn last_checkpoint(&self) -> Option<Duration> {
        self.checkpoint
    }
}
