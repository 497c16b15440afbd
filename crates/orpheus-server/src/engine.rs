//! The engine service: one dedicated thread owning the single-threaded
//! [`OrpheusDb`], fed by message channels from the session workers.
//!
//! The storage engine underneath (`relstore`/`pagestore`) is built around
//! `Rc`/`RefCell` interior mutability — deliberately single-threaded, like
//! the paper's middleware sitting on one PostgreSQL connection. Instead of
//! wrapping it in a big lock, the server gives it a thread of its own
//! ([`exec_pool::ServiceThread`], named `orpheus-engine`) and serializes
//! every command through an MPSC channel: writes, and the reads of a
//! session that has not pinned its CVD. A pinned session evaluates its
//! queries against an immutable [`Snapshot`] on its own thread (see
//! [`crate::session`]) and comes here only to pin.
//!
//! A command arrives parsed: one job type carries the [`Command`], the
//! line it came from (for the slow-query log), the user, the request's
//! trace id and the reply channel. The command alone decides its route.
//!
//! **Group commit.** When a command that ends in a durability point
//! arrives ([`Command::is_durable`]: `commit`, `init`, `drop`,
//! `create_user`), the engine drains the channel until it is empty (or
//! holds `MAX_BATCH` such jobs), serving any other message as it comes,
//! then applies the whole batch and issues *one* WAL-protected checkpoint
//! for all of it. No timer: a lone commit is applied at once, while
//! commits that queue behind a running batch form the next one — N
//! concurrent commits cost one fsync instead of N (`pagestore.wal.fsyncs`
//! < commits, asserted by the CI smoke gate). Nothing is served between a
//! batch's first apply and its checkpoint, so no reply ever shows a
//! commit that is not yet durable. Such commands enter through a
//! **bounded admission queue**: past `admission_capacity` queued jobs,
//! new ones are rejected immediately with a typed backpressure error
//! ([`crate::protocol::code::BACKPRESSURE`]) instead of queueing
//! unboundedly.

use crate::protocol::code;
use obs::{Recorder, Registry, TraceCtx};
use orpheus_core::{Command, CommandOutput, OrpheusDb, Snapshot};
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine configuration for [`EngineService::start`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Durable data directory; `None` runs in memory (tests, smoke).
    pub data_dir: Option<PathBuf>,
    /// Buffer-pool capacity in 8 KiB pages.
    pub pool_pages: usize,
    /// Selects nothing and is read by nothing: the engine has one
    /// execution path. It stays only because `benchmarks/loadgen` sets it.
    pub threads: usize,
    /// Bounded admission queue: commits queued beyond this are rejected
    /// with a typed backpressure error.
    pub admission_capacity: usize,
    /// Slow-query threshold in milliseconds; `0` logs every command.
    pub slow_ms: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            data_dir: None,
            pool_pages: 512,
            threads: 1,
            admission_capacity: 64,
            slow_ms: obs::journal::DEFAULT_SLOW_MS,
        }
    }
}

/// Largest number of commits folded into one group-commit batch.
const MAX_BATCH: usize = 32;

/// A typed engine-level error: a SQLSTATE-style code plus a message,
/// carried to the client as an `E` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    pub code: &'static str,
    pub message: String,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for EngineError {}

fn engine_down() -> EngineError {
    EngineError {
        code: code::INTERNAL,
        message: "engine thread is gone".into(),
    }
}

/// Map a command-layer error to its wire code.
pub(crate) fn map_err(e: &orpheus_core::Error) -> EngineError {
    use orpheus_core::Error as E;
    let code = match e {
        E::Parse(_) => code::PARSE,
        E::CvdNotFound(_) | E::VersionNotFound(_) | E::NotCheckedOut(_) => code::NOT_FOUND,
        E::PermissionDenied { .. } => code::PERMISSION,
        _ => code::INTERNAL,
    };
    EngineError {
        code,
        message: e.to_string(),
    }
}

/// Parse a command line, its error mapped to its wire code.
fn parse(line: &str) -> Result<Command, EngineError> {
    Command::parse(line).map_err(|e| map_err(&e))
}

type Reply = Sender<Result<CommandOutput, EngineError>>;

/// One command for the engine thread: the parsed command, the line it was
/// parsed from (for the slow-query log), and whom and where to answer.
struct Job {
    user: String,
    line: String,
    command: Command,
    trace: u64,
    reply: Reply,
}

enum EngineMsg {
    /// A command: run at once, or drained into a group-commit batch when
    /// it ends in a durability point ([`Command::is_durable`]).
    Job(Job),
    /// Pin an immutable snapshot of a CVD for lock-free session reads.
    Snapshot {
        cvd: String,
        reply: Sender<Result<Snapshot, EngineError>>,
    },
    /// Stall the engine thread (testing hook for backpressure: with the
    /// engine asleep, the admission queue fills deterministically).
    Sleep {
        millis: u64,
    },
    Shutdown,
}

/// Cloneable handle the session workers use to talk to the engine.
#[derive(Clone)]
pub struct EngineHandle {
    tx: Sender<EngineMsg>,
    queued: Arc<AtomicUsize>,
    capacity: usize,
    registry: Registry,
    recorder: Recorder,
}

impl EngineHandle {
    /// The engine database's metrics registry (shared, thread-safe).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The engine database's span recorder (shared, thread-safe). Session
    /// workers use it to attach pinned-snapshot reads to the request trace
    /// without an engine round-trip.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Commits currently waiting in the admission queue.
    pub fn queued_commits(&self) -> usize {
        self.queued.load(Ordering::SeqCst)
    }

    /// Parse `line` and [`send`](Self::send) it. `_session`, the caller's
    /// session id, is not used: the engine keys nothing by session.
    pub fn execute(
        &self,
        _session: u64,
        user: &str,
        line: &str,
        trace: u64,
    ) -> Result<CommandOutput, EngineError> {
        self.send(user, line, parse(line)?, trace)
    }

    /// The same as [`execute`](Self::execute): the command decides its
    /// route.
    pub fn submit_commit(
        &self,
        _session: u64,
        user: &str,
        line: &str,
        trace: u64,
    ) -> Result<CommandOutput, EngineError> {
        self.send(user, line, parse(line)?, trace)
    }

    /// Run `command`, parsed from `line`, on the engine thread and wait
    /// for its reply. `trace` is the originating request's trace id (`0` =
    /// untraced); engine-side spans re-attach to it. A command that ends
    /// in a durability point enters through the bounded admission queue,
    /// and is rejected with [`code::BACKPRESSURE`] — without blocking and
    /// without queueing — when `admission_capacity` such commands are
    /// already waiting.
    pub(crate) fn send(
        &self,
        user: &str,
        line: &str,
        command: Command,
        trace: u64,
    ) -> Result<CommandOutput, EngineError> {
        let durable = command.is_durable();
        if durable {
            let admitted = self
                .queued
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                    (n < self.capacity).then_some(n + 1)
                })
                .is_ok();
            if !admitted {
                self.registry
                    .counter_add("orpheus.server.backpressure_rejections", 1);
                return Err(EngineError {
                    code: code::BACKPRESSURE,
                    message: format!(
                        "commit admission queue full ({} commits queued, capacity {}); retry later",
                        self.capacity, self.capacity
                    ),
                });
            }
            self.registry.gauge_set(
                "orpheus.server.queued_commits",
                self.queued.load(Ordering::SeqCst) as f64,
            );
        }
        let (reply, rx) = mpsc::channel();
        let job = Job {
            user: user.to_owned(),
            line: line.to_owned(),
            command,
            trace,
            reply,
        };
        if self.tx.send(EngineMsg::Job(job)).is_err() {
            if durable {
                self.queued.fetch_sub(1, Ordering::SeqCst);
            }
            return Err(engine_down());
        }
        rx.recv().unwrap_or_else(|_| Err(engine_down()))
    }

    /// Pin an immutable snapshot of `cvd` as of now.
    pub fn snapshot(&self, cvd: &str) -> Result<Snapshot, EngineError> {
        let (tx, rx) = mpsc::channel();
        if self
            .tx
            .send(EngineMsg::Snapshot {
                cvd: cvd.to_owned(),
                reply: tx,
            })
            .is_err()
        {
            return Err(engine_down());
        }
        rx.recv().unwrap_or_else(|_| Err(engine_down()))
    }

    /// Stall the engine thread for `millis` (fire-and-forget test hook).
    pub fn sleep(&self, millis: u64) {
        drop(self.tx.send(EngineMsg::Sleep { millis }));
    }
}

/// What the engine thread hands back once its database is open.
type Opened = (Registry, Recorder, Option<relstore::RecoveryReport>);

/// The engine thread plus its handle. Created by [`EngineService::start`],
/// torn down by [`EngineService::shutdown`] (which joins the thread after
/// a clean close: a last checkpoint, and the log written back).
pub struct EngineService {
    handle: EngineHandle,
    thread: Option<exec_pool::ServiceThread>,
    /// What crash recovery did when the engine opened its data
    /// directory; `None` for an in-memory engine.
    pub(crate) recovery: Option<relstore::RecoveryReport>,
}

impl EngineService {
    /// Open the database on a fresh `orpheus-engine` service thread.
    pub fn start(cfg: EngineConfig) -> Result<EngineService, crate::ServerError> {
        let (tx, rx) = mpsc::channel();
        let (init_tx, init_rx) = mpsc::channel();
        let queued = Arc::new(AtomicUsize::new(0));
        let q = Arc::clone(&queued);
        let loop_cfg = cfg.clone();
        let thread = exec_pool::ServiceThread::spawn("orpheus-engine", move || {
            engine_loop(loop_cfg, rx, init_tx, q)
        })
        .map_err(crate::ServerError::Pool)?;
        let (registry, recorder, recovery) = match init_rx.recv() {
            Ok(Ok(opened)) => opened,
            Ok(Err(msg)) => {
                drop(thread.join());
                return Err(crate::ServerError::Engine(msg));
            }
            Err(_) => {
                let joined = thread.join();
                return Err(crate::ServerError::Engine(match joined {
                    Err(e) => format!("engine thread died during startup: {e}"),
                    Ok(()) => "engine thread exited during startup".into(),
                }));
            }
        };
        Ok(EngineService {
            handle: EngineHandle {
                tx,
                queued,
                capacity: cfg.admission_capacity.max(1),
                registry,
                recorder,
            },
            thread: Some(thread),
            recovery,
        })
    }

    /// The cloneable session-facing handle.
    pub fn handle(&self) -> EngineHandle {
        self.handle.clone()
    }

    /// The engine database's metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.handle.registry
    }

    /// Stop the engine: it closes the database (a final checkpoint, then
    /// the log written back to the page file), then the thread joins.
    pub fn shutdown(mut self) -> Result<(), crate::ServerError> {
        drop(self.handle.tx.send(EngineMsg::Shutdown));
        match self.thread.take() {
            Some(t) => t.join().map_err(crate::ServerError::Pool),
            None => Ok(()),
        }
    }
}

/// Pre-register every `orpheus.server.*` key so `metrics --json` always
/// carries the full schema, even before the first session arrives (the
/// obs schema checker treats a missing key as a failure).
fn seed_metrics(registry: &Registry) {
    for key in [
        "orpheus.server.sessions_total",
        "orpheus.server.queries_total",
        "orpheus.server.snapshot_reads_total",
        "orpheus.server.reply_bytes_total",
        "orpheus.server.reply_flushes_total",
        "orpheus.server.commits_total",
        "orpheus.server.group_commit.batches",
        "orpheus.server.backpressure_rejections",
    ] {
        registry.counter_add(key, 0);
    }
    registry.gauge_set("orpheus.server.active_sessions", 0.0);
    registry.gauge_set("orpheus.server.queued_commits", 0.0);
    registry.gauge_set("orpheus.server.pinned_bytes", 0.0);
    // Histograms materialize on first observe; seed them with a zero
    // sample so the latency/batch-size keys exist from startup.
    registry.observe("orpheus.server.query.latency_us", 0);
    registry.observe("orpheus.server.group_commit.batch_size", 0);
}

fn open_db(cfg: &EngineConfig) -> Result<(OrpheusDb, Option<relstore::RecoveryReport>), String> {
    let (mut db, report) = match &cfg.data_dir {
        Some(dir) => {
            let (db, report) = OrpheusDb::open_durable(dir, cfg.pool_pages)
                .map_err(|e| format!("cannot open data dir {}: {e}", dir.display()))?;
            (db, Some(report))
        }
        None => (OrpheusDb::new(), None),
    };
    db.set_slow_ms(cfg.slow_ms);
    // The server owns durability points: one checkpoint per commit batch
    // (group commit) instead of one per commit.
    db.set_auto_checkpoint(false);
    Ok((db, report))
}

/// Run one job under one `orpheus.server.session` span, so `spans` shows
/// the engine's own spans (`orpheus.commit`, …) nested inside it — one
/// subtree however many sessions the server has served. The span
/// re-attaches to the originating request's trace (`trace != 0`), so
/// engine-side work journals under the caller's trace id even though it
/// runs on the engine thread; the trace, not the span's name, tells
/// requests apart.
fn run_one(db: &mut OrpheusDb, job: &Job) -> Result<CommandOutput, EngineError> {
    let _span = db
        .recorder()
        .enter_with("orpheus.server.session", TraceCtx::from_wire(job.trace));
    db.execute_command_as(&job.user, &job.command, &job.line)
        .map_err(|e| map_err(&e))
}

/// Serve one message at once, unless it is a job that joins a
/// group-commit batch (`Continue(Some(job))`) or a shutdown (`Break`).
fn serve(db: &mut OrpheusDb, msg: EngineMsg) -> ControlFlow<(), Option<Job>> {
    match msg {
        EngineMsg::Job(job) if job.command.is_durable() => return ControlFlow::Continue(Some(job)),
        EngineMsg::Job(job) => drop(job.reply.send(run_one(db, &job))),
        EngineMsg::Snapshot { cvd, reply } => {
            drop(reply.send(db.snapshot(&cvd).map_err(|e| map_err(&e))));
        }
        EngineMsg::Sleep { millis } => std::thread::sleep(Duration::from_millis(millis)),
        EngineMsg::Shutdown => return ControlFlow::Break(()),
    }
    ControlFlow::Continue(None)
}

fn engine_loop(
    cfg: EngineConfig,
    rx: Receiver<EngineMsg>,
    init_tx: Sender<Result<Opened, String>>,
    queued: Arc<AtomicUsize>,
) {
    let (mut db, recovery) = match open_db(&cfg) {
        Ok(opened) => opened,
        Err(msg) => {
            drop(init_tx.send(Err(msg)));
            return;
        }
    };
    let registry = db.metrics().clone();
    seed_metrics(&registry);
    // Pre-register the journal counters alongside the server schema so
    // `metrics --json` carries `obs.journal.*` from startup.
    db.recorder().journal().publish(&registry);
    if init_tx
        .send(Ok((registry.clone(), db.recorder().clone(), recovery)))
        .is_err()
    {
        return;
    }
    while let Ok(msg) = rx.recv() {
        match serve(&mut db, msg) {
            ControlFlow::Continue(None) => {}
            ControlFlow::Continue(Some(first)) => {
                if group_commit(&mut db, first, &rx, MAX_BATCH, &queued, &registry) {
                    break;
                }
            }
            ControlFlow::Break(()) => break,
        }
    }
    // Clean shutdown: one final durability point, and the log written
    // back, so the data directory holds no log bytes.
    drop(db.close());
}

/// Drain the channel into one batch until it is empty or holds
/// `max_batch` jobs, apply the batch's jobs in arrival order, and end it
/// with a single checkpoint (one WAL fsync). Other messages drained on
/// the way are served at once, before any apply — a batch never delays a
/// read or a snapshot pin, and never shows one a commit that is not
/// durable yet. Returns `true` when a shutdown request arrived mid-drain.
fn group_commit(
    db: &mut OrpheusDb,
    first: Job,
    rx: &Receiver<EngineMsg>,
    max_batch: usize,
    queued: &AtomicUsize,
    registry: &Registry,
) -> bool {
    let mut shutdown = false;
    let mut batch = vec![first];
    queued.fetch_sub(1, Ordering::SeqCst);
    while batch.len() < max_batch && !shutdown {
        match rx.try_recv().map(|msg| serve(db, msg)) {
            Ok(ControlFlow::Continue(None)) => {}
            Ok(ControlFlow::Continue(Some(job))) => {
                queued.fetch_sub(1, Ordering::SeqCst);
                batch.push(job);
            }
            Ok(ControlFlow::Break(())) | Err(TryRecvError::Disconnected) => shutdown = true,
            Err(TryRecvError::Empty) => break,
        }
    }
    registry.gauge_set(
        "orpheus.server.queued_commits",
        queued.load(Ordering::SeqCst) as f64,
    );
    // Apply in arrival order; each commit's version-graph work is
    // WAL-logged but NOT individually checkpointed (auto_checkpoint off).
    let mut results = Vec::with_capacity(batch.len());
    for job in &batch {
        results.push(run_one(db, job));
    }
    // One durability point for the whole batch, attributed to the batch
    // leader's trace: the real `pagestore.wal.fsync` span nests under the
    // leader's `orpheus.server.group_commit` span, and every other batch
    // member gets a journal-only `pagestore.wal.fsync.shared` event with
    // the shared fsync's duration, so each committed query's trace shows
    // where its durability cost went without double-counting aggregates.
    let leader_trace = batch.first().map_or(0, |job| job.trace);
    let ckpt_started = Instant::now();
    let ckpt = {
        let _span = db.recorder().enter_with(
            "orpheus.server.group_commit",
            TraceCtx::from_wire(leader_trace),
        );
        db.checkpoint()
    };
    let ckpt_elapsed = ckpt_started.elapsed();
    for job in batch.iter().skip(1) {
        db.recorder()
            .journal()
            .attribute(job.trace, "pagestore.wal.fsync.shared", ckpt_elapsed);
    }
    let n = batch.len() as u64;
    let commits = batch
        .iter()
        .filter(|job| matches!(job.command, Command::Commit(..)));
    let commits = commits.count() as u64;
    for (job, result) in batch.into_iter().zip(results) {
        let result = match (&ckpt, result) {
            // A failed checkpoint means none of the batch is durable:
            // report every commit failed, even if it applied in memory.
            (Err(e), Ok(_)) => Err(EngineError {
                code: code::INTERNAL,
                message: format!("group-commit checkpoint failed: {e}"),
            }),
            (_, r) => r,
        };
        drop(job.reply.send(result));
    }
    registry.counter_add("orpheus.server.commits_total", commits);
    registry.counter_add("orpheus.server.group_commit.batches", 1);
    registry.observe("orpheus.server.group_commit.batch_size", n);
    shutdown
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job for `line`, and where its reply arrives.
    fn job(user: &str, line: &str) -> (Job, Receiver<Result<CommandOutput, EngineError>>) {
        let (reply, got) = mpsc::channel();
        let job = Job {
            user: user.into(),
            line: line.into(),
            command: Command::parse(line).unwrap(),
            trace: 0,
            reply,
        };
        (job, got)
    }

    fn start_mem(capacity: usize) -> EngineService {
        EngineService::start(EngineConfig {
            admission_capacity: capacity,
            ..EngineConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn execute_roundtrips_through_the_engine_thread() {
        let svc = start_mem(4);
        let h = svc.handle();
        let out = h.execute(1, "alice", "whoami", 0).unwrap();
        assert_eq!(out, CommandOutput::Message("alice".into()));
        // Errors come back typed.
        let err = h.execute(1, "alice", "bogus_cmd", 0).unwrap_err();
        assert_eq!(err.code, code::PARSE);
        let err = h.execute(1, "alice", "log nope", 0).unwrap_err();
        assert_eq!(err.code, code::NOT_FOUND);
        svc.shutdown().unwrap();
    }

    /// Every job runs under one session span name, so the span tree does
    /// not grow with the sessions the server has served.
    #[test]
    fn sessions_share_one_span_subtree() {
        let svc = start_mem(4);
        let h = svc.handle();
        h.execute(1, "alice", "whoami", 0).unwrap();
        let nodes = || h.recorder().report().to_text().lines().count();
        let after_one = nodes();
        for session in 2..=1_001 {
            h.execute(session, "alice", "whoami", 0).unwrap();
        }
        assert_eq!(nodes(), after_one);
        svc.shutdown().unwrap();
    }

    #[test]
    fn snapshot_pins_are_served() {
        let svc = start_mem(4);
        let h = svc.handle();
        h.execute(1, "alice", "create_user ignored_twice", 0)
            .unwrap();
        let err = h.snapshot("none").unwrap_err();
        assert_eq!(err.code, code::NOT_FOUND);
        svc.shutdown().unwrap();
    }

    #[test]
    fn full_admission_queue_rejects_with_backpressure() {
        let svc = start_mem(2);
        let h = svc.handle();
        // Stall the engine so queued commits cannot drain.
        h.sleep(300);
        std::thread::sleep(Duration::from_millis(30));
        // Fill the admission queue from other threads (submit blocks on
        // the reply), then overflow it from this one.
        let blocked: Vec<_> = (0..2)
            .map(|i| {
                let h = h.clone();
                exec_pool::ServiceThread::spawn(format!("commit-{i}"), move || {
                    // These fail (nothing checked out) but occupy queue slots
                    // until the engine wakes.
                    let r = h.submit_commit(10 + i as u64, "w", "commit -t none -m x", 0);
                    assert_eq!(r.unwrap_err().code, code::NOT_FOUND);
                })
                .unwrap()
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(h.queued_commits(), 2);
        let err = h
            .submit_commit(99, "w", "commit -t none -m x", 0)
            .unwrap_err();
        assert_eq!(err.code, code::BACKPRESSURE);
        assert!(err.message.contains("capacity 2"), "{}", err.message);
        assert!(
            h.registry()
                .counter("orpheus.server.backpressure_rejections")
                >= 1
        );
        for t in blocked {
            t.join().unwrap();
        }
        svc.shutdown().unwrap();
    }

    /// [commit a, `log d`, commit b] are queued before the engine looks:
    /// the drain serves the `log` before the batch applies, so it shows
    /// neither new version, and both commits share one checkpoint.
    #[test]
    fn a_read_drained_into_a_batch_sees_none_of_its_commits() {
        let dir = std::env::temp_dir().join(format!("orpheus-drain-{}", std::process::id()));
        drop(std::fs::remove_dir_all(&dir));
        let mut db = OrpheusDb::open_durable(&dir, 256).unwrap().0;
        db.set_auto_checkpoint(false);
        let csv = dir.join("seed.csv");
        std::fs::write(&csv, "k,x\n1,1\n2,2\n").unwrap();
        let init = format!("init d -f {} -s k:int,x:int -k k", csv.display());
        db.execute_as("a", &init).unwrap();
        for (user, table, key) in [("a", "wa", 10), ("b", "wb", 20)] {
            for line in [
                format!("checkout d -v 0 -t {table}"),
                format!("insert {table} {key},1"),
            ] {
                db.execute_as(user, &line).unwrap();
            }
        }
        let (a, a_got) = job("a", "commit -t wa -m a");
        let (log, log_got) = job("a", "log d");
        let (b, b_got) = job("b", "commit -t wb -m b");
        let (tx, rx) = mpsc::channel();
        tx.send(EngineMsg::Job(log)).unwrap();
        tx.send(EngineMsg::Job(b)).unwrap();
        let before = db.io_stats().checkpoints;
        let queued = AtomicUsize::new(2);
        assert!(!group_commit(
            &mut db,
            a,
            &rx,
            MAX_BATCH,
            &queued,
            &Registry::new()
        ));
        assert_eq!(db.io_stats().checkpoints - before, 1, "one checkpoint");
        let Ok(CommandOutput::Message(shown)) = log_got.recv().unwrap() else {
            panic!("log failed");
        };
        assert!(shown.contains("* v0"), "{shown}");
        assert!(
            !shown.contains("* v1") && !shown.contains("* v2"),
            "{shown}"
        );
        for (got, vid) in [(a_got, 1), (b_got, 2)] {
            let reply = got.recv().unwrap();
            assert!(matches!(reply, Ok(CommandOutput::Version(v)) if v.0 == vid));
        }
        assert!(db.log("d").unwrap().contains("* v2"));
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A fault at every I/O of a two-commit batch — the sessions'
    /// checkouts and inserts, both applies, the one checkpoint. After the
    /// crash the batch is visible whole or not at all, and a commit that
    /// was acknowledged is never among the lost. A transient error in the
    /// applies or the checkpoint fails every commit of the batch and
    /// poisons the instance: a later pin or query gets the typed error,
    /// and the store reopens as it was before the batch.
    #[test]
    fn a_batch_has_exactly_one_visibility_point() {
        use pagestore::{FaultKind, FaultPager, FaultPlan, FaultWal, FilePager, FileWalStore, Wal};

        fn scratch(tag: &str) -> PathBuf {
            let dir =
                std::env::temp_dir().join(format!("orpheus-batch-{tag}-{}", std::process::id()));
            drop(std::fs::remove_dir_all(&dir));
            std::fs::create_dir_all(&dir).unwrap();
            dir
        }
        fn open_faulty(dir: &std::path::Path, plan: &FaultPlan) -> OrpheusDb {
            let pager = FilePager::open_recoverable(dir.join("pages.db")).unwrap();
            let log = FileWalStore::open(dir.join("wal.log")).unwrap();
            let pool = relstore::BufferPool::with_wal(
                Box::new(FaultPager::new(Box::new(pager), plan.clone())),
                Wal::new(Box::new(FaultWal::new(Box::new(log), plan.clone()))),
                256,
            );
            let mut db = OrpheusDb::open_pool(pool).unwrap();
            db.set_auto_checkpoint(false);
            db
        }
        // The durable history before the batch: `d` at v0, checkpointed.
        fn prefix(db: &mut OrpheusDb, dir: &std::path::Path) {
            let csv = dir.join("seed.csv");
            let rows: String = (0..200).map(|k| format!("{k},{}\n", k * 2)).collect();
            std::fs::write(&csv, format!("k,x\n{rows}")).unwrap();
            let init = format!("init d -f {} -s k:int,x:int -k k", csv.display());
            db.execute_as("a", &init).unwrap();
            db.checkpoint().unwrap();
        }
        // Two sessions stage their work, then their commits meet in one
        // batch. Returns the two replies.
        fn batch(db: &mut OrpheusDb) -> Vec<Result<CommandOutput, EngineError>> {
            stage(db);
            group(db)
        }
        fn stage(db: &mut OrpheusDb) {
            for (user, table, key) in [("a", "wa", 1_000), ("b", "wb", 2_000)] {
                for line in [
                    format!("checkout d -v 0 -t {table}"),
                    format!("insert {table} {key},1"),
                ] {
                    drop(db.execute_as(user, &line));
                }
            }
        }
        fn group(db: &mut OrpheusDb) -> Vec<Result<CommandOutput, EngineError>> {
            let (tx, rx) = mpsc::channel();
            let (first, first_rx) = job("a", "commit -t wa -m batch");
            let (second, second_rx) = job("b", "commit -t wb -m batch");
            tx.send(EngineMsg::Job(second)).unwrap();
            let queued = AtomicUsize::new(2);
            group_commit(db, first, &rx, 2, &queued, &Registry::new());
            vec![first_rx.recv().unwrap(), second_rx.recv().unwrap()]
        }
        fn visible(db: &OrpheusDb) -> String {
            let cvd = db.cvd("d").unwrap();
            let mut seen = format!("{} records\n{}", cvd.num_records(), db.log("d").unwrap());
            for v in 0..cvd.num_versions() {
                let rows = db.run(&format!("SELECT * FROM VERSION {v} OF CVD d"));
                seen.push_str(&format!("{:?}\n", rows.unwrap().rows));
            }
            seen
        }
        fn reopened(dir: &std::path::Path) -> String {
            visible(&OrpheusDb::open_durable(dir, 256).unwrap().0)
        }

        let probe = scratch("probe");
        let plan = FaultPlan::unarmed();
        let mut db = open_faulty(&probe, &plan);
        prefix(&mut db, &probe);
        let before = visible(&db);
        let start = plan.ops();
        stage(&mut db);
        let staged = plan.ops();
        assert!(group(&mut db).iter().all(Result::is_ok));
        let (ops, group_ops) = (plan.ops() - start, plan.ops() - staged);
        let after = visible(&db);
        drop(db);
        assert_eq!(reopened(&probe), after);

        let (mut kept, mut lost) = (0, 0);
        for kind in [FaultKind::CrashStop, FaultKind::ShortWrite] {
            for nth in 1..=ops {
                let dir = scratch("fault");
                let plan = FaultPlan::unarmed();
                let mut db = open_faulty(&dir, &plan);
                prefix(&mut db, &dir);
                plan.arm(nth, kind);
                let replies = batch(&mut db);
                assert!(plan.fired(), "{kind:?} {nth}: never reached");
                drop(db);
                let seen = reopened(&dir);
                if seen == after {
                    kept += 1;
                } else {
                    assert_eq!(seen, before, "{kind:?} at I/O {nth}: part of a batch");
                    assert!(
                        replies.iter().all(Result::is_err),
                        "{kind:?} at I/O {nth}: acknowledged, then lost"
                    );
                    lost += 1;
                }
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
        assert!(kept > 0 && lost > 0, "{kept} kept, {lost} lost");
        for nth in 1..=group_ops {
            let dir = scratch("error");
            let plan = FaultPlan::unarmed();
            let mut db = open_faulty(&dir, &plan);
            prefix(&mut db, &dir);
            stage(&mut db);
            plan.arm(nth, FaultKind::Error);
            let replies = group(&mut db);
            assert!(plan.fired(), "error {nth}: never reached");
            assert!(replies.iter().all(Result::is_err), "error at I/O {nth}");
            let poisoned = |e: orpheus_core::Error| matches!(e, orpheus_core::Error::Poisoned(_));
            assert!(db.snapshot("d").is_err_and(poisoned), "pin after {nth}");
            let query = db.execute_as("a", "run SELECT * FROM VERSION 0 OF CVD d");
            assert!(query.is_err_and(poisoned), "query after {nth}");
            drop(db);
            assert_eq!(reopened(&dir), before, "error at I/O {nth}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
        std::fs::remove_dir_all(&probe).unwrap();
    }
}
