//! The server proper: acceptor + session-worker pool around one
//! [`EngineService`].
//!
//! Thread layout (all [`exec_pool::ServiceThread`]s, all named, all
//! joined on shutdown — nothing leaks):
//!
//! ```text
//! orpheus-acceptor      blocking accept(); hands sockets to workers
//! orpheus-session-{i}   i in 0..workers; one session at a time each
//! orpheus-engine        owns the OrpheusDb; group-commits writes
//! ```
//!
//! Connections are handed to workers over a bounded channel. When every
//! worker is busy and the hand-off queue is full, the acceptor answers
//! the new connection with a typed `53300` error and closes it — the
//! same backpressure-not-buffering policy the commit path uses.
//!
//! [`Server::shutdown`] is cooperative: it raises a flag, nudges the
//! blocking `accept()` with a loopback connect, then joins every thread
//! (acceptor, workers, engine — in that order). A worker mid-session
//! notices the flag at its next 200 ms read-timeout tick and closes the
//! session — at the latest `STALL_TICKS` ticks later when a peer left it
//! mid-frame; the engine closes its database (a final checkpoint, and the
//! log written back) before exiting.

use crate::engine::{EngineConfig, EngineService};
use crate::protocol::{code, FrameBuf};
use crate::session::{serve_session, SessionCounters};
use exec_pool::ServiceThread;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Longest a refused connection may hold the acceptor, per direction.
const REFUSE_WAIT: Duration = Duration::from_millis(250);

/// Anything that can go wrong starting or stopping a server.
#[derive(Debug)]
pub enum ServerError {
    Io(std::io::Error),
    Pool(exec_pool::PoolError),
    Engine(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "io error: {e}"),
            ServerError::Pool(e) => write!(f, "thread error: {e}"),
            ServerError::Engine(m) => write!(f, "engine error: {m}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<exec_pool::PoolError> for ServerError {
    fn from(e: exec_pool::PoolError) -> Self {
        ServerError::Pool(e)
    }
}

/// Server configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Loopback port; `0` picks a free one (see [`Server::local_addr`]).
    pub port: u16,
    /// Session workers = maximum concurrent sessions.
    pub workers: usize,
    pub engine: EngineConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 0,
            workers: 8,
            engine: EngineConfig::default(),
        }
    }
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// still joins every thread (via `ServiceThread`'s drop-join), but only
/// `shutdown` surfaces panics and I/O faults.
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<ServiceThread>,
    workers: Vec<ServiceThread>,
    engine: Option<EngineService>,
    registry: obs::Registry,
}

impl Server {
    /// Bind `127.0.0.1:port`, start the engine and the worker pool, and
    /// begin accepting sessions.
    pub fn start(cfg: ServerConfig) -> Result<Server, ServerError> {
        let engine = EngineService::start(cfg.engine.clone())?;
        let registry = engine.registry().clone();
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let workers = cfg.workers.max(1);

        // Bounded hand-off: acceptor -> workers. Capacity beyond the
        // worker count gives a short accept burst headroom; past that,
        // connections are refused with a typed error, never queued
        // without bound.
        let (conn_tx, conn_rx) = mpsc::sync_channel::<(u64, TcpStream)>(workers);
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let counters = Arc::new(SessionCounters {
            active: AtomicUsize::new(0),
            pinned_bytes: Mutex::new(0),
        });

        let mut worker_threads = Vec::with_capacity(workers);
        for i in 0..workers {
            let rx = Arc::clone(&conn_rx);
            let flag = Arc::clone(&shutdown);
            let handle = engine.handle();
            let counters = Arc::clone(&counters);
            worker_threads.push(ServiceThread::spawn(
                format!("orpheus-session-{i}"),
                move || worker_loop(&rx, &handle, &counters, &flag),
            )?);
        }

        let flag = Arc::clone(&shutdown);
        let acceptor = ServiceThread::spawn("orpheus-acceptor", move || {
            acceptor_loop(&listener, &conn_tx, &flag);
        })?;

        Ok(Server {
            local_addr,
            shutdown,
            acceptor: Some(acceptor),
            workers: worker_threads,
            engine: Some(engine),
            registry,
        })
    }

    /// The bound address (resolves `port: 0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// What crash recovery did when the engine opened its data
    /// directory; `None` for an in-memory server.
    pub fn recovery_report(&self) -> Option<relstore::RecoveryReport> {
        self.engine.as_ref().and_then(|engine| engine.recovery)
    }

    /// The engine's metrics registry (live counters, shared).
    pub fn registry(&self) -> &obs::Registry {
        &self.registry
    }

    /// Cooperative shutdown: close the accept loop, drain the workers,
    /// stop the engine (final checkpoint and write-back included), join
    /// everything.
    /// An `Ok(())` here is the "no leaked threads" proof the CI smoke
    /// gate relies on: every service thread joined without panicking.
    pub fn shutdown(mut self) -> Result<(), ServerError> {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept().
        drop(TcpStream::connect(self.local_addr));
        let mut first_err = None;
        if let Some(acceptor) = self.acceptor.take() {
            if let Err(e) = acceptor.join() {
                first_err.get_or_insert(ServerError::Pool(e));
            }
        }
        for w in self.workers.drain(..) {
            if let Err(e) = w.join() {
                first_err.get_or_insert(ServerError::Pool(e));
            }
        }
        if let Some(engine) = self.engine.take() {
            if let Err(e) = engine.shutdown() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Panic-safety: a server dropped without `shutdown()` (e.g. a
        // failing test unwinding past it) must still raise the flag and
        // nudge the blocking accept(), or the ServiceThread drop-joins
        // that follow would wait forever.
        self.shutdown.store(true, Ordering::SeqCst);
        drop(TcpStream::connect(self.local_addr));
    }
}

fn acceptor_loop(
    listener: &TcpListener,
    conn_tx: &SyncSender<(u64, TcpStream)>,
    shutdown: &AtomicBool,
) {
    let mut next_id: u64 = 1;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept failure (e.g. EMFILE); back off briefly.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let session_id = next_id;
        next_id += 1;
        match conn_tx.try_send((session_id, stream)) {
            Ok(()) => {}
            Err(TrySendError::Full((_, stream))) => refuse(stream),
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

/// Refuse a connection with the typed backpressure error — the session
/// equivalent of a full commit admission queue. What has arrived of the
/// client's startup frame is taken first: closing a socket with unread
/// inbound data resets the connection, which would race the error frame
/// away before the client can read it. One bounded read, never a wait for
/// a frame to complete: this runs on the acceptor thread, and a peer that
/// sends half a frame must not stop the server accepting anyone.
fn refuse(mut stream: TcpStream) {
    drop(stream.set_read_timeout(Some(REFUSE_WAIT)));
    drop(stream.set_write_timeout(Some(REFUSE_WAIT)));
    drop(stream.read(&mut [0u8; 512]));
    let mut frame = FrameBuf::default();
    drop(frame.error(code::BACKPRESSURE, "too many sessions; retry later"));
    drop(stream.write_all(frame.bytes()));
}

fn worker_loop(
    conn_rx: &Arc<Mutex<Receiver<(u64, TcpStream)>>>,
    engine: &crate::engine::EngineHandle,
    counters: &SessionCounters,
    shutdown: &AtomicBool,
) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let next = {
            let rx = match conn_rx.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            // lint:allow(L010): deliberate — idle workers serialize on the one shared Receiver; the guard is held only for this bounded 100 ms wait, never across session work or engine I/O
            rx.recv_timeout(Duration::from_millis(100))
        };
        match next {
            Ok((session_id, stream)) => {
                // Transport faults on one session must not take the
                // worker down; the session is simply over.
                drop(serve_session(
                    stream, session_id, engine, counters, shutdown,
                ));
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}
