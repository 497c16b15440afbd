//! # orpheus-server — multi-session network front end
//!
//! OrpheusDB as the paper deploys it is collaborative: many analysts
//! share one versioned store. This crate puts a TCP front end on the
//! engine so that concurrent sessions get the two properties that matter
//! for collaborative versioning:
//!
//! * **Snapshot-isolated, lock-free reads.** A session `pin`s a CVD and
//!   receives an immutable [`orpheus_core::Snapshot`] — version graph
//!   plus records as of that instant. Versioned queries against a pinned
//!   CVD run on the session's own thread with no locks and no engine
//!   round-trip; no reader ever blocks a writer, and reads are
//!   repeatable until re-pinned.
//! * **Group-commit writes.** Commits funnel through a bounded admission
//!   queue to the single engine thread, which batches concurrently
//!   arriving commits and makes them durable with *one* WAL fsync per
//!   batch instead of one per commit. When the queue is full, new
//!   commits get a typed backpressure error (`53300`) instead of
//!   queueing unboundedly.
//!
//! The wire format is pgwire-flavored length-prefixed framing with a
//! simple-query subset ([`protocol`]); [`client`] is the matching
//! blocking client. See `DESIGN.md` § Server for the full protocol and
//! lifecycle description.
//!
//! ```no_run
//! use orpheus_server::{Client, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default())?;
//! let mut c = Client::connect(server.local_addr(), "alice")?;
//! let reply = c.query("whoami")?;
//! assert_eq!(reply.tag(), Some("alice"));
//! c.terminate()?;
//! server.shutdown()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Library code surfaces a broken invariant as a typed error, never as an
// abort, and drops no `Result` or span guard unread; test code may panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::unused_result_ok))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]

pub mod client;
pub mod engine;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::{Client, ClientError, Reply};
pub use engine::{EngineConfig, EngineError, EngineHandle, EngineService};
pub use protocol::{code, ClientMsg, ProtoError, ServerMsg};
pub use server::{Server, ServerConfig, ServerError};
pub use session::output_messages;
