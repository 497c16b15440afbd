//! # orpheus-core — OrpheusDB (Chapters 3–5)
//!
//! OrpheusDB is a dataset version-control system that "bolts on" versioning
//! to a relational database. The fundamental unit of storage is the
//! **collaborative versioned dataset (CVD)**: a relation plus the many
//! versions of it, related by a version graph. Records are immutable; each
//! version is a set of record ids; users interact through git-style
//! commands (`checkout`, `commit`, `diff`, …) and versioned SQL.
//!
//! The crate is organised exactly along the paper's architecture
//! (Fig. 3.1):
//!
//! * [`cvd`] — the CVD itself: the record manager (rid assignment under the
//!   no-cross-version-diff rule), the version manager (metadata table,
//!   version graph), and schema evolution (attribute table, §4.3);
//! * [`metadata`] — a CVD's tables, the one module that knows them: the
//!   split-by-rlist data and versioning tables (§4.3) the engine reads and
//!   appends to, and the catalog beside them — the metadata and attribute
//!   tables of each CVD and one small system table, which is all a
//!   durable instance reads back at open. (The other four data models of
//!   Chapter 4, and Chapter 5's partitioned store, are the `models`
//!   crate's: experiment code the engine never runs.)
//! * [`query`] — the versioned query surface: the parser and the parsed
//!   [`query::VQuery`] for `SELECT … FROM VERSION i OF CVD c`, aggregates
//!   `GROUP BY vid`, `v_diff`, `v_intersect` and cross-version `JOIN`
//!   (§3.3.2; `ancestor`/`descendant`/`parent` live on the version graph);
//! * [`plan`] — the one translation of a `VQuery`: parse →
//!   [`plan::LogicalPlan`] → `lower(source, decorator)`, where the source
//!   is the engine's tables ([`plan::Tables`]) or a pinned [`Snapshot`]
//!   and the decorator is plain or `explain analyze`'s instrumenting one;
//! * [`command`] — the command grammar: each line parsed once into a typed
//!   [`Command`], shared by the shell, the server session and the engine;
//! * [`commands`] — the command surface it runs on: `init`, `checkout`,
//!   `commit`, `diff`, `ls`, `drop`, `optimize` (a LyreSplit plan), plus
//!   user management and the access-controlled staging area (§3.3.1).

// Library code surfaces a broken invariant as a typed error, never as an
// abort, and drops no `Result` or span guard unread; test code may panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::unused_result_ok))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]

pub mod command;
pub mod commands;
pub mod cvd;
pub mod error;
pub mod metadata;
pub mod plan;
pub mod query;
pub mod snapshot;

pub use command::{Command, View};
pub use commands::{CommandOutput, OrpheusDb};
pub use cvd::{CommitResult, Cvd, VersionMeta};
pub use error::{Error, Result};
pub use partition::{Rid, Vid};
pub use snapshot::Snapshot;
