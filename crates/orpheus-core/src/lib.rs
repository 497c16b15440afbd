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
//! * `metadata` — the catalog as tables beside the data: the metadata and
//!   attribute tables of each CVD and one small system table, which is
//!   all a durable instance reads back at open;
//! * [`models`] — the five physical data models compared in Chapter 4
//!   (a-table-per-version, combined-table, split-by-vlist, split-by-rlist,
//!   delta-based), all implementing [`models::VersioningModel`];
//! * [`partitioned`] — the partition-optimized split-by-rlist storage that
//!   Chapter 5 builds with LyreSplit, kept for the Chapter 5 figures like
//!   the data models the engine does not run;
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

pub mod command;
pub mod commands;
pub mod cvd;
pub mod error;
mod metadata;
pub mod models;
pub mod partitioned;
pub mod plan;
pub mod query;
pub mod snapshot;

pub use command::{Command, View};
pub use commands::{CommandOutput, OrpheusDb};
pub use cvd::{CommitResult, Cvd, VersionMeta};
pub use error::{Error, Result};
pub use models::{
    ATablePerVersion, CombinedTable, DeltaBased, ModelKind, SplitByRlist, SplitByVlist,
    VersioningModel,
};
pub use partition::{Rid, Vid};
pub use partitioned::PartitionedStore;
pub use snapshot::Snapshot;
