//! # OrpheusDB in Rust — effective data versioning for collaborative data analytics
//!
//! This crate is the facade of a workspace that reproduces Silu Huang's
//! dissertation *"Effective Data Versioning for Collaborative Data
//! Analytics"* (UIUC 2019; OrpheusDB, VLDB'17). It re-exports the public
//! APIs of each subsystem:
//!
//! * [`relstore`] — the embedded relational storage engine substrate,
//! * [`benchgen`] — the SCI/CUR versioning benchmark generators,
//! * [`orpheus`] ([`orpheus_core`]) — CVDs, their tables, checkout/commit
//!   and versioned queries,
//! * [`models`] — the five physical data models of Chapter 4 and the
//!   partitioned store of Chapter 5, which the figures compare,
//! * [`partition`] — the LyreSplit partition optimizer and baselines,
//! * [`vquel`] — the generalized versioning query language,
//! * [`deltastore`] — the compact delta-based storage engine (Chapter 7),
//! * [`provenance`] — lineage inference for untracked repositories,
//! * [`orpheus_server`] — the multi-session TCP front end (snapshot-
//!   isolated readers, group-commit writers).
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

pub use benchgen;
pub use deltastore;
pub use models;
pub use obs;
pub use orpheus_core as orpheus;
pub use orpheus_core;
pub use orpheus_server;
pub use partition;
pub use provenance;
pub use relstore;
pub use vquel;
