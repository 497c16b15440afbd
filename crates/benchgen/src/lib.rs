//! # benchgen — versioning benchmark workloads (§5.5.1)
//!
//! Re-implementation of the versioning benchmark of Maddox et al. (the
//! Decibel benchmark), from which the paper draws its `SCI_*` and `CUR_*`
//! datasets:
//!
//! * **SCI** simulates data scientists taking copies of an evolving dataset
//!   for isolated analysis: a mainline with branches forked at different
//!   points (from the mainline and from other branches). The version graph
//!   is a tree.
//! * **CUR** simulates a curated canonical dataset that contributors branch
//!   from and periodically merge back into. The version graph is a DAG.
//!
//! Parameters follow the paper's Table 5.2: number of versions `|V|`,
//! branches `B`, and modifications per commit `I` (inserts/updates from the
//! parent version). Records carry `num_attrs` integer attributes whose
//! first attribute is the logical primary key; updates produce a new record
//! (fresh `rid`) with the same primary key, per the immutable-record rule of
//! §3.1 and the no-cross-version-diff rule of §3.3.1.

pub mod generator;
pub mod spec;

pub use generator::{generate, VersionedDataset};
pub use spec::{DatasetSpec, DatasetStats, Workload};
