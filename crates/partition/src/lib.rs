//! # partition — the LyreSplit partition optimizer (Chapter 5)
//!
//! OrpheusDB's `split-by-rlist` data model keeps one shared data table, so a
//! checkout of version `v` must scan records that are *not* in `v`. This
//! crate implements the partitioning machinery of Chapter 5, which breaks
//! the version–record bipartite graph into partitions such that every
//! version lives in exactly one partition (records may be duplicated):
//!
//! * the shared **version graph / bipartite graph** types ([`graph`]),
//! * **`lyresplit`** — the paper's lightweight `((1+δ)^ℓ, 1/δ)`
//!   approximation algorithm operating purely on the version tree
//!   (Algorithm 5.1), plus the binary search on δ that solves Problem 5.1
//!   (minimize checkout cost subject to a storage threshold γ), the DAG→tree
//!   transform of §5.3.1, and the weighted-frequency variant of §5.3.2,
//! * **[`baselines`]** — the NScale-style agglomerative-clustering and
//!   k-means partitioners the paper compares against (§5.5.1),
//! * **[`online`]** — incremental maintenance on commit, the tolerance
//!   factor µ, and the intelligent migration engine (§5.4),
//! * **[`cost`]** — the storage cost `S = Σ|Rk|` and checkout cost
//!   `Cavg = Σ|Vk||Rk| / n` (Eq. 5.1–5.2).

#![expect(
    clippy::needless_range_loop,
    reason = "index loops mirror the paper's pseudocode over parallel arrays"
)]

pub mod baselines;
pub mod cost;
pub mod graph;
pub mod lyresplit;
pub mod online;

pub use baselines::{agglo_partition, kmeans_partition, AggloParams, KmeansParams};
pub use cost::{CostSummary, Partitioning};
pub use graph::{Bipartite, Rid, VersionGraph, VersionTree, Vid};
pub use lyresplit::{lyresplit, lyresplit_for_budget, lyresplit_weighted, LyreSplitResult};
pub use online::{MigrationPlan, MigrationStrategy, OnlineConfig, OnlineEvent, OnlineMaintainer};
