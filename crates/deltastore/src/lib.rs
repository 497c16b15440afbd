//! # deltastore — the compact storage engine for data versioning (Chapter 7)
//!
//! Given a collection of dataset versions and the costs of storing each
//! version either **materialized** (`Δᵢᵢ`, recreation `Φᵢᵢ`) or as a
//! **delta** from another version (`Δᵢⱼ`, `Φᵢⱼ`), choose a storage solution
//! — a spanning tree of the augmented graph rooted at a dummy node `V0` —
//! trading off total storage cost `C` against per-version recreation costs
//! `Rᵢ` (the path cost from `V0`).
//!
//! The six problem variants of Table 7.1 and their solvers:
//!
//! | problem | objective | constraint | solver |
//! |---|---|---|---|
//! | 7.1 | min `C` | — | [`problems::p1_min_storage`] (Prim / Edmonds) |
//! | 7.2 | min all `Rᵢ` | — | [`problems::p2_min_recreation`] (Dijkstra SPT) |
//! | 7.3 | min `ΣRᵢ` | `C ≤ β` | [`lmg::lmg_min_sum_recreation`] |
//! | 7.4 | min `max Rᵢ` | `C ≤ β` | [`problems::p4_min_max_recreation`] (binary search over MP) |
//! | 7.5 | min `C` | `ΣRᵢ ≤ θ` | [`lmg::lmg_min_storage`] |
//! | 7.6 | min `C` | `max Rᵢ ≤ θ` | [`mp::mp_min_storage`] (Modified Prim) |
//!
//! For the undirected `Φ = Δ` case, [`last::last_tree`] ports the
//! LAST algorithm (balancing MST weight against SPT distances). An exact
//! branch-and-bound solver ([`exact`]) validates the heuristics on small
//! instances, and [`gen`] produces triangle-inequality-respecting synthetic
//! instances from latent item sets. [`delta`] provides the concrete
//! delta encoding (item-level add/remove sets) used to build real matrices
//! from version contents.

#![expect(
    clippy::needless_range_loop,
    reason = "index loops mirror the paper's pseudocode over parallel arrays"
)]

pub mod baselines;
pub mod budget;
pub mod delta;
pub mod exact;
pub mod gen;
pub mod graph;
pub mod last;
pub mod lmg;
pub mod mp;
pub mod problems;
pub mod solution;
pub mod spanning;

pub use baselines::gith;
pub use budget::{plan_with_budget, BudgetPlan};
pub use delta::{Delta, VersionContent};
pub use gen::{GenConfig, GraphShape};
pub use graph::{EdgeId, NodeId, StorageGraph, ROOT};
pub use problems::{
    p1_min_storage, p2_min_recreation, p3_min_sum_recreation, p4_min_max_recreation,
    p5_min_storage_sum, p6_min_storage_max,
};
pub use solution::StorageSolution;
