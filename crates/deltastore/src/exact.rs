//! Exact branch-and-bound solver for small instances.
//!
//! Enumerates parent choices per version (each version picks one revealed
//! incoming edge), pruning cyclic assignments and partial solutions that
//! already exceed the best known objective. Stands in for the paper's ILP
//! formulation (§7.2.3) as the optimality reference for heuristic
//! validation — usable up to a dozen or so versions.

use crate::graph::StorageGraph;
use crate::solution::StorageSolution;

/// Which objective/constraint pair to solve exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExactProblem {
    /// Problem 7.5: minimize storage s.t. `ΣRᵢ ≤ θ`.
    MinStorageSumRecreation { theta: u64 },
    /// Problem 7.6: minimize storage s.t. `max Rᵢ ≤ θ`.
    MinStorageMaxRecreation { theta: u64 },
    /// Problem 7.3: minimize `ΣRᵢ` s.t. `C ≤ β`.
    MinSumRecreationStorage { beta: u64 },
}

/// Exhaustively solve a small instance. Returns `None` when infeasible.
/// Exponential; intended for `n ≲ 12`.
pub fn solve_exact(graph: &StorageGraph, problem: ExactProblem) -> Option<StorageSolution> {
    let n = graph.num_versions();
    assert!(n <= 14, "exact solver is exponential; use the heuristics");
    let mut best: Option<(u128, StorageSolution)> = None;
    let mut sol = StorageSolution::new(n);
    // Candidate incoming edges per version.
    let candidates: Vec<Vec<crate::graph::Edge>> = (1..=n)
        .map(|v| graph.incoming(v).iter().map(|&e| graph.edge(e)).collect())
        .collect();

    fn objective(problem: ExactProblem, sol: &StorageSolution) -> Option<u128> {
        match problem {
            ExactProblem::MinStorageSumRecreation { theta } => {
                (sol.sum_recreation() <= theta).then(|| sol.storage_cost() as u128)
            }
            ExactProblem::MinStorageMaxRecreation { theta } => {
                (sol.max_recreation() <= theta).then(|| sol.storage_cost() as u128)
            }
            ExactProblem::MinSumRecreationStorage { beta } => {
                (sol.storage_cost() <= beta).then(|| sol.sum_recreation() as u128)
            }
        }
    }

    fn rec(
        v: usize,
        n: usize,
        candidates: &[Vec<crate::graph::Edge>],
        sol: &mut StorageSolution,
        partial_storage: u64,
        problem: ExactProblem,
        best: &mut Option<(u128, StorageSolution)>,
    ) {
        if v > n {
            if !sol.is_valid() {
                return;
            }
            if let Some(score) = objective(problem, sol) {
                if best.as_ref().map(|(b, _)| score < *b).unwrap_or(true) {
                    *best = Some((score, sol.clone()));
                }
            }
            return;
        }
        for e in &candidates[v - 1] {
            // Storage-based pruning where storage is the objective.
            let new_storage = partial_storage + e.delta;
            if let Some((b, _)) = best {
                let prunable = matches!(
                    problem,
                    ExactProblem::MinStorageSumRecreation { .. }
                        | ExactProblem::MinStorageMaxRecreation { .. }
                );
                if prunable && new_storage as u128 >= *b {
                    continue;
                }
                if let ExactProblem::MinSumRecreationStorage { beta } = problem {
                    if new_storage > beta {
                        continue;
                    }
                }
            } else if let ExactProblem::MinSumRecreationStorage { beta } = problem {
                if new_storage > beta {
                    continue;
                }
            }
            sol.parent[v] = e.from;
            sol.delta[v] = e.delta;
            sol.phi[v] = e.phi;
            rec(v + 1, n, candidates, sol, new_storage, problem, best);
        }
    }

    rec(1, n, &candidates, &mut sol, 0, problem, &mut best);
    best.map(|(_, s)| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GenConfig, GraphShape};
    use crate::lmg::{lmg_min_storage, lmg_min_sum_recreation};
    use crate::mp::mp_min_storage;
    use crate::spanning::{dijkstra_spt, min_storage_tree};

    fn small(seed: u64) -> StorageGraph {
        GenConfig {
            versions: 8,
            shape: GraphShape::Random,
            base_items: 200,
            adds_per_step: 30,
            removes_per_step: 10,
            extra_edges: 12,
            directed: true,
            decouple_phi: false,
            seed,
        }
        .build()
    }

    #[test]
    fn exact_matches_mst_when_unconstrained() {
        for seed in [1, 2, 3] {
            let g = small(seed);
            let exact = solve_exact(
                &g,
                ExactProblem::MinStorageSumRecreation { theta: u64::MAX },
            )
            .unwrap();
            let mst = min_storage_tree(&g);
            assert_eq!(exact.storage_cost(), mst.storage_cost(), "seed {seed}");
        }
    }

    #[test]
    fn exact_matches_spt_when_storage_unbounded() {
        for seed in [1, 2, 3] {
            let g = small(seed);
            let exact =
                solve_exact(&g, ExactProblem::MinSumRecreationStorage { beta: u64::MAX }).unwrap();
            let spt = dijkstra_spt(&g);
            assert_eq!(exact.sum_recreation(), spt.sum_recreation(), "seed {seed}");
        }
    }

    #[test]
    fn heuristics_within_factor_of_exact() {
        // The paper's evaluation point: LMG/MP are near-optimal in practice.
        let mut lmg5_gap: f64 = 1.0;
        let mut lmg3_gap: f64 = 1.0;
        let mut mp_gap: f64 = 1.0;
        for seed in [1u64, 2, 3, 4, 5] {
            let g = small(seed);
            let spt = dijkstra_spt(&g);
            let mst = min_storage_tree(&g);

            // P5 with θ = 1.5× SPT total.
            let theta = spt.sum_recreation() * 3 / 2;
            let exact = solve_exact(&g, ExactProblem::MinStorageSumRecreation { theta }).unwrap();
            let h = lmg_min_storage(&g, theta);
            assert!(h.sum_recreation() <= theta);
            lmg5_gap = lmg5_gap.max(h.storage_cost() as f64 / exact.storage_cost() as f64);

            // P3 with β = 1.5× MST storage.
            let beta = mst.storage_cost() * 3 / 2;
            let exact = solve_exact(&g, ExactProblem::MinSumRecreationStorage { beta }).unwrap();
            let h = lmg_min_sum_recreation(&g, beta);
            assert!(h.storage_cost() <= beta);
            lmg3_gap = lmg3_gap.max(h.sum_recreation() as f64 / exact.sum_recreation() as f64);

            // P6 with θ = 2× SPT max.
            let theta = spt.max_recreation() * 2;
            let exact = solve_exact(&g, ExactProblem::MinStorageMaxRecreation { theta }).unwrap();
            let h = mp_min_storage(&g, theta).unwrap();
            assert!(h.max_recreation() <= theta);
            mp_gap = mp_gap.max(h.storage_cost() as f64 / exact.storage_cost() as f64);
        }
        assert!(lmg5_gap < 1.5, "LMG (P5) gap {lmg5_gap}");
        assert!(lmg3_gap < 1.5, "LMG (P3) gap {lmg3_gap}");
        assert!(mp_gap < 1.6, "MP (P6) gap {mp_gap}");
    }

    #[test]
    fn infeasible_returns_none() {
        let g = small(9);
        assert!(solve_exact(&g, ExactProblem::MinStorageMaxRecreation { theta: 1 }).is_none());
    }
}
