//! Materialization budget: which versions stay fully materialized.
//!
//! The delta page format trades storage for recreation cost; the budget
//! factor (`plan_storage <cvd> -b <factor>`) sets how much storage the
//! engine may spend as a *multiple of the minimum* (the MST storage
//! `C_min` of Problem 7.1). A factor of 1.0 is the all-delta extreme
//! (minimum storage, worst recreation); larger factors buy back
//! recreation cost by keeping more versions materialized. Planning dispatches to the LMG heuristic
//! for Problem 7.3 (minimize `ΣRᵢ` s.t. `C ≤ β`), which the
//! branch-and-bound in [`crate::exact`] validates on small instances.

use crate::problems::{p1_min_storage, p3_min_sum_recreation};
use crate::solution::StorageSolution;
use crate::StorageGraph;

/// Default budget factor when `-b` is not given: storage may grow to
/// twice the MST minimum.
pub const DEFAULT_FACTOR: f64 = 2.0;

/// Parse a budget factor. Rejects non-numbers, non-finite values, and
/// factors below 1.0 (a budget under the minimum storage is infeasible
/// by definition — every version must be reachable).
pub fn parse_mat_budget(s: &str) -> Result<f64, String> {
    match s.trim().parse::<f64>() {
        Ok(f) if f.is_finite() && f >= 1.0 => Ok(f),
        _ => Err(format!(
            "expected a finite number ≥ 1.0 (multiple of minimum storage), got {s:?}"
        )),
    }
}

/// A budgeted storage plan: which versions to materialize, which to
/// store as deltas, under `C ≤ β = factor × C_min`.
#[derive(Debug, Clone)]
pub struct BudgetPlan {
    /// The budget factor the plan was built with.
    pub factor: f64,
    /// Minimum achievable storage (MST, Problem 7.1).
    pub min_storage: u64,
    /// The absolute storage budget β handed to the solver.
    pub beta: u64,
    /// The chosen spanning tree: parents, per-version deltas, Φ.
    pub solution: StorageSolution,
}

impl BudgetPlan {
    /// Versions stored as full materializations (children of the
    /// virtual root), ascending.
    pub fn materialized(&self) -> Vec<usize> {
        (1..=self.solution.num_versions())
            .filter(|&v| self.solution.parent[v] == crate::ROOT)
            .collect()
    }
}

/// Plan storage under a materialization budget: β = `factor × C_min`
/// (rounded up), solved with LMG for Problem 7.3. `factor` must be
/// ≥ 1.0 ([`parse_mat_budget`] enforces this at the knob boundary).
pub fn plan_with_budget(graph: &StorageGraph, factor: f64) -> BudgetPlan {
    let min_storage = p1_min_storage(graph).storage_cost();
    let beta = (min_storage as f64 * factor).ceil() as u64;
    let solution = p3_min_sum_recreation(graph, beta);
    BudgetPlan {
        factor,
        min_storage,
        beta,
        solution,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{solve_exact, ExactProblem};
    use crate::gen::{GenConfig, GraphShape};

    #[test]
    fn parse_rejects_garbage_and_sub_minimum_budgets() {
        for bad in ["nope", "", "-1", "0", "0.5", "nan", "inf", "1e999"] {
            assert!(parse_mat_budget(bad).is_err(), "{bad:?} should be rejected");
        }
        assert_eq!(parse_mat_budget("1.0").unwrap(), 1.0);
        assert_eq!(parse_mat_budget(" 2.5 ").unwrap(), 2.5);
        assert_eq!(parse_mat_budget("10").unwrap(), 10.0);
    }

    #[test]
    fn plan_respects_the_budget_and_factor_one_is_min_storage() {
        let g = GenConfig {
            versions: 40,
            shape: GraphShape::Random,
            seed: 7,
            ..GenConfig::default()
        }
        .build();
        let tight = plan_with_budget(&g, 1.0);
        assert_eq!(tight.beta, tight.min_storage);
        assert!(tight.solution.storage_cost() <= tight.beta);
        let loose = plan_with_budget(&g, 3.0);
        assert!(loose.solution.storage_cost() <= loose.beta);
        // More budget never hurts the objective.
        assert!(loose.solution.sum_recreation() <= tight.solution.sum_recreation());
        // Loosening the budget can only add materializations.
        assert!(loose.materialized().len() >= tight.materialized().len());
        assert!(!tight.materialized().is_empty(), "some version must anchor");
    }

    #[test]
    fn budget_plan_is_near_optimal_against_branch_and_bound() {
        // The oracle leg: on exhaustively solvable instances the LMG plan
        // must respect the budget and stay within 1.5× of the true
        // optimum (the paper's observed LMG gap).
        let mut worst: f64 = 1.0;
        for seed in [1u64, 2, 3, 4, 5, 6] {
            let g = GenConfig {
                versions: 9,
                shape: GraphShape::Random,
                base_items: 200,
                adds_per_step: 30,
                removes_per_step: 10,
                extra_edges: 10,
                seed,
                ..GenConfig::default()
            }
            .build();
            for factor in [1.0, 1.5, 2.0] {
                let plan = plan_with_budget(&g, factor);
                assert!(plan.solution.storage_cost() <= plan.beta, "seed {seed}");
                assert!(plan.solution.consistent_with(&g), "seed {seed}");
                let exact = solve_exact(
                    &g,
                    ExactProblem::MinSumRecreationStorage { beta: plan.beta },
                )
                .expect("β ≥ C_min is always feasible");
                let ratio = plan.solution.sum_recreation() as f64 / exact.sum_recreation() as f64;
                assert!(
                    ratio >= 1.0 - 1e-9,
                    "heuristic beat the oracle? seed {seed}"
                );
                worst = worst.max(ratio);
            }
        }
        assert!(worst < 1.5, "LMG budget-plan gap {worst}");
    }
}
