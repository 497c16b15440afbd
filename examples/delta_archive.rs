//! The Chapter 7 storage engine on a Fig. 7.1-style archive: decide which
//! dataset versions to materialize and which to store as deltas, under
//! different storage/recreation constraints, with real delta encoding.
//!
//! Run with: `cargo run --example delta_archive`

#![expect(
    clippy::needless_range_loop,
    reason = "index loops walk the versions and their contents in lockstep"
)]
use orpheusdb::deltastore::{
    delta::graph_from_contents, p1_min_storage, p2_min_recreation, p3_min_sum_recreation,
    p5_min_storage_sum, p6_min_storage_max, Delta, VersionContent,
};

fn main() {
    // Five versions of a dataset, evolved the way Fig. 7.1 describes:
    // V1 original; V2 and V3 derived by different teams; V4 from V2;
    // V5 merges the work (here: closest to V3).
    let v1 = VersionContent::new((0..10_000).collect(), 1);
    let v2 = Delta::new((10_000..10_150).collect(), (0..50).collect(), 1).apply(&v1);
    let v3 = Delta::new((20_000..20_700).collect(), (100..1_100).collect(), 1).apply(&v1);
    let v4 = Delta::new((30_000..30_040).collect(), vec![60, 61], 1).apply(&v2);
    let v5 = Delta::new((10_000..10_150).collect(), vec![], 1).apply(&v3);
    let contents = vec![v1, v2, v3, v4, v5];

    // Reveal the version-graph pairs plus one extra (Fig. 7.2's revealed
    // entries beyond the graph).
    let revealed = vec![(1, 2), (1, 3), (2, 4), (2, 5), (3, 5), (4, 5)];
    let g = graph_from_contents(&contents, &revealed);

    let describe = |name: &str, sol: &orpheusdb::deltastore::StorageSolution| {
        let r = sol.recreation_costs();
        println!(
            "{name:<28} storage = {:>9} bytes   ΣR = {:>9}   max R = {:>9}   materialized: {:?}",
            sol.storage_cost(),
            sol.sum_recreation(),
            sol.max_recreation(),
            (1..=5)
                .filter(|&v| sol.parent[v] == orpheusdb::deltastore::ROOT)
                .collect::<Vec<_>>(),
        );
        for v in 1..=5 {
            let parent = if sol.parent[v] == 0 {
                "materialized".to_string()
            } else {
                format!("delta from V{}", sol.parent[v])
            };
            println!("    V{v}: {parent:<18} (R{v} = {})", r[v]);
        }
    };

    println!("Problem 7.1 — minimum storage (Fig. 7.1(iii)'s philosophy):");
    let mst = p1_min_storage(&g);
    describe("MST/arborescence", &mst);

    println!("\nProblem 7.2 — minimum recreation (Fig. 7.1(ii)'s philosophy):");
    let spt = p2_min_recreation(&g);
    describe("shortest-path tree", &spt);

    println!("\nProblem 7.5 — min storage s.t. ΣR ≤ 1.3 × optimum:");
    let sol = p5_min_storage_sum(&g, spt.sum_recreation() * 13 / 10);
    describe("LMG", &sol);

    println!("\nProblem 7.3 — min ΣR s.t. storage ≤ 1.5 × MST:");
    let sol = p3_min_sum_recreation(&g, mst.storage_cost() * 3 / 2);
    describe("LMG", &sol);

    println!("\nProblem 7.6 — min storage s.t. every version recreates within 1.5 × best:");
    match p6_min_storage_max(&g, spt.max_recreation() * 3 / 2) {
        Some(sol) => describe("Modified Prim", &sol),
        None => println!("    infeasible"),
    }

    println!(
        "\n(The balanced solution matches Fig. 7.1(iv)'s intuition: materialize a \
         couple of hub versions, store everything else as small deltas.)"
    );
}
