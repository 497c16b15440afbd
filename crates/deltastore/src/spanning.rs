//! Spanning-structure primitives: Prim's MST (undirected), Edmonds'
//! minimum arborescence (directed), and Dijkstra's shortest-path tree.
//!
//! Problem 7.1 (minimize storage) is exactly a minimum spanning tree /
//! arborescence on Δ (Lemma 7.2); Problem 7.2 (minimize every recreation
//! cost) is the shortest-path tree on Φ (Lemma 7.3).

use crate::graph::{StorageGraph, ROOT};
use crate::solution::StorageSolution;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Prim's algorithm over Δ, treating every edge as traversable in its
/// stored direction (for undirected graphs both directions are present).
/// Suitable when Δ is symmetric; for directed instances use
/// [`edmonds_arborescence`].
pub fn prim_mst(graph: &StorageGraph) -> StorageSolution {
    let n = graph.num_versions();
    let mut sol = StorageSolution::new(n);
    let mut in_tree = vec![false; n + 1];
    in_tree[ROOT] = true;
    // (delta, to, from, phi)
    let mut heap: BinaryHeap<Reverse<(u64, usize, usize, u64)>> = BinaryHeap::new();
    for &eid in graph.outgoing(ROOT) {
        let e = graph.edge(eid);
        heap.push(Reverse((e.delta, e.to, e.from, e.phi)));
    }
    let mut added = 0usize;
    while added < n {
        let Some(Reverse((delta, to, from, phi))) = heap.pop() else {
            break; // disconnected
        };
        if in_tree[to] {
            continue;
        }
        in_tree[to] = true;
        sol.parent[to] = from;
        sol.delta[to] = delta;
        sol.phi[to] = phi;
        added += 1;
        for &eid in graph.outgoing(to) {
            let e = graph.edge(eid);
            if !in_tree[e.to] {
                heap.push(Reverse((e.delta, e.to, e.from, e.phi)));
            }
        }
    }
    sol
}

/// Dijkstra shortest-path tree over Φ from the dummy root: minimizes every
/// `Rᵢ` simultaneously.
pub fn dijkstra_spt(graph: &StorageGraph) -> StorageSolution {
    let n = graph.num_versions();
    let mut sol = StorageSolution::new(n);
    let mut dist = vec![u64::MAX; n + 1];
    dist[ROOT] = 0;
    let mut done = vec![false; n + 1];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    heap.push(Reverse((0, ROOT)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        for &eid in graph.outgoing(u) {
            let e = graph.edge(eid);
            let nd = d.saturating_add(e.phi);
            if nd < dist[e.to] {
                dist[e.to] = nd;
                sol.parent[e.to] = u;
                sol.delta[e.to] = e.delta;
                sol.phi[e.to] = e.phi;
                heap.push(Reverse((nd, e.to)));
            }
        }
    }
    sol
}

/// Chu–Liu/Edmonds minimum-cost arborescence rooted at `V0`, over Δ,
/// implemented with the standard recursive contract-and-expand scheme.
/// O(V·E); the graph must be connected from the root.
pub fn edmonds_arborescence(graph: &StorageGraph) -> StorageSolution {
    #[derive(Clone, Copy)]
    struct E {
        from: usize,
        to: usize,
        w: u64,
        /// Index of the edge this one stands for, one level up
        /// (top level: the original edge id).
        src: usize,
    }

    /// Returns the chosen edge indices *into `edges`* forming a minimum
    /// arborescence rooted at `root` over `num_nodes` nodes.
    fn solve(num_nodes: usize, root: usize, edges: &[E]) -> Vec<usize> {
        // 1. Cheapest incoming edge per node.
        let mut best: Vec<Option<usize>> = vec![None; num_nodes];
        for (i, e) in edges.iter().enumerate() {
            if e.to == root || e.from == e.to {
                continue;
            }
            if best[e.to].map(|b| e.w < edges[b].w).unwrap_or(true) {
                best[e.to] = Some(i);
            }
        }
        // 2. Find cycles among the best edges.
        const UNSET: usize = usize::MAX;
        let mut id = vec![UNSET; num_nodes];
        let mut mark = vec![UNSET; num_nodes];
        let mut cycles: Vec<Vec<usize>> = Vec::new();
        let mut next_id = 0usize;
        for start in 0..num_nodes {
            if start == root || best[start].is_none() {
                continue;
            }
            let mut v = start;
            while v != root && best[v].is_some() && mark[v] == UNSET && id[v] == UNSET {
                mark[v] = start;
                v = edges[best[v].unwrap()].from;
            }
            if v != root && best[v].is_some() && mark[v] == start && id[v] == UNSET {
                // New cycle through v.
                let mut cycle = Vec::new();
                let mut u = v;
                loop {
                    id[u] = next_id;
                    cycle.push(u);
                    u = edges[best[u].unwrap()].from;
                    if u == v {
                        break;
                    }
                }
                next_id += 1;
                cycles.push(cycle);
            }
        }
        if cycles.is_empty() {
            return (0..num_nodes)
                .filter(|&v| v != root)
                .filter_map(|v| best[v])
                .collect();
        }
        // 3. Contract: assign ids to the remaining nodes.
        for v in 0..num_nodes {
            if id[v] == UNSET {
                id[v] = next_id;
                next_id += 1;
            }
        }
        let mut sub_edges = Vec::with_capacity(edges.len());
        for (i, e) in edges.iter().enumerate() {
            let (nf, nt) = (id[e.from], id[e.to]);
            if nf == nt {
                continue;
            }
            // Weight reduction applies when the target sits in a cycle.
            let w = match best[e.to] {
                Some(b) if cycles.iter().any(|c| c.contains(&e.to)) => e.w - edges[b].w,
                _ => e.w,
            };
            sub_edges.push(E {
                from: nf,
                to: nt,
                w,
                src: i,
            });
        }
        let chosen_sub = solve(next_id, id[root], &sub_edges);
        let mut chosen: Vec<usize> = chosen_sub.iter().map(|&i| sub_edges[i].src).collect();
        // 4. Expand each cycle: keep every best edge except the one whose
        // target is entered from outside.
        for cycle in &cycles {
            let entered: Option<usize> = chosen
                .iter()
                .map(|&i| edges[i].to)
                .find(|t| cycle.contains(t));
            for &v in cycle {
                if Some(v) != entered {
                    chosen.push(best[v].unwrap());
                }
            }
        }
        chosen
    }

    let edges: Vec<E> = graph
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| E {
            from: e.from,
            to: e.to,
            w: e.delta,
            src: i,
        })
        .collect();
    let chosen = solve(graph.num_nodes(), ROOT, &edges);

    let n = graph.num_versions();
    let mut sol = StorageSolution::new(n);
    for idx in chosen {
        let e = graph.edge(edges[idx].src);
        sol.parent[e.to] = e.from;
        sol.delta[e.to] = e.delta;
        sol.phi[e.to] = e.phi;
    }
    debug_assert!(sol.is_valid(), "Edmonds produced a cyclic solution");
    sol
}

/// Kruskal's algorithm over Δ for undirected instances — an independent
/// cross-check of [`prim_mst`] (the two must agree on total weight).
pub fn kruskal_mst(graph: &StorageGraph) -> StorageSolution {
    debug_assert!(graph.is_undirected(), "Kruskal needs symmetric deltas");
    let n = graph.num_versions();
    // Union-find over nodes 0..=n.
    let mut parent: Vec<usize> = (0..=n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut edges: Vec<(u64, usize)> = graph
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| (e.delta, i))
        .collect();
    edges.sort_unstable();
    // Chosen undirected edges; orientation resolved by a BFS from the root.
    let mut adj: Vec<Vec<(usize, u64, u64)>> = vec![Vec::new(); n + 1];
    let mut picked = 0usize;
    for (_, eid) in edges {
        if picked == n {
            break;
        }
        let e = graph.edge(eid);
        let (ra, rb) = (find(&mut parent, e.from), find(&mut parent, e.to));
        if ra == rb {
            continue;
        }
        parent[ra] = rb;
        adj[e.from].push((e.to, e.delta, e.phi));
        adj[e.to].push((e.from, e.delta, e.phi));
        picked += 1;
    }
    let mut sol = StorageSolution::new(n);
    let mut seen = vec![false; n + 1];
    seen[ROOT] = true;
    let mut queue = std::collections::VecDeque::from([ROOT]);
    while let Some(u) = queue.pop_front() {
        for &(v, delta, phi) in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                sol.parent[v] = u;
                sol.delta[v] = delta;
                sol.phi[v] = phi;
                queue.push_back(v);
            }
        }
    }
    sol
}

/// The best spanning structure for Problem 7.1 given directionality.
pub fn min_storage_tree(graph: &StorageGraph) -> StorageSolution {
    if graph.is_undirected() {
        prim_mst(graph)
    } else {
        edmonds_arborescence(graph)
    }
}

/// Per-version shortest Φ-distances from the root (used by LAST and MP).
pub fn shortest_phi_distances(graph: &StorageGraph) -> Vec<u64> {
    dijkstra_spt(graph).recreation_costs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig71() -> StorageGraph {
        let mut g = StorageGraph::new(5, false);
        g.add_materialization(1, 10000, 10000);
        g.add_materialization(2, 10100, 10100);
        g.add_materialization(3, 9700, 9700);
        g.add_materialization(4, 9800, 9800);
        g.add_materialization(5, 10120, 10120);
        g.add_delta(1, 2, 200, 200);
        g.add_delta(1, 3, 1000, 3000);
        g.add_delta(2, 4, 50, 400);
        g.add_delta(2, 5, 800, 2500);
        g.add_delta(3, 5, 200, 550);
        g.add_delta(2, 1, 500, 600);
        g.add_delta(3, 2, 1100, 3200);
        g.add_delta(5, 4, 800, 2300);
        g.add_delta(4, 5, 900, 2500);
        g
    }

    #[test]
    fn arborescence_matches_fig71_iii() {
        // Minimum storage keeps only V1 materialized: C = 11450.
        let sol = edmonds_arborescence(&fig71());
        assert!(sol.is_valid());
        assert!(sol.consistent_with(&fig71()));
        assert_eq!(sol.storage_cost(), 11450);
        assert_eq!(sol.num_materialized(), 1);
    }

    #[test]
    fn spt_minimizes_every_recreation() {
        let g = fig71();
        let sol = dijkstra_spt(&g);
        assert!(sol.is_valid());
        let r = sol.recreation_costs();
        // Each version's R must equal its true shortest Φ-distance;
        // spot-check v4: direct = 9800 vs via v2 = 10000+200+400 = 10600.
        assert_eq!(r[4], 9800);
        assert_eq!(r[3], 9700);
        // v2 via v1: 10200 > 10100 direct.
        assert_eq!(r[2], 10100);
    }

    #[test]
    fn spt_dominates_any_other_solution() {
        let g = fig71();
        let spt = dijkstra_spt(&g).recreation_costs();
        let mst = edmonds_arborescence(&g).recreation_costs();
        for v in 1..=5 {
            assert!(spt[v] <= mst[v], "SPT must minimize R{v}");
        }
    }

    #[test]
    fn prim_on_undirected_instance() {
        let mut g = StorageGraph::new(3, true);
        g.add_materialization(1, 100, 100);
        g.add_materialization(2, 110, 110);
        g.add_materialization(3, 120, 120);
        g.add_delta(1, 2, 10, 10);
        g.add_delta(2, 3, 15, 15);
        g.add_delta(1, 3, 30, 30);
        let sol = prim_mst(&g);
        assert!(sol.is_valid());
        // MST: materialize v1 (cheapest), deltas 1-2 and 2-3.
        assert_eq!(sol.storage_cost(), 100 + 10 + 15);
    }

    #[test]
    fn kruskal_agrees_with_prim() {
        use crate::gen::{GenConfig, GraphShape};
        for seed in [1u64, 2, 3, 4] {
            let g = GenConfig {
                versions: 40,
                shape: GraphShape::Random,
                directed: false,
                extra_edges: 80,
                seed,
                ..GenConfig::default()
            }
            .build();
            let p = prim_mst(&g);
            let k = kruskal_mst(&g);
            assert!(k.is_valid());
            assert_eq!(
                p.storage_cost(),
                k.storage_cost(),
                "MST weights disagree at seed {seed}"
            );
        }
    }

    #[test]
    fn arborescence_beats_greedy_on_cycle_instance() {
        // Classic case where per-node greedy picks a cycle: Edmonds must
        // still return a valid arborescence with minimum cost.
        let mut g = StorageGraph::new(3, false);
        g.add_materialization(1, 10, 10);
        g.add_materialization(2, 100, 100);
        g.add_materialization(3, 100, 100);
        g.add_delta(2, 3, 1, 1);
        g.add_delta(3, 2, 1, 1);
        g.add_delta(1, 2, 8, 8);
        let sol = edmonds_arborescence(&g);
        assert!(sol.is_valid());
        // Optimal: mat 1 (10), 1→2 (8), 2→3 (1) = 19.
        assert_eq!(sol.storage_cost(), 19);
    }
}
