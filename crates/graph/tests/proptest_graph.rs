//! Randomized property tests for the graph substrate: algorithm
//! agreement and structural invariants on random graphs drawn from the
//! in-tree seeded PRNG (same cases every run).

use jcr_ctx::rng::{Rng, SeedableRng, StdRng};
use jcr_ctx::SolverContext;
use jcr_graph::{shortest, DiGraph, NodeId};

const CASES: u64 = 256;

/// A random directed graph as (node count, edge list, costs).
fn random_graph(rng: &mut StdRng) -> (usize, Vec<(usize, usize)>, Vec<f64>) {
    let n = rng.gen_range(2..10usize);
    let m = rng.gen_range(1..30usize);
    let edges: Vec<(usize, usize)> = (0..m)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    let costs = (0..m).map(|_| rng.gen_range(0.0..50.0)).collect();
    (n, edges, costs)
}

fn build(n: usize, edges: &[(usize, usize)]) -> DiGraph {
    let mut g = DiGraph::new();
    let nodes = g.add_nodes(n);
    for &(u, v) in edges {
        g.add_edge(nodes[u], nodes[v]);
    }
    g
}

/// Dijkstra and Bellman–Ford agree on non-negative costs.
#[test]
fn dijkstra_matches_bellman_ford() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6469_6a6b + case);
        let (n, edges, costs) = random_graph(&mut rng);
        let g = build(n, &edges);
        let src = NodeId::new(0);
        let dj = shortest::dijkstra_filtered(&g, src, &costs, |_| true);
        let bf = shortest::bellman_ford(&g, src, &costs).expect("no negative cycles");
        for v in g.nodes() {
            let (a, b) = (dj.dist(v), bf.dist(v));
            assert!(
                (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-6,
                "case {case}, {v:?}: dijkstra {a} vs bellman-ford {b}"
            );
        }
    }
}

/// Reconstructed shortest paths are valid and their cost equals the
/// reported distance.
#[test]
fn paths_are_valid_and_cost_consistent() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7061_7468 + case);
        let (n, edges, costs) = random_graph(&mut rng);
        let g = build(n, &edges);
        let src = NodeId::new(0);
        let tree = shortest::dijkstra_filtered(&g, src, &costs, |_| true);
        for v in g.nodes() {
            if let Some(path) = tree.path(v) {
                assert!(path.is_valid(&g));
                if !path.is_empty() {
                    assert_eq!(path.source(&g), Some(src));
                    assert_eq!(path.target(&g), Some(v));
                }
                assert!((path.cost(&costs) - tree.dist(v)).abs() < 1e-6);
            }
        }
    }
}

/// Triangle inequality of the all-pairs matrix.
#[test]
fn all_pairs_triangle_inequality() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6170_7370 + case);
        let (n, edges, costs) = random_graph(&mut rng);
        let g = build(n, &edges);
        let d = shortest::all_pairs_with_context(&g, &costs, &SolverContext::new());
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    if d[a][b].is_finite() && d[b][c].is_finite() {
                        assert!(d[a][c] <= d[a][b] + d[b][c] + 1e-6, "case {case}");
                    }
                }
            }
        }
    }
}

/// Yen's paths are simple, distinct, sorted by cost, and start with
/// the true shortest path.
#[test]
fn yen_invariants() {
    let ctx = SolverContext::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7965_6e21 + case);
        let (n, edges, costs) = random_graph(&mut rng);
        let g = build(n, &edges);
        let src = NodeId::new(0);
        let dst = NodeId::new(n - 1);
        let paths = shortest::k_shortest_paths_with_context(&g, src, dst, 5, &costs, &ctx);
        let tree = shortest::dijkstra_filtered(&g, src, &costs, |_| true);
        if let Some(first) = paths.first() {
            assert!(
                (first.cost(&costs) - tree.dist(dst)).abs() < 1e-6,
                "case {case}"
            );
        } else {
            assert!(!tree.is_reachable(dst) || src == dst, "case {case}");
        }
        for w in paths.windows(2) {
            assert!(w[0].cost(&costs) <= w[1].cost(&costs) + 1e-9);
            assert!(w[0] != w[1], "duplicate path in case {case}");
        }
        for p in &paths {
            assert!(p.is_valid(&g));
            assert!(!p.has_repeated_node(&g), "non-simple path in case {case}");
        }
    }
}

/// SCCs partition the node set, and contracting them yields a DAG
/// (equivalently: the graph is acyclic iff every SCC is trivial and
/// no self-loop exists), consistent with `topological_order`.
#[test]
fn scc_partition_and_acyclicity() {
    use jcr_graph::structure::{is_acyclic, strongly_connected_components, topological_order};
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7363_6331 + case);
        let (n, edges, _costs) = random_graph(&mut rng);
        let g = build(n, &edges);
        let sccs = strongly_connected_components(&g);
        let mut seen = vec![0usize; n];
        for c in &sccs {
            assert!(!c.is_empty());
            for v in c {
                seen[v.index()] += 1;
            }
        }
        assert!(
            seen.iter().all(|&s| s == 1),
            "SCCs must partition the nodes"
        );
        let acyclic = is_acyclic(&g, |_| true);
        assert_eq!(acyclic, topological_order(&g).is_some());
        if acyclic {
            assert!(sccs.iter().all(|c| c.len() == 1));
        }
    }
}

/// CSR adjacency agrees edge-for-edge with a naive insertion-order
/// adjacency-list model, under interleaved node/edge mutation — the
/// invariant the whole refactor leans on: slice-walk iteration must
/// preserve the exact per-node edge order the old `Vec<Vec<EdgeId>>`
/// representation produced.
#[test]
fn csr_adjacency_matches_naive_model() {
    use jcr_graph::EdgeId;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6373_7231 + case);
        let mut g = DiGraph::new();
        let mut out_model: Vec<Vec<(EdgeId, NodeId)>> = Vec::new();
        let mut in_model: Vec<Vec<(EdgeId, NodeId)>> = Vec::new();
        // Interleave node additions and edge additions so the lazy CSR is
        // rebuilt mid-stream.
        for _ in 0..rng.gen_range(5..40usize) {
            if out_model.len() < 2 || rng.gen_range(0..4usize) == 0 {
                g.add_node();
                out_model.push(Vec::new());
                in_model.push(Vec::new());
            } else {
                let n = out_model.len();
                let u = NodeId::new(rng.gen_range(0..n));
                let v = NodeId::new(rng.gen_range(0..n));
                let e = g.add_edge(u, v);
                out_model[u.index()].push((e, v));
                in_model[v.index()].push((e, u));
                if rng.gen_range(0..3usize) == 0 {
                    // Force a CSR build between mutations.
                    let _ = g.out_degree(u);
                }
            }
        }
        assert_eq!(g.node_count(), out_model.len(), "case {case}");
        for v in g.nodes() {
            let out: Vec<(EdgeId, NodeId)> = g.out_pairs(v).collect();
            let inn: Vec<(EdgeId, NodeId)> = g.in_pairs(v).collect();
            assert_eq!(out, out_model[v.index()], "case {case}, out of {v:?}");
            assert_eq!(inn, in_model[v.index()], "case {case}, in of {v:?}");
            let out_edges: Vec<EdgeId> = out_model[v.index()].iter().map(|&(e, _)| e).collect();
            let in_edges: Vec<EdgeId> = in_model[v.index()].iter().map(|&(e, _)| e).collect();
            assert_eq!(g.out_edges(v), &out_edges[..], "case {case}");
            assert_eq!(g.in_edges(v), &in_edges[..], "case {case}");
            assert_eq!(g.out_degree(v), out_edges.len());
            assert_eq!(g.in_degree(v), in_edges.len());
        }
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            assert!(out_model[u.index()].contains(&(e, v)), "case {case}");
            // `find_edge` returns the first matching edge in insertion order.
            let first = out_model[u.index()]
                .iter()
                .find(|&&(_, w)| w == v)
                .map(|&(e, _)| e);
            assert_eq!(g.find_edge(u, v), first, "case {case}");
        }
    }
}

/// Tarjan's SCCs (over CSR) induce the same node partition as an
/// independent Kosaraju reference run over naive adjacency lists.
#[test]
fn sccs_match_kosaraju_reference() {
    use jcr_graph::structure::strongly_connected_components;

    /// Kosaraju on plain (usize, usize) edge lists: forward DFS finish
    /// order, then reverse-graph DFS in reverse finish order.
    fn kosaraju(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
        let mut fwd = vec![Vec::new(); n];
        let mut rev = vec![Vec::new(); n];
        for &(u, v) in edges {
            fwd[u].push(v);
            rev[v].push(u);
        }
        let mut finish = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        for s in 0..n {
            if seen[s] {
                continue;
            }
            // Iterative DFS recording finish times.
            let mut stack = vec![(s, 0usize)];
            seen[s] = true;
            while let Some(&mut (v, ref mut i)) = stack.last_mut() {
                if *i < fwd[v].len() {
                    let w = fwd[v][*i];
                    *i += 1;
                    if !seen[w] {
                        seen[w] = true;
                        stack.push((w, 0));
                    }
                } else {
                    finish.push(v);
                    stack.pop();
                }
            }
        }
        let mut comp = vec![usize::MAX; n];
        let mut sccs: Vec<Vec<usize>> = Vec::new();
        for &s in finish.iter().rev() {
            if comp[s] != usize::MAX {
                continue;
            }
            let k = sccs.len();
            let mut members = vec![s];
            comp[s] = k;
            let mut stack = vec![s];
            while let Some(v) = stack.pop() {
                for &w in &rev[v] {
                    if comp[w] == usize::MAX {
                        comp[w] = k;
                        members.push(w);
                        stack.push(w);
                    }
                }
            }
            sccs.push(members);
        }
        sccs
    }

    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6b6f_7361 + case);
        let (n, edges, _costs) = random_graph(&mut rng);
        let g = build(n, &edges);
        let ours = strongly_connected_components(&g);
        let reference = kosaraju(n, &edges);
        let canon = |sccs: Vec<Vec<usize>>| -> Vec<Vec<usize>> {
            let mut out: Vec<Vec<usize>> = sccs
                .into_iter()
                .map(|mut c| {
                    c.sort_unstable();
                    c
                })
                .collect();
            out.sort();
            out
        };
        let ours = canon(
            ours.into_iter()
                .map(|c| c.iter().map(|v| v.index()).collect())
                .collect(),
        );
        assert_eq!(ours, canon(reference), "case {case}");
    }
}

/// The crate's Dijkstra produces bit-identical distances to a textbook
/// lazy-deletion reference over naive adjacency lists. (With continuous
/// random costs the shortest path is unique, so both walks sum the same
/// edge costs in the same order.)
#[test]
fn dijkstra_dists_match_reference_heap() {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn reference_dijkstra(n: usize, edges: &[(usize, usize)], cost: &[f64]) -> Vec<f64> {
        let mut adj = vec![Vec::new(); n];
        for (e, &(u, v)) in edges.iter().enumerate() {
            adj[u].push((v, cost[e]));
        }
        let mut dist = vec![f64::INFINITY; n];
        dist[0] = 0.0;
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        heap.push(Reverse((0, 0)));
        while let Some(Reverse((d_bits, v))) = heap.pop() {
            let d = f64::from_bits(d_bits);
            if d > dist[v] {
                continue;
            }
            for &(w, c) in &adj[v] {
                let nd = d + c;
                if nd < dist[w] {
                    dist[w] = nd;
                    // Non-negative f64s order the same as their bit patterns.
                    heap.push(Reverse((nd.to_bits(), w)));
                }
            }
        }
        dist
    }

    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6872_6566 + case);
        let (n, edges, costs) = random_graph(&mut rng);
        let g = build(n, &edges);
        let tree = shortest::dijkstra_filtered(&g, NodeId::new(0), &costs, |_| true);
        let reference = reference_dijkstra(n, &edges, &costs);
        for (v, expect) in reference.iter().enumerate() {
            assert_eq!(
                tree.dist(NodeId::new(v)).to_bits(),
                expect.to_bits(),
                "case {case}, node {v}"
            );
        }
    }
}

/// The indexed 4-ary heap kernel settles nodes in exactly the order of
/// the lazy-deletion `BinaryHeap` kernel it replaced, and a targeted run
/// answers its targets exactly as a full run does. Costs are small
/// integers and zeros, so equal tentative distances — and hence the
/// `(dist, node index)` tie-break — occur on almost every graph.
#[test]
fn kernel_matches_lazy_heap_and_targeted_runs_match_full_runs() {
    use jcr_graph::EdgeId;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    // Transcription of the pre-refactor kernel: lazy deletion with a
    // `done` flag per node, min-ordered by `(dist, node index)` through
    // `partial_cmp`.
    #[derive(PartialEq)]
    struct HeapEntry {
        dist: f64,
        node: NodeId,
    }
    impl Eq for HeapEntry {}
    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .dist
                .partial_cmp(&self.dist)
                .unwrap_or(Ordering::Equal)
                .then_with(|| other.node.index().cmp(&self.node.index()))
        }
    }
    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    fn lazy_heap_dijkstra(
        g: &DiGraph,
        source: NodeId,
        cost: &[f64],
        usable: &[bool],
    ) -> (Vec<f64>, Vec<Option<EdgeId>>) {
        let n = g.node_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut parent = vec![None; n];
        let mut done = vec![false; n];
        let mut heap = BinaryHeap::new();
        dist[source.index()] = 0.0;
        heap.push(HeapEntry {
            dist: 0.0,
            node: source,
        });
        while let Some(HeapEntry { dist: d, node: v }) = heap.pop() {
            if done[v.index()] {
                continue;
            }
            done[v.index()] = true;
            for (e, w) in g.out_pairs(v) {
                if !usable[e.index()] {
                    continue;
                }
                let nd = d + cost[e.index()];
                if nd < dist[w.index()] {
                    dist[w.index()] = nd;
                    parent[w.index()] = Some(e);
                    heap.push(HeapEntry { dist: nd, node: w });
                }
            }
        }
        (dist, parent)
    }

    let mut full = shortest::DijkstraScratch::new();
    let mut targeted = shortest::DijkstraScratch::new();
    let (mut full_path, mut targeted_path) = (Vec::new(), Vec::new());
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7469_6573 + case);
        // Edges and the source avoid the last node, so it is unreachable.
        let n = rng.gen_range(2..40usize);
        let m = rng.gen_range(1..6 * n);
        let edges: Vec<(usize, usize)> = (0..m)
            .map(|_| (rng.gen_range(0..n - 1), rng.gen_range(0..n - 1)))
            .collect();
        let costs: Vec<f64> = (0..m).map(|_| rng.gen_range(0..4u32) as f64).collect();
        let usable: Vec<bool> = (0..m).map(|_| rng.gen_range(0..8u32) != 0).collect();
        let g = build(n, &edges);
        let src = NodeId::new(rng.gen_range(0..n - 1));

        let (ref_dist, ref_parent) = lazy_heap_dijkstra(&g, src, &costs, &usable);
        let settled = shortest::dijkstra_filtered_into(
            &g,
            src,
            &costs,
            |e| usable[e.index()],
            &[],
            &mut full,
        );
        let reached = ref_dist.iter().filter(|d| d.is_finite()).count();
        assert_eq!(
            settled, reached,
            "case {case}: a full run settles every reachable node"
        );
        for v in g.nodes() {
            assert_eq!(
                full.dist(v).to_bits(),
                ref_dist[v.index()].to_bits(),
                "case {case}, {v:?}: dist"
            );
            assert_eq!(
                full.parent_edge(v),
                ref_parent[v.index()],
                "case {case}, {v:?}: parent"
            );
        }

        // Targets: random nodes with repeats, the source itself on some
        // cases, and the never-linked last node on others.
        let mut targets: Vec<NodeId> = (0..rng.gen_range(1..5usize))
            .map(|_| NodeId::new(rng.gen_range(0..n)))
            .collect();
        let dup = targets[rng.gen_range(0..targets.len())];
        targets.push(dup);
        match case % 3 {
            0 => targets.push(src),
            1 => targets.push(NodeId::new(n - 1)),
            _ => {}
        }
        let settled_targeted = shortest::dijkstra_filtered_into(
            &g,
            src,
            &costs,
            |e| usable[e.index()],
            &targets,
            &mut targeted,
        );
        assert!(settled_targeted <= settled, "case {case}");
        for &t in &targets {
            assert_eq!(
                targeted.dist(t).to_bits(),
                full.dist(t).to_bits(),
                "case {case}, target {t:?}: dist"
            );
            let reachable = targeted.path_into(&g, t, &mut targeted_path);
            assert_eq!(
                reachable,
                full.path_into(&g, t, &mut full_path),
                "case {case}"
            );
            assert_eq!(reachable, ref_dist[t.index()].is_finite(), "case {case}");
            assert_eq!(targeted_path, full_path, "case {case}, target {t:?}: path");
        }
        // The never-linked node stays unreached (and readable) either way.
        assert!(!targeted.path_into(&g, NodeId::new(n - 1), &mut targeted_path));
    }
}

/// The arena-backed Yen returns exactly the paths of the pre-refactor
/// implementation — same edge sequences, same order. The reference below
/// is a transcription of the old candidate-pool code (per-spur
/// `vec![false; …]` masks, `Vec<Path>` storage, `min_by` + `swap_remove`
/// acceptance), so every tie-break quirk is replicated.
#[test]
fn yen_matches_pre_refactor_reference() {
    use jcr_graph::Path;
    use std::cmp::Ordering;

    fn reference_yen(g: &DiGraph, src: NodeId, dst: NodeId, k: usize, cost: &[f64]) -> Vec<Path> {
        if k == 0 {
            return Vec::new();
        }
        let tree = shortest::dijkstra_filtered(g, src, cost, |_| true);
        let Some(first) = tree.path(dst) else {
            return Vec::new();
        };
        let mut result: Vec<Path> = vec![first];
        let mut candidates: Vec<(f64, Path)> = Vec::new();
        while result.len() < k {
            let prev = result.last().expect("at least one accepted path").clone();
            let prev_nodes = prev.nodes(g);
            for i in 0..prev.len() {
                let spur_node = prev_nodes[i];
                let root_edges = &prev.edges()[..i];
                let mut banned_edges = vec![false; g.edge_count()];
                for p in &result {
                    if p.len() > i && p.edges()[..i] == *root_edges {
                        banned_edges[p.edges()[i].index()] = true;
                    }
                }
                let mut banned_nodes = vec![false; g.node_count()];
                for v in &prev_nodes[..i] {
                    banned_nodes[v.index()] = true;
                }
                let spur_tree = shortest::dijkstra_filtered(g, spur_node, cost, |e| {
                    !banned_edges[e.index()]
                        && !banned_nodes[g.src(e).index()]
                        && !banned_nodes[g.dst(e).index()]
                });
                if let Some(spur_path) = spur_tree.path_to(dst) {
                    let mut edges = root_edges.to_vec();
                    edges.extend(spur_path);
                    let total = Path::new(edges);
                    if total.has_repeated_node(g) {
                        continue;
                    }
                    let c = total.cost(cost);
                    if !result.contains(&total) && !candidates.iter().any(|(_, p)| *p == total) {
                        candidates.push((c, total));
                    }
                }
            }
            let Some((best_idx, _)) = candidates
                .iter()
                .enumerate()
                .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).unwrap_or(Ordering::Equal))
            else {
                break;
            };
            let (_, path) = candidates.swap_remove(best_idx);
            result.push(path);
        }
        result
    }

    let ctx = SolverContext::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7965_6e32 + case);
        let (n, edges, costs) = random_graph(&mut rng);
        let g = build(n, &edges);
        let src = NodeId::new(0);
        let dst = NodeId::new(n - 1);
        let k = rng.gen_range(1..8usize);
        let ours = shortest::k_shortest_paths_with_context(&g, src, dst, k, &costs, &ctx);
        let reference = reference_yen(&g, src, dst, k, &costs);
        assert_eq!(ours, reference, "case {case} (k={k})");
    }
}

/// Rows filled on demand are bit-equal to rows filled at construction —
/// distances and reconstructed paths.
#[test]
fn oracle_on_demand_matches_dense_bitwise() {
    use jcr_graph::DistanceOracle;
    let ctx = SolverContext::new().with_workers(1);
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6f72_6163 + case);
        let (n, edges, costs) = random_graph(&mut rng);
        let g = build(n, &edges);
        let dense = DistanceOracle::with_config(&g, &costs, usize::MAX, &ctx);
        let lazy = DistanceOracle::with_config(&g, &costs, 0, &ctx);
        assert!(dense.is_dense() && !lazy.is_dense());
        for s in g.nodes() {
            for t in g.nodes() {
                assert_eq!(
                    dense.dist(s, t).to_bits(),
                    lazy.dist(s, t).to_bits(),
                    "case {case}, {s:?}->{t:?}"
                );
                assert_eq!(dense.path(s, t), lazy.path(s, t), "case {case}");
            }
        }
        // A second pass reads the rows the first one filled.
        for s in g.nodes() {
            let d = lazy.row(s);
            let expect = dense.row(s);
            assert_eq!(d.dists(), expect.dists(), "case {case}, row {s:?}");
        }
    }
}

/// Nodes in one SCC reach each other; Tarjan emits components in
/// reverse topological order (no edge from an earlier to a later
/// component... i.e. edges can only go from later-emitted components
/// to earlier-emitted ones).
#[test]
fn scc_mutual_reachability() {
    use jcr_graph::structure::strongly_connected_components;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7363_6332 + case);
        let (n, edges, _costs) = random_graph(&mut rng);
        let g = build(n, &edges);
        let sccs = strongly_connected_components(&g);
        let mut comp_of = vec![0usize; n];
        for (k, c) in sccs.iter().enumerate() {
            for v in c {
                comp_of[v.index()] = k;
            }
        }
        for c in &sccs {
            let root = c[0];
            let reach = g.reachable_from(root, |_| true);
            for v in c {
                assert!(reach[v.index()], "{root:?} must reach {v:?} inside its SCC");
            }
        }
        // Reverse topological order: every edge goes to an equal-or-earlier
        // emitted component.
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            assert!(comp_of[u.index()] >= comp_of[v.index()]);
        }
    }
}
