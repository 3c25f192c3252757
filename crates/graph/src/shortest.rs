//! Shortest-path algorithms: Dijkstra, Bellman–Ford and Yen's k-shortest
//! simple paths.
//!
//! Every Dijkstra entry point wraps one kernel, [`dijkstra_filtered_into`],
//! which stops once a given set of target nodes is settled. Repeated runs
//! (oracle row fills, CG pricing, Yen spurs) can reuse one
//! [`DijkstraScratch`] to avoid reallocating the distance/parent/heap
//! buffers per source. A single-source result is one type,
//! [`ShortestPathTree`], which is also the row of the all-pairs
//! [`DistanceOracle`](crate::DistanceOracle). Each routine has one entry
//! point: the single-run forms ([`dijkstra_filtered`],
//! [`dijkstra_filtered_into`], [`bellman_ford`]) take no context, and the
//! repeated-run forms ([`dijkstra_into_with_context`],
//! [`k_shortest_paths_with_context`]) record [`Counter::DijkstraCalls`]
//! and Dijkstra phase time on a required [`SolverContext`].

use std::cmp::Ordering;

use jcr_ctx::{Counter, Phase, SolverContext};

use crate::arena::{PathArena, PathId};
use crate::graph::{DiGraph, EdgeId, NodeId};
use crate::path::Path;

/// Parent-plane sentinel: no parent edge (the source, or an unreachable
/// node).
const NO_PARENT: u32 = u32::MAX;

/// The single-source result every routing decision reads: least costs
/// and tree edges from one source to every node, as produced by
/// [`dijkstra_filtered`] or [`bellman_ford`], and the row type of
/// [`DistanceOracle`](crate::DistanceOracle).
#[derive(Clone, Debug)]
pub struct ShortestPathTree {
    dist: Vec<f64>,
    /// Tree edge entering each node, as an edge index; [`NO_PARENT`] at
    /// the source and at unreachable nodes.
    parent: Vec<u32>,
}

impl ShortestPathTree {
    /// Copies the full tree of the most recent (untargeted) run.
    pub(crate) fn from_scratch(scratch: &DijkstraScratch) -> Self {
        ShortestPathTree {
            dist: scratch.dists().to_vec(),
            parent: scratch.parent.clone(),
        }
    }

    /// Least cost from the source to `t`; `f64::INFINITY` if unreachable.
    pub fn dist(&self, t: NodeId) -> f64 {
        self.dist[t.index()]
    }

    /// All distances, indexed by node index.
    pub fn dists(&self) -> &[f64] {
        &self.dist
    }

    /// Reconstructs the source-to-`t` path into `out` (cleared first).
    /// Returns `false`, leaving `out` empty, if `t` is unreachable; the
    /// path to the source itself is empty.
    pub fn path_into(&self, g: &DiGraph, t: NodeId, out: &mut Vec<EdgeId>) -> bool {
        walk_parents(&self.dist, &self.parent, g, t, out)
    }

    /// A least-cost path from the source to `t`, or `None` if
    /// unreachable.
    pub fn path(&self, g: &DiGraph, t: NodeId) -> Option<Path> {
        let mut edges = Vec::new();
        self.path_into(g, t, &mut edges).then(|| Path::new(edges))
    }
}

/// Follows `parent` from `t` back to the source into `out` (cleared
/// first), source-to-target order; `false` if `dist[t]` is infinite.
fn walk_parents(
    dist: &[f64],
    parent: &[u32],
    g: &DiGraph,
    t: NodeId,
    out: &mut Vec<EdgeId>,
) -> bool {
    out.clear();
    if !dist[t.index()].is_finite() {
        return false;
    }
    let mut v = t;
    while parent[v.index()] != NO_PARENT {
        let e = EdgeId(parent[v.index()]);
        out.push(e);
        v = g.src(e);
    }
    out.reverse();
    true
}

/// `pos` marker: the node was never reached in the last run.
const UNSEEN: u32 = u32::MAX;
/// `pos` marker: the node was settled (popped) in the last run.
const SETTLED: u32 = u32::MAX - 1;
/// Heap arity: a 4-ary heap is half as deep as a binary one, so a
/// decrease-key moves half as many slots, and a pop scans each node's
/// children in one contiguous 64-byte run.
const ARITY: usize = 4;

/// Reusable buffers for repeated Dijkstra runs (all-pairs computations,
/// SSP augmentation loops, Yen spur searches). One scratch serves any
/// number of runs on graphs of any size; buffers grow to the largest
/// graph seen and are reset — not reallocated — per run.
///
/// The priority queue is an indexed 4-ary min-heap with decrease-key:
/// each tentative node has exactly one slot, keyed by
/// `(dist.to_bits(), node index)`.
#[derive(Debug, Default)]
pub struct DijkstraScratch {
    dist: Vec<f64>,
    /// Tree edge index per node, [`NO_PARENT`] if none.
    parent: Vec<u32>,
    /// Per node: its slot in `heap` while tentative, else [`UNSEEN`] or
    /// [`SETTLED`].
    pos: Vec<u32>,
    /// Heap slots `(dist bits, node index)`, a 4-ary min-heap.
    heap: Vec<(u64, u32)>,
}

impl DijkstraScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        DijkstraScratch::default()
    }

    fn reset(&mut self, n: usize) {
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.parent.clear();
        self.parent.resize(n, NO_PARENT);
        self.pos.clear();
        self.pos.resize(n, UNSEEN);
        self.heap.clear();
    }

    /// Debug guard for the targeted-run contract: a node's distance and
    /// tree edge are final only once it is settled (or was never reached).
    fn debug_assert_final(&self, v: NodeId) {
        debug_assert!(
            matches!(self.pos[v.index()], SETTLED | UNSEEN),
            "node {} is still tentative: a targeted run only finalises its targets",
            v.index()
        );
    }

    /// Distances of the most recent run, indexed by node index. Only
    /// meaningful after a full run (empty `targets`).
    pub fn dists(&self) -> &[f64] {
        debug_assert!(
            self.heap.is_empty(),
            "dists() after a targeted run that left tentative nodes"
        );
        &self.dist
    }

    /// Least cost to `v` in the most recent run.
    pub fn dist(&self, v: NodeId) -> f64 {
        self.debug_assert_final(v);
        self.dist[v.index()]
    }

    /// The tree edge entering `v` in the most recent run.
    pub fn parent_edge(&self, v: NodeId) -> Option<EdgeId> {
        self.debug_assert_final(v);
        let e = self.parent[v.index()];
        (e != NO_PARENT).then_some(EdgeId(e))
    }

    /// Reconstructs the tree path to `t` from the most recent run into
    /// `out` (cleared first), source-to-target order. Returns `false`
    /// (leaving `out` empty) if `t` is unreachable.
    ///
    /// Together with [`dijkstra_filtered_into`] this yields paths with no
    /// per-call allocation at all — the route callers use when extracting
    /// many paths from repeated runs (CG pricing, Yen spurs).
    pub fn path_into(&self, g: &DiGraph, t: NodeId, out: &mut Vec<EdgeId>) -> bool {
        self.debug_assert_final(t);
        walk_parents(&self.dist, &self.parent, g, t, out)
    }

    /// Inserts `v` with key `dist[v]`, or moves its slot up after its
    /// distance decreased.
    fn push_or_decrease(&mut self, v: NodeId) {
        let slot = (self.dist[v.index()].to_bits(), v.0);
        let i = match self.pos[v.index()] {
            UNSEEN => {
                self.heap.push(slot);
                self.heap.len() - 1
            }
            p => {
                debug_assert_ne!(p, SETTLED, "decrease-key on a settled node");
                p as usize
            }
        };
        self.sift_up(i, slot);
    }

    /// Removes the minimum slot and marks its node settled.
    fn pop_min(&mut self) -> Option<(u64, u32)> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty heap");
        if !self.heap.is_empty() {
            self.sift_down(0, last);
        }
        self.pos[top.1 as usize] = SETTLED;
        Some(top)
    }

    /// Places `slot` at index `i` or above, moving larger parents down.
    fn sift_up(&mut self, mut i: usize, slot: (u64, u32)) {
        while i > 0 {
            let p = (i - 1) / ARITY;
            if self.heap[p] < slot {
                break;
            }
            self.place(i, self.heap[p]);
            i = p;
        }
        self.place(i, slot);
    }

    /// Places `slot` at index `i` or below, moving smaller children up.
    fn sift_down(&mut self, mut i: usize, slot: (u64, u32)) {
        let len = self.heap.len();
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            for c in first + 1..(first + ARITY).min(len) {
                if self.heap[c] < self.heap[best] {
                    best = c;
                }
            }
            if slot < self.heap[best] {
                break;
            }
            self.place(i, self.heap[best]);
            i = best;
        }
        self.place(i, slot);
    }

    fn place(&mut self, i: usize, slot: (u64, u32)) {
        self.heap[i] = slot;
        self.pos[slot.1 as usize] = i as u32;
    }
}

/// `Count` histogram of settled nodes per single-source Dijkstra run.
/// Every pop settles a node (the heap holds one slot per tentative node),
/// and a targeted run stops at its last target, so this is the run's
/// effort, not the graph size.
pub const HEAP_POPS: &str = "dijkstra.heap_pops";

/// [`dijkstra_filtered_into`] over all edges that also records the call,
/// its wall time, and its settled-node count (the [`HEAP_POPS`]
/// histogram) on `ctx`: the zero-allocation form for tight repeated-run
/// loops (CG pricing, oracle row fills). Read the result from
/// [`DijkstraScratch::path_into`] (or `scratch.dists()` after a full run).
pub fn dijkstra_into_with_context(
    g: &DiGraph,
    source: NodeId,
    cost: &[f64],
    targets: &[NodeId],
    scratch: &mut DijkstraScratch,
    ctx: &SolverContext,
) {
    let _s = ctx.phase_span("graph.dijkstra", Phase::Dijkstra);
    ctx.count(Counter::DijkstraCalls, 1);
    let pops = dijkstra_filtered_into(g, source, cost, |_| true, targets, scratch);
    ctx.metric_value(HEAP_POPS, pops as u64);
}

/// Dijkstra from `source` over the edges for which `usable` returns
/// `true` (`|_| true` for the whole graph), under non-negative edge
/// costs.
///
/// Fault repair and fault simulation use the filter to route around
/// failed or saturated links.
///
/// # Panics
///
/// Panics (in debug builds) if any edge cost is negative or NaN.
pub fn dijkstra_filtered<F: FnMut(EdgeId) -> bool>(
    g: &DiGraph,
    source: NodeId,
    cost: &[f64],
    usable: F,
) -> ShortestPathTree {
    let mut scratch = DijkstraScratch::new();
    dijkstra_filtered_into(g, source, cost, usable, &[], &mut scratch);
    let DijkstraScratch { dist, parent, .. } = scratch;
    ShortestPathTree { dist, parent }
}

/// The Dijkstra kernel every other variant wraps: a run from `source`
/// over the edges `usable` accepts, writing into `scratch` instead of
/// allocating a tree.
///
/// The run stops once every node of `targets` is settled; an empty
/// `targets` grows the full tree. Afterwards the targets' distances and
/// [`DijkstraScratch::path_into`] paths are bit-identical to a full run's:
/// a settled node's distance and parent chain are final, since a later
/// relaxation would need a strictly smaller distance and costs are
/// non-negative. Other nodes may still be tentative, and reading them is
/// a (debug-checked) misuse. Duplicate targets, the source as a target,
/// and unreachable targets (which make the run grow the full tree) are
/// all allowed.
///
/// Nodes settle in increasing `(dist, node index)` order — the order of
/// the lazy-deletion binary heap this kernel replaced — so every
/// tie-break is unchanged. Returns the number of settled nodes, the
/// per-source effort signal the [`HEAP_POPS`] histogram records.
///
/// # Panics
///
/// Panics (in debug builds) if any edge cost is negative or NaN: the
/// heap orders distances by their bit patterns, which agrees with the
/// numeric order only for non-negative, non-NaN values.
pub fn dijkstra_filtered_into<F: FnMut(EdgeId) -> bool>(
    g: &DiGraph,
    source: NodeId,
    cost: &[f64],
    mut usable: F,
    targets: &[NodeId],
    scratch: &mut DijkstraScratch,
) -> usize {
    debug_assert_eq!(cost.len(), g.edge_count(), "cost slice length mismatch");
    debug_assert!(
        cost.iter().all(|c| *c >= 0.0),
        "dijkstra requires non-negative costs"
    );
    scratch.reset(g.node_count());
    // `targets[..next]` are all settled. The cursor only moves forward, so
    // the stop test costs O(1) amortized per settled node.
    let mut next = 0usize;
    scratch.dist[source.index()] = 0.0;
    scratch.push_or_decrease(source);
    let mut settled = 0usize;
    while let Some((d_bits, v)) = scratch.pop_min() {
        settled += 1;
        let v = NodeId(v);
        if !targets.is_empty() {
            while next < targets.len() && scratch.pos[targets[next].index()] == SETTLED {
                next += 1;
            }
            if next == targets.len() {
                break;
            }
        }
        let d = f64::from_bits(d_bits);
        // CSR pair walk: edge id and head node come from two adjacent
        // contiguous arrays, so the relaxation loop never dereferences the
        // endpoint table.
        for (e, w) in g.out_pairs(v) {
            if !usable(e) {
                continue;
            }
            let nd = d + cost[e.index()];
            if nd < scratch.dist[w.index()] {
                scratch.dist[w.index()] = nd;
                scratch.parent[w.index()] = e.0;
                scratch.push_or_decrease(w);
            }
        }
    }
    settled
}

/// The error returned by [`bellman_ford`] when a negative-cost cycle is
/// reachable from the source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NegativeCycle;

impl std::fmt::Display for NegativeCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "negative-cost cycle reachable from source")
    }
}

impl std::error::Error for NegativeCycle {}

/// Bellman–Ford from `source`; edge costs may be negative.
///
/// # Errors
///
/// Returns [`NegativeCycle`] if a negative-cost cycle is reachable from the
/// source.
pub fn bellman_ford(
    g: &DiGraph,
    source: NodeId,
    cost: &[f64],
) -> Result<ShortestPathTree, NegativeCycle> {
    debug_assert_eq!(cost.len(), g.edge_count(), "cost slice length mismatch");
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![NO_PARENT; n];
    dist[source.index()] = 0.0;
    for round in 0..n {
        let mut changed = false;
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            let du = dist[u.index()];
            if du.is_finite() {
                let nd = du + cost[e.index()];
                if nd < dist[v.index()] - 1e-12 {
                    dist[v.index()] = nd;
                    parent[v.index()] = e.0;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
        if round == n.saturating_sub(1) && changed {
            return Err(NegativeCycle);
        }
    }
    Ok(ShortestPathTree { dist, parent })
}

/// Yen's algorithm: up to `k` least-cost *simple* paths from `src` to
/// `dst`, recording every internal Dijkstra run (the initial tree plus
/// one per spur node tried) on `ctx`.
///
/// Returns fewer than `k` paths when fewer simple paths exist. Paths are
/// returned in non-decreasing cost order. Requires non-negative costs.
pub fn k_shortest_paths_with_context(
    g: &DiGraph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    cost: &[f64],
    ctx: &SolverContext,
) -> Vec<Path> {
    let _s = ctx.phase_span("graph.ksp", Phase::Dijkstra);
    if k == 0 {
        return Vec::new();
    }
    ctx.count(Counter::DijkstraCalls, 1);
    let mut scratch = DijkstraScratch::new();
    dijkstra_filtered_into(g, src, cost, |_| true, &[dst], &mut scratch);
    let mut spur_buf: Vec<EdgeId> = Vec::new();
    if !scratch.path_into(g, dst, &mut spur_buf) {
        return Vec::new();
    }

    // The working set lives in one arena: accepted paths and the candidate
    // pool are `(start, len)` spans over a shared edge slab instead of one
    // heap `Vec` per path.
    let mut arena = PathArena::new();
    let mut result: Vec<PathId> = vec![arena.push(&spur_buf)];
    // Candidate pool of (cost, path), deduplicated by edge sequence.
    let mut candidates: Vec<(f64, PathId)> = Vec::new();

    // Epoch-stamped ban marks: "banned in the current spur" means `mark ==
    // epoch`, so starting a new spur is one counter bump rather than a
    // freshly allocated bool array per spur.
    let mut edge_mark = vec![0u32; g.edge_count()];
    let mut node_mark = vec![0u32; g.node_count()];
    let mut epoch = 0u32;
    let mut prev_buf: Vec<EdgeId> = Vec::new();
    let mut prev_nodes: Vec<NodeId> = Vec::new();
    let mut total_buf: Vec<EdgeId> = Vec::new();

    while result.len() < k {
        let prev = *result.last().expect("at least one accepted path");
        prev_buf.clear();
        prev_buf.extend_from_slice(arena.get(prev));
        prev_nodes.clear();
        prev_nodes.push(src);
        prev_nodes.extend(prev_buf.iter().map(|&e| g.dst(e)));
        // Spur from each node of the previous path.
        for i in 0..prev_buf.len() {
            let spur_node = prev_nodes[i];
            let root_edges = &prev_buf[..i];

            epoch += 1;
            // Edges banned: the next edge of any accepted path sharing the root.
            for &id in &result {
                let p = arena.get(id);
                if p.len() > i && p[..i] == *root_edges {
                    edge_mark[p[i].index()] = epoch;
                }
            }
            // Nodes banned: every root node except the spur node, to keep
            // paths simple.
            for v in &prev_nodes[..i] {
                node_mark[v.index()] = epoch;
            }

            ctx.count(Counter::DijkstraCalls, 1);
            dijkstra_filtered_into(
                g,
                spur_node,
                cost,
                |e| {
                    edge_mark[e.index()] != epoch
                        && node_mark[g.src(e).index()] != epoch
                        && node_mark[g.dst(e).index()] != epoch
                },
                &[dst],
                &mut scratch,
            );
            if !scratch.path_into(g, dst, &mut spur_buf) {
                continue;
            }
            total_buf.clear();
            total_buf.extend_from_slice(root_edges);
            total_buf.extend_from_slice(&spur_buf);
            // Simplicity check, on a fresh epoch of the node marks.
            epoch += 1;
            let mut repeated = false;
            for v in std::iter::once(src).chain(total_buf.iter().map(|&e| g.dst(e))) {
                if node_mark[v.index()] == epoch {
                    repeated = true;
                    break;
                }
                node_mark[v.index()] = epoch;
            }
            if repeated {
                continue;
            }
            let c: f64 = total_buf.iter().map(|e| cost[e.index()]).sum();
            let duplicate = result.iter().any(|&id| arena.get(id) == &total_buf[..])
                || candidates
                    .iter()
                    .any(|&(_, id)| arena.get(id) == &total_buf[..]);
            if !duplicate {
                let id = arena.push(&total_buf);
                candidates.push((c, id));
            }
        }
        // Accept the cheapest candidate. Ties resolve exactly as the
        // pre-arena implementation did: `min_by` keeps the last minimum
        // and `swap_remove` reorders the pool.
        let Some((best_idx, _)) = candidates
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).unwrap_or(Ordering::Equal))
        else {
            break;
        };
        let (_, id) = candidates.swap_remove(best_idx);
        result.push(id);
    }

    result.into_iter().map(|id| arena.to_path(id)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph, [NodeId; 4], Vec<f64>) {
        // a -> b -> d and a -> c -> d, plus direct a -> d.
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let d = g.add_node();
        g.add_edge(a, b); // 0: cost 1
        g.add_edge(b, d); // 1: cost 1
        g.add_edge(a, c); // 2: cost 2
        g.add_edge(c, d); // 3: cost 2
        g.add_edge(a, d); // 4: cost 5
        (g, [a, b, c, d], vec![1.0, 1.0, 2.0, 2.0, 5.0])
    }

    #[test]
    fn dijkstra_finds_least_costs() {
        let (g, [a, b, c, d], cost) = diamond();
        let t = dijkstra_filtered(&g, a, &cost, |_| true);
        assert_eq!(t.dist(a), 0.0);
        assert_eq!(t.dist(b), 1.0);
        assert_eq!(t.dist(c), 2.0);
        assert_eq!(t.dist(d), 2.0);
        let p = t.path(&g, d).unwrap();
        assert_eq!(p.nodes(&g), vec![a, b, d]);
    }

    #[test]
    fn dijkstra_unreachable_is_infinite() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let t = dijkstra_filtered(&g, a, &[], |_| true);
        assert!(!t.dist(b).is_finite());
        assert!(t.path(&g, b).is_none());
        assert!(t.path(&g, a).unwrap().is_empty());
    }

    #[test]
    fn dijkstra_handles_zero_cost_edges() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b);
        g.add_edge(b, c);
        let t = dijkstra_filtered(&g, a, &[0.0, 0.0], |_| true);
        assert_eq!(t.dist(c), 0.0);
        assert_eq!(t.path(&g, c).unwrap().len(), 2);
    }

    #[test]
    fn targeted_run_stops_at_its_last_target() {
        let (g, [a, b, c, d], cost) = diamond();
        let mut scratch = DijkstraScratch::new();
        // Settle order is a(0), b(1), c(2), d(2): d ties c and loses on
        // node index, so targeting b settles two nodes and targeting d
        // (twice, plus the source) settles all four.
        assert_eq!(
            dijkstra_filtered_into(&g, a, &cost, |_| true, &[b], &mut scratch),
            2
        );
        assert_eq!(scratch.dist(b), 1.0);
        let targets = [d, a, d];
        assert_eq!(
            dijkstra_filtered_into(&g, a, &cost, |_| true, &targets, &mut scratch),
            4
        );
        let mut path = Vec::new();
        assert!(scratch.path_into(&g, d, &mut path));
        assert_eq!(Path::new(path).nodes(&g), vec![a, b, d]);
        assert_eq!(scratch.dist(c), 2.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "still tentative")]
    fn reading_a_tentative_node_after_a_targeted_run_panics() {
        let (g, [a, b, _, d], cost) = diamond();
        let mut scratch = DijkstraScratch::new();
        // Stops after settling b; d holds the tentative 5.0 of edge a -> d.
        dijkstra_filtered_into(&g, a, &cost, |_| true, &[b], &mut scratch);
        scratch.dist(d);
    }

    #[test]
    fn bellman_ford_matches_dijkstra_on_nonnegative() {
        let (g, [a, _, _, d], cost) = diamond();
        let bf = bellman_ford(&g, a, &cost).unwrap();
        let dj = dijkstra_filtered(&g, a, &cost, |_| true);
        for v in g.nodes() {
            assert!((bf.dist(v) - dj.dist(v)).abs() < 1e-12);
        }
        assert_eq!(bf.path(&g, d).unwrap(), dj.path(&g, d).unwrap());
    }

    #[test]
    fn bellman_ford_accepts_negative_edges() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b); // 3
        g.add_edge(b, c); // -2
        g.add_edge(a, c); // 2
        let t = bellman_ford(&g, a, &[3.0, -2.0, 2.0]).unwrap();
        assert_eq!(t.dist(c), 1.0);
    }

    #[test]
    fn bellman_ford_detects_negative_cycle() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        g.add_edge(b, a);
        assert!(matches!(
            bellman_ford(&g, a, &[1.0, -2.0]),
            Err(NegativeCycle)
        ));
    }

    #[test]
    fn yen_enumerates_paths_in_cost_order() {
        let (g, [a, _, _, d], cost) = diamond();
        let paths = k_shortest_paths_with_context(&g, a, d, 5, &cost, &SolverContext::new());
        assert_eq!(paths.len(), 3);
        let costs: Vec<f64> = paths.iter().map(|p| p.cost(&cost)).collect();
        assert_eq!(costs, vec![2.0, 4.0, 5.0]);
        for p in &paths {
            assert!(p.is_valid(&g));
            assert!(!p.has_repeated_node(&g));
        }
    }

    #[test]
    fn yen_k_zero_and_unreachable() {
        let (g, [a, _, _, d], cost) = diamond();
        let ctx = SolverContext::new();
        assert!(k_shortest_paths_with_context(&g, a, d, 0, &cost, &ctx).is_empty());
        let mut g2 = DiGraph::new();
        let x = g2.add_node();
        let y = g2.add_node();
        assert!(k_shortest_paths_with_context(&g2, x, y, 3, &[], &ctx).is_empty());
    }

    #[test]
    fn yen_respects_simplicity_in_cyclic_graphs() {
        // a <-> b -> c with a cheap cycle; paths must stay simple.
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b); // 1
        g.add_edge(b, a); // 0.1
        g.add_edge(b, c); // 1
        let paths =
            k_shortest_paths_with_context(&g, a, c, 10, &[1.0, 0.1, 1.0], &SolverContext::new());
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].cost(&[1.0, 0.1, 1.0]), 2.0);
    }
}
