//! All-pairs distances without the all-pairs matrix.
//!
//! Paper-scale topologies (23–113 nodes) afford every row of the |V|²
//! distance table; a 1000-node stress instance does not — and the solvers
//! never need most of it, because RNR routing only ever asks for rows
//! rooted at replica holders and the origin. [`DistanceOracle`] keeps one
//! slot per source. Below a node-count threshold every slot is filled at
//! construction; above it a slot is filled the first time its row is asked
//! for (or primed in bulk). A filled row is never evicted or rewritten, so
//! reading it takes no lock, and the rows held are exactly the rows asked
//! for.

use std::sync::{Arc, OnceLock};

use jcr_ctx::SolverContext;

use crate::graph::{DiGraph, EdgeId, NodeId};
use crate::path::Path;
use crate::shortest::{dijkstra_filtered_into, dijkstra_into_with_context, DijkstraScratch};

/// Sentinel in parent planes: no parent edge (source or unreachable).
const NO_PARENT: u32 = u32::MAX;

/// Default node-count threshold at or below which the oracle fills every
/// row at construction; above it rows are filled on demand.
/// [`DistanceOracle::with_config`] takes the threshold explicitly.
pub const DEFAULT_DENSE_MAX: usize = 600;

/// Number of carried rows [`DistanceOracle::carry_with_config`] re-runs
/// from scratch and compares bitwise before trusting the carry.
const CARRY_VERIFY_SAMPLES: usize = 2;

/// One shortest-path row: distances and parent edges from a single
/// source to every node, exactly what one Dijkstra run produces.
#[derive(Clone, Debug)]
pub struct Row {
    dist: Vec<f64>,
    parent: Vec<u32>,
}

impl Row {
    fn from_scratch(scratch: &DijkstraScratch, n: usize) -> Self {
        Row {
            dist: scratch.dists()[..n].to_vec(),
            parent: (0..n)
                .map(|v| {
                    scratch
                        .parent_edge(NodeId::new(v))
                        .map_or(NO_PARENT, |e| e.index() as u32)
                })
                .collect(),
        }
    }

    /// Whether this row equals, bit for bit, the full run held in
    /// `scratch`.
    fn matches(&self, scratch: &DijkstraScratch) -> bool {
        let fresh = Row::from_scratch(scratch, self.dist.len());
        self.parent == fresh.parent
            && self
                .dist
                .iter()
                .zip(&fresh.dist)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Least cost from the row's source to `t` (`f64::INFINITY` if
    /// unreachable).
    pub fn dist(&self, t: NodeId) -> f64 {
        self.dist[t.index()]
    }

    /// All distances from the row's source, indexed by node.
    pub fn dists(&self) -> &[f64] {
        &self.dist
    }

    /// Reconstructs the source-to-`t` path into `out` (cleared first).
    /// Returns `false`, leaving `out` empty, if `t` is unreachable.
    pub fn path_into(&self, g: &DiGraph, t: NodeId, out: &mut Vec<EdgeId>) -> bool {
        out.clear();
        if !self.dist(t).is_finite() {
            return false;
        }
        let mut v = t;
        while self.parent[v.index()] != NO_PARENT {
            let e = EdgeId::new(self.parent[v.index()] as usize);
            out.push(e);
            v = g.src(e);
        }
        out.reverse();
        true
    }
}

/// What a carry-forward oracle construction did with the previous
/// oracle's rows (see [`DistanceOracle::carry_with_config`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CarryReport {
    /// Rows whose delta certificate held and that were carried verbatim.
    pub rows_carried: usize,
    /// Candidate rows invalidated by the cost delta (refilled at once
    /// below the node threshold, on demand above it).
    pub rows_dropped: usize,
    /// Carried rows re-verified bitwise against a fresh Dijkstra.
    pub rows_verified: usize,
    /// Whether the previous oracle's graph was structurally identical;
    /// `false` means nothing was carried.
    pub compatible: bool,
    /// Whether the sampled re-verification found a mismatch (in which
    /// case every carried row was dropped and the build went cold).
    pub verify_failed: bool,
}

/// Named counter: oracle rows carried across a cost delta.
pub const ROWS_CARRIED: &str = "graph.oracle.rows_carried";
/// Named counter: candidate rows invalidated by a cost delta.
pub const ROWS_DROPPED: &str = "graph.oracle.rows_dropped";

/// Shortest-path distances (and paths) between all node pairs: one
/// lazily filled row per source, every row filled at construction for
/// paper-scale graphs.
///
/// The oracle owns its graph and cost vector, so a row filled late sees
/// the same inputs as one filled at construction, and every fill runs
/// the same Dijkstra kernel: a row's bits do not depend on when, or on
/// which thread, it was filled. Rows are shared (`Arc`), so a clone
/// keeps every filled row without copying it.
#[derive(Clone, Debug)]
pub struct DistanceOracle {
    graph: DiGraph,
    cost: Vec<f64>,
    rows: Vec<OnceLock<Arc<Row>>>,
    /// Rows filled when the oracle was built (every row below the node
    /// threshold; the carried rows above it).
    prefilled: usize,
    max_cost: OnceLock<f64>,
}

impl DistanceOracle {
    fn unfilled(graph: &DiGraph, cost: &[f64]) -> Self {
        assert_eq!(cost.len(), graph.edge_count(), "cost slice length mismatch");
        DistanceOracle {
            graph: graph.clone(),
            cost: cost.to_vec(),
            rows: (0..graph.node_count()).map(|_| OnceLock::new()).collect(),
            prefilled: 0,
            max_cost: OnceLock::new(),
        }
    }

    /// Builds an oracle for `graph` under `cost`. When the graph has at
    /// most `dense_max` nodes every row is filled now, fanned out over
    /// `ctx.workers()` threads with one Dijkstra call per source recorded
    /// on `ctx`; otherwise construction is O(|V|) and rows are filled on
    /// demand.
    pub fn with_config(
        graph: &DiGraph,
        cost: &[f64],
        dense_max: usize,
        ctx: &SolverContext,
    ) -> Self {
        let mut oracle = Self::unfilled(graph, cost);
        if graph.node_count() <= dense_max {
            let sources: Vec<NodeId> = graph.nodes().collect();
            oracle.fill(&sources, ctx);
            oracle.prefilled = sources.len();
        }
        oracle
    }

    /// Fills the rows rooted at `sources` (distinct, so far unfilled)
    /// over `ctx.workers()` threads, recording one Dijkstra call per
    /// source on `ctx`. Each source is one task; its row lands in its own
    /// slot, so the result does not depend on the pool width.
    fn fill(&self, sources: &[NodeId], ctx: &SolverContext) {
        if sources.is_empty() {
            return;
        }
        let _s = ctx.span("graph.oracle.fill");
        let n = self.node_count();
        let rows = jcr_ctx::par::par_map_init(
            ctx,
            sources,
            DijkstraScratch::default,
            |scratch, wctx, _i, &s| {
                dijkstra_into_with_context(&self.graph, s, &self.cost, &[], scratch, wctx);
                Row::from_scratch(scratch, n)
            },
        );
        for (s, row) in sources.iter().zip(rows) {
            // A concurrent `row` miss may have filled the slot first, with
            // the same bits.
            let _ = self.rows[s.index()].set(Arc::new(row));
        }
    }

    /// The graph the oracle answers for.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The per-edge costs the oracle answers under.
    pub fn cost(&self) -> &[f64] {
        &self.cost
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Whether the oracle was built with every row filled — always the
    /// case at or below the node threshold.
    pub fn is_dense(&self) -> bool {
        self.prefilled == self.node_count()
    }

    /// Number of rows filled since construction, by a [`row`] miss or by
    /// [`prime_rows_with_context`]. Each row is filled at most once, so
    /// this is 0 for an oracle built with every row.
    ///
    /// [`row`]: DistanceOracle::row
    /// [`prime_rows_with_context`]: DistanceOracle::prime_rows_with_context
    pub fn rows_computed(&self) -> u64 {
        let filled = self.rows.iter().filter(|r| r.get().is_some()).count();
        (filled - self.prefilled) as u64
    }

    /// The row rooted at `s`, filled now (one uncounted Dijkstra run) if
    /// it is not yet. Concurrent first reads of one row fill it once.
    pub fn row(&self, s: NodeId) -> &Row {
        self.rows[s.index()].get_or_init(|| {
            let mut scratch = DijkstraScratch::default();
            dijkstra_filtered_into(&self.graph, s, &self.cost, |_| true, &[], &mut scratch);
            Arc::new(Row::from_scratch(&scratch, self.node_count()))
        })
    }

    /// Least cost from `s` to `t` (`f64::INFINITY` if unreachable).
    pub fn dist(&self, s: NodeId, t: NodeId) -> f64 {
        self.row(s).dist(t)
    }

    /// A least-cost `s -> t` path, or `None` if unreachable.
    pub fn path(&self, s: NodeId, t: NodeId) -> Option<Path> {
        let mut edges = Vec::new();
        self.row(s)
            .path_into(&self.graph, t, &mut edges)
            .then(|| Path::new(edges))
    }

    /// Fills the rows rooted at `sources` that are not yet filled, in
    /// parallel over `ctx.workers()` threads. Duplicate sources are
    /// filled once; already filled rows cost nothing.
    pub fn prime_rows_with_context(&self, sources: &[NodeId], ctx: &SolverContext) {
        let mut seen = vec![false; self.node_count()];
        let missing: Vec<NodeId> = sources
            .iter()
            .copied()
            .filter(|s| {
                self.rows[s.index()].get().is_none()
                    && !std::mem::replace(&mut seen[s.index()], true)
            })
            .collect();
        self.fill(&missing, ctx);
    }

    /// The largest finite pairwise distance, computed lazily on first use.
    ///
    /// Filled rows are read; every other source's row is streamed
    /// through one scratch and not stored, so an on-demand oracle's peak
    /// memory stays O(|V|) beyond the rows already held.
    pub fn max_cost(&self) -> f64 {
        *self.max_cost.get_or_init(|| {
            let mut scratch = DijkstraScratch::default();
            let mut max = 0.0f64;
            for s in self.graph.nodes() {
                let dists = match self.rows[s.index()].get() {
                    Some(row) => row.dists(),
                    None => {
                        dijkstra_filtered_into(
                            &self.graph,
                            s,
                            &self.cost,
                            |_| true,
                            &[],
                            &mut scratch,
                        );
                        scratch.dists()
                    }
                };
                for &d in dists {
                    if d.is_finite() && d > max {
                        max = d;
                    }
                }
            }
            max
        })
    }

    /// Builds an oracle for `graph` under `cost`, carrying forward every
    /// filled row of `prev` that a per-edge delta certificate proves
    /// unchanged — dynamic-SSSP delta invalidation instead of a full
    /// sweep.
    ///
    /// A row rooted at `s` survives iff:
    ///
    /// * **(a)** no reachable node's parent edge *increased* in cost —
    ///   the tree's recorded distances are then still exact, and any
    ///   alternative path through an increased edge only got worse; and
    /// * **(b)** for every *decreased* edge `(u, v)`:
    ///   `dist(s,u) + c_new(u,v) > dist(s,v)` **strictly** (rows with
    ///   `dist(s,u) = ∞` pass vacuously: every `s → u` prefix uses only
    ///   non-decreased edges up to the first decreased one, so it cannot
    ///   have become finite). No decreased edge then offers an
    ///   equal-or-better path anywhere, so no distance changes — and
    ///   because the Dijkstra heap pops in deterministic `(dist, node)`
    ///   order and every dirty candidate for a surviving row is strictly
    ///   worse than the recorded optimum, the parent plane is unchanged
    ///   too: carried rows are **bit-identical** to freshly computed
    ///   ones. Equality is dropped conservatively — a tying edge could
    ///   flip the parent choice.
    ///
    /// The first two carried rows (in source order) are re-run from
    /// scratch and compared bitwise; any mismatch distrusts the whole
    /// carry and drops every carried row. Structural graph mismatch
    /// (node/edge counts or endpoints) carries nothing. Either way the
    /// result is a fully valid oracle: with at most `dense_max` nodes the
    /// rows not carried are filled now on `ctx`, as in
    /// [`DistanceOracle::with_config`]; above it they are filled on
    /// demand.
    pub fn carry_with_config(
        prev: &DistanceOracle,
        graph: &DiGraph,
        cost: &[f64],
        dense_max: usize,
        ctx: &SolverContext,
    ) -> (Self, CarryReport) {
        assert_eq!(cost.len(), graph.edge_count(), "cost slice length mismatch");
        let _s = ctx.span("graph.oracle.carry");
        let n = graph.node_count();
        let mut report = CarryReport {
            compatible: prev.graph.node_count() == n
                && prev.graph.edge_count() == graph.edge_count()
                && (0..graph.edge_count()).all(|e| {
                    prev.graph.endpoints(EdgeId::new(e)) == graph.endpoints(EdgeId::new(e))
                }),
            ..CarryReport::default()
        };
        if !report.compatible {
            let oracle = Self::with_config(graph, cost, dense_max, ctx);
            return (oracle, report);
        }
        let mut increased = vec![false; cost.len()];
        let mut decreased: Vec<EdgeId> = Vec::new();
        for e in 0..cost.len() {
            if cost[e] > prev.cost[e] {
                increased[e] = true;
            } else if cost[e] < prev.cost[e] {
                decreased.push(EdgeId::new(e));
            }
        }
        let row_valid = |row: &Row| -> bool {
            if row
                .parent
                .iter()
                .any(|&p| p != NO_PARENT && increased[p as usize])
            {
                return false;
            }
            decreased.iter().all(|&e| {
                let (u, v) = graph.endpoints(e);
                let du = row.dist[u.index()];
                !(du.is_finite() && du + cost[e.index()] <= row.dist[v.index()])
            })
        };
        // Candidates: the previous oracle's filled rows, in source order.
        let mut carried: Vec<(NodeId, Arc<Row>)> = Vec::new();
        for (s, slot) in prev.rows.iter().enumerate() {
            let Some(row) = slot.get() else { continue };
            if row_valid(row) {
                carried.push((NodeId::new(s), Arc::clone(row)));
            } else {
                report.rows_dropped += 1;
            }
        }
        // The validation gate: a deterministic sample of carried rows is
        // recomputed from scratch and must match bitwise. One mismatch
        // means the certificate reasoning does not hold for this delta —
        // distrust everything carried and go cold.
        let mut scratch = DijkstraScratch::default();
        for (s, row) in carried.iter().take(CARRY_VERIFY_SAMPLES) {
            dijkstra_filtered_into(graph, *s, cost, |_| true, &[], &mut scratch);
            report.rows_verified += 1;
            if !row.matches(&scratch) {
                report.verify_failed = true;
                break;
            }
        }
        if report.verify_failed {
            report.rows_dropped += carried.len();
            carried.clear();
        }
        report.rows_carried = carried.len();
        ctx.obs()
            .add_counter(ROWS_CARRIED, report.rows_carried as u64);
        ctx.obs()
            .add_counter(ROWS_DROPPED, report.rows_dropped as u64);
        let mut oracle = Self::unfilled(graph, cost);
        for (s, row) in carried {
            oracle.rows[s.index()] = OnceLock::from(row);
        }
        oracle.prefilled = report.rows_carried;
        if n <= dense_max {
            let missing: Vec<NodeId> = graph
                .nodes()
                .filter(|s| oracle.rows[s.index()].get().is_none())
                .collect();
            oracle.fill(&missing, ctx);
            oracle.prefilled = n;
        }
        (oracle, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> (DiGraph, Vec<f64>) {
        let mut g = DiGraph::new();
        let nodes = g.add_nodes(n);
        let mut cost = Vec::new();
        for i in 0..n {
            g.add_edge(nodes[i], nodes[(i + 1) % n]);
            cost.push(1.0 + (i % 3) as f64);
            g.add_edge(nodes[(i + 1) % n], nodes[i]);
            cost.push(1.5 + (i % 2) as f64);
        }
        (g, cost)
    }

    fn serial() -> SolverContext {
        SolverContext::new().with_workers(1)
    }

    fn eager(g: &DiGraph, cost: &[f64]) -> DistanceOracle {
        DistanceOracle::with_config(g, cost, usize::MAX, &serial())
    }

    fn lazy(g: &DiGraph, cost: &[f64]) -> DistanceOracle {
        DistanceOracle::with_config(g, cost, 0, &serial())
    }

    fn assert_same_answers(a: &DistanceOracle, b: &DistanceOracle, what: &str) {
        for s in a.graph().nodes() {
            for t in a.graph().nodes() {
                assert_eq!(
                    a.dist(s, t).to_bits(),
                    b.dist(s, t).to_bits(),
                    "{what}: {s}->{t}"
                );
                assert_eq!(a.path(s, t), b.path(s, t), "{what}: {s}->{t}");
            }
        }
    }

    #[test]
    fn dense_and_on_demand_agree_bitwise() {
        let (g, cost) = ring(12);
        let dense = eager(&g, &cost);
        let on_demand = lazy(&g, &cost);
        assert!(dense.is_dense());
        assert!(!on_demand.is_dense());
        assert_eq!(on_demand.rows_computed(), 0);
        assert_same_answers(&dense, &on_demand, "lazy vs eager");
        assert_eq!(on_demand.rows_computed(), 12);
        assert_eq!(dense.rows_computed(), 0);
        assert_eq!(dense.max_cost().to_bits(), on_demand.max_cost().to_bits());
        // `max_cost` streams unfilled rows without storing them.
        let fresh = lazy(&g, &cost);
        assert_eq!(fresh.max_cost().to_bits(), dense.max_cost().to_bits());
        assert_eq!(fresh.rows_computed(), 0);
    }

    #[test]
    fn priming_is_deterministic_across_widths() {
        let (g, cost) = ring(16);
        let sources: Vec<NodeId> = (0..8).map(NodeId::new).collect();
        let mut reference: Option<Vec<u64>> = None;
        for workers in [1, 2, 8] {
            let ctx = SolverContext::new().with_workers(workers);
            let on_demand = lazy(&g, &cost);
            on_demand.prime_rows_with_context(&sources, &ctx);
            assert_eq!(on_demand.rows_computed(), 8);
            assert_eq!(ctx.stats().dijkstra_calls, 8);
            let bits: Vec<u64> = sources
                .iter()
                .flat_map(|&s| on_demand.row(s).dists().iter().map(|d| d.to_bits()))
                .collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(r, &bits, "workers = {workers}"),
            }
            // Priming already filled rows is free.
            on_demand.prime_rows_with_context(&sources, &ctx);
            assert_eq!(on_demand.rows_computed(), 8);
            assert_eq!(ctx.stats().dijkstra_calls, 8);
        }
    }

    #[test]
    fn concurrent_reads_fill_each_row_once() {
        let (g, cost) = ring(16);
        let dense = eager(&g, &cost);
        // Every source 0..10 appears three times, so workers race on the
        // same slots.
        let reads: Vec<NodeId> = (0..30).map(|i| NodeId::new(i % 10)).collect();
        for workers in [1, 2, 8] {
            let ctx = SolverContext::new().with_workers(workers);
            let on_demand = lazy(&g, &cost);
            let bits = jcr_ctx::par::par_map(&ctx, &reads, |_, _, &s| {
                on_demand
                    .row(s)
                    .dists()
                    .iter()
                    .map(|d| d.to_bits())
                    .collect::<Vec<_>>()
            });
            assert_eq!(on_demand.rows_computed(), 10, "workers = {workers}");
            for (&s, row_bits) in reads.iter().zip(&bits) {
                let expect: Vec<u64> = dense.row(s).dists().iter().map(|d| d.to_bits()).collect();
                assert_eq!(row_bits, &expect, "workers = {workers}, row {s}");
            }
            // Misses are not Dijkstra calls on the pool's context.
            assert_eq!(ctx.stats().dijkstra_calls, 0);
        }
    }

    #[test]
    fn dense_parallel_fill_matches_serial() {
        let (g, cost) = ring(9);
        let serial = eager(&g, &cost);
        let ctx = SolverContext::new().with_workers(4);
        let par = DistanceOracle::with_config(&g, &cost, usize::MAX, &ctx);
        assert_same_answers(&serial, &par, "width 4 vs width 1");
        assert_eq!(ctx.stats().dijkstra_calls, g.node_count() as u64);
    }

    #[test]
    fn carry_identical_costs_keeps_every_row() {
        let (g, cost) = ring(10);
        let prev = eager(&g, &cost);
        let ctx = serial();
        let (next, report) = DistanceOracle::carry_with_config(&prev, &g, &cost, usize::MAX, &ctx);
        assert!(report.compatible);
        assert!(!report.verify_failed);
        assert_eq!(report.rows_carried, 10);
        assert_eq!(report.rows_dropped, 0);
        assert_eq!(report.rows_verified, 2);
        assert_eq!(ctx.stats().dijkstra_calls, 0, "nothing left to fill");
        assert!(next.is_dense());
        assert_same_answers(&next, &prev, "carried");
    }

    #[test]
    fn carry_matches_fresh_bitwise_under_random_deltas() {
        // Kills (cost -> INF), restores (INF -> finite), halvings and
        // doublings, all at once: every carried answer must equal a
        // cold oracle's bit for bit — the empirical check behind the
        // delta certificate.
        let (g, base) = ring(14);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next_u64 = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut prev = eager(&g, &base);
        let mut carried_total = 0usize;
        for trial in 0..24 {
            let mut cost = base.clone();
            for c in cost.iter_mut() {
                match next_u64() % 6 {
                    0 => *c *= 2.0,
                    1 => *c *= 0.5,
                    2 => *c = f64::INFINITY,
                    _ => {}
                }
            }
            let (carried, report) =
                DistanceOracle::carry_with_config(&prev, &g, &cost, usize::MAX, &serial());
            assert!(report.compatible, "trial {trial}");
            assert!(!report.verify_failed, "trial {trial}");
            carried_total += report.rows_carried;
            let fresh = eager(&g, &cost);
            assert_same_answers(&carried, &fresh, &format!("trial {trial}"));
            prev = carried;
        }
        assert!(carried_total > 0, "certificate never fired");
    }

    #[test]
    fn carry_on_demand_seeds_rows_without_recompute() {
        let (g, cost) = ring(12);
        let prev = lazy(&g, &cost);
        let warm: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        for &s in &warm {
            prev.row(s);
        }
        let ctx = serial();
        let (next, report) = DistanceOracle::carry_with_config(&prev, &g, &cost, 0, &ctx);
        assert_eq!(report.rows_carried, 4);
        assert!(!next.is_dense());
        assert_eq!(ctx.stats().dijkstra_calls, 0);
        for &s in &warm {
            for t in g.nodes() {
                assert_eq!(next.dist(s, t).to_bits(), prev.dist(s, t).to_bits());
            }
        }
        assert_eq!(next.rows_computed(), 0, "carried rows were not recomputed");
        next.row(NodeId::new(9));
        assert_eq!(next.rows_computed(), 1);
    }

    #[test]
    fn carry_structural_mismatch_goes_cold() {
        let (g, cost) = ring(8);
        let (h, hcost) = ring(9);
        let prev = eager(&g, &cost);
        let (next, report) =
            DistanceOracle::carry_with_config(&prev, &h, &hcost, usize::MAX, &serial());
        assert!(!report.compatible);
        assert_eq!(report.rows_carried, 0);
        assert_same_answers(&next, &eager(&h, &hcost), "cold");
    }

    #[test]
    fn clone_keeps_filled_rows_and_answers_identically() {
        let (g, cost) = ring(6);
        let on_demand = lazy(&g, &cost);
        let d = on_demand.dist(NodeId::new(1), NodeId::new(4));
        on_demand.row(NodeId::new(3));
        let fork = on_demand.clone();
        assert_eq!(fork.rows_computed(), 2);
        assert_eq!(
            fork.dist(NodeId::new(1), NodeId::new(4)).to_bits(),
            d.to_bits()
        );
        assert_eq!(fork.rows_computed(), 2, "a kept row is not refilled");
        assert_same_answers(&fork, &eager(&g, &cost), "clone");
        assert_eq!(
            on_demand.rows_computed(),
            2,
            "the clone fills its own slots"
        );
    }
}
