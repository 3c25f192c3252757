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

use std::sync::OnceLock;

use jcr_ctx::SolverContext;

use crate::graph::{DiGraph, NodeId};
use crate::path::Path;
use crate::shortest::{
    dijkstra_filtered_into, dijkstra_into_with_context, DijkstraScratch, ShortestPathTree,
};

/// Default node-count threshold at or below which the oracle fills every
/// row at construction; above it rows are filled on demand.
/// [`DistanceOracle::with_config`] takes the threshold explicitly.
pub const DEFAULT_DENSE_MAX: usize = 600;

/// Shortest-path distances (and paths) between all node pairs: one
/// lazily filled row, a [`ShortestPathTree`], per source, every row
/// filled at construction for paper-scale graphs.
///
/// The oracle owns its graph and cost vector, so a row filled late sees
/// the same inputs as one filled at construction, and every fill runs
/// the same Dijkstra kernel: a row's bits do not depend on when, or on
/// which thread, it was filled.
#[derive(Debug)]
pub struct DistanceOracle {
    graph: DiGraph,
    cost: Vec<f64>,
    rows: Vec<OnceLock<ShortestPathTree>>,
    /// Whether every row was filled at construction (at or below the
    /// node threshold).
    dense: bool,
    max_cost: OnceLock<f64>,
}

impl DistanceOracle {
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
        assert_eq!(cost.len(), graph.edge_count(), "cost slice length mismatch");
        let oracle = DistanceOracle {
            graph: graph.clone(),
            cost: cost.to_vec(),
            rows: (0..graph.node_count()).map(|_| OnceLock::new()).collect(),
            dense: graph.node_count() <= dense_max,
            max_cost: OnceLock::new(),
        };
        if oracle.dense {
            let sources: Vec<NodeId> = graph.nodes().collect();
            oracle.fill(&sources, ctx);
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
        let rows = jcr_ctx::par::par_map_init(
            ctx,
            sources,
            DijkstraScratch::default,
            |scratch, wctx, _i, &s| {
                dijkstra_into_with_context(&self.graph, s, &self.cost, &[], scratch, wctx);
                ShortestPathTree::from_scratch(scratch)
            },
        );
        for (s, row) in sources.iter().zip(rows) {
            // A concurrent `row` miss may have filled the slot first, with
            // the same bits.
            let _ = self.rows[s.index()].set(row);
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
        self.dense
    }

    /// Number of rows filled since construction, by a [`row`] miss or by
    /// [`prime_rows_with_context`]. Each row is filled at most once, so
    /// this is 0 for an oracle built with every row.
    ///
    /// [`row`]: DistanceOracle::row
    /// [`prime_rows_with_context`]: DistanceOracle::prime_rows_with_context
    pub fn rows_computed(&self) -> u64 {
        if self.dense {
            return 0;
        }
        self.rows.iter().filter(|r| r.get().is_some()).count() as u64
    }

    /// The shortest-path tree rooted at `s`, filled now (one uncounted
    /// Dijkstra run) if it is not yet. Concurrent first reads of one row
    /// fill it once.
    pub fn row(&self, s: NodeId) -> &ShortestPathTree {
        self.rows[s.index()].get_or_init(|| {
            let mut scratch = DijkstraScratch::default();
            dijkstra_filtered_into(&self.graph, s, &self.cost, |_| true, &[], &mut scratch);
            ShortestPathTree::from_scratch(&scratch)
        })
    }

    /// Least cost from `s` to `t` (`f64::INFINITY` if unreachable).
    pub fn dist(&self, s: NodeId, t: NodeId) -> f64 {
        self.row(s).dist(t)
    }

    /// A least-cost `s -> t` path, or `None` if unreachable.
    pub fn path(&self, s: NodeId, t: NodeId) -> Option<Path> {
        self.row(s).path(&self.graph, t)
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
}
