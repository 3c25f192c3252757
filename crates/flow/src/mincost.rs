//! Real-valued minimum-cost flow via successive shortest paths with node
//! potentials.
//!
//! This is the workhorse behind line 1 of the paper's Algorithm 2: the
//! optimal *splittable* single-source flow that the unsplittable roundings
//! start from. Supplies/demands and capacities are `f64`; costs must be
//! non-negative (the cache-network costs `w_uv ≥ 0` always are).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use jcr_ctx::cert::{Certificate, Kahan};
use jcr_ctx::{Counter, Phase, SolverContext};
use jcr_graph::{DiGraph, NodeId};

use crate::{FlowError, FLOW_EPS};

/// Result of a min-cost flow computation.
#[derive(Clone, Debug)]
pub struct MinCostFlow {
    /// Flow on each original edge, indexed by edge index.
    pub flow: Vec<f64>,
    /// Total cost `Σ_e w_e · flow_e`.
    pub cost: f64,
    /// Independent feasibility/cost certificate (see [`certify_flow`]).
    pub certificate: Certificate,
}

/// Independently verifies an edge flow against the instance it claims to
/// solve: non-negativity, capacity residuals, per-node conservation
/// against `supply`, and a compensated recomputation of the reported
/// cost. All accumulation uses Neumaier–Kahan summation, never the
/// solver's own running totals, so a solver bug or drifting accumulator
/// cannot certify itself.
pub fn certify_flow(
    g: &DiGraph,
    cost: &[f64],
    cap: &[f64],
    supply: &[f64],
    flow: &[f64],
    reported_cost: f64,
) -> Certificate {
    let mut cert = Certificate::new("mincost");
    if flow.len() != g.edge_count() || cost.len() != flow.len() || cap.len() != flow.len() {
        cert.push("shape", f64::INFINITY, 0.0);
        return cert;
    }
    let scale: f64 = supply.iter().map(|s| s.abs()).sum::<f64>().max(1.0);

    let finite = flow.iter().all(|f| f.is_finite());
    cert.push("flow-finite", if finite { 0.0 } else { f64::INFINITY }, 0.0);
    if !finite {
        return cert;
    }

    let mut neg = 0.0f64;
    let mut over = 0.0f64;
    for e in 0..flow.len() {
        neg = neg.max(-flow[e]);
        over = over.max(flow[e] - cap[e]);
    }
    cert.push("flow-nonneg", neg, FLOW_EPS * scale);
    cert.push("capacity", over, 1e-7 * scale);

    // Conservation: net outflow of v must equal supply[v].
    let mut worst = 0.0f64;
    for v in g.nodes() {
        let mut net = Kahan::new();
        for e in g.out_edges(v) {
            net.add(flow[e.index()]);
        }
        for e in g.in_edges(v) {
            net.add(-flow[e.index()]);
        }
        net.add(-supply[v.index()]);
        worst = worst.max(net.total().abs());
    }
    cert.push("conservation", worst, 1e-6 * scale);

    // Cost: the solver's naive accumulation vs a compensated dot product.
    let mut exact = Kahan::new();
    let mut magnitude = Kahan::new();
    for e in 0..flow.len() {
        exact.add_prod(flow[e], cost[e]);
        magnitude.add((flow[e] * cost[e]).abs());
    }
    cert.push(
        "cost",
        (exact.total() - reported_cost).abs(),
        1e-9 * (1.0 + magnitude.total()),
    );
    cert
}

struct Arc {
    to: usize,
    rev: usize,
    cap: f64,
    cost: f64,
    orig: Option<usize>,
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Computes a minimum-cost flow satisfying `supply` (positive entries are
/// sources, negative are sinks; must sum to ≈ 0) within capacities `cap`
/// under non-negative `cost`. The context's deadline and
/// `Phase::MinCostFlow` iteration cap bound the successive shortest-path
/// loop, and Dijkstra runs are counted.
///
/// # Errors
///
/// [`FlowError::Infeasible`] if the supplies cannot be routed within the
/// capacities; [`FlowError::Numerical`] on iteration-budget exhaustion;
/// [`FlowError::Budget`] when a budget trips mid-solve.
///
/// # Panics
///
/// Panics (debug) if a cost is negative/NaN or supplies do not balance.
pub fn min_cost_flow_with_context(
    g: &DiGraph,
    cost: &[f64],
    cap: &[f64],
    supply: &[f64],
    ctx: &SolverContext,
) -> Result<MinCostFlow, FlowError> {
    let _s = ctx.phase_span("flow.mincost", Phase::MinCostFlow);
    debug_assert!(cost.iter().all(|c| *c >= 0.0), "costs must be non-negative");
    let total: f64 = supply.iter().sum();
    let scale: f64 = supply.iter().map(|s| s.abs()).sum::<f64>().max(1.0);
    debug_assert!(
        total.abs() <= 1e-6 * scale,
        "supplies must balance (sum = {total})"
    );

    let n = g.node_count();
    let mut arcs: Vec<Arc> = Vec::with_capacity(2 * g.edge_count());
    let mut head: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in g.edges() {
        let c = cap[e.index()];
        if c <= 0.0 {
            continue;
        }
        let (u, v) = g.endpoints(e);
        let a = arcs.len();
        head[u.index()].push(a);
        head[v.index()].push(a + 1);
        arcs.push(Arc {
            to: v.index(),
            rev: a + 1,
            cap: c,
            cost: cost[e.index()],
            orig: Some(e.index()),
        });
        arcs.push(Arc {
            to: u.index(),
            rev: a,
            cap: 0.0,
            cost: -cost[e.index()],
            orig: None,
        });
    }

    let mut excess: Vec<f64> = supply.to_vec();
    // Potentials start at zero: all original costs are non-negative.
    let mut pi = vec![0.0; n];
    let max_augment = 200 * (g.edge_count() + n) + 10_000;

    for _round in 0..max_augment {
        ctx.check(Phase::MinCostFlow)?;
        let Some(s) = (0..n).find(|&v| excess[v] > FLOW_EPS * scale.max(1.0)) else {
            break;
        };
        // Dijkstra with reduced costs from s.
        ctx.count(Counter::DijkstraCalls, 1);
        let mut dist = vec![f64::INFINITY; n];
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut done = vec![false; n];
        dist[s] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry { dist: 0.0, node: s });
        while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
            if done[u] {
                continue;
            }
            done[u] = true;
            for &a in &head[u] {
                let arc = &arcs[a];
                if arc.cap <= FLOW_EPS {
                    continue;
                }
                let rc = (arc.cost + pi[u] - pi[arc.to]).max(0.0);
                let nd = d + rc;
                if nd < dist[arc.to] - 1e-15 {
                    dist[arc.to] = nd;
                    parent[arc.to] = Some(a);
                    heap.push(HeapEntry {
                        dist: nd,
                        node: arc.to,
                    });
                }
            }
        }
        // Pick the nearest reachable deficit node.
        let mut target: Option<usize> = None;
        for v in 0..n {
            if excess[v] < -FLOW_EPS * scale.max(1.0)
                && dist[v].is_finite()
                && target.is_none_or(|t| dist[v] < dist[t])
            {
                target = Some(v);
            }
        }
        let Some(t) = target else {
            return Err(FlowError::Infeasible);
        };
        // Update potentials (only where reached).
        for v in 0..n {
            if dist[v].is_finite() {
                pi[v] += dist[v];
            }
        }
        // Bottleneck along the path.
        let mut delta = excess[s].min(-excess[t]);
        let mut v = t;
        while let Some(a) = parent[v] {
            delta = delta.min(arcs[a].cap);
            v = arcs[arcs[a].rev].to;
        }
        // Augment.
        let mut v = t;
        while let Some(a) = parent[v] {
            arcs[a].cap -= delta;
            let rev = arcs[a].rev;
            arcs[rev].cap += delta;
            v = arcs[rev].to;
        }
        excess[s] -= delta;
        excess[t] += delta;
    }

    if excess.iter().any(|&e| e.abs() > 1e-6 * scale) {
        return Err(FlowError::Numerical("augmentation budget exhausted".into()));
    }

    let mut flow = vec![0.0; g.edge_count()];
    let mut total_cost = 0.0;
    for a in (0..arcs.len()).step_by(2) {
        if let Some(orig) = arcs[a].orig {
            let f = arcs[arcs[a].rev].cap;
            flow[orig] += f;
            total_cost += f * cost[orig];
        }
    }
    let certificate = certify_flow(g, cost, cap, supply, &flow, total_cost);
    certificate.record(ctx);
    if !certificate.verified() {
        return Err(FlowError::NumericalBreakdown(certificate.failure_summary()));
    }
    Ok(MinCostFlow {
        flow,
        cost: total_cost,
        certificate,
    })
}

/// Convenience wrapper over [`min_cost_flow_with_context`]: single
/// source, per-destination demands.
///
/// # Errors
///
/// Same as [`min_cost_flow_with_context`].
pub fn single_source_min_cost_flow_with_context(
    g: &DiGraph,
    cost: &[f64],
    cap: &[f64],
    source: NodeId,
    demands: &[(NodeId, f64)],
    ctx: &SolverContext,
) -> Result<MinCostFlow, FlowError> {
    let mut supply = vec![0.0; g.node_count()];
    for &(d, amount) in demands {
        debug_assert!(amount >= 0.0);
        supply[d.index()] -= amount;
        supply[source.index()] += amount;
    }
    min_cost_flow_with_context(g, cost, cap, &supply, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Verifies conservation: net outflow of `v` equals `supply[v]`.
    fn check_conservation(g: &DiGraph, flow: &[f64], supply: &[f64]) {
        for v in g.nodes() {
            let outflow: f64 = g.out_edges(v).iter().map(|e| flow[e.index()]).sum();
            let inflow: f64 = g.in_edges(v).iter().map(|e| flow[e.index()]).sum();
            assert!(
                (outflow - inflow - supply[v.index()]).abs() < 1e-6,
                "conservation violated at {v:?}"
            );
        }
    }

    #[test]
    fn prefers_cheap_path_until_saturated() {
        let ctx = SolverContext::new();
        let mut g = DiGraph::new();
        let s = g.add_node();
        let a = g.add_node();
        let t = g.add_node();
        let sa = g.add_edge(s, a); // cost 1, cap 2
        let at = g.add_edge(a, t); // cost 1, cap 2
        let st = g.add_edge(s, t); // cost 5, cap 10
        let cost = [1.0, 1.0, 5.0];
        let cap = [2.0, 2.0, 10.0];
        let supply = [3.0, 0.0, -3.0];
        let mcf = min_cost_flow_with_context(&g, &cost, &cap, &supply, &ctx).unwrap();
        check_conservation(&g, &mcf.flow, &supply);
        assert!((mcf.flow[sa.index()] - 2.0).abs() < 1e-9);
        assert!((mcf.flow[at.index()] - 2.0).abs() < 1e-9);
        assert!((mcf.flow[st.index()] - 1.0).abs() < 1e-9);
        assert!((mcf.cost - 9.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_when_capacity_missing() {
        let ctx = SolverContext::new();
        let mut g = DiGraph::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t);
        let r = min_cost_flow_with_context(&g, &[1.0], &[1.0], &[2.0, -2.0], &ctx);
        assert_eq!(r.unwrap_err(), FlowError::Infeasible);
    }

    #[test]
    fn multiple_sinks() {
        let ctx = SolverContext::new();
        let mut g = DiGraph::new();
        let s = g.add_node();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(s, a); // cost 2
        g.add_edge(s, b); // cost 3
        g.add_edge(a, b); // cost 0.5
        let cost = [2.0, 3.0, 0.5];
        let cap = [10.0, 10.0, 1.0];
        let mcf = single_source_min_cost_flow_with_context(
            &g,
            &cost,
            &cap,
            s,
            &[(a, 2.0), (b, 2.0)],
            &ctx,
        )
        .unwrap();
        let supply = [4.0, -2.0, -2.0];
        check_conservation(&g, &mcf.flow, &supply);
        // One unit of b's demand should detour via a (2 + 0.5 < 3).
        assert!((mcf.flow[2] - 1.0).abs() < 1e-9);
        assert!((mcf.cost - (3.0 * 2.0 + 0.5 * 1.0 + 3.0 * 1.0)).abs() < 1e-9);
    }

    #[test]
    fn zero_supply_is_trivial() {
        let ctx = SolverContext::new();
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        let mcf = min_cost_flow_with_context(&g, &[1.0], &[1.0], &[0.0, 0.0], &ctx).unwrap();
        assert_eq!(mcf.cost, 0.0);
        assert!(mcf.flow.iter().all(|&f| f == 0.0));
    }

    #[test]
    fn fractional_demands() {
        let ctx = SolverContext::new();
        let mut g = DiGraph::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t);
        g.add_edge(s, t);
        let mcf =
            min_cost_flow_with_context(&g, &[1.0, 2.0], &[0.3, 1.0], &[0.8, -0.8], &ctx).unwrap();
        assert!((mcf.flow[0] - 0.3).abs() < 1e-9);
        assert!((mcf.flow[1] - 0.5).abs() < 1e-9);
        assert!((mcf.cost - 1.3).abs() < 1e-9);
    }

    #[test]
    fn matches_lp_on_small_instance() {
        let ctx = SolverContext::new();
        // Cross-check against the LP formulation of the same flow problem.
        use jcr_lp::{Model, Sense};
        let mut g = DiGraph::new();
        let nodes: Vec<_> = (0..4).map(|_| g.add_node()).collect();
        let mut edges = Vec::new();
        let topo = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3)];
        for &(u, v) in &topo {
            edges.push(g.add_edge(nodes[u], nodes[v]));
        }
        let cost = [1.0, 4.0, 1.0, 5.0, 1.0, 9.0];
        let cap = [2.0, 2.0, 1.0, 2.0, 2.0, 2.0];
        let supply = [3.0, 0.0, 0.0, -3.0];
        let mcf = min_cost_flow_with_context(&g, &cost, &cap, &supply, &ctx).unwrap();

        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<_> = edges
            .iter()
            .enumerate()
            .map(|(i, _)| m.add_var(0.0, cap[i], cost[i]))
            .collect();
        for (vi, v) in nodes.iter().enumerate() {
            let mut entries = Vec::new();
            for (i, &e) in edges.iter().enumerate() {
                if g.src(e) == *v {
                    entries.push((vars[i], 1.0));
                }
                if g.dst(e) == *v {
                    entries.push((vars[i], -1.0));
                }
            }
            m.add_row(supply[vi], supply[vi], &entries);
        }
        let lp = m.solve_with_context(&ctx).unwrap();
        assert!(
            (lp.objective - mcf.cost).abs() < 1e-6,
            "lp {} vs mcf {}",
            lp.objective,
            mcf.cost
        );
    }
}
