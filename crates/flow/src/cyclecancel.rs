//! Klein's negative-cycle-canceling min-cost flow — an independent second
//! implementation used to cross-validate the successive-shortest-paths
//! solver (differential testing) and as a repair pass for externally
//! supplied flows.
//!
//! Any feasible flow is first obtained by max-flow from a super-source;
//! then, while the residual network contains a negative-cost cycle
//! (found by Bellman–Ford), flow is pushed around it. With real-valued
//! capacities the loop terminates once no cycle improves the cost by more
//! than a relative tolerance.

use jcr_graph::{DiGraph, NodeId};

use crate::maxflow::max_flow;
use crate::mincost::MinCostFlow;
use crate::{FlowError, FLOW_EPS};

/// Residual arc: original edge index + direction.
#[derive(Clone, Copy, Debug)]
struct ResArc {
    from: usize,
    to: usize,
    /// Edge index in the original graph.
    edge: usize,
    /// Forward (push increases flow) or backward (push decreases flow).
    forward: bool,
    /// Index of this arc's reverse (same edge, opposite direction), if it
    /// is also residual.
    partner: Option<usize>,
}

/// Computes a minimum-cost flow satisfying `supply` by feasibility
/// max-flow + negative-cycle canceling.
///
/// Results agree with [`crate::mincost::min_cost_flow_with_context`] up to numerical
/// tolerance; this implementation exists as an independent oracle and is
/// typically slower.
///
/// # Errors
///
/// [`FlowError::Infeasible`] if the supplies cannot be routed;
/// [`FlowError::Numerical`] if cycle canceling exceeds its iteration
/// budget.
pub fn min_cost_flow_cycle_canceling(
    g: &DiGraph,
    cost: &[f64],
    cap: &[f64],
    supply: &[f64],
) -> Result<MinCostFlow, FlowError> {
    let n = g.node_count();
    let total_supply: f64 = supply.iter().filter(|s| **s > 0.0).sum();

    // Feasibility: super-source → sources, sinks → super-sink.
    let mut aug = g.clone();
    let s_star = aug.add_node();
    let t_star = aug.add_node();
    let mut aug_cap = cap.to_vec();
    for v in 0..n {
        if supply[v] > 0.0 {
            aug.add_edge(s_star, NodeId::new(v));
            aug_cap.push(supply[v]);
        } else if supply[v] < 0.0 {
            aug.add_edge(NodeId::new(v), t_star);
            aug_cap.push(-supply[v]);
        }
    }
    let mf = max_flow(&aug, &aug_cap, s_star, t_star);
    if mf.value + FLOW_EPS * total_supply.max(1.0) < total_supply {
        return Err(FlowError::Infeasible);
    }
    let mut flow: Vec<f64> = mf.flow[..g.edge_count()].to_vec();

    // Cycle canceling on the residual network.
    let scale: f64 = cost
        .iter()
        .zip(cap)
        .map(|(c, k)| if k.is_finite() { c * k } else { *c })
        .sum::<f64>()
        .abs()
        .max(1.0);
    let max_rounds = 200 * (g.edge_count() + 1);
    for _ in 0..max_rounds {
        let arcs = residual_arcs(g, cap, &flow);
        let Some(cycle) = negative_cycle(n, &arcs, cost, 1e-10 * scale) else {
            let total_cost = flow.iter().zip(cost).map(|(f, c)| f * c).sum();
            let certificate = crate::mincost::certify_flow(g, cost, cap, supply, &flow, total_cost);
            if !certificate.verified() {
                return Err(FlowError::NumericalBreakdown(certificate.failure_summary()));
            }
            return Ok(MinCostFlow {
                flow,
                cost: total_cost,
                certificate,
            });
        };
        // Bottleneck along the cycle.
        let mut delta = f64::INFINITY;
        for a in &cycle {
            let room = if a.forward {
                cap[a.edge] - flow[a.edge]
            } else {
                flow[a.edge]
            };
            delta = delta.min(room);
        }
        if delta.is_nan() || delta <= FLOW_EPS {
            return Err(FlowError::Numerical("degenerate residual cycle".into()));
        }
        for a in &cycle {
            if a.forward {
                flow[a.edge] += delta;
            } else {
                flow[a.edge] -= delta;
                if flow[a.edge] < FLOW_EPS {
                    flow[a.edge] = 0.0;
                }
            }
        }
    }
    Err(FlowError::Numerical(
        "cycle canceling did not converge".into(),
    ))
}

fn residual_arcs(g: &DiGraph, cap: &[f64], flow: &[f64]) -> Vec<ResArc> {
    let mut arcs = Vec::with_capacity(2 * g.edge_count());
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        let fwd = flow[e.index()] + FLOW_EPS < cap[e.index()];
        let bwd = flow[e.index()] > FLOW_EPS;
        let base = arcs.len();
        if fwd {
            arcs.push(ResArc {
                from: u.index(),
                to: v.index(),
                edge: e.index(),
                forward: true,
                partner: bwd.then_some(base + 1),
            });
        }
        if bwd {
            arcs.push(ResArc {
                from: v.index(),
                to: u.index(),
                edge: e.index(),
                forward: false,
                partner: fwd.then_some(base),
            });
        }
    }
    arcs
}

/// Bellman–Ford negative-cycle detection over the residual arcs; arc cost
/// is `+w` forward, `−w` backward. Returns a cycle with total cost below
/// `−tol`, if one exists.
///
/// Every node updated in the final (n-th) pass is a candidate: walking its
/// parent pointers lands inside a predecessor-graph cycle. Floating-point
/// ties can make an individual candidate's cycle spuriously ≈ 0-cost, so
/// *all* candidates are examined before giving up — returning `None` too
/// eagerly would silently leave the flow suboptimal.
fn negative_cycle(n: usize, arcs: &[ResArc], cost: &[f64], tol: f64) -> Option<Vec<ResArc>> {
    let mut dist = vec![0.0f64; n];
    let mut parent: Vec<Option<usize>> = vec![None; n]; // index into arcs
    let mut last_updated: Vec<usize> = Vec::new();
    for _round in 0..n {
        last_updated.clear();
        for (ai, a) in arcs.iter().enumerate() {
            // No immediate U-turns: a negative cycle never traverses an
            // edge's forward and backward residual arcs consecutively
            // (they cancel), and allowing it lets exactly-zero-cost
            // digons enter the predecessor graph and mask real cycles.
            if a.partner.is_some() && parent[a.from] == a.partner {
                continue;
            }
            let w = if a.forward {
                cost[a.edge]
            } else {
                -cost[a.edge]
            };
            if dist[a.from] + w < dist[a.to] - 1e-15 {
                dist[a.to] = dist[a.from] + w;
                parent[a.to] = Some(ai);
                last_updated.push(a.to);
            }
        }
        if last_updated.is_empty() {
            return None;
        }
    }
    let mut tried = vec![false; n];
    'candidates: for &cand in &last_updated {
        // Walk parents n times to land inside the candidate's cycle.
        let mut v = cand;
        for _ in 0..n {
            match parent[v] {
                Some(ai) => v = arcs[ai].from,
                None => continue 'candidates,
            }
        }
        if tried[v] {
            continue;
        }
        tried[v] = true;
        let start = v;
        let mut cycle = Vec::new();
        loop {
            let Some(ai) = parent[v] else {
                continue 'candidates;
            };
            cycle.push(arcs[ai]);
            v = arcs[ai].from;
            if v == start {
                break;
            }
            if cycle.len() > arcs.len() {
                continue 'candidates; // malformed parent chain
            }
        }
        cycle.reverse();
        let total: f64 = cycle
            .iter()
            .map(|a| {
                if a.forward {
                    cost[a.edge]
                } else {
                    -cost[a.edge]
                }
            })
            .sum();
        if total < -tol {
            return Some(cycle);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mincost::min_cost_flow_with_context;
    use jcr_ctx::SolverContext;

    #[test]
    fn agrees_with_ssp_on_diamond() {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let a = g.add_node();
        let b = g.add_node();
        let t = g.add_node();
        g.add_edge(s, a);
        g.add_edge(s, b);
        g.add_edge(a, t);
        g.add_edge(b, t);
        g.add_edge(a, b);
        let cost = [1.0, 4.0, 1.0, 1.0, 0.5];
        let cap = [2.0, 2.0, 1.5, 2.0, 1.0];
        let supply = [3.0, 0.0, 0.0, -3.0];
        let ssp =
            min_cost_flow_with_context(&g, &cost, &cap, &supply, &SolverContext::new()).unwrap();
        let cc = min_cost_flow_cycle_canceling(&g, &cost, &cap, &supply).unwrap();
        assert!(
            (ssp.cost - cc.cost).abs() < 1e-6 * (1.0 + ssp.cost),
            "SSP {} vs cycle-canceling {}",
            ssp.cost,
            cc.cost
        );
    }

    #[test]
    fn detects_infeasible() {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t);
        let err = min_cost_flow_cycle_canceling(&g, &[1.0], &[1.0], &[3.0, -3.0]);
        assert_eq!(err.unwrap_err(), FlowError::Infeasible);
    }

    #[test]
    fn improves_a_deliberately_bad_feasible_flow() {
        // Two parallel roads; the max-flow initializer may use the
        // expensive one, and cycle canceling must move the flow off it.
        let mut g = DiGraph::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t); // cheap
        g.add_edge(s, t); // expensive
        let cost = [1.0, 10.0];
        let cap = [5.0, 5.0];
        let supply = [4.0, -4.0];
        let cc = min_cost_flow_cycle_canceling(&g, &cost, &cap, &supply).unwrap();
        assert!(
            (cc.flow[0] - 4.0).abs() < 1e-9,
            "all flow on the cheap road"
        );
        assert!((cc.cost - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_supply() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        let cc = min_cost_flow_cycle_canceling(&g, &[1.0], &[1.0], &[0.0, 0.0]).unwrap();
        assert_eq!(cc.cost, 0.0);
    }
}
