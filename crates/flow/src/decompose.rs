//! Conversion of link-level flows into cycle-free path-level flows.
//!
//! This is the decomposition step the paper cites from \[36\]: repeatedly
//! route the maximum amount along a positive-flow path, so that each
//! commodity uses at most `|E|` paths. Flow cycles are cancelled first so
//! the resulting paths are simple.

use jcr_ctx::{Counter, SolverContext};
use jcr_graph::{DiGraph, EdgeId, NodeId, Path};

use crate::{FlowError, PathFlow, FLOW_EPS};

/// Removes all flow cycles from `flow` in place.
///
/// With non-negative edge costs this never increases the flow's cost, and
/// afterwards the positive-flow subgraph is acyclic. Returns the total
/// amount of cycle flow cancelled.
pub fn cancel_cycles(g: &DiGraph, flow: &mut [f64]) -> f64 {
    let mut cancelled = 0.0;
    loop {
        match find_cycle(g, flow) {
            Some(cycle) => {
                let delta = cycle
                    .iter()
                    .map(|e| flow[e.index()])
                    .fold(f64::INFINITY, f64::min);
                for e in &cycle {
                    flow[e.index()] -= delta;
                    if flow[e.index()] < FLOW_EPS {
                        flow[e.index()] = 0.0;
                    }
                }
                cancelled += delta;
            }
            None => return cancelled,
        }
    }
}

/// Finds a directed cycle in the positive-flow subgraph, if any.
fn find_cycle(g: &DiGraph, flow: &[f64]) -> Option<Vec<EdgeId>> {
    let n = g.node_count();
    // Iterative DFS with colors: 0 = white, 1 = on stack, 2 = done.
    let mut color = vec![0u8; n];
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        // `stack` holds (node, out-edge cursor); `edge_stack[i]` is the edge
        // used to enter `stack[i + 1]`.
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        let mut edge_stack: Vec<EdgeId> = Vec::new();
        color[start] = 1;
        while let Some(top) = stack.last_mut() {
            let (v, cursor) = *top;
            let out = g.out_edges(NodeId::new(v));
            if cursor < out.len() {
                top.1 += 1;
                let e = out[cursor];
                if flow[e.index()] <= FLOW_EPS {
                    continue;
                }
                let w = g.dst(e).index();
                if color[w] == 1 {
                    // Found a cycle: collect edges back from v to w.
                    let mut cycle = vec![e];
                    let mut cur = v;
                    for back in edge_stack.iter().rev() {
                        if cur == w {
                            break;
                        }
                        cycle.push(*back);
                        cur = g.src(*back).index();
                    }
                    cycle.reverse();
                    return Some(cycle);
                }
                if color[w] == 0 {
                    color[w] = 1;
                    stack.push((w, 0));
                    edge_stack.push(e);
                }
            } else {
                color[v] = 2;
                stack.pop();
                edge_stack.pop();
            }
        }
    }
    None
}

/// Decomposes a single-source link-level `flow` into per-destination path
/// flows; every extracted path increments the decomposition-path counter.
///
/// `demands` lists `(destination, amount)` pairs; the flow must satisfy
/// them (net inflow at each destination ≥ its total amount). Cycles are
/// cancelled first, so the returned paths are simple. Each destination
/// receives at most `|E|` paths plus one per demand entry.
///
/// # Errors
///
/// [`FlowError::Numerical`] if the flow does not actually carry the
/// demanded amounts (conservation mismatch).
pub fn decompose_single_source_with_context(
    g: &DiGraph,
    flow: &[f64],
    source: NodeId,
    demands: &[(NodeId, f64)],
    ctx: &SolverContext,
) -> Result<Vec<Vec<PathFlow>>, FlowError> {
    let _s = ctx.span("flow.decompose");
    let mut residual = flow.to_vec();
    cancel_cycles(g, &mut residual);
    debug_assert!(
        jcr_graph::structure::is_acyclic(g, |e| residual[e.index()] > FLOW_EPS),
        "cycle cancellation must leave an acyclic flow"
    );
    let scale = demands.iter().map(|d| d.1).sum::<f64>().max(1.0);

    let mut search = FlowPathSearch::new(g.node_count());
    let mut result: Vec<Vec<PathFlow>> = vec![Vec::new(); demands.len()];
    for (idx, &(dest, amount)) in demands.iter().enumerate() {
        let mut remaining = amount;
        while remaining > FLOW_EPS * scale {
            let Some(path) = search.find(g, &residual, source, dest, FLOW_EPS) else {
                return Err(FlowError::Numerical(format!(
                    "flow under-serves destination {dest:?} by {remaining}"
                )));
            };
            let bottleneck = path
                .edges()
                .iter()
                .map(|e| residual[e.index()])
                .fold(f64::INFINITY, f64::min);
            let push = bottleneck.min(remaining);
            for e in path.edges() {
                residual[e.index()] -= push;
                if residual[e.index()] < FLOW_EPS {
                    residual[e.index()] = 0.0;
                }
            }
            remaining -= push;
            ctx.count(Counter::DecompositionPaths, 1);
            result[idx].push(PathFlow { path, amount: push });
        }
    }
    Ok(result)
}

/// Depth-first search for flow-carrying paths whose scratch is reused
/// from one search to the next: `seen` is stamped per search, and
/// `parent` is written before it is read, so no search clears an O(|V|)
/// array. Decomposition and Skutella's rounding both route through it.
pub(crate) struct FlowPathSearch {
    stamp: u32,
    seen: Vec<u32>,
    parent: Vec<Option<EdgeId>>,
    stack: Vec<NodeId>,
}

impl FlowPathSearch {
    /// Scratch for searches on a graph with `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        Self {
            stamp: 0,
            seen: vec![0; nodes],
            parent: vec![None; nodes],
            stack: Vec::new(),
        }
    }

    /// Finds a simple `source -> dest` path over edges carrying at least
    /// `min_flow`. The stack pops the last node pushed and pushes each
    /// node's unseen out-neighbours in out-edge order, so the path depends
    /// only on `flow`, never on earlier searches.
    pub(crate) fn find(
        &mut self,
        g: &DiGraph,
        flow: &[f64],
        source: NodeId,
        dest: NodeId,
        min_flow: f64,
    ) -> Option<Path> {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        let stamp = self.stamp;
        self.stack.clear();
        self.stack.push(source);
        self.seen[source.index()] = stamp;
        self.parent[source.index()] = None;
        while let Some(v) = self.stack.pop() {
            if v == dest {
                let mut edges = Vec::new();
                let mut cur = dest;
                while let Some(e) = self.parent[cur.index()] {
                    edges.push(e);
                    cur = g.src(e);
                }
                edges.reverse();
                return Some(Path::new(edges));
            }
            for &e in g.out_edges(v) {
                if flow[e.index()] < min_flow {
                    continue;
                }
                let w = g.dst(e);
                if self.seen[w.index()] != stamp {
                    self.seen[w.index()] = stamp;
                    self.parent[w.index()] = Some(e);
                    self.stack.push(w);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancels_simple_cycle() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let t = g.add_node();
        let ab = g.add_edge(a, b);
        let ba = g.add_edge(b, a);
        let bt = g.add_edge(b, t);
        // 1 unit a->t via b, plus a 0.5-unit a<->b cycle on top.
        let mut flow = vec![0.0; 3];
        flow[ab.index()] = 1.5;
        flow[ba.index()] = 0.5;
        flow[bt.index()] = 1.0;
        let cancelled = cancel_cycles(&g, &mut flow);
        assert!((cancelled - 0.5).abs() < 1e-9);
        assert!((flow[ab.index()] - 1.0).abs() < 1e-9);
        assert_eq!(flow[ba.index()], 0.0);
        assert!((flow[bt.index()] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn acyclic_flow_untouched() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        let mut flow = vec![2.0];
        assert_eq!(cancel_cycles(&g, &mut flow), 0.0);
        assert_eq!(flow, vec![2.0]);
    }

    #[test]
    fn decomposes_two_destinations() {
        let ctx = SolverContext::new();
        let mut g = DiGraph::new();
        let s = g.add_node();
        let a = g.add_node();
        let b = g.add_node();
        let sa = g.add_edge(s, a);
        let sb = g.add_edge(s, b);
        let ab = g.add_edge(a, b);
        let mut flow = vec![0.0; 3];
        flow[sa.index()] = 3.0; // 2 to a, 1 continuing to b
        flow[sb.index()] = 1.0;
        flow[ab.index()] = 1.0;
        let demands = [(a, 2.0), (b, 2.0)];
        let paths = decompose_single_source_with_context(&g, &flow, s, &demands, &ctx).unwrap();
        let total_a: f64 = paths[0].iter().map(|p| p.amount).sum();
        let total_b: f64 = paths[1].iter().map(|p| p.amount).sum();
        assert!((total_a - 2.0).abs() < 1e-9);
        assert!((total_b - 2.0).abs() < 1e-9);
        for (idx, dest) in [(0usize, a), (1usize, b)] {
            for pf in &paths[idx] {
                assert!(pf.path.is_valid(&g));
                assert_eq!(pf.path.source(&g), Some(s));
                assert_eq!(pf.path.target(&g), Some(dest));
            }
        }
    }

    #[test]
    fn recomposition_identity() {
        let ctx = SolverContext::new();
        // Sum of decomposed path flows equals the original (acyclic) flow.
        let mut g = DiGraph::new();
        let s = g.add_node();
        let a = g.add_node();
        let b = g.add_node();
        let t = g.add_node();
        let edges = [
            g.add_edge(s, a),
            g.add_edge(s, b),
            g.add_edge(a, t),
            g.add_edge(b, t),
            g.add_edge(a, b),
        ];
        let mut flow = vec![0.0; 5];
        flow[edges[0].index()] = 2.0;
        flow[edges[1].index()] = 1.0;
        flow[edges[2].index()] = 1.5;
        flow[edges[3].index()] = 1.5;
        flow[edges[4].index()] = 0.5;
        let paths = decompose_single_source_with_context(&g, &flow, s, &[(t, 3.0)], &ctx).unwrap();
        let mut recomposed = vec![0.0; 5];
        for pf in &paths[0] {
            for e in pf.path.edges() {
                recomposed[e.index()] += pf.amount;
            }
        }
        for (orig, rec) in flow.iter().zip(&recomposed) {
            assert!((orig - rec).abs() < 1e-9);
        }
    }

    #[test]
    fn under_served_demand_is_detected() {
        let ctx = SolverContext::new();
        let mut g = DiGraph::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t);
        let flow = vec![1.0];
        let err =
            decompose_single_source_with_context(&g, &flow, s, &[(t, 2.0)], &ctx).unwrap_err();
        assert!(matches!(err, FlowError::Numerical(_)));
    }
}
