//! Skutella's conversion of a splittable flow into an unsplittable flow
//! for demands that are powers of two times a base demand
//! ([33, Algorithm 2]; the paper's Lemma 4.6).
//!
//! Given a single-source splittable flow satisfying demands
//! `λ_i = base · 2^{q_i}`, the algorithm processes demand classes in
//! increasing order. For class `d`: (a) it pushes flow around cycles of
//! non-`d`-integral arcs in the cost-non-increasing direction until every
//! arc flow is a multiple of `d` (flow conservation modulo `d` guarantees
//! such cycles exist), then (b) routes each class-`d` commodity on a
//! positive-flow path and subtracts `d` along it. The result never costs
//! more than the input flow, and the load it adds beyond any arc's input
//! flow is less than the largest demand crossing the arc (Lemma 4.6).

use jcr_graph::{DiGraph, EdgeId, NodeId, Path};

use crate::decompose::FlowPathSearch;
use crate::{FlowError, FLOW_EPS};

/// A commodity for the unsplittable rounding: all flow originates at the
/// common source passed to [`round_to_unsplittable`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassCommodity {
    /// Destination node.
    pub dest: NodeId,
    /// Demand; must equal `base · 2^q` for some integer `q ≥ 0`.
    pub demand: f64,
}

/// Rounds a splittable single-source flow into an unsplittable one.
///
/// * `flow` — link-level flow satisfying every commodity's demand from
///   `source` (net inflow at each destination equals the sum of its
///   commodities' demands). Overwritten with what the rounding leaves.
/// * `support` — the edges that may carry flow, in strictly ascending
///   index order. Every edge off the support must hold exactly `+0.0`;
///   it still does on return, so a caller that reuses `flow` need only
///   zero the support edges. Listing a `0.0` edge is harmless.
/// * `commodities` — demands of the form `base · 2^q`; `base` is inferred
///   as the minimum demand.
///
/// Only support edges are scanned and written: a `+0.0` edge is never
/// fractional and never carries the `d·(1−1e-6)` a routed path needs, so
/// the cycle pushes and path subtractions never leave the support, and the
/// answer is the one a scan of every edge would give.
///
/// Returns one path per commodity, in input order.
///
/// # Errors
///
/// [`FlowError::Numerical`] if demands are not powers of two times the
/// base (beyond tolerance) or the flow does not satisfy them.
///
/// # Panics
///
/// In builds with debug assertions, if `support` is not strictly
/// ascending or `flow` is not `+0.0` on every edge off it.
pub fn round_to_unsplittable(
    g: &DiGraph,
    cost: &[f64],
    flow: &mut [f64],
    support: &[EdgeId],
    source: NodeId,
    commodities: &[ClassCommodity],
) -> Result<Vec<Path>, FlowError> {
    debug_assert!(
        support.windows(2).all(|w| w[0] < w[1]),
        "support must be strictly ascending"
    );
    debug_assert!(
        zero_off_support(flow, support),
        "flow must be +0.0 on every edge off the support"
    );
    if commodities.is_empty() {
        return Ok(Vec::new());
    }
    let base = commodities
        .iter()
        .map(|c| c.demand)
        .fold(f64::INFINITY, f64::min);
    if base.is_nan() || base <= 0.0 {
        return Err(FlowError::Numerical("non-positive demand".into()));
    }
    // Group commodity indices by class exponent q.
    let mut max_q = 0u32;
    let mut class_of = Vec::with_capacity(commodities.len());
    for c in commodities {
        let ratio = c.demand / base;
        let q = ratio.log2().round();
        if q < 0.0 || (ratio - (2f64).powi(q as i32)).abs() > 1e-6 * ratio {
            return Err(FlowError::Numerical(format!(
                "demand {} is not base 2^q times {base}",
                c.demand
            )));
        }
        let q = q as u32;
        max_q = max_q.max(q);
        class_of.push(q);
    }

    let scale = commodities.iter().map(|c| c.demand).sum::<f64>().max(1.0);
    let mut paths: Vec<Option<Path>> = vec![None; commodities.len()];
    let mut walk = CycleWalk::new(g.node_count());
    let mut search = FlowPathSearch::new(g.node_count());

    for q in 0..=max_q {
        let d = base * (2f64).powi(q as i32);
        make_d_integral(g, cost, flow, support, d, scale, &mut walk)?;
        for (idx, c) in commodities.iter().enumerate() {
            if class_of[idx] != q {
                continue;
            }
            let Some(path) = search.find(g, flow, source, c.dest, d * (1.0 - 1e-6)) else {
                return Err(FlowError::Numerical(format!(
                    "no flow-carrying path to {:?} at class {d}",
                    c.dest
                )));
            };
            for e in path.edges() {
                flow[e.index()] -= d;
                if flow[e.index()] < FLOW_EPS * scale {
                    flow[e.index()] = 0.0;
                }
            }
            paths[idx] = Some(path);
        }
    }
    // Every commodity was visited at its own class `q`; if float trouble
    // ever breaks that, report it instead of panicking.
    paths
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            p.ok_or_else(|| {
                FlowError::Numerical(format!("commodity {i} never routed by its class"))
            })
        })
        .collect()
}

/// Whether every edge of `flow` missing from the ascending `support` holds
/// exactly `+0.0`.
fn zero_off_support(flow: &[f64], support: &[EdgeId]) -> bool {
    let mut on = support.iter().map(|e| e.index()).peekable();
    flow.iter().enumerate().all(|(i, f)| {
        if on.peek() == Some(&i) {
            on.next();
            true
        } else {
            f.to_bits() == 0
        }
    })
}

/// Pushes flow around cycles of non-`d`-integral arcs (in the direction of
/// non-increasing cost) until every arc flow is an integer multiple of `d`.
/// Only support edges can be non-integral, so only they are snapped.
fn make_d_integral(
    g: &DiGraph,
    cost: &[f64],
    flow: &mut [f64],
    support: &[EdgeId],
    d: f64,
    scale: f64,
    walk: &mut CycleWalk,
) -> Result<(), FlowError> {
    let tol = (FLOW_EPS * scale).max(d * 1e-9);
    let snap = |f: &mut f64| {
        let m = (*f / d).round() * d;
        if (*f - m).abs() <= tol {
            *f = m.max(0.0);
        }
    };
    for e in support {
        snap(&mut flow[e.index()]);
    }
    let max_rounds = 4 * g.edge_count() + 16;
    for _ in 0..max_rounds {
        let Some(cycle) = walk.fractional_cycle(g, flow, support, d, tol) else {
            return Ok(());
        };
        // Each cycle element is (edge, forward?) relative to the traversal
        // orientation. Pushing +δ raises forward arcs and lowers backward
        // arcs; the opposite orientation does the reverse.
        let dir_cost: f64 = cycle
            .iter()
            .map(|&(e, fwd)| {
                if fwd {
                    cost[e.index()]
                } else {
                    -cost[e.index()]
                }
            })
            .sum();
        // Choose the orientation with non-positive cost.
        let flip = dir_cost > 0.0;
        let mut delta = f64::INFINITY;
        for &(e, fwd) in cycle {
            let rising = fwd != flip;
            let f = flow[e.index()];
            let step = if rising {
                // Distance up to the next multiple of d.
                let up = (f / d).floor() * d + d;
                up - f
            } else {
                // Distance down to the previous multiple of d (≥ 0 since
                // the arc is non-integral, so f > floor ≥ 0).
                f - (f / d).floor() * d
            };
            delta = delta.min(step);
        }
        if delta.is_nan() || delta <= tol {
            return Err(FlowError::Numerical(
                "degenerate cycle push in d-integral rounding".into(),
            ));
        }
        for &(e, fwd) in cycle {
            let rising = fwd != flip;
            if rising {
                flow[e.index()] += delta;
            } else {
                flow[e.index()] -= delta;
            }
            snap(&mut flow[e.index()]);
            if flow[e.index()] < 0.0 {
                return Err(FlowError::Numerical("negative flow after push".into()));
            }
        }
    }
    Err(FlowError::Numerical(
        "d-integral rounding did not converge".into(),
    ))
}

/// Scratch for [`CycleWalk::fractional_cycle`], reused by every cycle
/// search of one rounding: each search resets `visited_at` at the nodes it
/// visited, so none clears an O(|V|) array.
struct CycleWalk {
    /// Walk step at which each node was first reached; `usize::MAX` when
    /// the current search has not reached it.
    visited_at: Vec<usize>,
    /// The nodes whose `visited_at` the current search set.
    visited: Vec<NodeId>,
    /// The walk's edges, with whether each was traversed forward.
    edges: Vec<(EdgeId, bool)>,
}

impl CycleWalk {
    fn new(nodes: usize) -> Self {
        Self {
            visited_at: vec![usize::MAX; nodes],
            visited: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Finds an (undirected) cycle among arcs whose flow is not a multiple
    /// of `d`. Returns edges with their orientation relative to the
    /// traversal.
    ///
    /// Flow conservation modulo `d` ensures every node touching a
    /// non-integral arc touches at least two, so the non-integral subgraph
    /// has minimum degree 2 and contains a cycle whenever it is non-empty.
    /// The walk starts at the lowest-index non-integral support edge, the
    /// same edge a scan of every edge would find first.
    fn fractional_cycle(
        &mut self,
        g: &DiGraph,
        flow: &[f64],
        support: &[EdgeId],
        d: f64,
        tol: f64,
    ) -> Option<&[(EdgeId, bool)]> {
        debug_assert!(
            self.visited.is_empty() && self.visited_at.iter().all(|&s| s == usize::MAX),
            "cycle search entered with a dirty visited_at"
        );
        let is_fractional = |e: EdgeId| {
            let f = flow[e.index()];
            let m = (f / d).round() * d;
            (f - m).abs() > tol
        };
        let start_edge = support.iter().copied().find(|&e| is_fractional(e))?;
        // Walk the undirected non-integral subgraph from the start edge's
        // source, never immediately reversing the edge just taken, until a
        // node repeats; the cycle is the walk between the two visits.
        self.edges.clear();
        let mut cur = g.src(start_edge);
        let mut last_edge: Option<EdgeId> = None;
        let mut first = None;
        for step in 0..=2 * g.edge_count() + 2 {
            if self.visited_at[cur.index()] != usize::MAX {
                first = Some(self.visited_at[cur.index()]);
                break;
            }
            self.visited_at[cur.index()] = step;
            self.visited.push(cur);
            // Pick any incident non-integral edge other than the one we
            // came by.
            let mut next: Option<(EdgeId, bool)> = None;
            for &e in g.out_edges(cur) {
                if Some(e) != last_edge && is_fractional(e) {
                    next = Some((e, true));
                    break;
                }
            }
            if next.is_none() {
                for &e in g.in_edges(cur) {
                    if Some(e) != last_edge && is_fractional(e) {
                        next = Some((e, false));
                        break;
                    }
                }
            }
            // Degree-1 fallback (should not happen under conservation mod
            // d, but numerically possible): re-use the incoming edge.
            let Some((e, fwd)) = next.or_else(|| last_edge.map(|e| (e, g.src(e) == cur))) else {
                break;
            };
            self.edges.push((e, fwd));
            cur = if fwd { g.dst(e) } else { g.src(e) };
            last_edge = Some(e);
        }
        for v in self.visited.drain(..) {
            self.visited_at[v.index()] = usize::MAX;
        }
        first.map(|first| &self.edges[first..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every edge of `g`: a support that holds any flow.
    fn all_edges(g: &DiGraph) -> Vec<EdgeId> {
        g.edges().collect()
    }

    /// Two parallel routes s->t, flow split across them; one commodity of
    /// demand 2 must end up on a single route.
    #[test]
    fn merges_split_flow_onto_one_path() {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let a = g.add_node();
        let b = g.add_node();
        let t = g.add_node();
        let sa = g.add_edge(s, a);
        let at = g.add_edge(a, t);
        let sb = g.add_edge(s, b);
        let bt = g.add_edge(b, t);
        let cost = [1.0, 1.0, 3.0, 3.0];
        let mut flow = vec![0.0; 4];
        flow[sa.index()] = 1.0;
        flow[at.index()] = 1.0;
        flow[sb.index()] = 1.0;
        flow[bt.index()] = 1.0;
        let comm = [ClassCommodity {
            dest: t,
            demand: 2.0,
        }];
        let paths = round_to_unsplittable(&g, &cost, &mut flow, &all_edges(&g), s, &comm).unwrap();
        assert_eq!(paths.len(), 1);
        // The cheap route (via a) must be chosen: pushing the cycle in the
        // cost-non-increasing direction moves flow off the expensive route.
        let nodes = paths[0].nodes(&g);
        assert_eq!(nodes, vec![s, a, t]);
    }

    #[test]
    fn two_classes_route_correctly() {
        // Demands 1 and 2 to different destinations.
        let mut g = DiGraph::new();
        let s = g.add_node();
        let x = g.add_node();
        let y = g.add_node();
        let sx = g.add_edge(s, x);
        let sy = g.add_edge(s, y);
        let xy = g.add_edge(x, y);
        let cost = [1.0, 2.0, 0.5];
        let mut flow = vec![0.0; 3];
        // x takes 1; y takes 2 = 1.5 direct + 0.5 via x.
        flow[sx.index()] = 1.5;
        flow[sy.index()] = 1.5;
        flow[xy.index()] = 0.5;
        let comm = [
            ClassCommodity {
                dest: x,
                demand: 1.0,
            },
            ClassCommodity {
                dest: y,
                demand: 2.0,
            },
        ];
        let paths = round_to_unsplittable(&g, &cost, &mut flow, &all_edges(&g), s, &comm).unwrap();
        assert_eq!(paths[0].target(&g), Some(x));
        assert_eq!(paths[1].target(&g), Some(y));
        for p in &paths {
            assert!(p.is_valid(&g));
            assert_eq!(p.source(&g), Some(s));
        }
    }

    #[test]
    fn cost_does_not_increase() {
        // Random-ish split flow; rounded cost must be ≤ splittable cost.
        let mut g = DiGraph::new();
        let s = g.add_node();
        let a = g.add_node();
        let b = g.add_node();
        let t1 = g.add_node();
        let t2 = g.add_node();
        let e = [
            g.add_edge(s, a),
            g.add_edge(s, b),
            g.add_edge(a, t1),
            g.add_edge(b, t1),
            g.add_edge(a, t2),
            g.add_edge(b, t2),
        ];
        let cost = [1.0, 2.0, 1.0, 1.0, 4.0, 1.0];
        let mut flow = vec![0.0; 6];
        // t1 demand 2: 1 via a, 1 via b. t2 demand 1: 0.5 via a, 0.5 via b.
        flow[e[0].index()] = 1.5;
        flow[e[1].index()] = 1.5;
        flow[e[2].index()] = 1.0;
        flow[e[3].index()] = 1.0;
        flow[e[4].index()] = 0.5;
        flow[e[5].index()] = 0.5;
        let split_cost: f64 = flow.iter().zip(&cost).map(|(f, c)| f * c).sum();
        let comm = [
            ClassCommodity {
                dest: t1,
                demand: 2.0,
            },
            ClassCommodity {
                dest: t2,
                demand: 1.0,
            },
        ];
        let paths = round_to_unsplittable(&g, &cost, &mut flow, &all_edges(&g), s, &comm).unwrap();
        let unsplit_cost: f64 = paths
            .iter()
            .zip(&comm)
            .map(|(p, c)| c.demand * p.cost(&cost))
            .sum();
        assert!(
            unsplit_cost <= split_cost + 1e-9,
            "unsplittable {unsplit_cost} > splittable {split_cost}"
        );
    }

    #[test]
    fn rejects_non_power_of_two_demands() {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t);
        let comm = [
            ClassCommodity {
                dest: t,
                demand: 1.0,
            },
            ClassCommodity {
                dest: t,
                demand: 3.0,
            },
        ];
        let err =
            round_to_unsplittable(&g, &[1.0], &mut [4.0], &all_edges(&g), s, &comm).unwrap_err();
        assert!(matches!(err, FlowError::Numerical(_)));
    }

    #[test]
    fn empty_commodities() {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let paths = round_to_unsplittable(&g, &[], &mut [], &[], s, &[]).unwrap();
        assert!(paths.is_empty());
    }

    /// Only the support edges are scanned, so only they may carry flow: a
    /// flow with mass off its declared support trips the entry guard.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "off the support")]
    fn mass_off_the_support_is_rejected() {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let a = g.add_node();
        let t = g.add_node();
        let sa = g.add_edge(s, a);
        g.add_edge(a, t);
        let comm = [ClassCommodity {
            dest: t,
            demand: 1.0,
        }];
        // The flow reaches t over both edges, but only s->a is declared.
        let _ = round_to_unsplittable(&g, &[1.0, 1.0], &mut [1.0, 1.0], &[sa], s, &comm);
    }
}
