//! Randomized property tests for the flow substrate: conservation,
//! optimality cross-checks against the LP formulation, decomposition
//! identities, and the Theorem 4.7 guarantees of the MSUFP algorithm on
//! random networks, and the support-only Skutella rounding and reused
//! path search against dense transcriptions of the scans they replaced.
//! Instances are drawn from the in-tree seeded PRNG, so every run checks
//! the same cases.

use jcr_ctx::rng::{Rng, SeedableRng, StdRng};
use jcr_ctx::SolverContext;
use jcr_flow::cyclecancel::min_cost_flow_cycle_canceling;
use jcr_flow::decompose::{cancel_cycles, decompose_single_source_with_context};
use jcr_flow::mincost::{min_cost_flow_with_context, single_source_min_cost_flow_with_context};
use jcr_flow::msufp::{solve_msufp_with_context, Demand};
use jcr_flow::unsplittable::{round_to_unsplittable, ClassCommodity};
use jcr_flow::{FlowError, PathFlow, FLOW_EPS};
use jcr_graph::{DiGraph, EdgeId, NodeId, Path};

const CASES: u64 = 48;

/// A random layered network: source 0, one mid layer, sinks, with
/// generous fallback edges so demands are always feasible.
#[derive(Debug, Clone)]
struct Net {
    n_mid: usize,
    n_sink: usize,
    cost_seed: Vec<f64>,
    cap_seed: Vec<f64>,
    demands: Vec<f64>,
}

fn random_net(rng: &mut StdRng) -> Net {
    let n_mid = rng.gen_range(1..4usize);
    let n_sink = rng.gen_range(1..4usize);
    let m = n_mid + n_mid * n_sink + n_sink;
    Net {
        n_mid,
        n_sink,
        cost_seed: (0..m).map(|_| rng.gen_range(0.1..10.0)).collect(),
        cap_seed: (0..m).map(|_| rng.gen_range(0.3..4.0)).collect(),
        demands: (0..n_sink).map(|_| rng.gen_range(0.1..2.0)).collect(),
    }
}

/// Builds the graph: source → mids → sinks plus direct source → sink
/// fallback edges with capacity = total demand.
fn build(net: &Net) -> (DiGraph, Vec<f64>, Vec<f64>, NodeId, Vec<NodeId>) {
    let mut g = DiGraph::new();
    let s = g.add_node();
    let mids: Vec<_> = (0..net.n_mid).map(|_| g.add_node()).collect();
    let sinks: Vec<_> = (0..net.n_sink).map(|_| g.add_node()).collect();
    let total: f64 = net.demands.iter().sum();
    let mut cost = Vec::new();
    let mut cap = Vec::new();
    let mut k = 0;
    for &m in &mids {
        g.add_edge(s, m);
        cost.push(net.cost_seed[k]);
        cap.push(net.cap_seed[k] * total);
        k += 1;
    }
    for &m in &mids {
        for &t in &sinks {
            g.add_edge(m, t);
            cost.push(net.cost_seed[k]);
            cap.push(net.cap_seed[k] * total);
            k += 1;
        }
    }
    for &t in &sinks {
        g.add_edge(s, t);
        cost.push(10.0 + net.cost_seed[k]); // expensive fallback
        cap.push(total + 1.0);
        k += 1;
    }
    (g, cost, cap, s, sinks)
}

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

/// Min-cost flow: conservation, capacity, and optimality vs the LP.
#[test]
fn min_cost_flow_matches_lp() {
    let ctx = SolverContext::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x666c_6f77 + case);
        let net = random_net(&mut rng);
        let (g, cost, cap, s, sinks) = build(&net);
        let demands: Vec<(NodeId, f64)> = sinks
            .iter()
            .copied()
            .zip(net.demands.iter().copied())
            .collect();
        let mcf =
            single_source_min_cost_flow_with_context(&g, &cost, &cap, s, &demands, &ctx).unwrap();
        let mut supply = vec![0.0; g.node_count()];
        for &(d, a) in &demands {
            supply[d.index()] -= a;
            supply[s.index()] += a;
        }
        check_conservation(&g, &mcf.flow, &supply);
        for e in g.edges() {
            assert!(mcf.flow[e.index()] <= cap[e.index()] + 1e-6);
            assert!(mcf.flow[e.index()] >= -1e-9);
        }
        // LP cross-check.
        let mut m = jcr_lp::Model::new(jcr_lp::Sense::Minimize);
        let vars: Vec<_> = g
            .edges()
            .map(|e| m.add_var(0.0, cap[e.index()], cost[e.index()]))
            .collect();
        for v in g.nodes() {
            let mut entries = Vec::new();
            for &e in g.out_edges(v) {
                entries.push((vars[e.index()], 1.0));
            }
            for &e in g.in_edges(v) {
                entries.push((vars[e.index()], -1.0));
            }
            m.add_row(supply[v.index()], supply[v.index()], &entries);
        }
        let lp = m.solve_with_context(&ctx).unwrap();
        assert!(
            (lp.objective - mcf.cost).abs() < 1e-5 * (1.0 + mcf.cost),
            "case {case}: LP {} vs SSP {}",
            lp.objective,
            mcf.cost
        );
        // Third opinion: the independent cycle-canceling solver.
        let cc = min_cost_flow_cycle_canceling(&g, &cost, &cap, &supply).unwrap();
        assert!(
            (cc.cost - mcf.cost).abs() < 1e-5 * (1.0 + mcf.cost),
            "case {case}: cycle-canceling {} vs SSP {}",
            cc.cost,
            mcf.cost
        );
    }
}

/// Decomposition re-composes to the original (acyclic) flow, and every
/// path is simple with the right endpoints.
#[test]
fn decomposition_identity() {
    let ctx = SolverContext::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xdec0 + case);
        let net = random_net(&mut rng);
        let (g, cost, cap, s, sinks) = build(&net);
        let demands: Vec<(NodeId, f64)> = sinks
            .iter()
            .copied()
            .zip(net.demands.iter().copied())
            .collect();
        let mcf =
            single_source_min_cost_flow_with_context(&g, &cost, &cap, s, &demands, &ctx).unwrap();
        let mut acyclic = mcf.flow.clone();
        cancel_cycles(&g, &mut acyclic);
        let paths = decompose_single_source_with_context(&g, &acyclic, s, &demands, &ctx).unwrap();
        let mut recomposed = vec![0.0; g.edge_count()];
        for (pfs, &(dest, amount)) in paths.iter().zip(&demands) {
            let total: f64 = pfs.iter().map(|p| p.amount).sum();
            assert!((total - amount).abs() < 1e-6);
            for pf in pfs {
                assert!(pf.path.is_valid(&g));
                assert!(!pf.path.has_repeated_node(&g));
                assert_eq!(pf.path.source(&g), Some(s));
                assert_eq!(pf.path.target(&g), Some(dest));
                for e in pf.path.edges() {
                    recomposed[e.index()] += pf.amount;
                }
            }
        }
        for e in g.edges() {
            assert!(recomposed[e.index()] <= acyclic[e.index()] + 1e-6);
        }
    }
}

/// Theorem 4.7 on random instances: cost within the splittable bound
/// and link loads within the bicriteria bound, for several K.
#[test]
fn msufp_theorem_4_7() {
    let ctx = SolverContext::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6d73 + case);
        let net = random_net(&mut rng);
        let k = rng.gen_range(1..6u32);
        let (g, cost, cap, s, sinks) = build(&net);
        let demands: Vec<Demand> = sinks
            .iter()
            .copied()
            .zip(net.demands.iter().copied())
            .map(|(dest, demand)| Demand { dest, demand })
            .collect();
        let sol = match solve_msufp_with_context(&g, &cost, &cap, s, &demands, k, &ctx) {
            Ok(sol) => sol,
            Err(FlowError::Infeasible) => continue, // capacities too tight
            Err(e) => panic!("case {case}: {e}"),
        };
        // (i) cost within the splittable optimum.
        assert!(
            sol.cost <= sol.splittable_cost + 1e-6,
            "case {case}: cost {} above splittable {}",
            sol.cost,
            sol.splittable_cost
        );
        // (ii) congestion within the bicriteria bound.
        let lambda_max = net.demands.iter().cloned().fold(0.0f64, f64::max);
        let factor = (2f64).powf(1.0 / f64::from(k));
        for e in g.edges() {
            let bound = factor / (2.0 * (factor - 1.0)) * lambda_max + factor * cap[e.index()];
            assert!(
                sol.link_loads[e.index()] < bound + 1e-6,
                "case {case}, K={k}: load {} ≥ bound {bound}",
                sol.link_loads[e.index()]
            );
        }
        // Every commodity routed source → destination on a simple path.
        for (p, d) in sol.paths.iter().zip(&demands) {
            assert_eq!(p.source(&g), Some(s));
            assert_eq!(p.target(&g), Some(d.dest));
            assert!(!p.has_repeated_node(&g));
        }
    }
}

/// Balanced random supplies on a ring: min-cost flow always finds a
/// feasible conservative flow when a high-capacity ring exists.
#[test]
fn ring_with_random_supplies() {
    let ctx = SolverContext::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7269_6e67 + case);
        let n = rng.gen_range(3..7usize);
        let mut supply: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let shift: f64 = supply.iter().sum::<f64>() / n as f64;
        for s in &mut supply {
            *s -= shift;
        }
        let mut g = DiGraph::new();
        let nodes = g.add_nodes(n);
        let mut cost = Vec::new();
        for i in 0..n {
            g.add_edge(nodes[i], nodes[(i + 1) % n]);
            cost.push(1.0 + i as f64);
        }
        let cap = vec![100.0; n];
        let mcf = min_cost_flow_with_context(&g, &cost, &cap, &supply, &ctx).unwrap();
        check_conservation(&g, &mcf.flow, &supply);
    }
}

/// Deterministic replay of a historical regression (cycle-canceling once
/// stopped early on this fan network).
#[test]
fn cycle_canceling_regression_fan() {
    let ctx = SolverContext::new();
    let net = Net {
        n_mid: 2,
        n_sink: 2,
        cost_seed: vec![
            6.75542128420835,
            9.070739198515733,
            0.8371996961318596,
            9.16742649838404,
            0.1,
            0.1,
            8.344827984240164,
            9.836433201960428,
        ],
        cap_seed: vec![0.3; 8],
        demands: vec![0.1, 0.1],
    };
    let (g, cost, cap, s, sinks) = build(&net);
    let demands: Vec<(NodeId, f64)> = sinks
        .iter()
        .copied()
        .zip(net.demands.iter().copied())
        .collect();
    let mcf = single_source_min_cost_flow_with_context(&g, &cost, &cap, s, &demands, &ctx).unwrap();
    let mut supply = vec![0.0; g.node_count()];
    for &(d, a) in &demands {
        supply[d.index()] -= a;
        supply[s.index()] += a;
    }
    let cc = min_cost_flow_cycle_canceling(&g, &cost, &cap, &supply).unwrap();
    assert!(
        (cc.cost - mcf.cost).abs() < 1e-5 * (1.0 + mcf.cost),
        "cycle-canceling {} vs SSP {}",
        cc.cost,
        mcf.cost
    );
}

/// Dense transcriptions of the Skutella rounding and the positive-flow
/// path search as they were before either learned to stay on the flow's
/// support: every edge is snapped, every cycle search scans all edges for
/// its start and clears a fresh `visited_at`, and every path search
/// allocates its own `parent` and `seen`.
mod dense {
    use super::*;

    pub fn positive_flow_path_min(
        g: &DiGraph,
        flow: &[f64],
        source: NodeId,
        dest: NodeId,
        min_flow: f64,
    ) -> Option<Path> {
        let n = g.node_count();
        let mut parent: Vec<Option<EdgeId>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut stack = vec![source];
        seen[source.index()] = true;
        while let Some(v) = stack.pop() {
            if v == dest {
                let mut edges = Vec::new();
                let mut cur = dest;
                while let Some(e) = parent[cur.index()] {
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
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    parent[w.index()] = Some(e);
                    stack.push(w);
                }
            }
        }
        None
    }

    pub fn decompose(
        g: &DiGraph,
        flow: &[f64],
        source: NodeId,
        demands: &[(NodeId, f64)],
    ) -> Result<Vec<Vec<PathFlow>>, FlowError> {
        let mut residual = flow.to_vec();
        cancel_cycles(g, &mut residual);
        let scale = demands.iter().map(|d| d.1).sum::<f64>().max(1.0);
        let mut result: Vec<Vec<PathFlow>> = vec![Vec::new(); demands.len()];
        for (idx, &(dest, amount)) in demands.iter().enumerate() {
            let mut remaining = amount;
            while remaining > FLOW_EPS * scale {
                let Some(path) = positive_flow_path_min(g, &residual, source, dest, FLOW_EPS)
                else {
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
                result[idx].push(PathFlow { path, amount: push });
            }
        }
        Ok(result)
    }

    pub fn round_to_unsplittable(
        g: &DiGraph,
        cost: &[f64],
        mut flow: Vec<f64>,
        source: NodeId,
        commodities: &[ClassCommodity],
    ) -> (Result<Vec<Path>, FlowError>, Vec<f64>) {
        let result = round(g, cost, &mut flow, source, commodities);
        (result, flow)
    }

    fn round(
        g: &DiGraph,
        cost: &[f64],
        flow: &mut [f64],
        source: NodeId,
        commodities: &[ClassCommodity],
    ) -> Result<Vec<Path>, FlowError> {
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
        for q in 0..=max_q {
            let d = base * (2f64).powi(q as i32);
            make_d_integral(g, cost, flow, d, scale)?;
            for (idx, c) in commodities.iter().enumerate() {
                if class_of[idx] != q {
                    continue;
                }
                let Some(path) = positive_flow_path_min(g, flow, source, c.dest, d * (1.0 - 1e-6))
                else {
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

    fn make_d_integral(
        g: &DiGraph,
        cost: &[f64],
        flow: &mut [f64],
        d: f64,
        scale: f64,
    ) -> Result<(), FlowError> {
        let tol = (FLOW_EPS * scale).max(d * 1e-9);
        let snap = |f: &mut f64| {
            let m = (*f / d).round() * d;
            if (*f - m).abs() <= tol {
                *f = m.max(0.0);
            }
        };
        for f in flow.iter_mut() {
            snap(f);
        }
        let max_rounds = 4 * g.edge_count() + 16;
        for _ in 0..max_rounds {
            let Some(cycle) = fractional_cycle(g, flow, d, tol) else {
                return Ok(());
            };
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
            let flip = dir_cost > 0.0;
            let mut delta = f64::INFINITY;
            for &(e, fwd) in &cycle {
                let rising = fwd != flip;
                let f = flow[e.index()];
                let step = if rising {
                    let up = (f / d).floor() * d + d;
                    up - f
                } else {
                    f - (f / d).floor() * d
                };
                delta = delta.min(step);
            }
            if delta.is_nan() || delta <= tol {
                return Err(FlowError::Numerical(
                    "degenerate cycle push in d-integral rounding".into(),
                ));
            }
            for &(e, fwd) in &cycle {
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

    fn fractional_cycle(
        g: &DiGraph,
        flow: &[f64],
        d: f64,
        tol: f64,
    ) -> Option<Vec<(EdgeId, bool)>> {
        let is_fractional = |e: EdgeId| {
            let f = flow[e.index()];
            let m = (f / d).round() * d;
            (f - m).abs() > tol
        };
        let start_edge = g.edges().find(|&e| is_fractional(e))?;
        let n = g.node_count();
        let mut visited_at: Vec<Option<usize>> = vec![None; n];
        let mut walk: Vec<(EdgeId, bool)> = Vec::new();
        let mut cur = g.src(start_edge);
        let mut last_edge: Option<EdgeId> = None;
        for step in 0..=2 * g.edge_count() + 2 {
            if let Some(first) = visited_at[cur.index()] {
                return Some(walk[first..].to_vec());
            }
            visited_at[cur.index()] = Some(step);
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
            let (e, fwd) = next.or_else(|| last_edge.map(|e| (e, g.src(e) == cur)))?;
            walk.push((e, fwd));
            cur = if fwd { g.dst(e) } else { g.src(e) };
            last_edge = Some(e);
        }
        None
    }
}

/// A random simple `source -> dest` path, found by a DFS that tries each
/// node's out-edges in a shuffled order.
fn random_path(g: &DiGraph, rng: &mut StdRng, source: NodeId, dest: NodeId) -> Option<Vec<EdgeId>> {
    let mut on_path = vec![false; g.node_count()];
    let mut edges = Vec::new();
    fn go(
        g: &DiGraph,
        rng: &mut StdRng,
        v: NodeId,
        dest: NodeId,
        on_path: &mut [bool],
        edges: &mut Vec<EdgeId>,
    ) -> bool {
        if v == dest {
            return true;
        }
        on_path[v.index()] = true;
        let mut out = g.out_edges(v).to_vec();
        for i in (1..out.len()).rev() {
            out.swap(i, rng.gen_range(0..i + 1));
        }
        for e in out {
            let w = g.dst(e);
            if on_path[w.index()] {
                continue;
            }
            edges.push(e);
            if go(g, rng, w, dest, on_path, edges) {
                return true;
            }
            edges.pop();
        }
        on_path[v.index()] = false;
        false
    }
    go(g, rng, source, dest, &mut on_path, &mut edges).then_some(edges)
}

/// A random single-source class flow: a graph with parallel and opposite
/// edges and tie-heavy integer costs (zeros make zero-cost cycles), one
/// to four power-of-two classes of commodities, each demand split over up
/// to three random paths, plus fractional circulations around random
/// directed cycles. One case in eight under-serves its first commodity, so
/// the error paths are compared too.
fn random_class_flow(
    rng: &mut StdRng,
) -> (DiGraph, Vec<f64>, Vec<f64>, NodeId, Vec<ClassCommodity>) {
    let n = rng.gen_range(3..12usize);
    let mut g = DiGraph::new();
    let nodes = g.add_nodes(n);
    for i in 1..n {
        // A spine keeps every node reachable from the source.
        g.add_edge(nodes[rng.gen_range(0..i)], nodes[i]);
    }
    for _ in 0..rng.gen_range(n..4 * n) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            g.add_edge(nodes[a], nodes[b]);
        }
    }
    let cost: Vec<f64> = (0..g.edge_count())
        .map(|_| f64::from(rng.gen_range(0..3u32)))
        .collect();
    let base = [1.0, 0.25, 0.37, 3.0][rng.gen_range(0..4usize)];
    let classes = rng.gen_range(1..5i32);
    let source = nodes[0];
    let mut flow = vec![0.0; g.edge_count()];
    let mut commodities = Vec::new();
    let mut short = rng.gen_range(0..8u32) == 0;
    for _ in 0..rng.gen_range(1..9usize) {
        let dest = nodes[rng.gen_range(1..n)];
        let demand = base * (2f64).powi(rng.gen_range(0..classes));
        let splits = rng.gen_range(1..4usize);
        let mut left = demand;
        for part in 0..splits {
            let amount = if part + 1 == splits {
                if std::mem::take(&mut short) {
                    left * 0.5
                } else {
                    left
                }
            } else {
                left * rng.gen_range(0.1..0.9)
            };
            left -= amount;
            let path = random_path(&g, rng, source, dest).expect("the spine reaches every node");
            for e in path {
                flow[e.index()] += amount;
            }
        }
        commodities.push(ClassCommodity { dest, demand });
    }
    for _ in 0..rng.gen_range(0..3usize) {
        // A circulation u -> ... -> w -> u keeps conservation.
        let e = EdgeId::new(rng.gen_range(0..g.edge_count()));
        if let Some(back) = random_path(&g, rng, g.dst(e), g.src(e)) {
            let amount = base * rng.gen_range(0.05..1.5);
            for e in back.into_iter().chain([e]) {
                flow[e.index()] += amount;
            }
        }
    }
    (g, cost, flow, source, commodities)
}

/// The support-only rounding returns, edge for edge, the paths of the
/// dense rounding it replaced (or the same error), and leaves the same
/// flow bits behind. The reused positive-flow search decomposes every
/// flow into the same paths as the allocating search it replaced.
#[test]
fn support_only_rounding_matches_dense_scans() {
    let ctx = SolverContext::new();
    let (mut routed, mut failed) = (0, 0);
    for case in 0..4 * CASES {
        let mut rng = StdRng::seed_from_u64(0x736b_7574 + case);
        let (g, cost, flow, source, commodities) = random_class_flow(&mut rng);
        let support: Vec<EdgeId> = g.edges().filter(|e| flow[e.index()] != 0.0).collect();
        let mut sparse_flow = flow.clone();
        let sparse =
            round_to_unsplittable(&g, &cost, &mut sparse_flow, &support, source, &commodities);
        let (dense, dense_flow) =
            dense::round_to_unsplittable(&g, &cost, flow.clone(), source, &commodities);
        assert_eq!(sparse, dense, "case {case}");
        let bits = |f: &[f64]| f.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&sparse_flow), bits(&dense_flow), "case {case}: flow");
        routed += u64::from(sparse.is_ok());
        failed += u64::from(sparse.is_err());

        let mut demands: Vec<(NodeId, f64)> = Vec::new();
        for c in &commodities {
            match demands.iter_mut().find(|d| d.0 == c.dest) {
                Some(d) => d.1 += c.demand,
                None => demands.push((c.dest, c.demand)),
            }
        }
        assert_eq!(
            decompose_single_source_with_context(&g, &flow, source, &demands, &ctx),
            dense::decompose(&g, &flow, source, &demands),
            "case {case}: decomposition"
        );
    }
    assert!(
        routed >= 2 * CASES && failed > 0,
        "{routed} of {} cases routed, {failed} failed",
        4 * CASES
    );
}
