//! Randomized property tests for the flow substrate: conservation,
//! optimality cross-checks against the LP formulation, decomposition
//! identities, and the Theorem 4.7 guarantees of the MSUFP algorithm on
//! random networks. Instances are drawn from the in-tree seeded PRNG, so
//! every run checks the same cases.

use jcr_ctx::rng::{Rng, SeedableRng, StdRng};
use jcr_ctx::SolverContext;
use jcr_flow::cyclecancel::min_cost_flow_cycle_canceling;
use jcr_flow::decompose::{cancel_cycles, decompose_single_source_with_context};
use jcr_flow::mincost::{min_cost_flow_with_context, single_source_min_cost_flow_with_context};
use jcr_flow::msufp::{solve_msufp_with_context, Demand};
use jcr_flow::FlowError;
use jcr_graph::{DiGraph, NodeId};

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
