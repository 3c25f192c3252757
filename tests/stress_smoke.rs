//! Stress-scale smoke test (tier 1, runs on every CI push): a 1000-node
//! `Stress` topology with a 10⁵-chunk Zipf catalog solves end to end —
//! oracle priming, greedy placement, route-to-nearest-replica cost —
//! without ever materializing a dense |V|² distance matrix, and the
//! resulting cost is bit-identical across worker counts.
//!
//! The same instance also runs the shortest-path placement baseline, whose
//! §4.3.1 LP is built over the requested items only: 96 of the 10⁵ items.
//!
//! This is the beyond-paper scale the flat-memory refactor exists for:
//! the dense block would be 1000² × (8 + 4) bytes ≈ 12 MB per oracle and
//! a dense rate matrix 10⁵ × 64 × 8 bytes ≈ 51 MB; the sparse path holds
//! a few dozen cached rows and a few hundred request triples instead.

use jcr::core::prelude::*;
use jcr::ctx::SolverContext;
use jcr::graph::NodeId;
use jcr::topo::{Topology, TopologyKind};
use jcr::trace::zipf::zipf_demand_sparse;
use jcr_ctx::rng::{SeedableRng, StdRng};

const N_ITEMS: usize = 100_000;
const ACTIVE: usize = 96;
const PER_ITEM: usize = 2;
// Smaller than any edge node's active-item count, so placement cannot
// cover all demand locally and the nearest-replica search has to route.
const ZETA: usize = 1;

fn stress_instance() -> (Instance, Vec<NodeId>) {
    let topo = Topology::generate(TopologyKind::Stress, 7).expect("stress family generates");
    assert_eq!(topo.graph.node_count(), 1000);
    assert!(topo.graph.edge_count() >= 10_000);
    let mut rng = StdRng::seed_from_u64(11);
    let triples = zipf_demand_sparse(
        N_ITEMS,
        topo.edge_nodes.len(),
        0.8,
        1000.0,
        ACTIVE,
        PER_ITEM,
        &mut rng,
    );
    let requests: Vec<Request> = triples
        .iter()
        .map(|&(item, s, rate)| Request {
            item,
            node: topo.edge_nodes[s],
            rate,
        })
        .collect();
    let mut cache_cap = vec![0.0; topo.graph.node_count()];
    for &v in &topo.edge_nodes {
        cache_cap[v.index()] = ZETA as f64;
    }
    let edge_count = topo.graph.edge_count();
    let edge_nodes = topo.edge_nodes.clone();
    let inst = Instance::new(
        topo.graph,
        topo.cost,
        vec![f64::INFINITY; edge_count],
        cache_cap,
        vec![1.0; N_ITEMS],
        requests,
        Some(topo.origin),
    )
    .expect("stress instance is valid")
    // Force on-demand rows regardless of the environment: the point of
    // this test is that the dense |V|² block is never allocated.
    .with_oracle_dense_max(0);
    (inst, edge_nodes)
}

/// Greedy placement + nearest-replica cost through the instance's own
/// oracle; returns (cost, placement size).
fn solve(inst: &Instance, edge_nodes: &[NodeId], ctx: &SolverContext) -> (f64, usize) {
    let ap = inst.all_pairs_with_context(ctx);
    let oracle = ap.oracle();
    assert!(
        !oracle.is_dense(),
        "stress instance must not hold a dense |V|² matrix"
    );
    let origin = inst.origin.expect("stress topology has an origin");
    let mut sources: Vec<NodeId> = edge_nodes.to_vec();
    sources.push(origin);
    oracle.prime_rows_with_context(&sources, ctx);
    assert_eq!(oracle.rows_computed(), sources.len() as u64);

    // Each edge node caches the top-ζ items of its own demand.
    let mut placement = Placement::empty(inst);
    for &v in edge_nodes {
        let mut local: Vec<(usize, f64)> = inst
            .requests
            .iter()
            .filter(|r| r.node == v)
            .map(|r| (r.item, r.rate))
            .collect();
        local.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        for &(item, _) in local.iter().take(ZETA) {
            placement.set(v, item, true);
        }
    }
    assert!(placement.is_feasible(inst));

    let mut cost = 0.0;
    for r in &inst.requests {
        let row = oracle.row(r.node);
        let mut best = row.dist(origin);
        for &v in edge_nodes.iter() {
            if placement.has(v, r.item) {
                best = best.min(row.dist(v));
            }
        }
        assert!(best.is_finite(), "request {r:?} unservable");
        cost += r.rate * best;
    }
    (cost, placement.len())
}

#[test]
fn thousand_node_catalog_solves_without_dense_matrix() {
    let (inst, edge_nodes) = stress_instance();
    assert_eq!(inst.num_items(), N_ITEMS);
    assert_eq!(inst.requests.len(), ACTIVE * PER_ITEM);

    let ctx = SolverContext::new().with_workers(1);
    let (cost, placed) = solve(&inst, &edge_nodes, &ctx);
    assert!(cost.is_finite() && cost > 0.0);
    assert!(placed > 0);

    // Caching must beat the no-cache (origin-only) cost.
    let origin = inst.origin.unwrap();
    let ap = inst.all_pairs();
    let origin_only: f64 = inst
        .requests
        .iter()
        .map(|r| r.rate * ap.dist(r.node, origin))
        .sum();
    assert!(cost < origin_only);
}

#[test]
fn stress_cost_is_bit_identical_across_widths() {
    let (inst, edge_nodes) = stress_instance();
    let mut seen: Option<(u64, usize)> = None;
    for workers in [1usize, 2, 8] {
        // A fresh clone per width: the oracle's row cache starts cold.
        let inst = inst.clone();
        let ctx = SolverContext::new().with_workers(workers);
        let (cost, placed) = solve(&inst, &edge_nodes, &ctx);
        match seen {
            None => seen = Some((cost.to_bits(), placed)),
            Some(expect) => assert_eq!(
                (cost.to_bits(), placed),
                expect,
                "stress cost diverged at {workers} workers"
            ),
        }
    }
}

/// SP's placement LP at catalog scale: x columns for the 96 requested
/// items at each cache, not all 10⁵. The answer certifies, and the pivot
/// count and cost bits are pinned: leaving unrequested items out of the
/// LP must move neither.
#[test]
fn shortest_path_placement_solves_over_requested_items() {
    let (inst, _) = stress_instance();
    let ctx = SolverContext::new().with_workers(1);
    let sol = ShortestPathPlacement
        .solve_with_context(&inst, &ctx)
        .expect("SP solves the stress instance");
    let cert = certify_solution(&inst, &sol, true);
    assert!(cert.verified(), "{}", cert.failure_summary());
    assert_eq!(ctx.stats().simplex_pivots, 324);
    let cost = sol.cost(&inst);
    assert_eq!(
        cost.to_bits(),
        0x40ef_57ab_9e5b_9759,
        "cost {cost:e} moved from 6.418936308078346e4"
    );
}
