//! Stress-scale smoke test (tier 1, runs on every CI push): a 1000-node
//! `Stress` topology with a 10⁵-chunk Zipf catalog solves end to end —
//! oracle priming, greedy placement, route-to-nearest-replica cost —
//! without ever materializing a dense |V|² distance matrix, and the
//! resulting cost is bit-identical across worker counts. A second draw
//! pins that cost's checksum and work counters as literals, and an
//! ignored full-scale draw (512 active items) repeats the width check:
//! `cargo test --release --test stress_smoke -- --ignored`.
//!
//! The smoke instance also runs the shortest-path placement baseline, whose
//! §4.3.1 LP is built over the requested items only: 96 of the 10⁵ items.
//!
//! This is the beyond-paper scale the flat-memory refactor exists for:
//! the dense block would be 1000² × (8 + 4) bytes ≈ 12 MB per oracle and
//! a dense rate matrix 10⁵ × 64 × 8 bytes ≈ 51 MB; the sparse path holds
//! a few dozen filled oracle rows and a few hundred request triples
//! instead.

use jcr::core::prelude::*;
use jcr::ctx::par::par_map;
use jcr::ctx::SolverContext;
use jcr::graph::NodeId;
use jcr::topo::{Topology, TopologyKind};
use jcr::trace::zipf::zipf_demand_sparse;
use jcr_ctx::rng::{SeedableRng, StdRng};

mod common;
use common::{assert_pinned, checksum};

const N_ITEMS: usize = 100_000;

/// One seeded stress draw over the 10⁵-item catalog.
struct Draw {
    topo_seed: u64,
    demand_seed: u64,
    total_rate: f64,
    active: usize,
    per_item: usize,
    /// Per-edge-node cache budget, in items.
    zeta: usize,
}

/// The smoke draw. ζ is smaller than any edge node's active-item count,
/// so placement cannot cover all demand locally and the nearest-replica
/// search has to route.
const SMOKE: Draw = Draw {
    topo_seed: 7,
    demand_seed: 11,
    total_rate: 1000.0,
    active: 96,
    per_item: 2,
    zeta: 1,
};

/// The pinned draw: 128 active items, four requesters each.
const PINNED: Draw = Draw {
    topo_seed: 5,
    demand_seed: 41,
    total_rate: 4000.0,
    active: 128,
    per_item: 4,
    zeta: 4,
};

fn stress_instance(d: &Draw) -> (Instance, Vec<NodeId>) {
    let topo =
        Topology::generate(TopologyKind::Stress, d.topo_seed).expect("stress family generates");
    assert_eq!(topo.graph.node_count(), 1000);
    assert!(topo.graph.edge_count() >= 10_000);
    let mut rng = StdRng::seed_from_u64(d.demand_seed);
    let triples = zipf_demand_sparse(
        N_ITEMS,
        topo.edge_nodes.len(),
        0.8,
        d.total_rate,
        d.active,
        d.per_item,
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
        cache_cap[v.index()] = d.zeta as f64;
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
/// oracle. Returns the cost summed over 64 fixed request ranges, one
/// partial per range in range order (bit-identical at any pool width),
/// and the placement size.
fn solve(
    inst: &Instance,
    edge_nodes: &[NodeId],
    zeta: usize,
    ctx: &SolverContext,
) -> (Vec<f64>, usize) {
    let oracle = inst.all_pairs_with_context(ctx);
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
        for &(item, _) in local.iter().take(zeta) {
            placement.set(v, item, true);
        }
    }
    assert!(placement.is_feasible(inst));

    let n_req = inst.requests.len();
    let ranges: Vec<(usize, usize)> = (0..64)
        .map(|k| (k * n_req / 64, (k + 1) * n_req / 64))
        .collect();
    let partials = par_map(ctx, &ranges, |_, _, &(lo, hi)| {
        let mut sum = 0.0;
        for r in &inst.requests[lo..hi] {
            let row = oracle.row(r.node);
            let mut best = row.dist(origin);
            for &v in edge_nodes {
                if placement.has(v, r.item) {
                    best = best.min(row.dist(v));
                }
            }
            assert!(best.is_finite(), "request {r:?} unservable");
            sum += r.rate * best;
        }
        sum
    });
    (partials, placement.len())
}

#[test]
fn thousand_node_catalog_solves_without_dense_matrix() {
    let (inst, edge_nodes) = stress_instance(&SMOKE);
    assert_eq!(inst.num_items(), N_ITEMS);
    assert_eq!(inst.requests.len(), SMOKE.active * SMOKE.per_item);

    let ctx = SolverContext::new().with_workers(1);
    let (partials, placed) = solve(&inst, &edge_nodes, SMOKE.zeta, &ctx);
    let cost: f64 = partials.iter().sum();
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

/// Solves `d` on a fresh clone per pool width (an instance clone starts
/// with no oracle rows filled) and asserts every width returns the same
/// partial-cost bits and placement size.
fn assert_width_independent(d: &Draw, widths: &[usize]) {
    let (inst, edge_nodes) = stress_instance(d);
    let mut seen: Option<(Vec<u64>, usize)> = None;
    for &workers in widths {
        let inst = inst.clone();
        let ctx = SolverContext::new().with_workers(workers);
        let (partials, placed) = solve(&inst, &edge_nodes, d.zeta, &ctx);
        let got = (partials.iter().map(|p| p.to_bits()).collect(), placed);
        match &seen {
            None => seen = Some(got),
            Some(expect) => assert_eq!(&got, expect, "stress cost diverged at {workers} workers"),
        }
    }
}

#[test]
fn stress_cost_is_bit_identical_across_widths() {
    assert_width_independent(&SMOKE, &[1, 2, 8]);
}

/// The pinned draw's partial costs and placement size hash to a literal,
/// and priming one oracle row per edge node plus the origin takes exactly
/// 65 Dijkstra runs and nothing else.
#[test]
fn stress_route_cost_is_pinned() {
    let (inst, edge_nodes) = stress_instance(&PINNED);
    assert_pinned("f9f9c134ecd8c76b", [0, 0, 65, 0, 0, 0], |ctx| {
        let (partials, placed) = solve(&inst.clone(), &edge_nodes, PINNED.zeta, ctx);
        checksum(partials.into_iter().chain([placed as f64]))
    });
}

/// Full scale: 512 active items on the same topology, still on-demand
/// rows only and width-independent.
#[test]
#[ignore = "full scale; run with --release --test stress_smoke -- --ignored"]
fn full_scale_stress_is_width_independent() {
    let full = Draw {
        active: 512,
        ..PINNED
    };
    assert_width_independent(&full, &[1, 2, 8]);
}

/// SP's placement LP at catalog scale: x columns for the 96 requested
/// items at each cache, not all 10⁵. The answer certifies, and the pivot
/// count and cost bits are pinned: leaving unrequested items out of the
/// LP must move neither.
#[test]
fn shortest_path_placement_solves_over_requested_items() {
    let (inst, _) = stress_instance(&SMOKE);
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
