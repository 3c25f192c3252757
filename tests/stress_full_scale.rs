//! Paper-scale end-to-end stress tests (`--ignored` by default; run with
//! `cargo test --release -- --ignored`): the full default chunk-level
//! setting (|C| = 54, ζ = 12, Abovenet-like) and the largest topology
//! (Deltacom-like, 113 nodes).

use jcr::core::alg2;
use jcr::core::prelude::*;
use jcr::ctx::SolverContext;
use jcr::topo::TopologyKind;
use jcr_bench::{build_instance, Scenario};

fn default_instance(kind: TopologyKind) -> Instance {
    let mut sc = Scenario::chunk_default();
    sc.kind = kind;
    sc.hours = 1;
    sc.gpr_window = 48;
    let n_edges = sc.topology().edge_nodes.len();
    let demand = sc.demand(n_edges);
    build_instance(&sc, &demand.true_rates(0, n_edges))
}

#[test]
#[ignore = "paper-scale; run with --ignored in release mode"]
fn full_chunk_scale_abovenet() {
    let ctx = SolverContext::new();
    let inst = default_instance(TopologyKind::Abovenet);
    assert_eq!(inst.num_items(), 54);
    assert_eq!(inst.requests.len(), 54 * 6);

    let alt = Alternating::new().solve_with_context(&inst, &ctx).unwrap();
    assert!(alt.solution.routing.serves_all(&inst));
    assert!(alt.solution.placement.is_feasible(&inst));
    assert!(alt.solution.congestion(&inst) < 3.0);

    let mut sc = Scenario::chunk_default();
    sc.kappa_fraction = None;
    sc.hours = 1;
    sc.gpr_window = 48;
    let n_edges = sc.topology().edge_nodes.len();
    let demand = sc.demand(n_edges);
    let uncap = build_instance(&sc, &demand.true_rates(0, n_edges));
    let alg1 = Algorithm1::new().solve_with_context(&uncap, &ctx).unwrap();
    let sp = ShortestPathPlacement
        .solve_with_context(&uncap, &ctx)
        .unwrap();
    let ksp = IoannidisYeh::k_shortest(10)
        .solve_with_context(&uncap, &ctx)
        .unwrap();
    assert!(alg1.cost(&uncap) <= ksp.cost(&uncap) + 1e-6);
    assert!(alg1.cost(&uncap) <= sp.cost(&uncap) + 1e-6);
}

#[test]
#[ignore = "paper-scale; run with --ignored in release mode"]
fn full_chunk_scale_deltacom() {
    let ctx = SolverContext::new();
    let inst = default_instance(TopologyKind::Deltacom);
    let alt = Alternating::new().solve_with_context(&inst, &ctx).unwrap();
    assert!(alt.solution.routing.serves_all(&inst));
    assert!(alt.solution.placement.is_feasible(&inst));

    let storer = inst.cache_nodes()[0];
    let a2 = alg2::solve_binary_caches_with_context(&inst, &[storer], 1000, &ctx).unwrap();
    assert!(a2.solution.cost(&inst) <= a2.splittable_cost + 1e-6);
    let rnr = alg2::rnr_binary(&inst, &[storer]).unwrap();
    assert!(
        a2.solution.congestion(&inst) < rnr.congestion(&inst),
        "Algorithm 2 must beat RNR's congestion at scale"
    );
}

#[test]
#[ignore = "paper-scale; run with --ignored in release mode"]
fn multiple_full_replicas() {
    let ctx = SolverContext::new();
    // §4.2 models "predetermined, geographically distributed backup
    // servers": several storers at once.
    let inst = default_instance(TopologyKind::Tinet);
    let storers: Vec<_> = inst.cache_nodes().into_iter().take(3).collect();
    let multi = alg2::solve_binary_caches_with_context(&inst, &storers, 100, &ctx).unwrap();
    let single = alg2::solve_binary_caches_with_context(&inst, &storers[..1], 100, &ctx).unwrap();
    assert!(multi.solution.routing.serves_all(&inst));
    // More replicas can only reduce the splittable optimum.
    assert!(multi.splittable_cost <= single.splittable_cost + 1e-6);
}
