//! End-to-end pipeline invariants on the paper's default edge-caching
//! scenario: every algorithm produces a feasible, fully-serving solution,
//! and the theoretically-required cost orderings hold.

use jcr::core::prelude::*;
use jcr::core::{alg2, fcfr, hetero, rnr};
use jcr::ctx::SolverContext;
use jcr::topo::{Topology, TopologyKind};

fn chunk_instance(seed: u64, capacitated: bool) -> Instance {
    let b = InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, seed).unwrap())
        .items(12)
        .cache_capacity(3.0)
        .zipf_demand(0.8, 2_000.0, seed);
    if capacitated {
        b.link_capacity_fraction(0.02)
    } else {
        b
    }
    .build()
    .unwrap()
}

#[test]
fn all_algorithms_serve_all_requests_feasibly() {
    let ctx = SolverContext::new();
    let uncap = chunk_instance(1, false);
    let cap = chunk_instance(1, true);

    let solutions: Vec<(&str, &Instance, Solution)> = vec![
        (
            "Alg1",
            &uncap,
            Algorithm1::new().solve_with_context(&uncap, &ctx).unwrap(),
        ),
        (
            "alternating",
            &cap,
            Alternating::new()
                .solve_with_context(&cap, &ctx)
                .unwrap()
                .solution,
        ),
        (
            "SP",
            &cap,
            ShortestPathPlacement
                .solve_with_context(&cap, &ctx)
                .unwrap(),
        ),
        (
            "SP+RNR",
            &cap,
            IoannidisYeh::sp_rnr()
                .solve_with_context(&cap, &ctx)
                .unwrap(),
        ),
        (
            "k-SP+RNR",
            &cap,
            IoannidisYeh::ksp_rnr(5)
                .solve_with_context(&cap, &ctx)
                .unwrap(),
        ),
    ];
    for (name, inst, sol) in &solutions {
        assert!(
            sol.placement.is_feasible(inst),
            "{name}: infeasible placement"
        );
        assert!(
            sol.routing.serves_all(inst),
            "{name}: under-served requests"
        );
        assert!(
            sol.routing.sources_valid(inst, &sol.placement),
            "{name}: path from a non-storing source"
        );
        assert!(
            sol.routing.is_integral(),
            "{name}: IC-IR requires one path per request"
        );
    }
}

#[test]
fn cost_ordering_fcfr_lower_bounds_everything() {
    let ctx = SolverContext::new();
    // FC-FR is the LP relaxation of every other case, so its optimum
    // lower-bounds any integral solution's cost.
    let inst = InstanceBuilder::new(Topology::generate_custom(10, 13, 3, 5).unwrap())
        .items(5)
        .cache_capacity(2.0)
        .zipf_demand(0.9, 100.0, 5)
        .link_capacity_fraction(0.1)
        .build()
        .unwrap();
    let lb = fcfr::solve_fcfr_with_context(&inst, &ctx).unwrap().cost;
    let alt = Alternating::new()
        .solve_with_context(&inst, &ctx)
        .unwrap()
        .solution
        .cost(&inst);
    let sp = ShortestPathPlacement
        .solve_with_context(&inst, &ctx)
        .unwrap()
        .cost(&inst);
    assert!(lb <= alt + 1e-6, "FC-FR {lb} > alternating {alt}");
    assert!(lb <= sp + 1e-6, "FC-FR {lb} > SP {sp}");
}

#[test]
fn rnr_cost_lower_bounds_any_feasible_routing_of_same_placement() {
    let inst = chunk_instance(3, true);
    let result = Alternating::new()
        .solve_with_context(&inst, &SolverContext::new())
        .unwrap()
        .solution;
    let rnr_routing = rnr::route_to_nearest_replica(&inst, &result.placement).unwrap();
    // RNR ignores capacities, so it is the cheapest routing of the
    // placement; the capacity-respecting alternating routing costs ≥.
    assert!(rnr_routing.cost(&inst) <= result.cost(&inst) + 1e-6);
}

#[test]
fn binary_cache_case_cost_between_bounds() {
    let inst = chunk_instance(4, true);
    let storer = inst.cache_nodes()[0];
    let sol = alg2::solve_binary_caches_with_context(&inst, &[storer], 16, &SolverContext::new())
        .unwrap();
    // Theorem 4.7(i): within the splittable optimum.
    assert!(sol.solution.cost(&inst) <= sol.splittable_cost + 1e-6);
    // And at least the unconstrained RNR cost (the absolute routing floor).
    let rnr_sol = alg2::rnr_binary(&inst, &[storer]).unwrap();
    assert!(sol.solution.cost(&inst) + 1e-6 >= rnr_sol.cost(&inst));
}

#[test]
fn greedy_hetero_vs_lp_on_equalized_sizes() {
    let ctx = SolverContext::new();
    // With all sizes equal, the heterogeneous greedy and Algorithm 1 chase
    // the same objective; greedy must reach at least half of Alg1's saving.
    let inst = chunk_instance(6, false);
    let alg1 = Algorithm1::new().solve_with_context(&inst, &ctx).unwrap();
    let greedy_placement = hetero::greedy_placement_rnr(&inst);
    let f1 = jcr::core::alg1::f_rnr(&inst, &alg1.placement);
    let fg = jcr::core::alg1::f_rnr(&inst, &greedy_placement);
    assert!(fg >= 0.5 * f1 - 1e-6, "greedy {fg} below half of Alg1 {f1}");
}

#[test]
fn file_level_pipeline_stays_feasible_where_baselines_overflow() {
    let ctx = SolverContext::new();
    let inst = InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 8).unwrap())
        .item_sizes(vec![4.5, 6.1, 7.5, 3.9, 8.5, 4.3, 1.6, 7.1, 1.6, 3.1])
        .cache_capacity(9.6)
        .zipf_demand(0.8, 2_000.0, 8)
        .link_capacity_fraction(0.02)
        .build()
        .unwrap();
    let ours = Alternating::new()
        .solve_with_context(&inst, &ctx)
        .unwrap()
        .solution;
    assert!(ours.placement.is_feasible(&inst));
    assert!(ours.placement.max_occupancy_ratio(&inst) <= 1.0 + 1e-9);
    // The candidate-path baseline's size-oblivious rounding may overflow;
    // its occupancy is at least well-defined and reported.
    let baseline = IoannidisYeh::ksp_rnr(10)
        .solve_with_context(&inst, &ctx)
        .unwrap();
    let _ = baseline.placement.max_occupancy_ratio(&inst);
    assert!(baseline.routing.serves_all(&inst));
}
