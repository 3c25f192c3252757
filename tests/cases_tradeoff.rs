//! The three tractable cases of §2.4 / Fig. 1 on a common instance:
//! FC-FR (exact LP) lower-bounds IC-FR, which lower-bounds IC-IR *when the
//! placement is held fixed* (fractional routing relaxes integral routing).

use jcr::core::alternating::{Alternating, RoutingMethod};
use jcr::core::fcfr;
use jcr::core::prelude::*;
use jcr::ctx::SolverContext;
use jcr::topo::Topology;

fn small_instance(seed: u64) -> Instance {
    InstanceBuilder::new(Topology::generate_custom(10, 13, 3, seed).unwrap())
        .items(5)
        .cache_capacity(2.0)
        .zipf_demand(0.9, 200.0, seed)
        .link_capacity_fraction(0.05)
        .build()
        .unwrap()
}

#[test]
fn fcfr_lower_bounds_capacity_feasible_solutions() {
    let ctx = SolverContext::new();
    for seed in 0..3 {
        let inst = small_instance(seed);
        let fcfr_cost = fcfr::solve_fcfr_with_context(&inst, &ctx).unwrap().cost;
        // IC-FR routes fractionally (MMSFP), so it always respects
        // capacities and the LP bound applies unconditionally.
        let icfr = Alternating {
            integral_routing: false,
            seed,
            ..Alternating::default()
        }
        .solve_with_context(&inst, &ctx)
        .unwrap();
        assert!(icfr.solution.congestion(&inst) <= 1.0 + 1e-6, "seed {seed}");
        assert!(
            fcfr_cost <= icfr.solution.cost(&inst) + 1e-6,
            "seed {seed}: FC-FR {} > IC-FR {}",
            fcfr_cost,
            icfr.solution.cost(&inst)
        );
        // IC-IR's randomized rounding may overload links; the bound
        // applies only when the rounded routing stays within capacity —
        // an undercut *requires* a capacity violation.
        let icir = Alternating {
            seed,
            ..Alternating::default()
        }
        .solve_with_context(&inst, &ctx)
        .unwrap();
        let cost = icir.solution.cost(&inst);
        if cost + 1e-6 < fcfr_cost {
            assert!(
                icir.solution.congestion(&inst) > 1.0,
                "seed {seed}: IC-IR {cost} beats the LP bound {fcfr_cost} while feasible"
            );
        }
    }
}

#[test]
fn fractional_routing_of_fixed_placement_never_costs_more() {
    let ctx = SolverContext::new();
    // Hold the placement fixed: the routing subproblem relaxation chain
    // MMSFP ≤ randomized-rounded MMUFP ≤ greedy MMUFP is a true ordering
    // for the first inequality and a typical one for the second.
    for seed in 0..3 {
        let inst = small_instance(seed);
        let placement = Alternating {
            seed,
            ..Alternating::default()
        }
        .solve_with_context(&inst, &ctx)
        .unwrap()
        .solution
        .placement;

        let fractional = Alternating {
            integral_routing: false,
            seed,
            ..Alternating::default()
        }
        .route_given_placement_with_context(&inst, &placement, &ctx)
        .unwrap();
        let rounded = Alternating {
            seed,
            ..Alternating::default()
        }
        .route_given_placement_with_context(&inst, &placement, &ctx)
        .unwrap();
        // The fractional optimum lower-bounds every *capacity-feasible*
        // integral routing; a cheaper rounded routing must be overloaded.
        if rounded.cost(&inst) + 1e-6 < fractional.cost(&inst) {
            assert!(
                rounded.congestion(&inst) > 1.0,
                "seed {seed}: rounded {} beats MMSFP {} while feasible",
                rounded.cost(&inst),
                fractional.cost(&inst)
            );
        }
        // Fractional routing always fits the capacities.
        assert!(fractional.congestion(&inst) <= 1.0 + 1e-6);
        assert!(fractional.serves_all(&inst));
        assert!(rounded.serves_all(&inst));
    }
}

#[test]
fn greedy_routing_serves_all_within_reasonable_cost() {
    let ctx = SolverContext::new();
    for seed in 0..3 {
        let inst = small_instance(seed);
        let placement = Placement::empty(&inst);
        let lp_cfg = Alternating {
            seed,
            ..Alternating::default()
        };
        let greedy_cfg = Alternating {
            routing: RoutingMethod::GreedySequential,
            seed,
            ..Alternating::default()
        };
        let lp_routing = lp_cfg
            .route_given_placement_with_context(&inst, &placement, &ctx)
            .unwrap();
        let greedy_routing = greedy_cfg
            .route_given_placement_with_context(&inst, &placement, &ctx)
            .unwrap();
        assert!(greedy_routing.serves_all(&inst));
        assert!(greedy_routing.is_integral());
        // Greedy is a heuristic; it should stay within a small factor of
        // the LP-based routing on these benign instances.
        assert!(
            greedy_routing.cost(&inst) <= 3.0 * lp_routing.cost(&inst) + 1e-6,
            "seed {seed}"
        );
    }
}
