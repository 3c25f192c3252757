//! Proposition 4.8: the alternating optimization's approximation ratio is
//! unbounded — verified on the paper's Fig. 9 gadget. The bad placement is
//! a Nash equilibrium (neither the placement step nor the routing step
//! improves it), while its cost exceeds the optimum by Θ(1/ε).

use jcr::core::instance::{Instance, Request};
use jcr::core::placement::Placement;
use jcr::core::placement_opt;
use jcr::core::prelude::*;
use jcr::core::rnr;
use jcr::ctx::SolverContext;
use jcr::graph::DiGraph;

/// Builds the Fig. 9 gadget: client `s` requests item 0 at rate λ and
/// item 1 at rate ε; caches of size 1 at `v1`, `v2`; `vs` (capacity 2 =
/// |C|) acts as the origin.
fn gadget(eps: f64) -> (Instance, [jcr::graph::NodeId; 4]) {
    let lambda = 1.0;
    let w = 1.0;
    let mut g = DiGraph::new();
    let vs = g.add_node();
    let v1 = g.add_node();
    let v2 = g.add_node();
    let s = g.add_node();
    let mut cost = Vec::new();
    let mut cap = Vec::new();
    for (u, v, c) in [(vs, v1, w), (vs, v2, w), (v1, s, eps), (v2, s, w)] {
        g.add_edge(u, v);
        cost.push(c);
        cap.push(lambda + eps); // every link fits all the demand
    }
    let mut cache_cap = vec![0.0; 4];
    cache_cap[v1.index()] = 1.0;
    cache_cap[v2.index()] = 1.0;
    let inst = Instance::new(
        g,
        cost,
        cap,
        cache_cap,
        vec![1.0, 1.0],
        vec![
            Request {
                item: 0,
                node: s,
                rate: lambda,
            },
            Request {
                item: 1,
                node: s,
                rate: eps,
            },
        ],
        Some(vs),
    )
    .unwrap();
    (inst, [vs, v1, v2, s])
}

#[test]
fn bad_equilibrium_costs_match_the_proof() {
    for eps in [0.1, 0.01] {
        let (inst, [_, v1, v2, _]) = gadget(eps);
        // Bad NE: item 0 at v2, item 1 at v1.
        let mut ne = Placement::empty(&inst);
        ne.set(v2, 0, true);
        ne.set(v1, 1, true);
        let ne_cost = rnr::route_to_nearest_replica(&inst, &ne)
            .unwrap()
            .cost(&inst);
        // λw + ε² from the proof of Proposition 4.8.
        assert!(
            (ne_cost - (1.0 + eps * eps)).abs() < 1e-9,
            "eps={eps}: {ne_cost}"
        );

        // Optimum: item 0 at v1, item 1 at v2 → ε(λ + w).
        let mut opt = Placement::empty(&inst);
        opt.set(v1, 0, true);
        opt.set(v2, 1, true);
        let opt_cost = rnr::route_to_nearest_replica(&inst, &opt)
            .unwrap()
            .cost(&inst);
        assert!((opt_cost - eps * 2.0).abs() < 1e-9, "eps={eps}: {opt_cost}");

        // The ratio diverges as ε → 0.
        assert!(ne_cost / opt_cost > 0.4 / eps);
    }
}

#[test]
fn bad_equilibrium_is_a_fixed_point_of_the_placement_step() {
    let ctx = SolverContext::new();
    let (inst, [_, v1, v2, _]) = gadget(0.01);
    let mut ne = Placement::empty(&inst);
    ne.set(v2, 0, true);
    ne.set(v1, 1, true);
    let ne_routing = rnr::route_to_nearest_replica(&inst, &ne).unwrap();
    // Under the NE routing (single-hop paths v2→s and v1→s), no placement
    // can save anything — the path sources are never in a truncation
    // prefix — so the placement step cannot improve the cost.
    let re_placed =
        placement_opt::optimize_placement_with_context(&inst, &ne_routing, false, &ctx).unwrap();
    let f = placement_opt::f_given_routing(&inst, &ne_routing, &re_placed);
    assert!(
        f.abs() < 1e-9,
        "no placement saves anything under the NE routing"
    );
    // And the cost of the routing is exactly the NE cost regardless of x.
    let cost = placement_opt::cost_given_routing(&inst, &ne_routing, &re_placed);
    assert!((cost - ne_routing.cost(&inst)).abs() < 1e-9);
}

#[test]
fn driver_with_origin_init_escapes_the_trap() {
    let ctx = SolverContext::new();
    // Our driver always starts from origin-routing, whose multi-hop paths
    // expose v1 to the placement step — so it finds the near-optimal
    // solution on this gadget even though adversarial initializations
    // stall (Proposition 4.8 concerns worst-case initialization).
    for eps in [0.1, 0.01] {
        let (inst, _) = gadget(eps);
        let result = Alternating::new().solve_with_context(&inst, &ctx).unwrap();
        let cost = result.solution.cost(&inst);
        let opt = eps * 2.0;
        assert!(
            cost <= opt * 1.5 + 1e-9,
            "eps={eps}: driver cost {cost} far from optimum {opt}"
        );
    }
}
