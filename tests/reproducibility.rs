//! Reproducibility guarantees: every stochastic component is seeded, so
//! identical seeds must give bit-identical experiment inputs and
//! identical solver outputs.

use jcr::core::prelude::*;
use jcr::core::serial;
use jcr::ctx::SolverContext;
use jcr_bench::{build_instance, Scenario};

fn scenario() -> Scenario {
    let mut sc = Scenario::chunk_default();
    sc.n_videos = 5;
    sc.hours = 1;
    sc.gpr_window = 48;
    sc
}

#[test]
fn scenario_instances_are_bit_identical_per_seed() {
    let sc = scenario();
    let n_edges = sc.topology().edge_nodes.len();
    let make = || {
        let demand = sc.demand(n_edges);
        let rates = demand.true_rates(0, n_edges);
        serial::to_text(&build_instance(&sc, &rates))
    };
    assert_eq!(make(), make(), "same seed must give identical instances");

    let mut other = sc.clone();
    other.share_seed ^= 1;
    let demand = other.demand(n_edges);
    let rates = demand.true_rates(0, n_edges);
    let different = serial::to_text(&build_instance(&other, &rates));
    assert_ne!(make(), different, "different share seed must change demand");
}

#[test]
fn solvers_are_deterministic_given_seeds() {
    let ctx = SolverContext::new();
    let sc = scenario();
    let n_edges = sc.topology().edge_nodes.len();
    let demand = sc.demand(n_edges);
    let rates = demand.true_rates(0, n_edges);
    let inst = build_instance(&sc, &rates);

    let run = || {
        Alternating {
            seed: 5,
            ..Alternating::default()
        }
        .solve_with_context(&inst, &ctx)
        .unwrap()
        .solution
        .cost(&inst)
    };
    assert_eq!(run().to_bits(), run().to_bits());

    let alg1 = || {
        Algorithm1::new()
            .solve_with_context(&inst, &ctx)
            .unwrap()
            .cost(&inst)
    };
    assert_eq!(alg1().to_bits(), alg1().to_bits());
}

#[test]
fn gpr_predictions_are_deterministic() {
    let sc = scenario();
    let n_edges = sc.topology().edge_nodes.len();
    let a = sc.demand(n_edges).predicted_rates(0, n_edges);
    let b = sc.demand(n_edges).predicted_rates(0, n_edges);
    assert_eq!(a, b);
}
