//! The paper's online protocol (§6): decisions made on GPR-predicted
//! demand, evaluated against the true demand — the advantage over the
//! baselines must survive prediction errors (observation (ii) of §1.2).

use jcr::core::prelude::*;
use jcr::ctx::SolverContext;
use jcr_bench::{build_instance, flatten_rates, Scenario};

#[test]
fn predicted_decisions_stay_close_to_true_decisions() {
    let ctx = SolverContext::new();
    let mut sc = Scenario::chunk_default();
    sc.n_videos = 5;
    sc.hours = 2;
    sc.gpr_window = 72;
    let n_edges = sc.topology().edge_nodes.len();
    let demand = sc.demand(n_edges);

    for h in 0..sc.hours {
        let true_rates = demand.true_rates(h, n_edges);
        let pred_rates = demand.predicted_rates(h, n_edges);
        let inst_true = build_instance(&sc, &true_rates);
        let inst_pred = build_instance(&sc, &pred_rates);
        let flat_true: Vec<f64> = flatten_rates(&true_rates)
            .into_iter()
            .map(|r| r.max(1e-6))
            .collect();

        let oracle = Alternating::new()
            .solve_with_context(&inst_true, &ctx)
            .unwrap()
            .solution;
        let predicted = Alternating::new()
            .solve_with_context(&inst_pred, &ctx)
            .unwrap()
            .solution;
        let oracle_cost = oracle.cost(&inst_true);
        let (pred_cost, pred_cong) = predicted.evaluate_under(&inst_pred, &flat_true);

        // The forecast is good (diurnal signal), so the regret is bounded.
        assert!(
            pred_cost <= 2.0 * oracle_cost + 1e-6,
            "hour {h}: predicted-decision cost {pred_cost} vs oracle {oracle_cost}"
        );
        assert!(
            pred_cong < 5.0,
            "hour {h}: congestion exploded: {pred_cong}"
        );
    }
}

#[test]
fn advantage_over_baselines_survives_prediction() {
    let ctx = SolverContext::new();
    let mut sc = Scenario::chunk_default();
    sc.n_videos = 5;
    sc.hours = 1;
    sc.gpr_window = 72;
    let n_edges = sc.topology().edge_nodes.len();
    let demand = sc.demand(n_edges);
    let true_rates = demand.true_rates(0, n_edges);
    let pred_rates = demand.predicted_rates(0, n_edges);
    let inst_pred = build_instance(&sc, &pred_rates);
    let flat_true: Vec<f64> = flatten_rates(&true_rates)
        .into_iter()
        .map(|r| r.max(1e-6))
        .collect();

    let ours = Alternating::new()
        .solve_with_context(&inst_pred, &ctx)
        .unwrap()
        .solution;
    let sp = ShortestPathPlacement
        .solve_with_context(&inst_pred, &ctx)
        .unwrap();
    let (_, our_congestion) = ours.evaluate_under(&inst_pred, &flat_true);
    let (_, sp_congestion) = sp.evaluate_under(&inst_pred, &flat_true);
    // Observation (i)/(ii) of §1.2: lower congestion than the baselines,
    // with or without perfect knowledge.
    assert!(
        our_congestion < sp_congestion,
        "ours {our_congestion} vs SP {sp_congestion}"
    );
}

#[test]
fn perturbed_demand_keeps_solutions_valid() {
    use jcr_ctx::rng::SeedableRng;
    let mut sc = Scenario::chunk_default();
    sc.n_videos = 4;
    sc.hours = 1;
    sc.gpr_window = 48;
    let n_edges = sc.topology().edge_nodes.len();
    let demand = sc.demand(n_edges);
    let true_rates = demand.true_rates(0, n_edges);
    let mut rng = jcr_ctx::rng::StdRng::seed_from_u64(3);
    let sigma = jcr_bench::mean(&flatten_rates(&true_rates));
    let noisy: Vec<Vec<f64>> = true_rates
        .iter()
        .map(|row| jcr::trace::synth::perturb_demand(row, sigma, &mut rng))
        .collect();
    let inst = build_instance(&sc, &noisy);
    let sol = Alternating::new()
        .solve_with_context(&inst, &SolverContext::new())
        .unwrap()
        .solution;
    let flat_true: Vec<f64> = flatten_rates(&true_rates)
        .into_iter()
        .map(|r| r.max(1e-6))
        .collect();
    let (cost, congestion) = sol.evaluate_under(&inst, &flat_true);
    assert!(cost.is_finite() && cost > 0.0);
    assert!(congestion.is_finite());
}
