//! Hourly re-optimization on *predicted* demand (the paper's online
//! protocol, §6): a Gaussian-process regressor forecasts the next hour's
//! request rates from a synthetic YouTube-like trace; caching/routing
//! decisions made on the forecast are then evaluated against the true
//! demand.
//!
//! Run with: `cargo run --release --example demand_prediction`

use jcr::core::prelude::*;
use jcr::ctx::SolverContext;
use jcr::topo::{Topology, TopologyKind};
use jcr::trace::gpr;
use jcr::trace::synth::{random_edge_shares, ViewTrace};
use jcr::trace::videos::top_videos;

use jcr_ctx::rng::SeedableRng;
use jcr_ctx::rng::StdRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let vids = top_videos(6);
    let hours = 6;
    let trace = ViewTrace::generate(vids, 9);
    let topo = Topology::generate(TopologyKind::Abovenet, 9)?;
    let n_edges = topo.edge_nodes.len();
    let mut rng = StdRng::seed_from_u64(17);
    let shares = random_edge_shares(vids.len(), n_edges, &mut rng);

    // Forecast each video's views for every hour from its last 168 hours
    // of history, refitting every hour.
    let series: Vec<&[f64]> = (0..vids.len())
        .map(|vi| trace.history_until(vi, hours))
        .collect();
    let forecasts = gpr::rolling_forecast(&series, hours, 1, 168)?;

    println!("hour  decided-on    true cost  predicted-decision cost  regret");
    for h in 0..hours {
        let pred: Vec<f64> = forecasts.iter().map(|f| f[h]).collect();
        let truth: Vec<f64> = (0..vids.len()).map(|vi| trace.eval_views(vi, h)).collect();
        // Demand matrices (floored so both instances share a request set).
        let expand = |views: &[f64]| -> Vec<Vec<f64>> {
            views
                .iter()
                .enumerate()
                .map(|(vi, &v)| {
                    (0..n_edges)
                        .map(|k| (v * shares[vi][k]).max(1e-6))
                        .collect()
                })
                .collect()
        };
        let build = |rates: Vec<Vec<f64>>| {
            InstanceBuilder::new(topo.clone())
                .items(vids.len())
                .cache_capacity(2.0)
                .demand_matrix(rates)
                .link_capacity_fraction(0.02)
                .build()
        };
        let inst_true = build(expand(&truth))?;
        let inst_pred = build(expand(&pred))?;
        let true_flat: Vec<f64> = expand(&truth).into_iter().flatten().collect();

        // Oracle decision (knows the truth) vs predicted decision.
        let oracle = Alternating::new()
            .solve_with_context(&inst_true, &SolverContext::new())?
            .solution;
        let predicted = Alternating::new()
            .solve_with_context(&inst_pred, &SolverContext::new())?
            .solution;
        let oracle_cost = oracle.cost(&inst_true);
        let (pred_cost, _) = predicted.evaluate_under(&inst_pred, &true_flat);
        println!(
            "{h:>4}  {:>10}  {:>11.0}  {:>23.0}  {:>5.1}%",
            "truth/GPR",
            oracle_cost,
            pred_cost,
            100.0 * (pred_cost / oracle_cost - 1.0)
        );
    }
    println!("\nregret = extra cost from optimizing against the forecast instead of the truth");
    Ok(())
}
