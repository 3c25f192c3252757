//! Validate the fluid-model optimization against request-level reality:
//! replay Poisson arrivals through the optimized solution and through
//! reactive LRU caching, then compare empirical loads with the model's
//! predictions.
//!
//! Run with: `cargo run --release --example packet_simulation`

use jcr::core::prelude::*;
use jcr::core::report;
use jcr::ctx::SolverContext;
use jcr::sim::policy::{ReactivePolicy, Replacement, StaticPolicy};
use jcr::sim::Simulator;
use jcr::topo::{Topology, TopologyKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = Topology::generate(TopologyKind::Abovenet, 5)?;
    let inst = InstanceBuilder::new(topo)
        .items(24)
        .cache_capacity(5.0)
        .zipf_demand(0.9, 40_000.0, 11)
        .link_capacity_fraction(0.015)
        .build()?;

    // Optimize once (the fluid model)...
    let solution = Alternating::new()
        .solve_with_context(&inst, &SolverContext::new())?
        .solution;
    println!("{}", report::solution_report(&inst, &solution));

    // ...then replay three hours of Poisson arrivals against it.
    let simulator = Simulator {
        horizon: 3.0,
        seed: 2,
        ..Simulator::default()
    };
    let optimized = simulator.run(&inst, &mut StaticPolicy::new(&solution));
    let lru = simulator.run(&inst, &mut ReactivePolicy::new(&inst, Replacement::Lru));
    let lfu = simulator.run(&inst, &mut ReactivePolicy::new(&inst, Replacement::Lfu));

    println!("fluid-model cost/hour : {:.1}", solution.cost(&inst));
    println!(
        "{:<22}{:>14}{:>12}{:>10}{:>12}",
        "policy", "cost/hour", "congestion", "hit rate", "#requests"
    );
    for (name, r) in [
        ("optimized (static)", &optimized),
        ("reactive LRU", &lru),
        ("reactive LFU", &lfu),
    ] {
        println!(
            "{:<22}{:>14.1}{:>12.2}{:>10.3}{:>12}",
            name,
            r.cost_rate(),
            r.congestion(&inst),
            r.local_hit_ratio,
            r.requests_served
        );
    }
    println!("\nthe optimized policy's empirical cost matches the fluid model, within");
    println!("Poisson noise; reactive caching trades planned capacity use for churn.");
    Ok(())
}
