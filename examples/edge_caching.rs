//! Edge caching under tight link capacities (the paper's general case,
//! §4.3 / Fig. 7): alternating optimization of placement and routing
//! versus the shortest-path baselines.
//!
//! Run with: `cargo run --release --example edge_caching`

use jcr::core::prelude::*;
use jcr::ctx::SolverContext;
use jcr::topo::{Topology, TopologyKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Tight links: κ = 2 % of the total request rate, with the paper's
    // origin-fallback capacity augmentation keeping the instance feasible.
    let topo = Topology::generate(TopologyKind::Abovenet, 3)?;
    let inst = InstanceBuilder::new(topo)
        .items(30)
        .cache_capacity(6.0)
        .zipf_demand(0.9, 5_000.0, 11)
        .link_capacity_fraction(0.02)
        .build()?;

    println!(
        "{} requests, {} items, IC-IR (integral caching & routing)\n",
        inst.requests.len(),
        inst.num_items()
    );

    // Our alternating optimization (§4.3.3).
    let result = Alternating::new().solve_with_context(&inst, &SolverContext::new())?;
    println!("alternating optimization:");
    println!("  converged after {} iterations", result.iterations);
    for (t, (congestion, cost)) in result.history.iter().enumerate() {
        println!("  iter {t}: cost {cost:.1}, congestion {congestion:.3}");
    }
    let alt = &result.solution;

    // Baselines of [3] and [38].
    let sp = ShortestPathPlacement.solve_with_context(&inst, &SolverContext::new())?;
    let sp_rnr = IoannidisYeh::sp_rnr().solve_with_context(&inst, &SolverContext::new())?;
    let ksp_rnr = IoannidisYeh::ksp_rnr(10).solve_with_context(&inst, &SolverContext::new())?;

    println!(
        "\n{:<22}{:>14}{:>14}",
        "algorithm", "routing cost", "congestion"
    );
    for (name, sol) in [
        ("alternating (ours)", alt),
        ("SP [38]", &sp),
        ("SP + RNR [3]", &sp_rnr),
        ("k-SP + RNR [3]", &ksp_rnr),
    ] {
        println!(
            "{:<22}{:>14.1}{:>14.2}",
            name,
            sol.cost(&inst),
            sol.congestion(&inst)
        );
    }
    println!("\ncongestion > 1 means some link carries more than its capacity;");
    println!("the baselines chase cost along origin-anchored paths and overload them.");
    Ok(())
}
