//! CDN-style replica selection (the paper's binary-cache-capacity case,
//! §4.2 / Fig. 6): a geographically placed full replica plus the origin,
//! with unsplittable (single-path) routing per request.
//!
//! Shows the bicriteria trade-off of Algorithm 2: larger K means finer
//! demand rounding and hence less congestion, at no cost increase —
//! K = 2 is the prior state of the art \[33\]; route-to-nearest-replica
//! ignores capacities entirely and congests badly.
//!
//! Run with: `cargo run --release --example cdn_unsplittable`

use jcr::core::alg2;
use jcr::core::prelude::*;
use jcr::ctx::SolverContext;
use jcr::topo::{Topology, TopologyKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = Topology::generate(TopologyKind::Tinet, 5)?;
    let inst = InstanceBuilder::new(topo)
        .items(40)
        .cache_capacity(40.0) // irrelevant: the replica set is fixed below
        .zipf_demand(0.7, 20_000.0, 2)
        .link_capacity_fraction(0.01)
        .build()?;

    // One edge node hosts a full catalog replica (plus the origin).
    let replica = inst.cache_nodes()[0];
    println!(
        "full replica at {replica}, origin at {}\n",
        inst.origin.unwrap()
    );

    println!(
        "{:<18}{:>14}{:>18}{:>14}",
        "algorithm", "routing cost", "vs splittable LB", "congestion"
    );
    for k in [1u32, 2, 8, 64, 1000] {
        let sol =
            alg2::solve_binary_caches_with_context(&inst, &[replica], k, &SolverContext::new())?;
        let name = if k == 2 {
            "Alg2 K=2 ([33])".to_string()
        } else {
            format!("Alg2 K={k}")
        };
        println!(
            "{:<18}{:>14.1}{:>17.3}x{:>14.2}",
            name,
            sol.solution.cost(&inst),
            sol.solution.cost(&inst) / sol.splittable_cost,
            sol.solution.congestion(&inst)
        );
    }
    let rnr = alg2::rnr_binary(&inst, &[replica])?;
    println!(
        "{:<18}{:>14.1}{:>18}{:>14.2}",
        "RNR [3]",
        rnr.cost(&inst),
        "-",
        rnr.congestion(&inst)
    );
    println!("\nTheorem 4.7: Alg2's cost never exceeds the splittable optimum, and its");
    println!("link overload shrinks as K grows — RNR is cheapest but ignores capacity.");
    Ok(())
}
