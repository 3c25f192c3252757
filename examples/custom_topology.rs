//! Bring your own network: load a topology from a plain edge list (e.g.
//! converted from Rocketfuel / Topology Zoo data), optimize it, and
//! export a Graphviz rendering of the roles.
//!
//! Run with: `cargo run --release --example custom_topology`

use jcr::core::prelude::*;
use jcr::ctx::SolverContext;
use jcr::topo::Topology;

/// A small metro network in the loader's format:
/// `origin`/`edge` declarations plus `link u v cost_uv cost_vu [capacity]`.
const EDGE_LIST: &str = "
# metro-area network: node 0 is the origin gateway
origin 0
edge 4
edge 5
edge 6
link 0 1 120 140        # gateway uplink (origin costs in [100, 200])
link 1 2 8 7
link 1 3 12 11
link 2 4 5 6
link 2 5 9 8
link 3 5 4 4
link 3 6 10 12
link 4 5 6 6
link 5 6 7 9
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = Topology::from_edge_list(EDGE_LIST)?;
    println!(
        "loaded {} nodes / {} directed links; origin {}, edges {:?}",
        topo.graph.node_count(),
        topo.graph.edge_count(),
        topo.origin,
        topo.edge_nodes
    );

    // Export a Graphviz view (render with `dot -Tsvg`).
    let dot = topo.to_dot();
    println!("\n--- topology.dot ---\n{dot}--- end ---\n");

    // Optimize caching and routing on it.
    let inst = InstanceBuilder::new(topo)
        .items(8)
        .cache_capacity(2.0)
        .zipf_demand(1.0, 500.0, 3)
        .link_capacity_fraction(0.1)
        .build()?;
    let result = Alternating::new().solve_with_context(&inst, &SolverContext::new())?;
    println!(
        "alternating optimization: cost {:.1}, congestion {:.2} ({} iterations)",
        result.solution.cost(&inst),
        result.solution.congestion(&inst),
        result.iterations
    );
    for v in inst.cache_nodes() {
        let items: Vec<usize> = result.solution.placement.items_at(v).collect();
        println!("  cache {v}: {items:?}");
    }
    Ok(())
}
