//! Quickstart: jointly optimize caching and routing on an ISP-like
//! topology and compare against serving everything from the origin.
//!
//! Run with: `cargo run --release --example quickstart`

use jcr::core::prelude::*;
use jcr::core::rnr;
use jcr::ctx::SolverContext;
use jcr::topo::{Topology, TopologyKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An Abovenet-like ISP topology: 23 nodes, 31 links, a degree-1
    // origin gateway, and 6 low-degree edge nodes hosting caches.
    let topo = Topology::generate(TopologyKind::Abovenet, 7)?;
    println!(
        "topology: {} nodes, {} directed links, origin {}, {} edge nodes",
        topo.graph.node_count(),
        topo.graph.edge_count(),
        topo.origin,
        topo.edge_nodes.len()
    );

    // A catalog of 20 equal-sized items, Zipf(0.8) demand, caches of 4
    // items per edge node, uncapacitated links (§4.1's special case).
    let inst = InstanceBuilder::new(topo)
        .items(20)
        .cache_capacity(4.0)
        .zipf_demand(0.8, 1_000.0, 42)
        .build()?;

    // Baseline: no caching, every request served by the origin.
    let origin_only =
        rnr::rnr_cost(&inst, &Placement::empty(&inst)).expect("origin reaches all requesters");

    // Algorithm 1: (1 − 1/e)-approximate joint caching + routing.
    let solution = Algorithm1::new().solve_with_context(&inst, &SolverContext::new())?;
    let cost = solution.cost(&inst);

    println!("origin-only routing cost : {origin_only:.1}");
    println!("Algorithm 1 routing cost : {cost:.1}");
    println!(
        "saving                   : {:.1}%",
        100.0 * (1.0 - cost / origin_only)
    );
    println!("\nplacement (edge node -> items):");
    for v in inst.cache_nodes() {
        let items: Vec<usize> = solution.placement.items_at(v).collect();
        println!("  {v} -> {items:?}");
    }
    assert!(solution.placement.is_feasible(&inst));
    assert!(solution.routing.serves_all(&inst));
    Ok(())
}
