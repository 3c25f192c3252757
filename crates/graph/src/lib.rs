//! Directed-graph substrate for the cache-network stack.
//!
//! This crate provides the minimal graph machinery the joint caching and
//! routing algorithms build on: a compact directed multigraph
//! ([`DiGraph`]), single-source shortest paths
//! ([`shortest::dijkstra_filtered`], [`shortest::bellman_ford`], both
//! returning a [`ShortestPathTree`]), all-pairs least costs (the
//! [`DistanceOracle`], one [`ShortestPathTree`] row per source), Yen's
//! k-shortest simple paths
//! ([`shortest::k_shortest_paths_with_context`]), and path/connectivity
//! utilities.
//!
//! Everything is indexed by the strongly-typed handles [`NodeId`] and
//! [`EdgeId`]; per-edge attributes (costs, capacities, flows) are stored by
//! callers in plain slices indexed by `EdgeId::index()`, which keeps the
//! graph reusable across the many attribute sets the optimization layers
//! juggle (costs, capacities, residual flows, …).
//!
//! # Examples
//!
//! ```
//! use jcr_graph::{DiGraph, shortest};
//!
//! let mut g = DiGraph::new();
//! let a = g.add_node();
//! let b = g.add_node();
//! let c = g.add_node();
//! let ab = g.add_edge(a, b);
//! let bc = g.add_edge(b, c);
//! let ac = g.add_edge(a, c);
//! let mut cost = vec![0.0; g.edge_count()];
//! cost[ab.index()] = 1.0;
//! cost[bc.index()] = 1.0;
//! cost[ac.index()] = 5.0;
//!
//! let tree = shortest::dijkstra_filtered(&g, a, &cost, |_| true);
//! assert_eq!(tree.dist(c), 2.0);
//! assert_eq!(tree.path(&g, c).unwrap().edges(), [ab, bc]);
//! ```

pub mod arena;
pub mod graph;
pub mod oracle;
pub mod path;
pub mod shortest;
pub mod structure;

pub use arena::{PathArena, PathId};
pub use graph::{DiGraph, EdgeId, NodeId};
pub use oracle::DistanceOracle;
pub use path::Path;
pub use shortest::ShortestPathTree;
