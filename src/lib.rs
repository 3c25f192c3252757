//! Facade crate for the **jcr** stack: a Rust reproduction of
//! *Joint Caching and Routing in Cache Networks with Arbitrary Topology*
//! (ICDCS 2022).
//!
//! The stack jointly optimizes **content placement** (what each network
//! cache stores) and **routing** (which source and path serves each
//! request) to minimize total routing cost under cache and link capacity
//! constraints. This crate simply re-exports the member crates under short
//! module names; see each member for details:
//!
//! * [`ctx`] — solver context threaded through every solver: budgets
//!   (deadlines, per-phase iteration caps), instrumentation counters/timers,
//!   and the in-tree seeded PRNG.
//! * [`graph`] — directed-graph substrate (Dijkstra, Yen's k-shortest paths).
//! * [`lp`] — revised-simplex linear-programming solver with bounded
//!   variables and incremental columns (for column generation).
//! * [`flow`] — min-cost flow, flow decomposition, Skutella's unsplittable
//!   rounding, the paper's MSUFP Algorithm 2, multicommodity flow solvers.
//! * [`submodular`] — lazy greedy, matroid / p-independence constraints,
//!   pipage rounding.
//! * [`topo`] — ISP-like topology generation matching the paper's setups.
//! * [`trace`] — demand traces (Table-1 statistics), Gaussian-process
//!   demand prediction, Zipf workloads.
//! * [`core`] — the paper's algorithms (Algorithm 1, Algorithm 2,
//!   alternating optimization, heterogeneous-size extension) and all
//!   evaluated baselines.
//! * [`sim`] — request-level discrete-event simulation (Poisson arrivals,
//!   static vs reactive LRU/LFU policies) validating the fluid model.
//!
//! # Quickstart
//!
//! ```
//! use jcr::core::prelude::*;
//! use jcr::ctx::SolverContext;
//! use jcr::topo::{Topology, TopologyKind};
//!
//! // Build the paper's default edge-caching scenario on an Abovenet-like
//! // topology with a small synthetic catalog, then jointly optimize.
//! let topo = Topology::generate(TopologyKind::Abovenet, 7).expect("seeded generation succeeds");
//! let instance = InstanceBuilder::new(topo)
//!     .items(10)
//!     .cache_capacity(2.0)
//!     .zipf_demand(0.8, 1000.0, 11)
//!     .build()
//!     .expect("valid instance");
//! // Every solver takes a `SolverContext`: budgets, counters and the worker
//! // pool. `SolverContext::new()` is unlimited.
//! let solution = Algorithm1::new()
//!     .solve_with_context(&instance, &SolverContext::new())
//!     .expect("solvable");
//! assert!(solution.placement.is_feasible(&instance));
//! ```

pub use jcr_core as core;
pub use jcr_ctx as ctx;
pub use jcr_flow as flow;
pub use jcr_graph as graph;
pub use jcr_lp as lp;
pub use jcr_sim as sim;
pub use jcr_submodular as submodular;
pub use jcr_topo as topo;
pub use jcr_trace as trace;
