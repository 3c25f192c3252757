//! Network-flow substrate for the joint caching and routing stack.
//!
//! The paper's routing subproblems are flow problems on the (auxiliary)
//! cache network, and this crate provides all of them from scratch:
//!
//! * [`maxflow`] — Dinic's max-flow, used for feasibility checks and
//!   capacity planning.
//! * [`mincost`] — real-valued min-cost flow via successive shortest paths
//!   with node potentials; this computes the optimal *splittable* flow that
//!   seeds the unsplittable roundings (line 1 of the paper's Algorithm 2).
//! * [`cyclecancel`] — an independent negative-cycle-canceling min-cost
//!   flow used as a differential-testing oracle for `mincost`.
//! * [`feasibility`] — demand-routability diagnostics with min-cut
//!   certificates and uniform-capacity planning.
//! * [`decompose`] — conversion of link-level flows into cycle-free
//!   path-level flows (the Edmonds–Karp-style decomposition of \[36\], at
//!   most `|E|` paths per commodity).
//! * [`unsplittable`] — Skutella's rounding of a splittable flow into an
//!   unsplittable one when demands are powers of two times a base demand
//!   ([33, Algorithm 2]; the paper's Lemma 4.6).
//! * [`msufp`] — the paper's **Algorithm 2**: bicriteria
//!   `(1+ε, 1)`-approximation for the minimum-cost single-source
//!   unsplittable flow problem via demand rounding (11) and K-class
//!   partitioning (12).
//! * [`multicommodity`] — minimum-cost multicommodity *splittable* flow
//!   (MMSFP) by column generation over `jcr-lp`, plus the unsplittable
//!   (MMUFP) heuristics the paper evaluates (randomized rounding of the LP
//!   relaxation, and greedy sequential routing).
//!
//! # Examples
//!
//! ```
//! use jcr_ctx::SolverContext;
//! use jcr_flow::mincost::single_source_min_cost_flow_with_context;
//! use jcr_graph::DiGraph;
//!
//! // Route 3 units s -> t, preferring the cheap 2-capacity path.
//! let mut g = DiGraph::new();
//! let s = g.add_node();
//! let a = g.add_node();
//! let t = g.add_node();
//! g.add_edge(s, a); // cost 1, cap 2
//! g.add_edge(a, t); // cost 1, cap 2
//! g.add_edge(s, t); // cost 5, cap 10
//! let flow = single_source_min_cost_flow_with_context(
//!     &g,
//!     &[1.0, 1.0, 5.0],
//!     &[2.0, 2.0, 10.0],
//!     s,
//!     &[(t, 3.0)],
//!     &SolverContext::new(),
//! )?;
//! assert!((flow.cost - 9.0).abs() < 1e-9); // 2 cheap + 1 direct
//! # Ok::<(), jcr_flow::FlowError>(())
//! ```

// Numerical kernels index several parallel arrays in lock-step; iterator
// chains would obscure the linear-algebra structure.
#![allow(clippy::needless_range_loop)]

pub mod cyclecancel;
pub mod decompose;
pub mod feasibility;
pub mod maxflow;
pub mod mincost;
pub mod msufp;
pub mod multicommodity;
pub mod unsplittable;

use std::fmt;

use jcr_graph::Path;

/// Numerical tolerance used throughout the flow algorithms.
pub const FLOW_EPS: f64 = 1e-9;

/// A path carrying a flow amount.
#[derive(Clone, Debug, PartialEq)]
pub struct PathFlow {
    /// The routed path.
    pub path: Path,
    /// Amount of flow (demand units) carried on the path.
    pub amount: f64,
}

/// Errors shared by the flow solvers.
#[derive(Clone, Debug, PartialEq)]
pub enum FlowError {
    /// The demands cannot be satisfied within the link capacities.
    Infeasible,
    /// The solver lost numerical precision or exceeded its iteration budget.
    Numerical(String),
    /// A numerical guardrail tripped: the underlying LP detected basis
    /// drift, or the independent flow certificate verifier rejected the
    /// solution. The payload names the failing residual checks. Callers
    /// should degrade (retry, fall back, keep an incumbent) rather than
    /// trust anything computed so far.
    NumericalBreakdown(String),
    /// A [`jcr_ctx::SolverContext`] budget (deadline or phase iteration
    /// cap) tripped before the solver finished.
    Budget(jcr_ctx::BudgetExceeded),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Infeasible => write!(f, "flow demands are infeasible"),
            FlowError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            FlowError::NumericalBreakdown(msg) => write!(f, "numerical breakdown: {msg}"),
            FlowError::Budget(b) => write!(f, "{b}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<jcr_ctx::BudgetExceeded> for FlowError {
    fn from(b: jcr_ctx::BudgetExceeded) -> Self {
        FlowError::Budget(b)
    }
}

impl From<jcr_lp::LpError> for FlowError {
    fn from(e: jcr_lp::LpError) -> Self {
        match e {
            jcr_lp::LpError::Infeasible => FlowError::Infeasible,
            jcr_lp::LpError::Unbounded => FlowError::Numerical("unexpected unbounded LP".into()),
            jcr_lp::LpError::Numerical(m) => FlowError::Numerical(m),
            jcr_lp::LpError::NumericalBreakdown(m) => FlowError::NumericalBreakdown(m),
            jcr_lp::LpError::Budget(b) => FlowError::Budget(b),
        }
    }
}
