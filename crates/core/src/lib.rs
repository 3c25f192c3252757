//! The paper's contribution: joint caching and routing in cache networks
//! with arbitrary topology (ICDCS 2022).
//!
//! Given a directed network with per-link routing costs and capacities, a
//! content catalog, per-node cache capacities, and request rates
//! `λ_{(i,s)}`, the stack jointly decides **content placement** `x`
//! (which items each cache stores) and **routing** `(r, f)` (which source
//! and path serves each request) to minimize total routing cost — the
//! optimization (1) of the paper. Modules:
//!
//! * [`instance`] — the problem model and a builder for the paper's
//!   edge-caching scenario.
//! * [`placement`] / [`routing`] — solution representations with
//!   feasibility checks, cost, congestion, and cache-occupancy metrics.
//! * [`rnr`] — route-to-nearest-replica, the optimal routing under
//!   unlimited link capacities.
//! * [`alg1`] — **Algorithm 1**: `(1−1/e)`-approximate integral caching
//!   under unlimited link capacities via an auxiliary LP and pipage
//!   rounding (§4.1), in truly polynomial time.
//! * [`alg2`] — the binary-cache-capacity case reduced to MSUFP on an
//!   auxiliary graph (Lemma 4.5) and solved by the paper's Algorithm 2
//!   (§4.2).
//! * [`placement_opt`] — `(1−1/e)`-approximate content placement under a
//!   *given* (possibly fractional) routing (§4.3.1).
//! * [`hetero`] — greedy placement for heterogeneous item sizes under
//!   *p*-independence constraints (§5, Theorem 5.2).
//! * [`alternating`] — the general-case alternating optimization of
//!   caching and routing (§4.3.3).
//! * [`baselines`] — the evaluated state-of-the-art baselines: the
//!   candidate-path solution of Ioannidis & Yeh \[3\] (`k` shortest paths,
//!   with or without RNR re-routing) and the shortest-path placement of
//!   \[38\].
//! * [`fcfr`] — the exact LP for fractional caching + fractional routing
//!   (the polynomial-time case of Fig. 1).
//! * [`online`] / [`repair`] — the hourly re-optimization protocol (§6)
//!   with a fault-tolerant anytime degradation ladder and solution
//!   repair for carried decisions.

pub mod alg1;
pub mod alg2;
pub mod alternating;
pub mod auxiliary;
pub mod baselines;
pub mod certify;
pub mod error;
pub mod exact;
pub mod fcfr;
pub mod hetero;
pub mod instance;
pub mod online;
pub mod placement;
pub mod placement_opt;
pub mod repair;
pub mod report;
pub mod rnr;
pub mod routing;
pub mod serial;
pub mod state;
pub mod validate;

/// Convenient re-exports of the main entry points.
pub mod prelude {
    pub use crate::alg1::Algorithm1;
    pub use crate::alg2::{solve_binary_caches_with_context, BinaryCacheSolution};
    pub use crate::alternating::{
        Alternating, AlternatingSolution, PlacementMethod, RoutingMethod, Warm,
    };
    pub use crate::baselines::{CandidateRouting, IoannidisYeh, ShortestPathPlacement};
    pub use crate::certify::certify_solution;
    pub use crate::error::JcrError;
    pub use crate::instance::{Instance, InstanceBuilder, Request};
    pub use crate::online::{
        AnytimeConfig, ComponentStatus, HourOutcome, OnlineSimulator, RestoreReport, Rung,
    };
    pub use crate::placement::Placement;
    pub use crate::repair::repair_solution_checked;
    pub use crate::repair::{repair_solution, RepairStats};
    pub use crate::routing::{Routing, Solution};
    pub use crate::state::{SolverState, StateError};
}
