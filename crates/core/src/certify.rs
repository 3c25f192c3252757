//! Independent certification of joint caching/routing solutions.
//!
//! [`certify_solution`] recomputes every constraint of optimization (1)
//! with compensated (Neumaier–Kahan) arithmetic — never the solver's own
//! running sums — and returns a [`Certificate`] whose checks either pass
//! their explicit tolerances or name the violated constraint. Unlike
//! [`crate::validate::validate_solution`], which enumerates violations
//! for repair, the certificate is the machine-checkable artifact solvers
//! attach to their results: a solver must refuse to report success on a
//! certificate that does not verify.

use jcr_ctx::cert::{Certificate, Kahan};

use crate::instance::Instance;
use crate::routing::Solution;

/// Independently verifies `solution` against `inst`.
///
/// Checks, in order: response shape, placement integrality (witnessed by
/// the bitset representation), compensated cache occupancy vs capacity,
/// path validity (chain structure, requester endpoint, storing source),
/// per-request service residuals, flow non-negativity, link capacity
/// residuals, and a finite compensated cost recomputation.
///
/// `enforce_link_caps` controls whether the link-capacity check can fail
/// the certificate: solvers with a capacity guarantee (MMSFP-based
/// routing, repaired solutions) pass `true`; uncapacitated or bicriteria
/// solvers (Algorithm 1's RNR routing, randomized rounding) pass `false`,
/// which still *records* the capacity residual but accepts any value.
pub fn certify_solution(
    inst: &Instance,
    solution: &Solution,
    enforce_link_caps: bool,
) -> Certificate {
    let mut cert = Certificate::new("jcr");
    if solution.routing.per_request.len() != inst.requests.len() {
        cert.push("shape", f64::INFINITY, 0.0);
        return cert;
    }

    // Integrality witness: `Placement` is a bitset, so x ∈ {0,1} holds by
    // representation. The zero-residual check documents the witness in
    // the certificate rather than leaving it implicit.
    cert.push("placement-integral", 0.0, 0.0);

    // Cache occupancy (1f)/(16): compensated size sum per node, worst
    // relative overflow.
    let mut worst_occ = 0.0f64;
    for v in inst.graph.nodes() {
        let capacity = inst.cache_cap[v.index()];
        let mut occ = Kahan::new();
        for i in solution.placement.items_at(v) {
            occ.add(inst.item_size[i]);
        }
        worst_occ = worst_occ.max((occ.total() - capacity) / (1.0 + capacity));
    }
    cert.push("cache-capacity", worst_occ, 1e-7);

    // Path structure (chains ending at the requester) and source storage
    // (1e), plus flow finiteness/non-negativity and per-request service
    // (1d).
    let mut paths_ok = true;
    let mut neg = 0.0f64;
    let mut worst_service = 0.0f64;
    for (req, flows) in inst.requests.iter().zip(&solution.routing.per_request) {
        let mut served = Kahan::new();
        for pf in flows {
            served.add(pf.amount);
            if !pf.amount.is_finite() {
                neg = f64::INFINITY;
            }
            neg = neg.max(-pf.amount);
            if !pf.path.is_valid(&inst.graph)
                || (!pf.path.is_empty() && pf.path.target(&inst.graph) != Some(req.node))
            {
                paths_ok = false;
                continue;
            }
            let source = pf.path.source(&inst.graph).unwrap_or(req.node);
            if !solution.placement.has_with_origin(inst, source, req.item) {
                paths_ok = false;
            }
        }
        let r = (served.total() - req.rate).abs();
        worst_service = worst_service.max(r / (1.0 + req.rate));
    }
    cert.push(
        "paths-valid",
        if paths_ok { 0.0 } else { f64::INFINITY },
        0.0,
    );
    cert.push("flow-nonneg", neg, 1e-9);
    cert.push("service", worst_service, 2e-6);

    // Link capacity (1b): compensated loads, worst relative overload. Can
    // only fail when the caller claims a capacity guarantee.
    let mut loads: Vec<Kahan> = vec![Kahan::new(); inst.graph.edge_count()];
    for pf in solution.routing.per_request.iter().flatten() {
        for e in pf.path.edges() {
            loads[e.index()].add(pf.amount);
        }
    }
    let mut worst_link = 0.0f64;
    for e in inst.graph.edges() {
        let c = inst.link_cap[e.index()];
        if c.is_finite() {
            worst_link = worst_link.max((loads[e.index()].total() - c) / (1.0 + c));
        }
    }
    cert.push(
        "link-capacity",
        worst_link,
        if enforce_link_caps {
            1e-5
        } else {
            f64::INFINITY
        },
    );

    // Objective (1a): the compensated cost must be finite.
    let mut cost = Kahan::new();
    for pf in solution.routing.per_request.iter().flatten() {
        cost.add_prod(pf.amount, pf.path.cost(&inst.link_cost));
    }
    cert.push(
        "cost-finite",
        if cost.total().is_finite() {
            0.0
        } else {
            f64::INFINITY
        },
        0.0,
    );
    cert
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg1::Algorithm1;
    use crate::alternating::Alternating;
    use crate::instance::InstanceBuilder;
    use crate::placement::Placement;
    use jcr_ctx::SolverContext;
    use jcr_topo::{Topology, TopologyKind};

    fn inst() -> Instance {
        InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 4).unwrap())
            .items(6)
            .cache_capacity(2.0)
            .zipf_demand(0.8, 150.0, 4)
            .link_capacity_fraction(0.5)
            .build()
            .unwrap()
    }

    #[test]
    fn alg1_solution_certifies() {
        let ctx = SolverContext::new();
        let inst = inst();
        let sol = Algorithm1::new().solve_with_context(&inst, &ctx).unwrap();
        let cert = certify_solution(&inst, &sol, false);
        assert!(cert.verified(), "{}", cert.failure_summary());
    }

    #[test]
    fn alternating_solution_certifies() {
        let ctx = SolverContext::new();
        let inst = inst();
        let alt = Alternating::new().solve_with_context(&inst, &ctx).unwrap();
        let cert = certify_solution(&inst, &alt.solution, false);
        assert!(cert.verified(), "{}", cert.failure_summary());
    }

    #[test]
    fn tampered_service_fails() {
        let ctx = SolverContext::new();
        let inst = inst();
        let mut sol = Algorithm1::new().solve_with_context(&inst, &ctx).unwrap();
        sol.routing.per_request[0][0].amount *= 0.5;
        let cert = certify_solution(&inst, &sol, false);
        assert!(!cert.verified());
        assert!(cert.failures().any(|c| c.name == "service"));
    }

    #[test]
    fn tampered_placement_fails_capacity() {
        let ctx = SolverContext::new();
        let inst = inst();
        let mut sol = Algorithm1::new().solve_with_context(&inst, &ctx).unwrap();
        let v = inst.cache_nodes()[0];
        for i in 0..inst.num_items() {
            sol.placement.set(v, i, true); // 6 items in a 2-item cache
        }
        let cert = certify_solution(&inst, &sol, false);
        assert!(cert
            .failures()
            .any(|c| c.name == "cache-capacity" || c.name == "paths-valid"));
    }

    #[test]
    fn invalid_source_fails_paths() {
        let ctx = SolverContext::new();
        let inst = inst();
        let sol = Algorithm1::new().solve_with_context(&inst, &ctx).unwrap();
        // Strip the placement: cached sources become invalid while the
        // routing still points at them.
        let stripped = Solution {
            placement: Placement::empty(&inst),
            routing: sol.routing.clone(),
        };
        let routed_from_cache = sol
            .routing
            .per_request
            .iter()
            .flatten()
            .any(|pf| pf.path.source(&inst.graph) != inst.origin);
        if routed_from_cache {
            let cert = certify_solution(&inst, &stripped, false);
            assert!(!cert.verified());
        }
    }

    #[test]
    fn shape_mismatch_fails() {
        let inst = inst();
        let sol = Solution {
            placement: Placement::empty(&inst),
            routing: crate::routing::Routing {
                per_request: Vec::new(),
            },
        };
        if !inst.requests.is_empty() {
            let cert = certify_solution(&inst, &sol, false);
            assert!(!cert.verified());
            assert!(cert.failures().any(|c| c.name == "shape"));
        }
    }

    #[test]
    fn link_cap_enforcement_is_opt_in() {
        let ctx = SolverContext::new();
        let inst = inst();
        let mut sol = Algorithm1::new().solve_with_context(&inst, &ctx).unwrap();
        // Inflate one flow far past every link capacity.
        if let Some(pf) = sol
            .routing
            .per_request
            .iter_mut()
            .flatten()
            .find(|pf| !pf.path.is_empty())
        {
            pf.amount *= 1e6;
        }
        let lax = certify_solution(&inst, &sol, false);
        assert!(!lax.failures().any(|c| c.name == "link-capacity"));
        let strict = certify_solution(&inst, &sol, true);
        assert!(strict.failures().any(|c| c.name == "link-capacity"));
    }
}
