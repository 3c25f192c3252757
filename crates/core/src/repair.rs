//! Solution repair: make a carried decision survive topology and demand
//! changes.
//!
//! The online loop's last degradation rung (see [`crate::online`]) keeps
//! serving from the previous hour's solution when every re-solve attempt
//! failed. The carried solution, however, was optimized for a different
//! instance — links may have failed, capacities shrunk, caches changed.
//! [`repair_solution`] turns it into a feasible solution for the *current*
//! instance by a violation-driven loop:
//!
//! 1. evict overflowing cache items ([`Placement::repair`], least locally
//!    demanded first);
//! 2. drop path flows that are malformed, start at a non-storing source,
//!    or traverse a failed/overloaded link (rip-up, smallest request
//!    first);
//! 3. greedily re-route the underserved requests, heaviest first, on the
//!    cheapest path with enough residual capacity (falling back to any
//!    alive path when nothing fits).
//!
//! The loop re-validates with [`validate_solution`] after each pass and
//! stops when clean (or after a bounded number of passes for genuinely
//! unservable instances — the caller re-validates before serving).

use std::collections::BTreeSet;

use jcr_flow::PathFlow;
use jcr_graph::{shortest, EdgeId, NodeId, Path};

use crate::error::JcrError;
use crate::instance::Instance;
use crate::placement::Placement;
use crate::routing::{Routing, Solution};
use crate::validate::{validate_solution, Violation};

/// Work performed by [`repair_solution`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// (node, item) pairs evicted from overflowing caches.
    pub evicted: usize,
    /// Path flows dropped (malformed, invalid source, or ripped up from
    /// an overloaded link).
    pub dropped_flows: usize,
    /// Requests re-routed onto a fresh path.
    pub rerouted: usize,
    /// Violation-fixing passes performed (0 = already feasible).
    pub passes: usize,
}

impl RepairStats {
    /// Whether the repair changed anything at all.
    pub fn changed(&self) -> bool {
        self.evicted > 0 || self.dropped_flows > 0 || self.rerouted > 0
    }
}

const MAX_PASSES: usize = 8;
const TOL: f64 = 1e-6;

/// Repairs `solution` against `inst` (see the module docs for the
/// strategy). Returns the repaired solution and the work done; the result
/// is *usually* feasible but callers must re-check with
/// [`validate_solution`] — an instance whose demands are simply
/// unservable stays infeasible no matter the repair.
pub fn repair_solution(inst: &Instance, solution: &Solution) -> (Solution, RepairStats) {
    let mut stats = RepairStats::default();
    let mut sol = solution.clone();

    // Dimension mismatches are fixed up-front so every index below is in
    // range: the placement resets via `Placement::repair`, the routing by
    // dropping all flows.
    stats.evicted += sol.placement.repair(inst);
    if sol.routing.per_request.len() != inst.requests.len() {
        stats.dropped_flows += sol.routing.per_request.iter().map(Vec::len).sum::<usize>();
        sol.routing = Routing {
            per_request: vec![Vec::new(); inst.requests.len()],
        };
    }

    // Requests proven unservable (no alive path from any replica): give
    // up on them instead of looping.
    let mut hopeless: BTreeSet<usize> = BTreeSet::new();
    for pass in 1..=MAX_PASSES {
        let violations = validate_solution(inst, &sol);
        let actionable = violations.iter().any(
            |v| !matches!(v, Violation::UnderServed { request, .. } if hopeless.contains(request)),
        );
        if !actionable {
            break;
        }
        stats.passes = pass;

        let mut to_reroute: BTreeSet<usize> = BTreeSet::new();
        let mut overloaded: Vec<EdgeId> = Vec::new();
        let mut overflowed = false;
        for v in &violations {
            match v {
                Violation::CacheOverflow { .. } => overflowed = true,
                Violation::MalformedPath { request }
                | Violation::InvalidSource { request, .. }
                | Violation::UnderServed { request, .. } => {
                    if !hopeless.contains(request) {
                        to_reroute.insert(*request);
                    }
                }
                Violation::LinkOverload { edge, .. } => overloaded.push(*edge),
            }
        }

        if overflowed {
            stats.evicted += sol.placement.repair(inst);
        }
        for &ri in &to_reroute {
            stats.dropped_flows += sol.routing.per_request[ri].len();
            sol.routing.per_request[ri].clear();
        }

        let mut loads = sol.routing.link_loads(inst);
        for e in overloaded {
            rip_up(
                inst,
                &mut sol.routing,
                e,
                &mut loads,
                &mut to_reroute,
                &mut stats,
            );
        }

        let mut order: Vec<usize> = to_reroute.into_iter().collect();
        order.sort_by(|&a, &b| {
            inst.requests[b]
                .rate
                .partial_cmp(&inst.requests[a].rate)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for ri in order {
            match greedy_reroute(inst, &sol.placement, &loads, ri) {
                Some(path) => {
                    let amount = inst.requests[ri].rate;
                    for e in path.edges() {
                        loads[e.index()] += amount;
                    }
                    sol.routing.per_request[ri] = vec![PathFlow { path, amount }];
                    stats.rerouted += 1;
                }
                None => {
                    hopeless.insert(ri);
                }
            }
        }
    }
    (sol, stats)
}

/// [`repair_solution`] with the feasibility re-check built in: returns the
/// repaired solution only when it passes [`validate_solution`], and a
/// typed error otherwise — a repair that cannot restore feasibility must
/// never hand back a silently invalid solution.
///
/// # Errors
///
/// [`JcrError::Infeasible`] when the repaired solution still violates a
/// constraint of optimization (1) — i.e. the instance is genuinely
/// unservable (e.g. a requester cut off from every replica and the
/// origin), which no amount of eviction or re-routing can fix.
pub fn repair_solution_checked(
    inst: &Instance,
    solution: &Solution,
) -> Result<(Solution, RepairStats), JcrError> {
    let (repaired, stats) = repair_solution(inst, solution);
    if validate_solution(inst, &repaired).is_empty() {
        Ok((repaired, stats))
    } else {
        Err(JcrError::Infeasible)
    }
}

/// Drops whole requests crossing `e` (smallest rate first) until its load
/// fits the capacity; dropped requests are queued for re-routing.
fn rip_up(
    inst: &Instance,
    routing: &mut Routing,
    e: EdgeId,
    loads: &mut [f64],
    to_reroute: &mut BTreeSet<usize>,
    stats: &mut RepairStats,
) {
    let cap = inst.link_cap[e.index()];
    if !cap.is_finite() {
        return;
    }
    while loads[e.index()] > cap * (1.0 + TOL) {
        let mut pick: Option<(f64, usize)> = None;
        for (ri, flows) in routing.per_request.iter().enumerate() {
            let crosses = flows.iter().any(|pf| pf.path.edges().contains(&e));
            if crosses {
                let amount: f64 = flows.iter().map(|f| f.amount).sum();
                if pick.is_none_or(|(a, _)| amount < a) {
                    pick = Some((amount, ri));
                }
            }
        }
        let Some((_, ri)) = pick else {
            break; // residual load is not ours to drop
        };
        for pf in &routing.per_request[ri] {
            for pe in pf.path.edges() {
                loads[pe.index()] -= pf.amount;
            }
        }
        stats.dropped_flows += routing.per_request[ri].len();
        routing.per_request[ri].clear();
        to_reroute.insert(ri);
    }
}

/// The cheapest path serving request `ri` from any replica (or the
/// origin) whose links all have residual capacity for the full rate;
/// falls back to the cheapest path over alive links outright. `None`
/// when no alive finite-cost path reaches the requester.
fn greedy_reroute(
    inst: &Instance,
    placement: &Placement,
    loads: &[f64],
    ri: usize,
) -> Option<Path> {
    let req = inst.requests[ri];
    if placement.has_with_origin(inst, req.node, req.item) {
        return Some(Path::new(Vec::new())); // local hit
    }
    let mut sources: Vec<NodeId> = placement.holders(req.item).collect();
    if let Some(o) = inst.origin {
        if !sources.contains(&o) {
            sources.push(o);
        }
    }
    let fitting = best_path(inst, &sources, req.node, |e| {
        let c = inst.link_cap[e.index()];
        !c.is_finite() || c - loads[e.index()] + 1e-9 >= req.rate
    });
    fitting.or_else(|| best_path(inst, &sources, req.node, |e| inst.link_cap[e.index()] > 0.0))
}

/// The cheapest finite-cost path to `target` from any of `sources` using
/// only links accepted by `usable`.
fn best_path<F: Fn(EdgeId) -> bool>(
    inst: &Instance,
    sources: &[NodeId],
    target: NodeId,
    usable: F,
) -> Option<Path> {
    let mut best: Option<(f64, Path)> = None;
    for &s in sources {
        let tree = shortest::dijkstra_filtered(&inst.graph, s, &inst.link_cost, &usable);
        if let Some(p) = tree.path(&inst.graph, target) {
            let c = p.cost(&inst.link_cost);
            if c.is_finite() && best.as_ref().is_none_or(|(bc, _)| c < *bc) {
                best = Some((c, p));
            }
        }
    }
    best.map(|(_, p)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alternating::Alternating;
    use crate::instance::InstanceBuilder;
    use jcr_ctx::SolverContext;
    use jcr_topo::{Topology, TopologyKind};

    fn capped_inst(seed: u64) -> Instance {
        InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, seed).unwrap())
            .items(6)
            .cache_capacity(2.0)
            .zipf_demand(0.8, 200.0, seed)
            .link_capacity_fraction(0.5)
            .build()
            .unwrap()
    }

    /// Rebuilds `inst` with edge `e` failed (zero capacity, infinite
    /// cost).
    fn fail_link(inst: &Instance, e: EdgeId) -> Instance {
        let mut cost = inst.link_cost.clone();
        let mut cap = inst.link_cap.clone();
        cost[e.index()] = f64::INFINITY;
        cap[e.index()] = 0.0;
        Instance::new(
            inst.graph.clone(),
            cost,
            cap,
            inst.cache_cap.clone(),
            inst.item_size.clone(),
            inst.requests.clone(),
            inst.origin,
        )
        .unwrap()
    }

    #[test]
    fn clean_solutions_pass_through_unchanged() {
        let inst = capped_inst(3);
        let sol = Alternating::new()
            .solve_with_context(&inst, &SolverContext::new())
            .unwrap()
            .solution;
        assert!(validate_solution(&inst, &sol).is_empty());
        let (repaired, stats) = repair_solution(&inst, &sol);
        assert_eq!(repaired, sol);
        assert!(!stats.changed());
        assert_eq!(stats.passes, 0);
    }

    #[test]
    fn reroutes_around_a_failed_link() {
        let inst = capped_inst(11);
        let sol = Alternating::new()
            .solve_with_context(&inst, &SolverContext::new())
            .unwrap()
            .solution;
        // Fail the most loaded link the solution uses whose loss keeps the
        // instance servable (the origin can still reach every requester
        // over alive links) — the same guard the fault injector applies.
        let loads = sol.routing.link_loads(&inst);
        let mut candidates: Vec<EdgeId> = inst
            .graph
            .edges()
            .filter(|e| loads[e.index()] > 0.0)
            .collect();
        candidates.sort_by(|a, b| loads[b.index()].partial_cmp(&loads[a.index()]).unwrap());
        let victim = candidates
            .into_iter()
            .find(|&e| {
                let tree = shortest::dijkstra_filtered(
                    &inst.graph,
                    inst.origin.unwrap(),
                    &inst.link_cost,
                    |f| f != e && inst.link_cap[f.index()] > 0.0,
                );
                inst.requests.iter().all(|r| tree.dist(r.node).is_finite())
            })
            .expect("some loaded link is expendable");
        let faulted = fail_link(&inst, victim);

        let (repaired, stats) = repair_solution(&faulted, &sol);
        let violations = validate_solution(&faulted, &repaired);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(stats.dropped_flows > 0, "{stats:?}");
        assert!(stats.rerouted > 0, "{stats:?}");
        let new_loads = repaired.routing.link_loads(&faulted);
        assert_eq!(new_loads[victim.index()], 0.0, "dead link still loaded");
    }

    #[test]
    fn evicts_overflow_and_fixes_sources() {
        let inst = capped_inst(5);
        let mut sol = Alternating::new()
            .solve_with_context(&inst, &SolverContext::new())
            .unwrap()
            .solution;
        // Overfill one cache; the eviction invalidates any path sourced at
        // the evicted replicas, which the repair must then re-route.
        let v = inst.cache_nodes()[0];
        for i in 0..inst.num_items() {
            sol.placement.set(v, i, true);
        }
        let (repaired, stats) = repair_solution(&inst, &sol);
        let violations = validate_solution(&inst, &repaired);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(stats.evicted > 0, "{stats:?}");
        assert!(repaired.placement.is_feasible(&inst));
    }

    #[test]
    fn empty_placement_repairs_to_origin_routing() {
        // A carried decision with empty caches and no routing at all must
        // come back fully served from the origin.
        let inst = capped_inst(7);
        let bare = Solution {
            placement: Placement::empty(&inst),
            routing: Routing {
                per_request: vec![Vec::new(); inst.requests.len()],
            },
        };
        let (repaired, stats) = repair_solution_checked(&inst, &bare).unwrap();
        assert!(validate_solution(&inst, &repaired).is_empty());
        assert_eq!(stats.rerouted, inst.requests.len());
        assert!(repaired.routing.serves_all(&inst));
    }

    #[test]
    fn every_cache_failed_evicts_everything() {
        // The current instance lost all cache capacity: every cached copy
        // must be evicted and all traffic re-routed to the origin.
        let old = capped_inst(9);
        let sol = Alternating::new()
            .solve_with_context(&old, &SolverContext::new())
            .unwrap()
            .solution;
        assert!(!sol.placement.is_empty(), "solver should cache something");
        let no_caches = crate::instance::Instance::new(
            old.graph.clone(),
            old.link_cost.clone(),
            old.link_cap.clone(),
            vec![0.0; old.graph.node_count()],
            old.item_size.clone(),
            old.requests.clone(),
            old.origin,
        )
        .unwrap();
        let (repaired, stats) = repair_solution_checked(&no_caches, &sol).unwrap();
        assert_eq!(repaired.placement.len(), 0, "all items must be evicted");
        assert!(stats.evicted > 0, "{stats:?}");
        assert!(validate_solution(&no_caches, &repaired).is_empty());
    }

    #[test]
    fn unrestorable_instance_yields_typed_error() {
        // Zero link capacity everywhere: nothing can be routed, so the
        // checked repair must surface a typed error instead of a silently
        // invalid solution.
        let inst = capped_inst(4);
        let sol = Alternating::new()
            .solve_with_context(&inst, &SolverContext::new())
            .unwrap()
            .solution;
        let dead = crate::instance::Instance::new(
            inst.graph.clone(),
            inst.link_cost.clone(),
            vec![0.0; inst.graph.edge_count()],
            inst.cache_cap.clone(),
            inst.item_size.clone(),
            inst.requests.clone(),
            inst.origin,
        )
        .unwrap();
        let err = repair_solution_checked(&dead, &sol).unwrap_err();
        assert_eq!(err, crate::error::JcrError::Infeasible);
        // The unchecked variant still reports what it tried.
        let (_, stats) = repair_solution(&dead, &sol);
        assert!(stats.passes > 0);
    }

    #[test]
    fn repairs_a_stale_solution_from_another_instance() {
        // A solution carried across a topology change (different node and
        // request counts) must come back valid for the new instance.
        let old = capped_inst(2);
        let new = InstanceBuilder::new(Topology::generate(TopologyKind::Tinet, 2).unwrap())
            .items(4)
            .cache_capacity(2.0)
            .zipf_demand(0.8, 150.0, 7)
            .link_capacity_fraction(0.5)
            .build()
            .unwrap();
        let sol = Alternating::new()
            .solve_with_context(&old, &SolverContext::new())
            .unwrap()
            .solution;
        let (repaired, stats) = repair_solution(&new, &sol);
        let violations = validate_solution(&new, &repaired);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(stats.rerouted, new.requests.len());
    }
}
