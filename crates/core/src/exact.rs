//! Exact IC-IR solving by exhaustive enumeration — a ground-truth oracle
//! for *tiny* instances only (both caching and routing are NP-hard, §3),
//! used to quantify the heuristics' optimality gaps in tests and
//! experiments.
//!
//! Enumerates every capacity-feasible integral placement; for each, every
//! combination of candidate paths (the `max_paths` cheapest simple paths
//! from each replica to the requester) is checked against the link
//! capacities, keeping the cheapest feasible assignment.

use jcr_ctx::SolverContext;
use jcr_graph::{shortest, Path};

use crate::error::JcrError;
use crate::instance::Instance;
use crate::placement::Placement;
use crate::routing::{Routing, Solution};

/// Configuration of the exhaustive search.
#[derive(Clone, Copy, Debug)]
pub struct ExactIcIr {
    /// Candidate simple paths enumerated per (replica, requester) pair.
    pub max_paths: usize,
    /// Hard cap on placement-slot count (`|cache nodes| × |items|`); the
    /// solver refuses larger instances instead of running forever.
    pub max_slots: usize,
    /// Hard cap on per-placement routing combinations.
    pub max_combinations: usize,
}

impl Default for ExactIcIr {
    fn default() -> Self {
        ExactIcIr {
            max_paths: 3,
            max_slots: 12,
            max_combinations: 200_000,
        }
    }
}

impl ExactIcIr {
    /// Creates the default configuration.
    pub fn new() -> Self {
        ExactIcIr::default()
    }

    /// Finds the optimal IC-IR solution by exhaustive search.
    ///
    /// # Errors
    ///
    /// [`JcrError::InvalidInstance`] if the instance exceeds the
    /// enumeration caps, [`JcrError::Infeasible`] if no feasible joint
    /// solution exists within the candidate paths.
    pub fn solve(&self, inst: &Instance) -> Result<Solution, JcrError> {
        let cache_nodes = inst.cache_nodes();
        let n_items = inst.num_items();
        let slots: Vec<(usize, usize)> = cache_nodes
            .iter()
            .enumerate()
            .flat_map(|(vi, _)| (0..n_items).map(move |i| (vi, i)))
            .collect();
        if slots.len() > self.max_slots {
            return Err(JcrError::InvalidInstance(format!(
                "{} placement slots exceed the exact solver's cap of {}",
                slots.len(),
                self.max_slots
            )));
        }

        let mut best: Option<(f64, Solution)> = None;
        'mask: for mask in 0u32..(1 << slots.len()) {
            let mut placement = Placement::empty(inst);
            let mut used = vec![0.0; cache_nodes.len()];
            for (b, &(vi, i)) in slots.iter().enumerate() {
                if mask & (1 << b) != 0 {
                    used[vi] += inst.item_size[i];
                    if used[vi] > inst.cache_cap[cache_nodes[vi].index()] + 1e-9 {
                        continue 'mask;
                    }
                    placement.set(cache_nodes[vi], i, true);
                }
            }
            if let Some((cost, routing)) = self.best_routing(inst, &placement)? {
                if best.as_ref().is_none_or(|(bc, _)| cost < *bc - 1e-12) {
                    best = Some((cost, Solution { placement, routing }));
                }
            }
        }
        best.map(|(_, s)| s).ok_or(JcrError::Infeasible)
    }

    /// The cheapest capacity-feasible integral routing for a fixed
    /// placement, or `None` if no candidate combination fits.
    fn best_routing(
        &self,
        inst: &Instance,
        placement: &Placement,
    ) -> Result<Option<(f64, Routing)>, JcrError> {
        // Candidate paths per request: the cheapest simple paths from every
        // replica (cache holders + origin).
        let mut candidates: Vec<Vec<Path>> = Vec::with_capacity(inst.requests.len());
        // A private context: the enumeration's Dijkstra runs are not part
        // of any caller's counters.
        let ctx = SolverContext::new();
        for req in &inst.requests {
            let mut paths: Vec<Path> = Vec::new();
            let mut sources: Vec<_> = placement.holders(req.item).collect();
            if let Some(o) = inst.origin {
                if !sources.contains(&o) {
                    sources.push(o);
                }
            }
            for src in sources {
                for p in shortest::k_shortest_paths_with_context(
                    &inst.graph,
                    src,
                    req.node,
                    self.max_paths,
                    &inst.link_cost,
                    &ctx,
                ) {
                    if !paths.contains(&p) {
                        paths.push(p);
                    }
                }
            }
            if paths.is_empty() {
                return Ok(None); // request unservable under this placement
            }
            paths.sort_by(|a, b| {
                a.cost(&inst.link_cost)
                    .partial_cmp(&b.cost(&inst.link_cost))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            paths.truncate(self.max_paths);
            candidates.push(paths);
        }
        let combos: usize = candidates.iter().map(Vec::len).product();
        if combos > self.max_combinations {
            return Err(JcrError::InvalidInstance(format!(
                "{combos} routing combinations exceed the exact solver's cap"
            )));
        }

        // Depth-first enumeration with incremental load tracking and
        // cost-based pruning.
        let mut loads = vec![0.0; inst.graph.edge_count()];
        let mut choice = vec![0usize; candidates.len()];
        let mut best: Option<(f64, Vec<usize>)> = None;
        dfs(
            inst,
            &candidates,
            0,
            0.0,
            &mut loads,
            &mut choice,
            &mut best,
        );
        Ok(best.map(|(cost, picks)| {
            let paths: Vec<Path> = picks
                .iter()
                .zip(&candidates)
                .map(|(&k, c)| c[k].clone())
                .collect();
            (cost, Routing::from_paths(inst, paths))
        }))
    }
}

fn dfs(
    inst: &Instance,
    candidates: &[Vec<Path>],
    depth: usize,
    cost_so_far: f64,
    loads: &mut Vec<f64>,
    choice: &mut Vec<usize>,
    best: &mut Option<(f64, Vec<usize>)>,
) {
    if let Some((bc, _)) = best {
        if cost_so_far >= *bc - 1e-12 {
            return; // prune
        }
    }
    if depth == candidates.len() {
        *best = Some((cost_so_far, choice.clone()));
        return;
    }
    let rate = inst.requests[depth].rate;
    for (k, path) in candidates[depth].iter().enumerate() {
        // Capacity check.
        let fits = path
            .edges()
            .iter()
            .all(|e| loads[e.index()] + rate <= inst.link_cap[e.index()] + 1e-9);
        if !fits {
            continue;
        }
        for e in path.edges() {
            loads[e.index()] += rate;
        }
        choice[depth] = k;
        let step_cost = rate * path.cost(&inst.link_cost);
        dfs(
            inst,
            candidates,
            depth + 1,
            cost_so_far + step_cost,
            loads,
            choice,
            best,
        );
        for e in path.edges() {
            loads[e.index()] -= rate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alternating::Alternating;
    use crate::instance::{InstanceBuilder, Request};
    use jcr_ctx::SolverContext;
    use jcr_graph::DiGraph;
    use jcr_topo::Topology;

    #[test]
    fn finds_the_gadget_optimum() {
        // The Prop. 4.8 gadget: exact must find cost ε(λ + w).
        let eps = 0.01;
        let mut g = DiGraph::new();
        let vs = g.add_node();
        let v1 = g.add_node();
        let v2 = g.add_node();
        let s = g.add_node();
        let mut cost = Vec::new();
        for (u, v, c) in [(vs, v1, 1.0), (vs, v2, 1.0), (v1, s, eps), (v2, s, 1.0)] {
            g.add_edge(u, v);
            cost.push(c);
        }
        let inst = Instance::new(
            g,
            cost,
            vec![2.0; 4],
            vec![0.0, 1.0, 1.0, 0.0],
            vec![1.0, 1.0],
            vec![
                Request {
                    item: 0,
                    node: s,
                    rate: 1.0,
                },
                Request {
                    item: 1,
                    node: s,
                    rate: eps,
                },
            ],
            Some(vs),
        )
        .unwrap();
        let sol = ExactIcIr::new().solve(&inst).unwrap();
        assert!((sol.cost(&inst) - eps * 2.0).abs() < 1e-9);
        assert!(sol.placement.has(v1, 0));
        assert!(sol.placement.has(v2, 1));
    }

    #[test]
    fn heuristics_bounded_by_exact_optimum() {
        for seed in 0..3 {
            let inst = InstanceBuilder::new(Topology::generate_custom(7, 8, 2, seed).unwrap())
                .items(3)
                .cache_capacity(1.0)
                .zipf_demand(0.9, 50.0, seed)
                .link_capacity_fraction(0.3)
                .build()
                .unwrap();
            let exact = ExactIcIr {
                max_paths: 4,
                ..ExactIcIr::default()
            }
            .solve(&inst)
            .unwrap();
            let alt = Alternating {
                seed,
                ..Alternating::default()
            }
            .solve_with_context(&inst, &SolverContext::new())
            .unwrap();
            // Exact is a true lower bound among capacity-feasible IC-IR
            // solutions; the alternating heuristic can only undercut by
            // violating capacities.
            let alt_cost = alt.solution.cost(&inst);
            if alt_cost + 1e-9 < exact.cost(&inst) {
                assert!(
                    alt.solution.congestion(&inst) > 1.0,
                    "seed {seed}: heuristic beat the exact optimum while feasible"
                );
            }
            assert!(exact.routing.serves_all(&inst));
            assert!(exact.congestion(&inst) <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn refuses_oversized_instances() {
        let inst = InstanceBuilder::new(Topology::generate_custom(10, 13, 3, 1).unwrap())
            .items(10)
            .cache_capacity(2.0)
            .zipf_demand(0.8, 50.0, 1)
            .build()
            .unwrap();
        assert!(matches!(
            ExactIcIr::new().solve(&inst),
            Err(JcrError::InvalidInstance(_))
        ));
    }
}
