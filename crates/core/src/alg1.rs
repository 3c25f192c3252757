//! **Algorithm 1** (§4.1): integral caching and source selection under
//! unlimited link capacities, with a `(1 − 1/e)` approximation guarantee
//! (Theorem 4.4) in truly polynomial time.
//!
//! The paper's auxiliary LP (7) has `O(|V||R|)` variables; we solve an
//! exactly equivalent reduced LP instead (see `DESIGN.md`): for fixed `x`
//! the inner maximum over `(r, z)` is available in closed form, collapsing
//! (7) to
//!
//! ```text
//!   max  Σ_{(i,s)} λ_{(i,s)} · w_max · z_{(i,s)}
//!   s.t. z_{(i,s)} ≤ 1
//!        z_{(i,s)} ≤ Σ_v x_{vi} (w_max − w_{v→s}) / w_max   (origin: x ≡ 1)
//!        Σ_i x_{vi} ≤ c_v,   x ∈ [0, 1]
//! ```
//!
//! with one auxiliary per request. An optimal fractional source selection
//! `r̃` is recovered by water-filling, the placement is rounded by the
//! pipage scheme (8)–(9) — which never decreases `F_RNR` (Lemma 4.3) —
//! and requests are finally routed to their nearest replicas (RNR).

use jcr_lp::{Model, Sense};

use crate::error::JcrError;
use crate::instance::Instance;
use crate::placement::Placement;
use crate::placement_opt;
use crate::rnr;
use crate::routing::Solution;

/// Algorithm 1: LP relaxation + pipage rounding + RNR.
///
/// # Examples
///
/// ```
/// use jcr_core::alg1::Algorithm1;
/// use jcr_core::instance::InstanceBuilder;
/// use jcr_ctx::SolverContext;
/// use jcr_topo::{Topology, TopologyKind};
///
/// let topo = Topology::generate(TopologyKind::Abovenet, 1).unwrap();
/// let inst = InstanceBuilder::new(topo)
///     .items(6)
///     .cache_capacity(2.0)
///     .zipf_demand(0.8, 100.0, 3)
///     .build()
///     .unwrap();
/// let solution = Algorithm1::new()
///     .solve_with_context(&inst, &SolverContext::new())
///     .unwrap();
/// assert!(solution.placement.is_feasible(&inst));
/// assert!(solution.routing.serves_all(&inst));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Algorithm1 {
    _private: (),
}

impl Algorithm1 {
    /// Creates the solver.
    pub fn new() -> Self {
        Algorithm1::default()
    }

    /// Runs Algorithm 1 on an instance (link capacities are ignored, as in
    /// the paper's uncapacitated special case). The reduced LP obeys the
    /// context's simplex budget and the pipage rounding feeds the rounding
    /// counter. The solution is verified against an independent
    /// certificate (link capacities not enforced) before it is returned.
    ///
    /// # Errors
    ///
    /// [`JcrError::Infeasible`] if some request cannot reach any replica
    /// (requires an origin); LP errors are propagated as
    /// [`JcrError::Numerical`]; [`JcrError::BudgetExceeded`] when the
    /// budget trips; [`JcrError::NumericalBreakdown`] when the
    /// certificate fails to verify.
    pub fn solve_with_context(
        &self,
        inst: &Instance,
        ctx: &jcr_ctx::SolverContext,
    ) -> Result<Solution, JcrError> {
        let placement = self.place_with_context(inst, ctx)?;
        let routing =
            rnr::route_to_nearest_replica(inst, &placement).ok_or(JcrError::Infeasible)?;
        let solution = Solution { placement, routing };
        let certificate = crate::certify::certify_solution(inst, &solution, false);
        certificate.record(ctx);
        if !certificate.verified() {
            return Err(JcrError::NumericalBreakdown(certificate.failure_summary()));
        }
        Ok(solution)
    }

    /// The content-placement part only (lines 1–3 of Algorithm 1).
    ///
    /// # Errors
    ///
    /// Same as [`Algorithm1::solve_with_context`].
    pub fn place_with_context(
        &self,
        inst: &Instance,
        ctx: &jcr_ctx::SolverContext,
    ) -> Result<Placement, JcrError> {
        let _span = ctx.span("alg1.place");
        let cache_nodes = inst.cache_nodes();
        let n_items = inst.num_items();
        if cache_nodes.is_empty() || inst.requests.is_empty() {
            return Ok(Placement::empty(inst));
        }
        let ap = inst.all_pairs_with_context(ctx);
        let w_max = inst.w_max();

        // --- Reduced LP ---------------------------------------------------
        let mut model = Model::new(Sense::Maximize);
        // x variables, indexed [cache node][item], for requested items only.
        let x_var = placement_opt::add_placement_vars(&mut model, inst, cache_nodes.len());
        let x_of = |vi: usize, i: usize| x_var[vi][i].expect("requested item");
        // z variables and their coverage rows.
        for req in &inst.requests {
            let z = model.add_var(0.0, 1.0, req.rate * w_max);
            // z − Σ_v a_v x_v ≤ a0.
            let mut entries = vec![(z, 1.0)];
            for (vi, &v) in cache_nodes.iter().enumerate() {
                let d = ap.dist(v, req.node);
                if d.is_finite() {
                    let a = (w_max - d) / w_max;
                    if a > 0.0 {
                        entries.push((x_of(vi, req.item), -a));
                    }
                }
            }
            let a0 = match inst.origin {
                Some(o) => {
                    let d = ap.dist(o, req.node);
                    if d.is_finite() {
                        (w_max - d) / w_max
                    } else {
                        0.0
                    }
                }
                None => 0.0,
            };
            model.add_row(f64::NEG_INFINITY, a0, &entries);
        }
        // Cache capacities.
        for (vi, &v) in cache_nodes.iter().enumerate() {
            let entries: Vec<_> = x_var[vi].iter().flatten().map(|&x| (x, 1.0)).collect();
            model.add_row(f64::NEG_INFINITY, inst.cache_cap[v.index()], &entries);
        }
        let lp = {
            let _s = ctx.span("alg1.lp");
            model.solve_with_context(ctx)?
        };

        // --- Recover r̃ and the pipage weights -----------------------------
        // weight[vi][i] = Σ_{s:(i,s)∈R} λ · r̃_v^{(i,s)} · (w_max − w_{v→s}).
        let _weights_span = ctx.span("alg1.weights");
        let mut weight = vec![vec![0.0; n_items]; cache_nodes.len()];
        for req in &inst.requests {
            // a_v = x̃_vi (w_max − w_{v→s}) / w_max for cache nodes + origin.
            let mut a = Vec::with_capacity(cache_nodes.len());
            let mut total = 0.0;
            for (vi, &v) in cache_nodes.iter().enumerate() {
                let d = ap.dist(v, req.node);
                let av = if d.is_finite() {
                    lp.x[x_of(vi, req.item).index()] * ((w_max - d) / w_max).max(0.0)
                } else {
                    0.0
                };
                a.push(av);
                total += av;
            }
            if let Some(o) = inst.origin {
                let d = ap.dist(o, req.node);
                if d.is_finite() {
                    total += (w_max - d) / w_max;
                }
            }
            // Water-filling: r̃_v = a_v (scaled down if Σa > 1); leftover
            // mass goes to the origin and does not affect cache weights.
            let scale = if total > 1.0 { 1.0 / total } else { 1.0 };
            for (vi, &v) in cache_nodes.iter().enumerate() {
                let r_tilde = a[vi] * scale;
                if r_tilde > 0.0 {
                    let d = ap.dist(v, req.node);
                    weight[vi][req.item] += req.rate * r_tilde * (w_max - d);
                }
            }
        }

        drop(_weights_span);

        // --- Pipage rounding (8)–(9) ---------------------------------------
        // Flatten x into coordinates grouped by cache node.
        let mut coords = Vec::with_capacity(cache_nodes.len() * n_items);
        let mut groups: Vec<Vec<usize>> = Vec::with_capacity(cache_nodes.len());
        let mut flat_weight = Vec::with_capacity(cache_nodes.len() * n_items);
        for (vi, _) in cache_nodes.iter().enumerate() {
            let mut group = Vec::with_capacity(n_items);
            for i in 0..n_items {
                group.push(coords.len());
                coords.push(x_var[vi][i].map_or(0.0, |x| lp.x[x.index()]));
                flat_weight.push(weight[vi][i]);
            }
            groups.push(group);
        }
        let capacity: Vec<f64> = cache_nodes
            .iter()
            .map(|&v| inst.cache_cap[v.index()].floor())
            .collect();
        {
            let _s = ctx.span("alg1.pipage");
            let _t = ctx.time(jcr_ctx::Phase::Rounding);
            ctx.count(jcr_ctx::Counter::RoundingPasses, 1);
            jcr_submodular::pipage::pipage_round(&mut coords, &groups, &capacity, |c, _| {
                flat_weight[c]
            });
        }

        let mut placement = Placement::empty(inst);
        for (vi, &v) in cache_nodes.iter().enumerate() {
            for i in 0..n_items {
                if coords[groups[vi][i]] >= 0.5 {
                    placement.set(v, i, true);
                }
            }
        }
        debug_assert!(placement.is_feasible(inst));
        Ok(placement)
    }
}

/// The cost-saving objective `F_RNR(x, r)` of (3) under RNR source
/// selection — used to validate the approximation guarantee in tests and
/// benchmarks: `F = Σ λ (w_max − w_{nearest replica})`.
pub fn f_rnr(inst: &Instance, placement: &Placement) -> f64 {
    let w_max = inst.w_max();
    rnr::nearest_replicas(inst, placement)
        .map(|(r, best)| r.rate * (w_max - best.map_or(w_max, |(_, d)| d)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{InstanceBuilder, Request};
    use jcr_ctx::SolverContext;
    use jcr_graph::DiGraph;
    use jcr_topo::{Topology, TopologyKind};

    fn default_inst(seed: u64) -> Instance {
        InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, seed).unwrap())
            .items(8)
            .cache_capacity(2.0)
            .zipf_demand(0.8, 200.0, seed)
            .build()
            .unwrap()
    }

    #[test]
    fn produces_feasible_solution_beating_origin_only() {
        let ctx = SolverContext::new();
        let inst = default_inst(3);
        let sol = Algorithm1::new().solve_with_context(&inst, &ctx).unwrap();
        assert!(sol.placement.is_feasible(&inst));
        assert!(sol.routing.serves_all(&inst));
        assert!(sol.routing.sources_valid(&inst, &sol.placement));
        let origin_cost = rnr::rnr_cost(&inst, &Placement::empty(&inst)).unwrap();
        assert!(
            sol.cost(&inst) < origin_cost,
            "caching should beat origin-only: {} vs {origin_cost}",
            sol.cost(&inst)
        );
    }

    #[test]
    fn fills_caches_when_items_scarce() {
        let ctx = SolverContext::new();
        // More capacity than items: every edge node should store the most
        // popular items up to the catalog size.
        let inst = InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 5).unwrap())
            .items(2)
            .cache_capacity(5.0)
            .zipf_demand(1.0, 100.0, 1)
            .build()
            .unwrap();
        let sol = Algorithm1::new().solve_with_context(&inst, &ctx).unwrap();
        // Every requested item is cached at the requester itself → zero cost.
        assert!(sol.cost(&inst) < 1e-6);
    }

    /// Brute-force optimal placement for tiny instances.
    fn brute_force_opt(inst: &Instance) -> f64 {
        let cache_nodes = inst.cache_nodes();
        let n_items = inst.num_items();
        let slots: Vec<(usize, usize)> = cache_nodes
            .iter()
            .enumerate()
            .flat_map(|(vi, _)| (0..n_items).map(move |i| (vi, i)))
            .collect();
        assert!(slots.len() <= 16);
        let mut best = f64::NEG_INFINITY;
        'mask: for mask in 0u32..(1 << slots.len()) {
            let mut p = Placement::empty(inst);
            let mut used = vec![0.0; cache_nodes.len()];
            for (b, &(vi, i)) in slots.iter().enumerate() {
                if mask & (1 << b) != 0 {
                    used[vi] += inst.item_size[i];
                    if used[vi] > inst.cache_cap[cache_nodes[vi].index()] + 1e-9 {
                        continue 'mask;
                    }
                    p.set(cache_nodes[vi], i, true);
                }
            }
            best = best.max(f_rnr(inst, &p));
        }
        best
    }

    #[test]
    fn achieves_1_minus_1_over_e_on_small_instances() {
        let ctx = SolverContext::new();
        for seed in 0..6 {
            let inst = InstanceBuilder::new(Topology::generate_custom(8, 10, 2, seed).unwrap())
                .items(4)
                .cache_capacity(1.0)
                .zipf_demand(0.9, 60.0, seed)
                .build()
                .unwrap();
            let sol = Algorithm1::new().solve_with_context(&inst, &ctx).unwrap();
            let achieved = f_rnr(&inst, &sol.placement);
            let opt = brute_force_opt(&inst);
            let bound = (1.0 - 1.0 / std::f64::consts::E) * opt;
            assert!(
                achieved >= bound - 1e-6,
                "seed {seed}: {achieved} < (1−1/e)·OPT = {bound}"
            );
        }
    }

    #[test]
    fn empty_catalog_or_requests() {
        let ctx = SolverContext::new();
        let topo = Topology::generate(TopologyKind::Abovenet, 1).unwrap();
        let n_edges = topo.edge_nodes.len();
        let inst = InstanceBuilder::new(topo)
            .items(1)
            .demand_matrix(vec![vec![0.0; n_edges]])
            .build()
            .unwrap();
        let sol = Algorithm1::new().solve_with_context(&inst, &ctx).unwrap();
        assert!(sol.placement.is_empty());
        assert_eq!(sol.routing.per_request.len(), 0);
    }

    #[test]
    fn respects_integral_capacity_floor() {
        let ctx = SolverContext::new();
        // Fractional cache capacity 1.5 floors to 1 item per node.
        let inst = InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 8).unwrap())
            .items(5)
            .cache_capacity(1.5)
            .zipf_demand(0.7, 80.0, 2)
            .build()
            .unwrap();
        let sol = Algorithm1::new().solve_with_context(&inst, &ctx).unwrap();
        for v in inst.cache_nodes() {
            assert!(sol.placement.occupancy(&inst, v) <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn works_without_origin() {
        let ctx = SolverContext::new();
        // Two nodes, one cache; requests served only from the cache.
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        g.add_edge(b, a);
        let inst = Instance::new(
            g,
            vec![2.0, 2.0],
            vec![f64::INFINITY, f64::INFINITY],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![Request {
                item: 0,
                node: b,
                rate: 3.0,
            }],
            None,
        )
        .unwrap();
        let sol = Algorithm1::new().solve_with_context(&inst, &ctx).unwrap();
        assert!(sol.placement.has(a, 0));
        assert!((sol.cost(&inst) - 6.0).abs() < 1e-9);
    }
}
