//! The binary-cache-capacity case (§4.2): a given subset of nodes stores
//! the entire catalog, the rest store nothing, and the joint source
//! selection + integral routing problem reduces to MSUFP on the auxiliary
//! graph of Lemma 4.5, solved by the paper's Algorithm 2.

use jcr_flow::msufp::{self, Demand};
use jcr_graph::NodeId;

use crate::auxiliary::AuxiliaryGraph;
use crate::error::JcrError;
use crate::instance::Instance;
use crate::placement::Placement;
use crate::routing::{Routing, Solution};

/// Result of the binary-cache pipeline.
#[derive(Clone, Debug)]
pub struct BinaryCacheSolution {
    /// The (fixed) full-catalog placement at the storers.
    pub solution: Solution,
    /// Cost of the optimal splittable flow — a lower bound on the optimal
    /// integral cost within capacities ("splittable flow" in Fig. 6).
    pub splittable_cost: f64,
}

/// Builds the full-catalog placement at `storers` (`c_v = |C|` for
/// `v ∈ V_s`, 0 elsewhere).
pub fn binary_placement(inst: &Instance, storers: &[NodeId]) -> Placement {
    let mut p = Placement::empty(inst);
    for &v in storers {
        for i in 0..inst.num_items() {
            p.set(v, i, true);
        }
    }
    p
}

/// Solves the binary-cache-capacity case with Algorithm 2 using `k`
/// demand-rounding classes (`k = 2` recovers the state-of-the-art MSUFP
/// algorithm of \[33\]; larger `k` trades a little demand-rounding error for
/// much less congestion — Theorem 4.7). The splittable min-cost flow obeys
/// the context's `MinCostFlow` budget and the decomposition feeds the path
/// counter.
///
/// # Errors
///
/// [`JcrError::Infeasible`] if even splittable routing cannot satisfy the
/// demands within the link capacities; [`JcrError::BudgetExceeded`] when
/// a budget trips.
pub fn solve_binary_caches_with_context(
    inst: &Instance,
    storers: &[NodeId],
    k: u32,
    ctx: &jcr_ctx::SolverContext,
) -> Result<BinaryCacheSolution, JcrError> {
    let aux = AuxiliaryGraph::single_source(inst, storers);
    let vs = aux.item_source[0];
    let demands: Vec<Demand> = inst
        .requests
        .iter()
        .map(|r| Demand {
            dest: r.node,
            demand: r.rate,
        })
        .collect();
    let msufp =
        msufp::solve_msufp_with_context(&aux.graph, &aux.cost, &aux.cap, vs, &demands, k, ctx)?;
    let paths = msufp
        .paths
        .into_iter()
        .map(|p| aux.strip_virtual(p))
        .collect::<Vec<_>>();
    let placement = binary_placement(inst, storers);
    let routing = Routing::from_paths(inst, paths);
    debug_assert!(routing.sources_valid(inst, &placement));
    Ok(BinaryCacheSolution {
        solution: Solution { placement, routing },
        splittable_cost: msufp.splittable_cost,
    })
}

/// The RNR baseline in the binary-cache case (\[3\]'s routing): every
/// request goes to its nearest replica regardless of link capacities.
///
/// # Errors
///
/// [`JcrError::Infeasible`] if a request cannot reach any replica.
pub fn rnr_binary(inst: &Instance, storers: &[NodeId]) -> Result<Solution, JcrError> {
    let placement = binary_placement(inst, storers);
    let routing =
        crate::rnr::route_to_nearest_replica(inst, &placement).ok_or(JcrError::Infeasible)?;
    Ok(Solution { placement, routing })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use jcr_ctx::SolverContext;
    use jcr_topo::{Topology, TopologyKind};

    fn capped_inst(fraction: f64) -> Instance {
        InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 12).unwrap())
            .items(5)
            .cache_capacity(5.0)
            .zipf_demand(0.8, 1000.0, 9)
            .link_capacity_fraction(fraction)
            .build()
            .unwrap()
    }

    #[test]
    fn solves_and_serves_all() {
        let inst = capped_inst(0.05);
        let storer = inst.cache_nodes()[0];
        let sol =
            solve_binary_caches_with_context(&inst, &[storer], 4, &SolverContext::new()).unwrap();
        assert!(sol.solution.routing.serves_all(&inst));
        assert!(sol.solution.routing.is_integral());
        // Theorem 4.7(i): never above the optimal cost, which is lower
        // bounded by the splittable cost... the unsplittable cost can be
        // *below* the splittable optimum only because rounded-down demands
        // were used for path selection; with original demands routed, cost
        // can exceed splittable_cost but stays within the theorem's bound
        // of the optimum. Sanity: it is at least positive and finite.
        assert!(sol.solution.cost(&inst) > 0.0);
        assert!(sol.splittable_cost > 0.0);
    }

    #[test]
    fn theorem_cost_bound_holds() {
        // Theorem 4.7(i): Σ λ_i w(p_i) ≤ minimum cost of any flow
        // satisfying the demands (= splittable optimum) — the theorem
        // actually guarantees ≤ the *unsplittable* optimum; the splittable
        // optimum lower-bounds that, so we check the weaker direction the
        // paper plots in Fig. 6: cost stays within a small factor of the
        // splittable bound.
        let inst = capped_inst(0.05);
        let storer = inst.cache_nodes()[1];
        for k in [1u32, 2, 8] {
            let sol = solve_binary_caches_with_context(&inst, &[storer], k, &SolverContext::new())
                .unwrap();
            assert!(
                sol.solution.cost(&inst) <= sol.splittable_cost * 1.01 + 1e-6,
                "K={k}: {} vs splittable {}",
                sol.solution.cost(&inst),
                sol.splittable_cost
            );
        }
    }

    #[test]
    fn theorem_congestion_bound_holds() {
        // Theorem 4.7(ii): every link load stays below
        // 2^{1/K}·c_e + 2^{1/K}/(2(2^{1/K}−1))·λ_max. (Pointwise
        // monotonicity of congestion in K is NOT guaranteed — only this
        // bound tightens as K grows.)
        let inst = capped_inst(0.02);
        let storer = inst.cache_nodes()[0];
        let lambda_max = inst.requests.iter().map(|r| r.rate).fold(0.0, f64::max);
        for k in [1u32, 2, 8, 64] {
            let sol = solve_binary_caches_with_context(&inst, &[storer], k, &SolverContext::new())
                .unwrap();
            let factor = 2f64.powf(1.0 / k as f64);
            let additive = factor / (2.0 * (factor - 1.0)) * lambda_max;
            let loads = sol.solution.routing.link_loads(&inst);
            for (e, (&load, &cap)) in loads.iter().zip(&inst.link_cap).enumerate() {
                assert!(
                    load <= factor * cap + additive + 1e-9,
                    "K={k}, link {e}: load {load} vs bound {}",
                    factor * cap + additive
                );
            }
        }
    }

    /// Algorithm 2's answers on one seeded capped Deltacom instance with
    /// sized items, for K ∈ {1, 2, 8, 1000}: the cost and splittable-cost
    /// bits, the decomposition-path count and an FNV-1a hash over every
    /// routed path's edge indices. Any change to the class flows, the
    /// Skutella rounding or the decomposition that moves a path fails here.
    #[test]
    fn answers_are_pinned_on_capped_deltacom() {
        use jcr_ctx::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(11);
        let sizes: Vec<f64> = (0..40).map(|_| rng.gen_range(1.0..5.0)).collect();
        let inst = InstanceBuilder::new(Topology::generate(TopologyKind::Deltacom, 11).unwrap())
            .item_sizes(sizes)
            .cache_capacity(60.0)
            .zipf_demand(0.8, 10_000.0, 11)
            .link_capacity_fraction(0.007)
            .build()
            .unwrap();
        let storer = inst.cache_nodes()[0];
        // (K, cost bits, splittable-cost bits, decomposition paths, path hash)
        let pins: [(u32, u64, u64, u64, u64); 4] = [
            (
                1,
                0x413936e37cf92879,
                0x41399e857a3b5ef6,
                20,
                0xb15da46be9bb24bd,
            ),
            (
                2,
                0x4138c66142385348,
                0x41399e857a3b5ef6,
                20,
                0x8a27527755d16b17,
            ),
            (
                8,
                0x4137fb20607faa06,
                0x41399e857a3b5ef6,
                20,
                0x2e117cee579fb096,
            ),
            (
                1000,
                0x41396af343408320,
                0x41399e857a3b5ef6,
                20,
                0x2f4d8a5348463414,
            ),
        ];
        for (k, cost_bits, split_bits, decomposition_paths, path_hash) in pins {
            let ctx = SolverContext::new();
            let sol = solve_binary_caches_with_context(&inst, &[storer], k, &ctx).unwrap();
            let mut bytes = Vec::new();
            for flows in &sol.solution.routing.per_request {
                for pf in flows {
                    for e in pf.path.edges() {
                        bytes.extend_from_slice(&(e.index() as u32).to_le_bytes());
                    }
                    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
                }
            }
            let got = (
                sol.solution.cost(&inst).to_bits(),
                sol.splittable_cost.to_bits(),
                ctx.stats().decomposition_paths,
                crate::state::fnv1a(&bytes),
            );
            assert_eq!(
                got,
                (cost_bits, split_bits, decomposition_paths, path_hash),
                "K={k}"
            );
        }
    }

    /// FNV-1a over every routed path's edge indices, each path closed by
    /// `u32::MAX`.
    fn path_hash(routing: &Routing) -> u64 {
        let mut bytes = Vec::new();
        for flows in &routing.per_request {
            for pf in flows {
                for e in pf.path.edges() {
                    bytes.extend_from_slice(&(e.index() as u32).to_le_bytes());
                }
                bytes.extend_from_slice(&u32::MAX.to_le_bytes());
            }
        }
        crate::state::fnv1a(&bytes)
    }

    /// The same kind of pins at the benchmark's `lp_free` scale: one
    /// seeded capped Deltacom with 400 sized items (thousands of
    /// commodities to a handful of destinations). Algorithm 2 at
    /// K ∈ {2, 1000} pins cost bits, splittable-cost bits, decomposition
    /// paths and the path hash; nearest-replica routing of the binary
    /// placement and of the greedy placement pins its path hash and cost
    /// bits.
    #[test]
    fn answers_are_pinned_at_lp_free_scale() {
        use jcr_ctx::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(19);
        let sizes: Vec<f64> = (0..400).map(|_| rng.gen_range(1.0..5.0)).collect();
        let inst = InstanceBuilder::new(Topology::generate(TopologyKind::Deltacom, 19).unwrap())
            .item_sizes(sizes)
            .cache_capacity(60.0)
            .zipf_demand(0.8, 10_000.0, 19)
            .link_capacity_fraction(0.007)
            .build()
            .unwrap();
        let storer = inst.cache_nodes()[0];
        // (K, cost bits, splittable-cost bits, decomposition paths, path hash)
        let pins: [(u32, u64, u64, u64, u64); 2] = [
            (
                2,
                0x413710b2f45883dc,
                0x41377b747bcf313e,
                22,
                0x25fb2af06b5592e4,
            ),
            (
                1000,
                0x4135dc7b5184bb9d,
                0x41377b747bcf313e,
                22,
                0x03d93ae39569a8ba,
            ),
        ];
        for (k, cost_bits, split_bits, decomposition_paths, hash) in pins {
            let ctx = SolverContext::new();
            let sol = solve_binary_caches_with_context(&inst, &[storer], k, &ctx).unwrap();
            let got = (
                sol.solution.cost(&inst).to_bits(),
                sol.splittable_cost.to_bits(),
                ctx.stats().decomposition_paths,
                path_hash(&sol.solution.routing),
            );
            assert_eq!(
                got,
                (cost_bits, split_bits, decomposition_paths, hash),
                "K={k}"
            );
        }

        let rnr = rnr_binary(&inst, &[storer]).unwrap();
        let greedy = crate::hetero::greedy_placement_rnr(&inst);
        let greedy_routing = crate::rnr::route_to_nearest_replica(&inst, &greedy).unwrap();
        let got = (
            path_hash(&rnr.routing),
            rnr.cost(&inst).to_bits(),
            path_hash(&greedy_routing),
            greedy_routing.cost(&inst).to_bits(),
        );
        assert_eq!(
            got,
            (
                0xf1fe38ccb1849a45,
                0x411902686924cbf6,
                0xe5a257fa13e7a3c4,
                0x412522b1b98f365b
            )
        );
    }

    #[test]
    fn rnr_ignores_capacities() {
        let inst = capped_inst(0.01);
        let storer = inst.cache_nodes()[0];
        let rnr = rnr_binary(&inst, &[storer]).unwrap();
        let alg2 =
            solve_binary_caches_with_context(&inst, &[storer], 8, &SolverContext::new()).unwrap();
        // RNR is (weakly) cheaper but (weakly) more congested.
        assert!(rnr.cost(&inst) <= alg2.solution.cost(&inst) + 1e-6);
        assert!(rnr.congestion(&inst) + 1e-9 >= alg2.solution.congestion(&inst));
    }
}
