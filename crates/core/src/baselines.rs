//! The state-of-the-art baselines evaluated in §6:
//!
//! * **\[3\] (Ioannidis & Yeh)** — joint caching and routing restricted to a
//!   set of *candidate paths* (the `k` shortest origin→requester paths,
//!   the paper's recommended construction), ignoring link capacities.
//!   Evaluated as `k shortest paths` (routing on the chosen candidate),
//!   `SP + RNR` (`k = 1`, then re-routed to the nearest replica), and
//!   `k-SP + RNR`.
//! * **\[38\]** — content placement along fixed shortest paths to the origin
//!   (`shortest path` / `SP`).
//!
//! Both baselines pre-determine their candidate paths from the origin's
//! location, which is exactly why they underuse caches on arbitrary
//! topologies (the paper's headline comparison).

use jcr_graph::{shortest, Path};

use crate::error::JcrError;
use crate::instance::Instance;
use crate::placement::Placement;
use crate::placement_opt;
use crate::rnr;
use crate::routing::{Routing, Solution};

/// How a candidate-path baseline turns its placement into final routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidateRouting {
    /// Serve along the chosen candidate path, truncated at the first
    /// storer (the uncapacitated evaluation of Fig. 5).
    OnPath,
    /// Re-route every request to its nearest replica (the `… + RNR`
    /// variants of Figs. 7–8).
    Rnr,
}

/// The candidate-path baseline of Ioannidis & Yeh \[3\].
#[derive(Clone, Copy, Debug)]
pub struct IoannidisYeh {
    /// Number of candidate (shortest origin→requester) paths per request;
    /// the paper's recommended default is 10.
    pub k: usize,
    /// Final routing mode.
    pub routing: CandidateRouting,
    /// Rounds of alternating placement ↔ candidate-path selection.
    pub refine_rounds: usize,
}

impl IoannidisYeh {
    /// The `k shortest paths` configuration of Fig. 5.
    pub fn k_shortest(k: usize) -> Self {
        IoannidisYeh {
            k,
            routing: CandidateRouting::OnPath,
            refine_rounds: 3,
        }
    }

    /// The `SP + RNR` configuration (single candidate path).
    pub fn sp_rnr() -> Self {
        IoannidisYeh {
            k: 1,
            routing: CandidateRouting::Rnr,
            refine_rounds: 1,
        }
    }

    /// The `k-SP + RNR` configuration.
    pub fn ksp_rnr(k: usize) -> Self {
        IoannidisYeh {
            k,
            routing: CandidateRouting::Rnr,
            refine_rounds: 3,
        }
    }

    /// Runs the baseline. The candidate-path Dijkstras are counted and the
    /// placement LPs obey the context's simplex budget.
    ///
    /// # Errors
    ///
    /// [`JcrError::Infeasible`] if a requester is unreachable from the
    /// origin; LP failures are propagated; [`JcrError::BudgetExceeded`]
    /// when the budget trips.
    pub fn solve_with_context(
        &self,
        inst: &Instance,
        ctx: &jcr_ctx::SolverContext,
    ) -> Result<Solution, JcrError> {
        let origin = inst.origin.ok_or_else(|| {
            JcrError::InvalidInstance("candidate-path baselines need an origin".into())
        })?;
        // Candidate paths: k shortest origin→s per request (shared across
        // requests at the same node).
        let mut per_node_paths: Vec<Option<Vec<Path>>> = vec![None; inst.graph.node_count()];
        let mut candidates: Vec<Vec<Path>> = Vec::with_capacity(inst.requests.len());
        for r in &inst.requests {
            if per_node_paths[r.node.index()].is_none() {
                let paths = shortest::k_shortest_paths_with_context(
                    &inst.graph,
                    origin,
                    r.node,
                    self.k.max(1),
                    &inst.link_cost,
                    ctx,
                );
                if paths.is_empty() {
                    return Err(JcrError::Infeasible);
                }
                per_node_paths[r.node.index()] = Some(paths);
            }
            candidates.push(per_node_paths[r.node.index()].clone().expect("filled"));
        }

        // Alternate placement optimization and candidate-path selection.
        // The first round mirrors [3]'s joint relaxation, which spreads
        // routing mass over *all* candidates: the placement is optimized
        // against the uniform path mixture, so candidate paths beyond the
        // shortest genuinely influence it (and k matters).
        let mut chosen: Vec<usize> = vec![0; inst.requests.len()];
        let mut placement = Placement::empty(inst);
        for round in 0..self.refine_rounds.max(1) {
            if round == 0 && self.k > 1 {
                // Seed from the candidate mixture with lazy greedy: the
                // mixture multiplies the LP's size by the number of mixed
                // paths, while greedy handles it in near-linear time.
                let routing = routing_from_mixture(inst, &candidates);
                placement = crate::hetero::greedy_placement_given_routing(inst, &routing);
            } else {
                let routing = routing_from_chosen(inst, &candidates, &chosen);
                placement = placement_opt::optimize_placement_with_context(
                    inst,
                    &routing,
                    !inst.homogeneous(),
                    ctx,
                )?;
            }
            // Re-select the candidate minimizing the truncated cost.
            let mut changed = false;
            for (ri, r) in inst.requests.iter().enumerate() {
                let best = (0..candidates[ri].len())
                    .min_by(|&a, &b| {
                        let ca = truncate_at_storer(inst, &candidates[ri][a], r.item, &placement)
                            .cost(&inst.link_cost);
                        let cb = truncate_at_storer(inst, &candidates[ri][b], r.item, &placement)
                            .cost(&inst.link_cost);
                        ca.partial_cmp(&cb).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("non-empty candidates");
                if best != chosen[ri] {
                    chosen[ri] = best;
                    changed = true;
                }
            }
            if !changed && round > 0 {
                break;
            }
        }

        let routing = match self.routing {
            CandidateRouting::OnPath => {
                let paths: Vec<Path> = inst
                    .requests
                    .iter()
                    .enumerate()
                    .map(|(ri, r)| {
                        truncate_at_storer(inst, &candidates[ri][chosen[ri]], r.item, &placement)
                    })
                    .collect();
                Routing::from_paths(inst, paths)
            }
            CandidateRouting::Rnr => {
                rnr::route_to_nearest_replica(inst, &placement).ok_or(JcrError::Infeasible)?
            }
        };
        Ok(Solution { placement, routing })
    }
}

/// The shortest-path placement baseline of \[38\] (`shortest path` / `SP`):
/// placement optimized against fixed shortest origin→requester paths,
/// served along those paths truncated at the first storer.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShortestPathPlacement;

impl ShortestPathPlacement {
    /// Runs the baseline.
    ///
    /// # Errors
    ///
    /// Same as [`IoannidisYeh::solve_with_context`].
    pub fn solve_with_context(
        &self,
        inst: &Instance,
        ctx: &jcr_ctx::SolverContext,
    ) -> Result<Solution, JcrError> {
        IoannidisYeh {
            k: 1,
            routing: CandidateRouting::OnPath,
            refine_rounds: 1,
        }
        .solve_with_context(inst, ctx)
    }
}

/// Truncates a source→requester path at the storer closest to the
/// requester (the requester itself first; the path's source — typically
/// the origin — guarantees a fallback).
pub(crate) fn truncate_at_storer(
    inst: &Instance,
    path: &Path,
    item: usize,
    placement: &Placement,
) -> Path {
    let nodes = path.nodes(&inst.graph);
    if nodes.is_empty() {
        return path.clone();
    }
    let n = nodes.len();
    for j in (0..n).rev() {
        if placement.has_with_origin(inst, nodes[j], item) {
            return Path::new(path.edges()[j..].to_vec());
        }
    }
    path.clone()
}

/// The uniform fractional mixture over each request's candidate paths —
/// the routing the first placement round of [3]'s relaxation sees.
fn routing_from_mixture(inst: &Instance, candidates: &[Vec<Path>]) -> Routing {
    Routing {
        per_request: inst
            .requests
            .iter()
            .enumerate()
            .map(|(ri, r)| {
                let share = r.rate / candidates[ri].len() as f64;
                candidates[ri]
                    .iter()
                    .map(|p| jcr_flow::PathFlow {
                        path: p.clone(),
                        amount: share,
                    })
                    .collect()
            })
            .collect(),
    }
}

fn routing_from_chosen(inst: &Instance, candidates: &[Vec<Path>], chosen: &[usize]) -> Routing {
    Routing {
        per_request: inst
            .requests
            .iter()
            .enumerate()
            .map(|(ri, r)| {
                vec![jcr_flow::PathFlow {
                    path: candidates[ri][chosen[ri]].clone(),
                    amount: r.rate,
                }]
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg1::Algorithm1;
    use crate::instance::InstanceBuilder;
    use jcr_ctx::SolverContext;
    use jcr_topo::{Topology, TopologyKind};

    fn inst(seed: u64) -> Instance {
        // Kept small: the k = 10 mixture LP is the slowest test in the
        // crate under the debug profile.
        InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, seed).unwrap())
            .items(6)
            .cache_capacity(2.0)
            .zipf_demand(0.8, 300.0, seed)
            .build()
            .unwrap()
    }

    #[test]
    fn sp_baseline_feasible_on_homogeneous() {
        let inst = inst(23);
        let sol = ShortestPathPlacement
            .solve_with_context(&inst, &SolverContext::new())
            .unwrap();
        assert!(sol.placement.is_feasible(&inst));
        assert!(sol.routing.serves_all(&inst));
        assert!(sol.routing.sources_valid(&inst, &sol.placement));
    }

    #[test]
    fn truncation_stops_at_requester_cache() {
        let inst = inst(24);
        let r = inst.requests[0];
        let origin = inst.origin.unwrap();
        let full = inst.all_pairs().path(origin, r.node).unwrap();
        let mut p = Placement::empty(&inst);
        p.set(r.node, r.item, true);
        let t = truncate_at_storer(&inst, &full, r.item, &p);
        assert!(t.is_empty(), "cached at requester → zero-hop response");
        let t2 = truncate_at_storer(&inst, &full, r.item, &Placement::empty(&inst));
        assert_eq!(t2, full, "nothing cached → full path from origin");
    }

    #[test]
    fn alg1_beats_candidate_baselines_on_cost() {
        let ctx = SolverContext::new();
        // The paper's headline comparison (Fig. 5): Algorithm 1 optimizes
        // over all paths, the baselines only over origin-anchored ones.
        let mut alg1_wins = 0;
        let trials = 3;
        for seed in 40..40 + trials {
            let inst = inst(seed);
            let ours = Algorithm1::new()
                .solve_with_context(&inst, &ctx)
                .unwrap()
                .cost(&inst);
            let ksp = IoannidisYeh::k_shortest(10)
                .solve_with_context(&inst, &ctx)
                .unwrap()
                .cost(&inst);
            let sp = ShortestPathPlacement
                .solve_with_context(&inst, &ctx)
                .unwrap()
                .cost(&inst);
            assert!(ours <= ksp + 1e-6, "seed {seed}: ours {ours} > ksp {ksp}");
            if ours < ksp - 1e-6 && ours < sp - 1e-6 {
                alg1_wins += 1;
            }
        }
        assert!(
            alg1_wins >= trials / 2,
            "Algorithm 1 should usually win strictly"
        );
    }

    #[test]
    fn more_candidates_never_hurt() {
        let ctx = SolverContext::new();
        let inst = inst(29);
        let c1 = IoannidisYeh::k_shortest(1)
            .solve_with_context(&inst, &ctx)
            .unwrap()
            .cost(&inst);
        let c10 = IoannidisYeh::k_shortest(10)
            .solve_with_context(&inst, &ctx)
            .unwrap()
            .cost(&inst);
        assert!(c10 <= c1 + 1e-6, "k=10 ({c10}) worse than k=1 ({c1})");
    }

    #[test]
    fn hetero_baselines_overflow_caches() {
        // Fig. 5, file level: the baselines' placements are infeasible
        // because their rounding ignores item sizes.
        let mut any_overflow = false;
        for seed in 60..64 {
            let inst =
                InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, seed).unwrap())
                    .item_sizes(vec![4.5, 6.1, 7.5, 3.9, 8.5, 4.3, 1.6, 7.1, 1.6, 3.1])
                    .cache_capacity(10.0)
                    .zipf_demand(0.8, 300.0, seed)
                    .build()
                    .unwrap();
            let sol = IoannidisYeh::k_shortest(10)
                .solve_with_context(&inst, &SolverContext::new())
                .unwrap();
            if sol.placement.max_occupancy_ratio(&inst) > 1.0 + 1e-9 {
                any_overflow = true;
            }
        }
        assert!(
            any_overflow,
            "size-oblivious rounding should overflow somewhere"
        );
    }

    #[test]
    fn rnr_variants_route_to_nearest() {
        let inst = inst(31);
        let sol = IoannidisYeh::sp_rnr()
            .solve_with_context(&inst, &SolverContext::new())
            .unwrap();
        // Every path must be a least-cost path from its source.
        let ap = inst.all_pairs();
        for (r, flows) in inst.requests.iter().zip(&sol.routing.per_request) {
            let pf = &flows[0];
            if let Some(src) = pf.path.source(&inst.graph) {
                assert!((pf.path.cost(&inst.link_cost) - ap.dist(src, r.node)).abs() < 1e-9);
            }
        }
    }
}
