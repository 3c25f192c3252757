//! The general case (§4.3.3): alternating optimization of content
//! placement and routing under arbitrary link/cache capacities.
//!
//! Starting from the feasible "serve everything from the origin" solution,
//! each iteration (i) re-optimizes the placement against the current
//! path-level routing (`(1 − 1/e)` pipage LP for equal-sized items, lazy
//! greedy for heterogeneous sizes — §4.3.1 / §5.2.3), then (ii)
//! re-optimizes source selection + routing against the new placement by
//! solving MMSFP in the auxiliary graph `G^x` (§4.3.2), randomized-rounded
//! to a single path per request under integral routing (IC-IR). A new
//! iterate is kept only if it lowers the routing cost (the paper's
//! acceptance rule, §4.3.3); the loop stops when no improvement remains
//! (the paper observes convergence within 10 iterations).
//!
//! Proposition 4.8: this scheme is a heuristic — it can stall in Nash
//! equilibria arbitrarily worse than the optimum (see
//! `tests/prop48_gadget.rs`) — but matches the paper's strong empirical
//! behaviour.

use jcr_ctx::rng::SeedableRng;
use jcr_ctx::rng::StdRng;
use jcr_ctx::{Phase, SolverContext};

use jcr_flow::multicommodity::{self, Commodity};

use crate::auxiliary::AuxiliaryGraph;
use crate::error::JcrError;
use crate::hetero;
use crate::instance::Instance;
use crate::placement::Placement;
use crate::placement_opt;
use crate::routing::{Routing, Solution};

/// How the placement subproblem is solved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementMethod {
    /// LP on Eq. (15) + pipage rounding (`1 − 1/e`; equal-sized items).
    PipageLp,
    /// Lazy greedy under knapsack constraints (`1/(1+p)`; any sizes).
    Greedy,
}

/// How the MMUFP (integral-routing) subproblem is approached — the two
/// heuristics the paper cites from \[26\] (§4.3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingMethod {
    /// LP relaxation (MMSFP by column generation) + randomized rounding.
    LpRandomizedRounding,
    /// Greedy sequential routing: commodities in decreasing demand order,
    /// each on the cheapest path with enough residual capacity.
    GreedySequential,
}

/// Configuration of the alternating optimization.
#[derive(Clone, Debug)]
pub struct Alternating {
    /// Maximum iterations (the paper converges within 10).
    pub max_iters: usize,
    /// Randomized-rounding draws per routing step (IC-IR).
    pub rounding_draws: usize,
    /// Integral (IC-IR) vs fractional (IC-FR) routing.
    pub integral_routing: bool,
    /// Placement subroutine; `None` picks by item-size homogeneity.
    pub placement: Option<PlacementMethod>,
    /// MMUFP heuristic used when routing is integral.
    pub routing: RoutingMethod,
    /// RNG seed for the randomized rounding.
    pub seed: u64,
}

impl Default for Alternating {
    fn default() -> Self {
        Alternating {
            max_iters: 15,
            rounding_draws: 10,
            integral_routing: true,
            placement: None,
            routing: RoutingMethod::LpRandomizedRounding,
            seed: 0,
        }
    }
}

/// Warm-start state carried from one alternating solve into the next
/// (e.g. from one online hour to the following); [`Warm::default`] means
/// cold. Both parts are best effort: a basis that no longer fits the
/// placement LP falls back to a cold solve, and stale columns are
/// revalidated and dropped, so warm state changes pivot and column counts,
/// never validity.
#[derive(Clone, Debug, Default)]
pub struct Warm {
    /// Simplex basis of the last placement LP solved.
    pub basis: Option<jcr_lp::Basis>,
    /// Active CG column pool of the accepted routing, as
    /// `(request index, auxiliary-graph node sequence)` pairs (see
    /// [`multicommodity::min_cost_multicommodity_with_context`]).
    pub columns: Vec<(usize, Vec<jcr_graph::NodeId>)>,
}

/// Outcome of the alternating optimization.
#[derive(Clone, Debug)]
pub struct AlternatingSolution {
    /// The best solution found.
    pub solution: Solution,
    /// `(cost, congestion)` of the accepted iterate after each iteration
    /// (starting with the initial origin-only solution).
    pub history: Vec<(f64, f64)>,
    /// Iterations executed before convergence.
    pub iterations: usize,
    /// Independent certificate the returned solution was verified against
    /// (link capacities not enforced: the randomized rounding is
    /// bicriteria, so slight overloads are legitimate and the residual is
    /// recorded rather than gated).
    pub certificate: jcr_ctx::cert::Certificate,
}

impl Alternating {
    /// Creates the default configuration (IC-IR, auto placement method).
    pub fn new() -> Self {
        Alternating::default()
    }

    /// Runs the alternating optimization from the empty-cache,
    /// origin-routing initial solution, cold. The context's deadline and
    /// `Phase::Alternating` iteration cap bound the outer loop, and the
    /// inner LP/flow solvers inherit its budgets and record their
    /// statistics.
    ///
    /// # Errors
    ///
    /// [`JcrError::Infeasible`] if even the origin-only routing cannot
    /// satisfy the demands within the link capacities;
    /// [`JcrError::BudgetExceeded`] when a budget trips — carrying the best
    /// feasible incumbent found so far whenever at least one iterate
    /// completed.
    pub fn solve_with_context(
        &self,
        inst: &Instance,
        ctx: &SolverContext,
    ) -> Result<AlternatingSolution, JcrError> {
        self.solve_warm(inst, Placement::empty(inst), &Warm::default(), ctx)
            .map(|(solution, _)| solution)
    }

    /// Runs the alternating optimization from a given initial placement
    /// with carried [`Warm`] state — the warm start used by hourly
    /// re-optimization ([`crate::online`]), where the previous hour's
    /// placement, LP basis and CG columns seed the next hour's search.
    ///
    /// `warm.basis` seeds the first placement LP; within the run, each
    /// alternating iteration's placement LP warm-starts from the previous
    /// iteration's basis. Incompatible snapshots (the segment structure
    /// moved with the routing) silently fall back to a cold solve, so the
    /// optimization trajectory is unaffected — only the simplex pivot
    /// counts change. `warm.columns` warms the *initial* routing solve
    /// only; iteration-internal routing re-solves stay unseeded, so with
    /// empty columns the trajectory is exactly the cold one.
    ///
    /// Returns the solution and the state for the next call: the basis of
    /// the last placement LP this run solved (the carried one if it solved
    /// none) and the active column pool of the accepted routing.
    ///
    /// # Errors
    ///
    /// Same as [`Alternating::solve_with_context`]; the initial placement
    /// must be capacity-feasible. Stale carried columns are dropped by
    /// revalidation, never an error.
    pub fn solve_warm(
        &self,
        inst: &Instance,
        initial: Placement,
        warm: &Warm,
        ctx: &SolverContext,
    ) -> Result<(AlternatingSolution, Warm), JcrError> {
        let _span = ctx.span("alt.solve");
        let method = self.placement.unwrap_or(if inst.homogeneous() {
            PlacementMethod::PipageLp
        } else {
            PlacementMethod::Greedy
        });
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x616c_7465_726e);
        let mut lp_basis: Option<jcr_lp::Basis> = warm.basis.clone();

        // Warm the all-pairs cache through the context so the per-source
        // Dijkstra runs fan out over the pool (and are counted) instead of
        // materializing serially inside some later helper.
        inst.all_pairs_with_context(ctx);

        // Initial feasible solution: the given placement, routed optimally.
        // A budget tripping here surfaces without an incumbent — nothing
        // feasible has been constructed yet.
        let mut best_placement = initial;
        let (mut best_routing, mut best_pool) = {
            let _r = ctx.span("alt.routing");
            self.route(inst, &best_placement, &warm.columns, &mut rng, ctx)?
        };
        let mut best_key = solution_key(inst, &best_routing);
        let mut history = vec![best_key];
        let mut iterations = 0;

        for _t in 0..self.max_iters {
            // An `Alternating` phase cap of k admits exactly k full
            // iterations; the deadline is re-checked here too. Either way
            // the initial (or best prior) iterate is a feasible incumbent.
            if let Err(b) = ctx.check(Phase::Alternating) {
                return Err(budget_with_incumbent(b, best_placement, best_routing));
            }
            iterations += 1;
            let _round = ctx.span("alt.round");
            // (1) placement step against the current routing.
            let placement = {
                let _p = ctx.span("alt.placement");
                match method {
                    PlacementMethod::PipageLp => {
                        match placement_opt::optimize_placement_warm(
                            inst,
                            &best_routing,
                            false,
                            ctx,
                            lp_basis.as_ref(),
                        ) {
                            Ok((p, basis)) => {
                                if basis.is_some() {
                                    lp_basis = basis;
                                }
                                p
                            }
                            Err(e) => {
                                return Err(attach_incumbent(e, best_placement, best_routing))
                            }
                        }
                    }
                    PlacementMethod::Greedy => {
                        hetero::greedy_placement_given_routing(inst, &best_routing)
                    }
                }
            };
            // (2) routing step against the new placement. Unseeded: only
            // the initial route above consumes the carried pool, so the
            // no-carry trajectory is unchanged.
            let (routing, pool) = {
                let _r = ctx.span("alt.routing");
                match self.route(inst, &placement, &[], &mut rng, ctx) {
                    Ok(r) => r,
                    Err(e) => return Err(attach_incumbent(e, best_placement, best_routing)),
                }
            };
            let key = solution_key(inst, &routing);
            // Retain the new solution only if it lowers the cost (§4.3.3).
            // The MMSFP step respects capacities, so the randomized
            // rounding keeps congestion near 1 — matching the paper's
            // "low congestion" observation — without gating acceptance.
            let improves = key.1 < best_key.1 * (1.0 - 1e-9) - 1e-12;
            if improves {
                best_key = key;
                best_placement = placement;
                best_routing = routing;
                best_pool = pool;
                history.push(key);
            } else {
                history.push(best_key);
                break;
            }
        }
        let solution = Solution {
            placement: best_placement,
            routing: best_routing,
        };
        let certificate = crate::certify::certify_solution(inst, &solution, false);
        certificate.record(ctx);
        if !certificate.verified() {
            return Err(JcrError::NumericalBreakdown(certificate.failure_summary()));
        }
        Ok((
            AlternatingSolution {
                solution,
                history,
                iterations,
                certificate,
            },
            Warm {
                basis: lp_basis,
                columns: best_pool,
            },
        ))
    }

    /// The routing subproblem given a placement (§4.3.2), exposed for
    /// ablations and the Proposition 4.8 analysis.
    ///
    /// # Errors
    ///
    /// [`JcrError::Infeasible`] if the demands cannot be routed (even
    /// fractionally) within the link capacities;
    /// [`JcrError::BudgetExceeded`] when a budget trips.
    pub fn route_given_placement_with_context(
        &self,
        inst: &Instance,
        placement: &Placement,
        ctx: &SolverContext,
    ) -> Result<Routing, JcrError> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x0072_6f75_7465);
        self.route(inst, placement, &[], &mut rng, ctx)
            .map(|(routing, _)| routing)
    }

    /// The routing subproblem: MMSFP in `G^x` by column generation, plus
    /// an MMUFP heuristic for integral routing. Returns the routing and
    /// the active CG column pool (empty for greedy routing).
    #[allow(clippy::type_complexity)]
    fn route(
        &self,
        inst: &Instance,
        placement: &Placement,
        seeds: &[(usize, Vec<jcr_graph::NodeId>)],
        rng: &mut StdRng,
        ctx: &SolverContext,
    ) -> Result<(Routing, Vec<(usize, Vec<jcr_graph::NodeId>)>), JcrError> {
        let aux = AuxiliaryGraph::per_item(inst, placement);
        let commodities: Vec<Commodity> = inst
            .requests
            .iter()
            .map(|r| Commodity {
                source: aux.item_source[r.item],
                dest: r.node,
                demand: r.rate,
            })
            .collect();
        if self.integral_routing && self.routing == RoutingMethod::GreedySequential {
            let greedy = multicommodity::greedy_unsplittable_with_context(
                &aux.graph,
                &aux.cost,
                &aux.cap,
                &commodities,
                ctx,
            )?;
            return Ok((
                Routing {
                    per_request: greedy
                        .paths
                        .into_iter()
                        .zip(&inst.requests)
                        .map(|(p, r)| {
                            vec![jcr_flow::PathFlow {
                                path: aux.strip_virtual(p),
                                amount: r.rate,
                            }]
                        })
                        .collect(),
                },
                Vec::new(),
            ));
        }
        let (mcf, pool) = multicommodity::min_cost_multicommodity_with_context(
            &aux.graph,
            &aux.cost,
            &aux.cap,
            &commodities,
            seeds,
            ctx,
        )?;
        if self.integral_routing {
            let rounded = multicommodity::randomized_rounding_with_context(
                &aux.graph,
                &aux.cost,
                &aux.cap,
                &commodities,
                &mcf,
                self.rounding_draws.max(1),
                rng,
                ctx,
            );
            Ok((
                Routing {
                    per_request: rounded
                        .paths
                        .into_iter()
                        .zip(&inst.requests)
                        .map(|(p, r)| {
                            vec![jcr_flow::PathFlow {
                                path: aux.strip_virtual(p),
                                amount: r.rate,
                            }]
                        })
                        .collect(),
                },
                pool,
            ))
        } else {
            Ok((
                Routing {
                    per_request: mcf
                        .path_flows
                        .into_iter()
                        .map(|flows| {
                            flows
                                .into_iter()
                                .map(|pf| jcr_flow::PathFlow {
                                    path: aux.strip_virtual(pf.path),
                                    amount: pf.amount,
                                })
                                .collect()
                        })
                        .collect(),
                },
                pool,
            ))
        }
    }
}

/// Wraps a tripped budget into [`JcrError::BudgetExceeded`] carrying the
/// given feasible incumbent.
fn budget_with_incumbent(
    b: jcr_ctx::BudgetExceeded,
    placement: Placement,
    routing: Routing,
) -> JcrError {
    JcrError::BudgetExceeded {
        phase: b.phase,
        best_so_far: Some(Box::new(Solution { placement, routing })),
    }
}

/// Attaches the incumbent to a budget error bubbling up from an inner
/// solver (which has no feasible solution to offer); other errors pass
/// through unchanged.
fn attach_incumbent(e: JcrError, placement: Placement, routing: Routing) -> JcrError {
    match e {
        JcrError::BudgetExceeded {
            phase,
            best_so_far: None,
        } => JcrError::BudgetExceeded {
            phase,
            best_so_far: Some(Box::new(Solution { placement, routing })),
        },
        other => other,
    }
}

/// Lexicographic quality key: congestion beyond capacity first, then cost.
fn solution_key(inst: &Instance, routing: &Routing) -> (f64, f64) {
    let congestion = routing.congestion(inst);
    (congestion.max(1.0), routing.cost(inst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::rnr;
    use jcr_topo::{Topology, TopologyKind};

    fn chunk_inst(seed: u64) -> Instance {
        InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, seed).unwrap())
            .items(10)
            .cache_capacity(3.0)
            .zipf_demand(0.8, 1000.0, seed)
            .link_capacity_fraction(0.02)
            .build()
            .unwrap()
    }

    #[test]
    fn improves_over_origin_only_and_converges() {
        let ctx = SolverContext::new();
        let inst = chunk_inst(7);
        let result = Alternating::new().solve_with_context(&inst, &ctx).unwrap();
        let sol = &result.solution;
        assert!(sol.placement.is_feasible(&inst));
        assert!(sol.routing.serves_all(&inst));
        assert!(sol.routing.is_integral());
        assert!(sol.routing.sources_valid(&inst, &sol.placement));
        // The first history entry is origin-only; the final must be
        // cheaper, with congestion staying near capacity (the paper's
        // "low congestion" observation).
        let first = result.history[0];
        let last = *result.history.last().unwrap();
        assert!(
            last.1 < first.1,
            "cost should strictly improve: {first:?} → {last:?}"
        );
        assert!(last.0 < 3.0, "congestion should stay low, got {}", last.0);
        // Convergence within the budget.
        assert!(result.iterations <= 15);
    }

    #[test]
    fn fractional_routing_never_costlier_than_integral() {
        let ctx = SolverContext::new();
        let inst = chunk_inst(9);
        let integral = Alternating {
            seed: 1,
            ..Alternating::default()
        }
        .solve_with_context(&inst, &ctx)
        .unwrap();
        let fractional = Alternating {
            integral_routing: false,
            seed: 1,
            ..Alternating::default()
        }
        .solve_with_context(&inst, &ctx)
        .unwrap();
        // IC-FR lower-bounds IC-IR when both use the same placements; with
        // independent runs we only assert the robust direction: fractional
        // congestion stays within capacity.
        assert!(fractional.solution.congestion(&inst) <= 1.0 + 1e-6);
        assert!(fractional.solution.cost(&inst) > 0.0);
        assert!(integral.solution.cost(&inst) > 0.0);
    }

    #[test]
    fn hetero_uses_greedy_automatically() {
        let ctx = SolverContext::new();
        let inst = InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 11).unwrap())
            .item_sizes(vec![4.5, 6.1, 7.5, 3.9, 8.5])
            .cache_capacity(12.0)
            .zipf_demand(0.8, 500.0, 11)
            .link_capacity_fraction(0.05)
            .build()
            .unwrap();
        let result = Alternating::new().solve_with_context(&inst, &ctx).unwrap();
        assert!(result.solution.placement.is_feasible(&inst));
        assert!(result.solution.routing.serves_all(&inst));
    }

    #[test]
    fn greedy_routing_method_also_works() {
        let ctx = SolverContext::new();
        let inst = chunk_inst(21);
        let result = Alternating {
            routing: RoutingMethod::GreedySequential,
            ..Alternating::default()
        }
        .solve_with_context(&inst, &ctx)
        .unwrap();
        let sol = &result.solution;
        assert!(sol.routing.serves_all(&inst));
        assert!(sol.routing.is_integral());
        assert!(sol.routing.sources_valid(&inst, &sol.placement));
        // Both heuristics should land in the same ballpark.
        let lp_based = Alternating::new().solve_with_context(&inst, &ctx).unwrap();
        let (g, l) = (sol.cost(&inst), lp_based.solution.cost(&inst));
        assert!(g < 3.0 * l && l < 3.0 * g, "greedy {g} vs LP-rounding {l}");
    }

    #[test]
    fn respects_capacity_better_than_rnr() {
        let ctx = SolverContext::new();
        // Tight capacities: RNR piles load on cheap links; alternating
        // keeps congestion low.
        let inst = chunk_inst(13);
        let result = Alternating::new().solve_with_context(&inst, &ctx).unwrap();
        let alt_congestion = result.solution.congestion(&inst);
        // Compare against RNR with the same placement.
        let rnr_routing = rnr::route_to_nearest_replica(&inst, &result.solution.placement).unwrap();
        let rnr_congestion = rnr_routing.congestion(&inst);
        assert!(
            alt_congestion <= rnr_congestion + 1e-9,
            "alternating {alt_congestion} vs RNR {rnr_congestion}"
        );
    }
}
