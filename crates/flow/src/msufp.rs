//! The paper's **Algorithm 2**: a bicriteria `(1+ε, 1)`-approximation for
//! the minimum-cost single-source unsplittable flow problem (MSUFP).
//!
//! Pipeline (paper §4.2.2):
//! 1. compute the optimal *splittable* flow by min-cost flow (line 1);
//! 2. convert it to per-commodity path flows (line 2, [`crate::decompose`]);
//! 3. round each demand down per Eq. (11) and reduce each commodity's most
//!    expensive paths first until the reduced total matches (lines 3–4);
//! 4. partition commodities into `K` classes per Eq. (12) so that each
//!    class's rounded demands differ by powers of two (line 5);
//! 5. round each class to an unsplittable flow with Skutella's algorithm
//!    ([`crate::unsplittable`], lines 6–7);
//! 6. route each *original* demand on its returned path (line 8).
//!
//! Theorem 4.7: the result costs no more than the optimal (unsplittable)
//! cost, and loads each link `e` by less than
//! `2^{1/K} c_e + 2^{1/K}/(2(2^{1/K}−1)) · λ_max`. With
//! `K = ⌈1/log₂(1+ε)⌉` and `λ_max ≪ c_min` this is a `(1+ε, 1)`
//! bicriteria approximation; `K = 2` recovers the state of the art \[33\].

use jcr_ctx::SolverContext;
use jcr_graph::{DiGraph, EdgeId, NodeId, Path};

use crate::decompose::decompose_single_source_with_context;
use crate::mincost::single_source_min_cost_flow_with_context;
use crate::unsplittable::{round_to_unsplittable, ClassCommodity};
use crate::{FlowError, PathFlow, FLOW_EPS};

/// A commodity of the MSUFP instance: demand `demand` from the common
/// source to `dest`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Demand {
    /// Destination node.
    pub dest: NodeId,
    /// Demand (must be positive).
    pub demand: f64,
}

/// Solution of the MSUFP instance.
#[derive(Clone, Debug)]
pub struct MsufpSolution {
    /// One routing path per input commodity, in input order.
    pub paths: Vec<Path>,
    /// Total routing cost `Σ_i λ_i · cost(p_i)` under the original demands.
    pub cost: f64,
    /// Cost of the optimal splittable flow (a lower bound on the optimal
    /// unsplittable cost).
    pub splittable_cost: f64,
    /// Load imposed on each link by the unsplittable solution.
    pub link_loads: Vec<f64>,
}

impl MsufpSolution {
    /// Maximum load-to-capacity ratio over links with finite capacity
    /// (the paper's congestion metric).
    pub fn congestion(&self, cap: &[f64]) -> f64 {
        self.link_loads
            .iter()
            .zip(cap)
            .filter(|(_, c)| c.is_finite() && **c > 0.0)
            .map(|(l, c)| l / c)
            .fold(0.0, f64::max)
    }
}

/// Solves MSUFP with the paper's Algorithm 2 using `k ≥ 1` demand-rounding
/// classes. The splittable min-cost flow (line 1) obeys the context's
/// `Phase::MinCostFlow` budget and the decomposition (line 2) feeds the
/// path counter.
///
/// # Errors
///
/// [`FlowError::Infeasible`] if even the splittable relaxation cannot
/// satisfy the demands; [`FlowError::Numerical`] on internal precision
/// loss; [`FlowError::Budget`] when a budget trips mid-solve.
///
/// # Panics
///
/// Panics if `k == 0` or a demand is non-positive.
pub fn solve_msufp_with_context(
    g: &DiGraph,
    cost: &[f64],
    cap: &[f64],
    source: NodeId,
    demands: &[Demand],
    k: u32,
    ctx: &SolverContext,
) -> Result<MsufpSolution, FlowError> {
    assert!(k >= 1, "K must be at least 1");
    assert!(
        demands.iter().all(|d| d.demand > 0.0),
        "demands must be positive"
    );
    if demands.is_empty() {
        return Ok(MsufpSolution {
            paths: Vec::new(),
            cost: 0.0,
            splittable_cost: 0.0,
            link_loads: vec![0.0; g.edge_count()],
        });
    }

    // Line 1: optimal splittable flow (demands aggregated by destination).
    let mut agg: Vec<f64> = vec![0.0; g.node_count()];
    for d in demands {
        agg[d.dest.index()] += d.demand;
    }
    let agg_demands: Vec<(NodeId, f64)> = (0..g.node_count())
        .filter(|&v| agg[v] > 0.0)
        .map(|v| (NodeId::new(v), agg[v]))
        .collect();
    let mcf = single_source_min_cost_flow_with_context(g, cost, cap, source, &agg_demands, ctx)?;

    // Line 2: per-destination path decomposition, then allocation of each
    // destination's path flows to its commodities.
    let dest_paths = decompose_single_source_with_context(g, &mcf.flow, source, &agg_demands, ctx)?;
    let holders = holders_by_dest(demands, &agg_demands);
    let mut per_commodity = allocate_paths_to_commodities(demands, holders, dest_paths);

    // Line 3: round demands per Eq. (11) via class offsets t_i:
    // t_i = −⌊K·log2(λ_i/λ_max)⌋ for λ_i < λ_max, and t_i = 1 for
    // λ_i = λ_max; the rounded demand is λ_max·2^{−t_i/K} ∈ (λ_i/2^{1/K}, λ_i].
    let lambda_max = demands.iter().map(|d| d.demand).fold(0.0f64, f64::max);
    let kf = f64::from(k);
    let mut t_of = Vec::with_capacity(demands.len());
    let mut rounded = Vec::with_capacity(demands.len());
    for d in demands {
        let t = if d.demand >= lambda_max * (1.0 - 1e-12) {
            1u64
        } else {
            let z = kf * (d.demand / lambda_max).log2();
            // z < 0 strictly; −⌊z⌋ ≥ 1.
            let t = -(z - 1e-12).floor();
            t as u64
        };
        t_of.push(t);
        rounded.push(lambda_max * (2f64).powf(-(t as f64) / kf));
    }

    // Line 4: reduce each commodity's most expensive paths first.
    for (idx, flows) in per_commodity.iter_mut().enumerate() {
        reduce_to(flows, rounded[idx], cost);
    }

    // Lines 5–7: partition by (t_i + j) ≡ 0 (mod K) and Skutella-round
    // each class. One `class_flow` buffer serves every class: it holds
    // `+0.0` off the class's support (the edges its members' paths use),
    // and only the support is zeroed again after the rounding, which
    // never writes off it.
    let mut paths: Vec<Option<Path>> = vec![None; demands.len()];
    let mut class_flow = vec![0.0; g.edge_count()];
    let mut support: Vec<EdgeId> = Vec::new();
    for members in class_members(&t_of, k) {
        if members.is_empty() {
            continue;
        }
        support.clear();
        for &i in &members {
            for pf in &per_commodity[i] {
                for &e in pf.path.edges() {
                    let f = &mut class_flow[e.index()];
                    if *f == 0.0 {
                        support.push(e);
                    }
                    *f += pf.amount;
                }
            }
        }
        support.sort_unstable();
        support.dedup();
        let class_commodities: Vec<ClassCommodity> = members
            .iter()
            .map(|&i| ClassCommodity {
                dest: demands[i].dest,
                demand: rounded[i],
            })
            .collect();
        let class_paths = round_to_unsplittable(
            g,
            cost,
            &mut class_flow,
            &support,
            source,
            &class_commodities,
        )?;
        for &e in &support {
            class_flow[e.index()] = 0.0;
        }
        for (path, &i) in class_paths.into_iter().zip(&members) {
            paths[i] = Some(path);
        }
    }

    // Line 8: route the original demands on the selected paths.
    let paths: Vec<Path> = paths
        .into_iter()
        .map(|p| p.expect("every commodity is in exactly one class"))
        .collect();
    let mut link_loads = vec![0.0; g.edge_count()];
    let mut total = 0.0;
    for (p, d) in paths.iter().zip(demands) {
        total += d.demand * p.cost(cost);
        for e in p.edges() {
            link_loads[e.index()] += d.demand;
        }
    }
    Ok(MsufpSolution {
        paths,
        cost: total,
        splittable_cost: mcf.cost,
        link_loads,
    })
}

/// The commodities of each class `j ∈ 0..K` (those with
/// `(t_i + j) ≡ 0 (mod K)`), in ascending order, bucketed in one pass.
fn class_members(t_of: &[u64], k: u32) -> Vec<Vec<usize>> {
    let k = u64::from(k);
    let mut classes = vec![Vec::new(); k as usize];
    for (i, &t) in t_of.iter().enumerate() {
        classes[((k - t % k) % k) as usize].push(i);
    }
    classes
}

/// The commodities of each aggregated destination, in input order.
fn holders_by_dest(demands: &[Demand], agg_demands: &[(NodeId, f64)]) -> Vec<Vec<usize>> {
    let n = agg_demands.last().map_or(0, |&(v, _)| v.index() + 1);
    let mut slot_of = vec![usize::MAX; n];
    for (slot, &(v, _)) in agg_demands.iter().enumerate() {
        slot_of[v.index()] = slot;
    }
    let mut holders = vec![Vec::new(); agg_demands.len()];
    for (i, d) in demands.iter().enumerate() {
        holders[slot_of[d.dest.index()]].push(i);
    }
    holders
}

/// Splits each destination's path flows among its commodities `holders`
/// (in input order), preserving total amounts.
fn allocate_paths_to_commodities(
    demands: &[Demand],
    holders: Vec<Vec<usize>>,
    dest_paths: Vec<Vec<PathFlow>>,
) -> Vec<Vec<PathFlow>> {
    let mut result: Vec<Vec<PathFlow>> = vec![Vec::new(); demands.len()];
    for (holders, paths) in holders.into_iter().zip(dest_paths) {
        let mut path_idx = 0;
        let mut path_left = paths.first().map_or(0.0, |p| p.amount);
        for &ci in &holders {
            let mut need = demands[ci].demand;
            while need > FLOW_EPS {
                if path_left <= FLOW_EPS {
                    path_idx += 1;
                    if path_idx >= paths.len() {
                        break;
                    }
                    path_left = paths[path_idx].amount;
                }
                let take = need.min(path_left);
                result[ci].push(PathFlow {
                    path: paths[path_idx].path.clone(),
                    amount: take,
                });
                need -= take;
                path_left -= take;
            }
        }
    }
    result
}

/// Reduces a commodity's path flows — most expensive paths first — until
/// the total equals `target`.
fn reduce_to(flows: &mut Vec<PathFlow>, target: f64, cost: &[f64]) {
    let total: f64 = flows.iter().map(|f| f.amount).sum();
    let mut excess = total - target;
    if excess <= 0.0 {
        return;
    }
    flows.sort_by(|a, b| {
        b.path
            .cost(cost)
            .partial_cmp(&a.path.cost(cost))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for f in flows.iter_mut() {
        if excess <= 0.0 {
            break;
        }
        let cut = f.amount.min(excess);
        f.amount -= cut;
        excess -= cut;
    }
    flows.retain(|f| f.amount > FLOW_EPS);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a fan network: source -> mid1/mid2 -> many leaves.
    fn fan() -> (DiGraph, NodeId, Vec<NodeId>, Vec<f64>, Vec<f64>) {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let m1 = g.add_node();
        let m2 = g.add_node();
        let mut cost = Vec::new();
        let mut cap = Vec::new();
        g.add_edge(s, m1);
        cost.push(1.0);
        cap.push(6.0);
        g.add_edge(s, m2);
        cost.push(2.0);
        cap.push(6.0);
        let mut leaves = Vec::new();
        for _ in 0..4 {
            let l = g.add_node();
            g.add_edge(m1, l);
            cost.push(1.0);
            cap.push(2.0);
            g.add_edge(m2, l);
            cost.push(1.0);
            cap.push(2.0);
            leaves.push(l);
        }
        (g, s, leaves, cost, cap)
    }

    #[test]
    fn bucketed_classes_and_holders_match_a_scan() {
        use jcr_ctx::rng::{Rng, SeedableRng, StdRng};
        let (g, s, leaves, cost, cap) = fan();
        let mut rng = StdRng::seed_from_u64(7);
        for k in [1u32, 2, 7, 1000] {
            for _ in 0..5 {
                let n = rng.gen_range(1..60);
                let t_of: Vec<u64> = (0..n).map(|_| rng.gen_range(0..3000)).collect();
                let scanned: Vec<Vec<usize>> = (0..u64::from(k))
                    .map(|j| {
                        (0..n)
                            .filter(|&i| (t_of[i] + j).is_multiple_of(u64::from(k)))
                            .collect()
                    })
                    .collect();
                assert_eq!(class_members(&t_of, k), scanned, "K={k}");

                // Per-commodity paths: demands on random leaves, split by
                // bucketed and by scanned destination holders.
                let demands: Vec<Demand> = (0..n.min(8))
                    .map(|_| Demand {
                        dest: leaves[rng.gen_range(0..leaves.len())],
                        demand: rng.gen_range(0.05..0.5),
                    })
                    .collect();
                let mut agg_demands: Vec<(NodeId, f64)> = Vec::new();
                for &l in &leaves {
                    let total: f64 = demands
                        .iter()
                        .filter(|d| d.dest == l)
                        .map(|d| d.demand)
                        .sum();
                    if total > 0.0 {
                        agg_demands.push((l, total));
                    }
                }
                let ctx = SolverContext::new();
                let mcf = single_source_min_cost_flow_with_context(
                    &g,
                    &cost,
                    &cap,
                    s,
                    &agg_demands,
                    &ctx,
                )
                .unwrap();
                let dest_paths =
                    decompose_single_source_with_context(&g, &mcf.flow, s, &agg_demands, &ctx)
                        .unwrap();
                let scanned_holders: Vec<Vec<usize>> = agg_demands
                    .iter()
                    .map(|&(v, _)| {
                        (0..demands.len())
                            .filter(|&i| demands[i].dest == v)
                            .collect()
                    })
                    .collect();
                let holders = holders_by_dest(&demands, &agg_demands);
                assert_eq!(holders, scanned_holders);
                assert_eq!(
                    allocate_paths_to_commodities(&demands, holders, dest_paths.clone()),
                    allocate_paths_to_commodities(&demands, scanned_holders, dest_paths)
                );
            }
        }
    }

    #[test]
    fn solves_feasible_fan() {
        let (g, s, leaves, cost, cap) = fan();
        let demands: Vec<Demand> = leaves
            .iter()
            .map(|&l| Demand {
                dest: l,
                demand: 1.0,
            })
            .collect();
        let sol = solve_msufp_with_context(&g, &cost, &cap, s, &demands, 4, &SolverContext::new())
            .unwrap();
        assert_eq!(sol.paths.len(), 4);
        for (p, d) in sol.paths.iter().zip(&demands) {
            assert!(p.is_valid(&g));
            assert_eq!(p.source(&g), Some(s));
            assert_eq!(p.target(&g), Some(d.dest));
        }
        // Theorem 4.7(i): cost ≤ optimal unsplittable ≤ ... but at minimum
        // it cannot exceed ... here every unsplittable routing costs ≥
        // splittable; our solution should cost no more than the exact
        // optimum, which for unit demands equals the splittable cost.
        assert!(sol.cost <= sol.splittable_cost + 1e-6);
    }

    #[test]
    fn congestion_bound_of_theorem_4_7() {
        let ctx = SolverContext::new();
        let (g, s, leaves, cost, cap) = fan();
        // Heterogeneous demands.
        let demands: Vec<Demand> = leaves
            .iter()
            .enumerate()
            .map(|(i, &l)| Demand {
                dest: l,
                demand: 0.4 + 0.37 * i as f64,
            })
            .collect();
        let lambda_max = demands.iter().map(|d| d.demand).fold(0.0, f64::max);
        for k in [1u32, 2, 4, 8] {
            let sol = solve_msufp_with_context(&g, &cost, &cap, s, &demands, k, &ctx).unwrap();
            let factor = (2f64).powf(1.0 / f64::from(k));
            for (e, &load) in sol.link_loads.iter().enumerate() {
                let bound = factor / (2.0 * (factor - 1.0)) * lambda_max + factor * cap[e];
                assert!(
                    load < bound + 1e-9,
                    "K={k}: load {load} ≥ bound {bound} on edge {e}"
                );
            }
            assert!(
                sol.cost <= sol.splittable_cost + 1e-6
                    || sol.cost <= sol.splittable_cost * 1.0 + 1e-6
            );
        }
    }

    #[test]
    fn infeasible_when_cut_too_small() {
        let ctx = SolverContext::new();
        let mut g = DiGraph::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t);
        let demands = [Demand {
            dest: t,
            demand: 5.0,
        }];
        let err = solve_msufp_with_context(&g, &[1.0], &[1.0], s, &demands, 2, &ctx).unwrap_err();
        assert_eq!(err, FlowError::Infeasible);
    }

    #[test]
    fn single_commodity_takes_cheapest_route() {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let a = g.add_node();
        let t = g.add_node();
        g.add_edge(s, a); // 0: cost 1
        g.add_edge(a, t); // 1: cost 1
        g.add_edge(s, t); // 2: cost 10
        let demands = [Demand {
            dest: t,
            demand: 1.0,
        }];
        let sol = solve_msufp_with_context(
            &g,
            &[1.0, 1.0, 10.0],
            &[5.0, 5.0, 5.0],
            s,
            &demands,
            3,
            &SolverContext::new(),
        )
        .unwrap();
        assert_eq!(sol.paths[0].nodes(&g), vec![s, a, t]);
        assert!((sol.cost - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_demands() {
        let mut g = DiGraph::new();
        let s = g.add_node();
        let sol = solve_msufp_with_context(&g, &[], &[], s, &[], 2, &SolverContext::new()).unwrap();
        assert!(sol.paths.is_empty());
        assert_eq!(sol.cost, 0.0);
    }

    #[test]
    fn larger_k_never_hurts_much_on_equal_demands() {
        let ctx = SolverContext::new();
        // With equal demands every K yields the same rounding structure.
        let (g, s, leaves, cost, cap) = fan();
        let demands: Vec<Demand> = leaves
            .iter()
            .map(|&l| Demand {
                dest: l,
                demand: 1.5,
            })
            .collect();
        let c1 = solve_msufp_with_context(&g, &cost, &cap, s, &demands, 1, &ctx)
            .unwrap()
            .cost;
        let c8 = solve_msufp_with_context(&g, &cost, &cap, s, &demands, 8, &ctx)
            .unwrap()
            .cost;
        assert!((c1 - c8).abs() < 1e-6);
    }
}
