//! Fractional caching + fractional routing (FC-FR): the one
//! polynomial-time case of the complexity matrix (Fig. 1).
//!
//! Two solvers are provided:
//!
//! * [`solve_fcfr_with_context`] builds the LP (1) in full — `O(|R||E|)`
//!   flow variables and `O(|R||V|)` conservation rows — exact but only
//!   practical on moderate instances;
//! * [`solve_fcfr_cg_with_context`] solves the same LP by **column generation** over
//!   source-anchored paths: the master holds the placement variables `x`,
//!   link-capacity rows, per-request demand rows, and the linking rows
//!   `Σ_{p from v} f_p ≤ λ_{(i,s)} x_{vi}` (constraint (1e)); pricing runs
//!   one Dijkstra per potential source under reduced costs. This scales to
//!   the paper's full evaluation setting.

use jcr_ctx::{Counter, Phase, SolverContext};
use jcr_graph::{shortest, NodeId};
use jcr_lp::{Model, Sense, VarId};

use crate::error::JcrError;
use crate::instance::Instance;
use crate::placement_opt;

/// Result of the exact FC-FR LP.
#[derive(Clone, Debug)]
pub struct FcfrSolution {
    /// The optimal objective (1a): a lower bound on every other case's
    /// cost (IC-FR, IC-IR).
    pub cost: f64,
    /// Fractional placement `x[cache-node position][item]` (cache nodes in
    /// [`Instance::cache_nodes`] order).
    pub x: Vec<Vec<f64>>,
}

/// Solves optimization (1) under fractional caching and fractional
/// routing. The LP obeys the context's simplex budget and records its
/// statistics.
///
/// # Errors
///
/// [`JcrError::Infeasible`] when the demands cannot be met within link
/// capacities; LP failures are propagated; [`JcrError::BudgetExceeded`]
/// when the budget trips.
pub fn solve_fcfr_with_context(
    inst: &Instance,
    ctx: &SolverContext,
) -> Result<FcfrSolution, JcrError> {
    let n_nodes = inst.graph.node_count();
    let n_edges = inst.graph.edge_count();
    let cache_nodes = inst.cache_nodes();
    let mut node_pos = vec![None; n_nodes];
    for (k, &v) in cache_nodes.iter().enumerate() {
        node_pos[v.index()] = Some(k);
    }

    let mut model = Model::new(Sense::Minimize);
    let x_var = placement_opt::add_placement_vars(&mut model, inst, cache_nodes.len());
    // Flow variables per (request, edge) and source-selection variables
    // per (request, cache node / origin).
    let mut f_var: Vec<Vec<VarId>> = Vec::with_capacity(inst.requests.len());
    let mut r_var: Vec<Vec<VarId>> = Vec::with_capacity(inst.requests.len());
    let mut r_origin: Vec<Option<VarId>> = Vec::with_capacity(inst.requests.len());
    for req in &inst.requests {
        let f: Vec<VarId> = (0..n_edges)
            .map(|e| model.add_var(0.0, 1.0, req.rate * inst.link_cost[e]))
            .collect();
        let r: Vec<VarId> = cache_nodes
            .iter()
            .map(|_| model.add_var(0.0, 1.0, 0.0))
            .collect();
        let ro = inst.origin.map(|_| model.add_var(0.0, 1.0, 0.0));
        f_var.push(f);
        r_var.push(r);
        r_origin.push(ro);
    }

    // (1b) link capacities.
    for e in inst.graph.edges() {
        let cap = inst.link_cap[e.index()];
        if cap.is_finite() {
            let entries: Vec<_> = inst
                .requests
                .iter()
                .enumerate()
                .map(|(ri, req)| (f_var[ri][e.index()], req.rate))
                .collect();
            model.add_row(f64::NEG_INFINITY, cap, &entries);
        }
    }
    // (1c) flow conservation, (1d) sources sum to 1, (1e) r ≤ x.
    for (ri, req) in inst.requests.iter().enumerate() {
        for u in inst.graph.nodes() {
            let mut entries: Vec<(VarId, f64)> = Vec::new();
            for &e in inst.graph.out_edges(u) {
                entries.push((f_var[ri][e.index()], 1.0));
            }
            for &e in inst.graph.in_edges(u) {
                entries.push((f_var[ri][e.index()], -1.0));
            }
            if let Some(k) = node_pos[u.index()] {
                entries.push((r_var[ri][k], -1.0));
            }
            if Some(u) == inst.origin {
                if let Some(ro) = r_origin[ri] {
                    entries.push((ro, -1.0));
                }
            }
            let rhs = if u == req.node { -1.0 } else { 0.0 };
            model.add_row(rhs, rhs, &entries);
        }
        // (1d)
        let mut entries: Vec<(VarId, f64)> = r_var[ri].iter().map(|&v| (v, 1.0)).collect();
        if let Some(ro) = r_origin[ri] {
            entries.push((ro, 1.0));
        }
        model.add_row(1.0, 1.0, &entries);
        // (1e) r_v ≤ x_vi (origin's x ≡ 1 is its variable bound).
        for (k, _) in cache_nodes.iter().enumerate() {
            model.add_row(
                f64::NEG_INFINITY,
                0.0,
                &[
                    (r_var[ri][k], 1.0),
                    (x_var[k][req.item].expect("requested item"), -1.0),
                ],
            );
        }
    }
    // (1f) / (16) cache capacities.
    placement_opt::add_capacity_rows(&mut model, inst, &cache_nodes, &x_var);

    let lp = model.solve_with_context(ctx)?;
    Ok(FcfrSolution {
        cost: lp.objective,
        x: placement_values(&x_var, &lp.x),
    })
}

/// The catalog-wide fractional placement, `0.0` for unrequested items.
fn placement_values(x_var: &[Vec<Option<VarId>>], values: &[f64]) -> Vec<Vec<f64>> {
    x_var
        .iter()
        .map(|row| {
            row.iter()
                .map(|x| x.map_or(0.0, |x| values[x.index()]))
                .collect()
        })
        .collect()
}

/// Solves FC-FR by column generation over source-anchored paths — same
/// optimum as [`solve_fcfr_with_context`], practical at the paper's full
/// evaluation scale. The context's deadline and
/// `Phase::ColumnGeneration` iteration cap bound the pricing loop,
/// generated columns and Dijkstra runs are counted, and the master LP
/// solves inherit the context's simplex budget.
///
/// # Errors
///
/// [`JcrError::Infeasible`] when the demands cannot be met within link
/// capacities; LP failures are propagated; [`JcrError::BudgetExceeded`]
/// when a budget trips.
pub fn solve_fcfr_cg_with_context(
    inst: &Instance,
    ctx: &SolverContext,
) -> Result<FcfrSolution, JcrError> {
    let _s = ctx.phase_span("cg.fcfr", Phase::ColumnGeneration);
    let cache_nodes = inst.cache_nodes();
    let graph = &inst.graph;
    let big = 1e3
        + 10.0
            * inst
                .link_cost
                .iter()
                .copied()
                .filter(|c| c.is_finite())
                .sum::<f64>()
            * graph.node_count() as f64;

    // --- master -----------------------------------------------------------
    let mut model = Model::new(Sense::Minimize);
    let x_var = placement_opt::add_placement_vars(&mut model, inst, cache_nodes.len());
    let mut cap_row = vec![None; graph.edge_count()];
    for e in graph.edges() {
        let c = inst.link_cap[e.index()];
        if c.is_finite() {
            cap_row[e.index()] = Some(model.add_row(f64::NEG_INFINITY, c, &[]));
        }
    }
    let mut demand_rows = Vec::with_capacity(inst.requests.len());
    let mut link_rows: Vec<Vec<jcr_lp::ConId>> = Vec::with_capacity(inst.requests.len());
    for req in &inst.requests {
        demand_rows.push(model.add_row(req.rate, req.rate, &[]));
        // (1e): Σ_{p from v} f_p − λ x_{v,i} ≤ 0 per cache node.
        let rows = cache_nodes
            .iter()
            .enumerate()
            .map(|(vi, _)| {
                model.add_row(
                    f64::NEG_INFINITY,
                    0.0,
                    &[(x_var[vi][req.item].expect("requested item"), -req.rate)],
                )
            })
            .collect();
        link_rows.push(rows);
    }
    placement_opt::add_capacity_rows(&mut model, inst, &cache_nodes, &x_var);
    let mut artificials = Vec::with_capacity(inst.requests.len());
    for &row in &demand_rows {
        artificials.push(model.add_var_with_column(0.0, f64::INFINITY, big, &[(row, 1.0)]));
    }
    let mut solver = model.into_solver();

    // Sources: cache nodes (linked to x) plus the origin (free source).
    let mut sources: Vec<(NodeId, Option<usize>)> =
        cache_nodes.iter().map(|&v| (v, Some(v.index()))).collect();
    if let Some(o) = inst.origin {
        sources.push((o, None));
    }
    let mut node_pos = vec![None; graph.node_count()];
    for (k, &v) in cache_nodes.iter().enumerate() {
        node_pos[v.index()] = Some(k);
    }

    // Pricing reads each source's tree only at request nodes, so its
    // Dijkstra stops once those are settled.
    let mut targets: Vec<NodeId> = inst.requests.iter().map(|r| r.node).collect();
    targets.sort_unstable();
    targets.dedup();
    let mut scratch = shortest::DijkstraScratch::new();
    let mut path_buf = Vec::new();

    let max_rounds = 40 * inst.requests.len() + 2000;
    let mut solution = solver.solve_with_context(ctx)?;
    for _round in 0..max_rounds {
        ctx.check(Phase::ColumnGeneration)?;
        let mut weights = vec![0.0; graph.edge_count()];
        for e in graph.edges() {
            let y = cap_row[e.index()]
                .map(|r| solution.duals[r.index()])
                .unwrap_or(0.0);
            weights[e.index()] = (inst.link_cost[e.index()] - y).max(0.0);
        }
        let mut added = false;
        for &(src, src_node) in &sources {
            shortest::dijkstra_into_with_context(graph, src, &weights, &targets, &mut scratch, ctx);
            for (ri, req) in inst.requests.iter().enumerate() {
                if !scratch.path_into(graph, req.node, &mut path_buf) {
                    continue;
                }
                let sigma = solution.duals[demand_rows[ri].index()];
                let mu = match src_node {
                    Some(v) => {
                        let vi = node_pos[v].expect("cache node");
                        solution.duals[link_rows[ri][vi].index()]
                    }
                    None => 0.0,
                };
                let path_cost = |c: &[f64]| path_buf.iter().map(|e| c[e.index()]).sum::<f64>();
                let reduced = path_cost(&weights) - sigma - mu;
                if reduced < -1e-7 * (1.0 + sigma.abs() + mu.abs()) {
                    let mut column = vec![(demand_rows[ri], 1.0)];
                    if let Some(v) = src_node {
                        let vi = node_pos[v].expect("cache node");
                        column.push((link_rows[ri][vi], 1.0));
                    }
                    for e in &path_buf {
                        if let Some(r) = cap_row[e.index()] {
                            column.push((r, 1.0));
                        }
                    }
                    let obj = path_cost(&inst.link_cost);
                    solver.add_column(0.0, f64::INFINITY, obj, &column);
                    ctx.count(Counter::CgColumns, 1);
                    added = true;
                }
            }
        }
        if !added {
            break;
        }
        solution = solver.solve_with_context(ctx)?;
    }

    for &a in &artificials {
        if solution.x[a.index()] > 1e-6 {
            return Err(JcrError::Infeasible);
        }
    }
    Ok(FcfrSolution {
        cost: solution.objective,
        x: placement_values(&x_var, &solution.x),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg1::Algorithm1;
    use crate::alternating::Alternating;
    use crate::instance::InstanceBuilder;
    use jcr_topo::Topology;

    fn small_inst(seed: u64, capped: bool) -> Instance {
        let b = InstanceBuilder::new(Topology::generate_custom(8, 10, 2, seed).unwrap())
            .items(4)
            .cache_capacity(1.0)
            .zipf_demand(0.9, 60.0, seed);
        if capped {
            b.link_capacity_fraction(0.2)
        } else {
            b
        }
        .build()
        .unwrap()
    }

    #[test]
    fn lower_bounds_alg1_uncapacitated() {
        let ctx = SolverContext::new();
        for seed in 0..4 {
            let inst = small_inst(seed, false);
            let fcfr = solve_fcfr_with_context(&inst, &ctx).unwrap();
            let ic_ir = Algorithm1::new()
                .solve_with_context(&inst, &ctx)
                .unwrap()
                .cost(&inst);
            assert!(
                fcfr.cost <= ic_ir + 1e-6,
                "seed {seed}: FC-FR {} must lower-bound IC-IR {ic_ir}",
                fcfr.cost
            );
        }
    }

    #[test]
    fn lower_bounds_alternating_capacitated() {
        let ctx = SolverContext::new();
        let inst = small_inst(1, true);
        let fcfr = solve_fcfr_with_context(&inst, &ctx).unwrap();
        let alt = Alternating::new().solve_with_context(&inst, &ctx).unwrap();
        assert!(fcfr.cost <= alt.solution.cost(&inst) + 1e-6);
    }

    #[test]
    fn fractional_placement_within_capacity() {
        let inst = small_inst(2, true);
        let fcfr = solve_fcfr_with_context(&inst, &SolverContext::new()).unwrap();
        for (k, v) in inst.cache_nodes().iter().enumerate() {
            let mass: f64 = fcfr.x[k]
                .iter()
                .zip(&inst.item_size)
                .map(|(x, b)| x * b)
                .sum();
            assert!(mass <= inst.cache_cap[v.index()] + 1e-6);
        }
    }

    #[test]
    fn column_generation_matches_exact_lp() {
        let ctx = SolverContext::new();
        for seed in 0..4 {
            let inst = small_inst(seed, true);
            let exact = solve_fcfr_with_context(&inst, &ctx).unwrap();
            let cg = solve_fcfr_cg_with_context(&inst, &ctx).unwrap();
            assert!(
                (exact.cost - cg.cost).abs() < 1e-4 * (1.0 + exact.cost),
                "seed {seed}: exact {} vs CG {}",
                exact.cost,
                cg.cost
            );
        }
        // Uncapacitated too.
        let inst = small_inst(1, false);
        let exact = solve_fcfr_with_context(&inst, &ctx).unwrap();
        let cg = solve_fcfr_cg_with_context(&inst, &ctx).unwrap();
        assert!((exact.cost - cg.cost).abs() < 1e-4 * (1.0 + exact.cost));
    }

    #[test]
    fn column_generation_placement_feasible() {
        let inst = small_inst(3, true);
        let cg = solve_fcfr_cg_with_context(&inst, &SolverContext::new()).unwrap();
        for (k, v) in inst.cache_nodes().iter().enumerate() {
            let mass: f64 = cg.x[k]
                .iter()
                .zip(&inst.item_size)
                .map(|(x, b)| x * b)
                .sum();
            assert!(mass <= inst.cache_cap[v.index()] + 1e-6);
        }
    }

    #[test]
    fn zero_cost_when_everything_fits() {
        // Cache capacity ≥ catalog: FC-FR caches everything everywhere.
        let inst = InstanceBuilder::new(Topology::generate_custom(8, 10, 2, 3).unwrap())
            .items(2)
            .cache_capacity(2.0)
            .zipf_demand(0.9, 60.0, 3)
            .build()
            .unwrap();
        let fcfr = solve_fcfr_with_context(&inst, &SolverContext::new()).unwrap();
        assert!(fcfr.cost.abs() < 1e-6);
    }
}
