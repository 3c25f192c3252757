//! Minimum-cost multicommodity flow: the splittable problem (MMSFP) solved
//! exactly by column generation, and the NP-hard unsplittable variant
//! (MMUFP) approached with the heuristics the paper evaluates
//! (LP relaxation + randomized rounding, and greedy sequential routing).

use std::sync::Mutex;
use std::time::Instant;

use jcr_ctx::rng::Rng;
use jcr_ctx::{Counter, Phase, SolverContext};

/// `Nanos` histogram of per-round column-generation pricing latency (one
/// parallel Dijkstra sweep over the commodity sources, or the reuse of
/// the last sweep's trees).
pub const PRICING_ROUND_NS: &str = "cg.pricing_round_ns";

/// Named counter: carried seed columns accepted by revalidation.
pub const SEED_COLUMNS_ACCEPTED: &str = "cg.seed_accepted";
/// Named counter: carried seed columns rejected by revalidation.
pub const SEED_COLUMNS_REJECTED: &str = "cg.seed_rejected";
/// Named counter: pricing rounds whose weights were bit-equal to the last
/// Dijkstra round's, so its trees were repriced instead of recomputed.
pub const PRICING_ROUNDS_REUSED: &str = "cg.pricing_rounds_reused";

use jcr_graph::{shortest, DiGraph, EdgeId, NodeId, Path};
use jcr_lp::{Model, Sense};

use crate::{FlowError, PathFlow, FLOW_EPS};

/// A commodity: `demand` units to route from `source` to `dest`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Commodity {
    /// Origin of the commodity's flow.
    pub source: NodeId,
    /// Destination of the commodity's flow.
    pub dest: NodeId,
    /// Demand (must be positive).
    pub demand: f64,
}

/// An optimal splittable multicommodity flow, path-decomposed.
#[derive(Clone, Debug)]
pub struct McfSolution {
    /// Per-commodity path flows (same order as the input commodities).
    pub path_flows: Vec<Vec<PathFlow>>,
    /// Total routing cost.
    pub cost: f64,
    /// Best Lagrangian lower bound observed across pricing rounds
    /// (`Σ_e ŷ_e·cap_e + Σ_k d_k·sp_k(cost − ŷ)` with `ŷ = min(y, 0)`),
    /// or `−∞` if no finite bound was obtained.
    pub lower_bound: f64,
    /// Independent feasibility/optimality certificate (kind `"mmsfp"`).
    pub certificate: jcr_ctx::cert::Certificate,
}

impl McfSolution {
    /// Load imposed on each link.
    pub fn link_loads(&self, edge_count: usize) -> Vec<f64> {
        let mut loads = vec![0.0; edge_count];
        for flows in &self.path_flows {
            for pf in flows {
                for e in pf.path.edges() {
                    loads[e.index()] += pf.amount;
                }
            }
        }
        loads
    }
}

/// One source's last pricing result: for each of its commodities, in
/// commodity order, the tree path to the destination and its cost under
/// the pricing weights (`sp_cost`, `+∞` when unreachable).
type PricedTree = Vec<(Vec<EdgeId>, f64)>;

/// Solves the minimum-cost multicommodity *splittable* flow problem by
/// column generation: the master LP selects flow on generated paths
/// subject to link capacities and per-commodity demands, and the pricing
/// step finds a new least-reduced-cost path per commodity with Dijkstra.
/// The context's deadline and `Phase::ColumnGeneration` iteration cap
/// bound the pricing loop, generated columns and Dijkstra runs are
/// counted, and the master LP solves inherit the context's simplex budget.
///
/// Links with infinite capacity impose no master row. Costs must be
/// non-negative.
///
/// `seeds` is a carried **column pool** (empty means cold):
/// `(commodity index, node sequence)` paths from a previous,
/// near-identical solve, re-validated hop by hop against *this* graph,
/// cost vector, and commodity list, and added to the master before the
/// first solve so the pricing loop starts from a warm column set. Stale
/// seeds (missing edges, endpoint mismatch, non-simple or infinite-cost
/// paths, out-of-range commodity) are silently dropped — carried columns
/// are an optimization, never an obligation — with the outcome observable
/// via the `cg.seed_accepted` / `cg.seed_rejected` counters.
///
/// Returns the solution together with the **active** column pool of this
/// solve (columns carrying flow above tolerance, as node sequences) for
/// the next hour to seed from.
///
/// # Errors
///
/// [`FlowError::Infeasible`] if the demands cannot be routed within the
/// capacities (including unreachable destinations),
/// [`FlowError::Numerical`] if the LP loses precision, and
/// [`FlowError::Budget`] when a budget trips mid-solve. Seed validation
/// never errors.
#[allow(clippy::type_complexity)]
pub fn min_cost_multicommodity_with_context(
    g: &DiGraph,
    cost: &[f64],
    cap: &[f64],
    commodities: &[Commodity],
    seeds: &[(usize, Vec<NodeId>)],
    ctx: &SolverContext,
) -> Result<(McfSolution, Vec<(usize, Vec<NodeId>)>), FlowError> {
    let _span = ctx.phase_span("cg.solve", Phase::ColumnGeneration);
    debug_assert!(cost.iter().all(|c| *c >= 0.0));
    if commodities.is_empty() {
        return Ok((
            McfSolution {
                path_flows: Vec::new(),
                cost: 0.0,
                lower_bound: 0.0,
                certificate: jcr_ctx::cert::Certificate::new("mmsfp"),
            },
            Vec::new(),
        ));
    }
    let big = 1e3
        + 10.0
            * cost.iter().copied().filter(|c| c.is_finite()).sum::<f64>()
            * g.node_count() as f64;

    // Master rows: one capacity row per finitely-capacitated edge, one
    // demand row per commodity.
    let mut model = Model::new(Sense::Minimize);
    let mut cap_row = vec![None; g.edge_count()];
    for e in g.edges() {
        let c = cap[e.index()];
        if c.is_finite() {
            cap_row[e.index()] = Some(model.add_row(f64::NEG_INFINITY, c, &[]));
        }
    }
    let mut demand_rows = Vec::with_capacity(commodities.len());
    for c in commodities {
        assert!(c.demand > 0.0, "demands must be positive");
        demand_rows.push(model.add_row(c.demand, c.demand, &[]));
    }
    // Artificial columns keep the master feasible; positive artificials at
    // optimality certify infeasibility.
    let mut artificials = Vec::with_capacity(commodities.len());
    for &row in &demand_rows {
        artificials.push(model.add_var_with_column(0.0, f64::INFINITY, big, &[(row, 1.0)]));
    }
    let mut solver = model.into_solver();

    // Track the generated paths per column.
    let mut col_paths: Vec<(usize, Path)> = Vec::new(); // (commodity idx, path)

    // Seed columns carried from a previous solve, re-validated for the
    // current hour before the first master solve.
    if !seeds.is_empty() {
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        let mut edge_seen = vec![false; g.edge_count()];
        for (i, nodes) in seeds {
            let Some(path) = seed_path(g, cost, commodities, *i, nodes, &mut edge_seen) else {
                rejected += 1;
                continue;
            };
            let mut column = vec![(demand_rows[*i], 1.0)];
            for e in path.edges() {
                if let Some(r) = cap_row[e.index()] {
                    column.push((r, 1.0));
                }
            }
            let obj = path.cost(cost);
            solver.add_column(0.0, f64::INFINITY, obj, &column);
            ctx.count(Counter::CgColumns, 1);
            col_paths.push((*i, path));
            accepted += 1;
        }
        ctx.obs().add_counter(SEED_COLUMNS_ACCEPTED, accepted);
        ctx.obs().add_counter(SEED_COLUMNS_REJECTED, rejected);
    }

    // Group commodities by source to share Dijkstra runs.
    let mut by_source: Vec<Vec<usize>> = vec![Vec::new(); g.node_count()];
    for (i, c) in commodities.iter().enumerate() {
        by_source[c.source.index()].push(i);
    }
    // Pricing work items: sources with at least one commodity, ascending —
    // the same order the serial loop visited them in.
    let source_list: Vec<usize> = (0..g.node_count())
        .filter(|&s| !by_source[s].is_empty())
        .collect();
    // Pricing reads each source's tree only at its commodities'
    // destinations, so its Dijkstra stops once those are settled.
    let targets: Vec<Vec<NodeId>> = source_list
        .iter()
        .map(|&s| by_source[s].iter().map(|&i| commodities[i].dest).collect())
        .collect();

    // Each source's last priced tree and the weights it was priced under.
    // The buffers are refilled in place every Dijkstra round. Each source
    // has its own lock only so that a pool worker can fill it; no lock is
    // ever contended.
    let mut trees: Vec<Mutex<PricedTree>> = source_list
        .iter()
        .map(|&s| Mutex::new(vec![(Vec::new(), f64::INFINITY); by_source[s].len()]))
        .collect();
    let mut weights = vec![0.0f64; g.edge_count()];
    let mut tree_weights = weights.clone();

    let max_rounds = 40 * commodities.len() + 2000;
    let mut solution = {
        let _m = ctx.span("cg.master");
        solver.solve_with_context(ctx)?
    };
    // Best Lagrangian lower bound seen across pricing rounds, and whether
    // pricing converged (no improving column) rather than hitting the
    // round budget. Both feed the certificate below.
    let mut lower_bound = f64::NEG_INFINITY;
    let mut converged = false;
    for round in 0..max_rounds {
        ctx.check(Phase::ColumnGeneration)?;
        // Pricing: reduced cost of path p for commodity i is
        //   Σ_{e∈p} (w_e − y_e) − σ_i
        // with y_e the (non-positive) capacity duals and σ_i the demand
        // dual, so a Dijkstra under weights w_e − y_e prices all
        // commodities of a common source at once.
        for e in g.edges() {
            let y = cap_row[e.index()]
                .map(|r| solution.duals[r.index()])
                .unwrap_or(0.0);
            weights[e.index()] = (cost[e.index()] - y).max(0.0);
        }
        // Weights bit-equal to the last Dijkstra round's mean only σ
        // moved: the deterministic kernel would rebuild the same trees,
        // so the kept paths and sp_costs are repriced as they are.
        let reuse = round > 0
            && weights
                .iter()
                .zip(&tree_weights)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        let round_t0 = Instant::now();
        {
            let _p = ctx.span("cg.pricing");
            if reuse {
                ctx.obs().add_counter(PRICING_ROUNDS_REUSED, 1);
                #[cfg(debug_assertions)]
                check_kept_trees(
                    g,
                    &weights,
                    &source_list,
                    &by_source,
                    commodities,
                    &targets,
                    &mut trees,
                );
            } else {
                // One Dijkstra per source prices every commodity sharing
                // it; sources run in parallel, each filling its own tree.
                jcr_ctx::par::try_par_map_init(
                    ctx,
                    &trees,
                    shortest::DijkstraScratch::new,
                    |scratch, wctx, k, tree| {
                        wctx.check_deadline(Phase::ColumnGeneration)?;
                        let src = source_list[k];
                        shortest::dijkstra_into_with_context(
                            g,
                            NodeId::new(src),
                            &weights,
                            &targets[k],
                            scratch,
                            wctx,
                        );
                        let mut tree = tree.lock().expect("a pricing worker panicked");
                        for (&i, (path, sp_cost)) in by_source[src].iter().zip(tree.iter_mut()) {
                            *sp_cost = if scratch.path_into(g, commodities[i].dest, path) {
                                path.iter().map(|e| weights[e.index()]).sum()
                            } else {
                                f64::INFINITY
                            };
                        }
                        Ok::<_, FlowError>(())
                    },
                )?;
                tree_weights.copy_from_slice(&weights);
            }
        }
        ctx.metric_nanos(
            PRICING_ROUND_NS,
            round_t0.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        );
        // Lagrangian bound from this round's duals: relaxing the capacity
        // rows with ŷ = min(y, 0) prices every commodity on its shortest
        // path under `cost − ŷ`, so
        //   L(ŷ) = Σ_e ŷ_e·cap_e + Σ_k d_k·sp_k ≤ OPT.
        // The pricing weights clamp `cost − y` at 0, which can only
        // *shrink* sp_k relative to `cost − ŷ`, keeping the bound valid.
        let mut bound = jcr_ctx::cert::Kahan::new();
        let mut all_reachable = true;
        for e in g.edges() {
            if let Some(r) = cap_row[e.index()] {
                bound.add_prod(solution.duals[r.index()].min(0.0), cap[e.index()]);
            }
        }
        // Walk the trees in source order, then commodity order within a
        // source, adding the improving columns as they come, so the master
        // LP trajectory — and thus the solution — is identical for any
        // worker count.
        let mut added = false;
        for (&s, tree) in source_list.iter().zip(&mut trees) {
            let tree = tree.get_mut().expect("a pricing worker panicked");
            for (&i, (path, sp_cost)) in by_source[s].iter().zip(tree.iter()) {
                if !sp_cost.is_finite() {
                    all_reachable = false;
                    continue;
                }
                bound.add_prod(commodities[i].demand, *sp_cost);
                let sigma = solution.duals[demand_rows[i].index()];
                let reduced = sp_cost - sigma;
                if reduced < -1e-7 * (1.0 + sigma.abs()) {
                    let path = Path::new(path.clone());
                    // Column: 1 on the demand row, 1 per capacitated edge
                    // (paths are simple, so each edge appears once).
                    let mut column = vec![(demand_rows[i], 1.0)];
                    for e in path.edges() {
                        if let Some(r) = cap_row[e.index()] {
                            column.push((r, 1.0));
                        }
                    }
                    let obj = path.cost(cost);
                    solver.add_column(0.0, f64::INFINITY, obj, &column);
                    ctx.count(Counter::CgColumns, 1);
                    col_paths.push((i, path));
                    added = true;
                }
            }
        }
        if all_reachable {
            lower_bound = lower_bound.max(bound.total());
        }
        if !added {
            converged = true;
            break;
        }
        solution = {
            let _m = ctx.span("cg.master");
            solver.solve_with_context(ctx)?
        };
    }

    // Check artificials.
    for &a in &artificials {
        if solution.x[a.index()] > 1e-6 {
            return Err(FlowError::Infeasible);
        }
    }

    let n_art = artificials.len();
    let mut path_flows: Vec<Vec<PathFlow>> = vec![Vec::new(); commodities.len()];
    let mut total = 0.0;
    for (k, (i, path)) in col_paths.iter().enumerate() {
        let x = solution.x[n_art + k];
        if x > FLOW_EPS {
            total += x * path.cost(cost);
            path_flows[*i].push(PathFlow {
                path: path.clone(),
                amount: x,
            });
        }
    }
    // Commodities whose demand sits below the master's feasibility
    // tolerance can end the CG loop with no column at all: the equality
    // row is satisfied "at zero" within tolerance, so pricing never sees
    // an attractive reduced cost. Route such negligible demands on their
    // plain shortest path — optimal in the infinitesimal-demand limit,
    // with cost and capacity impact below every certificate tolerance —
    // so every commodity leaves with at least one path (downstream
    // rounding requires it).
    if path_flows.iter().any(Vec::is_empty) {
        let mut scratch = shortest::DijkstraScratch::new();
        let mut path_buf = Vec::new();
        for (i, c) in commodities.iter().enumerate() {
            if !path_flows[i].is_empty() {
                continue;
            }
            shortest::dijkstra_into_with_context(g, c.source, cost, &[c.dest], &mut scratch, ctx);
            if !scratch.path_into(g, c.dest, &mut path_buf) {
                return Err(FlowError::Infeasible);
            }
            let path = Path::new(path_buf.clone());
            total += c.demand * path.cost(cost);
            path_flows[i].push(PathFlow {
                path,
                amount: c.demand,
            });
        }
    }
    let certificate = certify_multicommodity(
        g,
        cost,
        cap,
        commodities,
        &path_flows,
        total,
        lower_bound,
        converged,
    );
    certificate.record(ctx);
    if !certificate.verified() {
        return Err(FlowError::NumericalBreakdown(certificate.failure_summary()));
    }
    // The active column pool: columns carrying flow above tolerance, as
    // node sequences (edge ids shift across hours; node ids do not).
    let pool: Vec<(usize, Vec<NodeId>)> = col_paths
        .iter()
        .enumerate()
        .filter(|(k, _)| solution.x[n_art + *k] > FLOW_EPS)
        .map(|(_, (i, path))| (*i, path_nodes(g, commodities[*i].source, path)))
        .collect();
    Ok((
        McfSolution {
            path_flows,
            cost: total,
            lower_bound,
            certificate,
        },
        pool,
    ))
}

/// Re-validates one carried seed path against the current graph and
/// costs. `edge_seen` is a caller-provided scratch of `edge_count` flags,
/// false on entry and restored to false on exit.
fn seed_path(
    g: &DiGraph,
    cost: &[f64],
    commodities: &[Commodity],
    i: usize,
    nodes: &[NodeId],
    edge_seen: &mut [bool],
) -> Option<Path> {
    let c = commodities.get(i)?;
    if nodes.first() != Some(&c.source) || nodes.last() != Some(&c.dest) {
        return None;
    }
    if nodes.iter().any(|v| v.index() >= g.node_count()) {
        return None;
    }
    let mut edges = Vec::with_capacity(nodes.len().saturating_sub(1));
    for w in nodes.windows(2) {
        edges.push(g.find_edge(w[0], w[1])?);
    }
    // Reject non-simple or infinite-cost paths: the master column format
    // assumes each edge appears at most once, and a killed
    // (infinite-cost) edge can never carry optimal flow.
    let mut ok = edges.iter().all(|e| cost[e.index()].is_finite());
    for &e in &edges {
        if std::mem::replace(&mut edge_seen[e.index()], true) {
            ok = false;
        }
    }
    for &e in &edges {
        edge_seen[e.index()] = false;
    }
    ok.then(|| Path::new(edges))
}

/// A path as the node sequence it visits, starting from `source`.
fn path_nodes(g: &DiGraph, source: NodeId, path: &Path) -> Vec<NodeId> {
    let mut nodes = Vec::with_capacity(path.edges().len() + 1);
    nodes.push(source);
    for &e in path.edges() {
        nodes.push(g.dst(e));
    }
    nodes
}

/// Debug cross-check of a reused pricing round: re-runs every source's
/// targeted Dijkstra under `weights` (uncounted) and asserts that each
/// kept path and sp_cost is bit-equal to the fresh one.
#[cfg(debug_assertions)]
fn check_kept_trees(
    g: &DiGraph,
    weights: &[f64],
    source_list: &[usize],
    by_source: &[Vec<usize>],
    commodities: &[Commodity],
    targets: &[Vec<NodeId>],
    trees: &mut [Mutex<PricedTree>],
) {
    let mut scratch = shortest::DijkstraScratch::new();
    let mut fresh = Vec::new();
    for (k, (&s, tree)) in source_list.iter().zip(trees).enumerate() {
        shortest::dijkstra_filtered_into(
            g,
            NodeId::new(s),
            weights,
            |_| true,
            &targets[k],
            &mut scratch,
        );
        let tree = tree.get_mut().expect("a pricing worker panicked");
        for (&i, (path, sp_cost)) in by_source[s].iter().zip(tree.iter()) {
            let fresh_cost = if scratch.path_into(g, commodities[i].dest, &mut fresh) {
                fresh.iter().map(|e| weights[e.index()]).sum()
            } else {
                f64::INFINITY
            };
            assert_eq!(path, &fresh, "kept pricing path of commodity {i} is stale");
            assert_eq!(
                sp_cost.to_bits(),
                fresh_cost.to_bits(),
                "kept sp_cost of commodity {i} is stale: {sp_cost:e} vs {fresh_cost:e}"
            );
        }
    }
}

/// Independently verifies a path-decomposed multicommodity flow: path
/// endpoints, per-commodity demand satisfaction, link capacity residuals,
/// a compensated recomputation of the reported cost, and — when a finite
/// Lagrangian `lower_bound` is supplied — that the objective respects it
/// (plus a near-optimality gap check when pricing `converged`). All sums
/// are Neumaier–Kahan, independent of the master LP's arithmetic.
#[allow(clippy::too_many_arguments)]
pub fn certify_multicommodity(
    g: &DiGraph,
    cost: &[f64],
    cap: &[f64],
    commodities: &[Commodity],
    path_flows: &[Vec<PathFlow>],
    reported_cost: f64,
    lower_bound: f64,
    converged: bool,
) -> jcr_ctx::cert::Certificate {
    use jcr_ctx::cert::{Certificate, Kahan};
    let mut cert = Certificate::new("mmsfp");
    if path_flows.len() != commodities.len() {
        cert.push("shape", f64::INFINITY, 0.0);
        return cert;
    }

    // Paths must connect their commodity's endpoints and carry finite,
    // non-negative flow.
    let mut endpoints_ok = true;
    let mut neg = 0.0f64;
    for (i, flows) in path_flows.iter().enumerate() {
        for pf in flows {
            if pf.path.source(g) != Some(commodities[i].source)
                || pf.path.target(g) != Some(commodities[i].dest)
            {
                endpoints_ok = false;
            }
            neg = neg.max(-pf.amount);
            if !pf.amount.is_finite() {
                neg = f64::INFINITY;
            }
        }
    }
    cert.push(
        "paths-valid",
        if endpoints_ok { 0.0 } else { f64::INFINITY },
        0.0,
    );
    cert.push("flow-nonneg", neg, FLOW_EPS);

    // Demand satisfaction, worst over commodities, relative to 1 + d_k.
    // The master tolerates artificials up to 1e-6 and extraction drops
    // columns below FLOW_EPS, hence the 1e-5 headroom.
    let mut worst_demand = 0.0f64;
    for (i, flows) in path_flows.iter().enumerate() {
        let mut routed = Kahan::new();
        for pf in flows {
            routed.add(pf.amount);
        }
        let r = (routed.total() - commodities[i].demand).abs();
        worst_demand = worst_demand.max(r / (1.0 + commodities[i].demand));
    }
    cert.push("demand", worst_demand, 1e-5);

    // Link capacity, worst over finite-capacity edges, relative to 1 + cap.
    let mut loads: Vec<Kahan> = vec![Kahan::new(); g.edge_count()];
    for flows in path_flows {
        for pf in flows {
            for e in pf.path.edges() {
                loads[e.index()].add(pf.amount);
            }
        }
    }
    let mut worst_cap = 0.0f64;
    for e in g.edges() {
        let c = cap[e.index()];
        if c.is_finite() {
            worst_cap = worst_cap.max((loads[e.index()].total() - c) / (1.0 + c));
        }
    }
    cert.push("capacity", worst_cap, 1e-5);

    // Cost recomputation (compensated) vs the reported accumulation.
    let mut exact = Kahan::new();
    let mut magnitude = Kahan::new();
    for flows in path_flows {
        for pf in flows {
            let pc = pf.path.cost(cost);
            exact.add_prod(pf.amount, pc);
            magnitude.add((pf.amount * pc).abs());
        }
    }
    cert.push(
        "cost",
        (exact.total() - reported_cost).abs(),
        1e-9 * (1.0 + magnitude.total()),
    );

    // The Lagrangian bound must not exceed the primal objective, and at
    // pricing convergence the duality gap must close to within the
    // pricing threshold's error budget.
    if lower_bound.is_finite() {
        let scale = 1.0 + reported_cost.abs();
        cert.push(
            "cg-bound",
            (lower_bound - reported_cost).max(0.0) / scale,
            1e-6,
        );
        if converged {
            let demand_sum: f64 = commodities.iter().map(|c| c.demand).sum();
            let cap_sum: f64 = cap.iter().copied().filter(|c| c.is_finite()).sum();
            let budget = 1e-5 * (1.0 + reported_cost.abs() + demand_sum + cap_sum);
            cert.push("cg-gap", (reported_cost - lower_bound).max(0.0), budget);
        }
    }
    cert
}

/// An unsplittable routing: one path per commodity.
#[derive(Clone, Debug)]
pub struct UnsplittableSolution {
    /// One path per commodity, in input order.
    pub paths: Vec<Path>,
    /// Total routing cost under the commodity demands.
    pub cost: f64,
    /// Load on each link.
    pub link_loads: Vec<f64>,
}

impl UnsplittableSolution {
    fn from_paths(g: &DiGraph, cost: &[f64], commodities: &[Commodity], paths: Vec<Path>) -> Self {
        let mut link_loads = vec![0.0; g.edge_count()];
        let mut total = 0.0;
        for (p, c) in paths.iter().zip(commodities) {
            total += c.demand * p.cost(cost);
            for e in p.edges() {
                link_loads[e.index()] += c.demand;
            }
        }
        UnsplittableSolution {
            paths,
            cost: total,
            link_loads,
        }
    }

    /// Maximum load-to-capacity ratio over finite-capacity links.
    pub fn congestion(&self, cap: &[f64]) -> f64 {
        self.link_loads
            .iter()
            .zip(cap)
            .filter(|(_, c)| c.is_finite() && **c > 0.0)
            .map(|(l, c)| l / c)
            .fold(0.0, f64::max)
    }
}

/// MMUFP heuristic: randomized rounding of the splittable LP relaxation.
///
/// For each of `draws` trials, every commodity independently picks one of
/// its fractional paths with probability proportional to its flow; the
/// trial with the lexicographically best `(congestion capped at 1, cost)`
/// is kept (i.e. feasible routings are preferred, then cheaper ones; if
/// none is feasible, the least congested wins). Each draw is counted as a
/// rounding pass and timed under `Phase::Rounding`.
///
/// # Panics
///
/// Panics if a commodity has no fractional path (e.g. `mcf` from a
/// different instance).
#[allow(clippy::too_many_arguments)]
pub fn randomized_rounding_with_context<R: Rng>(
    g: &DiGraph,
    cost: &[f64],
    cap: &[f64],
    commodities: &[Commodity],
    mcf: &McfSolution,
    draws: usize,
    rng: &mut R,
    ctx: &SolverContext,
) -> UnsplittableSolution {
    assert!(draws >= 1, "at least one draw required");
    let _s = ctx.phase_span("flow.rounding", Phase::Rounding);
    ctx.count(Counter::RoundingPasses, draws as u64);
    let mut best: Option<(f64, f64, Vec<Path>)> = None;
    for _ in 0..draws {
        let mut paths = Vec::with_capacity(commodities.len());
        for (i, _c) in commodities.iter().enumerate() {
            let flows = &mcf.path_flows[i];
            assert!(!flows.is_empty(), "commodity {i} has no fractional path");
            let total: f64 = flows.iter().map(|f| f.amount).sum();
            let mut pick = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
            let mut chosen = flows.len() - 1;
            for (k, f) in flows.iter().enumerate() {
                if pick <= f.amount {
                    chosen = k;
                    break;
                }
                pick -= f.amount;
            }
            paths.push(flows[chosen].path.clone());
        }
        let candidate = UnsplittableSolution::from_paths(g, cost, commodities, paths);
        let congestion = candidate.congestion(cap).max(1.0);
        let key = (congestion, candidate.cost);
        if best
            .as_ref()
            .is_none_or(|(bc, bcost, _)| key < (*bc, *bcost))
        {
            best = Some((key.0, key.1, candidate.paths));
        }
    }
    // `best` is Some: `draws >= 1` is asserted above and every iteration
    // either sets it or loses the lexicographic comparison to a prior one.
    let (_, _, paths) = best.expect("at least one draw");
    UnsplittableSolution::from_paths(g, cost, commodities, paths)
}

/// MMUFP heuristic: greedy sequential routing.
///
/// Commodities are processed in decreasing demand order; each is routed on
/// the cheapest path whose residual capacity fits its demand, falling back
/// to the cheapest path outright (overloading links) when none fits. Each
/// commodity charges one `Phase::MinCostFlow` iteration (so caps and the
/// wall-clock deadline bound the sequential routing), Dijkstra runs are
/// counted, and the whole call is timed under that phase. This is the
/// budget plumbing behind the online loop's routing-only degradation
/// rung.
///
/// # Errors
///
/// [`FlowError::Infeasible`] for a commodity whose destination is
/// unreachable; [`FlowError::Budget`] when the budget trips mid-routing.
pub fn greedy_unsplittable_with_context(
    g: &DiGraph,
    cost: &[f64],
    cap: &[f64],
    commodities: &[Commodity],
    ctx: &SolverContext,
) -> Result<UnsplittableSolution, FlowError> {
    let _s = ctx.phase_span("flow.greedy_unsplittable", Phase::MinCostFlow);
    ctx.check_deadline(Phase::MinCostFlow)?;
    let mut order: Vec<usize> = (0..commodities.len()).collect();
    order.sort_by(|&a, &b| {
        commodities[b]
            .demand
            .partial_cmp(&commodities[a].demand)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut residual: Vec<f64> = cap.to_vec();
    let mut paths: Vec<Option<Path>> = vec![None; commodities.len()];
    let mut scratch = shortest::DijkstraScratch::new();
    let mut path_buf = Vec::new();
    for &i in &order {
        ctx.check(Phase::MinCostFlow)?;
        let c = commodities[i];
        ctx.count(Counter::DijkstraCalls, 1);
        let fits = |e: EdgeId| residual[e.index()] + FLOW_EPS >= c.demand;
        shortest::dijkstra_filtered_into(g, c.source, cost, fits, &[c.dest], &mut scratch);
        if !scratch.path_into(g, c.dest, &mut path_buf) {
            // Overload: cheapest path regardless of capacity.
            ctx.count(Counter::DijkstraCalls, 1);
            shortest::dijkstra_filtered_into(g, c.source, cost, |_| true, &[c.dest], &mut scratch);
            if !scratch.path_into(g, c.dest, &mut path_buf) {
                return Err(FlowError::Infeasible);
            }
        }
        for e in &path_buf {
            residual[e.index()] -= c.demand;
        }
        paths[i] = Some(Path::new(path_buf.clone()));
    }
    // Every index of `paths` was assigned: `order` is a permutation of
    // `0..commodities.len()` and the loop either routes index `i` or
    // returns `Infeasible`.
    let paths = paths.into_iter().map(|p| p.expect("routed")).collect();
    Ok(UnsplittableSolution::from_paths(
        g,
        cost,
        commodities,
        paths,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcr_ctx::rng::SeedableRng;

    /// Two commodities sharing a bottleneck: the LP must split around it.
    fn bottleneck_instance() -> (DiGraph, Vec<f64>, Vec<f64>, Vec<Commodity>) {
        let mut g = DiGraph::new();
        let s1 = g.add_node();
        let s2 = g.add_node();
        let m = g.add_node();
        let t = g.add_node();
        let mut cost = Vec::new();
        let mut cap = Vec::new();
        g.add_edge(s1, m); // 0
        cost.push(1.0);
        cap.push(10.0);
        g.add_edge(s2, m); // 1
        cost.push(1.0);
        cap.push(10.0);
        g.add_edge(m, t); // 2: cheap but narrow
        cost.push(1.0);
        cap.push(1.5);
        g.add_edge(s1, t); // 3: expensive direct
        cost.push(10.0);
        cap.push(10.0);
        g.add_edge(s2, t); // 4: expensive direct
        cost.push(10.0);
        cap.push(10.0);
        let commodities = vec![
            Commodity {
                source: s1,
                dest: t,
                demand: 1.0,
            },
            Commodity {
                source: s2,
                dest: t,
                demand: 1.0,
            },
        ];
        (g, cost, cap, commodities)
    }

    /// A seeded `G^x` (§4.3.2) over the Stress topology: six virtual item
    /// sources, each linked to three edge-node holders and the origin, and
    /// 24 requests on links of capacity 2, so pricing runs several rounds
    /// with several destinations per source.
    fn stress_gx() -> (DiGraph, Vec<f64>, Vec<f64>, Vec<Commodity>) {
        let mut t = jcr_topo::Topology::generate(jcr_topo::TopologyKind::Stress, 5).unwrap();
        t.set_uniform_capacity(2.0);
        let mut g = t.graph.clone();
        let mut cost = t.cost.clone();
        let mut cap = t.capacity.clone();
        let mut rng = jcr_ctx::rng::StdRng::seed_from_u64(11);
        let mut item_source = Vec::new();
        for _ in 0..6 {
            let vi = g.add_node();
            item_source.push(vi);
            for _ in 0..3 {
                let v = t.edge_nodes[rng.gen_range(0..t.edge_nodes.len())];
                g.add_edge(vi, v);
                cost.push(0.0);
                cap.push(f64::INFINITY);
            }
            g.add_edge(vi, t.origin);
            cost.push(0.0);
            cap.push(f64::INFINITY);
        }
        let commodities = (0..24)
            .map(|_| Commodity {
                source: item_source[rng.gen_range(0..item_source.len())],
                dest: t.edge_nodes[rng.gen_range(0..t.edge_nodes.len())],
                demand: rng.gen_range(0.5..2.5),
            })
            .collect();
        (g, cost, cap, commodities)
    }

    /// [`stress_gx`] with every link uncapacitated: the master has no
    /// capacity rows, so the pricing weights never change.
    fn uncapacitated_stress_gx() -> (DiGraph, Vec<f64>, Vec<f64>, Vec<Commodity>) {
        let (g, cost, cap, commodities) = stress_gx();
        (g, cost, vec![f64::INFINITY; cap.len()], commodities)
    }

    /// Column generation's answers and work, pinned to values recorded
    /// with the full-tree pricing kernel: targeted pricing runs must find
    /// the same columns in the same rounds. Rounds whose weights repeat
    /// reuse the last trees, which moves only the Dijkstra count.
    #[test]
    fn pricing_answers_and_work_are_pinned() {
        // (cost bits, lower bound bits, simplex pivots, Dijkstra calls,
        // CG columns, reused pricing rounds, paths)
        type Pin = (u64, u64, u64, u64, u64, u64, &'static [&'static [u32]]);
        let bottleneck: Pin = (
            0x4020000000000000,
            0x4020000000000000,
            5,
            6,
            4,
            0,
            &[&[0, 2], &[3], &[1, 2]],
        );
        let stress: Pin = (
            0x4077470d804961df,
            0x4077470d804961e0,
            67,
            30,
            49,
            0,
            &[
                &[20002, 15051, 17696, 2833, 6828, 12688],
                &[20012, 910, 19454, 11456, 18415, 8734],
                &[20012, 12663, 5604, 1354, 17748],
                &[20012, 13811, 121, 125, 17748],
                &[20017, 13396, 6835, 17119, 807, 13037],
                &[20008, 12541, 7216],
                &[20004, 4805, 13548, 6079, 4001, 14105, 6114],
                &[20004, 9057, 13450, 17751, 204, 16688, 17232],
                &[20006, 17223, 6105, 13583, 210, 11337, 17232],
                &[20001, 1472, 17936, 9880, 19786],
                &[20002, 15051, 12533, 14987, 2211, 17520],
                &[20006, 17223, 6824, 14549, 11783, 9704, 17859, 16927],
                &[20014, 18756, 17264, 5113, 17974],
                &[20022, 16897, 339, 1415, 7630, 12321],
                &[20020, 9045, 14470],
                &[20018],
                &[20017, 1148, 13736, 15626, 2469],
                &[20016, 12541, 7216],
                &[20012, 12663, 14118, 17569, 16148],
                &[20020, 9045, 743, 6772, 3734],
                &[20020, 9045, 5982, 14946, 5064, 6122],
                &[20020, 1148, 13736, 13880, 6481, 911],
                &[20021],
                &[20004, 4805, 9904, 9978, 577, 12236, 10234, 7636],
                &[20004, 4805, 4954, 13831, 12044, 12959, 9992],
                &[20005, 14389, 13433, 9842, 12321],
                &[20006, 2507, 17443, 10219, 705, 2772, 11038],
                &[20012, 910, 1123, 18601, 15702],
                &[20013, 15425, 17977, 29, 16396, 15391, 9303, 7452],
                &[20006, 17223, 6824, 14549, 12276],
                &[20002, 18685, 6167, 5576, 16896],
                &[20002, 14142, 5100, 13949, 18049, 3910],
                &[20014, 17672, 17071, 6134, 13893, 10780],
                &[20004, 9057, 676, 354, 219, 18757],
            ],
        );
        // Six sources priced once: the second and last round reuses their
        // trees (a fresh run there cost 12 Dijkstra calls).
        let uncapacitated: Pin = (
            0x40761cfd1223eeee,
            0x40761cfd1223eeee,
            48,
            6,
            24,
            1,
            &[
                &[20001, 1472, 10536, 1541, 9311, 6828, 12688],
                &[20012, 910, 19454, 11456, 18415, 8734],
                &[20017, 13396, 6835, 17119, 807, 13037],
                &[20008, 12541, 7216],
                &[20004, 4805, 13548, 6079, 4001, 14105, 6114],
                &[20001, 1472, 17936, 9880, 19786],
                &[20004, 4805, 18829, 16076, 15485, 16927],
                &[20014, 18756, 17264, 5113, 17974],
                &[20020, 9045, 5982, 17863, 17825, 11038],
                &[20020, 9045, 14470],
                &[20018],
                &[20017, 1148, 13736, 15626, 2469],
                &[20012, 12663, 14118, 17569, 16148],
                &[20020, 9045, 743, 6772, 3734],
                &[20020, 9045, 5982, 14946, 5064, 6122],
                &[20021],
                &[20004, 4805, 9904, 9978, 577, 12236, 10234, 7636],
                &[20004, 4805, 4954, 13831, 12044, 12959, 9992],
                &[20012, 910, 1123, 18601, 15702],
                &[20013, 15425, 17977, 29, 16396, 15391, 9303, 7452],
                &[20004, 4805, 4429, 13666, 2973],
                &[20002, 18685, 6167, 5576, 16896],
                &[20014, 17672, 17071, 6134, 13893, 10780],
                &[20004, 4805, 7231, 3519, 3251, 219, 18757],
            ],
        );
        for (name, (g, cost, cap, commodities), pin) in [
            ("bottleneck", bottleneck_instance(), bottleneck),
            ("stress G^x", stress_gx(), stress),
            (
                "uncapacitated stress G^x",
                uncapacitated_stress_gx(),
                uncapacitated,
            ),
        ] {
            let ctx = SolverContext::new();
            let (sol, _) =
                min_cost_multicommodity_with_context(&g, &cost, &cap, &commodities, &[], &ctx)
                    .unwrap();
            let paths: Vec<Vec<u32>> = sol
                .path_flows
                .iter()
                .flatten()
                .map(|f| f.path.edges().iter().map(|e| e.index() as u32).collect())
                .collect();
            let stats = ctx.stats();
            let reused = ctx
                .obs()
                .snapshot()
                .counters
                .get(PRICING_ROUNDS_REUSED)
                .copied();
            let (cost_bits, bound_bits, pivots, dijkstra_calls, cg_columns, reuses, pinned_paths) =
                pin;
            assert_eq!(sol.cost.to_bits(), cost_bits, "{name}: cost");
            assert_eq!(sol.lower_bound.to_bits(), bound_bits, "{name}: lower bound");
            assert_eq!(stats.simplex_pivots, pivots, "{name}: simplex pivots");
            assert_eq!(stats.refactorizations, 0, "{name}: refactorizations");
            assert_eq!(reused.unwrap_or(0), reuses, "{name}: reused pricing rounds");
            assert_eq!(
                stats.dijkstra_calls, dijkstra_calls,
                "{name}: Dijkstra calls"
            );
            assert_eq!(stats.cg_columns, cg_columns, "{name}: CG columns");
            assert_eq!(paths, pinned_paths, "{name}: paths");
        }
    }

    #[test]
    fn splits_around_bottleneck() {
        let ctx = SolverContext::new();
        let (g, cost, cap, commodities) = bottleneck_instance();
        let (sol, _) =
            min_cost_multicommodity_with_context(&g, &cost, &cap, &commodities, &[], &ctx).unwrap();
        // 1.5 units through the cheap route (cost 2/unit), 0.5 direct
        // (cost 10/unit) → 1.5·2 + 0.5·10 = 8.
        assert!((sol.cost - 8.0).abs() < 1e-6, "cost = {}", sol.cost);
        let loads = sol.link_loads(g.edge_count());
        assert!(loads[2] <= 1.5 + 1e-6);
        for (i, c) in commodities.iter().enumerate() {
            let total: f64 = sol.path_flows[i].iter().map(|f| f.amount).sum();
            assert!((total - c.demand).abs() < 1e-6);
        }
    }

    #[test]
    fn column_generation_is_bit_identical_across_worker_counts() {
        let (g, cost, cap, commodities) = bottleneck_instance();
        let (baseline, _) = min_cost_multicommodity_with_context(
            &g,
            &cost,
            &cap,
            &commodities,
            &[],
            &SolverContext::new().with_workers(1),
        )
        .unwrap();
        for workers in [2, 8] {
            let ctx = SolverContext::new().with_workers(workers);
            let (sol, _) =
                min_cost_multicommodity_with_context(&g, &cost, &cap, &commodities, &[], &ctx)
                    .unwrap();
            assert_eq!(sol.cost.to_bits(), baseline.cost.to_bits());
            assert_eq!(sol.path_flows.len(), baseline.path_flows.len());
            for (a, b) in sol.path_flows.iter().zip(&baseline.path_flows) {
                assert_eq!(a.len(), b.len());
                for (fa, fb) in a.iter().zip(b) {
                    assert_eq!(fa.path, fb.path);
                    assert_eq!(fa.amount.to_bits(), fb.amount.to_bits());
                }
            }
        }
    }

    #[test]
    fn uncapacitated_reduces_to_shortest_paths() {
        let ctx = SolverContext::new();
        let (g, cost, _, commodities) = bottleneck_instance();
        let cap = vec![f64::INFINITY; g.edge_count()];
        let (sol, _) =
            min_cost_multicommodity_with_context(&g, &cost, &cap, &commodities, &[], &ctx).unwrap();
        assert!((sol.cost - 4.0).abs() < 1e-6); // both use the cheap route
    }

    #[test]
    fn infeasible_demand_detected() {
        let ctx = SolverContext::new();
        let (g, cost, mut cap, commodities) = bottleneck_instance();
        // Shrink the direct routes so total capacity into t is 1.9 < 2.
        cap[3] = 0.4;
        cap[4] = 0.0;
        let err = min_cost_multicommodity_with_context(&g, &cost, &cap, &commodities, &[], &ctx)
            .unwrap_err();
        assert_eq!(err, FlowError::Infeasible);
    }

    #[test]
    fn unreachable_destination_is_infeasible() {
        let ctx = SolverContext::new();
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let commodities = [Commodity {
            source: a,
            dest: b,
            demand: 1.0,
        }];
        let err = min_cost_multicommodity_with_context(&g, &[], &[], &commodities, &[], &ctx)
            .unwrap_err();
        assert_eq!(err, FlowError::Infeasible);
    }

    #[test]
    fn randomized_rounding_respects_flow_support() {
        let ctx = SolverContext::new();
        let (g, cost, cap, commodities) = bottleneck_instance();
        let (mcf, _) =
            min_cost_multicommodity_with_context(&g, &cost, &cap, &commodities, &[], &ctx).unwrap();
        let mut rng = jcr_ctx::rng::StdRng::seed_from_u64(42);
        let sol = randomized_rounding_with_context(
            &g,
            &cost,
            &cap,
            &commodities,
            &mcf,
            20,
            &mut rng,
            &ctx,
        );
        assert_eq!(sol.paths.len(), 2);
        for (p, c) in sol.paths.iter().zip(&commodities) {
            assert_eq!(p.source(&g), Some(c.source));
            assert_eq!(p.target(&g), Some(c.dest));
        }
        // Every chosen path appears in the fractional support.
        for (i, p) in sol.paths.iter().enumerate() {
            assert!(mcf.path_flows[i].iter().any(|f| &f.path == p));
        }
    }

    #[test]
    fn greedy_prefers_capacity_fitting_paths() {
        let ctx = SolverContext::new();
        let (g, cost, cap, commodities) = bottleneck_instance();
        let sol = greedy_unsplittable_with_context(&g, &cost, &cap, &commodities, &ctx).unwrap();
        // First commodity takes the cheap route (fits 1.0 ≤ 1.5); second
        // cannot fit and must go direct.
        let congestion = sol.congestion(&cap);
        assert!(congestion <= 1.0 + 1e-9, "congestion = {congestion}");
        assert!((sol.cost - 12.0).abs() < 1e-6, "cost = {}", sol.cost);
    }

    #[test]
    fn greedy_overloads_when_nothing_fits() {
        let ctx = SolverContext::new();
        let mut g = DiGraph::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_edge(s, t);
        let commodities = [Commodity {
            source: s,
            dest: t,
            demand: 2.0,
        }];
        let sol = greedy_unsplittable_with_context(&g, &[1.0], &[1.0], &commodities, &ctx).unwrap();
        assert!((sol.congestion(&[1.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_respects_budget_and_counts_dijkstras() {
        let (g, cost, cap, commodities) = bottleneck_instance();

        // An unconstrained context records one Dijkstra per routed
        // commodity.
        let ctx = SolverContext::new();
        greedy_unsplittable_with_context(&g, &cost, &cap, &commodities, &ctx).unwrap();
        assert!(ctx.stats().dijkstra_calls >= commodities.len() as u64);

        // A cap below the commodity count trips mid-routing.
        let ctx = SolverContext::with_budget(
            jcr_ctx::Budget::unlimited().with_phase_cap(Phase::MinCostFlow, 1),
        );
        let err = greedy_unsplittable_with_context(&g, &cost, &cap, &commodities, &ctx)
            .expect_err("cap of 1 must interrupt 2 commodities");
        assert!(matches!(err, FlowError::Budget(b) if b.phase == Phase::MinCostFlow));

        // A spent deadline fails before any routing.
        let ctx = SolverContext::with_budget(jcr_ctx::Budget::deadline(std::time::Duration::ZERO));
        let err = greedy_unsplittable_with_context(&g, &cost, &cap, &commodities, &ctx)
            .expect_err("zero deadline must fail fast");
        assert!(matches!(err, FlowError::Budget(_)));
    }

    #[test]
    fn seeded_pool_round_trips_and_rejects_stale_seeds() {
        let (g, cost, cap, commodities) = bottleneck_instance();
        let ctx = SolverContext::new();
        let (first, pool) =
            min_cost_multicommodity_with_context(&g, &cost, &cap, &commodities, &[], &ctx).unwrap();
        assert!(!pool.is_empty());
        // Every pooled column names its commodity's endpoints.
        for (i, nodes) in &pool {
            assert_eq!(nodes.first(), Some(&commodities[*i].source));
            assert_eq!(nodes.last(), Some(&commodities[*i].dest));
        }
        // Re-solving the identical instance from the carried pool must
        // reach the same optimum (costs are unique here, so the same
        // flows) without inventing new claims.
        let (second, _) =
            min_cost_multicommodity_with_context(&g, &cost, &cap, &commodities, &pool, &ctx)
                .unwrap();
        assert!((second.cost - first.cost).abs() < 1e-9);
        // Stale seeds — bad commodity, endpoint mismatch, missing edge,
        // infinite cost — are dropped, not errors.
        let mut killed = cost.clone();
        killed[2] = f64::INFINITY;
        let stale = vec![
            (99usize, pool[0].1.clone()),
            (0usize, vec![commodities[0].dest, commodities[0].source]),
            (0usize, vec![commodities[0].source, commodities[0].source]),
        ];
        let (third, _) =
            min_cost_multicommodity_with_context(&g, &killed, &cap, &commodities, &stale, &ctx)
                .unwrap();
        assert!(third.cost.is_finite());
    }

    #[test]
    fn empty_commodities_ok() {
        let ctx = SolverContext::new();
        let g = DiGraph::new();
        let (sol, _) = min_cost_multicommodity_with_context(&g, &[], &[], &[], &[], &ctx).unwrap();
        assert_eq!(sol.cost, 0.0);
    }
}
