//! Pinned answers and work counters for five fixed seeded workloads over
//! the solver hot paths: all-pairs Dijkstra, column generation, simplex
//! warm starts, the online carry chain and a Monte-Carlo sweep.
//!
//! Each test runs its workload on a fresh context at pool widths 1 and 2
//! and asserts, at both widths, a literal FNV-1a checksum over the
//! answer's f64 bit patterns and the six `SolverStats` counters. Equal
//! values at both widths are the pool's deterministic-merge contract; the
//! literals catch a change that moves an answer or reaches it by another
//! pivot path. Wall time is measured by the `benchmark/` package, not
//! here.
//!
//! Re-pin a value only for a change that is meant to move it, and say
//! which and why in the change's notes.

use jcr::core::prelude::*;
use jcr::ctx::rng::{Rng, SeedableRng, StdRng};
use jcr::ctx::{Counter, SolverContext};
use jcr::flow::multicommodity::{min_cost_multicommodity_with_context, Commodity};
use jcr::graph::{shortest, DiGraph, NodeId};
use jcr::lp::{ConId, Model, Sense};
use jcr_bench::exp::{default_factory, evaluate_in, Algo, ExpConfig};
use jcr_bench::Scenario;

mod common;
use common::{assert_pinned, checksum};

fn pivots(ctx: &SolverContext) -> u64 {
    ctx.stats().counter(Counter::SimplexPivots)
}

/// A seeded random strongly connected graph: a ring for connectivity plus
/// `chords_per_node · n` random chords, with costs in `[1, 10)`.
fn seeded_graph(n: usize, chords_per_node: usize, seed: u64) -> (DiGraph, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new();
    let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node()).collect();
    let mut cost = Vec::new();
    for i in 0..n {
        g.add_edge(nodes[i], nodes[(i + 1) % n]);
        cost.push(rng.gen_range(1.0..10.0));
    }
    for _ in 0..n * chords_per_node {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            g.add_edge(nodes[a], nodes[b]);
            cost.push(rng.gen_range(1.0..10.0));
        }
    }
    (g, cost)
}

#[test]
fn all_pairs_is_pinned() {
    let (g, cost) = seeded_graph(350, 4, 11);
    assert_pinned("eb011531ed991277", [0, 0, 350, 0, 0, 0], |ctx| {
        let rows = shortest::all_pairs_with_context(&g, &cost, ctx);
        checksum(rows.iter().flatten().copied())
    });
}

#[test]
fn column_generation_is_pinned() {
    let n = 60;
    let (g, cost) = seeded_graph(n, 3, 23);
    let mut rng = StdRng::seed_from_u64(37);
    let commodities: Vec<Commodity> = (0..30)
        .map(|_| {
            let source = rng.gen_range(0..n);
            let mut dest = rng.gen_range(0..n);
            if dest == source {
                dest = (dest + 1) % n;
            }
            Commodity {
                source: NodeId::new(source),
                dest: NodeId::new(dest),
                demand: rng.gen_range(0.5..2.0),
            }
        })
        .collect();
    let total_demand: f64 = commodities.iter().map(|c| c.demand).sum();
    // Tight-but-feasible capacities: the ring carries everything if needed,
    // chords are scarce so the master has to split and re-price.
    let cap: Vec<f64> = (0..g.edge_count())
        .map(|e| total_demand * if e < n { 1.0 } else { 0.05 })
        .collect();
    assert_pinned("4f91c63d234a5a5c", [85, 0, 189, 63, 0, 0], |ctx| {
        let (sol, _) =
            min_cost_multicommodity_with_context(&g, &cost, &cap, &commodities, &[], ctx)
                .expect("the ring guarantees feasibility");
        let mut values = vec![sol.cost];
        for pf in sol.path_flows.iter().flatten() {
            values.extend([pf.amount, pf.path.len() as f64]);
        }
        checksum(values)
    });
}

/// A seeded covering LP `min c·x` over `[0, 5]`-bounded variables with `m`
/// rows `Σ a_j x_j ≥ b`. The objective is `c_j · (1 + obj_shift · δ_j)`
/// with per-variable seeded `δ_j`, so `obj_shift = 0` is the base hour and
/// a small positive shift is the next hour of the online loop: same
/// constraints, drifted prices.
fn warm_lp(n: usize, m: usize, seed: u64, obj_shift: f64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Model::new(Sense::Minimize);
    let vars: Vec<_> = (0..n)
        .map(|_| {
            let c = rng.gen_range(1.0..10.0);
            let delta = rng.gen_range(0.0..1.0);
            model.add_var(0.0, 5.0, c * (1.0 + obj_shift * delta))
        })
        .collect();
    for _ in 0..m {
        let entries: Vec<_> = (0..6)
            .map(|_| (vars[rng.gen_range(0..n)], rng.gen_range(0.5..2.0)))
            .collect();
        let rhs = rng.gen_range(3.0..9.0);
        model.add_row(rhs, f64::INFINITY, &entries);
    }
    model
}

/// Cheap seeded candidate columns covering several rows each, attractive
/// enough that the master re-solve has real pivoting to do.
fn warm_lp_columns(n_cols: usize, m: usize, seed: u64) -> Vec<(f64, Vec<(ConId, f64)>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_cols)
        .map(|_| {
            let obj = rng.gen_range(0.2..1.0);
            let entries: Vec<_> = (0..8)
                .map(|_| {
                    (
                        ConId::from_index(rng.gen_range(0..m)),
                        rng.gen_range(0.5..2.0),
                    )
                })
                .collect();
            (obj, entries)
        })
        .collect()
}

fn assert_same_objective(warm: f64, cold: f64, what: &str) {
    assert!(
        (warm - cold).abs() <= 1e-7 * cold.abs().max(1.0),
        "{what}: warm and cold solves disagree: {warm} vs {cold}"
    );
}

/// The simplex's warm-start machinery against cold solves of the same
/// models: `solve_from_basis` on a drifted objective, and the retained
/// solver's re-solve after added columns. Each warm re-solve must take at
/// most half the cold pivots.
#[test]
fn lp_warm_halves_pivots_and_is_pinned() {
    let (n, m, seed) = (80, 40, 53);
    let columns = warm_lp_columns(8, m, seed + 7);
    assert_pinned("4670d1e25cab5deb", [490, 12, 0, 0, 0, 0], |ctx| {
        // Online-hour leg: solve the base hour, keep its basis, then solve
        // the drifted-objective next hour cold and warm.
        let mut base = warm_lp(n, m, seed, 0.0).into_solver();
        let base_sol = base.solve_with_context(ctx).expect("base LP is feasible");
        let basis = base.basis().expect("solved LP exposes a basis");

        let mark = pivots(ctx);
        let cold_next = warm_lp(n, m, seed, 0.03)
            .into_solver()
            .solve_with_context(ctx)
            .expect("drifted LP is feasible");
        let cold_hour_pivots = pivots(ctx) - mark;

        let mark = pivots(ctx);
        let warm_next = warm_lp(n, m, seed, 0.03)
            .into_solver()
            .solve_from_basis(&basis, ctx)
            .expect("warm solve of the drifted LP succeeds");
        let warm_hour_pivots = pivots(ctx) - mark;
        assert_same_objective(warm_next.objective, cold_next.objective, "online hour");
        assert!(
            warm_hour_pivots * 2 <= cold_hour_pivots,
            "online warm re-solve took {warm_hour_pivots} pivots, cold took {cold_hour_pivots}"
        );

        // CG-master leg: the retained solver re-solves after a batch of
        // added columns, against a cold solve of the extended model.
        let mut master = warm_lp(n, m, seed, 0.0).into_solver();
        master
            .solve_with_context(ctx)
            .expect("master LP is feasible");
        let mark = pivots(ctx);
        for (obj, entries) in &columns {
            master.add_column(0.0, 5.0, *obj, entries);
        }
        let warm_cg = master
            .solve_with_context(ctx)
            .expect("master re-solve succeeds");
        let warm_cg_pivots = pivots(ctx) - mark;

        let mut extended = warm_lp(n, m, seed, 0.0);
        for (obj, entries) in &columns {
            extended.add_var_with_column(0.0, 5.0, *obj, entries);
        }
        let mark = pivots(ctx);
        let cold_cg = extended
            .into_solver()
            .solve_with_context(ctx)
            .expect("extended LP is feasible");
        let cold_cg_pivots = pivots(ctx) - mark;
        assert_same_objective(warm_cg.objective, cold_cg.objective, "CG master");
        assert!(
            warm_cg_pivots * 2 <= cold_cg_pivots,
            "CG master re-solve took {warm_cg_pivots} pivots, cold took {cold_cg_pivots}"
        );

        checksum([
            base_sol.objective,
            cold_next.objective,
            warm_next.objective,
            cold_cg.objective,
            warm_cg.objective,
            cold_hour_pivots as f64,
            warm_hour_pivots as f64,
            cold_cg_pivots as f64,
            warm_cg_pivots as f64,
        ])
    });
}

/// One seeded Abovenet instance per hour whose demand drifts mildly and
/// non-uniformly, so warm hours must re-optimize rather than rescale.
fn online_instance(seed: usize, hour: usize) -> Instance {
    let topo = jcr::topo::Topology::generate(jcr::topo::TopologyKind::Abovenet, 4)
        .expect("known topology generates");
    let n_edges = topo.edge_nodes.len();
    let rates: Vec<Vec<f64>> = (0..6)
        .map(|i| {
            (0..n_edges)
                .map(|k| {
                    let base = 100.0 * (1.0 + ((i * 7 + k * 3 + seed) % 5) as f64);
                    base * (1.0 + 0.02 * hour as f64 + 0.01 * ((k * 31 + hour) % 7) as f64)
                })
                .collect()
        })
        .collect();
    InstanceBuilder::new(topo)
        .items(6)
        .cache_capacity(2.0)
        .demand_matrix(rates)
        .link_capacity_fraction(0.05)
        .build()
        .expect("online instance builds")
}

/// The online loop's hour-over-hour carry chain (previous placement,
/// placement-LP basis, CG column pool) against solving every hour cold:
/// steady-state warm hours must take at most half the cold pivots.
#[test]
fn online_warm_halves_pivots_and_is_pinned() {
    let (hours, seed) = (4, 89);
    assert_pinned("3fc9853266954e1d", [2679, 0, 784, 1576, 0, 223], |ctx| {
        let solver = Alternating::new();
        let mut costs = Vec::new();
        // Hour 0 is cold in both legs and left out of the steady-state sums.
        let mut cold_steady = 0;
        for hour in 0..hours {
            let inst = online_instance(seed, hour);
            let mark = pivots(ctx);
            let out = solver
                .solve_with_context(&inst, ctx)
                .expect("cold hour solves");
            if hour > 0 {
                cold_steady += pivots(ctx) - mark;
            }
            costs.push(out.solution.cost(&inst));
        }
        // Warm leg: thread placement, basis and column pool hour over hour
        // the way `OnlineSimulator` commits them.
        let mut warm_steady = 0;
        let mut warm = Warm::default();
        let mut prev: Option<Placement> = None;
        for hour in 0..hours {
            let inst = online_instance(seed, hour);
            let initial = prev
                .filter(|p| p.dims_match(&inst) && p.is_feasible(&inst))
                .unwrap_or_else(|| Placement::empty(&inst));
            let mark = pivots(ctx);
            let (out, next) = solver
                .solve_warm(&inst, initial, &warm, ctx)
                .expect("warm hour solves");
            if hour > 0 {
                warm_steady += pivots(ctx) - mark;
            }
            warm = next;
            prev = Some(out.solution.placement.clone());
            costs.push(out.solution.cost(&inst));
        }
        assert!(
            warm_steady * 2 <= cold_steady,
            "steady-state warm hours took {warm_steady} pivots, cold took {cold_steady}"
        );
        costs.extend([cold_steady as f64, warm_steady as f64]);
        checksum(costs)
    });
}

/// Four Monte-Carlo runs of SP and SP+RNR on a 6-video chunk-level
/// scenario, fanned out on the context's pool.
#[test]
fn monte_carlo_is_pinned() {
    let mut sc = Scenario::chunk_default();
    sc.n_videos = 6;
    let algos = vec![
        Algo {
            name: "SP".into(),
            run: Box::new(|inst, ctx| ShortestPathPlacement.solve_with_context(inst, ctx)),
        },
        Algo {
            name: "SP+RNR".into(),
            run: Box::new(|inst, ctx| IoannidisYeh::sp_rnr().solve_with_context(inst, ctx)),
        },
    ];
    let cfg = ExpConfig {
        runs: 4,
        hours: 1,
        ..ExpConfig::default()
    };
    assert_pinned("87042a6f2b5050e7", [5814, 32, 96, 0, 0, 16], |ctx| {
        let metrics = evaluate_in(ctx, &sc, &algos, cfg, &default_factory);
        checksum(metrics.iter().flat_map(|m| {
            [
                m.cost_true,
                m.congestion_true,
                m.occupancy_true,
                m.cost_pred,
                m.congestion_pred,
                m.occupancy_pred,
            ]
        }))
    });
}
