//! The deterministic-pool contract, end to end: every parallelized hot
//! path — all-pairs Dijkstra, column-generation pricing, Monte-Carlo
//! sweeps — produces bit-identical outputs for any worker count, and a
//! budget tripping inside a worker cancels the pool while the caller
//! still gets its validated incumbent.

use std::time::Duration;

use jcr::core::prelude::*;
use jcr::core::validate::validate_solution;
use jcr::ctx::{Budget, Counter, Phase, SolverContext};
use jcr::flow::multicommodity::{min_cost_multicommodity_with_context, Commodity};
use jcr::graph::{shortest, DiGraph, NodeId};
use jcr::topo::{Topology, TopologyKind};

use jcr_bench::exp::{evaluate, Algo, ExpConfig, Metrics};
use jcr_bench::Scenario;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn capped_instance(seed: u64) -> Instance {
    InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, seed).unwrap())
        .items(8)
        .cache_capacity(2.0)
        .zipf_demand(0.8, 500.0, seed)
        .link_capacity_fraction(0.05)
        .build()
        .unwrap()
}

/// A seeded multicommodity workload on the Abovenet topology's graph.
fn flow_workload() -> (DiGraph, Vec<f64>, Vec<f64>, Vec<Commodity>) {
    let inst = capped_instance(11);
    let g = inst.graph.clone();
    let cost = inst.link_cost.clone();
    let n = g.node_count();
    let commodities: Vec<Commodity> = (0..12)
        .map(|k| Commodity {
            source: NodeId::new((k * 5 + 1) % n),
            dest: NodeId::new((k * 7 + 3) % n),
            demand: 0.5 + 0.25 * (k % 4) as f64,
        })
        .filter(|c| c.source != c.dest)
        .collect();
    let total: f64 = commodities.iter().map(|c| c.demand).sum();
    let cap = vec![total; g.edge_count()];
    (g, cost, cap, commodities)
}

#[test]
fn all_pairs_costs_bit_identical_across_worker_counts() {
    let inst = capped_instance(9);
    let g = &inst.graph;
    let cost = &inst.link_cost;
    let baseline = shortest::all_pairs_with_context(g, cost, &SolverContext::new().with_workers(1));
    for workers in WORKER_COUNTS {
        let ctx = SolverContext::new().with_workers(workers);
        let rows = shortest::all_pairs_with_context(g, cost, &ctx);
        assert_eq!(rows.len(), baseline.len());
        for (row, expect) in rows.iter().zip(&baseline) {
            for (a, b) in row.iter().zip(expect) {
                assert_eq!(a.to_bits(), b.to_bits(), "workers = {workers}");
            }
        }
        // Counters are sums and thus worker-count independent too.
        assert_eq!(
            ctx.stats().dijkstra_calls,
            g.node_count() as u64,
            "workers = {workers}"
        );
    }
}

#[test]
fn column_generation_objective_bit_identical_across_worker_counts() {
    let (g, cost, cap, commodities) = flow_workload();
    let mut baseline = None;
    for workers in WORKER_COUNTS {
        let ctx = SolverContext::new().with_workers(workers);
        let (sol, _) =
            min_cost_multicommodity_with_context(&g, &cost, &cap, &commodities, &[], &ctx)
                .expect("workload is feasible");
        let stats = ctx.stats();
        let fingerprint = (
            sol.cost.to_bits(),
            sol.path_flows
                .iter()
                .map(|flows| {
                    flows
                        .iter()
                        .map(|pf| (pf.amount.to_bits(), pf.path.edges().to_vec()))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>(),
            stats.counter(Counter::CgColumns),
            stats.counter(Counter::DijkstraCalls),
            stats.counter(Counter::SimplexPivots),
        );
        match &baseline {
            None => baseline = Some(fingerprint),
            Some(expect) => assert_eq!(&fingerprint, expect, "workers = {workers}"),
        }
    }
}

#[test]
fn monte_carlo_aggregates_bit_identical_across_worker_counts() {
    let mut sc = Scenario::chunk_default();
    sc.n_videos = 6;
    let algos: Vec<Algo> = vec![
        Algo {
            name: "SP".into(),
            run: Box::new(|inst, ctx| ShortestPathPlacement.solve_with_context(inst, ctx)),
        },
        Algo {
            name: "SP+RNR".into(),
            run: Box::new(|inst, ctx| IoannidisYeh::sp_rnr().solve_with_context(inst, ctx)),
        },
    ];
    let bits = |ms: &[Metrics]| {
        ms.iter()
            .flat_map(|m| {
                [
                    m.cost_true.to_bits(),
                    m.congestion_true.to_bits(),
                    m.occupancy_true.to_bits(),
                    m.cost_pred.to_bits(),
                    m.congestion_pred.to_bits(),
                    m.occupancy_pred.to_bits(),
                ]
            })
            .collect::<Vec<_>>()
    };
    let mut baseline = None;
    for workers in WORKER_COUNTS {
        let cfg = ExpConfig {
            runs: 3,
            hours: 1,
            workers,
            ..ExpConfig::default()
        };
        let metrics = bits(&evaluate(&sc, &algos, cfg));
        match &baseline {
            None => baseline = Some(metrics),
            Some(expect) => assert_eq!(&metrics, expect, "workers = {workers}"),
        }
    }
}

#[test]
fn budget_exceeded_in_a_worker_cancels_the_pool() {
    // Every worker sees the already-spent deadline; the pool cancels and
    // the smallest-index error surfaces, exactly like the serial path.
    let items: Vec<u32> = (0..512).collect();
    for workers in WORKER_COUNTS {
        let ctx =
            SolverContext::with_budget(Budget::deadline(Duration::ZERO)).with_workers(workers);
        let err = jcr::ctx::par::try_par_map(&ctx, &items, |wctx, _, _| {
            wctx.check_deadline(Phase::Dijkstra)?;
            Ok::<(), jcr::ctx::BudgetExceeded>(())
        })
        .expect_err("spent deadline must cancel the pool");
        assert_eq!(err.phase, Phase::Dijkstra, "workers = {workers}");
    }
}

#[test]
fn budget_trip_still_returns_validated_incumbent_under_parallel_pool() {
    let inst = capped_instance(7);
    for workers in WORKER_COUNTS {
        let ctx =
            SolverContext::with_budget(Budget::unlimited().with_phase_cap(Phase::Alternating, 1))
                .with_workers(workers);
        let err = Alternating::new()
            .solve_with_context(&inst, &ctx)
            .expect_err("a 1-iteration cap must interrupt the alternation");
        match err {
            JcrError::BudgetExceeded { phase, best_so_far } => {
                assert_eq!(phase, Phase::Alternating, "workers = {workers}");
                let incumbent = *best_so_far.expect("one full iterate completed");
                let violations = validate_solution(&inst, &incumbent);
                assert!(
                    violations.is_empty(),
                    "workers = {workers}: incumbent infeasible: {violations:?}"
                );
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }
}

#[test]
fn full_alternating_solve_bit_identical_across_worker_counts() {
    let mut baseline = None;
    for workers in WORKER_COUNTS {
        // Fresh instances per worker count: the all-pairs cache must be
        // recomputed under each pool width to prove bit-identity.
        let inst = capped_instance(4);
        let ctx = SolverContext::new().with_workers(workers);
        let sol = Alternating::new()
            .solve_with_context(&inst, &ctx)
            .expect("solvable instance");
        let cost = sol.solution.cost(&inst).to_bits();
        match baseline {
            None => baseline = Some(cost),
            Some(expect) => assert_eq!(cost, expect, "workers = {workers}"),
        }
    }
}
