//! End-to-end checks of the [`jcr::ctx::SolverContext`] threading: the
//! instrumentation counters are populated and deterministic, iteration
//! budgets surface [`JcrError::BudgetExceeded`] with a feasible incumbent,
//! and a zero deadline fails fast on every solver entry point.

use std::time::Duration;

use jcr::core::prelude::*;
use jcr::core::validate::validate_solution;
use jcr::core::{alg2, fcfr};
use jcr::ctx::{Budget, Counter, Phase, SolverContext};
use jcr::topo::{Topology, TopologyKind};

fn capped_instance(seed: u64) -> Instance {
    InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, seed).unwrap())
        .items(8)
        .cache_capacity(2.0)
        .zipf_demand(0.8, 500.0, seed)
        .link_capacity_fraction(0.05)
        .build()
        .unwrap()
}

#[test]
fn stats_counters_nonzero_and_reproducible() {
    let inst = capped_instance(5);
    // All-pairs distances are computed once per instance and cached; warm
    // the cache so both solves below charge identical Dijkstra work to
    // their own contexts.
    inst.all_pairs();
    let solve = || {
        let ctx = SolverContext::new();
        let sol = Alternating::new().solve_with_context(&inst, &ctx).unwrap();
        (sol, ctx.stats())
    };
    let (sol_a, stats_a) = solve();
    let (sol_b, stats_b) = solve();

    // The alternating pipeline exercises the simplex, the column
    // generation pricing Dijkstras, and the rounding passes.
    for counter in [
        Counter::SimplexPivots,
        Counter::DijkstraCalls,
        Counter::RoundingPasses,
    ] {
        assert!(
            stats_a.counter(counter) > 0,
            "{} stayed zero over a full alternating solve",
            counter.name()
        );
    }
    // Same instance, same seed, fresh context: identical work and result.
    assert_eq!(
        stats_a.counters(),
        stats_b.counters(),
        "solver work not reproducible"
    );
    assert_eq!(sol_a.solution, sol_b.solution, "solution not reproducible");

    // Phase timers saw the phases the counters saw.
    assert!(stats_a.phase_time(Phase::Simplex) > Duration::ZERO);
}

#[test]
fn stats_flow_through_the_report() {
    let inst = capped_instance(2);
    let ctx = SolverContext::new();
    let sol = Algorithm1::new().solve_with_context(&inst, &ctx).unwrap();
    let text = jcr::core::report::solution_report_with_stats(&inst, &sol, &ctx.stats());
    assert!(text.contains("-- solver stats --"));
    assert!(text.contains("simplex pivots"));
}

#[test]
fn one_iteration_budget_returns_feasible_incumbent() {
    let inst = capped_instance(7);
    let ctx = SolverContext::with_budget(Budget::unlimited().with_phase_cap(Phase::Alternating, 1));
    let err = Alternating::new()
        .solve_with_context(&inst, &ctx)
        .expect_err("a 1-iteration cap must interrupt the alternation");
    match err {
        JcrError::BudgetExceeded { phase, best_so_far } => {
            assert_eq!(phase, Phase::Alternating);
            let incumbent = *best_so_far.expect("one full iterate completed");
            let violations = validate_solution(&inst, &incumbent);
            assert!(
                violations.is_empty(),
                "incumbent infeasible: {violations:?}"
            );
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn zero_deadline_fails_fast_everywhere() {
    let inst = capped_instance(3);
    let storer = inst.cache_nodes()[0];
    let ctx = SolverContext::with_budget(Budget::deadline(Duration::ZERO));

    let alg1 = Algorithm1::new().solve_with_context(&inst, &ctx);
    assert!(
        matches!(alg1, Err(JcrError::BudgetExceeded { .. })),
        "{alg1:?}"
    );

    let alt = Alternating::new().solve_with_context(&inst, &ctx);
    assert!(
        matches!(alt, Err(JcrError::BudgetExceeded { .. })),
        "{alt:?}"
    );

    let bin = alg2::solve_binary_caches_with_context(&inst, &[storer], 4, &ctx);
    assert!(
        matches!(bin, Err(JcrError::BudgetExceeded { .. })),
        "{:?}",
        bin.err()
    );

    let lp = fcfr::solve_fcfr_with_context(&inst, &ctx);
    assert!(
        matches!(lp, Err(JcrError::BudgetExceeded { .. })),
        "{:?}",
        lp.err()
    );

    let cg = fcfr::solve_fcfr_cg_with_context(&inst, &ctx);
    assert!(
        matches!(cg, Err(JcrError::BudgetExceeded { .. })),
        "{:?}",
        cg.err()
    );

    let iy = IoannidisYeh::ksp_rnr(3).solve_with_context(&inst, &ctx);
    assert!(
        matches!(iy, Err(JcrError::BudgetExceeded { .. })),
        "{:?}",
        iy.err()
    );
}
