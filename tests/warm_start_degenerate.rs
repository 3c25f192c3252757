//! Degenerate warm-start scenarios: every one must fall back (or repair)
//! cleanly — a stale or hostile [`jcr::lp::Basis`] is never an error, at
//! worst a cold solve.
//!
//! Covered:
//! * a basis snapshotted from a model whose fixed column (`lo == hi`, the
//!   kind a presolve substitutes out) was since dropped (dimension
//!   mismatch → cold fallback);
//! * a basis saved from an *infeasible* prior hour, restored into a
//!   feasible model of the same shape (phase 1 repairs feasibility);
//! * an online simulation whose topology is perturbed hour-over-hour by
//!   the fault injector, so the carried basis no longer matches the next
//!   hour's LP shape.

use jcr::core::prelude::*;
use jcr::ctx::{Budget, SolverContext};
use jcr::lp::{Model, Sense};
use jcr::sim::faults::{FaultConfig, FaultEvent, FaultInjector};
use jcr::topo::{Topology, TopologyKind};

/// min x0 + 2*x1 (+ 7*fixed) s.t. x0 + x1 >= 4, with `fixed` pinned at 3.
/// The pinned column (`lo == hi`) is exactly what a presolve eliminates.
fn model_with_fixed_column() -> Model {
    let mut m = Model::new(Sense::Minimize);
    let x0 = m.add_var(0.0, 10.0, 1.0);
    let x1 = m.add_var(0.0, 10.0, 2.0);
    let _fixed = m.add_var(3.0, 3.0, 7.0);
    m.add_row(4.0, f64::INFINITY, &[(x0, 1.0), (x1, 1.0)]);
    m
}

/// The presolve-reduced equivalent of [`model_with_fixed_column`]: the
/// fixed column substituted out, one variable fewer.
fn reduced_model() -> Model {
    let mut m = Model::new(Sense::Minimize);
    let x0 = m.add_var(0.0, 10.0, 1.0);
    let x1 = m.add_var(0.0, 10.0, 2.0);
    m.add_row(4.0, f64::INFINITY, &[(x0, 1.0), (x1, 1.0)]);
    m
}

#[test]
fn stale_basis_from_presolve_removed_column_falls_back_cold() {
    // Snapshot a basis against the full (3-variable) model…
    let mut full = model_with_fixed_column().into_solver();
    full.solve_with_context(&SolverContext::new()).unwrap();
    let stale = full.basis().expect("solved model exposes a basis");

    // …then warm-start the reduced (2-variable) model from it. The
    // dimension gate must reject the snapshot and fall back cold, with
    // no error and the exact cold objective (determinism contract: the
    // fallback path is bit-identical to a cold solve).
    let ctx = SolverContext::new();
    let mut reduced = reduced_model().into_solver();
    let warm = reduced.solve_from_basis(&stale, &ctx).unwrap();
    let cold = reduced_model()
        .into_solver()
        .solve_with_context(&SolverContext::new())
        .unwrap();
    assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
    assert_eq!(warm.x, cold.x);

    let counters = ctx.obs().snapshot().counters;
    assert_eq!(counters.get("lp.warm_fallback"), Some(&1));
    assert_eq!(counters.get("lp.warm_start"), None);
}

#[test]
fn basis_from_infeasible_prior_hour_is_repaired_not_an_error() {
    // Prior "hour": same shape, but the row demands more than the bounds
    // allow — infeasible. The solver still retains its simplex (and thus
    // a basis) after the failed solve.
    let mut prior = Model::new(Sense::Minimize);
    let x = prior.add_var(0.0, 2.0, 1.0);
    prior.add_row(5.0, f64::INFINITY, &[(x, 1.0)]);
    let mut prior_solver = prior.into_solver();
    prior_solver
        .solve_with_context(&SolverContext::new())
        .expect_err("prior hour is infeasible");
    let hostile = prior_solver
        .basis()
        .expect("basis survives an infeasible solve");

    // This hour: identical shape, feasible. Restoring the hostile basis
    // must not error — phase 1 repairs feasibility if the restore is
    // accepted, and a rejected restore falls back cold. Either way the
    // optimum is x = 5.
    let mut this_hour = Model::new(Sense::Minimize);
    let x = this_hour.add_var(0.0, 10.0, 1.0);
    this_hour.add_row(5.0, f64::INFINITY, &[(x, 1.0)]);
    let ctx = SolverContext::new();
    let sol = this_hour
        .into_solver()
        .solve_from_basis(&hostile, &ctx)
        .expect("degenerate warm start must not error");
    assert!((sol.objective - 5.0).abs() < 1e-9);
    assert!((sol.x[0] - 5.0).abs() < 1e-9);

    // Exactly one warm-start attempt was recorded, as a start or a
    // fallback — never silently neither.
    let counters = ctx.obs().snapshot().counters;
    let started = counters.get("lp.warm_start").copied().unwrap_or(0);
    let fell_back = counters.get("lp.warm_fallback").copied().unwrap_or(0);
    assert_eq!(started + fell_back, 1);
}

fn base_instance() -> Instance {
    let topo = Topology::generate(TopologyKind::Abovenet, 5).unwrap();
    let n_edges = topo.edge_nodes.len();
    let rates: Vec<Vec<f64>> = (0..6)
        .map(|i| {
            (0..n_edges)
                .map(|k| 100.0 * (1.0 + ((i * 7 + k * 3) % 5) as f64))
                .collect()
        })
        .collect();
    InstanceBuilder::new(topo)
        .items(6)
        .cache_capacity(2.0)
        .demand_matrix(rates)
        .link_capacity_fraction(0.05)
        .build()
        .unwrap()
}

#[test]
fn warm_start_survives_fault_injector_topology_delta() {
    let base = base_instance();
    let truth: Vec<f64> = base.requests.iter().map(|r| r.rate).collect();
    let mut sim = OnlineSimulator::new(Alternating::new());

    // Hour 0 on the pristine instance seeds the carried basis.
    sim.step(&base, &truth).unwrap();

    // Find an injector hour that commits a *structural* fault (a killed
    // link or node), so the next hour's LP genuinely changes shape.
    let injector = FaultInjector::new(FaultConfig::uniform(42, 0.9));
    let faulted = (0..64)
        .map(|h| injector.inject(h, &base, Budget::unlimited()))
        .find(|hour| {
            hour.events.iter().any(|e| {
                matches!(
                    e,
                    FaultEvent::LinkFailed { .. } | FaultEvent::NodeFailed { .. }
                )
            })
        })
        .expect("a 0.9 fault rate must produce a structural fault in 64 hours");

    // The carried basis no longer matches the faulted hour's LP. The
    // step must still succeed — cold fallback, never an error.
    let faulted_truth: Vec<f64> = faulted.instance.requests.iter().map(|r| r.rate).collect();
    let outcome = sim.step(&faulted.instance, &faulted_truth).unwrap();
    assert!(outcome.solution.placement.is_feasible(&faulted.instance));

    // And the hour after, back on the pristine topology, also succeeds:
    // whatever basis the faulted hour committed is again just a hint.
    let outcome = sim.step(&base, &truth).unwrap();
    assert!(outcome.solution.placement.is_feasible(&base));
    assert_eq!(sim.hour(), 3);
}
