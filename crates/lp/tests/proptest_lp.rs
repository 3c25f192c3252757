//! Randomized property tests for the simplex solver: feasibility,
//! optimality certificates, and warm-start consistency on random LPs
//! drawn from the in-tree seeded PRNG (same cases every run).

use jcr_ctx::rng::{Rng, SeedableRng, StdRng};
use jcr_ctx::SolverContext;
use jcr_lp::{Model, Sense};

const CASES: u64 = 64;

/// A random minimization LP that is always feasible at x = 0: variables in
/// [0, u], rows Σ a x ≤ U with a ≥ 0, plus optional ≥ rows that 0 also
/// satisfies (lower bound ≤ 0).
#[derive(Debug, Clone)]
struct RandomLp {
    upper: Vec<f64>,
    obj: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>,
}

fn random_lp(rng: &mut StdRng) -> RandomLp {
    let n = rng.gen_range(2..8usize);
    let upper = (0..n).map(|_| rng.gen_range(0.2..5.0)).collect();
    let obj = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
    let n_rows = rng.gen_range(0..6usize);
    let rows = (0..n_rows)
        .map(|_| {
            let coefs = (0..n).map(|_| rng.gen_range(0.0..2.0)).collect();
            (coefs, rng.gen_range(0.5..8.0))
        })
        .collect();
    RandomLp { upper, obj, rows }
}

fn build(lp: &RandomLp) -> Model {
    let mut m = Model::new(Sense::Minimize);
    let vars: Vec<_> = lp
        .upper
        .iter()
        .zip(&lp.obj)
        .map(|(&u, &c)| m.add_var(0.0, u, c))
        .collect();
    for (coefs, ub) in &lp.rows {
        let entries: Vec<_> = vars.iter().copied().zip(coefs.iter().copied()).collect();
        m.add_row(f64::NEG_INFINITY, *ub, &entries);
    }
    m
}

/// The solution is feasible and no sampled feasible point beats it.
#[test]
fn optimal_beats_sampled_points() {
    let ctx = SolverContext::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6c70_3031 + case);
        let lp = random_lp(&mut rng);
        let m = build(&lp);
        let sol = m.solve_with_context(&ctx).expect("always feasible at 0");
        assert!(m.is_feasible(&sol.x, 1e-6));
        for _ in 0..20 {
            // Scale a random box sample, then shrink until feasible.
            let mut x: Vec<f64> = lp
                .upper
                .iter()
                .map(|&u| rng.gen_range(0.0..1.0) * u)
                .collect();
            let mut guard = 0;
            while !m.is_feasible(&x, 1e-9) {
                for v in &mut x {
                    *v *= 0.5;
                }
                guard += 1;
                if guard > 60 {
                    break;
                }
            }
            if m.is_feasible(&x, 1e-9) {
                assert!(
                    m.objective_value(&x) >= sol.objective - 1e-6,
                    "case {case}: sampled point beats 'optimal': {} < {}",
                    m.objective_value(&x),
                    sol.objective
                );
            }
        }
    }
}

/// Maximization is consistent with minimizing the negated objective.
#[test]
fn max_equals_negated_min() {
    let ctx = SolverContext::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6c70_3032 + case);
        let lp = random_lp(&mut rng);
        let min_model = build(&lp);
        let min_sol = min_model.solve_with_context(&ctx).unwrap();
        let mut max_model = Model::new(Sense::Maximize);
        let vars: Vec<_> = lp
            .upper
            .iter()
            .zip(&lp.obj)
            .map(|(&u, &c)| max_model.add_var(0.0, u, -c))
            .collect();
        for (coefs, ub) in &lp.rows {
            let entries: Vec<_> = vars.iter().copied().zip(coefs.iter().copied()).collect();
            max_model.add_row(f64::NEG_INFINITY, *ub, &entries);
        }
        let max_sol = max_model.solve_with_context(&ctx).unwrap();
        assert!(
            (max_sol.objective + min_sol.objective).abs() < 1e-6,
            "case {case}: max {} vs -min {}",
            max_sol.objective,
            -min_sol.objective
        );
    }
}

/// Adding a column and re-solving warm equals solving the extended
/// model cold.
#[test]
fn warm_start_matches_cold_solve() {
    let ctx = SolverContext::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6c70_3033 + case);
        let lp = random_lp(&mut rng);
        let extra_obj = rng.gen_range(-3.0..3.0);
        let extra_coef = rng.gen_range(0.0..2.0);
        let m = build(&lp);
        let mut solver = m.clone().into_solver();
        let _ = solver.solve_with_context(&ctx).unwrap();
        let column: Vec<_> = (0..lp.rows.len())
            .map(|r| (jcr_lp::ConId::from_index(r), extra_coef))
            .collect();
        solver.add_column(0.0, 2.0, extra_obj, &column);
        let warm = solver.solve_with_context(&ctx).unwrap();

        let mut cold = build(&lp);
        let v = cold.add_var(0.0, 2.0, extra_obj);
        for r in 0..lp.rows.len() {
            cold.set_coeff(jcr_lp::ConId::from_index(r), v, extra_coef);
        }
        let cold_sol = cold.solve_with_context(&ctx).unwrap();
        assert!(
            (warm.objective - cold_sol.objective).abs() < 1e-6,
            "case {case}: warm {} vs cold {}",
            warm.objective,
            cold_sol.objective
        );
    }
}

/// Duals price the columns consistently: at optimality no nonbasic
/// column at its lower bound has a negative reduced cost.
#[test]
fn reduced_costs_certify_optimality() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6c70_3034 + case);
        let lp = random_lp(&mut rng);
        let m = build(&lp);
        let sol = m.solve_with_context(&SolverContext::new()).unwrap();
        for j in 0..lp.upper.len() {
            // Column entries of variable j.
            let column: Vec<(usize, f64)> = lp
                .rows
                .iter()
                .enumerate()
                .map(|(r, (coefs, _))| (r, coefs[j]))
                .collect();
            let rc = sol.reduced_cost(lp.obj[j], &column);
            let at_lower = sol.x[j] < 1e-7;
            let at_upper = sol.x[j] > lp.upper[j] - 1e-7;
            if at_lower && !at_upper {
                assert!(rc >= -1e-5, "case {case}: var {j} at lower with rc {rc}");
            } else if at_upper && !at_lower {
                assert!(rc <= 1e-5, "case {case}: var {j} at upper with rc {rc}");
            }
        }
    }
}
