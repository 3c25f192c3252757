//! Structured stress tests for the simplex solver: problem families with
//! independently computable optima (assignment, max-flow duality,
//! knapsack relaxations) and degeneracy-prone constructions.

use jcr_ctx::SolverContext;
use jcr_lp::{Model, Sense};

fn assert_near(a: f64, b: f64, tol: f64) {
    assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
}

/// n×n assignment LP; its optimum equals the best permutation (total
/// unimodularity), which we brute-force for small n.
#[test]
fn assignment_lp_matches_brute_force() {
    let n = 5;
    // Deterministic pseudo-random cost matrix.
    let cost = |i: usize, j: usize| ((i * 31 + j * 17 + i * j * 7) % 23) as f64 + 1.0;

    let mut m = Model::new(Sense::Minimize);
    let mut vars = vec![Vec::new(); n];
    for (i, row) in vars.iter_mut().enumerate() {
        for j in 0..n {
            row.push(m.add_var(0.0, 1.0, cost(i, j)));
        }
    }
    for row in vars.iter().take(n) {
        let entries: Vec<_> = (0..n).map(|j| (row[j], 1.0)).collect();
        m.add_row(1.0, 1.0, &entries);
    }
    for j in 0..n {
        let entries: Vec<_> = vars.iter().take(n).map(|row| (row[j], 1.0)).collect();
        m.add_row(1.0, 1.0, &entries);
    }
    let lp = m.solve_with_context(&SolverContext::new()).unwrap();

    // Brute force over permutations.
    let mut perm: Vec<usize> = (0..n).collect();
    let mut best = f64::INFINITY;
    permute(&mut perm, 0, &mut |p| {
        let total: f64 = p.iter().enumerate().map(|(i, &j)| cost(i, j)).sum();
        if total < best {
            best = total;
        }
    });
    assert_near(lp.objective, best, 1e-6);
    // Total unimodularity: the LP solution is integral.
    for row in &vars {
        for &v in row {
            let x = lp.x[v.index()];
            assert!(
                !(1e-6..=1.0 - 1e-6).contains(&x),
                "fractional assignment {x}"
            );
        }
    }
}

fn permute(p: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
    if k == p.len() {
        f(p);
        return;
    }
    for i in k..p.len() {
        p.swap(k, i);
        permute(p, k + 1, f);
        p.swap(k, i);
    }
}

/// Max-flow as an LP agrees with Dinic (weak duality exercised through a
/// completely different algorithm in another crate is covered elsewhere;
/// here we check a hand-computed cut).
#[test]
fn max_flow_lp_hits_the_cut() {
    // s -> a (3), s -> b (2), a -> t (2), b -> t (3), a -> b (1): max flow 5.
    let arcs = [
        (0usize, 1usize, 3.0),
        (0, 2, 2.0),
        (1, 3, 2.0),
        (2, 3, 3.0),
        (1, 2, 1.0),
    ];
    let mut m = Model::new(Sense::Maximize);
    let f: Vec<_> = arcs
        .iter()
        .map(|&(_, _, c)| m.add_var(0.0, c, 0.0))
        .collect();
    let value = m.add_var(0.0, f64::INFINITY, 1.0);
    // Conservation at interior nodes 1, 2; source emits `value`.
    for node in [1usize, 2] {
        let mut entries = Vec::new();
        for (k, &(u, v, _)) in arcs.iter().enumerate() {
            if u == node {
                entries.push((f[k], 1.0));
            }
            if v == node {
                entries.push((f[k], -1.0));
            }
        }
        m.add_row(0.0, 0.0, &entries);
    }
    let mut out_of_source = Vec::new();
    for (k, &(u, _, _)) in arcs.iter().enumerate() {
        if u == 0 {
            out_of_source.push((f[k], 1.0));
        }
    }
    out_of_source.push((value, -1.0));
    m.add_row(0.0, 0.0, &out_of_source);
    let lp = m.solve_with_context(&SolverContext::new()).unwrap();
    assert_near(lp.objective, 5.0, 1e-7);
}

/// Heavily degenerate LP: many redundant copies of the same constraint
/// must not cycle.
#[test]
fn redundant_constraints_do_not_cycle() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_var(0.0, f64::INFINITY, 1.0);
    let y = m.add_var(0.0, f64::INFINITY, 1.0);
    for _ in 0..40 {
        m.add_row(f64::NEG_INFINITY, 10.0, &[(x, 1.0), (y, 1.0)]);
    }
    for _ in 0..40 {
        m.add_row(f64::NEG_INFINITY, 10.0, &[(x, 2.0), (y, 2.0)]);
    }
    let lp = m.solve_with_context(&SolverContext::new()).unwrap();
    assert_near(lp.objective, 5.0, 1e-6); // 2x + 2y ≤ 10 binds
}

/// Fractional-knapsack LP: the optimum fills items by value density.
#[test]
fn knapsack_relaxation_fills_by_density() {
    // (value, weight): densities 5, 3, 2, 1.
    let items = [(10.0, 2.0), (9.0, 3.0), (8.0, 4.0), (4.0, 4.0)];
    let budget = 7.0;
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = items.iter().map(|&(v, _)| m.add_var(0.0, 1.0, v)).collect();
    let entries: Vec<_> = vars
        .iter()
        .zip(&items)
        .map(|(&x, &(_, w))| (x, w))
        .collect();
    m.add_row(f64::NEG_INFINITY, budget, &entries);
    let lp = m.solve_with_context(&SolverContext::new()).unwrap();
    // Take items 1 and 2 fully (weight 5), half of item 3 → 10 + 9 + 4 = 23.
    assert_near(lp.objective, 23.0, 1e-6);
    assert_near(lp.x[vars[0].index()], 1.0, 1e-6);
    assert_near(lp.x[vars[1].index()], 1.0, 1e-6);
    assert_near(lp.x[vars[2].index()], 0.5, 1e-6);
    assert_near(lp.x[vars[3].index()], 0.0, 1e-6);
}

/// A chain of equalities forcing long pivoting sequences.
#[test]
fn equality_chain() {
    let n = 60;
    let mut m = Model::new(Sense::Minimize);
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_var(0.0, 10.0, (i % 3) as f64))
        .collect();
    // x_0 = 1; x_{i+1} = x_i.
    m.add_row(1.0, 1.0, &[(vars[0], 1.0)]);
    for i in 0..n - 1 {
        m.add_row(0.0, 0.0, &[(vars[i], 1.0), (vars[i + 1], -1.0)]);
    }
    let lp = m.solve_with_context(&SolverContext::new()).unwrap();
    for &v in &vars {
        assert_near(lp.x[v.index()], 1.0, 1e-6);
    }
    let expect: f64 = (0..n).map(|i| (i % 3) as f64).sum();
    assert_near(lp.objective, expect, 1e-6);
}

/// Bounds tighter than rows; the optimum sits on variable bounds.
#[test]
fn variable_bounds_dominate() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_var(1.0, 2.0, 5.0);
    let y = m.add_var(-1.0, 0.5, -3.0);
    m.add_row(f64::NEG_INFINITY, 100.0, &[(x, 1.0), (y, 1.0)]);
    let lp = m.solve_with_context(&SolverContext::new()).unwrap();
    assert_near(lp.x[x.index()], 2.0, 1e-9);
    assert_near(lp.x[y.index()], -1.0, 1e-9);
    assert_near(lp.objective, 13.0, 1e-9);
}

/// Warm-started column generation over many rounds stays consistent with
/// cold solves of the final model (a long-horizon version of the unit
/// test, mimicking the MMSFP master's usage pattern).
#[test]
fn long_column_generation_session() {
    let ctx = SolverContext::new();
    let mut m = Model::new(Sense::Minimize);
    let a = m.add_var(0.0, f64::INFINITY, 100.0);
    let demand_rows: Vec<_> = (0..5).map(|_| m.add_row(1.0, 1.0, &[(a, 1.0)])).collect();
    let cap_row = m.add_row(f64::NEG_INFINITY, 3.0, &[]);
    let mut cold = m.clone();
    let mut solver = m.into_solver();
    solver.solve_with_context(&ctx).unwrap();
    // Price in 25 columns of decreasing cost across the demand rows.
    let mut k = 0usize;
    for round in 0..5 {
        for (r, &row) in demand_rows.iter().enumerate() {
            let obj = 50.0 - (round * 5 + r) as f64;
            let column = vec![(row, 1.0), (cap_row, 1.0)];
            solver.add_column(0.0, f64::INFINITY, obj, &column);
            let v = cold.add_var_with_column(0.0, f64::INFINITY, obj, &column);
            assert_eq!(v.index(), solver.model().num_vars() - 1);
            k += 1;
        }
        let warm = solver.solve_with_context(&ctx).unwrap();
        let cold_sol = cold.solve_with_context(&ctx).unwrap();
        assert_near(warm.objective, cold_sol.objective, 1e-6);
    }
    assert_eq!(k, 25);
}
