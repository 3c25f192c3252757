//! Presolve: problem reductions applied before the simplex.
//!
//! The cache-network LPs carry easy structure — fixed variables (e.g.
//! items pinned in or out of a cache), singleton rows that are really
//! bounds, and rows emptied by substitution — and eliminating it up front
//! shrinks the basis the simplex must factor. Reductions applied, to a
//! fixed point:
//!
//! 1. **fixed variables** (`l = u`): substituted into every row and the
//!    objective;
//! 2. **empty rows**: dropped after a consistency check (`0 ∈ [L, U]`);
//! 3. **singleton rows** (`a·x ∈ [L, U]`): folded into the variable's
//!    bounds and dropped.
//!
//! [`solve_with_context`] runs the reductions, solves the reduced LP, and
//! maps the solution back to the original variable/row spaces, so it is a
//! drop-in replacement for [`Model::solve_with_context`].

use crate::model::Model;
use crate::simplex::{LpError, Solution};

/// Outcome of the reduction pass.
#[derive(Clone, Debug)]
pub struct PresolveInfo {
    /// Variables eliminated as fixed.
    pub fixed_vars: usize,
    /// Rows dropped (empty or singleton).
    pub dropped_rows: usize,
}

/// Solves `model` with presolve reductions under `ctx`, reporting what
/// presolve eliminated; results match [`Model::solve_with_context`] up to
/// numerical tolerance. The reduced LP's simplex obeys the context's
/// budget and records its statistics.
///
/// # Errors
///
/// Same contract as [`Model::solve_with_context`]; inconsistencies
/// detected during presolve surface as [`LpError::Infeasible`].
pub fn solve_with_context(
    model: &Model,
    ctx: &jcr_ctx::SolverContext,
) -> Result<(Solution, PresolveInfo), LpError> {
    let n = model.num_vars();
    let m = model.num_rows();
    let tol = 1e-9;

    // Column-wise coefficients copied into a mutable working form.
    let mut lower = model.lower.clone();
    let mut upper = model.upper.clone();
    let mut row_lower = model.row_lower.clone();
    let mut row_upper = model.row_upper.clone();
    let cols = &model.cols;

    // Row-wise view for counting live entries.
    let mut row_entries: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
    for (j, col) in cols.iter().enumerate() {
        for &(r, a) in col {
            if a != 0.0 {
                row_entries[r].push((j, a));
            }
        }
    }

    let mut var_fixed: Vec<Option<f64>> = vec![None; n];
    let mut row_dropped = vec![false; m];
    let mut fixed_count = 0usize;
    let mut dropped_count = 0usize;

    // Iterate reductions to a fixed point.
    loop {
        let mut changed = false;
        // 1. Fix variables with collapsed bounds and substitute them.
        for j in 0..n {
            if var_fixed[j].is_none() && (upper[j] - lower[j]).abs() <= tol {
                let v = 0.5 * (lower[j] + upper[j]);
                var_fixed[j] = Some(v);
                fixed_count += 1;
                changed = true;
                if v != 0.0 {
                    for &(r, a) in &cols[j] {
                        if row_lower[r].is_finite() {
                            row_lower[r] -= a * v;
                        }
                        if row_upper[r].is_finite() {
                            row_upper[r] -= a * v;
                        }
                    }
                }
            }
        }
        // Refresh live row entries (drop fixed variables).
        for r in 0..m {
            row_entries[r].retain(|&(j, _)| var_fixed[j].is_none());
        }
        // 2–3. Empty and singleton rows.
        for r in 0..m {
            if row_dropped[r] {
                continue;
            }
            match row_entries[r].len() {
                0 => {
                    if row_lower[r] > tol || row_upper[r] < -tol {
                        return Err(LpError::Infeasible);
                    }
                    row_dropped[r] = true;
                    dropped_count += 1;
                    changed = true;
                }
                1 => {
                    let (j, a) = row_entries[r][0];
                    debug_assert!(var_fixed[j].is_none());
                    // a·x ∈ [L, U] → x ∈ [L/a, U/a] (order by sign of a).
                    let (mut lo, mut hi) = (row_lower[r] / a, row_upper[r] / a);
                    if a < 0.0 {
                        std::mem::swap(&mut lo, &mut hi);
                    }
                    if lo.is_nan() {
                        lo = f64::NEG_INFINITY;
                    }
                    if hi.is_nan() {
                        hi = f64::INFINITY;
                    }
                    lower[j] = lower[j].max(lo);
                    upper[j] = upper[j].min(hi);
                    if lower[j] > upper[j] + tol {
                        return Err(LpError::Infeasible);
                    }
                    // Guard against crossing bounds within tolerance.
                    if lower[j] > upper[j] {
                        let mid = 0.5 * (lower[j] + upper[j]);
                        lower[j] = mid;
                        upper[j] = mid;
                    }
                    row_dropped[r] = true;
                    dropped_count += 1;
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            break;
        }
    }

    // Build the reduced model.
    let mut reduced = Model::new(model.sense());
    let mut var_map: Vec<Option<crate::VarId>> = vec![None; n];
    for j in 0..n {
        if var_fixed[j].is_none() {
            var_map[j] = Some(reduced.add_var(lower[j], upper[j], model.obj[j]));
        }
    }
    let mut row_map: Vec<Option<crate::ConId>> = vec![None; m];
    for r in 0..m {
        if !row_dropped[r] {
            row_map[r] = Some(reduced.add_row(row_lower[r], row_upper[r], &[]));
        }
    }
    for j in 0..n {
        if let Some(vj) = var_map[j] {
            for &(r, a) in &cols[j] {
                if let Some(rr) = row_map[r] {
                    reduced.set_coeff(rr, vj, a);
                }
            }
        }
    }

    let sub = reduced.solve_with_context(ctx)?;

    // Map back. `var_map[j]` is Some exactly when `var_fixed[j]` is None —
    // both were filled from the same `var_fixed` scan above.
    let mut x = vec![0.0; n];
    for j in 0..n {
        x[j] = match var_fixed[j] {
            Some(v) => v,
            None => sub.x[var_map[j].expect("live variable").index()],
        };
    }
    let fixed_obj: f64 = var_fixed
        .iter()
        .enumerate()
        .filter_map(|(j, v)| v.map(|v| v * model.obj[j]))
        .sum();
    let mut duals = vec![0.0; m];
    for r in 0..m {
        if let Some(rr) = row_map[r] {
            duals[r] = sub.duals[rr.index()];
        }
    }
    Ok((
        Solution {
            x,
            objective: sub.objective + fixed_obj,
            duals,
            // The reduced solve was certified; the map-back is exact
            // substitution, so its certificate carries over.
            certificate: sub.certificate,
        },
        PresolveInfo {
            fixed_vars: fixed_count,
            dropped_rows: dropped_count,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, Sense};
    use jcr_ctx::SolverContext;

    #[test]
    fn matches_direct_solve_with_fixed_vars() {
        let ctx = SolverContext::new();
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, 5.0, 2.0);
        let fixed = m.add_var(3.0, 3.0, 1.0); // fixed at 3
        m.add_row(f64::NEG_INFINITY, 10.0, &[(x, 1.0), (fixed, 2.0)]);
        let direct = m.solve_with_context(&ctx).unwrap();
        let (pre, info) = solve_with_context(&m, &ctx).unwrap();
        assert!((direct.objective - pre.objective).abs() < 1e-9);
        assert_eq!(info.fixed_vars, 1);
        assert!((pre.x[fixed.index()] - 3.0).abs() < 1e-12);
        // x limited by the row: x ≤ 10 − 6 = 4.
        assert!((pre.x[x.index()] - 4.0).abs() < 1e-7);
    }

    #[test]
    fn singleton_rows_become_bounds() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 100.0, 1.0);
        m.add_row(2.0, 7.0, &[(x, 1.0)]); // really a bound
        let (pre, info) = solve_with_context(&m, &SolverContext::new()).unwrap();
        assert_eq!(info.dropped_rows, 1);
        assert!((pre.x[x.index()] - 2.0).abs() < 1e-9);
        assert!((pre.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn negative_coefficient_singleton() {
        // −2x ≤ −6 → x ≥ 3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 100.0, 1.0);
        m.add_row(f64::NEG_INFINITY, -6.0, &[(x, -2.0)]);
        let (pre, _) = solve_with_context(&m, &SolverContext::new()).unwrap();
        assert!((pre.x[x.index()] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn detects_infeasibility_through_reductions() {
        // x fixed at 1 makes the row 2 ≤ x ≤ 3 empty-and-violated.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(1.0, 1.0, 0.0);
        m.add_row(2.0, 3.0, &[(x, 1.0)]);
        assert_eq!(
            solve_with_context(&m, &SolverContext::new()).unwrap_err(),
            LpError::Infeasible
        );
    }

    #[test]
    fn contradictory_singleton_bounds() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 1.0, 1.0);
        m.add_row(5.0, 6.0, &[(x, 1.0)]); // x ∈ [5, 6] vs x ≤ 1
        assert_eq!(
            solve_with_context(&m, &SolverContext::new()).unwrap_err(),
            LpError::Infeasible
        );
    }

    #[test]
    fn matches_direct_on_random_lps() {
        let ctx = SolverContext::new();
        use jcr_ctx::rng::{Rng, SeedableRng};
        let mut rng = jcr_ctx::rng::StdRng::seed_from_u64(44);
        for _case in 0..30 {
            let n = rng.gen_range(2..8usize);
            let mut m = Model::new(Sense::Minimize);
            let vars: Vec<_> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        // Some fixed variables to exercise substitution.
                        let v = rng.gen_range(0.0..2.0);
                        m.add_var(v, v, rng.gen_range(-2.0..2.0))
                    } else {
                        m.add_var(0.0, rng.gen_range(0.5..4.0), rng.gen_range(-2.0..2.0))
                    }
                })
                .collect();
            for _ in 0..rng.gen_range(1..6) {
                if rng.gen_bool(0.25) {
                    // Singleton row.
                    let j = rng.gen_range(0..n);
                    m.add_row(
                        f64::NEG_INFINITY,
                        rng.gen_range(0.5..5.0),
                        &[(vars[j], 1.0)],
                    );
                } else {
                    let entries: Vec<_> =
                        vars.iter().map(|&v| (v, rng.gen_range(0.0..2.0))).collect();
                    m.add_row(f64::NEG_INFINITY, rng.gen_range(2.0..10.0), &entries);
                }
            }
            let direct = m.solve_with_context(&ctx);
            let pre = solve_with_context(&m, &ctx).map(|(sol, _)| sol);
            match (direct, pre) {
                (Ok(a), Ok(b)) => {
                    assert!(
                        (a.objective - b.objective).abs() < 1e-6 * (1.0 + a.objective.abs()),
                        "direct {} vs presolved {}",
                        a.objective,
                        b.objective
                    );
                    assert!(m.is_feasible(&b.x, 1e-6));
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("disagreement: direct {a:?} vs presolved {b:?}"),
            }
        }
    }
}
