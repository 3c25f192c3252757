//! Independent LP solution verification (DESIGN.md §11).
//!
//! [`certify`] recomputes, from the model data alone and with compensated
//! (Kahan/TwoSum) arithmetic, everything the simplex *claims* about a
//! returned [`Solution`]: primal feasibility of bounds and ranged rows,
//! the objective value, dual sign conditions, dual feasibility of the
//! reduced costs, complementary slackness, and the weak-duality gap
//! between the primal objective and the dual bound. None of the solver's
//! running sums, basis inverse, or pivot-time values are reused — a
//! drifted basis cannot certify itself.
//!
//! Tolerances are scaled from the solver's advertised tolerances
//! (`FEAS ≈ 1e-7` on activities, `DUAL ≈ 1e-7` on reduced costs): the
//! duality-gap check in particular accepts exactly the gap those
//! per-component slacks can legitimately produce, so a passing
//! certificate means "optimal up to the advertised tolerances" and a
//! failing one means the solver's claim is arithmetically wrong.

use jcr_ctx::cert::{Certificate, Kahan};

use crate::model::Model;
use crate::simplex::Solution;
use crate::Sense;

/// Per-component feasibility tolerance mirrored from the simplex.
const FEAS: f64 = 1e-7;
/// Per-component dual (reduced-cost) tolerance mirrored from the simplex.
const DUAL: f64 = 1e-7;

/// Independently verifies `sol` against `model`. The returned
/// [`Certificate`] carries one residual check per verified property;
/// [`Certificate::verified`] is the overall verdict.
pub fn certify(model: &Model, sol: &Solution) -> Certificate {
    let mut cert = Certificate::new("lp");
    let n = model.num_vars();
    let m = model.num_rows();
    if sol.x.len() != n || sol.duals.len() != m {
        cert.push("shape", f64::INFINITY, 0.0);
        return cert;
    }
    // Work in minimization form: negate the objective and the duals of a
    // maximization model (the solver reports both in the model's sense).
    let minimize = matches!(model.sense(), Sense::Minimize);
    let sgn = if minimize { 1.0 } else { -1.0 };
    let obj_min = sgn * sol.objective;

    // --- primal bounds -----------------------------------------------------
    let mut bound_viol = 0.0f64;
    for j in 0..n {
        let x = sol.x[j];
        if !x.is_finite() {
            cert.push("primal-finite", f64::INFINITY, 0.0);
            return cert;
        }
        let v = (model.lower[j] - x).max(x - model.upper[j]).max(0.0);
        bound_viol = bound_viol.max(v / (1.0 + x.abs()));
    }
    cert.push("primal-bounds", bound_viol, 10.0 * FEAS);

    // --- primal rows (compensated activities) ------------------------------
    let mut act_sum = vec![Kahan::new(); m];
    for (j, col) in model.cols.iter().enumerate() {
        let x = sol.x[j];
        if x != 0.0 {
            for &(r, a) in col {
                act_sum[r].add_prod(a, x);
            }
        }
    }
    let activity: Vec<f64> = act_sum.iter().map(Kahan::total).collect();
    let mut row_viol = 0.0f64;
    for r in 0..m {
        let v = (model.row_lower[r] - activity[r])
            .max(activity[r] - model.row_upper[r])
            .max(0.0);
        row_viol = row_viol.max(v / (1.0 + activity[r].abs()));
    }
    cert.push("primal-rows", row_viol, 10.0 * FEAS);

    // --- objective recompute ------------------------------------------------
    let mut obj = Kahan::new();
    for j in 0..n {
        obj.add_prod(model.obj[j], sol.x[j]);
    }
    let obj_primal_min = sgn * obj.total();
    cert.push(
        "objective",
        (obj_primal_min - obj_min).abs() / (1.0 + obj_min.abs()),
        1e-9,
    );

    // --- dual signs, reduced costs, complementary slackness ----------------
    // Minimization-form duals: y_r > 0 needs a finite row lower bound,
    // y_r < 0 a finite row upper bound, and the product with the slack to
    // the bound the sign points at must vanish.
    let y_min: Vec<f64> = sol.duals.iter().map(|&y| sgn * y).collect();
    let mut sign_viol = 0.0f64;
    let mut cs_rows = 0.0f64;
    for r in 0..m {
        let y = y_min[r];
        if y > DUAL && !model.row_lower[r].is_finite() {
            sign_viol = sign_viol.max(y);
        }
        if y < -DUAL && !model.row_upper[r].is_finite() {
            sign_viol = sign_viol.max(-y);
        }
        let dist = if y > 0.0 && model.row_lower[r].is_finite() {
            (activity[r] - model.row_lower[r]).abs()
        } else if y < 0.0 && model.row_upper[r].is_finite() {
            (model.row_upper[r] - activity[r]).abs()
        } else {
            0.0
        };
        cs_rows = cs_rows.max((y.abs() * dist) / ((1.0 + y.abs()) * (1.0 + activity[r].abs())));
    }
    cert.push("dual-signs", sign_viol, 10.0 * DUAL);
    cert.push("compl-slack-rows", cs_rows, 1e-5);

    // Reduced costs d = c − Aᵀy (compensated, minimization form), checked
    // against the variable's position in its box.
    let mut dual_viol = 0.0f64;
    let mut cs_cols = 0.0f64;
    let mut reduced = Vec::with_capacity(n);
    for j in 0..n {
        let mut d = Kahan::new();
        d.add(sgn * model.obj[j]);
        for &(r, a) in &model.cols[j] {
            d.add_prod(-a, y_min[r]);
        }
        let d = d.total();
        reduced.push(d);
        let x = sol.x[j];
        let lo = model.lower[j];
        let up = model.upper[j];
        let at_lower = lo.is_finite() && x <= lo + 10.0 * FEAS * (1.0 + lo.abs());
        let at_upper = up.is_finite() && x >= up - 10.0 * FEAS * (1.0 + up.abs());
        let scale = 1.0 + d.abs();
        if at_lower && at_upper {
            // Fixed variable: any reduced cost is consistent.
        } else if at_lower {
            dual_viol = dual_viol.max((-d).max(0.0) / scale);
        } else if at_upper {
            dual_viol = dual_viol.max(d.max(0.0) / scale);
        } else {
            // Interior (or free): the reduced cost must vanish.
            cs_cols = cs_cols.max(d.abs() / (scale * (1.0 + x.abs())));
        }
    }
    cert.push("dual-feasibility", dual_viol, 10.0 * DUAL);
    cert.push("compl-slack-cols", cs_cols, 1e-5);

    // --- weak-duality gap ---------------------------------------------------
    // Dual objective for ranged rows and boxed variables (minimization
    // form): Σ_r [y⁺L + y⁻U] + Σ_j [d⁺l + d⁻u]. Multipliers that pair
    // with an infinite bound contribute nothing here — the sign checks
    // above already flag them when they are non-negligible.
    let mut dual_obj = Kahan::new();
    for r in 0..m {
        let y = y_min[r];
        if y > 0.0 && model.row_lower[r].is_finite() {
            dual_obj.add_prod(y, model.row_lower[r]);
        } else if y < 0.0 && model.row_upper[r].is_finite() {
            dual_obj.add_prod(y, model.row_upper[r]);
        }
    }
    for j in 0..n {
        let d = reduced[j];
        if d > 0.0 && model.lower[j].is_finite() {
            dual_obj.add_prod(d, model.lower[j]);
        } else if d < 0.0 && model.upper[j].is_finite() {
            dual_obj.add_prod(d, model.upper[j]);
        }
    }
    let gap = (obj_primal_min - dual_obj.total()).abs();
    // The gap budget the advertised tolerances can legitimately produce:
    // DUAL per variable (scaled by its magnitude) plus FEAS per row
    // (scaled by its dual), plus roundoff headroom on the objective.
    let mut budget = 1e-9 * (1.0 + obj_min.abs());
    for j in 0..n {
        budget += DUAL * (1.0 + sol.x[j].abs());
    }
    for r in 0..m {
        budget += FEAS * (1.0 + y_min[r].abs()) * (1.0 + activity[r].abs());
    }
    cert.push("duality-gap", gap, 10.0 * budget);

    cert
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, Sense};
    use jcr_ctx::SolverContext;

    fn solve_certified(m: &Model) -> (Solution, Certificate) {
        let sol = m.solve_with_context(&SolverContext::new()).unwrap();
        let cert = certify(m, &sol);
        (sol, cert)
    }

    #[test]
    fn verifies_simple_min() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 3.0, 2.0);
        let y = m.add_var(0.0, 4.0, 3.0);
        m.add_row(5.0, 5.0, &[(x, 1.0), (y, 1.0)]);
        let (_, cert) = solve_certified(&m);
        assert!(cert.verified(), "{cert}");
    }

    #[test]
    fn verifies_simple_max() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, 2.0, 3.0);
        let y = m.add_var(0.0, 3.0, 2.0);
        m.add_row(f64::NEG_INFINITY, 4.0, &[(x, 1.0), (y, 1.0)]);
        let (_, cert) = solve_certified(&m);
        assert!(cert.verified(), "{cert}");
    }

    #[test]
    fn verifies_free_variables_and_ranges() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        m.add_row(-7.0, f64::INFINITY, &[(x, 1.0)]);
        let (sol, cert) = solve_certified(&m);
        assert!((sol.x[0] + 7.0).abs() < 1e-6);
        assert!(cert.verified(), "{cert}");
    }

    #[test]
    fn rejects_tampered_primal() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 3.0, 2.0);
        m.add_row(1.0, 1.0, &[(x, 1.0)]);
        let (mut sol, cert) = solve_certified(&m);
        assert!(cert.verified());
        sol.x[0] = 2.5; // violates the equality row
        let cert = certify(&m, &sol);
        assert!(!cert.verified());
        assert!(cert.failures().any(|c| c.name == "primal-rows"), "{cert}");
    }

    #[test]
    fn rejects_tampered_objective() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 3.0, 2.0);
        m.add_row(1.0, 1.0, &[(x, 1.0)]);
        let (mut sol, _) = solve_certified(&m);
        sol.objective += 0.5;
        let cert = certify(&m, &sol);
        assert!(cert.failures().any(|c| c.name == "objective"), "{cert}");
    }

    #[test]
    fn rejects_tampered_duals() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, f64::INFINITY, 2.0);
        m.add_row(1.0, 1.0, &[(x, 1.0)]);
        let (mut sol, cert) = solve_certified(&m);
        assert!(cert.verified(), "{cert}");
        // A wildly wrong dual breaks dual feasibility and/or the gap.
        sol.duals[0] = 100.0;
        let cert = certify(&m, &sol);
        assert!(!cert.verified(), "{cert}");
    }

    #[test]
    fn verifies_degenerate_transportation() {
        let mut m = Model::new(Sense::Minimize);
        let c = [[1.0, 2.0], [3.0, 1.0]];
        let mut vars = [[None; 2]; 2];
        for i in 0..2 {
            for j in 0..2 {
                vars[i][j] = Some(m.add_var(0.0, f64::INFINITY, c[i][j]));
            }
        }
        for i in 0..2 {
            m.add_row(
                10.0,
                10.0,
                &[(vars[i][0].unwrap(), 1.0), (vars[i][1].unwrap(), 1.0)],
            );
        }
        for j in 0..2 {
            m.add_row(
                10.0,
                10.0,
                &[(vars[0][j].unwrap(), 1.0), (vars[1][j].unwrap(), 1.0)],
            );
        }
        let (_, cert) = solve_certified(&m);
        assert!(cert.verified(), "{cert}");
    }
}
