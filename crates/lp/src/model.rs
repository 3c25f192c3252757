//! Public model-building API.

use std::fmt;

use crate::basis::Basis;
use crate::simplex::{LpError, Simplex, Solution, WARM_FALLBACK, WARM_RESOLVE, WARM_START};

/// Optimization direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Handle to a decision variable of a [`Model`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

/// Handle to a constraint row of a [`Model`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConId(pub(crate) usize);

impl VarId {
    /// The dense index of this variable.
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs a handle from a dense index (must be in range for the
    /// model it is used with).
    pub fn from_index(index: usize) -> Self {
        VarId(index)
    }
}

impl ConId {
    /// The dense index of this constraint.
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs a handle from a dense index (must be in range for the
    /// model it is used with).
    pub fn from_index(index: usize) -> Self {
        ConId(index)
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Debug for ConId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A linear program under construction.
///
/// Rows are *ranged*: each row constrains its activity `aᵀx` to
/// `[lower, upper]`; use equal bounds for an equality and an infinite bound
/// for a one-sided constraint. Variables carry bounds and an objective
/// coefficient.
///
/// Coefficients are stored column-wise, which is what both the simplex
/// engine and column generation want.
#[derive(Clone, Debug, Default)]
pub struct Model {
    sense: Option<Sense>,
    pub(crate) obj: Vec<f64>,
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    pub(crate) cols: Vec<Vec<(usize, f64)>>,
    pub(crate) row_lower: Vec<f64>,
    pub(crate) row_upper: Vec<f64>,
}

impl Model {
    /// Creates an empty model with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        Model {
            sense: Some(sense),
            ..Model::default()
        }
    }

    /// The optimization sense.
    pub fn sense(&self) -> Sense {
        self.sense.unwrap_or(Sense::Minimize)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.obj.len()
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.row_lower.len()
    }

    /// Adds a variable with bounds `[lower, upper]` and objective
    /// coefficient `obj`.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` or any argument is NaN.
    pub fn add_var(&mut self, lower: f64, upper: f64, obj: f64) -> VarId {
        assert!(
            !lower.is_nan() && !upper.is_nan() && !obj.is_nan(),
            "NaN in variable"
        );
        assert!(lower <= upper, "variable lower bound exceeds upper bound");
        let id = VarId(self.obj.len());
        self.obj.push(obj);
        self.lower.push(lower);
        self.upper.push(upper);
        self.cols.push(Vec::new());
        id
    }

    /// Adds a variable together with its column entries (one per row it
    /// appears in). This is the column-generation entry point.
    ///
    /// # Panics
    ///
    /// Panics on NaN, inverted bounds, or an out-of-range row.
    pub fn add_var_with_column(
        &mut self,
        lower: f64,
        upper: f64,
        obj: f64,
        column: &[(ConId, f64)],
    ) -> VarId {
        let id = self.add_var(lower, upper, obj);
        for &(row, coeff) in column {
            self.set_coeff(row, id, coeff);
        }
        id
    }

    /// Adds a ranged row `lower ≤ Σ coeff·var ≤ upper`.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper`, on NaN, or an out-of-range variable.
    pub fn add_row(&mut self, lower: f64, upper: f64, entries: &[(VarId, f64)]) -> ConId {
        assert!(!lower.is_nan() && !upper.is_nan(), "NaN in row bounds");
        assert!(lower <= upper, "row lower bound exceeds upper bound");
        let id = ConId(self.row_lower.len());
        self.row_lower.push(lower);
        self.row_upper.push(upper);
        for &(var, coeff) in entries {
            self.set_coeff(id, var, coeff);
        }
        id
    }

    /// Sets (or overwrites) the coefficient of `var` in `row`.
    pub fn set_coeff(&mut self, row: ConId, var: VarId, coeff: f64) {
        assert!(!coeff.is_nan(), "NaN coefficient");
        assert!(row.0 < self.row_lower.len(), "row out of range");
        let col = &mut self.cols[var.0];
        if let Some(entry) = col.iter_mut().find(|(r, _)| *r == row.0) {
            entry.1 = coeff;
        } else if coeff != 0.0 {
            col.push((row.0, coeff));
        }
    }

    /// Changes the objective coefficient of a variable.
    pub fn set_obj(&mut self, var: VarId, obj: f64) {
        assert!(!obj.is_nan(), "NaN objective");
        self.obj[var.0] = obj;
    }

    /// Iterator over the sparse columns (row index, coefficient), one per
    /// variable in id order.
    pub fn columns(&self) -> impl Iterator<Item = &[(usize, f64)]> {
        self.cols.iter().map(Vec::as_slice)
    }

    /// Evaluates the objective at a point (in the model's own sense).
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.obj.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Checks whether `x` satisfies all bounds and rows to within `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars() {
            return false;
        }
        for j in 0..self.num_vars() {
            if x[j] < self.lower[j] - tol || x[j] > self.upper[j] + tol {
                return false;
            }
        }
        let mut activity = vec![0.0; self.num_rows()];
        for (j, col) in self.cols.iter().enumerate() {
            for &(r, a) in col {
                activity[r] += a * x[j];
            }
        }
        activity
            .iter()
            .enumerate()
            .all(|(r, &v)| v >= self.row_lower[r] - tol && v <= self.row_upper[r] + tol)
    }

    /// Solves the model from scratch under `ctx`, which bounds the pivot
    /// loop and records simplex statistics plus the certificate
    /// residuals. The returned solution carries an independently verified
    /// certificate ([`Solution::certificate`]); a solution that fails
    /// verification is never returned.
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`] if no point satisfies all constraints,
    /// [`LpError::Unbounded`] if the objective is unbounded in the model's
    /// sense, [`LpError::Numerical`] if the solver loses too much
    /// precision to certify a result, [`LpError::NumericalBreakdown`]
    /// if the independent certificate verifier rejects the extracted
    /// solution, and [`LpError::Budget`] when the context's deadline or
    /// simplex iteration cap trips.
    pub fn solve_with_context(&self, ctx: &jcr_ctx::SolverContext) -> Result<Solution, LpError> {
        let sol = Simplex::new(self).solve_with_context(ctx)?;
        attach_certificate(self, sol, ctx)
    }

    /// Creates a reusable solver for this model, allowing columns to be
    /// added between solves (column generation) with warm starts.
    pub fn into_solver(self) -> ModelSolver {
        ModelSolver {
            model: self,
            simplex: None,
        }
    }
}

/// A solver wrapper that supports adding columns between solves and warm
/// starts from the previous basis — the workhorse of column generation.
///
/// # Examples
///
/// ```
/// use jcr_ctx::SolverContext;
/// use jcr_lp::{Model, Sense};
///
/// let ctx = SolverContext::new();
/// let mut m = Model::new(Sense::Minimize);
/// let x = m.add_var(0.0, f64::INFINITY, 2.0);
/// let demand = m.add_row(1.0, 1.0, &[(x, 1.0)]);
/// let mut solver = m.into_solver();
/// let first = solver.solve_with_context(&ctx).unwrap();
/// assert!((first.objective - 2.0).abs() < 1e-9);
/// // Price in a cheaper column and resolve.
/// solver.add_column(0.0, f64::INFINITY, 1.0, &[(demand, 1.0)]);
/// let second = solver.solve_with_context(&ctx).unwrap();
/// assert!((second.objective - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct ModelSolver {
    model: Model,
    simplex: Option<Simplex>,
}

impl ModelSolver {
    /// Read access to the underlying model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Adds a new variable (column) with the given bounds, objective, and
    /// row coefficients. The next [`ModelSolver::solve_with_context`] warm-starts from
    /// the previous basis with the new column nonbasic.
    pub fn add_column(
        &mut self,
        lower: f64,
        upper: f64,
        obj: f64,
        column: &[(ConId, f64)],
    ) -> VarId {
        let id = self.model.add_var_with_column(lower, upper, obj, column);
        if let Some(s) = &mut self.simplex {
            s.add_column(&self.model, id.0);
        }
        id
    }

    /// Solves (or re-solves) the model under `ctx` (budgets +
    /// instrumentation for the warm-started pivot loop).
    ///
    /// # Errors
    ///
    /// Same as [`Model::solve_with_context`].
    pub fn solve_with_context(
        &mut self,
        ctx: &jcr_ctx::SolverContext,
    ) -> Result<Solution, LpError> {
        let result = match &mut self.simplex {
            Some(s) => {
                ctx.obs().add_counter(WARM_RESOLVE, 1);
                s.resolve_with_context(&self.model, ctx)
            }
            None => {
                let mut s = Simplex::new(&self.model);
                let result = s.solve_with_context(ctx);
                self.simplex = Some(s);
                result
            }
        };
        attach_certificate(&self.model, result?, ctx)
    }

    /// Snapshots the basis of the most recent solve, or `None` if the
    /// model has never been solved through this wrapper. The snapshot is
    /// cheap to clone and can warm-start a *different* `ModelSolver` over
    /// a same-shaped model via [`ModelSolver::solve_from_basis`].
    pub fn basis(&self) -> Option<Basis> {
        self.simplex.as_ref().map(Simplex::snapshot_basis)
    }

    /// Solves the model warm-started from a [`Basis`] snapshot.
    ///
    /// Restoring is best effort: when the snapshot's dimensions do not
    /// match this model, its statuses are invalid under the current
    /// bounds, or its basic set is singular under the current
    /// coefficients, the solve silently falls back to a cold start — the
    /// result is identical either way, only the pivot count differs. The
    /// outcome is observable via the `lp.warm_start` / `lp.warm_fallback`
    /// context counters.
    ///
    /// # Errors
    ///
    /// Same as [`ModelSolver::solve_with_context`].
    pub fn solve_from_basis(
        &mut self,
        basis: &Basis,
        ctx: &jcr_ctx::SolverContext,
    ) -> Result<Solution, LpError> {
        let s = self
            .simplex
            .get_or_insert_with(|| Simplex::new(&self.model));
        if s.try_restore_basis(basis) {
            ctx.obs().add_counter(WARM_START, 1);
        } else {
            ctx.obs().add_counter(WARM_FALLBACK, 1);
        }
        let result = s.resolve_with_context(&self.model, ctx);
        attach_certificate(&self.model, result?, ctx)
    }
}

/// Runs the independent verifier over a freshly extracted solution,
/// records the certificate's residuals into the context's metrics
/// registry, and refuses to return an unverified "optimal" claim.
fn attach_certificate(
    model: &Model,
    mut sol: Solution,
    ctx: &jcr_ctx::SolverContext,
) -> Result<Solution, LpError> {
    sol.certificate = crate::certify::certify(model, &sol);
    sol.certificate.record(ctx);
    if !sol.certificate.verified() {
        return Err(LpError::NumericalBreakdown(
            sol.certificate.failure_summary(),
        ));
    }
    Ok(sol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_basics() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 1.0, 1.0);
        let y = m.add_var(0.0, 1.0, 2.0);
        let r = m.add_row(1.0, 1.0, &[(x, 1.0), (y, 1.0)]);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_rows(), 1);
        m.set_coeff(r, y, 3.0);
        assert!(m.is_feasible(&[1.0, 0.0], 1e-9));
        assert!(!m.is_feasible(&[0.0, 0.0], 1e-9));
        assert_eq!(m.objective_value(&[1.0, 0.5]), 2.0);
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds")]
    fn inverted_bounds_panic() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var(1.0, 0.0, 0.0);
    }
}
