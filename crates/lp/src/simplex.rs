//! The revised-simplex engine.
//!
//! Internally the problem is brought to the computational form
//!
//! ```text
//!     minimize cᵀx   subject to   A·x_struct − s = 0,   l ≤ (x_struct, s) ≤ u
//! ```
//!
//! where one slack `s_r` per ranged row carries the row's activity bounds.
//! The initial basis is the slack basis (B = −I), phase 1 minimizes the sum
//! of bound violations of basic variables (no big-M), and phase 2 optimizes
//! the true objective.
//!
//! The structural columns of `A` live in one **compressed-column store**
//! (`col_start`, `u32` row indices, `f64` values; model entry order,
//! explicit zeros dropped); slack columns are implicit. The basis is
//! represented by a **sparse LU factorization** ([`crate::factor`]):
//! Markowitz-flavoured column ordering with threshold partial pivoting
//! and a reach-ordered left-looking elimination, product-form eta updates
//! in one flat eta file between refactorizations, and a hypersparse ftran
//! of the pivot column and btran of the Devex row that visit only the LU
//! steps their right-hand side reaches. Pricing is **Devex**
//! (reference-framework weights reset per phase) with a Bland
//! anti-cycling fallback, and the ratio test is Harris two-pass over the
//! pivot column's nonzeros. Pricing is **incremental**: each column's
//! reduced cost is kept across the passes of a phase, and a pass
//! reprices only the columns of the rows whose dual changed bits (found
//! through a row-wise index of `A`), since any other column's dot
//! product repeats its last value bit for bit; the entering choice walks
//! a list of the columns that may be eligible. The Devex update is
//! **hypersparse**: it visits only the columns a nonzero of the pivot
//! row touches. Warm starts restore a [`Basis`](crate::Basis) snapshot
//! and let phase 1 repair whatever feasibility the new data broke.

use std::fmt;
use std::time::Instant;

use jcr_ctx::{BudgetExceeded, Counter, SolverContext};

use crate::basis::{Basis, SnapStatus};
use crate::factor::{EtaFile, LuFactors};
use crate::model::Model;

/// `Nanos` histogram of per-iteration pivot-loop latency (pricing, ratio
/// test, and basis update for one entering column).
pub const PIVOT_NS: &str = "lp.pivot_ns";
/// `Count` histogram of nonzeros in the ftran result `B⁻¹·A_q` per pivot.
pub const FTRAN_FILL: &str = "lp.ftran_fill";
/// `Count` histogram of nonzeros in the btran result `cbᵀ·B⁻¹` per pivot.
pub const BTRAN_FILL: &str = "lp.btran_fill";
/// `Count` histogram of basis-residual agreement bits
/// (`−log₂ ‖A·x‖∞ / scale`) sampled by the residual monitor.
pub const BASIS_RESIDUAL_BITS: &str = "lp.basis_residual_bits";
/// `Count` histogram of iterative-refinement correction magnitudes
/// (agreement bits of the largest `δ` applied at extraction).
pub const REFINE_DELTA_BITS: &str = "lp.refine_delta_bits";
/// Obs counter: residual-triggered refactorizations performed *before*
/// the periodic [`REFACTOR_EVERY`] cadence was due.
pub const EARLY_REFACTOR: &str = "lp.early_refactor";
/// Obs counter: iterative-refinement rounds applied at extraction.
pub const REFINE_ROUNDS: &str = "lp.refine_rounds";
/// `Count` histogram of total LU fill (stored nonzeros in both
/// triangles) sampled at each refactorization.
pub const LU_FILL: &str = "lp.lu_fill";
/// Obs counter: solves that successfully restored a warm-start basis.
pub const WARM_START: &str = "lp.warm_start";
/// Obs counter: master re-solves that reused a retained simplex (basis,
/// LU factors, and values carried across `add_column`/objective edits) —
/// the column-generation warm path.
pub const WARM_RESOLVE: &str = "lp.warm_resolve";
/// Obs counter: warm-start attempts that fell back to a cold solve
/// (dimension mismatch, invalid statuses, or a singular restored basis).
pub const WARM_FALLBACK: &str = "lp.warm_fallback";

/// Entries with magnitude above the fill tolerance, for the fill
/// histograms (deterministic: pure arithmetic on deterministic state).
fn fill_count<'a, I: IntoIterator<Item = &'a f64>>(v: I) -> u64 {
    v.into_iter().filter(|x| x.abs() > 1e-12).count() as u64
}

/// Feasibility tolerance on variable bounds and row activities.
const FEAS_TOL: f64 = 1e-7;
/// Dual (reduced-cost) tolerance.
const DUAL_TOL: f64 = 1e-7;
/// Smallest pivot magnitude accepted.
const PIVOT_TOL: f64 = 1e-9;
/// Pivots between basis refactorizations.
const REFACTOR_EVERY: usize = 128;
/// Iterations without objective progress before switching to Bland's rule.
const STALL_LIMIT: usize = 200;
/// Pivots between basis-residual probes (the residual costs one pass over
/// the nonzeros, so it is sampled rather than taken every pivot).
const RESIDUAL_CHECK_EVERY: usize = 16;
/// First rung of the residual ladder: a relative basis residual above
/// this triggers an early refactorization instead of waiting for the
/// [`REFACTOR_EVERY`] cadence.
const RESIDUAL_REFRESH: f64 = 1e-8;
/// Last rung of the residual ladder: a relative residual still above this
/// *after* a fresh refactorization means the basis is numerically beyond
/// repair — the solve aborts with [`LpError::NumericalBreakdown`].
const RESIDUAL_FAIL: f64 = 1e-5;
/// Devex weights above this trigger a reference-framework reset (all
/// weights back to one) — the standard growth guard.
const DEVEX_RESET: f64 = 1e12;
/// A pricing or Devex pass scans every column instead of collecting the
/// touched ones when the touched rows hold more than this share of the
/// nonzeros (slacks included): marking would then cost about as much as
/// the scan it saves.
const DENSE_SHARE: f64 = 0.3;

/// Eta-file nonzero budget as a function of the basis dimension: when the
/// product-form file outgrows it, the basis is refactorized early even if
/// the pivot cadence is not due (the Bartels–Golub-style fallback).
fn eta_budget(m: usize) -> usize {
    16 * m + 512
}

/// Anti-cycling stall count: a pivot that does not lower the phase
/// objective by more than `1e-10` below the best seen extends the stall;
/// one that does resets it.
fn track_stall(obj: f64, last_obj: &mut f64, stall: &mut usize) {
    if obj < *last_obj - 1e-10 {
        *stall = 0;
        *last_obj = obj;
    } else {
        *stall += 1;
    }
}

/// Why an LP could not be solved to optimality.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpError {
    /// No point satisfies all constraints.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The solver lost too much numerical precision to certify an answer.
    Numerical(String),
    /// A numerical guardrail tripped: the basis residual stayed above the
    /// failure rung of the tolerance ladder after a fresh refactorization,
    /// or the independent certificate verifier rejected the extracted
    /// solution. Unlike [`LpError::Numerical`] (structural failures such
    /// as a singular basis), this is a *detected drift* — callers should
    /// degrade (retry, fall back, keep the incumbent) rather than trust
    /// any value computed so far.
    NumericalBreakdown(String),
    /// A [`SolverContext`] budget (deadline or simplex iteration cap)
    /// tripped mid-solve.
    Budget(BudgetExceeded),
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "infeasible linear program"),
            LpError::Unbounded => write!(f, "unbounded linear program"),
            LpError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            LpError::NumericalBreakdown(msg) => write!(f, "numerical breakdown: {msg}"),
            LpError::Budget(b) => write!(f, "{b}"),
        }
    }
}

impl std::error::Error for LpError {}

impl From<BudgetExceeded> for LpError {
    fn from(b: BudgetExceeded) -> Self {
        LpError::Budget(b)
    }
}

/// An optimal solution of a [`Model`](crate::Model).
#[derive(Clone, Debug)]
pub struct Solution {
    /// Optimal values of the structural variables, indexed by `VarId`.
    pub x: Vec<f64>,
    /// Objective value in the model's own sense.
    pub objective: f64,
    /// Row duals `y`, in the model's own sense: the reduced cost of a
    /// candidate column with objective coefficient `c` and entries
    /// `(r, a_r)` is `c − Σ_r y[r]·a_r`. For a maximization model a column
    /// *improves* the objective when its reduced cost is positive; for a
    /// minimization model, when it is negative.
    pub duals: Vec<f64>,
    /// Independent verification of this solution (primal feasibility,
    /// dual signs, complementary slackness, duality gap), recomputed with
    /// compensated arithmetic by [`crate::certify`]. Populated by the
    /// [`Model`](crate::Model)-level entry points; a raw
    /// `Simplex::solve_with_context` leaves it empty (vacuously
    /// verified).
    pub certificate: jcr_ctx::cert::Certificate,
}

impl Solution {
    /// Reduced cost of a candidate column under this solution's duals
    /// (in the model's own sense).
    pub fn reduced_cost(&self, obj: f64, column: &[(usize, f64)]) -> f64 {
        obj - column.iter().map(|&(r, a)| self.duals[r] * a).sum::<f64>()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ColStatus {
    Basic,
    AtLower,
    AtUpper,
    /// Free variable currently pinned at zero.
    FreeZero,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    One,
    Two,
}

/// Revised simplex state; reusable across solves for warm starts.
#[derive(Debug)]
pub struct Simplex {
    m: usize,
    n_struct: usize,
    maximize: bool,
    /// Objective in minimization form, per column (structural then slacks).
    c: Vec<f64>,
    lo: Vec<f64>,
    up: Vec<f64>,
    /// Structural columns in compressed-column form: column `j`'s
    /// nonzeros are `col_row`/`col_val` over `col_start[j]..col_start[j +
    /// 1]`, in model entry order with explicit zeros dropped. Slack
    /// columns are implicit `−1` at their row.
    col_start: Vec<usize>,
    /// Row of each stored structural nonzero.
    col_row: Vec<u32>,
    /// Value of each stored structural nonzero, parallel to `col_row`.
    col_val: Vec<f64>,
    basis: Vec<usize>,
    status: Vec<ColStatus>,
    /// Value of every column (basic values refreshed after each pivot).
    xval: Vec<f64>,
    /// Sparse LU factors of the current basis.
    lu: LuFactors,
    /// Product-form eta file accumulated since the last refactorization.
    etas: EtaFile,
    /// Devex reference weights, one per column; reset at each phase entry.
    devex: Vec<f64>,
    /// Dense m-length buffer reused by the ftran/btran entry points.
    rhs_buf: Vec<f64>,
    pivots_since_refactor: usize,
    /// Row-wise index of the structural columns: per row, the ascending
    /// ids of the columns with a nonzero there.
    rows: Vec<Vec<u32>>,
    /// Reduced cost `c_j − yᵀa_j` of every column under the current
    /// pass's duals `y`, kept across passes of one phase run (a basic
    /// column's entry may be stale; it is refreshed when the column
    /// leaves the basis).
    dj: Vec<f64>,
    /// The duals `y` of the last pricing pass of this phase run.
    y_last: Vec<f64>,
    /// Columns that may be eligible to enter: a superset of the eligible
    /// nonbasic columns, in no particular order.
    elig: Vec<u32>,
    /// Per-column membership flag of `elig`.
    in_elig: Vec<bool>,
    /// Rows of the current pass: where the pricing duals changed bits
    /// since the last pass, or where the Devex pivot row is nonzero.
    v_rows: Vec<u32>,
    /// Columns the current pricing or Devex pass visits (see
    /// [`Simplex::collect_candidates`]).
    cand: Vec<u32>,
    /// Whether `cand` currently lists every column in ascending order.
    cand_all: bool,
    /// Per-column dedup flag used while collecting `cand` (all `false`
    /// between collections).
    marked: Vec<bool>,
    /// Ascending positions where the current pivot column is nonzero.
    alpha_nz: Vec<u32>,
    #[cfg(test)]
    hooks: TestHooks,
}

/// Test-only overrides and probes of the pivot loop.
#[cfg(test)]
#[derive(Debug, Default)]
struct TestHooks {
    /// Scan every column in every pricing and Devex pass.
    force_dense: bool,
    /// Reprice every column in every pricing pass, as on a phase's
    /// first pass.
    full_reprice: bool,
    /// Replaces [`STALL_LIMIT`], to force Bland stretches.
    stall_limit: Option<usize>,
    /// Passes that visited a touched-column list.
    sparse_passes: usize,
    /// Pricing passes that repriced only the columns of the rows whose
    /// dual moved.
    incremental_passes: usize,
    /// Pricing passes under the Bland fallback.
    bland_passes: usize,
    /// Every basis change: the entering column and the leaving column,
    /// or `None` for a bound flip.
    moves: Vec<(usize, Option<usize>)>,
}

impl Simplex {
    /// Builds the solver state from a model; does not iterate yet.
    pub fn new(model: &Model) -> Self {
        let m = model.num_rows();
        let n = model.num_vars();
        let maximize = matches!(model.sense(), crate::Sense::Maximize);
        let mut c: Vec<f64> = model
            .obj
            .iter()
            .map(|&v| if maximize { -v } else { v })
            .collect();
        c.extend(std::iter::repeat_n(0.0, m));
        let mut lo = model.lower.clone();
        let mut up = model.upper.clone();
        lo.extend_from_slice(&model.row_lower);
        up.extend_from_slice(&model.row_upper);
        let mut s = Simplex {
            m,
            n_struct: n,
            maximize,
            c,
            lo,
            up,
            col_start: vec![0],
            col_row: Vec::new(),
            col_val: Vec::new(),
            basis: Vec::new(),
            status: Vec::new(),
            xval: Vec::new(),
            lu: LuFactors::default(),
            etas: EtaFile::default(),
            devex: Vec::new(),
            rhs_buf: vec![0.0; m],
            pivots_since_refactor: 0,
            rows: vec![Vec::new(); m],
            dj: Vec::new(),
            y_last: Vec::new(),
            elig: Vec::new(),
            in_elig: Vec::new(),
            v_rows: Vec::new(),
            cand: Vec::new(),
            cand_all: false,
            marked: Vec::new(),
            alpha_nz: Vec::new(),
            #[cfg(test)]
            hooks: TestHooks::default(),
        };
        for col in &model.cols {
            s.push_column(col);
        }
        s.reset_cold();
        s
    }

    /// Appends a structural column to the compressed store and the
    /// row-wise index, skipping explicit zeros.
    fn push_column(&mut self, col: &[(usize, f64)]) {
        let j = u32::try_from(self.col_start.len() - 1).expect("column count fits in u32");
        for &(r, v) in col {
            if v != 0.0 {
                self.col_row
                    .push(u32::try_from(r).expect("row count fits in u32"));
                self.col_val.push(v);
                self.rows[r].push(j);
            }
        }
        self.col_start.push(self.col_row.len());
    }

    /// Registers a column added to the model after construction; the column
    /// enters nonbasic at its bound. The LU factors stay valid — the basis
    /// itself is unchanged (only its column *indices* shift), so a
    /// warm-started re-solve pays no refactorization.
    pub fn add_column(&mut self, model: &Model, var: usize) {
        debug_assert_eq!(var, self.n_struct, "columns must be added in order");
        let j_internal = self.n_struct; // new structural index
        let obj = if self.maximize {
            -model.obj[var]
        } else {
            model.obj[var]
        };
        self.c.insert(j_internal, obj);
        self.lo.insert(j_internal, model.lower[var]);
        self.up.insert(j_internal, model.upper[var]);
        self.push_column(&model.cols[var]);
        let st = initial_status(model.lower[var], model.upper[var]);
        self.status.insert(j_internal, st);
        let v0 = match st {
            ColStatus::AtLower => model.lower[var],
            ColStatus::AtUpper => model.upper[var],
            _ => 0.0,
        };
        self.xval.insert(j_internal, v0);
        // Slack indices shift by one.
        for b in &mut self.basis {
            if *b >= j_internal {
                *b += 1;
            }
        }
        self.n_struct += 1;
        if v0 != 0.0 {
            // New nonbasic mass changes the basic values.
            self.recompute_basic_values();
        }
    }

    /// Solves from the current state; `ctx` bounds the pivot loop
    /// ([`jcr_ctx::Phase::Simplex`] iteration cap and deadline) and records
    /// pivot/refactorization counts and phase wall time.
    pub fn solve_with_context(&mut self, ctx: &SolverContext) -> Result<Solution, LpError> {
        let _s = ctx.phase_span("lp.solve", jcr_ctx::Phase::Simplex);
        {
            let _p1 = ctx.span("lp.phase1");
            self.run(Phase::One, ctx)?;
        }
        if self.infeasibility() > FEAS_TOL * 10.0 {
            return Err(LpError::Infeasible);
        }
        {
            let _p2 = ctx.span("lp.phase2");
            self.run(Phase::Two, ctx)?;
        }
        self.refine(ctx);
        Ok(self.extract())
    }

    /// Re-solves after external modifications (e.g. new columns) under an
    /// explicit context.
    pub fn resolve_with_context(
        &mut self,
        model: &Model,
        ctx: &SolverContext,
    ) -> Result<Solution, LpError> {
        // Pick up objective changes on existing columns.
        for j in 0..self.n_struct {
            self.c[j] = if self.maximize {
                -model.obj[j]
            } else {
                model.obj[j]
            };
        }
        self.solve_with_context(ctx)
    }

    // ----- warm starts ----------------------------------------------------

    /// Snapshots the current basis (statuses only — cheap and `Clone`).
    pub fn snapshot_basis(&self) -> Basis {
        Basis {
            n_struct: self.n_struct,
            m: self.m,
            statuses: self
                .status
                .iter()
                .map(|s| match s {
                    ColStatus::Basic => SnapStatus::Basic,
                    ColStatus::AtLower => SnapStatus::AtLower,
                    ColStatus::AtUpper => SnapStatus::AtUpper,
                    ColStatus::FreeZero => SnapStatus::FreeZero,
                })
                .collect(),
        }
    }

    /// Attempts to adopt a [`Basis`] snapshot. Returns `true` when the
    /// snapshot was restored (statuses adopted, basis refactorized,
    /// basic values recomputed — phase 1 then repairs any residual
    /// infeasibility); `false` when the snapshot is incompatible
    /// (dimension mismatch, statuses invalid under the current bounds,
    /// or a singular basic set), in which case the solver is left on a
    /// consistent cold slack basis.
    pub fn try_restore_basis(&mut self, snap: &Basis) -> bool {
        if !snap.matches_dims(self.n_struct, self.m) {
            return false;
        }
        // Validate every status against the *current* bounds before
        // mutating anything: a bound that went infinite-to-finite (or
        // vice versa) invalidates the resting position.
        for (j, s) in snap.statuses.iter().enumerate() {
            let ok = match s {
                SnapStatus::Basic => true,
                SnapStatus::AtLower => self.lo[j].is_finite(),
                SnapStatus::AtUpper => self.up[j].is_finite(),
                SnapStatus::FreeZero => !self.lo[j].is_finite() && !self.up[j].is_finite(),
            };
            if !ok {
                return false;
            }
        }
        self.status = snap
            .statuses
            .iter()
            .map(|s| match s {
                SnapStatus::Basic => ColStatus::Basic,
                SnapStatus::AtLower => ColStatus::AtLower,
                SnapStatus::AtUpper => ColStatus::AtUpper,
                SnapStatus::FreeZero => ColStatus::FreeZero,
            })
            .collect();
        self.basis = (0..self.n_struct + self.m)
            .filter(|&j| self.status[j] == ColStatus::Basic)
            .collect();
        match self.factor_basis() {
            Some(lu) => {
                self.lu = lu;
                self.etas.clear();
                self.pivots_since_refactor = 0;
                self.set_nonbasic_values();
                self.recompute_basic_values();
                true
            }
            None => {
                // Singular under the new coefficients: fall back cold.
                self.reset_cold();
                false
            }
        }
    }

    /// Resets to the cold slack basis (the `Simplex::new` state).
    fn reset_cold(&mut self) {
        let ncols = self.n_struct + self.m;
        self.basis = (0..self.m).map(|r| self.n_struct + r).collect();
        self.status = (0..ncols)
            .map(|j| {
                if j >= self.n_struct {
                    ColStatus::Basic
                } else {
                    initial_status(self.lo[j], self.up[j])
                }
            })
            .collect();
        self.lu = self
            .factor_basis()
            .expect("the slack basis B = -I is always nonsingular");
        self.etas.clear();
        self.pivots_since_refactor = 0;
        self.set_nonbasic_values();
        self.recompute_basic_values();
    }

    // ----- core machinery -------------------------------------------------

    fn slack_of(&self, j: usize) -> Option<usize> {
        (j >= self.n_struct).then(|| j - self.n_struct)
    }

    fn for_col<F: FnMut(usize, f64)>(&self, j: usize, mut f: F) {
        if let Some(r) = self.slack_of(j) {
            f(r, -1.0);
        } else {
            let span = self.col_start[j]..self.col_start[j + 1];
            for (&r, &v) in self.col_row[span.clone()].iter().zip(&self.col_val[span]) {
                f(r as usize, v);
            }
        }
    }

    /// Sparse-LU factorization of the current basis columns.
    fn factor_basis(&self) -> Option<LuFactors> {
        LuFactors::factorize(self.m, PIVOT_TOL, |pos, f| {
            self.for_col(self.basis[pos], f);
        })
        .ok()
    }

    /// Applies `B⁻¹` (LU solve plus the eta file) to a row-space vector,
    /// producing basis-position values in `out`.
    fn apply_basis_inverse(&mut self, rhs: &[f64], out: &mut [f64]) {
        debug_assert_eq!(self.lu.dim(), self.m);
        self.lu.ftran(rhs, out);
        self.etas.apply(out);
    }

    /// `B⁻¹ · A_j`, written into `out` (reused across pivots), with the
    /// ascending positions of its nonzeros in `alpha_nz`.
    fn ftran_into(&mut self, j: usize, out: &mut [f64]) {
        let slack_row;
        let (rows, vals) = match self.slack_of(j) {
            Some(r) => {
                slack_row = [r as u32];
                (&slack_row[..], &[-1.0][..])
            }
            None => {
                let span = self.col_start[j]..self.col_start[j + 1];
                (&self.col_row[span.clone()], &self.col_val[span])
            }
        };
        self.lu.ftran_sparse(rows, vals, out);
        // The LU solve's nonzeros plus every position an eta turns from
        // zero, ascending and deduplicated.
        let nz = &mut self.alpha_nz;
        nz.clear();
        nz.extend_from_slice(self.lu.nonzeros());
        self.etas.apply_tracked(out, |i| nz.push(i as u32));
        nz.sort_unstable();
        nz.dedup();
        nz.retain(|&i| out[i as usize] != 0.0);
        debug_assert!(
            (0..self.m).all(|i| (out[i] != 0.0) == nz.binary_search(&(i as u32)).is_ok()),
            "the nonzero list of B⁻¹·A_{j} is not its pattern"
        );
    }

    /// `yᵀ = cbᵀ · B⁻¹` written into `y` (reused across pivots): eta
    /// transposes in reverse order, then the LU btran.
    fn btran_into(&mut self, cb: &[f64], y: &mut [f64]) {
        let mut u = std::mem::take(&mut self.rhs_buf);
        u.resize(self.m, 0.0);
        u.copy_from_slice(&cb[..self.m]);
        self.etas.apply_transposed(&mut u);
        self.lu.btran(&u, y);
        self.rhs_buf = u;
    }

    /// Row `r` of `B⁻¹`, `ρᵀ = e_rᵀ · B⁻¹`, written into `rho` (reused
    /// across pivots) through the hypersparse btran, with its nonzero rows
    /// in `v_rows`: `e_r` after the eta transposes is zero off `r` and the
    /// etas' positions. `rho` matches [`Simplex::btran_into`] up to the
    /// signs of its zeros, which the Devex update cannot observe.
    fn btran_row_into(&mut self, r: usize, rho: &mut [f64]) {
        let mut u = std::mem::take(&mut self.rhs_buf);
        u.resize(self.m, 0.0);
        u.fill(0.0);
        u[r] = 1.0;
        self.etas.apply_transposed(&mut u);
        let support = std::iter::once(r).chain(self.etas.positions().iter().copied());
        self.lu.btran_sparse(&u, support, rho);
        self.v_rows.clear();
        self.v_rows.extend_from_slice(self.lu.nonzeros());
        self.rhs_buf = u;
    }

    fn dot_col(&self, y: &[f64], j: usize) -> f64 {
        let mut acc = 0.0;
        self.for_col(j, |r, v| acc += y[r] * v);
        acc
    }

    /// Fills `cand` with every column whose [`Simplex::dot_col`] against
    /// a vector can differ from its value against a second vector, given
    /// the rows `v_rows` where the two differ (each once, any order): the
    /// structural columns with a nonzero in such a row and that row's
    /// slack. With the zero vector as the second one, these are the
    /// columns whose dot product can be nonzero: any other one is exactly
    /// `+0.0`, so the Devex update leaves its weight alone. The order is
    /// arbitrary; when the rows hold more than [`DENSE_SHARE`] of the
    /// nonzeros, `cand` is every column instead.
    fn collect_candidates(&mut self) {
        let ncols = self.n_struct + self.m;
        let mut touched = 0;
        for &r in &self.v_rows {
            touched += self.rows[r as usize].len() + 1;
        }
        let dense = touched as f64 > DENSE_SHARE * (self.col_row.len() + self.m) as f64;
        #[cfg(test)]
        let dense = dense || self.hooks.force_dense;
        #[cfg(test)]
        if !dense {
            self.hooks.sparse_passes += 1;
        }
        if dense {
            self.candidates_all();
            return;
        }
        self.cand_all = false;
        self.cand.clear();
        self.marked.resize(ncols, false);
        let mut mark = |j: u32, cand: &mut Vec<u32>| {
            if !self.marked[j as usize] {
                self.marked[j as usize] = true;
                cand.push(j);
            }
        };
        for &r in &self.v_rows {
            for &j in &self.rows[r as usize] {
                mark(j, &mut self.cand);
            }
            mark(self.n_struct as u32 + r, &mut self.cand);
        }
        for &j in &self.cand {
            self.marked[j as usize] = false;
        }
    }

    /// Sets `cand` to every column, in ascending order.
    fn candidates_all(&mut self) {
        let ncols = self.n_struct + self.m;
        if !(self.cand_all && self.cand.len() == ncols) {
            self.cand.clear();
            self.cand.extend(0..ncols as u32);
            self.cand_all = true;
        }
    }

    /// Recomputes the reduced cost of nonbasic column `j` under the duals
    /// `y` and offers it to the eligible list.
    fn reprice(&mut self, phase: Phase, y: &[f64], j: usize) {
        self.dj[j] = self.phase_cost(phase, j) - self.dot_col(y, j);
        if !self.in_elig[j] && entering_dir(self.status[j], self.dj[j]).is_some() {
            self.in_elig[j] = true;
            self.elig.push(j as u32);
        }
    }

    fn set_nonbasic_values(&mut self) {
        let ncols = self.n_struct + self.m;
        if self.xval.len() != ncols {
            self.xval = vec![0.0; ncols];
        }
        for j in 0..ncols {
            match self.status[j] {
                ColStatus::AtLower => self.xval[j] = self.lo[j],
                ColStatus::AtUpper => self.xval[j] = self.up[j],
                ColStatus::FreeZero => self.xval[j] = 0.0,
                ColStatus::Basic => {}
            }
        }
    }

    /// Recomputes basic values `x_B = B⁻¹(0 − N·x_N)` from scratch.
    fn recompute_basic_values(&mut self) {
        let m = self.m;
        let ncols = self.n_struct + m;
        let mut rhs = vec![0.0; m];
        for j in 0..ncols {
            if self.status[j] != ColStatus::Basic {
                let v = self.xval[j];
                if v != 0.0 {
                    self.for_col(j, |r, a| rhs[r] -= a * v);
                }
            }
        }
        let mut xb = vec![0.0; m];
        self.apply_basis_inverse(&rhs, &mut xb);
        for i in 0..m {
            self.xval[self.basis[i]] = xb[i];
        }
    }

    /// Rebuilds the LU factors from the current basis columns and clears
    /// the eta file (the Bartels–Golub-style fallback of the product-form
    /// update scheme).
    fn refactorize(&mut self) -> Result<(), LpError> {
        let lu = self
            .factor_basis()
            .ok_or_else(|| LpError::Numerical("singular basis".into()))?;
        self.lu = lu;
        self.etas.clear();
        self.pivots_since_refactor = 0;
        self.set_nonbasic_values();
        self.recompute_basic_values();
        Ok(())
    }

    fn infeasibility(&self) -> f64 {
        self.basis
            .iter()
            .map(|&j| {
                let v = self.xval[j];
                (self.lo[j] - v).max(0.0) + (v - self.up[j]).max(0.0)
            })
            .sum()
    }

    /// Relative basis residual `‖A·x‖∞ / max(1, ‖x_B‖∞)`: in computational
    /// form every row of `A·x` (structural columns plus `−1` slacks) must
    /// be zero, so any mass left over is drift accumulated by the
    /// eta-file updates. One pass over the nonzeros.
    fn basis_residual(&self) -> f64 {
        let m = self.m;
        if m == 0 {
            return 0.0;
        }
        let mut res = vec![0.0; m];
        let ncols = self.n_struct + m;
        for j in 0..ncols {
            let v = self.xval[j];
            if v != 0.0 {
                self.for_col(j, |r, a| res[r] += a * v);
            }
        }
        let norm = res.iter().fold(0.0f64, |acc, r| acc.max(r.abs()));
        let scale = self
            .basis
            .iter()
            .map(|&j| self.xval[j].abs())
            .fold(1.0f64, f64::max);
        norm / scale
    }

    /// The residual tolerance ladder, probed every
    /// [`RESIDUAL_CHECK_EVERY`] pivots and at the refactorization cadence
    /// (pivot count *or* eta-file nonzero budget): a residual above
    /// [`RESIDUAL_REFRESH`] forces an early refactorization; a residual
    /// still above [`RESIDUAL_FAIL`] on fresh factors is a detected
    /// numerical breakdown.
    fn residual_ladder(&mut self, ctx: &SolverContext) -> Result<(), LpError> {
        let periodic_due =
            self.pivots_since_refactor >= REFACTOR_EVERY || self.etas.nnz() > eta_budget(self.m);
        let probe_due = periodic_due
            || self
                .pivots_since_refactor
                .is_multiple_of(RESIDUAL_CHECK_EVERY);
        if !probe_due {
            return Ok(());
        }
        let res = self.basis_residual();
        ctx.metric_value(BASIS_RESIDUAL_BITS, jcr_ctx::cert::residual_bits(res));
        if !periodic_due && res <= RESIDUAL_REFRESH {
            return Ok(());
        }
        if !periodic_due {
            ctx.obs().add_counter(EARLY_REFACTOR, 1);
        }
        {
            let _s = ctx.span("lp.refactor");
            self.refactorize()?;
        }
        ctx.count(Counter::Refactorizations, 1);
        ctx.metric_value(LU_FILL, self.lu.fill() as u64);
        let fresh = self.basis_residual();
        if fresh > RESIDUAL_FAIL {
            return Err(LpError::NumericalBreakdown(format!(
                "basis residual {fresh:.3e} exceeds {RESIDUAL_FAIL:.1e} after refactorization"
            )));
        }
        Ok(())
    }

    /// One round of iterative refinement on the basic values: the row
    /// residual `r = 0 − A·x` is accumulated with compensated summation,
    /// the correction `δ = B⁻¹·r` is applied to `x_B`, and the magnitude
    /// of the largest correction is recorded. Runs once at extraction —
    /// cheap (one nonzero pass plus one `B⁻¹` apply) and squeezes the
    /// drift of the final pivot stretch out of the reported solution.
    fn refine(&mut self, ctx: &SolverContext) {
        let m = self.m;
        if m == 0 {
            return;
        }
        let mut r = vec![0.0; m];
        let mut comp = vec![0.0; m];
        let ncols = self.n_struct + m;
        for j in 0..ncols {
            let v = self.xval[j];
            if v != 0.0 {
                self.for_col(j, |row, a| {
                    let (s, e) = jcr_ctx::cert::two_sum(r[row], -(a * v));
                    r[row] = s;
                    comp[row] += e;
                });
            }
        }
        for (ri, ci) in r.iter_mut().zip(comp.iter()) {
            *ri += ci;
        }
        let mut delta = vec![0.0; m];
        self.apply_basis_inverse(&r, &mut delta);
        let mut delta_max = 0.0f64;
        for i in 0..m {
            let d = delta[i];
            if d != 0.0 {
                self.xval[self.basis[i]] += d;
                delta_max = delta_max.max(d.abs());
            }
        }
        ctx.obs().add_counter(REFINE_ROUNDS, 1);
        ctx.metric_value(REFINE_DELTA_BITS, jcr_ctx::cert::residual_bits(delta_max));
    }

    /// Phase-specific cost of column `j` (phase 1: zero for nonbasic; the
    /// gradient of basic violations is handled via `cb`).
    fn phase_cost(&self, phase: Phase, j: usize) -> f64 {
        match phase {
            Phase::One => 0.0,
            Phase::Two => self.c[j],
        }
    }

    /// Fills `cb` with the basic columns' phase costs. Phase 1 also
    /// returns [`Simplex::infeasibility`] from the same pass, summed in
    /// the same order from the same `-0.0` start as its `sum`, so the two
    /// agree bit for bit; phase 2 returns `-0.0`. Kept out of line: once
    /// inlined into the pivot loop, the running sum was spilled to the
    /// stack and the loop ran slower than the two passes it replaces.
    #[inline(never)]
    fn basic_cost_into(&self, phase: Phase, cb: &mut [f64]) -> f64 {
        let mut infeasibility = -0.0;
        match phase {
            Phase::One => {
                for (cb, &j) in cb.iter_mut().zip(&self.basis) {
                    let (v, lo, up) = (self.xval[j], self.lo[j], self.up[j]);
                    infeasibility += (lo - v).max(0.0) + (v - up).max(0.0);
                    *cb = if v < lo - FEAS_TOL {
                        -1.0
                    } else if v > up + FEAS_TOL {
                        1.0
                    } else {
                        0.0
                    };
                }
            }
            Phase::Two => {
                for (cb, &j) in cb.iter_mut().zip(&self.basis) {
                    *cb = self.c[j];
                }
            }
        }
        infeasibility
    }

    /// Enumerates ratio-test candidates for an entering move: calls
    /// `f(i, rate, bound, v, to_upper)` for every basis position whose
    /// value blocks the step (phase-1 violated rows chase their violated
    /// bound; otherwise rows block at their finite bound in the direction
    /// of motion). Walks `alpha`'s nonzero positions `alpha_nz` in
    /// ascending order: a zero entry never blocks. Shared by both passes
    /// of the Harris ratio test.
    fn ratio_candidates<F: FnMut(usize, f64, f64, f64, bool)>(
        &self,
        phase: Phase,
        dir: f64,
        alpha: &[f64],
        mut f: F,
    ) {
        for &i in &self.alpha_nz {
            let i = i as usize;
            let rate = -dir * alpha[i]; // d x_B[i] / dt
            if rate.abs() < PIVOT_TOL {
                continue;
            }
            let k = self.basis[i];
            let v = self.xval[k];
            let below = v < self.lo[k] - FEAS_TOL;
            let above = v > self.up[k] + FEAS_TOL;
            let (bound, to_upper) = if phase == Phase::One && below {
                if rate > 0.0 {
                    (self.lo[k], false) // rising toward its violated lower bound
                } else {
                    continue; // moving further away: gradient constant, no block
                }
            } else if phase == Phase::One && above {
                if rate < 0.0 {
                    (self.up[k], true)
                } else {
                    continue;
                }
            } else if rate > 0.0 {
                if self.up[k].is_finite() {
                    (self.up[k], true)
                } else {
                    continue;
                }
            } else if self.lo[k].is_finite() {
                (self.lo[k], false)
            } else {
                continue;
            };
            f(i, rate, bound, v, to_upper);
        }
    }

    /// One simplex phase. The four m-length work vectors (basic costs,
    /// duals, pivot column, Devex pivot row) are allocated once per phase
    /// and reused by every pivot.
    fn run(&mut self, phase: Phase, ctx: &SolverContext) -> Result<(), LpError> {
        // Fresh Devex reference framework per phase: every nonbasic
        // column starts at weight one.
        let ncols = self.n_struct + self.m;
        self.devex.clear();
        self.devex.resize(ncols, 1.0);
        // The reduced costs and the eligible list are primed by the
        // phase's first pricing pass.
        self.dj.clear();
        self.dj.resize(ncols, 0.0);
        self.y_last.clear();
        self.y_last.resize(self.m, 0.0);
        self.elig.clear();
        self.in_elig.clear();
        self.in_elig.resize(ncols, false);
        let mut cb = vec![0.0; self.m];
        let mut y = vec![0.0; self.m];
        let mut alpha = vec![0.0; self.m];
        let mut rho = vec![0.0; self.m];
        self.run_inner(phase, ctx, &mut cb, &mut y, &mut alpha, &mut rho)
    }

    fn run_inner(
        &mut self,
        phase: Phase,
        ctx: &SolverContext,
        cb: &mut [f64],
        y: &mut [f64],
        alpha: &mut [f64],
        rho: &mut [f64],
    ) -> Result<(), LpError> {
        let ncols = self.n_struct + self.m;
        let max_iter = 200 * (self.m + ncols) + 20_000;
        let mut stall = 0usize;
        let mut last_obj = f64::INFINITY;

        for iter in 0..max_iter {
            ctx.check(jcr_ctx::Phase::Simplex)?;
            let iter_t0 = Instant::now();
            let infeasibility = self.basic_cost_into(phase, cb);
            if phase == Phase::One {
                if infeasibility <= FEAS_TOL {
                    return Ok(());
                }
                // Stall tracking for the previous pivot: phase 1's
                // objective is the infeasibility it left, and nothing
                // moves `xval` between a pivot and the next pass.
                if iter > 0 {
                    track_stall(infeasibility, &mut last_obj, &mut stall);
                }
                if cb.iter().all(|&v| v == 0.0) {
                    return Ok(());
                }
            }
            self.btran_into(cb, y);
            ctx.metric_value(BTRAN_FILL, fill_count(y.iter()));

            #[cfg(not(test))]
            let stall_limit = STALL_LIMIT;
            #[cfg(test)]
            let stall_limit = self.hooks.stall_limit.unwrap_or(STALL_LIMIT);
            let bland = stall >= stall_limit;
            #[cfg(test)]
            {
                self.hooks.bland_passes += usize::from(bland);
            }
            // Incremental pricing. The first pass of a phase prices every
            // column; a later one reprices only the columns of the rows
            // whose dual changed bits since the last pass. Any other
            // column's `dot_col` adds the same terms in the same order,
            // and `c` is constant within a phase, so its cached reduced
            // cost is bit-equal to a fresh one.
            self.v_rows.clear();
            #[cfg(not(test))]
            let prime = iter == 0;
            #[cfg(test)]
            let prime = iter == 0 || self.hooks.full_reprice;
            if prime {
                self.y_last.copy_from_slice(y);
                self.candidates_all();
            } else {
                for (r, (last, &now)) in self.y_last.iter_mut().zip(y.iter()).enumerate() {
                    if last.to_bits() != now.to_bits() {
                        *last = now;
                        self.v_rows.push(r as u32);
                    }
                }
                self.collect_candidates();
            }
            #[cfg(test)]
            {
                self.hooks.incremental_passes += usize::from(!self.cand_all);
            }
            let cand = std::mem::take(&mut self.cand);
            for &j in &cand {
                if self.status[j as usize] != ColStatus::Basic {
                    self.reprice(phase, y, j as usize);
                }
            }
            self.cand = cand;
            #[cfg(debug_assertions)]
            for j in 0..ncols {
                if self.status[j] != ColStatus::Basic {
                    let d = self.phase_cost(phase, j) - self.dot_col(y, j);
                    assert_eq!(
                        self.dj[j].to_bits(),
                        d.to_bits(),
                        "cached reduced cost of column {j} differs from a full reprice: {:e} vs {d:e}",
                        self.dj[j]
                    );
                    assert!(
                        self.in_elig[j] || entering_dir(self.status[j], d).is_none(),
                        "eligible column {j} is missing from the eligible list"
                    );
                }
            }

            // Devex pricing: pick the entering column maximizing
            // `d² / w` over the eligible nonbasic columns, ties to the
            // smallest index (plain Bland smallest-index under the
            // anti-cycling fallback, where every score is zero). The
            // rule does not depend on the order of `elig`; entries that
            // turned basic or ineligible leave it.
            let mut enter: Option<(usize, f64, i8)> = None; // (col, score, dir)
            let mut k = 0;
            while k < self.elig.len() {
                let j = self.elig[k] as usize;
                let Some(dir) = entering_dir(self.status[j], self.dj[j]) else {
                    self.in_elig[j] = false;
                    self.elig.swap_remove(k);
                    continue;
                };
                k += 1;
                let d = self.dj[j];
                let score = if bland { 0.0 } else { d * d / self.devex[j] };
                if enter.is_none_or(|(bj, best, _)| score > best || (score == best && j < bj)) {
                    enter = Some((j, score, dir));
                }
            }
            let Some((q, _, dir)) = enter else {
                // Phase-1 optimum with residual infeasibility means the LP
                // is infeasible; phase-2 optimum means done.
                return Ok(());
            };
            let dir = dir as f64;

            self.ftran_into(q, alpha);
            ctx.metric_value(
                FTRAN_FILL,
                fill_count(self.alpha_nz.iter().map(|&i| &alpha[i as usize])),
            );
            // Harris two-pass ratio test. Pass 1: the largest step
            // admissible when every blocking bound is relaxed by half the
            // feasibility tolerance. Pass 2: among rows whose *exact*
            // ratio fits under that relaxed step, the largest pivot
            // magnitude wins (smallest basis index under Bland) — on
            // degenerate ties this trades a bounded, tolerance-absorbed
            // overshoot for a far better-conditioned basis update.
            let expand = FEAS_TOL * 0.5;
            let mut t_relaxed = f64::INFINITY;
            self.ratio_candidates(phase, dir, alpha, |_i, rate, bound, v, _to_upper| {
                let t = ((bound - v) / rate).max(0.0) + expand / rate.abs();
                if t < t_relaxed {
                    t_relaxed = t;
                }
            });
            let mut t_best = f64::INFINITY;
            let mut leave: Option<usize> = None; // basis position
            let mut leave_to_upper = false;
            let mut best_mag = 0.0f64;
            self.ratio_candidates(phase, dir, alpha, |i, rate, bound, v, to_upper| {
                let t = ((bound - v) / rate).max(0.0);
                if t > t_relaxed {
                    return;
                }
                // `|rate| == |alpha[i]|` (dir is ±1), so the pivot
                // magnitude comes along for free.
                let better = match leave {
                    None => true,
                    Some(cur) => {
                        if bland {
                            self.basis[i] < self.basis[cur]
                        } else {
                            rate.abs() > best_mag
                        }
                    }
                };
                if better {
                    t_best = t;
                    leave = Some(i);
                    leave_to_upper = to_upper;
                    best_mag = rate.abs();
                }
            });
            // Entering variable's own opposite bound (bound flip).
            let span = self.up[q] - self.lo[q];
            let t_flip = if span.is_finite() && self.status[q] != ColStatus::FreeZero {
                span
            } else {
                f64::INFINITY
            };

            if t_flip < t_best - 1e-12 {
                // Bound flip: no basis change.
                let t = t_flip;
                for i in 0..self.m {
                    let k = self.basis[i];
                    self.xval[k] += -dir * alpha[i] * t;
                }
                self.status[q] = if dir > 0.0 {
                    ColStatus::AtUpper
                } else {
                    ColStatus::AtLower
                };
                self.xval[q] = if dir > 0.0 { self.up[q] } else { self.lo[q] };
                // `q` came from the eligible list and is still on it; its
                // reduced cost holds, and the next walk re-checks it
                // under the new status.
                #[cfg(test)]
                self.hooks.moves.push((q, None));
            } else {
                let Some(r) = leave else {
                    if phase == Phase::Two {
                        return Err(LpError::Unbounded);
                    }
                    return Err(LpError::Numerical(
                        "unbounded infeasibility direction".into(),
                    ));
                };
                if alpha[r].abs() < PIVOT_TOL {
                    return Err(LpError::Numerical("tiny pivot".into()));
                }

                // Devex reference-framework update (Forrest–Goldfarb):
                // the pivot row `α_r· = eᵣᵀB⁻¹N` prices every nonbasic
                // weight against the entering column's weight.
                let arq = alpha[r];
                let wq = self.devex[q];
                let mut w_overflow = false;
                if !bland {
                    self.btran_row_into(r, rho);
                    self.collect_candidates();
                    for &j in &self.cand {
                        let j = j as usize;
                        if self.status[j] == ColStatus::Basic || j == q {
                            continue;
                        }
                        let arj = self.dot_col(rho, j);
                        if arj != 0.0 {
                            let ratio = arj / arq;
                            let cand = ratio * ratio * wq;
                            if cand > self.devex[j] {
                                self.devex[j] = cand;
                                w_overflow |= cand > DEVEX_RESET;
                            }
                        }
                    }
                }

                let t = t_best;
                // Move all basics, set entering value, swap basis.
                for i in 0..self.m {
                    let k = self.basis[i];
                    self.xval[k] += -dir * alpha[i] * t;
                }
                let old = self.basis[r];
                self.status[old] = if leave_to_upper {
                    ColStatus::AtUpper
                } else {
                    ColStatus::AtLower
                };
                self.xval[old] = if leave_to_upper {
                    self.up[old]
                } else {
                    self.lo[old]
                };
                let enter_val = self.xval[q] + dir * t;
                self.basis[r] = q;
                self.status[q] = ColStatus::Basic;
                self.xval[q] = enter_val;
                // The leaving column gets a reduced cost under this
                // pass's duals, which `y_last` holds.
                self.reprice(phase, y, old);
                #[cfg(test)]
                self.hooks.moves.push((q, Some(old)));
                self.devex[old] = (wq / (arq * arq)).max(1.0);
                if w_overflow || self.devex[old] > DEVEX_RESET {
                    // Framework grew stale: start a fresh reference set.
                    self.devex.iter_mut().for_each(|w| *w = 1.0);
                }
                // Update the factorization: append the product-form eta
                // for this pivot (α's nonzeros only — no dense m² update).
                self.etas.push(r, alpha, &self.alpha_nz);
                ctx.count(Counter::SimplexPivots, 1);
                self.pivots_since_refactor += 1;
                self.residual_ladder(ctx)?;
            }

            // Stall tracking for anti-cycling (phase 1's runs at the next
            // pass's top).
            if phase == Phase::Two {
                let obj = self
                    .basis
                    .iter()
                    .map(|&j| self.c[j] * self.xval[j])
                    .sum::<f64>();
                track_stall(obj, &mut last_obj, &mut stall);
            }
            ctx.metric_nanos(
                PIVOT_NS,
                iter_t0.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            );
        }
        Err(LpError::Numerical("iteration limit exceeded".into()))
    }

    fn extract(&mut self) -> Solution {
        let x: Vec<f64> = (0..self.n_struct).map(|j| self.xval[j]).collect();
        let obj_min: f64 = (0..self.n_struct).map(|j| self.c[j] * self.xval[j]).sum();
        let mut cb = vec![0.0; self.m];
        self.basic_cost_into(Phase::Two, &mut cb);
        let mut y = vec![0.0; self.m];
        self.btran_into(&cb, &mut y);
        let (objective, duals) = if self.maximize {
            (-obj_min, y.iter().map(|v| -v).collect())
        } else {
            (obj_min, y)
        };
        Solution {
            x,
            objective,
            duals,
            certificate: jcr_ctx::cert::Certificate::new("lp"),
        }
    }
}

/// The direction a nonbasic column with reduced cost `d` enters in (`1`
/// up, `-1` down), or `None` when it cannot improve the phase objective
/// (or is basic).
fn entering_dir(status: ColStatus, d: f64) -> Option<i8> {
    match status {
        ColStatus::AtLower => (d < -DUAL_TOL).then_some(1),
        ColStatus::AtUpper => (d > DUAL_TOL).then_some(-1),
        ColStatus::FreeZero => {
            if d < -DUAL_TOL {
                Some(1)
            } else {
                (d > DUAL_TOL).then_some(-1)
            }
        }
        ColStatus::Basic => None,
    }
}

fn initial_status(lo: f64, up: f64) -> ColStatus {
    if lo.is_finite() {
        ColStatus::AtLower
    } else if up.is_finite() {
        ColStatus::AtUpper
    } else {
        ColStatus::FreeZero
    }
}

#[cfg(test)]
mod tests {
    use crate::{LpError, Model, Sense};
    use jcr_ctx::SolverContext;

    fn assert_near(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn simple_max() {
        // max 3x + 2y s.t. x + y ≤ 4, x ≤ 2, y ≤ 3, x,y ≥ 0 → x=2,y=2, obj 10.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, 2.0, 3.0);
        let y = m.add_var(0.0, 3.0, 2.0);
        m.add_row(f64::NEG_INFINITY, 4.0, &[(x, 1.0), (y, 1.0)]);
        let s = m.solve_with_context(&SolverContext::new()).unwrap();
        assert_near(s.objective, 10.0);
        assert_near(s.x[0], 2.0);
        assert_near(s.x[1], 2.0);
    }

    #[test]
    fn simple_min_with_equality() {
        // min 2x + 3y s.t. x + y = 5, x ≤ 3, y ≤ 4 → x=3,y=2, obj 12.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 3.0, 2.0);
        let y = m.add_var(0.0, 4.0, 3.0);
        m.add_row(5.0, 5.0, &[(x, 1.0), (y, 1.0)]);
        let s = m.solve_with_context(&SolverContext::new()).unwrap();
        assert_near(s.objective, 12.0);
        assert_near(s.x[0], 3.0);
        assert_near(s.x[1], 2.0);
    }

    #[test]
    fn infeasible_detected() {
        let ctx = SolverContext::new();
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 1.0, 1.0);
        m.add_row(2.0, 3.0, &[(x, 1.0)]);
        assert_eq!(m.solve_with_context(&ctx).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let ctx = SolverContext::new();
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, f64::INFINITY, 1.0);
        let y = m.add_var(0.0, f64::INFINITY, 0.0);
        // x - y ≤ 1 does not bound x when y can grow.
        m.add_row(f64::NEG_INFINITY, 1.0, &[(x, 1.0), (y, -1.0)]);
        assert_eq!(m.solve_with_context(&ctx).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn free_variable() {
        // min x s.t. x ≥ -7 via row, x free → x = -7.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        m.add_row(-7.0, f64::INFINITY, &[(x, 1.0)]);
        let s = m.solve_with_context(&SolverContext::new()).unwrap();
        assert_near(s.x[0], -7.0);
    }

    #[test]
    fn ranged_row_binds_correct_side() {
        let ctx = SolverContext::new();
        // max x s.t. 1 ≤ x ≤ 6 via row, 0 ≤ x ≤ 10.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, 10.0, 1.0);
        m.add_row(1.0, 6.0, &[(x, 1.0)]);
        let s = m.solve_with_context(&ctx).unwrap();
        assert_near(s.x[0], 6.0);
        // And minimizing binds the lower side.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 10.0, 1.0);
        m.add_row(1.0, 6.0, &[(x, 1.0)]);
        let s = m.solve_with_context(&ctx).unwrap();
        assert_near(s.x[0], 1.0);
    }

    #[test]
    fn degenerate_transportation() {
        // Classic transportation LP with ties.
        // min Σ c_ij x_ij, rows: supplies = [10, 10], demands = [10, 10].
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
        let s = m.solve_with_context(&SolverContext::new()).unwrap();
        assert_near(s.objective, 20.0);
    }

    #[test]
    fn duals_price_columns_correctly_min() {
        // min 2x s.t. x = 1 → dual on the row is 2.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, f64::INFINITY, 2.0);
        m.add_row(1.0, 1.0, &[(x, 1.0)]);
        let s = m.solve_with_context(&SolverContext::new()).unwrap();
        assert_near(s.duals[0], 2.0);
        // A column with cost 1 on the same row has negative reduced cost.
        assert!(s.reduced_cost(1.0, &[(0, 1.0)]) < 0.0);
        // A column with cost 3 does not improve.
        assert!(s.reduced_cost(3.0, &[(0, 1.0)]) > 0.0);
    }

    #[test]
    fn warm_start_column_generation() {
        let ctx = SolverContext::new();
        // min 5a s.t. a + b = 2 with b added later at cost 1.
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_var(0.0, f64::INFINITY, 5.0);
        let row = m.add_row(2.0, 2.0, &[(a, 1.0)]);
        let mut solver = m.into_solver();
        let s1 = solver.solve_with_context(&ctx).unwrap();
        assert_near(s1.objective, 10.0);
        solver.add_column(0.0, f64::INFINITY, 1.0, &[(row, 1.0)]);
        let s2 = solver.solve_with_context(&ctx).unwrap();
        assert_near(s2.objective, 2.0);
        assert_near(s2.x[1], 2.0);
    }

    #[test]
    fn zero_rows_model() {
        // Pure box: max x + y with x ∈ [0, 3], y ∈ [-1, 2].
        let mut m = Model::new(Sense::Maximize);
        m.add_var(0.0, 3.0, 1.0);
        m.add_var(-1.0, 2.0, 1.0);
        let s = m.solve_with_context(&SolverContext::new()).unwrap();
        assert_near(s.objective, 5.0);
    }

    #[test]
    fn negative_bounds() {
        // min x + y s.t. x + y ≥ -4, x ∈ [-3, 0], y ∈ [-3, 0] → obj = -4.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(-3.0, 0.0, 1.0);
        let y = m.add_var(-3.0, 0.0, 1.0);
        m.add_row(-4.0, f64::INFINITY, &[(x, 1.0), (y, 1.0)]);
        let s = m.solve_with_context(&SolverContext::new()).unwrap();
        assert_near(s.objective, -4.0);
    }

    #[test]
    fn medium_random_lp_is_feasible_and_not_worse_than_samples() {
        use jcr_ctx::rng::{Rng, SeedableRng};
        let mut rng = jcr_ctx::rng::StdRng::seed_from_u64(7);
        for _case in 0..20 {
            let n = rng.gen_range(3..10);
            let rows = rng.gen_range(1..8);
            let mut m = Model::new(Sense::Minimize);
            let vars: Vec<_> = (0..n)
                .map(|_| m.add_var(0.0, rng.gen_range(0.5..4.0), rng.gen_range(-2.0..3.0)))
                .collect();
            // Rows of the form Σ a x ≤ U with a ≥ 0, always feasible at x = 0.
            for _ in 0..rows {
                let entries: Vec<_> = vars.iter().map(|&v| (v, rng.gen_range(0.0..2.0))).collect();
                m.add_row(f64::NEG_INFINITY, rng.gen_range(1.0..6.0), &entries);
            }
            let s = m.solve_with_context(&SolverContext::new()).unwrap();
            assert!(m.is_feasible(&s.x, 1e-6));
            // Sample random feasible points; none may beat the optimum.
            for _ in 0..50 {
                let mut x: Vec<f64> = (0..n)
                    .map(|j| rng.gen_range(0.0..1.0) * m.upper[j])
                    .collect();
                // Scale down until feasible.
                while !m.is_feasible(&x, 1e-9) {
                    for v in &mut x {
                        *v *= 0.5;
                    }
                }
                assert!(m.objective_value(&x) >= s.objective - 1e-6);
            }
        }
    }

    #[test]
    fn warm_restart_reaches_same_objective_with_fewer_pivots() {
        use jcr_ctx::rng::{Rng, SeedableRng};
        use jcr_ctx::{Counter, SolverContext};
        // A dense-ish LP solved cold, snapshotted, then re-solved from
        // the snapshot after a small objective perturbation: the warm
        // solve must agree on the perturbed optimum and pivot less.
        let mut rng = jcr_ctx::rng::StdRng::seed_from_u64(99);
        let n = 24;
        let rows = 14;
        let build = |perturb: f64| {
            let mut rng = jcr_ctx::rng::StdRng::seed_from_u64(99);
            let mut m = Model::new(Sense::Minimize);
            let vars: Vec<_> = (0..n)
                .map(|_| {
                    m.add_var(
                        0.0,
                        rng.gen_range(0.5..4.0),
                        rng.gen_range(-2.0..3.0) + perturb,
                    )
                })
                .collect();
            for _ in 0..rows {
                let entries: Vec<_> = vars.iter().map(|&v| (v, rng.gen_range(0.0..2.0))).collect();
                m.add_row(f64::NEG_INFINITY, rng.gen_range(1.0..6.0), &entries);
            }
            m
        };
        let _ = &mut rng;

        let ctx_cold = SolverContext::new();
        let mut cold = build(1e-3).into_solver();
        let cold_sol = cold.solve_with_context(&ctx_cold).unwrap();
        let cold_pivots = ctx_cold.stats().counter(Counter::SimplexPivots);

        // Solve the unperturbed LP, snapshot, warm start the perturbed one.
        let mut base = build(0.0).into_solver();
        base.solve_with_context(&SolverContext::new()).unwrap();
        let snap = base.basis().expect("solved at least once");

        let ctx_warm = SolverContext::new();
        let mut warm = build(1e-3).into_solver();
        let warm_sol = warm.solve_from_basis(&snap, &ctx_warm).unwrap();
        let warm_pivots = ctx_warm.stats().counter(Counter::SimplexPivots);

        assert_near(warm_sol.objective, cold_sol.objective);
        assert!(
            warm_pivots <= cold_pivots,
            "warm start pivoted more ({warm_pivots}) than cold ({cold_pivots})"
        );
    }

    /// Shape of a random LP for the pricing bit-identity test.
    struct Shape {
        n: usize,
        m: usize,
        /// Nonzeros per column (`m` gives a dense matrix).
        per_col: usize,
        /// Column entries in ascending row order, or shuffled.
        sorted: bool,
        maximize: bool,
        /// Share of free variables (the rest are boxed, lower- or
        /// upper-bounded).
        free: f64,
        /// Stall limit override that forces Bland stretches.
        stall_limit: Option<usize>,
        /// Column-generation rounds: columns added (and costs edited)
        /// between warm re-solves.
        cg_rounds: usize,
    }

    type Outcome = (Result<(Vec<u64>, u64, Vec<u64>), LpError>, u64);

    fn random_column(
        rng: &mut jcr_ctx::rng::StdRng,
        shape: &Shape,
        rows: &[crate::ConId],
    ) -> Vec<(crate::ConId, f64)> {
        use jcr_ctx::rng::Rng;
        let mut picked: Vec<usize> = Vec::new();
        while picked.len() < shape.per_col.min(shape.m) {
            let r = rng.gen_range(0..shape.m);
            if !picked.contains(&r) {
                picked.push(r);
            }
        }
        if shape.sorted {
            picked.sort_unstable();
        }
        picked
            .into_iter()
            .map(|r| {
                // Small integers make ties and degenerate vertices common;
                // the odd real breaks the symmetry elsewhere.
                let a = match rng.gen_range(0..4) {
                    0 => -1.0,
                    1 => 2.0,
                    2 => rng.gen_range(-1.5..2.5),
                    _ => 1.0,
                };
                (rows[r], a)
            })
            .collect()
    }

    /// Bounds and cost of a random variable. A one-sided bound gets a
    /// cost pushing toward it and a free variable a zero cost, so every
    /// instance is bounded.
    fn random_var(rng: &mut jcr_ctx::rng::StdRng, shape: &Shape) -> (f64, f64, f64) {
        use jcr_ctx::rng::Rng;
        let sign = if shape.maximize { -1.0 } else { 1.0 };
        if rng.gen_bool(shape.free) {
            return (f64::NEG_INFINITY, f64::INFINITY, 0.0);
        }
        match rng.gen_range(0..4) {
            // Narrow boxes invite bound flips.
            0 => (0.0, rng.gen_range(0.1..0.6), rng.gen_range(-3.0..1.0)),
            1 => (-1.0, f64::INFINITY, sign * rng.gen_range(0.0..2.0)),
            2 => (f64::NEG_INFINITY, 2.0, -sign * rng.gen_range(0.0..2.0)),
            _ => (0.0, rng.gen_range(1.0..4.0), rng.gen_range(-2.0..2.0)),
        }
    }

    /// The pricing corpus: `(seed, n, m, per_col, sorted, maximize, free,
    /// stall_limit, cg_rounds)` per [`Shape`].
    #[allow(clippy::type_complexity)]
    const SHAPES: [(
        u64,
        usize,
        usize,
        usize,
        bool,
        bool,
        f64,
        Option<usize>,
        usize,
    ); 8] = [
        // Hypersparse: wide and few nonzeros per column.
        (1, 400, 60, 2, true, false, 0.0, None, 0),
        (2, 400, 60, 3, false, true, 0.0, None, 0),
        (3, 300, 50, 2, false, false, 0.15, None, 0),
        (4, 300, 50, 2, true, true, 0.1, Some(2), 0),
        (5, 200, 40, 3, false, false, 0.0, None, 4),
        (6, 200, 40, 2, true, true, 0.05, Some(3), 3),
        // Dense: every column touches every row.
        (7, 30, 12, 12, false, false, 0.0, None, 0),
        (8, 30, 12, 12, true, true, 0.1, Some(1), 2),
    ];

    /// [`run_shape`] with `force_dense` set as given, returning the
    /// sparse and Bland pass counts.
    fn solve_shape(seed: u64, shape: &Shape, force_dense: bool) -> (Vec<Outcome>, [usize; 2]) {
        let hooks = super::TestHooks {
            force_dense,
            ..Default::default()
        };
        let (outcomes, hooks) = run_shape(seed, shape, hooks);
        (outcomes, [hooks.sparse_passes, hooks.bland_passes])
    }

    /// Builds the seeded LP of `shape` and solves it under `hooks` (its
    /// stall limit taken from `shape`), then runs the column-generation
    /// rounds, recording every solve's outcome and pivot count. Returns
    /// the hooks as the solves left them.
    fn run_shape(
        seed: u64,
        shape: &Shape,
        hooks: super::TestHooks,
    ) -> (Vec<Outcome>, super::TestHooks) {
        use super::Simplex;
        use jcr_ctx::rng::{Rng, SeedableRng};
        use jcr_ctx::{Counter, SolverContext};
        let mut rng = jcr_ctx::rng::StdRng::seed_from_u64(seed);
        let sense = if shape.maximize {
            Sense::Maximize
        } else {
            Sense::Minimize
        };
        let mut model = Model::new(sense);
        // Rows around the activity of a reference point keep most
        // instances feasible; a third are equalities (degenerate).
        let cols: Vec<_> = (0..shape.n).map(|_| random_var(&mut rng, shape)).collect();
        let x0: Vec<f64> = cols
            .iter()
            .map(|&(lo, up, _)| match (lo.is_finite(), up.is_finite()) {
                (true, true) => {
                    if rng.gen_bool(0.5) {
                        lo
                    } else {
                        up
                    }
                }
                (true, false) => lo,
                (false, true) => up,
                (false, false) => 0.0,
            })
            .collect();
        let rows: Vec<_> = (0..shape.m)
            .map(|_| model.add_row(f64::NEG_INFINITY, f64::INFINITY, &[]))
            .collect();
        let entries: Vec<_> = (0..shape.n)
            .map(|_| random_column(&mut rng, shape, &rows))
            .collect();
        let mut act = vec![0.0; shape.m];
        for (j, col) in entries.iter().enumerate() {
            let (lo, up, c) = cols[j];
            model.add_var_with_column(lo, up, c, col);
            for &(r, a) in col {
                act[r.index()] += a * x0[j];
            }
        }
        for (r, &a) in act.iter().enumerate() {
            let (lo, up) = match rng.gen_range(0..3) {
                0 => (a, a),
                1 => (f64::NEG_INFINITY, a + rng.gen_range(0.0..1.0)),
                _ => (a - rng.gen_range(0.0..1.0), a + rng.gen_range(0.0..2.0)),
            };
            model.row_lower[r] = lo;
            model.row_upper[r] = up;
        }

        let mut simplex = Simplex::new(&model);
        simplex.hooks = hooks;
        simplex.hooks.stall_limit = shape.stall_limit;
        let mut outcomes = Vec::new();
        for round in 0..=shape.cg_rounds {
            if round > 0 {
                for _ in 0..rng.gen_range(1..6) {
                    let (lo, up, c) = random_var(&mut rng, shape);
                    let col = random_column(&mut rng, shape, &rows);
                    let var = model.add_var_with_column(lo, up, c, &col);
                    simplex.add_column(&model, var.index());
                }
                let j = rng.gen_range(0..model.num_vars());
                model.set_obj(crate::VarId::from_index(j), 0.0);
            }
            let ctx = SolverContext::new();
            let result = simplex.resolve_with_context(&model, &ctx).map(|s| {
                (
                    s.x.iter().map(|v| v.to_bits()).collect(),
                    s.objective.to_bits(),
                    s.duals.iter().map(|v| v.to_bits()).collect(),
                )
            });
            let failed = result.is_err();
            outcomes.push((result, ctx.stats().counter(Counter::SimplexPivots)));
            if failed {
                break;
            }
        }
        (outcomes, simplex.hooks)
    }

    #[test]
    fn touched_column_pricing_is_bit_identical_to_a_full_scan() {
        let shapes = SHAPES;
        let mut optimal = 0;
        let mut solves = 0;
        for (shape_seed, n, m, per_col, sorted, maximize, free, stall_limit, cg_rounds) in shapes {
            let shape = Shape {
                n,
                m,
                per_col,
                sorted,
                maximize,
                free,
                stall_limit,
                cg_rounds,
            };
            let mut passes = [0; 2];
            for seed in 0..12 {
                let seed = shape_seed * 1000 + seed;
                let (touched, [sparse, bland]) = solve_shape(seed, &shape, false);
                let (full, _) = solve_shape(seed, &shape, true);
                assert_eq!(touched, full, "shape {shape_seed}, seed {seed}");
                passes[0] += sparse;
                passes[1] += bland;
                solves += touched.len();
                optimal += touched.iter().filter(|(r, _)| r.is_ok()).count();
            }
            if per_col < m {
                assert!(passes[0] > 0, "shape {shape_seed} never priced sparsely");
            }
            if stall_limit.is_some() {
                assert!(passes[1] > 0, "shape {shape_seed} never fell back to Bland");
            }
        }
        assert!(
            2 * optimal > solves,
            "only {optimal} of {solves} solves optimal"
        );
    }

    #[test]
    fn incremental_pricing_pivots_like_a_full_reprice() {
        let (mut flips, mut cg_pivots) = (0, 0);
        for (shape_seed, n, m, per_col, sorted, maximize, free, stall_limit, cg_rounds) in SHAPES {
            let shape = Shape {
                n,
                m,
                per_col,
                sorted,
                maximize,
                free,
                stall_limit,
                cg_rounds,
            };
            let (mut incremental, mut bland) = (0, 0);
            for seed in 0..12 {
                let seed = shape_seed * 1000 + seed;
                let (got, hooks) = run_shape(seed, &shape, super::TestHooks::default());
                let full_reprice = super::TestHooks {
                    full_reprice: true,
                    ..Default::default()
                };
                let (want, full) = run_shape(seed, &shape, full_reprice);
                assert_eq!(full.incremental_passes, 0);
                assert_eq!(hooks.moves, full.moves, "shape {shape_seed}, seed {seed}");
                // Solution, objective and dual bits and pivot counts.
                assert_eq!(got, want, "shape {shape_seed}, seed {seed}");
                incremental += hooks.incremental_passes;
                bland += hooks.bland_passes;
                flips += hooks
                    .moves
                    .iter()
                    .filter(|(_, leave)| leave.is_none())
                    .count();
                cg_pivots += got.iter().skip(1).map(|(_, pivots)| pivots).sum::<u64>();
            }
            assert!(
                incremental > 0,
                "shape {shape_seed} never skipped a column while pricing"
            );
            if stall_limit.is_some() {
                assert!(bland > 0, "shape {shape_seed} never fell back to Bland");
            }
        }
        assert!(flips > 0, "no bound flip in the corpus");
        assert!(cg_pivots > 0, "no column-generation re-solve pivoted");
    }

    #[test]
    fn explicit_zero_coefficients_solve_like_absent_ones() {
        use super::Simplex;
        use jcr_ctx::rng::{Rng, SeedableRng};
        use jcr_ctx::Counter;
        // `set_coeff(.., 0.0)` over an existing entry leaves an explicit
        // zero in the model's column; the simplex's column store drops it.
        // Each build draws the same LP; `zeros` adds, per row, one entry
        // that is then overwritten with 0.0 (and one such entry in a
        // column added between two solves).
        let build = |zeros: bool| {
            let mut rng = jcr_ctx::rng::StdRng::seed_from_u64(31);
            let mut m = Model::new(Sense::Minimize);
            let n = 14;
            let vars: Vec<_> = (0..n)
                .map(|_| m.add_var(0.0, rng.gen_range(0.5..4.0), rng.gen_range(-2.0..3.0)))
                .collect();
            let mut rows = Vec::new();
            for i in 0..9 {
                let mut entries = Vec::new();
                for &v in &vars {
                    if rng.gen_bool(0.5) {
                        entries.push((v, rng.gen_range(0.1..2.0)));
                    }
                }
                let dropped = vars[(3 * i + 1) % n];
                entries.retain(|&(v, _)| v != dropped);
                let at = entries.len() / 2;
                if zeros {
                    entries.insert(at, (dropped, 1.75));
                }
                let row = m.add_row(f64::NEG_INFINITY, rng.gen_range(1.0..6.0), &entries);
                if zeros {
                    m.set_coeff(row, dropped, 0.0);
                }
                rows.push(row);
            }
            let mut column = vec![(rows[0], 1.0), (rows[4], 0.5)];
            if zeros {
                column.insert(1, (rows[2], -3.0));
            }
            (m, rows, column)
        };
        let solve = |zeros: bool| {
            let (mut model, rows, column) = build(zeros);
            let mut simplex = Simplex::new(&model);
            let store = (simplex.col_start.clone(), simplex.col_row.clone());
            let mut outcomes = Vec::new();
            for round in 0..2 {
                if round == 1 {
                    let var = model.add_var_with_column(0.0, f64::INFINITY, -40.0, &column);
                    if zeros {
                        model.set_coeff(rows[2], var, 0.0);
                    }
                    simplex.add_column(&model, var.index());
                }
                let ctx = SolverContext::new();
                let sol = simplex.resolve_with_context(&model, &ctx).unwrap();
                outcomes.push((
                    sol.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    sol.objective.to_bits(),
                    sol.duals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    ctx.stats().counter(Counter::SimplexPivots),
                ));
            }
            (model, store, outcomes)
        };
        let (with_zeros, store, got) = solve(true);
        let (without, want_store, want) = solve(false);
        assert!(
            with_zeros
                .columns()
                .flatten()
                .filter(|e| e.1 == 0.0)
                .count()
                == 10,
            "the model keeps its explicit zeros"
        );
        assert!(without.columns().flatten().all(|e| e.1 != 0.0));
        assert_eq!(store, want_store);
        assert!(want.iter().all(|o| o.3 > 0), "both rounds pivot");
        assert_eq!(got, want);
    }

    #[test]
    fn incompatible_basis_falls_back_cold() {
        let ctx = SolverContext::new();
        // Snapshot from a 2-var model restored against a 3-var model:
        // dimension gate rejects it, solve still succeeds cold.
        let mut m2 = Model::new(Sense::Minimize);
        let x = m2.add_var(0.0, 2.0, 1.0);
        m2.add_row(1.0, 1.0, &[(x, 1.0)]);
        let mut s2 = m2.into_solver();
        s2.solve_with_context(&ctx).unwrap();
        let snap = s2.basis().unwrap();

        let mut m3 = Model::new(Sense::Minimize);
        let a = m3.add_var(0.0, 2.0, 1.0);
        let b = m3.add_var(0.0, 2.0, 3.0);
        m3.add_row(1.0, 1.0, &[(a, 1.0), (b, 1.0)]);
        let mut s3 = m3.into_solver();
        let sol = s3.solve_from_basis(&snap, &ctx).unwrap();
        assert_near(sol.objective, 1.0);
    }
}
