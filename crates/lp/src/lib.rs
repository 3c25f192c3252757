//! A self-contained linear-programming solver.
//!
//! The joint caching and routing stack solves several families of LPs — the
//! concave-relaxation placement LPs of Algorithm 1 and the alternating
//! optimization, and the path-based masters of the column-generation
//! multicommodity flow solver — so this crate implements a **revised
//! simplex** method from scratch with the features those callers need:
//!
//! * **bounded variables** (`l ≤ x ≤ u`, either side may be infinite), so
//!   box constraints cost nothing;
//! * **ranged rows** (`L ≤ aᵀx ≤ U`, equalities as `L == U`), handled via
//!   bounded slacks;
//! * a **phase-1 infeasibility minimization** start (no big-M constants);
//! * a **sparse LU basis factorization** with threshold partial pivoting,
//!   product-form eta updates between refactorizations, and hypersparse
//!   ftran/btran that visit only the steps a sparse right-hand side
//!   reaches;
//! * **Devex pricing** with a Bland anti-cycling fallback;
//! * **duals and reduced costs**, **incremental column addition**, and
//!   **warm starts from a saved [`Basis`]** — the primitives column
//!   generation and repeated re-solves need.
//!
//! # Examples
//!
//! ```
//! use jcr_ctx::SolverContext;
//! use jcr_lp::{Model, Sense};
//!
//! // max 3x + 2y  s.t.  x + y ≤ 4,  0 ≤ x ≤ 2,  0 ≤ y ≤ 3
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_var(0.0, 2.0, 3.0);
//! let y = m.add_var(0.0, 3.0, 2.0);
//! m.add_row(f64::NEG_INFINITY, 4.0, &[(x, 1.0), (y, 1.0)]);
//! let sol = m.solve_with_context(&SolverContext::new()).expect("bounded and feasible");
//! assert!((sol.objective - 10.0).abs() < 1e-7); // x = 2, y = 2
//! ```

// Numerical kernels index several parallel arrays in lock-step; iterator
// chains would obscure the linear-algebra structure.
#![allow(clippy::needless_range_loop)]

mod basis;
pub mod certify;
mod factor;
mod model;
mod simplex;

pub use basis::Basis;
pub use model::{ConId, Model, ModelSolver, Sense, VarId};
pub use simplex::{LpError, Solution};
