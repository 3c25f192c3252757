//! Sparse LU factorization of the simplex basis.
//!
//! Replaces the dense `B⁻¹` the engine historically carried. The basis
//! `B` (one sparse column per basic variable, slacks implicit `−1`) is
//! factorized left-looking, one column at a time in a static
//! Markowitz-flavoured order (ascending column nonzero count), with
//! threshold partial pivoting: any row whose eliminated value is within
//! a factor [`PIVOT_THRESHOLD`] of the column maximum is admissible, and
//! among admissible rows the sparsest (by static row count, then lowest
//! index) wins — the classic stability/fill compromise, made fully
//! deterministic by the explicit tie-breaks.
//!
//! Each column's left-looking solve visits only the earlier steps its
//! nonzeros reach (Gilbert–Peierls): the steps of its own already-pivotal
//! rows, then those reached through the `L` columns of visited steps. It
//! takes them in ascending step order from a min-heap, so every `U` column
//! lists its steps ascending and every update lands in the same order as a
//! scan of all earlier steps would make it; a step the scan would visit
//! but the reach skips holds an exact `0.0`, which the scan skips too.
//!
//! Between refactorizations the factorization is *not* rebuilt: each
//! simplex basis change appends a product-form eta (the pivot column in
//! basis-position space) to an [`EtaFile`], and `ftran`/`btran` apply the
//! LU triangles followed by the etas (transposed, in reverse, for
//! `btran`). The eta file is bounded by the engine's refactorization
//! cadence plus a nonzero budget; when either trips, the basis is
//! refactorized from scratch (the Bartels–Golub-style fallback) and the
//! file is cleared.
//!
//! Layout:
//!
//! * `L` — one eta column per elimination step: `(original row,
//!   multiplier)` pairs over the rows *not yet pivotal* at that step,
//!   ascending by row; unit diagonal implicit.
//! * `U` — one column per step: `(earlier step, value)` pairs in
//!   ascending step order (btran's `Uᵀ` accumulation depends on it), plus
//!   a separate diagonal array.
//! * `pivot_row[k]` — the original row chosen at step `k`;
//!   `col_at[k]` — the basis *position* eliminated at step `k`.
//! * The eta file — flat arrays: per eta its position `r`, its pivot and
//!   the start of its off-pivot entries in one shared `u32` position
//!   array and one `f64` value array.
//!
//! `ftran` solves `B·x = a` (row-space input, position-space output);
//! `btran` solves `Bᵀ·y = c` (position-space input, row-space output).
//! Both exploit sparsity of the right-hand side: the `L`-forward pass
//! skips steps whose pivot entry is exactly zero, which is where the
//! ftran-fill histograms come from.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Threshold partial pivoting factor: a row is an admissible pivot when
/// its magnitude is at least this fraction of the column maximum.
const PIVOT_THRESHOLD: f64 = 0.1;

/// The product-form eta file: one eta per basis change since the last
/// refactorization, each the pivot column `α = B⁻¹·A_q` recorded when
/// the entering column replaced basis position `r`. Eta `e`'s off-pivot
/// nonzeros `(position, α_i)`, `i ≠ r`, are `pos`/`val` over
/// `start[e]..start[e + 1]`; once the arrays have grown, appending an
/// eta allocates nothing.
#[derive(Clone, Debug)]
pub(crate) struct EtaFile {
    /// Basis position each eta's entering column replaced.
    r: Vec<usize>,
    /// Pivot element `α_r` of each eta.
    pivot: Vec<f64>,
    /// Start of each eta's entries, plus one end sentinel.
    start: Vec<usize>,
    /// Off-pivot positions of all etas, back to back.
    pos: Vec<u32>,
    /// Off-pivot values, parallel to `pos`.
    val: Vec<f64>,
}

impl Default for EtaFile {
    fn default() -> Self {
        EtaFile {
            r: Vec::new(),
            pivot: Vec::new(),
            start: vec![0],
            pos: Vec::new(),
            val: Vec::new(),
        }
    }
}

impl EtaFile {
    /// Drops every eta, keeping the arrays' capacity.
    pub fn clear(&mut self) {
        self.r.clear();
        self.pivot.clear();
        self.start.truncate(1);
        self.pos.clear();
        self.val.clear();
    }

    /// Appends the eta of a basis change on position `r` with pivot
    /// column `alpha` (position space): every nonzero `alpha[i]`, `i ≠ r`,
    /// in ascending position.
    pub fn push(&mut self, r: usize, alpha: &[f64]) {
        assert!(u32::try_from(alpha.len()).is_ok(), "positions fit in u32");
        for (i, &a) in alpha.iter().enumerate() {
            if i != r && a != 0.0 {
                self.pos.push(i as u32);
                self.val.push(a);
            }
        }
        self.r.push(r);
        self.pivot.push(alpha[r]);
        self.start.push(self.pos.len());
    }

    /// Nonzeros stored, one per entry plus one per eta for its pivot (the
    /// refactorization budget counts these).
    pub fn nnz(&self) -> usize {
        self.pos.len() + self.r.len()
    }

    /// Applies `E_K ⋯ E_1 · v` in place (ftran direction): each eta in
    /// ascending order, `v` in position space.
    pub fn apply(&self, v: &mut [f64]) {
        for e in 0..self.r.len() {
            let r = self.r[e];
            let vr = v[r] / self.pivot[e];
            if vr != 0.0 {
                let span = self.start[e]..self.start[e + 1];
                for (&i, &a) in self.pos[span.clone()].iter().zip(&self.val[span]) {
                    v[i as usize] -= a * vr;
                }
            }
            v[r] = vr;
        }
    }

    /// Applies `E_1ᵀ ⋯ E_Kᵀ · v` in place (btran direction): each eta
    /// transposed, in descending order, `v` in position space.
    pub fn apply_transposed(&self, v: &mut [f64]) {
        for e in (0..self.r.len()).rev() {
            let r = self.r[e];
            let mut acc = v[r];
            let span = self.start[e]..self.start[e + 1];
            for (&i, &a) in self.pos[span.clone()].iter().zip(&self.val[span]) {
                acc -= a * v[i as usize];
            }
            v[r] = acc / self.pivot[e];
        }
    }
}

/// Sparse LU factors of one basis matrix, plus scratch for the solves.
#[derive(Clone, Debug, Default)]
pub(crate) struct LuFactors {
    m: usize,
    /// Per-step L eta column: `(original row, multiplier)`.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// Per-step U column: `(earlier step, value)` above the diagonal, in
    /// ascending step order.
    u_cols: Vec<Vec<(usize, f64)>>,
    /// U diagonal, one entry per step.
    u_diag: Vec<f64>,
    /// Original row pivotal at step `k`.
    pivot_row: Vec<usize>,
    /// Basis position eliminated at step `k`.
    col_at: Vec<usize>,
    /// Dense workspace reused across solves (row or position space).
    work: Vec<f64>,
    /// Second workspace for the two-stage solves.
    work2: Vec<f64>,
}

impl LuFactors {
    /// Factorizes the `m×m` basis whose column at position `j` is
    /// produced by `col(j, f)` (calling `f(row, value)` per nonzero).
    /// Columns are eliminated in ascending nonzero count (ties by
    /// position) and rows chosen by threshold partial pivoting.
    ///
    /// Returns `Err(k)` when the basis is numerically singular: the
    /// column eliminated at step `k` has no pivot above `pivot_tol`.
    pub fn factorize<F>(m: usize, pivot_tol: f64, col: F) -> Result<LuFactors, usize>
    where
        F: Fn(usize, &mut dyn FnMut(usize, f64)),
    {
        // Gather the columns once into one compressed store; static
        // counts drive both orderings.
        let mut col_start = Vec::with_capacity(m + 1);
        let mut col_row: Vec<usize> = Vec::new();
        let mut col_val: Vec<f64> = Vec::new();
        let mut row_count = vec![0usize; m];
        col_start.push(0);
        for j in 0..m {
            col(j, &mut |r, v| {
                if v != 0.0 {
                    col_row.push(r);
                    col_val.push(v);
                    row_count[r] += 1;
                }
            });
            col_start.push(col_row.len());
        }
        // Markowitz-flavoured static order: sparsest column first,
        // position as the deterministic tie-break.
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&j| (col_start[j + 1] - col_start[j], j));

        let mut lu = LuFactors {
            m,
            l_cols: Vec::with_capacity(m),
            u_cols: Vec::with_capacity(m),
            u_diag: Vec::with_capacity(m),
            pivot_row: Vec::with_capacity(m),
            col_at: Vec::with_capacity(m),
            work: vec![0.0; m],
            work2: vec![0.0; m],
        };
        // `row_step[r]` = step at which original row `r` became pivotal.
        let mut row_step = vec![usize::MAX; m];
        let mut x = vec![0.0; m];
        let mut touched: Vec<usize> = Vec::with_capacity(m);
        let mut is_touched = vec![false; m];
        // Earlier steps the current column reaches, popped ascending;
        // `queued[t]` dedups pushes.
        let mut reach: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
        let mut queued = vec![false; m];

        for (k, &j) in order.iter().enumerate() {
            // Left-looking: solve the partial L system for column j.
            for &r in &touched {
                is_touched[r] = false;
            }
            touched.clear();
            let span = col_start[j]..col_start[j + 1];
            for (&r, &v) in col_row[span.clone()].iter().zip(&col_val[span]) {
                x[r] = v;
                if !is_touched[r] {
                    is_touched[r] = true;
                    touched.push(r);
                }
                let t = row_step[r];
                if t != usize::MAX && !queued[t] {
                    queued[t] = true;
                    reach.push(Reverse(t));
                }
            }
            // An `L` column only holds rows that turn pivotal after its
            // step, so every push lies above the step being popped and the
            // pops come out strictly ascending.
            let mut u_col = Vec::new();
            while let Some(Reverse(t)) = reach.pop() {
                queued[t] = false;
                let xt = x[lu.pivot_row[t]];
                if xt != 0.0 {
                    u_col.push((t, xt));
                    for &(r, mult) in &lu.l_cols[t] {
                        if !is_touched[r] {
                            is_touched[r] = true;
                            touched.push(r);
                        }
                        x[r] -= mult * xt;
                        let s = row_step[r];
                        if s != usize::MAX && !queued[s] {
                            queued[s] = true;
                            reach.push(Reverse(s));
                        }
                    }
                }
            }
            // Threshold partial pivot over the not-yet-pivotal rows:
            // admissible = within PIVOT_THRESHOLD of the column max;
            // among admissible, sparsest static row, then lowest index.
            let mut col_max = 0.0f64;
            for &r in &touched {
                if row_step[r] == usize::MAX {
                    col_max = col_max.max(x[r].abs());
                }
            }
            if col_max < pivot_tol {
                return Err(k);
            }
            let mut pivot: Option<usize> = None;
            for &r in &touched {
                if row_step[r] != usize::MAX || x[r].abs() < PIVOT_THRESHOLD * col_max {
                    continue;
                }
                let better = match pivot {
                    None => true,
                    Some(p) => (row_count[r], r) < (row_count[p], p),
                };
                if better {
                    pivot = Some(r);
                }
            }
            let pr = pivot.expect("col_max >= pivot_tol guarantees a candidate");
            let piv = x[pr];
            let mut l_col = Vec::new();
            for &r in &touched {
                if r != pr && row_step[r] == usize::MAX && x[r] != 0.0 {
                    l_col.push((r, x[r] / piv));
                }
            }
            // Deterministic storage order regardless of touch order.
            l_col.sort_unstable_by_key(|&(r, _)| r);
            for &r in &touched {
                x[r] = 0.0;
            }
            row_step[pr] = k;
            lu.pivot_row.push(pr);
            lu.l_cols.push(l_col);
            lu.u_cols.push(u_col);
            lu.u_diag.push(piv);
            lu.col_at.push(j);
        }
        Ok(lu)
    }

    /// Dimension of the factored basis.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Solves `B·x = a`: `a` indexed by original row, `x` by basis
    /// position. `out` must have length `m`; it is fully overwritten.
    pub fn ftran(&mut self, a: &[f64], out: &mut [f64]) {
        let m = self.m;
        self.work[..m].copy_from_slice(&a[..m]);
        // Forward pass through L (skips steps with a zero pivot entry —
        // the sparse-RHS win).
        for t in 0..m {
            let v = self.work[self.pivot_row[t]];
            if v != 0.0 {
                for &(r, mult) in &self.l_cols[t] {
                    self.work[r] -= mult * v;
                }
            }
        }
        // Back-substitute U in step space.
        for k in 0..m {
            self.work2[k] = self.work[self.pivot_row[k]];
        }
        for k in (0..m).rev() {
            let y = self.work2[k] / self.u_diag[k];
            self.work2[k] = y;
            if y != 0.0 {
                for &(t, u) in &self.u_cols[k] {
                    self.work2[t] -= u * y;
                }
            }
        }
        // Scatter step space -> basis-position space.
        for k in 0..m {
            out[self.col_at[k]] = self.work2[k];
        }
    }

    /// Solves `Bᵀ·y = c`: `c` indexed by basis position, `y` by original
    /// row. `out` must have length `m`; it is fully overwritten.
    pub fn btran(&mut self, c: &[f64], out: &mut [f64]) {
        let m = self.m;
        // Gather position space -> step space.
        for k in 0..m {
            self.work2[k] = c[self.col_at[k]];
        }
        // Solve Uᵀ·z = c' by forward substitution in step order.
        for k in 0..m {
            let mut acc = self.work2[k];
            for &(t, u) in &self.u_cols[k] {
                acc -= u * self.work2[t];
            }
            self.work2[k] = acc / self.u_diag[k];
        }
        // Solve Lᵀ: scatter to row space, then apply the transposed
        // eliminations in reverse step order.
        for v in out.iter_mut() {
            *v = 0.0;
        }
        for k in 0..m {
            out[self.pivot_row[k]] = self.work2[k];
        }
        for t in (0..m).rev() {
            let mut acc = out[self.pivot_row[t]];
            for &(r, mult) in &self.l_cols[t] {
                acc -= mult * out[r];
            }
            out[self.pivot_row[t]] = acc;
        }
    }

    /// Total stored nonzeros across both triangles (diagnostics).
    pub fn fill(&self) -> usize {
        self.l_cols.iter().map(Vec::len).sum::<usize>()
            + self.u_cols.iter().map(Vec::len).sum::<usize>()
            + self.m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcr_ctx::rng::{Rng, SeedableRng, StdRng};

    /// Factorizes a dense matrix given row-major, for the tests.
    fn factor_dense(a: &[f64], m: usize) -> Option<LuFactors> {
        LuFactors::factorize(m, 1e-12, |j, f| {
            for r in 0..m {
                let v = a[r * m + j];
                if v != 0.0 {
                    f(r, v);
                }
            }
        })
        .ok()
    }

    fn mat_vec(a: &[f64], m: usize, x: &[f64]) -> Vec<f64> {
        (0..m)
            .map(|r| (0..m).map(|c| a[r * m + c] * x[c]).sum())
            .collect()
    }

    fn mat_t_vec(a: &[f64], m: usize, y: &[f64]) -> Vec<f64> {
        (0..m)
            .map(|c| (0..m).map(|r| a[r * m + c] * y[r]).sum())
            .collect()
    }

    #[test]
    fn ftran_btran_match_dense_solves() {
        let m = 4;
        #[rustfmt::skip]
        let a = [
            2.0, 0.0, 1.0, 0.0,
            0.0, -1.0, 0.0, 3.0,
            1.0, 0.0, 0.0, 0.0,
            0.0, 2.0, 0.0, 1.0,
        ];
        let mut lu = factor_dense(&a, m).expect("nonsingular");
        let rhs = [1.0, 2.0, -1.0, 0.5];
        let mut x = vec![0.0; m];
        lu.ftran(&rhs, &mut x);
        let ax = mat_vec(&a, m, &x);
        for (got, want) in ax.iter().zip(&rhs) {
            assert!((got - want).abs() < 1e-12, "{got} != {want}");
        }
        let c = [0.5, -1.0, 2.0, 0.0];
        let mut y = vec![0.0; m];
        lu.btran(&c, &mut y);
        let aty = mat_t_vec(&a, m, &y);
        for (got, want) in aty.iter().zip(&c) {
            assert!((got - want).abs() < 1e-12, "{got} != {want}");
        }
    }

    #[test]
    fn negative_identity_factors() {
        // The slack basis B = −I, the engine's cold start.
        let m = 3;
        let mut lu = LuFactors::factorize(m, 1e-12, |j, f| f(j, -1.0)).unwrap();
        let rhs = [3.0, -1.0, 2.0];
        let mut x = vec![0.0; m];
        lu.ftran(&rhs, &mut x);
        assert_eq!(x, vec![-3.0, 1.0, -2.0]);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let m = 2;
        let a = [1.0, 2.0, 2.0, 4.0];
        assert!(factor_dense(&a, m).is_none());
    }

    /// One product-form eta as a standalone value: the per-eta reference
    /// the flat [`EtaFile`] must reproduce bit for bit.
    struct RefEta {
        r: usize,
        pivot: f64,
        entries: Vec<(usize, f64)>,
    }

    impl RefEta {
        fn new(r: usize, alpha: &[f64]) -> RefEta {
            let entries = alpha
                .iter()
                .enumerate()
                .filter(|&(i, &a)| i != r && a != 0.0)
                .map(|(i, &a)| (i, a))
                .collect();
            RefEta {
                r,
                pivot: alpha[r],
                entries,
            }
        }

        fn apply(&self, v: &mut [f64]) {
            let vr = v[self.r] / self.pivot;
            if vr != 0.0 {
                for &(i, a) in &self.entries {
                    v[i] -= a * vr;
                }
            }
            v[self.r] = vr;
        }

        fn apply_transposed(&self, v: &mut [f64]) {
            let mut acc = v[self.r];
            for &(i, a) in &self.entries {
                acc -= a * v[i];
            }
            v[self.r] = acc / self.pivot;
        }
    }

    #[test]
    fn eta_apply_matches_explicit_pivot() {
        // E from pivoting on position 1 with alpha = [0.5, 2.0, -1.0].
        let mut etas = EtaFile::default();
        etas.push(1, &[0.5, 2.0, -1.0]);
        assert_eq!(etas.nnz(), 3);
        let mut v = [1.0, 4.0, 3.0];
        etas.apply(&mut v);
        // vr = 4/2 = 2; v0 = 1 - 0.5*2 = 0; v2 = 3 + 1*2 = 5.
        assert_eq!(v, [0.0, 2.0, 5.0]);

        // Eᵀ consistency: <E·a, b> == <a, Eᵀ·b> for arbitrary vectors.
        let a = [1.0, -2.0, 0.5];
        let b = [3.0, 1.0, -1.0];
        let mut ea = a;
        etas.apply(&mut ea);
        let mut etb = b;
        etas.apply_transposed(&mut etb);
        let lhs: f64 = ea.iter().zip(&b).map(|(x, y)| x * y).sum();
        let rhs: f64 = a.iter().zip(&etb).map(|(x, y)| x * y).sum();
        assert!((lhs - rhs).abs() < 1e-12);

        // Clearing empties the file: applying it is the identity.
        etas.clear();
        assert_eq!(etas.nnz(), 0);
        let mut w = [1.0, 4.0, 3.0];
        etas.apply(&mut w);
        etas.apply_transposed(&mut w);
        assert_eq!(w, [1.0, 4.0, 3.0]);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn eta_file_matches_per_eta_reference() {
        let mut rng = StdRng::seed_from_u64(20);
        for case in 0..8 {
            let m = rng.gen_range(1..40usize);
            let k = rng.gen_range(1..60usize);
            let mut file = EtaFile::default();
            // Reuse one file across cases: a cleared file must behave
            // like a fresh one.
            if case % 2 == 1 {
                file.push(0, &vec![1.0; m]);
                file.clear();
            }
            let mut reference = Vec::new();
            for _ in 0..k {
                let alpha: Vec<f64> = (0..m)
                    .map(|_| match rng.gen_range(0..5) {
                        0 | 1 => 0.0,
                        2 => 1.0,
                        3 => -0.5,
                        _ => rng.gen_range(-3.0..3.0),
                    })
                    .collect();
                let r = rng.gen_range(0..m);
                let mut alpha = alpha;
                if alpha[r] == 0.0 {
                    alpha[r] = rng.gen_range(0.25..2.0);
                }
                file.push(r, &alpha);
                reference.push(RefEta::new(r, &alpha));
                let want: usize = reference.iter().map(|e| e.entries.len() + 1).sum();
                assert_eq!(file.nnz(), want, "case {case}");
            }
            for _ in 0..6 {
                let v: Vec<f64> = (0..m)
                    .map(|_| {
                        if rng.gen_bool(0.4) {
                            0.0
                        } else {
                            rng.gen_range(-2.0..2.0)
                        }
                    })
                    .collect();
                let mut got = v.clone();
                file.apply(&mut got);
                let mut want = v.clone();
                for eta in &reference {
                    eta.apply(&mut want);
                }
                assert_eq!(bits(&got), bits(&want), "case {case}: ftran");
                let mut got = v.clone();
                file.apply_transposed(&mut got);
                let mut want = v;
                for eta in reference.iter().rev() {
                    eta.apply_transposed(&mut want);
                }
                assert_eq!(bits(&got), bits(&want), "case {case}: btran");
            }
        }
    }

    /// The left-looking factorization as it stood before the reach-ordered
    /// elimination: for every column, a scan of *all* earlier steps. Kept
    /// as the bit-for-bit reference of [`LuFactors::factorize`].
    fn factorize_dense_scan(
        m: usize,
        pivot_tol: f64,
        cols: &[Vec<(usize, f64)>],
    ) -> Result<LuFactors, usize> {
        let mut row_count = vec![0usize; m];
        for c in cols {
            for &(r, _) in c {
                row_count[r] += 1;
            }
        }
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&j| (cols[j].len(), j));
        let mut lu = LuFactors {
            m,
            work: vec![0.0; m],
            work2: vec![0.0; m],
            ..LuFactors::default()
        };
        let mut row_step = vec![usize::MAX; m];
        let mut x = vec![0.0; m];
        let mut touched: Vec<usize> = Vec::new();
        let mut is_touched = vec![false; m];
        for (k, &j) in order.iter().enumerate() {
            for &r in &touched {
                is_touched[r] = false;
            }
            touched.clear();
            for &(r, v) in &cols[j] {
                x[r] = v;
                if !is_touched[r] {
                    is_touched[r] = true;
                    touched.push(r);
                }
            }
            let mut u_col = Vec::new();
            for t in 0..k {
                let xt = x[lu.pivot_row[t]];
                if xt != 0.0 {
                    u_col.push((t, xt));
                    for &(r, mult) in &lu.l_cols[t] {
                        if !is_touched[r] {
                            is_touched[r] = true;
                            touched.push(r);
                        }
                        x[r] -= mult * xt;
                    }
                }
            }
            let mut col_max = 0.0f64;
            for &r in &touched {
                if row_step[r] == usize::MAX {
                    col_max = col_max.max(x[r].abs());
                }
            }
            if col_max < pivot_tol {
                return Err(k);
            }
            let mut pivot: Option<usize> = None;
            for &r in &touched {
                if row_step[r] != usize::MAX || x[r].abs() < PIVOT_THRESHOLD * col_max {
                    continue;
                }
                if pivot.is_none_or(|p| (row_count[r], r) < (row_count[p], p)) {
                    pivot = Some(r);
                }
            }
            let pr = pivot.unwrap();
            let piv = x[pr];
            let mut l_col = Vec::new();
            for &r in &touched {
                if r != pr && row_step[r] == usize::MAX && x[r] != 0.0 {
                    l_col.push((r, x[r] / piv));
                }
            }
            l_col.sort_unstable_by_key(|&(r, _)| r);
            for &r in &touched {
                x[r] = 0.0;
            }
            row_step[pr] = k;
            lu.pivot_row.push(pr);
            lu.l_cols.push(l_col);
            lu.u_cols.push(u_col);
            lu.u_diag.push(piv);
            lu.col_at.push(j);
        }
        Ok(lu)
    }

    fn factor_cols(m: usize, cols: &[Vec<(usize, f64)>]) -> Result<LuFactors, usize> {
        LuFactors::factorize(m, 1e-9, |j, f| {
            for &(r, v) in &cols[j] {
                f(r, v);
            }
        })
    }

    fn entry_bits(cols: &[Vec<(usize, f64)>]) -> Vec<Vec<(usize, u64)>> {
        cols.iter()
            .map(|c| c.iter().map(|&(i, v)| (i, v.to_bits())).collect())
            .collect()
    }

    /// Factorizes `cols` both ways and asserts the factors agree bit for
    /// bit (or both fail at the same step); returns the outcome.
    fn assert_matches_dense_scan(m: usize, cols: &[Vec<(usize, f64)>], what: &str) -> bool {
        match (factor_cols(m, cols), factorize_dense_scan(m, 1e-9, cols)) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.pivot_row, want.pivot_row, "{what}: pivot_row");
                assert_eq!(got.col_at, want.col_at, "{what}: col_at");
                assert_eq!(bits(&got.u_diag), bits(&want.u_diag), "{what}: u_diag");
                assert_eq!(
                    entry_bits(&got.l_cols),
                    entry_bits(&want.l_cols),
                    "{what}: L"
                );
                assert_eq!(
                    entry_bits(&got.u_cols),
                    entry_bits(&want.u_cols),
                    "{what}: U"
                );
                true
            }
            (Err(got), Err(want)) => {
                assert_eq!(got, want, "{what}: singular step");
                false
            }
            (got, want) => panic!(
                "{what}: reach order {:?} but dense scan {:?}",
                got.map(|_| ()),
                want.map(|_| ())
            ),
        }
    }

    /// A seeded sparse basis: a share of slack-like `±1` diagonal columns
    /// over a row permutation, the rest with a few small entries whose
    /// values (mostly `±1`, `2`, `0.5`) make exact cancellations common.
    fn random_basis(rng: &mut StdRng, m: usize) -> Vec<Vec<(usize, f64)>> {
        let mut perm: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let value = |rng: &mut StdRng| match rng.gen_range(0..6) {
            0 | 1 => 1.0,
            2 => -1.0,
            3 => 2.0,
            4 => 0.5,
            _ => rng.gen_range(-2.0..2.0),
        };
        let slack_share = rng.gen_range(0.0..0.9);
        (0..m)
            .map(|j| {
                let mut col = vec![(perm[j], value(rng))];
                if !rng.gen_bool(slack_share) {
                    for _ in 0..rng.gen_range(1..4) {
                        let r = rng.gen_range(0..m);
                        if col.iter().all(|&(s, _)| s != r) {
                            col.push((r, value(rng)));
                        }
                    }
                }
                col
            })
            .collect()
    }

    #[test]
    fn reach_ordered_elimination_matches_the_dense_scan() {
        // The slack basis −I and a permuted, scaled identity.
        let m = 50;
        let slack: Vec<_> = (0..m).map(|j| vec![(j, -1.0)]).collect();
        assert!(assert_matches_dense_scan(m, &slack, "slack basis"));
        let perm: Vec<_> = (0..m)
            .map(|j| vec![((j * 17 + 3) % m, if j % 3 == 0 { 2.0 } else { -1.0 })])
            .collect();
        assert!(assert_matches_dense_scan(m, &perm, "permuted identity"));

        // A fill entry that cancels to exactly 0.0. Step 0 eliminates
        // column 0 on row 0 with L = [(1, 1.0)]; step 1 pivots column 1
        // on row 1. Column 2 reaches step 1 through its own row 1, but
        // step 0's update leaves x[1] = 1 − 1·1 = 0.0 there, so step 1
        // contributes no U entry.
        let cancel = vec![
            vec![(0, 1.0), (1, 1.0)],
            vec![(1, 1.0), (2, 0.05)],
            vec![(0, 1.0), (1, 1.0), (2, 1.0)],
        ];
        assert!(assert_matches_dense_scan(3, &cancel, "cancellation"));
        let lu = factor_cols(3, &cancel).unwrap();
        assert_eq!(lu.pivot_row, vec![0, 1, 2]);
        assert_eq!(lu.u_cols[2], vec![(0, 1.0)]);

        // A singular basis: column 3 is the sum of columns 1 and 2.
        let singular = vec![
            vec![(0, -1.0)],
            vec![(1, 1.0), (2, 2.0)],
            vec![(2, 1.0), (3, -1.0)],
            vec![(1, 1.0), (2, 3.0), (3, -1.0)],
        ];
        assert!(!assert_matches_dense_scan(4, &singular, "singular"));
        assert_eq!(factor_cols(4, &singular).err(), Some(3));

        // Seeded random bases, nonsingular and singular.
        let mut rng = StdRng::seed_from_u64(2020);
        let (mut ok, mut failed) = (0, 0);
        for case in 0..400 {
            let m = rng.gen_range(1..60usize);
            let mut cols = random_basis(&mut rng, m);
            if m > 1 && rng.gen_bool(0.3) {
                // A scaled copy of another column makes the basis singular.
                let (from, to) = (rng.gen_range(0..m), rng.gen_range(0..m));
                if from != to {
                    cols[to] = cols[from].iter().map(|&(r, v)| (r, -2.0 * v)).collect();
                }
            }
            if assert_matches_dense_scan(m, &cols, &format!("random case {case}")) {
                ok += 1;
            } else {
                failed += 1;
            }
        }
        assert!(
            ok > 50 && failed > 50,
            "{ok} nonsingular, {failed} singular"
        );
    }

    #[test]
    fn factorization_is_deterministic() {
        let m = 5;
        let mut a = vec![0.0; m * m];
        // A seeded sparse-ish matrix with ties in magnitudes.
        let mut s = 12345u64;
        for r in 0..m {
            for c in 0..m {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if s.is_multiple_of(3) || r == c {
                    a[r * m + c] = ((s >> 33) % 7) as f64 - 3.0;
                }
            }
            if a[r * m + r] == 0.0 {
                a[r * m + r] = 1.0;
            }
        }
        let lu1 = factor_dense(&a, m).unwrap();
        let lu2 = factor_dense(&a, m).unwrap();
        assert_eq!(lu1.pivot_row, lu2.pivot_row);
        assert_eq!(lu1.col_at, lu2.col_at);
        assert_eq!(lu1.fill(), lu2.fill());
    }
}
