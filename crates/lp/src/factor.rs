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
//! * Reach indices, built with the factors in `O(m + nnz)`: `row_step`
//!   and `pos_step` (the step of each row and of each basis position),
//!   `u_rows[t]` (the steps whose U column lists `t`), `l_rows[s]` (the
//!   steps whose L column lists `pivot_row[s]`), and the signed-zero
//!   template `zero_out[col_at[k]] = 0.0 / u_diag[k]`.
//!
//! `ftran` solves `B·x = a` (row-space input, position-space output);
//! `btran` solves `Bᵀ·y = c` (position-space input, row-space output).
//! Both visit every step; the `L`-forward pass skips steps whose pivot
//! entry is exactly zero.
//!
//! The simplex's pivot column and Devex row have a few nonzeros each, so
//! their solves, `ftran_sparse` and `btran_sparse`, are *hypersparse*
//! (Hall–McKinnon): they visit only the steps the right-hand side's
//! nonzeros reach, popped from a heap in the dense loops' order.
//!
//! * **ftran, bit-identical for any input.** The L pass pops ascending
//!   and the U pass descending, so every reached value sees the same
//!   updates in the same order. A step outside the reach holds `+0.0` in
//!   the dense loops, which skip it; its U division still leaves `0.0 /
//!   u_diag`, `-0.0` under a negative diagonal, which is the template's
//!   value at that position.
//! * **btran, for the Devex row.** The Uᵀ pass pops ascending and the Lᵀ
//!   pass descending; a reached step gathers its whole stored column in
//!   order. The dense loops add the same nonzero terms in the same order,
//!   plus `±0.0` products that move no nonzero sum, so the result has the
//!   dense zero pattern and bits at every nonzero. Only a zero's sign may
//!   differ. The pricing duals keep the dense btran, so the reported duals
//!   stay bit-identical.

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
    /// column `alpha` (position space), given the ascending positions `nz`
    /// of its nonzeros: it stores every nonzero `alpha[i]`, `i ≠ r`, in
    /// ascending position.
    pub fn push(&mut self, r: usize, alpha: &[f64], nz: &[u32]) {
        assert!(u32::try_from(alpha.len()).is_ok(), "positions fit in u32");
        for &i in nz {
            if i as usize != r {
                self.pos.push(i);
                self.val.push(alpha[i as usize]);
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

    /// Basis position of each eta, oldest first.
    pub fn positions(&self) -> &[usize] {
        &self.r
    }

    /// Applies `E_K ⋯ E_1 · v` in place (ftran direction): each eta in
    /// ascending order, `v` in position space.
    pub fn apply(&self, v: &mut [f64]) {
        self.apply_tracked(v, |_| {});
    }

    /// [`EtaFile::apply`], calling `touch(i)` whenever it updates a
    /// position `i` that holds a zero. So every position it leaves
    /// nonzero was nonzero on entry or went through `touch` (maybe more
    /// than once). An eta's own position `r` turns nonzero only from a
    /// nonzero `v[r]`.
    pub fn apply_tracked<F: FnMut(usize)>(&self, v: &mut [f64], mut touch: F) {
        for e in 0..self.r.len() {
            let r = self.r[e];
            let vr = v[r] / self.pivot[e];
            if vr != 0.0 {
                let span = self.start[e]..self.start[e + 1];
                for (&i, &a) in self.pos[span.clone()].iter().zip(&self.val[span]) {
                    let vi = &mut v[i as usize];
                    if *vi == 0.0 {
                        touch(i as usize);
                    }
                    *vi -= a * vr;
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

/// Per-step lists of steps in one compressed store: list `i` is
/// `step[start[i]..start[i + 1]]`.
#[derive(Clone, Debug, Default)]
struct StepLists {
    start: Vec<u32>,
    step: Vec<u32>,
}

impl StepLists {
    /// Lists over `m` owners from `(owner, step)` pairs.
    fn build<I: Iterator<Item = (usize, usize)> + Clone>(m: usize, pairs: I) -> StepLists {
        let mut start = vec![0u32; m + 1];
        for (i, _) in pairs.clone() {
            start[i + 1] += 1;
        }
        for i in 0..m {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        let mut step = vec![0u32; start[m] as usize];
        for (i, s) in pairs {
            step[next[i] as usize] = s as u32;
            next[i] += 1;
        }
        StepLists { start, step }
    }

    fn of(&self, i: usize) -> &[u32] {
        &self.step[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// Scratch of the hypersparse solves. Between solves `z` is all `+0.0`,
/// `queued` all `false` and both heaps are empty.
#[derive(Clone, Debug, Default)]
struct Reach {
    /// Step-space values of the solve in progress.
    z: Vec<f64>,
    queued: Vec<bool>,
    /// Reached steps, popped ascending.
    up: BinaryHeap<Reverse<u32>>,
    /// Reached steps, popped descending.
    down: BinaryHeap<u32>,
    /// Steps reached by the first pass of the solve in progress.
    steps: Vec<u32>,
}

impl Reach {
    fn push_up(&mut self, s: usize) {
        if !self.queued[s] {
            self.queued[s] = true;
            self.up.push(Reverse(s as u32));
        }
    }

    fn push_down(&mut self, s: usize) {
        if !self.queued[s] {
            self.queued[s] = true;
            self.down.push(s as u32);
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
    /// Step at which each original row is pivotal (inverse of `pivot_row`).
    row_step: Vec<u32>,
    /// Step at which each basis position is eliminated (inverse of
    /// `col_at`).
    pos_step: Vec<u32>,
    /// Per step `t`, the steps whose U column lists `t`.
    u_rows: StepLists,
    /// Per step `s`, the steps whose L column lists `pivot_row[s]`.
    l_rows: StepLists,
    /// What the dense ftran leaves at each basis position its U pass never
    /// reaches: `0.0 / u_diag`, so `-0.0` where the diagonal is negative.
    zero_out: Vec<f64>,
    /// Dense workspace reused across solves (row or position space).
    work: Vec<f64>,
    /// Second workspace for the two-stage solves.
    work2: Vec<f64>,
    /// Scratch of the hypersparse solves.
    reach: Reach,
    /// Positions (after an ftran) or rows (after a btran) that the last
    /// hypersparse solve left nonzero, unsorted.
    nz: Vec<u32>,
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
        assert!(u32::try_from(m).is_ok(), "steps fit in u32");
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
            ..LuFactors::default()
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
        lu.build_reach_indices(&row_step);
        Ok(lu)
    }

    /// Builds the indices the hypersparse solves walk: the inverse step
    /// maps, the transposed U and L patterns and the signed-zero template,
    /// in `O(m + nnz)`.
    fn build_reach_indices(&mut self, row_step: &[usize]) {
        let m = self.m;
        self.row_step = row_step.iter().map(|&s| s as u32).collect();
        self.pos_step = vec![0; m];
        self.zero_out = vec![0.0; m];
        for k in 0..m {
            self.pos_step[self.col_at[k]] = k as u32;
            self.zero_out[self.col_at[k]] = 0.0 / self.u_diag[k];
        }
        let u_cols = &self.u_cols;
        self.u_rows = StepLists::build(
            m,
            (0..m).flat_map(|k| u_cols[k].iter().map(move |&(t, _)| (t, k))),
        );
        let l_cols = &self.l_cols;
        self.l_rows = StepLists::build(
            m,
            (0..m).flat_map(|t| l_cols[t].iter().map(move |&(r, _)| (row_step[r], t))),
        );
        self.reach = Reach {
            z: vec![0.0; m],
            queued: vec![false; m],
            ..Reach::default()
        };
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

    /// [`LuFactors::ftran`] of the vector that `(rows[i], vals[i])` sum to
    /// in order from all `+0.0` (a row may repeat), visiting only the
    /// steps its nonzeros reach. [`LuFactors::nonzeros`] then lists every
    /// position it left nonzero.
    pub fn ftran_sparse(&mut self, rows: &[u32], vals: &[f64], out: &mut [f64]) {
        for (&r, &v) in rows.iter().zip(vals) {
            let s = self.row_step[r as usize] as usize;
            self.reach.z[s] += v;
            self.reach.push_up(s);
        }
        self.ftran_reach(out);
        #[cfg(debug_assertions)]
        {
            let mut a = vec![0.0; self.m];
            for (&r, &v) in rows.iter().zip(vals) {
                a[r as usize] += v;
            }
            let mut want = vec![0.0; self.m];
            self.ftran(&a, &mut want);
            for (p, (g, w)) in out.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "hypersparse ftran differs from the dense solve at position {p}: {g:e} vs {w:e}"
                );
            }
        }
    }

    /// Positions (after [`LuFactors::ftran_sparse`]) or rows (after
    /// [`LuFactors::btran_sparse`]) the last hypersparse solve left
    /// nonzero, unsorted. Every other entry of its result is zero.
    pub fn nonzeros(&self) -> &[u32] {
        &self.nz
    }

    /// The ftran of the right-hand side seeded into `reach` (its steps
    /// queued on `up`), visiting only the steps it reaches. The L pass
    /// pops them ascending and the U pass descending, which is the order
    /// of the dense loops; every step the dense loops visit but the reach
    /// does not holds `+0.0` there, which they skip, so `out` equals the
    /// dense result bit for bit once each unreached position holds
    /// `zero_out`.
    fn ftran_reach(&mut self, out: &mut [f64]) {
        let reach = &mut self.reach;
        self.nz.clear();
        while let Some(Reverse(t)) = reach.up.pop() {
            let t = t as usize;
            reach.queued[t] = false;
            reach.steps.push(t as u32);
            let v = reach.z[t];
            if v != 0.0 {
                for &(r, mult) in &self.l_cols[t] {
                    let s = self.row_step[r] as usize;
                    reach.z[s] -= mult * v;
                    reach.push_up(s);
                }
            }
        }
        // A U column only lists earlier steps, so the pops come out
        // strictly descending.
        for i in 0..reach.steps.len() {
            let s = reach.steps[i] as usize;
            reach.push_down(s);
        }
        reach.steps.clear();
        out[..self.m].copy_from_slice(&self.zero_out);
        while let Some(k) = reach.down.pop() {
            let k = k as usize;
            reach.queued[k] = false;
            let y = reach.z[k] / self.u_diag[k];
            reach.z[k] = 0.0;
            out[self.col_at[k]] = y;
            if y != 0.0 {
                self.nz.push(self.col_at[k] as u32);
                for &(t, u) in &self.u_cols[k] {
                    reach.z[t] -= u * y;
                    reach.push_down(t);
                }
            }
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

    /// [`LuFactors::btran`] of a `c` that is zero at every position
    /// `support` does not list (repeats allowed), visiting only the steps
    /// its nonzeros reach. [`LuFactors::nonzeros`] then lists the rows it
    /// left nonzero.
    ///
    /// `out` has `btran`'s zero pattern and its bits at every nonzero;
    /// only the sign of a zero may differ. A reached step gathers its
    /// whole stored column in order, so its nonzero terms come in the
    /// dense order; the terms the dense loop adds on top are `±0.0`
    /// products, which move no nonzero sum.
    pub fn btran_sparse<I: IntoIterator<Item = usize>>(
        &mut self,
        c: &[f64],
        support: I,
        out: &mut [f64],
    ) {
        for p in support {
            if c[p] != 0.0 {
                let s = self.pos_step[p] as usize;
                self.reach.z[s] = c[p];
                self.reach.push_up(s);
            }
        }
        self.btran_reach(out);
        #[cfg(debug_assertions)]
        {
            let mut want = vec![0.0; self.m];
            self.btran(c, &mut want);
            for (r, (g, w)) in out.iter().zip(&want).enumerate() {
                assert!(
                    (*g == 0.0 && *w == 0.0) || g.to_bits() == w.to_bits(),
                    "hypersparse btran differs from the dense solve at row {r}: {g:e} vs {w:e}"
                );
            }
        }
    }

    /// The btran of the right-hand side seeded into `reach` (its steps
    /// queued on `up`), visiting only the steps it reaches.
    fn btran_reach(&mut self, out: &mut [f64]) {
        let reach = &mut self.reach;
        self.nz.clear();
        // Uᵀ: a step's column lists only earlier steps, and the steps
        // listing it come later, so the pops come out strictly ascending.
        while let Some(Reverse(k)) = reach.up.pop() {
            let k = k as usize;
            reach.queued[k] = false;
            let mut acc = reach.z[k];
            for &(t, u) in &self.u_cols[k] {
                acc -= u * reach.z[t];
            }
            let zk = acc / self.u_diag[k];
            if zk != 0.0 {
                reach.z[k] = zk;
                reach.steps.push(k as u32);
                for &k2 in self.u_rows.of(k) {
                    reach.push_up(k2 as usize);
                }
            } else {
                reach.z[k] = 0.0;
            }
        }
        // Lᵀ in row space, descending.
        out[..self.m].fill(0.0);
        for i in 0..reach.steps.len() {
            let k = reach.steps[i] as usize;
            out[self.pivot_row[k]] = reach.z[k];
            reach.z[k] = 0.0;
            reach.push_down(k);
        }
        reach.steps.clear();
        while let Some(t) = reach.down.pop() {
            let t = t as usize;
            reach.queued[t] = false;
            let pr = self.pivot_row[t];
            let mut acc = out[pr];
            for &(r, mult) in &self.l_cols[t] {
                acc -= mult * out[r];
            }
            out[pr] = acc;
            if acc != 0.0 {
                self.nz.push(pr as u32);
                for &t2 in self.l_rows.of(t) {
                    reach.push_down(t2 as usize);
                }
            }
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
        etas.push(1, &[0.5, 2.0, -1.0], &[0, 1, 2]);
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

    /// Ascending positions of `v`'s nonzeros.
    fn nonzeros(v: &[f64]) -> Vec<u32> {
        (0..v.len() as u32)
            .filter(|&i| v[i as usize] != 0.0)
            .collect()
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
                file.push(0, &vec![1.0; m], &nonzeros(&vec![1.0; m]));
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
                file.push(r, &alpha, &nonzeros(&alpha));
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

    /// `count` seeded etas over `m` positions: sparse columns whose
    /// values (mostly `±1`, `2`, `0.5`) make exact cancellations common,
    /// each with a nonzero pivot.
    fn random_etas(rng: &mut StdRng, m: usize, count: usize) -> EtaFile {
        let mut file = EtaFile::default();
        for _ in 0..count {
            let mut alpha = vec![0.0; m];
            for _ in 0..rng.gen_range(0..4) {
                alpha[rng.gen_range(0..m)] = match rng.gen_range(0..4) {
                    0 => 1.0,
                    1 => -1.0,
                    2 => 0.5,
                    _ => rng.gen_range(-2.0..2.0),
                };
            }
            let r = rng.gen_range(0..m);
            if alpha[r] == 0.0 {
                alpha[r] = if rng.gen_bool(0.5) { 2.0 } else { -1.0 };
            }
            file.push(r, &alpha, &nonzeros(&alpha));
        }
        file
    }

    #[test]
    fn hypersparse_solves_match_the_dense_ones() {
        let mut rng = StdRng::seed_from_u64(2205);
        let value = |rng: &mut StdRng| match rng.gen_range(0..6) {
            0 => 1.0,
            1 => -1.0,
            2 => -0.0,
            3 => 0.5,
            _ => rng.gen_range(-2.0..2.0),
        };
        let (mut solves, mut negative_zeros, mut negative_diags) = (0, 0, 0);
        for case in 0..300 {
            let m = rng.gen_range(1..70usize);
            let Ok(mut lu) = factor_cols(m, &random_basis(&mut rng, m)) else {
                continue;
            };
            negative_diags += lu.u_diag.iter().filter(|&&d| d < 0.0).count();
            let count = rng.gen_range(0..=20);
            let etas = random_etas(&mut rng, m, count);
            for round in 0..4 {
                let what = format!("case {case}, round {round}");
                // A right-hand side of a few entries: repeated rows, and
                // `-0.0` or `(v, −v)` pairs that sum to a zero.
                let mut rows = Vec::new();
                let mut vals = Vec::new();
                for _ in 0..rng.gen_range(0..4) {
                    let (r, v) = (rng.gen_range(0..m), value(&mut rng));
                    rows.push(r as u32);
                    vals.push(v);
                    if rng.gen_bool(0.2) {
                        rows.push(r as u32);
                        vals.push(-v);
                    }
                }
                let mut dense_rhs = vec![0.0; m];
                for (&r, &v) in rows.iter().zip(&vals) {
                    dense_rhs[r as usize] += v;
                }
                let mut want = vec![f64::NAN; m];
                lu.ftran(&dense_rhs, &mut want);
                etas.apply(&mut want);
                negative_zeros += want
                    .iter()
                    .filter(|x| x.to_bits() == (-0.0f64).to_bits())
                    .count();
                let mut got = vec![f64::NAN; m];
                lu.ftran_sparse(&rows, &vals, &mut got);
                let mut pattern = lu.nonzeros().to_vec();
                etas.apply_tracked(&mut got, |i| pattern.push(i as u32));
                assert_eq!(bits(&got), bits(&want), "{what}: ftran_sparse");
                for (i, &x) in got.iter().enumerate() {
                    assert!(
                        x == 0.0 || pattern.contains(&(i as u32)),
                        "{what}: pattern misses {i}"
                    );
                }

                // The Devex row: e_r through the eta transposes, then Bᵀ.
                let r = rng.gen_range(0..m);
                let mut c = vec![0.0; m];
                c[r] = 1.0;
                etas.apply_transposed(&mut c);
                let mut want = vec![f64::NAN; m];
                lu.btran(&c, &mut want);
                let mut got = vec![f64::NAN; m];
                let support = std::iter::once(r).chain(etas.positions().iter().copied());
                lu.btran_sparse(&c, support, &mut got);
                for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g == 0.0, w == 0.0, "{what}: btran zero pattern at {i}");
                    if w != 0.0 {
                        assert_eq!(g.to_bits(), w.to_bits(), "{what}: btran at {i}");
                    }
                    assert_eq!(
                        g != 0.0,
                        lu.nonzeros().contains(&(i as u32)),
                        "{what}: btran rows"
                    );
                }
                solves += 1;
            }
        }
        // The battery reaches what it is for: the solves over a reach,
        // negative diagonals and the `-0.0` they leave behind.
        assert!(solves > 600, "{solves} solves");
        assert!(
            negative_diags > 100,
            "{negative_diags} negative U diagonals"
        );
        assert!(negative_zeros > 100, "{negative_zeros} -0.0 outputs");
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
