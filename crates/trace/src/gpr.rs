//! Exact Gaussian-process regression with the paper's kernel family
//! (white noise + periodic + RBF) and log-marginal-likelihood
//! hyperparameter selection — a from-scratch stand-in for the
//! scikit-learn GPR the paper uses to predict next-hour demand (§6,
//! Fig. 4).
//!
//! Targets are standardized internally; inputs are time stamps in hours.

/// Kernel hyperparameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Kernel {
    /// RBF variance.
    pub rbf_var: f64,
    /// RBF length scale (hours).
    pub rbf_len: f64,
    /// Periodic-kernel variance.
    pub per_var: f64,
    /// Periodic length scale.
    pub per_len: f64,
    /// Period (hours); the diurnal cycle is 24.
    pub period: f64,
    /// White-noise variance.
    pub noise_var: f64,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel {
            rbf_var: 0.5,
            rbf_len: 20.0,
            per_var: 0.5,
            per_len: 1.0,
            period: 24.0,
            noise_var: 0.05,
        }
    }
}

impl Kernel {
    /// Covariance between time stamps `a` and `b` (noise excluded).
    pub fn eval(&self, a: f64, b: f64) -> f64 {
        let d = a - b;
        let rbf = self.rbf_var * (-d * d / (2.0 * self.rbf_len * self.rbf_len)).exp();
        let s = (std::f64::consts::PI * d / self.period).sin();
        let per = self.per_var * (-2.0 * s * s / (self.per_len * self.per_len)).exp();
        rbf + per
    }
}

/// A fitted Gaussian-process regressor.
#[derive(Clone, Debug)]
pub struct Gpr {
    kernel: Kernel,
    times: Vec<f64>,
    /// `K⁻¹ (y − μ)` via Cholesky.
    alpha: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    log_marginal: f64,
}

/// Errors from GPR fitting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GprError {
    /// Fewer than two observations.
    TooFewObservations,
    /// The kernel matrix was not positive definite.
    NotPositiveDefinite,
}

impl std::fmt::Display for GprError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GprError::TooFewObservations => write!(f, "need at least two observations"),
            GprError::NotPositiveDefinite => write!(f, "kernel matrix not positive definite"),
        }
    }
}

impl std::error::Error for GprError {}

/// The hyperparameter grid [`Gpr::fit_grid`] and [`rolling_forecast`]
/// search, in search order: RBF length scale, then periodic length
/// scale, then noise variance.
const GRID: [Kernel; 12] = [
    grid_kernel(10.0, 0.6, 0.01),
    grid_kernel(10.0, 0.6, 0.1),
    grid_kernel(10.0, 1.2, 0.01),
    grid_kernel(10.0, 1.2, 0.1),
    grid_kernel(40.0, 0.6, 0.01),
    grid_kernel(40.0, 0.6, 0.1),
    grid_kernel(40.0, 1.2, 0.01),
    grid_kernel(40.0, 1.2, 0.1),
    grid_kernel(150.0, 0.6, 0.01),
    grid_kernel(150.0, 0.6, 0.1),
    grid_kernel(150.0, 1.2, 0.01),
    grid_kernel(150.0, 1.2, 0.1),
];

const fn grid_kernel(rbf_len: f64, per_len: f64, noise_var: f64) -> Kernel {
    Kernel {
        rbf_var: 0.5,
        rbf_len,
        per_var: 0.5,
        per_len,
        period: 24.0,
        noise_var,
    }
}

impl Gpr {
    /// Fits a GP with fixed hyperparameters to observations
    /// `(times[i], values[i])`.
    ///
    /// # Errors
    ///
    /// [`GprError`] on degenerate inputs.
    pub fn fit(kernel: Kernel, times: &[f64], values: &[f64]) -> Result<Self, GprError> {
        Gpr::fit_best(&[kernel], times, values)
    }

    /// Fits with a small grid search over hyperparameters, keeping the
    /// maximum log-marginal-likelihood model (the paper's "maximum
    /// marginal likelihood fitting").
    ///
    /// # Errors
    ///
    /// [`GprError::TooFewObservations`] on fewer than two observations;
    /// [`GprError::NotPositiveDefinite`] if every candidate fails.
    pub fn fit_grid(times: &[f64], values: &[f64]) -> Result<Self, GprError> {
        Gpr::fit_best(&GRID, times, values)
    }

    /// The maximum log-marginal-likelihood fit over `kernels`; the first
    /// of equal maxima wins.
    fn fit_best(kernels: &[Kernel], times: &[f64], values: &[f64]) -> Result<Self, GprError> {
        let n = times.len();
        if n < 2 || values.len() != n {
            return Err(GprError::TooFewObservations);
        }
        let mut best: Option<Gpr> = None;
        for kernel in kernels {
            let mut l = kernel_matrix(kernel, times);
            if cholesky(&mut l, n) {
                if let Some(model) = Gpr::from_factor(*kernel, times, values, &l, best.as_ref()) {
                    best = Some(model);
                }
            }
        }
        best.ok_or(GprError::NotPositiveDefinite)
    }

    /// Fits `values` at `times` given the Cholesky factor `l` of
    /// `kernel`'s matrix over `times`, unless `incumbent` has at least
    /// the same log marginal likelihood; the back substitution runs only
    /// for a model that wins.
    fn from_factor(
        kernel: Kernel,
        times: &[f64],
        values: &[f64],
        l: &[f64],
        incumbent: Option<&Gpr>,
    ) -> Option<Self> {
        let n = times.len();
        let y_mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - y_mean).powi(2)).sum::<f64>() / n as f64;
        let y_std = var.sqrt().max(1e-12);
        // alpha = L⁻ᵀ L⁻¹ y.
        let mut alpha: Vec<f64> = values.iter().map(|v| (v - y_mean) / y_std).collect();
        forward_solve(l, n, &mut alpha);
        let mut log_det = 0.0;
        for i in 0..n {
            log_det += l[i * n + i].ln();
        }
        // log ML before back substitution: −½‖L⁻¹y‖² − Σ log L_ii − n/2·log 2π.
        let log_marginal = -0.5 * alpha.iter().map(|a| a * a).sum::<f64>()
            - log_det
            - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
        if !incumbent.is_none_or(|b| log_marginal > b.log_marginal) {
            return None;
        }
        backward_solve(l, n, &mut alpha);
        Some(Gpr {
            kernel,
            times: times.to_vec(),
            alpha,
            y_mean,
            y_std,
            log_marginal,
        })
    }

    /// Posterior-mean prediction at time `t`.
    pub fn predict(&self, t: f64) -> f64 {
        let k_star: f64 = self
            .times
            .iter()
            .zip(&self.alpha)
            .map(|(&ti, &a)| self.kernel.eval(t, ti) * a)
            .sum();
        self.y_mean + self.y_std * k_star
    }

    /// Log marginal likelihood of the fitted model (standardized targets).
    pub fn log_marginal(&self) -> f64 {
        self.log_marginal
    }

    /// The kernel used by the fitted model.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }
}

/// The lower triangle of `K + (σ_n² + 10⁻¹⁰) I` over `times`, row-major
/// `n × n`; the upper triangle stays zero.
fn kernel_matrix(kernel: &Kernel, times: &[f64]) -> Vec<f64> {
    let n = times.len();
    let mut k = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut v = kernel.eval(times[i], times[j]);
            if i == j {
                v += kernel.noise_var + 1e-10;
            }
            k[i * n + j] = v;
        }
    }
    k
}

/// Overwrites the lower triangle of `a` with its Cholesky factor `L`;
/// `false` if `a` is not positive definite.
fn cholesky(a: &mut [f64], n: usize) -> bool {
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j];
            for k in 0..j {
                sum -= a[i * n + k] * a[j * n + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return false;
                }
                a[i * n + j] = sum.sqrt();
            } else {
                a[i * n + j] = sum / a[j * n + j];
            }
        }
    }
    true
}

/// Solves `L x = b` in place.
fn forward_solve(l: &[f64], n: usize, b: &mut [f64]) {
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[i * n + k] * b[k];
        }
        b[i] = sum / l[i * n + i];
    }
}

/// Solves `Lᵀ x = b` in place.
fn backward_solve(l: &[f64], n: usize, b: &mut [f64]) {
    for i in (0..n).rev() {
        let mut sum = b[i];
        for k in i + 1..n {
            sum -= l[k * n + i] * b[k];
        }
        b[i] = sum / l[i * n + i];
    }
}

/// One refit of one series: fit on `series[start..end]`.
struct Refit {
    series: usize,
    start: usize,
    end: usize,
}

/// Rolling next-hour prediction over an evaluation window, refitting every
/// `refit_every` hours (the paper refits every 5 hours, footnote 6), for
/// every series at once.
///
/// Each series holds training history followed by `eval_hours` evaluation
/// points; returns one prediction per evaluation hour per series. The
/// model only ever sees observations strictly before the hour it
/// predicts. `window` caps the history length used for fitting (most
/// recent points). Each refit is [`Gpr::fit_grid`] on its window, with
/// the same result bit for bit.
///
/// The kernel depends only on the lag between two time stamps, and window
/// times are consecutive integers, so the kernel matrix of every window of
/// length `n` equals the one over `0..n`. The loop therefore runs kernel
/// by kernel, factors that matrix once, and scores every refit of that
/// length against it; only one factor is alive at a time.
///
/// # Errors
///
/// The [`GprError`] of the first failing refit, in series then hour order.
///
/// # Panics
///
/// Panics if `refit_every` is zero or a series is not longer than
/// `eval_hours`.
pub fn rolling_forecast(
    series: &[&[f64]],
    eval_hours: usize,
    refit_every: usize,
    window: usize,
) -> Result<Vec<Vec<f64>>, GprError> {
    assert!(refit_every >= 1);
    let mut refits = Vec::new();
    for (si, s) in series.iter().enumerate() {
        assert!(eval_hours < s.len(), "series too short");
        let train_len = s.len() - eval_hours;
        for h in (0..eval_hours).step_by(refit_every) {
            let end = train_len + h;
            refits.push(Refit {
                series: si,
                start: end.saturating_sub(window),
                end,
            });
        }
    }

    let mut best: Vec<Option<Gpr>> = vec![None; refits.len()];
    for kernel in &GRID {
        // `kernel`'s factor over `0..factor_len`; `None` if not positive
        // definite. Every refit has at least two points, so 0 means none yet.
        let mut factor_len = 0;
        let mut factor: Option<Vec<f64>> = None;
        for (r, slot) in refits.iter().zip(&mut best) {
            let n = r.end - r.start;
            if n < 2 {
                continue;
            }
            if n != factor_len {
                // Drop the old factor before building the new one.
                drop(factor.take());
                let lags: Vec<f64> = (0..n).map(|t| t as f64).collect();
                let mut l = kernel_matrix(kernel, &lags);
                factor = cholesky(&mut l, n).then_some(l);
                factor_len = n;
            }
            let Some(l) = &factor else {
                continue;
            };
            let times: Vec<f64> = (r.start..r.end).map(|t| t as f64).collect();
            let values = &series[r.series][r.start..r.end];
            if let Some(model) = Gpr::from_factor(*kernel, &times, values, l, slot.as_ref()) {
                *slot = Some(model);
            }
        }
    }

    let mut predictions: Vec<Vec<f64>> = series
        .iter()
        .map(|_| Vec::with_capacity(eval_hours))
        .collect();
    for (r, slot) in refits.iter().zip(&best) {
        if r.end - r.start < 2 {
            return Err(GprError::TooFewObservations);
        }
        let model = slot.as_ref().ok_or(GprError::NotPositiveDefinite)?;
        let out = &mut predictions[r.series];
        let train_len = series[r.series].len() - eval_hours;
        let until = (out.len() + refit_every).min(eval_hours);
        for h in out.len()..until {
            out.push(model.predict((train_len + h) as f64).max(0.0));
        }
    }
    Ok(predictions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_smooth_function() {
        let times: Vec<f64> = (0..48).map(|t| t as f64).collect();
        let values: Vec<f64> = times
            .iter()
            .map(|t| 10.0 + 3.0 * (2.0 * std::f64::consts::PI * t / 24.0).sin())
            .collect();
        let model = Gpr::fit(Kernel::default(), &times, &values).unwrap();
        // In-sample prediction close to truth.
        for (&t, &v) in times.iter().zip(&values) {
            assert!((model.predict(t) - v).abs() < 0.5, "t={t}");
        }
        // One-step extrapolation continues the cycle.
        let t = 48.0;
        let truth = 10.0 + 3.0 * (2.0 * std::f64::consts::PI * t / 24.0).sin();
        assert!((model.predict(t) - truth).abs() < 1.0);
    }

    #[test]
    fn grid_prefers_better_likelihood() {
        let times: Vec<f64> = (0..72).map(|t| t as f64).collect();
        let values: Vec<f64> = times
            .iter()
            .map(|t| (2.0 * std::f64::consts::PI * t / 24.0).sin())
            .collect();
        let fixed = Gpr::fit(
            Kernel {
                noise_var: 1.0,
                ..Kernel::default()
            },
            &times,
            &values,
        )
        .unwrap();
        let grid = Gpr::fit_grid(&times, &values).unwrap();
        assert!(grid.log_marginal() >= fixed.log_marginal());
    }

    #[test]
    fn kernel_is_symmetric_positive_and_periodic() {
        let k = Kernel::default();
        for (a, b) in [(0.0, 5.0), (3.0, 100.0), (-2.0, 7.5)] {
            assert!((k.eval(a, b) - k.eval(b, a)).abs() < 1e-15, "symmetry");
            assert!(k.eval(a, b) > 0.0, "positivity for the sum kernel");
            assert!(k.eval(a, a) >= k.eval(a, b), "diagonal dominance");
        }
        // The periodic component repeats every `period` hours: at lag 24
        // the periodic part is maximal again (only the RBF decays).
        let no_rbf = Kernel {
            rbf_var: 0.0,
            ..Kernel::default()
        };
        assert!((no_rbf.eval(0.0, 24.0) - no_rbf.eval(0.0, 0.0)).abs() < 1e-12);
        assert!(no_rbf.eval(0.0, 12.0) < no_rbf.eval(0.0, 24.0));
    }

    #[test]
    fn constant_series_predicts_the_constant() {
        let times: Vec<f64> = (0..30).map(|t| t as f64).collect();
        let values = vec![42.0; 30];
        let model = Gpr::fit(Kernel::default(), &times, &values).unwrap();
        assert!((model.predict(30.0) - 42.0).abs() < 1e-6);
        assert!((model.predict(15.5) - 42.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_tiny_input() {
        assert_eq!(
            Gpr::fit(Kernel::default(), &[0.0], &[1.0]).unwrap_err(),
            GprError::TooFewObservations
        );
    }

    /// The per-series loop `rolling_forecast` replaced: a fresh
    /// [`Gpr::fit_grid`] on every refit's window.
    fn reference_forecast(
        series: &[f64],
        eval_hours: usize,
        refit_every: usize,
        window: usize,
    ) -> Result<Vec<f64>, GprError> {
        let train_len = series.len() - eval_hours;
        let mut predictions = Vec::with_capacity(eval_hours);
        let mut model: Option<Gpr> = None;
        for h in 0..eval_hours {
            if h % refit_every == 0 {
                let end = train_len + h;
                let start = end.saturating_sub(window);
                let times: Vec<f64> = (start..end).map(|t| t as f64).collect();
                model = Some(Gpr::fit_grid(&times, &series[start..end])?);
            }
            let fitted = model.as_ref().expect("hour 0 fits");
            predictions.push(fitted.predict((train_len + h) as f64).max(0.0));
        }
        Ok(predictions)
    }

    /// Noisy diurnal series of the given lengths, one phase per series.
    fn periodic_series(lengths: &[usize], seed: u64) -> Vec<Vec<f64>> {
        use crate::standard_normal;
        use jcr_ctx::rng::SeedableRng;
        let mut rng = jcr_ctx::rng::StdRng::seed_from_u64(seed);
        lengths
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                (0..n)
                    .map(|t| {
                        let phase = 2.0 * std::f64::consts::PI * (t + 5 * i) as f64 / 24.0;
                        50.0 * (i + 1) as f64 + 20.0 * phase.sin() + 3.0 * standard_normal(&mut rng)
                    })
                    .collect()
            })
            .collect()
    }

    /// Asserts the shared-factor forecast equals the per-series reference
    /// bit for bit, errors included.
    fn assert_matches_reference(
        series: &[Vec<f64>],
        eval_hours: usize,
        refit_every: usize,
        window: usize,
    ) {
        let slices: Vec<&[f64]> = series.iter().map(Vec::as_slice).collect();
        let bits = |p: Vec<Vec<f64>>| -> Vec<Vec<u64>> {
            p.into_iter()
                .map(|s| s.into_iter().map(f64::to_bits).collect())
                .collect()
        };
        let shared = rolling_forecast(&slices, eval_hours, refit_every, window).map(bits);
        let reference = series
            .iter()
            .map(|s| reference_forecast(s, eval_hours, refit_every, window))
            .collect::<Result<Vec<_>, _>>()
            .map(bits);
        assert_eq!(
            shared, reference,
            "eval {eval_hours}, refit {refit_every}, window {window}"
        );
    }

    #[test]
    fn shared_factor_forecast_matches_per_series_fits() {
        let equal = periodic_series(&[60, 60, 60], 3);
        let unequal = periodic_series(&[60, 47, 75], 4);
        // Full window: every refit fits the same length.
        assert_matches_reference(&equal, 12, 5, 24);
        // Window longer than the history: the length grows every refit.
        assert_matches_reference(&equal, 12, 5, 100);
        // Refit every hour and every 7 (12 is a multiple of neither 5 nor 7).
        assert_matches_reference(&equal, 12, 1, 24);
        assert_matches_reference(&unequal, 12, 7, 24);
        // Unequal lengths: some series fill the window, others do not.
        assert_matches_reference(&unequal, 12, 5, 40);
        assert_matches_reference(&unequal, 12, 1, 100);
    }

    #[test]
    fn shared_factor_forecast_reports_too_few_observations() {
        // Series 1 has one training hour: its first refit sees one point.
        let series = periodic_series(&[30, 13], 5);
        assert_matches_reference(&series, 12, 5, 24);
        let slices: Vec<&[f64]> = series.iter().map(Vec::as_slice).collect();
        assert_eq!(
            rolling_forecast(&slices, 12, 5, 24),
            Err(GprError::TooFewObservations)
        );
        // A one-hour window is too short for every series.
        assert_eq!(
            rolling_forecast(&slices[..1], 12, 5, 1),
            Err(GprError::TooFewObservations)
        );
    }

    #[test]
    fn rolling_forecast_beats_naive_on_periodic_signal() {
        // Periodic signal with mild noise: GPR should out-predict the
        // "previous hour" baseline.
        use crate::standard_normal;
        use jcr_ctx::rng::SeedableRng;
        let mut rng = jcr_ctx::rng::StdRng::seed_from_u64(12);
        let n = 120;
        let eval = 24;
        let series: Vec<f64> = (0..n)
            .map(|t| {
                100.0
                    + 40.0 * (2.0 * std::f64::consts::PI * t as f64 / 24.0).sin()
                    + 2.0 * standard_normal(&mut rng)
            })
            .collect();
        let preds = rolling_forecast(&[&series], eval, 5, 96).unwrap().remove(0);
        let truth = &series[n - eval..];
        let rmse_gpr: f64 = (preds
            .iter()
            .zip(truth)
            .map(|(p, t)| (p - t).powi(2))
            .sum::<f64>()
            / eval as f64)
            .sqrt();
        let rmse_naive: f64 = ((0..eval)
            .map(|h| (series[n - eval + h - 1] - truth[h]).powi(2))
            .sum::<f64>()
            / eval as f64)
            .sqrt();
        assert!(
            rmse_gpr < rmse_naive,
            "GPR RMSE {rmse_gpr} ≥ naive RMSE {rmse_naive}"
        );
    }
}
