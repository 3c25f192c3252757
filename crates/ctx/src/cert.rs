//! Machine-checkable solution **certificates** and the compensated
//! arithmetic that verifies them (DESIGN.md §11).
//!
//! Every solver layer emits a [`Certificate`]: a named bundle of
//! [`Check`]s, each a residual measured against an explicit tolerance.
//! The residuals are recomputed by an *independent* verifier — never the
//! solver's own running sums — using error-free transformations
//! ([`two_sum`]) and Neumaier-compensated accumulation ([`Kahan`]), so a
//! silently drifted basis or a cancelled running total cannot certify
//! itself.
//!
//! Certificates are cheap (one compensated pass over the solution data)
//! and deterministic, and they integrate with the metrics registry: see
//! [`Certificate::record`], which files every residual into a shared
//! `cert.residual_bits` histogram readable from `experiments stats`.
//!
//! # Examples
//!
//! ```
//! use jcr_ctx::cert::{Certificate, Kahan};
//!
//! let mut sum = Kahan::new();
//! for _ in 0..10 {
//!     sum.add(0.1);
//! }
//! let mut cert = Certificate::new("demo");
//! cert.push("sums-to-one", (sum.total() - 1.0).abs(), 1e-12);
//! assert!(cert.verified());
//! ```

use std::fmt;

/// Error-free transformation: `a + b = s + e` exactly, with `s = fl(a+b)`
/// and `e` the rounding error (Knuth's TwoSum; no branch on magnitudes).
#[inline]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let e = (a - (s - bb)) + (b - bb);
    (s, e)
}

/// Neumaier-compensated accumulator ("improved Kahan–Babuška"): the
/// running compensation collects the exact rounding error of every add,
/// so the final [`Kahan::total`] is correct to a unit roundoff of the
/// *exact* sum even under heavy cancellation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Kahan {
    sum: f64,
    comp: f64,
}

impl Kahan {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Kahan::default()
    }

    /// Adds one term.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let (s, e) = two_sum(self.sum, x);
        self.sum = s;
        self.comp += e;
    }

    /// Adds the product `a·b` with its FMA-style error term split out
    /// (the product itself is a single rounding; good enough for
    /// residuals checked against tolerances ≫ machine epsilon).
    #[inline]
    pub fn add_prod(&mut self, a: f64, b: f64) {
        self.add(a * b);
    }

    /// The compensated total.
    #[inline]
    pub fn total(&self) -> f64 {
        self.sum + self.comp
    }
}

/// Maps a nonnegative residual to "bits of agreement" for log₂-bucket
/// histograms: `min(64, ⌊−log₂ r⌋)` — 64 means exactly zero (or below
/// 2⁻⁶⁴), 0 means the residual is ≥ 1. Deterministic for deterministic
/// residuals, so it is safe to record as a `Count`-unit metric.
pub fn residual_bits(residual: f64) -> u64 {
    if residual <= 0.0 || residual.is_nan() {
        // Zero or NaN; NaN is caught separately by Check::pass.
        return 64;
    }
    let bits = -residual.log2();
    if bits <= 0.0 {
        0
    } else if bits >= 64.0 {
        64
    } else {
        bits as u64
    }
}

/// One verified condition: a recomputed residual against its tolerance.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// What is being checked (e.g. `"primal-rows"`, `"duality-gap"`).
    pub name: &'static str,
    /// The recomputed residual (≥ 0; NaN fails).
    pub residual: f64,
    /// The acceptance tolerance.
    pub tol: f64,
}

impl Check {
    /// Whether the residual is finite and within tolerance.
    pub fn pass(&self) -> bool {
        self.residual.is_finite() && self.residual <= self.tol
    }
}

/// A machine-checkable certificate: the named checks an independent
/// verifier recomputed for one solution. A certificate **verifies** when
/// every check passes; solvers must refuse to report "optimal" on a
/// certificate that does not.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Certificate {
    /// The certificate family (`"lp"`, `"mincost"`, `"mmsfp"`, `"jcr"`).
    pub kind: &'static str,
    /// The individual residual checks.
    pub checks: Vec<Check>,
}

impl Certificate {
    /// An empty certificate of the given kind (vacuously verified).
    pub fn new(kind: &'static str) -> Self {
        Certificate {
            kind,
            checks: Vec::new(),
        }
    }

    /// Appends a check.
    pub fn push(&mut self, name: &'static str, residual: f64, tol: f64) {
        self.checks.push(Check {
            name,
            residual,
            tol,
        });
    }

    /// Whether every check passes.
    pub fn verified(&self) -> bool {
        self.checks.iter().all(Check::pass)
    }

    /// The failing checks, if any.
    pub fn failures(&self) -> impl Iterator<Item = &Check> {
        self.checks.iter().filter(|c| !c.pass())
    }

    /// The largest residual-to-tolerance ratio across checks (0 when
    /// empty) — a scalar "how close to the edge" summary.
    pub fn worst_ratio(&self) -> f64 {
        self.checks
            .iter()
            .map(|c| {
                if c.residual.is_finite() {
                    c.residual / c.tol.max(f64::MIN_POSITIVE)
                } else {
                    f64::INFINITY
                }
            })
            .fold(0.0, f64::max)
    }

    /// Records the certificate into a context's metrics registry:
    /// `cert.residual_bits` (one log₂-agreement observation per check),
    /// `cert.verified` / `cert.failed` counters, and a per-kind counter
    /// (`cert.<kind>`). Visible in `experiments stats`.
    pub fn record(&self, ctx: &crate::SolverContext) {
        for c in &self.checks {
            ctx.metric_value("cert.residual_bits", residual_bits(c.residual));
        }
        let outcome = if self.verified() {
            "cert.verified"
        } else {
            "cert.failed"
        };
        ctx.obs().add_counter(outcome, 1);
    }

    /// A short human-readable failure description (for error payloads).
    pub fn failure_summary(&self) -> String {
        let mut parts: Vec<String> = self
            .failures()
            .map(|c| {
                format!(
                    "{}: residual {:.3e} > tol {:.3e}",
                    c.name, c.residual, c.tol
                )
            })
            .collect();
        if parts.is_empty() {
            parts.push("all checks pass".to_string());
        }
        format!("{} certificate: {}", self.kind, parts.join("; "))
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} certificate ({}): {} checks",
            self.kind,
            if self.verified() {
                "VERIFIED"
            } else {
                "FAILED"
            },
            self.checks.len()
        )?;
        for c in &self.checks {
            writeln!(
                f,
                "  {:<24} residual {:>12.4e}  tol {:>9.1e}  {}",
                c.name,
                c.residual,
                c.tol,
                if c.pass() { "ok" } else { "FAIL" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_sum_is_exact() {
        let (s, e) = two_sum(1.0, 1e-20);
        assert_eq!(s, 1.0);
        assert_eq!(e, 1e-20);
        let (s, e) = two_sum(0.1, 0.2);
        // s + e reproduces the exact sum of the two doubles.
        assert_eq!(s, 0.1 + 0.2);
        assert!(e != 0.0);
    }

    #[test]
    fn kahan_beats_naive_summation() {
        // Σ of n copies of 0.1 plus a large cancelling pair.
        let mut k = Kahan::new();
        k.add(1e16);
        for _ in 0..1000 {
            k.add(0.1);
        }
        k.add(-1e16);
        assert!((k.total() - 100.0).abs() < 1e-9, "{}", k.total());
    }

    #[test]
    fn residual_bits_mapping() {
        assert_eq!(residual_bits(0.0), 64);
        assert_eq!(residual_bits(1.0), 0);
        assert_eq!(residual_bits(2.0), 0);
        assert_eq!(residual_bits(0.25), 2);
        assert_eq!(residual_bits(1e-300), 64);
        assert_eq!(residual_bits(f64::NAN), 64);
    }

    #[test]
    fn certificate_verdicts() {
        let mut cert = Certificate::new("test");
        assert!(cert.verified());
        cert.push("fine", 1e-12, 1e-9);
        assert!(cert.verified());
        cert.push("bad", 1e-3, 1e-9);
        assert!(!cert.verified());
        assert_eq!(cert.failures().count(), 1);
        assert!(cert.worst_ratio() > 1.0);
        let text = cert.failure_summary();
        assert!(text.contains("bad"), "{text}");
        let display = cert.to_string();
        assert!(display.contains("FAILED"), "{display}");
    }

    #[test]
    fn nan_residual_fails() {
        let mut cert = Certificate::new("test");
        cert.push("nan", f64::NAN, 1e-9);
        assert!(!cert.verified());
        assert!(cert.worst_ratio().is_infinite());
    }

    #[test]
    fn record_files_metrics() {
        let ctx = crate::SolverContext::new();
        let mut cert = Certificate::new("test");
        cert.push("a", 0.0, 1e-9);
        cert.record(&ctx);
        let snap = ctx.obs_snapshot();
        assert!(snap.histograms.contains_key("cert.residual_bits"));
    }
}
