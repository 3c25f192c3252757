//! Synthetic hourly view traces calibrated to the paper's Table 1.
//!
//! The algorithms consume only per-hour request rates, so the substitute
//! trace must preserve what the evaluation depends on: heterogeneous video
//! popularity (taken verbatim from Table 1's total views) and learnable
//! temporal structure (a diurnal cycle plus noise, which the GPR predictor
//! of Fig. 4 can track). Each video's series is
//!
//! ```text
//!     views_i(t) = base_i · (1 + A·sin(2π(t − φ_i)/24)) · lognormal(σ)
//! ```
//!
//! scaled so that the evaluation window sums exactly to the published
//! `total_views`.

use jcr_ctx::rng::StdRng;
use jcr_ctx::rng::{Rng, SeedableRng};

use crate::standard_normal;
use crate::videos::{VideoStats, EVAL_HOURS, TRAIN_HOURS};

/// Amplitude of the diurnal cycle.
const DIURNAL_AMPLITUDE: f64 = 0.6;
/// Log-normal noise sigma.
const NOISE_SIGMA: f64 = 0.15;

/// A synthetic per-video hourly view trace: `TRAIN_HOURS` of history
/// followed by `EVAL_HOURS` of evaluation data.
#[derive(Clone, Debug)]
pub struct ViewTrace {
    /// Per-video hourly views, each of length `train_hours + eval_hours`.
    pub views: Vec<Vec<f64>>,
    /// Number of leading training hours.
    pub train_hours: usize,
    /// Number of trailing evaluation hours.
    pub eval_hours: usize,
}

impl ViewTrace {
    /// Generates the trace for the given videos with the paper's horizon
    /// (550 training hours + 100 evaluation hours).
    pub fn generate(videos: &[VideoStats], seed: u64) -> Self {
        Self::generate_with_horizon(videos, seed, TRAIN_HOURS, EVAL_HOURS)
    }

    /// Generates with a custom horizon (tests use shorter ones).
    pub fn generate_with_horizon(
        videos: &[VideoStats],
        seed: u64,
        train_hours: usize,
        eval_hours: usize,
    ) -> Self {
        assert!(eval_hours > 0, "need at least one evaluation hour");
        let total = train_hours + eval_hours;
        let mut views = Vec::with_capacity(videos.len());
        for (vi, v) in videos.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x7472_6163 + vi as u64 * 0x9e37_79b9));
            let phase: f64 = rng.gen_range(0.0..24.0);
            let mut series: Vec<f64> = (0..total)
                .map(|t| {
                    let seasonal = 1.0
                        + DIURNAL_AMPLITUDE
                            * (2.0 * std::f64::consts::PI * (t as f64 - phase) / 24.0).sin();
                    let noise = (NOISE_SIGMA * standard_normal(&mut rng)).exp();
                    seasonal.max(0.05) * noise
                })
                .collect();
            // Scale the evaluation window to the published total.
            let eval_sum: f64 = series[train_hours..].iter().sum();
            let scale = v.total_views as f64 / eval_sum;
            for s in &mut series {
                *s *= scale;
            }
            views.push(series);
        }
        ViewTrace {
            views,
            train_hours,
            eval_hours,
        }
    }

    /// Views of video `vi` during evaluation hour `h` (0-based).
    pub fn eval_views(&self, vi: usize, h: usize) -> f64 {
        self.views[vi][self.train_hours + h]
    }

    /// The training history of video `vi` up to (excluding) evaluation
    /// hour `h`: everything the predictor may see when forecasting hour `h`.
    pub fn history_until(&self, vi: usize, h: usize) -> &[f64] {
        &self.views[vi][..self.train_hours + h]
    }
}

impl ViewTrace {
    /// Serializes the trace to a plain-text format (`#` comments, one
    /// `series` line per video with space-separated hourly views).
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        // `fmt::Write` into a `String` is infallible; the expects below
        // document that invariant rather than a reachable failure.
        let mut out = String::from("jcr-trace v1\n");
        writeln!(out, "train_hours {}", self.train_hours).expect("write to string");
        writeln!(out, "eval_hours {}", self.eval_hours).expect("write to string");
        for series in &self.views {
            out.push_str("series");
            for v in series {
                write!(out, " {v}").expect("write to string");
            }
            out.push('\n');
        }
        out
    }

    /// Parses a trace from the plain-text format — the hook for feeding
    /// *real* measured traces into the evaluation pipeline.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i, l.split('#').next().unwrap_or("").trim()))
            .filter(|(_, l)| !l.is_empty());
        let (_, header) = lines.next().ok_or("empty input")?;
        if header != "jcr-trace v1" {
            return Err("expected header `jcr-trace v1`".into());
        }
        let mut train_hours = None;
        let mut eval_hours = None;
        let mut views: Vec<Vec<f64>> = Vec::new();
        for (lineno, line) in lines {
            let mut parts = line.split_whitespace();
            // Empty lines are filtered above; an empty keyword can only
            // mean that invariant broke, and falls through to the
            // unknown-keyword parse error instead of panicking.
            match parts.next().unwrap_or_default() {
                "train_hours" => {
                    train_hours = Some(
                        parts
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or(format!("line {}: bad train_hours", lineno + 1))?,
                    )
                }
                "eval_hours" => {
                    eval_hours = Some(
                        parts
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or(format!("line {}: bad eval_hours", lineno + 1))?,
                    )
                }
                "series" => {
                    let series: Vec<f64> = parts
                        .map(|t| {
                            t.parse()
                                .map_err(|_| format!("line {}: bad value", lineno + 1))
                        })
                        .collect::<Result<_, _>>()?;
                    views.push(series);
                }
                other => return Err(format!("line {}: unknown keyword {other:?}", lineno + 1)),
            }
        }
        let train_hours = train_hours.ok_or("missing train_hours")?;
        let eval_hours: usize = eval_hours.ok_or("missing eval_hours")?;
        if eval_hours == 0 {
            return Err("eval_hours must be positive".into());
        }
        for (vi, series) in views.iter().enumerate() {
            if series.len() != train_hours + eval_hours {
                return Err(format!(
                    "series {vi} has {} entries, expected {}",
                    series.len(),
                    train_hours + eval_hours
                ));
            }
        }
        Ok(ViewTrace {
            views,
            train_hours,
            eval_hours,
        })
    }
}

/// Injects synthetic prediction errors (Appendix D.3): returns
/// `max(0, rate + N(0, σ²))` per entry. `sigma` is in the same units as
/// the rates (the appendix's RMSE).
pub fn perturb_demand<R: Rng>(rates: &[f64], sigma: f64, rng: &mut R) -> Vec<f64> {
    rates
        .iter()
        .map(|&r| (r + sigma * standard_normal(rng)).max(0.0))
        .collect()
}

/// Splits each video's hourly views across edge nodes: node `k` receives
/// share `weights[vi][k]` of video `vi`'s views (the paper "randomly
/// distributes the requests for each video among the edge nodes").
/// Returns per-video Dirichlet-like weights drawn from normalized uniform
/// samples.
pub fn random_edge_shares<R: Rng>(n_videos: usize, n_edges: usize, rng: &mut R) -> Vec<Vec<f64>> {
    (0..n_videos)
        .map(|_| {
            let raw: Vec<f64> = (0..n_edges).map(|_| rng.gen_range(0.05..1.0)).collect();
            let sum: f64 = raw.iter().sum();
            raw.into_iter().map(|w| w / sum).collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::videos::TABLE1;

    #[test]
    fn eval_window_sums_to_published_totals() {
        let trace = ViewTrace::generate_with_horizon(&TABLE1, 42, 50, 100);
        for (vi, v) in TABLE1.iter().enumerate() {
            let sum: f64 = trace.views[vi][trace.train_hours..].iter().sum();
            assert!(
                (sum - v.total_views as f64).abs() < 1.0,
                "{}: {sum} vs {}",
                v.id,
                v.total_views
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ViewTrace::generate_with_horizon(&TABLE1[..3], 7, 20, 10);
        let b = ViewTrace::generate_with_horizon(&TABLE1[..3], 7, 20, 10);
        assert_eq!(a.views, b.views);
        let c = ViewTrace::generate_with_horizon(&TABLE1[..3], 8, 20, 10);
        assert_ne!(a.views, c.views);
    }

    #[test]
    fn views_positive_and_diurnal() {
        let trace = ViewTrace::generate_with_horizon(&TABLE1[..1], 3, 0, 96);
        let series = &trace.views[0];
        assert!(series.iter().all(|&v| v > 0.0));
        // A diurnal signal should make the per-hour-of-day means differ
        // noticeably.
        let mut by_hour = [0.0; 24];
        for (t, &v) in series.iter().enumerate() {
            by_hour[t % 24] += v;
        }
        let max = by_hour.iter().copied().fold(0.0f64, f64::max);
        let min = by_hour.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max > 1.5 * min, "no visible diurnal cycle: {min}..{max}");
    }

    #[test]
    fn history_grows_with_hour() {
        let trace = ViewTrace::generate_with_horizon(&TABLE1[..1], 3, 30, 10);
        assert_eq!(trace.history_until(0, 0).len(), 30);
        assert_eq!(trace.history_until(0, 7).len(), 37);
    }

    #[test]
    fn text_round_trip() {
        let trace = ViewTrace::generate_with_horizon(&TABLE1[..3], 7, 12, 6);
        let text = trace.to_text();
        let back = ViewTrace::from_text(&text).unwrap();
        assert_eq!(back.train_hours, 12);
        assert_eq!(back.eval_hours, 6);
        assert_eq!(back.views.len(), 3);
        for (a, b) in back.views.iter().zip(&trace.views) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-9 * y.abs().max(1.0));
            }
        }
    }

    #[test]
    fn text_rejects_malformed() {
        assert!(ViewTrace::from_text("").is_err());
        assert!(ViewTrace::from_text("nope").is_err());
        assert!(ViewTrace::from_text("jcr-trace v1\ntrain_hours 2").is_err());
        assert!(
            ViewTrace::from_text("jcr-trace v1\ntrain_hours 1\neval_hours 1\nseries 1 2 3")
                .is_err()
        );
        assert!(
            ViewTrace::from_text("jcr-trace v1\ntrain_hours 1\neval_hours 1\nseries 1 oops")
                .is_err()
        );
    }

    #[test]
    fn perturbation_clamps_at_zero() {
        use jcr_ctx::rng::SeedableRng;
        let mut rng = jcr_ctx::rng::StdRng::seed_from_u64(1);
        let rates = vec![1.0, 0.001, 100.0];
        let noisy = perturb_demand(&rates, 10.0, &mut rng);
        assert!(noisy.iter().all(|&r| r >= 0.0));
        // With sigma 0 it is the identity.
        assert_eq!(perturb_demand(&rates, 0.0, &mut rng), rates);
    }

    #[test]
    fn edge_shares_normalized() {
        use jcr_ctx::rng::SeedableRng;
        let mut rng = jcr_ctx::rng::StdRng::seed_from_u64(2);
        let shares = random_edge_shares(4, 6, &mut rng);
        for row in &shares {
            assert_eq!(row.len(), 6);
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(row.iter().all(|&w| w > 0.0));
        }
    }
}
