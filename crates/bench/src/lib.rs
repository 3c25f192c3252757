//! Experiment harness: builds the paper's evaluation scenarios (§6,
//! Appendices C–D) from the trace/topology substrates and runs each
//! algorithm, so that every table and figure can be regenerated by the
//! `experiments` binary (one subcommand per table/figure; see
//! `EXPERIMENTS.md`).

use std::fmt;
use std::sync::Arc;

use jcr_ctx::rng::SeedableRng;
use jcr_ctx::rng::StdRng;

use jcr_core::prelude::*;
use jcr_topo::{Topology, TopologyKind};
use jcr_trace::synth::{random_edge_shares, ViewTrace};
use jcr_trace::videos::{top_videos, VideoStats};
use jcr_trace::{gpr, videos};

/// Simulation granularity (§6).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Level {
    /// Chunk level: videos split into equal-sized chunks (homogeneous).
    Chunk {
        /// Chunk size in MB (paper default 100; Appendix D.2 uses 50/25).
        chunk_mb: f64,
    },
    /// File level: each video is one heterogeneous-sized item.
    File,
}

/// A fully specified evaluation scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Topology family.
    pub kind: TopologyKind,
    /// Seed for topology, trace, and share generation.
    pub seed: u64,
    /// Number of (top) videos in the catalog (paper default 10).
    pub n_videos: usize,
    /// Chunk vs file level.
    pub level: Level,
    /// Per-edge-node cache capacity ζ (items at chunk level, 100-MB units
    /// at file level).
    pub zeta: f64,
    /// Link capacity as a fraction of the total request rate
    /// (`None` = unlimited links; paper default 0.007).
    pub kappa_fraction: Option<f64>,
    /// Number of evaluation hours to simulate.
    pub hours: usize,
    /// GPR history window (most recent hours used per fit).
    pub gpr_window: usize,
    /// Seed of the random request distribution across edge nodes; varied
    /// across Monte-Carlo runs (the paper's 100-run averaging randomizes
    /// exactly this).
    pub share_seed: u64,
}

impl Scenario {
    /// The paper's default chunk-level scenario (`|C| = 54`, ζ = 12).
    pub fn chunk_default() -> Self {
        Scenario {
            kind: TopologyKind::Abovenet,
            seed: 1,
            n_videos: 10,
            level: Level::Chunk { chunk_mb: 100.0 },
            zeta: 12.0,
            kappa_fraction: Some(0.007),
            hours: 4,
            gpr_window: 168,
            share_seed: 1,
        }
    }

    /// The paper's default file-level scenario (`|C| = 10`, ζ = 2).
    pub fn file_default() -> Self {
        Scenario {
            level: Level::File,
            zeta: 2.0,
            ..Scenario::chunk_default()
        }
    }

    /// Catalog size implied by the level.
    pub fn catalog_size(&self) -> usize {
        match self.level {
            Level::Chunk { chunk_mb } => videos::catalog_size(self.n_videos, chunk_mb),
            Level::File => self.n_videos,
        }
    }

    /// Cache capacity in item-size units: ζ counts items at chunk level
    /// and *videos* at file level (the paper's ζ = 2 files corresponds to
    /// ζ = 12 hundred-MB chunks — "the same cache size on the average"),
    /// so file-level capacity is ζ × mean video size.
    pub fn cache_capacity_units(&self) -> f64 {
        match self.level {
            Level::Chunk { .. } => self.zeta,
            Level::File => {
                let sizes = self.item_sizes();
                self.zeta * sizes.iter().sum::<f64>() / sizes.len() as f64
            }
        }
    }

    /// Item sizes (100-MB units at file level; unit at chunk level).
    pub fn item_sizes(&self) -> Vec<f64> {
        match self.level {
            Level::Chunk { .. } => vec![1.0; self.catalog_size()],
            Level::File => top_videos(self.n_videos)
                .iter()
                .map(|v| v.size_mb / 100.0)
                .collect(),
        }
    }

    /// Checks `hours` against the view trace's evaluation horizon
    /// ([`videos::EVAL_HOURS`]), which every demand accessor relies on.
    pub fn check_horizon(&self) -> Result<(), HorizonError> {
        if self.hours > videos::EVAL_HOURS {
            return Err(HorizonError {
                hours: self.hours,
                limit: videos::EVAL_HOURS,
            });
        }
        Ok(())
    }

    /// Builds the hour-by-hour demand (true and GPR-predicted), expressed
    /// as `rates[item][edge-node]` matrices.
    ///
    /// # Panics
    ///
    /// Panics past the trace horizon (see [`Scenario::check_horizon`]).
    pub fn demand(&self, n_edges: usize) -> ScenarioDemand {
        self.demand_from(&self.demand_base(), n_edges)
    }

    /// The share-independent half of [`Scenario::demand`]: the synthetic
    /// view trace and the rolling GPR forecasts. Both depend only on
    /// `seed`, `hours`, `gpr_window`, and the catalog — not on
    /// `share_seed` — so a Monte-Carlo sweep computes this once and
    /// derives each run's demand from it with [`Scenario::demand_from`]
    /// (the per-run work then redraws only the edge shares).
    ///
    /// # Panics
    ///
    /// Panics with the [`HorizonError`] message when `hours` exceeds the
    /// trace horizon; [`Scenario::check_horizon`] returns it as a value.
    pub fn demand_base(&self) -> DemandBase {
        if let Err(e) = self.check_horizon() {
            panic!("{e}");
        }
        let vids: Vec<VideoStats> = top_videos(self.n_videos).to_vec();
        let trace = ViewTrace::generate(&vids, self.seed);

        // Rolling GPR forecasts of every video for the simulated hours.
        let end = trace.train_hours + self.hours;
        let series: Vec<&[f64]> = trace.views.iter().map(|v| &v[..end]).collect();
        let predicted_views = gpr::rolling_forecast(&series, self.hours, 5, self.gpr_window)
            .expect("GPR fit succeeds on synthetic traces");
        DemandBase {
            trace: Arc::new(trace),
            predicted_views: Arc::new(predicted_views),
        }
    }

    /// Completes a [`DemandBase`] into this scenario's demand by drawing
    /// the `share_seed`-dependent edge shares. The trace and forecasts are
    /// shared with the base (cheap `Arc` clones), so calling this per
    /// Monte-Carlo run allocates only the share matrix.
    ///
    /// The base must come from a scenario identical in everything but
    /// `share_seed`, or the returned demand mixes inconsistent halves.
    pub fn demand_from(&self, base: &DemandBase, n_edges: usize) -> ScenarioDemand {
        let mut rng = StdRng::seed_from_u64(self.share_seed ^ 0x7368_6172_6573);
        let shares = random_edge_shares(self.n_videos, n_edges, &mut rng);
        ScenarioDemand {
            scenario: self.clone(),
            trace: Arc::clone(&base.trace),
            shares,
            predicted_views: Arc::clone(&base.predicted_views),
        }
    }

    /// Builds the topology (edge count fixed by the generator defaults).
    pub fn topology(&self) -> Topology {
        Topology::generate(self.kind, self.seed).expect("built-in kinds generate")
    }

    /// Expands per-video hourly views into the per-item demand matrix.
    fn expand(&self, views: &[f64], shares: &[Vec<f64>], n_edges: usize) -> Vec<Vec<f64>> {
        let sizes = self.item_sizes();
        match self.level {
            Level::Chunk { chunk_mb } => {
                let file_sizes: Vec<f64> = top_videos(self.n_videos)
                    .iter()
                    .map(|v| v.size_mb)
                    .collect();
                let per_video: Vec<Vec<f64>> = (0..self.n_videos)
                    .map(|vi| (0..n_edges).map(|k| views[vi] * shares[vi][k]).collect())
                    .collect();
                jcr_trace::chunking::Chunking::new(&file_sizes, chunk_mb).expand_rates(&per_video)
            }
            Level::File => (0..self.n_videos)
                .map(|vi| {
                    (0..n_edges)
                        .map(|k| views[vi] * shares[vi][k] * sizes[vi])
                        .collect()
                })
                .collect(),
        }
    }
}

/// A scenario asks for more evaluation hours than the view trace holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HorizonError {
    /// Evaluation hours requested.
    pub hours: usize,
    /// Evaluation hours in the trace.
    pub limit: usize,
}

impl fmt::Display for HorizonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} evaluation hours requested, but the view trace has a {}-hour evaluation horizon",
            self.hours, self.limit
        )
    }
}

impl std::error::Error for HorizonError {}

/// The share-independent demand ingredients of a scenario (see
/// [`Scenario::demand_base`]). Cloning shares the underlying trace and
/// forecasts.
#[derive(Clone)]
pub struct DemandBase {
    trace: Arc<ViewTrace>,
    predicted_views: Arc<Vec<Vec<f64>>>,
}

/// The demand realization of a scenario.
pub struct ScenarioDemand {
    scenario: Scenario,
    trace: Arc<ViewTrace>,
    shares: Vec<Vec<f64>>,
    predicted_views: Arc<Vec<Vec<f64>>>,
}

impl ScenarioDemand {
    /// True demand matrix for evaluation hour `h`.
    pub fn true_rates(&self, h: usize, n_edges: usize) -> Vec<Vec<f64>> {
        let views: Vec<f64> = (0..self.scenario.n_videos)
            .map(|vi| self.trace.eval_views(vi, h))
            .collect();
        self.scenario.expand(&views, &self.shares, n_edges)
    }

    /// GPR-predicted demand matrix for evaluation hour `h`.
    pub fn predicted_rates(&self, h: usize, n_edges: usize) -> Vec<Vec<f64>> {
        let views: Vec<f64> = (0..self.scenario.n_videos)
            .map(|vi| self.predicted_views[vi][h])
            .collect();
        self.scenario.expand(&views, &self.shares, n_edges)
    }

    /// Per-video `(truth, prediction)` series over the simulated hours
    /// (for Fig. 4).
    pub fn views_series(&self, vi: usize) -> (Vec<f64>, Vec<f64>) {
        let truth: Vec<f64> = (0..self.scenario.hours)
            .map(|h| self.trace.eval_views(vi, h))
            .collect();
        (truth, self.predicted_views[vi].clone())
    }
}

/// Builds the decision instance for one hour from a demand matrix,
/// flooring rates at a tiny positive value so that the request set (and
/// its order) is identical across true/predicted/perturbed demand — a
/// prerequisite for [`Solution::evaluate_under`].
pub fn build_instance(scenario: &Scenario, rates: &[Vec<f64>]) -> Instance {
    build_instance_with(&scenario.topology(), scenario, rates)
}

/// [`build_instance`] against a pre-generated topology: callers that
/// build many hourly instances of one scenario (Monte-Carlo sweeps,
/// online loops) generate the topology once and pay a clone here instead
/// of re-running the generator — and its RNG and adjacency bookkeeping —
/// per instance.
pub fn build_instance_with(topo: &Topology, scenario: &Scenario, rates: &[Vec<f64>]) -> Instance {
    let floored: Vec<Vec<f64>> = rates
        .iter()
        .map(|row| row.iter().map(|&r| r.max(1e-6)).collect())
        .collect();
    let mut b = InstanceBuilder::new(topo.clone())
        .cache_capacity(scenario.cache_capacity_units())
        .demand_matrix(floored);
    b = match scenario.level {
        Level::Chunk { .. } => b.items(scenario.catalog_size()),
        Level::File => b.item_sizes(scenario.item_sizes()),
    };
    b = match scenario.kappa_fraction {
        Some(fr) => b.link_capacity_fraction(fr),
        None => b.unlimited_links(),
    };
    b.build().expect("scenario instances are valid")
}

/// Flattens a demand matrix in the same (item-major) order the
/// [`InstanceBuilder`] enumerates requests, for use as the `true_rates`
/// argument of [`Solution::evaluate_under`].
pub fn flatten_rates(rates: &[Vec<f64>]) -> Vec<f64> {
    rates.iter().flatten().copied().collect()
}

/// Mean of a sample (0 for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Prints an aligned text table: header then rows.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n## {title}");
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (k, cell) in row.iter().enumerate() {
            if k < widths.len() {
                widths[k] = widths[k].max(cell.len());
            }
        }
    }
    let fmt_row = |row: &[String]| {
        row.iter()
            .enumerate()
            .map(|(k, c)| format!("{:>w$}", c, w = widths.get(k).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(header));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a float compactly for tables.
pub fn fmt(v: f64) -> String {
    if !v.is_finite() {
        return "-".into();
    }
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e6 {
        format!("{:.3e}", v)
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_scenario_matches_paper_defaults() {
        let s = Scenario::chunk_default();
        assert_eq!(s.catalog_size(), 54);
        assert!(s.item_sizes().iter().all(|&b| b == 1.0));
    }

    #[test]
    fn file_scenario_sizes() {
        let s = Scenario::file_default();
        assert_eq!(s.catalog_size(), 10);
        // Sizes in 100-MB units: first video is ~4.5.
        assert!((s.item_sizes()[0] - 4.508789).abs() < 1e-3);
    }

    #[test]
    fn demand_pipeline_shapes() {
        let mut s = Scenario::chunk_default();
        s.hours = 2;
        s.gpr_window = 48;
        let demand = s.demand(6);
        let t = demand.true_rates(0, 6);
        assert_eq!(t.len(), 54);
        assert!(t.iter().all(|row| row.len() == 6));
        let p = demand.predicted_rates(1, 6);
        assert_eq!(p.len(), 54);
        // All chunks of one video share its rate profile.
        assert_eq!(t[0], t[1]);
    }

    #[test]
    fn hours_past_the_trace_horizon_are_a_typed_error() {
        let mut s = Scenario::chunk_default();
        s.hours = videos::EVAL_HOURS;
        assert_eq!(s.check_horizon(), Ok(()));
        s.hours = 168;
        let err = s.check_horizon().unwrap_err();
        assert_eq!(
            err,
            HorizonError {
                hours: 168,
                limit: 100
            }
        );
        assert!(err.to_string().contains("100-hour"), "{err}");
        let cfg = exp::ExpConfig {
            hours: 168,
            ..exp::ExpConfig::default()
        };
        assert_eq!(exp::online(cfg), Err(err));
    }

    #[test]
    fn demand_base_forecast_golden() {
        let mut s = Scenario::chunk_default();
        s.hours = 100;
        let base = s.demand_base();
        let bytes: Vec<u8> = base
            .predicted_views
            .iter()
            .flatten()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        // Recorded from the per-refit `Gpr::fit_grid` forecast.
        assert_eq!(
            format!("{:016x}", jcr_core::state::fnv1a(&bytes)),
            "9e8f186ca1c06f51"
        );
    }

    #[test]
    fn instance_round_trip() {
        let mut s = Scenario::file_default();
        s.hours = 1;
        s.gpr_window = 48;
        let demand = s.demand(6);
        let rates = demand.true_rates(0, 6);
        let inst = build_instance(&s, &rates);
        assert_eq!(inst.num_items(), 10);
        assert_eq!(inst.requests.len(), 60);
        let flat = flatten_rates(&rates);
        assert_eq!(flat.len(), 60);
        // Request enumeration order matches the flattening order.
        for (req, &rate) in inst.requests.iter().zip(&flat) {
            assert!((req.rate - rate.max(1e-6)).abs() < 1e-9);
        }
    }
}
pub mod adversary;
pub mod chaos;
pub mod diff;
pub mod exp;
pub mod json;
pub mod profile;
