//! One function per table/figure of the paper's evaluation. Each prints
//! the series behind the published plot as aligned text tables
//! ("true" = decisions on true demand, "pred" = decisions on GPR-predicted
//! demand evaluated against the truth — the paper's light/dark bars).

use std::time::Instant;

use jcr_ctx::rng::SeedableRng;
use jcr_ctx::rng::StdRng;
use jcr_ctx::SolverContext;

use jcr_core::prelude::*;
use jcr_core::{alg2, fcfr, hetero, rnr};
use jcr_graph::DiGraph;
use jcr_topo::TopologyKind;
use jcr_trace::videos::TABLE1;

use crate::{
    build_instance, build_instance_with, flatten_rates, fmt, mean, print_table, Level, Scenario,
};

/// Shared experiment knobs.
#[derive(Clone, Copy, Debug)]
pub struct ExpConfig {
    /// Monte-Carlo runs (request-distribution seeds); the paper uses 100.
    pub runs: usize,
    /// Evaluation hours simulated per run.
    pub hours: usize,
    /// Paper-scale parameters (slower) instead of the quick defaults.
    pub full: bool,
    /// Base seed offsetting every scenario (topology, trace, shares).
    pub seed: u64,
    /// Worker threads for Monte-Carlo fan-out (`0` = the context default:
    /// `JCR_WORKERS` or the machine's available parallelism).
    pub workers: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            runs: 3,
            hours: 2,
            full: false,
            seed: 0,
            workers: 0,
        }
    }
}

/// Fewest evaluation hours per run of the online experiments, whatever
/// `hours` says: warm bases and carried columns need hours to carry over.
const MIN_ONLINE_HOURS: usize = 4;

impl ExpConfig {
    /// Evaluation hours per run of the online experiments (`online`,
    /// `ablation`'s warm-vs-cold start and `faults`): `hours`, at least
    /// [`MIN_ONLINE_HOURS`].
    fn online_hours(&self) -> usize {
        self.hours.max(MIN_ONLINE_HOURS)
    }

    /// Hours of the Fig. 4 prediction horizon: a full day at paper scale,
    /// else `hours` but at least six.
    fn fig4_hours(&self) -> usize {
        if self.full {
            24
        } else {
            self.hours.max(6)
        }
    }

    /// Hours of the chaos soak: `hours`, but at least six (twelve at
    /// paper scale).
    pub(crate) fn chaos_hours(&self) -> usize {
        self.hours.max(if self.full { 12 } else { 6 })
    }

    /// Evaluation hours per run that experiment `id` simulates, for its
    /// banner and the trace-horizon check: the horizon of the experiments
    /// that set their own (one hour for those that solve a single-hour
    /// snapshot), none for those that simulate no hours, else `hours`.
    pub fn hours_run(&self, id: &str) -> Option<usize> {
        match id {
            "online" | "ablation" | "faults" => Some(self.online_hours()),
            "fig4" => Some(self.fig4_hours()),
            "chaos" => Some(self.chaos_hours()),
            "cases" | "convergence" | "table3" | "table4" | "trace" => Some(1),
            "fig9" | "zipf" | "topology" | "sim" | "gap" | "table1" | "adversary" => None,
            _ => Some(self.hours),
        }
    }

    /// Applies the base seed to a scenario.
    pub(crate) fn seeded(&self, mut sc: Scenario) -> Scenario {
        sc.seed = sc.seed.wrapping_add(self.seed);
        sc.share_seed = sc.share_seed.wrapping_add(self.seed);
        sc
    }

    /// A context whose pool width follows `self.workers` (0 = default).
    pub(crate) fn pool_ctx(&self) -> jcr_ctx::SolverContext {
        let ctx = jcr_ctx::SolverContext::new();
        if self.workers == 0 {
            ctx
        } else {
            ctx.with_workers(self.workers)
        }
    }
}

/// Solver closure: instance + context → solution (thread-safe so
/// Monte-Carlo runs can evaluate in parallel). The context carries the
/// budget, probe, and metrics registry the solve should charge.
pub type AlgoRun =
    Box<dyn Fn(&Instance, &jcr_ctx::SolverContext) -> Result<Solution, JcrError> + Send + Sync>;

/// An algorithm under evaluation.
pub struct Algo {
    /// Display name (the paper's legend label).
    pub name: String,
    /// Solver closure.
    pub run: AlgoRun,
}

impl Algo {
    fn new(
        name: &str,
        run: impl Fn(&Instance, &jcr_ctx::SolverContext) -> Result<Solution, JcrError>
            + Send
            + Sync
            + 'static,
    ) -> Self {
        Algo {
            name: name.to_string(),
            run: Box::new(run),
        }
    }
}

/// Aggregated metrics of one algorithm on one scenario point.
#[derive(Clone, Copy, Debug, Default)]
pub struct Metrics {
    /// Routing cost (decisions on true demand).
    pub cost_true: f64,
    /// Congestion (decisions on true demand).
    pub congestion_true: f64,
    /// Max cache occupancy ratio (true-demand decisions).
    pub occupancy_true: f64,
    /// Routing cost (decisions on predicted demand, evaluated on truth).
    pub cost_pred: f64,
    /// Congestion (predicted-demand decisions, evaluated on truth).
    pub congestion_pred: f64,
    /// Max cache occupancy ratio (predicted-demand decisions).
    pub occupancy_pred: f64,
}

/// Runs every algorithm over `runs × hours` instances of a scenario and
/// averages the metrics (the paper's Monte-Carlo protocol). Runs fan out
/// over the deterministic pool ([`jcr_ctx::par`]); per-run samples are
/// merged in run order, so the float accumulation — and thus every mean —
/// is bit-identical for any worker count.
pub fn evaluate(scenario: &Scenario, algos: &[Algo], cfg: ExpConfig) -> Vec<Metrics> {
    evaluate_in(&cfg.pool_ctx(), scenario, algos, cfg)
}

/// The context each Monte-Carlo run solves under: a fresh single-worker
/// context per run (the fan-out is one level deep, so inner solves stay
/// serial).
pub fn default_factory() -> jcr_ctx::SolverContext {
    jcr_ctx::SolverContext::new().with_workers(1)
}

/// [`evaluate`] under an explicit sweep context: the fan-out runs on
/// `sweep`'s pool, each run solves under one [`default_factory`] context,
/// and every run's stats, span tree and histograms are absorbed back into
/// `sweep`, so the caller can export the aggregated registry afterwards
/// (`cfg.workers` is ignored in favour of `sweep.workers()`).
pub fn evaluate_in(
    sweep: &jcr_ctx::SolverContext,
    scenario: &Scenario,
    algos: &[Algo],
    cfg: ExpConfig,
) -> Vec<Metrics> {
    // Everything share-seed-independent is hoisted out of the fan-out:
    // the topology (one generator run, cloned per instance) and the
    // trace + GPR demand base (shared via `Arc`). Each run then only
    // redraws its edge shares and builds its hourly instances — the
    // per-run closure no longer regenerates identical state `runs` times.
    let topo = scenario.topology();
    let n_edges = topo.edge_nodes.len();
    let base = {
        let mut sc = scenario.clone();
        sc.hours = cfg.hours.max(1);
        sc.demand_base()
    };
    let runs: Vec<usize> = (0..cfg.runs).collect();
    let _s = sweep.span("exp.evaluate");
    let per_run: Vec<Vec<Vec<f64>>> = jcr_ctx::par::par_map(sweep, &runs, |wctx, _, &run| {
        let mut sc = scenario.clone();
        sc.share_seed = scenario.share_seed.wrapping_add(run as u64 * 1009);
        sc.hours = cfg.hours.max(1);
        let demand = sc.demand_from(&base, n_edges);
        let run_ctx = default_factory();
        let mut local: Vec<Vec<f64>> = vec![Vec::new(); algos.len() * 6];
        for h in 0..sc.hours {
            let true_rates = demand.true_rates(h, n_edges);
            let pred_rates = demand.predicted_rates(h, n_edges);
            let inst_true = build_instance_with(&topo, &sc, &true_rates);
            let inst_pred = build_instance_with(&topo, &sc, &pred_rates);
            let floored_true: Vec<f64> = flatten_rates(&true_rates)
                .into_iter()
                .map(|r| r.max(1e-6))
                .collect();
            for (ai, algo) in algos.iter().enumerate() {
                if let Ok(sol) = (algo.run)(&inst_true, &run_ctx) {
                    local[ai * 6].push(sol.cost(&inst_true));
                    local[ai * 6 + 1].push(sol.congestion(&inst_true));
                    local[ai * 6 + 2].push(sol.placement.max_occupancy_ratio(&inst_true));
                }
                if let Ok(sol) = (algo.run)(&inst_pred, &run_ctx) {
                    let (cost, congestion) = sol.evaluate_under(&inst_pred, &floored_true);
                    local[ai * 6 + 3].push(cost);
                    local[ai * 6 + 4].push(congestion);
                    local[ai * 6 + 5].push(sol.placement.max_occupancy_ratio(&inst_pred));
                }
            }
        }
        wctx.absorb_stats(&run_ctx.stats());
        wctx.absorb_obs(&run_ctx.obs_snapshot());
        local
    });
    let mut acc: Vec<Vec<f64>> = vec![Vec::new(); algos.len() * 6];
    for local in per_run {
        for (dst, src) in acc.iter_mut().zip(local) {
            dst.extend(src);
        }
    }
    (0..algos.len())
        .map(|ai| Metrics {
            cost_true: mean(&acc[ai * 6]),
            congestion_true: mean(&acc[ai * 6 + 1]),
            occupancy_true: mean(&acc[ai * 6 + 2]),
            cost_pred: mean(&acc[ai * 6 + 3]),
            congestion_pred: mean(&acc[ai * 6 + 4]),
            occupancy_pred: mean(&acc[ai * 6 + 5]),
        })
        .collect()
}

// ----- algorithm rosters ----------------------------------------------------

/// Greedy placement + RNR routing (our file-level solver under unlimited
/// link capacities, Theorem 5.2).
fn greedy_rnr(inst: &Instance, _ctx: &jcr_ctx::SolverContext) -> Result<Solution, JcrError> {
    let placement = hetero::greedy_placement_rnr(inst);
    let routing = rnr::route_to_nearest_replica(inst, &placement).ok_or(JcrError::Infeasible)?;
    Ok(Solution { placement, routing })
}

/// The uncapacitated roster of Fig. 5.
fn fig5_algos(level: Level, k: usize) -> Vec<Algo> {
    let ours = match level {
        Level::Chunk { .. } => Algo::new("Alg1 (ours)", |inst, ctx| {
            Algorithm1::new().solve_with_context(inst, ctx)
        }),
        Level::File => Algo::new("greedy (ours)", greedy_rnr),
    };
    vec![
        ours,
        Algo::new("k shortest paths [3]", move |inst, ctx| {
            IoannidisYeh::k_shortest(k).solve_with_context(inst, ctx)
        }),
        Algo::new("shortest path [38]", |inst, ctx| {
            ShortestPathPlacement.solve_with_context(inst, ctx)
        }),
    ]
}

/// The general-case roster of Figs. 7–8, 11–13, 15.
fn general_algos(seed: u64) -> Vec<Algo> {
    vec![
        Algo::new("alternating (ours)", move |inst, ctx| {
            Alternating {
                seed,
                ..Alternating::default()
            }
            .solve_with_context(inst, ctx)
            .map(|r| r.solution)
        }),
        Algo::new("SP [38]", |inst, ctx| {
            ShortestPathPlacement.solve_with_context(inst, ctx)
        }),
        Algo::new("SP + RNR [3]", |inst, ctx| {
            IoannidisYeh::sp_rnr().solve_with_context(inst, ctx)
        }),
        Algo::new("k-SP + RNR [3]", |inst, ctx| {
            IoannidisYeh::ksp_rnr(10).solve_with_context(inst, ctx)
        }),
    ]
}

fn metrics_row(label: String, ms: &[Metrics], with_occupancy: bool) -> Vec<String> {
    let mut row = vec![label];
    for m in ms {
        row.push(fmt(m.cost_true));
        row.push(fmt(m.cost_pred));
        row.push(fmt(m.congestion_true));
        row.push(fmt(m.congestion_pred));
        if with_occupancy {
            row.push(fmt(m.occupancy_true.max(m.occupancy_pred)));
        }
    }
    row
}

fn metrics_header(algos: &[Algo], sweep: &str, with_occupancy: bool) -> Vec<String> {
    let mut h = vec![sweep.to_string()];
    for a in algos {
        h.push(format!("{}:cost", a.name));
        h.push("cost(pred)".into());
        h.push("cong".into());
        h.push("cong(pred)".into());
        if with_occupancy {
            h.push("occ".into());
        }
    }
    h
}

// ----- figures ---------------------------------------------------------------

/// Fig. 4: demand prediction vs ground truth.
pub fn fig4(cfg: ExpConfig) {
    let mut sc = cfg.seeded(Scenario::chunk_default());
    sc.n_videos = TABLE1.len().min(12);
    sc.hours = cfg.fig4_hours();
    let n_edges = sc.topology().edge_nodes.len();
    let demand = sc.demand(n_edges);
    let mut rows = Vec::new();
    for (vi, video) in TABLE1.iter().enumerate().take(sc.n_videos.min(4)) {
        let (truth, pred) = demand.views_series(vi);
        for h in 0..sc.hours {
            rows.push(vec![
                video.id.to_string(),
                h.to_string(),
                fmt(truth[h]),
                fmt(pred[h]),
            ]);
        }
    }
    print_table(
        "Fig. 4 — #views per hour, ground truth vs GPR prediction (first 4 videos)",
        &[
            "video".into(),
            "hour".into(),
            "truth".into(),
            "prediction".into(),
        ],
        &rows,
    );
    // RMSE summary across all videos.
    let mut rows = Vec::new();
    for (vi, video) in TABLE1.iter().enumerate().take(sc.n_videos) {
        let (truth, pred) = demand.views_series(vi);
        let rmse = (truth
            .iter()
            .zip(&pred)
            .map(|(t, p)| (t - p).powi(2))
            .sum::<f64>()
            / truth.len() as f64)
            .sqrt();
        let mean_views = mean(&truth);
        rows.push(vec![
            video.id.to_string(),
            fmt(mean_views),
            fmt(rmse),
            fmt(rmse / mean_views),
        ]);
    }
    print_table(
        "Fig. 4 (summary) — prediction RMSE per video",
        &[
            "video".into(),
            "mean views/h".into(),
            "RMSE".into(),
            "relative".into(),
        ],
        &rows,
    );
}

/// Fig. 5: unlimited link capacities — cost (and occupancy at file level)
/// vs cache capacity ζ and vs the number of candidate paths k.
pub fn fig5(cfg: ExpConfig) {
    // Chunk level, ζ sweep.
    let zetas_chunk: &[f64] = if cfg.full {
        &[4.0, 8.0, 12.0, 16.0, 20.0]
    } else {
        &[6.0, 12.0, 18.0]
    };
    let mut rows = Vec::new();
    let mut header = Vec::new();
    for &zeta in zetas_chunk {
        let mut sc = cfg.seeded(Scenario::chunk_default());
        sc.kappa_fraction = None;
        sc.zeta = zeta;
        let algos = fig5_algos(sc.level, 10);
        let ms = evaluate(&sc, &algos, cfg);
        header = metrics_header(&algos, "zeta", false);
        rows.push(metrics_row(fmt(zeta), &ms, false));
    }
    print_table(
        "Fig. 5 (chunk level) — routing cost vs cache capacity ζ (unlimited links)",
        &header,
        &rows,
    );

    // Chunk level, candidate-path sweep for [3].
    let ks: &[usize] = if cfg.full {
        &[1, 2, 5, 10, 20]
    } else {
        &[1, 5, 10]
    };
    let mut rows = Vec::new();
    for &k in ks {
        let mut sc = cfg.seeded(Scenario::chunk_default());
        sc.kappa_fraction = None;
        let algos = fig5_algos(sc.level, k);
        let ms = evaluate(&sc, &algos, cfg);
        rows.push(vec![
            k.to_string(),
            fmt(ms[0].cost_true),
            fmt(ms[1].cost_true),
            fmt(ms[1].cost_pred),
        ]);
    }
    print_table(
        "Fig. 5 (chunk level) — [3]'s cost vs #candidate paths k (ours is k-independent)",
        &[
            "k".into(),
            "Alg1 (ours)".into(),
            "k-SP [3] true".into(),
            "k-SP [3] pred".into(),
        ],
        &rows,
    );

    // File level, ζ sweep, with max cache occupancy.
    let zetas_file: &[f64] = if cfg.full {
        &[1.0, 2.0, 3.0, 4.0]
    } else {
        &[2.0, 4.0]
    };
    let mut rows = Vec::new();
    let mut header = Vec::new();
    for &zeta in zetas_file {
        let mut sc = cfg.seeded(Scenario::file_default());
        sc.kappa_fraction = None;
        sc.zeta = zeta; // counted in videos; converted to size units internally
        let algos = fig5_algos(sc.level, 10);
        let ms = evaluate(&sc, &algos, cfg);
        header = metrics_header(&algos, "zeta(videos)", true);
        rows.push(metrics_row(fmt(zeta), &ms, true));
    }
    print_table(
        "Fig. 5 (file level) — cost and max cache occupancy vs ζ; occupancy > 1 marks the baselines' infeasible placements",
        &header,
        &rows,
    );
}

/// Fig. 6: binary cache capacities — Algorithm 2 (varying K) vs \[33\]
/// (K = 2) vs the splittable lower bound vs RNR. Each table reports how
/// many solves were skipped as infeasible; any other error fails the
/// experiment.
pub fn fig6(cfg: ExpConfig) {
    for level in [Level::Chunk { chunk_mb: 100.0 }, Level::File] {
        let label = match level {
            Level::Chunk { .. } => "chunk level",
            Level::File => "file level",
        };
        // K sweep at the default capacity.
        let ks: &[u32] = if cfg.full {
            &[1, 2, 5, 10, 100, 1000]
        } else {
            &[2, 10, 100]
        };
        let mut rows = Vec::new();
        for &k in ks {
            let p = run_fig6_point(level, 0.007, Fig6Algo::Alg2(k), cfg);
            let tag = if k == 2 {
                format!("{k} (=[33])")
            } else {
                k.to_string()
            };
            rows.push(vec![
                tag,
                fmt(p.cost),
                fmt(p.splittable),
                fmt(p.congestion),
                p.skipped.to_string(),
            ]);
        }
        print_table(
            &format!("Fig. 6 ({label}) — Algorithm 2 vs K (κ = 0.7% of total rate)"),
            &[
                "K".into(),
                "cost".into(),
                "splittable LB".into(),
                "congestion".into(),
                "skipped (infeasible)".into(),
            ],
            &rows,
        );

        // Capacity sweep: Alg2 (best K) vs [33] vs RNR.
        let fractions: &[f64] = if cfg.full {
            &[0.004, 0.007, 0.011, 0.018, 0.028]
        } else {
            &[0.007, 0.014]
        };
        let mut rows = Vec::new();
        for &fr in fractions {
            let best = run_fig6_point(level, fr, Fig6Algo::Alg2(1000), cfg);
            let k2 = run_fig6_point(level, fr, Fig6Algo::Alg2(2), cfg);
            let rnr = run_fig6_point(level, fr, Fig6Algo::Rnr, cfg);
            rows.push(vec![
                fmt(fr),
                fmt(best.cost),
                fmt(best.congestion),
                fmt(k2.cost),
                fmt(k2.congestion),
                fmt(best.splittable),
                fmt(rnr.cost),
                fmt(rnr.congestion),
                format!("{}/{}/{}", best.skipped, k2.skipped, rnr.skipped),
            ]);
        }
        print_table(
            &format!(
                "Fig. 6 ({label}) — cost/congestion vs link capacity κ (fraction of total rate)"
            ),
            &[
                "kappa".into(),
                "Alg2(K=1000):cost".into(),
                "cong".into(),
                "[33](K=2):cost".into(),
                "cong".into(),
                "splittable:cost".into(),
                "RNR:cost".into(),
                "RNR:cong".into(),
                "skipped Alg2/[33]/RNR".into(),
            ],
            &rows,
        );
    }
}

fn fig6_scenario(level: Level, fraction: f64) -> Scenario {
    let mut sc = match level {
        Level::Chunk { .. } => Scenario::chunk_default(),
        Level::File => Scenario::file_default(),
    };
    sc.kappa_fraction = Some(fraction);
    sc
}

/// A binary-cache algorithm of Fig. 6.
#[derive(Clone, Copy, Debug)]
enum Fig6Algo {
    /// Algorithm 2 with `K` demand-rounding classes.
    Alg2(u32),
    /// Routing to the nearest replica, blind to link capacities.
    Rnr,
}

/// Means over every run and hour of one Fig. 6 point.
struct Fig6Point {
    cost: f64,
    congestion: f64,
    /// Mean splittable lower bound (0 for RNR, which computes none).
    splittable: f64,
    /// Solves skipped because the hour's instance is infeasible.
    skipped: usize,
}

/// Runs `algo` on every run and hour of the Fig. 6 scenario. Infeasible
/// hours are counted as skipped.
///
/// # Panics
///
/// On any error other than [`JcrError::Infeasible`]: a rounding or
/// precision failure must fail the experiment, not thin out its means.
fn run_fig6_point(level: Level, fraction: f64, algo: Fig6Algo, cfg: ExpConfig) -> Fig6Point {
    let sc = cfg.seeded(fig6_scenario(level, fraction));
    let n_edges = sc.topology().edge_nodes.len();
    let mut costs = Vec::new();
    let mut congs = Vec::new();
    let mut splits = Vec::new();
    let mut skipped = 0;
    for run in 0..cfg.runs {
        let mut s = sc.clone();
        s.share_seed = s.share_seed.wrapping_add(run as u64 * 1009);
        s.hours = cfg.hours.max(1);
        let demand = s.demand(n_edges);
        for h in 0..s.hours {
            let rates = demand.true_rates(h, n_edges);
            let inst = build_instance(&s, &rates);
            let storer = inst.cache_nodes()[0];
            let solved = match algo {
                Fig6Algo::Alg2(k) => alg2::solve_binary_caches_with_context(
                    &inst,
                    &[storer],
                    k,
                    &SolverContext::new(),
                )
                .map(|sol| (sol.solution, sol.splittable_cost)),
                Fig6Algo::Rnr => alg2::rnr_binary(&inst, &[storer]).map(|sol| (sol, 0.0)),
            };
            match solved {
                Ok((sol, split)) => {
                    costs.push(sol.cost(&inst));
                    congs.push(sol.congestion(&inst));
                    splits.push(split);
                }
                Err(JcrError::Infeasible) => skipped += 1,
                Err(e) => panic!("Fig. 6 {algo:?} at κ = {fraction}, run {run}, hour {h}: {e}"),
            }
        }
    }
    Fig6Point {
        cost: mean(&costs),
        congestion: mean(&congs),
        splittable: mean(&splits),
        skipped,
    }
}

/// Figs. 7 (vs ζ) and 8 (vs κ): the general case.
pub fn fig7(cfg: ExpConfig) {
    general_sweep(cfg, SweepAxis::CacheCapacity);
}

/// See [`fig7`].
pub fn fig8(cfg: ExpConfig) {
    general_sweep(cfg, SweepAxis::LinkCapacity);
}

enum SweepAxis {
    CacheCapacity,
    LinkCapacity,
}

fn general_sweep(cfg: ExpConfig, axis: SweepAxis) {
    for level in [Level::Chunk { chunk_mb: 100.0 }, Level::File] {
        let (label, base) = match level {
            Level::Chunk { .. } => ("chunk level", Scenario::chunk_default()),
            Level::File => ("file level", Scenario::file_default()),
        };
        let base = cfg.seeded(base);
        let points: Vec<(String, Scenario)> = match axis {
            SweepAxis::CacheCapacity => {
                let zetas: &[f64] = match (level, cfg.full) {
                    (Level::Chunk { .. }, true) => &[4.0, 8.0, 12.0, 16.0],
                    (Level::Chunk { .. }, false) => &[6.0, 12.0],
                    (Level::File, true) => &[1.0, 2.0, 3.0],
                    (Level::File, false) => &[2.0, 3.0],
                };
                zetas
                    .iter()
                    .map(|&z| {
                        let mut sc = base.clone();
                        sc.zeta = z;
                        (fmt(z), sc)
                    })
                    .collect()
            }
            SweepAxis::LinkCapacity => {
                let fractions: &[f64] = if cfg.full {
                    &[0.005, 0.007, 0.014, 0.028]
                } else {
                    &[0.007, 0.014]
                };
                fractions
                    .iter()
                    .map(|&fr| {
                        let mut sc = base.clone();
                        sc.kappa_fraction = Some(fr);
                        (fmt(fr), sc)
                    })
                    .collect()
            }
        };
        let axis_name = match axis {
            SweepAxis::CacheCapacity => "zeta",
            SweepAxis::LinkCapacity => "kappa",
        };
        let fig = match axis {
            SweepAxis::CacheCapacity => "Fig. 7",
            SweepAxis::LinkCapacity => "Fig. 8",
        };
        let with_occ = matches!(level, Level::File);
        let mut rows = Vec::new();
        let mut header = Vec::new();
        for (tag, sc) in points {
            let algos = general_algos(sc.share_seed);
            let ms = evaluate(&sc, &algos, cfg);
            header = metrics_header(&algos, axis_name, with_occ);
            rows.push(metrics_row(tag, &ms, with_occ));
        }
        print_table(
            &format!("{fig} ({label}) — general case, varying {axis_name}"),
            &header,
            &rows,
        );
    }
}

/// Fig. 9 / Proposition 4.8: the Nash-equilibrium gadget with unbounded
/// approximation ratio.
pub fn fig9(_cfg: ExpConfig) {
    let mut rows = Vec::new();
    for &eps in &[0.1, 0.01, 0.001] {
        let (ne_cost, opt_cost, driver_cost) = prop48_gadget(eps);
        rows.push(vec![
            fmt(eps),
            fmt(ne_cost),
            fmt(opt_cost),
            fmt(ne_cost / opt_cost),
            fmt(driver_cost),
        ]);
    }
    print_table(
        "Fig. 9 / Prop. 4.8 — the bad NE's cost ratio grows without bound; our driver (origin init) still finds the optimum",
        &[
            "eps".into(),
            "NE cost".into(),
            "OPT cost".into(),
            "ratio".into(),
            "alternating (origin init)".into(),
        ],
        &rows,
    );
}

/// Builds the Fig. 9 gadget and returns
/// `(bad NE cost, optimal cost, our driver's cost)`.
pub fn prop48_gadget(eps: f64) -> (f64, f64, f64) {
    let lambda = 1.0;
    let w = 1.0;
    // Nodes: vs (origin-like, capacity 2), v1, v2, s (client).
    let mut g = DiGraph::new();
    let vs = g.add_node();
    let v1 = g.add_node();
    let v2 = g.add_node();
    let s = g.add_node();
    let mut cost = Vec::new();
    let mut cap = Vec::new();
    for (u, v, c) in [(vs, v1, w), (vs, v2, w), (v1, s, eps), (v2, s, w)] {
        g.add_edge(u, v);
        cost.push(c);
        cap.push(lambda + 1.0);
    }
    let mut cache_cap = vec![0.0; 4];
    cache_cap[v1.index()] = 1.0;
    cache_cap[v2.index()] = 1.0;
    let inst = Instance::new(
        g,
        cost,
        cap,
        cache_cap,
        vec![1.0, 1.0],
        vec![
            Request {
                item: 0,
                node: s,
                rate: lambda,
            },
            Request {
                item: 1,
                node: s,
                rate: eps,
            },
        ],
        Some(vs),
    )
    .expect("gadget is valid");

    // The bad NE: item 0 at v2, item 1 at v1, served via RNR.
    let mut ne = Placement::empty(&inst);
    ne.set(v2, 0, true);
    ne.set(v1, 1, true);
    let ne_routing = rnr::route_to_nearest_replica(&inst, &ne).expect("servable");
    let ne_cost = ne_routing.cost(&inst);
    // The optimum: item 0 at v1, item 1 at v2.
    let mut opt = Placement::empty(&inst);
    opt.set(v1, 0, true);
    opt.set(v2, 1, true);
    let opt_cost = rnr::route_to_nearest_replica(&inst, &opt)
        .expect("servable")
        .cost(&inst);
    let driver = Alternating::new()
        .solve_with_context(&inst, &SolverContext::new())
        .expect("gadget solvable");
    (ne_cost, opt_cost, driver.solution.cost(&inst))
}

/// Fig. 11 (App. D.1): varying the number of videos.
pub fn fig11(cfg: ExpConfig) {
    let counts: &[usize] = if cfg.full { &[4, 6, 8, 10] } else { &[4, 7] };
    let mut rows = Vec::new();
    let mut header = Vec::new();
    for &n in counts {
        let mut sc = cfg.seeded(Scenario::chunk_default());
        sc.n_videos = n;
        let algos = general_algos(sc.share_seed);
        let ms = evaluate(&sc, &algos, cfg);
        header = metrics_header(&algos, "#videos", false);
        let mut row = metrics_row(n.to_string(), &ms, false);
        row[0] = format!("{n} (|C|={})", sc.catalog_size());
        rows.push(row);
    }
    print_table(
        "Fig. 11 — general case, varying #videos (chunk level)",
        &header,
        &rows,
    );
}

/// Fig. 12 (App. D.2): varying the chunk size.
pub fn fig12(cfg: ExpConfig) {
    let sizes: &[f64] = if cfg.full {
        &[100.0, 50.0, 25.0]
    } else {
        &[100.0, 50.0]
    };
    let n_videos = if cfg.full { 10 } else { 5 };
    let mut rows = Vec::new();
    let mut header = Vec::new();
    for &chunk_mb in sizes {
        let mut sc = cfg.seeded(Scenario::chunk_default());
        sc.n_videos = n_videos;
        sc.level = Level::Chunk { chunk_mb };
        // Keep the same cached bytes: ζ scales with 100/chunk_mb.
        sc.zeta = (12.0 * 100.0 / chunk_mb).round();
        let algos = general_algos(sc.share_seed);
        let ms = evaluate(&sc, &algos, cfg);
        // Costs are per *chunk* transfer; normalize to 100-MB units so
        // different chunk sizes are comparable byte-for-byte.
        let scale = chunk_mb / 100.0;
        let normalized: Vec<Metrics> = ms
            .iter()
            .map(|m| Metrics {
                cost_true: m.cost_true * scale,
                cost_pred: m.cost_pred * scale,
                ..*m
            })
            .collect();
        header = metrics_header(&algos, "chunk MB", false);
        let mut row = metrics_row(fmt(chunk_mb), &normalized, false);
        row[0] = format!("{chunk_mb} (|C|={})", sc.catalog_size());
        rows.push(row);
    }
    print_table(
        "Fig. 12 — general case, varying chunk size (same videos, same cached bytes; costs normalized to 100-MB units)",
        &header,
        &rows,
    );
}

/// Fig. 13 (App. D.3): sensitivity to synthetic prediction error.
pub fn fig13(cfg: ExpConfig) {
    let sigmas: &[f64] = if cfg.full {
        &[0.0, 0.1, 0.2, 0.5, 1.0]
    } else {
        &[0.0, 0.3, 1.0]
    };
    let sc = cfg.seeded(Scenario::chunk_default());
    let n_edges = sc.topology().edge_nodes.len();
    let algos = general_algos(sc.share_seed);
    let run_ctx = default_factory();
    let mut rows = Vec::new();
    for &sigma_rel in sigmas {
        let mut acc = vec![(Vec::new(), Vec::new()); algos.len()];
        for run in 0..cfg.runs {
            let mut s = sc.clone();
            s.share_seed = s.share_seed.wrapping_add(run as u64 * 1009);
            s.hours = cfg.hours.max(1);
            let demand = s.demand(n_edges);
            let mut rng = StdRng::seed_from_u64(4242 + run as u64);
            for h in 0..s.hours {
                let true_rates = demand.true_rates(h, n_edges);
                let flat_true: Vec<f64> = flatten_rates(&true_rates)
                    .into_iter()
                    .map(|r| r.max(1e-6))
                    .collect();
                let sigma = sigma_rel * mean(&flat_true);
                let noisy: Vec<Vec<f64>> = true_rates
                    .iter()
                    .map(|row| jcr_trace::synth::perturb_demand(row, sigma, &mut rng))
                    .collect();
                let inst = build_instance(&s, &noisy);
                for (ai, algo) in algos.iter().enumerate() {
                    if let Ok(sol) = (algo.run)(&inst, &run_ctx) {
                        let (cost, cong) = sol.evaluate_under(&inst, &flat_true);
                        acc[ai].0.push(cost);
                        acc[ai].1.push(cong);
                    }
                }
            }
        }
        let mut row = vec![fmt(sigma_rel)];
        for (costs, congs) in &acc {
            row.push(fmt(mean(costs)));
            row.push(fmt(mean(congs)));
        }
        rows.push(row);
    }
    let mut header = vec!["sigma/mean".to_string()];
    for a in &algos {
        header.push(format!("{}:cost", a.name));
        header.push("cong".into());
    }
    print_table(
        "Fig. 13 — sensitivity to synthetic prediction error N(0, σ²) (chunk level)",
        &header,
        &rows,
    );
}

/// Fig. 15 (App. D.4): varying network topology.
pub fn fig15(cfg: ExpConfig) {
    let kinds = [
        TopologyKind::Abvt,
        TopologyKind::Tinet,
        TopologyKind::Deltacom,
    ];
    let mut rows = Vec::new();
    let mut header = Vec::new();
    for kind in kinds {
        let mut sc = cfg.seeded(Scenario::chunk_default());
        sc.kind = kind;
        if !cfg.full {
            sc.n_videos = 6;
        }
        let algos = general_algos(sc.share_seed);
        let ms = evaluate(&sc, &algos, cfg);
        header = metrics_header(&algos, "topology", false);
        rows.push(metrics_row(kind.name().to_string(), &ms, false));
    }
    print_table(
        "Fig. 15 — general case on Abvt / Tinet / Deltacom",
        &header,
        &rows,
    );
}

/// The IC-IR / IC-FR / FC-FR trade-off of §2.4 (complexity vs routing
/// cost vs implementation requirements, Fig. 1's three tractable cases).
pub fn cases(cfg: ExpConfig) {
    use jcr_core::fcfr;
    let mut rows = Vec::new();
    for seed in 0..cfg.runs.max(1) as u64 {
        // Small instances so the exact FC-FR LP stays cheap.
        let topo = jcr_topo::Topology::generate_custom(10, 13, 3, seed)
            .expect("10-node/13-link/3-edge shape is generator-valid for any seed");
        let inst = InstanceBuilder::new(topo)
            .items(5)
            .cache_capacity(2.0)
            .zipf_demand(0.9, 200.0, seed)
            .link_capacity_fraction(0.05)
            .build()
            .expect("builder scenarios are feasible by construction");
        let fcfr_cost = fcfr::solve_fcfr_with_context(&inst, &SolverContext::new())
            .map(|s| s.cost)
            .unwrap_or(f64::NAN);
        let icfr = Alternating {
            integral_routing: false,
            seed,
            ..Alternating::default()
        }
        .solve_with_context(&inst, &SolverContext::new())
        .map(|r| (r.solution.cost(&inst), r.solution.congestion(&inst)))
        .unwrap_or((f64::NAN, f64::NAN));
        let icir = Alternating {
            seed,
            ..Alternating::default()
        }
        .solve_with_context(&inst, &SolverContext::new())
        .map(|r| (r.solution.cost(&inst), r.solution.congestion(&inst)))
        .unwrap_or((f64::NAN, f64::NAN));
        rows.push(vec![
            seed.to_string(),
            fmt(fcfr_cost),
            fmt(icfr.0),
            fmt(icfr.1),
            fmt(icir.0),
            fmt(icir.1),
            fmt(icir.0 / fcfr_cost),
        ]);
    }
    if cfg.full {
        // Full evaluation scale via the column-generation FC-FR solver.
        let mut sc = cfg.seeded(Scenario::chunk_default());
        sc.hours = 1;
        let n_edges = sc.topology().edge_nodes.len();
        let demand = sc.demand(n_edges);
        let inst = build_instance(&sc, &demand.true_rates(0, n_edges));
        let fcfr_cost = fcfr::solve_fcfr_cg_with_context(&inst, &SolverContext::new())
            .map(|s| s.cost)
            .unwrap_or(f64::NAN);
        let icir = Alternating::default()
            .solve_with_context(&inst, &SolverContext::new())
            .map(|r| (r.solution.cost(&inst), r.solution.congestion(&inst)))
            .unwrap_or((f64::NAN, f64::NAN));
        rows.push(vec![
            "full-scale".into(),
            fmt(fcfr_cost),
            "-".into(),
            "-".into(),
            fmt(icir.0),
            fmt(icir.1),
            fmt(icir.0 / fcfr_cost),
        ]);
    }
    print_table(
        "§2.4 — the three cases on a common instance (FC-FR exactly lower-bounds every capacity-feasible solution; an IC-IR undercut implies congestion > 1)",
        &[
            "seed".into(),
            "FC-FR (LP)".into(),
            "IC-FR:cost".into(),
            "cong".into(),
            "IC-IR:cost".into(),
            "cong".into(),
            "IC-IR/FC-FR".into(),
        ],
        &rows,
    );
}

/// The conference version's synthetic Zipf workload: cost vs the Zipf
/// skew α under the general case.
pub fn zipf(cfg: ExpConfig) {
    let alphas: &[f64] = if cfg.full {
        &[0.2, 0.5, 0.8, 1.1, 1.4]
    } else {
        &[0.4, 0.8, 1.2]
    };
    let mut rows = Vec::new();
    let mut header = Vec::new();
    for &alpha in alphas {
        let mut costs: Vec<Vec<f64>> = vec![Vec::new(); 4];
        let mut congs: Vec<Vec<f64>> = vec![Vec::new(); 4];
        for run in 0..cfg.runs {
            let seed = 100 + run as u64;
            let topo = jcr_topo::Topology::generate(TopologyKind::Abovenet, 1)
                .expect("built-in kinds generate");
            let inst = InstanceBuilder::new(topo)
                .items(30)
                .cache_capacity(6.0)
                .zipf_demand(alpha, 10_000.0, seed)
                .link_capacity_fraction(0.01)
                .build()
                .expect("builder scenarios are feasible by construction");
            let algos = general_algos(seed);
            let run_ctx = default_factory();
            for (ai, algo) in algos.iter().enumerate() {
                if let Ok(sol) = (algo.run)(&inst, &run_ctx) {
                    costs[ai].push(sol.cost(&inst));
                    congs[ai].push(sol.congestion(&inst));
                }
            }
            if header.is_empty() {
                header = vec!["alpha".to_string()];
                for a in &algos {
                    header.push(format!("{}:cost", a.name));
                    header.push("cong".into());
                }
            }
        }
        let mut row = vec![fmt(alpha)];
        for ai in 0..4 {
            row.push(fmt(mean(&costs[ai])));
            row.push(fmt(mean(&congs[ai])));
        }
        rows.push(row);
    }
    print_table(
        "Synthetic Zipf workload (conference version [1]) — cost/congestion vs skew α",
        &header,
        &rows,
    );
}

/// Convergence of the alternating optimization (the paper reports
/// convergence within 10 iterations in all evaluated cases).
pub fn convergence(cfg: ExpConfig) {
    let mut rows = Vec::new();
    let mut max_iters_seen = 0usize;
    for run in 0..cfg.runs.max(1) {
        let mut sc = cfg.seeded(Scenario::chunk_default());
        sc.share_seed = sc.share_seed.wrapping_add(run as u64 * 1009);
        sc.hours = 1;
        let n_edges = sc.topology().edge_nodes.len();
        let demand = sc.demand(n_edges);
        let rates = demand.true_rates(0, n_edges);
        let inst = build_instance(&sc, &rates);
        let result = Alternating {
            seed: run as u64,
            ..Alternating::default()
        }
        .solve_with_context(&inst, &SolverContext::new())
        .expect("default scenario is feasible");
        max_iters_seen = max_iters_seen.max(result.iterations);
        for (t, (congestion, cost)) in result.history.iter().enumerate() {
            rows.push(vec![
                run.to_string(),
                t.to_string(),
                fmt(*cost),
                fmt(*congestion),
            ]);
        }
    }
    print_table(
        "Convergence — accepted (cost, congestion) per alternating iteration (iteration 0 = origin-only init)",
        &["run".into(), "iter".into(), "cost".into(), "congestion".into()],
        &rows,
    );
    println!("max iterations to convergence: {max_iters_seen} (paper: within 10)");
}

/// The online protocol end to end: hourly re-optimization on GPR
/// forecasts with warm starts, reporting realized cost, congestion, cache
/// churn, and the regret against a truth-knowing oracle.
///
/// # Errors
///
/// [`HorizonError`](crate::HorizonError) when `cfg.hours` runs past the
/// trace's evaluation horizon; nothing is solved then.
pub fn online(cfg: ExpConfig) -> Result<(), crate::HorizonError> {
    use jcr_core::online::OnlineSimulator;
    let mut sc = cfg.seeded(Scenario::chunk_default());
    sc.n_videos = if cfg.full { 10 } else { 6 };
    sc.hours = cfg.online_hours();
    sc.check_horizon()?;
    let n_edges = sc.topology().edge_nodes.len();
    let demand = sc.demand(n_edges);
    let mut sim = OnlineSimulator::new(Alternating::new());
    let mut rows = Vec::new();
    for h in 0..sc.hours {
        let true_rates = demand.true_rates(h, n_edges);
        let pred_rates = demand.predicted_rates(h, n_edges);
        let inst_pred = build_instance(&sc, &pred_rates);
        let inst_true = build_instance(&sc, &true_rates);
        let flat_true: Vec<f64> = flatten_rates(&true_rates)
            .into_iter()
            .map(|r| r.max(1e-6))
            .collect();
        let outcome = sim.step(&inst_pred, &flat_true).expect("feasible hour");
        let oracle = Alternating::new()
            .solve_with_context(&inst_true, &SolverContext::new())
            .expect("feasible hour")
            .solution
            .cost(&inst_true);
        rows.push(vec![
            h.to_string(),
            fmt(outcome.realized_cost),
            fmt(oracle),
            format!("{:.1}%", 100.0 * (outcome.realized_cost / oracle - 1.0)),
            fmt(outcome.realized_congestion),
            outcome.placement_churn.to_string(),
        ]);
    }
    print_table(
        "Online protocol — hourly re-optimization on GPR forecasts (warm-started)",
        &[
            "hour".into(),
            "realized cost".into(),
            "oracle cost".into(),
            "regret".into(),
            "congestion".into(),
            "cache churn".into(),
        ],
        &rows,
    );
    Ok(())
}

/// Ablations of the design choices DESIGN.md calls out: the placement
/// subroutine (pipage LP vs greedy), the MMUFP heuristic (LP + randomized
/// rounding vs greedy sequential), the number of rounding draws, and the
/// online warm start.
pub fn ablation(cfg: ExpConfig) {
    use jcr_core::alternating::{PlacementMethod, RoutingMethod};
    use jcr_core::online::OnlineSimulator;
    // One representative instance per run; all variants solve the same ones.
    let mut variants: Vec<(String, Alternating)> = vec![
        (
            "pipage-LP + LP-rounding (default)".into(),
            Alternating::default(),
        ),
        (
            "greedy placement".into(),
            Alternating {
                placement: Some(PlacementMethod::Greedy),
                ..Alternating::default()
            },
        ),
        (
            "greedy sequential routing".into(),
            Alternating {
                routing: RoutingMethod::GreedySequential,
                ..Alternating::default()
            },
        ),
    ];
    for &draws in &[1usize, 10, 50] {
        variants.push((
            format!("rounding draws = {draws}"),
            Alternating {
                rounding_draws: draws,
                ..Alternating::default()
            },
        ));
    }
    let mut rows = Vec::new();
    for (name, base_cfg) in &variants {
        let mut costs = Vec::new();
        let mut congs = Vec::new();
        let mut iters = Vec::new();
        for run in 0..cfg.runs.max(1) {
            let mut sc = cfg.seeded(Scenario::chunk_default());
            sc.share_seed = sc.share_seed.wrapping_add(run as u64 * 1009);
            sc.hours = 1;
            let n_edges = sc.topology().edge_nodes.len();
            let demand = sc.demand(n_edges);
            let inst = build_instance(&sc, &demand.true_rates(0, n_edges));
            let mut solver = base_cfg.clone();
            solver.seed = run as u64;
            if let Ok(result) = solver.solve_with_context(&inst, &SolverContext::new()) {
                costs.push(result.solution.cost(&inst));
                congs.push(result.solution.congestion(&inst));
                iters.push(result.iterations as f64);
            }
        }
        rows.push(vec![
            name.clone(),
            fmt(mean(&costs)),
            fmt(mean(&congs)),
            fmt(mean(&iters)),
        ]);
    }
    print_table(
        "Ablation — alternating-optimization design choices (chunk level, default setting)",
        &[
            "variant".into(),
            "cost".into(),
            "congestion".into(),
            "iterations".into(),
        ],
        &rows,
    );

    // Warm vs cold online start.
    let mut rows = Vec::new();
    for (label, warm) in [("warm start", true), ("cold start", false)] {
        let mut sc = cfg.seeded(Scenario::chunk_default());
        sc.n_videos = 6;
        sc.hours = cfg.online_hours();
        let n_edges = sc.topology().edge_nodes.len();
        let demand = sc.demand(n_edges);
        let mut sim = OnlineSimulator::new(Alternating::new());
        sim.warm_start = warm;
        let mut costs = Vec::new();
        let mut churns = Vec::new();
        for h in 0..sc.hours {
            let true_rates = demand.true_rates(h, n_edges);
            let pred_rates = demand.predicted_rates(h, n_edges);
            let inst_pred = build_instance(&sc, &pred_rates);
            let flat_true: Vec<f64> = flatten_rates(&true_rates)
                .into_iter()
                .map(|r| r.max(1e-6))
                .collect();
            let outcome = sim.step(&inst_pred, &flat_true).expect("feasible hour");
            costs.push(outcome.realized_cost);
            churns.push(outcome.placement_churn as f64);
        }
        rows.push(vec![
            label.to_string(),
            fmt(mean(&costs)),
            fmt(mean(&churns)),
        ]);
    }
    print_table(
        "Ablation — online warm start vs cold start (realized cost and hourly cache churn)",
        &[
            "variant".into(),
            "realized cost".into(),
            "mean churn".into(),
        ],
        &rows,
    );
}

/// Figs. 3/14 analogue: emits Graphviz DOT renderings of the evaluation
/// topologies (origin red, edge nodes blue, internal grey) to stdout.
pub fn topology(_cfg: ExpConfig) {
    for kind in [
        TopologyKind::Abovenet,
        TopologyKind::Abvt,
        TopologyKind::Tinet,
        TopologyKind::Deltacom,
    ] {
        let topo = jcr_topo::Topology::generate(kind, 1).expect("built-in kinds generate");
        println!(
            "\n// ---- {kind} ({} nodes, {} links) ----",
            topo.graph.node_count(),
            topo.graph.edge_count() / 2
        );
        println!("{}", topo.to_dot());
    }
}

/// Request-level simulation: the optimized static placement versus
/// reactive LRU/LFU caching, measured on actual Poisson arrivals (an
/// extension beyond the paper's fluid-model evaluation).
pub fn sim(cfg: ExpConfig) {
    use jcr_sim::policy::{ReactivePolicy, Replacement, StaticPolicy};
    use jcr_sim::Simulator;
    // Scaled-down demand (the simulator bills per event).
    let topo =
        jcr_topo::Topology::generate(TopologyKind::Abovenet, 1).expect("built-in kinds generate");
    let inst = InstanceBuilder::new(topo)
        .items(30)
        .cache_capacity(6.0)
        .zipf_demand(0.8, 50_000.0, 7)
        .link_capacity_fraction(0.01)
        .build()
        .expect("builder scenarios are feasible by construction");
    let horizon = if cfg.full { 8.0 } else { 2.0 };
    let simulator = Simulator {
        horizon,
        seed: 13,
        ..Simulator::default()
    };

    let optimized = Alternating::new()
        .solve_with_context(&inst, &SolverContext::new())
        .expect("feasible")
        .solution;
    let fluid_cost = optimized.cost(&inst);
    let mut rows = Vec::new();
    {
        let mut policy = StaticPolicy::new(&optimized);
        let report = simulator.run(&inst, &mut policy);
        rows.push(vec![
            "optimized (alternating)".into(),
            fmt(report.cost_rate()),
            fmt(report.congestion(&inst)),
            fmt(report.local_hit_ratio),
            report.requests_served.to_string(),
        ]);
    }
    for (name, discipline) in [("LRU", Replacement::Lru), ("LFU", Replacement::Lfu)] {
        let mut policy = ReactivePolicy::new(&inst, discipline);
        let report = simulator.run(&inst, &mut policy);
        rows.push(vec![
            format!("reactive {name}"),
            fmt(report.cost_rate()),
            fmt(report.congestion(&inst)),
            fmt(report.local_hit_ratio),
            report.requests_served.to_string(),
        ]);
    }
    print_table(
        "Request-level simulation — optimized placement vs reactive caching (Poisson arrivals)",
        &[
            "policy".into(),
            "cost/hour".into(),
            "congestion".into(),
            "local hit ratio".into(),
            "#requests".into(),
        ],
        &rows,
    );
    println!(
        "fluid-model cost of the optimized solution: {} (empirical should match)",
        fmt(fluid_cost)
    );
}

/// Empirical optimality gaps on brute-forceable instances: the paper
/// claims the alternating heuristic performs well despite Prop. 4.8's
/// worst case; here it is measured against the *exact* IC-IR optimum.
pub fn gap(cfg: ExpConfig) {
    use jcr_core::exact::ExactIcIr;
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for seed in 0..(3 * cfg.runs.max(1)) as u64 {
        let inst = InstanceBuilder::new(
            jcr_topo::Topology::generate_custom(7, 8, 2, seed)
                .expect("7-node/8-link/2-edge shape is generator-valid for any seed"),
        )
        .items(3)
        .cache_capacity(1.0)
        .zipf_demand(0.9, 50.0, seed)
        .link_capacity_fraction(0.3)
        .build()
        .expect("builder scenarios are feasible by construction");
        let Ok(exact) = (ExactIcIr {
            max_paths: 4,
            ..ExactIcIr::default()
        })
        .solve(&inst) else {
            continue;
        };
        let Ok(alt) = (Alternating {
            seed,
            ..Alternating::default()
        })
        .solve_with_context(&inst, &SolverContext::new()) else {
            continue;
        };
        let opt = exact.cost(&inst);
        let heur = alt.solution.cost(&inst);
        let feasible = alt.solution.congestion(&inst) <= 1.0 + 1e-6;
        let ratio = heur / opt;
        if feasible {
            ratios.push(ratio);
        }
        rows.push(vec![
            seed.to_string(),
            fmt(opt),
            fmt(heur),
            fmt(ratio),
            if feasible { "yes".into() } else { "no".into() },
        ]);
    }
    print_table(
        "Optimality gap — alternating vs exact IC-IR on brute-forceable instances",
        &[
            "seed".into(),
            "exact OPT".into(),
            "alternating".into(),
            "ratio".into(),
            "feasible".into(),
        ],
        &rows,
    );
    if !ratios.is_empty() {
        println!(
            "mean feasible ratio: {:.4} over {} instances (Prop. 4.8's worst case is unbounded)",
            mean(&ratios),
            ratios.len()
        );
    }
}

// ----- tables ----------------------------------------------------------------

/// Table 1: the embedded video statistics plus derived catalog sizes.
pub fn table1(_cfg: ExpConfig) {
    let rows: Vec<Vec<String>> = TABLE1
        .iter()
        .map(|v| {
            vec![
                v.id.to_string(),
                fmt(v.size_mb),
                v.chunks_100mb.to_string(),
                v.total_views.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table 1 — YouTube video statistics (embedded verbatim)",
        &[
            "video_id".into(),
            "size (MB)".into(),
            "#100-MB chunks".into(),
            "total #views".into(),
        ],
        &rows,
    );
    println!(
        "derived: top-10 catalog = {} chunks @100MB, {} @50MB, {} @25MB; total rate = {:.2} chunks/hour",
        jcr_trace::videos::catalog_size(10, 100.0),
        jcr_trace::videos::catalog_size(10, 50.0),
        jcr_trace::videos::catalog_size(10, 25.0),
        jcr_trace::videos::total_chunk_rate(10, 100.0),
    );
}

/// Table 2: the qualitative summary, with measured numbers attached.
pub fn table2(cfg: ExpConfig) {
    // Scenario 1: unlimited links.
    let mut sc = cfg.seeded(Scenario::chunk_default());
    sc.kappa_fraction = None;
    let algos = fig5_algos(sc.level, 10);
    let ms = evaluate(&sc, &algos, cfg);
    let mut rows = Vec::new();
    for (a, m) in algos.iter().zip(&ms) {
        rows.push(vec![
            "c_uv = inf".into(),
            a.name.clone(),
            fmt(m.cost_true),
            "-".into(),
        ]);
    }
    // Scenario 2: binary cache capacities.
    let chunk = Level::Chunk { chunk_mb: 100.0 };
    let a2 = run_fig6_point(chunk, 0.007, Fig6Algo::Alg2(1000), cfg);
    let k2 = run_fig6_point(chunk, 0.007, Fig6Algo::Alg2(2), cfg);
    let rnr = run_fig6_point(chunk, 0.007, Fig6Algo::Rnr, cfg);
    rows.push(vec![
        "c_v = 0/|C|".into(),
        "Alg2 (K=1000)".into(),
        fmt(a2.cost),
        fmt(a2.congestion),
    ]);
    rows.push(vec![
        "c_v = 0/|C|".into(),
        "[33] (K=2)".into(),
        fmt(k2.cost),
        fmt(k2.congestion),
    ]);
    rows.push(vec![
        "c_v = 0/|C|".into(),
        "[3] (RNR)".into(),
        fmt(rnr.cost),
        fmt(rnr.congestion),
    ]);
    // Scenario 3: general case.
    let sc = cfg.seeded(Scenario::chunk_default());
    let algos = general_algos(sc.share_seed);
    let ms = evaluate(&sc, &algos, cfg);
    for (a, m) in algos.iter().zip(&ms) {
        rows.push(vec![
            "general".into(),
            a.name.clone(),
            fmt(m.cost_true),
            fmt(m.congestion_true),
        ]);
    }
    print_table(
        "Table 2 — summary of evaluation results (chunk level, IC-IR)",
        &[
            "scenario".into(),
            "algorithm".into(),
            "routing cost".into(),
            "congestion".into(),
        ],
        &rows,
    );
}

/// Tables 3–4: average execution time per algorithm.
pub fn table3(cfg: ExpConfig) {
    timing_table(
        Scenario::chunk_default(),
        "Table 3 — execution time, chunk level",
        cfg,
    );
}

/// See [`table3`].
pub fn table4(cfg: ExpConfig) {
    timing_table(
        Scenario::file_default(),
        "Table 4 — execution time, file level",
        cfg,
    );
}

fn timing_table(base: Scenario, title: &str, cfg: ExpConfig) {
    let mut sc = cfg.seeded(base);
    let n_edges = sc.topology().edge_nodes.len();
    sc.hours = 1;
    let demand = sc.demand(n_edges);
    let rates = demand.true_rates(0, n_edges);

    // Uncapacitated variant for the c_uv = ∞ scenario.
    let mut sc_unlim = sc.clone();
    sc_unlim.kappa_fraction = None;
    let inst_unlim = build_instance(&sc_unlim, &rates);
    let inst = build_instance(&sc, &rates);
    let storer = inst.cache_nodes()[0];

    let chunk_level = matches!(sc.level, Level::Chunk { .. });
    let ours_name = if chunk_level { "Alg1" } else { "greedy" };
    type TimedRun<'a> = (&'a str, &'a str, Box<dyn Fn() + 'a>);
    let timed: Vec<TimedRun> = vec![
        (
            "c_uv = inf",
            ours_name,
            if chunk_level {
                let i = inst_unlim.clone();
                Box::new(move || {
                    let _ = Algorithm1::new().solve_with_context(&i, &SolverContext::new());
                })
            } else {
                let i = inst_unlim.clone();
                Box::new(move || {
                    let _ = greedy_rnr(&i, &jcr_ctx::SolverContext::new());
                })
            },
        ),
        ("c_uv = inf", "[3] k shortest paths", {
            let i = inst_unlim.clone();
            Box::new(move || {
                let _ = IoannidisYeh::k_shortest(10).solve_with_context(&i, &SolverContext::new());
            })
        }),
        ("c_uv = inf", "[38] shortest path", {
            let i = inst_unlim.clone();
            Box::new(move || {
                let _ = ShortestPathPlacement.solve_with_context(&i, &SolverContext::new());
            })
        }),
        ("c_v = 0/|C|", "Alg2 (K=1000)", {
            let i = inst.clone();
            Box::new(move || {
                let _ = alg2::solve_binary_caches_with_context(
                    &i,
                    &[storer],
                    1000,
                    &SolverContext::new(),
                );
            })
        }),
        ("c_v = 0/|C|", "[33] (K=2)", {
            let i = inst.clone();
            Box::new(move || {
                let _ =
                    alg2::solve_binary_caches_with_context(&i, &[storer], 2, &SolverContext::new());
            })
        }),
        ("c_v = 0/|C|", "[3] RNR", {
            let i = inst.clone();
            Box::new(move || {
                let _ = alg2::rnr_binary(&i, &[storer]);
            })
        }),
        ("general", "alternating", {
            let i = inst.clone();
            Box::new(move || {
                let _ = Alternating::new().solve_with_context(&i, &SolverContext::new());
            })
        }),
        ("general", "[38] SP", {
            let i = inst.clone();
            Box::new(move || {
                let _ = ShortestPathPlacement.solve_with_context(&i, &SolverContext::new());
            })
        }),
        ("general", "[3] SP + RNR", {
            let i = inst.clone();
            Box::new(move || {
                let _ = IoannidisYeh::sp_rnr().solve_with_context(&i, &SolverContext::new());
            })
        }),
        ("general", "[3] k-SP + RNR", {
            let i = inst.clone();
            Box::new(move || {
                let _ = IoannidisYeh::ksp_rnr(10).solve_with_context(&i, &SolverContext::new());
            })
        }),
    ];
    let reps = cfg.runs.max(1);
    let mut rows = Vec::new();
    for (scenario, name, f) in &timed {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        let avg = start.elapsed().as_secs_f64() / reps as f64;
        rows.push(vec![
            (*scenario).to_string(),
            (*name).to_string(),
            format!("{avg:.4}"),
        ]);
    }
    print_table(
        title,
        &[
            "scenario".into(),
            "algorithm".into(),
            "avg execution time (s)".into(),
        ],
        &rows,
    );
}

/// Solver-work table: runs each pipeline once under a fresh
/// [`jcr_ctx::SolverContext`] on the chunk-default scenario and prints the
/// instrumentation counters (pivots, pricing Dijkstras, generated columns,
/// decomposition paths, rounding passes) plus total wall time — the
/// operational complement to the paper's Table 3 timing comparison.
pub fn stats(cfg: ExpConfig) {
    use jcr_ctx::{Counter, SolverContext};

    let sc = cfg.seeded(Scenario::chunk_default());
    let n_edges = sc.topology().edge_nodes.len();
    let rates = sc.demand(n_edges).true_rates(0, n_edges);
    let inst = build_instance(&sc, &rates);
    let storer = inst.cache_nodes()[0];

    type Run<'a> = Box<dyn Fn(&SolverContext) + 'a>;
    let solvers: Vec<(&str, Run)> = vec![
        (
            "Alg1",
            Box::new(|ctx| {
                let _ = Algorithm1::new().solve_with_context(&inst, ctx);
            }),
        ),
        (
            "Alg2 (K=8)",
            Box::new(|ctx| {
                let _ = alg2::solve_binary_caches_with_context(&inst, &[storer], 8, ctx);
            }),
        ),
        (
            "alternating",
            Box::new(|ctx| {
                let _ = Alternating::new().solve_with_context(&inst, ctx);
            }),
        ),
        (
            "FC-FR (CG)",
            Box::new(|ctx| {
                let _ = fcfr::solve_fcfr_cg_with_context(&inst, ctx);
            }),
        ),
        (
            "[3] k-SP + RNR",
            Box::new(|ctx| {
                let _ = IoannidisYeh::ksp_rnr(10).solve_with_context(&inst, ctx);
            }),
        ),
    ];

    let mut rows = Vec::new();
    for (name, run) in &solvers {
        let ctx = SolverContext::new();
        let start = Instant::now();
        run(&ctx);
        let elapsed = start.elapsed().as_secs_f64();
        let s = ctx.stats();
        let mut row = vec![(*name).to_string()];
        row.extend(Counter::ALL.iter().map(|&c| s.counter(c).to_string()));
        row.push(format!("{elapsed:.4}"));
        rows.push(row);
    }
    let mut header = vec!["algorithm".to_string()];
    header.extend(Counter::ALL.iter().map(|c| c.name().to_string()));
    header.push("time (s)".into());
    print_table(
        "Solver statistics — chunk level, one solve per pipeline",
        &header,
        &rows,
    );

    // Monte-Carlo aggregation: the same counters across runs × hours of
    // the alternating solver, reported as mean and max per counter (how
    // much work a typical vs worst hour costs). Runs fan out over the
    // pool; per-solve contexts come from one factory (fresh single-worker
    // context per solve, so the fan-out stays one level deep) and are
    // absorbed into the sweep context, so the whole sweep accumulates one
    // metrics registry whose histograms are summarized below.
    let sweep = cfg.pool_ctx();
    let runs: Vec<usize> = (0..cfg.runs.max(1)).collect();
    let _s = sweep.span("exp.stats_sweep");
    let per_run: Vec<Vec<jcr_ctx::SolverStats>> =
        jcr_ctx::par::par_map(&sweep, &runs, |wctx, _, &run| {
            let mut s = cfg.seeded(Scenario::chunk_default());
            s.share_seed = s.share_seed.wrapping_add(run as u64 * 1009);
            s.hours = cfg.hours.max(1);
            let demand = s.demand(n_edges);
            let mut local = Vec::with_capacity(s.hours);
            for h in 0..s.hours {
                let inst = build_instance(&s, &demand.true_rates(h, n_edges));
                let ctx = crate::exp::default_factory();
                let solver = Alternating {
                    seed: run as u64,
                    ..Alternating::default()
                };
                let _ = solver.solve_with_context(&inst, &ctx);
                local.push(ctx.stats());
                wctx.absorb_obs(&ctx.obs_snapshot());
            }
            local
        });
    let samples: Vec<jcr_ctx::SolverStats> = per_run.into_iter().flatten().collect();
    let mut rows = Vec::new();
    for &c in Counter::ALL.iter() {
        let values: Vec<f64> = samples.iter().map(|s| s.counter(c) as f64).collect();
        let max = values.iter().fold(0.0f64, |a, &b| a.max(b));
        rows.push(vec![c.name().to_string(), fmt(mean(&values)), fmt(max)]);
    }
    print_table(
        &format!(
            "Solver statistics — alternating, aggregated over {} solves (runs × hours)",
            samples.len()
        ),
        &["counter".into(), "mean".into(), "max".into()],
        &rows,
    );

    // Histogram summaries from the sweep's shared registry (pivot times,
    // basis-solve fill-in, heap pops, pricing rounds, pool chunks …).
    let snap = sweep.obs_snapshot();
    print_table(
        &format!(
            "Metric histograms — shared registry over {} solves (p50/p95 are log₂-bucket upper bounds)",
            samples.len()
        ),
        &crate::profile::histogram_header(),
        &crate::profile::histogram_rows(&snap),
    );
}

/// Fault-injection sweep: the online loop's anytime degradation ladder
/// under seeded link/node failures, capacity cuts, demand spikes, and
/// solver-budget trips, sweeping the per-class fault probability. Reports
/// realized cost, cache churn, the number of injected faults, and the
/// histogram of ladder rungs that served the hours — the ladder's
/// acceptance criterion is that every hour is served (no errors) no
/// matter the fault rate.
pub fn faults(cfg: ExpConfig) {
    use std::time::Duration;

    use jcr_core::online::{AnytimeConfig, OnlineSimulator, Rung};
    use jcr_ctx::Budget;
    use jcr_sim::faults::{FaultConfig, FaultInjector};

    let rates: &[f64] = if cfg.full {
        &[0.0, 0.1, 0.25, 0.5]
    } else {
        &[0.0, 0.35]
    };
    let mut sc = cfg.seeded(Scenario::chunk_default());
    sc.n_videos = if cfg.full { 10 } else { 6 };
    sc.hours = cfg.online_hours();
    let n_edges = sc.topology().edge_nodes.len();
    let base_budget = Budget::deadline(Duration::from_secs(10));

    let mut rows = Vec::new();
    for &rate in rates {
        // Each Monte-Carlo run is an independent simulation (own injector,
        // own simulator state); fan runs out over the pool and merge their
        // samples in run order so the aggregates are worker-count
        // independent. Per-hour solves inside a run stay serial.
        let runs: Vec<usize> = (0..cfg.runs.max(1)).collect();
        type FaultSamples = (Vec<f64>, Vec<f64>, usize, [usize; Rung::ALL.len()]);
        let pool = cfg.pool_ctx();
        let _s = pool.span("exp.fault_sweep");
        let per_run: Vec<FaultSamples> = jcr_ctx::par::par_map(&pool, &runs, |_, _, &run| {
            let mut s = sc.clone();
            s.share_seed = s.share_seed.wrapping_add(run as u64 * 1009);
            let demand = s.demand(n_edges);
            let injector = FaultInjector::new(FaultConfig::uniform(
                cfg.seed.wrapping_add(run as u64 * 7919),
                rate,
            ));
            let mut sim = OnlineSimulator::new(Alternating {
                seed: run as u64,
                ..Alternating::default()
            });
            let mut costs = Vec::new();
            let mut churns = Vec::new();
            let mut fault_count = 0usize;
            let mut hist = [0usize; Rung::ALL.len()];
            for h in 0..s.hours {
                let true_rates = demand.true_rates(h, n_edges);
                let pred_rates = demand.predicted_rates(h, n_edges);
                let base = build_instance(&s, &pred_rates);
                let faulted = injector.inject(h, &base, base_budget);
                fault_count += faulted.events.len();
                // Demand spikes scale rates but never change the request
                // set or order, so the flattened truth stays aligned.
                let flat_true: Vec<f64> = flatten_rates(&true_rates)
                    .into_iter()
                    .map(|r| r.max(1e-6))
                    .collect();
                let cfg_hour = AnytimeConfig::new().with_budget(faulted.budget);
                let outcome = sim
                    .step_anytime(&faulted.instance, &flat_true, &cfg_hour)
                    .expect("the ladder serves every servable hour");
                hist[outcome.rung.index()] += 1;
                costs.push(outcome.realized_cost);
                churns.push(outcome.placement_churn as f64);
            }
            (costs, churns, fault_count, hist)
        });
        let mut costs = Vec::new();
        let mut churns = Vec::new();
        let mut fault_count = 0usize;
        let mut hist = [0usize; Rung::ALL.len()];
        for (run_costs, run_churns, run_faults, run_hist) in per_run {
            costs.extend(run_costs);
            churns.extend(run_churns);
            fault_count += run_faults;
            for (dst, src) in hist.iter_mut().zip(run_hist) {
                *dst += src;
            }
        }
        let mut row = vec![
            fmt(rate),
            fmt(mean(&costs)),
            fmt(mean(&churns)),
            fault_count.to_string(),
        ];
        row.extend(hist.iter().map(usize::to_string));
        rows.push(row);
    }
    let mut header = vec![
        "fault rate".to_string(),
        "realized cost".into(),
        "mean churn".into(),
        "#faults".into(),
    ];
    header.extend(Rung::ALL.iter().map(|r| r.name().to_string()));
    print_table(
        "Fault injection — realized cost, churn, and the rung histogram of the anytime ladder vs fault rate",
        &header,
        &rows,
    );
}
