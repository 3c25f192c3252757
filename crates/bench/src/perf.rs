//! The `experiments bench` subcommand: fixed seeded micro-benchmarks over
//! the solver hot paths, emitted as a machine-readable `BENCH.json` so the
//! perf trajectory is a tracked artifact, plus the regression compare the
//! CI bench gate runs against the committed `BENCH_BASELINE.json`.
//!
//! Each phase runs the same seeded workload twice — once with the pool
//! forced serial (1 worker) and once at the configured width — records
//! wall time, [`SolverStats`](jcr_ctx::SolverStats) counters, and a
//! checksum of the solution's f64 bit patterns. The serial and parallel
//! checksums must agree (the pool's deterministic-merge contract), and
//! across commits the checksums and counters must match the baseline
//! exactly; only wall time gets a tolerance band.
//!
//! Each phase also runs under a span named after itself, and the bench
//! entry point merges the per-phase [`ObsSnapshot`]s into one document
//! written next to `BENCH.json` as `OBS.json` (the canonical wire
//! format of `jcr_ctx::obs::wire`). Two such artifacts feed the
//! differential profiler (`experiments diff`, [`crate::diff`]); when
//! the gate trips on a wall-clock regression and an obs baseline is
//! available, the failure summary names the guilty spans, not just the
//! guilty phase.

use std::time::Instant;

use jcr_ctx::obs::wire::WireSnapshot;
use jcr_ctx::obs::ObsSnapshot;
use jcr_ctx::rng::{Rng, SeedableRng, StdRng};
use jcr_ctx::{Counter, SolverContext};
use jcr_flow::multicommodity::{min_cost_multicommodity_with_context, Commodity};
use jcr_graph::{shortest, DiGraph, NodeId};
use jcr_lp::{Model, Sense};

use jcr_core::prelude::*;
use jcr_core::state::fnv1a;

use crate::exp::{default_factory, evaluate_in, Algo, ExpConfig};
use crate::json::Json;
use crate::Scenario;

/// Options of the `bench` subcommand.
#[derive(Clone, Debug, Default)]
pub struct BenchOpts {
    /// Write the report to this path (stdout summary always prints).
    pub out: Option<String>,
    /// Compare against this committed baseline; mismatched checksums or
    /// counters fail hard, wall-clock regressions beyond `tolerance` fail.
    pub baseline: Option<String>,
    /// Relative wall-clock tolerance for the baseline compare (0.25 = the
    /// CI gate's ±25%).
    pub tolerance: f64,
    /// Write the merged observability snapshot (canonical wire format)
    /// here. Defaults to `out` with `BENCH` renamed to `OBS` (so
    /// `BENCH_PR.json` → `OBS_PR.json`); no obs artifact is written when
    /// neither this nor `out` is set.
    pub obs_out: Option<String>,
    /// The committed obs baseline (`OBS_BASELINE.json`). When the gate
    /// fails on a wall-clock regression, the step summary appends the
    /// top-10 span attribution of baseline → this run.
    pub obs_baseline: Option<String>,
}

/// One benchmark phase's measurements.
#[derive(Clone, Debug)]
pub struct PhaseReport {
    /// Phase name (stable key the baseline compare matches on).
    pub name: String,
    /// Serial (1-worker) wall time in milliseconds.
    pub wall_ms_serial: f64,
    /// Parallel wall time in milliseconds at the configured width.
    pub wall_ms_parallel: f64,
    /// `wall_ms_serial / wall_ms_parallel`.
    pub speedup: f64,
    /// Hex FNV-1a checksum over the solution's f64 bit patterns; equal
    /// between serial and parallel runs by the determinism contract.
    pub checksum: String,
    /// Deterministic work counters of the parallel run.
    pub counters: Vec<(&'static str, u64)>,
}

/// A full bench report.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Pool width the parallel runs used.
    pub workers: usize,
    /// Per-phase measurements.
    pub phases: Vec<PhaseReport>,
}

/// Collects f64 bit patterns for an order-sensitive [`fnv1a`] hash of
/// their little-endian bytes.
struct Checksum(Vec<u8>);

impl Checksum {
    fn new() -> Self {
        Checksum(Vec::new())
    }

    fn push(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn hex(&self) -> String {
        format!("{:016x}", fnv1a(&self.0))
    }
}

fn checksum_slice(values: impl IntoIterator<Item = f64>) -> String {
    let mut h = Checksum::new();
    for v in values {
        h.push(v);
    }
    h.hex()
}

/// A seeded random strongly connected graph: a ring for connectivity plus
/// `chords_per_node · n` random chords, with costs in `[1, 10)`.
fn seeded_graph(n: usize, chords_per_node: usize, seed: u64) -> (DiGraph, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new();
    let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node()).collect();
    let mut cost = Vec::new();
    for i in 0..n {
        g.add_edge(nodes[i], nodes[(i + 1) % n]);
        cost.push(rng.gen_range(1.0..10.0));
    }
    for _ in 0..n * chords_per_node {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            g.add_edge(nodes[a], nodes[b]);
            cost.push(rng.gen_range(1.0..10.0));
        }
    }
    (g, cost)
}

fn parallel_width(cfg: ExpConfig) -> usize {
    if cfg.workers == 0 {
        jcr_ctx::default_workers().max(1)
    } else {
        cfg.workers
    }
}

fn counters_of(ctx: &SolverContext) -> Vec<(&'static str, u64)> {
    let stats = ctx.stats();
    Counter::ALL
        .iter()
        .map(|&c| (c.name(), stats.counter(c)))
        .collect()
}

/// Timed repetitions per leg: the gate's wall-clock numbers are the
/// median of this many runs, so one scheduler hiccup or cold cache can't
/// push a phase over the ±tolerance band (the historical flake mode of
/// the CI bench gate). Checksums and counters are still required to
/// match *exactly* across every repetition — only time gets the median.
const TIMING_SAMPLES: usize = 3;

/// Median of a non-empty sample (total order via `f64::total_cmp`).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Runs one leg [`TIMING_SAMPLES`] times on fresh `workers`-wide
/// contexts, each repetition under a span named `phase`, asserting the
/// deterministic outputs are identical across repetitions. Returns
/// `(median wall ms, checksum, counters, obs snapshot)`; the snapshot is
/// the first repetition's (one clean tree per phase, not a 3× sum).
/// One timed leg's deterministic outputs: checksum, counters, and the
/// first repetition's observability snapshot.
type LegOutput = (String, Vec<(&'static str, u64)>, ObsSnapshot);

fn time_leg<F>(
    workers: usize,
    phase: &'static str,
    work: &mut F,
) -> (f64, String, Vec<(&'static str, u64)>, ObsSnapshot)
where
    F: FnMut(&SolverContext) -> String,
{
    let mut walls = Vec::with_capacity(TIMING_SAMPLES);
    let mut first: Option<LegOutput> = None;
    for rep in 0..TIMING_SAMPLES {
        let ctx = SolverContext::new().with_workers(workers);
        let start = Instant::now();
        let sum = {
            let _phase_span = ctx.span(phase);
            work(&ctx)
        };
        walls.push(start.elapsed().as_secs_f64() * 1e3);
        let counters = counters_of(&ctx);
        match &first {
            None => first = Some((sum, counters, ctx.obs_snapshot())),
            Some((sum0, counters0, _)) => {
                assert_eq!(
                    *sum0, sum,
                    "repetition {rep} checksum diverged at {workers} worker(s)"
                );
                assert_eq!(
                    *counters0, counters,
                    "repetition {rep} counters diverged at {workers} worker(s)"
                );
            }
        }
    }
    let (sum, counters, snap) = first.expect("TIMING_SAMPLES >= 1");
    (median(walls), sum, counters, snap)
}

/// Times `work` on both legs — serial context, then a `workers`-wide
/// context — each as the median of [`TIMING_SAMPLES`] repetitions, and
/// returns both wall times, the shared (checksum, counters), and the
/// parallel leg's observability snapshot (rooted at a span named
/// `phase`, so merged bench snapshots attribute by phase).
fn run_pair<F>(
    workers: usize,
    phase: &'static str,
    mut work: F,
) -> (f64, f64, String, Vec<(&'static str, u64)>, ObsSnapshot)
where
    F: FnMut(&SolverContext) -> String,
{
    let (wall_serial, serial_sum, serial_counters, _) = time_leg(1, phase, &mut work);
    let (wall_parallel, par_sum, par_counters, par_obs) = time_leg(workers, phase, &mut work);

    assert_eq!(
        serial_sum, par_sum,
        "parallel run diverged from the serial path"
    );
    assert_eq!(
        serial_counters, par_counters,
        "parallel counters diverged from the serial path"
    );
    (wall_serial, wall_parallel, par_sum, par_counters, par_obs)
}

fn all_pairs_phase(cfg: ExpConfig, workers: usize) -> (PhaseReport, ObsSnapshot) {
    let n = if cfg.full { 700 } else { 350 };
    let (g, cost) = seeded_graph(n, 4, cfg.seed.wrapping_add(11));
    let (wall_serial, wall_parallel, checksum, counters, obs) =
        run_pair(workers, "all_pairs", |ctx| {
            let rows = shortest::all_pairs_with_context(&g, &cost, ctx);
            checksum_slice(rows.iter().flatten().copied())
        });
    (
        PhaseReport {
            name: "all_pairs".into(),
            wall_ms_serial: wall_serial,
            wall_ms_parallel: wall_parallel,
            speedup: wall_serial / wall_parallel.max(1e-9),
            checksum,
            counters,
        },
        obs,
    )
}

fn column_generation_phase(cfg: ExpConfig, workers: usize) -> (PhaseReport, ObsSnapshot) {
    let n = if cfg.full { 120 } else { 60 };
    let n_comm = if cfg.full { 60 } else { 30 };
    let (g, cost) = seeded_graph(n, 3, cfg.seed.wrapping_add(23));
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(37));
    let commodities: Vec<Commodity> = (0..n_comm)
        .map(|_| {
            let source = rng.gen_range(0..n);
            let mut dest = rng.gen_range(0..n);
            if dest == source {
                dest = (dest + 1) % n;
            }
            Commodity {
                source: NodeId::new(source),
                dest: NodeId::new(dest),
                demand: rng.gen_range(0.5..2.0),
            }
        })
        .collect();
    let total_demand: f64 = commodities.iter().map(|c| c.demand).sum();
    // Tight-but-feasible capacities: the ring carries everything if needed,
    // chords are scarce so the master has to split and re-price.
    let cap: Vec<f64> = (0..g.edge_count())
        .map(|e| {
            if e < n {
                total_demand
            } else {
                total_demand * 0.05
            }
        })
        .collect();
    let (wall_serial, wall_parallel, checksum, counters, obs) =
        run_pair(workers, "column_generation", |ctx| {
            let (sol, _) =
                min_cost_multicommodity_with_context(&g, &cost, &cap, &commodities, &[], ctx)
                    .expect("the ring guarantees feasibility");
            let mut h = Checksum::new();
            h.push(sol.cost);
            for flows in &sol.path_flows {
                for pf in flows {
                    h.push(pf.amount);
                    h.push(pf.path.len() as f64);
                }
            }
            h.hex()
        });
    (
        PhaseReport {
            name: "column_generation".into(),
            wall_ms_serial: wall_serial,
            wall_ms_parallel: wall_parallel,
            speedup: wall_serial / wall_parallel.max(1e-9),
            checksum,
            counters,
        },
        obs,
    )
}

fn monte_carlo_phase(cfg: ExpConfig, workers: usize) -> (PhaseReport, ObsSnapshot) {
    let mut sc = Scenario::chunk_default();
    sc.seed = sc.seed.wrapping_add(cfg.seed);
    sc.share_seed = sc.share_seed.wrapping_add(cfg.seed);
    sc.n_videos = 6;
    let runs = if cfg.full { 8 } else { 4 };
    let algos: Vec<Algo> = vec![
        Algo {
            name: "SP".into(),
            run: Box::new(|inst, ctx| ShortestPathPlacement.solve_with_context(inst, ctx)),
        },
        Algo {
            name: "SP+RNR".into(),
            run: Box::new(|inst, ctx| IoannidisYeh::sp_rnr().solve_with_context(inst, ctx)),
        },
    ];

    let eval_cfg = ExpConfig {
        runs,
        hours: 1,
        ..cfg
    };
    // `run_pair` hands each leg its own context, so the sweep fans out on
    // that context's pool and its counters/checksum are compared between
    // the serial and parallel legs like every other phase.
    let (wall_serial, wall_parallel, checksum, counters, obs) =
        run_pair(workers, "monte_carlo", |ctx| {
            let metrics = evaluate_in(ctx, &sc, &algos, eval_cfg, &default_factory);
            checksum_slice(metrics.iter().flat_map(|m| {
                [
                    m.cost_true,
                    m.congestion_true,
                    m.occupancy_true,
                    m.cost_pred,
                    m.congestion_pred,
                    m.occupancy_pred,
                ]
            }))
        });
    (
        PhaseReport {
            name: "monte_carlo".into(),
            wall_ms_serial: wall_serial,
            wall_ms_parallel: wall_parallel,
            speedup: wall_serial / wall_parallel.max(1e-9),
            checksum,
            counters,
        },
        obs,
    )
}

/// Stress-scale inputs: a [`TopologyKind::Stress`] network (1000 nodes,
/// 20k directed edges) and a Zipf catalog far beyond the paper's Table 1
/// (10⁵ chunks in full mode), kept sparse end to end — requests come from
/// the head of the Zipf distribution
/// ([`zipf_demand_sparse`](jcr_trace::zipf::zipf_demand_sparse)) and
/// distances from the on-demand oracle, so no |V|² matrix is allocated.
struct StressInputs {
    inst: Instance,
    edge_nodes: Vec<NodeId>,
    /// Per-edge-node cache budget, in items.
    zeta: usize,
}

fn stress_inputs(cfg: ExpConfig) -> StressInputs {
    let (n_items, active_items) = if cfg.full {
        (100_000, 512)
    } else {
        (100_000, 128)
    };
    let topo =
        jcr_topo::Topology::generate(jcr_topo::TopologyKind::Stress, cfg.seed.wrapping_add(5))
            .expect("stress family generates");
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(41));
    let triples = jcr_trace::zipf::zipf_demand_sparse(
        n_items,
        topo.edge_nodes.len(),
        0.8,
        4_000.0,
        active_items,
        4,
        &mut rng,
    );
    let requests: Vec<Request> = triples
        .iter()
        .map(|&(item, s, rate)| Request {
            item,
            node: topo.edge_nodes[s],
            rate,
        })
        .collect();
    // Smaller than the per-edge-node active-item count in either mode, so
    // placement never covers all demand locally and the evaluation loop
    // routes through real distances.
    let zeta = 4;
    let mut cache_cap = vec![0.0; topo.graph.node_count()];
    for &v in &topo.edge_nodes {
        cache_cap[v.index()] = zeta as f64;
    }
    let edge_count = topo.graph.edge_count();
    let edge_nodes = topo.edge_nodes.clone();
    let inst = Instance::new(
        topo.graph,
        topo.cost,
        vec![f64::INFINITY; edge_count],
        cache_cap,
        vec![1.0; n_items],
        requests,
        Some(topo.origin),
    )
    .expect("stress instance is valid")
    // Never a |V|² block at this scale, regardless of the environment.
    .with_oracle_dense_max(0);
    StressInputs {
        inst,
        edge_nodes,
        zeta,
    }
}

fn stress_phase(cfg: ExpConfig, workers: usize) -> (PhaseReport, ObsSnapshot) {
    let StressInputs {
        inst,
        edge_nodes,
        zeta,
    } = stress_inputs(cfg);
    let origin = inst.origin.expect("stress topology has an origin");
    let (wall_serial, wall_parallel, checksum, counters, obs) =
        run_pair(workers, "stress", |ctx| {
            // A fresh oracle per leg, so both legs pay the same cold-cache cost.
            let oracle = jcr_graph::DistanceOracle::with_config(
                &inst.graph,
                &inst.link_cost,
                0,
                jcr_graph::oracle::DEFAULT_ROW_CAPACITY.max(edge_nodes.len() + 1),
                Some(ctx),
            );
            assert!(!oracle.is_dense(), "stress phase must stay on-demand");
            // One row per requester plus the origin, primed in parallel.
            let mut sources = edge_nodes.clone();
            sources.push(origin);
            oracle.prime_rows_with_context(&sources, ctx);

            // Greedy placement: each edge node caches the top-ζ items of its
            // own demand (rate order, item-index tie-break) — serial and
            // deterministic, and it exercises the flat placement bitset at
            // a 10⁵-item catalog width.
            let mut placement = Placement::empty(&inst);
            let mut local: Vec<(usize, f64)> = Vec::new();
            for &v in &edge_nodes {
                local.clear();
                local.extend(
                    inst.requests
                        .iter()
                        .filter(|r| r.node == v)
                        .map(|r| (r.item, r.rate)),
                );
                local.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                for &(item, _) in local.iter().take(zeta) {
                    placement.set(v, item, true);
                }
            }

            // Route-to-nearest-replica cost over 64 fixed request ranges:
            // each range walks its requests through cached row handles and
            // sums rate × nearest-replica distance; partials merge in range
            // order, so the checksum is bit-identical at any width.
            let n_req = inst.requests.len();
            let ranges: Vec<(usize, usize)> = (0..64)
                .map(|k| (k * n_req / 64, (k + 1) * n_req / 64))
                .collect();
            let _route = ctx.span("stress.route_cost");
            let partials = jcr_ctx::par::par_map(ctx, &ranges, |_wctx, _, &(lo, hi)| {
                let mut sum = 0.0;
                for r in &inst.requests[lo..hi] {
                    let row = oracle.row(r.node);
                    let mut best = row.dist(origin);
                    for &v in &edge_nodes {
                        if placement.has(v, r.item) {
                            let d = row.dist(v);
                            if d < best {
                                best = d;
                            }
                        }
                    }
                    sum += r.rate * best;
                }
                sum
            });
            let mut h = Checksum::new();
            for &p in &partials {
                h.push(p);
            }
            h.push(placement.len() as f64);
            h.hex()
        });
    (
        PhaseReport {
            name: "stress".into(),
            wall_ms_serial: wall_serial,
            wall_ms_parallel: wall_parallel,
            speedup: wall_serial / wall_parallel.max(1e-9),
            checksum,
            counters,
        },
        obs,
    )
}

/// The warm-start LP family: a seeded covering LP `min c·x` over
/// `[0, 5]`-bounded variables with `m` rows `Σ a_j x_j ≥ b`. The objective
/// is `c_j · (1 + obj_shift · δ_j)` with per-variable seeded `δ_j`, so
/// `obj_shift = 0` is the base hour and a small positive shift is the
/// "next hour" of the online loop: same constraints, drifted prices.
fn warm_lp(n: usize, m: usize, seed: u64, obj_shift: f64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Model::new(Sense::Minimize);
    let vars: Vec<_> = (0..n)
        .map(|_| {
            let c = rng.gen_range(1.0..10.0);
            let delta = rng.gen_range(0.0..1.0);
            model.add_var(0.0, 5.0, c * (1.0 + obj_shift * delta))
        })
        .collect();
    for _ in 0..m {
        let entries: Vec<_> = (0..6)
            .map(|_| (vars[rng.gen_range(0..n)], rng.gen_range(0.5..2.0)))
            .collect();
        let rhs = rng.gen_range(3.0..9.0);
        model.add_row(rhs, f64::INFINITY, &entries);
    }
    model
}

/// Seeded candidate columns for the CG-style leg of [`lp_warm_phase`]:
/// cheap columns covering several rows, attractive enough that the master
/// re-solve has real pivoting to do.
fn warm_lp_columns(n_cols: usize, m: usize, seed: u64) -> Vec<(f64, Vec<(usize, f64)>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_cols)
        .map(|_| {
            let obj = rng.gen_range(0.2..1.0);
            let entries: Vec<_> = (0..8)
                .map(|_| (rng.gen_range(0..m), rng.gen_range(0.5..2.0)))
                .collect();
            (obj, entries)
        })
        .collect()
}

/// The `lp_warm` phase: measures the warm-start machinery the simplex
/// exposes ([`jcr_lp::ModelSolver::solve_from_basis`] and the retained
/// solver's column-generation re-solve) against cold solves of the same
/// models, counting [`Counter::SimplexPivots`] for each leg. The phase
/// *asserts* the headline claim — warm re-solves take at most half the
/// cold pivots — so the bench gate fails loudly if warm starting ever
/// regresses to cold-solve behavior, and records all four pivot counts
/// in the checksum so the baseline pins them exactly.
fn lp_warm_phase(cfg: ExpConfig, workers: usize) -> (PhaseReport, ObsSnapshot) {
    let (n, m) = if cfg.full { (160, 80) } else { (80, 40) };
    let n_cg_cols = 8;
    let seed = cfg.seed.wrapping_add(53);
    let (wall_serial, wall_parallel, checksum, counters, obs) =
        run_pair(workers, "lp_warm", |ctx| {
            let pivots = |ctx: &SolverContext| ctx.stats().counter(Counter::SimplexPivots);

            // Online-hour leg: solve the base hour, snapshot the basis, then
            // solve the drifted-objective "next hour" cold vs warm.
            let mut base = warm_lp(n, m, seed, 0.0).into_solver();
            let base_sol = base
                .solve_with_context(ctx)
                .expect("warm bench base LP is feasible");
            let basis = base.basis().expect("solved LP exposes a basis");

            let mark = pivots(ctx);
            let cold_next = warm_lp(n, m, seed, 0.03)
                .into_solver()
                .solve_with_context(ctx)
                .expect("drifted LP is feasible");
            let cold_hour_pivots = pivots(ctx) - mark;

            let mark = pivots(ctx);
            let warm_next = warm_lp(n, m, seed, 0.03)
                .into_solver()
                .solve_from_basis(&basis, ctx)
                .expect("warm solve of the drifted LP succeeds");
            let warm_hour_pivots = pivots(ctx) - mark;

            assert!(
                (warm_next.objective - cold_next.objective).abs()
                    <= 1e-7 * cold_next.objective.abs().max(1.0),
                "warm and cold solves disagree: {} vs {}",
                warm_next.objective,
                cold_next.objective
            );
            assert!(
                warm_hour_pivots * 2 <= cold_hour_pivots,
                "online warm re-solve took {warm_hour_pivots} pivots, cold took \
             {cold_hour_pivots}: warm starting must at least halve the work"
            );

            // CG-master leg: the retained solver re-solves after a batch of
            // added columns vs a cold solve of the final (extended) model.
            let columns = warm_lp_columns(n_cg_cols, m, seed.wrapping_add(7));
            let mut master = warm_lp(n, m, seed, 0.0).into_solver();
            master
                .solve_with_context(ctx)
                .expect("CG master base LP is feasible");
            let mark = pivots(ctx);
            for (obj, entries) in &columns {
                let entries: Vec<_> = entries
                    .iter()
                    .map(|&(r, a)| (jcr_lp::ConId::from_index(r), a))
                    .collect();
                master.add_column(0.0, 5.0, *obj, &entries);
            }
            let warm_cg = master
                .solve_with_context(ctx)
                .expect("CG master re-solve succeeds");
            let warm_cg_pivots = pivots(ctx) - mark;

            let mut extended = warm_lp(n, m, seed, 0.0);
            for (obj, entries) in &columns {
                let entries: Vec<_> = entries
                    .iter()
                    .map(|&(r, a)| (jcr_lp::ConId::from_index(r), a))
                    .collect();
                extended.add_var_with_column(0.0, 5.0, *obj, &entries);
            }
            let mark = pivots(ctx);
            let cold_cg = extended
                .into_solver()
                .solve_with_context(ctx)
                .expect("extended LP is feasible");
            let cold_cg_pivots = pivots(ctx) - mark;

            assert!(
                (warm_cg.objective - cold_cg.objective).abs()
                    <= 1e-7 * cold_cg.objective.abs().max(1.0),
                "CG warm and cold solves disagree: {} vs {}",
                warm_cg.objective,
                cold_cg.objective
            );
            assert!(
                warm_cg_pivots * 2 <= cold_cg_pivots,
                "CG master re-solve took {warm_cg_pivots} pivots, cold took \
             {cold_cg_pivots}: warm starting must at least halve the work"
            );

            let mut h = Checksum::new();
            for v in [
                base_sol.objective,
                cold_next.objective,
                warm_next.objective,
                cold_cg.objective,
                warm_cg.objective,
                cold_hour_pivots as f64,
                warm_hour_pivots as f64,
                cold_cg_pivots as f64,
                warm_cg_pivots as f64,
            ] {
                h.push(v);
            }
            h.hex()
        });
    (
        PhaseReport {
            name: "lp_warm".into(),
            wall_ms_serial: wall_serial,
            wall_ms_parallel: wall_parallel,
            speedup: wall_serial / wall_parallel.max(1e-9),
            checksum,
            counters,
        },
        obs,
    )
}

/// Per-hour instances for the `online_warm` phase: one seeded topology
/// whose demand drifts mildly and non-uniformly hour over hour — the
/// steady-state regime the crash-recoverable online loop is built for.
fn online_warm_instance(seed: u64, hour: usize, full: bool) -> Instance {
    let degree = if full { 5 } else { 4 };
    let topo = jcr_topo::Topology::generate(jcr_topo::TopologyKind::Abovenet, degree)
        .expect("known topology generates");
    let n_edges = topo.edge_nodes.len();
    let rates: Vec<Vec<f64>> = (0..6)
        .map(|i| {
            (0..n_edges)
                .map(|k| {
                    let base = 100.0 * (1.0 + ((i * 7 + k * 3 + seed as usize) % 5) as f64);
                    // Mild per-hour drift with a small non-uniform term so
                    // warm hours must genuinely re-optimize, not just
                    // rescale the previous solution.
                    base * (1.0 + 0.02 * hour as f64 + 0.01 * ((k * 31 + hour) % 7) as f64)
                })
                .collect()
        })
        .collect();
    InstanceBuilder::new(topo)
        .items(6)
        .cache_capacity(2.0)
        .demand_matrix(rates)
        .link_capacity_fraction(0.05)
        .build()
        .expect("online_warm instance builds")
}

/// The `online_warm` phase: the hour-over-hour carry chain of the online
/// loop — previous placement as the starting iterate, the last placement
/// LP basis, and the active CG column pool — measured against solving
/// every hour cold, counting [`Counter::SimplexPivots`] for both legs.
/// The phase *asserts* the headline claim — steady-state warm hours cost
/// at most half the cold pivots — so the bench gate fails loudly if the
/// carry chain ever stops paying for itself, and records every per-hour
/// cost and both pivot totals in the checksum.
fn online_warm_phase(cfg: ExpConfig, workers: usize) -> (PhaseReport, ObsSnapshot) {
    let hours = if cfg.full { 6 } else { 4 };
    let seed = cfg.seed.wrapping_add(89);
    let (wall_serial, wall_parallel, checksum, counters, obs) =
        run_pair(workers, "online_warm", |ctx| {
            let pivots = |ctx: &SolverContext| ctx.stats().counter(Counter::SimplexPivots);
            let solver = Alternating::new();
            let mut h = Checksum::new();

            // Cold leg: every hour from scratch (the crash-without-snapshot
            // baseline). Hour 0 is cold in both legs and excluded from the
            // steady-state totals.
            let mut cold_steady = 0u64;
            for hour in 0..hours {
                let inst = online_warm_instance(seed, hour, cfg.full);
                let mark = pivots(ctx);
                let out = solver
                    .solve_with_context(&inst, ctx)
                    .expect("cold online_warm hour solves");
                if hour > 0 {
                    cold_steady += pivots(ctx) - mark;
                }
                h.push(out.solution.cost(&inst));
            }

            // Warm leg: thread placement, basis, and column pool hour over
            // hour exactly as `OnlineSimulator` commits them.
            let mut warm_steady = 0u64;
            let mut warm = Warm::default();
            let mut prev: Option<Placement> = None;
            for hour in 0..hours {
                let inst = online_warm_instance(seed, hour, cfg.full);
                let initial = prev
                    .filter(|p: &Placement| p.dims_match(&inst) && p.is_feasible(&inst))
                    .unwrap_or_else(|| Placement::empty(&inst));
                let mark = pivots(ctx);
                let (out, next) = solver
                    .solve_warm(&inst, initial, &warm, ctx)
                    .expect("warm online_warm hour solves");
                if hour > 0 {
                    warm_steady += pivots(ctx) - mark;
                }
                warm = next;
                prev = Some(out.solution.placement.clone());
                h.push(out.solution.cost(&inst));
            }

            assert!(
                warm_steady * 2 <= cold_steady,
                "steady-state warm hours took {warm_steady} pivots, cold took \
             {cold_steady}: the online carry chain must at least halve the work"
            );
            h.push(cold_steady as f64);
            h.push(warm_steady as f64);
            h.hex()
        });
    (
        PhaseReport {
            name: "online_warm".into(),
            wall_ms_serial: wall_serial,
            wall_ms_parallel: wall_parallel,
            speedup: wall_serial / wall_parallel.max(1e-9),
            checksum,
            counters,
        },
        obs,
    )
}

/// Entry point of `experiments stress`: the stress phase alone, printed
/// as a one-phase report — the quick way to exercise the beyond-paper
/// scale (and its on-demand oracle) without the full bench suite.
pub fn stress(cfg: ExpConfig) {
    let workers = parallel_width(cfg);
    eprintln!("[stress] pool width: {workers} worker(s)");
    let (phase, _obs) = stress_phase(cfg, workers);
    let report = BenchReport {
        workers,
        phases: vec![phase],
    };
    report.print();
}

/// Runs every bench phase at the configured width, returning the report
/// plus the merged observability snapshot (one top-level span per phase,
/// recorded on the parallel leg's first repetition).
pub fn run(cfg: ExpConfig) -> (BenchReport, ObsSnapshot) {
    let workers = parallel_width(cfg);
    eprintln!("[bench] pool width: {workers} worker(s)");
    // The collector context never opens a span, so each absorbed phase
    // snapshot grafts at its root and the merged document reads as a
    // forest of phase trees.
    let collector = SolverContext::new();
    type PhaseFn = fn(ExpConfig, usize) -> (PhaseReport, ObsSnapshot);
    let phase_fns: [PhaseFn; 6] = [
        all_pairs_phase,
        column_generation_phase,
        lp_warm_phase,
        online_warm_phase,
        monte_carlo_phase,
        stress_phase,
    ];
    let mut phases = Vec::with_capacity(phase_fns.len());
    for phase_fn in phase_fns {
        let (phase, obs) = phase_fn(cfg, workers);
        collector.absorb_obs(&obs);
        phases.push(phase);
    }
    (BenchReport { workers, phases }, collector.obs_snapshot())
}

impl BenchReport {
    /// Serializes the report as the `BENCH.json` document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Num(1.0)),
            ("workers", Json::Num(self.workers as f64)),
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("name", Json::Str(p.name.clone())),
                                ("wall_ms_serial", Json::Num(p.wall_ms_serial)),
                                ("wall_ms_parallel", Json::Num(p.wall_ms_parallel)),
                                ("speedup", Json::Num(p.speedup)),
                                ("checksum", Json::Str(p.checksum.clone())),
                                (
                                    "counters",
                                    Json::Obj(
                                        p.counters
                                            .iter()
                                            .map(|&(name, v)| {
                                                (name.to_string(), Json::Num(v as f64))
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Prints the human-readable summary table.
    pub fn print(&self) {
        crate::print_table(
            &format!("Bench — fixed seeds, {} worker(s)", self.workers),
            &[
                "phase".into(),
                "serial (ms)".into(),
                "parallel (ms)".into(),
                "speedup".into(),
                "checksum".into(),
            ],
            &self
                .phases
                .iter()
                .map(|p| {
                    vec![
                        p.name.clone(),
                        format!("{:.2}", p.wall_ms_serial),
                        format!("{:.2}", p.wall_ms_parallel),
                        format!("{:.2}x", p.speedup),
                        p.checksum.clone(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }
}

/// Compares a fresh report against a parsed baseline document.
///
/// Deterministic fields (checksums, counters) must match exactly; wall
/// times may drift up to `tolerance` (relative) before failing. Returns
/// the list of violations (empty = gate passes); purely-faster drifts are
/// reported on stdout but never fail.
pub fn compare(report: &BenchReport, baseline: &Json, tolerance: f64) -> Vec<String> {
    let mut violations = Vec::new();
    // A baseline whose parallel legs ran serially is meaningless as a
    // speedup reference — refuse it rather than silently comparing
    // against a serial run recorded as "parallel".
    let base_workers = baseline
        .get("workers")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    if base_workers <= 1.0 {
        violations.push(format!(
            "baseline records workers = {base_workers}: its parallel legs ran serially; \
             re-record it with an explicit --workers > 1"
        ));
    }
    let Some(base_phases) = baseline.get("phases").and_then(Json::as_arr) else {
        violations.push("baseline has no phases array".into());
        return violations;
    };
    for phase in &report.phases {
        let Some(base) = base_phases
            .iter()
            .find(|p| p.get("name").and_then(Json::as_str) == Some(&phase.name))
        else {
            violations.push(format!("phase {:?} missing from baseline", phase.name));
            continue;
        };
        if let Some(sum) = base.get("checksum").and_then(Json::as_str) {
            if sum != phase.checksum {
                violations.push(format!(
                    "phase {:?}: checksum {} != baseline {} (deterministic regression)",
                    phase.name, phase.checksum, sum
                ));
            }
        }
        if let Some(Json::Obj(base_counters)) = base.get("counters") {
            for &(name, value) in &phase.counters {
                match base_counters.get(name).and_then(Json::as_f64) {
                    Some(expected) if expected != value as f64 => violations.push(format!(
                        "phase {:?}: counter {name} = {value} != baseline {expected} \
                         (deterministic regression)",
                        phase.name
                    )),
                    Some(_) => {}
                    // A counter this run produced that the baseline never
                    // recorded is the same silent-coverage problem as a
                    // missing phase: the baseline predates the counter and
                    // must be re-recorded to keep gating it.
                    None if value != 0 => violations.push(format!(
                        "phase {:?}: counter {name} = {value} has no baseline entry \
                         (re-record the baseline to gate it)",
                        phase.name
                    )),
                    None => {}
                }
            }
            // And the reverse: a counter the baseline gates that this run
            // no longer reports means the instrumentation was dropped.
            for name in base_counters.keys() {
                if !phase.counters.iter().any(|&(n, _)| n == name) {
                    violations.push(format!(
                        "phase {:?}: counter {name} is recorded in the baseline but missing \
                         from this run (dropped instrumentation must re-record the baseline)",
                        phase.name
                    ));
                }
            }
        }
        for (key, fresh) in [
            ("wall_ms_serial", phase.wall_ms_serial),
            ("wall_ms_parallel", phase.wall_ms_parallel),
        ] {
            let Some(expected) = base.get(key).and_then(Json::as_f64) else {
                continue;
            };
            if fresh > expected * (1.0 + tolerance) {
                violations.push(format!(
                    "phase {:?}: {key} {fresh:.2}ms exceeds baseline {expected:.2}ms by more \
                     than {:.0}%",
                    phase.name,
                    tolerance * 100.0
                ));
            } else if fresh < expected / (1.0 + tolerance) {
                println!(
                    "[bench] phase {:?}: {key} improved {expected:.2}ms -> {fresh:.2}ms",
                    phase.name
                );
            }
        }
    }
    // The reverse direction is just as much a regression: a phase the
    // baseline records but this run never produced means coverage was
    // silently dropped (deleted phase, renamed phase, harness bug), and
    // skipping it would let the gate pass while measuring less. Fail by
    // name instead.
    for base in base_phases {
        let Some(name) = base.get("name").and_then(Json::as_str) else {
            violations.push("baseline has a phase with no name".into());
            continue;
        };
        if !report.phases.iter().any(|p| p.name == name) {
            violations.push(format!(
                "phase {name:?} is recorded in the baseline but missing from this run \
                 (removed or renamed phases must re-record the baseline)"
            ));
        }
    }
    violations
}

/// Signed relative drift of `fresh` against `base`, as a `+4.2%` string.
fn delta_pct(fresh: f64, base: Option<f64>) -> String {
    match base {
        Some(b) if b > 0.0 => format!("{:+.1}%", (fresh - b) / b * 100.0),
        _ => "—".into(),
    }
}

/// A named counter of a phase report (0 when the phase never counted it).
fn phase_counter(phase: &PhaseReport, name: &str) -> u64 {
    phase
        .counters
        .iter()
        .find(|&&(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

/// Renders the gate outcome as the markdown block the CI bench job
/// appends to `$GITHUB_STEP_SUMMARY`: one row per phase with its wall
/// drift against the baseline, whether the checksum matched, and the
/// deterministic pivot/refactorization counts, followed by the verdict
/// (and every violation, when the gate failed).
pub fn step_summary_markdown(
    report: &BenchReport,
    baseline: Option<&Json>,
    violations: &[String],
) -> String {
    let base_phases = baseline
        .and_then(|b| b.get("phases"))
        .and_then(Json::as_arr);
    let base_of = |name: &str| {
        base_phases?
            .iter()
            .find(|p| p.get("name").and_then(Json::as_str) == Some(name))
    };
    let mut md = String::from("### Bench gate\n\n");
    md.push_str(&format!("Pool width: {} worker(s)\n\n", report.workers));
    md.push_str(
        "| phase | serial Δ | parallel Δ | checksum | simplex pivots | refactorizations |\n",
    );
    md.push_str("|---|---|---|---|---|---|\n");
    for phase in &report.phases {
        let base = base_of(&phase.name);
        let wall = |key: &str| base.and_then(|b| b.get(key)).and_then(Json::as_f64);
        let checksum = match base.and_then(|b| b.get("checksum")).and_then(Json::as_str) {
            None => "—",
            Some(sum) if sum == phase.checksum => "match ✅",
            Some(_) => "MISMATCH ❌",
        };
        md.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            phase.name,
            delta_pct(phase.wall_ms_serial, wall("wall_ms_serial")),
            delta_pct(phase.wall_ms_parallel, wall("wall_ms_parallel")),
            checksum,
            phase_counter(phase, "simplex pivots"),
            phase_counter(phase, "refactorizations"),
        ));
    }
    md.push('\n');
    if violations.is_empty() {
        md.push_str("**Gate passed.**\n");
    } else {
        md.push_str(&format!(
            "**Gate FAILED ({} violations):**\n\n",
            violations.len()
        ));
        for v in violations {
            md.push_str(&format!("- {v}\n"));
        }
    }
    md
}

/// Appends `md` to the file `$GITHUB_STEP_SUMMARY` points at, if set —
/// the GitHub Actions job-summary contract (append, never truncate).
/// Outside Actions this is a no-op.
fn write_step_summary(md: &str) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    use std::io::Write;
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        Ok(mut f) => {
            if let Err(e) = f.write_all(md.as_bytes()) {
                eprintln!("[bench] writing step summary {path}: {e}");
            }
        }
        Err(e) => eprintln!("[bench] opening step summary {path}: {e}"),
    }
}

/// The obs artifact path derived from a `BENCH*.json` path: the filename
/// has `BENCH` renamed to `OBS` (`BENCH_PR.json` → `OBS_PR.json`), or an
/// `OBS_` prefix when the filename never says `BENCH`.
fn obs_sibling_path(out: &str) -> String {
    let path = std::path::Path::new(out);
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("BENCH.json");
    let obs_name = if name.contains("BENCH") {
        name.replacen("BENCH", "OBS", 1)
    } else {
        format!("OBS_{name}")
    };
    path.with_file_name(obs_name).to_string_lossy().into_owned()
}

/// Renders the merged obs snapshot in the canonical wire format, stamped
/// with the artifact kind and pool width (so `diff --workers-compare`
/// can report per-width efficiency without re-deriving it).
fn obs_document(obs: &ObsSnapshot, workers: usize) -> String {
    let mut wire = WireSnapshot::from_snapshot(obs);
    wire.meta.insert("kind".into(), "jcr-bench-obs".into());
    wire.meta.insert("workers".into(), workers.to_string());
    wire.render()
}

/// When the gate tripped on a wall-clock regression and an obs baseline
/// is on disk, renders the span-level attribution table (baseline → this
/// run, top 10 by |Δself|) so the step summary names the guilty span
/// instead of just the guilty phase. Attribution is best-effort: any
/// problem reading or diffing the baseline is reported, never fatal —
/// the gate verdict already stands on the bench compare alone.
fn regression_attribution_markdown(obs: &ObsSnapshot, workers: usize, base_path: &str) -> String {
    let fresh = match WireSnapshot::parse(&obs_document(obs, workers)) {
        Ok(w) => w,
        Err(e) => return format!("\n(span attribution unavailable: {e})\n"),
    };
    let base = match crate::diff::load(base_path) {
        Ok(w) => w,
        Err(e) => return format!("\n(span attribution unavailable: {e})\n"),
    };
    match crate::diff::diff_snapshots(&base, &fresh, None) {
        Ok(report) => format!(
            "\n### Span attribution ({base_path} → this run)\n\n{}",
            report.markdown_table(10)
        ),
        Err(e) => format!("\n(span attribution unavailable: {e})\n"),
    }
}

/// Entry point of `experiments bench`: run, print, optionally write the
/// JSON + obs artifacts, optionally gate against a baseline.
///
/// # Errors
///
/// A description of the gate violations or an I/O problem; callers exit
/// nonzero on `Err`.
pub fn bench(cfg: ExpConfig, opts: &BenchOpts) -> Result<(), String> {
    let (report, obs) = run(cfg);
    report.print();
    if let Some(path) = &opts.out {
        std::fs::write(path, report.to_json().render())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("[bench] wrote {path}");
    }
    let obs_path = opts
        .obs_out
        .clone()
        .or_else(|| opts.out.as_deref().map(obs_sibling_path));
    if let Some(path) = &obs_path {
        std::fs::write(path, obs_document(&obs, report.workers))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("[bench] wrote {path}");
    }
    if let Some(path) = &opts.baseline {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading baseline {path}: {e}"))?;
        let baseline = Json::parse(&text).map_err(|e| format!("parsing baseline {path}: {e}"))?;
        let violations = compare(&report, &baseline, opts.tolerance);
        // The summary is written pass or fail — the failing run is the
        // one whose table someone actually reads.
        let mut md = step_summary_markdown(&report, Some(&baseline), &violations);
        let wall_regressed = violations.iter().any(|v| v.contains("exceeds baseline"));
        if wall_regressed {
            if let Some(base_obs) = &opts.obs_baseline {
                md.push_str(&regression_attribution_markdown(
                    &obs,
                    report.workers,
                    base_obs,
                ));
            }
        }
        write_step_summary(&md);
        if !violations.is_empty() {
            return Err(format!("bench gate failed:\n  {}", violations.join("\n  ")));
        }
        eprintln!("[bench] gate passed against {path}");
    } else {
        write_step_summary(&step_summary_markdown(&report, None, &[]));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> BenchReport {
        BenchReport {
            workers: 2,
            phases: vec![PhaseReport {
                name: "all_pairs".into(),
                wall_ms_serial: 10.0,
                wall_ms_parallel: 5.0,
                speedup: 2.0,
                checksum: "00ff".into(),
                counters: vec![("dijkstra_calls", 7)],
            }],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = tiny_report();
        let doc = Json::parse(&report.to_json().render()).unwrap();
        let phases = doc.get("phases").unwrap().as_arr().unwrap();
        assert_eq!(phases[0].get("name").unwrap().as_str(), Some("all_pairs"));
        assert_eq!(phases[0].get("checksum").unwrap().as_str(), Some("00ff"));
        assert_eq!(
            phases[0]
                .get("counters")
                .unwrap()
                .get("dijkstra_calls")
                .unwrap()
                .as_f64(),
            Some(7.0)
        );
    }

    #[test]
    fn compare_passes_against_identical_baseline() {
        let report = tiny_report();
        let baseline = Json::parse(&report.to_json().render()).unwrap();
        assert!(compare(&report, &baseline, 0.25).is_empty());
    }

    #[test]
    fn compare_flags_checksum_counter_and_wall_regressions() {
        let report = tiny_report();
        let baseline = Json::parse(&report.to_json().render()).unwrap();

        let mut worse = report.clone();
        worse.phases[0].checksum = "beef".into();
        worse.phases[0].counters[0].1 = 8;
        worse.phases[0].wall_ms_parallel = 7.0; // 5.0 * 1.25 = 6.25 < 7.0
        let violations = compare(&worse, &baseline, 0.25);
        assert_eq!(violations.len(), 3, "{violations:?}");
        assert!(violations[0].contains("checksum"));
        assert!(violations[1].contains("dijkstra_calls"));
        assert!(violations[2].contains("wall_ms_parallel"));

        // Inside the band: no violation.
        let mut ok = report.clone();
        ok.phases[0].wall_ms_parallel = 6.0;
        assert!(compare(&ok, &baseline, 0.25).is_empty());
    }

    #[test]
    fn compare_refuses_a_serially_recorded_baseline() {
        let report = tiny_report();
        let mut serial = report.clone();
        serial.workers = 1;
        let baseline = Json::parse(&serial.to_json().render()).unwrap();
        let violations = compare(&report, &baseline, 0.25);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("workers"), "{violations:?}");

        // Missing `workers` is treated the same as serial.
        let baseline = Json::parse(r#"{"schema": 1, "phases": []}"#).unwrap();
        let violations = compare(&report, &baseline, 0.25);
        assert!(
            violations.iter().any(|v| v.contains("workers")),
            "{violations:?}"
        );
    }

    #[test]
    fn compare_fails_hard_when_run_drops_a_baseline_phase() {
        // A baseline with two phases, a run with only the first: the
        // dropped phase must be a named violation, not a silent skip.
        let mut two_phase = tiny_report();
        two_phase.phases.push(PhaseReport {
            name: "lp_warm".into(),
            wall_ms_serial: 4.0,
            wall_ms_parallel: 2.0,
            speedup: 2.0,
            checksum: "aa11".into(),
            counters: vec![("simplex pivots", 100)],
        });
        let baseline = Json::parse(&two_phase.to_json().render()).unwrap();
        let violations = compare(&tiny_report(), &baseline, 0.25);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("lp_warm") && violations[0].contains("missing from this run"),
            "{violations:?}"
        );
    }

    #[test]
    fn step_summary_reports_drift_checksums_and_counts() {
        let mut report = tiny_report();
        report.phases[0].counters = vec![("simplex pivots", 85), ("refactorizations", 3)];
        let baseline = Json::parse(&report.to_json().render()).unwrap();

        // Against its own baseline: zero drift, matching checksum, pass.
        let md = step_summary_markdown(&report, Some(&baseline), &[]);
        assert!(
            md.contains("| all_pairs | +0.0% | +0.0% | match ✅ | 85 | 3 |"),
            "{md}"
        );
        assert!(md.contains("Gate passed"), "{md}");

        // Drifted walls, broken checksum, violations listed.
        let mut worse = report.clone();
        worse.phases[0].wall_ms_serial = 12.0; // 10 → 12 = +20%
        worse.phases[0].checksum = "beef".into();
        let violations = vec!["phase \"all_pairs\": checksum beef != baseline 00ff".into()];
        let md = step_summary_markdown(&worse, Some(&baseline), &violations);
        assert!(md.contains("+20.0%"), "{md}");
        assert!(md.contains("MISMATCH ❌"), "{md}");
        assert!(md.contains("Gate FAILED (1 violations)"), "{md}");
        assert!(md.contains("- phase \"all_pairs\": checksum"), "{md}");

        // No baseline: drift and checksum columns degrade to em-dashes.
        let md = step_summary_markdown(&report, None, &[]);
        assert!(md.contains("| all_pairs | — | — | — | 85 | 3 |"), "{md}");
    }

    #[test]
    fn lp_warm_phase_halves_pivots_and_is_deterministic() {
        // The 2× assertions live inside the phase; surviving two runs at
        // different widths with equal checksums is the determinism half.
        let cfg = ExpConfig {
            runs: 1,
            hours: 1,
            ..ExpConfig::default()
        };
        let (a, _) = lp_warm_phase(cfg, 2);
        let (b, _) = lp_warm_phase(cfg, 4);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.counters, b.counters);
        assert!(phase_counter(&a, "simplex pivots") > 0);
    }

    #[test]
    fn checksum_is_order_sensitive_and_stable() {
        let a = checksum_slice([1.0, 2.0]);
        let b = checksum_slice([2.0, 1.0]);
        assert_ne!(a, b);
        assert_eq!(a, checksum_slice([1.0, 2.0]));
        // Distinguishes bit patterns ordinary equality confuses.
        assert_ne!(checksum_slice([0.0]), checksum_slice([-0.0]));
    }

    #[test]
    fn bench_phases_are_deterministic_across_invocations() {
        let cfg = ExpConfig {
            runs: 1,
            hours: 1,
            ..ExpConfig::default()
        };
        let (a, obs) = all_pairs_phase(cfg, 2);
        let (b, _) = all_pairs_phase(cfg, 4);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.counters, b.counters);
        // The phase snapshot's root child is the phase span itself, so
        // the obs artifact attributes the whole leg to a named span.
        assert_eq!(obs.nodes[0].children.len(), 1);
        assert_eq!(obs.nodes[obs.nodes[0].children[0]].name, "all_pairs");
    }

    #[test]
    fn obs_sibling_path_renames_bench_to_obs() {
        assert_eq!(obs_sibling_path("BENCH_PR.json"), "OBS_PR.json");
        assert_eq!(obs_sibling_path("out/BENCH.json"), "out/OBS.json");
        assert_eq!(obs_sibling_path("report.json"), "OBS_report.json");
    }

    #[test]
    fn compare_flags_missing_counters_in_both_directions() {
        let report = tiny_report();
        let baseline = Json::parse(&report.to_json().render()).unwrap();

        // Run gains a counter the baseline never recorded.
        let mut more = report.clone();
        more.phases[0].counters.push(("simplex pivots", 12));
        let violations = compare(&more, &baseline, 0.25);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("simplex pivots") && violations[0].contains("no baseline"),
            "{violations:?}"
        );

        // Run drops a counter the baseline gates.
        let mut less = report.clone();
        less.phases[0].counters.clear();
        let violations = compare(&less, &baseline, 0.25);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("dijkstra_calls")
                && violations[0].contains("missing from this run"),
            "{violations:?}"
        );

        // A new always-zero counter is not a violation (nothing to gate).
        let mut zero = report.clone();
        zero.phases[0].counters.push(("simplex pivots", 0));
        assert!(compare(&zero, &baseline, 0.25).is_empty());
    }
}
