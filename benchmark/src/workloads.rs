//! The four workloads: the inputs each one builds from the seed (the
//! timed set-up) and one measured pass over those inputs.
//!
//! A pass is a closed loop: one caller issues the next solve (or the next
//! online hour) when the previous one returns. Every solve runs on a fresh
//! clone of its pristine instance, so the distance oracle and every other
//! lazily built cache start cold in each pass and passes repeat exactly.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use jcr_bench::{build_instance_with, flatten_rates, Scenario};
use jcr_core::prelude::*;
use jcr_core::state::fnv1a;
use jcr_core::{alg2, hetero, rnr};
use jcr_ctx::obs::ObsSnapshot;
use jcr_ctx::rng::{Rng, SeedableRng, StdRng};
use jcr_ctx::{Counter, Phase, Probe, SolverContext, SolverStats};
use jcr_topo::{Topology, TopologyKind};
use jcr_trace::videos::EVAL_HOURS;

use crate::clock;

/// Share seeds of the paper grid, per level: 20 rows × 20 = 400 solves.
const GRID_SHARE_SEEDS: usize = 20;
/// The grid's share seeds are the experiment harness's Monte-Carlo run
/// seeds `1 + 1009 k` for `k < GRID_UNIVERSE`.
const GRID_UNIVERSE: u64 = 1000;
/// The `k < GRID_UNIVERSE` on which a grid row returns `Err`: file-level
/// alternating meets an LP certificate that rejects the basis the simplex
/// returned (`compl-slack-rows` residual just above its 1e-5 tolerance).
/// They stay out so that no operation of the workload fails; the README
/// lists them as a reproducer.
const GRID_FAILING: [u64; 10] = [28, 151, 170, 211, 225, 341, 508, 599, 677, 912];
/// The online share seed is `1 + 1009 k` for a `k < ONLINE_UNIVERSE`.
const ONLINE_UNIVERSE: u64 = 100;
/// The `k < ONLINE_UNIVERSE` whose horizon has one hour the full rung does
/// not serve: the same LP certificate rejection as [`GRID_FAILING`], after
/// which `cold-restore` serves the hour. They stay out so that every hour
/// is served by `full`; the README lists them.
const ONLINE_DEGRADED: [u64; 16] = [
    25, 26, 27, 40, 43, 46, 50, 53, 55, 60, 72, 74, 75, 79, 82, 89,
];
/// The stress network is one fixed draw of the `Stress` family, as the
/// grid's is the paper's fixed Abovenet; the run seed moves the demand.
const STRESS_TOPOLOGY_SEED: u64 = 1;
/// Stress catalog size and requested head: 64 of 1000 items, 4
/// requesters each, so 256 requests touch 6.4% of the catalog.
const STRESS_ITEMS: usize = 1000;
const STRESS_ACTIVE_ITEMS: usize = 64;
/// Items per stress cache: the 64 caches hold 128, so at most half the
/// requests can be served where they are made.
const STRESS_CACHE: f64 = 2.0;
/// Demand draws per stress pass. Several half-second solves instead of
/// one long one let the host-speed reference be sampled between them
/// (see [`clock`]).
const STRESS_DRAWS: usize = 4;
/// Deltacom instances of the LP-free workload.
const LP_FREE_POINTS: usize = 100;
const LP_FREE_ITEMS: usize = 400;
/// LP-free cache capacity in 100-MB units (item sizes are 1–5 units).
const LP_FREE_CACHE: f64 = 60.0;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The ten Table 3/4 rows at chunk and file level over 20 share seeds.
    PaperGrid,
    /// `OnlineSimulator::step_anytime` over the 100-hour GPR horizon.
    Online100h,
    /// Alternating and SP placement on the 1000-node `Stress` topology.
    StressSolve,
    /// Greedy + RNR, Algorithm 2 and RNR on Deltacom: no simplex at all.
    LpFree,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::Online100h,
        Workload::StressSolve,
        Workload::LpFree,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::Online100h => "online_100h",
            Workload::StressSolve => "stress_solve",
            Workload::LpFree => "lp_free",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale. `Reduced` keeps every row of a workload but shrinks its
/// inputs to a few small instances, so the test suite can run each
/// workload in an unoptimized build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's inputs.
    Full,
    /// A few small instances per workload.
    Reduced,
}

impl Size {
    fn pick(self, full: usize, reduced: usize) -> usize {
        match self {
            Size::Full => full,
            Size::Reduced => reduced,
        }
    }
}

/// A solver call as the benchmark issues it: the instance, the context
/// it passes in, and whether benchmark-owned spans are on.
type SolveFn = fn(&Instance, &SolverContext, bool) -> Result<Solution, JcrError>;

/// Which variant of a scenario point a row solves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum On {
    /// Unlimited link capacities (the paper's `c_uv = ∞` rows).
    Uncapped,
    /// Link capacities κ (the paper's general rows).
    Capped,
    /// Link capacities κ, and caches of `c_v ∈ {0, |C|}`: the first cache
    /// node stores the whole catalog, the others nothing (`c_v = 0/|C|`).
    Binary,
}

/// One algorithm × scenario row of a workload.
pub struct Row {
    /// Row name; the per-row metric is `core.<name>.solve_ms_p50`.
    pub name: &'static str,
    /// The benchmark-owned span around each call of this row.
    pub span: &'static str,
    on: On,
    /// The algorithm places items as if all had unit size, so with
    /// heterogeneous sizes it may overfill caches (the paper's file-level
    /// finding); certification then tolerates a cache-capacity failure.
    size_blind: bool,
    solve: SolveFn,
}

macro_rules! row {
    ($name:literal, $on:expr, $solve:expr) => {
        row!($name, $on, $solve, false)
    };
    ($name:literal, $on:expr, $solve:expr, size_blind) => {
        row!($name, $on, $solve, true)
    };
    ($name:literal, $on:expr, $solve:expr, $size_blind:literal) => {
        Row {
            name: $name,
            span: concat!("bench.", $name),
            on: $on,
            size_blind: $size_blind,
            solve: $solve,
        }
    };
}

/// The online workload's only row: one `step_anytime` hour.
pub const ONLINE_HOUR: (&str, &str) = ("online.hour", "bench.online.hour");

fn alg1(inst: &Instance, ctx: &SolverContext, _: bool) -> Result<Solution, JcrError> {
    Algorithm1::new().solve_with_context(inst, ctx)
}

fn ksp(inst: &Instance, ctx: &SolverContext, _: bool) -> Result<Solution, JcrError> {
    IoannidisYeh::k_shortest(10).solve_with_context(inst, ctx)
}

fn sp(inst: &Instance, ctx: &SolverContext, _: bool) -> Result<Solution, JcrError> {
    ShortestPathPlacement.solve_with_context(inst, ctx)
}

fn sp_rnr(inst: &Instance, ctx: &SolverContext, _: bool) -> Result<Solution, JcrError> {
    IoannidisYeh::sp_rnr().solve_with_context(inst, ctx)
}

fn ksp_rnr(inst: &Instance, ctx: &SolverContext, _: bool) -> Result<Solution, JcrError> {
    IoannidisYeh::ksp_rnr(10).solve_with_context(inst, ctx)
}

fn alternating(inst: &Instance, ctx: &SolverContext, _: bool) -> Result<Solution, JcrError> {
    Alternating::new()
        .solve_with_context(inst, ctx)
        .map(|r| r.solution)
}

fn alg2_k1000(inst: &Instance, ctx: &SolverContext, _: bool) -> Result<Solution, JcrError> {
    alg2::solve_binary_caches_with_context(inst, &inst.cache_nodes()[..1], 1000, ctx)
        .map(|s| s.solution)
}

fn alg2_k2(inst: &Instance, ctx: &SolverContext, _: bool) -> Result<Solution, JcrError> {
    alg2::solve_binary_caches_with_context(inst, &inst.cache_nodes()[..1], 2, ctx)
        .map(|s| s.solution)
}

// The context-free entry points below would fill the distance oracle
// serially on a private context; filling it through ours first puts that
// work on the pool and in the counters, as the context-aware solvers do.

fn rnr_binary(inst: &Instance, ctx: &SolverContext, _: bool) -> Result<Solution, JcrError> {
    inst.all_pairs_with_context(ctx);
    alg2::rnr_binary(inst, &inst.cache_nodes()[..1])
}

fn greedy_rnr(inst: &Instance, ctx: &SolverContext, traced: bool) -> Result<Solution, JcrError> {
    inst.all_pairs_with_context(ctx);
    let placement = {
        let _span = traced.then(|| ctx.span("submodular.greedy"));
        hetero::greedy_placement_rnr(inst)
    };
    let routing = rnr::route_to_nearest_replica(inst, &placement).ok_or(JcrError::Infeasible)?;
    Ok(Solution { placement, routing })
}

/// Table 3 (chunk level) in the paper's row order.
pub static GRID_CHUNK: [Row; 10] = [
    row!("grid.chunk.alg1", On::Uncapped, alg1),
    row!("grid.chunk.ksp", On::Uncapped, ksp),
    row!("grid.chunk.sp_uncapped", On::Uncapped, sp),
    row!("grid.chunk.alg2_k1000", On::Binary, alg2_k1000),
    row!("grid.chunk.alg2_k2", On::Binary, alg2_k2),
    row!("grid.chunk.rnr_binary", On::Binary, rnr_binary),
    row!("grid.chunk.alternating", On::Capped, alternating),
    row!("grid.chunk.sp", On::Capped, sp),
    row!("grid.chunk.sp_rnr", On::Capped, sp_rnr),
    row!("grid.chunk.ksp_rnr", On::Capped, ksp_rnr),
];

/// Table 4 (file level): the same rows with the §5 greedy as "ours".
pub static GRID_FILE: [Row; 10] = [
    row!("grid.file.greedy_rnr", On::Uncapped, greedy_rnr),
    row!("grid.file.ksp", On::Uncapped, ksp, size_blind),
    row!("grid.file.sp_uncapped", On::Uncapped, sp, size_blind),
    row!("grid.file.alg2_k1000", On::Binary, alg2_k1000),
    row!("grid.file.alg2_k2", On::Binary, alg2_k2),
    row!("grid.file.rnr_binary", On::Binary, rnr_binary),
    row!("grid.file.alternating", On::Capped, alternating),
    row!("grid.file.sp", On::Capped, sp, size_blind),
    row!("grid.file.sp_rnr", On::Capped, sp_rnr, size_blind),
    row!("grid.file.ksp_rnr", On::Capped, ksp_rnr, size_blind),
];

/// Algorithm 1 is left out: it takes about a minute per solve here.
pub static STRESS: [Row; 2] = [
    row!("stress.alternating", On::Uncapped, alternating),
    row!("stress.sp", On::Uncapped, sp),
];

pub static LP_FREE: [Row; 4] = [
    row!("lpfree.greedy_rnr", On::Uncapped, greedy_rnr),
    row!("lpfree.alg2_k1000", On::Binary, alg2_k1000),
    row!("lpfree.alg2_k2", On::Binary, alg2_k2),
    row!("lpfree.rnr_binary", On::Binary, rnr_binary),
];

/// Every row name of every workload, in a fixed order.
pub fn row_names() -> Vec<&'static str> {
    let tables: [&[Row]; 4] = [&GRID_CHUNK, &GRID_FILE, &STRESS, &LP_FREE];
    let mut names: Vec<&'static str> = tables
        .iter()
        .flat_map(|t| t.iter().map(|r| r.name))
        .collect();
    names.push(ONLINE_HOUR.0);
    names
}

/// One solve of a pass: a row on one instance.
pub struct Task {
    row: &'static Row,
    inst: usize,
}

/// Independent solves: pristine instances and the tasks over them.
#[derive(Default)]
pub struct SolveInputs {
    instances: Vec<Instance>,
    tasks: Vec<Task>,
}

impl SolveInputs {
    /// Adds one scenario point and a task per row on it. The binary-cache
    /// variant, when a row needs it, is derived from the capped one.
    fn push_point(&mut self, rows: &'static [Row], uncapped: Instance, capped: Option<Instance>) {
        let binary = rows.iter().any(|r| r.on == On::Binary).then(|| {
            let mut inst = capped
                .clone()
                .expect("binary rows come with a capped instance");
            let storer = inst.cache_nodes()[0];
            let catalog: f64 = inst.item_size.iter().sum();
            inst.cache_cap.iter_mut().for_each(|c| *c = 0.0);
            inst.cache_cap[storer.index()] = catalog;
            inst
        });
        let mut index = |inst: Option<Instance>| {
            inst.map(|inst| {
                self.instances.push(inst);
                self.instances.len() - 1
            })
        };
        let (u, c, b) = (index(Some(uncapped)), index(capped), index(binary));
        for row in rows {
            let inst = match row.on {
                On::Uncapped => u,
                On::Capped => c,
                On::Binary => b,
            };
            self.tasks.push(Task {
                row,
                inst: inst.expect("every row's variant was built"),
            });
        }
    }
}

/// One online horizon: the hourly decision instances (built from the GPR
/// forecasts) and the true rates each hour is evaluated under.
pub struct OnlineSequence {
    hours: Vec<Instance>,
    truth: Vec<Vec<f64>>,
}

/// A workload's inputs.
pub enum Inputs {
    /// Independent solves.
    Solves(SolveInputs),
    /// One online horizon, stepped hour by hour.
    Online(OnlineSequence),
}

/// Where set-up CPU time went.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// The whole set-up.
    pub total: Duration,
    /// Topology generation (`jcr-topo`).
    pub topo: Duration,
    /// Trace synthesis, GPR forecasts and Zipf demand (`jcr-trace`).
    pub demand: Duration,
    /// Instance building (`jcr-core`).
    pub build: Duration,
}

impl SetupTimes {
    /// Every time multiplied by `factor`.
    pub fn scaled(self, factor: f64) -> Self {
        SetupTimes {
            total: self.total.mul_f64(factor),
            topo: self.topo.mul_f64(factor),
            demand: self.demand.mul_f64(factor),
            build: self.build.mul_f64(factor),
        }
    }
}

/// What the inputs are, independent of how long they took to make.
#[derive(Clone, Debug, PartialEq)]
pub struct InputManifest {
    /// FNV-1a over link costs, link and cache capacities, item sizes,
    /// requests and (online) true rates.
    pub checksum: u64,
    /// Mean share of each instance's catalog that has a request.
    pub requested_item_share: f64,
    /// Instances built.
    pub instances: usize,
}

/// A built workload.
pub struct Setup {
    /// The inputs.
    pub inputs: Inputs,
    /// Set-up time by layer.
    pub times: SetupTimes,
    /// Input checksum and shape.
    pub manifest: InputManifest,
}

/// Runs `f`, adding the CPU time it took to `acc`.
fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = clock::process_cpu();
    let value = f();
    *acc += clock::process_cpu().saturating_sub(start);
    value
}

/// The share seeds of run seed `seed`: the next `count` points `k` of
/// `0..universe` from `seed × count` on, wrapping and skipping `excluded`,
/// each as the experiment harness's Monte-Carlo run seed `1 + 1009 k`. Seed
/// 0 starts at the paper's default share seed 1.
fn share_seeds(seed: u64, count: usize, universe: u64, excluded: &[u64]) -> Vec<u64> {
    let start = seed.wrapping_mul(count as u64) % universe;
    (0..universe)
        .map(|i| (start + i) % universe)
        .filter(|k| !excluded.contains(k))
        .take(count)
        .map(|k| 1 + 1009 * k)
        .collect()
}

/// Builds a workload's inputs from `seed`.
pub fn setup(workload: Workload, seed: u64, size: Size) -> Setup {
    let mut times = SetupTimes::default();
    let mut total = Duration::ZERO;
    let inputs = timed(&mut total, || match workload {
        Workload::PaperGrid => Inputs::Solves(paper_grid(seed, size, &mut times)),
        Workload::Online100h => Inputs::Online(online(seed, size, &mut times)),
        Workload::StressSolve => Inputs::Solves(stress(seed, size, &mut times)),
        Workload::LpFree => Inputs::Solves(lp_free(seed, size, &mut times)),
    });
    times.total = total;
    let manifest = inputs.manifest();
    Setup {
        inputs,
        times,
        manifest,
    }
}

fn paper_grid(seed: u64, size: Size, times: &mut SetupTimes) -> SolveInputs {
    let mut out = SolveInputs::default();
    for (level, rows) in [
        (Scenario::chunk_default(), &GRID_CHUNK),
        (Scenario::file_default(), &GRID_FILE),
    ] {
        let sc = Scenario { hours: 1, ..level };
        let topo = timed(&mut times.topo, || sc.topology());
        let base = timed(&mut times.demand, || sc.demand_base());
        let n_edges = topo.edge_nodes.len();
        let count = size.pick(GRID_SHARE_SEEDS, 1);
        for share_seed in share_seeds(seed, count, GRID_UNIVERSE, &GRID_FAILING) {
            let capped = Scenario {
                share_seed,
                ..sc.clone()
            };
            let uncapped = Scenario {
                kappa_fraction: None,
                ..capped.clone()
            };
            let rates = timed(&mut times.demand, || {
                capped.demand_from(&base, n_edges).true_rates(0, n_edges)
            });
            let (u, c) = timed(&mut times.build, || {
                (
                    build_instance_with(&topo, &uncapped, &rates),
                    build_instance_with(&topo, &capped, &rates),
                )
            });
            out.push_point(rows, u, Some(c));
        }
    }
    out
}

fn online(seed: u64, size: Size, times: &mut SetupTimes) -> OnlineSequence {
    // `Scenario::demand_base` panics past the trace's 100 evaluation
    // hours, so the horizon stops there.
    let hours = size.pick(EVAL_HOURS, 3);
    let sc = Scenario {
        hours,
        share_seed: share_seeds(seed, 1, ONLINE_UNIVERSE, &ONLINE_DEGRADED)[0],
        ..Scenario::chunk_default()
    };
    let topo = timed(&mut times.topo, || sc.topology());
    let n_edges = topo.edge_nodes.len();
    let demand = timed(&mut times.demand, || sc.demand(n_edges));
    let mut seq = OnlineSequence {
        hours: Vec::with_capacity(hours),
        truth: Vec::with_capacity(hours),
    };
    for h in 0..hours {
        let (predicted, truth) = timed(&mut times.demand, || {
            (
                demand.predicted_rates(h, n_edges),
                demand.true_rates(h, n_edges),
            )
        });
        let inst = timed(&mut times.build, || {
            build_instance_with(&topo, &sc, &predicted)
        });
        seq.hours.push(inst);
        // Floored like the instance's own rates, so the two stay aligned
        // request for request.
        seq.truth.push(
            flatten_rates(&truth)
                .into_iter()
                .map(|r| r.max(1e-6))
                .collect(),
        );
    }
    seq
}

fn stress(seed: u64, size: Size, times: &mut SetupTimes) -> SolveInputs {
    let n_items = size.pick(STRESS_ITEMS, 200);
    let active = size.pick(STRESS_ACTIVE_ITEMS, 16);
    let topo = timed(&mut times.topo, || {
        Topology::generate(TopologyKind::Stress, STRESS_TOPOLOGY_SEED)
            .expect("the stress family generates")
    });
    let mut out = SolveInputs::default();
    for k in 0..size.pick(STRESS_DRAWS, 1) {
        // Runs of nearby seeds share no draw.
        let s = seed.wrapping_mul(1_000_003).wrapping_add(k as u64);
        let requests: Vec<Request> = timed(&mut times.demand, || {
            let mut rng = StdRng::seed_from_u64(s ^ 0x7374_7265_7373);
            // Which edge node requests which item: a seeded permutation of
            // the requesters the sparse Zipf generator assigns by rotation.
            let mut requesters = topo.edge_nodes.clone();
            for i in (1..requesters.len()).rev() {
                requesters.swap(i, rng.gen_range(0..=i));
            }
            jcr_trace::zipf::zipf_demand_sparse(
                n_items,
                requesters.len(),
                0.8,
                4_000.0,
                active,
                4,
                &mut rng,
            )
            .into_iter()
            .map(|(item, s, rate)| Request {
                item,
                node: requesters[s],
                rate,
            })
            .collect()
        });
        let inst = timed(&mut times.build, || {
            let mut cache_cap = vec![0.0; topo.graph.node_count()];
            for &v in &topo.edge_nodes {
                cache_cap[v.index()] = STRESS_CACHE;
            }
            let n_links = topo.graph.edge_count();
            Instance::new(
                topo.graph.clone(),
                topo.cost.clone(),
                vec![f64::INFINITY; n_links],
                cache_cap,
                vec![1.0; n_items],
                requests,
                Some(topo.origin),
            )
            .expect("stress instances are valid")
            // On-demand distance rows only: no |V|² block at this scale.
            .with_oracle_dense_max(0)
        });
        out.push_point(&STRESS, inst, None);
    }
    out
}

fn lp_free(seed: u64, size: Size, times: &mut SetupTimes) -> SolveInputs {
    let n_items = size.pick(LP_FREE_ITEMS, 40);
    let mut out = SolveInputs::default();
    for k in 0..size.pick(LP_FREE_POINTS, 2) {
        // Runs of nearby seeds share no Deltacom draw.
        let s = seed.wrapping_mul(1_000_003).wrapping_add(k as u64);
        let topo = timed(&mut times.topo, || {
            Topology::generate(TopologyKind::Deltacom, s).expect("Deltacom generates")
        });
        let (u, c) = timed(&mut times.build, || {
            let mut rng = StdRng::seed_from_u64(s ^ 0x7369_7a65);
            let sizes: Vec<f64> = (0..n_items).map(|_| rng.gen_range(1.0..5.0)).collect();
            let builder = InstanceBuilder::new(topo)
                .item_sizes(sizes)
                .cache_capacity(LP_FREE_CACHE)
                .zipf_demand(0.8, 10_000.0, s);
            (
                builder
                    .clone()
                    .build()
                    .expect("LP-free instances are valid"),
                builder
                    .link_capacity_fraction(0.007)
                    .build()
                    .expect("LP-free instances are valid"),
            )
        });
        out.push_point(&LP_FREE, u, Some(c));
    }
    out
}

impl Inputs {
    fn manifest(&self) -> InputManifest {
        let mut bytes = Vec::new();
        let mut shares = Vec::new();
        let mut add = |inst: &Instance, truth: &[f64]| {
            let requests = inst
                .requests
                .iter()
                .flat_map(|r| [r.item as f64, r.node.index() as f64, r.rate]);
            for v in inst
                .link_cost
                .iter()
                .chain(&inst.link_cap)
                .chain(&inst.cache_cap)
                .chain(&inst.item_size)
                .copied()
                .chain(requests)
                .chain(truth.iter().copied())
            {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            let mut requested = vec![false; inst.num_items()];
            for r in &inst.requests {
                requested[r.item] = true;
            }
            let hit = requested.iter().filter(|&&b| b).count();
            shares.push(hit as f64 / inst.num_items().max(1) as f64);
        };
        match self {
            Inputs::Solves(s) => s.instances.iter().for_each(|inst| add(inst, &[])),
            Inputs::Online(seq) => {
                for (inst, truth) in seq.hours.iter().zip(&seq.truth) {
                    add(inst, truth);
                }
            }
        }
        InputManifest {
            checksum: fnv1a(&bytes),
            requested_item_share: shares.iter().sum::<f64>() / shares.len().max(1) as f64,
            instances: shares.len(),
        }
    }
}

/// Wall and CPU clock readings at the start of a timed call.
#[derive(Clone, Copy)]
struct Stopwatch {
    wall: Instant,
    cpu: Duration,
}

impl Stopwatch {
    fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: clock::process_cpu(),
        }
    }
}

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    /// The row it belongs to.
    pub row: &'static str,
    /// Its wall time.
    pub wall_nanos: u64,
    /// CPU time of every thread of the process during the call.
    pub cpu_nanos: u64,
    /// The factor that scales its CPU time to the nominal host, from the
    /// two reference samples around the stretch of calls it belongs to.
    pub scale: f64,
}

impl Call {
    /// CPU time scaled to the nominal host, in ms: the reported time.
    pub fn scaled_ms(&self) -> f64 {
        self.cpu_nanos as f64 / 1e6 * self.scale
    }
}

/// Measured CPU time between two reference samples of a pass. The host's
/// speed changes within a second, so samples are dense.
const REFERENCE_EVERY: Duration = Duration::from_millis(100);

/// The result of one measured pass.
#[derive(Default)]
pub struct Pass {
    /// Whether benchmark-owned spans were on and snapshots collected.
    pub traced: bool,
    /// Sum of the timed calls' wall time: the measured section.
    pub wall: Duration,
    /// CPU time of the measured section.
    pub cpu: Duration,
    /// Reference samples, taken before the first call, between calls
    /// every [`REFERENCE_EVERY`] of measured CPU time, and after the last.
    pub references: Vec<Duration>,
    /// `cpu` at the last reference sample.
    referenced_at: Duration,
    /// Calls made before the last reference sample.
    referenced_calls: usize,
    /// Every call, in issue order.
    pub calls: Vec<Call>,
    /// Certified cost per call (realized cost for online hours); NaN
    /// where the call failed.
    pub costs: Vec<f64>,
    /// Calls that returned `Err`.
    pub errors: usize,
    /// Calls whose solution did not certify.
    pub uncertified: usize,
    /// Calls of size-blind rows whose placement overfilled a cache.
    pub overflowing: usize,
    /// Online hours served by a rung other than `full`: which hour, and
    /// why each earlier rung failed.
    pub degraded: Vec<String>,
    /// Work counters and phase timers of the whole pass.
    pub stats: SolverStats,
    /// Time spent certifying, outside the measured section.
    pub certify: Duration,
    /// Traced passes: the span tree and metrics of every call.
    pub obs: Option<ObsSnapshot>,
    /// Traced passes: the first call of each row, for the Chrome trace.
    pub sample: Option<ObsSnapshot>,
}

impl Pass {
    fn new(traced: bool) -> Self {
        Pass {
            traced,
            ..Pass::default()
        }
    }

    /// Takes a reference sample when one is due: before the first call and
    /// after every [`REFERENCE_EVERY`] of measured CPU time.
    fn reference_if_due(&mut self) {
        if self.references.is_empty() || self.cpu - self.referenced_at >= REFERENCE_EVERY {
            self.reference();
        }
    }

    /// Takes a reference sample and scales the calls since the previous
    /// one by the two samples around them.
    fn reference(&mut self) {
        let sample = clock::reference();
        if let Some(&previous) = self.references.last() {
            let scale = clock::scale(&[previous, sample]);
            for call in &mut self.calls[self.referenced_calls..] {
                call.scale = scale;
            }
        }
        self.referenced_calls = self.calls.len();
        self.referenced_at = self.cpu;
        self.references.push(sample);
    }

    /// The factor that scales CPU time to the nominal host at this pass's
    /// median reference sample.
    pub fn scale(&self) -> f64 {
        clock::scale(&self.references)
    }

    fn record(&mut self, row: &'static str, started: Stopwatch) {
        let cpu = clock::process_cpu().saturating_sub(started.cpu);
        let elapsed = started.wall.elapsed();
        let nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.wall += elapsed;
        self.cpu += cpu;
        self.calls.push(Call {
            row,
            wall_nanos: nanos(elapsed),
            cpu_nanos: nanos(cpu),
            // Set by the next reference sample.
            scale: f64::NAN,
        });
    }

    /// Certifies a returned solution, outside the timed call, and records
    /// its cost.
    fn settle(
        &mut self,
        inst: &Instance,
        result: Result<(&Solution, f64), &JcrError>,
        size_blind: bool,
    ) {
        let start = Instant::now();
        let cost = match result {
            Err(_) => {
                self.errors += 1;
                f64::NAN
            }
            Ok((solution, cost)) => {
                // Link capacities are recorded, not gated: the randomized
                // rounding and the baselines are bicriteria.
                let cert = certify_solution(inst, solution, false);
                if !cert.verified() {
                    if size_blind && cert.failures().all(|c| c.name == "cache-capacity") {
                        self.overflowing += 1;
                    } else {
                        self.uncertified += 1;
                    }
                }
                cost
            }
        };
        self.costs.push(cost);
        self.certify += start.elapsed();
    }

    /// FNV-1a over the bits of every cost, in call order.
    pub fn checksum(&self) -> u64 {
        let bytes: Vec<u8> = self
            .costs
            .iter()
            .flat_map(|c| c.to_bits().to_le_bytes())
            .collect();
        fnv1a(&bytes)
    }
}

/// Runs one pass over `inputs` at pool width `width`.
pub fn run_pass(inputs: &Inputs, width: usize, traced: bool) -> Pass {
    match inputs {
        Inputs::Solves(s) => solve_pass(s, width, traced),
        Inputs::Online(seq) => online_pass(seq, traced),
    }
}

fn solve_pass(inputs: &SolveInputs, width: usize, traced: bool) -> Pass {
    let mut pass = Pass::new(traced);
    let all = traced.then(SolverContext::new);
    let sample = traced.then(SolverContext::new);
    let mut sampled: Vec<&str> = Vec::new();
    for task in &inputs.tasks {
        let pristine = &inputs.instances[task.inst];
        let inst = pristine.clone();
        let ctx = SolverContext::new().with_workers(width);
        pass.reference_if_due();
        let start = Stopwatch::start();
        let result = {
            let _span = traced.then(|| ctx.span(task.row.span));
            (task.row.solve)(&inst, &ctx, traced)
        };
        pass.record(task.row.name, start);
        pass.stats.absorb(&ctx.stats());
        if let (Some(all), Some(sample)) = (&all, &sample) {
            let snap = ctx.obs_snapshot();
            if !sampled.contains(&task.row.name) {
                sampled.push(task.row.name);
                sample.absorb_obs(&snap);
            }
            all.absorb_obs(&snap);
        }
        pass.settle(
            pristine,
            result.as_ref().map(|s| (s, s.cost(pristine))),
            task.row.size_blind,
        );
    }
    pass.reference();
    pass.obs = all.map(|c| c.obs_snapshot());
    pass.sample = sample.map(|c| c.obs_snapshot());
    pass
}

/// Mirrors the simulator's internal per-rung contexts, which the
/// benchmark cannot pass in: their counters and phase timers accumulate
/// into a context of ours, and each failed rung's reason is kept.
#[derive(Default)]
struct RungProbe {
    stats: SolverContext,
    failures: RefCell<Vec<String>>,
}

impl Probe for RungProbe {
    fn count(&self, counter: Counter, by: u64) {
        self.stats.count(counter, by);
    }

    fn phase_elapsed(&self, phase: Phase, nanos: u64) {
        let mut one = SolverStats::default();
        let i = Phase::ALL
            .iter()
            .position(|&p| p == phase)
            .expect("Phase::ALL lists every phase");
        one.phase_nanos[i] = nanos;
        self.stats.absorb_stats(&one);
    }

    fn event(&self, name: &str, fields: &[(&str, &str)]) {
        let field = |key: &str| fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        if name == "rung" && field("status") == Some("failed") {
            self.failures.borrow_mut().push(format!(
                "{} failed: {}",
                field("rung").unwrap_or("?"),
                field("detail").unwrap_or("")
            ));
        }
    }
}

fn online_pass(seq: &OnlineSequence, traced: bool) -> Pass {
    let mut pass = Pass::new(traced);
    let probe = Rc::new(RungProbe::default());
    let cfg = AnytimeConfig::new().with_probe(probe.clone());
    let all = traced.then(SolverContext::new);
    let mut sim = OnlineSimulator::new(Alternating::new());
    for (hour, (inst, truth)) in seq.hours.iter().zip(&seq.truth).enumerate() {
        let decision = inst.clone();
        pass.reference_if_due();
        let start = Stopwatch::start();
        let outcome = {
            let _span = all.as_ref().map(|c| c.span(ONLINE_HOUR.1));
            sim.step_anytime(&decision, truth, &cfg)
        };
        pass.record(ONLINE_HOUR.0, start);
        let failures = std::mem::take(&mut *probe.failures.borrow_mut());
        if let Ok(o) = &outcome {
            if o.rung != Rung::Full {
                pass.degraded
                    .push(format!("hour {hour}: {} ({})", o.rung, failures.join("; ")));
            }
        }
        pass.settle(
            inst,
            outcome.as_ref().map(|o| (&o.solution, o.realized_cost)),
            false,
        );
    }
    pass.reference();
    pass.stats = probe.stats.stats();
    pass.obs = all.as_ref().map(SolverContext::obs_snapshot);
    pass.sample = all.map(|c| c.obs_snapshot());
    pass
}
