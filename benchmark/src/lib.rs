//! End-to-end benchmark of the jcr solver stack, split by layer.
//!
//! One run measures one workload at one seed. It builds the workload's
//! inputs at least [`SETUP_REPS`] times (`setup_s` is the median), then repeats
//! passes over the first copy until the time budget is spent, at least
//! [`MIN_PASSES`] times. The first pass warms up and is not timed. Every
//! pass issues the same deterministic calls in the same order, so each
//! call has one time per timed pass: `solve_s` is the sum over the calls of
//! each call's median time, and `solve_ms_p50` the median over rows of each
//! row's median call. Times are CPU times scaled to a host of nominal
//! speed by reference samples taken between the calls (see [`clock`]).
//! Every returned solution is certified outside the timed
//! calls, and every pass must reproduce the first pass's cost checksum and
//! work counters exactly.
//!
//! The benchmark sees the layers only from outside: it times its own
//! calls into the crates' public functions, reads `SolverContext::stats`
//! and `obs_snapshot` on the contexts it passes in, and in traced runs
//! opens its own spans around each call. Untraced runs report the
//! end-to-end metrics; traced runs alternate untraced and traced passes
//! and report the per-layer metrics, including the tracing overhead.

mod clock;
mod layers;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use jcr_bench::json::Json;
use jcr_bench::profile::{chrome_trace, collapsed_stacks};
use jcr_ctx::obs::ObsSnapshot;
use jcr_ctx::{par, Counter, Phase};

use workloads::{Call, Pass, SetupTimes};
pub use workloads::{Size, Workload};

/// Set-up repetitions per run at least; cheap set-ups repeat until
/// [`SETUP_BUDGET`] is spent, up to [`MAX_SETUP_REPS`], so that a median
/// of milliseconds is not one page-fault burst.
pub const SETUP_REPS: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
const MAX_SETUP_REPS: usize = 25;
/// Passes per run at least: the untimed warm-up and two timed ones. Traced
/// runs alternate traced and untraced passes after the warm-up, so they
/// get at least one of each.
pub const MIN_PASSES: usize = 3;
/// `solve_ms_p95` needs ten calls beyond it.
const P95_MIN_CALLS: usize = 200;

/// Checksums of the default-seed inputs and answers at full size. A
/// different input checksum means a generator changed, so the workload
/// changed; a different output checksum means the answers changed.
pub const RECORDED: &str = include_str!("../recorded.json");

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed: the same seed builds the same inputs.
    pub seed: u64,
    /// Measurement budget in seconds (at least [`MIN_PASSES`] passes run).
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where traced runs write the layer JSON, Chrome trace and folded
    /// stacks.
    pub out_dir: PathBuf,
    /// Input scale.
    pub size: Size,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// Calls issued across every pass.
    pub attempted: usize,
    /// Calls that returned `Err` or whose solution did not certify.
    pub failed: usize,
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Seed, host, input and output checksums, and the measurements that
    /// are not metrics.
    pub manifest: Json,
    /// Why the outputs cannot be trusted; empty when they can.
    pub problems: Vec<String>,
    /// FNV-1a over the inputs.
    pub input_checksum: u64,
    /// FNV-1a over the bits of every cost of a pass.
    pub output_checksum: u64,
    /// Work counters of one pass, in `Counter::ALL` order.
    pub counters: [u64; 6],
    /// Traced runs: layer self time over the traced measured section.
    pub layer_coverage: Option<f64>,
}

impl Report {
    /// Whether every solution certified and every repetition agreed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result object the benchmark prints last.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Renders `json` on one line (the renderer indents; strings never hold a
/// raw newline, so joining trimmed lines is lossless).
pub fn one_line(json: &Json) -> String {
    json.render().lines().map(str::trim).collect()
}

/// Median of a sample (0 for an empty one).
fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ms(nanos: impl Into<u128>) -> f64 {
    nanos.into() as f64 / 1e6
}

/// How a call is timed, in ms.
type CallClock = fn(&Call) -> f64;

fn cpu_ms(call: &Call) -> f64 {
    ms(call.cpu_nanos)
}

fn wall_ms(call: &Call) -> f64 {
    ms(call.wall_nanos)
}

/// Each call's median time in ms over `passes`, in call order. Every pass
/// issues the same calls in the same order.
fn median_calls(passes: &[&Pass], clock: CallClock) -> Vec<f64> {
    let calls = passes.first().map_or(0, |p| p.calls.len());
    (0..calls)
        .map(|i| median(passes.iter().map(|p| clock(&p.calls[i])).collect()))
        .collect()
}

/// Every call time in ms of `passes`, sorted.
fn sorted_call_times(passes: &[&Pass]) -> Vec<f64> {
    let mut times: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.calls.iter().map(Call::scaled_ms))
        .collect();
    times.sort_by(f64::total_cmp);
    times
}

/// Each row's median call time in ms over `passes`, for the rows they ran.
fn row_medians(passes: &[&Pass]) -> BTreeMap<&'static str, f64> {
    let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for p in passes {
        for c in &p.calls {
            times.entry(c.row).or_default().push(c.scaled_ms());
        }
    }
    times.into_iter().map(|(row, t)| (row, median(t))).collect()
}

/// Peak resident set size in MB (`VmHWM` of `/proc/self/status`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// The recorded checksums of `workload` when `opts` is the default-seed
/// full-size run, as `(input, output)` hex strings.
fn recorded(opts: &Options) -> Option<(String, String)> {
    let doc = Json::parse(RECORDED).expect("recorded.json is valid JSON");
    let seed = doc.get("seed").and_then(Json::as_f64)?;
    if opts.size != Size::Full || seed != opts.seed as f64 {
        return None;
    }
    let entry = doc.get(opts.workload.name())?;
    let hex = |key: &str| entry.get(key).and_then(Json::as_str).map(String::from);
    Some((hex("input")?, hex("output")?))
}

/// Runs one workload as `opts` says.
///
/// # Errors
///
/// Reading the peak RSS or writing the trace files failed.
pub fn run(opts: &Options) -> Result<Report, String> {
    let width = jcr_ctx::default_workers();
    let mut problems = Vec::new();

    // Each set-up is scaled by reference samples taken just before and
    // after it.
    let set_up = || {
        let before = clock::reference();
        let setup = workloads::setup(opts.workload, opts.seed, opts.size);
        let scale = clock::scale(&[before, clock::reference()]);
        (setup, scale)
    };
    let (setup, scale) = set_up();
    let mut setup_times = vec![setup.times.scaled(scale)];
    while setup_times.len() < SETUP_REPS
        || (setup_times.len() < MAX_SETUP_REPS
            && setup_times.iter().map(|t| t.total).sum::<Duration>() < SETUP_BUDGET)
    {
        let (again, scale) = set_up();
        if again.manifest != setup.manifest {
            problems.push(format!(
                "set-up {} built different inputs than set-up 0",
                setup_times.len()
            ));
        }
        setup_times.push(again.times.scaled(scale));
    }

    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES
        || start.elapsed() + start.elapsed() / passes.len() as u32 <= budget
    {
        let traced = opts.trace && passes.len() % 2 == 1;
        passes.push(workloads::run_pass(&setup.inputs, width, traced));
    }

    let first = &passes[0];
    let output_checksum = first.checksum();
    let counters = first.stats.counters();
    for (i, pass) in passes.iter().enumerate().skip(1) {
        if pass.checksum() != output_checksum {
            problems.push(format!(
                "pass {i} cost checksum {:016x} differs from pass 0's {output_checksum:016x}",
                pass.checksum()
            ));
        }
        if pass.stats.counters() != counters {
            problems.push(format!(
                "pass {i} counters {:?} differ from pass 0's {counters:?}",
                pass.stats.counters()
            ));
        }
    }
    // Pass 0 is the warm-up: checked like every pass, timed by none.
    let (traced, untraced): (Vec<&Pass>, Vec<&Pass>) =
        passes.iter().skip(1).partition(|p| p.traced);
    if let Some((head, rest)) = traced.split_first() {
        let shape = obs_of(head).shape();
        if rest.iter().any(|p| obs_of(p).shape() != shape) {
            problems.push("traced passes recorded different span trees or metrics".into());
        }
    }
    let uncertified: usize = passes.iter().map(|p| p.uncertified).sum();
    if uncertified > 0 {
        problems.push(format!(
            "{uncertified} returned solutions failed certification"
        ));
    }

    let attempted: usize = passes.iter().map(|p| p.calls.len()).sum();
    let failed: usize = passes.iter().map(|p| p.errors + p.uncertified).sum();
    let degraded: usize = passes.iter().map(|p| p.degraded.len()).sum();
    let solve_ms: f64 = median_calls(&untraced, Call::scaled_ms).iter().sum();
    let samples = sorted_call_times(&untraced);
    let row_ms = row_medians(&untraced);

    let coverage = (!traced.is_empty()).then(|| {
        median(
            traced
                .iter()
                .map(|p| {
                    let by_layer = layers::self_nanos(obs_of(p));
                    let covered: u64 = layers::LAYERS.iter().map(|l| by_layer[l]).sum();
                    covered as f64 / (p.wall.as_nanos() as f64).max(1.0)
                })
                .collect(),
        )
    });

    let metrics = if opts.trace {
        let traced_ms: f64 = median_calls(&traced, Call::scaled_ms).iter().sum();
        let overhead = 100.0 * (traced_ms / solve_ms - 1.0);
        let mut m = layer_metrics(&traced, &setup_times, overhead);
        m.extend(row_metrics(&row_ms));
        write_trace_files(opts, traced[0], &m, coverage)?;
        m
    } else {
        vec![
            metric(
                "setup_s",
                median(setup_times.iter().map(|t| t.total.as_secs_f64()).collect()),
                "s",
            ),
            metric("solve_s", solve_ms / 1e3, "s"),
            // The median over rows of each row's median call. The median of
            // the pooled calls would fall between two rows' clusters
            // whenever the rows split the calls evenly, as 20 or 4 rows of
            // equal call counts do, and move with those clusters' extremes.
            metric(
                "solve_ms_p50",
                median(row_ms.values().copied().collect()),
                "ms",
            ),
            metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        ]
    };

    let recorded = recorded(opts);
    let hex = |v: u64| Json::Str(format!("{v:016x}"));
    let or_null = |v: Option<Json>| v.unwrap_or(Json::Null);
    let per_pass =
        |f: fn(&Pass) -> f64| Json::Arr(passes.iter().map(|p| Json::Num(f(p))).collect());
    let p95 = (samples.len() >= P95_MIN_CALLS)
        .then(|| Json::Num(samples[(samples.len() * 95).div_ceil(100) - 1]));
    let manifest = Json::obj([(
        "manifest",
        Json::obj([
            ("workload", Json::Str(opts.workload.name().into())),
            ("seed", Json::Num(opts.seed as f64)),
            ("pool_width", Json::Num(width as f64)),
            (
                "available_parallelism",
                Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
            ),
            (
                "build_profile",
                Json::Str(
                    if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    }
                    .into(),
                ),
            ),
            ("setup_reps", Json::Num(setup_times.len() as f64)),
            ("passes", Json::Num(passes.len() as f64)),
            ("traced_passes", Json::Num(traced.len() as f64)),
            (
                "reference_nominal_ms",
                Json::Num(ms(clock::NOMINAL.as_nanos())),
            ),
            ("pass_scale", per_pass(Pass::scale)),
            ("pass_wall_s", per_pass(|p| p.wall.as_secs_f64())),
            ("pass_cpu_s", per_pass(|p| p.cpu.as_secs_f64())),
            (
                "wall_s",
                Json::Num(median_calls(&untraced, wall_ms).iter().sum::<f64>() / 1e3),
            ),
            (
                "cpu_s",
                Json::Num(median_calls(&untraced, cpu_ms).iter().sum::<f64>() / 1e3),
            ),
            ("input_checksum", hex(setup.manifest.checksum)),
            (
                "input_checksum_recorded",
                or_null(recorded.as_ref().map(|r| Json::Str(r.0.clone()))),
            ),
            ("output_checksum", hex(output_checksum)),
            (
                "output_checksum_recorded",
                or_null(recorded.as_ref().map(|r| Json::Str(r.1.clone()))),
            ),
            (
                "requested_item_share",
                Json::Num(setup.manifest.requested_item_share),
            ),
            ("instances", Json::Num(setup.manifest.instances as f64)),
            ("calls_per_pass", Json::Num(first.calls.len() as f64)),
            ("solve_samples", Json::Num(samples.len() as f64)),
            ("solve_ms_p95", or_null(p95)),
            ("fail_share", Json::Num(failed as f64 / attempted as f64)),
            (
                "degraded_share",
                Json::Num(degraded as f64 / attempted as f64),
            ),
            (
                "degraded_hours",
                Json::Arr(first.degraded.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "cache_overflow_share",
                Json::Num(
                    passes.iter().map(|p| p.overflowing).sum::<usize>() as f64 / attempted as f64,
                ),
            ),
            (
                "cost_sum",
                Json::Num(first.costs.iter().filter(|c| c.is_finite()).sum()),
            ),
            (
                "counters",
                Json::Obj(
                    Counter::ALL
                        .iter()
                        .zip(counters)
                        .map(|(c, v)| (c.name().to_string(), Json::Num(v as f64)))
                        .collect(),
                ),
            ),
            ("layer_coverage", or_null(coverage.map(Json::Num))),
        ]),
    )]);

    Ok(Report {
        attempted,
        failed,
        metrics,
        manifest,
        problems,
        input_checksum: setup.manifest.checksum,
        output_checksum,
        counters,
        layer_coverage: coverage,
    })
}

fn obs_of(pass: &Pass) -> &ObsSnapshot {
    pass.obs.as_ref().expect("traced passes carry a snapshot")
}

/// The per-layer metrics: counts of one traced pass (every pass has the
/// same), medians over traced passes for times, medians over set-ups for
/// set-up times.
fn layer_metrics(traced: &[&Pass], setup: &[SetupTimes], overhead_pct: f64) -> Vec<Metric> {
    let per_pass = |f: &dyn Fn(&Pass, &ObsSnapshot) -> f64| {
        median(traced.iter().map(|p| f(p, obs_of(p))).collect())
    };
    let layer_ms = |layer: &'static str| per_pass(&|_, snap| ms(layers::self_nanos(snap)[layer]));
    let setup_ms = |f: fn(&SetupTimes) -> Duration| {
        median(setup.iter().map(|t| ms(f(t).as_nanos())).collect())
    };
    let stats = &traced[0].stats;
    let snap = obs_of(traced[0]);
    let count = |c: Counter| stats.counter(c) as f64;
    let obs_count = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let hist_ms = |name: &'static str| per_pass(&|_, snap| ms(layers::histogram_sum(snap, name)));
    let lp_solves = layers::span_count(snap, "lp.solve") as f64;

    let mut m = vec![
        metric("topo.generate_ms", setup_ms(|t| t.topo), "ms"),
        metric("trace.demand_base_ms", setup_ms(|t| t.demand), "ms"),
        metric("core.instance_build_ms", setup_ms(|t| t.build), "ms"),
        metric(
            "graph.dijkstra_calls",
            count(Counter::DijkstraCalls),
            "count",
        ),
        metric("graph.self_ms", layer_ms("graph"), "ms"),
        metric("lp.pivots", count(Counter::SimplexPivots), "count"),
        metric(
            "lp.refactorizations",
            count(Counter::Refactorizations),
            "count",
        ),
        metric("lp.self_ms", layer_ms("lp"), "ms"),
        metric(
            "lp.pivot_us_mean",
            per_pass(&|_, snap| {
                snap.histograms
                    .get("lp.pivot_ns")
                    .map_or(0.0, |h| h.mean() / 1e3)
            }),
            "us",
        ),
        metric(
            "lp.warm_hit_ratio",
            if lp_solves > 0.0 {
                (obs_count("lp.warm_start") + obs_count("lp.warm_resolve")) / lp_solves
            } else {
                0.0
            },
            "ratio",
        ),
        metric("flow.cg_columns", count(Counter::CgColumns), "count"),
        metric(
            "flow.cg_rounds",
            layers::span_count(snap, "cg.pricing") as f64,
            "count",
        ),
        metric("flow.self_ms", layer_ms("flow"), "ms"),
        metric(
            "flow.decomposition_paths",
            count(Counter::DecompositionPaths),
            "count",
        ),
        metric(
            "flow.rounding_passes",
            count(Counter::RoundingPasses),
            "count",
        ),
        metric(
            "submodular.greedy_ms",
            per_pass(&|_, snap| ms(layers::span_nanos(snap, "submodular.greedy"))),
            "ms",
        ),
        metric("submodular.self_ms", layer_ms("submodular"), "ms"),
        metric("core.self_ms", layer_ms("core"), "ms"),
        metric(
            "core.certify_ms",
            per_pass(&|p, _| ms(p.certify.as_nanos())),
            "ms",
        ),
        metric("ctx.pool_busy_ms", hist_ms(par::WORKER_BUSY_NS), "ms"),
        metric("ctx.pool_idle_ms", hist_ms(par::WORKER_IDLE_NS), "ms"),
        metric("ctx.pool_steal_wait_ms", hist_ms(par::STEAL_WAIT_NS), "ms"),
        metric(
            "ctx.pool_imbalance",
            per_pass(&|_, snap| snap.gauges.get(par::IMBALANCE).copied().unwrap_or(0.0)),
            "ratio",
        ),
        metric("trace_overhead_pct", overhead_pct, "%"),
    ];
    for (i, phase) in Phase::ALL.iter().enumerate() {
        m.push(metric(
            format!("{}.phase_ms", phase.name()),
            per_pass(&|p, _| ms(p.stats.phase_nanos[i])),
            "ms",
        ));
    }
    m
}

/// `core.<row>.solve_ms_p50` for every row of every workload: the row's
/// median call in the timed untraced passes, 0 for rows this workload
/// does not run.
fn row_metrics(row_ms: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    workloads::row_names()
        .into_iter()
        .map(|row| {
            let value = row_ms.get(row).copied().unwrap_or(0.0);
            metric(format!("core.{row}.solve_ms_p50"), value, "ms")
        })
        .collect()
}

/// Writes the first traced pass's layer roll-up, Chrome trace (first
/// call of each row) and folded stacks (every call) under `opts.out_dir`.
fn write_trace_files(
    opts: &Options,
    pass: &Pass,
    metrics: &[Metric],
    coverage: Option<f64>,
) -> Result<(), String> {
    let snap = obs_of(pass);
    let by_layer = layers::self_nanos(snap);
    let total: u64 = by_layer.values().sum();
    let layers_json = Json::Obj(
        by_layer
            .iter()
            .map(|(&layer, &nanos)| {
                (
                    layer.to_string(),
                    Json::obj([
                        ("self_ms", Json::Num(ms(nanos))),
                        ("share", Json::Num(nanos as f64 / (total as f64).max(1.0))),
                    ]),
                )
            })
            .collect(),
    );
    let doc = Json::obj([
        ("workload", Json::Str(opts.workload.name().into())),
        ("seed", Json::Num(opts.seed as f64)),
        ("wall_ms", Json::Num(ms(pass.wall.as_nanos()))),
        ("layer_coverage", coverage.map_or(Json::Null, Json::Num)),
        ("layers", layers_json),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.clone(), Json::Num(m.value)))
                    .collect(),
            ),
        ),
    ]);
    let sample = pass.sample.as_ref().expect("traced passes carry a sample");
    let dir = &opts.out_dir;
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for (name, text) in [
        ("layers.json", doc.render()),
        ("trace.json", chrome_trace(sample).render()),
        ("stacks.folded", collapsed_stacks(snap)),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}
