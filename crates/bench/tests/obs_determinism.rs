//! Reproducibility of the observability layer across pool widths: the
//! aggregate span-tree shape, every named counter, and every
//! `Count`-unit histogram must be **bit-identical** for any worker count
//! (only durations may differ), both for a direct instrumented solve and
//! for a Monte-Carlo sweep whose per-run contexts `evaluate_in` absorbs.

use jcr_bench::exp::{evaluate_in, Algo, ExpConfig};
use jcr_bench::{build_instance, profile, Scenario};
use jcr_core::prelude::*;
use jcr_ctx::SolverContext;

/// A trimmed chunk-default scenario so three full alternating solves
/// stay test-suite friendly.
fn small_scenario() -> Scenario {
    let mut sc = Scenario::chunk_default();
    sc.n_videos = 5;
    sc.hours = 1;
    sc
}

fn instrumented_solve(workers: usize) -> jcr_ctx::obs::ObsSnapshot {
    let sc = small_scenario();
    let n_edges = sc.topology().edge_nodes.len();
    let rates = sc.demand(n_edges).true_rates(0, n_edges);
    let inst = build_instance(&sc, &rates);
    let ctx = SolverContext::new().with_workers(workers);
    Alternating::new()
        .solve_with_context(&inst, &ctx)
        .expect("solves");
    ctx.obs_snapshot()
}

#[test]
fn span_tree_and_metrics_are_identical_across_worker_counts() {
    let baseline = instrumented_solve(1);
    let shape = baseline.shape();
    for needle in ["alt.solve", "alt.round", "lp.solve", "pool.chunk"] {
        assert!(shape.contains(needle), "missing {needle} in:\n{shape}");
    }
    assert!(
        baseline.histograms.contains_key("lp.pivot_ns"),
        "pivot latency histogram recorded"
    );
    for workers in [2, 8] {
        let snap = instrumented_solve(workers);
        assert_eq!(snap.shape(), shape, "workers = {workers}");
    }
}

#[test]
fn pool_accounting_is_bit_identical_across_repeated_runs() {
    // The per-worker accounting contract: at a fixed seed and width, the
    // deterministic side of the pool metrics — region/chunk/item
    // counters, the chunk-length histogram, and the *number* of
    // busy/idle/steal observations (= regions × width) — is bit-identical
    // run to run. `shape()` covers the counters and Count histograms;
    // the Nanos observation counts are pinned explicitly because their
    // values (durations) are the one thing allowed to vary.
    let width = jcr_ctx::default_workers().max(1);
    let a = instrumented_solve(width);
    let b = instrumented_solve(width);
    assert_eq!(a.shape(), b.shape(), "repeated run at width {width}");

    let regions = a.counters["pool.regions"];
    assert!(regions > 0, "the solve fans out at least once");
    assert_eq!(a.counters["pool.chunks"], b.counters["pool.chunks"]);
    assert_eq!(a.counters["pool.items"], b.counters["pool.items"]);
    for name in [
        jcr_ctx::par::WORKER_BUSY_NS,
        jcr_ctx::par::WORKER_IDLE_NS,
        jcr_ctx::par::STEAL_WAIT_NS,
    ] {
        let ha = &a.histograms[name];
        let hb = &b.histograms[name];
        assert_eq!(
            ha.count(),
            regions * width as u64,
            "{name}: one observation per worker per region"
        );
        assert_eq!(ha.count(), hb.count(), "{name}: repeated run");
    }
    for name in [jcr_ctx::par::CHUNK_START_NS, jcr_ctx::par::CHUNK_END_NS] {
        assert_eq!(
            a.histograms[name].count(),
            a.counters["pool.chunks"],
            "{name}: one offset per chunk"
        );
    }
    assert_eq!(
        a.histograms[jcr_ctx::par::REGION_WALL_NS].count(),
        regions,
        "one wall observation per region"
    );
    // The imbalance gauge exists and is ≥ 1 by construction
    // (max busy ÷ mean busy).
    assert!(a.gauges[jcr_ctx::par::IMBALANCE] >= 1.0);
    assert!(a.gauges[jcr_ctx::par::CRITICAL_CHUNK_NS] >= 0.0);
}

#[test]
fn pool_accounting_counts_match_across_worker_widths() {
    // Chunking is width-independent, so the chunk/item counters and the
    // chunk-length histogram agree at any width; only the *per-worker*
    // observation counts scale with the width.
    let s1 = instrumented_solve(1);
    for width in [2usize, 8] {
        let sw = instrumented_solve(width);
        assert_eq!(sw.counters["pool.regions"], s1.counters["pool.regions"]);
        assert_eq!(sw.counters["pool.chunks"], s1.counters["pool.chunks"]);
        assert_eq!(sw.counters["pool.items"], s1.counters["pool.items"]);
        let ha = &s1.histograms[jcr_ctx::par::CHUNK_LEN];
        let hb = &sw.histograms[jcr_ctx::par::CHUNK_LEN];
        assert_eq!(ha.buckets(), hb.buckets(), "width {width}: chunk lengths");
        assert_eq!(
            sw.histograms[jcr_ctx::par::WORKER_BUSY_NS].count(),
            sw.counters["pool.regions"] * width as u64,
            "width {width}: busy observations scale with width"
        );
    }
}

#[test]
fn chrome_trace_from_a_real_solve_is_valid_at_any_width() {
    for workers in [1, 2] {
        let snap = instrumented_solve(workers);
        let text = profile::chrome_trace(&snap).render();
        let pairs = profile::validate_chrome_trace(&text).expect("balanced B/E");
        let expected: u64 = snap.nodes.iter().map(|n| n.count).sum();
        assert_eq!(pairs as u64, expected, "workers = {workers}");
        // Collapsed stacks enumerate the same tree deterministically.
        let folded = profile::collapsed_stacks(&snap);
        assert_eq!(folded.lines().count(), snap.nodes.len() - 1);
    }
}

#[test]
fn factory_sweep_shares_one_registry_and_stays_deterministic() {
    let sc = small_scenario();
    let cfg = ExpConfig {
        runs: 2,
        hours: 1,
        ..ExpConfig::default()
    };
    let run_sweep = |workers: usize| {
        let sweep = SolverContext::new().with_workers(workers);
        let algos = vec![Algo {
            name: "SP".into(),
            run: Box::new(|inst, ctx| ShortestPathPlacement.solve_with_context(inst, ctx)),
        }];
        let metrics = evaluate_in(&sweep, &sc, &algos, cfg);
        (metrics, sweep.obs_snapshot())
    };
    let (m1, s1) = run_sweep(1);
    // The per-run contexts were absorbed: the sweep context holds the
    // inner solves' spans and metric histograms.
    assert!(s1.shape().contains("lp.solve"), "shape:\n{}", s1.shape());
    assert!(s1.shape().contains("graph.ksp"), "shape:\n{}", s1.shape());
    assert!(s1.histograms.contains_key("lp.pivot_ns"));
    let (m2, s2) = run_sweep(4);
    assert_eq!(s1.shape(), s2.shape(), "registry shape across widths");
    for (a, b) in m1.iter().zip(&m2) {
        assert_eq!(a.cost_true.to_bits(), b.cost_true.to_bits());
        assert_eq!(a.cost_pred.to_bits(), b.cost_pred.to_bits());
    }
}
