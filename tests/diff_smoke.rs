//! Tier-1 smoke tests for the differential profiler: a snapshot diffed
//! against itself reports zero deltas, a deliberately slowed span is
//! ranked #1 by the attribution report, and a workers=1 vs workers=8
//! bench-style run attributes ≥90% of the wall-clock delta to named
//! spans — the acceptance contract of `experiments diff`.

use jcr_bench::diff::{self, DiffOpts};
use jcr_ctx::obs::wire::WireSnapshot;
use jcr_ctx::obs::Unit;
use jcr_ctx::SolverContext;

/// A small instrumented workload: a prep span, a `hot` span that spins
/// for `spin_ms`, and a counter/histogram pair.
fn fixture(spin_ms: u64, workers: usize) -> WireSnapshot {
    let ctx = SolverContext::new().with_workers(workers);
    {
        let _p = ctx.span("prep");
        ctx.obs().add_counter("fixture.preps", 1);
    }
    {
        let _h = ctx.span("hot");
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < u128::from(spin_ms) {
            std::hint::spin_loop();
        }
        ctx.obs().record("fixture.sizes", Unit::Count, spin_ms + 1);
    }
    let mut wire = WireSnapshot::from_snapshot(&ctx.obs_snapshot());
    wire.meta.insert("workers".into(), workers.to_string());
    wire
}

#[test]
fn self_diff_reports_zero_deltas_and_succeeds() {
    let dir = std::env::temp_dir().join("jcr_diff_smoke_self");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("OBS_SELF.json");
    std::fs::write(&path, fixture(0, 1).render()).unwrap();
    let path = path.to_str().unwrap();

    // The library contract behind `experiments diff a a`: exit 0.
    diff::run(path, path, &DiffOpts::default()).expect("self-diff exits 0");

    let snap = diff::load(path).unwrap();
    let report = diff::diff_snapshots(&snap, &snap, None).unwrap();
    assert!(report.is_zero(), "self-diff must report zero deltas");
    assert!(report.spans.is_empty());
    assert!(report.counters.is_empty());
    assert!(report.histograms.is_empty());
    assert_eq!(report.wall_delta_ns(), 0);
}

#[test]
fn deliberately_slowed_span_is_ranked_first() {
    let fast = fixture(0, 1);
    let slow = fixture(25, 1);
    let report = diff::diff_snapshots(&fast, &slow, None).unwrap();
    assert_eq!(
        report.spans[0].path,
        "hot",
        "the slowed span must top the attribution: {:?}",
        report.spans.iter().map(|s| &s.path).collect::<Vec<_>>()
    );
    assert!(report.wall_delta_ns() > 20_000_000, "25ms spin dominates");
    // Flat fixture: the signed self-deltas attribute the delta exactly.
    assert!(report.attributed_fraction() >= 0.9);
}

/// A bench-style parallel workload at a given width: fan a seeded batch
/// of chunks over the pool under a named span.
fn pool_run(workers: usize) -> WireSnapshot {
    let ctx = SolverContext::new().with_workers(workers);
    let items: Vec<u64> = (0..512).collect();
    {
        let _s = ctx.span("batch");
        let sums = jcr_ctx::par::par_map(&ctx, &items, |_wctx, _, &x| {
            // Enough arithmetic per item that the region has real wall
            // time to attribute at both widths.
            let mut acc = x;
            for i in 0..20_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        });
        ctx.obs().add_counter("batch.items", sums.len() as u64);
    }
    let mut wire = WireSnapshot::from_snapshot(&ctx.obs_snapshot());
    wire.meta.insert("workers".into(), workers.to_string());
    wire
}

#[test]
fn width_vs_width_diff_attributes_at_least_90_percent_of_wall_delta() {
    let w1 = pool_run(1);
    let w8 = pool_run(8);
    let report = diff::diff_snapshots(&w1, &w8, None).unwrap();
    // Every span in these snapshots is named, so the attribution rows
    // must cover the wall-clock delta: the attributed span movement is
    // at least 90% of the wall movement in magnitude. (The width-8
    // region's grafted per-worker chunk time can exceed its wall time;
    // under-attribution of that overlap is the failure mode pinned.)
    let attributed = report.attributed_ns().unsigned_abs();
    let wall = report.wall_delta_ns().unsigned_abs();
    assert!(
        attributed as f64 >= 0.9 * wall as f64,
        "attributed {attributed} ns of a {wall} ns wall delta"
    );
    for span in &report.spans {
        assert!(!span.path.is_empty(), "attribution rows are named spans");
    }
}
