//! A deterministic chunked thread pool for the solver hot paths.
//!
//! The paper's evaluation is dominated by embarrassingly parallel work:
//! per-source all-pairs Dijkstra runs, per-commodity column-generation
//! pricing, and Monte-Carlo sweeps over seeds. This module fans such work
//! out over scoped threads (`std::thread::scope` + an mpsc channel, no
//! external dependencies) while keeping every observable output
//! **bit-identical for any worker count**:
//!
//! * each input index is mapped by a pure function of `(index, item)` —
//!   per-worker state carries only reusable buffers and instrumentation;
//! * results are merged **by input index**, never by completion order;
//! * work is claimed in chunks whose boundaries depend only on the item
//!   count ([`chunk_len`]), never on the worker count, so per-chunk
//!   spans and histograms are reproducible across `JCR_WORKERS`;
//! * a worker count of 1 (or a single item) takes the exact serial path:
//!   the closure runs on the calling thread against the caller's own
//!   [`SolverContext`], with no threads, channels, or atomics involved
//!   (it still walks the same chunk partition, entering the same
//!   [`CHUNK_SPAN`] spans, so traces keep one shape).
//!
//! Worker threads receive a context forked from the caller's
//! ([`SolverContext::fork_seed`]): same budget and deadline clock, private
//! counters. After the fan-out the caller absorbs every
//! worker's [`SolverStats`](crate::SolverStats) and observability
//! snapshot (spans graft under the span open at the call site — see
//! [`obs`](crate::obs)), so counter totals and span-tree shape are
//! identical to the serial path (both merge as order-independent sums).
//!
//! Errors cancel the pool: the first `Err` flips a shared flag, in-flight
//! workers stop at their next item, and the error with the **smallest
//! input index** is returned — so a tripped budget
//! ([`BudgetExceeded`](crate::BudgetExceeded)) surfaces promptly and the
//! caller can return its validated incumbent, exactly as on the serial
//! path.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use crate::SolverContext;

/// Target number of chunks a fan-out is partitioned into, **independent
/// of the worker count**: chunk boundaries are a pure function of the
/// item count, so the `pool.chunk` span count and per-chunk latency
/// histogram are bit-identical across `JCR_WORKERS` settings. 64 chunks
/// keeps chunks small enough to balance uneven item costs at any
/// plausible worker count (the old `workers × 4` rule gave 4–64 chunks
/// depending on the machine) while still amortizing the atomic fetch;
/// see DESIGN.md §8 for the profile behind the change.
const POOL_CHUNKS: usize = 64;

/// Span entered around each chunk of a fan-out (on the worker context in
/// the parallel path, on the caller's context in the serial path).
pub const CHUNK_SPAN: &str = "pool.chunk";

/// `Nanos` histogram recording per-chunk wall time.
pub const CHUNK_NS: &str = "pool.chunk_ns";

// Per-region accounting, recorded under whatever span is open at the
// call site (worker metrics graft there with the worker's span tree).
// The `Count` metrics below depend only on the item count — the chunk
// partition is a pure function of `n` — so they are part of the
// `shape()` determinism contract across `JCR_WORKERS`; the `Nanos`
// histograms and gauges measure wall clock and are not.

/// Counter: parallel regions entered (one per fan-out, serial or not).
pub const REGIONS: &str = "pool.regions";

/// Counter: chunks the region partitions produced.
pub const CHUNKS: &str = "pool.chunks";

/// Counter: items fanned out.
pub const ITEMS: &str = "pool.items";

/// `Count` histogram: items per chunk (width-independent).
pub const CHUNK_LEN: &str = "pool.chunk_len";

/// `Nanos` histogram: per-chunk start offset from its region's start.
pub const CHUNK_START_NS: &str = "pool.chunk_start_ns";

/// `Nanos` histogram: per-chunk end offset from its region's start.
pub const CHUNK_END_NS: &str = "pool.chunk_end_ns";

/// `Nanos` histogram: per-worker busy time (sum of its chunk
/// durations) per region. One observation per worker per region.
pub const WORKER_BUSY_NS: &str = "pool.worker_busy_ns";

/// `Nanos` histogram: per-worker idle tail per region — region wall
/// minus busy minus steal-wait. One observation per worker per region.
pub const WORKER_IDLE_NS: &str = "pool.worker_idle_ns";

/// `Nanos` histogram: per-worker time spent between chunks claiming
/// work at the shared cursor. One observation per worker per region;
/// exactly 0 on the serial path.
pub const STEAL_WAIT_NS: &str = "pool.steal_wait_ns";

/// `Nanos` histogram: wall clock of each region (spawn to last join).
pub const REGION_WALL_NS: &str = "pool.region_wall_ns";

/// Gauge (max-merged): worst region imbalance seen, max worker busy ÷
/// mean worker busy. 1.0 is perfectly balanced; `workers` is one
/// worker doing everything.
pub const IMBALANCE: &str = "pool.imbalance";

/// Gauge (max-merged): longest single chunk seen, nanoseconds — the
/// critical-path lower bound no worker width can beat.
pub const CRITICAL_CHUNK_NS: &str = "pool.critical_chunk_ns";

/// The chunk length used for `n` items (`⌈n / 64⌉`, at least 1).
pub fn chunk_len(n: usize) -> usize {
    n.div_ceil(POOL_CHUNKS).max(1)
}

fn elapsed_nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

fn nanos_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a)
        .as_nanos()
        .min(u64::MAX as u128) as u64
}

/// What one worker (or the serial path) did inside a region; the
/// caller folds these into the region summary after the joins.
#[derive(Clone, Copy, Default)]
struct WorkerLog {
    busy_ns: u64,
    steal_ns: u64,
    max_chunk_ns: u64,
}

/// Records the caller-side region summary: region wall, per-worker
/// idle tails, and the max-merged imbalance / critical-chunk gauges.
fn finish_region(ctx: &SolverContext, region_t0: Instant, logs: &[WorkerLog]) {
    let wall = elapsed_nanos(region_t0);
    ctx.metric_nanos(REGION_WALL_NS, wall);
    let mut max_busy = 0u64;
    let mut total_busy = 0u64;
    let mut max_chunk = 0u64;
    for log in logs {
        ctx.metric_nanos(
            WORKER_IDLE_NS,
            wall.saturating_sub(log.busy_ns + log.steal_ns),
        );
        max_busy = max_busy.max(log.busy_ns);
        total_busy += log.busy_ns;
        max_chunk = max_chunk.max(log.max_chunk_ns);
    }
    let mean_busy = total_busy as f64 / logs.len().max(1) as f64;
    let imbalance = if total_busy == 0 {
        1.0
    } else {
        max_busy as f64 / mean_busy
    };
    ctx.obs().set_gauge_max(IMBALANCE, imbalance);
    ctx.obs().set_gauge_max(CRITICAL_CHUNK_NS, max_chunk as f64);
}

/// Maps `f` over `items`, merging results by input index.
///
/// Runs on `ctx.workers()` threads (clamped to the item count); a worker
/// count of 1 runs serially on the calling thread under `ctx` itself.
pub fn par_map<T, R, F>(ctx: &SolverContext, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&SolverContext, usize, &T) -> R + Sync,
{
    par_map_init(ctx, items, || (), |(), wctx, i, item| f(wctx, i, item))
}

/// [`par_map`] with per-worker state: `init` runs once on each worker
/// thread (scratch buffers, arenas) and the state is threaded through
/// every call that worker makes. State must not influence results.
pub fn par_map_init<T, R, S, I, F>(ctx: &SolverContext, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &SolverContext, usize, &T) -> R + Sync,
{
    let result: Result<Vec<R>, Unreachable> =
        try_par_map_init(ctx, items, init, |state, wctx, i, item| {
            Ok(f(state, wctx, i, item))
        });
    match result {
        Ok(out) => out,
        Err(never) => match never {},
    }
}

/// Fallible [`par_map`]: the first error cancels the pool and the error
/// with the smallest input index is returned.
///
/// # Errors
///
/// The lowest-index error any worker produced.
pub fn try_par_map<T, R, E, F>(ctx: &SolverContext, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&SolverContext, usize, &T) -> Result<R, E> + Sync,
{
    try_par_map_init(ctx, items, || (), |(), wctx, i, item| f(wctx, i, item))
}

/// Fallible [`par_map_init`]: per-worker state plus cancel-on-error.
///
/// # Errors
///
/// The lowest-index error any worker produced.
pub fn try_par_map_init<T, R, E, S, I, F>(
    ctx: &SolverContext,
    items: &[T],
    init: I,
    f: F,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &SolverContext, usize, &T) -> Result<R, E> + Sync,
{
    let n = items.len();
    let workers = ctx.workers().min(n.max(1));
    let chunk = chunk_len(n);
    let region_t0 = Instant::now();
    // Region counters are pure functions of the item count, recorded on
    // the caller before any work starts so they land identically at
    // every width (and on the error path).
    ctx.obs().add_counter(REGIONS, 1);
    ctx.obs()
        .add_counter(CHUNKS, n.div_ceil(chunk.max(1)) as u64);
    ctx.obs().add_counter(ITEMS, n as u64);
    if workers <= 1 {
        // Exact serial path: same closure, caller's context, input order
        // — but iterated chunk-by-chunk through the same partition the
        // parallel path uses, entering the same per-chunk spans and
        // recording the same per-chunk/per-worker accounting (one
        // "worker": the caller, with zero steal-wait), so the span tree
        // shape and the Count metrics match for any worker count.
        let mut state = init();
        let mut out = Vec::with_capacity(n);
        let mut start = 0;
        let mut log = WorkerLog::default();
        let mut err: Option<E> = None;
        'chunks: while start < n {
            let end = (start + chunk).min(n);
            ctx.metric_value(CHUNK_LEN, (end - start) as u64);
            let t0 = Instant::now();
            ctx.metric_nanos(CHUNK_START_NS, nanos_between(region_t0, t0));
            {
                let _chunk_span = ctx.span(CHUNK_SPAN);
                for (i, item) in items[start..end].iter().enumerate() {
                    match f(&mut state, ctx, start + i, item) {
                        Ok(r) => out.push(r),
                        Err(e) => {
                            err = Some(e);
                            break 'chunks;
                        }
                    }
                }
            }
            let t1 = Instant::now();
            let dur = nanos_between(t0, t1);
            ctx.metric_nanos(CHUNK_NS, dur);
            ctx.metric_nanos(CHUNK_END_NS, nanos_between(region_t0, t1));
            log.busy_ns += dur;
            log.max_chunk_ns = log.max_chunk_ns.max(dur);
            start = end;
        }
        ctx.metric_nanos(WORKER_BUSY_NS, log.busy_ns);
        ctx.metric_nanos(STEAL_WAIT_NS, log.steal_ns);
        finish_region(ctx, region_t0, &[log]);
        return match err {
            Some(e) => Err(e),
            None => Ok(out),
        };
    }

    let cursor = AtomicUsize::new(0);
    let cancel = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, R)>();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let tx = tx.clone();
            let seed = ctx.fork_seed().for_worker(w as u32 + 1);
            let (cursor, cancel, init, f) = (&cursor, &cancel, &init, &f);
            handles.push(scope.spawn(move || {
                let wctx = seed.context();
                let mut state = init();
                let mut first_err: Option<(usize, E)> = None;
                let mut log = WorkerLog::default();
                // Time between finishing one chunk and starting the next
                // is steal-wait (cursor contention + spawn latency).
                let mut last_end = Instant::now();
                'work: while !cancel.load(Ordering::Relaxed) {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + chunk).min(n);
                    let t0 = Instant::now();
                    log.steal_ns += nanos_between(last_end, t0);
                    wctx.metric_value(CHUNK_LEN, (end - start) as u64);
                    wctx.metric_nanos(CHUNK_START_NS, nanos_between(region_t0, t0));
                    {
                        let _chunk_span = wctx.span(CHUNK_SPAN);
                        for (i, item) in items.iter().enumerate().take(end).skip(start) {
                            if cancel.load(Ordering::Relaxed) {
                                break 'work;
                            }
                            match f(&mut state, &wctx, i, item) {
                                Ok(r) => {
                                    // The receiver outlives every sender;
                                    // a send only fails after a
                                    // main-thread panic.
                                    let _ = tx.send((i, r));
                                }
                                Err(e) => {
                                    cancel.store(true, Ordering::Relaxed);
                                    first_err = Some((i, e));
                                    break 'work;
                                }
                            }
                        }
                    }
                    let t1 = Instant::now();
                    let dur = nanos_between(t0, t1);
                    wctx.metric_nanos(CHUNK_NS, dur);
                    wctx.metric_nanos(CHUNK_END_NS, nanos_between(region_t0, t1));
                    log.busy_ns += dur;
                    log.max_chunk_ns = log.max_chunk_ns.max(dur);
                    last_end = t1;
                }
                wctx.metric_nanos(WORKER_BUSY_NS, log.busy_ns);
                wctx.metric_nanos(STEAL_WAIT_NS, log.steal_ns);
                (wctx.stats(), wctx.obs_snapshot(), first_err, log)
            }));
        }
        drop(tx);

        let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
        for (i, r) in rx {
            out[i] = Some(r);
        }
        let mut err: Option<(usize, E)> = None;
        let mut logs = Vec::with_capacity(workers);
        for handle in handles {
            let (stats, obs, worker_err, log) = match handle.join() {
                Ok(tuple) => tuple,
                Err(panic) => std::panic::resume_unwind(panic),
            };
            ctx.absorb_stats(&stats);
            ctx.absorb_obs(&obs);
            logs.push(log);
            if let Some((i, e)) = worker_err {
                if err.as_ref().is_none_or(|(j, _)| i < *j) {
                    err = Some((i, e));
                }
            }
        }
        finish_region(ctx, region_t0, &logs);
        match err {
            Some((_, e)) => Err(e),
            // No error and no cancellation: the cursor covered 0..n, so
            // every index was computed and sent exactly once.
            None => Ok(out
                .into_iter()
                .map(|slot| slot.expect("every index mapped"))
                .collect()),
        }
    })
}

/// An uninhabited error type for routing the infallible wrappers through
/// the fallible core (`std::convert::Infallible` under a local name so
/// the `match never {}` reads clearly).
enum Unreachable {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Unit;
    use crate::{Budget, BudgetExceeded, Counter, Phase};
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    fn ctx_with(workers: usize) -> SolverContext {
        SolverContext::new().with_workers(workers)
    }

    #[test]
    fn results_merge_by_input_index_for_any_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 3, 8, 64] {
            let ctx = ctx_with(workers);
            let out = par_map(&ctx, &items, |_, i, &x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(out, expected, "workers = {workers}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let ctx = ctx_with(8);
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&ctx, &empty, |_, _, &x| x).is_empty());
        assert_eq!(par_map(&ctx, &[41], |_, _, &x| x + 1), vec![42]);
    }

    #[test]
    fn worker_counters_are_absorbed_into_the_caller() {
        let items: Vec<u32> = (0..100).collect();
        for workers in [1, 4] {
            let ctx = ctx_with(workers);
            par_map(&ctx, &items, |wctx, _, _| {
                wctx.count(Counter::DijkstraCalls, 1);
            });
            assert_eq!(ctx.stats().dijkstra_calls, 100, "workers = {workers}");
        }
    }

    #[test]
    fn per_worker_state_is_reused_not_shared() {
        let items: Vec<u32> = (0..64).collect();
        let ctx = ctx_with(4);
        // Each worker's state counts its own calls; totals must cover all
        // items exactly once even though states are independent.
        let calls = AtomicU64::new(0);
        let out = par_map_init(
            &ctx,
            &items,
            || 0u64,
            |seen, _, _, &x| {
                *seen += 1;
                calls.fetch_add(1, Ordering::Relaxed);
                (x, *seen >= 1)
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 64);
        assert!(out.iter().all(|&(_, state_used)| state_used));
        assert_eq!(out.iter().map(|&(x, _)| x).sum::<u32>(), (0..64).sum());
    }

    #[test]
    fn lowest_index_error_wins_and_results_are_discarded() {
        let items: Vec<u32> = (0..500).collect();
        for workers in [1, 2, 8] {
            let ctx = ctx_with(workers);
            let err = try_par_map(
                &ctx,
                &items,
                |_, i, _| {
                    if i >= 250 {
                        Err(i)
                    } else {
                        Ok(i)
                    }
                },
            )
            .expect_err("half the items fail");
            // Serial stops at the first failing index; parallel workers may
            // each report one, but the smallest reported index is returned
            // and 250 is always reported by whichever worker owns it first.
            assert!(err >= 250, "workers = {workers}, err = {err}");
        }
        // Serial is exact.
        let ctx = ctx_with(1);
        let err = try_par_map(
            &ctx,
            &items,
            |_, i, _| if i >= 250 { Err(i) } else { Ok(i) },
        )
        .expect_err("fails");
        assert_eq!(err, 250);
    }

    #[test]
    fn budget_exceeded_in_a_worker_cancels_the_pool() {
        let items: Vec<u32> = (0..1000).collect();
        let ctx = SolverContext::with_budget(Budget::deadline(Duration::ZERO)).with_workers(8);
        let err: BudgetExceeded = try_par_map(&ctx, &items, |wctx, _, _| {
            wctx.check_deadline(Phase::Dijkstra)?;
            Ok(())
        })
        .expect_err("spent deadline trips every worker");
        assert_eq!(err.phase, Phase::Dijkstra);
    }

    #[test]
    fn pool_accounting_is_width_independent_in_shape() {
        let items: Vec<u64> = (0..257).collect();
        let run = |workers: usize| {
            let ctx = ctx_with(workers);
            {
                let _s = ctx.span("fanout");
                par_map(&ctx, &items, |_, _, &x| x + 1);
            }
            ctx.obs_snapshot()
        };
        let shapes: Vec<String> = [1, 2, 8].iter().map(|&w| run(w).shape()).collect();
        assert_eq!(shapes[0], shapes[1]);
        assert_eq!(shapes[1], shapes[2]);
        let snap = run(8);
        // The deterministic Count side: one region, 64 chunks of ⌈257/64⌉
        // = 5 items (the last one short), 257 items.
        assert_eq!(snap.counters[REGIONS], 1);
        assert_eq!(snap.counters[CHUNKS], 52, "257 items in chunks of 5");
        assert_eq!(snap.counters[ITEMS], 257);
        let lens = &snap.histograms[CHUNK_LEN];
        assert_eq!(lens.unit(), Unit::Count);
        assert_eq!(lens.count(), 52);
        assert_eq!(lens.sum(), 257);
        // The wall-clock side exists at every width with one observation
        // per worker per region (8 workers here), plus the region wall
        // and the max-merged gauges.
        for name in [WORKER_BUSY_NS, WORKER_IDLE_NS, STEAL_WAIT_NS] {
            assert_eq!(snap.histograms[name].count(), 8, "{name}");
            assert_eq!(snap.histograms[name].unit(), Unit::Nanos);
        }
        assert_eq!(snap.histograms[REGION_WALL_NS].count(), 1);
        assert_eq!(snap.histograms[CHUNK_START_NS].count(), 52);
        assert_eq!(snap.histograms[CHUNK_END_NS].count(), 52);
        assert!(snap.gauges[IMBALANCE] >= 1.0);
        assert!(snap.gauges.contains_key(CRITICAL_CHUNK_NS));
        // Serial records the same accounting for its single "worker".
        let serial = run(1);
        assert_eq!(serial.histograms[WORKER_BUSY_NS].count(), 1);
        assert_eq!(serial.histograms[STEAL_WAIT_NS].sum(), 0);
        assert_eq!(serial.gauges[IMBALANCE], 1.0);
    }

    #[test]
    fn region_accounting_covers_the_error_path() {
        let items: Vec<u32> = (0..100).collect();
        for workers in [1, 4] {
            let ctx = ctx_with(workers);
            let _ = try_par_map(
                &ctx,
                &items,
                |_, i, _| {
                    if i == 7 {
                        Err("boom")
                    } else {
                        Ok(i)
                    }
                },
            );
            let snap = ctx.obs_snapshot();
            assert_eq!(snap.counters[REGIONS], 1, "workers = {workers}");
            assert_eq!(snap.histograms[REGION_WALL_NS].count(), 1);
        }
    }

    #[test]
    fn serial_path_uses_the_callers_context_directly() {
        let ctx = ctx_with(1);
        let items = [1u32, 2, 3];
        par_map(&ctx, &items, |wctx, _, _| {
            // With one worker the closure sees the caller's context, so
            // iteration charges land on it directly.
            wctx.check(Phase::Rounding).unwrap();
        });
        assert_eq!(ctx.iterations(Phase::Rounding), 3);
    }
}
