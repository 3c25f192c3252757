//! Hierarchical span tracing and a metrics registry for the solver stack.
//!
//! The flat [`Counter`](crate::Counter)/[`Phase`] stream
//! answers *whether* a solve stayed within budget; this module answers
//! *where the time went*. Three pieces:
//!
//! * **Spans** — [`SolverContext::span`](crate::SolverContext::span)
//!   returns an RAII guard; guards nest, forming a tree. Two records are
//!   kept per context: a deterministic **aggregate tree** (one node per
//!   distinct `parent → name` edge, accumulating call count, total time,
//!   and child time so self-time falls out as `total − child`) and a flat
//!   **event log** of completed spans for Chrome-trace export. Tree
//!   *shape* and call counts are reproducible for any worker count — only
//!   durations vary — because [`par`](crate::par) partitions work into
//!   chunks independently of the worker count and worker trees are merged
//!   into the spawning span by name (a commutative sum).
//! * **Metrics** — named monotonic counters, gauges (merge = max), and
//!   fixed-bucket log₂ histograms ([`Histogram`]): one bucket per power
//!   of two, so recording is a handful of arithmetic ops and merging is a
//!   bucket-wise sum. Histograms carry a [`Unit`]; `Count` histograms are
//!   deterministic, `Nanos` histograms measure wall clock and are not.
//! * **Snapshots** — [`ObsSnapshot`] is a `Send` copy of everything
//!   above. Worker threads return one and the caller grafts it under its
//!   currently open span ([`SolverContext::absorb_obs`]); exporters
//!   (Chrome Trace Event JSON, collapsed stacks — see `jcr_bench`) render
//!   snapshots without touching the live context.
//!
//! Overhead: a span is two `Instant::now` calls plus an arena update and
//! one event-log push; a histogram record is a `BTreeMap` probe over a
//! handful of short static keys. Both are kept on in release builds; the
//! event log is capped ([`MAX_EVENTS`]) so long online runs degrade to
//! aggregate-only recording instead of growing without bound.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::{Phase, SolverContext};

#[path = "wire.rs"]
pub mod wire;

/// Completed-span event-log cap per context. Beyond this, spans still
/// feed the aggregate tree but no longer append events;
/// [`ObsSnapshot::dropped_events`] counts the overflow.
pub const MAX_EVENTS: usize = 1 << 20;

/// What a histogram's values measure. `Count` histograms are
/// deterministic for a deterministic solve; `Nanos` histograms record
/// wall clock and are excluded from reproducibility assertions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Unit {
    /// Dimensionless counts (heap pops, fill-in, …).
    Count,
    /// Wall-clock nanoseconds.
    Nanos,
}

impl Unit {
    /// Stable name used by exporters.
    pub fn name(self) -> &'static str {
        match self {
            Unit::Count => "count",
            Unit::Nanos => "nanos",
        }
    }
}

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `k ≥ 1`
/// holds values in `[2^(k-1), 2^k)`, and bucket 64 tops out at
/// `u64::MAX`.
pub const NBUCKETS: usize = 65;

/// A fixed-bucket log₂ histogram. Recording is branch-free arithmetic on
/// a 65-slot array; merging is a bucket-wise sum, so parallel snapshots
/// combine commutatively.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    unit: Unit,
    buckets: [u64; NBUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// The bucket index for `value`: 0 for 0, otherwise one past the index
/// of the highest set bit (`64 − leading_zeros`).
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The smallest value bucket `i` admits.
pub fn bucket_lo(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

/// The largest value bucket `i` admits.
pub fn bucket_hi(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// An empty histogram measuring `unit`.
    pub fn new(unit: Unit) -> Self {
        Histogram {
            unit,
            buckets: [0; NBUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Accumulates another histogram (units must match).
    pub fn absorb(&mut self, other: &Histogram) {
        debug_assert_eq!(self.unit, other.unit);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The unit of recorded values.
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts, indexed by [`bucket_index`].
    pub fn buckets(&self) -> &[u64; NBUCKETS] {
        &self.buckets
    }

    /// An upper bound on the `q`-quantile. The edge contract is exact:
    /// `q ≤ 0` returns the recorded minimum and `q ≥ 1` the recorded
    /// maximum — real observed values, never a bucket bound — and an
    /// empty histogram returns 0 for every `q`. Interior quantiles
    /// return the upper edge of the first bucket whose cumulative count
    /// reaches `q · count`, clamped into `[min, max]`. Deterministic
    /// given bucket counts.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_hi(i).clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Reassembles a histogram from serialized parts, validating that
    /// the bucket mass matches `count` and that `min ≤ max` when
    /// non-empty. `min` is the *reported* minimum (0 for an empty
    /// histogram, as [`Histogram::min`] returns it).
    pub fn from_parts(
        unit: Unit,
        buckets: [u64; NBUCKETS],
        count: u64,
        sum: u128,
        min: u64,
        max: u64,
    ) -> Result<Histogram, String> {
        let mass: u128 = buckets.iter().map(|&c| c as u128).sum();
        if mass != count as u128 {
            return Err(format!("histogram bucket mass {mass} != count {count}"));
        }
        if count > 0 && min > max {
            return Err(format!("histogram min {min} > max {max}"));
        }
        Ok(Histogram {
            unit,
            buckets,
            count,
            sum,
            min: if count == 0 { u64::MAX } else { min },
            max: if count == 0 { 0 } else { max },
        })
    }
}

/// One node of the aggregate span tree. Node 0 is the synthetic root
/// (the context itself); every other node is a distinct `parent → name`
/// edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name (the root's is `""`).
    pub name: &'static str,
    /// Child node indices, in first-entry order.
    pub children: Vec<usize>,
    /// Completed entries into this span.
    pub count: u64,
    /// Total wall time spent inside, nanoseconds.
    pub total_nanos: u64,
    /// Wall time attributed to direct children, nanoseconds. Self time
    /// is `total_nanos − child_nanos` (saturating).
    pub child_nanos: u64,
}

impl SpanNode {
    fn new(name: &'static str) -> Self {
        SpanNode {
            name,
            children: Vec::new(),
            count: 0,
            total_nanos: 0,
            child_nanos: 0,
        }
    }

    /// Wall time not attributed to any child span, nanoseconds.
    pub fn self_nanos(&self) -> u64 {
        self.total_nanos.saturating_sub(self.child_nanos)
    }
}

/// One completed span in the flat event log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name.
    pub name: &'static str,
    /// Start, nanoseconds since the root context's epoch.
    pub start_nanos: u64,
    /// End, nanoseconds since the root context's epoch.
    pub end_nanos: u64,
    /// Thread lane: 0 for the spawning context, worker index + 1 for
    /// pool workers.
    pub tid: u32,
}

/// The live observability state owned by a [`SolverContext`].
#[derive(Debug)]
pub struct Obs {
    epoch: Instant,
    tid: u32,
    inner: RefCell<ObsInner>,
}

#[derive(Debug)]
struct ObsInner {
    nodes: Vec<SpanNode>,
    /// Indices of the currently open spans, innermost last. The implicit
    /// root (node 0) is always open.
    stack: Vec<usize>,
    events: Vec<SpanEvent>,
    dropped_events: u64,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Obs {
    /// Fresh state; `epoch` anchors event timestamps and `tid` labels the
    /// lane events from this context belong to.
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Obs {
            epoch,
            tid,
            inner: RefCell::new(ObsInner {
                nodes: vec![SpanNode::new("")],
                stack: vec![0],
                events: Vec::new(),
                dropped_events: 0,
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                histograms: BTreeMap::new(),
            }),
        }
    }

    /// The event-timestamp epoch.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span named `name` under the innermost open span, returning
    /// the node index for [`Obs::exit`].
    pub fn enter(&self, name: &'static str) -> usize {
        let mut inner = self.inner.borrow_mut();
        let parent = *inner.stack.last().expect("root always open");
        let node = match inner.nodes[parent]
            .children
            .iter()
            .copied()
            .find(|&c| inner.nodes[c].name == name)
        {
            Some(existing) => existing,
            None => {
                let idx = inner.nodes.len();
                inner.nodes.push(SpanNode::new(name));
                inner.nodes[parent].children.push(idx);
                idx
            }
        };
        inner.stack.push(node);
        node
    }

    /// Closes the span opened as `node`, charging `start..end` (both in
    /// nanoseconds since the epoch) to it and to its parent's child time.
    pub fn exit(&self, node: usize, start_nanos: u64, end_nanos: u64) {
        let mut inner = self.inner.borrow_mut();
        let popped = inner.stack.pop().expect("span stack underflow");
        debug_assert_eq!(popped, node, "span guards must drop in LIFO order");
        let nanos = end_nanos.saturating_sub(start_nanos);
        let entry = &mut inner.nodes[node];
        entry.count += 1;
        entry.total_nanos += nanos;
        let parent = *inner.stack.last().expect("root always open");
        inner.nodes[parent].child_nanos += nanos;
        if inner.events.len() < MAX_EVENTS {
            let name = inner.nodes[node].name;
            let tid = self.tid;
            inner.events.push(SpanEvent {
                name,
                start_nanos,
                end_nanos,
                tid,
            });
        } else {
            inner.dropped_events += 1;
        }
    }

    /// Advances the named monotonic counter.
    pub fn add_counter(&self, name: &'static str, by: u64) {
        *self.inner.borrow_mut().counters.entry(name).or_insert(0) += by;
    }

    /// Sets the named gauge (merges as max across snapshots).
    pub fn set_gauge(&self, name: &'static str, value: f64) {
        self.inner.borrow_mut().gauges.insert(name, value);
    }

    /// Raises the named gauge to `value` if it exceeds the current
    /// reading — the in-context analogue of the max-merge snapshots use,
    /// for gauges that should keep the worst observation (e.g. the most
    /// imbalanced parallel region) rather than the latest.
    pub fn set_gauge_max(&self, name: &'static str, value: f64) {
        let mut inner = self.inner.borrow_mut();
        let slot = inner.gauges.entry(name).or_insert(f64::NEG_INFINITY);
        if value > *slot {
            *slot = value;
        }
    }

    /// Records one observation into the named histogram.
    pub fn record(&self, name: &'static str, unit: Unit, value: u64) {
        self.inner
            .borrow_mut()
            .histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(unit))
            .record(value);
    }

    /// A `Send` copy of everything recorded so far. Open spans are not
    /// included — snapshot at a quiescent point (top level, or between
    /// chunks on a worker after its last guard dropped).
    pub fn snapshot(&self) -> ObsSnapshot {
        let inner = self.inner.borrow();
        ObsSnapshot {
            epoch: self.epoch,
            nodes: inner.nodes.clone(),
            events: inner.events.clone(),
            dropped_events: inner.dropped_events,
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
        }
    }

    /// Grafts `snap` into this state: the snapshot root's children merge
    /// (by name, recursively) under the innermost open span; counters and
    /// histograms sum, gauges take the max; events re-base onto this
    /// epoch, and lane 0 events inherit this context's lane (a snapshot
    /// absorbed by a pool worker ran *on* that worker's thread).
    pub fn absorb(&self, snap: &ObsSnapshot) {
        let mut inner = self.inner.borrow_mut();
        let under = *inner.stack.last().expect("root always open");
        graft(&mut inner.nodes, under, &snap.nodes, 0);
        let offset = snap
            .epoch
            .checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_nanos().min(u64::MAX as u128) as u64);
        for (taken, ev) in snap.events.iter().enumerate() {
            if inner.events.len() >= MAX_EVENTS {
                inner.dropped_events += (snap.events.len() - taken) as u64;
                break;
            }
            inner.events.push(SpanEvent {
                name: ev.name,
                start_nanos: ev.start_nanos.saturating_add(offset),
                end_nanos: ev.end_nanos.saturating_add(offset),
                tid: if ev.tid == 0 { self.tid } else { ev.tid },
            });
        }
        inner.dropped_events += snap.dropped_events;
        for (&name, &by) in &snap.counters {
            *inner.counters.entry(name).or_insert(0) += by;
        }
        for (&name, &value) in &snap.gauges {
            let slot = inner.gauges.entry(name).or_insert(f64::NEG_INFINITY);
            if value > *slot {
                *slot = value;
            }
        }
        for (&name, hist) in &snap.histograms {
            inner
                .histograms
                .entry(name)
                .or_insert_with(|| Histogram::new(hist.unit()))
                .absorb(hist);
        }
    }
}

/// Merges the subtree of `src[src_node]`'s children under `dst[under]`,
/// matching children by name and summing their statistics.
fn graft(dst: &mut Vec<SpanNode>, under: usize, src: &[SpanNode], src_node: usize) {
    for &sc in &src[src_node].children.clone() {
        let name = src[sc].name;
        let target = match dst[under]
            .children
            .iter()
            .copied()
            .find(|&c| dst[c].name == name)
        {
            Some(existing) => existing,
            None => {
                let idx = dst.len();
                dst.push(SpanNode::new(name));
                dst[under].children.push(idx);
                idx
            }
        };
        dst[target].count += src[sc].count;
        dst[target].total_nanos += src[sc].total_nanos;
        // child_nanos is NOT copied: the recursive call's trailing line
        // reconstructs it from the grafted children's totals (the two are
        // equal by the exit() invariant), avoiding a double count.
        graft(dst, target, src, sc);
    }
    // Grafted child time counts toward the receiving span's child time,
    // mirroring what direct execution under it would have recorded.
    dst[under].child_nanos += src[src_node]
        .children
        .iter()
        .map(|&c| src[c].total_nanos)
        .sum::<u64>();
}

/// A `Send` snapshot of a context's spans, events, and metrics.
#[derive(Clone, Debug)]
pub struct ObsSnapshot {
    /// Epoch the event timestamps are relative to.
    pub epoch: Instant,
    /// Aggregate span tree; node 0 is the synthetic root.
    pub nodes: Vec<SpanNode>,
    /// Flat log of completed spans (capped at [`MAX_EVENTS`]).
    pub events: Vec<SpanEvent>,
    /// Spans that completed after the event log filled up.
    pub dropped_events: u64,
    /// Named monotonic counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Named gauges.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Named histograms.
    pub histograms: BTreeMap<&'static str, Histogram>,
}

impl ObsSnapshot {
    /// A canonical description of the deterministic part of the
    /// snapshot: the span tree (names and counts, children sorted by
    /// name), named counters, and `Count`-unit histograms. Two solves
    /// are reproducibility-equivalent iff their shapes are equal;
    /// durations, gauges, and `Nanos` histograms are excluded.
    pub fn shape(&self) -> String {
        wire::WireSnapshot::from_snapshot(self).shape()
    }

    /// Total wall time recorded at the root's direct children (the
    /// top-level spans), nanoseconds.
    pub fn total_span_nanos(&self) -> u64 {
        self.nodes[0]
            .children
            .iter()
            .map(|&c| self.nodes[c].total_nanos)
            .sum()
    }

    /// Deterministic deep equality on the aggregate state: the span
    /// tree (canonically ordered, exact counts and nanosecond totals),
    /// counters, gauge bit patterns, and full histogram contents. The
    /// event log and epoch are excluded — use [`ObsSnapshot::shape`]
    /// for the width-independent determinism contract instead.
    pub fn deep_eq(&self, other: &ObsSnapshot) -> bool {
        wire::WireSnapshot::from_snapshot(self) == wire::WireSnapshot::from_snapshot(other)
    }
}

/// RAII guard returned by [`SolverContext::span`] and
/// [`SolverContext::phase_span`]; closes the span when dropped, charging
/// the same interval to its [`Phase`], if any.
pub struct SpanGuard<'a> {
    ctx: &'a SolverContext,
    node: usize,
    phase: Option<Phase>,
    start: Instant,
}

impl<'a> SpanGuard<'a> {
    pub(crate) fn enter(ctx: &'a SolverContext, name: &'static str, phase: Option<Phase>) -> Self {
        let node = ctx.obs().enter(name);
        SpanGuard {
            ctx,
            node,
            phase,
            start: Instant::now(),
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let obs = self.ctx.obs();
        let end = Instant::now();
        let nanos_since = |t: Instant| {
            t.checked_duration_since(obs.epoch())
                .map_or(0, |d| d.as_nanos().min(u64::MAX as u128) as u64)
        };
        let (start, end) = (nanos_since(self.start), nanos_since(end));
        obs.exit(self.node, start, end);
        if let Some(phase) = self.phase {
            self.ctx
                .record_phase_nanos(phase, end.saturating_sub(start));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolverContext;

    #[test]
    fn spans_nest_and_aggregate() {
        let ctx = SolverContext::default();
        {
            let _outer = ctx.span("outer");
            for _ in 0..3 {
                let _inner = ctx.span("inner");
            }
        }
        {
            let _outer = ctx.span("outer");
        }
        let snap = ctx.obs_snapshot();
        let root = &snap.nodes[0];
        assert_eq!(root.children.len(), 1);
        let outer = &snap.nodes[root.children[0]];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.count, 2);
        assert_eq!(outer.children.len(), 1);
        let inner = &snap.nodes[outer.children[0]];
        assert_eq!((inner.name, inner.count), ("inner", 3));
        assert!(outer.total_nanos >= outer.child_nanos);
        assert_eq!(inner.self_nanos(), inner.total_nanos);
        assert_eq!(snap.events.len(), 5, "three inner + two outer");
        // Events close in LIFO order: all inner events precede the first
        // outer event.
        assert!(snap.events[..3].iter().all(|e| e.name == "inner"));
    }

    #[test]
    fn absorb_grafts_under_the_open_span() {
        let parent = SolverContext::default();
        let child = SolverContext::default();
        {
            let _s = child.span("work");
        }
        child.obs().add_counter("widgets", 2);
        child.obs().record("sizes", Unit::Count, 8);
        let snap = child.obs_snapshot();
        {
            let _fan = parent.span("fanout");
            parent.absorb_obs(&snap);
            parent.absorb_obs(&snap);
        }
        let merged = parent.obs_snapshot();
        assert_eq!(merged.shape(), {
            let mut s = String::from("<root> x0\n  fanout x1\n    work x2\n");
            s.push_str("counter widgets = 4\n");
            s.push_str("hist sizes n=2 sum=16 b4:2\n");
            s
        });
    }

    #[test]
    fn histogram_buckets_cover_all_values() {
        let mut h = Histogram::new(Unit::Count);
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.buckets().iter().sum::<u64>(), 8);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.buckets()[0], 1); // 0
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 2); // 2, 3
        assert_eq!(h.buckets()[10], 1); // 1023
        assert_eq!(h.buckets()[11], 1); // 1024
        assert_eq!(h.buckets()[64], 1); // u64::MAX
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let mut h = Histogram::new(Unit::Count);
        for v in 1..=100u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        assert!((50..=63).contains(&p50), "p50 = {p50}");
        assert!((95..=100).contains(&p95), "p95 = {p95}");
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(Histogram::new(Unit::Count).quantile(0.5), 0);
    }

    #[test]
    fn quantile_edges_return_recorded_extremes_exactly() {
        // The edge contract: q ≤ 0 is the exact recorded min, q ≥ 1 the
        // exact recorded max — never a bucket bound. 5 and 1000 are both
        // strictly inside their buckets ([4,8) and [512,1024)), so a
        // bucket-edge answer would be visibly wrong here.
        let mut h = Histogram::new(Unit::Count);
        for v in [5u64, 17, 1000] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 5);
        assert_eq!(h.quantile(-1.0), 5);
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.quantile(2.0), 1000);
        // Interior quantiles stay within the recorded range.
        for q in [0.01, 0.25, 0.5, 0.75, 0.99] {
            let v = h.quantile(q);
            assert!((5..=1000).contains(&v), "q={q} -> {v}");
        }
        // A single observation answers every quantile with itself.
        let mut one = Histogram::new(Unit::Nanos);
        one.record(6);
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(one.quantile(q), 6, "q={q}");
        }
        // Empty histograms return 0 for every q, including the edges.
        let empty = Histogram::new(Unit::Count);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(empty.quantile(q), 0);
        }
    }

    #[test]
    fn histogram_from_parts_validates_and_round_trips() {
        let mut h = Histogram::new(Unit::Count);
        for v in [0u64, 3, 99, 1 << 40] {
            h.record(v);
        }
        let rebuilt =
            Histogram::from_parts(h.unit(), *h.buckets(), h.count(), h.sum(), h.min(), h.max())
                .expect("valid parts");
        assert_eq!(rebuilt, h);
        // Empty round-trip: the reported min is 0, internal sentinel
        // must be restored so later records still track the true min.
        let empty = Histogram::new(Unit::Nanos);
        let mut rebuilt = Histogram::from_parts(
            empty.unit(),
            *empty.buckets(),
            empty.count(),
            empty.sum(),
            empty.min(),
            empty.max(),
        )
        .expect("empty parts");
        assert_eq!(rebuilt, empty);
        rebuilt.record(7);
        assert_eq!(rebuilt.min(), 7);
        // Mass/count mismatch is rejected.
        let mut buckets = [0u64; NBUCKETS];
        buckets[3] = 2;
        assert!(Histogram::from_parts(Unit::Count, buckets, 3, 10, 4, 7).is_err());
        // min > max on a non-empty histogram is rejected.
        buckets[3] = 3;
        assert!(Histogram::from_parts(Unit::Count, buckets, 3, 10, 9, 7).is_err());
    }

    #[test]
    fn set_gauge_max_keeps_the_worst_reading() {
        let ctx = SolverContext::default();
        ctx.obs().set_gauge_max("imb", 1.5);
        ctx.obs().set_gauge_max("imb", 1.2);
        assert_eq!(ctx.obs_snapshot().gauges["imb"], 1.5);
        ctx.obs().set_gauge_max("imb", 2.5);
        assert_eq!(ctx.obs_snapshot().gauges["imb"], 2.5);
    }

    #[test]
    fn gauges_merge_as_max() {
        let a = SolverContext::default();
        a.obs().set_gauge("fill", 0.25);
        let b = SolverContext::default();
        b.obs().set_gauge("fill", 0.75);
        a.absorb_obs(&b.obs_snapshot());
        let snap = a.obs_snapshot();
        assert_eq!(snap.gauges["fill"], 0.75);
    }
}
