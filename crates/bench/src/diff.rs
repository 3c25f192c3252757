//! Differential profiler: attributed delta reports between two
//! serialized [`WireSnapshot`]s (see `jcr_ctx::obs::wire`).
//!
//! Given snapshots A and B of the same workload — two commits, two
//! worker widths, two machines — [`diff_snapshots`] answers *which
//! spans the wall-clock difference lives in*:
//!
//! * **Span attribution.** Both span trees are flattened to
//!   `;`-joined name paths (unique, because the aggregate tree keys
//!   children by `parent → name`) and joined on path. Each path gets a
//!   self-time delta `self_B − self_A`; because every node's total is
//!   its self time plus its children's totals, the signed self-deltas
//!   sum to the wall-clock delta exactly (up to the saturating clamp
//!   on negative self times), so ranking by `|Δself|` ranks by
//!   absolute contribution to the wall-clock difference and the report
//!   can state what fraction of the delta it attributed.
//! * **Counter deltas** over the union of counter names, zero-delta
//!   entries dropped.
//! * **Histogram shift detection** over the log₂ bins: mass movement
//!   (total-variation distance between the normalized bucket
//!   distributions) plus p50/p95 drift via the reconstructed
//!   [`Histogram`](jcr_ctx::obs::Histogram) quantiles.
//!
//! Reports render two ways: an aligned human table
//! ([`DiffReport::print`]) and canonical JSON ([`DiffReport::to_json`])
//! following the `crate::json` conventions.
//!
//! Everything here is deterministic: same two documents in, same
//! report out, bit for bit.

use std::collections::BTreeMap;

use jcr_ctx::obs::wire::{WireHistogram, WireSnapshot};
use jcr_ctx::obs::Unit;

use crate::json::Json;
use crate::{fmt, print_table};

/// Options for [`run`] (the `experiments diff` subcommand).
#[derive(Clone, Debug)]
pub struct DiffOpts {
    /// Restrict span attribution to one top-level phase: matches a root
    /// child named `<phase>` or `phase.<phase>`.
    pub phase: Option<String>,
    /// Rows per table.
    pub top: usize,
    /// Also print the width-vs-width efficiency report (requires both
    /// snapshots to carry a `workers` meta entry).
    pub workers_compare: bool,
    /// Write the canonical JSON report here.
    pub out: Option<String>,
}

impl Default for DiffOpts {
    fn default() -> Self {
        DiffOpts {
            phase: None,
            top: 10,
            workers_compare: false,
            out: None,
        }
    }
}

/// One span path's contribution to the wall-clock difference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanDelta {
    /// `;`-joined span names from the attribution root down.
    pub path: String,
    /// Completed entries in A / B.
    pub count_a: u64,
    /// See `count_a`.
    pub count_b: u64,
    /// Total nanoseconds in A / B.
    pub total_a_ns: u64,
    /// See `total_a_ns`.
    pub total_b_ns: u64,
    /// Self nanoseconds (total − children) in A / B.
    pub self_a_ns: u64,
    /// See `self_a_ns`.
    pub self_b_ns: u64,
}

impl SpanDelta {
    /// Signed self-time delta, B − A.
    pub fn self_delta_ns(&self) -> i128 {
        self.self_b_ns as i128 - self.self_a_ns as i128
    }

    /// Signed total-time delta, B − A.
    pub fn total_delta_ns(&self) -> i128 {
        self.total_b_ns as i128 - self.total_a_ns as i128
    }

    fn is_zero(&self) -> bool {
        self.count_a == self.count_b
            && self.total_a_ns == self.total_b_ns
            && self.self_a_ns == self.self_b_ns
    }
}

/// One counter whose value changed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterDelta {
    /// Counter name.
    pub name: String,
    /// Value in A (0 if absent).
    pub a: u64,
    /// Value in B (0 if absent).
    pub b: u64,
}

impl CounterDelta {
    /// Signed delta, B − A.
    pub fn delta(&self) -> i128 {
        self.b as i128 - self.a as i128
    }
}

/// One histogram whose distribution moved.
#[derive(Clone, Debug)]
pub struct HistogramShift {
    /// Histogram name.
    pub name: String,
    /// Unit both sides record (a unit mismatch is reported as a full
    /// shift of the A side's unit).
    pub unit: Unit,
    /// Observation counts.
    pub count_a: u64,
    /// See `count_a`.
    pub count_b: u64,
    /// Total-variation distance between the normalized log₂-bucket
    /// distributions: 0 = identical shape, 1 = disjoint. This is the
    /// fraction of probability mass that moved between buckets.
    pub moved_mass: f64,
    /// p50 upper bounds.
    pub p50_a: u64,
    /// See `p50_a`.
    pub p50_b: u64,
    /// p95 upper bounds.
    pub p95_a: u64,
    /// See `p95_a`.
    pub p95_b: u64,
    /// Means.
    pub mean_a: f64,
    /// See `mean_a`.
    pub mean_b: f64,
}

/// The attributed delta report between two snapshots.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Phase restriction the report was computed under, if any.
    pub phase: Option<String>,
    /// Wall clock of the attribution root in A / B, nanoseconds (the
    /// sum of top-level span totals, or the phase node's total).
    pub wall_a_ns: u64,
    /// See `wall_a_ns`.
    pub wall_b_ns: u64,
    /// Changed span paths, ranked by `|Δself|` descending (ties by
    /// path).
    pub spans: Vec<SpanDelta>,
    /// Changed counters, ranked by `|Δ|` descending (ties by name).
    pub counters: Vec<CounterDelta>,
    /// Shifted histograms, ranked by moved mass descending (ties by
    /// name).
    pub histograms: Vec<HistogramShift>,
}

impl DiffReport {
    /// Signed wall-clock delta, B − A.
    pub fn wall_delta_ns(&self) -> i128 {
        self.wall_b_ns as i128 - self.wall_a_ns as i128
    }

    /// Signed sum of the span self-time deltas — the part of the
    /// wall-clock delta the report attributes to named spans. Equal to
    /// [`DiffReport::wall_delta_ns`] up to the saturating clamp on
    /// negative self times (clock jitter), i.e. ≥ 90% in practice and
    /// usually 100%.
    pub fn attributed_ns(&self) -> i128 {
        self.spans.iter().map(SpanDelta::self_delta_ns).sum()
    }

    /// Fraction of the wall-clock delta attributed to named spans
    /// (1.0 when the delta is zero).
    pub fn attributed_fraction(&self) -> f64 {
        let wall = self.wall_delta_ns();
        if wall == 0 {
            1.0
        } else {
            self.attributed_ns() as f64 / wall as f64
        }
    }

    /// True iff the two snapshots were observationally identical over
    /// the compared scope: equal walls and no span, counter, or
    /// histogram deltas.
    pub fn is_zero(&self) -> bool {
        self.wall_a_ns == self.wall_b_ns
            && self.spans.is_empty()
            && self.counters.is_empty()
            && self.histograms.is_empty()
    }

    /// Canonical JSON rendering (exact integers as decimal strings,
    /// sorted keys, stable row order).
    pub fn to_json(&self) -> Json {
        let mut top = BTreeMap::new();
        top.insert("kind".to_string(), Json::Str("jcr-obs-diff".to_string()));
        top.insert("schema".to_string(), Json::Num(1.0));
        top.insert(
            "phase".to_string(),
            match &self.phase {
                Some(p) => Json::Str(p.clone()),
                None => Json::Null,
            },
        );
        top.insert(
            "wall_a_ns".to_string(),
            Json::Str(self.wall_a_ns.to_string()),
        );
        top.insert(
            "wall_b_ns".to_string(),
            Json::Str(self.wall_b_ns.to_string()),
        );
        top.insert(
            "wall_delta_ns".to_string(),
            Json::Str(self.wall_delta_ns().to_string()),
        );
        top.insert(
            "attributed_ns".to_string(),
            Json::Str(self.attributed_ns().to_string()),
        );
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut o = BTreeMap::new();
                o.insert("path".to_string(), Json::Str(s.path.clone()));
                o.insert("count_a".to_string(), Json::Str(s.count_a.to_string()));
                o.insert("count_b".to_string(), Json::Str(s.count_b.to_string()));
                o.insert(
                    "total_a_ns".to_string(),
                    Json::Str(s.total_a_ns.to_string()),
                );
                o.insert(
                    "total_b_ns".to_string(),
                    Json::Str(s.total_b_ns.to_string()),
                );
                o.insert("self_a_ns".to_string(), Json::Str(s.self_a_ns.to_string()));
                o.insert("self_b_ns".to_string(), Json::Str(s.self_b_ns.to_string()));
                o.insert(
                    "self_delta_ns".to_string(),
                    Json::Str(s.self_delta_ns().to_string()),
                );
                Json::Obj(o)
            })
            .collect();
        top.insert("spans".to_string(), Json::Arr(spans));
        let counters = self
            .counters
            .iter()
            .map(|c| {
                let mut o = BTreeMap::new();
                o.insert("name".to_string(), Json::Str(c.name.clone()));
                o.insert("a".to_string(), Json::Str(c.a.to_string()));
                o.insert("b".to_string(), Json::Str(c.b.to_string()));
                o.insert("delta".to_string(), Json::Str(c.delta().to_string()));
                Json::Obj(o)
            })
            .collect();
        top.insert("counters".to_string(), Json::Arr(counters));
        let hists = self
            .histograms
            .iter()
            .map(|h| {
                let mut o = BTreeMap::new();
                o.insert("name".to_string(), Json::Str(h.name.clone()));
                o.insert("unit".to_string(), Json::Str(h.unit.name().to_string()));
                o.insert("count_a".to_string(), Json::Str(h.count_a.to_string()));
                o.insert("count_b".to_string(), Json::Str(h.count_b.to_string()));
                o.insert("moved_mass".to_string(), Json::Num(h.moved_mass));
                o.insert("p50_a".to_string(), Json::Str(h.p50_a.to_string()));
                o.insert("p50_b".to_string(), Json::Str(h.p50_b.to_string()));
                o.insert("p95_a".to_string(), Json::Str(h.p95_a.to_string()));
                o.insert("p95_b".to_string(), Json::Str(h.p95_b.to_string()));
                Json::Obj(o)
            })
            .collect();
        top.insert("histograms".to_string(), Json::Arr(hists));
        Json::Obj(top)
    }

    /// Prints the human report: wall summary plus the top-`top` span,
    /// counter, and histogram tables.
    pub fn print(&self, top: usize) {
        let scope = match &self.phase {
            Some(p) => format!(" (phase {p})"),
            None => String::new(),
        };
        println!(
            "\nwall{scope}: {} ms -> {} ms  (delta {} ms, {:.1}% attributed to spans)",
            fmt(self.wall_a_ns as f64 / 1e6),
            fmt(self.wall_b_ns as f64 / 1e6),
            fmt_signed_ms(self.wall_delta_ns()),
            self.attributed_fraction() * 100.0
        );
        if self.is_zero() {
            println!("zero deltas: the snapshots are observationally identical");
            return;
        }
        if self.spans.is_empty() {
            println!("no span deltas");
        } else {
            let header: Vec<String> = [
                "span",
                "calls A",
                "calls B",
                "self A ms",
                "self B ms",
                "d self ms",
                "share %",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let wall = self.wall_delta_ns();
            let rows: Vec<Vec<String>> = self
                .spans
                .iter()
                .take(top)
                .map(|s| {
                    vec![
                        s.path.clone(),
                        s.count_a.to_string(),
                        s.count_b.to_string(),
                        fmt(s.self_a_ns as f64 / 1e6),
                        fmt(s.self_b_ns as f64 / 1e6),
                        fmt_signed_ms(s.self_delta_ns()),
                        if wall == 0 {
                            "-".to_string()
                        } else {
                            format!("{:.1}", s.self_delta_ns() as f64 / wall as f64 * 100.0)
                        },
                    ]
                })
                .collect();
            print_table(
                &format!(
                    "Span attribution (top {} of {} by |d self|)",
                    rows.len(),
                    self.spans.len()
                ),
                &header,
                &rows,
            );
        }
        if !self.counters.is_empty() {
            let header: Vec<String> = ["counter", "A", "B", "delta"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let rows: Vec<Vec<String>> = self
                .counters
                .iter()
                .take(top)
                .map(|c| {
                    vec![
                        c.name.clone(),
                        c.a.to_string(),
                        c.b.to_string(),
                        format!("{:+}", c.delta()),
                    ]
                })
                .collect();
            print_table(
                &format!(
                    "Counter deltas (top {} of {})",
                    rows.len(),
                    self.counters.len()
                ),
                &header,
                &rows,
            );
        }
        if !self.histograms.is_empty() {
            let header: Vec<String> = [
                "histogram",
                "unit",
                "n A",
                "n B",
                "moved",
                "p50 A",
                "p50 B",
                "p95 A",
                "p95 B",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let rows: Vec<Vec<String>> = self
                .histograms
                .iter()
                .take(top)
                .map(|h| {
                    vec![
                        h.name.clone(),
                        h.unit.name().to_string(),
                        h.count_a.to_string(),
                        h.count_b.to_string(),
                        format!("{:.3}", h.moved_mass),
                        h.p50_a.to_string(),
                        h.p50_b.to_string(),
                        h.p95_a.to_string(),
                        h.p95_b.to_string(),
                    ]
                })
                .collect();
            print_table(
                &format!(
                    "Histogram shifts (top {} of {} by moved mass)",
                    rows.len(),
                    self.histograms.len()
                ),
                &header,
                &rows,
            );
        }
    }
}

fn fmt_signed_ms(ns: i128) -> String {
    let ms = ns as f64 / 1e6;
    if ms == 0.0 {
        "+0".to_string()
    } else {
        format!("{ms:+.3}")
    }
}

/// Finds the attribution root for `phase` in `snap`: a root child
/// named `phase` or `phase.<phase>`.
fn phase_root(snap: &WireSnapshot, phase: &str, which: &str) -> Result<usize, String> {
    let prefixed = format!("phase.{phase}");
    snap.nodes[0]
        .children
        .iter()
        .copied()
        .find(|&c| snap.nodes[c].name == phase || snap.nodes[c].name == prefixed)
        .ok_or_else(|| {
            let have: Vec<&str> = snap.nodes[0]
                .children
                .iter()
                .map(|&c| snap.nodes[c].name.as_str())
                .collect();
            format!(
                "phase {phase:?} not found in snapshot {which} (top-level spans: {})",
                have.join(", ")
            )
        })
}

/// Flattens `root`'s subtree to `path → (count, total, self)`. The
/// subtree root itself is included unless it is the synthetic node 0.
fn flatten(snap: &WireSnapshot, root: usize) -> BTreeMap<String, (u64, u64, u64)> {
    let mut map = BTreeMap::new();
    fn walk(
        snap: &WireSnapshot,
        node: usize,
        prefix: &str,
        map: &mut BTreeMap<String, (u64, u64, u64)>,
    ) {
        let n = &snap.nodes[node];
        let path = if prefix.is_empty() {
            n.name.clone()
        } else {
            format!("{prefix};{}", n.name)
        };
        map.insert(path.clone(), (n.count, n.total_nanos, n.self_nanos()));
        for &c in &n.children {
            walk(snap, c, &path, map);
        }
    }
    if root == 0 {
        for &c in &snap.nodes[0].children {
            walk(snap, c, "", &mut map);
        }
    } else {
        walk(snap, root, "", &mut map);
    }
    map
}

fn empty_like(unit: Unit) -> WireHistogram {
    WireHistogram {
        unit,
        buckets: BTreeMap::new(),
        count: 0,
        sum: 0,
        min: 0,
        max: 0,
    }
}

fn histogram_shift(name: &str, a: &WireHistogram, b: &WireHistogram) -> HistogramShift {
    let moved_mass = if a.count == 0 && b.count == 0 {
        0.0
    } else if a.count == 0 || b.count == 0 {
        1.0
    } else {
        let mut tv = 0.0;
        let indices: std::collections::BTreeSet<usize> =
            a.buckets.keys().chain(b.buckets.keys()).copied().collect();
        for i in indices {
            let pa = *a.buckets.get(&i).unwrap_or(&0) as f64 / a.count as f64;
            let pb = *b.buckets.get(&i).unwrap_or(&0) as f64 / b.count as f64;
            tv += (pa - pb).abs();
        }
        tv / 2.0
    };
    // The wire invariants were validated at parse time, so the rebuild
    // cannot fail; fall back to an empty histogram defensively.
    let qa = a
        .to_histogram()
        .unwrap_or_else(|_| jcr_ctx::obs::Histogram::new(a.unit));
    let qb = b
        .to_histogram()
        .unwrap_or_else(|_| jcr_ctx::obs::Histogram::new(b.unit));
    HistogramShift {
        name: name.to_string(),
        unit: a.unit,
        count_a: a.count,
        count_b: b.count,
        moved_mass,
        p50_a: qa.quantile(0.5),
        p50_b: qb.quantile(0.5),
        p95_a: qa.quantile(0.95),
        p95_b: qb.quantile(0.95),
        mean_a: qa.mean(),
        mean_b: qb.mean(),
    }
}

/// Computes the attributed delta report from A to B, optionally
/// restricted to one top-level phase.
///
/// # Errors
///
/// If `phase` names a top-level span missing from either snapshot.
pub fn diff_snapshots(
    a: &WireSnapshot,
    b: &WireSnapshot,
    phase: Option<&str>,
) -> Result<DiffReport, String> {
    let (root_a, root_b, wall_a, wall_b) = match phase {
        Some(p) => {
            let ra = phase_root(a, p, "A")?;
            let rb = phase_root(b, p, "B")?;
            (ra, rb, a.nodes[ra].total_nanos, b.nodes[rb].total_nanos)
        }
        None => (0, 0, a.total_span_nanos(), b.total_span_nanos()),
    };
    let flat_a = flatten(a, root_a);
    let flat_b = flatten(b, root_b);
    let mut spans = Vec::new();
    let paths: std::collections::BTreeSet<&String> = flat_a.keys().chain(flat_b.keys()).collect();
    for path in paths {
        let (ca, ta, sa) = flat_a.get(path).copied().unwrap_or((0, 0, 0));
        let (cb, tb, sb) = flat_b.get(path).copied().unwrap_or((0, 0, 0));
        let d = SpanDelta {
            path: path.clone(),
            count_a: ca,
            count_b: cb,
            total_a_ns: ta,
            total_b_ns: tb,
            self_a_ns: sa,
            self_b_ns: sb,
        };
        if !d.is_zero() {
            spans.push(d);
        }
    }
    spans.sort_by(|x, y| {
        y.self_delta_ns()
            .abs()
            .cmp(&x.self_delta_ns().abs())
            .then_with(|| x.path.cmp(&y.path))
    });
    let mut counters = Vec::new();
    let names: std::collections::BTreeSet<&String> =
        a.counters.keys().chain(b.counters.keys()).collect();
    for name in names {
        let va = a.counters.get(name).copied().unwrap_or(0);
        let vb = b.counters.get(name).copied().unwrap_or(0);
        if va != vb {
            counters.push(CounterDelta {
                name: name.clone(),
                a: va,
                b: vb,
            });
        }
    }
    counters.sort_by(|x, y| {
        y.delta()
            .abs()
            .cmp(&x.delta().abs())
            .then_with(|| x.name.cmp(&y.name))
    });
    let mut histograms = Vec::new();
    let names: std::collections::BTreeSet<&String> =
        a.histograms.keys().chain(b.histograms.keys()).collect();
    for name in names {
        let ha = a.histograms.get(name);
        let hb = b.histograms.get(name);
        if ha == hb {
            continue;
        }
        let unit = ha.or(hb).expect("one side present").unit;
        let ea = empty_like(unit);
        let eb = empty_like(unit);
        histograms.push(histogram_shift(name, ha.unwrap_or(&ea), hb.unwrap_or(&eb)));
    }
    histograms.sort_by(|x, y| {
        y.moved_mass
            .partial_cmp(&x.moved_mass)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.name.cmp(&y.name))
    });
    Ok(DiffReport {
        phase: phase.map(str::to_string),
        wall_a_ns: wall_a,
        wall_b_ns: wall_b,
        spans,
        counters,
        histograms,
    })
}

/// Reads `workers` from a snapshot's meta.
fn workers_of(snap: &WireSnapshot, which: &str) -> Result<u64, String> {
    snap.meta
        .get("workers")
        .ok_or_else(|| format!("snapshot {which} records no \"workers\" meta entry"))?
        .parse::<u64>()
        .map_err(|e| format!("snapshot {which}: bad workers meta: {e}"))
}

/// Prints the width-vs-width efficiency report: per-span speedup and
/// parallel efficiency for the top spans by A total time, plus pool
/// utilization from the per-worker accounting.
pub fn print_workers_compare(a: &WireSnapshot, b: &WireSnapshot, top: usize) -> Result<(), String> {
    let wa = workers_of(a, "A")?;
    let wb = workers_of(b, "B")?;
    if wa == 0 || wb == 0 {
        return Err("workers meta must be positive".to_string());
    }
    let width_ratio = wb as f64 / wa as f64;
    let flat_a = flatten(a, 0);
    let flat_b = flatten(b, 0);
    let mut rows: Vec<(&String, u64, u64)> = flat_a
        .iter()
        .filter_map(|(path, &(_, ta, _))| flat_b.get(path).map(|&(_, tb, _)| (path, ta, tb)))
        .collect();
    rows.sort_by(|x, y| y.1.cmp(&x.1).then_with(|| x.0.cmp(y.0)));
    let header: Vec<String> = [
        "span",
        &format!("total@{wa}w ms"),
        &format!("total@{wb}w ms"),
        "speedup",
        "efficiency",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .take(top)
        .map(|&(path, ta, tb)| {
            let speedup = if tb == 0 {
                f64::NAN
            } else {
                ta as f64 / tb as f64
            };
            vec![
                path.clone(),
                fmt(ta as f64 / 1e6),
                fmt(tb as f64 / 1e6),
                fmt(speedup),
                fmt(speedup / width_ratio),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Width comparison: {wa} -> {wb} workers (top {} spans by A total)",
            table.len()
        ),
        &header,
        &table,
    );
    let pool = |snap: &WireSnapshot, name: &str| -> f64 {
        snap.histograms
            .get(name)
            .map_or(0.0, |h| h.sum as f64 / 1e6)
    };
    let util = |snap: &WireSnapshot| -> f64 {
        let busy = pool(snap, "pool.worker_busy_ns");
        let idle = pool(snap, "pool.worker_idle_ns");
        let steal = pool(snap, "pool.steal_wait_ns");
        let denom = busy + idle + steal;
        if denom == 0.0 {
            0.0
        } else {
            busy / denom
        }
    };
    let header: Vec<String> = [
        "side",
        "busy ms",
        "idle ms",
        "steal ms",
        "util",
        "imbalance",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let pool_rows: Vec<Vec<String>> = [("A", a, wa), ("B", b, wb)]
        .iter()
        .map(|&(side, snap, w)| {
            vec![
                format!("{side} ({w}w)"),
                fmt(pool(snap, "pool.worker_busy_ns")),
                fmt(pool(snap, "pool.worker_idle_ns")),
                fmt(pool(snap, "pool.steal_wait_ns")),
                format!("{:.2}", util(snap)),
                snap.gauge("pool.imbalance")
                    .map_or("-".to_string(), |g| format!("{g:.2}")),
            ]
        })
        .collect();
    print_table("Pool accounting", &header, &pool_rows);
    Ok(())
}

/// Loads a wire snapshot from disk.
///
/// # Errors
///
/// Unreadable file or invalid document.
pub fn load(path: &str) -> Result<WireSnapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    WireSnapshot::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The `experiments diff <a> <b>` entry point: loads both snapshots,
/// prints the report (and the width comparison if requested), and
/// optionally writes the canonical JSON report. Returning `Ok` means
/// exit status 0 — a self-diff reports zero deltas and succeeds.
///
/// # Errors
///
/// Unreadable/invalid snapshots, an unknown `--phase`, or a failed
/// report write.
pub fn run(a_path: &str, b_path: &str, opts: &DiffOpts) -> Result<(), String> {
    let a = load(a_path)?;
    let b = load(b_path)?;
    println!("## Differential profile: {a_path} -> {b_path}");
    let report = diff_snapshots(&a, &b, opts.phase.as_deref())?;
    report.print(opts.top);
    if opts.workers_compare {
        print_workers_compare(&a, &b, opts.top)?;
    }
    if let Some(out) = &opts.out {
        std::fs::write(out, report.to_json().render())
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("[diff] wrote {out}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcr_ctx::SolverContext;

    fn snap(ms_in_slow: u64) -> WireSnapshot {
        let ctx = SolverContext::default();
        {
            let _p = ctx.span("prep");
        }
        {
            let _s = ctx.span("slow");
            let t0 = std::time::Instant::now();
            while t0.elapsed().as_millis() < ms_in_slow as u128 {
                std::hint::spin_loop();
            }
        }
        ctx.obs().add_counter("widgets", 1 + ms_in_slow);
        ctx.obs().record("sizes", Unit::Count, ms_in_slow + 1);
        WireSnapshot::from_snapshot(&ctx.obs_snapshot())
    }

    #[test]
    fn self_diff_is_zero() {
        let a = snap(0);
        let report = diff_snapshots(&a, &a, None).unwrap();
        assert!(report.is_zero());
        assert_eq!(report.attributed_fraction(), 1.0);
        assert!(report.spans.is_empty());
        assert!(report.counters.is_empty());
        assert!(report.histograms.is_empty());
    }

    #[test]
    fn slow_span_ranks_first_and_attribution_is_exact() {
        let a = snap(0);
        let b = snap(15);
        let report = diff_snapshots(&a, &b, None).unwrap();
        assert_eq!(report.spans[0].path, "slow");
        assert!(report.wall_delta_ns() > 10_000_000, "15ms spin dominates");
        // Flat trees have no saturating clamp: attribution is exact.
        assert_eq!(report.attributed_ns(), report.wall_delta_ns());
        assert_eq!(report.counters[0].name, "widgets");
        assert_eq!(report.counters[0].delta(), 15);
        assert_eq!(report.histograms[0].name, "sizes");
        assert!(report.histograms[0].moved_mass > 0.0);
    }

    #[test]
    fn phase_restriction_errors_on_unknown_phase() {
        let a = snap(0);
        let err = diff_snapshots(&a, &a, Some("nope")).unwrap_err();
        assert!(err.contains("not found"), "{err}");
    }

    #[test]
    fn report_json_is_canonical() {
        let report = diff_snapshots(&snap(0), &snap(15), None).unwrap();
        let text = report.to_json().render();
        let reparsed = Json::parse(&text).expect("canonical JSON parses");
        assert_eq!(reparsed.render(), text);
    }
}
