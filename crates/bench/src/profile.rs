//! Exporters for [`jcr_ctx::obs`] snapshots: Chrome Trace Event JSON
//! (loadable in Perfetto / `chrome://tracing`), flamegraph-style
//! collapsed stacks, and histogram summary tables — plus the runner
//! behind `experiments trace`.
//!
//! The Chrome trace is rebuilt from the flat completed-span event log:
//! per thread lane the spans are re-nested with a sweep (sorted by start
//! time, longer spans first), which guarantees **balanced `B`/`E`
//! pairs** with proper stack discipline even when clock jitter makes
//! recorded intervals overlap by a few nanoseconds — child intervals are
//! clamped into their parent. Timestamps are microseconds with a
//! fractional part, so nanosecond ordering survives the export.

use std::collections::BTreeMap;

use jcr_ctx::obs::wire::WireSnapshot;
use jcr_ctx::obs::{ObsSnapshot, SpanEvent, Unit};

use crate::exp::ExpConfig;
use crate::json::Json;
use crate::{build_instance, fmt, print_table, Scenario};

/// Renders a snapshot as a Chrome Trace Event document: one `M`
/// (thread-name) metadata event per lane, then balanced `B`/`E` pairs.
/// Deterministic counters and `Count` histograms ride along under the
/// non-standard `"jcr"` key (Perfetto ignores unknown keys), so the
/// trace file alone can answer "did two runs do the same work".
pub fn chrome_trace(snap: &ObsSnapshot) -> Json {
    let mut lanes: BTreeMap<u32, Vec<SpanEvent>> = BTreeMap::new();
    for ev in &snap.events {
        lanes.entry(ev.tid).or_default().push(*ev);
    }
    let mut events = Vec::new();
    for (&tid, spans) in &mut lanes {
        let name = if tid == 0 {
            "main".to_string()
        } else {
            format!("pool worker {tid}")
        };
        events.push(Json::obj([
            ("ph", Json::Str("M".into())),
            ("name", Json::Str("thread_name".into())),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(f64::from(tid))),
            ("args", Json::obj([("name", Json::Str(name))])),
        ]));
        // Re-nest: by start ascending, then longer (enclosing) first.
        spans.sort_by(|a, b| {
            (a.start_nanos, std::cmp::Reverse(a.end_nanos), a.name).cmp(&(
                b.start_nanos,
                std::cmp::Reverse(b.end_nanos),
                b.name,
            ))
        });
        let mut stack: Vec<(u64, &'static str)> = Vec::new();
        let mut emit = |ph: &str, name: &str, nanos: u64| {
            events.push(Json::obj([
                ("ph", Json::Str(ph.into())),
                ("name", Json::Str(name.into())),
                ("cat", Json::Str("span".into())),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(tid))),
                ("ts", Json::Num(nanos as f64 / 1e3)),
            ]));
        };
        for span in spans.iter() {
            while let Some(&(top_end, top_name)) = stack.last() {
                if top_end <= span.start_nanos {
                    emit("E", top_name, top_end);
                    stack.pop();
                } else {
                    break;
                }
            }
            // Clamp into the enclosing span so pairs always nest.
            let end = match stack.last() {
                Some(&(top_end, _)) => span.end_nanos.min(top_end),
                None => span.end_nanos,
            };
            let start = span.start_nanos.min(end);
            emit("B", span.name, start);
            stack.push((end, span.name));
        }
        while let Some((end, name)) = stack.pop() {
            emit("E", name, end);
        }
    }

    let counters: BTreeMap<String, Json> = snap
        .counters
        .iter()
        .map(|(&k, &v)| (k.to_string(), Json::Num(v as f64)))
        .collect();
    let hists: BTreeMap<String, Json> = snap
        .histograms
        .iter()
        .map(|(&k, h)| {
            (
                k.to_string(),
                Json::obj([
                    ("unit", Json::Str(h.unit().name().into())),
                    ("count", Json::Num(h.count() as f64)),
                    ("p50", Json::Num(h.quantile(0.5) as f64)),
                    ("p95", Json::Num(h.quantile(0.95) as f64)),
                    ("max", Json::Num(h.max() as f64)),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
        (
            "jcr",
            Json::obj([
                ("counters", Json::Obj(counters)),
                ("histograms", Json::Obj(hists)),
                ("droppedEvents", Json::Num(snap.dropped_events as f64)),
            ]),
        ),
    ])
}

/// Validates a rendered Chrome trace: the document parses, `traceEvents`
/// exists, and per lane the `B`/`E` events balance with stack discipline
/// (every `E` closes the innermost open `B` of the same name). Returns
/// the number of matched pairs.
///
/// # Errors
///
/// A description of the first malformation found.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut stacks: BTreeMap<i64, Vec<String>> = BTreeMap::new();
    let mut pairs = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph == "M" {
            continue;
        }
        let tid = ev
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing tid"))? as i64;
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i}: bad ts {ts}"));
        }
        match ph {
            "B" => stacks.entry(tid).or_default().push(name.to_string()),
            "E" => {
                let open = stacks
                    .entry(tid)
                    .or_default()
                    .pop()
                    .ok_or_else(|| format!("event {i}: E with no open B on tid {tid}"))?;
                if open != name {
                    return Err(format!(
                        "event {i}: E {name:?} closes B {open:?} on tid {tid}"
                    ));
                }
                pairs += 1;
            }
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!("tid {tid}: {} unclosed B events", stack.len()));
        }
    }
    Ok(pairs)
}

/// Renders the aggregate span tree as flamegraph collapsed stacks: one
/// line per tree node, `root;child;… <self-µs>`, children sorted by name
/// so the output is deterministic for a deterministic solve (the values
/// are wall clock and vary).
pub fn collapsed_stacks(snap: &ObsSnapshot) -> String {
    fn walk(snap: &ObsSnapshot, node: usize, path: &mut Vec<&'static str>, out: &mut String) {
        let n = &snap.nodes[node];
        if !n.name.is_empty() {
            path.push(n.name);
            out.push_str(&path.join(";"));
            out.push(' ');
            out.push_str(&(n.self_nanos() / 1_000).to_string());
            out.push('\n');
        }
        let mut kids = n.children.clone();
        kids.sort_by_key(|&c| snap.nodes[c].name);
        for c in kids {
            walk(snap, c, path, out);
        }
        if !n.name.is_empty() {
            path.pop();
        }
    }
    let mut out = String::new();
    walk(snap, 0, &mut Vec::new(), &mut out);
    out
}

/// Header for [`histogram_rows`] tables.
pub fn histogram_header() -> Vec<String> {
    ["metric", "unit", "n", "mean", "p50", "p95", "max"]
        .iter()
        .map(|s| (*s).to_string())
        .collect()
}

/// One row per histogram in the snapshot's registry: count, mean, and
/// log₂-bucket p50/p95 upper bounds. `Nanos` histograms are reported in
/// milliseconds, `Count` histograms as raw values.
pub fn histogram_rows(snap: &ObsSnapshot) -> Vec<Vec<String>> {
    snap.histograms
        .iter()
        .map(|(&name, h)| {
            let (unit, scale) = match h.unit() {
                Unit::Nanos => ("ms", 1e-6),
                Unit::Count => ("count", 1.0),
            };
            vec![
                name.to_string(),
                unit.to_string(),
                h.count().to_string(),
                fmt(h.mean() * scale),
                fmt(h.quantile(0.5) as f64 * scale),
                fmt(h.quantile(0.95) as f64 * scale),
                fmt(h.max() as f64 * scale),
            ]
        })
        .collect()
}

/// The path of a file written next to a trace at `out`: the trace's
/// extension replaced by `ext` (`folded` for the collapsed-stack
/// profile, `obs.json` for the observability snapshot).
pub fn sibling_path(out: &str, ext: &str) -> String {
    match out.rsplit_once('.') {
        Some((stem, _)) if !stem.is_empty() => format!("{stem}.{ext}"),
        _ => format!("{out}.{ext}"),
    }
}

/// Runs the `experiments trace` subcommand: one seeded chunk-default
/// hour through Algorithm 1 and the alternating solver under a single
/// instrumented context, then writes the Chrome trace to `out`, and the
/// collapsed-stack profile and the canonical wire snapshot (the input
/// of `experiments diff`) next to it, validates the emitted trace
/// (round-trip parse + balanced `B`/`E`), and prints the span and
/// histogram summaries.
///
/// # Errors
///
/// I/O failures and trace-validation failures (the latter indicate an
/// exporter bug and fail CI's smoke step).
pub fn trace_run(cfg: ExpConfig, out: &str) -> Result<(), String> {
    let mut sc = Scenario::chunk_default();
    sc.seed = sc.seed.wrapping_add(cfg.seed);
    sc.share_seed = sc.share_seed.wrapping_add(cfg.seed);
    sc.hours = 1;
    let n_edges = sc.topology().edge_nodes.len();
    let rates = sc.demand(n_edges).true_rates(0, n_edges);
    let inst = build_instance(&sc, &rates);

    let ctx = cfg.pool_ctx();
    {
        let _s = ctx.span("trace.alg1");
        let _ = jcr_core::prelude::Algorithm1::new().solve_with_context(&inst, &ctx);
    }
    {
        let _s = ctx.span("trace.alternating");
        let _ = jcr_core::prelude::Alternating::new().solve_with_context(&inst, &ctx);
    }
    let snap = ctx.obs_snapshot();

    let trace_text = chrome_trace(&snap).render();
    let pairs = validate_chrome_trace(&trace_text)?;
    std::fs::write(out, &trace_text).map_err(|e| format!("writing {out}: {e}"))?;
    let folded = sibling_path(out, "folded");
    std::fs::write(&folded, collapsed_stacks(&snap))
        .map_err(|e| format!("writing {folded}: {e}"))?;
    let mut wire = WireSnapshot::from_snapshot(&snap);
    wire.meta.insert("kind".into(), "jcr-trace-obs".into());
    wire.meta
        .insert("workers".into(), ctx.workers().to_string());
    let obs = sibling_path(out, "obs.json");
    std::fs::write(&obs, wire.render()).map_err(|e| format!("writing {obs}: {e}"))?;

    let mut span_rows = Vec::new();
    span_summary(&snap, 0, 0, &mut span_rows);
    print_table(
        "Span tree — calls, total/self wall time (ms)",
        &["span".into(), "calls".into(), "total".into(), "self".into()],
        &span_rows,
    );
    print_table(
        "Metric histograms (p50/p95 are log₂-bucket upper bounds)",
        &histogram_header(),
        &histogram_rows(&snap),
    );
    eprintln!(
        "[trace] wrote {out} ({pairs} span pairs, {} lanes), {folded} and {obs}; open {out} in https://ui.perfetto.dev",
        1 + snap.events.iter().map(|e| e.tid).max().unwrap_or(0)
    );
    Ok(())
}

fn span_summary(snap: &ObsSnapshot, node: usize, depth: usize, rows: &mut Vec<Vec<String>>) {
    let n = &snap.nodes[node];
    if !n.name.is_empty() {
        rows.push(vec![
            format!("{:indent$}{}", "", n.name, indent = (depth - 1) * 2),
            n.count.to_string(),
            fmt(n.total_nanos as f64 / 1e6),
            fmt(n.self_nanos() as f64 / 1e6),
        ]);
    }
    let mut kids = n.children.clone();
    kids.sort_by_key(|&c| snap.nodes[c].name);
    for c in kids {
        span_summary(snap, c, depth + 1, rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcr_ctx::SolverContext;

    fn sample_snapshot() -> ObsSnapshot {
        let ctx = SolverContext::default();
        {
            let _a = ctx.span("outer");
            for _ in 0..3 {
                let _b = ctx.span("inner");
            }
        }
        {
            let _a = ctx.span("other");
        }
        ctx.obs().add_counter("widgets", 2);
        ctx.metric_value("sizes", 9);
        ctx.metric_nanos("lat", 1500);
        ctx.obs_snapshot()
    }

    #[test]
    fn chrome_trace_round_trips_and_balances() {
        let snap = sample_snapshot();
        let text = chrome_trace(&snap).render();
        let pairs = validate_chrome_trace(&text).expect("valid trace");
        assert_eq!(pairs, 5, "three inner + outer + other");
        let doc = Json::parse(&text).unwrap();
        let jcr = doc.get("jcr").unwrap();
        assert_eq!(
            jcr.get("counters")
                .unwrap()
                .get("widgets")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
        let sizes = jcr.get("histograms").unwrap().get("sizes").unwrap();
        assert_eq!(sizes.get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(sizes.get("unit").unwrap().as_str(), Some("count"));
    }

    #[test]
    fn validator_rejects_unbalanced_and_mismatched() {
        let unbalanced = Json::obj([(
            "traceEvents",
            Json::Arr(vec![Json::obj([
                ("ph", Json::Str("B".into())),
                ("name", Json::Str("a".into())),
                ("tid", Json::Num(0.0)),
                ("ts", Json::Num(1.0)),
            ])]),
        )])
        .render();
        assert!(validate_chrome_trace(&unbalanced)
            .unwrap_err()
            .contains("unclosed"));
        let mismatched = Json::obj([(
            "traceEvents",
            Json::Arr(vec![
                Json::obj([
                    ("ph", Json::Str("B".into())),
                    ("name", Json::Str("a".into())),
                    ("tid", Json::Num(0.0)),
                    ("ts", Json::Num(1.0)),
                ]),
                Json::obj([
                    ("ph", Json::Str("E".into())),
                    ("name", Json::Str("b".into())),
                    ("tid", Json::Num(0.0)),
                    ("ts", Json::Num(2.0)),
                ]),
            ]),
        )])
        .render();
        assert!(validate_chrome_trace(&mismatched).is_err());
    }

    #[test]
    fn collapsed_stacks_follow_tree_shape() {
        let snap = sample_snapshot();
        let text = collapsed_stacks(&snap);
        let paths: Vec<&str> = text
            .lines()
            .map(|l| l.rsplit_once(' ').unwrap().0)
            .collect();
        assert_eq!(paths, vec!["other", "outer", "outer;inner"]);
        for line in text.lines() {
            let (_, v) = line.rsplit_once(' ').unwrap();
            v.parse::<u64>().expect("µs value");
        }
    }

    #[test]
    fn histogram_rows_scale_by_unit() {
        let snap = sample_snapshot();
        let rows = histogram_rows(&snap);
        assert_eq!(rows.len(), 2);
        let lat = rows.iter().find(|r| r[0] == "lat").unwrap();
        assert_eq!(lat[1], "ms");
        let sizes = rows.iter().find(|r| r[0] == "sizes").unwrap();
        assert_eq!((sizes[1].as_str(), sizes[2].as_str()), ("count", "1"));
    }

    #[test]
    fn sibling_path_replaces_extension() {
        assert_eq!(sibling_path("TRACE.json", "folded"), "TRACE.folded");
        assert_eq!(sibling_path("TRACE.json", "obs.json"), "TRACE.obs.json");
        assert_eq!(sibling_path("a/b.trace.json", "folded"), "a/b.trace.folded");
        assert_eq!(sibling_path("noext", "folded"), "noext.folded");
    }
}
