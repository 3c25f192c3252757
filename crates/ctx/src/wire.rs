//! Canonical, versioned wire format for [`ObsSnapshot`]s.
//!
//! A [`WireSnapshot`] is the serializable, owned projection of an
//! [`ObsSnapshot`]'s aggregate state: the span tree with exact call
//! counts and nanosecond totals, monotonic counters, gauges, and
//! histograms. The flat event log is deliberately *not* part of the
//! wire format — it is bounded but large, non-deterministic, and
//! already has a dedicated exporter (the Chrome-trace path in
//! `jcr_bench`); the aggregate tree is what differential profiling
//! compares.
//!
//! The document is built as a [`Json`] tree and rendered and parsed by
//! the workspace's one JSON codec ([`crate::json`]): `BTreeMap`-sorted
//! object keys, two-space indentation, a trailing newline, no external
//! crates. On top of those, three rules make the format *exact* rather
//! than approximate:
//!
//! * every `u64`/`u128` quantity (counts, nanosecond totals, bucket
//!   masses, histogram sums) is a **decimal string**, never a JSON
//!   number — JSON numbers are f64s and lose integers above 2⁵³;
//! * gauges are stored as the **raw bit pattern** of their `f64`,
//!   rendered as 16 hex digits exactly like the bench checksums, so
//!   equality on the wire is bit equality;
//! * histogram buckets and child lists use compact space-separated
//!   encodings (`"4:2 11:1"`, `"1 2 3"`) with ascending indices.
//!
//! The span tree is **canonicalized** on conversion: children are
//! sorted by name and nodes renumbered in DFS order. Because the
//! aggregate tree keys children by `parent → name`, the canonical form
//! is unique, which gives two properties for free: `render` is a pure
//! function of the recorded state (serialize → parse → serialize is
//! byte-identical), and snapshot merge order cannot leak into the
//! serialized artifact (absorbing A then B equals B then A on the
//! wire).
//!
//! The format is versioned by the top-level `"schema"` field, the one
//! JSON number in the document; the parser rejects anything but the
//! number [`SCHEMA`] so a future format change fails loudly instead of
//! mis-reading old artifacts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use super::{Histogram, ObsSnapshot, Unit, NBUCKETS};
use crate::json::Json;

/// Wire format version; bump on any change to the rendered schema.
pub const SCHEMA: u64 = 1;

/// One span-tree node on the wire. Node 0 is the synthetic root
/// (named `""`); children are canonically ordered by name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireNode {
    /// Span name (the root's is `""`).
    pub name: String,
    /// Child node indices, sorted by child name.
    pub children: Vec<usize>,
    /// Completed entries into this span.
    pub count: u64,
    /// Total wall time spent inside, nanoseconds.
    pub total_nanos: u64,
    /// Wall time attributed to direct children, nanoseconds.
    pub child_nanos: u64,
}

impl WireNode {
    /// Wall time not attributed to any child span, nanoseconds.
    pub fn self_nanos(&self) -> u64 {
        self.total_nanos.saturating_sub(self.child_nanos)
    }
}

/// One histogram on the wire: sparse non-zero log₂ buckets plus the
/// exact count/sum/min/max the live [`Histogram`] tracked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireHistogram {
    /// What the recorded values measure.
    pub unit: Unit,
    /// Non-zero buckets, `bucket index → observation count`.
    pub buckets: BTreeMap<usize, u64>,
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of recorded observations.
    pub sum: u128,
    /// Smallest recorded observation (0 when empty).
    pub min: u64,
    /// Largest recorded observation (0 when empty).
    pub max: u64,
}

impl WireHistogram {
    /// Projects a live histogram onto the wire.
    pub fn from_histogram(h: &Histogram) -> Self {
        WireHistogram {
            unit: h.unit(),
            buckets: h
                .buckets()
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (i, c))
                .collect(),
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
        }
    }

    /// Rebuilds a live histogram (e.g. to reuse [`Histogram::quantile`]
    /// on a deserialized snapshot), re-validating the invariants.
    pub fn to_histogram(&self) -> Result<Histogram, String> {
        let mut buckets = [0u64; NBUCKETS];
        for (&i, &c) in &self.buckets {
            if i >= NBUCKETS {
                return Err(format!("bucket index {i} out of range"));
            }
            buckets[i] = c;
        }
        Histogram::from_parts(self.unit, buckets, self.count, self.sum, self.min, self.max)
    }
}

/// The canonical serializable form of an [`ObsSnapshot`]'s aggregate
/// state. `==` on two `WireSnapshot`s is the deterministic
/// deep-equality check: exact span counts and nanosecond totals,
/// counters, gauge *bit patterns*, and full histogram contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireSnapshot {
    /// Format version ([`SCHEMA`]).
    pub schema: u64,
    /// Free-form provenance (worker width, artifact kind, …); merged
    /// into the document under `"meta"` and compared like everything
    /// else.
    pub meta: BTreeMap<String, String>,
    /// Canonically ordered span tree; node 0 is the synthetic root.
    pub nodes: Vec<WireNode>,
    /// Spans that completed after the event log filled up.
    pub dropped_events: u64,
    /// Named monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Named gauges, stored as `f64::to_bits`.
    pub gauges: BTreeMap<String, u64>,
    /// Named histograms.
    pub histograms: BTreeMap<String, WireHistogram>,
}

/// Copies `src_node`'s subtree into `nodes` with children sorted by
/// name and DFS numbering, returning the new index.
fn copy_canonical(snap: &ObsSnapshot, src_node: usize, nodes: &mut Vec<WireNode>) -> usize {
    let src = &snap.nodes[src_node];
    let idx = nodes.len();
    nodes.push(WireNode {
        name: src.name.to_string(),
        children: Vec::with_capacity(src.children.len()),
        count: src.count,
        total_nanos: src.total_nanos,
        child_nanos: src.child_nanos,
    });
    let mut kids = src.children.clone();
    kids.sort_by_key(|&c| snap.nodes[c].name);
    for c in kids {
        let ci = copy_canonical(snap, c, nodes);
        nodes[idx].children.push(ci);
    }
    idx
}

impl WireSnapshot {
    /// Projects a snapshot onto the wire with empty `meta`; callers add
    /// provenance (e.g. `"workers"`) before rendering.
    pub fn from_snapshot(snap: &ObsSnapshot) -> Self {
        let mut nodes = Vec::with_capacity(snap.nodes.len());
        copy_canonical(snap, 0, &mut nodes);
        WireSnapshot {
            schema: SCHEMA,
            meta: BTreeMap::new(),
            nodes,
            dropped_events: snap.dropped_events,
            counters: snap
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            gauges: snap
                .gauges
                .iter()
                .map(|(&k, &v)| (k.to_string(), v.to_bits()))
                .collect(),
            histograms: snap
                .histograms
                .iter()
                .map(|(&k, h)| (k.to_string(), WireHistogram::from_histogram(h)))
                .collect(),
        }
    }

    /// The named gauge, decoded back to `f64`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).map(|&bits| f64::from_bits(bits))
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

    /// The deterministic shape string (see [`ObsSnapshot::shape`], which
    /// is this on the snapshot's projection): the span tree in canonical
    /// order with call counts, the named counters, and `Count`-unit
    /// histogram masses.
    pub fn shape(&self) -> String {
        let mut out = String::new();
        self.shape_node(0, 0, &mut out);
        for (name, by) in &self.counters {
            let _ = writeln!(out, "counter {name} = {by}");
        }
        for (name, hist) in &self.histograms {
            if hist.unit == Unit::Count {
                let _ = write!(out, "hist {name} n={} sum={}", hist.count, hist.sum);
                for (&i, &c) in &hist.buckets {
                    let _ = write!(out, " b{i}:{c}");
                }
                let _ = writeln!(out);
            }
        }
        out
    }

    fn shape_node(&self, node: usize, depth: usize, out: &mut String) {
        let n = &self.nodes[node];
        let label = if n.name.is_empty() { "<root>" } else { &n.name };
        let _ = writeln!(
            out,
            "{:indent$}{label} x{}",
            "",
            n.count,
            indent = depth * 2
        );
        for &c in &n.children {
            self.shape_node(c, depth + 1, out);
        }
    }

    /// Renders the canonical document through [`Json::render`].
    /// Serialize → [`WireSnapshot::parse`] → serialize is byte-identical.
    pub fn render(&self) -> String {
        let dec = |v: u64| Json::Str(v.to_string());
        let histograms = self.histograms.iter().map(|(name, h)| {
            let buckets: Vec<String> = h.buckets.iter().map(|(i, c)| format!("{i}:{c}")).collect();
            let doc = Json::obj([
                ("buckets", Json::Str(buckets.join(" "))),
                ("count", dec(h.count)),
                ("max", dec(h.max)),
                ("min", dec(h.min)),
                ("sum", Json::Str(h.sum.to_string())),
                ("unit", Json::Str(h.unit.name().to_string())),
            ]);
            (name.clone(), doc)
        });
        let nodes = self.nodes.iter().map(|n| {
            let children: Vec<String> = n.children.iter().map(|c| c.to_string()).collect();
            Json::obj([
                ("child_ns", dec(n.child_nanos)),
                ("children", Json::Str(children.join(" "))),
                ("count", dec(n.count)),
                ("name", Json::Str(n.name.clone())),
                ("total_ns", dec(n.total_nanos)),
            ])
        });
        Json::obj([
            ("counters", str_map(&self.counters, |v| v.to_string())),
            ("dropped_events", dec(self.dropped_events)),
            ("gauges", str_map(&self.gauges, |v| format!("{v:016x}"))),
            ("histograms", Json::Obj(histograms.collect())),
            ("meta", str_map(&self.meta, String::clone)),
            ("nodes", Json::Arr(nodes.collect())),
            ("schema", Json::Num(self.schema as f64)),
        ])
        .render()
    }

    /// Parses a canonical document through [`Json::parse`], validating
    /// the schema version (the number 1, nothing else) and every
    /// structural invariant (child indices in range, bucket mass equal to
    /// histogram count, known units).
    pub fn parse(text: &str) -> Result<WireSnapshot, String> {
        let doc = Json::parse(text)?;
        let top = as_obj(&doc, "document")?;
        let schema = match get(top, "schema")? {
            Json::Num(v) if *v == SCHEMA as f64 => SCHEMA,
            other => {
                return Err(format!(
                    "unsupported snapshot schema {} (want {SCHEMA})",
                    other.render().trim_end()
                ))
            }
        };
        let counters = parse_str_map(top, "counters", |v| parse_u64(v, "count"))?;
        let gauges = parse_str_map(top, "gauges", |v| match v.len() {
            16 => u64::from_str_radix(v, 16).map_err(|e| format!("bad hex {v:?}: {e}")),
            _ => Err(format!("want 16 hex digits, got {v:?}")),
        })?;
        let meta = parse_str_map(top, "meta", |v| Ok(v.to_string()))?;
        let dropped_events = u64_field(top, "dropped_events")?;
        let mut histograms = BTreeMap::new();
        for (name, hv) in as_obj(get(top, "histograms")?, "histograms")? {
            let h = as_obj(hv, name)?;
            let unit = match str_field(h, "unit")? {
                "count" => Unit::Count,
                "nanos" => Unit::Nanos,
                other => return Err(format!("histogram {name}: unknown unit {other:?}")),
            };
            let mut buckets = BTreeMap::new();
            for pair in str_field(h, "buckets")?
                .split(' ')
                .filter(|p| !p.is_empty())
            {
                let (i, c) = pair
                    .split_once(':')
                    .ok_or_else(|| format!("histogram {name}: bad bucket {pair:?}"))?;
                let i: usize = i
                    .parse()
                    .map_err(|e| format!("histogram {name}: bad bucket index {i:?}: {e}"))?;
                if i >= NBUCKETS {
                    return Err(format!("histogram {name}: bucket index {i} out of range"));
                }
                if buckets.insert(i, parse_u64(c, "bucket count")?).is_some() {
                    return Err(format!("histogram {name}: duplicate bucket {i}"));
                }
            }
            let wh = WireHistogram {
                unit,
                buckets,
                count: u64_field(h, "count")?,
                sum: str_field(h, "sum")?
                    .parse::<u128>()
                    .map_err(|e| format!("histogram {name}: bad sum: {e}"))?,
                min: u64_field(h, "min")?,
                max: u64_field(h, "max")?,
            };
            // from_parts re-checks mass == count and min ≤ max.
            wh.to_histogram()
                .map_err(|e| format!("histogram {name}: {e}"))?;
            histograms.insert(name.clone(), wh);
        }
        let mut nodes = Vec::new();
        let node_list = get(top, "nodes")?.as_arr().ok_or("nodes: expected array")?;
        for (i, nv) in node_list.iter().enumerate() {
            let n = as_obj(nv, "node")?;
            let mut children = Vec::new();
            for c in str_field(n, "children")?
                .split(' ')
                .filter(|c| !c.is_empty())
            {
                children.push(
                    c.parse::<usize>()
                        .map_err(|e| format!("node {i}: bad child index {c:?}: {e}"))?,
                );
            }
            nodes.push(WireNode {
                name: str_field(n, "name")?.to_string(),
                children,
                count: u64_field(n, "count")?,
                total_nanos: u64_field(n, "total_ns")?,
                child_nanos: u64_field(n, "child_ns")?,
            });
        }
        if nodes.is_empty() {
            return Err("snapshot has no nodes (missing root)".to_string());
        }
        if !nodes[0].name.is_empty() {
            return Err("node 0 must be the unnamed root".to_string());
        }
        for (i, n) in nodes.iter().enumerate() {
            for &c in &n.children {
                if c >= nodes.len() {
                    return Err(format!("node {i}: child index {c} out of range"));
                }
                // DFS numbering puts every child after its parent, which
                // also rules out cycles for the recursive tree walks.
                if c <= i {
                    return Err(format!(
                        "node {i}: child index {c} does not follow its parent"
                    ));
                }
            }
        }
        Ok(WireSnapshot {
            schema,
            meta,
            nodes,
            dropped_events,
            counters,
            gauges,
            histograms,
        })
    }
}

/// A `string → string` object of `map`'s entries, values rendered by `f`.
fn str_map<V>(map: &BTreeMap<String, V>, f: impl Fn(&V) -> String) -> Json {
    Json::Obj(
        map.iter()
            .map(|(k, v)| (k.clone(), Json::Str(f(v))))
            .collect(),
    )
}

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|e| format!("bad {what} {s:?}: {e}"))
}

fn as_obj<'a>(val: &'a Json, what: &str) -> Result<&'a BTreeMap<String, Json>, String> {
    val.as_obj()
        .ok_or_else(|| format!("{what}: expected object"))
}

fn get<'a>(obj: &'a BTreeMap<String, Json>, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

fn str_field<'a>(obj: &'a BTreeMap<String, Json>, key: &str) -> Result<&'a str, String> {
    get(obj, key)?
        .as_str()
        .ok_or_else(|| format!("{key}: expected string"))
}

/// A `u64` stored as a decimal string (JSON numbers are f64s).
fn u64_field(obj: &BTreeMap<String, Json>, key: &str) -> Result<u64, String> {
    parse_u64(str_field(obj, key)?, key)
}

/// The `string → string` object at `key`, values decoded by `decode`.
fn parse_str_map<V>(
    top: &BTreeMap<String, Json>,
    key: &str,
    decode: impl Fn(&str) -> Result<V, String>,
) -> Result<BTreeMap<String, V>, String> {
    let mut out = BTreeMap::new();
    for (k, v) in as_obj(get(top, key)?, key)? {
        let v = v
            .as_str()
            .ok_or_else(|| format!("{key} {k}: expected string"))?;
        out.insert(k.clone(), decode(v).map_err(|e| format!("{key} {k}: {e}"))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolverContext;

    fn sample_snapshot() -> ObsSnapshot {
        let ctx = SolverContext::default();
        {
            let _a = ctx.span("alpha");
            {
                let _b = ctx.span("beta");
            }
            {
                let _b = ctx.span("beta");
            }
        }
        {
            let _c = ctx.span("gamma");
        }
        ctx.obs().add_counter("widgets", 3);
        ctx.obs().set_gauge("fill", 0.75);
        ctx.obs().record("sizes", Unit::Count, 8);
        ctx.obs().record("sizes", Unit::Count, 0);
        ctx.obs().record("lat", Unit::Nanos, 1_000_000);
        ctx.obs_snapshot()
    }

    #[test]
    fn parser_rejects_wrong_schema_and_corruption() {
        let wire = WireSnapshot::from_snapshot(&sample_snapshot());
        let text = wire.render();
        let wrong = text.replace("\"schema\": 1", "\"schema\": 2");
        assert!(WireSnapshot::parse(&wrong)
            .unwrap_err()
            .contains("unsupported snapshot schema"));
        let truncated = &text[..text.len() / 2];
        assert!(WireSnapshot::parse(truncated).is_err());
        // Corrupt a histogram count so bucket mass no longer matches.
        let corrupt = text.replace("\"count\": \"2\"", "\"count\": \"3\"");
        assert!(WireSnapshot::parse(&corrupt).is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = WireSnapshot::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn schema_is_only_the_number_one() {
        let text = WireSnapshot::from_snapshot(&sample_snapshot()).render();
        assert!(WireSnapshot::parse(&text.replace("\"schema\": 1", "\"schema\": 1.0")).is_ok());
        for bad in ["\"1\"", "true", "1.5", "-1", "null", "[1]"] {
            let doc = text.replace("\"schema\": 1", &format!("\"schema\": {bad}"));
            let err = WireSnapshot::parse(&doc).unwrap_err();
            assert!(err.contains("unsupported snapshot schema"), "{bad}: {err}");
        }
    }

    #[test]
    fn a_child_must_follow_its_parent() {
        let text = WireSnapshot::from_snapshot(&sample_snapshot()).render();
        // Node 1 (alpha) lists node 2 (beta); point it back at itself.
        let cyclic = text.replacen("\"children\": \"2\"", "\"children\": \"1\"", 1);
        assert_ne!(cyclic, text);
        let err = WireSnapshot::parse(&cyclic).unwrap_err();
        assert!(err.contains("does not follow its parent"), "{err}");
    }

    /// Every prefix and a seeded sample of single-bit flips of a real
    /// snapshot parse to `Ok` or `Err`, never a panic; and whatever parses
    /// renders and walks without one.
    #[test]
    fn truncations_and_bit_flips_never_panic() {
        use crate::rng::{Rng, SeedableRng, StdRng};

        let mut wire = WireSnapshot::from_snapshot(&sample_snapshot());
        wire.meta.insert("workers".to_string(), "2".to_string());
        let text = wire.render();
        let check = |doc: &str| {
            if let Ok(w) = WireSnapshot::parse(doc) {
                let _ = (w.render(), w.shape(), w.total_span_nanos());
            }
        };
        for len in 0..text.len() {
            check(&text[..len]);
        }
        let bytes = text.as_bytes();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..4000 {
            let mut corrupt = bytes.to_vec();
            corrupt[rng.gen_range(0..bytes.len())] ^= 1u8 << rng.gen_range(0..8u32);
            check(&String::from_utf8_lossy(&corrupt));
        }
    }

    /// The canonical bytes of a snapshot built field by field: escaped
    /// span and meta names, empty and non-empty maps, a `Count` and a
    /// `Nanos` histogram (one with a `u128` sum), and meta.
    const PINNED_WIRE: &str = r#"{
  "counters": {},
  "dropped_events": "5",
  "gauges": {
    "fill": "3fe8000000000000"
  },
  "histograms": {
    "lat": {
      "buckets": "20:1",
      "count": "1",
      "max": "1000000",
      "min": "1000000",
      "sum": "18446744073709551616",
      "unit": "nanos"
    },
    "sizes": {
      "buckets": "0:1 4:2",
      "count": "3",
      "max": "8",
      "min": "0",
      "sum": "16",
      "unit": "count"
    }
  },
  "meta": {
    "kind\t": "trace",
    "workers": "2"
  },
  "nodes": [
    {
      "child_ns": "30",
      "children": "1 2",
      "count": "0",
      "name": "",
      "total_ns": "0"
    },
    {
      "child_ns": "0",
      "children": "",
      "count": "3",
      "name": "lp.\"solve\"\\\n\u0001é",
      "total_ns": "20"
    },
    {
      "child_ns": "0",
      "children": "",
      "count": "18446744073709551615",
      "name": "graph.dijkstra",
      "total_ns": "10"
    }
  ],
  "schema": 1
}
"#;

    #[test]
    fn render_bytes_are_pinned() {
        let node = |name: &str, children: Vec<usize>, count, total_nanos, child_nanos| WireNode {
            name: name.to_string(),
            children,
            count,
            total_nanos,
            child_nanos,
        };
        let hist = |unit, buckets: &[(usize, u64)], count, sum, min, max| WireHistogram {
            unit,
            buckets: buckets.iter().copied().collect(),
            count,
            sum,
            min,
            max,
        };
        let strs = |pairs: &[(&str, &str)]| -> BTreeMap<String, String> {
            pairs
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect()
        };
        let wire = WireSnapshot {
            schema: SCHEMA,
            meta: strs(&[("workers", "2"), ("kind\t", "trace")]),
            nodes: vec![
                node("", vec![1, 2], 0, 0, 30),
                node("lp.\"solve\"\\\n\u{1}é", vec![], 3, 20, 0),
                node("graph.dijkstra", vec![], u64::MAX, 10, 0),
            ],
            dropped_events: 5,
            counters: BTreeMap::new(),
            gauges: [("fill".to_string(), 0.75f64.to_bits())].into(),
            histograms: [
                (
                    "sizes".to_string(),
                    hist(Unit::Count, &[(0, 1), (4, 2)], 3, 16, 0, 8),
                ),
                (
                    "lat".to_string(),
                    hist(Unit::Nanos, &[(20, 1)], 1, 1 << 64, 1_000_000, 1_000_000),
                ),
            ]
            .into(),
        };
        let text = wire.render();
        assert_eq!(text, PINNED_WIRE);
        let back = WireSnapshot::parse(&text).unwrap();
        assert_eq!(back.gauge("fill"), Some(0.75));
        assert_eq!(back, wire);
    }

    #[test]
    fn canonical_order_hides_merge_order() {
        let build = |first: &'static str, second: &'static str| {
            let ctx = SolverContext::default();
            {
                let _s = ctx.span(first);
            }
            {
                let _s = ctx.span(second);
            }
            ctx.obs_snapshot()
        };
        let ab = build("a", "b");
        let ba = build("b", "a");
        // Different first-entry orders, same canonical node layout.
        let names = |w: &WireSnapshot| w.nodes.iter().map(|n| n.name.clone()).collect::<Vec<_>>();
        assert_eq!(
            names(&WireSnapshot::from_snapshot(&ab)),
            names(&WireSnapshot::from_snapshot(&ba))
        );
    }
}
