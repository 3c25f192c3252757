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
//! The rendering follows the bench crate's hand-rolled canonical-JSON
//! conventions (`jcr_bench::json`): `BTreeMap`-sorted object keys,
//! two-space indentation, a trailing newline, no external crates. On
//! top of those, three rules make the format *exact* rather than
//! approximate:
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
//! The format is versioned by the top-level `"schema"` field; the
//! parser rejects any version other than [`SCHEMA`] so a future format
//! change fails loudly instead of mis-reading old artifacts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use super::{Histogram, ObsSnapshot, Unit, NBUCKETS};

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

    /// The deterministic shape string — byte-identical to
    /// [`ObsSnapshot::shape`] on the snapshot this was projected from.
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

    /// Renders the canonical document. Serialize → [`WireSnapshot::parse`]
    /// → serialize is byte-identical.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        // Top-level keys in sorted order, matching a BTreeMap render:
        // counters < dropped_events < gauges < histograms < meta <
        // nodes < schema.
        render_str_map(
            &mut out,
            "counters",
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), v.to_string())),
        );
        out.push_str(",\n");
        let _ = writeln!(out, "  \"dropped_events\": \"{}\",", self.dropped_events);
        render_str_map(
            &mut out,
            "gauges",
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), format!("{v:016x}"))),
        );
        out.push_str(",\n");
        if self.histograms.is_empty() {
            out.push_str("  \"histograms\": {},\n");
        } else {
            out.push_str("  \"histograms\": {\n");
            let last = self.histograms.len() - 1;
            for (i, (name, h)) in self.histograms.iter().enumerate() {
                out.push_str("    ");
                render_string(&mut out, name);
                out.push_str(": {\n");
                let mut buckets = String::new();
                for (j, (&bi, &c)) in h.buckets.iter().enumerate() {
                    if j > 0 {
                        buckets.push(' ');
                    }
                    let _ = write!(buckets, "{bi}:{c}");
                }
                let _ = writeln!(out, "      \"buckets\": \"{buckets}\",");
                let _ = writeln!(out, "      \"count\": \"{}\",", h.count);
                let _ = writeln!(out, "      \"max\": \"{}\",", h.max);
                let _ = writeln!(out, "      \"min\": \"{}\",", h.min);
                let _ = writeln!(out, "      \"sum\": \"{}\",", h.sum);
                let _ = writeln!(out, "      \"unit\": \"{}\"", h.unit.name());
                out.push_str(if i == last { "    }\n" } else { "    },\n" });
            }
            out.push_str("  },\n");
        }
        render_str_map(
            &mut out,
            "meta",
            self.meta.iter().map(|(k, v)| (k.clone(), v.clone())),
        );
        out.push_str(",\n");
        out.push_str("  \"nodes\": [\n");
        let last = self.nodes.len() - 1;
        for (i, n) in self.nodes.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"child_ns\": \"{}\",", n.child_nanos);
            let mut children = String::new();
            for (j, c) in n.children.iter().enumerate() {
                if j > 0 {
                    children.push(' ');
                }
                let _ = write!(children, "{c}");
            }
            let _ = writeln!(out, "      \"children\": \"{children}\",");
            let _ = writeln!(out, "      \"count\": \"{}\",", n.count);
            out.push_str("      \"name\": ");
            render_string(&mut out, &n.name);
            out.push_str(",\n");
            let _ = writeln!(out, "      \"total_ns\": \"{}\"", n.total_nanos);
            out.push_str(if i == last { "    }\n" } else { "    },\n" });
        }
        out.push_str("  ],\n");
        let _ = writeln!(out, "  \"schema\": {}", self.schema);
        out.push_str("}\n");
        out
    }

    /// Parses a canonical document, validating the schema version and
    /// every structural invariant (child indices in range, bucket mass
    /// equal to histogram count, known units).
    pub fn parse(text: &str) -> Result<WireSnapshot, String> {
        let val = parse_document(text)?;
        let top = val.as_obj("document")?;
        let schema = get(top, "schema")?.as_uint("schema")?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported snapshot schema {schema} (want {SCHEMA})"
            ));
        }
        let counters = parse_str_map(get(top, "counters")?, "counters")?
            .into_iter()
            .map(|(k, v)| Ok((k, parse_u64(&v, "counter")?)))
            .collect::<Result<BTreeMap<_, _>, String>>()?;
        let gauges = parse_str_map(get(top, "gauges")?, "gauges")?
            .into_iter()
            .map(|(k, v)| {
                if v.len() != 16 {
                    return Err(format!("gauge {k}: want 16 hex digits, got {v:?}"));
                }
                let bits = u64::from_str_radix(&v, 16)
                    .map_err(|e| format!("gauge {k}: bad hex {v:?}: {e}"))?;
                Ok((k, bits))
            })
            .collect::<Result<BTreeMap<_, _>, String>>()?;
        let meta = parse_str_map(get(top, "meta")?, "meta")?;
        let dropped_events = parse_u64(
            get(top, "dropped_events")?.as_str("dropped_events")?,
            "dropped_events",
        )?;
        let mut histograms = BTreeMap::new();
        for (name, hv) in get(top, "histograms")?.as_obj("histograms")? {
            let h = hv.as_obj(name)?;
            let unit = match get(h, "unit")?.as_str("unit")? {
                "count" => Unit::Count,
                "nanos" => Unit::Nanos,
                other => return Err(format!("histogram {name}: unknown unit {other:?}")),
            };
            let mut buckets = BTreeMap::new();
            let spec = get(h, "buckets")?.as_str("buckets")?;
            for pair in spec.split(' ').filter(|p| !p.is_empty()) {
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
                count: parse_u64(get(h, "count")?.as_str("count")?, "count")?,
                sum: get(h, "sum")?
                    .as_str("sum")?
                    .parse::<u128>()
                    .map_err(|e| format!("histogram {name}: bad sum: {e}"))?,
                min: parse_u64(get(h, "min")?.as_str("min")?, "min")?,
                max: parse_u64(get(h, "max")?.as_str("max")?, "max")?,
            };
            // from_parts re-checks mass == count and min ≤ max.
            wh.to_histogram()
                .map_err(|e| format!("histogram {name}: {e}"))?;
            histograms.insert(name.clone(), wh);
        }
        let mut nodes = Vec::new();
        for (i, nv) in get(top, "nodes")?.as_arr("nodes")?.iter().enumerate() {
            let n = nv.as_obj("node")?;
            let mut children = Vec::new();
            for c in get(n, "children")?
                .as_str("children")?
                .split(' ')
                .filter(|c| !c.is_empty())
            {
                children.push(
                    c.parse::<usize>()
                        .map_err(|e| format!("node {i}: bad child index {c:?}: {e}"))?,
                );
            }
            nodes.push(WireNode {
                name: get(n, "name")?.as_str("name")?.to_string(),
                children,
                count: parse_u64(get(n, "count")?.as_str("count")?, "count")?,
                total_nanos: parse_u64(get(n, "total_ns")?.as_str("total_ns")?, "total_ns")?,
                child_nanos: parse_u64(get(n, "child_ns")?.as_str("child_ns")?, "child_ns")?,
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

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|e| format!("bad {what} {s:?}: {e}"))
}

/// Renders a flat `string → string` object at one level of indent.
fn render_str_map(out: &mut String, key: &str, entries: impl Iterator<Item = (String, String)>) {
    let entries: Vec<(String, String)> = entries.collect();
    let _ = write!(out, "  \"{key}\": ");
    if entries.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push_str("{\n");
    let last = entries.len() - 1;
    for (i, (k, v)) in entries.iter().enumerate() {
        out.push_str("    ");
        render_string(out, k);
        out.push_str(": ");
        render_string(out, v);
        out.push_str(if i == last { "\n" } else { ",\n" });
    }
    out.push_str("  }");
}

fn render_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Minimal JSON value for the wire grammar: objects, arrays, strings,
/// and unsigned integers (the only number the format emits is the
/// schema version).
#[derive(Debug)]
enum Val {
    Str(String),
    UInt(u64),
    Arr(Vec<Val>),
    Obj(BTreeMap<String, Val>),
}

impl Val {
    fn as_obj(&self, what: &str) -> Result<&BTreeMap<String, Val>, String> {
        match self {
            Val::Obj(m) => Ok(m),
            _ => Err(format!("{what}: expected object")),
        }
    }

    fn as_arr(&self, what: &str) -> Result<&Vec<Val>, String> {
        match self {
            Val::Arr(a) => Ok(a),
            _ => Err(format!("{what}: expected array")),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Val::Str(s) => Ok(s),
            _ => Err(format!("{what}: expected string")),
        }
    }

    fn as_uint(&self, what: &str) -> Result<u64, String> {
        match self {
            Val::UInt(n) => Ok(*n),
            _ => Err(format!("{what}: expected unsigned integer")),
        }
    }
}

fn get<'a>(obj: &'a BTreeMap<String, Val>, key: &str) -> Result<&'a Val, String> {
    obj.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

fn parse_str_map(val: &Val, what: &str) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    for (k, v) in val.as_obj(what)? {
        out.insert(k.clone(), v.as_str(what)?.to_string());
    }
    Ok(out)
}

fn parse_document(text: &str) -> Result<Val, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let val = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(val)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Deepest array/object nesting the parser accepts; the canonical
/// document nests three deep, and the cap keeps hostile input from
/// overflowing the stack of the recursive descent.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Val, String> {
    skip_ws(bytes, pos);
    if depth >= MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Val::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(bytes, pos, depth + 1)?;
                map.insert(key, val);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Val::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Val::Arr(arr));
            }
            loop {
                arr.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Val::Arr(arr));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Val::Str(parse_string(bytes, pos)?)),
        Some(c) if c.is_ascii_digit() => {
            let start = *pos;
            while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
                *pos += 1;
            }
            let s = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ascii");
            s.parse::<u64>()
                .map(Val::UInt)
                .map_err(|e| format!("bad number {s:?}: {e}"))
        }
        _ => Err(format!("unexpected byte at {pos}")),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes
                    .get(*pos)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        if *pos + 4 > bytes.len() {
                            return Err("truncated \\u escape".to_string());
                        }
                        let hex = std::str::from_utf8(&bytes[*pos..*pos + 4])
                            .map_err(|_| "bad \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("bad codepoint \\u{hex}"))?,
                        );
                        *pos += 4;
                    }
                    other => return Err(format!("unknown escape \\{}", *other as char)),
                }
            }
            Some(&b) if b < 0x20 => {
                return Err(format!("raw control byte in string at {pos}"));
            }
            Some(_) => {
                // Advance over one UTF-8 scalar.
                let s = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| format!("invalid UTF-8 at byte {pos}"))?;
                let ch = s.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
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
    fn round_trip_is_byte_identical() {
        let mut wire = WireSnapshot::from_snapshot(&sample_snapshot());
        wire.meta.insert("workers".to_string(), "2".to_string());
        let text = wire.render();
        let parsed = WireSnapshot::parse(&text).expect("parse canonical render");
        assert_eq!(parsed, wire);
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn shape_matches_obs_snapshot_shape() {
        let snap = sample_snapshot();
        assert_eq!(WireSnapshot::from_snapshot(&snap).shape(), snap.shape());
    }

    #[test]
    fn gauges_survive_as_exact_bits() {
        let snap = sample_snapshot();
        let wire = WireSnapshot::from_snapshot(&snap);
        let text = wire.render();
        let parsed = WireSnapshot::parse(&text).unwrap();
        assert_eq!(parsed.gauge("fill"), Some(0.75));
        assert_eq!(parsed.gauges["fill"], 0.75f64.to_bits());
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
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_document(&nest(MAX_DEPTH)).is_ok());
        assert!(parse_document(&nest(MAX_DEPTH + 1)).is_err());
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
