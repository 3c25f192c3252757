//! The workspace's one JSON codec: a minimal value type with a canonical
//! renderer and a recursive-descent parser. Every JSON document the
//! stack reads or writes goes through it — the obs wire format
//! ([`crate::obs::wire`]), the solver-state debug dump, Chrome traces,
//! diff reports and benchmark results (no external dependencies, by
//! policy).
//!
//! Numbers are `f64`. Values whose bit patterns matter exactly (solution
//! checksums, gauges, flow amounts) are therefore stored as hex
//! *strings*, and integers that may exceed 2⁵³ as decimal strings, never
//! as numbers.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Objects use a [`BTreeMap`] so rendering is canonical
/// (sorted keys), which keeps committed baselines diff-friendly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with canonically sorted keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The entries, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => render_number(out, *v),
            Json::Str(s) => render_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    render_string(out, k);
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (one value, surrounding whitespace allowed).
    ///
    /// The grammar is strict where it matters for untrusted input: raw
    /// control bytes inside strings are rejected, `\u` surrogate pairs
    /// decode to one scalar and a lone surrogate is an error, and nesting
    /// is capped at 128 levels so hostile input cannot overflow the stack
    /// of the recursive descent.
    ///
    /// # Errors
    ///
    /// A human-readable description with the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn render_number(out: &mut String, v: f64) {
    if !v.is_finite() {
        // JSON has no Infinity/NaN; values whose bits matter are stored
        // as hex strings, so render defensively instead of panicking.
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 9.0e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn render_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts; far above any
/// document this workspace writes, and low enough that hostile input
/// cannot overflow the stack of the recursive descent.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth >= MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = parse_hex4(bytes, pos)?;
                        if (0xDC00..0xE000).contains(&code) {
                            return Err(format!("lone low surrogate at byte {pos}"));
                        }
                        if (0xD800..0xDC00).contains(&code) {
                            // A high surrogate must be followed by `\u` and
                            // a low one; the pair is one scalar.
                            let low = match bytes.get(*pos + 1..*pos + 3) {
                                Some(b"\\u") => {
                                    *pos += 2;
                                    parse_hex4(bytes, pos)?
                                }
                                _ => 0,
                            };
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(format!("lone high surrogate at byte {pos}"));
                            }
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        }
                        out.push(char::from_u32(code).expect("surrogates handled above"));
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(format!("raw control byte in string at byte {pos}"));
            }
            Some(&b) => {
                // Consume one UTF-8 scalar (bytes of a multi-byte char pass
                // through unchanged). The input is a `str`, so decoding just
                // the scalar's own bytes cannot fail on a later char.
                let width = match b {
                    0..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let scalar = bytes.get(*pos..*pos + width).ok_or("invalid UTF-8")?;
                let scalar = std::str::from_utf8(scalar).map_err(|_| "invalid UTF-8")?;
                out.push_str(scalar);
                *pos += width;
            }
        }
    }
}

/// The four hex digits after the `u` of a `\u` escape at `*pos`, leaving
/// `*pos` on the last digit.
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let hex = bytes
        .get(*pos + 1..*pos + 5)
        .ok_or("truncated \\u escape")?;
    if !hex.iter().all(u8::is_ascii_hexdigit) {
        return Err(format!("bad \\u escape at byte {pos}"));
    }
    *pos += 4;
    let hex = std::str::from_utf8(hex).expect("ASCII hex digits");
    Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
}

/// Parses a number by RFC 8259's grammar,
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`. A number beyond the
/// `f64` range is an error: it would parse to `±inf`, which
/// [`Json::render`] writes as `null`.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    let invalid = || format!("invalid number at byte {start}");
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            digits(pos);
        }
        _ => return Err(invalid()),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(pos) {
            return Err(invalid());
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(pos) {
            return Err(invalid());
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII grammar");
    let v: f64 = text.parse().map_err(|_| invalid())?;
    if v.is_infinite() {
        return Err(format!("number {text} at byte {start} overflows f64"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::obj([
            ("name", Json::Str("bench".into())),
            ("count", Json::Num(42.0)),
            ("ratio", Json::Num(1.5)),
            ("flag", Json::Bool(true)),
            ("missing", Json::Null),
            (
                "phases",
                Json::Arr(vec![
                    Json::obj([("wall_ms", Json::Num(12.25))]),
                    Json::obj([("wall_ms", Json::Num(3.0))]),
                ]),
            ),
        ]);
        let text = doc.render();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn integers_render_without_decimal_point() {
        let mut out = String::new();
        render_number(&mut out, 42.0);
        assert_eq!(out, "42");
        out.clear();
        render_number(&mut out, 0.5);
        assert_eq!(out, "0.5");
    }

    #[test]
    fn parses_escapes_and_whitespace() {
        let parsed = Json::parse(" { \"a\\n\" : [ 1 , -2.5e1 , \"x\\u0041\" ] } ").unwrap();
        let arr = parsed.get("a\n").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-25.0));
        assert_eq!(arr[2].as_str(), Some("xA"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for (text, want) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("7", 7.0),
            ("-12", -12.0),
            ("10.25", 10.25),
            ("-0.5", -0.5),
            ("1e3", 1000.0),
            ("1E+3", 1000.0),
            ("25e-1", 2.5),
            ("0.0e0", 0.0),
            ("1.7976931348623157e308", f64::MAX),
            ("1e-400", 0.0),
            ("-1e-400", -0.0),
        ] {
            let got = Json::parse(text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            assert_eq!(
                got.as_f64().map(f64::to_bits),
                Some(want.to_bits()),
                "{text:?}"
            );
        }
        for text in [
            "+1",
            "1.",
            ".5",
            "01",
            "-01",
            "00",
            "-",
            "--1",
            "1e",
            "1e+",
            "1E-",
            "1.e5",
            "1.5.",
            "0x10",
            "1e999",
            "-1e999",
            "2e308",
            "Infinity",
            "-Infinity",
            "NaN",
            "[01]",
            "[1.]",
            "{\"a\": +1}",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} was accepted");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = Json::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
        let err = Json::parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn raw_control_bytes_in_strings_are_rejected() {
        let err = Json::parse("\"a\u{1}b\"").unwrap_err();
        assert!(err.contains("raw control byte"), "{err}");
        assert!(Json::parse("[\"tab\there\"]").is_err());
        // The escaped forms are fine, and render back escaped.
        let parsed = Json::parse("\"a\\u0001b\\t\"").unwrap();
        assert_eq!(parsed.as_str(), Some("a\u{1}b\t"));
        assert_eq!(parsed.render(), "\"a\\u0001b\\t\"\n");
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_rejected() {
        let parsed = Json::parse("\"\\ud83d\\ude00!\"").unwrap();
        assert_eq!(parsed.as_str(), Some("\u{1F600}!"));
        for lone in [
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ude00\"",
            "\"\\ud83d\\ud83d\"",
        ] {
            let err = Json::parse(lone).unwrap_err();
            assert!(err.contains("surrogate"), "{lone}: {err}");
        }
        assert!(Json::parse("\"\\ud83d\\ude0\"").is_err());
        assert!(Json::parse("\"\\u12g4\"").is_err());
    }

    /// Every prefix and a seeded sample of single-bit flips of a rendered
    /// document parse to `Ok` or `Err`, never a panic; whatever parses
    /// renders again.
    #[test]
    fn truncations_and_bit_flips_never_panic() {
        use crate::rng::{Rng, SeedableRng, StdRng};

        let doc = Json::obj([
            ("name", Json::Str("lp.\"solve\"\\\n\u{1}é\u{1F600}".into())),
            ("bits", Json::Str(format!("{:016x}", 0.1f64.to_bits()))),
            ("count", Json::Num(42.0)),
            ("ratio", Json::Num(-1.5e-7)),
            (
                "flags",
                Json::Arr(vec![Json::Bool(true), Json::Bool(false)]),
            ),
            ("missing", Json::Null),
            ("empty", Json::obj([])),
            (
                "nested",
                Json::obj([("rows", Json::Arr(vec![Json::obj([])]))]),
            ),
        ]);
        let text = doc.render();
        let check = |t: &str| {
            if let Ok(v) = Json::parse(t) {
                let _ = v.render();
            }
        };
        for len in 0..text.len() {
            if let Some(prefix) = text.get(..len) {
                check(prefix);
            }
        }
        let bytes = text.as_bytes();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..4000 {
            let mut corrupt = bytes.to_vec();
            corrupt[rng.gen_range(0..bytes.len())] ^= 1u8 << rng.gen_range(0..8u32);
            check(&String::from_utf8_lossy(&corrupt));
        }
    }

    #[test]
    fn object_keys_render_sorted() {
        let doc = Json::obj([("b", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        let text = doc.render();
        assert!(text.find("\"a\"").unwrap() < text.find("\"b\"").unwrap());
    }
}
