//! Versioned, checksummed solver-state snapshots for crash recovery.
//!
//! A [`SolverState`] captures everything the online loop carries between
//! hours: the committed placement, the served routing, the simplex
//! [`Basis`](jcr_lp::Basis) of the last placement LP, and the active
//! column-generation pool. No distance oracle passes between hours (each
//! hour's instance builds its own), so there is none to snapshot.
//!
//! # Wire format
//!
//! The binary codec is self-describing and versioned:
//!
//! ```text
//! magic   8 bytes  b"JCRSNAP1"
//! version u32 LE   currently 1
//! len     u64 LE   payload length in bytes
//! check   u64 LE   FNV-1a 64 over the payload
//! payload          a sequence of sections
//! ```
//!
//! Each section is `tag: u32 LE`, `len: u64 LE`, then `len` body bytes.
//! Unknown tags are skipped (forward compatibility); the EPOCH section is
//! mandatory. All integers are little-endian; floats travel as
//! `f64::to_bits` so round-trips are exact.
//!
//! Decoding ([`SolverState::from_bytes`]) is *structural* only — magic,
//! version, checksum, and section framing. Semantic validation (do the
//! placement words fit the dimensions? are edge ids in range? does the
//! basis re-factorize?) happens in the restore gate
//! ([`OnlineSimulator::restore`](crate::online::OnlineSimulator::restore)),
//! which degrades each component independently instead of failing the
//! whole snapshot.
//!
//! For debugging there is also a lossless JSON dump
//! ([`SolverState::to_debug_json`]) — human-readable, rendered through
//! the workspace's JSON codec, never parsed back by the solver.

use std::fmt;
use std::path::Path as FsPath;

use jcr_ctx::json::Json;

/// Leading magic of every snapshot file.
pub const MAGIC: [u8; 8] = *b"JCRSNAP1";
/// Current wire-format version.
pub const VERSION: u32 = 1;

const TAG_EPOCH: u32 = 1;
const TAG_PLACEMENT: u32 = 2;
const TAG_ROUTING: u32 = 3;
const TAG_BASIS: u32 = 4;
const TAG_COLUMNS: u32 = 5;

/// Why a snapshot failed to load or decode.
#[derive(Debug)]
pub enum StateError {
    /// Filesystem failure (message carries the underlying error).
    Io(String),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The header version is not [`VERSION`].
    BadVersion(u32),
    /// The payload is shorter than the header (or a section) claims.
    Truncated,
    /// The FNV-1a checksum over the payload does not match the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum recomputed over the payload.
        found: u64,
    },
    /// Framing is intact but a section's contents are inconsistent.
    Malformed(&'static str),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Io(msg) => write!(f, "snapshot io error: {msg}"),
            StateError::BadMagic => write!(f, "snapshot magic mismatch (not a JCR snapshot)"),
            StateError::BadVersion(v) => {
                write!(f, "snapshot version {v} unsupported (expected {VERSION})")
            }
            StateError::Truncated => write!(f, "snapshot truncated"),
            StateError::ChecksumMismatch { expected, found } => write!(
                f,
                "snapshot checksum mismatch (header {expected:#018x}, payload {found:#018x})"
            ),
            StateError::Malformed(what) => write!(f, "snapshot malformed: {what}"),
        }
    }
}

impl std::error::Error for StateError {}

/// One routed flow of a request, in wire form: the flow amount as
/// `f64::to_bits` and the path as edge indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowRecord {
    /// `f64::to_bits` of the flow amount.
    pub amount_bits: u64,
    /// Edge indices along the path, in traversal order.
    pub edges: Vec<u32>,
}

/// A carried column-generation column, in wire form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnRecord {
    /// Commodity (request) index the column priced for.
    pub commodity: u32,
    /// Auxiliary-graph node sequence of the column's path.
    pub nodes: Vec<u32>,
}

/// Everything the online loop carries between hours, in a raw wire-level
/// representation (see the module docs for what is deliberately absent).
///
/// Fields are raw on purpose: decoding never consults an
/// [`Instance`](crate::instance::Instance), so a snapshot loads
/// anywhere, and the
/// semantic restore gate can degrade components one at a time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SolverState {
    /// Hours committed before this snapshot was taken.
    pub hour: u64,
    /// Node count of the instance the state was committed against.
    pub n_nodes: u32,
    /// Item (catalog) count.
    pub n_items: u32,
    /// Edge count.
    pub n_edges: u32,
    /// Request count.
    pub n_requests: u32,
    /// Placement bitset words (row-major, one row of
    /// `ceil(n_items / 64)` words per node), when an hour has committed.
    pub placement: Option<Vec<u64>>,
    /// Served routing: per request, its path flows.
    pub routing: Option<Vec<Vec<FlowRecord>>>,
    /// Serialized simplex basis ([`jcr_lp::Basis::to_bytes`]), when the
    /// serving rung produced one.
    pub basis: Option<Vec<u8>>,
    /// Active column pool carried into the next hour.
    pub columns: Vec<ColumnRecord>,
}

impl SolverState {
    /// Serializes to the versioned, checksummed wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        section(&mut payload, TAG_EPOCH, |b| {
            put_u64(b, self.hour);
            put_u32(b, self.n_nodes);
            put_u32(b, self.n_items);
            put_u32(b, self.n_edges);
            put_u32(b, self.n_requests);
        });
        if let Some(words) = &self.placement {
            section(&mut payload, TAG_PLACEMENT, |b| {
                put_u64(b, words.len() as u64);
                for &w in words {
                    put_u64(b, w);
                }
            });
        }
        if let Some(routing) = &self.routing {
            section(&mut payload, TAG_ROUTING, |b| {
                put_u64(b, routing.len() as u64);
                for flows in routing {
                    put_u64(b, flows.len() as u64);
                    for flow in flows {
                        put_u64(b, flow.amount_bits);
                        put_u64(b, flow.edges.len() as u64);
                        for &e in &flow.edges {
                            put_u32(b, e);
                        }
                    }
                }
            });
        }
        if let Some(basis) = &self.basis {
            section(&mut payload, TAG_BASIS, |b| b.extend_from_slice(basis));
        }
        if !self.columns.is_empty() {
            section(&mut payload, TAG_COLUMNS, |b| {
                put_u64(b, self.columns.len() as u64);
                for col in &self.columns {
                    put_u32(b, col.commodity);
                    put_u64(b, col.nodes.len() as u64);
                    for &v in &col.nodes {
                        put_u32(b, v);
                    }
                }
            });
        }

        let mut out = Vec::with_capacity(28 + payload.len());
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, VERSION);
        put_u64(&mut out, payload.len() as u64);
        put_u64(&mut out, fnv1a(&payload));
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes the wire format, verifying magic, version, length, and
    /// checksum, and the framing of every section.
    ///
    /// # Errors
    ///
    /// Any [`StateError`] variant except `Io`; see the module docs for
    /// what each means.
    pub fn from_bytes(bytes: &[u8]) -> Result<SolverState, StateError> {
        if bytes.len() < 28 {
            return Err(if bytes.len() >= 8 && bytes[..8] != MAGIC {
                StateError::BadMagic
            } else {
                StateError::Truncated
            });
        }
        if bytes[..8] != MAGIC {
            return Err(StateError::BadMagic);
        }
        let mut r = Reader { buf: bytes, pos: 8 };
        let version = r.u32()?;
        if version != VERSION {
            return Err(StateError::BadVersion(version));
        }
        let payload_len = r.u64()? as usize;
        let expected = r.u64()?;
        let payload = r.bytes(payload_len)?;
        if r.pos != bytes.len() {
            return Err(StateError::Malformed("trailing bytes after payload"));
        }
        let found = fnv1a(payload);
        if found != expected {
            return Err(StateError::ChecksumMismatch { expected, found });
        }

        let mut state = SolverState::default();
        let mut saw_epoch = false;
        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        while r.pos < payload.len() {
            let tag = r.u32()?;
            let len = r.u64()? as usize;
            let body = r.bytes(len)?;
            let mut s = Reader { buf: body, pos: 0 };
            match tag {
                TAG_EPOCH => {
                    state.hour = s.u64()?;
                    state.n_nodes = s.u32()?;
                    state.n_items = s.u32()?;
                    state.n_edges = s.u32()?;
                    state.n_requests = s.u32()?;
                    saw_epoch = true;
                }
                TAG_PLACEMENT => {
                    let count = s.u64()? as usize;
                    let mut words = Vec::new();
                    reserve(&mut words, count, body.len(), 8)?;
                    for _ in 0..count {
                        words.push(s.u64()?);
                    }
                    state.placement = Some(words);
                }
                TAG_ROUTING => {
                    let n_requests = s.u64()? as usize;
                    let mut routing = Vec::new();
                    reserve(&mut routing, n_requests, body.len(), 8)?;
                    for _ in 0..n_requests {
                        let n_flows = s.u64()? as usize;
                        let mut flows = Vec::new();
                        reserve(&mut flows, n_flows, body.len(), 16)?;
                        for _ in 0..n_flows {
                            let amount_bits = s.u64()?;
                            let n_edges = s.u64()? as usize;
                            let mut edges = Vec::new();
                            reserve(&mut edges, n_edges, body.len(), 4)?;
                            for _ in 0..n_edges {
                                edges.push(s.u32()?);
                            }
                            flows.push(FlowRecord { amount_bits, edges });
                        }
                        routing.push(flows);
                    }
                    state.routing = Some(routing);
                }
                TAG_BASIS => {
                    state.basis = Some(body.to_vec());
                }
                TAG_COLUMNS => {
                    let count = s.u64()? as usize;
                    let mut columns = Vec::new();
                    reserve(&mut columns, count, body.len(), 12)?;
                    for _ in 0..count {
                        let commodity = s.u32()?;
                        let n_nodes = s.u64()? as usize;
                        let mut nodes = Vec::new();
                        reserve(&mut nodes, n_nodes, body.len(), 4)?;
                        for _ in 0..n_nodes {
                            nodes.push(s.u32()?);
                        }
                        columns.push(ColumnRecord { commodity, nodes });
                    }
                    state.columns = columns;
                }
                // Unknown section: self-describing framing lets us skip it.
                _ => {}
            }
            if matches!(tag, TAG_EPOCH | TAG_ROUTING | TAG_PLACEMENT | TAG_COLUMNS)
                && s.pos != body.len()
            {
                return Err(StateError::Malformed("section body has trailing bytes"));
            }
        }
        if !saw_epoch {
            return Err(StateError::Malformed("missing EPOCH section"));
        }
        Ok(state)
    }

    /// Writes the binary snapshot to `path` (atomic enough for the chaos
    /// harness: a short single `write`; torn writes surface as
    /// [`StateError::Truncated`] / `ChecksumMismatch` on load, never as
    /// silently wrong state).
    ///
    /// # Errors
    ///
    /// [`StateError::Io`] with the underlying message.
    pub fn save(&self, path: &FsPath) -> Result<(), StateError> {
        std::fs::write(path, self.to_bytes()).map_err(|e| StateError::Io(e.to_string()))
    }

    /// Reads and decodes a binary snapshot from `path`.
    ///
    /// # Errors
    ///
    /// [`StateError::Io`] on read failure, otherwise whatever
    /// [`SolverState::from_bytes`] reports.
    pub fn load(path: &FsPath) -> Result<SolverState, StateError> {
        let bytes = std::fs::read(path).map_err(|e| StateError::Io(e.to_string()))?;
        SolverState::from_bytes(&bytes)
    }

    /// A lossless, human-readable JSON rendering for debugging and chaos
    /// artifacts, through [`jcr_ctx::json`]. Placement words and flow
    /// amounts are 16-hex-digit bit strings, so a NaN or infinite amount
    /// survives exactly; ids and counts are plain numbers (exact, since
    /// all but `hour` are `u32`s or lengths, and `hour` is exact below
    /// 2⁵³). Never parsed back by the solver — the binary format is the
    /// contract.
    pub fn to_debug_json(&self) -> String {
        let bits = |w: u64| Json::Str(format!("{w:016x}"));
        let num = |v: u32| Json::Num(f64::from(v));
        let ids = |ids: &[u32]| Json::Arr(ids.iter().map(|&i| num(i)).collect());
        let placement = self.placement.as_ref().map_or(Json::Null, |words| {
            Json::Arr(words.iter().map(|&w| bits(w)).collect())
        });
        let routing = self.routing.as_ref().map_or(Json::Null, |routing| {
            let flow = |f: &FlowRecord| {
                Json::obj([("amount", bits(f.amount_bits)), ("edges", ids(&f.edges))])
            };
            Json::Arr(
                routing
                    .iter()
                    .map(|flows| Json::Arr(flows.iter().map(flow).collect()))
                    .collect(),
            )
        });
        let columns = self
            .columns
            .iter()
            .map(|c| Json::obj([("commodity", num(c.commodity)), ("nodes", ids(&c.nodes))]));
        let dims = Json::obj([
            ("nodes", num(self.n_nodes)),
            ("items", num(self.n_items)),
            ("edges", num(self.n_edges)),
            ("requests", num(self.n_requests)),
        ]);
        Json::obj([
            ("hour", Json::Num(self.hour as f64)),
            ("dims", dims),
            ("placement", placement),
            ("routing", routing),
            (
                "basis_bytes",
                Json::Num(self.basis.as_ref().map_or(0, Vec::len) as f64),
            ),
            ("columns", Json::Arr(columns.collect())),
        ])
        .render()
    }
}

/// FNV-1a 64-bit over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends one `tag, len, body` section, with `fill` writing the body.
fn section(out: &mut Vec<u8>, tag: u32, fill: impl FnOnce(&mut Vec<u8>)) {
    put_u32(out, tag);
    let len_at = out.len();
    put_u64(out, 0);
    let body_at = out.len();
    fill(out);
    let len = (out.len() - body_at) as u64;
    out[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
}

/// Guards `Vec::with_capacity`-style reservations against hostile counts:
/// a section body of `body_len` bytes cannot hold more than
/// `body_len / min_elem_size` elements, so a larger claimed count is
/// malformed rather than an allocation bomb.
fn reserve<T>(
    vec: &mut Vec<T>,
    count: usize,
    body_len: usize,
    min_elem_size: usize,
) -> Result<(), StateError> {
    if count > body_len / min_elem_size {
        return Err(StateError::Malformed("section count exceeds body size"));
    }
    vec.reserve(count);
    Ok(())
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, len: usize) -> Result<&'a [u8], StateError> {
        let end = self.pos.checked_add(len).ok_or(StateError::Truncated)?;
        if end > self.buf.len() {
            return Err(StateError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, StateError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, StateError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SolverState {
        SolverState {
            hour: 7,
            n_nodes: 11,
            n_items: 6,
            n_edges: 48,
            n_requests: 5,
            placement: Some(vec![0b101, 0b011, 0, 1, 2, 3, 4, 5, 6, 7, 8]),
            routing: Some(vec![
                vec![FlowRecord {
                    amount_bits: 3.25f64.to_bits(),
                    edges: vec![0, 5, 7],
                }],
                vec![
                    FlowRecord {
                        amount_bits: 1.5f64.to_bits(),
                        edges: vec![2],
                    },
                    FlowRecord {
                        amount_bits: 0.25f64.to_bits(),
                        edges: vec![3, 4],
                    },
                ],
                vec![],
                vec![],
                vec![],
            ]),
            basis: Some(vec![1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2]),
            columns: vec![
                ColumnRecord {
                    commodity: 0,
                    nodes: vec![12, 3, 7],
                },
                ColumnRecord {
                    commodity: 4,
                    nodes: vec![16, 0],
                },
            ],
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let state = sample();
        let bytes = state.to_bytes();
        let back = SolverState::from_bytes(&bytes).unwrap();
        assert_eq!(state, back);
        // And a minimal state (epoch only) round-trips too.
        let minimal = SolverState {
            hour: 0,
            n_nodes: 3,
            n_items: 1,
            n_edges: 2,
            n_requests: 1,
            ..SolverState::default()
        };
        let back = SolverState::from_bytes(&minimal.to_bytes()).unwrap();
        assert_eq!(minimal, back);
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = sample().to_bytes();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                match SolverState::from_bytes(&corrupt) {
                    Err(_) => {}
                    // A flip inside the 20-byte header length/checksum or
                    // the payload must never decode to the original.
                    Ok(state) => assert_ne!(
                        state,
                        sample(),
                        "bit flip at byte {byte} bit {bit} went unnoticed"
                    ),
                }
            }
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            let err = SolverState::from_bytes(&bytes[..len])
                .expect_err("truncated snapshot must not decode");
            assert!(
                matches!(
                    err,
                    StateError::Truncated
                        | StateError::BadMagic
                        | StateError::ChecksumMismatch { .. }
                ),
                "unexpected error at len {len}: {err}"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            SolverState::from_bytes(&bytes),
            Err(StateError::BadMagic)
        ));
        let mut bytes = sample().to_bytes();
        bytes[8] = 99;
        assert!(matches!(
            SolverState::from_bytes(&bytes),
            Err(StateError::BadVersion(_))
        ));
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let state = sample();
        let bytes = state.to_bytes();
        // Re-frame with an extra unknown section appended to the payload.
        let mut payload = bytes[28..].to_vec();
        put_u32(&mut payload, 0xDEAD);
        put_u64(&mut payload, 3);
        payload.extend_from_slice(&[9, 9, 9]);
        let mut framed = Vec::new();
        framed.extend_from_slice(&MAGIC);
        put_u32(&mut framed, VERSION);
        put_u64(&mut framed, payload.len() as u64);
        put_u64(&mut framed, fnv1a(&payload));
        framed.extend_from_slice(&payload);
        let back = SolverState::from_bytes(&framed).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A COLUMNS section claiming u64::MAX entries in a tiny body must
        // fail as malformed, not attempt the allocation.
        let mut payload = Vec::new();
        section(&mut payload, TAG_EPOCH, |b| {
            put_u64(b, 0);
            put_u32(b, 1);
            put_u32(b, 1);
            put_u32(b, 1);
            put_u32(b, 1);
        });
        put_u32(&mut payload, TAG_COLUMNS);
        put_u64(&mut payload, 8);
        put_u64(&mut payload, u64::MAX);
        let mut framed = Vec::new();
        framed.extend_from_slice(&MAGIC);
        put_u32(&mut framed, VERSION);
        put_u64(&mut framed, payload.len() as u64);
        put_u64(&mut framed, fnv1a(&payload));
        framed.extend_from_slice(&payload);
        assert!(matches!(
            SolverState::from_bytes(&framed),
            Err(StateError::Malformed(_)) | Err(StateError::Truncated)
        ));
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("jcr_state_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        let state = sample();
        state.save(&path).unwrap();
        let back = SolverState::load(&path).unwrap();
        assert_eq!(state, back);
        std::fs::remove_file(&path).ok();
        let missing = SolverState::load(&dir.join("missing.bin"));
        assert!(matches!(missing, Err(StateError::Io(_))));
    }

    #[test]
    fn debug_json_mentions_every_component() {
        let json = sample().to_debug_json();
        for needle in [
            "\"hour\": 7",
            "\"placement\"",
            "\"routing\"",
            "\"basis_bytes\": 11",
            "\"columns\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn debug_json_is_valid_json_with_exact_amounts() {
        let amounts = [f64::NAN, f64::INFINITY, -0.0];
        let mut state = sample();
        let flows = amounts.iter().map(|a| FlowRecord {
            amount_bits: a.to_bits(),
            edges: vec![1],
        });
        state.routing = Some(vec![flows.collect()]);
        let doc = Json::parse(&state.to_debug_json()).expect("debug dump parses");
        let routed = doc.get("routing").and_then(Json::as_arr).unwrap();
        let back: Vec<u64> = (routed[0].as_arr().unwrap().iter())
            .map(|f| f.get("amount").and_then(Json::as_str).unwrap())
            .map(|hex| u64::from_str_radix(hex, 16).unwrap())
            .collect();
        assert_eq!(back, amounts.map(f64::to_bits));
    }
}
