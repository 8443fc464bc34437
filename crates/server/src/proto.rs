//! The versioned wire format: typed request/response frames over
//! newline-delimited [`Json`] lines.
//!
//! Every frame is one line: a canonical [`Json`] object followed by `\n`.
//! Requests carry the protocol version (`"v":3`); a server speaking a
//! different version answers with the structured error code
//! [`ErrorCode::Version`] instead of guessing.  Responses are
//! self-describing: `"ok":true` plus a payload-specific key, `"ok":false`
//! plus an [`ErrorCode`], or a `"page"` frame inside an enumeration stream.
//!
//! The `shard_build` payloads are packed: scatter ships the rule block as
//! a base64 varint stream and gather ships the three-valued summaries as
//! base64 bitplanes (2 bits per entry).
//!
//! ## Pipelining
//!
//! Any request may carry an *envelope*: an optional request id (`"rid"`)
//! and an optional deadline (`"dl"`, a budget in microseconds from server
//! receipt).  Both ride [`FrameMeta`] and obey the same optional-key
//! discipline as tenancy and tracing: a zero id or deadline is never
//! emitted.  A frame carrying a non-zero `"rid"` opts into *pipelined*
//! dispatch: the server may answer it out of order, and every response
//! frame belonging to it — including streamed `page` frames — carries
//! the id back under the same `"rid"` key.  Frames without an id keep
//! the lock-step contract: they are executed inline, in order, and their
//! responses carry no `"rid"` key at all.
//!
//! The encode/decode pair is *canonical*: `decode(encode(x)) == x` for
//! every [`Request`] and [`Response`], and `encode(decode(bytes)) == bytes`
//! for frames produced by this module — pinned by the round-trip tests at
//! the bottom of this file.
//!
//! ## Frame inventory
//!
//! | request (`op`)      | response payload key          |
//! |---------------------|-------------------------------|
//! | `ping`              | `proto`                       |
//! | `add_query`         | `query`                       |
//! | `add_doc`           | `doc` (+ `shards`, `len`)     |
//! | `add_doc_sharded`   | `doc` (+ `shards`, `len`)     |
//! | `task` (5 kinds)    | `non_empty` / `checked` / `count` / `tuples`, or a stream of `page` frames closed by `streamed` |
//! | `remove_doc`        | `removed`                     |
//! | `shard_build`       | `q` + `planes` + `elapsed_us` |
//! | `tenant_create`     | `tenant` (+ `created`)        |
//! | `tenant_update`     | `tenant` (+ `created`)        |
//! | `stats`             | `metrics` (Prometheus text, see [`crate::metrics`]) |
//! | `shutdown`          | `shutting_down`               |
//!
//! Any request can instead draw `{"ok":false,"error":<code>,"detail":…}`.
//!
//! ## Tenancy
//!
//! Document-bearing verbs (`add_doc`, `add_doc_sharded`, `remove_doc`,
//! `task`) carry an *optional* tenant id under the `"t"` key.  An absent
//! field means the default tenant (id 0), and the field is *only emitted
//! when non-zero*, so default-tenant frames carry no tenant key at all
//! (the canonicality contract survives).
//! Document ids are namespaced per tenant: tenant 3's doc 0 and tenant 7's
//! doc 0 are different documents, and ids never resolve across tenants.

use crate::json::Json;
use slp::{NfRule, NonTerminal};
use spanner::{MarkedSymbol, MarkerSet, Span, SpanTuple, Variable};
use spanner_automata::nfa::{Label, Nfa};
use spanner_slp_core::matrices::{REntry, RMatrix};
use spanner_slp_core::prepared::EByte;
use spanner_slp_core::service::{RequestStats, Task};
use spanner_slp_core::trace::SpanRec;
use spanner_store::verbs::{spec_from_json, spec_to_json};
use spanner_store::TenantSpec;
use std::fmt;

/// The protocol version this build speaks, emits and accepts.
pub const PROTOCOL_VERSION: u64 = 3;

/// The per-frame pipelining envelope: a request id and a deadline.
///
/// `id == 0` means "not pipelined" — the frame is handled inline, in
/// order, and its responses carry no `"rid"` key.  A non-zero id opts the frame into out-of-order
/// completion; every response belonging to it echoes the id.
///
/// `deadline_us == 0` means "no deadline".  A non-zero deadline is a
/// *budget in microseconds from server receipt* (not a wall-clock
/// timestamp, so clients and servers need no clock agreement): work
/// still queued when its budget has elapsed is shed with
/// [`ErrorCode::Expired`] instead of being executed late.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameMeta {
    /// Request id echoed by every response frame of this request
    /// (`0` = not pipelined).
    pub id: u64,
    /// Queueing budget in microseconds from server receipt (`0` = none).
    pub deadline_us: u64,
}

impl FrameMeta {
    /// The empty envelope: not pipelined, no deadline.
    pub const NONE: FrameMeta = FrameMeta {
        id: 0,
        deadline_us: 0,
    };
}

/// A decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The frame is not a well-formed protocol object.
    Malformed(String),
    /// The frame is well-formed but speaks a different protocol version.
    Version(u64),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Malformed(detail) => write!(f, "malformed frame: {detail}"),
            ProtoError::Version(v) => write!(
                f,
                "protocol version {v} (this build speaks {PROTOCOL_VERSION})"
            ),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<crate::json::JsonError> for ProtoError {
    fn from(e: crate::json::JsonError) -> Self {
        ProtoError::Malformed(e.to_string())
    }
}

/// Structured error codes — the machine-readable half of every
/// [`Response::Error`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request's scheduler queue is full; retry later.  The connection
    /// stays open.
    Busy,
    /// The frame did not parse; the connection stays open.
    Malformed,
    /// The frame exceeded the server's length cap; it was discarded up to
    /// the next newline and the connection stays open.
    Oversized,
    /// The request speaks a protocol version this server does not.
    Version,
    /// The request names a query or document id the server never issued.
    UnknownId,
    /// The evaluation itself failed (compile error, out-of-bounds tuple,
    /// empty document, …).
    Eval,
    /// The request is a verb this server's role does not serve (e.g. a
    /// registration or task sent to a `--worker` process, which serves
    /// shard builds and observability only).
    Unsupported,
    /// The server is draining for shutdown and admits no new work.
    ShuttingDown,
    /// The request would exceed the tenant's configured quota (document
    /// count or corpus bytes), or names a tenant that does not exist.  An
    /// admission decision, not a transient overload: unlike
    /// [`ErrorCode::Busy`] it does **not** invite a retry.
    Quota,
    /// The request carried a deadline ([`FrameMeta::deadline_us`]) and was
    /// still queued when the budget elapsed; the scheduler shed it instead
    /// of executing already-late work.  Distinct from [`ErrorCode::Busy`]:
    /// the queue had room, the *time* ran out — retrying with the same
    /// deadline under the same load will likely expire again.
    Expired,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Busy => "busy",
            ErrorCode::Malformed => "malformed",
            ErrorCode::Oversized => "oversized",
            ErrorCode::Version => "version",
            ErrorCode::UnknownId => "unknown_id",
            ErrorCode::Eval => "eval",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Quota => "quota",
            ErrorCode::Expired => "expired",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &[u8]) -> Option<ErrorCode> {
        Some(match s {
            b"busy" => ErrorCode::Busy,
            b"malformed" => ErrorCode::Malformed,
            b"oversized" => ErrorCode::Oversized,
            b"version" => ErrorCode::Version,
            b"unknown_id" => ErrorCode::UnknownId,
            b"eval" => ErrorCode::Eval,
            b"unsupported" => ErrorCode::Unsupported,
            b"shutting_down" => ErrorCode::ShuttingDown,
            b"quota" => ErrorCode::Quota,
            b"expired" => ErrorCode::Expired,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One evaluation task as spoken on the wire — mirrors
/// [`spanner_slp_core::service::Task`] with wire-friendly field types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireTask {
    /// `⟦M⟧(D) ≠ ∅`?
    NonEmptiness,
    /// Is the tuple in `⟦M⟧(D)`?
    ModelCheck(SpanTuple),
    /// `|⟦M⟧(D)|`.
    Count,
    /// Materialise up to `limit` tuples (`None` = all).
    Compute {
        /// Maximum number of tuples to return.
        limit: Option<u64>,
    },
    /// Stream a window of the relation; the response is a page stream.
    Enumerate {
        /// Leading results to discard.
        skip: u64,
        /// Maximum number of results after skipping (`None` = all).
        limit: Option<u64>,
    },
}

impl WireTask {
    /// The wire spelling of the task kind.
    pub fn kind(&self) -> &'static str {
        match self {
            WireTask::NonEmptiness => "non_emptiness",
            WireTask::ModelCheck(_) => "model_check",
            WireTask::Count => "count",
            WireTask::Compute { .. } => "compute",
            WireTask::Enumerate { .. } => "enumerate",
        }
    }

    /// Converts to the evaluation core's [`Task`].
    pub fn to_task(&self) -> Task {
        match self {
            WireTask::NonEmptiness => Task::NonEmptiness,
            WireTask::ModelCheck(tuple) => Task::ModelCheck(tuple.clone()),
            WireTask::Count => Task::Count,
            WireTask::Compute { limit } => Task::Compute {
                limit: limit.map(|n| n as usize),
            },
            WireTask::Enumerate { skip, limit } => Task::Enumerate {
                skip: *skip as usize,
                limit: limit.map(|n| n as usize),
            },
        }
    }
}

/// One transition label as spoken on the wire — mirrors
/// `Label<MarkedSymbol<EByte>>` with wire-friendly payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireLabel {
    /// An ordinary document byte.
    Byte(u8),
    /// The end-of-document sentinel `#`.
    End,
    /// A marker set, packed as its raw bits (see [`MarkerSet::bits`]).
    Markers(u64),
    /// An ε-transition (never produced by prepared queries, which are
    /// ε-free; kept so the codec is total over `Label`).
    Epsilon,
}

/// One transition `(from, label, to)` as spoken on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WireArc {
    /// Source state.
    pub from: u64,
    /// The transition label.
    pub label: WireLabel,
    /// Target state.
    pub to: u64,
}

/// A query's end-transformed automaton as spoken on the wire — everything
/// a shard worker needs to run the Lemma 6.5 pass, independent of how the
/// query was originally written (regex, hand-built automaton, …).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct WireNfa {
    /// Number of states `q`.
    pub states: u64,
    /// The start state.
    pub start: u64,
    /// The accepting states.
    pub accepting: Vec<u64>,
    /// All transitions.
    pub arcs: Vec<WireArc>,
}

impl WireNfa {
    /// Captures an in-memory automaton for the wire.
    pub fn from_nfa(nfa: &Nfa<MarkedSymbol<EByte>>) -> WireNfa {
        WireNfa {
            states: nfa.num_states() as u64,
            start: nfa.start() as u64,
            accepting: nfa.accepting_states().iter().map(|&s| s as u64).collect(),
            arcs: nfa
                .arcs()
                .map(|(p, label, t)| WireArc {
                    from: p as u64,
                    label: match label {
                        Label::Symbol(MarkedSymbol::Terminal(EByte::Byte(b))) => WireLabel::Byte(b),
                        Label::Symbol(MarkedSymbol::Terminal(EByte::End)) => WireLabel::End,
                        Label::Symbol(MarkedSymbol::Markers(m)) => WireLabel::Markers(m.bits()),
                        Label::Epsilon => WireLabel::Epsilon,
                    },
                    to: t as u64,
                })
                .collect(),
        }
    }

    /// The automaton's content hash, the cache key of the `shard_build`
    /// have/need negotiation.  Computed over the *decoded* structure (not
    /// the frame bytes), so both sides of the wire — and a worker
    /// verifying a claimed hash against the automaton it actually
    /// received — agree on the key regardless of JSON formatting.
    pub fn content_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = slp::Fnv64::new();
        self.hash(&mut h);
        h.finish()
    }

    /// Largest state count [`WireNfa::to_nfa`] will materialise.  The
    /// state count controls an up-front `O(states)` allocation, so — like
    /// the hostile-`q` guard in the summary-row codec — it must be bounded
    /// *before* trusting the frame: a sub-kilobyte frame must not be able
    /// to demand terabytes.  `2^20` states is far beyond anything the
    /// `O(size(S)·q³)` pass could ever finish on.
    pub const MAX_STATES: u64 = 1 << 20;

    /// Reconstructs the automaton, validating the state count and every
    /// state index.
    pub fn to_nfa(&self) -> Result<Nfa<MarkedSymbol<EByte>>, ProtoError> {
        let states = usize::try_from(self.states)
            .ok()
            .filter(|&n| n >= 1 && n as u64 <= Self::MAX_STATES)
            .ok_or_else(|| {
                ProtoError::Malformed(format!(
                    "nfa state count {} outside 1..={}",
                    self.states,
                    Self::MAX_STATES
                ))
            })?;
        let check = |s: u64, what: &str| -> Result<usize, ProtoError> {
            usize::try_from(s)
                .ok()
                .filter(|&s| s < states)
                .ok_or_else(|| ProtoError::Malformed(format!("{what} {s} out of range")))
        };
        let mut nfa: Nfa<MarkedSymbol<EByte>> = Nfa::with_states(states);
        nfa.set_start(check(self.start, "start state")?);
        for &s in &self.accepting {
            nfa.set_accepting(check(s, "accepting state")?, true);
        }
        for arc in &self.arcs {
            let (from, to) = (check(arc.from, "arc source")?, check(arc.to, "arc target")?);
            match arc.label {
                WireLabel::Byte(b) => {
                    nfa.add_transition(from, MarkedSymbol::Terminal(EByte::Byte(b)), to)
                }
                WireLabel::End => nfa.add_transition(from, MarkedSymbol::Terminal(EByte::End), to),
                WireLabel::Markers(bits) => {
                    nfa.add_transition(from, MarkedSymbol::Markers(MarkerSet::from_bits(bits)), to)
                }
                WireLabel::Epsilon => nfa.add_epsilon(from, to),
            }
        }
        Ok(nfa)
    }

    fn to_json(&self) -> Json {
        let label = |l: WireLabel| match l {
            WireLabel::Byte(b) => Json::num(b),
            WireLabel::End => Json::str("end"),
            WireLabel::Epsilon => Json::str("eps"),
            WireLabel::Markers(bits) => obj(vec![("m", Json::num(bits))]),
        };
        obj(vec![
            ("states", Json::num(self.states)),
            ("start", Json::num(self.start)),
            (
                "accepting",
                Json::Arr(self.accepting.iter().map(|&s| Json::num(s)).collect()),
            ),
            (
                "arcs",
                Json::Arr(
                    self.arcs
                        .iter()
                        .map(|arc| {
                            Json::Arr(vec![
                                Json::num(arc.from),
                                label(arc.label),
                                Json::num(arc.to),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(value: &Json) -> Result<WireNfa, ProtoError> {
        let label = |v: &Json| -> Result<WireLabel, ProtoError> {
            if let Some(n) = v.as_u64() {
                let b = u8::try_from(n)
                    .map_err(|_| ProtoError::Malformed(format!("label byte {n} out of range")))?;
                return Ok(WireLabel::Byte(b));
            }
            if let Some(s) = v.as_str() {
                return match s {
                    b"end" => Ok(WireLabel::End),
                    b"eps" => Ok(WireLabel::Epsilon),
                    other => Err(ProtoError::Malformed(format!(
                        "unknown label '{}'",
                        String::from_utf8_lossy(other)
                    ))),
                };
            }
            if let Some(m) = v.get("m") {
                return Ok(WireLabel::Markers(number(m, "marker bits")?));
            }
            Err(ProtoError::Malformed("unrecognised arc label".into()))
        };
        let accepting = field(value, "accepting")?
            .as_arr()
            .ok_or_else(|| ProtoError::Malformed("accepting is not an array".into()))?
            .iter()
            .map(|s| number(s, "accepting state"))
            .collect::<Result<_, _>>()?;
        let arcs = field(value, "arcs")?
            .as_arr()
            .ok_or_else(|| ProtoError::Malformed("arcs is not an array".into()))?
            .iter()
            .map(|arc| {
                let [from, l, to] = arc
                    .as_arr()
                    .ok_or_else(|| ProtoError::Malformed("arc is not an array".into()))?
                else {
                    return Err(ProtoError::Malformed("arc is not a triple".into()));
                };
                Ok(WireArc {
                    from: number(from, "arc source")?,
                    label: label(l)?,
                    to: number(to, "arc target")?,
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(WireNfa {
            states: num_field(value, "states")?,
            start: num_field(value, "start")?,
            accepting,
            arcs,
        })
    }
}

// ---------------------------------------------------------------------------
// Packed payload helpers: base64 + varints
// ---------------------------------------------------------------------------

const B64_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard base64, no padding characters.  Raw packed bytes cannot ride in
/// a [`Json::Str`] directly — non-printable bytes escape to `\xNN` (four
/// characters each), which would *inflate* the frame; base64 keeps the
/// overhead at a flat 4/3.
fn b64_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let n = (chunk[0] as u32) << 16
            | (*chunk.get(1).unwrap_or(&0) as u32) << 8
            | *chunk.get(2).unwrap_or(&0) as u32;
        out.push(B64_ALPHABET[(n >> 18) as usize & 63]);
        out.push(B64_ALPHABET[(n >> 12) as usize & 63]);
        if chunk.len() > 1 {
            out.push(B64_ALPHABET[(n >> 6) as usize & 63]);
        }
        if chunk.len() > 2 {
            out.push(B64_ALPHABET[n as usize & 63]);
        }
    }
    out
}

/// Decodes unpadded base64, rejecting invalid characters, impossible
/// lengths and non-zero tail bits (so the encoding stays canonical:
/// `encode(decode(s)) == s` for every accepted `s`).
fn b64_decode(text: &[u8]) -> Result<Vec<u8>, ProtoError> {
    if text.len() % 4 == 1 {
        return Err(ProtoError::Malformed("truncated base64 payload".into()));
    }
    let mut out = Vec::with_capacity(text.len() * 3 / 4 + 1);
    let mut acc: u32 = 0;
    let mut bits: u32 = 0;
    for &c in text {
        let v = match c {
            b'A'..=b'Z' => c - b'A',
            b'a'..=b'z' => c - b'a' + 26,
            b'0'..=b'9' => c - b'0' + 52,
            b'+' => 62,
            b'/' => 63,
            other => {
                return Err(ProtoError::Malformed(format!(
                    "invalid base64 byte 0x{other:02x}"
                )))
            }
        };
        acc = acc << 6 | v as u32;
        bits += 6;
        if bits >= 8 {
            bits -= 8;
            out.push((acc >> bits) as u8);
        }
    }
    if bits > 0 && acc & ((1 << bits) - 1) != 0 {
        return Err(ProtoError::Malformed("non-canonical base64 tail".into()));
    }
    Ok(out)
}

/// LEB128: 7 payload bits per byte, high bit = continuation.
fn varint_push(out: &mut Vec<u8>, mut n: u64) {
    loop {
        let byte = (n & 0x7f) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn varint_read(data: &[u8], pos: &mut usize) -> Result<u64, ProtoError> {
    let mut n: u64 = 0;
    let mut shift: u32 = 0;
    loop {
        let &byte = data
            .get(*pos)
            .ok_or_else(|| ProtoError::Malformed("truncated varint".into()))?;
        *pos += 1;
        if shift == 63 && byte > 1 || shift > 63 {
            return Err(ProtoError::Malformed("varint overflows u64".into()));
        }
        n |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(n);
        }
        shift += 7;
    }
}

/// Zigzag: small signed deltas become small varints in either direction.
fn zigzag(n: i64) -> u64 {
    ((n << 1) ^ (n >> 63)) as u64
}

fn unzigzag(n: u64) -> i64 {
    ((n >> 1) as i64) ^ -((n & 1) as i64)
}

// Rule-stream tags (one byte each, ahead of the rule's payload).
const RULE_TAG_BYTE: u8 = 0;
const RULE_TAG_END: u8 = 1;
const RULE_TAG_PAIR: u8 = 2;

/// Encodes a standalone shard rule block as one base64 varint stream: per
/// rule a tag byte, then for leaves the terminal byte and for `A → BC`
/// pairs the zigzag deltas `index − b`, `index − c` (children of real
/// blocks sit just below their parent, so the deltas are tiny varints).
/// Roughly 3× fewer characters than a JSON array of numbers-and-pairs —
/// the dominant share of the scatter leg.
fn rules_to_json(rules: &[NfRule<EByte>]) -> Json {
    let mut packed = Vec::with_capacity(rules.len() * 3);
    for (index, rule) in rules.iter().enumerate() {
        match rule {
            NfRule::Leaf(EByte::Byte(b)) => {
                packed.push(RULE_TAG_BYTE);
                packed.push(*b);
            }
            NfRule::Leaf(EByte::End) => packed.push(RULE_TAG_END),
            NfRule::Pair(b, c) => {
                packed.push(RULE_TAG_PAIR);
                varint_push(&mut packed, zigzag(index as i64 - b.0 as i64));
                varint_push(&mut packed, zigzag(index as i64 - c.0 as i64));
            }
        }
    }
    Json::Str(b64_encode(&packed))
}

/// Decodes a shard rule block from its packed base64 stream.
fn rules_from_json(value: &Json) -> Result<Vec<NfRule<EByte>>, ProtoError> {
    let text = value
        .as_str()
        .ok_or_else(|| ProtoError::Malformed("rules is not a string".into()))?;
    let packed = b64_decode(text)?;
    let mut rules = Vec::new();
    let mut pos = 0usize;
    while pos < packed.len() {
        let tag = packed[pos];
        pos += 1;
        rules.push(match tag {
            RULE_TAG_BYTE => {
                let &b = packed
                    .get(pos)
                    .ok_or_else(|| ProtoError::Malformed("truncated leaf rule".into()))?;
                pos += 1;
                NfRule::Leaf(EByte::Byte(b))
            }
            RULE_TAG_END => NfRule::Leaf(EByte::End),
            RULE_TAG_PAIR => {
                let index = rules.len() as i64;
                let mut child = |what: &str| -> Result<NonTerminal, ProtoError> {
                    let delta = unzigzag(varint_read(&packed, &mut pos)?);
                    index
                        .checked_sub(delta)
                        .and_then(|c| u32::try_from(c).ok())
                        .map(NonTerminal)
                        .ok_or_else(|| ProtoError::Malformed(format!("{what} index out of range")))
                };
                let b = child("left child")?;
                let c = child("right child")?;
                NfRule::Pair(b, c)
            }
            other => return Err(ProtoError::Malformed(format!("unknown rule tag {other}"))),
        });
    }
    Ok(rules)
}

/// Encodes summary matrices as base64 bitplanes: per rule, the `nonbot`
/// plane's `q²` bits (entry `(i,j)` at bit `i·q + j`, LSB-first within
/// bytes) rounded up to whole bytes, then the `nonempty` plane likewise —
/// 2 bits per three-valued entry; the full marker-set matrices of
/// Lemma 6.5 never cross the wire.
fn planes_to_json(rows: &[RMatrix]) -> Json {
    let mut packed = Vec::new();
    for matrix in rows {
        let q = matrix.q();
        for plane in [matrix.nonbot_plane(), matrix.nonempty_plane()] {
            let mut byte = 0u8;
            let mut filled = 0u32;
            for i in 0..q {
                for j in 0..q {
                    if plane.get(i, j) {
                        byte |= 1 << filled;
                    }
                    filled += 1;
                    if filled == 8 {
                        packed.push(byte);
                        byte = 0;
                        filled = 0;
                    }
                }
            }
            if filled > 0 {
                packed.push(byte);
            }
        }
    }
    Json::Str(b64_encode(&packed))
}

/// Decodes bitplane summaries from the `q` recorded alongside them,
/// validating the plane stride, the `nonempty ⊆ nonbot` invariant and the
/// final byte's padding bits of every plane.
fn planes_from_json(value: &Json, q: u64) -> Result<Vec<RMatrix>, ProtoError> {
    let text = value
        .as_str()
        .ok_or_else(|| ProtoError::Malformed("planes is not a string".into()))?;
    let packed = b64_decode(text)?;
    let plane_bytes = q
        .checked_mul(q)
        .map(|c| c.div_ceil(8))
        .and_then(|c| usize::try_from(c).ok())
        .filter(|&c| c > 0)
        .ok_or_else(|| ProtoError::Malformed("q is zero or out of range".into()))?;
    let per_rule = 2 * plane_bytes;
    if !packed.len().is_multiple_of(per_rule) {
        return Err(ProtoError::Malformed(format!(
            "plane bytes ({}) are not a multiple of 2·⌈q²/8⌉ ({per_rule})",
            packed.len()
        )));
    }
    let q = q as usize;
    packed
        .chunks(per_rule)
        .map(|chunk| {
            let (nonbot_bits, nonempty_bits) = chunk.split_at(plane_bytes);
            let mut matrix = RMatrix::bot(q);
            for idx in 0..q * q {
                let mask = 1u8 << (idx % 8);
                let nb = nonbot_bits[idx / 8] & mask != 0;
                let ne = nonempty_bits[idx / 8] & mask != 0;
                if ne && !nb {
                    return Err(ProtoError::Malformed(
                        "nonempty entry without its nonbot bit".into(),
                    ));
                }
                if nb {
                    matrix.set(
                        idx / q,
                        idx % q,
                        if ne { REntry::NonEmpty } else { REntry::Empty },
                    );
                }
            }
            // Padding bits beyond q² in each plane's final byte must be
            // zero, or re-encoding would not reproduce the frame.
            let pad = q * q % 8;
            if pad != 0 {
                for bits in [nonbot_bits, nonempty_bits] {
                    if bits[plane_bytes - 1] >> pad != 0 {
                        return Err(ProtoError::Malformed("non-zero plane padding bits".into()));
                    }
                }
            }
            Ok(matrix)
        })
        .collect()
}

/// A client→server frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness / version probe.
    Ping,
    /// Compile and pool a query from a variable-regex pattern.
    AddQuery {
        /// The variable-regex pattern (see `spanner::regex`).
        pattern: String,
        /// The document alphabet the pattern ranges over.
        alphabet: Vec<u8>,
    },
    /// Compress and pool a document (monolithic).
    AddDoc {
        /// Owning tenant (0 = default; omitted on the wire when 0).
        tenant: u32,
        /// The raw document bytes.
        text: Vec<u8>,
    },
    /// Compress and pool a document split into `k` shards (`k = 0` lets the
    /// server auto-tune the shard count).
    AddDocSharded {
        /// Owning tenant (0 = default; omitted on the wire when 0).
        tenant: u32,
        /// Requested shard count; `0` = auto.
        k: u64,
        /// The raw document bytes.
        text: Vec<u8>,
    },
    /// Evaluate one task over a pooled (query, document) pair.
    Task {
        /// Tenant whose document namespace `doc` resolves in (0 = default;
        /// omitted on the wire when 0).  Queries are shared across tenants.
        tenant: u32,
        /// Trace id of a *sampled* request (0 = unsampled; omitted on the
        /// wire when 0).  A non-zero id asks the server to record
        /// spans and return them in the response's `"trace"` field.
        trace: u64,
        /// Wire id of the pooled query.
        query: u64,
        /// Wire id of the pooled document (inside the tenant's namespace).
        doc: u64,
        /// What to compute.
        task: WireTask,
    },
    /// Unregister a pooled document: its wire id stops resolving and its
    /// cached matrices are invalidated (`MatrixCache::clear_doc`).
    RemoveDoc {
        /// Tenant whose namespace `doc` resolves in (0 = default; omitted
        /// on the wire when 0).
        tenant: u32,
        /// Wire id of the pooled document.
        doc: u64,
    },
    /// Create a tenant namespace with quotas, a cache share and an
    /// admission weight.  Fails if the id is already taken (id 0 — the
    /// default tenant — always exists).
    TenantCreate {
        /// The tenant's full configuration.
        spec: TenantSpec,
    },
    /// Replace an existing tenant's configuration (usage is untouched; new
    /// limits apply to subsequent registrations).
    TenantUpdate {
        /// The tenant's full configuration.
        spec: TenantSpec,
    },
    /// Run one shard's Lemma 6.5 matrix pass (the worker verb behind
    /// distributed shard execution): a *standalone* rule block plus the
    /// query's end-transformed automaton — never the surrounding document.
    /// The reply ([`Response::ShardBuilt`]) carries only the block's
    /// three-valued summary rows.
    ///
    /// Content-addressed negotiation: each payload half (automaton, rule
    /// block) may be replaced by its content hash alone.  A worker holding
    /// the hashed value in its block cache runs the pass as usual; one
    /// that does not answers [`Response::NeedBlocks`] naming the missing
    /// halves, and the coordinator re-sends the frame with the bytes
    /// inline.  Both hashes are always present.
    ShardBuild {
        /// The query's end-transformed, ε-free automaton; `None` ships
        /// only `nfa_hash`.
        nfa: Option<WireNfa>,
        /// The shard's standalone rule block (local indices); `None` ships
        /// only `block_hash`.
        rules: Option<Vec<NfRule<EByte>>>,
        /// Local index of the block's root rule.
        root: u64,
        /// Content hash of the automaton ([`WireNfa::content_hash`]).
        nfa_hash: u64,
        /// Content hash of the rule block
        /// ([`slp::block_content_hash`] over `(rules, root)`).
        block_hash: u64,
        /// Trace id of the sampled request this pass belongs to (0 =
        /// unsampled; omitted on the wire when 0).  A worker receiving a
        /// non-zero id records its pass spans and returns them in
        /// [`Response::ShardBuilt`].
        trace: u64,
    },
    /// Scrape every metric the server exports.
    Stats,
    /// Begin a graceful shutdown: drain in-flight work, then exit.
    Shutdown,
}

/// Per-request cost statistics as spoken on the wire (see
/// [`RequestStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// `true` if the pair's matrices were already resident.
    pub cache_hit: bool,
    /// Matrix build time in microseconds (zero on a hit).
    pub build_us: u128,
    /// Task time in microseconds.
    pub task_us: u128,
    /// Bytes of the pair's matrices.
    pub matrix_bytes: u64,
    /// Tuples materialised (or streamed) into the response.
    pub results: u64,
}

impl From<&RequestStats> for WireStats {
    fn from(s: &RequestStats) -> Self {
        WireStats {
            cache_hit: s.cache_hit,
            build_us: s.matrix_build.as_micros(),
            task_us: s.task_time.as_micros(),
            matrix_bytes: s.matrix_bytes as u64,
            results: s.results,
        }
    }
}

/// A server→client frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong {
        /// The server's protocol version.
        proto: u64,
    },
    /// Answer to [`Request::AddQuery`].
    QueryAdded {
        /// Wire id for subsequent [`Request::Task`] frames.
        id: u64,
    },
    /// Answer to [`Request::AddDoc`] / [`Request::AddDocSharded`].
    DocAdded {
        /// Wire id for subsequent [`Request::Task`] frames.
        id: u64,
        /// Number of shards the document was registered with.
        shards: u64,
        /// Document length in bytes.
        len: u64,
    },
    /// Answer to [`WireTask::NonEmptiness`].
    NonEmpty {
        /// The verdict.
        value: bool,
        /// What the request cost.
        stats: WireStats,
        /// Span forest of a sampled request (`None` = unsampled; omitted
        /// on the wire, keeping untraced frames byte-identical).
        trace: Option<Vec<SpanRec>>,
    },
    /// Answer to [`WireTask::ModelCheck`].
    Checked {
        /// The verdict.
        value: bool,
        /// What the request cost.
        stats: WireStats,
        /// Span forest of a sampled request (`None` = unsampled).
        trace: Option<Vec<SpanRec>>,
    },
    /// Answer to [`WireTask::Count`].
    Counted {
        /// `|⟦M⟧(D)|`.
        value: u128,
        /// What the request cost.
        stats: WireStats,
        /// Span forest of a sampled request (`None` = unsampled).
        trace: Option<Vec<SpanRec>>,
    },
    /// Answer to [`WireTask::Compute`].
    Tuples {
        /// The materialised tuples.
        tuples: Vec<SpanTuple>,
        /// What the request cost.
        stats: WireStats,
        /// Span forest of a sampled request (`None` = unsampled).
        trace: Option<Vec<SpanRec>>,
    },
    /// One page of an enumeration stream, flushed as it is produced.
    Page {
        /// The page's tuples.
        tuples: Vec<SpanTuple>,
    },
    /// Terminal frame of an enumeration stream.
    StreamEnd {
        /// Total tuples streamed across the pages.
        streamed: u64,
        /// What the request cost.
        stats: WireStats,
        /// Span forest of a sampled request (`None` = unsampled).
        trace: Option<Vec<SpanRec>>,
    },
    /// Answer to [`Request::RemoveDoc`].
    DocRemoved {
        /// The removed document's wire id (now burned; it will not be
        /// reissued).
        id: u64,
    },
    /// Answer to [`Request::ShardBuild`]: the block's summary matrices as
    /// packed bitplanes — 2 bits per three-valued entry, never the full
    /// marker-set matrices.
    ShardBuilt {
        /// Number of automaton states `q` (the plane stride).
        q: u64,
        /// Summaries, one bit-packed `q×q` matrix per block rule in local
        /// order.
        rows: Vec<RMatrix>,
        /// Worker-side wall-clock of the pass, in microseconds.
        elapsed_us: u64,
        /// The worker's span fragment for a traced pass, in the *worker's*
        /// timebase (offsets from its receipt of the frame); empty for
        /// untraced passes and omitted on the wire.  The coordinator
        /// re-bases the fragment onto the request timeline at the gather.
        spans: Vec<SpanRec>,
    },
    /// Answer to a hash-only [`Request::ShardBuild`] the worker cannot
    /// satisfy from its block cache: the named halves must be re-sent with
    /// their bytes inline (same connection, same request otherwise).
    NeedBlocks {
        /// The worker does not hold the automaton named by `nh`.
        need_nfa: bool,
        /// The worker does not hold the rule block named by `bh`.
        need_block: bool,
    },
    /// Answer to [`Request::TenantCreate`] / [`Request::TenantUpdate`].
    TenantOk {
        /// The tenant's id.
        id: u32,
        /// `true` for a creation, `false` for an update.
        created: bool,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// The server's metrics as Prometheus text, one
        /// `name{labels} value` line per series ([`crate::metrics`]).
        text: String,
    },
    /// Answer to [`Request::Shutdown`]: the drain has begun.
    ShuttingDown,
    /// A structured error; the connection stays open (even for
    /// [`ErrorCode::Busy`] — backpressure is never a dropped connection).
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

// ---------------------------------------------------------------------------
// Tuples
// ---------------------------------------------------------------------------

/// Encodes a span-tuple as `[[start,end]|null, …]`, one slot per variable.
pub fn tuple_to_json(tuple: &SpanTuple) -> Json {
    Json::Arr(
        (0..tuple.num_vars())
            .map(|v| match tuple.get(Variable(v as u8)) {
                Some(span) => Json::Arr(vec![Json::num(span.start), Json::num(span.end)]),
                None => Json::Null,
            })
            .collect(),
    )
}

/// Decodes a span-tuple from its wire form.
pub fn tuple_from_json(value: &Json) -> Result<SpanTuple, ProtoError> {
    let slots = value
        .as_arr()
        .ok_or_else(|| ProtoError::Malformed("tuple is not an array".into()))?;
    let mut assignment = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot {
            Json::Null => assignment.push(None),
            Json::Arr(pair) => {
                let [start, end] = pair.as_slice() else {
                    return Err(ProtoError::Malformed(
                        "span is not a [start,end] pair".into(),
                    ));
                };
                let (start, end) = (number(start, "span start")?, number(end, "span end")?);
                let span = Span::new(start, end)
                    .map_err(|e| ProtoError::Malformed(format!("invalid span: {e}")))?;
                assignment.push(Some(span));
            }
            _ => {
                return Err(ProtoError::Malformed(
                    "tuple slot is neither null nor a span".into(),
                ))
            }
        }
    }
    Ok(SpanTuple::from_assignment(assignment))
}

fn tuples_to_json(tuples: &[SpanTuple]) -> Json {
    Json::Arr(tuples.iter().map(tuple_to_json).collect())
}

fn tuples_from_json(value: &Json) -> Result<Vec<SpanTuple>, ProtoError> {
    value
        .as_arr()
        .ok_or_else(|| ProtoError::Malformed("tuple list is not an array".into()))?
        .iter()
        .map(tuple_from_json)
        .collect()
}

// ---------------------------------------------------------------------------
// Trace spans and latency histograms
// ---------------------------------------------------------------------------

/// Encodes one trace span as `{"n":name,"s":start_us,"d":dur_us[,"p":parent]
/// [,"a":[[k,v],…]]}` — `p` omitted for forest roots and `a` omitted when
/// empty, so minimal spans stay minimal on the wire.  Attributes ride as an
/// array of pairs (not an object) to keep frame keys static.
fn span_to_json(span: &SpanRec) -> Json {
    let mut pairs = vec![
        ("n", Json::str(&span.name)),
        ("s", Json::num(span.start_us)),
        ("d", Json::num(span.dur_us)),
    ];
    if let Some(parent) = span.parent {
        pairs.push(("p", Json::num(parent)));
    }
    if !span.attrs.is_empty() {
        pairs.push((
            "a",
            Json::Arr(
                span.attrs
                    .iter()
                    .map(|(k, v)| Json::Arr(vec![Json::str(k), Json::str(v)]))
                    .collect(),
            ),
        ));
    }
    obj(pairs)
}

fn span_from_json(value: &Json) -> Result<SpanRec, ProtoError> {
    let parent = match value.get("p") {
        None => None,
        Some(p) => Some(
            u32::try_from(number(p, "span parent")?)
                .map_err(|_| ProtoError::Malformed("span parent out of range".into()))?,
        ),
    };
    let attrs = match value.get("a") {
        None => Vec::new(),
        Some(list) => list
            .as_arr()
            .ok_or_else(|| ProtoError::Malformed("span attrs are not an array".into()))?
            .iter()
            .map(|pair| {
                let Some([k, v]) = pair.as_arr() else {
                    return Err(ProtoError::Malformed("span attr is not a pair".into()));
                };
                let text = |j: &Json, what: &str| -> Result<String, ProtoError> {
                    j.as_str()
                        .map(|s| String::from_utf8_lossy(s).into_owned())
                        .ok_or_else(|| ProtoError::Malformed(format!("{what} is not a string")))
                };
                Ok((text(k, "span attr key")?, text(v, "span attr value")?))
            })
            .collect::<Result<_, _>>()?,
    };
    Ok(SpanRec {
        name: String::from_utf8_lossy(&str_field(value, "n")?).into_owned(),
        start_us: num_field(value, "s")?,
        dur_us: num_field(value, "d")?,
        parent,
        attrs,
    })
}

pub(crate) fn spans_to_json(spans: &[SpanRec]) -> Json {
    Json::Arr(spans.iter().map(span_to_json).collect())
}

fn spans_from_json(value: &Json) -> Result<Vec<SpanRec>, ProtoError> {
    value
        .as_arr()
        .ok_or_else(|| ProtoError::Malformed("span list is not an array".into()))?
        .iter()
        .map(span_from_json)
        .collect()
}

// ---------------------------------------------------------------------------
// Field helpers
// ---------------------------------------------------------------------------

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, ProtoError> {
    obj.get(key)
        .ok_or_else(|| ProtoError::Malformed(format!("missing field '{key}'")))
}

fn number(value: &Json, what: &str) -> Result<u64, ProtoError> {
    value
        .as_u64()
        .ok_or_else(|| ProtoError::Malformed(format!("{what} is not a u64")))
}

fn num_field(obj: &Json, key: &str) -> Result<u64, ProtoError> {
    number(field(obj, key)?, key)
}

fn str_field(obj: &Json, key: &str) -> Result<Vec<u8>, ProtoError> {
    Ok(field(obj, key)?
        .as_str()
        .ok_or_else(|| ProtoError::Malformed(format!("field '{key}' is not a string")))?
        .to_vec())
}

fn bool_field(obj: &Json, key: &str) -> Result<bool, ProtoError> {
    field(obj, key)?
        .as_bool()
        .ok_or_else(|| ProtoError::Malformed(format!("field '{key}' is not a bool")))
}

/// `null` → `None`, number → `Some`.
fn opt_num_field(obj: &Json, key: &str) -> Result<Option<u64>, ProtoError> {
    match field(obj, key)? {
        Json::Null => Ok(None),
        other => Ok(Some(number(other, key)?)),
    }
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Emits the `"t"` tenant field only when non-default.
fn push_tenant(pairs: &mut Vec<(&str, Json)>, tenant: u32) {
    if tenant != 0 {
        pairs.push(("t", Json::num(tenant)));
    }
}

/// Reads the optional `"t"` tenant field; absent means the default tenant.
fn tenant_field(value: &Json) -> Result<u32, ProtoError> {
    match value.get("t") {
        None => Ok(0),
        Some(t) => u32::try_from(number(t, "tenant")?)
            .map_err(|_| ProtoError::Malformed("tenant id out of range".into())),
    }
}

/// Emits the `"tr"` trace-id field only when non-zero (the same
/// discipline as the tenant key).
fn push_trace(pairs: &mut Vec<(&str, Json)>, trace: u64) {
    if trace != 0 {
        pairs.push(("tr", Json::num(trace)));
    }
}

/// Reads the optional `"tr"` trace-id field; absent means unsampled.
fn trace_field(value: &Json) -> Result<u64, ProtoError> {
    match value.get("tr") {
        None => Ok(0),
        Some(tr) => number(tr, "trace id"),
    }
}

/// Emits the `"rid"`/`"dl"` envelope fields only when non-zero.
fn push_meta(pairs: &mut Vec<(&str, Json)>, meta: FrameMeta) {
    if meta.id != 0 {
        pairs.push(("rid", Json::num(meta.id)));
    }
    if meta.deadline_us != 0 {
        pairs.push(("dl", Json::num(meta.deadline_us)));
    }
}

/// Reads the optional `"rid"`/`"dl"` envelope; absent keys mean
/// [`FrameMeta::NONE`] semantics (not pipelined / no deadline).
fn meta_fields(value: &Json) -> Result<FrameMeta, ProtoError> {
    let optional = |key: &str, what: &str| -> Result<u64, ProtoError> {
        match value.get(key) {
            None => Ok(0),
            Some(v) => number(v, what),
        }
    };
    Ok(FrameMeta {
        id: optional("rid", "request id")?,
        deadline_us: optional("dl", "deadline")?,
    })
}

/// Emits the `"trace"` span-forest field of a task response only when the
/// request was sampled.
fn push_response_trace(pairs: &mut Vec<(&str, Json)>, trace: &Option<Vec<SpanRec>>) {
    if let Some(spans) = trace {
        pairs.push(("trace", spans_to_json(spans)));
    }
}

/// Reads the optional `"trace"` span-forest field of a task response.
fn response_trace(value: &Json) -> Result<Option<Vec<SpanRec>>, ProtoError> {
    match value.get("trace") {
        None => Ok(None),
        Some(spans) => Ok(Some(spans_from_json(spans)?)),
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

impl Request {
    /// Encodes the request as one canonical frame (no trailing newline)
    /// with the empty envelope — not pipelined, no deadline.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with(FrameMeta::NONE)
    }

    /// Encodes the request with a pipelining envelope: the `"rid"`/`"dl"`
    /// keys ride directly after `"v"` and are omitted when zero, so
    /// `encode_with(FrameMeta::NONE)` is byte-identical to [`encode`]
    /// (canonicality survives the envelope).
    ///
    /// [`encode`]: Request::encode
    pub fn encode_with(&self, meta: FrameMeta) -> Vec<u8> {
        let mut pairs = vec![("v", Json::num(PROTOCOL_VERSION))];
        push_meta(&mut pairs, meta);
        match self {
            Request::Ping => pairs.push(("op", Json::str("ping"))),
            Request::AddQuery { pattern, alphabet } => {
                pairs.push(("op", Json::str("add_query")));
                pairs.push(("pattern", Json::str(pattern)));
                pairs.push(("alphabet", Json::Str(alphabet.clone())));
            }
            Request::AddDoc { tenant, text } => {
                pairs.push(("op", Json::str("add_doc")));
                push_tenant(&mut pairs, *tenant);
                pairs.push(("text", Json::Str(text.clone())));
            }
            Request::AddDocSharded { tenant, k, text } => {
                pairs.push(("op", Json::str("add_doc_sharded")));
                push_tenant(&mut pairs, *tenant);
                pairs.push(("k", Json::num(*k)));
                pairs.push(("text", Json::Str(text.clone())));
            }
            Request::Task {
                tenant,
                trace,
                query,
                doc,
                task,
            } => {
                pairs.push(("op", Json::str("task")));
                push_tenant(&mut pairs, *tenant);
                push_trace(&mut pairs, *trace);
                pairs.push(("task", Json::str(task.kind())));
                pairs.push(("query", Json::num(*query)));
                pairs.push(("doc", Json::num(*doc)));
                match task {
                    WireTask::ModelCheck(tuple) => pairs.push(("tuple", tuple_to_json(tuple))),
                    WireTask::Compute { limit } => {
                        pairs.push(("limit", limit.map_or(Json::Null, Json::num)));
                    }
                    WireTask::Enumerate { skip, limit } => {
                        pairs.push(("skip", Json::num(*skip)));
                        pairs.push(("limit", limit.map_or(Json::Null, Json::num)));
                    }
                    WireTask::NonEmptiness | WireTask::Count => {}
                }
            }
            Request::RemoveDoc { tenant, doc } => {
                pairs.push(("op", Json::str("remove_doc")));
                push_tenant(&mut pairs, *tenant);
                pairs.push(("doc", Json::num(*doc)));
            }
            Request::TenantCreate { spec } => {
                pairs.push(("op", Json::str("tenant_create")));
                pairs.push(("spec", spec_to_json(spec)));
            }
            Request::TenantUpdate { spec } => {
                pairs.push(("op", Json::str("tenant_update")));
                pairs.push(("spec", spec_to_json(spec)));
            }
            Request::ShardBuild {
                nfa,
                rules,
                root,
                nfa_hash,
                block_hash,
                trace,
            } => {
                pairs.push(("op", Json::str("shard_build")));
                // A payload half is omitted when only its hash ships.
                if let Some(nfa) = nfa {
                    pairs.push(("nfa", nfa.to_json()));
                }
                if let Some(rules) = rules {
                    pairs.push(("rules", rules_to_json(rules)));
                }
                pairs.push(("root", Json::num(*root)));
                pairs.push(("nh", Json::num(*nfa_hash)));
                pairs.push(("bh", Json::num(*block_hash)));
                push_trace(&mut pairs, *trace);
            }
            Request::Stats => pairs.push(("op", Json::str("stats"))),
            Request::Shutdown => pairs.push(("op", Json::str("shutdown"))),
        }
        obj(pairs).to_bytes()
    }

    /// Decodes one request frame, checking the protocol version first and
    /// discarding the envelope (see [`Request::decode_framed`]).
    pub fn decode(line: &[u8]) -> Result<Request, ProtoError> {
        Request::decode_framed(line).map(|(request, _)| request)
    }

    /// Decodes one request frame together with its pipelining envelope.
    /// Frames without `"rid"`/`"dl"` keys decode with [`FrameMeta::NONE`].
    pub fn decode_framed(line: &[u8]) -> Result<(Request, FrameMeta), ProtoError> {
        let value = Json::parse(line)?;
        let v = num_field(&value, "v")?;
        if v != PROTOCOL_VERSION {
            return Err(ProtoError::Version(v));
        }
        let meta = meta_fields(&value)?;
        let op = str_field(&value, "op")?;
        let request = match op.as_slice() {
            b"ping" => Request::Ping,
            b"add_query" => Request::AddQuery {
                pattern: String::from_utf8(str_field(&value, "pattern")?)
                    .map_err(|_| ProtoError::Malformed("pattern is not UTF-8".into()))?,
                alphabet: str_field(&value, "alphabet")?,
            },
            b"add_doc" => Request::AddDoc {
                tenant: tenant_field(&value)?,
                text: str_field(&value, "text")?,
            },
            b"add_doc_sharded" => Request::AddDocSharded {
                tenant: tenant_field(&value)?,
                k: num_field(&value, "k")?,
                text: str_field(&value, "text")?,
            },
            b"task" => {
                let kind = str_field(&value, "task")?;
                let task = match kind.as_slice() {
                    b"non_emptiness" => WireTask::NonEmptiness,
                    b"model_check" => {
                        WireTask::ModelCheck(tuple_from_json(field(&value, "tuple")?)?)
                    }
                    b"count" => WireTask::Count,
                    b"compute" => WireTask::Compute {
                        limit: opt_num_field(&value, "limit")?,
                    },
                    b"enumerate" => WireTask::Enumerate {
                        skip: num_field(&value, "skip")?,
                        limit: opt_num_field(&value, "limit")?,
                    },
                    _ => {
                        return Err(ProtoError::Malformed(format!(
                            "unknown task kind '{}'",
                            String::from_utf8_lossy(&kind)
                        )))
                    }
                };
                Request::Task {
                    tenant: tenant_field(&value)?,
                    trace: trace_field(&value)?,
                    query: num_field(&value, "query")?,
                    doc: num_field(&value, "doc")?,
                    task,
                }
            }
            b"remove_doc" => Request::RemoveDoc {
                tenant: tenant_field(&value)?,
                doc: num_field(&value, "doc")?,
            },
            b"tenant_create" => Request::TenantCreate {
                spec: spec_from_json(field(&value, "spec")?)
                    .map_err(|e| ProtoError::Malformed(e.to_string()))?,
            },
            b"tenant_update" => Request::TenantUpdate {
                spec: spec_from_json(field(&value, "spec")?)
                    .map_err(|e| ProtoError::Malformed(e.to_string()))?,
            },
            b"shard_build" => Request::ShardBuild {
                nfa: value.get("nfa").map(WireNfa::from_json).transpose()?,
                rules: value.get("rules").map(rules_from_json).transpose()?,
                root: num_field(&value, "root")?,
                nfa_hash: num_field(&value, "nh")?,
                block_hash: num_field(&value, "bh")?,
                trace: trace_field(&value)?,
            },
            b"stats" => Request::Stats,
            b"shutdown" => Request::Shutdown,
            _ => {
                return Err(ProtoError::Malformed(format!(
                    "unknown op '{}'",
                    String::from_utf8_lossy(&op)
                )))
            }
        };
        Ok((request, meta))
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

impl WireStats {
    fn to_json(self) -> Json {
        obj(vec![
            ("cache_hit", Json::Bool(self.cache_hit)),
            ("build_us", Json::Num(self.build_us)),
            ("task_us", Json::Num(self.task_us)),
            ("matrix_bytes", Json::num(self.matrix_bytes)),
            ("results", Json::num(self.results)),
        ])
    }

    fn from_json(value: &Json) -> Result<WireStats, ProtoError> {
        Ok(WireStats {
            cache_hit: bool_field(value, "cache_hit")?,
            build_us: field(value, "build_us")?
                .as_num()
                .ok_or_else(|| ProtoError::Malformed("build_us is not a number".into()))?,
            task_us: field(value, "task_us")?
                .as_num()
                .ok_or_else(|| ProtoError::Malformed("task_us is not a number".into()))?,
            matrix_bytes: num_field(value, "matrix_bytes")?,
            results: num_field(value, "results")?,
        })
    }
}

impl Response {
    /// Encodes the response as one canonical frame (no trailing newline)
    /// with no request id — the lock-step shape.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_framed(0)
    }

    /// Encodes the response, echoing a pipelined request's id as the
    /// leading `"rid"` key.  `id == 0` emits no key at all, so
    /// `encode_framed(0)` is byte-identical to [`encode`].
    ///
    /// [`encode`]: Response::encode
    pub fn encode_framed(&self, id: u64) -> Vec<u8> {
        let value = self.frame_json();
        if id == 0 {
            return value.to_bytes();
        }
        match value {
            Json::Obj(mut pairs) => {
                pairs.insert(0, ("rid".to_string(), Json::num(id)));
                Json::Obj(pairs).to_bytes()
            }
            other => other.to_bytes(),
        }
    }

    /// The response as one canonical JSON object (no envelope).
    fn frame_json(&self) -> Json {
        match self {
            Response::Pong { proto } => {
                obj(vec![("ok", Json::Bool(true)), ("proto", Json::num(*proto))])
            }
            Response::QueryAdded { id } => {
                obj(vec![("ok", Json::Bool(true)), ("query", Json::num(*id))])
            }
            Response::DocAdded { id, shards, len } => obj(vec![
                ("ok", Json::Bool(true)),
                ("doc", Json::num(*id)),
                ("shards", Json::num(*shards)),
                ("len", Json::num(*len)),
            ]),
            Response::NonEmpty {
                value,
                stats,
                trace,
            } => {
                let mut pairs = vec![
                    ("ok", Json::Bool(true)),
                    ("non_empty", Json::Bool(*value)),
                    ("stats", stats.to_json()),
                ];
                push_response_trace(&mut pairs, trace);
                obj(pairs)
            }
            Response::Checked {
                value,
                stats,
                trace,
            } => {
                let mut pairs = vec![
                    ("ok", Json::Bool(true)),
                    ("checked", Json::Bool(*value)),
                    ("stats", stats.to_json()),
                ];
                push_response_trace(&mut pairs, trace);
                obj(pairs)
            }
            Response::Counted {
                value,
                stats,
                trace,
            } => {
                let mut pairs = vec![
                    ("ok", Json::Bool(true)),
                    ("count", Json::Num(*value)),
                    ("stats", stats.to_json()),
                ];
                push_response_trace(&mut pairs, trace);
                obj(pairs)
            }
            Response::Tuples {
                tuples,
                stats,
                trace,
            } => {
                let mut pairs = vec![
                    ("ok", Json::Bool(true)),
                    ("tuples", tuples_to_json(tuples)),
                    ("stats", stats.to_json()),
                ];
                push_response_trace(&mut pairs, trace);
                obj(pairs)
            }
            Response::Page { tuples } => obj(vec![("page", tuples_to_json(tuples))]),
            Response::StreamEnd {
                streamed,
                stats,
                trace,
            } => {
                let mut pairs = vec![
                    ("ok", Json::Bool(true)),
                    ("streamed", Json::num(*streamed)),
                    ("stats", stats.to_json()),
                ];
                push_response_trace(&mut pairs, trace);
                obj(pairs)
            }
            Response::DocRemoved { id } => {
                obj(vec![("ok", Json::Bool(true)), ("removed", Json::num(*id))])
            }
            Response::ShardBuilt {
                q,
                rows,
                elapsed_us,
                spans,
            } => {
                let mut pairs = vec![
                    ("ok", Json::Bool(true)),
                    ("q", Json::num(*q)),
                    ("planes", planes_to_json(rows)),
                    ("elapsed_us", Json::num(*elapsed_us)),
                ];
                if !spans.is_empty() {
                    pairs.push(("trace", spans_to_json(spans)));
                }
                obj(pairs)
            }
            Response::NeedBlocks {
                need_nfa,
                need_block,
            } => {
                let mut need = Vec::new();
                if *need_nfa {
                    need.push(Json::str("nfa"));
                }
                if *need_block {
                    need.push(Json::str("block"));
                }
                obj(vec![("ok", Json::Bool(true)), ("need", Json::Arr(need))])
            }
            Response::TenantOk { id, created } => obj(vec![
                ("ok", Json::Bool(true)),
                ("tenant", Json::num(*id)),
                ("created", Json::Bool(*created)),
            ]),
            Response::Stats { text } => {
                obj(vec![("ok", Json::Bool(true)), ("metrics", Json::str(text))])
            }
            Response::ShuttingDown => obj(vec![
                ("ok", Json::Bool(true)),
                ("shutting_down", Json::Bool(true)),
            ]),
            Response::Error { code, detail } => obj(vec![
                ("ok", Json::Bool(false)),
                ("error", Json::str(code.as_str())),
                ("detail", Json::str(detail)),
            ]),
        }
    }

    /// Decodes one response frame, discarding any `"rid"` envelope.
    pub fn decode(line: &[u8]) -> Result<Response, ProtoError> {
        Response::decode_framed(line).map(|(_, response)| response)
    }

    /// Decodes one response frame together with the request id it echoes
    /// (`0` for lock-step responses, which carry no `"rid"` key).
    pub fn decode_framed(line: &[u8]) -> Result<(u64, Response), ProtoError> {
        let value = Json::parse(line)?;
        let id = match value.get("rid") {
            None => 0,
            Some(id) => number(id, "request id")?,
        };
        Ok((id, Response::decode_value(&value)?))
    }

    /// The payload-key dispatch shared by both decode entry points.
    fn decode_value(value: &Json) -> Result<Response, ProtoError> {
        if let Some(page) = value.get("page") {
            return Ok(Response::Page {
                tuples: tuples_from_json(page)?,
            });
        }
        if !bool_field(value, "ok")? {
            let code_bytes = str_field(value, "error")?;
            let code = ErrorCode::parse(&code_bytes).ok_or_else(|| {
                ProtoError::Malformed(format!(
                    "unknown error code '{}'",
                    String::from_utf8_lossy(&code_bytes)
                ))
            })?;
            return Ok(Response::Error {
                code,
                detail: String::from_utf8_lossy(&str_field(value, "detail")?).into_owned(),
            });
        }
        if let Some(proto) = value.get("proto") {
            return Ok(Response::Pong {
                proto: number(proto, "proto")?,
            });
        }
        if let Some(id) = value.get("query") {
            return Ok(Response::QueryAdded {
                id: number(id, "query")?,
            });
        }
        if let Some(id) = value.get("doc") {
            return Ok(Response::DocAdded {
                id: number(id, "doc")?,
                shards: num_field(value, "shards")?,
                len: num_field(value, "len")?,
            });
        }
        if let Some(flag) = value.get("non_empty") {
            return Ok(Response::NonEmpty {
                value: flag
                    .as_bool()
                    .ok_or_else(|| ProtoError::Malformed("non_empty is not a bool".into()))?,
                stats: WireStats::from_json(field(value, "stats")?)?,
                trace: response_trace(value)?,
            });
        }
        if let Some(flag) = value.get("checked") {
            return Ok(Response::Checked {
                value: flag
                    .as_bool()
                    .ok_or_else(|| ProtoError::Malformed("checked is not a bool".into()))?,
                stats: WireStats::from_json(field(value, "stats")?)?,
                trace: response_trace(value)?,
            });
        }
        if let Some(count) = value.get("count") {
            return Ok(Response::Counted {
                value: count
                    .as_num()
                    .ok_or_else(|| ProtoError::Malformed("count is not a number".into()))?,
                stats: WireStats::from_json(field(value, "stats")?)?,
                trace: response_trace(value)?,
            });
        }
        if let Some(tuples) = value.get("tuples") {
            return Ok(Response::Tuples {
                tuples: tuples_from_json(tuples)?,
                stats: WireStats::from_json(field(value, "stats")?)?,
                trace: response_trace(value)?,
            });
        }
        if let Some(streamed) = value.get("streamed") {
            return Ok(Response::StreamEnd {
                streamed: number(streamed, "streamed")?,
                stats: WireStats::from_json(field(value, "stats")?)?,
                trace: response_trace(value)?,
            });
        }
        if let Some(id) = value.get("removed") {
            return Ok(Response::DocRemoved {
                id: number(id, "removed")?,
            });
        }
        if let Some(need) = value.get("need") {
            let names = need
                .as_arr()
                .ok_or_else(|| ProtoError::Malformed("need is not an array".into()))?;
            let (mut need_nfa, mut need_block) = (false, false);
            for name in names {
                match name.as_str() {
                    Some(b"nfa") => need_nfa = true,
                    Some(b"block") => need_block = true,
                    _ => {
                        return Err(ProtoError::Malformed(
                            "need entry is neither 'nfa' nor 'block'".into(),
                        ))
                    }
                }
            }
            return Ok(Response::NeedBlocks {
                need_nfa,
                need_block,
            });
        }
        if let Some(planes) = value.get("planes") {
            let q = num_field(value, "q")?;
            return Ok(Response::ShardBuilt {
                q,
                rows: planes_from_json(planes, q)?,
                elapsed_us: num_field(value, "elapsed_us")?,
                spans: response_trace(value)?.unwrap_or_default(),
            });
        }
        if let Some(id) = value.get("tenant") {
            return Ok(Response::TenantOk {
                id: u32::try_from(number(id, "tenant")?)
                    .map_err(|_| ProtoError::Malformed("tenant id out of range".into()))?,
                created: bool_field(value, "created")?,
            });
        }
        if value.get("metrics").is_some() {
            return Ok(Response::Stats {
                text: String::from_utf8(str_field(value, "metrics")?)
                    .map_err(|_| ProtoError::Malformed("metrics is not UTF-8".into()))?,
            });
        }
        if value.get("shutting_down").is_some() {
            return Ok(Response::ShuttingDown);
        }
        Err(ProtoError::Malformed(
            "response carries no recognised payload key".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> Span {
        Span::new(start, end).unwrap()
    }

    fn sample_tuple() -> SpanTuple {
        SpanTuple::from_assignment(vec![Some(span(1, 3)), None, Some(span(4, 4))])
    }

    fn sample_stats() -> WireStats {
        WireStats {
            cache_hit: true,
            build_us: 0,
            task_us: 42,
            matrix_bytes: 4096,
            results: 7,
        }
    }

    fn sample_wire_nfa() -> WireNfa {
        WireNfa {
            states: 3,
            start: 0,
            accepting: vec![2],
            arcs: vec![
                WireArc {
                    from: 0,
                    label: WireLabel::Byte(b'a'),
                    to: 1,
                },
                WireArc {
                    from: 1,
                    label: WireLabel::Markers(0b101),
                    to: 1,
                },
                WireArc {
                    from: 1,
                    label: WireLabel::End,
                    to: 2,
                },
                WireArc {
                    from: 0,
                    label: WireLabel::Epsilon,
                    to: 2,
                },
            ],
        }
    }

    #[test]
    fn every_request_round_trips() {
        let requests = vec![
            Request::Ping,
            Request::AddQuery {
                pattern: ".*x{ab}.*".into(),
                alphabet: b"ab".to_vec(),
            },
            Request::AddDoc {
                tenant: 0,
                text: (0u16..=255).map(|b| b as u8).collect(),
            },
            Request::AddDoc {
                tenant: 7,
                text: b"tenant-owned".to_vec(),
            },
            Request::AddDocSharded {
                tenant: 0,
                k: 0,
                text: b"abababab".to_vec(),
            },
            Request::AddDocSharded {
                tenant: 3,
                k: 4,
                text: b"abababab".to_vec(),
            },
            Request::Task {
                trace: 0,
                tenant: 0,
                query: 3,
                doc: 5,
                task: WireTask::NonEmptiness,
            },
            Request::Task {
                trace: 0,
                tenant: 9,
                query: 0,
                doc: 0,
                task: WireTask::ModelCheck(sample_tuple()),
            },
            Request::Task {
                trace: 0,
                tenant: 0,
                query: 1,
                doc: 2,
                task: WireTask::Count,
            },
            Request::Task {
                trace: 0,
                tenant: 0,
                query: 1,
                doc: 2,
                task: WireTask::Compute { limit: None },
            },
            Request::Task {
                trace: 0,
                tenant: 0,
                query: 1,
                doc: 2,
                task: WireTask::Compute { limit: Some(10) },
            },
            Request::Task {
                trace: 0,
                tenant: 0,
                query: 1,
                doc: 2,
                task: WireTask::Enumerate {
                    skip: 5,
                    limit: Some(30),
                },
            },
            Request::RemoveDoc { tenant: 0, doc: 3 },
            Request::RemoveDoc { tenant: 7, doc: 0 },
            Request::TenantCreate {
                spec: spanner_store::TenantSpec {
                    id: 7,
                    name: "acme".into(),
                    max_docs: 10,
                    max_corpus_bytes: 1 << 20,
                    cache_share: 4096,
                    admission_weight: 3,
                },
            },
            Request::TenantUpdate {
                spec: spanner_store::TenantSpec::default_tenant(),
            },
            Request::ShardBuild {
                trace: 0,
                nfa: Some(sample_wire_nfa()),
                rules: Some(vec![
                    NfRule::Leaf(EByte::Byte(b'a')),
                    NfRule::Leaf(EByte::Byte(b'b')),
                    NfRule::Pair(NonTerminal(0), NonTerminal(1)),
                    NfRule::Leaf(EByte::End),
                    NfRule::Pair(NonTerminal(2), NonTerminal(3)),
                ]),
                root: 4,
                nfa_hash: 11,
                block_hash: 13,
            },
            // A fully negotiated warm frame: both halves replaced by their
            // content hashes.
            Request::ShardBuild {
                trace: 0,
                nfa: None,
                rules: None,
                root: 4,
                nfa_hash: 0xdead_beef_cafe_f00d,
                block_hash: 0x0123_4567_89ab_cdef,
            },
            // A half-warm frame (cached automaton, fresh block) as produced
            // when a new document meets an already-shipped query.
            Request::ShardBuild {
                trace: 0,
                nfa: None,
                rules: Some(vec![NfRule::Leaf(EByte::Byte(b'a'))]),
                root: 0,
                nfa_hash: 7,
                block_hash: 9,
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for request in requests {
            let encoded = request.encode();
            let decoded = Request::decode(&encoded).unwrap();
            assert_eq!(decoded, request);
            // Canonical: re-encoding the decoded frame is byte-identical.
            assert_eq!(decoded.encode(), encoded);
            // Frames never contain a newline (they are the framing).
            assert!(!encoded.contains(&b'\n'));
        }
    }

    #[test]
    fn every_response_round_trips() {
        let responses = vec![
            Response::Pong { proto: 1 },
            Response::QueryAdded { id: 9 },
            Response::DocAdded {
                id: 2,
                shards: 4,
                len: 1000,
            },
            Response::NonEmpty {
                trace: None,
                value: true,
                stats: sample_stats(),
            },
            Response::Checked {
                trace: None,
                value: false,
                stats: sample_stats(),
            },
            Response::Counted {
                trace: None,
                value: u128::MAX,
                stats: sample_stats(),
            },
            Response::Tuples {
                trace: None,
                tuples: vec![sample_tuple(), SpanTuple::empty(2)],
                stats: sample_stats(),
            },
            Response::Page {
                tuples: vec![sample_tuple()],
            },
            Response::StreamEnd {
                trace: None,
                streamed: 100,
                stats: sample_stats(),
            },
            Response::DocRemoved { id: 5 },
            Response::NeedBlocks {
                need_nfa: true,
                need_block: false,
            },
            Response::NeedBlocks {
                need_nfa: false,
                need_block: true,
            },
            Response::NeedBlocks {
                need_nfa: true,
                need_block: true,
            },
            Response::ShardBuilt {
                q: 2,
                spans: Vec::new(),
                rows: vec![
                    RMatrix::from_entries(
                        2,
                        &[REntry::Bot, REntry::Empty, REntry::NonEmpty, REntry::Bot],
                    ),
                    RMatrix::from_entries(2, &[REntry::Empty; 4]),
                ],
                elapsed_us: 1234,
            },
            // A q crossing the 64-column word boundary exercises the
            // bitplane packing across padded rows.
            Response::ShardBuilt {
                q: 65,
                spans: Vec::new(),
                rows: vec![RMatrix::from_entries(
                    65,
                    &(0..65usize * 65)
                        .map(|i| match i % 3 {
                            0 => REntry::Bot,
                            1 => REntry::Empty,
                            _ => REntry::NonEmpty,
                        })
                        .collect::<Vec<_>>(),
                )],
                elapsed_us: 7,
            },
            Response::TenantOk {
                id: 7,
                created: true,
            },
            // Scrape text spans many lines; the frame escapes them.
            Response::Stats {
                text: "spanner_requests_total 11\nspanner_tenant_docs{tenant=\"7\"} 4".into(),
            },
            Response::Stats {
                text: String::new(),
            },
            Response::ShuttingDown,
        ];
        for response in responses {
            let encoded = response.encode();
            let decoded = Response::decode(&encoded).unwrap();
            assert_eq!(decoded, response);
            assert_eq!(decoded.encode(), encoded);
            assert!(!encoded.contains(&b'\n'));
        }
        for code in [
            ErrorCode::Busy,
            ErrorCode::Malformed,
            ErrorCode::Oversized,
            ErrorCode::Version,
            ErrorCode::UnknownId,
            ErrorCode::Eval,
            ErrorCode::Unsupported,
            ErrorCode::ShuttingDown,
            ErrorCode::Quota,
            ErrorCode::Expired,
        ] {
            let response = Response::Error {
                code,
                detail: format!("detail for {code}"),
            };
            assert_eq!(Response::decode(&response.encode()).unwrap(), response);
        }
    }

    #[test]
    fn default_tenant_frames_are_byte_identical_to_pre_tenancy_frames() {
        // A client that never names a tenant emits no "t" field; those
        // exact bytes must decode to tenant 0, and tenant-0 frames must
        // encode back to those exact bytes (no "t" key anywhere).
        let untenanted: &[u8] = b"{\"v\":3,\"op\":\"remove_doc\",\"doc\":3}";
        let decoded = Request::decode(untenanted).unwrap();
        assert_eq!(decoded, Request::RemoveDoc { tenant: 0, doc: 3 });
        assert_eq!(decoded.encode(), untenanted);
        for request in [
            Request::AddDoc {
                tenant: 0,
                text: b"x".to_vec(),
            },
            Request::AddDocSharded {
                tenant: 0,
                k: 2,
                text: b"x".to_vec(),
            },
            Request::RemoveDoc { tenant: 0, doc: 3 },
            Request::Task {
                trace: 0,
                tenant: 0,
                query: 1,
                doc: 2,
                task: WireTask::Count,
            },
        ] {
            let encoded = request.encode();
            assert!(
                !String::from_utf8_lossy(&encoded).contains("\"t\""),
                "{}",
                String::from_utf8_lossy(&encoded)
            );
        }
        // Non-default tenants round-trip through the "t" field.
        let tenated = Request::RemoveDoc { tenant: 5, doc: 3 }.encode();
        assert!(String::from_utf8_lossy(&tenated).contains("\"t\":5"));
    }

    fn sample_spans() -> Vec<SpanRec> {
        vec![
            SpanRec {
                name: "admit".into(),
                start_us: 0,
                dur_us: 12,
                parent: None,
                attrs: vec![("tenant".into(), "0".into())],
            },
            SpanRec {
                name: "task_exec".into(),
                start_us: 15,
                dur_us: 40,
                parent: Some(0),
                attrs: Vec::new(),
            },
        ]
    }

    #[test]
    fn traced_frames_round_trip() {
        let frames = vec![
            Request::Task {
                tenant: 0,
                trace: 0x7_0000_002a,
                query: 1,
                doc: 2,
                task: WireTask::Count,
            },
            Request::ShardBuild {
                trace: 99,
                nfa: None,
                rules: None,
                root: 4,
                nfa_hash: 7,
                block_hash: 9,
            },
        ];
        for request in frames {
            let encoded = request.encode();
            let decoded = Request::decode(&encoded).unwrap();
            assert_eq!(decoded, request);
            assert_eq!(decoded.encode(), encoded);
        }
        let responses = vec![
            Response::NonEmpty {
                value: true,
                stats: sample_stats(),
                trace: Some(sample_spans()),
            },
            Response::StreamEnd {
                streamed: 4,
                stats: sample_stats(),
                trace: Some(sample_spans()),
            },
            // An attribute-free single-span tree and an empty tree both
            // survive the optional-key discipline.
            Response::Counted {
                value: 1,
                stats: sample_stats(),
                trace: Some(vec![SpanRec {
                    name: "task_exec".into(),
                    start_us: 3,
                    dur_us: 5,
                    parent: None,
                    attrs: Vec::new(),
                }]),
            },
            Response::Tuples {
                tuples: vec![sample_tuple()],
                stats: sample_stats(),
                trace: Some(Vec::new()),
            },
            Response::ShardBuilt {
                q: 2,
                rows: vec![RMatrix::from_entries(2, &[REntry::Empty; 4])],
                elapsed_us: 11,
                spans: sample_spans(),
            },
        ];
        for response in responses {
            let encoded = response.encode();
            let decoded = Response::decode(&encoded).unwrap();
            assert_eq!(decoded, response);
            assert_eq!(decoded.encode(), encoded);
        }
    }

    #[test]
    fn traceless_frames_are_byte_identical_to_pre_tracing_frames() {
        // A client that never traces emits no "tr" field; those exact
        // bytes must decode to trace 0, and trace-0 frames must encode back
        // to those exact bytes.
        let untraced: &[u8] = b"{\"v\":3,\"op\":\"task\",\"task\":\"count\",\"query\":1,\"doc\":2}";
        let decoded = Request::decode(untraced).unwrap();
        assert_eq!(
            decoded,
            Request::Task {
                tenant: 0,
                trace: 0,
                query: 1,
                doc: 2,
                task: WireTask::Count,
            }
        );
        assert_eq!(decoded.encode(), untraced);
        // Untraced responses carry no "trace"/"spans" keys at all.
        for (response, forbidden) in [
            (
                Response::Counted {
                    value: 9,
                    stats: sample_stats(),
                    trace: None,
                },
                "\"trace\"",
            ),
            (
                Response::ShardBuilt {
                    q: 2,
                    rows: vec![RMatrix::from_entries(2, &[REntry::Empty; 4])],
                    elapsed_us: 11,
                    spans: Vec::new(),
                },
                "\"spans\"",
            ),
        ] {
            let text = String::from_utf8(response.encode()).unwrap();
            assert!(!text.contains(forbidden), "{text}");
            assert_eq!(Response::decode(text.as_bytes()).unwrap(), response);
        }
        let traceless = Request::ShardBuild {
            trace: 0,
            nfa: None,
            rules: None,
            root: 4,
            nfa_hash: 7,
            block_hash: 9,
        };
        let text = String::from_utf8(traceless.encode()).unwrap();
        assert!(!text.contains("\"tr\""), "{text}");
    }

    #[test]
    fn version_mismatch_is_a_distinct_error() {
        let mut frame = Request::Ping.encode();
        // Rewrite "v":3 into "v":4.
        let pos = frame.windows(4).position(|w| w == b"\"v\":").unwrap() + 4;
        frame[pos] = b'4';
        assert_eq!(Request::decode(&frame), Err(ProtoError::Version(4)));
        // Older versions are refused the same way.
        frame[pos] = b'2';
        assert_eq!(Request::decode(&frame), Err(ProtoError::Version(2)));
    }

    #[test]
    fn framed_requests_round_trip_rid_and_deadline() {
        let request = Request::Task {
            trace: 0,
            tenant: 4,
            query: 1,
            doc: 2,
            task: WireTask::ModelCheck(sample_tuple()),
        };
        for meta in [
            FrameMeta {
                id: 7,
                deadline_us: 0,
            },
            FrameMeta {
                id: u64::MAX,
                deadline_us: 125_000,
            },
            FrameMeta {
                id: 1,
                deadline_us: 1,
            },
        ] {
            let encoded = request.encode_with(meta);
            let (decoded, got) = Request::decode_framed(&encoded).unwrap();
            assert_eq!(decoded, request);
            assert_eq!(got, meta);
            // Canonical: re-encoding with the decoded meta is the identity.
            assert_eq!(decoded.encode_with(got), encoded);
        }
        // The envelope keys ride ahead of the op payload.
        let text = String::from_utf8(request.encode_with(FrameMeta {
            id: 9,
            deadline_us: 50,
        }))
        .unwrap();
        assert!(text.starts_with("{\"v\":3,\"rid\":9,\"dl\":50,"), "{text}");
    }

    #[test]
    fn idless_frames_are_byte_identical_to_lockstep_frames() {
        // A client that never pipelines emits no "rid"/"dl" keys: the
        // framed encoder with FrameMeta::NONE is byte-for-byte the plain
        // lock-step encoder.
        for request in [
            Request::Ping,
            Request::Task {
                trace: 0,
                tenant: 0,
                query: 1,
                doc: 2,
                task: WireTask::Count,
            },
            Request::Stats,
        ] {
            let plain = request.encode();
            assert_eq!(request.encode_with(FrameMeta::NONE), plain);
            let text = String::from_utf8(plain).unwrap();
            assert!(!text.contains("\"rid\""), "{text}");
            assert!(!text.contains("\"dl\""), "{text}");
        }
        let (_, meta) = Request::decode_framed(&Request::Ping.encode()).unwrap();
        assert_eq!(meta, FrameMeta::NONE);
    }

    #[test]
    fn framed_responses_carry_the_request_id() {
        let responses = vec![
            Response::Pong { proto: 3 },
            Response::Counted {
                trace: None,
                value: 40,
                stats: sample_stats(),
            },
            // Stream pages multiplex too: each page names its request.
            Response::Page {
                tuples: vec![sample_tuple()],
            },
            Response::StreamEnd {
                trace: None,
                streamed: 3,
                stats: sample_stats(),
            },
            Response::Error {
                code: ErrorCode::Expired,
                detail: "deadline elapsed in queue".into(),
            },
        ];
        for response in responses {
            for id in [1u64, 42, u64::MAX] {
                let encoded = response.encode_framed(id);
                let (got_id, decoded) = Response::decode_framed(&encoded).unwrap();
                assert_eq!(got_id, id);
                assert_eq!(decoded, response);
                assert_eq!(decoded.encode_framed(got_id), encoded);
                // The id is the leading key so demuxers can route cheaply.
                let text = String::from_utf8(encoded).unwrap();
                assert!(text.starts_with(&format!("{{\"rid\":{id},")), "{text}");
            }
            // id 0 is the lock-step sentinel: no "rid" key at all, and the
            // bytes are identical to the unframed encoder.
            let bare = response.encode_framed(0);
            assert_eq!(bare, response.encode());
            assert!(!String::from_utf8_lossy(&bare).contains("\"rid\""));
            let (got_id, decoded) = Response::decode_framed(&bare).unwrap();
            assert_eq!(got_id, 0);
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn malformed_frames_are_rejected_with_detail() {
        for bad in [
            &b"not json"[..],
            b"{}",
            b"{\"v\":3}",
            b"{\"v\":3,\"op\":\"nope\"}",
            b"{\"v\":3,\"op\":\"task\",\"task\":\"count\",\"query\":0}",
            b"{\"v\":3,\"op\":\"task\",\"task\":\"model_check\",\"query\":0,\"doc\":0,\"tuple\":[[3,1]]}",
            // Both content hashes are mandatory on shard_build.
            b"{\"v\":3,\"op\":\"shard_build\",\"rules\":\"AGE=\",\"root\":0,\"nh\":7}",
        ] {
            assert!(
                matches!(Request::decode(bad), Err(ProtoError::Malformed(_))),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn wire_nfa_round_trips_through_a_real_automaton() {
        // A prepared query's end-transformed automaton survives the wire
        // codec arc-for-arc: rebuilding it and re-encoding is the identity.
        use spanner::regex;
        use spanner_slp_core::engine::PreparedQuery;
        let m = regex::compile(".*x{a+}y{b+}.*", b"ab").unwrap();
        let query = PreparedQuery::determinized(&m);
        let wire = WireNfa::from_nfa(query.nfa());
        assert_eq!(wire.states as usize, query.nfa().num_states());
        let rebuilt = wire.to_nfa().unwrap();
        assert_eq!(rebuilt.num_states(), query.nfa().num_states());
        assert_eq!(rebuilt.start(), query.nfa().start());
        assert_eq!(rebuilt.accepting_states(), query.nfa().accepting_states());
        assert_eq!(WireNfa::from_nfa(&rebuilt), wire);
    }

    #[test]
    fn wire_nfa_rejects_out_of_range_states() {
        for bad in [
            WireNfa {
                states: 0,
                ..Default::default()
            },
            // A tiny frame claiming an astronomic state count must be
            // rejected before the O(states) allocation, not after.
            WireNfa {
                states: WireNfa::MAX_STATES + 1,
                ..Default::default()
            },
            WireNfa {
                states: 2,
                start: 2,
                ..Default::default()
            },
            WireNfa {
                states: 2,
                accepting: vec![5],
                ..Default::default()
            },
            WireNfa {
                states: 2,
                arcs: vec![WireArc {
                    from: 0,
                    label: WireLabel::End,
                    to: 9,
                }],
                ..Default::default()
            },
        ] {
            assert!(bad.to_nfa().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn shard_build_payloads_ship_summaries_not_matrices() {
        // The gather payload is 2 bits per three-valued entry — the full
        // marker-set matrices (and the document text) never appear, and
        // the packed planes undercut even a one-byte-per-entry bound.
        let rows = vec![RMatrix::from_entries(3, &[REntry::NonEmpty; 9]); 7];
        let response = Response::ShardBuilt {
            q: 3,
            spans: Vec::new(),
            rows: rows.clone(),
            elapsed_us: 1,
        };
        let encoded = response.encode();
        // 7 rules × 2 planes × ⌈9/8⌉ bytes = 28 packed bytes → 38 base64
        // characters, well under the 63 bytes one byte per entry would
        // need (plus fixed framing either way).
        assert!(encoded.len() < 63 + 64, "{}", encoded.len());
        match Response::decode(&encoded).unwrap() {
            Response::ShardBuilt { rows: decoded, .. } => assert_eq!(decoded, rows),
            other => panic!("{other:?}"),
        }
        // Mis-sized planes are rejected, not mis-chunked: chop one whole
        // base64 group (3 packed bytes) out of the payload.
        let text = String::from_utf8(encoded).unwrap();
        let value = Json::parse(text.as_bytes()).unwrap();
        let planes = value.get("planes").unwrap().as_str().unwrap();
        let truncated = &planes[..planes.len() - 4];
        let tampered = text.replace(
            std::str::from_utf8(planes).unwrap(),
            std::str::from_utf8(truncated).unwrap(),
        );
        assert!(matches!(
            Response::decode(tampered.as_bytes()),
            Err(ProtoError::Malformed(_))
        ));
        // A hostile q whose square overflows u64 is a malformed frame, not
        // an arithmetic panic.
        let hostile = format!(
            "{{\"ok\":true,\"q\":{},\"planes\":\"AA\",\"elapsed_us\":1}}",
            u64::MAX
        );
        assert!(matches!(
            Response::decode(hostile.as_bytes()),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn packed_planes_reject_invariant_violations() {
        // One rule, q = 2: plane stride ⌈4/8⌉ = 1 byte.  nonbot = 0b0001,
        // nonempty = 0b0010 puts a 1 entry where nonbot is clear.
        let bad = b64_encode(&[0b0001, 0b0010]);
        let frame = format!(
            "{{\"ok\":true,\"q\":2,\"planes\":\"{}\",\"elapsed_us\":1}}",
            String::from_utf8(bad).unwrap()
        );
        assert!(matches!(
            Response::decode(frame.as_bytes()),
            Err(ProtoError::Malformed(_))
        ));
        // Non-zero padding bits beyond q² are equally malformed: they
        // could not have come from the canonical encoder.
        let padded = b64_encode(&[0b1_0000, 0b0000]);
        let frame = format!(
            "{{\"ok\":true,\"q\":2,\"planes\":\"{}\",\"elapsed_us\":1}}",
            String::from_utf8(padded).unwrap()
        );
        assert!(matches!(
            Response::decode(frame.as_bytes()),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn packed_rules_round_trip_deep_blocks() {
        // Deltas in both directions (a pair may reference any local index)
        // and long leaf runs survive the varint stream.
        let mut rules: Vec<NfRule<EByte>> =
            (0..200u8).map(|b| NfRule::Leaf(EByte::Byte(b))).collect();
        rules.push(NfRule::Pair(NonTerminal(0), NonTerminal(199)));
        rules.push(NfRule::Pair(NonTerminal(200), NonTerminal(3)));
        rules.push(NfRule::Leaf(EByte::End));
        rules.push(NfRule::Pair(NonTerminal(201), NonTerminal(202)));
        let encoded = rules_to_json(&rules);
        assert_eq!(rules_from_json(&encoded).unwrap(), rules);
        // Forward references (a child above its rule) are unusual but
        // representable: the zigzag delta goes negative.
        let forward = vec![
            NfRule::Pair(NonTerminal(1), NonTerminal(2)),
            NfRule::Leaf(EByte::Byte(b'x')),
            NfRule::Leaf(EByte::End),
        ];
        let encoded = rules_to_json(&forward);
        assert_eq!(rules_from_json(&encoded).unwrap(), forward);
    }

    #[test]
    fn task_kinds_map_to_core_tasks() {
        assert_eq!(WireTask::NonEmptiness.to_task(), Task::NonEmptiness);
        assert_eq!(WireTask::Count.to_task(), Task::Count);
        assert_eq!(
            WireTask::Compute { limit: Some(5) }.to_task(),
            Task::Compute { limit: Some(5) }
        );
        assert_eq!(
            WireTask::Enumerate {
                skip: 2,
                limit: None
            }
            .to_task(),
            Task::Enumerate {
                skip: 2,
                limit: None
            }
        );
        let tuple = sample_tuple();
        assert_eq!(
            WireTask::ModelCheck(tuple.clone()).to_task(),
            Task::ModelCheck(tuple)
        );
    }
}
