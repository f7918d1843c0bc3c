//! The length-prefixed binary wire protocol shared by `ftb-serve` and
//! `ftb-loadgen`.
//!
//! Every message travels as one *frame*: a 4-byte little-endian payload
//! length followed by the payload, whose first byte is an opcode
//! (requests `0x01..`, responses `0x81..`) and whose remaining bytes are
//! fixed-order little-endian fields. Lengths above [`MAX_FRAME_LEN`] are
//! rejected before any allocation, so a corrupt or hostile length prefix
//! cannot balloon memory.
//!
//! The session starts with a handshake: the client sends
//! [`Request::Hello`] carrying its [`PROTOCOL_VERSION`], which must equal
//! the server's (there is one protocol version, no negotiation); the
//! server answers [`Response::HelloOk`] with that version, the graph's
//! [fingerprint](ftb_graph::Graph::fingerprint) and dimensions, and the
//! served sources. The fingerprint is the load generator's correctness
//! anchor: a client that regenerates the workload locally (same family /
//! `n` / seed) verifies it is naming vertices and edges of the *same*
//! graph before sending a single query.
//!
//! The server's counters are not a frame of their own: [`Request::Metrics`]
//! returns the whole metrics registry, which `ftb_obs::Scrape` reads back.
//!
//! Decoding never panics: every malformed input maps to a typed
//! [`DecodeError`], and a payload must be consumed exactly (trailing bytes
//! are an error, not ignored).

use ftb_graph::{EdgeId, Fault, FaultSet, VertexId};
use std::io::{Read, Write};

/// The protocol version spoken by this build. A [`Request::Hello`] naming
/// any other version is answered with [`ErrorCode::ProtocolViolation`] and
/// the connection closes.
pub const PROTOCOL_VERSION: u16 = 5;

/// Upper bound on a frame payload; length prefixes beyond it are rejected
/// as [`DecodeError::FrameTooLarge`] before allocating.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Open the session: announce the client's protocol version.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        client_version: u16,
    },
    /// Post-failure distance `dist(source, target, G ∖ faults)`.
    Dist {
        /// Source vertex (must be one the engine serves).
        source: VertexId,
        /// Target vertex.
        target: VertexId,
        /// The failed edges/vertices.
        faults: FaultSet,
    },
    /// A concrete post-failure shortest path.
    Path {
        /// Source vertex (must be one the engine serves).
        source: VertexId,
        /// Target vertex.
        target: VertexId,
        /// The failed edges/vertices.
        faults: FaultSet,
    },
    /// Many distance queries from one source in a single frame.
    BatchDist {
        /// Source vertex shared by the whole batch.
        source: VertexId,
        /// `(target, faults)` pairs, answered in order.
        queries: Vec<(VertexId, FaultSet)>,
    },
    /// One-to-many distances: one source, one shared fault set, many
    /// targets. The server answers the whole frame with a single batched
    /// unaffected classification and at most one repair sweep
    /// ([`QueryContext::dist_many_after_faults`](ftb_core::QueryContext::dist_many_after_faults)),
    /// so this is the cheapest way to ask for many distances under the
    /// same failure event.
    DistMany {
        /// Source vertex shared by every target.
        source: VertexId,
        /// Targets, answered in order.
        targets: Vec<VertexId>,
        /// The failed edges/vertices, shared by the whole frame.
        faults: FaultSet,
    },
    /// Ask the server to shut down gracefully.
    Shutdown,
    /// Ask for the full metrics snapshot: every counter, gauge and
    /// histogram of the server's registry. Answered inline on the
    /// connection thread without a query context, so it stays responsive
    /// even when every context is busy.
    Metrics {
        /// Requested exposition format.
        format: MetricsFormat,
    },
    /// Ask for the slow-query board: the top-K requests by
    /// handle time, slowest first, with fault set and stage breakdown.
    SlowQueries,
    /// A query request carrying a client-supplied deadline.
    ///
    /// The budget starts when the server admits the request. A request
    /// whose budget expires while it waits for a query context (or between
    /// the fault-set groups of a batch) is shed with
    /// [`ErrorCode::DeadlineExceeded`] instead of burning a BFS on an
    /// answer nobody is waiting for. When the server also has a
    /// `--request-timeout-ms` budget, the *smaller* of the two wins.
    ///
    /// Only query opcodes may be wrapped ([`Request::Dist`],
    /// [`Request::Path`], [`Request::BatchDist`], [`Request::DistMany`]) —
    /// control frames are answered inline and never wait, so a deadline
    /// on them is meaningless and decoding rejects it (this also rules out
    /// nested wrappers, keeping decode depth constant).
    Deadline {
        /// The client's budget in milliseconds, measured from admission.
        budget_ms: u32,
        /// The wrapped query request.
        inner: Box<Request>,
    },
}

/// Exposition format carried by [`Request::Metrics`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum MetricsFormat {
    /// Prometheus text exposition format — what a scraper expects.
    Prometheus = 0,
    /// One JSON object keyed by `name{labels}` — what
    /// `ftb-loadgen --metrics-out` writes for trajectory tooling.
    Json = 1,
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// The server's [`PROTOCOL_VERSION`].
        version: u16,
        /// [`Graph::fingerprint`](ftb_graph::Graph::fingerprint) of the
        /// served graph.
        fingerprint: u64,
        /// Vertex count of the served graph.
        num_vertices: u32,
        /// Edge count of the served graph.
        num_edges: u32,
        /// The sources the engine can answer from.
        sources: Vec<VertexId>,
    },
    /// Distance answer; `None` means the faults disconnect the target.
    Dist(Option<u32>),
    /// Path answer; `None` means the faults disconnect the target.
    Path(Option<WirePath>),
    /// Batched distance answers, in request order.
    BatchDist(Vec<Option<u32>>),
    /// One-to-many distance answers, in target order.
    DistMany(Vec<Option<u32>>),
    /// Acknowledgement of a [`Request::Shutdown`]; the connection closes
    /// after this frame.
    ShuttingDown,
    /// Every query context was busy and the waiting room full: the request
    /// was **shed**, not buffered. The client may retry; the server made no progress on it.
    Overloaded,
    /// The request was invalid; `code` is an [`ErrorCode`] discriminant.
    Error {
        /// Machine-readable [`ErrorCode`] as `u16`.
        code: u16,
        /// Human-readable context.
        message: String,
    },
    /// The rendered metrics snapshot, in the format the request named.
    MetricsText(String),
    /// The slow-query board, slowest first.
    SlowQueries(Vec<SlowQueryReport>),
}

/// One slow-query board entry: which request it was, what it touched, and
/// where its nanoseconds went (context wait / compute / response encode) plus the per-tier answer counts the engine recorded for it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlowQueryReport {
    /// Request opcode (`0x02` Dist, `0x03` Path, `0x04` BatchDist,
    /// `0x07` DistMany).
    pub opcode: u8,
    /// The query's source vertex.
    pub source: VertexId,
    /// Number of targets the request carried (1 for Dist/Path).
    pub targets: u32,
    /// The fault set the request named.
    pub faults: FaultSet,
    /// Nanoseconds from admission until a query context was checked out.
    pub queue_nanos: u64,
    /// Nanoseconds spent computing the answer on the context (the board's
    /// ranking key).
    pub handle_nanos: u64,
    /// Nanoseconds the connection thread spent encoding the response.
    pub encode_nanos: u64,
    /// Per-tier answer counts, in
    /// [`TierCounters::NAMES`](ftb_core::TierCounters::NAMES) order.
    pub tiers: [u64; 6],
}

/// A path as transported on the wire: the vertex sequence and the edge ids
/// connecting consecutive vertices (`edges.len() + 1 == vertices.len()`,
/// enforced at decode time).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WirePath {
    /// Vertex sequence from source to target.
    pub vertices: Vec<VertexId>,
    /// Edge ids connecting consecutive vertices.
    pub edges: Vec<EdgeId>,
}

/// Machine-readable error codes carried by [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// A vertex id outside the graph.
    VertexOutOfRange = 1,
    // Code 2 is unassigned: every wire query names its failures as a fault
    // set, so an out-of-range edge is an `InvalidFault`.
    /// A fault naming a vertex/edge outside the graph.
    InvalidFault = 3,
    /// More simultaneous faults than the engine's configured cap.
    FaultSetTooLarge = 4,
    /// A source the engine was not built for.
    SourceNotServed = 5,
    /// The client's frame could not be decoded.
    MalformedFrame = 6,
    /// A protocol-state violation (e.g. queries before `Hello`, or a
    /// version the server does not speak).
    ProtocolViolation = 7,
    /// Any other engine-side failure.
    Internal = 8,
    /// The request's deadline (client-supplied or `--request-timeout-ms`)
    /// expired before the server computed the answer; no work was wasted
    /// on it. Distinct from [`ErrorCode::Internal`] (something broke) and
    /// from [`Response::Overloaded`] (admission was refused).
    DeadlineExceeded = 9,
}

impl ErrorCode {
    /// Recover the code from its wire representation.
    pub fn from_u16(code: u16) -> Option<ErrorCode> {
        Some(match code {
            1 => ErrorCode::VertexOutOfRange,
            3 => ErrorCode::InvalidFault,
            4 => ErrorCode::FaultSetTooLarge,
            5 => ErrorCode::SourceNotServed,
            6 => ErrorCode::MalformedFrame,
            7 => ErrorCode::ProtocolViolation,
            8 => ErrorCode::Internal,
            9 => ErrorCode::DeadlineExceeded,
            _ => return None,
        })
    }

    /// The code a given engine error maps to.
    pub fn from_engine_error(err: &ftb_core::FtbfsError) -> ErrorCode {
        use ftb_core::FtbfsError::*;
        match err {
            VertexOutOfRange { .. } => ErrorCode::VertexOutOfRange,
            InvalidFault { .. } => ErrorCode::InvalidFault,
            FaultSetTooLarge { .. } => ErrorCode::FaultSetTooLarge,
            SourceNotServed { .. } => ErrorCode::SourceNotServed,
            _ => ErrorCode::Internal,
        }
    }
}

/// Why a payload failed to decode. Decoding is total: every byte string
/// maps to `Ok` or to one of these — never to a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the message did. Every strict prefix of a
    /// valid payload decodes to this.
    Truncated,
    /// A length prefix beyond [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The claimed payload length.
        len: usize,
    },
    /// The first byte is not a known opcode for this direction.
    UnknownOpcode(u8),
    /// The message decoded but bytes remained.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// An enum tag (fault kind, option flag) held an undefined value.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "payload truncated"),
            DecodeError::FrameTooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME_LEN} cap")
            }
            DecodeError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after message")
            }
            DecodeError::BadTag(tag) => write!(f, "undefined tag value {tag}"),
            DecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new(opcode: u8) -> Self {
        Enc { buf: vec![opcode] }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn faults(&mut self, faults: &FaultSet) {
        debug_assert!(faults.len() <= u8::MAX as usize, "fault cap fits in u8");
        self.u8(faults.len() as u8);
        for fault in faults.iter() {
            match fault {
                Fault::Edge(e) => {
                    self.u8(0);
                    self.u32(e.0);
                }
                Fault::Vertex(v) => {
                    self.u8(1);
                    self.u32(v.0);
                }
            }
        }
    }
    fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(d) => {
                self.u8(1);
                self.u32(d);
            }
        }
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Encode a request payload (opcode + fields, **without** length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut e;
    match req {
        Request::Hello { client_version } => {
            e = Enc::new(0x01);
            e.u16(*client_version);
        }
        Request::Dist {
            source,
            target,
            faults,
        } => {
            e = Enc::new(0x02);
            e.u32(source.0);
            e.u32(target.0);
            e.faults(faults);
        }
        Request::Path {
            source,
            target,
            faults,
        } => {
            e = Enc::new(0x03);
            e.u32(source.0);
            e.u32(target.0);
            e.faults(faults);
        }
        Request::BatchDist { source, queries } => {
            e = Enc::new(0x04);
            e.u32(source.0);
            e.u32(queries.len() as u32);
            for (target, faults) in queries {
                e.u32(target.0);
                e.faults(faults);
            }
        }
        Request::Shutdown => e = Enc::new(0x06),
        Request::DistMany {
            source,
            targets,
            faults,
        } => {
            e = Enc::new(0x07);
            e.u32(source.0);
            e.u32(targets.len() as u32);
            for t in targets {
                e.u32(t.0);
            }
            e.faults(faults);
        }
        Request::Metrics { format } => {
            e = Enc::new(0x08);
            e.u8(*format as u8);
        }
        Request::SlowQueries => e = Enc::new(0x09),
        Request::Deadline { budget_ms, inner } => {
            e = Enc::new(0x0A);
            e.u32(*budget_ms);
            e.buf.extend_from_slice(&encode_request(inner));
        }
    }
    e.buf
}

/// Encode a response payload (opcode + fields, **without** length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut e;
    match resp {
        Response::HelloOk {
            version,
            fingerprint,
            num_vertices,
            num_edges,
            sources,
        } => {
            e = Enc::new(0x81);
            e.u16(*version);
            e.u64(*fingerprint);
            e.u32(*num_vertices);
            e.u32(*num_edges);
            e.u32(sources.len() as u32);
            for s in sources {
                e.u32(s.0);
            }
        }
        Response::Dist(d) => {
            e = Enc::new(0x82);
            e.opt_u32(*d);
        }
        Response::Path(p) => {
            e = Enc::new(0x83);
            match p {
                None => e.u8(0),
                Some(path) => {
                    e.u8(1);
                    e.u32(path.vertices.len() as u32);
                    for v in &path.vertices {
                        e.u32(v.0);
                    }
                    for eid in &path.edges {
                        e.u32(eid.0);
                    }
                }
            }
        }
        Response::BatchDist(ds) => {
            e = Enc::new(0x84);
            e.u32(ds.len() as u32);
            for d in ds {
                e.opt_u32(*d);
            }
        }
        Response::DistMany(ds) => {
            e = Enc::new(0x87);
            e.u32(ds.len() as u32);
            for d in ds {
                e.opt_u32(*d);
            }
        }
        Response::ShuttingDown => e = Enc::new(0x86),
        Response::MetricsText(text) => {
            e = Enc::new(0x88);
            e.str(text);
        }
        Response::SlowQueries(entries) => {
            e = Enc::new(0x89);
            e.u32(entries.len() as u32);
            for q in entries {
                e.u8(q.opcode);
                e.u32(q.source.0);
                e.u32(q.targets);
                e.faults(&q.faults);
                e.u64(q.queue_nanos);
                e.u64(q.handle_nanos);
                e.u64(q.encode_nanos);
                for &t in &q.tiers {
                    e.u64(t);
                }
            }
        }
        Response::Overloaded => e = Enc::new(0x8E),
        Response::Error { code, message } => {
            e = Enc::new(0x8F);
            e.u16(*code);
            e.str(message);
        }
    }
    e.buf
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(DecodeError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    fn faults(&mut self) -> Result<FaultSet, DecodeError> {
        let count = self.u8()? as usize;
        let mut set = FaultSet::new();
        for _ in 0..count {
            let kind = self.u8()?;
            let id = self.u32()?;
            match kind {
                0 => set.insert(Fault::Edge(EdgeId(id))),
                1 => set.insert(Fault::Vertex(VertexId(id))),
                other => return Err(DecodeError::BadTag(other)),
            };
        }
        Ok(set)
    }
    fn opt_u32(&mut self) -> Result<Option<u32>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            other => Err(DecodeError::BadTag(other)),
        }
    }
    fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
    fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes {
                remaining: self.buf.len() - self.pos,
            })
        }
    }
}

/// Decode a request payload. The whole slice must be consumed.
pub fn decode_request(payload: &[u8]) -> Result<Request, DecodeError> {
    let mut d = Dec::new(payload);
    let req = match d.u8()? {
        0x01 => Request::Hello {
            client_version: d.u16()?,
        },
        0x02 => Request::Dist {
            source: VertexId(d.u32()?),
            target: VertexId(d.u32()?),
            faults: d.faults()?,
        },
        0x03 => Request::Path {
            source: VertexId(d.u32()?),
            target: VertexId(d.u32()?),
            faults: d.faults()?,
        },
        0x04 => {
            let source = VertexId(d.u32()?);
            let count = d.u32()? as usize;
            // Cap pre-allocation by what the payload could possibly hold
            // (each query is ≥ 5 bytes): a lying count cannot OOM us.
            let mut queries = Vec::with_capacity(count.min(payload.len() / 5 + 1));
            for _ in 0..count {
                let target = VertexId(d.u32()?);
                let faults = d.faults()?;
                queries.push((target, faults));
            }
            Request::BatchDist { source, queries }
        }
        0x06 => Request::Shutdown,
        0x07 => {
            let source = VertexId(d.u32()?);
            let count = d.u32()? as usize;
            // Same lying-count guard as BatchDist: each target is 4 bytes.
            let mut targets = Vec::with_capacity(count.min(payload.len() / 4 + 1));
            for _ in 0..count {
                targets.push(VertexId(d.u32()?));
            }
            let faults = d.faults()?;
            Request::DistMany {
                source,
                targets,
                faults,
            }
        }
        0x08 => Request::Metrics {
            format: match d.u8()? {
                0 => MetricsFormat::Prometheus,
                1 => MetricsFormat::Json,
                other => return Err(DecodeError::BadTag(other)),
            },
        },
        0x09 => Request::SlowQueries,
        0x0A => {
            let budget_ms = d.u32()?;
            // Check the wrapped opcode *before* recursing: only query
            // opcodes are legal inside a deadline, which both enforces the
            // protocol rule (control frames never wait) and bounds decode
            // depth at one — a nested-0x0A bomb cannot recurse.
            let rest = &payload[d.pos..];
            match rest.first() {
                None => return Err(DecodeError::Truncated),
                Some(0x02 | 0x03 | 0x04 | 0x07) => {}
                Some(&op) => return Err(DecodeError::BadTag(op)),
            }
            let inner = decode_request(rest)?;
            d.pos = payload.len();
            Request::Deadline {
                budget_ms,
                inner: Box::new(inner),
            }
        }
        other => return Err(DecodeError::UnknownOpcode(other)),
    };
    d.finish()?;
    Ok(req)
}

/// Decode a response payload. The whole slice must be consumed.
pub fn decode_response(payload: &[u8]) -> Result<Response, DecodeError> {
    let mut d = Dec::new(payload);
    let resp = match d.u8()? {
        0x81 => {
            let version = d.u16()?;
            let fingerprint = d.u64()?;
            let num_vertices = d.u32()?;
            let num_edges = d.u32()?;
            let count = d.u32()? as usize;
            let mut sources = Vec::with_capacity(count.min(payload.len() / 4 + 1));
            for _ in 0..count {
                sources.push(VertexId(d.u32()?));
            }
            Response::HelloOk {
                version,
                fingerprint,
                num_vertices,
                num_edges,
                sources,
            }
        }
        0x82 => Response::Dist(d.opt_u32()?),
        0x83 => match d.u8()? {
            0 => Response::Path(None),
            1 => {
                let nv = d.u32()? as usize;
                if nv == 0 {
                    return Err(DecodeError::BadTag(1));
                }
                let cap = nv.min(payload.len() / 4 + 1);
                let mut vertices = Vec::with_capacity(cap);
                for _ in 0..nv {
                    vertices.push(VertexId(d.u32()?));
                }
                let mut edges = Vec::with_capacity(cap);
                for _ in 0..nv - 1 {
                    edges.push(EdgeId(d.u32()?));
                }
                Response::Path(Some(WirePath { vertices, edges }))
            }
            other => return Err(DecodeError::BadTag(other)),
        },
        0x84 => {
            let count = d.u32()? as usize;
            let mut ds = Vec::with_capacity(count.min(payload.len() + 1));
            for _ in 0..count {
                ds.push(d.opt_u32()?);
            }
            Response::BatchDist(ds)
        }
        0x86 => Response::ShuttingDown,
        0x87 => {
            let count = d.u32()? as usize;
            let mut ds = Vec::with_capacity(count.min(payload.len() + 1));
            for _ in 0..count {
                ds.push(d.opt_u32()?);
            }
            Response::DistMany(ds)
        }
        0x88 => Response::MetricsText(d.str()?),
        0x89 => {
            let count = d.u32()? as usize;
            // Each entry is ≥ 82 bytes; a lying count cannot OOM us.
            let mut entries = Vec::with_capacity(count.min(payload.len() / 82 + 1));
            for _ in 0..count {
                let opcode = d.u8()?;
                let source = VertexId(d.u32()?);
                let targets = d.u32()?;
                let faults = d.faults()?;
                let queue_nanos = d.u64()?;
                let handle_nanos = d.u64()?;
                let encode_nanos = d.u64()?;
                let mut tiers = [0u64; 6];
                for t in tiers.iter_mut() {
                    *t = d.u64()?;
                }
                entries.push(SlowQueryReport {
                    opcode,
                    source,
                    targets,
                    faults,
                    queue_nanos,
                    handle_nanos,
                    encode_nanos,
                    tiers,
                });
            }
            Response::SlowQueries(entries)
        }
        0x8E => Response::Overloaded,
        0x8F => Response::Error {
            code: d.u16()?,
            message: d.str()?,
        },
        other => return Err(DecodeError::UnknownOpcode(other)),
    };
    d.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Write one frame (length prefix + payload) to `w`.
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`] — a server-side encoding
/// bug, not a peer-controlled condition.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    assert!(payload.len() <= MAX_FRAME_LEN, "oversized outgoing frame");
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame's payload from `r` (blocking).
///
/// Returns `Ok(None)` on clean EOF at a frame boundary. A length prefix
/// beyond [`MAX_FRAME_LEN`] or EOF mid-frame becomes an
/// `InvalidData` error.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read(&mut len_bytes)? {
        0 => return Ok(None),
        mut n => {
            while n < 4 {
                let got = r.read(&mut len_bytes[n..])?;
                if got == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "EOF inside frame length prefix",
                    ));
                }
                n += got;
            }
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            DecodeError::FrameTooLarge { len }.to_string(),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_faults() -> FaultSet {
        let mut f = FaultSet::new();
        f.insert(Fault::Edge(EdgeId(3)));
        f.insert(Fault::Vertex(VertexId(7)));
        f
    }

    #[test]
    fn request_round_trips() {
        let reqs = vec![
            Request::Hello {
                client_version: PROTOCOL_VERSION,
            },
            Request::Dist {
                source: VertexId(0),
                target: VertexId(9),
                faults: sample_faults(),
            },
            Request::Path {
                source: VertexId(2),
                target: VertexId(5),
                faults: FaultSet::new(),
            },
            Request::BatchDist {
                source: VertexId(0),
                queries: vec![
                    (VertexId(1), FaultSet::new()),
                    (VertexId(2), sample_faults()),
                ],
            },
            Request::DistMany {
                source: VertexId(0),
                targets: vec![VertexId(1), VertexId(4), VertexId(2)],
                faults: sample_faults(),
            },
            Request::DistMany {
                source: VertexId(3),
                targets: vec![],
                faults: FaultSet::new(),
            },
            Request::Shutdown,
            Request::Metrics {
                format: MetricsFormat::Prometheus,
            },
            Request::Metrics {
                format: MetricsFormat::Json,
            },
            Request::SlowQueries,
            Request::Deadline {
                budget_ms: 250,
                inner: Box::new(Request::Dist {
                    source: VertexId(0),
                    target: VertexId(9),
                    faults: sample_faults(),
                }),
            },
            Request::Deadline {
                budget_ms: 0,
                inner: Box::new(Request::BatchDist {
                    source: VertexId(1),
                    queries: vec![(VertexId(2), sample_faults())],
                }),
            },
        ];
        for req in reqs {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes), Ok(req.clone()), "{req:?}");
        }
    }

    #[test]
    fn deadline_wraps_only_query_opcodes() {
        // Control frames inside a deadline are rejected at decode time…
        for inner in [
            Request::Hello { client_version: 4 },
            Request::Shutdown,
            Request::Metrics {
                format: MetricsFormat::Json,
            },
            Request::SlowQueries,
        ] {
            let bytes = encode_request(&Request::Deadline {
                budget_ms: 10,
                inner: Box::new(inner.clone()),
            });
            let op = encode_request(&inner)[0];
            assert_eq!(
                decode_request(&bytes),
                Err(DecodeError::BadTag(op)),
                "{inner:?}"
            );
        }
        // …and so is a nested deadline: decode depth is bounded at one.
        let nested = encode_request(&Request::Deadline {
            budget_ms: 1,
            inner: Box::new(Request::Deadline {
                budget_ms: 2,
                inner: Box::new(Request::SlowQueries),
            }),
        });
        assert_eq!(decode_request(&nested), Err(DecodeError::BadTag(0x0A)));
    }

    #[test]
    fn deadline_prefixes_decode_to_truncated() {
        let bytes = encode_request(&Request::Deadline {
            budget_ms: 99,
            inner: Box::new(Request::DistMany {
                source: VertexId(0),
                targets: vec![VertexId(1), VertexId(2)],
                faults: sample_faults(),
            }),
        });
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_request(&bytes[..cut]),
                Err(DecodeError::Truncated),
                "prefix of {cut} bytes"
            );
        }
        // Trailing bytes after the wrapped request are still rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            decode_request(&padded),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn response_round_trips() {
        let resps = vec![
            Response::HelloOk {
                version: 1,
                fingerprint: 0xdead_beef_cafe_f00d,
                num_vertices: 100,
                num_edges: 250,
                sources: vec![VertexId(0), VertexId(50)],
            },
            Response::Dist(Some(4)),
            Response::Dist(None),
            Response::Path(Some(WirePath {
                vertices: vec![VertexId(0), VertexId(3), VertexId(9)],
                edges: vec![EdgeId(1), EdgeId(8)],
            })),
            Response::Path(None),
            Response::BatchDist(vec![Some(1), None, Some(3)]),
            Response::DistMany(vec![None, Some(0), Some(7)]),
            Response::ShuttingDown,
            Response::Overloaded,
            Response::MetricsText("# HELP ftb_requests_total requests\n".to_string()),
            Response::SlowQueries(vec![
                SlowQueryReport {
                    opcode: 0x07,
                    source: VertexId(0),
                    targets: 128,
                    faults: sample_faults(),
                    queue_nanos: 1_500,
                    handle_nanos: 2_000_000,
                    encode_nanos: 900,
                    tiers: [100, 20, 5, 2, 1, 0],
                },
                SlowQueryReport::default(),
            ]),
            Response::SlowQueries(Vec::new()),
            Response::Error {
                code: ErrorCode::VertexOutOfRange as u16,
                message: "vertex 999 out of range".to_string(),
            },
        ];
        for resp in resps {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes), Ok(resp.clone()), "{resp:?}");
        }
    }

    #[test]
    fn strict_prefixes_decode_to_truncated() {
        for req in [
            Request::BatchDist {
                source: VertexId(1),
                queries: vec![(VertexId(2), sample_faults())],
            },
            Request::DistMany {
                source: VertexId(1),
                targets: vec![VertexId(2), VertexId(3)],
                faults: sample_faults(),
            },
        ] {
            let bytes = encode_request(&req);
            for cut in 0..bytes.len() {
                assert_eq!(
                    decode_request(&bytes[..cut]),
                    Err(DecodeError::Truncated),
                    "prefix of {cut} bytes of {req:?}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_request(&Request::Shutdown);
        bytes.push(0);
        assert_eq!(
            decode_request(&bytes),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn unknown_opcodes_and_tags_are_rejected() {
        assert_eq!(
            decode_request(&[0x7f]),
            Err(DecodeError::UnknownOpcode(0x7f))
        );
        assert_eq!(
            decode_response(&[0x01]),
            Err(DecodeError::UnknownOpcode(0x01))
        );
        // Opcodes 0x05 and 0x85 are unassigned.
        assert_eq!(
            decode_request(&[0x05]),
            Err(DecodeError::UnknownOpcode(0x05))
        );
        assert_eq!(
            decode_response(&[0x85]),
            Err(DecodeError::UnknownOpcode(0x85))
        );
        // Dist with a fault of kind 9.
        let mut bytes = vec![0x02];
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.push(1); // one fault
        bytes.push(9); // undefined kind
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(decode_request(&bytes), Err(DecodeError::BadTag(9)));
    }

    #[test]
    fn frame_io_round_trips_and_caps_length() {
        let payload = encode_request(&Request::Hello { client_version: 1 });
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(&wire);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(payload));
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");

        let huge = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        let mut cursor = std::io::Cursor::new(&huge[..]);
        assert!(read_frame(&mut cursor).is_err(), "oversized length prefix");
    }

    #[test]
    fn v3_frame_prefixes_decode_to_truncated() {
        let resp = Response::SlowQueries(vec![SlowQueryReport {
            opcode: 0x02,
            source: VertexId(3),
            targets: 1,
            faults: sample_faults(),
            queue_nanos: 10,
            handle_nanos: 20,
            encode_nanos: 30,
            tiers: [1, 0, 0, 0, 0, 0],
        }]);
        let bytes = encode_response(&resp);
        for cut in 1..bytes.len() {
            assert_eq!(
                decode_response(&bytes[..cut]),
                Err(DecodeError::Truncated),
                "prefix of {cut} bytes"
            );
        }
        // Undefined metrics format tag.
        assert_eq!(decode_request(&[0x08, 9]), Err(DecodeError::BadTag(9)));
    }

    #[test]
    fn engine_errors_map_to_codes() {
        let err = ftb_core::FtbfsError::VertexOutOfRange {
            vertex: VertexId(9),
            num_vertices: 4,
        };
        assert_eq!(
            ErrorCode::from_engine_error(&err),
            ErrorCode::VertexOutOfRange
        );
        for code in [1u16, 3, 4, 5, 6, 7, 8, 9] {
            let ec = ErrorCode::from_u16(code).expect("defined code");
            assert_eq!(ec as u16, code);
        }
        assert_eq!(ErrorCode::from_u16(2), None, "code 2 is unassigned");
        assert_eq!(ErrorCode::from_u16(999), None);
    }
}
