//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! A frame is `[len: u32 LE][body: len bytes]`; the body's first byte is
//! an opcode (requests) or a status byte (responses), followed by a
//! fixed little-endian payload. `len` must be in `1..=MAX_FRAME` — a
//! zero or oversized header is a *framing* error (the stream cannot be
//! resynchronized, the server replies `BadRequest` and closes), while a
//! bad body behind a valid header is a *request* error (the server
//! replies `BadRequest` and keeps the connection).
//!
//! Decoding never panics on any byte sequence — the fuzz suite in
//! `tests/wire.rs` holds the protocol to that.
//!
//! ## Frame layout
//!
//! | Request | opcode | payload |
//! |---|---|---|
//! | GET | `0x01` | `key: u64` |
//! | PUT | `0x02` | `key: u64, value: u64` |
//! | DEL | `0x03` | `key: u64` |
//! | SCAN | `0x04` | `start: u64, count: u32` (`count <= MAX_SCAN`) |
//! | STATS | `0x05` | — |
//! | SHUTDOWN | `0x06` | — |
//!
//! | Response | status | payload |
//! |---|---|---|
//! | Ok | `0x80` | — (PUT/DEL-hit/SHUTDOWN ack) |
//! | Value | `0x81` | `value: u64` (GET hit) |
//! | Pairs | `0x82` | `n: u32, n × (key: u64, value: u64)` (SCAN) |
//! | Stats | `0x83` | 26 `u64` counters, then 3 × (`len: u8`, label): scheme, backend, durability |
//! | NotFound | `0x90` | — |
//! | BadRequest | `0x91` | — |
//! | Busy | `0x92` | — (load shed: connection limit full) |
//! | ServerFull | `0x94` | — (store capacity exhausted) |

use std::io::{self, Read};

/// Maximum frame body size in bytes. A SCAN of [`MAX_SCAN`] pairs plus
/// header fits with room to spare.
pub const MAX_FRAME: usize = 64 * 1024;

/// Maximum pair count a single SCAN may request.
pub const MAX_SCAN: u32 = 1024;

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Look up a key.
    Get {
        /// Key to look up.
        key: u64,
    },
    /// Insert or update a key.
    Put {
        /// Key to write.
        key: u64,
        /// Value to store.
        value: u64,
    },
    /// Remove a key.
    Del {
        /// Key to remove.
        key: u64,
    },
    /// Return all present pairs with keys in `[start, start + count)`.
    Scan {
        /// First key of the range.
        start: u64,
        /// Range length (at most [`MAX_SCAN`]).
        count: u32,
    },
    /// Fetch server counters.
    Stats,
    /// Gracefully drain and stop the server.
    Shutdown,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success with no payload (PUT, DEL hit, SHUTDOWN ack).
    Ok,
    /// GET hit.
    Value(u64),
    /// SCAN result.
    Pairs(Vec<(u64, u64)>),
    /// STATS result (boxed: the counters snapshot dwarfs every other
    /// variant, and replies sit in per-batch vectors).
    Stats(Box<ServerStats>),
    /// GET/DEL miss.
    NotFound,
    /// Malformed frame or unparsable request body.
    BadRequest,
    /// Load shed: the connection limit is full.
    Busy,
    /// The store's memory capacity is exhausted.
    ServerFull,
}

/// Server-side counters carried by a STATS response.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests admitted for execution (every decoded frame but a
    /// malformed one).
    pub enqueued: u64,
    /// Replies written by workers.
    pub replied: u64,
    /// Busy replies (connection limit).
    pub shed: u64,
    /// BadRequest replies plus framing-error disconnects.
    pub malformed: u64,
    /// Connections dropped by the per-connection read timeout.
    pub timeouts: u64,
    /// GET requests executed.
    pub gets: u64,
    /// PUT requests executed.
    pub puts: u64,
    /// DEL requests executed.
    pub dels: u64,
    /// SCAN requests executed.
    pub scans: u64,
    /// Connections accepted since start.
    pub conns: u64,
    /// Batches executed: rounds of the event loop (one store pass
    /// each), of which one wake-up runs as many as its buffered
    /// pipelines have read-after-mutation boundaries.
    pub batches: u64,
    /// Requests executed across all batches (mean batch size is
    /// `batch_ops / batches`).
    pub batch_ops: u64,
    /// Quiescence barriers paid in full by batches' store passes: up to
    /// one per shard a batch touches (on the native backend the one the
    /// shard's previous cycle deferred, none on its first; on the
    /// simulated one, one per write section), none on the SGL canary.
    pub barriers: u64,
    /// Barriers satisfied by an already-elapsed shared grace period
    /// (`GraceSeq` sharing) — amortization across workers, on top of the
    /// per-shard-group amortization across connections.
    pub barriers_shared: u64,
    /// Reply writes issued (`replied / writev_calls` replies per
    /// syscall; the name dates from the vectored flush).
    pub writev_calls: u64,
    /// WAL records appended (one per non-empty batch write-set, and on
    /// the native backend one per shard that write-set touches); 0 when
    /// running volatile.
    pub wal_appends: u64,
    /// WAL fsync calls completed (group commits + segment rotations).
    pub wal_fsyncs: u64,
    /// WAL bytes appended (record headers + payloads).
    pub wal_bytes: u64,
    /// Batch-size histogram: bucket `i` counts batches of
    /// `2^i ..= 2^(i+1) - 1` requests (last bucket is open-ended).
    pub batch_hist: [u64; 8],
    /// Label of the synchronization scheme guarding the store.
    pub scheme: String,
    /// Label of the execution backend (`"sim"` / `"native"`).
    pub backend: String,
    /// Durability mode: `"volatile"` when no WAL is attached, else the
    /// fsync policy label (`"batch"`, `"interval:<ms>"`, `"off"`).
    pub durability: String,
}

impl ServerStats {
    /// Mean requests per executing batch; 0 when no batch has run.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_ops as f64 / self.batches as f64
        }
    }

    /// Reply writes per reply — the flush amortization: one write
    /// carries everything a wake-up queued for a connection, so a deep
    /// pipeline drives this toward 1/depth. 0 when nothing was replied.
    pub fn writev_per_op(&self) -> f64 {
        if self.replied == 0 {
            0.0
        } else {
            self.writev_calls as f64 / self.replied as f64
        }
    }

    /// Full quiescence barriers per *mutation* — the amortization factor
    /// the paper's argument predicts should drop below 1.0 once batching
    /// coalesces writes (each unbatched PUT/DEL pays exactly 1.0). On
    /// both sharded stores it is at most touched shards ÷ mutations: a
    /// batch's mutations share a barrier only with those on the same
    /// shard, and a native shard's first cycle pays none.
    pub fn barriers_per_mutation(&self) -> f64 {
        let muts = self.puts + self.dels;
        if muts == 0 {
            0.0
        } else {
            self.barriers as f64 / muts as f64
        }
    }
}

/// Decode failure. `EmptyFrame` and `Oversize` are framing errors (the
/// connection cannot be resynchronized); the rest are body errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// Length header was zero.
    EmptyFrame,
    /// Length header exceeded [`MAX_FRAME`].
    Oversize(usize),
    /// First body byte is not a known opcode/status.
    UnknownOpcode(u8),
    /// Body shorter than its fixed layout requires.
    Truncated {
        /// Bytes the layout requires.
        need: usize,
        /// Bytes present.
        got: usize,
    },
    /// Body longer than its fixed layout requires.
    TrailingBytes(usize),
    /// SCAN count above [`MAX_SCAN`].
    ScanTooLarge(u32),
    /// Stats label is not valid UTF-8 or its length byte is wrong.
    BadLabel,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::EmptyFrame => write!(f, "zero-length frame"),
            ProtoError::Oversize(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            ProtoError::UnknownOpcode(b) => write!(f, "unknown opcode 0x{b:02x}"),
            ProtoError::Truncated { need, got } => {
                write!(f, "truncated body: need {need} bytes, got {got}")
            }
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            ProtoError::ScanTooLarge(n) => write!(f, "scan count {n} exceeds {MAX_SCAN}"),
            ProtoError::BadLabel => write!(f, "malformed scheme label"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl ProtoError {
    /// Whether the stream cannot be resynchronized after this error
    /// (the server must close the connection).
    pub fn is_framing(&self) -> bool {
        matches!(self, ProtoError::EmptyFrame | ProtoError::Oversize(_))
    }
}

// ---------------------------------------------------------------------
// Little-endian field helpers
// ---------------------------------------------------------------------

fn get_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

fn get_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

/// Errors unless `body` is exactly `1 + need` bytes (opcode + payload).
fn expect_len(body: &[u8], need: usize) -> Result<(), ProtoError> {
    let got = body.len() - 1;
    if got < need {
        return Err(ProtoError::Truncated { need, got });
    }
    if got > need {
        return Err(ProtoError::TrailingBytes(got - need));
    }
    Ok(())
}

impl Request {
    /// Appends the body (opcode + payload) to `out`.
    pub fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Request::Get { key } => {
                out.push(0x01);
                out.extend_from_slice(&key.to_le_bytes());
            }
            Request::Put { key, value } => {
                out.push(0x02);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&value.to_le_bytes());
            }
            Request::Del { key } => {
                out.push(0x03);
                out.extend_from_slice(&key.to_le_bytes());
            }
            Request::Scan { start, count } => {
                out.push(0x04);
                out.extend_from_slice(&start.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
            }
            Request::Stats => out.push(0x05),
            Request::Shutdown => out.push(0x06),
        }
    }

    /// Serializes the request as a complete frame (length prefix + body).
    pub fn to_frame(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(24);
        self.encode_body(&mut body);
        frame(&body)
    }

    /// Appends the complete frame (length prefix + body) to `out` —
    /// the allocation-free variant of [`Request::to_frame`] for senders
    /// gathering several frames into one write.
    pub fn encode_frame(&self, out: &mut Vec<u8>) {
        frame_in_place(out, |out| self.encode_body(out));
    }

    /// Parses a frame body. Never panics, for any input.
    pub fn decode(body: &[u8]) -> Result<Request, ProtoError> {
        let Some(&op) = body.first() else {
            return Err(ProtoError::EmptyFrame);
        };
        match op {
            0x01 => {
                expect_len(body, 8)?;
                Ok(Request::Get {
                    key: get_u64(body, 1),
                })
            }
            0x02 => {
                expect_len(body, 16)?;
                Ok(Request::Put {
                    key: get_u64(body, 1),
                    value: get_u64(body, 9),
                })
            }
            0x03 => {
                expect_len(body, 8)?;
                Ok(Request::Del {
                    key: get_u64(body, 1),
                })
            }
            0x04 => {
                expect_len(body, 12)?;
                let count = get_u32(body, 9);
                if count > MAX_SCAN {
                    return Err(ProtoError::ScanTooLarge(count));
                }
                Ok(Request::Scan {
                    start: get_u64(body, 1),
                    count,
                })
            }
            0x05 => {
                expect_len(body, 0)?;
                Ok(Request::Stats)
            }
            0x06 => {
                expect_len(body, 0)?;
                Ok(Request::Shutdown)
            }
            other => Err(ProtoError::UnknownOpcode(other)),
        }
    }
}

impl Response {
    /// Appends the body (status + payload) to `out`.
    pub fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Response::Ok => out.push(0x80),
            Response::Value(v) => {
                out.push(0x81);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Response::Pairs(pairs) => {
                // One reserve and one 16-byte write per pair.
                out.reserve(5 + 16 * pairs.len());
                out.push(0x82);
                out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
                for &(k, v) in pairs {
                    out.extend_from_slice(&(u128::from(v) << 64 | u128::from(k)).to_le_bytes());
                }
            }
            Response::Stats(s) => {
                out.push(0x83);
                for c in [
                    s.enqueued,
                    s.replied,
                    s.shed,
                    s.malformed,
                    s.timeouts,
                    s.gets,
                    s.puts,
                    s.dels,
                    s.scans,
                    s.conns,
                    s.batches,
                    s.batch_ops,
                    s.barriers,
                    s.barriers_shared,
                    s.writev_calls,
                    s.wal_appends,
                    s.wal_fsyncs,
                    s.wal_bytes,
                ] {
                    out.extend_from_slice(&c.to_le_bytes());
                }
                for c in s.batch_hist {
                    out.extend_from_slice(&c.to_le_bytes());
                }
                for label in [
                    s.scheme.as_bytes(),
                    s.backend.as_bytes(),
                    s.durability.as_bytes(),
                ] {
                    let n = label.len().min(255);
                    out.push(n as u8);
                    out.extend_from_slice(&label[..n]);
                }
            }
            Response::NotFound => out.push(0x90),
            Response::BadRequest => out.push(0x91),
            Response::Busy => out.push(0x92),
            Response::ServerFull => out.push(0x94),
        }
    }

    /// Serializes the response as a complete frame.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_frame(&mut out);
        out
    }

    /// Appends the complete frame (length prefix + body) to `out`,
    /// encoded in place — what the server's [`Outbox`] queues replies
    /// with.
    pub fn encode_frame(&self, out: &mut Vec<u8>) {
        frame_in_place(out, |out| self.encode_body(out));
    }

    /// Parses a frame body. Never panics, for any input.
    pub fn decode(body: &[u8]) -> Result<Response, ProtoError> {
        let Some(&st) = body.first() else {
            return Err(ProtoError::EmptyFrame);
        };
        match st {
            0x80 => {
                expect_len(body, 0)?;
                Ok(Response::Ok)
            }
            0x81 => {
                expect_len(body, 8)?;
                Ok(Response::Value(get_u64(body, 1)))
            }
            0x82 => {
                if body.len() < 5 {
                    return Err(ProtoError::Truncated {
                        need: 4,
                        got: body.len() - 1,
                    });
                }
                let n = get_u32(body, 1);
                if n > MAX_SCAN {
                    return Err(ProtoError::ScanTooLarge(n));
                }
                let need = 4 + n as usize * 16;
                expect_len(body, need)?;
                let mut pairs = Vec::with_capacity(n as usize);
                for i in 0..n as usize {
                    pairs.push((get_u64(body, 5 + i * 16), get_u64(body, 13 + i * 16)));
                }
                Ok(Response::Pairs(pairs))
            }
            0x83 => {
                // 26 u64 counters (10 request/connection counters, 5 batch
                // counters, 3 WAL counters, 8 histogram buckets), then the
                // three labels (scheme, backend, durability).
                const COUNTERS: usize = 26 * 8;
                if body.len() < 1 + COUNTERS + 1 {
                    return Err(ProtoError::Truncated {
                        need: COUNTERS + 1,
                        got: body.len() - 1,
                    });
                }
                let c = |i: usize| get_u64(body, 1 + i * 8);
                let mut at = 1 + COUNTERS;
                let mut labels: [String; 3] = Default::default();
                for label in labels.iter_mut() {
                    if body.len() < at + 1 {
                        return Err(ProtoError::Truncated {
                            need: at,
                            got: body.len() - 1,
                        });
                    }
                    let n = body[at] as usize;
                    if body.len() < at + 1 + n {
                        return Err(ProtoError::Truncated {
                            need: at + n,
                            got: body.len() - 1,
                        });
                    }
                    *label = std::str::from_utf8(&body[at + 1..at + 1 + n])
                        .map_err(|_| ProtoError::BadLabel)?
                        .to_string();
                    at += 1 + n;
                }
                expect_len(body, at - 1)?;
                let [scheme, backend, durability] = labels;
                let mut batch_hist = [0u64; 8];
                for (i, b) in batch_hist.iter_mut().enumerate() {
                    *b = c(18 + i);
                }
                Ok(Response::Stats(Box::new(ServerStats {
                    enqueued: c(0),
                    replied: c(1),
                    shed: c(2),
                    malformed: c(3),
                    timeouts: c(4),
                    gets: c(5),
                    puts: c(6),
                    dels: c(7),
                    scans: c(8),
                    conns: c(9),
                    batches: c(10),
                    batch_ops: c(11),
                    barriers: c(12),
                    barriers_shared: c(13),
                    writev_calls: c(14),
                    wal_appends: c(15),
                    wal_fsyncs: c(16),
                    wal_bytes: c(17),
                    batch_hist,
                    scheme,
                    backend,
                    durability,
                })))
            }
            0x90 => {
                expect_len(body, 0)?;
                Ok(Response::NotFound)
            }
            0x91 => {
                expect_len(body, 0)?;
                Ok(Response::BadRequest)
            }
            0x92 => {
                expect_len(body, 0)?;
                Ok(Response::Busy)
            }
            0x94 => {
                expect_len(body, 0)?;
                Ok(Response::ServerFull)
            }
            other => Err(ProtoError::UnknownOpcode(other)),
        }
    }
}

/// Appends one frame to `out` without an intermediate buffer: `body`
/// encodes behind a placeholder length prefix, which is then patched.
fn frame_in_place(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    body(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Wraps a body in a length-prefixed frame.
pub fn frame(body: &[u8]) -> Vec<u8> {
    debug_assert!(!body.is_empty() && body.len() <= MAX_FRAME);
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Incremental frame parser over a byte stream.
///
/// Feed arbitrary chunks with [`FrameReader::extend`]; look at the next
/// complete frame body in place with [`FrameReader::peek_frame`] and
/// step past it with [`FrameReader::consume_frame`] (the server decodes
/// straight out of the buffer and leaves a frame it is not ready for
/// where it is), or pull an owned copy with [`FrameReader::next_frame`].
/// Framing errors (zero/oversized length headers) are sticky: the
/// stream has no recoverable boundary after them.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    pos: usize,
    poisoned: Option<ProtoError>,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes received from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            // Everything consumed (the steady state of a served
            // pipeline): restart at the front, nothing to move.
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            // Compact once consumed bytes dominate the buffer.
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// True if a partially received frame (or unparsed bytes) is pending.
    pub fn has_partial(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Body length of the complete frame at the cursor, `None` if more
    /// bytes are needed, or the framing error its header amounts to.
    fn head(&self) -> Result<Option<usize>, ProtoError> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let len = get_u32(&self.buf, self.pos) as usize;
        if len == 0 {
            return Err(ProtoError::EmptyFrame);
        }
        if len > MAX_FRAME {
            return Err(ProtoError::Oversize(len));
        }
        Ok((avail >= 4 + len).then_some(len))
    }

    /// True if [`FrameReader::peek_frame`] would yield a frame *or* a
    /// sticky framing error — i.e. the event loop has decodable input
    /// buffered here even if the socket reports nothing new. Frames a
    /// wake-up left behind (batch budget, outbox cap) are found through
    /// this peek.
    pub fn has_complete_frame(&self) -> bool {
        // Bad headers count as "complete": peek_frame will surface the
        // framing error immediately.
        self.poisoned.is_some() || !matches!(self.head(), Ok(None))
    }

    /// Next complete frame body, borrowed from the reader's buffer and
    /// *not* consumed; `None` if more bytes are needed, or a (sticky)
    /// framing error.
    pub fn peek_frame(&mut self) -> Result<Option<&[u8]>, ProtoError> {
        if let Some(e) = self.poisoned {
            return Err(e);
        }
        match self.head() {
            Ok(len) => Ok(len.map(|len| &self.buf[self.pos + 4..self.pos + 4 + len])),
            Err(e) => {
                self.poisoned = Some(e);
                Err(e)
            }
        }
    }

    /// Steps past the frame [`FrameReader::peek_frame`] yields; a no-op
    /// when there is none (incomplete frame, or a bad header — which
    /// stays at the cursor for good).
    pub fn consume_frame(&mut self) {
        if let Ok(Some(len)) = self.head() {
            self.pos += 4 + len;
        }
    }

    /// Next complete frame body as an owned copy, consumed; `None` if
    /// more bytes are needed, or a (sticky) framing error.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtoError> {
        let body = self.peek_frame()?.map(<[u8]>::to_vec);
        self.consume_frame();
        Ok(body)
    }
}

/// Capacity an [`Outbox`] keeps once it has drained (one server read
/// chunk); what a burst of large replies grew beyond it is given back.
const OUTBOX_RETAIN: usize = 16 * 1024;

/// Encoded reply bytes awaiting transmission on a nonblocking socket:
/// one contiguous buffer and a cursor, with partial-write resumption.
///
/// The event loop encodes replies straight into the buffer
/// ([`Outbox::encode`]), hands the pending bytes ([`Outbox::pending`])
/// to one plain `write`, and reports back how many the kernel took
/// ([`Outbox::advance`]) — which may land mid-frame. Bytes leave in the
/// order they were queued, so pipelined FIFO reply order is preserved
/// across any schedule of short writes (the proptests in
/// `tests/wire.rs` drive this with arbitrary split schedules).
#[derive(Debug, Default)]
pub struct Outbox {
    buf: Vec<u8>,
    /// Bytes of `buf` already written.
    pos: usize,
}

impl Outbox {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when nothing is waiting to be written.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes waiting to be written.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The bytes waiting to be written, in order, starting mid-frame if
    /// a previous write was short.
    pub fn pending(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Drops the written prefix once it is at least as long as what is
    /// still pending, so a connection that never fully drains cannot
    /// grow the buffer by what it has already been sent (each pending
    /// byte moves at most once per byte written: amortized O(1)).
    fn compact(&mut self) {
        if self.pos > 0 && self.pos >= self.pending_bytes() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Queues `resp` as one frame, encoded in place.
    pub fn encode(&mut self, resp: &Response) {
        self.compact();
        resp.encode_frame(&mut self.buf);
    }

    /// Queues one already encoded frame (length prefix included).
    pub fn push(&mut self, frame: Vec<u8>) {
        debug_assert!(frame.len() > 4, "outbox frames carry a header and body");
        self.compact();
        self.buf.extend_from_slice(&frame);
    }

    /// The pending bytes as a vectored view, for callers that gather:
    /// pushes at most one slice (none when empty or `max == 0`) and
    /// returns how many it pushed.
    pub fn chunks<'a>(&'a self, out: &mut Vec<io::IoSlice<'a>>, max: usize) -> usize {
        if max == 0 || self.is_empty() {
            return 0;
        }
        out.push(io::IoSlice::new(self.pending()));
        1
    }

    /// Consumes `written` bytes from the front (the return value of a
    /// write). Short writes leave the cursor mid-frame.
    ///
    /// # Panics
    ///
    /// Panics if `written` exceeds the pending byte count.
    pub fn advance(&mut self, written: usize) {
        assert!(
            written <= self.pending_bytes(),
            "advance past outbox contents"
        );
        self.pos += written;
        if self.is_empty() {
            self.buf.clear();
            self.buf.shrink_to(OUTBOX_RETAIN);
            self.pos = 0;
        }
    }
}

/// Blocking frame read for clients: length header then body, mapping
/// framing violations to `io::ErrorKind::InvalidData`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut hdr = [0u8; 4];
    r.read_exact(&mut hdr)?;
    let len = u32::from_le_bytes(hdr) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        for req in [
            Request::Get { key: 7 },
            Request::Put {
                key: u64::MAX,
                value: 0,
            },
            Request::Del { key: 1 << 40 },
            Request::Scan {
                start: 5,
                count: MAX_SCAN,
            },
            Request::Stats,
            Request::Shutdown,
        ] {
            let f = req.to_frame();
            let mut fr = FrameReader::new();
            fr.extend(&f);
            let body = fr.next_frame().unwrap().unwrap();
            assert_eq!(Request::decode(&body).unwrap(), req);
            assert!(!fr.has_partial());
        }
    }

    #[test]
    fn response_roundtrip() {
        for resp in [
            Response::Ok,
            Response::Value(42),
            Response::Pairs(vec![(1, 2), (3, 4)]),
            Response::Stats(Box::new(ServerStats {
                enqueued: 1,
                replied: 2,
                shed: 3,
                malformed: 4,
                timeouts: 5,
                gets: 6,
                puts: 7,
                dels: 8,
                scans: 9,
                conns: 10,
                batches: 11,
                batch_ops: 12,
                barriers: 13,
                barriers_shared: 14,
                writev_calls: 15,
                wal_appends: 16,
                wal_fsyncs: 17,
                wal_bytes: 18,
                batch_hist: [19, 20, 21, 22, 23, 24, 25, 26],
                scheme: "RW-LE_OPT".to_string(),
                backend: "sim".to_string(),
                durability: "batch".to_string(),
            })),
            Response::NotFound,
            Response::BadRequest,
            Response::Busy,
            Response::ServerFull,
        ] {
            let f = resp.to_frame();
            let body = &f[4..];
            assert_eq!(Response::decode(body).unwrap(), resp);
        }
    }

    #[test]
    fn scan_count_is_bounded() {
        let mut body = Vec::new();
        Request::Scan {
            start: 0,
            count: MAX_SCAN,
        }
        .encode_body(&mut body);
        // Patch the count above the limit.
        let over = (MAX_SCAN + 1).to_le_bytes();
        body[9..13].copy_from_slice(&over);
        assert_eq!(
            Request::decode(&body),
            Err(ProtoError::ScanTooLarge(MAX_SCAN + 1))
        );
    }

    #[test]
    fn framing_errors_are_sticky() {
        let mut fr = FrameReader::new();
        fr.extend(&0u32.to_le_bytes());
        assert!(fr.has_complete_frame());
        assert_eq!(fr.next_frame(), Err(ProtoError::EmptyFrame));
        assert_eq!(fr.next_frame(), Err(ProtoError::EmptyFrame));
    }

    #[test]
    fn complete_frame_peek_tracks_buffer_state() {
        let mut fr = FrameReader::new();
        assert!(!fr.has_complete_frame());
        let f = Request::Get { key: 9 }.to_frame();
        fr.extend(&f[..f.len() - 1]);
        assert!(!fr.has_complete_frame(), "one byte short");
        fr.extend(&f[f.len() - 1..]);
        assert!(fr.has_complete_frame());
        fr.next_frame().unwrap().unwrap();
        assert!(!fr.has_complete_frame());
    }

    #[test]
    fn outbox_resumes_mid_frame() {
        let mut ob = Outbox::new();
        let a = Response::Value(1).to_frame();
        let b = Response::Ok.to_frame();
        ob.push(a.clone());
        ob.encode(&Response::Ok);
        assert_eq!(ob.pending_bytes(), a.len() + b.len());
        let mut expect = a.clone();
        expect.extend_from_slice(&b);
        assert_eq!(ob.pending(), &expect[..]);

        // A short write that ends inside frame `a`: the pending bytes
        // resume mid-frame, and the gathered view is the same bytes.
        ob.advance(3);
        assert_eq!(ob.pending(), &expect[3..]);
        let mut iovs = Vec::new();
        assert_eq!(ob.chunks(&mut iovs, 16), 1);
        assert_eq!(&*iovs[0], &expect[3..]);

        // Drain the rest one byte at a time; the stream stays in order,
        // also across a frame queued behind a partly written one.
        let mut seen = expect[..3].to_vec();
        ob.encode(&Response::NotFound);
        expect.extend_from_slice(&Response::NotFound.to_frame());
        while !ob.is_empty() {
            seen.push(ob.pending()[0]);
            ob.advance(1);
        }
        assert_eq!(seen, expect);
        let mut iovs = Vec::new();
        assert_eq!(ob.chunks(&mut iovs, 16), 0);
    }

    #[test]
    fn peeked_frame_stays_until_consumed() {
        let mut fr = FrameReader::new();
        let (a, b) = (Request::Get { key: 1 }, Request::Del { key: 2 });
        fr.extend(&a.to_frame());
        fr.extend(&b.to_frame());
        for _ in 0..2 {
            assert_eq!(
                Request::decode(fr.peek_frame().unwrap().unwrap()),
                Ok(a.clone())
            );
        }
        fr.consume_frame();
        assert_eq!(Request::decode(fr.peek_frame().unwrap().unwrap()), Ok(b));
        fr.consume_frame();
        assert_eq!(fr.peek_frame(), Ok(None));
        // Nothing to step past: incomplete input stays where it is.
        fr.extend(&a.to_frame()[..6]);
        fr.consume_frame();
        assert!(fr.has_partial());
        fr.extend(&a.to_frame()[6..]);
        assert_eq!(Request::decode(&fr.next_frame().unwrap().unwrap()), Ok(a));
    }

    #[test]
    #[should_panic(expected = "advance past outbox contents")]
    fn outbox_advance_is_bounded() {
        let mut ob = Outbox::new();
        ob.push(Response::Ok.to_frame());
        ob.advance(ob.pending_bytes() + 1);
    }
}
