//! The wire protocol: length-prefixed binary frames carrying tagged,
//! request-id'd operations.
//!
//! ## Framing
//!
//! Every message (either direction) is one *frame*:
//!
//! ```text
//! [u32 LE payload_len][payload_len bytes]
//! ```
//!
//! `payload_len` must be in `1..=max_frame_bytes`. A zero or oversized
//! length prefix is a *framing* error: the stream can no longer be
//! resynchronized (nothing marks the next frame boundary), so the server
//! closes the connection. Errors *inside* a well-framed payload leave the
//! stream intact, so the server replies with a typed [`Response::Error`]
//! and keeps the connection. The cap binds the server's replies too: a
//! SCAN whose ENTRIES reply would exceed it is answered with ERROR.
//!
//! ## Payloads
//!
//! A request payload is `[u64 LE request_id][u8 opcode][operands]`; a
//! response payload is `[u64 LE request_id][u8 status][operands]`. The
//! request id is chosen by the client and echoed verbatim, which is what
//! lets a client pipeline many requests and match responses arriving in
//! completion order. Keys, values and messages are length-prefixed with
//! `u32 LE`. Every multi-byte integer on the wire is little-endian.
//!
//! | opcode | request        | operands                                  |
//! |-------:|----------------|-------------------------------------------|
//! | 1      | GET            | key                                       |
//! | 2      | PUT            | key, value                                |
//! | 3      | DELETE         | key                                       |
//! | 4      | SCAN           | start, end, `u32` limit                   |
//! | 5      | STATS          | —                                         |
//! | 6      | REPL_SUBSCRIBE | `u64` replica_id, `u64` from_seq          |
//! | 7      | REPL_BATCH     | `u64` seq, ops region (see below)         |
//! | 8      | SHARD_MAP      | —                                         |
//! | 9      | TXN_BEGIN      | —                                         |
//! | 10     | TXN_GET        | key                                       |
//! | 11     | TXN_PUT        | key, value                                |
//! | 12     | TXN_DELETE     | key                                       |
//! | 13     | TXN_COMMIT     | —                                         |
//! | 14     | TXN_ABORT      | —                                         |
//! | 15     | TUNE_STATUS    | —                                         |
//!
//! | status | response       | operands                            |
//! |-------:|----------------|-------------------------------------|
//! | 0      | OK             | —                                   |
//! | 1      | VALUE          | value                               |
//! | 2      | NOT_FOUND      | —                                   |
//! | 3      | ENTRIES        | `u32` count, then key/value pairs   |
//! | 4      | STATS          | JSON metrics text                   |
//! | 5      | ERROR          | UTF-8 message                       |
//! | 6      | BUSY           | — (admission control shed; retry)   |
//! | 7      | SHUTTING_DOWN  | — (server is draining)              |
//! | 8      | REPL_ACK       | `u64` seq (applied watermark)       |
//! | 9      | REPLICA_LAG    | — (quorum not reached in time)      |
//! | 10     | SHARD_MAP      | `u64` version, `u32` count, then    |
//! |        |                | `u64` shard_id + start key per entry |
//! | 11     | TXN_CONFLICT   | conflicting read key                |
//! | 12     | TXN_COMMITTED  | `u64` commit stamp                  |
//! | 13     | NO_TXN         | — (no live transaction: never begun, |
//! |        |                | already finished, or idle-aborted)  |
//! | 14     | TUNE_STATUS    | `u32` count, then `u64` shard_id +  |
//! |        |                | JSON status text per entry          |
//!
//! Transaction state is **per connection**: TXN_BEGIN opens one
//! transaction on the issuing connection, TXN_GET/TXN_PUT/TXN_DELETE
//! operate on it, and TXN_COMMIT/TXN_ABORT close it. A server-side idle
//! timeout aborts abandoned transactions so a stalled client cannot pin
//! snapshots forever; subsequent txn ops then answer NO_TXN.
//!
//! ## Replication ops region
//!
//! A REPL_BATCH carries the primary's committed group-commit batch as an
//! *ops region*: `u32` count, then `count` ops, each `[u8 kind][key]`
//! (kind 2 = delete) or `[u8 kind][key][value]` (kind 1 = put). The
//! region is forwarded opaquely by [`Request::ReplBatch`] and decoded
//! lazily through [`ReplOpsIter`] into [`WriteOp`]s, so the shipper
//! encodes once and the replica validates exactly where it applies.

use std::fmt;
use std::io::Read;

use lsm_core::WriteBatch;

/// Default cap on a frame's payload size (1 MiB).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// One client request, generic over how its key/value bytes are held:
/// `Request` (owned `Vec<u8>`, what a client builds) or [`RequestRef`]
/// (views into the frame payload, what the server dispatches — GET/SCAN
/// bytes go straight into the engine's borrowed APIs, PUT/DELETE bytes
/// are copied exactly once into the write queue).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request<B = Vec<u8>> {
    /// Point lookup.
    Get {
        /// Key to look up.
        key: B,
    },
    /// Insert or update.
    Put {
        /// Key to write.
        key: B,
        /// Value to associate.
        value: B,
    },
    /// Tombstone write.
    Delete {
        /// Key to delete.
        key: B,
    },
    /// Ordered range scan over `[start, end)`, at most `limit` entries.
    Scan {
        /// Inclusive start key.
        start: B,
        /// Exclusive end key.
        end: B,
        /// Maximum entries returned.
        limit: u32,
    },
    /// Server metrics snapshot.
    Stats,
    /// A replica announcing itself to a primary's shipper connection and
    /// naming the first sequence it still needs.
    ReplSubscribe {
        /// Replica id (index in the primary's replica list).
        replica_id: u64,
        /// First replication sequence the replica has *not* applied.
        from_seq: u64,
    },
    /// One sequenced, committed group-commit batch shipped primary →
    /// replica. `ops` is the raw ops region (see the module docs);
    /// iterate it with [`repl_ops`].
    ReplBatch {
        /// Replication-log sequence of this batch (consecutive; the
        /// replica rejects gaps).
        seq: u64,
        /// Encoded ops region: `u32` count + ops.
        ops: B,
    },
    /// The server's shard map — range-routed topology and its version.
    ShardMap,
    /// Opens an optimistic transaction on this connection.
    TxnBegin,
    /// Transactional read through the connection's open transaction:
    /// joins the read-set, sees the transaction's own buffered writes.
    TxnGet {
        /// Key to look up.
        key: B,
    },
    /// Buffers an insert/update in the open transaction.
    TxnPut {
        /// Key to write.
        key: B,
        /// Value to associate.
        value: B,
    },
    /// Buffers a tombstone in the open transaction.
    TxnDelete {
        /// Key to delete.
        key: B,
    },
    /// Validates and atomically applies the open transaction.
    TxnCommit,
    /// Discards the open transaction (no trace remains).
    TxnAbort,
    /// Ticks the server's per-shard tuners and returns their status.
    TuneStatus,
}

/// A request decoded as borrowed views into the frame payload.
pub type RequestRef<'a> = Request<&'a [u8]>;

/// One decoded server response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Write acknowledged (durable per the server's sync policy).
    Ok,
    /// Get hit.
    Value(Vec<u8>),
    /// Get miss.
    NotFound,
    /// Scan results, ordered by key.
    Entries(Vec<(Vec<u8>, Vec<u8>)>),
    /// Metrics snapshot as a JSON line.
    Stats(String),
    /// The request was well-framed but could not be executed.
    Error(String),
    /// Admission control shed the write; the client should back off.
    Busy,
    /// The server is draining and takes no new work.
    ShuttingDown,
    /// Replica → primary: everything up to and including `seq` is applied
    /// and durable at the replica. Also answers REPL_SUBSCRIBE, telling
    /// the shipper where to start.
    ReplAck {
        /// The replica's applied watermark.
        seq: u64,
    },
    /// The write committed locally but `ack_quorum` replicas did not
    /// confirm within the primary's ack timeout. The write is durable on
    /// the primary and *will* reach the replicas; the client learns the
    /// redundancy guarantee was not met in time.
    ReplicaLag,
    /// The live shard map: its version and `(shard_id, range start)` per
    /// shard, in key order. Version 0 with no entries means the server
    /// is hash-routed (no map to report).
    ShardMap {
        /// Map version (bumped by every split/merge).
        version: u64,
        /// `(stable shard id, inclusive range start)` in key order.
        entries: Vec<(u64, Vec<u8>)>,
    },
    /// TXN_COMMIT validation failed first-committer-wins: `key` was
    /// overwritten after the transaction's snapshot. The transaction is
    /// gone (nothing was applied); the client retries with a fresh one.
    TxnConflict {
        /// The read-set key that was invalidated.
        key: Vec<u8>,
    },
    /// TXN_COMMIT succeeded; `stamp` is the global commit stamp (the
    /// serialization point — replaying committed transactions in stamp
    /// order reproduces the database state).
    TxnCommitted {
        /// Global commit stamp.
        stamp: u64,
    },
    /// A txn op arrived with no transaction active on this connection —
    /// never begun, already committed/aborted, or reaped by the server's
    /// idle-transaction timeout.
    NoTxn,
    /// Per-shard tuner status: `(shard_id, one-line JSON)` in shard
    /// order. Empty when the server runs without a tuner.
    TuneStatus(Vec<(u64, String)>),
}

/// A payload-level decode failure (the frame itself was sound, so the
/// connection survives and the server replies [`Response::Error`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload ended before the operands it promised.
    Truncated,
    /// Unknown opcode or status byte.
    BadTag(u8),
    /// Bytes remained after a complete message.
    TrailingBytes(usize),
    /// A string field was not UTF-8.
    BadUtf8,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "payload truncated"),
            ProtocolError::BadTag(t) => write!(f, "unknown opcode/status {t}"),
            ProtocolError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            ProtocolError::BadUtf8 => write!(f, "string field is not utf-8"),
        }
    }
}

/// A framing-level failure (the stream cannot be resynchronized; the
/// connection must close).
#[derive(Debug)]
pub enum FrameError {
    /// The length prefix was zero.
    ZeroLength,
    /// The length prefix exceeded the frame cap.
    Oversize {
        /// Announced payload length.
        len: u64,
        /// The cap it exceeded.
        max: usize,
    },
    /// The stream ended inside a frame.
    Truncated,
    /// Transport error.
    Io(std::io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::ZeroLength => write!(f, "zero-length frame"),
            FrameError::Oversize { len, max } => {
                write!(f, "frame of {len} bytes exceeds cap of {max}")
            }
            FrameError::Truncated => write!(f, "stream ended inside a frame"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_bytes(out: &mut Vec<u8>, b: impl AsRef<[u8]>) {
    let b = b.as_ref();
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// Starts a frame appended to `out` (which may already hold other
/// frames); returns the offset of its length prefix for
/// [`end_frame_at`].
fn begin_frame_at(out: &mut Vec<u8>, id: u64, tag: u8) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    out.extend_from_slice(&id.to_le_bytes());
    out.push(tag);
    start
}

/// Patches the length prefix of the frame opened at `start`.
fn end_frame_at(out: &mut [u8], start: usize) {
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Encodes a request, owned or borrowed, as a complete frame (length
/// prefix included).
pub fn encode_request<B: AsRef<[u8]>>(id: u64, req: &Request<B>) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match req {
        Request::Get { key } => {
            begin_frame_at(&mut out, id, 1);
            put_bytes(&mut out, key);
        }
        Request::Put { key, value } => {
            begin_frame_at(&mut out, id, 2);
            put_bytes(&mut out, key);
            put_bytes(&mut out, value);
        }
        Request::Delete { key } => {
            begin_frame_at(&mut out, id, 3);
            put_bytes(&mut out, key);
        }
        Request::Scan { start, end, limit } => {
            begin_frame_at(&mut out, id, 4);
            put_bytes(&mut out, start);
            put_bytes(&mut out, end);
            out.extend_from_slice(&limit.to_le_bytes());
        }
        Request::Stats => {
            begin_frame_at(&mut out, id, 5);
        }
        Request::ReplSubscribe {
            replica_id,
            from_seq,
        } => {
            begin_frame_at(&mut out, id, 6);
            out.extend_from_slice(&replica_id.to_le_bytes());
            out.extend_from_slice(&from_seq.to_le_bytes());
        }
        Request::ReplBatch { seq, ops } => {
            begin_frame_at(&mut out, id, 7);
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(ops.as_ref());
        }
        Request::ShardMap => {
            begin_frame_at(&mut out, id, 8);
        }
        Request::TxnBegin => {
            begin_frame_at(&mut out, id, 9);
        }
        Request::TxnGet { key } => {
            begin_frame_at(&mut out, id, 10);
            put_bytes(&mut out, key);
        }
        Request::TxnPut { key, value } => {
            begin_frame_at(&mut out, id, 11);
            put_bytes(&mut out, key);
            put_bytes(&mut out, value);
        }
        Request::TxnDelete { key } => {
            begin_frame_at(&mut out, id, 12);
            put_bytes(&mut out, key);
        }
        Request::TxnCommit => {
            begin_frame_at(&mut out, id, 13);
        }
        Request::TxnAbort => {
            begin_frame_at(&mut out, id, 14);
        }
        Request::TuneStatus => {
            begin_frame_at(&mut out, id, 15);
        }
    }
    end_frame_at(&mut out, 0);
    out
}

/// One write, generic over how its bytes are held like [`Request`]: the
/// owned `WriteOp` is what a client PUT/DELETE queues for group commit;
/// `WriteOp<&[u8]>` is what [`repl_ops`] decodes out of an ops region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOp<B = Vec<u8>> {
    /// Insert or update.
    Put {
        /// Key to write.
        key: B,
        /// Value to associate.
        value: B,
    },
    /// Tombstone write.
    Delete {
        /// Key to delete.
        key: B,
    },
}

impl<B: AsRef<[u8]>> WriteOp<B> {
    /// The key the op writes.
    pub(crate) fn key(&self) -> &[u8] {
        match self {
            WriteOp::Put { key, .. } | WriteOp::Delete { key } => key.as_ref(),
        }
    }
}

impl<B: Into<Vec<u8>>> WriteOp<B> {
    /// Queues the op on an engine batch: owned bytes move, views are
    /// copied.
    pub(crate) fn add_to(self, batch: &mut WriteBatch) {
        match self {
            WriteOp::Put { key, value } => batch.put(key.into(), value.into()),
            WriteOp::Delete { key } => batch.delete(key.into()),
        }
    }
}

/// Builds the ops region of a REPL_BATCH request: `u32` count + ops. The
/// count is patched in by [`ReplOpsBuilder::finish`], so the shipper can
/// stream ops straight out of a committed batch.
pub struct ReplOpsBuilder {
    buf: Vec<u8>,
    count: u32,
}

impl ReplOpsBuilder {
    /// An empty region.
    pub fn new() -> Self {
        ReplOpsBuilder {
            buf: vec![0u8; 4],
            count: 0,
        }
    }

    /// Appends a put.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.buf.push(1);
        put_bytes(&mut self.buf, key);
        put_bytes(&mut self.buf, value);
        self.count += 1;
    }

    /// Appends a delete.
    pub fn delete(&mut self, key: &[u8]) {
        self.buf.push(2);
        put_bytes(&mut self.buf, key);
        self.count += 1;
    }

    /// Appends `op`.
    pub fn push<B: AsRef<[u8]>>(&mut self, op: &WriteOp<B>) {
        match op {
            WriteOp::Put { key, value } => self.put(key.as_ref(), value.as_ref()),
            WriteOp::Delete { key } => self.delete(key.as_ref()),
        }
    }

    /// Ops appended so far.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Seals the region.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf[..4].copy_from_slice(&self.count.to_le_bytes());
        self.buf
    }
}

impl Default for ReplOpsBuilder {
    fn default() -> Self {
        ReplOpsBuilder::new()
    }
}

/// Lazy, bounds-checked decoder over a REPL_BATCH ops region. Yields
/// `Err` (and then stops) on any malformed op, so a replica fed garbage
/// reports a typed error instead of panicking or half-applying.
pub struct ReplOpsIter<'a> {
    cur: Cur<'a>,
    remaining: u32,
    failed: bool,
}

/// Opens an ops region for iteration; fails if the region is too short
/// to carry its count.
pub fn repl_ops(ops: &[u8]) -> Result<ReplOpsIter<'_>, ProtocolError> {
    let mut cur = Cur::new(ops);
    let remaining = cur.u32()?;
    Ok(ReplOpsIter {
        cur,
        remaining,
        failed: false,
    })
}

impl<'a> Iterator for ReplOpsIter<'a> {
    type Item = Result<WriteOp<&'a [u8]>, ProtocolError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.remaining == 0 {
            // a count that overshoots the region surfaced as Truncated on
            // the op that ran out; trailing bytes surface here
            if !self.failed && self.remaining == 0 {
                let rest = self.cur.remaining();
                if rest != 0 {
                    self.failed = true;
                    return Some(Err(ProtocolError::TrailingBytes(rest)));
                }
            }
            return None;
        }
        self.remaining -= 1;
        let op = (|| {
            Ok(match self.cur.u8()? {
                1 => WriteOp::Put {
                    key: self.cur.bytes_ref()?,
                    value: self.cur.bytes_ref()?,
                },
                2 => WriteOp::Delete {
                    key: self.cur.bytes_ref()?,
                },
                other => return Err(ProtocolError::BadTag(other)),
            })
        })();
        if op.is_err() {
            self.failed = true;
        }
        Some(op)
    }
}

/// Appends a complete response frame to `out`, so a connection's writer
/// recycles one buffer per response instead of allocating a fresh frame
/// `Vec` each time.
pub fn encode_response_into(out: &mut Vec<u8>, id: u64, resp: &Response) {
    match resp {
        Response::Ok => {
            let s = begin_frame_at(out, id, 0);
            end_frame_at(out, s);
        }
        Response::Value(v) => encode_value_response_into(out, id, v),
        Response::NotFound => {
            let s = begin_frame_at(out, id, 2);
            end_frame_at(out, s);
        }
        Response::Entries(entries) => {
            let mut enc = begin_entries_response(out, id, usize::MAX);
            for (k, v) in entries {
                enc.push(k, v);
            }
            enc.finish();
        }
        Response::Stats(json) => {
            let s = begin_frame_at(out, id, 4);
            put_bytes(out, json);
            end_frame_at(out, s);
        }
        Response::Error(msg) => {
            let s = begin_frame_at(out, id, 5);
            put_bytes(out, msg);
            end_frame_at(out, s);
        }
        Response::Busy => {
            let s = begin_frame_at(out, id, 6);
            end_frame_at(out, s);
        }
        Response::ShuttingDown => {
            let s = begin_frame_at(out, id, 7);
            end_frame_at(out, s);
        }
        Response::ReplAck { seq } => {
            let s = begin_frame_at(out, id, 8);
            out.extend_from_slice(&seq.to_le_bytes());
            end_frame_at(out, s);
        }
        Response::ReplicaLag => {
            let s = begin_frame_at(out, id, 9);
            end_frame_at(out, s);
        }
        Response::ShardMap { version, entries } => {
            let s = begin_frame_at(out, id, 10);
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (shard_id, start) in entries {
                out.extend_from_slice(&shard_id.to_le_bytes());
                put_bytes(out, start);
            }
            end_frame_at(out, s);
        }
        Response::TxnConflict { key } => {
            let s = begin_frame_at(out, id, 11);
            put_bytes(out, key);
            end_frame_at(out, s);
        }
        Response::TxnCommitted { stamp } => {
            let s = begin_frame_at(out, id, 12);
            out.extend_from_slice(&stamp.to_le_bytes());
            end_frame_at(out, s);
        }
        Response::NoTxn => {
            let s = begin_frame_at(out, id, 13);
            end_frame_at(out, s);
        }
        Response::TuneStatus(entries) => {
            let s = begin_frame_at(out, id, 14);
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (shard_id, json) in entries {
                out.extend_from_slice(&shard_id.to_le_bytes());
                put_bytes(out, json);
            }
            end_frame_at(out, s);
        }
    }
}

/// Appends a VALUE response frame carrying `value` — lets a GET copy the
/// value bytes straight from the engine's borrowed view into the wire
/// buffer, with no intermediate `Response::Value(Vec)`.
pub fn encode_value_response_into(out: &mut Vec<u8>, id: u64, value: &[u8]) {
    let s = begin_frame_at(out, id, 1);
    put_bytes(out, value);
    end_frame_at(out, s);
}

/// Streaming encoder for an ENTRIES response: push borrowed key/value
/// pairs as a scan cursor yields them, then [`EntriesEncoder::finish`].
/// The entry count is patched in at the end, so no intermediate
/// `Vec<(Vec<u8>, Vec<u8>)>` is materialized.
pub struct EntriesEncoder<'a> {
    out: &'a mut Vec<u8>,
    start: usize,
    count_at: usize,
    count: u32,
    /// Payload cap; pairs pushed once the payload exceeds it are dropped.
    max: usize,
}

/// Opens an ENTRIES response frame appended to `out`, whose payload may
/// hold at most `max` bytes (the peer's frame cap).
pub fn begin_entries_response(out: &mut Vec<u8>, id: u64, max: usize) -> EntriesEncoder<'_> {
    let start = begin_frame_at(out, id, 3);
    let count_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    EntriesEncoder {
        out,
        start,
        count_at,
        count: 0,
        max,
    }
}

impl EntriesEncoder<'_> {
    fn oversize(&self) -> bool {
        self.out.len() - self.start - 4 > self.max
    }

    /// Appends one key/value pair.
    pub fn push(&mut self, key: &[u8], value: &[u8]) {
        if self.oversize() {
            return;
        }
        put_bytes(self.out, key);
        put_bytes(self.out, value);
        self.count += 1;
    }

    /// Patches the count and length prefix, sealing the frame. Returns
    /// `false` instead, with the partial frame removed from `out`, when
    /// the pairs overflowed the payload cap: a frame no reader accepts
    /// would cost the connection, not just the reply.
    pub fn finish(self) -> bool {
        if self.oversize() {
            self.out.truncate(self.start);
            return false;
        }
        self.out[self.count_at..self.count_at + 4].copy_from_slice(&self.count.to_le_bytes());
        end_frame_at(self.out, self.start);
        true
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian cursor; every accessor fails with
/// [`ProtocolError::Truncated`] instead of slicing out of range, so
/// arbitrary payload bytes can never panic the decoder.
struct Cur<'a> {
    b: &'a [u8],
    p: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cur { b, p: 0 }
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        let v = *self.b.get(self.p).ok_or(ProtocolError::Truncated)?;
        self.p += 1;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let s = self
            .b
            .get(self.p..self.p + 4)
            .ok_or(ProtocolError::Truncated)?;
        self.p += 4;
        Ok(u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let s = self
            .b
            .get(self.p..self.p + 8)
            .ok_or(ProtocolError::Truncated)?;
        self.p += 8;
        Ok(u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn bytes_ref(&mut self) -> Result<&'a [u8], ProtocolError> {
        let len = self.u32()? as usize;
        let end = self.p.checked_add(len).ok_or(ProtocolError::Truncated)?;
        let s = self.b.get(self.p..end).ok_or(ProtocolError::Truncated)?;
        self.p = end;
        Ok(s)
    }

    /// A length-prefixed field held as `B` (a view or an owned copy).
    fn bytes<B: From<&'a [u8]>>(&mut self) -> Result<B, ProtocolError> {
        self.bytes_ref().map(B::from)
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        String::from_utf8(self.bytes()?).map_err(|_| ProtocolError::BadUtf8)
    }

    /// Consumes and returns everything left.
    fn rest(&mut self) -> &'a [u8] {
        let s = &self.b[self.p..];
        self.p = self.b.len();
        s
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.p
    }

    fn finish(self) -> Result<(), ProtocolError> {
        let rest = self.remaining();
        if rest == 0 {
            Ok(())
        } else {
            Err(ProtocolError::TrailingBytes(rest))
        }
    }
}

/// Extracts the request id from a payload, if it is long enough to carry
/// one. Used to address a typed error reply for a payload that failed to
/// decode.
pub fn peek_request_id(payload: &[u8]) -> Option<u64> {
    payload
        .get(..8)
        .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
}

/// Decodes a request payload (the bytes after the length prefix) into
/// owned bytes.
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), ProtocolError> {
    decode(payload)
}

/// Decodes a request payload into borrowed views — no key/value copies.
/// The views live as long as `payload`, so the server can dispatch a GET
/// or SCAN straight off the connection's read buffer.
pub fn decode_request_ref(payload: &[u8]) -> Result<(u64, RequestRef<'_>), ProtocolError> {
    decode(payload)
}

/// The one request decoder behind [`decode_request`] and
/// [`decode_request_ref`]; `B` is how the operands are held.
fn decode<'a, B: From<&'a [u8]>>(payload: &'a [u8]) -> Result<(u64, Request<B>), ProtocolError> {
    let mut c = Cur::new(payload);
    let id = c.u64()?;
    let op = c.u8()?;
    let req = match op {
        1 => Request::Get { key: c.bytes()? },
        2 => Request::Put {
            key: c.bytes()?,
            value: c.bytes()?,
        },
        3 => Request::Delete { key: c.bytes()? },
        4 => Request::Scan {
            start: c.bytes()?,
            end: c.bytes()?,
            limit: c.u32()?,
        },
        5 => Request::Stats,
        6 => Request::ReplSubscribe {
            replica_id: c.u64()?,
            from_seq: c.u64()?,
        },
        7 => Request::ReplBatch {
            seq: c.u64()?,
            // the ops region is the remainder of the payload; it is
            // validated lazily by `repl_ops` at apply time
            ops: B::from(c.rest()),
        },
        8 => Request::ShardMap,
        9 => Request::TxnBegin,
        10 => Request::TxnGet { key: c.bytes()? },
        11 => Request::TxnPut {
            key: c.bytes()?,
            value: c.bytes()?,
        },
        12 => Request::TxnDelete { key: c.bytes()? },
        13 => Request::TxnCommit,
        14 => Request::TxnAbort,
        15 => Request::TuneStatus,
        other => return Err(ProtocolError::BadTag(other)),
    };
    c.finish()?;
    Ok((id, req))
}

/// Decodes a response payload (the bytes after the length prefix).
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), ProtocolError> {
    let mut c = Cur::new(payload);
    let id = c.u64()?;
    let status = c.u8()?;
    let resp = match status {
        0 => Response::Ok,
        1 => Response::Value(c.bytes()?),
        2 => Response::NotFound,
        3 => {
            let count = c.u32()? as usize;
            // each entry is at least 8 bytes of length prefixes; cap the
            // pre-allocation so a lying count cannot balloon memory
            let mut entries = Vec::with_capacity(count.min(payload.len() / 8 + 1));
            for _ in 0..count {
                let k = c.bytes()?;
                let v = c.bytes()?;
                entries.push((k, v));
            }
            Response::Entries(entries)
        }
        4 => Response::Stats(c.string()?),
        5 => Response::Error(c.string()?),
        6 => Response::Busy,
        7 => Response::ShuttingDown,
        8 => Response::ReplAck { seq: c.u64()? },
        9 => Response::ReplicaLag,
        10 => {
            let version = c.u64()?;
            let count = c.u32()? as usize;
            let mut entries = Vec::with_capacity(count.min(payload.len() / 8 + 1));
            for _ in 0..count {
                let shard_id = c.u64()?;
                let start = c.bytes()?;
                entries.push((shard_id, start));
            }
            Response::ShardMap { version, entries }
        }
        11 => Response::TxnConflict { key: c.bytes()? },
        12 => Response::TxnCommitted { stamp: c.u64()? },
        13 => Response::NoTxn,
        14 => {
            let count = c.u32()? as usize;
            let mut entries = Vec::with_capacity(count.min(payload.len() / 8 + 1));
            for _ in 0..count {
                let shard_id = c.u64()?;
                let json = c.string()?;
                entries.push((shard_id, json));
            }
            Response::TuneStatus(entries)
        }
        other => return Err(ProtocolError::BadTag(other)),
    };
    c.finish()?;
    Ok((id, resp))
}

// ---------------------------------------------------------------------------
// Frame reading
// ---------------------------------------------------------------------------

/// Reads frames off a byte stream, tolerating read timeouts.
///
/// `next_frame_ref` polls `keep_waiting` whenever the underlying reader
/// times out with no bytes pending; returning `false` ends the stream
/// (clean [`None`] at a frame boundary, [`FrameError::Truncated`] inside
/// one). This is how a server drain interrupts readers parked on idle
/// connections without an extra thread per socket.
pub struct FrameReader<R: Read> {
    r: R,
    max: usize,
    buf: Vec<u8>,
    /// Bytes of `buf` that are valid.
    filled: usize,
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

impl<R: Read> FrameReader<R> {
    /// Wraps `r`; payloads above `max` bytes are rejected as
    /// [`FrameError::Oversize`].
    pub fn new(r: R, max: usize) -> Self {
        FrameReader {
            r,
            max,
            buf: vec![0u8; 4096],
            filled: 0,
        }
    }

    /// Reads until `buf[..want]` is filled. `Ok(false)` means the stream
    /// ended (EOF or abandoned wait) first.
    fn fill(&mut self, want: usize, keep_waiting: &mut dyn FnMut() -> bool) -> Result<bool, FrameError> {
        if self.buf.len() < want {
            self.buf.resize(want, 0);
        }
        while self.filled < want {
            match self.r.read(&mut self.buf[self.filled..want]) {
                Ok(0) => return Ok(false),
                Ok(n) => self.filled += n,
                Err(e) if is_timeout(&e) => {
                    if !keep_waiting() {
                        return Ok(false);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        Ok(true)
    }

    /// Returns the next frame's payload as a view into the reader's
    /// internal buffer, valid until the next call: `Ok(None)` on a clean
    /// end of stream (EOF or `keep_waiting() == false` at a frame
    /// boundary), or a [`FrameError`] the connection cannot recover from.
    /// The buffer is filled in place and never reallocated once it has
    /// grown to the connection's largest frame.
    pub fn next_frame_ref(
        &mut self,
        mut keep_waiting: impl FnMut() -> bool,
    ) -> Result<Option<&[u8]>, FrameError> {
        if !self.fill(4, &mut keep_waiting)? {
            return if self.filled == 0 {
                Ok(None)
            } else {
                Err(FrameError::Truncated)
            };
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap()) as usize;
        if len == 0 {
            return Err(FrameError::ZeroLength);
        }
        if len > self.max {
            return Err(FrameError::Oversize {
                len: len as u64,
                max: self.max,
            });
        }
        if !self.fill(4 + len, &mut keep_waiting)? {
            return Err(FrameError::Truncated);
        }
        self.filled = 0;
        Ok(Some(&self.buf[4..4 + len]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// encode∘decode is the identity through both decoder
    /// instantiations, and the borrowed decode re-encodes to the same
    /// frame as the owned one.
    fn roundtrip_request(req: Request) {
        let frame = encode_request(42, &req);
        let (id, back) = decode_request(&frame[4..]).unwrap();
        assert_eq!(id, 42);
        assert_eq!(back, req);
        let (id, by_ref) = decode_request_ref(&frame[4..]).unwrap();
        assert_eq!(id, 42);
        assert_eq!(encode_request(42, &by_ref), frame, "{by_ref:?} vs {req:?}");
    }

    fn roundtrip_response(resp: Response) {
        let mut frame = Vec::new();
        encode_response_into(&mut frame, 7, &resp);
        let (id, back) = decode_response(&frame[4..]).unwrap();
        assert_eq!(id, 7);
        assert_eq!(back, resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Get { key: b"k".to_vec() });
        roundtrip_request(Request::Put {
            key: b"key".to_vec(),
            value: vec![0, 255, 7],
        });
        roundtrip_request(Request::Delete { key: Vec::new() });
        roundtrip_request(Request::Scan {
            start: b"a".to_vec(),
            end: b"z".to_vec(),
            limit: 1000,
        });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::ReplSubscribe {
            replica_id: 2,
            from_seq: u64::MAX,
        });
        let mut b = ReplOpsBuilder::new();
        b.put(b"k", b"v");
        b.delete(b"gone");
        roundtrip_request(Request::ReplBatch {
            seq: 77,
            ops: b.finish(),
        });
        roundtrip_request(Request::ShardMap);
        roundtrip_request(Request::TxnBegin);
        roundtrip_request(Request::TxnGet { key: b"k".to_vec() });
        roundtrip_request(Request::TxnPut {
            key: b"key".to_vec(),
            value: vec![9, 0, 42],
        });
        roundtrip_request(Request::TxnDelete { key: Vec::new() });
        roundtrip_request(Request::TxnCommit);
        roundtrip_request(Request::TxnAbort);
        roundtrip_request(Request::TuneStatus);
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(Response::Ok);
        roundtrip_response(Response::Value(vec![1, 2, 3]));
        roundtrip_response(Response::NotFound);
        roundtrip_response(Response::Entries(vec![
            (b"a".to_vec(), b"1".to_vec()),
            (b"b".to_vec(), Vec::new()),
        ]));
        roundtrip_response(Response::Stats("{\"x\":1}".into()));
        roundtrip_response(Response::Error("boom".into()));
        roundtrip_response(Response::Busy);
        roundtrip_response(Response::ShuttingDown);
        roundtrip_response(Response::ReplAck { seq: 12345 });
        roundtrip_response(Response::ReplicaLag);
        roundtrip_response(Response::ShardMap {
            version: 0,
            entries: Vec::new(),
        });
        roundtrip_response(Response::ShardMap {
            version: 9,
            entries: vec![(0, Vec::new()), (3, vec![64]), (2, vec![128, 0])],
        });
        roundtrip_response(Response::TxnConflict { key: b"hot".to_vec() });
        roundtrip_response(Response::TxnCommitted { stamp: u64::MAX });
        roundtrip_response(Response::NoTxn);
        roundtrip_response(Response::TuneStatus(Vec::new()));
        roundtrip_response(Response::TuneStatus(vec![
            (0, "{\"ticks\":3}".into()),
            (7, "{\"decisions\":1}".into()),
        ]));
    }

    #[test]
    fn repl_ops_roundtrip_and_reject_garbage() {
        let mut b = ReplOpsBuilder::new();
        b.put(b"alpha", b"1");
        b.delete(b"beta");
        b.put(b"", b"");
        assert_eq!(b.count(), 3);
        let region = b.finish();
        let decoded: Vec<_> = repl_ops(&region).unwrap().map(Result::unwrap).collect();
        let expect: [WriteOp<&[u8]>; 3] = [
            WriteOp::Put {
                key: b"alpha",
                value: b"1",
            },
            WriteOp::Delete { key: b"beta" },
            WriteOp::Put { key: b"", value: b"" },
        ];
        assert_eq!(decoded, expect);

        // empty region: zero ops, no error
        assert_eq!(repl_ops(&ReplOpsBuilder::new().finish()).unwrap().count(), 0);

        // too short to carry a count
        assert!(repl_ops(&[1, 2]).is_err());

        // unknown op kind fails typed, then the iterator fuses
        let mut bad = 1u32.to_le_bytes().to_vec();
        bad.push(9);
        let mut it = repl_ops(&bad).unwrap();
        assert_eq!(it.next(), Some(Err(ProtocolError::BadTag(9))));
        assert_eq!(it.next(), None);

        // count promising more ops than the region holds → Truncated
        let mut short = 2u32.to_le_bytes().to_vec();
        short.push(2);
        short.extend_from_slice(&1u32.to_le_bytes());
        short.push(b'k');
        let mut it = repl_ops(&short).unwrap();
        assert!(it.next().unwrap().is_ok());
        assert_eq!(it.next(), Some(Err(ProtocolError::Truncated)));

        // trailing bytes after the last promised op
        let mut trailing = ReplOpsBuilder::new();
        trailing.delete(b"x");
        let mut region = trailing.finish();
        region.push(0xEE);
        let mut it = repl_ops(&region).unwrap();
        assert!(it.next().unwrap().is_ok());
        assert_eq!(it.next(), Some(Err(ProtocolError::TrailingBytes(1))));
    }

    #[test]
    fn decode_rejects_bad_payloads_without_panic() {
        assert_eq!(decode_request(&[]), Err(ProtocolError::Truncated));
        assert_eq!(decode_request(&[0; 8]), Err(ProtocolError::Truncated));
        assert_eq!(decode_request(&[0; 9]), Err(ProtocolError::BadTag(0)));
        // GET with a key length promising more bytes than the payload has
        let mut p = vec![0u8; 9];
        p[8] = 1;
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_request(&p), Err(ProtocolError::Truncated));
        // trailing garbage after a complete message
        let mut frame = encode_request(1, &RequestRef::Stats);
        frame.push(0xEE);
        assert_eq!(decode_request(&frame[4..]), Err(ProtocolError::TrailingBytes(1)));
        assert_eq!(decode_request_ref(&frame[4..]), Err(ProtocolError::TrailingBytes(1)));
    }

    #[test]
    fn frame_reader_rejects_bad_prefixes() {
        let zero = 0u32.to_le_bytes();
        let mut fr = FrameReader::new(&zero[..], 64);
        assert!(matches!(fr.next_frame_ref(|| true), Err(FrameError::ZeroLength)));

        let huge = u32::MAX.to_le_bytes();
        let mut fr = FrameReader::new(&huge[..], 64);
        assert!(matches!(fr.next_frame_ref(|| true), Err(FrameError::Oversize { .. })));

        // truncated: header promises 10 bytes, stream has 3
        let mut bytes = 10u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut fr = FrameReader::new(&bytes[..], 64);
        assert!(matches!(fr.next_frame_ref(|| true), Err(FrameError::Truncated)));
    }

    #[test]
    fn peek_id_needs_eight_bytes() {
        assert_eq!(peek_request_id(&[1, 0, 0, 0, 0, 0, 0, 0]), Some(1));
        assert_eq!(peek_request_id(&[1, 2, 3]), None);
    }

    #[test]
    fn encode_into_appends_frames_to_a_shared_buffer() {
        let mut out = Vec::new();
        encode_response_into(&mut out, 1, &Response::Ok);
        encode_value_response_into(&mut out, 2, b"vv");
        let mut enc = begin_entries_response(&mut out, 3, MAX_FRAME_BYTES);
        enc.push(b"a", b"1");
        enc.push(b"b", b"");
        assert!(enc.finish());
        // entries past the payload cap leave no partial frame behind
        let sealed = out.len();
        let mut enc = begin_entries_response(&mut out, 4, 24);
        enc.push(b"key", &[7; 16]);
        enc.push(b"more", b"");
        assert!(!enc.finish(), "a 40-byte payload is over a 24-byte cap");
        assert_eq!(out.len(), sealed);
        let mut fr = FrameReader::new(&out[..], MAX_FRAME_BYTES);
        let p1 = fr.next_frame_ref(|| true).unwrap().unwrap();
        assert_eq!(decode_response(p1).unwrap(), (1, Response::Ok));
        let p2 = fr.next_frame_ref(|| true).unwrap().unwrap();
        assert_eq!(decode_response(p2).unwrap(), (2, Response::Value(b"vv".to_vec())));
        let p3 = fr.next_frame_ref(|| true).unwrap().unwrap();
        assert_eq!(
            decode_response(p3).unwrap(),
            (
                3,
                Response::Entries(vec![(b"a".to_vec(), b"1".to_vec()), (b"b".to_vec(), Vec::new())])
            )
        );
        assert!(fr.next_frame_ref(|| true).unwrap().is_none());
    }

    #[test]
    fn next_frame_ref_reads_back_to_back_frames_in_place() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_request(1, &Request::Get { key: b"a".to_vec() }));
        stream.extend_from_slice(&encode_request(2, &RequestRef::Stats));
        let mut fr = FrameReader::new(&stream[..], MAX_FRAME_BYTES);
        {
            let p = fr.next_frame_ref(|| true).unwrap().unwrap();
            let (id, req) = decode_request_ref(p).unwrap();
            assert_eq!(id, 1);
            assert_eq!(req, RequestRef::Get { key: b"a" });
        }
        {
            let p = fr.next_frame_ref(|| true).unwrap().unwrap();
            assert_eq!(decode_request_ref(p).unwrap(), (2, RequestRef::Stats));
        }
        assert!(fr.next_frame_ref(|| true).unwrap().is_none(), "clean EOF");
    }
}
