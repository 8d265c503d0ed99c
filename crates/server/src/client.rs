//! A minimal blocking client for the wire protocol.
//!
//! The client assigns monotonically increasing request ids and supports
//! two calling styles:
//!
//! - **call**: send one request, wait for its response (internally still
//!   id-matched, so it composes with pipelined traffic in flight);
//! - **pipeline**: [`Client::send`] many requests, then
//!   [`Client::wait_for`] each id. Responses arriving out of order are
//!   stashed until asked for, so completion order never confuses the
//!   caller.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};

use crate::protocol::{
    decode_response, encode_request, FrameError, FrameReader, Request, Response, MAX_FRAME_BYTES,
};

fn frame_to_io(e: FrameError) -> io::Error {
    match e {
        FrameError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    }
}

/// A shard-map wire snapshot: the map version plus `(shard_id,
/// range_start)` entries sorted by start key.
pub type ShardMapEntries = (u64, Vec<(u64, Vec<u8>)>);

/// Typed outcome of [`Client::txn_commit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxnCommitStatus {
    /// Validated and applied; carries the global commit stamp (replaying
    /// committed transactions in stamp order reproduces the final state).
    Committed(u64),
    /// First-committer-wins validation failed on this key; the
    /// transaction left no trace. Retry with a fresh transaction.
    Conflict(Vec<u8>),
}

/// A blocking connection to an `lsm-server`.
pub struct Client {
    stream: TcpStream,
    reader: FrameReader<TcpStream>,
    next_id: u64,
    /// Responses received while waiting for a different id.
    stash: HashMap<u64, Response>,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let rs = stream.try_clone()?;
        Ok(Client {
            stream,
            reader: FrameReader::new(rs, MAX_FRAME_BYTES),
            next_id: 1,
            stash: HashMap::new(),
        })
    }

    /// Sends `req` without waiting; returns its id for [`Client::wait_for`].
    pub fn send(&mut self, req: &Request) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.stream.write_all(&encode_request(id, req))?;
        Ok(id)
    }

    /// Receives the next response in arrival order.
    pub fn recv(&mut self) -> io::Result<(u64, Response)> {
        match self.reader.next_frame_ref(|| true).map_err(frame_to_io)? {
            Some(payload) => decode_response(payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }

    /// Blocks until the response for `id` arrives, stashing any other
    /// responses that land first.
    pub fn wait_for(&mut self, id: u64) -> io::Result<Response> {
        if let Some(resp) = self.stash.remove(&id) {
            return Ok(resp);
        }
        loop {
            let (got, resp) = self.recv()?;
            if got == id {
                return Ok(resp);
            }
            self.stash.insert(got, resp);
        }
    }

    /// Sends `req` and waits for its response.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        let id = self.send(req)?;
        self.wait_for(id)
    }

    /// Point lookup.
    pub fn get(&mut self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        match self.call(&Request::Get { key: key.to_vec() })? {
            Response::Value(v) => Ok(Some(v)),
            Response::NotFound => Ok(None),
            other => Err(unexpected(other)),
        }
    }

    /// Write; `Ok` means acknowledged per the server's durability policy.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> io::Result<()> {
        match self.call(&Request::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        })? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Tombstone write.
    pub fn delete(&mut self, key: &[u8]) -> io::Result<()> {
        match self.call(&Request::Delete { key: key.to_vec() })? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Ordered scan of `[start, end)`, at most `limit` entries.
    pub fn scan(
        &mut self,
        start: &[u8],
        end: &[u8],
        limit: u32,
    ) -> io::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        match self.call(&Request::Scan {
            start: start.to_vec(),
            end: end.to_vec(),
            limit,
        })? {
            Response::Entries(entries) => Ok(entries),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the server's shard map: `(version, entries)` where each
    /// entry is `(shard_id, range_start)` sorted by start key. A version
    /// of `0` with no entries means the server is hash-routed.
    pub fn shard_map(&mut self) -> io::Result<ShardMapEntries> {
        match self.call(&Request::ShardMap)? {
            Response::ShardMap { version, entries } => Ok((version, entries)),
            other => Err(unexpected(other)),
        }
    }

    /// Opens an optimistic transaction on this connection. Fails if one
    /// is already active.
    pub fn txn_begin(&mut self) -> io::Result<()> {
        match self.call(&Request::TxnBegin)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Transactional read through the transaction's snapshot (and its
    /// own buffered writes); the key joins the read-set.
    pub fn txn_get(&mut self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        match self.call(&Request::TxnGet { key: key.to_vec() })? {
            Response::Value(v) => Ok(Some(v)),
            Response::NotFound => Ok(None),
            other => Err(unexpected(other)),
        }
    }

    /// Buffers a put in the open transaction (nothing reaches the engine
    /// until commit).
    pub fn txn_put(&mut self, key: &[u8], value: &[u8]) -> io::Result<()> {
        match self.call(&Request::TxnPut {
            key: key.to_vec(),
            value: value.to_vec(),
        })? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Buffers a delete in the open transaction.
    pub fn txn_delete(&mut self, key: &[u8]) -> io::Result<()> {
        match self.call(&Request::TxnDelete { key: key.to_vec() })? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Commits the open transaction: [`TxnCommitStatus::Committed`] with
    /// the global stamp, or [`TxnCommitStatus::Conflict`] when
    /// first-committer-wins validation failed (the transaction is gone
    /// either way).
    pub fn txn_commit(&mut self) -> io::Result<TxnCommitStatus> {
        match self.call(&Request::TxnCommit)? {
            Response::TxnCommitted { stamp } => Ok(TxnCommitStatus::Committed(stamp)),
            Response::TxnConflict { key } => Ok(TxnCommitStatus::Conflict(key)),
            other => Err(unexpected(other)),
        }
    }

    /// Discards the open transaction; idempotent (aborting with none
    /// open is still `Ok`).
    pub fn txn_abort(&mut self) -> io::Result<()> {
        match self.call(&Request::TxnAbort)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Server metrics snapshot as a JSON line.
    pub fn stats(&mut self) -> io::Result<String> {
        match self.call(&Request::Stats)? {
            Response::Stats(json) => Ok(json),
            other => Err(unexpected(other)),
        }
    }

    /// Ticks the server's per-shard self-tuners (if configured) and
    /// returns each shard's tuner status as `(shard_id, JSON)`. An empty
    /// list means the server runs without a tuner.
    pub fn tune_status(&mut self) -> io::Result<Vec<(u64, String)>> {
        match self.call(&Request::TuneStatus)? {
            Response::TuneStatus(entries) => Ok(entries),
            other => Err(unexpected(other)),
        }
    }

    /// Raw access for tests that need to write arbitrary bytes.
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}

fn unexpected(resp: Response) -> io::Error {
    let msg = match resp {
        Response::Error(m) => format!("server error: {m}"),
        Response::Busy => "server busy (admission control)".to_string(),
        Response::ReplicaLag => {
            "replica quorum not reached in time (write durable on primary)".to_string()
        }
        Response::ShuttingDown => "server shutting down".to_string(),
        Response::NoTxn => {
            "no transaction active on this connection (never begun, finished, or timed out)"
                .to_string()
        }
        other => format!("unexpected response: {other:?}"),
    };
    io::Error::other(msg)
}
