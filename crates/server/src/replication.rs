//! Primary → replica replication: the sequenced log of committed
//! group-commit batches, per-replica shipper threads, quorum-ack
//! bookkeeping, and the replica-side apply path.
//!
//! ## Unit of replication
//!
//! The per-shard group committer already folds concurrent writes into
//! one `Db::write_batch` — one WAL append — per batch. That batch is the
//! replication unit: after a batch commits (and syncs) locally, the
//! committer publishes its ops to the [`Replicator`], which assigns the
//! next **replication sequence** and wakes the shippers. Sequences are
//! global across shards and consecutive, so a replica can detect any gap.
//!
//! ## Shipping
//!
//! The primary runs one shipper thread per configured replica. A shipper
//! is a *client* of the replica's server: it connects, sends
//! `REPL_SUBSCRIBE`, learns the replica's applied watermark from the
//! `REPL_ACK` reply, and then streams `REPL_BATCH` frames from
//! `watermark + 1`, pipelining sends and draining acks. A dropped
//! connection is retried with backoff; the resubscribe handshake resyncs
//! the stream position, so duplicated delivery after a reconnect is
//! normal and handled by the replica's duplicate rule.
//!
//! ## Apply rules (replica side)
//!
//! Applies are serialized under one mutex, against the in-memory applied
//! watermark `A`:
//!
//! - `seq <= A`: duplicate — ack `A` without applying (idempotent);
//! - `seq == A + 1`: decode **all** ops first (malformed ops reject the
//!   whole batch, nothing half-applies), route them to the replica's own
//!   shards by the same FNV partition, apply via
//!   `Db::write_batch_replicated`, sync every shard that received ops,
//!   then advance `A` and ack;
//! - `seq > A + 1`: gap — typed error, no apply, no watermark motion.
//!
//! Every shard's watermark advances on every batch (shards the batch
//! does not touch advance "by omission"), so any single shard's
//! persisted `applied_seq` is a valid lower bound for resubscription.
//!
//! ## Quorum acks
//!
//! A primary write is acked to the client only after `ack_quorum`
//! replicas have acked its sequence, bounded by `ack_timeout_ms`; on
//! timeout the client gets the typed `REPLICA_LAG` response — the write
//! is durable on the primary and will still reach the replicas, but the
//! redundancy guarantee was not met in time and the client gets to know.
//!
//! ## Retention
//!
//! The log keeps every published batch for the server's lifetime so a
//! replica can always resubscribe from any watermark at or above the
//! log's base. A production deployment would trim below the all-replica
//! ack frontier and fall back to snapshot shipping for replicas behind
//! the trim point; at this system's scale the untrimmed log is the
//! simpler invariant to test against.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lsm_core::WriteBatch;
use lsm_obs::EventKind;

use crate::metrics::ServerMetrics;
use crate::protocol::{
    decode_response, encode_request, repl_ops, FrameReader, RequestRef, Response, MAX_FRAME_BYTES,
};
use crate::router::ShardSet;

/// How a server participates in replication.
#[derive(Clone, Debug, Default)]
pub enum ReplicationRole {
    /// Standalone: no shipping, no replica apply path.
    #[default]
    None,
    /// Ships committed batches to replicas and acks writes at quorum.
    Primary(PrimaryReplication),
    /// Applies shipped batches; client writes are refused (read-only).
    Replica,
}

/// Primary-side replication knobs.
#[derive(Clone, Debug)]
pub struct PrimaryReplication {
    /// Replica server addresses (one shipper thread each).
    pub replicas: Vec<SocketAddr>,
    /// Replicas that must ack a write's sequence before the client is
    /// acked. `0` disables the per-write wait (fire-and-forget shipping).
    pub ack_quorum: usize,
    /// Bound on the per-write quorum wait; on expiry the client gets
    /// `REPLICA_LAG` instead of `OK`.
    pub ack_timeout_ms: u64,
    /// Bound on the graceful-drain wait for *all* replicas to ack every
    /// published batch (see [`Replicator::drain`]).
    pub drain_timeout_ms: u64,
}

impl Default for PrimaryReplication {
    fn default() -> Self {
        PrimaryReplication {
            replicas: Vec::new(),
            ack_quorum: 0,
            ack_timeout_ms: 2_000,
            drain_timeout_ms: 5_000,
        }
    }
}

/// One published batch: its ops region, shared with every shipper.
struct LogEntry {
    ops: Arc<Vec<u8>>,
}

struct LogState {
    /// `entries[i]` carries sequence `base + 1 + i`.
    entries: Vec<LogEntry>,
    /// Highest sequence each replica has acked.
    acked: Vec<u64>,
}

/// The primary's replication log and shipper pool.
pub struct Replicator {
    /// Sequences start at `base + 1` — the promoted watermark for a
    /// server that used to be a replica, 0 for a fresh primary.
    base: u64,
    cfg: PrimaryReplication,
    state: Mutex<LogState>,
    /// Notified on publish (wakes shippers) and on ack (wakes quorum and
    /// drain waiters).
    cv: Condvar,
    /// Graceful drain: shippers finish the log, then exit.
    draining: AtomicBool,
    /// Hard stop: shippers exit as soon as they notice.
    aborting: AtomicBool,
    metrics: Arc<ServerMetrics>,
    shippers: Mutex<Vec<JoinHandle<()>>>,
}

impl Replicator {
    /// Starts one shipper thread per configured replica. `base` is the
    /// highest sequence already applied by this node's shards.
    pub fn start(base: u64, cfg: PrimaryReplication, metrics: Arc<ServerMetrics>) -> Arc<Self> {
        let n = cfg.replicas.len();
        let rep = Arc::new(Replicator {
            base,
            cfg,
            state: Mutex::new(LogState {
                entries: Vec::new(),
                acked: vec![base; n],
            }),
            cv: Condvar::new(),
            draining: AtomicBool::new(false),
            aborting: AtomicBool::new(false),
            metrics,
            shippers: Mutex::new(Vec::new()),
        });
        let handles: Vec<JoinHandle<()>> = rep
            .cfg
            .replicas
            .iter()
            .enumerate()
            .map(|(idx, &addr)| {
                let rep = Arc::clone(&rep);
                std::thread::Builder::new()
                    .name(format!("lsm-repl-shipper-{idx}"))
                    .spawn(move || shipper_loop(rep, idx, addr))
                    .expect("spawn shipper thread")
            })
            .collect();
        *rep.shippers.lock().unwrap() = handles;
        rep
    }

    /// Replicas that must ack before a write is acked to the client.
    pub fn ack_quorum(&self) -> usize {
        self.cfg.ack_quorum
    }

    /// The per-write quorum wait bound.
    pub fn ack_timeout(&self) -> Duration {
        Duration::from_millis(self.cfg.ack_timeout_ms)
    }

    /// Assigns the next sequence to a committed batch's ops region and
    /// wakes the shippers. Call only after the batch is durable locally.
    pub fn publish(&self, ops: Vec<u8>) -> u64 {
        let mut g = self.state.lock().unwrap();
        g.entries.push(LogEntry { ops: Arc::new(ops) });
        let seq = self.base + g.entries.len() as u64;
        let lag = seq - g.acked.iter().copied().min().unwrap_or(seq);
        self.metrics.repl_lag.set(lag as i64);
        self.cv.notify_all();
        seq
    }

    /// Last published sequence (== `base` when nothing is published).
    pub fn last_published(&self) -> u64 {
        self.base + self.state.lock().unwrap().entries.len() as u64
    }

    /// Blocks until `ack_quorum` replicas have acked `seq`, bounded by
    /// the ack timeout. `true` means the quorum was reached.
    pub fn wait_quorum(&self, seq: u64) -> bool {
        if self.cfg.ack_quorum == 0 {
            return true;
        }
        let deadline = Instant::now() + self.ack_timeout();
        let mut g = self.state.lock().unwrap();
        loop {
            let n = g.acked.iter().filter(|&&a| a >= seq).count();
            if n >= self.cfg.ack_quorum {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (g2, _) = self.cv.wait_timeout(g, deadline - now).unwrap();
            g = g2;
        }
    }

    /// The graceful-drain barrier: blocks until **every** replica has
    /// acked every published batch, bounded by `drain_timeout_ms`.
    /// Returns `false` on timeout (some replica is behind or gone).
    ///
    /// Quorum was already enforced per write; the drain waits for all
    /// replicas so that after a clean shutdown a failover to *any*
    /// replica loses nothing the primary committed.
    pub fn drain(&self) -> bool {
        self.draining.store(true, Ordering::Release);
        let deadline = Instant::now() + Duration::from_millis(self.cfg.drain_timeout_ms);
        let mut g = self.state.lock().unwrap();
        loop {
            let last = self.base + g.entries.len() as u64;
            if g.acked.iter().all(|&a| a >= last) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (g2, _) = self.cv.wait_timeout(g, deadline - now).unwrap();
            g = g2;
        }
    }

    /// Stops the shippers (no further shipping) and joins them.
    pub fn stop(&self) {
        self.aborting.store(true, Ordering::Release);
        self.draining.store(true, Ordering::Release);
        self.cv.notify_all();
        let handles: Vec<_> = self.shippers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    fn record_ack(&self, idx: usize, seq: u64) {
        let mut g = self.state.lock().unwrap();
        if seq > g.acked[idx] {
            g.acked[idx] = seq;
        }
        let last = self.base + g.entries.len() as u64;
        let lag = last.saturating_sub(g.acked.iter().copied().min().unwrap_or(last));
        self.metrics.repl_lag.set(lag as i64);
        self.metrics.repl_acks.inc();
        self.cv.notify_all();
    }

    /// The entry carrying `seq`, or `None` if not yet published. Blocks
    /// up to `wait` for it to appear.
    fn entry_or_wait(&self, seq: u64, wait: Duration) -> Option<Arc<Vec<u8>>> {
        let idx = seq.checked_sub(self.base + 1)? as usize;
        let g = self.state.lock().unwrap();
        if let Some(e) = g.entries.get(idx) {
            return Some(Arc::clone(&e.ops));
        }
        let (g2, _) = self.cv.wait_timeout(g, wait).unwrap();
        g2.entries.get(idx).map(|e| Arc::clone(&e.ops))
    }

    fn stopping(&self) -> bool {
        self.aborting.load(Ordering::Acquire)
    }

    fn caught_up(&self, next: u64) -> bool {
        self.draining.load(Ordering::Acquire) && next > self.last_published()
    }
}

/// One shipper thread: connect → subscribe → stream batches, drain acks.
fn shipper_loop(rep: Arc<Replicator>, idx: usize, addr: SocketAddr) {
    'sessions: while !rep.stopping() {
        // connect with backoff; a replica that is not up yet is normal
        let stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(_) => {
                if rep.caught_up(rep.base + 1) {
                    // nothing was ever published and we are draining
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
        let mut writer = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        };
        let mut reader = FrameReader::new(stream, MAX_FRAME_BYTES);
        let mut next_id = 1u64;

        // handshake: the replica's watermark decides where we start
        let sub = RequestRef::ReplSubscribe {
            replica_id: idx as u64,
            from_seq: rep.base + 1,
        };
        if writer.write_all(&encode_request(next_id, &sub)).is_err() {
            continue;
        }
        next_id += 1;
        let applied = match read_ack(&mut reader, &rep) {
            AckRead::Ack(seq) => seq,
            AckRead::Stop => return,
            AckRead::Reconnect => continue,
        };
        // the log cannot supply history below its base; a replica that
        // is further behind than that needs a snapshot, which this
        // system does not ship — start at the oldest entry we have
        let mut next = (applied + 1).max(rep.base + 1);
        rep.metrics.event(EventKind::ReplicaConnect {
            replica: idx as u64,
            from_seq: next,
        });
        let mut outstanding = 0usize;

        loop {
            // ship everything published, pipelined
            while let Some(ops) = rep.entry_or_wait(next, Duration::from_millis(0)) {
                // encoded straight off the shared log entry: no copy of
                // the ops region per frame or per replica
                let frame = encode_request(
                    next_id,
                    &RequestRef::ReplBatch {
                        seq: next,
                        ops: &ops,
                    },
                );
                next_id += 1;
                if writer.write_all(&frame).is_err() {
                    continue 'sessions;
                }
                rep.metrics.repl_batches_shipped.inc();
                next += 1;
                outstanding += 1;
            }
            if outstanding == 0 {
                if rep.stopping() || rep.caught_up(next) {
                    return;
                }
                // park until the next publish (or a stop) wakes us
                let _ = rep.entry_or_wait(next, Duration::from_millis(25));
                continue;
            }
            match read_ack(&mut reader, &rep) {
                AckRead::Ack(seq) => {
                    // an ack carries the replica's watermark and covers
                    // every outstanding batch at or below it
                    let covered = (seq + 1).max(rep.base + 1);
                    outstanding = (next - covered.min(next)) as usize;
                    rep.record_ack(idx, seq);
                }
                AckRead::Stop => return,
                AckRead::Reconnect => continue 'sessions,
            }
        }
    }
}

enum AckRead {
    Ack(u64),
    /// The replicator is stopping; exit the thread.
    Stop,
    /// Connection died or the replica rejected something (e.g. a gap
    /// after a reconnect race) — resubscribe to resync.
    Reconnect,
}

fn read_ack(reader: &mut FrameReader<TcpStream>, rep: &Replicator) -> AckRead {
    match reader.next_frame_ref(|| !rep.stopping()) {
        Ok(Some(payload)) => match decode_response(payload) {
            Ok((_, Response::ReplAck { seq })) => AckRead::Ack(seq),
            // anything else (a typed rejection, a draining replica, or
            // garbage) invalidates the session; resubscribing resyncs
            Ok(_) | Err(_) => AckRead::Reconnect,
        },
        Ok(None) => {
            if rep.stopping() {
                AckRead::Stop
            } else {
                AckRead::Reconnect
            }
        }
        Err(_) => AckRead::Reconnect,
    }
}

// ---------------------------------------------------------------------------
// Replica-side apply
// ---------------------------------------------------------------------------

/// The replica's apply state: one watermark, one apply at a time.
pub struct ReplicaState {
    /// The applied watermark; the mutex also serializes applies.
    applied: Mutex<u64>,
}

/// Why a batch was rejected (the connection survives; the shipper
/// resubscribes to resync).
#[derive(Debug, PartialEq, Eq)]
pub enum ApplyError {
    /// `seq` skipped past the watermark: expected `expected`.
    Gap {
        /// The only sequence the replica would accept.
        expected: u64,
        /// The sequence that arrived.
        got: u64,
    },
    /// The ops region failed to decode; nothing was applied.
    Malformed(String),
    /// The engine refused the batch.
    Storage(String),
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::Gap { expected, got } => {
                write!(f, "replication gap: expected seq {expected}, got {got}")
            }
            ApplyError::Malformed(m) => write!(f, "malformed repl batch: {m}"),
            ApplyError::Storage(m) => write!(f, "repl apply failed: {m}"),
        }
    }
}

impl ReplicaState {
    /// Initializes the watermark from the shards' recovered manifests.
    ///
    /// The minimum across shards is the safe starting point: a shard's
    /// persisted watermark can be stale (manifests are written on flush,
    /// not per batch), and re-applying a suffix of batches in order is
    /// idempotent, while skipping one is not.
    pub fn new(shards: &ShardSet) -> Self {
        let applied = shards
            .dbs()
            .iter()
            .map(|db| db.applied_seq())
            .min()
            .unwrap_or(0);
        ReplicaState {
            applied: Mutex::new(applied),
        }
    }

    /// The current applied watermark.
    pub fn applied(&self) -> u64 {
        *self.applied.lock().unwrap()
    }

    /// Applies one shipped batch under the apply rules; returns the
    /// watermark to ack (which may exceed `seq` for a duplicate).
    pub fn apply_batch(&self, shards: &ShardSet, seq: u64, ops: &[u8]) -> Result<u64, ApplyError> {
        let mut g = self.applied.lock().unwrap();
        if seq <= *g {
            return Ok(*g); // duplicate delivery (reconnect replays)
        }
        if seq != *g + 1 {
            return Err(ApplyError::Gap {
                expected: *g + 1,
                got: seq,
            });
        }
        // decode everything before applying anything: a malformed op
        // rejects the whole batch, so nothing half-applies
        let n = shards.len();
        let mut per_shard: Vec<WriteBatch> = (0..n).map(|_| WriteBatch::new()).collect();
        let iter = repl_ops(ops).map_err(|e| ApplyError::Malformed(e.to_string()))?;
        for op in iter {
            let op = op.map_err(|e| ApplyError::Malformed(e.to_string()))?;
            op.add_to(&mut per_shard[shards.shard_index(op.key())]);
        }
        // every shard advances its watermark; shards that received ops
        // are synced so the ack implies durability at the replica
        for (i, mut batch) in per_shard.into_iter().enumerate() {
            let dirty = !batch.is_empty();
            shards
                .db(i)
                .write_batch_replicated(&mut batch, seq)
                .map_err(|e| ApplyError::Storage(e.to_string()))?;
            if dirty {
                shards
                    .db(i)
                    .sync()
                    .map_err(|e| ApplyError::Storage(e.to_string()))?;
            }
        }
        *g = seq;
        Ok(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ReplOpsBuilder;
    use lsm_core::{Db, LsmConfig};

    fn shard_set(n: usize) -> ShardSet {
        let dbs = (0..n)
            .map(|_| {
                Db::open_in_memory(LsmConfig {
                    wal: true,
                    ..LsmConfig::small_for_tests()
                })
                .unwrap()
            })
            .collect();
        ShardSet::new(dbs)
    }

    fn batch_ops(kvs: &[(&[u8], Option<&[u8]>)]) -> Vec<u8> {
        let mut b = ReplOpsBuilder::new();
        for (k, v) in kvs {
            match v {
                Some(v) => b.put(k, v),
                None => b.delete(k),
            }
        }
        b.finish()
    }

    #[test]
    fn apply_enforces_order_duplicates_and_gaps() {
        let shards = shard_set(2);
        let state = ReplicaState::new(&shards);
        assert_eq!(state.applied(), 0);

        let ops1 = batch_ops(&[(b"a", Some(b"1")), (b"b", Some(b"2"))]);
        assert_eq!(state.apply_batch(&shards, 1, &ops1), Ok(1));
        assert_eq!(shards.get(b"a").unwrap(), Some(b"1".to_vec()));

        // gap: seq 3 with watermark 1 must be refused and apply nothing
        let ops3 = batch_ops(&[(b"c", Some(b"3"))]);
        assert_eq!(
            state.apply_batch(&shards, 3, &ops3),
            Err(ApplyError::Gap { expected: 2, got: 3 })
        );
        assert_eq!(shards.get(b"c").unwrap(), None);
        assert_eq!(state.applied(), 1);

        // duplicate: re-delivery of seq 1 acks the current watermark
        assert_eq!(state.apply_batch(&shards, 1, &ops1), Ok(1));

        // in-order delete advances and applies
        let ops2 = batch_ops(&[(b"a", None)]);
        assert_eq!(state.apply_batch(&shards, 2, &ops2), Ok(2));
        assert_eq!(shards.get(b"a").unwrap(), None);

        // every shard's engine watermark advanced in lockstep
        for db in shards.dbs() {
            assert_eq!(db.applied_seq(), 2);
        }
    }

    #[test]
    fn malformed_ops_reject_the_whole_batch() {
        let shards = shard_set(1);
        let state = ReplicaState::new(&shards);
        // region: claims 2 ops, second one has a bogus kind — the first
        // (valid) op must NOT be applied
        let mut region = 2u32.to_le_bytes().to_vec();
        region.push(1);
        region.extend_from_slice(&1u32.to_le_bytes());
        region.push(b'k');
        region.extend_from_slice(&1u32.to_le_bytes());
        region.push(b'v');
        region.push(7); // bad kind
        assert!(matches!(
            state.apply_batch(&shards, 1, &region),
            Err(ApplyError::Malformed(_))
        ));
        assert_eq!(shards.get(b"k").unwrap(), None);
        assert_eq!(state.applied(), 0);
    }

    #[test]
    fn quorum_wait_counts_acks_and_times_out() {
        let metrics = ServerMetrics::new();
        let rep = Replicator::start(
            0,
            PrimaryReplication {
                replicas: Vec::new(),
                ack_quorum: 0,
                ack_timeout_ms: 10,
                drain_timeout_ms: 10,
            },
            metrics,
        );
        // no replicas, quorum 0: every wait succeeds vacuously
        let seq = rep.publish(ReplOpsBuilder::new().finish());
        assert_eq!(seq, 1);
        assert!(rep.wait_quorum(seq));
        assert!(rep.drain());
        rep.stop();
    }
}
