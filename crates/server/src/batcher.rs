//! Per-shard group-commit write batcher.
//!
//! One committer thread per shard owns that shard's write order. Client
//! reader threads submit [`WriteReq`]s into the committer's channel and
//! return immediately (the response is sent from the completion
//! callback). The committer takes one request, then drains whatever else
//! has queued up to `MAX_BATCH`, folds them into a single
//! [`WriteBatch`], and commits it through `Db::write_batch` — one WAL
//! append — followed by one `Db::sync`, so an `Ok` ack implies the write
//! survives a crash. The batch size is therefore *adaptive*: an idle shard
//! commits singles with no added latency, while a busy shard's queue
//! depth becomes its batch size, amortizing the sync cost exactly when
//! it matters (the classic group-commit curve).
//!
//! How deep the queue gets is up to the connections. A reader stops
//! decoding only for a GET whose own key has a write in flight (see
//! `server`), so the writes of a pipelined mixed burst queue up together.
//! On the ledger's `served-mixed` (YCSB-A; 2 connections × 16 in flight,
//! then depth-1 and paced phases) `server.batcher.batch_ops_mean` is 1.9,
//! against 1.4 when every GET waited for all of its connection's writes.
//! A depth-1 client's writes are batches of one by construction.
//!
//! Every callback fires exactly once, also on error and also for
//! requests still queued when the batcher shuts down (those see an
//! error), so a pipelined connection can always account for its
//! in-flight writes.
//!
//! Two hooks serve live shard migration (see `migrate`):
//!
//! - a [`MigrationTap`] tees every *committed* op inside a key range
//!   into a channel, in commit order, so a migration can replay the
//!   donor's write tail into the recipient while writes keep flowing;
//! - [`GroupCommitter::barrier`] round-trips a marker through the queue,
//!   returning only after everything submitted before it has committed
//!   (and been tapped) — the cut-over's "drain the in-flight writes"
//!   step.

use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use lsm_core::{Db, WriteBatch};
use lsm_storage::StorageError;

use crate::metrics::ServerMetrics;
use crate::protocol::{ReplOpsBuilder, WriteOp};
use crate::replication::Replicator;

/// Most operations folded into one group-commit batch: bounds the ack
/// latency of the first write in a batch on a saturated shard.
const MAX_BATCH: usize = 64;

/// How a submitted write ended.
#[derive(Debug)]
pub enum WriteOutcome {
    /// Committed, durable per the sync policy, and (when replicating)
    /// acked by the configured quorum.
    Ok,
    /// Committed and durable on the primary, but the replica quorum did
    /// not ack within the timeout.
    ReplicaLag,
    /// The batch failed to commit; nothing is promised.
    Err(StorageError),
}

/// Completion callback: receives the batch's commit outcome.
pub type WriteCallback = Box<dyn FnOnce(WriteOutcome) + Send + 'static>;

/// One queued write and its completion callback.
pub struct WriteReq {
    /// The operation.
    pub op: WriteOp,
    /// Fired exactly once with the commit outcome.
    pub done: WriteCallback,
}

/// How a submitted transaction commit ended.
pub enum TxnOutcome {
    /// Validated, applied, durable per the sync policy (and replica-acked
    /// when replicating); carries the global commit stamp.
    Committed(u64),
    /// Committed and durable locally, but the replica quorum did not ack
    /// within the timeout.
    CommittedLag(u64),
    /// First-committer-wins validation failed; nothing was applied.
    Conflict(lsm_core::Conflict),
    /// The commit failed; nothing is promised.
    Err(StorageError),
}

/// Completion callback for a transaction commit.
pub type TxnCallback = Box<dyn FnOnce(TxnOutcome) + Send + 'static>;

/// A transaction commit job: validate + apply the parts atomically via
/// [`lsm_core::commit_parts`], *inside* the committer thread, so the
/// commit serializes with the shard's group-commit batches — the
/// migration tap tee and the replication publish stay in true commit
/// order. Parts may span engines (cross-shard) only when the server is
/// neither elastic nor replicated; the routing layer enforces that.
pub struct TxnCommitReq {
    /// One part per involved engine.
    pub parts: Vec<lsm_core::TxnPart>,
    /// Fired exactly once with the outcome.
    pub done: TxnCallback,
}

/// Tees committed ops inside `[lo, hi)` (`hi` `None` = unbounded) into
/// `tx` as encoded ops regions, one region per group-commit batch, in
/// commit order. Installed on a split/merge donor's committer for the
/// copy + catch-up phases; regions are pushed only after the batch is
/// durable, so everything the tap delivers is also on the donor's disk.
pub struct MigrationTap {
    /// Inclusive lower bound of the migrating range.
    pub lo: Vec<u8>,
    /// Exclusive upper bound (`None` = to the end of the keyspace).
    pub hi: Option<Vec<u8>>,
    /// Receives one encoded ops region per batch that touched the range.
    pub tx: Sender<Vec<u8>>,
}

impl MigrationTap {
    fn covers(&self, key: &[u8]) -> bool {
        key >= self.lo.as_slice() && self.hi.as_deref().is_none_or(|h| key < h)
    }
}

/// What travels through a committer's queue.
enum Msg {
    /// A client write.
    Req(WriteReq),
    /// A drain marker: acked once everything queued before it has
    /// committed, synced, and been tapped.
    Barrier(Sender<()>),
    /// A transaction commit, executed between batches.
    Txn(TxnCommitReq),
}

/// `WriteOutcome` is not `Clone` (its error may carry an `io::Error`);
/// duplicate an outcome for each callback in a batch.
fn duplicate(out: &WriteOutcome) -> WriteOutcome {
    match out {
        WriteOutcome::Ok => WriteOutcome::Ok,
        WriteOutcome::ReplicaLag => WriteOutcome::ReplicaLag,
        WriteOutcome::Err(e) => {
            WriteOutcome::Err(StorageError::Io(std::io::Error::other(e.to_string())))
        }
    }
}

fn shutdown_outcome() -> WriteOutcome {
    WriteOutcome::Err(StorageError::Io(std::io::Error::other(
        "write batcher is shut down",
    )))
}

fn txn_shutdown_outcome() -> TxnOutcome {
    TxnOutcome::Err(StorageError::Io(std::io::Error::other(
        "write batcher is shut down",
    )))
}

/// A shard's group-commit thread. Dropping (or [`shutdown`]) closes the
/// queue; the thread drains what is left, fails those callbacks, and
/// exits. Shared behind an `Arc` by the server's routing topology and by
/// in-flight migrations, so every method takes `&self`.
///
/// [`shutdown`]: GroupCommitter::shutdown
pub struct GroupCommitter {
    tx: Mutex<Option<Sender<Msg>>>,
    handle: Mutex<Option<JoinHandle<()>>>,
    tap: Arc<Mutex<Option<MigrationTap>>>,
}

impl GroupCommitter {
    /// Spawns the committer thread for `db`. With a [`Replicator`], every
    /// committed batch is published to it and the callbacks are held
    /// until the replica quorum acks (or the wait times out).
    pub fn start(
        db: Db,
        metrics: Arc<ServerMetrics>,
        replicator: Option<Arc<Replicator>>,
    ) -> Self {
        let (tx, rx) = channel::<Msg>();
        let tap: Arc<Mutex<Option<MigrationTap>>> = Arc::default();
        let tap2 = Arc::clone(&tap);
        let handle = std::thread::Builder::new()
            .name("lsm-server-committer".into())
            .spawn(move || committer_loop(db, rx, metrics, replicator, tap2))
            .expect("spawn committer thread");
        GroupCommitter {
            tx: Mutex::new(Some(tx)),
            handle: Mutex::new(Some(handle)),
            tap,
        }
    }

    /// Queues a write. Returns `false` (and fails the callback) if the
    /// committer has already shut down.
    pub fn submit(&self, req: WriteReq) -> bool {
        match &*self.tx.lock().unwrap() {
            Some(tx) => match tx.send(Msg::Req(req)) {
                Ok(()) => true,
                Err(e) => {
                    if let Msg::Req(r) = e.0 {
                        (r.done)(shutdown_outcome());
                    }
                    false
                }
            },
            None => {
                (req.done)(shutdown_outcome());
                false
            }
        }
    }

    /// Queues a transaction commit. Returns `false` (and fails the
    /// callback, releasing the parts' snapshot floors) if the committer
    /// has already shut down.
    pub fn submit_txn(&self, req: TxnCommitReq) -> bool {
        match &*self.tx.lock().unwrap() {
            Some(tx) => match tx.send(Msg::Txn(req)) {
                Ok(()) => true,
                Err(e) => {
                    if let Msg::Txn(t) = e.0 {
                        (t.done)(txn_shutdown_outcome());
                    }
                    false
                }
            },
            None => {
                (req.done)(txn_shutdown_outcome());
                false
            }
        }
    }

    /// Blocks until everything submitted before this call has committed,
    /// synced, and been tapped. Returns `false` if the committer is shut
    /// down (everything queued still drained — to failure callbacks).
    pub fn barrier(&self) -> bool {
        let (ack_tx, ack_rx) = channel();
        let sent = match &*self.tx.lock().unwrap() {
            Some(tx) => tx.send(Msg::Barrier(ack_tx)).is_ok(),
            None => false,
        };
        sent && ack_rx.recv().is_ok()
    }

    /// Installs a [`MigrationTap`]: every batch committed from now on
    /// has its in-range ops teed to the tap, durably-first. Blocks until
    /// the in-flight batch (if any) finishes, so a snapshot taken after
    /// this returns contains every committed-and-untapped write.
    pub fn install_tap(&self, tap: MigrationTap) {
        *self.tap.lock().unwrap() = Some(tap);
    }

    /// Removes the tap (migration finished or abandoned).
    pub fn clear_tap(&self) {
        *self.tap.lock().unwrap() = None;
    }

    /// Closes the queue and joins the thread after it commits everything
    /// already queued. Idempotent.
    pub fn shutdown(&self) {
        drop(self.tx.lock().unwrap().take()); // disconnects the channel
        if let Some(h) = self.handle.lock().unwrap().take() {
            let _ = h.join();
        }
    }
}

impl Drop for GroupCommitter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn committer_loop(
    db: Db,
    rx: Receiver<Msg>,
    metrics: Arc<ServerMetrics>,
    replicator: Option<Arc<Replicator>>,
    tap: Arc<Mutex<Option<MigrationTap>>>,
) {
    // one batch and one callback list live for the thread's lifetime:
    // commits drain them but keep their capacity, so a busy shard's
    // steady state builds every batch in recycled memory
    let mut batch = WriteBatch::new();
    let mut dones: Vec<WriteCallback> = Vec::new();
    let mut reqs: Vec<WriteReq> = Vec::new();
    while let Ok(first) = rx.recv() {
        // a barrier with nothing queued before it acks immediately
        let mut pending_barrier: Option<Sender<()>> = None;
        let mut pending_txn: Option<TxnCommitReq> = None;
        match first {
            Msg::Req(r) => reqs.push(r),
            Msg::Barrier(ack) => {
                let _ = ack.send(());
                continue;
            }
            Msg::Txn(t) => {
                run_txn_commit(t, &metrics, &replicator, &tap);
                continue;
            }
        }
        while reqs.len() < MAX_BATCH && pending_barrier.is_none() && pending_txn.is_none() {
            match rx.try_recv() {
                Ok(Msg::Req(r)) => reqs.push(r),
                // stop collecting: the barrier must observe this batch
                // committed, so commit now and ack after
                Ok(Msg::Barrier(ack)) => pending_barrier = Some(ack),
                // likewise: the txn commit must serialize after this batch
                Ok(Msg::Txn(t)) => pending_txn = Some(t),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        // the tap guard is held across fold + commit + sync + tee, so
        // install_tap has a clean cut: batches fully before it are
        // visible to a subsequent snapshot, batches after are tapped
        let mut outbox = Outbox::open(&tap, &replicator);
        for r in reqs.drain(..) {
            outbox.record(&r.op);
            r.op.add_to(&mut batch);
            dones.push(r.done);
        }
        metrics.batch_ops.record(dones.len() as u64);
        metrics.batches.inc();
        // the ack promises durability: pad the WAL tail once per batch,
        // not once per operation — the group-commit win
        let committed = db.write_batch_mut(&mut batch).and_then(|()| db.sync());
        let outcome = match outbox.deliver(committed, &replicator, &metrics) {
            Ok(((), true)) => WriteOutcome::Ok,
            Ok(((), false)) => WriteOutcome::ReplicaLag,
            Err(e) => WriteOutcome::Err(e),
        };
        for done in dones.drain(..) {
            done(duplicate(&outcome));
        }
        if let Some(ack) = pending_barrier {
            let _ = ack.send(());
        }
        if let Some(t) = pending_txn {
            run_txn_commit(t, &metrics, &replicator, &tap);
        }
    }
}

/// What a durable commit hands on, built while its ops are folded: the
/// ops region for the replicator (when replicating) and the in-range ops
/// for the migration tap (when one is installed). Group-commit batches
/// and transaction commits share it, so both reach a migration and a
/// replica in true commit order. Holds the tap guard from `open` until
/// [`Outbox::deliver`].
struct Outbox<'t> {
    tap: MutexGuard<'t, Option<MigrationTap>>,
    tap_ops: Option<ReplOpsBuilder>,
    repl_ops: Option<ReplOpsBuilder>,
}

impl<'t> Outbox<'t> {
    fn open(tap: &'t Mutex<Option<MigrationTap>>, replicator: &Option<Arc<Replicator>>) -> Self {
        let tap = tap.lock().unwrap();
        Outbox {
            tap_ops: tap.as_ref().map(|_| ReplOpsBuilder::new()),
            repl_ops: replicator.as_ref().map(|_| ReplOpsBuilder::new()),
            tap,
        }
    }

    fn record<B: AsRef<[u8]>>(&mut self, op: &WriteOp<B>) {
        if let Some(b) = &mut self.repl_ops {
            b.push(op);
        }
        if let (Some(b), Some(t)) = (&mut self.tap_ops, self.tap.as_ref()) {
            if t.covers(op.key()) {
                b.push(op);
            }
        }
    }

    /// Hands on a commit once `committed` says it is durable locally
    /// (the tap's receiver treats every region as durable on the donor,
    /// and a commit that failed must never reach a replica, or a failover
    /// could resurrect a write the client saw fail): tees under the tap
    /// guard, releases it, then publishes and waits for the replica
    /// quorum. Returns the commit's value and whether the quorum acked in
    /// time (`true` when not replicating); a failed commit hands on
    /// nothing and returns its error.
    fn deliver<T, E>(
        self,
        committed: Result<T, E>,
        replicator: &Option<Arc<Replicator>>,
        metrics: &ServerMetrics,
    ) -> Result<(T, bool), E> {
        let Outbox { tap, tap_ops, repl_ops } = self;
        let value = committed?;
        if let (Some(t), Some(ops)) = (tap.as_ref(), tap_ops) {
            if ops.count() > 0 {
                let _ = t.tx.send(ops.finish());
            }
        }
        drop(tap);
        match (replicator, repl_ops) {
            (Some(rep), Some(ops)) if ops.count() > 0 => {
                let t0 = metrics.now_ns();
                let seq = rep.publish(ops.finish());
                if rep.wait_quorum(seq) {
                    metrics.repl_ack_ns.record(metrics.now_ns().saturating_sub(t0));
                    Ok((value, true))
                } else {
                    metrics.repl_lag_timeouts.inc();
                    Ok((value, false))
                }
            }
            _ => Ok((value, true)),
        }
    }
}

/// Executes one transaction commit inside the committer thread:
/// validate-and-apply atomically, sync every involved engine, then hand
/// the write-set on through the same [`Outbox`] step a group-commit batch
/// takes.
fn run_txn_commit(
    req: TxnCommitReq,
    metrics: &Arc<ServerMetrics>,
    replicator: &Option<Arc<Replicator>>,
    tap: &Arc<Mutex<Option<MigrationTap>>>,
) {
    let TxnCommitReq { parts, done } = req;
    // capture the involved engines and record the write-set before
    // commit_parts consumes the parts
    let dbs: Vec<Db> = parts.iter().map(|p| p.db().clone()).collect();
    let mut outbox = Outbox::open(tap, replicator);
    for (key, value) in parts.iter().flat_map(|p| p.writes()) {
        outbox.record(&match value {
            Some(value) => WriteOp::Put { key, value },
            None => WriteOp::Delete { key },
        });
    }
    let committed = lsm_core::commit_parts(parts).and_then(|stamp| {
        dbs.iter()
            .try_for_each(|d| d.sync())
            .map_err(lsm_core::TxnError::Storage)?;
        Ok(stamp)
    });
    let outcome = match outbox.deliver(committed, replicator, metrics) {
        Ok((stamp, true)) => TxnOutcome::Committed(stamp),
        Ok((stamp, false)) => TxnOutcome::CommittedLag(stamp),
        Err(lsm_core::TxnError::Conflict(c)) => TxnOutcome::Conflict(c),
        Err(lsm_core::TxnError::Storage(e)) => TxnOutcome::Err(e),
    };
    done(outcome);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_core::LsmConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn put_req(i: u32, acks: &Arc<AtomicUsize>, errs: &Arc<AtomicUsize>) -> WriteReq {
        let acks = Arc::clone(acks);
        let errs = Arc::clone(errs);
        WriteReq {
            op: WriteOp::Put {
                key: format!("bk{i:05}").into_bytes(),
                value: format!("bv{i}").into_bytes(),
            },
            done: Box::new(move |r| {
                match r {
                    WriteOutcome::Ok => acks.fetch_add(1, Ordering::SeqCst),
                    WriteOutcome::ReplicaLag | WriteOutcome::Err(_) => {
                        errs.fetch_add(1, Ordering::SeqCst)
                    }
                };
            }),
        }
    }

    #[test]
    fn commits_everything_and_acks_once_each() {
        let cfg = LsmConfig {
            wal: true,
            ..LsmConfig::small_for_tests()
        };
        let db = Db::open_in_memory(cfg).unwrap();
        let metrics = ServerMetrics::new();
        let acks = Arc::new(AtomicUsize::new(0));
        let errs = Arc::new(AtomicUsize::new(0));
        let committer = GroupCommitter::start(db.clone(), Arc::clone(&metrics), None);
        for i in 0..500u32 {
            assert!(committer.submit(put_req(i, &acks, &errs)));
        }
        committer.shutdown();
        assert_eq!(acks.load(Ordering::SeqCst), 500, "every write must be acked");
        assert_eq!(errs.load(Ordering::SeqCst), 0);
        for i in (0..500u32).step_by(71) {
            assert_eq!(
                db.get(format!("bk{i:05}").as_bytes()).unwrap(),
                Some(format!("bv{i}").into_bytes())
            );
        }
        // group commit must have coalesced: fewer WAL appends than writes
        let s = db.stats().snapshot();
        assert!(s.wal_appends > 0);
        assert!(
            s.wal_appends < 500,
            "500 writes took {} WAL appends — no batching happened",
            s.wal_appends
        );
        assert_eq!(s.puts, 500);
    }

    #[test]
    fn submit_after_shutdown_fails_the_callback() {
        let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
        let metrics = ServerMetrics::new();
        let acks = Arc::new(AtomicUsize::new(0));
        let errs = Arc::new(AtomicUsize::new(0));
        let committer = GroupCommitter::start(db, metrics, None);
        committer.shutdown();
        assert!(!committer.submit(put_req(0, &acks, &errs)));
        assert_eq!(errs.load(Ordering::SeqCst), 1);
        assert_eq!(acks.load(Ordering::SeqCst), 0);
        assert!(!committer.barrier(), "barrier on a shut-down committer");
    }

    #[test]
    fn callbacks_preserve_submission_order_within_a_shard() {
        let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
        let metrics = ServerMetrics::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let committer = GroupCommitter::start(db, metrics, None);
        for i in 0..200u32 {
            let order = Arc::clone(&order);
            committer.submit(WriteReq {
                op: WriteOp::Put {
                    key: format!("o{i:04}").into_bytes(),
                    value: Vec::new(),
                },
                done: Box::new(move |_| order.lock().unwrap().push(i)),
            });
        }
        committer.shutdown();
        let seen = order.lock().unwrap();
        assert_eq!(seen.len(), 200);
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "acks out of submission order");
    }

    #[test]
    fn barrier_observes_everything_submitted_before_it() {
        let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
        let metrics = ServerMetrics::new();
        let acks = Arc::new(AtomicUsize::new(0));
        let errs = Arc::new(AtomicUsize::new(0));
        let committer = GroupCommitter::start(db.clone(), metrics, None);
        for i in 0..100u32 {
            committer.submit(put_req(i, &acks, &errs));
        }
        assert!(committer.barrier());
        // every write submitted before the barrier is committed and acked
        assert_eq!(acks.load(Ordering::SeqCst), 100);
        assert_eq!(db.get(b"bk00099").unwrap(), Some(b"bv99".to_vec()));
        committer.shutdown();
    }

    #[test]
    fn tap_tees_exactly_the_in_range_committed_ops_in_order() {
        use crate::protocol::repl_ops;
        let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
        let metrics = ServerMetrics::new();
        let acks = Arc::new(AtomicUsize::new(0));
        let errs = Arc::new(AtomicUsize::new(0));
        let committer = GroupCommitter::start(db, metrics, None);
        // pre-tap write: must not be teed
        committer.submit(put_req(0, &acks, &errs));
        assert!(committer.barrier());
        let (tx, rx) = channel();
        committer.install_tap(MigrationTap {
            lo: b"bk00050".to_vec(),
            hi: Some(b"bk00070".to_vec()),
            tx,
        });
        for i in 1..100u32 {
            committer.submit(put_req(i, &acks, &errs));
        }
        assert!(committer.barrier());
        committer.clear_tap();
        // post-tap write: must not be teed either
        committer.submit(put_req(0, &acks, &errs));
        committer.shutdown();
        let mut teed = Vec::new();
        while let Ok(region) = rx.try_recv() {
            for op in repl_ops(&region).unwrap() {
                match op.unwrap() {
                    WriteOp::Put { key, .. } => teed.push(key.to_vec()),
                    WriteOp::Delete { key } => teed.push(key.to_vec()),
                }
            }
        }
        let expect: Vec<Vec<u8>> =
            (50..70).map(|i| format!("bk{i:05}").into_bytes()).collect();
        assert_eq!(teed, expect, "tap must tee exactly [lo, hi) in commit order");
    }
}
