//! Per-shard group-commit write batcher.
//!
//! One committer thread per shard owns that shard's write order. Client
//! reader threads submit [`CommitReq`]s into the committer's channel and
//! return immediately (the response is sent from the completion
//! callback). A request is a PUT/DELETE or a transaction's parts, and
//! both take the same queue. The committer takes one request, then drains
//! whatever writes have queued up behind it to `MAX_BATCH`, folds them
//! into a single [`WriteBatch`], and commits it through
//! `Db::write_batch_mut` — one WAL append — followed by one `Db::sync`,
//! so an `Ok` ack implies the write survives a crash. A transaction
//! commit ends the batch being collected and runs after it, so it
//! serializes with the shard's batches. The batch size is therefore
//! *adaptive*: an idle shard commits singles with no added latency,
//! while a busy shard's queue depth becomes its batch size, amortizing
//! the sync cost exactly when it matters (the classic group-commit
//! curve).
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
//! in-flight commits.
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

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use lsm_core::{Db, TxnError, TxnPart, WriteBatch};
use lsm_storage::StorageError;

use crate::metrics::ServerMetrics;
use crate::protocol::{ReplOpsBuilder, WriteOp};
use crate::replication::Replicator;

/// Most operations folded into one group-commit batch: bounds the ack
/// latency of the first write in a batch on a saturated shard.
const MAX_BATCH: usize = 64;

/// One commit request: what a connection hands a shard's committer.
pub enum CommitReq {
    /// A client PUT or DELETE, folded into the next group-commit batch.
    Write(WriteOp),
    /// A transaction commit, one part per involved engine: validated and
    /// applied atomically via [`lsm_core::commit_parts`] *inside* the
    /// committer thread, between batches, so the migration tap tee and
    /// the replication publish stay in true commit order. Parts may span
    /// engines (cross-shard) only when the server is neither elastic nor
    /// replicated; the routing layer enforces that.
    Txn(Vec<TxnPart>),
}

/// How a submitted [`CommitReq`] ended.
#[derive(Debug)]
pub enum CommitOutcome {
    /// Committed, durable per the sync policy, and (when replicating)
    /// acked by the configured quorum. A transaction carries its global
    /// commit stamp; a write carries `None`.
    Committed(Option<u64>),
    /// Committed and durable on the primary, but the replica quorum did
    /// not ack within the timeout.
    ReplicaLag,
    /// A transaction's first-committer-wins validation failed; nothing
    /// was applied.
    Conflict(lsm_core::Conflict),
    /// The commit failed; nothing is promised.
    Err(StorageError),
}

/// Fired exactly once with a request's outcome.
type Done = Box<dyn FnOnce(CommitOutcome) + Send + 'static>;

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
    /// A commit request and its callback.
    Commit(CommitReq, Done),
    /// A drain marker: acked once everything queued before it has
    /// committed, synced, and been tapped.
    Barrier(Sender<()>),
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
        let committer = Committer {
            db,
            metrics,
            replicator,
            tap: Arc::clone(&tap),
            batch: WriteBatch::new(),
            dones: Vec::new(),
        };
        let handle = std::thread::Builder::new()
            .name("lsm-server-committer".into())
            .spawn(move || committer.run(rx))
            .expect("spawn committer thread");
        GroupCommitter {
            tx: Mutex::new(Some(tx)),
            handle: Mutex::new(Some(handle)),
            tap,
        }
    }

    /// Queues a commit request. Returns `false` (and fails `done`, which
    /// for a transaction releases its parts' snapshot floors) if the
    /// committer has already shut down.
    pub fn submit(
        &self,
        req: CommitReq,
        done: impl FnOnce(CommitOutcome) + Send + 'static,
    ) -> bool {
        let msg = Msg::Commit(req, Box::new(done));
        let refused = match &*self.tx.lock().unwrap() {
            Some(tx) => match tx.send(msg) {
                Ok(()) => return true,
                Err(e) => e.0,
            },
            None => msg,
        };
        if let Msg::Commit(req, done) = refused {
            drop(req); // releases a transaction's floors before the reply
            let shut_down = std::io::Error::other("write batcher is shut down");
            done(CommitOutcome::Err(StorageError::Io(shut_down)));
        }
        false
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

/// A committer thread's state. One batch and one callback list live
/// for the thread's lifetime: commits drain them but keep their
/// capacity, so a busy shard's steady state builds every batch in
/// recycled memory.
struct Committer {
    db: Db,
    metrics: Arc<ServerMetrics>,
    replicator: Option<Arc<Replicator>>,
    tap: Arc<Mutex<Option<MigrationTap>>>,
    batch: WriteBatch,
    dones: Vec<Done>,
}

impl Committer {
    /// Runs requests in queue order until the queue closes and drains.
    fn run(mut self, rx: Receiver<Msg>) {
        // the message that ended the last batch runs next
        let mut next: Option<Msg> = None;
        while let Some(msg) = next.take().or_else(|| rx.recv().ok()) {
            next = match msg {
                // everything queued before a barrier has committed by now
                Msg::Barrier(ack) => {
                    let _ = ack.send(());
                    None
                }
                Msg::Commit(CommitReq::Txn(parts), done) => {
                    done(self.commit_txn(parts));
                    None
                }
                Msg::Commit(CommitReq::Write(op), done) => self.commit_writes(op, done, &rx),
            };
        }
    }

    /// Folds `op` and the writes queued right behind it (up to
    /// `MAX_BATCH`) into one group-commit batch, commits it, and fires
    /// every callback with the batch's outcome. Returns the message that
    /// ended the batch: a barrier or a transaction must observe this
    /// batch committed, so it runs after.
    fn commit_writes(&mut self, op: WriteOp, done: Done, rx: &Receiver<Msg>) -> Option<Msg> {
        // the tap guard is held across fold + commit + sync + tee, so
        // install_tap has a clean cut: batches fully before it are
        // visible to a subsequent snapshot, batches after are tapped
        let mut outbox = Outbox::open(&self.tap, &self.replicator);
        let mut write = Some((op, done));
        let mut next = None;
        while let Some((op, done)) = write.take() {
            outbox.record(&op);
            op.add_to(&mut self.batch);
            self.dones.push(done);
            if self.dones.len() < MAX_BATCH {
                match rx.try_recv() {
                    Ok(Msg::Commit(CommitReq::Write(op), done)) => write = Some((op, done)),
                    Ok(other) => next = Some(other),
                    Err(_) => {}
                }
            }
        }
        self.metrics.batch_ops.record(self.dones.len() as u64);
        self.metrics.batches.inc();
        // the ack promises durability: pad the WAL tail once per batch,
        // not once per operation — the group-commit win
        let db = &self.db;
        let committed = db.write_batch_mut(&mut self.batch).and_then(|()| db.sync());
        let delivered = outbox.deliver(committed, &self.replicator, &self.metrics);
        for done in self.dones.drain(..) {
            done(match &delivered {
                Ok(((), true)) => CommitOutcome::Committed(None),
                Ok(((), false)) => CommitOutcome::ReplicaLag,
                // StorageError is not Clone (it may carry an io::Error)
                Err(e) => {
                    CommitOutcome::Err(StorageError::Io(std::io::Error::other(e.to_string())))
                }
            });
        }
        next
    }

    /// Executes one transaction commit: validate-and-apply atomically,
    /// sync every involved engine, then hand the write-set on through the
    /// same [`Outbox`] step a group-commit batch takes. Counts the commit
    /// or the conflict.
    fn commit_txn(&self, parts: Vec<TxnPart>) -> CommitOutcome {
        // capture the involved engines and record the write-set before
        // commit_parts consumes the parts
        let dbs: Vec<Db> = parts.iter().map(|p| p.db().clone()).collect();
        let mut outbox = Outbox::open(&self.tap, &self.replicator);
        for (key, value) in parts.iter().flat_map(|p| p.writes()) {
            outbox.record(&match value {
                Some(value) => WriteOp::Put { key, value },
                None => WriteOp::Delete { key },
            });
        }
        let committed = lsm_core::commit_parts(parts).and_then(|stamp| {
            dbs.iter().try_for_each(|d| d.sync()).map_err(TxnError::Storage)?;
            Ok(stamp)
        });
        match outbox.deliver(committed, &self.replicator, &self.metrics) {
            Ok((stamp, acked)) => {
                self.metrics.txn_commits.inc();
                if acked {
                    CommitOutcome::Committed(Some(stamp))
                } else {
                    CommitOutcome::ReplicaLag
                }
            }
            Err(TxnError::Conflict(c)) => {
                self.metrics.txn_conflicts.inc();
                CommitOutcome::Conflict(c)
            }
            Err(TxnError::Storage(e)) => CommitOutcome::Err(e),
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

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_core::LsmConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn put(i: u32) -> CommitReq {
        CommitReq::Write(WriteOp::Put {
            key: format!("bk{i:05}").into_bytes(),
            value: format!("bv{i}").into_bytes(),
        })
    }

    /// A callback counting acks and failures.
    fn tally(
        acks: &Arc<AtomicUsize>,
        errs: &Arc<AtomicUsize>,
    ) -> impl FnOnce(CommitOutcome) + Send + 'static {
        let acks = Arc::clone(acks);
        let errs = Arc::clone(errs);
        move |r| {
            match r {
                CommitOutcome::Committed(_) => acks.fetch_add(1, Ordering::SeqCst),
                _ => errs.fetch_add(1, Ordering::SeqCst),
            };
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
            assert!(committer.submit(put(i), tally(&acks, &errs)));
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
        assert!(!committer.submit(put(0), tally(&acks, &errs)));
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
            let op = WriteOp::Put {
                key: format!("o{i:04}").into_bytes(),
                value: Vec::new(),
            };
            committer.submit(CommitReq::Write(op), move |_| order.lock().unwrap().push(i));
        }
        committer.shutdown();
        let seen = order.lock().unwrap();
        assert_eq!(seen.len(), 200);
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "acks out of submission order");
    }

    #[test]
    fn a_txn_commits_between_the_writes_queued_around_it() {
        let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let committer = GroupCommitter::start(db.clone(), ServerMetrics::new(), None);
        let mut txn = db.begin_txn().unwrap();
        txn.put(b"t".to_vec(), b"x".to_vec());
        let log = |tag: u32| {
            let order = Arc::clone(&order);
            move |r: CommitOutcome| order.lock().unwrap().push((tag, format!("{r:?}")))
        };
        for i in 0..10 {
            committer.submit(put(i), log(i));
        }
        committer.submit(CommitReq::Txn(vec![txn.into_part()]), log(100));
        for i in 10..20 {
            committer.submit(put(i), log(i));
        }
        committer.shutdown();
        let seen = order.lock().unwrap();
        let tags: Vec<u32> = seen.iter().map(|(t, _)| *t).collect();
        let expect: Vec<u32> = (0..10).chain([100]).chain(10..20).collect();
        assert_eq!(tags, expect, "the txn commits after the writes before it, before those after");
        assert!(seen.iter().all(|(_, r)| r.starts_with("Committed(")), "{seen:?}");
        assert!(seen[10].1.starts_with("Committed(Some("), "a txn carries its stamp: {seen:?}");
        assert_eq!(db.get(b"t").unwrap(), Some(b"x".to_vec()));
    }

    #[test]
    fn barrier_observes_everything_submitted_before_it() {
        let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
        let metrics = ServerMetrics::new();
        let acks = Arc::new(AtomicUsize::new(0));
        let errs = Arc::new(AtomicUsize::new(0));
        let committer = GroupCommitter::start(db.clone(), metrics, None);
        for i in 0..100u32 {
            committer.submit(put(i), tally(&acks, &errs));
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
        committer.submit(put(0), tally(&acks, &errs));
        assert!(committer.barrier());
        let (tx, rx) = channel();
        committer.install_tap(MigrationTap {
            lo: b"bk00050".to_vec(),
            hi: Some(b"bk00070".to_vec()),
            tx,
        });
        for i in 1..100u32 {
            committer.submit(put(i), tally(&acks, &errs));
        }
        assert!(committer.barrier());
        committer.clear_tap();
        // post-tap write: must not be teed either
        committer.submit(put(0), tally(&acks, &errs));
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
