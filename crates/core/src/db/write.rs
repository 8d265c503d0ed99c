//! The write path: every write — a `put`/`delete`, a group-commit or
//! replicated batch, a transaction's write-set — is a slice of
//! [`Record`]s handed to [`DbCore::commit`] under the write guard, then
//! [`DbCore::after_write`] for the buffer-full tail. Backpressure, the
//! buffer freeze and the WAL rotation it defers live here too.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::{RwLock, RwLockWriteGuard};

use lsm_obs::{EventKind, StallReason};
use lsm_storage::{StorageError, StorageResult};

use super::{DbCore, Inner, Record, WriteBatch};
use crate::entry::ValueKind;
use crate::kv_sep::{encode_inline, encode_pointer};
use crate::memtable::Memtable;
use crate::wal::Wal;

/// What a commit's records are: how the WAL frames them, and whether
/// they are logical writes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum CommitKind {
    /// Independent writes sharing one append ([`Wal::append_batch`]): a
    /// crash may persist any prefix.
    Stream,
    /// One all-or-nothing group ([`Wal::append_atomic`]): recovery
    /// replays all of it or none.
    Atomic,
    /// Value-log GC moving a live value, framed like `Stream`. Not a
    /// logical write: not counted as ingest, and no transaction conflicts
    /// on it (OCC does not record it).
    Relocation,
}

/// Prune `Inner::txn_recent` on transaction end once it exceeds this
/// many keys (below the oldest live snapshot floor nothing can conflict).
const TXN_RECENT_PRUNE_LEN: usize = 1024;

/// Per-write delay in the L0 slowdown band: long enough for compaction
/// to gain on the writers, short next to a stall.
const SLOWDOWN_DELAY: std::time::Duration = std::time::Duration::from_micros(100);

/// Global commit-stamp source for transaction commits. The stamp is
/// fetched while every involved engine's write lock is held, so stamp
/// order is consistent with each engine's apply order — replaying
/// committed transactions in stamp order reproduces the exact final
/// state (the serializability oracle in
/// `crates/server/tests/transactions.rs` relies on this).
static TXN_STAMP: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// One engine's slice of a transaction commit (built by
/// [`crate::txn::Txn::commit`] and the server's cross-shard commit path).
pub(crate) struct TxnApplyPart<'a> {
    /// The engine this part applies to. Parts must target distinct
    /// engines — the commit takes each engine's write lock once.
    pub db: &'a DbCore,
    /// The sub-transaction's snapshot floor on `db`.
    pub snap_seqno: u64,
    /// Keys read through the snapshot, validated first-committer-wins.
    pub read_set: Vec<Vec<u8>>,
    /// Buffered writes, folded into one atomic WAL group on success.
    pub write_set: WriteBatch,
}

/// Validates and applies a transaction atomically across its parts.
///
/// All involved engines' write locks are taken in one stable global
/// order (by engine address — two concurrent multi-engine commits can
/// never deadlock), every part's read-set is validated against
/// `Inner::txn_recent`, and only if **all** parts validate clean are the
/// write-sets applied — each as one [`Wal::append_atomic`] group, so a
/// crash can never expose a partial write-set on any single engine.
/// Memtable-full maintenance is deferred to after the locks drop
/// ([`DbCore::after_write`]) so a multi-engine commit never flushes while
/// holding several engines' locks.
///
/// Returns `Ok(Err(conflict))` when validation fails (the transaction
/// must abort and retry) and `Ok(Ok(stamp))` with the global commit
/// stamp on success.
pub(crate) fn commit_txn_parts(
    parts: &mut [TxnApplyPart<'_>],
) -> StorageResult<Result<u64, crate::txn::Conflict>> {
    // Backpressure and background-error checks happen before any lock is
    // taken, exactly like the plain write path.
    for p in parts.iter() {
        p.db.admit_write()?;
    }
    let dbs: Vec<&DbCore> = parts.iter().map(|p| p.db).collect();
    let mut order: Vec<usize> = (0..parts.len()).collect();
    order.sort_by_key(|&i| dbs[i] as *const DbCore as usize);
    debug_assert!(
        order
            .windows(2)
            .all(|w| !std::ptr::eq(dbs[w[0]], dbs[w[1]])),
        "txn parts must target distinct engines"
    );
    let mut guards: Vec<(usize, RwLockWriteGuard<'_, Inner>)> = Vec::with_capacity(order.len());
    for &i in &order {
        guards.push((i, dbs[i].inner.write()));
    }
    // First-committer-wins validation: every read key must be unchanged
    // since its sub-transaction's snapshot. All guards are held, so a
    // clean validation cannot be invalidated before the apply below.
    let mut conflict: Option<(usize, crate::txn::Conflict)> = None;
    'validate: for (i, guard) in &guards {
        let p = &parts[*i];
        for key in &p.read_set {
            if let Some(&seqno) = guard.txn_recent.get(key) {
                if seqno > p.snap_seqno {
                    conflict = Some((
                        *i,
                        crate::txn::Conflict {
                            key: key.clone(),
                            snap_seqno: p.snap_seqno,
                            conflict_seqno: seqno,
                        },
                    ));
                    break 'validate;
                }
            }
        }
    }
    if let Some((i, c)) = conflict {
        drop(guards);
        dbs[i].obs.txn_conflicts.inc();
        dbs[i].obs.event(EventKind::TxnConflict {
            snap_seqno: c.snap_seqno,
            conflict_seqno: c.conflict_seqno,
        });
        return Ok(Err(c));
    }
    // Validation clean on every engine: apply the write-sets. Per-part
    // sizes are captured first (apply drains the batch) for the events.
    let counts: Vec<(u64, u64)> = parts
        .iter()
        .map(|p| (p.write_set.len() as u64, p.read_set.len() as u64))
        .collect();
    for (i, guard) in guards.iter_mut() {
        let ops = &mut parts[*i].write_set.ops;
        let out = dbs[*i].commit(guard, ops, CommitKind::Atomic, None);
        ops.clear();
        out?;
    }
    let stamp = TXN_STAMP.fetch_add(1, Ordering::AcqRel) + 1;
    drop(guards);
    for (i, (writes, reads)) in counts.into_iter().enumerate() {
        dbs[i].obs.txn_commits.inc();
        dbs[i].obs.event(EventKind::TxnCommit {
            stamp,
            writes,
            reads,
        });
    }
    for db in &dbs {
        let inner = db.inner.write();
        let full = db.buffer_full(&inner);
        db.after_write(inner, full)?;
    }
    Ok(Ok(stamp))
}

impl DbCore {
    /// Inserts or updates a key.
    pub fn put(&self, key: Vec<u8>, value: Vec<u8>) -> StorageResult<()> {
        self.write(&mut [(0, ValueKind::Put, key, value)], None)
    }

    /// Deletes a key (writes a tombstone).
    pub fn delete(&self, key: Vec<u8>) -> StorageResult<()> {
        self.write(&mut [(0, ValueKind::Delete, key, Vec::new())], None)
    }

    /// Applies a [`WriteBatch`] with **one** WAL append (group commit).
    ///
    /// All operations receive consecutive sequence numbers under a single
    /// acquisition of the write lock, their WAL frames are concatenated
    /// into one [`Wal::append_batch`] call, and backpressure is paid once
    /// per batch instead of once per operation. Recovery replays the
    /// batch exactly like the equivalent sequence of single writes. This
    /// is the entry point a serving layer's group-commit batcher uses to
    /// coalesce concurrent client writes per shard.
    ///
    /// The batch is drained, keeping its capacity: its own storage is what
    /// the commit stages and logs, so a group-commit loop calling this
    /// with one long-lived batch allocates nothing per commit beyond the
    /// engine's per-entry copies.
    pub fn write_batch_mut(&self, batch: &mut WriteBatch) -> StorageResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        self.write_batch_inner(batch, None)
    }

    /// Replica apply: [`DbCore::write_batch_mut`] plus an atomic advance
    /// of the replication watermark to `seq`, under the same write lock —
    /// so the engine state and the watermark can never disagree about
    /// which replication-log batches are reflected. Used by a replica
    /// applying a shipped `REPL_BATCH`; the watermark reaches the
    /// manifest at the next manifest write (see
    /// [`crate::manifest::ManifestState::applied_seq`]).
    ///
    /// An empty batch still advances the watermark (a replicated batch
    /// whose ops all routed to other shards is applied "by omission").
    pub fn write_batch_replicated(&self, batch: &mut WriteBatch, seq: u64) -> StorageResult<()> {
        if batch.is_empty() {
            return self
                .commit(&mut self.inner.write(), &mut [], CommitKind::Stream, Some(seq))
                .map(drop);
        }
        self.write_batch_inner(batch, Some(seq))
    }

    fn write_batch_inner(&self, batch: &mut WriteBatch, applied_seq: Option<u64>) -> StorageResult<()> {
        self.obs.stats.write_batches.inc();
        self.obs.stats.batched_writes.add(batch.ops.len() as u64);
        let out = self.write(&mut batch.ops, applied_seq);
        batch.ops.clear();
        out
    }

    /// Current replication watermark: the highest replication-log
    /// sequence applied via [`DbCore::write_batch_replicated`] (0 if this
    /// engine never acted as a replica). After a crash this is recovered
    /// from the manifest and may lag the data (the WAL carries the
    /// batches applied since the last manifest write), so resubscribing
    /// from `applied_seq + 1` may re-deliver a suffix — which re-applies
    /// idempotently as long as delivery stays in sequence order.
    pub fn applied_seq(&self) -> u64 {
        self.inner.read().applied_seq
    }

    /// Maintenance-error check and L0 backpressure, paid once per write
    /// call before any lock is taken.
    pub(super) fn admit_write(&self) -> StorageResult<()> {
        self.check_bg_error()?;
        self.backpressure();
        Ok(())
    }

    /// L0 backpressure: checked *before* taking `inner` so delayed writers
    /// never hold any engine lock — readers proceed untouched while a
    /// writer slows down or stalls. A writer that waits on a compaction
    /// no worker will run runs it itself.
    fn backpressure(&self) {
        let (slowdown, stall) = self.l0_thresholds();
        let l0 = self.l0_runs.load(Ordering::Acquire);
        self.obs.backpressure_band(l0, slowdown, stall);
        if l0 >= stall {
            self.device.stats().record_write_stall();
            self.bg.schedule_compact();
            self.bg
                .wait_until(self, |_| self.l0_runs.load(Ordering::Acquire) < stall);
            // Compaction drained L0 below the stall line while we slept;
            // reconcile the band so the StallExit lands in the trace now
            // rather than on some later write.
            self.obs.backpressure_band(
                self.l0_runs.load(Ordering::Acquire),
                slowdown,
                stall,
            );
        } else if l0 >= slowdown {
            self.device.stats().record_write_slowdown();
            self.bg.schedule_compact();
            self.bg.yield_to_maintenance(self, SLOWDOWN_DELAY);
        }
    }

    /// The shared body of every non-transactional write, timed into the
    /// put histogram (a write's latency includes any backpressure delay
    /// and, under `Inline`, the flush and compaction cascade it queued).
    fn write(&self, records: &mut [Record], applied_seq: Option<u64>) -> StorageResult<()> {
        self.obs.timed(&self.obs.put_ns, || {
            self.admit_write()?;
            let mut inner = self.inner.write();
            let full = self.commit(&mut inner, records, CommitKind::Stream, applied_seq)?;
            self.after_write(inner, full)
        })
    }

    /// The one commit routine, run under the write guard: give the
    /// records a WAL that does not cover a frozen buffer, stage each
    /// record in place (seqno, counters, key-value separation), append
    /// them to the WAL framed as their `kind` says, insert them into the
    /// buffer, record logical writes for OCC validation, and — for a
    /// replicated batch — advance the replication watermark. Returns
    /// whether the records left the active buffer full; the maintenance
    /// that follows is the caller's ([`DbCore::after_write`]).
    pub(super) fn commit(
        &self,
        inner: &mut Inner,
        records: &mut [Record],
        kind: CommitKind,
        applied_seq: Option<u64>,
    ) -> StorageResult<bool> {
        let shares_frozen_wal =
            inner.imm.is_some() && inner.imm_wal.is_none() && inner.wal.is_some();
        if shares_frozen_wal && !records.is_empty() {
            self.rotate_past_frozen(inner)?;
        }
        let logical = kind != CommitKind::Relocation;
        for (seqno, op, key, value) in records.iter_mut() {
            *seqno = inner.next_seqno;
            inner.next_seqno += 1;
            if logical {
                match op {
                    ValueKind::Put => self.obs.stats.puts.inc(),
                    ValueKind::Delete => self.obs.stats.deletes.inc(),
                }
                self.obs.stats.bytes_ingested.add((key.len() + value.len()) as u64);
            }
            // key-value separation
            if let (Some(sep), ValueKind::Put) = (self.cfg.kv_separation, *op) {
                *value = if value.len() >= sep.min_value_bytes {
                    let vlog = inner.vlog.as_mut().ok_or_else(|| {
                        StorageError::Corruption(
                            "kv separation enabled but no value log is open".into(),
                        )
                    })?;
                    let ptr = vlog.append(key, value)?;
                    self.obs.stats.vlog_values.inc();
                    encode_pointer(ptr)
                } else {
                    encode_inline(value)
                };
            }
        }
        let mut full = false;
        if !records.is_empty() {
            if let Some(wal) = &mut inner.wal {
                match kind {
                    CommitKind::Atomic => wal.append_atomic(records)?,
                    CommitKind::Stream | CommitKind::Relocation => wal.append_batch(records)?,
                }
                self.obs.stats.wal_appends.inc();
            }
            // OCC recording only while a transaction is live, so the plain
            // write path pays one branch when none is
            let track = logical && !inner.txn_floors.is_empty();
            let mut mem = inner.mem.write();
            for (seqno, op, key, stored) in records.iter() {
                mem.insert(key, *seqno, *op, stored);
                if track {
                    match inner.txn_recent.get_mut(key) {
                        Some(s) => *s = *seqno,
                        None => {
                            inner.txn_recent.insert(key.clone(), *seqno);
                        }
                    }
                }
            }
            self.obs.memtable_bytes_gauge.set(mem.bytes() as i64);
            full = mem.is_full(self.cfg.buffer_bytes);
        }
        if let Some(seq) = applied_seq {
            inner.applied_seq = inner.applied_seq.max(seq);
        }
        Ok(full)
    }

    /// Whether the active buffer reached the flush trigger.
    fn buffer_full(&self, inner: &Inner) -> bool {
        inner.mem.read().is_full(self.cfg.buffer_bytes)
    }

    /// The buffer-full tail of every write, run when `full` (the commit's
    /// answer, or a fresh check): freeze the buffer, then — with no
    /// workers — run the flush and compaction it queued, after dropping
    /// the write guard. Transaction commits call it with a fresh guard
    /// after releasing their own, so a multi-engine commit never freezes
    /// under several engines' locks.
    pub(super) fn after_write(&self, inner: RwLockWriteGuard<'_, Inner>, full: bool) -> StorageResult<()> {
        if !full {
            return Ok(());
        }
        self.freeze(inner, true)?;
        self.bg.run_unattended(self);
        self.check_bg_error()
    }

    /// Moves the active buffer into the frozen slot and queues its flush:
    /// a full buffer when `full_only` (a writer), any non-empty one
    /// otherwise (`flush`). The freeze does no I/O — the frozen buffer
    /// keeps the active WAL until a commit or its own flush rotates it.
    /// While the slot is taken it waits for the pending flush, running it
    /// when no worker will, counted as a stall; the wait holds no engine
    /// lock. Returns the ticket of the flush that covers the buffer as it
    /// was on entry.
    pub(super) fn freeze<'a>(
        &'a self,
        mut inner: RwLockWriteGuard<'a, Inner>,
        full_only: bool,
    ) -> StorageResult<u64> {
        loop {
            let wanted = if full_only {
                self.buffer_full(&inner)
            } else {
                !inner.mem.read().is_empty()
            };
            // another writer froze (or a flush drained) in the window
            if !wanted {
                return Ok(self.bg.flush_ticket());
            }
            if inner.imm.is_none() {
                let fresh = Arc::new(RwLock::new(Memtable::new()));
                inner.imm = Some(std::mem::replace(&mut inner.mem, fresh));
                self.obs.memtable_bytes_gauge.set(0);
                return Ok(self.bg.enqueue_flush());
            }
            drop(inner);
            self.device.stats().record_write_stall();
            self.obs.event(EventKind::StallEnter {
                reason: StallReason::MemtableRotation,
                l0_runs: self.l0_runs.load(Ordering::Acquire) as u64,
            });
            let pending = self.bg.flush_ticket();
            self.bg.wait_until(self, |q| q.flushed(pending));
            self.obs.event(EventKind::StallExit {
                reason: StallReason::MemtableRotation,
                l0_runs: self.l0_runs.load(Ordering::Acquire) as u64,
            });
            self.check_bg_error()?;
            inner = self.inner.write();
        }
    }

    /// Gives the active buffer a WAL of its own while the frozen buffer
    /// still shares the active one, whose flush deletes it: syncs both
    /// logs, so every record the frozen buffer holds is durable before
    /// its WAL stops receiving writes, swaps in a new WAL and persists the
    /// manifest naming the old one as `wal_prev` (a crash replays it
    /// before the new one). A failed manifest write undoes the swap, so
    /// the next commit retries it and no record lands in a WAL no
    /// manifest names.
    fn rotate_past_frozen(&self, inner: &mut Inner) -> StorageResult<()> {
        self.sync_logs(inner)?;
        inner.imm_wal = self.rotate_wal(inner)?;
        if let Err(e) = self.persist_manifest(inner) {
            if let Some(new) = std::mem::replace(&mut inner.wal, inner.imm_wal.take()) {
                let _ = self.device.delete(new.id());
            }
            return Err(e);
        }
        Ok(())
    }

    /// Swaps in a fresh active WAL and returns the one it replaces (both
    /// `None` when the WAL is disabled). The caller owns the old log's
    /// fate: it may only be deleted once a manifest no longer naming it
    /// is durable. A failed create leaves the active WAL in place, so no
    /// later commit goes unlogged.
    pub(super) fn rotate_wal(&self, inner: &mut Inner) -> StorageResult<Option<Wal>> {
        if !self.cfg.wal {
            return Ok(None);
        }
        let new = Wal::create(Arc::clone(&self.device))?;
        let old = inner.wal.replace(new);
        if let (Some(old), Some(new)) = (&old, &inner.wal) {
            self.obs.event(EventKind::WalRotation {
                old_wal: old.id().0,
                new_wal: new.id().0,
                old_records: old.records(),
            });
        }
        Ok(old)
    }

    /// Forces the logs' tails to the device and past its durability
    /// barrier (group commit / `fsync`). Writes issued before `sync`
    /// returns survive a crash; unsynced tail records may be lost
    /// (standard torn-tail semantics).
    pub fn sync(&self) -> StorageResult<()> {
        self.sync_logs(&mut self.inner.write())
    }

    fn sync_logs(&self, inner: &mut Inner) -> StorageResult<()> {
        // Value log first: a WAL record referencing a separated value must
        // never become durable before the value bytes it points at —
        // otherwise a crash leaves an acknowledged pointer dangling past
        // the persisted end of the log.
        if let Some(vlog) = &mut inner.vlog {
            vlog.sync()?;
        }
        if let Some(wal) = &mut inner.wal {
            wal.sync()?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Optimistic transactions (see `crate::txn` for the handle API)
    // ------------------------------------------------------------------

    /// Begins an optimistic transaction on this engine: registers its
    /// snapshot floor in `txn_floors` and captures the snapshot (O(1):
    /// buffer handles and a ceiling) **under the same lock acquisition**,
    /// so every write committed after the floor is guaranteed to be
    /// recorded in `txn_recent` (writers check `txn_floors` while holding
    /// the write lock). The floor is the snapshot's ceiling.
    pub(crate) fn txn_begin(&self) -> StorageResult<(crate::snapshot::Snapshot, u64)> {
        let mut inner = self.inner.write();
        let snap = self.sync_and_pin_snapshot(&mut inner)?;
        let snap_seqno = snap.ceiling;
        *inner.txn_floors.entry(snap_seqno).or_insert(0) += 1;
        drop(inner);
        self.obs.txn_begins.inc();
        self.obs.event(EventKind::TxnBegin { snap_seqno });
        Ok((snap, snap_seqno))
    }

    /// Deregisters a transaction's snapshot floor. When the last live
    /// transaction ends the OCC map is dropped wholesale; otherwise it is
    /// pruned below the oldest surviving floor (entries at or below every
    /// live floor can never produce a conflict), so `txn_recent` is
    /// bounded by the write traffic within the oldest live transaction's
    /// lifetime — not by total history.
    pub(crate) fn txn_end(&self, snap_seqno: u64) {
        let mut inner = self.inner.write();
        if let Some(c) = inner.txn_floors.get_mut(&snap_seqno) {
            *c -= 1;
            if *c == 0 {
                inner.txn_floors.remove(&snap_seqno);
            }
        }
        if inner.txn_floors.is_empty() {
            inner.txn_recent = std::collections::HashMap::new();
        } else if inner.txn_recent.len() > TXN_RECENT_PRUNE_LEN {
            let min = *inner
                .txn_floors
                .keys()
                .next()
                .expect("floors checked non-empty");
            inner.txn_recent.retain(|_, s| *s > min);
        }
    }
}
