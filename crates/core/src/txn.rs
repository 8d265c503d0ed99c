//! Optimistic multi-key transactions (OCC) over the engine's snapshot
//! and group-commit machinery.
//!
//! A [`Txn`] reads through a pinned [`crate::Snapshot`] while recording a
//! **read-set**, buffers its writes locally, and at [`Txn::commit`]
//! validates the read-set against the engine's per-key last-committed
//! sequence numbers — first-committer-wins: if any key the transaction
//! read was overwritten after its snapshot, the commit fails with a
//! typed [`Conflict`] and the engine is untouched. A clean validation
//! folds the write-set into one **atomic** WAL group (all-or-nothing
//! under crash recovery) under the same write-lock acquisition, so
//! validation and apply are a single serialization point.
//!
//! ## Protocol
//!
//! 1. **Begin** pins a snapshot — O(1): the write buffers' handles and a
//!    seqno ceiling — and registers its sequence floor (`next_seqno - 1`,
//!    the same ceiling) under the engine write lock. From that moment
//!    every committed write records `key → seqno` into an OCC side map —
//!    the map is only maintained while transactions are live, so the
//!    plain write path pays a single branch when none are.
//! 2. **Reads** go to the transaction's own write buffer first
//!    (read-your-own-writes), then the snapshot; the key enters the
//!    read-set either way (a read of a missing key is still a read — a
//!    later insert of that key must conflict).
//! 3. **Writes** buffer in commit order; nothing reaches the engine
//!    before commit, so an abort — explicit, dropped handle, or
//!    server-side idle timeout — leaves zero trace.
//! 4. **Commit** takes the write lock, validates every read key against
//!    the side map (`recorded seqno > snapshot floor` ⇒ conflict),
//!    applies the write-set as one atomic WAL group, and draws a global
//!    commit stamp while the lock is held. Stamp order is therefore the
//!    serialization order: replaying committed transactions by stamp
//!    reproduces the exact engine state.
//!
//! Blind writes (keys written but never read) always win — two
//! transactions writing the same key without reading it both commit,
//! last stamp wins, exactly as two plain puts would. Snapshot lifetime
//! is bounded by the handle: dropping the last [`Txn`] releases its
//! snapshot (the tables and value logs it alone kept are deleted) and its
//! floor (the OCC map prunes to the oldest surviving transaction, or
//! drops entirely). Value-log GC never waits for a transaction: a
//! relocation is not a logical write, so it is not a conflict either.

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use lsm_storage::{StorageError, StorageResult};

use crate::db::{commit_txn_parts, Db, TxnApplyPart, WriteBatch};
use crate::snapshot::Snapshot;

/// First-committer-wins validation failure: a key in the transaction's
/// read-set was overwritten after its snapshot. The transaction did not
/// commit and left no trace; the caller retries with a fresh [`Txn`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// The read key that was overwritten.
    pub key: Vec<u8>,
    /// The transaction's snapshot floor on the conflicting engine.
    pub snap_seqno: u64,
    /// Sequence number of the committed write that invalidated the read.
    pub conflict_seqno: u64,
}

/// Why a [`Txn::commit`] failed.
#[derive(Debug)]
pub enum TxnError {
    /// Validation failed — retry with a fresh transaction.
    Conflict(Conflict),
    /// The engine failed while validating or applying.
    Storage(StorageError),
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::Conflict(c) => write!(
                f,
                "txn conflict on key {:?}: committed seqno {} > snapshot {}",
                c.key, c.conflict_seqno, c.snap_seqno
            ),
            TxnError::Storage(e) => write!(f, "txn storage error: {e}"),
        }
    }
}

impl std::error::Error for TxnError {}

impl From<StorageError> for TxnError {
    fn from(e: StorageError) -> Self {
        TxnError::Storage(e)
    }
}

/// An optimistic transaction over one engine. See the module docs for
/// the protocol; obtain one with [`Db::begin_txn`].
pub struct Txn {
    db: Db,
    snap: Snapshot,
    snap_seqno: u64,
    read_set: HashSet<Vec<u8>>,
    /// Buffered writes: `Some(value)` = put, `None` = delete. A `BTreeMap`
    /// so the commit batch applies in deterministic key order.
    writes: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    /// Set once the floor has been released (commit or explicit abort),
    /// so `Drop` doesn't release it twice.
    ended: bool,
}

impl Txn {
    pub(crate) fn begin(db: &Db) -> StorageResult<Txn> {
        let (snap, snap_seqno) = db.txn_begin()?;
        Ok(Txn {
            db: db.clone(),
            snap,
            snap_seqno,
            read_set: HashSet::new(),
            writes: BTreeMap::new(),
            ended: false,
        })
    }

    /// Transactional read: own buffered writes first, then the snapshot.
    /// The key joins the read-set either way.
    pub fn get(&mut self, key: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        self.read_set.insert(key.to_vec());
        if let Some(buffered) = self.writes.get(key) {
            return Ok(buffered.clone());
        }
        self.snap.get(key)
    }

    /// Buffers an insert/update; nothing reaches the engine until commit.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) {
        self.writes.insert(key, Some(value));
    }

    /// Buffers a delete.
    pub fn delete(&mut self, key: Vec<u8>) {
        self.writes.insert(key, None);
    }

    /// Validates the read-set and atomically applies the write-set.
    /// Returns the global commit stamp (the serialization point) on
    /// success. On [`TxnError::Conflict`] the engine is untouched.
    pub fn commit(mut self) -> Result<u64, TxnError> {
        let mut batch = WriteBatch::new();
        for (key, value) in std::mem::take(&mut self.writes) {
            match value {
                Some(v) => batch.put(key, v),
                None => batch.delete(key),
            }
        }
        let read_set: Vec<Vec<u8>> = std::mem::take(&mut self.read_set).into_iter().collect();
        let mut parts = [TxnApplyPart {
            db: &self.db,
            snap_seqno: self.snap_seqno,
            read_set,
            write_set: batch,
        }];
        let out = commit_txn_parts(&mut parts);
        drop(parts);
        self.release();
        match out {
            Ok(Ok(stamp)) => Ok(stamp),
            Ok(Err(conflict)) => Err(TxnError::Conflict(conflict)),
            Err(e) => Err(TxnError::Storage(e)),
        }
    }

    /// Discards the transaction. Equivalent to dropping the handle, but
    /// reads as intent at call sites.
    pub fn abort(self) {
        // Drop releases the floor; the snapshot goes with the handle.
    }

    fn release(&mut self) {
        if !self.ended {
            self.ended = true;
            self.db.txn_end(self.snap_seqno);
        }
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        self.release();
    }
}

impl Db {
    /// Begins an optimistic transaction: pins a snapshot, records reads,
    /// buffers writes, validates first-committer-wins at
    /// [`Txn::commit`]. See [`crate::txn`] for the protocol.
    pub fn begin_txn(&self) -> StorageResult<Txn> {
        Txn::begin(self)
    }
}

/// A cross-engine transaction part assembled by a serving layer: the
/// read-set and write-set a [`Txn`]-like handle accumulated against one
/// engine, to be committed atomically with sibling parts via
/// [`commit_parts`].
pub struct TxnPart {
    db: Db,
    snap_seqno: u64,
    read_set: Vec<Vec<u8>>,
    writes: Vec<(Vec<u8>, Option<Vec<u8>>)>,
}

impl Txn {
    /// Dismantles the handle into a [`TxnPart`] for a multi-engine
    /// commit, releasing the snapshot but **keeping the floor
    /// registered** until [`commit_parts`] (or [`TxnPart::release`])
    /// runs — the conflict window must stay open through the commit.
    pub fn into_part(mut self) -> TxnPart {
        self.ended = true; // the part now owns the floor release
        TxnPart {
            db: self.db.clone(),
            snap_seqno: self.snap_seqno,
            read_set: std::mem::take(&mut self.read_set).into_iter().collect(),
            writes: std::mem::take(&mut self.writes).into_iter().collect(),
        }
    }
}

impl TxnPart {
    /// The engine this part targets.
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// The buffered write-set in key order (`Some` = put, `None` =
    /// delete) — lets a serving layer tee or replicate exactly what a
    /// commit will apply.
    pub fn writes(&self) -> &[(Vec<u8>, Option<Vec<u8>>)] {
        &self.writes
    }

    /// Releases the part's snapshot floor without committing (abort).
    pub fn release(self) {
        // Drop runs the release.
    }
}

impl Drop for TxnPart {
    fn drop(&mut self) {
        self.db.txn_end(self.snap_seqno);
    }
}

/// Commits a group of [`TxnPart`]s (one per distinct engine) as a single
/// atomic transaction: every part's read-set validates under every
/// involved engine's write lock (taken in one stable global order), and
/// only a fully-clean validation applies the write-sets — each engine's
/// slice as one atomic WAL group. Returns the shared commit stamp.
///
/// Cross-engine crash atomicity is **not** guaranteed: each engine's
/// slice is individually all-or-nothing in its own WAL, but a crash
/// between two engines' syncs can persist one slice without the other
/// (see DESIGN.md "Transactions" for the full contract).
pub fn commit_parts(parts: Vec<TxnPart>) -> Result<u64, TxnError> {
    let mut apply: Vec<TxnApplyPart<'_>> = parts
        .iter()
        .map(|p| {
            let mut batch = WriteBatch::new();
            for (key, value) in &p.writes {
                match value {
                    Some(v) => batch.put(key.clone(), v.clone()),
                    None => batch.delete(key.clone()),
                }
            }
            TxnApplyPart {
                db: &p.db,
                snap_seqno: p.snap_seqno,
                read_set: p.read_set.clone(),
                write_set: batch,
            }
        })
        .collect();
    let out = commit_txn_parts(&mut apply);
    drop(apply);
    drop(parts); // floors release after validation+apply completed
    match out {
        Ok(Ok(stamp)) => Ok(stamp),
        Ok(Err(conflict)) => Err(TxnError::Conflict(conflict)),
        Err(e) => Err(TxnError::Storage(e)),
    }
}
