//! The public engine facade: `open → put/get/scan/delete → stats`.
//!
//! [`Db`] is a cheaply-clonable, `Send + Sync` handle over a shared
//! [`DbCore`]. Maintenance has one path in both modes: a full write
//! buffer is *frozen* into an immutable slot (no I/O) and its flush
//! queued; flush and compaction jobs drain through the one queue in
//! `crate::background`. [`Threaded`](crate::BackgroundMode::Threaded)
//! drains it on a worker pool. [`Inline`](crate::BackgroundMode::Inline)
//! starts no workers: the writer
//! that froze the buffer runs the flush and the cascade after dropping
//! its write guard, before it returns — deterministic by design (see the
//! crate docs). Either way readers snapshot the copy-on-write
//! [`Version`] and never wait on maintenance; writers wait only on L0
//! backpressure and a taken frozen slot.
//!
//! Lock hierarchy (outermost first): `gc_lock` → `compaction_lock` →
//! `inner` → a write buffer's own lock (`SharedMemtable`), or `inner` → the
//! background queue mutex inside `background::BgState`. A scan's buffer
//! cursor refills under the buffer lock alone, and no user callback runs
//! under either lock during a scan.
//!
//! Each mechanism lives once, in the submodule named after it; DESIGN.md
//! ("Module map") says which function owns commit, flush and the read
//! view.

mod compact;
mod flush;
mod introspect;
mod open;
mod read;
#[cfg(test)]
mod tests;
mod write;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use lsm_cache::{HeatMap, ShardedCache};
use lsm_storage::{Block, FileId, StorageDevice, StorageResult};

use crate::background::BgState;
use crate::config::LsmConfig;
use crate::entry::ValueKind;
use crate::kv_sep::ValueLog;
use crate::manifest::{write_manifest, ManifestState};
use crate::memtable::Memtable;
use crate::obs::EngineMetrics;
use crate::version::Version;
use crate::wal::Wal;

pub(crate) use read::{resolve_stored, ReadView, Resolver, TableView};
pub(crate) use write::{commit_txn_parts, TxnApplyPart};

/// A write buffer shared by handle: the engine writes it under `inner`'s
/// write lock and then its own; snapshots and scan cursors hold clones
/// and read it at their seqno ceiling. It is cleared in place only while
/// the engine holds the one handle, so a reader's buffer never empties
/// under it.
pub(crate) type SharedMemtable = Arc<RwLock<Memtable>>;

/// Monotone map from byte keys to the heat-map domain.
fn heat_key(key: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = key.len().min(8);
    buf[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(buf)
}

/// One write as the commit routine sees it: `(seqno, kind, key, value)`.
/// Callers queue it with a zero seqno and the user value; staging fills
/// in the assigned seqno and the stored form (key-value separation) in
/// place, which is exactly the tuple the WAL frames.
type Record = (u64, ValueKind, Vec<u8>, Vec<u8>);

/// An ordered batch of writes applied by [`DbCore::write_batch_mut`] with a
/// single WAL append (group commit). Operations apply in insertion
/// order, so a later op on the same key shadows an earlier one exactly
/// as two separate writes would.
#[derive(Debug, Default)]
pub struct WriteBatch {
    ops: Vec<Record>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Queues an insert/update.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) {
        self.ops.push((0, ValueKind::Put, key, value));
    }

    /// Queues a tombstone.
    pub fn delete(&mut self, key: Vec<u8>) {
        self.ops.push((0, ValueKind::Delete, key, Vec::new()));
    }

    /// Operations queued.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Empties the batch, keeping its allocation for reuse — pairs with
    /// [`DbCore::write_batch_mut`] so a long-lived committer recycles one
    /// batch instead of allocating a fresh `Vec` per group commit.
    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

pub(crate) struct Inner {
    mem: SharedMemtable,
    /// Frozen buffer awaiting its queued flush. Shared, so the flush job
    /// can build its table outside the lock.
    imm: Option<SharedMemtable>,
    /// WAL covering `imm` alone, once a commit has rotated the active log
    /// past it; `None` while `imm` still shares the active WAL. Retired
    /// when the flush lands.
    imm_wal: Option<Wal>,
    version: Arc<Version>,
    wal: Option<Wal>,
    /// The active value log; `version.vlogs` holds it and the retiring ones.
    vlog: Option<ValueLog>,
    next_seqno: u64,
    /// Replication watermark: highest replication-log sequence applied
    /// through [`DbCore::write_batch_replicated`] (0 = never a replica).
    /// Persisted in the manifest on every manifest write; between
    /// manifests the applied batches are covered by the WAL, so a crash
    /// can only leave this *behind* the data — never ahead.
    applied_seq: u64,
    manifest: Option<FileId>,
    /// Round-robin partial-compaction cursors, one per level.
    rr_cursors: Vec<usize>,
    /// OCC bookkeeping: snapshot seqnos of live [`crate::Txn`] handles
    /// (value = handle count at that floor). Non-empty iff a transaction
    /// is active; write paths consult it to decide whether to maintain
    /// `txn_recent`, so the plain write path pays nothing when no
    /// transaction is running.
    txn_floors: std::collections::BTreeMap<u64, usize>,
    /// key → seqno of the last committed write to it, maintained only
    /// while `txn_floors` is non-empty. Commit validation checks each
    /// read-set key here: an entry newer than the transaction's snapshot
    /// floor means a first-committer already won. Pruned to the oldest
    /// live floor and cleared when the last transaction ends.
    txn_recent: std::collections::HashMap<Vec<u8>, u64>,
}

/// A configurable LSM-tree storage engine handle. Cloning is cheap (an
/// `Arc` bump); all clones share one engine. The last clone to drop
/// shuts the background workers down and syncs the logs.
pub struct Db {
    core: Arc<DbCore>,
}

impl Clone for Db {
    fn clone(&self) -> Db {
        self.core.user_handles.fetch_add(1, Ordering::AcqRel);
        Db {
            core: Arc::clone(&self.core),
        }
    }
}

impl Drop for Db {
    /// The *last user handle* drives shutdown, even though a worker may
    /// still hold a strong `Arc` for its in-flight job: without this, a
    /// caller could drop every handle and reopen the device while a
    /// background flush is still writing tables and manifests into it.
    fn drop(&mut self) {
        if self.core.user_handles.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.core.shutdown_and_join();
        }
    }
}

impl std::ops::Deref for Db {
    type Target = DbCore;

    fn deref(&self) -> &DbCore {
        &self.core
    }
}

/// The shared engine state behind every [`Db`] clone. All operations
/// take `&self`; the engine is internally synchronized.
pub struct DbCore {
    device: Arc<dyn StorageDevice>,
    /// The configuration as booted.
    cfg: LsmConfig,
    /// The configuration in force: `cfg` until a retune installs another
    /// ([`DbCore::set_config`]), which differs from it only in the
    /// retunable knobs ([`LsmConfig::with_knobs_of`]).
    live_cfg: RwLock<Arc<LsmConfig>>,
    cache: Option<Arc<ShardedCache<Block>>>,
    /// Key heat for the post-compaction prefetch; recorded (and locked)
    /// only when `cfg.prefetch_after_compaction` is set.
    heat: Mutex<HeatMap>,
    inner: RwLock<Inner>,
    /// The maintenance queue; shared with the worker threads via its own
    /// `Arc` so idle workers do not keep the engine alive.
    bg: Arc<BgState>,
    /// Worker join handles, drained on drop.
    workers: std::sync::Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Non-empty L0 run count, mirrored from the current version so the
    /// write path can check backpressure without taking `inner`.
    l0_runs: AtomicUsize,
    /// Serializes compaction cascades (the compact job vs. explicit
    /// `compact`/`major_compact`). Taken *before* `inner` per the lock
    /// hierarchy.
    compaction_lock: Mutex<()>,
    /// Serializes value-log GCs. Held over a whole GC, whose commits and
    /// flush may take `compaction_lock`, so nothing may take it while
    /// holding `compaction_lock`.
    gc_lock: Mutex<()>,
    /// Live user-facing [`Db`] clones. The last one to drop joins the
    /// worker pool (see `Drop for Db`), regardless of the `Arc` count.
    user_handles: AtomicUsize,
    /// Metrics registry, every engine series (the `db.*` counters are
    /// shared with every [`crate::Snapshot`], whose reads are counted like
    /// the engine's own), and the structured event trace (see
    /// [`crate::obs`]).
    obs: EngineMetrics,
}

impl DbCore {
    fn count_l0_runs(version: &Version) -> usize {
        version
            .levels
            .first()
            .map_or(0, |l| l.runs.iter().filter(|r| !r.is_empty()).count())
    }

    /// Installs `version` as current and mirrors its L0 run count into the
    /// lock-free backpressure gauge. Every version swap goes through here.
    fn install_version(&self, inner: &mut Inner, version: Version) {
        let l0 = Self::count_l0_runs(&version);
        inner.version = Arc::new(version);
        self.l0_runs.store(l0, Ordering::Release);
        self.obs.l0_runs_gauge.set(l0 as i64);
    }

    /// Surfaces the first maintenance-job error on the calling thread.
    fn check_bg_error(&self) -> StorageResult<()> {
        match self.bg.take_error() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn persist_manifest(&self, inner: &mut Inner) -> StorageResult<()> {
        let mut floors: Vec<(u64, Vec<u8>)> = inner
            .version
            .levels
            .iter()
            .flat_map(|l| &l.runs)
            .flat_map(|r| {
                (0..r.tables.len()).filter_map(move |i| Some((r.tables[i].id(), r.floor(i)?.to_vec())))
            })
            .collect();
        floors.sort_unstable_by_key(|(id, _)| *id);
        let vlog = inner.vlog.as_ref().map_or(0, |v| v.id().0);
        let mut retiring: Vec<u64> = inner.version.vlogs.iter().map(|l| l.id().0).filter(|&id| id != vlog).collect();
        retiring.sort_unstable();
        let state = ManifestState {
            levels: inner
                .version
                .levels
                .iter()
                .map(|l| {
                    l.runs
                        .iter()
                        .map(|r| r.tables.iter().map(|t| t.id()).collect())
                        .collect()
                })
                .collect(),
            wal: inner.wal.as_ref().map_or(0, |w| w.id().0),
            wal_prev: inner.imm_wal.as_ref().map_or(0, |w| w.id().0),
            vlog,
            retiring,
            next_seqno: inner.next_seqno,
            applied_seq: inner.applied_seq,
            floors,
        };
        inner.manifest = Some(write_manifest(&self.device, &state, inner.manifest)?);
        Ok(())
    }

    /// Blocks until no maintenance job is queued or running, running the
    /// queued ones itself when no worker will. A test/bench hook: after it
    /// returns, stats and level structure are quiescent (absent concurrent
    /// writers).
    pub fn wait_background_idle(&self) {
        self.bg.wait_until(self, |q| q.idle());
    }

    /// Stops the worker pool and joins every worker thread (skipping the
    /// current thread, in case a worker itself holds the last reference).
    /// Idempotent: the second caller finds an empty handle list.
    ///
    /// The last user [`Db`] handle calls this from its `Drop` so that
    /// `drop(db)` on the caller's thread always waits for in-flight
    /// background jobs — even when a worker's per-job `Arc` keeps the
    /// `DbCore` itself alive a little longer. Without that wait, a caller
    /// could reopen the device while a background flush is still writing
    /// tables and manifests into it.
    fn shutdown_and_join(&self) {
        self.bg.begin_shutdown();
        let handles = std::mem::take(
            &mut *self
                .workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        let me = std::thread::current().id();
        for h in handles {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}

impl Drop for DbCore {
    /// Clean shutdown: stop the worker pool, then sync the logs so every
    /// acknowledged write is on the device and past its barrier. Crash
    /// semantics (torn tails) are exercised by dropping the device
    /// instead of the `Db`.
    fn drop(&mut self) {
        self.shutdown_and_join();
        let inner = self.inner.get_mut();
        if let Some(vlog) = &mut inner.vlog {
            let _ = vlog.sync();
        }
        if let Some(wal) = &mut inner.wal {
            let _ = wal.sync();
        }
        if let Some(wal) = &mut inner.imm_wal {
            let _ = wal.sync();
        }
    }
}
