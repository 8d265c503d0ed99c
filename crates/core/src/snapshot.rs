//! Long-lived snapshots (tutorial Module I.1: "a scan operates over a
//! version (or snapshot) of the data — the collection of files that were
//! active and live at the time the scan began").
//!
//! A [`Snapshot`] is O(1): the handles of the write buffers, a seqno
//! ceiling and a [`Version`]. The buffers keep every version, so reading
//! them at the ceiling hides whatever was written after the snapshot was
//! taken; a flush installs a fresh buffer rather than clear one a handle
//! still shares. The version's `Arc`ed tables and value logs keep their
//! files alive even after compactions and value-log GC supersede them
//! (physical deletion happens when the last reference drops), so a
//! snapshot stays readable for as long as it is held — without blocking
//! writers or GC. Its reads run on the engine's own
//! read view (`crate::db::ReadView`), so they take the same filter, fence
//! and range-filter shortcuts and feed the same counters.

use std::ops::Range;
use std::sync::Arc;

use lsm_cache::ShardedCache;
use lsm_storage::{Block, StorageDevice, StorageResult};

use crate::db::{resolve_stored, ReadView, Resolver, SharedMemtable, TableView};
use crate::stats::DbStats;
use crate::version::Version;

/// An immutable point-in-time view of the database.
pub struct Snapshot {
    /// The active write buffer at snapshot time, shared with the engine.
    pub(crate) mem: SharedMemtable,
    /// Frozen memtable awaiting flush at snapshot time (`Threaded` mode);
    /// older than `mem`, younger than every sorted run.
    pub(crate) imm: Option<SharedMemtable>,
    /// Newest seqno the snapshot sees in `mem` and `imm`.
    pub(crate) ceiling: u64,
    pub(crate) version: Arc<Version>,
    pub(crate) cache: Option<Arc<ShardedCache<Block>>>,
    pub(crate) device: Arc<dyn StorageDevice>,
    pub(crate) stats: Arc<DbStats>,
    pub(crate) kv_separation: bool,
}

impl Snapshot {
    /// The snapshot's read view. Separated values resolve through the
    /// device alone: the log tail was synced when the snapshot was taken.
    fn view<'a>(&'a self, resolve: Resolver<'a>) -> ReadView<'a> {
        ReadView {
            mem: &self.mem,
            imm: self.imm.as_ref(),
            ceiling: self.ceiling,
            tables: TableView {
                version: &self.version,
                cache: self.cache.as_ref(),
                stats: &self.stats,
                resolve: self.kv_separation.then_some(resolve),
            },
        }
    }

    fn resolve(&self, raw: &[u8]) -> StorageResult<Vec<u8>> {
        resolve_stored(&self.device, None, &self.stats, raw)
    }

    /// Point lookup against the snapshot.
    pub fn get(&self, key: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        self.view(&|raw| self.resolve(raw))
            .get_with(key, |v| v.to_vec())
    }

    /// Range scan against the snapshot: up to `limit` live entries with
    /// `range.start ≤ key < range.end`, in key order.
    pub fn scan(
        &self,
        range: Range<Vec<u8>>,
        limit: usize,
    ) -> StorageResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        self.scan_with(&range.start, Some(&range.end), limit, |k, v| {
            out.push((k.to_vec(), v.to_vec()))
        })?;
        Ok(out)
    }

    /// Streaming scan through borrowed views: calls `f(key, value)` for
    /// each live entry with `start ≤ key < end` in key order, up to
    /// `limit`, and returns how many were visited. `end == None` scans to
    /// the end of the keyspace, whatever the key length.
    pub fn scan_with(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        f: impl FnMut(&[u8], &[u8]),
    ) -> StorageResult<usize> {
        self.view(&|raw| self.resolve(raw))
            .scan_with(start, end, limit, f)
    }
}
