//! The read path: one borrowed view — write buffers read at a seqno
//! ceiling, a pinned version, the block cache, a value resolver — that
//! answers point lookups and assembles scan sources for the engine,
//! snapshots, transactions and value-log GC alike (tutorial Module I.1:
//! buffer first, then levels young-to-old; per run: key range → filter →
//! fence → block). A table a merge frontier clipped is read only above
//! its floor, by a get's `SortedRun::table_for` and a scan's
//! `RunIterator` alike.
//!
//! A scan gives the merge one [`BufferCursor`] per write buffer. The
//! buffers keep every version and are shared by handle, so the cursor
//! reads its buffer as of the scan's ceiling and copies it a chunk at a
//! time: the first chunk under the engine lock the scan takes anyway,
//! later ones under the buffer's read lock alone, and only when the merge
//! drains the one before.

use std::ops::{Bound, Range};
use std::sync::Arc;

use lsm_cache::ShardedCache;
use lsm_storage::{Block, StorageDevice, StorageError, StorageResult};

use super::{heat_key, DbCore, Inner, SharedMemtable};
use crate::entry::ValueKind;
use crate::iter::{BufferCursor, MergingIter, RunIterator, Source, BUFFER_CHUNK};
use crate::kv_sep::{decode_value, read_pointer_from_device, ValueLog, ValuePointer};
use crate::snapshot::Snapshot;
use crate::sstable::Table;
use crate::stats::DbStats;
use crate::version::Version;

/// Turns a stored value into the user's value under key-value
/// separation (a pointer chase that may read the value log).
pub(crate) type Resolver<'a> = &'a dyn Fn(&[u8]) -> StorageResult<Vec<u8>>;

/// Decodes a separated value: inline bytes are copied out, a pointer is
/// read from `active` when it targets that (possibly unsynced) log, else
/// from the device.
pub(crate) fn resolve_stored(
    device: &Arc<dyn StorageDevice>,
    active: Option<&ValueLog>,
    stats: &DbStats,
    raw: &[u8],
) -> StorageResult<Vec<u8>> {
    match decode_value(raw) {
        Some(Ok(inline)) => Ok(inline.to_vec()),
        Some(Err(ptr)) => {
            stats.vlog_resolves.inc();
            match active {
                Some(log) if log.id() == ptr.file => log.read(ptr),
                _ => read_pointer_from_device(device, ptr),
            }
        }
        None => Err(StorageError::Corruption("bad separated value".into())),
    }
}

/// The table half of a read: everything below the write buffers. The
/// engine runs it on a cloned `Arc<Version>` with no lock held.
pub(crate) struct TableView<'a> {
    pub version: &'a Version,
    pub cache: Option<&'a Arc<ShardedCache<Block>>>,
    pub stats: &'a DbStats,
    /// `None` = stored bytes are the value (no key-value separation, or
    /// a caller that wants the raw stored form): the zero-copy path.
    pub resolve: Option<Resolver<'a>>,
}

/// A borrowed, consistent view of the tree: both write buffers, read at
/// one seqno ceiling, plus the [`TableView`] under them.
pub(crate) struct ReadView<'a> {
    pub mem: &'a SharedMemtable,
    /// Frozen memtable awaiting flush; older than `mem`, younger than
    /// every sorted run.
    pub imm: Option<&'a SharedMemtable>,
    /// Newest seqno the view sees: buffered versions above it were
    /// written after the view was taken.
    pub ceiling: u64,
    pub tables: TableView<'a>,
}

/// Hands `value` (resolved first, under key-value separation) to the
/// caller's one-shot closure.
fn deliver<R, F: FnOnce(&[u8]) -> R>(
    resolve: Option<Resolver<'_>>,
    f: &mut Option<F>,
    value: &[u8],
) -> StorageResult<R> {
    let f = f.take().expect("lookup closure runs at most once");
    Ok(match resolve {
        Some(resolve) => f(&resolve(value)?),
        None => f(value),
    })
}

impl TableView<'_> {
    /// The level/run walk of a point lookup, youngest first: the first
    /// run holding any version of `key` decides. `f` runs on the value
    /// bytes in the cached block, at most once, never for a tombstone.
    pub(crate) fn get_with<R, F: FnOnce(&[u8]) -> R>(
        &self,
        key: &[u8],
        f: &mut Option<F>,
    ) -> StorageResult<Option<R>> {
        for level in &self.version.levels {
            for run in &level.runs {
                let Some(table) = run.table_for(key) else {
                    self.stats.range_prunes.inc();
                    continue;
                };
                self.stats.runs_probed.inc();
                // the slot dance keeps `f` available for the next table
                // when this one misses
                let (hit, probe) = table.get_with(key, self.cache.map(|c| c.as_ref()), |e| match e.kind {
                    ValueKind::Delete => Ok(None),
                    ValueKind::Put => deliver(self.resolve, f, e.value).map(Some),
                })?;
                if probe.filter_pruned {
                    self.stats.filter_prunes.inc();
                }
                self.stats.blocks_examined.add(probe.blocks_examined as u64);
                if let Some(found) = hit {
                    let found: Option<R> = found?;
                    if found.is_some() {
                        self.stats.gets_found.inc();
                    }
                    return Ok(found);
                }
            }
        }
        Ok(None)
    }

    /// Drains a scan's merged sources through `f(key, value)`: live
    /// entries in key order, stopping at `end` (exclusive) or `limit`.
    /// Returns how many were visited.
    pub(crate) fn merge_scan(
        &self,
        sources: Vec<Source>,
        end: Option<&[u8]>,
        limit: usize,
        mut f: impl FnMut(&[u8], &[u8]),
    ) -> StorageResult<usize> {
        let mut merger = MergingIter::new(sources, false)?;
        let mut n = 0usize;
        while n < limit && merger.advance_visible()? {
            if end.is_some_and(|end| merger.key() >= end) {
                break;
            }
            match self.resolve {
                // pointer chase: the resolved value is owned by necessity
                Some(resolve) => f(merger.key(), &resolve(merger.value())?),
                None => f(merger.key(), merger.value()),
            }
            n += 1;
        }
        self.stats.scan_entries.add(n as u64);
        Ok(n)
    }
}

impl ReadView<'_> {
    /// The buffer half of a point lookup: `Some(outcome)` when either
    /// memtable holds a version of `key` (a tombstone yields
    /// `Some(None)`), `None` when the tables must be consulted.
    pub(crate) fn get_buffered<R, F: FnOnce(&[u8]) -> R>(
        &self,
        key: &[u8],
        f: &mut Option<F>,
    ) -> StorageResult<Option<Option<R>>> {
        self.tables.stats.gets.inc();
        for buffer in std::iter::once(self.mem).chain(self.imm) {
            let mem = buffer.read();
            let Some(e) = mem.get_at(key, self.ceiling) else {
                continue;
            };
            if e.kind == ValueKind::Delete {
                return Ok(Some(None));
            }
            self.tables.stats.gets_found.inc();
            return Ok(Some(Some(deliver(self.tables.resolve, f, e.value)?)));
        }
        Ok(None)
    }

    /// Point lookup: the newest visible value for `key`, handed to `f`
    /// in place (memtable arena or cached block).
    pub(crate) fn get_with<R>(
        &self,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> StorageResult<Option<R>> {
        let mut f = Some(f);
        match self.get_buffered(key, &mut f)? {
            Some(outcome) => Ok(outcome),
            None => self.tables.get_with(key, &mut f),
        }
    }

    /// Assembles merge sources for a scan of up to `limit` rows of
    /// `[start, end)` (`end == None`: to the end of the keyspace): one
    /// [`BufferCursor`] per write buffer at the view's ceiling (rank 0 =
    /// youngest, frozen memtable next), then sorted runs youngest
    /// level/run first.
    ///
    /// Each cursor copies its first chunk here — a couple of entries,
    /// doubling per refill up to [`BUFFER_CHUNK`], or `limit` if smaller —
    /// and the rest only as the merge drains it, so set-up costs
    /// O(sources + chunk) whatever the buffers hold, and nothing is sized
    /// by `limit` (it may be a client's number). A run's cursor is its
    /// shared table slice plus an index range, O(1) to build. Range-filter
    /// pruning is an in-memory probe, so it happens up front, while data
    /// blocks are only read lazily as the merge reaches each table. An
    /// empty or inverted range has no sources.
    pub(crate) fn sources(&self, start: &[u8], end: Option<&[u8]>, limit: usize) -> Vec<Source> {
        let stats = self.tables.stats;
        stats.scans.inc();
        if end.is_some_and(|end| start >= end) {
            return Vec::new();
        }
        let runs: usize = self.tables.version.levels.iter().map(|l| l.runs.len()).sum();
        let mut sources = Vec::with_capacity(2 + runs);
        let hi = end.map_or(Bound::Unbounded, Bound::Excluded);
        let chunk = limit.min(BUFFER_CHUNK);
        for buffer in std::iter::once(self.mem).chain(self.imm) {
            sources.push(Source::Buffer(BufferCursor::new(buffer, start, end, self.ceiling, chunk)));
        }
        // the runs' cursors share one copy of `start`
        let mut shared_start: Option<Arc<[u8]>> = None;
        let may_overlap = |table: &Table| {
            let keep = table.range_may_overlap(Bound::Included(start), hi);
            if !keep {
                stats.range_filter_prunes.inc();
            }
            keep
        };
        for run in self.tables.version.levels.iter().flat_map(|l| &l.runs) {
            // a range filter can only prune the first or the last table
            // the keys overlap: every table between lies wholly inside
            // `[start, end)`, so it holds a key in range
            let mut range = run.overlapping_range(start, end);
            while !range.is_empty() && !may_overlap(&run.tables[range.start]) {
                range.start += 1;
            }
            while !range.is_empty() && !may_overlap(&run.tables[range.end - 1]) {
                range.end -= 1;
            }
            if !range.is_empty() {
                let start = shared_start.get_or_insert_with(|| start.into());
                sources.push(Source::Run(RunIterator::new(
                    run.clone(),
                    range,
                    Arc::clone(start),
                    self.tables.cache.cloned(),
                )));
            }
        }
        sources
    }

    /// Streaming scan of `[start, end)` through borrowed views.
    pub(crate) fn scan_with(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
        f: impl FnMut(&[u8], &[u8]),
    ) -> StorageResult<usize> {
        self.tables
            .merge_scan(self.sources(start, end, limit), end, limit, f)
    }
}

impl DbCore {
    /// The engine's table view over `version`. `resolve` is dropped when
    /// key-value separation is off — stored bytes are then the value.
    fn tables<'a>(&'a self, version: &'a Version, resolve: Option<Resolver<'a>>) -> TableView<'a> {
        TableView {
            version,
            cache: self.cache.as_ref(),
            stats: &self.obs.stats,
            resolve: resolve.filter(|_| self.cfg.kv_separation.is_some()),
        }
    }

    /// The engine's full view under a held guard.
    fn view<'a>(&'a self, inner: &'a Inner, resolve: Option<Resolver<'a>>) -> ReadView<'a> {
        ReadView {
            mem: &inner.mem,
            imm: inner.imm.as_ref(),
            ceiling: inner.next_seqno - 1,
            tables: self.tables(&inner.version, resolve),
        }
    }

    /// Resolves a stored value with no lock held (the table and merge
    /// phases): takes a brief read lock for the active value log.
    fn resolve_unlocked(&self, raw: &[u8]) -> StorageResult<Vec<u8>> {
        let inner = self.inner.read();
        resolve_stored(&self.device, inner.vlog.as_ref(), &self.obs.stats, raw)
    }

    /// Point lookup: the newest visible value for `key`. Takes a version
    /// snapshot and probes tables without holding any engine lock.
    pub fn get(&self, key: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        self.get_with(key, |v| v.to_vec())
    }

    /// Point lookup through a borrowed view: `f` runs on the value bytes
    /// in place — in the memtable arena or the cached block — and its
    /// result is returned. This is the zero-copy primitive [`DbCore::get`]
    /// wraps; a caller that copies into a reused buffer from `f` reads a
    /// warm block with no heap allocation. `f` is called at most
    /// once, and never for a tombstone. For a buffered key it runs under
    /// the engine's and the buffer's read locks, so it must not write to
    /// this engine.
    pub fn get_with<R>(
        &self,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> StorageResult<Option<R>> {
        self.obs.timed(&self.obs.get_ns, || {
            if self.cfg.prefetch_after_compaction {
                self.heat.lock().record(heat_key(key));
            }
            let mut f = Some(f);
            // buffers under a brief read lock, tables lock-free on the
            // version that was current while it was held
            let version = {
                let inner = self.inner.read();
                let resolve = |raw: &[u8]| {
                    resolve_stored(&self.device, inner.vlog.as_ref(), &self.obs.stats, raw)
                };
                if let Some(out) = self.view(&inner, Some(&resolve)).get_buffered(key, &mut f)? {
                    return Ok(out);
                }
                Arc::clone(&inner.version)
            };
            let resolve = |raw: &[u8]| self.resolve_unlocked(raw);
            self.tables(&version, Some(&resolve)).get_with(key, &mut f)
        })
    }

    /// Range scan: up to `limit` live entries with `range.start ≤ key <
    /// range.end`, in key order, over a consistent snapshot. The write
    /// buffers are read at the scan's seqno ceiling through one cursor
    /// each, copied a chunk at a time as the merge needs them
    /// (`ReadView::sources`); table I/O and the merge run against the
    /// version snapshot with no engine lock held.
    pub fn scan(&self, range: Range<Vec<u8>>, limit: usize) -> StorageResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        self.scan_with(&range.start, &range.end, limit, |k, v| out.push((k.to_vec(), v.to_vec())))?;
        Ok(out)
    }

    /// Streaming range scan through borrowed views: calls `f(key, value)`
    /// for each live entry with `start ≤ key < end`, in key order, up to
    /// `limit` entries, and returns how many were visited. The bytes are
    /// borrowed from the merge cursor (cached blocks / the current chunk
    /// of each write buffer's cursor) — no per-entry key/value `Vec`s are
    /// materialized, which is what [`DbCore::scan`] pays to build its
    /// owned result. Set-up costs O(sources + one chunk), whatever the
    /// buffers hold, and `f` runs with no engine or buffer lock held.
    pub fn scan_with(
        &self,
        start: &[u8],
        end: &[u8],
        limit: usize,
        f: impl FnMut(&[u8], &[u8]),
    ) -> StorageResult<usize> {
        self.obs.timed(&self.obs.scan_ns, || {
            let (sources, version) = {
                let inner = self.inner.read();
                (self.view(&inner, None).sources(start, Some(end), limit), Arc::clone(&inner.version))
            };
            let resolve = |raw: &[u8]| self.resolve_unlocked(raw);
            self.tables(&version, Some(&resolve)).merge_scan(sources, Some(end), limit, f)
        })
    }

    /// Whether the newest version of `key` is a put storing exactly `ptr`,
    /// and the `next_seqno` it was read at. Read as a get reads, so GC's
    /// device reads hold up no reader or writer; the answer still holds
    /// under a later write guard while `next_seqno` has not moved.
    pub(super) fn stores_pointer(&self, key: &[u8], ptr: ValuePointer) -> StorageResult<(bool, u64)> {
        let mut f = Some(|raw: &[u8]| decode_value(raw) == Some(Err(ptr)));
        let (version, seqno) = {
            let inner = self.inner.read();
            if let Some(out) = self.view(&inner, None).get_buffered(key, &mut f)? {
                return Ok((out == Some(true), inner.next_seqno));
            }
            (Arc::clone(&inner.version), inner.next_seqno)
        };
        let stored = self.tables(&version, None).get_with(key, &mut f)?;
        Ok((stored == Some(true), seqno))
    }

    /// [`DbCore::stores_pointer`] under the held guard.
    pub(super) fn stores_pointer_in(&self, inner: &Inner, key: &[u8], ptr: ValuePointer) -> StorageResult<bool> {
        let stored = self.view(inner, None).get_with(key, |raw| decode_value(raw) == Some(Err(ptr)))?;
        Ok(stored == Some(true))
    }

    /// Takes a long-lived point-in-time snapshot. It holds no lock:
    /// writers, compactions and value-log GC proceed freely, and the
    /// snapshot's tables and value logs stay alive (deletion is deferred
    /// to the last reference) until it is dropped.
    ///
    /// O(1): the snapshot shares the write buffers by handle and reads
    /// them at its seqno ceiling, under the engine's read lock. With
    /// key-value separation the value-log tail is synced first (under the
    /// write lock) so pointer reads need no access to engine internals.
    pub fn snapshot(&self) -> StorageResult<Snapshot> {
        if self.cfg.kv_separation.is_some() {
            return self.sync_and_pin_snapshot(&mut self.inner.write());
        }
        Ok(self.pin_snapshot(&self.inner.read()))
    }

    /// [`DbCore::pin_snapshot`] after syncing the value-log tail, so the
    /// snapshot can resolve every pointer it sees from the device.
    pub(super) fn sync_and_pin_snapshot(&self, inner: &mut Inner) -> StorageResult<Snapshot> {
        if let Some(vlog) = &mut inner.vlog {
            vlog.sync()?;
        }
        Ok(self.pin_snapshot(inner))
    }

    /// Builds a [`Snapshot`] of the state under the held guard: buffer
    /// handles, the current seqno as ceiling and the current version.
    fn pin_snapshot(&self, inner: &Inner) -> Snapshot {
        Snapshot {
            mem: Arc::clone(&inner.mem),
            imm: inner.imm.clone(),
            ceiling: inner.next_seqno - 1,
            version: Arc::clone(&inner.version),
            cache: self.cache.clone(),
            device: Arc::clone(&self.device),
            stats: Arc::clone(&self.obs.stats),
            kv_separation: self.cfg.kv_separation.is_some(),
        }
    }
}
