//! Flushing a memtable to an L0 table: one routine for the active and
//! the frozen memtable, under the caller's guard or the job's own.

use std::ops::Bound;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::RwLock;

use lsm_filters::monkey_allocation;
use lsm_obs::EventKind;
use lsm_storage::StorageResult;

use super::{DbCore, Inner, SharedMemtable};
use crate::config::FilterAllocation;
use crate::memtable::Memtable;
use crate::sstable::{Table, TableBuilder};
use crate::version::{SortedRun, Version};
use crate::wal::Wal;

/// Which memtable a flush persists.
pub(super) enum FlushSource {
    /// The active memtable, streamed out and then emptied: cleared in
    /// place when the engine holds its only handle, else replaced by a
    /// fresh buffer, so a snapshot or scan sharing it keeps reading it.
    /// Needs the caller's write guard for the whole flush: between the
    /// emptying and the install, the engine's readers find its entries
    /// nowhere.
    Active,
    /// The frozen memtable in the immutable slot, which stays readable
    /// until the install swaps it for its table.
    Frozen,
}

/// The buffer a flush streams into the table builder (it is never
/// copied): the frozen memtable through its shared handle — the
/// background job holds no engine lock while it builds — or the active
/// one through the caller's guard.
fn flush_buffer<'a>(frozen: &'a Option<SharedMemtable>, held: &'a Option<&mut Inner>) -> &'a SharedMemtable {
    match (frozen, held) {
        (Some(imm), _) => imm,
        (None, Some(inner)) => &inner.mem,
        (None, None) => unreachable!("the active memtable flushes under the caller's guard"),
    }
}

impl DbCore {
    /// The one flush routine: FlushStart → build an L0 table from the
    /// memtable's entries → splice it in as the youngest L0 run →
    /// FlushEnd → rotate (active) or retire (frozen) the covering WAL →
    /// manifest → delete the old WAL.
    ///
    /// With `held` the whole flush runs under the caller's write guard
    /// (the `Inline` flush, and explicit `flush`/`major_compact`); with
    /// `None` — the background job, `Frozen` only — the table is built
    /// *outside* the lock from the shared `Arc`, and the install
    /// re-checks that the same memtable is still frozen (an explicit
    /// foreground flush may have won the race).
    pub(super) fn flush_memtable(
        &self,
        source: FlushSource,
        mut held: Option<&mut Inner>,
    ) -> StorageResult<()> {
        debug_assert!(held.is_some() || matches!(source, FlushSource::Frozen));
        let claimed = self.with_inner(&mut held, |inner| {
            let version = Arc::clone(&inner.version);
            match source {
                FlushSource::Active if inner.mem.read().is_empty() => None,
                FlushSource::Active => Some((None, version)),
                FlushSource::Frozen => Some((Some(inner.imm.clone()?), version)),
            }
        });
        let Some((frozen, version)) = claimed else {
            return Ok(());
        };
        let entries = flush_buffer(&frozen, &held).read().len() as u64;
        let flush_id = self.obs.next_flush_id();
        let flush_start = self.obs.now_ns();
        self.obs.event(EventKind::FlushStart {
            id: flush_id,
            entries,
        });
        if frozen.is_none() {
            // Separated values referenced by these entries must be durable
            // before the table pointing at them is: once the flush lands, the
            // WAL that could replay the values is deleted. (A frozen
            // memtable's logs were synced when it was frozen.)
            self.with_inner(&mut held, |inner| match &mut inner.vlog {
                Some(vlog) => vlog.sync(),
                None => Ok(()),
            })?;
        }
        let table = if entries == 0 {
            None
        } else {
            Some(self.build_l0_table(&version, &flush_buffer(&frozen, &held).read())?)
        };
        if frozen.is_none() {
            // the entries are readable again once the table is installed,
            // below, under the same guard
            self.with_inner(&mut held, |inner| match Arc::get_mut(&mut inner.mem) {
                Some(mem) => mem.get_mut().clear(),
                None => inner.mem = Arc::new(RwLock::new(Memtable::new())),
            });
            self.obs.memtable_bytes_gauge.set(0);
        }
        let old_wal = self.with_inner(&mut held, |inner| -> StorageResult<Option<Wal>> {
            let still_ours = frozen
                .as_ref()
                .is_none_or(|imm| matches!(&inner.imm, Some(cur) if Arc::ptr_eq(cur, imm)));
            let mut output_bytes = 0;
            match table {
                // The foreground flush won the race and installed this
                // memtable itself; this job produced nothing.
                Some(table) if !still_ours => table.mark_obsolete(&self.obs.superseded_bytes),
                Some(table) => {
                    output_bytes = table.data_bytes();
                    let mut new_version = (*inner.version).clone();
                    new_version.ensure_levels(1);
                    new_version.levels[0].runs.insert(0, SortedRun::single(table));
                    self.install_version(inner, new_version);
                    self.obs.stats.flushes.inc();
                }
                None => {}
            }
            self.obs.event(EventKind::FlushEnd {
                id: flush_id,
                entries,
                output_bytes,
                l0_runs: self.l0_runs.load(Ordering::Acquire) as u64,
            });
            if !still_ours {
                return Ok(None);
            }
            // Rotate the WAL. Ordering matters for crash safety: the old WAL
            // may only be deleted after the manifest naming the new table (and
            // the new WAL) is durable. Deleting first opens a window where a
            // crash loses the flushed entries — the old manifest survives but
            // the WAL holding its unflushed records is gone.
            let old_wal = if frozen.is_some() {
                inner.imm = None;
                inner.imm_wal.take()
            } else {
                self.rotate_wal(inner)?
            };
            self.persist_manifest(inner)?;
            Ok(old_wal)
        })?;
        if let Some(old) = old_wal {
            let old_file = old.seal()?;
            old_file.delete()?;
        }
        self.obs
            .flush_ns
            .record(self.obs.now_ns().saturating_sub(flush_start));
        match (frozen, held) {
            // stalled writers stop waiting for the queued background job
            (Some(_), Some(_)) => self.bg.flush_drained(),
            (Some(_), None) => self.bg.schedule_compact(),
            (None, _) => {}
        }
        Ok(())
    }

    /// Background flush job: persist the frozen memtable as an L0 table.
    pub(crate) fn run_flush(&self) -> StorageResult<()> {
        self.flush_memtable(FlushSource::Frozen, None)
    }

    /// Flushes both memtables under the held guard. The older frozen
    /// memtable goes *before* the active one, which keeps L0 runs
    /// youngest-first.
    pub(super) fn flush_both_locked(&self, inner: &mut Inner) -> StorageResult<()> {
        self.flush_memtable(FlushSource::Frozen, Some(inner))?;
        self.flush_memtable(FlushSource::Active, Some(inner))
    }

    /// Forces a memtable flush (and any resulting compaction cascade).
    pub fn flush(&self) -> StorageResult<()> {
        self.check_bg_error()?;
        if self.threaded() {
            self.flush_both_locked(&mut self.inner.write())?;
            return self.compact_to_quiescence(|| false);
        }
        let mut inner = self.inner.write();
        self.flush_both_locked(&mut inner)?;
        self.maybe_compact_locked(&mut inner)
    }

    /// Flushes the active *and* immutable memtables and waits until all
    /// background maintenance is quiescent. On return every acknowledged
    /// write sits in sorted runs (no memtable or queued job holds data),
    /// and any latched background error has been surfaced — the
    /// precondition a serving layer needs before a graceful shutdown
    /// hands the shard's device to a future `Db::open`.
    pub fn flush_all(&self) -> StorageResult<()> {
        self.flush()?;
        self.wait_background_idle();
        self.check_bg_error()
    }

    pub(super) fn bits_for_level(&self, version: &Version, level: usize) -> f64 {
        // Read the config in force: a retuned filter budget or allocation
        // strategy applies to the next table build, here.
        let (bits_per_key, allocation, size_ratio) = {
            let cfg = self.live_cfg.read();
            (cfg.bits_per_key, cfg.filter_allocation, cfg.size_ratio)
        };
        match allocation {
            FilterAllocation::Uniform => bits_per_key,
            FilterAllocation::Monkey => {
                let mut counts = version.entries_per_level();
                if counts.len() <= level {
                    counts.resize(level + 1, 0);
                }
                let total: u64 = counts.iter().sum();
                if total == 0 {
                    return bits_per_key;
                }
                // project sizes for currently-empty levels from the tree's
                // geometry, so a fresh L0 table still receives the high
                // bits/key Monkey assigns small levels
                let last = counts.iter().rposition(|&c| c > 0).unwrap_or(level);
                let bottom = counts[last].max(1);
                let t = size_ratio.max(2) as u64;
                for (i, c) in counts.iter_mut().enumerate() {
                    if *c == 0 {
                        let depth = last.abs_diff(i) as u32;
                        *c = (bottom / t.saturating_pow(depth)).max(1);
                    }
                }
                let budget = bits_per_key * total as f64;
                let alloc = monkey_allocation(&counts, budget);
                alloc
                    .bits_per_key
                    .get(level)
                    .copied()
                    .unwrap_or(bits_per_key)
            }
        }
    }

    /// Builds one L0 table from a memtable's entries, streamed in key
    /// order. `version` only informs the Monkey filter allocation.
    fn build_l0_table(&self, version: &Version, mem: &Memtable) -> StorageResult<Arc<Table>> {
        let bits = self.bits_for_level(version, 0);
        let mut builder = TableBuilder::new(Arc::clone(&self.device), &self.cfg, bits)?;
        for e in mem.range(Bound::Unbounded, Bound::Unbounded) {
            builder.add(e.key, e.seqno, e.kind, e.value)?;
        }
        let (file, _meta) = builder.finish()?;
        Table::open(file, self.cfg.index)
    }
}
