//! Flushing the frozen write buffer to an L0 table: one routine, run by
//! whichever thread pops the flush job (a worker, or under `Inline` the
//! writer that froze the buffer, after it dropped the write guard).

use std::ops::Bound;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use lsm_filters::monkey_allocation;
use lsm_obs::EventKind;
use lsm_storage::StorageResult;

use super::DbCore;
use crate::config::FilterAllocation;
use crate::memtable::Memtable;
use crate::sstable::{Table, TableBuilder};
use crate::version::{SortedRun, Version};

impl DbCore {
    /// The flush job: FlushStart → sync the value log → build an L0 table
    /// from the frozen buffer, outside the lock (the buffer stays readable
    /// in the frozen slot meanwhile) → install it as the youngest L0 run
    /// and empty the slot → FlushEnd → retire the frozen buffer's WAL →
    /// manifest → delete that WAL → queue a compaction.
    ///
    /// The frozen buffer's WAL is `imm_wal` when a commit has rotated the
    /// log since the freeze. Otherwise the buffer still shares the active
    /// WAL, which then holds nothing else (a commit would have rotated),
    /// and the install rotates it: a new WAL for the empty active buffer,
    /// the manifest naming it and the table, then the old WAL goes — the
    /// order a single-threaded `Inline` run always takes, since its
    /// writer drains the flush before its next commit.
    pub(crate) fn run_flush(&self) -> StorageResult<()> {
        let (frozen, version) = {
            let inner = self.inner.read();
            let Some(frozen) = inner.imm.clone() else {
                return Ok(());
            };
            (frozen, Arc::clone(&inner.version))
        };
        let entries = frozen.read().len() as u64;
        let flush_id = self.obs.next_flush_id();
        let flush_start = self.obs.now_ns();
        self.obs.event(EventKind::FlushStart {
            id: flush_id,
            entries,
        });
        // Separated values referenced by these entries must be durable
        // before the table pointing at them is: once the flush lands, the
        // WAL that could replay the values is deleted.
        if let Some(vlog) = &mut self.inner.write().vlog {
            vlog.sync()?;
        }
        let table = self.build_l0_table(&version, &frozen.read())?;
        let old_wal = {
            let mut inner = self.inner.write();
            let inner = &mut *inner;
            let output_bytes = table.data_bytes();
            let mut new_version = (*inner.version).clone();
            new_version.ensure_levels(1);
            new_version.levels[0].runs.insert(0, SortedRun::single(table));
            self.install_version(inner, new_version);
            inner.imm = None;
            self.obs.stats.flushes.inc();
            self.obs.event(EventKind::FlushEnd {
                id: flush_id,
                entries,
                output_bytes,
                l0_runs: self.l0_runs.load(Ordering::Acquire) as u64,
            });
            // The old WAL may only be deleted after the manifest naming
            // the new table (and the new WAL) is durable. Deleting first
            // opens a window where a crash loses the flushed entries —
            // the old manifest survives but the WAL holding its unflushed
            // records is gone.
            let rotated_here = inner.imm_wal.is_none();
            let old_wal = match inner.imm_wal.take() {
                None => self.rotate_wal(inner)?,
                rotated => rotated,
            };
            if let Err(e) = self.persist_manifest(inner) {
                // The flushed records are in no durable table, and the old
                // WAL rotated here holds them unsynced: it stays the one a
                // sync makes durable, or an empty new WAL would ack them.
                if let (true, Some(old)) = (rotated_here, old_wal) {
                    if let Some(new) = inner.wal.replace(old) {
                        let _ = self.device.delete(new.id());
                    }
                }
                return Err(e);
            }
            old_wal
        };
        if let Some(old) = old_wal {
            old.seal()?.delete()?;
        }
        self.obs
            .flush_ns
            .record(self.obs.now_ns().saturating_sub(flush_start));
        self.bg.schedule_compact();
        Ok(())
    }

    /// Forces the active write buffer into a table and runs the
    /// compaction cascade: freezes the buffer, waits for its flush (and
    /// any flush pending before it) — running it when no worker will —
    /// then compacts to quiescence on the calling thread.
    pub fn flush(&self) -> StorageResult<()> {
        self.check_bg_error()?;
        let ticket = self.freeze(self.inner.write(), false)?;
        self.bg.wait_until(self, |q| q.flushed(ticket));
        self.check_bg_error()?;
        self.compact_to_quiescence(|| false)
    }

    /// Flushes the active *and* frozen buffers and waits until all
    /// maintenance is quiescent. On return every acknowledged write sits
    /// in sorted runs (no buffer or queued job holds data), and any
    /// latched maintenance error has been surfaced — the precondition a
    /// serving layer needs before a graceful shutdown hands the shard's
    /// device to a future `Db::open`.
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

    /// Builds one L0 table from a buffer's entries, streamed in key
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
