//! Introspection and operator surface: the boot and live configuration
//! and online retuning, counters and metrics, level summaries,
//! split-key suggestion, and value-log GC.

use std::ops::Bound;
use std::sync::Arc;

use lsm_obs::{Event, EventKind, MetricsSnapshot};
use lsm_storage::{IoStatsSnapshot, StorageDevice, StorageResult};

use super::write::CommitKind;
use super::DbCore;
use crate::config::LsmConfig;
use crate::entry::ValueKind;
use crate::kv_sep::{LogFile, ValueLog};
use crate::obs::EngineMetrics;
use crate::stats::DbStats;

impl DbCore {
    /// The engine configuration as booted. Maintenance decisions run
    /// under [`DbCore::effective_config`], which a retune replaces.
    pub fn config(&self) -> &LsmConfig {
        &self.cfg
    }

    /// The configuration in force — what compaction planning, filter
    /// sizing, and backpressure currently run under: the boot config
    /// until [`DbCore::set_config`] installs another.
    pub fn effective_config(&self) -> Arc<LsmConfig> {
        Arc::clone(&self.live_cfg.read())
    }

    /// The L0 `(slowdown, stall)` lines in force, read without cloning
    /// the config: write backpressure and the server's shed check pay
    /// this once per write.
    pub fn l0_thresholds(&self) -> (usize, usize) {
        let cfg = self.live_cfg.read();
        (cfg.l0_slowdown_runs, cfg.l0_stall_runs)
    }

    /// Installs `cfg` as the configuration in force, whole. Each change
    /// takes effect at the next decision point that reads its knob:
    /// filter budgets at the next table build, layout and size ratio at
    /// the next compaction pick, L0 thresholds at the next write.
    /// Existing data is never rewritten eagerly, and nothing is made
    /// durable: a reopen boots on the config passed to `open`.
    ///
    /// Rejected, leaving the config in force untouched: a `cfg` that
    /// fails [`LsmConfig::validate`], more than 64 filter bits per key,
    /// or a change to any field outside the six retunable knobs
    /// (`bits_per_key`, `filter_allocation`, `layout`, `size_ratio` and
    /// the two L0 lines).
    pub fn set_config(&self, cfg: LsmConfig) -> Result<(), String> {
        // the online cap only; `validate()` rejects NaN and negatives
        if cfg.bits_per_key > 64.0 {
            let b = cfg.bits_per_key;
            return Err(format!("bits_per_key {b} above the online cap of 64"));
        }
        cfg.validate()?;
        if self.cfg.with_knobs_of(&cfg) != cfg {
            return Err(
                "only the filter, layout, size-ratio and L0-threshold knobs can change online"
                    .into(),
            );
        }
        *self.live_cfg.write() = Arc::new(cfg);
        // Let the picker notice a newly-violated invariant: workers take
        // the job now; with none it runs behind the next flush.
        self.bg.schedule_compact();
        Ok(())
    }

    /// Appends an externally-generated event (e.g. a tuner decision) to
    /// the engine's trace ring, stamped with the engine clock.
    pub fn record_event(&self, kind: EventKind) {
        self.obs.event(kind);
    }

    /// The storage device (for I/O statistics and simulated time).
    pub fn device(&self) -> &Arc<dyn StorageDevice> {
        &self.device
    }

    /// Engine counters.
    pub fn stats(&self) -> &DbStats {
        &self.obs.stats
    }

    /// Device I/O counters.
    pub fn io_stats(&self) -> IoStatsSnapshot {
        self.device.stats().snapshot()
    }

    /// Block-cache counters, when caching is enabled.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        self.cache.as_ref().map(|c| (c.stats().hits(), c.stats().misses()))
    }

    /// Point-in-time snapshot of every engine metric: the engine's own
    /// series (`db.*` counters, `latency.*` histograms for
    /// get/put/scan/flush/compaction, `engine.*` gauges, `txn.*` and
    /// `bg.*` counters) merged with its device's `io.*` and its block
    /// cache's `cache.*` series, each read in place from the registry of
    /// the owner that counts it. Byte-identical across repeated runs of
    /// the same workload under [`crate::BackgroundMode::Inline`] (the
    /// histograms are driven by the simulated device clock).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.obs.snapshot();
        snap.merge(&self.device.stats().metrics());
        if let Some(cache) = &self.cache {
            snap.merge(&cache.stats().metrics());
        }
        snap
    }

    /// Drains the structured event trace, oldest first. `seq` is globally
    /// monotone, so a consumer can detect ring overflow as a gap (see
    /// also [`DbCore::events_dropped`]).
    pub fn drain_events(&self) -> Vec<Event> {
        self.obs.drain_events()
    }

    /// Events evicted from the trace ring because it was full.
    pub fn events_dropped(&self) -> u64 {
        self.obs.dropped_events()
    }

    /// Engine observability state (hook for the background workers).
    pub(crate) fn obs(&self) -> &EngineMetrics {
        &self.obs
    }

    /// Per-level `(runs, bytes, entries)` summary.
    pub fn level_summary(&self) -> Vec<(usize, u64, u64)> {
        let inner = self.inner.read();
        inner
            .version
            .levels
            .iter()
            .map(|l| {
                (
                    l.runs.iter().filter(|r| !r.is_empty()).count(),
                    l.bytes(),
                    l.num_entries(),
                )
            })
            .collect()
    }

    /// Total sorted runs a lookup may probe.
    pub fn total_runs(&self) -> usize {
        self.inner.read().version.total_runs()
    }

    /// Total in-memory filter bits across live tables.
    pub fn total_filter_bits(&self) -> usize {
        let inner = self.inner.read();
        inner.version.tables().map(|t| t.filter_size_bits()).sum()
    }

    /// Total in-memory block-index bits across live tables.
    pub fn total_index_bits(&self) -> usize {
        let inner = self.inner.read();
        inner.version.tables().map(|t| t.index_size_bits()).sum()
    }

    /// Suggests a key splitting the data in `(lo, hi)` into two roughly
    /// equal halves by entry count, without reading any data block: the
    /// candidates are table fence pointers (each weighted by its table's
    /// entries-per-block, since one fence stands for one block) plus
    /// memtable keys (weight 1), and the pick is the weighted median.
    /// `None` when the range holds no candidate strictly inside it — an
    /// empty or single-key range cannot be split.
    pub fn suggest_split_key(&self, lo: &[u8], hi: Option<&[u8]>) -> Option<Vec<u8>> {
        let inner = self.inner.read();
        let in_range = |k: &[u8]| k > lo && hi.is_none_or(|h| k < h);
        let mut keys: Vec<(Vec<u8>, u64)> = Vec::new();
        for t in inner.version.tables() {
            let m = t.meta();
            let w = (m.num_entries / m.fences.len().max(1) as u64).max(1);
            for f in &m.fences {
                if in_range(f) {
                    keys.push((f.clone(), w));
                }
            }
        }
        let hi_bound = match hi {
            Some(h) => Bound::Excluded(h),
            None => Bound::Unbounded,
        };
        for mem in std::iter::once(&inner.mem).chain(inner.imm.as_ref()) {
            let mem = mem.read();
            keys.extend(mem.range(Bound::Excluded(lo), hi_bound).map(|e| (e.key.to_vec(), 1)));
        }
        drop(inner);
        if keys.is_empty() {
            return None;
        }
        keys.sort();
        // collapse duplicates (a key in several sources), summing weights
        let mut merged: Vec<(Vec<u8>, u64)> = Vec::with_capacity(keys.len());
        for (k, w) in keys {
            match merged.last_mut() {
                Some(last) if last.0 == k => last.1 += w,
                _ => merged.push((k, w)),
            }
        }
        let total: u64 = merged.iter().map(|(_, w)| w).sum();
        let mut cum = 0u64;
        for (k, w) in &merged {
            cum += w;
            if cum * 2 >= total {
                return Some(k.clone());
            }
        }
        merged.pop().map(|(k, _)| k)
    }

    // ------------------------------------------------------------------
    // Value-log GC (key-value separation extension)
    // ------------------------------------------------------------------

    /// Value-log GC (WiscKey's; tutorial Module I.2): rotate, scan every
    /// retiring log, relocate each record its key still stores the
    /// pointer of (a newer write wins), make the relocations durable,
    /// then install a version without the retiring logs and mark them
    /// obsolete. Returns `(relocated, dropped)`. Runs on its caller, one
    /// GC at a time; DESIGN.md ("Value-log lifetime") has each step.
    pub fn gc_value_log(&self) -> StorageResult<(u64, u64)> {
        if self.cfg.kv_separation.is_none() {
            return Ok((0, 0));
        }
        let _gc = self.gc_lock.lock();
        let retiring = self.rotate_value_log()?;
        let (mut relocated, mut dropped) = (0u64, 0u64);
        for log in &retiring {
            log.scan(|key, value, ptr| {
                // a stale pointer stays stale: every write since the
                // rotation stores its values in the fresh log
                let (live, seqno) = self.stores_pointer(key, ptr)?;
                if !live {
                    dropped += 1;
                    return Ok(());
                }
                self.admit_write()?;
                let mut inner = self.inner.write();
                if inner.next_seqno != seqno && !self.stores_pointer_in(&inner, key, ptr)? {
                    dropped += 1;
                    return Ok(());
                }
                let record = &mut [(0, ValueKind::Put, key.to_vec(), value.to_vec())];
                let full = self.commit(&mut inner, record, CommitKind::Relocation, None)?;
                self.after_write(inner, full)?;
                relocated += 1;
                Ok(())
            })?;
        }
        if self.cfg.wal { self.sync() } else { self.flush() }?;
        let mut inner = self.inner.write();
        let previous = Arc::clone(&inner.version);
        let mut version = (*previous).clone();
        version.vlogs.retain(|l| !retiring.iter().any(|r| Arc::ptr_eq(l, r)));
        self.install_version(&mut inner, version);
        if let Err(e) = self.persist_manifest(&mut inner) {
            // the logs stay retiring, for the next GC to collect
            self.install_version(&mut inner, (*previous).clone());
            return Err(e);
        }
        for log in &retiring {
            log.mark_obsolete(&self.obs.superseded_bytes);
        }
        Ok((relocated, dropped))
    }

    /// GC's first step: syncs the active log and retires it behind a
    /// fresh one; returns every retiring log. The manifest naming both
    /// lands before any pointer goes into the fresh log, or the swap is
    /// undone and the fresh file goes with its handle.
    fn rotate_value_log(&self) -> StorageResult<Vec<Arc<LogFile>>> {
        let mut inner = self.inner.write();
        let inner = &mut *inner;
        inner.vlog.as_mut().map_or(Ok(()), ValueLog::sync)?;
        let fresh = ValueLog::create(Arc::clone(&self.device))?;
        let handle = LogFile::open(Arc::clone(&self.device), fresh.id())?;
        let previous = Arc::clone(&inner.version);
        let mut version = (*previous).clone();
        version.vlogs.push(Arc::clone(&handle));
        let old = inner.vlog.replace(fresh);
        self.install_version(inner, version);
        if let Err(e) = self.persist_manifest(inner) {
            inner.vlog = old;
            self.install_version(inner, (*previous).clone());
            handle.mark_obsolete(&self.obs.superseded_bytes);
            return Err(e);
        }
        Ok(previous.vlogs.clone())
    }
}
