//! Opening an engine: manifest selection, WAL replay, and the cleanup of
//! whatever a crash stranded on the device.

use std::ops::Bound;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use lsm_cache::{HeatMap, ShardedCache};
use lsm_obs::EventKind;
use lsm_storage::{
    DeviceProfile, FileId, IoCategory, MemDevice, StorageDevice, StorageError, StorageResult,
};

use super::{Db, DbCore, Inner};
use crate::background::BgState;
use crate::config::{BackgroundMode, LsmConfig};
use crate::frame;
use crate::kv_sep::{self, LogFile, ValueLog};
use crate::manifest::{find_records, ManifestState, MANIFEST_MAGIC};
use crate::memtable::Memtable;
use crate::obs::EngineMetrics;
use crate::sstable::Table;
use crate::version::{RunTable, SortedRun, Version};
use crate::wal::{self, Wal};

impl Db {
    /// Whether two handles refer to the same engine instance.
    pub fn same_engine(&self, other: &Db) -> bool {
        Arc::ptr_eq(&self.core, &other.core)
    }

    /// Opens (or recovers) an engine on `device`. The device's block size
    /// must match `cfg.block_size`.
    pub fn open(device: Arc<dyn StorageDevice>, cfg: LsmConfig) -> StorageResult<Db> {
        cfg.validate().map_err(StorageError::Corruption)?;
        if device.block_size() != cfg.block_size {
            return Err(StorageError::Corruption(format!(
                "device block size {} != configured {}",
                device.block_size(),
                cfg.block_size
            )));
        }
        let cache = (cfg.cache_bytes > 0)
            .then(|| Arc::new(ShardedCache::new(cfg.cache_policy, cfg.cache_bytes, 8)));
        // Inline mode times operations on the *simulated* device clock so
        // metrics are reproducible; Threaded mode uses wall time.
        let obs = match cfg.background {
            BackgroundMode::Inline => EngineMetrics::simulated(
                device.latency().clock().clone(),
                cfg.event_ring_capacity,
            ),
            BackgroundMode::Threaded => EngineMetrics::wall(cfg.event_ring_capacity),
        };
        let mut inner = Inner {
            mem: Arc::new(RwLock::new(Memtable::new())),
            imm: None,
            imm_wal: None,
            version: Arc::new(Version::new()),
            wal: None,
            vlog: None,
            next_seqno: 1,
            applied_seq: 0,
            manifest: None,
            rr_cursors: vec![0; 32],
            txn_floors: std::collections::BTreeMap::new(),
            txn_recent: std::collections::HashMap::new(),
        };
        // Recovery: try every manifest on the device, newest first. A crash
        // mid-rewrite can leave the newest manifest referencing files that
        // never made it to disk; an older manifest (plus its WALs) is then
        // the consistent state to restart from. Starting empty when
        // manifests exist but none is usable would silently drop data, so
        // that case is a typed error instead — and a manifest that fails
        // its checksum is such a candidate, not an absent one.
        let candidates = find_records(&device, MANIFEST_MAGIC, ManifestState::from_bytes)?;
        let had_candidates = !candidates.is_empty();
        let mut recovered_ok = !had_candidates;
        let mut old_wals: Vec<FileId> = Vec::new();
        let mut last_reject: Option<StorageError> = None;
        for (mid, state) in candidates {
            let recovered = state.and_then(|state| {
                let r = DbCore::recover_from_manifest(&device, &cfg, &state, &obs)?;
                Ok((state, r))
            });
            match recovered {
                Ok((state, (version, mem, next_seqno))) => {
                    obs.event(EventKind::RecoveryStep {
                        step: "manifest_loaded",
                        detail: format!("manifest {} levels {}", mid.0, state.levels.len()),
                    });
                    inner.manifest = Some(mid);
                    inner.next_seqno = next_seqno;
                    inner.applied_seq = state.applied_seq;
                    inner.version = Arc::new(version);
                    inner.mem = Arc::new(RwLock::new(mem));
                    old_wals.extend(
                        [state.wal_prev, state.wal]
                            .into_iter()
                            .filter(|&w| w != 0)
                            .map(FileId),
                    );
                    recovered_ok = true;
                    break;
                }
                Err(
                    e @ (StorageError::Corruption(_)
                    | StorageError::UnknownFile(_)
                    | StorageError::OutOfBounds { .. }),
                ) => {
                    obs.event(EventKind::RecoveryStep {
                        step: "manifest_rejected",
                        detail: format!("manifest {}: {e}", mid.0),
                    });
                    device.stats().record_corruption();
                    last_reject = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        if !recovered_ok {
            let detail = last_reject
                .map(|e| e.to_string())
                .unwrap_or_else(|| "unknown".into());
            return Err(StorageError::Corruption(format!(
                "recovery failed: no usable manifest (last candidate rejected: {detail})"
            )));
        }
        if cfg.wal {
            let mut new_wal = Wal::create(Arc::clone(&device))?;
            // re-log the replayed records so they stay durable
            for e in inner.mem.read().range(Bound::Unbounded, Bound::Unbounded) {
                new_wal.append(e.seqno, e.kind, e.key, e.value)?;
            }
            new_wal.sync()?;
            inner.wal = Some(new_wal);
        }
        if cfg.kv_separation.is_some() {
            // the recovered logs retire: GC empties them into a fresh one
            let vlog = ValueLog::create(Arc::clone(&device))?;
            Arc::make_mut(&mut inner.version).vlogs.push(LogFile::open(Arc::clone(&device), vlog.id())?);
            inner.vlog = Some(vlog);
        }
        // Inline starts no workers: the callers drain the queue
        let workers = match cfg.background {
            BackgroundMode::Inline => 0,
            BackgroundMode::Threaded => cfg.background_workers,
        };
        let db = Db {
            core: Arc::new(DbCore {
                device,
                live_cfg: RwLock::new(Arc::new(cfg.clone())),
                cfg,
                cache,
                heat: Mutex::new(HeatMap::new(1024, 100_000)),
                inner: RwLock::new(inner),
                bg: Arc::new(BgState::new(workers)),
                workers: std::sync::Mutex::new(Vec::new()),
                l0_runs: AtomicUsize::new(0),
                compaction_lock: Mutex::new(()),
                user_handles: AtomicUsize::new(1),
                gc_lock: Mutex::new(()),
                obs,
            }),
        };
        {
            let mut inner = db.inner.write();
            let l0 = DbCore::count_l0_runs(&inner.version);
            db.l0_runs.store(l0, Ordering::Release);
            db.persist_manifest(&mut inner)?;
        }
        // The replayed WALs are retired only now that their records are
        // covered by the new WAL and the manifest referencing it is
        // durable; a crash anywhere above replays from the old WALs again
        // instead of losing the records.
        for w in old_wals {
            let _ = db.device.delete(w);
        }
        // A crash during a (possibly parallel) compaction can strand fully
        // written output tables that no manifest ever came to reference,
        // and a crash after a manifest retired a WAL can keep that WAL.
        // Now that the recovered state is durable, those orphans are dead
        // weight — delete them.
        db.cleanup_orphans();
        for i in 0..workers {
            let bg = Arc::clone(&db.bg);
            let weak = Arc::downgrade(&db.core);
            let h = std::thread::Builder::new()
                .name(format!("lsm-bg-{i}"))
                .spawn(move || crate::background::worker_loop(bg, weak))
                .map_err(|e| {
                    StorageError::Corruption(format!("failed to spawn background worker: {e}"))
                })?;
            db.workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(h);
        }
        Ok(db)
    }

    /// Opens on a fresh in-memory device with a free latency profile — the
    /// default substrate for tests and experiments.
    pub fn open_in_memory(cfg: LsmConfig) -> StorageResult<Db> {
        Db::open_simulated(cfg, DeviceProfile::free())
    }

    /// Opens on a fresh in-memory device with a latency profile, so
    /// experiments can report simulated time.
    pub fn open_simulated(cfg: LsmConfig, profile: DeviceProfile) -> StorageResult<Db> {
        let device: Arc<dyn StorageDevice> =
            Arc::new(MemDevice::new(cfg.block_size, profile));
        Db::open(device, cfg)
    }
}

impl DbCore {
    /// Attempts a full recovery from one manifest: reopen every table and
    /// value log it references and replay its WALs into a fresh memtable.
    /// Any missing or corrupt referenced file fails the whole attempt with
    /// a typed error, so [`Db::open`] can fall back to an older manifest.
    fn recover_from_manifest(
        device: &Arc<dyn StorageDevice>,
        cfg: &LsmConfig,
        state: &ManifestState,
        obs: &EngineMetrics,
    ) -> StorageResult<(Version, Memtable, u64)> {
        let mut version = Version::new();
        version.ensure_levels(state.levels.len());
        for (i, level) in state.levels.iter().enumerate() {
            for run_ids in level {
                let mut tables = Vec::with_capacity(run_ids.len());
                for &id in run_ids {
                    let file = lsm_storage::ImmutableFile::open(Arc::clone(device), FileId(id))?;
                    tables.push(RunTable {
                        table: Table::open(file, cfg.index)?,
                        floor: state.floor_of(id).map(Into::into),
                    });
                }
                version.levels[i].runs.push(SortedRun::from_run_tables(tables));
            }
        }
        for &id in state.retiring.iter().chain([&state.vlog]).filter(|&&id| id != 0) {
            version.vlogs.push(LogFile::open(Arc::clone(device), FileId(id))?);
        }
        let mut mem = Memtable::new();
        let mut next_seqno = state.next_seqno.max(1);
        // Replay the frozen memtable's WAL first: its records are strictly
        // older than the active WAL's, so later records overwrite them.
        for wal_id in [state.wal_prev, state.wal] {
            if wal_id == 0 {
                continue;
            }
            match wal::recover(Arc::clone(device), FileId(wal_id)) {
                Ok(records) => {
                    obs.event(EventKind::RecoveryStep {
                        step: "wal_replayed",
                        detail: format!("wal {} records {}", wal_id, records.len()),
                    });
                    for r in records {
                        next_seqno = next_seqno.max(r.seqno + 1);
                        mem.insert(&r.key, r.seqno, r.kind, &r.value);
                    }
                }
                // A missing WAL is consistent: rotation deletes the old WAL
                // only after the superseding manifest is durable, so if this
                // manifest's WAL is gone its records are already in a table
                // listed by a newer manifest.
                Err(StorageError::UnknownFile(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok((version, mem, next_seqno))
    }

    /// Deletes what a crash stranded: files referenced by nothing the
    /// engine knows that carry a valid table footer — the outputs of a
    /// flush or compaction (serial or sharded) that crashed before its
    /// manifest rewrite — or hold log records: a WAL or value log the crash
    /// kept from being deleted after the manifest dropping it landed, or
    /// one whose manifest was rejected. Every record recovery replayed has
    /// been re-logged by now, into logs the manifest names. Manifests carry
    /// neither and are never touched; a torn table (footer unwritten) is
    /// left behind as inert garbage rather than misclassified.
    fn cleanup_orphans(&self) {
        let referenced: std::collections::HashSet<u64> = {
            let inner = self.inner.read();
            let mut r: std::collections::HashSet<u64> =
                inner.version.all_table_ids().into_iter().collect();
            if let Some(w) = &inner.wal {
                r.insert(w.id().0);
            }
            if let Some(w) = &inner.imm_wal {
                r.insert(w.id().0);
            }
            r.extend(inner.version.vlogs.iter().map(|l| l.id().0));
            if let Some(m) = inner.manifest {
                r.insert(m.0);
            }
            r
        };
        let mut files = self.device.live_files();
        files.sort_by_key(|f| f.0);
        let mut deleted = 0u64;
        for f in files {
            if referenced.contains(&f.0) {
                continue;
            }
            let Ok(n) = self.device.len_blocks(f) else { continue };
            if n == 0 {
                continue;
            }
            let Ok(block) = self.device.read(f, n - 1, 1, IoCategory::Misc) else {
                continue;
            };
            // bounds sanity so a lucky bit pattern in a non-table file
            // (e.g. raw value bytes) cannot pass as a footer
            let table = crate::sstable::meta::decode_footer(&block)
                .is_some_and(|(meta_start, meta_len)| meta_start < n && meta_len > 0);
            let log_markers = [wal::RECORD_MARKER, wal::ATOMIC_MARKER, kv_sep::RECORD_MARKER];
            if !table && !frame::holds_frames(&self.device, f, &log_markers) {
                continue;
            }
            if self.device.delete(f).is_ok() {
                deleted += 1;
            }
        }
        if deleted > 0 {
            self.obs.event(EventKind::RecoveryStep {
                step: "orphans_deleted",
                detail: format!("{deleted} unreferenced table or log file(s)"),
            });
        }
    }
}
