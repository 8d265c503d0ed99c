//! Crash-recovery integration tests.
//!
//! These tests drive the engine through a [`FaultDevice`] that injects
//! deterministic, scripted faults — whole-device crashes, torn (partial)
//! block writes, bit flips on read, and transient retryable errors — and
//! check the durability contract end to end:
//!
//! * **No acknowledged write is ever lost.** A write is *acknowledged*
//!   once `put`/`delete` **and** the following `sync` both return `Ok`.
//!   After a crash at any I/O ordinal, reopening the database must
//!   surface every acknowledged write.
//! * **Unacknowledged writes are ambiguous, not corrupt.** A write whose
//!   op or sync failed may or may not survive (standard torn-tail
//!   semantics); either outcome is legal, but the reopened database must
//!   stay internally consistent (`scan` agrees with point `get`s).
//! * **Corrupted input never panics.** Bad checksums, dangling value-log
//!   pointers, and stale or half-written manifests surface as
//!   `StorageError::Corruption` (and bump the `corruption_detected`
//!   counter), never as a panic or a silently empty database.
//!
//! The crash protocol mirrors a real process death: the `Db` handle is
//! dropped *while the device is still dead*, so destructors (WAL sync,
//! obsolete-table garbage collection) fail harmlessly instead of mutating
//! the post-crash disk image. Only then is the device healed and the
//! database reopened.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use lsm_core::config::KvSeparation;
use lsm_core::manifest::{find_record, write_manifest, ManifestState, MANIFEST_MAGIC};
use lsm_core::{BackgroundMode, Db, LsmConfig};
use lsm_storage::{
    DeviceProfile, FaultDevice, FaultKind, FileId, IoCategory, IoStats, LatencyModel, MemDevice,
    RetryDevice, RetryPolicy, StorageDevice, StorageError, StorageResult, WritableFile,
};
use lsm_testkit::{
    check_db, erased, fault_device, no_dangling_pointers, no_orphan_tables, no_orphan_value_logs,
    no_orphan_wals, seed, sweep, synced, Shadow,
};

use proptest::prelude::*;

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

/// Number of operations in the scripted workload. Sized so the workload
/// crosses several flushes, at least one compaction, and multiple WAL
/// rotations under the small config below.
const SCRIPT_OPS: usize = 110;

/// Small-geometry config: 512-byte blocks and a 2 KiB write buffer force
/// frequent flushes so a crash sweep hits WAL appends, flush writes,
/// compaction writes, and manifest rewrites without a huge workload.
fn small_cfg() -> LsmConfig {
    LsmConfig {
        buffer_bytes: 2 << 10,
        // The sweep schedules faults at exact I/O ordinals, which only
        // line up when maintenance runs inline on the writer's stack.
        background: BackgroundMode::Inline,
        ..LsmConfig::small_for_tests()
    }
}

/// Same geometry with key-value separation on, so the sweep also crosses
/// value-log appends and pointer resolution.
fn kv_cfg() -> LsmConfig {
    LsmConfig {
        kv_separation: Some(KvSeparation { min_value_bytes: 48 }),
        ..small_cfg()
    }
}

/// Sweeps the scripted workload under `cfg`: a fault of every kind at
/// every I/O ordinal it performs (WAL appends, memtable flushes,
/// compaction reads/writes and manifest rewrites all included). Each
/// case tolerates typed errors, drops the handle while the device is dead
/// (process death: destructors run against the dead device), heals,
/// reopens and checks the shadow contract. Inline maintenance makes the
/// I/O sequence deterministic, so every scheduled fault must fire.
fn script_sweep(scenario: &str, cfg: LsmConfig) {
    let seed = seed(0xC0FF_EE00);
    let clean = || {
        let fault = fault_device(seed);
        let db = Db::open(erased(&fault), cfg.clone()).expect("clean open");
        let mut shadow = Shadow::default();
        shadow.script(0..SCRIPT_OPS, 0, |k, v| synced(&db, k, v));
        drop(db);
        assert!(shadow.maybe.is_empty(), "fault-free run left unacked ops");
        vec![fault.ops_performed()]
    };
    sweep(scenario, seed, cfg.background, &[("device", 101)], clean, |case| {
        let fault = case.armed(seed);
        let mut shadow = Shadow::default();
        // An `Err` means the fault fired inside open itself — a typed
        // error, never a panic, is the whole contract there.
        if let Ok(db) = Db::open(erased(&fault), cfg.clone()) {
            shadow.script(0..SCRIPT_OPS, 0, |k, v| synced(&db, k, v));
            drop(db);
        }
        assert!(
            fault.pending_faults().is_empty(),
            "{case} never fired (only {} I/Os ran); case is vacuous",
            fault.ops_performed(),
        );
        fault.heal();
        let db = Db::open(erased(&fault), cfg.clone())
            .unwrap_or_else(|e| panic!("reopen after {case} failed: {e}"));
        check_db(&db, &shadow, &case.to_string());
        true
    });
}

// ---------------------------------------------------------------------
// Fault sweeps: every kind at every I/O point
// ---------------------------------------------------------------------

/// The tentpole sweep: a crash, a torn append (recovery must treat the
/// torn tail as a clean end-of-log, not corruption) and a bit flip at
/// *every* I/O ordinal the workload performs, proving that no
/// acknowledged write is lost and recovery never panics.
#[test]
fn crash_at_every_io_point_loses_no_acked_write() {
    script_sweep("crash sweep (small)", small_cfg());
}

/// Same sweep with key-value separation enabled, so faults also land
/// between a value-log append and the WAL record that references it.
#[test]
fn crash_sweep_with_kv_separation() {
    script_sweep("crash sweep (kv)", kv_cfg());
}

/// Value-log GC at every I/O ordinal, under every fault kind, in the mode
/// `LSM_BACKGROUND` names: its rotation's manifest, its scan, each
/// relocation's check and commit, its barrier, its install and the
/// collected log's deletion, between ops of the shared script. Two GCs
/// run, the second collecting the first's log. After the fault the
/// reopened engine must read every key legally and resolve every one,
/// and no table, WAL or value log may outlive its manifest: a GC that
/// dropped a log before its relocations were durable fails here.
#[test]
fn crash_at_every_io_point_of_value_log_gc() {
    let seed = seed(0x6C06_6C00);
    let cfg = LsmConfig {
        buffer_bytes: 2 << 10,
        kv_separation: Some(KvSeparation { min_value_bytes: 48 }),
        // GC's liveness checks read their tables' blocks from the device
        cache_bytes: 0,
        ..LsmConfig::small_for_tests()
    };
    let run = |fault: &Arc<FaultDevice>, shadow: &mut Shadow| {
        let Ok(db) = Db::open(erased(fault), cfg.clone()) else { return };
        let write = |k: &[u8], v: Option<&[u8]>| synced(&db, k, v);
        shadow.script(0..40, 0, write);
        // a failed GC leaves its logs retiring: the workload goes on
        let _ = db.gc_value_log();
        shadow.script(40..70, 0, write);
        let _ = db.gc_value_log();
        db.wait_background_idle();
    };
    let clean = || {
        let (fault, mut shadow) = (fault_device(seed), Shadow::default());
        run(&fault, &mut shadow);
        assert!(shadow.maybe.is_empty(), "fault-free run left unacked ops");
        vec![fault.ops_performed()]
    };
    sweep("value-log GC sweep", seed, cfg.background, &[("device", 101)], clean, |case| {
        let (fault, mut shadow) = (case.armed(seed), Shadow::default());
        run(&fault, &mut shadow);
        let fired = fault.pending_faults().is_empty();
        fault.heal();
        let dev = erased(&fault);
        let context = format!("{case} (value-log GC)");
        let db = Db::open(Arc::clone(&dev), cfg.clone())
            .unwrap_or_else(|e| panic!("reopen after {case} failed: {e}"));
        check_db(&db, &shadow, &context);
        no_dangling_pointers(&db, &context);
        drop(db);
        no_orphan_tables(&dev, &context);
        no_orphan_wals(&dev, &context);
        no_orphan_value_logs(&dev, &context);
        fired
    });
}

// ---------------------------------------------------------------------
// Lazy WAL rotation
// ---------------------------------------------------------------------

#[derive(Default)]
struct ParkState {
    /// The thread whose flush parks.
    armed: Option<ThreadId>,
    parked: bool,
    released: bool,
    /// The armed thread stopped writing (its flush ran, or a write failed).
    done: bool,
}

/// A [`FaultDevice`] front that parks the armed thread's first table
/// write — its flush building the table — until released, so another
/// thread can commit while a frozen buffer awaits its flush. The parked
/// write reaches the fault device only once released, so every run sees
/// one I/O order and the sweep stays deterministic under `Inline`.
struct ParkFlush {
    inner: Arc<FaultDevice>,
    state: Mutex<ParkState>,
    cv: Condvar,
}

impl ParkFlush {
    fn new(inner: Arc<FaultDevice>) -> Arc<Self> {
        Arc::new(ParkFlush { inner, state: Mutex::default(), cv: Condvar::new() })
    }

    fn update(&self, f: impl FnOnce(&mut ParkState)) {
        f(&mut self.state.lock().unwrap());
        self.cv.notify_all();
    }

    /// Waits until the armed thread parked or stopped writing.
    fn wait_parked_or_done(&self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut state = self.state.lock().unwrap();
        while !state.parked && !state.done {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "the flushing writer neither parked nor finished");
            state = self.cv.wait_timeout(state, left).unwrap().0;
        }
    }
}

impl StorageDevice for ParkFlush {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
    fn latency(&self) -> &LatencyModel {
        self.inner.latency()
    }
    fn create(&self) -> StorageResult<FileId> {
        self.inner.create()
    }
    fn write(&self, file: FileId, at: u64, data: &[u8], cat: IoCategory) -> StorageResult<()> {
        let table = matches!(cat, IoCategory::Data | IoCategory::Index | IoCategory::Filter);
        let mut state = self.state.lock().unwrap();
        if table && !state.parked && state.armed == Some(std::thread::current().id()) {
            state.parked = true;
            self.cv.notify_all();
            while !state.released {
                state = self.cv.wait(state).unwrap();
            }
        }
        drop(state);
        self.inner.write(file, at, data, cat)
    }
    fn sync(&self, file: FileId) -> StorageResult<()> {
        self.inner.sync(file)
    }
    fn seal(&self, file: FileId) -> StorageResult<()> {
        self.inner.seal(file)
    }
    fn read_into(&self, file: FileId, at: u64, buf: &mut [u8], cat: IoCategory) -> StorageResult<()> {
        self.inner.read_into(file, at, buf, cat)
    }
    fn len_blocks(&self, file: FileId) -> StorageResult<u64> {
        self.inner.len_blocks(file)
    }
    fn delete(&self, file: FileId) -> StorageResult<()> {
        self.inner.delete(file)
    }
    fn live_files(&self) -> Vec<FileId> {
        self.inner.live_files()
    }
    fn live_blocks(&self) -> u64 {
        self.inner.live_blocks()
    }
}

/// The lazy-rotation script on `Inline`. Ops 0..40 of the shared script
/// run on one thread, so every freeze is followed by its flush, whose
/// install rotates the WAL the frozen buffer shares. Then, three times,
/// a second thread writes its own keys (`keya…`) until its write freezes
/// the buffer and its flush parks building the table; meanwhile this
/// thread runs six more script ops, the first of which needs a log that
/// does not cover the frozen buffer and rotates the WAL itself; then the
/// flush installs. Both threads' writes are synced before they count as
/// acknowledged. Returns how many rounds' flushes parked.
fn rotation_script(park: &ParkFlush, db: &Db, shadow: &mut Shadow) -> usize {
    shadow.script(0..40, 0, |k, v| synced(db, k, v));
    let mut parked = 0;
    for round in 0..3u64 {
        park.update(|s| *s = ParkState::default());
        let frozen = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                park.update(|s| s.armed = Some(std::thread::current().id()));
                let mut own = Shadow::default();
                let flushes = db.stats().snapshot().flushes;
                for i in 0.. {
                    let key = format!("keya{round}{i:03}").into_bytes();
                    let mut ok = false;
                    own.write(key, Some(vec![b'a' + (i % 26) as u8; 60]), |k, v| {
                        ok = synced(db, k, v);
                        ok
                    });
                    if !ok || db.stats().snapshot().flushes > flushes {
                        break;
                    }
                }
                park.update(|s| s.done = true);
                own
            });
            park.wait_parked_or_done();
            parked += usize::from(park.state.lock().unwrap().parked);
            let start = 40 + 6 * round as usize;
            shadow.script(start..start + 6, 0, |k, v| synced(db, k, v));
            park.update(|s| s.released = true);
            writer.join().unwrap()
        });
        shadow.acked.extend(frozen.acked);
        shadow.maybe.extend(frozen.maybe);
    }
    parked
}

/// A crash, torn write and bit flip at every I/O ordinal of
/// [`rotation_script`], with key-value separation off and on: across a
/// freeze whose flush install rotates the WAL, and a freeze followed by
/// a commit that rotates it before the flush installs. After reopen
/// every key reads a legal state, and no table or WAL record outlives
/// the manifest that should name it.
#[test]
fn crash_at_every_io_point_across_lazy_wal_rotation() {
    let seed = seed(0x1A2E_5807);
    for (name, cfg) in [("lazy rotation sweep", small_cfg()), ("lazy rotation sweep (kv)", kv_cfg())] {
        let run = |fault: &Arc<FaultDevice>, shadow: &mut Shadow| {
            let park = ParkFlush::new(Arc::clone(fault));
            let db = Db::open(Arc::clone(&park) as Arc<dyn StorageDevice>, cfg.clone());
            db.map_or(0, |db| rotation_script(&park, &db, shadow))
        };
        let clean = || {
            let fault = fault_device(seed);
            let mut shadow = Shadow::default();
            assert_eq!(run(&fault, &mut shadow), 3, "{name}: a flush never parked");
            assert!(shadow.maybe.is_empty(), "{name}: fault-free run left unacked ops");
            let ops = fault.ops_performed();
            let db = Db::open(erased(&fault), cfg.clone()).expect("clean reopen");
            check_db(&db, &shadow, &format!("{name}, fault-free"));
            vec![ops]
        };
        sweep(name, seed, cfg.background, &[("device", 101)], clean, |case| {
            let fault = case.armed(seed);
            let mut shadow = Shadow::default();
            run(&fault, &mut shadow);
            assert!(
                fault.pending_faults().is_empty(),
                "{case} never fired (only {} I/Os ran); case is vacuous",
                fault.ops_performed(),
            );
            fault.heal();
            let dev = erased(&fault);
            let db = Db::open(Arc::clone(&dev), cfg.clone())
                .unwrap_or_else(|e| panic!("reopen after {case} failed: {e}"));
            let context = format!("{case} ({name})");
            check_db(&db, &shadow, &context);
            drop(db);
            no_orphan_tables(&dev, &context);
            no_orphan_wals(&dev, &context);
            true
        });
    }
}

// ---------------------------------------------------------------------
// A merge installed at its frontier
// ---------------------------------------------------------------------

/// Keys of the frontier scenario's base table: `key0000..key0179`.
const FRONTIER_KEYS: u32 = 180;

/// The narrow delete batches, one flush each: ten keys apiece, spread so
/// the merge passes each batch's table early while the base table
/// straddles every frontier.
const FRONTIER_DELETES: [u32; 5] = [5, 40, 75, 110, 145];

/// The frontier scenario's geometry: 512-byte blocks, 1 KiB output
/// tables, and a write buffer and L0 run cap large enough that the base
/// table and the five delete batches flush as six L0 runs and then merge
/// into L1 — the last level, so the merge drops every tombstone — in one
/// leveled merge of ≥ 6 output tables. Maintenance mode from
/// `LSM_BACKGROUND`.
fn frontier_cfg() -> LsmConfig {
    LsmConfig {
        buffer_bytes: 32 << 10,
        target_table_bytes: 1 << 10,
        l0_run_cap: 5,
        ..LsmConfig::small_for_tests()
    }
}

/// The frontier script: the base table (`FRONTIER_KEYS` puts), then each
/// delete batch in its own flush; the sixth L0 run triggers the merge.
fn frontier_script(db: &Db, shadow: &mut Shadow) {
    let key = |i: u32| format!("key{i:04}").into_bytes();
    for i in 0..FRONTIER_KEYS {
        let value = vec![b'a' + (i % 26) as u8; 40 + (i as usize * 7) % 30];
        shadow.write(key(i), Some(value), |k, v| synced(db, k, v));
    }
    let _ = db.flush();
    for first in FRONTIER_DELETES {
        for i in first..first + 10 {
            shadow.write(key(i), None, |k, v| synced(db, k, v));
        }
        let _ = db.flush();
    }
    // bounded: the idle wait bails out once a job has failed
    db.wait_background_idle();
}

/// A crash, torn write and bit flip at every I/O ordinal of one leveled
/// merge that installs at its frontier: six L0 runs (a wide base table
/// and five narrow delete batches) merge into the empty last level, so
/// each batch's tombstones are garbage-collected into an early output
/// while the base table — still holding the deleted keys' old puts —
/// straddles the frontier. Recovery from any frontier manifest must read
/// the base table only above its floor: an unclipped straddler brings
/// the deleted keys back. Gets and scans must read legal states after
/// reopen and again after a major compaction of the recovered tree
/// (whose merge must read the clipped table above its floor), and no
/// table the fault stranded may survive.
#[test]
fn crash_at_every_io_point_of_a_merge_installed_at_its_frontier() {
    let seed = seed(0xF807_71E5);
    let cfg = frontier_cfg();
    let reopen_cfg = LsmConfig { background: BackgroundMode::Inline, ..cfg.clone() };
    let clean = || {
        let fault = fault_device(seed);
        let db = Db::open(erased(&fault), cfg.clone()).expect("clean open");
        let mut shadow = Shadow::default();
        frontier_script(&db, &mut shadow);
        assert!(shadow.maybe.is_empty(), "fault-free run left unacked ops");
        let stats = db.stats().snapshot();
        let outputs: Vec<u64> = db
            .drain_events()
            .iter()
            .filter_map(|e| match e.kind {
                lsm_core::EventKind::CompactionEnd { output_tables, tombstones_dropped, .. } => {
                    assert_eq!(tombstones_dropped, 50, "the merge must drop every tombstone");
                    Some(output_tables)
                }
                _ => None,
            })
            .collect();
        assert_eq!(outputs.len(), 1, "one merge: {outputs:?}");
        assert!(outputs[0] >= 6, "the merge wrote {} output tables", outputs[0]);
        assert!(stats.frontier_installs >= 4, "{} frontier installs", stats.frontier_installs);
        eprintln!(
            "frontier sweep: one merge, {} output tables, {} frontier installs",
            outputs[0], stats.frontier_installs
        );
        drop(db);
        vec![fault.ops_performed()]
    };
    sweep("frontier sweep", seed, cfg.background, &[("device", 101)], clean, |case| {
        let fault = case.armed(seed);
        let mut shadow = Shadow::default();
        if let Ok(db) = Db::open(erased(&fault), cfg.clone()) {
            frontier_script(&db, &mut shadow);
        }
        let fired = fault.pending_faults().is_empty();
        fault.heal();
        let dev = erased(&fault);
        let db = Db::open(Arc::clone(&dev), reopen_cfg.clone())
            .unwrap_or_else(|e| panic!("reopen after {case} failed: {e}"));
        check_db(&db, &shadow, &format!("{case} (frontier sweep)"));
        // merge what recovery found, clipped tables included: a merge
        // must read each input above its floor too
        db.major_compact()
            .unwrap_or_else(|e| panic!("major compaction after {case} failed: {e}"));
        check_db(&db, &shadow, &format!("{case} (frontier sweep, merged after reopen)"));
        drop(db);
        no_orphan_tables(&dev, &format!("{case} (frontier sweep)"));
        fired
    });
}

/// A torn WAL tail is ordinary crash behavior: recovery stops at the tear
/// silently — the `corruption_detected` counter must stay at zero — and
/// every write acknowledged before the tear survives.
#[test]
fn torn_wal_tail_is_silent_and_loses_nothing_acked() {
    let fault = fault_device(3);
    let cfg = small_cfg();
    let db = Db::open(erased(&fault), cfg.clone()).unwrap();
    db.put(b"alpha".to_vec(), b"one".to_vec()).unwrap();
    db.sync().unwrap();
    db.put(b"beta".to_vec(), b"two".to_vec()).unwrap();
    db.sync().unwrap();

    // The next WAL append tears: zero blocks survive, then the device dies.
    fault.schedule(fault.ops_performed(), FaultKind::TornWrite { keep_blocks: 0 });
    let _ = db.put(b"gamma".to_vec(), b"three".to_vec());
    let _ = db.sync();
    drop(db);

    fault.heal();
    let db = Db::open(erased(&fault), cfg).unwrap();
    assert_eq!(db.get(b"alpha").unwrap(), Some(b"one".to_vec()));
    assert_eq!(db.get(b"beta").unwrap(), Some(b"two".to_vec()));
    assert_eq!(db.get(b"gamma").unwrap(), None, "torn write must not surface");
    assert_eq!(
        db.io_stats().corruption_detected,
        0,
        "a torn tail is not corruption and must not be counted as such"
    );
}

// ---------------------------------------------------------------------
// Read-path corruption
// ---------------------------------------------------------------------

/// `key000..key039` (value `i` is `64 + i` bytes of `v`), synced and
/// flushed into one SSTable, so the next read I/O is a data block's.
fn forty_keys_in_one_table(fault: &Arc<FaultDevice>, cfg: LsmConfig) -> Db {
    let db = Db::open(erased(fault), cfg).unwrap();
    for i in 0..40usize {
        db.put(format!("key{i:03}").into_bytes(), vec![b'v'; 64 + i]).unwrap();
    }
    db.sync().unwrap();
    db.flush().unwrap();
    db
}

/// A bit flip in a data block read fails the block checksum: the read
/// surfaces `StorageError::Corruption`, bumps `corruption_detected`, and
/// the next (clean) read of the same key succeeds.
#[test]
fn bit_flip_on_read_is_detected_and_counted() {
    let fault = fault_device(7);
    // No block cache: every get goes to the device, so the scheduled
    // flip is guaranteed to land on a real read.
    let cfg = LsmConfig {
        cache_bytes: 0,
        ..small_cfg()
    };
    let db = forty_keys_in_one_table(&fault, cfg);

    let before = db.io_stats().corruption_detected;
    fault.schedule(fault.ops_performed(), FaultKind::BitFlip);
    match db.get(b"key007") {
        Err(StorageError::Corruption(msg)) => {
            assert!(!msg.is_empty(), "corruption error should say what failed")
        }
        other => panic!("flipped block read should fail with Corruption, got {other:?}"),
    }
    assert!(
        db.io_stats().corruption_detected > before,
        "detected corruption must be counted in IoStats"
    );

    // The fault was consumed; the same key now reads back intact.
    assert_eq!(db.get(b"key007").unwrap(), Some(vec![b'v'; 64 + 7]));
}

/// The same flip with the block cache on: the flipped read must be
/// rejected *before* it is admitted to the cache, so it is counted once
/// and the retry goes back to the device instead of being served the
/// poisoned block until eviction.
#[test]
fn bit_flip_on_read_never_enters_the_block_cache() {
    let fault = fault_device(7);
    assert!(small_cfg().cache_bytes > 0, "this variant needs the cache on");
    let db = forty_keys_in_one_table(&fault, small_cfg());

    let before = db.io_stats().corruption_detected;
    fault.schedule(fault.ops_performed(), FaultKind::BitFlip);
    match db.get(b"key007") {
        Err(StorageError::Corruption(_)) => {}
        other => panic!("flipped block read should fail with Corruption, got {other:?}"),
    }
    assert_eq!(db.get(b"key007").unwrap(), Some(vec![b'v'; 64 + 7]));
    assert_eq!(db.get(b"key007").unwrap(), Some(vec![b'v'; 64 + 7]));
    assert_eq!(
        db.io_stats().corruption_detected,
        before + 1,
        "one flipped read is one detected corruption"
    );
}

/// A bit flip in a separated value's log read fails the record's frame
/// checksum, from the active log and, after a reopen, from the device:
/// `StorageError::Corruption` and one more `corruption_detected`, never a
/// different value, and the next get reads the value back intact. The
/// block cache is off, and the value fills its record to exactly two
/// blocks, so the flip lands in the record whatever the seed.
#[test]
fn bit_flip_on_a_value_log_read_is_detected_and_counted() {
    let cfg = LsmConfig {
        cache_bytes: 0,
        ..kv_cfg()
    };
    let record_len = |value: &[u8]| {
        let mut log = lsm_core::kv_sep::ValueLog::create(Arc::new(MemDevice::new(512, DeviceProfile::free()))).unwrap();
        log.append(b"big", value).unwrap().len as usize
    };
    let value = vec![b'v'; 1024 - (record_len(&[0; 1000]) - 1000)];
    assert_eq!(record_len(&value), 1024, "the record is two whole blocks");
    for seed in 0..8 {
        let fault = fault_device(seed);
        let mut db = Db::open(erased(&fault), cfg.clone()).unwrap();
        db.put(b"big".to_vec(), value.clone()).unwrap(); // separated: ≥ 48 bytes
        db.sync().unwrap();
        for reopened in [false, true] {
            if reopened {
                drop(db);
                db = Db::open(erased(&fault), cfg.clone()).unwrap();
            }
            let context = format!("seed {seed}, {}", if reopened { "reopened" } else { "active log" });
            // a clean get learns how many I/Os it takes; the log read is its last
            let start = fault.ops_performed();
            assert_eq!(db.get(b"big").unwrap(), Some(value.clone()), "{context}");
            let ios = fault.ops_performed() - start;
            fault.schedule(fault.ops_performed() + ios - 1, FaultKind::BitFlip);
            let before = db.io_stats().corruption_detected;
            match db.get(b"big") {
                Err(StorageError::Corruption(_)) => {}
                other => panic!("{context}: a flipped value-log read should be Corruption, got {other:?}"),
            }
            assert!(fault.pending_faults().is_empty(), "{context}: the flip never fired");
            assert_eq!(db.io_stats().corruption_detected, before + 1, "{context}");
            assert_eq!(db.get(b"big").unwrap(), Some(value.clone()), "{context}: the next get");
        }
    }
}

/// A value-log pointer whose target file is gone (e.g. the log was
/// deleted by an over-eager GC or lost to corruption) is a typed
/// corruption error on read — not a panic, and not a silent `None`. And
/// since the manifest names every log a pointer may target, a reopen
/// rejects it, as it rejects one naming a missing table: with no older
/// manifest to fall back on, that is a typed error, never an engine whose
/// reads dangle.
#[test]
fn dangling_vlog_pointer_is_typed_corruption() {
    let mem: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(512, DeviceProfile::free()));
    let cfg = kv_cfg();
    let db = Db::open(Arc::clone(&mem), cfg.clone()).unwrap();
    db.put(b"big".to_vec(), vec![b'x'; 300]).unwrap(); // separated: ≥ 48 bytes
    db.put(b"small".to_vec(), b"inline".to_vec()).unwrap(); // inline: < 48 bytes
    db.sync().unwrap();
    db.flush().unwrap(); // the pointer now lives in an SSTable
    drop(db);

    // reopened, the pointer's log is a retiring one, read from the device
    let db = Db::open(Arc::clone(&mem), cfg.clone()).unwrap();
    let (_, state) = find_record(&mem, MANIFEST_MAGIC, ManifestState::from_bytes)
        .unwrap()
        .expect("manifest exists after open");
    assert_eq!(state.retiring.len(), 1, "the first run's log retires");
    mem.delete(FileId(state.retiring[0])).unwrap(); // the log the pointer targets vanishes
    match db.get(b"big") {
        Err(StorageError::Corruption(msg)) => {
            assert!(msg.contains("dangles"), "unexpected message: {msg}")
        }
        other => panic!("dangling pointer should be Corruption, got {other:?}"),
    }
    // Inline values are unaffected by the missing log.
    assert_eq!(db.get(b"small").unwrap(), Some(b"inline".to_vec()));
    drop(db);
    match Db::open(Arc::clone(&mem), cfg) {
        Err(StorageError::Corruption(msg)) => assert!(msg.contains("no usable manifest"), "{msg}"),
        Ok(_) => panic!("a manifest naming a missing value log must be rejected"),
        Err(e) => panic!("expected a typed Corruption, got {e}"),
    }
}

// ---------------------------------------------------------------------
// Manifest recovery
// ---------------------------------------------------------------------

fn bogus_manifest() -> ManifestState {
    ManifestState {
        // References a table file that was never written.
        levels: vec![vec![vec![999_999]]],
        wal: 0,
        wal_prev: 0,
        vlog: 0,
        retiring: Vec::new(),
        next_seqno: 9,
        applied_seq: 0,
        floors: Vec::new(),
    }
}

/// A newer manifest that references missing files — the footprint of a
/// crash mid-rewrite — is rejected, counted as corruption, and recovery
/// falls back to the older intact manifest with all data readable.
#[test]
fn stale_newer_manifest_falls_back_to_older_snapshot() {
    let mem: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(512, DeviceProfile::free()));
    let cfg = small_cfg();
    let db = Db::open(Arc::clone(&mem), cfg.clone()).unwrap();
    for i in 0..30usize {
        db.put(format!("key{i:03}").into_bytes(), vec![b'd'; 20 + i]).unwrap();
    }
    db.sync().unwrap();
    db.flush().unwrap();
    drop(db);

    // Simulate a half-finished manifest rewrite: a newer manifest exists
    // but references a table that never made it to the device. `previous:
    // None` leaves the good manifest in place, as a real crash would.
    write_manifest(&mem, &bogus_manifest(), None).unwrap();

    let before = mem.stats().snapshot().corruption_detected;
    let db = Db::open(Arc::clone(&mem), cfg).unwrap();
    for i in 0..30usize {
        assert_eq!(
            db.get(format!("key{i:03}").as_bytes()).unwrap(),
            Some(vec![b'd'; 20 + i]),
            "key{i:03} lost after manifest fallback"
        );
    }
    assert!(
        mem.stats().snapshot().corruption_detected > before,
        "rejecting a bad manifest candidate must be counted"
    );
}

/// When every manifest candidate is unusable, open fails with a typed
/// corruption error. Silently starting an empty database would turn a
/// recoverable corruption into permanent data loss.
#[test]
fn all_manifests_bad_is_a_typed_error_not_an_empty_db() {
    let mem: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(512, DeviceProfile::free()));
    write_manifest(&mem, &bogus_manifest(), None).unwrap();
    match Db::open(Arc::clone(&mem), small_cfg()) {
        Err(StorageError::Corruption(msg)) => {
            assert!(msg.contains("no usable manifest"), "unexpected message: {msg}")
        }
        Ok(_) => panic!("open silently ignored an unusable manifest"),
        Err(e) => panic!("wrong error kind: {e}"),
    }
}

/// A database whose only manifest fails its checksum — one bit flipped
/// anywhere in it: magic, body, padding or trailer — refuses to open with
/// a typed error, and every table that manifest names stays on the
/// device. Taking the damaged manifest for an absent one would open an
/// empty database and sweep those tables away as orphans.
#[test]
fn lone_bit_flipped_manifest_is_a_typed_error_and_keeps_the_tables() {
    let mem: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(512, DeviceProfile::free()));
    let db = Db::open(Arc::clone(&mem), small_cfg()).unwrap();
    for i in 0..30usize {
        db.put(format!("key{i:03}").into_bytes(), vec![b'd'; 20 + i]).unwrap();
    }
    db.sync().unwrap();
    db.flush().unwrap();
    drop(db);

    let (mut manifest, state) = find_record(&mem, MANIFEST_MAGIC, ManifestState::from_bytes)
        .unwrap()
        .expect("manifest exists after flush");
    let tables: Vec<u64> = state.levels.iter().flatten().flatten().copied().collect();
    assert!(!tables.is_empty(), "the flush wrote a table");
    let blocks = mem.len_blocks(manifest).unwrap();
    let sealed = mem.read(manifest, 0, blocks, IoCategory::Misc).unwrap();
    for bit in 0..sealed.len() * 8 {
        let mut flipped = sealed.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        mem.delete(manifest).unwrap();
        let mut w = WritableFile::create(Arc::clone(&mem), IoCategory::Misc).unwrap();
        w.append(&flipped).unwrap();
        manifest = w.seal().unwrap().id();
        match Db::open(Arc::clone(&mem), small_cfg()) {
            Err(StorageError::Corruption(msg)) => {
                assert!(msg.contains("no usable manifest"), "bit {bit}: {msg}")
            }
            Ok(_) => panic!("bit {bit}: open took a damaged manifest for none"),
            Err(e) => panic!("bit {bit}: wrong error kind: {e}"),
        }
        let live = mem.live_files();
        for &t in &tables {
            assert!(live.contains(&FileId(t)), "bit {bit}: table {t} was deleted");
        }
    }
}

// ---------------------------------------------------------------------
// Transient errors
// ---------------------------------------------------------------------

/// Transient device errors (EINTR-style) are absorbed by the retry layer:
/// the workload sees only `Ok`, and the retries show up in `IoStats`.
#[test]
fn transient_errors_are_retried_transparently() {
    let fault = fault_device(11);
    // Spaced further apart than the retry budget (3), so no op ever sees
    // two transients in a row more than it can absorb.
    let scheduled = [2u64, 6, 10, 15, 21, 40, 77];
    for at in scheduled {
        fault.schedule(at, FaultKind::Transient);
    }
    let retry: Arc<dyn StorageDevice> =
        Arc::new(RetryDevice::new(erased(&fault), RetryPolicy::default()));

    let db = Db::open(retry, small_cfg()).unwrap();
    for i in 0..60usize {
        db.put(format!("key{i:03}").into_bytes(), vec![b't'; 30 + i]).unwrap();
        db.sync().unwrap();
    }
    db.flush().unwrap();
    for i in 0..60usize {
        assert_eq!(
            db.get(format!("key{i:03}").as_bytes()).unwrap(),
            Some(vec![b't'; 30 + i])
        );
    }
    assert!(
        fault.pending_faults().is_empty(),
        "workload too small: not every scheduled transient fired"
    );
    let stats = db.io_stats();
    assert!(
        stats.retries >= scheduled.len() as u64,
        "expected at least {} retries, saw {}",
        scheduled.len(),
        stats.retries
    );
}

// ---------------------------------------------------------------------
// Property test: random workloads, random crash points
// ---------------------------------------------------------------------

/// splitmix64 — local PRNG for workload generation, independent of the
/// proptest case stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Random mixed workload: ~30 keys, random put/delete mix and value
/// sizes, synced per op. Same seed ⇒ same ops.
fn random_workload(db: &Db, shadow: &mut Shadow, seed: u64, ops: usize) {
    let mut rng = seed;
    for _ in 0..ops {
        let key = format!("key{:03}", splitmix(&mut rng) % 31).into_bytes();
        let value = (!splitmix(&mut rng).is_multiple_of(5)).then(|| {
            let len = 8 + (splitmix(&mut rng) % 120) as usize;
            vec![b'a' + (splitmix(&mut rng) % 26) as u8; len]
        });
        shadow.write(key, value, |k, v| synced(db, k, v));
    }
}

fn random_crash_case(seed: u64, crash_at: u64, kv: bool) {
    let cfg = if kv { kv_cfg() } else { small_cfg() };
    let fault = fault_device(seed);
    fault.schedule(crash_at, FaultKind::Crash);

    let mut shadow = Shadow::default();
    if let Ok(db) = Db::open(erased(&fault), cfg.clone()) {
        random_workload(&db, &mut shadow, seed, 100);
        drop(db);
    }
    // `crash_at` may exceed the run's I/O count — then the case degrades
    // to a fault-free roundtrip, which must also verify.
    fault.heal();
    let db = Db::open(erased(&fault), cfg)
        .unwrap_or_else(|e| panic!("reopen (seed {seed}, crash {crash_at}) failed: {e}"));
    check_db(&db, &shadow, &format!("random seed {seed} crash {crash_at}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn random_workload_with_random_crash_point_recovers(
        seed in 0u64..1_000_000,
        crash_at in 0u64..900,
    ) {
        random_crash_case(seed, crash_at, false);
    }

    #[test]
    fn random_kv_separated_workload_with_crash_recovers(
        seed in 0u64..1_000_000,
        crash_at in 0u64..900,
    ) {
        random_crash_case(seed, crash_at, true);
    }
}
