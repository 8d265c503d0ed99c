//! Value-log GC keeps every acknowledged value: across a crash right
//! after it, across reopens, against a user write racing its relocation,
//! and across a GC that fails at its last step. (The crash sweep over every GC step is
//! `tests/crash_recovery.rs::crash_at_every_io_point_of_value_log_gc`; a
//! transaction committing across a GC is in `snapshots.rs`.)

use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use lsm_core::config::KvSeparation;
use lsm_core::kv_sep::{holds_records, ValueLog};
use lsm_core::{BackgroundMode, Db, LsmConfig};
use lsm_storage::{
    DeviceProfile, FaultDevice, FaultKind, FileId, IoCategory, IoStats, LatencyModel, MemDevice,
    StorageDevice, StorageResult,
};

fn key(i: usize) -> Vec<u8> {
    format!("key{i:02}").into_bytes()
}

/// `small_for_tests` with every value of 16 bytes or more separated.
fn kv_cfg() -> LsmConfig {
    LsmConfig {
        kv_separation: Some(KvSeparation { min_value_bytes: 16 }),
        ..LsmConfig::small_for_tests()
    }
}

fn mem_device() -> Arc<dyn StorageDevice> {
    Arc::new(MemDevice::new(512, DeviceProfile::free()))
}

/// A crash at the first device op after GC returns loses no acked key:
/// GC makes its relocations durable before any manifest stops naming the
/// old log, and deletes that log only after.
#[test]
fn every_acked_key_survives_a_crash_right_after_gc() {
    let fault = Arc::new(FaultDevice::new(mem_device(), 7));
    let dev = Arc::clone(&fault) as Arc<dyn StorageDevice>;
    let value = |i: usize| vec![b'a' + i as u8; 111];
    let db = Db::open(Arc::clone(&dev), kv_cfg()).unwrap();
    for i in 0..20 {
        db.put(key(i), value(i)).unwrap();
    }
    db.sync().unwrap();
    assert_eq!(db.gc_value_log().unwrap(), (20, 0), "every value is live");
    fault.schedule(fault.ops_performed(), FaultKind::Crash);
    // process death: the handle drops against the dead device
    drop(db);
    fault.heal();
    let db = Db::open(dev, kv_cfg()).unwrap();
    for i in 0..20 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i)), "acked key {i}");
    }
}

/// Every round of open → overwrite → GC leaves the device one log of
/// live values: the logs of earlier runs retire at open and the next GC
/// collects them, where a log from before a reopen used to be named by
/// nothing and collected by nothing.
///
/// The bound: 50 live records of 213 bytes (a 1-byte tag, a 2-byte
/// length and a 4-byte checksum framing a 1-byte key length, the 5-byte
/// key and the 200-byte value) are 10,650 bytes, 21 blocks of 512 bytes
/// packed; one more block allows for a sync closing a block early. So
/// 22 blocks, 11,264 bytes, where four uncollected logs hold 43,008.
#[test]
fn reopening_and_collecting_keeps_the_value_log_at_its_live_bytes() {
    let dev = mem_device();
    let record = ValueLog::create(mem_device()).unwrap().append(&key(0), &[0; 200]).unwrap().len as u64;
    assert_eq!(record, 213);
    for round in 0..4u8 {
        let db = Db::open(Arc::clone(&dev), kv_cfg()).unwrap();
        for i in 0..50 {
            db.put(key(i), vec![round; 200]).unwrap();
        }
        db.sync().unwrap();
        db.gc_value_log().unwrap();
        db.flush().unwrap();
        for i in (0..50).step_by(7) {
            assert_eq!(db.get(&key(i)).unwrap(), Some(vec![round; 200]), "round {round}, key {i}");
        }
    }
    let log_bytes: u64 = dev
        .live_files()
        .into_iter()
        .filter(|&f| holds_records(&dev, f))
        .map(|f| dev.len_blocks(f).unwrap() * 512)
        .sum();
    let bound = (50 * record).div_ceil(512) * 512 + 512;
    eprintln!("value log after four rounds: {log_bytes} B for {} B live (bound {bound})", 50 * record);
    assert!(log_bytes <= bound, "{log_bytes} B of value log for {} B live (bound {bound})", 50 * record);
}

/// A GC whose last manifest write fails leaves its logs retiring: the
/// next GC collects them (the first log's stale records are dropped,
/// the relocated values move again), and the device is left one log of
/// live values.
#[test]
fn a_gc_that_fails_its_last_manifest_write_leaves_its_logs_to_the_next() {
    let cfg = LsmConfig {
        background: BackgroundMode::Inline,
        ..kv_cfg()
    };
    let value = |i: usize| vec![b'a' + i as u8; 111];
    let load = |fault: &Arc<FaultDevice>| {
        let db = Db::open(Arc::clone(fault) as Arc<dyn StorageDevice>, cfg.clone()).unwrap();
        for i in 0..20 {
            db.put(key(i), value(i)).unwrap();
        }
        db.sync().unwrap();
        db
    };
    // a twin run finds GC's last device op: its final manifest write
    let twin = Arc::new(FaultDevice::new(mem_device(), 7));
    let db = load(&twin);
    assert_eq!(db.gc_value_log().unwrap(), (20, 0));
    let last = twin.ops_performed() - 1;
    drop(db);

    let fault = Arc::new(FaultDevice::new(mem_device(), 7));
    let db = load(&fault);
    fault.schedule(last, FaultKind::Transient);
    assert!(db.gc_value_log().is_err(), "the final manifest write fails");
    assert!(fault.pending_faults().is_empty());
    assert_eq!(db.gc_value_log().unwrap(), (20, 20), "the failed GC's logs are still retiring");
    for i in 0..20 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i)), "key {i}");
    }
    assert_eq!(db.metrics().gauges["memory.device.superseded"], 0);
    let dev = Arc::clone(&fault) as Arc<dyn StorageDevice>;
    let logs = dev.live_files().into_iter().filter(|&f| holds_records(&dev, f)).count();
    assert_eq!(logs, 1, "one value log of live values");
}

#[derive(Default)]
struct GateState {
    /// The thread that parks.
    armed: Option<ThreadId>,
    /// It read a table data block: GC checked a record's key.
    checked: bool,
    parked: bool,
    released: bool,
}

/// A device that parks the armed thread — GC — at the first write
/// admission it makes after checking a record's key, until released. In
/// the L0 slowdown band every write counts itself on the device's stats
/// before it takes the engine's write lock, so the park holds GC between
/// its check of a record's key and that record's relocation.
struct Gate {
    inner: MemDevice,
    state: Mutex<GateState>,
    cv: Condvar,
}

impl Gate {
    fn arm(&self) {
        self.state.lock().unwrap().armed = Some(std::thread::current().id());
    }

    fn wait_parked(&self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut state = self.state.lock().unwrap();
        while !state.parked {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "GC never reached a write admission after a check");
            state = self.cv.wait_timeout(state, left).unwrap().0;
        }
    }

    fn release(&self) {
        self.state.lock().unwrap().released = true;
        self.cv.notify_all();
    }
}

impl StorageDevice for Gate {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn stats(&self) -> &IoStats {
        let mut state = self.state.lock().unwrap();
        if state.checked && !state.parked && state.armed == Some(std::thread::current().id()) {
            state.parked = true;
            self.cv.notify_all();
            while !state.released {
                state = self.cv.wait(state).unwrap();
            }
        }
        self.inner.stats()
    }
    fn latency(&self) -> &LatencyModel {
        self.inner.latency()
    }
    fn create(&self) -> StorageResult<FileId> {
        self.inner.create()
    }
    fn write(&self, file: FileId, at: u64, data: &[u8], cat: IoCategory) -> StorageResult<()> {
        self.inner.write(file, at, data, cat)
    }
    fn sync(&self, file: FileId) -> StorageResult<()> {
        self.inner.sync(file)
    }
    fn seal(&self, file: FileId) -> StorageResult<()> {
        self.inner.seal(file)
    }
    fn read_into(&self, file: FileId, at: u64, buf: &mut [u8], cat: IoCategory) -> StorageResult<()> {
        let mut state = self.state.lock().unwrap();
        if cat == IoCategory::Data && state.armed == Some(std::thread::current().id()) {
            state.checked = true;
        }
        drop(state);
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

/// User writes that land while GC is between its scan and a relocation
/// win: GC checks that a key still stores the scanned pointer with no
/// engine guard held, and commits the relocation only if no commit has
/// landed since, or else after a re-check under its write guard, so a
/// relocation of a scanned (now stale) value cannot overwrite a newer
/// one. GC parks after
/// checking key 0 (the log's first record): a put of key 0 and one of key
/// 1, its next record, land there, and both must read back.
#[test]
fn puts_racing_gc_between_its_scan_and_its_relocations_win() {
    let gate = Arc::new(Gate {
        inner: MemDevice::new(512, DeviceProfile::free()),
        state: Mutex::default(),
        cv: Condvar::new(),
    });
    let cfg = LsmConfig {
        // GC's check of a flushed key reads its data block from the device
        cache_bytes: 0,
        // one L0 run puts every write in the slowdown band, where the
        // gate parks GC's write admission
        l0_slowdown_runs: 1,
        l0_stall_runs: 100,
        ..kv_cfg()
    };
    let db = Db::open(Arc::clone(&gate) as Arc<dyn StorageDevice>, cfg).unwrap();
    let old = |i: usize| vec![b'o'; 40 + i];
    for i in 0..20 {
        db.put(key(i), old(i)).unwrap();
    }
    db.flush().unwrap();
    assert_eq!(db.l0_run_count(), 1);
    let gc = {
        let (db, gate) = (db.clone(), Arc::clone(&gate));
        std::thread::spawn(move || {
            gate.arm();
            db.gc_value_log()
        })
    };
    gate.wait_parked();
    let new = |i: usize| vec![b'n'; 60 + i];
    for i in 0..2 {
        db.put(key(i), new(i)).unwrap();
    }
    gate.release();
    let (relocated, dropped) = gc.join().unwrap().unwrap();
    assert_eq!(relocated + dropped, 20);
    for i in 0..2 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(new(i)), "GC's relocation overwrote the newer put of key {i}");
    }
    for i in 2..20 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(old(i)), "key {i}");
    }
}
