//! The engine's heap against the data it keeps, counted by the allocator.
//!
//! An in-memory engine's heap is mostly its device: every table lives in
//! a `MemDevice` file. A file kept in fixed extents costs its bytes plus
//! at most one extent, so the heap an inline load and a full compaction
//! peak at — the data, the compaction's transient second copy, the block
//! cache, the write buffers — stays a small multiple of the device's live
//! bytes, and once the merge has freed its inputs the heap is about the
//! data alone. A device that grows a file by doubling holds up to twice
//! each file's bytes and re-copies the file as it grows, which shows here
//! as both ratios rising past their bounds.
//!
//! A merge installs its outputs at a moving frontier and lets go of each
//! input it has passed, so while it runs the device holds the data plus
//! about one table per input run and the table being built, not the
//! merge's output beside all of its inputs.
//!
//! The write-ahead log is the other device cost a workload controls: a
//! group commit of one or two records must cost the log its bytes, not a
//! fresh block per sync.
//!
//! Value-log GC reads the log it retires one bounded window at a time
//! and copies only the live values it relocates, so its heap grows by
//! about the live values' new log, not by the retiring log.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use lsm_core::config::KvSeparation;
use lsm_core::kv_sep::holds_records;
use lsm_core::wal::Wal;
use lsm_core::{BackgroundMode, Db, EventKind, LsmConfig, ValueKind};
use lsm_storage::{
    DeviceProfile, FileId, IoCategory, IoStats, LatencyModel, MemDevice, StorageDevice,
    StorageResult,
};
use lsm_workload::keyspace::{encode_key, make_value};

/// The process's allocator, counting: bytes live now and at their peak.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counters are statistics
// that no allocation depends on.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        note_alloc(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Records in the load: each a 16-byte key and a 100-byte value, the
/// benchmark workloads' shape.
const RECORDS: u64 = 100_000;
const VALUE_LEN: usize = 100;

/// A fixed permutation of `0..n` (a stride coprime to `n`), so the load
/// arrives scattered, as the workloads load it.
fn scattered(n: u64) -> impl Iterator<Item = u64> {
    let step = (0..).map(|i| 0x9E37_79B9 + i).find(|s| gcd(*s, n) == 1).unwrap();
    (0..n).map(move |i| (i * step) % n)
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Held by every test in the binary: the allocator's counters are
/// process-wide, so another test's allocations would show in a peak.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn a_load_and_full_compaction_cost_a_small_multiple_of_the_data() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let cfg = LsmConfig {
        background: BackgroundMode::Inline,
        cache_bytes: 1 << 20,
        ..LsmConfig::default()
    };
    let base = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(base, Ordering::Relaxed);
    let dev: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free()));
    let db = Db::open(Arc::clone(&dev), cfg.clone()).unwrap();
    for id in scattered(RECORDS) {
        db.put(encode_key(id), make_value(id, VALUE_LEN)).unwrap();
    }
    db.major_compact().unwrap();
    let device_bytes = (dev.live_blocks() * cfg.block_size as u64) as f64;
    let peak = PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(base) as f64 / device_bytes;
    let held = LIVE_BYTES.load(Ordering::Relaxed).saturating_sub(base) as f64 / device_bytes;
    println!("{RECORDS} records, {device_bytes} device bytes: heap peaked at {peak:.2}x and holds {held:.2}x");
    assert!(peak <= 2.6, "the heap peaked at {peak:.2}x the device's live bytes");
    assert!(held <= 1.3, "the heap holds {held:.2}x the device's live bytes after the compaction");
    for id in (0..RECORDS).step_by(997) {
        assert_eq!(db.get(&encode_key(id)).unwrap(), Some(make_value(id, VALUE_LEN)));
    }
}

/// A `MemDevice` that records the most blocks its live files ever held,
/// checked after every write.
struct PeakDevice {
    inner: MemDevice,
    peak_blocks: AtomicU64,
}

impl PeakDevice {
    /// Restarts the peak from the blocks held now.
    fn reset_peak(&self) -> u64 {
        let now = self.inner.live_blocks();
        self.peak_blocks.store(now, Ordering::Relaxed);
        now
    }
}

impl StorageDevice for PeakDevice {
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
        self.inner.write(file, at, data, cat)?;
        self.peak_blocks.fetch_max(self.inner.live_blocks(), Ordering::Relaxed);
        Ok(())
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

/// A full merge of every run into ≥ 8 output tables: at every write it
/// makes, the device holds at most (input runs + 1) × `target_table_bytes`
/// beyond what it held when the merge began — a straddling table per run
/// and the table being built — where a merge that keeps its inputs until
/// its end holds its whole output beside them.
#[test]
fn a_full_merge_holds_a_table_per_input_run_beyond_its_inputs() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let cfg = LsmConfig {
        background: BackgroundMode::Inline,
        target_table_bytes: 1 << 20,
        ..LsmConfig::default()
    };
    let dev = Arc::new(PeakDevice {
        inner: MemDevice::new(cfg.block_size, DeviceProfile::free()),
        peak_blocks: AtomicU64::new(0),
    });
    let db = Db::open(Arc::clone(&dev) as Arc<dyn StorageDevice>, cfg.clone()).unwrap();
    for id in scattered(RECORDS) {
        db.put(encode_key(id), make_value(id, VALUE_LEN)).unwrap();
    }
    db.flush().unwrap();
    db.compact().unwrap();
    let runs: usize = db.level_summary().iter().map(|(runs, _, _)| runs).sum();
    let installs_before = db.stats().snapshot().frontier_installs;
    db.drain_events();
    let base = dev.reset_peak();
    db.major_compact().unwrap();
    let outputs: u64 = db
        .drain_events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::CompactionEnd { output_tables, .. } => Some(output_tables),
            _ => None,
        })
        .sum();
    let installs = db.stats().snapshot().frontier_installs - installs_before;
    let bs = cfg.block_size as u64;
    let excess = (dev.peak_blocks.load(Ordering::Relaxed) - base) * bs;
    let bound = (runs as u64 + 1) * cfg.target_table_bytes as u64;
    println!(
        "a merge of {runs} runs into {outputs} tables ({installs} frontier installs) held \
         {excess} bytes beyond its inputs' {} (bound {bound})",
        base * bs
    );
    assert!(outputs >= 8, "the merge wrote only {outputs} tables");
    assert!(excess <= bound, "the merge held {excess} bytes beyond its inputs, bound {bound}");
    for id in (0..RECORDS).step_by(997) {
        assert_eq!(db.get(&encode_key(id)).unwrap(), Some(make_value(id, VALUE_LEN)));
    }
}

/// 20 000 single-record group commits (`put`, then `sync`) into a log
/// that never rotates: the log's file holds its frames plus at most a
/// tenth and one block, where a sync that pads its block to the boundary
/// leaves a block per record, about 30 times the frames.
#[test]
fn single_record_group_commits_cost_the_wal_its_frames() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    const PUTS: u64 = 20_000;
    let cfg = LsmConfig {
        background: BackgroundMode::Inline,
        buffer_bytes: 64 << 20, // no flush, so one log takes every record
        wal: true,
        ..LsmConfig::default()
    };
    let bs = cfg.block_size as u64;
    let dev: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free()));
    let db = Db::open(Arc::clone(&dev), cfg.clone()).unwrap();
    let before: BTreeMap<_, _> = dev.live_files().into_iter().map(|f| (f, dev.len_blocks(f).unwrap())).collect();
    for id in 0..PUTS {
        db.put(encode_key(id), make_value(id, VALUE_LEN)).unwrap();
        db.sync().unwrap();
    }
    let grown: Vec<_> = dev
        .live_files()
        .into_iter()
        .filter(|f| dev.len_blocks(*f).unwrap() > before.get(f).copied().unwrap_or(0))
        .collect();
    assert_eq!(grown.len(), 1, "only the log grew: {grown:?}");
    let wal_bytes = dev.len_blocks(grown[0]).unwrap() * bs;
    // the same frames in a log synced once: their bytes, rounded up to a block
    let packed_dev: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free()));
    let mut packed = Wal::create(Arc::clone(&packed_dev)).unwrap();
    for id in 0..PUTS {
        packed.append(id + 1, ValueKind::Put, &encode_key(id), &make_value(id, VALUE_LEN)).unwrap();
    }
    packed.sync().unwrap();
    let frame_bytes = packed_dev.live_blocks() * bs;
    println!("{PUTS} group commits: the log holds {wal_bytes} bytes for {frame_bytes} bytes of frames");
    assert!(
        wal_bytes as f64 <= 1.1 * frame_bytes as f64 + bs as f64,
        "the log holds {wal_bytes} bytes for {frame_bytes} bytes of frames"
    );
    assert_eq!(db.get(&encode_key(PUTS - 1)).unwrap(), Some(make_value(PUTS - 1, VALUE_LEN)));
}

/// GC of a value log whose records are three quarters dead (every key
/// written four times): its heap peak above where it started stays below
/// the log's own bytes. A GC that reads the log whole and copies out every
/// record peaks at twice the log or more.
#[test]
fn value_log_gc_holds_a_window_of_the_log_not_the_log() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    const KEYS: u64 = 2_000;
    const ROUNDS: u64 = 4;
    const SEPARATED_LEN: usize = 1_000;
    let cfg = LsmConfig {
        background: BackgroundMode::Inline,
        kv_separation: Some(KvSeparation { min_value_bytes: 64 }),
        ..LsmConfig::default()
    };
    let bs = cfg.block_size as u64;
    let dev: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free()));
    let db = Db::open(Arc::clone(&dev), cfg).unwrap();
    let value = |id: u64, round: u64| make_value(id + round * KEYS, SEPARATED_LEN);
    for round in 0..ROUNDS {
        for id in scattered(KEYS) {
            db.put(encode_key(id), value(id, round)).unwrap();
        }
    }
    db.sync().unwrap();
    let logs = dev.live_files().into_iter().filter(|&f| holds_records(&dev, f));
    let log_bytes: u64 = logs.map(|f| dev.len_blocks(f).unwrap() * bs).sum();
    let base = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(base, Ordering::Relaxed);
    let moved = db.gc_value_log().unwrap();
    let peak = PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(base) as u64;
    println!("GC of a {log_bytes}-byte value log: the heap peaked {peak} bytes above its start");
    assert_eq!(moved, (KEYS, KEYS * (ROUNDS - 1)), "(relocated, dropped)");
    assert!(peak < log_bytes, "GC's heap peaked {peak} bytes above its start, the log holds {log_bytes}");
    for id in (0..KEYS).step_by(97) {
        assert_eq!(db.get(&encode_key(id)).unwrap(), Some(value(id, ROUNDS - 1)));
    }
}
