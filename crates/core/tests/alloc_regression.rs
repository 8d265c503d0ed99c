//! Steady-state allocation regression tests.
//!
//! A counting global allocator wraps the system allocator; each test
//! warms the engine, then counts heap allocations across a window of
//! operations. These are the hot-path guarantees the zero-copy work
//! bought, pinned down so a refactor that quietly reintroduces a
//! per-entry `Vec` fails CI instead of a benchmark:
//!
//! - warm-cache point reads (no key-value separation) perform **zero**
//!   heap allocations through [`Db::get_with`], also when it copies the
//!   value into a caller-owned buffer;
//! - a scan's allocation cost is its *setup* only — independent of how
//!   many entries it visits;
//! - that setup is O(sources + one chunk): each write buffer's cursor
//!   copies one chunk up front and more only as the merge drains it,
//!   however full the buffer is and whatever the limit;
//! - a snapshot shares the write buffers by handle: taking one costs
//!   the same at any buffer fill;
//! - steady-state puts stay within a small constant of allocations per
//!   operation (memtable arena + WAL scratch reuse);
//! - building a table, alone or as a merge's output, allocates per data
//!   block, never per entry;
//! - a point read whose block misses the cache allocates one buffer, the
//!   size of the block, which the cache then keeps.
//!
//! The differential tests at the bottom prove the borrowed paths return
//! byte-identical results to the owned paths against a model oracle, in
//! whichever background mode `LSM_BACKGROUND` selects.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use lsm_core::compaction::exec::merge_tables;
use lsm_core::sstable::{Table, TableBuilder};
use lsm_core::{BackgroundMode, Db, IndexKind, LsmConfig, ValueKind};
use lsm_cache::{CachePolicy, ShardedCache};
use lsm_storage::{Block, DeviceProfile, MemDevice, StorageDevice};
use lsm_workload::keyspace::{encode_key, make_value};

struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
thread_local! {
    /// Set on the measuring thread only: the test harness's own threads
    /// (printing a result, spawning the next test) allocate at any time.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counters are process-wide, so counting tests must
/// not overlap each other (or the differential tests, which allocate
/// freely). One lock serializes every test in this binary.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with allocation counting enabled; returns how many heap
/// allocations (malloc + realloc) this thread made.
fn count_allocs(f: impl FnOnce()) -> u64 {
    count_allocs_and_bytes(f).0
}

/// [`count_allocs`] plus the bytes those allocations asked for (a
/// realloc counts its whole new size).
fn count_allocs_and_bytes(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOC_COUNT.load(Ordering::SeqCst), ALLOC_BYTES.load(Ordering::SeqCst));
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    (
        ALLOC_COUNT.load(Ordering::SeqCst) - before.0,
        ALLOC_BYTES.load(Ordering::SeqCst) - before.1,
    )
}

/// Inline mode pins all maintenance to this thread, so an allocation
/// observed during a counting window belongs to the operation under
/// test, not to a background worker.
fn inline_config() -> LsmConfig {
    LsmConfig {
        background: BackgroundMode::Inline,
        buffer_bytes: 1 << 20,
        cache_bytes: 4 << 20,
        wal: true,
        ..LsmConfig::small_for_tests()
    }
}

fn key(i: u32) -> Vec<u8> {
    format!("allockey{i:06}").into_bytes()
}

fn value(i: u32) -> Vec<u8> {
    format!("value-{i:06}-padding-padding").into_bytes()
}

/// Point read into a caller-owned buffer through [`Db::get_with`]: `buf`
/// is cleared and refilled when the key is live. Returns whether it was.
fn get_into(db: &Db, key: &[u8], buf: &mut Vec<u8>) -> bool {
    db.get_with(key, |v| {
        buf.clear();
        buf.extend_from_slice(v);
    })
    .unwrap()
    .is_some()
}

/// Builds a db whose data all sits in SSTables behind a warm block
/// cache: fill, flush to quiescence, then touch every key and run the
/// full scan once so every block / filter / index the reads need is
/// resident.
fn warm_db(n: u32) -> Db {
    let db = Db::open_in_memory(inline_config()).unwrap();
    for i in 0..n {
        db.put(key(i), value(i)).unwrap();
    }
    db.flush_all().unwrap();
    let mut buf = Vec::with_capacity(256);
    for i in 0..n {
        assert!(get_into(&db, &key(i), &mut buf), "warmup miss {i}");
    }
    let visited = db.scan_with(&key(0), &key(n), usize::MAX, |_, _| {}).unwrap();
    assert_eq!(visited, n as usize, "warmup scan must see everything");
    db
}

#[test]
fn warm_get_is_allocation_free() {
    let _g = lock();
    let db = warm_db(2000);
    let keys: Vec<Vec<u8>> = (0..2000u32).step_by(17).map(key).collect();
    let mut buf = Vec::with_capacity(256);
    let mut total_len = 0usize;
    let allocs = count_allocs(|| {
        for k in &keys {
            let hit = get_into(&db, k, &mut buf);
            assert!(hit);
            total_len += buf.len();
            let l = db.get_with(k, |v| v.len()).unwrap();
            assert_eq!(l, Some(buf.len()));
        }
    });
    assert!(total_len > 0);
    assert_eq!(
        allocs, 0,
        "warm-cache point reads must not touch the heap ({allocs} allocations leaked in)"
    );
}

#[test]
fn warm_get_miss_is_allocation_free() {
    let _g = lock();
    let db = warm_db(500);
    // warm the miss path once (filters may lazily build nothing, but the
    // probe itself must be clean)
    assert!(!get_into(&db, b"allockey999999", &mut Vec::new()));
    let misses: Vec<Vec<u8>> = (0..50u32).map(|i| format!("zzmiss{i:04}").into_bytes()).collect();
    let allocs = count_allocs(|| {
        for k in &misses {
            assert_eq!(db.get_with(k, |v| v.len()).unwrap(), None);
        }
    });
    assert_eq!(allocs, 0, "a clean miss allocated {allocs} times");
}

#[test]
fn scan_allocation_cost_is_setup_only() {
    let _g = lock();
    let db = warm_db(2000);
    let run_scan = |limit: usize| {
        let mut entries = 0usize;
        let mut bytes = 0usize;
        let allocs = count_allocs(|| {
            let n = db
                .scan_with(&key(0), &key(2000), limit, |k, v| {
                    entries += 1;
                    bytes += k.len() + v.len();
                })
                .unwrap();
            assert_eq!(n, limit);
        });
        assert_eq!(entries, limit);
        assert!(bytes > 0);
        allocs
    };
    // warm both shapes once so lazily-grown scratch reaches steady state
    run_scan(50);
    run_scan(2000);
    let short = run_scan(50);
    let long = run_scan(2000);
    assert_eq!(
        short, long,
        "scan allocations must be setup-only: {short} allocs for 50 entries vs {long} for 2000 \
         — a per-entry allocation crept back in"
    );
}

/// "O(sources), not O(memtable)": a short scan to a far `end` copies only
/// the stretch of the write buffer its rows can come from (the buffer
/// cursor, `ReadView::sources`), so neither its allocation count nor its
/// allocated bytes may depend on how full the buffer is.
#[test]
fn short_scan_setup_does_not_grow_with_the_memtable() {
    let _g = lock();
    let db = warm_db(2000);
    let flushes = db.stats().snapshot().flushes;
    let far_end = key(999_999);
    let scan_cost = |limit: usize| {
        let mut bytes_seen = 0usize;
        let cost = count_allocs_and_bytes(|| {
            let n = db
                .scan_with(&key(0), &far_end, limit, |k, v| bytes_seen += k.len() + v.len())
                .unwrap();
            assert_eq!(n, limit);
        });
        assert!(bytes_seen > 0);
        cost
    };
    // key + value + per-entry overhead ≈ 65 bytes of a 1 MiB buffer
    let mut filled = 0u32;
    let mut costs = Vec::new();
    for (percent, entries) in [(10, 1_600u32), (90, 14_500)] {
        for i in filled..entries {
            db.put(key(i), value(i)).unwrap();
        }
        filled = entries;
        assert_eq!(db.stats().snapshot().flushes, flushes, "the buffer must hold the fill");
        for limit in [1usize, 50] {
            scan_cost(limit); // warm lazily-grown scratch
            let (allocs, bytes) = scan_cost(limit);
            // a row here is ≈ 42 bytes; 16 KiB of set-up covers the sources'
            // fixed cost, and the buffer holds 100 KiB to 900 KiB
            assert!(
                bytes <= 16 * 1024 + 256 * limit as u64,
                "limit-{limit} scan over a {percent} % full buffer allocated {bytes} bytes in \
                 {allocs} allocations — it is copying the memtable"
            );
            costs.push((limit, allocs));
        }
    }
    assert_eq!(
        costs[..2],
        costs[2..],
        "(limit, allocations) at 10 % vs 90 % fill: scan set-up grew with the memtable"
    );
}

/// The buffer cursor copies a chunk, not `limit` entries: over a write
/// buffer that is sparse in the scanned range (one rewrite per 64 keys,
/// so one chunk of it spans more than 500 rows of the runs), a 50-row and
/// a 500-row scan each copy one chunk and allocate the same bytes.
#[test]
fn a_short_scan_copies_one_chunk_of_a_sparse_buffer_whatever_its_limit() {
    let _g = lock();
    let db = warm_db(20_000);
    let flushes = db.stats().snapshot().flushes;
    for i in (0..20_000u32).step_by(64) {
        db.put(key(i), value(i + 1)).unwrap();
    }
    assert_eq!(db.stats().snapshot().flushes, flushes, "the buffer must hold the rewrites");
    let scan_cost = |limit: usize| {
        count_allocs_and_bytes(|| {
            let n = db.scan_with(&key(0), &key(20_000), limit, |_, _| {}).unwrap();
            assert_eq!(n, limit);
        })
    };
    // warm lazily-grown scratch for both shapes
    scan_cost(50);
    scan_cost(500);
    let (short_allocs, short_bytes) = scan_cost(50);
    let (long_allocs, long_bytes) = scan_cost(500);
    assert_eq!(
        (short_allocs, short_bytes),
        (long_allocs, long_bytes),
        "(allocations, bytes) of a 50-row vs a 500-row scan: the buffer copy grew with the limit"
    );
}

/// A snapshot is the buffers' handles plus a seqno ceiling: taking one
/// allocates the same at 10 % and at 90 % buffer fill (a copy of the
/// buffer would allocate ≈ 100 KiB vs ≈ 900 KiB).
#[test]
fn a_snapshot_costs_the_same_at_any_buffer_fill() {
    let _g = lock();
    let db = Db::open_in_memory(inline_config()).unwrap();
    let mut filled = 0u32;
    let mut costs = Vec::new();
    for entries in [1_600u32, 14_500] {
        for i in filled..entries {
            db.put(key(i), value(i)).unwrap();
        }
        filled = entries;
        assert_eq!(db.stats().snapshot().flushes, 0, "the buffer must hold the fill");
        drop(db.snapshot().unwrap()); // warm
        costs.push(count_allocs_and_bytes(|| {
            let snap = db.snapshot().unwrap();
            assert_eq!(snap.get(&key(7)).unwrap(), Some(value(7)));
        }));
    }
    assert_eq!(
        costs[0], costs[1],
        "(allocations, bytes) of a snapshot at 10 % vs 90 % fill: the snapshot copies the buffer"
    );
}

#[test]
fn steady_state_put_allocations_are_bounded() {
    let _g = lock();
    let db = Db::open_in_memory(inline_config()).unwrap();
    // reach steady state: arena grown, WAL scratch grown, front warm
    for i in 0..2000u32 {
        db.put(key(i), value(i)).unwrap();
    }
    let ops = 500u32;
    let allocs = count_allocs(|| {
        for i in 0..ops {
            db.put(key(i % 1000), value(i)).unwrap();
        }
    });
    // a put owns its key/value (two allocations) plus amortized growth;
    // the old per-put skiplist node boxes and WAL frame Vecs are gone
    let per_op = allocs as f64 / ops as f64;
    assert!(
        per_op <= 8.0,
        "steady-state put costs {per_op:.1} allocations/op ({allocs} over {ops})"
    );
}

/// Entries per table in the build and merge tests below.
const TABLE_ENTRIES: u32 = 20_000;

/// Workload-shaped entries (16-byte keys, 100-byte values), made before
/// any counting window opens.
fn shaped_entries(ids: std::ops::Range<u64>) -> Vec<(Vec<u8>, Vec<u8>)> {
    ids.map(|id| (encode_key(id), make_value(id, 100))).collect()
}

fn build_table(dev: &Arc<dyn StorageDevice>, entries: &[(Vec<u8>, Vec<u8>)], seq0: u64) -> Arc<Table> {
    let cfg = LsmConfig::default();
    let mut b = TableBuilder::new(Arc::clone(dev), &cfg, cfg.bits_per_key).unwrap();
    for (i, (k, v)) in entries.iter().enumerate() {
        b.add(k, seq0 + i as u64, ValueKind::Put, v).unwrap();
    }
    let (file, _meta) = b.finish().unwrap();
    Table::open(file, IndexKind::Fence).unwrap()
}

/// Building a table allocates per data block, not per entry: a 4 KiB
/// block holds ≈ 33 of these entries, so one allocation per 8 entries
/// means `add` allocates per entry again.
#[test]
fn table_build_allocates_per_block_not_per_entry() {
    let _g = lock();
    let dev: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(4096, DeviceProfile::free()));
    let entries = shaped_entries(0..TABLE_ENTRIES as u64);
    let cfg = LsmConfig::default();
    let allocs = count_allocs(|| {
        let mut b = TableBuilder::new(Arc::clone(&dev), &cfg, cfg.bits_per_key).unwrap();
        for (i, (k, v)) in entries.iter().enumerate() {
            b.add(k, i as u64, ValueKind::Put, v).unwrap();
        }
        b.finish().unwrap();
    });
    assert!(
        allocs < TABLE_ENTRIES as u64 / 8,
        "building a {TABLE_ENTRIES}-entry table took {allocs} allocations"
    );
}

/// The same bound for a compaction, per input entry: merging an update
/// run over a base run (two `TABLE_ENTRIES`-entry tables, same keys)
/// allocates per block read and per block written, not per entry merged.
#[test]
fn merge_allocates_per_block_not_per_entry() {
    let _g = lock();
    let dev: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(4096, DeviceProfile::free()));
    let entries = shaped_entries(0..TABLE_ENTRIES as u64);
    let inputs = [build_table(&dev, &entries, 100_000), build_table(&dev, &entries, 1)];
    let cfg = LsmConfig::default();
    let mut written = 0;
    let allocs = count_allocs(|| {
        let r = merge_tables(&dev, &cfg, IndexKind::Fence, cfg.bits_per_key, &inputs, false).unwrap();
        written = r.entries_written;
    });
    assert_eq!(written, TABLE_ENTRIES as u64);
    let entries_in = 2 * TABLE_ENTRIES as u64;
    assert!(
        allocs < entries_in / 8,
        "merging {entries_in} entries took {allocs} allocations"
    );
}

/// A cache miss reads its block straight into the block the cache keeps:
/// one allocation, of the block's `byte_len` plus the shared buffer's
/// reference counts — not a device-sized buffer, a copy and a free.
#[test]
fn a_cache_miss_allocates_one_block_sized_buffer() {
    let _g = lock();
    let dev: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(4096, DeviceProfile::free()));
    let entries = shaped_entries(0..2_000);
    let table = build_table(&dev, &entries, 1);
    let first = table.meta().data_blocks[0];
    // one shard holding about four blocks: the warm-up below fills it, so
    // the counted miss evicts rather than grows the shard's map
    let charge = Block::new(vec![0; first.byte_len as usize]).charge();
    let cache: ShardedCache<Block> = ShardedCache::new(CachePolicy::Lru, 4 * charge + charge / 2, 1);
    for (k, _) in entries.iter().step_by(7) {
        table.get_with(k, Some(&cache), |_| ()).unwrap();
    }
    let misses = cache.stats().misses();
    // the first key lives in block 0, long since evicted
    let (allocs, bytes) = count_allocs_and_bytes(|| {
        let (hit, _) = table
            .get_with(&entries[0].0, Some(&cache), |e| e.value.len())
            .unwrap();
        assert_eq!(hit, Some(entries[0].1.len()));
    });
    assert_eq!(cache.stats().misses(), misses + 1, "the read must miss the cache");
    // two reference counts ahead of the bytes, rounded to their alignment
    let words = std::mem::size_of::<usize>() as u64;
    let arc_len = (2 * words + first.byte_len).next_multiple_of(words);
    assert_eq!(
        (allocs, bytes),
        (1, arc_len),
        "a {}-byte block read on a miss: (allocations, bytes)",
        first.byte_len
    );
}

// ---------------------------------------------------------------------------
// Differential tests: borrowed views vs owned paths vs a model oracle
// ---------------------------------------------------------------------------

/// Deterministic pseudo-random stream (no external crates).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// Applies a random workload (puts, overwrites, deletes, periodic
/// flushes) to the engine and a `BTreeMap` model in lockstep, then
/// proves the owned and borrowed read paths agree with each other and
/// with the model, byte for byte. Runs in whichever background mode
/// `LSM_BACKGROUND` selects, so `scripts/verify.sh` exercises both.
#[test]
fn borrowed_reads_match_owned_reads_and_model() {
    let _g = lock();
    let cfg = LsmConfig {
        wal: true,
        ..LsmConfig::small_for_tests()
    };
    let db = Db::open_in_memory(cfg).unwrap();
    let mut model = std::collections::BTreeMap::<Vec<u8>, Vec<u8>>::new();
    let mut rng = Rng(0xE21);
    for step in 0..6000u32 {
        let i = (rng.next() % 700) as u32;
        let k = key(i);
        if rng.next().is_multiple_of(5) {
            db.delete(k.clone()).unwrap();
            model.remove(&k);
        } else {
            let v = format!("v{step}-{i}").into_bytes();
            db.put(k.clone(), v.clone()).unwrap();
            model.insert(k, v);
        }
        if step % 1500 == 1499 {
            db.flush_all().unwrap();
        }
    }

    // point reads: get vs get_with into a buffer vs get_with must agree with the model
    let mut buf = Vec::new();
    for i in 0..700u32 {
        let k = key(i);
        let owned = db.get(&k).unwrap();
        let hit = get_into(&db, &k, &mut buf);
        let with = db.get_with(&k, |v| v.to_vec()).unwrap();
        assert_eq!(owned.as_deref(), model.get(&k).map(|v| v.as_slice()), "model vs get {i}");
        assert_eq!(hit.then(|| buf.clone()), owned, "get_with into a buffer vs get {i}");
        assert_eq!(with, owned, "get_with vs get {i}");
    }

    // range scans: owned scan vs streaming scan_with, several windows
    for (lo, hi, limit) in [
        (0u32, 700u32, usize::MAX),
        (0, 700, 37),
        (100, 250, usize::MAX),
        (650, 700, 10),
    ] {
        let owned = db.scan(key(lo)..key(hi), limit).unwrap();
        let mut streamed = Vec::new();
        db.scan_with(&key(lo), &key(hi), limit, |k, v| {
            streamed.push((k.to_vec(), v.to_vec()));
        })
        .unwrap();
        assert_eq!(streamed, owned, "scan_with vs scan [{lo}, {hi}) limit {limit}");
        let expect: Vec<_> = model
            .range(key(lo)..key(hi))
            .take(limit)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        assert_eq!(owned, expect, "scan vs model [{lo}, {hi}) limit {limit}");
    }
}
