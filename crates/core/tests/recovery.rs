//! Durability and concurrency: property-based crash-recovery checks (the
//! WAL/manifest invariant from DESIGN.md) and a readers-vs-writer smoke
//! test.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use lsm_core::{Db, LsmConfig, MergeLayout};
use lsm_storage::{
    DeviceProfile, FaultDevice, FaultKind, FileId, IoCategory, IoStats, LatencyModel, MemDevice,
    StorageDevice, StorageResult,
};

#[derive(Clone, Debug)]
enum Op {
    Put(u16, u8),
    Delete(u16),
    Flush,
    Reopen,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 256, v)),
        2 => any::<u16>().prop_map(|k| Op::Delete(k % 256)),
        1 => Just(Op::Flush),
        1 => Just(Op::Reopen),
    ]
}

fn key(i: u16) -> Vec<u8> {
    format!("k{i:05}").into_bytes()
}

fn cfg() -> LsmConfig {
    LsmConfig {
        buffer_bytes: 1 << 10,
        block_size: 256,
        target_table_bytes: 1 << 10,
        size_ratio: 3,
        l0_run_cap: 2,
        wal: true,
        ..LsmConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every acknowledged write survives arbitrary interleavings of
    /// flushes and (synced) reopens.
    #[test]
    fn recovery_preserves_acknowledged_writes(ops in vec(arb_op(), 1..150)) {
        let device: Arc<dyn StorageDevice> =
            Arc::new(MemDevice::new(256, DeviceProfile::free()));
        let mut db = Db::open(Arc::clone(&device), cfg()).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    db.put(key(*k), vec![*v; 4]).unwrap();
                    model.insert(key(*k), vec![*v; 4]);
                }
                Op::Delete(k) => {
                    db.delete(key(*k)).unwrap();
                    model.remove(&key(*k));
                }
                Op::Flush => db.flush().unwrap(),
                Op::Reopen => {
                    drop(db); // clean shutdown syncs the WAL tail
                    db = Db::open(Arc::clone(&device), cfg()).unwrap();
                }
            }
        }
        drop(db);
        let db = Db::open(device, cfg()).unwrap();
        for k in 0..256u16 {
            prop_assert_eq!(
                db.get(&key(k)).unwrap(),
                model.get(&key(k)).cloned(),
                "key {} diverged after final reopen", k
            );
        }
    }

    /// A simulated crash (device kept, `Db` leaked without drop) loses at
    /// most the unsynced WAL tail: all explicitly synced writes survive.
    #[test]
    fn crash_preserves_synced_prefix(n_synced in 1usize..60, n_tail in 0usize..40) {
        let device: Arc<dyn StorageDevice> =
            Arc::new(MemDevice::new(256, DeviceProfile::free()));
        {
            let db = Db::open(Arc::clone(&device), cfg()).unwrap();
            for i in 0..n_synced {
                db.put(key(i as u16), vec![1u8; 4]).unwrap();
            }
            db.sync().unwrap();
            for i in 0..n_tail {
                db.put(key((1000 + i) as u16), vec![2u8; 4]).unwrap();
            }
            // a leaked `Threaded` engine keeps its workers: let any flush in
            // flight land first, or it races the reopen for the device
            db.wait_background_idle();
            // crash: skip Drop so the WAL tail is NOT padded out
            std::mem::forget(db);
        }
        let db = Db::open(device, cfg()).unwrap();
        for i in 0..n_synced {
            prop_assert_eq!(
                db.get(&key(i as u16)).unwrap(),
                Some(vec![1u8; 4]),
                "synced write {} lost", i
            );
        }
        // tail writes may or may not survive (block-granular persistence);
        // recovery must be a clean prefix: if write j survived, so did all
        // earlier tail writes
        let survived: Vec<bool> = (0..n_tail)
            .map(|i| db.get(&key((1000 + i) as u16)).unwrap().is_some())
            .collect();
        let first_lost = survived.iter().position(|s| !s).unwrap_or(n_tail);
        for (i, s) in survived.iter().enumerate() {
            prop_assert_eq!(*s, i < first_lost, "torn tail is not a prefix: {:?}", survived);
        }
    }
}

#[test]
fn concurrent_readers_during_writes() {
    let db = Arc::new(
        Db::open_in_memory(LsmConfig {
            layout: MergeLayout::Tiered,
            ..LsmConfig::small_for_tests()
        })
        .unwrap(),
    );
    // preload so readers always have something to find
    for i in 0..2000u32 {
        db.put(format!("user{i:08}").into_bytes(), format!("v{i}").into_bytes())
            .unwrap();
    }
    std::thread::scope(|scope| {
        // writer keeps churning (flushes + compactions included)
        let wdb = Arc::clone(&db);
        scope.spawn(move || {
            for round in 0..3u32 {
                for i in 0..2000u32 {
                    wdb.put(
                        format!("user{i:08}").into_bytes(),
                        format!("r{round}-{i}").into_bytes(),
                    )
                    .unwrap();
                }
            }
        });
        // readers: every get must return one of the versions ever written
        for t in 0..3u32 {
            let rdb = Arc::clone(&db);
            scope.spawn(move || {
                for i in 0..6000u32 {
                    let id = (i * 7 + t * 13) % 2000;
                    let got = rdb.get(format!("user{id:08}").as_bytes()).unwrap();
                    let got = got.expect("preloaded key must always be visible");
                    let s = String::from_utf8(got).unwrap();
                    assert!(
                        s == format!("v{id}") || s.ends_with(&format!("-{id}")),
                        "unexpected value {s} for {id}"
                    );
                }
            });
        }
        // scanners: consistent snapshots while compactions replace files
        let sdb = Arc::clone(&db);
        scope.spawn(move || {
            for i in 0..200u32 {
                let lo = format!("user{:08}", (i * 17) % 1900);
                let hi = format!("user{:08}", (i * 17) % 1900 + 50);
                let got = sdb.scan(lo.into_bytes()..hi.into_bytes(), 1000).unwrap();
                assert!(got.len() <= 50);
                for w in got.windows(2) {
                    assert!(w[0].0 < w[1].0, "scan order violated");
                }
            }
        });
    });
}

/// Forwards to a [`FaultDevice`] and notes the ordinal of the last
/// manifest write (the only `Misc`-category write a flush makes).
struct ManifestOrdinal {
    inner: Arc<FaultDevice>,
    last: std::sync::atomic::AtomicU64,
}

impl StorageDevice for ManifestOrdinal {
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
        if cat == IoCategory::Misc {
            self.last.store(self.inner.ops_performed(), std::sync::atomic::Ordering::SeqCst);
        }
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

/// A worker's flush that dies at its manifest write has already given
/// the active buffer a fresh WAL, while the flushed records sit unsynced
/// in the old one and in a table no manifest names. A `sync` after that
/// must not succeed on the empty fresh WAL: a put it acked would be lost
/// to the crash. So `sync` either fails or the put survives the reopen.
#[test]
fn a_sync_after_a_flush_that_died_at_its_manifest_acks_nothing_it_loses() {
    let cfg = LsmConfig {
        background: lsm_core::BackgroundMode::Threaded,
        background_workers: 1,
        buffer_bytes: 1 << 10,
        ..LsmConfig::small_for_tests()
    };
    let value = |i: u32| vec![b'a' + (i % 26) as u8; 40];
    // puts, each synced, until one fills the buffer; its flush runs on the
    // worker while the writer waits. Returns that put's key, whether the
    // sync after it succeeded, and the flush's manifest-write ordinal.
    let run = |crash_at: Option<u64>| {
        let fault = Arc::new(FaultDevice::new(Arc::new(MemDevice::new(512, DeviceProfile::free())), 5));
        if let Some(at) = crash_at {
            fault.schedule(at, FaultKind::Crash);
        }
        let dev = Arc::new(ManifestOrdinal { inner: Arc::clone(&fault), last: 0.into() });
        let db = Db::open(Arc::clone(&dev) as Arc<dyn StorageDevice>, cfg.clone()).unwrap();
        let mut i = 0u32;
        loop {
            db.put(key(i as u16), value(i)).unwrap();
            db.wait_background_idle();
            if db.stats().snapshot().flushes > 0 {
                break;
            }
            db.sync().unwrap();
            i += 1;
        }
        let acked = db.sync().is_ok();
        drop(db);
        fault.heal();
        (fault, i, acked, dev.last.load(std::sync::atomic::Ordering::SeqCst))
    };
    let (_, _, acked, manifest_at) = run(None);
    assert!(acked, "a fault-free sync succeeds");
    let (fault, i, acked, _) = run(Some(manifest_at));
    assert!(fault.pending_faults().is_empty(), "the crash never fired");
    let db = Db::open(fault as Arc<dyn StorageDevice>, LsmConfig { background: lsm_core::BackgroundMode::Inline, ..cfg }).unwrap();
    if acked {
        assert_eq!(db.get(&key(i as u16)).unwrap(), Some(value(i)), "an acked put was lost");
    }
    for j in 0..i {
        assert_eq!(db.get(&key(j as u16)).unwrap(), Some(value(j)), "acked put {j} was lost");
    }
}
