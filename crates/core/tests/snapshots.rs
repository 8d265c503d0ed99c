//! Snapshot isolation: a snapshot's view never changes, no matter how
//! many writes, flushes, and compactions happen after it — including
//! compactions that physically supersede every file the snapshot reads.

use lsm_core::config::KvSeparation;
use lsm_core::manifest::{find_record, ManifestState, MANIFEST_MAGIC};
use lsm_core::{Db, LsmConfig, MergeLayout, RangeFilterKind};
use lsm_storage::{FileId, IoCategory};

fn key(i: u32) -> Vec<u8> {
    format!("user{i:08}").into_bytes()
}

/// The value logs the newest manifest names, active and retiring.
fn named_logs(db: &Db) -> Vec<FileId> {
    let (_, state) = find_record(db.device(), MANIFEST_MAGIC, ManifestState::from_bytes)
        .unwrap()
        .expect("a manifest");
    state.retiring.iter().chain([&state.vlog]).map(|&id| FileId(id)).collect()
}

/// Bytes of files out of the version that a reader still holds, once no
/// merge (a worker's, under `Threaded`) holds any.
fn superseded(db: &Db) -> i64 {
    db.wait_background_idle();
    db.metrics().gauges["memory.device.superseded"]
}

/// Whether any of `logs` is still a file on the device.
fn any_alive(db: &Db, logs: &[FileId]) -> bool {
    let files = db.device().live_files();
    logs.iter().any(|l| files.contains(l))
}

#[test]
fn snapshot_is_isolated_from_later_writes() {
    let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
    for i in 0..500u32 {
        db.put(key(i), format!("v1-{i}").into_bytes()).unwrap();
    }
    let snap = db.snapshot().unwrap();
    // overwrite, delete, and add new keys afterwards
    for i in 0..500u32 {
        db.put(key(i), format!("v2-{i}").into_bytes()).unwrap();
    }
    for i in (0..500u32).step_by(3) {
        db.delete(key(i)).unwrap();
    }
    for i in 500..800u32 {
        db.put(key(i), b"new".to_vec()).unwrap();
    }
    // the snapshot still sees exactly the v1 state
    for i in (0..500u32).step_by(7) {
        assert_eq!(
            snap.get(&key(i)).unwrap(),
            Some(format!("v1-{i}").into_bytes()),
            "key {i}"
        );
    }
    assert_eq!(snap.get(&key(600)).unwrap(), None, "later insert visible");
    let scanned = snap.scan(key(0)..key(1000), usize::MAX).unwrap();
    assert_eq!(scanned.len(), 500);
    assert_eq!(scanned[0].1, b"v1-0".to_vec());
    // while the live view moved on
    assert_eq!(db.get(&key(1)).unwrap(), Some(b"v2-1".to_vec()));
    assert_eq!(db.get(&key(0)).unwrap(), None);
}

#[test]
fn snapshot_survives_full_compaction_of_its_files() {
    let db = Db::open_in_memory(LsmConfig {
        layout: MergeLayout::Leveled,
        ..LsmConfig::small_for_tests()
    })
    .unwrap();
    for i in 0..2000u32 {
        db.put(key(i), format!("old-{i}").into_bytes()).unwrap();
    }
    db.flush().unwrap();
    let snap = db.snapshot().unwrap();
    let files_before = db.device().live_files().len();
    // rewrite everything and major-compact: every file the snapshot uses
    // is superseded
    for i in 0..2000u32 {
        db.put(key(i), format!("new-{i}").into_bytes()).unwrap();
    }
    db.major_compact().unwrap();
    // snapshot reads still work, off the superseded (still-alive) files
    for i in (0..2000u32).step_by(97) {
        assert_eq!(
            snap.get(&key(i)).unwrap(),
            Some(format!("old-{i}").into_bytes()),
            "key {i} after compaction"
        );
    }
    let scanned = snap.scan(key(100)..key(120), 100).unwrap();
    assert_eq!(scanned.len(), 20);
    assert!(scanned.iter().all(|(_, v)| v.starts_with(b"old-")));
    // dropping the snapshot releases the superseded files
    drop(snap);
    let files_after = db.device().live_files().len();
    assert!(
        files_after < files_before,
        "superseded files not reclaimed: {files_after} vs {files_before}"
    );
    // live view unaffected
    assert_eq!(db.get(&key(5)).unwrap(), Some(b"new-5".to_vec()));
}

#[test]
fn snapshot_resolves_separated_values_without_the_engine() {
    let db = Db::open_in_memory(LsmConfig {
        kv_separation: Some(KvSeparation {
            min_value_bytes: 64,
        }),
        ..LsmConfig::small_for_tests()
    })
    .unwrap();
    let big = vec![0x5A; 300];
    for i in 0..100u32 {
        db.put(key(i), big.clone()).unwrap();
    }
    let snap = db.snapshot().unwrap();
    // churn the live engine
    for i in 0..100u32 {
        db.put(key(i), vec![0xB6; 300]).unwrap();
    }
    // value-log GC runs with the snapshot alive: it moves the live
    // values and takes the old log out of the version…
    let old_logs = named_logs(&db);
    assert_eq!(db.gc_value_log().unwrap(), (100, 100), "100 live values moved, 100 dead left");
    assert!(superseded(&db) > 0, "the snapshot holds the collected log");
    assert!(any_alive(&db, &old_logs));
    // …while the snapshot still reads its values from that log
    for i in (0..100u32).step_by(9) {
        assert_eq!(snap.get(&key(i)).unwrap(), Some(big.clone()), "key {i}");
    }
    assert_eq!(db.get(&key(3)).unwrap(), Some(vec![0xB6; 300]));
    // the log goes with its last reader
    drop(snap);
    assert_eq!(superseded(&db), 0);
    assert!(!any_alive(&db, &old_logs), "the collected log outlived its last reader");
    assert_eq!(db.get(&key(3)).unwrap(), Some(vec![0xB6; 300]));
}

#[test]
fn txn_reads_consistently_across_rotation_and_compaction() {
    // small buffer: the churn below rotates the memtable many times
    let db = Db::open_in_memory(LsmConfig {
        buffer_bytes: 2 << 10,
        layout: MergeLayout::Leveled,
        ..LsmConfig::small_for_tests()
    })
    .unwrap();
    for i in 0..400u32 {
        db.put(key(i), format!("v1-{i}").into_bytes()).unwrap();
    }
    let mut txn = db.begin_txn().unwrap();
    for i in (0..400u32).step_by(11) {
        assert_eq!(
            txn.get(&key(i)).unwrap(),
            Some(format!("v1-{i}").into_bytes())
        );
    }
    // churn the live engine hard enough to flush and fully compact away
    // every file the transaction's snapshot reads
    for gen in 2..5u32 {
        for i in 0..400u32 {
            db.put(key(i), format!("v{gen}-{i}").into_bytes()).unwrap();
        }
    }
    db.flush().unwrap();
    db.major_compact().unwrap();
    // the transaction still reads its snapshot, not the churned state
    for i in (0..400u32).step_by(11) {
        assert_eq!(
            txn.get(&key(i)).unwrap(),
            Some(format!("v1-{i}").into_bytes()),
            "key {i} moved under the transaction"
        );
    }
    // …but first-committer-wins knows those reads are stale
    match txn.commit() {
        Err(lsm_core::TxnError::Conflict(_)) => {}
        other => panic!("stale txn must conflict, got {other:?}"),
    }
    assert_eq!(db.get(&key(0)).unwrap(), Some(b"v4-0".to_vec()));
}

/// Value-log GC does not wait for transactions: each keeps reading its
/// snapshot from the collected log, and the log's file goes when the last
/// of them does.
#[test]
fn gc_under_live_txns_frees_the_log_when_the_last_one_drops() {
    let db = Db::open_in_memory(LsmConfig {
        kv_separation: Some(KvSeparation {
            min_value_bytes: 64,
        }),
        ..LsmConfig::small_for_tests()
    })
    .unwrap();
    let big = vec![0x5A; 300];
    for i in 0..100u32 {
        db.put(key(i), big.clone()).unwrap();
    }
    let mut a = db.begin_txn().unwrap();
    let mut b = db.begin_txn().unwrap();
    assert_eq!(a.get(&key(7)).unwrap(), Some(big.clone()));
    assert_eq!(b.get(&key(7)).unwrap(), Some(big.clone()));
    // rewrite everything: the old value-log slots are now garbage — but
    // garbage the transactions can still read
    for i in 0..100u32 {
        db.put(key(i), vec![0xB6; 300]).unwrap();
    }
    let old_logs = named_logs(&db);
    assert_eq!(db.gc_value_log().unwrap(), (100, 100));
    assert_eq!(a.get(&key(8)).unwrap(), Some(big.clone()), "a reads past the GC");
    drop(a);
    assert!(superseded(&db) > 0, "b still holds the collected log");
    assert!(any_alive(&db, &old_logs));
    assert_eq!(b.get(&key(9)).unwrap(), Some(big.clone()), "b reads past the GC and a's drop");
    b.abort();
    assert_eq!(superseded(&db), 0);
    assert!(!any_alive(&db, &old_logs), "the collected log outlived its last txn");
    assert_eq!(db.get(&key(3)).unwrap(), Some(vec![0xB6; 300]));
}

/// A transaction that read a key commits cleanly across a GC that
/// relocated that key: a relocation is not a logical write, so it is no
/// conflict. The commit releases the snapshot, and the collected log with
/// it.
#[test]
fn a_txn_commits_cleanly_across_a_gc_that_relocated_its_reads() {
    let db = Db::open_in_memory(LsmConfig {
        kv_separation: Some(KvSeparation {
            min_value_bytes: 64,
        }),
        ..LsmConfig::small_for_tests()
    })
    .unwrap();
    for i in 0..50u32 {
        db.put(key(i), vec![0x11; 200]).unwrap();
    }
    let mut txn = db.begin_txn().unwrap();
    assert_eq!(txn.get(&key(9)).unwrap(), Some(vec![0x11; 200]));
    txn.put(key(9), vec![0x22; 200]);
    let old_logs = named_logs(&db);
    assert_eq!(db.gc_value_log().unwrap(), (50, 0), "every value is live and moves");
    assert_eq!(txn.get(&key(10)).unwrap(), Some(vec![0x11; 200]), "the txn reads past the GC");
    assert!(any_alive(&db, &old_logs), "the txn holds the collected log");
    txn.commit().expect("a relocation is not a conflict");
    assert_eq!(superseded(&db), 0);
    assert!(!any_alive(&db, &old_logs), "the collected log outlived the txn");
    assert_eq!(db.get(&key(9)).unwrap(), Some(vec![0x22; 200]));
    assert_eq!(db.get(&key(10)).unwrap(), Some(vec![0x11; 200]));
    for i in 0..50u32 {
        db.put(key(i), vec![0x33; 200]).unwrap();
    }
    assert_eq!(db.gc_value_log().unwrap(), (50, 51), "the second GC collects the first's log");
    assert_eq!(db.get(&key(9)).unwrap(), Some(vec![0x33; 200]));
}

#[test]
fn many_concurrent_snapshots() {
    let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
    let mut snaps = Vec::new();
    for gen in 0..5u32 {
        for i in 0..300u32 {
            db.put(key(i), format!("g{gen}-{i}").into_bytes()).unwrap();
        }
        snaps.push((gen, db.snapshot().unwrap()));
    }
    db.major_compact().unwrap();
    for (gen, snap) in &snaps {
        for i in (0..300u32).step_by(41) {
            assert_eq!(
                snap.get(&key(i)).unwrap(),
                Some(format!("g{gen}-{i}").into_bytes()),
                "generation {gen}, key {i}"
            );
        }
    }
}

/// A snapshot scan takes the same read optimisations as `Db::scan`: with
/// a range filter configured, scans over empty gaps between keys are
/// pruned before any data block is read.
#[test]
fn snapshot_scans_honour_the_range_filter() {
    let cfg = LsmConfig {
        range_filter: RangeFilterKind::Surf { suffix_bits: 8 },
        layout: MergeLayout::Tiered, // many runs → many prune chances
        cache_bytes: 0,
        wal: false,
        ..LsmConfig::small_for_tests()
    };
    let db = Db::open_in_memory(cfg).unwrap();
    for i in 0..4000u32 {
        db.put(key(i), vec![0x5A; 32]).unwrap();
    }
    db.flush().unwrap();
    db.wait_background_idle();
    let snap = db.snapshot().unwrap();
    // just past a real key .. still before the next one
    let gaps = || {
        (0..300u32).map(|i| key(i * 7 % 4000)).map(|k| [&k[..], b"a"].concat()..[&k[..], b"zz"].concat())
    };
    let data_reads = || db.io_stats().category(IoCategory::Data).read_blocks;
    let prunes = || db.stats().snapshot().range_filter_prunes;

    let (io0, p0) = (data_reads(), prunes());
    for gap in gaps() {
        assert!(db.scan(gap, 10).unwrap().is_empty());
    }
    let (io1, p1) = (data_reads(), prunes());
    for gap in gaps() {
        assert!(snap.scan(gap, 10).unwrap().is_empty());
    }
    let (io2, p2) = (data_reads(), prunes());
    assert!(p1 > p0, "the engine scan never pruned");
    assert_eq!(p2 - p1, p1 - p0, "snapshot scans must prune like engine scans");
    assert_eq!(io2 - io1, io1 - io0, "snapshot scans must read like engine scans");
}
