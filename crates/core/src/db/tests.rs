use super::*;
use crate::config::BackgroundMode;

fn small() -> LsmConfig {
    LsmConfig::small_for_tests()
}

#[test]
fn put_get_roundtrip() {
    let db = Db::open_in_memory(small()).unwrap();
    db.put(b"hello".to_vec(), b"world".to_vec()).unwrap();
    assert_eq!(db.get(b"hello").unwrap(), Some(b"world".to_vec()));
    assert_eq!(db.get(b"missing").unwrap(), None);
}

#[test]
fn overwrite_returns_newest() {
    let db = Db::open_in_memory(small()).unwrap();
    db.put(b"k".to_vec(), b"v1".to_vec()).unwrap();
    db.put(b"k".to_vec(), b"v2".to_vec()).unwrap();
    assert_eq!(db.get(b"k").unwrap(), Some(b"v2".to_vec()));
}

#[test]
fn delete_hides_older_versions_across_flushes() {
    let db = Db::open_in_memory(small()).unwrap();
    db.put(b"k".to_vec(), b"v".to_vec()).unwrap();
    db.flush().unwrap();
    db.delete(b"k".to_vec()).unwrap();
    assert_eq!(db.get(b"k").unwrap(), None);
    db.flush().unwrap();
    assert_eq!(db.get(b"k").unwrap(), None);
}

/// `memory.device.superseded` counts the bytes of the tables a merge took
/// out of the version while a snapshot still holds their files, and falls
/// back to 0 once the snapshot drops and the files are deleted.
#[test]
fn superseded_bytes_return_to_zero_when_a_snapshot_held_across_a_merge_drops() {
    let cfg = LsmConfig {
        background: crate::BackgroundMode::Inline,
        ..small()
    };
    let bs = cfg.block_size as i64;
    let db = Db::open_in_memory(cfg).unwrap();
    let key = |i: u32| format!("sk{i:05}").into_bytes();
    for round in 0..3 {
        for i in (round..600).step_by(3) {
            db.put(key(i), format!("v{round}-{i}").into_bytes()).unwrap();
        }
        db.flush().unwrap();
    }
    let superseded = || db.metrics().gauges["memory.device.superseded"];
    assert_eq!(superseded(), 0, "every table is in the version");
    let before: Vec<Arc<crate::sstable::Table>> = db.inner.read().version.tables().cloned().collect();
    let snap = db.snapshot().unwrap();
    db.major_compact().unwrap();
    let live: std::collections::HashSet<u64> = db.inner.read().version.all_table_ids().into_iter().collect();
    let held: i64 = before
        .iter()
        .filter(|t| !live.contains(&t.id()))
        .map(|t| t.len_blocks() as i64 * bs)
        .sum();
    drop(before);
    assert!(held > 0, "the merge must supersede tables");
    assert_eq!(superseded(), held, "the snapshot holds exactly the superseded tables");
    assert_eq!(snap.get(&key(7)).unwrap(), Some(b"v1-7".to_vec()));
    drop(snap);
    assert_eq!(superseded(), 0, "the files went with the snapshot");
}

/// A compaction drops every cached block of the tables it consumes —
/// their filter partitions as well as their data blocks — so no cached
/// key names a consumed table.
#[test]
fn compaction_drops_consumed_tables_from_the_cache_filter_partitions_too() {
    let cfg = LsmConfig {
        partitioned_filters: true,
        cache_bytes: 4 << 20,
        background: crate::BackgroundMode::Inline,
        ..small()
    };
    let db = Db::open_in_memory(cfg).unwrap();
    let key = |i: u32| format!("pk{i:05}").into_bytes();
    for round in 0..3 {
        for i in (round..600).step_by(3) {
            db.put(key(i), format!("v{round}-{i}").into_bytes()).unwrap();
        }
        db.flush().unwrap();
    }
    let tables: Vec<Arc<crate::sstable::Table>> = db.inner.read().version.tables().cloned().collect();
    for i in 0..600 {
        db.get(&key(i)).unwrap();
    }
    let cache = db.cache.as_ref().unwrap();
    // (data blocks, filter partitions) of `t` in the cache
    let cached = |t: &crate::sstable::Table| {
        let held = |k: lsm_cache::CacheKey| usize::from(cache.get(&k).is_some());
        let blocks = 0..t.meta().data_blocks.len();
        let partitions = 0..t.meta().filter_partitions.len();
        (
            blocks.map(|i| held(t.data_key(i))).sum::<usize>(),
            partitions.map(|i| held(t.partition_key(i))).sum::<usize>(),
        )
    };
    assert!(
        tables.iter().any(|t| cached(t).1 > 0),
        "the reads must have cached some filter partitions"
    );
    db.major_compact().unwrap();
    let live: std::collections::HashSet<u64> = db.inner.read().version.all_table_ids().into_iter().collect();
    let consumed: Vec<_> = tables.iter().filter(|t| !live.contains(&t.id())).collect();
    assert!(!consumed.is_empty(), "the major compaction must consume tables");
    for t in consumed {
        assert_eq!(cached(t), (0, 0), "table {} left in the cache", t.id());
    }
}

#[test]
fn write_batch_is_one_wal_append_and_reads_like_singles() {
    let cfg = LsmConfig {
        wal: true,
        ..small()
    };
    let db = Db::open_in_memory(cfg).unwrap();
    let mut batch = WriteBatch::new();
    for i in 0..20u32 {
        batch.put(format!("bk{i:03}").into_bytes(), format!("bv{i}").into_bytes());
    }
    batch.delete(b"bk003".to_vec());
    batch.put(b"bk004".to_vec(), b"rewritten".to_vec());
    assert_eq!(batch.len(), 22);
    db.write_batch_mut(&mut batch).unwrap();
    assert!(batch.is_empty(), "a commit drains the batch");
    let s = db.stats().snapshot();
    assert_eq!(s.wal_appends, 1, "a batch must cost one WAL append");
    assert_eq!(s.write_batches, 1);
    assert_eq!(s.batched_writes, 22);
    assert_eq!(s.puts, 21);
    assert_eq!(s.deletes, 1);
    // in-order application: later ops shadow earlier ones
    assert_eq!(db.get(b"bk003").unwrap(), None);
    assert_eq!(db.get(b"bk004").unwrap(), Some(b"rewritten".to_vec()));
    assert_eq!(db.get(b"bk019").unwrap(), Some(b"bv19".to_vec()));
    // an empty batch is a no-op
    db.write_batch_mut(&mut batch).unwrap();
    assert_eq!(db.stats().snapshot().write_batches, 1);
}

#[test]
fn write_batch_survives_crash_recovery() {
    let cfg = LsmConfig {
        wal: true,
        ..small()
    };
    let device: Arc<dyn StorageDevice> =
        Arc::new(lsm_storage::MemDevice::new(cfg.block_size, Default::default()));
    {
        let db = Db::open(Arc::clone(&device), cfg.clone()).unwrap();
        let mut batch = WriteBatch::new();
        for i in 0..50u32 {
            batch.put(format!("ck{i:03}").into_bytes(), format!("cv{i}").into_bytes());
        }
        db.write_batch_mut(&mut batch).unwrap();
        db.sync().unwrap();
        // drop without flush: recovery must come from the batched WAL
    }
    let db = Db::open(device, cfg).unwrap();
    for i in 0..50u32 {
        assert_eq!(
            db.get(format!("ck{i:03}").as_bytes()).unwrap(),
            Some(format!("cv{i}").into_bytes()),
            "ck{i:03}"
        );
    }
}

#[test]
fn replicated_batches_advance_and_persist_the_watermark() {
    let cfg = LsmConfig {
        wal: true,
        ..small()
    };
    let device: Arc<dyn StorageDevice> =
        Arc::new(lsm_storage::MemDevice::new(cfg.block_size, Default::default()));
    {
        let db = Db::open(Arc::clone(&device), cfg.clone()).unwrap();
        assert_eq!(db.applied_seq(), 0, "fresh engine is not a replica");
        let mut batch = WriteBatch::new();
        batch.put(b"rk1".to_vec(), b"rv1".to_vec());
        db.write_batch_replicated(&mut batch, 1).unwrap();
        assert_eq!(db.applied_seq(), 1);
        // an empty batch (all ops routed to other shards) still moves it
        db.write_batch_replicated(&mut WriteBatch::new(), 2).unwrap();
        assert_eq!(db.applied_seq(), 2);
        // the watermark never regresses on out-of-order maxima
        let mut batch = WriteBatch::new();
        batch.put(b"rk2".to_vec(), b"rv2".to_vec());
        db.write_batch_replicated(&mut batch, 1).unwrap();
        assert_eq!(db.applied_seq(), 2);
        // flush writes a manifest carrying the watermark
        db.flush_all().unwrap();
    }
    let db = Db::open(device, cfg).unwrap();
    assert_eq!(db.applied_seq(), 2, "watermark must survive reopen");
    assert_eq!(db.get(b"rk1").unwrap(), Some(b"rv1".to_vec()));
    assert_eq!(db.get(b"rk2").unwrap(), Some(b"rv2".to_vec()));
}

#[test]
fn write_batch_triggers_flush_when_memtable_fills() {
    let db = Db::open_in_memory(small()).unwrap();
    // several batches, together far past buffer_bytes (4 KiB)
    for b in 0..8u32 {
        let mut batch = WriteBatch::new();
        for i in 0..64u32 {
            let id = b * 64 + i;
            batch.put(format!("fk{id:05}").into_bytes(), vec![b as u8; 32]);
        }
        db.write_batch_mut(&mut batch).unwrap();
    }
    db.wait_background_idle();
    assert!(db.stats().snapshot().flushes > 0, "batches must rotate the memtable");
    assert_eq!(db.get(b"fk00000").unwrap(), Some(vec![0u8; 32]));
    assert_eq!(db.get(b"fk00511").unwrap(), Some(vec![7u8; 32]));
}

#[test]
fn flush_all_quiesces_and_empties_memtables() {
    let db = Db::open_in_memory(small()).unwrap();
    for i in 0..800u32 {
        db.put(format!("q{i:05}").into_bytes(), vec![1u8; 16]).unwrap();
    }
    db.flush_all().unwrap();
    let inner = db.inner.read();
    assert_eq!(inner.mem.read().bytes(), 0, "active memtable must be empty");
    assert!(inner.imm.is_none(), "immutable slot must be drained");
    drop(inner);
    assert_eq!(db.get(b"q00799").unwrap(), Some(vec![1u8; 16]));
}

#[test]
fn l0_run_count_tracks_gauge() {
    let db = Db::open_in_memory(small()).unwrap();
    assert_eq!(db.l0_run_count(), 0);
    for i in 0..3000u32 {
        db.put(format!("g{i:06}").into_bytes(), vec![0u8; 16]).unwrap();
    }
    db.wait_background_idle();
    // gauge mirrors the installed version's L0 run count
    let inner = db.inner.read();
    let expect = DbCore::count_l0_runs(&inner.version);
    drop(inner);
    assert_eq!(db.l0_run_count(), expect);
}

#[test]
fn many_writes_trigger_flush_and_compaction() {
    let db = Db::open_in_memory(small()).unwrap();
    for i in 0..3000u32 {
        db.put(
            format!("key{i:06}").as_bytes().to_vec(),
            format!("value{i:06}").into_bytes(),
        )
        .unwrap();
    }
    db.wait_background_idle();
    let s = db.stats().snapshot();
    assert!(s.flushes > 0, "no flush happened");
    assert!(s.compactions > 0, "no compaction happened");
    // everything still readable
    for i in (0..3000u32).step_by(113) {
        let key = format!("key{i:06}");
        assert_eq!(
            db.get(key.as_bytes()).unwrap(),
            Some(format!("value{i:06}").into_bytes()),
            "{key}"
        );
    }
}

#[test]
fn clones_share_one_engine() {
    let db = Db::open_in_memory(small()).unwrap();
    let db2 = db.clone();
    db.put(b"a".to_vec(), b"1".to_vec()).unwrap();
    db2.put(b"b".to_vec(), b"2".to_vec()).unwrap();
    assert_eq!(db2.get(b"a").unwrap(), Some(b"1".to_vec()));
    assert_eq!(db.get(b"b").unwrap(), Some(b"2".to_vec()));
    drop(db);
    // the engine stays alive through the surviving clone
    assert_eq!(db2.get(b"a").unwrap(), Some(b"1".to_vec()));
}

#[test]
fn handle_is_send_sync_clone() {
    fn assert_handle<T: Send + Sync + Clone>() {}
    assert_handle::<Db>();
}

#[test]
fn threaded_mode_basic_workload() {
    let mut cfg = small();
    cfg.background = BackgroundMode::Threaded;
    let db = Db::open_in_memory(cfg).unwrap();
    for i in 0..3000u32 {
        db.put(
            format!("key{i:06}").as_bytes().to_vec(),
            format!("value{i:06}").into_bytes(),
        )
        .unwrap();
    }
    db.wait_background_idle();
    assert!(db.stats().snapshot().flushes > 0, "no flush happened");
    for i in (0..3000u32).step_by(113) {
        let key = format!("key{i:06}");
        assert_eq!(
            db.get(key.as_bytes()).unwrap(),
            Some(format!("value{i:06}").into_bytes()),
            "{key}"
        );
    }
    let got = db
        .scan(b"key000000".to_vec()..b"key003000".to_vec(), usize::MAX)
        .unwrap();
    assert_eq!(got.len(), 3000);
}

#[test]
fn scan_merges_memtable_and_tables() {
    let db = Db::open_in_memory(small()).unwrap();
    for i in 0..500u32 {
        db.put(format!("key{i:04}").into_bytes(), format!("v{i}").into_bytes())
            .unwrap();
    }
    db.flush().unwrap();
    // overwrite a few in the memtable
    db.put(b"key0100".to_vec(), b"NEW".to_vec()).unwrap();
    db.delete(b"key0101".to_vec()).unwrap();
    let got = db.scan(b"key0099".to_vec()..b"key0103".to_vec(), 100).unwrap();
    let keys: Vec<_> = got.iter().map(|(k, _)| k.clone()).collect();
    assert_eq!(
        keys,
        vec![b"key0099".to_vec(), b"key0100".to_vec(), b"key0102".to_vec()]
    );
    assert_eq!(got[1].1, b"NEW".to_vec());
}

#[test]
fn snapshot_scan_with_matches_scan() {
    let db = Db::open_in_memory(small()).unwrap();
    for i in 0..800u32 {
        db.put(format!("key{i:04}").into_bytes(), format!("v{i}").into_bytes())
            .unwrap();
    }
    db.delete(b"key0100".to_vec()).unwrap();
    let scanned = db.scan(b"key0050".to_vec()..b"key0150".to_vec(), usize::MAX).unwrap();
    let mut streamed = Vec::new();
    db.snapshot()
        .unwrap()
        .scan_with(b"key0050", Some(b"key0150"), usize::MAX, |k, v| {
            streamed.push((k.to_vec(), v.to_vec()))
        })
        .unwrap();
    assert_eq!(scanned, streamed);
    assert_eq!(streamed.len(), 99, "100 keys minus one delete");
}

#[test]
fn unbounded_scan_reaches_the_end_of_the_keyspace() {
    let db = Db::open_in_memory(small()).unwrap();
    for i in 0..300u32 {
        db.put(format!("key{i:04}").into_bytes(), b"v".to_vec()).unwrap();
    }
    db.flush().unwrap();
    // a key past any fixed-width "max key" sentinel must still be seen
    db.put(vec![0xFF; 65], b"v".to_vec()).unwrap();
    let snap = db.snapshot().unwrap();
    let n = snap.scan_with(b"key0250", None, usize::MAX, |_, _| {}).unwrap();
    assert_eq!(n, 51);
}

#[test]
fn inverted_and_empty_ranges_are_empty_not_panicking() {
    let db = Db::open_in_memory(small()).unwrap();
    for i in 0..100u32 {
        db.put(format!("k{i:03}").into_bytes(), b"v".to_vec()).unwrap();
    }
    assert!(db.scan(b"k050".to_vec()..b"k010".to_vec(), 10).unwrap().is_empty());
    assert!(db.scan(b"k050".to_vec()..b"k050".to_vec(), 10).unwrap().is_empty());
    let snap = db.snapshot().unwrap();
    assert_eq!(snap.scan_with(b"k050", Some(b"k010"), 10, |_, _| {}).unwrap(), 0);
    assert!(snap.scan(b"z".to_vec()..b"a".to_vec(), 10).unwrap().is_empty());
}

#[test]
fn scan_respects_limit_and_order() {
    let db = Db::open_in_memory(small()).unwrap();
    for i in (0..1000u32).rev() {
        db.put(format!("key{i:04}").into_bytes(), b"v".to_vec()).unwrap();
    }
    let got = db.scan(b"key0000".to_vec()..b"key9999".to_vec(), 17).unwrap();
    assert_eq!(got.len(), 17);
    for w in got.windows(2) {
        assert!(w[0].0 < w[1].0);
    }
    assert_eq!(got[0].0, b"key0000".to_vec());
}

// ---------------------------------------------------------------------------
// The buffer cursor (`ReadView::sources`): a write buffer copied a chunk at a
// time, at the view's seqno ceiling, yields exactly the rows a full copy
// would, and copies at most one chunk beyond the entries the merge consumed
// ---------------------------------------------------------------------------

mod prefix_rule {
    use std::collections::BTreeMap;

    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::super::*;
    use crate::iter::{MergingIter, Source, BUFFER_CHUNK};
    use crate::sstable::{Table, TableBuilder};
    use crate::version::SortedRun;

    /// `(key, Some(value byte))` = put, `(key, None)` = delete.
    type Op = (u8, Option<u8>);
    /// One layer's latest versions: key → (seqno, put value or tombstone).
    type Layer = BTreeMap<Vec<u8>, (u64, Option<Vec<u8>>)>;

    const KEYS: u8 = 48;
    const LIMITS: [usize; 6] = [0, 1, 2, 7, 50, usize::MAX];

    fn key(k: u8) -> Vec<u8> {
        format!("k{k:03}").into_bytes()
    }

    /// `ops` as `(key, seqno, value)` versions, seqnos from `first_seqno`.
    fn versions(ops: &[Op], first_seqno: u64) -> impl Iterator<Item = (Vec<u8>, u64, Option<Vec<u8>>)> + '_ {
        ops.iter()
            .zip(first_seqno..)
            .map(|(&(k, v), seqno)| (key(k), seqno, v.map(|v| vec![v; 1 + v as usize % 4])))
    }

    fn kind_of(v: &Option<Vec<u8>>) -> ValueKind {
        if v.is_some() { ValueKind::Put } else { ValueKind::Delete }
    }

    /// The latest version of every key `ops` touches.
    fn layer(ops: &[Op], first_seqno: u64) -> Layer {
        versions(ops, first_seqno).map(|(k, seqno, v)| (k, (seqno, v))).collect()
    }

    fn insert_all(mem: &mut Memtable, ops: &[Op], first_seqno: u64) {
        for (k, seqno, v) in versions(ops, first_seqno) {
            mem.insert(&k, seqno, kind_of(&v), v.as_deref().unwrap_or(b""));
        }
    }

    fn memtable(ops: &[Op], first_seqno: u64) -> SharedMemtable {
        let mut mem = Memtable::new();
        insert_all(&mut mem, ops, first_seqno);
        Arc::new(parking_lot::RwLock::new(mem))
    }

    /// A version whose one L0 run holds `layer` (empty layer: no run).
    fn version_of(layer: &Layer) -> Version {
        let mut version = Version::new();
        if layer.is_empty() {
            return version;
        }
        let cfg = LsmConfig::small_for_tests();
        let dev: Arc<dyn StorageDevice> =
            Arc::new(lsm_storage::MemDevice::new(cfg.block_size, Default::default()));
        let mut b = TableBuilder::new(dev, &cfg, 10.0).unwrap();
        for (k, (seqno, v)) in layer {
            b.add(k, *seqno, kind_of(v), v.as_deref().unwrap_or(b"")).unwrap();
        }
        let (file, _) = b.finish().unwrap();
        version.ensure_levels(1);
        version.levels[0]
            .runs
            .push(SortedRun::single(Table::open(file, cfg.index).unwrap()));
        version
    }

    /// Builds run ← frozen ← active from the three op lists (oldest
    /// first), then writes `run_ops` once more into the active buffer
    /// above the view's ceiling, and checks every limit × end from
    /// `start`: the rows equal the model's (the late writes invisible),
    /// and each buffer's cursor copied at most one chunk beyond the
    /// entries the merge consumed from it.
    fn check(run_ops: &[Op], imm_ops: &[Op], mem_ops: &[Op], start: u8, span: u8) {
        let imm_first = 1 + run_ops.len() as u64;
        let mem_first = imm_first + imm_ops.len() as u64;
        let ceiling = mem_first + mem_ops.len() as u64 - 1;
        let run = layer(run_ops, 1);
        let imm = layer(imm_ops, imm_first);
        let mem = layer(mem_ops, mem_first);
        let mut model = BTreeMap::new();
        for l in [&run, &imm, &mem] {
            for (k, (_, v)) in l {
                match v {
                    Some(v) => model.insert(k.clone(), v.clone()),
                    None => model.remove(k),
                };
            }
        }
        let version = version_of(&run);
        let stats = crate::DbStats::register(&lsm_obs::MetricsRegistry::new());
        let (start, bounded_end) = (key(start), key(start.saturating_add(span)));
        let active = memtable(mem_ops, mem_first);
        insert_all(&mut active.write(), run_ops, ceiling + 1);
        let frozen = memtable(imm_ops, imm_first);
        let view = ReadView {
            mem: &active,
            imm: Some(&frozen),
            ceiling,
            tables: TableView {
                version: &version,
                cache: None,
                stats: &stats,
                resolve: None,
            },
        };
        for end in [None, Some(bounded_end.as_slice())] {
            let in_range = |k: &[u8]| k >= start.as_slice() && end.is_none_or(|e| k < e);
            for limit in LIMITS {
                let mut rows = Vec::new();
                view.scan_with(&start, end, limit, |k, v| rows.push((k.to_vec(), v.to_vec())))
                    .unwrap();
                let expect: Vec<_> = model
                    .iter()
                    .filter(|(k, _)| in_range(k))
                    .take(limit)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(rows, expect, "end {end:?} limit {limit}");

                // the same merge, kept to look at its buffer cursors after
                let mut merger = MergingIter::new(view.sources(&start, end, limit), false).unwrap();
                let mut last_row = None;
                let mut n = 0;
                while n < limit && merger.advance_visible().unwrap() {
                    if end.is_some_and(|e| merger.key() >= e) {
                        break;
                    }
                    last_row = Some(merger.key().to_vec());
                    n += 1;
                }
                assert_eq!(n, expect.len());
                let chunk = limit.clamp(1, BUFFER_CHUNK);
                for (rank, buffer) in [&mem, &imm].into_iter().enumerate() {
                    let Source::Buffer(cursor) = merger.source(rank) else {
                        panic!("source {rank} must be a buffer cursor");
                    };
                    let ranged: Vec<_> = buffer.keys().filter(|k| in_range(k)).collect();
                    // the merge moved past this buffer's entries up to the last
                    // row, or past all of them when the scan ran out
                    let consumed = match &last_row {
                        Some(last) if n == limit => ranged.iter().filter(|k| **k <= last).count(),
                        _ => ranged.len(),
                    };
                    assert!(cursor.copied <= ranged.len(), "buffer {rank} copied outside its range");
                    assert!(
                        cursor.copied <= consumed + chunk,
                        "buffer {rank}: {} entries copied, {consumed} consumed, chunk {chunk}, limit {limit}",
                        cursor.copied
                    );
                }
            }
        }
    }

    fn arb_ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
        vec((0..KEYS, prop_oneof![3 => any::<u8>().prop_map(Some), 1 => Just(None)]), 0..max)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn limited_scans_match_the_model(
            run_ops in arb_ops(60),
            imm_ops in arb_ops(60),
            mem_ops in arb_ops(60),
            start in 0..KEYS,
            span in 1..KEYS,
        ) {
            check(&run_ops, &imm_ops, &mem_ops, start, span);
        }
    }

    #[test]
    fn rows_come_from_beyond_frozen_puts_the_active_buffer_shadows() {
        // 60 frozen puts — more than any finite limit tried — every one
        // tombstoned (even keys) or overwritten (odd keys) in the active
        // buffer; untouched frozen puts and run-only keys lie beyond them
        let run: Vec<Op> = (0..100).map(|k| (k, Some(1))).collect();
        let imm: Vec<Op> = (0..80).map(|k| (k, Some(2))).collect();
        let mem: Vec<Op> = (0..60).map(|k| (k, (k % 2 == 1).then_some(3))).collect();
        check(&run, &imm, &mem, 0, 100);
        // and with nothing but tombstones in front: rows only from the tail
        let mem: Vec<Op> = (0..60).map(|k| (k, None)).collect();
        check(&run, &imm, &mem, 0, 100);
    }

    #[test]
    fn a_range_that_opens_with_tombstones_is_copied_through_them() {
        // the first 3 × 50 active entries are tombstones over live run
        // keys; the rows start at the first put behind them
        let run: Vec<Op> = (0..200).map(|k| (k, Some(1))).collect();
        let mem: Vec<Op> = (0..150)
            .map(|k| (k, None))
            .chain((150..200).map(|k| (k, Some(4))))
            .collect();
        check(&run, &[], &mem, 0, 200);
        check(&run, &mem, &[], 0, 200);
    }

    #[test]
    fn a_limit_larger_than_the_range_copies_the_range() {
        let run: Vec<Op> = (0..30).map(|k| (k, Some(1))).collect();
        let imm: Vec<Op> = (5..15).map(|k| (k, Some(2))).collect();
        let mem: Vec<Op> = vec![(7, None), (8, Some(3)), (20, Some(3))];
        // 12 keys in [k005, k017): limits 50 and MAX exceed it
        check(&run, &imm, &mem, 5, 12);
        check(&[], &[], &[], 0, 10);
    }
}
