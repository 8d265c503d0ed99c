//! The parallel-compaction differential battery.
//!
//! Headline guarantee of the sub-compaction work: for any workload and
//! any shard fan-out, the parallel compaction path produces **byte
//! identical** SSTs and version state to the serial path. This battery
//! enforces it at three granularities:
//!
//! 1. **Engine differential** — two Inline engines run the same seeded
//!    workload with `max_subcompactions` 1 vs 4; manifests, every table's
//!    raw bytes, stats, and the event-trace accounting must match.
//! 2. **Merge differential** — `merge_tables` vs `merge_tables_sharded`
//!    over the same inputs for every fan-out 1..=8, plus a proptest over
//!    random keyspaces/deletes/overwrites *and* arbitrary shard-boundary
//!    choices (not just the balanced ones the engine picks).
//! 3. **Policy properties** — the file picker (in-range, round-robin
//!    coverage) is model-checked under random drives.
//!
//! Reproducibility: every randomized test derives its seed from
//! `LSM_SEED` when set (`LSM_SEED=... cargo test ...`) and prints the
//! seed it used, so a failure replays exactly.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lsm_core::compaction::exec::merge_tables;
use lsm_core::compaction::picker::pick_file;
use lsm_core::compaction::subcompact::{merge_tables_sharded, shard_boundaries};
use lsm_core::manifest::{find_record, ManifestState, MANIFEST_MAGIC};
use lsm_core::sstable::{Table, TableBuilder};
use lsm_core::{
    BackgroundMode, Db, EventKind, FilePicker, IndexKind, LsmConfig, SortedRun, ValueKind,
};
use lsm_storage::{DeviceProfile, FileId, IoCategory, MemDevice, StorageDevice};

/// Seed for the non-proptest randomized tests: `LSM_SEED` env override,
/// otherwise a fixed default. Printed by every user so failures replay.
fn seed() -> u64 {
    match std::env::var("LSM_SEED") {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("LSM_SEED must be a u64, got {s:?}")),
        Err(_) => 0xC0FF_EE00_5EED,
    }
}

fn device(block: usize) -> Arc<dyn StorageDevice> {
    Arc::new(MemDevice::new(block, DeviceProfile::free()))
}

fn cfg(max_subcompactions: usize, background: BackgroundMode) -> LsmConfig {
    LsmConfig {
        buffer_bytes: 2 << 10,
        block_size: 256,
        target_table_bytes: 2 << 10,
        size_ratio: 3,
        l0_run_cap: 2,
        wal: false,
        cache_bytes: 0,
        max_subcompactions,
        background,
        background_workers: 2,
        ..LsmConfig::default()
    }
}

/// One scripted op; generation is shared by every engine under test so
/// identical seeds produce identical workloads.
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
}

fn workload(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let k: u32 = rng.gen_range(0u32..240);
        let key = format!("key{k:05}").into_bytes();
        if rng.gen_bool(0.18) {
            ops.push(Op::Delete(key));
        } else {
            let len = rng.gen_range(20usize..90);
            let byte: u8 = rng.gen_range(0u8..255);
            ops.push(Op::Put(key, vec![byte; len]));
        }
    }
    ops
}

fn apply(db: &Db, oracle: &mut BTreeMap<Vec<u8>, Vec<u8>>, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Put(k, v) => {
                db.put(k.clone(), v.clone()).unwrap();
                oracle.insert(k.clone(), v.clone());
            }
            Op::Delete(k) => {
                db.delete(k.clone()).unwrap();
                oracle.remove(k);
            }
        }
    }
}

fn file_bytes(dev: &Arc<dyn StorageDevice>, id: u64) -> Vec<u8> {
    let f = FileId(id);
    let n = dev.len_blocks(f).unwrap();
    dev.read(f, 0, n, IoCategory::Misc).unwrap()
}

/// Checks per-shard conservation in `events` and that shard sums match
/// their enclosing compaction's `CompactionEnd` accounting. Returns the
/// number of subcompaction-end events seen.
fn check_event_conservation(events: &[lsm_core::Event]) -> usize {
    #[derive(Default)]
    struct Sums {
        entries_in: u64,
        written: u64,
        tombstones: u64,
        versions: u64,
    }
    let mut per_compaction: BTreeMap<u64, Sums> = BTreeMap::new();
    let mut shard_ends = 0;
    for e in events {
        if let EventKind::SubcompactionEnd {
            compaction,
            input_entries,
            entries_written,
            tombstones_dropped,
            versions_dropped,
            ..
        } = &e.kind
        {
            assert_eq!(
                *input_entries,
                entries_written + tombstones_dropped + versions_dropped,
                "shard accounting must conserve (event seq {})",
                e.seq
            );
            let s = per_compaction.entry(*compaction).or_default();
            s.entries_in += input_entries;
            s.written += entries_written;
            s.tombstones += tombstones_dropped;
            s.versions += versions_dropped;
            shard_ends += 1;
        }
    }
    for e in events {
        if let EventKind::CompactionEnd {
            id,
            input_entries,
            entries_written,
            tombstones_dropped,
            versions_dropped,
            ..
        } = &e.kind
        {
            if let Some(s) = per_compaction.get(id) {
                assert_eq!(s.entries_in, *input_entries, "compaction {id}: Σ shard inputs");
                assert_eq!(s.written, *entries_written, "compaction {id}: Σ shard writes");
                assert_eq!(s.tombstones, *tombstones_dropped, "compaction {id}: Σ shard GC");
                assert_eq!(s.versions, *versions_dropped, "compaction {id}: Σ shard drops");
            }
        }
    }
    shard_ends
}

/// The tentpole check: two Inline engines, identical seeded workload,
/// `max_subcompactions` 1 vs 4 → byte-identical tables, equal manifests,
/// equal stats, matching oracle reads, conserved shard accounting.
#[test]
fn inline_engine_differential_serial_vs_sharded() {
    let seed = seed();
    eprintln!("inline_engine_differential_serial_vs_sharded: LSM_SEED={seed}");
    let ops = workload(seed, 1600);

    let dev_serial = device(256);
    let dev_parallel = device(256);
    let db_serial = Db::open(Arc::clone(&dev_serial), cfg(1, BackgroundMode::Inline)).unwrap();
    let db_parallel = Db::open(Arc::clone(&dev_parallel), cfg(4, BackgroundMode::Inline)).unwrap();

    let mut oracle = BTreeMap::new();
    let mut shadow = BTreeMap::new();
    let mut parallel_events = Vec::new();
    for chunk in ops.chunks(200) {
        apply(&db_serial, &mut oracle, chunk);
        apply(&db_parallel, &mut shadow, chunk);
        parallel_events.extend(db_parallel.drain_events());
    }
    db_serial.flush().unwrap();
    db_parallel.flush().unwrap();
    db_serial.compact().unwrap();
    db_parallel.compact().unwrap();
    parallel_events.extend(db_parallel.drain_events());
    assert_eq!(db_parallel.events_dropped(), 0, "ring must not drop mid-test");

    // version state: identical manifests (same levels, same table ids)
    let manifest = |dev| {
        find_record(dev, MANIFEST_MAGIC, ManifestState::from_bytes)
            .unwrap()
            .unwrap()
    };
    let ((_, m_serial), (_, m_parallel)) = (manifest(&dev_serial), manifest(&dev_parallel));
    assert_eq!(m_serial, m_parallel, "manifest state must be identical");

    // every referenced table byte-identical across the two devices
    let mut tables_checked = 0;
    for level in &m_serial.levels {
        for run in level {
            for &id in run {
                assert_eq!(
                    file_bytes(&dev_serial, id),
                    file_bytes(&dev_parallel, id),
                    "table {id} must be byte-identical"
                );
                tables_checked += 1;
            }
        }
    }
    assert!(tables_checked > 0, "workload must actually build tables");

    // merge accounting identical
    let s = db_serial.stats().snapshot();
    let p = db_parallel.stats().snapshot();
    assert_eq!(s.compactions, p.compactions);
    assert_eq!(s.compaction_entries, p.compaction_entries);
    assert_eq!(s.tombstones_dropped, p.tombstones_dropped);
    assert_eq!(s.versions_dropped, p.versions_dropped);

    // the parallel engine really sharded, and its shard accounting
    // conserves and sums to the per-compaction accounting
    let shard_ends = check_event_conservation(&parallel_events);
    assert!(shard_ends > 0, "expected at least one sharded compaction");

    // reads agree with the oracle on both engines
    assert_eq!(oracle, shadow);
    for (k, v) in &oracle {
        assert_eq!(db_serial.get(k).unwrap().as_deref(), Some(v.as_slice()));
        assert_eq!(db_parallel.get(k).unwrap().as_deref(), Some(v.as_slice()));
    }
    let scan_s = db_serial.scan(b"key".to_vec()..b"kez".to_vec(), usize::MAX).unwrap();
    let scan_p = db_parallel.scan(b"key".to_vec()..b"kez".to_vec(), usize::MAX).unwrap();
    assert_eq!(scan_s, scan_p);
    assert_eq!(scan_s.len(), oracle.len());
}

/// Known-answer digests of every byte the engine writes: a fixed-seed
/// Inline engine loads, updates and deletes through flushes, a
/// multi-level cascade and last-level tombstone GC. Two pinned literals:
/// - `CONTENT_DIGEST`, `hash64` over every live table's bytes in key
///   order (level by level, run by run), which no file id enters: it
///   moves only when an output byte or a table boundary does;
/// - `DIGEST`, `hash64` over every live file (in file-id order) with its
///   id, the manifest included: it also moves when the engine writes
///   more or fewer files (a manifest per merge frontier, say).
///
/// The literals change only with a deliberate format change.
#[test]
fn merged_bytes_match_their_known_answer_digest() {
    const CONTENT_DIGEST: u64 = 0xd6cf_e6d8_a99e_3b8b;
    const DIGEST: u64 = 0x4423_a184_b755_86f7;
    let dev = device(256);
    let db = Db::open(Arc::clone(&dev), cfg(1, BackgroundMode::Inline)).unwrap();
    let mut rng = StdRng::seed_from_u64(0xD16E57);
    let mut oracle = BTreeMap::new();
    let mut deepest = 0;
    // load, update, delete half, then load past the deletes so the
    // cascade carries their tombstones down to the last level
    for phase in 0..4u32 {
        for i in 0..900u32 {
            let k: u32 = match phase {
                1 | 2 => rng.gen_range(0u32..900),
                _ => phase * 900 + i,
            };
            let key = format!("key{k:05}").into_bytes();
            if phase == 2 && rng.gen_bool(0.5) {
                db.delete(key.clone()).unwrap();
                oracle.remove(&key);
            } else {
                let value = vec![rng.gen_range(0u8..255); rng.gen_range(20usize..90)];
                db.put(key.clone(), value.clone()).unwrap();
                oracle.insert(key, value);
            }
            let levels = db.level_summary();
            deepest = deepest.max(levels.iter().filter(|(runs, _, _)| *runs > 0).count());
        }
    }
    db.flush().unwrap();
    db.compact().unwrap();
    let stats = db.stats().snapshot();
    assert!(stats.flushes > 10, "{} flushes", stats.flushes);
    assert!(deepest >= 3, "the cascade reached only {deepest} levels");
    assert!(stats.tombstones_dropped > 0, "no tombstone was garbage-collected");
    for (k, v) in &oracle {
        assert_eq!(db.get(k).unwrap().as_deref(), Some(v.as_slice()));
    }
    let mut files = dev.live_files();
    files.sort();
    let mut summary = Vec::with_capacity(files.len() * 16);
    for f in &files {
        summary.extend_from_slice(&f.0.to_le_bytes());
        summary.extend_from_slice(&lsm_filters::hash::hash64(&file_bytes(&dev, f.0)).to_le_bytes());
    }
    let digest = lsm_filters::hash::hash64(&summary);
    let (_, manifest) = find_record(&dev, MANIFEST_MAGIC, ManifestState::from_bytes)
        .unwrap()
        .unwrap();
    let tables: Vec<u64> = manifest.levels.iter().flatten().flatten().copied().collect();
    let mut contents = Vec::with_capacity(tables.len() * 8);
    for &id in &tables {
        contents.extend_from_slice(&lsm_filters::hash::hash64(&file_bytes(&dev, id)).to_le_bytes());
    }
    let content_digest = lsm_filters::hash::hash64(&contents);
    assert_eq!(
        content_digest,
        CONTENT_DIGEST,
        "{} live tables hash to {content_digest:#018x}: the merged bytes or table boundaries moved",
        tables.len()
    );
    assert_eq!(
        digest,
        DIGEST,
        "{} live files hash to {digest:#018x}: the merged bytes or table boundaries moved",
        files.len()
    );
}

/// Threaded engine with sharded compactions: reads match the oracle and
/// shard accounting conserves. (Timing makes the manifest legitimately
/// different from Inline, so the byte-level claims stay with the Inline
/// differential above.)
#[test]
fn threaded_engine_sharded_matches_oracle() {
    let seed = seed().wrapping_add(1);
    eprintln!("threaded_engine_sharded_matches_oracle: LSM_SEED={seed}");
    let ops = workload(seed, 1600);
    let dev = device(256);
    let db = Db::open(Arc::clone(&dev), cfg(4, BackgroundMode::Threaded)).unwrap();
    let mut oracle = BTreeMap::new();
    let mut events = Vec::new();
    for chunk in ops.chunks(200) {
        apply(&db, &mut oracle, chunk);
        events.extend(db.drain_events());
    }
    db.flush().unwrap();
    db.compact().unwrap();
    db.wait_background_idle();
    events.extend(db.drain_events());
    check_event_conservation(&events);
    for (k, v) in &oracle {
        assert_eq!(db.get(k).unwrap().as_deref(), Some(v.as_slice()), "key {k:?}");
    }
    let scan = db.scan(b"key".to_vec()..b"kez".to_vec(), usize::MAX).unwrap();
    assert_eq!(scan.len(), oracle.len());
    for ((k, v), (ok, ov)) in scan.iter().zip(oracle.iter()) {
        assert_eq!((k, v), (ok, ov));
    }
}

// ---------------------------------------------------------------------
// Merge-level differential
// ---------------------------------------------------------------------

fn merge_cfg() -> LsmConfig {
    LsmConfig {
        block_size: 256,
        target_table_bytes: 2 << 10,
        ..LsmConfig::small_for_tests()
    }
}

/// Builds one table per run from `(key, seqno, kind, value)` entries.
/// Entries are deduped by key (newest wins) and sorted, matching what a
/// flush would produce.
fn build_run(
    dev: &Arc<dyn StorageDevice>,
    entries: &[(Vec<u8>, u64, ValueKind, Vec<u8>)],
) -> Option<Arc<Table>> {
    let mut newest: BTreeMap<Vec<u8>, (u64, ValueKind, Vec<u8>)> = BTreeMap::new();
    for (k, s, kind, v) in entries {
        match newest.get(k) {
            Some((old_s, _, _)) if *old_s >= *s => {}
            _ => {
                newest.insert(k.clone(), (*s, *kind, v.clone()));
            }
        }
    }
    if newest.is_empty() {
        return None;
    }
    let mut b = TableBuilder::new(Arc::clone(dev), &merge_cfg(), 10.0).unwrap();
    for (k, (s, kind, v)) in &newest {
        b.add(k, *s, *kind, v).unwrap();
    }
    let (f, _) = b.finish().unwrap();
    Some(Table::open(f, IndexKind::Fence).unwrap())
}

/// Splits a sequential op stream into `runs` tables, oldest ops first, so
/// younger runs always carry the higher seqnos per key (the LSM
/// invariant). Returns tables **young-first** as merges expect them.
fn build_inputs(
    dev: &Arc<dyn StorageDevice>,
    ops: &[(Vec<u8>, ValueKind, Vec<u8>)],
    runs: usize,
) -> Vec<Arc<Table>> {
    let per = ops.len().div_ceil(runs.max(1));
    let mut tables = Vec::new();
    for (r, chunk) in ops.chunks(per.max(1)).enumerate() {
        let entries: Vec<(Vec<u8>, u64, ValueKind, Vec<u8>)> = chunk
            .iter()
            .enumerate()
            .map(|(i, (k, kind, v))| (k.clone(), (r * per + i + 1) as u64, *kind, v.clone()))
            .collect();
        if let Some(t) = build_run(dev, &entries) {
            tables.push(t);
        }
    }
    tables.reverse(); // young first
    tables
}

fn assert_merges_identical(
    dev: &Arc<dyn StorageDevice>,
    inputs: &[Arc<Table>],
    drop_tombstones: bool,
    boundaries: &[Vec<u8>],
) {
    let serial = merge_tables(dev, &merge_cfg(), IndexKind::Fence, 10.0, inputs, drop_tombstones)
        .unwrap();
    let sharded = merge_tables_sharded(
        dev,
        &merge_cfg(),
        IndexKind::Fence,
        10.0,
        inputs,
        drop_tombstones,
        boundaries,
    )
    .unwrap();
    assert_eq!(serial.entries_written, sharded.merge.entries_written);
    assert_eq!(serial.tombstones_dropped, sharded.merge.tombstones_dropped);
    assert_eq!(serial.versions_dropped, sharded.merge.versions_dropped);
    assert_eq!(serial.output_bytes, sharded.merge.output_bytes);
    assert_eq!(serial.tables.len(), sharded.merge.tables.len());
    for (a, b) in serial.tables.iter().zip(&sharded.merge.tables) {
        assert_eq!(
            file_bytes(dev, a.id()),
            file_bytes(dev, b.id()),
            "sharded output must be byte-identical to serial"
        );
    }
    // conservation: per shard, in aggregate, and against the real input
    // entry count (the boundary partition loses and duplicates nothing)
    let input_total: u64 = inputs.iter().map(|t| t.meta().num_entries).sum();
    let mut in_sum = 0;
    for s in &sharded.shards {
        assert_eq!(
            s.entries_in,
            s.entries_written + s.tombstones_dropped + s.versions_dropped
        );
        in_sum += s.entries_in;
    }
    assert_eq!(in_sum, input_total, "shards must partition the inputs exactly");
    assert_eq!(
        in_sum,
        sharded.merge.entries_written
            + sharded.merge.tombstones_dropped
            + sharded.merge.versions_dropped
    );
}

/// Engine-chosen boundaries at every fan-out 1..=8 over a seeded random
/// keyspace with deletes and overwrites.
#[test]
fn merge_fanout_sweep_byte_identical() {
    let seed = seed().wrapping_add(2);
    eprintln!("merge_fanout_sweep_byte_identical: LSM_SEED={seed}");
    let mut rng = StdRng::seed_from_u64(seed);
    let dev = device(256);
    let mut ops: Vec<(Vec<u8>, ValueKind, Vec<u8>)> = Vec::new();
    for _ in 0..900 {
        let k: u32 = rng.gen_range(0u32..300);
        let key = format!("key{k:05}").into_bytes();
        if rng.gen_bool(0.2) {
            ops.push((key, ValueKind::Delete, Vec::new()));
        } else {
            let len = rng.gen_range(10usize..60);
            ops.push((key, ValueKind::Put, vec![(k % 251) as u8; len]));
        }
    }
    let inputs = build_inputs(&dev, &ops, 3);
    assert!(inputs.len() > 1);
    for fanout in 1..=8usize {
        let boundaries = shard_boundaries(&inputs, fanout);
        assert!(boundaries.len() < fanout.max(1));
        for drop_tombstones in [false, true] {
            assert_merges_identical(&dev, &inputs, drop_tombstones, &boundaries);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite 1: random keyspaces + deletes + overwrites ⇒ sharded
    /// merge output is byte-identical to serial for *arbitrary* boundary
    /// choices (not just engine-balanced ones), with conservation per
    /// shard and in aggregate.
    #[test]
    fn sharded_merge_equals_serial_for_any_boundaries(
        raw in vec((0u16..120, any::<bool>(), 0u8..250), 1..260),
        cut_keys in vec(0u16..140, 0..7),
        runs in 1usize..4,
        drop_tombstones in any::<bool>(),
    ) {
        let dev = device(256);
        let ops: Vec<(Vec<u8>, ValueKind, Vec<u8>)> = raw
            .iter()
            .map(|(k, del, v)| {
                let key = format!("key{k:05}").into_bytes();
                if *del {
                    (key, ValueKind::Delete, Vec::new())
                } else {
                    (key, ValueKind::Put, vec![*v; (*v as usize % 40) + 5])
                }
            })
            .collect();
        let inputs = build_inputs(&dev, &ops, runs);
        prop_assume!(!inputs.is_empty());
        // arbitrary boundaries: sorted, deduped, possibly out of range or
        // splitting mid-key-range — all must be harmless
        let mut boundaries: Vec<Vec<u8>> = cut_keys
            .iter()
            .map(|k| format!("key{k:05}").into_bytes())
            .collect();
        boundaries.sort();
        boundaries.dedup();
        assert_merges_identical(&dev, &inputs, drop_tombstones, &boundaries);
    }

    /// Picker properties: every picker returns an in-range index, and
    /// round-robin visits every table across `len` consecutive picks.
    #[test]
    fn picker_in_range_and_round_robin_covers(
        sizes in vec(2usize..12, 1..5),
        cursor0 in 0usize..100,
    ) {
        let dev = device(256);
        // disjoint tables: table i covers keys [i*1000, i*1000+size)
        let tables: Vec<Arc<Table>> = sizes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let entries: Vec<(Vec<u8>, u64, ValueKind, Vec<u8>)> = (0..*n)
                    .map(|j| {
                        (
                            format!("key{:07}", i * 1000 + j).into_bytes(),
                            (i * 100 + j + 1) as u64,
                            if j % 3 == 0 { ValueKind::Delete } else { ValueKind::Put },
                            vec![1u8; 8],
                        )
                    })
                    .collect();
                build_run(&dev, &entries).unwrap()
            })
            .collect();
        let run = SortedRun::from_tables(tables.clone());
        let next = SortedRun::from_tables(vec![build_run(
            &dev,
            &[(b"key0000000".to_vec(), 1, ValueKind::Put, vec![2u8; 8])],
        )
        .unwrap()]);
        for picker in [
            FilePicker::RoundRobin,
            FilePicker::MinOverlap,
            FilePicker::Coldest,
            FilePicker::Oldest,
            FilePicker::MostTombstones,
        ] {
            let mut cursor = cursor0;
            let idx = pick_file(picker, &run, Some(&next), &mut cursor);
            prop_assert!(idx < run.tables.len(), "{picker:?} out of range");
        }
        // round-robin coverage
        let mut cursor = cursor0;
        let mut seen = vec![false; run.tables.len()];
        for _ in 0..run.tables.len() {
            seen[pick_file(FilePicker::RoundRobin, &run, None, &mut cursor)] = true;
        }
        prop_assert!(seen.iter().all(|s| *s), "round-robin must cover all tables");
    }
}
