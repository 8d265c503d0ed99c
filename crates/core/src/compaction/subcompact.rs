//! Key-range sub-compactions: one merge job split into shards that can
//! fan out across the background worker pool (Sarkar et al.'s *degree of
//! parallelism* axis of the compaction design space).
//!
//! ## Determinism by construction
//!
//! The headline guarantee is that the sharded path produces **byte
//! identical** output tables (and therefore an identical manifest) to the
//! serial [`merge_tables`](super::exec::merge_tables) path, for any shard
//! count and any boundary choice. That falls out of the phase split:
//!
//! 1. **Shard phase (parallel).** Each shard merges its key range
//!    `[lo, hi)` of the inputs into one flat in-memory buffer, with
//!    per-shard conserved accounting (`entries_in = written +
//!    tombstones_dropped + versions_dropped`). Shards touch disjoint key
//!    ranges, so their outputs concatenate into exactly the entry stream
//!    the serial merge would have produced.
//! 2. **Stitch phase (serial).** The concatenated stream is fed through
//!    the same `OutputWriter` cut loop the
//!    serial path uses, so output tables are cut at the same entries and
//!    files are allocated in the same order. The cut loop reports the same
//!    seals too, so the engine's frontier installs (and the manifest files
//!    they write) fall at the same points on both paths.
//!
//! Parallelism therefore accelerates the read/merge/GC phase (the bulk of
//! compaction work) while file layout stays bit-for-bit reproducible.
//!
//! Boundaries come from the input tables' index blocks
//! ([`shard_boundaries`]): fence keys are weighted by their block's entry
//! count, so shards receive balanced entry counts even when input tables
//! are skewed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use lsm_index::IndexKind;
use lsm_storage::{StorageDevice, StorageError, StorageResult};

use super::exec::{MergeResult, OnSeal, OutputWriter};
use crate::background::{BgState, ShardTask};
use crate::config::LsmConfig;
use crate::entry::ValueKind;
use crate::iter::{BoundedTableIter, MemSource, MergingIter, Source};
use crate::sstable::Table;
use crate::version::RunTable;

/// One shard's merged output: the visible entries of its key range plus
/// the accounting needed to prove conservation.
pub struct ShardMerge {
    /// Visible entries (newest version per key, tombstones GC'd when
    /// allowed), in ascending key order, back to back in one buffer.
    pub entries: MemSource,
    /// Input entries the shard consumed (every version, every source).
    pub entries_in: u64,
    /// Tombstones garbage-collected by this shard.
    pub tombstones_dropped: u64,
}

impl ShardMerge {
    /// Shadowed versions dropped: the conservation residue
    /// `entries_in - written - tombstones_dropped`.
    pub fn versions_dropped(&self) -> u64 {
        self.entries_in
            .saturating_sub(self.entries.len() as u64)
            .saturating_sub(self.tombstones_dropped)
    }
}

/// Per-shard accounting retained after the stitch consumed the entries.
#[derive(Clone, Copy, Debug)]
pub struct ShardAccounting {
    /// Input entries the shard consumed.
    pub entries_in: u64,
    /// Visible entries the shard contributed to the output.
    pub entries_written: u64,
    /// Tombstones the shard garbage-collected.
    pub tombstones_dropped: u64,
    /// Shadowed versions the shard dropped.
    pub versions_dropped: u64,
}

/// A sharded merge's outcome: the (byte-identical-to-serial) merge result
/// plus per-shard accounting for the event trace.
pub struct ShardedMergeResult {
    /// The stitched outputs and aggregate accounting — field-for-field
    /// what serial [`merge_tables`](super::exec::merge_tables) returns.
    pub merge: MergeResult,
    /// Per-shard accounting, one entry per key-range shard in order.
    pub shards: Vec<ShardAccounting>,
}

/// Picks up to `max_shards - 1` boundary keys from the input tables'
/// fence pointers (per-data-block last keys), weighted by each block's
/// approximate entry count so the resulting shards hold balanced entry
/// counts. Returned boundaries are strictly increasing; shard `i` covers
/// `[boundaries[i-1], boundaries[i])` with the first shard unbounded
/// below and the last unbounded above.
///
/// A boundary is the *successor* of a fence key (`fence ++ 0x00`), so a
/// fence's own block stays whole inside the left shard.
pub fn shard_boundaries(inputs: &[Arc<Table>], max_shards: usize) -> Vec<Vec<u8>> {
    if max_shards <= 1 {
        return Vec::new();
    }
    // candidate cut points: every block's last key, weighted by the
    // table's average entries per block (the index has no per-block count)
    let mut cands: Vec<(Vec<u8>, u64)> = Vec::new();
    for t in inputs {
        let m = t.meta();
        let blocks = m.fences.len().max(1) as u64;
        let weight = (m.num_entries / blocks).max(1);
        for fence in &m.fences {
            let mut key = fence.clone();
            key.push(0);
            cands.push((key, weight));
        }
    }
    cands.sort();
    let total: u64 = cands.iter().map(|(_, w)| w).sum();
    if total == 0 {
        return Vec::new();
    }
    let shards = max_shards as u64;
    let mut out: Vec<Vec<u8>> = Vec::new();
    let mut acc = 0u64;
    let mut next_cut = 1u64;
    for (key, w) in cands {
        acc += w;
        // cut after crossing each i/shards fraction of the total weight
        if next_cut < shards && acc * shards >= total * next_cut {
            if out.last() != Some(&key) {
                out.push(key);
            }
            while next_cut < shards && acc * shards >= total * next_cut {
                next_cut += 1;
            }
        }
    }
    // a trailing boundary at (or past) the global max key would only make
    // an empty shard; harmless, but trim it for tidiness
    if let Some(max_key) = inputs.iter().map(|t| t.meta().max_key.clone()).max() {
        while out.last().is_some_and(|b| b.as_slice() > max_key.as_slice()) {
            out.pop();
        }
    }
    out
}

/// Merges one key-range shard `[lo, hi)` of `inputs_young_first` into
/// memory, with the same youngest-wins / tombstone-GC semantics as the
/// serial merge (it reuses [`MergingIter`] verbatim). Each input is read
/// only above its floor.
pub fn merge_shard(
    inputs_young_first: &[RunTable],
    lo: &[u8],
    hi: Option<&[u8]>,
    drop_tombstones: bool,
) -> StorageResult<ShardMerge> {
    let pulled = Arc::new(AtomicU64::new(0));
    let mut sources = Vec::new();
    for t in inputs_young_first {
        let m = t.table.meta();
        // skip tables entirely outside the shard range (no I/O at all);
        // relative youngest-first order of the rest is preserved
        if m.max_key.as_slice() < lo {
            continue;
        }
        if let Some(hi) = hi {
            if m.min_key.as_slice() >= hi {
                continue;
            }
        }
        sources.push(Source::BoundedTable(BoundedTableIter::new(
            t,
            lo,
            hi.map(|h| h.to_vec()),
            Arc::clone(&pulled),
        )?));
    }
    let mut merger = MergingIter::new(sources, true)?;
    let mut entries = MemSource::default();
    let mut tombstones_dropped = 0u64;
    while merger.advance_visible()? {
        if drop_tombstones && merger.kind() == ValueKind::Delete {
            tombstones_dropped += 1;
            continue;
        }
        entries.push(merger.current());
    }
    Ok(ShardMerge {
        entries,
        entries_in: pulled.load(Ordering::Relaxed),
        tombstones_dropped,
    })
}

/// Expands `boundaries` into the shard ranges `[lo, hi)` they induce.
fn shard_ranges(boundaries: &[Vec<u8>]) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
    let mut ranges = Vec::with_capacity(boundaries.len() + 1);
    let mut lo: Vec<u8> = Vec::new();
    for b in boundaries {
        ranges.push((lo.clone(), Some(b.clone())));
        lo = b.clone();
    }
    ranges.push((lo, None));
    ranges
}

/// Runs every shard of `boundaries` over `inputs` as tasks of `bg`'s
/// queue, returning the per-shard merges in shard (= key) order. With
/// workers the shards fan out across them; with none the calling thread
/// runs them in queue order, one after another.
pub(crate) fn run_shards(
    inputs: &[RunTable],
    boundaries: &[Vec<u8>],
    drop_tombstones: bool,
    bg: &BgState,
) -> StorageResult<Vec<ShardMerge>> {
    let ranges = shard_ranges(boundaries);
    let n = ranges.len();
    let slots: Arc<Mutex<Vec<Option<StorageResult<ShardMerge>>>>> =
        Arc::new(Mutex::new((0..n).map(|_| None).collect()));
    let mut tasks: Vec<ShardTask> = Vec::with_capacity(n);
    for (i, (lo, hi)) in ranges.into_iter().enumerate() {
        let inputs: Vec<RunTable> = inputs.to_vec();
        let slots = Arc::clone(&slots);
        tasks.push(Box::new(move || {
            let r = merge_shard(&inputs, &lo, hi.as_deref(), drop_tombstones);
            slots.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(r);
        }));
    }
    bg.run_shard_batch(tasks);
    let mut slots = slots.lock().unwrap_or_else(PoisonError::into_inner);
    slots
        .iter_mut()
        .map(|s| {
            s.take().unwrap_or_else(|| {
                Err(StorageError::Corruption(
                    "sub-compaction shard produced no result".into(),
                ))
            })
        })
        .collect()
}

/// Sharded equivalent of [`merge_tables`](super::exec::merge_tables):
/// merges each boundary-induced key range independently (one after
/// another here; the engine's queue fans them out to its workers), then
/// stitches the shard
/// streams through the shared output cut loop. Output tables, accounting,
/// and manifest effect are byte-identical to the serial merge for **any**
/// `boundaries` — the property the differential battery enforces.
pub fn merge_tables_sharded(
    device: &Arc<dyn StorageDevice>,
    cfg: &LsmConfig,
    index_kind: IndexKind,
    bits_per_key: f64,
    inputs_young_first: &[Arc<Table>],
    drop_tombstones: bool,
    boundaries: &[Vec<u8>],
) -> StorageResult<ShardedMergeResult> {
    merge_tables_sharded_with(
        device,
        cfg,
        index_kind,
        bits_per_key,
        inputs_young_first.iter().cloned().map(RunTable::from).collect(),
        drop_tombstones,
        boundaries,
        &BgState::new(0),
        &mut |_| Ok(()),
    )
}

/// [`merge_tables_sharded`] over inputs that may carry floors, with an
/// explicit queue to run the shards on (the engine passes its own),
/// reporting each mid-stream seal of the stitch to `on_seal`. The inputs'
/// handles are released once the shard phase has read them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_tables_sharded_with(
    device: &Arc<dyn StorageDevice>,
    cfg: &LsmConfig,
    index_kind: IndexKind,
    bits_per_key: f64,
    inputs_young_first: Vec<RunTable>,
    drop_tombstones: bool,
    boundaries: &[Vec<u8>],
    bg: &BgState,
    on_seal: OnSeal<'_>,
) -> StorageResult<ShardedMergeResult> {
    let shard_merges = run_shards(&inputs_young_first, boundaries, drop_tombstones, bg)?;
    // counted as the serial merge counts it: entries below an input's
    // floor, which no shard reads, are dropped versions there too
    let entries_in_total: u64 = inputs_young_first.iter().map(|t| t.table.meta().num_entries).sum();
    drop(inputs_young_first);
    let mut writer = OutputWriter::new(device, cfg, index_kind, bits_per_key, on_seal);
    let mut shards = Vec::with_capacity(shard_merges.len());
    let mut tombstones_total = 0u64;
    for sm in &shard_merges {
        for e in sm.entries.iter() {
            writer.push(e)?;
        }
        shards.push(ShardAccounting {
            entries_in: sm.entries_in,
            entries_written: sm.entries.len() as u64,
            tombstones_dropped: sm.tombstones_dropped,
            versions_dropped: sm.versions_dropped(),
        });
        tombstones_total += sm.tombstones_dropped;
    }
    let (tables, entries_written) = writer.finish()?;
    let versions_dropped = entries_in_total
        .saturating_sub(entries_written)
        .saturating_sub(tombstones_total);
    let output_bytes = tables.iter().map(|t| t.data_bytes()).sum();
    Ok(ShardedMergeResult {
        merge: MergeResult {
            tables,
            entries_written,
            tombstones_dropped: tombstones_total,
            versions_dropped,
            output_bytes,
        },
        shards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::TableBuilder;
    use lsm_storage::{DeviceProfile, MemDevice};

    fn device() -> Arc<dyn StorageDevice> {
        Arc::new(MemDevice::new(512, DeviceProfile::free()))
    }

    fn cfg() -> LsmConfig {
        LsmConfig {
            block_size: 512,
            target_table_bytes: 4 << 10,
            ..LsmConfig::small_for_tests()
        }
    }

    fn build(dev: &Arc<dyn StorageDevice>, entries: &[(String, u64, ValueKind, Vec<u8>)]) -> Arc<Table> {
        let mut b = TableBuilder::new(Arc::clone(dev), &cfg(), 10.0).unwrap();
        for (k, s, kind, v) in entries {
            b.add(k.as_bytes(), *s, *kind, v).unwrap();
        }
        let (f, _) = b.finish().unwrap();
        Table::open(f, IndexKind::Fence).unwrap()
    }

    fn keyed_table(dev: &Arc<dyn StorageDevice>, ids: std::ops::Range<u32>, seq0: u64) -> Arc<Table> {
        let entries: Vec<_> = ids
            .map(|i| {
                (
                    format!("key{i:06}"),
                    seq0 + i as u64,
                    ValueKind::Put,
                    vec![7u8; 40],
                )
            })
            .collect();
        build(dev, &entries)
    }

    #[test]
    fn boundaries_are_strictly_increasing_and_bounded() {
        let dev = device();
        let t = keyed_table(&dev, 0..800, 1);
        for shards in 1..=8usize {
            let b = shard_boundaries(&[Arc::clone(&t)], shards);
            assert!(b.len() < shards.max(1), "{} boundaries for {shards} shards", b.len());
            for w in b.windows(2) {
                assert!(w[0] < w[1], "boundaries must be strictly increasing");
            }
        }
        assert!(shard_boundaries(&[t], 1).is_empty());
    }

    #[test]
    fn shards_partition_every_input_entry() {
        let dev = device();
        let young = keyed_table(&dev, 100..500, 10_000);
        let old = keyed_table(&dev, 0..600, 1);
        let inputs = vec![young, old];
        let total: u64 = inputs.iter().map(|t| t.meta().num_entries).sum();
        let boundaries = shard_boundaries(&inputs, 4);
        assert!(!boundaries.is_empty());
        let run_tables: Vec<RunTable> = inputs.iter().cloned().map(RunTable::from).collect();
        let merges = run_shards(&run_tables, &boundaries, false, &BgState::new(0)).unwrap();
        let pulled: u64 = merges.iter().map(|m| m.entries_in).sum();
        assert_eq!(pulled, total, "every input entry consumed by exactly one shard");
        // balanced: no shard holds more than ~2x its fair share (block
        // granularity puts a floor on the imbalance)
        let fair = total as usize / merges.len();
        for (i, m) in merges.iter().enumerate() {
            assert!(
                m.entries_in as usize <= 2 * fair + 64,
                "shard {i} got {} of {} entries",
                m.entries_in,
                total
            );
        }
    }

    #[test]
    fn sharded_output_matches_serial_bytes() {
        let dev = device();
        let young = keyed_table(&dev, 50..300, 10_000);
        let old = keyed_table(&dev, 0..400, 1);
        let inputs = vec![young, old];
        let serial =
            super::super::exec::merge_tables(&dev, &cfg(), IndexKind::Fence, 10.0, &inputs, false)
                .unwrap();
        let boundaries = shard_boundaries(&inputs, 4);
        let sharded = merge_tables_sharded(
            &dev,
            &cfg(),
            IndexKind::Fence,
            10.0,
            &inputs,
            false,
            &boundaries,
        )
        .unwrap();
        assert_eq!(serial.entries_written, sharded.merge.entries_written);
        assert_eq!(serial.tombstones_dropped, sharded.merge.tombstones_dropped);
        assert_eq!(serial.versions_dropped, sharded.merge.versions_dropped);
        assert_eq!(serial.output_bytes, sharded.merge.output_bytes);
        assert_eq!(serial.tables.len(), sharded.merge.tables.len());
        for (a, b) in serial.tables.iter().zip(&sharded.merge.tables) {
            let (fa, fb) = (lsm_storage::FileId(a.id()), lsm_storage::FileId(b.id()));
            let n = dev.len_blocks(fa).unwrap();
            assert_eq!(n, dev.len_blocks(fb).unwrap());
            let ba = dev.read(fa, 0, n, lsm_storage::IoCategory::Misc).unwrap();
            let bb = dev.read(fb, 0, n, lsm_storage::IoCategory::Misc).unwrap();
            assert_eq!(ba, bb, "output tables must be byte-identical");
        }
    }

    #[test]
    fn per_shard_accounting_conserves() {
        let dev = device();
        // overlapping tables with deletes so tombstone GC and version
        // drops both fire
        let mut newer: Vec<(String, u64, ValueKind, Vec<u8>)> = Vec::new();
        for i in 0..300u32 {
            let kind = if i % 5 == 0 { ValueKind::Delete } else { ValueKind::Put };
            newer.push((format!("key{i:06}"), 10_000 + i as u64, kind, vec![1u8; 24]));
        }
        let older: Vec<(String, u64, ValueKind, Vec<u8>)> = (0..300u32)
            .map(|i| (format!("key{i:06}"), 1 + i as u64, ValueKind::Put, vec![2u8; 24]))
            .collect();
        let inputs = vec![build(&dev, &newer), build(&dev, &older)];
        let boundaries = shard_boundaries(&inputs, 3);
        let sharded = merge_tables_sharded(
            &dev,
            &cfg(),
            IndexKind::Fence,
            10.0,
            &inputs,
            true,
            &boundaries,
        )
        .unwrap();
        let mut in_sum = 0;
        for (i, s) in sharded.shards.iter().enumerate() {
            assert_eq!(
                s.entries_in,
                s.entries_written + s.tombstones_dropped + s.versions_dropped,
                "shard {i} accounting must conserve"
            );
            in_sum += s.entries_in;
        }
        let m = &sharded.merge;
        assert_eq!(in_sum, 600);
        assert_eq!(
            in_sum,
            m.entries_written + m.tombstones_dropped + m.versions_dropped,
            "aggregate accounting must conserve"
        );
        assert_eq!(m.tombstones_dropped, 60);
        // every key's older version is shadowed: 600 - 240 written - 60 GC'd
        assert_eq!(m.versions_dropped, 300);
    }

    #[test]
    fn degenerate_boundaries_are_harmless() {
        let dev = device();
        let t = keyed_table(&dev, 0..100, 1);
        // boundaries before, inside, and after the key range — including
        // adjacent cuts that make an empty middle shard
        let boundaries = vec![
            b"aaa".to_vec(),
            b"key000050".to_vec(),
            b"key000050\x00".to_vec(),
            b"zzz".to_vec(),
        ];
        let sharded = merge_tables_sharded(
            &dev,
            &cfg(),
            IndexKind::Fence,
            10.0,
            &[Arc::clone(&t)],
            false,
            &boundaries,
        )
        .unwrap();
        let serial =
            super::super::exec::merge_tables(&dev, &cfg(), IndexKind::Fence, 10.0, &[t], false)
                .unwrap();
        assert_eq!(sharded.merge.entries_written, serial.entries_written);
        assert_eq!(sharded.merge.output_bytes, serial.output_bytes);
        let empty_shards = sharded.shards.iter().filter(|s| s.entries_in == 0).count();
        assert!(empty_shards >= 2, "out-of-range shards must be empty, not wrong");
    }
}
