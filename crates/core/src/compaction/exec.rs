//! Merge execution: sort-merges input tables into new partitioned tables,
//! garbage-collecting obsolete versions and (when allowed) tombstones —
//! the mechanics of tutorial Module I.1's `compaction` operation.
//!
//! The cut loop (`OutputWriter`) reports every table it seals to its
//! caller before it merges on. The engine installs the merge's progress
//! there (`db/compact.rs`): a sealed table whose largest key is `f` is a
//! *frontier*, past which the merge never reads a key ≤ `f` from its
//! inputs again, so the outputs so far can join the version and every
//! input that lies wholly at or below `f` can leave it. The entry stream
//! does not depend on when or whether the caller installs, so the output
//! tables are the same bytes either way.

use std::sync::Arc;

use lsm_index::IndexKind;
use lsm_storage::{StorageDevice, StorageResult};

use crate::config::LsmConfig;
use crate::entry::ValueKind;
use crate::iter::{MergingIter, Source};
use crate::sstable::{EntryRef, Table, TableBuilder};
use crate::version::RunTable;

/// Outcome of one merge.
pub struct MergeResult {
    /// New tables, in key order, partitioned at `target_table_bytes`.
    pub tables: Vec<Arc<Table>>,
    /// Entries written to the new tables.
    pub entries_written: u64,
    /// Tombstones garbage-collected.
    pub tombstones_dropped: u64,
    /// Obsolete (shadowed) versions dropped by the merge.
    pub versions_dropped: u64,
    /// Data bytes across the output tables (event-trace accounting).
    pub output_bytes: u64,
}

/// Called with each output table the cut loop seals mid-stream (not the
/// trailing one [`OutputWriter::finish`] seals): the merge's frontier has
/// reached the table's largest key.
pub(crate) type OnSeal<'a> = &'a mut dyn FnMut(&Arc<Table>) -> StorageResult<()>;

/// Streams merged entries into output tables partitioned at
/// `target_table_bytes`. This is the one and only cut loop: both the
/// serial [`merge_tables`] path and the sharded stitch phase
/// ([`crate::compaction::subcompact`]) feed it the same global-key-order
/// entry stream, which is what makes their outputs byte-identical — and
/// their seals, so the engine installs at the same frontiers on both.
pub(crate) struct OutputWriter<'a> {
    device: &'a Arc<dyn StorageDevice>,
    cfg: &'a LsmConfig,
    index_kind: IndexKind,
    bits_per_key: f64,
    builder: Option<TableBuilder>,
    tables: Vec<Arc<Table>>,
    entries_written: u64,
    on_seal: OnSeal<'a>,
}

impl<'a> OutputWriter<'a> {
    pub(crate) fn new(
        device: &'a Arc<dyn StorageDevice>,
        cfg: &'a LsmConfig,
        index_kind: IndexKind,
        bits_per_key: f64,
        on_seal: OnSeal<'a>,
    ) -> Self {
        OutputWriter {
            device,
            cfg,
            index_kind,
            bits_per_key,
            builder: None,
            tables: Vec::new(),
            entries_written: 0,
            on_seal,
        }
    }

    /// Appends one visible entry, cutting a new output table whenever the
    /// current one reaches the target size. The builder is created lazily
    /// so an all-dropped merge creates no file at all. The entry is
    /// borrowed, so its bytes move once: from a pinned block (or a shard's
    /// buffer) into the builder.
    pub(crate) fn push(&mut self, e: EntryRef<'_>) -> StorageResult<()> {
        let b = match &mut self.builder {
            Some(b) => b,
            None => {
                self.builder = Some(TableBuilder::new(
                    Arc::clone(self.device),
                    self.cfg,
                    self.bits_per_key,
                )?);
                self.builder.as_mut().unwrap()
            }
        };
        b.add(e.key, e.seqno, e.kind, e.value)?;
        self.entries_written += 1;
        if b.estimated_file_bytes() >= self.cfg.target_table_bytes {
            let full = self.builder.take().unwrap();
            let (file, _meta) = full.finish()?;
            let table = Table::open(file, self.index_kind)?;
            (self.on_seal)(&table)?;
            self.tables.push(table);
        }
        Ok(())
    }

    /// Seals the trailing partial table (if any) and returns the outputs
    /// with the entry count written.
    pub(crate) fn finish(mut self) -> StorageResult<(Vec<Arc<Table>>, u64)> {
        if let Some(b) = self.builder.take() {
            if !b.is_empty() {
                let (file, _meta) = b.finish()?;
                self.tables.push(Table::open(file, self.index_kind)?);
            }
        }
        Ok((self.tables, self.entries_written))
    }
}

/// Sort-merges `inputs_young_first` (ordered youngest first; tables within
/// one run may be supplied in any relative order since their ranges are
/// disjoint) into new tables on `device`.
///
/// `bits_per_key` is the filter budget for the output level.
/// `drop_tombstones` enables tombstone GC (only sound at the last level —
/// the caller checks [`crate::compaction::may_drop_tombstones`]).
pub fn merge_tables(
    device: &Arc<dyn StorageDevice>,
    cfg: &LsmConfig,
    index_kind: IndexKind,
    bits_per_key: f64,
    inputs_young_first: &[Arc<Table>],
    drop_tombstones: bool,
) -> StorageResult<MergeResult> {
    let inputs = inputs_young_first.iter().cloned().map(RunTable::from).collect();
    merge_run_tables(device, cfg, index_kind, bits_per_key, inputs, drop_tombstones, &mut |_| Ok(()))
}

/// [`merge_tables`] over inputs that may carry floors (each is read only
/// above its floor), reporting each mid-stream seal to `on_seal`. The
/// merge owns its inputs: it drops each one's handle as it passes it.
pub(crate) fn merge_run_tables(
    device: &Arc<dyn StorageDevice>,
    cfg: &LsmConfig,
    index_kind: IndexKind,
    bits_per_key: f64,
    inputs_young_first: Vec<RunTable>,
    drop_tombstones: bool,
    on_seal: OnSeal<'_>,
) -> StorageResult<MergeResult> {
    // entries below an input's floor are never read; they count as
    // dropped versions (a newer output already holds their keys)
    let entries_in: u64 = inputs_young_first.iter().map(|t| t.table.meta().num_entries).sum();
    let mut sources = Vec::with_capacity(inputs_young_first.len());
    for t in inputs_young_first {
        sources.push(Source::Table(t.table.iter_above(b"", t.floor.as_deref(), None)?));
    }
    let mut merger = MergingIter::new(sources, true)?;
    let mut writer = OutputWriter::new(device, cfg, index_kind, bits_per_key, on_seal);
    let mut tombstones_dropped = 0u64;
    // cursor merge: each surviving entry's bytes move once, from the
    // pinned input block into the output builder
    while merger.advance_visible()? {
        if drop_tombstones && merger.kind() == ValueKind::Delete {
            tombstones_dropped += 1;
            continue;
        }
        writer.push(merger.current())?;
    }
    let (out_tables, entries_written) = writer.finish()?;
    let versions_dropped = entries_in
        .saturating_sub(entries_written)
        .saturating_sub(tombstones_dropped);
    let output_bytes = out_tables.iter().map(|t| t.data_bytes()).sum();
    Ok(MergeResult {
        tables: out_tables,
        entries_written,
        tombstones_dropped,
        versions_dropped,
        output_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn build(dev: &Arc<dyn StorageDevice>, entries: &[(&str, u64, ValueKind, &str)]) -> Arc<Table> {
        let mut b = TableBuilder::new(Arc::clone(dev), &cfg(), 10.0).unwrap();
        for (k, s, kind, v) in entries {
            b.add(k.as_bytes(), *s, *kind, v.as_bytes()).unwrap();
        }
        let (f, _) = b.finish().unwrap();
        Table::open(f, IndexKind::Fence).unwrap()
    }

    #[test]
    fn merge_dedups_versions() {
        let dev = device();
        let newer = build(&dev, &[("a", 10, ValueKind::Put, "new"), ("b", 11, ValueKind::Put, "b")]);
        let older = build(&dev, &[("a", 1, ValueKind::Put, "old"), ("c", 2, ValueKind::Put, "c")]);
        let r = merge_tables(&dev, &cfg(), IndexKind::Fence, 10.0, &[newer, older], false).unwrap();
        assert_eq!(r.entries_written, 3);
        assert_eq!(r.versions_dropped, 1);
        assert_eq!(r.tables.len(), 1);
        let t = &r.tables[0];
        let hit = t.get(b"a", None).unwrap().entry.unwrap();
        assert_eq!(hit.value, b"new".to_vec());
        assert_eq!(hit.seqno, 10);
    }

    #[test]
    fn tombstone_gc_only_when_allowed() {
        let dev = device();
        let newer = build(&dev, &[("a", 10, ValueKind::Delete, "")]);
        let older = build(&dev, &[("a", 1, ValueKind::Put, "old")]);
        // without GC: tombstone kept, old version dropped
        let keep = merge_tables(
            &dev,
            &cfg(),
            IndexKind::Fence,
            10.0,
            &[newer.clone(), older.clone()],
            false,
        )
        .unwrap();
        assert_eq!(keep.entries_written, 1);
        assert_eq!(keep.tombstones_dropped, 0);
        assert_eq!(keep.tables[0].get(b"a", None).unwrap().entry.unwrap().kind, ValueKind::Delete);
        // with GC: key vanishes entirely
        let gc = merge_tables(&dev, &cfg(), IndexKind::Fence, 10.0, &[newer, older], true).unwrap();
        assert_eq!(gc.entries_written, 0);
        assert_eq!(gc.tombstones_dropped, 1);
        assert!(gc.tables.is_empty());
    }

    #[test]
    fn output_partitioned_at_target_size() {
        let dev = device();
        let mut b = TableBuilder::new(Arc::clone(&dev), &cfg(), 10.0).unwrap();
        for i in 0..2000u32 {
            b.add(format!("key{i:06}").as_bytes(), i as u64, ValueKind::Put, &[7u8; 64])
                .unwrap();
        }
        let (f, _) = b.finish().unwrap();
        let big = Table::open(f, IndexKind::Fence).unwrap();
        let r = merge_tables(&dev, &cfg(), IndexKind::Fence, 10.0, &[big], false).unwrap();
        assert!(r.tables.len() > 2, "{} output tables", r.tables.len());
        // outputs are disjoint and ordered
        for w in r.tables.windows(2) {
            assert!(w[0].meta().max_key < w[1].meta().min_key);
        }
        assert_eq!(r.entries_written, 2000);
        // every key still readable
        for i in (0..2000u32).step_by(97) {
            let key = format!("key{i:06}");
            let found = r
                .tables
                .iter()
                .any(|t| t.get(key.as_bytes(), None).unwrap().entry.is_some());
            assert!(found, "{key} lost in merge");
        }
    }

    #[test]
    fn empty_inputs_produce_no_tables() {
        let dev = device();
        let r = merge_tables(&dev, &cfg(), IndexKind::Fence, 10.0, &[], false).unwrap();
        assert!(r.tables.is_empty());
        assert_eq!(r.entries_written, 0);
    }

    #[test]
    fn disjoint_run_tables_merge_in_order() {
        let dev = device();
        let t1 = build(&dev, &[("a", 1, ValueKind::Put, "1"), ("b", 2, ValueKind::Put, "2")]);
        let t2 = build(&dev, &[("x", 3, ValueKind::Put, "3"), ("z", 4, ValueKind::Put, "4")]);
        let r = merge_tables(&dev, &cfg(), IndexKind::Fence, 10.0, &[t2, t1], false).unwrap();
        assert_eq!(r.entries_written, 4);
        assert_eq!(r.tables[0].meta().min_key, b"a".to_vec());
        assert_eq!(r.tables[0].meta().max_key, b"z".to_vec());
    }

    /// A merge reads an input only above its floor, serially and sharded
    /// alike: the clipped keys' old versions do not come back.
    #[test]
    fn a_merge_reads_each_input_above_its_floor() {
        use crate::background::BgState;
        use crate::compaction::subcompact::merge_tables_sharded_with;
        let dev = device();
        let entries: Vec<(String, u64, ValueKind, String)> = (0..60u32)
            .map(|i| (format!("k{i:03}"), u64::from(i) + 1, ValueKind::Put, format!("v{i}")))
            .collect();
        let rows: Vec<_> = entries
            .iter()
            .map(|(k, s, kind, v)| (k.as_str(), *s, *kind, v.as_str()))
            .collect();
        let old = build(&dev, &rows);
        let young = build(&dev, &[("k050", 100, ValueKind::Put, "new")]);
        let inputs = || {
            vec![
                RunTable::from(Arc::clone(&young)),
                RunTable { table: Arc::clone(&old), floor: Some(b"k039".to_vec().into()) },
            ]
        };
        let no_seal = &mut |_: &Arc<Table>| Ok(());
        let serial =
            merge_run_tables(&dev, &cfg(), IndexKind::Fence, 10.0, inputs(), false, no_seal).unwrap();
        let boundaries = [b"k020".to_vec(), b"k045".to_vec()];
        let sharded = merge_tables_sharded_with(
            &dev,
            &cfg(),
            IndexKind::Fence,
            10.0,
            inputs(),
            false,
            &boundaries,
            &BgState::new(0),
            &mut |_| Ok(()),
        )
        .unwrap();
        for r in [&serial, &sharded.merge] {
            assert_eq!(r.entries_written, 20, "k040..k059 only");
            assert_eq!(r.versions_dropped, 41, "40 below the floor and the old k050");
            let t = &r.tables[0];
            assert_eq!(t.meta().min_key, b"k040".to_vec());
            assert!(t.get(b"k039", None).unwrap().entry.is_none());
            assert_eq!(t.get(b"k050", None).unwrap().entry.unwrap().value, b"new".to_vec());
        }
    }
}
