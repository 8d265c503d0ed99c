//! Versions: immutable snapshots of the tree's storage layout.
//!
//! A [`Version`] is the list of levels; each level holds sorted runs
//! (youngest first); each [`SortedRun`] is a list of key-disjoint tables.
//! Leveled layouts keep one (partitioned) run per level; tiered layouts
//! accumulate up to `T-1`. Versions are copy-on-write: flush and
//! compaction build a new `Version` and swap it in atomically, so readers
//! and scans keep a consistent view — the "snapshot" the tutorial's scan
//! semantics require.

use std::sync::Arc;

use crate::sstable::Table;

/// A sorted run: tables with pairwise-disjoint key ranges, in key order.
#[derive(Clone, Default)]
pub struct SortedRun {
    /// The run's tables, ascending by key range. Shared: cloning a run (a
    /// new version, a scan's run cursor) copies one handle.
    pub tables: Arc<[Arc<Table>]>,
}

impl SortedRun {
    /// A run of one table.
    pub fn single(table: Arc<Table>) -> Self {
        SortedRun {
            tables: Arc::new([table]),
        }
    }

    /// A run from key-ordered tables.
    pub fn from_tables(tables: Vec<Arc<Table>>) -> Self {
        debug_assert!(
            tables
                .windows(2)
                .all(|w| w[0].meta().max_key < w[1].meta().min_key),
            "run tables must be disjoint and ordered"
        );
        SortedRun {
            tables: tables.into(),
        }
    }

    /// Smallest key in the run.
    pub fn min_key(&self) -> Option<&[u8]> {
        self.tables.first().map(|t| t.meta().min_key.as_slice())
    }

    /// Largest key in the run.
    pub fn max_key(&self) -> Option<&[u8]> {
        self.tables.last().map(|t| t.meta().max_key.as_slice())
    }

    /// Total entries across tables.
    pub fn num_entries(&self) -> u64 {
        self.tables.iter().map(|t| t.meta().num_entries).sum()
    }

    /// Approximate bytes across tables.
    pub fn bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.data_bytes()).sum()
    }

    /// The table that may contain `key` (tables are disjoint, so at most
    /// one).
    pub fn table_for(&self, key: &[u8]) -> Option<&Arc<Table>> {
        let idx = self
            .tables
            .partition_point(|t| t.meta().max_key.as_slice() < key);
        let t = self.tables.get(idx)?;
        t.meta().key_in_range(key).then_some(t)
    }

    /// Tables whose key range intersects `[lo, hi]` (inclusive).
    pub fn overlapping(&self, lo: &[u8], hi: &[u8]) -> &[Arc<Table>] {
        &self.tables[self.overlapping_range(lo, Some(hi))]
    }

    /// Indexes of the tables whose key range intersects `[lo, hi]`
    /// (inclusive; `hi == None`: to the end of the keyspace).
    pub(crate) fn overlapping_range(&self, lo: &[u8], hi: Option<&[u8]>) -> std::ops::Range<usize> {
        let start = self
            .tables
            .partition_point(|t| t.meta().max_key.as_slice() < lo);
        let end = hi.map_or(self.tables.len(), |hi| {
            self.tables
                .partition_point(|t| t.meta().min_key.as_slice() <= hi)
        });
        start.min(end)..end
    }

    /// Whether the run holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

/// One level of the tree.
#[derive(Clone, Default)]
pub struct Level {
    /// Sorted runs, youngest first.
    pub runs: Vec<SortedRun>,
}

impl Level {
    /// Total bytes across runs.
    pub fn bytes(&self) -> u64 {
        self.runs.iter().map(|r| r.bytes()).sum()
    }

    /// Total entries across runs.
    pub fn num_entries(&self) -> u64 {
        self.runs.iter().map(|r| r.num_entries()).sum()
    }

    /// Whether the level holds no data.
    pub fn is_empty(&self) -> bool {
        self.runs.iter().all(|r| r.is_empty())
    }
}

/// An immutable snapshot of the storage layout.
#[derive(Clone, Default)]
pub struct Version {
    /// Levels, level 0 (youngest) first. May contain empty trailing levels.
    pub levels: Vec<Level>,
}

impl Version {
    /// Empty tree.
    pub fn new() -> Self {
        Version::default()
    }

    /// Index of the deepest non-empty level, if any.
    pub fn last_occupied_level(&self) -> Option<usize> {
        self.levels.iter().rposition(|l| !l.is_empty())
    }

    /// Number of levels with data.
    pub fn occupied_levels(&self) -> usize {
        self.last_occupied_level().map_or(0, |i| i + 1)
    }

    /// Total sorted runs (the quantity lookups probe).
    pub fn total_runs(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.runs.iter().filter(|r| !r.is_empty()).count())
            .sum()
    }

    /// Total entries stored.
    pub fn total_entries(&self) -> u64 {
        self.levels.iter().map(|l| l.num_entries()).sum()
    }

    /// Total bytes stored.
    pub fn total_bytes(&self) -> u64 {
        self.levels.iter().map(|l| l.bytes()).sum()
    }

    /// Per-level entry counts (for Monkey allocation), level 0 first;
    /// empty levels report 0.
    pub fn entries_per_level(&self) -> Vec<u64> {
        self.levels.iter().map(|l| l.num_entries()).collect()
    }

    /// Every table of this version, youngest level and run first.
    pub fn tables(&self) -> impl Iterator<Item = &Arc<Table>> {
        self.levels
            .iter()
            .flat_map(|l| &l.runs)
            .flat_map(|r| r.tables.iter())
    }

    /// Every table id referenced by this version.
    pub fn all_table_ids(&self) -> Vec<u64> {
        self.tables().map(|t| t.id()).collect()
    }

    /// Ensures `levels` has at least `n` entries.
    pub fn ensure_levels(&mut self, n: usize) {
        while self.levels.len() < n {
            self.levels.push(Level::default());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LsmConfig;
    use crate::entry::ValueKind;
    use crate::sstable::TableBuilder;
    use lsm_index::IndexKind;
    use lsm_storage::{DeviceProfile, MemDevice, StorageDevice};

    fn table(range: std::ops::Range<usize>) -> Arc<Table> {
        let dev: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(512, DeviceProfile::free()));
        let cfg = LsmConfig {
            block_size: 512,
            ..LsmConfig::small_for_tests()
        };
        let mut b = TableBuilder::new(dev, &cfg, 10.0).unwrap();
        for i in range {
            b.add(format!("key{i:06}").as_bytes(), i as u64, ValueKind::Put, b"v")
                .unwrap();
        }
        let (file, _) = b.finish().unwrap();
        Table::open(file, IndexKind::Fence).unwrap()
    }

    #[test]
    fn run_table_for_uses_disjointness() {
        let run = SortedRun::from_tables(vec![table(0..100), table(200..300), table(400..500)]);
        assert!(run.table_for(b"key000050").is_some());
        assert!(run.table_for(b"key000150").is_none(), "gap between tables");
        assert!(run.table_for(b"key000250").is_some());
        assert!(run.table_for(b"key999999").is_none());
        assert_eq!(run.min_key().unwrap(), b"key000000");
        assert_eq!(run.max_key().unwrap(), b"key000499");
    }

    #[test]
    fn run_overlapping_slices() {
        let run = SortedRun::from_tables(vec![table(0..100), table(200..300), table(400..500)]);
        assert_eq!(run.overlapping(b"key000050", b"key000250").len(), 2);
        assert_eq!(run.overlapping(b"key000100x", b"key000150").len(), 0);
        assert_eq!(run.overlapping(b"", b"zzz").len(), 3);
        assert_eq!(run.overlapping(b"key000400", b"key000400").len(), 1);
    }

    #[test]
    fn version_accounting() {
        let mut v = Version::new();
        v.ensure_levels(3);
        v.levels[0].runs.push(SortedRun::single(table(0..100)));
        v.levels[0].runs.push(SortedRun::single(table(100..200)));
        v.levels[2].runs.push(SortedRun::single(table(0..500)));
        assert_eq!(v.occupied_levels(), 3);
        assert_eq!(v.last_occupied_level(), Some(2));
        assert_eq!(v.total_runs(), 3);
        assert_eq!(v.total_entries(), 700);
        assert_eq!(v.entries_per_level(), vec![200, 0, 500]);
        assert_eq!(v.all_table_ids().len(), 3);
        assert!(v.levels[1].is_empty());
    }

    #[test]
    fn empty_version() {
        let v = Version::new();
        assert_eq!(v.occupied_levels(), 0);
        assert_eq!(v.last_occupied_level(), None);
        assert_eq!(v.total_runs(), 0);
        assert_eq!(v.total_bytes(), 0);
    }

    #[test]
    fn clone_is_cheap_snapshot() {
        let mut v = Version::new();
        v.ensure_levels(1);
        v.levels[0].runs.push(SortedRun::single(table(0..50)));
        let snap = v.clone();
        v.levels[0].runs.clear();
        assert_eq!(snap.total_entries(), 50, "snapshot unaffected by mutation");
        assert_eq!(v.total_entries(), 0);
    }
}
