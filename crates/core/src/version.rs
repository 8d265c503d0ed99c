//! Versions: immutable snapshots of the tree's storage layout.
//!
//! A [`Version`] is the list of levels; each level holds sorted runs
//! (youngest first); each [`SortedRun`] is a list of key-disjoint tables.
//! Leveled layouts keep one (partitioned) run per level; tiered layouts
//! accumulate up to `T-1`. Versions are copy-on-write: flush and
//! compaction build a new `Version` and swap it in atomically, so readers
//! and scans keep a consistent view — the "snapshot" the tutorial's scan
//! semantics require.
//!
//! ## Floors
//!
//! A merge installs its outputs at a moving frontier (`db/compact.rs`,
//! DESIGN.md "Merge frontier"): once an output table whose
//! largest key is `f` is sealed, no key ≤ `f` is read from the merge's
//! inputs again. An input that straddles `f` stays in the version with a
//! *floor* `f`: an exclusive lower bound below which the table holds
//! nothing as far as this version is concerned. A table's *effective
//! range* is `(floor, max_key]` when it has a floor, else
//! `[min_key, max_key]`; every lookup here ([`SortedRun::table_for`],
//! `SortedRun::overlapping_range`, [`SortedRun::min_key`]) and the
//! disjointness of a run are by effective range, and every reader of a
//! run's table (a get, a scan's run cursor, a merge's input) starts past
//! its floor.
//!
//! A version holds its tables and value logs by handle, and both leave by
//! one rule, `Obsolete`, so a reader keeps every file its version names.

use std::sync::{Arc, OnceLock};

use lsm_obs::Gauge;
use lsm_storage::StorageResult;

use crate::kv_sep::LogFile;
use crate::sstable::Table;

/// A file's obsolete mark, set once no new version holds the file:
/// `memory.device.superseded` counts its bytes until the last handle
/// drops and deletes it.
#[derive(Default)]
pub(crate) struct Obsolete(OnceLock<Arc<Gauge>>);

impl Obsolete {
    /// Marks the file obsolete, once; `superseded` counts its `bytes`.
    pub fn mark(&self, superseded: &Arc<Gauge>, bytes: u64) {
        if self.0.set(Arc::clone(superseded)).is_ok() {
            superseded.add(bytes as i64);
        }
    }

    /// The handle's drop: a marked file of `bytes` (as marked) is deleted
    /// by `delete`, best effort (the orphan sweep at open deletes what a
    /// dead device kept).
    pub fn release(&self, bytes: u64, delete: impl FnOnce() -> StorageResult<()>) {
        if let Some(superseded) = self.0.get() {
            let _ = delete();
            superseded.add(-(bytes as i64));
        }
    }
}

/// An exclusive lower key bound, if a merge frontier set one.
type Floor = Option<Box<[u8]>>;

/// A table as a run holds it: the file plus the floor a merge frontier
/// clipped it at, if any.
#[derive(Clone)]
pub struct RunTable {
    /// The table.
    pub table: Arc<Table>,
    /// Exclusive lower bound: keys at or below it are not in this
    /// version's view of the table.
    pub floor: Floor,
}

impl RunTable {
    /// The effective lower bound as `(key, exclusive)`; tuples order as
    /// the bounds do, so `(f, false) < (f, true)`.
    pub fn lower(&self) -> (&[u8], bool) {
        match &self.floor {
            Some(f) => (f, true),
            None => (&self.table.meta().min_key, false),
        }
    }

    /// Raises the floor to `frontier` when the table holds keys at or
    /// below it (the table straddles the frontier); otherwise a no-op.
    pub fn clip(&mut self, frontier: &[u8]) {
        let (lo, exclusive) = self.lower();
        if lo < frontier || (lo == frontier && !exclusive) {
            self.floor = Some(frontier.into());
        }
    }
}

impl From<Arc<Table>> for RunTable {
    fn from(table: Arc<Table>) -> Self {
        RunTable { table, floor: None }
    }
}

/// A sorted run: tables with pairwise-disjoint effective key ranges, in
/// key order.
#[derive(Clone, Default)]
pub struct SortedRun {
    /// The run's tables, ascending by key range. Shared: cloning a run (a
    /// new version, a scan's run cursor) copies one handle.
    pub tables: Arc<[Arc<Table>]>,
    /// Per table, its floor; `None` when no table of the run has one.
    floors: Option<Arc<[Floor]>>,
}

impl SortedRun {
    /// A run of one table.
    pub fn single(table: Arc<Table>) -> Self {
        SortedRun {
            tables: Arc::new([table]),
            floors: None,
        }
    }

    /// A run from key-ordered tables.
    pub fn from_tables(tables: Vec<Arc<Table>>) -> Self {
        SortedRun::from_run_tables(tables.into_iter().map(RunTable::from).collect())
    }

    /// A run from key-ordered tables, each with its floor.
    pub fn from_run_tables(tables: Vec<RunTable>) -> Self {
        debug_assert!(
            tables
                .windows(2)
                .all(|w| (w[0].table.meta().max_key.as_slice(), false) < w[1].lower()),
            "run tables must be disjoint and ordered"
        );
        let floors = tables
            .iter()
            .any(|t| t.floor.is_some())
            .then(|| tables.iter().map(|t| t.floor.clone()).collect());
        SortedRun {
            tables: tables.into_iter().map(|t| t.table).collect(),
            floors,
        }
    }

    /// The floor of table `i`, if a merge frontier clipped it.
    pub fn floor(&self, i: usize) -> Option<&[u8]> {
        self.floors.as_ref()?[i].as_deref()
    }

    /// Table `i` with its floor.
    pub fn run_table(&self, i: usize) -> RunTable {
        RunTable {
            table: Arc::clone(&self.tables[i]),
            floor: self.floor(i).map(Into::into),
        }
    }

    /// Every table of the run with its floor, in key order.
    pub fn run_tables(&self) -> impl Iterator<Item = RunTable> + '_ {
        (0..self.tables.len()).map(|i| self.run_table(i))
    }

    /// Smallest key in the run: the first table's floor (an exclusive
    /// bound) when it has one.
    pub fn min_key(&self) -> Option<&[u8]> {
        let first = self.tables.first()?;
        Some(self.floor(0).unwrap_or(&first.meta().min_key))
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
    /// one); none when `key` lies at or below that table's floor.
    pub fn table_for(&self, key: &[u8]) -> Option<&Arc<Table>> {
        let idx = self
            .tables
            .partition_point(|t| t.meta().max_key.as_slice() < key);
        let t = self.tables.get(idx)?;
        let above_floor = self.floor(idx).is_none_or(|f| key > f);
        (above_floor && t.meta().key_in_range(key)).then_some(t)
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
            let end = self
                .tables
                .partition_point(|t| t.meta().min_key.as_slice() <= hi);
            // only the last table whose keys start at or below `hi` can
            // have a floor at or above it: every earlier table ends below
            // that table's first key
            end - usize::from(end > 0 && self.floor(end - 1).is_some_and(|f| f >= hi))
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
    /// Every value log a stored pointer may name: the active one and any
    /// retiring ones GC has yet to empty, kept alive for this version's
    /// readers.
    pub vlogs: Vec<Arc<LogFile>>,
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

    /// Total sorted runs (the quantity lookups probe).
    pub fn total_runs(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.runs.iter().filter(|r| !r.is_empty()).count())
            .sum()
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

    fn clipped(range: std::ops::Range<usize>, floor: Option<usize>) -> RunTable {
        RunTable {
            table: table(range),
            floor: floor.map(|f| format!("key{f:06}").into_bytes().into()),
        }
    }

    #[test]
    fn a_floor_hides_the_keys_at_and_below_it() {
        let run = SortedRun::from_run_tables(vec![
            clipped(0..100, None),
            clipped(100..200, Some(150)),
            clipped(200..300, None),
        ]);
        assert!(run.table_for(b"key000050").is_some());
        assert!(run.table_for(b"key000120").is_none(), "below the floor");
        assert!(run.table_for(b"key000150").is_none(), "the floor itself");
        assert!(run.table_for(b"key000151").is_some());
        assert_eq!(run.floor(1), Some(&b"key000150"[..]));
        assert_eq!(run.floor(0), None);
        // a range that ends at or below the floor misses the clipped table
        assert_eq!(run.overlapping_range(b"key000120", Some(b"key000150")), 1..1);
        assert_eq!(run.overlapping_range(b"key000120", Some(b"key000151")), 1..2);
        assert_eq!(run.overlapping_range(b"key000050", Some(b"key000150")), 0..1);
        let first = SortedRun::from_run_tables(vec![clipped(0..100, Some(40))]);
        assert_eq!(first.min_key(), Some(&b"key000040"[..]), "an exclusive lower bound");
        // the floors survive the round trip through run tables
        let copy = SortedRun::from_run_tables(run.run_tables().collect());
        assert_eq!(copy.floor(1), run.floor(1));
        assert!(SortedRun::from_tables(vec![table(0..10)]).floors.is_none());
    }

    #[test]
    fn clip_raises_the_floor_only_for_a_straddler() {
        let mut t = clipped(100..200, None);
        t.clip(b"key000050");
        assert!(t.floor.is_none(), "the table starts above the frontier");
        t.clip(b"key000100");
        assert_eq!(t.lower(), (&b"key000100"[..], true), "the frontier is the first key");
        t.clip(b"key000150");
        assert_eq!(t.lower(), (&b"key000150"[..], true));
        t.clip(b"key000120");
        assert_eq!(t.lower(), (&b"key000150"[..], true), "a floor never falls");
    }

    #[test]
    fn version_accounting() {
        let mut v = Version::new();
        v.ensure_levels(3);
        v.levels[0].runs.push(SortedRun::single(table(0..100)));
        v.levels[0].runs.push(SortedRun::single(table(100..200)));
        v.levels[2].runs.push(SortedRun::single(table(0..500)));
        assert_eq!(v.last_occupied_level(), Some(2));
        assert_eq!(v.total_runs(), 3);
        assert_eq!(v.entries_per_level(), vec![200, 0, 500]);
        assert_eq!(v.all_table_ids().len(), 3);
        assert!(v.levels[1].is_empty());
    }

    #[test]
    fn empty_version() {
        let v = Version::new();
        assert_eq!(v.last_occupied_level(), None);
        assert_eq!(v.total_runs(), 0);
    }

    #[test]
    fn clone_is_cheap_snapshot() {
        let mut v = Version::new();
        v.ensure_levels(1);
        v.levels[0].runs.push(SortedRun::single(table(0..50)));
        let snap = v.clone();
        v.levels[0].runs.clear();
        assert_eq!(snap.entries_per_level(), vec![50], "snapshot unaffected by mutation");
        assert_eq!(v.entries_per_level(), vec![0]);
    }
}
