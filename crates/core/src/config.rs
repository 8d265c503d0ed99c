//! Engine configuration: the LSM design space as a struct.
//!
//! Every field is a design dimension the tutorial names; the experiment
//! suite sweeps them one (or two) at a time.

use lsm_cache::CachePolicy;
use lsm_filters::{FilterKind, RangeFilterKind};
use lsm_index::IndexKind;

/// Storage data layout / merge policy (tutorial Module I.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeLayout {
    /// One sorted run per level (beyond level 0); eager merging.
    Leveled,
    /// Up to `size_ratio` runs per level; lazy merging.
    Tiered,
    /// Tiered everywhere except the last level, which is leveled
    /// (Dostoevsky).
    LazyLeveled,
    /// Explicit per-level run caps, smallest level first (Fluid LSM /
    /// LSM-bush style hybrids). Levels beyond the vector reuse its last
    /// entry.
    Hybrid(Vec<usize>),
}

impl MergeLayout {
    /// Run cap for level `i` (0-based) given the tree currently has
    /// `levels` levels and size ratio `t`.
    pub fn run_cap(&self, i: usize, levels: usize, t: usize) -> usize {
        match self {
            MergeLayout::Leveled => 1,
            MergeLayout::Tiered => (t - 1).max(1),
            MergeLayout::LazyLeveled => {
                if i + 1 >= levels {
                    1
                } else {
                    (t - 1).max(1)
                }
            }
            MergeLayout::Hybrid(caps) => {
                let cap = caps
                    .get(i)
                    .or_else(|| caps.last())
                    .copied()
                    .unwrap_or(1);
                cap.max(1)
            }
        }
    }

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            MergeLayout::Leveled => "leveled",
            MergeLayout::Tiered => "tiered",
            MergeLayout::LazyLeveled => "lazy-leveled",
            MergeLayout::Hybrid(_) => "hybrid",
        }
    }
}

/// How much of a level one compaction moves (tutorial Module I.2's
/// compaction granularity primitive).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompactionGranularity {
    /// Merge every overlapping file of the source level at once.
    Full,
    /// Merge one source file at a time, chosen by [`FilePicker`] —
    /// the partial compaction of RocksDB/X-Engine, which trades peak
    /// compaction size (tail latency) for more frequent compactions.
    Partial(FilePicker),
}

/// Which file partial compaction picks (tutorial Module I.2: "the design
/// decision on which file(s) to compact affects ingestion performance").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FilePicker {
    /// Rotate through the key space (LevelDB's cursor).
    RoundRobin,
    /// File with the least overlap in the next level (write-amp optimal
    /// greedy choice).
    MinOverlap,
    /// Least-recently-read file (protects the read-hot working set).
    Coldest,
    /// Oldest file first (drains stale data, helps tombstone GC).
    Oldest,
    /// Most tombstone-dense file first (Lethe-style delete-aware picking:
    /// pushes deletes toward the last level so their space is reclaimed
    /// and their read overhead removed sooner).
    MostTombstones,
}

impl FilePicker {
    /// All pickers, for experiment sweeps.
    pub const ALL: [FilePicker; 5] = [
        FilePicker::RoundRobin,
        FilePicker::MinOverlap,
        FilePicker::Coldest,
        FilePicker::Oldest,
        FilePicker::MostTombstones,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            FilePicker::RoundRobin => "round-robin",
            FilePicker::MinOverlap => "min-overlap",
            FilePicker::Coldest => "coldest",
            FilePicker::Oldest => "oldest",
            FilePicker::MostTombstones => "most-tombstones",
        }
    }
}

/// How maintenance (flush and the compaction cascade) is scheduled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackgroundMode {
    /// Maintenance runs synchronously inside the write that triggers it,
    /// under one write lock — deterministic by design, so experiments are
    /// reproducible and I/O attribution is exact.
    Inline,
    /// Maintenance runs on a background worker pool: a full memtable is
    /// frozen into an immutable companion and flushed off the write path,
    /// and the compaction cascade drains on its own thread. Writers block
    /// only on backpressure (see `l0_slowdown_runs` / `l0_stall_runs`).
    Threaded,
}

impl BackgroundMode {
    /// Reads the mode from the `LSM_BACKGROUND` environment variable
    /// (`threaded` selects [`BackgroundMode::Threaded`]; anything else,
    /// including unset, selects [`BackgroundMode::Inline`]). This is how
    /// CI runs the whole suite once per mode without code changes; tests
    /// that require one specific mode pin the field explicitly.
    pub fn from_env() -> Self {
        match std::env::var("LSM_BACKGROUND") {
            Ok(v) if v.eq_ignore_ascii_case("threaded") => BackgroundMode::Threaded,
            _ => BackgroundMode::Inline,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            BackgroundMode::Inline => "inline",
            BackgroundMode::Threaded => "threaded",
        }
    }
}

/// How filter memory is spread across levels (tutorial Module II.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FilterAllocation {
    /// Same bits/key everywhere (the production default).
    Uniform,
    /// Monkey's optimal allocation: smaller levels get more bits/key.
    Monkey,
}

/// Key-value separation configuration (WiscKey; tutorial Module I.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvSeparation {
    /// Values at or above this size go to the value log.
    pub min_value_bytes: usize,
}

/// Full engine configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct LsmConfig {
    /// Storage block size in bytes.
    pub block_size: usize,
    /// Memtable capacity in bytes before a flush.
    pub buffer_bytes: usize,
    /// Size ratio `T` between adjacent level capacities.
    pub size_ratio: usize,
    /// Run cap for level 0 (how many flushed runs accumulate before
    /// compaction into level 1).
    pub l0_run_cap: usize,
    /// Storage layout / merge policy.
    pub layout: MergeLayout,
    /// Compaction granularity and file-picking policy.
    pub granularity: CompactionGranularity,
    /// Target SSTable size in bytes (sorted runs are partitioned into
    /// files of roughly this size, enabling partial compaction).
    pub target_table_bytes: usize,
    /// Point-filter family.
    pub filter: FilterKind,
    /// Partitioned filters (RocksDB's partitioned index/filter): one
    /// filter partition per data block, fetched through the block cache on
    /// demand instead of held resident per table — finer-grained memory at
    /// the cost of a filter-block access per probe.
    pub partitioned_filters: bool,
    /// Filter bits per key (interpreted per [`FilterAllocation`]).
    pub bits_per_key: f64,
    /// Uniform vs Monkey allocation of filter memory across levels.
    pub filter_allocation: FilterAllocation,
    /// Range-filter family (`None` disables).
    pub range_filter: RangeFilterKind,
    /// Block-index family.
    pub index: IndexKind,
    /// In-block hash index (RocksDB data-block hash index).
    pub block_hash_index: bool,
    /// Restart interval for block prefix compression.
    pub restart_interval: usize,
    /// Block cache capacity in bytes (0 disables caching).
    pub cache_bytes: usize,
    /// Block cache eviction policy.
    pub cache_policy: CachePolicy,
    /// Leaper-style prefetch of hot blocks after compaction.
    pub prefetch_after_compaction: bool,
    /// WAL durability (disable for pure in-memory experiments).
    pub wal: bool,
    /// WiscKey-style key-value separation (`None` disables).
    pub kv_separation: Option<KvSeparation>,
    /// Maintenance scheduling: deterministic inline, or a background
    /// worker pool with an active + immutable memtable pair.
    pub background: BackgroundMode,
    /// Worker threads for [`BackgroundMode::Threaded`] (ignored inline).
    pub background_workers: usize,
    /// Key-range shards per compaction merge (degree of compaction
    /// parallelism — Sarkar et al.'s explicit design axis). `1` (the
    /// default) keeps the serial `merge_tables` path and its exact I/O
    /// ordering, so existing Inline experiments stay byte-identical.
    /// Values above 1 split each merge at input-index fence keys into
    /// balanced sub-compactions that fan out across the worker pool in
    /// `Threaded` mode (and run serially, but through the sharded path,
    /// inline) — the output tables are byte-identical either way.
    pub max_subcompactions: usize,
    /// L0 run count at which writers are *slowed* (a short sleep per
    /// write) in threaded mode, giving compaction a chance to catch up.
    pub l0_slowdown_runs: usize,
    /// L0 run count at which writers *stall* (block until compaction
    /// drains L0 below the threshold) in threaded mode. Readers are never
    /// blocked by backpressure.
    pub l0_stall_runs: usize,
    /// Capacity of the structured event ring ([`crate::DbCore::drain_events`]);
    /// when full, the oldest events are dropped and counted.
    pub event_ring_capacity: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            block_size: 4096,
            buffer_bytes: 1 << 20,
            size_ratio: 10,
            l0_run_cap: 4,
            layout: MergeLayout::Leveled,
            granularity: CompactionGranularity::Full,
            target_table_bytes: 2 << 20,
            filter: FilterKind::Bloom,
            partitioned_filters: false,
            bits_per_key: 10.0,
            filter_allocation: FilterAllocation::Uniform,
            range_filter: RangeFilterKind::None,
            index: IndexKind::Fence,
            block_hash_index: false,
            restart_interval: 16,
            cache_bytes: 8 << 20,
            cache_policy: CachePolicy::Lru,
            prefetch_after_compaction: false,
            wal: true,
            kv_separation: None,
            background: BackgroundMode::from_env(),
            background_workers: 2,
            max_subcompactions: 1,
            l0_slowdown_runs: 8,
            l0_stall_runs: 12,
            event_ring_capacity: 4096,
        }
    }
}

impl LsmConfig {
    /// A configuration with small buffers and tables so unit tests hit
    /// flushes and multi-level compactions with little data.
    pub fn small_for_tests() -> Self {
        LsmConfig {
            block_size: 512,
            buffer_bytes: 4 << 10,
            size_ratio: 4,
            l0_run_cap: 2,
            target_table_bytes: 8 << 10,
            cache_bytes: 64 << 10,
            ..Default::default()
        }
    }

    /// Level capacity in bytes for level `i` (0-based): the buffer size
    /// times `T^(i+1)`.
    pub fn level_capacity_bytes(&self, i: usize) -> u64 {
        let t = self.size_ratio.max(2) as u64;
        (self.buffer_bytes as u64).saturating_mul(t.saturating_pow(i as u32 + 1))
    }

    /// Validates invariants; called by `Db::open`.
    pub fn validate(&self) -> Result<(), String> {
        if self.block_size < 64 {
            return Err("block_size must be ≥ 64".into());
        }
        if self.buffer_bytes < self.block_size {
            return Err("buffer_bytes must be ≥ block_size".into());
        }
        if self.size_ratio < 2 {
            return Err("size_ratio must be ≥ 2".into());
        }
        if self.l0_run_cap == 0 {
            return Err("l0_run_cap must be ≥ 1".into());
        }
        if self.restart_interval == 0 {
            return Err("restart_interval must be ≥ 1".into());
        }
        if !self.bits_per_key.is_finite() || self.bits_per_key < 0.0 {
            return Err(format!("bits_per_key {} must be finite and ≥ 0", self.bits_per_key));
        }
        if self.target_table_bytes < self.block_size {
            return Err("target_table_bytes must be ≥ block_size".into());
        }
        if let MergeLayout::Hybrid(caps) = &self.layout {
            if caps.is_empty() {
                return Err("hybrid layout needs at least one run cap".into());
            }
        }
        if self.background == BackgroundMode::Threaded && self.background_workers == 0 {
            return Err("threaded background mode needs ≥ 1 worker".into());
        }
        if self.max_subcompactions == 0 || self.max_subcompactions > 64 {
            return Err("max_subcompactions must be in 1..=64".into());
        }
        if self.l0_slowdown_runs == 0 || self.l0_stall_runs < self.l0_slowdown_runs {
            return Err("need 1 ≤ l0_slowdown_runs ≤ l0_stall_runs".into());
        }
        // The compaction trigger fires only when L0 *exceeds* its run cap.
        // A stall threshold at or below the cap would block writers at a
        // level the planner considers healthy — a permanent stall.
        if self.background == BackgroundMode::Threaded && self.l0_stall_runs <= self.l0_run_cap {
            return Err("l0_stall_runs must exceed l0_run_cap in threaded mode".into());
        }
        Ok(())
    }

    /// `self` with its retunable knobs taken from `from`. This is the one
    /// list of the fields a running engine may change
    /// ([`crate::DbCore::set_config`]): each is read at a decision point
    /// that can move mid-flight — the next table build, compaction pick
    /// or write admission — so existing data never has to be rewritten.
    pub(crate) fn with_knobs_of(&self, from: &LsmConfig) -> LsmConfig {
        LsmConfig {
            bits_per_key: from.bits_per_key,
            filter_allocation: from.filter_allocation,
            layout: from.layout.clone(),
            size_ratio: from.size_ratio,
            l0_slowdown_runs: from.l0_slowdown_runs,
            l0_stall_runs: from.l0_stall_runs,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        assert!(LsmConfig::default().validate().is_ok());
        assert!(LsmConfig::small_for_tests().validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let cases: [LsmConfig; 11] = [
            LsmConfig { max_subcompactions: 0, ..Default::default() },
            LsmConfig { bits_per_key: f64::NAN, ..Default::default() },
            LsmConfig { bits_per_key: -3.0, ..Default::default() },
            LsmConfig { size_ratio: 1, ..Default::default() },
            LsmConfig { block_size: 8, ..Default::default() },
            LsmConfig { buffer_bytes: 100, ..Default::default() },
            LsmConfig { layout: MergeLayout::Hybrid(vec![]), ..Default::default() },
            LsmConfig { restart_interval: 0, ..Default::default() },
            LsmConfig {
                background: BackgroundMode::Threaded,
                background_workers: 0,
                ..Default::default()
            },
            LsmConfig { l0_stall_runs: 2, l0_slowdown_runs: 4, ..Default::default() },
            LsmConfig {
                // stall at the L0 cap: writers would block with nothing
                // for the planner to do
                background: BackgroundMode::Threaded,
                l0_run_cap: 4,
                l0_slowdown_runs: 2,
                l0_stall_runs: 4,
                ..Default::default()
            },
        ];
        for (i, c) in cases.iter().enumerate() {
            assert!(c.validate().is_err(), "case {i} should be rejected");
        }
    }

    #[test]
    fn level_capacities_grow_geometrically() {
        let c = LsmConfig {
            buffer_bytes: 1000,
            size_ratio: 10,
            ..Default::default()
        };
        assert_eq!(c.level_capacity_bytes(0), 10_000);
        assert_eq!(c.level_capacity_bytes(1), 100_000);
        assert_eq!(c.level_capacity_bytes(2), 1_000_000);
    }

    #[test]
    fn run_caps_by_layout() {
        let t = 10;
        assert_eq!(MergeLayout::Leveled.run_cap(0, 3, t), 1);
        assert_eq!(MergeLayout::Tiered.run_cap(1, 3, t), 9);
        assert_eq!(MergeLayout::LazyLeveled.run_cap(0, 3, t), 9);
        assert_eq!(MergeLayout::LazyLeveled.run_cap(2, 3, t), 1);
        let h = MergeLayout::Hybrid(vec![4, 2, 1]);
        assert_eq!(h.run_cap(0, 5, t), 4);
        assert_eq!(h.run_cap(1, 5, t), 2);
        assert_eq!(h.run_cap(2, 5, t), 1);
        assert_eq!(h.run_cap(4, 5, t), 1, "reuses last cap");
    }

    #[test]
    fn lazy_leveled_single_level_is_leveled() {
        assert_eq!(MergeLayout::LazyLeveled.run_cap(0, 1, 10), 1);
    }
}
