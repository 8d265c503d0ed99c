//! Closed-form worst-case I/O cost models for LSM-trees.
//!
//! These are the standard models from Monkey (Dayan et al., SIGMOD '17)
//! and Dostoevsky (Dayan & Idreos, SIGMOD '18) that the tutorial's
//! Module III builds its navigation story on. All costs are in *storage
//! accesses per operation*; the experiment suite checks that the measured
//! engine reproduces their shapes.

/// Merge policy — the primary shape axis (tutorial Module I.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MergePolicy {
    /// One sorted run per level; merge eagerly (LevelDB/RocksDB default).
    Leveling,
    /// Up to `T` runs per level; merge lazily (Cassandra/ScyllaDB STCS).
    Tiering,
    /// Tiering on all levels except the largest, which is leveled
    /// (Dostoevsky's lazy leveling).
    LazyLeveling,
}

impl MergePolicy {
    /// All policies.
    pub const ALL: [MergePolicy; 3] = [
        MergePolicy::Leveling,
        MergePolicy::Tiering,
        MergePolicy::LazyLeveling,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            MergePolicy::Leveling => "leveling",
            MergePolicy::Tiering => "tiering",
            MergePolicy::LazyLeveling => "lazy-leveling",
        }
    }
}

/// A point in the LSM design space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LsmDesign {
    /// Merge policy.
    pub policy: MergePolicy,
    /// Size ratio between adjacent levels (≥ 2).
    pub size_ratio: u64,
    /// Memory buffer capacity, in entries.
    pub buffer_entries: u64,
    /// Bloom filter bits per key (0 = no filters).
    pub bits_per_key: f64,
    /// Whether filter memory uses Monkey's optimal allocation.
    pub monkey: bool,
}

impl Default for LsmDesign {
    fn default() -> Self {
        LsmDesign {
            policy: MergePolicy::Leveling,
            size_ratio: 10,
            buffer_entries: 1 << 16,
            bits_per_key: 10.0,
            monkey: false,
        }
    }
}

/// Workload description for cost weighting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadProfile {
    /// Fraction of writes (inserts/updates).
    pub writes: f64,
    /// Fraction of point lookups on existing keys.
    pub point_reads: f64,
    /// Fraction of point lookups on absent keys.
    pub empty_point_reads: f64,
    /// Fraction of range scans.
    pub range_reads: f64,
    /// Average range selectivity, in entries returned per scan.
    pub range_entries: f64,
}

impl WorkloadProfile {
    /// Normalizes fractions to sum to one.
    pub fn normalized(mut self) -> Self {
        let total = self.writes + self.point_reads + self.empty_point_reads + self.range_reads;
        if total > 0.0 {
            self.writes /= total;
            self.point_reads /= total;
            self.empty_point_reads /= total;
            self.range_reads /= total;
        }
        self
    }
}

const LN2_SQ: f64 = std::f64::consts::LN_2 * std::f64::consts::LN_2;

/// Bloom FPR for a bits-per-key budget.
fn bloom_fpr(bits_per_key: f64) -> f64 {
    if bits_per_key <= 0.0 {
        1.0
    } else {
        (-bits_per_key * LN2_SQ).exp().min(1.0)
    }
}

/// The analytical cost model for one design over one data size.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// The design being modeled.
    pub design: LsmDesign,
    /// Total entries in the tree.
    pub num_entries: u64,
    /// Entries per storage block.
    pub entries_per_block: u64,
}

impl CostModel {
    /// Creates a model; `entries_per_block` must be ≥ 1.
    pub fn new(design: LsmDesign, num_entries: u64, entries_per_block: u64) -> Self {
        CostModel {
            design,
            num_entries,
            entries_per_block: entries_per_block.max(1),
        }
    }

    /// Number of storage levels `L = ceil(log_T(N / P))`, at least 1.
    pub fn num_levels(&self) -> u64 {
        let t = self.design.size_ratio.max(2) as f64;
        let n = self.num_entries.max(1) as f64;
        let p = self.design.buffer_entries.max(1) as f64;
        if n <= p {
            return 1;
        }
        ((n / p).ln() / t.ln()).ceil().max(1.0) as u64
    }

    /// Number of sorted runs a point lookup may probe.
    pub fn runs_to_probe(&self) -> f64 {
        let l = self.num_levels() as f64;
        let t = self.design.size_ratio.max(2) as f64;
        match self.design.policy {
            MergePolicy::Leveling => l,
            MergePolicy::Tiering => l * (t - 1.0),
            MergePolicy::LazyLeveling => (l - 1.0).max(0.0) * (t - 1.0) + 1.0,
        }
    }

    /// Expected per-run FPR sum (the zero-result lookup cost in I/Os).
    ///
    /// With uniform allocation every run has FPR `p`, so the cost is
    /// `runs * p`. With Monkey the sum collapses to `O(p_L)` — modeled as
    /// the uniform cost times the Monkey improvement factor
    /// `(T-1)/T / L`-ish; we use the closed form from the Monkey paper:
    /// total FPR `≈ p_uniform * (T/(T-1)) / L` for leveling.
    pub fn zero_result_lookup_cost(&self) -> f64 {
        let p = bloom_fpr(self.design.bits_per_key);
        let runs = self.runs_to_probe();
        let uniform = runs * p;
        if !self.design.monkey {
            return uniform.min(runs);
        }
        // Monkey: sum of FPRs with optimal allocation at equal memory is
        // smaller by roughly L / (T/(T-1)): the sum becomes a geometric
        // series dominated by the largest level.
        let l = self.num_levels() as f64;
        let t = self.design.size_ratio.max(2) as f64;
        let factor = (t / (t - 1.0)) / l.max(1.0);
        (uniform * factor).min(runs)
    }

    /// Expected cost of a point lookup that finds its key: one data-block
    /// read plus false-positive reads along the way.
    pub fn point_lookup_cost(&self) -> f64 {
        1.0 + self.zero_result_lookup_cost() * 0.5
    }

    /// Short range scan: one block per qualifying run (filters do not help).
    pub fn short_range_cost(&self) -> f64 {
        self.runs_to_probe()
    }

    /// Long range scan returning `s` entries: seek per run plus the
    /// sequential entry transfer, which the largest level dominates.
    pub fn long_range_cost(&self, s: f64) -> f64 {
        let b = self.entries_per_block as f64;
        let t = self.design.size_ratio.max(2) as f64;
        let transfer = match self.design.policy {
            MergePolicy::Leveling => s / b,
            // tiered last level has up to T-1 overlapping runs to merge
            MergePolicy::Tiering => (t - 1.0) * s / b,
            MergePolicy::LazyLeveling => s / b,
        };
        self.runs_to_probe() + transfer
    }

    /// Amortized write cost in I/Os per inserted entry: each entry is
    /// copied `O(T)` times per level under leveling but only once per
    /// level under tiering, divided by block fan-in.
    pub fn write_cost(&self) -> f64 {
        let l = self.num_levels() as f64;
        let t = self.design.size_ratio.max(2) as f64;
        let b = self.entries_per_block as f64;
        match self.design.policy {
            MergePolicy::Leveling => l * (t - 1.0) / (2.0 * b),
            MergePolicy::Tiering => l / b,
            MergePolicy::LazyLeveling => ((l - 1.0).max(0.0) + (t - 1.0) / 2.0) / b,
        }
    }

    /// Space amplification upper bound (obsolete-entry overhead).
    pub fn space_amplification(&self) -> f64 {
        let t = self.design.size_ratio.max(2) as f64;
        match self.design.policy {
            // all smaller levels may duplicate last-level entries
            MergePolicy::Leveling => 1.0 / (t - 1.0),
            // every run in the last level may duplicate every other
            MergePolicy::Tiering => t - 1.0,
            MergePolicy::LazyLeveling => 1.0 / (t - 1.0) + 1.0 / t,
        }
    }

    /// Expected cost of one operation under `w`, in I/Os.
    pub fn workload_cost(&self, w: &WorkloadProfile) -> f64 {
        let w = w.normalized();
        w.writes * self.write_cost()
            + w.point_reads * self.point_lookup_cost()
            + w.empty_point_reads * self.zero_result_lookup_cost()
            + w.range_reads * self.long_range_cost(w.range_entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(policy: MergePolicy, t: u64, bpk: f64) -> CostModel {
        CostModel::new(
            LsmDesign {
                policy,
                size_ratio: t,
                buffer_entries: 1000,
                bits_per_key: bpk,
                monkey: false,
            },
            100_000_000,
            100,
        )
    }

    #[test]
    fn level_count_shrinks_with_t() {
        let l2 = model(MergePolicy::Leveling, 2, 10.0).num_levels();
        let l10 = model(MergePolicy::Leveling, 10, 10.0).num_levels();
        assert!(l2 > l10, "{l2} vs {l10}");
        // N/P = 1e5 → log2 ≈ 17, log10 = 5
        assert_eq!(l10, 5);
        assert_eq!(l2, 17);
    }

    #[test]
    fn tiny_tree_has_one_level() {
        let m = CostModel::new(
            LsmDesign {
                buffer_entries: 1_000_000,
                ..Default::default()
            },
            1000,
            100,
        );
        assert_eq!(m.num_levels(), 1);
    }

    #[test]
    fn tiering_writes_cheaper_reads_dearer() {
        let lev = model(MergePolicy::Leveling, 10, 10.0);
        let tier = model(MergePolicy::Tiering, 10, 10.0);
        assert!(tier.write_cost() < lev.write_cost());
        assert!(tier.zero_result_lookup_cost() > lev.zero_result_lookup_cost());
        assert!(tier.short_range_cost() > lev.short_range_cost());
    }

    #[test]
    fn lazy_leveling_sits_between() {
        let lev = model(MergePolicy::Leveling, 10, 10.0);
        let tier = model(MergePolicy::Tiering, 10, 10.0);
        let lazy = model(MergePolicy::LazyLeveling, 10, 10.0);
        assert!(lazy.write_cost() < lev.write_cost());
        assert!(lazy.write_cost() > tier.write_cost() * 0.9);
        assert!(lazy.zero_result_lookup_cost() < tier.zero_result_lookup_cost());
        // lazy leveling keeps long scans as cheap as leveling
        assert!(lazy.long_range_cost(10_000.0) < tier.long_range_cost(10_000.0));
    }

    #[test]
    fn size_ratio_navigates_the_tradeoff() {
        // under leveling, larger T = fewer levels = cheaper reads,
        // more copies per merge = dearer writes
        let t2 = model(MergePolicy::Leveling, 2, 10.0);
        let t10 = model(MergePolicy::Leveling, 10, 10.0);
        assert!(t10.short_range_cost() < t2.short_range_cost());
        assert!(t10.write_cost() > t2.write_cost());
        // under tiering the directions flip
        let t2t = model(MergePolicy::Tiering, 2, 10.0);
        let t10t = model(MergePolicy::Tiering, 10, 10.0);
        assert!(t10t.short_range_cost() > t2t.short_range_cost());
        assert!(t10t.write_cost() < t2t.write_cost());
    }

    #[test]
    fn filters_bound_zero_result_cost() {
        let no_filter = model(MergePolicy::Leveling, 10, 0.0);
        let filtered = model(MergePolicy::Leveling, 10, 10.0);
        assert!((no_filter.zero_result_lookup_cost() - 5.0).abs() < 1e-9);
        assert!(filtered.zero_result_lookup_cost() < 0.1);
    }

    #[test]
    fn monkey_beats_uniform_at_equal_memory() {
        let mut design = LsmDesign {
            policy: MergePolicy::Leveling,
            size_ratio: 10,
            buffer_entries: 1000,
            bits_per_key: 8.0,
            monkey: false,
        };
        let uniform = CostModel::new(design, 100_000_000, 100);
        design.monkey = true;
        let monkey = CostModel::new(design, 100_000_000, 100);
        assert!(monkey.zero_result_lookup_cost() < uniform.zero_result_lookup_cost());
    }

    #[test]
    fn long_scans_dominated_by_transfer() {
        let m = model(MergePolicy::Leveling, 10, 10.0);
        let short = m.long_range_cost(10.0);
        let long = m.long_range_cost(1_000_000.0);
        assert!(long > short * 100.0);
    }

    #[test]
    fn space_amp_directions() {
        let lev = model(MergePolicy::Leveling, 10, 10.0);
        let tier = model(MergePolicy::Tiering, 10, 10.0);
        assert!(tier.space_amplification() > lev.space_amplification());
        // larger T shrinks leveled space amp
        let lev2 = model(MergePolicy::Leveling, 2, 10.0);
        assert!(lev2.space_amplification() > lev.space_amplification());
    }

    #[test]
    fn workload_cost_weights_components() {
        let m = model(MergePolicy::Leveling, 10, 10.0);
        let write_heavy = WorkloadProfile {
            writes: 1.0,
            point_reads: 0.0,
            empty_point_reads: 0.0,
            range_reads: 0.0,
            range_entries: 0.0,
        };
        let read_heavy = WorkloadProfile {
            writes: 0.0,
            point_reads: 1.0,
            empty_point_reads: 0.0,
            range_reads: 0.0,
            range_entries: 0.0,
        };
        assert!((m.workload_cost(&write_heavy) - m.write_cost()).abs() < 1e-12);
        assert!((m.workload_cost(&read_heavy) - m.point_lookup_cost()).abs() < 1e-12);
    }

    #[test]
    fn normalization() {
        let w = WorkloadProfile {
            writes: 2.0,
            point_reads: 2.0,
            empty_point_reads: 0.0,
            range_reads: 0.0,
            range_entries: 0.0,
        }
        .normalized();
        assert!((w.writes - 0.5).abs() < 1e-12);
        assert!((w.point_reads - 0.5).abs() < 1e-12);
    }
}
