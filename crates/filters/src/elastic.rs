//! ElasticBF-style hotness-aware filter group (Li et al., ATC '19;
//! tutorial Module II.2).
//!
//! Instead of one monolithic Bloom filter per run, the key set is covered
//! by several small independent filter *units*. All units are built (and
//! persisted with the run), but only a subset is held in memory; a lookup
//! probes the enabled units and its FPR is the product of their individual
//! FPRs. Under access skew the engine enables more units for hot runs and
//! fewer for cold ones, getting a lower *weighted* FPR out of the same
//! total memory.

use crate::bloom::BloomFilter;
use crate::hash::hash64_seed;
use crate::traits::PointFilter;

/// A group of independent Bloom-filter units over one key set.
pub struct ElasticFilterGroup {
    units: Vec<BloomFilter>,
    enabled: usize,
    accesses: u64,
    num_keys: usize,
}

impl ElasticFilterGroup {
    /// Builds `num_units` units of `bits_per_key_per_unit` bits each.
    /// Initially `initial_enabled` units are resident.
    pub fn build(
        keys: &[&[u8]],
        num_units: usize,
        bits_per_key_per_unit: f64,
        initial_enabled: usize,
    ) -> Self {
        assert!(num_units > 0, "need at least one unit");
        let units = (0..num_units)
            .map(|u| {
                // each unit hashes with its own seed, making unit FPRs
                // independent
                let hashes: Vec<u64> = keys
                    .iter()
                    .map(|k| hash64_seed(k, 0x5EED_0000 + u as u64))
                    .collect();
                BloomFilter::build_from_hashes(&hashes, bits_per_key_per_unit)
            })
            .collect();
        ElasticFilterGroup {
            units,
            enabled: initial_enabled.clamp(1, num_units),
            accesses: 0,
            num_keys: keys.len(),
        }
    }

    /// Number of units currently resident in memory.
    pub fn enabled_units(&self) -> usize {
        self.enabled
    }

    /// Lookups served since the last [`Self::take_accesses`].
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Returns and resets the access counter (for the adjustment policy).
    pub fn take_accesses(&mut self) -> u64 {
        std::mem::take(&mut self.accesses)
    }

    /// Enables one more unit if available. Returns whether anything changed.
    pub fn expand(&mut self) -> bool {
        if self.enabled < self.units.len() {
            self.enabled += 1;
            true
        } else {
            false
        }
    }

    /// Disables one unit if more than one is enabled.
    pub fn shrink(&mut self) -> bool {
        if self.enabled > 1 {
            self.enabled -= 1;
            true
        } else {
            false
        }
    }

    /// Probes the enabled units, counting the access.
    pub fn may_contain_counted(&mut self, key: &[u8]) -> bool {
        self.accesses += 1;
        self.probe(key)
    }

    fn probe(&self, key: &[u8]) -> bool {
        self.units[..self.enabled]
            .iter()
            .enumerate()
            .all(|(idx, u)| u.may_contain_hash(hash64_seed(key, 0x5EED_0000 + idx as u64)))
    }

    /// Memory footprint of the *enabled* units only.
    pub fn resident_bits(&self) -> usize {
        self.units[..self.enabled].iter().map(|u| u.size_bits()).sum()
    }
}

impl PointFilter for ElasticFilterGroup {
    fn may_contain(&self, key: &[u8]) -> bool {
        self.probe(key)
    }

    fn size_bits(&self) -> usize {
        self.resident_bits()
    }

    fn num_keys(&self) -> usize {
        self.num_keys
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.units.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.enabled as u32).to_le_bytes());
        for u in &self.units {
            let b = u.to_bytes();
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(&b);
        }
        out
    }
}

/// Rebalances enabled units across a set of groups under a global memory
/// budget: hot groups (more accesses) expand, cold groups shrink. One call
/// performs one greedy move; callers invoke it periodically.
pub fn rebalance_one_step(groups: &mut [ElasticFilterGroup], max_total_bits: usize) -> bool {
    if groups.len() < 2 {
        return false;
    }
    let hottest = (0..groups.len()).max_by_key(|&i| groups[i].accesses).unwrap();
    let coldest = (0..groups.len())
        .filter(|&i| i != hottest)
        .min_by_key(|&i| groups[i].accesses)
        .unwrap();
    if groups[hottest].accesses <= groups[coldest].accesses {
        return false;
    }
    let total: usize = groups.iter().map(|g| g.resident_bits()).sum();
    // expand the hottest; shrink the coldest first if over budget
    if total >= max_total_bits
        && !groups[coldest].shrink() {
            return false;
        }
    groups[hottest].expand()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bloom::empirical_fpr;

    fn keys(range: std::ops::Range<usize>) -> Vec<Vec<u8>> {
        range.map(|i| format!("key{i:08}").into_bytes()).collect()
    }

    fn refs(keys: &[Vec<u8>]) -> Vec<&[u8]> {
        keys.iter().map(|k| k.as_slice()).collect()
    }

    #[test]
    fn no_false_negatives_at_any_enablement() {
        let present = keys(0..2000);
        let mut g = ElasticFilterGroup::build(&refs(&present), 4, 3.0, 1);
        for enabled in 1..=4 {
            while g.enabled_units() < enabled {
                g.expand();
            }
            for k in &present {
                assert!(g.may_contain(k), "enabled={enabled}");
            }
        }
    }

    #[test]
    fn more_units_lower_fpr() {
        let present = keys(0..5000);
        let absent = keys(50_000..80_000);
        let mut g = ElasticFilterGroup::build(&refs(&present), 4, 3.0, 1);
        let fpr1 = empirical_fpr(&g, &absent);
        g.expand();
        g.expand();
        g.expand();
        let fpr4 = empirical_fpr(&g, &absent);
        assert!(fpr4 < fpr1, "{fpr4} vs {fpr1}");
    }

    #[test]
    fn expand_and_shrink_bounds() {
        let present = keys(0..100);
        let mut g = ElasticFilterGroup::build(&refs(&present), 3, 4.0, 2);
        assert_eq!(g.enabled_units(), 2);
        assert!(g.expand());
        assert!(!g.expand());
        assert!(g.shrink());
        assert!(g.shrink());
        assert!(!g.shrink(), "never below one unit");
        assert_eq!(g.enabled_units(), 1);
    }

    #[test]
    fn access_counting() {
        let present = keys(0..100);
        let mut g = ElasticFilterGroup::build(&refs(&present), 2, 4.0, 1);
        for k in present.iter().take(10) {
            g.may_contain_counted(k);
        }
        assert_eq!(g.accesses(), 10);
        assert_eq!(g.take_accesses(), 10);
        assert_eq!(g.accesses(), 0);
    }

    #[test]
    fn rebalance_moves_memory_to_hot_group() {
        let a_keys = keys(0..1000);
        let b_keys = keys(1000..2000);
        let mut groups = vec![
            ElasticFilterGroup::build(&refs(&a_keys), 4, 3.0, 2),
            ElasticFilterGroup::build(&refs(&b_keys), 4, 3.0, 2),
        ];
        // group 0 is hot
        for k in a_keys.iter().take(100) {
            groups[0].may_contain_counted(k);
        }
        groups[1].may_contain_counted(&b_keys[0]);
        let budget: usize = groups.iter().map(|g| g.resident_bits()).sum();
        assert!(rebalance_one_step(&mut groups, budget));
        assert_eq!(groups[0].enabled_units(), 3);
        assert_eq!(groups[1].enabled_units(), 1);
    }

    #[test]
    fn rebalance_noop_when_equal_heat() {
        let a_keys = keys(0..100);
        let mut groups = vec![
            ElasticFilterGroup::build(&refs(&a_keys), 2, 3.0, 1),
            ElasticFilterGroup::build(&refs(&a_keys), 2, 3.0, 1),
        ];
        assert!(!rebalance_one_step(&mut groups, usize::MAX));
    }

    #[test]
    fn resident_bits_scale_with_enabled() {
        let present = keys(0..1000);
        let mut g = ElasticFilterGroup::build(&refs(&present), 4, 3.0, 1);
        let one = g.resident_bits();
        g.expand();
        assert_eq!(g.resident_bits(), one * 2);
    }
}
