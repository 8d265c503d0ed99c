//! LFU shard with aging: evicts the entry with the lowest access
//! frequency, breaking ties by insertion age. Periodic halving of all
//! counters ("aging") keeps once-hot-now-cold blocks from squatting — the
//! standard fix for LFU's main pathology.
//!
//! A cache **hit** is a counter increment and nothing else. The previous
//! implementation kept a `BTreeSet<(freq, tick, key)>` eviction order and
//! reshuffled it on every hit (~7× an LRU hit's cost); instead, eviction
//! now samples candidates from a probe ring of keys and removes the
//! sampled minimum — the Redis-style approximated LFU. For shards whose
//! live set fits in one sample the scan covers every entry, so eviction
//! is *exactly* min-(freq, tick); larger shards get the usual sampled
//! approximation while hits stay O(1).

use std::collections::hash_map::Entry as Slot;
use std::collections::HashSet;

use crate::traits::{CacheKey, CacheShard, KeyMap};

/// Eviction candidates examined per eviction. Shards at or below this
/// many entries get exact LFU; above it, sampled LFU.
const EVICTION_SAMPLE: usize = 32;

struct Entry<V> {
    value: V,
    charge: usize,
    freq: u64,
    tick: u64,
}

/// A least-frequently-used cache shard with counter aging.
pub struct LfuShard<V> {
    map: KeyMap<Entry<V>>,
    /// Probe ring: keys in insertion order, possibly stale (evicted or
    /// removed keys linger until compaction). Eviction scans from
    /// `cursor` so successive evictions sample different regions.
    probe: Vec<CacheKey>,
    cursor: usize,
    used: usize,
    capacity: usize,
    tick: u64,
    ops_since_aging: u64,
    aging_period: u64,
}

impl<V: Clone + Send> LfuShard<V> {
    /// Shard with the given capacity; counters halve every
    /// `aging_period` operations (default 8192).
    pub fn new(capacity: usize) -> Self {
        LfuShard {
            map: KeyMap::default(),
            probe: Vec::new(),
            cursor: 0,
            used: 0,
            capacity,
            tick: 0,
            ops_since_aging: 0,
            aging_period: 8192,
        }
    }

    /// Overrides the aging period (operations between counter halvings).
    pub fn with_aging_period(mut self, period: u64) -> Self {
        self.aging_period = period.max(1);
        self
    }

    fn maybe_age(&mut self) {
        self.ops_since_aging += 1;
        if self.ops_since_aging < self.aging_period {
            return;
        }
        self.ops_since_aging = 0;
        for e in self.map.values_mut() {
            e.freq /= 2;
        }
    }

    /// Drops stale ring slots once they outnumber live entries: keeps
    /// eviction scans proportional to the live set.
    fn maybe_compact(&mut self) {
        if self.probe.len() > 2 * self.map.len() + 8 {
            let map = &self.map;
            let mut seen = HashSet::with_capacity(map.len());
            self.probe.retain(|k| map.contains_key(k) && seen.insert(*k));
            self.cursor = 0;
        }
    }

    fn evict_one(&mut self) -> bool {
        let n = self.probe.len();
        if n == 0 || self.map.is_empty() {
            return false;
        }
        // scan the ring from the cursor, collecting up to EVICTION_SAMPLE
        // live candidates (at most one full lap); keep the (freq, tick)
        // minimum — lowest frequency, oldest insertion on ties
        let mut best: Option<(u64, u64, usize)> = None;
        let mut live = 0usize;
        let mut i = self.cursor % n;
        for _ in 0..n {
            if let Some(e) = self.map.get(&self.probe[i]) {
                let cand = (e.freq, e.tick, i);
                if best.is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
                    best = Some(cand);
                }
                live += 1;
                if live >= EVICTION_SAMPLE {
                    i = (i + 1) % n;
                    break;
                }
            }
            i = (i + 1) % n;
        }
        self.cursor = i;
        let Some((_, _, slot)) = best else {
            // every scanned slot was stale
            self.probe.clear();
            self.cursor = 0;
            return false;
        };
        let key = self.probe.swap_remove(slot);
        if let Some(e) = self.map.remove(&key) {
            self.used -= e.charge;
        }
        self.maybe_compact();
        true
    }
}

impl<V: Clone + Send> CacheShard<V> for LfuShard<V> {
    fn get(&mut self, key: &CacheKey) -> Option<V> {
        self.maybe_age();
        // a hit is one counter bump — no order structure to maintain
        let e = self.map.get_mut(key)?;
        e.freq += 1;
        Some(e.value.clone())
    }

    fn insert(&mut self, key: CacheKey, value: V, charge: usize) -> usize {
        self.maybe_age();
        if charge > self.capacity {
            self.remove(&key);
            return 0;
        }
        self.tick += 1;
        match self.map.entry(key) {
            Slot::Occupied(mut e) => {
                let e = e.get_mut();
                self.used = self.used - e.charge + charge;
                e.value = value;
                e.charge = charge;
                e.freq += 1;
            }
            Slot::Vacant(e) => {
                e.insert(Entry {
                    value,
                    charge,
                    freq: 1,
                    tick: self.tick,
                });
                self.probe.push(key);
                self.used += charge;
            }
        }
        let mut evicted = 0;
        while self.used > self.capacity {
            if !self.evict_one() {
                break;
            }
            evicted += 1;
        }
        evicted
    }

    fn remove(&mut self, key: &CacheKey) -> bool {
        match self.map.remove(key) {
            Some(e) => {
                self.used -= e.charge;
                // the ring slot goes stale; compaction reclaims it
                self.maybe_compact();
                true
            }
            None => false,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn used(&self) -> usize {
        self.used
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::LruShard;

    fn k(i: u64) -> CacheKey {
        CacheKey::new(0, i)
    }

    #[test]
    fn evicts_least_frequent() {
        let mut c = LfuShard::new(3);
        c.insert(k(1), 1, 1);
        c.insert(k(2), 2, 1);
        c.insert(k(3), 3, 1);
        // heat up 1 and 3
        for _ in 0..5 {
            c.get(&k(1));
            c.get(&k(3));
        }
        c.insert(k(4), 4, 1); // evicts 2 (freq 1)
        assert_eq!(c.get(&k(2)), None);
        assert!(c.get(&k(1)).is_some());
        assert!(c.get(&k(3)).is_some());
    }

    #[test]
    fn tie_breaks_by_age() {
        let mut c = LfuShard::new(2);
        c.insert(k(1), 1, 1);
        c.insert(k(2), 2, 1);
        c.insert(k(3), 3, 1); // both freq 1: evict the older (1)
        assert_eq!(c.get(&k(1)), None);
        assert!(c.get(&k(2)).is_some());
    }

    #[test]
    fn capacity_respected_with_varied_charges() {
        let mut c = LfuShard::new(100);
        for i in 0..50 {
            c.insert(k(i), i, 7 + (i as usize % 13));
            assert!(c.used() <= 100);
        }
    }

    #[test]
    fn aging_lets_new_entries_displace_stale_hot_ones() {
        let mut c = LfuShard::new(2).with_aging_period(8);
        c.insert(k(1), 1, 1);
        for _ in 0..100 {
            c.get(&k(1)); // very hot... long ago (ages along the way)
        }
        c.insert(k(2), 2, 1);
        // access 2 repeatedly; aging halves 1's stale count
        for _ in 0..40 {
            c.get(&k(2));
        }
        c.insert(k(3), 3, 1);
        // 1's aged frequency should have decayed below 2's fresh one
        assert!(c.get(&k(2)).is_some(), "fresh-hot entry must survive");
    }

    #[test]
    fn remove_and_reinsert() {
        let mut c = LfuShard::new(10);
        c.insert(k(1), 1, 5);
        assert!(c.remove(&k(1)));
        assert_eq!(c.used(), 0);
        c.insert(k(1), 9, 5);
        assert_eq!(c.get(&k(1)), Some(9));
    }

    #[test]
    fn oversized_rejected() {
        let mut c = LfuShard::new(4);
        c.insert(k(1), 1, 5);
        assert!(c.is_empty());
    }

    #[test]
    fn replace_bumps_frequency() {
        let mut c = LfuShard::new(2);
        c.insert(k(1), 1, 1);
        c.insert(k(1), 2, 1); // freq 2 now
        c.insert(k(2), 9, 1); // freq 1
        c.insert(k(3), 9, 1); // evicts 2, not 1
        assert!(c.get(&k(1)).is_some());
        assert_eq!(c.get(&k(2)), None);
    }

    #[test]
    fn churn_does_not_leak_ring_slots() {
        let mut c = LfuShard::new(8);
        for i in 0..10_000u64 {
            c.insert(k(i), i, 1);
        }
        assert!(c.len() <= 8);
        // the probe ring must stay proportional to the live set, not the
        // insertion history
        assert!(
            c.probe.len() <= 2 * c.len() + 8 + EVICTION_SAMPLE,
            "ring leaked: {} slots for {} entries",
            c.probe.len(),
            c.len()
        );
    }

    /// Sampled LFU must keep frequency-skewed hit rates at or above LRU's
    /// on a scan-polluted skewed workload — the parity proof that the O(1)
    /// hit path did not cost eviction quality.
    #[test]
    fn hit_rate_parity_with_lru_on_skewed_workload() {
        let cap = 64usize;
        let mut lfu: LfuShard<u64> = LfuShard::new(cap).with_aging_period(512);
        let mut lru: LruShard<u64> = LruShard::new(cap);
        let mut lfu_hits = 0u64;
        let mut lru_hits = 0u64;
        let mut lookups = 0u64;
        let mut x = 0x9E3779B97F4A7C15u64;
        for round in 0..40_000u64 {
            // 80% of traffic over 32 hot keys, 20% a scan over 4096 cold keys
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = if x % 10 < 8 {
                k((x >> 32) % 32)
            } else {
                k(1000 + round % 4096)
            };
            lookups += 1;
            if lfu.get(&key).is_some() {
                lfu_hits += 1;
            } else {
                lfu.insert(key, 0, 1);
            }
            if lru.get(&key).is_some() {
                lru_hits += 1;
            } else {
                lru.insert(key, 0, 1);
            }
        }
        let lfu_rate = lfu_hits as f64 / lookups as f64;
        let lru_rate = lru_hits as f64 / lookups as f64;
        assert!(
            lfu_rate >= lru_rate,
            "LFU hit rate {lfu_rate:.3} fell below LRU {lru_rate:.3} on a frequency-skewed workload"
        );
        assert!(lfu_rate > 0.5, "hot set must be cache-resident ({lfu_rate:.3})");
    }
}
