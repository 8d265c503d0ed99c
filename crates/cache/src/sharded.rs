//! Thread-safe sharded cache front with hit/miss accounting.
//!
//! Keys are spread across shards by hash so concurrent readers rarely
//! contend on one mutex — the same structure RocksDB's block cache uses.

use std::sync::Arc;

use lsm_obs::{Counter, MetricsRegistry, MetricsSnapshot};
use parking_lot::Mutex;

use crate::clock::ClockShard;
use crate::fifo::FifoShard;
use crate::lfu::LfuShard;
use crate::lru::LruShard;
use crate::traits::{CacheKey, CachePolicy, CacheShard};

/// Hit/miss counters for a cache: the `cache.*` series of a registry
/// owned by the cache.
pub struct CacheStats {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    inserts: Arc<Counter>,
    evictions: Arc<Counter>,
    registry: MetricsRegistry,
}

impl CacheStats {
    fn new() -> Self {
        let registry = MetricsRegistry::new();
        CacheStats {
            hits: registry.counter("cache.hits"),
            misses: registry.counter("cache.misses"),
            inserts: registry.counter("cache.inserts"),
            evictions: registry.counter("cache.evictions"),
            registry,
        }
    }

    /// Lookups that found the block.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Insert operations.
    pub fn inserts(&self) -> u64 {
        self.inserts.get()
    }

    /// Entries evicted to make room for inserts.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// The same counters as named `cache.*` series.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// A sharded, thread-safe block cache with a pluggable eviction policy.
pub struct ShardedCache<V: Clone + Send> {
    shards: Vec<Mutex<Box<dyn CacheShard<V>>>>,
    stats: CacheStats,
    mask: u64,
}

impl<V: Clone + Send + 'static> ShardedCache<V> {
    /// Cache of `capacity` charge units split across `num_shards`
    /// (rounded up to a power of two) with the given policy.
    pub fn new(policy: CachePolicy, capacity: usize, num_shards: usize) -> Self {
        let shards_pow2 = num_shards.max(1).next_power_of_two();
        let per_shard = capacity / shards_pow2;
        let shards = (0..shards_pow2)
            .map(|_| {
                let shard: Box<dyn CacheShard<V>> = match policy {
                    CachePolicy::Lru => Box::new(LruShard::new(per_shard)),
                    CachePolicy::Lfu => Box::new(LfuShard::new(per_shard)),
                    CachePolicy::Clock => Box::new(ClockShard::new(per_shard)),
                    CachePolicy::Fifo => Box::new(FifoShard::new(per_shard)),
                };
                Mutex::new(shard)
            })
            .collect();
        ShardedCache {
            shards,
            stats: CacheStats::new(),
            mask: shards_pow2 as u64 - 1,
        }
    }

    fn shard_of(&self, key: &CacheKey) -> usize {
        // mix file and block so consecutive blocks spread across shards
        let h = key
            .file
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(key.block.wrapping_mul(0xC2B2AE3D27D4EB4F));
        ((h >> 32) & self.mask) as usize
    }

    /// Looks up a block, counting the hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<V> {
        let res = self.shards[self.shard_of(key)].lock().get(key);
        if res.is_some() {
            self.stats.hits.inc();
        } else {
            self.stats.misses.inc();
        }
        res
    }

    /// Inserts a block, counting any evictions it forced.
    pub fn insert(&self, key: CacheKey, value: V, charge: usize) {
        self.stats.inserts.inc();
        let evicted = self.shards[self.shard_of(&key)].lock().insert(key, value, charge) as u64;
        if evicted > 0 {
            self.stats.evictions.add(evicted);
        }
    }

    /// Removes one block.
    pub fn remove(&self, key: &CacheKey) -> bool {
        self.shards[self.shard_of(key)].lock().remove(key)
    }

    /// Removes every cached block of `file` — called when compaction
    /// deletes the file. Returns how many entries were dropped. This is
    /// the *cache invalidation by compaction* effect Leaper addresses.
    pub fn invalidate_file(&self, file: u64, max_block: u64) -> usize {
        let mut dropped = 0;
        for block in 0..=max_block {
            let key = CacheKey::new(file, block);
            if self.shards[self.shard_of(&key)].lock().remove(&key) {
                dropped += 1;
            }
        }
        dropped
    }

    /// Total resident entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total charge used.
    pub fn used(&self) -> usize {
        self.shards.iter().map(|s| s.lock().used()).sum()
    }

    /// Total configured capacity.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.lock().capacity()).sum()
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn k(f: u64, b: u64) -> CacheKey {
        CacheKey::new(f, b)
    }

    #[test]
    fn all_policies_roundtrip() {
        for policy in CachePolicy::ALL {
            let c: ShardedCache<u64> = ShardedCache::new(policy, 1024, 4);
            for i in 0..100 {
                c.insert(k(1, i), i, 8);
            }
            let mut hits = 0;
            for i in 0..100 {
                if c.get(&k(1, i)).is_some() {
                    hits += 1;
                }
            }
            assert!(hits > 50, "{}: only {hits} hits", policy.label());
            assert!(c.used() <= c.capacity(), "{}", policy.label());
        }
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let c: ShardedCache<u64> = ShardedCache::new(CachePolicy::Lru, 1024, 2);
        c.insert(k(0, 0), 7, 8);
        assert_eq!(c.get(&k(0, 0)), Some(7));
        assert_eq!(c.get(&k(0, 1)), None);
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 1);
        assert_eq!(c.stats().inserts(), 1);
        let m = c.stats().metrics();
        let names: Vec<&str> = m.counters.keys().map(String::as_str).collect();
        assert_eq!(names, ["cache.evictions", "cache.hits", "cache.inserts", "cache.misses"]);
        assert_eq!((m.counters["cache.hits"], m.counters["cache.misses"]), (1, 1));
    }

    #[test]
    fn invalidate_file_drops_all_its_blocks() {
        let c: ShardedCache<u64> = ShardedCache::new(CachePolicy::Lru, 4096, 4);
        for b in 0..20 {
            c.insert(k(7, b), b, 8);
            c.insert(k(8, b), b, 8);
        }
        let dropped = c.invalidate_file(7, 19);
        assert_eq!(dropped, 20);
        for b in 0..20 {
            assert_eq!(c.get(&k(7, b)), None);
            assert!(c.get(&k(8, b)).is_some(), "other file untouched");
        }
    }

    #[test]
    fn concurrent_access_is_safe_and_counted() {
        let c: Arc<ShardedCache<u64>> = Arc::new(ShardedCache::new(CachePolicy::Lru, 8192, 8));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for i in 0..500 {
                        c.insert(k(t, i), i, 4);
                        c.get(&k(t, i));
                    }
                });
            }
        });
        assert_eq!(c.stats().inserts(), 2000);
        assert!(c.stats().hits() + c.stats().misses() == 2000);
        assert!(c.used() <= c.capacity());
    }

    #[test]
    fn evictions_are_counted_under_every_policy() {
        for policy in CachePolicy::ALL {
            let c: ShardedCache<u64> = ShardedCache::new(policy, 256, 4);
            for i in 0..200 {
                c.insert(k(1, i), i, 8);
            }
            // 200 inserts of charge 8 into 256 bytes must evict
            assert!(c.stats().evictions() > 0, "{}: no evictions counted", policy.label());
            assert_eq!(c.stats().evictions(), 200 - c.len() as u64, "{}", policy.label());
        }
    }

    /// An entry's value drops as the entry leaves — evicted, removed or
    /// invalidated — not when its slot is next reused, so a cache never
    /// keeps dead blocks alive outside its `used` charge.
    #[test]
    fn values_drop_when_their_entries_leave_under_every_policy() {
        for policy in CachePolicy::ALL {
            let c: ShardedCache<Arc<u64>> = ShardedCache::new(policy, 64, 1);
            let values: Vec<Arc<u64>> = (0..40).map(Arc::new).collect();
            for (i, v) in values.iter().enumerate() {
                c.insert(k(1, i as u64), Arc::clone(v), 8);
            }
            let resident = |i: usize| c.get(&k(1, i as u64)).is_some();
            let live: Vec<usize> = (0..40).filter(|&i| resident(i)).collect();
            assert_eq!(live.len(), 8, "{}", policy.label());
            for (i, v) in values.iter().enumerate() {
                let held = if live.contains(&i) { 2 } else { 1 };
                assert_eq!(Arc::strong_count(v), held, "{}: value {i}", policy.label());
            }
            assert!(c.remove(&k(1, live[0] as u64)));
            assert_eq!(Arc::strong_count(&values[live[0]]), 1, "{}: removed", policy.label());
            c.invalidate_file(1, 39);
            assert!(c.is_empty());
            for (i, v) in values.iter().enumerate() {
                assert_eq!(Arc::strong_count(v), 1, "{}: value {i} invalidated", policy.label());
            }
        }
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let c: ShardedCache<u8> = ShardedCache::new(CachePolicy::Fifo, 64, 3);
        assert_eq!(c.shards.len(), 4);
    }
}
