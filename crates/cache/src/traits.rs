//! Cache abstractions shared by all eviction policies.

/// Cache key: a block address `(file_id, block_index)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// File the block belongs to.
    pub file: u64,
    /// Block index within the file.
    pub block: u64,
}

impl CacheKey {
    /// Convenience constructor.
    pub fn new(file: u64, block: u64) -> Self {
        CacheKey { file, block }
    }
}

/// Hashes a [`CacheKey`] — its two words — with one fixed multiply-rotate
/// step per word and a murmur3 finalizer: a few cycles where SipHash
/// takes tens of nanoseconds, and a block address needs no defence
/// against adversarial keys.
#[derive(Clone, Copy, Default)]
pub(crate) struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(23) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

/// The map every shard keeps its keys in.
pub(crate) type KeyMap<V> =
    std::collections::HashMap<CacheKey, V, std::hash::BuildHasherDefault<KeyHasher>>;

/// A single-threaded cache shard with byte-charged capacity.
///
/// Contract: `used() <= capacity()` after every call; `get` returns a clone
/// of the cached value and may update recency/frequency state.
pub trait CacheShard<V: Clone>: Send {
    /// Looks up a key, updating replacement state on hit.
    fn get(&mut self, key: &CacheKey) -> Option<V>;

    /// Inserts (or replaces) an entry with the given charge, evicting as
    /// needed. Entries larger than the whole capacity are not admitted.
    /// Returns how many resident entries were evicted to make room.
    fn insert(&mut self, key: CacheKey, value: V, charge: usize) -> usize;

    /// Removes an entry; returns whether it was present. Used when a
    /// compaction deletes a file.
    fn remove(&mut self, key: &CacheKey) -> bool;

    /// Number of resident entries.
    fn len(&self) -> usize;

    /// Whether the shard is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of charges of resident entries.
    fn used(&self) -> usize;

    /// Configured capacity in charge units.
    fn capacity(&self) -> usize;
}

/// Which eviction policy a [`crate::ShardedCache`] uses — one axis of the
/// design space (tutorial Module II.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CachePolicy {
    /// Least-recently-used (the RocksDB default).
    Lru,
    /// Least-frequently-used with aging.
    Lfu,
    /// CLOCK (second chance): LRU approximation with cheaper bookkeeping.
    Clock,
    /// First-in-first-out: no recency tracking at all (baseline).
    Fifo,
}

impl CachePolicy {
    /// All policies, for experiment sweeps.
    pub const ALL: [CachePolicy; 4] = [
        CachePolicy::Lru,
        CachePolicy::Lfu,
        CachePolicy::Clock,
        CachePolicy::Fifo,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            CachePolicy::Lru => "lru",
            CachePolicy::Lfu => "lfu",
            CachePolicy::Clock => "clock",
            CachePolicy::Fifo => "fifo",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_key_ordering_groups_by_file() {
        let a = CacheKey::new(1, 99);
        let b = CacheKey::new(2, 0);
        assert!(a < b);
    }

    #[test]
    fn key_hasher_spreads_neighbouring_blocks() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<KeyHasher>::default();
        let mut low_bits = std::collections::HashSet::new();
        for file in 0..4u64 {
            for block in 0..64u64 {
                low_bits.insert(build.hash_one(CacheKey::new(file, block)) & 0xFFF);
            }
        }
        // 256 neighbouring addresses over 4096 buckets: a weak mix collides
        assert!(low_bits.len() > 240, "{} distinct bucket indexes of 256", low_bits.len());
    }

    #[test]
    fn labels_distinct() {
        let mut labels: Vec<_> = CachePolicy::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), CachePolicy::ALL.len());
    }
}
