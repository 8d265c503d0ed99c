//! FIFO shard: evicts in insertion order, ignoring recency entirely.
//! The baseline that shows what recency/frequency tracking buys.

use std::collections::VecDeque;

use crate::traits::{CacheKey, CacheShard, KeyMap};

struct Entry<V> {
    value: V,
    charge: usize,
    generation: u64,
}

/// A first-in-first-out cache shard.
pub struct FifoShard<V> {
    map: KeyMap<Entry<V>>,
    queue: VecDeque<(CacheKey, u64)>,
    used: usize,
    capacity: usize,
    generation: u64,
}

impl<V: Clone + Send> FifoShard<V> {
    /// Shard with the given capacity in charge units.
    pub fn new(capacity: usize) -> Self {
        FifoShard {
            map: KeyMap::default(),
            queue: VecDeque::new(),
            used: 0,
            capacity,
            generation: 0,
        }
    }

    fn evict_one(&mut self) -> bool {
        while let Some((key, generation)) = self.queue.pop_front() {
            // skip stale queue entries (replaced or removed keys)
            if let Some(e) = self.map.get(&key) {
                if e.generation == generation {
                    self.used -= e.charge;
                    self.map.remove(&key);
                    return true;
                }
            }
        }
        false
    }
}

impl<V: Clone + Send> CacheShard<V> for FifoShard<V> {
    fn get(&mut self, key: &CacheKey) -> Option<V> {
        self.map.get(key).map(|e| e.value.clone())
    }

    fn insert(&mut self, key: CacheKey, value: V, charge: usize) -> usize {
        if charge > self.capacity {
            self.remove(&key);
            return 0;
        }
        self.generation += 1;
        if let Some(old) = self.map.insert(
            key,
            Entry {
                value,
                charge,
                generation: self.generation,
            },
        ) {
            self.used -= old.charge;
        }
        self.used += charge;
        self.queue.push_back((key, self.generation));
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

    fn k(i: u64) -> CacheKey {
        CacheKey::new(0, i)
    }

    #[test]
    fn evicts_in_insertion_order_regardless_of_access() {
        let mut c = FifoShard::new(3);
        c.insert(k(1), 1, 1);
        c.insert(k(2), 2, 1);
        c.insert(k(3), 3, 1);
        // touching 1 does not save it under FIFO
        c.get(&k(1));
        c.get(&k(1));
        c.insert(k(4), 4, 1);
        assert_eq!(c.get(&k(1)), None);
        assert!(c.get(&k(2)).is_some());
    }

    #[test]
    fn replacement_refreshes_queue_position() {
        let mut c = FifoShard::new(2);
        c.insert(k(1), 1, 1);
        c.insert(k(2), 2, 1);
        c.insert(k(1), 9, 1); // re-inserted: moves to back
        c.insert(k(3), 3, 1); // evicts 2 (now oldest)
        assert_eq!(c.get(&k(2)), None);
        assert_eq!(c.get(&k(1)), Some(9));
    }

    #[test]
    fn capacity_respected() {
        let mut c = FifoShard::new(10);
        for i in 0..50 {
            c.insert(k(i), i, 3);
            assert!(c.used() <= 10);
        }
    }

    #[test]
    fn stale_queue_entries_skipped_after_remove() {
        let mut c = FifoShard::new(3);
        c.insert(k(1), 1, 1);
        c.insert(k(2), 2, 1);
        assert!(c.remove(&k(1)));
        c.insert(k(3), 3, 1);
        c.insert(k(4), 4, 1);
        // eviction must pick 2 (oldest live), not choke on removed 1
        c.insert(k(5), 5, 1);
        assert_eq!(c.get(&k(2)), None);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn oversized_rejected() {
        let mut c = FifoShard::new(2);
        c.insert(k(1), 1, 3);
        assert!(c.is_empty());
    }
}
