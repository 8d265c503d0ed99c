//! Strict LRU shard: O(1) get/insert/evict via an index-linked list over a
//! slab, the same structure RocksDB's `LRUCache` uses (minus the handle
//! refcounting, which our clone-out values make unnecessary).

use std::collections::hash_map::Entry as Slot;

use crate::traits::{CacheKey, CacheShard, KeyMap};

const NIL: usize = usize::MAX;

struct Entry<V> {
    key: CacheKey,
    /// `None` once the entry leaves: a free slot holds no value.
    value: Option<V>,
    charge: usize,
    prev: usize,
    next: usize,
}

/// A least-recently-used cache shard.
pub struct LruShard<V> {
    map: KeyMap<usize>,
    slab: Vec<Entry<V>>,
    free: Vec<usize>,
    head: usize, // most recent
    tail: usize, // least recent
    used: usize,
    capacity: usize,
}

impl<V: Clone + Send> LruShard<V> {
    /// Shard with the given capacity in charge units.
    pub fn new(capacity: usize) -> Self {
        LruShard {
            map: KeyMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            used: 0,
            capacity,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn evict_one(&mut self) -> bool {
        let victim = self.tail;
        if victim == NIL {
            return false;
        }
        let key = self.slab[victim].key;
        self.map.remove(&key);
        self.release(victim);
        true
    }

    /// Frees the slot of an entry already gone from the map, dropping its
    /// value now rather than when the slot is reused.
    fn release(&mut self, idx: usize) {
        self.unlink(idx);
        self.used -= self.slab[idx].charge;
        self.slab[idx].value = None;
        self.free.push(idx);
    }
}

impl<V: Clone + Send> CacheShard<V> for LruShard<V> {
    fn get(&mut self, key: &CacheKey) -> Option<V> {
        let &idx = self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        self.slab[idx].value.clone()
    }

    fn insert(&mut self, key: CacheKey, value: V, charge: usize) -> usize {
        if charge > self.capacity {
            // never admit an entry that cannot fit; also drop any stale copy
            self.remove(&key);
            return 0;
        }
        // one probe: an update re-links its slot, a new key takes a free one
        let idx = match self.map.entry(key) {
            Slot::Occupied(e) => {
                let idx = *e.get();
                self.unlink(idx);
                self.used -= self.slab[idx].charge;
                idx
            }
            Slot::Vacant(e) => *e.insert(self.free.pop().unwrap_or(self.slab.len())),
        };
        let entry = Entry {
            key,
            value: Some(value),
            charge,
            prev: NIL,
            next: NIL,
        };
        if idx == self.slab.len() {
            self.slab.push(entry);
        } else {
            self.slab[idx] = entry;
        }
        self.push_front(idx);
        self.used += charge;
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
            Some(idx) => {
                self.release(idx);
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
    fn basic_hit_and_miss() {
        let mut c = LruShard::new(100);
        c.insert(k(1), "a", 10);
        assert_eq!(c.get(&k(1)), Some("a"));
        assert_eq!(c.get(&k(2)), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used(), 10);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruShard::new(30);
        c.insert(k(1), 1, 10);
        c.insert(k(2), 2, 10);
        c.insert(k(3), 3, 10);
        // touch 1 so 2 becomes LRU
        c.get(&k(1));
        c.insert(k(4), 4, 10);
        assert_eq!(c.get(&k(2)), None, "2 was LRU");
        assert!(c.get(&k(1)).is_some());
        assert!(c.get(&k(3)).is_some());
        assert!(c.get(&k(4)).is_some());
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = LruShard::new(50);
        for i in 0..100 {
            c.insert(k(i), i, 7);
            assert!(c.used() <= 50, "used {} at i={i}", c.used());
        }
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut c = LruShard::new(10);
        c.insert(k(1), 1, 11);
        assert_eq!(c.len(), 0);
        assert_eq!(c.get(&k(1)), None);
    }

    #[test]
    fn oversized_replacement_drops_stale_copy() {
        let mut c = LruShard::new(10);
        c.insert(k(1), 1, 5);
        c.insert(k(1), 2, 11);
        assert_eq!(c.get(&k(1)), None, "stale value must not survive");
    }

    #[test]
    fn replace_updates_charge() {
        let mut c = LruShard::new(100);
        c.insert(k(1), 1, 10);
        c.insert(k(1), 2, 30);
        assert_eq!(c.used(), 30);
        assert_eq!(c.get(&k(1)), Some(2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_frees_space() {
        let mut c = LruShard::new(100);
        c.insert(k(1), 1, 40);
        assert!(c.remove(&k(1)));
        assert!(!c.remove(&k(1)));
        assert_eq!(c.used(), 0);
        assert!(c.is_empty());
        // slot is reused
        c.insert(k(2), 2, 40);
        assert_eq!(c.get(&k(2)), Some(2));
    }

    #[test]
    fn eviction_order_is_exact_lru() {
        let mut c = LruShard::new(3);
        c.insert(k(1), 1, 1);
        c.insert(k(2), 2, 1);
        c.insert(k(3), 3, 1);
        c.get(&k(2));
        c.get(&k(1));
        // order now (MRU->LRU): 1, 2, 3
        c.insert(k(4), 4, 1); // evicts 3
        assert_eq!(c.get(&k(3)), None);
        c.insert(k(5), 5, 1); // evicts 2
        assert_eq!(c.get(&k(2)), None);
        assert!(c.get(&k(1)).is_some());
    }

    #[test]
    fn zero_capacity_holds_nothing() {
        let mut c = LruShard::new(0);
        c.insert(k(1), 1, 1);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn churn_reuses_slab_slots() {
        let mut c = LruShard::new(10);
        for round in 0..50u64 {
            for i in 0..10 {
                c.insert(k(round * 10 + i), i, 1);
            }
        }
        // slab should stay bounded near capacity, not grow with churn
        assert!(c.slab.len() <= 21, "slab grew to {}", c.slab.len());
    }
}
