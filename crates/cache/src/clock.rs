//! CLOCK (second-chance) shard: an LRU approximation that replaces the
//! linked list with a circular scan over reference bits — cheaper
//! bookkeeping per hit (one bit set) at the cost of approximate recency.

use std::collections::hash_map::Entry;

use crate::traits::{CacheKey, CacheShard, KeyMap};

struct Slot<V> {
    key: CacheKey,
    /// `None` = a vacant slot: an entry's value drops when it leaves.
    value: Option<V>,
    charge: usize,
    referenced: bool,
}

/// A CLOCK cache shard.
pub struct ClockShard<V> {
    map: KeyMap<usize>,
    slots: Vec<Slot<V>>,
    hand: usize,
    used: usize,
    capacity: usize,
}

impl<V: Clone + Send> ClockShard<V> {
    /// Shard with the given capacity in charge units.
    pub fn new(capacity: usize) -> Self {
        ClockShard {
            map: KeyMap::default(),
            slots: Vec::new(),
            hand: 0,
            used: 0,
            capacity,
        }
    }

    fn evict_one(&mut self) -> bool {
        if self.map.is_empty() {
            return false;
        }
        // sweep: clear reference bits until an unreferenced occupied slot
        // is found (guaranteed within two passes)
        for _ in 0..(2 * self.slots.len().max(1)) {
            if self.slots.is_empty() {
                return false;
            }
            let i = self.hand % self.slots.len();
            self.hand = (self.hand + 1) % self.slots.len();
            let slot = &mut self.slots[i];
            if slot.value.is_none() {
                continue;
            }
            if slot.referenced {
                slot.referenced = false;
            } else {
                slot.value = None;
                self.used -= slot.charge;
                self.map.remove(&slot.key);
                return true;
            }
        }
        false
    }

    fn alloc_slot(slots: &mut Vec<Slot<V>>, key: CacheKey, value: V, charge: usize) -> usize {
        let slot = Slot {
            key,
            value: Some(value),
            charge,
            referenced: false,
        };
        // reuse a vacant slot if any
        if let Some(i) = slots.iter().position(|s| s.value.is_none()) {
            slots[i] = slot;
            return i;
        }
        slots.push(slot);
        slots.len() - 1
    }
}

impl<V: Clone + Send> CacheShard<V> for ClockShard<V> {
    fn get(&mut self, key: &CacheKey) -> Option<V> {
        let &idx = self.map.get(key)?;
        self.slots[idx].referenced = true;
        self.slots[idx].value.clone()
    }

    fn insert(&mut self, key: CacheKey, value: V, charge: usize) -> usize {
        if charge > self.capacity {
            self.remove(&key);
            return 0;
        }
        // one probe: an update rewrites its slot, a new key takes one
        match self.map.entry(key) {
            Entry::Occupied(e) => {
                let slot = &mut self.slots[*e.get()];
                self.used = self.used - slot.charge + charge;
                slot.value = Some(value);
                slot.charge = charge;
                slot.referenced = true;
            }
            Entry::Vacant(e) => {
                e.insert(Self::alloc_slot(&mut self.slots, key, value, charge));
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
            Some(idx) => {
                self.slots[idx].value = None;
                self.used -= self.slots[idx].charge;
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
    fn basic_roundtrip() {
        let mut c = ClockShard::new(10);
        c.insert(k(1), "x", 3);
        assert_eq!(c.get(&k(1)), Some("x"));
        assert_eq!(c.get(&k(9)), None);
    }

    #[test]
    fn referenced_entries_get_second_chance() {
        let mut c = ClockShard::new(3);
        c.insert(k(1), 1, 1);
        c.insert(k(2), 2, 1);
        c.insert(k(3), 3, 1);
        c.get(&k(1)); // reference 1
        c.insert(k(4), 4, 1);
        // 1 was referenced; the victim must be 2 or 3
        assert!(c.get(&k(1)).is_some(), "referenced entry evicted");
    }

    #[test]
    fn capacity_respected() {
        let mut c = ClockShard::new(20);
        for i in 0..100 {
            c.insert(k(i), i, 3);
            assert!(c.used() <= 20);
        }
    }

    #[test]
    fn remove_then_slot_reused() {
        let mut c = ClockShard::new(5);
        c.insert(k(1), 1, 2);
        c.insert(k(2), 2, 2);
        assert!(c.remove(&k(1)));
        c.insert(k(3), 3, 2);
        assert_eq!(c.slots.len(), 2, "vacant slot must be reused");
        assert!(c.get(&k(3)).is_some());
    }

    #[test]
    fn oversized_rejected() {
        let mut c = ClockShard::new(5);
        c.insert(k(1), 1, 6);
        assert!(c.is_empty());
    }

    #[test]
    fn full_churn_terminates() {
        let mut c = ClockShard::new(4);
        for i in 0..1000 {
            c.insert(k(i % 16), i, 1);
            if i % 3 == 0 {
                c.get(&k(i % 16));
            }
        }
        assert!(c.used() <= 4);
        assert!(c.len() <= 4);
    }
}
