//! The mutable in-memory write buffer (tutorial Module I.1).
//!
//! Backed by a bump-arena skiplist: node metadata lives in one `Vec`,
//! key/value bytes in a single offset-addressed arena, so a put performs
//! **zero per-entry heap allocations** in steady state (the arena and
//! node vector grow geometrically, amortized). Updates append the new
//! value to the arena and repoint the node — the superseded bytes stay
//! until the flush drops the whole arena at once, which is the classic
//! bump-arena trade (RocksDB/LevelDB memtables work the same way).
//! Immutable memtables keep their arena alive until the flush completes;
//! readers borrow value bytes straight out of it via
//! [`Memtable::get_ref`].
//!
//! Optionally runs as a *two-level buffer* (FloDB, EuroSys '17; tutorial
//! Module II.5): a small unsorted hash front absorbs writes in O(1) and
//! spills into the sorted level in batches. The win is skewed updates
//! against a large sorted level — hot keys are overwritten in the cheap
//! hash and (since replacements don't grow the front) may never touch the
//! tree; on unique-key ingest the front is pure overhead. The front
//! stores owned buffers (it is opt-in and off by default).

use std::collections::HashMap;
use std::ops::Bound;

use crate::entry::{InternalEntry, ValueKind};
use crate::sstable::EntryRef;

#[derive(Clone, Debug)]
struct MemValue {
    seqno: u64,
    kind: ValueKind,
    value: Vec<u8>,
}

/// Skiplist fanout: p = 1/4, so 12 levels cover ~4^12 entries.
const MAX_HEIGHT: usize = 12;
/// Flush backstop for rewritten keys: a memtable also counts as full
/// once this many times the budget has been written into it, however
/// little of that is still the latest version ([`Memtable::is_full`]).
const WRITTEN_BUDGET_FACTOR: usize = 8;
/// Null link (also "head" when used as a predecessor).
const NIL: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Node {
    key_off: u32,
    key_len: u32,
    val_off: u32,
    val_len: u32,
    seqno: u64,
    kind: ValueKind,
    next: [u32; MAX_HEIGHT],
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Index-based skiplist over a bump arena. No unsafe: links are `u32`
/// node ids, bytes are `(offset, len)` into the arena `Vec`, so the
/// structure stays valid across reallocation and is trivially `Clone`
/// (snapshots) and `Send`.
#[derive(Clone, Debug)]
struct SkipArena {
    nodes: Vec<Node>,
    head: [u32; MAX_HEIGHT],
    arena: Vec<u8>,
    height: usize,
    /// Deterministic height source: node heights come from a hash of the
    /// insertion counter, so runs are reproducible.
    counter: u64,
}

impl Default for SkipArena {
    fn default() -> Self {
        SkipArena {
            nodes: Vec::new(),
            head: [NIL; MAX_HEIGHT],
            arena: Vec::new(),
            height: 1,
            counter: 0,
        }
    }
}

impl SkipArena {
    fn push_bytes(&mut self, bytes: &[u8]) -> (u32, u32) {
        let off = self.arena.len() as u32;
        self.arena.extend_from_slice(bytes);
        (off, bytes.len() as u32)
    }

    fn bytes_at(&self, off: u32, len: u32) -> &[u8] {
        &self.arena[off as usize..(off + len) as usize]
    }

    fn key_of(&self, id: u32) -> &[u8] {
        let n = &self.nodes[id as usize];
        self.bytes_at(n.key_off, n.key_len)
    }

    fn value_of(&self, id: u32) -> &[u8] {
        let n = &self.nodes[id as usize];
        self.bytes_at(n.val_off, n.val_len)
    }

    fn next_of(&self, pred: u32, level: usize) -> u32 {
        if pred == NIL {
            self.head[level]
        } else {
            self.nodes[pred as usize].next[level]
        }
    }

    fn random_height(&mut self) -> usize {
        self.counter += 1;
        let mut x = splitmix64(self.counter);
        let mut h = 1;
        while h < MAX_HEIGHT && x & 3 == 0 {
            h += 1;
            x >>= 2;
        }
        h
    }

    /// First node with key ≥ `key` (NIL if none), filling `prevs` with
    /// the per-level predecessors (NIL = head).
    fn find(&self, key: &[u8], prevs: &mut [u32; MAX_HEIGHT]) -> u32 {
        let mut pred = NIL;
        let mut level = self.height - 1;
        loop {
            let next = self.next_of(pred, level);
            if next != NIL && self.key_of(next) < key {
                pred = next;
                continue;
            }
            prevs[level] = pred;
            if level == 0 {
                return next;
            }
            level -= 1;
        }
    }

    /// First node with key ≥ `key`, without tracking predecessors.
    fn seek(&self, key: &[u8]) -> u32 {
        let mut pred = NIL;
        let mut level = self.height - 1;
        loop {
            let next = self.next_of(pred, level);
            if next != NIL && self.key_of(next) < key {
                pred = next;
                continue;
            }
            if level == 0 {
                return next;
            }
            level -= 1;
        }
    }

    fn seek_exact(&self, key: &[u8]) -> Option<u32> {
        let id = self.seek(key);
        (id != NIL && self.key_of(id) == key).then_some(id)
    }

    /// Inserts or updates. Returns the replaced value's length on update
    /// (for byte accounting); `None` for a fresh key.
    fn insert(&mut self, key: &[u8], seqno: u64, kind: ValueKind, value: &[u8]) -> Option<u32> {
        let mut prevs = [NIL; MAX_HEIGHT];
        let found = self.find(key, &mut prevs);
        if found != NIL && self.key_of(found) == key {
            // in-place update: bump-append the value, repoint the node
            let (off, len) = self.push_bytes(value);
            let n = &mut self.nodes[found as usize];
            let old_len = n.val_len;
            n.val_off = off;
            n.val_len = len;
            n.seqno = seqno;
            n.kind = kind;
            return Some(old_len);
        }
        let h = self.random_height();
        if h > self.height {
            // prevs above the old height are head links (already NIL)
            self.height = h;
        }
        let (key_off, key_len) = self.push_bytes(key);
        let (val_off, val_len) = self.push_bytes(value);
        let id = self.nodes.len() as u32;
        let mut node = Node {
            key_off,
            key_len,
            val_off,
            val_len,
            seqno,
            kind,
            next: [NIL; MAX_HEIGHT],
        };
        for (level, slot) in node.next.iter_mut().enumerate().take(h) {
            *slot = self.next_of(prevs[level], level);
        }
        self.nodes.push(node);
        for (level, &pred) in prevs.iter().enumerate().take(h) {
            if pred == NIL {
                self.head[level] = id;
            } else {
                self.nodes[pred as usize].next[level] = id;
            }
        }
        None
    }

    fn first(&self) -> u32 {
        self.head[0]
    }

    fn last_key(&self) -> Option<&[u8]> {
        let mut pred = NIL;
        for level in (0..self.height).rev() {
            loop {
                let next = self.next_of(pred, level);
                if next == NIL {
                    break;
                }
                pred = next;
            }
        }
        (pred != NIL).then(|| self.key_of(pred))
    }

    fn reset(&mut self) {
        self.nodes.clear();
        self.arena.clear();
        self.head = [NIL; MAX_HEIGHT];
        self.height = 1;
        self.counter = 0;
    }
}

/// Borrowed view of a buffered entry; `value` points into the memtable
/// arena (or the hash front) and is valid while the memtable is.
#[derive(Clone, Copy, Debug)]
pub struct MemEntryRef<'a> {
    /// Sequence number.
    pub seqno: u64,
    /// Put or tombstone.
    pub kind: ValueKind,
    /// Value bytes.
    pub value: &'a [u8],
}

/// A sorted, size-tracked write buffer with an optional hash front.
#[derive(Clone, Debug, Default)]
pub struct Memtable {
    list: SkipArena,
    /// FloDB-style unsorted front (disabled when `front_budget == 0`).
    front: HashMap<Vec<u8>, MemValue>,
    front_bytes: usize,
    front_budget: usize,
    bytes: usize,
    peak_bytes: usize,
    /// Entry cost of every insert since the buffer was last empty,
    /// superseded versions included: an upper bound on the arena, and
    /// what the WAL segment covering this buffer holds.
    written: usize,
}

impl Memtable {
    /// Empty single-level memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty two-level memtable: writes land in a hash front of
    /// `front_budget` bytes and spill into the sorted level in batches.
    pub fn with_front(front_budget: usize) -> Self {
        Memtable {
            front_budget,
            ..Self::default()
        }
    }

    fn entry_cost(key: &[u8], value: &[u8]) -> usize {
        key.len() + value.len() + 24
    }

    /// Moves every front entry into the sorted level. Keys present in
    /// both levels release the superseded sorted copy's cost.
    fn spill_front(&mut self) {
        for (k, v) in std::mem::take(&mut self.front) {
            if let Some(old_len) = self.list.insert(&k, v.seqno, v.kind, &v.value) {
                let old_cost = k.len() + old_len as usize + 24;
                self.bytes = self.bytes.saturating_sub(old_cost);
            }
        }
        self.front_bytes = 0;
    }

    /// Inserts a put or tombstone, replacing any older version. Takes
    /// slices: the bytes are bump-copied into the arena, so the caller's
    /// buffers can be reused — no per-entry `Vec` churn on the write path.
    pub fn insert(&mut self, key: &[u8], seqno: u64, kind: ValueKind, value: &[u8]) {
        self.insert_inner(key, seqno, kind, value);
        self.peak_bytes = self.peak_bytes.max(self.bytes);
    }

    fn insert_inner(&mut self, key: &[u8], seqno: u64, kind: ValueKind, value: &[u8]) {
        let new_cost = Self::entry_cost(key, value);
        self.written += new_cost;
        if self.front_budget > 0 {
            match self.front.insert(
                key.to_vec(),
                MemValue {
                    seqno,
                    kind,
                    value: value.to_vec(),
                },
            ) {
                Some(old) => {
                    let old_cost = key.len() + old.value.len() + 24;
                    self.front_bytes = self.front_bytes + new_cost - old_cost;
                    self.bytes = self.bytes + new_cost - old_cost;
                }
                None => {
                    self.front_bytes += new_cost;
                    self.bytes += new_cost;
                }
            }
            if self.front_bytes >= self.front_budget {
                self.spill_front();
            }
            return;
        }
        match self.list.insert(key, seqno, kind, value) {
            Some(old_len) => {
                let old_cost = key.len() + old_len as usize + 24;
                self.bytes = self.bytes + new_cost - old_cost;
            }
            None => self.bytes += new_cost,
        }
    }

    /// Current approximate logical footprint in bytes (latest versions
    /// only; superseded arena bytes are excluded — they are reclaimed
    /// wholesale at flush).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The one flush trigger: the logical footprint reached `budget`, or
    /// — a few keys rewritten (or re-deleted, or absorbed by the hash
    /// front) over and over never grow that, while the arena and the WAL
    /// do — `WRITTEN_BUDGET_FACTOR` times it has been written in.
    pub fn is_full(&self, budget: usize) -> bool {
        self.bytes >= budget || self.written >= budget.saturating_mul(WRITTEN_BUDGET_FACTOR)
    }

    /// High-water mark of [`Memtable::bytes`] over this memtable's
    /// lifetime (observability gauge; survives [`Memtable::clear`]).
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Number of (latest-version) entries, including tombstones: what
    /// [`Memtable::range`] over everything yields. A key held by both
    /// levels counts once.
    pub fn len(&self) -> usize {
        let front_only = self
            .front
            .keys()
            .filter(|k| self.list.seek_exact(k).is_none())
            .count();
        self.list.nodes.len() + front_only
    }

    /// Whether the buffer holds nothing.
    pub fn is_empty(&self) -> bool {
        self.list.nodes.is_empty() && self.front.is_empty()
    }

    /// Latest version of `key` as a borrowed view — the allocation-free
    /// read path. The hash front is newer than the sorted level, so it
    /// wins.
    pub fn get_ref(&self, key: &[u8]) -> Option<MemEntryRef<'_>> {
        if let Some(v) = self.front.get(key) {
            return Some(MemEntryRef {
                seqno: v.seqno,
                kind: v.kind,
                value: &v.value,
            });
        }
        let id = self.list.seek_exact(key)?;
        let n = &self.list.nodes[id as usize];
        Some(MemEntryRef {
            seqno: n.seqno,
            kind: n.kind,
            value: self.list.value_of(id),
        })
    }

    /// Latest version of `key`, if buffered (owned convenience wrapper).
    pub fn get(&self, key: &[u8]) -> Option<InternalEntry> {
        self.get_ref(key).map(|r| InternalEntry {
            key: key.to_vec(),
            seqno: r.seqno,
            kind: r.kind,
            value: r.value.to_vec(),
        })
    }

    /// Entries within the bound pair, ascending by key, as borrowed views:
    /// key and value point into the arena (or the hash front) and nothing
    /// is allocated per entry. With a hash front active, its in-range
    /// entries are sorted and merged on the fly (front entries shadow
    /// sorted ones) — the price FloDB pays on scans.
    pub fn range<'a>(
        &'a self,
        lo: Bound<&'a [u8]>,
        hi: Bound<&'a [u8]>,
    ) -> impl Iterator<Item = EntryRef<'a>> + 'a {
        let in_bounds = |k: &[u8]| -> bool {
            (match lo {
                Bound::Included(b) => k >= b,
                Bound::Excluded(b) => k > b,
                Bound::Unbounded => true,
            }) && (match hi {
                Bound::Included(b) => k <= b,
                Bound::Excluded(b) => k < b,
                Bound::Unbounded => true,
            })
        };
        let mut front: Vec<(&Vec<u8>, &MemValue)> = self
            .front
            .iter()
            .filter(|(k, _)| in_bounds(k))
            .collect();
        front.sort_by(|a, b| a.0.cmp(b.0));
        let mut front = front.into_iter().peekable();
        // position the sorted cursor at the lower bound
        let mut cur = match lo {
            Bound::Included(b) => self.list.seek(b),
            Bound::Excluded(b) => {
                let mut id = self.list.seek(b);
                if id != NIL && self.list.key_of(id) == b {
                    id = self.list.nodes[id as usize].next[0];
                }
                id
            }
            Bound::Unbounded => self.list.first(),
        };
        let past_hi = move |k: &[u8]| -> bool {
            match hi {
                Bound::Included(b) => k > b,
                Bound::Excluded(b) => k >= b,
                Bound::Unbounded => false,
            }
        };
        std::iter::from_fn(move || {
            let sorted_key = (cur != NIL)
                .then(|| self.list.key_of(cur))
                .filter(|k| !past_hi(k));
            let take_front = match (front.peek(), sorted_key) {
                (Some((fk, _)), Some(sk)) => {
                    if fk.as_slice() == sk {
                        // front shadows the sorted copy
                        cur = self.list.nodes[cur as usize].next[0];
                        true
                    } else {
                        fk.as_slice() < sk
                    }
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return None,
            };
            if take_front {
                let (k, v) = front.next().expect("peeked above");
                Some(EntryRef {
                    key: k,
                    seqno: v.seqno,
                    kind: v.kind,
                    value: &v.value,
                })
            } else {
                let id = cur;
                let n = &self.list.nodes[id as usize];
                cur = n.next[0];
                Some(EntryRef {
                    key: self.list.key_of(id),
                    seqno: n.seqno,
                    kind: n.kind,
                    value: self.list.value_of(id),
                })
            }
        })
    }

    /// Empties the buffer after a flush. The arena and node vector keep
    /// their capacity for the next fill.
    pub fn clear(&mut self) {
        self.list.reset();
        self.front.clear();
        self.front_bytes = 0;
        self.bytes = 0;
        self.written = 0;
    }

    /// Smallest and largest buffered keys.
    pub fn key_range(&self) -> Option<(Vec<u8>, Vec<u8>)> {
        let mut first = (self.list.first() != NIL).then(|| self.list.key_of(self.list.first()).to_vec());
        let mut last = self.list.last_key().map(|k| k.to_vec());
        for k in self.front.keys() {
            if first.as_ref().is_none_or(|f| k < f) {
                first = Some(k.clone());
            }
            if last.as_ref().is_none_or(|l| k > l) {
                last = Some(k.clone());
            }
        }
        Some((first?, last?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut m = Memtable::new();
        m.insert(b"a", 1, ValueKind::Put, b"1");
        let e = m.get(b"a").unwrap();
        assert_eq!(e.value, b"1");
        assert_eq!(e.seqno, 1);
        assert!(m.get(b"b").is_none());
    }

    #[test]
    fn newer_version_replaces() {
        let mut m = Memtable::new();
        m.insert(b"a", 1, ValueKind::Put, b"old");
        m.insert(b"a", 2, ValueKind::Put, b"new");
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(b"a").unwrap().value, b"new");
        assert_eq!(m.get(b"a").unwrap().seqno, 2);
    }

    #[test]
    fn tombstone_shadows() {
        let mut m = Memtable::new();
        m.insert(b"a", 1, ValueKind::Put, b"v");
        m.insert(b"a", 2, ValueKind::Delete, b"");
        let e = m.get(b"a").unwrap();
        assert!(e.is_tombstone());
    }

    #[test]
    fn bytes_grow_with_inserts() {
        let mut m = Memtable::new();
        assert_eq!(m.bytes(), 0);
        m.insert(b"key1", 1, ValueKind::Put, &[0u8; 100]);
        let one = m.bytes();
        assert!(one >= 104);
        m.insert(b"key2", 2, ValueKind::Put, &[0u8; 100]);
        assert!(m.bytes() > one);
    }

    #[test]
    fn replacement_does_not_grow_logical_bytes() {
        let mut m = Memtable::new();
        m.insert(b"k", 1, ValueKind::Put, &[0u8; 64]);
        let one = m.bytes();
        for s in 2..50u64 {
            m.insert(b"k", s, ValueKind::Put, &[1u8; 64]);
        }
        assert_eq!(m.bytes(), one, "in-place update must not grow logical bytes");
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(b"k").unwrap().seqno, 49);
    }

    #[test]
    fn get_ref_borrows_latest_value() {
        let mut m = Memtable::new();
        m.insert(b"a", 1, ValueKind::Put, b"first");
        m.insert(b"a", 2, ValueKind::Put, b"second");
        let r = m.get_ref(b"a").unwrap();
        assert_eq!(r.value, b"second");
        assert_eq!(r.seqno, 2);
        assert!(m.get_ref(b"zz").is_none());
    }

    fn all(m: &Memtable) -> Vec<EntryRef<'_>> {
        m.range(Bound::Unbounded, Bound::Unbounded).collect()
    }

    #[test]
    fn full_range_is_sorted_and_clear_empties() {
        let mut m = Memtable::new();
        for k in ["c", "a", "b"] {
            m.insert(k.as_bytes(), 1, ValueKind::Put, b"");
        }
        assert_eq!(
            all(&m).iter().map(|e| e.key).collect::<Vec<_>>(),
            vec![b"a", b"b", b"c"]
        );
        let peak = m.peak_bytes();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.bytes(), 0);
        assert_eq!(m.peak_bytes(), peak, "the gauge's high-water mark survives");
        m.insert(b"d", 2, ValueKind::Put, b"again");
        assert_eq!(m.get(b"d").unwrap().value, b"again");
        assert!(m.get(b"a").is_none());
    }

    #[test]
    fn rewrites_of_one_key_fill_the_buffer_without_growing_its_logical_bytes() {
        let budget = 4096;
        // plain, absorbed by the hash front, and re-deleted (no value bytes)
        for (front, kind, value) in [
            (0, ValueKind::Put, &[7u8; 100][..]),
            (1024, ValueKind::Put, &[7u8; 100][..]),
            (0, ValueKind::Delete, &[][..]),
        ] {
            let mut m = Memtable::with_front(front);
            let mut writes = 0u64;
            while !m.is_full(budget) {
                writes += 1;
                m.insert(b"hot", writes, kind, value);
                assert!(writes < 2_000, "a rewritten key must fill the buffer eventually");
            }
            assert!(m.bytes() < budget, "logical bytes count the latest version only");
            assert_eq!(m.len(), 1);
            assert!(writes as usize * (3 + value.len() + 24) >= WRITTEN_BUDGET_FACTOR * budget);
            m.clear();
            assert!(!m.is_full(budget));
        }
        // a fresh-key fill trips the logical half first
        let mut m = Memtable::new();
        for i in 0..100u64 {
            m.insert(&i.to_be_bytes(), i, ValueKind::Put, &[0u8; 100]);
        }
        assert!(m.is_full(m.bytes()) && !m.is_full(m.bytes() + 1));
    }

    #[test]
    fn large_random_order_insert_ranges_sorted() {
        let mut m = Memtable::new();
        // deterministic pseudo-shuffle over 4000 keys
        for i in 0..4000u64 {
            let k = (i * 2654435761) % 4000;
            m.insert(format!("key{k:06}").as_bytes(), i, ValueKind::Put, format!("v{k}").as_bytes());
        }
        assert_eq!(m.len(), 4000);
        let entries = all(&m);
        assert_eq!(entries.len(), 4000);
        for w in entries.windows(2) {
            assert!(w[0].key < w[1].key, "range must be strictly sorted");
        }
    }

    #[test]
    fn range_scans() {
        let mut m = Memtable::new();
        for i in 0..10u8 {
            m.insert(&[i], i as u64, ValueKind::Put, &[i]);
        }
        let hits: Vec<_> = m
            .range(Bound::Included(&[3][..]), Bound::Excluded(&[7][..]))
            .collect();
        assert_eq!(hits.len(), 4);
        assert_eq!(hits[0].key, vec![3]);
        assert_eq!(hits[3].key, vec![6]);
    }

    #[test]
    fn range_excluded_lower_bound() {
        let mut m = Memtable::new();
        for i in 0..5u8 {
            m.insert(&[i], i as u64, ValueKind::Put, &[]);
        }
        let hits: Vec<_> = m
            .range(Bound::Excluded(&[1][..]), Bound::Included(&[3][..]))
            .collect();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].key, vec![2]);
        assert_eq!(hits[1].key, vec![3]);
    }

    #[test]
    fn two_level_front_absorbs_and_spills() {
        let mut m = Memtable::with_front(200);
        for i in 0..20u32 {
            m.insert(format!("k{i:03}").as_bytes(), i as u64, ValueKind::Put, &[i as u8; 8]);
        }
        // everything readable regardless of which level holds it
        for i in 0..20u32 {
            let e = m.get(format!("k{i:03}").as_bytes()).unwrap();
            assert_eq!(e.value, vec![i as u8; 8]);
        }
        // newer front version shadows an older spilled one
        m.insert(b"k005", 99, ValueKind::Put, b"newest");
        assert_eq!(m.get(b"k005").unwrap().value, b"newest".to_vec());
        assert_eq!(m.get(b"k005").unwrap().seqno, 99);
    }

    #[test]
    fn two_level_range_merges_front_and_sorted() {
        // evens spilled into the sorted level (k004 and k010 twice: their
        // front versions must shadow the sorted ones), odds only in the front
        let mut m = Memtable::with_front(10_000); // never spills by itself
        for i in (0..20u32).step_by(2) {
            m.insert(format!("k{i:03}").as_bytes(), i as u64, ValueKind::Put, &[i as u8]);
        }
        m.spill_front();
        for i in [1u32, 3, 4, 5, 7, 9, 10, 11, 13, 15, 17, 19] {
            m.insert(format!("k{i:03}").as_bytes(), 100 + i as u64, ValueKind::Put, &[i as u8]);
        }
        let got: Vec<_> = m
            .range(Bound::Included(&b"k003"[..]), Bound::Excluded(&b"k015"[..]))
            .collect();
        assert_eq!(got.len(), 12);
        assert_eq!(m.len(), 20, "k004 and k010 sit in both levels and count once");
        for (j, e) in got.iter().enumerate() {
            let i = j as u32 + 3;
            assert_eq!(e.key, format!("k{i:03}").into_bytes());
            assert_eq!(e.value, [i as u8]);
            let in_front = i % 2 == 1 || i == 4 || i == 10;
            assert_eq!(e.seqno, if in_front { 100 + i as u64 } else { i as u64 });
        }
    }

    #[test]
    fn two_level_full_range_is_complete_and_sorted() {
        let mut m = Memtable::with_front(150);
        for i in (0..30u32).rev() {
            m.insert(format!("k{i:03}").as_bytes(), i as u64, ValueKind::Put, &[1u8; 4]);
        }
        let entries = all(&m);
        assert_eq!(entries.len(), 30);
        for w in entries.windows(2) {
            assert!(w[0].key < w[1].key);
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.bytes(), 0);
    }

    #[test]
    fn key_range() {
        let mut m = Memtable::new();
        assert!(m.key_range().is_none());
        m.insert(b"m", 1, ValueKind::Put, b"");
        m.insert(b"a", 2, ValueKind::Put, b"");
        m.insert(b"z", 3, ValueKind::Put, b"");
        assert_eq!(m.key_range(), Some((b"a".to_vec(), b"z".to_vec())));
    }

    #[test]
    fn clone_snapshots_are_independent() {
        let mut m = Memtable::new();
        m.insert(b"a", 1, ValueKind::Put, b"1");
        let snap = m.clone();
        m.insert(b"a", 2, ValueKind::Put, b"2");
        m.insert(b"b", 3, ValueKind::Put, b"3");
        assert_eq!(snap.get(b"a").unwrap().value, b"1");
        assert!(snap.get(b"b").is_none());
        assert_eq!(m.get(b"a").unwrap().value, b"2");
    }
}
