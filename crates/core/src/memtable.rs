//! The mutable in-memory write buffer (tutorial Module I.1).
//!
//! Backed by a bump-arena skiplist: node metadata lives in one `Vec`,
//! key/value bytes in a single offset-addressed arena, so a put performs
//! **zero per-entry heap allocations** in steady state (the arena and
//! node vector grow geometrically, amortized).
//!
//! **Versions are kept, never overwritten.** An update appends the new
//! value to the arena and makes it the node's head version; the version
//! it supersedes moves, as a `(value, seqno, kind)` record, onto the
//! node's chain of older versions (newest first), and its bytes stay in
//! the arena until the flush drops the whole buffer at once — the
//! memory component LevelDB and RocksDB use (Luo & Carey's survey). So a
//! reader needs only a shared handle and a sequence-number *ceiling*:
//! `Memtable::get_at` and `Memtable::range_at` see each key's newest
//! version at or below the ceiling, however many writes landed since.
//! That is what makes a snapshot O(1) and lets a scan copy the buffer in
//! small chunks, on demand (`crate::iter::BufferCursor`), instead of up
//! front. The newest-version reads ([`Memtable::get_ref`],
//! [`Memtable::range`]) are the ceiling reads at `u64::MAX`.
//!
//! The flush trigger still counts latest versions only
//! ([`Memtable::bytes`]), plus a written-bytes backstop
//! ([`Memtable::is_full`]); superseded versions are reclaimed wholesale
//! at flush.

use std::ops::Bound;

use crate::entry::{InternalEntry, ValueKind};
use crate::sstable::EntryRef;

/// Skiplist fanout: p = 1/4, so 12 levels cover ~4^12 entries.
const MAX_HEIGHT: usize = 12;
/// Flush backstop for rewritten keys: a memtable also counts as full
/// once this many times the budget has been written into it, however
/// little of that is still the latest version ([`Memtable::is_full`]).
const WRITTEN_BUDGET_FACTOR: usize = 8;
/// Null link (also "head" when used as a predecessor, and "no older
/// version" at the end of a version chain).
const NIL: u32 = u32::MAX;

/// One key's head (newest) version plus its skiplist links.
#[derive(Debug)]
struct Node {
    key_off: u32,
    key_len: u32,
    val_off: u32,
    val_len: u32,
    seqno: u64,
    kind: ValueKind,
    /// The version this one superseded (index into
    /// `SkipArena::superseded`), `NIL` if none.
    older: u32,
    next: [u32; MAX_HEIGHT],
}

/// A superseded version: its value still sits in the arena.
#[derive(Debug)]
struct Superseded {
    val_off: u32,
    val_len: u32,
    seqno: u64,
    kind: ValueKind,
    /// The next older version, `NIL` if none.
    older: u32,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Index-based skiplist over a bump arena. No unsafe: links are `u32`
/// node ids, bytes are `(offset, len)` into the arena `Vec`, so the
/// structure stays valid across reallocation and is `Send + Sync`.
#[derive(Debug)]
struct SkipArena {
    nodes: Vec<Node>,
    /// Every superseded version of every node, chained from its node.
    superseded: Vec<Superseded>,
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
            superseded: Vec::new(),
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

    /// First node past `lo`.
    fn seek_bound(&self, lo: Bound<&[u8]>) -> u32 {
        match lo {
            Bound::Included(b) => self.seek(b),
            Bound::Excluded(b) => {
                let id = self.seek(b);
                if id != NIL && self.key_of(id) == b {
                    self.nodes[id as usize].next[0]
                } else {
                    id
                }
            }
            Bound::Unbounded => self.head[0],
        }
    }

    fn seek_exact(&self, key: &[u8]) -> Option<u32> {
        let id = self.seek(key);
        (id != NIL && self.key_of(id) == key).then_some(id)
    }

    /// Node `id`'s newest version with seqno ≤ `ceiling`, as a borrowed
    /// entry; `None` when every version is newer.
    fn version_at(&self, id: u32, ceiling: u64) -> Option<EntryRef<'_>> {
        let n = &self.nodes[id as usize];
        let key = self.bytes_at(n.key_off, n.key_len);
        let (mut val_off, mut val_len, mut seqno, mut kind, mut older) =
            (n.val_off, n.val_len, n.seqno, n.kind, n.older);
        while seqno > ceiling {
            let v = self.superseded.get(older as usize)?;
            (val_off, val_len, seqno, kind, older) = (v.val_off, v.val_len, v.seqno, v.kind, v.older);
        }
        Some(EntryRef {
            key,
            seqno,
            kind,
            value: self.bytes_at(val_off, val_len),
        })
    }

    /// Inserts a key's new head version; the previous head, if any, moves
    /// onto the key's version chain. Returns the superseded value's
    /// length on update (for byte accounting); `None` for a fresh key.
    fn insert(&mut self, key: &[u8], seqno: u64, kind: ValueKind, value: &[u8]) -> Option<u32> {
        let mut prevs = [NIL; MAX_HEIGHT];
        let found = self.find(key, &mut prevs);
        if found != NIL && self.key_of(found) == key {
            let (val_off, val_len) = self.push_bytes(value);
            let older = self.superseded.len() as u32;
            let n = &mut self.nodes[found as usize];
            debug_assert!(seqno >= n.seqno, "a key's versions arrive in seqno order");
            let old = Superseded {
                val_off: n.val_off,
                val_len: n.val_len,
                seqno: n.seqno,
                kind: n.kind,
                older: n.older,
            };
            (n.val_off, n.val_len, n.seqno, n.kind, n.older) = (val_off, val_len, seqno, kind, older);
            let old_len = old.val_len;
            self.superseded.push(old);
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
            older: NIL,
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

    fn reset(&mut self) {
        self.nodes.clear();
        self.superseded.clear();
        self.arena.clear();
        self.head = [NIL; MAX_HEIGHT];
        self.height = 1;
        self.counter = 0;
    }
}

/// Borrowed view of a buffered entry; `value` points into the memtable
/// arena and is valid while the memtable is.
#[derive(Clone, Copy, Debug)]
pub struct MemEntryRef<'a> {
    /// Sequence number.
    pub seqno: u64,
    /// Put or tombstone.
    pub kind: ValueKind,
    /// Value bytes.
    pub value: &'a [u8],
}

/// A sorted, size-tracked, multi-version write buffer.
#[derive(Debug, Default)]
pub struct Memtable {
    list: SkipArena,
    /// Entry cost of each key's latest version.
    bytes: usize,
    /// Entry cost of every insert since the buffer was last empty,
    /// superseded versions included: an upper bound on the arena, and
    /// what the WAL segment covering this buffer holds.
    written: usize,
}

impl Memtable {
    /// Empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    fn entry_cost(key: &[u8], value: &[u8]) -> usize {
        key.len() + value.len() + 24
    }

    /// Inserts a put or tombstone as `key`'s newest version; the version
    /// it supersedes stays readable below `seqno` (`Memtable::get_at`).
    /// A key's versions must arrive in ascending seqno order, which the
    /// engine's commit order guarantees. Takes slices: the bytes are
    /// bump-copied into the arena, so the caller's buffers can be reused
    /// — no per-entry `Vec` churn on the write path.
    pub fn insert(&mut self, key: &[u8], seqno: u64, kind: ValueKind, value: &[u8]) {
        let new_cost = Self::entry_cost(key, value);
        self.written += new_cost;
        match self.list.insert(key, seqno, kind, value) {
            Some(old_len) => {
                let old_cost = key.len() + old_len as usize + 24;
                self.bytes = self.bytes + new_cost - old_cost;
            }
            None => self.bytes += new_cost,
        }
    }

    /// Current approximate logical footprint in bytes (latest versions
    /// only; superseded versions are excluded — they are reclaimed
    /// wholesale at flush).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The one flush trigger: the logical footprint reached `budget`, or
    /// — a few keys rewritten (or re-deleted) over and over never grow
    /// that, while the arena and the WAL do — `WRITTEN_BUDGET_FACTOR`
    /// times it has been written in.
    pub fn is_full(&self, budget: usize) -> bool {
        self.bytes >= budget || self.written >= budget.saturating_mul(WRITTEN_BUDGET_FACTOR)
    }

    /// Number of distinct keys buffered, tombstones included: what
    /// [`Memtable::range`] over everything yields.
    pub fn len(&self) -> usize {
        self.list.nodes.len()
    }

    /// Whether the buffer holds nothing.
    pub fn is_empty(&self) -> bool {
        self.list.nodes.is_empty()
    }

    /// Newest version of `key` with seqno ≤ `ceiling`, as a borrowed view:
    /// what a reader that pinned `ceiling` sees, whatever was written
    /// since. Allocation-free.
    pub(crate) fn get_at(&self, key: &[u8], ceiling: u64) -> Option<MemEntryRef<'_>> {
        let id = self.list.seek_exact(key)?;
        self.list.version_at(id, ceiling).map(|e| MemEntryRef {
            seqno: e.seqno,
            kind: e.kind,
            value: e.value,
        })
    }

    /// Latest version of `key` as a borrowed view — the allocation-free
    /// read path.
    pub fn get_ref(&self, key: &[u8]) -> Option<MemEntryRef<'_>> {
        self.get_at(key, u64::MAX)
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

    /// Entries within the bound pair as seen at `ceiling`, ascending by
    /// key: each key's newest version with seqno ≤ `ceiling`, keys with
    /// none skipped. Key and value point into the arena and nothing is
    /// allocated per entry.
    pub(crate) fn range_at<'a>(
        &'a self,
        lo: Bound<&[u8]>,
        hi: Bound<&'a [u8]>,
        ceiling: u64,
    ) -> impl Iterator<Item = EntryRef<'a>> + 'a {
        let list = &self.list;
        let mut cur = list.seek_bound(lo);
        std::iter::from_fn(move || loop {
            if cur == NIL {
                return None;
            }
            let id = cur;
            let key = list.key_of(id);
            let past_hi = match hi {
                Bound::Included(b) => key > b,
                Bound::Excluded(b) => key >= b,
                Bound::Unbounded => false,
            };
            if past_hi {
                cur = NIL;
                return None;
            }
            cur = list.nodes[id as usize].next[0];
            if let Some(e) = list.version_at(id, ceiling) {
                return Some(e);
            }
        })
    }

    /// Entries within the bound pair, ascending by key, newest version of
    /// each, as borrowed views.
    pub fn range<'a>(
        &'a self,
        lo: Bound<&'a [u8]>,
        hi: Bound<&'a [u8]>,
    ) -> impl Iterator<Item = EntryRef<'a>> + 'a {
        self.range_at(lo, hi, u64::MAX)
    }

    /// Empties the buffer after a flush. The arena, node and version
    /// vectors keep their capacity for the next fill.
    pub fn clear(&mut self) {
        self.list.reset();
        self.bytes = 0;
        self.written = 0;
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
        assert!(e.kind == ValueKind::Delete);
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
        assert_eq!(m.bytes(), one, "a superseded version must not grow logical bytes");
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
        m.insert(b"a", 2, ValueKind::Put, b"x");
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.bytes(), 0);
        assert!(m.get_at(b"a", 1).is_none(), "clear drops the version chains too");
        m.insert(b"d", 2, ValueKind::Put, b"again");
        assert_eq!(m.get(b"d").unwrap().value, b"again");
        assert!(m.get(b"a").is_none());
    }

    #[test]
    fn rewrites_of_one_key_fill_the_buffer_without_growing_its_logical_bytes() {
        let budget = 4096;
        // rewritten, and re-deleted (no value bytes)
        for (kind, value) in [(ValueKind::Put, &[7u8; 100][..]), (ValueKind::Delete, &[][..])] {
            let mut m = Memtable::new();
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
    fn a_ceiling_read_sees_the_versions_of_its_time() {
        let mut m = Memtable::new();
        m.insert(b"a", 1, ValueKind::Put, b"1");
        m.insert(b"a", 2, ValueKind::Put, b"2");
        m.insert(b"b", 3, ValueKind::Put, b"3");
        m.insert(b"a", 4, ValueKind::Delete, b"");
        assert!(m.get_at(b"a", 0).is_none(), "below its first version a key is absent");
        assert_eq!(m.get_at(b"a", 1).unwrap().value, b"1");
        assert_eq!(m.get_at(b"a", 3).unwrap().value, b"2");
        assert_eq!(m.get_at(b"a", 4).unwrap().kind, ValueKind::Delete);
        assert!(m.get_at(b"b", 2).is_none());
        let at = |ceiling| {
            m.range_at(Bound::Unbounded, Bound::Unbounded, ceiling)
                .map(|e| (e.key.to_vec(), e.seqno))
                .collect::<Vec<_>>()
        };
        assert_eq!(at(2), vec![(b"a".to_vec(), 2)]);
        assert_eq!(at(3), vec![(b"a".to_vec(), 2), (b"b".to_vec(), 3)]);
        assert_eq!(at(u64::MAX), vec![(b"a".to_vec(), 4), (b"b".to_vec(), 3)]);
    }

    /// Random puts, deletes and rewrites over a small keyspace, read back
    /// at random ceilings, must equal a `BTreeMap<(key, seqno)>` model of
    /// every version. The flush trigger's inputs must answer as a buffer
    /// that overwrote in place did: `bytes()` sums the latest versions'
    /// entry costs, `len()` counts distinct keys, and `is_full()` fires on
    /// either of those bytes or eight times the budget written in.
    #[test]
    fn random_versions_read_at_random_ceilings_match_a_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        type Model = BTreeMap<(Vec<u8>, u64), (ValueKind, Vec<u8>)>;
        /// The newest version of `key` at or below `ceiling` in the model.
        fn model_at<'m>(model: &'m Model, key: &[u8], ceiling: u64) -> Option<(u64, &'m (ValueKind, Vec<u8>))> {
            model
                .range((key.to_vec(), 0)..=(key.to_vec(), ceiling))
                .next_back()
                .map(|((_, s), v)| (*s, v))
        }

        let mut rng = StdRng::seed_from_u64(0x3E3_7AB1E);
        for round in 0..40 {
            let keyspace = rng.gen_range(1u32..120);
            let ops = rng.gen_range(0usize..1500);
            let budget = rng.gen_range(256usize..20_000);
            let mut m = Memtable::new();
            let mut model = Model::new();
            // the in-place buffer's accounting: latest version per key
            let mut latest: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
            let mut written = 0usize;
            for seqno in 1..=ops as u64 {
                let key = format!("k{:03}", rng.gen_range(0..keyspace)).into_bytes();
                let (kind, value) = if rng.gen_bool(0.2) {
                    (ValueKind::Delete, Vec::new())
                } else {
                    (ValueKind::Put, vec![seqno as u8; rng.gen_range(0..40)])
                };
                m.insert(&key, seqno, kind, &value);
                let cost = key.len() + value.len() + 24;
                written += cost;
                latest.insert(key.clone(), cost);
                model.insert((key, seqno), (kind, value));
                let bytes: usize = latest.values().sum();
                assert_eq!(m.bytes(), bytes, "round {round} seqno {seqno}");
                assert_eq!(m.len(), latest.len(), "round {round} seqno {seqno}");
                assert_eq!(
                    m.is_full(budget),
                    bytes >= budget || written >= budget * WRITTEN_BUDGET_FACTOR,
                    "round {round} seqno {seqno}"
                );
            }
            for _ in 0..20 {
                let ceiling = rng.gen_range(0..=ops as u64 + 1);
                for k in 0..keyspace {
                    let key = format!("k{k:03}").into_bytes();
                    let got = m.get_at(&key, ceiling).map(|e| (e.seqno, e.kind, e.value.to_vec()));
                    let expect = model_at(&model, &key, ceiling).map(|(s, (kind, v))| (s, *kind, v.clone()));
                    assert_eq!(got, expect, "round {round} key {k} ceiling {ceiling}");
                }
                let lo = format!("k{:03}", rng.gen_range(0..keyspace)).into_bytes();
                let hi = format!("k{:03}", rng.gen_range(0..=keyspace)).into_bytes();
                let got: Vec<_> = m
                    .range_at(Bound::Excluded(&lo), Bound::Excluded(&hi), ceiling)
                    .map(|e| (e.key.to_vec(), e.seqno, e.kind, e.value.to_vec()))
                    .collect();
                let keys: std::collections::BTreeSet<&Vec<u8>> =
                    model.keys().map(|(k, _)| k).filter(|k| **k > lo && **k < hi).collect();
                let expect: Vec<_> = keys
                    .into_iter()
                    .filter_map(|k| {
                        model_at(&model, k, ceiling).map(|(s, (kind, v))| (k.clone(), s, *kind, v.clone()))
                    })
                    .collect();
                assert_eq!(got, expect, "round {round} range ({lo:?}, {hi:?}) ceiling {ceiling}");
            }
        }
    }
}
