//! Merging iterators: the scan path (tutorial Module I.1's `scan`).
//!
//! A scan assigns one iterator per qualifying source (memtable + every
//! sorted run), merges them in key order, keeps only the newest version of
//! each key (sources are ranked youngest-first), and suppresses tombstoned
//! keys. Compaction and its sub-compaction shards reuse the same merge
//! with tombstone retention, a binary heap over (head key, source rank)
//! that costs O(log sources) comparisons per entry, each an integer
//! compare of cached 16-byte key prefixes that reads key bytes only on
//! a prefix tie.
//!
//! Every source is a *cursor* — `advance()` then `key()`/`value()` — so
//! merged entries are borrowed views into pinned blocks; bytes are copied
//! only where a caller materializes them ([`MergingIter::next_visible`],
//! a table builder, a wire encoder). A write buffer is the one source
//! whose bytes can move under a reader, so its cursor
//! ([`BufferCursor`]) copies them in small chunks, on demand.

use std::cmp::Ordering;
use std::ops::{Bound, Range};
use std::sync::Arc;

use parking_lot::RwLock;

use lsm_cache::ShardedCache;
use lsm_storage::{Block, StorageResult};

use crate::entry::{InternalEntry, ValueKind};
use crate::memtable::Memtable;
use crate::sstable::{EntryRef, TableIterator};
use crate::version::{RunTable, SortedRun};

/// Most entries a [`BufferCursor`] copies per chunk.
pub(crate) const BUFFER_CHUNK: usize = 16;

/// Entries in a [`BufferCursor`]'s first chunk; each refill doubles it.
const FIRST_CHUNK: usize = 2;

/// Lazily chains the iterators of a run's key-ordered, disjoint tables:
/// a table is opened (and its first block read) only when the scan
/// actually reaches its key range — a 10-entry scan over a 100-table run
/// touches one or two tables, not all of them. A table a merge frontier
/// clipped is read from past its floor.
///
/// The run's tables are reached through the version's shared handle and
/// an index range, and the scan's start key is one allocation shared by
/// every run, so building the iterator copies nothing.
pub struct RunIterator {
    run: SortedRun,
    /// Tables still to open: `next..end` of the run.
    next: usize,
    end: usize,
    cache: Option<Arc<ShardedCache<Block>>>,
    /// Where the first table opened is sought; later tables start past it
    /// by disjointness.
    start: Option<Arc<[u8]>>,
    current: Option<TableIterator>,
}

impl RunIterator {
    /// Iterator over the run's tables `range` from `start`.
    pub fn new(
        run: SortedRun,
        range: Range<usize>,
        start: Arc<[u8]>,
        cache: Option<Arc<ShardedCache<Block>>>,
    ) -> Self {
        RunIterator {
            run,
            next: range.start,
            end: range.end,
            cache,
            start: Some(start),
            current: None,
        }
    }

    /// Moves to the next entry; `Ok(false)` = run exhausted.
    pub fn advance(&mut self) -> StorageResult<bool> {
        loop {
            if let Some(it) = &mut self.current {
                if it.advance()? {
                    return Ok(true);
                }
                self.current = None;
            }
            if self.next == self.end {
                return Ok(false);
            }
            let (table, floor) = (&self.run.tables[self.next], self.run.floor(self.next));
            self.next += 1;
            let start = self.start.take();
            let start = start.as_deref().unwrap_or(b"");
            self.current = Some(table.iter_above(start, floor, self.cache.clone())?);
        }
    }

    fn cur(&self) -> &TableIterator {
        self.current.as_ref().expect("valid cursor")
    }
}

/// A table iterator clipped to `[start, hi)` (and past the table's
/// floor) that counts every entry it yields — the per-shard input view of
/// a sub-compaction (see [`crate::compaction::subcompact`]). The entry
/// that first reaches `hi` belongs to the next shard; it ends this source
/// without being counted.
pub struct BoundedTableIter {
    it: TableIterator,
    hi: Option<Vec<u8>>,
    /// Entries pulled in-range, shared so a shard can sum its sources.
    pulled: Arc<std::sync::atomic::AtomicU64>,
    done: bool,
}

impl BoundedTableIter {
    /// Iterator over `table` from `start` (inclusive) up to `hi`
    /// (exclusive; `None` = unbounded), counting pulls into `pulled`.
    pub fn new(
        table: &RunTable,
        start: &[u8],
        hi: Option<Vec<u8>>,
        pulled: Arc<std::sync::atomic::AtomicU64>,
    ) -> StorageResult<Self> {
        Ok(BoundedTableIter {
            it: table.table.iter_above(start, table.floor.as_deref(), None)?,
            hi,
            pulled,
            done: false,
        })
    }

    /// Moves to the next in-range entry; `Ok(false)` = clipped or done.
    pub fn advance(&mut self) -> StorageResult<bool> {
        if self.done {
            return Ok(false);
        }
        if !self.it.advance()? {
            self.done = true;
            return Ok(false);
        }
        if let Some(hi) = &self.hi {
            if self.it.key() >= hi.as_slice() {
                self.done = true;
                return Ok(false);
            }
        }
        self.pulled
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(true)
    }
}

/// A flat copy of key-ordered entries — a [`BufferCursor`]'s chunk, a
/// sub-compaction shard's output: every entry's key and value bytes back
/// to back in one buffer, plus one index, so it costs two allocations
/// however many entries it holds.
#[derive(Default)]
pub struct MemSource {
    bytes: Vec<u8>,
    index: Vec<MemSlot>,
    /// Index of the next entry to serve; `cur = next - 1` once advanced.
    next: usize,
}

/// One entry of a [`MemSource`]: its key starts at `off` in the byte
/// buffer and its value follows.
struct MemSlot {
    off: usize,
    key_len: usize,
    val_len: usize,
    seqno: u64,
    kind: ValueKind,
}

impl MemSource {
    /// Appends the next entry; the caller supplies ascending keys.
    pub(crate) fn push(&mut self, e: EntryRef<'_>) {
        self.index.push(MemSlot {
            off: self.bytes.len(),
            key_len: e.key.len(),
            val_len: e.value.len(),
            seqno: e.seqno,
            kind: e.kind,
        });
        self.bytes.extend_from_slice(e.key);
        self.bytes.extend_from_slice(e.value);
    }

    /// Entries held.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Replaces the held entries with the next `len` of `entries`, keeping
    /// both allocations — sized for `reserve` entries, from the first
    /// entry, when first used. Returns whether `entries` holds more.
    fn refill<'a>(
        &mut self,
        mut entries: impl Iterator<Item = EntryRef<'a>>,
        len: usize,
        reserve: usize,
    ) -> bool {
        self.bytes.clear();
        self.index.clear();
        self.next = 0;
        for e in entries.by_ref().take(len) {
            if self.index.capacity() == 0 {
                self.index.reserve(reserve);
                self.bytes.reserve(reserve * (e.key.len() + e.value.len()));
            }
            self.push(e);
        }
        self.len() == len && entries.next().is_some()
    }

    /// Steps to the next held entry; `false` once every one was served.
    fn step(&mut self) -> bool {
        let more = self.next < self.index.len();
        self.next += usize::from(more);
        more
    }

    /// Every held entry in order, borrowed.
    pub(crate) fn iter(&self) -> impl Iterator<Item = EntryRef<'_>> {
        self.index.iter().map(|s| self.entry(s))
    }

    fn entry(&self, s: &MemSlot) -> EntryRef<'_> {
        let val = s.off + s.key_len;
        EntryRef {
            key: &self.bytes[s.off..val],
            seqno: s.seqno,
            kind: s.kind,
            value: &self.bytes[val..val + s.val_len],
        }
    }

    fn cur(&self) -> EntryRef<'_> {
        self.entry(&self.index[self.next - 1])
    }
}

/// A scan's cursor over one shared write buffer, reading it as of a
/// sequence-number ceiling: every key's newest version at or below
/// `ceiling`, so writes that land after the scan began stay invisible.
///
/// The cursor copies the buffer a chunk at a time into a [`MemSource`]:
/// the first chunk when it is built (under the engine lock the scan
/// already holds), each later one under the buffer's read lock alone,
/// only once the merge has drained the one before. The first chunk holds
/// two entries and each refill doubles, up to the cursor's
/// cap, so a short scan whose rows mostly come from the runs copies a
/// couple of entries, however full the buffer is. The chunk's buffers
/// are sized for the cap once, when the first entry arrives. The buffer
/// keeps its versions and is never cleared while a handle to it is
/// alive, so a refill sees exactly what the first chunk saw.
pub struct BufferCursor {
    buffer: Arc<RwLock<Memtable>>,
    ceiling: u64,
    /// Exclusive upper key bound (`None`: to the end of the keyspace).
    end: Option<Vec<u8>>,
    /// Entries the current chunk was filled with; doubles to `max_chunk`.
    chunk_len: usize,
    max_chunk: usize,
    chunk: MemSource,
    /// Nothing in range lies beyond the current chunk.
    exhausted: bool,
    /// Entries copied over the cursor's life.
    #[cfg(test)]
    pub(crate) copied: usize,
}

impl BufferCursor {
    /// A cursor over `[start, end)` of `buffer` at `ceiling`, copying up
    /// to `max_chunk` entries at a time. Copies the first chunk now.
    pub(crate) fn new(
        buffer: &Arc<RwLock<Memtable>>,
        start: &[u8],
        end: Option<&[u8]>,
        ceiling: u64,
        max_chunk: usize,
    ) -> BufferCursor {
        let max_chunk = max_chunk.max(1);
        let mut cursor = BufferCursor {
            buffer: Arc::clone(buffer),
            ceiling,
            end: end.map(<[u8]>::to_vec),
            chunk_len: FIRST_CHUNK.min(max_chunk),
            max_chunk,
            chunk: MemSource::default(),
            exhausted: false,
            #[cfg(test)]
            copied: 0,
        };
        let mem = buffer.read();
        let hi = end.map_or(Bound::Unbounded, Bound::Excluded);
        let entries = mem.range_at(Bound::Included(start), hi, ceiling);
        let more = cursor.chunk.refill(entries, cursor.chunk_len, max_chunk);
        cursor.filled(more);
        cursor
    }

    /// Records a fill of the chunk: whether the range holds more past it,
    /// and (for tests) how many entries were copied.
    fn filled(&mut self, more: bool) {
        self.exhausted = !more;
        #[cfg(test)]
        {
            self.copied += self.chunk.len();
        }
    }

    fn advance(&mut self) -> bool {
        if self.chunk.step() {
            return true;
        }
        if self.exhausted {
            return false;
        }
        let mem = self.buffer.read();
        let hi = self.end.as_deref().map_or(Bound::Unbounded, Bound::Excluded);
        // the range is positioned past the chunk's last key when it is
        // built, so the chunk is free to be overwritten by the refill
        let entries = mem.range_at(Bound::Excluded(self.chunk.cur().key), hi, self.ceiling);
        self.chunk_len = (2 * self.chunk_len).min(self.max_chunk);
        let more = self.chunk.refill(entries, self.chunk_len, self.max_chunk);
        drop(mem);
        self.filled(more);
        self.chunk.step()
    }
}

/// A source of key-ordered entries.
pub enum Source {
    /// A write buffer read at a seqno ceiling, copied chunk by chunk.
    Buffer(BufferCursor),
    /// A table iterator.
    Table(TableIterator),
    /// A lazy iterator over one sorted run.
    Run(RunIterator),
    /// A key-range-clipped, pull-counting table iterator (sub-compactions).
    BoundedTable(BoundedTableIter),
    /// A table source the merge has passed: its handle to the table is
    /// released, so a file the version no longer holds is deleted now,
    /// not when the merge ends.
    Passed,
}

impl Source {
    /// Called once the source is exhausted: a table source becomes
    /// [`Source::Passed`], releasing its table.
    fn pass(&mut self) {
        if matches!(self, Source::Table(_) | Source::BoundedTable(_)) {
            *self = Source::Passed;
        }
    }

    fn advance(&mut self) -> StorageResult<bool> {
        match self {
            Source::Buffer(c) => Ok(c.advance()),
            Source::Table(it) => it.advance(),
            Source::Run(it) => it.advance(),
            Source::BoundedTable(it) => it.advance(),
            Source::Passed => Ok(false),
        }
    }

    /// Head key: the one accessor the heap's comparisons use.
    fn key(&self) -> &[u8] {
        match self {
            Source::Buffer(c) => c.chunk.cur().key,
            Source::Table(it) => it.key(),
            Source::Run(it) => it.cur().key(),
            Source::BoundedTable(it) => it.it.key(),
            Source::Passed => unreachable!("a passed source is out of the heap"),
        }
    }

    fn current(&self) -> EntryRef<'_> {
        match self {
            Source::Buffer(c) => c.chunk.cur(),
            Source::Table(it) => it.current(),
            Source::Run(it) => it.cur().current(),
            Source::BoundedTable(it) => it.it.current(),
            Source::Passed => unreachable!("a passed source is out of the heap"),
        }
    }
}

/// Bytes of a head key a merge compares as one integer.
const PREFIX: usize = 16;

/// A live source in the merge heap, with its head key's cached prefix:
/// the key's first [`PREFIX`] bytes, big-endian and zero-padded, so
/// comparing prefixes as integers orders keys as their bytes do until
/// the prefixes tie.
#[derive(Clone, Copy)]
struct Head {
    prefix: u128,
    /// The head key's length: breaks a prefix tie when a key fits in it.
    len: usize,
    /// Index into the merge's sources; ranks equal keys (younger first).
    src: usize,
}

impl Head {
    fn new(key: &[u8], src: usize) -> Head {
        let mut bytes = [0u8; PREFIX];
        let n = key.len().min(PREFIX);
        bytes[..n].copy_from_slice(&key[..n]);
        Head {
            prefix: u128::from_be_bytes(bytes),
            len: key.len(),
            src,
        }
    }
}

/// K-way merge with newest-version-wins semantics.
///
/// Sources must be supplied **youngest first**: on equal keys the
/// lowest-index source provides the visible version (its seqno is
/// necessarily the highest, by the LSM invariant).
///
/// The live sources sit in a binary min-heap ordered by (head key,
/// source index), so the top is always the next visible entry: the
/// smallest key, from the youngest source holding it. Stepping past it
/// first advances every older source whose head is the same key — such a
/// source is always a child of the top — and then the winner itself; each
/// advance sinks one source back into place. An entry therefore costs
/// O(log sources) comparisons, and while one source keeps winning (one
/// table of a run, say) it costs at most four, however many sources
/// there are.
///
/// A heap slot carries its source's head-key prefix — the first 16
/// bytes as one integer, plus the key's length — taken once per advance,
/// so a comparison is an integer compare that reads key bytes only when
/// two prefixes tie and both keys are longer than the prefix. The order
/// is exactly the bytewise one.
///
/// The merge is a cursor: [`MergingIter::advance_visible`] then
/// `key()`/`value()` borrow the winning entry in place, so steady-state
/// merging allocates nothing.
pub struct MergingIter {
    sources: Vec<Source>,
    /// The live sources, as a binary min-heap by (head key, index).
    heap: Vec<Head>,
    /// The top of the heap is the current entry, not yet stepped past.
    positioned: bool,
    /// Keep tombstones in the output (compaction into non-last levels).
    keep_tombstones: bool,
}

impl MergingIter {
    /// Builds the merge; pulls the first entry of every source.
    pub fn new(mut sources: Vec<Source>, keep_tombstones: bool) -> StorageResult<Self> {
        let mut heap = Vec::with_capacity(sources.len());
        for (i, s) in sources.iter_mut().enumerate() {
            if s.advance()? {
                heap.push(Head::new(s.key(), i));
            } else {
                s.pass();
            }
        }
        let mut merge = MergingIter {
            sources,
            heap,
            positioned: false,
            keep_tombstones,
        };
        for i in (0..merge.heap.len() / 2).rev() {
            merge.sift_down(i);
        }
        Ok(merge)
    }

    /// Moves to the next visible entry in ascending key order;
    /// `Ok(false)` = merge exhausted. On `Ok(true)` the accessors view
    /// the winning entry without copying.
    ///
    /// With `keep_tombstones`, tombstones are emitted (newest version per
    /// key, including `Delete` kinds); without it, tombstoned keys are
    /// silently skipped — the read-path behaviour.
    pub fn advance_visible(&mut self) -> StorageResult<bool> {
        loop {
            if self.positioned {
                self.step_past_top()?;
            }
            let Some(top) = self.heap.first() else {
                self.positioned = false;
                return Ok(false);
            };
            self.positioned = true;
            if self.keep_tombstones || self.sources[top.src].current().kind != ValueKind::Delete {
                return Ok(true);
            }
        }
    }

    /// Steps past the top entry and every older version of its key.
    fn step_past_top(&mut self) -> StorageResult<()> {
        // an older source holding the same key ranks right below the top,
        // so it surfaces as the smaller child of the root
        while let Some(c) = self.min_child(0) {
            if self.key_order(&self.heap[c], &self.heap[0]).is_ne() {
                break;
            }
            debug_assert!(
                self.sources[self.heap[c].src].current().seqno
                    <= self.sources[self.heap[0].src].current().seqno,
                "older source carried a newer seqno"
            );
            self.advance_slot(c)?;
        }
        self.advance_slot(0)
    }

    /// Advances the source in heap slot `i` (the root or a child of it)
    /// and restores the heap: the source's key only grew, so it sinks, or
    /// leaves the heap when exhausted — an exhausted table source also
    /// drops its table handle. A replacement taken from the bottom ranks
    /// after the root, so it too only needs to sink.
    fn advance_slot(&mut self, i: usize) -> StorageResult<()> {
        let src = self.heap[i].src;
        if self.sources[src].advance()? {
            self.heap[i] = Head::new(self.sources[src].key(), src);
        } else {
            self.sources[src].pass();
            let last = self.heap.pop().expect("slot i is occupied");
            if i == self.heap.len() {
                return Ok(());
            }
            self.heap[i] = last;
        }
        self.sift_down(i);
        Ok(())
    }

    /// The bytewise order of two heads' keys: their prefixes, then — on a
    /// tie — their lengths when either key fits in the prefix (the
    /// shorter is then a prefix of the longer), else the bytes past it.
    fn key_order(&self, a: &Head, b: &Head) -> Ordering {
        match a.prefix.cmp(&b.prefix) {
            Ordering::Equal if a.len > PREFIX && b.len > PREFIX => {
                self.sources[a.src].key()[PREFIX..].cmp(&self.sources[b.src].key()[PREFIX..])
            }
            Ordering::Equal => a.len.cmp(&b.len),
            order => order,
        }
    }

    /// Whether heap slot `a` ranks before slot `b`: smaller head key,
    /// then younger source.
    fn before(&self, a: usize, b: usize) -> bool {
        let (a, b) = (&self.heap[a], &self.heap[b]);
        self.key_order(a, b).then(a.src.cmp(&b.src)).is_lt()
    }

    /// Heap slot of the higher-ranked child of slot `i`, if it has one.
    fn min_child(&self, i: usize) -> Option<usize> {
        let l = 2 * i + 1;
        let r = l + 1;
        if l >= self.heap.len() {
            None
        } else if r < self.heap.len() && self.before(r, l) {
            Some(r)
        } else {
            Some(l)
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        while let Some(c) = self.min_child(i) {
            if !self.before(c, i) {
                break;
            }
            self.heap.swap(i, c);
            i = c;
        }
    }

    /// Source `i`, in the order the merge was given them.
    #[cfg(test)]
    pub(crate) fn source(&self, i: usize) -> &Source {
        &self.sources[i]
    }

    fn cur(&self) -> &Source {
        debug_assert!(self.positioned, "accessor on an unpositioned merge");
        &self.sources[self.heap.first().expect("valid merge cursor").src]
    }

    /// Current key.
    pub fn key(&self) -> &[u8] {
        self.cur().key()
    }

    /// Current value.
    pub fn value(&self) -> &[u8] {
        self.current().value
    }

    /// Current sequence number.
    pub fn seqno(&self) -> u64 {
        self.current().seqno
    }

    /// Current entry kind.
    pub fn kind(&self) -> ValueKind {
        self.current().kind
    }

    /// Borrowed view of the current entry.
    pub fn current(&self) -> EntryRef<'_> {
        self.cur().current()
    }

    /// Next visible entry, materialized (owned convenience wrapper over
    /// [`MergingIter::advance_visible`]).
    pub fn next_visible(&mut self) -> StorageResult<Option<InternalEntry>> {
        Ok(if self.advance_visible()? {
            let e = self.current();
            Some(InternalEntry {
                key: e.key.to_vec(),
                seqno: e.seqno,
                kind: e.kind,
                value: e.value.to_vec(),
            })
        } else {
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::Table;

    /// A source over key-ordered owned entries: a write buffer holding
    /// them, read through its cursor (sources longer than a chunk refill).
    fn buffered(entries: &[InternalEntry]) -> Source {
        let mut mem = Memtable::new();
        for e in entries {
            mem.insert(&e.key, e.seqno, e.kind, &e.value);
        }
        let handle = Arc::new(RwLock::new(mem));
        Source::Buffer(BufferCursor::new(&handle, b"", None, u64::MAX, BUFFER_CHUNK))
    }

    fn mem(entries: Vec<(&str, u64, ValueKind, &str)>) -> Source {
        let entries: Vec<InternalEntry> = entries
            .into_iter()
            .map(|(k, s, kind, v)| InternalEntry {
                key: k.as_bytes().to_vec(),
                seqno: s,
                kind,
                value: v.as_bytes().to_vec(),
            })
            .collect();
        buffered(&entries)
    }

    #[test]
    fn merges_in_key_order() {
        let a = mem(vec![("a", 1, ValueKind::Put, "1"), ("c", 2, ValueKind::Put, "3")]);
        let b = mem(vec![("b", 3, ValueKind::Put, "2"), ("d", 4, ValueKind::Put, "4")]);
        let mut m = MergingIter::new(vec![a, b], false).unwrap();
        let keys: Vec<Vec<u8>> = std::iter::from_fn(|| m.next_visible().unwrap())
            .map(|e| e.key)
            .collect();
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]);
    }

    #[test]
    fn youngest_source_wins_on_duplicates() {
        let newer = mem(vec![("k", 9, ValueKind::Put, "new")]);
        let older = mem(vec![("k", 3, ValueKind::Put, "old")]);
        let mut m = MergingIter::new(vec![newer, older], false).unwrap();
        let e = m.next_visible().unwrap().unwrap();
        assert_eq!(e.value, b"new".to_vec());
        assert_eq!(e.seqno, 9);
        assert!(m.next_visible().unwrap().is_none());
    }

    #[test]
    fn tombstones_suppress_older_versions() {
        let newer = mem(vec![("k", 9, ValueKind::Delete, "")]);
        let older = mem(vec![("k", 3, ValueKind::Put, "old")]);
        let mut m = MergingIter::new(vec![newer, older], false).unwrap();
        assert!(m.next_visible().unwrap().is_none(), "deleted key invisible");
    }

    #[test]
    fn compaction_mode_keeps_tombstones() {
        let newer = mem(vec![("k", 9, ValueKind::Delete, "")]);
        let older = mem(vec![("k", 3, ValueKind::Put, "old")]);
        let mut m = MergingIter::new(vec![newer, older], true).unwrap();
        let e = m.next_visible().unwrap().unwrap();
        assert_eq!(e.kind, ValueKind::Delete);
        assert_eq!(e.seqno, 9);
        assert!(m.next_visible().unwrap().is_none(), "old version still dropped");
    }

    #[test]
    fn empty_sources() {
        let mut m = MergingIter::new(vec![], false).unwrap();
        assert!(m.next_visible().unwrap().is_none());
        let mut m = MergingIter::new(vec![mem(vec![])], false).unwrap();
        assert!(m.next_visible().unwrap().is_none());
    }

    #[test]
    fn three_way_version_chain() {
        let s1 = mem(vec![("k", 30, ValueKind::Put, "v3")]);
        let s2 = mem(vec![("k", 20, ValueKind::Delete, "")]);
        let s3 = mem(vec![("k", 10, ValueKind::Put, "v1")]);
        let mut m = MergingIter::new(vec![s1, s2, s3], false).unwrap();
        let e = m.next_visible().unwrap().unwrap();
        assert_eq!(e.value, b"v3".to_vec(), "newest put wins over older tombstone");
    }

    #[test]
    fn cursor_accessors_match_owned_output() {
        let a = mem(vec![
            ("a", 5, ValueKind::Put, "va"),
            ("c", 6, ValueKind::Delete, ""),
            ("e", 7, ValueKind::Put, "ve"),
        ]);
        let b = mem(vec![
            ("a", 2, ValueKind::Put, "old"),
            ("b", 3, ValueKind::Put, "vb"),
        ]);
        let mut owned = MergingIter::new(
            vec![
                mem(vec![
                    ("a", 5, ValueKind::Put, "va"),
                    ("c", 6, ValueKind::Delete, ""),
                    ("e", 7, ValueKind::Put, "ve"),
                ]),
                mem(vec![
                    ("a", 2, ValueKind::Put, "old"),
                    ("b", 3, ValueKind::Put, "vb"),
                ]),
            ],
            true,
        )
        .unwrap();
        let mut cursor = MergingIter::new(vec![a, b], true).unwrap();
        while let Some(e) = owned.next_visible().unwrap() {
            assert!(cursor.advance_visible().unwrap());
            assert_eq!(e.key.as_slice(), cursor.key());
            assert_eq!(e.value.as_slice(), cursor.value());
            assert_eq!(e.seqno, cursor.seqno());
            assert_eq!(e.kind, cursor.kind());
        }
        assert!(!cursor.advance_visible().unwrap());
    }

    /// One randomized merge over `keys` (ascending) against a `BTreeMap`
    /// model: up to 40 sources with overlapping keys, seqnos falling with
    /// source rank, random tombstones and some empty sources. Both the
    /// cursor stream and the owned stream must equal the model's newest
    /// version per key, with and without tombstones.
    fn random_merge_matches_a_model(rng: &mut rand::rngs::StdRng, keys: &[Vec<u8>], case: &str) {
        use rand::Rng;
        use std::collections::BTreeMap;

        type Version = (u64, ValueKind, Vec<u8>);
        let n_sources = rng.gen_range(0usize..=40);
        let mut runs: Vec<Vec<InternalEntry>> = Vec::with_capacity(n_sources);
        let mut model: BTreeMap<Vec<u8>, Version> = BTreeMap::new();
        for rank in 0..n_sources {
            let mut run = Vec::new();
            if !rng.gen_bool(0.15) {
                let density = rng.gen_range(0.01f64..0.6);
                for (k, key) in keys.iter().enumerate() {
                    if !rng.gen_bool(density) {
                        continue;
                    }
                    // younger sources (lower rank) carry higher seqnos
                    let seqno = (n_sources - rank) as u64 * 1_000 + k as u64 % 1_000;
                    let kind = if rng.gen_bool(0.2) {
                        ValueKind::Delete
                    } else {
                        ValueKind::Put
                    };
                    let value = match kind {
                        ValueKind::Delete => Vec::new(),
                        ValueKind::Put => format!("r{rank}k{k}").into_bytes(),
                    };
                    // the first (youngest) source to hold a key wins
                    model
                        .entry(key.clone())
                        .or_insert_with(|| (seqno, kind, value.clone()));
                    run.push(InternalEntry {
                        key: key.clone(),
                        seqno,
                        kind,
                        value,
                    });
                }
            }
            runs.push(run);
        }
        for keep_tombstones in [false, true] {
            let expect: Vec<(Vec<u8>, Version)> = model
                .iter()
                .filter(|(_, (_, kind, _))| keep_tombstones || *kind == ValueKind::Put)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            let sources = || runs.iter().map(|run| buffered(run)).collect::<Vec<_>>();
            let mut cursor = MergingIter::new(sources(), keep_tombstones).unwrap();
            let mut streamed = Vec::new();
            while cursor.advance_visible().unwrap() {
                streamed.push((
                    cursor.key().to_vec(),
                    (cursor.seqno(), cursor.kind(), cursor.value().to_vec()),
                ));
            }
            let case = format!("{case}, keep_tombstones {keep_tombstones}");
            assert_eq!(streamed, expect, "{case}");
            let mut owned_merge = MergingIter::new(sources(), keep_tombstones).unwrap();
            let owned: Vec<_> = std::iter::from_fn(|| owned_merge.next_visible().unwrap())
                .map(|e| (e.key, (e.seqno, e.kind, e.value)))
                .collect();
            assert_eq!(owned, expect, "{case}");
        }
    }

    #[test]
    fn random_merges_match_a_model() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4EA9);
        for round in 0..60 {
            let keyspace = rng.gen_range(1u32..300);
            let keys: Vec<Vec<u8>> = (0..keyspace).map(|k| format!("k{k:04}").into_bytes()).collect();
            random_merge_matches_a_model(&mut rng, &keys, &format!("round {round}"));
        }
    }

    /// The same model check over keys that tie on the merge's 16-byte
    /// prefix: lengths 15, 16, 17 and 40 behind one shared 16-byte head,
    /// embedded and trailing `0x00` bytes (which the zero-padded prefix
    /// cannot tell from padding), and keys that are prefixes of one
    /// another.
    #[test]
    fn keys_that_tie_on_the_cached_prefix_merge_in_byte_order() {
        use rand::SeedableRng;
        let head = b"shared-16B-head!".to_vec();
        assert_eq!(head.len(), PREFIX);
        let with = |base: &[u8], tail: &[u8]| [base, tail].concat();
        let mut keys = vec![
            Vec::new(),
            vec![0],
            vec![0; 16],
            vec![0; 17],
            vec![0; 40],
            b"a".to_vec(),
            b"a\0".to_vec(),
            b"a\0b".to_vec(),
            head[..15].to_vec(),
            with(&head[..15], &[0]),
            with(&head[..15], &[0, 0]),
            with(&head[..15], &[1]),
            head.clone(),
            with(&head, &[0]),
            with(&head, &[0, 0]),
            with(&head, &[1]),
            with(&head, &[0xFF]),
            with(&head, &[0; 24]),
            with(&head, &[b'x'; 24]),
            with(&head, &[[b'x'; 23].as_slice(), &[0]].concat()),
            with(&head, &[[b'x'; 23].as_slice(), &[1]].concat()),
            with(&with(&head, &[b'x'; 24]), &[0]),
            with(&head, &[0, b'x']),
            with(&head[..8], &[0; 8]),
            with(&head[..8], &[0; 9]),
            vec![0xFF; 16],
            vec![0xFF; 17],
            vec![0xFF; 40],
        ];
        keys.sort();
        keys.dedup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7E5);
        for round in 0..80 {
            random_merge_matches_a_model(&mut rng, &keys, &format!("prefix-tie round {round}"));
        }
    }

    fn table_of(dev: &Arc<dyn lsm_storage::StorageDevice>, keys: std::ops::Range<u32>) -> Arc<Table> {
        let cfg = crate::LsmConfig {
            block_size: 512,
            ..crate::LsmConfig::small_for_tests()
        };
        let mut b = crate::sstable::TableBuilder::new(Arc::clone(dev), &cfg, 10.0).unwrap();
        for i in keys {
            b.add(format!("k{i:04}").as_bytes(), i as u64, ValueKind::Put, b"v").unwrap();
        }
        Table::open(b.finish().unwrap().0, lsm_index::IndexKind::Fence).unwrap()
    }

    /// A merge drops a table source's handle once it has passed the
    /// table, so a file the version has let go of need not wait for the
    /// whole merge to end.
    #[test]
    fn a_merge_releases_each_table_it_has_passed() {
        let dev: Arc<dyn lsm_storage::StorageDevice> =
            Arc::new(lsm_storage::MemDevice::new(512, lsm_storage::DeviceProfile::free()));
        let (low, high) = (table_of(&dev, 0..50), table_of(&dev, 50..100));
        let sources = vec![
            Source::Table(low.iter_from(b"", None).unwrap()),
            Source::Table(high.iter_from(b"", None).unwrap()),
        ];
        let mut merge = MergingIter::new(sources, true).unwrap();
        for _ in 0..50 {
            assert!(merge.advance_visible().unwrap());
        }
        assert_eq!(Arc::strong_count(&low), 2, "still on the low table's last key");
        assert!(merge.advance_visible().unwrap());
        assert_eq!(Arc::strong_count(&low), 1, "the passed table's handle is released");
        assert_eq!(Arc::strong_count(&high), 2);
        while merge.advance_visible().unwrap() {}
        assert_eq!(Arc::strong_count(&high), 1);
    }

    /// A run cursor reads a clipped table only above its floor.
    #[test]
    fn a_run_cursor_starts_past_a_floor() {
        let dev: Arc<dyn lsm_storage::StorageDevice> =
            Arc::new(lsm_storage::MemDevice::new(512, lsm_storage::DeviceProfile::free()));
        let run = SortedRun::from_run_tables(vec![
            RunTable { table: table_of(&dev, 0..50), floor: Some(b"k0030".to_vec().into()) },
            table_of(&dev, 50..60).into(),
        ]);
        for (start, first) in [(&b""[..], "k0031"), (b"k0030", "k0031"), (b"k0040", "k0040")] {
            let mut it = RunIterator::new(run.clone(), 0..2, start.into(), None);
            let mut keys = Vec::new();
            while it.advance().unwrap() {
                keys.push(String::from_utf8(it.cur().key().to_vec()).unwrap());
            }
            assert_eq!(keys.first().map(String::as_str), Some(first), "from {start:?}");
            assert_eq!(keys.last().map(String::as_str), Some("k0059"));
        }
    }
}
