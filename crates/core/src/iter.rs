//! Merging iterators: the scan path (tutorial Module I.1's `scan`).
//!
//! A scan assigns one iterator per qualifying source (memtable + every
//! sorted run), merges them in key order, keeps only the newest version of
//! each key (sources are ranked youngest-first), and suppresses tombstoned
//! keys. Compaction reuses the same merge with tombstone retention.
//!
//! Every source is a *cursor* — `advance()` then `key()`/`value()` — so
//! merged entries are borrowed views into pinned blocks; bytes are copied
//! only where a caller materializes them ([`MergingIter::next_visible`],
//! a table builder, a wire encoder).

use std::sync::Arc;

use lsm_cache::ShardedCache;
use lsm_storage::{Block, StorageResult};

use crate::entry::{InternalEntry, ValueKind};
use crate::sstable::block::KeyBuf;
use crate::sstable::{EntryRef, Table, TableIterator};

/// Lazily chains the iterators of a run's key-ordered, disjoint tables:
/// a table is opened (and its first block read) only when the scan
/// actually reaches its key range — a 10-entry scan over a 100-table run
/// touches one or two tables, not all of them.
pub struct RunIterator {
    tables: std::vec::IntoIter<Arc<Table>>,
    cache: Option<Arc<ShardedCache<Block>>>,
    start: Vec<u8>,
    current: Option<TableIterator>,
    first: bool,
}

impl RunIterator {
    /// Iterator over `tables` (key-ordered, disjoint) from `start`.
    pub fn new(
        tables: Vec<Arc<Table>>,
        start: Vec<u8>,
        cache: Option<Arc<ShardedCache<Block>>>,
    ) -> Self {
        RunIterator {
            tables: tables.into_iter(),
            cache,
            start,
            current: None,
            first: true,
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
            let Some(table) = self.tables.next() else {
                return Ok(false);
            };
            // only the first table needs to seek; later tables start past
            // `start` by disjointness
            let from: &[u8] = if self.first { &self.start } else { b"" };
            self.first = false;
            self.current = Some(table.iter_from(from, self.cache.clone())?);
        }
    }

    fn cur(&self) -> &TableIterator {
        self.current.as_ref().expect("valid cursor")
    }

    /// Current key.
    pub fn key(&self) -> &[u8] {
        self.cur().key()
    }

    /// Current value, borrowed from the pinned block.
    pub fn value(&self) -> &[u8] {
        self.cur().value()
    }

    /// Current sequence number.
    pub fn seqno(&self) -> u64 {
        self.cur().seqno()
    }

    /// Current entry kind.
    pub fn kind(&self) -> ValueKind {
        self.cur().kind()
    }
}

/// A table iterator clipped to `[start, hi)` that counts every entry it
/// yields — the per-shard input view of a sub-compaction (see
/// [`crate::compaction::subcompact`]). The entry that first reaches `hi`
/// belongs to the next shard; it ends this source without being counted.
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
        table: &Arc<Table>,
        start: &[u8],
        hi: Option<Vec<u8>>,
        pulled: Arc<std::sync::atomic::AtomicU64>,
    ) -> StorageResult<Self> {
        Ok(BoundedTableIter {
            it: table.iter_from(start, None)?,
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

    /// Current key.
    pub fn key(&self) -> &[u8] {
        self.it.key()
    }

    /// Current value.
    pub fn value(&self) -> &[u8] {
        self.it.value()
    }

    /// Current sequence number.
    pub fn seqno(&self) -> u64 {
        self.it.seqno()
    }

    /// Current entry kind.
    pub fn kind(&self) -> ValueKind {
        self.it.kind()
    }
}

/// In-memory source: a flat copy of a key-ordered stretch of a write
/// buffer — every entry's key and value bytes back to back in one
/// buffer, plus one index — so a source costs two allocations however
/// many entries it holds.
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
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    fn cur(&self) -> &MemSlot {
        &self.index[self.next - 1]
    }

    fn key(&self) -> &[u8] {
        let s = self.cur();
        &self.bytes[s.off..s.off + s.key_len]
    }

    fn value(&self) -> &[u8] {
        let s = self.cur();
        let from = s.off + s.key_len;
        &self.bytes[from..from + s.val_len]
    }
}

/// A source of key-ordered entries.
pub enum Source {
    /// Copied write-buffer entries (already key-ordered).
    Mem(MemSource),
    /// A table iterator.
    Table(TableIterator),
    /// A lazy iterator over one sorted run.
    Run(RunIterator),
    /// A key-range-clipped, pull-counting table iterator (sub-compactions).
    BoundedTable(BoundedTableIter),
}

impl Source {
    /// In-memory source over sorted owned entries (the test constructor;
    /// the read path fills a [`MemSource`] from a borrowed cursor).
    pub fn mem(entries: Vec<InternalEntry>) -> Source {
        let mut run = MemSource::default();
        for e in &entries {
            run.push(EntryRef {
                key: &e.key,
                seqno: e.seqno,
                kind: e.kind,
                value: &e.value,
            });
        }
        Source::Mem(run)
    }

    fn advance(&mut self) -> StorageResult<bool> {
        match self {
            Source::Mem(s) => {
                if s.next < s.index.len() {
                    s.next += 1;
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
            Source::Table(it) => it.advance(),
            Source::Run(it) => it.advance(),
            Source::BoundedTable(it) => it.advance(),
        }
    }

    fn key(&self) -> &[u8] {
        match self {
            Source::Mem(s) => s.key(),
            Source::Table(it) => it.key(),
            Source::Run(it) => it.key(),
            Source::BoundedTable(it) => it.key(),
        }
    }

    fn value(&self) -> &[u8] {
        match self {
            Source::Mem(s) => s.value(),
            Source::Table(it) => it.value(),
            Source::Run(it) => it.value(),
            Source::BoundedTable(it) => it.value(),
        }
    }

    fn seqno(&self) -> u64 {
        match self {
            Source::Mem(s) => s.cur().seqno,
            Source::Table(it) => it.seqno(),
            Source::Run(it) => it.seqno(),
            Source::BoundedTable(it) => it.seqno(),
        }
    }

    fn kind(&self) -> ValueKind {
        match self {
            Source::Mem(s) => s.cur().kind,
            Source::Table(it) => it.kind(),
            Source::Run(it) => it.kind(),
            Source::BoundedTable(it) => it.kind(),
        }
    }
}

/// K-way merge with newest-version-wins semantics.
///
/// Sources must be supplied **youngest first**: on equal keys the
/// lowest-index source provides the visible version (its seqno is
/// necessarily the highest, by the LSM invariant).
///
/// The merge itself is a cursor: [`MergingIter::advance_visible`] then
/// `key()`/`value()` borrow the winning entry in place. The previous
/// winner's key is kept in an inline scratch buffer for duplicate
/// suppression, so steady-state merging allocates nothing.
pub struct MergingIter {
    sources: Vec<Source>,
    valid: Vec<bool>,
    /// Source holding the current visible entry (not yet stepped past).
    winner: Option<usize>,
    /// Key (and seqno) of the winner being stepped past, for duplicate
    /// suppression across sources.
    prev_key: KeyBuf,
    prev_seqno: u64,
    /// Keep tombstones in the output (compaction into non-last levels).
    keep_tombstones: bool,
}

impl MergingIter {
    /// Builds the merge; pulls the first entry of every source.
    pub fn new(sources: Vec<Source>, keep_tombstones: bool) -> StorageResult<Self> {
        let mut sources = sources;
        let mut valid = Vec::with_capacity(sources.len());
        for s in sources.iter_mut() {
            valid.push(s.advance()?);
        }
        Ok(MergingIter {
            sources,
            valid,
            winner: None,
            prev_key: KeyBuf::new(),
            prev_seqno: 0,
            keep_tombstones,
        })
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
            if let Some(w) = self.winner.take() {
                // step past the previous winner and every older version of
                // its key in all sources
                let sources = &mut self.sources;
                let prev_key = &mut self.prev_key;
                prev_key.set(sources[w].key());
                self.prev_seqno = sources[w].seqno();
                self.valid[w] = sources[w].advance()?;
                for (i, src) in sources.iter_mut().enumerate() {
                    while self.valid[i] && src.key() == prev_key.as_slice() {
                        debug_assert!(
                            src.seqno() <= self.prev_seqno,
                            "older source carried a newer seqno"
                        );
                        self.valid[i] = src.advance()?;
                    }
                }
            }
            // find the smallest head key; among equals, the youngest source
            let mut best: Option<usize> = None;
            for i in 0..self.sources.len() {
                if !self.valid[i] {
                    continue;
                }
                best = match best {
                    None => Some(i),
                    Some(b) if self.sources[i].key() < self.sources[b].key() => Some(i),
                    b => b,
                };
            }
            let Some(w) = best else {
                return Ok(false);
            };
            self.winner = Some(w);
            if self.sources[w].kind() == ValueKind::Delete && !self.keep_tombstones {
                continue;
            }
            return Ok(true);
        }
    }

    fn cur(&self) -> &Source {
        &self.sources[self.winner.expect("valid merge cursor")]
    }

    /// Current key.
    pub fn key(&self) -> &[u8] {
        self.cur().key()
    }

    /// Current value.
    pub fn value(&self) -> &[u8] {
        self.cur().value()
    }

    /// Current sequence number.
    pub fn seqno(&self) -> u64 {
        self.cur().seqno()
    }

    /// Current entry kind.
    pub fn kind(&self) -> ValueKind {
        self.cur().kind()
    }

    /// Next visible entry, materialized (owned convenience wrapper over
    /// [`MergingIter::advance_visible`]).
    pub fn next_visible(&mut self) -> StorageResult<Option<InternalEntry>> {
        Ok(if self.advance_visible()? {
            Some(InternalEntry {
                key: self.key().to_vec(),
                seqno: self.seqno(),
                kind: self.kind(),
                value: self.value().to_vec(),
            })
        } else {
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(entries: Vec<(&str, u64, ValueKind, &str)>) -> Source {
        Source::mem(
            entries
                .into_iter()
                .map(|(k, s, kind, v)| InternalEntry {
                    key: k.as_bytes().to_vec(),
                    seqno: s,
                    kind,
                    value: v.as_bytes().to_vec(),
                })
                .collect(),
        )
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
}
