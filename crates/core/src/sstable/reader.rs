//! SSTable reader: the point-lookup and scan path over one immutable run.
//!
//! Opening a table loads its metadata, point/range filters, and block
//! index into memory (production engines pin these; tutorial Module II.1).
//! Data blocks are fetched on demand through the shared block cache.
//!
//! Integrity is checked where bytes leave the device, once: sections in
//! [`Table::open`], data blocks and filter partitions on their cache-miss
//! path, before they are admitted to the cache. A cache hit re-hashes
//! nothing, and a read that fails verification is never cached.

use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lsm_cache::{CacheKey, ShardedCache};
use lsm_filters::serialize::SerializableRangeFilter;
use lsm_filters::{
    BlockedBloomFilter, BloomFilter, CuckooFilter, PointFilter, RangeFilter, RibbonFilter,
    XorFilter,
};
use lsm_index::{BlockLocator, FencePointers, IndexKind, PlaIndex, SparseIndex};
use lsm_obs::Gauge;
use lsm_storage::{Block, ImmutableFile, IoCategory, StorageError, StorageResult};

use crate::entry::ValueKind;
use crate::integrity;
use crate::sstable::block::{BlockEntry, BlockIter, EntryRef};
use crate::version::Obsolete;
use crate::sstable::builder::{
    FILTER_TAG_BLOCKED, FILTER_TAG_BLOOM, FILTER_TAG_CUCKOO, FILTER_TAG_RIBBON, FILTER_TAG_XOR,
};
use crate::sstable::meta::{decode_footer, TableMeta};

fn deserialize_filter(bytes: &[u8]) -> Option<Box<dyn PointFilter>> {
    let (&tag, rest) = bytes.split_first()?;
    match tag {
        FILTER_TAG_BLOOM => Some(Box::new(BloomFilter::from_bytes(rest)?)),
        FILTER_TAG_BLOCKED => Some(Box::new(BlockedBloomFilter::from_bytes(rest)?)),
        FILTER_TAG_CUCKOO => Some(Box::new(CuckooFilter::from_bytes(rest)?)),
        FILTER_TAG_XOR => Some(Box::new(XorFilter::from_bytes(rest)?)),
        FILTER_TAG_RIBBON => Some(Box::new(RibbonFilter::from_bytes(rest)?)),
        _ => None,
    }
}

/// Counts a detected corruption on `file`'s device and builds its error.
fn corruption(file: &ImmutableFile, msg: impl Into<String>) -> StorageError {
    file.stats().record_corruption();
    StorageError::Corruption(msg.into())
}

/// Reads one sealed unit (`len` bytes at byte `offset`) into its block,
/// verifies it there and returns it without its trailer; `what` names it
/// in the error.
fn read_sealed(
    file: &ImmutableFile,
    offset: u64,
    len: usize,
    cat: IoCategory,
    what: &str,
) -> StorageResult<Block> {
    let mut block = file.read_block(offset, len, cat)?;
    let body_len = integrity::unseal(block.data())
        .ok_or_else(|| corruption(file, format!("{what} failed its checksum")))?
        .len();
    block.truncate(body_len);
    Ok(block)
}

/// The in-memory block locator, built from the fences at open time
/// according to the configured [`IndexKind`].
enum Locator {
    Fence(FencePointers),
    Sparse(SparseIndex),
    Pla(PlaIndex),
}

impl Locator {
    fn build(kind: IndexKind, meta: &TableMeta) -> Locator {
        match kind {
            IndexKind::Fence => Locator::Fence(FencePointers::new(
                meta.min_key.clone(),
                meta.fences.clone(),
            )),
            IndexKind::Sparse { rate } => {
                Locator::Sparse(SparseIndex::build(meta.min_key.clone(), &meta.fences, rate))
            }
            IndexKind::Pla { epsilon } => Locator::Pla(PlaIndex::build(&meta.fences, epsilon)),
        }
    }

    /// Candidate block window for a point lookup; `None` = provably absent.
    fn window(&self, key: &[u8]) -> Option<std::ops::RangeInclusive<usize>> {
        match self {
            Locator::Fence(f) => f.locate(key).map(|b| b..=b),
            Locator::Sparse(s) => s.candidate_window(key),
            Locator::Pla(p) => p.window_for(key),
        }
    }

    /// The first block a forward scan from `start` reads: the first whose
    /// fence (last key) is ≥ `start`, `fences.len()` when there is none.
    /// Fence pointers answer from their flat prefix array; the sampled
    /// and learned indexes hold no exact boundaries, so they search the
    /// table's own fence list.
    fn first_block_from(&self, start: &[u8], fences: &[Vec<u8>]) -> usize {
        match self {
            Locator::Fence(f) => f.locate_lower_bound(start).unwrap_or(fences.len()),
            Locator::Sparse(_) | Locator::Pla(_) => fences.partition_point(|f| f.as_slice() < start),
        }
    }

    fn size_bits(&self) -> usize {
        match self {
            Locator::Fence(f) => f.size_bits(),
            Locator::Sparse(s) => s.size_bits(),
            Locator::Pla(p) => p.size_bits(),
        }
    }
}

/// The result of a table point lookup, with the path taken (for stats).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableGet {
    /// The matching entry, if the key is present in this table.
    pub entry: Option<BlockEntry>,
    /// Whether the point filter pruned the lookup (no data I/O happened).
    pub filter_pruned: bool,
    /// Data blocks actually read (cache hits included).
    pub blocks_examined: u32,
}

/// Lookup-path statistics shared by [`Table::get`] and
/// [`Table::get_with`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableProbe {
    /// Whether the point filter pruned the lookup (no data I/O happened).
    pub filter_pruned: bool,
    /// Data blocks actually read (cache hits included).
    pub blocks_examined: u32,
}

/// An open, immutable SSTable.
pub struct Table {
    file: ImmutableFile,
    meta: TableMeta,
    filter: Option<Box<dyn PointFilter>>,
    range_filter: Option<SerializableRangeFilter>,
    locator: Locator,
    accesses: AtomicU64,
    /// Byte offset of each filter partition within the filter section
    /// (empty = monolithic filter held in `filter`).
    partition_offsets: Vec<u64>,
    /// Set when a compaction supersedes this table: the file is deleted
    /// when the last reference (version, snapshot or iterator) drops.
    obsolete: Obsolete,
}

impl Table {
    /// Opens a sealed table file, loading meta/filter/index into memory.
    pub fn open(file: ImmutableFile, index_kind: IndexKind) -> StorageResult<Arc<Table>> {
        let bs = file.block_size() as u64;
        if file.len_blocks() == 0 {
            return Err(StorageError::Corruption("empty table file".into()));
        }
        let footer_block = file.read_blocks(file.len_blocks() - 1, 1, IoCategory::Misc)?;
        let (meta_start, meta_len) =
            decode_footer(&footer_block).ok_or_else(|| corruption(&file, "bad table footer"))?;
        let meta_bytes = read_sealed(
            &file,
            meta_start * bs,
            meta_len as usize,
            IoCategory::Index,
            "table meta",
        )?;
        let meta = TableMeta::from_bytes(meta_bytes.data())
            .ok_or_else(|| corruption(&file, "bad table meta"))?;
        // partitioned filters stay on storage and are fetched through the
        // cache per probe; monolithic filters are loaded (pinned) here
        let mut partition_offsets = Vec::new();
        let filter = if !meta.filter_partitions.is_empty() {
            let mut off = 0u64;
            for &len in &meta.filter_partitions {
                partition_offsets.push(off);
                off += len as u64;
            }
            None
        } else if meta.filter.is_present() {
            let bytes = read_sealed(
                &file,
                meta.filter.start_block * bs,
                meta.filter.byte_len as usize,
                IoCategory::Filter,
                "filter section",
            )?;
            Some(
                deserialize_filter(bytes.data())
                    .ok_or_else(|| corruption(&file, "bad filter section"))?,
            )
        } else {
            None
        };
        let range_filter = if meta.range_filter.is_present() {
            let bytes = read_sealed(
                &file,
                meta.range_filter.start_block * bs,
                meta.range_filter.byte_len as usize,
                IoCategory::Filter,
                "range-filter section",
            )?;
            Some(
                SerializableRangeFilter::try_from_bytes(bytes.data())
                    .map_err(|e| corruption(&file, e.to_string()))?,
            )
        } else {
            None
        };
        let locator = Locator::build(index_kind, &meta);
        Ok(Arc::new(Table {
            file,
            meta,
            filter,
            range_filter,
            locator,
            accesses: AtomicU64::new(0),
            partition_offsets,
            obsolete: Obsolete::default(),
        }))
    }

    /// Table (= file) id.
    pub fn id(&self) -> u64 {
        self.file.id().0
    }

    /// Marks the table superseded: its file is deleted when the last
    /// reference drops. Until then `superseded` counts the file's bytes.
    pub fn mark_obsolete(&self, superseded: &Arc<Gauge>) {
        self.obsolete.mark(superseded, self.file_bytes());
    }

    /// The file's size in bytes.
    fn file_bytes(&self) -> u64 {
        self.file.len_blocks() * self.file.block_size() as u64
    }

    /// Table metadata.
    pub fn meta(&self) -> &TableMeta {
        &self.meta
    }

    /// Filter tag byte recorded in the footer at build time (0 = none).
    /// Reflects what this table actually carries, independent of whatever
    /// the engine's current (possibly retuned) config says.
    pub fn filter_kind_tag(&self) -> u8 {
        self.meta.filter_kind_tag
    }

    /// Lookups served since open (drives the "coldest" file picker).
    pub fn accesses(&self) -> u64 {
        self.accesses.load(Ordering::Relaxed)
    }

    /// In-memory index footprint in bits (experiment `fence_vs_learned`).
    pub fn index_size_bits(&self) -> usize {
        self.locator.size_bits()
    }

    /// In-memory (resident) point-filter footprint in bits. Partitioned
    /// filters report 0: partitions live in the block cache, not pinned
    /// per table.
    pub fn filter_size_bits(&self) -> usize {
        self.filter.as_ref().map_or(0, |f| f.size_bits())
    }

    /// File size in device blocks.
    pub fn len_blocks(&self) -> u64 {
        self.file.len_blocks()
    }

    /// Approximate data bytes (device blocks × block size).
    pub fn data_bytes(&self) -> u64 {
        let bs = self.file.block_size() as u64;
        self.meta
            .data_blocks
            .iter()
            .map(|b| b.num_blocks * bs)
            .sum()
    }

    /// Whether the table's key range overlaps `[lo, hi]` (inclusive).
    pub fn overlaps(&self, lo: &[u8], hi: &[u8]) -> bool {
        self.meta.min_key.as_slice() <= hi && self.meta.max_key.as_slice() >= lo
    }

    /// Whether this table uses partitioned filters.
    pub fn partitioned_filters(&self) -> bool {
        !self.partition_offsets.is_empty()
    }

    /// Cache-key block namespace for filter partitions (disjoint from data
    /// block indexes).
    const PARTITION_KEY_BASE: u64 = 1 << 40;

    /// Block-cache key of data block `idx`.
    pub(crate) fn data_key(&self, idx: usize) -> CacheKey {
        CacheKey::new(self.id(), idx as u64)
    }

    /// Block-cache key of the filter partition guarding data block `idx`.
    pub(crate) fn partition_key(&self, idx: usize) -> CacheKey {
        CacheKey::new(self.id(), Self::PARTITION_KEY_BASE + idx as u64)
    }

    /// Drops every block of this table from `cache` — its data blocks and
    /// its filter partitions — once a compaction has consumed it.
    pub(crate) fn invalidate_cached(&self, cache: &ShardedCache<Block>) {
        for idx in 0..self.meta.data_blocks.len() {
            cache.remove(&self.data_key(idx));
        }
        for idx in 0..self.meta.filter_partitions.len() {
            cache.remove(&self.partition_key(idx));
        }
    }

    /// Probes the filter partition guarding data block `idx`. `Ok(true)`
    /// means the key may be in the block (or no partition exists).
    fn probe_partition(
        &self,
        idx: usize,
        key: &[u8],
        cache: Option<&ShardedCache<Block>>,
    ) -> StorageResult<bool> {
        if self.partition_offsets.is_empty() {
            return Ok(true);
        }
        let len = self.meta.filter_partitions[idx] as usize;
        if len == 0 {
            return Ok(true);
        }
        let cache_key = self.partition_key(idx);
        let block = if let Some(b) = cache.and_then(|c| c.get(&cache_key)) {
            b
        } else {
            let bs = self.file.block_size() as u64;
            let start = self.meta.filter.start_block * bs + self.partition_offsets[idx];
            // verified before the cache sees it; hits skip the hash
            let b = read_sealed(&self.file, start, len, IoCategory::Filter, "filter partition")?;
            if let Some(c) = cache {
                c.insert(cache_key, b.clone(), b.charge());
            }
            b
        };
        let f = deserialize_filter(block.data())
            .ok_or_else(|| corruption(&self.file, "bad filter partition"))?;
        Ok(f.may_contain(key))
    }

    /// Reads (via cache when provided) the `idx`-th data block. A block
    /// read from the device is verified here, before it is cached or
    /// returned, so every block this hands out has passed its checksum
    /// exactly once and a flipped read is retried on the device, not
    /// served again from the cache.
    pub fn read_data_block(
        &self,
        idx: usize,
        cache: Option<&ShardedCache<Block>>,
    ) -> StorageResult<Block> {
        let loc = self.meta.data_blocks[idx];
        let key = self.data_key(idx);
        if let Some(c) = cache {
            if let Some(b) = c.get(&key) {
                return Ok(b);
            }
        }
        // one copy, into the block the cache keeps: the read covers the
        // location's `num_blocks` whole blocks, the buffer only its bytes
        let bs = self.file.block_size() as u64;
        let block = self
            .file
            .read_block(loc.start_block * bs, loc.byte_len as usize, IoCategory::Data)?;
        if integrity::unseal(block.data()).is_none() {
            return Err(self.bad_block(idx));
        }
        if let Some(c) = cache {
            c.insert(key, block.clone(), block.charge());
        }
        Ok(block)
    }

    fn bad_block(&self, idx: usize) -> StorageError {
        corruption(
            &self.file,
            format!("bad data block {idx} in table f{}", self.id()),
        )
    }

    /// A cursor over the `idx`-th data block, opened without re-hashing:
    /// [`Table::read_data_block`] verified the bytes.
    fn open_block(
        &self,
        idx: usize,
        cache: Option<&ShardedCache<Block>>,
    ) -> StorageResult<BlockIter<Block>> {
        let block = self.read_data_block(idx, cache)?;
        BlockIter::from_verified(block).ok_or_else(|| self.bad_block(idx))
    }

    /// Point lookup within this table, yielding a borrowed view.
    ///
    /// `f` runs at most once, on the matching entry, while the block is
    /// still pinned — so the caller can copy the value straight into its
    /// own buffer (or hand it to the wire encoder) without an
    /// intermediate allocation. [`Table::get`] wraps this with an owned
    /// [`BlockEntry`] for callers that need ownership.
    pub fn get_with<R>(
        &self,
        key: &[u8],
        cache: Option<&ShardedCache<Block>>,
        f: impl FnOnce(EntryRef<'_>) -> R,
    ) -> StorageResult<(Option<R>, TableProbe)> {
        let mut f = Some(f);
        self.accesses.fetch_add(1, Ordering::Relaxed);
        let miss = |filter_pruned: bool, blocks_examined: u32| TableProbe {
            filter_pruned,
            blocks_examined,
        };
        if !self.meta.key_in_range(key) {
            return Ok((None, miss(false, 0)));
        }
        if let Some(flt) = &self.filter {
            if !flt.may_contain(key) {
                return Ok((None, miss(true, 0)));
            }
        }
        let Some(window) = self.locator.window(key) else {
            return Ok((None, miss(false, 0)));
        };
        let mut blocks_examined = 0u32;
        let mut lo = *window.start();
        let mut hi = (*window.end()).min(self.meta.data_blocks.len().saturating_sub(1));
        if self.meta.data_blocks.is_empty() || lo > hi {
            return Ok((None, miss(false, 0)));
        }
        // partitioned filters: probe the candidate blocks' partitions
        // first — each probe is a small cached read — and narrow the window
        // to the blocks whose partition answers "maybe"
        if self.partitioned_filters() {
            let mut candidates = Vec::new();
            for idx in lo..=hi {
                if self.probe_partition(idx, key, cache)? {
                    candidates.push(idx);
                }
            }
            match candidates.len() {
                0 => return Ok((None, miss(true, 0))),
                1 => {
                    lo = candidates[0];
                    hi = candidates[0];
                }
                _ => {
                    lo = candidates[0];
                    hi = *candidates.last().unwrap();
                }
            }
        }
        if lo == hi {
            // exact fence hit: one block, hash-index fast path applies
            let mut it = self.open_block(lo, cache)?;
            blocks_examined += 1;
            let (found, _used_hash) = it.get(key)?;
            let r = found.then(|| (f.take().unwrap())(it.current()));
            return Ok((r, miss(false, blocks_examined)));
        }
        // binary search within the candidate window: the first probe lands
        // on the window's center — the locator's predicted block — so an
        // accurate prediction costs one block regardless of ε
        while lo <= hi {
            let mid = lo + (hi - lo) / 2;
            let mut it = self.open_block(mid, cache)?;
            blocks_examined += 1;
            if it.seek(key)? {
                if it.key() == key {
                    let r = (f.take().unwrap())(it.current());
                    return Ok((Some(r), miss(false, blocks_examined)));
                }
                // this block holds the key's successor; the key lives
                // here or to the left
                it.seek_to_first();
                let first_gt = it.advance()? && it.key() > key;
                if !first_gt || mid == 0 {
                    break; // the key would be in this block: absent
                }
                hi = mid - 1;
            } else {
                lo = mid + 1; // every entry < key: look right
            }
        }
        Ok((None, miss(false, blocks_examined)))
    }

    /// Point lookup within this table (owned result).
    pub fn get(
        &self,
        key: &[u8],
        cache: Option<&ShardedCache<Block>>,
    ) -> StorageResult<TableGet> {
        let (entry, probe) = self.get_with(key, cache, |e| e.to_entry())?;
        Ok(TableGet {
            entry,
            filter_pruned: probe.filter_pruned,
            blocks_examined: probe.blocks_examined,
        })
    }

    /// Whether a range query `[lo, hi]` can skip this table entirely,
    /// using key range and (when present) the range filter.
    pub fn range_may_overlap(&self, lo: Bound<&[u8]>, hi: Bound<&[u8]>) -> bool {
        // cheap key-range prune first
        let lo_key = match lo {
            Bound::Included(k) | Bound::Excluded(k) => k,
            Bound::Unbounded => &[],
        };
        if !self.meta.max_key.is_empty() && lo_key > self.meta.max_key.as_slice() {
            return false;
        }
        if let Bound::Included(h) | Bound::Excluded(h) = hi {
            if h < self.meta.min_key.as_slice() {
                return false;
            }
        }
        match &self.range_filter {
            Some(f) => f.may_overlap(lo, hi),
            None => true,
        }
    }

    /// A forward iterator positioned at the first entry with key ≥ `start`.
    pub fn iter_from(
        self: &Arc<Self>,
        start: &[u8],
        cache: Option<Arc<ShardedCache<Block>>>,
    ) -> StorageResult<TableIterator> {
        self.accesses.fetch_add(1, Ordering::Relaxed);
        let block_idx = self.locator.first_block_from(start, &self.meta.fences);
        let mut iter = TableIterator {
            table: Arc::clone(self),
            cache,
            next_block: block_idx,
            current: None,
            primed: false,
        };
        iter.load_next_block()?;
        // position at the first entry ≥ start; the first advance() serves it
        while let Some(it) = &mut iter.current {
            if it.seek(start)? {
                iter.primed = true;
                break;
            }
            iter.current = None;
            iter.load_next_block()?;
        }
        Ok(iter)
    }

    /// [`Table::iter_from`] that also serves no key at or below `floor`
    /// (a merge frontier's clip, see [`crate::version::RunTable`]).
    pub fn iter_above(
        self: &Arc<Self>,
        start: &[u8],
        floor: Option<&[u8]>,
        cache: Option<Arc<ShardedCache<Block>>>,
    ) -> StorageResult<TableIterator> {
        let Some(floor) = floor.filter(|f| *f >= start) else {
            return self.iter_from(start, cache);
        };
        let mut iter = self.iter_from(floor, cache)?;
        // the seek primed the first key ≥ floor; step past the floor itself
        while iter.primed && iter.key() <= floor {
            iter.primed = false;
            iter.primed = iter.advance()?;
        }
        Ok(iter)
    }
}

impl Drop for Table {
    fn drop(&mut self) {
        self.obsolete.release(self.file_bytes(), || self.file.delete_in_place());
    }
}

/// Streaming forward cursor over one table.
///
/// `advance()` moves to the next entry; `key()`/`value()`/`current()`
/// borrow from the pinned block, so a scan copies entry bytes only where
/// the caller decides to. [`TableIterator::next_entry`] is the owned
/// convenience wrapper.
pub struct TableIterator {
    table: Arc<Table>,
    cache: Option<Arc<ShardedCache<Block>>>,
    /// Index of the next data block to load.
    next_block: usize,
    current: Option<BlockIter<Block>>,
    /// The initial seek already positioned the cursor on an entry the
    /// first `advance()` must serve rather than step past.
    primed: bool,
}

impl TableIterator {
    fn load_next_block(&mut self) -> StorageResult<()> {
        if self.next_block < self.table.meta.data_blocks.len() {
            // A bad block must fail the scan. Skipping it would silently
            // truncate the result set — the caller would see a shorter
            // range, not an error.
            let it = self
                .table
                .open_block(self.next_block, self.cache.as_deref())?;
            self.next_block += 1;
            self.current = Some(it);
        } else {
            self.current = None;
        }
        Ok(())
    }

    /// Moves to the next entry. `Ok(false)` = end of table.
    pub fn advance(&mut self) -> StorageResult<bool> {
        if self.primed {
            self.primed = false;
            return Ok(self.current.as_ref().is_some_and(|it| it.valid()));
        }
        loop {
            match &mut self.current {
                None => return Ok(false),
                Some(it) => {
                    if it.advance()? {
                        return Ok(true);
                    }
                    self.current = None;
                    self.load_next_block()?;
                }
            }
        }
    }

    /// Whether the cursor points at an entry.
    pub fn valid(&self) -> bool {
        self.current.as_ref().is_some_and(|it| it.valid())
    }

    /// Current key; valid until the cursor moves.
    pub fn key(&self) -> &[u8] {
        self.current.as_ref().expect("valid cursor").key()
    }

    /// Current value, borrowed from the pinned block.
    pub fn value(&self) -> &[u8] {
        self.current.as_ref().expect("valid cursor").value()
    }

    /// Current sequence number.
    pub fn seqno(&self) -> u64 {
        self.current.as_ref().expect("valid cursor").seqno()
    }

    /// Current entry kind.
    pub fn kind(&self) -> ValueKind {
        self.current.as_ref().expect("valid cursor").kind()
    }

    /// Borrowed view of the current entry.
    pub fn current(&self) -> EntryRef<'_> {
        self.current.as_ref().expect("valid cursor").current()
    }

    /// Next entry in key order, or `None` at the end of the table
    /// (owned convenience wrapper over [`TableIterator::advance`]).
    pub fn next_entry(&mut self) -> StorageResult<Option<BlockEntry>> {
        Ok(if self.advance()? {
            Some(self.current().to_entry())
        } else {
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LsmConfig;
    use crate::entry::ValueKind;
    use crate::sstable::builder::TableBuilder;
    use lsm_storage::{DeviceProfile, MemDevice, StorageDevice};

    fn build_table(n: usize, index: IndexKind) -> (Arc<MemDevice>, Arc<Table>) {
        let dev = Arc::new(MemDevice::new(512, DeviceProfile::free()));
        let dev_dyn: Arc<dyn StorageDevice> = dev.clone();
        let cfg = LsmConfig {
            block_size: 512,
            ..LsmConfig::small_for_tests()
        };
        let mut b = TableBuilder::new(dev_dyn, &cfg, 10.0).unwrap();
        for i in 0..n {
            b.add(
                format!("key{i:06}").as_bytes(),
                i as u64,
                if i % 10 == 9 { ValueKind::Delete } else { ValueKind::Put },
                format!("val{i:06}").as_bytes(),
            )
            .unwrap();
        }
        let (file, _meta) = b.finish().unwrap();
        let table = Table::open(file, index).unwrap();
        (dev, table)
    }

    #[test]
    fn get_found_and_absent() {
        let (_dev, t) = build_table(1000, IndexKind::Fence);
        let hit = t.get(b"key000123", None).unwrap();
        let e = hit.entry.unwrap();
        assert_eq!(e.value, b"val000123".to_vec());
        assert_eq!(e.seqno, 123);
        assert_eq!(hit.blocks_examined, 1, "fences read exactly one block");

        let miss = t.get(b"key000123x", None).unwrap();
        assert!(miss.entry.is_none());
        // absent key inside range: either filter pruned or one block read
        assert!(miss.filter_pruned || miss.blocks_examined <= 1);

        let out = t.get(b"zzz", None).unwrap();
        assert!(out.entry.is_none());
        assert_eq!(out.blocks_examined, 0, "out of range costs nothing");
    }

    #[test]
    fn tombstones_are_returned_as_entries() {
        let (_dev, t) = build_table(100, IndexKind::Fence);
        let hit = t.get(b"key000009", None).unwrap();
        assert_eq!(hit.entry.unwrap().kind, ValueKind::Delete);
    }

    #[test]
    fn filter_prunes_absent_keys_without_io() {
        let (dev, t) = build_table(1000, IndexKind::Fence);
        let before = dev.stats().snapshot().category(IoCategory::Data).read_blocks;
        let mut pruned = 0;
        for i in 0..200 {
            let miss = t.get(format!("missing{i:04}xx").as_bytes(), None).unwrap();
            // 'missing...' sorts after 'key...', so it's out of range; use
            // keys inside the range instead
            let _ = miss;
            let probe = format!("key{:06}x", i * 3);
            let r = t.get(probe.as_bytes(), None).unwrap();
            if r.filter_pruned {
                pruned += 1;
            }
        }
        let after = dev.stats().snapshot().category(IoCategory::Data).read_blocks;
        assert!(pruned > 180, "only {pruned} pruned");
        assert!(after - before < 40, "{} data reads", after - before);
    }

    #[test]
    fn all_index_kinds_locate_every_key() {
        for kind in [
            IndexKind::Fence,
            IndexKind::Sparse { rate: 4 },
            IndexKind::Pla { epsilon: 4 },
        ] {
            let (_dev, t) = build_table(800, kind);
            for i in (0..800).step_by(37) {
                let key = format!("key{i:06}");
                let hit = t.get(key.as_bytes(), None).unwrap();
                assert!(
                    hit.entry.is_some(),
                    "{kind:?} lost {key} (examined {})",
                    hit.blocks_examined
                );
            }
        }
    }

    #[test]
    fn learned_index_is_smaller_than_fences() {
        let (_dev, fence_t) = build_table(2000, IndexKind::Fence);
        let (_dev2, pla_t) = build_table(2000, IndexKind::Pla { epsilon: 8 });
        assert!(
            pla_t.index_size_bits() < fence_t.index_size_bits() / 4,
            "pla {} vs fence {}",
            pla_t.index_size_bits(),
            fence_t.index_size_bits()
        );
    }

    #[test]
    fn cache_absorbs_repeat_reads() {
        let (dev, t) = build_table(500, IndexKind::Fence);
        let cache = ShardedCache::new(lsm_cache::CachePolicy::Lru, 1 << 20, 2);
        t.get(b"key000100", Some(&cache)).unwrap();
        let before = dev.stats().snapshot().category(IoCategory::Data).read_blocks;
        for _ in 0..50 {
            t.get(b"key000100", Some(&cache)).unwrap();
        }
        let after = dev.stats().snapshot().category(IoCategory::Data).read_blocks;
        assert_eq!(after, before, "repeat lookups must be cache hits");
        assert!(cache.stats().hits() >= 50);
    }

    #[test]
    fn iterator_scans_in_order() {
        let (_dev, t) = build_table(300, IndexKind::Fence);
        let mut it = t.iter_from(b"key000050", None).unwrap();
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0;
        while let Some(e) = it.next_entry().unwrap() {
            if let Some(p) = &prev {
                assert!(e.key > *p, "order violated");
            }
            assert!(e.key.as_slice() >= b"key000050".as_slice());
            prev = Some(e.key.clone());
            count += 1;
        }
        assert_eq!(count, 250);
    }

    #[test]
    fn iterator_from_before_and_past_end() {
        let (_dev, t) = build_table(50, IndexKind::Fence);
        let mut it = t.iter_from(b"", None).unwrap();
        assert_eq!(it.next_entry().unwrap().unwrap().key, b"key000000".to_vec());
        let mut it = t.iter_from(b"zzz", None).unwrap();
        assert!(it.next_entry().unwrap().is_none());
    }

    #[test]
    fn overlaps_checks_key_range() {
        let (_dev, t) = build_table(100, IndexKind::Fence);
        assert!(t.overlaps(b"key000050", b"key000060"));
        assert!(t.overlaps(b"", b"zzz"));
        assert!(!t.overlaps(b"zzz", b"zzzz"));
        assert!(!t.overlaps(b"a", b"b"));
    }

    #[test]
    fn access_counter_increments() {
        let (_dev, t) = build_table(10, IndexKind::Fence);
        assert_eq!(t.accesses(), 0);
        t.get(b"key000001", None).unwrap();
        let _ = t.iter_from(b"", None).unwrap();
        assert_eq!(t.accesses(), 2);
    }

    /// Builds a 200-key table and returns its device with an on-device
    /// copy of the file in which the byte at offset `at(meta, file)` is
    /// flipped.
    fn corrupted_copy(
        partitioned_filters: bool,
        at: impl Fn(&TableMeta, &ImmutableFile) -> u64,
    ) -> (Arc<MemDevice>, ImmutableFile) {
        let dev: Arc<MemDevice> = Arc::new(MemDevice::new(512, DeviceProfile::free()));
        let dev_dyn: Arc<dyn StorageDevice> = dev.clone();
        let cfg = LsmConfig {
            block_size: 512,
            partitioned_filters,
            ..LsmConfig::small_for_tests()
        };
        let mut b = TableBuilder::new(dev_dyn, &cfg, 10.0).unwrap();
        for i in 0..200 {
            b.add(format!("key{i:06}").as_bytes(), i, ValueKind::Put, b"value")
                .unwrap();
        }
        let (file, meta) = b.finish().unwrap();
        let total = dev.len_blocks(file.id()).unwrap();
        let mut all = dev.read(file.id(), 0, total, IoCategory::Data).unwrap();
        all[at(&meta, &file) as usize] ^= 0xFF;
        let id2 = dev.create().unwrap();
        dev.append(id2, &all, IoCategory::Data).unwrap();
        dev.seal(id2).unwrap();
        let copy = ImmutableFile::open(dev.clone(), id2).unwrap();
        (dev, copy)
    }

    fn corruption_count(dev: &MemDevice) -> u64 {
        dev.stats().snapshot().corruption_detected
    }

    #[test]
    fn corrupted_data_block_surfaces_as_error_not_wrong_data() {
        // flip one byte inside the first data block
        let (dev, corrupt_file) =
            corrupted_copy(false, |meta, _| meta.data_blocks[0].start_block * 512 + 10);
        let table = Table::open(corrupt_file, IndexKind::Fence).unwrap();
        let cache = ShardedCache::new(lsm_cache::CachePolicy::Lru, 1 << 20, 2);
        for _ in 0..2 {
            let err = table.get(b"key000000", Some(&cache));
            assert!(
                matches!(err, Err(lsm_storage::StorageError::Corruption(_))),
                "corruption must surface as an error: {err:?}"
            );
        }
        // each lookup went back to the device: the bad block was never cached
        assert_eq!(cache.stats().hits(), 0);
        assert_eq!(corruption_count(&dev), 2);
    }

    #[test]
    fn corrupted_filter_section_fails_open() {
        // a cleared Bloom bit would be a false negative: a present key
        // silently reading as absent
        let (dev, f) = corrupted_copy(false, |meta, _| {
            meta.filter.start_block * 512 + meta.filter.byte_len / 2
        });
        let err = Table::open(f, IndexKind::Fence).map(|_| ());
        assert!(
            matches!(err, Err(lsm_storage::StorageError::Corruption(_))),
            "a flipped filter byte must fail the open: {err:?}"
        );
        assert_eq!(corruption_count(&dev), 1);
    }

    #[test]
    fn corrupted_filter_partition_fails_the_probe_and_is_never_cached() {
        // the first partition guards the first data block
        let (dev, f) = corrupted_copy(true, |meta, _| {
            meta.filter.start_block * 512 + meta.filter_partitions[0] as u64 / 2
        });
        let table = Table::open(f, IndexKind::Fence).unwrap();
        assert!(table.partitioned_filters());
        let cache = ShardedCache::new(lsm_cache::CachePolicy::Lru, 1 << 20, 2);
        for n in 1..=2 {
            let err = table.get(b"key000000", Some(&cache));
            assert!(
                matches!(err, Err(lsm_storage::StorageError::Corruption(_))),
                "a flipped partition byte must fail the probe: {err:?}"
            );
            assert_eq!(corruption_count(&dev), n);
        }
        assert_eq!(cache.stats().hits(), 0);
        // the other partitions are intact and still serve
        assert!(table.get(b"key000199", Some(&cache)).unwrap().entry.is_some());
    }

    #[test]
    fn corrupted_meta_section_fails_open() {
        // a flipped fence pointer would misroute lookups
        let (dev, f) = corrupted_copy(false, |_, file| {
            let last = file
                .read_blocks(file.len_blocks() - 1, 1, IoCategory::Misc)
                .unwrap();
            let (meta_start, meta_len) = decode_footer(&last).unwrap();
            meta_start * 512 + meta_len / 2
        });
        let err = Table::open(f, IndexKind::Fence).map(|_| ());
        assert!(
            matches!(err, Err(lsm_storage::StorageError::Corruption(_))),
            "a flipped meta byte must fail the open: {err:?}"
        );
        assert_eq!(corruption_count(&dev), 1);
    }

    #[test]
    fn open_rejects_garbage() {
        let dev: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(512, DeviceProfile::free()));
        let mut w = lsm_storage::WritableFile::create(dev.clone(), IoCategory::Data).unwrap();
        w.append(&vec![0xAB; 1024]).unwrap();
        let f = w.seal().unwrap();
        assert!(Table::open(f, IndexKind::Fence).is_err());
    }
}
