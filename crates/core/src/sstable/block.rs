//! Data block encoding: restart-point prefix compression (the
//! LevelDB/RocksDB format) plus an optional in-block hash index
//! (tutorial Module II.4's data-block hash index).
//!
//! Layout:
//!
//! ```text
//! entry*: varint shared_key_len | varint unshared_key_len | varint value_len
//!         | varint seqno | u8 kind | unshared_key_bytes | value_bytes
//! [hash index bytes]
//! restart_offset: u32 * num_restarts
//! num_restarts: u32
//! hash_index_len: u32      (0 = no hash index)
//! checksum: u32            (`integrity::checksum32` of everything above)
//! ```
//!
//! The checksum is verified once, on the device read
//! (`Table::read_data_block`'s miss path), before the block can enter the
//! cache; [`BlockIter::new`] verifies too, because it accepts bytes from
//! anywhere.
//!
//! Decoding is zero-copy: [`BlockIter`] is a cursor whose `key()`/`value()`
//! accessors borrow from the block bytes (restart-aligned keys directly;
//! prefix-compressed keys from a scratch buffer that is reused across
//! entries and never clones). Owned [`BlockEntry`]s are produced only at
//! API boundaries via [`EntryRef::to_entry`] / [`BlockIter::next_entry`].

use lsm_index::block_hash::{BlockHashIndex, HashProbe};
use lsm_storage::{StorageError, StorageResult};

use crate::entry::{get_varint, put_varint, ValueKind};
use crate::integrity;

/// Maximum restart ordinal representable in the hash index.
const MAX_HASH_RESTARTS: usize = 250;

/// One decoded block entry (owned). The hot paths work with
/// [`EntryRef`] views instead; this exists for API boundaries that
/// need ownership.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockEntry {
    /// User key.
    pub key: Vec<u8>,
    /// Sequence number.
    pub seqno: u64,
    /// Put or tombstone.
    pub kind: ValueKind,
    /// Value bytes.
    pub value: Vec<u8>,
}

/// Borrowed view of one block entry. `key` and `value` point into the
/// iterator's block (or its scratch buffer) and are valid until the
/// cursor moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryRef<'a> {
    /// User key.
    pub key: &'a [u8],
    /// Sequence number.
    pub seqno: u64,
    /// Put or tombstone.
    pub kind: ValueKind,
    /// Value bytes.
    pub value: &'a [u8],
}

impl EntryRef<'_> {
    /// Copies the view into an owned [`BlockEntry`] — the explicit
    /// allocation point when an entry must outlive the cursor.
    pub fn to_entry(&self) -> BlockEntry {
        BlockEntry {
            key: self.key.to_vec(),
            seqno: self.seqno,
            kind: self.kind,
            value: self.value.to_vec(),
        }
    }
}

/// Keys at most this long rebuild in a fixed inline buffer; the scratch
/// only touches the heap for longer keys.
const KEY_INLINE: usize = 64;

/// Inline-first growable byte buffer for rebuilding prefix-compressed
/// keys. Short keys (the overwhelmingly common case) stay in the inline
/// array, which is what keeps warm point lookups and scans at zero heap
/// allocations.
#[derive(Debug)]
pub(crate) struct KeyBuf {
    inline: [u8; KEY_INLINE],
    ilen: usize,
    heap: Vec<u8>,
    spilled: bool,
}

impl KeyBuf {
    pub(crate) fn new() -> Self {
        KeyBuf {
            inline: [0; KEY_INLINE],
            ilen: 0,
            heap: Vec::new(),
            spilled: false,
        }
    }

    pub(crate) fn clear(&mut self) {
        self.ilen = 0;
        self.heap.clear();
        self.spilled = false;
    }

    pub(crate) fn len(&self) -> usize {
        if self.spilled {
            self.heap.len()
        } else {
            self.ilen
        }
    }

    pub(crate) fn as_slice(&self) -> &[u8] {
        if self.spilled {
            &self.heap
        } else {
            &self.inline[..self.ilen]
        }
    }

    pub(crate) fn truncate(&mut self, n: usize) {
        if self.spilled {
            self.heap.truncate(n);
        } else {
            self.ilen = self.ilen.min(n);
        }
    }

    pub(crate) fn extend_from_slice(&mut self, bytes: &[u8]) {
        if !self.spilled {
            if self.ilen + bytes.len() <= KEY_INLINE {
                self.inline[self.ilen..self.ilen + bytes.len()].copy_from_slice(bytes);
                self.ilen += bytes.len();
                return;
            }
            // spill: move the inline prefix to the heap once, keep growing there
            self.heap.clear();
            self.heap.extend_from_slice(&self.inline[..self.ilen]);
            self.spilled = true;
        }
        self.heap.extend_from_slice(bytes);
    }
}

/// Keys laid end to end in one buffer: a growing list of keys that costs
/// two amortized buffers, not one allocation per key.
#[derive(Debug, Default)]
pub(crate) struct KeyList {
    bytes: Vec<u8>,
    /// End offset of each key in `bytes`.
    ends: Vec<usize>,
}

impl KeyList {
    pub(crate) fn push(&mut self, key: &[u8]) {
        self.bytes.extend_from_slice(key);
        self.ends.push(self.bytes.len());
    }

    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    /// The keys, in push order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u8]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let key = &self.bytes[start..end];
            start = end;
            key
        })
    }
}

/// Builds one prefix-compressed data block.
///
/// Every buffer is reused from block to block, so once the first block
/// has grown them, adding entries and sealing blocks allocates nothing.
pub struct BlockBuilder {
    buf: Vec<u8>,
    restarts: Vec<u32>,
    restart_interval: usize,
    count_since_restart: usize,
    last_key: Vec<u8>,
    num_entries: usize,
    /// Each entry's key and restart ordinal, for the hash index.
    hash_keys: KeyList,
    hash_ordinals: Vec<u8>,
    with_hash_index: bool,
}

impl BlockBuilder {
    /// New builder; `restart_interval` entries share each restart point.
    pub fn new(restart_interval: usize, with_hash_index: bool) -> Self {
        BlockBuilder {
            buf: Vec::new(),
            restarts: vec![0],
            restart_interval: restart_interval.max(1),
            count_since_restart: 0,
            last_key: Vec::new(),
            num_entries: 0,
            hash_keys: KeyList::default(),
            hash_ordinals: Vec::new(),
            with_hash_index,
        }
    }

    /// Appends an entry; keys must arrive in ascending order.
    pub fn add(&mut self, key: &[u8], seqno: u64, kind: ValueKind, value: &[u8]) {
        debug_assert!(
            self.num_entries == 0 || key > self.last_key.as_slice(),
            "keys must be added in strictly ascending order"
        );
        let shared = if self.count_since_restart >= self.restart_interval {
            self.restarts.push(self.buf.len() as u32);
            self.count_since_restart = 0;
            0
        } else {
            key.iter()
                .zip(self.last_key.iter())
                .take_while(|(a, b)| a == b)
                .count()
        };
        put_varint(&mut self.buf, shared as u64);
        put_varint(&mut self.buf, (key.len() - shared) as u64);
        put_varint(&mut self.buf, value.len() as u64);
        put_varint(&mut self.buf, seqno);
        self.buf.push(kind.to_u8());
        self.buf.extend_from_slice(&key[shared..]);
        self.buf.extend_from_slice(value);
        if self.with_hash_index {
            let ordinal = (self.restarts.len() - 1).min(255) as u8;
            self.hash_keys.push(key);
            self.hash_ordinals.push(ordinal);
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.count_since_restart += 1;
        self.num_entries += 1;
    }

    /// Current encoded size estimate, including the trailer.
    pub fn estimated_size(&self) -> usize {
        self.buf.len() + self.restarts.len() * 4 + 12 + if self.with_hash_index {
            self.hash_ordinals.len() * 2
        } else {
            0
        }
    }

    /// Number of entries added.
    pub fn num_entries(&self) -> usize {
        self.num_entries
    }

    /// Whether nothing was added.
    pub fn is_empty(&self) -> bool {
        self.num_entries == 0
    }

    /// The last (largest) key added.
    pub fn last_key(&self) -> &[u8] {
        &self.last_key
    }

    /// Finishes the block, returning its bytes and resetting the builder.
    pub fn finish(&mut self) -> Vec<u8> {
        self.finish_with(<[u8]>::to_vec)
    }

    /// Seals the block in the builder's own buffer, hands its bytes to
    /// `f`, then resets the builder with every buffer kept: the
    /// allocation-free form of [`BlockBuilder::finish`].
    pub(crate) fn finish_with<R>(&mut self, f: impl FnOnce(&[u8]) -> R) -> R {
        // hash index (skipped when too many restarts for u8 ordinals)
        let hash_len = if self.with_hash_index
            && !self.hash_ordinals.is_empty()
            && self.restarts.len() <= MAX_HASH_RESTARTS
        {
            let entries = self.hash_keys.iter().zip(self.hash_ordinals.iter().copied());
            let index = BlockHashIndex::build(entries, self.hash_ordinals.len(), 0.75).to_bytes();
            self.buf.extend_from_slice(&index);
            index.len()
        } else {
            0
        };
        for r in &self.restarts {
            self.buf.extend_from_slice(&r.to_le_bytes());
        }
        self.buf.extend_from_slice(&(self.restarts.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&(hash_len as u32).to_le_bytes());
        integrity::seal(&mut self.buf);
        let out = f(&self.buf);
        self.buf.clear();
        self.restarts.clear();
        self.restarts.push(0);
        self.count_since_restart = 0;
        self.last_key.clear();
        self.num_entries = 0;
        self.hash_keys.clear();
        self.hash_ordinals.clear();
        out
    }
}

/// Where the cursor's current key lives.
#[derive(Clone, Copy, Debug)]
enum KeyLoc {
    /// Borrowed from the block bytes (restart-aligned entry, `shared == 0`).
    Direct { start: usize, len: usize },
    /// Rebuilt in the reusable scratch buffer.
    Scratch,
}

/// Cursor over a decoded block. Generic over the backing storage so it
/// can borrow a slice (tests, merges) or own a cached block (table
/// scans — cloning a [`lsm_storage::Block`] is a refcount bump).
///
/// Opening the cursor allocates nothing: restart offsets are read from
/// the trailer bytes on demand, and the key scratch buffer is inline
/// for keys up to 64 bytes. Use [`BlockIter::advance`]/[`BlockIter::seek`]
/// to position, then `key()`/`value()`/`current()` to view the entry
/// without copying.
pub struct BlockIter<D: AsRef<[u8]>> {
    entries_end: usize,
    data: D,
    /// Byte offset of the restart-offset array in `data`.
    restarts_off: usize,
    num_restarts: usize,
    /// Byte range of the serialized hash index (empty = none); probed
    /// zero-copy, so opening an iterator never allocates for it.
    hash_range: std::ops::Range<usize>,
    /// Byte offset of the next entry to decode.
    offset: usize,
    key_loc: KeyLoc,
    scratch: KeyBuf,
    val_start: usize,
    val_len: usize,
    seqno: u64,
    kind: ValueKind,
    valid: bool,
}

impl<D: AsRef<[u8]>> BlockIter<D> {
    /// Verifies and parses a block produced by [`BlockBuilder::finish`].
    /// `None` if any bit of it differs from what the builder sealed.
    pub fn new(data: D) -> Option<Self> {
        // integrity first: a corrupt block must never decode silently
        integrity::unseal(data.as_ref())?;
        Self::from_verified(data)
    }

    /// Parses a block without re-hashing it. The one condition on the
    /// caller: `data` came from `Table::read_data_block`, which verified
    /// the checksum when the bytes left the device (a cached block was
    /// verified before it was admitted).
    pub(crate) fn from_verified(data: D) -> Option<Self> {
        let (entries_end, restarts_off, num_restarts, hash_range) = {
            let d = data.as_ref();
            if d.len() < 16 {
                return None;
            }
            let d = &d[..d.len() - 4];
            let hash_len = u32::from_le_bytes(d[d.len() - 4..].try_into().ok()?) as usize;
            let n_restarts =
                u32::from_le_bytes(d[d.len() - 8..d.len() - 4].try_into().ok()?) as usize;
            let restarts_off = d.len().checked_sub(8 + n_restarts * 4)?;
            let hash_off = restarts_off.checked_sub(hash_len)?;
            (hash_off, restarts_off, n_restarts, hash_off..hash_off + hash_len)
        };
        Some(BlockIter {
            entries_end,
            data,
            restarts_off,
            num_restarts,
            hash_range,
            offset: 0,
            key_loc: KeyLoc::Scratch,
            scratch: KeyBuf::new(),
            val_start: 0,
            val_len: 0,
            seqno: 0,
            kind: ValueKind::Put,
            valid: false,
        })
    }

    /// Positions before the first entry; the next [`BlockIter::advance`]
    /// lands on it.
    pub fn seek_to_first(&mut self) {
        self.offset = 0;
        self.scratch.clear();
        self.key_loc = KeyLoc::Scratch;
        self.valid = false;
    }

    /// Whether the cursor currently points at an entry.
    pub fn valid(&self) -> bool {
        self.valid
    }

    /// Current key; valid until the cursor moves.
    pub fn key(&self) -> &[u8] {
        debug_assert!(self.valid, "key() on an invalid cursor");
        match self.key_loc {
            KeyLoc::Direct { start, len } => &self.data.as_ref()[start..start + len],
            KeyLoc::Scratch => self.scratch.as_slice(),
        }
    }

    /// Current value, borrowed from the block bytes.
    pub fn value(&self) -> &[u8] {
        debug_assert!(self.valid, "value() on an invalid cursor");
        &self.data.as_ref()[self.val_start..self.val_start + self.val_len]
    }

    /// Current sequence number.
    pub fn seqno(&self) -> u64 {
        debug_assert!(self.valid, "seqno() on an invalid cursor");
        self.seqno
    }

    /// Current entry kind.
    pub fn kind(&self) -> ValueKind {
        debug_assert!(self.valid, "kind() on an invalid cursor");
        self.kind
    }

    /// Borrowed view of the current entry.
    pub fn current(&self) -> EntryRef<'_> {
        EntryRef {
            key: self.key(),
            seqno: self.seqno,
            kind: self.kind,
            value: self.value(),
        }
    }

    /// Moves to the next entry. `Ok(false)` means the entries are cleanly
    /// exhausted (the cursor is no longer valid); `Err(Corruption)` means
    /// the bytes at the current offset do not decode. The block's checksum
    /// verified when it was read from the device, so this is a writer bug
    /// or memory corrupted since (a cached block is not re-hashed on a
    /// hit).
    pub fn advance(&mut self) -> StorageResult<bool> {
        if self.offset >= self.entries_end {
            self.valid = false;
            return Ok(false);
        }
        let at = self.offset;
        if self.decode_current().is_none() {
            self.valid = false;
            return Err(StorageError::Corruption(format!(
                "undecodable block entry at byte {at}"
            )));
        }
        Ok(true)
    }

    /// Decodes the entry at `self.offset` into the cursor state. `None`
    /// on malformed bytes.
    fn decode_current(&mut self) -> Option<()> {
        let base = self.offset;
        let d = &self.data.as_ref()[base..self.entries_end];
        let mut at = 0usize;
        let (shared, n) = get_varint(&d[at..])?;
        at += n;
        let (unshared, n) = get_varint(&d[at..])?;
        at += n;
        let (vlen, n) = get_varint(&d[at..])?;
        at += n;
        let (seqno, n) = get_varint(&d[at..])?;
        at += n;
        let kind = ValueKind::from_u8(*d.get(at)?)?;
        at += 1;
        let (shared, unshared, vlen) = (shared as usize, unshared as usize, vlen as usize);
        let cur_key_len = match self.key_loc {
            KeyLoc::Direct { len, .. } => len,
            KeyLoc::Scratch => self.scratch.len(),
        };
        if shared > cur_key_len || at + unshared + vlen > d.len() {
            return None;
        }
        if shared == 0 {
            // restart-aligned: the full key sits in the block — borrow it
            self.key_loc = KeyLoc::Direct {
                start: base + at,
                len: unshared,
            };
        } else {
            if let KeyLoc::Direct { start, .. } = self.key_loc {
                // previous key was borrowed: seed the scratch with its prefix
                self.scratch.truncate(0);
                let prefix = &self.data.as_ref()[start..start + shared];
                self.scratch.extend_from_slice(prefix);
            } else {
                self.scratch.truncate(shared);
            }
            self.scratch.extend_from_slice(&d[at..at + unshared]);
            self.key_loc = KeyLoc::Scratch;
        }
        at += unshared;
        self.val_start = base + at;
        self.val_len = vlen;
        self.seqno = seqno;
        self.kind = kind;
        self.offset = base + at + vlen;
        self.valid = true;
        Some(())
    }

    /// Decodes the entry at the current offset and advances. `None` when
    /// the entries are exhausted or the block is corrupt. Use
    /// [`BlockIter::try_next_entry`] where the two must be distinguished.
    pub fn next_entry(&mut self) -> Option<BlockEntry> {
        self.try_next_entry().ok().flatten()
    }

    /// Owned-entry variant of [`BlockIter::advance`]: `Ok(None)` means the
    /// entries are cleanly exhausted, `Err(Corruption)` means undecodable
    /// bytes.
    pub fn try_next_entry(&mut self) -> StorageResult<Option<BlockEntry>> {
        Ok(if self.advance()? {
            Some(self.current().to_entry())
        } else {
            None
        })
    }

    /// Restart offset at ordinal `r`, read from the trailer on demand.
    fn restart_off(&self, r: usize) -> usize {
        let off = self.restarts_off + r * 4;
        let d = self.data.as_ref();
        u32::from_le_bytes(d[off..off + 4].try_into().unwrap()) as usize
    }

    /// Restart-point full key at ordinal `r`, borrowed from the block
    /// (restart entries always have `shared == 0`).
    fn restart_key(&self, r: usize) -> Option<&[u8]> {
        let off = self.restart_off(r);
        let d = self.data.as_ref().get(off..self.entries_end)?;
        let mut at = 0usize;
        let (_shared, n) = get_varint(&d[at..])?;
        at += n;
        let (unshared, n) = get_varint(&d[at..])?;
        at += n;
        let (_vlen, n) = get_varint(&d[at..])?;
        at += n;
        let (_seq, n) = get_varint(&d[at..])?;
        at += n;
        at += 1; // kind
        d.get(at..at + unshared as usize)
    }

    fn seek_to_restart(&mut self, r: usize) {
        self.offset = self.restart_off(r);
        self.scratch.clear();
        self.key_loc = KeyLoc::Scratch;
        self.valid = false;
    }

    /// Positions at the first entry with key ≥ `target`. Returns whether
    /// such an entry exists; on `true` the cursor is valid and points at
    /// it.
    pub fn seek(&mut self, target: &[u8]) -> StorageResult<bool> {
        if self.num_restarts == 0 {
            self.valid = false;
            return Ok(false);
        }
        // binary search over restart points: last restart whose key ≤ target
        let (mut lo, mut hi) = (0usize, self.num_restarts);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            match self.restart_key(mid) {
                Some(k) if k <= target => lo = mid,
                _ => hi = mid,
            }
        }
        self.seek_to_restart(lo);
        while self.advance()? {
            if self.key() >= target {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Point lookup using the hash index when available: O(1) restart
    /// location instead of binary search. Returns `(found, used_hash)`;
    /// on `found` the cursor points at the matching entry.
    pub fn get(&mut self, target: &[u8]) -> StorageResult<(bool, bool)> {
        if !self.hash_range.is_empty() {
            let probe = BlockHashIndex::probe_raw(
                &self.data.as_ref()[self.hash_range.clone()],
                target,
            )
            .unwrap_or(HashProbe::Fallback);
            match probe {
                HashProbe::Absent => {
                    self.valid = false;
                    return Ok((false, true));
                }
                HashProbe::Restart(r) if (r as usize) < self.num_restarts => {
                    self.seek_to_restart(r as usize);
                    while self.advance()? {
                        if self.key() == target {
                            return Ok((true, true));
                        }
                        if self.key() > target {
                            self.valid = false;
                            return Ok((false, true));
                        }
                    }
                    return Ok((false, true));
                }
                _ => {} // collision or corrupt ordinal: fall back
            }
        }
        let found = self.seek(target)? && self.key() == target;
        if !found {
            self.valid = false;
        }
        Ok((found, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_block(n: usize, interval: usize, hash: bool) -> Vec<u8> {
        let mut b = BlockBuilder::new(interval, hash);
        for i in 0..n {
            let key = format!("key{i:05}");
            let value = format!("value-{i}");
            b.add(key.as_bytes(), i as u64, ValueKind::Put, value.as_bytes());
        }
        b.finish()
    }

    #[test]
    fn roundtrip_all_entries() {
        let data = build_block(100, 16, false);
        let mut it = BlockIter::new(&data).unwrap();
        it.seek_to_first();
        for i in 0..100 {
            let e = it.next_entry().unwrap();
            assert_eq!(e.key, format!("key{i:05}").into_bytes());
            assert_eq!(e.value, format!("value-{i}").into_bytes());
            assert_eq!(e.seqno, i as u64);
            assert_eq!(e.kind, ValueKind::Put);
        }
        assert!(it.next_entry().is_none());
    }

    #[test]
    fn cursor_roundtrip_matches_owned() {
        let data = build_block(100, 16, true);
        let mut owned = BlockIter::new(&data).unwrap();
        let mut cursor = BlockIter::new(&data).unwrap();
        loop {
            let o = owned.try_next_entry().unwrap();
            let c = cursor.advance().unwrap();
            match (o, c) {
                (Some(e), true) => {
                    assert_eq!(e.key.as_slice(), cursor.key());
                    assert_eq!(e.value.as_slice(), cursor.value());
                    assert_eq!(e.seqno, cursor.seqno());
                    assert_eq!(e.kind, cursor.kind());
                }
                (None, false) => break,
                (o, c) => panic!("owned={o:?} cursor_valid={c}"),
            }
        }
    }

    #[test]
    fn seek_finds_exact_and_successor() {
        let data = build_block(100, 8, false);
        let mut it = BlockIter::new(&data).unwrap();
        assert!(it.seek(b"key00050").unwrap());
        assert_eq!(it.key(), b"key00050");
        assert!(it.seek(b"key00050x").unwrap());
        assert_eq!(it.key(), b"key00051");
        assert!(it.seek(b"").unwrap());
        assert_eq!(it.key(), b"key00000");
        assert!(!it.seek(b"zzz").unwrap());
    }

    #[test]
    fn seek_then_next_continues() {
        let data = build_block(50, 4, false);
        let mut it = BlockIter::new(&data).unwrap();
        assert!(it.seek(b"key00030").unwrap());
        let e = it.next_entry().unwrap();
        assert_eq!(e.key, b"key00031".to_vec());
    }

    #[test]
    fn get_with_hash_index() {
        let data = build_block(100, 8, true);
        let mut it = BlockIter::new(&data).unwrap();
        // every present key must be found; most (all but hash collisions)
        // through the hash path
        let mut hash_hits = 0;
        for i in 0..100 {
            let key = format!("key{i:05}");
            let (found, used_hash) = it.get(key.as_bytes()).unwrap();
            assert!(found);
            assert_eq!(it.value(), format!("value-{i}").as_bytes());
            if used_hash {
                hash_hits += 1;
            }
        }
        assert!(hash_hits > 50, "only {hash_hits} hash-path hits");
        let (found, _) = it.get(b"key99999").unwrap();
        assert!(!found);
    }

    #[test]
    fn get_without_hash_index() {
        let data = build_block(100, 8, false);
        let mut it = BlockIter::new(&data).unwrap();
        let (found, used_hash) = it.get(b"key00042").unwrap();
        assert!(found);
        assert_eq!(it.value(), b"value-42");
        assert!(!used_hash);
    }

    #[test]
    fn restart_interval_one_disables_sharing() {
        let data1 = build_block(50, 1, false);
        let data16 = build_block(50, 16, false);
        // interval 1 stores full keys: bigger
        assert!(data1.len() > data16.len());
        // both decode identically, via the fallible path so corruption
        // would surface as a typed error rather than a panic
        let mut a = BlockIter::new(&data1).unwrap();
        let mut b = BlockIter::new(&data16).unwrap();
        loop {
            match (a.try_next_entry().unwrap(), b.try_next_entry().unwrap()) {
                (Some(x), Some(y)) => assert_eq!(x, y),
                (None, None) => break,
                (x, y) => assert_eq!(x, y, "iterators must exhaust together"),
            }
        }
    }

    #[test]
    fn undecodable_entry_is_a_typed_error() {
        // craft a block whose trailer and checksum are valid but whose
        // entry bytes are varint garbage: the whole-block checksum passes,
        // so the corruption must surface at decode time as a typed error
        let mut data = vec![0xFFu8; 8];
        data.extend_from_slice(&0u32.to_le_bytes()); // restart offset
        data.extend_from_slice(&1u32.to_le_bytes()); // num_restarts
        data.extend_from_slice(&0u32.to_le_bytes()); // hash_index_len
        integrity::seal(&mut data);
        let mut it = BlockIter::new(data.as_slice()).unwrap();
        match it.try_next_entry() {
            Err(StorageError::Corruption(msg)) => assert!(msg.contains("undecodable"), "{msg}"),
            other => panic!("expected Corruption, got {other:?}"),
        }
        // the lossy path maps the same corruption to exhaustion
        it.seek_to_first();
        assert!(it.next_entry().is_none());
    }

    #[test]
    fn tombstones_roundtrip() {
        let mut b = BlockBuilder::new(4, false);
        b.add(b"a", 1, ValueKind::Put, b"v");
        b.add(b"b", 2, ValueKind::Delete, b"");
        let data = b.finish();
        let mut it = BlockIter::new(&data).unwrap();
        it.next_entry().unwrap();
        let t = it.next_entry().unwrap();
        assert_eq!(t.kind, ValueKind::Delete);
    }

    #[test]
    fn builder_resets_after_finish() {
        let mut b = BlockBuilder::new(4, false);
        b.add(b"x", 1, ValueKind::Put, b"1");
        let first = b.finish();
        assert!(b.is_empty());
        b.add(b"a", 2, ValueKind::Put, b"2");
        let second = b.finish();
        let mut it = BlockIter::new(&second).unwrap();
        assert_eq!(it.next_entry().unwrap().key, b"a".to_vec());
        let mut it1 = BlockIter::new(&first).unwrap();
        assert_eq!(it1.next_entry().unwrap().key, b"x".to_vec());
    }

    #[test]
    fn corrupt_blocks_are_rejected_not_panicking() {
        assert!(BlockIter::new(&[]).is_none());
        assert!(BlockIter::new(&[0u8; 4]).is_none());
        let data = build_block(10, 4, false);
        // truncation breaks the checksum
        let mut trunc = data.clone();
        trunc.truncate(data.len() - 1);
        assert!(BlockIter::new(trunc.as_slice()).is_none());
    }

    #[test]
    fn single_bit_flips_are_detected_anywhere() {
        // a full 4 KiB block, every one of its 8·len bits
        let mut b = BlockBuilder::new(16, true);
        let mut i = 0u64;
        while b.estimated_size() < 4096 - 64 {
            b.add(format!("key{i:08}").as_bytes(), i, ValueKind::Put, &[i as u8; 100]);
            i += 1;
        }
        let mut data = b.finish();
        assert!(data.len() > 3900, "not a full block: {} bytes", data.len());
        assert!(BlockIter::new(data.as_slice()).is_some());
        for bit in 0..data.len() * 8 {
            data[bit / 8] ^= 1 << (bit % 8);
            assert!(
                BlockIter::new(data.as_slice()).is_none(),
                "flip of bit {bit} undetected"
            );
            data[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn estimated_size_tracks_actual() {
        let mut b = BlockBuilder::new(8, false);
        for i in 0..20 {
            b.add(format!("k{i:03}").as_bytes(), i, ValueKind::Put, b"vvvv");
        }
        let est = b.estimated_size();
        let actual = b.finish().len();
        assert!((est as i64 - actual as i64).unsigned_abs() < 32, "{est} vs {actual}");
    }

    #[test]
    fn single_entry_block() {
        let mut b = BlockBuilder::new(16, true);
        b.add(b"only", 7, ValueKind::Put, b"value");
        let data = b.finish();
        let mut it = BlockIter::new(&data).unwrap();
        let (found, _) = it.get(b"only").unwrap();
        assert!(found);
        assert_eq!(it.seqno(), 7);
    }

    #[test]
    fn binary_keys_with_zero_bytes() {
        let mut b = BlockBuilder::new(4, false);
        b.add(&[0, 0, 1], 1, ValueKind::Put, &[0xFF, 0x00]);
        b.add(&[0, 1, 0], 2, ValueKind::Put, &[]);
        let data = b.finish();
        let mut it = BlockIter::new(&data).unwrap();
        assert!(it.seek(&[0, 0, 1]).unwrap());
        assert_eq!(it.value(), &[0xFF, 0x00]);
    }

    #[test]
    fn long_keys_spill_scratch_to_heap() {
        // keys longer than the inline scratch exercise the heap spill path
        let mut b = BlockBuilder::new(4, false);
        let prefix = "p".repeat(100);
        let mut keys = Vec::new();
        for i in 0..20 {
            keys.push(format!("{prefix}{i:04}"));
        }
        for (i, k) in keys.iter().enumerate() {
            b.add(k.as_bytes(), i as u64, ValueKind::Put, b"v");
        }
        let data = b.finish();
        let mut it = BlockIter::new(&data).unwrap();
        for k in &keys {
            assert!(it.advance().unwrap());
            assert_eq!(it.key(), k.as_bytes());
        }
        assert!(!it.advance().unwrap());
        // and seek still works on long keys
        assert!(it.seek(keys[13].as_bytes()).unwrap());
        assert_eq!(it.key(), keys[13].as_bytes());
    }

    #[test]
    fn keybuf_inline_and_spill() {
        let mut k = KeyBuf::new();
        k.extend_from_slice(b"abc");
        assert_eq!(k.as_slice(), b"abc");
        k.truncate(2);
        assert_eq!(k.as_slice(), b"ab");
        k.extend_from_slice(&[b'x'; 100]);
        assert_eq!(k.len(), 102);
        assert_eq!(&k.as_slice()[..2], b"ab");
        k.truncate(3);
        assert_eq!(&k.as_slice()[..2], b"ab");
        k.truncate(0);
        k.extend_from_slice(b"fresh");
        assert_eq!(k.as_slice(), b"fresh");
        k.clear();
        assert_eq!(k.len(), 0);
    }
}
