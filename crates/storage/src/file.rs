//! File handles over a [`StorageDevice`].
//!
//! [`WritableFile`] writes whole blocks, holding the partial last block in
//! one reused buffer, and seals into an [`ImmutableFile`]; the registry
//! tracks which files a component owns so obsolete runs can be
//! garbage-collected after compaction.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::block::Block;
use crate::device::StorageDevice;
use crate::error::StorageResult;
use crate::stats::IoCategory;

/// Opaque identifier of a file on a device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u64);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A file being built: appends are buffered and cut into whole blocks.
pub struct WritableFile {
    device: Arc<dyn StorageDevice>,
    id: FileId,
    /// Bytes past the last whole block written. Shorter than a block
    /// between calls; one buffer reused for the file's lifetime, so
    /// appending allocates only while it grows.
    tail: Vec<u8>,
    blocks_written: u64,
    category: IoCategory,
}

impl WritableFile {
    /// Creates a fresh file on `device`; appended bytes are charged to `category`.
    pub fn create(device: Arc<dyn StorageDevice>, category: IoCategory) -> StorageResult<Self> {
        let id = device.create()?;
        Ok(WritableFile {
            device,
            id,
            tail: Vec::new(),
            blocks_written: 0,
            category,
        })
    }

    /// This file's id.
    pub fn id(&self) -> FileId {
        self.id
    }

    /// Changes the category future appends are charged to. Builders call
    /// this at section boundaries (data → filter → index), after padding
    /// to a block boundary so attribution stays exact.
    pub fn set_category(&mut self, category: IoCategory) {
        self.category = category;
    }

    /// Byte offset the next append will land at.
    pub fn offset(&self) -> u64 {
        self.blocks_written * self.device.block_size() as u64 + self.tail.len() as u64
    }

    /// Appends bytes; full blocks are flushed to the device eagerly.
    pub fn append(&mut self, bytes: &[u8]) -> StorageResult<()> {
        self.tail.extend_from_slice(bytes);
        self.flush_full_blocks()
    }

    /// Pads the current position to the next block boundary with zeros.
    pub fn pad_to_block(&mut self) -> StorageResult<()> {
        let bs = self.device.block_size();
        let rem = self.tail.len() % bs;
        if rem != 0 {
            self.tail.resize(self.tail.len() + bs - rem, 0);
            self.flush_full_blocks()?;
        }
        Ok(())
    }

    /// Writes every whole block of the tail in one device append and
    /// keeps the partial rest.
    fn flush_full_blocks(&mut self) -> StorageResult<()> {
        let bs = self.device.block_size();
        let full = self.tail.len() / bs * bs;
        if full == 0 {
            return Ok(());
        }
        self.device.append(self.id, &self.tail[..full], self.category)?;
        self.blocks_written += (full / bs) as u64;
        self.tail.drain(..full);
        Ok(())
    }

    /// Flushes any tail (zero-padded), seals the file, and returns an
    /// immutable handle.
    pub fn seal(mut self) -> StorageResult<ImmutableFile> {
        self.pad_to_block()?;
        debug_assert!(self.tail.is_empty());
        self.device.seal(self.id)?;
        Ok(ImmutableFile {
            device: self.device,
            id: self.id,
            len_blocks: self.blocks_written,
        })
    }
}

/// A sealed, immutable file: whole-block random reads only.
#[derive(Clone)]
pub struct ImmutableFile {
    device: Arc<dyn StorageDevice>,
    id: FileId,
    len_blocks: u64,
}

impl ImmutableFile {
    /// Re-opens an already-sealed file (e.g., after recovery).
    pub fn open(device: Arc<dyn StorageDevice>, id: FileId) -> StorageResult<Self> {
        let len_blocks = device.len_blocks(id)?;
        Ok(ImmutableFile {
            device,
            id,
            len_blocks,
        })
    }

    /// This file's id.
    pub fn id(&self) -> FileId {
        self.id
    }

    /// Length in blocks.
    pub fn len_blocks(&self) -> u64 {
        self.len_blocks
    }

    /// Device block size.
    pub fn block_size(&self) -> usize {
        self.device.block_size()
    }

    /// The device's I/O counters — readers report detected corruption here.
    pub fn stats(&self) -> &crate::stats::IoStats {
        self.device.stats()
    }

    /// Reads `nblocks` blocks starting at block `offset`, charged to `cat`.
    pub fn read_blocks(&self, offset: u64, nblocks: u64, cat: IoCategory) -> StorageResult<Vec<u8>> {
        self.device.read(self.id, offset, nblocks, cat)
    }

    /// Reads the byte range `[offset, offset+len)` by fetching the covering
    /// blocks; convenience for footer/metadata decoding.
    pub fn read_bytes(&self, offset: u64, len: usize, cat: IoCategory) -> StorageResult<Vec<u8>> {
        let mut buf = vec![0u8; len];
        self.read_into(offset, &mut buf, cat)?;
        Ok(buf)
    }

    /// Reads the byte range `[offset, offset+len)` straight into a new
    /// [`Block`]: the range's one copy, into the buffer the block cache
    /// can keep.
    pub fn read_block(&self, offset: u64, len: usize, cat: IoCategory) -> StorageResult<Block> {
        Block::filled(len, |buf| self.read_into(offset, buf, cat))
    }

    /// Fills `buf` from byte `offset`; an empty range reads nothing.
    fn read_into(&self, offset: u64, buf: &mut [u8], cat: IoCategory) -> StorageResult<()> {
        if buf.is_empty() {
            return Ok(());
        }
        self.device.read_into(self.id, offset, buf, cat)
    }

    /// Deletes the underlying file.
    pub fn delete(self) -> StorageResult<()> {
        self.device.delete(self.id)
    }

    /// Deletes the underlying file without consuming the handle — used by
    /// drop-time garbage collection where only `&self` is available.
    /// Subsequent reads through this handle fail with `UnknownFile`.
    pub fn delete_in_place(&self) -> StorageResult<()> {
        self.device.delete(self.id)
    }
}

/// Tracks which files a component owns, so compaction can retire exactly
/// the runs it replaced.
#[derive(Default)]
pub struct FileRegistry {
    owned: Mutex<BTreeSet<FileId>>,
}

impl FileRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers ownership of `id`.
    pub fn register(&self, id: FileId) {
        self.owned.lock().insert(id);
    }

    /// Releases ownership; returns whether it was owned.
    pub fn release(&self, id: FileId) -> bool {
        self.owned.lock().remove(&id)
    }

    /// Whether `id` is currently owned.
    pub fn contains(&self, id: FileId) -> bool {
        self.owned.lock().contains(&id)
    }

    /// Snapshot of all owned ids.
    pub fn all(&self) -> Vec<FileId> {
        self.owned.lock().iter().copied().collect()
    }

    /// Number of owned files.
    pub fn len(&self) -> usize {
        self.owned.lock().len()
    }

    /// Whether no files are owned.
    pub fn is_empty(&self) -> bool {
        self.owned.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;

    fn mem() -> Arc<dyn StorageDevice> {
        Arc::new(MemDevice::default_for_tests())
    }

    #[test]
    fn write_seal_read_roundtrip() {
        let dev = mem();
        let mut w = WritableFile::create(dev.clone(), IoCategory::Data).unwrap();
        assert_eq!(w.offset(), 0);
        w.append(b"hello").unwrap();
        assert_eq!(w.offset(), 5);
        w.append(&vec![7u8; 5000]).unwrap();
        let f = w.seal().unwrap();
        assert_eq!(f.len_blocks(), 2);
        let bytes = f.read_bytes(0, 5, IoCategory::Data).unwrap();
        assert_eq!(&bytes, b"hello");
        let tail = f.read_bytes(5, 5000, IoCategory::Data).unwrap();
        assert_eq!(tail, vec![7u8; 5000]);
    }

    #[test]
    fn eager_flush_of_full_blocks() {
        let dev = mem();
        let mut w = WritableFile::create(dev.clone(), IoCategory::Wal).unwrap();
        w.append(&vec![1u8; 4096 * 3 + 10]).unwrap();
        // three full blocks already on the device before sealing
        assert_eq!(dev.len_blocks(w.id()).unwrap(), 3);
        let f = w.seal().unwrap();
        assert_eq!(f.len_blocks(), 4);
    }

    #[test]
    fn read_bytes_spanning_blocks() {
        let dev = mem();
        let mut w = WritableFile::create(dev.clone(), IoCategory::Data).unwrap();
        let payload: Vec<u8> = (0..10000u32).map(|i| (i % 251) as u8).collect();
        w.append(&payload).unwrap();
        let f = w.seal().unwrap();
        let got = f.read_bytes(4000, 300, IoCategory::Data).unwrap();
        assert_eq!(got, &payload[4000..4300]);
    }

    #[test]
    fn read_bytes_empty_is_free() {
        let dev = mem();
        let w = WritableFile::create(dev.clone(), IoCategory::Data).unwrap();
        let f = w.seal().unwrap();
        let got = f.read_bytes(0, 0, IoCategory::Data).unwrap();
        assert!(got.is_empty());
        assert_eq!(dev.stats().snapshot().total_read_blocks(), 0);
    }

    #[test]
    fn reopen_matches_sealed_length() {
        let dev = mem();
        let mut w = WritableFile::create(dev.clone(), IoCategory::Data).unwrap();
        w.append(&vec![2u8; 9000]).unwrap();
        let f = w.seal().unwrap();
        let id = f.id();
        let re = ImmutableFile::open(dev, id).unwrap();
        assert_eq!(re.len_blocks(), f.len_blocks());
    }

    #[test]
    fn delete_frees_space() {
        let dev = mem();
        let mut w = WritableFile::create(dev.clone(), IoCategory::Data).unwrap();
        w.append(&vec![1u8; 4096]).unwrap();
        let f = w.seal().unwrap();
        assert_eq!(dev.live_blocks(), 1);
        f.delete().unwrap();
        assert_eq!(dev.live_blocks(), 0);
    }

    #[test]
    fn registry_tracks_ownership() {
        let r = FileRegistry::new();
        assert!(r.is_empty());
        r.register(FileId(1));
        r.register(FileId(2));
        assert_eq!(r.len(), 2);
        assert!(r.contains(FileId(1)));
        assert!(r.release(FileId(1)));
        assert!(!r.release(FileId(1)));
        assert_eq!(r.all(), vec![FileId(2)]);
    }

    #[test]
    fn file_id_displays_compactly() {
        assert_eq!(FileId(42).to_string(), "f42");
    }
}
