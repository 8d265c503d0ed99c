//! File handles over a [`StorageDevice`].
//!
//! [`WritableFile`] writes whole blocks, holding the partial last block in
//! one reused buffer, and seals into an [`ImmutableFile`].
//!
//! A log makes its partial last block durable with
//! [`WritableFile::sync`], which writes it zero-padded and keeps filling
//! it afterwards: the next write of that block replaces it in place
//! ([`StorageDevice::write`] at the file's last block). So a log costs the
//! device about its bytes, not one block per sync.
//!
//! Every device write a [`WritableFile`] makes — the full blocks an
//! append completes, the tail block a sync writes — is one
//! [`StorageDevice::write`] at the block after its last whole one, so under
//! [`crate::FaultDevice`] it takes one I/O ordinal, as each read does; a
//! sync's barrier takes none.

use std::fmt;
use std::sync::Arc;

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
    /// How many of `tail`'s bytes the device holds: after a sync the
    /// device's last block is `tail[..synced]` zero-padded, and the next
    /// write of that block rewrites it. 0 when the device holds no
    /// partial block.
    synced: usize,
    /// Whether a write since the last barrier still needs one.
    unbarriered: bool,
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
            synced: 0,
            unbarriered: false,
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

    /// Byte offset the next append lands at, unless it is the first
    /// append after a sync and reaches the synced block's end (see
    /// [`WritableFile::append`]).
    pub fn offset(&self) -> u64 {
        self.blocks_written * self.device.block_size() as u64 + self.tail.len() as u64
    }

    /// The appended bytes the device does not hold yet: the last ones,
    /// ending at [`WritableFile::offset`].
    pub fn buffered(&self) -> &[u8] {
        &self.tail[self.synced..]
    }

    /// Appends bytes and returns the offset they start at; full blocks
    /// are flushed to the device eagerly. The one append that does not
    /// land at [`WritableFile::offset`]: the first after a sync, if it
    /// would reach the synced block's end, starts at the next block and
    /// leaves the synced block as written. So a group commit (one append,
    /// then a sync) is charged exactly the blocks that padding each sync
    /// to a block boundary would charge, and one smaller than a block
    /// reaches the device only at its sync.
    pub fn append(&mut self, bytes: &[u8]) -> StorageResult<u64> {
        if self.synced > 0
            && self.tail.len() == self.synced
            && self.synced + bytes.len() >= self.device.block_size()
        {
            self.close_synced_block();
        }
        let at = self.offset();
        self.tail.extend_from_slice(bytes);
        self.flush_full_blocks()?;
        Ok(at)
    }

    /// Makes every appended byte durable: writes the partial tail as the
    /// file's zero-padded last block (rewriting the block an earlier sync
    /// wrote, if it is the same one), then issues the device's barrier.
    /// Later appends continue inside that block.
    pub fn sync(&mut self) -> StorageResult<()> {
        if self.tail.len() > self.synced {
            let len = self.tail.len();
            self.tail.resize(self.device.block_size(), 0);
            let written = self.write_blocks(self.tail.len());
            self.tail.truncate(len);
            written?;
            self.synced = len;
        }
        if self.unbarriered {
            self.device.sync(self.id)?;
            self.unbarriered = false;
        }
        Ok(())
    }

    /// Pads the current position to the next block boundary with zeros.
    pub fn pad_to_block(&mut self) -> StorageResult<()> {
        if self.synced > 0 && self.tail.len() == self.synced {
            // the device already holds this block, zero-padded
            self.close_synced_block();
            return Ok(());
        }
        let bs = self.device.block_size();
        let rem = self.tail.len() % bs;
        if rem != 0 {
            self.tail.resize(self.tail.len() + bs - rem, 0);
            self.flush_full_blocks()?;
        }
        Ok(())
    }

    /// Leaves the block a sync wrote as it is on the device: the next
    /// byte goes to the block after it.
    fn close_synced_block(&mut self) {
        self.blocks_written += 1;
        self.tail.clear();
        self.synced = 0;
    }

    /// Writes every whole block of the tail in one device write and keeps
    /// the partial rest.
    fn flush_full_blocks(&mut self) -> StorageResult<()> {
        let bs = self.device.block_size();
        let full = self.tail.len() / bs * bs;
        if full == 0 {
            return Ok(());
        }
        self.write_blocks(full)?;
        self.blocks_written += (full / bs) as u64;
        self.tail.drain(..full);
        self.synced = 0;
        Ok(())
    }

    /// Writes `tail[..len]`, whole blocks, at the tail's place: block
    /// `blocks_written`, which is the block a sync wrote if there is one
    /// (the write replaces it), else the file's end.
    fn write_blocks(&mut self, len: usize) -> StorageResult<()> {
        self.device.write(self.id, self.blocks_written, &self.tail[..len], self.category)?;
        self.unbarriered = true;
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

    /// The writer before fill-in syncs, kept as the model: a sync pads the
    /// tail with zeros to a block boundary, so every sync with bytes to
    /// write costs a fresh block.
    struct PaddingWriter {
        device: Arc<dyn StorageDevice>,
        id: FileId,
        tail: Vec<u8>,
    }

    impl PaddingWriter {
        fn create(device: Arc<dyn StorageDevice>) -> Self {
            let id = device.create().unwrap();
            PaddingWriter { device, id, tail: Vec::new() }
        }

        fn append(&mut self, bytes: &[u8]) {
            self.tail.extend_from_slice(bytes);
            self.flush_full_blocks();
        }

        fn sync(&mut self) {
            let bs = self.device.block_size();
            self.tail.resize(self.tail.len().next_multiple_of(bs), 0);
            self.flush_full_blocks();
        }

        fn flush_full_blocks(&mut self) {
            let full = self.tail.len() / self.device.block_size() * self.device.block_size();
            if full > 0 {
                self.device.append(self.id, &self.tail[..full], IoCategory::Wal).unwrap();
                self.tail.drain(..full);
            }
        }
    }

    fn written(dev: &Arc<dyn StorageDevice>) -> u64 {
        dev.stats().snapshot().total_written_blocks()
    }

    /// Mostly log-record sizes, sometimes up to three blocks.
    fn random_len(rng: &mut rand::rngs::StdRng, bs: usize) -> usize {
        use rand::Rng;
        match rng.gen_range(0..10) {
            0 => rng.gen_range(1..=3 * bs),
            1 | 2 => rng.gen_range(1..=bs),
            _ => rng.gen_range(1..=bs / 8),
        }
    }

    /// A group commit — one append, then a sync — is charged exactly what
    /// padding charged, at every size, while the file keeps no more blocks
    /// than the padded one.
    #[test]
    fn one_append_per_sync_charges_what_padding_charges() {
        use rand::SeedableRng;
        for bs in [512, 4096] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(bs as u64 ^ 0x51);
            let (dev, model_dev) = (mem_with(bs), mem_with(bs));
            let mut w = WritableFile::create(dev.clone(), IoCategory::Wal).unwrap();
            let mut model = PaddingWriter::create(model_dev.clone());
            for group in 0..3000 {
                let bytes = pattern(random_len(&mut rng, bs), group);
                w.append(&bytes).unwrap();
                w.sync().unwrap();
                model.append(&bytes);
                model.sync();
                assert_eq!(written(&dev), written(&model_dev), "group {group} at {bs}-byte blocks");
                assert!(dev.live_blocks() <= model_dev.live_blocks(), "group {group} at {bs}-byte blocks");
            }
            assert!(
                dev.live_blocks() < model_dev.live_blocks(),
                "packed groups need fewer blocks than padded ones"
            );
        }
    }

    /// Any mix of appends and syncs: at most one block more than padding
    /// per sync, never more live blocks, and every append's bytes read
    /// back at the offset it returned, with zeros between.
    #[test]
    fn appends_and_syncs_cost_at_most_one_block_more_per_sync() {
        use rand::{Rng, SeedableRng};
        for bs in [512, 4096] {
            for seed in 0..4u64 {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed * 1000 + bs as u64);
                let (dev, model_dev) = (mem_with(bs), mem_with(bs));
                let mut w = WritableFile::create(dev.clone(), IoCategory::Wal).unwrap();
                let mut model = PaddingWriter::create(model_dev.clone());
                let mut expected = Vec::new();
                let mut syncs = 0;
                for op in 0..1500 {
                    if rng.gen_bool(0.4) {
                        w.sync().unwrap();
                        model.sync();
                        syncs += 1;
                    } else {
                        let bytes = pattern(random_len(&mut rng, bs), op);
                        let at = w.append(&bytes).unwrap() as usize;
                        assert!(at >= expected.len(), "an append never lands before the last one's end");
                        expected.resize(at, 0);
                        expected.extend_from_slice(&bytes);
                        assert_eq!(w.offset() as usize, expected.len());
                        model.append(&bytes);
                    }
                    assert!(written(&dev) <= written(&model_dev) + syncs, "op {op}, seed {seed}, {bs}-byte blocks");
                    assert!(dev.live_blocks() <= model_dev.live_blocks(), "op {op}, seed {seed}, {bs}-byte blocks");
                }
                w.sync().unwrap();
                let len = dev.len_blocks(w.id()).unwrap() as usize * bs;
                let mut got = vec![0u8; len];
                dev.read_into(w.id(), 0, &mut got, IoCategory::Wal).unwrap();
                expected.resize(len, 0);
                assert_eq!(got, expected, "seed {seed}, {bs}-byte blocks");
            }
        }
    }

    /// Bytes appended after a sync are read from the writer until a write
    /// puts them on the device; the device never shows a partial block it
    /// was not given.
    #[test]
    fn buffered_bytes_are_what_the_device_lacks() {
        let dev = mem_with(512);
        let mut w = WritableFile::create(dev.clone(), IoCategory::Wal).unwrap();
        w.append(&[1; 100]).unwrap();
        assert_eq!(w.buffered(), &[1; 100][..]);
        w.sync().unwrap();
        assert!(w.buffered().is_empty());
        assert_eq!(dev.len_blocks(w.id()).unwrap(), 1);
        assert_eq!(w.append(&[2; 50]).unwrap(), 100, "a fitting append continues the synced block");
        assert_eq!(w.buffered(), &[2; 50][..]);
        w.sync().unwrap();
        assert_eq!(dev.len_blocks(w.id()).unwrap(), 1, "the second sync rewrote the block");
        assert_eq!(written(&dev), 2);
        assert_eq!(w.append(&[3; 362]).unwrap(), 512, "an append reaching the block's end starts the next");
        let f = w.seal().unwrap();
        assert_eq!(f.len_blocks(), 2);
        let bytes = f.read_bytes(0, 1024, IoCategory::Wal).unwrap();
        assert_eq!(&bytes[..100], &[1; 100][..]);
        assert_eq!(&bytes[100..150], &[2; 50][..]);
        assert!(bytes[150..512].iter().all(|&b| b == 0));
        assert_eq!(&bytes[512..874], &[3; 362][..]);
    }

    fn mem_with(bs: usize) -> Arc<dyn StorageDevice> {
        Arc::new(MemDevice::new(bs, crate::latency::DeviceProfile::free()))
    }

    /// `len` bytes that differ per `salt`, none of them zero.
    fn pattern(len: usize, salt: usize) -> Vec<u8> {
        (0..len).map(|i| ((i + salt * 31) % 255) as u8 + 1).collect()
    }

    #[test]
    fn file_id_displays_compactly() {
        assert_eq!(FileId(42).to_string(), "f42");
    }
}
