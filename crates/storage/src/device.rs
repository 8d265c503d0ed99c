//! Storage devices: where immutable LSM files live.
//!
//! A device hands out numbered files, accepts whole-block writes at a
//! file's end or over its last block (for a log that synced a partial
//! one) until the file is sealed, and serves whole-block reads. Every
//! call is charged to the shared [`IoStats`] and [`LatencyModel`], with an
//! [`IoCategory`] chosen by the caller — an SSTable mixes data, filter,
//! and index blocks within one file, so attribution must be per-access,
//! not per-file.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::error::{StorageError, StorageResult};
use crate::file::FileId;
use crate::latency::{DeviceProfile, LatencyModel};
use crate::stats::{IoCategory, IoStats};

/// A block-granular storage device.
///
/// Implementations must be thread-safe; the engine issues reads from query
/// threads concurrently with compaction writes.
pub trait StorageDevice: Send + Sync {
    /// Block size in bytes; all reads and writes are multiples of this.
    fn block_size(&self) -> usize;

    /// Shared I/O counters.
    fn stats(&self) -> &IoStats;

    /// Shared latency model / simulated clock.
    fn latency(&self) -> &LatencyModel;

    /// Creates a new empty, writable file.
    fn create(&self) -> StorageResult<FileId>;

    /// The one write primitive: writes `data`, a whole number of blocks,
    /// to an unsealed file at block `at`, which is the file's end (the
    /// write extends it) or its last block (the write's first block
    /// replaces that one, and the rest extends the file: how a log that
    /// wrote a partial block at a sync fills that block in later). Any
    /// other offset is [`StorageError::OutOfBounds`] and writes nothing.
    /// Charged `data.len() / block_size` written blocks either way.
    fn write(&self, file: FileId, at: u64, data: &[u8], cat: IoCategory) -> StorageResult<()>;

    /// Writes `data` at the end of `file` (a wrapper over
    /// [`StorageDevice::write`]).
    fn append(&self, file: FileId, data: &[u8], cat: IoCategory) -> StorageResult<()> {
        let at = self.len_blocks(file)?;
        self.write(file, at, data, cat)
    }

    /// Durability barrier: returns once every completed write to `file`
    /// would survive a power loss, not only a process crash. Charged no
    /// I/O.
    fn sync(&self, file: FileId) -> StorageResult<()>;

    /// Seals a file; it becomes immutable.
    fn seal(&self, file: FileId) -> StorageResult<()>;

    /// The one read primitive: copies bytes `[at, at + buf.len())` of
    /// `file` into `buf`. The device reads, and charges to `cat`, every
    /// whole block those bytes touch, so a caller that wants a block's
    /// first `n` bytes passes a buffer of `n` and copies nothing it would
    /// drop.
    fn read_into(&self, file: FileId, at: u64, buf: &mut [u8], cat: IoCategory)
        -> StorageResult<()>;

    /// Reads `nblocks` whole blocks starting at block `offset` into a new
    /// buffer (a wrapper over [`StorageDevice::read_into`]).
    fn read(&self, file: FileId, offset: u64, nblocks: u64, cat: IoCategory)
        -> StorageResult<Vec<u8>> {
        let bs = self.block_size();
        let mut buf = vec![0u8; nblocks as usize * bs];
        self.read_into(file, offset * bs as u64, &mut buf, cat)?;
        Ok(buf)
    }

    /// Length of a file in blocks.
    fn len_blocks(&self, file: FileId) -> StorageResult<u64>;

    /// Deletes a file; subsequent access fails with `UnknownFile`.
    fn delete(&self, file: FileId) -> StorageResult<()>;

    /// Ids of all live (non-deleted) files.
    fn live_files(&self) -> Vec<FileId>;

    /// Total blocks occupied by live files — the numerator of space
    /// amplification.
    fn live_blocks(&self) -> u64;
}

/// The whole blocks a read of `len` bytes at byte `at` touches, as
/// `(first block, block count)`: what a device reads and charges for it.
pub(crate) fn covering(at: u64, len: usize, block_size: usize) -> (u64, u64) {
    let bs = block_size as u64;
    let first = at / bs;
    if len == 0 {
        return (first, 0);
    }
    (first, (at + len as u64 - 1) / bs + 1 - first)
}

/// Checks that `buf.len()` bytes at `at` lie inside a file of `len`
/// blocks; returns the block count the read is charged.
fn check_in_bounds(file: FileId, at: u64, buf: &[u8], block_size: usize, len: u64) -> StorageResult<u64> {
    let (offset, blocks) = covering(at, buf.len(), block_size);
    if offset + blocks > len {
        return Err(StorageError::OutOfBounds {
            file: file.0,
            offset,
            blocks,
            len,
        });
    }
    Ok(blocks)
}

/// Checks a [`StorageDevice::write`] of `data_len` bytes at block `at` of
/// a file of `len` blocks: whole blocks, at the file's end or over its
/// last block (with at least one block to put there). Returns the block
/// count the write is charged.
fn check_write(file: FileId, at: u64, data_len: usize, block_size: usize, len: u64) -> StorageResult<u64> {
    if !data_len.is_multiple_of(block_size) {
        return Err(StorageError::Corruption(format!(
            "write of {data_len} bytes is not a whole number of {block_size}-byte blocks"
        )));
    }
    let blocks = (data_len / block_size) as u64;
    if at != len && (at + 1 != len || blocks == 0) {
        return Err(StorageError::OutOfBounds { file: file.0, offset: at, blocks, len });
    }
    Ok(blocks)
}

// ---------------------------------------------------------------------------
// In-memory device
// ---------------------------------------------------------------------------

/// Target size of one [`MemDevice`] extent: below glibc's default mmap
/// threshold (128 KiB), so a deleted file's extents go back to the heap
/// and the next file reuses them instead of mapping and faulting in fresh
/// pages.
const EXTENT_TARGET_BYTES: usize = 64 << 10;

/// An in-memory file: a list of extents of whole blocks. Every extent but
/// the last holds exactly `extent_bytes` and is never moved, so an append
/// copies only its own bytes and a file never holds more than its bytes
/// plus one extent.
#[derive(Default)]
struct MemFile {
    extents: Vec<Vec<u8>>,
    sealed: bool,
}

impl MemFile {
    fn len(&self, extent_bytes: usize) -> usize {
        self.extents
            .last()
            .map_or(0, |last| (self.extents.len() - 1) * extent_bytes + last.len())
    }

    /// The first extent starts at the first append's size and doubles up
    /// to `extent_bytes`, so a one-block file costs one block; every later
    /// extent is allocated whole.
    fn append(&mut self, mut data: &[u8], extent_bytes: usize) {
        while !data.is_empty() {
            if self.extents.last().is_none_or(|last| last.len() == extent_bytes) {
                let cap = if self.extents.is_empty() { data.len().min(extent_bytes) } else { extent_bytes };
                self.extents.push(Vec::with_capacity(cap));
            }
            let last = self.extents.last_mut().expect("an extent with room was pushed above");
            let n = data.len().min(extent_bytes - last.len());
            if last.capacity() - last.len() < n {
                let grown = (2 * last.capacity()).max(last.len() + n).min(extent_bytes);
                last.reserve_exact(grown - last.len());
            }
            last.extend_from_slice(&data[..n]);
            data = &data[n..];
        }
    }

    /// Writes `data` at byte `at`, which the caller has checked is the
    /// file's end or the start of its last block: overwrites that block in
    /// place (it lies whole in the last extent), then appends the rest.
    fn write(&mut self, at: usize, data: &[u8], extent_bytes: usize) {
        let (over, rest) = data.split_at(self.len(extent_bytes) - at);
        if !over.is_empty() {
            let last = self.extents.last_mut().expect("a file with a last block has an extent");
            let n = last.len();
            last[n - over.len()..].copy_from_slice(over);
        }
        self.append(rest, extent_bytes);
    }

    /// Copies bytes `[at, at + buf.len())`, which the caller has bounds
    /// checked, from the one or more extents they span.
    fn read_into(&self, at: usize, buf: &mut [u8], extent_bytes: usize) {
        let mut done = 0;
        while done < buf.len() {
            let (extent, off) = ((at + done) / extent_bytes, (at + done) % extent_bytes);
            let n = (buf.len() - done).min(extent_bytes - off);
            buf[done..done + n].copy_from_slice(&self.extents[extent][off..off + n]);
            done += n;
        }
    }

    /// Freezes the file and gives back the last extent's spare capacity.
    fn seal(&mut self) {
        self.sealed = true;
        if let Some(last) = self.extents.last_mut() {
            last.shrink_to_fit();
        }
        self.extents.shrink_to_fit();
    }
}

/// An in-memory [`StorageDevice`]. The default substrate for experiments:
/// I/O counts and simulated time are exact and runs are fast and
/// deterministic. A file is kept in extents of whole blocks, about 64 KiB
/// each (one block when blocks are larger), so it costs its bytes plus at
/// most one extent.
pub struct MemDevice {
    block_size: usize,
    extent_bytes: usize,
    stats: IoStats,
    latency: LatencyModel,
    files: RwLock<BTreeMap<u64, MemFile>>,
    next_id: AtomicU64,
}

impl MemDevice {
    /// Device with the given block size and latency profile.
    pub fn new(block_size: usize, profile: DeviceProfile) -> Self {
        assert!(block_size > 0, "block size must be positive");
        MemDevice {
            block_size,
            extent_bytes: (EXTENT_TARGET_BYTES / block_size).max(1) * block_size,
            stats: IoStats::new(),
            latency: LatencyModel::new(profile),
            files: RwLock::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// 4 KiB blocks, free latency profile.
    pub fn default_for_tests() -> Self {
        MemDevice::new(crate::block::DEFAULT_BLOCK_SIZE, DeviceProfile::free())
    }

    /// Bytes in one full extent: the whole blocks nearest 64 KiB, or one
    /// block when blocks are larger.
    pub fn extent_bytes(&self) -> usize {
        self.extent_bytes
    }

    fn file_blocks(&self, f: &MemFile) -> u64 {
        (f.len(self.extent_bytes) / self.block_size) as u64
    }
}

impl Default for MemDevice {
    fn default() -> Self {
        MemDevice::new(crate::block::DEFAULT_BLOCK_SIZE, DeviceProfile::default())
    }
}

impl StorageDevice for MemDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    fn create(&self) -> StorageResult<FileId> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.files.write().insert(id, MemFile::default());
        Ok(FileId(id))
    }

    fn write(&self, file: FileId, at: u64, data: &[u8], cat: IoCategory) -> StorageResult<()> {
        let mut files = self.files.write();
        let f = files.get_mut(&file.0).ok_or(StorageError::UnknownFile(file.0))?;
        if f.sealed {
            return Err(StorageError::Sealed(file.0));
        }
        let blocks = check_write(file, at, data.len(), self.block_size, self.file_blocks(f))?;
        f.write(at as usize * self.block_size, data, self.extent_bytes);
        drop(files);
        self.stats.record_write(cat, blocks);
        self.latency.charge_write(blocks);
        Ok(())
    }

    /// Memory holds nothing a power loss would spare: only the file's
    /// existence is checked.
    fn sync(&self, file: FileId) -> StorageResult<()> {
        self.files.read().get(&file.0).map(|_| ()).ok_or(StorageError::UnknownFile(file.0))
    }

    fn seal(&self, file: FileId) -> StorageResult<()> {
        let mut files = self.files.write();
        let f = files.get_mut(&file.0).ok_or(StorageError::UnknownFile(file.0))?;
        f.seal();
        Ok(())
    }

    fn read_into(&self, file: FileId, at: u64, buf: &mut [u8], cat: IoCategory) -> StorageResult<()> {
        let files = self.files.read();
        let f = files.get(&file.0).ok_or(StorageError::UnknownFile(file.0))?;
        let nblocks = check_in_bounds(file, at, buf, self.block_size, self.file_blocks(f))?;
        f.read_into(at as usize, buf, self.extent_bytes);
        drop(files);
        self.stats.record_read(cat, nblocks);
        self.latency.charge_read(nblocks);
        Ok(())
    }

    fn len_blocks(&self, file: FileId) -> StorageResult<u64> {
        let files = self.files.read();
        let f = files.get(&file.0).ok_or(StorageError::UnknownFile(file.0))?;
        Ok(self.file_blocks(f))
    }

    fn delete(&self, file: FileId) -> StorageResult<()> {
        // the lock is released before the file's extents are freed
        let removed = self.files.write().remove(&file.0);
        removed.map(drop).ok_or(StorageError::UnknownFile(file.0))
    }

    fn live_files(&self) -> Vec<FileId> {
        self.files.read().keys().map(|&k| FileId(k)).collect()
    }

    fn live_blocks(&self) -> u64 {
        self.files.read().values().map(|f| self.file_blocks(f)).sum()
    }
}

// ---------------------------------------------------------------------------
// File-backed device
// ---------------------------------------------------------------------------

struct DiskFile {
    path: PathBuf,
    len_blocks: u64,
    sealed: bool,
}

/// A [`StorageDevice`] backed by real files in a directory. Used by the
/// durability/recovery tests and by anyone who wants the engine to persist.
pub struct FileDevice {
    dir: PathBuf,
    block_size: usize,
    stats: IoStats,
    latency: LatencyModel,
    files: RwLock<BTreeMap<u64, DiskFile>>,
    next_id: AtomicU64,
}

impl FileDevice {
    /// Opens (creating if needed) a device rooted at `dir`. Existing
    /// `*.blk` files are re-registered (sealed) so an engine can recover.
    pub fn open(dir: impl Into<PathBuf>, block_size: usize, profile: DeviceProfile) -> StorageResult<Self> {
        assert!(block_size > 0, "block size must be positive");
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut files = BTreeMap::new();
        let mut max_id = 0u64;
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name
                .strip_prefix('f')
                .and_then(|s| s.strip_suffix(".blk"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                let meta = entry.metadata()?;
                files.insert(
                    id,
                    DiskFile {
                        path: entry.path(),
                        len_blocks: meta.len() / block_size as u64,
                        sealed: true,
                    },
                );
                max_id = max_id.max(id);
            }
        }
        Ok(FileDevice {
            dir,
            block_size,
            stats: IoStats::new(),
            latency: LatencyModel::new(profile),
            files: RwLock::new(files),
            next_id: AtomicU64::new(max_id + 1),
        })
    }
}

impl StorageDevice for FileDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    fn create(&self) -> StorageResult<FileId> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("f{id}.blk"));
        fs::File::create(&path)?;
        self.files.write().insert(
            id,
            DiskFile {
                path,
                len_blocks: 0,
                sealed: false,
            },
        );
        Ok(FileId(id))
    }

    fn write(&self, file: FileId, at: u64, data: &[u8], cat: IoCategory) -> StorageResult<()> {
        let mut files = self.files.write();
        let f = files.get_mut(&file.0).ok_or(StorageError::UnknownFile(file.0))?;
        if f.sealed {
            return Err(StorageError::Sealed(file.0));
        }
        let blocks = check_write(file, at, data.len(), self.block_size, f.len_blocks)?;
        let offset = at * self.block_size as u64;
        let handle = fs::OpenOptions::new().write(true).open(&f.path)?;
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            handle.write_all_at(data, offset)?;
        }
        #[cfg(not(unix))]
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut handle = handle;
            handle.seek(SeekFrom::Start(offset))?;
            handle.write_all(data)?;
        }
        f.len_blocks = at + blocks;
        drop(files);
        self.stats.record_write(cat, blocks);
        self.latency.charge_write(blocks);
        Ok(())
    }

    /// `fdatasync`: the file's written bytes reach stable storage.
    fn sync(&self, file: FileId) -> StorageResult<()> {
        let path = {
            let files = self.files.read();
            files.get(&file.0).ok_or(StorageError::UnknownFile(file.0))?.path.clone()
        };
        fs::OpenOptions::new().write(true).open(path)?.sync_data()?;
        Ok(())
    }

    fn seal(&self, file: FileId) -> StorageResult<()> {
        let mut files = self.files.write();
        let f = files.get_mut(&file.0).ok_or(StorageError::UnknownFile(file.0))?;
        let handle = fs::OpenOptions::new().append(true).open(&f.path)?;
        handle.sync_all()?;
        f.sealed = true;
        Ok(())
    }

    fn read_into(&self, file: FileId, at: u64, buf: &mut [u8], cat: IoCategory) -> StorageResult<()> {
        #[cfg(unix)]
        use std::os::unix::fs::FileExt;
        let files = self.files.read();
        let f = files.get(&file.0).ok_or(StorageError::UnknownFile(file.0))?;
        let nblocks = check_in_bounds(file, at, buf, self.block_size, f.len_blocks)?;
        let handle = fs::File::open(&f.path)?;
        #[cfg(unix)]
        handle.read_exact_at(buf, at)?;
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut handle = handle;
            handle.seek(SeekFrom::Start(at))?;
            handle.read_exact(buf)?;
        }
        drop(files);
        self.stats.record_read(cat, nblocks);
        self.latency.charge_read(nblocks);
        Ok(())
    }

    fn len_blocks(&self, file: FileId) -> StorageResult<u64> {
        let files = self.files.read();
        let f = files.get(&file.0).ok_or(StorageError::UnknownFile(file.0))?;
        Ok(f.len_blocks)
    }

    fn delete(&self, file: FileId) -> StorageResult<()> {
        let mut files = self.files.write();
        let f = files.remove(&file.0).ok_or(StorageError::UnknownFile(file.0))?;
        fs::remove_file(&f.path)?;
        Ok(())
    }

    fn live_files(&self) -> Vec<FileId> {
        self.files.read().keys().map(|&k| FileId(k)).collect()
    }

    fn live_blocks(&self) -> u64 {
        self.files.read().values().map(|f| f.len_blocks).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn roundtrip(dev: &dyn StorageDevice) {
        let bs = dev.block_size();
        let id = dev.create().unwrap();
        let blk1 = vec![0xAB; bs];
        let blk2 = vec![0xCD; bs];
        dev.append(id, &blk1, IoCategory::Data).unwrap();
        dev.append(id, &blk2, IoCategory::Filter).unwrap();
        dev.seal(id).unwrap();
        assert_eq!(dev.len_blocks(id).unwrap(), 2);
        let got = dev.read(id, 1, 1, IoCategory::Filter).unwrap();
        assert_eq!(got, blk2);
        let both = dev.read(id, 0, 2, IoCategory::Data).unwrap();
        assert_eq!(&both[..bs], &blk1[..]);
        assert_eq!(&both[bs..], &blk2[..]);
        // sealed file rejects appends
        assert!(matches!(
            dev.append(id, &blk1, IoCategory::Data),
            Err(StorageError::Sealed(_))
        ));
        // out of bounds
        assert!(matches!(
            dev.read(id, 2, 1, IoCategory::Data),
            Err(StorageError::OutOfBounds { .. })
        ));
        // stats attribution
        let snap = dev.stats().snapshot();
        assert_eq!(snap.category(IoCategory::Data).written_blocks, 1);
        assert_eq!(snap.category(IoCategory::Filter).written_blocks, 1);
        assert_eq!(snap.category(IoCategory::Filter).read_blocks, 1);
        assert_eq!(snap.category(IoCategory::Data).read_blocks, 2);
        // delete
        assert_eq!(dev.live_files().len(), 1);
        dev.delete(id).unwrap();
        assert!(dev.live_files().is_empty());
        assert!(matches!(
            dev.read(id, 0, 1, IoCategory::Data),
            Err(StorageError::UnknownFile(_))
        ));
    }

    #[test]
    fn mem_device_roundtrip() {
        roundtrip(&MemDevice::default_for_tests());
    }

    #[test]
    fn file_device_roundtrip() {
        let dir = std::env::temp_dir().join(format!("lsm-storage-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let dev = FileDevice::open(&dir, 512, DeviceProfile::free()).unwrap();
        roundtrip(&dev);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_device_reopens_existing_files() {
        let dir = std::env::temp_dir().join(format!("lsm-storage-reopen-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let id;
        {
            let dev = FileDevice::open(&dir, 512, DeviceProfile::free()).unwrap();
            id = dev.create().unwrap();
            dev.append(id, &vec![9u8; 512], IoCategory::Data).unwrap();
            dev.seal(id).unwrap();
        }
        let dev = FileDevice::open(&dir, 512, DeviceProfile::free()).unwrap();
        assert_eq!(dev.live_files(), vec![id]);
        assert_eq!(dev.len_blocks(id).unwrap(), 1);
        assert_eq!(dev.read(id, 0, 1, IoCategory::Data).unwrap(), vec![9u8; 512]);
        // new ids never collide with recovered ones
        let id2 = dev.create().unwrap();
        assert_ne!(id, id2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_block_append_is_rejected() {
        let dev = MemDevice::default_for_tests();
        let id = dev.create().unwrap();
        let err = dev.append(id, &[1, 2, 3], IoCategory::Data).unwrap_err();
        assert!(matches!(err, StorageError::Corruption(_)));
    }

    #[test]
    fn live_blocks_tracks_space() {
        let dev = MemDevice::default_for_tests();
        let bs = dev.block_size();
        let a = dev.create().unwrap();
        let b = dev.create().unwrap();
        dev.append(a, &vec![0; bs * 3], IoCategory::Data).unwrap();
        dev.append(b, &vec![0; bs], IoCategory::Data).unwrap();
        assert_eq!(dev.live_blocks(), 4);
        dev.delete(a).unwrap();
        assert_eq!(dev.live_blocks(), 1);
    }

    #[test]
    fn latency_clock_advances_on_io() {
        let dev = MemDevice::new(4096, DeviceProfile::nvme_ssd());
        let id = dev.create().unwrap();
        dev.append(id, &vec![0; 4096], IoCategory::Data).unwrap();
        let after_write = dev.latency().clock().now_ns();
        assert!(after_write > 0);
        dev.read(id, 0, 1, IoCategory::Data).unwrap();
        assert!(dev.latency().clock().now_ns() > after_write);
    }

    /// The device before extents, kept as the model: each file one flat
    /// `Vec`, charged exactly as [`MemDevice`] charges.
    struct FlatDevice {
        block_size: usize,
        stats: IoStats,
        latency: LatencyModel,
        files: RwLock<BTreeMap<u64, (Vec<u8>, bool)>>,
        next_id: AtomicU64,
    }

    impl FlatDevice {
        fn new(block_size: usize, profile: DeviceProfile) -> Self {
            FlatDevice {
                block_size,
                stats: IoStats::new(),
                latency: LatencyModel::new(profile),
                files: RwLock::new(BTreeMap::new()),
                next_id: AtomicU64::new(1),
            }
        }
    }

    impl StorageDevice for FlatDevice {
        fn block_size(&self) -> usize {
            self.block_size
        }

        fn stats(&self) -> &IoStats {
            &self.stats
        }

        fn latency(&self) -> &LatencyModel {
            &self.latency
        }

        fn create(&self) -> StorageResult<FileId> {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.files.write().insert(id, (Vec::new(), false));
            Ok(FileId(id))
        }

        fn write(&self, file: FileId, at: u64, data: &[u8], cat: IoCategory) -> StorageResult<()> {
            let mut files = self.files.write();
            let (bytes, sealed) = files.get_mut(&file.0).ok_or(StorageError::UnknownFile(file.0))?;
            if *sealed {
                return Err(StorageError::Sealed(file.0));
            }
            let blocks = check_write(file, at, data.len(), self.block_size, (bytes.len() / self.block_size) as u64)?;
            bytes.truncate(at as usize * self.block_size);
            bytes.extend_from_slice(data);
            self.stats.record_write(cat, blocks);
            self.latency.charge_write(blocks);
            Ok(())
        }

        fn sync(&self, file: FileId) -> StorageResult<()> {
            self.files.read().get(&file.0).map(|_| ()).ok_or(StorageError::UnknownFile(file.0))
        }

        fn seal(&self, file: FileId) -> StorageResult<()> {
            let mut files = self.files.write();
            files.get_mut(&file.0).ok_or(StorageError::UnknownFile(file.0))?.1 = true;
            Ok(())
        }

        fn read_into(&self, file: FileId, at: u64, buf: &mut [u8], cat: IoCategory) -> StorageResult<()> {
            let files = self.files.read();
            let (bytes, _) = files.get(&file.0).ok_or(StorageError::UnknownFile(file.0))?;
            let len = (bytes.len() / self.block_size) as u64;
            let nblocks = check_in_bounds(file, at, buf, self.block_size, len)?;
            buf.copy_from_slice(&bytes[at as usize..at as usize + buf.len()]);
            self.stats.record_read(cat, nblocks);
            self.latency.charge_read(nblocks);
            Ok(())
        }

        fn len_blocks(&self, file: FileId) -> StorageResult<u64> {
            let files = self.files.read();
            let (bytes, _) = files.get(&file.0).ok_or(StorageError::UnknownFile(file.0))?;
            Ok((bytes.len() / self.block_size) as u64)
        }

        fn delete(&self, file: FileId) -> StorageResult<()> {
            self.files.write().remove(&file.0).map(|_| ()).ok_or(StorageError::UnknownFile(file.0))
        }

        fn live_files(&self) -> Vec<FileId> {
            self.files.read().keys().map(|&k| FileId(k)).collect()
        }

        fn live_blocks(&self) -> u64 {
            self.files.read().values().map(|(b, _)| (b.len() / self.block_size) as u64).sum()
        }
    }

    /// Asserts `a` and the model `b` agree on `read_into(file, at, len)`:
    /// the same bytes (or both an error), then the same counters and
    /// simulated time. Returns what `a` read, `None` on an error.
    fn assert_same_read(a: &dyn StorageDevice, b: &dyn StorageDevice, file: FileId, at: u64, len: usize) -> Option<Vec<u8>> {
        let read = |dev: &dyn StorageDevice| {
            let mut buf = vec![0u8; len];
            dev.read_into(file, at, &mut buf, IoCategory::Filter).map(|()| buf)
        };
        let (got, model) = (read(a), read(b));
        match (&got, &model) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "bytes at {at}+{len}"),
            (Err(_), Err(_)) => {}
            _ => panic!("at {at}+{len}: {:?} vs the model's {:?}", got.is_ok(), model.is_ok()),
        }
        assert_eq!(a.stats().snapshot(), b.stats().snapshot(), "counters at {at}+{len}");
        assert_eq!(a.latency().clock().now_ns(), b.latency().clock().now_ns(), "simulated time at {at}+{len}");
        got.ok()
    }

    /// Random appends of 1–40 blocks to interleaved files, then reads at
    /// block-aligned offsets whose lengths cross extent boundaries: the
    /// extents return the flat model's bytes, counters and simulated time.
    #[test]
    fn extents_read_back_what_a_flat_file_holds() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for bs in [512, 4096] {
            let mut rng = StdRng::seed_from_u64(bs as u64);
            let (mem, flat) = (MemDevice::new(bs, DeviceProfile::nvme_ssd()), FlatDevice::new(bs, DeviceProfile::nvme_ssd()));
            let extent = mem.extent_bytes();
            let files: Vec<FileId> = (0..4).map(|_| (mem.create().unwrap(), flat.create().unwrap()).0).collect();
            for round in 0..120u32 {
                let file = files[rng.gen_range(0..files.len())];
                let data: Vec<u8> = (0..rng.gen_range(1..=40usize) * bs).map(|i| (i as u32 ^ round.wrapping_mul(0x9E37)) as u8).collect();
                for dev in [&mem as &dyn StorageDevice, &flat] {
                    dev.append(file, &data, IoCategory::Data).unwrap();
                }
            }
            mem.seal(files[0]).unwrap();
            flat.seal(files[0]).unwrap();
            assert_eq!(mem.live_blocks(), flat.live_blocks());
            for &file in &files {
                let len = flat.len_blocks(file).unwrap() as usize * bs;
                assert_eq!(mem.len_blocks(file).unwrap(), flat.len_blocks(file).unwrap());
                assert!(len > 3 * extent, "each file spans at least three extents");
                // across every extent boundary, and past the end
                for boundary in (extent..len).step_by(extent) {
                    assert_same_read(&mem, &flat, file, (boundary - bs) as u64, 2 * bs).expect("in bounds");
                    assert_same_read(&mem, &flat, file, (boundary - bs) as u64, 2 * bs - 7).expect("in bounds");
                }
                assert_same_read(&mem, &flat, file, 0, len).expect("in bounds");
                assert!(assert_same_read(&mem, &flat, file, (len - bs) as u64, bs + 1).is_none());
                for _ in 0..40 {
                    let at = rng.gen_range(0..len / bs) * bs;
                    let n = rng.gen_range(1..=(len - at).min(3 * extent));
                    assert_same_read(&mem, &flat, file, at as u64, n).expect("in bounds");
                }
            }
        }
    }

    type Dev = Arc<dyn StorageDevice>;

    /// `len` bytes that never repeat at a block or extent stride, so a
    /// read from the wrong place shows.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8).collect()
    }

    /// Blocks per append of the file [`read_into_matches_read`] builds:
    /// 398 blocks of 512 bytes, past three 128-block extents, with appends
    /// that straddle extent boundaries.
    const APPENDS: [usize; 5] = [1, 130, 7, 200, 60];

    /// Drives three identically built devices through the same ops — one
    /// reading each range through `read` of its covering blocks, the
    /// others through `read_into` of just the range, the third over the
    /// flat model — and checks they return the same bytes (or all fail)
    /// with the same I/O counters and simulated time. `make` wraps the
    /// base device it is handed (or ignores it); a fault it schedules
    /// fires at the same ordinal on each, and lands where it lands on the
    /// flat model.
    fn read_into_matches_read(make: &dyn Fn(&str, Dev) -> Dev) {
        let bs = 512;
        let whole = make("whole", Arc::new(MemDevice::new(bs, DeviceProfile::nvme_ssd())));
        let ranged = make("ranged", Arc::new(MemDevice::new(bs, DeviceProfile::nvme_ssd())));
        let flat = make("flat", Arc::new(FlatDevice::new(bs, DeviceProfile::nvme_ssd())));
        let blocks: usize = APPENDS.iter().sum();
        let pattern = pattern(blocks * bs);
        let mut file = None;
        for dev in [&whole, &ranged, &flat] {
            let id = dev.create().unwrap();
            let mut at = 0;
            for n in APPENDS {
                dev.append(id, &pattern[at..at + n * bs], IoCategory::Data).unwrap();
                at += n * bs;
            }
            dev.seal(id).unwrap();
            file = Some(id);
        }
        let file = file.unwrap();
        let extent = 128 * bs as u64;
        let cases = [
            (0, 3 * bs),
            (0, bs),
            (bs as u64 / 2, bs),
            (bs as u64 + 3, 7),
            (extent - 3, 10),
            (2 * extent - bs as u64, 2 * bs),
            (extent - 100, 2 * extent as usize + 200), // three extents
            (3 * bs as u64 - 1, 1),
            (((blocks - 1) * bs) as u64, bs + 1), // past the end
            (0, blocks * bs),
            (3 * extent + 5, bs - 9),
        ];
        for (at, len) in cases {
            let (first, nblocks) = covering(at, len, bs);
            let via_read = whole
                .read(file, first, nblocks, IoCategory::Filter)
                .map(|all| {
                    let skip = (at - first * bs as u64) as usize;
                    all[skip..skip + len].to_vec()
                });
            let via_into = assert_same_read(&*ranged, &*flat, file, at, len);
            match (via_read.ok(), via_into) {
                (Some(a), Some(b)) => assert_eq!(a, b, "bytes at {at}+{len}"),
                (None, None) => {}
                (a, b) => panic!("at {at}+{len}: read {:?} vs read_into {:?}", a.is_some(), b.is_some()),
            }
            assert_eq!(whole.stats().snapshot(), ranged.stats().snapshot(), "counters at {at}+{len}");
            assert_eq!(
                whole.latency().clock().now_ns(),
                ranged.latency().clock().now_ns(),
                "simulated time at {at}+{len}"
            );
        }
    }

    #[test]
    fn read_into_matches_read_on_every_device() {
        use crate::fault::{FaultDevice, FaultKind, RetryDevice, RetryPolicy};
        use crate::wall::WallLatencyDevice;
        read_into_matches_read(&|_, base| base);
        let root = std::env::temp_dir().join(format!("lsm-storage-read-into-{}", std::process::id()));
        read_into_matches_read(&|name, _| {
            let dir = root.join(name);
            let _ = fs::remove_dir_all(&dir);
            Arc::new(FileDevice::open(dir, 512, DeviceProfile::free()).unwrap())
        });
        let _ = fs::remove_dir_all(&root);
        read_into_matches_read(&|_, base| Arc::new(WallLatencyDevice::new(base, DeviceProfile::free())));
        // ordinals below `APPENDS.len()` are the appends: a fault from there on lands on a read
        let first_read = APPENDS.len() as u64;
        for kind in [
            FaultKind::Crash,
            FaultKind::Transient,
            FaultKind::BitFlip,
            FaultKind::TornWrite { keep_blocks: 1 },
        ] {
            for at in first_read..first_read + 11 {
                let kind = kind.clone();
                read_into_matches_read(&move |_, base| {
                    let dev = FaultDevice::new(base, 0xB17 + at);
                    dev.schedule(at, kind.clone());
                    Arc::new(dev)
                });
            }
        }
        for at in first_read..first_read + 6 {
            read_into_matches_read(&move |_, base| {
                let faulty = FaultDevice::new(base, 9);
                faulty.schedule(at, FaultKind::Transient);
                faulty.schedule(at + 1, FaultKind::BitFlip);
                Arc::new(RetryDevice::new(Arc::new(faulty), RetryPolicy::default()))
            });
        }
    }

    /// A write torn at any append of a file that spans three extents keeps
    /// the prefix it keeps on the flat model: after the heal both hold the
    /// same blocks.
    #[test]
    fn torn_appends_keep_the_flat_models_prefix() {
        use crate::fault::{FaultDevice, FaultKind};
        let bs = 512;
        let blocks: usize = APPENDS.iter().sum();
        let pattern = pattern(blocks * bs);
        for at in 0..APPENDS.len() as u64 {
            for keep_blocks in [0, 1, 127, 128, 129, 199, 200] {
                let devs: [FaultDevice; 2] = [
                    Arc::new(MemDevice::new(bs, DeviceProfile::nvme_ssd())) as Arc<dyn StorageDevice>,
                    Arc::new(FlatDevice::new(bs, DeviceProfile::nvme_ssd())),
                ]
                .map(|base| FaultDevice::new(base, 3));
                let mut file = None;
                for dev in &devs {
                    dev.schedule(at, FaultKind::TornWrite { keep_blocks });
                    let id = dev.create().unwrap();
                    let mut off = 0;
                    for n in APPENDS {
                        if dev.append(id, &pattern[off..off + n * bs], IoCategory::Data).is_err() {
                            break;
                        }
                        off += n * bs;
                    }
                    dev.heal();
                    file = Some(id);
                }
                let file = file.unwrap();
                let len = devs[1].len_blocks(file).unwrap() as usize;
                assert_eq!(devs[0].len_blocks(file).unwrap() as usize, len, "torn at #{at} keeping {keep_blocks}");
                assert_same_read(&devs[0], &devs[1], file, 0, len * bs).expect("the kept blocks read back");
                assert!(assert_same_read(&devs[0], &devs[1], file, 0, len * bs + 1).is_none());
            }
        }
    }

    /// The write contract, on every base device and on the model: a write
    /// at the last block replaces it, one at the end extends the file, and
    /// one anywhere else, of a partial block, or to a sealed file is a typed
    /// error that writes nothing. Either position is charged like an append.
    #[test]
    fn a_write_replaces_the_last_block_or_extends_the_file_on_every_device() {
        let bs = 512;
        let root = std::env::temp_dir().join(format!("lsm-storage-write-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let devs: [Box<dyn StorageDevice>; 3] = [
            Box::new(MemDevice::new(bs, DeviceProfile::nvme_ssd())),
            Box::new(FlatDevice::new(bs, DeviceProfile::nvme_ssd())),
            Box::new(FileDevice::open(&root, bs, DeviceProfile::nvme_ssd()).unwrap()),
        ];
        let data = pattern(6 * bs);
        for dev in &devs {
            let id = dev.create().unwrap();
            let contents = |dev: &dyn StorageDevice| dev.read(id, 0, dev.len_blocks(id).unwrap(), IoCategory::Wal).unwrap();
            assert!(matches!(dev.write(id, 1, &data[..bs], IoCategory::Wal), Err(StorageError::OutOfBounds { .. })));
            assert_eq!(dev.len_blocks(id).unwrap(), 0, "a refused write on an empty file wrote nothing");
            dev.write(id, 0, &data[..2 * bs], IoCategory::Wal).unwrap();
            assert_eq!(contents(&**dev), &data[..2 * bs], "a write at the end extends the file");
            dev.write(id, 1, &data[2 * bs..5 * bs], IoCategory::Wal).unwrap();
            let mut expected = data[..bs].to_vec();
            expected.extend_from_slice(&data[2 * bs..5 * bs]);
            assert_eq!(contents(&**dev), expected, "a write at the last block replaces it, then extends the file");
            for at in [0, 1, 2, 5, 9] {
                assert!(
                    matches!(dev.write(id, at, &data[5 * bs..], IoCategory::Wal), Err(StorageError::OutOfBounds { .. })),
                    "a write at block {at} of a 4-block file"
                );
            }
            assert!(matches!(dev.write(id, 3, &[], IoCategory::Wal), Err(StorageError::OutOfBounds { .. })));
            assert!(matches!(dev.write(id, 4, &data[..7], IoCategory::Wal), Err(StorageError::Corruption(_))));
            assert_eq!(contents(&**dev), expected, "a refused write wrote nothing");
            dev.sync(id).unwrap();
            let snap = dev.stats().snapshot();
            assert_eq!(snap.category(IoCategory::Wal).written_blocks, 5);
            assert_eq!(snap.total_write_ops(), 2);
            dev.seal(id).unwrap();
            for at in [3, 4] {
                assert!(matches!(dev.write(id, at, &data[..bs], IoCategory::Wal), Err(StorageError::Sealed(_))));
            }
            assert_eq!(contents(&**dev), expected, "a sealed file took no write");
            assert!(matches!(dev.sync(FileId(999)), Err(StorageError::UnknownFile(999))));
        }
        assert_eq!(devs[0].latency().clock().now_ns(), devs[1].latency().clock().now_ns());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn covering_counts_every_block_a_range_touches() {
        assert_eq!(covering(0, 512, 512), (0, 1));
        assert_eq!(covering(0, 513, 512), (0, 2));
        assert_eq!(covering(511, 2, 512), (0, 2));
        assert_eq!(covering(1024, 1, 512), (2, 1));
        assert_eq!(covering(700, 0, 512), (1, 0));
    }

    #[test]
    fn empty_read_of_zero_blocks_is_ok() {
        let dev = MemDevice::default_for_tests();
        let id = dev.create().unwrap();
        let got = dev.read(id, 0, 0, IoCategory::Data).unwrap();
        assert!(got.is_empty());
    }
}
