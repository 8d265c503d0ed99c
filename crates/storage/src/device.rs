//! Storage devices: where immutable LSM files live.
//!
//! A device hands out numbered files, accepts whole-block appends until a
//! file is sealed, and serves whole-block reads. Every call is charged to
//! the shared [`IoStats`] and [`LatencyModel`], with an [`IoCategory`]
//! chosen by the caller — an SSTable mixes data, filter, and index blocks
//! within one file, so attribution must be per-access, not per-file.

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
    /// Block size in bytes; all reads and appends are multiples of this.
    fn block_size(&self) -> usize;

    /// Shared I/O counters.
    fn stats(&self) -> &IoStats;

    /// Shared latency model / simulated clock.
    fn latency(&self) -> &LatencyModel;

    /// Creates a new empty, writable file.
    fn create(&self) -> StorageResult<FileId>;

    /// Appends `data` (a whole number of blocks) to an unsealed file.
    fn append(&self, file: FileId, data: &[u8], cat: IoCategory) -> StorageResult<()>;

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

fn check_whole_blocks(len: usize, block_size: usize) -> StorageResult<u64> {
    if !len.is_multiple_of(block_size) {
        return Err(StorageError::Corruption(format!(
            "append of {len} bytes is not a whole number of {block_size}-byte blocks"
        )));
    }
    Ok((len / block_size) as u64)
}

// ---------------------------------------------------------------------------
// In-memory device
// ---------------------------------------------------------------------------

struct MemFile {
    data: Vec<u8>,
    sealed: bool,
}

/// An in-memory [`StorageDevice`]. The default substrate for experiments:
/// I/O counts and simulated time are exact and runs are fast and
/// deterministic.
pub struct MemDevice {
    block_size: usize,
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
        self.files.write().insert(
            id,
            MemFile {
                data: Vec::new(),
                sealed: false,
            },
        );
        Ok(FileId(id))
    }

    fn append(&self, file: FileId, data: &[u8], cat: IoCategory) -> StorageResult<()> {
        let blocks = check_whole_blocks(data.len(), self.block_size)?;
        let mut files = self.files.write();
        let f = files.get_mut(&file.0).ok_or(StorageError::UnknownFile(file.0))?;
        if f.sealed {
            return Err(StorageError::Sealed(file.0));
        }
        f.data.extend_from_slice(data);
        drop(files);
        self.stats.record_write(cat, blocks);
        self.latency.charge_write(blocks);
        Ok(())
    }

    fn seal(&self, file: FileId) -> StorageResult<()> {
        let mut files = self.files.write();
        let f = files.get_mut(&file.0).ok_or(StorageError::UnknownFile(file.0))?;
        f.sealed = true;
        Ok(())
    }

    fn read_into(&self, file: FileId, at: u64, buf: &mut [u8], cat: IoCategory) -> StorageResult<()> {
        let files = self.files.read();
        let f = files.get(&file.0).ok_or(StorageError::UnknownFile(file.0))?;
        let len = (f.data.len() / self.block_size) as u64;
        let nblocks = check_in_bounds(file, at, buf, self.block_size, len)?;
        let start = at as usize;
        buf.copy_from_slice(&f.data[start..start + buf.len()]);
        drop(files);
        self.stats.record_read(cat, nblocks);
        self.latency.charge_read(nblocks);
        Ok(())
    }

    fn len_blocks(&self, file: FileId) -> StorageResult<u64> {
        let files = self.files.read();
        let f = files.get(&file.0).ok_or(StorageError::UnknownFile(file.0))?;
        Ok((f.data.len() / self.block_size) as u64)
    }

    fn delete(&self, file: FileId) -> StorageResult<()> {
        self.files
            .write()
            .remove(&file.0)
            .map(|_| ())
            .ok_or(StorageError::UnknownFile(file.0))
    }

    fn live_files(&self) -> Vec<FileId> {
        self.files.read().keys().map(|&k| FileId(k)).collect()
    }

    fn live_blocks(&self) -> u64 {
        let files = self.files.read();
        files
            .values()
            .map(|f| (f.data.len() / self.block_size) as u64)
            .sum()
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

    fn append(&self, file: FileId, data: &[u8], cat: IoCategory) -> StorageResult<()> {
        use std::io::Write;
        let blocks = check_whole_blocks(data.len(), self.block_size)?;
        let mut files = self.files.write();
        let f = files.get_mut(&file.0).ok_or(StorageError::UnknownFile(file.0))?;
        if f.sealed {
            return Err(StorageError::Sealed(file.0));
        }
        let mut handle = fs::OpenOptions::new().append(true).open(&f.path)?;
        handle.write_all(data)?;
        f.len_blocks += blocks;
        drop(files);
        self.stats.record_write(cat, blocks);
        self.latency.charge_write(blocks);
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

    /// Drives two identically built devices through the same ops — one
    /// reading each range through `read` of its covering blocks, the
    /// other through `read_into` of just the range — and checks they
    /// return the same bytes (or both fail) with the same I/O counters
    /// and simulated time. A fault scheduled by `make` fires at the same
    /// ordinal on both.
    fn read_into_matches_read(make: &dyn Fn(&str) -> Box<dyn StorageDevice>) {
        let (whole, ranged) = (make("whole"), make("ranged"));
        let bs = whole.block_size();
        let pattern: Vec<u8> = (0..3 * bs).map(|i| (i * 31 + 7) as u8).collect();
        let mut file = None;
        for dev in [&whole, &ranged] {
            let id = dev.create().unwrap();
            dev.append(id, &pattern, IoCategory::Data).unwrap();
            dev.seal(id).unwrap();
            file = Some(id);
        }
        let file = file.unwrap();
        let cases = [
            (0, 3 * bs),
            (0, bs),
            (bs as u64 / 2, bs),
            (bs as u64 + 3, 7),
            (3 * bs as u64 - 1, 1),
            (2 * bs as u64, bs + 1), // past the end
            (0, 3 * bs),
            (5, bs - 9),
        ];
        for (at, len) in cases {
            let (first, nblocks) = covering(at, len, bs);
            let via_read = whole
                .read(file, first, nblocks, IoCategory::Filter)
                .map(|all| {
                    let skip = (at - first * bs as u64) as usize;
                    all[skip..skip + len].to_vec()
                });
            let mut buf = vec![0u8; len];
            let via_into = ranged
                .read_into(file, at, &mut buf, IoCategory::Filter)
                .map(|()| buf);
            match (via_read, via_into) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "bytes at {at}+{len}"),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("at {at}+{len}: read {:?} vs read_into {:?}", a.is_ok(), b.is_ok()),
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
        use std::sync::Arc;
        let mem = || -> Arc<dyn StorageDevice> { Arc::new(MemDevice::new(512, DeviceProfile::nvme_ssd())) };
        read_into_matches_read(&|_| Box::new(MemDevice::new(512, DeviceProfile::nvme_ssd())));
        let root = std::env::temp_dir().join(format!("lsm-storage-read-into-{}", std::process::id()));
        read_into_matches_read(&|name| {
            let dir = root.join(name);
            let _ = fs::remove_dir_all(&dir);
            Box::new(FileDevice::open(dir, 512, DeviceProfile::free()).unwrap())
        });
        let _ = fs::remove_dir_all(&root);
        read_into_matches_read(&|_| Box::new(WallLatencyDevice::new(mem(), DeviceProfile::free())));
        // ordinals 0–1 are the appends: a fault at 2.. lands on a read
        for kind in [
            FaultKind::Crash,
            FaultKind::Transient,
            FaultKind::BitFlip,
            FaultKind::TornWrite { keep_blocks: 1 },
        ] {
            for at in 1..10 {
                let kind = kind.clone();
                read_into_matches_read(&move |_| {
                    let dev = FaultDevice::new(mem(), 0xB17 + at);
                    dev.schedule(at, kind.clone());
                    Box::new(dev)
                });
            }
        }
        for at in 1..6 {
            read_into_matches_read(&move |_| {
                let faulty = FaultDevice::new(mem(), 9);
                faulty.schedule(at, FaultKind::Transient);
                faulty.schedule(at + 1, FaultKind::BitFlip);
                Box::new(RetryDevice::new(Arc::new(faulty), RetryPolicy::default()))
            });
        }
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
