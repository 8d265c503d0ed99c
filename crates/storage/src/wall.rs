//! Wall-clock device latency: a [`StorageDevice`] wrapper that *sleeps*
//! the profiled cost of each I/O instead of (only) advancing the
//! simulated clock.
//!
//! The [`LatencyModel`] inside every device charges
//! I/O cost to a simulated clock, which keeps experiments fast and
//! deterministic — but it means device time never occupies a real
//! thread. That hides the one effect a serving layer is built to
//! exploit: while one shard's flush or compaction is waiting on its
//! device, *another shard's* threads can run. [`WallLatencyDevice`]
//! restores that overlap by blocking the calling thread for the
//! profiled duration of each write/read, so independent shards on
//! separate devices genuinely overlap their I/O waits (sleeping threads
//! occupy no core) while a single shard's single-compactor invariant
//! serializes its own. The replication and elastic-sharding benches
//! (`e22_replication`, `e23_elastic`) use it to measure node- and
//! shard-count scaling the way a real disk-backed deployment would
//! exhibit it.
//!
//! The wrapper adds wall time *on top of* whatever the inner device
//! models; pair it with an inner [`DeviceProfile::free`] profile unless
//! you want both clocks to move.

use std::sync::Arc;
use std::time::Duration;

use crate::device::covering;
use crate::error::StorageResult;
use crate::file::FileId;
use crate::latency::{DeviceProfile, LatencyModel};
use crate::stats::{IoCategory, IoStats};
use crate::StorageDevice;

/// Wraps a device and sleeps the profiled wall-clock cost of every
/// write and read. See the module docs.
pub struct WallLatencyDevice {
    inner: Arc<dyn StorageDevice>,
    profile: DeviceProfile,
}

impl WallLatencyDevice {
    /// Wraps `inner`; each write/read blocks the caller for
    /// `profile`'s cost of that op.
    pub fn new(inner: Arc<dyn StorageDevice>, profile: DeviceProfile) -> Self {
        WallLatencyDevice { inner, profile }
    }

    fn sleep_ns(ns: u64) {
        if ns > 0 {
            std::thread::sleep(Duration::from_nanos(ns));
        }
    }

    /// Sleeps the profiled cost of writing `data`'s blocks.
    fn sleep_write(&self, data: &[u8]) {
        let blocks = (data.len() / self.inner.block_size().max(1)) as u64;
        Self::sleep_ns(self.profile.write_cost_ns(blocks));
    }
}

impl StorageDevice for WallLatencyDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }

    fn latency(&self) -> &LatencyModel {
        self.inner.latency()
    }

    fn create(&self) -> StorageResult<FileId> {
        self.inner.create()
    }

    fn write(&self, file: FileId, at: u64, data: &[u8], cat: IoCategory) -> StorageResult<()> {
        self.sleep_write(data);
        self.inner.write(file, at, data, cat)
    }

    /// The profile prices blocks, not barriers: a barrier sleeps nothing.
    fn sync(&self, file: FileId) -> StorageResult<()> {
        self.inner.sync(file)
    }

    fn seal(&self, file: FileId) -> StorageResult<()> {
        self.inner.seal(file)
    }

    fn read_into(&self, file: FileId, at: u64, buf: &mut [u8], cat: IoCategory) -> StorageResult<()> {
        let (_, nblocks) = covering(at, buf.len(), self.inner.block_size());
        Self::sleep_ns(self.profile.read_cost_ns(nblocks));
        self.inner.read_into(file, at, buf, cat)
    }

    fn len_blocks(&self, file: FileId) -> StorageResult<u64> {
        self.inner.len_blocks(file)
    }

    fn delete(&self, file: FileId) -> StorageResult<()> {
        self.inner.delete(file)
    }

    fn live_files(&self) -> Vec<FileId> {
        self.inner.live_files()
    }

    fn live_blocks(&self) -> u64 {
        self.inner.live_blocks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;
    use std::time::Instant;

    fn wrapped(profile: DeviceProfile) -> WallLatencyDevice {
        let inner: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(512, DeviceProfile::free()));
        WallLatencyDevice::new(inner, profile)
    }

    #[test]
    fn io_passes_through_unchanged() {
        let dev = wrapped(DeviceProfile::free());
        let f = dev.create().unwrap();
        dev.append(f, &[7u8; 1024], IoCategory::Data).unwrap();
        assert_eq!(dev.len_blocks(f).unwrap(), 2);
        let back = dev.read(f, 1, 1, IoCategory::Data).unwrap();
        assert_eq!(back, vec![7u8; 512]);
        dev.seal(f).unwrap();
        assert_eq!(dev.live_files(), vec![f]);
        assert_eq!(dev.live_blocks(), 2);
        dev.delete(f).unwrap();
        assert!(dev.live_files().is_empty());
    }

    #[test]
    fn append_blocks_for_the_profiled_cost() {
        let profile = DeviceProfile {
            random_read_ns: 0,
            random_write_ns: 3_000_000, // 3 ms per write op
            read_block_ns: 0,
            write_block_ns: 0,
        };
        let dev = wrapped(profile);
        let f = dev.create().unwrap();
        let t0 = Instant::now();
        dev.append(f, &[0u8; 512], IoCategory::Wal).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(3),
            "append returned before the profiled device time elapsed"
        );
    }

    #[test]
    fn read_blocks_for_the_profiled_cost() {
        let profile = DeviceProfile {
            random_read_ns: 3_000_000,
            random_write_ns: 0,
            read_block_ns: 0,
            write_block_ns: 0,
        };
        let dev = wrapped(profile);
        let f = dev.create().unwrap();
        dev.append(f, &[0u8; 512], IoCategory::Data).unwrap();
        let t0 = Instant::now();
        dev.read(f, 0, 1, IoCategory::Data).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(3));
    }
}
