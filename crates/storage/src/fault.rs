//! Deterministic fault injection for crash-recovery testing.
//!
//! [`FaultDevice`] wraps any [`StorageDevice`] and injects faults from a
//! scripted schedule keyed by the device-wide I/O ordinal (writes and
//! reads, counted together; a durability barrier takes none). Because
//! the engine's I/O sequence is deterministic for a fixed workload, a
//! schedule entry names an exact point in execution — "the 37th I/O" is
//! the same WAL write on every run — which makes every failure
//! reproducible.
//!
//! Four fault shapes cover the recovery paths the engine must survive:
//!
//! - [`FaultKind::Crash`]: the op fails and the device goes dead (every
//!   later op fails too), simulating a process crash: every write that
//!   completed before it survives, barrier or not. [`FaultDevice::heal`]
//!   then models the process coming back up with whatever had reached
//!   the underlying device.
//! - [`FaultKind::TornWrite`]: a write persists only its leading blocks,
//!   then the device dies — a crash mid-write. A write over the last
//!   block that keeps none leaves the old last block as it was.
//! - [`FaultKind::BitFlip`]: a read succeeds but returns data with one
//!   bit flipped (position seeded, deterministic) — silent media
//!   corruption that checksums must catch.
//! - [`FaultKind::Transient`]: the op fails with a retryable
//!   [`std::io::ErrorKind::Interrupted`] error and nothing reaches the
//!   device; an identical retry proceeds normally.
//!
//! [`RetryDevice`] is the production-shaped counterpart: it wraps a
//! device and retries transient errors under a bounded exponential
//! backoff ([`RetryPolicy`]), charging backoff to the simulated clock and
//! counting each retry in [`IoStats::record_retry`].

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{StorageError, StorageResult};
use crate::file::FileId;
use crate::latency::LatencyModel;
use crate::stats::{IoCategory, IoStats};
use crate::device::covering;
use crate::StorageDevice;

/// One fault shape, scheduled at a specific I/O ordinal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The op fails and the device goes dead until [`FaultDevice::heal`].
    Crash,
    /// The write persists only its first `keep_blocks` blocks, then the
    /// device goes dead; a write over the last block that keeps 0 leaves
    /// that block untouched. On a read this degrades to
    /// [`FaultKind::Crash`].
    TornWrite {
        /// Blocks of the write that reach the device before the tear.
        keep_blocks: u64,
    },
    /// The read completes but one bit of the returned data is flipped.
    /// On a write this is a no-op (the fault is consumed).
    BitFlip,
    /// The op fails with a retryable I/O error; nothing reaches the
    /// device, and the next attempt is not affected by this entry.
    Transient,
}

/// A scheduled fault: `kind` fires when the device executes its `at`-th
/// write or read (0-based, counted across all files and categories).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// I/O ordinal at which the fault fires.
    pub at: u64,
    /// What happens at that ordinal.
    pub kind: FaultKind,
}

struct FaultState {
    schedule: BTreeMap<u64, FaultKind>,
    dead: Option<u64>, // ordinal of the fatal fault, if the device died
}

/// A [`StorageDevice`] wrapper that injects scripted, deterministic
/// faults. See the module docs for the fault model.
pub struct FaultDevice {
    inner: Arc<dyn StorageDevice>,
    seed: u64,
    ops: AtomicU64,
    state: Mutex<FaultState>,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn dead_error(at: u64) -> StorageError {
    StorageError::Io(io::Error::other(format!(
        "fault injection: device dead since I/O #{at}"
    )))
}

impl FaultDevice {
    /// Wraps `inner` with an empty schedule. `seed` determines which bit
    /// each [`FaultKind::BitFlip`] flips.
    pub fn new(inner: Arc<dyn StorageDevice>, seed: u64) -> Self {
        FaultDevice {
            inner,
            seed,
            ops: AtomicU64::new(0),
            state: Mutex::new(FaultState {
                schedule: BTreeMap::new(),
                dead: None,
            }),
        }
    }

    /// Schedules `kind` to fire at I/O ordinal `at`. Replaces any fault
    /// already scheduled there.
    pub fn schedule(&self, at: u64, kind: FaultKind) {
        self.state.lock().schedule.insert(at, kind);
    }

    /// Schedules every spec in `script`.
    pub fn schedule_all(&self, script: impl IntoIterator<Item = FaultSpec>) {
        let mut state = self.state.lock();
        for spec in script {
            state.schedule.insert(spec.at, spec.kind);
        }
    }

    /// Writes and reads executed (or attempted) so far. Run a workload
    /// once fault-free to learn the ordinal space, then schedule faults
    /// inside it.
    pub fn ops_performed(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Whether a fatal fault has taken the device down.
    pub fn is_dead(&self) -> bool {
        self.state.lock().dead.is_some()
    }

    /// Clears the dead state and any unfired schedule entries, modelling
    /// a restart: the data that reached the inner device is intact and
    /// I/O works again. The ordinal counter keeps counting up.
    pub fn heal(&self) {
        let mut state = self.state.lock();
        state.dead = None;
        state.schedule.clear();
    }

    /// Faults scheduled but not yet fired.
    pub fn pending_faults(&self) -> Vec<FaultSpec> {
        self.state
            .lock()
            .schedule
            .iter()
            .map(|(&at, kind)| FaultSpec {
                at,
                kind: kind.clone(),
            })
            .collect()
    }

    /// Fails if dead; otherwise claims the next ordinal and pops the
    /// fault scheduled there, if any.
    fn next_op(&self) -> StorageResult<(u64, Option<FaultKind>)> {
        let mut state = self.state.lock();
        if let Some(at) = state.dead {
            return Err(dead_error(at));
        }
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let fault = state.schedule.remove(&op);
        Ok((op, fault))
    }

    /// Metadata ops (create/seal/delete) and barriers fail on a dead
    /// device but do not consume an ordinal or fire scheduled faults.
    fn check_alive(&self) -> StorageResult<()> {
        if let Some(at) = self.state.lock().dead {
            return Err(dead_error(at));
        }
        Ok(())
    }

    fn kill(&self, at: u64) {
        self.state.lock().dead = Some(at);
    }
}

impl StorageDevice for FaultDevice {
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
        self.check_alive()?;
        self.inner.create()
    }

    /// Runs the write through the schedule: the inner device gets all of
    /// `data`, or, torn, its leading blocks.
    fn write(&self, file: FileId, at: u64, data: &[u8], cat: IoCategory) -> StorageResult<()> {
        let (op, fault) = self.next_op()?;
        match fault {
            None | Some(FaultKind::BitFlip) => self.inner.write(file, at, data, cat),
            Some(FaultKind::Transient) => Err(StorageError::Io(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("fault injection: transient failure at I/O #{op}"),
            ))),
            Some(FaultKind::Crash) => {
                self.kill(op);
                Err(dead_error(op))
            }
            Some(FaultKind::TornWrite { keep_blocks }) => {
                let bs = self.inner.block_size();
                let keep = (keep_blocks as usize * bs).min(data.len());
                if keep > 0 {
                    self.inner.write(file, at, &data[..keep], cat)?;
                }
                self.kill(op);
                Err(dead_error(op))
            }
        }
    }

    fn sync(&self, file: FileId) -> StorageResult<()> {
        self.check_alive()?;
        self.inner.sync(file)
    }

    fn seal(&self, file: FileId) -> StorageResult<()> {
        self.check_alive()?;
        self.inner.seal(file)
    }

    fn read_into(&self, file: FileId, at: u64, buf: &mut [u8], cat: IoCategory) -> StorageResult<()> {
        let (op, fault) = self.next_op()?;
        match fault {
            None => self.inner.read_into(file, at, buf, cat),
            Some(FaultKind::Transient) => Err(StorageError::Io(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("fault injection: transient failure at I/O #{op}"),
            ))),
            Some(FaultKind::Crash) | Some(FaultKind::TornWrite { .. }) => {
                self.kill(op);
                Err(dead_error(op))
            }
            Some(FaultKind::BitFlip) => {
                self.inner.read_into(file, at, buf, cat)?;
                // the flip lands at its seeded place in the whole blocks
                // read; one in bytes the caller did not ask for is lost
                // with them
                let bs = self.inner.block_size();
                let (first, nblocks) = covering(at, buf.len(), bs);
                let span = nblocks * bs as u64;
                if span > 0 {
                    let r = splitmix64(self.seed ^ op);
                    let byte = first * bs as u64 + r % span;
                    let bit = (r >> 32) % 8;
                    if let Some(b) = byte.checked_sub(at).and_then(|i| buf.get_mut(i as usize)) {
                        *b ^= 1 << bit;
                    }
                }
                Ok(())
            }
        }
    }

    fn len_blocks(&self, file: FileId) -> StorageResult<u64> {
        self.check_alive()?;
        self.inner.len_blocks(file)
    }

    fn delete(&self, file: FileId) -> StorageResult<()> {
        self.check_alive()?;
        self.inner.delete(file)
    }

    fn live_files(&self) -> Vec<FileId> {
        self.inner.live_files()
    }

    fn live_blocks(&self) -> u64 {
        self.inner.live_blocks()
    }
}

// ---------------------------------------------------------------------------
// Bounded retry with backoff
// ---------------------------------------------------------------------------

/// Bounded retry-with-backoff policy for transient device errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failure (0 disables retrying).
    pub max_retries: u32,
    /// Simulated backoff before the first retry; doubles per attempt.
    pub base_backoff_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_ns: 100_000, // 100 µs, doubling
        }
    }
}

impl RetryPolicy {
    /// Simulated backoff before retry number `retry` (1-based).
    pub fn backoff_ns(&self, retry: u32) -> u64 {
        self.base_backoff_ns
            .saturating_mul(1u64.checked_shl(retry.saturating_sub(1)).unwrap_or(u64::MAX))
    }
}

/// A [`StorageDevice`] wrapper that retries transient failures.
///
/// An op failing with a transient error ([`StorageError::is_transient`])
/// is retried up to [`RetryPolicy::max_retries`] times; each retry charges
/// exponential backoff to the simulated clock and increments the shared
/// [`IoStats`] retry counter. Retrying assumes a transiently-failed op had
/// no effect on the device, which holds for the errors this layer retries:
/// an interrupted call that persisted data would instead surface as a torn
/// write, which is not transient and is not retried.
pub struct RetryDevice {
    inner: Arc<dyn StorageDevice>,
    policy: RetryPolicy,
}

impl RetryDevice {
    /// Wraps `inner` with `policy`.
    pub fn new(inner: Arc<dyn StorageDevice>, policy: RetryPolicy) -> Self {
        RetryDevice { inner, policy }
    }

    /// The policy in use.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    fn with_retries<T>(&self, mut op: impl FnMut() -> StorageResult<T>) -> StorageResult<T> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt < self.policy.max_retries => {
                    attempt += 1;
                    self.inner.stats().record_retry();
                    self.inner
                        .latency()
                        .clock()
                        .advance(self.policy.backoff_ns(attempt));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl StorageDevice for RetryDevice {
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
        self.with_retries(|| self.inner.create())
    }

    fn write(&self, file: FileId, at: u64, data: &[u8], cat: IoCategory) -> StorageResult<()> {
        self.with_retries(|| self.inner.write(file, at, data, cat))
    }

    fn sync(&self, file: FileId) -> StorageResult<()> {
        self.with_retries(|| self.inner.sync(file))
    }

    fn seal(&self, file: FileId) -> StorageResult<()> {
        self.with_retries(|| self.inner.seal(file))
    }

    fn read_into(&self, file: FileId, at: u64, buf: &mut [u8], cat: IoCategory) -> StorageResult<()> {
        self.with_retries(|| self.inner.read_into(file, at, buf, cat))
    }

    fn len_blocks(&self, file: FileId) -> StorageResult<u64> {
        self.with_retries(|| self.inner.len_blocks(file))
    }

    fn delete(&self, file: FileId) -> StorageResult<()> {
        self.with_retries(|| self.inner.delete(file))
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

    fn mem() -> Arc<dyn StorageDevice> {
        Arc::new(MemDevice::default_for_tests())
    }

    fn one_block(dev: &dyn StorageDevice, byte: u8) -> Vec<u8> {
        vec![byte; dev.block_size()]
    }

    #[test]
    fn no_schedule_is_transparent() {
        let dev = FaultDevice::new(mem(), 1);
        let id = dev.create().unwrap();
        let blk = one_block(&dev, 0x11);
        dev.append(id, &blk, IoCategory::Data).unwrap();
        dev.seal(id).unwrap();
        assert_eq!(dev.read(id, 0, 1, IoCategory::Data).unwrap(), blk);
        assert_eq!(dev.ops_performed(), 2);
        assert!(!dev.is_dead());
    }

    #[test]
    fn crash_kills_device_until_heal() {
        let dev = FaultDevice::new(mem(), 1);
        dev.schedule(1, FaultKind::Crash);
        let id = dev.create().unwrap();
        let blk = one_block(&dev, 0x22);
        dev.append(id, &blk, IoCategory::Data).unwrap(); // op 0
        let err = dev.append(id, &blk, IoCategory::Data).unwrap_err(); // op 1
        assert!(matches!(err, StorageError::Io(_)));
        assert!(dev.is_dead());
        // everything fails while dead, including metadata ops and reads
        assert!(dev.create().is_err());
        assert!(dev.seal(id).is_err());
        assert!(dev.read(id, 0, 1, IoCategory::Data).is_err());
        // heal: data that reached the inner device is intact
        dev.heal();
        assert!(!dev.is_dead());
        assert_eq!(dev.len_blocks(id).unwrap(), 1);
        assert_eq!(dev.read(id, 0, 1, IoCategory::Data).unwrap(), blk);
    }

    #[test]
    fn torn_write_persists_prefix_only() {
        let dev = FaultDevice::new(mem(), 1);
        dev.schedule(0, FaultKind::TornWrite { keep_blocks: 1 });
        let id = dev.create().unwrap();
        let bs = dev.block_size();
        let mut data = vec![0xAA; bs];
        data.extend(vec![0xBB; bs]);
        data.extend(vec![0xCC; bs]);
        assert!(dev.append(id, &data, IoCategory::Wal).is_err());
        assert!(dev.is_dead());
        dev.heal();
        assert_eq!(dev.len_blocks(id).unwrap(), 1);
        assert_eq!(dev.read(id, 0, 1, IoCategory::Wal).unwrap(), vec![0xAA; bs]);
    }

    /// A torn write keeps its leading blocks at either write position:
    /// over the last block (keeping none leaves that block as it was) and
    /// at the end.
    #[test]
    fn torn_rewrite_keeps_its_leading_blocks() {
        for replace in [true, false] {
            for keep_blocks in 0..4u64 {
                let dev = FaultDevice::new(mem(), 1);
                let id = dev.create().unwrap();
                let bs = dev.block_size();
                dev.append(id, &one_block(&dev, 0xAA), IoCategory::Wal).unwrap(); // op 0
                dev.schedule(1, FaultKind::TornWrite { keep_blocks });
                let mut data = one_block(&dev, 0xBB);
                data.extend(one_block(&dev, 0xCC));
                let at = if replace { 0 } else { 1 };
                assert!(dev.write(id, at, &data, IoCategory::Wal).is_err());
                assert!(dev.is_dead());
                assert!(dev.sync(id).is_err(), "a barrier fails on a dead device");
                dev.heal();
                let kept = dev.read(id, 0, dev.len_blocks(id).unwrap(), IoCategory::Wal).unwrap();
                let mut expected = if replace && keep_blocks > 0 { Vec::new() } else { one_block(&dev, 0xAA) };
                expected.extend_from_slice(&data[..(keep_blocks as usize).min(2) * bs]);
                let case = format!("keeping {keep_blocks}, {}", if replace { "over the last block" } else { "at the end" });
                assert_eq!(kept.len() / bs, expected.len() / bs, "{case}");
                assert_eq!(kept, expected, "{case}");
                // a barrier takes no ordinal
                dev.sync(id).unwrap();
                assert_eq!(dev.ops_performed(), 3);
            }
        }
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit_deterministically() {
        let inner = mem();
        let dev = FaultDevice::new(Arc::clone(&inner), 42);
        let id = dev.create().unwrap();
        let blk = one_block(&dev, 0x00);
        dev.append(id, &blk, IoCategory::Data).unwrap();
        dev.schedule(1, FaultKind::BitFlip);
        let corrupted = dev.read(id, 0, 1, IoCategory::Data).unwrap();
        let diff_bits: u32 = corrupted
            .iter()
            .zip(&blk)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff_bits, 1);
        // one-shot: the next read is clean
        assert_eq!(dev.read(id, 0, 1, IoCategory::Data).unwrap(), blk);
        let _ = inner;
    }

    #[test]
    fn bit_flip_is_reproducible_for_seed_and_ordinal() {
        let flip_of = |seed: u64| {
            let dev = FaultDevice::new(mem(), seed);
            let id = dev.create().unwrap();
            let blk = one_block(&dev, 0x5A);
            dev.append(id, &blk, IoCategory::Data).unwrap();
            dev.schedule(1, FaultKind::BitFlip);
            dev.read(id, 0, 1, IoCategory::Data).unwrap()
        };
        assert_eq!(flip_of(7), flip_of(7));
        assert_ne!(flip_of(7), flip_of(8));
    }

    #[test]
    fn transient_fails_once_then_succeeds() {
        let dev = FaultDevice::new(mem(), 1);
        dev.schedule(0, FaultKind::Transient);
        let id = dev.create().unwrap();
        let blk = one_block(&dev, 0x33);
        let err = dev.append(id, &blk, IoCategory::Data).unwrap_err();
        assert!(err.is_transient());
        // nothing reached the device
        assert_eq!(dev.len_blocks(id).unwrap(), 0);
        // identical retry succeeds
        dev.append(id, &blk, IoCategory::Data).unwrap();
        assert_eq!(dev.read(id, 0, 1, IoCategory::Data).unwrap(), blk);
    }

    #[test]
    fn retry_device_rides_through_transients() {
        let inner = mem();
        let faulty = Arc::new(FaultDevice::new(Arc::clone(&inner), 1));
        faulty.schedule_all([
            FaultSpec { at: 0, kind: FaultKind::Transient },
            FaultSpec { at: 1, kind: FaultKind::Transient },
        ]);
        let dev = RetryDevice::new(faulty, RetryPolicy::default());
        let id = dev.create().unwrap();
        let blk = vec![0x44; dev.block_size()];
        dev.append(id, &blk, IoCategory::Data).unwrap();
        assert_eq!(dev.read(id, 0, 1, IoCategory::Data).unwrap(), blk);
        let snap = dev.stats().snapshot();
        assert_eq!(snap.retries, 2);
        // backoff was charged to the simulated clock even on a free profile
        assert!(dev.latency().clock().now_ns() >= 2 * 100_000);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let inner = mem();
        let faulty = Arc::new(FaultDevice::new(Arc::clone(&inner), 1));
        // more consecutive transients than the policy tolerates
        faulty.schedule_all((0..10).map(|at| FaultSpec {
            at,
            kind: FaultKind::Transient,
        }));
        let dev = RetryDevice::new(
            faulty,
            RetryPolicy { max_retries: 3, base_backoff_ns: 10 },
        );
        let id = dev.create().unwrap();
        let blk = vec![0x55; dev.block_size()];
        let err = dev.append(id, &blk, IoCategory::Data).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(dev.stats().snapshot().retries, 3);
    }

    #[test]
    fn retry_device_does_not_retry_hard_faults() {
        let inner = mem();
        let faulty = Arc::new(FaultDevice::new(Arc::clone(&inner), 1));
        faulty.schedule(0, FaultKind::Crash);
        let dev = RetryDevice::new(faulty, RetryPolicy::default());
        let id = dev.create().unwrap();
        let blk = vec![0x66; dev.block_size()];
        assert!(dev.append(id, &blk, IoCategory::Data).is_err());
        assert_eq!(dev.stats().snapshot().retries, 0);
    }

    #[test]
    fn heal_clears_pending_schedule() {
        let dev = FaultDevice::new(mem(), 1);
        dev.schedule(5, FaultKind::Crash);
        dev.schedule(9, FaultKind::BitFlip);
        assert_eq!(dev.pending_faults().len(), 2);
        dev.heal();
        assert!(dev.pending_faults().is_empty());
        let id = dev.create().unwrap();
        let blk = one_block(&dev, 0x77);
        for _ in 0..20 {
            dev.append(id, &blk, IoCategory::Data).unwrap();
        }
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let p = RetryPolicy { max_retries: 80, base_backoff_ns: 100 };
        assert_eq!(p.backoff_ns(1), 100);
        assert_eq!(p.backoff_ns(2), 200);
        assert_eq!(p.backoff_ns(3), 400);
        assert_eq!(p.backoff_ns(70), u64::MAX); // shift overflow saturates
    }
}
