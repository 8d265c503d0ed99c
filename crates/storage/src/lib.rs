//! # lsm-storage
//!
//! The storage substrate under the LSM engine. Everything the tutorial
//! measures is stated in *storage accesses* (lookup I/Os, write
//! amplification, space amplification), so this crate provides:
//!
//! - a block-granular [`StorageDevice`] abstraction with in-memory
//!   ([`MemDevice`]) and file-backed ([`FileDevice`]) implementations,
//! - exact, categorized I/O accounting ([`IoStats`]), and
//! - an optional device latency model ([`LatencyModel`]) that converts I/O
//!   counts into simulated time, so experiments can report latency shapes
//!   without the authors' hardware, and
//! - deterministic fault injection ([`FaultDevice`]) plus bounded
//!   retry-with-backoff ([`RetryDevice`]) for exercising and hardening the
//!   engine's crash-recovery paths, and
//! - a wall-clock latency wrapper ([`WallLatencyDevice`]) that blocks the
//!   calling thread for each op's profiled cost, so multi-shard serving
//!   experiments overlap I/O waits the way real disks do.
//!
//! Files are append-only and immutable once sealed, matching the LSM
//! invariant that sorted runs are never updated in place.

pub mod block;
pub mod device;
pub mod error;
pub mod fault;
pub mod file;
pub mod latency;
pub mod stats;
pub mod wall;

pub use block::{Block, DEFAULT_BLOCK_SIZE};
pub use device::{FileDevice, MemDevice, StorageDevice};
pub use error::{StorageError, StorageResult};
pub use fault::{FaultDevice, FaultKind, FaultSpec, RetryDevice, RetryPolicy};
pub use file::{FileId, ImmutableFile, WritableFile};
pub use latency::{DeviceProfile, LatencyModel, SimClock};
pub use stats::{IoCategory, IoStats, IoStatsSnapshot};
pub use wall::WallLatencyDevice;
