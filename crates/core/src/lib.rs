//! # lsm-core
//!
//! A from-scratch LSM-tree storage engine in which every design dimension
//! the tutorial surveys is a first-class configuration axis ([`LsmConfig`]):
//! merge policy (leveling / tiering / lazy-leveling / hybrid per-level run
//! caps), size ratio, compaction granularity and file-picking policy,
//! point-filter family and memory allocation (uniform vs Monkey), range
//! filters, block index family (fence pointers / sparse / learned), block
//! cache policy with post-compaction prefetching, and WiscKey-style
//! key-value separation.
//!
//! Design notes:
//!
//! - **One maintenance path, two schedules.** A full write buffer is
//!   frozen into an immutable slot (no I/O) and its flush queued; flush
//!   and compaction always run as jobs of one queue ([`background`]).
//!   [`config::BackgroundMode::Inline`] (the default) starts no workers:
//!   the writer that queued the work runs it after dropping its write
//!   guard, before it returns, so experiments are deterministic and I/O
//!   attribution is exact. [`config::BackgroundMode::Threaded`] drains
//!   the queue on a worker pool. Under both, readers snapshot the
//!   copy-on-write version and never wait on maintenance, and writers
//!   wait only on L0 backpressure and a taken frozen slot. The costs are
//!   identical, only the interleaving differs.
//! - **I/O accounting.** Every storage access is charged to the shared
//!   [`lsm_storage::IoStats`] with a category (data/filter/index/WAL),
//!   which is what the experiment suite reports.
//! - **Immutability.** Sorted runs are immutable SSTables; versions are
//!   copy-on-write snapshots, so scans see a consistent view while
//!   compactions replace files underneath.
//!
//! ## Example
//!
//! ```
//! use lsm_core::{Db, LsmConfig};
//!
//! let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
//! for i in 0..100u32 {
//!     db.put(format!("key{i:04}").into_bytes(), vec![i as u8]).unwrap();
//! }
//! assert_eq!(db.get(b"key0042").unwrap(), Some(vec![42]));
//! let scan = db.scan(b"key0010".to_vec()..b"key0015".to_vec(), 100).unwrap();
//! assert_eq!(scan.len(), 5);
//! ```

// The hot paths run on borrowed views; a stray `.to_owned()`/`.to_vec()`
// where a borrow suffices is exactly the regression the zero-copy work
// removed, so it is a hard error here.
#![deny(clippy::unnecessary_to_owned)]

pub mod background;
pub mod compaction;
pub mod config;
pub mod db;
pub mod entry;
pub(crate) mod frame;
pub(crate) mod integrity;
pub mod iter;
pub mod kv_sep;
pub mod manifest;
pub mod memtable;
pub mod obs;
pub mod snapshot;
pub mod sstable;
pub mod stats;
pub mod txn;
pub mod version;
pub mod wal;

pub use config::{
    BackgroundMode, CompactionGranularity, FilePicker, FilterAllocation, LsmConfig, MergeLayout,
};
pub use db::{Db, DbCore, WriteBatch};
pub use snapshot::Snapshot;
pub use txn::{commit_parts, Conflict, Txn, TxnError, TxnPart};
pub use entry::{InternalEntry, ValueKind};
pub use stats::DbStats;
pub use version::{SortedRun, Version};

// Re-export the configuration enums that come from substrate crates, so
// users configure everything through `lsm_core`.
pub use lsm_cache::CachePolicy;
// Observability types surfaced by `Db::metrics()` / `Db::drain_events()`.
pub use lsm_obs::{
    Event, EventKind, HistogramSnapshot, MetricsSnapshot, StallReason,
};
pub use lsm_filters::{FilterKind, RangeFilterKind};
pub use lsm_index::IndexKind;
