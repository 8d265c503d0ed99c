//! # lsm-cache
//!
//! Block-level caching for LSM engines (tutorial Module II.1):
//!
//! - eviction policies behind one trait: [`LruShard`], [`LfuShard`],
//!   [`ClockShard`], [`FifoShard`];
//! - a thread-safe [`ShardedCache`] front with hit/miss accounting;
//! - a key-range [`HeatMap`] plus a Leaper-style post-compaction
//!   [`prefetch`] planner, addressing the cache-invalidation-by-compaction
//!   problem the tutorial highlights (Leaper, VLDB '20).

pub mod clock;
pub mod fifo;
pub mod heat;
pub mod lfu;
pub mod lru;
pub mod prefetch;
pub mod sharded;
pub mod traits;

pub use clock::ClockShard;
pub use fifo::FifoShard;
pub use heat::HeatMap;
pub use lfu::LfuShard;
pub use lru::LruShard;
pub use prefetch::{plan_prefetch, PrefetchCandidate};
pub use sharded::{CacheStats, ShardedCache};
pub use traits::{CacheKey, CachePolicy, CacheShard};
