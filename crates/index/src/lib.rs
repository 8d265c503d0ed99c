//! # lsm-index
//!
//! The per-run index structures the tutorial's Modules II.1 and II.4
//! survey, all answering the same question — *which block of a sorted run
//! may hold this key?* — with different memory/CPU tradeoffs:
//!
//! - [`fence`]: classic fence pointers (one min/max key per block, a
//!   special form of Zonemaps), the baseline every LSM engine ships;
//! - [`sparse`]: sparse key samples with a configurable sampling rate,
//!   trading memory for an extra intra-gap scan;
//! - [`block_hash`]: RocksDB-style in-block hash index that replaces the
//!   binary search *inside* a data block with an O(1) lookup;
//! - [`learned`]: a learned replacement for fence pointers — a
//!   bounded-error piecewise-linear model (PGM-style) exploiting the
//!   immutability of LSM runs (single-pass build, no inserts needed).
//!
//! [`traits::BlockLocator`] unifies them so the engine treats the index
//! choice as one configuration axis.

pub mod block_hash;
pub mod fence;
pub mod learned;
pub mod sparse;
pub mod traits;

pub use block_hash::BlockHashIndex;
pub use fence::FencePointers;
pub use learned::pla::{PlaIndex, PlaSegment};
pub use sparse::SparseIndex;
pub use traits::{BlockLocator, IndexKind};
