//! Fixed-size block abstraction.
//!
//! LSM files are read and written in whole blocks; the block size is the
//! unit of every I/O statistic in the experiment suite. The tutorial's cost
//! models count "storage accesses", which we define as one block transfer.
//! Writers cut their bytes into blocks in [`crate::WritableFile`]; this
//! module holds the immutable, shared [`Block`] that readers and the block
//! cache pass around.

use std::sync::Arc;

/// Default block size, matching the common 4 KiB page used by LevelDB/RocksDB
/// data blocks and by the tutorial's cost models.
pub const DEFAULT_BLOCK_SIZE: usize = 4096;

/// An immutable, reference-counted block of data read from a device.
///
/// Blocks are shared between the block cache and readers without copying.
#[derive(Clone, Debug)]
pub struct Block {
    data: Arc<[u8]>,
}

impl Block {
    /// Wraps an owned buffer as an immutable block.
    pub fn new(data: Vec<u8>) -> Self {
        Block { data: data.into() }
    }

    /// The block contents.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the block holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Approximate heap footprint, used for cache charging.
    pub fn charge(&self) -> usize {
        self.data.len() + std::mem::size_of::<Arc<[u8]>>()
    }
}

impl From<Vec<u8>> for Block {
    fn from(v: Vec<u8>) -> Self {
        Block::new(v)
    }
}

impl AsRef<[u8]> for Block {
    fn as_ref(&self) -> &[u8] {
        self.data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_shares_without_copy() {
        let b = Block::new(vec![1, 2, 3]);
        let c = b.clone();
        assert_eq!(b.data(), c.data());
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert!(b.charge() >= 3);
    }

    #[test]
    fn empty_block() {
        let b = Block::new(vec![]);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }
}
