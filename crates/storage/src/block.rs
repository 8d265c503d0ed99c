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
    /// Bytes of `data` the block holds (see [`Block::truncate`]).
    len: usize,
}

impl Block {
    /// Wraps an owned buffer as an immutable block (one copy, into the
    /// shared allocation).
    pub fn new(data: Vec<u8>) -> Self {
        let len = data.len();
        Block {
            data: data.into(),
            len,
        }
    }

    /// A block of `len` bytes written in place by `fill` — a device read,
    /// typically. The block's one allocation is the buffer `fill` sees,
    /// which readers and the block cache then share.
    pub fn filled<E>(len: usize, fill: impl FnOnce(&mut [u8]) -> Result<(), E>) -> Result<Self, E> {
        // an exact-size iterator: the slice is allocated once, at its size
        let mut data: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        fill(Arc::get_mut(&mut data).expect("a new block is unshared"))?;
        Ok(Block { data, len })
    }

    /// Keeps only the first `len` bytes (no-op if the block is not
    /// longer) — a sealed unit dropping its verified trailer. The bytes
    /// cut stay allocated until the last clone drops.
    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    /// The block contents.
    pub fn data(&self) -> &[u8] {
        &self.data[..self.len]
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate heap footprint, used for cache charging.
    pub fn charge(&self) -> usize {
        self.len + std::mem::size_of::<Arc<[u8]>>()
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
    fn filled_block_holds_what_fill_wrote() {
        let b = Block::filled(5, |buf| {
            buf.copy_from_slice(b"hello");
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(b.data(), b"hello");
        assert_eq!(b.charge(), Block::new(b"hello".to_vec()).charge());
        assert_eq!(Block::filled(3, |_| Err("device")).unwrap_err(), "device");
    }

    #[test]
    fn truncate_shortens_the_view_and_the_charge() {
        let mut b = Block::new(b"body+crc".to_vec());
        b.truncate(4);
        assert_eq!(b.data(), b"body");
        assert_eq!(b.charge(), Block::new(b"body".to_vec()).charge());
        b.truncate(10);
        assert_eq!(b.len(), 4, "truncate never grows a block");
    }

    #[test]
    fn empty_block() {
        let b = Block::new(vec![]);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }
}
