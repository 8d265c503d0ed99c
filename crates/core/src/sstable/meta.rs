//! Table metadata and footer.
//!
//! The meta section is the table's self-description: key range, entry
//! counts, section locations, and per-data-block locations; on the device
//! it is sealed with an integrity trailer like the sections it points at.
//! The footer is a fixed 24-byte record at the start of the file's final
//! device block pointing at the meta section.

use crate::entry::{get_varint, put_varint};

/// Magic number identifying our SSTable format.
pub const TABLE_MAGIC: u64 = 0x4C534D_5353540A; // "LSM SST\n"

/// Location of one data block: starting device block and device-block count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockLocation {
    /// First device block.
    pub start_block: u64,
    /// Device blocks occupied.
    pub num_blocks: u64,
    /// Exact byte length of the encoded block (excluding padding).
    pub byte_len: u64,
}

/// A section of the file (filter / range filter / index).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Section {
    /// First device block (0 with `byte_len == 0` means absent).
    pub start_block: u64,
    /// Exact byte length, integrity trailer included (0 = absent).
    pub byte_len: u64,
}

impl Section {
    /// Whether the section exists.
    pub fn is_present(&self) -> bool {
        self.byte_len > 0
    }
}

/// Everything a reader needs to navigate the table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableMeta {
    /// Smallest user key.
    pub min_key: Vec<u8>,
    /// Largest user key.
    pub max_key: Vec<u8>,
    /// Total entries (including tombstones).
    pub num_entries: u64,
    /// Tombstone count (drives delete-aware compaction decisions).
    pub num_tombstones: u64,
    /// Largest sequence number in the table.
    pub max_seqno: u64,
    /// Per-data-block locations, in key order.
    pub data_blocks: Vec<BlockLocation>,
    /// Last user key of each data block (the fence pointers), parallel to
    /// `data_blocks`.
    pub fences: Vec<Vec<u8>>,
    /// Point-filter section.
    pub filter: Section,
    /// Range-filter section.
    pub range_filter: Section,
    /// Byte length of each filter partition within the filter section
    /// (empty = monolithic filter). Partition `i` guards data block `i`;
    /// partitions are laid out back to back from the section start, each
    /// sealed with its own integrity trailer (counted in its length).
    pub filter_partitions: Vec<u32>,
    /// Serialized filter tag this table was built with (one of the
    /// `FILTER_TAG_*` constants; 0 = no point filter). Readers trust this,
    /// not the global config, so tables built under different dynamic
    /// configurations stay readable side by side.
    pub filter_kind_tag: u8,
    /// Filter bits per key the builder used, in milli-bits (×1000).
    /// Purely informational for readers, but lets tooling and the tuner
    /// audit what allocation each table actually carries.
    pub filter_bits_milli: u64,
}

impl TableMeta {
    /// Serializes the meta section.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, self.min_key.len() as u64);
        out.extend_from_slice(&self.min_key);
        put_varint(&mut out, self.max_key.len() as u64);
        out.extend_from_slice(&self.max_key);
        put_varint(&mut out, self.num_entries);
        put_varint(&mut out, self.num_tombstones);
        put_varint(&mut out, self.max_seqno);
        put_varint(&mut out, self.data_blocks.len() as u64);
        for (loc, fence) in self.data_blocks.iter().zip(&self.fences) {
            put_varint(&mut out, loc.start_block);
            put_varint(&mut out, loc.num_blocks);
            put_varint(&mut out, loc.byte_len);
            put_varint(&mut out, fence.len() as u64);
            out.extend_from_slice(fence);
        }
        for s in [self.filter, self.range_filter] {
            put_varint(&mut out, s.start_block);
            put_varint(&mut out, s.byte_len);
        }
        put_varint(&mut out, self.filter_partitions.len() as u64);
        for &len in &self.filter_partitions {
            put_varint(&mut out, len as u64);
        }
        put_varint(&mut out, self.filter_kind_tag as u64);
        put_varint(&mut out, self.filter_bits_milli);
        out
    }

    /// Deserializes [`TableMeta::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut off = 0usize;
        let read_varint = |bytes: &[u8], off: &mut usize| -> Option<u64> {
            let (v, n) = get_varint(bytes.get(*off..)?)?;
            *off += n;
            Some(v)
        };
        // a length-prefixed byte string; a hostile length is `None`, never
        // an overflow
        let read_bytes = |bytes: &[u8], off: &mut usize| -> Option<Vec<u8>> {
            let len = usize::try_from(read_varint(bytes, off)?).ok()?;
            let end = off.checked_add(len)?;
            let out = bytes.get(*off..end)?.to_vec();
            *off = end;
            Some(out)
        };
        let min_key = read_bytes(bytes, &mut off)?;
        let max_key = read_bytes(bytes, &mut off)?;
        let num_entries = read_varint(bytes, &mut off)?;
        let num_tombstones = read_varint(bytes, &mut off)?;
        let max_seqno = read_varint(bytes, &mut off)?;
        let n_blocks = read_varint(bytes, &mut off)?;
        // each entry takes at least four one-byte varints, so a count the
        // remaining bytes cannot hold is hostile: refuse it before sizing
        // anything by it
        if n_blocks > (bytes.len() - off) as u64 / 4 {
            return None;
        }
        let n_blocks = n_blocks as usize;
        let mut data_blocks = Vec::with_capacity(n_blocks);
        let mut fences = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let start_block = read_varint(bytes, &mut off)?;
            let num_blocks = read_varint(bytes, &mut off)?;
            let byte_len = read_varint(bytes, &mut off)?;
            fences.push(read_bytes(bytes, &mut off)?);
            data_blocks.push(BlockLocation {
                start_block,
                num_blocks,
                byte_len,
            });
        }
        let mut sections = [Section::default(); 2];
        for s in sections.iter_mut() {
            s.start_block = read_varint(bytes, &mut off)?;
            s.byte_len = read_varint(bytes, &mut off)?;
        }
        let n_parts = read_varint(bytes, &mut off)? as usize;
        if n_parts > 1 << 24 {
            return None;
        }
        let mut filter_partitions = Vec::with_capacity(n_parts);
        for _ in 0..n_parts {
            filter_partitions.push(read_varint(bytes, &mut off)? as u32);
        }
        let filter_kind_tag = u8::try_from(read_varint(bytes, &mut off)?).ok()?;
        let filter_bits_milli = read_varint(bytes, &mut off)?;
        Some(TableMeta {
            min_key,
            max_key,
            num_entries,
            num_tombstones,
            max_seqno,
            data_blocks,
            fences,
            filter: sections[0],
            range_filter: sections[1],
            filter_partitions,
            filter_kind_tag,
            filter_bits_milli,
        })
    }

    /// Whether `key` is within `[min_key, max_key]`.
    pub fn key_in_range(&self, key: &[u8]) -> bool {
        key >= self.min_key.as_slice() && key <= self.max_key.as_slice()
    }
}

/// Fixed footer: `magic | meta_start_block | meta_byte_len`.
pub fn encode_footer(meta_start_block: u64, meta_byte_len: u64) -> [u8; 24] {
    let mut out = [0u8; 24];
    out[0..8].copy_from_slice(&TABLE_MAGIC.to_le_bytes());
    out[8..16].copy_from_slice(&meta_start_block.to_le_bytes());
    out[16..24].copy_from_slice(&meta_byte_len.to_le_bytes());
    out
}

/// Decodes a footer; `None` if the magic does not match.
pub fn decode_footer(bytes: &[u8]) -> Option<(u64, u64)> {
    if bytes.len() < 24 {
        return None;
    }
    let magic = u64::from_le_bytes(bytes[0..8].try_into().ok()?);
    if magic != TABLE_MAGIC {
        return None;
    }
    let start = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
    let len = u64::from_le_bytes(bytes[16..24].try_into().ok()?);
    Some((start, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TableMeta {
        TableMeta {
            min_key: b"aaa".to_vec(),
            max_key: b"zzz".to_vec(),
            num_entries: 1000,
            num_tombstones: 17,
            max_seqno: 424242,
            data_blocks: vec![
                BlockLocation {
                    start_block: 0,
                    num_blocks: 1,
                    byte_len: 4000,
                },
                BlockLocation {
                    start_block: 1,
                    num_blocks: 2,
                    byte_len: 8100,
                },
            ],
            fences: vec![b"mmm".to_vec(), b"zzz".to_vec()],
            filter: Section {
                start_block: 3,
                byte_len: 1234,
            },
            range_filter: Section::default(),
            filter_partitions: vec![600, 634],
            filter_kind_tag: 1,
            filter_bits_milli: 10_500,
        }
    }

    #[test]
    fn meta_roundtrip() {
        let m = sample();
        let back = TableMeta::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn meta_rejects_truncation() {
        let bytes = sample().to_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(TableMeta::from_bytes(&bytes[..cut]).is_none(), "cut {cut}");
        }
    }

    #[test]
    fn hostile_lengths_are_rejected_without_panicking() {
        // five zero varints (empty keys, zero counts), then a block count
        // no remaining byte count could hold
        let mut huge_count = vec![0u8; 5];
        put_varint(&mut huge_count, 1 << 61);
        assert!(TableMeta::from_bytes(&huge_count).is_none());
        // a min-key length whose end offset overflows
        let mut huge_key = Vec::new();
        put_varint(&mut huge_key, u64::MAX);
        huge_key.extend_from_slice(b"key");
        assert!(TableMeta::from_bytes(&huge_key).is_none());
    }

    #[test]
    fn footer_roundtrip() {
        let f = encode_footer(77, 8812);
        assert_eq!(decode_footer(&f), Some((77, 8812)));
    }

    #[test]
    fn footer_rejects_bad_magic() {
        let mut f = encode_footer(1, 2);
        f[0] ^= 0xFF;
        assert_eq!(decode_footer(&f), None);
        assert_eq!(decode_footer(&[0u8; 10]), None);
    }

    #[test]
    fn key_range_check() {
        let m = sample();
        assert!(m.key_in_range(b"aaa"));
        assert!(m.key_in_range(b"mmm"));
        assert!(m.key_in_range(b"zzz"));
        assert!(!m.key_in_range(b"aa"));
        assert!(!m.key_in_range(b"zzzz"));
    }

    #[test]
    fn absent_sections() {
        let m = sample();
        assert!(m.filter.is_present());
        assert!(!m.range_filter.is_present());
    }
}
