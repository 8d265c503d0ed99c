//! SSTable builder: turns a sorted entry stream into an immutable file.
//!
//! Entries are cut into prefix-compressed data blocks aligned to device
//! blocks; the filter, range-filter, and meta sections each start on a
//! block boundary and are charged to their own I/O category, so the
//! experiment suite can attribute every written byte. Every unit a reader
//! fetches separately — data block, monolithic filter or filter
//! partition, range filter, meta — is sealed with an integrity trailer.

use lsm_filters::serialize::SerializableRangeFilter;
use lsm_filters::{FilterKind, RangeFilterKind};
use lsm_storage::{IoCategory, StorageDevice, StorageResult, WritableFile};

use std::sync::Arc;

use crate::config::LsmConfig;
use crate::entry::ValueKind;
use crate::integrity;
use crate::sstable::block::{BlockBuilder, KeyList};
use crate::sstable::meta::{encode_footer, BlockLocation, Section, TableMeta};

/// Filter-section tag bytes.
pub(crate) const FILTER_TAG_BLOOM: u8 = 1;
pub(crate) const FILTER_TAG_BLOCKED: u8 = 2;
pub(crate) const FILTER_TAG_CUCKOO: u8 = 3;
pub(crate) const FILTER_TAG_XOR: u8 = 4;
pub(crate) const FILTER_TAG_RIBBON: u8 = 5;

/// Builds one SSTable.
pub struct TableBuilder {
    file: WritableFile,
    block_size: usize,
    filter_kind: FilterKind,
    partitioned_filters: bool,
    bits_per_key: f64,
    range_filter_kind: RangeFilterKind,
    block: BlockBuilder,
    first_key: Option<Vec<u8>>,
    last_key: Vec<u8>,
    fences: Vec<Vec<u8>>,
    data_blocks: Vec<BlockLocation>,
    /// Every key, for the monolithic point filter and the range filter.
    keys: KeyList,
    /// Keys of the block currently being built (partitioned filters).
    block_keys: KeyList,
    /// Serialized, sealed filter partitions back to back, one per cut
    /// block, and each one's length.
    partitions: Vec<u8>,
    partition_lens: Vec<u32>,
    num_entries: u64,
    num_tombstones: u64,
    max_seqno: u64,
}

impl TableBuilder {
    /// Starts a new table on `device` using `cfg`'s format knobs.
    /// `bits_per_key` is passed separately so Monkey allocation can give
    /// each level its own budget.
    pub fn new(
        device: Arc<dyn StorageDevice>,
        cfg: &LsmConfig,
        bits_per_key: f64,
    ) -> StorageResult<Self> {
        let file = WritableFile::create(device, IoCategory::Data)?;
        Ok(TableBuilder {
            file,
            block_size: cfg.block_size,
            filter_kind: cfg.filter,
            partitioned_filters: cfg.partitioned_filters && cfg.filter != FilterKind::None,
            bits_per_key,
            range_filter_kind: cfg.range_filter,
            block: BlockBuilder::new(cfg.restart_interval, cfg.block_hash_index),
            first_key: None,
            last_key: Vec::new(),
            fences: Vec::new(),
            data_blocks: Vec::new(),
            keys: KeyList::default(),
            block_keys: KeyList::default(),
            partitions: Vec::new(),
            partition_lens: Vec::new(),
            num_entries: 0,
            num_tombstones: 0,
            max_seqno: 0,
        })
    }

    /// File id of the table being built.
    pub fn file_id(&self) -> lsm_storage::FileId {
        self.file.id()
    }

    /// Appends an entry; keys must be strictly ascending.
    pub fn add(
        &mut self,
        key: &[u8],
        seqno: u64,
        kind: ValueKind,
        value: &[u8],
    ) -> StorageResult<()> {
        if self.first_key.is_none() {
            self.first_key = Some(key.to_vec());
        }
        self.block.add(key, seqno, kind, value);
        if self.partitioned_filters {
            self.block_keys.push(key);
        }
        // range filters stay monolithic, so they keep the full key list too
        if !self.partitioned_filters || self.range_filter_kind != RangeFilterKind::None {
            self.keys.push(key);
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.num_entries += 1;
        if kind == ValueKind::Delete {
            self.num_tombstones += 1;
        }
        self.max_seqno = self.max_seqno.max(seqno);
        if self.block.estimated_size() >= self.block_size.saturating_sub(64) {
            self.cut_block()?;
        }
        Ok(())
    }

    /// Bytes of data appended so far (block-granular estimate).
    pub fn estimated_file_bytes(&self) -> usize {
        self.file.offset() as usize + self.block.estimated_size()
    }

    /// Entries appended so far.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.num_entries == 0
    }

    fn cut_block(&mut self) -> StorageResult<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let fence = self.block.last_key().to_vec();
        let start_block = self.file.offset() / self.block_size as u64;
        debug_assert_eq!(self.file.offset() % self.block_size as u64, 0);
        let file = &mut self.file;
        let byte_len = self.block.finish_with(|bytes| -> StorageResult<u64> {
            file.append(bytes)?;
            file.pad_to_block()?;
            Ok(bytes.len() as u64)
        })?;
        self.data_blocks.push(BlockLocation {
            start_block,
            num_blocks: byte_len.div_ceil(self.block_size as u64),
            byte_len,
        });
        self.fences.push(fence);
        if self.partitioned_filters {
            let refs: Vec<&[u8]> = self.block_keys.iter().collect();
            let part = match self.filter_kind.build_refs(&refs, self.bits_per_key) {
                Some(f) => Self::tag_filter(self.filter_kind, f.as_ref()),
                None => Vec::new(),
            };
            self.partitions.extend_from_slice(&part);
            self.partition_lens.push(part.len() as u32);
            self.block_keys.clear();
        }
        Ok(())
    }

    /// One separately-read point-filter unit (the monolithic filter or one
    /// partition): tag byte, filter bytes, integrity trailer.
    fn tag_filter(kind: FilterKind, f: &dyn lsm_filters::PointFilter) -> Vec<u8> {
        let tag = match kind {
            FilterKind::Bloom => FILTER_TAG_BLOOM,
            FilterKind::BlockedBloom => FILTER_TAG_BLOCKED,
            FilterKind::Cuckoo => FILTER_TAG_CUCKOO,
            FilterKind::Xor => FILTER_TAG_XOR,
            FilterKind::Ribbon => FILTER_TAG_RIBBON,
            FilterKind::None => unreachable!("tagging a missing filter"),
        };
        let mut b = vec![tag];
        b.extend_from_slice(&f.to_bytes());
        integrity::seal(&mut b);
        b
    }

    fn write_section(&mut self, bytes: &[u8], cat: IoCategory) -> StorageResult<Section> {
        if bytes.is_empty() {
            return Ok(Section::default());
        }
        self.file.set_category(cat);
        let start_block = self.file.offset() / self.block_size as u64;
        self.file.append(bytes)?;
        self.file.pad_to_block()?;
        Ok(Section {
            start_block,
            byte_len: bytes.len() as u64,
        })
    }

    /// Finishes the table: writes filter/range-filter/meta sections plus
    /// the footer, seals the file, and returns it with its metadata.
    pub fn finish(mut self) -> StorageResult<(lsm_storage::ImmutableFile, TableMeta)> {
        self.cut_block()?;
        // point filter: monolithic, or concatenated per-block partitions
        let key_refs: Vec<&[u8]> = self.keys.iter().collect();
        let filter_partitions = std::mem::take(&mut self.partition_lens);
        let filter_bytes = if self.partitioned_filters {
            std::mem::take(&mut self.partitions)
        } else {
            match self.filter_kind.build_refs(&key_refs, self.bits_per_key) {
                Some(f) => Self::tag_filter(self.filter_kind, f.as_ref()),
                None => Vec::new(),
            }
        };
        // range filter (keys are already sorted and unique)
        let range_bytes =
            match SerializableRangeFilter::build(self.range_filter_kind, &key_refs, self.bits_per_key)
            {
                Some(f) => {
                    let mut b = f.to_bytes();
                    integrity::seal(&mut b);
                    b
                }
                None => Vec::new(),
            };
        let filter = self.write_section(&filter_bytes, IoCategory::Filter)?;
        let range_filter = self.write_section(&range_bytes, IoCategory::Filter)?;
        // meta + footer
        let meta = TableMeta {
            min_key: self.first_key.clone().unwrap_or_default(),
            max_key: self.last_key.clone(),
            num_entries: self.num_entries,
            num_tombstones: self.num_tombstones,
            max_seqno: self.max_seqno,
            data_blocks: std::mem::take(&mut self.data_blocks),
            fences: std::mem::take(&mut self.fences),
            filter,
            range_filter,
            filter_partitions,
            filter_kind_tag: match self.filter_kind {
                FilterKind::None => 0,
                FilterKind::Bloom => FILTER_TAG_BLOOM,
                FilterKind::BlockedBloom => FILTER_TAG_BLOCKED,
                FilterKind::Cuckoo => FILTER_TAG_CUCKOO,
                FilterKind::Xor => FILTER_TAG_XOR,
                FilterKind::Ribbon => FILTER_TAG_RIBBON,
            },
            filter_bits_milli: (self.bits_per_key * 1000.0).round().max(0.0) as u64,
        };
        let mut meta_bytes = meta.to_bytes();
        integrity::seal(&mut meta_bytes);
        let meta_section = self.write_section(&meta_bytes, IoCategory::Index)?;
        self.file.set_category(IoCategory::Misc);
        self.file.append(&encode_footer(
            meta_section.start_block,
            meta_section.byte_len,
        ))?;
        let file = self.file.seal()?;
        Ok((file, meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::block::BlockIter;
    use lsm_storage::{DeviceProfile, MemDevice};

    fn device(block_size: usize) -> Arc<dyn StorageDevice> {
        Arc::new(MemDevice::new(block_size, DeviceProfile::free()))
    }

    fn cfg() -> LsmConfig {
        LsmConfig {
            block_size: 512,
            ..LsmConfig::small_for_tests()
        }
    }

    #[test]
    fn builds_multi_block_table() {
        let dev = device(512);
        let mut b = TableBuilder::new(dev.clone(), &cfg(), 10.0).unwrap();
        for i in 0..500u32 {
            b.add(
                format!("key{i:06}").as_bytes(),
                i as u64,
                ValueKind::Put,
                format!("value{i:06}").as_bytes(),
            )
            .unwrap();
        }
        let (file, meta) = b.finish().unwrap();
        assert!(meta.data_blocks.len() > 1, "expected multiple data blocks");
        assert_eq!(meta.num_entries, 500);
        assert_eq!(meta.min_key, b"key000000".to_vec());
        assert_eq!(meta.max_key, b"key000499".to_vec());
        assert_eq!(meta.fences.len(), meta.data_blocks.len());
        assert!(meta.filter.is_present());
        assert!(file.len_blocks() > 2);
        // read the first data block back and decode it
        let loc = meta.data_blocks[0];
        let raw = file
            .read_blocks(loc.start_block, loc.num_blocks, IoCategory::Data)
            .unwrap();
        let mut it = BlockIter::new(&raw[..loc.byte_len as usize]).unwrap();
        let first = it.next_entry().unwrap();
        assert_eq!(first.key, b"key000000".to_vec());
    }

    #[test]
    fn footer_points_at_meta() {
        use crate::sstable::meta::decode_footer;
        let dev = device(512);
        let mut b = TableBuilder::new(dev.clone(), &cfg(), 10.0).unwrap();
        b.add(b"a", 1, ValueKind::Put, b"v").unwrap();
        let (file, meta) = b.finish().unwrap();
        let last = file
            .read_blocks(file.len_blocks() - 1, 1, IoCategory::Misc)
            .unwrap();
        let (meta_start, meta_len) = decode_footer(&last).unwrap();
        let meta_bytes = file
            .read_bytes(meta_start * 512, meta_len as usize, IoCategory::Index)
            .unwrap();
        let body = integrity::unseal(&meta_bytes).expect("meta section is sealed");
        assert_eq!(TableMeta::from_bytes(body).unwrap(), meta);
    }

    #[test]
    fn tombstones_are_counted() {
        let dev = device(512);
        let mut b = TableBuilder::new(dev, &cfg(), 10.0).unwrap();
        b.add(b"a", 1, ValueKind::Put, b"v").unwrap();
        b.add(b"b", 2, ValueKind::Delete, b"").unwrap();
        b.add(b"c", 3, ValueKind::Delete, b"").unwrap();
        let (_, meta) = b.finish().unwrap();
        assert_eq!(meta.num_tombstones, 2);
        assert_eq!(meta.max_seqno, 3);
    }

    #[test]
    fn footer_records_filter_parameters() {
        let dev = device(512);
        let mut b = TableBuilder::new(dev, &cfg(), 7.25).unwrap();
        b.add(b"a", 1, ValueKind::Put, b"v").unwrap();
        let (_, meta) = b.finish().unwrap();
        assert_eq!(meta.filter_kind_tag, FILTER_TAG_BLOOM);
        assert_eq!(meta.filter_bits_milli, 7250);

        let dev = device(512);
        let mut config = cfg();
        config.filter = FilterKind::None;
        let mut b = TableBuilder::new(dev, &config, 10.0).unwrap();
        b.add(b"a", 1, ValueKind::Put, b"v").unwrap();
        let (_, meta) = b.finish().unwrap();
        assert_eq!(meta.filter_kind_tag, 0);
    }

    #[test]
    fn no_filter_kind_writes_no_filter_section() {
        let dev = device(512);
        let mut config = cfg();
        config.filter = FilterKind::None;
        let mut b = TableBuilder::new(dev, &config, 10.0).unwrap();
        b.add(b"a", 1, ValueKind::Put, b"v").unwrap();
        let (_, meta) = b.finish().unwrap();
        assert!(!meta.filter.is_present());
    }

    #[test]
    fn range_filter_section_written_when_configured() {
        let dev = device(512);
        let mut config = cfg();
        config.range_filter = RangeFilterKind::Surf { suffix_bits: 8 };
        let mut b = TableBuilder::new(dev, &config, 10.0).unwrap();
        for i in 0..50u32 {
            b.add(format!("k{i:04}").as_bytes(), i as u64, ValueKind::Put, b"v")
                .unwrap();
        }
        let (_, meta) = b.finish().unwrap();
        assert!(meta.range_filter.is_present());
    }

    #[test]
    fn io_categories_attributed() {
        let dev: Arc<MemDevice> = Arc::new(MemDevice::new(512, DeviceProfile::free()));
        let dev_dyn: Arc<dyn StorageDevice> = dev.clone();
        let mut b = TableBuilder::new(dev_dyn, &cfg(), 10.0).unwrap();
        for i in 0..200u32 {
            b.add(format!("key{i:06}").as_bytes(), i as u64, ValueKind::Put, &[0u8; 32])
                .unwrap();
        }
        let _ = b.finish().unwrap();
        let snap = dev.stats().snapshot();
        assert!(snap.category(IoCategory::Data).written_blocks > 0);
        assert!(snap.category(IoCategory::Filter).written_blocks > 0);
        assert!(snap.category(IoCategory::Index).written_blocks > 0);
        assert!(snap.category(IoCategory::Misc).written_blocks > 0);
    }

    #[test]
    fn large_value_spans_multiple_device_blocks() {
        let dev = device(512);
        let mut b = TableBuilder::new(dev, &cfg(), 10.0).unwrap();
        let big = vec![7u8; 3000];
        b.add(b"big", 1, ValueKind::Put, &big).unwrap();
        b.add(b"small", 2, ValueKind::Put, b"v").unwrap();
        let (file, meta) = b.finish().unwrap();
        assert!(meta.data_blocks[0].num_blocks > 1);
        let loc = meta.data_blocks[0];
        let raw = file
            .read_blocks(loc.start_block, loc.num_blocks, IoCategory::Data)
            .unwrap();
        let mut it = BlockIter::new(&raw[..loc.byte_len as usize]).unwrap();
        assert_eq!(it.next_entry().unwrap().value, big);
    }
}
