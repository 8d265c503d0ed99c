//! WiscKey-style key-value separation (Lu et al., FAST '16; tutorial
//! Module I.2).
//!
//! Large values are appended to a value log; the LSM stores a small
//! pointer instead. Compaction then moves pointers, not payloads, slashing
//! write amplification — at the price of one extra storage access per read
//! of a separated value, and of scans losing value locality.
//!
//! Value encoding inside the LSM (only when separation is enabled):
//! `[0x00, inline bytes…]` or `[0x01, file_id u64, offset u64, len u32]`.

use std::sync::Arc;

use lsm_storage::{FileId, IoCategory, StorageDevice, StorageResult, WritableFile};

use crate::entry::{get_varint, put_varint};

const INLINE_TAG: u8 = 0x00;
const POINTER_TAG: u8 = 0x01;

/// A pointer into the value log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValuePointer {
    /// Value-log file.
    pub file: FileId,
    /// Byte offset of the record.
    pub offset: u64,
    /// Total record length in bytes.
    pub len: u32,
}

/// Wraps raw bytes as an inline value (separation enabled, small value).
pub fn encode_inline(value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(value.len() + 1);
    out.push(INLINE_TAG);
    out.extend_from_slice(value);
    out
}

/// Encodes a value-log pointer.
pub fn encode_pointer(ptr: ValuePointer) -> Vec<u8> {
    let mut out = Vec::with_capacity(21);
    out.push(POINTER_TAG);
    out.extend_from_slice(&ptr.file.0.to_le_bytes());
    out.extend_from_slice(&ptr.offset.to_le_bytes());
    out.extend_from_slice(&ptr.len.to_le_bytes());
    out
}

/// Decodes an engine value: `Ok(inline bytes)` or `Err(pointer)`.
/// `None` on corrupt encodings.
pub fn decode_value(raw: &[u8]) -> Option<Result<&[u8], ValuePointer>> {
    let (&tag, rest) = raw.split_first()?;
    match tag {
        INLINE_TAG => Some(Ok(rest)),
        POINTER_TAG => {
            if rest.len() != 20 {
                return None;
            }
            Some(Err(ValuePointer {
                file: FileId(u64::from_le_bytes(rest[0..8].try_into().ok()?)),
                offset: u64::from_le_bytes(rest[8..16].try_into().ok()?),
                len: u32::from_le_bytes(rest[16..20].try_into().ok()?),
            }))
        }
        _ => None,
    }
}

/// Resolves a pointer against any live log file via the device directly —
/// used for pointers into logs recovered from a previous session (only
/// device-resident bytes are readable; a pointer past the persisted length
/// reports corruption, matching torn-tail semantics).
pub fn read_pointer_from_device(
    device: &Arc<dyn StorageDevice>,
    ptr: ValuePointer,
) -> StorageResult<Vec<u8>> {
    let bs = device.block_size() as u64;
    // A dangling pointer (log file gone, e.g. GC'd or lost in a crash) is a
    // data-level corruption, not an engine bug: surface it as such.
    let len_blocks = device.len_blocks(ptr.file).map_err(|e| match e {
        lsm_storage::StorageError::UnknownFile(id) => lsm_storage::StorageError::Corruption(
            format!("value-log pointer dangles: file f{id} does not exist"),
        ),
        other => other,
    })?;
    let end = ptr.offset + ptr.len as u64;
    if end > len_blocks * bs {
        return Err(lsm_storage::StorageError::Corruption(
            "value-log pointer past persisted length".into(),
        ));
    }
    let first = ptr.offset / bs;
    let last = (end - 1) / bs;
    let raw = device.read(ptr.file, first, last - first + 1, IoCategory::ValueLog)?;
    let start = (ptr.offset - first * bs) as usize;
    let record = &raw[start..start + ptr.len as usize];
    ValueLog::decode_record(record)
        .map(|(_, v)| v.to_vec())
        .ok_or_else(|| lsm_storage::StorageError::Corruption("bad vlog record".into()))
}

/// The append-only value log.
///
/// Reads must work against the *unsealed* active log, but the device holds
/// only the blocks written so far; the rest is the file's buffered bytes.
pub struct ValueLog {
    device: Arc<dyn StorageDevice>,
    file: WritableFile,
    /// Live-value bytes (for the garbage ratio).
    live_bytes: u64,
}

impl ValueLog {
    /// Opens a fresh value log.
    pub fn create(device: Arc<dyn StorageDevice>) -> StorageResult<Self> {
        let file = WritableFile::create(Arc::clone(&device), IoCategory::ValueLog)?;
        Ok(ValueLog {
            device,
            file,
            live_bytes: 0,
        })
    }

    /// The log's file id.
    pub fn id(&self) -> FileId {
        self.file.id()
    }

    /// Total appended bytes, with the zeros that close a synced block
    /// the next record did not fit in.
    pub fn len(&self) -> u64 {
        self.file.offset()
    }

    /// Whether nothing was appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of appended bytes no longer referenced (0 when empty).
    pub fn garbage_ratio(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            1.0 - self.live_bytes as f64 / self.len() as f64
        }
    }

    /// Informs the log that `bytes` of previously-live data were
    /// overwritten or deleted.
    pub fn mark_dead(&mut self, bytes: u64) {
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
    }

    /// Appends a `(key, value)` record; returns its pointer.
    pub fn append(&mut self, key: &[u8], value: &[u8]) -> StorageResult<ValuePointer> {
        let mut record = Vec::with_capacity(key.len() + value.len() + 10);
        put_varint(&mut record, key.len() as u64);
        put_varint(&mut record, value.len() as u64);
        record.extend_from_slice(key);
        record.extend_from_slice(value);
        let offset = self.file.append(&record)?;
        self.live_bytes += record.len() as u64;
        Ok(ValuePointer {
            file: self.id(),
            offset,
            len: record.len() as u32,
        })
    }

    /// Makes every record so far readable directly from the device
    /// (snapshots resolve pointers without access to the buffered bytes)
    /// and durable. The zeros that close a synced block are skipped by
    /// [`ValueLog::scan_all`].
    pub fn sync(&mut self) -> StorageResult<()> {
        self.file.sync()
    }

    /// Bytes of the log the device holds: everything before the buffered
    /// bytes.
    fn device_bytes(&self) -> u64 {
        self.len() - self.file.buffered().len() as u64
    }

    /// Reads the record at `ptr` (from this log) and returns its value.
    pub fn read(&self, ptr: ValuePointer) -> StorageResult<Vec<u8>> {
        debug_assert_eq!(ptr.file, self.id(), "pointer into a different log");
        let bs = self.device.block_size() as u64;
        let device_bytes = self.device_bytes();
        let mut record = Vec::with_capacity(ptr.len as usize);
        let end = ptr.offset + ptr.len as u64;
        // device part
        if ptr.offset < device_bytes {
            let dev_end = end.min(device_bytes);
            let first_block = ptr.offset / bs;
            let last_block = (dev_end - 1) / bs;
            let raw = self.device.read(
                self.file.id(),
                first_block,
                last_block - first_block + 1,
                IoCategory::ValueLog,
            )?;
            let start = (ptr.offset - first_block * bs) as usize;
            let take = (dev_end - ptr.offset) as usize;
            record.extend_from_slice(&raw[start..start + take]);
        }
        // buffered part
        if end > device_bytes {
            let from = (ptr.offset.max(device_bytes) - device_bytes) as usize;
            let to = (end - device_bytes) as usize;
            record.extend_from_slice(&self.file.buffered()[from..to]);
        }
        Self::decode_record(&record)
            .map(|(_, v)| v.to_vec())
            .ok_or_else(|| lsm_storage::StorageError::Corruption("bad vlog record".into()))
    }

    /// Splits a record into `(key, value)`; `None` unless its header's
    /// lengths add up to exactly `record.len()`, so a pointer into bytes
    /// that never reached the device (the zeros of a synced block) reads
    /// as corruption, not as an empty value.
    pub(crate) fn decode_record(record: &[u8]) -> Option<(&[u8], &[u8])> {
        let (klen, n) = get_varint(record)?;
        let (vlen, m) = get_varint(&record[n..])?;
        let key_start = n + m;
        let key_end = key_start.checked_add(klen as usize)?;
        if key_end.checked_add(vlen as usize)? != record.len() {
            return None;
        }
        Some((&record[key_start..key_end], &record[key_end..]))
    }

    /// Reads back every record `(key, value, pointer)` — used by GC.
    #[allow(clippy::type_complexity)]
    pub fn scan_all(&self) -> StorageResult<Vec<(Vec<u8>, Vec<u8>, ValuePointer)>> {
        let bs = self.device.block_size() as u64;
        let device_bytes = self.device_bytes();
        let mut bytes = if device_bytes > 0 {
            self.device.read(
                self.file.id(),
                0,
                device_bytes.div_ceil(bs),
                IoCategory::ValueLog,
            )?
        } else {
            Vec::new()
        };
        bytes.truncate(device_bytes as usize);
        bytes.extend_from_slice(self.file.buffered());
        let mut out = Vec::new();
        let mut off = 0usize;
        let bs_usize = bs as usize;
        while off < bytes.len() {
            let Some((klen, n)) = get_varint(&bytes[off..]) else { break };
            let Some((vlen, m)) = get_varint(&bytes[off + n..]) else { break };
            if klen == 0 && vlen == 0 {
                // the zeros closing a synced block (real records always
                // carry a value)
                off = (off / bs_usize + 1) * bs_usize;
                continue;
            }
            let total = n + m + klen as usize + vlen as usize;
            let Some(record) = bytes.get(off..off + total) else { break };
            let Some((key, value)) = Self::decode_record(record) else {
                return Err(lsm_storage::StorageError::Corruption(
                    "undecodable value-log record during scan".into(),
                ));
            };
            out.push((
                key.to_vec(),
                value.to_vec(),
                ValuePointer {
                    file: self.id(),
                    offset: off as u64,
                    len: total as u32,
                },
            ));
            off += total;
        }
        Ok(out)
    }

    /// Seals and deletes the log file (after GC rewrote the live values).
    pub fn destroy(self) -> StorageResult<()> {
        let file = self.file.seal()?;
        file.delete()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_storage::{DeviceProfile, MemDevice};

    fn device() -> Arc<dyn StorageDevice> {
        Arc::new(MemDevice::new(512, DeviceProfile::free()))
    }

    #[test]
    fn encoding_roundtrip() {
        let inline = encode_inline(b"hello");
        assert_eq!(decode_value(&inline), Some(Ok(b"hello".as_slice())));
        let ptr = ValuePointer {
            file: FileId(7),
            offset: 12345,
            len: 99,
        };
        let enc = encode_pointer(ptr);
        assert_eq!(decode_value(&enc), Some(Err(ptr)));
        assert_eq!(decode_value(&[]), None);
        assert_eq!(decode_value(&[9, 9]), None);
        assert_eq!(decode_value(&[POINTER_TAG, 1, 2]), None);
    }

    #[test]
    fn append_then_read_small_and_large() {
        let mut log = ValueLog::create(device()).unwrap();
        let p1 = log.append(b"k1", b"small").unwrap();
        let big = vec![0xCD; 5000];
        let p2 = log.append(b"k2", &big).unwrap();
        let p3 = log.append(b"k3", b"tail-resident").unwrap();
        assert_eq!(log.read(p1).unwrap(), b"small".to_vec());
        assert_eq!(log.read(p2).unwrap(), big);
        assert_eq!(log.read(p3).unwrap(), b"tail-resident".to_vec());
    }

    #[test]
    fn read_spanning_device_and_tail() {
        let mut log = ValueLog::create(device()).unwrap();
        // fill just under one block, then append a record that straddles
        log.append(b"pad", &vec![1u8; 490]).unwrap();
        let p = log.append(b"straddle", &[2u8; 100]).unwrap();
        assert_eq!(log.read(p).unwrap(), vec![2u8; 100]);
    }

    #[test]
    fn scan_all_returns_everything_in_order() {
        let mut log = ValueLog::create(device()).unwrap();
        let mut ptrs = Vec::new();
        for i in 0..50u32 {
            ptrs.push(
                log.append(format!("key{i}").as_bytes(), format!("value{i}").as_bytes())
                    .unwrap(),
            );
        }
        let all = log.scan_all().unwrap();
        assert_eq!(all.len(), 50);
        for (i, (k, v, p)) in all.iter().enumerate() {
            assert_eq!(k, format!("key{i}").as_bytes());
            assert_eq!(v, format!("value{i}").as_bytes());
            assert_eq!(*p, ptrs[i]);
        }
    }

    #[test]
    fn sync_keeps_pointers_and_scan_consistent() {
        let mut log = ValueLog::create(device()).unwrap();
        let p1 = log.append(b"a", &[1u8; 100]).unwrap();
        log.sync().unwrap();
        // does not fit in the synced block's rest: starts the next block
        let p2 = log.append(b"b", &[2u8; 450]).unwrap();
        assert_eq!(p2.offset, 512);
        log.sync().unwrap();
        assert_eq!(log.read(p1).unwrap(), vec![1u8; 100]);
        assert_eq!(log.read(p2).unwrap(), vec![2u8; 450]);
        let all = log.scan_all().unwrap();
        assert_eq!(all.len(), 2, "the zeros closing a synced block must be skipped by scan");
        assert_eq!(all[0].2, p1);
        assert_eq!(all[1].2, p2);
    }

    /// A record appended after a sync sits in the synced block, which the
    /// device holds zero-padded until the next write: a pointer to it read
    /// from the device alone finds zeros, and that is corruption, not an
    /// empty value.
    #[test]
    fn a_pointer_into_a_synced_blocks_zeros_is_corruption() {
        let dev = device();
        let mut log = ValueLog::create(dev.clone()).unwrap();
        let synced = log.append(b"a", &[1u8; 100]).unwrap();
        log.sync().unwrap();
        let buffered = log.append(b"b", &[2u8; 100]).unwrap();
        assert_eq!(buffered.offset, synced.offset + synced.len as u64, "records stay packed");
        assert_eq!(read_pointer_from_device(&dev, synced).unwrap(), vec![1u8; 100]);
        assert_eq!(log.read(buffered).unwrap(), vec![2u8; 100]);
        assert!(matches!(
            read_pointer_from_device(&dev, buffered),
            Err(lsm_storage::StorageError::Corruption(_))
        ));
        log.sync().unwrap();
        assert_eq!(read_pointer_from_device(&dev, buffered).unwrap(), vec![2u8; 100]);
    }

    #[test]
    fn garbage_ratio_tracks_dead_bytes() {
        let mut log = ValueLog::create(device()).unwrap();
        let p1 = log.append(b"a", &[0u8; 100]).unwrap();
        let _p2 = log.append(b"b", &[0u8; 100]).unwrap();
        assert_eq!(log.garbage_ratio(), 0.0);
        log.mark_dead(p1.len as u64);
        assert!((log.garbage_ratio() - 0.5).abs() < 0.01);
    }

    #[test]
    fn dangling_pointer_reports_corruption() {
        let dev = device();
        let ptr = ValuePointer {
            file: FileId(9999),
            offset: 0,
            len: 10,
        };
        match read_pointer_from_device(&dev, ptr) {
            Err(lsm_storage::StorageError::Corruption(msg)) => {
                assert!(msg.contains("dangles"), "{msg}");
            }
            other => panic!("expected Corruption, got {other:?}"),
        }
    }

    #[test]
    fn destroy_frees_the_file() {
        let dev = device();
        let mut log = ValueLog::create(dev.clone()).unwrap();
        log.append(b"k", &vec![0u8; 2000]).unwrap();
        let before = dev.live_files().len();
        log.destroy().unwrap();
        assert_eq!(dev.live_files().len(), before - 1);
    }
}
