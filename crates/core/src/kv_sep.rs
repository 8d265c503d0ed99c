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
//!
//! A value-log record is one of the engine's log frames (`frame.rs`, the
//! WAL's too): `[0xB7, varint payload length, checksum32(payload),
//! payload]`, with the payload `[varint key length, key, value]`. A
//! pointer covers the whole frame, so every read of a value verifies its
//! checksum; a mismatch is `StorageError::Corruption`, counted in the
//! device's `corruption_detected`. GC reads the log back with the frame
//! scanner, which skips the zeros a sync left at a block's end, one
//! bounded window of blocks at a time.
//!
//! A log lives and dies like a table: the version holds a [`LogFile`] on
//! every log a pointer may name, and GC marks one it emptied obsolete
//! (DESIGN.md, "Value-log lifetime").

use std::sync::Arc;

use lsm_obs::Gauge;
use lsm_storage::{FileId, IoCategory, StorageDevice, StorageError, StorageResult, WritableFile};

use crate::entry::{get_varint, put_varint, varint_len};
use crate::frame::{self, frame_len, put_frame, Damage, Frames};
use crate::version::Obsolete;

const INLINE_TAG: u8 = 0x00;
const POINTER_TAG: u8 = 0x01;
/// Marks a value-log record's frame.
pub(crate) const RECORD_MARKER: u8 = 0xB7;
/// Bytes of a retiring log GC reads at a time, rounded down to whole
/// blocks (at least one); a record that crosses a window's end extends
/// the window.
const SCAN_WINDOW_BYTES: usize = 64 * 1024;

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
/// used for pointers into retiring logs, and by snapshots (only
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
        StorageError::UnknownFile(id) => StorageError::Corruption(
            format!("value-log pointer dangles: file f{id} does not exist"),
        ),
        other => other,
    })?;
    if ptr.offset + ptr.len as u64 > len_blocks * bs {
        return Err(StorageError::Corruption(
            "value-log pointer past persisted length".into(),
        ));
    }
    let mut record = vec![0u8; ptr.len as usize];
    device.read_into(ptr.file, ptr.offset, &mut record, IoCategory::ValueLog)?;
    value_of(&**device, &record)
}

/// The value in `record`, the bytes a pointer covers: they must be exactly
/// one intact record frame. Anything else is corruption, counted on
/// `device`.
fn value_of(device: &dyn StorageDevice, record: &[u8]) -> StorageResult<Vec<u8>> {
    frame::decode(record, 0, &[RECORD_MARKER])
        .ok()
        .filter(|f| f.len == record.len())
        .and_then(|f| split_payload(f.payload))
        .map(|(_, value)| value.to_vec())
        .ok_or_else(|| corruption(device, "value-log record fails its frame"))
}

/// Splits a record's verified payload into its key and value.
fn split_payload(payload: &[u8]) -> Option<(&[u8], &[u8])> {
    let (klen, n) = get_varint(payload)?;
    let key_end = n.checked_add(usize::try_from(klen).ok()?)?;
    Some((payload.get(n..key_end)?, &payload[key_end..]))
}

/// Counts a detected corruption on `device` and returns its error.
fn corruption(device: &dyn StorageDevice, what: &str) -> StorageError {
    device.stats().record_corruption();
    StorageError::Corruption(what.into())
}

/// Whether file `id` holds value-log records (`frame::holds_frames`,
/// the probe the orphan sweep runs over both logs' markers at once).
pub fn holds_records(device: &Arc<dyn StorageDevice>, id: FileId) -> bool {
    frame::holds_frames(device, id, &[RECORD_MARKER])
}

/// A value log's file as a version holds it: its lifetime, not its
/// bytes, which are read through the device (or the active [`ValueLog`]).
pub struct LogFile {
    device: Arc<dyn StorageDevice>,
    id: FileId,
    /// Set when GC has emptied the log.
    obsolete: Obsolete,
}

impl LogFile {
    /// A handle on log `id`, which must exist: a manifest naming a
    /// missing log is rejected, as one naming a missing table is.
    pub fn open(device: Arc<dyn StorageDevice>, id: FileId) -> StorageResult<Arc<LogFile>> {
        device.len_blocks(id)?;
        Ok(Arc::new(LogFile { device, id, obsolete: Obsolete::default() }))
    }

    /// The log's file id.
    pub fn id(&self) -> FileId {
        self.id
    }

    /// Marks the log collected: its file is deleted when the last
    /// reference drops. Until then `superseded` counts the file's bytes.
    pub fn mark_obsolete(&self, superseded: &Arc<Gauge>) {
        self.obsolete.mark(superseded, self.bytes());
    }

    /// The file's bytes: fixed once the log retires (0 if the device
    /// cannot tell, at the mark and at the drop alike).
    fn bytes(&self) -> u64 {
        self.device.len_blocks(self.id).unwrap_or(0) * self.device.block_size() as u64
    }

    /// Visits every record `(key, value, pointer)` of a retiring log, in
    /// order — GC's scan. Its rotation synced the log whole. A torn tail
    /// (unsynced records no durable pointer names) ends it; a record that
    /// fails its frame is corruption: GC must not drop a log under a live
    /// value it missed. The log is read one window of blocks at a time,
    /// so the scan holds one window plus the record in hand, not the log.
    pub fn scan(&self, visit: impl FnMut(&[u8], &[u8], ValuePointer) -> StorageResult<()>) -> StorageResult<()> {
        self.scan_windowed(SCAN_WINDOW_BYTES, visit)
    }

    fn scan_windowed(
        &self,
        window_bytes: usize,
        mut visit: impl FnMut(&[u8], &[u8], ValuePointer) -> StorageResult<()>,
    ) -> StorageResult<()> {
        let bs = self.device.block_size();
        let blocks = self.device.len_blocks(self.id)?;
        let window = (window_bytes / bs).max(1) as u64;
        let mut bytes = Vec::new();
        // the window: `len` blocks from block `first`, scanned from byte `skip`
        let (mut first, mut len, mut skip) = (0u64, window, 0usize);
        while first < blocks {
            let n = len.min(blocks - first);
            bytes.resize(n as usize * bs, 0);
            let base = first * bs as u64;
            self.device.read_into(self.id, base, &mut bytes, IoCategory::ValueLog)?;
            // where the scan stopped: past the last intact frame
            let (mut end, mut torn) = (skip, false);
            for frame in Frames::new(&bytes, bs, &[RECORD_MARKER]).starting_at(skip) {
                let record = match frame {
                    Ok(f) => split_payload(f.payload).map(|kv| (f, kv)),
                    Err(Damage::Torn) => {
                        torn = true;
                        break;
                    }
                    Err(Damage::Corrupt) => None,
                };
                let (f, (key, value)) =
                    record.ok_or_else(|| corruption(&*self.device, "undecodable value-log record during scan"))?;
                visit(key, value, ValuePointer { file: self.id, offset: base + f.at as u64, len: f.len as u32 })?;
                end = f.at + f.len;
            }
            if first + n == blocks {
                return Ok(());
            }
            if torn {
                // the record crossing the window's end opens the next
                // window, which doubles until it holds the record
                len = if end == skip { len * 2 } else { window };
                first += (end / bs) as u64;
                skip = end % bs;
            } else {
                (first, len, skip) = (first + n, window, 0);
            }
        }
        Ok(())
    }
}

impl Drop for LogFile {
    fn drop(&mut self) {
        self.obsolete.release(self.bytes(), || self.device.delete(self.id));
    }
}

/// The append-only value log.
///
/// Reads must work against the *unsealed* active log, but the device holds
/// only the blocks written so far; the rest is the file's buffered bytes.
pub struct ValueLog {
    device: Arc<dyn StorageDevice>,
    file: WritableFile,
}

impl ValueLog {
    /// Opens a fresh value log.
    pub fn create(device: Arc<dyn StorageDevice>) -> StorageResult<Self> {
        let file = WritableFile::create(Arc::clone(&device), IoCategory::ValueLog)?;
        Ok(ValueLog { device, file })
    }

    /// The log's file id.
    pub fn id(&self) -> FileId {
        self.file.id()
    }

    /// Appends a `(key, value)` record; returns its pointer.
    pub fn append(&mut self, key: &[u8], value: &[u8]) -> StorageResult<ValuePointer> {
        let payload_len = varint_len(key.len() as u64) + key.len() + value.len();
        let mut record = Vec::with_capacity(frame_len(payload_len));
        put_frame(&mut record, RECORD_MARKER, payload_len, |out| {
            put_varint(out, key.len() as u64);
            out.extend_from_slice(key);
            out.extend_from_slice(value);
        });
        let offset = self.file.append(&record)?;
        Ok(ValuePointer {
            file: self.id(),
            offset,
            len: record.len() as u32,
        })
    }

    /// Makes every record so far readable directly from the device
    /// (snapshots resolve pointers without access to the buffered bytes)
    /// and durable. The zeros that close a synced block are skipped by
    /// [`LogFile::scan`].
    pub fn sync(&mut self) -> StorageResult<()> {
        self.file.sync()
    }

    /// Reads the record at `ptr` (from this log) and returns its value.
    pub fn read(&self, ptr: ValuePointer) -> StorageResult<Vec<u8>> {
        debug_assert_eq!(ptr.file, self.id(), "pointer into a different log");
        // appended bytes, with the zeros that close each synced block
        let len = self.file.offset();
        if ptr.offset + ptr.len as u64 > len {
            return Err(StorageError::Corruption("value-log pointer past the log's end".into()));
        }
        let device_bytes = len - self.file.buffered().len() as u64;
        let mut record = vec![0u8; ptr.len as usize];
        // the record's leading bytes are on the device, the rest buffered
        let on_device = device_bytes.saturating_sub(ptr.offset).min(ptr.len as u64) as usize;
        if on_device > 0 {
            self.device.read_into(self.id(), ptr.offset, &mut record[..on_device], IoCategory::ValueLog)?;
        }
        if on_device < record.len() {
            let from = (ptr.offset + on_device as u64 - device_bytes) as usize;
            let to = (ptr.offset + ptr.len as u64 - device_bytes) as usize;
            record[on_device..].copy_from_slice(&self.file.buffered()[from..to]);
        }
        value_of(&*self.device, &record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_storage::{DeviceProfile, MemDevice};

    fn device() -> Arc<dyn StorageDevice> {
        Arc::new(MemDevice::new(512, DeviceProfile::free()))
    }

    type Records = Vec<(Vec<u8>, Vec<u8>, ValuePointer)>;

    /// Every record GC's scan of `file` visits, reading `window_bytes` at
    /// a time.
    fn records_in(file: &LogFile, window_bytes: usize) -> Records {
        let mut all = Vec::new();
        file.scan_windowed(window_bytes, |k, v, p| {
            all.push((k.to_vec(), v.to_vec(), p));
            Ok(())
        })
        .unwrap();
        all
    }

    /// GC's scan of a synced log.
    fn scan(log: &ValueLog) -> Records {
        records_in(&LogFile::open(Arc::clone(&log.device), log.id()).unwrap(), SCAN_WINDOW_BYTES)
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
        log.sync().unwrap();
        let all = scan(&log);
        assert_eq!(all.len(), 50);
        for (i, (k, v, p)) in all.iter().enumerate() {
            assert_eq!(k, format!("key{i}").as_bytes());
            assert_eq!(v, format!("value{i}").as_bytes());
            assert_eq!(*p, ptrs[i]);
        }
    }

    /// Records of every size, some far larger than a window, some synced
    /// mid-block: a scan window by window visits exactly what one window
    /// over the whole log does, however small its windows.
    #[test]
    fn a_windowed_scan_visits_every_record_once_in_order() {
        let mut log = ValueLog::create(device()).unwrap();
        for i in 0..60usize {
            let value = vec![i as u8; (i * 37) % 1500 + 1];
            log.append(format!("key{i}").as_bytes(), &value).unwrap();
            if i % 7 == 0 {
                log.sync().unwrap();
            }
        }
        log.sync().unwrap();
        let file = LogFile::open(Arc::clone(&log.device), log.id()).unwrap();
        let whole = records_in(&file, usize::MAX / 2);
        assert_eq!(whole.len(), 60);
        for window in [1, 512, 1024, 1536, 4096] {
            assert_eq!(records_in(&file, window), whole, "{window}-byte windows");
        }
    }

    /// A record that ends one byte short of its block at a sync leaves one
    /// zero closing that block: the scan takes it for padding, not for a
    /// record, and returns exactly the records appended, with their
    /// pointers.
    #[test]
    fn a_record_one_byte_short_of_its_block_scans_cleanly() {
        // the record's bytes beyond its value, measured at a nearby size
        let probe = ValueLog::create(device()).unwrap().append(b"a", &[0; 400]).unwrap();
        let first_len = 511 - (probe.len as usize - 400);
        let mut log = ValueLog::create(device()).unwrap();
        let records = [(b"a", vec![1u8; first_len]), (b"b", vec![2u8; 40]), (b"c", vec![3u8; 40])];
        let mut expected = Vec::new();
        for (i, (key, value)) in records.iter().enumerate() {
            let ptr = log.append(*key, value).unwrap();
            if i == 0 {
                assert_eq!(ptr.offset + ptr.len as u64, 511, "the first record ends one byte short of its block");
                log.sync().unwrap();
            }
            expected.push((key.to_vec(), value.clone(), ptr));
        }
        log.sync().unwrap();
        assert_eq!(scan(&log), expected);
        for (_, value, ptr) in &expected {
            assert_eq!(&log.read(*ptr).unwrap(), value);
        }
    }

    /// Every single-bit flip of a record's bytes fails its frame: a read
    /// through the pointer is counted corruption, never a different value.
    #[test]
    fn every_bit_flip_of_a_record_is_counted_corruption() {
        let dev = device();
        let mut log = ValueLog::create(dev.clone()).unwrap();
        let ptr = log.append(b"key", b"some value bytes").unwrap();
        log.sync().unwrap();
        let mut record = vec![0u8; ptr.len as usize];
        dev.read_into(ptr.file, ptr.offset, &mut record, IoCategory::ValueLog).unwrap();
        assert_eq!(value_of(&*dev, &record).unwrap(), b"some value bytes");
        for bit in 0..record.len() * 8 {
            let mut flipped = record.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let before = dev.stats().snapshot().corruption_detected;
            assert!(matches!(value_of(&*dev, &flipped), Err(StorageError::Corruption(_))), "bit {bit}");
            assert_eq!(dev.stats().snapshot().corruption_detected, before + 1, "bit {bit}");
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
        let all = scan(&log);
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

    /// GC's scan of a log a crash cut short: the records before the torn
    /// one come back, and the torn tail ends the scan cleanly.
    #[test]
    fn a_scan_ends_at_a_torn_tail() {
        let dev = device();
        let mut log = ValueLog::create(dev.clone()).unwrap();
        let kept = log.append(b"kept", &[1u8; 100]).unwrap();
        log.append(b"torn", &[2u8; 1000]).unwrap(); // its whole blocks reach the device, its tail does not
        let file = LogFile::open(dev, log.id()).unwrap();
        assert_eq!(records_in(&file, SCAN_WINDOW_BYTES), vec![(b"kept".to_vec(), vec![1u8; 100], kept)]);
        assert_eq!(records_in(&file, 512), vec![(b"kept".to_vec(), vec![1u8; 100], kept)], "window by window");
    }

    /// A log lives like a table: marked obsolete, it counts its bytes as
    /// superseded and is deleted when the last handle drops, not before.
    #[test]
    fn an_obsolete_log_is_deleted_when_its_last_handle_drops() {
        let dev = device();
        let mut log = ValueLog::create(dev.clone()).unwrap();
        log.append(b"k", &[0u8; 2000]).unwrap();
        log.sync().unwrap();
        let file = LogFile::open(dev.clone(), log.id()).unwrap();
        let reader = Arc::clone(&file);
        let superseded = Arc::new(Gauge::default());
        file.mark_obsolete(&superseded);
        file.mark_obsolete(&superseded);
        assert_eq!(superseded.get(), 2048, "counted once, in whole blocks");
        drop(file);
        assert!(dev.live_files().contains(&log.id()), "a reader still holds the log");
        assert_eq!(records_in(&reader, SCAN_WINDOW_BYTES).len(), 1);
        drop(reader);
        assert!(!dev.live_files().contains(&log.id()));
        assert_eq!(superseded.get(), 0);
        assert!(matches!(
            LogFile::open(dev, log.id()),
            Err(lsm_storage::StorageError::UnknownFile(_))
        ));
    }
}
