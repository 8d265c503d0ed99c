//! The manifest: durable description of the current version — and the
//! one durable record file it and the server's shard map are stored in.
//!
//! Rewritten atomically (new file, then delete the old) on every flush,
//! every compaction and every frontier install of a running merge.
//! Recovery scans the device for the newest file carrying the manifest
//! magic, reopens the tables it lists, and replays the WAL it points at.
//!
//! A table a merge frontier clipped carries its *floor* (see
//! [`crate::version`]): after the levels comes a section of
//! `(table id, length-prefixed floor key)` pairs, ascending by id, which
//! a manifest without floors omits, so its bytes are what they were
//! before floors existed. A crash between two frontier installs recovers
//! the clipped version the last one wrote.
//!
//! The value logs GC has yet to empty (the *retiring* logs) follow as one
//! more optional section of ascending ids, after a floor count that may
//! be zero; a manifest with no retiring log omits both, as before.
//!
//! Decoding is bounded: every count and length is checked against the
//! bytes left before anything is allocated for it, and every varint must
//! be canonical, so a state that decodes re-encodes to the bytes it was
//! read from.
//!
//! ## Record files
//!
//! [`write_record`] and [`find_records`] are the whole protocol, generic
//! over the record's magic and parser: a record is written to a new file,
//! sealed with the integrity checksum in the file's last 4 bytes, and
//! only then is its predecessor deleted. A crash in between leaves two;
//! a torn or bit-flipped newer one fails its checksum, so recovery falls
//! back to the older one — and a lone damaged record is an error, never
//! an empty store.

use std::sync::Arc;

use lsm_storage::{FileId, IoCategory, StorageDevice, StorageError, StorageResult, WritableFile};

use crate::entry::{get_varint, put_varint};
use crate::integrity;

/// Magic marking a manifest file's first bytes.
pub const MANIFEST_MAGIC: u64 = 0x4C_53_4D_4D_41_4E_0A; // "LSM MAN\n"

/// Serializable manifest state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ManifestState {
    /// Table file ids: `levels[i][j]` = the j-th (youngest-first) run of
    /// level i, as a list of file ids in key order.
    pub levels: Vec<Vec<Vec<u64>>>,
    /// Current WAL file id (0 = none).
    pub wal: u64,
    /// WAL covering the frozen (immutable) memtable awaiting a background
    /// flush (0 = none). Replayed *before* `wal` on recovery: its records
    /// are strictly older than the active WAL's.
    pub wal_prev: u64,
    /// Current value-log file id (0 = none).
    pub vlog: u64,
    /// Value logs GC has yet to empty, ascending ids: stored pointers may
    /// still name them, so each must exist on recovery.
    pub retiring: Vec<u64>,
    /// Next sequence number to assign.
    pub next_seqno: u64,
    /// Replication watermark: the highest replication-log sequence this
    /// engine has applied (0 = never a replica). Persisted so a promoted
    /// replica can adopt the committed sequence and a restarted replica
    /// knows where to resubscribe. The watermark is only as fresh as the
    /// last manifest write; batches applied since then are recovered from
    /// the WAL and may be legally re-applied (replication apply is
    /// idempotent for a suffix re-delivered in order).
    pub applied_seq: u64,
    /// `(table id, floor)` for every table a merge frontier clipped,
    /// ascending by id: the table holds no key at or below its floor.
    pub floors: Vec<(u64, Vec<u8>)>,
}

/// Whether a varint of `n` bytes ending in `last` is the shortest
/// encoding of its value (and, at ten bytes, fits in 64 bits).
fn canonical_varint(n: usize, last: u8) -> bool {
    n == 1 || (last != 0 && (n < 10 || last == 1))
}

impl ManifestState {
    /// Serializes with the leading magic.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        put_varint(&mut out, self.wal);
        put_varint(&mut out, self.wal_prev);
        put_varint(&mut out, self.vlog);
        put_varint(&mut out, self.next_seqno);
        put_varint(&mut out, self.applied_seq);
        put_varint(&mut out, self.levels.len() as u64);
        for level in &self.levels {
            put_varint(&mut out, level.len() as u64);
            for run in level {
                put_varint(&mut out, run.len() as u64);
                for &id in run {
                    put_varint(&mut out, id);
                }
            }
        }
        if !self.floors.is_empty() || !self.retiring.is_empty() {
            put_varint(&mut out, self.floors.len() as u64);
            for (id, floor) in &self.floors {
                put_varint(&mut out, *id);
                put_varint(&mut out, floor.len() as u64);
                out.extend_from_slice(floor);
            }
        }
        if !self.retiring.is_empty() {
            put_varint(&mut out, self.retiring.len() as u64);
            for &id in &self.retiring {
                put_varint(&mut out, id);
            }
        }
        out
    }

    /// Deserializes; `None` when the magic or framing is wrong, a count
    /// or length overruns the bytes left, a varint is not canonical, a
    /// floor names no listed table or breaks the ascending id order, or
    /// the retiring logs are not ascending non-zero ids apart from `vlog`.
    /// Bytes past the last field (a record's zero padding) are ignored.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 8 || u64::from_le_bytes(bytes[0..8].try_into().ok()?) != MANIFEST_MAGIC {
            return None;
        }
        let mut off = 8usize;
        let next = |off: &mut usize| -> Option<u64> {
            let (v, n) = get_varint(bytes.get(*off..)?)?;
            canonical_varint(n, bytes[*off + n - 1]).then_some(())?;
            *off += n;
            Some(v)
        };
        // a count of items that take at least `min_bytes` each, checked
        // against the bytes left before anything is reserved for them
        let count = |off: &mut usize, min_bytes: usize| -> Option<usize> {
            let n = usize::try_from(next(off)?).ok()?;
            (n <= (bytes.len() - *off) / min_bytes).then_some(n)
        };
        let wal = next(&mut off)?;
        let wal_prev = next(&mut off)?;
        let vlog = next(&mut off)?;
        let next_seqno = next(&mut off)?;
        let applied_seq = next(&mut off)?;
        let n_levels = count(&mut off, 1)?;
        if n_levels > 64 {
            return None;
        }
        let mut levels = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            let n_runs = count(&mut off, 1)?;
            let mut runs = Vec::with_capacity(n_runs);
            for _ in 0..n_runs {
                let n_tables = count(&mut off, 1)?;
                let mut tables = Vec::with_capacity(n_tables);
                for _ in 0..n_tables {
                    tables.push(next(&mut off)?);
                }
                runs.push(tables);
            }
            levels.push(runs);
        }
        let mut floors: Vec<(u64, Vec<u8>)> = Vec::new();
        if off < bytes.len() {
            let n_floors = count(&mut off, 2)?;
            let listed: std::collections::HashSet<u64> =
                levels.iter().flatten().flatten().copied().collect();
            floors.reserve_exact(n_floors);
            for _ in 0..n_floors {
                let id = next(&mut off)?;
                let len = count(&mut off, 1)?;
                let ascending = floors.last().is_none_or(|(prev, _)| *prev < id);
                if !ascending || !listed.contains(&id) {
                    return None;
                }
                floors.push((id, bytes[off..off + len].to_vec()));
                off += len;
            }
        }
        let n_retiring = if off < bytes.len() { count(&mut off, 1)? } else { 0 };
        let retiring: Vec<u64> = (0..n_retiring).map(|_| next(&mut off)).collect::<Option<_>>()?;
        if retiring.first() == Some(&0) || retiring.windows(2).any(|w| w[0] >= w[1]) || retiring.contains(&vlog) {
            return None;
        }
        Some(ManifestState {
            levels,
            wal,
            wal_prev,
            vlog,
            retiring,
            next_seqno,
            applied_seq,
            floors,
        })
    }

    /// The floor recorded for table `id`, if any.
    pub fn floor_of(&self, id: u64) -> Option<&[u8]> {
        let i = self.floors.binary_search_by_key(&id, |(t, _)| *t).ok()?;
        Some(&self.floors[i].1)
    }
}

/// Writes `body` to a new record file, sealed, and then deletes
/// `previous` (best effort: a missing predecessor is not fatal). Returns
/// the new file's id. Once this returns, recovery finds the new record.
pub fn write_record(
    device: &Arc<dyn StorageDevice>,
    body: &[u8],
    previous: Option<FileId>,
) -> StorageResult<FileId> {
    // zero-pad so the trailer lands in the file's last bytes: a reader
    // finds it without a length field
    let bs = device.block_size();
    let mut sealed = body.to_vec();
    sealed.resize(
        (body.len() + integrity::TRAILER_LEN).div_ceil(bs) * bs - integrity::TRAILER_LEN,
        0,
    );
    integrity::seal(&mut sealed);
    let mut f = WritableFile::create(Arc::clone(device), IoCategory::Misc)?;
    f.append(&sealed)?;
    let id = f.seal()?.id();
    if let Some(prev) = previous {
        let _ = device.delete(prev);
    }
    Ok(id)
}

/// Every file on `device` whose first 8 bytes are within one bit of
/// `magic`, newest first: `Ok` when its seal verifies and `parse` (which
/// sees the record's body: the file up to its trailer, padding included)
/// accepts it, `Corruption` otherwise. A damaged
/// record is reported, not skipped, so it cannot pass for an empty store.
pub fn find_records<T>(
    device: &Arc<dyn StorageDevice>,
    magic: u64,
    parse: impl Fn(&[u8]) -> Option<T>,
) -> StorageResult<Vec<(FileId, StorageResult<T>)>> {
    let mut found = Vec::new();
    for id in device.live_files() {
        let len = device.len_blocks(id)?;
        if len == 0 {
            continue;
        }
        let bytes = device.read(id, 0, len, IoCategory::Misc)?;
        match bytes.first_chunk::<8>() {
            Some(head) if (u64::from_le_bytes(*head) ^ magic).count_ones() <= 1 => {}
            _ => continue,
        }
        let record = integrity::unseal(&bytes)
            .and_then(&parse)
            .ok_or_else(|| StorageError::Corruption(format!("record file {} is damaged", id.0)));
        found.push((id, record));
    }
    found.sort_by_key(|(id, _)| std::cmp::Reverse(id.0));
    Ok(found)
}

/// The newest intact record [`find_records`] finds; `Ok(None)` when there
/// is no record, `Corruption` when every one is damaged.
pub fn find_record<T>(
    device: &Arc<dyn StorageDevice>,
    magic: u64,
    parse: impl Fn(&[u8]) -> Option<T>,
) -> StorageResult<Option<(FileId, T)>> {
    let mut damaged = None;
    for (id, record) in find_records(device, magic, parse)? {
        match record {
            Ok(record) => return Ok(Some((id, record))),
            Err(e) => damaged = Some(e),
        }
    }
    damaged.map_or(Ok(None), Err)
}

/// Writes `state` as the newest manifest, deleting `previous`.
pub fn write_manifest(
    device: &Arc<dyn StorageDevice>,
    state: &ManifestState,
    previous: Option<FileId>,
) -> StorageResult<FileId> {
    write_record(device, &state.to_bytes(), previous)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::put_varint;
    use lsm_storage::{DeviceProfile, MemDevice};

    fn device() -> Arc<dyn StorageDevice> {
        Arc::new(MemDevice::new(512, DeviceProfile::free()))
    }

    fn find_manifest(
        dev: &Arc<dyn StorageDevice>,
    ) -> StorageResult<Option<(FileId, ManifestState)>> {
        find_record(dev, MANIFEST_MAGIC, ManifestState::from_bytes)
    }

    fn sample() -> ManifestState {
        ManifestState {
            levels: vec![
                vec![vec![10], vec![9]],
                vec![],
                vec![vec![3, 4, 5]],
            ],
            wal: 42,
            wal_prev: 41,
            vlog: 0,
            retiring: Vec::new(),
            next_seqno: 12345,
            applied_seq: 678,
            floors: Vec::new(),
        }
    }

    fn sample_with_floors() -> ManifestState {
        ManifestState {
            floors: vec![(4, b"key0042".to_vec()), (9, vec![0xFF; 130])],
            ..sample()
        }
    }

    /// Every section present: floors and retiring logs.
    fn sample_with_both() -> ManifestState {
        ManifestState {
            vlog: 300,
            retiring: vec![7, 200, 1 << 40],
            ..sample_with_floors()
        }
    }

    #[test]
    fn retiring_logs_roundtrip_with_or_without_floors() {
        for s in [
            sample_with_both(),
            ManifestState { floors: Vec::new(), ..sample_with_both() },
        ] {
            assert_eq!(ManifestState::from_bytes(&s.to_bytes()), Some(s.clone()));
            let mut padded = s.to_bytes();
            padded.extend_from_slice(&[0; 7]);
            assert_eq!(ManifestState::from_bytes(&padded), Some(s));
        }
        // none retiring: the bytes of a manifest that predates them
        let plain = ManifestState { retiring: Vec::new(), ..sample_with_both() };
        let mut before = sample_with_floors();
        before.vlog = 300;
        assert_eq!(plain.to_bytes(), before.to_bytes());
    }

    #[test]
    fn retiring_logs_must_ascend_and_differ_from_the_active_one() {
        for retiring in [vec![5, 5], vec![9, 4], vec![0], vec![300]] {
            let s = ManifestState { vlog: 300, retiring, ..sample() };
            assert_eq!(ManifestState::from_bytes(&s.to_bytes()), None);
        }
    }

    #[test]
    fn floors_roundtrip_and_a_floorless_manifest_keeps_its_bytes() {
        let s = sample_with_floors();
        assert_eq!(ManifestState::from_bytes(&s.to_bytes()), Some(s.clone()));
        assert_eq!(s.floor_of(9), Some(&[0xFF; 130][..]));
        assert_eq!(s.floor_of(5), None);
        // no floors: no floor section, and zero padding reads as none
        let mut plain = sample().to_bytes();
        assert_eq!(plain, ManifestState { floors: Vec::new(), ..s }.to_bytes());
        plain.extend_from_slice(&[0; 7]);
        assert_eq!(ManifestState::from_bytes(&plain), Some(sample()));
    }

    #[test]
    fn a_floor_must_name_a_listed_table_in_ascending_order() {
        for floors in [
            vec![(77, b"k".to_vec())],
            vec![(9, b"k".to_vec()), (4, b"k".to_vec())],
            vec![(4, b"k".to_vec()), (4, b"l".to_vec())],
        ] {
            let s = ManifestState { floors, ..sample() };
            assert_eq!(ManifestState::from_bytes(&s.to_bytes()), None);
        }
    }

    /// Every truncation and every single-bit flip of a manifest with
    /// floors and retiring logs decodes to nothing or to a state that re-encodes to the
    /// bytes it was read from (a prefix of them: bytes past the last
    /// field are padding), and never panics.
    #[test]
    fn every_truncation_and_bit_flip_decodes_to_nothing_or_its_own_bytes() {
        let bytes = sample_with_both().to_bytes();
        let check = |mutated: &[u8], what: &str| {
            if let Some(state) = ManifestState::from_bytes(mutated) {
                assert!(mutated.starts_with(&state.to_bytes()), "{what} decoded to {state:?}");
            }
        };
        for len in 0..bytes.len() {
            check(&bytes[..len], &format!("truncation to {len}"));
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            check(&flipped, &format!("bit {bit}"));
        }
    }

    /// A count is checked against the bytes left before anything is
    /// reserved for it: a short record claiming millions of tables, runs,
    /// floors or retiring logs is rejected.
    #[test]
    fn a_count_past_the_record_is_rejected() {
        let head = |levels: u64, runs: u64, tables: u64| {
            let mut out = MANIFEST_MAGIC.to_le_bytes().to_vec();
            for v in [0, 0, 0, 1, 0, levels, runs, tables] {
                put_varint(&mut out, v);
            }
            out
        };
        assert_eq!(ManifestState::from_bytes(&head(1, 1, 1 << 24)), None);
        assert_eq!(ManifestState::from_bytes(&head(1, 1 << 20, 0)), None);
        let mut floors = head(1, 1, 1);
        put_varint(&mut floors, 5); // the one table
        put_varint(&mut floors, 1 << 30); // floors
        assert_eq!(ManifestState::from_bytes(&floors), None);
        let mut retiring = head(1, 1, 1);
        put_varint(&mut retiring, 5); // the one table
        put_varint(&mut retiring, 0); // floors
        put_varint(&mut retiring, 1 << 30); // retiring logs
        assert_eq!(ManifestState::from_bytes(&retiring), None);
        // a non-canonical varint (a zero continuation group) is framing damage
        let mut padded = head(0, 0, 0);
        padded.truncate(padded.len() - 3);
        padded.extend_from_slice(&[0x80, 0x00]);
        assert_eq!(ManifestState::from_bytes(&padded), None);
    }

    #[test]
    fn applied_seq_roundtrips() {
        let mut s = sample();
        s.applied_seq = u64::MAX;
        assert_eq!(ManifestState::from_bytes(&s.to_bytes()), Some(s));
        let fresh = ManifestState::default();
        assert_eq!(fresh.applied_seq, 0);
        assert_eq!(
            ManifestState::from_bytes(&fresh.to_bytes()).unwrap().applied_seq,
            0
        );
    }

    #[test]
    fn roundtrip() {
        let s = sample();
        assert_eq!(ManifestState::from_bytes(&s.to_bytes()), Some(s));
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(ManifestState::from_bytes(b"nonsense").is_none());
        let bytes = sample().to_bytes();
        assert!(ManifestState::from_bytes(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn write_and_find() {
        let dev = device();
        let s = sample();
        let id = write_manifest(&dev, &s, None).unwrap();
        let (found_id, found) = find_manifest(&dev).unwrap().unwrap();
        assert_eq!(found_id, id);
        assert_eq!(found, s);
    }

    #[test]
    fn rewrite_supersedes_and_deletes_old() {
        let dev = device();
        let id1 = write_manifest(&dev, &sample(), None).unwrap();
        let mut s2 = sample();
        s2.next_seqno = 99999;
        let id2 = write_manifest(&dev, &s2, Some(id1)).unwrap();
        let (found_id, found) = find_manifest(&dev).unwrap().unwrap();
        assert_eq!(found_id, id2);
        assert_eq!(found.next_seqno, 99999);
        assert!(!dev.live_files().contains(&id1), "old manifest deleted");
    }

    #[test]
    fn no_manifest_on_empty_device() {
        assert!(find_manifest(&device()).unwrap().is_none());
    }

    #[test]
    fn candidates_are_newest_first() {
        let dev = device();
        let id1 = write_manifest(&dev, &sample(), None).unwrap();
        let mut s2 = sample();
        s2.next_seqno = 777;
        // simulate a crash before the old manifest was deleted
        let id2 = write_manifest(&dev, &s2, None).unwrap();
        let cands = find_records(&dev, MANIFEST_MAGIC, ManifestState::from_bytes).unwrap();
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].0, id2);
        assert_eq!(cands[0].1.as_ref().unwrap().next_seqno, 777);
        assert_eq!(cands[1].0, id1);
    }

    /// Any single-bit flip of the newer record (magic, body, padding or
    /// trailer) breaks its seal, so the finder falls back to the older
    /// record rather than return one that merely parses; with no older
    /// record the flip is a typed error, never an empty device.
    #[test]
    fn every_bit_flip_is_a_fallback_or_a_typed_error() {
        let (older, mut newer) = (sample(), sample());
        newer.next_seqno = 777;
        let scratch = device();
        let fid = write_manifest(&scratch, &newer, None).unwrap();
        let blocks = scratch.len_blocks(fid).unwrap();
        let sealed = scratch.read(fid, 0, blocks, IoCategory::Misc).unwrap();
        for bit in 0..sealed.len() * 8 {
            let dev = device();
            let older_id = write_manifest(&dev, &older, None).unwrap();
            let mut flipped = sealed.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let mut w = WritableFile::create(Arc::clone(&dev), IoCategory::Misc).unwrap();
            w.append(&flipped).unwrap();
            w.seal().unwrap();
            assert_eq!(find_manifest(&dev).unwrap().unwrap().1, older, "bit {bit}");
            dev.delete(older_id).unwrap();
            assert!(
                matches!(find_manifest(&dev), Err(StorageError::Corruption(_))),
                "bit {bit}: a lone damaged manifest must be an error"
            );
        }
    }

    #[test]
    fn foreign_files_are_ignored_by_find() {
        let dev = device();
        // a non-manifest file
        let mut w = WritableFile::create(dev.clone(), IoCategory::Data).unwrap();
        w.append(&[0u8; 600]).unwrap();
        w.seal().unwrap();
        let id = write_manifest(&dev, &sample(), None).unwrap();
        let (found_id, _) = find_manifest(&dev).unwrap().unwrap();
        assert_eq!(found_id, id);
    }
}
