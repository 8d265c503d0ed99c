//! Write-ahead log: durability for the memtable (tutorial Module I.1's
//! out-of-place ingestion contract).
//!
//! Records are the engine's log frames (`frame.rs`: a marker byte, the
//! payload's length and its `integrity::checksum32`, verified once, on
//! replay) streamed, packed, into an append-only file. Whole blocks reach
//! the device as they fill; [`Wal::sync`] writes the partial last block
//! too, zero-padded, and later records keep filling that block, which the
//! next write of it replaces in place. A crash loses only records no completed
//! sync covered — recovery stops at the first record that fails its frame
//! or checksum (standard torn-write semantics).
//!
//! Under [`lsm_storage::FaultDevice`] each device write and read of the
//! log takes one I/O ordinal; a sync's barrier takes none.

use std::sync::Arc;

use lsm_storage::{FileId, ImmutableFile, IoCategory, StorageDevice, StorageResult, WritableFile};

use crate::entry::{get_varint, put_varint, varint_len, ValueKind};
use crate::frame::{frame_len, put_frame, Damage, Frames};

/// Marks a WAL record's frame.
pub(crate) const RECORD_MARKER: u8 = 0xA7;
/// Marks an all-or-nothing record group ([`Wal::append_atomic`]): one
/// frame whose payload is the group's record frames, so one length +
/// checksum covers them all and recovery either replays the whole group
/// or drops it wholesale.
pub(crate) const ATOMIC_MARKER: u8 = 0xA9;

/// One recovered WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Sequence number assigned at write time.
    pub seqno: u64,
    /// Put or tombstone.
    pub kind: ValueKind,
    /// User key.
    pub key: Vec<u8>,
    /// Value (empty for tombstones).
    pub value: Vec<u8>,
}

/// An open write-ahead log.
pub struct Wal {
    file: WritableFile,
    records: u64,
    /// Reused frame buffer: after warm-up, appends encode into this
    /// allocation instead of a fresh `Vec` per record/batch.
    scratch: Vec<u8>,
}

impl Wal {
    /// Creates a fresh log on `device`.
    pub fn create(device: Arc<dyn StorageDevice>) -> StorageResult<Self> {
        Ok(Wal {
            file: WritableFile::create(device, IoCategory::Wal)?,
            records: 0,
            scratch: Vec::new(),
        })
    }

    /// The log's file id (recorded in the manifest).
    pub fn id(&self) -> FileId {
        self.file.id()
    }

    /// Records appended to this log so far (event-trace accounting for
    /// WAL rotations).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Appends one record. Full blocks reach the device immediately;
    /// the partial tail follows when its block fills or at [`Wal::sync`].
    pub fn append(
        &mut self,
        seqno: u64,
        kind: ValueKind,
        key: &[u8],
        value: &[u8],
    ) -> StorageResult<()> {
        self.scratch.clear();
        encode_record(&mut self.scratch, seqno, kind, key, value);
        self.file.append(&self.scratch)?;
        self.records += 1;
        Ok(())
    }

    /// Appends a group of records as **one** file append (group commit):
    /// the frames are concatenated into a single buffer, so the whole
    /// batch costs one pass through the file's block pipeline instead of
    /// one per record. Recovery sees the same frame stream as if each
    /// record had been appended individually.
    pub fn append_batch(&mut self, records: &[(u64, ValueKind, Vec<u8>, Vec<u8>)]) -> StorageResult<()> {
        if records.is_empty() {
            return Ok(());
        }
        self.scratch.clear();
        for (seqno, kind, key, value) in records {
            encode_record(&mut self.scratch, *seqno, *kind, key, value);
        }
        self.file.append(&self.scratch)?;
        self.records += records.len() as u64;
        Ok(())
    }

    /// Appends a group of records that recovery treats as **atomic**: the
    /// group is framed with one length and one checksum over every record
    /// inside, so a crash either persists the whole group or none of it —
    /// never a prefix. This is the WAL primitive behind transaction
    /// commits, whose write-set must not be partially visible; the plain
    /// [`Wal::append_batch`] keeps prefix-durability semantics (its
    /// records are independent writes that happen to share one append).
    pub fn append_atomic(
        &mut self,
        records: &[(u64, ValueKind, Vec<u8>, Vec<u8>)],
    ) -> StorageResult<()> {
        if records.is_empty() {
            return Ok(());
        }
        self.scratch.clear();
        let group_len = records.iter().map(|(seqno, _, key, value)| frame_len(payload_len(*seqno, key, value))).sum();
        put_frame(&mut self.scratch, ATOMIC_MARKER, group_len, |out| {
            for (seqno, kind, key, value) in records {
                encode_record(out, *seqno, *kind, key, value);
            }
        });
        self.file.append(&self.scratch)?;
        self.records += records.len() as u64;
        Ok(())
    }

    /// Makes every appended record durable — the `fsync` of a group
    /// commit: writes the partial last block (zero-padded, refilled by
    /// later records) and issues the device's barrier. A sync costs the
    /// blocks its records touch, not a fresh block.
    pub fn sync(&mut self) -> StorageResult<()> {
        self.file.sync()
    }

    /// Seals the log (after a successful flush) so it can be deleted.
    pub fn seal(self) -> StorageResult<ImmutableFile> {
        self.file.seal()
    }
}

/// Bytes of one record's payload.
fn payload_len(seqno: u64, key: &[u8], value: &[u8]) -> usize {
    varint_len(seqno) + 1 + varint_len(key.len() as u64) + key.len() + varint_len(value.len() as u64) + value.len()
}

/// Encodes one record's frame into `out`, in place.
fn encode_record(out: &mut Vec<u8>, seqno: u64, kind: ValueKind, key: &[u8], value: &[u8]) {
    put_frame(out, RECORD_MARKER, payload_len(seqno, key, value), |out| {
        put_varint(out, seqno);
        out.push(kind.to_u8());
        put_varint(out, key.len() as u64);
        out.extend_from_slice(key);
        put_varint(out, value.len() as u64);
        out.extend_from_slice(value);
    });
}

/// Decodes one checksummed payload. `None` means the frame checksummed
/// clean but its contents do not parse — corruption, not a torn tail.
fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut p = 0usize;
    let (seqno, n) = get_varint(payload.get(p..)?)?;
    p += n;
    let kind = payload.get(p).copied().and_then(ValueKind::from_u8)?;
    p += 1;
    let (klen, n) = get_varint(payload.get(p..)?)?;
    p += n;
    let key = payload.get(p..p.checked_add(klen as usize)?)?;
    p += klen as usize;
    let (vlen, n) = get_varint(payload.get(p..)?)?;
    p += n;
    let value = payload.get(p..p.checked_add(vlen as usize)?)?;
    Some(WalRecord {
        seqno,
        kind,
        key: key.to_vec(),
        value: value.to_vec(),
    })
}

/// Replays a WAL file: returns every intact record, in order, stopping at
/// the first torn or corrupt frame.
///
/// Records are packed, but a block can end in zeros where a [`Wal::sync`]
/// left it; the frame scanner skips them. An atomic group's payload
/// is scanned for its records with the same scanner, and replays only if
/// every one of them decodes.
///
/// Torn tails (a record or group extending past the persisted bytes) are
/// the expected crash artifact and end replay silently. Checksum
/// mismatches, garbage marker bytes, and undecodable payloads are
/// *corruption* and are counted in the device's [`corruption_detected`]
/// stat before replay stops at the last intact prefix.
///
/// [`corruption_detected`]: lsm_storage::IoStatsSnapshot::corruption_detected
pub fn recover(device: Arc<dyn StorageDevice>, id: FileId) -> StorageResult<Vec<WalRecord>> {
    let len_blocks = device.len_blocks(id)?;
    if len_blocks == 0 {
        return Ok(Vec::new());
    }
    let bs = device.block_size();
    let bytes = device.read(id, 0, len_blocks, IoCategory::Wal)?;
    let mut records = Vec::new();
    for frame in Frames::new(&bytes, bs, &[RECORD_MARKER, ATOMIC_MARKER]) {
        let replayed = match frame {
            Ok(f) if f.marker == RECORD_MARKER => decode_payload(f.payload).map(|r| records.push(r)),
            // staged whole, so a malformed group is dropped, never replayed partially
            Ok(group) => Frames::new(group.payload, bs, &[RECORD_MARKER])
                .map(|f| f.ok().and_then(|f| decode_payload(f.payload)))
                .collect::<Option<Vec<_>>>()
                .map(|staged| records.extend(staged)),
            Err(Damage::Torn) => break,
            Err(Damage::Corrupt) => None,
        };
        if replayed.is_none() {
            device.stats().record_corruption();
            break;
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_storage::{DeviceProfile, FaultDevice, FaultKind, MemDevice};

    fn device() -> Arc<dyn StorageDevice> {
        Arc::new(MemDevice::new(512, DeviceProfile::free()))
    }

    #[test]
    fn roundtrip_after_sync() {
        let dev = device();
        let mut wal = Wal::create(dev.clone()).unwrap();
        for i in 0..100u64 {
            wal.append(
                i,
                if i % 5 == 0 { ValueKind::Delete } else { ValueKind::Put },
                format!("key{i}").as_bytes(),
                format!("value{i}").as_bytes(),
            )
            .unwrap();
        }
        wal.sync().unwrap();
        let id = wal.id();
        let records = recover(dev, id).unwrap();
        assert_eq!(records.len(), 100);
        assert_eq!(records[7].key, b"key7".to_vec());
        assert_eq!(records[7].seqno, 7);
        assert_eq!(records[5].kind, ValueKind::Delete);
    }

    #[test]
    fn unsynced_tail_is_lost_but_prefix_survives() {
        let dev = device();
        let mut wal = Wal::create(dev.clone()).unwrap();
        // each record ~30 bytes; 512-byte blocks hold ~17
        for i in 0..40u64 {
            wal.append(i, ValueKind::Put, format!("key{i:04}").as_bytes(), b"0123456789")
                .unwrap();
        }
        // no sync: only whole blocks persisted
        let id = wal.id();
        let records = recover(dev, id).unwrap();
        assert!(!records.is_empty(), "full blocks must be recovered");
        assert!(records.len() < 40, "unsynced tail must be lost");
        // recovered prefix is exactly the first k records
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seqno, i as u64);
        }
    }

    #[test]
    fn empty_wal_recovers_empty() {
        let dev = device();
        let wal = Wal::create(dev.clone()).unwrap();
        let id = wal.id();
        assert!(recover(dev, id).unwrap().is_empty());
    }

    #[test]
    fn corrupt_byte_stops_replay() {
        let dev: Arc<MemDevice> = Arc::new(MemDevice::new(512, DeviceProfile::free()));
        let dev_dyn: Arc<dyn StorageDevice> = dev.clone();
        let mut wal = Wal::create(dev_dyn.clone()).unwrap();
        for i in 0..30u64 {
            wal.append(i, ValueKind::Put, b"key", b"value-payload").unwrap();
        }
        wal.sync().unwrap();
        let id = wal.id();
        // corrupt the second block
        let mut blocks = dev.read(id, 0, dev.len_blocks(id).unwrap(), IoCategory::Wal).unwrap();
        blocks[600] ^= 0xFF;
        // rebuild a new file with the corrupted contents
        let id2 = dev.create().unwrap();
        dev.append(id2, &blocks, IoCategory::Wal).unwrap();
        let records = recover(dev_dyn.clone(), id2).unwrap();
        assert!(!records.is_empty());
        assert!(records.len() < 30, "replay must stop at corruption");
        assert!(
            dev_dyn.stats().snapshot().corruption_detected >= 1,
            "corruption must be counted"
        );
    }

    #[test]
    fn torn_tail_is_not_counted_as_corruption() {
        let dev = device();
        let mut wal = Wal::create(dev.clone()).unwrap();
        for i in 0..40u64 {
            wal.append(i, ValueKind::Put, format!("key{i:04}").as_bytes(), b"0123456789")
                .unwrap();
        }
        // no sync: the tail record is torn at the last persisted block
        let records = recover(dev.clone(), wal.id()).unwrap();
        assert!(records.len() < 40);
        assert_eq!(
            dev.stats().snapshot().corruption_detected,
            0,
            "a clean torn tail is the expected crash artifact, not corruption"
        );
    }

    #[test]
    fn bad_checksum_is_counted_as_corruption() {
        let dev: Arc<MemDevice> = Arc::new(MemDevice::new(512, DeviceProfile::free()));
        let dev_dyn: Arc<dyn StorageDevice> = dev.clone();
        let mut wal = Wal::create(dev_dyn.clone()).unwrap();
        wal.append(1, ValueKind::Put, b"key", b"a-reasonably-long-value").unwrap();
        wal.sync().unwrap();
        let id = wal.id();
        let mut blocks = dev.read(id, 0, 1, IoCategory::Wal).unwrap();
        // flip a payload byte: frame intact, checksum mismatch
        blocks[10] ^= 0x01;
        let id2 = dev.create().unwrap();
        dev.append(id2, &blocks, IoCategory::Wal).unwrap();
        let before = dev_dyn.stats().snapshot().corruption_detected;
        let records = recover(dev_dyn.clone(), id2).unwrap();
        assert!(records.is_empty());
        assert_eq!(dev_dyn.stats().snapshot().corruption_detected, before + 1);
    }

    #[test]
    fn records_after_a_sync_are_recovered() {
        let dev = device();
        let mut wal = Wal::create(dev.clone()).unwrap();
        wal.append(1, ValueKind::Put, b"before", b"v1").unwrap();
        wal.sync().unwrap(); // writes the partial block
        wal.append(2, ValueKind::Put, b"after", b"v2").unwrap();
        wal.sync().unwrap();
        wal.append(3, ValueKind::Put, b"third", b"v3").unwrap();
        wal.sync().unwrap();
        let records = recover(dev, wal.id()).unwrap();
        assert_eq!(records.len(), 3, "records after a sync lost");
        assert_eq!(records[1].key, b"after".to_vec());
        assert_eq!(records[2].key, b"third".to_vec());
    }

    #[test]
    fn batch_append_recovers_identically_to_singles() {
        let singles = device();
        let mut w1 = Wal::create(singles.clone()).unwrap();
        let batched = device();
        let mut w2 = Wal::create(batched.clone()).unwrap();
        let records: Vec<(u64, ValueKind, Vec<u8>, Vec<u8>)> = (0..50u64)
            .map(|i| {
                let kind = if i % 7 == 0 { ValueKind::Delete } else { ValueKind::Put };
                (i, kind, format!("key{i:04}").into_bytes(), format!("value{i}").into_bytes())
            })
            .collect();
        for (s, k, key, value) in &records {
            w1.append(*s, *k, key, value).unwrap();
        }
        w1.sync().unwrap();
        w2.append_batch(&records).unwrap();
        w2.sync().unwrap();
        assert_eq!(w2.records(), 50);
        let r1 = recover(singles, w1.id()).unwrap();
        let r2 = recover(batched.clone(), w2.id()).unwrap();
        assert_eq!(r1, r2, "batch framing must replay like per-record framing");
        // one logical append: a 50-record batch of ~25-byte frames fills
        // far fewer block-pipeline passes than 50 separate appends would
        assert_eq!(r2.len(), 50);
        let mut w3 = Wal::create(batched).unwrap();
        w3.append_batch(&[]).unwrap();
        assert_eq!(w3.records(), 0);
    }

    #[test]
    fn atomic_group_roundtrips_and_interleaves_with_plain_records() {
        let dev = device();
        let mut wal = Wal::create(dev.clone()).unwrap();
        wal.append(1, ValueKind::Put, b"before", b"v1").unwrap();
        let group: Vec<(u64, ValueKind, Vec<u8>, Vec<u8>)> = (2..7u64)
            .map(|i| (i, ValueKind::Put, format!("txn{i}").into_bytes(), b"tv".to_vec()))
            .collect();
        wal.append_atomic(&group).unwrap();
        wal.append(7, ValueKind::Delete, b"after", b"").unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.records(), 7);
        let records = recover(dev, wal.id()).unwrap();
        assert_eq!(records.len(), 7);
        assert_eq!(records[0].key, b"before".to_vec());
        assert_eq!(records[3].key, b"txn4".to_vec());
        assert_eq!(records[6].kind, ValueKind::Delete);
    }

    #[test]
    fn torn_atomic_group_drops_wholesale() {
        let dev = device();
        let mut wal = Wal::create(dev.clone()).unwrap();
        wal.append(1, ValueKind::Put, b"synced", b"v1").unwrap();
        wal.sync().unwrap();
        // a group spanning several 512-byte blocks, never synced: the
        // full blocks persist but the tail is lost, so the whole group
        // must vanish — a partial transaction write-set would otherwise
        // become visible after recovery
        let group: Vec<(u64, ValueKind, Vec<u8>, Vec<u8>)> = (2..60u64)
            .map(|i| (i, ValueKind::Put, format!("txn{i:04}").into_bytes(), vec![b'x'; 20]))
            .collect();
        wal.append_atomic(&group).unwrap();
        let records = recover(dev.clone(), wal.id()).unwrap();
        assert_eq!(records.len(), 1, "torn atomic group must drop wholesale");
        assert_eq!(records[0].key, b"synced".to_vec());
        assert_eq!(
            dev.stats().snapshot().corruption_detected,
            0,
            "a torn group is the expected crash artifact, not corruption"
        );
    }

    #[test]
    fn corrupt_atomic_group_counts_corruption_and_stops() {
        let dev: Arc<MemDevice> = Arc::new(MemDevice::new(512, DeviceProfile::free()));
        let dev_dyn: Arc<dyn StorageDevice> = dev.clone();
        let mut wal = Wal::create(dev_dyn.clone()).unwrap();
        let group: Vec<(u64, ValueKind, Vec<u8>, Vec<u8>)> = (1..4u64)
            .map(|i| (i, ValueKind::Put, format!("txn{i}").into_bytes(), b"payload".to_vec()))
            .collect();
        wal.append_atomic(&group).unwrap();
        wal.sync().unwrap();
        let id = wal.id();
        let mut blocks = dev.read(id, 0, 1, IoCategory::Wal).unwrap();
        blocks[20] ^= 0x01; // flip a byte inside the group
        let id2 = dev.create().unwrap();
        dev.append(id2, &blocks, IoCategory::Wal).unwrap();
        let before = dev_dyn.stats().snapshot().corruption_detected;
        let records = recover(dev_dyn.clone(), id2).unwrap();
        assert!(records.is_empty(), "corrupt group must not replay partially");
        assert_eq!(dev_dyn.stats().snapshot().corruption_detected, before + 1);
    }

    /// A group whose checksum holds but whose payload is not all record
    /// frames — one intact record, then a byte that is no record marker —
    /// is corruption, and replays none of its records.
    #[test]
    fn a_group_with_an_undecodable_record_replays_none_of_it() {
        let dev = device();
        let mut wal = Wal::create(dev.clone()).unwrap();
        wal.append(1, ValueKind::Put, b"before", b"v1").unwrap();
        let mut inner = Vec::new();
        encode_record(&mut inner, 2, ValueKind::Put, b"in-group", b"v2");
        inner.push(ATOMIC_MARKER);
        let mut group = Vec::new();
        put_frame(&mut group, ATOMIC_MARKER, inner.len(), |out| out.extend_from_slice(&inner));
        wal.file.append(&group).unwrap();
        wal.sync().unwrap();
        let records = recover(dev.clone(), wal.id()).unwrap();
        assert_eq!(records.len(), 1, "only the record before the group");
        assert_eq!(records[0].key, b"before".to_vec());
        assert_eq!(dev.stats().snapshot().corruption_detected, 1);
    }

    fn record(seqno: u64, len: usize) -> (u64, ValueKind, Vec<u8>, Vec<u8>) {
        let kind = if seqno % 9 == 4 { ValueKind::Delete } else { ValueKind::Put };
        (seqno, kind, format!("key{seqno:05}").into_bytes(), vec![b'a' + (seqno % 26) as u8; len])
    }

    /// Random appends, batches and atomic groups with random syncs, at two
    /// block sizes: after every sync, a log whose syncs fill the tail
    /// block and the padding model (the same log, its syncs padding the
    /// tail to a block boundary) both recover every record so far.
    #[test]
    fn fill_in_syncs_recover_what_padded_syncs_recover() {
        use rand::{Rng, SeedableRng};
        for bs in [512, 4096] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(bs as u64);
            let (dev, model_dev): (Arc<dyn StorageDevice>, Arc<dyn StorageDevice>) = (
                Arc::new(MemDevice::new(bs, DeviceProfile::free())),
                Arc::new(MemDevice::new(bs, DeviceProfile::free())),
            );
            let mut wal = Wal::create(dev.clone()).unwrap();
            let mut model = Wal::create(model_dev.clone()).unwrap();
            let mut all = Vec::new();
            for _ in 0..400 {
                let n = rng.gen_range(1..=4usize);
                let group: Vec<_> = (0..n)
                    .map(|i| record(all.len() as u64 + i as u64, rng.gen_range(0..bs / 3)))
                    .collect();
                for log in [&mut wal, &mut model] {
                    match group.len() {
                        1 => log.append(group[0].0, group[0].1, &group[0].2, &group[0].3).unwrap(),
                        2 => log.append_batch(&group).unwrap(),
                        _ => log.append_atomic(&group).unwrap(),
                    }
                }
                all.extend(group.into_iter().map(|(seqno, kind, key, value)| WalRecord { seqno, kind, key, value }));
                if rng.gen_bool(0.5) {
                    wal.sync().unwrap();
                    model.file.pad_to_block().unwrap();
                    assert_eq!(recover(dev.clone(), wal.id()).unwrap(), all, "{bs}-byte blocks");
                    assert_eq!(recover(model_dev.clone(), model.id()).unwrap(), all, "the model, {bs}-byte blocks");
                }
            }
            assert!(dev.live_blocks() < model_dev.live_blocks());
            assert_eq!(dev.stats().snapshot().corruption_detected, 0);
        }
    }

    /// Per step of a fault-sweep variant (each step ends in a sync), its
    /// appends: whether atomic, and the value sizes of its records.
    type Step = &'static [(bool, &'static [usize])];

    /// One append of a step, built: whether atomic, and its records.
    type Append = (bool, Vec<(u64, ValueKind, Vec<u8>, Vec<u8>)>);

    /// Runs `steps` on a fresh log over `dev` and returns the log's id and
    /// how many records completed syncs cover.
    fn run_steps(dev: &Arc<FaultDevice>, steps: &[Vec<Append>]) -> (FileId, usize) {
        let mut wal = Wal::create(dev.clone()).unwrap();
        let (mut acked, mut appended) = (0, 0);
        for step in steps {
            let done = step.iter().try_for_each(|(atomic, records)| {
                appended += records.len();
                if *atomic {
                    wal.append_atomic(records)
                } else {
                    wal.append_batch(records)
                }
            });
            if done.and_then(|()| wal.sync()).is_err() {
                assert!(dev.is_dead());
                break;
            }
            acked = appended;
        }
        (wal.id(), acked)
    }

    /// A fault of every kind at every I/O ordinal of append → sync →
    /// append → sync → append_atomic → sync, in size variants where a
    /// sync rewrites the block the one before it wrote, where a group
    /// starts a fresh block, and where a second append before a sync
    /// rewrites that block and the ones after it: every record a completed
    /// sync covered recovers, the atomic group recovers whole or not at
    /// all, and nothing reads as corruption.
    #[test]
    fn a_torn_rewrite_never_loses_an_acked_record() {
        let bs = 512;
        let variants: [[Step; 3]; 4] = [
            [&[(false, &[40, 60])], &[(false, &[30])], &[(true, &[20, 30])]],
            [&[(false, &[300, 300, 300])], &[(false, &[20])], &[(true, &[200, 200, 200, 200])]],
            [&[(false, &[100])], &[(false, &[30]), (false, &[300, 300, 300])], &[(true, &[10, 10, 10])]],
            [&[(false, &[100])], &[(false, &[30])], &[(false, &[20]), (true, &[250, 250, 250, 250])]],
        ];
        for variant in variants {
            let mut all = Vec::new();
            let mut group = 0..0;
            let mut steps = Vec::new();
            for step in variant {
                let mut calls = Vec::new();
                for &(atomic, sizes) in step {
                    let start = all.len();
                    let records: Vec<_> = sizes.iter().enumerate().map(|(i, &len)| record((start + i + 1) as u64, len)).collect();
                    all.extend(records.iter().map(|(seqno, kind, key, value)| WalRecord {
                        seqno: *seqno,
                        kind: *kind,
                        key: key.clone(),
                        value: value.clone(),
                    }));
                    if atomic {
                        group = start..all.len();
                    }
                    calls.push((atomic, records));
                }
                steps.push(calls);
            }
            let fresh = || Arc::new(FaultDevice::new(Arc::new(MemDevice::new(bs, DeviceProfile::free())), 1));
            let clean = fresh();
            assert_eq!(run_steps(&clean, &steps).1, all.len());
            for at in 0..clean.ops_performed() {
                for kind in [
                    FaultKind::Crash,
                    FaultKind::TornWrite { keep_blocks: 0 },
                    FaultKind::TornWrite { keep_blocks: 1 },
                    FaultKind::TornWrite { keep_blocks: 2 },
                ] {
                    let dev = fresh();
                    dev.schedule(at, kind.clone());
                    let (id, acked) = run_steps(&dev, &steps);
                    assert!(dev.pending_faults().is_empty(), "{kind:?} at #{at} never fired");
                    dev.heal();
                    let got = recover(dev.clone(), id).unwrap();
                    let case = format!("{kind:?} at #{at} of {} records", all.len());
                    assert!(got.len() >= acked, "{case}: {} of {acked} acked records recovered", got.len());
                    assert_eq!(got, all[..got.len()], "{case}: not a prefix of the log");
                    assert!(
                        got.len() <= group.start || got.len() >= group.end,
                        "{case}: {} of the atomic group's {} records recovered",
                        got.len() - group.start,
                        group.len()
                    );
                    assert_eq!(dev.stats().snapshot().corruption_detected, 0, "{case}");
                }
            }
        }
    }

    #[test]
    fn binary_keys_and_empty_values() {
        let dev = device();
        let mut wal = Wal::create(dev.clone()).unwrap();
        wal.append(1, ValueKind::Put, &[0, 255, 0], &[]).unwrap();
        wal.append(2, ValueKind::Delete, &[RECORD_MARKER; 5], &[]).unwrap();
        wal.sync().unwrap();
        let records = recover(dev, wal.id()).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].key, vec![0, 255, 0]);
        assert_eq!(records[1].key, vec![RECORD_MARKER; 5]);
    }
}
