//! The versioned shard map: a contiguous range partition of the keyspace
//! over named shards, persisted in a manifest-style cluster-metadata
//! file.
//!
//! ## Shape
//!
//! A [`ShardMap`] is a sorted list of [`ShardRange`] entries; entry `i`
//! owns `[entries[i].start, entries[i+1].start)` and the last entry owns
//! everything from its start key up. The first entry's start is the empty
//! key, so the entries always cover the whole keyspace with no gap and no
//! overlap — the partition invariant [`ShardMap::check_partition`]
//! asserts and the elastic proptests exercise. `shard_id`s are stable,
//! never-reused names (allocated from `next_shard_id`) so a shard's
//! on-disk device can be found again across splits, merges, and
//! restarts; the *index* of a shard changes whenever the map does.
//!
//! ## Versioning
//!
//! Every split or merge produces a new map with `version + 1`. The
//! version is what tests and clients observe across a live migration:
//! the cut-over writes the new map to the cluster-metadata file and then
//! swaps it into the server's routing state, so any reader that sees
//! version `v+1` is guaranteed the recipient shard is complete and
//! synced.
//!
//! ## Persistence
//!
//! The cluster-metadata file is a sealed record file of
//! `lsm_core::manifest`, the same one the engine's manifest is stored in:
//! [`write_record`](lsm_core::manifest::write_record) writes a new file
//! and then deletes its predecessor, and
//! [`find_record`](lsm_core::manifest::find_record) with
//! [`ShardMap::from_bytes`] finds the newest intact copy. A crash between
//! write and delete leaves two, and either is a legal topology (see
//! `migrate` — the donor keeps its data after a split, so the old map is
//! consistent too).

use lsm_core::entry::{get_varint, put_varint};

/// Magic marking a cluster-metadata record's first bytes.
pub(crate) const CLUSTER_META_MAGIC: u64 = 0x4C_53_4D_53_48_44_0A; // "LSM SHD\n"

/// One shard's entry in the map: the shard's stable id and the inclusive
/// start of the key range it owns (its end is the next entry's start).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardRange {
    /// Stable shard name; survives re-indexing, never reused.
    pub shard_id: u64,
    /// Inclusive start of the owned range (empty = beginning of keyspace).
    pub start: Vec<u8>,
}

/// A versioned range partition of the keyspace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    /// Bumped by every split/merge; what clients observe flip.
    pub version: u64,
    /// Next stable shard id to allocate.
    pub next_shard_id: u64,
    /// The partition, sorted by `start`, first entry's start empty.
    pub entries: Vec<ShardRange>,
}

impl ShardMap {
    /// A fresh map of `n` shards with uniform single-byte boundaries
    /// (`256*i/n`), shard ids `0..n`.
    pub fn uniform(n: usize) -> ShardMap {
        assert!(n > 0, "a shard map needs at least one shard");
        let entries = (0..n)
            .map(|i| ShardRange {
                shard_id: i as u64,
                start: if i == 0 {
                    Vec::new()
                } else {
                    vec![(256 * i / n) as u8]
                },
            })
            .collect();
        let map = ShardMap {
            version: 1,
            next_shard_id: n as u64,
            entries,
        };
        map.check_partition().expect("uniform map is a partition");
        map
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True only for an (invalid) empty map; present for clippy symmetry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Index of the shard owning `key`.
    pub fn owner_index(&self, key: &[u8]) -> usize {
        // first entry whose start is > key, minus one; entry 0 starts at
        // the empty key, so the subtraction never underflows
        self.entries
            .partition_point(|e| e.start.as_slice() <= key)
            .saturating_sub(1)
    }

    /// The key range entry `idx` owns: `(start, end)` with `end == None`
    /// meaning unbounded.
    pub fn range_of(&self, idx: usize) -> (&[u8], Option<&[u8]>) {
        let start = self.entries[idx].start.as_slice();
        let end = self.entries.get(idx + 1).map(|e| e.start.as_slice());
        (start, end)
    }

    /// Indices of every shard whose range intersects `[start, end)`, in
    /// key order. Empty for an empty request range.
    pub fn overlapping(&self, start: &[u8], end: &[u8]) -> std::ops::Range<usize> {
        if start >= end {
            return 0..0;
        }
        let first = self.owner_index(start);
        // last shard whose start is < end
        let last = self
            .entries
            .partition_point(|e| e.start.as_slice() < end)
            .saturating_sub(1);
        first..last + 1
    }

    /// A new map with shard `idx` split at `boundary`: the entry keeps
    /// `[start, boundary)` and a freshly-named shard takes
    /// `[boundary, end)`. Fails if the boundary does not fall strictly
    /// inside the entry's range. Returns the map and the new shard's id.
    pub fn split(&self, idx: usize, boundary: &[u8]) -> Result<(ShardMap, u64), String> {
        let (start, end) = self.range_of(idx);
        if boundary <= start || end.is_some_and(|e| boundary >= e) {
            return Err(format!(
                "split boundary {:?} outside shard {idx}'s range",
                String::from_utf8_lossy(boundary)
            ));
        }
        let mut next = self.clone();
        let new_id = next.next_shard_id;
        next.next_shard_id += 1;
        next.version += 1;
        next.entries.insert(
            idx + 1,
            ShardRange {
                shard_id: new_id,
                start: boundary.to_vec(),
            },
        );
        next.check_partition()?;
        Ok((next, new_id))
    }

    /// A new map with shard `idx + 1` absorbed into shard `idx` (the
    /// right neighbour's range joins the left's entry). Fails when `idx`
    /// has no right neighbour. Returns the map and the absorbed shard's
    /// id.
    pub fn merge(&self, idx: usize) -> Result<(ShardMap, u64), String> {
        if idx + 1 >= self.entries.len() {
            return Err(format!("shard {idx} has no right neighbour to absorb"));
        }
        let mut next = self.clone();
        next.version += 1;
        let absorbed = next.entries.remove(idx + 1).shard_id;
        next.check_partition()?;
        Ok((next, absorbed))
    }

    /// Verifies the partition invariant: non-empty, first start empty,
    /// starts strictly increasing (no gap, no overlap), shard ids unique.
    pub fn check_partition(&self) -> Result<(), String> {
        if self.entries.is_empty() {
            return Err("shard map has no entries".into());
        }
        if !self.entries[0].start.is_empty() {
            return Err("first shard does not start at the empty key (gap)".into());
        }
        for w in self.entries.windows(2) {
            if w[0].start >= w[1].start {
                return Err(format!(
                    "shard starts not strictly increasing: {:?} then {:?}",
                    String::from_utf8_lossy(&w[0].start),
                    String::from_utf8_lossy(&w[1].start)
                ));
            }
        }
        let mut ids: Vec<u64> = self.entries.iter().map(|e| e.shard_id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != self.entries.len() {
            return Err("duplicate shard id".into());
        }
        if ids.last().is_some_and(|&max| max >= self.next_shard_id) {
            return Err("next_shard_id not past every live id".into());
        }
        Ok(())
    }

    /// Serializes with the leading magic.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&CLUSTER_META_MAGIC.to_le_bytes());
        put_varint(&mut out, self.version);
        put_varint(&mut out, self.next_shard_id);
        put_varint(&mut out, self.entries.len() as u64);
        for e in &self.entries {
            put_varint(&mut out, e.shard_id);
            put_varint(&mut out, e.start.len() as u64);
            out.extend_from_slice(&e.start);
        }
        out
    }

    /// Deserializes; `None` when the magic, framing, or partition
    /// invariant is wrong — recovery treats such a file as a torn write
    /// and falls back to an older candidate.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 8 || u64::from_le_bytes(bytes[0..8].try_into().ok()?) != CLUSTER_META_MAGIC
        {
            return None;
        }
        let mut off = 8usize;
        let next = |off: &mut usize| -> Option<u64> {
            let (v, n) = get_varint(bytes.get(*off..)?)?;
            *off += n;
            Some(v)
        };
        let version = next(&mut off)?;
        let next_shard_id = next(&mut off)?;
        let n = next(&mut off)? as usize;
        if n == 0 || n > 1 << 16 {
            return None;
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let shard_id = next(&mut off)?;
            let len = next(&mut off)? as usize;
            let start = bytes.get(off..off.checked_add(len)?)?.to_vec();
            off += len;
            entries.push(ShardRange { shard_id, start });
        }
        let map = ShardMap {
            version,
            next_shard_id,
            entries,
        };
        map.check_partition().ok()?;
        Some(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_core::manifest::{find_record, write_record};
    use lsm_storage::{
        DeviceProfile, FileId, IoCategory, MemDevice, StorageDevice, StorageResult, WritableFile,
    };
    use std::sync::Arc;

    fn write_cluster_meta(
        dev: &Arc<dyn StorageDevice>,
        map: &ShardMap,
        previous: Option<FileId>,
    ) -> StorageResult<FileId> {
        write_record(dev, &map.to_bytes(), previous)
    }

    fn find_cluster_meta(
        dev: &Arc<dyn StorageDevice>,
    ) -> StorageResult<Option<(FileId, ShardMap)>> {
        find_record(dev, CLUSTER_META_MAGIC, ShardMap::from_bytes)
    }

    fn device() -> Arc<dyn StorageDevice> {
        Arc::new(MemDevice::new(512, DeviceProfile::free()))
    }

    #[test]
    fn uniform_partition_and_ownership() {
        let map = ShardMap::uniform(4);
        assert_eq!(map.len(), 4);
        assert_eq!(map.entries[0].start, b"".to_vec());
        assert_eq!(map.entries[1].start, vec![64u8]);
        assert_eq!(map.owner_index(b""), 0);
        assert_eq!(map.owner_index(&[63, 0xFF]), 0);
        assert_eq!(map.owner_index(&[64]), 1);
        assert_eq!(map.owner_index(&[0xFF; 8]), 3);
        // every key has exactly one owner by construction; spot-check the
        // range query agrees with point ownership
        assert_eq!(map.overlapping(&[10], &[11]), 0..1);
        assert_eq!(map.overlapping(&[63], &[65]), 0..2);
        assert_eq!(map.overlapping(b"", &[0xFF]), 0..4);
        assert_eq!(map.overlapping(&[65], &[65]), 0..0, "empty range");
        // end exactly at a boundary excludes the right shard
        assert_eq!(map.overlapping(&[10], &[64]), 0..1);
    }

    #[test]
    fn split_and_merge_preserve_partition_and_name_freshly() {
        let map = ShardMap::uniform(2);
        let (m2, new_id) = map.split(0, &[32]).unwrap();
        assert_eq!(m2.version, map.version + 1);
        assert_eq!(new_id, 2);
        assert_eq!(m2.len(), 3);
        assert_eq!(m2.owner_index(&[40]), 1);
        assert_eq!(m2.entries[1].shard_id, 2);
        m2.check_partition().unwrap();

        // boundary must fall strictly inside
        assert!(map.split(0, b"").is_err());
        assert!(map.split(0, &[128]).is_err());
        assert!(map.split(1, &[128]).is_err());
        assert!(map.split(1, &[200]).is_ok());

        let (m3, absorbed) = m2.merge(0).unwrap();
        assert_eq!(absorbed, 2);
        assert_eq!(m3.len(), 2);
        assert_eq!(m3.version, m2.version + 1);
        assert_eq!(m3.owner_index(&[40]), 0);
        assert!(m3.merge(1).is_err(), "last shard has no right neighbour");
    }

    #[test]
    fn meta_roundtrips_and_rejects_garbage() {
        let map = ShardMap::uniform(3);
        assert_eq!(ShardMap::from_bytes(&map.to_bytes()), Some(map.clone()));
        assert!(ShardMap::from_bytes(b"junk").is_none());
        let bytes = map.to_bytes();
        assert!(ShardMap::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        // a parseable encoding of a non-partition is rejected too
        let mut bad = map.clone();
        bad.entries[1].start = Vec::new();
        assert!(ShardMap::from_bytes(&bad.to_bytes()).is_none());
    }

    #[test]
    fn newest_parseable_meta_wins() {
        let dev = device();
        let v1 = ShardMap::uniform(2);
        let id1 = write_cluster_meta(&dev, &v1, None).unwrap();
        let (v2, _) = v1.split(0, &[7]).unwrap();
        // crash before the old file was deleted: both live
        let id2 = write_cluster_meta(&dev, &v2, None).unwrap();
        assert!(id2.0 > id1.0);
        let (found_id, found) = find_cluster_meta(&dev).unwrap().unwrap();
        assert_eq!(found_id, id2);
        assert_eq!(found, v2);
        // normal supersede deletes the older candidates
        let (v3, _) = v2.split(1, &[9]).unwrap();
        let id3 = write_cluster_meta(&dev, &v3, Some(id2)).unwrap();
        let _ = dev.delete(id1);
        let (found_id, found) = find_cluster_meta(&dev).unwrap().unwrap();
        assert_eq!(found_id, id3);
        assert_eq!(found.version, v3.version);
    }

    #[test]
    fn empty_device_has_no_meta() {
        assert!(find_cluster_meta(&device()).unwrap().is_none());
    }

    /// Any single-bit flip of the newer map (magic, body, padding or
    /// trailer) breaks its seal, so recovery adopts the older map rather
    /// than one that merely parses.
    #[test]
    fn every_bit_flip_of_the_newer_map_falls_back_to_the_older() {
        let older = ShardMap::uniform(2);
        let (newer, _) = older.split(0, &[7]).unwrap();
        let scratch = device();
        let fid = write_cluster_meta(&scratch, &newer, None).unwrap();
        let blocks = scratch.len_blocks(fid).unwrap();
        let sealed = scratch.read(fid, 0, blocks, IoCategory::Misc).unwrap();
        for bit in 0..sealed.len() * 8 {
            let dev = device();
            write_cluster_meta(&dev, &older, None).unwrap();
            let mut flipped = sealed.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let mut w = WritableFile::create(Arc::clone(&dev), IoCategory::Misc).unwrap();
            w.append(&flipped).unwrap();
            w.seal().unwrap();
            assert_eq!(
                find_cluster_meta(&dev).unwrap().unwrap().1,
                older,
                "bit {bit}"
            );
        }
    }
}
