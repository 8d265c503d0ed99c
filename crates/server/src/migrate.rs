//! Live shard migration: online split and merge with a crash-safe
//! cut-over.
//!
//! ## Split state machine
//!
//! 1. **Plan** (routing read lock): snapshot the current map, pick the
//!    donor's range, and choose a boundary — explicit, or the donor's
//!    [`suggest_split_key`](lsm_core::DbCore::suggest_split_key)
//!    (weighted fence-pointer median, no data blocks read).
//! 2. **Fork**: open a fresh `Db` for the new shard id on a device from
//!    the elastic factory.
//! 3. **Tap, then snapshot**: install a [`MigrationTap`] on the donor's
//!    committer for `[boundary, end)`, *then* take a `Db` snapshot. The
//!    order is the correctness hinge: every batch that commits after the
//!    tap is teed, every batch that committed before it is in the
//!    snapshot, and a batch in both is harmless because tapped regions
//!    replay in commit order (the newest op for a key always replays
//!    last).
//! 4. **Copy**: stream the snapshot's `[boundary, end)` into the
//!    recipient in chunked write batches. Tapped regions buffer in their
//!    channel meanwhile — they must apply only *after* the bulk copy, or
//!    a snapshot value could overwrite a newer tapped one.
//! 5. **Catch-up**: drain and apply the buffered tap backlog.
//! 6. **Cut-over** (routing write lock, so no write can route anywhere
//!    during it): barrier the donor's committer (drains every queued
//!    write into the tap), apply the tap remainder, `sync` the
//!    recipient, write the new map to the cluster-metadata file — the
//!    durable commit point — and swap the in-memory topology.
//!
//! The donor **never deletes** the moved range: the router clamps every
//! per-shard scan to the shard's owned range and routes points by
//! ownership, so the stale copy is invisible. That is what makes a crash
//! at *any* point recoverable: before the meta write the old map is
//! live and the donor serves the whole range; after it the new map is
//! live and the recipient was already synced. Both states are legal, so
//! there is no torn topology to repair. The one indeterminate window is
//! a *failed* meta write: its bytes may or may not have become durable,
//! so recovery could adopt either map — no further ack is safe under
//! both, and the server fail-stops (drains) instead of guessing.
//!
//! ## Merge
//!
//! Merge is the inverse: the right neighbour (donor) streams its whole
//! range into the left shard (recipient) and retires. One extra step
//! guards against resurrection: the recipient may hold a *stale* copy of
//! the absorbed range from an earlier split (donors keep their data), in
//! which keys since deleted on the donor would still be live. The
//! migration therefore tombstones the recipient's copy of the range
//! before copying — snapshot scans cannot see the donor's tombstones,
//! so the recipient must start from nothing.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;

use lsm_core::{Db, WriteBatch};
use lsm_obs::EventKind;

use crate::batcher::{GroupCommitter, MigrationTap};
use crate::protocol::repl_ops;
use crate::router::ShardSet;
use crate::server::ServerInner;
use crate::shardmap::{write_cluster_meta, ShardMap};

/// Entries per bulk-copy write batch.
const COPY_CHUNK: usize = 512;

/// Clears the tap on every exit path, so an aborted migration never
/// leaves the donor teeing into a dead channel.
struct TapGuard<'a>(&'a GroupCommitter);

impl Drop for TapGuard<'_> {
    fn drop(&mut self) {
        self.0.clear_tap();
    }
}

/// Applies one tapped ops region to `dst` as a single batch.
fn apply_region(dst: &Db, region: &[u8]) -> Result<(), String> {
    let mut batch = WriteBatch::new();
    for op in repl_ops(region).map_err(|e| e.to_string())? {
        op.map_err(|e| e.to_string())?.add_to(&mut batch);
    }
    dst.write_batch_mut(&mut batch).map_err(|e| e.to_string())
}

/// Feeds `snap`'s live entries in `[lo, hi)` (`hi == None`: to the end
/// of the keyspace) through `stage` into write batches of
/// [`COPY_CHUNK`] ops, each applied to `dst`. Returns the entry count.
fn rewrite_range(
    snap: &lsm_core::snapshot::Snapshot,
    lo: &[u8],
    hi: Option<&[u8]>,
    dst: &Db,
    stage: impl Fn(&mut WriteBatch, &[u8], &[u8]),
) -> Result<u64, String> {
    let mut cursor = lo.to_vec();
    let mut total = 0u64;
    let mut batch = WriteBatch::new();
    loop {
        let from = std::mem::take(&mut cursor);
        snap.scan_with(&from, hi, COPY_CHUNK, |k, v| {
            stage(&mut batch, k, v);
            cursor.clear();
            cursor.extend_from_slice(k);
        })
        .map_err(|e| e.to_string())?;
        if batch.is_empty() {
            return Ok(total);
        }
        cursor.push(0); // successor: resume strictly after the last key
        total += batch.len() as u64;
        dst.write_batch_mut(&mut batch).map_err(|e| e.to_string())?;
    }
}

/// Streams `snap`'s live entries in `[lo, hi)` into `dst`, chunked.
fn copy_range(
    snap: &lsm_core::snapshot::Snapshot,
    lo: &[u8],
    hi: Option<&[u8]>,
    dst: &Db,
) -> Result<u64, String> {
    rewrite_range(snap, lo, hi, dst, |batch, k, v| batch.put(k.to_vec(), v.to_vec()))
}

/// Writes a tombstone over every live key `db` holds in `[lo, hi)` — the
/// anti-resurrection step before a merge copies into a shard that may
/// hold a stale copy of the range from an earlier split.
fn clear_range(db: &Db, lo: &[u8], hi: Option<&[u8]>) -> Result<u64, String> {
    let snap = db.snapshot().map_err(|e| e.to_string())?;
    rewrite_range(&snap, lo, hi, db, |batch, k, _| batch.delete(k.to_vec()))
}

/// Drains whatever the tap has buffered and applies it to `dst`.
fn drain_tap(rx: &Receiver<Vec<u8>>, dst: &Db) -> Result<(), String> {
    while let Ok(region) = rx.try_recv() {
        apply_region(dst, &region)?;
    }
    Ok(())
}

/// Splits shard `idx` at `boundary` (or the donor's suggested median),
/// migrating `[boundary, end)` to a freshly-named shard while writes
/// keep flowing. Returns the new shard's stable id.
pub(crate) fn split_shard(
    inner: &ServerInner,
    idx: usize,
    boundary: Option<Vec<u8>>,
) -> Result<u64, String> {
    let elastic = inner.elastic.as_ref().ok_or("server is not elastic")?;
    let _one_at_a_time = elastic.mig_lock.lock().unwrap();
    // plan under the routing read lock, then release it: copy runs
    // against clones while reads and writes proceed
    let (donor, committer, map, lo, hi) = {
        let topo = inner.topo.read().unwrap();
        let map: ShardMap = topo.shards.map().ok_or("server is not range-routed")?.clone();
        if idx >= map.len() {
            return Err(format!("no shard at index {idx}"));
        }
        let (lo, hi) = map.range_of(idx);
        (
            topo.shards.db(idx).clone(),
            Arc::clone(&topo.committers[idx]),
            map.clone(),
            lo.to_vec(),
            hi.map(<[u8]>::to_vec),
        )
    };
    let boundary = match boundary {
        Some(b) => b,
        None => donor
            .suggest_split_key(&lo, hi.as_deref())
            .ok_or("shard has no interior split candidate")?,
    };
    let (new_map, new_id) = map.split(idx, &boundary)?;
    let recipient = Db::open((elastic.factory)(new_id), donor.config().clone())
        .map_err(|e| format!("open recipient shard {new_id}: {e}"))?;
    // tap BEFORE snapshot: see the module docs for why this order is
    // the no-lost-write invariant
    let (tap_tx, tap_rx) = channel();
    committer.install_tap(MigrationTap {
        lo: boundary.clone(),
        hi: hi.clone(),
        tx: tap_tx,
    });
    let _tap = TapGuard(&committer);
    let snap = donor.snapshot().map_err(|e| e.to_string())?;
    copy_range(&snap, &boundary, hi.as_deref(), &recipient)?;
    drop(snap);
    // catch up on the tap backlog outside any lock; the cut-over only
    // has to drain what trickled in since
    drain_tap(&tap_rx, &recipient)?;
    {
        let mut topo = inner.topo.write().unwrap();
        if !committer.barrier() {
            return Err("donor committer shut down mid-split".into());
        }
        drain_tap(&tap_rx, &recipient)?;
        recipient.sync().map_err(|e| e.to_string())?;
        // the durable commit point: once this meta file lands, recovery
        // adopts the new topology
        let mut meta_file = elastic.meta_file.lock().unwrap();
        let fid = match write_cluster_meta(&elastic.meta_dev, &new_map, *meta_file) {
            Ok(fid) => fid,
            Err(e) => {
                // indeterminate commit: the write failed, but its bytes
                // may still be durable, so recovery could adopt *either*
                // map. No further ack is safe under both — fail stop.
                inner.draining.store(true, Ordering::Release);
                return Err(format!(
                    "cluster meta write failed mid-flip (topology indeterminate, \
                     serving stopped): {e}"
                ));
            }
        };
        *meta_file = Some(fid);
        drop(meta_file);
        let new_committer = Arc::new(GroupCommitter::start(
            recipient.clone(),
            Arc::clone(&inner.metrics),
            None,
        ));
        let mut dbs = topo.shards.dbs().to_vec();
        dbs.insert(idx + 1, recipient);
        topo.committers.insert(idx + 1, new_committer);
        topo.shed_l0.insert(
            idx + 1,
            inner
                .cfg
                .shed_l0_runs
                .unwrap_or(dbs[idx + 1].config().l0_stall_runs),
        );
        topo.shards = ShardSet::with_map(dbs, new_map.clone());
        inner.metrics.event(EventKind::ShardSplit {
            parent: map.entries[idx].shard_id,
            new_shard: new_id,
            map_version: new_map.version,
        });
        inner.metrics.event(EventKind::ShardMapFlip {
            map_version: new_map.version,
            shards: new_map.len() as u64,
        });
    }
    Ok(new_id)
}

/// Merges shard `idx + 1` (donor) into shard `idx` (recipient),
/// migrating the donor's whole range left and retiring it. Returns the
/// absorbed shard's stable id.
pub(crate) fn merge_shards(inner: &ServerInner, idx: usize) -> Result<u64, String> {
    let elastic = inner.elastic.as_ref().ok_or("server is not elastic")?;
    let _one_at_a_time = elastic.mig_lock.lock().unwrap();
    let (donor, donor_committer, recipient, map, mid, hi) = {
        let topo = inner.topo.read().unwrap();
        let map: ShardMap = topo.shards.map().ok_or("server is not range-routed")?.clone();
        if idx + 1 >= map.len() {
            return Err(format!("shard {idx} has no right neighbour to absorb"));
        }
        let (mid, hi) = map.range_of(idx + 1);
        (
            topo.shards.db(idx + 1).clone(),
            Arc::clone(&topo.committers[idx + 1]),
            topo.shards.db(idx).clone(),
            map.clone(),
            mid.to_vec(),
            hi.map(<[u8]>::to_vec),
        )
    };
    let (new_map, absorbed) = map.merge(idx)?;
    // anti-resurrection: wipe the recipient's stale copy of the range
    // (left over if an earlier split made it the donor) before copying,
    // because the donor's snapshot cannot carry its tombstones
    clear_range(&recipient, &mid, hi.as_deref())?;
    let (tap_tx, tap_rx) = channel();
    donor_committer.install_tap(MigrationTap {
        lo: mid.clone(),
        hi: hi.clone(),
        tx: tap_tx,
    });
    let _tap = TapGuard(&donor_committer);
    let snap = donor.snapshot().map_err(|e| e.to_string())?;
    copy_range(&snap, &mid, hi.as_deref(), &recipient)?;
    drop(snap);
    drain_tap(&tap_rx, &recipient)?;
    let retired = {
        let mut topo = inner.topo.write().unwrap();
        if !donor_committer.barrier() {
            return Err("donor committer shut down mid-merge".into());
        }
        drain_tap(&tap_rx, &recipient)?;
        recipient.sync().map_err(|e| e.to_string())?;
        let mut meta_file = elastic.meta_file.lock().unwrap();
        let fid = match write_cluster_meta(&elastic.meta_dev, &new_map, *meta_file) {
            Ok(fid) => fid,
            Err(e) => {
                // same indeterminate-commit fail-stop as in split_shard
                inner.draining.store(true, Ordering::Release);
                return Err(format!(
                    "cluster meta write failed mid-flip (topology indeterminate, \
                     serving stopped): {e}"
                ));
            }
        };
        *meta_file = Some(fid);
        drop(meta_file);
        let mut dbs = topo.shards.dbs().to_vec();
        dbs.remove(idx + 1);
        let retired = topo.committers.remove(idx + 1);
        topo.shed_l0.remove(idx + 1);
        topo.shards = ShardSet::with_map(dbs, new_map.clone());
        inner.metrics.event(EventKind::ShardMerge {
            absorbed,
            into: new_map.entries[idx].shard_id,
            map_version: new_map.version,
        });
        inner.metrics.event(EventKind::ShardMapFlip {
            map_version: new_map.version,
            shards: new_map.len() as u64,
        });
        retired
    };
    // the barrier already drained it and the new map routes nothing to
    // it, so this join is quick — but do it outside the routing lock
    retired.shutdown();
    Ok(absorbed)
}
