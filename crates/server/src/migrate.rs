//! Live shard migration: online split and merge with a crash-safe
//! cut-over. Both are one routine, [`migrate`], over a `Plan`: donor,
//! recipient, range, new map, and how the route table changes.
//!
//! 1. **Plan** (routing read lock): snapshot the current map and pick
//!    the range. A split's boundary is explicit or the donor's
//!    [`suggest_split_key`](lsm_core::DbCore::suggest_split_key)
//!    (weighted fence-pointer median, no data blocks read), and its
//!    recipient a fresh `Db` on a device from the elastic factory; a
//!    merge moves the right neighbour's whole range into the left shard.
//! 2. **Clear** (merge only): tombstone the recipient's copy of the
//!    range. It may hold a *stale* copy from an earlier split (donors
//!    keep their data), in which keys since deleted on the donor would
//!    still be live, and snapshot scans cannot carry the donor's
//!    tombstones, so the recipient must start from nothing.
//! 3. **Tap, then snapshot**: install a [`MigrationTap`] on the donor's
//!    committer for the range, *then* take a `Db` snapshot. The order is
//!    the correctness hinge: every batch that commits after the tap is
//!    teed, every batch that committed before it is in the snapshot, and
//!    a batch in both is harmless because tapped regions replay in commit
//!    order (the newest op for a key always replays last).
//! 4. **Copy**: stream the snapshot's range into the recipient in chunked
//!    write batches. Tapped regions buffer in their channel meanwhile —
//!    they must apply only *after* the bulk copy, or a snapshot value
//!    could overwrite a newer tapped one.
//! 5. **Catch-up**: drain and apply the buffered tap backlog.
//! 6. **Cut-over** (routing write lock, so no write can route anywhere
//!    during it): barrier the donor's committer (drains every queued
//!    write into the tap — on a replicated primary, through its quorum
//!    waits), apply the tap remainder, `sync` the recipient, write the
//!    new map to the cluster-metadata file — the durable commit point —
//!    and swap the route table. A split's recipient gets its write path
//!    from the server's one shard helper, so a primary ships its batches
//!    too; a merge's donor retires. Copies and replays write to the
//!    recipient's engine directly, so nothing moved is shipped twice.
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

use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;

use lsm_core::manifest::write_record;
use lsm_core::{Db, WriteBatch};
use lsm_obs::EventKind;

use crate::batcher::{GroupCommitter, MigrationTap};
use crate::protocol::repl_ops;
use crate::router::ShardSet;
use crate::server::{lane, ElasticCtx, ServerInner};
use crate::shardmap::ShardMap;

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

/// How a migration's cut-over changes the route table.
enum Change {
    /// A split: the recipient joins as a new shard at this index.
    Insert(usize),
    /// A merge: the donor at this index retires into an existing
    /// recipient, whose copy of the range is cleared first.
    Retire(usize),
}

/// One migration, as data: move the donor's `[lo, hi)` into the
/// recipient, then flip to `map` with `change`, announcing `event`.
struct Plan {
    donor: Db,
    committer: Arc<GroupCommitter>,
    recipient: Db,
    lo: Vec<u8>,
    hi: Option<Vec<u8>>,
    map: ShardMap,
    change: Change,
    event: EventKind,
}

/// The live map and the engine and committer of shard `idx`, read under
/// the routing read lock.
fn shard_at(
    inner: &ServerInner,
    idx: usize,
) -> Result<(ShardMap, Db, Arc<GroupCommitter>), String> {
    let routes = inner.routes.read().unwrap();
    let map = routes.shards.map().ok_or("server is not range-routed")?;
    if idx >= map.len() {
        return Err(format!("no shard at index {idx}"));
    }
    let committer = Arc::clone(&routes.lanes[idx].committer);
    Ok((map.clone(), routes.shards.db(idx).clone(), committer))
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
    let (map, donor, committer) = shard_at(inner, idx)?;
    let (lo, hi) = map.range_of(idx);
    let boundary = match boundary {
        Some(b) => b,
        None => donor
            .suggest_split_key(lo, hi)
            .ok_or("shard has no interior split candidate")?,
    };
    let (new_map, new_id) = map.split(idx, &boundary)?;
    // the recipient inherits the design the donor runs now, retunes
    // included, not the one it booted on
    let recipient = Db::open((elastic.factory)(new_id), (*donor.effective_config()).clone())
        .map_err(|e| format!("open recipient shard {new_id}: {e}"))?;
    let event = EventKind::ShardSplit {
        parent: map.entries[idx].shard_id,
        new_shard: new_id,
        map_version: new_map.version,
    };
    migrate(
        inner,
        elastic,
        Plan {
            donor,
            committer,
            recipient,
            lo: boundary,
            hi: hi.map(<[u8]>::to_vec),
            map: new_map,
            change: Change::Insert(idx + 1),
            event,
        },
    )?;
    Ok(new_id)
}

/// Merges shard `idx + 1` (donor) into shard `idx` (recipient),
/// migrating the donor's whole range left and retiring it. Returns the
/// absorbed shard's stable id.
pub(crate) fn merge_shards(inner: &ServerInner, idx: usize) -> Result<u64, String> {
    let elastic = inner.elastic.as_ref().ok_or("server is not elastic")?;
    let _one_at_a_time = elastic.mig_lock.lock().unwrap();
    let (map, donor, committer) = shard_at(inner, idx + 1)
        .map_err(|_| format!("shard {idx} has no right neighbour to absorb"))?;
    let (new_map, absorbed) = map.merge(idx)?;
    let recipient = inner.routes.read().unwrap().shards.db(idx).clone();
    let (lo, hi) = map.range_of(idx + 1);
    let event = EventKind::ShardMerge {
        absorbed,
        into: new_map.entries[idx].shard_id,
        map_version: new_map.version,
    };
    migrate(
        inner,
        elastic,
        Plan {
            donor,
            committer,
            recipient,
            lo: lo.to_vec(),
            hi: hi.map(<[u8]>::to_vec),
            map: new_map,
            change: Change::Retire(idx + 1),
            event,
        },
    )?;
    Ok(absorbed)
}

/// The one migration routine (see the module docs): clear (merge only),
/// tap, snapshot, copy, catch up, then cut over under the routing write
/// lock.
fn migrate(inner: &ServerInner, elastic: &ElasticCtx, plan: Plan) -> Result<(), String> {
    let (lo, hi, dst) = (&plan.lo, plan.hi.as_deref(), &plan.recipient);
    if let Change::Retire(_) = plan.change {
        clear_range(dst, lo, hi)?;
    }
    // tap BEFORE snapshot: see the module docs for why this order is the
    // no-lost-write invariant
    let (tx, tap_rx) = channel();
    plan.committer.install_tap(MigrationTap {
        lo: lo.clone(),
        hi: plan.hi.clone(),
        tx,
    });
    let _tap = TapGuard(&plan.committer);
    let snap = plan.donor.snapshot().map_err(|e| e.to_string())?;
    copy_range(&snap, lo, hi, dst)?;
    drop(snap);
    // catch up on the tap backlog outside any lock; the cut-over only has
    // to drain what trickled in since
    drain_tap(&tap_rx, dst)?;
    let retired = {
        let mut routes = inner.routes.write().unwrap();
        if !plan.committer.barrier() {
            return Err("donor committer shut down mid-migration".into());
        }
        drain_tap(&tap_rx, dst)?;
        dst.sync().map_err(|e| e.to_string())?;
        // the durable commit point: once this meta file lands, recovery
        // adopts the new topology
        let mut meta_file = elastic.meta_file.lock().unwrap();
        let map = &plan.map;
        *meta_file = match write_record(&elastic.meta_dev, &map.to_bytes(), Some(*meta_file)) {
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
        drop(meta_file);
        let mut dbs = routes.shards.dbs().to_vec();
        let retired = match plan.change {
            Change::Insert(at) => {
                let lane = lane(dst, &inner.cfg, &inner.metrics, &inner.replicator);
                routes.lanes.insert(at, lane);
                dbs.insert(at, dst.clone());
                None
            }
            Change::Retire(at) => {
                dbs.remove(at);
                Some(routes.lanes.remove(at).committer)
            }
        };
        routes.shards = ShardSet::with_map(dbs, map.clone());
        inner.metrics.event(plan.event);
        inner.metrics.event(EventKind::ShardMapFlip {
            map_version: map.version,
            shards: map.len() as u64,
        });
        retired
    };
    // a retired donor: the barrier already drained it and the new map
    // routes nothing to it, so this join is quick — but do it outside the
    // routing lock
    if let Some(c) = retired {
        c.shutdown();
    }
    Ok(())
}
