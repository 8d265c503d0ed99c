//! Differential replica-set harness.
//!
//! The invariants under test, end to end over real loopback TCP:
//!
//! - **Read-your-writes at quorum.** With `ack_quorum == n_replicas`, a
//!   write acked to the client is already applied *and synced* on every
//!   replica, so a read routed to any node — primary or replica —
//!   observes exactly what a `BTreeMap` oracle predicts, even with
//!   concurrent client threads.
//! - **Hostile delivery never diverges a replica.** `REPL_BATCH` frames
//!   delivered out of order, duplicated, gapped, or with truncated ops
//!   regions must be acked (duplicates), rejected typed (gaps /
//!   malformed), and never half-applied: after the stream completes, the
//!   replica's devices are **byte-identical** — tables and manifest — to
//!   a reference that applied the same batches serially, in order, once.
//! - **The shutdown drain barrier.** A graceful primary shutdown waits
//!   for replica acks on every published batch, so a quorum-0 (fully
//!   asynchronous) deployment still loses nothing a clean handover.
//! - **Typed lag.** A write whose quorum wait times out answers
//!   `REPLICA_LAG`, stays durable on the primary, and bumps the timeout
//!   counter.
//! - **Promotion.** After the primary dies, a promoted replica serves
//!   every acked write and accepts new ones.
//! - **Composition.** A replica routes each shipped op by its own layout,
//!   so it needs nothing from the primary's: a 3-shard primary ships to a
//!   1-shard replica, and an elastic primary ships across live splits and
//!   merges.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use lsm_core::{BackgroundMode, Db, LsmConfig};
use lsm_obs::EventKind;
use lsm_storage::{DeviceProfile, IoCategory, MemDevice, StorageDevice};

use lsm_server::harness::{Cluster, Layout};
use lsm_server::protocol::{ReplOpsBuilder, Request, Response};
use lsm_server::{
    promote_replica, Client, PrimaryReplication, ReplicaState, ReplicationRole, Replicator,
    ServerConfig, ServerMetrics, ShardMap, ShardSet,
};

/// Tiny deterministic xorshift; good enough to scatter ops.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

fn wal_cfg() -> LsmConfig {
    LsmConfig {
        wal: true,
        ..LsmConfig::small_for_tests()
    }
}

/// WAL on and maintenance inline: every engine action happens at a
/// deterministic point in the apply stream, so two nodes fed the same
/// batches end up with the same device bytes.
fn inline_cfg() -> LsmConfig {
    LsmConfig {
        wal: true,
        background: BackgroundMode::Inline,
        ..LsmConfig::small_for_tests()
    }
}

/// A read-only replica hash-routing `shards` shards of `cfg`.
fn replica(shards: usize, cfg: LsmConfig) -> Cluster {
    let role = ReplicationRole::Replica;
    Cluster::start(Layout::Hash(shards), role, cfg, ServerConfig::default())
}

/// The role of a primary shipping to `replicas` at `ack_quorum`.
fn primary_of(replicas: &[Cluster], ack_quorum: usize) -> ReplicationRole {
    ReplicationRole::Primary(PrimaryReplication {
        replicas: replicas.iter().map(Cluster::addr).collect(),
        ack_quorum,
        ..PrimaryReplication::default()
    })
}

/// A primary and its replicas, each node its own cluster.
struct ReplicaSet {
    primary: Cluster,
    replicas: Vec<Cluster>,
}

/// Starts `n_replicas` replicas, then a primary shipping to all of them
/// at `ack_quorum`; every node hash-routes `shards` shards of `cfg`.
fn replica_set(shards: usize, n_replicas: usize, cfg: LsmConfig, ack_quorum: usize) -> ReplicaSet {
    let replicas: Vec<Cluster> = (0..n_replicas).map(|_| replica(shards, cfg.clone())).collect();
    let role = primary_of(&replicas, ack_quorum);
    let primary = Cluster::start(Layout::Hash(shards), role, cfg, ServerConfig::default());
    ReplicaSet { primary, replicas }
}

// ---------------------------------------------------------------------------
// Oracle: reads routed anywhere agree at full quorum
// ---------------------------------------------------------------------------

#[test]
fn quorum_acked_writes_read_identically_from_any_node() {
    let mut cluster = replica_set(2, 2, wal_cfg(), 2);
    let primary_addr = cluster.primary.addr();
    let replica_addrs: Vec<_> = cluster.replicas.iter().map(|r| r.addr()).collect();

    let handles: Vec<_> = (0..3u64)
        .map(|t| {
            let raddrs = replica_addrs.clone();
            std::thread::spawn(move || {
                let mut primary = Client::connect(primary_addr).unwrap();
                let mut replicas: Vec<Client> = raddrs
                    .iter()
                    .map(|&a| Client::connect(a).unwrap())
                    .collect();
                let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (t + 1));
                let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
                for i in 0..120u32 {
                    let key = format!("q{t}-{:03}", rng.below(40)).into_bytes();
                    if rng.below(100) < 25 {
                        primary.delete(&key).unwrap();
                        oracle.remove(&key);
                    } else {
                        let value = format!("v{t}-{i}").into_bytes();
                        primary.put(&key, &value).unwrap();
                        oracle.insert(key, value);
                    }
                    // the ack required both replicas: this probe must agree
                    // with the oracle no matter which node answers it
                    let probe = format!("q{t}-{:03}", rng.below(40)).into_bytes();
                    let expect = oracle.get(&probe).cloned();
                    let got = match rng.below(3) {
                        0 => primary.get(&probe).unwrap(),
                        r => replicas[(r - 1) as usize].get(&probe).unwrap(),
                    };
                    assert_eq!(got, expect, "divergent read of {probe:?}");
                }
                oracle
            })
        })
        .collect();

    let mut merged: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for h in handles {
        merged.extend(h.join().unwrap());
    }
    let expected: Vec<(Vec<u8>, Vec<u8>)> = merged.into_iter().collect();

    // every node serves the same final scan
    let mut c = cluster.primary.client();
    assert_eq!(c.scan(b"q", b"r", 10_000).unwrap(), expected, "primary scan");
    for (i, r) in cluster.replicas.iter().enumerate() {
        let mut rc = r.client();
        assert_eq!(rc.scan(b"q", b"r", 10_000).unwrap(), expected, "replica {i} scan");
    }
    drop(c);
    cluster.primary.server.take().unwrap().shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// Hostile delivery: proptest + byte-identical differential
// ---------------------------------------------------------------------------

/// Encoded ops regions for a batch stream over a small hot keyspace.
fn gen_batches(rng: &mut Rng) -> Vec<Vec<u8>> {
    let n = 2 + rng.below(6) as usize;
    (0..n)
        .map(|_| {
            let mut b = ReplOpsBuilder::new();
            for _ in 0..=rng.below(3) {
                let key = format!("pk{}", rng.below(10)).into_bytes();
                if rng.below(4) == 0 {
                    b.delete(&key);
                } else {
                    b.put(&key, format!("pv{}", rng.below(1000)).as_bytes());
                }
            }
            b.finish()
        })
        .collect()
}

/// Full content of every live file on a device, by file id.
fn fingerprint(dev: &Arc<dyn StorageDevice>) -> BTreeMap<u64, Vec<u8>> {
    let mut out = BTreeMap::new();
    for id in dev.live_files() {
        let n = dev.len_blocks(id).unwrap();
        let bytes = if n == 0 {
            Vec::new()
        } else {
            dev.read(id, 0, n, IoCategory::Misc).unwrap()
        };
        out.insert(id.0, bytes);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn hostile_delivery_never_diverges_the_replica(seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        let batches = gen_batches(&mut rng);
        let n = batches.len() as u64;

        let mut cluster = replica(2, inline_cfg());
        let mut c = cluster.client();
        let mut wm = 0u64; // model watermark

        // hostile phase: deliver random sequences — duplicates ack the
        // watermark, gaps get a typed rejection, in-order ones apply
        for _ in 0..n * 3 {
            let seq = 1 + rng.below(n);
            let resp = c
                .call(&Request::ReplBatch {
                    seq,
                    ops: batches[(seq - 1) as usize].clone(),
                })
                .unwrap();
            if seq <= wm {
                prop_assert!(
                    matches!(resp, Response::ReplAck { seq: s } if s == wm),
                    "duplicate {seq} at watermark {wm}: {resp:?}"
                );
            } else if seq == wm + 1 {
                wm = seq;
                prop_assert!(
                    matches!(resp, Response::ReplAck { seq: s } if s == wm),
                    "in-order {seq}: {resp:?}"
                );
            } else {
                match resp {
                    Response::Error(m) => prop_assert!(m.contains("gap"), "gap reply: {m}"),
                    other => prop_assert!(false, "gap {seq} at watermark {wm}: {other:?}"),
                }
            }
        }

        // a truncated ops region at the next expected sequence must be
        // rejected whole, with the watermark unmoved
        if wm < n {
            let good = &batches[wm as usize];
            let resp = c
                .call(&Request::ReplBatch {
                    seq: wm + 1,
                    ops: good[..good.len() - 1].to_vec(),
                })
                .unwrap();
            match resp {
                Response::Error(m) => prop_assert!(m.contains("malformed"), "reply: {m}"),
                other => prop_assert!(false, "truncated batch: {other:?}"),
            }
            match c.call(&Request::ReplSubscribe { replica_id: 0, from_seq: 0 }).unwrap() {
                Response::ReplAck { seq } => prop_assert_eq!(seq, wm),
                other => prop_assert!(false, "subscribe: {other:?}"),
            }
        }

        // recovery phase: the in-order tail completes the stream
        while wm < n {
            let seq = wm + 1;
            let resp = c
                .call(&Request::ReplBatch {
                    seq,
                    ops: batches[(seq - 1) as usize].clone(),
                })
                .unwrap();
            prop_assert!(matches!(resp, Response::ReplAck { seq: s } if s == seq));
            wm = seq;
        }
        drop(c);
        drop(cluster.server.take().unwrap().shutdown().unwrap());

        // reference: the same batches applied serially, in order, once
        let cfg = inline_cfg();
        let ref_devices: Vec<Arc<dyn StorageDevice>> = (0..2)
            .map(|_| {
                Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free()))
                    as Arc<dyn StorageDevice>
            })
            .collect();
        let dbs = ref_devices.iter().map(|d| Db::open(Arc::clone(d), cfg.clone()).unwrap());
        let shards = ShardSet::new(dbs.collect());
        let state = ReplicaState::new(&shards);
        for (i, ops) in batches.iter().enumerate() {
            state.apply_batch(&shards, (i + 1) as u64, ops).unwrap();
        }
        shards.flush_all().unwrap();
        drop(shards);

        // byte-identical per shard: same tables, same manifest
        let devices = cluster.devices.lock().unwrap();
        for (i, reference) in ref_devices.iter().enumerate() {
            prop_assert_eq!(
                fingerprint(&devices[&(i as u64)]),
                fingerprint(reference),
                "shard {} devices diverged",
                i
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Shutdown drain barrier
// ---------------------------------------------------------------------------

/// Regression test for the drain-order bug: `Server::shutdown` used to
/// flush and return as soon as the committers were drained, so with
/// `ack_quorum == 0` (fully asynchronous shipping) batches that were
/// committed and client-acked could still be queued in the shippers when
/// the process exited — and a failover to the replica would lose them.
/// The drain barrier now waits for every replica to ack every published
/// batch before shutdown returns.
#[test]
fn shutdown_drain_waits_for_replica_acks() {
    let mut cluster = replica_set(1, 1, wal_cfg(), 0);
    let mut c = cluster.primary.client();
    let ids: Vec<u64> = (0..200u32)
        .map(|i| {
            c.send(&Request::Put {
                key: format!("dr{i:04}").into_bytes(),
                value: format!("dv{i}").into_bytes(),
            })
            .unwrap()
        })
        .collect();
    for id in ids {
        assert!(matches!(c.wait_for(id).unwrap(), Response::Ok));
    }
    drop(c);

    let metrics = cluster.primary.server.as_ref().unwrap().metrics();
    cluster.primary.server.take().unwrap().shutdown().unwrap();
    let events = metrics.drain_events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ServerDrain { phase: "repl_acked", .. })),
        "shutdown must report the replica-ack barrier"
    );

    // nothing was waiting on the replica per-write, yet after a clean
    // shutdown it has every acked key
    let mut rc = cluster.replicas[0].client();
    for i in 0..200u32 {
        assert_eq!(
            rc.get(format!("dr{i:04}").as_bytes()).unwrap(),
            Some(format!("dv{i}").into_bytes()),
            "write dr{i:04} lost by the shutdown drain"
        );
    }
}

/// The replica acks each batch on the thread that reads the next one,
/// so a shipper that streamed a long backlog without reading acks filled
/// the ack direction's socket buffers, stalled the replica's reader, and
/// then blocked in its own write: both ends stuck, the drain timed out
/// and stopping the replicator hung joining the shipper. 400k one-op
/// batches carry about 8 MB of acks, past loopback's autotuned socket
/// buffers in both directions.
#[test]
fn a_backlog_whose_acks_outgrow_the_socket_buffers_is_shipped() {
    const BATCHES: u32 = 400_000;
    let replica = replica(1, inline_cfg());
    let rep = Replicator::start(
        0,
        PrimaryReplication {
            replicas: vec![replica.addr()],
            drain_timeout_ms: 60_000,
            ..PrimaryReplication::default()
        },
        ServerMetrics::new(),
    );
    for i in 0..BATCHES {
        let mut ops = ReplOpsBuilder::new();
        ops.put(format!("bl{:02}", i % 64).as_bytes(), &i.to_le_bytes());
        rep.publish(ops.finish());
    }
    if !rep.drain() {
        // a wedged replica reader would hang the cluster's drop
        std::mem::forget(replica);
        panic!("the replica never acked the whole backlog");
    }
    rep.stop();
    let mut rc = replica.client();
    let last = BATCHES - 1;
    assert_eq!(
        rc.get(format!("bl{:02}", last % 64).as_bytes()).unwrap(),
        Some(last.to_le_bytes().to_vec())
    );
}

// ---------------------------------------------------------------------------
// Typed lag + role enforcement
// ---------------------------------------------------------------------------

#[test]
fn quorum_timeout_answers_replica_lag_and_keeps_the_write() {
    // a listener that never accepts: the shipper's connect lands in the
    // OS backlog but no REPL_ACK ever comes back
    let sink = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let role = ReplicationRole::Primary(PrimaryReplication {
        replicas: vec![sink.local_addr().unwrap()],
        ack_quorum: 1,
        ack_timeout_ms: 100,
        drain_timeout_ms: 50,
    });
    let mut cluster = Cluster::start(Layout::Hash(1), role, wal_cfg(), ServerConfig::default());
    let mut c = cluster.client();
    let resp = c
        .call(&Request::Put {
            key: b"lag-k".to_vec(),
            value: b"lag-v".to_vec(),
        })
        .unwrap();
    assert!(matches!(resp, Response::ReplicaLag), "got {resp:?}");
    // the write is durable on the primary regardless
    assert_eq!(c.get(b"lag-k").unwrap(), Some(b"lag-v".to_vec()));
    drop(c);

    let metrics = cluster.server.as_ref().unwrap().metrics();
    let snap = metrics.snapshot();
    assert!(
        snap.counters.get("server.repl_lag_timeouts").copied().unwrap_or(0) >= 1,
        "timeout counter must move"
    );
    drop(cluster.server.take().unwrap().abort());
}

#[test]
fn replicas_are_read_only_and_roles_are_enforced() {
    let mut cluster = replica_set(1, 1, wal_cfg(), 1);
    let mut c = cluster.primary.client();
    c.put(b"ro-k", b"ro-v").unwrap();

    let mut rc = cluster.replicas[0].client();
    assert_eq!(rc.get(b"ro-k").unwrap(), Some(b"ro-v".to_vec()));
    for req in [
        Request::Put {
            key: b"ro-x".to_vec(),
            value: b"nope".to_vec(),
        },
        Request::Delete { key: b"ro-k".to_vec() },
    ] {
        match rc.call(&req).unwrap() {
            Response::Error(m) => assert!(m.contains("read-only"), "reply: {m}"),
            other => panic!("replica accepted a client write: {other:?}"),
        }
    }
    // the write stream ops are equally meaningless on a primary
    for req in [
        Request::ReplSubscribe { replica_id: 9, from_seq: 1 },
        Request::ReplBatch { seq: 1, ops: ReplOpsBuilder::new().finish() },
    ] {
        match c.call(&req).unwrap() {
            Response::Error(m) => assert!(m.contains("not a replica"), "reply: {m}"),
            other => panic!("primary accepted a replication op: {other:?}"),
        }
    }
    drop(c);
    cluster.primary.server.take().unwrap().shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// Promotion
// ---------------------------------------------------------------------------

#[test]
fn promotion_after_primary_crash_serves_every_acked_write() {
    let mut cluster = replica_set(2, 1, inline_cfg(), 1);
    let mut c = cluster.primary.client();
    let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for i in 0..400u32 {
        // distinct keys: enough memtable volume per shard that both the
        // primary and the replica flush, persisting the watermark
        let key = format!("f{i:04}").into_bytes();
        let value = format!("fv{i:04}-padding-to-fill-memtables").into_bytes();
        c.put(&key, &value).unwrap();
        oracle.insert(key, value);
        if i % 7 == 3 {
            let dead = format!("f{:04}", i / 2).into_bytes();
            c.delete(&dead).unwrap();
            oracle.remove(&dead);
        }
    }
    drop(c);

    // primary dies; at quorum 1 of 1, the replica acked every write
    drop(cluster.primary.server.take().unwrap().abort());
    let replica = &mut cluster.replicas[0];
    drop(replica.server.take().unwrap().abort());

    let recovered = replica.reopen().unwrap().expect("replica shards");
    let promoted = promote_replica(recovered, ServerConfig::default()).unwrap();
    // enough data moved through to flush, so a persisted watermark was
    // recovered and adopted
    assert!(promoted.adopted_seq > 0, "no watermark adopted");
    let metrics = promoted.server.metrics();
    assert!(
        metrics
            .drain_events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Failover { .. })),
        "promotion must record a failover event"
    );

    let mut pc = Client::connect(promoted.server.addr()).unwrap();
    for (k, v) in &oracle {
        assert_eq!(pc.get(k).unwrap().as_deref(), Some(v.as_slice()));
    }
    let expected: Vec<(Vec<u8>, Vec<u8>)> = oracle.into_iter().collect();
    assert_eq!(pc.scan(b"f", b"g", 10_000).unwrap(), expected);

    // the promoted node is a primary now: it takes writes
    pc.put(b"f-sentinel", b"alive").unwrap();
    assert_eq!(pc.get(b"f-sentinel").unwrap(), Some(b"alive".to_vec()));
    drop(pc);
    promoted.server.shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// Composition: a replica routes by its own layout
// ---------------------------------------------------------------------------

/// Last acked state per key: `None` for an acked delete.
type Acked = BTreeMap<Vec<u8>, Option<Vec<u8>>>;

fn assert_reads(c: &mut Client, acked: &Acked, node: &str) {
    for (k, v) in acked {
        assert_eq!(&c.get(k).unwrap(), v, "{node}: key {k:?}");
    }
}

/// Checks `acked` on the running replica, then stops it, promotes it
/// from its devices, and checks again on the promoted node.
fn assert_replica_and_promotion_read(replica: &mut Cluster, acked: &Acked) {
    assert_reads(&mut replica.client(), acked, "replica");
    drop(replica.server.take().unwrap().abort());
    let recovered = replica.reopen().unwrap().expect("replica shards");
    let promoted = promote_replica(recovered, ServerConfig::default()).unwrap();
    let mut pc = Client::connect(promoted.server.addr()).unwrap();
    assert_reads(&mut pc, acked, "promoted replica");
    drop(pc);
    promoted.server.shutdown().unwrap();
}

/// Shard counts need not match: the replica applies each shipped op to
/// the shard its own router picks.
#[test]
fn a_three_shard_primary_ships_to_a_one_shard_replica() {
    let mut replicas = vec![replica(1, wal_cfg())];
    let role = primary_of(&replicas, 1);
    let mut primary = Cluster::start(Layout::Hash(3), role, wal_cfg(), ServerConfig::default());
    let mut c = primary.client();
    let mut acked = Acked::new();
    for i in 0..240u32 {
        let key = format!("lay{:03}", i % 90).into_bytes();
        if i % 7 == 3 {
            c.delete(&key).unwrap();
            acked.insert(key, None);
        } else {
            let value = format!("lv{i}").into_bytes();
            c.put(&key, &value).unwrap();
            acked.insert(key, Some(value));
        }
    }
    drop(c);
    primary.server.take().unwrap().shutdown().unwrap();
    assert_replica_and_promotion_read(&mut replicas[0], &acked);
}

/// Partitioning and replication compose: an elastic primary ships every
/// batch to its replica at quorum 1 — the split's recipient's batches
/// and the merge survivor's alike — while 4 clients write and a split
/// then a merge land mid-stream.
#[test]
fn an_elastic_primary_ships_across_a_split_and_a_merge() {
    const CLIENTS: u8 = 4;
    const OPS: usize = 600;
    let mut replicas = vec![replica(1, wal_cfg())];
    let layout = Layout::Elastic(ShardMap::uniform(2), None);
    let role = primary_of(&replicas, 1);
    let mut primary = Cluster::start(layout, role, wal_cfg(), ServerConfig::default());
    let addr = primary.addr();
    let progress = Arc::new(AtomicUsize::new(0));
    let writers: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let progress = Arc::clone(&progress);
            std::thread::spawn(move || {
                // a fresh key per op, first bytes 0, 4, …, 252: every
                // shard of every map version commits some last values
                let key_of = |i: usize| vec![(i * 29 % 64 * 4) as u8, b'-', t, (i / 64) as u8];
                let mut c = Client::connect(addr).unwrap();
                let mut acked = Acked::new();
                for i in 0..OPS {
                    if i % 7 == 3 {
                        c.delete(&key_of(i - 3)).unwrap();
                        acked.insert(key_of(i - 3), None);
                    } else {
                        let value = format!("v{t}-{i}").into_bytes();
                        c.put(&key_of(i), &value).unwrap();
                        acked.insert(key_of(i), Some(value));
                    }
                    progress.fetch_add(1, Ordering::SeqCst);
                }
                acked
            })
        })
        .collect();
    let total = CLIENTS as usize * OPS;
    let wait_for = |done: usize| {
        while progress.load(Ordering::SeqCst) < done.min(total) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    };
    let server = primary.server.as_ref().unwrap();
    wait_for(total / 4);
    server.split_shard(0, Some(vec![0x40])).unwrap();
    // let the split's recipient commit its share before the merge
    wait_for((progress.load(Ordering::SeqCst) + total / 8).max(total / 2));
    server.merge_shards(0).unwrap();
    let mut acked = Acked::new();
    for w in writers {
        acked.extend(w.join().unwrap());
    }
    assert_eq!(server.shard_map().unwrap().version, 3, "one split and one merge");
    // shutdown drains the replica's acks for every published batch
    primary.server.take().unwrap().shutdown().unwrap();
    assert_replica_and_promotion_read(&mut replicas[0], &acked);
}
