//! Elastic-topology correctness: live splits and merges under
//! concurrent client load, differential against a `BTreeMap` oracle.
//!
//! Three invariants are on trial while the shard map flips underneath
//! running connections:
//!
//! 1. **Read-your-writes** — a GET pipelined behind unacked PUTs on the
//!    same connection observes them, even when the owning shard changed
//!    between the PUT and the GET.
//! 2. **Scan monotonicity** — a cross-shard SCAN issued while a
//!    migration cuts over returns one strictly-ascending, gap-free view
//!    that matches the oracle; no key is seen twice (donor + recipient)
//!    or zero times (dropped mid-handoff).
//! 3. **Partition validity** — every shard-map version ever produced is
//!    a gap-free, overlap-free tiling of the keyspace (proptest over
//!    arbitrary split/merge sequences), and the post-shutdown durable
//!    map equals the served one.
//!
//! The rebalancer test closes the loop end to end: a shifting-hotspot
//! write load against a one-shard elastic server must make the policy
//! thread split, and idleness afterwards must make it merge back down.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::collection::vec;
use proptest::prelude::*;

use lsm_core::{Db, LsmConfig};
use lsm_server::harness::{Cluster, Layout};
use lsm_server::{
    Client, ElasticOptions, RebalancePolicy, ReplicationRole, Request, Response, Server,
    ServerConfig, ShardMap, ShardSet, Topology,
};
use lsm_storage::{DeviceProfile, MemDevice, StorageDevice};
use lsm_workload::hotspot::{HotspotSpec, ShiftingHotspot};
use lsm_workload::{OpMix, Operation};

type Oracle = BTreeMap<Vec<u8>, Vec<u8>>;

fn wal_cfg() -> LsmConfig {
    LsmConfig {
        wal: true,
        ..LsmConfig::small_for_tests()
    }
}

/// A standalone elastic cluster serving `map` over [`wal_cfg`].
fn elastic(map: ShardMap, policy: Option<RebalancePolicy>) -> Cluster {
    let layout = Layout::Elastic(map, policy);
    Cluster::start(layout, ReplicationRole::None, wal_cfg(), ServerConfig::default())
}

/// One connection's shifting-hotspot workload over its own `t{n}-`
/// prefix: pipelined writes, read-your-writes gets, monotonicity-checked
/// differential scans — all while the topology churns underneath.
fn hotspot_worker(mut c: Client, thread: usize, ops: usize) -> Oracle {
    let mut oracle = Oracle::new();
    let mut gen = ShiftingHotspot::new(HotspotSpec {
        key_space: 240,
        hot_fraction: 0.9,
        hot_width: 40,
        phase_ops: (ops / 4).max(1) as u64,
        mix: OpMix {
            insert: 0.5,
            update: 0.0,
            read: 0.2,
            scan: 0.15,
            delete: 0.15,
            rmw: 0.0,
        },
        value_len: 24,
        scan_len: 1000,
        seed: 0x0E1A_571C + thread as u64,
    });
    let prefix = format!("t{thread}-").into_bytes();
    let rekey = |k: &[u8]| {
        let mut out = prefix.clone();
        out.extend_from_slice(k);
        out
    };
    // '.' sorts right after '-': the exclusive upper bound of the prefix
    let prefix_end = format!("t{thread}.").into_bytes();
    let mut inflight: Vec<u64> = Vec::new();
    for n in 0..ops {
        match gen.next_op() {
            Operation::Put { key, value } => {
                let k = rekey(&key);
                let id = c
                    .send(&Request::Put {
                        key: k.clone(),
                        value: value.clone(),
                    })
                    .unwrap();
                inflight.push(id);
                oracle.insert(k, value);
            }
            Operation::Delete { key } => {
                let k = rekey(&key);
                let id = c.send(&Request::Delete { key: k.clone() }).unwrap();
                inflight.push(id);
                oracle.remove(&k);
            }
            Operation::Get { key } => {
                let k = rekey(&key);
                let got = c.get(&k).unwrap();
                assert_eq!(
                    got,
                    oracle.get(&k).cloned(),
                    "thread {thread} op {n}: get diverged from oracle mid-churn"
                );
            }
            Operation::Scan { start, .. } => {
                let lo = rekey(&start);
                let got = c.scan(&lo, &prefix_end, 100_000).unwrap();
                assert!(
                    got.windows(2).all(|w| w[0].0 < w[1].0),
                    "thread {thread} op {n}: scan not strictly ascending across a map flip"
                );
                let want: Vec<(Vec<u8>, Vec<u8>)> = oracle
                    .range(lo.clone()..prefix_end.clone())
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(got, want, "thread {thread} op {n}: scan diverged mid-churn");
            }
            Operation::ReadModifyWrite { key, value } => {
                let k = rekey(&key);
                c.get(&k).unwrap();
                let id = c
                    .send(&Request::Put {
                        key: k.clone(),
                        value: value.clone(),
                    })
                    .unwrap();
                inflight.push(id);
                oracle.insert(k, value);
            }
        }
        if inflight.len() >= 16 {
            for id in inflight.drain(..) {
                assert_eq!(c.wait_for(id).unwrap(), Response::Ok);
            }
        }
    }
    for id in inflight.drain(..) {
        assert_eq!(c.wait_for(id).unwrap(), Response::Ok);
    }
    oracle
}

#[test]
fn concurrent_clients_survive_splits_and_merges() {
    // topology churn is driven explicitly below
    let cluster = elastic(ShardMap::uniform(2), None);
    let addr = cluster.addr();
    let initial_version = cluster.server.as_ref().unwrap().shard_map().unwrap().version;

    let active = Arc::new(AtomicUsize::new(3));
    let workers: Vec<_> = (0..3)
        .map(|t| {
            let active = Arc::clone(&active);
            std::thread::spawn(move || {
                let c = Client::connect(addr).expect("connect");
                let oracle = hotspot_worker(c, t, 600);
                active.fetch_sub(1, Ordering::SeqCst);
                oracle
            })
        })
        .collect();

    // churn the topology while the workers hammer it: walk a boundary
    // cycle, splitting where the boundary is interior and merging it
    // away where a shard already starts there
    let server = cluster.server.as_ref().unwrap();
    let boundaries: Vec<Vec<u8>> = vec![
        b"t1-".to_vec(),
        b"t2-".to_vec(),
        b"t0-user000000000120".to_vec(),
        b"t1-user000000000120".to_vec(),
        b"t2-user000000000120".to_vec(),
    ];
    let mut flips = 0u64;
    let mut b = 0usize;
    while active.load(Ordering::SeqCst) > 0 {
        let map = server.shard_map().unwrap();
        let boundary = &boundaries[b % boundaries.len()];
        b += 1;
        let idx = map.owner_index(boundary);
        if map.entries[idx].start == *boundary {
            server
                .merge_shards(idx - 1)
                .unwrap_or_else(|e| panic!("merge at {boundary:?} failed: {e}"));
        } else {
            server
                .split_shard(idx, Some(boundary.clone()))
                .unwrap_or_else(|e| panic!("split at {boundary:?} failed: {e}"));
        }
        flips += 1;
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(flips >= 4, "only {flips} topology flips while clients ran");

    let mut merged = Oracle::new();
    for w in workers {
        merged.extend(w.join().expect("client thread panicked"));
    }

    // the final served map: valid partition, version advanced by flips
    let map = server.shard_map().unwrap();
    map.check_partition().expect("served map must tile the keyspace");
    assert_eq!(map.version, initial_version + flips);

    // a fresh client sees the same map over the wire
    let mut c = cluster.client();
    let (wire_version, wire_entries) = c.shard_map().unwrap();
    assert_eq!(wire_version, map.version);
    assert_eq!(wire_entries.len(), map.len());
    for (got, want) in wire_entries.iter().zip(&map.entries) {
        assert_eq!(got.0, want.shard_id);
        assert_eq!(got.1, want.start);
    }

    // global stitched scan equals the merged oracle — exactly once each
    let got = c.scan(b"t", b"u", 1_000_000).unwrap();
    let want: Vec<(Vec<u8>, Vec<u8>)> =
        merged.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(got.len(), want.len(), "stitched scan lost or invented entries");
    assert_eq!(got, want, "stitched scan diverged from oracle");
    drop(c);

    // durable side: shutdown, recover the map from the meta device, and
    // prove the clamped range view over the reopened shards still equals
    // the oracle (donors keep stale out-of-range data; it must stay
    // invisible)
    let mut cluster = cluster;
    cluster.server.take().unwrap().shutdown().unwrap();
    let topology = cluster.reopen().expect("recover elastic cluster").expect("a durable map");
    let recovered = topology.elastic.expect("an elastic topology").map;
    assert_eq!(recovered.version, map.version, "durable map lags the served one");
    let set = ShardSet::with_map(topology.shards, recovered);
    let after = set.scan(b"t", b"u", 1_000_000).unwrap();
    assert_eq!(after, want, "reopened cluster diverged from oracle");
}

/// Regression: migration materialised "end of keyspace" as `[0xFF; 64]`,
/// so a last-shard split never copied keys at or above that sentinel,
/// although the wire accepts much longer keys.
#[test]
fn keys_past_a_64_byte_sentinel_survive_a_last_shard_split() {
    let cluster = elastic(ShardMap::uniform(2), None);
    let server = cluster.server.as_ref().unwrap();
    let mut c = cluster.client();
    let (short, long) = (vec![0xFF; 8], vec![0xFF; 65]);
    c.put(&short, b"short").unwrap();
    c.put(&long, b"long").unwrap();
    let last = server.shard_map().unwrap().len() - 1;
    server.split_shard(last, Some(vec![0xF0])).unwrap();
    assert_eq!(c.get(&short).unwrap(), Some(b"short".to_vec()));
    assert_eq!(c.get(&long).unwrap(), Some(b"long".to_vec()), "lost by the split");
}

/// The merge side of the same bug: the copy back into the left shard
/// skipped such keys, and the anti-resurrection pass never tombstoned
/// the left shard's stale copy of one deleted since the split.
#[test]
fn keys_past_a_64_byte_sentinel_survive_a_last_shard_merge() {
    let cluster = elastic(ShardMap::uniform(2), None);
    let server = cluster.server.as_ref().unwrap();
    let mut c = cluster.client();
    let (deleted, late) = (vec![0xFF; 66], vec![0xFF; 67]);
    c.put(&deleted, b"stale").unwrap();
    let last = server.shard_map().unwrap().len() - 1;
    server.split_shard(last, Some(vec![0xF0])).unwrap();
    // the new last shard diverges from the copy its donor kept
    c.delete(&deleted).unwrap();
    c.put(&late, b"late").unwrap();
    server.merge_shards(last).unwrap();
    assert_eq!(c.get(&late).unwrap(), Some(b"late".to_vec()), "lost by the merge");
    assert_eq!(c.get(&deleted).unwrap(), None, "resurrected by the merge");
}

/// A split's recipient boots on the design its donor runs, retunes
/// included, not on the donor's boot config.
#[test]
fn split_recipient_inherits_the_donors_live_config() {
    let cfg = wal_cfg();
    let block_size = cfg.block_size;
    let mint = move |_| {
        Arc::new(MemDevice::new(block_size, DeviceProfile::free())) as Arc<dyn StorageDevice>
    };
    let donor = Db::open(mint(0), cfg.clone()).unwrap();
    let retuned = LsmConfig {
        size_ratio: cfg.size_ratio + 2,
        bits_per_key: cfg.bits_per_key + 4.0,
        ..cfg.clone()
    };
    donor.set_config(retuned.clone()).unwrap();
    let topology = Topology {
        shards: vec![donor.clone()],
        elastic: Some(ElasticOptions {
            map: ShardMap::uniform(1),
            meta_dev: mint(u64::MAX),
            factory: Box::new(mint),
            policy: None,
        }),
        role: ReplicationRole::None,
    };
    let server = Server::serve(topology, ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    c.put(b"a", b"left").unwrap();
    c.put(b"z", b"right").unwrap();
    server.split_shard(0, Some(b"m".to_vec())).unwrap();
    assert_eq!(c.get(b"z").unwrap(), Some(b"right".to_vec()));
    drop(c);
    drop(donor);
    let dbs = server.shutdown().unwrap();
    assert_eq!(dbs.len(), 2);
    assert_eq!(*dbs[0].effective_config(), retuned);
    assert_eq!(dbs[1].config(), &retuned, "the recipient booted on the donor's boot config");
}

#[test]
fn rebalancer_splits_under_hotspot_and_merges_when_idle() {
    let policy = RebalancePolicy {
        interval_ms: 10,
        split_puts_per_interval: 50,
        merge_puts_per_interval: 5,
        max_shards: 4,
        min_shards: 1,
    };
    let cluster = elastic(ShardMap::uniform(1), Some(policy));
    let server = cluster.server.as_ref().unwrap();
    let mut c = cluster.client();

    // hammer a narrow hot range until the policy thread splits
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut split_seen = false;
    let mut i = 0u64;
    'outer: while Instant::now() < deadline {
        let mut ids = Vec::new();
        for _ in 0..64 {
            let k = format!("user{:012}", 500 + i % 64).into_bytes();
            ids.push(
                c.send(&Request::Put {
                    key: k,
                    value: vec![0xAB; 32],
                })
                .unwrap(),
            );
            i += 1;
        }
        for id in ids {
            assert_eq!(c.wait_for(id).unwrap(), Response::Ok);
        }
        if server.shard_map().unwrap().len() > 1 {
            split_seen = true;
            break 'outer;
        }
    }
    assert!(split_seen, "rebalancer never split under a sustained hotspot");

    // stop writing; the now-cold shards must merge back down
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut merged_back = false;
    while Instant::now() < deadline {
        let map = server.shard_map().unwrap();
        map.check_partition().expect("policy-produced map must tile");
        if map.len() == 1 {
            merged_back = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(merged_back, "rebalancer never merged idle shards back");

    // the data survived the round trip through split + merge
    assert_eq!(c.get(b"user000000000500").unwrap(), Some(vec![0xAB; 32]));
    drop(c);
    let mut cluster = cluster;
    cluster.server.take().unwrap().shutdown().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary split/merge sequences keep the map a gap-free,
    /// overlap-free partition with monotone versions and never-reused
    /// shard ids, and the result survives a serialization round trip.
    #[test]
    fn split_merge_sequences_preserve_the_partition(
        ops in vec((any::<bool>(), any::<u16>(), vec(any::<u8>(), 0..4)), 0..48)
    ) {
        let mut map = ShardMap::uniform(1);
        let mut seen_ids: HashSet<u64> = map.entries.iter().map(|e| e.shard_id).collect();
        let mut version = map.version;
        for (is_split, sel, boundary) in ops {
            if is_split {
                let idx = (sel as usize) % map.len();
                if let Ok((next, new_id)) = map.split(idx, &boundary) {
                    prop_assert!(next.check_partition().is_ok());
                    prop_assert_eq!(next.version, version + 1);
                    prop_assert_eq!(next.len(), map.len() + 1);
                    prop_assert!(seen_ids.insert(new_id), "shard id {} reused", new_id);
                    map = next;
                    version += 1;
                }
            } else if map.len() > 1 {
                let idx = (sel as usize) % (map.len() - 1);
                let (next, absorbed) = map.merge(idx).unwrap();
                prop_assert!(next.check_partition().is_ok());
                prop_assert_eq!(next.version, version + 1);
                prop_assert_eq!(next.len(), map.len() - 1);
                prop_assert!(seen_ids.contains(&absorbed));
                map = next;
                version += 1;
            }
        }
        // every probe key has exactly one owner and falls inside it
        for probe in [&b""[..], &[0x00], &[0x7F], &[0xFF], &[0xFF, 0xFF, 0xFF]] {
            let idx = map.owner_index(probe);
            let (lo, hi) = map.range_of(idx);
            prop_assert!(lo <= probe);
            prop_assert!(hi.is_none_or(|h| probe < h));
        }
        prop_assert_eq!(ShardMap::from_bytes(&map.to_bytes()), Some(map.clone()));
    }
}
