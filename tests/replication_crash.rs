//! Failover crash sweep: kill the primary at every I/O ordinal, promote
//! the replica, and prove the replication contract.
//!
//! Topology per case: a one-shard primary on a [`FaultDevice`] wired to
//! ship every committed batch to a one-shard replica on a clean device,
//! with `ack_quorum = 1` — so a client `Ok` means the batch was applied
//! **and synced on the replica** before the ack left the primary. The
//! sweep schedules a crash at each primary-device I/O ordinal of a
//! deterministic workload, then promotes the replica and verifies:
//!
//! * every quorum-acked write (op `Ok`) survives the failover — the
//!   promoted server reads exactly the acknowledged state;
//! * an attempted-but-unacked write is never *half*-visible: each key
//!   reads one of its legal states (last acked, or one of the unacked
//!   attempts that may have raced ahead), and scans agree with gets;
//! * the promoted server accepts new writes (it really is a primary).
//!
//! The maintenance mode follows `LSM_BACKGROUND` (the sweep runs in both
//! modes under `scripts/verify.sh`), and `LSM_SEED` reseeds the fault
//! device and the workload; both are printed so any failure reproduces.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use lsm_core::{Db, LsmConfig};
use lsm_server::harness::{Cluster, Layout};
use lsm_server::protocol::{Request, Response};
use lsm_server::{
    promote_replica, Client, PrimaryReplication, ReplicationRole, Server, ServerConfig, Topology,
};
use lsm_storage::{DeviceProfile, FaultDevice, FaultKind, MemDevice, StorageDevice};

const SCRIPT_OPS: usize = 48;

fn sweep_seed() -> u64 {
    std::env::var("LSM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xFA11_0E52)
}

/// Engine config for both nodes; the maintenance mode comes from
/// `LSM_BACKGROUND` via `small_for_tests`, so one binary sweeps both.
fn node_cfg() -> LsmConfig {
    // 1 KiB buffer: the ~23-key hot set overflows the memtable even
    // though inserts replace in place, so the sweep crosses flush and
    // manifest I/O on the primary, not just the WAL path
    LsmConfig {
        wal: true,
        buffer_bytes: 1 << 10,
        ..LsmConfig::small_for_tests()
    }
}

fn fault_device(seed: u64) -> Arc<FaultDevice> {
    let mem: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(512, DeviceProfile::free()));
    Arc::new(FaultDevice::new(mem, seed))
}

fn erased(dev: &Arc<FaultDevice>) -> Arc<dyn StorageDevice> {
    Arc::clone(dev) as Arc<dyn StorageDevice>
}

/// Legal post-failover states per key: the last quorum-acked state must
/// be readable; attempted-unacked writes may or may not have reached the
/// replica before the crash.
#[derive(Default)]
struct Shadow {
    acked: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    maybe: BTreeMap<Vec<u8>, BTreeSet<Option<Vec<u8>>>>,
}

impl Shadow {
    fn attempt(&mut self, key: &[u8], value: Option<Vec<u8>>) {
        self.maybe.entry(key.to_vec()).or_default().insert(value);
    }

    fn ack(&mut self, key: &[u8], value: Option<Vec<u8>>) {
        self.acked.insert(key.to_vec(), value);
        self.maybe.remove(key);
    }

    fn allowed(&self, key: &[u8]) -> BTreeSet<Option<Vec<u8>>> {
        let mut states = BTreeSet::new();
        states.insert(self.acked.get(key).cloned().unwrap_or(None));
        if let Some(m) = self.maybe.get(key) {
            states.extend(m.iter().cloned());
        }
        states
    }

    fn keys(&self) -> BTreeSet<Vec<u8>> {
        self.acked.keys().chain(self.maybe.keys()).cloned().collect()
    }
}

/// One sequential client op against the primary. `Ok` is the quorum ack;
/// anything else — a typed error, `ReplicaLag`, or a dead connection —
/// leaves the op attempted-but-unacked.
fn apply_op(c: &mut Client, shadow: &mut Shadow, key: Vec<u8>, value: Option<Vec<u8>>) {
    shadow.attempt(&key, value.clone());
    let req = match &value {
        Some(v) => Request::Put {
            key: key.clone(),
            value: v.clone(),
        },
        None => Request::Delete { key: key.clone() },
    };
    if matches!(c.call(&req), Ok(Response::Ok)) {
        shadow.ack(&key, value);
    }
}

/// Deterministic script over a hot keyspace: varying value sizes and a
/// delete every 7th op, reseeded by `LSM_SEED`.
fn scripted_workload(c: &mut Client, shadow: &mut Shadow, seed: u64) {
    for i in 0..SCRIPT_OPS {
        let slot = (i.wrapping_mul(17).wrapping_add(seed as usize)) % 23;
        let key = format!("key{slot:03}").into_bytes();
        if i % 7 == 3 {
            apply_op(c, shadow, key, None);
        } else {
            let len = 16 + (i * 13 + (seed % 11) as usize) % 90;
            let value = vec![b'a' + (i % 26) as u8; len];
            apply_op(c, shadow, key, Some(value));
        }
    }
}

/// Starts the one-shard primary over `dev`, shipping to `replica_addr`
/// with quorum 1. `None` if the device is already dead at open.
fn start_primary(dev: &Arc<FaultDevice>, replica_addr: std::net::SocketAddr) -> Option<Server> {
    let db = Db::open(erased(dev), node_cfg()).ok()?;
    let topology = Topology {
        shards: vec![db],
        elastic: None,
        role: ReplicationRole::Primary(PrimaryReplication {
            replicas: vec![replica_addr],
            ack_quorum: 1,
            ack_timeout_ms: 2_000,
            drain_timeout_ms: 1_000,
        }),
    };
    Server::serve(topology, ServerConfig::default()).ok()
}

fn start_replica() -> Cluster {
    let role = ReplicationRole::Replica;
    Cluster::start(Layout::Hash(1), role, node_cfg(), ServerConfig::default())
}

/// Promotes the replica and verifies every key reads a legal state, the
/// scan agrees, and the promoted node accepts writes.
fn promote_and_verify(replica: &mut Cluster, shadow: &Shadow, context: &str) {
    drop(replica.server.take().expect("replica running").abort());
    let recovered = replica
        .reopen()
        .unwrap_or_else(|e| panic!("{context}: replica reopen failed: {e}"))
        .expect("replica shards");
    let promoted = promote_replica(recovered, ServerConfig::default())
        .unwrap_or_else(|e| panic!("{context}: promotion failed: {e}"));
    let mut c = Client::connect(promoted.server.addr()).expect("connect promoted");

    let mut expected_scan: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for key in shadow.keys() {
        let got = c.get(&key).unwrap_or_else(|e| {
            panic!("{context}: get {:?} failed: {e}", String::from_utf8_lossy(&key))
        });
        let allowed = shadow.allowed(&key);
        assert!(
            allowed.contains(&got),
            "{context}: key {:?} read {:?}, but only {} states are legal \
             (acked state lost or unacked write half-visible)",
            String::from_utf8_lossy(&key),
            got.as_ref().map(|v| v.len()),
            allowed.len(),
        );
        if let Some(v) = got {
            expected_scan.push((key, v));
        }
    }
    let scanned = c
        .scan(b"key", b"kez", u32::MAX)
        .unwrap_or_else(|e| panic!("{context}: scan failed: {e}"));
    assert_eq!(scanned, expected_scan, "{context}: scan disagrees with point gets");

    // a promoted replica is a primary: the write path must be open
    c.put(b"key-sentinel", b"promoted").unwrap_or_else(|e| {
        panic!("{context}: promoted server refused a write: {e}")
    });
    assert_eq!(c.get(b"key-sentinel").unwrap(), Some(b"promoted".to_vec()));
    drop(c);
    promoted
        .server
        .shutdown()
        .unwrap_or_else(|e| panic!("{context}: promoted shutdown failed: {e}"));
}

/// Fault-free run; its primary-device I/O count bounds the sweep range.
fn clean_run_total(seed: u64) -> u64 {
    let mut replica = start_replica();
    let fault = fault_device(seed);
    let server = start_primary(&fault, replica.addr()).expect("clean primary start");
    let mut c = Client::connect(server.addr()).expect("connect primary");
    let mut shadow = Shadow::default();
    scripted_workload(&mut c, &mut shadow, seed);
    drop(c);
    assert!(
        shadow.maybe.is_empty(),
        "fault-free run left {} unacked ops",
        shadow.maybe.len()
    );
    drop(server.abort());
    promote_and_verify(&mut replica, &shadow, "fault-free failover");
    fault.ops_performed()
}

/// One case: crash the primary device at ordinal `at`, finish the
/// workload against the dying server, kill it, promote the replica,
/// verify. Returns whether the fault actually fired.
fn crash_case(seed: u64, at: u64) -> bool {
    let mut replica = start_replica();
    let fault = fault_device(seed ^ at);
    fault.schedule(at, FaultKind::Crash);

    let mut shadow = Shadow::default();
    if let Some(server) = start_primary(&fault, replica.addr()) {
        let mut c = Client::connect(server.addr()).expect("connect primary");
        scripted_workload(&mut c, &mut shadow, seed);
        drop(c);
        drop(server.abort());
    }
    let fired = fault.pending_faults().is_empty();
    promote_and_verify(&mut replica, &shadow, &format!("crash at ordinal {at}"));
    fired
}

/// The failover sweep: a crash at every primary-device I/O ordinal, a
/// promotion and full verification after each.
#[test]
fn failover_preserves_quorum_acked_writes_at_every_crash_point() {
    let seed = sweep_seed();
    let total = clean_run_total(seed);
    eprintln!(
        "replication crash sweep: seed={seed:#x} background={:?} ordinals={total}",
        node_cfg().background
    );
    assert!(total > 40, "workload too small to exercise failover ({total} I/Os)");
    let mut fired = 0u64;
    for at in 0..total {
        if crash_case(seed, at) {
            fired += 1;
        }
    }
    eprintln!("replication crash sweep: {fired}/{total} crash points fired");
    // threaded-mode worker timing can shift ordinals so a scheduled
    // fault never fires; those cases degrade to clean failovers (still
    // verified), but a sweep where most miss proves nothing
    assert!(
        fired * 2 >= total,
        "only {fired}/{total} crash points fired; sweep is mostly vacuous"
    );
}
