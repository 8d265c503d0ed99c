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

use std::cell::RefCell;
use std::sync::Arc;

use lsm_core::{Db, LsmConfig};
use lsm_server::harness::{Cluster, Layout};
use lsm_server::{
    promote_replica, Client, PrimaryReplication, ReplicationRole, Server, ServerConfig, Topology,
};
use lsm_storage::FaultDevice;
use lsm_testkit::{check_legal, erased, fault_device, seed, sweep, Shadow};

const SCRIPT_OPS: usize = 48;

/// Engine config for both nodes; the maintenance mode comes from
/// `LSM_BACKGROUND` via `small_for_tests`, so one binary sweeps both.
fn node_cfg() -> LsmConfig {
    // 1 KiB buffer: the ~23-key hot set overflows the memtable, so the
    // sweep crosses flush and manifest I/O on the primary, not just the
    // WAL path
    LsmConfig {
        wal: true,
        buffer_bytes: 1 << 10,
        ..LsmConfig::small_for_tests()
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
    let c = RefCell::new(Client::connect(promoted.server.addr()).expect("connect promoted"));
    let scan = || c.borrow_mut().scan(b"key", b"kez", u32::MAX);
    check_legal(shadow, context, |k| c.borrow_mut().get(k), scan)
        .unwrap_or_else(|e| panic!("{context}: {e}"));
    let mut c = c.into_inner();

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

/// Runs the scripted workload through a primary on `fault` shipping to
/// `replica`, then kills it. Each op is a quorum write: `Ok` is the ack;
/// anything else — a typed error, `ReplicaLag`, or a dead connection —
/// leaves the op attempted-but-unacked. The script is shifted by the
/// seed, so `LSM_SEED` reseeds the workload too.
fn run(fault: &Arc<FaultDevice>, replica: &Cluster, shadow: &mut Shadow, seed: u64) -> Option<()> {
    let server = start_primary(fault, replica.addr())?;
    let mut c = Client::connect(server.addr()).expect("connect primary");
    shadow.script(0..SCRIPT_OPS, seed, |k, v| match v {
        Some(v) => c.put(k, v).is_ok(),
        None => c.delete(k).is_ok(),
    });
    drop(c);
    drop(server.abort());
    Some(())
}

/// The failover sweep: a fault at every primary-device I/O ordinal, a
/// promotion and full verification after each.
#[test]
fn failover_preserves_quorum_acked_writes_at_every_crash_point() {
    let seed = seed(0xFA11_0E52);
    let clean = || {
        let (mut replica, fault) = (start_replica(), fault_device(seed));
        let mut shadow = Shadow::default();
        run(&fault, &replica, &mut shadow, seed).expect("clean primary start");
        assert!(shadow.maybe.is_empty(), "fault-free run left {} unacked ops", shadow.maybe.len());
        promote_and_verify(&mut replica, &shadow, "fault-free failover");
        vec![fault.ops_performed()]
    };
    let mode = node_cfg().background;
    sweep("replication sweep", seed, mode, &[("primary", 41)], clean, |case| {
        // the replica is up before the primary's first write
        let (mut replica, fault) = (start_replica(), case.armed(seed));
        let mut shadow = Shadow::default();
        run(&fault, &replica, &mut shadow, seed);
        let fired = fault.pending_faults().is_empty();
        promote_and_verify(&mut replica, &shadow, &case.to_string());
        fired
    });
}
