//! Live-split crash sweep: kill the cluster at every I/O ordinal of the
//! donor, the recipient, and the cluster-metadata device during an
//! online shard split, then recover and prove the migration contract.
//!
//! Topology per case: a one-shard elastic server whose shard sits on a
//! [`FaultDevice`], with the shard-map manifest on its own fault device
//! and the split recipient minted by the device factory onto a third.
//! The scripted client runs half its workload, the test triggers a live
//! split in the middle of the hot range, and the rest of the workload
//! lands while (or after) the migration runs. A crash is scheduled at
//! each I/O ordinal of one device per case — including every ordinal of
//! the metadata device, which sweeps the map-flip commit point itself.
//!
//! After the kill, the sweep heals the devices and recovers exactly the
//! way a restarted deployment would: read the newest parseable shard map
//! from the metadata device, open the shards it names, and serve through
//! a range-routed [`ShardSet`]. It then verifies:
//!
//! * every acked write survives, whichever side of the flip recovery
//!   landed on — an ack before the flip implies donor durability *and*
//!   tap/snapshot transfer before the recipient synced; an ack after it
//!   implies recipient durability;
//! * no half-visible range: each key reads one legal state (last acked,
//!   or an attempted-unacked value that raced ahead), the recovered map
//!   is a gap-free partition, and a full scan agrees with point gets —
//!   stale donor copies of moved ranges must stay invisible;
//! * the recovered shards accept new writes.
//!
//! The maintenance mode follows `LSM_BACKGROUND` (the sweep runs in both
//! modes under `scripts/verify.sh`), and `LSM_SEED` reseeds the fault
//! devices and the workload; both are printed so failures reproduce.

use std::sync::{Arc, Mutex};

use lsm_core::LsmConfig;
use lsm_server::harness::{Cluster, Layout};
use lsm_server::{Client, ReplicationRole, ServerConfig, ShardMap, ShardSet};
use lsm_storage::FaultDevice;
use lsm_testkit::{check_legal, erased, fault_device, seed, sweep, Case, Shadow};

const SCRIPT_OPS: usize = 44;
const SPLIT_BOUNDARY: &[u8] = b"key011";
/// The swept devices, in `Case::device` order, with their ordinal floors.
const DEVICES: [(&str, u64); 3] = [("donor", 41), ("recipient", 11), ("meta", 2)];

/// Engine config; the maintenance mode comes from `LSM_BACKGROUND` via
/// `small_for_tests`, so one binary sweeps both modes.
fn node_cfg() -> LsmConfig {
    // 1 KiB buffer: the ~23-key hot set overflows the memtable, so the
    // sweep crosses flush and manifest I/O as well as the WAL path
    LsmConfig {
        wal: true,
        buffer_bytes: 1 << 10,
        ..LsmConfig::small_for_tests()
    }
}

/// The per-case device set: donor + meta up front, the recipient minted
/// lazily when the split runs. `case` (none for the fault-free run)
/// names the device to fault.
struct Fixture {
    donor: Arc<FaultDevice>,
    meta: Arc<FaultDevice>,
    recipient: Arc<Mutex<Option<Arc<FaultDevice>>>>,
    case: Option<Case>,
}

impl Fixture {
    fn new(seed: u64, case: Option<&Case>) -> Fixture {
        let donor = fault_device(seed);
        let meta = fault_device(seed.rotate_left(17));
        if let Some(c) = case {
            c.arm(0, &donor);
            c.arm(2, &meta);
        }
        Fixture {
            donor,
            meta,
            recipient: Arc::new(Mutex::new(None)),
            case: case.cloned(),
        }
    }

    /// A one-shard elastic cluster on the fixture's devices, not yet
    /// serving: shard 0 is the donor, the map lives on the meta device,
    /// and any later shard (the split's recipient) gets a fresh fault
    /// device, armed when this case faults the recipient.
    fn cluster(&self, seed: u64) -> Cluster {
        let (donor, slot) = (erased(&self.donor), Arc::clone(&self.recipient));
        let case = self.case.clone();
        let mut cluster = Cluster::new(node_cfg(), move |shard_id| {
            if shard_id == 0 {
                return Arc::clone(&donor);
            }
            let dev = fault_device(seed.rotate_right(9) ^ shard_id);
            if let Some(c) = &case {
                c.arm(1, &dev);
            }
            *slot.lock().unwrap() = Some(Arc::clone(&dev));
            erased(&dev)
        });
        cluster.meta_dev = erased(&self.meta);
        cluster
    }

    fn recipient(&self) -> Option<Arc<FaultDevice>> {
        self.recipient.lock().unwrap().clone()
    }

    fn heal_all(&self) {
        self.donor.heal();
        self.meta.heal();
        if let Some(r) = self.recipient() {
            r.heal();
        }
    }

    /// True when the scheduled fault actually fired on its device.
    fn fired(&self) -> bool {
        match self.case.as_ref().map(|c| c.device) {
            Some(0) => self.donor.pending_faults().is_empty(),
            Some(1) => self.recipient().is_some_and(|r| r.pending_faults().is_empty()),
            _ => self.meta.pending_faults().is_empty(),
        }
    }
}

/// Ops `ops` of the shared script through a client, shifted by the seed
/// so the 23-key hot set straddles the split boundary differently per
/// seed. `Ok` is the durability ack; a typed error, `Busy`,
/// `ShuttingDown`, or a dead connection leaves the op attempted.
fn scripted_ops(c: &mut Client, shadow: &mut Shadow, seed: u64, ops: std::ops::Range<usize>) {
    shadow.script(ops, seed, |k, v| match v {
        Some(v) => c.put(k, v).is_ok(),
        None => c.delete(k).is_ok(),
    });
}

/// Runs one case: start a one-shard elastic server on the fixture's
/// cluster, run half the workload, trigger a live split at
/// `SPLIT_BOUNDARY`, run the rest, and kill everything. Returns the
/// split's new shard id and the map's length, if the server started.
fn run(cluster: &mut Cluster, shadow: &mut Shadow, seed: u64) -> Option<(Option<u64>, usize)> {
    // start: donor open or the initial meta write may already fail
    let layout = Layout::Elastic(ShardMap::uniform(1), None);
    cluster.serve(layout, ReplicationRole::None, ServerConfig::default()).ok()?;
    let server = cluster.server.take()?;
    let mut c = Client::connect(server.addr()).expect("connect elastic server");
    scripted_ops(&mut c, shadow, seed, 0..SCRIPT_OPS / 2);
    // the live split; a fault anywhere inside is this sweep's point
    let split = server.split_shard(0, Some(SPLIT_BOUNDARY.to_vec())).ok();
    scripted_ops(&mut c, shadow, seed, SCRIPT_OPS / 2..SCRIPT_OPS);
    let shards = server.shard_map().map_or(0, |m| m.len());
    drop(c);
    drop(server.abort());
    Some((split, shards))
}

/// Heals the devices and recovers the way a restarted deployment would,
/// then checks the whole migration contract against the shadow.
fn verify_recovery(fx: &Fixture, cluster: &Cluster, shadow: &Shadow, context: &str) {
    fx.heal_all();
    let Some(topology) = cluster
        .reopen()
        .unwrap_or_else(|e| panic!("{context}: recovery after heal failed: {e}"))
    else {
        // the crash beat the very first meta write: the server never
        // started, so nothing can have been acked
        assert!(
            shadow.acked.is_empty(),
            "{context}: {} acked writes but no durable shard map",
            shadow.acked.len()
        );
        return;
    };
    let map = topology.elastic.expect("an elastic topology").map;
    map.check_partition()
        .unwrap_or_else(|e| panic!("{context}: recovered map is not a partition: {e}"));
    let set = ShardSet::with_map(topology.shards, map);
    // scan == gets: the range router must stitch the recovered shards
    // into one view, hiding any stale donor copy of a moved range
    check_legal(shadow, context, |k| set.get(k), || set.scan(b"key", b"kez", usize::MAX))
        .unwrap_or_else(|e| panic!("{context}: recovered {e}"));

    // recovered shards accept writes (liveness after migration + crash)
    let owner = set.shard_index(b"key-sentinel");
    set.db(owner)
        .put(b"key-sentinel".to_vec(), b"recovered".to_vec())
        .unwrap_or_else(|e| panic!("{context}: recovered shard refused a write: {e}"));
    assert_eq!(
        set.get(b"key-sentinel").unwrap(),
        Some(b"recovered".to_vec())
    );
}

/// The migration crash sweep: every I/O ordinal of all three devices.
#[test]
fn live_split_survives_a_crash_at_every_io_ordinal() {
    let seed = seed(0x5B11_7E57);
    // fault-free: everything acks, the split lands, and the per-device
    // I/O totals bound the three sweeps
    let clean = || {
        let fx = Fixture::new(seed, None);
        let mut shadow = Shadow::default();
        let mut cluster = fx.cluster(seed);
        let (split, shards) = run(&mut cluster, &mut shadow, seed).expect("clean elastic start");
        assert_eq!(split, Some(1), "clean split must mint shard 1");
        assert_eq!(shards, 2, "clean split must be serving two shards");
        assert!(shadow.maybe.is_empty(), "fault-free run left {} unacked ops", shadow.maybe.len());
        let recipient_ops = fx.recipient().expect("clean split minted a recipient").ops_performed();
        verify_recovery(&fx, &cluster, &shadow, "fault-free split");
        vec![fx.donor.ops_performed(), recipient_ops, fx.meta.ops_performed()]
    };
    let mode = node_cfg().background;
    sweep("migration sweep", seed, mode, &DEVICES, clean, |case| {
        let fx = Fixture::new(seed, Some(case));
        let mut shadow = Shadow::default();
        let mut cluster = fx.cluster(seed);
        run(&mut cluster, &mut shadow, seed);
        let fired = fx.fired();
        verify_recovery(&fx, &cluster, &shadow, &case.to_string());
        fired
    });
}
