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

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use lsm_core::LsmConfig;
use lsm_server::harness::{Cluster, Layout};
use lsm_server::protocol::{Request, Response};
use lsm_server::{Client, ReplicationRole, ServerConfig, ShardMap, ShardSet};
use lsm_storage::{DeviceProfile, FaultDevice, FaultKind, MemDevice, StorageDevice};

const SCRIPT_OPS: usize = 44;
const SPLIT_BOUNDARY: &[u8] = b"key011";

fn sweep_seed() -> u64 {
    std::env::var("LSM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5B11_7E57)
}

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

fn fault_device(seed: u64) -> Arc<FaultDevice> {
    let mem: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(512, DeviceProfile::free()));
    Arc::new(FaultDevice::new(mem, seed))
}

fn erased(dev: &Arc<FaultDevice>) -> Arc<dyn StorageDevice> {
    Arc::clone(dev) as Arc<dyn StorageDevice>
}

/// Which device a case crashes, and at which I/O ordinal.
#[derive(Clone, Copy, Debug)]
enum CrashSite {
    None,
    Donor(u64),
    Recipient(u64),
    Meta(u64),
}

/// The per-case device set: donor + meta up front, the recipient minted
/// lazily when the split runs.
struct Fixture {
    donor: Arc<FaultDevice>,
    meta: Arc<FaultDevice>,
    recipient: Arc<Mutex<Option<Arc<FaultDevice>>>>,
}

impl Fixture {
    fn new(seed: u64, site: CrashSite) -> Fixture {
        let donor = fault_device(seed);
        let meta = fault_device(seed.rotate_left(17));
        if let CrashSite::Donor(at) = site {
            donor.schedule(at, FaultKind::Crash);
        }
        if let CrashSite::Meta(at) = site {
            meta.schedule(at, FaultKind::Crash);
        }
        Fixture {
            donor,
            meta,
            recipient: Arc::new(Mutex::new(None)),
        }
    }

    /// A one-shard elastic cluster on the fixture's devices, not yet
    /// serving: shard 0 is the donor, the map lives on the meta device,
    /// and any later shard (the split's recipient) gets a fresh fault
    /// device, armed when this case crashes the recipient.
    fn cluster(&self, seed: u64, site: CrashSite) -> Cluster {
        let (donor, slot) = (erased(&self.donor), Arc::clone(&self.recipient));
        let mut cluster = Cluster::new(node_cfg(), move |shard_id| {
            if shard_id == 0 {
                return Arc::clone(&donor);
            }
            let dev = fault_device(seed.rotate_right(9) ^ shard_id);
            if let CrashSite::Recipient(at) = site {
                dev.schedule(at, FaultKind::Crash);
            }
            *slot.lock().unwrap() = Some(Arc::clone(&dev));
            erased(&dev)
        });
        cluster.meta_dev = erased(&self.meta);
        cluster
    }

    fn heal_all(&self) {
        self.donor.heal();
        self.meta.heal();
        if let Some(r) = self.recipient.lock().unwrap().as_ref() {
            r.heal();
        }
    }

    /// True when the scheduled fault actually fired on the crash site.
    fn fired(&self, site: CrashSite) -> bool {
        match site {
            CrashSite::None => true,
            CrashSite::Donor(_) => self.donor.pending_faults().is_empty(),
            CrashSite::Meta(_) => self.meta.pending_faults().is_empty(),
            CrashSite::Recipient(_) => self
                .recipient
                .lock()
                .unwrap()
                .as_ref()
                .is_some_and(|r| r.pending_faults().is_empty()),
        }
    }
}

/// Legal post-recovery states per key: the last acked state must be
/// readable; attempted-unacked writes may or may not have landed.
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

/// One sequential client op. `Ok` is the durability ack; a typed error,
/// `Busy`, `ShuttingDown`, or a dead connection leaves it attempted.
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

/// Deterministic script over a 23-key hot set straddling the split
/// boundary: varying value sizes, a delete every 7th op.
fn scripted_ops(c: &mut Client, shadow: &mut Shadow, seed: u64, ops: std::ops::Range<usize>) {
    for i in ops {
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

/// One case: start a one-shard elastic server on the fixture, run half
/// the workload, trigger a live split at `SPLIT_BOUNDARY`, run the rest,
/// kill everything, recover from the durable state, verify. Returns
/// whether the scheduled fault fired.
fn crash_case(seed: u64, site: CrashSite) -> bool {
    let fx = Fixture::new(seed, site);
    let mut shadow = Shadow::default();

    // start: donor open or the initial meta write may already crash
    let mut cluster = fx.cluster(seed, site);
    let layout = Layout::Elastic(ShardMap::uniform(1), None);
    let started = cluster
        .serve(layout, ReplicationRole::None, ServerConfig::default())
        .ok()
        .and_then(|()| cluster.server.take());
    if let Some(server) = started {
        let mut c = Client::connect(server.addr()).expect("connect elastic server");
        scripted_ops(&mut c, &mut shadow, seed, 0..SCRIPT_OPS / 2);
        // the live split; a crash anywhere inside is this sweep's point
        let _ = server.split_shard(0, Some(SPLIT_BOUNDARY.to_vec()));
        scripted_ops(&mut c, &mut shadow, seed, SCRIPT_OPS / 2..SCRIPT_OPS);
        drop(c);
        drop(server.abort());
    }
    let fired = fx.fired(site);
    verify_recovery(&fx, &cluster, &shadow, &format!("{site:?}"));
    fired
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

    let mut expected_scan: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for key in shadow.keys() {
        let got = set.get(&key).unwrap_or_else(|e| {
            panic!("{context}: get {:?} failed: {e}", String::from_utf8_lossy(&key))
        });
        let allowed = shadow.allowed(&key);
        assert!(
            allowed.contains(&got),
            "{context}: key {:?} read {:?}, but only {} states are legal \
             (acked write lost, or a moved range is half-visible)",
            String::from_utf8_lossy(&key),
            got.as_ref().map(Vec::len),
            allowed.len(),
        );
        if let Some(v) = got {
            expected_scan.push((key, v));
        }
    }
    // scan == gets: the range router must stitch the recovered shards
    // into one view, hiding any stale donor copy of a moved range
    let scanned = set
        .scan(b"key", b"kez", usize::MAX)
        .unwrap_or_else(|e| panic!("{context}: recovered scan failed: {e}"));
    assert_eq!(
        scanned, expected_scan,
        "{context}: recovered scan disagrees with point gets"
    );

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

/// Fault-free run: everything acks, the split lands, and the per-device
/// I/O totals bound the three sweeps.
fn clean_run(seed: u64) -> (u64, u64, u64) {
    let fx = Fixture::new(seed, CrashSite::None);
    let mut shadow = Shadow::default();
    let mut cluster = fx.cluster(seed, CrashSite::None);
    let layout = Layout::Elastic(ShardMap::uniform(1), None);
    cluster
        .serve(layout, ReplicationRole::None, ServerConfig::default())
        .expect("clean elastic start");
    let server = cluster.server.take().unwrap();
    let mut c = Client::connect(server.addr()).expect("connect");
    scripted_ops(&mut c, &mut shadow, seed, 0..SCRIPT_OPS / 2);
    let new_id = server
        .split_shard(0, Some(SPLIT_BOUNDARY.to_vec()))
        .expect("clean split");
    assert_eq!(new_id, 1);
    scripted_ops(&mut c, &mut shadow, seed, SCRIPT_OPS / 2..SCRIPT_OPS);
    assert!(
        shadow.maybe.is_empty(),
        "fault-free run left {} unacked ops",
        shadow.maybe.len()
    );
    let map = server.shard_map().expect("elastic server has a map");
    assert_eq!(map.len(), 2, "clean split must be serving two shards");
    drop(c);
    drop(server.abort());
    let recipient_ops = fx
        .recipient
        .lock()
        .unwrap()
        .as_ref()
        .expect("clean split minted a recipient")
        .ops_performed();
    verify_recovery(&fx, &cluster, &shadow, "fault-free split");
    (fx.donor.ops_performed(), recipient_ops, fx.meta.ops_performed())
}

/// The migration crash sweep: every I/O ordinal of all three devices.
#[test]
fn live_split_survives_a_crash_at_every_io_ordinal() {
    let seed = sweep_seed();
    let (donor_total, recipient_total, meta_total) = clean_run(seed);
    eprintln!(
        "migration crash sweep: seed={seed:#x} background={:?} \
         ordinals: donor={donor_total} recipient={recipient_total} meta={meta_total}",
        node_cfg().background
    );
    assert!(
        donor_total > 40 && recipient_total > 10 && meta_total >= 2,
        "workload too small to exercise the migration \
         ({donor_total}/{recipient_total}/{meta_total} I/Os)"
    );
    let mut fired = 0u64;
    let mut total = 0u64;
    for at in 0..donor_total {
        total += 1;
        if crash_case(seed, CrashSite::Donor(at)) {
            fired += 1;
        }
    }
    for at in 0..recipient_total {
        total += 1;
        if crash_case(seed, CrashSite::Recipient(at)) {
            fired += 1;
        }
    }
    for at in 0..meta_total {
        total += 1;
        if crash_case(seed, CrashSite::Meta(at)) {
            fired += 1;
        }
    }
    eprintln!("migration crash sweep: {fired}/{total} crash points fired");
    // threaded-mode timing can shift ordinals past the end of a run so a
    // scheduled fault never fires; those cases degrade to clean-split
    // recoveries (still verified), but a mostly-missing sweep proves
    // nothing
    assert!(
        fired * 2 >= total,
        "only {fired}/{total} crash points fired; sweep is mostly vacuous"
    );
}
