//! The one fault harness behind the workspace's crash sweeps.
//!
//! A sweep proves the durability contract: an acknowledged write survives
//! any single fault, an unacknowledged one is never half-visible, and a
//! scan agrees with point gets. Every sweep has the same shape, so it
//! lives here once:
//!
//! - [`Shadow`] models what a key may legally read after a fault, and
//!   [`Shadow::script`] runs the shared 23-key scripted op through it;
//! - [`check_legal`] checks a reader (a `Db`, a `Snapshot`, a shard set
//!   or a wire client, through get/scan closures) against a shadow;
//! - [`no_orphan_tables`] checks that recovery left no unreferenced table,
//!   [`no_orphan_wals`] no WAL records the manifest does not name, and
//!   [`no_orphan_value_logs`] no value log it does not name;
//! - [`no_dangling_pointers`] checks that every live key of a recovered
//!   engine resolves, a separated value through its value-log pointer;
//! - [`sweep`] takes the per-device ordinal totals of a fault-free run
//!   and calls a per-case closure for every (device, kind, ordinal), with
//!   every kind in [`KINDS`].
//!
//! A scenario keeps only what is its own: its fixture, its workload, its
//! recovery and its scenario-specific checks.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use lsm_core::kv_sep::holds_records;
use lsm_core::manifest::{find_record, ManifestState, MANIFEST_MAGIC};
use lsm_core::sstable::meta::decode_footer;
use lsm_core::{BackgroundMode, Db};
use lsm_storage::{DeviceProfile, FaultDevice, FaultKind, IoCategory, MemDevice, StorageDevice};

/// The sweep seed: `LSM_SEED` when set, else the scenario's default.
/// The seed places bit flips and, in the server scenarios, shifts the
/// workload; every sweep prints it so a failure reproduces.
pub fn seed(default: u64) -> u64 {
    std::env::var("LSM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A fresh in-memory device (512-byte blocks, matching the test configs)
/// behind a fault injector.
pub fn fault_device(seed: u64) -> Arc<FaultDevice> {
    let mem: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(512, DeviceProfile::free()));
    Arc::new(FaultDevice::new(mem, seed))
}

/// Upcasts for `Db::open`, which takes the erased device type.
pub fn erased(dev: &Arc<FaultDevice>) -> Arc<dyn StorageDevice> {
    Arc::clone(dev) as Arc<dyn StorageDevice>
}

/// Model of what a store may legally contain after a fault.
///
/// `acked` holds the last acknowledged state per key (`Some(v)` = live
/// value, `None` = acknowledged delete). `maybe` holds the states of
/// writes that were *attempted* but never acknowledged; any of them — or
/// the acked base state — may surface after recovery. An acknowledgment
/// clears the key's `maybe` set: with a single fault, every failed
/// attempt strictly follows the last successful one, so an earlier
/// unacked state can never shadow a later acked one.
#[derive(Clone, Default)]
pub struct Shadow {
    pub acked: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    pub maybe: BTreeMap<Vec<u8>, BTreeSet<Option<Vec<u8>>>>,
}

impl Shadow {
    /// Applies one write (`Some` = put, `None` = delete) through `write`,
    /// which returns whether the store acknowledged it. The attempt is
    /// recorded *before* the write runs: if the device dies mid-write the
    /// state is ambiguous either way.
    pub fn write(
        &mut self,
        key: Vec<u8>,
        value: Option<Vec<u8>>,
        write: impl FnOnce(&[u8], Option<&[u8]>) -> bool,
    ) {
        self.maybe.entry(key.clone()).or_default().insert(value.clone());
        if write(&key, value.as_deref()) {
            self.maybe.remove(&key);
            self.acked.insert(key, value);
        }
    }

    /// Runs ops `ops` of the shared script: a 23-key hot set
    /// (`key000..key022`), varying value sizes, a delete every 7th op.
    /// `shift` reseeds the key order and sizes; at 0 it is the engine
    /// sweeps' original script.
    pub fn script(
        &mut self,
        ops: Range<usize>,
        shift: u64,
        mut write: impl FnMut(&[u8], Option<&[u8]>) -> bool,
    ) {
        for i in ops {
            let (key, value) = script_op(i, shift);
            self.write(key, value, &mut write);
        }
    }

    /// Legal post-recovery states for `key`. A key that was never acked
    /// defaults to absent (`None`).
    pub fn allowed(&self, key: &[u8]) -> BTreeSet<Option<Vec<u8>>> {
        let mut states = BTreeSet::new();
        states.insert(self.acked.get(key).cloned().unwrap_or(None));
        if let Some(m) = self.maybe.get(key) {
            states.extend(m.iter().cloned());
        }
        states
    }

    /// Every key the workload ever touched.
    pub fn keys(&self) -> BTreeSet<Vec<u8>> {
        self.acked.keys().chain(self.maybe.keys()).cloned().collect()
    }
}

/// Op `i` of [`Shadow::script`].
fn script_op(i: usize, shift: u64) -> (Vec<u8>, Option<Vec<u8>>) {
    let slot = i.wrapping_mul(17).wrapping_add(shift as usize) % 23;
    let key = format!("key{slot:03}").into_bytes();
    if i % 7 == 3 {
        return (key, None);
    }
    let len = 16 + (i * 13 + (shift % 11) as usize) % 90;
    (key, Some(vec![b'a' + (i % 26) as u8; len]))
}

/// One engine write, acknowledged ⟺ the op succeeded AND the WAL tail
/// reached the device (the following `sync` returned `Ok`).
pub fn synced(db: &Db, key: &[u8], value: Option<&[u8]>) -> bool {
    let op_ok = match value {
        Some(v) => db.put(key.to_vec(), v.to_vec()).is_ok(),
        None => db.delete(key.to_vec()).is_ok(),
    };
    op_ok && db.sync().is_ok()
}

type Rows = Vec<(Vec<u8>, Vec<u8>)>;

/// The legal-state check: every touched key reads one of its legal
/// states, and `scan` (of `key..kez` in every scenario) agrees exactly
/// with the point reads.
/// A read error is returned, not asserted, so a check taken while the
/// device may be dead can tolerate it; an illegal state always panics.
pub fn check_legal<E: fmt::Display>(
    shadow: &Shadow,
    context: &str,
    mut get: impl FnMut(&[u8]) -> Result<Option<Vec<u8>>, E>,
    scan: impl FnOnce() -> Result<Rows, E>,
) -> Result<(), String> {
    let mut expected_scan = Vec::new();
    for key in shadow.keys() {
        let shown = String::from_utf8_lossy(&key).into_owned();
        let got = get(&key).map_err(|e| format!("get {shown:?} failed: {e}"))?;
        let allowed = shadow.allowed(&key);
        assert!(
            allowed.contains(&got),
            "{context}: key {shown:?} read {:?}, but only {} states are legal \
             (acked {:?}, {} unacked attempts): an acked write was lost or an \
             unacked one is half-visible",
            got.as_ref().map(Vec::len),
            allowed.len(),
            shadow.acked.get(&key).map(|v| v.as_ref().map(Vec::len)),
            shadow.maybe.get(&key).map_or(0, BTreeSet::len),
        );
        if let Some(v) = got {
            expected_scan.push((key, v));
        }
    }
    let scanned = scan().map_err(|e| format!("scan failed: {e}"))?;
    assert_eq!(scanned, expected_scan, "{context}: scan disagrees with point gets");
    Ok(())
}

/// [`check_legal`] on a recovered engine, where any read error fails.
pub fn check_db(db: &Db, shadow: &Shadow, context: &str) {
    let scan = || db.scan(b"key".to_vec()..b"kez".to_vec(), usize::MAX);
    check_legal(shadow, context, |k| db.get(k), scan).unwrap_or_else(|e| panic!("{context}: {e}"));
}

/// After recovery every file that carries a valid table footer must be
/// referenced by the manifest: a table written but never installed (a
/// flush or a compaction shard cut short by the fault) must have been
/// deleted by the orphan sweep on open.
pub fn no_orphan_tables(dev: &Arc<dyn StorageDevice>, context: &str) {
    let (manifest_id, state) = find_record(dev, MANIFEST_MAGIC, ManifestState::from_bytes)
        .unwrap_or_else(|e| panic!("{context}: manifest scan failed: {e}"))
        .unwrap_or_else(|| panic!("{context}: no manifest after recovery"));
    let mut referenced: BTreeSet<u64> = state.levels.iter().flatten().flatten().copied().collect();
    referenced.insert(manifest_id.0);
    for f in dev.live_files() {
        let n = dev.len_blocks(f).unwrap();
        if referenced.contains(&f.0) || n == 0 {
            continue;
        }
        let last = dev.read(f, n - 1, 1, IoCategory::Misc).unwrap();
        if let Some((meta_start, meta_len)) = decode_footer(&last) {
            // same sanity bounds the orphan sweep applies: a real table's
            // footer points inside the file
            assert!(
                meta_start >= n || meta_len == 0,
                "{context}: file {} has a valid table footer but is not in the manifest — \
                 an orphaned table survived recovery",
                f.0
            );
        }
    }
}

/// After recovery no file outside the manifest holds WAL records: a log
/// whose records no manifest names (a rotation that lost its manifest,
/// or a retired log that outlived the manifest retiring it) must be gone
/// or empty. Run it on a freshly reopened engine's device, whose open
/// re-logged every replayed record into the one WAL it names.
pub fn no_orphan_wals(dev: &Arc<dyn StorageDevice>, context: &str) {
    let (manifest_id, state) = find_record(dev, MANIFEST_MAGIC, ManifestState::from_bytes)
        .unwrap_or_else(|e| panic!("{context}: manifest scan failed: {e}"))
        .unwrap_or_else(|| panic!("{context}: no manifest after recovery"));
    let named = [manifest_id.0, state.wal, state.wal_prev];
    for f in dev.live_files() {
        if named.contains(&f.0) {
            continue;
        }
        if let Ok(records) = lsm_core::wal::recover(Arc::clone(dev), f) {
            assert!(
                records.is_empty(),
                "{context}: file {} holds {} WAL records but the manifest names WALs {} and {}",
                f.0,
                records.len(),
                state.wal,
                state.wal_prev
            );
        }
    }
}

/// After recovery no file outside the manifest holds value-log records:
/// a log GC collected must be gone once a manifest without it landed,
/// even if the crash kept its last handle from deleting it, and so must
/// one whose only naming manifest was rejected. Run it on a reopened
/// engine's device, as [`no_orphan_wals`].
pub fn no_orphan_value_logs(dev: &Arc<dyn StorageDevice>, context: &str) {
    let (_, state) = find_record(dev, MANIFEST_MAGIC, ManifestState::from_bytes)
        .unwrap_or_else(|e| panic!("{context}: manifest scan failed: {e}"))
        .unwrap_or_else(|| panic!("{context}: no manifest after recovery"));
    for f in dev.live_files() {
        let named = f.0 == state.vlog || state.retiring.contains(&f.0);
        assert!(
            named || !holds_records(dev, f),
            "{context}: file {} holds value-log records but the manifest names logs {} and {:?}",
            f.0,
            state.vlog,
            state.retiring
        );
    }
}

/// Every live key of a recovered engine resolves: a scan of the whole
/// keyspace and a get of each key it returns read every value, a
/// separated one through its pointer, so none names a log that is gone.
pub fn no_dangling_pointers(db: &Db, context: &str) {
    let rows = db
        .scan(Vec::new()..vec![0xFF; 64], usize::MAX)
        .unwrap_or_else(|e| panic!("{context}: a full scan failed to resolve: {e}"));
    for (key, value) in rows {
        let got = db
            .get(&key)
            .unwrap_or_else(|e| panic!("{context}: key {:?} failed to resolve: {e}", String::from_utf8_lossy(&key)));
        assert_eq!(got, Some(value), "{context}: get disagrees with the scan");
    }
}

/// The fault kinds every sweep runs, by name. A torn write keeps
/// `at % 3` blocks of its append, so consecutive ordinals tear after 0,
/// 1 and 2 blocks; on a read it degrades to a crash. A bit flip on an append is
/// consumed harmlessly; on a read it must be caught by a checksum.
pub const KINDS: [(&str, FaultAt); 3] = [
    ("crash", |_| FaultKind::Crash),
    ("torn", |at| FaultKind::TornWrite { keep_blocks: at % 3 }),
    ("bitflip", |_| FaultKind::BitFlip),
];

/// A fault kind, given the ordinal it fires at.
pub type FaultAt = fn(u64) -> FaultKind;

/// One case of a sweep: `kind` scheduled at I/O ordinal `at` of device
/// number `device` (named `name`).
#[derive(Clone, Debug)]
pub struct Case {
    pub device: usize,
    pub name: &'static str,
    pub at: u64,
    pub kind: FaultKind,
}

impl Case {
    /// Schedules this case's fault on `dev` when `dev` is device `device`.
    pub fn arm(&self, device: usize, dev: &FaultDevice) {
        if self.device == device {
            dev.schedule(self.at, self.kind.clone());
        }
    }

    /// A fresh device seeded `seed ^ at` (so bit-flip positions vary
    /// across cases, reproducibly) with this case's fault scheduled: the
    /// fixture of every single-device scenario.
    pub fn armed(&self, seed: u64) -> Arc<FaultDevice> {
        let dev = fault_device(seed ^ self.at);
        dev.schedule(self.at, self.kind.clone());
        dev
    }
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} at {} ordinal {}", self.kind, self.name, self.at)
    }
}

/// Runs one sweep. `clean` runs the scenario fault-free and returns
/// each device's I/O ordinal total, in `devices` order; each total must
/// reach its device's floor (`devices[i] = (name, floor)`), or the
/// workload is too small to exercise recovery. Then, for every kind in
/// [`KINDS`], every device and every ordinal below its total, `case`
/// runs the faulted scenario, checks it, and returns whether the fault
/// fired.
///
/// Under threaded maintenance worker timing shifts ordinals between runs,
/// so a scheduled fault may never fire; such a case degrades to a clean
/// roundtrip (still checked), but a sweep where most faults miss proves
/// nothing, so at least half must fire, per kind.
pub fn sweep(
    scenario: &str,
    seed: u64,
    mode: BackgroundMode,
    devices: &[(&'static str, u64)],
    clean: impl FnOnce() -> Vec<u64>,
    mut case: impl FnMut(&Case) -> bool,
) {
    let totals = clean();
    assert_eq!(totals.len(), devices.len(), "{scenario}: one total per device");
    let head = format!("{scenario}: LSM_SEED={seed} mode={}", mode.label());
    for (&(name, floor), &total) in devices.iter().zip(&totals) {
        eprintln!("{head} fault-free ordinals: {name}={total}");
        assert!(
            total >= floor,
            "{head}: workload too small to exercise recovery ({name}: {total} I/Os, floor {floor})"
        );
    }
    let total: u64 = totals.iter().sum();
    for (kind_name, kind) in KINDS {
        let mut fired = 0u64;
        for (device, (&(name, _), &n)) in devices.iter().zip(&totals).enumerate() {
            for at in 0..n {
                let c = Case { device, name, at, kind: kind(at) };
                fired += u64::from(case(&c));
            }
        }
        eprintln!("{head} kind={kind_name}: {fired}/{total} faults fired");
        assert!(
            fired * 2 >= total,
            "{head} kind={kind_name}: only {fired}/{total} faults fired; sweep is mostly vacuous"
        );
    }
}
