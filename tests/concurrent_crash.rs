//! Crash recovery while background maintenance is in flight (`Threaded`
//! mode).
//!
//! The inline sweep in `crash_recovery.rs` faults every I/O ordinal of a
//! deterministic run. This sweep repeats the exercise with flush and
//! compaction running on worker threads, so the crash lands at arbitrary
//! points *inside* concurrent maintenance: between a table write and its
//! manifest install, mid-merge, between the WAL rotation and the flush
//! that retires it. The contract is unchanged:
//!
//! * no acknowledged write (op `Ok` **and** the following `sync` `Ok`) is
//!   ever lost, and
//! * no acknowledged delete is resurrected — the reopened database reads
//!   exactly one of each key's legal states, and scans agree with gets.
//!
//! Unlike the inline sweep, the I/O schedule is not reproducible: worker
//! timing moves ordinals between runs, so a scheduled fault may never
//! fire. Those cases degrade to clean roundtrips (still verified); the
//! sweep asserts that most cases do fire.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use lsm_core::manifest::{find_record, ManifestState, MANIFEST_MAGIC};
use lsm_core::sstable::meta::decode_footer;
use lsm_core::{BackgroundMode, Db, LsmConfig};
use lsm_storage::{DeviceProfile, FaultDevice, FaultKind, IoCategory, MemDevice, StorageDevice};

const SWEEP_SEED: u64 = 0xBAD5_EED5;
const SCRIPT_OPS: usize = 260;

/// Small-geometry config with threaded maintenance: 512-byte blocks and a
/// 2 KiB buffer keep flush/compaction jobs almost always in flight.
fn threaded_cfg() -> LsmConfig {
    LsmConfig {
        buffer_bytes: 2 << 10,
        background: BackgroundMode::Threaded,
        background_workers: 2,
        ..LsmConfig::small_for_tests()
    }
}

/// Recovery runs `Inline`: the sweep is about surviving a crash *during*
/// concurrent maintenance, and a deterministic reopen keeps any failure
/// reproducible from the printed ordinal.
fn inline_cfg() -> LsmConfig {
    LsmConfig {
        background: BackgroundMode::Inline,
        ..threaded_cfg()
    }
}

fn fault_device(seed: u64) -> Arc<FaultDevice> {
    let mem: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(512, DeviceProfile::free()));
    Arc::new(FaultDevice::new(mem, seed))
}

fn erased(dev: &Arc<FaultDevice>) -> Arc<dyn StorageDevice> {
    Arc::clone(dev) as Arc<dyn StorageDevice>
}

/// Legal post-crash states per key: the last acknowledged state, plus any
/// attempted-but-unacknowledged writes (see `crash_recovery.rs`).
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

fn apply_op(db: &Db, shadow: &mut Shadow, key: Vec<u8>, value: Option<Vec<u8>>) {
    shadow.attempt(&key, value.clone());
    let op_ok = match &value {
        Some(v) => db.put(key.clone(), v.clone()).is_ok(),
        None => db.delete(key.clone()).is_ok(),
    };
    if op_ok && db.sync().is_ok() {
        shadow.ack(&key, value);
    }
}

/// Same deterministic op script as the inline sweep: 23 hot keys, varying
/// value sizes, a delete every 7th op, each op individually synced.
fn scripted_workload(db: &Db, shadow: &mut Shadow) {
    for i in 0..SCRIPT_OPS {
        let key = format!("key{:03}", (i * 17) % 23).into_bytes();
        if i % 7 == 3 {
            apply_op(db, shadow, key, None);
        } else {
            let len = 16 + (i * 13) % 90;
            let value = vec![b'a' + (i % 26) as u8; len];
            apply_op(db, shadow, key, Some(value));
        }
    }
}

fn verify(db: &Db, shadow: &Shadow, context: &str) {
    let mut expected_scan: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for key in shadow.keys() {
        let got = db.get(&key).unwrap_or_else(|e| {
            panic!("{context}: get {:?} failed: {e}", String::from_utf8_lossy(&key))
        });
        let allowed = shadow.allowed(&key);
        assert!(
            allowed.contains(&got),
            "{context}: key {:?} read {:?}, but only {} states are legal",
            String::from_utf8_lossy(&key),
            got.as_ref().map(|v| v.len()),
            allowed.len(),
        );
        if let Some(v) = got {
            expected_scan.push((key, v));
        }
    }
    let scanned = db
        .scan(b"key".to_vec()..b"kez".to_vec(), usize::MAX)
        .unwrap_or_else(|e| panic!("{context}: scan failed: {e}"));
    assert_eq!(scanned, expected_scan, "{context}: scan disagrees with point gets");
}

/// Fault-free threaded run; its I/O count bounds the sweep range.
fn clean_run_total() -> u64 {
    let fault = fault_device(SWEEP_SEED);
    let db = Db::open(erased(&fault), threaded_cfg()).expect("clean open");
    let mut shadow = Shadow::default();
    scripted_workload(&db, &mut shadow);
    db.wait_background_idle();
    drop(db);
    assert!(shadow.maybe.is_empty(), "fault-free run left unacked ops");
    fault.ops_performed()
}

/// One case: crash at ordinal `at`, let in-flight workers observe the
/// dead device, drop the handle while dead (process death), heal, reopen,
/// verify. Returns whether the fault actually fired.
fn crash_case(at: u64) -> bool {
    let fault = fault_device(SWEEP_SEED ^ at);
    fault.schedule(at, FaultKind::Crash);

    let mut shadow = Shadow::default();
    if let Ok(db) = Db::open(erased(&fault), threaded_cfg()) {
        scripted_workload(&db, &mut shadow);
        // bounded: the idle wait bails out once a job has failed
        db.wait_background_idle();
        drop(db);
    }
    let fired = fault.pending_faults().is_empty();

    fault.heal();
    let db = Db::open(erased(&fault), inline_cfg())
        .unwrap_or_else(|e| panic!("reopen after crash at ordinal {at} failed: {e}"));
    verify(&db, &shadow, &format!("crash at ordinal {at} (threaded)"));
    fired
}

/// `threaded_cfg` with sub-compactions enabled, so merges fan out across
/// the worker pool and a crash can land between any two shard writes.
fn parallel_cfg() -> LsmConfig {
    LsmConfig {
        max_subcompactions: 4,
        ..threaded_cfg()
    }
}

/// Deterministic reopen, still sharding (Inline runs shards serially).
fn parallel_inline_cfg() -> LsmConfig {
    LsmConfig {
        background: BackgroundMode::Inline,
        ..parallel_cfg()
    }
}

/// After recovery every file that carries a valid table footer must be
/// referenced by the manifest — a half-installed parallel compaction's
/// shard outputs must have been deleted by the orphan sweep on open.
fn assert_no_orphan_tables(dev: &Arc<dyn StorageDevice>, context: &str) {
    let (manifest_id, state) = find_record(dev, MANIFEST_MAGIC, ManifestState::from_bytes)
        .unwrap_or_else(|e| panic!("{context}: manifest scan failed: {e}"))
        .unwrap_or_else(|| panic!("{context}: no manifest after recovery"));
    let mut referenced: BTreeSet<u64> = state
        .levels
        .iter()
        .flatten()
        .flatten()
        .copied()
        .collect();
    referenced.insert(manifest_id.0);
    for f in dev.live_files() {
        if referenced.contains(&f.0) {
            continue;
        }
        let n = dev.len_blocks(f).unwrap();
        if n == 0 {
            continue;
        }
        let last = dev.read(f, n - 1, 1, IoCategory::Misc).unwrap();
        if let Some((meta_start, meta_len)) = decode_footer(&last) {
            // same sanity bounds the orphan sweep applies: a real table's
            // footer points inside the file
            assert!(
                meta_start >= n || meta_len == 0,
                "{context}: file {} has a valid table footer but is not in the manifest — \
                 orphaned sub-compaction output survived recovery",
                f.0
            );
        }
    }
}

fn parallel_clean_run_total() -> u64 {
    let fault = fault_device(SWEEP_SEED);
    let db = Db::open(erased(&fault), parallel_cfg()).expect("clean open");
    let mut shadow = Shadow::default();
    scripted_workload(&db, &mut shadow);
    db.wait_background_idle();
    drop(db);
    assert!(shadow.maybe.is_empty(), "fault-free run left unacked ops");
    fault.ops_performed()
}

fn parallel_crash_case(at: u64) -> bool {
    let fault = fault_device(SWEEP_SEED ^ at);
    fault.schedule(at, FaultKind::Crash);

    let mut shadow = Shadow::default();
    if let Ok(db) = Db::open(erased(&fault), parallel_cfg()) {
        scripted_workload(&db, &mut shadow);
        db.wait_background_idle();
        drop(db);
    }
    let fired = fault.pending_faults().is_empty();

    fault.heal();
    let dev = erased(&fault);
    let db = Db::open(Arc::clone(&dev), parallel_inline_cfg())
        .unwrap_or_else(|e| panic!("reopen after crash at ordinal {at} failed: {e}"));
    verify(&db, &shadow, &format!("crash at ordinal {at} (parallel)"));
    drop(db);
    assert_no_orphan_tables(&dev, &format!("crash at ordinal {at} (parallel)"));
    fired
}

/// The parallel-compaction crash sweep: every I/O ordinal of a threaded
/// run with `max_subcompactions = 4`. Recovery must never observe a
/// half-installed compaction (install is atomic: one manifest write), and
/// shard outputs orphaned by the crash must be gone after reopen.
#[test]
fn crash_at_every_io_point_during_parallel_compaction() {
    let total = parallel_clean_run_total();
    assert!(total > 100, "workload too small to exercise recovery ({total} I/Os)");
    let mut fired = 0u64;
    for at in 0..total {
        if parallel_crash_case(at) {
            fired += 1;
        }
    }
    eprintln!("parallel sweep: {fired}/{total} crash points fired");
    assert!(
        fired * 2 >= total,
        "only {fired}/{total} crash points fired; sweep is mostly vacuous"
    );
}

#[test]
fn crash_at_every_io_point_during_background_maintenance() {
    let total = clean_run_total();
    assert!(total > 100, "workload too small to exercise recovery ({total} I/Os)");
    let mut fired = 0u64;
    for at in 0..total {
        if crash_case(at) {
            fired += 1;
        }
    }
    eprintln!("sweep: {fired}/{total} crash points fired");
    // worker timing shifts ordinals between runs, so some scheduled
    // faults never fire — but a sweep where most miss proves nothing
    assert!(
        fired * 2 >= total,
        "only {fired}/{total} crash points fired; sweep is mostly vacuous"
    );
}
