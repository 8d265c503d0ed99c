//! Differential testing of scans against a `BTreeMap` oracle, across a
//! crash-recovery boundary, in both background modes.
//!
//! A deterministic workload of puts and deletes is applied to the engine
//! and to an in-memory oracle in lockstep. During the run, full scans,
//! bounded scans, limited scans, and point gets are checked against the
//! oracle (a single writer means the oracle is exact in both modes, even
//! with maintenance on worker threads). Then the device crashes on the
//! first I/O after a `sync`, so nothing past the oracle state can be
//! acknowledged; after heal + reopen, the recovered database must match
//! the oracle exactly — no lost acknowledged write, no resurrected
//! delete, and scans agreeing with gets.

use std::collections::BTreeMap;
use std::sync::Arc;

use lsm_core::{BackgroundMode, Db, LsmConfig};
use lsm_storage::{DeviceProfile, FaultDevice, FaultKind, MemDevice, StorageDevice};

type Oracle = BTreeMap<Vec<u8>, Vec<u8>>;

fn cfg(mode: BackgroundMode) -> LsmConfig {
    LsmConfig {
        background: mode,
        background_workers: 2,
        buffer_bytes: 2 << 10,
        ..LsmConfig::small_for_tests()
    }
}

fn fault_device() -> Arc<FaultDevice> {
    let mem: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(512, DeviceProfile::free()));
    Arc::new(FaultDevice::new(mem, 0x5CA7))
}

fn erased(dev: &Arc<FaultDevice>) -> Arc<dyn StorageDevice> {
    Arc::clone(dev) as Arc<dyn StorageDevice>
}

fn key(i: u64) -> Vec<u8> {
    format!("sk{i:05}").into_bytes()
}

/// Deterministic xorshift so the op sequence is identical across modes
/// and runs.
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
}

/// Full and windowed scans, limited scans, and spot gets must all agree
/// with the oracle.
fn check_against_oracle(db: &Db, oracle: &Oracle, context: &str) {
    let expected: Vec<(Vec<u8>, Vec<u8>)> =
        oracle.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    let scanned = db.scan(b"sk".to_vec()..b"sl".to_vec(), usize::MAX).unwrap();
    assert_eq!(scanned, expected, "{context}: full scan diverged from oracle");

    for (lo, hi) in [(100u64, 180u64), (0, 40), (250, 300), (199, 201)] {
        let want: Vec<(Vec<u8>, Vec<u8>)> = oracle
            .range(key(lo)..key(hi))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let got = db.scan(key(lo)..key(hi), usize::MAX).unwrap();
        assert_eq!(got, want, "{context}: bounded scan [{lo},{hi}) diverged");
    }

    // limit cuts the same prefix the oracle would
    let limited = db.scan(b"sk".to_vec()..b"sl".to_vec(), 7).unwrap();
    assert_eq!(
        limited,
        expected.iter().take(7).cloned().collect::<Vec<_>>(),
        "{context}: limited scan diverged"
    );

    for i in (0..300u64).step_by(23) {
        assert_eq!(
            db.get(&key(i)).unwrap(),
            oracle.get(&key(i)).cloned(),
            "{context}: get {i} diverged"
        );
    }
    assert_eq!(db.get(b"sk-none").unwrap(), None, "{context}: phantom key");
}

/// Applies `ops` random puts/deletes over 300 hot keys to both the engine
/// and the oracle, checking differentially every 120 ops.
fn run_workload(db: &Db, oracle: &mut Oracle, rng: &mut Rng, ops: usize, context: &str) {
    for n in 0..ops {
        let i = rng.next() % 300;
        if rng.next().is_multiple_of(5) {
            db.delete(key(i)).unwrap();
            oracle.remove(&key(i));
        } else {
            let v = format!("val{:08}-{}", rng.next() % 100_000, "p".repeat(24)).into_bytes();
            db.put(key(i), v.clone()).unwrap();
            oracle.insert(key(i), v);
        }
        if n % 120 == 119 {
            check_against_oracle(db, oracle, &format!("{context} (op {n})"));
        }
    }
}

fn scan_oracle_crash_case(mode: BackgroundMode) {
    let fault = fault_device();
    let mut oracle = Oracle::new();
    let mut rng = Rng(0xD1FF_0001);
    {
        let db = Db::open(erased(&fault), cfg(mode)).unwrap();
        run_workload(&db, &mut oracle, &mut rng, 1500, mode.label());
        check_against_oracle(&db, &oracle, &format!("{} pre-sync", mode.label()));
        db.sync().unwrap();
        // Crash on the very next device op: nothing after this sync can be
        // acknowledged, so the oracle *is* the recoverable state.
        fault.schedule(fault.ops_performed(), FaultKind::Crash);
        // A tail of unacknowledged writes against the dead device — these
        // must all fail and must not perturb recovery.
        let mut failures = 0;
        for i in 0..40u64 {
            if db.put(key(900 + i), b"never-acked".to_vec()).is_err() {
                failures += 1;
            }
        }
        assert!(failures > 0, "device crash never surfaced to the writer");
        if mode == BackgroundMode::Threaded {
            db.wait_background_idle();
        }
        // handle dropped while the device is dead (process death)
    }
    fault.heal();
    let db = Db::open(erased(&fault), cfg(BackgroundMode::Inline))
        .unwrap_or_else(|e| panic!("{}: reopen after crash failed: {e}", mode.label()));
    check_against_oracle(&db, &oracle, &format!("{} post-recovery", mode.label()));

    // and the engine keeps working after recovery: more ops, still exact
    run_workload(&db, &mut oracle, &mut rng, 400, "post-recovery");
    check_against_oracle(&db, &oracle, "post-recovery tail");
}

#[test]
fn scans_match_oracle_across_crash_inline() {
    scan_oracle_crash_case(BackgroundMode::Inline);
}

#[test]
fn scans_match_oracle_across_crash_threaded() {
    scan_oracle_crash_case(BackgroundMode::Threaded);
}
