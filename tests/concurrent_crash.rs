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
//!
//! A third scenario composes the sweep with a reader: a snapshot held
//! across flushes and compactions, and across the fault itself.

use std::sync::Arc;

use lsm_core::{BackgroundMode, Db, LsmConfig};
use lsm_storage::FaultDevice;
use lsm_testkit::{
    check_db, check_legal, erased, fault_device, no_orphan_tables, seed, sweep, synced, Shadow,
};

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

/// Sweeps the 260-op script under `cfg` (always threaded). Each case lets
/// in-flight workers observe the dead device, drops the handle while dead
/// (process death), heals, and reopens `Inline`: the sweep is about
/// surviving a fault *during* concurrent maintenance, and a deterministic
/// reopen keeps any failure reproducible from the printed ordinal. With
/// `orphans`, recovery must also have swept every uninstalled table.
fn threaded_sweep(scenario: &str, cfg: LsmConfig, orphans: bool) {
    let seed = seed(0xBAD5_EED5);
    let reopen_cfg = LsmConfig { background: BackgroundMode::Inline, ..cfg.clone() };
    let run = |fault: &Arc<FaultDevice>, shadow: &mut Shadow| {
        if let Ok(db) = Db::open(erased(fault), cfg.clone()) {
            shadow.script(0..SCRIPT_OPS, 0, |k, v| synced(&db, k, v));
            // bounded: the idle wait bails out once a job has failed
            db.wait_background_idle();
        }
    };
    let clean = || {
        let (fault, mut shadow) = (fault_device(seed), Shadow::default());
        run(&fault, &mut shadow);
        assert!(shadow.maybe.is_empty(), "fault-free run left unacked ops");
        vec![fault.ops_performed()]
    };
    sweep(scenario, seed, cfg.background, &[("device", 101)], clean, |case| {
        let (fault, mut shadow) = (case.armed(seed), Shadow::default());
        run(&fault, &mut shadow);
        let fired = fault.pending_faults().is_empty();
        fault.heal();
        let dev = erased(&fault);
        let db = Db::open(Arc::clone(&dev), reopen_cfg.clone())
            .unwrap_or_else(|e| panic!("reopen after {case} failed: {e}"));
        check_db(&db, &shadow, &format!("{case} ({scenario})"));
        drop(db);
        if orphans {
            no_orphan_tables(&dev, &format!("{case} ({scenario})"));
        }
        fired
    });
}

/// The parallel-compaction sweep: every I/O ordinal of a threaded run
/// with `max_subcompactions = 4`, so merges fan out across the worker
/// pool and a fault can land between any two shard writes. Recovery must
/// never observe a half-installed compaction (install is atomic: one
/// manifest write), and shard outputs orphaned by the fault must be gone
/// after reopen.
#[test]
fn crash_at_every_io_point_during_parallel_compaction() {
    let cfg = LsmConfig { max_subcompactions: 4, ..threaded_cfg() };
    threaded_sweep("parallel sweep", cfg, true);
}

#[test]
fn crash_at_every_io_point_during_background_maintenance() {
    threaded_sweep("threaded sweep", threaded_cfg(), false);
}

/// A snapshot held across flushes and compactions, then across the
/// fault. The snapshot is pinned at op 60 of the 260-op script on a
/// 2 KiB buffer (maintenance mode from `LSM_BACKGROUND`); every 20 ops
/// its reads must match the shadow as it stood at the pin, while the
/// buffer it pinned is frozen, flushed and compacted away beneath it.
/// Its reads may fail once the device dies (or catch a flipped block),
/// but never return an illegal state. The fault lands with the snapshot
/// still held; after reopen the legal-state check and the orphan check
/// must pass.
#[test]
fn crash_with_a_snapshot_held_across_flushes_and_compactions() {
    let seed = seed(0x5AA9_5407);
    let cfg = LsmConfig { buffer_bytes: 2 << 10, ..LsmConfig::small_for_tests() };
    // returns whether every snapshot check read cleanly
    let run = |fault: &Arc<FaultDevice>, shadow: &mut Shadow, context: &str| {
        let Ok(db) = Db::open(erased(fault), cfg.clone()) else { return false };
        let write = |k: &[u8], v: Option<&[u8]>| synced(&db, k, v);
        shadow.script(0..60, 0, write);
        let Ok(snap) = db.snapshot() else { return false };
        let at_pin = shadow.clone();
        let mut clean = true;
        for start in (60..SCRIPT_OPS).step_by(20) {
            shadow.script(start..(start + 20).min(SCRIPT_OPS), 0, write);
            let scan = || snap.scan(b"key".to_vec()..b"kez".to_vec(), usize::MAX);
            clean &= check_legal(&at_pin, context, |k| snap.get(k), scan).is_ok();
        }
        db.wait_background_idle();
        // process death with the snapshot still held
        drop(db);
        drop(snap);
        clean
    };
    let clean = || {
        let (fault, mut shadow) = (fault_device(seed), Shadow::default());
        assert!(run(&fault, &mut shadow, "fault-free"), "fault-free snapshot read failed");
        assert!(shadow.maybe.is_empty(), "fault-free run left unacked ops");
        vec![fault.ops_performed()]
    };
    sweep("snapshot sweep", seed, cfg.background, &[("device", 101)], clean, |case| {
        let (fault, mut shadow) = (case.armed(seed), Shadow::default());
        let read_cleanly = run(&fault, &mut shadow, &format!("{case} (held snapshot)"));
        let fired = fault.pending_faults().is_empty();
        assert!(read_cleanly || fired, "{case}: a snapshot read failed before the fault fired");
        fault.heal();
        let dev = erased(&fault);
        let db = Db::open(Arc::clone(&dev), cfg.clone())
            .unwrap_or_else(|e| panic!("reopen after {case} failed: {e}"));
        check_db(&db, &shadow, &format!("{case} (snapshot sweep)"));
        drop(db);
        no_orphan_tables(&dev, &format!("{case} (snapshot sweep)"));
        fired
    });
}
