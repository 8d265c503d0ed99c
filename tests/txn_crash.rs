//! Transaction-commit crash sweep: kill the engine at every I/O ordinal
//! of a run that commits a sequence of multi-key optimistic
//! transactions, then recover and prove commit atomicity.
//!
//! Each scripted transaction writes a **disjoint key-set** (its own
//! `t<NN>-k<M>` keys) plus one **shared cursor key** it reads and
//! overwrites with its own ordinal. Transactions run sequentially and
//! each acked commit is followed by an acked `sync`, so the committed
//! history is a strict prefix of the script. After the crash and reopen
//! the sweep asserts:
//!
//! * **prefix**: the recovered state is exactly the replay of the first
//!   `j` transactions for some `j` — the cursor key names `j`, every
//!   transaction `≤ j` is **fully** visible and every transaction `> j`
//!   left **zero trace** (the atomic WAL group is all-or-nothing; a torn
//!   tail group must vanish wholesale, never a partial write-set);
//! * **durability**: `j` covers at least every acked commit (commit `Ok`
//!   **and** the following `sync` `Ok`);
//! * **consistency**: a full scan agrees with point gets.
//!
//! Every fault kind runs at every ordinal. A torn write can leave a
//! commit that reported failure durable; a flipped read must fail the
//! commit, never bend it. The sweep runs twice: with short values every
//! commit group fits one 512-byte block, so a tear keeps all of a group
//! or none; with values of about 200 bytes every group spans blocks, so a
//! tear can keep a group's leading blocks, and recovery must drop such a
//! group wholesale. The maintenance mode follows
//! `LSM_BACKGROUND` (the sweep runs in both modes under
//! `scripts/verify.sh`), and `LSM_SEED` reseeds the fault device; both
//! are printed so failures reproduce.

use lsm_core::{Db, LsmConfig, TxnError};
use lsm_testkit::{erased, fault_device, seed, sweep};

/// One scripted run: how many transactions, and the least length of
/// their values.
#[derive(Clone, Copy)]
struct Script {
    txns: usize,
    value_base: usize,
}
/// Exclusive keys written by each transaction.
const KEYS_PER_TXN: usize = 4;
const CURSOR: &[u8] = b"txn-cursor";

/// Engine config; the maintenance mode comes from `LSM_BACKGROUND` via
/// `small_for_tests`, so one binary sweeps both modes. The 1 KiB buffer
/// makes the scripted write volume cross memtable rotations, so crash
/// ordinals land inside flush and manifest I/O, not just the WAL.
fn node_cfg() -> LsmConfig {
    LsmConfig {
        wal: true,
        buffer_bytes: 1 << 10,
        ..LsmConfig::small_for_tests()
    }
}

fn txn_key(t: usize, m: usize) -> Vec<u8> {
    format!("t{t:02}-k{m}").into_bytes()
}

/// Value `m` of transaction `t`, at least `base` bytes long.
fn txn_value(t: usize, m: usize, base: usize) -> Vec<u8> {
    // varying lengths so commits straddle block boundaries
    let len = base + (t * 7 + m * 13) % 70;
    let mut v = format!("v{t:02}-{m}-").into_bytes();
    v.resize(len, b'a' + ((t + m) % 26) as u8);
    v
}

/// Runs the scripted transactions until the device dies (or the script
/// ends). Returns the number of **acked** commits: commit `Ok` and the
/// following `sync` `Ok`.
fn scripted_txns(db: &Db, script: Script) -> usize {
    let mut acked = 0;
    for t in 1..=script.txns {
        let mut txn = match db.begin_txn() {
            Ok(txn) => txn,
            Err(_) => break,
        };
        // read-modify-write of the shared cursor; single-threaded, so
        // validation always passes on a live device
        match txn.get(CURSOR) {
            Ok(cur) => {
                let prev: usize = cur
                    .and_then(|v| String::from_utf8(v).ok())
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                assert_eq!(prev, t - 1, "cursor must walk the prefix in order");
            }
            Err(_) => break,
        }
        txn.put(CURSOR.to_vec(), t.to_string().into_bytes());
        for m in 0..KEYS_PER_TXN {
            txn.put(txn_key(t, m), txn_value(t, m, script.value_base));
        }
        match txn.commit() {
            Ok(stamp) => assert!(stamp > 0, "committed txn must draw a stamp"),
            Err(TxnError::Conflict(c)) => {
                panic!("sequential txns cannot conflict: {c:?}")
            }
            Err(TxnError::Storage(_)) => break,
        }
        if db.sync().is_ok() {
            acked = t;
        } else {
            break;
        }
    }
    acked
}

/// Post-recovery check: state == replay of the first `j` txns, `j ≥
/// acked`, all-or-nothing per transaction, scan agrees with gets.
fn verify(db: &Db, acked: usize, script: Script, context: &str) {
    let cursor = db.get(CURSOR).unwrap_or_else(|e| panic!("{context}: cursor get failed: {e}"));
    let j: usize = match cursor {
        Some(v) => String::from_utf8(v)
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("{context}: cursor corrupt")),
        None => 0,
    };
    assert!(
        j >= acked,
        "{context}: acked commit lost — cursor names txn {j}, but {acked} commits were acked"
    );
    assert!(j <= script.txns, "{context}: cursor {j} past the script");
    let mut expected_scan: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    if j > 0 {
        expected_scan.push((CURSOR.to_vec(), j.to_string().into_bytes()));
    }
    for t in 1..=script.txns {
        for m in 0..KEYS_PER_TXN {
            let got = db
                .get(&txn_key(t, m))
                .unwrap_or_else(|e| panic!("{context}: get t{t}-k{m} failed: {e}"));
            if t <= j {
                assert_eq!(
                    got,
                    Some(txn_value(t, m, script.value_base)),
                    "{context}: txn {t} committed (cursor {j}) but key {m} is missing or \
                     wrong — partial write-set"
                );
                expected_scan.push((txn_key(t, m), txn_value(t, m, script.value_base)));
            } else {
                assert_eq!(
                    got,
                    None,
                    "{context}: txn {t} did not commit (cursor {j}) but key {m} survived — \
                     torn group leaked"
                );
            }
        }
    }
    expected_scan.sort();
    let scanned = db
        .scan(b"t".to_vec()..b"u".to_vec(), usize::MAX)
        .unwrap_or_else(|e| panic!("{context}: scan failed: {e}"));
    assert_eq!(scanned, expected_scan, "{context}: scan disagrees with point gets");
}

#[test]
fn crash_at_every_io_point_during_txn_commits() {
    txn_sweep("txn sweep", Script { txns: 28, value_base: 12 });
}

/// Values of 180–249 bytes: every commit group (four of them plus the
/// cursor) is larger than a 512-byte block. Fewer transactions than the
/// short-value sweep: each one already crosses a memtable rotation.
#[test]
fn crash_at_every_io_point_during_multi_block_txn_commits() {
    txn_sweep("txn sweep (multi-block groups)", Script { txns: 10, value_base: 180 });
}

/// Sweeps `script` under every fault kind at every I/O ordinal.
fn txn_sweep(scenario: &str, script: Script) {
    let seed = seed(0x7C5B_0A11);
    let mode = lsm_core::BackgroundMode::from_env();
    let clean = || {
        let fault = fault_device(seed);
        let db = Db::open(erased(&fault), node_cfg()).expect("clean open");
        let acked = scripted_txns(&db, script);
        assert_eq!(acked, script.txns, "fault-free run must ack every commit");
        db.wait_background_idle();
        verify(&db, acked, script, "fault-free");
        drop(db);
        vec![fault.ops_performed()]
    };
    // One case: fault at `at`, drop the handle while dead (process
    // death), heal, reopen, verify.
    sweep(scenario, seed, mode, &[("device", 101)], clean, |case| {
        let fault = case.armed(seed);
        let mut acked = 0;
        if let Ok(db) = Db::open(erased(&fault), node_cfg()) {
            acked = scripted_txns(&db, script);
            db.wait_background_idle();
        }
        let fired = fault.pending_faults().is_empty();
        fault.heal();
        let db = Db::open(erased(&fault), node_cfg())
            .unwrap_or_else(|e| panic!("reopen after {case} failed: {e}"));
        verify(&db, acked, script, &case.to_string());
        // recovered engine keeps committing transactions
        let mut txn = db.begin_txn().expect("begin after recovery");
        txn.put(b"post-crash".to_vec(), b"alive".to_vec());
        txn.commit().expect("commit after recovery");
        assert_eq!(db.get(b"post-crash").unwrap(), Some(b"alive".to_vec()));
        fired
    });
}
