//! Retune crash sweep: kill the engine at every I/O ordinal of a run in
//! which the self-tuner actuates a mid-flight reconfiguration (bloom
//! bits reallocation plus a merge-policy switch), then recover and prove
//! the durability contract survived the retune.
//!
//! The scripted run is a miniature phase change: a write-heavy burst
//! (steers the tuner toward a tiered layout and a re-budgeted filter
//! allocation), more writes so new tables are built *under the retuned
//! config* and compaction runs under the new layout, then a read-heavy
//! phase that triggers a second, read-optimized decision. Every write is
//! individually synced, so the acked/unacked boundary is exact.
//!
//! A retune (`Db::set_config`) is deliberately volatile — a crash reboots
//! the engine with its boot config in force — so the sweep also proves
//! the footer contract: tables built with retuned filter parameters stay
//! readable by an engine whose *config* says otherwise, because readers
//! trust the per-table footer, never the config.
//!
//! A composed sweep runs the same retune while compactions fan out into
//! sub-compactions (`max_subcompactions = 4`): a fault can land between
//! shard writes of a merge laid out by a config the crash then discards.
//!
//! The maintenance mode follows `LSM_BACKGROUND` (the sweep runs in both
//! modes under `scripts/verify.sh`) and `LSM_SEED` reseeds the fault
//! device. A separate Inline-pinned test proves the decision sequence is
//! deterministic: two identical runs emit byte-identical
//! `retune`/`retune_observed` event JSON.

use std::collections::BTreeSet;
use std::sync::Arc;

use lsm_core::{BackgroundMode, Db, EventKind, LsmConfig};
use lsm_storage::{DeviceProfile, MemDevice, StorageDevice};
use lsm_testkit::{check_db, erased, fault_device, no_orphan_tables, seed, sweep, synced, Shadow};
use lsm_tuner::{Tuner, TunerConfig};

/// Engine config; the maintenance mode comes from `LSM_BACKGROUND` via
/// `small_for_tests`. The 1 KiB buffer forces flushes every ~15 writes,
/// so the retuned filter parameters and layout actually govern table
/// builds and compactions inside the scripted window.
fn node_cfg() -> LsmConfig {
    LsmConfig {
        wal: true,
        buffer_bytes: 1 << 10,
        ..LsmConfig::small_for_tests()
    }
}

/// A responsive tuner: tight memory budget (keeps modeled bits/key in a
/// realistic range), short cooldown, and a low traffic floor so the
/// small scripted phases register.
fn tuner_for(db: &Db) -> Tuner {
    let cfg = TunerConfig {
        min_gain_milli: 20,
        cooldown_ticks: 1,
        min_ops_per_tick: 50,
        seed: 0,
        ..TunerConfig::for_db(db, 80, 20 << 10)
    };
    Tuner::new(db.clone(), cfg)
}

// ---------------------------------------------------------------------
// The scripted phase change
// ---------------------------------------------------------------------

fn hot_key(i: usize) -> Vec<u8> {
    format!("key{:03}", (i * 17) % 23).into_bytes()
}

/// Its own op mix, not the shared script's: the retune digest pins it.
fn write_phase(db: &Db, shadow: &mut Shadow, start: usize, ops: usize) {
    for i in start..start + ops {
        let key = hot_key(i);
        let value = (i % 9 != 4).then(|| vec![b'a' + (i % 26) as u8; 16 + (i * 13) % 74]);
        shadow.write(key, value, |k, v| synced(db, k, v));
    }
}

/// Point reads over the hot set plus guaranteed-absent siblings (the
/// empty-read fraction is what makes filter memory pay off in the
/// model). Errors are tolerated: on a dead device the phase just reads
/// nothing.
fn read_phase(db: &Db, ops: usize) {
    for i in 0..ops {
        let _ = db.get(&hot_key(i));
        let mut absent = hot_key(i);
        absent.push(b'!');
        let _ = db.get(&absent);
    }
}

/// Write-heavy → (retune) → writes under the new config → read-heavy →
/// (second retune) → tail writes. Ticks sit at the phase boundaries.
/// Returns the tuner so callers can inspect the decision trail.
fn scripted_run(db: &Db, shadow: &mut Shadow) -> Tuner {
    let mut tuner = tuner_for(db);
    write_phase(db, shadow, 0, 90);
    tuner.tick(); // write-heavy decision: layout + bloom budget
    write_phase(db, shadow, 90, 60);
    tuner.tick(); // cooldown burn / audit window
    read_phase(db, 80);
    tuner.tick(); // read-heavy decision
    write_phase(db, shadow, 150, 30);
    tuner.tick(); // audit of the second decision
    tuner
}

// ---------------------------------------------------------------------
// Sweeps
// ---------------------------------------------------------------------

/// Sweeps every I/O ordinal across the scripted retunes under `cfg`. Each
/// case drops the handle while dead (process death), heals, reopens on
/// the *boot* config (a retune is volatile by design) and verifies.
fn retune_sweep(scenario: &str, cfg: LsmConfig) {
    let seed = seed(0x2E7_0CE5);
    // Sanity-checks that the script provokes a retune carrying both a
    // policy switch and a bloom reallocation.
    let clean = || {
        let fault = fault_device(seed);
        let db = Db::open(erased(&fault), cfg.clone()).expect("clean open");
        let mut shadow = Shadow::default();
        let tuner = scripted_run(&db, &mut shadow);
        assert!(shadow.maybe.is_empty(), "fault-free run left unacked ops");
        assert!(
            tuner.decisions() >= 1,
            "script never provoked a retune; the sweep would not cross one"
        );
        let knobs: BTreeSet<&str> = db
            .drain_events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Retune { knob, .. } => Some(knob),
                _ => None,
            })
            .collect();
        assert!(
            knobs.contains("layout") && knobs.contains("bloom_bits"),
            "retune must carry a policy switch and a bloom reallocation, got {knobs:?}"
        );
        db.wait_background_idle();
        check_db(&db, &shadow, "fault-free");
        drop(db);
        vec![fault.ops_performed()]
    };
    sweep(scenario, seed, cfg.background, &[("device", 101)], clean, |case| {
        let fault = case.armed(seed);
        let mut shadow = Shadow::default();
        if let Ok(db) = Db::open(erased(&fault), cfg.clone()) {
            let _tuner = scripted_run(&db, &mut shadow);
            db.wait_background_idle();
        }
        let fired = fault.pending_faults().is_empty();
        fault.heal();
        let dev = erased(&fault);
        let db = Db::open(Arc::clone(&dev), cfg.clone())
            .unwrap_or_else(|e| panic!("reopen after {case} failed: {e}"));
        assert_eq!(*db.effective_config(), cfg, "a retune must not survive a crash ({case})");
        // Tables built under retuned filter params must stay readable on
        // the boot config: the check reads everything through the footer
        // contract.
        check_db(&db, &shadow, &case.to_string());
        // The recovered engine accepts a fresh tuner and keeps writing.
        let mut tuner = tuner_for(&db);
        db.put(b"post-crash".to_vec(), b"alive".to_vec()).expect("put after recovery");
        db.sync().expect("sync after recovery");
        tuner.tick();
        assert_eq!(db.get(b"post-crash").unwrap(), Some(b"alive".to_vec()));
        drop((tuner, db));
        no_orphan_tables(&dev, &case.to_string());
        fired
    });
}

#[test]
fn crash_at_every_io_point_across_a_retune() {
    retune_sweep("retune sweep", node_cfg());
}

/// The retune composed with parallel compaction: merges
/// split into up to four sub-compactions while the tuner switches layout
/// and re-budgets filters.
#[test]
fn crash_at_every_io_point_across_a_retune_during_parallel_compaction() {
    let cfg = LsmConfig { max_subcompactions: 4, ..node_cfg() };
    retune_sweep("retune + parallel compaction sweep", cfg);
}

/// Two identical Inline runs must produce byte-identical retune event
/// sequences — the tuner consults no wall clock and no thread timing, so
/// its entire decision trail is a function of (workload, seed).
#[test]
fn inline_retune_decisions_are_byte_identical_across_runs() {
    let run = || {
        let cfg = LsmConfig {
            background: BackgroundMode::Inline,
            ..node_cfg()
        };
        let dev: Arc<dyn StorageDevice> =
            Arc::new(MemDevice::new(512, DeviceProfile::free()));
        let db = Db::open(dev, cfg).unwrap();
        let mut shadow = Shadow::default();
        let tuner = scripted_run(&db, &mut shadow);
        let events: Vec<String> = db
            .drain_events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::Retune { .. } | EventKind::RetuneObserved { .. }
                )
            })
            .map(|e| e.to_json_line())
            .collect();
        (tuner.decisions(), events)
    };
    let (decisions_a, events_a) = run();
    let (decisions_b, events_b) = run();
    assert!(decisions_a >= 1, "script must retune at least once");
    assert_eq!(decisions_a, decisions_b, "decision counts diverged");
    assert_eq!(events_a, events_b, "retune event streams diverged");
    // The scripted phase change exercises both actuation families and
    // at least one observed-gain audit lands.
    assert!(
        events_a.iter().any(|j| j.contains("\"knob\":\"layout\"")),
        "no policy switch in {events_a:?}"
    );
    assert!(
        events_a.iter().any(|j| j.contains("\"knob\":\"bloom_bits\"")),
        "no bloom reallocation in {events_a:?}"
    );
    assert!(
        events_a.iter().any(|j| j.contains("retune_observed")),
        "no observed-gain audit in {events_a:?}"
    );
    // Known answer: the trail the tuner produced before its actuation
    // moved from a per-knob overlay to whole-config installs. Two
    // decisions, eight `retune` lines and one `retune_observed`; any
    // change to a decision, a label or the events around it moves this.
    assert_eq!(decisions_a, 2, "decision count moved: {events_a:#?}");
    assert_eq!(
        fnv1a(&events_a),
        0xb5b3_78f8_e384_cfb2,
        "retune trail moved: {events_a:#?}"
    );
}

/// FNV-1a over the event lines, each terminated by `\n`.
fn fnv1a(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
