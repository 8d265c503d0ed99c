//! Engine observability: `Db::metrics()` and `Db::drain_events()`.
//!
//! The contract under test:
//!
//! * **Determinism.** Under `BackgroundMode::Inline` the metrics snapshot
//!   (including the latency histograms, which are driven by the simulated
//!   device clock) and the event trace are byte-identical across repeated
//!   runs of the same workload.
//! * **Pairing.** Every `FlushStart` has a matching `FlushEnd`, every
//!   `CompactionStart` a matching `CompactionEnd`, with consistent ids
//!   and byte/entry accounting (`entries_written + tombstones_dropped +
//!   versions_dropped == input_entries`).
//! * **Backpressure order.** In `Threaded` mode a writer that climbs into
//!   a stall produces `SlowdownEnter → StallEnter → StallExit`, in that
//!   order, in the trace.
//! * **Monotonicity.** Counters never go backwards across a background
//!   flush.
//! * **One counter.** The typed views (`DbStatsSnapshot`,
//!   `IoStatsSnapshot`, `cache_stats()`) read the very counters the
//!   registry series of the same name do, and the series names are pinned
//!   by a literal list: the tuner reads them as strings, so a renamed or
//!   dropped series must fail here by name.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use lsm_core::stats::DbStatsSnapshot;
use lsm_core::{BackgroundMode, Db, Event, EventKind, LsmConfig, StallReason};
use lsm_storage::{DeviceProfile, IoCategory, MemDevice, StorageDevice};

fn small() -> LsmConfig {
    LsmConfig::small_for_tests()
}

fn key(i: u32) -> Vec<u8> {
    format!("obs{i:06}").into_bytes()
}

fn value(i: u32, len: usize) -> Vec<u8> {
    format!("v{i:06}-{}", "x".repeat(len)).into_bytes()
}

/// A workload that exercises every instrumented path: puts, deletes,
/// overwrites, gets (hits and misses), scans, an explicit flush, and
/// enough volume for flushes and multi-level compactions.
fn mixed_workload(db: &Db) {
    for i in 0..2500u32 {
        db.put(key(i), value(i, 20)).unwrap();
        if i % 11 == 5 {
            db.delete(key(i / 2)).unwrap();
        }
    }
    for i in (0..2500u32).step_by(97) {
        db.get(&key(i)).unwrap();
        db.get(b"obs-missing").unwrap();
    }
    for i in (0..2000u32).step_by(500) {
        db.scan(key(i)..key(i + 200), usize::MAX).unwrap();
    }
    db.flush().unwrap();
}

#[test]
fn inline_metrics_and_trace_are_byte_identical_across_runs() {
    // Pin Inline regardless of `LSM_BACKGROUND`: the determinism claim is
    // specifically about the inline schedule + simulated clock.
    let run = || {
        let cfg = LsmConfig { background: BackgroundMode::Inline, ..small() };
        let db = Db::open_simulated(cfg, DeviceProfile::nvme_ssd()).unwrap();
        mixed_workload(&db);
        let metrics = db.metrics().to_json_line_tagged(&[("config", "inline")]);
        let events: Vec<String> = db.drain_events().iter().map(Event::to_json_line).collect();
        (metrics, events)
    };
    let (m1, e1) = run();
    let (m2, e2) = run();
    assert_eq!(m1, m2, "metrics snapshot differs between identical Inline runs");
    assert_eq!(e1, e2, "event trace differs between identical Inline runs");
    // what the engine emits is line-delimited JSON a consumer can parse
    let text = format!("{m1}\n{}\n", e1.join("\n"));
    assert_eq!(lsm_obs::json::validate_json_lines(&text), Ok(1 + e1.len()));
}

#[test]
fn metrics_cover_all_five_operation_histograms() {
    let db = Db::open_simulated(small(), DeviceProfile::nvme_ssd()).unwrap();
    mixed_workload(&db);
    let snap = db.metrics();
    for name in [
        "latency.get_ns",
        "latency.put_ns",
        "latency.scan_ns",
        "latency.flush_ns",
        "latency.compaction_ns",
    ] {
        let h = snap
            .histograms
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing from snapshot"));
        assert!(h.count > 0, "{name} recorded nothing");
        assert!(h.p50() <= h.p90(), "{name}: p50 > p90");
        assert!(h.p90() <= h.p99(), "{name}: p90 > p99");
        // quantiles are log-bucket upper bounds: at most one bucket
        // (2x) above the exact max
        assert!(h.p99() <= h.max.saturating_mul(2).max(1), "{name}: p99 implausible");
    }
    // engine counters and gauges made it across
    assert!(snap.counters["db.puts"] >= 2500);
    assert!(snap.counters["db.flushes"] > 0);
    assert!(snap.counters["db.compactions"] > 0);
    assert!(snap.counters.keys().any(|k| k.starts_with("io.")));
    assert!(snap.counters.contains_key("cache.hits"));
    assert!(snap.gauges.contains_key("engine.l0_runs"));
}

/// Every series an Inline engine with a block cache exposes, by kind.
const COUNTERS: &[&str] = &[
    "bg.compact_jobs", "bg.flush_jobs",
    "cache.evictions", "cache.hits", "cache.inserts", "cache.misses",
    "db.batched_writes", "db.blocks_examined", "db.bytes_ingested", "db.compaction_entries",
    "db.compactions", "db.deletes", "db.filter_prunes", "db.flushes", "db.frontier_installs", "db.gets",
    "db.gets_found", "db.largest_compaction_entries", "db.prefetched_blocks", "db.puts",
    "db.range_filter_prunes", "db.range_prunes", "db.runs_probed", "db.scan_entries",
    "db.scans", "db.tombstones_dropped", "db.versions_dropped", "db.vlog_resolves",
    "db.vlog_values", "db.wal_appends", "db.write_batches",
    "io.corruption_detected",
    "io.data.read_blocks", "io.data.read_ops", "io.data.write_ops", "io.data.written_blocks",
    "io.filter.read_blocks", "io.filter.read_ops", "io.filter.write_ops", "io.filter.written_blocks",
    "io.index.read_blocks", "io.index.read_ops", "io.index.write_ops", "io.index.written_blocks",
    "io.misc.read_blocks", "io.misc.read_ops", "io.misc.write_ops", "io.misc.written_blocks",
    "io.retries",
    "io.vlog.read_blocks", "io.vlog.read_ops", "io.vlog.write_ops", "io.vlog.written_blocks",
    "io.wal.read_blocks", "io.wal.read_ops", "io.wal.write_ops", "io.wal.written_blocks",
    "io.write_slowdowns", "io.write_stalls",
    "txn.begins", "txn.commits", "txn.conflicts",
];
const GAUGES: &[&str] = &["engine.l0_runs", "engine.memtable_bytes", "memory.device.superseded"];
const HISTOGRAMS: &[&str] = &[
    "latency.compaction_ns", "latency.flush_ns", "latency.get_ns", "latency.put_ns",
    "latency.scan_ns",
];

fn names<V>(series: &BTreeMap<String, V>) -> Vec<&str> {
    series.keys().map(String::as_str).collect()
}

/// `(name, value)` for every `DbStatsSnapshot` field. The destructuring
/// names every field, so a field added to the view without a line here
/// fails to compile.
macro_rules! db_fields {
    ($snap:expr, $($field:ident),+ $(,)?) => {{
        let DbStatsSnapshot { $($field),+ } = $snap;
        [$((stringify!($field), $field)),+]
    }};
}

#[test]
fn typed_views_and_registry_series_are_one_counter() {
    let db = Db::open_simulated(small(), DeviceProfile::nvme_ssd()).unwrap();
    mixed_workload(&db);
    db.wait_background_idle();
    let snap = db.metrics();
    let fields = db_fields!(
        db.stats().snapshot(),
        puts, deletes, gets, gets_found, scans, scan_entries, bytes_ingested, flushes,
        compactions, compaction_entries, tombstones_dropped, versions_dropped, runs_probed,
        filter_prunes, blocks_examined, range_prunes, range_filter_prunes, prefetched_blocks,
        vlog_values, vlog_resolves, largest_compaction_entries, wal_appends, write_batches,
        batched_writes, frontier_installs,
    );
    for (field, value) in fields {
        assert_eq!(snap.counters[&format!("db.{field}")], value, "db.{field}");
    }
    assert!(snap.counters["db.puts"] > 0, "the workload was counted");

    let io = db.io_stats();
    for cat in IoCategory::ALL {
        let c = io.category(cat);
        let label = cat.label();
        for (what, value) in [
            ("read_blocks", c.read_blocks),
            ("written_blocks", c.written_blocks),
            ("read_ops", c.read_ops),
            ("write_ops", c.write_ops),
        ] {
            assert_eq!(snap.counters[&format!("io.{label}.{what}")], value, "io.{label}.{what}");
        }
    }
    assert_eq!(snap.counters["io.retries"], io.retries);
    assert_eq!(snap.counters["io.corruption_detected"], io.corruption_detected);
    assert_eq!(snap.counters["io.write_slowdowns"], io.write_slowdowns);
    assert_eq!(snap.counters["io.write_stalls"], io.write_stalls);
    assert!(io.total_written_blocks() > 0, "the device was counted");

    assert_eq!(
        db.cache_stats(),
        Some((snap.counters["cache.hits"], snap.counters["cache.misses"]))
    );

    if db.config().background == BackgroundMode::Inline {
        assert_eq!(names(&snap.counters), COUNTERS);
        assert_eq!(names(&snap.gauges), GAUGES);
        assert_eq!(names(&snap.histograms), HISTOGRAMS);
    }
}

/// Every start event must have exactly one matching end with the same id
/// and, for compactions, self-consistent accounting.
fn check_pairing(events: &[Event]) {
    let mut flush_starts: HashMap<u64, u64> = HashMap::new();
    let mut compaction_starts: HashMap<u64, (u32, u32, u64, u64, u64)> = HashMap::new();
    for e in events {
        match &e.kind {
            EventKind::FlushStart { id, entries } => {
                assert!(
                    flush_starts.insert(*id, *entries).is_none(),
                    "flush id {id} started twice"
                );
            }
            EventKind::FlushEnd { id, entries, .. } => {
                let started = flush_starts
                    .remove(id)
                    .unwrap_or_else(|| panic!("flush end {id} without start"));
                assert_eq!(started, *entries, "flush {id}: entry count changed");
            }
            EventKind::CompactionStart {
                id,
                level,
                target,
                input_tables,
                input_entries,
                input_bytes,
            } => {
                assert!(
                    compaction_starts
                        .insert(*id, (*level, *target, *input_tables, *input_entries, *input_bytes))
                        .is_none(),
                    "compaction id {id} started twice"
                );
            }
            EventKind::CompactionEnd {
                id,
                level,
                target,
                input_tables,
                input_entries,
                input_bytes,
                entries_written,
                tombstones_dropped,
                versions_dropped,
                ..
            } => {
                let started = compaction_starts
                    .remove(id)
                    .unwrap_or_else(|| panic!("compaction end {id} without start"));
                assert_eq!(
                    started,
                    (*level, *target, *input_tables, *input_entries, *input_bytes),
                    "compaction {id}: start/end disagree on inputs"
                );
                assert_eq!(
                    entries_written + tombstones_dropped + versions_dropped,
                    *input_entries,
                    "compaction {id}: entries are not conserved"
                );
            }
            _ => {}
        }
    }
    assert!(flush_starts.is_empty(), "unmatched flush starts: {flush_starts:?}");
    assert!(
        compaction_starts.is_empty(),
        "unmatched compaction starts: {compaction_starts:?}"
    );
}

#[test]
fn flush_and_compaction_events_pair_with_conserved_accounting() {
    let db = Db::open_in_memory(LsmConfig {
        // large ring: the accounting check needs the complete trace
        event_ring_capacity: 1 << 16,
        ..small()
    })
    .unwrap();
    mixed_workload(&db);
    db.major_compact().unwrap();
    let events = db.drain_events();
    assert_eq!(db.events_dropped(), 0, "ring overflowed; accounting would be partial");
    assert!(
        events.iter().any(|e| matches!(e.kind, EventKind::CompactionEnd { .. })),
        "workload produced no compactions"
    );
    check_pairing(&events);
    // seqs are strictly increasing and gap-free when nothing was dropped
    for w in events.windows(2) {
        assert_eq!(w[0].seq + 1, w[1].seq, "seq gap without drops");
    }
}

#[test]
fn threaded_pairing_holds_after_background_quiescence() {
    let db = Db::open_in_memory(LsmConfig {
        background: BackgroundMode::Threaded,
        background_workers: 2,
        event_ring_capacity: 1 << 16,
        ..small()
    })
    .unwrap();
    mixed_workload(&db);
    db.wait_background_idle();
    drop(db.clone()); // exercise handle cloning alongside the trace
    let events = db.drain_events();
    check_pairing(&events);
}

#[test]
fn backpressure_events_are_ordered_slowdown_then_stall_then_exit() {
    let db = Db::open_in_memory(LsmConfig {
        background: BackgroundMode::Threaded,
        background_workers: 2,
        buffer_bytes: 2 << 10,
        block_size: 512,
        target_table_bytes: 8 << 10,
        l0_run_cap: 2,
        l0_slowdown_runs: 3,
        l0_stall_runs: 5,
        event_ring_capacity: 1 << 16,
        ..LsmConfig::default()
    })
    .unwrap();
    // Seed then hold compaction so flushes pile runs into L0 and the
    // writer must climb slowdown (3 runs) into a stall (5 runs).
    for i in 0..200u32 {
        db.put(key(i), value(i, 592)).unwrap();
    }
    db.wait_background_idle();
    db.pause_compaction();
    let writer = {
        let db = db.clone();
        std::thread::spawn(move || {
            for i in 1000..1040u32 {
                db.put(key(i), value(i, 592)).unwrap();
            }
        })
    };
    // wait until the writer has entered the L0 stall band. L0 reaching 5
    // runs is not enough: resumed compaction can drain it before the
    // writer's next put looks, and then no StallEnter is ever emitted
    let mut events = Vec::new();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while !events.iter().any(|e: &Event| {
        matches!(e.kind, EventKind::StallEnter { reason: StallReason::L0, .. })
    }) {
        assert!(std::time::Instant::now() < deadline, "writer never stalled");
        std::thread::sleep(std::time::Duration::from_millis(2));
        events.extend(db.drain_events());
    }
    db.resume_compaction();
    writer.join().unwrap();
    db.wait_background_idle();
    // the band is reconciled on the write path only: if the writer's last
    // put still saw the slowdown band, one write after the drain lets the
    // walker see the drained L0 and emit the SlowdownExit
    db.put(key(2000), value(2000, 592)).unwrap();

    events.extend(db.drain_events());
    let l0_marks: Vec<&Event> = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::SlowdownEnter { .. }
                    | EventKind::SlowdownExit { .. }
                    | EventKind::StallEnter { reason: StallReason::L0, .. }
                    | EventKind::StallExit { reason: StallReason::L0, .. }
            )
        })
        .collect();
    let slowdown = l0_marks
        .iter()
        .position(|e| matches!(e.kind, EventKind::SlowdownEnter { .. }))
        .expect("no SlowdownEnter in trace");
    let stall_in = l0_marks
        .iter()
        .position(|e| matches!(e.kind, EventKind::StallEnter { .. }))
        .expect("no StallEnter in trace");
    let stall_out = l0_marks
        .iter()
        .position(|e| matches!(e.kind, EventKind::StallExit { .. }))
        .expect("no StallExit in trace");
    assert!(
        slowdown < stall_in && stall_in < stall_out,
        "backpressure events out of order: slowdown@{slowdown} stall_in@{stall_in} stall_out@{stall_out}"
    );
    // enters and exits balance: the band walker keeps them well-nested
    let mut depth: i64 = 0;
    for e in &l0_marks {
        match e.kind {
            EventKind::SlowdownEnter { .. } | EventKind::StallEnter { .. } => depth += 1,
            EventKind::SlowdownExit { .. } | EventKind::StallExit { .. } => depth -= 1,
            _ => unreachable!(),
        }
        assert!((0..=2).contains(&depth), "band depth {depth} out of range");
    }
    assert_eq!(depth, 0, "unbalanced backpressure enters/exits");
}

#[test]
fn counters_never_go_backwards_across_background_flushes() {
    let db = Db::open_in_memory(LsmConfig {
        background: BackgroundMode::Threaded,
        background_workers: 2,
        ..small()
    })
    .unwrap();
    let mut prev = db.metrics();
    for round in 0..6u32 {
        for i in 0..600u32 {
            db.put(key(round * 1000 + i), value(i, 30)).unwrap();
        }
        let cur = db.metrics();
        for (name, &was) in &prev.counters {
            let now = cur.counters.get(name).copied().unwrap_or_else(|| {
                panic!("round {round}: counter {name} vanished")
            });
            assert!(now >= was, "round {round}: counter {name} went backwards ({was} -> {now})");
        }
        for (name, hist) in &prev.histograms {
            let now = &cur.histograms[name];
            assert!(now.count >= hist.count, "round {round}: histogram {name} shrank");
        }
        // the shared delta implementation: reverse deltas are all-zero
        let backwards = prev.delta_since(&cur);
        assert!(
            backwards.counters.values().all(|&v| v == 0),
            "round {round}: reverse delta has nonzero counters"
        );
        // and forward deltas recompose: prev + delta == cur (counters)
        let delta = cur.delta_since(&prev);
        for (name, &d) in &delta.counters {
            assert_eq!(
                prev.counters.get(name).copied().unwrap_or(0) + d,
                cur.counters[name],
                "counter {name} delta does not recompose"
            );
        }
        prev = cur;
    }
    db.wait_background_idle();
}

#[test]
fn wal_rotation_and_recovery_steps_appear_in_the_trace() {
    let device: Arc<dyn StorageDevice> =
        Arc::new(MemDevice::new(512, DeviceProfile::free()));
    {
        let db = Db::open(Arc::clone(&device), small()).unwrap();
        for i in 0..2000u32 {
            db.put(key(i), value(i, 20)).unwrap();
        }
        let events = db.drain_events();
        assert!(
            events.iter().any(|e| matches!(e.kind, EventKind::WalRotation { .. })),
            "flushes rotated no WAL"
        );
        for e in &events {
            if let EventKind::WalRotation { old_wal, new_wal, old_records } = e.kind {
                assert_ne!(old_wal, new_wal, "rotation kept the same WAL file");
                assert!(old_records > 0, "sealed WAL was empty");
            }
        }
        db.sync().unwrap();
    }
    // reopen: recovery emits structured steps for the manifest and WALs
    let db = Db::open(device, small()).unwrap();
    let events = db.drain_events();
    let steps: Vec<&'static str> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::RecoveryStep { step, .. } => Some(*step),
            _ => None,
        })
        .collect();
    assert!(steps.contains(&"manifest_loaded"), "no manifest_loaded step in {steps:?}");
    assert!(steps.contains(&"wal_replayed"), "no wal_replayed step in {steps:?}");
    // recovered data intact
    for i in (0..2000u32).step_by(211) {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i, 20)));
    }
}

#[test]
fn event_ring_bounds_memory_and_counts_drops() {
    let db = Db::open_in_memory(LsmConfig {
        event_ring_capacity: 8,
        ..small()
    })
    .unwrap();
    mixed_workload(&db);
    let events = db.drain_events();
    assert!(events.len() <= 8, "ring exceeded its capacity");
    assert!(db.events_dropped() > 0, "workload should have overflowed an 8-slot ring");
    // seqs still strictly increase; the gap equals the drop count
    for w in events.windows(2) {
        assert!(w[0].seq < w[1].seq);
    }
}
