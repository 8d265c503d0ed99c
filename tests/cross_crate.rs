//! Cross-crate integration tests: the umbrella crate's public API, the
//! workload generator driving the engine, and the analytical models
//! agreeing with measured engine behaviour on direction.

use lsm_design_space::core::{BackgroundMode, Db, LsmConfig, MergeLayout, RangeFilterKind};
use lsm_design_space::model::{CostModel, LsmDesign, MergePolicy};
use lsm_design_space::workload::{Operation, Trace, WorkloadGenerator, WorkloadSpec, YcsbWorkload};

fn drive(db: &Db, ops: impl IntoIterator<Item = Operation>) {
    for op in ops {
        match op {
            Operation::Put { key, value } => db.put(key, value).unwrap(),
            Operation::Get { key } => {
                db.get(&key).unwrap();
            }
            Operation::Scan { start, limit } => {
                let mut end = start.clone();
                end.extend_from_slice(b"\xff\xff");
                db.scan(start..end, limit).unwrap();
            }
            Operation::Delete { key } => db.delete(key).unwrap(),
            Operation::ReadModifyWrite { key, value } => {
                db.get(&key).unwrap();
                db.put(key, value).unwrap();
            }
        }
    }
}

/// The quickstart, through the umbrella crate: put, get and delete one
/// key; a bulk load that flushes and compacts into a multi-level tree
/// and writes more than it ingests; a point lookup and a range scan over
/// it.
#[test]
fn umbrella_crate_quickstart_flow() {
    let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
    db.put(b"hello".to_vec(), b"world".to_vec()).unwrap();
    assert_eq!(db.get(b"hello").unwrap(), Some(b"world".to_vec()));
    db.delete(b"hello".to_vec()).unwrap();
    assert_eq!(db.get(b"hello").unwrap(), None);

    for i in 0..5_000u64 {
        let value = format!("profile-data-for-user-{i}").into_bytes();
        db.put(format!("user{i:012}").into_bytes(), value).unwrap();
    }
    db.wait_background_idle();
    let s = db.stats().snapshot();
    assert!(s.flushes >= 10 && s.compactions > 0, "{} flushes, {} compactions", s.flushes, s.compactions);
    let levels = db.level_summary().iter().filter(|(runs, _, _)| *runs > 0).count();
    assert!(levels >= 2, "a 5,000-key load leaves {levels} occupied level(s)");
    let written = db.io_stats().total_written_blocks() * db.config().block_size as u64;
    assert!(written > s.bytes_ingested, "write amplification below 1: {written} / {}", s.bytes_ingested);

    assert_eq!(db.get(b"user000000004200").unwrap(), Some(b"profile-data-for-user-4200".to_vec()));
    let page = db.scan(b"user000000001000".to_vec()..b"user000000001010".to_vec(), 100).unwrap();
    let keys: Vec<_> = (1_000..1_010).map(|i| format!("user{i:012}").into_bytes()).collect();
    assert_eq!(page.into_iter().map(|(k, _)| k).collect::<Vec<_>>(), keys);
}

/// A time-series ingest (strictly increasing keys) on a tiered tree with
/// a range filter: a recent-window scan returns exactly its window, and
/// retention — deleting the oldest half, then a major compaction —
/// garbage-collects every tombstone and leaves only the recent half.
#[test]
fn a_time_series_keeps_its_recent_window_through_retention() {
    let key = |ts: u64, sensor: u16| format!("m{ts:012}s{sensor:04}").into_bytes();
    let cfg = LsmConfig {
        layout: MergeLayout::Tiered,
        range_filter: RangeFilterKind::Surf { suffix_bits: 8 },
        ..LsmConfig::small_for_tests()
    };
    let db = Db::open_in_memory(cfg).unwrap();
    let (hours, sensors) = (4u64, 8u16);
    for ts in (0..hours * 3600).step_by(60) {
        for sensor in 0..sensors {
            db.put(key(ts, sensor), format!("{{\"v\":{}.{sensor}}}", ts % 100).into_bytes()).unwrap();
        }
    }
    let points = hours * 60 * u64::from(sensors);
    assert_eq!(db.stats().snapshot().puts, points);
    assert!(db.stats().snapshot().flushes > 0);

    // the last ten minutes: ten timestamps, every sensor
    let end = hours * 3600;
    let window = db.scan(key(end - 600, 0)..key(end, 0), usize::MAX).unwrap();
    assert_eq!(window.len(), 10 * usize::from(sensors));

    let expired = db.scan(key(0, 0)..key(end / 2, 0), usize::MAX).unwrap();
    assert_eq!(expired.len() as u64, points / 2);
    for (k, _) in &expired {
        db.delete(k.clone()).unwrap();
    }
    db.major_compact().unwrap();
    assert_eq!(db.stats().snapshot().tombstones_dropped, points / 2, "every tombstone is garbage-collected");
    assert!(db.scan(key(0, 0)..key(end / 2, 0), 10).unwrap().is_empty());
    let remaining = db.scan(key(0, 0)..key(u64::MAX / 2, 0), usize::MAX).unwrap();
    assert_eq!(remaining.len() as u64, points / 2);
    assert_eq!(db.scan(key(end - 600, 0)..key(end, 0), usize::MAX).unwrap(), window);
}

#[test]
fn every_ycsb_preset_runs_against_the_engine() {
    for preset in YcsbWorkload::ALL {
        let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
        // load phase
        let load = WorkloadGenerator::new(WorkloadSpec {
            key_space: 2000,
            mix: lsm_design_space::workload::OpMix::write_only(),
            value_len: 32,
            seed: 1,
            ..WorkloadSpec::default()
        })
        .take(2000);
        drive(&db, load);
        // run phase
        let run = WorkloadGenerator::new(preset.spec(2000, 2)).take(3000);
        drive(&db, run);
        let s = db.stats().snapshot();
        assert!(s.puts + s.gets + s.scans >= 3000, "preset {}", preset.label());
    }
}

#[test]
fn identical_traces_give_identical_io_on_identical_configs() {
    let trace = Trace::record(
        WorkloadSpec {
            key_space: 3000,
            mix: lsm_design_space::workload::OpMix {
                insert: 0.5,
                update: 0.1,
                read: 0.3,
                scan: 0.05,
                delete: 0.05,
                rmw: 0.0,
            },
            value_len: 48,
            seed: 99,
            ..WorkloadSpec::default()
        },
        8000,
    );
    let run = || {
        // determinism is an `Inline`-mode guarantee: with threaded
        // maintenance, flush timing (and hence I/O counts) depends on
        // scheduling
        let cfg = LsmConfig {
            background: BackgroundMode::Inline,
            ..LsmConfig::small_for_tests()
        };
        let db = Db::open_in_memory(cfg).unwrap();
        drive(&db, trace.clone());
        (
            db.io_stats().total_read_blocks(),
            db.io_stats().total_written_blocks(),
            db.stats().snapshot().compactions,
        )
    };
    assert_eq!(run(), run(), "engine must be deterministic");
}

#[test]
fn model_and_engine_agree_on_write_cost_direction() {
    // the model says tiering writes less than leveling; verify the engine
    let measure = |layout: MergeLayout| {
        let cfg = LsmConfig {
            layout,
            wal: false,
            cache_bytes: 0,
            // deterministic shapes: worker timing decides which merges
            // complete, which would blur the leveled/tiered comparison
            background: BackgroundMode::Inline,
            ..LsmConfig::small_for_tests()
        };
        let db = Db::open_in_memory(cfg).unwrap();
        for i in 0..20_000u32 {
            let id = (i as u64 * 2654435761 % 20_000) as u32;
            db.put(format!("user{id:010}").into_bytes(), vec![7u8; 48]).unwrap();
        }
        db.io_stats().total_written_blocks()
    };
    let measured_leveled = measure(MergeLayout::Leveled);
    let measured_tiered = measure(MergeLayout::Tiered);

    let model = |policy: MergePolicy| {
        CostModel::new(
            LsmDesign {
                policy,
                size_ratio: 4,
                buffer_entries: 64,
                bits_per_key: 10.0,
                monkey: false,
            },
            5000,
            8,
        )
        .write_cost()
    };
    let model_leveled = model(MergePolicy::Leveling);
    let model_tiered = model(MergePolicy::Tiering);

    assert!(model_tiered < model_leveled, "model direction");
    assert!(
        measured_tiered < measured_leveled,
        "measured direction: tiered {measured_tiered} vs leveled {measured_leveled}"
    );
}

#[test]
fn model_and_engine_agree_on_lookup_cost_direction() {
    // the model says more runs (tiering) = more zero-result probes when
    // filters are off; verify with the engine
    let measure = |layout: MergeLayout| {
        let cfg = LsmConfig {
            layout,
            filter: lsm_design_space::core::FilterKind::None,
            wal: false,
            cache_bytes: 0,
            // deterministic shapes: the run count each probe touches is
            // exactly what the cost model predicts only when maintenance
            // runs inline
            background: BackgroundMode::Inline,
            ..LsmConfig::small_for_tests()
        };
        let db = Db::open_in_memory(cfg).unwrap();
        for i in 0..20_000u32 {
            let id = (i as u64 * 2654435761 % 20_000) as u32;
            db.put(format!("user{id:010}").into_bytes(), vec![7u8; 48]).unwrap();
        }
        let io0 = db.io_stats().total_read_blocks();
        for i in 0..500u32 {
            let probe = format!("user{:010}x", i * 7 % 20_000);
            db.get(probe.as_bytes()).unwrap();
        }
        db.io_stats().total_read_blocks() - io0
    };
    let leveled = measure(MergeLayout::Leveled);
    let tiered = measure(MergeLayout::Tiered);
    assert!(
        tiered > leveled,
        "tiered zero-result reads {tiered} must exceed leveled {leveled}"
    );
}

#[test]
fn filters_crate_composes_with_engine_tables() {
    // build an engine with each advanced filter and make sure the stats
    // show the filters actually pruning
    for filter in [
        lsm_design_space::core::FilterKind::Xor,
        lsm_design_space::core::FilterKind::Ribbon,
    ] {
        let cfg = LsmConfig {
            filter,
            wal: false,
            ..LsmConfig::small_for_tests()
        };
        let db = Db::open_in_memory(cfg).unwrap();
        for i in 0..3000u32 {
            db.put(format!("user{i:010}").into_bytes(), vec![1u8; 32]).unwrap();
        }
        for i in 0..500u32 {
            let probe = format!("user{:010}x", i * 5);
            db.get(probe.as_bytes()).unwrap();
        }
        assert!(
            db.stats().snapshot().filter_prunes > 200,
            "{filter:?} never pruned"
        );
    }
}

/// DESIGN.md's knob table maps every config field to the claim, ledger
/// metric or test that sees it; a field added without a row fails here,
/// and so does an unprefixed row whose field is gone.
#[test]
fn every_config_field_has_a_knob_table_row() {
    let design = include_str!("../DESIGN.md");
    let (_, rest) = design.split_once("\n## Knob table\n").expect("DESIGN.md has a knob table");
    let table = rest.split("\n## ").next().unwrap();
    let configs = [
        format!("{:#?}", LsmConfig::default()),
        format!("{:#?}", lsm_server::ServerConfig::default()),
    ];
    // `{:#?}` prints a struct's own fields at exactly one indent level;
    // deeper lines still start with a space after the strip
    let fields: Vec<&str> = configs
        .iter()
        .flat_map(|c| c.lines())
        .filter_map(|l| {
            let name = l.strip_prefix("    ")?.split_once(": ")?.0;
            name.starts_with(|c: char| c.is_ascii_lowercase()).then_some(name)
        })
        .collect();
    assert!(fields.contains(&"block_size") && fields.contains(&"pipeline_depth"), "{fields:?}");
    let missing: Vec<&str> =
        fields.iter().copied().filter(|f| !table.contains(&format!("\n| `{f}` |"))).collect();
    assert!(missing.is_empty(), "config fields without a row in DESIGN.md's knob table: {missing:?}");
    // and the reverse: an unprefixed row names a field that still exists
    let stale: Vec<&str> = table
        .lines()
        .filter_map(|l| l.strip_prefix("| `")?.split_once("` |").map(|(name, _)| name))
        .filter(|name| name.chars().all(|c| c.is_ascii_lowercase() || c == '_'))
        .filter(|name| !fields.contains(name))
        .collect();
    assert!(stale.is_empty(), "knob-table rows naming no config field: {stale:?}");
}
