//! End-to-end engine tests across the design space: every layout, filter,
//! index, granularity, and extension must serve exactly the same data.

use std::sync::Arc;

use lsm_core::config::KvSeparation;
use lsm_core::kv_sep::ValueLog;
use lsm_core::{
    BackgroundMode, CachePolicy, CompactionGranularity, Db, FilePicker, FilterAllocation,
    FilterKind, IndexKind, LsmConfig, MergeLayout, RangeFilterKind, WriteBatch,
};
use lsm_storage::{DeviceProfile, IoCategory, MemDevice, StorageDevice};

fn key(i: u32) -> Vec<u8> {
    format!("user{i:010}").into_bytes()
}

fn value(i: u32) -> Vec<u8> {
    format!("payload-{i:06}-{}", "x".repeat(40)).into_bytes()
}

/// Loads n keys (scattered insertion order), returns the db quiesced:
/// these tests assert steady-state shapes and I/O counts, so in-flight
/// background maintenance must land first (no-op in `Inline` mode).
fn load(cfg: LsmConfig, n: u32) -> Db {
    let db = Db::open_in_memory(cfg).unwrap();
    for i in 0..n {
        let id = (i as u64 * 2654435761 % n as u64) as u32;
        db.put(key(id), value(id)).unwrap();
    }
    db.wait_background_idle();
    db
}

/// `small_for_tests` pinned to `Inline` maintenance. Comparative
/// design-space tests assert relative I/O between two configurations;
/// that comparison is only meaningful when tree shapes are deterministic,
/// so those tests opt out of the `LSM_BACKGROUND` override.
fn inline_small_for_tests() -> LsmConfig {
    LsmConfig {
        background: lsm_core::BackgroundMode::Inline,
        ..LsmConfig::small_for_tests()
    }
}

fn check_all_present(db: &Db, n: u32, step: usize) {
    for i in (0..n).step_by(step) {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i)), "key {i}");
    }
}

#[test]
fn every_layout_serves_identical_data() {
    let n = 4000;
    for layout in [
        MergeLayout::Leveled,
        MergeLayout::Tiered,
        MergeLayout::LazyLeveled,
        MergeLayout::Hybrid(vec![3, 2, 1]),
    ] {
        let cfg = LsmConfig {
            layout: layout.clone(),
            ..LsmConfig::small_for_tests()
        };
        let db = load(cfg, n);
        check_all_present(&db, n, 7);
        assert_eq!(db.get(b"user_nonexistent").unwrap(), None);
        // layout shape sanity
        let summary = db.level_summary();
        match layout {
            MergeLayout::Leveled => {
                for (i, (runs, _, _)) in summary.iter().enumerate().skip(1) {
                    assert!(*runs <= 1, "leveled L{i} has {runs} runs");
                }
            }
            MergeLayout::Tiered => {
                assert!(
                    summary.iter().map(|(r, _, _)| r).sum::<usize>() >= 2,
                    "tiered tree should hold multiple runs: {summary:?}"
                );
            }
            _ => {}
        }
    }
}

#[test]
fn tiering_writes_less_reads_more_than_leveling() {
    let n = 6000;
    let run = |layout: MergeLayout| {
        let cfg = LsmConfig {
            layout,
            cache_bytes: 0, // measure raw I/O
            wal: false,
            ..inline_small_for_tests()
        };
        let db = load(cfg, n);
        let written = db.io_stats().total_written_blocks();
        // zero-result lookups (keys outside the inserted id space)
        let io_before = db.io_stats().total_read_blocks();
        for i in 0..500u32 {
            let probe = format!("user99{:08}", i);
            let _ = db.get(probe.as_bytes()).unwrap();
        }
        let read = db.io_stats().total_read_blocks() - io_before;
        let runs = db.total_runs();
        (written, read, runs)
    };
    let (w_lev, _r_lev, runs_lev) = run(MergeLayout::Leveled);
    let (w_tier, _r_tier, runs_tier) = run(MergeLayout::Tiered);
    assert!(
        w_tier < w_lev,
        "tiering must write less: {w_tier} vs {w_lev} blocks"
    );
    assert!(
        runs_tier > runs_lev,
        "tiering must keep more runs: {runs_tier} vs {runs_lev}"
    );
}

#[test]
fn bloom_filters_cut_zero_result_io() {
    let n = 5000;
    let run = |bits: f64| {
        let cfg = LsmConfig {
            bits_per_key: bits,
            filter: if bits == 0.0 { FilterKind::None } else { FilterKind::Bloom },
            cache_bytes: 0,
            wal: false,
            ..LsmConfig::small_for_tests()
        };
        let db = load(cfg, n);
        let before = db.io_stats().category(IoCategory::Data).read_blocks;
        for i in 0..1000u32 {
            let probe = format!("zzz{i:08}x");
            let _ = db.get(probe.as_bytes()).unwrap();
        }
        // probes beyond the key range are pruned by fences; use in-range
        // absent keys instead
        for i in 0..1000u32 {
            let probe = format!("user{:010}x", i % n);
            let _ = db.get(probe.as_bytes()).unwrap();
        }
        db.io_stats().category(IoCategory::Data).read_blocks - before
    };
    let io_none = run(0.0);
    let io_bloom = run(10.0);
    assert!(
        io_bloom * 4 < io_none,
        "filters should cut ≥4x: {io_bloom} vs {io_none}"
    );
}

#[test]
fn all_filter_kinds_work_end_to_end() {
    let n = 2000;
    for filter in [
        FilterKind::Bloom,
        FilterKind::BlockedBloom,
        FilterKind::Cuckoo,
        FilterKind::Xor,
        FilterKind::Ribbon,
        FilterKind::None,
    ] {
        let cfg = LsmConfig {
            filter,
            ..LsmConfig::small_for_tests()
        };
        let db = load(cfg, n);
        check_all_present(&db, n, 13);
    }
}

#[test]
fn partitioned_filters_serve_identical_data_with_no_resident_memory() {
    let n = 4000;
    let mono = load(LsmConfig::small_for_tests(), n);
    let part = load(
        LsmConfig {
            partitioned_filters: true,
            ..LsmConfig::small_for_tests()
        },
        n,
    );
    check_all_present(&part, n, 11);
    assert_eq!(part.get(b"user_nonexistent").unwrap(), None);
    // resident filter memory: monolithic pins per-table filters, the
    // partitioned engine pins none
    assert!(mono.total_filter_bits() > 0);
    assert_eq!(part.total_filter_bits(), 0);
    // partitions still prune zero-result lookups
    for i in 0..400u32 {
        let probe = format!("user{:010}x", i * 7 % n);
        part.get(probe.as_bytes()).unwrap();
    }
    assert!(
        part.stats().snapshot().filter_prunes > 300,
        "partitions never pruned: {}",
        part.stats().snapshot().filter_prunes
    );
}

#[test]
fn partitioned_filters_with_learned_index() {
    let n = 3000;
    let cfg = LsmConfig {
        partitioned_filters: true,
        index: IndexKind::Pla { epsilon: 4 },
        ..LsmConfig::small_for_tests()
    };
    let db = load(cfg, n);
    check_all_present(&db, n, 13);
}

#[test]
fn all_index_kinds_work_end_to_end() {
    let n = 2000;
    for index in [
        IndexKind::Fence,
        IndexKind::Sparse { rate: 4 },
        IndexKind::Pla { epsilon: 8 },
    ] {
        let cfg = LsmConfig {
            index,
            ..LsmConfig::small_for_tests()
        };
        let db = load(cfg, n);
        check_all_present(&db, n, 13);
    }
}

#[test]
fn learned_index_uses_less_memory() {
    let n = 8000;
    let fence_db = load(
        LsmConfig {
            index: IndexKind::Fence,
            ..LsmConfig::small_for_tests()
        },
        n,
    );
    let pla_db = load(
        LsmConfig {
            index: IndexKind::Pla { epsilon: 8 },
            ..LsmConfig::small_for_tests()
        },
        n,
    );
    assert!(
        pla_db.total_index_bits() * 2 < fence_db.total_index_bits(),
        "pla {} vs fence {}",
        pla_db.total_index_bits(),
        fence_db.total_index_bits()
    );
}

#[test]
fn monkey_allocation_beats_uniform_on_zero_result_lookups() {
    let n = 12_000;
    let run = |alloc: FilterAllocation| {
        let cfg = LsmConfig {
            filter_allocation: alloc,
            bits_per_key: 5.0, // tight budget makes the difference visible
            cache_bytes: 0,
            wal: false,
            ..inline_small_for_tests()
        };
        let db = load(cfg, n);
        db.compact().unwrap();
        let before = db.io_stats().category(IoCategory::Data).read_blocks;
        for i in 0..4000u32 {
            let probe = format!("user{:010}x", i % n);
            let _ = db.get(probe.as_bytes()).unwrap();
        }
        db.io_stats().category(IoCategory::Data).read_blocks - before
    };
    let uniform = run(FilterAllocation::Uniform);
    let monkey = run(FilterAllocation::Monkey);
    assert!(
        monkey <= uniform,
        "monkey {monkey} blocks vs uniform {uniform}"
    );
}

#[test]
fn partial_compaction_all_pickers() {
    let n = 5000;
    for picker in FilePicker::ALL {
        let cfg = LsmConfig {
            granularity: CompactionGranularity::Partial(picker),
            target_table_bytes: 4 << 10,
            ..LsmConfig::small_for_tests()
        };
        let db = load(cfg, n);
        check_all_present(&db, n, 17);
        // deletions still work through partial merges
        for i in (0..n).step_by(50) {
            db.delete(key(i)).unwrap();
        }
        db.flush().unwrap();
        for i in (0..n).step_by(50) {
            assert_eq!(db.get(&key(i)).unwrap(), None, "{:?} key {i}", picker);
        }
    }
}

#[test]
fn scans_match_reference_model() {
    use std::collections::BTreeMap;
    let cfg = LsmConfig::small_for_tests();
    let db = Db::open_in_memory(cfg).unwrap();
    let mut model = BTreeMap::new();
    // interleaved puts, overwrites, deletes
    for i in 0..3000u32 {
        let id = (i * 7919) % 1000;
        if i % 11 == 3 {
            db.delete(key(id)).unwrap();
            model.remove(&key(id));
        } else {
            let v = format!("v{i}").into_bytes();
            db.put(key(id), v.clone()).unwrap();
            model.insert(key(id), v);
        }
    }
    for (lo, hi) in [(0u32, 100u32), (250, 260), (900, 1100), (500, 500)] {
        let got = db.scan(key(lo)..key(hi), 10_000).unwrap();
        let expect: Vec<(Vec<u8>, Vec<u8>)> = model
            .range(key(lo)..key(hi))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        assert_eq!(got, expect, "range {lo}..{hi}");
    }
}

#[test]
fn range_filters_prune_scan_io() {
    let n = 4000;
    let run = |rf: RangeFilterKind| {
        let cfg = LsmConfig {
            range_filter: rf,
            layout: MergeLayout::Tiered, // many runs → many prune chances
            cache_bytes: 0,
            wal: false,
            ..LsmConfig::small_for_tests()
        };
        let db = load(cfg, n);
        // short scans in empty gaps: keys are dense, so scan between keys
        let before = db.io_stats().category(IoCategory::Data).read_blocks;
        for i in 0..300u32 {
            let lo = format!("user{:010}a", i * 7 % n); // just past a real key
            let hi = format!("user{:010}zz", i * 7 % n); // before the next
            let got = db.scan(lo.into_bytes()..hi.into_bytes(), 10).unwrap();
            assert!(got.is_empty());
        }
        let io = db.io_stats().category(IoCategory::Data).read_blocks - before;
        let prunes = db.stats().snapshot().range_filter_prunes;
        (io, prunes)
    };
    let (io_none, _) = run(RangeFilterKind::None);
    let (io_surf, prunes_surf) = run(RangeFilterKind::Surf { suffix_bits: 8 });
    assert!(prunes_surf > 0, "surf never pruned");
    assert!(io_surf <= io_none, "surf io {io_surf} vs none {io_none}");
}

#[test]
fn cache_reduces_repeat_read_io() {
    let n = 3000;
    let cfg = LsmConfig {
        cache_bytes: 4 << 20,
        cache_policy: CachePolicy::Lru,
        wal: false,
        ..LsmConfig::small_for_tests()
    };
    let db = load(cfg, n);
    db.compact().unwrap();
    // quiesce: a background compaction landing between the two passes
    // would invalidate the blocks the first pass warmed
    db.wait_background_idle();
    // first pass faults blocks in, second pass should hit
    for i in (0..n).step_by(3) {
        db.get(&key(i)).unwrap();
    }
    let before = db.io_stats().category(IoCategory::Data).read_blocks;
    for i in (0..n).step_by(3) {
        db.get(&key(i)).unwrap();
    }
    let second_pass = db.io_stats().category(IoCategory::Data).read_blocks - before;
    assert_eq!(second_pass, 0, "warm reads must not touch the device");
    let (hits, _misses) = db.cache_stats().unwrap();
    assert!(hits > 0);
}

#[test]
fn recovery_restores_visible_state() {
    let device: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(512, DeviceProfile::free()));
    let cfg = LsmConfig::small_for_tests();
    {
        let db = Db::open(Arc::clone(&device), cfg.clone()).unwrap();
        for i in 0..2000u32 {
            db.put(key(i), value(i)).unwrap();
        }
        for i in (0..2000u32).step_by(10) {
            db.delete(key(i)).unwrap();
        }
        // a few unflushed writes stay in the memtable (and WAL)
        db.put(b"tail1".to_vec(), b"t1".to_vec()).unwrap();
        db.put(b"tail2".to_vec(), b"t2".to_vec()).unwrap();
        // drop without explicit flush — WAL must carry the tail
    }
    let db = Db::open(device, cfg).unwrap();
    for i in (1..2000u32).step_by(7) {
        let expect = if i % 10 == 0 { None } else { Some(value(i)) };
        assert_eq!(db.get(&key(i)).unwrap(), expect, "key {i}");
    }
    // WAL-tail records survive at block granularity; the engine syncs the
    // WAL at open, so everything written before the reopen is durable
    assert_eq!(db.get(b"tail1").unwrap(), Some(b"t1".to_vec()));
}

#[test]
fn recovery_is_idempotent_across_many_reopens() {
    let device: Arc<dyn StorageDevice> = Arc::new(MemDevice::new(512, DeviceProfile::free()));
    let cfg = LsmConfig::small_for_tests();
    for round in 0..5u32 {
        let db = Db::open(Arc::clone(&device), cfg.clone()).unwrap();
        // everything from earlier rounds is visible
        for r in 0..round {
            for i in (0..200u32).step_by(19) {
                assert_eq!(
                    db.get(&format!("r{r}-k{i:05}").into_bytes()).unwrap(),
                    Some(format!("r{r}-v{i}").into_bytes()),
                    "round {round}, lost r{r}-k{i}"
                );
            }
        }
        for i in 0..200u32 {
            db.put(
                format!("r{round}-k{i:05}").into_bytes(),
                format!("r{round}-v{i}").into_bytes(),
            )
            .unwrap();
        }
    }
}

#[test]
fn kv_separation_reduces_write_amp_for_large_values() {
    let n = 800u32;
    let big_value = vec![0xEE; 1024];
    let run = |sep: Option<KvSeparation>| {
        let cfg = LsmConfig {
            kv_separation: sep,
            wal: false,
            cache_bytes: 0,
            ..LsmConfig::small_for_tests()
        };
        let db = Db::open_in_memory(cfg).unwrap();
        for i in 0..n {
            db.put(key(i % 200), big_value.clone()).unwrap(); // heavy updates
        }
        db.compact().unwrap();
        // correctness
        for i in 0..200u32 {
            assert_eq!(db.get(&key(i)).unwrap(), Some(big_value.clone()));
        }
        db.io_stats().total_written_blocks()
    };
    let plain = run(None);
    let separated = run(Some(KvSeparation {
        min_value_bytes: 256,
    }));
    assert!(
        separated < plain,
        "kv-sep should write less under update churn: {separated} vs {plain}"
    );
}

#[test]
fn value_log_gc_reclaims_dead_space() {
    let cfg = LsmConfig {
        kv_separation: Some(KvSeparation {
            min_value_bytes: 100,
        }),
        ..LsmConfig::small_for_tests()
    };
    let db = Db::open_in_memory(cfg).unwrap();
    let val = |i: u32, gen: u32| format!("gen{gen}-{}", "v".repeat(150 + i as usize % 7)).into_bytes();
    for i in 0..100u32 {
        db.put(key(i), val(i, 0)).unwrap();
    }
    // overwrite: generation 0 values become garbage
    for i in 0..100u32 {
        db.put(key(i), val(i, 1)).unwrap();
    }
    let (live, dead) = db.gc_value_log().unwrap();
    assert!(dead >= 90, "expected most gen-0 values dead: {dead}");
    assert!(live >= 90, "gen-1 values must be rewritten live: {live}");
    for i in 0..100u32 {
        assert_eq!(db.get(&key(i)).unwrap(), Some(val(i, 1)), "key {i} after GC");
    }
}

/// Value-log GC over a log whose first record ends one byte short of its
/// block at a sync: the scan must take the zero closing that block for
/// padding, so every live value is rewritten before the old log goes.
#[test]
fn value_log_gc_keeps_every_value_after_a_record_one_byte_short_of_its_block() {
    let cfg = LsmConfig {
        kv_separation: Some(KvSeparation { min_value_bytes: 16 }),
        ..LsmConfig::small_for_tests()
    };
    let bs = cfg.block_size;
    // the record's bytes beyond its value, measured at a nearby size
    let probe = ValueLog::create(Arc::new(MemDevice::new(bs, DeviceProfile::free())))
        .unwrap()
        .append(b"k0", &[0; 400])
        .unwrap();
    let values = [vec![b'x'; bs - 1 - (probe.len as usize - 400)], vec![b'y'; 40], vec![b'z'; 40]];
    let db = Db::open_in_memory(cfg).unwrap();
    for (i, v) in values.iter().enumerate() {
        db.put(format!("k{i}").into_bytes(), v.clone()).unwrap();
        if i == 0 {
            db.sync().unwrap();
        }
    }
    assert_eq!(db.gc_value_log().unwrap(), (3, 0), "every record live, none dead");
    for (i, v) in values.iter().enumerate() {
        assert_eq!(db.get(format!("k{i}").as_bytes()).unwrap().as_ref(), Some(v), "k{i} after GC");
    }
}

#[test]
fn tombstones_are_purged_at_the_bottom() {
    let cfg = LsmConfig::small_for_tests();
    let db = Db::open_in_memory(cfg).unwrap();
    for i in 0..2000u32 {
        db.put(key(i), value(i)).unwrap();
    }
    for i in 0..2000u32 {
        db.delete(key(i)).unwrap();
    }
    db.major_compact().unwrap();
    let s = db.stats().snapshot();
    assert!(s.tombstones_dropped > 0, "no tombstone GC happened");
    for i in (0..2000u32).step_by(97) {
        assert_eq!(db.get(&key(i)).unwrap(), None);
    }
}

#[test]
fn space_amplification_shrinks_after_full_compaction() {
    let cfg = LsmConfig {
        wal: false,
        ..LsmConfig::small_for_tests()
    };
    let db = Db::open_in_memory(cfg).unwrap();
    // write the same 500 keys 6 times: ~6x space before compaction
    for _gen in 0..6 {
        for i in 0..500u32 {
            db.put(key(i), value(i)).unwrap();
        }
    }
    db.flush().unwrap();
    let before = db.device().live_blocks();
    db.compact().unwrap();
    // force a final major merge by compacting until quiescent (compact()
    // already loops); obsolete versions must be gone
    let s = db.stats().snapshot();
    assert!(s.versions_dropped > 0, "no obsolete versions dropped");
    let after = db.device().live_blocks();
    assert!(after <= before, "space grew: {after} vs {before}");
    check_all_present(&db, 500, 23);
}

#[test]
fn hybrid_layout_respects_run_caps() {
    let caps = vec![4usize, 2, 1];
    let cfg = LsmConfig {
        layout: MergeLayout::Hybrid(caps.clone()),
        ..LsmConfig::small_for_tests()
    };
    let db = load(cfg, 6000);
    let summary = db.level_summary();
    for (i, (runs, _, _)) in summary.iter().enumerate() {
        let cap = if i == 0 {
            LsmConfig::small_for_tests().l0_run_cap.max(caps[0])
        } else {
            caps.get(i).copied().unwrap_or(1)
        };
        assert!(*runs <= cap, "L{i}: {runs} runs > cap {cap} ({summary:?})");
    }
    check_all_present(&db, 6000, 31);
}

#[test]
fn hybrid_layout_installed_online_respects_run_caps() {
    let caps = vec![4usize, 2, 1];
    let cap_at = |i: usize| {
        if i == 0 {
            LsmConfig::small_for_tests().l0_run_cap.max(caps[0])
        } else {
            caps.get(i).copied().unwrap_or(1)
        }
    };
    // boot tiered, so some level holds more runs than the hybrid allows
    // (Inline: that starting shape has to be deterministic)
    let db = load(
        LsmConfig {
            layout: MergeLayout::Tiered,
            ..inline_small_for_tests()
        },
        4000,
    );
    let tiered = db.level_summary();
    assert!(
        tiered.iter().enumerate().any(|(i, (runs, _, _))| *runs > cap_at(i)),
        "the tiered tree already fits the hybrid caps: {tiered:?}"
    );
    db.set_config(LsmConfig {
        layout: MergeLayout::Hybrid(caps.clone()),
        ..(*db.effective_config()).clone()
    })
    .unwrap();
    for i in 0..6000 {
        let id = (i as u64 * 2654435761 % 6000) as u32;
        db.put(key(id), value(id)).unwrap();
    }
    db.compact().unwrap();
    let summary = db.level_summary();
    for (i, (runs, _, _)) in summary.iter().enumerate() {
        let cap = cap_at(i);
        assert!(*runs <= cap, "L{i}: {runs} runs > cap {cap} ({summary:?})");
    }
    check_all_present(&db, 6000, 31);
}

#[test]
fn fresh_engine_runs_its_boot_config() {
    let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
    assert_eq!(*db.effective_config(), LsmConfig::small_for_tests());
    assert_eq!(db.config(), &LsmConfig::small_for_tests());
}

#[test]
fn config_installs_stack() {
    let base = LsmConfig::small_for_tests();
    let db = Db::open_in_memory(base.clone()).unwrap();
    db.set_config(LsmConfig {
        bits_per_key: 14.5,
        layout: MergeLayout::LazyLeveled,
        ..(*db.effective_config()).clone()
    })
    .unwrap();
    db.set_config(LsmConfig {
        size_ratio: 6,
        filter_allocation: FilterAllocation::Monkey,
        ..(*db.effective_config()).clone()
    })
    .unwrap();
    let live = db.effective_config();
    assert_eq!(live.bits_per_key, 14.5);
    assert_eq!(live.layout, MergeLayout::LazyLeveled);
    assert_eq!(live.size_ratio, 6);
    assert_eq!(live.filter_allocation, FilterAllocation::Monkey);
    // untouched knobs keep their boot values, and the boot config stays
    assert_eq!(live.buffer_bytes, base.buffer_bytes);
    assert_eq!(db.config(), &base);
}

#[test]
fn rejected_installs_leave_the_live_config_untouched() {
    let base = LsmConfig::small_for_tests();
    let db = Db::open_in_memory(base.clone()).unwrap();
    let rejected = [
        LsmConfig { size_ratio: 1, ..base.clone() },
        LsmConfig { bits_per_key: -1.0, ..base.clone() },
        // the online cap
        LsmConfig { bits_per_key: 65.0, ..base.clone() },
        // stall below slowdown fails validate()
        LsmConfig { l0_slowdown_runs: 10, l0_stall_runs: 4, ..base.clone() },
        // a valid config, but block_size is boot-only
        LsmConfig { block_size: 1024, ..base.clone() },
    ];
    for cfg in rejected {
        assert!(db.set_config(cfg.clone()).is_err(), "accepted {cfg:?}");
        assert_eq!(*db.effective_config(), base);
    }
}

#[test]
fn threshold_installs_respect_the_threaded_invariant() {
    let base = LsmConfig {
        background: BackgroundMode::Threaded,
        ..LsmConfig::small_for_tests()
    };
    let db = Db::open_in_memory(base.clone()).unwrap();
    // stall at the L0 run cap would wedge writers in threaded mode
    assert!(db
        .set_config(LsmConfig {
            l0_slowdown_runs: 1,
            l0_stall_runs: base.l0_run_cap,
            ..base.clone()
        })
        .is_err());
    assert!(db
        .set_config(LsmConfig {
            l0_slowdown_runs: base.l0_run_cap + 2,
            l0_stall_runs: base.l0_run_cap + 4,
            ..base.clone()
        })
        .is_ok());
    assert_eq!(db.l0_thresholds(), (base.l0_run_cap + 2, base.l0_run_cap + 4));
}

#[test]
fn prefetch_after_compaction_readmits_hot_blocks() {
    let n = 3000;
    let cfg = LsmConfig {
        prefetch_after_compaction: true,
        cache_bytes: 8 << 20,
        ..LsmConfig::small_for_tests()
    };
    let db = Db::open_in_memory(cfg).unwrap();
    for i in 0..n {
        db.put(key(i), value(i)).unwrap();
    }
    // heat up a narrow range so the heat map has a signal
    for _ in 0..50 {
        for i in 100..120u32 {
            db.get(&key(i)).unwrap();
        }
    }
    // force compactions that rewrite the hot range
    for i in 0..n {
        db.put(key(i), value(i)).unwrap();
    }
    let s = db.stats().snapshot();
    assert!(
        s.prefetched_blocks > 0,
        "prefetch never fired (compactions: {})",
        s.compactions
    );
}

#[test]
fn io_attribution_covers_all_categories() {
    let cfg = LsmConfig {
        range_filter: RangeFilterKind::Rosetta,
        ..LsmConfig::small_for_tests()
    };
    let db = load(cfg, 3000);
    db.scan(key(0)..key(100), 1000).unwrap();
    let io = db.io_stats();
    assert!(io.category(IoCategory::Data).written_blocks > 0);
    assert!(io.category(IoCategory::Filter).written_blocks > 0);
    assert!(io.category(IoCategory::Index).written_blocks > 0);
    assert!(io.category(IoCategory::Wal).written_blocks > 0);
    assert!(io.category(IoCategory::Misc).written_blocks > 0);
}

#[test]
fn simulated_time_advances_with_latency_profile() {
    let cfg = LsmConfig {
        wal: false,
        ..LsmConfig::small_for_tests()
    };
    let db = Db::open_simulated(cfg, DeviceProfile::nvme_ssd()).unwrap();
    for i in 0..2000u32 {
        db.put(key(i), value(i)).unwrap();
    }
    let t = db.device().latency().clock().now_ns();
    assert!(t > 0, "simulated clock did not advance");
}

#[test]
fn empty_db_operations() {
    let db = Db::open_in_memory(LsmConfig::small_for_tests()).unwrap();
    assert_eq!(db.get(b"anything").unwrap(), None);
    assert!(db.scan(b"a".to_vec()..b"z".to_vec(), 10).unwrap().is_empty());
    db.flush().unwrap();
    db.compact().unwrap();
    assert_eq!(db.total_runs(), 0);
    db.delete(b"ghost".to_vec()).unwrap();
    assert_eq!(db.get(b"ghost").unwrap(), None);
}

/// The merged write path is provably the old one: `put`/`delete` and
/// one-op `write_batch_mut` calls run the same commit routine, so the
/// same op sequence must leave byte-identical files (WAL framing, tables,
/// manifests) and recover to the same state.
#[test]
fn singles_and_one_op_batches_write_identical_bytes() {
    let cfg = LsmConfig {
        wal: true,
        background: BackgroundMode::Inline,
        ..LsmConfig::small_for_tests()
    };
    let open = || {
        let dev: Arc<dyn StorageDevice> =
            Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free()));
        (Db::open(Arc::clone(&dev), cfg.clone()).unwrap(), dev)
    };
    let image = |dev: &Arc<dyn StorageDevice>| {
        let mut files = dev.live_files();
        files.sort_by_key(|f| f.0);
        files
            .into_iter()
            .map(|f| {
                let n = dev.len_blocks(f).unwrap();
                (f.0, dev.read(f, 0, n, IoCategory::Misc).unwrap())
            })
            .collect::<Vec<_>>()
    };
    let (singles, dev_singles) = open();
    let (batched, dev_batched) = open();
    let mut batch = WriteBatch::new();
    // enough to flush and compact several times, ending mid-memtable
    for i in 0..1500u32 {
        let id = i * 7 % 400;
        if i % 5 == 4 {
            singles.delete(key(id)).unwrap();
            batch.delete(key(id));
        } else {
            singles.put(key(id), value(i)).unwrap();
            batch.put(key(id), value(i));
        }
        batched.write_batch_mut(&mut batch).unwrap();
    }
    singles.sync().unwrap();
    batched.sync().unwrap();
    assert!(singles.stats().snapshot().compactions > 0, "workload too small");
    assert_eq!(image(&dev_singles), image(&dev_batched));
    drop((singles, batched));
    let recover = |dev| {
        let db = Db::open(dev, cfg.clone()).unwrap();
        db.scan(key(0)..key(400), usize::MAX).unwrap()
    };
    let recovered = recover(dev_singles);
    assert!(!recovered.is_empty());
    assert_eq!(recovered, recover(dev_batched));
}

/// The regression: rewriting one key grows the memtable arena and the WAL
/// but never the *logical* byte count, so a trigger on logical bytes alone
/// never flushed — the WAL was never rotated and the arena grew until its
/// `u32` offsets wrapped. Same for re-deletes, which grow the arena by
/// their version records only.
#[test]
fn a_rewritten_key_still_flushes_and_rotates_the_wal() {
    let rewrites = 100_000u32;
    let shapes = [("rewrites", true), ("re-deletes", false)];
    for background in [BackgroundMode::Inline, BackgroundMode::Threaded] {
        for (shape, put) in shapes {
            let cfg = LsmConfig {
                wal: true,
                background,
                ..LsmConfig::small_for_tests()
            };
            let device: Arc<dyn StorageDevice> =
                Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free()));
            let db = Db::open(Arc::clone(&device), cfg).unwrap();
            let mut live_blocks = 0;
            for i in 0..rewrites {
                if put {
                    db.put(b"hot-key".to_vec(), format!("{i:0100}").into_bytes()).unwrap();
                } else {
                    db.delete(b"hot-key".to_vec()).unwrap();
                }
                if i % 1000 == 999 {
                    live_blocks = live_blocks.max(device.live_blocks());
                }
            }
            db.wait_background_idle();
            let flushes = db.stats().snapshot().flushes;
            assert!(flushes > 0, "{background:?}: {rewrites} {shape} of one key never flushed");
            // never rotated, the WAL alone would hold ≈ 6k (re-deletes) to
            // ≈ 21k (rewrites) 512-byte blocks by now
            assert!(
                live_blocks < 1_000,
                "{background:?}, {shape}: {live_blocks} live blocks — the WAL is not being rotated"
            );
            let last = put.then(|| format!("{:0100}", rewrites - 1).into_bytes());
            assert_eq!(db.get(b"hot-key").unwrap(), last, "{background:?}, {shape}");
        }
    }
}
