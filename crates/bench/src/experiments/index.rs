//! Module II.4 — index and block: fence pointers vs learned indexes (E10),
//! the in-block hash index (E14), block size (E16) and restart interval
//! (E17). Wall-clock CPU observations go to stderr; the tracked columns
//! are memory, I/O and simulated time.

use lsm_core::{Db, IndexKind, LsmConfig};
use lsm_storage::DeviceProfile;

use super::{falling, join, rising};
use crate::*;

const CITE: &str = "Module II.4";

/// Wall-clock ns/op of the fastest of `passes` warm-cache passes (several,
/// to stabilize the timing; stderr only).
fn best_wall_ns(passes: usize, pass: impl Fn() -> ReadCost) -> f64 {
    (0..passes).map(|_| pass().wall_ns_per_op).fold(f64::MAX, f64::min)
}

/// E10 — the same engine under each block-index family.
pub fn e10(scale: Scale, r: &mut Report) {
    let n = scale.pick(DEFAULT_N, 30_000);
    let gets = scale.pick(3000, 800);
    r.line(format!("{n} keys, leveled T=4"));
    let kinds = [
        ("fence", IndexKind::Fence),
        ("sparse r=4", IndexKind::Sparse { rate: 4 }),
        ("sparse r=16", IndexKind::Sparse { rate: 16 }),
        ("pla ε=2", IndexKind::Pla { epsilon: 2 }),
        ("pla ε=8", IndexKind::Pla { epsilon: 8 }),
    ];
    let mut rows = Vec::new();
    let mut kib = Vec::new();
    let mut io = Vec::new();
    for (name, index) in kinds {
        let mut cfg = base_config();
        cfg.index = index;
        let db = Db::open_in_memory(cfg).unwrap();
        fill_scattered(&db, n, 64);
        let present = measure_present_gets(&db, n, gets);
        let empty = measure_empty_gets(&db, n, gets);
        r.wall(format!("{name}: get {:.0} ns", present.wall_ns_per_op));
        kib.push(db.total_index_bits() as f64 / 8.0 / 1024.0);
        io.push(present.data_blocks_per_op);
        rows.push(vec![
            name.to_string(),
            f2(kib[kib.len() - 1]),
            f3(present.data_blocks_per_op),
            f3(empty.data_blocks_per_op),
        ]);
    }
    r.table(&["index", "index KiB", "point IO", "0-result IO"], &rows);
    let (fence, sparse4, sparse16, pla2, pla8) = (0, 1, 2, 3, 4);
    r.claim(
        CITE,
        "a learned index replaces fence memory with a model: PLA ε=8 takes at most 10 % of the fences",
        kib[pla8] <= 0.10 * kib[fence],
        format!("{:.2} vs {:.2} KiB", kib[pla8], kib[fence]),
    );
    let sparser = |xs: &[f64]| [xs[fence], xs[sparse4], xs[sparse16]];
    r.claim(
        CITE,
        "sparser fences (fence, r=4, r=16) trade index memory for a wider window of blocks per get",
        falling(&sparser(&kib)) && rising(&sparser(&io)),
        format!("{} KiB at {} blocks/get", join(&sparser(&kib), 2), join(&sparser(&io), 3)),
    );
    r.gap(
        CITE,
        "a learned index with a small ε reads about as few blocks as fences (within 10 %)",
        io[pla2] <= 1.1 * io[fence],
        format!("PLA ε=2 {:.2} vs {:.2} blocks/get", io[pla2], io[fence]),
        "the model predicts a block position ± ε and keeps no keys in memory, so the reader \
         finishes the search by reading blocks (binary search over the window, ≈ log2(2ε+1) reads); \
         keeping each block's first key would read one block but costs the fence memory back",
    );
}

/// E14 — point lookups with and without the per-block hash index, cache
/// warm so the CPU difference shows (on stderr); the tracked columns show
/// that I/O and storage do not move.
pub fn e14(scale: Scale, r: &mut Report) {
    let n = scale.pick(DEFAULT_N, 40_000);
    let (passes, gets) = scale.pick((3, 30_000u64), (1, 3_000));
    r.line(format!("{n} keys, cache larger than the data"));
    let mut rows = Vec::new();
    let mut io = Vec::new();
    let mut footprint = Vec::new();
    for hash_index in [false, true] {
        let mut cfg = base_config();
        cfg.block_hash_index = hash_index;
        cfg.restart_interval = 16;
        cfg.cache_bytes = 64 << 20; // everything cached: isolate CPU
        let db = Db::open_in_memory(cfg).unwrap();
        fill_scattered(&db, n, 64);
        db.major_compact().unwrap();
        // the cold pass reads every block once and warms the cache fully
        let cold = measure_present_gets(&db, n, n);
        let (present, empty) = (
            best_wall_ns(passes, || measure_present_gets(&db, n, gets)),
            best_wall_ns(passes, || measure_empty_gets(&db, n, gets)),
        );
        r.wall(format!("hash index {hash_index}: get {present:.0} ns, zero-result get {empty:.0} ns"));
        let data_bytes = db.device().live_blocks() * db.config().block_size as u64;
        io.push(cold.blocks_per_op);
        footprint.push(data_bytes);
        rows.push(vec![
            hash_index.to_string(),
            f3(cold.blocks_per_op),
            f2(data_bytes as f64 / 1024.0 / (n as f64 / 1000.0)),
        ]);
    }
    r.table(&["hash index", "cold IO/get", "data KiB/1k keys"], &rows);
    r.claim(
        CITE,
        "the hash index lives in the block's slack: lookup I/O and storage footprint are identical with and without it",
        io[0] == io[1] && footprint[0] == footprint[1],
        format!("{:.3} vs {:.3} blocks/get, {} vs {} bytes", io[0], io[1], footprint[0], footprint[1]),
    );
}

/// E16 (ablation) — the block size decides what one "storage access"
/// carries.
pub fn e16(scale: Scale, r: &mut Report) {
    let n = scale.pick(60_000u64, 30_000);
    let (gets, scans) = scale.pick((10_000, 200), (3_000, 60));
    r.line(format!("{n} keys, 64 B values, simulated NVMe, 512 KiB cache"));
    let mut rows = Vec::new();
    let mut point = Vec::new();
    let mut scan = Vec::new();
    let mut index = Vec::new();
    for block_size in [512usize, 1024, 4096, 16384] {
        let cfg = LsmConfig {
            block_size,
            target_table_bytes: 128 << 10,
            cache_bytes: 512 << 10, // fixed small cache: granularity matters
            ..base_config()
        };
        let db = Db::open_simulated(cfg, DeviceProfile::nvme_ssd()).unwrap();
        fill_scattered(&db, n, 64);
        db.compact().unwrap();
        point.push(measure_zipf_gets(&db, n, gets, 0.99, 7).sim_ns_per_op / 1000.0);
        scan.push(measure_scans(&db, n, scans, 500).sim_ns_per_op / 1000.0);
        index.push(db.total_index_bits() as f64 / 8.0 / 1024.0);
        let (h, m) = db.cache_stats().unwrap();
        rows.push(vec![
            block_size.to_string(),
            f2(point[point.len() - 1]),
            f2(scan[scan.len() - 1]),
            f2(index[index.len() - 1]),
            pct(h as f64 / (h + m).max(1) as f64),
        ]);
    }
    r.table(&["block B", "point µs", "scan-500 µs", "index KiB", "cache hit"], &rows);
    for (statement, holds, series, unit) in [
        ("bigger blocks hurt point lookups: simulated time per get rises with the block size", rising(&point), &point, "µs"),
        ("bigger blocks help long scans: simulated time per 500-entry scan falls", falling(&scan), &scan, "µs"),
        ("bigger blocks need fewer fence pointers: index memory falls", falling(&index), &index, "KiB"),
    ] {
        r.claim("Module II.4 (access granularity)", statement, holds, format!("{} {unit}", join(series, 2)));
    }
}

/// E17 (ablation) — restart interval: prefix compression vs in-block CPU
/// (the CPU side is wall-clock, on stderr).
pub fn e17(scale: Scale, r: &mut Report) {
    let n = scale.pick(60_000u64, 15_000);
    let (passes, gets) = scale.pick((3, 20_000), (1, 3_000));
    r.line(format!("{n} keys with 12-byte shared prefixes, 24 B values"));
    let mut rows = Vec::new();
    let mut bytes_per_entry = Vec::new();
    for interval in [1usize, 4, 16, 64] {
        let cfg = LsmConfig {
            restart_interval: interval,
            cache_bytes: 64 << 20, // warm cache: isolate in-block CPU
            block_size: 4096,
            target_table_bytes: 256 << 10,
            ..base_config()
        };
        let db = Db::open_in_memory(cfg).unwrap();
        fill_scattered(&db, n, 24);
        db.major_compact().unwrap();
        // warm
        measure_present_gets(&db, n, n);
        let best = best_wall_ns(passes, || measure_present_gets(&db, n, gets));
        r.wall(format!("interval {interval}: warm get {best:.0} ns"));
        let data_bytes = db.device().live_blocks() * db.config().block_size as u64;
        bytes_per_entry.push(data_bytes as f64 / n as f64);
        rows.push(vec![
            interval.to_string(),
            f2(data_bytes as f64 / 1024.0),
            f2(data_bytes as f64 / n as f64),
        ]);
    }
    r.table(&["interval", "data KiB", "bytes/entry"], &rows);
    r.claim(
        "Module II.4 (prefix compression)",
        "a larger restart interval compresses shared prefixes harder: bytes/entry falls",
        falling(&bytes_per_entry),
        join(&bytes_per_entry, 2),
    );
}
