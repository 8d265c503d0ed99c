//! Modules II.1 and II.5 — memory: block-cache policies and compaction
//! invalidation (E6), and the buffer-vs-filter split of a fixed budget (E7).

use lsm_core::{CachePolicy, Db};
use lsm_storage::DeviceProfile;
use lsm_workload::encode_key;

use super::{falling, join, rising};
use crate::*;

/// Hit rate of `probes` zipfian gets, counted from the cache's own counters.
fn zipf_hit_rate(db: &Db, n: u64, probes: u64, seed: u64) -> f64 {
    let (h0, m0) = db.cache_stats().unwrap();
    measure_zipf_gets(db, n, probes, 0.99, seed);
    let (h1, m1) = db.cache_stats().unwrap();
    (h1 - h0) as f64 / ((h1 - h0) + (m1 - m0)).max(1) as f64
}

/// E6 — part A: cache size × eviction policy under zipfian reads; part B:
/// read phases around a write burst whose compactions invalidate cached
/// blocks, with and without Leaper-style prefetch.
pub fn e06(scale: Scale, r: &mut Report) {
    let n = scale.pick(40_000u64, 10_000);
    // the largest size holds the whole working set
    let sizes_kib = scale.pick([64usize, 256, 1024, 4096], [16, 64, 256, 1024]);
    let (warm_a, reads_a) = scale.pick((20_000, 30_000), (3_000, 5_000));
    let (warm_b, reads_b) = scale.pick((30_000, 10_000), (5_000, 3_000));
    r.line(format!("{n} keys, zipfian(0.99) reads"));
    let mut rows = Vec::new();
    let mut rates = Vec::new();
    for cache_kib in sizes_kib {
        let mut by_policy = Vec::new();
        for policy in CachePolicy::ALL {
            let mut cfg = base_config();
            cfg.cache_bytes = cache_kib << 10;
            cfg.cache_policy = policy;
            let db = Db::open_in_memory(cfg).unwrap();
            fill_scattered(&db, n, 64);
            measure_zipf_gets(&db, n, warm_a, 0.99, 7);
            by_policy.push(zipf_hit_rate(&db, n, reads_a, 8));
        }
        let mut cells = vec![cache_kib.to_string()];
        cells.extend(by_policy.iter().map(|&h| pct(h)));
        rows.push(cells);
        rates.push(by_policy);
    }
    r.table(&["cache KiB", "lru", "lfu", "clock", "fifo"], &rows);
    let (lru, lfu, clock, fifo) = (0, 1, 2, 3);
    let (below, whole) = rates.split_at(3);
    let cite = "Module II.1";
    r.claim(
        cite,
        "below the working set frequency beats recency beats arrival order, at every size: \
         LFU >= LRU >= FIFO, and CLOCK (approximate LRU) >= FIFO",
        below.iter().all(|h| h[lfu] >= h[lru] && h[lru] >= h[fifo] && h[clock] >= h[fifo]),
        below
            .iter()
            .map(|h| format!("lfu {} lru {} clock {} fifo {}", pct(h[lfu]), pct(h[lru]), pct(h[clock]), pct(h[fifo])))
            .collect::<Vec<_>>()
            .join(", "),
    );
    r.claim(
        cite,
        "once the cache holds the working set the policy no longer matters",
        whole[0].iter().all(|&h| h == whole[0][lru]),
        join(&whole[0].iter().map(|h| h * 100.0).collect::<Vec<_>>(), 1),
    );

    r.line("\nE6b: compaction invalidation and Leaper-style prefetch");
    let mut rows = Vec::new();
    let mut after_burst = Vec::new();
    let mut steady_rate = 0.0;
    let mut prefetched = 0;
    for prefetch in [false, true] {
        let mut cfg = base_config();
        cfg.cache_bytes = sizes_kib[2] << 10;
        cfg.prefetch_after_compaction = prefetch;
        let db = Db::open_in_memory(cfg).unwrap();
        fill_scattered(&db, n, 64);
        // steady state: hot zipfian reads fill the cache and the heat map
        measure_zipf_gets(&db, n, warm_b, 0.99, 7);
        steady_rate = zipf_hit_rate(&db, n, reads_b, 8);
        // write burst: rewrites the hot data, compactions invalidate blocks
        for i in 0..n {
            let id = i.wrapping_mul(2654435761) % n;
            db.put(encode_key(id), value_of(id ^ 1, 64)).unwrap();
        }
        let after = zipf_hit_rate(&db, n, reads_b, 9);
        prefetched = db.stats().snapshot().prefetched_blocks;
        rows.push(vec![prefetch.to_string(), pct(steady_rate), pct(after), prefetched.to_string()]);
        after_burst.push(after);
    }
    r.table(
        &["prefetch", "hit rate (steady)", "hit rate (after compactions)", "prefetched"],
        &rows,
    );
    r.claim(
        "Module II.1 (Leaper)",
        "compactions invalidate hot blocks: the hit rate after the burst is below steady state",
        after_burst[0] < steady_rate,
        format!("{} vs {}", pct(after_burst[0]), pct(steady_rate)),
    );
    r.claim(
        "Module II.1 (Leaper)",
        "re-admitting hot blocks after compaction recovers part of the dip",
        after_burst[1] >= after_burst[0] && prefetched > 0,
        format!(
            "{} with {prefetched} blocks prefetched vs {} (margin {:.2} pp)",
            pct(after_burst[1]),
            pct(after_burst[0]),
            (after_burst[1] - after_burst[0]) * 100.0
        ),
    );
}

/// E7 — a fixed memory budget split between the write buffer and the Bloom
/// filters, the same mixed workload at every split.
pub fn e07(scale: Scale, r: &mut Report) {
    let n = scale.pick(60_000u64, 10_000);
    let total = scale.pick(192u64 << 10, 64 << 10); // tight budget so the split matters
    let ops = scale.pick(20_000u64, 4_000);
    r.line(format!("{n} keys, {} KiB total memory, {ops} operations on simulated NVMe", total >> 10));
    // returns [sim µs/op, read blk/op, write blk/op]
    let run_split = |frac_buffer: f64, read_share: f64| {
        let mut cfg = base_config();
        cfg.buffer_bytes = ((total as f64 * frac_buffer) as usize).max(cfg.block_size * 4);
        let filter_bits = (total as f64 * (1.0 - frac_buffer)) * 8.0;
        cfg.bits_per_key = (filter_bits / n as f64).max(0.0);
        let db = Db::open_simulated(cfg, DeviceProfile::nvme_ssd()).unwrap();
        fill_scattered(&db, n, 64);
        let t0 = db.device().latency().clock().now_ns();
        let io0 = db.io_stats();
        for i in 0..ops {
            let u = (i as f64 * 0.61803398875) % 1.0;
            if u < read_share {
                // half the reads hit, half miss
                let id = i.wrapping_mul(48271) % n;
                if i % 2 == 0 {
                    db.get(&encode_key(id)).unwrap();
                } else {
                    let mut k = encode_key(id);
                    k.push(b'!');
                    db.get(&k).unwrap();
                }
            } else {
                let id = i.wrapping_mul(2654435761) % n;
                db.put(encode_key(id), value_of(id, 64)).unwrap();
            }
        }
        let sim_us = (db.device().latency().clock().now_ns() - t0) as f64 / ops as f64 / 1000.0;
        let io = db.io_stats().delta_since(&io0);
        [
            sim_us,
            io.total_read_blocks() as f64 / ops as f64,
            io.total_written_blocks() as f64 / ops as f64,
        ]
    };
    let splits = [5u32, 15, 30, 50, 70, 90];
    let mut sweep = |workload: &str, read_share: f64| {
        r.line(format!("workload: {workload}"));
        let points: Vec<[f64; 3]> = splits.iter().map(|&p| run_split(p as f64 / 100.0, read_share)).collect();
        let rows: Vec<Vec<String>> = splits
            .iter()
            .zip(&points)
            .map(|(p, [us, rd, wr])| vec![format!("{p}%"), f2(*us), f3(*rd), f3(*wr)])
            .collect();
        r.table(&["buffer %", "sim µs/op", "read blk/op", "write blk/op"], &rows);
        points
    };
    let read_heavy = sweep("read-heavy (80% reads)", 0.8);
    let write_heavy = sweep("write-heavy (20% reads)", 0.2);
    let cite = "Module II.5 (memory allocation)";
    let column = |points: &[[f64; 3]], c: usize| points.iter().map(|p| p[c]).collect::<Vec<f64>>();
    let reads = column(&read_heavy, 1);
    r.claim(
        cite,
        "starving the filters is the worst split for reads: 90 % buffer reads the most blocks per op",
        reads[..5].iter().all(|&x| x < reads[5]),
        join(&reads, 3),
    );
    let writes = column(&write_heavy, 2);
    r.claim(
        cite,
        "a larger buffer merges less: write-heavy write blocks/op at 90 % buffer below 5 % buffer",
        writes[5] < writes[0],
        format!("{:.3} vs {:.3}", writes[5], writes[0]),
    );
    let us = column(&read_heavy, 0);
    let lowest = (0..us.len()).min_by(|&a, &b| us[a].total_cmp(&us[b])).unwrap();
    r.gap(
        cite,
        "read-heavy cost per op is a U-curve over the split with an interior optimum",
        (1..5).contains(&lowest) && falling(&us[..=lowest]) && rising(&us[lowest..]),
        format!("sim µs/op {}", join(&us, 1)),
        "the buffer size moves the level geometry in discrete jumps (a level more or less), \
         so neighbouring splits land on different tree shapes and the curve is jagged",
    );
}
