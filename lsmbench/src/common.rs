//! What every workload shares: the run plan, the metric map, counter
//! snapshots read from public handles, and value checking.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lsm_core::stats::DbStatsSnapshot;
use lsm_core::{BackgroundMode, Db, LsmConfig};
use lsm_storage::{DeviceProfile, IoCategory, IoStatsSnapshot, MemDevice, StorageDevice};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::hist::{self, Hist, Summary};

pub const KEY_LEN: usize = lsm_workload::KEY_LEN;
pub const VALUE_LEN: usize = 100;
/// User bytes per record.
pub const RECORD_BYTES: u64 = (KEY_LEN + VALUE_LEN) as u64;
/// Set-up runs this many times per process; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// Latencies are computed per slice of the measured window and summarised
/// across slices (`hist::Summary`); a window has this many slices unless
/// the workload says otherwise.
pub const SLICES: usize = 20;
/// Where `<workload>.trace.jsonl` goes, relative to the repository root.
pub const OUT_DIR: &str = "lsmbench/out";

/// How one process spends its `--seconds`.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    /// Data-set and op-count multiplier; 1.0 except in the smoke test.
    pub scale: f64,
    pub trace: bool,
    /// The untraced measured window. All of `--seconds` with `--trace 0`,
    /// half of it with `--trace 1` (the traced run and the component
    /// probes take the rest).
    pub window_s: f64,
    /// The traced run (0 with `--trace 0`).
    pub traced_s: f64,
    /// Where `<workload>.trace.jsonl` goes; `None` (the smoke test) writes
    /// no file.
    pub out_dir: Option<&'static str>,
}

impl Plan {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Plan {
        let (window_s, traced_s) = if trace {
            (seconds * 0.5, seconds * 0.25)
        } else {
            (seconds, 0.0)
        };
        Plan {
            seed,
            scale: 1.0,
            trace,
            window_s,
            traced_s,
            out_dir: Some(OUT_DIR),
        }
    }

    pub fn scaled(&self, n: u64) -> u64 {
        ((n as f64 * self.scale) as u64).max(64)
    }
}

/// Metric name → value; names are checked against `names.rs` on output.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when any answer carried wrong bytes.
    pub correct: bool,
    pub metrics: Metrics,
    /// Human-readable lines: sample counts, p99.9, max, context.
    pub notes: Vec<String>,
}

/// The engine config every workload starts from: defaults, with the
/// env-dependent and per-workload knobs pinned by the caller.
pub fn engine_config(background: BackgroundMode, workers: usize, cache_bytes: usize) -> LsmConfig {
    LsmConfig {
        background,
        background_workers: workers,
        cache_bytes,
        ..LsmConfig::default()
    }
}

/// An engine on its own in-memory device with a zero-cost profile:
/// wall-clock numbers are this sandbox's CPU cost; device cost is
/// reported in blocks.
pub fn open_db(cfg: &LsmConfig) -> (Db, Arc<dyn StorageDevice>) {
    let dev: Arc<dyn StorageDevice> =
        Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free()));
    let db = Db::open(Arc::clone(&dev), cfg.clone()).expect("open engine");
    (db, dev)
}

/// `make_value(id, VALUE_LEN)` without allocating: the value is the
/// 8-byte pattern `id · φ64` repeated and truncated.
pub fn value_matches(id: u64, got: &[u8]) -> bool {
    let seed = id.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes();
    got.len() == VALUE_LEN && got.chunks(8).all(|c| c == &seed[..c.len()])
}

/// The id a loaded key's value was derived from is either the key's own
/// (insert) or `id ^ 0xDEAD` (update-PUT); anything else is wrong bytes.
pub fn value_matches_either(id: u64, got: &[u8]) -> bool {
    value_matches(id, got) || value_matches(id ^ 0xDEAD, got)
}

/// The data set is a fixture: every seed loads the same records in the
/// same scattered order, so the tree, its memory and its space are the
/// same for every seed and `--seed` varies only the requests.
pub const LOAD_SEED: u64 = 0x10AD;

/// A seeded uniform shuffle of `0..n`.
pub fn scattered(n: u64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x05CA_77E4);
    let mut ids: Vec<u64> = (0..n).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    ids
}

/// The process's allocator, counting: bytes live now and at their peak.
///
/// `peak_heap_mb` comes from here and not from the OS (`VmHWM`, the
/// issue's `peak_rss_mb`), because
/// resident-set size on this box is not a function of the program: the
/// same binary, same arguments, repeatably held 95 MiB or 122 MiB
/// depending on the *path it was started from* (how much freed memory
/// glibc keeps, and what the kernel has paged in, is chaotic in inputs
/// that have nothing to do with the code). Allocated bytes repeat exactly
/// on the single-threaded workloads and show precisely what a change
/// keeps in memory — filter bits, cache, buffers.
pub struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counters are statistics
// that no allocation depends on.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        note_alloc(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Peak bytes allocated at once since the process started, MiB.
pub fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1 << 20) as f64
}

/// Seconds of CPU time the hypervisor has given to other guests while this
/// one wanted to run, since boot (`steal` in `/proc/stat`); `None` where
/// the kernel does not say. Printed beside every run: a row measured while
/// the neighbours were taking a quarter of the CPU is not a finding.
pub fn stolen_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / 100.0) // USER_HZ
}

/// Public counters of every shard at one instant.
pub struct Snap {
    db: Vec<DbStatsSnapshot>,
    io: Vec<IoStatsSnapshot>,
    cache: Vec<(u64, u64)>,
}

impl Snap {
    pub fn take(dbs: &[Db]) -> Snap {
        Snap {
            db: dbs.iter().map(|d| d.stats().snapshot()).collect(),
            io: dbs.iter().map(|d| d.io_stats()).collect(),
            cache: dbs
                .iter()
                .map(|d| d.cache_stats().unwrap_or((0, 0)))
                .collect(),
        }
    }

    pub fn since(&self, earlier: &Snap) -> Snap {
        Snap {
            db: self
                .db
                .iter()
                .zip(&earlier.db)
                .map(|(a, b)| a.delta_since(b))
                .collect(),
            io: self
                .io
                .iter()
                .zip(&earlier.io)
                .map(|(a, b)| a.delta_since(b))
                .collect(),
            cache: self
                .cache
                .iter()
                .zip(&earlier.cache)
                .map(|(a, b)| (a.0 - b.0, a.1 - b.1))
                .collect(),
        }
    }

    /// One engine counter summed over shards.
    pub fn db(&self, f: impl Fn(&DbStatsSnapshot) -> u64) -> u64 {
        self.db.iter().map(f).sum()
    }

    /// One device counter summed over shards.
    pub fn io(&self, f: impl Fn(&IoStatsSnapshot) -> u64) -> u64 {
        self.io.iter().map(f).sum()
    }

    pub fn cache_hits_misses(&self) -> (u64, u64) {
        self.cache
            .iter()
            .fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1))
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Device bytes written ÷ user bytes ingested since open (load included).
pub fn write_amp(total: &Snap, block_size: usize) -> f64 {
    ratio(
        total.io(|s| s.total_written_blocks()) * block_size as u64,
        total.db(|s| s.bytes_ingested),
    )
}

/// Live device bytes ÷ live user bytes.
pub fn space_amp(devs: &[Arc<dyn StorageDevice>], live_records: u64) -> f64 {
    let live: u64 = devs
        .iter()
        .map(|d| d.live_blocks() * d.block_size() as u64)
        .sum();
    ratio(live, live_records * RECORD_BYTES)
}

/// What the measured window produced: ops and wall time of the phase
/// that gives throughput, latencies by op kind and slice.
#[derive(Default)]
pub struct Window {
    /// Ops completed, and the wall time they took together: the whole
    /// window, slow slices included.
    pub done: u64,
    pub wall_ns: u64,
    /// How the latency slices below become one number.
    pub summary: Summary,
    pub get: Vec<Hist>,
    pub put: Vec<Hist>,
    pub scan: Vec<Hist>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong_bytes: u64,
}

impl Window {
    /// Ops completed ÷ wall seconds, in thousands.
    pub fn kops(&self) -> f64 {
        ratio(self.done, self.wall_ns) * 1e6
    }

    /// The `p`-quantile of `slices`, in µs, summarised the window's way.
    pub fn quantile_us(&self, slices: &[Hist], p: f64) -> f64 {
        hist::slice_quantile(slices, p, self.summary) / 1e3
    }

    /// GET where the workload has GETs, otherwise SCAN: the workload's
    /// read op.
    pub fn read(&self) -> &[Hist] {
        if self.get.iter().any(|h| h.count() > 0) {
            &self.get
        } else {
            &self.scan
        }
    }

    /// Every op of every kind, slice by slice.
    pub fn all_ops(&self) -> Vec<Hist> {
        let n = self.get.len().max(self.put.len()).max(self.scan.len());
        (0..n)
            .map(|i| {
                let mut h = Hist::default();
                for kind in [&self.get, &self.put, &self.scan] {
                    if let Some(k) = kind.get(i) {
                        h.merge(k);
                    }
                }
                h
            })
            .collect()
    }
}

/// The window's rate, then one line per op kind: sample count, the p50/p99
/// as reported, and — ungated — the highest percentile the sample
/// supports, and the max.
pub fn latency_notes(w: &Window, notes: &mut Vec<String>) {
    notes.push(format!(
        "throughput: {} ops in {:.3}s = {:.2} kops/s",
        w.done,
        w.wall_ns as f64 / 1e9,
        w.kops()
    ));
    for (kind, slices) in [("get", &w.get), ("put", &w.put), ("scan", &w.scan)] {
        let all = hist::merged(slices);
        if all.count() == 0 {
            continue;
        }
        let top = hist::highest_supported_percentile(all.count()).unwrap_or(0.5);
        notes.push(format!(
            "{kind}: n={} slices={} p50={:.2}us p99={:.2}us p{}={:.2}us max={:.2}us",
            all.count(),
            slices.iter().filter(|h| h.count() > 0).count(),
            w.quantile_us(slices, 0.5),
            w.quantile_us(slices, 0.99),
            top * 100.0,
            all.quantile(top) / 1e3,
            all.max() as f64 / 1e3,
        ));
    }
}

/// The end-to-end metrics that come from the window alone.
pub fn end_to_end_from_window(w: &Window, m: &mut Metrics) {
    m.set("throughput_kops", w.kops());
    m.set("read_p50_us", w.quantile_us(w.read(), 0.5));
    m.set("read_p99_us", w.quantile_us(w.read(), 0.99));
    m.set("op_p99_us", w.quantile_us(&w.all_ops(), 0.99));
}

/// The per-kind and counter-derived per-layer metrics: `d` is the change
/// in public counters over the untraced window, `total` the counters since
/// open.
pub fn per_layer_from_counters(
    w: &Window,
    d: &Snap,
    total: &Snap,
    block_size: usize,
    m: &mut Metrics,
) {
    for (p50, p99, slices) in [
        ("get_p50_us", "get_p99_us", &w.get),
        ("put_p50_us", "put_p99_us", &w.put),
        ("scan_p50_us", "scan_p99_us", &w.scan),
    ] {
        m.set(p50, w.quantile_us(slices, 0.5));
        m.set(p99, w.quantile_us(slices, 0.99));
    }
    m.set("failed_frac", ratio(w.failed, w.attempted));

    let gets = d.db(|s| s.gets);
    let reads = gets + d.db(|s| s.scans);
    let ops = reads + d.db(|s| s.puts) + d.db(|s| s.deletes);
    m.set(
        "read_blocks_per_op",
        ratio(d.io(|s| s.total_read_blocks()), reads),
    );
    m.set(
        "core.db.runs_probed_per_get",
        ratio(d.db(|s| s.runs_probed), gets),
    );
    m.set(
        "core.db.range_prunes_per_get",
        ratio(d.db(|s| s.range_prunes), gets),
    );
    m.set(
        "core.db.blocks_examined_per_get",
        ratio(d.db(|s| s.blocks_examined), gets),
    );
    m.set(
        "filters.prunes_per_get",
        ratio(d.db(|s| s.filter_prunes), gets),
    );
    let (hits, misses) = d.cache_hits_misses();
    m.set("cache.hit_rate", ratio(hits, hits + misses));

    for (name, c) in [
        ("storage.read_blocks.data", IoCategory::Data),
        ("storage.read_blocks.filter", IoCategory::Filter),
        ("storage.read_blocks.index", IoCategory::Index),
    ] {
        m.set(name, ratio(d.io(|s| s.category(c).read_blocks), ops));
    }
    m.set(
        "storage.read_ops_per_op",
        ratio(d.io(|s| s.total_read_ops()), ops),
    );
    let nvme = DeviceProfile::nvme_ssd();
    let sim_ns = d.io(|s| s.total_read_ops()) * nvme.random_read_ns
        + d.io(|s| s.total_read_blocks()) * nvme.read_block_ns
        + d.io(|s| s.total_write_ops()) * nvme.random_write_ns
        + d.io(|s| s.total_written_blocks()) * nvme.write_block_ns;
    m.set("storage.sim_nvme_us_per_op", ratio(sim_ns, ops) / 1e3);

    // since open, load included: the write-cost side
    let user_mib = total.db(|s| s.bytes_ingested) as f64 / (1 << 20) as f64;
    let per_mib = |blocks: u64| {
        if user_mib > 0.0 {
            blocks as f64 / user_mib
        } else {
            0.0
        }
    };
    let wal_blocks = total.io(|s| s.category(IoCategory::Wal).written_blocks);
    m.set(
        "storage.written_blocks.data",
        per_mib(total.io(|s| s.category(IoCategory::Data).written_blocks)),
    );
    m.set("storage.written_blocks.wal", per_mib(wal_blocks));
    m.set(
        "core.wal.bytes_per_user_byte",
        ratio(
            wal_blocks * block_size as u64,
            total.db(|s| s.bytes_ingested),
        ),
    );
    m.set("core.flush.count", total.db(|s| s.flushes) as f64);
    m.set("core.compaction.count", total.db(|s| s.compactions) as f64);
    m.set(
        "core.compaction.entries_per_put",
        ratio(
            total.db(|s| s.compaction_entries),
            total.db(|s| s.puts + s.deletes),
        ),
    );
    m.set(
        "core.compaction.largest_entries",
        total
            .db
            .iter()
            .map(|s| s.largest_compaction_entries)
            .max()
            .unwrap_or(0) as f64,
    );
    m.set(
        "core.stalls.slowdowns",
        total.io(|s| s.write_slowdowns) as f64,
    );
    m.set("core.stalls.stalls", total.io(|s| s.write_stalls) as f64);
    m.set(
        "core.gc.tombstones_dropped",
        total.db(|s| s.tombstones_dropped) as f64,
    );
    m.set(
        "core.gc.versions_dropped",
        total.db(|s| s.versions_dropped) as f64,
    );
    m.set("storage.retries", total.io(|s| s.retries) as f64);
    m.set(
        "storage.corruption_detected",
        total.io(|s| s.corruption_detected) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_check_agrees_with_make_value() {
        for id in [0u64, 1, 77, 199_999, 1 << 40] {
            let v = lsm_workload::keyspace::make_value(id, VALUE_LEN);
            assert!(value_matches(id, &v));
            assert!(value_matches_either(id ^ 0xDEAD, &v));
            assert!(!value_matches(id + 1, &v));
            assert!(!value_matches(id, &v[..VALUE_LEN - 1]));
        }
    }

    #[test]
    fn scattered_is_a_permutation() {
        for (n, seed) in [(1u64, 3u64), (10, 0), (1000, 42), (4096, 7)] {
            let mut seen = scattered(n, seed);
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }
    }
}
