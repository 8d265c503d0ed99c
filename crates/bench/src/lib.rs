//! # lsm-bench
//!
//! The experiment harness. [`experiments::ALL`] is the registry of the
//! tutorial's tradeoff curves (E1–E18): each entry regenerates one curve
//! on the simulated device and states the shape it must have as claims
//! on a [`Report`]. `cargo run -p lsm-bench --release --bin experiments`
//! runs them at [`Scale::Full`] (its stdout is `results/experiments.txt`)
//! and the root `tests/claims.rs` runs the same functions at
//! [`Scale::Reduced`]. The remaining `eNN_*` binaries are wall-clock,
//! threaded measurements of the subsystems the ledger (`lsmbench/`) does
//! not cover yet.
//!
//! The shared helpers here load engines with deterministic workloads and
//! measure the quantities the tutorial's cost models are stated in:
//! blocks read per lookup, write amplification, hit rates, and simulated
//! device time.

pub mod experiments;
mod report;

pub use report::{Report, Scale};

use lsm_core::{BackgroundMode, Db, FilterAllocation, LsmConfig, MergeLayout};
use lsm_model::{Candidate, MergePolicy, WorkloadProfile};
use lsm_storage::IoCategory;
use lsm_tuner::WorkloadEstimate;
use lsm_workload::{encode_key, Operation, Trace, ZipfSampler, KEY_LEN};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Standard experiment scale: enough data for a 3-4 level tree with the
/// default experiment config, small enough that a full sweep runs in
/// seconds.
pub const DEFAULT_N: u64 = 80_000;

/// A baseline engine configuration shared by experiments (each experiment
/// overrides the axis it sweeps).
pub fn base_config() -> LsmConfig {
    LsmConfig {
        // not `LSM_BACKGROUND`'s choice: worker scheduling would perturb
        // the I/O counts the curves are stated in
        background: BackgroundMode::Inline,
        block_size: 1024,
        buffer_bytes: 64 << 10,
        size_ratio: 4,
        l0_run_cap: 4,
        target_table_bytes: 64 << 10,
        cache_bytes: 0, // experiments measure raw I/O unless stated
        wal: false,     // WAL traffic would blur write-amp attribution
        ..LsmConfig::default()
    }
}

/// Scale of the timed binaries: `LSM_BENCH_N` overrides [`DEFAULT_N`],
/// so smoke runs (CI, `verify.sh`) can shrink them without touching the
/// binaries. The registry takes a [`Scale`] instead.
pub fn bench_n() -> u64 {
    std::env::var("LSM_BENCH_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_N)
}

/// Deterministic value payload.
pub fn value_of(id: u64, len: usize) -> Vec<u8> {
    lsm_workload::keyspace::make_value(id, len)
}

/// The modeled per-entry footprint used when mapping navigator designs
/// onto engine configurations (key + value + per-entry overhead).
pub const MODEL_ENTRY_BYTES: usize = 80;

/// Maps a navigator candidate onto a runnable engine configuration
/// (shared by E11, E12, and E25 so the model→engine translation cannot
/// drift between experiments).
pub fn engine_for(c: &Candidate) -> LsmConfig {
    let mut cfg = base_config();
    cfg.layout = match c.design.policy {
        MergePolicy::Leveling => MergeLayout::Leveled,
        MergePolicy::Tiering => MergeLayout::Tiered,
        MergePolicy::LazyLeveling => MergeLayout::LazyLeveled,
    };
    cfg.size_ratio = c.design.size_ratio as usize;
    cfg.buffer_bytes = (c.design.buffer_entries as usize * MODEL_ENTRY_BYTES).max(cfg.block_size * 4);
    cfg.bits_per_key = c.design.bits_per_key;
    cfg.filter_allocation = if c.design.monkey {
        FilterAllocation::Monkey
    } else {
        FilterAllocation::Uniform
    };
    cfg
}

/// Synthesizes a deterministic operation trace matching a workload
/// profile: the golden-ratio stride walks the mix fractions exactly
/// (no sampling noise), ids stride the key space, and absent keys are a
/// real key plus a `'!'` suffix so fences cannot prune them.
pub fn synth_trace(w: &WorkloadProfile, ops: u64, n_keyspace: u64, value_len: usize) -> Trace {
    let wn = w.normalized();
    let mut out = Vec::with_capacity(ops as usize);
    for i in 0..ops {
        let r = (i as f64 * 0.61803398875) % 1.0;
        let id = i.wrapping_mul(48271) % n_keyspace;
        if r < wn.writes {
            out.push(Operation::Put {
                key: encode_key(id),
                value: value_of(id, value_len),
            });
        } else if r < wn.writes + wn.point_reads {
            out.push(Operation::Get { key: encode_key(id) });
        } else if r < wn.writes + wn.point_reads + wn.empty_point_reads {
            let mut k = encode_key(id);
            k.push(b'!');
            out.push(Operation::Get { key: k });
        } else {
            out.push(Operation::Scan {
                start: encode_key(id),
                limit: wn.range_entries.max(1.0) as usize,
            });
        }
    }
    Trace::from_ops(out)
}

/// The shared offline estimate of a trace: the same
/// [`WorkloadEstimate`] the online tuner builds from metrics, here
/// classified by key shape (fixed-width keys were loaded; suffixed keys
/// are the synthesized absent probes).
pub fn estimate_of(trace: &Trace) -> WorkloadEstimate {
    WorkloadEstimate::from_trace_with(trace, |k| k.len() == KEY_LEN)
}

/// Replays a trace against an engine (scan end bound chosen past the
/// loaded key space, matching the synthesized scans).
pub fn replay_trace(db: &Db, trace: &Trace, n_keyspace: u64) {
    for op in trace.ops() {
        match op {
            Operation::Put { key, value } => db.put(key.clone(), value.clone()).unwrap(),
            Operation::Delete { key } => db.delete(key.clone()).unwrap(),
            Operation::Get { key } => {
                db.get(key).unwrap();
            }
            Operation::Scan { start, limit } => {
                let mut end = encode_key(n_keyspace * 2);
                end.push(b'z');
                db.scan(start.clone()..end, *limit).unwrap();
            }
            Operation::ReadModifyWrite { key, value } => {
                db.get(key).unwrap();
                db.put(key.clone(), value.clone()).unwrap();
            }
        }
    }
}

/// Builds a candidate's engine, loads `n_keyspace` keys, replays the
/// trace, and returns total device blocks moved per operation — the
/// measured counterpart of the navigator's modeled cost.
pub fn measured_trace_cost(c: &Candidate, trace: &Trace, n_keyspace: u64) -> f64 {
    let db = Db::open_in_memory(engine_for(c)).unwrap();
    fill_scattered(&db, n_keyspace, 64);
    let io0 = db.io_stats();
    replay_trace(&db, trace, n_keyspace);
    let io = db.io_stats().delta_since(&io0);
    (io.total_read_blocks() + io.total_written_blocks()) as f64
        / trace.ops().len().max(1) as f64
}

/// Loads `n` keys in scattered (hash) order with `value_len`-byte values.
pub fn fill_scattered(db: &Db, n: u64, value_len: usize) {
    for i in 0..n {
        let id = i.wrapping_mul(2654435761) % n;
        db.put(encode_key(id), value_of(id, value_len)).unwrap();
    }
    // measurements start from a quiescent tree (no-op in `Inline` mode)
    db.wait_background_idle();
}

/// Write amplification so far: device bytes written / user bytes ingested.
pub fn write_amp(db: &Db) -> f64 {
    // in-flight background maintenance would under-count written blocks
    db.wait_background_idle();
    let written = db.io_stats().total_written_blocks() as f64 * db.config().block_size as f64;
    let ingested = db.stats().snapshot().bytes_ingested as f64;
    if ingested == 0.0 {
        0.0
    } else {
        written / ingested
    }
}

/// Measured read cost of a batch of operations.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadCost {
    /// Data + filter + index blocks read per operation.
    pub blocks_per_op: f64,
    /// Data blocks only.
    pub data_blocks_per_op: f64,
    /// Sorted runs probed per operation.
    pub runs_per_op: f64,
    /// Filter prunes per operation.
    pub prunes_per_op: f64,
    /// Simulated device nanoseconds per operation (0 with a free profile).
    pub sim_ns_per_op: f64,
    /// Wall-clock nanoseconds per operation.
    pub wall_ns_per_op: f64,
}

/// Runs `ops` operations through `f`, measuring per-op read cost.
pub fn measure_reads(db: &Db, ops: u64, mut f: impl FnMut(u64)) -> ReadCost {
    let io0 = db.io_stats();
    let s0 = db.stats().snapshot();
    let t0 = db.device().latency().clock().now_ns();
    let w0 = std::time::Instant::now();
    for i in 0..ops {
        f(i);
    }
    let wall = w0.elapsed().as_nanos() as f64;
    let io = db.io_stats().delta_since(&io0);
    let s = db.stats().snapshot().delta_since(&s0);
    let t = db.device().latency().clock().now_ns() - t0;
    let n = ops.max(1) as f64;
    ReadCost {
        blocks_per_op: io.total_read_blocks() as f64 / n,
        data_blocks_per_op: io.category(IoCategory::Data).read_blocks as f64 / n,
        runs_per_op: s.runs_probed as f64 / n,
        prunes_per_op: s.filter_prunes as f64 / n,
        sim_ns_per_op: t as f64 / n,
        wall_ns_per_op: wall / n,
    }
}

/// Zero-result point lookups: present-looking keys that were never
/// inserted (inside the key range, so fences cannot prune them).
pub fn measure_empty_gets(db: &Db, n_keyspace: u64, probes: u64) -> ReadCost {
    measure_reads(db, probes, |i| {
        let id = i.wrapping_mul(48271) % n_keyspace;
        let mut k = encode_key(id);
        k.push(b'!'); // just after a real key, never inserted
        db.get(&k).unwrap();
    })
}

/// Present-key point lookups, uniform over the key space.
pub fn measure_present_gets(db: &Db, n_keyspace: u64, probes: u64) -> ReadCost {
    measure_reads(db, probes, |i| {
        let id = i.wrapping_mul(48271) % n_keyspace;
        let got = db.get(&encode_key(id)).unwrap();
        assert!(got.is_some(), "present key lost");
    })
}

/// Zipfian present-key lookups (for cache experiments).
pub fn measure_zipf_gets(db: &Db, n_keyspace: u64, probes: u64, theta: f64, seed: u64) -> ReadCost {
    let zipf = ZipfSampler::new(n_keyspace, theta);
    let mut rng = StdRng::seed_from_u64(seed);
    measure_reads(db, probes, |_| {
        let rank = zipf.sample(&mut rng);
        let id = rank.wrapping_mul(2654435761) % n_keyspace;
        db.get(&encode_key(id)).unwrap();
    })
}

/// Short range scans starting at existing keys.
pub fn measure_scans(db: &Db, n_keyspace: u64, probes: u64, scan_len: usize) -> ReadCost {
    measure_reads(db, probes, |i| {
        let id = i.wrapping_mul(48271) % n_keyspace;
        let start = encode_key(id);
        let mut end = encode_key(n_keyspace.saturating_mul(2));
        end.extend_from_slice(b"zzz");
        db.scan(start..end, scan_len).unwrap();
    })
}

/// Prints an aligned table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Prints a table with a header, auto-widths, and a rule.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Prints the header and remembers column widths.
    pub fn new(header: &[&str]) -> Self {
        let widths: Vec<usize> = header.iter().map(|h| h.len().max(9)).collect();
        let line = row(
            &header.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
            &widths,
        );
        println!("{line}");
        println!("{}", "-".repeat(line.len()));
        TablePrinter { widths }
    }

    /// Prints one row.
    pub fn print(&self, cells: &[String]) {
        println!("{}", row(cells, &self.widths));
    }
}

/// Format helper: fixed-point, two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format helper: 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format helper: percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_roundtrip() {
        let db = Db::open_in_memory(base_config()).unwrap();
        fill_scattered(&db, 2000, 32);
        let present = measure_present_gets(&db, 2000, 200);
        assert!(present.runs_per_op > 0.0);
        let empty = measure_empty_gets(&db, 2000, 200);
        assert!(empty.runs_per_op >= 0.0);
        // part of the data may still sit in the memtable, so the floor is
        // below 1.0 at this tiny scale
        assert!(write_amp(&db) > 0.5, "write amp {}", write_amp(&db));
    }

    #[test]
    fn scans_measure() {
        let db = Db::open_in_memory(base_config()).unwrap();
        fill_scattered(&db, 2000, 32);
        let c = measure_scans(&db, 2000, 50, 20);
        assert!(c.blocks_per_op > 0.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f3(0.1234), "0.123");
        assert_eq!(pct(0.5), "50.0%");
    }
}
