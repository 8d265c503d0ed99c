//! The two embedded-engine workloads: one thread calls `Db` directly
//! (`BackgroundMode::Inline`, no server, no timers), so every device and
//! engine count repeats exactly for a given seed.
//!
//! - `engine-read-cold`: uniform GETs, half present and half
//!   absent-in-range, over a data set ~14× the block cache.
//! - `engine-write-scan`: PUT/DELETE/SCAN mix over a tree that flushes
//!   and merges while it is scanned.
//!
//! Both run a **fixed op count** — `ops_per_s` below, frozen at the commit
//! that added the benchmark, × the window length — so a faster engine
//! finishes sooner instead of doing more work, and counts stay comparable.

use std::sync::Arc;
use std::time::Instant;

use lsm_core::{BackgroundMode, Db, LsmConfig};
use lsm_storage::StorageDevice;
use lsm_workload::{decode_key, encode_key, keyspace::make_value, ZipfSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::*;
use crate::hist::{self, Hist};
use crate::probes;
use crate::trace::Tracer;

/// Greater than every `user…` key: the open end of a scan.
const SCAN_END: &[u8] = b"v";
const SCAN_LIMIT: usize = 50;
/// A PUT or DELETE slower than this was blocked by maintenance.
const STALL_NS: u64 = 1_000_000;

#[derive(Clone, Copy, PartialEq)]
pub enum Mix {
    /// 50 % GET of a loaded key, 50 % GET of key + `!` (inside the key
    /// range, so fence pointers cannot prune it; only filters can).
    ReadCold,
    /// 35 % fresh insert, 35 % zipfian update, 10 % DELETE, 20 % SCAN.
    WriteScan,
}

pub struct Spec {
    pub mix: Mix,
    pub records: u64,
    pub cache_bytes: usize,
    /// Ops per second of window, frozen (see module docs).
    pub ops_per_s: u64,
    /// Slices in the window. A slice of the write workload must span
    /// whole memtable fill-and-flush cycles, or its scan latency depends
    /// on where in the cycle it happened to fall.
    pub slices: usize,
}

pub const READ_COLD: Spec = Spec {
    mix: Mix::ReadCold,
    records: 300_000,
    cache_bytes: 2560 << 10,
    ops_per_s: 200_000,
    slices: SLICES,
};

pub const WRITE_SCAN: Spec = Spec {
    mix: Mix::WriteScan,
    records: 300_000,
    cache_bytes: 8 << 20,
    ops_per_s: 11_000,
    slices: 8,
};

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Get,
    GetAbsent,
    Insert,
    Update,
    Delete,
    Scan,
}

struct Op {
    kind: Kind,
    id: u64,
    key: Vec<u8>,
    value: Vec<u8>,
}

/// Seeded op source; the engine only ever sees what `next_ops` returns.
struct Generator {
    mix: Mix,
    rng: StdRng,
    zipf: ZipfSampler,
    records: u64,
    next_insert: u64,
    gen_ns: u64,
    generated: u64,
}

impl Generator {
    fn new(spec: &Spec, records: u64, seed: u64) -> Generator {
        Generator {
            mix: spec.mix,
            rng: StdRng::seed_from_u64(seed ^ 0x5EED_0FB5),
            zipf: ZipfSampler::new(records, 0.99),
            records,
            next_insert: records,
            gen_ns: 0,
            generated: 0,
        }
    }

    fn uniform(&mut self) -> u64 {
        self.rng.gen_range(0..self.records)
    }

    fn zipfian(&mut self) -> u64 {
        // scatter ranks so hot ids are not neighbours (as WorkloadGenerator does)
        self.zipf
            .sample(&mut self.rng)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            % self.records
    }

    /// Generates and encodes the next `n` ops, outside any timed span.
    fn next_ops(&mut self, n: usize) -> Vec<Op> {
        let t0 = Instant::now();
        let ops = (0..n)
            .map(|_| {
                let r: f64 = self.rng.gen();
                let (kind, id) = match self.mix {
                    Mix::ReadCold if r < 0.5 => (Kind::Get, self.uniform()),
                    Mix::ReadCold => (Kind::GetAbsent, self.uniform()),
                    Mix::WriteScan if r < 0.35 => {
                        self.next_insert += 1;
                        (Kind::Insert, self.next_insert - 1)
                    }
                    Mix::WriteScan if r < 0.70 => (Kind::Update, self.zipfian()),
                    Mix::WriteScan if r < 0.80 => (Kind::Delete, self.uniform()),
                    Mix::WriteScan => (Kind::Scan, self.uniform()),
                };
                let mut key = encode_key(id);
                let value = match kind {
                    Kind::GetAbsent => {
                        key.push(b'!');
                        Vec::new()
                    }
                    Kind::Insert => make_value(id, VALUE_LEN),
                    Kind::Update => make_value(id ^ 0xDEAD, VALUE_LEN),
                    _ => Vec::new(),
                };
                Op {
                    kind,
                    id,
                    key,
                    value,
                }
            })
            .collect();
        self.gen_ns += t0.elapsed().as_nanos() as u64;
        self.generated += n as u64;
        ops
    }
}

/// The embedded oracle: per id, 0 = absent, 1 = holds `make_value(id)`,
/// 2 = holds `make_value(id ^ 0xDEAD)`. Key order is id order.
struct Oracle {
    state: Vec<u8>,
    /// Ids of acknowledged writes, in order (for the recovery check).
    acked: Vec<u64>,
}

impl Oracle {
    fn value_ok(&self, id: u64, got: &[u8]) -> bool {
        match self.state.get(id as usize) {
            Some(1) => value_matches(id, got),
            Some(2) => value_matches(id ^ 0xDEAD, got),
            _ => false,
        }
    }

    fn live(&self, id: u64) -> bool {
        self.state.get(id as usize).is_some_and(|&s| s != 0)
    }

    fn write(&mut self, id: u64, s: u8) {
        if self.state.len() <= id as usize {
            self.state.resize(id as usize + 1, 0);
        }
        self.state[id as usize] = s;
        self.acked.push(id);
    }

    /// A scan from `start` must return exactly the next `SCAN_LIMIT` live
    /// ids in order, each with the value the oracle holds. `flat` is the
    /// scan's output as fixed-size key+value records.
    fn scan_ok(&self, start: u64, flat: &[u8]) -> bool {
        let rec = RECORD_BYTES as usize;
        if !flat.len().is_multiple_of(rec) || flat.len() / rec > SCAN_LIMIT {
            return false;
        }
        let mut expect = (start..self.state.len() as u64).filter(|&id| self.live(id));
        let all_match = flat.chunks(rec).all(|r| {
            let (k, v) = r.split_at(KEY_LEN);
            expect
                .next()
                .is_some_and(|id| decode_key(k) == Some(id) && self.value_ok(id, v))
        });
        // short only when the key space ran out
        all_match && (flat.len() / rec == SCAN_LIMIT || expect.next().is_none())
    }
}

struct Loaded {
    db: Db,
    dev: Arc<dyn StorageDevice>,
    cfg: LsmConfig,
}

/// Set-up: load in scattered order, flush, settle, warm the cache with
/// the workload's own read op.
fn set_up(spec: &Spec, records: u64) -> Loaded {
    let cfg = engine_config(BackgroundMode::Inline, 1, spec.cache_bytes);
    let (db, dev) = open_db(&cfg);
    for id in scattered(records, LOAD_SEED) {
        db.put(encode_key(id), make_value(id, VALUE_LEN))
            .expect("load put");
    }
    db.flush_all().expect("flush after load");
    db.wait_background_idle();
    let mut rng = StdRng::seed_from_u64(LOAD_SEED ^ 0xA11CE);
    let cache_blocks = (spec.cache_bytes / cfg.block_size) as u64;
    for _ in 0..(2 * cache_blocks).min(records) {
        let key = encode_key(rng.gen_range(0..records));
        match spec.mix {
            Mix::ReadCold => drop(db.get_with(&key, |_| ()).expect("warm get")),
            Mix::WriteScan => drop(
                db.scan_with(&key, SCAN_END, SCAN_LIMIT, |_, _| ())
                    .expect("warm scan"),
            ),
        }
    }
    Loaded { db, dev, cfg }
}

/// The window plus what the stall and levelling-off metrics need.
#[derive(Default)]
struct Run {
    w: Window,
    stall_ns: u64,
    /// (device bytes written, user bytes ingested) after each slice.
    write_marks: Vec<(u64, u64)>,
}

/// Executes `ops` as one slice. With a tracer each op is a root `op` span
/// with one `core.db.<op>` child and no latency is recorded; without, each
/// public call is timed into the slice's histograms.
fn run_slice(
    db: &Db,
    ops: Vec<Op>,
    oracle: &mut Oracle,
    run: &mut Run,
    mut tracer: Option<&mut Tracer>,
    op_base: u64,
) {
    let (mut get, mut put, mut scan) = (Hist::default(), Hist::default(), Hist::default());
    let mut flat = Vec::with_capacity(SCAN_LIMIT * RECORD_BYTES as usize);
    let t_slice = Instant::now();
    for (i, op) in ops.into_iter().enumerate() {
        let Op {
            kind,
            id,
            key,
            value,
        } = op;
        let span_name = match kind {
            Kind::Get | Kind::GetAbsent => "core.db.get",
            Kind::Insert | Kind::Update => "core.db.put",
            Kind::Delete => "core.db.delete",
            Kind::Scan => "core.db.scan",
        };
        let spans = tracer.as_deref_mut().map(|t| {
            let root = t.open("op", 0, op_base + i as u64);
            (root, t.open(span_name, root, op_base + i as u64))
        });
        let t0 = Instant::now();
        // Ok(true): answered and right; Ok(false): wrong bytes
        let outcome = match kind {
            Kind::Get => db
                .get_with(&key, |v| oracle.value_ok(id, v))
                .map(|r| r.unwrap_or(!oracle.live(id))),
            Kind::GetAbsent => db.get_with(&key, |_| ()).map(|r| r.is_none()),
            Kind::Insert | Kind::Update => db.put(key, value).map(|()| true),
            Kind::Delete => db.delete(key).map(|()| true),
            Kind::Scan => {
                flat.clear();
                db.scan_with(&key, SCAN_END, SCAN_LIMIT, |k, v| {
                    flat.extend_from_slice(k);
                    flat.extend_from_slice(v);
                })
                .map(|_| true)
            }
        };
        let dt = t0.elapsed().as_nanos() as u64;
        if let (Some(t), Some((root, child))) = (tracer.as_deref_mut(), spans) {
            t.close(child);
            t.close(root);
        }
        run.w.attempted += 1;
        // bookkeeping below is outside the timed call
        let right = match (kind, &outcome) {
            (Kind::Scan, Ok(_)) => oracle.scan_ok(id, &flat),
            (_, Ok(right)) => *right,
            (_, Err(_)) => {
                run.w.failed += 1;
                continue;
            }
        };
        if !right {
            run.w.failed += 1;
            run.w.wrong_bytes += 1;
            continue;
        }
        match kind {
            Kind::Get | Kind::GetAbsent => get.record(dt),
            Kind::Scan => scan.record(dt),
            Kind::Insert | Kind::Update | Kind::Delete => {
                put.record(dt);
                if dt > STALL_NS {
                    run.stall_ns += dt;
                }
                oracle.write(
                    id,
                    match kind {
                        Kind::Insert => 1,
                        Kind::Update => 2,
                        _ => 0,
                    },
                );
            }
        }
    }
    // generation and bookkeeping between slices are outside the wall time
    run.w.wall_ns += t_slice.elapsed().as_nanos() as u64;
    run.w.done = run.w.attempted - run.w.failed;
    run.w.get.push(get);
    run.w.put.push(put);
    run.w.scan.push(scan);
    let snap = Snap::take(std::slice::from_ref(db));
    run.write_marks.push((
        snap.io(|s| s.total_written_blocks()) * db.config().block_size as u64,
        snap.db(|s| s.bytes_ingested),
    ));
}

/// Write-amp of the window's last third ÷ its middle third (1.0 once the
/// tree has levelled off); 0 when the window ingested nothing.
fn write_amp_last_vs_mid(marks: &[(u64, u64)]) -> f64 {
    let (a, b, n) = (marks.len() / 3, 2 * marks.len() / 3, marks.len());
    if a == 0 {
        return 0.0;
    }
    let amp = |from: (u64, u64), to: (u64, u64)| ratio(to.0 - from.0, to.1 - from.1);
    let (mid, last) = (
        amp(marks[a - 1], marks[b - 1]),
        amp(marks[b - 1], marks[n - 1]),
    );
    if mid == 0.0 {
        0.0
    } else {
        last / mid
    }
}

pub fn run(spec: &Spec, name: &str, plan: &Plan) -> Outcome {
    let records = plan.scaled(spec.records);
    let mut m = Metrics::default();
    let mut notes = Vec::new();

    let t0 = Instant::now();
    let Loaded { db, dev, cfg } = set_up(spec, records);
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];

    let mut oracle = Oracle {
        state: vec![1; records as usize],
        acked: Vec::new(),
    };
    let mut gen = Generator::new(spec, records, plan.seed);
    let per_slice =
        |secs: f64| ((spec.ops_per_s as f64 * secs * plan.scale) as usize / spec.slices).max(8);

    // discarded warm-up: a twentieth of the window
    let mut warm = Run::default();
    let warm_ops = gen.next_ops(per_slice(plan.window_s) * spec.slices / SLICES);
    run_slice(&db, warm_ops, &mut oracle, &mut warm, None, 0);

    // the measured window, tracing off
    let snap = || Snap::take(std::slice::from_ref(&db));
    let before = snap();
    let mut run = Run::default();
    for _ in 0..spec.slices {
        let ops = gen.next_ops(per_slice(plan.window_s));
        run_slice(&db, ops, &mut oracle, &mut run, None, 0);
    }
    db.flush_all().expect("final flush"); // space and write-amp without a WAL tail
    let after = snap();
    let delta = after.since(&before);
    latency_notes(&run.w, &mut notes);
    notes.push(format!(
        "window: {} ops in {:.3}s ({} slices of {}), {} records loaded",
        run.w.attempted,
        run.w.wall_ns as f64 / 1e9,
        spec.slices,
        per_slice(plan.window_s),
        records
    ));

    if !plan.trace {
        end_to_end_from_window(&run.w, &mut m);
        m.set("write_amp", write_amp(&after, cfg.block_size));
        let live = oracle.state.iter().filter(|&&s| s != 0).count() as u64;
        m.set("space_amp", space_amp(std::slice::from_ref(&dev), live));
        m.set("peak_heap_mb", peak_heap_mb());
        // the other set-ups, after everything that reads memory or timing
        drop((db, dev));
        for _ in 1..SETUP_REPEATS {
            let t0 = Instant::now();
            let again = set_up(spec, records);
            setup_s.push(t0.elapsed().as_secs_f64());
            drop(again);
        }
        m.set("setup_s", hist::median(&setup_s));
    } else {
        per_layer_from_counters(&run.w, &delta, &after, cfg.block_size, &mut m);
        m.set("put_stall_frac", ratio(run.stall_ns, run.w.wall_ns));
        m.set(
            "write_amp_last_vs_mid",
            write_amp_last_vs_mid(&run.write_marks),
        );
        let mean = |slices: &[Hist]| hist::merged(slices).mean();
        m.set("core.db.get_ns", mean(&run.w.get));
        m.set("core.db.put_ns", mean(&run.w.put));
        m.set("core.db.scan_ns", mean(&run.w.scan));

        // the traced run: the same stream, continued, with spans on
        let mut tracer = Tracer::new();
        let mut traced = Run::default();
        for s in 0..spec.slices {
            let ops = gen.next_ops(per_slice(plan.traced_s));
            let base = (s * per_slice(plan.traced_s)) as u64;
            run_slice(&db, ops, &mut oracle, &mut traced, Some(&mut tracer), base);
        }
        m.set(
            "bench.trace.overhead_frac",
            1.0 - traced.w.kops() / run.w.kops(),
        );
        run.w.attempted += traced.w.attempted;
        run.w.failed += traced.w.failed;
        run.w.wrong_bytes += traced.w.wrong_bytes;
        m.set("bench.gen.ns_per_op", ratio(gen.gen_ns, gen.generated));

        // absent-only slice: every block examined is a filter false positive
        let fp_before = snap();
        let mut rng = StdRng::seed_from_u64(plan.seed ^ 0xFA15E);
        for _ in 0..plan.scaled(50_000) {
            let key = [encode_key(rng.gen_range(0..records)).as_slice(), b"!"].concat();
            run.w.attempted += 1;
            if !matches!(db.get_with(&key, |_| ()), Ok(None)) {
                run.w.failed += 1;
            }
        }
        let fp = snap().since(&fp_before);
        m.set(
            "filters.false_positive_rate",
            ratio(fp.db(|s| s.blocks_examined), fp.db(|s| s.runs_probed)),
        );

        probes::components(&cfg, records, plan, &mut tracer, &mut m);
        probes::scans(&db, records, plan, &mut tracer, &mut m);
        let acked: Vec<u64> = oracle.acked.iter().rev().take(10_000).copied().collect();
        let lost = probes::recover_and_compact(vec![(db, dev)], &mut m, |dbs| {
            acked
                .iter()
                .filter(|&&id| !check_recovered(&dbs[0], &oracle, id))
                .count() as u64
        });
        run.w.attempted += acked.len() as u64;
        run.w.failed += lost;
        run.w.wrong_bytes += lost;
        probes::finish_trace(&tracer, name, plan, &mut m, &mut notes);
    }

    Outcome {
        attempted: run.w.attempted,
        failed: run.w.failed,
        correct: run.w.wrong_bytes == 0,
        metrics: m,
        notes,
    }
}

/// After a reopen, an acknowledged write must read back as the oracle
/// holds it (a later delete of the same id reads as absent).
fn check_recovered(db: &Db, oracle: &Oracle, id: u64) -> bool {
    match db.get_with(&encode_key(id), |v| oracle.value_ok(id, v)) {
        Ok(Some(right)) => right,
        Ok(None) => !oracle.live(id),
        Err(_) => false,
    }
}
