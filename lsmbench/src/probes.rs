//! Component probes: each layer's public entry point, called directly on
//! inputs shaped like the workload's (same key format, value size, block
//! size, filter kind and bits, cache policy), timed in batches. Each batch
//! is one un-parented `probe.<metric>` span, so the `*_ns` figures below
//! come from the trace like every other stage time.
//!
//! Also here: the post-window checks shared by all workloads (recovery on
//! the same device, a timed major compaction) and the trace write-out.

use std::sync::Arc;
use std::time::Instant;

use lsm_cache::{CacheKey, ShardedCache};
use lsm_core::memtable::Memtable;
use lsm_core::sstable::{BlockBuilder, BlockIter, Table, TableBuilder};
use lsm_core::wal::Wal;
use lsm_core::{BackgroundMode, Db, LsmConfig, ValueKind};
use lsm_index::{BlockLocator, FencePointers};
use lsm_storage::{Block, DeviceProfile, ImmutableFile, IoCategory, MemDevice, StorageDevice};
use lsm_workload::{encode_key, keyspace::make_value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::*;
use crate::hist;
use crate::trace::Tracer;

const BATCHES: usize = 9;

/// Calls `f(i)` for `BATCHES` batches of `per_batch` consecutive `i`,
/// one span per batch; returns the median ns per call.
fn probe(
    tracer: &mut Tracer,
    span: &'static str,
    per_batch: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let mut per_call = Vec::with_capacity(BATCHES);
    for b in 0..BATCHES {
        let id = tracer.open(span, 0, b as u64);
        for i in b * per_batch..(b + 1) * per_batch {
            f(i);
        }
        per_call.push(tracer.close(id) as f64 / per_batch as f64);
    }
    hist::median(&per_call)
}

fn scratch_device(cfg: &LsmConfig) -> Arc<dyn StorageDevice> {
    Arc::new(MemDevice::new(cfg.block_size, DeviceProfile::free()))
}

/// Probes that need no live engine, only the workload's shape.
pub fn components(
    cfg: &LsmConfig,
    records: u64,
    plan: &Plan,
    tracer: &mut Tracer,
    m: &mut Metrics,
) {
    let bb = std::hint::black_box::<bool>;
    let mut rng = StdRng::seed_from_u64(plan.seed ^ 0x9_0BE5);
    // one table's worth of consecutive loaded keys, and for each the
    // absent-in-range neighbour the read-cold workload asks for
    let per_table = ((cfg.target_table_bytes as u64 / RECORD_BYTES).min(records) as usize).max(64);
    let base = rng.gen_range(0..=records - per_table as u64);
    let ids: Vec<u64> = (base..base + per_table as u64).collect();
    let keys: Vec<Vec<u8>> = ids.iter().map(|&id| encode_key(id)).collect();
    let absent: Vec<Vec<u8>> = keys.iter().map(|k| [k.as_slice(), b"!"].concat()).collect();
    let value = make_value(base, VALUE_LEN);
    // visit keys in scattered order, as lookups arrive
    let order = scattered(per_table as u64, plan.seed);
    let pick = |i: usize| order[i % per_table] as usize;

    // lsm-filters: the configured kind and bits, half present half absent
    if let Some(filter) = cfg.filter.build(&keys, cfg.bits_per_key) {
        m.set("filters.bits_per_key", filter.bits_per_key());
        let ns = probe(tracer, "probe.filters.probe", 4096, |i| {
            let k = if i % 2 == 0 {
                &keys[pick(i)]
            } else {
                &absent[pick(i)]
            };
            bb(filter.may_contain(k));
        });
        m.set("filters.probe_ns", ns);
    }

    // lsm-core sstable + block, lsm-index, lsm-storage: one real table
    let dev = scratch_device(cfg);
    let mut tb = TableBuilder::new(Arc::clone(&dev), cfg, cfg.bits_per_key).expect("table builder");
    for (k, &id) in keys.iter().zip(&ids) {
        tb.add(k, id + 1, ValueKind::Put, &value)
            .expect("table add");
    }
    let (file, meta) = tb.finish().expect("table finish");
    let file_id = file.id();
    let fences = FencePointers::new(keys[0].clone(), meta.fences.clone());
    m.set(
        "index.bits_per_key",
        fences.size_bits() as f64 / per_table as f64,
    );
    let ns = probe(tracer, "probe.index.locate", 4096, |i| {
        std::hint::black_box(fences.locate(&keys[pick(i)]));
    });
    m.set("index.locate_ns", ns);

    let table = Table::open(file, cfg.index).expect("open table");
    let cache: ShardedCache<Block> = ShardedCache::new(cfg.cache_policy, 64 << 20, 8);
    for k in &keys {
        table.get_with(k, Some(&cache), |_| ()).expect("warm table");
    }
    let ns = probe(tracer, "probe.core.sstable.get_hit", 2048, |i| {
        let (hit, _) = table
            .get_with(&keys[pick(i)], Some(&cache), |e| e.value.len())
            .expect("table get");
        bb(hit.is_some());
    });
    m.set("core.sstable.get_hit_ns", ns);
    let ns = probe(tracer, "probe.core.sstable.get_pruned", 2048, |i| {
        let (hit, _) = table
            .get_with(&absent[pick(i)], Some(&cache), |e| e.value.len())
            .expect("table get");
        bb(hit.is_some());
    });
    m.set("core.sstable.get_pruned_ns", ns);

    let raw = ImmutableFile::open(Arc::clone(&dev), file_id).expect("reopen table file");
    let data_blocks = meta.data_blocks.len();
    let ns = probe(tracer, "probe.storage.read_block", 1024, |i| {
        let b = raw
            .read_blocks(
                meta.data_blocks[pick(i) % data_blocks].start_block,
                1,
                IoCategory::Data,
            )
            .expect("read block");
        bb(b.is_empty());
    });
    m.set("storage.read_block_ns", ns);

    // one full data block of workload entries
    let mut builder = BlockBuilder::new(cfg.restart_interval, cfg.block_hash_index);
    let mut in_block = 0;
    while builder.estimated_size() < cfg.block_size.saturating_sub(64) && in_block < per_table {
        builder.add(&keys[in_block], 1, ValueKind::Put, &value);
        in_block += 1;
    }
    let block = builder.finish();
    let ns = probe(tracer, "probe.core.block.seek", 4096, |i| {
        let mut it = BlockIter::new(block.as_slice()).expect("well-formed block");
        bb(it.seek(&keys[pick(i) % in_block]).expect("seek"));
    });
    m.set("core.block.seek_ns", ns);

    // lsm-cache: configured policy, block-sized values, a full cache
    let slots = 1024u64;
    let payload = Block::new(vec![7u8; cfg.block_size]);
    let small: ShardedCache<Block> =
        ShardedCache::new(cfg.cache_policy, slots as usize * payload.charge(), 8);
    for b in 0..slots * 2 {
        small.insert(CacheKey::new(1, b), payload.clone(), payload.charge());
    }
    let resident: Vec<u64> = (0..slots * 2)
        .filter(|&b| small.get(&CacheKey::new(1, b)).is_some())
        .collect();
    let ns = probe(tracer, "probe.cache.hit", 4096, |i| {
        bb(small
            .get(&CacheKey::new(1, resident[i % resident.len()]))
            .is_some());
    });
    m.set("cache.hit_ns", ns);
    let ns = probe(tracer, "probe.cache.miss_insert", 2048, |i| {
        let key = CacheKey::new(2, i as u64);
        if small.get(&key).is_none() {
            small.insert(key, payload.clone(), payload.charge());
        }
    });
    m.set("cache.miss_insert_ns", ns);

    // lsm-core memtable: fill one buffer in scattered order, then read it
    let mut mem = Memtable::new();
    let fill = cfg.buffer_bytes / (RECORD_BYTES as usize + 24);
    let mem_keys: Vec<Vec<u8>> = scattered(fill as u64, plan.seed)
        .into_iter()
        .map(|i| encode_key(base + i))
        .collect();
    let ns = probe(tracer, "probe.core.memtable.insert", fill / BATCHES, |i| {
        mem.insert(&mem_keys[i], i as u64, ValueKind::Put, &value);
    });
    m.set("core.memtable.insert_ns", ns);
    let ns = probe(tracer, "probe.core.memtable.get", 4096, |i| {
        bb(mem
            .get_ref(&mem_keys[i % (fill / BATCHES * BATCHES)])
            .is_some());
    });
    m.set("core.memtable.get_ns", ns);

    // lsm-core WAL: single appends, then group appends of 16
    let mut wal = Wal::create(scratch_device(cfg)).expect("create wal");
    let ns = probe(tracer, "probe.core.wal.append", 2048, |i| {
        wal.append(i as u64, ValueKind::Put, &keys[pick(i)], &value)
            .expect("wal append");
    });
    m.set("core.wal.append_ns", ns);
    let group: Vec<(u64, ValueKind, Vec<u8>, Vec<u8>)> = (0..16)
        .map(|i| {
            (
                i as u64,
                ValueKind::Put,
                keys[pick(i)].clone(),
                value.clone(),
            )
        })
        .collect();
    let ns = probe(tracer, "probe.core.wal.append_batch", 128, |_| {
        wal.append_batch(&group).expect("wal append batch");
    });
    m.set("core.wal.append_batch_ns_per_op", ns / 16.0);

    // lsm-obs: the fixed cost inside every op
    let h = lsm_obs::Histogram::new();
    let ns = probe(tracer, "probe.obs.histogram.record", 8192, |i| {
        h.record(1_000 + i as u64)
    });
    m.set("obs.histogram.record_ns", ns);

    // lsm-core flush: one nearly full buffer to one L0 table
    let flush_cfg = LsmConfig {
        background: BackgroundMode::Inline,
        ..cfg.clone()
    };
    let mut ms_per_mib = Vec::new();
    for _ in 0..3 {
        let (db, _dev) = open_db(&flush_cfg);
        let n = fill * 9 / 10;
        for k in &mem_keys[..n] {
            db.put(k.clone(), value.clone()).expect("fill buffer");
        }
        let id = tracer.open("probe.core.flush", 0, 0);
        db.flush().expect("flush");
        let flush_ns = tracer.close(id);
        let mib = (n as u64 * RECORD_BYTES) as f64 / (1 << 20) as f64;
        ms_per_mib.push(flush_ns as f64 / 1e6 / mib);
    }
    m.set("core.flush.ms_per_mb", hist::median(&ms_per_mib));
}

/// Scan probes on the workload's own tree: cursor set-up (limit 1) and
/// streaming rate (limit 1000).
pub fn scans(db: &Db, records: u64, plan: &Plan, tracer: &mut Tracer, m: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(plan.seed ^ 0x5CA9);
    let starts: Vec<Vec<u8>> = (0..BATCHES * 256)
        .map(|_| encode_key(rng.gen_range(0..records)))
        .collect();
    let ns = probe(tracer, "probe.core.iter.scan_setup", 256, |i| {
        db.scan_with(&starts[i], b"v", 1, |_, _| ()).expect("scan");
    });
    m.set("core.iter.scan_setup_ns", ns);
    let mut entries = 0usize;
    let id = tracer.open("probe.core.iter.scan_stream", 0, 0);
    for start in &starts[..64] {
        entries += db.scan_with(start, b"v", 1000, |_, _| ()).expect("scan");
    }
    let stream_ns = (tracer.close(id) as f64 - 64.0 * ns).max(1.0);
    m.set(
        "core.iter.scan_entries_per_s",
        entries as f64 / (stream_ns / 1e9),
    );
}

/// Drops every engine, reopens each on its own device (timed:
/// `core.recover_ms`), lets `count_lost` check acknowledged writes against
/// the reopened engines, then times one `major_compact()` per engine
/// (`core.compaction.mb_per_s`, data bytes written per second). Returns how
/// many acknowledged writes the reopened engines did not hold.
pub fn recover_and_compact(
    shards: Vec<(Db, Arc<dyn StorageDevice>)>,
    m: &mut Metrics,
    count_lost: impl FnOnce(&[Db]) -> u64,
) -> u64 {
    let parts: Vec<(LsmConfig, Arc<dyn StorageDevice>)> = shards
        .into_iter()
        .map(|(db, dev)| (db.config().clone(), dev))
        .collect();
    let t0 = Instant::now();
    let dbs: Vec<Db> = parts
        .iter()
        .map(|(cfg, dev)| {
            Db::open(Arc::clone(dev), cfg.clone()).expect("reopen on the same device")
        })
        .collect();
    m.set("core.recover_ms", t0.elapsed().as_secs_f64() * 1e3);
    let lost = count_lost(&dbs);

    let before = Snap::take(&dbs);
    let t0 = Instant::now();
    for db in &dbs {
        db.major_compact().expect("major compaction");
        db.wait_background_idle();
    }
    let secs = t0.elapsed().as_secs_f64();
    let d = Snap::take(&dbs).since(&before);
    let bytes =
        d.io(|s| s.category(IoCategory::Data).written_blocks) * parts[0].0.block_size as u64;
    m.set(
        "core.compaction.mb_per_s",
        bytes as f64 / (1 << 20) as f64 / secs,
    );
    lost
}

/// Spans written per trace file; the rest stay counted in the summary.
const TRACE_FILE_SPANS: usize = 100_000;

/// Sets the `bench.trace.*` bookkeeping metrics, writes the trace file
/// when the plan names a directory, and notes per-span self times.
pub fn finish_trace(
    tracer: &Tracer,
    workload: &str,
    plan: &Plan,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) {
    m.set(
        "bench.trace.span_overhead_ns",
        Tracer::calibrate_empty_span_ns(),
    );
    m.set("bench.trace.spans", tracer.spans.len() as f64);
    for (name, (n, total, own)) in tracer.summary() {
        notes.push(format!(
            "span {name}: n={n} mean={:.0}ns self_mean={:.0}ns",
            total as f64 / n as f64,
            own as f64 / n as f64
        ));
    }
    if let Some(dir) = plan.out_dir {
        let path = std::path::Path::new(dir).join(format!("{workload}.trace.jsonl"));
        match tracer.write_jsonl(&path, TRACE_FILE_SPANS) {
            Ok(()) => notes.push(format!(
                "trace: {} (first {} of {} spans)",
                path.display(),
                tracer.spans.len().min(TRACE_FILE_SPANS),
                tracer.spans.len()
            )),
            Err(e) => notes.push(format!("trace: not written ({e})")),
        }
    }
}
