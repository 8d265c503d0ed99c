//! The ledger's vocabulary: workload and metric names with their units.
//! `/BENCHMARK.json` declares the same lists (a unit test keeps the two
//! equal); later issues refer to workloads and metrics by these names.

pub const SERVED_READ_HOT: &str = "served-read-hot";
pub const SERVED_MIXED: &str = "served-mixed";
pub const ENGINE_READ_COLD: &str = "engine-read-cold";
pub const ENGINE_WRITE_SCAN: &str = "engine-write-scan";

pub const WORKLOADS: [&str; 4] = [
    SERVED_READ_HOT,
    SERVED_MIXED,
    ENGINE_READ_COLD,
    ENGINE_WRITE_SCAN,
];

/// Printed by `--trace 0`. Every workload produces every one of these,
/// and none is ever 0 (a bound is a share of the parent's median).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_kops", "kops/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("op_p99_us", "us"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("peak_heap_mb", "MiB"),
];

/// Printed by `--trace 1`, named `<crate>.<module>.<what>`. A metric the
/// workload's op mix cannot produce reads 0 (the driver wants every name
/// on every run); README.md lists which those are.
pub const PER_LAYER: [(&str, &str); 78] = [
    // the workload's own ops, by kind, from the untraced window — the
    // issue's end-to-end names that not every workload can produce
    ("get_p50_us", "us"),
    ("get_p99_us", "us"),
    ("put_p50_us", "us"),
    ("put_p99_us", "us"),
    ("scan_p50_us", "us"),
    ("scan_p99_us", "us"),
    ("read_blocks_per_op", "blocks"),
    ("put_stall_frac", "ratio"),
    ("failed_frac", "ratio"),
    ("write_amp_last_vs_mid", "ratio"),
    // lsm-server
    ("server.protocol.decode_ns", "ns"),
    ("server.protocol.encode_ns", "ns"),
    ("server.router.route_ns", "ns"),
    ("server.conn.rtt_depth1_us", "us"),
    ("server.conn.residual_us", "us"),
    ("server.get_service_mean_ns", "ns"),
    ("server.put_service_mean_ns", "ns"),
    ("server.batcher.batch_ops_mean", "count"),
    ("server.batcher.wal_appends_per_put", "ratio"),
    ("server.batcher.commit_ns", "ns"),
    ("server.requests", "count"),
    ("server.sheds", "count"),
    ("server.malformed", "count"),
    // lsm-core
    ("core.db.get_ns", "ns"),
    ("core.db.put_ns", "ns"),
    ("core.db.scan_ns", "ns"),
    ("core.db.runs_probed_per_get", "count"),
    ("core.db.range_prunes_per_get", "count"),
    ("core.db.blocks_examined_per_get", "count"),
    ("core.memtable.insert_ns", "ns"),
    ("core.memtable.get_ns", "ns"),
    ("core.wal.append_ns", "ns"),
    ("core.wal.append_batch_ns_per_op", "ns"),
    ("core.wal.bytes_per_user_byte", "ratio"),
    ("core.block.seek_ns", "ns"),
    ("core.sstable.get_hit_ns", "ns"),
    ("core.sstable.get_pruned_ns", "ns"),
    ("core.iter.scan_setup_ns", "ns"),
    ("core.iter.scan_entries_per_s", "1/s"),
    ("core.flush.count", "count"),
    ("core.flush.ms_per_mb", "ms/MiB"),
    ("core.compaction.count", "count"),
    ("core.compaction.entries_per_put", "ratio"),
    ("core.compaction.mb_per_s", "MiB/s"),
    ("core.compaction.largest_entries", "count"),
    ("core.stalls.slowdowns", "count"),
    ("core.stalls.stalls", "count"),
    ("core.gc.tombstones_dropped", "count"),
    ("core.gc.versions_dropped", "count"),
    ("core.recover_ms", "ms"),
    // lsm-filters
    ("filters.probe_ns", "ns"),
    ("filters.prunes_per_get", "count"),
    ("filters.false_positive_rate", "ratio"),
    ("filters.bits_per_key", "bits"),
    // lsm-index
    ("index.locate_ns", "ns"),
    ("index.bits_per_key", "bits"),
    // lsm-cache
    ("cache.hit_rate", "ratio"),
    ("cache.hit_ns", "ns"),
    ("cache.miss_insert_ns", "ns"),
    // lsm-storage
    ("storage.read_blocks.data", "blocks/op"),
    ("storage.read_blocks.filter", "blocks/op"),
    ("storage.read_blocks.index", "blocks/op"),
    ("storage.read_ops_per_op", "ratio"),
    ("storage.written_blocks.data", "blocks/MiB"),
    ("storage.written_blocks.wal", "blocks/MiB"),
    ("storage.read_block_ns", "ns"),
    ("storage.sim_nvme_us_per_op", "us"),
    ("storage.retries", "count"),
    ("storage.corruption_detected", "count"),
    // lsm-obs
    ("obs.histogram.record_ns", "ns"),
    // the benchmark itself
    ("bench.client.encode_ns", "ns"),
    ("bench.client.decode_ns", "ns"),
    ("bench.gen.ns_per_op", "ns"),
    ("bench.gen.lag_p99_us", "us"),
    ("bench.gen.late_frac", "ratio"),
    ("bench.trace.overhead_frac", "ratio"),
    ("bench.trace.span_overhead_ns", "ns"),
    ("bench.trace.spans", "count"),
];
