//! Engine-level operation statistics.
//!
//! Complements the storage layer's [`lsm_storage::IoStats`]: the device
//! counts blocks; these counters attribute them to engine behaviour
//! (filter prunes, runs probed per lookup, compaction work), which is what
//! the experiment tables report.

use std::sync::Arc;

use lsm_obs::{Counter, MetricsRegistry};

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Engine counters: handles on the `db.<field>` series of the
        /// engine's registry, registered once at open.
        pub struct DbStats {
            $($(#[$doc])* pub(crate) $name: Arc<Counter>,)+
        }

        /// Point-in-time copy of [`DbStats`].
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct DbStatsSnapshot {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl DbStats {
            pub(crate) fn register(registry: &MetricsRegistry) -> Self {
                DbStats {
                    $($name: registry.counter(concat!("db.", stringify!($name))),)+
                }
            }

            /// Snapshots every counter.
            pub fn snapshot(&self) -> DbStatsSnapshot {
                DbStatsSnapshot {
                    $($name: self.$name.get(),)+
                }
            }
        }

        // the workspace-wide saturating snapshot delta
        lsm_obs::impl_delta_since!(DbStatsSnapshot { $($name),+ });
    };
}

counters! {
    /// Put operations accepted.
    puts,
    /// Delete operations accepted.
    deletes,
    /// Get operations served.
    gets,
    /// Gets that found a live value.
    gets_found,
    /// Scan operations served.
    scans,
    /// Entries returned by scans.
    scan_entries,
    /// User bytes ingested (keys + values of puts).
    bytes_ingested,
    /// Memtable flushes.
    flushes,
    /// Compactions executed.
    compactions,
    /// Entries written by compactions (the write-amplification driver).
    compaction_entries,
    /// Tombstones dropped by last-level compaction GC.
    tombstones_dropped,
    /// Obsolete versions dropped during merges.
    versions_dropped,
    /// Sorted runs probed by point lookups.
    runs_probed,
    /// Probes answered negatively by a point filter (no data I/O).
    filter_prunes,
    /// Data blocks examined by point lookups.
    blocks_examined,
    /// Lookups pruned by table key ranges (no filter probe needed).
    range_prunes,
    /// Tables skipped by range filters during scans.
    range_filter_prunes,
    /// Blocks re-admitted by post-compaction prefetch.
    prefetched_blocks,
    /// Values written to the value log (key-value separation).
    vlog_values,
    /// Value-log pointer resolutions on reads.
    vlog_resolves,
    /// Entries moved by the single largest compaction (tail-latency proxy:
    /// synchronous maintenance stalls the write path for this long).
    largest_compaction_entries,
    /// Logical WAL appends issued (one per single write, one per
    /// group-commit batch — the denominator of the batching win).
    wal_appends,
    /// `write_batch_mut` / `write_batch_replicated` calls accepted.
    write_batches,
    /// Individual operations carried inside those batches.
    batched_writes,
    /// Versions a running merge installed at its frontier, before its
    /// final install: one manifest write each.
    frontier_installs,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_the_registered_series() {
        let registry = MetricsRegistry::new();
        let s = DbStats::register(&registry);
        s.puts.inc();
        s.puts.inc();
        s.bytes_ingested.add(100);
        s.largest_compaction_entries.record_max(7);
        s.largest_compaction_entries.record_max(3);
        let snap = s.snapshot();
        assert_eq!(snap.puts, 2);
        assert_eq!(snap.bytes_ingested, 100);
        assert_eq!(snap.largest_compaction_entries, 7);
        let m = registry.snapshot();
        assert_eq!(m.counters["db.puts"], 2);
        assert_eq!(m.counters["db.bytes_ingested"], 100);
        assert_eq!(m.counters["db.largest_compaction_entries"], 7);
    }

    #[test]
    fn delta() {
        let a = DbStatsSnapshot {
            gets: 5,
            puts: 2,
            ..Default::default()
        };
        let b = DbStatsSnapshot {
            gets: 9,
            puts: 2,
            ..Default::default()
        };
        let d = b.delta_since(&a);
        assert_eq!(d.gets, 4);
        assert_eq!(d.puts, 0);
    }
}
