//! Exact, categorized I/O accounting.
//!
//! Every experiment in the suite reports its results in terms of these
//! counters: block reads per lookup, blocks written per ingested byte
//! (write amplification), and the split between data, filter, index, and
//! WAL traffic. Each counter is an `io.*` series in the device's own
//! [`MetricsRegistry`]; [`IoStatsSnapshot`] is a typed view of the same
//! handles.

use std::sync::Arc;

use lsm_obs::{Counter, MetricsRegistry, MetricsSnapshot};

/// What a given I/O was for. Lets experiments separate, e.g., filter-block
/// fetches from data-block fetches when reporting lookup cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IoCategory {
    /// SSTable data blocks.
    Data,
    /// Filter blocks (Bloom/cuckoo/range filters).
    Filter,
    /// Index blocks (fence pointers, learned index payloads).
    Index,
    /// Write-ahead-log traffic.
    Wal,
    /// Value-log traffic (key-value separation).
    ValueLog,
    /// Anything else (manifest, footers).
    Misc,
}

impl IoCategory {
    /// All categories, in display order.
    pub const ALL: [IoCategory; 6] = [
        IoCategory::Data,
        IoCategory::Filter,
        IoCategory::Index,
        IoCategory::Wal,
        IoCategory::ValueLog,
        IoCategory::Misc,
    ];

    fn idx(self) -> usize {
        match self {
            IoCategory::Data => 0,
            IoCategory::Filter => 1,
            IoCategory::Index => 2,
            IoCategory::Wal => 3,
            IoCategory::ValueLog => 4,
            IoCategory::Misc => 5,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            IoCategory::Data => "data",
            IoCategory::Filter => "filter",
            IoCategory::Index => "index",
            IoCategory::Wal => "wal",
            IoCategory::ValueLog => "vlog",
            IoCategory::Misc => "misc",
        }
    }
}

/// One category's handles: `io.<label>.{read_blocks,written_blocks,read_ops,write_ops}`.
struct CategoryCounters {
    read_blocks: Arc<Counter>,
    written_blocks: Arc<Counter>,
    read_ops: Arc<Counter>,
    write_ops: Arc<Counter>,
}

struct Counters {
    per_category: [CategoryCounters; 6],
    retries: Arc<Counter>,
    corruption_detected: Arc<Counter>,
    write_slowdowns: Arc<Counter>,
    write_stalls: Arc<Counter>,
    registry: MetricsRegistry,
}

/// Thread-safe I/O counters, cheap to clone (shared via `Arc`): the
/// `io.*` series of a registry owned by the device they count.
#[derive(Clone)]
pub struct IoStats {
    inner: Arc<Counters>,
}

impl Default for IoStats {
    fn default() -> Self {
        Self::new()
    }
}

impl IoStats {
    /// Fresh zeroed counters, registered once in a registry of their own.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        let counter = |name: &str| registry.counter(&format!("io.{name}"));
        let per_category = IoCategory::ALL.map(|cat| {
            let of = |what: &str| counter(&format!("{}.{what}", cat.label()));
            CategoryCounters {
                read_blocks: of("read_blocks"),
                written_blocks: of("written_blocks"),
                read_ops: of("read_ops"),
                write_ops: of("write_ops"),
            }
        });
        let inner = Counters {
            per_category,
            retries: counter("retries"),
            corruption_detected: counter("corruption_detected"),
            write_slowdowns: counter("write_slowdowns"),
            write_stalls: counter("write_stalls"),
            registry,
        };
        IoStats { inner: Arc::new(inner) }
    }

    /// Records a read of `blocks` consecutive blocks in `cat`.
    pub fn record_read(&self, cat: IoCategory, blocks: u64) {
        let c = &self.inner.per_category[cat.idx()];
        c.read_blocks.add(blocks);
        c.read_ops.inc();
    }

    /// Records a write of `blocks` consecutive blocks in `cat`.
    pub fn record_write(&self, cat: IoCategory, blocks: u64) {
        let c = &self.inner.per_category[cat.idx()];
        c.written_blocks.add(blocks);
        c.write_ops.inc();
    }

    /// Records one retry of an I/O op after a transient device error.
    pub fn record_retry(&self) {
        self.inner.retries.inc();
    }

    /// Records one detected-and-rejected corruption (checksum mismatch,
    /// undecodable frame, torn tail).
    pub fn record_corruption(&self) {
        self.inner.corruption_detected.inc();
    }

    /// Records one write delayed by L0 backpressure (slowdown band).
    pub fn record_write_slowdown(&self) {
        self.inner.write_slowdowns.inc();
    }

    /// Records one write blocked by L0 backpressure (stall threshold).
    pub fn record_write_stall(&self) {
        self.inner.write_stalls.inc();
    }

    /// Point-in-time copy of all counters.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        let c = &*self.inner;
        IoStatsSnapshot {
            per_category: c.per_category.each_ref().map(|c| CategorySnapshot {
                read_blocks: c.read_blocks.get(),
                written_blocks: c.written_blocks.get(),
                read_ops: c.read_ops.get(),
                write_ops: c.write_ops.get(),
            }),
            retries: c.retries.get(),
            corruption_detected: c.corruption_detected.get(),
            write_slowdowns: c.write_slowdowns.get(),
            write_stalls: c.write_stalls.get(),
        }
    }

    /// The same counters as named `io.*` series.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.registry.snapshot()
    }
}

/// Counters for one [`IoCategory`] inside a snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CategorySnapshot {
    /// Blocks read.
    pub read_blocks: u64,
    /// Blocks written.
    pub written_blocks: u64,
    /// Read calls (a multi-block sequential read is one op).
    pub read_ops: u64,
    /// Write calls.
    pub write_ops: u64,
}

/// Immutable copy of [`IoStats`] at one point in time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    per_category: [CategorySnapshot; 6],
    /// I/O ops retried after a transient device error.
    pub retries: u64,
    /// Corruptions detected and rejected (checksum mismatches, torn tails).
    pub corruption_detected: u64,
    /// Writes delayed by L0 backpressure (slowdown band).
    pub write_slowdowns: u64,
    /// Writes blocked by L0 backpressure (stall threshold).
    pub write_stalls: u64,
}

impl IoStatsSnapshot {
    /// Counters for one category.
    pub fn category(&self, cat: IoCategory) -> CategorySnapshot {
        self.per_category[cat.idx()]
    }

    /// Total blocks read across all categories.
    pub fn total_read_blocks(&self) -> u64 {
        self.per_category.iter().map(|c| c.read_blocks).sum()
    }

    /// Total blocks written across all categories.
    pub fn total_written_blocks(&self) -> u64 {
        self.per_category.iter().map(|c| c.written_blocks).sum()
    }

    /// Total read calls across all categories.
    pub fn total_read_ops(&self) -> u64 {
        self.per_category.iter().map(|c| c.read_ops).sum()
    }

    /// Total write calls across all categories.
    pub fn total_write_ops(&self) -> u64 {
        self.per_category.iter().map(|c| c.write_ops).sum()
    }
}

// the workspace-wide saturating snapshot delta
lsm_obs::impl_delta_since!(CategorySnapshot {
    read_blocks,
    written_blocks,
    read_ops,
    write_ops,
});
lsm_obs::impl_delta_since!(IoStatsSnapshot {
    per_category,
    retries,
    corruption_detected,
    write_slowdowns,
    write_stalls,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = IoStats::new();
        s.record_read(IoCategory::Data, 3);
        s.record_read(IoCategory::Filter, 1);
        s.record_write(IoCategory::Wal, 2);
        let snap = s.snapshot();
        assert_eq!(snap.category(IoCategory::Data).read_blocks, 3);
        assert_eq!(snap.category(IoCategory::Data).read_ops, 1);
        assert_eq!(snap.category(IoCategory::Filter).read_blocks, 1);
        assert_eq!(snap.category(IoCategory::Wal).written_blocks, 2);
        assert_eq!(snap.total_read_blocks(), 4);
        assert_eq!(snap.total_written_blocks(), 2);
        assert_eq!(snap.total_read_ops(), 2);
        assert_eq!(snap.total_write_ops(), 1);
    }

    #[test]
    fn clone_shares_counters() {
        let a = IoStats::new();
        let b = a.clone();
        b.record_read(IoCategory::Index, 5);
        assert_eq!(a.snapshot().category(IoCategory::Index).read_blocks, 5);
    }

    #[test]
    fn delta_since_subtracts() {
        let s = IoStats::new();
        s.record_read(IoCategory::Data, 2);
        let first = s.snapshot();
        s.record_read(IoCategory::Data, 5);
        s.record_write(IoCategory::Misc, 1);
        let second = s.snapshot();
        let d = second.delta_since(&first);
        assert_eq!(d.category(IoCategory::Data).read_blocks, 5);
        assert_eq!(d.category(IoCategory::Misc).written_blocks, 1);
    }

    #[test]
    fn delta_saturates_when_reversed() {
        let s = IoStats::new();
        let first = s.snapshot();
        s.record_read(IoCategory::Data, 9);
        let d = first.delta_since(&s.snapshot());
        assert_eq!(d.category(IoCategory::Data).read_blocks, 0);
    }

    #[test]
    fn metrics_are_the_same_counters_by_name() {
        let s = IoStats::new();
        s.record_read(IoCategory::Filter, 3);
        s.record_write(IoCategory::ValueLog, 2);
        s.record_retry();
        let m = s.metrics();
        assert_eq!(m.counters["io.filter.read_blocks"], 3);
        assert_eq!(m.counters["io.filter.read_ops"], 1);
        assert_eq!(m.counters["io.vlog.written_blocks"], 2);
        assert_eq!(m.counters["io.retries"], 1);
        // six categories of four counters, plus four device-wide ones
        assert_eq!(m.counters.len(), 6 * 4 + 4);
        assert!(m.counters.keys().all(|k| k.starts_with("io.")));
    }

    #[test]
    fn retry_and_corruption_counters() {
        let s = IoStats::new();
        s.record_retry();
        s.record_retry();
        s.record_corruption();
        let first = s.snapshot();
        assert_eq!(first.retries, 2);
        assert_eq!(first.corruption_detected, 1);
        s.record_retry();
        let d = s.snapshot().delta_since(&first);
        assert_eq!(d.retries, 1);
        assert_eq!(d.corruption_detected, 0);
    }

    #[test]
    fn backpressure_counters() {
        let s = IoStats::new();
        s.record_write_slowdown();
        s.record_write_slowdown();
        s.record_write_stall();
        let first = s.snapshot();
        assert_eq!(first.write_slowdowns, 2);
        assert_eq!(first.write_stalls, 1);
        s.record_write_stall();
        let d = s.snapshot().delta_since(&first);
        assert_eq!(d.write_slowdowns, 0);
        assert_eq!(d.write_stalls, 1);
    }

    #[test]
    fn categories_have_distinct_labels() {
        let mut labels: Vec<_> = IoCategory::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), IoCategory::ALL.len());
    }

    #[test]
    fn concurrent_updates_are_counted() {
        let s = IoStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.record_read(IoCategory::Data, 1);
                    }
                });
            }
        });
        assert_eq!(s.snapshot().category(IoCategory::Data).read_blocks, 4000);
    }
}
