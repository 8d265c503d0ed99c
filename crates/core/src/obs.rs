//! Engine-level observability: the glue between the generic metric
//! primitives in `lsm-obs` and the engine's hot paths.
//!
//! One [`EngineMetrics`] lives inside each [`crate::Db`]. It owns the
//! engine's metrics registry, every engine series registered in it (the
//! `db.*` counters of [`DbStats`], the latency histograms for the five
//! engine operations the experiment suite cares about — get / put / scan
//! / flush / compaction — gauges, and job counters), and the bounded
//! event ring.
//!
//! ## Determinism
//!
//! Latency histograms need a clock. Under
//! [`crate::config::BackgroundMode::Inline`] every test and experiment is
//! expected to be bit-for-bit reproducible, so the clock is the device's
//! *simulated* clock ([`lsm_storage::SimClock`]): a timestamp is just the
//! simulated nanoseconds the latency model has charged so far, and an
//! operation's duration is the simulated cost of the I/O it performed.
//! Under `Threaded` mode determinism is off the table anyway (the OS
//! scheduler interleaves work), so timestamps come from a wall
//! [`Instant`] instead.
//!
//! ## Locking
//!
//! The event ring's mutex and the registry's `RwLock` are leaves: no
//! engine lock is ever acquired while holding them, so they can be called
//! from any point in the engine without deadlock risk. The backpressure
//! band tracker serializes band *transitions* through its own leaf mutex
//! so that Slowdown/Stall enter/exit events are well-nested even when
//! many writers cross a threshold at once; the fast path (band unchanged)
//! is a single atomic load.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lsm_obs::{
    Counter, EventKind, EventRing, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, StallReason,
};
use lsm_storage::SimClock;
use parking_lot::Mutex;

use crate::stats::DbStats;

/// Where timestamps come from — see the module docs on determinism.
enum MetricClock {
    /// Simulated device time: deterministic, advances only on charged I/O.
    Simulated(SimClock),
    /// Wall-clock time since `Db::open`.
    Wall(Instant),
}

impl MetricClock {
    fn now_ns(&self) -> u64 {
        match self {
            MetricClock::Simulated(c) => c.now_ns(),
            MetricClock::Wall(t) => t.elapsed().as_nanos() as u64,
        }
    }
}

/// Backpressure bands in escalation order. Stored as a `u8` so the hot
/// path can check "did the band change?" with one atomic load.
const BAND_NONE: u8 = 0;
const BAND_SLOWDOWN: u8 = 1;
const BAND_STALL: u8 = 2;

/// Per-database observability state: registry, event ring, latency
/// histograms, and id generators for flush/compaction correlation.
pub struct EngineMetrics {
    /// Every engine series, registered once below; read via
    /// [`EngineMetrics::snapshot`].
    registry: MetricsRegistry,
    /// Bounded structured event trace.
    events: EventRing,
    clock: MetricClock,

    /// Latency histograms for the five engine operations (nanoseconds;
    /// simulated under Inline, wall under Threaded).
    pub get_ns: Arc<Histogram>,
    pub put_ns: Arc<Histogram>,
    pub scan_ns: Arc<Histogram>,
    pub flush_ns: Arc<Histogram>,
    pub compaction_ns: Arc<Histogram>,

    /// The `db.*` operation counters (shared with every snapshot).
    pub stats: Arc<DbStats>,

    /// Live gauges set by the engine on every change.
    pub l0_runs_gauge: Arc<Gauge>,
    pub memtable_bytes_gauge: Arc<Gauge>,

    /// `memory.device.superseded`: bytes of tables that have left the
    /// current version but whose files still exist, held by a snapshot,
    /// an iterator or an in-flight merge. The memory account's gauges are
    /// named `memory.<component>`.
    pub superseded_bytes: Arc<Gauge>,

    /// Optimistic-transaction outcome counters (conflict rate =
    /// `txn.conflicts / (txn.commits + txn.conflicts)`).
    pub txn_begins: Arc<Counter>,
    pub txn_commits: Arc<Counter>,
    pub txn_conflicts: Arc<Counter>,

    /// Jobs run by the background workers (`Threaded` only).
    pub bg_flush_jobs: Arc<Counter>,
    pub bg_compact_jobs: Arc<Counter>,

    /// Monotone ids so `FlushStart`/`FlushEnd` (and compaction pairs) can
    /// be correlated in the trace.
    next_flush_id: AtomicU64,
    next_compaction_id: AtomicU64,
    next_subcompaction_id: AtomicU64,

    /// Current backpressure band (`BAND_*`), plus the leaf lock that
    /// serializes transitions so enter/exit events nest properly.
    bp_band: AtomicU8,
    bp_lock: Mutex<()>,
}

impl EngineMetrics {
    /// Metrics driven by the simulated device clock (Inline mode).
    pub fn simulated(clock: SimClock, event_capacity: usize) -> Self {
        Self::new(MetricClock::Simulated(clock), event_capacity)
    }

    /// Metrics driven by wall time (Threaded mode).
    pub fn wall(event_capacity: usize) -> Self {
        Self::new(MetricClock::Wall(Instant::now()), event_capacity)
    }

    fn new(clock: MetricClock, event_capacity: usize) -> Self {
        let registry = MetricsRegistry::new();
        EngineMetrics {
            events: EventRing::new(event_capacity),
            clock,
            get_ns: registry.histogram("latency.get_ns"),
            put_ns: registry.histogram("latency.put_ns"),
            scan_ns: registry.histogram("latency.scan_ns"),
            flush_ns: registry.histogram("latency.flush_ns"),
            compaction_ns: registry.histogram("latency.compaction_ns"),
            stats: Arc::new(DbStats::register(&registry)),
            l0_runs_gauge: registry.gauge("engine.l0_runs"),
            memtable_bytes_gauge: registry.gauge("engine.memtable_bytes"),
            superseded_bytes: registry.gauge("memory.device.superseded"),
            txn_begins: registry.counter("txn.begins"),
            txn_commits: registry.counter("txn.commits"),
            txn_conflicts: registry.counter("txn.conflicts"),
            bg_flush_jobs: registry.counter("bg.flush_jobs"),
            bg_compact_jobs: registry.counter("bg.compact_jobs"),
            registry,
            next_flush_id: AtomicU64::new(1),
            next_compaction_id: AtomicU64::new(1),
            next_subcompaction_id: AtomicU64::new(1),
            bp_band: AtomicU8::new(BAND_NONE),
            bp_lock: Mutex::new(()),
        }
    }

    /// Current timestamp in nanoseconds (simulated or wall).
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Runs `op` and records its duration on this clock into `hist`:
    /// under Inline mode that is the operation's simulated I/O cost, so
    /// the histogram repeats exactly.
    pub fn timed<R>(&self, hist: &Histogram, op: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let out = op();
        hist.record(self.now_ns().saturating_sub(start));
        out
    }

    /// Records a structured event stamped with the current clock.
    pub fn event(&self, kind: EventKind) {
        self.events.record(self.clock.now_ns(), kind);
    }

    /// Drains the event ring (oldest first).
    pub fn drain_events(&self) -> Vec<lsm_obs::Event> {
        self.events.drain()
    }

    /// Events evicted because the ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.events.dropped()
    }

    /// Allocates the next flush id.
    pub fn next_flush_id(&self) -> u64 {
        self.next_flush_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocates the next compaction id.
    pub fn next_compaction_id(&self) -> u64 {
        self.next_compaction_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocates the next sub-compaction (shard) id.
    pub fn next_subcompaction_id(&self) -> u64 {
        self.next_subcompaction_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Point-in-time snapshot of every engine series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Reconciles the backpressure band with the observed L0 run count,
    /// emitting well-nested Slowdown/Stall enter/exit events on each
    /// transition. `slowdown` / `stall` are the configured thresholds.
    ///
    /// Called from the write path; the unchanged-band fast path is a
    /// single atomic load.
    pub fn backpressure_band(&self, l0_runs: usize, slowdown: usize, stall: usize) {
        let target = if l0_runs >= stall {
            BAND_STALL
        } else if l0_runs >= slowdown {
            BAND_SLOWDOWN
        } else {
            BAND_NONE
        };
        if self.bp_band.load(Ordering::Relaxed) == target {
            return;
        }
        let _guard = self.bp_lock.lock();
        // Re-check under the lock; another writer may have moved the band.
        let mut cur = self.bp_band.load(Ordering::Relaxed);
        let l0 = l0_runs as u64;
        while cur != target {
            // Step one band at a time so enter/exit events nest:
            // None -> Slowdown -> Stall going up, the reverse coming down.
            let next = if target > cur { cur + 1 } else { cur - 1 };
            match (cur, next) {
                (BAND_NONE, BAND_SLOWDOWN) => {
                    self.event(EventKind::SlowdownEnter { l0_runs: l0 });
                }
                (BAND_SLOWDOWN, BAND_STALL) => {
                    self.event(EventKind::StallEnter {
                        reason: StallReason::L0,
                        l0_runs: l0,
                    });
                }
                (BAND_STALL, BAND_SLOWDOWN) => {
                    self.event(EventKind::StallExit {
                        reason: StallReason::L0,
                        l0_runs: l0,
                    });
                }
                (BAND_SLOWDOWN, BAND_NONE) => {
                    self.event(EventKind::SlowdownExit { l0_runs: l0 });
                }
                _ => unreachable!("band transition {cur} -> {next}"),
            }
            self.bp_band.store(next, Ordering::Relaxed);
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_obs::EventKind;

    fn kinds(m: &EngineMetrics) -> Vec<&'static str> {
        m.drain_events().iter().map(|e| e.kind.label()).collect()
    }

    #[test]
    fn band_transitions_are_well_nested() {
        let m = EngineMetrics::wall(64);
        m.backpressure_band(0, 8, 12);
        assert!(kinds(&m).is_empty(), "no events below slowdown");
        m.backpressure_band(8, 8, 12);
        assert_eq!(kinds(&m), ["slowdown_enter"]);
        m.backpressure_band(12, 8, 12);
        assert_eq!(kinds(&m), ["stall_enter"]);
        // Straight from stall back to none: must emit both exits in order.
        m.backpressure_band(0, 8, 12);
        assert_eq!(kinds(&m), ["stall_exit", "slowdown_exit"]);
    }

    #[test]
    fn band_jump_from_none_to_stall_emits_both_enters() {
        let m = EngineMetrics::wall(64);
        m.backpressure_band(20, 8, 12);
        assert_eq!(kinds(&m), ["slowdown_enter", "stall_enter"]);
    }

    #[test]
    fn simulated_clock_drives_timestamps() {
        let clock = SimClock::new();
        let m = EngineMetrics::simulated(clock.clone(), 16);
        clock.advance(1234);
        m.event(EventKind::SlowdownEnter { l0_runs: 9 });
        let ev = m.drain_events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].at_ns, 1234);
    }

    #[test]
    fn timed_records_simulated_cost() {
        let clock = SimClock::new();
        let m = EngineMetrics::simulated(clock.clone(), 16);
        m.timed(&m.get_ns, || clock.advance(4096));
        let snap = m.get_ns.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.max, 4096);
    }
}
