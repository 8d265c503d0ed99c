//! The metrics registry: named counters, gauges, and histograms.
//!
//! Registration (name → handle) takes a write lock once; after that,
//! every handle is a plain `Arc` whose updates are relaxed atomics —
//! the hot path never touches the registry lock. Snapshots iterate the
//! name maps in `BTreeMap` order so JSON output is deterministic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::json::JsonObj;
use crate::DeltaSince;

/// A monotonic counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the value to `n` if it is lower: a high-water mark only
    /// moves forward, like any other counter.
    pub fn record_max(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (queue depths, run counts).
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Replaces the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the value by `delta`.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct Registered {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// Named metric instruments. Cheap to share (`Arc` it); see module docs
/// for the locking story.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: RwLock<Registered>,
}

impl MetricsRegistry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut g = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        g.counters.entry(name.to_string()).or_default().clone()
    }

    /// Returns the gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut g = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        g.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Returns the histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut g = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        g.histograms.entry(name.to_string()).or_default().clone()
    }

    /// Point-in-time copy of every registered instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        MetricsSnapshot {
            counters: g.counters.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: g.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: g
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Immutable named snapshot of a [`MetricsRegistry`]; snapshots of
/// several registries combine with [`MetricsSnapshot::merge`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name (point-in-time values, not deltable).
    pub gauges: BTreeMap<String, i64>,
    /// Latency histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// One JSON object with `counters` / `gauges` / `histograms` keys,
    /// every map in sorted-name order. Histograms serialize as summary
    /// objects (count/sum/min/max/p50/p90/p99), not raw buckets.
    pub fn to_json_line(&self) -> String {
        self.to_json_line_tagged(&[])
    }

    /// Same as [`Self::to_json_line`] with leading string tags (e.g.
    /// experiment name and configuration label).
    pub fn to_json_line_tagged(&self, tags: &[(&str, &str)]) -> String {
        let mut counters = JsonObj::new();
        for (k, v) in &self.counters {
            counters = counters.u64(k, *v);
        }
        let mut gauges = JsonObj::new();
        for (k, v) in &self.gauges {
            gauges = gauges.i64(k, *v);
        }
        let mut hists = JsonObj::new();
        for (k, h) in &self.histograms {
            let summary = JsonObj::new()
                .u64("count", h.count)
                .u64("sum", h.sum)
                .u64("min", h.min)
                .u64("max", h.max)
                .u64("p50", h.p50())
                .u64("p90", h.p90())
                .u64("p99", h.p99())
                .finish();
            hists = hists.raw(k, &summary);
        }
        let mut obj = JsonObj::new();
        for (k, v) in tags {
            obj = obj.str(k, v);
        }
        obj.raw("counters", &counters.finish())
            .raw("gauges", &gauges.finish())
            .raw("histograms", &hists.finish())
            .finish()
    }

    /// Adds `other` into `self`: counters and histograms accumulate;
    /// gauges take `other`'s value (last writer wins). Names missing on
    /// either side are kept.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }
}

impl DeltaSince for MetricsSnapshot {
    /// Counters and histograms subtract (saturating, shared delta
    /// semantics); gauges keep `self`'s point-in-time values. Names
    /// absent from `earlier` pass through unchanged.
    fn delta_since(&self, earlier: &Self) -> Self {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| {
                    let base = earlier.counters.get(k).copied().unwrap_or(0);
                    (k.clone(), v.saturating_sub(base))
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| match earlier.histograms.get(k) {
                    Some(base) => (k.clone(), h.delta_since(base)),
                    None => (k.clone(), *h),
                })
                .collect(),
        }
    }
}

impl MetricsSnapshot {
    /// Inherent mirror of the [`DeltaSince`] impl.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        <Self as DeltaSince>::delta_since(self, earlier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;

    #[test]
    fn handles_are_shared_and_lock_free_after_registration() {
        let r = MetricsRegistry::new();
        let c1 = r.counter("ops");
        let c2 = r.counter("ops");
        c1.inc();
        c2.add(4);
        assert_eq!(r.counter("ops").get(), 5);
        c1.record_max(3);
        assert_eq!(c2.get(), 5, "a high-water mark never moves back");
        c1.record_max(9);
        assert_eq!(c2.get(), 9);
        let g = r.gauge("depth");
        g.set(3);
        g.add(-1);
        assert_eq!(r.gauge("depth").get(), 2);
    }

    #[test]
    fn snapshot_is_sorted_and_json_valid() {
        let r = MetricsRegistry::new();
        r.counter("z.last").inc();
        r.counter("a.first").add(2);
        r.histogram("lat").record(100);
        r.gauge("g").set(-7);
        let s = r.snapshot();
        let names: Vec<_> = s.counters.keys().cloned().collect();
        assert_eq!(names, ["a.first", "z.last"]);
        let line = s.to_json_line_tagged(&[("experiment", "unit")]);
        validate_json(&line).unwrap();
        assert!(line.contains("\"a.first\":2"));
        assert!(line.contains("\"experiment\":\"unit\""));
    }

    #[test]
    fn delta_and_merge_round_trip() {
        let r = MetricsRegistry::new();
        r.counter("ops").add(3);
        r.histogram("lat").record(10);
        let first = r.snapshot();
        r.counter("ops").add(2);
        r.histogram("lat").record(1000);
        let second = r.snapshot();
        let delta = second.delta_since(&first);
        assert_eq!(delta.counters["ops"], 2);
        assert_eq!(delta.histograms["lat"].count, 1);
        let mut merged = first.clone();
        merged.merge(&delta);
        assert_eq!(merged, second);
        // reverse delta is all-zero for counters (monotonicity check)
        let rev = first.delta_since(&second);
        assert!(rev.counters.values().all(|v| *v == 0));
    }

    #[test]
    fn concurrent_recording() {
        let r = Arc::new(MetricsRegistry::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = r.clone();
                scope.spawn(move || {
                    let c = r.counter("shared");
                    let h = r.histogram("h");
                    for i in 0..1000 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        let s = r.snapshot();
        assert_eq!(s.counters["shared"], 4000);
        assert_eq!(s.histograms["h"].count, 4000);
    }
}
