//! # lsm-obs
//!
//! Engine observability primitives, dependency-free so every other crate
//! in the workspace can use them: a lock-free metrics registry
//! ([`MetricsRegistry`]: monotonic [`Counter`]s, [`Gauge`]s, and
//! fixed-bucket log-scale latency [`Histogram`]s), a bounded structured
//! [`EventRing`] drainable as typed [`Event`]s and dumpable as JSON
//! lines, and the shared [`DeltaSince`] snapshot-subtraction used by
//! every counter view in the workspace.
//!
//! These are the workspace's only counters. Each owner (engine, device,
//! cache, server) registers its series once, when it is built, under its
//! own name prefix, keeps the handles, and counts through them; a typed
//! view such as `DbStatsSnapshot` is read off the same handles.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Under `BackgroundMode::Inline` the engine times
//!    operations with the simulated device clock, so two runs of the
//!    same workload produce *byte-identical* metrics snapshots.
//!    Everything here that orders output does so with `BTreeMap`s, and
//!    quantiles are computed from fixed bucket boundaries, never from
//!    sampling.
//! 2. **Hot-path cost.** Recording into a counter or histogram is a
//!    handful of relaxed atomic adds; no locks, no allocation. The only
//!    mutex in the crate guards the event ring, which is touched by
//!    maintenance-rate (not per-key-rate) code paths.
//! 3. **No dependencies.** JSON is emitted and validated by the tiny
//!    hand-rolled [`json`] module; this crate must stay importable from
//!    `lsm-storage` without cycles.

pub mod events;
pub mod histogram;
pub mod json;
pub mod registry;

pub use events::{Event, EventKind, EventRing, StallReason};
pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};

/// Counter-wise snapshot subtraction: `self - earlier`, saturating at
/// zero so snapshots passed in the wrong order cannot wrap around.
///
/// One implementation shared by `IoStatsSnapshot`, `DbStatsSnapshot`,
/// and [`MetricsSnapshot`]. Use [`impl_delta_since!`] to derive
/// both the trait impl and a plain inherent `delta_since` method for a
/// struct of deltable fields.
pub trait DeltaSince {
    /// Returns the change between `earlier` and `self`.
    fn delta_since(&self, earlier: &Self) -> Self;
}

impl DeltaSince for u64 {
    fn delta_since(&self, earlier: &Self) -> Self {
        self.saturating_sub(*earlier)
    }
}

impl<T: DeltaSince + Copy + Default, const N: usize> DeltaSince for [T; N] {
    fn delta_since(&self, earlier: &Self) -> Self {
        let mut out = [T::default(); N];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self[i].delta_since(&earlier[i]);
        }
        out
    }
}

/// Derives [`DeltaSince`] for a struct whose named fields all implement
/// it, plus an inherent `pub fn delta_since` so call sites don't need
/// the trait in scope:
///
/// ```
/// #[derive(Clone, Copy, Default, PartialEq, Debug)]
/// struct Snap { reads: u64, writes: u64 }
/// lsm_obs::impl_delta_since!(Snap { reads, writes });
///
/// let a = Snap { reads: 2, writes: 7 };
/// let b = Snap { reads: 5, writes: 7 };
/// assert_eq!(b.delta_since(&a), Snap { reads: 3, writes: 0 });
/// assert_eq!(a.delta_since(&b), Snap::default()); // saturates
/// ```
#[macro_export]
macro_rules! impl_delta_since {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::DeltaSince for $name {
            fn delta_since(&self, earlier: &Self) -> Self {
                $name {
                    $($field: $crate::DeltaSince::delta_since(
                        &self.$field,
                        &earlier.$field,
                    ),)+
                }
            }
        }

        impl $name {
            /// Counter-wise difference `self - earlier`; every field
            /// saturates at zero (shared `lsm-obs` delta semantics).
            pub fn delta_since(&self, earlier: &$name) -> $name {
                <$name as $crate::DeltaSince>::delta_since(self, earlier)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
    struct Snap {
        a: u64,
        b: u64,
        nested: [u64; 3],
    }
    impl_delta_since!(Snap { a, b, nested });

    #[test]
    fn macro_generates_saturating_delta() {
        let first = Snap {
            a: 10,
            b: 3,
            nested: [1, 2, 3],
        };
        let second = Snap {
            a: 15,
            b: 1,
            nested: [4, 2, 10],
        };
        let d = second.delta_since(&first);
        assert_eq!(
            d,
            Snap {
                a: 5,
                b: 0,
                nested: [3, 0, 7],
            }
        );
    }

    #[test]
    fn trait_and_inherent_agree() {
        let first = Snap {
            a: 1,
            ..Default::default()
        };
        let second = Snap {
            a: 9,
            ..Default::default()
        };
        assert_eq!(
            second.delta_since(&first),
            DeltaSince::delta_since(&second, &first)
        );
    }
}
