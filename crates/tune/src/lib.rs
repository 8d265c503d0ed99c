//! # lsm-tuner
//!
//! The self-driving tuner: closes the observability → cost-model →
//! engine loop *online*. Where the offline experiments (E11/E12) pick a
//! design from a recorded trace before the engine starts, this crate
//! watches a *running* engine's metrics, re-estimates the workload mix
//! as it drifts, and actuates the model's recommendation by installing
//! a whole new config ([`set_config`](lsm_core::DbCore::set_config)) —
//! bloom bits and Monkey allocation for tables built from now on, merge
//! policy and size ratio staged as compaction-picker changes, and L0
//! backpressure thresholds derived from the write fraction.
//!
//! Two modules:
//!
//! - [`estimator`]: [`WorkloadEstimate`] — the one workload-estimation
//!   code path, consumable from a recorded trace (offline) or a metrics
//!   delta (online);
//! - [`tuner`]: the [`Tuner`] loop — hysteresis, cooldown, typed
//!   `Retune` / `RetuneObserved` audit events.
//!
//! Everything here is deterministic: no wall clocks, no threads, no
//! unseeded randomness. Under `BackgroundMode::Inline`, identical runs
//! produce byte-identical retune event sequences.

pub mod estimator;
pub mod tuner;

pub use estimator::WorkloadEstimate;
pub use tuner::{TickOutcome, Tuner, TunerConfig};
