//! Online-retunable configuration overlay.
//!
//! [`LsmConfig`] is immutable for the lifetime of a [`crate::Db`]; the
//! self-tuner (crate `lsm-tuner`) needs to steer a handful of knobs on a
//! *running* engine without reopening it. [`DynamicConfig`] is that
//! surface: a lock-free overlay of atomically-stored overrides consulted
//! at the decision points that can safely change mid-flight —
//!
//! - **filter memory** (`bits_per_key`, uniform vs Monkey allocation):
//!   picked up by the *next* table build, so new tables carry the new
//!   budget while old tables stay readable (each table records its own
//!   filter parameters in its footer);
//! - **merge policy and size ratio** (`layout`, `size_ratio`): picked up
//!   by the *next* compaction-planning pass — the shape of existing data
//!   is never rewritten eagerly, the picker simply starts enforcing the
//!   new invariant;
//! - **L0 backpressure thresholds** (`l0_slowdown_runs`,
//!   `l0_stall_runs`): read by the write path on every write, derived
//!   from the model instead of fixed config.
//!
//! Every field uses `0` (or tag `0`) as "no override: fall through to
//! the boot-time [`LsmConfig`]", so a freshly-opened engine behaves
//! byte-identically to one without the overlay. Updates are validated
//! against the merged effective config before being published, and bump
//! a generation counter so observers can cheaply detect change.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};

use crate::config::{FilterAllocation, LsmConfig, MergeLayout};

/// A requested change to the dynamic overlay. `None` fields leave the
/// current override untouched; `Some` fields replace it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DynamicUpdate {
    /// New total filter budget in bits per key.
    pub bits_per_key: Option<f64>,
    /// New filter-memory allocation strategy.
    pub filter_allocation: Option<FilterAllocation>,
    /// New merge layout. Only the uniform layouts (`Leveled`, `Tiered`,
    /// `LazyLeveled`) can be staged dynamically; `Hybrid` is boot-only.
    pub layout: Option<MergeLayout>,
    /// New size ratio between adjacent levels.
    pub size_ratio: Option<usize>,
    /// New L0 slowdown threshold (runs).
    pub l0_slowdown_runs: Option<usize>,
    /// New L0 stall threshold (runs).
    pub l0_stall_runs: Option<usize>,
}

impl DynamicUpdate {
    /// Whether the update changes nothing.
    pub fn is_empty(&self) -> bool {
        *self == DynamicUpdate::default()
    }
}

/// Point-in-time view of the overlay, with `None` for unset overrides.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DynamicSnapshot {
    /// Filter budget override, bits per key.
    pub bits_per_key: Option<f64>,
    /// Filter-allocation override.
    pub filter_allocation: Option<FilterAllocation>,
    /// Merge-layout override.
    pub layout: Option<MergeLayout>,
    /// Size-ratio override.
    pub size_ratio: Option<usize>,
    /// L0 slowdown-threshold override.
    pub l0_slowdown_runs: Option<usize>,
    /// L0 stall-threshold override.
    pub l0_stall_runs: Option<usize>,
    /// How many updates have been published since open.
    pub generation: u64,
}

const ALLOC_UNIFORM: u8 = 1;
const ALLOC_MONKEY: u8 = 2;
const LAYOUT_LEVELED: u8 = 1;
const LAYOUT_TIERED: u8 = 2;
const LAYOUT_LAZY: u8 = 3;

/// Lock-free override overlay; see the module docs. All loads are
/// `Acquire` and stores `Release`: each knob is independently coherent,
/// which is all the consumers need (a table build or plan pass reads
/// each knob once).
#[derive(Debug, Default)]
pub struct DynamicConfig {
    /// Filter budget ×1000; 0 = unset.
    bits_per_key_milli: AtomicU64,
    /// 0 = unset, 1 = uniform, 2 = monkey.
    filter_allocation: AtomicU8,
    /// 0 = unset, 1 = leveled, 2 = tiered, 3 = lazy-leveled.
    layout: AtomicU8,
    /// 0 = unset.
    size_ratio: AtomicUsize,
    /// 0 = unset.
    l0_slowdown_runs: AtomicUsize,
    /// 0 = unset.
    l0_stall_runs: AtomicUsize,
    /// Published updates since open.
    generation: AtomicU64,
}

impl DynamicConfig {
    /// Fresh overlay with nothing overridden.
    pub fn new() -> Self {
        DynamicConfig::default()
    }

    /// Filter budget override, if set.
    pub fn bits_per_key(&self) -> Option<f64> {
        match self.bits_per_key_milli.load(Ordering::Acquire) {
            0 => None,
            m => Some(m as f64 / 1000.0),
        }
    }

    /// Filter-allocation override, if set.
    pub fn filter_allocation(&self) -> Option<FilterAllocation> {
        match self.filter_allocation.load(Ordering::Acquire) {
            ALLOC_UNIFORM => Some(FilterAllocation::Uniform),
            ALLOC_MONKEY => Some(FilterAllocation::Monkey),
            _ => None,
        }
    }

    /// Merge-layout override, if set.
    pub fn layout(&self) -> Option<MergeLayout> {
        match self.layout.load(Ordering::Acquire) {
            LAYOUT_LEVELED => Some(MergeLayout::Leveled),
            LAYOUT_TIERED => Some(MergeLayout::Tiered),
            LAYOUT_LAZY => Some(MergeLayout::LazyLeveled),
            _ => None,
        }
    }

    /// Size-ratio override, if set.
    pub fn size_ratio(&self) -> Option<usize> {
        match self.size_ratio.load(Ordering::Acquire) {
            0 => None,
            t => Some(t),
        }
    }

    /// L0 slowdown/stall thresholds override, if set (read together on
    /// the write path).
    pub fn l0_thresholds(&self) -> (Option<usize>, Option<usize>) {
        let slow = self.l0_slowdown_runs.load(Ordering::Acquire);
        let stall = self.l0_stall_runs.load(Ordering::Acquire);
        (
            (slow != 0).then_some(slow),
            (stall != 0).then_some(stall),
        )
    }

    /// Published updates since open.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Current overrides as a plain snapshot.
    pub fn snapshot(&self) -> DynamicSnapshot {
        let (slow, stall) = self.l0_thresholds();
        DynamicSnapshot {
            bits_per_key: self.bits_per_key(),
            filter_allocation: self.filter_allocation(),
            layout: self.layout(),
            size_ratio: self.size_ratio(),
            l0_slowdown_runs: slow,
            l0_stall_runs: stall,
            generation: self.generation(),
        }
    }

    /// The boot config with every set override applied — what the
    /// compaction planner and table builders actually run under.
    pub fn effective(&self, base: &LsmConfig) -> LsmConfig {
        let mut cfg = base.clone();
        self.apply_to(&mut cfg);
        cfg
    }

    fn apply_to(&self, cfg: &mut LsmConfig) {
        if let Some(b) = self.bits_per_key() {
            cfg.bits_per_key = b;
        }
        if let Some(a) = self.filter_allocation() {
            cfg.filter_allocation = a;
        }
        if let Some(l) = self.layout() {
            cfg.layout = l;
        }
        if let Some(t) = self.size_ratio() {
            cfg.size_ratio = t;
        }
        let (slow, stall) = self.l0_thresholds();
        if let Some(s) = slow {
            cfg.l0_slowdown_runs = s;
        }
        if let Some(s) = stall {
            cfg.l0_stall_runs = s;
        }
    }

    /// Validates `update` against `base` merged with the current
    /// overrides, then publishes it. Errors leave the overlay untouched.
    pub fn apply(&self, base: &LsmConfig, update: &DynamicUpdate) -> Result<(), String> {
        // the online cap only; `validate()` below rejects NaN and negatives
        if let Some(b) = update.bits_per_key.filter(|b| *b > 64.0) {
            return Err(format!("dynamic bits_per_key {b} above the online cap of 64"));
        }
        if let Some(MergeLayout::Hybrid(_)) = update.layout {
            return Err("hybrid layout cannot be set dynamically".into());
        }
        // Validate the would-be effective config before publishing.
        let mut cfg = self.effective(base);
        if let Some(b) = update.bits_per_key {
            cfg.bits_per_key = b;
        }
        if let Some(a) = update.filter_allocation {
            cfg.filter_allocation = a;
        }
        if let Some(l) = &update.layout {
            cfg.layout = l.clone();
        }
        if let Some(t) = update.size_ratio {
            cfg.size_ratio = t;
        }
        if let Some(s) = update.l0_slowdown_runs {
            cfg.l0_slowdown_runs = s;
        }
        if let Some(s) = update.l0_stall_runs {
            cfg.l0_stall_runs = s;
        }
        cfg.validate()?;
        // Publish, knob by knob. Concurrent plan passes may observe a
        // partially-applied update; each knob is individually valid and
        // the next pass sees the full set.
        if let Some(b) = update.bits_per_key {
            let milli = ((b * 1000.0).round() as u64).max(1);
            self.bits_per_key_milli.store(milli, Ordering::Release);
        }
        if let Some(a) = update.filter_allocation {
            let tag = match a {
                FilterAllocation::Uniform => ALLOC_UNIFORM,
                FilterAllocation::Monkey => ALLOC_MONKEY,
            };
            self.filter_allocation.store(tag, Ordering::Release);
        }
        if let Some(l) = &update.layout {
            let tag = match l {
                MergeLayout::Leveled => LAYOUT_LEVELED,
                MergeLayout::Tiered => LAYOUT_TIERED,
                MergeLayout::LazyLeveled => LAYOUT_LAZY,
                MergeLayout::Hybrid(_) => unreachable!("rejected above"),
            };
            self.layout.store(tag, Ordering::Release);
        }
        if let Some(t) = update.size_ratio {
            self.size_ratio.store(t, Ordering::Release);
        }
        if let Some(s) = update.l0_slowdown_runs {
            self.l0_slowdown_runs.store(s, Ordering::Release);
        }
        if let Some(s) = update.l0_stall_runs {
            self.l0_stall_runs.store(s, Ordering::Release);
        }
        self.generation.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_overlay_is_identity() {
        let d = DynamicConfig::new();
        let base = LsmConfig::small_for_tests();
        assert_eq!(d.effective(&base), base);
        assert_eq!(d.generation(), 0);
        assert_eq!(d.snapshot(), DynamicSnapshot::default());
    }

    #[test]
    fn overrides_apply_and_stack() {
        let d = DynamicConfig::new();
        let base = LsmConfig::small_for_tests();
        d.apply(
            &base,
            &DynamicUpdate {
                bits_per_key: Some(14.5),
                layout: Some(MergeLayout::LazyLeveled),
                ..Default::default()
            },
        )
        .unwrap();
        d.apply(
            &base,
            &DynamicUpdate {
                size_ratio: Some(6),
                filter_allocation: Some(FilterAllocation::Monkey),
                ..Default::default()
            },
        )
        .unwrap();
        let eff = d.effective(&base);
        assert_eq!(eff.bits_per_key, 14.5);
        assert_eq!(eff.layout, MergeLayout::LazyLeveled);
        assert_eq!(eff.size_ratio, 6);
        assert_eq!(eff.filter_allocation, FilterAllocation::Monkey);
        // untouched knobs fall through
        assert_eq!(eff.buffer_bytes, base.buffer_bytes);
        assert_eq!(d.generation(), 2);
    }

    #[test]
    fn invalid_updates_rejected_and_leave_overlay_untouched() {
        let d = DynamicConfig::new();
        let base = LsmConfig::small_for_tests();
        assert!(d
            .apply(
                &base,
                &DynamicUpdate {
                    size_ratio: Some(1),
                    ..Default::default()
                }
            )
            .is_err());
        assert!(d
            .apply(
                &base,
                &DynamicUpdate {
                    bits_per_key: Some(-1.0),
                    ..Default::default()
                }
            )
            .is_err());
        assert!(d
            .apply(
                &base,
                &DynamicUpdate {
                    layout: Some(MergeLayout::Hybrid(vec![2])),
                    ..Default::default()
                }
            )
            .is_err());
        // stall below slowdown violates validate() on the merged config
        assert!(d
            .apply(
                &base,
                &DynamicUpdate {
                    l0_slowdown_runs: Some(10),
                    l0_stall_runs: Some(4),
                    ..Default::default()
                }
            )
            .is_err());
        assert_eq!(d.generation(), 0);
        assert_eq!(d.effective(&base), base);
    }

    #[test]
    fn threshold_updates_respect_threaded_invariant() {
        let d = DynamicConfig::new();
        let base = LsmConfig {
            background: crate::config::BackgroundMode::Threaded,
            ..LsmConfig::small_for_tests()
        };
        // stall at the L0 run cap would wedge writers in threaded mode
        assert!(d
            .apply(
                &base,
                &DynamicUpdate {
                    l0_slowdown_runs: Some(1),
                    l0_stall_runs: Some(base.l0_run_cap),
                    ..Default::default()
                }
            )
            .is_err());
        assert!(d
            .apply(
                &base,
                &DynamicUpdate {
                    l0_slowdown_runs: Some(base.l0_run_cap + 2),
                    l0_stall_runs: Some(base.l0_run_cap + 4),
                    ..Default::default()
                }
            )
            .is_ok());
    }
}
