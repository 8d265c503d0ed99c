//! Shifting-hotspot workload: a contiguous hot key range that jumps to
//! a new region of the keyspace every phase.
//!
//! This is the adversarial access pattern for *static* partitioning —
//! whichever shard owns the hot range absorbs almost the whole write
//! load until the window moves — and exactly the pattern an elastic
//! range-sharded topology is built to chase with online splits and
//! merges. Unlike [`crate::generator::KeyDistribution::Zipfian`], the
//! hot set here is contiguous in key order, so it lands on one range
//! shard instead of scattering across all of them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::generator::{OpMix, Operation};
use crate::keyspace::{encode_key, make_value};

/// Full description of a shifting-hotspot workload.
#[derive(Clone, Debug)]
pub struct HotspotSpec {
    /// Size of the id space keys draw from.
    pub key_space: u64,
    /// Probability an operation targets the current hot window.
    pub hot_fraction: f64,
    /// Width of the hot window in ids.
    pub hot_width: u64,
    /// Operations per phase; the window jumps when a phase ends.
    pub phase_ops: u64,
    /// Operation mix.
    pub mix: OpMix,
    /// Value size in bytes.
    pub value_len: usize,
    /// Scan length in entries.
    pub scan_len: usize,
    /// RNG seed: identical specs + seeds generate identical streams.
    pub seed: u64,
}

impl Default for HotspotSpec {
    fn default() -> Self {
        HotspotSpec {
            key_space: 100_000,
            hot_fraction: 0.9,
            hot_width: 5_000,
            phase_ops: 20_000,
            mix: OpMix::write_only(),
            value_len: 64,
            scan_len: 100,
            seed: 0xFACADE,
        }
    }
}

/// An infinite, deterministic shifting-hotspot operation stream.
pub struct ShiftingHotspot {
    spec: HotspotSpec,
    rng: StdRng,
    emitted: u64,
}

impl ShiftingHotspot {
    /// Creates a generator from a spec.
    pub fn new(spec: HotspotSpec) -> Self {
        let rng = StdRng::seed_from_u64(spec.seed);
        ShiftingHotspot {
            spec,
            rng,
            emitted: 0,
        }
    }

    /// The spec this generator runs.
    pub fn spec(&self) -> &HotspotSpec {
        &self.spec
    }

    /// The phase the *next* operation belongs to.
    pub fn phase(&self) -> u64 {
        self.emitted / self.spec.phase_ops.max(1)
    }

    /// First id of the hot window in `phase` (golden-ratio hop, so
    /// consecutive windows land in far-apart regions of the keyspace).
    pub fn window_start(&self, phase: u64) -> u64 {
        let span = self.spec.key_space.saturating_sub(self.spec.hot_width).max(1);
        (phase + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) % span
    }

    fn draw_id(&mut self) -> u64 {
        let phase = self.phase();
        if self.rng.gen::<f64>() < self.spec.hot_fraction {
            let lo = self.window_start(phase);
            self.rng.gen_range(lo..lo + self.spec.hot_width.max(1))
        } else {
            self.rng.gen_range(0..self.spec.key_space.max(1))
        }
    }

    /// Generates the next operation.
    pub fn next_op(&mut self) -> Operation {
        let id = self.draw_id();
        self.emitted += 1;
        let mix = self.spec.mix;
        let total = mix.insert + mix.update + mix.read + mix.scan + mix.delete;
        debug_assert!(total > 0.0, "operation mix must have positive weight");
        let r = self.rng.gen::<f64>() * total;
        if r < mix.insert + mix.update {
            Operation::Put {
                key: encode_key(id),
                value: make_value(id, self.spec.value_len),
            }
        } else if r < mix.insert + mix.update + mix.read {
            Operation::Get {
                key: encode_key(id),
            }
        } else if r < mix.insert + mix.update + mix.read + mix.scan {
            Operation::Scan {
                start: encode_key(id),
                limit: self.spec.scan_len,
            }
        } else {
            Operation::Delete {
                key: encode_key(id),
            }
        }
    }

    /// Generates a batch of `n` operations.
    pub fn take(&mut self, n: usize) -> Vec<Operation> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyspace::decode_key;

    #[test]
    fn deterministic_streams() {
        let spec = HotspotSpec::default();
        let a = ShiftingHotspot::new(spec.clone()).take(1000);
        let b = ShiftingHotspot::new(spec).take(1000);
        assert_eq!(a, b);
    }

    #[test]
    fn most_ops_fall_in_the_current_window() {
        let spec = HotspotSpec {
            hot_fraction: 0.9,
            phase_ops: 10_000,
            ..Default::default()
        };
        let mut gen = ShiftingHotspot::new(spec);
        let lo = gen.window_start(0);
        let hi = lo + gen.spec().hot_width;
        let ops = gen.take(5_000);
        let hot = ops
            .iter()
            .filter_map(|op| match op {
                Operation::Put { key, .. } => decode_key(key),
                _ => None,
            })
            .filter(|&id| id >= lo && id < hi)
            .count();
        assert!(hot * 10 > ops.len() * 8, "{hot}/{} ops in window", ops.len());
    }

    #[test]
    fn window_shifts_between_phases() {
        let spec = HotspotSpec {
            phase_ops: 100,
            ..Default::default()
        };
        let gen = ShiftingHotspot::new(spec);
        let starts: Vec<u64> = (0..4).map(|p| gen.window_start(p)).collect();
        for w in starts.windows(2) {
            let gap = w[0].abs_diff(w[1]);
            assert!(
                gap > gen.spec().hot_width,
                "consecutive windows {w:?} overlap or touch"
            );
        }
    }

    #[test]
    fn mixed_ops_respect_ratios() {
        let spec = HotspotSpec {
            mix: OpMix {
                insert: 0.5,
                update: 0.0,
                read: 0.5,
                scan: 0.0,
                delete: 0.0,
                rmw: 0.0,
            },
            ..Default::default()
        };
        let ops = ShiftingHotspot::new(spec).take(10_000);
        let puts = ops
            .iter()
            .filter(|o| matches!(o, Operation::Put { .. }))
            .count();
        assert!((4000..6000).contains(&puts), "{puts} puts");
    }
}
