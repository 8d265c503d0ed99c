//! Bounded-error piecewise-linear index (PGM-style greedy construction,
//! Ferragina & Vinciguerra; used read-only over immutable runs as the
//! tutorial recommends).
//!
//! One streaming pass over `(key, block)` pairs grows a segment while a
//! line can stay within `±ε` blocks of every point (maintained via a
//! shrinking slope cone); when the cone empties, the segment is frozen and
//! a new one starts. Queries binary-search the segment table (tiny) and
//! evaluate one line.

use crate::learned::{common_prefix_len, key_to_u64_skipping};
use crate::traits::BlockLocator;

/// One linear segment `predict(key) = intercept + slope * (key - start)`.
#[derive(Clone, Copy, Debug)]
pub struct PlaSegment {
    /// First model-domain key covered by this segment.
    pub start: u64,
    /// Slope in blocks per key unit.
    pub slope: f64,
    /// Predicted block at `start`.
    pub intercept: f64,
}

/// A PGM-style learned block index with error bound ε.
///
/// The configured ε is a *target*; after fitting, the stored bound is
/// widened to the measured maximum training error (duplicate model keys —
/// byte keys colliding after the 8-byte truncation — can exceed the
/// target), so the candidate window is always sound.
#[derive(Clone, Debug)]
pub struct PlaIndex {
    segments: Vec<PlaSegment>,
    epsilon: usize,
    num_blocks: usize,
    max_key: u64,
    /// Common-prefix bytes stripped before the u64 map (0 for raw builds).
    prefix_skip: usize,
    /// Raw key bounds for out-of-range pruning (empty for raw builds).
    min_key_raw: Vec<u8>,
    max_key_raw: Vec<u8>,
}

impl PlaIndex {
    /// Builds from the sorted `(last_key_of_block)` boundaries of a run.
    /// `epsilon` is the maximum block error the model may make.
    pub fn build(last_keys: &[Vec<u8>], epsilon: usize) -> Self {
        let skip = common_prefix_len(last_keys);
        let points: Vec<u64> = last_keys
            .iter()
            .map(|k| key_to_u64_skipping(k, skip))
            .collect();
        let mut idx = Self::build_from_u64(&points, epsilon);
        idx.prefix_skip = skip;
        idx.min_key_raw = last_keys.first().cloned().unwrap_or_default();
        idx.max_key_raw = last_keys.last().cloned().unwrap_or_default();
        idx
    }

    /// Builds from sorted u64 block-boundary keys: point `i` is
    /// `(keys[i], i)`.
    pub fn build_from_u64(points: &[u64], epsilon: usize) -> Self {
        let eps = epsilon.max(1) as f64;
        let mut segments: Vec<PlaSegment> = Vec::new();
        let n = points.len();
        if n == 0 {
            return PlaIndex {
                segments,
                epsilon: epsilon.max(1),
                num_blocks: 0,
                max_key: 0,
                prefix_skip: 0,
                min_key_raw: Vec::new(),
                max_key_raw: Vec::new(),
            };
        }
        let mut i = 0usize;
        while i < n {
            let start_key = points[i];
            let start_block = i as f64;
            // slope cone: valid slopes keeping all points within ±eps
            let mut lo_slope = f64::NEG_INFINITY;
            let mut hi_slope = f64::INFINITY;
            let mut j = i + 1;
            while j < n {
                let dx = (points[j] - start_key) as f64;
                let dy = j as f64 - start_block;
                if dx == 0.0 {
                    // duplicate model key: representable iff block delta
                    // within eps of prediction at dx=0 (which is
                    // start_block); since dy grows, stop once it exceeds eps
                    if dy > eps {
                        break;
                    }
                    j += 1;
                    continue;
                }
                let new_lo = (dy - eps) / dx;
                let new_hi = (dy + eps) / dx;
                let cand_lo = lo_slope.max(new_lo);
                let cand_hi = hi_slope.min(new_hi);
                if cand_lo > cand_hi {
                    break;
                }
                lo_slope = cand_lo;
                hi_slope = cand_hi;
                j += 1;
            }
            let slope = if lo_slope.is_finite() && hi_slope.is_finite() {
                (lo_slope + hi_slope) / 2.0
            } else if hi_slope.is_finite() {
                hi_slope
            } else if lo_slope.is_finite() {
                lo_slope
            } else {
                0.0
            };
            segments.push(PlaSegment {
                start: start_key,
                slope: slope.max(0.0),
                intercept: start_block,
            });
            i = j;
        }
        let mut idx = PlaIndex {
            segments,
            epsilon: epsilon.max(1),
            num_blocks: n,
            max_key: points[n - 1],
            prefix_skip: 0,
            min_key_raw: Vec::new(),
            max_key_raw: Vec::new(),
        };
        // soundness: widen ε to the measured maximum training error, so
        // degenerate inputs (heavy u64 duplicates) degrade to wide windows
        // rather than false negatives
        idx.epsilon = idx.epsilon.max(idx.max_error(points));
        idx
    }

    /// The error bound.
    pub fn epsilon(&self) -> usize {
        self.epsilon
    }

    /// Number of linear segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Predicted block for a model-domain key, clamped to valid blocks.
    ///
    /// The raw line is additionally clamped to the segment's block span
    /// `[intercept, next_intercept]`: between a segment's last training
    /// point and the next segment's first, the line would otherwise
    /// extrapolate without bound, breaking the error guarantee for query
    /// keys that fall *between* training points.
    pub fn predict(&self, key_u64: u64) -> usize {
        if self.num_blocks == 0 {
            return 0;
        }
        let idx = self
            .segments
            .partition_point(|s| s.start <= key_u64)
            .saturating_sub(1);
        let s = &self.segments[idx];
        let span_end = self
            .segments
            .get(idx + 1)
            .map(|n| n.intercept as usize)
            .unwrap_or(self.num_blocks - 1);
        let dx = key_u64.saturating_sub(s.start) as f64;
        let raw = s.intercept + s.slope * dx;
        (raw.round().max(0.0) as usize).clamp(s.intercept as usize, span_end.max(s.intercept as usize))
    }

    /// The candidate block window `[predict-ε-1, predict+ε+1]` for a key.
    /// The extra ±1 covers query keys between training points, whose true
    /// block is the training error bound plus one.
    pub fn candidate_window(&self, key_u64: u64) -> std::ops::RangeInclusive<usize> {
        let p = self.predict(key_u64);
        let lo = p.saturating_sub(self.epsilon + 1);
        let hi = (p + self.epsilon + 1).min(self.num_blocks.saturating_sub(1));
        lo..=hi
    }

    /// Verifies the error bound against the training points; used by tests
    /// and debug assertions.
    pub fn max_error(&self, points: &[u64]) -> usize {
        points
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let p = self.predict(k) as i64;
                (p - i as i64).unsigned_abs() as usize
            })
            .max()
            .unwrap_or(0)
    }
}

impl PlaIndex {
    /// Maps a raw key into the model domain using the stored prefix skip.
    pub fn map_key(&self, key: &[u8]) -> u64 {
        key_to_u64_skipping(key, self.prefix_skip)
    }

    fn out_of_range(&self, key: &[u8]) -> bool {
        if !self.max_key_raw.is_empty() {
            key > self.max_key_raw.as_slice()
        } else {
            self.map_key(key) > self.max_key
        }
    }

    /// Sound candidate window for a raw byte key, or `None` when the key
    /// is provably past the run's end.
    ///
    /// Keys at or below the first fence need special care: they belong to
    /// block 0 by definition, but they may not share the fences' common
    /// prefix, so mapping them through the model could land anywhere.
    pub fn window_for(&self, key: &[u8]) -> Option<std::ops::RangeInclusive<usize>> {
        if self.num_blocks == 0 || self.out_of_range(key) {
            return None;
        }
        if !self.min_key_raw.is_empty() && key <= self.min_key_raw.as_slice() {
            return Some(0..=0);
        }
        Some(self.candidate_window(self.map_key(key)))
    }
}

impl BlockLocator for PlaIndex {
    fn locate(&self, key: &[u8]) -> Option<usize> {
        self.window_for(key).map(|w| *w.start())
    }

    fn locate_lower_bound(&self, key: &[u8]) -> Option<usize> {
        self.window_for(key).map(|w| *w.start())
    }

    fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    fn size_bits(&self) -> usize {
        // start (8) + slope (8) + intercept (8) per segment, plus header
        (self.segments.len() * 24 + 32) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_points(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * 1000 + 7).collect()
    }

    #[test]
    fn error_bound_holds_uniform() {
        let pts = uniform_points(5000);
        for eps in [1usize, 4, 16] {
            let idx = PlaIndex::build_from_u64(&pts, eps);
            assert!(
                idx.max_error(&pts) <= eps + 1, // rounding can add one
                "eps {eps}: error {}",
                idx.max_error(&pts)
            );
        }
    }

    #[test]
    fn error_bound_holds_skewed() {
        // clustered + exponential gaps stress the cone
        let mut pts: Vec<u64> = (0..1000u64).collect();
        pts.extend((0..1000u64).map(|i| 1 << 20 | (i * i)));
        pts.extend((0..100u64).map(|i| (1 << 40) + (1u64 << (i % 20))));
        pts.sort_unstable();
        pts.dedup();
        let idx = PlaIndex::build_from_u64(&pts, 8);
        assert!(idx.max_error(&pts) <= 9, "error {}", idx.max_error(&pts));
    }

    #[test]
    fn uniform_data_needs_few_segments() {
        let pts = uniform_points(10_000);
        let idx = PlaIndex::build_from_u64(&pts, 8);
        assert!(idx.num_segments() <= 4, "{} segments", idx.num_segments());
    }

    #[test]
    fn window_contains_true_block() {
        let pts = uniform_points(2000);
        let idx = PlaIndex::build_from_u64(&pts, 4);
        for (i, &k) in pts.iter().enumerate() {
            let w = idx.candidate_window(k);
            assert!(w.contains(&i), "block {i} not in {w:?}");
        }
    }

    #[test]
    fn smaller_than_fences() {
        use crate::fence::FencePointers;
        let last_keys: Vec<Vec<u8>> = (0..5000u64)
            .map(|i| format!("{:012}", i * 1000 + 999).into_bytes())
            .collect();
        let fences = FencePointers::new(b"000000000000".to_vec(), last_keys.clone());
        let pla = PlaIndex::build(&last_keys, 8);
        assert!(
            pla.size_bits() < fences.size_bits() / 4,
            "pla {} vs fences {}",
            pla.size_bits(),
            fences.size_bits()
        );
    }

    #[test]
    fn duplicate_model_keys() {
        // long byte keys sharing an 8-byte prefix collapse to one u64
        let pts = vec![5, 5, 5, 9, 12];
        let idx = PlaIndex::build_from_u64(&pts, 2);
        // prediction for 5 must be within eps of all of blocks 0..=2
        let w = idx.candidate_window(5);
        assert!(w.contains(&0) || w.contains(&1) || w.contains(&2));
    }

    #[test]
    fn empty_and_single() {
        let idx = PlaIndex::build_from_u64(&[], 4);
        assert_eq!(idx.locate(b"x"), None);
        let one = PlaIndex::build_from_u64(&[100], 4);
        assert_eq!(one.predict(100), 0);
        assert_eq!(one.num_blocks(), 1);
    }

    #[test]
    fn out_of_range_pruning() {
        let pts = uniform_points(100);
        let idx = PlaIndex::build_from_u64(&pts, 4);
        let beyond = format!("{}", u64::MAX);
        let _ = beyond;
        let mut big_key = [0xFFu8; 8];
        big_key[0] = 0xFF;
        assert_eq!(idx.locate(&big_key), None);
    }

    #[test]
    fn epsilon_tradeoff_fewer_segments() {
        let mut pts: Vec<u64> = (0..5000u64).map(|i| i * i % 1_000_000_007).collect();
        pts.sort_unstable();
        pts.dedup();
        let tight = PlaIndex::build_from_u64(&pts, 1);
        let loose = PlaIndex::build_from_u64(&pts, 32);
        assert!(
            loose.num_segments() < tight.num_segments(),
            "loose {} vs tight {}",
            loose.num_segments(),
            tight.num_segments()
        );
    }
}
