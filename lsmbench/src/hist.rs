//! Log-linear latency histogram and the slice-median helpers.
//!
//! `lsm_obs::Histogram` buckets by powers of two, so two runs 10 % apart
//! can land in the same bucket; the ledger gates on 10 % bounds and needs
//! finer resolution. Values below [`SUB`] are exact; above, each octave is
//! split into [`SUB`] equal sub-buckets, so a reported quantile (the
//! bucket midpoint) is within 1 / (2·[`SUB`]) < 0.4 % of some recorded value
//! in that bucket.

const SUB_BITS: u32 = 7;
/// Sub-buckets per octave.
pub const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Mergeable log-linear histogram of `u64` samples (nanoseconds here).
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // ≥ SUB_BITS
    let shift = exp - SUB_BITS;
    let sub = (v >> shift) - SUB; // top SUB_BITS bits after the leading one
    ((shift as u64 + 1) * SUB + sub) as usize
}

/// Midpoint of bucket `i` (exact value for the linear range).
fn bucket_mid(i: usize) -> f64 {
    let (octave, sub) = (i as u64 / SUB, i as u64 % SUB);
    if octave == 0 {
        return sub as f64;
    }
    let shift = octave - 1;
    let lo = (SUB + sub) << shift;
    lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile, `p` in (0, 1]; 0 for an empty histogram.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return bucket_mid(i).min(self.max as f64);
            }
        }
        self.max as f64
    }
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it — anything higher is a handful of outliers, not a
/// statistic.
pub fn highest_supported_percentile(count: u64) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|p| count as f64 * (1.0 - p) >= 10.0)
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// How a latency quantile computed per slice of a window becomes one
/// number. Throughput is never summarised this way — it is ops ÷ wall over
/// the whole window, so the slices that hold flushes and merges count in
/// full.
#[derive(Clone, Copy, Default, PartialEq)]
pub enum Summary {
    /// The median across slices: a neighbour's burst that spoils a few
    /// slices does not move the row. The engine workloads, whose slices
    /// each hold the same share of the workload's own maintenance.
    #[default]
    Median,
    /// The first quartile across slices — the quiet quarter of the phase.
    /// The served workloads: on this box interference slows a round trip
    /// for seconds at a time, so the median slice still moves with the
    /// neighbours (same ten runs, quartile spread of the depth-1 p99:
    /// median slice 14 %, quiet-quartile slice 7 %). A quarter of the
    /// slices is still too many for one lucky slice to set the number, and
    /// a change to the request path moves every slice.
    QuietQuartile,
}

/// The `p`-quantile of each slice that has samples, summarised across
/// slices; 0 when no slice has any.
pub fn slice_quantile(slices: &[Hist], p: f64, how: Summary) -> f64 {
    let mut qs: Vec<f64> = slices
        .iter()
        .filter(|h| h.count() > 0)
        .map(|h| h.quantile(p))
        .collect();
    match how {
        Summary::Median => median(&qs),
        Summary::QuietQuartile => {
            qs.sort_by(|a, b| a.total_cmp(b));
            qs.get(qs.len() / 4).copied().unwrap_or(0.0)
        }
    }
}

/// All slices folded into one histogram (for counts, means, p99.9 and max).
pub fn merged(slices: &[Hist]) -> Hist {
    let mut all = Hist::default();
    for h in slices {
        all.merge(h);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_error_within_one_percent() {
        // a wide geometric sweep: every quantile must land within 1 % of
        // the exact nearest-rank value
        let mut exact: Vec<u64> = (0..20_000u64)
            .map(|i| (1.0005f64.powi(i as i32) * 37.0) as u64 + i % 7)
            .collect();
        let mut h = Hist::default();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        for p in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((p * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let want = exact[rank - 1] as f64;
            let got = h.quantile(p);
            assert!(
                (got - want).abs() <= want * 0.01 + 0.5,
                "p={p}: got {got}, want {want}"
            );
        }
        assert_eq!(h.count(), 20_000);
        assert_eq!(h.max(), *exact.last().unwrap());
    }

    #[test]
    fn small_values_are_exact_and_buckets_monotone() {
        let mut h = Hist::default();
        for v in 0..SUB {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), (SUB / 2 - 1) as f64);
        let mut last = 0;
        for shift in 0..57 {
            for v in [
                SUB << shift,
                (SUB << shift) + (1 << shift),
                u64::MAX >> (56 - shift),
            ] {
                let b = bucket_of(v);
                assert!(b >= last && b < BUCKETS, "v={v} bucket={b}");
                last = b;
            }
        }
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let (mut a, mut b, mut all) = (Hist::default(), Hist::default(), Hist::default());
        for i in 0..5_000u64 {
            let v = i * i % 90_001 + 100;
            if i % 3 == 0 { &mut a } else { &mut b }.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.mean(), all.mean());
        assert_eq!(a.max(), all.max());
        for p in [0.5, 0.99, 0.999] {
            assert_eq!(a.quantile(p), all.quantile(p));
        }
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(1_000_000), Some(0.9999));
    }

    #[test]
    fn slice_median_ignores_a_disturbed_minority() {
        // three of eight slices hit by a neighbour: the summary must not move
        let mut slices = vec![Hist::default(); 8];
        for (i, h) in slices.iter_mut().enumerate() {
            for _ in 0..100 {
                h.record(if i == 2 || i == 5 || i == 6 {
                    1_000_000
                } else {
                    1_000 + i as u64
                });
            }
        }
        slices.push(Hist::default()); // a slice without samples is skipped
        let q = slice_quantile(&slices, 0.99, Summary::Median);
        assert!((q - 1_000.0).abs() <= 10.0, "median of slices {q}");
        assert_eq!(merged(&slices).count(), 800);
        assert_eq!(slice_quantile(&[], 0.5, Summary::Median), 0.0);
        assert_eq!(slice_quantile(&[], 0.5, Summary::QuietQuartile), 0.0);
        // the quiet quartile: a quarter of the way in from the fast end
        let quiet = slice_quantile(&slices, 0.5, Summary::QuietQuartile);
        assert!((quiet - 1_003.0).abs() <= 4.0, "quiet quartile {quiet}");
        for (i, h) in slices.iter_mut().enumerate().take(7) {
            *h = Hist::default();
            h.record(if i < 6 { 1_000_000 } else { 5 });
        }
        // 7 disturbed of 8: the median goes with them, the quartile too
        assert!(slice_quantile(&slices, 0.5, Summary::QuietQuartile) > 900_000.0);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }
}
