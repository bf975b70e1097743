//! A small integer histogram for occupancy/latency distributions.

use std::fmt;

/// Histogram over `u64` samples with unit-width buckets up to a cap.
///
/// Samples at or above the cap land in the final overflow bucket. Used for
/// issue-queue occupancy and chain-count distributions in the evaluation.
///
/// # Example
///
/// ```
/// use diq_stats::Histogram;
///
/// let mut h = Histogram::new(4);
/// h.record(0);
/// h.record(2);
/// h.record(99); // overflow bucket
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bucket(2), 1);
/// assert_eq!(h.overflow(), 1);
/// assert!((h.mean() - (0.0 + 2.0 + 99.0) / 3.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with unit buckets `0..cap` plus an overflow
    /// bucket.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "histogram needs at least one bucket");
        Histogram {
            buckets: vec![0; cap + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = (value as usize).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Records `n` samples of `value` at once — bucket for bucket, count,
    /// sum and max exactly as `n` calls of [`record`](Histogram::record)
    /// (integer state, so one multiply is exact). `n == 0` records nothing.
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = (value as usize).min(self.buckets.len() - 1);
        self.buckets[idx] += n;
        self.count += n;
        self.sum += value * n;
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Count in bucket `i` (`i < cap`).
    #[must_use]
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i.min(self.buckets.len() - 1)]
    }

    /// Count of samples that hit the overflow bucket.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        *self.buckets.last().expect("non-empty")
    }

    /// Mean of all recorded samples (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded sample.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `p`-th percentile (0 ≤ `p` ≤ 100, clamped) of the recorded
    /// samples: the smallest bucket value whose cumulative count covers
    /// `p`% of all samples.
    ///
    /// Returns `None` when the histogram is empty — an empty distribution
    /// has no percentiles, and a sentinel like 0 would be indistinguishable
    /// from a real all-zero distribution. Percentiles landing in the
    /// overflow bucket report [`max`](Histogram::max): per-value resolution
    /// ends at the cap, and the true maximum is the tightest bound the
    /// histogram still tracks.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        // Rank of the sample that covers p% of the mass, 1-based; p = 0
        // degenerates to the minimum rather than an out-of-range rank 0.
        let rank = ((p.clamp(0.0, 100.0) / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i == self.buckets.len() - 1 {
                    self.max
                } else {
                    i as u64
                });
            }
        }
        unreachable!("cumulative bucket mass covers every rank up to count")
    }

    /// Fraction of samples with value ≥ `threshold` (0.0 when empty).
    ///
    /// Values beyond the cap are counted via the overflow bucket, so the
    /// result is exact only for `threshold < cap`.
    #[must_use]
    pub fn frac_at_least(&self, threshold: usize) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let tail: u64 = self.buckets[threshold.min(self.buckets.len() - 1)..]
            .iter()
            .sum();
        tail as f64 / self.count as f64
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} max={}",
            self.count,
            self.mean(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_overflows() {
        let mut h = Histogram::new(2);
        for v in [0, 1, 1, 2, 5] {
            h.record(v);
        }
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 2);
        assert_eq!(h.overflow(), 2); // 2 and 5 both land at/after cap
        assert_eq!(h.max(), 5);
    }

    #[test]
    fn record_n_equals_n_single_records() {
        for (value, n) in [(0, 1), (3, 7), (4, 5), (99, 3), (2, 0), (1, 1000)] {
            let mut batched = Histogram::new(4);
            let mut single = Histogram::new(4);
            // A non-empty prefix, so max/sum/percentile interplay shows.
            for h in [&mut batched, &mut single] {
                h.record(1);
                h.record(6);
            }
            batched.record_n(value, n);
            for _ in 0..n {
                single.record(value);
            }
            assert_eq!(batched, single, "record_n({value}, {n})");
            for p in [0.0, 25.0, 50.0, 90.0, 100.0] {
                assert_eq!(batched.percentile(p), single.percentile(p));
            }
            assert_eq!(batched.count(), single.count());
            assert_eq!(batched.max(), single.max());
            assert_eq!(batched.mean().to_bits(), single.mean().to_bits());
        }
        let mut empty = Histogram::new(4);
        empty.record_n(9, 0);
        assert_eq!(empty, Histogram::new(4), "n = 0 leaves max untouched");
    }

    #[test]
    fn frac_at_least() {
        let mut h = Histogram::new(8);
        for v in 0..10u64 {
            h.record(v);
        }
        assert!((h.frac_at_least(5) - 0.5).abs() < 1e-12);
        assert_eq!(h.frac_at_least(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_cap_panics() {
        let _ = Histogram::new(0);
    }

    #[test]
    fn empty_histogram_queries_are_well_defined() {
        let h = Histogram::new(4);
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.percentile(100.0), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.frac_at_least(0), 0.0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn percentiles_walk_the_distribution() {
        let mut h = Histogram::new(16);
        for v in 0..10u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), Some(0), "p0 is the minimum");
        assert_eq!(h.percentile(10.0), Some(0), "rank 1 of 10");
        assert_eq!(h.percentile(50.0), Some(4), "rank 5 of 10");
        assert_eq!(h.percentile(90.0), Some(8));
        assert_eq!(h.percentile(100.0), Some(9), "p100 is the maximum");
        // Out-of-range p clamps instead of panicking or extrapolating.
        assert_eq!(h.percentile(-3.0), Some(0));
        assert_eq!(h.percentile(250.0), Some(9));
    }

    #[test]
    fn single_bucket_saturation() {
        // cap = 1: one real bucket (value 0) plus overflow — the smallest
        // legal geometry. Everything ≥ 1 saturates into overflow.
        let mut h = Histogram::new(1);
        for v in [0, 0, 1, 7, 1000] {
            h.record(v);
        }
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.overflow(), 3);
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 1000);
        // Percentiles inside the real bucket resolve exactly; the rest
        // saturate to the tracked maximum, not to the cap.
        assert_eq!(h.percentile(40.0), Some(0));
        assert_eq!(h.percentile(100.0), Some(1000));
        assert!((h.mean() - 1008.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn overflow_bucket_accounting_stays_exact() {
        let mut h = Histogram::new(4);
        for v in [4, 5, 6, 1_000_000] {
            h.record(v); // all at/past the cap
        }
        // Every sample is in the overflow bucket, none in the real ones.
        assert_eq!(h.overflow(), 4);
        assert_eq!((0..4).map(|i| h.bucket(i)).sum::<u64>(), 0);
        // Sum/mean/max use the true values, not the clamped bucket index.
        assert_eq!(h.max(), 1_000_000);
        assert!((h.mean() - 1_000_015.0 / 4.0).abs() < 1e-9);
        // frac_at_least is exact below the cap and conflates past it: a
        // threshold beyond the cap still reports the whole overflow tail.
        assert_eq!(h.frac_at_least(4), 1.0);
        assert_eq!(h.frac_at_least(100), 1.0);
        // Any percentile lands in overflow and reports the maximum.
        assert_eq!(h.percentile(1.0), Some(1_000_000));
    }
}
