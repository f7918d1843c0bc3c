//! Shared latency statistics: exact percentiles over small sample sets and
//! a compact log-bucketed histogram for open-loop load generation, where
//! millions of samples arrive and the *tail* (p99/p999), not the mean, is
//! the number that matters.

/// Nearest-rank percentile of an **ascending-sorted** slice: the smallest
/// element with at least `q·len` elements ≤ it (`q` in `[0, 1]`).
///
/// Panics on an empty slice — an experiment asking for a percentile of
/// nothing is a bug, not a value.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let q = q.clamp(0.0, 1.0);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// A compact log-bucketed latency histogram over `u64` values (nanoseconds
/// by convention): constant memory regardless of sample count, `O(1)`
/// record, ≈3% relative value error — the standard shape for tail-latency
/// reporting under open-loop load, where storing every sample would make
/// the load generator the bottleneck.
///
/// The bucket layout is [`ftb_obs::buckets`] — the same cells the serving
/// stack's atomic [`ftb_obs::Histogram`] uses, so loadgen-side and
/// server-side distributions line up bucket-for-bucket. Quantile lookups
/// report the bucket's **upper bound**, so reported tail values never
/// understate the truth.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
    sum: u128,
}

impl LatencyHistogram {
    /// An empty histogram covering the full `u64` range.
    pub fn new() -> Self {
        // One sub-bucket array per possible bucket exponent.
        LatencyHistogram {
            counts: vec![0; ftb_obs::buckets::NUM_CELLS],
            total: 0,
            max: 0,
            sum: 0,
        }
    }

    /// Index of the (bucket, sub-bucket) cell holding `value`.
    fn index(value: u64) -> usize {
        ftb_obs::buckets::index(value)
    }

    /// Upper bound (inclusive) of the values mapping to cell `index`.
    fn upper_bound(index: usize) -> u64 {
        ftb_obs::buckets::upper_bound(index)
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index(value)] += 1;
        self.total += 1;
        self.max = self.max.max(value);
        self.sum += value as u128;
    }

    /// Fold another histogram into this one (per-thread recording, merged
    /// at report time).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the recorded samples (exact sum, 0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// The value at quantile `q` (in `[0, 1]`): the upper bound of the
    /// first cell whose cumulative count reaches `q·total` — within ≈3% of
    /// the exact nearest-rank sample, never below it. Returns 0 when empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The exact max is tracked; never report past it.
                return Self::upper_bound(i).min(self.max);
            }
        }
        self.max
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_obs::buckets::SUB_BUCKETS;

    #[test]
    fn nearest_rank_percentiles_are_actual_samples() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.0), 1);
        assert_eq!(percentile(&sorted, 0.5), 50);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[42.0], 0.999), 42.0);
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        assert_eq!(h.count(), SUB_BUCKETS as u64);
        assert_eq!(h.value_at_quantile(0.5), (SUB_BUCKETS / 2 - 1) as u64);
        assert_eq!(h.value_at_quantile(1.0), SUB_BUCKETS as u64 - 1);
    }

    #[test]
    fn histogram_quantiles_track_exact_percentiles_within_resolution() {
        // A skewed distribution: mostly fast, a heavy tail.
        let mut samples: Vec<u64> = Vec::new();
        let mut x = 1u64;
        for i in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let fast = 10_000 + (x >> 50);
            samples.push(if i % 100 == 0 { fast * 50 } else { fast });
        }
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = percentile(&samples, q) as f64;
            let approx = h.value_at_quantile(q) as f64;
            assert!(
                approx >= exact && approx <= exact * 1.04,
                "q={q}: exact {exact}, histogram {approx}"
            );
        }
        assert_eq!(h.max(), *samples.last().unwrap());
        let exact_mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((h.mean() - exact_mean).abs() < 1e-6);
    }

    #[test]
    fn histogram_merge_equals_single_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 0..1000u64 {
            let v = i * 37 % 100_000;
            whole.record(v);
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.max(), whole.max());
        for q in [0.1, 0.5, 0.99, 1.0] {
            assert_eq!(a.value_at_quantile(q), whole.value_at_quantile(q));
        }
    }

    #[test]
    fn histogram_handles_extreme_values() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.value_at_quantile(0.25), 0);
        assert_eq!(h.value_at_quantile(1.0), u64::MAX);
    }

    #[test]
    fn upper_bounds_are_monotone_and_contain_their_values() {
        let probes = [
            0u64,
            1,
            31,
            32,
            33,
            100,
            1023,
            1024,
            4096,
            1 << 20,
            (1 << 40) + 12345,
        ];
        for &v in &probes {
            let i = LatencyHistogram::index(v);
            assert!(
                LatencyHistogram::upper_bound(i) >= v,
                "upper bound below its own value at {v}"
            );
            if i > 0 {
                assert!(LatencyHistogram::upper_bound(i - 1) < LatencyHistogram::upper_bound(i));
            }
        }
    }
}
