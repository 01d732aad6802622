//! Log₂-bucketed latency histograms.
//!
//! Values (nanoseconds) are classified into 64 power-of-two buckets by bit
//! width: bucket 0 holds the value 0, bucket `i ≥ 1` holds `[2^(i-1), 2^i - 1]`.
//! Recording is a `leading_zeros` plus relaxed atomic adds — no lock, no float,
//! no allocation — so the executor can stamp every job.  Exact `count`, `sum`,
//! `min`, and `max` ride along; quantiles are estimated from bucket upper bounds
//! at snapshot time (error bounded by the 2× bucket width, plenty for p50/p99
//! latency triage).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one per possible bit width of a `u64`, plus bucket 0.
pub const NUM_BUCKETS: usize = 64;

/// Bucket index for `value`: 0 for 0, otherwise its bit width capped at 63.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(NUM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `idx`.
pub(crate) fn bucket_upper_bound(idx: usize) -> u64 {
    if idx >= 63 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

/// A concurrent log₂ histogram of `u64` values.
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` until the first record.
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Copy the current state out.  Concurrent recorders may land between the
    /// field loads; the snapshot is internally consistent enough for reporting
    /// (counts never decrease, quantiles clamp to `[min, max]`).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(self.buckets.iter()) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], with quantile estimation and merge.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; see the module docs for the bucket → range mapping.
    pub buckets: [u64; NUM_BUCKETS],
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded values, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Estimate the `q`-quantile (`0.0 ≤ q ≤ 1.0`), or `None` when empty.
    ///
    /// Walks the cumulative bucket counts to the bucket containing the target
    /// rank and returns its upper bound, clamped to the exact `[min, max]`
    /// observed — so `quantile(0.0) ≥ min`, `quantile(1.0) ≤ max`, and the
    /// estimate is never more than one bucket width (2×) above the true value.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target value, 1-based; q = 0 maps to the first value.
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                return Some(bucket_upper_bound(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Add another snapshot's contents into this one.  `sum` wraps on overflow,
    /// matching the relaxed `fetch_add` accumulation in [`Histogram::record`].
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_ranges_partition_the_u64_line() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 63);
        // Every bucket's upper bound classifies into that bucket.
        for idx in 0..NUM_BUCKETS {
            assert!(bucket_index(bucket_upper_bound(idx)) <= idx);
        }
    }

    #[test]
    fn exact_stats_and_quantiles() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000, 10_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 11_106);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 10_000);
        assert!(s.quantile(0.0).unwrap() >= 1);
        assert!(s.quantile(1.0).unwrap() <= 10_000);
        let p50 = s.quantile(0.5).unwrap();
        assert!((3..=127).contains(&p50), "p50 estimate {p50} out of range");
    }

    #[test]
    fn merge_accumulates() {
        let a = Histogram::new();
        a.record(5);
        let b = Histogram::new();
        b.record(50_000);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 5);
        assert_eq!(s.max, 50_000);
    }

    #[test]
    fn empty_histogram_reports_none() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.quantile(0.5), None);
    }
}
