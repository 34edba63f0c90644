//! Fixed-layout instruments: counters, gauges and log2 histograms.
//!
//! Every instrument is plain owned data — a shard's thread increments
//! its own cells with no synchronization, and cross-shard totals are
//! produced by merging [`crate::Snapshot`]s at sample barriers in
//! shard order. That is what keeps metrics both cheap on the hot path
//! and bit-identical across worker-thread counts.

use serde::{Deserialize, Serialize};

/// A monotonic event counter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter(u64);

impl Counter {
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    pub fn get(self) -> u64 {
        self.0
    }
}

/// A last-value gauge (set at sample barriers, not on the hot path).
/// Gauges from disjoint shards **sum** under snapshot merge: each
/// shard reports its own live mappings / wheel depth / free slots,
/// and the fleet-wide value is their total.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Gauge(u64);

impl Gauge {
    #[inline]
    pub fn set(&mut self, v: u64) {
        self.0 = v;
    }

    pub fn get(self) -> u64 {
        self.0
    }
}

/// A high-water gauge: keeps the maximum observed value. Merges by
/// `max`, so the fleet-wide sample is the worst shard's.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaxGauge(u64);

impl MaxGauge {
    #[inline]
    pub fn observe(&mut self, v: u64) {
        if v > self.0 {
            self.0 = v;
        }
    }

    pub fn get(self) -> u64 {
        self.0
    }
}

/// A log2-bucketed histogram of `u64` observations.
///
/// Bucket 0 holds the value `0`; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`, i.e. its inclusive upper edge is `2^i - 1`. The
/// bucket vector grows on demand (never beyond 65 cells), so an
/// all-small distribution stays a handful of words. Exact counts and
/// the exact sum are kept alongside, so rates and means are precise;
/// only quantiles are bucket-resolution (a factor-of-2 upper bound —
/// the right fidelity for "did probe latency blow up" questions).
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Per-bucket observation counts; index per [`Histogram::bucket_index`].
    pub buckets: Vec<u64>,
}

impl Histogram {
    /// The bucket an observation lands in.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive upper edge of bucket `i` (`0`, then `2^i - 1`).
    pub fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 0,
            1..=63 => (1u64 << i) - 1,
            _ => u64::MAX,
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations of `v` at once: the same histogram as
    /// `n` calls of [`Histogram::record`], bucket, count and sum. This
    /// is how a *sampled* measurement keeps whole-population totals —
    /// a caller that observes one event in `n` records each observation
    /// with weight `n`, so `count` and `sum` stay unbiased estimates of
    /// what observing every event would have recorded, and quantiles
    /// are those of the sampled events.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return; // no trailing empty bucket: histograms stay canonical
        }
        let idx = Self::bucket_index(v);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
        self.count += n;
        self.sum += v * n;
    }

    /// Fold another histogram into this one (element-wise bucket
    /// addition; the longer bucket vector wins).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Subtract an earlier cumulative histogram (for per-window
    /// deltas). Saturating, so a reset never underflows. The result
    /// is canonical (no trailing zero buckets), so a delta compares
    /// equal to a histogram recorded directly.
    pub fn delta_since(&self, prev: &Histogram) -> Histogram {
        let mut buckets: Vec<u64> = self.buckets.clone();
        for (mine, theirs) in buckets.iter_mut().zip(&prev.buckets) {
            *mine = mine.saturating_sub(*theirs);
        }
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        Histogram {
            count: self.count.saturating_sub(prev.count),
            sum: self.sum.saturating_sub(prev.sum),
            buckets,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket-resolution quantile: the upper edge of the first bucket
    /// whose cumulative count reaches `q * count` (an upper bound on
    /// the exact quantile, tight to a factor of 2). `q` is clamped to
    /// `[0, 1]`; returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(self.buckets.len().saturating_sub(1))
    }

    /// Log-linearly interpolated quantile estimate. Locates the bucket
    /// holding rank `⌈q·count⌉` like [`Histogram::quantile`], then
    /// interpolates *geometrically* within it: a log2 bucket spans
    /// `[2^(i-1), 2^i)`, so the within-bucket position `f ∈ (0, 1]`
    /// maps to `2^(i-1) · 2^f` — the right interpolation for buckets
    /// whose width is multiplicative, not additive. Clamped to the
    /// bucket's inclusive edges, so single-value buckets (0 and 1) are
    /// exact. Returns 0 for an empty histogram.
    pub fn quantile_interpolated(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0);
        let mut below = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let cumulative = below + n;
            if cumulative as f64 >= rank {
                if i == 0 {
                    return 0.0;
                }
                let frac = (rank - below as f64) / n as f64;
                let lower = (1u128 << (i - 1)) as f64;
                let estimate = lower * 2f64.powf(frac);
                return estimate.clamp(lower, Self::bucket_upper(i) as f64);
            }
            below = cumulative;
        }
        Self::bucket_upper(self.buckets.len().saturating_sub(1)) as f64
    }

    /// The `(p50, p95, p99)` interpolated quantiles, the triple the
    /// phase profiler reports.
    pub fn percentiles(&self) -> (f64, f64, f64) {
        (
            self.quantile_interpolated(0.50),
            self.quantile_interpolated(0.95),
            self.quantile_interpolated(0.99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_max_basics() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut g = Gauge::default();
        g.set(9);
        g.set(3);
        assert_eq!(g.get(), 3);
        let mut m = MaxGauge::default();
        m.observe(7);
        m.observe(2);
        assert_eq!(m.get(), 7);
    }

    #[test]
    fn histogram_buckets_are_log2_half_open() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper(0), 0);
        assert_eq!(Histogram::bucket_upper(1), 1);
        assert_eq!(Histogram::bucket_upper(10), 1023);
        assert_eq!(Histogram::bucket_upper(64), u64::MAX);
        // Every value sits at or below its bucket's upper edge, above
        // the previous bucket's.
        for v in [0u64, 1, 2, 5, 100, 4097, 1 << 40] {
            let i = Histogram::bucket_index(v);
            assert!(v <= Histogram::bucket_upper(i));
            if i > 0 {
                assert!(v > Histogram::bucket_upper(i - 1));
            }
        }
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 1, 3, 3, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 1111);
        assert_eq!(h.quantile(0.0), 0, "min bucket");
        assert_eq!(h.quantile(0.5), 3, "median lands in the [2,4) bucket");
        assert_eq!(h.quantile(1.0), 1023, "max lands in the [512,1024) bucket");
        assert!((h.mean() - 1111.0 / 8.0).abs() < 1e-9);
        assert_eq!(Histogram::default().quantile(0.99), 0);
    }

    #[test]
    fn interpolated_quantiles_track_exact_quantiles() {
        // Single-value buckets are exact: 0 and 1 each occupy a
        // one-value bucket, so clamping recovers the exact sample.
        let mut h = Histogram::default();
        for v in [0u64, 0, 0, 1, 1, 1, 1, 1] {
            h.record(v);
        }
        assert_eq!(h.quantile_interpolated(0.25), 0.0);
        assert_eq!(h.quantile_interpolated(0.99), 1.0);

        // Log-uniform samples inside one bucket: exact quantiles are
        // known, and geometric interpolation should land within the
        // bucket far tighter than the factor-of-2 edge bound.
        let mut h = Histogram::default();
        let samples: Vec<u64> = (0..64).map(|k| 512 + k * 8).collect(); // [512, 1016]
        for &v in &samples {
            h.record(v);
        }
        let exact_p50 = samples[31] as f64;
        let est = h.quantile_interpolated(0.50);
        assert!((512.0..=1023.0).contains(&est), "stays inside the bucket");
        assert!(
            (est - exact_p50).abs() / exact_p50 < 0.20,
            "p50 estimate {est} within 20% of exact {exact_p50}"
        );
        // The interpolated estimate never exceeds the edge-bound
        // quantile and is monotone in q.
        assert!(est <= h.quantile(0.50) as f64);
        let (p50, p95, p99) = h.percentiles();
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 <= h.quantile(0.99) as f64);

        // Empty histogram reports 0.
        assert_eq!(Histogram::default().quantile_interpolated(0.5), 0.0);

        // Multi-bucket distribution: rank walks across buckets.
        let mut h = Histogram::default();
        for v in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 512] {
            h.record(v);
        }
        let p90 = h.quantile_interpolated(0.90);
        assert!(
            (256.0..=511.0).contains(&p90),
            "rank 9 of 10 lands in the [256,512) bucket, got {p90}"
        );
    }

    #[test]
    fn histogram_merge_adds_and_delta_subtracts() {
        let mut a = Histogram::default();
        a.record(1);
        a.record(500);
        let mut b = Histogram::default();
        b.record(0);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count, 3);
        assert_eq!(merged.sum, 501);
        let d = merged.delta_since(&a);
        assert_eq!(d, b, "delta of a merge recovers the other operand");
        assert!(Histogram::default().delta_since(&a).is_empty());
    }
}
