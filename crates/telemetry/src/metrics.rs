//! Atomic metric primitives: counters, gauges and fixed-bucket
//! histograms.
//!
//! All updates are relaxed atomics — metrics never synchronize the
//! threads they observe. Histograms bucket *microsecond* durations by
//! default ([`DEFAULT_US_EDGES`]), and every histogram carries its own
//! edge vector so two [`HistogramSnapshot`]s merge exactly when (and
//! only when) their edges agree — the property
//! [`MetricsSnapshot::merge`](crate::MetricsSnapshot::merge) relies on.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins atomic `f64` gauge (stored as bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Replaces the gauge value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Default bucket upper bounds for microsecond-scale durations: a
/// 1-2-5 decade ladder from 1 µs to 10 s. One fixed ladder everywhere
/// means snapshots from any process merge without rebinning.
pub const DEFAULT_US_EDGES: &[u64] = &[
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    200_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
];

/// A fixed-bucket histogram over `u64` samples (conventionally µs).
///
/// Bucket `i` counts samples `v <= edges[i]` (and `> edges[i-1]`); one
/// extra overflow bucket past the last edge catches the rest. `min` is
/// `u64::MAX` while the histogram is empty.
#[derive(Debug)]
pub struct Histogram {
    edges: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A histogram with the given strictly increasing bucket edges.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or not strictly increasing.
    #[must_use]
    pub fn with_edges(edges: &[u64]) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one bucket edge");
        assert!(edges.windows(2).all(|w| w[0] < w[1]), "histogram edges must strictly increase");
        let buckets = (0..=edges.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            edges: edges.to_vec(),
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// A histogram over the default microsecond ladder.
    #[must_use]
    pub fn new_us() -> Self {
        Self::with_edges(DEFAULT_US_EDGES)
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        // First edge >= value; everything past the last edge overflows
        // into the trailing bucket.
        let i = self.edges.partition_point(|&e| e < value);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram's state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            edges: self.edges.clone(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`], mergeable and serializable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (strictly increasing).
    pub edges: Vec<u64>,
    /// Per-bucket counts; `edges.len() + 1` entries, last = overflow.
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    /// `u64::MAX` when `count == 0`.
    pub min: u64,
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot over `edges` (for building merges from zero).
    #[must_use]
    pub fn empty(edges: &[u64]) -> Self {
        Self {
            edges: edges.to_vec(),
            buckets: vec![0; edges.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Folds `other` into `self`. Both must share identical edges —
    /// fixed buckets merge by addition, anything else would silently
    /// rebin.
    ///
    /// # Errors
    ///
    /// Returns a message when the edge vectors differ.
    pub fn merge(&mut self, other: &Self) -> Result<(), String> {
        if self.edges != other.edges {
            return Err(format!(
                "histogram edge mismatch: {} vs {} buckets",
                self.edges.len(),
                other.edges.len()
            ));
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        Ok(())
    }

    /// Mean sample value, 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(-3.25);
        assert_eq!(g.get(), -3.25);
    }

    #[test]
    fn bucket_edges_are_inclusive_upper_bounds() {
        let h = Histogram::with_edges(&[10, 20, 50]);
        // v <= 10 → bucket 0 (including 0 and the edge itself).
        h.record(0);
        h.record(10);
        // 10 < v <= 20 → bucket 1.
        h.record(11);
        h.record(20);
        // 20 < v <= 50 → bucket 2.
        h.record(50);
        // v > 50 → overflow bucket.
        h.record(51);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![2, 2, 1, 2]);
        assert_eq!(s.count, 7);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
    }

    #[test]
    fn empty_histogram_has_sentinel_min() {
        let s = Histogram::new_us().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, u64::MAX);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.buckets.len(), DEFAULT_US_EDGES.len() + 1);
    }

    #[test]
    fn merge_adds_matching_buckets_and_rejects_mismatched_edges() {
        let a = Histogram::with_edges(&[10, 20]);
        a.record(5);
        a.record(15);
        let b = Histogram::with_edges(&[10, 20]);
        b.record(15);
        b.record(99);
        let mut m = a.snapshot();
        m.merge(&b.snapshot()).unwrap();
        assert_eq!(m.buckets, vec![1, 2, 1]);
        assert_eq!(m.count, 4);
        assert_eq!(m.sum, 5 + 15 + 15 + 99);
        assert_eq!((m.min, m.max), (5, 99));

        let other = Histogram::with_edges(&[10, 30]).snapshot();
        assert!(m.merge(&other).is_err());
        let fewer = Histogram::with_edges(&[10]).snapshot();
        assert!(m.merge(&fewer).is_err());
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn unsorted_edges_are_rejected() {
        let _ = Histogram::with_edges(&[10, 10]);
    }
}
