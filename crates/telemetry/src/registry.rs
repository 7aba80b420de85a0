//! The in-memory metrics store: named counters and power-of-two
//! histograms.

use std::collections::BTreeMap;

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i >= 1`
/// holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A power-of-two-bucketed histogram over `u64` samples (cycles, bytes).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// `buckets[0]` counts zeros; `buckets[i]` counts `[2^(i-1), 2^i)`.
    pub buckets: Vec<u64>,
}

impl Histogram {
    /// Index of the bucket `value` falls into.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            value.ilog2() as usize + 1
        }
    }

    /// Lower bound (inclusive) of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; HISTOGRAM_BUCKETS];
        }
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A histogram with a bounded window of recent samples next to the
/// cumulative totals. The cumulative half is an ordinary [`Histogram`];
/// the window half keeps the last `cap` raw samples in a ring so recent
/// latency quantiles stay answerable without unbounded memory. The
/// window is host-side state (truncation depends on arrival order), so
/// windowed histograms live outside the [`Registry`] maps and
/// are never part of deterministic artifacts.
#[derive(Clone, Debug)]
pub struct WindowedHistogram {
    cap: usize,
    ring: Vec<u64>,
    next: usize,
    len: usize,
    /// Cumulative (all-time) histogram over every sample recorded.
    pub total: Histogram,
}

impl WindowedHistogram {
    /// Creates a windowed histogram retaining at most `cap` recent
    /// samples (`cap` is clamped to at least 1).
    pub fn new(cap: usize) -> WindowedHistogram {
        let cap = cap.max(1);
        WindowedHistogram {
            cap,
            ring: vec![0; cap],
            next: 0,
            len: 0,
            total: Histogram::default(),
        }
    }

    /// Records one sample into both the window and the cumulative total.
    pub fn record(&mut self, value: u64) {
        self.total.record(value);
        self.ring[self.next] = value;
        self.next = (self.next + 1) % self.cap;
        self.len = (self.len + 1).min(self.cap);
    }

    /// Number of samples currently in the window.
    pub fn window_len(&self) -> usize {
        self.len
    }

    /// Builds a [`Histogram`] over just the windowed samples.
    pub fn window(&self) -> Histogram {
        let mut h = Histogram::default();
        for i in 0..self.len {
            h.record(self.ring[i]);
        }
        h
    }

    /// The `q`-quantile (`0.0..=1.0`) over the windowed samples, or
    /// `None` when the window is empty. Nearest-rank on the sorted
    /// window.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let mut sorted: Vec<u64> = self.ring[..self.len].to_vec();
        sorted.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
        Some(sorted[idx])
    }
}

/// Named counters and histograms. Both maps are ordered so exports are
/// deterministic.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    /// Monotonic named counters.
    pub counters: BTreeMap<String, u64>,
    /// Named histograms.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `delta` to counter `name`.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Reads a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records `value` into histogram `name`.
    pub fn histogram_record(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket 0 is exactly {0}; bucket i covers [2^(i-1), 2^i).
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for i in 1..HISTOGRAM_BUCKETS {
            // The lower boundary of bucket i maps into bucket i, and the
            // value just below maps into bucket i-1.
            let lo = Histogram::bucket_lo(i);
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(Histogram::bucket_index(lo - 1), i - 1);
        }
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 7, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1033);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[11], 1);
        assert!((h.mean() - 206.6).abs() < 1e-9);
    }

    #[test]
    fn histogram_edge_values() {
        // 0, 1 and u64::MAX land in the first, second and last bucket,
        // and the stats survive the saturating extremes.
        let mut h = Histogram::default();
        h.record(0);
        assert_eq!((h.count, h.min, h.max, h.sum), (1, 0, 0, 0));
        assert_eq!(h.buckets[0], 1);
        h.record(1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!((h.min, h.max), (0, 1));
        h.record(u64::MAX);
        assert_eq!(h.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(h.max, u64::MAX);
        // sum saturates rather than wrapping.
        assert_eq!(h.sum, u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum, u64::MAX);
        assert_eq!(h.count, 4);

        // Exact powers of two sit on bucket lower boundaries.
        let mut p = Histogram::default();
        for i in 1..HISTOGRAM_BUCKETS {
            p.record(Histogram::bucket_lo(i));
        }
        for i in 1..HISTOGRAM_BUCKETS {
            assert_eq!(p.buckets[i], 1, "bucket {i}");
        }
        assert_eq!(p.buckets[0], 0);
    }

    #[test]
    fn windowed_histogram_ring() {
        let mut w = WindowedHistogram::new(4);
        assert_eq!(w.quantile(0.5), None);
        for v in [10, 20, 30, 40, 50, 60] {
            w.record(v);
        }
        // Total sees all six samples; the window only the last four.
        assert_eq!(w.total.count, 6);
        assert_eq!(w.window_len(), 4);
        let win = w.window();
        assert_eq!(win.count, 4);
        assert_eq!((win.min, win.max), (30, 60));
        assert_eq!(w.quantile(0.0), Some(30));
        assert_eq!(w.quantile(1.0), Some(60));
        assert_eq!(w.quantile(0.5), Some(50));
    }
}
