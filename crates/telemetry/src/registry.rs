//! The in-memory metrics store: named counters, gauges, power-of-two
//! histograms, aggregated span statistics and a bounded event log.

use std::collections::BTreeMap;

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i >= 1`
/// holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Maximum number of events retained verbatim; later events are counted
/// (per name) but their payloads dropped.
pub const EVENT_CAP: usize = 65_536;

/// A dynamically typed event-field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// A point-in-time instrument: a signed value with its extremes. Gauges
/// track levels (queue depth, in-flight requests) rather than rates, so
/// they support both absolute sets and relative adjustments, and they
/// remember the high/low-water marks the level ever reached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gauge {
    /// Current level.
    pub value: i64,
    /// Highest level ever observed.
    pub max: i64,
    /// Lowest level ever observed.
    pub min: i64,
    /// Number of updates applied.
    pub updates: u64,
}

impl Gauge {
    fn observe(&mut self, value: i64) {
        if self.updates == 0 {
            self.max = value;
            self.min = value;
        } else {
            self.max = self.max.max(value);
            self.min = self.min.min(value);
        }
        self.value = value;
        self.updates += 1;
    }

    /// Merges another gauge: levels cannot be summed across runs, so the
    /// merge keeps the component-wise extremes (commutative and
    /// associative, like every other merge in the registry).
    pub fn merge(&mut self, other: &Gauge) {
        if other.updates == 0 {
            return;
        }
        if self.updates == 0 {
            *self = *other;
            return;
        }
        self.value = self.value.max(other.value);
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
        self.updates += other.updates;
    }
}

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
/// windowed histograms live outside the mergeable [`Registry`] maps and
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

/// Aggregated statistics for one span path (`"a;b;c"`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed guard-scoped entries.
    pub calls: u64,
    /// Total wall time spent inside the span (inclusive of children).
    pub wall_ns: u64,
}

impl SpanStat {
    /// Wall time in milliseconds — [`SpanStat::wall_ns`] as exported.
    pub fn wall_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6
    }
}

/// One retained event.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// Global sequence number (0-based).
    pub seq: u64,
    /// Event name.
    pub name: String,
    /// Event payload.
    pub fields: Vec<(String, Value)>,
}

/// The aggregated telemetry of one run. All maps are ordered so exports
/// are deterministic.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    /// Monotonic named counters.
    pub counters: BTreeMap<String, u64>,
    /// Named level gauges (merged by extremes, not sums).
    pub gauges: BTreeMap<String, Gauge>,
    /// Named histograms.
    pub histograms: BTreeMap<String, Histogram>,
    /// Per-path span statistics.
    pub spans: BTreeMap<String, SpanStat>,
    /// Retained events, in emission order (capped at [`EVENT_CAP`]).
    pub events: Vec<EventRecord>,
    /// Total emissions per event name (counted past the cap).
    pub event_counts: BTreeMap<String, u64>,
    /// Events whose payloads were dropped by the cap.
    pub events_dropped: u64,
}

impl Registry {
    /// Creates an empty registry.
    pub const fn new() -> Registry {
        Registry {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            spans: BTreeMap::new(),
            events: Vec::new(),
            event_counts: BTreeMap::new(),
            events_dropped: 0,
        }
    }

    /// Adds `delta` to counter `name`.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Reads a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to an absolute level.
    pub fn gauge_set(&mut self, name: &str, value: i64) {
        self.gauges
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Adjusts gauge `name` by `delta` relative to its current level.
    pub fn gauge_add(&mut self, name: &str, delta: i64) {
        let g = self.gauges.entry(name.to_string()).or_default();
        let next = g.value.saturating_add(delta);
        g.observe(next);
    }

    /// Reads a gauge's current level (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).map(|g| g.value).unwrap_or(0)
    }

    /// Records `value` into histogram `name`.
    pub fn histogram_record(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Marks one completed entry of span `path`, adding wall time.
    pub fn span_complete(&mut self, path: &str, wall_ns: u64) {
        let s = self.spans.entry(path.to_string()).or_default();
        s.calls += 1;
        s.wall_ns += wall_ns;
    }

    /// Appends an event.
    pub fn event(&mut self, name: &str, fields: Vec<(String, Value)>) {
        *self.event_counts.entry(name.to_string()).or_insert(0) += 1;
        if self.events.len() < EVENT_CAP {
            let seq = self.events.len() as u64 + self.events_dropped;
            self.events.push(EventRecord {
                seq,
                name: name.to_string(),
                fields,
            });
        } else {
            self.events_dropped += 1;
        }
    }

    /// Merges another registry into this one (used to fold per-run
    /// registries into a session-level profile).
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, g) in &other.gauges {
            self.gauges.entry(k.clone()).or_default().merge(g);
        }
        for (k, h) in &other.histograms {
            let mine = self.histograms.entry(k.clone()).or_default();
            if mine.buckets.is_empty() {
                mine.buckets = vec![0; HISTOGRAM_BUCKETS];
            }
            if mine.count == 0 {
                mine.min = h.min;
                mine.max = h.max;
            } else if h.count > 0 {
                mine.min = mine.min.min(h.min);
                mine.max = mine.max.max(h.max);
            }
            mine.count += h.count;
            mine.sum = mine.sum.saturating_add(h.sum);
            for (i, b) in h.buckets.iter().enumerate() {
                mine.buckets[i] += b;
            }
        }
        for (k, s) in &other.spans {
            let mine = self.spans.entry(k.clone()).or_default();
            mine.calls += s.calls;
            mine.wall_ns += s.wall_ns;
        }
        for e in &other.events {
            self.event(&e.name, e.fields.clone());
        }
        for (k, n) in &other.event_counts {
            // `event` above already counted retained events; add only the
            // remainder dropped on the other side.
            let retained = other.events.iter().filter(|e| &e.name == k).count() as u64;
            *self.event_counts.entry(k.clone()).or_insert(0) += n - retained;
        }
        self.events_dropped += other.events_dropped;
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
    fn gauge_levels_and_extremes() {
        let mut r = Registry::new();
        r.gauge_add("q", 3);
        r.gauge_add("q", 2);
        r.gauge_add("q", -4);
        assert_eq!(r.gauge("q"), 1);
        assert_eq!(r.gauges["q"].max, 5);
        assert_eq!(r.gauges["q"].min, 1);
        r.gauge_set("q", -7);
        assert_eq!(r.gauge("q"), -7);
        assert_eq!(r.gauges["q"].min, -7);
        assert_eq!(r.gauges["q"].max, 5);
        assert_eq!(r.gauges["q"].updates, 4);
        assert_eq!(r.gauge("absent"), 0);
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

    /// The `--threads` fan-out relies on merge being commutative so the
    /// fold order never shows in exported bytes.
    #[test]
    fn merge_is_commutative_with_identity() {
        let mk = |seed: u64| {
            let mut r = Registry::new();
            r.counter_add("c", seed);
            r.counter_add(&format!("only{seed}"), 1);
            r.histogram_record("h", seed);
            r.histogram_record("h", seed * 1000 + 1);
            r.gauge_set("g", seed as i64 * 3);
            r.gauge_add("g", -(seed as i64));
            r.span_complete("x;y", seed);
            r
        };
        let (a, b) = (mk(2), mk(5));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.counters, ba.counters);
        assert_eq!(ab.gauges, ba.gauges);
        assert_eq!(ab.histograms, ba.histograms);
        assert_eq!(ab.spans, ba.spans);

        // Merging the empty registry is the identity, in both directions.
        let mut id = a.clone();
        id.merge(&Registry::new());
        assert_eq!(id.counters, a.counters);
        assert_eq!(id.gauges, a.gauges);
        assert_eq!(id.histograms, a.histograms);
        let mut id2 = Registry::new();
        id2.merge(&a);
        assert_eq!(id2.counters, a.counters);
        assert_eq!(id2.gauges, a.gauges);
        assert_eq!(id2.histograms, a.histograms);
    }

    #[test]
    fn merge_folds_everything() {
        let mut a = Registry::new();
        a.counter_add("c", 1);
        a.histogram_record("h", 8);
        a.span_complete("x;y", 10);
        a.event("e", vec![("k".into(), Value::U64(1))]);

        let mut b = Registry::new();
        b.counter_add("c", 2);
        b.histogram_record("h", 16);
        b.span_complete("x;y", 5);
        b.span_complete("x;z", 7);
        b.event("e", vec![("k".into(), Value::U64(2))]);

        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.histograms["h"].count, 2);
        assert_eq!(a.spans["x;y"].calls, 2);
        assert_eq!(a.spans["x;y"].wall_ns, 15);
        assert_eq!(a.spans["x;z"].wall_ns, 7);
        assert_eq!(a.events.len(), 2);
        assert_eq!(a.event_counts["e"], 2);
    }
}
