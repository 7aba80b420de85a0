//! # Supervised analysis service
//!
//! The serving half of analyze-once/distribute-many: clients ask the
//! [`AnalysisService`] for a module's rules and *always* get a usable
//! reply — rules (from memory, from the persistent store, or freshly
//! analyzed) or an explicit degradation to dynamic-only. The supervisor
//! wraps every analysis in:
//!
//! * **admission control** — a FIFO ticket gate bounds in-flight
//!   analyses, so a burst of clients queues deterministically instead of
//!   oversubscribing the analyzer;
//! * **a deterministic deadline** — the per-module work budget
//!   ([`janitizer_analysis::budget`]) replaces wall-clock timeouts: an
//!   over-budget module bails to conservative facts at a reproducible
//!   point, the partial result is discarded (never cached, never
//!   persisted), and the client sees
//!   [`DegradationReason::AnalysisTimeout`];
//! * **panic isolation** — a plugin static pass that panics is caught
//!   (`catch_unwind`), counted (`serve.panics_isolated`), retried up to
//!   the [`RetryPolicy`] bound, and finally degraded to
//!   [`DegradationReason::AnalysisPanic`];
//! * **store-failure fallback** — persistent-store I/O errors never
//!   reach the client: the reply carries in-process rules plus
//!   [`DegradationReason::StoreFailure`] so the operator sees the store
//!   is sick while the run stays correct.
//!
//! Every failure path is observable: `serve.{served,retries,timeouts,
//! panics_isolated,degraded}` counters plus `diag.analysis_*` events.

use crate::{DegradationReason, FillSource, ModuleDegradation, RuleCache, SecurityPlugin};
use janitizer_analysis::budget;
use janitizer_obj::Image;
use janitizer_rules::RuleFile;
use janitizer_store::RetryPolicy;
use janitizer_telemetry::flight::Flight;
use janitizer_telemetry::json::Json;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Supervision knobs of an [`AnalysisService`].
#[derive(Clone, Debug)]
pub struct ServiceOptions {
    /// Per-request analysis work budget (units of block visits);
    /// [`budget::UNLIMITED`] disarms the deadline.
    pub budget_units: u64,
    /// Retry schedule for panicking analyses.
    pub retry: RetryPolicy,
    /// Maximum concurrently running analyses; further requests queue in
    /// FIFO ticket order.
    pub max_in_flight: usize,
    /// Flight recorder for the request lifecycle and `serve-degraded`
    /// trips (disarmed by default).
    pub flight: Flight,
}

impl Default for ServiceOptions {
    fn default() -> ServiceOptions {
        ServiceOptions {
            budget_units: budget::UNLIMITED,
            retry: RetryPolicy::default(),
            max_in_flight: 4,
            flight: Flight::default(),
        }
    }
}

/// A served analysis request. Never an error: `rules` is present unless
/// the module was degraded to dynamic-only, and `degradation` names the
/// fidelity loss when there was one (note [`DegradationReason::StoreFailure`]
/// carries rules *and* a degradation — the in-process fallback worked,
/// the store did not).
#[derive(Clone, Debug)]
pub struct ServeReply {
    /// The module's rule file; `None` means run the module dynamic-only.
    pub rules: Option<Arc<RuleFile>>,
    /// Set when the request was served at reduced fidelity.
    pub degradation: Option<DegradationReason>,
    /// Where the rules came from (when they were served).
    pub source: Option<FillSource>,
}

/// Counter snapshot of an [`AnalysisService`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered with rules.
    pub served: u64,
    /// Requests degraded to dynamic-only (timeout or panic).
    pub degraded: u64,
    /// Budget overruns converted to [`DegradationReason::AnalysisTimeout`].
    pub timeouts: u64,
    /// Plugin panics caught by the supervisor.
    pub panics_isolated: u64,
    /// Panic retries taken under the [`RetryPolicy`] bound.
    pub retries: u64,
    /// Store I/O failures absorbed into [`DegradationReason::StoreFailure`].
    pub store_failures: u64,
    /// High-water mark of concurrently running analyses.
    pub peak_in_flight: u64,
    /// Replies served from the in-memory cache.
    pub memory: u64,
    /// Replies served from the persistent store.
    pub store: u64,
    /// Replies that ran a fresh supervised analysis.
    pub analyzed: u64,
}

/// Request-lifecycle metrics, split by determinism class.
///
/// The **deterministic** half depends only on *what* was requested,
/// never on scheduling: total requests, per-[`FillSource`] provenance
/// (the `RuleCache` analyzes each key exactly once, so the multiset of
/// sources is fixed at any thread count) and the histogram of analysis
/// work units per fresh analysis (units, not wall time). It exports as
/// `janitizer.serve-metrics/v1` and is byte-parity-tested across
/// `--threads`.
///
/// The **host** half is wall-clock and scheduling truth — queue depth
/// high-water, queue-wait and end-to-end request latency windows — and
/// is exported separately so the deterministic artifact stays
/// diff-stable.
struct ServiceMetrics {
    requests: AtomicU64,
    src_memory: AtomicU64,
    src_store: AtomicU64,
    src_analyzed: AtomicU64,
    src_store_failed: AtomicU64,
    analyze_units: Mutex<Histogram>,
    queue_waiting: AtomicU64,
    queue_peak: AtomicU64,
    queue_wait_ns: Mutex<WindowedHistogram>,
    request_wall_ns: Mutex<WindowedHistogram>,
}

/// Window size for host latency histograms: big enough for a full
/// figure-suite serve run, small enough to stay resident.
const LATENCY_WINDOW: usize = 1024;

impl Default for ServiceMetrics {
    fn default() -> ServiceMetrics {
        ServiceMetrics {
            requests: AtomicU64::new(0),
            src_memory: AtomicU64::new(0),
            src_store: AtomicU64::new(0),
            src_analyzed: AtomicU64::new(0),
            src_store_failed: AtomicU64::new(0),
            analyze_units: Mutex::new(Histogram::default()),
            queue_waiting: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
            queue_wait_ns: Mutex::new(WindowedHistogram::new(LATENCY_WINDOW)),
            request_wall_ns: Mutex::new(WindowedHistogram::new(LATENCY_WINDOW)),
        }
    }
}

/// FIFO ticket gate: requests are admitted strictly in arrival order,
/// at most `max` running at once. Deterministic by construction — the
/// admission order never depends on scheduler whims, only on ticket
/// numbers.
struct Gate {
    max: usize,
    /// `(next ticket to hand out, next ticket to admit, running now)`.
    state: Mutex<(u64, u64, usize)>,
    cv: Condvar,
}

struct Permit<'a> {
    gate: &'a Gate,
}

impl Gate {
    fn new(max: usize) -> Gate {
        Gate {
            max: max.max(1),
            state: Mutex::new((0, 0, 0)),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) -> Permit<'_> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let ticket = s.0;
        s.0 += 1;
        while !(ticket == s.1 && s.2 < self.max) {
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        s.1 += 1;
        s.2 += 1;
        // Tickets behind us may also be admissible now (capacity > 1).
        self.cv.notify_all();
        Permit { gate: self }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut s = self.gate.state.lock().unwrap_or_else(|e| e.into_inner());
        s.2 -= 1;
        drop(s);
        self.gate.cv.notify_all();
    }
}

/// The supervised analysis front-end over a (possibly store-backed)
/// [`RuleCache`]. `Sync`: one service instance is shared by all client
/// threads.
pub struct AnalysisService {
    cache: Arc<RuleCache>,
    opts: ServiceOptions,
    gate: Gate,
    served: AtomicU64,
    degraded_n: AtomicU64,
    timeouts: AtomicU64,
    panics: AtomicU64,
    retries: AtomicU64,
    store_failures: AtomicU64,
    in_flight: AtomicU64,
    peak_in_flight: AtomicU64,
    degraded: Mutex<Vec<ModuleDegradation>>,
    metrics: ServiceMetrics,
}

impl AnalysisService {
    /// Creates a service over `cache` with the given supervision options.
    pub fn new(cache: Arc<RuleCache>, opts: ServiceOptions) -> AnalysisService {
        AnalysisService {
            gate: Gate::new(opts.max_in_flight),
            cache,
            opts,
            served: AtomicU64::new(0),
            degraded_n: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            store_failures: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            peak_in_flight: AtomicU64::new(0),
            degraded: Mutex::new(Vec::new()),
            metrics: ServiceMetrics::default(),
        }
    }

    /// The cache the service serves from.
    pub fn cache(&self) -> &Arc<RuleCache> {
        &self.cache
    }

    /// Serves one analysis request under full supervision. Infallible by
    /// contract: every failure mode becomes a degradation in the reply.
    pub fn request(
        &self,
        image: &Arc<Image>,
        plugin: &dyn SecurityPlugin,
        emit_noop_rules: bool,
    ) -> ServeReply {
        // Lifecycle: arrive → queue-wait → admit → analyze → reply.
        let arrived = Instant::now();
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let waiting = self.metrics.queue_waiting.fetch_add(1, Ordering::Relaxed) + 1;
        self.metrics
            .queue_peak
            .fetch_max(waiting, Ordering::Relaxed);
        let _permit = self.gate.acquire();
        self.metrics.queue_waiting.fetch_sub(1, Ordering::Relaxed);
        let queue_wait_ns = arrived.elapsed().as_nanos() as u64;
        let flight = &self.opts.flight;
        flight.record("serve.admit", None, queue_wait_ns, waiting);
        let now = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_in_flight.fetch_max(now, Ordering::Relaxed);
        let (reply, analyze_units) = self.request_admitted(image, plugin, emit_noop_rules);
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        match reply.source {
            Some(FillSource::Memory) => {
                self.metrics.src_memory.fetch_add(1, Ordering::Relaxed);
            }
            Some(FillSource::Store) => {
                self.metrics.src_store.fetch_add(1, Ordering::Relaxed);
            }
            Some(FillSource::Analyzed { store_failed }) => {
                self.metrics.src_analyzed.fetch_add(1, Ordering::Relaxed);
                if store_failed {
                    self.metrics
                        .src_store_failed
                        .fetch_add(1, Ordering::Relaxed);
                }
                // Deterministic cost sample: work units the fresh
                // analysis consumed (module-dependent, never
                // scheduling-dependent).
                self.metrics
                    .analyze_units
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .record(analyze_units);
            }
            None => {}
        }
        if let Some(reason) = reply.degradation {
            self.degraded_n.fetch_add(1, Ordering::Relaxed);
            self.degraded
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(ModuleDegradation {
                    module: image.name.clone(),
                    reason,
                });
            flight.trip("serve-degraded", Some(&image.name), reason as u64, 0);
        }
        if reply.rules.is_some() {
            self.served.fetch_add(1, Ordering::Relaxed);
        }
        let wall_ns = arrived.elapsed().as_nanos() as u64;
        {
            let mut w = self
                .metrics
                .queue_wait_ns
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            w.record(queue_wait_ns);
        }
        {
            let mut w = self
                .metrics
                .request_wall_ns
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            w.record(wall_ns);
        }
        flight.record("serve.reply", None, wall_ns, analyze_units);
        reply
    }

    fn request_admitted(
        &self,
        image: &Arc<Image>,
        plugin: &dyn SecurityPlugin,
        emit_noop_rules: bool,
    ) -> (ServeReply, u64) {
        let mut attempt = 0u32;
        loop {
            budget::set_budget(self.opts.budget_units);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.cache
                    .get_or_analyze_traced(image, plugin, emit_noop_rules)
            }));
            let timed_out = budget::overrun();
            let spent_units = budget::spent();
            budget::clear_budget();
            match outcome {
                Ok((file, source)) => {
                    if timed_out {
                        // The budget ran out mid-analysis; the cache has
                        // already discarded (not memoized, not persisted)
                        // the truncated result — degrade, don't serve it.
                        self.timeouts.fetch_add(1, Ordering::Relaxed);
                        self.opts
                            .flight
                            .record("serve.timeout", None, spent_units, 0);
                        drop(file);
                        return (
                            ServeReply {
                                rules: None,
                                degradation: Some(DegradationReason::AnalysisTimeout),
                                source: None,
                            },
                            spent_units,
                        );
                    }
                    let degradation = match source {
                        FillSource::Analyzed { store_failed: true } => {
                            self.store_failures.fetch_add(1, Ordering::Relaxed);
                            Some(DegradationReason::StoreFailure)
                        }
                        _ => None,
                    };
                    return (
                        ServeReply {
                            rules: Some(file),
                            degradation,
                            source: Some(source),
                        },
                        spent_units,
                    );
                }
                Err(_) => {
                    self.panics.fetch_add(1, Ordering::Relaxed);
                    self.opts
                        .flight
                        .record("serve.panic", None, u64::from(attempt), spent_units);
                    if attempt < self.opts.retry.attempts {
                        attempt += 1;
                        self.retries.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    return (
                        ServeReply {
                            rules: None,
                            degradation: Some(DegradationReason::AnalysisPanic),
                            source: None,
                        },
                        spent_units,
                    );
                }
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            served: self.served.load(Ordering::Relaxed),
            degraded: self.degraded_n.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            panics_isolated: self.panics.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            store_failures: self.store_failures.load(Ordering::Relaxed),
            peak_in_flight: self.peak_in_flight.load(Ordering::Relaxed),
            memory: self.metrics.src_memory.load(Ordering::Relaxed),
            store: self.metrics.src_store.load(Ordering::Relaxed),
            analyzed: self.metrics.src_analyzed.load(Ordering::Relaxed),
        }
    }

    /// Renders the deterministic metrics (counters and the analyze-cost
    /// histogram only — byte-stable across thread counts and hosts) as
    /// an OpenMetrics-style text exposition, in sorted-name order:
    /// counters become `<name>_total`, and the power-of-two histogram
    /// cumulative `_bucket{le="..."}` series (each `le` is a bucket's
    /// inclusive upper bound, `2^i - 1`) plus a terminal `+Inf` bucket
    /// and `_sum`/`_count`. Names map dots to underscores. Terminated by
    /// `# EOF`, so snapshots can be diffed and golden-tested.
    pub fn openmetrics(&self) -> String {
        let s = self.stats();
        let m = &self.metrics;
        let mut counters = [
            ("serve.requests", m.requests.load(Ordering::Relaxed)),
            ("serve.served", s.served),
            ("serve.degraded", s.degraded),
            ("serve.timeouts", s.timeouts),
            ("serve.panics_isolated", s.panics_isolated),
            ("serve.retries", s.retries),
            ("serve.store_failures", s.store_failures),
            ("serve.src.memory", m.src_memory.load(Ordering::Relaxed)),
            ("serve.src.store", m.src_store.load(Ordering::Relaxed)),
            ("serve.src.analyzed", m.src_analyzed.load(Ordering::Relaxed)),
            (
                "serve.src.analyzed_store_failed",
                m.src_store_failed.load(Ordering::Relaxed),
            ),
        ];
        counters.sort_unstable_by_key(|&(name, _)| name);
        let h = m
            .analyze_units
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        openmetrics_text(&counters, ("serve.analyze_units", &h))
    }

    /// Health/readiness summary: `ok` when every request was served at
    /// full fidelity, `degraded` when any request lost fidelity, and a
    /// ready flag (the service is infallible by contract, so it is
    /// ready as soon as it exists; the flag goes false only if every
    /// request degraded — the analyzer is effectively down).
    pub fn health_json(&self) -> Json {
        let s = self.stats();
        let requests = self.metrics.requests.load(Ordering::Relaxed);
        let status = if s.degraded == 0 && s.store_failures == 0 {
            "ok"
        } else {
            "degraded"
        };
        let ready = requests == 0 || s.served > 0;
        let degraded_modules = Json::Arr(
            self.degradations()
                .iter()
                .map(|d| {
                    Json::obj([
                        ("module", Json::str(d.module.clone())),
                        ("reason", Json::str(d.reason.as_str())),
                    ])
                })
                .collect(),
        );
        Json::obj([
            ("status", Json::str(status)),
            ("ready", Json::Bool(ready)),
            ("requests", Json::U64(requests)),
            ("served", Json::U64(s.served)),
            ("degraded", Json::U64(s.degraded)),
            ("degraded_modules", degraded_modules),
        ])
    }

    /// Renders the deterministic snapshot as a `janitizer.serve-metrics/v1`
    /// document: request/outcome counters, per-[`FillSource`]
    /// provenance, the analyze-cost histogram, and the health summary.
    /// Byte-identical across `--threads` for the same request set.
    pub fn serve_metrics_json(&self) -> String {
        let s = self.stats();
        let h = self
            .metrics
            .analyze_units
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        Json::obj([
            ("schema", Json::str("janitizer.serve-metrics/v1")),
            (
                "requests",
                Json::U64(self.metrics.requests.load(Ordering::Relaxed)),
            ),
            ("served", Json::U64(s.served)),
            ("degraded", Json::U64(s.degraded)),
            ("timeouts", Json::U64(s.timeouts)),
            ("panics_isolated", Json::U64(s.panics_isolated)),
            ("retries", Json::U64(s.retries)),
            ("store_failures", Json::U64(s.store_failures)),
            (
                "provenance",
                Json::obj([
                    (
                        "memory",
                        Json::U64(self.metrics.src_memory.load(Ordering::Relaxed)),
                    ),
                    (
                        "store",
                        Json::U64(self.metrics.src_store.load(Ordering::Relaxed)),
                    ),
                    (
                        "analyzed",
                        Json::U64(self.metrics.src_analyzed.load(Ordering::Relaxed)),
                    ),
                    (
                        "analyzed_store_failed",
                        Json::U64(self.metrics.src_store_failed.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            ("analyze_units", histogram_json(&h)),
            (
                // Quarantine growth is operator-visible here so a store
                // accumulating corrupt entries is caught before the disk
                // is. Null when the cache has no persistent store.
                "store_quarantine",
                match self.cache.store().map(|s| s.quarantine_usage()) {
                    Some((files, bytes)) => {
                        Json::obj([("entries", Json::U64(files)), ("bytes", Json::U64(bytes))])
                    }
                    None => Json::Null,
                },
            ),
            ("health", self.health_json()),
        ])
        .render_pretty()
    }

    /// Renders the host-side snapshot as a
    /// `janitizer.serve-metrics-host/v1` document: queue/in-flight
    /// high-water marks and latency quantiles over the recent window.
    /// Wall-clock truth — excluded from byte-parity checks.
    pub fn host_metrics_json(&self) -> String {
        let quantiles = |w: &WindowedHistogram| {
            Json::obj([
                ("window", Json::U64(w.len as u64)),
                ("count", Json::U64(w.total.count)),
                ("mean_ns", Json::F64(w.total.mean())),
                (
                    "p50_ns",
                    w.quantile(0.50).map(Json::U64).unwrap_or(Json::Null),
                ),
                (
                    "p90_ns",
                    w.quantile(0.90).map(Json::U64).unwrap_or(Json::Null),
                ),
                (
                    "p99_ns",
                    w.quantile(0.99).map(Json::U64).unwrap_or(Json::Null),
                ),
                ("max_ns", Json::U64(w.total.max)),
            ])
        };
        let qw = self
            .metrics
            .queue_wait_ns
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let queue_wait = quantiles(&qw);
        drop(qw);
        let rw = self
            .metrics
            .request_wall_ns
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let request_wall = quantiles(&rw);
        drop(rw);
        Json::obj([
            ("schema", Json::str("janitizer.serve-metrics-host/v1")),
            (
                "queue_depth_peak",
                Json::U64(self.metrics.queue_peak.load(Ordering::Relaxed)),
            ),
            (
                "peak_in_flight",
                Json::U64(self.peak_in_flight.load(Ordering::Relaxed)),
            ),
            ("queue_wait", queue_wait),
            ("request_wall", request_wall),
        ])
        .render_pretty()
    }

    /// The degradations recorded so far, sorted by module then reason
    /// label for deterministic reporting.
    pub fn degradations(&self) -> Vec<ModuleDegradation> {
        let mut v = self
            .degraded
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        v.sort_by(|a, b| {
            a.module
                .cmp(&b.module)
                .then(a.reason.as_str().cmp(b.reason.as_str()))
        });
        v
    }
}

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i >= 1`
/// holds values in `[2^(i-1), 2^i)`.
const HISTOGRAM_BUCKETS: usize = 65;

/// A power-of-two-bucketed histogram over `u64` samples.
#[derive(Clone, Debug, Default, PartialEq)]
struct Histogram {
    count: u64,
    /// Sum of all samples (saturating).
    sum: u64,
    /// Smallest sample (0 when empty).
    min: u64,
    /// Largest sample (0 when empty).
    max: u64,
    /// `buckets[0]` counts zeros; `buckets[i]` counts `[2^(i-1), 2^i)`.
    buckets: Vec<u64>,
}

impl Histogram {
    /// Index of the bucket `value` falls into.
    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            value.ilog2() as usize + 1
        }
    }

    /// Lower bound (inclusive) of bucket `i`.
    fn bucket_lo(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    fn record(&mut self, value: u64) {
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
    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A histogram with a bounded window of recent samples next to the
/// cumulative totals: the window keeps the last `cap` raw samples in a
/// ring so recent latency quantiles stay answerable without unbounded
/// memory. The window is host-side state (truncation depends on arrival
/// order), so windowed histograms are never part of deterministic
/// artifacts.
#[derive(Clone, Debug)]
struct WindowedHistogram {
    ring: Vec<u64>,
    next: usize,
    len: usize,
    /// Cumulative (all-time) histogram over every sample recorded.
    total: Histogram,
}

impl WindowedHistogram {
    /// Creates a windowed histogram retaining at most `cap` recent
    /// samples (`cap` is clamped to at least 1).
    fn new(cap: usize) -> WindowedHistogram {
        WindowedHistogram {
            ring: vec![0; cap.max(1)],
            next: 0,
            len: 0,
            total: Histogram::default(),
        }
    }

    /// Records one sample into both the window and the cumulative total.
    fn record(&mut self, value: u64) {
        self.total.record(value);
        self.ring[self.next] = value;
        self.next = (self.next + 1) % self.ring.len();
        self.len = (self.len + 1).min(self.ring.len());
    }

    /// The `q`-quantile (`0.0..=1.0`) over the windowed samples, or
    /// `None` when the window is empty. Nearest-rank on the sorted
    /// window.
    fn quantile(&self, q: f64) -> Option<u64> {
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

/// Renders one histogram as a JSON object (count/sum/min/max/mean plus
/// the non-empty power-of-two buckets keyed by inclusive lower bound).
fn histogram_json(h: &Histogram) -> Json {
    let buckets = Json::Obj(
        h.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| (format!("{}", Histogram::bucket_lo(i)), Json::U64(*n)))
            .collect(),
    );
    Json::obj([
        ("count", Json::U64(h.count)),
        ("sum", Json::U64(h.sum)),
        ("min", Json::U64(h.min)),
        ("max", Json::U64(h.max)),
        ("mean", Json::F64(h.mean())),
        ("buckets_pow2", buckets),
    ])
}

/// The exposition behind [`AnalysisService::openmetrics`]: `counters`
/// in the order given, then `histogram` unless it is empty. Metric names
/// are `[a-z._]`; dots become underscores.
fn openmetrics_text(counters: &[(&str, u64)], (name, h): (&str, &Histogram)) -> String {
    let mut out = String::new();
    for (name, v) in counters {
        let n = name.replace('.', "_");
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n}_total {v}");
    }
    if h.count > 0 {
        let n = name.replace('.', "_");
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cumulative = 0u64;
        let last = h.buckets.iter().rposition(|&b| b > 0).unwrap_or(0);
        for (i, b) in h.buckets.iter().enumerate().take(last + 1) {
            cumulative += b;
            // Inclusive upper bound of bucket i: 0 for the zero bucket,
            // 2^i - 1 otherwise.
            let le = if i == 0 { 0 } else { (1u128 << i) - 1 };
            let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{n}_sum {}", h.sum);
        let _ = writeln!(out, "{n}_count {}", h.count);
    }
    out.push_str("# EOF\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockRules, StaticContext};
    use janitizer_dbt::{DecodedBlock, TbItem};
    use janitizer_rules::RewriteRule;
    use janitizer_vm::Process;

    /// Minimal plugin whose static pass can be made hostile on demand.
    struct ToyPlugin {
        name: &'static str,
        panics_left: std::cell::Cell<u32>,
    }

    impl ToyPlugin {
        fn new(name: &'static str) -> ToyPlugin {
            ToyPlugin {
                name,
                panics_left: std::cell::Cell::new(0),
            }
        }
    }

    impl SecurityPlugin for ToyPlugin {
        fn name(&self) -> &str {
            self.name
        }
        fn static_pass(&self, _image: &Image, ctx: &StaticContext) -> Vec<RewriteRule> {
            let left = self.panics_left.get();
            if left > 0 {
                self.panics_left.set(left - 1);
                panic!("injected static-pass panic");
            }
            ctx.cfg
                .blocks
                .keys()
                .map(|&b| RewriteRule::new(7, b, b))
                .collect()
        }
        fn instrument_static(
            &mut self,
            _proc: &mut Process,
            _block: &DecodedBlock,
            _rules: &BlockRules<'_>,
        ) -> Vec<TbItem> {
            Vec::new()
        }
        fn instrument_dynamic(
            &mut self,
            _proc: &mut Process,
            _block: &DecodedBlock,
        ) -> Vec<TbItem> {
            Vec::new()
        }
    }

    fn toy_image() -> Arc<Image> {
        let obj = janitizer_asm::assemble(
            "s.s",
            ".section text\n.global _start\n_start:\n mov r0, 0\n\
             loop:\n add r0, 1\n cmp r0, 4\n jne loop\n ret\n",
            &janitizer_asm::AsmOptions::default(),
        )
        .unwrap();
        Arc::new(
            janitizer_link::link(&[obj], &janitizer_link::LinkOptions::executable("s")).unwrap(),
        )
    }

    /// Runs `f` with the default panic hook silenced, restoring it after
    /// (panics are the *expected* input of these tests).
    fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn healthy_request_serves_rules() {
        let svc = AnalysisService::new(Arc::new(RuleCache::new()), ServiceOptions::default());
        let image = toy_image();
        let reply = svc.request(&image, &ToyPlugin::new("toy"), true);
        assert!(reply.degradation.is_none());
        let rules = reply.rules.expect("served");
        assert!(!rules.rules.is_empty());
        assert_eq!(
            reply.source,
            Some(FillSource::Analyzed {
                store_failed: false
            })
        );
        // Second request is a memory hit with identical bytes.
        let again = svc.request(&image, &ToyPlugin::new("toy"), true);
        assert_eq!(again.source, Some(FillSource::Memory));
        assert_eq!(again.rules.unwrap().to_bytes(), rules.to_bytes());
        let s = svc.stats();
        assert_eq!((s.served, s.degraded), (2, 0));
    }

    #[test]
    fn transient_panic_is_isolated_and_retried() {
        let svc = AnalysisService::new(
            Arc::new(RuleCache::new()),
            ServiceOptions {
                retry: RetryPolicy { attempts: 2 },
                ..ServiceOptions::default()
            },
        );
        let image = toy_image();
        let plugin = ToyPlugin::new("toy");
        plugin.panics_left.set(1);
        let reply = with_quiet_panics(|| svc.request(&image, &plugin, true));
        assert!(
            reply.rules.is_some(),
            "retry after the isolated panic served"
        );
        assert!(reply.degradation.is_none());
        let s = svc.stats();
        assert_eq!((s.panics_isolated, s.retries), (1, 1));
    }

    #[test]
    fn persistent_panic_degrades_not_errors() {
        let svc = AnalysisService::new(
            Arc::new(RuleCache::new()),
            ServiceOptions {
                retry: RetryPolicy { attempts: 2 },
                ..ServiceOptions::default()
            },
        );
        let image = toy_image();
        let plugin = ToyPlugin::new("toy");
        plugin.panics_left.set(u32::MAX);
        let reply = with_quiet_panics(|| svc.request(&image, &plugin, true));
        assert!(reply.rules.is_none());
        assert_eq!(reply.degradation, Some(DegradationReason::AnalysisPanic));
        let s = svc.stats();
        assert_eq!(s.panics_isolated, 3, "initial attempt + 2 retries");
        assert_eq!(s.degraded, 1);
        // The service itself is still healthy afterwards.
        let ok = svc.request(&image, &ToyPlugin::new("toy"), true);
        assert!(ok.rules.is_some());
    }

    #[test]
    fn budget_overrun_degrades_to_timeout_and_is_not_cached() {
        let cache = Arc::new(RuleCache::new());
        let svc = AnalysisService::new(
            Arc::clone(&cache),
            ServiceOptions {
                budget_units: 1,
                ..ServiceOptions::default()
            },
        );
        let image = toy_image();
        let reply = svc.request(&image, &ToyPlugin::new("toy"), true);
        assert!(reply.rules.is_none());
        assert_eq!(reply.degradation, Some(DegradationReason::AnalysisTimeout));
        assert_eq!(svc.stats().timeouts, 1);
        // Nothing was memoized: an unbudgeted service over the same cache
        // re-analyzes and serves fine.
        let svc2 = AnalysisService::new(cache, ServiceOptions::default());
        let ok = svc2.request(&image, &ToyPlugin::new("toy"), true);
        assert_eq!(
            ok.source,
            Some(FillSource::Analyzed {
                store_failed: false
            })
        );
        assert!(ok.rules.is_some());
    }

    #[test]
    fn store_failure_serves_in_process_rules_with_degradation() {
        let dir = janitizer_store::scratch_dir("serve-storefail");
        let store = janitizer_store::RuleStore::open_with(
            &dir,
            RetryPolicy { attempts: 0 },
            janitizer_store::FailurePlan {
                transient_write_failures: u64::MAX / 2,
                crash_after_commits: None,
            },
            Flight::default(),
        )
        .unwrap();
        let svc = AnalysisService::new(
            Arc::new(RuleCache::with_store(Arc::new(store))),
            ServiceOptions::default(),
        );
        let image = toy_image();
        let reply = svc.request(&image, &ToyPlugin::new("toy"), true);
        assert!(reply.rules.is_some(), "in-process fallback still serves");
        assert_eq!(reply.degradation, Some(DegradationReason::StoreFailure));
        assert_eq!(svc.stats().store_failures, 1);
        assert_eq!(
            svc.degradations(),
            vec![ModuleDegradation {
                module: "s".into(),
                reason: DegradationReason::StoreFailure,
            }]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_gate_bounds_in_flight() {
        let svc = Arc::new(AnalysisService::new(
            Arc::new(RuleCache::new()),
            ServiceOptions {
                max_in_flight: 2,
                ..ServiceOptions::default()
            },
        ));
        std::thread::scope(|scope| {
            for i in 0..8 {
                let svc = Arc::clone(&svc);
                scope.spawn(move || {
                    // Distinct plugin keys force real (non-memoized) work.
                    let name: &'static str = Box::leak(format!("toy{i}").into_boxed_str());
                    let image = toy_image();
                    let reply = svc.request(&image, &ToyPlugin::new(name), true);
                    assert!(reply.rules.is_some());
                });
            }
        });
        let s = svc.stats();
        assert_eq!(s.served, 8);
        assert!(
            s.peak_in_flight <= 2,
            "gate held: peak {}",
            s.peak_in_flight
        );
    }

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
        assert_eq!(w.len, 4);
        assert_eq!(w.quantile(0.0), Some(30));
        assert_eq!(w.quantile(1.0), Some(60));
        assert_eq!(w.quantile(0.5), Some(50));
    }

    /// Golden-file check: the OpenMetrics exposition format is a public
    /// contract (scrapers parse it line by line).
    #[test]
    fn openmetrics_golden() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(5);
        let text = openmetrics_text(
            &[("serve.requests", 7), ("serve.store_failures", 2)],
            ("serve.analyze_units", &h),
        );
        let golden = "\
# TYPE serve_requests counter
serve_requests_total 7
# TYPE serve_store_failures counter
serve_store_failures_total 2
# TYPE serve_analyze_units histogram
serve_analyze_units_bucket{le=\"0\"} 1
serve_analyze_units_bucket{le=\"1\"} 1
serve_analyze_units_bucket{le=\"3\"} 1
serve_analyze_units_bucket{le=\"7\"} 2
serve_analyze_units_bucket{le=\"+Inf\"} 2
serve_analyze_units_sum 5
serve_analyze_units_count 2
# EOF
";
        assert_eq!(text, golden);
        // An empty histogram is left out.
        let empty = openmetrics_text(&[], ("serve.analyze_units", &Histogram::default()));
        assert_eq!(empty, "# EOF\n");
    }

    #[test]
    fn service_exposition_is_sorted_by_name() {
        let svc = AnalysisService::new(Arc::new(RuleCache::new()), ServiceOptions::default());
        svc.request(&toy_image(), &ToyPlugin::new("toy"), true);
        let text = svc.openmetrics();
        let names: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .collect();
        assert_eq!(
            names.len(),
            12,
            "11 counters and the analyze-cost histogram"
        );
        let counters = &names[..11];
        assert!(counters.windows(2).all(|w| w[0] < w[1]), "{counters:?}");
        assert_eq!(names[11], "serve_analyze_units histogram");
        assert!(text.contains("serve_requests_total 1\n"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn degraded_request_trips_the_services_recorder() {
        let dir = janitizer_store::scratch_dir("serve-flight");
        let flight = Flight::armed(Some(dir.clone()));
        let svc = AnalysisService::new(
            Arc::new(RuleCache::new()),
            ServiceOptions {
                budget_units: 1,
                flight: flight.clone(),
                ..ServiceOptions::default()
            },
        );
        let reply = svc.request(&toy_image(), &ToyPlugin::new("toy"), true);
        assert_eq!(reply.degradation, Some(DegradationReason::AnalysisTimeout));
        let dump = std::fs::read_to_string(dir.join("flight-serve-degraded.json"))
            .expect("serve-degraded dump written");
        for kind in ["serve.admit", "serve.timeout", "serve-degraded"] {
            assert!(dump.contains(&format!("\"{kind}\"")), "{kind} missing");
        }
        assert!(dump.contains("\"s\""), "the trip names the module");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
