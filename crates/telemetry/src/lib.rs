//! # Janitizer telemetry
//!
//! Structured tracing and metrics for the whole stack: a
//! zero-cost-when-disabled span/event API over one process-wide
//! [`Registry`], named counters, gauges and power-of-two histograms, an
//! always-on bounded [`flight`] recorder for black-box dumps, and
//! exporters for JSON profiles and OpenMetrics text.
//!
//! Telemetry is **disabled by default**: every entry point first checks
//! one relaxed atomic and bails, so instrumented hot paths pay a single
//! predictable branch. Collection only *observes* counters the pipeline
//! already computes, so enabling it never changes a result. Spans carry
//! calls and host wall time; model cycles are attributed by the
//! `janitizer-profile` crate (`janitizer-eval explain`), not here.
//!
//! ```
//! janitizer_telemetry::set_enabled(true);
//! janitizer_telemetry::reset();
//! {
//!     let _span = janitizer_telemetry::span!("static;liveness");
//!     janitizer_telemetry::counter_add("analysis.fixpoint_rounds", 3);
//! }
//! let profile = janitizer_telemetry::snapshot();
//! assert_eq!(profile.spans["static;liveness"].calls, 1);
//! assert_eq!(profile.counter("analysis.fixpoint_rounds"), 3);
//! janitizer_telemetry::set_enabled(false);
//! ```

pub mod export;
pub mod flight;
pub mod json;
pub mod registry;

pub use registry::{EventRecord, Gauge, Histogram, Registry, SpanStat, Value, WindowedHistogram};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: Mutex<Registry> = Mutex::new(Registry::new());

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

fn collector() -> MutexGuard<'static, Registry> {
    COLLECTOR.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether telemetry collection is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on or off (off is the default).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Clears the accumulated state.
pub fn reset() {
    *collector() = Registry::new();
}

/// Returns a copy of the aggregated state.
pub fn snapshot() -> Registry {
    collector().clone()
}

/// An RAII scope timer. Created by [`span()`]/[`span!`]; on drop it
/// reports its wall time under the nesting path of all open spans on
/// this thread.
pub struct Span {
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let wall_ns = start.elapsed().as_nanos() as u64;
        let path = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let path = s.join(";");
            s.pop();
            path
        });
        collector().span_complete(&path, wall_ns);
    }
}

/// Opens a span named `name`, nested under the spans already open on this
/// thread. Returns an inert guard when telemetry is disabled.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { start: None };
    }
    SPAN_STACK.with(|s| s.borrow_mut().push(name));
    Span {
        start: Some(Instant::now()),
    }
}

/// Adds `delta` to counter `name`.
pub fn counter_add(name: &str, delta: u64) {
    if enabled() && delta > 0 {
        collector().counter_add(name, delta);
    }
}

/// Sets gauge `name` to an absolute level.
pub fn gauge_set(name: &str, value: i64) {
    if enabled() {
        collector().gauge_set(name, value);
    }
}

/// Moves gauge `name` by `delta`.
pub fn gauge_add(name: &str, delta: i64) {
    if enabled() && delta != 0 {
        collector().gauge_add(name, delta);
    }
}

/// Records `value` into histogram `name`.
pub fn histogram_record(name: &str, value: u64) {
    if enabled() {
        collector().histogram_record(name, value);
    }
}

/// Emits a structured event. Prefer the [`event!`] macro, which skips
/// building the field vector when telemetry is off.
pub fn event(name: &str, fields: Vec<(String, Value)>) {
    if enabled() {
        collector().event(name, fields);
    }
}

/// Opens a span: `let _s = span!("phase");` — see [`span()`].
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Emits a structured event with named fields:
/// `event!("vm.syscall", no = 3u64, pc = pc);`
/// Fields are only evaluated when telemetry is enabled.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        if $crate::enabled() {
            $crate::event($name, ::std::vec::Vec::new());
        }
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::event(
                $name,
                vec![$((stringify!($key).to_string(), $crate::Value::from($val))),+],
            );
        }
    };
}
