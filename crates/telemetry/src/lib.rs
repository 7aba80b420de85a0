//! # Janitizer telemetry
//!
//! Shared observation plumbing for the stack: a [`Registry`] of named
//! counters and power-of-two histograms that the analysis service fills
//! per snapshot, exporters for JSON histograms and OpenMetrics text, the
//! [`json`] document model every report writer uses, and an always-on
//! bounded [`flight`] recorder for black-box dumps.
//!
//! There is no process-wide metrics switch. Each observation job has one
//! owner: per-run counters live in the structs that compute them
//! (`dbt::Stats`, `RuleCache::stats`, the store's stats), host time per
//! layer is measured from outside by `perfbench --trace 1`, and modeled
//! cycles are attributed by the `janitizer-profile` crate
//! (`janitizer-eval explain`).
//!
//! ```
//! use janitizer_telemetry::{export, Registry};
//!
//! let mut r = Registry::new();
//! r.counter_add("serve.served", 3);
//! r.histogram_record("serve.analyze_units", 5);
//! assert_eq!(r.counter("serve.served"), 3);
//! assert!(export::to_openmetrics(&r).ends_with("# EOF\n"));
//! ```

pub mod export;
pub mod flight;
pub mod json;
pub mod registry;

pub use registry::{Histogram, Registry, WindowedHistogram};
