//! # Janitizer telemetry
//!
//! Shared observation plumbing for the stack: the [`json`] document
//! model every report writer uses, and the bounded [`flight`] recorder
//! for black-box dumps, passed as a [`flight::Flight`] handle.
//!
//! There is no process-wide metrics switch. Each observation job has one
//! owner: per-run counters live in the structs that compute them
//! (`dbt::Stats`, `RuleCache::stats`, the store's stats, the analysis
//! service's metrics), host time per layer is measured from outside by
//! `perfbench --trace 1`, and modeled cycles are attributed by the
//! `janitizer-profile` crate (`janitizer-eval explain`).
//!
//! ```
//! use janitizer_telemetry::flight::Flight;
//!
//! let flight = Flight::armed(None);
//! flight.record("vm.module_load", Some("a.out"), 0, 0x40_0000);
//! let dump = flight.dump_json("snapshot").expect("armed");
//! assert!(dump.contains("\"total_events\": 1,"));
//! assert_eq!(Flight::default().dump_json("snapshot"), None);
//! ```

pub mod flight;
pub mod json;
