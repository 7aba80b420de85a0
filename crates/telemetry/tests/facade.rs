//! Integration tests for the global telemetry facade. Every test mutates
//! the process-wide registry, so they serialize on one mutex.

use janitizer_telemetry as telemetry;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn span_nesting_builds_paths() {
    let _g = serial();
    telemetry::set_enabled(true);
    telemetry::reset();
    {
        let _outer = telemetry::span!("run");
        {
            let _inner = telemetry::span!("translate");
        }
        {
            let _inner = telemetry::span!("translate");
        }
    }
    telemetry::set_enabled(false);
    let reg = telemetry::snapshot();
    assert_eq!(reg.spans["run"].calls, 1);
    assert_eq!(reg.spans["run;translate"].calls, 2);
    assert!(reg.spans["run"].wall_ns >= reg.spans["run;translate"].wall_ns);
}

#[test]
fn disabled_telemetry_collects_nothing() {
    let _g = serial();
    telemetry::set_enabled(true);
    telemetry::reset();
    telemetry::set_enabled(false);
    {
        let _s = telemetry::span!("ghost");
        telemetry::counter_add("ghost.counter", 1);
        telemetry::histogram_record("ghost.hist", 1);
        telemetry::event!("ghost.event", pc = 0u64);
    }
    let reg = telemetry::snapshot();
    assert!(reg.spans.is_empty());
    assert!(reg.counters.is_empty());
    assert!(reg.histograms.is_empty());
    assert!(reg.events.is_empty());
}

#[test]
fn counters_histograms_events_roundtrip() {
    let _g = serial();
    telemetry::set_enabled(true);
    telemetry::reset();
    telemetry::counter_add("jasan.checks_emitted", 3);
    telemetry::counter_add("jasan.checks_emitted", 2);
    telemetry::histogram_record("dbt.block_insns", 17);
    telemetry::event!("vm.syscall", no = 4u64, name = "write");
    telemetry::set_enabled(false);
    let reg = telemetry::snapshot();
    assert_eq!(reg.counter("jasan.checks_emitted"), 5);
    assert_eq!(reg.histograms["dbt.block_insns"].count, 1);
    assert_eq!(reg.events.len(), 1);
    assert_eq!(reg.events[0].name, "vm.syscall");
    assert_eq!(reg.event_counts["vm.syscall"], 1);
}
