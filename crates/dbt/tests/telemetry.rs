//! Telemetry wiring of the DBT engine. These tests flip the process-wide
//! telemetry switch, so they live in their own binary (own process) and
//! serialize on a mutex.

use janitizer_asm::{assemble, AsmOptions};
use janitizer_dbt::{Engine, EngineOptions, NullTool};
use janitizer_link::{link, LinkOptions};
use janitizer_telemetry as telemetry;
use janitizer_vm::{load_process, LoadOptions, ModuleStore, Process};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

const LOOP_SUM: &str = ".section text\n.global _start\n_start:\n\
    mov r0, 0\n mov r2, 10\n\
    loop:\n add r0, r2\n sub r2, 1\n cmp r2, 0\n jne loop\n ret\n";

fn proc_from(src: &str) -> Process {
    let o = assemble("t.s", src, &AsmOptions::default()).unwrap();
    let img = link(&[o], &LinkOptions::executable("t")).unwrap();
    let mut store = ModuleStore::new();
    store.add(img);
    load_process(&store, "t", &LoadOptions::default()).unwrap()
}

#[test]
fn telemetry_counts_match_engine_stats() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Baseline with telemetry off.
    let mut base = proc_from(LOOP_SUM);
    let base_out = Engine::new(EngineOptions::default()).run(&mut base, &mut NullTool, 1_000_000);

    telemetry::reset();
    telemetry::set_enabled(true);
    let mut p = proc_from(LOOP_SUM);
    let mut engine = Engine::new(EngineOptions::default());
    let out = engine.run(&mut p, &mut NullTool, 1_000_000);
    telemetry::set_enabled(false);
    let reg = telemetry::snapshot();

    assert_eq!(out.code(), base_out.code());
    assert_eq!(
        p.cycles, base.cycles,
        "telemetry must not change the cost model"
    );
    assert_eq!(
        reg.counter("dbt.blocks_translated"),
        engine.stats.blocks_translated
    );
    assert_eq!(reg.counter("dbt.guest_insns"), engine.stats.guest_insns);
    assert_eq!(reg.counter("dbt.probe_runs"), engine.stats.probe_runs);
    assert_eq!(
        reg.histograms["dbt.block_insns"].count,
        engine.stats.blocks_translated
    );
    assert!(reg.event_counts["dbt.block_translated"] >= 2);
}

#[test]
fn disabled_telemetry_is_inert() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::reset();
    telemetry::set_enabled(false);
    let mut p = proc_from(LOOP_SUM);
    let mut engine = Engine::new(EngineOptions::default());
    engine.run(&mut p, &mut NullTool, 1_000_000);
    let reg = telemetry::snapshot();
    assert!(reg.spans.is_empty());
    assert!(reg.counters.is_empty());
    assert!(reg.events.is_empty());
    assert!(engine.stats.blocks_translated > 0, "stats still maintained");
}
