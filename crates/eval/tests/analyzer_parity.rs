//! The analyzer is observation-free on benign modules: its evidence and
//! landing-pad anchors find no contradicting facts there, so per-module
//! rule bytes are identical to the no-evidence ablation's (rules from
//! `analyze_module` alone). On hostile modules it degrades per region,
//! and the flight recorder logs one `disasm.degraded` event per
//! low-confidence region.

use janitizer_analysis::{analyze_module, analyze_tiered, DisasmResult, RegionCause};
use janitizer_core::{analyze_statically, rules_from_disasm, run_hybrid, HybridOptions};
use janitizer_eval::build_eval_world;
use janitizer_jasan::{Jasan, RT_MODULE};
use janitizer_telemetry::flight::Flight;
use janitizer_vm::LoadOptions;

#[test]
fn benign_rule_bytes_identical_to_the_no_evidence_ablation() {
    let ew = build_eval_world(0.05);
    for name in ew.world.store.names() {
        let image = ew.world.store.get(name).expect("listed module");
        let analyzer = analyze_statically(&image, &Jasan::hybrid()).to_bytes();
        let base = DisasmResult::untiered(analyze_module(&image));
        let ablation = rules_from_disasm(&image, base, &Jasan::hybrid()).to_bytes();
        assert!(
            analyzer == ablation,
            "{name}: rule bytes diverged from the ablation"
        );
    }
}

#[test]
fn flight_records_one_disasm_degraded_event_per_low_confidence_region() {
    let m = janitizer_workloads::hostile_suite()
        .into_iter()
        .find(|m| m.class == "data-island")
        .expect("data-island class");
    let res = analyze_tiered(&m.image);
    let low: Vec<_> = res
        .degraded
        .iter()
        .filter(|r| r.cause == RegionCause::LowConfidence)
        .collect();
    assert!(
        !low.is_empty(),
        "data-island must degrade at least one region"
    );

    let flight = Flight::armed(None);
    let mut store = janitizer_workloads::library_base();
    let module = m.name;
    store.add(m.image);
    let opts = HybridOptions {
        load: LoadOptions {
            preload: vec![RT_MODULE.into()],
            flight: flight.clone(),
            ..LoadOptions::default()
        },
        ..HybridOptions::default()
    };
    let run = run_hybrid(&store, module, Jasan::hybrid(), &opts).expect("hostile run");
    assert_eq!(run.outcome.code(), Some(0), "data-island must run benignly");
    let dump = flight.dump_json("test").expect("armed");

    let events = dump.matches("\"disasm.degraded\"").count();
    assert_eq!(
        events,
        low.len(),
        "one disasm.degraded flight event per low-confidence region"
    );
    assert!(
        dump.contains(module),
        "flight event names the degraded module"
    );
}
