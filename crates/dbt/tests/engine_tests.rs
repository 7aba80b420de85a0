//! Engine behaviour tests: caching, cost accounting, block shapes.

use janitizer_asm::{assemble, AsmOptions};
use janitizer_dbt::*;
use janitizer_link::{link, LinkOptions};
use janitizer_vm::{load_process, LoadOptions, ModuleStore, Process};

fn proc_from(src: &str) -> Process {
    let o = assemble("t.s", src, &AsmOptions::default()).unwrap();
    let img = link(&[o], &LinkOptions::executable("t")).unwrap();
    let mut store = ModuleStore::new();
    store.add(img);
    load_process(&store, "t", &LoadOptions::default()).unwrap()
}

#[test]
fn code_cache_reuses_blocks_across_iterations() {
    let src = ".section text\n.global _start\n_start:\n\
        mov r2, 1000\n\
        loop:\n sub r2, 1\n cmp r2, 0\n jne loop\n ret\n";
    let mut p = proc_from(src);
    let mut engine = Engine::new(EngineOptions::default());
    let out = engine.run(&mut p, &mut NullTool, 100_000_000);
    assert!(matches!(out, RunOutcome::Exited(_)));
    // 1000 iterations but only a handful of blocks translated.
    assert!(
        engine.stats.blocks_translated < 12,
        "{}",
        engine.stats.blocks_translated
    );
    assert!(engine.cached_blocks() > 0);
    engine.flush_cache();
    assert_eq!(engine.cached_blocks(), 0);
}

#[test]
fn translation_cost_is_paid_once_per_block() {
    let src = ".section text\n.global _start\n_start:\n\
        mov r2, 500\n\
        loop:\n sub r2, 1\n cmp r2, 0\n jne loop\n ret\n";
    let mut p1 = proc_from(src);
    let mut e1 = Engine::new(EngineOptions::default());
    e1.run(&mut p1, &mut NullTool, 100_000_000);

    // Double the iterations: translation cycles stay identical.
    let src2 = src.replace("500", "1000");
    let mut p2 = proc_from(&src2);
    let mut e2 = Engine::new(EngineOptions::default());
    e2.run(&mut p2, &mut NullTool, 100_000_000);
    assert_eq!(
        e1.stats.translation_cycles, e2.stats.translation_cycles,
        "translation is amortized"
    );
    assert!(p2.cycles > p1.cycles);
}

#[test]
fn indirect_transfers_pay_dispatch_every_time() {
    let src = ".section text\n.global _start\n_start:\n\
        mov r2, 100\n\
        loop:\n call leaf\n sub r2, 1\n cmp r2, 0\n jne loop\n ret\n\
        leaf:\n ret\n";
    let mut p = proc_from(src);
    let mut engine = Engine::new(EngineOptions::default());
    engine.run(&mut p, &mut NullTool, 100_000_000);
    // 100 leaf returns + the final return(s): every one is counted and
    // charged. Repeat targets hit the block's inlined target cache and
    // pay the cheaper chain_hit; new targets pay the full lookup.
    assert!(engine.stats.indirect_transfers >= 100);
    let s = &engine.stats;
    let c = EngineOptions::default().costs;
    assert!(
        s.indirect_chain_hits > 0,
        "repeat ret targets hit the inlined target cache"
    );
    assert!(
        s.indirect_chain_hits < s.indirect_transfers,
        "first sighting always misses"
    );
    assert_eq!(
        s.dispatch_cycles,
        (s.indirect_transfers - s.indirect_chain_hits) * c.indirect_lookup
            + s.indirect_chain_hits * c.chain_hit
    );
}

#[test]
fn max_block_splits_long_runs() {
    // 300 straight-line instructions with a tiny max_block.
    let mut src = String::from(".section text\n.global _start\n_start:\n");
    for _ in 0..300 {
        src.push_str(" nop\n");
    }
    src.push_str(" mov r0, 3\n ret\n");
    let mut p = proc_from(&src);
    let mut engine = Engine::new(EngineOptions {
        max_block: 16,
        ..EngineOptions::default()
    });
    let out = engine.run(&mut p, &mut NullTool, 100_000_000);
    assert_eq!(out.code(), Some(3));
    assert!(
        engine.stats.blocks_translated >= 300 / 16,
        "{} blocks",
        engine.stats.blocks_translated
    );
}

#[test]
fn zero_cost_model_adds_nothing() {
    let src = ".section text\n.global _start\n_start:\n\
        mov r2, 200\n\
        loop:\n sub r2, 1\n cmp r2, 0\n jne loop\n ret\n";
    let mut native = proc_from(src);
    native.run_native(100_000_000);

    let mut p = proc_from(src);
    let mut engine = Engine::new(EngineOptions {
        costs: CostModel {
            translate_per_insn: 0,
            block_build: 0,
            indirect_lookup: 0,
            chain_hit: 0,
            clean_call: 0,
        },
        ..EngineOptions::default()
    });
    engine.run(&mut p, &mut NullTool, 100_000_000);
    assert_eq!(
        p.cycles, native.cycles,
        "null tool + zero engine cost == native cycles"
    );
}

#[test]
fn indexed_cache_is_equivalent_across_engines_and_reruns() {
    // The indexed code cache (pc -> slot) must behave exactly like a
    // plain map: fresh engines agree bit-for-bit, a warm rerun reaches
    // the same outcome and guest-instruction count (minus retranslation),
    // and flushing forces a retranslation identical to the first run.
    let src = ".section text\n.global _start\n_start:\n\
        mov r2, 400\n\
        loop:\n call leaf\n sub r2, 1\n cmp r2, 0\n jne loop\n\
        mov r0, 42\n ret\n\
        leaf:\n ret\n";

    let mut p1 = proc_from(src);
    let mut e1 = Engine::new(EngineOptions::default());
    let o1 = e1.run(&mut p1, &mut NullTool, 100_000_000);

    let mut p2 = proc_from(src);
    let mut e2 = Engine::new(EngineOptions::default());
    let o2 = e2.run(&mut p2, &mut NullTool, 100_000_000);
    assert_eq!(o1.code(), o2.code());
    assert_eq!(p1.cycles, p2.cycles, "fresh engines are deterministic");
    assert_eq!(e1.stats.blocks_translated, e2.stats.blocks_translated);
    assert_eq!(e1.stats.guest_insns, e2.stats.guest_insns);
    assert_eq!(e1.stats.translation_cycles, e2.stats.translation_cycles);
    assert_eq!(e1.stats.dispatch_cycles, e2.stats.dispatch_cycles);

    // Warm rerun on the same engine: identical outcome and guest work,
    // zero additional translation (every dispatch is a cache hit).
    let translated_cold = e1.stats.blocks_translated;
    let cached = e1.cached_blocks();
    let dispatch_cold = e1.stats.dispatch_cycles;
    let hits_cold = e1.stats.indirect_chain_hits;
    assert!(cached > 0);
    let mut p3 = proc_from(src);
    let o3 = e1.run(&mut p3, &mut NullTool, 100_000_000);
    assert_eq!(o3.code(), o1.code());
    assert_eq!(
        e1.stats.blocks_translated, translated_cold,
        "warm cache retranslates nothing"
    );
    assert_eq!(e1.cached_blocks(), cached);
    // Warm blocks keep their inlined indirect-target caches, so the warm
    // run saves exactly the translation cycles plus the dispatch delta
    // from first-sighting lookups that are now chain hits.
    let dispatch_warm = e1.stats.dispatch_cycles - dispatch_cold;
    assert!(
        e1.stats.indirect_chain_hits - hits_cold >= hits_cold,
        "warm targets only add hits"
    );
    assert_eq!(
        p3.cycles,
        p1.cycles - e2.stats.translation_cycles - (dispatch_cold - dispatch_warm),
        "warm run saves translation plus warmed indirect-target lookups"
    );

    // Flush and rerun: retranslation repeats the cold run exactly.
    e1.flush_cache();
    assert_eq!(e1.cached_blocks(), 0);
    let mut p4 = proc_from(src);
    let o4 = e1.run(&mut p4, &mut NullTool, 100_000_000);
    assert_eq!(o4.code(), o1.code());
    assert_eq!(p4.cycles, p1.cycles);
    assert_eq!(e1.cached_blocks(), cached);
}

#[test]
fn stats_reset_between_engines_not_runs() {
    let src = ".section text\n.global _start\n_start:\n mov r0, 1\n ret\n";
    let mut engine = Engine::new(EngineOptions::default());
    let mut p1 = proc_from(src);
    engine.run(&mut p1, &mut NullTool, 1_000_000);
    let after_first = engine.stats.guest_insns;
    let mut p2 = proc_from(src);
    engine.run(&mut p2, &mut NullTool, 1_000_000);
    assert!(engine.stats.guest_insns > after_first, "stats accumulate");
}
