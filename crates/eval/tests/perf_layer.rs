//! The analyze-once / run-many performance layer: cached rule files are
//! byte-identical to fresh ones, shared modules are analyzed exactly once
//! per eval invocation, and the parallel figure fan-out is
//! byte-deterministic against the serial reference. The thread-count
//! switch is process-wide, so these tests serialize on a mutex.

use janitizer_core::{analyze_statically, RuleCache, SecurityPlugin};
use janitizer_eval::{
    build_eval_world, fig10, fig11, fig12, fig13, fig14, fig7, fig8, fig9, run_config, set_threads,
    threads, EvalWorld, FigResult, ToolConfig,
};
use janitizer_jasan::Jasan;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn cached_rule_files_match_fresh_analysis_byte_for_byte() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ew = build_eval_world(0.05);
    let cache = RuleCache::new();
    let plugin = Jasan::hybrid();
    for name in ["libjc.so", "ld.so"] {
        let image = ew.world.store.get(name).expect("shared module");
        let fresh = analyze_statically(&image, &plugin);
        let first = cache.get_or_analyze(&image, &plugin, true);
        let second = cache.get_or_analyze(&image, &plugin, true);
        assert_eq!(
            fresh.to_bytes(),
            first.to_bytes(),
            "{name}: cache miss path diverged from a fresh analysis"
        );
        assert_eq!(
            first.to_bytes(),
            second.to_bytes(),
            "{name}: cache hit returned a different rule file"
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.hits, 2);
}

#[test]
fn distinct_plugin_configurations_do_not_share_cache_slots() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ew = build_eval_world(0.05);
    let image = ew.world.store.get("libjc.so").expect("shared module");
    let cache = RuleCache::new();
    let full = cache.get_or_analyze(&image, &Jasan::hybrid(), true);
    let base = cache.get_or_analyze(&image, &Jasan::hybrid_base(), true);
    assert_ne!(
        Jasan::hybrid().cache_key(),
        Jasan::hybrid_base().cache_key(),
        "ablation configs must key separately"
    );
    // Each configuration lands in its own slot: two distinct analyses of
    // the same module, never served from each other's entry. (The emitted
    // bytes may coincide for some modules — the configs differ in the
    // instrumentation phase — so the invariant is slot separation, not
    // payload inequality.)
    let stats = cache.stats();
    assert_eq!(stats.misses, 2, "each config must run its own analysis");
    assert_eq!(stats.hits, 0, "different keys never alias");
    assert_eq!(
        cache.analysis_count("libjc.so", &Jasan::hybrid().cache_key()),
        1
    );
    assert_eq!(
        cache.analysis_count("libjc.so", &Jasan::hybrid_base().cache_key()),
        1
    );
    // Re-requesting either config now hits its own slot and returns the
    // exact bytes that slot was filled with.
    let full2 = cache.get_or_analyze(&image, &Jasan::hybrid(), true);
    let base2 = cache.get_or_analyze(&image, &Jasan::hybrid_base(), true);
    assert_eq!(full.to_bytes(), full2.to_bytes());
    assert_eq!(base.to_bytes(), base2.to_bytes());
    assert_eq!(cache.stats().hits, 2);
}

#[test]
fn shared_modules_are_analyzed_exactly_once_per_invocation() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ew = build_eval_world(0.05);

    // Several figure cells over several workloads, all JASan-hybrid: the
    // shared libraries are needed by every run but must be analyzed once.
    for idx in 0..ew.world.workloads.len().min(3) {
        let _ = run_config(&ew, idx, ToolConfig::JasanHybrid);
    }
    let key = Jasan::hybrid().cache_key();
    for shared in ["libjc.so", "ld.so"] {
        assert_eq!(
            ew.cache.analysis_count(shared, &key),
            1,
            "{shared} must be statically analyzed exactly once per eval invocation"
        );
    }
    let stats = ew.cache.stats();
    assert!(
        stats.hits > 0,
        "repeated runs must be served from the cache (hits={}, misses={})",
        stats.hits,
        stats.misses
    );
}

#[test]
fn parallel_and_serial_figures_are_byte_identical() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    // Serial reference on a fresh world (fresh cache), then an explicit
    // multi-worker fan-out on another fresh world: every rendered, CSV
    // and JSON byte of every figure must match. An explicit count (not
    // 0 = auto) guarantees the scoped threads actually spawn even on a
    // single-core machine. fig10 is the parallel Juliet fold.
    let all_figs = |ew: &EvalWorld| -> Vec<FigResult> {
        [fig7, fig8, fig9, fig11, fig12, fig13, fig14]
            .iter()
            .map(|f| f(ew))
            .collect()
    };
    set_threads(1);
    let ew_serial = build_eval_world(0.05);
    let serial = all_figs(&ew_serial);

    set_threads(4);
    let ew_par = build_eval_world(0.05);
    assert_eq!(threads(), 4);
    let par = all_figs(&ew_par);

    for (s, p) in serial.iter().zip(&par) {
        assert_eq!(s.render(), p.render(), "{}: render diverged", s.title);
        assert_eq!(s.to_csv(), p.to_csv(), "{}: CSV diverged", s.title);
        assert_eq!(s.to_json(), p.to_json(), "{}: JSON diverged", s.title);
    }

    set_threads(1);
    let j_serial = fig10(&ew_serial.world.store);
    set_threads(4);
    let j_par = fig10(&ew_par.world.store);
    set_threads(0);
    assert_eq!(
        j_serial.valgrind, j_par.valgrind,
        "fig10 Valgrind counts diverged"
    );
    assert_eq!(j_serial.jasan, j_par.jasan, "fig10 JASan counts diverged");
    assert_eq!(j_serial.render(), j_par.render());
}
