//! The analyze-once / run-many performance layer: cached rule files are
//! byte-identical to fresh ones, plugin configurations never share a
//! cache slot, and shared modules are analyzed exactly once per eval
//! invocation. (Figure bytes at any thread count are pinned by
//! `knob_parity.rs`.)

use janitizer_core::{analyze_statically, RuleCache, SecurityPlugin};
use janitizer_eval::{build_eval_world, run_config, ToolConfig};
use janitizer_jasan::Jasan;
use janitizer_workloads::library_base;

#[test]
fn cached_rule_files_match_fresh_analysis_byte_for_byte() {
    let libs = library_base();
    let cache = RuleCache::new();
    let plugin = Jasan::hybrid();
    for name in ["libjc.so", "ld.so"] {
        let image = libs.get(name).expect("shared module");
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
    let image = library_base().get("libjc.so").expect("shared module");
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
