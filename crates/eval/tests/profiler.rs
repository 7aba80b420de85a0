//! Deterministic profiler invariants: attribution conservation (every
//! attributed cycle sums exactly to the engine's modeled totals), byte
//! identity of the exported artifacts across thread counts, and strict
//! observation-only behavior (figure bytes are identical with profiling
//! on or off). The profiling and thread-count switches are process-wide,
//! so these tests serialize on a mutex.

use janitizer_eval::{
    build_eval_world, fig11, fig12, fig13, fig14, fig7, fig8, fig9, run_config, set_profiling,
    set_threads, take_profiles, ToolConfig,
};
use std::collections::BTreeMap;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// Runs fig14 (JasanHybrid over every workload) with profiling armed at
/// the given thread count and returns each cell's rendered artifacts.
fn profiled_fig14(threads: usize) -> BTreeMap<(String, String), (String, String, String)> {
    set_threads(threads);
    let _ = take_profiles();
    set_profiling(true);
    let ew = build_eval_world(0.05);
    let _ = fig14(&ew);
    set_profiling(false);
    take_profiles()
        .into_iter()
        .map(|(k, p)| {
            (
                k,
                (
                    p.to_json(10).render_pretty(),
                    p.to_folded(),
                    p.budget_table(10),
                ),
            )
        })
        .collect()
}

#[test]
fn attribution_conserves_cycles_exactly() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    set_threads(1);
    let _ = take_profiles();
    set_profiling(true);
    let ew = build_eval_world(0.05);
    let _ = fig14(&ew);
    // A few more configurations over the first workload so the per-site
    // identity is exercised for inline and clean-call probes and for
    // static and dynamic fallback origins.
    for cfg in [
        ToolConfig::Valgrind,
        ToolConfig::JasanDyn,
        ToolConfig::JcfiHybrid,
        ToolConfig::BinCfi,
    ] {
        let _ = run_config(&ew, 0, cfg);
    }
    set_profiling(false);
    let profiles = take_profiles();
    assert!(!profiles.is_empty(), "profiling produced no cells");
    for ((workload, config), p) in &profiles {
        let t = p.class_totals();
        // Per-block conservation: every cycle the process spent is
        // attributed to exactly one (block, class) bucket.
        assert_eq!(
            t.total(),
            p.total_cycles,
            "{workload}/{config}: attributed {} of {} cycles",
            t.total(),
            p.total_cycles
        );
        // Per-site conservation: every probe the plugins register is
        // site-tagged, so the per-site cycle sum covers the probe
        // classes exactly.
        let site_cycles: u64 = p.sites.values().map(|s| s.stats.cycles).sum();
        assert_eq!(
            site_cycles,
            t.inline_probes + t.clean_call_probes,
            "{workload}/{config}: untagged probe cycles"
        );
        let site_execs: u64 = p.sites.values().map(|s| s.stats.execs).sum();
        assert_eq!(site_execs, p.engine.probe_runs, "{workload}/{config}");
        // Engine counters conserve: a chain hit is a kind of indirect
        // transfer, and hoisted hits surface as elided executions (they
        // are not probe runs, so they must be covered by the sites'
        // elided sum).
        let e = &p.engine;
        assert!(
            e.indirect_chain_hits <= e.indirect_transfers,
            "{workload}/{config}"
        );
        assert!(e.checks_hoisted <= p.checks_elided(), "{workload}/{config}");
    }
    // The instrumented cells actually carry sites; the attribution is
    // not vacuous.
    assert!(
        profiles
            .values()
            .any(|p| p.sites.keys().any(|k| k.tool == "jasan")),
        "no jasan probe sites recorded"
    );
    assert!(
        profiles
            .values()
            .any(|p| p.sites.keys().any(|k| k.tool == "jcfi")),
        "no jcfi probe sites recorded"
    );
}

#[test]
fn profiles_are_byte_identical_across_thread_counts() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let serial = profiled_fig14(1);
    let parallel = profiled_fig14(4);
    set_threads(1);
    assert_eq!(
        serial.keys().collect::<Vec<_>>(),
        parallel.keys().collect::<Vec<_>>(),
        "cell sets diverged across thread counts"
    );
    for (key, (json1, folded1, budget1)) in &serial {
        let (json4, folded4, budget4) = &parallel[key];
        assert_eq!(json1, json4, "{key:?}: profile JSON diverged");
        assert_eq!(folded1, folded4, "{key:?}: folded stacks diverged");
        assert_eq!(budget1, budget4, "{key:?}: budget table diverged");
    }
}

#[test]
fn profiling_changes_no_figure_byte() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    set_threads(1);

    set_profiling(false);
    let ew_off = build_eval_world(0.05);
    let figs = [fig7, fig8, fig9, fig11, fig12, fig13, fig14];
    let off: Vec<_> = figs.iter().map(|f| f(&ew_off)).collect();

    let _ = take_profiles();
    set_profiling(true);
    // A fresh world (cold rule cache) so every run actually re-executes
    // under profiling instead of being served from the first world's
    // analyze-once cache.
    let ew_on = build_eval_world(0.05);
    let on: Vec<_> = figs.iter().map(|f| f(&ew_on)).collect();
    set_profiling(false);
    let profiles = take_profiles();

    for (a, b) in off.iter().zip(on.iter()) {
        assert_eq!(a.render(), b.render(), "{}: render diverged", a.title);
        assert_eq!(a.to_csv(), b.to_csv(), "{}: CSV diverged", a.title);
        assert_eq!(a.to_json(), b.to_json(), "{}: JSON diverged", a.title);
    }
    // ...and the profiled pass did observe the runs it rode along with.
    assert!(
        !profiles.is_empty(),
        "profiling armed but no cells collected"
    );
}
