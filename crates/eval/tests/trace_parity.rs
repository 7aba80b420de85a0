//! Trace machinery is observation-free: every figure's result bytes are
//! identical with the DBT trace layer (direct-branch chaining, superblock
//! formation) on or off, at any thread count — traces only change host
//! wall time. Plus a direct engine-equivalence
//! check: a hot-loop workload executed through superblocks reports the
//! same outcome, modeled cycles, and violations as block-at-a-time
//! execution. The trace and thread-count switches are process-wide, so
//! these tests serialize on a mutex.

use janitizer_core::{run_hybrid, HybridOptions};
use janitizer_eval::{
    build_eval_world, fig11, fig12, fig13, fig14, fig7, fig8, fig9, set_threads, set_traces,
    EvalWorld, FigResult,
};
use janitizer_jasan::{Jasan, RT_MODULE};
use janitizer_vm::LoadOptions;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn all_figs(ew: &EvalWorld) -> Vec<FigResult> {
    [fig7, fig8, fig9, fig11, fig12, fig13, fig14]
        .iter()
        .map(|f| f(ew))
        .collect()
}

/// Renders every figure with the given trace setting at the given thread
/// count. Each pass builds a fresh world (cold rule cache) so runs
/// actually execute under the requested setting.
fn figures_with(traces: bool, threads: usize) -> Vec<FigResult> {
    set_threads(threads);
    set_traces(traces);
    let ew = build_eval_world(0.05);
    let figs = all_figs(&ew);
    set_traces(true);
    set_threads(1);
    figs
}

#[test]
fn figures_are_byte_identical_with_traces_off() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1usize, 4] {
        let on = figures_with(true, threads);
        let off = figures_with(false, threads);
        for (a, b) in on.iter().zip(off.iter()) {
            assert_eq!(
                a.render(),
                b.render(),
                "{} (threads {threads}): render diverged",
                a.title
            );
            assert_eq!(a.to_csv(), b.to_csv(), "{} (threads {threads}): CSV diverged", a.title);
            assert_eq!(
                a.to_json(),
                b.to_json(),
                "{} (threads {threads}): JSON diverged",
                a.title
            );
        }
    }
}

#[test]
fn superblock_execution_is_equivalent_to_block_at_a_time() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    set_threads(1);
    let ew = build_eval_world(0.05);
    // Every evaluation workload under the full sanitizer, with the
    // hotness threshold forced low so superblocks form on the real
    // workload loops — against the same runs with traces disabled.
    for (i, w) in ew.world.workloads.iter().enumerate() {
        let load = LoadOptions {
            args: vec![ew.world.args[i]],
            preload: vec![RT_MODULE.into()],
            ..LoadOptions::default()
        };
        let traced_opts = HybridOptions {
            load: load.clone(),
            trace_threshold: 2,
            ..HybridOptions::default()
        };
        let plain_opts = HybridOptions {
            load,
            no_traces: true,
            ..HybridOptions::default()
        };
        let traced = run_hybrid(&ew.world.store, w.name, Jasan::hybrid(), &traced_opts).unwrap();
        let plain = run_hybrid(&ew.world.store, w.name, Jasan::hybrid(), &plain_opts).unwrap();
        assert_eq!(traced.outcome, plain.outcome, "{}: outcome diverged", w.name);
        assert_eq!(traced.cycles, plain.cycles, "{}: modeled cycles diverged", w.name);
        assert_eq!(traced.insns, plain.insns, "{}: guest insns diverged", w.name);
        assert_eq!(traced.stdout, plain.stdout, "{}: stdout diverged", w.name);
        assert_eq!(
            traced.engine.reports, plain.engine.reports,
            "{}: violation reports diverged",
            w.name
        );
        assert_eq!(
            traced.engine.probe_runs, plain.engine.probe_runs,
            "{}: probe accounting diverged",
            w.name
        );
        // The traced run exercised the machinery it claims to bypass.
        assert_eq!(plain.engine.superblocks_formed, 0);
        assert_eq!(plain.engine.chained_transfers, 0);
    }
    // At least one workload actually formed superblocks and bypassed the
    // dispatcher, so the equivalence above is not vacuous.
    let w = &ew.world.workloads[0];
    let load = LoadOptions {
        args: vec![ew.world.args[0]],
        preload: vec![RT_MODULE.into()],
        ..LoadOptions::default()
    };
    let traced = run_hybrid(
        &ew.world.store,
        w.name,
        Jasan::hybrid(),
        &HybridOptions {
            load,
            trace_threshold: 2,
            ..HybridOptions::default()
        },
    )
    .unwrap();
    assert!(
        traced.engine.superblocks_formed > 0,
        "{}: no superblocks formed at threshold 2",
        w.name
    );
    assert!(
        traced.engine.chained_transfers > 0,
        "{}: no dispatcher bypasses",
        w.name
    );
}
