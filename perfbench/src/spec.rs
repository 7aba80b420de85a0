//! `spec-protect`: the 28 SPEC-shaped programs under JASan-hybrid and
//! JCFI-hybrid, in a seeded order. The rule cache is warmed and the
//! native reference runs happen in set-up, so an op is steady-state
//! protected execution: one `run_hybrid` call and its teardown.

use crate::hybrid::{self, FUEL};
use crate::layers::traced_report;
use crate::stats::{geomean, median, ratio, shuffle};
use crate::{metric, repeat_setup, run_passes, trace, ColdFills, Config, Ops, Report};
use janitizer_core::{
    dependency_closure, run_native, HybridOptions, RunOutcome, SecurityPlugin, SplitMix64,
};
use janitizer_jasan::{Jasan, RT_MODULE};
use janitizer_jcfi::Jcfi;
use janitizer_obj::Image;
use janitizer_vm::LoadOptions;
use janitizer_workloads::{build_world, BuildOptions, World};
use std::sync::Arc;
use std::time::Instant;

/// Input scale of the programs: each default argument is multiplied by
/// this. At 0.25 one pass over all 56 (program, tool) ops takes about
/// 3 s on a 2-core x86-64 host, so one run measures several passes.
pub const SCALE: f64 = 0.25;

/// Ops between two restarts of the tool process (cold rule-cache
/// refills); the refills give `restart_ms_p50` and `analyze_kb_per_s`.
const RESTART_EVERY: u64 = 8;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Tool {
    Jasan,
    Jcfi,
}

impl Tool {
    fn name(self) -> &'static str {
        match self {
            Tool::Jasan => "jasan",
            Tool::Jcfi => "jcfi",
        }
    }
}

/// What a correct protected run of one program must reproduce.
#[derive(Clone)]
struct Expected {
    code: i64,
    stdout: String,
}

/// Everything built in set-up.
struct Setup {
    world: World,
    /// Every `(module, tool)` key the runs look up: the programs' `ldd`
    /// closure plus each tool's preloads and ld.so.
    keys: Vec<(Arc<Image>, Tool)>,
    native: Vec<Expected>,
    native_cycles: Vec<u64>,
    native_mips: f64,
}

fn load(world: &World, prog: usize, tool: Tool) -> LoadOptions {
    LoadOptions {
        args: vec![world.args[prog]],
        preload: if tool == Tool::Jasan {
            vec![RT_MODULE.into()]
        } else {
            Vec::new()
        },
        ..LoadOptions::default()
    }
}

fn setup(scale: f64) -> Setup {
    let world = build_world(&BuildOptions {
        scale,
        ..BuildOptions::default()
    });
    let store = &world.store;
    let names: Vec<String> = world.workloads.iter().map(|w| w.name.to_string()).collect();
    let mut keys = Vec::new();
    for tool in [Tool::Jasan, Tool::Jcfi] {
        let mut roots = names.clone();
        if tool == Tool::Jasan {
            roots.push(RT_MODULE.into());
        }
        roots.push("ld.so".into());
        for name in dependency_closure(store, &roots) {
            keys.extend(store.get(&name).map(|image| (image, tool)));
        }
    }

    let (mut native, mut native_cycles) = (Vec::new(), Vec::new());
    let (mut insns, mut native_s) = (0u64, 0.0);
    for (i, name) in names.iter().enumerate() {
        let t = Instant::now();
        let (exit, proc) = run_native(store, name, &load(&world, i, Tool::Jcfi), FUEL)
            .unwrap_or_else(|e| panic!("{name}: native load failed: {e}"));
        native_s += t.elapsed().as_secs_f64();
        let code = exit
            .code()
            .unwrap_or_else(|| panic!("{name}: native run did not exit: {exit:?}"));
        insns += proc.insns;
        native.push(Expected {
            code,
            stdout: proc.stdout_string(),
        });
        native_cycles.push(proc.cycles.max(1));
    }
    Setup {
        world,
        keys,
        native,
        native_cycles,
        native_mips: ratio(insns as f64, native_s * 1e6),
    }
}

pub fn run(cfg: &Config) -> Report {
    let (jasan, jcfi) = (Jasan::hybrid(), Jcfi::hybrid());
    let plugin = |t: Tool| -> &dyn SecurityPlugin {
        match t {
            Tool::Jasan => &jasan,
            Tool::Jcfi => &jcfi,
        }
    };
    let mut fills = ColdFills::default();
    let warm = |s: &Setup, fills: &mut ColdFills| {
        let keys: Vec<_> = s
            .keys
            .iter()
            .map(|(i, t)| (Arc::clone(i), plugin(*t)))
            .collect();
        fills.fill(&keys)
    };
    let ((s, mut cache), setup_s) = repeat_setup(cfg, || {
        let s = setup(cfg.scale);
        let cache = warm(&s, &mut fills);
        (s, cache)
    });
    let world = &s.world;
    let pairs: Vec<(usize, Tool)> = (0..world.workloads.len())
        .flat_map(|p| [(p, Tool::Jasan), (p, Tool::Jcfi)])
        .collect();
    // Each pass runs every pair once, in its own seeded order, so a run
    // averages over orders instead of measuring one.
    let mut rng = SplitMix64::new(cfg.seed);
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    shuffle(&mut rng, &mut order);
    let mut expected: Vec<Expected> = pairs.iter().map(|&(p, _)| s.native[p].clone()).collect();
    if cfg.sabotage {
        expected[order[0]].code += 1;
    }

    // Modeled cycles of each pair's first run; every repeat must match.
    let mut cycles: Vec<Option<u64>> = vec![None; pairs.len()];
    let mut ops = Ops::default();
    let mut insns = 0u64;
    let mut passes = 0;
    let rec = run_passes(cfg, |traced| {
        if passes > 0 {
            shuffle(&mut rng, &mut order);
        }
        passes += 1;
        for &i in &order {
            let (p, tool) = pairs[i];
            // Every RESTART_EVERY ops the tool process restarts without a
            // rule store: the rules are analyzed afresh, timed apart from
            // the ops.
            if ops.attempted > 0 && ops.attempted % RESTART_EVERY == 0 {
                cache = warm(&s, &mut fills);
            }
            trace::set_op(ops.attempted);
            let name = world.workloads[p].name;
            let opts = HybridOptions {
                load: load(world, p, tool),
                fuel: FUEL,
                rule_cache: Some(Arc::clone(&cache)),
                ..HybridOptions::default()
            };
            let t = Instant::now();
            let run = trace::span("op", || {
                let start = ["jasan.on_start", "jcfi.on_start"][tool as usize];
                match tool {
                    Tool::Jasan => hybrid::run(&world.store, name, Jasan::hybrid(), &opts, start),
                    Tool::Jcfi => hybrid::run(&world.store, name, Jcfi::hybrid(), &opts, start),
                }
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let ok = run.as_ref().is_ok_and(|r| {
                let first = *cycles[i].get_or_insert(r.cycles);
                if !traced {
                    insns += r.insns;
                }
                r.outcome == RunOutcome::Exited(expected[i].code)
                    && r.stdout == expected[i].stdout
                    && r.stats.reports.is_empty()
                    && r.degraded == 0
                    && r.cycles == first
            });
            if !ok {
                eprintln!(
                    "spec-protect: {name} under {} failed its check",
                    tool.name()
                );
            }
            ops.record(ms, traced, ok);
            if traced {
                let null = hybrid::null_client_ms(&world.store, name, &opts.load);
                let (key, n) = match tool {
                    Tool::Jasan => ("jasan.probe_overhead_ms", "jasan.ops"),
                    Tool::Jcfi => ("jcfi.probe_overhead_ms", "jcfi.ops"),
                };
                trace::add(key, ms - null);
                trace::add(n, 1.0);
            }
        }
    });
    if let Some(mut rec) = rec {
        rec.sums.insert("vm.native_mips", s.native_mips);
        return traced_report("spec-protect", cfg.seed, &rec, &ops);
    }

    let slowdowns: Vec<f64> = pairs
        .iter()
        .zip(&cycles)
        .filter_map(|(&(p, _), c)| c.map(|c| c as f64 / s.native_cycles[p] as f64))
        .collect();
    let op_s = ops.ms.iter().sum::<f64>() / 1e3;
    let mut metrics = ops.common_metrics(setup_s);
    metrics.extend([
        metric("guest_mips", ratio(insns as f64, op_s * 1e6), "MIPS"),
        metric("modeled_slowdown_geomean", geomean(&slowdowns), "x"),
        metric("restart_ms_p50", median(&fills.ms), "ms"),
        metric("analyze_kb_per_s", fills.kib_per_s(), "KiB/s"),
    ]);
    Report {
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
    }
}
