//! `juliet-triage`: a seeded sample of Juliet case pairs, the same
//! number from each of the four categories. An op takes one variant
//! from MiniC source to a JASan-hybrid verdict: compile, assemble, link,
//! run. The shared libraries' rules stay cached; the case executable is
//! analyzed cold and evicted after every op.

use crate::hybrid::{self, GuestRun};
use crate::layers::traced_report;
use crate::stats::{median, ratio, shuffle};
use crate::{metric, repeat_setup, run_passes, trace, CacheKeys, ColdFills, Config, Ops, Report};
use janitizer_asm::{assemble, AsmOptions};
use janitizer_core::{dependency_closure, HybridOptions, SecurityPlugin, SplitMix64};
use janitizer_jasan::{Jasan, RT_MODULE};
use janitizer_link::{link, LinkOptions};
use janitizer_minic::{compile, CanaryMode, CompileOptions};
use janitizer_vm::{LoadOptions, ModuleStore};
use janitizer_workloads::{build_case, juliet_suite, library_base, JulietCategory, CRT0};
use std::sync::Arc;
use std::time::Instant;

/// Case pairs drawn from each category per run: all of the smallest
/// category (wide heap-to-heap), so a pass is 192 ops, about 5 s on a
/// 2-core x86-64 host.
const PER_CATEGORY: usize = 24;

/// Cycle budget of one case run.
const FUEL: u64 = 200_000_000;

const CATEGORIES: [JulietCategory; 4] = [
    JulietCategory::HeapToHeap,
    JulietCategory::HeapToHeapWide,
    JulietCategory::StackToHeap,
    JulietCategory::HeapToStack,
];

/// One variant to triage and the verdict JASan must reach.
struct Variant {
    source: String,
    flagged: bool,
}

/// The seeded sample, in op order. Bad variants must be flagged, good
/// ones not; heap-to-stack bad variants overflow within one frame
/// without touching the canary, which JASan misses by design (Fig. 10).
fn sample(rng: &mut SplitMix64) -> Vec<Variant> {
    let suite = juliet_suite();
    let mut out = Vec::new();
    for cat in CATEGORIES {
        let mut cases: Vec<_> = suite.iter().filter(|c| c.category == cat).collect();
        shuffle(rng, &mut cases);
        for c in cases.into_iter().take(PER_CATEGORY) {
            out.push(Variant {
                source: c.good.clone(),
                flagged: false,
            });
            out.push(Variant {
                source: c.bad.clone(),
                flagged: cat != JulietCategory::HeapToStack,
            });
        }
    }
    shuffle(rng, &mut out);
    out
}

/// [`build_case`] rebuilt from the toolchain's public calls, with a span
/// around each stage.
fn build_case_traced(base: &ModuleStore, name: &str, source: &str) -> ModuleStore {
    let copts = CompileOptions {
        canary: CanaryMode::Arrays,
        ..CompileOptions::default()
    };
    let aopts = AsmOptions { pic: false };
    let crt0 = trace::span("asm.assemble", || assemble("crt0.s", CRT0, &aopts)).expect("crt0");
    let asm = trace::span("minic.compile", || compile(source, &copts)).expect("case compiles");
    let obj = trace::span("asm.assemble", || {
        assemble(&format!("{name}.c.s"), &asm, &aopts)
    })
    .expect("case assembles");
    let exe = trace::span("link.link", || {
        link(
            &[crt0, obj],
            &LinkOptions::executable(name).needs("libjc.so"),
        )
    })
    .expect("case links");
    let mut store = base.clone();
    store.add(exe);
    store
}

fn jasan_load() -> LoadOptions {
    LoadOptions {
        preload: vec![RT_MODULE.into()],
        ..LoadOptions::default()
    }
}

/// The shared libraries every case links against, and the `(module,
/// plugin)` keys a case run looks up besides the case itself.
fn setup(plugin: &dyn SecurityPlugin) -> (ModuleStore, Box<CacheKeys<'_>>) {
    let base = library_base();
    let roots = [RT_MODULE.to_string(), "libjc.so".into(), "ld.so".into()];
    let keys = dependency_closure(&base, &roots)
        .iter()
        .map(|name| {
            (
                base.get(name).expect("closure names stored modules"),
                plugin,
            )
        })
        .collect();
    (base, keys)
}

pub fn run(cfg: &Config) -> Report {
    let jasan = Jasan::hybrid();
    let mut fills = ColdFills::default();
    let ((base, cache), setup_s) = repeat_setup(cfg, || {
        let (base, keys) = setup(&jasan);
        let cache = fills.fill(&keys);
        (base, cache)
    });
    // Each pass runs the whole sample once, in its own seeded order.
    let mut rng = SplitMix64::new(cfg.seed);
    let mut variants = sample(&mut rng);
    if cfg.sabotage {
        variants[0].flagged = !variants[0].flagged;
    }
    let opts = HybridOptions {
        load: jasan_load(),
        fuel: FUEL,
        rule_cache: Some(Arc::clone(&cache)),
        ..HybridOptions::default()
    };
    // The set-up's fills warmed the libraries; from here on the samples
    // are the case executables' cold analyses.
    fills = ColdFills::default();
    let mut ops = Ops::default();
    let mut insns = 0u64;
    let mut passes = 0;
    let rec = run_passes(cfg, |traced| {
        if passes > 0 {
            shuffle(&mut rng, &mut variants);
        }
        passes += 1;
        for v in &variants {
            trace::set_op(ops.attempted);
            let t = Instant::now();
            let run: Option<GuestRun> = trace::span("op", || {
                let store = if traced {
                    build_case_traced(&base, "case", &v.source)
                } else {
                    build_case(&base, "case", &v.source)
                };
                // The executable's cold analysis, timed on its own; the
                // run then finds its rules cached.
                let image = store.get("case").expect("the case was just built");
                trace::span("core.analyze_case", || {
                    fills.fill_one(&cache, &image, &jasan)
                });
                let run = hybrid::run(&store, "case", Jasan::hybrid(), &opts, "jasan.on_start");
                cache.evict_module("case");
                run.ok()
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let ok = run.as_ref().is_some_and(|r| r.flagged() == v.flagged);
            if !ok {
                eprintln!(
                    "juliet-triage: wrong verdict (expected flagged={})",
                    v.flagged
                );
            }
            if let Some(r) = &run {
                if !traced {
                    insns += r.insns;
                }
            }
            ops.record(ms, traced, ok);
            if traced {
                let store = build_case(&base, "case", &v.source);
                let null = hybrid::null_client_ms(&store, "case", &jasan_load());
                trace::add("jasan.probe_overhead_ms", ms - null);
                trace::add("jasan.ops", 1.0);
            }
        }
    });
    if let Some(rec) = rec {
        return traced_report("juliet-triage", cfg.seed, &rec, &ops);
    }

    let op_s = ops.ms.iter().sum::<f64>() / 1e3;
    let mut metrics = ops.common_metrics(setup_s);
    metrics.extend([
        metric("guest_mips", ratio(insns as f64, op_s * 1e6), "MIPS"),
        // Defined over the SPEC-shaped programs, which this workload
        // does not run: the empty geomean.
        metric("modeled_slowdown_geomean", 1.0, "x"),
        metric("restart_ms_p50", median(&fills.ms), "ms"),
        metric("analyze_kb_per_s", fills.kib_per_s(), "KiB/s"),
    ]);
    Report {
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_build_matches_build_case() {
        let base = library_base();
        let case = &juliet_suite()[0];
        let a = build_case(&base, "case", &case.bad);
        let b = build_case_traced(&base, "case", &case.bad);
        let (a, b) = (a.get("case").unwrap(), b.get("case").unwrap());
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn sample_is_stratified_and_seeded() {
        let sample = |seed| sample(&mut SplitMix64::new(seed));
        let a = sample(5);
        assert_eq!(a.len(), 4 * PER_CATEGORY * 2);
        assert_eq!(a.iter().filter(|v| v.flagged).count(), 3 * PER_CATEGORY);
        let b = sample(5);
        assert!(a.iter().zip(&b).all(|(x, y)| x.source == y.source));
        assert!(a.iter().zip(&sample(6)).any(|(x, y)| x.source != y.source));
    }
}
