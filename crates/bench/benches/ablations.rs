//! Ablation benches for the design choices DESIGN.md calls out: each
//! compares the full design against a variant with one mechanism
//! disabled, timing the runs and printing the cycle-model deltas (the
//! metric the paper's claims are about).

use criterion::{criterion_group, criterion_main, Criterion};
use janitizer_core::{run_hybrid, HybridOptions};
use janitizer_jasan::{Jasan, JasanOptions, RT_MODULE};
use janitizer_vm::{LoadOptions, ModuleStore};
use janitizer_workloads::{build_world, BuildOptions};
use std::sync::OnceLock;
use std::time::Duration;

struct Setup {
    store: ModuleStore,
    name: &'static str,
    load: LoadOptions,
}

fn setup() -> &'static Setup {
    static S: OnceLock<Setup> = OnceLock::new();
    S.get_or_init(|| {
        let world = build_world(&BuildOptions {
            scale: 0.05,
            ..Default::default()
        });
        let name = "mcf";
        let idx = world.workloads.iter().position(|w| w.name == name).unwrap();
        Setup {
            store: world.store,
            name,
            load: LoadOptions {
                args: vec![world.args[idx]],
                preload: vec![RT_MODULE.into()],
                ..Default::default()
            },
        }
    })
}

fn cycles(s: &Setup, plugin: Jasan, opts: &HybridOptions) -> u64 {
    run_hybrid(&s.store, s.name, plugin, opts).unwrap().cycles
}

/// Liveness-guided spill elision (the 27%-improvement claim of Fig. 8).
fn ablation_liveness(c: &mut Criterion) {
    let s = setup();
    let opts = HybridOptions {
        load: s.load.clone(),
        ..Default::default()
    };
    let mut g = c.benchmark_group("ablation_liveness");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.bench_function("full", |b| b.iter(|| cycles(s, Jasan::hybrid(), &opts)));
    g.bench_function("no_liveness", |b| {
        b.iter(|| cycles(s, Jasan::hybrid_base(), &opts))
    });
    g.finish();
    let full = cycles(s, Jasan::hybrid(), &opts);
    let base = cycles(s, Jasan::hybrid_base(), &opts);
    eprintln!(
        "[ablation liveness] full={full} base={base} cycles — {:.1}% improvement",
        100.0 * (base - full) as f64 / base as f64
    );
}

/// No-op rules (§3.3.4): without them statically-clean blocks fall into
/// the dynamic fallback.
fn ablation_noop_rules(c: &mut Criterion) {
    let s = setup();
    let with = HybridOptions {
        load: s.load.clone(),
        ..Default::default()
    };
    let without = HybridOptions {
        load: s.load.clone(),
        no_noop_rules: true,
        ..Default::default()
    };
    let mut g = c.benchmark_group("ablation_noop_rules");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.bench_function("with_noop_rules", |b| {
        b.iter(|| cycles(s, Jasan::hybrid(), &with))
    });
    g.bench_function("without_noop_rules", |b| {
        b.iter(|| cycles(s, Jasan::hybrid(), &without))
    });
    g.finish();
    eprintln!(
        "[ablation noop-rules] with={} without={} cycles",
        cycles(s, Jasan::hybrid(), &with),
        cycles(s, Jasan::hybrid(), &without)
    );
}

/// SCEV-derived cached checks for loop-invariant accesses (§3.3.2).
fn ablation_cached_checks(c: &mut Criterion) {
    let s = setup();
    let opts = HybridOptions {
        load: s.load.clone(),
        ..Default::default()
    };
    let cached = || {
        Jasan::new(JasanOptions {
            cached_checks: true,
            ..JasanOptions::default()
        })
    };
    let uncached = || {
        Jasan::new(JasanOptions {
            cached_checks: false,
            ..JasanOptions::default()
        })
    };
    let mut g = c.benchmark_group("ablation_cached_checks");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.bench_function("cached", |b| b.iter(|| cycles(s, cached(), &opts)));
    g.bench_function("uncached", |b| b.iter(|| cycles(s, uncached(), &opts)));
    g.finish();
}

/// Static pass entirely on versus off (hybrid vs dynamic-only): the
/// central claim of the paper.
fn ablation_hybrid_vs_dynamic(c: &mut Criterion) {
    let s = setup();
    let hybrid = HybridOptions {
        load: s.load.clone(),
        ..Default::default()
    };
    let dynamic = HybridOptions {
        load: s.load.clone(),
        dynamic_only: true,
        ..Default::default()
    };
    let mut g = c.benchmark_group("ablation_hybrid");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.bench_function("hybrid", |b| b.iter(|| cycles(s, Jasan::hybrid(), &hybrid)));
    g.bench_function("dynamic_only", |b| {
        b.iter(|| cycles(s, Jasan::hybrid(), &dynamic))
    });
    g.finish();
    eprintln!(
        "[ablation hybrid] hybrid={} dynamic-only={} cycles",
        cycles(s, Jasan::hybrid(), &hybrid),
        cycles(s, Jasan::hybrid(), &dynamic)
    );
}

criterion_group!(
    ablations,
    ablation_liveness,
    ablation_noop_rules,
    ablation_cached_checks,
    ablation_hybrid_vs_dynamic
);
criterion_main!(ablations);
