//! Static-pipeline benchmarks for the analyze-once layer: the cost of a
//! fresh per-module static analysis vs a [`RuleCache`] hit, and a full
//! `run_hybrid` with and without the shared cache — the difference is
//! what every repeated figure cell of `janitizer-eval` saves; and one
//! cold fill of the whole analysis corpus, the cost every fresh module
//! pays before the cache can serve it.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use janitizer_core::{
    analyze_statically, dependency_closure, run_hybrid, HybridOptions, RuleCache, SecurityPlugin,
};
use janitizer_jasan::{Jasan, RT_MODULE};
use janitizer_jcfi::Jcfi;
use janitizer_obj::Image;
use janitizer_vm::LoadOptions;
use janitizer_workloads::{build_world, hostile_suite, BuildOptions};
use std::sync::Arc;

fn bench_rule_cache(c: &mut Criterion) {
    let world = build_world(&BuildOptions {
        scale: 0.05,
        ..BuildOptions::default()
    });
    let store = &world.store;
    let exe = world.workloads[0].name;
    let image = store.get(exe).expect("workload executable");

    let mut g = c.benchmark_group("static_pipeline");
    g.bench_function("analyze_fresh", |b| {
        b.iter(|| analyze_statically(&image, &Jasan::hybrid()))
    });
    let cache = RuleCache::new();
    let plugin = Jasan::hybrid();
    cache.get_or_analyze(&image, &plugin, true);
    g.bench_function("analyze_cached", |b| {
        b.iter(|| cache.get_or_analyze(&image, &plugin, true))
    });
    g.bench_function("dependency_closure", |b| {
        let roots = vec![exe.to_string(), "ld.so".to_string()];
        b.iter(|| dependency_closure(store, &roots))
    });
    g.finish();
}

/// One cold [`RuleCache`] fill of every world module and hostile image
/// under JASan and JCFI: the analysis each module gets once, shared by
/// both plugins, plus both static passes.
fn bench_analyze_corpus(c: &mut Criterion) {
    let world = build_world(&BuildOptions::default());
    let mut images: Vec<Arc<Image>> = world
        .store
        .names()
        .iter()
        .map(|n| world.store.get(n).expect("listed module"))
        .collect();
    images.extend(hostile_suite().into_iter().map(|h| Arc::new(h.image)));
    let code_bytes: u64 = images.iter().map(|i| i.code_bytes()).sum();
    let plugins: [Box<dyn SecurityPlugin>; 2] =
        [Box::new(Jasan::hybrid()), Box::new(Jcfi::hybrid())];

    let mut g = c.benchmark_group("static_pipeline");
    g.sample_size(200).throughput(Throughput::Bytes(code_bytes));
    g.bench_function("analyze_corpus", |b| {
        b.iter(|| {
            let cache = RuleCache::new();
            for image in &images {
                for plugin in &plugins {
                    cache.get_or_analyze(image, plugin.as_ref(), true);
                }
            }
            cache
        })
    });
    g.finish();
}

fn bench_run_hybrid(c: &mut Criterion) {
    let world = build_world(&BuildOptions {
        scale: 0.02,
        ..BuildOptions::default()
    });
    let store = &world.store;
    let exe = world.workloads[0].name;
    let load = LoadOptions {
        args: vec![world.args[0]],
        preload: vec![RT_MODULE.into()],
        ..LoadOptions::default()
    };

    let mut g = c.benchmark_group("run_hybrid");
    g.sample_size(10);
    let cold = HybridOptions {
        load: load.clone(),
        fuel: 2_000_000_000,
        ..HybridOptions::default()
    };
    g.bench_function("uncached", |b| {
        b.iter(|| run_hybrid(store, exe, Jasan::hybrid(), &cold).unwrap())
    });
    let cache = Arc::new(RuleCache::new());
    let warm = HybridOptions {
        rule_cache: Some(Arc::clone(&cache)),
        ..cold.clone()
    };
    run_hybrid(store, exe, Jasan::hybrid(), &warm).unwrap();
    g.bench_function("cached", |b| {
        b.iter(|| run_hybrid(store, exe, Jasan::hybrid(), &warm).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_rule_cache,
    bench_analyze_corpus,
    bench_run_hybrid
);
criterion_main!(benches);
