//! One Criterion bench per paper table/figure: each regenerates the
//! figure's series (at a reduced workload scale so `cargo bench`
//! completes quickly) and prints the headline rows, while Criterion times
//! the end-to-end pipeline that produces them.
//!
//! For full-size tables run `janitizer-eval <figN>` instead; this harness
//! is about demonstrating that every figure is reproducible from one
//! command and tracking harness performance.

use criterion::{criterion_group, criterion_main, Criterion};
use janitizer_eval::*;
use std::sync::OnceLock;
use std::time::Duration;

const SCALE: f64 = 0.05;

fn world() -> &'static EvalWorld {
    static WORLD: OnceLock<EvalWorld> = OnceLock::new();
    WORLD.get_or_init(|| build_eval_world(SCALE))
}

fn show(fig: &FigResult) {
    let means = if fig.use_mean {
        fig.mean()
    } else {
        fig.geomean()
    };
    let cells: Vec<String> = fig
        .columns
        .iter()
        .zip(&means)
        .map(|(c, v)| format!("{c}={}", v.map(|x| format!("{x:.3}")).unwrap_or("x".into())))
        .collect();
    eprintln!("[{}] {}", fig.title, cells.join("  "));
}

fn bench_fig7(c: &mut Criterion) {
    let ew = world();
    let mut g = c.benchmark_group("fig7_jasan");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(4));
    g.bench_function("regenerate", |b| b.iter(|| fig7(ew)));
    g.finish();
    show(&fig7(ew));
}

fn bench_fig8(c: &mut Criterion) {
    let ew = world();
    let mut g = c.benchmark_group("fig8_breakdown");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(4));
    g.bench_function("regenerate", |b| b.iter(|| fig8(ew)));
    g.finish();
    show(&fig8(ew));
}

fn bench_fig9(c: &mut Criterion) {
    let ew = world();
    let mut g = c.benchmark_group("fig9_jcfi");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(4));
    g.bench_function("regenerate", |b| b.iter(|| fig9(ew)));
    g.finish();
    show(&fig9(ew));
}

fn bench_fig10(c: &mut Criterion) {
    let ew = world();
    // The full 624-pair suite is sized for the eval binary; bench a
    // deterministic 1/8 slice.
    let mut g = c.benchmark_group("fig10_juliet");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(4));
    let base = ew.world.store.clone();
    g.bench_function("slice", |b| {
        b.iter(|| {
            let suite = janitizer_workloads::juliet_suite();
            let mut flagged = 0usize;
            for case in suite.iter().step_by(8) {
                let store = janitizer_workloads::build_case(&base, "case", &case.bad);
                let opts = janitizer_core::HybridOptions {
                    load: janitizer_vm::LoadOptions {
                        preload: vec![janitizer_jasan::RT_MODULE.into()],
                        ..Default::default()
                    },
                    ..Default::default()
                };
                if let Ok(run) = janitizer_core::run_hybrid(
                    &store,
                    "case",
                    janitizer_jasan::Jasan::hybrid(),
                    &opts,
                ) {
                    if matches!(run.outcome, janitizer_core::RunOutcome::Violation(_)) {
                        flagged += 1;
                    }
                }
            }
            flagged
        })
    });
    g.finish();
    let r = fig10(ew);
    eprintln!(
        "[Figure 10] Valgrind TP={} FN={}  JASan TP={} FN={}  (FP {} / {})",
        r.valgrind.true_positives,
        r.valgrind.false_negatives,
        r.jasan.true_positives,
        r.jasan.false_negatives,
        r.valgrind.false_positives,
        r.jasan.false_positives
    );
}

fn bench_fig11(c: &mut Criterion) {
    let ew = world();
    let mut g = c.benchmark_group("fig11_fwd_bwd");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(4));
    g.bench_function("regenerate", |b| b.iter(|| fig11(ew)));
    g.finish();
    show(&fig11(ew));
}

fn bench_fig12(c: &mut Criterion) {
    let ew = world();
    let mut g = c.benchmark_group("fig12_dair");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(4));
    g.bench_function("regenerate", |b| b.iter(|| fig12(ew)));
    g.finish();
    show(&fig12(ew));
}

fn bench_fig13(c: &mut Criterion) {
    let ew = world();
    let mut g = c.benchmark_group("fig13_sair");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(4));
    g.bench_function("regenerate", |b| b.iter(|| fig13(ew)));
    g.finish();
    show(&fig13(ew));
}

fn bench_fig14(c: &mut Criterion) {
    let ew = world();
    let mut g = c.benchmark_group("fig14_coverage");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(4));
    g.bench_function("regenerate", |b| b.iter(|| fig14(ew)));
    g.finish();
    show(&fig14(ew));
}

criterion_group!(
    figures,
    bench_fig7,
    bench_fig8,
    bench_fig9,
    bench_fig10,
    bench_fig11,
    bench_fig12,
    bench_fig13,
    bench_fig14
);
criterion_main!(figures);
