//! DBT dispatch benchmarks: the engine's hot loop on a warm code cache.
//! The indexed cache (pc -> slot, slot take/put) replaces the old
//! per-block-execution HashMap remove/reinsert; this bench is the
//! regression guard for that fast path.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use janitizer_asm::{assemble, AsmOptions};
use janitizer_dbt::{DecodedBlock, Engine, EngineOptions, TbItem, Tool};
use janitizer_link::{link, LinkOptions};
use janitizer_minic::{compile, CompileOptions};
use janitizer_vm::{load_process, LoadOptions, ModuleStore, Process};

/// Pass-through tool: every cycle goes to translate + dispatch, so the
/// measurement isolates the engine's own block bookkeeping.
struct Passthrough;

impl Tool for Passthrough {
    fn name(&self) -> &str {
        "passthrough"
    }
    fn instrument_block(&mut self, _proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
        block.passthrough()
    }
}

fn bench_store() -> ModuleStore {
    // A loop-heavy program: few distinct blocks, many block executions —
    // the dispatch-dominated regime.
    let src = r#"
        long main() {
            long s = 0;
            for (long i = 0; i < 20000; i++) {
                if (i % 3) s += i * 7;
                else s -= i;
                s = s % 100000;
            }
            return s % 256;
        }
    "#;
    let asm = compile(
        src,
        &CompileOptions {
            emit_start: true,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    let crt = ".section text\n.global __stack_chk_fail\n__stack_chk_fail:\n trap\n";
    let o1 = assemble("b.s", &asm, &AsmOptions::default()).unwrap();
    let o2 = assemble("crt.s", crt, &AsmOptions::default()).unwrap();
    let image = link(&[o1, o2], &LinkOptions::executable("bench")).unwrap();
    let mut store = ModuleStore::new();
    store.add(image);
    store
}

fn bench_dispatch(c: &mut Criterion) {
    let store = bench_store();
    let mut g = c.benchmark_group("dbt_dispatch");
    g.throughput(Throughput::Elements(20_000));
    // A persistent engine keeps its code cache across guest runs (same
    // load addresses), so after the first iteration every block dispatch
    // is a warm-cache hit.
    let mut engine = Engine::new(EngineOptions::default());
    let mut tool = Passthrough;
    g.bench_function("warm_cache_run", |b| {
        b.iter_batched(
            || load_process(&store, "bench", &LoadOptions::default()).unwrap(),
            |mut proc| engine.run(&mut proc, &mut tool, 2_000_000_000),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("cold_cache_run", |b| {
        b.iter_batched(
            || load_process(&store, "bench", &LoadOptions::default()).unwrap(),
            |mut proc| {
                let mut engine = Engine::new(EngineOptions::default());
                engine.run(&mut proc, &mut tool, 2_000_000_000)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
