//! Component micro-benchmarks: the building blocks whose costs the
//! hybrid design trades against each other — decoding, static analysis,
//! rule-table construction and lookup, shadow checks, translation and
//! dispatch.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use janitizer_asm::{assemble, AsmOptions};
use janitizer_core::{analyze_statically, run_hybrid, HybridOptions, SecurityPlugin, TbItem};
use janitizer_dbt::{DecodedBlock, Engine, EngineOptions, NullTool, Tool};
use janitizer_isa::{decode, Instr, Reg};
use janitizer_jasan::Jasan;
use janitizer_link::{link, LinkOptions};
use janitizer_minic::{compile, CompileOptions};
use janitizer_rules::{RuleFile, RuleTable};
use janitizer_vm::{
    load_process, LoadOptions, ModuleStore, Process, HEAP_BASE, STACK_BASE, STACK_SIZE,
};
use std::time::Instant;

fn test_image() -> janitizer_obj::Image {
    let src = r#"
        long work(long *a, long n) {
            long s = 0;
            for (long i = 0; i < n; i++) {
                if (a[i] % 2) s += a[i] * 3;
                else s -= a[i];
            }
            return s;
        }
        long main() {
            long buf[64];
            for (long i = 0; i < 64; i++) buf[i] = i * 7;
            return work(buf, 64) % 256;
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
    link(&[o1, o2], &LinkOptions::executable("bench")).unwrap()
}

fn bench_decode(c: &mut Criterion) {
    // A long instruction stream round-tripped through the encoder.
    let mut bytes = Vec::new();
    for i in 0..10_000u64 {
        Instr::AluRi {
            op: janitizer_isa::AluOp::Add,
            rd: Reg::from_index((i % 14) as usize),
            imm: i as i32,
        }
        .encode(&mut bytes);
        Instr::Ld {
            size: janitizer_isa::MemSize::B8,
            rd: Reg::R1,
            base: Reg::R2,
            disp: (i % 256) as i32,
        }
        .encode(&mut bytes);
    }
    let mut g = c.benchmark_group("isa");
    g.throughput(Throughput::Elements(20_000));
    g.bench_function("decode_stream", |b| {
        b.iter(|| {
            let mut off = 0;
            let mut n = 0u64;
            while off < bytes.len() {
                let (_, next) = decode(&bytes, off).unwrap();
                off = next;
                n += 1;
            }
            n
        })
    });
    g.finish();
}

fn bench_toolchain(c: &mut Criterion) {
    let src = include_str!("../src/lib.rs"); // any text; compile uses its own source below
    let _ = src;
    let mini = "long fib(long n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }\
                long main() { return fib(20) % 256; }";
    let mut g = c.benchmark_group("toolchain");
    g.bench_function("minic_compile", |b| {
        b.iter(|| compile(mini, &CompileOptions::default()).unwrap())
    });
    let asm_text = compile(mini, &CompileOptions::default()).unwrap();
    g.bench_function("assemble", |b| {
        b.iter(|| assemble("x.s", &asm_text, &AsmOptions::default()).unwrap())
    });
    let obj = assemble("x.s", &asm_text, &AsmOptions::default()).unwrap();
    g.bench_function("link", |b| {
        b.iter_batched(
            || vec![obj.clone()],
            |objs| {
                let mut o = LinkOptions::executable("x");
                o.entry = "main".into();
                link(&objs, &o).unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_static_analysis(c: &mut Criterion) {
    let image = test_image();
    let mut g = c.benchmark_group("static_analysis");
    g.bench_function("analyze_module", |b| {
        b.iter(|| janitizer_analysis::analyze_module(&image))
    });
    let cfg = janitizer_analysis::analyze_module(&image);
    g.bench_function("liveness", |b| {
        b.iter(|| janitizer_analysis::compute_liveness(&cfg))
    });
    g.bench_function("jasan_static_pass", |b| {
        b.iter(|| analyze_statically(&image, &Jasan::hybrid()))
    });
    g.finish();
}

fn bench_rule_tables(c: &mut Criterion) {
    let image = test_image();
    let file = analyze_statically(&image, &Jasan::hybrid());
    let bytes = file.to_bytes();
    let mut g = c.benchmark_group("rules");
    g.bench_function("decode_rule_file", |b| {
        b.iter(|| RuleFile::from_bytes(&bytes).unwrap())
    });
    g.bench_function("build_table_pic_adjust", |b| {
        b.iter(|| RuleTable::from_file(&file, 0x1000_0000))
    });
    let table = RuleTable::from_file(&file, 0);
    let addrs: Vec<u64> = file.rules.iter().map(|r| r.bb_addr).collect();
    g.throughput(Throughput::Elements(addrs.len() as u64));
    g.bench_function("lookup_bb", |b| {
        b.iter(|| {
            addrs
                .iter()
                .filter(|a| table.lookup_bb(**a).is_some())
                .count()
        })
    });
    g.finish();
}

fn bench_execution(c: &mut Criterion) {
    let image = test_image();
    let mut store = ModuleStore::new();
    store.add(image);
    let load = || load_process(&store, "bench", &LoadOptions::default()).unwrap();
    let native = |mut p: Process| {
        p.run_native(10_000_000);
        p
    };
    let null_client = |mut p: Process| {
        Engine::new(EngineOptions::default()).run(&mut p, &mut NullTool, 10_000_000);
        p
    };
    let insns = native(load()).insns;
    assert_eq!(
        null_client(load()).insns,
        insns,
        "both run the same guest code"
    );
    let mut g = c.benchmark_group("execution");
    g.sample_size(20);
    g.bench_function("hybrid_jasan", |b| {
        b.iter(|| run_hybrid(&store, "bench", Jasan::hybrid(), &HybridOptions::default()).unwrap())
    });
    // Guest instructions per second from here on: 1e9 divided by it is
    // the host ns per guest instruction of each loop.
    g.throughput(Throughput::Elements(insns));
    g.bench_function("native_interp", |b| {
        b.iter_batched(load, native, BatchSize::SmallInput)
    });
    g.bench_function("null_client", |b| {
        b.iter_batched(load, null_client, BatchSize::SmallInput)
    });
    g.finish();
}

fn bench_shadow(c: &mut Criterion) {
    let image = test_image();
    let mut store = ModuleStore::new();
    store.add(image);
    let mut p = load_process(&store, "bench", &LoadOptions::default()).unwrap();
    janitizer_jasan::map_shadow(&mut p.mem).unwrap();
    janitizer_jasan::poison_range(&mut p, 0x40_0000, 64, janitizer_jasan::POISON_HEAP_REDZONE);
    let mut g = c.benchmark_group("shadow");
    g.throughput(Throughput::Elements(1));
    g.bench_function("check_clean", |b| {
        b.iter(|| janitizer_jasan::check_access(&mut p, 0x41_0000, 8))
    });
    g.bench_function("check_poisoned", |b| {
        b.iter(|| janitizer_jasan::check_access(&mut p, 0x40_0000, 8))
    });
    // Module, heap and stack addresses in turn: each check reads a
    // different shadow region than the last, so region lookup is timed.
    let mixed = [
        0x41_0000,
        HEAP_BASE + 0x100,
        STACK_BASE + STACK_SIZE - 0x100,
    ];
    let mut next = 0;
    g.bench_function("check_mixed_regions", |b| {
        b.iter(|| {
            next = (next + 1) % mixed.len();
            janitizer_jasan::check_access(&mut p, mixed[next], 8)
        })
    });
    g.finish();
}

/// A tool placing JASan's dynamic-fallback check (a typed Plain check)
/// before every memory access.
struct FallbackChecks(Jasan);

impl Tool for FallbackChecks {
    fn name(&self) -> &str {
        "jasan-fallback"
    }
    fn on_start(&mut self, proc: &mut Process) {
        self.0.on_start(proc);
    }
    fn instrument_block(&mut self, proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
        self.0.instrument_dynamic(proc, block)
    }
}

/// Host cost of one executed shadow check: a loop whose block holds
/// `CHECKS` loads over clean shadow, run under the null client and with
/// a check before every load. Prints ns per check (the null run
/// subtracted, best of several alternating runs each) next to the two
/// timed runs.
fn bench_jasan_check(c: &mut Criterion) {
    const CHECKS: u64 = 32;
    const LAPS: u64 = 20_000;
    let loads: String = (0..CHECKS)
        .map(|k| format!(" ld8 r3, [r8+{}]\n", k * 8))
        .collect();
    let src = format!(
        ".section text\n.global _start\n_start:\n la r8, buf\n mov r2, 0\n\
         loop:\n{loads} add r2, 1\n cmp r2, {LAPS}\n jne loop\n mov r0, 0\n ret\n\
         .section data\nbuf: .space {}\n",
        CHECKS * 8
    );
    let obj = assemble("checks.s", &src, &AsmOptions::default()).unwrap();
    let mut store = ModuleStore::new();
    store.add(link(&[obj], &LinkOptions::executable("checks")).unwrap());
    let run = |tool: &mut dyn Tool| {
        let mut p = load_process(&store, "checks", &LoadOptions::default()).unwrap();
        let out = Engine::new(EngineOptions::default()).run(&mut p, tool, u64::MAX);
        assert_eq!(out.code(), Some(0), "{out:?}");
    };
    let null = || run(&mut NullTool);
    let checked = || run(&mut FallbackChecks(Jasan::hybrid()));
    let time = |f: &dyn Fn()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    // Alternate the two runs so host noise hits both alike.
    let (mut best_null, mut best_checked) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..9 {
        best_null = best_null.min(time(&null));
        best_checked = best_checked.min(time(&checked));
    }
    let checks = CHECKS * LAPS;
    let ns = (best_checked - best_null) * 1e9 / checks as f64;
    println!(
        "shadow/jasan_check: {ns:.1} ns per check ({checks} typed Plain checks, clean shadow)"
    );
    let mut g = c.benchmark_group("shadow");
    g.sample_size(10);
    g.throughput(Throughput::Elements(checks));
    g.bench_function("jasan_check", |b| b.iter(checked));
    g.bench_function("jasan_check_null_client", |b| b.iter(null));
    g.finish();
}

criterion_group!(
    components,
    bench_decode,
    bench_toolchain,
    bench_static_analysis,
    bench_rule_tables,
    bench_execution,
    bench_shadow,
    bench_jasan_check
);
criterion_main!(components);
