//! Component micro-benchmarks: the building blocks whose costs the
//! hybrid design trades against each other — decoding, static analysis,
//! rule-table construction and lookup, shadow checks, translation and
//! dispatch.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use janitizer_asm::{assemble, AsmOptions};
use janitizer_core::{analyze_statically, run_hybrid, HybridOptions};
use janitizer_isa::{decode, Instr, Reg};
use janitizer_jasan::Jasan;
use janitizer_link::{link, LinkOptions};
use janitizer_minic::{compile, CompileOptions};
use janitizer_rules::{RuleFile, RuleTable};
use janitizer_vm::{load_process, LoadOptions, ModuleStore, HEAP_BASE, STACK_BASE, STACK_SIZE};

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
    let mut g = c.benchmark_group("execution");
    g.sample_size(20);
    g.bench_function("native_interp", |b| {
        b.iter_batched(
            || load_process(&store, "bench", &LoadOptions::default()).unwrap(),
            |mut p| p.run_native(10_000_000),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("hybrid_jasan", |b| {
        b.iter(|| {
            run_hybrid(&store, "bench", Jasan::hybrid(), &HybridOptions::default()).unwrap()
        })
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

criterion_group!(
    components,
    bench_decode,
    bench_toolchain,
    bench_static_analysis,
    bench_rule_tables,
    bench_execution,
    bench_shadow
);
criterion_main!(components);
