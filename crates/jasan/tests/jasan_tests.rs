//! End-to-end JASan tests: MiniC programs, the preloaded redzone
//! allocator, canary poisoning, and the liveness soundness experiments.

use janitizer_asm::{assemble, AsmOptions};
use janitizer_core::{run_hybrid, run_native, HybridOptions, RunOutcome};
use janitizer_jasan::{Jasan, JasanOptions, RT_MODULE};
use janitizer_link::{link, LinkOptions};
use janitizer_minic::{compile, CanaryMode, CompileOptions};
use janitizer_vm::{LoadOptions, ModuleStore, MINIMAL_LD_SO};

/// Builds a store with the program, a minimal libc layer, ld.so and the
/// JASan runtime.
fn store_for(src: &str, copts: &CompileOptions) -> ModuleStore {
    let mut store = ModuleStore::new();
    let asm = compile(src, copts).expect("compile");
    let obj = assemble("prog.s", &asm, &AsmOptions::default()).expect("asm");
    let crt = assemble(
        "crt.s",
        ".section text\n.global __stack_chk_fail\n__stack_chk_fail:\n\
         mov r0, 12\n la r1, msg\n mov r2, 23\n syscall\n\
         .section rodata\nmsg: .ascii \"stack smashing detected\"\n",
        &AsmOptions::default(),
    )
    .unwrap();
    store.add(
        link(
            &[obj, crt],
            &LinkOptions::executable("prog").needs("libjc0.so"),
        )
        .unwrap(),
    );
    // A tiny libc providing plain malloc/free (used in native runs where
    // the sanitizer runtime is not preloaded).
    let libc_src = "long malloc(long n) { return __sys_sbrk2((n + 7) / 8 * 8); } \
                    long free(long p) { return 0; }";
    let libc_c = compile(libc_src, &CompileOptions::default()).unwrap();
    let libc_o = assemble("libc.c.s", &libc_c, &AsmOptions { pic: true }).unwrap();
    let shim = assemble(
        "shim.s",
        ".section text\n.global __sys_sbrk2\n__sys_sbrk2:\n mov r1, r0\n mov r0, 2\n syscall\n ret\n",
        &AsmOptions { pic: true },
    )
    .unwrap();
    store.add(link(&[libc_o, shim], &LinkOptions::shared_object("libjc0.so")).unwrap());
    let ld = assemble("ld.s", MINIMAL_LD_SO, &AsmOptions { pic: true }).unwrap();
    store.add(link(&[ld], &LinkOptions::shared_object("ld.so")).unwrap());
    store.add(janitizer_jasan::runtime_module());
    store
}

fn sanitized_opts() -> HybridOptions {
    HybridOptions {
        load: LoadOptions {
            preload: vec![RT_MODULE.into()],
            ..LoadOptions::default()
        },
        ..HybridOptions::default()
    }
}

fn emit_start() -> CompileOptions {
    CompileOptions {
        emit_start: true,
        ..CompileOptions::default()
    }
}

#[test]
fn clean_heap_program_passes_with_same_result() {
    let src = "long main() {\
                 long p = malloc(80);\
                 for (long i = 0; i < 10; i++) *(p + i * 8) = i * i;\
                 long s = 0;\
                 for (long i = 0; i < 10; i++) s += *(p + i * 8);\
                 free(p);\
                 return s;\
               }";
    let store = store_for(src, &emit_start());
    let (native, _) = run_native(&store, "prog", &LoadOptions::default(), 0).unwrap();
    assert_eq!(native.code(), Some(285));
    let run = run_hybrid(&store, "prog", Jasan::hybrid(), &sanitized_opts()).unwrap();
    assert_eq!(run.outcome.code(), Some(285), "{:?}", run.outcome);
    assert!(run.engine.reports.is_empty(), "no false positives");
}

#[test]
fn heap_overflow_write_detected() {
    let src = "long main() {\
                 long p = malloc(40);\
                 for (long i = 0; i <= 5; i++) *(p + i * 8) = i;\
                 return 0;\
               }"; // i == 5 writes byte 40..48: one past the object
    let store = store_for(src, &emit_start());
    let run = run_hybrid(&store, "prog", Jasan::hybrid(), &sanitized_opts()).unwrap();
    let RunOutcome::Violation(r) = &run.outcome else {
        panic!("expected violation, got {:?}", run.outcome);
    };
    assert_eq!(r.kind.as_str(), "heap-buffer-overflow");
    assert!(r.details.contains("WRITE"));
}

#[test]
fn heap_overflow_read_detected() {
    let src = "long main() { long p = malloc(16); return *(p + 16); }";
    let store = store_for(src, &emit_start());
    let run = run_hybrid(&store, "prog", Jasan::hybrid(), &sanitized_opts()).unwrap();
    let RunOutcome::Violation(r) = &run.outcome else {
        panic!("expected violation, got {:?}", run.outcome);
    };
    assert_eq!(r.kind.as_str(), "heap-buffer-overflow");
    assert!(r.details.contains("READ"));
}

#[test]
fn heap_underflow_detected() {
    let src = "long main() { long p = malloc(16); return *(p - 8); }";
    let store = store_for(src, &emit_start());
    let run = run_hybrid(&store, "prog", Jasan::hybrid(), &sanitized_opts()).unwrap();
    assert!(
        matches!(&run.outcome, RunOutcome::Violation(r) if r.kind.as_str() == "heap-buffer-overflow"),
        "{:?}",
        run.outcome
    );
}

#[test]
fn use_after_free_detected() {
    let src = "long main() {\
                 long p = malloc(32);\
                 *p = 7;\
                 free(p);\
                 return *p;\
               }";
    let store = store_for(src, &emit_start());
    let run = run_hybrid(&store, "prog", Jasan::hybrid(), &sanitized_opts()).unwrap();
    assert!(
        matches!(&run.outcome, RunOutcome::Violation(r) if r.kind.as_str() == "heap-use-after-free"),
        "{:?}",
        run.outcome
    );
}

#[test]
fn unaligned_partial_granule_tail_detected() {
    // 13-byte object: byte 13 is in the same granule but out of bounds.
    let src = "long main() { long p = malloc(13); char *c = p; return c[13]; }";
    let store = store_for(src, &emit_start());
    let run = run_hybrid(&store, "prog", Jasan::hybrid(), &sanitized_opts()).unwrap();
    assert!(
        matches!(&run.outcome, RunOutcome::Violation(_)),
        "{:?}",
        run.outcome
    );
    // In-bounds tail byte is fine.
    let src_ok = "long main() { long p = malloc(13); char *c = p; return c[12]; }";
    let store = store_for(src_ok, &emit_start());
    let run = run_hybrid(&store, "prog", Jasan::hybrid(), &sanitized_opts()).unwrap();
    assert!(
        matches!(run.outcome, RunOutcome::Exited(_)),
        "{:?}",
        run.outcome
    );
}

#[test]
fn stack_canary_overflow_detected_at_access() {
    // Writing past a local array clobbers the canary slot; JASan reports
    // the *write* (stack-buffer-overflow), before the epilogue's own
    // canary check would fire.
    let copts = CompileOptions {
        emit_start: true,
        canary: CanaryMode::Arrays,
        ..CompileOptions::default()
    };
    let src = "long main() {\
                 char buf[16];\
                 for (long i = 0; i < 24; i++) buf[i] = 65;\
                 return buf[0];\
               }";
    let store = store_for(src, &copts);
    let run = run_hybrid(&store, "prog", Jasan::hybrid(), &sanitized_opts()).unwrap();
    let RunOutcome::Violation(r) = &run.outcome else {
        panic!("expected stack violation, got {:?}", run.outcome);
    };
    assert_eq!(r.kind.as_str(), "stack-buffer-overflow");
}

#[test]
fn clean_canary_function_has_no_false_positive() {
    let copts = CompileOptions {
        emit_start: true,
        canary: CanaryMode::All,
        ..CompileOptions::default()
    };
    let src =
        "long fill(long *a, long n) { for (long i = 0; i < n; i++) a[i] = i; return a[n-1]; }\
               long main() { long v[8]; return fill(v, 8) + fill(v, 8); }";
    let store = store_for(src, &copts);
    let run = run_hybrid(&store, "prog", Jasan::hybrid(), &sanitized_opts()).unwrap();
    assert_eq!(run.outcome.code(), Some(14), "{:?}", run.outcome);
    assert!(run.engine.reports.is_empty());
}

#[test]
fn dynamic_only_detects_the_same_heap_bug() {
    let src = "long main() { long p = malloc(24); return *(p + 24); }";
    let store = store_for(src, &emit_start());
    let opts = HybridOptions {
        dynamic_only: true,
        ..sanitized_opts()
    };
    let run = run_hybrid(&store, "prog", Jasan::hybrid(), &opts).unwrap();
    assert!(
        matches!(&run.outcome, RunOutcome::Violation(r) if r.kind.as_str() == "heap-buffer-overflow"),
        "dyn-only coverage: {:?}",
        run.outcome
    );
}

#[test]
fn overhead_ordering_native_hybrid_dyn() {
    // A memory-heavy loop: native < hybrid-full <= hybrid-base < dyn-only.
    let src = "long main() {\
                 long p = malloc(800);\
                 long s = 0;\
                 for (long r = 0; r < 40; r++)\
                   for (long i = 0; i < 100; i++) { *(p + i * 8) = i; s += *(p + i * 8); }\
                 free(p); return s % 256;\
               }";
    let store = store_for(src, &emit_start());
    let (native, nproc) = run_native(&store, "prog", &LoadOptions::default(), 0).unwrap();
    let native_code = native.code().unwrap();

    let full = run_hybrid(&store, "prog", Jasan::hybrid(), &sanitized_opts()).unwrap();
    let base = run_hybrid(&store, "prog", Jasan::hybrid_base(), &sanitized_opts()).unwrap();
    let dynamic = run_hybrid(
        &store,
        "prog",
        Jasan::hybrid(),
        &HybridOptions {
            dynamic_only: true,
            ..sanitized_opts()
        },
    )
    .unwrap();

    for (name, run) in [("full", &full), ("base", &base), ("dyn", &dynamic)] {
        assert_eq!(
            run.outcome.code(),
            Some(native_code),
            "{name}: {:?}",
            run.outcome
        );
    }
    assert!(full.cycles > nproc.cycles);
    assert!(
        full.cycles < base.cycles,
        "liveness optimization helps: {} vs {}",
        full.cycles,
        base.cycles
    );
    assert!(
        base.cycles <= dynamic.cycles,
        "hybrid no worse than dyn-only: {} vs {}",
        base.cycles,
        dynamic.cycles
    );
}

#[test]
fn ipa_ra_hazard_breaks_without_interprocedural_fix() {
    // `leaf` contains a memory access, so JASan instruments inside it;
    // with ipa-ra codegen the caller keeps `acc` in a caller-saved
    // register across the call. Without the inter-procedural fix the
    // check's scratch selection clobbers it.
    let copts = CompileOptions {
        emit_start: true,
        ipa_ra: true,
        ..CompileOptions::default()
    };
    let src = "long cell = 2;\
               long leaf(long x) { return cell + x; }\
               long main() { long acc = 30; return acc + leaf(10); }";
    let store = store_for(src, &copts);
    let (native, _) = run_native(&store, "prog", &LoadOptions::default(), 0).unwrap();
    assert_eq!(native.code(), Some(42));

    // Broken configuration: intra-procedural liveness only.
    let broken = Jasan::new(JasanOptions {
        interprocedural_fix: false,
        ..JasanOptions::default()
    });
    let run_broken = run_hybrid(&store, "prog", broken, &sanitized_opts()).unwrap();
    assert_ne!(
        run_broken.outcome.code(),
        Some(42),
        "without the fix the caller's held register is clobbered"
    );

    // Fixed configuration.
    let run_fixed = run_hybrid(&store, "prog", Jasan::hybrid(), &sanitized_opts()).unwrap();
    assert_eq!(
        run_fixed.outcome.code(),
        Some(42),
        "{:?}",
        run_fixed.outcome
    );
}

#[test]
fn cached_checks_cut_invariant_loop_cost() {
    // A hot loop accumulating into a register-held global address -- the
    // shape -O2 compilers emit; the access address is loop-invariant, so
    // cached checks should beat uncached ones.
    let src = ".section text\n.global _start\n_start:\n\
               la r8, cell\n mov r2, 0\n\
               loop:\n ld8 r3, [r8]\n add r3, r2\n st8 [r8], r3\n add r2, 1\n cmp r2, 2000\n jne loop\n\
               ld8 r0, [r8]\n mod r0, 100\n ret\n\
               .section data\ncell: .quad 0\n";
    let obj = assemble("hot.s", src, &AsmOptions::default()).unwrap();
    let mut store = ModuleStore::new();
    store.add(link(&[obj], &LinkOptions::executable("prog")).unwrap());
    let opts = HybridOptions::default(); // no allocator needed
    let cached = run_hybrid(&store, "prog", Jasan::hybrid(), &opts).unwrap();
    let uncached = run_hybrid(
        &store,
        "prog",
        Jasan::new(JasanOptions {
            cached_checks: false,
            ..JasanOptions::default()
        }),
        &opts,
    )
    .unwrap();
    assert_eq!(cached.outcome.code(), uncached.outcome.code());
    assert!(matches!(cached.outcome, RunOutcome::Exited(_)));
    assert!(
        cached.cycles < uncached.cycles,
        "cached {} vs uncached {}",
        cached.cycles,
        uncached.cycles
    );
}

#[test]
fn runtime_module_is_not_instrumented() {
    let src = "long main() { long p = malloc(8); free(p); return 0; }";
    let store = store_for(src, &emit_start());
    let run = run_hybrid(&store, "prog", Jasan::hybrid(), &sanitized_opts()).unwrap();
    assert_eq!(run.outcome.code(), Some(0), "{:?}", run.outcome);
    // The allocator pokes poisoned shadow all the time; had it been
    // instrumented, its own redzone writes would self-report.
    assert!(run.engine.reports.is_empty());
}

/// Hand-written program with four adjacent same-base accesses (a
/// struct-field shape) behind a malloc'd pointer.
fn adjacent_access_store(object_size: i64, top_disp: i64) -> ModuleStore {
    let src = format!(
        ".section text\n.global _start\n_start:\n\
         mov r0, {object_size}\n call malloc\n mov r8, r0\n\
         mov r3, 7\n\
         st8 [r8], r3\n st8 [r8+8], r3\n st8 [r8+16], r3\n st8 [r8+{top_disp}], r3\n\
         ld8 r0, [r8]\n ld8 r1, [r8+8]\n add r0, r1\n ret\n"
    );
    let obj = assemble("adj.s", &src, &AsmOptions::default()).unwrap();
    let crt = assemble(
        "crt.s",
        ".section text\n.global __stack_chk_fail\n__stack_chk_fail:\n ret\n",
        &AsmOptions::default(),
    )
    .unwrap();
    let mut store = ModuleStore::new();
    store.add(
        link(
            &[obj, crt],
            &LinkOptions::executable("prog").needs("libjc0.so"),
        )
        .unwrap(),
    );
    let libc_src = "long malloc(long n) { return __sys_sbrk2((n + 7) / 8 * 8); } \
                    long free(long p) { return 0; }";
    let libc_c = compile(libc_src, &CompileOptions::default()).unwrap();
    let libc_o = assemble("libc.c.s", &libc_c, &AsmOptions { pic: true }).unwrap();
    let shim = assemble(
        "shim.s",
        ".section text\n.global __sys_sbrk2\n__sys_sbrk2:\n mov r1, r0\n mov r0, 2\n syscall\n ret\n",
        &AsmOptions { pic: true },
    )
    .unwrap();
    store.add(link(&[libc_o, shim], &LinkOptions::shared_object("libjc0.so")).unwrap());
    let ld = assemble("ld.s", MINIMAL_LD_SO, &AsmOptions { pic: true }).unwrap();
    store.add(link(&[ld], &LinkOptions::shared_object("ld.so")).unwrap());
    store.add(janitizer_jasan::runtime_module());
    store
}

fn jasan_with(f: impl FnOnce(&mut JasanOptions)) -> Jasan {
    let mut opts = JasanOptions::default();
    f(&mut opts);
    Jasan::new(opts)
}

#[test]
fn fused_group_still_reports_follower_violation() {
    // Adjacent same-base stores (the shape probe fusion used to group):
    // the last one lands one granule past the 24-byte object, and its
    // typed check reports the exact violation, the same report and
    // modeled cycles the callback-based checks produced.
    let store = adjacent_access_store(24, 24);
    let run = run_hybrid(&store, "prog", Jasan::hybrid(), &sanitized_opts()).unwrap();
    let expected = janitizer_core::Report {
        pc: 0x40_0065,
        kind: "heap-buffer-overflow".into(),
        details: "WRITE of size 8 at 0x80000038 (shadow 0xfa)".into(),
    };
    assert_eq!(run.outcome, RunOutcome::Violation(expected.clone()));
    assert_eq!(run.engine.reports, vec![expected]);
    assert_eq!(run.cycles, 27_928);
    assert_eq!(run.engine.probe_runs, 8);
    assert_eq!(run.engine.checks_fused, 0);
}

#[test]
fn hoisted_invariant_checks_cut_counted_loop_cost() {
    // Same shape as the cached-check test, but the loop is *counted*
    // (r2 += 1 bounded by a cmp), so the invariant access's check hoists
    // out entirely: zero per-iteration cost instead of the cached hit.
    let src = ".section text\n.global _start\n_start:\n\
               la r8, cell\n mov r2, 0\n\
               loop:\n ld8 r3, [r8]\n add r3, r2\n st8 [r8], r3\n add r2, 1\n cmp r2, 2000\n jne loop\n\
               ld8 r0, [r8]\n mod r0, 100\n ret\n\
               .section data\ncell: .quad 0\n";
    let obj = assemble("hot.s", src, &AsmOptions::default()).unwrap();
    let mut store = ModuleStore::new();
    store.add(link(&[obj], &LinkOptions::executable("prog")).unwrap());
    let opts = HybridOptions::default(); // no allocator needed
    let hoisted = run_hybrid(&store, "prog", Jasan::hybrid(), &opts).unwrap();
    let cached_only = run_hybrid(
        &store,
        "prog",
        jasan_with(|o| o.hoist_invariants = false),
        &opts,
    )
    .unwrap();
    assert_eq!(hoisted.outcome.code(), cached_only.outcome.code());
    assert!(matches!(hoisted.outcome, RunOutcome::Exited(_)));
    assert!(
        hoisted.cycles < cached_only.cycles,
        "hoisting beats per-iteration cached hits: {} vs {}",
        hoisted.cycles,
        cached_only.cycles
    );
    assert!(
        hoisted.engine.checks_hoisted > 0,
        "hoisted fast path engaged"
    );
    assert_eq!(cached_only.engine.checks_hoisted, 0);
    assert!(hoisted.engine.reports.is_empty());
}

#[test]
fn hoisted_check_still_reports_violations() {
    // The invariant address points one past the object (into the
    // redzone): the hoisted check's first (cold) execution runs the full
    // live check and reports exactly like the non-hoisted configuration.
    let src = ".section text\n.global _start\n_start:\n\
               mov r0, 16\n call malloc\n mov r8, r0\n add r8, 16\n\
               mov r2, 0\n\
               loop:\n ld8 r3, [r8]\n add r2, 1\n cmp r2, 100\n jne loop\n\
               mov r0, 0\n ret\n";
    let obj = assemble("uaf.s", src, &AsmOptions::default()).unwrap();
    let crt = assemble(
        "crt.s",
        ".section text\n.global __stack_chk_fail\n__stack_chk_fail:\n ret\n",
        &AsmOptions::default(),
    )
    .unwrap();
    let mut store = ModuleStore::new();
    store.add(
        link(
            &[obj, crt],
            &LinkOptions::executable("prog").needs("libjc0.so"),
        )
        .unwrap(),
    );
    let libc_src = "long malloc(long n) { return __sys_sbrk2((n + 7) / 8 * 8); } \
                    long free(long p) { return 0; }";
    let libc_c = compile(libc_src, &CompileOptions::default()).unwrap();
    let libc_o = assemble("libc.c.s", &libc_c, &AsmOptions { pic: true }).unwrap();
    let shim = assemble(
        "shim.s",
        ".section text\n.global __sys_sbrk2\n__sys_sbrk2:\n mov r1, r0\n mov r0, 2\n syscall\n ret\n",
        &AsmOptions { pic: true },
    )
    .unwrap();
    store.add(link(&[libc_o, shim], &LinkOptions::shared_object("libjc0.so")).unwrap());
    let ld = assemble("ld.s", MINIMAL_LD_SO, &AsmOptions { pic: true }).unwrap();
    store.add(link(&[ld], &LinkOptions::shared_object("ld.so")).unwrap());
    store.add(janitizer_jasan::runtime_module());

    let hoisted = run_hybrid(&store, "prog", Jasan::hybrid(), &sanitized_opts()).unwrap();
    let plain = run_hybrid(
        &store,
        "prog",
        jasan_with(|o| o.hoist_invariants = false),
        &sanitized_opts(),
    )
    .unwrap();
    let RunOutcome::Violation(rh) = &hoisted.outcome else {
        panic!("expected violation, got {:?}", hoisted.outcome);
    };
    let RunOutcome::Violation(rp) = &plain.outcome else {
        panic!("expected violation, got {:?}", plain.outcome);
    };
    assert_eq!(rh.kind.as_str(), "heap-buffer-overflow");
    assert_eq!(rh.kind, rp.kind);
    assert_eq!(rh.details, rp.details);
}

#[test]
fn exit_code_and_stdout_preserved_under_sanitizer() {
    let src = "long write_str(long p, long n);\
               long main() { return 11; }";
    // Avoid the unused extern; simpler program with stdout via syscalls is
    // covered elsewhere. Just check exit code passthrough here.
    let src = src.replace("long write_str(long p, long n);", "");
    let store = store_for(&src, &emit_start());
    let run = run_hybrid(&store, "prog", Jasan::hybrid(), &sanitized_opts()).unwrap();
    assert_eq!(run.outcome.code(), Some(11));
}
