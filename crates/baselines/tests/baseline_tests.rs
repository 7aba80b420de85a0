//! Baseline comparator tests: each baseline's characteristic strengths
//! and weaknesses versus the Janitizer tools.

use janitizer_asm::{assemble, AsmOptions};
use janitizer_baselines::*;
use janitizer_core::{run_hybrid, run_native, HybridOptions, RunOutcome};
use janitizer_jasan::Jasan;
use janitizer_jcfi::Jcfi;
use janitizer_link::{link, LinkOptions};
use janitizer_minic::{compile, CompileOptions};
use janitizer_vm::{LoadOptions, ModuleStore, MINIMAL_LD_SO};

fn build_ld_so() -> janitizer_obj::Image {
    let o = assemble("ld.s", MINIMAL_LD_SO, &AsmOptions { pic: true }).unwrap();
    link(&[o], &LinkOptions::shared_object("ld.so")).unwrap()
}

fn c_store(src: &str, copts: &CompileOptions, pie: bool) -> ModuleStore {
    let asm = compile(src, copts).unwrap();
    let obj = assemble("prog.s", &asm, &AsmOptions { pic: pie }).unwrap();
    let opts = if pie {
        LinkOptions::pie("prog")
    } else {
        LinkOptions::executable("prog")
    };
    let mut store = ModuleStore::new();
    store.add(link(&[obj], &opts).unwrap());
    store.add(build_ld_so());
    store.add(janitizer_jasan::runtime_module());
    store.add(memcheck_runtime());
    store
}

fn emit_start() -> CompileOptions {
    CompileOptions {
        emit_start: true,
        ..CompileOptions::default()
    }
}

fn memcheck_opts() -> HybridOptions {
    HybridOptions {
        dynamic_only: true,
        load: LoadOptions {
            preload: vec![MEMCHECK_RT.into()],
            ..LoadOptions::default()
        },
        engine: janitizer_core::EngineOptions {
            costs: memcheck_costs(),
            ..Default::default()
        },
        ..HybridOptions::default()
    }
}

fn jasan_opts() -> HybridOptions {
    HybridOptions {
        load: LoadOptions {
            preload: vec![janitizer_jasan::RT_MODULE.into()],
            ..LoadOptions::default()
        },
        ..HybridOptions::default()
    }
}

#[test]
fn memcheck_detects_wide_heap_overflow() {
    let src = "long main() { long p = malloc(16); return *(p + 16); }";
    let store = c_store(src, &emit_start(), false);
    let run = run_hybrid(&store, "prog", Memcheck::new(), &memcheck_opts()).unwrap();
    assert!(
        matches!(&run.outcome, RunOutcome::Violation(r) if r.kind.as_str() == "heap-buffer-overflow"),
        "{:?}",
        run.outcome
    );
}

#[test]
fn memcheck_misses_overflow_beyond_its_redzone() {
    // Offset +40 past a 16-byte object: with Memcheck's 16-byte redzones
    // the access lands in the *valid data* of the next allocation (a
    // missed overflow); JASan's 32-byte redzones still cover it.
    let src = "long main() {\
                 long p = malloc(16);\
                 long q = malloc(16);\
                 char *c = p;\
                 c[56] = 1;\
                 return q != 0;\
               }";
    let store = c_store(src, &emit_start(), false);
    let mc = run_hybrid(&store, "prog", Memcheck::new(), &memcheck_opts()).unwrap();
    assert!(
        matches!(mc.outcome, RunOutcome::Exited(_)),
        "memcheck misses: {:?}",
        mc.outcome
    );
    let ja = run_hybrid(&store, "prog", Jasan::hybrid(), &jasan_opts()).unwrap();
    assert!(
        matches!(&ja.outcome, RunOutcome::Violation(_)),
        "jasan catches: {:?}",
        ja.outcome
    );
}

#[test]
fn memcheck_misses_heap_to_stack_overflow() {
    // A heap pointer walking onto the stack: Valgrind does not track
    // stack addressability.
    let src = "long smash(long *p, long d) { p[d] = 7; return 0; }\
               long main() { long x = 1; long p = malloc(8); smash(p, 0); return x; }";
    // Direct heap-to-stack reach is hard to construct portably; instead,
    // write *to a stack address through an attacker-controlled pointer*.
    let src2 = "long main() {\
                  long x = 5;\
                  long p = &x;\
                  *(p + 0) = 9;\
                  return x;\
                }";
    let _ = src;
    let store = c_store(src2, &emit_start(), false);
    let run = run_hybrid(&store, "prog", Memcheck::new(), &memcheck_opts()).unwrap();
    assert_eq!(
        run.outcome.code(),
        Some(9),
        "stack accesses are never flagged"
    );
}

#[test]
fn memcheck_is_much_slower_than_jasan() {
    let src = "long main() {\
                 long p = malloc(400);\
                 long s = 0;\
                 for (long r = 0; r < 30; r++)\
                   for (long i = 0; i < 50; i++) { *(p + i * 8) = i; s += *(p + i * 8); }\
                 return s % 100;\
               }";
    let store = c_store(src, &emit_start(), false);
    let (_, nproc) = run_native(&store, "prog", &LoadOptions::default(), 0).unwrap();
    let mc = run_hybrid(&store, "prog", Memcheck::new(), &memcheck_opts()).unwrap();
    let ja = run_hybrid(&store, "prog", Jasan::hybrid(), &jasan_opts()).unwrap();
    assert_eq!(mc.outcome.code(), ja.outcome.code());
    let mc_slow = mc.cycles as f64 / nproc.cycles as f64;
    let ja_slow = ja.cycles as f64 / nproc.cycles as f64;
    assert!(
        mc_slow > 2.0 * ja_slow,
        "memcheck {mc_slow:.2}x vs jasan {ja_slow:.2}x"
    );
}

#[test]
fn retrowrite_requires_pic() {
    let src = "long main() { return 1; }";
    let nonpic = c_store(src, &emit_start(), false);
    let img = nonpic.get("prog").unwrap();
    assert!(matches!(
        retrowrite_applicable(&[&img]),
        Err(RetrowriteError::NotPic(_))
    ));
    let pic = c_store(src, &emit_start(), true);
    let img = pic.get("prog").unwrap();
    assert!(retrowrite_applicable(&[&img]).is_ok());
}

#[test]
fn retrowrite_rejects_data_in_text() {
    let copts = CompileOptions {
        emit_start: true,
        tables_in_text: true,
        ..CompileOptions::default()
    };
    let src = "long f(long x) { switch (x) {\
                 case 0: return 5; case 1: return 6; case 2: return 7;\
                 case 3: return 8; case 4: return 9; default: return 1; } }\
               long main() { return f(3); }";
    let store = c_store(src, &copts, true);
    let img = store.get("prog").unwrap();
    assert!(matches!(
        retrowrite_applicable(&[&img]),
        Err(RetrowriteError::ReassemblyUnsound(_))
    ));
    assert!(!reassembly_sound(&img));
}

#[test]
fn retrowrite_fast_but_blind_to_jit_code() {
    // JIT code writes through a pointer; RetroWrite's static rewriting
    // never sees it, so a JIT-resident overflow goes undetected, while
    // JASan's dynamic fallback catches it.
    let src = ".section text\n.global _start\n_start:\n\
         mov r0, 3\n mov r1, 4096\n mov r2, 1\n syscall\n\
         mov r8, r0\n\
         ; generated code: st8 [r1], r2 ; ret   (r1 points into redzone)\n\
         mov r9, 0x27\n st1 [r8], r9\n\
         mov r9, 0x21\n st1 [r8+1], r9\n\
         mov r9, 0\n st4 [r8+2], r9\n\
         mov r9, 0x6c\n st1 [r8+6], r9\n\
         ; allocate and aim one past the object\n\
         mov r0, 16\n call malloc\n add r0, 16\n mov r1, r0\n\
         call r8\n mov r0, 0\n ret\n";
    let obj = assemble("jit.s", src, &AsmOptions { pic: true }).unwrap();
    let mut store = ModuleStore::new();
    store.add(
        link(
            &[obj],
            &LinkOptions::pie("prog").needs(janitizer_jasan::RT_MODULE),
        )
        .unwrap(),
    );
    store.add(build_ld_so());
    store.add(janitizer_jasan::runtime_module());

    let rw_opts = HybridOptions {
        load: LoadOptions::default(),
        engine: janitizer_core::EngineOptions {
            costs: static_rewriter_costs(),
            ..Default::default()
        },
        ..HybridOptions::default()
    };
    let rw = run_hybrid(&store, "prog", Retrowrite::new(), &rw_opts).unwrap();
    assert_eq!(
        rw.outcome.code(),
        Some(0),
        "retrowrite misses the JIT overflow: {:?}",
        rw.outcome
    );

    let ja = run_hybrid(&store, "prog", Jasan::hybrid(), &HybridOptions::default()).unwrap();
    assert!(
        matches!(&ja.outcome, RunOutcome::Violation(_)),
        "jasan's fallback catches it: {:?}",
        ja.outcome
    );
}

#[test]
fn bincfi_allows_return_to_any_call_site() {
    // Smash the return address to point at *another* call-preceded
    // address: BinCFI passes, JCFI's shadow stack rejects.
    let src = ".section text\n.global _start\n_start:\n\
               call victim\n mov r0, 1\n ret\n\
               other:\n call victim2\n mov r0, 33\n ret\n\
               victim:\n la r8, other\n add r8, 5\n st8 [sp], r8\n nop\n ret\n\
               victim2:\n ret\n";
    let obj = assemble("t.s", src, &AsmOptions::default()).unwrap();
    let mut store = ModuleStore::new();
    store.add(link(&[obj], &LinkOptions::executable("prog")).unwrap());

    let bincfi_opts = HybridOptions {
        engine: janitizer_core::EngineOptions {
            costs: static_rewriter_costs(),
            ..Default::default()
        },
        ..HybridOptions::default()
    };
    let bc = run_hybrid(
        &store,
        "prog",
        CfiBaseline::new(CfiPolicy::BinCfi),
        &bincfi_opts,
    )
    .unwrap();
    assert_eq!(
        bc.outcome.code(),
        Some(33),
        "bincfi's weak return policy admits the diversion: {:?}",
        bc.outcome
    );
    let jc = run_hybrid(&store, "prog", Jcfi::hybrid(), &HybridOptions::default()).unwrap();
    assert!(
        matches!(&jc.outcome, RunOutcome::Violation(r) if r.kind.as_str() == "cfi-return-violation"),
        "{:?}",
        jc.outcome
    );
}

#[test]
fn lockdown_strong_false_positive_on_stack_callback() {
    // The qsort-comparator pattern: a non-exported function pointer
    // passed cross-module. Lockdown (S) flags it; Lockdown (W) and JCFI
    // accept.
    let lib = {
        let o = assemble(
            "lib.s",
            ".section text\n.global apply\napply:\n mov r7, r0\n mov r0, r1\n call r7\n ret\n",
            &AsmOptions { pic: true },
        )
        .unwrap();
        link(&[o], &LinkOptions::shared_object("libapply.so")).unwrap()
    };
    let exe_src = "static long local_cb(long x) { return x * 3; }\
                   long cbtab[] = {&local_cb};\
                   long main() { long f = cbtab[0]; return apply(f, 7); }";
    let exe = {
        let asm = compile(exe_src, &emit_start()).unwrap();
        let o = assemble("e.s", &asm, &AsmOptions::default()).unwrap();
        link(&[o], &LinkOptions::executable("prog").needs("libapply.so")).unwrap()
    };
    let mut store = ModuleStore::new();
    store.add(exe);
    store.add(lib);
    store.add(build_ld_so());

    let ld_opts = HybridOptions {
        dynamic_only: true,
        engine: janitizer_core::EngineOptions {
            costs: lockdown_costs(),
            ..Default::default()
        },
        ..HybridOptions::default()
    };
    let strong = run_hybrid(
        &store,
        "prog",
        CfiBaseline::new(CfiPolicy::LockdownStrong),
        &ld_opts,
    )
    .unwrap();
    assert!(
        matches!(&strong.outcome, RunOutcome::Violation(r) if r.kind.as_str() == "cfi-icall-violation"),
        "Lockdown (S) false positive expected: {:?}",
        strong.outcome
    );
    let weak = run_hybrid(
        &store,
        "prog",
        CfiBaseline::new(CfiPolicy::LockdownWeak),
        &ld_opts,
    )
    .unwrap();
    assert_eq!(weak.outcome.code(), Some(21), "{:?}", weak.outcome);
    let jcfi = run_hybrid(&store, "prog", Jcfi::hybrid(), &HybridOptions::default()).unwrap();
    assert_eq!(jcfi.outcome.code(), Some(21), "{:?}", jcfi.outcome);
}

#[test]
fn lockdown_shadow_stack_catches_return_smash() {
    let src = ".section text\n.global _start\n_start:\n\
               call victim\n mov r0, 1\n ret\n\
               victim:\n la r8, evil\n st8 [sp], r8\n nop\n ret\n\
               evil:\n mov r0, 66\n ret\n";
    let obj = assemble("t.s", src, &AsmOptions::default()).unwrap();
    let mut store = ModuleStore::new();
    store.add(link(&[obj], &LinkOptions::executable("prog")).unwrap());
    let ld_opts = HybridOptions {
        dynamic_only: true,
        engine: janitizer_core::EngineOptions {
            costs: lockdown_costs(),
            ..Default::default()
        },
        ..HybridOptions::default()
    };
    let run = run_hybrid(
        &store,
        "prog",
        CfiBaseline::new(CfiPolicy::LockdownStrong),
        &ld_opts,
    )
    .unwrap();
    assert!(
        matches!(&run.outcome, RunOutcome::Violation(r) if r.kind.as_str() == "cfi-return-violation"),
        "{:?}",
        run.outcome
    );
}

#[test]
fn air_ordering_jcfi_above_bincfi() {
    // A program of realistic shape: many functions and call sites, so
    // BinCFI's any-call-preceded return policy leaves a large target set
    // while JCFI's shadow stack leaves one.
    let mut src = String::from(
        "long inc(long x) { return x + 1; }\
         long ops[] = {&inc};\
         long f(long x) { switch (x) { case 0: return 1; case 1: return 2; case 2: return 3; case 3: return 4; case 4: return 5; default: return 0; } }",
    );
    for i in 0..25 {
        src.push_str(&format!(
            "long w{i}(long x) {{ return f(x) + inc(x) + f(x + 1) + inc(x + 2); }}"
        ));
    }
    let mut main_body = String::from("long main() { long g = ops[0]; long s = 0;");
    for i in 0..25 {
        main_body.push_str(&format!("s += w{i}(s % 5);"));
    }
    main_body.push_str("return g(s % 50); }");
    src.push_str(&main_body);
    let store = c_store(&src, &emit_start(), false);
    let image = store.get("prog").unwrap();
    let jcfi_air = janitizer_jcfi::static_air(&[&image]);
    let bincfi_air = bincfi_static_air(&[&image]);
    assert!(
        jcfi_air > bincfi_air,
        "jcfi {jcfi_air:.2} vs bincfi {bincfi_air:.2}"
    );
}

#[test]
fn bincfi_rejects_wild_forward_target() {
    let src = ".section text\n.global _start\n_start:\n\
               la r8, _start\n add r8, 3\n call r8\n ret\n";
    let obj = assemble("t.s", src, &AsmOptions::default()).unwrap();
    let mut store = ModuleStore::new();
    store.add(link(&[obj], &LinkOptions::executable("prog")).unwrap());
    let opts = HybridOptions {
        engine: janitizer_core::EngineOptions {
            costs: static_rewriter_costs(),
            ..Default::default()
        },
        ..HybridOptions::default()
    };
    let run = run_hybrid(&store, "prog", CfiBaseline::new(CfiPolicy::BinCfi), &opts).unwrap();
    assert!(
        matches!(&run.outcome, RunOutcome::Violation(_)),
        "not a scanned constant: {:?}",
        run.outcome
    );
}
