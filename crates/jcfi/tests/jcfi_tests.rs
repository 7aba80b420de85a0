//! End-to-end JCFI tests: legal programs run unchanged, hijacks are
//! caught, the lazy-resolver special case works, and AIR behaves.

use janitizer_asm::{assemble, AsmOptions};
use janitizer_core::{run_hybrid, run_native, HybridOptions, RunOutcome};
use janitizer_jcfi::{static_air, CtiKind, Jcfi};
use janitizer_link::{link, LinkOptions};
use janitizer_minic::{compile, CompileOptions};
use janitizer_vm::{LoadOptions, ModuleStore, MINIMAL_LD_SO};

fn exe_store(src_asm: &str) -> ModuleStore {
    let o = assemble("t.s", src_asm, &AsmOptions::default()).unwrap();
    let mut store = ModuleStore::new();
    store.add(link(&[o], &LinkOptions::executable("t")).unwrap());
    store
}

fn c_store(src: &str) -> ModuleStore {
    let asm = compile(
        src,
        &CompileOptions {
            emit_start: true,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    exe_store(&asm)
}

#[test]
fn legal_function_pointer_calls_pass() {
    let src = "long inc(long x) { return x + 1; }\
               long dec(long x) { return x - 1; }\
               long ops[] = {&inc, &dec};\
               long main() {\
                 long s = 0;\
                 for (long i = 0; i < 2; i++) { long f = ops[i]; s += f(10); }\
                 return s;\
               }";
    let store = c_store(src);
    let run = run_hybrid(&store, "t", Jcfi::hybrid(), &HybridOptions::default()).unwrap();
    assert_eq!(run.outcome.code(), Some(20), "{:?}", run.outcome);
    assert!(run.engine.reports.is_empty(), "no CFI false positives");
}

#[test]
fn jump_tables_pass() {
    let src = "long f(long x) { switch (x) {\
                 case 0: return 5; case 1: return 6; case 2: return 7;\
                 case 3: return 8; case 4: return 9; default: return 1; } }\
               long main() { long s = 0; for (long i = 0; i < 7; i++) s += f(i); return s; }";
    let store = c_store(src);
    let run = run_hybrid(&store, "t", Jcfi::hybrid(), &HybridOptions::default()).unwrap();
    assert_eq!(
        run.outcome.code(),
        Some(5 + 6 + 7 + 8 + 9 + 1 + 1),
        "{:?}",
        run.outcome
    );
    assert!(run.engine.reports.is_empty());
}

#[test]
fn icall_to_function_body_rejected() {
    // Jump to the *middle* of a function: classic hijack target.
    let src = ".section text\n.global _start\n_start:\n\
               la r8, victim\n add r8, 3\n call r8\n ret\n\
               victim:\n nop\n nop\n mov r0, 9\n ret\n";
    let store = exe_store(src);
    let run = run_hybrid(&store, "t", Jcfi::hybrid(), &HybridOptions::default()).unwrap();
    let RunOutcome::Violation(r) = &run.outcome else {
        panic!("expected CFI violation, got {:?}", run.outcome);
    };
    assert_eq!(r.kind.as_str(), "cfi-icall-violation");
}

#[test]
fn icall_into_data_rejected() {
    let src = ".section text\n.global _start\n_start:\n\
               la r8, blob\n call r8\n ret\n\
               .section data\nblob: .quad 0x6c6c6c6c\n";
    let store = exe_store(src);
    let run = run_hybrid(&store, "t", Jcfi::hybrid(), &HybridOptions::default()).unwrap();
    assert!(
        matches!(&run.outcome, RunOutcome::Violation(r) if r.kind.as_str() == "cfi-icall-violation"),
        "{:?}",
        run.outcome
    );
}

#[test]
fn return_address_smash_rejected() {
    // Overwrite the saved return address on the stack, then ret.
    let src = ".section text\n.global _start\n_start:\n\
               call victim\n mov r0, 1\n ret\n\
               victim:\n la r8, evil\n st8 [sp], r8\n nop\n ret\n\
               evil:\n mov r0, 66\n ret\n";
    // NB: `st8 [sp], r8` right before `ret` would look like the resolver
    // idiom; the `nop` separates them so this is a plain smashed return.
    let store = exe_store(src);
    let run = run_hybrid(&store, "t", Jcfi::hybrid(), &HybridOptions::default()).unwrap();
    let RunOutcome::Violation(r) = &run.outcome else {
        panic!("expected return violation, got {:?}", run.outcome);
    };
    assert_eq!(r.kind.as_str(), "cfi-return-violation");
}

#[test]
fn forward_only_misses_return_smash() {
    let src = ".section text\n.global _start\n_start:\n\
               call victim\n mov r0, 1\n ret\n\
               victim:\n la r8, evil\n st8 [sp], r8\n nop\n ret\n\
               evil:\n mov r0, 66\n ret\n";
    let store = exe_store(src);
    let run = run_hybrid(&store, "t", Jcfi::forward_only(), &HybridOptions::default()).unwrap();
    assert_eq!(
        run.outcome.code(),
        Some(66),
        "without the shadow stack the smash succeeds: {:?}",
        run.outcome
    );
}

#[test]
fn lazy_binding_resolver_ret_is_special_cased() {
    // Cross-module call with lazy binding: the resolver's ret dispatches
    // to the resolved function. JCFI must not flag it.
    let lib = {
        let o = assemble(
            "lib.s",
            ".section text\n.global add_five\nadd_five:\n add r0, 5\n ret\n",
            &AsmOptions { pic: true },
        )
        .unwrap();
        link(&[o], &LinkOptions::shared_object("libfive.so")).unwrap()
    };
    let exe = {
        let o = assemble(
            "e.s",
            ".section text\n.global _start\n_start:\n mov r0, 10\n call add_five\n call add_five\n ret\n",
            &AsmOptions::default(),
        )
        .unwrap();
        link(&[o], &LinkOptions::executable("t").needs("libfive.so")).unwrap()
    };
    let ld = {
        let o = assemble("ld.s", MINIMAL_LD_SO, &AsmOptions { pic: true }).unwrap();
        link(&[o], &LinkOptions::shared_object("ld.so")).unwrap()
    };
    let mut store = ModuleStore::new();
    store.add(exe);
    store.add(lib);
    store.add(ld);
    let run = run_hybrid(&store, "t", Jcfi::hybrid(), &HybridOptions::default()).unwrap();
    assert_eq!(run.outcome.code(), Some(20), "{:?}", run.outcome);
    assert!(run.engine.reports.is_empty(), "resolver ret not flagged");
}

#[test]
fn cross_module_callback_is_allowed_via_address_taken_scan() {
    // A non-exported comparator passed to a library: Lockdown's strong
    // policy false-positives here; JCFI's address-taken scan admits it.
    let lib = {
        let o = assemble(
            "lib.s",
            ".section text\n.global apply\napply:\n ; apply(f, x) = f(x)\n mov r7, r0\n mov r0, r1\n call r7\n ret\n",
            &AsmOptions { pic: true },
        )
        .unwrap();
        link(&[o], &LinkOptions::shared_object("libapply.so")).unwrap()
    };
    // `local_cb` is static (not exported) but its address is taken into a
    // data table — the scan finds it.
    let exe_src = "static long local_cb(long x) { return x * 3; }\
                   long cbtab[] = {&local_cb};\
                   long main() { long f = cbtab[0]; return apply(f, 7); }";
    let exe = {
        let asm = compile(
            exe_src,
            &CompileOptions {
                emit_start: true,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let o = assemble("e.s", &asm, &AsmOptions::default()).unwrap();
        link(&[o], &LinkOptions::executable("t").needs("libapply.so")).unwrap()
    };
    let ld = {
        let o = assemble("ld.s", MINIMAL_LD_SO, &AsmOptions { pic: true }).unwrap();
        link(&[o], &LinkOptions::shared_object("ld.so")).unwrap()
    };
    let mut store = ModuleStore::new();
    store.add(exe);
    store.add(lib);
    store.add(ld);
    let run = run_hybrid(&store, "t", Jcfi::hybrid(), &HybridOptions::default()).unwrap();
    assert_eq!(run.outcome.code(), Some(21), "{:?}", run.outcome);
    assert!(
        run.engine.reports.is_empty(),
        "no FP on stack-passed callback"
    );
}

#[test]
fn dynamic_air_high_for_protected_program() {
    let src = "long inc(long x) { return x + 1; }\
               long ops[] = {&inc};\
               long main() { long f = ops[0]; return f(41); }";
    let store = c_store(src);
    let jcfi = Jcfi::hybrid();
    let air_handle = std::rc::Rc::clone(&jcfi.state);
    let run = run_hybrid(&store, "t", jcfi, &HybridOptions::default()).unwrap();
    assert_eq!(run.outcome.code(), Some(42));
    let st = air_handle.borrow();
    assert!(!st.sites.is_empty(), "sites were recorded");
    assert!(st.backward_ops > 0);
    // Return sites are precise: |T| = 1.
    assert!(st
        .sites
        .values()
        .filter(|s| s.kind == CtiKind::Ret)
        .all(|s| s.allowed == 1));
    // Every recorded target set is tiny relative to the code size.
    let s = st.total_code_bytes();
    assert!(st.sites.values().all(|site| site.allowed * 10 < s));
}

#[test]
fn dynamic_air_accessor() {
    let src = "long inc(long x) { return x + 1; }\
               long ops[] = {&inc};\
               long main() { long f = ops[0]; return f(41); }";
    let store = c_store(src);
    let jcfi = Jcfi::hybrid();
    let state = std::rc::Rc::clone(&jcfi.state);
    let run = run_hybrid(&store, "t", jcfi, &HybridOptions::default()).unwrap();
    assert_eq!(run.outcome.code(), Some(42));
    let air = state.borrow().dynamic_air();
    assert!(air > 95.0, "AIR should be high, got {air}");
}

#[test]
fn hybrid_cheaper_than_dynamic_only() {
    let src = "long inc(long x) { return x + 1; }\
               long ops[] = {&inc};\
               long main() {\
                 long s = 0;\
                 for (long i = 0; i < 500; i++) { long f = ops[0]; s += f(i); }\
                 return s % 100;\
               }";
    let store = c_store(src);
    let hybrid = run_hybrid(&store, "t", Jcfi::hybrid(), &HybridOptions::default()).unwrap();
    let dynamic = run_hybrid(
        &store,
        "t",
        Jcfi::hybrid(),
        &HybridOptions {
            dynamic_only: true,
            ..HybridOptions::default()
        },
    )
    .unwrap();
    assert_eq!(hybrid.outcome.code(), dynamic.outcome.code());
    assert!(
        hybrid.cycles < dynamic.cycles,
        "hybrid {} vs dyn {}",
        hybrid.cycles,
        dynamic.cycles
    );
    let (native, nproc) = run_native(&store, "t", &LoadOptions::default(), 0).unwrap();
    assert_eq!(native.code(), hybrid.outcome.code());
    assert!(hybrid.cycles > nproc.cycles);
}

#[test]
fn forward_only_is_cheaper_than_full() {
    let src = "long fib(long n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }\
               long main() { return fib(14); }";
    let store = c_store(src);
    let full = run_hybrid(&store, "t", Jcfi::hybrid(), &HybridOptions::default()).unwrap();
    let fwd = run_hybrid(&store, "t", Jcfi::forward_only(), &HybridOptions::default()).unwrap();
    assert_eq!(full.outcome.code(), fwd.outcome.code());
    assert!(
        fwd.cycles < full.cycles,
        "forward-only {} vs full {}",
        fwd.cycles,
        full.cycles
    );
}

#[test]
fn static_air_is_high() {
    let src = "long inc(long x) { return x + 1; }\
               long ops[] = {&inc};\
               long f(long x) { switch (x) { case 0: return 1; case 1: return 2; case 2: return 3; case 3: return 4; case 4: return 5; default: return 0; } }\
               long main() { long g = ops[0]; return g(f(2)); }";
    let store = c_store(src);
    let image = store.get("t").unwrap();
    let air = static_air(&[&image]);
    assert!(air > 97.0, "static AIR {air}");
    assert!(air <= 100.0);
}

#[test]
fn jit_code_is_tolerated_with_shadow_discipline() {
    // JIT region target: the forward check admits it; the generated ret
    // plays by shadow-stack rules (its push came from the call probe).
    let src = ".section text\n.global _start\n_start:\n\
         mov r0, 3\n mov r1, 4096\n mov r2, 1\n syscall\n\
         mov r8, r0\n\
         mov r9, 0x12\n st1 [r8], r9\n\
         mov r9, 0\n st1 [r8+1], r9\n\
         mov r9, 77\n st4 [r8+2], r9\n\
         mov r9, 0x6c\n st1 [r8+6], r9\n\
         call r8\n ret\n";
    let store = exe_store(src);
    let run = run_hybrid(&store, "t", Jcfi::hybrid(), &HybridOptions::default()).unwrap();
    assert_eq!(run.outcome.code(), Some(77), "{:?}", run.outcome);
    assert!(run.engine.reports.is_empty());
}
