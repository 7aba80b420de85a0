//! End-to-end MiniC tests: compile → assemble → link → load → run.

use janitizer_asm::{assemble, AsmOptions};
use janitizer_link::{link, LinkOptions};
use janitizer_minic::{compile, CanaryMode, CompileError, CompileOptions};
use janitizer_vm::{load_process, Exit, LoadOptions, ModuleStore};

/// Compiles, assembles, links and runs a standalone MiniC program,
/// returning its exit code.
fn run_c(src: &str) -> i64 {
    run_c_opts(
        src,
        &CompileOptions {
            emit_start: true,
            ..CompileOptions::default()
        },
    )
}

/// Minimal runtime: `__stack_chk_fail` aborts via the kernel.
const CRT: &str = ".section text\n.global __stack_chk_fail\n__stack_chk_fail:\n\
                   mov r0, 12\n la r1, msg\n mov r2, 23\n syscall\n\
                   .section rodata\nmsg: .ascii \"stack smashing detected\"\n";

fn run_c_opts(src: &str, opts: &CompileOptions) -> i64 {
    let asm = compile(src, opts).expect("compile");
    let obj = assemble("prog.s", &asm, &AsmOptions::default()).unwrap_or_else(|e| {
        panic!("assembly of generated code failed: {e}\n{asm}");
    });
    let crt = assemble("crt.s", CRT, &AsmOptions::default()).expect("crt");
    let img = link(&[obj, crt], &LinkOptions::executable("prog")).expect("link");
    let mut store = ModuleStore::new();
    store.add(img);
    let mut p = load_process(&store, "prog", &LoadOptions::default()).expect("load");
    match p.run_native(500_000_000) {
        Exit::Exited(c) => c,
        other => panic!(
            "program did not exit cleanly: {other:?}\nstdout: {}",
            p.stdout_string()
        ),
    }
}

#[test]
fn arithmetic_and_precedence() {
    assert_eq!(run_c("long main() { return 2 + 3 * 4; }"), 14);
    assert_eq!(run_c("long main() { return (2 + 3) * 4; }"), 20);
    assert_eq!(run_c("long main() { return 100 / 7; }"), 14);
    assert_eq!(run_c("long main() { return 100 % 7; }"), 2);
    assert_eq!(run_c("long main() { return 1 << 10; }"), 1024);
    assert_eq!(run_c("long main() { return 1024 >> 3; }"), 128);
    assert_eq!(run_c("long main() { return (0xf0 | 0x0f) & 0x3c; }"), 0x3c);
    assert_eq!(run_c("long main() { return 5 ^ 3; }"), 6);
    assert_eq!(run_c("long main() { return -(5) + 10; }"), 5);
    assert_eq!(run_c("long main() { return ~0 + 2; }"), 1);
}

#[test]
fn comparisons_and_logic() {
    assert_eq!(run_c("long main() { return 1 < 2; }"), 1);
    assert_eq!(run_c("long main() { return 2 < 1; }"), 0);
    assert_eq!(run_c("long main() { return -1 < 1; }"), 1, "signed compare");
    assert_eq!(run_c("long main() { return 3 == 3 && 4 != 5; }"), 1);
    assert_eq!(run_c("long main() { return 0 || 7; }"), 1);
    assert_eq!(run_c("long main() { return !5; }"), 0);
    assert_eq!(run_c("long main() { return !0; }"), 1);
    // Short-circuit: the crashing call must not run.
    assert_eq!(
        run_c(
            "long crash() { long *p = 0; return *p; }\
             long main() { return 0 && crash(); }"
        ),
        0
    );
}

#[test]
fn loops() {
    assert_eq!(
        run_c("long main() { long s = 0; for (long i = 1; i <= 10; i++) s += i; return s; }"),
        55
    );
    assert_eq!(
        run_c("long main() { long s = 0; long i = 0; while (i < 5) { s += 2; i++; } return s; }"),
        10
    );
    assert_eq!(
        run_c(
            "long main() { long s = 0; for (long i = 0; i < 100; i++) { if (i == 5) break; s += i; } return s; }"
        ),
        10
    );
    assert_eq!(
        run_c(
            "long main() { long s = 0; for (long i = 0; i < 10; i++) { if (i % 2) continue; s += i; } return s; }"
        ),
        20
    );
}

#[test]
fn functions_and_recursion() {
    assert_eq!(
        run_c(
            "long fib(long n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }\
             long main() { return fib(15); }"
        ),
        610
    );
    assert_eq!(
        run_c(
            "long add3(long a, long b, long c) { return a + b + c; }\
             long main() { return add3(1, 2, 3); }"
        ),
        6
    );
    assert_eq!(
        run_c(
            "static long twice(long x) { return x * 2; }\
             long main() { return twice(21); }"
        ),
        42
    );
}

#[test]
fn six_args() {
    assert_eq!(
        run_c(
            "long f(long a, long b, long c, long d, long e, long g) { return a+b+c+d+e+g; }\
             long main() { return f(1,2,3,4,5,6); }"
        ),
        21
    );
}

#[test]
fn pointers_and_arrays() {
    assert_eq!(
        run_c(
            "long main() { long a[4]; a[0] = 10; a[1] = 20; a[3] = 30; return a[0] + a[1] + a[3]; }"
        ),
        60
    );
    assert_eq!(
        run_c("long main() { long x = 5; long *p = &x; *p = 9; return x; }"),
        9
    );
    assert_eq!(
        run_c("long main() { long a[3]; long *p = a; *(p + 2) = 7; return a[2]; }"),
        7
    );
    assert_eq!(
        run_c(
            "long set(long *p, long v) { *p = v; return 0; }\
             long main() { long x = 0; set(&x, 33); return x; }"
        ),
        33
    );
}

#[test]
fn char_arrays_and_strings() {
    assert_eq!(
        run_c("long main() { char buf[8]; buf[0] = 'A'; buf[1] = 'B'; return buf[0] + buf[1]; }"),
        65 + 66
    );
    assert_eq!(
        run_c("long main() { char *s = \"AZ\"; return s[0] + s[1]; }"),
        65 + 90
    );
}

#[test]
fn globals() {
    assert_eq!(
        run_c(
            "long counter = 5;\
             long bump() { counter += 3; return 0; }\
             long main() { bump(); bump(); return counter; }"
        ),
        11
    );
    assert_eq!(
        run_c(
            "long table[] = {10, 20, 30, 40};\
             long main() { return table[2]; }"
        ),
        30
    );
    assert_eq!(
        run_c("long zeroed[16]; long main() { return zeroed[7]; }"),
        0
    );
}

#[test]
fn function_pointers() {
    assert_eq!(
        run_c(
            "long inc(long x) { return x + 1; }\
             long dec(long x) { return x - 1; }\
             long main() { long f = &inc; long g = &dec; return f(10) + g(10); }"
        ),
        20
    );
    // Table of function pointers — address-taken functions.
    assert_eq!(
        run_c(
            "long a() { return 1; } long b() { return 2; } long c() { return 4; }\
             long ops[] = {&a, &b, &c};\
             long main() { long s = 0; for (long i = 0; i < 3; i++) { long f = ops[i]; s += f(); } return s; }"
        ),
        7
    );
}

#[test]
fn switch_if_chain_and_jump_table() {
    // Sparse: if-chain.
    let sparse = "long f(long x) { switch (x) { case 1: return 10; case 100: return 20; default: return 30; } }\
                  long main() { return f(1) + f(100) + f(55); }";
    assert_eq!(run_c(sparse), 60);
    // Dense: jump table.
    let dense = "long f(long x) { switch (x) {\
                   case 0: return 5; case 1: return 6; case 2: return 7;\
                   case 3: return 8; case 4: return 9; default: return 1; } }\
                 long main() { return f(0) + f(2) + f(4) + f(77); }";
    assert_eq!(run_c(dense), 5 + 7 + 9 + 1);
    let asm = compile(dense, &CompileOptions::default()).unwrap();
    assert!(
        asm.contains(".quad"),
        "dense switch should emit a jump table"
    );
    assert!(
        asm.contains("jmp r7"),
        "jump table dispatch is an indirect jump"
    );
}

#[test]
fn tables_in_text_option() {
    let dense = "long f(long x) { switch (x) {\
                   case 0: return 5; case 1: return 6; case 2: return 7;\
                   case 3: return 8; case 4: return 9; default: return 1; } }\
                 long main() { return f(3); }";
    let opts = CompileOptions {
        emit_start: true,
        tables_in_text: true,
        ..CompileOptions::default()
    };
    assert_eq!(run_c_opts(dense, &opts), 8, "in-text tables still execute");
    let asm = compile(dense, &opts).unwrap();
    // The table must NOT be in a rodata section.
    let ro = asm.find(".section rodata");
    let tbl = asm.find(".quad").unwrap();
    assert!(ro.is_none() || tbl < ro.unwrap());
}

#[test]
fn ternary() {
    assert_eq!(
        run_c("long main() { long x = 5; return x > 3 ? 100 : 200; }"),
        100
    );
    assert_eq!(
        run_c("long main() { long x = 1; return x > 3 ? 100 : 200; }"),
        200
    );
}

#[test]
fn canary_modes() {
    let src = "long main() { char buf[16]; buf[0] = 1; return buf[0]; }";
    let with = compile(
        src,
        &CompileOptions {
            canary: CanaryMode::Arrays,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    assert!(
        with.contains("rdtls r6, 0x28"),
        "canary loads the TLS cookie"
    );
    assert!(with.contains("__stack_chk_fail"));
    let without = compile(
        src,
        &CompileOptions {
            canary: CanaryMode::Off,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    assert!(!without.contains("rdtls"));
    // No arrays -> no canary under the Arrays heuristic.
    let scalar = compile("long f(long x) { return x; }", &CompileOptions::default()).unwrap();
    assert!(!scalar.contains("rdtls"));
    // All mode protects everything.
    let all = compile(
        "long f(long x) { return x; }",
        &CompileOptions {
            canary: CanaryMode::All,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    assert!(all.contains("rdtls"));
}

#[test]
fn canary_programs_run_correctly() {
    let src = "long sum(long *a, long n) { long s = 0; for (long i = 0; i < n; i++) s += a[i]; return s; }\
               long main() { long v[5]; for (long i = 0; i < 5; i++) v[i] = i * i; return sum(v, 5); }";
    let opts = CompileOptions {
        emit_start: true,
        canary: CanaryMode::All,
        ..CompileOptions::default()
    };
    assert_eq!(run_c_opts(src, &opts), 1 + 4 + 9 + 16);
}

#[test]
fn ipa_ra_keeps_value_in_caller_saved_reg() {
    // `leaf` is compiled first and uses few registers; with ipa_ra the
    // caller holds `acc` in a caller-saved register across the call.
    let src = "long leaf(long x) { return x + 1; }\
               long main() { long acc = 40; return acc + leaf(1); }";
    let ipa_opts = CompileOptions {
        ipa_ra: true,
        emit_start: true,
        ..CompileOptions::default()
    };
    let with = compile(src, &ipa_opts).unwrap();
    assert!(
        with.contains("mov r5, r0") || with.contains("mov r4, r0"),
        "expected an ipa-ra hold register:\n{with}"
    );
    assert_eq!(run_c_opts(src, &ipa_opts), 42);
    // Without ipa_ra the value goes through the stack.
    let without = compile(src, &CompileOptions::default()).unwrap();
    assert!(!without.contains("mov r5, r0"));
    assert_eq!(run_c(src), 42);
}

#[test]
fn compound_assignment_with_pointers() {
    assert_eq!(
        run_c(
            "long main() { long a[4]; a[0]=1; a[1]=2; a[2]=3; a[3]=4;\
             long *p = a; p += 2; return *p; }"
        ),
        3
    );
    assert_eq!(
        run_c("long main() { long x = 10; x <<= 2; x -= 8; x /= 4; return x; }"),
        8
    );
}

#[test]
fn extern_calls_link_against_other_objects() {
    // `helper` is extern here; provided by a second object.
    let asm1 = compile(
        "long main() { return helper(20) + 1; }",
        &CompileOptions {
            emit_start: true,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    let asm2 = compile(
        "long helper(long x) { return x * 2; }",
        &CompileOptions::default(),
    )
    .unwrap();
    let o1 = assemble("a.s", &asm1, &AsmOptions::default()).unwrap();
    let o2 = assemble("b.s", &asm2, &AsmOptions::default()).unwrap();
    let img = link(&[o1, o2], &LinkOptions::executable("prog")).unwrap();
    let mut store = ModuleStore::new();
    store.add(img);
    let mut p = load_process(&store, "prog", &LoadOptions::default()).unwrap();
    assert_eq!(p.run_native(10_000_000), Exit::Exited(41));
}

#[test]
fn nested_scopes_shadowing() {
    assert_eq!(
        run_c("long main() { long x = 1; { long x = 2; { long x = 3; } } return x; }"),
        1
    );
}

#[test]
fn semantic_errors() {
    assert!(matches!(
        compile("long main() { return nope; }", &CompileOptions::default()),
        Err(CompileError::Semantic(_))
    ));
    assert!(matches!(
        compile(
            "long main() { 5 = 6; return 0; }",
            &CompileOptions::default()
        ),
        Err(CompileError::Semantic(_))
    ));
    assert!(matches!(
        compile("long main() { break; }", &CompileOptions::default()),
        Err(CompileError::Semantic(_))
    ));
}
