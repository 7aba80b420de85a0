//! Quickstart: compile a buggy C-like program with the guest toolchain,
//! watch it run "fine" natively, then catch the bug with JASan and the
//! hijack with JCFI.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use janitizer::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A program with a classic off-by-one heap overflow.
    let source = r#"
        long sum_table(long *t, long n) {
            long s = 0;
            for (long i = 0; i <= n; i++) s += t[i];   /* <= : off by one */
            return s;
        }
        long main() {
            long t = malloc(5 * 8);
            for (long i = 0; i < 5; i++) *(t + i * 8) = i * 10;
            long s = sum_table(t, 5);
            free(t);
            return s % 256;
        }
    "#;

    // Build it against the guest libc (malloc/free/qsort/...).
    let base = library_base();
    let store = build_case(&base, "buggy", source);

    // 1. Natively the overflow reads stale heap and "works".
    let (exit, proc) = run_native(&store, "buggy", &LoadOptions::default(), 0)?;
    println!(
        "native run     : exit {:?} after {} instructions",
        exit.code(),
        proc.insns
    );

    // 2. Under Janitizer+JASan the static analyzer marks every load/store
    //    with liveness-annotated rewrite rules, the dynamic modifier
    //    instruments them, and the LD_PRELOADed allocator poisons
    //    redzones: the very first out-of-bounds read reports.
    let opts = HybridOptions {
        load: LoadOptions {
            preload: vec![RT_MODULE.into()],
            ..Default::default()
        },
        ..Default::default()
    };
    let run = run_hybrid(&store, "buggy", Jasan::hybrid(), &opts)?;
    match &run.outcome {
        RunOutcome::Violation(report) => println!("jasan          : {report}"),
        other => println!("jasan          : unexpected {other:?}"),
    }
    println!(
        "jasan coverage : {} blocks static, {} dynamic-fallback",
        run.coverage.static_blocks, run.coverage.dynamic_blocks
    );

    // 3. JCFI protects control flow: smash a return address and the
    //    shadow stack catches it.
    let hijack = r#"
        long gadget() { return 66; }
        long victim(long *p) {
            /* pretend an overflow let the attacker write the return
               address: emulate by writing through a wild pointer */
            *p = &gadget;
            return 0;
        }
        long main() {
            long x = 0;
            victim(&x);
            long f = x;     /* attacker-controlled code pointer */
            return f();     /* ...but used as an indirect call: allowed
                               (gadget is address-taken) */
        }
    "#;
    let store2 = build_case(&base, "hijack", hijack);
    let run2 = run_hybrid(&store2, "hijack", Jcfi::hybrid(), &HybridOptions::default())?;
    println!(
        "jcfi (legal)   : exit {:?} — address-taken targets stay callable",
        run2.outcome.code()
    );

    Ok(())
}
