//! JTaint: the third technique on the framework — taint tracking from
//! program inputs to indirect control transfers.
//!
//! A dispatcher indexes a handler table with *raw input*; with a bounds
//! check the input never reaches the call target computation tainted...
//! except it does — taint tracking shows the target register still
//! derives from input, which is exactly the class of bug CFI's
//! "valid-target" checks famously cannot see (the target IS valid).
//!
//! ```sh
//! cargo run --example taint_tracking
//! ```

use janitizer::asm::{assemble, AsmOptions};
use janitizer::link::{link, LinkOptions};
use janitizer::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A dispatcher that computes its jump target from getarg(0).
    let src = ".section text\n.global _start\n_start:\n\
        mov r0, 9\n mov r1, 0\n syscall\n      ; r0 = getarg(0)\n\
        mod r0, 2\n                            ; 'bounds check'\n\
        mul r0, 16\n\
        la r8, handler0\n add r8, r0\n\
        call r8\n ret\n\
        .align 16\n\
        handler0:\n mov r0, 10\n ret\n\
        .align 16\n\
        handler1:\n mov r0, 20\n ret\n";
    let obj = assemble("d.s", src, &AsmOptions::default())?;
    let mut store = ModuleStore::new();
    store.add(link(&[obj], &LinkOptions::executable("dispatch"))?);

    let mk_opts = |arg: u64| HybridOptions {
        load: LoadOptions {
            args: vec![arg],
            ..Default::default()
        },
        ..Default::default()
    };

    // JCFI is satisfied: both computed targets are real function entries.
    let jcfi = run_hybrid(&store, "dispatch", Jcfi::hybrid(), &mk_opts(1))?;
    println!(
        "JCFI  : exit {:?} — target is a valid function, CFI passes",
        jcfi.outcome.code()
    );

    // JTaint flags the transfer: its target derives from untrusted input.
    let jt = Jtaint::new();
    let state = std::rc::Rc::clone(&jt.state);
    let taint = run_hybrid(&store, "dispatch", jt, &mk_opts(1))?;
    match &taint.outcome {
        RunOutcome::Violation(r) => println!("JTaint: {r}"),
        other => println!("JTaint: unexpected {other:?}"),
    }
    let st = state.borrow();
    println!(
        "JTaint: {} propagation probes, {} input sources observed",
        st.propagations, st.sourced
    );

    // The same dispatcher with a sanitizing table lookup through trusted
    // memory is clean (constants overwrite taint).
    let clean = ".section text\n.global _start\n_start:\n\
        mov r0, 9\n mov r1, 0\n syscall\n\
        mod r0, 2\n\
        la r8, table\n ld8 r8, [r8+r0*8]\n\
        mov r9, r8\n\
        la r8, handler0\n cmp r9, r8\n je ok\n\
        la r8, handler1\n\
        ok:\n call r8\n ret\n\
        handler0:\n mov r0, 10\n ret\n\
        handler1:\n mov r0, 20\n ret\n\
        .section rodata\ntable: .quad handler0, handler1\n";
    let obj2 = assemble("c.s", clean, &AsmOptions::default())?;
    let mut store2 = ModuleStore::new();
    store2.add(link(&[obj2], &LinkOptions::executable("dispatch"))?);
    let ok = run_hybrid(&store2, "dispatch", Jtaint::new(), &mk_opts(1))?;
    println!(
        "JTaint: sanitized dispatcher exits {:?} with {} reports",
        ok.outcome.code(),
        ok.engine.reports.len()
    );
    Ok(())
}
