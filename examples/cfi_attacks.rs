//! Control-flow hijacks versus JCFI and the baseline CFI policies.
//!
//! Demonstrates (a) a smashed return address stopped by the shadow stack
//! but admitted by BinCFI's call-preceded policy, and (b) the qsort
//! comparator pattern that Lockdown's strong policy falsely flags while
//! JCFI's address-taken scan admits it (paper §6.2.2).
//!
//! ```sh
//! cargo run --example cfi_attacks
//! ```

use janitizer::asm::{assemble, AsmOptions};
use janitizer::baselines::{static_rewriter_costs, CfiBaseline, CfiPolicy};
use janitizer::core::EngineOptions;
use janitizer::link::{link, LinkOptions};
use janitizer::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- (a) return-address smash, hand-written for precision.
    let smash = ".section text\n.global _start\n_start:\n\
                 call victim\n mov r0, 1\n ret\n\
                 decoy:\n call victim2\n mov r0, 66\n ret\n\
                 victim:\n la r8, decoy\n add r8, 5\n st8 [sp], r8\n nop\n ret\n\
                 victim2:\n ret\n";
    let obj = assemble("smash.s", smash, &AsmOptions::default())?;
    let mut store = ModuleStore::new();
    store.add(link(&[obj], &LinkOptions::executable("smash"))?);

    let jcfi = run_hybrid(&store, "smash", Jcfi::hybrid(), &HybridOptions::default())?;
    println!("JCFI vs return smash    : {:?}", jcfi.outcome);

    let bincfi_opts = HybridOptions {
        engine: EngineOptions {
            costs: static_rewriter_costs(),
            ..Default::default()
        },
        ..Default::default()
    };
    let bincfi = run_hybrid(
        &store,
        "smash",
        CfiBaseline::new(CfiPolicy::BinCfi),
        &bincfi_opts,
    )?;
    println!(
        "BinCFI vs return smash  : exit {:?} (call-preceded target admitted!)",
        bincfi.outcome.code()
    );

    // ---- (b) the callback pattern.
    let callback_src = r#"
        static long by_mod7(long a, long b) { return a % 7 - b % 7; }
        long main() {
            long v = malloc(10 * 8);
            for (long i = 0; i < 10; i++) *(v + i * 8) = (i * 13) % 29;
            qsort(v, 10, &by_mod7);     /* comparator crosses into libjc */
            long r = *(v + 0);
            free(v);
            return r;
        }
    "#;
    let base = library_base();
    let store2 = build_case(&base, "callbacks", callback_src);

    let jcfi2 = run_hybrid(
        &store2,
        "callbacks",
        Jcfi::hybrid(),
        &HybridOptions::default(),
    )?;
    println!(
        "JCFI vs qsort callback  : exit {:?} (no false positive)",
        jcfi2.outcome.code()
    );

    let lockdown_opts = HybridOptions {
        dynamic_only: true,
        engine: EngineOptions {
            costs: janitizer::baselines::lockdown_costs(),
            halt_on_violation: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let lockdown = run_hybrid(
        &store2,
        "callbacks",
        CfiBaseline::new(CfiPolicy::LockdownStrong),
        &lockdown_opts,
    )?;
    println!(
        "Lockdown(S) vs callback : exit {:?} with {} false positives",
        lockdown.outcome.code(),
        lockdown.engine.reports.len()
    );
    Ok(())
}
