//! CLI for the fault-injection harness.
//!
//! ```text
//! cargo run -p janitizer-faultz -- --seed 1 --iters 500
//! ```
//!
//! Prints the deterministic summary JSON on stdout and exits non-zero if
//! any trial panicked (the hostile-input contract violation).

use janitizer_faultz::{run_harness, HarnessOptions};

fn main() {
    let mut opts = HarnessOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("faultz: {what} requires an integer argument");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--seed" => opts.seed = take("--seed"),
            "--iters" => opts.iters = take("--iters"),
            "--help" | "-h" => {
                println!("usage: janitizer-faultz [--seed N] [--iters N]");
                return;
            }
            other => {
                eprintln!("faultz: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    let summary = run_harness(&opts);
    print!("{}", summary.to_json());
    if summary.panics > 0 {
        eprintln!("faultz: {} trial(s) PANICKED", summary.panics);
        std::process::exit(1);
    }
}
