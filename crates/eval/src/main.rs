//! `janitizer-eval`: regenerates every table and figure of the paper.
//!
//! ```text
//! janitizer-eval [--scale S] [--threads N] \
//!     [--reports DIR] [--juliet-limit N] [--inject-faults seed=N,rate=R] \
//!     [fig7|...|fig14|soundness|rules|disasm <module>|report <case>|explain <figure>|all]
//! ```
//!
//! Results print as aligned tables and are also written as CSV and JSON
//! under `results/`. The `rules` subcommand additionally materializes the
//! per-module rewrite-rule files the static analyzer produces (paper
//! §3.3.1: rules "are recorded in separate files for each binary
//! module").
//!
//! `explain <figure|workload>` runs the target with the deterministic
//! cycle profiler armed and writes its overhead attribution (a
//! `janitizer.profile/v2` bundle, folded stacks and budget tables); it is
//! the one view of modeled cycles. Host time per pipeline layer is
//! measured from outside, by `perfbench --trace 1`.
//!
//! `report <case>` re-runs one Juliet case's bad variant under
//! JASan-hybrid with forensics enabled and prints the full ASan-style
//! violation report(s). `--reports DIR` makes fig10 write one report
//! pair (`.txt` + `.json`) per detected violation into `DIR`;
//! `--juliet-limit N` truncates the Juliet suite (CI smoke runs). The
//! fig10 detection counts are identical with reporting on or off.
//!
//! `--inject-faults seed=N,rate=R` routes every figure run's rule files
//! through the untrusted serialize-verify-load path and corrupts each
//! module's bytes with probability `R` under a deterministic per-module
//! stream derived from `N`. Corrupted modules degrade to dynamic-only
//! instrumentation instead of aborting; a summary line reports which
//! modules degraded and why. Without the flag, runs take the trusted
//! in-memory path and figure output is byte-identical to a build without
//! fault injection. All result files are written atomically (temp file +
//! rename), so an interrupted run never leaves torn CSV/JSON output.
//!
//! `--threads N` caps the evaluation's worker threads (default: one per
//! core; `--threads 1` is the fully serial reference). Figure output is
//! byte-identical at any thread count. `all` additionally writes
//! `BENCH_eval.json` to the working directory — host wall-clock per
//! figure, rule-cache hit/miss counters, and a measured serial-vs-parallel
//! speedup — deliberately *outside* `results/`, which holds only
//! deterministic data.

use janitizer_eval::*;
use janitizer_telemetry::flight::Flight;

/// Writes one figure's CSV and JSON under `results/`, propagating I/O
/// errors instead of swallowing them.
fn write_results(name: &str, fig: &FigResult) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    write_atomic(format!("results/{name}.csv"), fig.to_csv().as_bytes())?;
    write_atomic(format!("results/{name}.json"), fig.to_json().as_bytes())?;
    Ok(())
}

/// Reports a failed result write and counts it toward the exit code.
fn persist(name: &str, fig: &FigResult, failures: &mut u32) {
    if let Err(e) = write_results(name, fig) {
        eprintln!("error: failed to write results/{name}.{{csv,json}}: {e}");
        *failures += 1;
    }
}

/// Runs one `FigResult`-producing figure by name.
fn run_figure(ew: &EvalWorld, name: &str) -> Option<FigResult> {
    Some(match name {
        "fig7" => fig7(ew),
        "fig8" => fig8(ew),
        "fig9" => fig9(ew),
        "fig11" => fig11(ew),
        "fig12" => fig12(ew),
        "fig13" => fig13(ew),
        "fig14" => fig14(ew),
        _ => return None,
    })
}

/// Writes `BENCH_eval.json`: host wall-clock per figure, rule-cache
/// counters, thread count, and the measured serial-vs-parallel speedup.
fn write_bench(
    per_figure: &[(String, f64)],
    threads: usize,
    cache: janitizer_core::RuleCacheStats,
    serial_parallel: Option<(f64, f64)>,
) -> std::io::Result<()> {
    use janitizer_telemetry::json::Json;
    let total_ms: f64 = per_figure.iter().map(|(_, ms)| ms).sum();
    let mut fields = vec![
        ("threads".to_string(), Json::U64(threads as u64)),
        (
            "figures".to_string(),
            Json::Arr(
                per_figure
                    .iter()
                    .map(|(name, ms)| {
                        Json::obj([
                            ("name", Json::str(name.clone())),
                            ("wall_ms", Json::F64(*ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("total_wall_ms".to_string(), Json::F64(total_ms)),
        (
            "rule_cache".to_string(),
            Json::obj([
                ("hits", Json::U64(cache.hits)),
                ("misses", Json::U64(cache.misses)),
            ]),
        ),
    ];
    if let Some((serial_ms, parallel_ms)) = serial_parallel {
        fields.push((
            "fig14_speedup".to_string(),
            Json::obj([
                ("serial_ms", Json::F64(serial_ms)),
                ("parallel_ms", Json::F64(parallel_ms)),
                ("speedup", Json::F64(serial_ms / parallel_ms.max(1e-9))),
            ]),
        ));
    }
    write_atomic(
        "BENCH_eval.json",
        Json::Obj(fields).render_pretty().as_bytes(),
    )
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, no external deps).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Appends one dated line to `BENCH_history.jsonl` — the perf
/// trajectory across invocations of `all` (append-only by design, so it
/// accumulates across sessions; `BENCH_eval.json` stays the latest
/// snapshot). Each line carries the per-figure wall clocks, the
/// rule-cache hit/miss counters, and — when `--store` is live — the
/// persistent-store counters, so the trajectory is attributable without
/// replaying the run.
fn append_bench_history(
    per_figure: &[(String, f64)],
    threads: usize,
    cache: janitizer_core::RuleCacheStats,
    store: Option<janitizer_store::StoreStats>,
) -> std::io::Result<()> {
    use janitizer_telemetry::json::Json;
    use std::io::Write as _;
    let total_ms: f64 = per_figure.iter().map(|(_, ms)| ms).sum();
    let mut fields = vec![
        // Stamped since PR 9 — the trend reader keys on it and skips
        // pre-schema lines (the seed line lacks `figure_wall_ms`).
        ("schema".to_string(), Json::str(BENCH_HISTORY_SCHEMA)),
        ("date".to_string(), Json::str(today_utc())),
        ("threads".to_string(), Json::U64(threads as u64)),
        ("figures".to_string(), Json::U64(per_figure.len() as u64)),
        ("total_wall_ms".to_string(), Json::F64(total_ms)),
        (
            "figure_wall_ms".to_string(),
            Json::Obj(
                per_figure
                    .iter()
                    .map(|(name, ms)| (name.clone(), Json::F64(*ms)))
                    .collect(),
            ),
        ),
        (
            "rule_cache".to_string(),
            Json::obj([
                ("hits", Json::U64(cache.hits)),
                ("misses", Json::U64(cache.misses)),
            ]),
        ),
    ];
    if let Some(st) = store {
        fields.push((
            "store".to_string(),
            Json::obj([
                ("hits", Json::U64(st.hits)),
                ("misses", Json::U64(st.misses)),
                ("corrupt", Json::U64(st.corrupt)),
                ("recovered", Json::U64(st.recovered)),
                ("retries", Json::U64(st.retries)),
            ]),
        ));
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("BENCH_history.jsonl")?;
    writeln!(f, "{}", Json::Obj(fields).render())
}

/// Renders the accumulated `(workload, config)` profiles as one
/// schema-stable `janitizer.profile/v2` bundle document.
fn profile_bundle_json(
    target: &str,
    top: usize,
    profiles: &std::collections::BTreeMap<(String, String), janitizer_core::RunProfile>,
) -> String {
    use janitizer_telemetry::json::Json;
    Json::obj([
        ("schema", Json::str("janitizer.profile/v2")),
        ("target", Json::str(target)),
        ("top", Json::U64(top as u64)),
        (
            "cells",
            Json::Arr(
                profiles
                    .iter()
                    .map(|((workload, config), p)| {
                        Json::obj([
                            ("workload", Json::str(workload.clone())),
                            ("config", Json::str(config.clone())),
                            ("profile", p.to_json(top)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render_pretty()
}

/// Folded stacks for the whole bundle: each cell's lines prefixed with
/// `workload;config;` so one flamegraph can separate the cells.
fn profile_bundle_folded(
    profiles: &std::collections::BTreeMap<(String, String), janitizer_core::RunProfile>,
) -> String {
    let mut out = String::new();
    for ((workload, config), p) in profiles {
        for line in p.to_folded().lines() {
            out.push_str(workload);
            out.push(';');
            out.push_str(config);
            out.push(';');
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Concatenated per-cell overhead-budget tables.
fn profile_bundle_budgets(
    top: usize,
    profiles: &std::collections::BTreeMap<(String, String), janitizer_core::RunProfile>,
) -> String {
    let mut out = String::new();
    for p in profiles.values() {
        out.push_str(&p.budget_table(top));
        out.push('\n');
    }
    out
}

/// Writes the three `explain` artifacts for the drained profiles and
/// prints the budget tables.
fn write_explain_artifacts(
    target: &str,
    top: usize,
    out_dir: &str,
    profiles: &std::collections::BTreeMap<(String, String), janitizer_core::RunProfile>,
    failures: &mut u32,
) {
    let json_path = format!("{out_dir}/explain-{target}.v2.json");
    let folded_path = format!("{out_dir}/explain-{target}.folded");
    let budget_path = format!("{out_dir}/explain-{target}-budget.txt");
    let budgets = profile_bundle_budgets(top, profiles);
    let write_all = || -> std::io::Result<()> {
        std::fs::create_dir_all(out_dir)?;
        write_atomic(
            &json_path,
            profile_bundle_json(target, top, profiles).as_bytes(),
        )?;
        write_atomic(&folded_path, profile_bundle_folded(profiles).as_bytes())?;
        write_atomic(&budget_path, budgets.as_bytes())?;
        Ok(())
    };
    match write_all() {
        Ok(()) => {
            eprintln!("explain artifacts written to {json_path}, {folded_path}, {budget_path}")
        }
        Err(e) => {
            eprintln!("error: failed to write explain artifacts under {out_dir}: {e}");
            *failures += 1;
        }
    }
    print!("{budgets}");
}

/// `explain diff <A> <B>`: parses two serialized profile bundles,
/// prints the ranked cycle-delta report, and applies the optional perf
/// gate (`--gate RATIO` fails the process when any cell's total-cycles
/// ratio exceeds it). Exit codes: 0 ok, 1 gate failed, 2 bad input.
fn run_explain_diff(a_path: &str, b_path: &str, top: usize, gate: Option<f64>) -> i32 {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (a, b) = match (read(a_path), read(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    match janitizer_profile::diff::diff_bundles(&a, &b, top) {
        Ok((diff, report)) => {
            print!("{report}");
            if let Some(g) = gate {
                let worst = diff.worst_total_ratio();
                if worst > g {
                    eprintln!(
                        "perf gate FAILED: worst cell total ratio {worst:.4} exceeds gate {g}"
                    );
                    return 1;
                }
                eprintln!("perf gate ok: worst cell total ratio {worst:.4} within gate {g}");
            }
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

/// `explain trend`: reads `BENCH_history.jsonl` and prints the
/// wall-clock trend (pre-schema lines are tolerated).
fn run_explain_trend(path: &str) -> i32 {
    match std::fs::read_to_string(path) {
        Ok(text) => {
            print!("{}", bench_trend(&text));
            0
        }
        Err(e) => {
            eprintln!("error: {path}: {e}");
            2
        }
    }
}

/// The complete CLI surface, printed by `--help` and on bad arguments.
fn usage() -> String {
    "\
janitizer-eval — regenerates every table and figure of the paper

usage: janitizer-eval [FLAGS] [SUBCOMMANDS]

subcommands (default: all):
  all                      every figure plus BENCH_eval.json/BENCH_history.jsonl
  fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14
                           one figure (fig10 is the Juliet detection suite)
  rules                    materialize per-module .jrul rewrite-rule files
  soundness                false-positive table on benign runs
  disasm <module>          disassemble one module
  report <case>            re-run one Juliet case with full forensics
  serve                    deterministic multi-client analysis-service simulation
  gauntlet                 hostile-module suite: analyzer vs no-evidence ablation
  explain <fig|workload>   overhead-attribution budgets + janitizer.profile/v2 bundle
  explain diff <A> <B>     rank per-site cycle deltas between two profile bundles
  explain trend            read BENCH_history.jsonl and print the wall-clock trend

flags:
  --scale S                shrink/grow guest workloads (default 1.0)
  --threads N              worker threads (default: one per core; output is
                           byte-identical at any N)
  --out DIR                artifact directory (default results/)
  --top N                  rows per ranked table (explain/diff; default 10)
  --reports DIR            fig10: write one forensics report pair per violation
  --juliet-limit N         fig10: truncate the Juliet suite (CI smoke)
  --inject-faults seed=N,rate=R
                           corrupt rule files on the untrusted load path
  --store DIR              persistent rule store (crash-safe, content-addressed)
  --store-kill-after N     inject a store crash after N commits
  --quarantine-limit N     cap store quarantine growth: prune the oldest
                           quarantined entries past N at exit
  --serve-clients N        serve: concurrent client threads (default 4)
  --serve-requests N       serve: requests per client (default 8)
  --serve-seed N           serve: request-stream seed (default 7)
  --serve-budget N         serve: per-request analysis work budget
  --metrics-out DIR        serve: write serve-metrics.{json,om},
                           serve-metrics-host.json and a flight snapshot
  --flight-recorder        arm the black-box event ring (dumps on panic and
                           degradation trips; observation-only)
  --gate RATIO             explain diff: exit 1 if any site regresses worse
                           than RATIO (e.g. 1.5)
  --help                   this text
"
    .to_string()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut threads_flag = 0usize;
    let mut reports_dir: Option<String> = None;
    let mut juliet_limit: Option<usize> = None;
    let mut inject: Option<janitizer_core::FaultInjection> = None;
    let mut store_dir: Option<String> = None;
    let mut store_kill_after: Option<u64> = None;
    let mut quarantine_limit: Option<usize> = None;
    let mut serve_cfg = ServeSimConfig::default();
    let mut top = 10usize;
    let mut out_dir = "results".to_string();
    let mut metrics_out: Option<String> = None;
    let mut flight_flag = false;
    let mut gate: Option<f64> = None;
    let mut which: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                print!("{}", usage());
                return;
            }
            "--metrics-out" => {
                i += 1;
                metrics_out = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--metrics-out needs a directory path");
                    std::process::exit(2);
                }));
            }
            "--flight-recorder" => flight_flag = true,
            "--gate" => {
                i += 1;
                gate = Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--gate needs a ratio (e.g. 1.5)");
                    std::process::exit(2);
                }));
            }
            "--store" => {
                i += 1;
                store_dir = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--store needs a directory path");
                    std::process::exit(2);
                }));
            }
            "--store-kill-after" => {
                i += 1;
                store_kill_after =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--store-kill-after needs a commit count");
                        std::process::exit(2);
                    }));
            }
            "--quarantine-limit" => {
                i += 1;
                quarantine_limit =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--quarantine-limit needs an entry count");
                        std::process::exit(2);
                    }));
            }
            "--serve-clients" => {
                i += 1;
                serve_cfg.clients = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--serve-clients needs a positive integer");
                    std::process::exit(2);
                });
            }
            "--serve-requests" => {
                i += 1;
                serve_cfg.requests =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--serve-requests needs a positive integer");
                        std::process::exit(2);
                    });
            }
            "--serve-seed" => {
                i += 1;
                serve_cfg.seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--serve-seed needs an integer");
                    std::process::exit(2);
                });
            }
            "--serve-budget" => {
                i += 1;
                serve_cfg.budget = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--serve-budget needs a work-unit count");
                    std::process::exit(2);
                });
            }
            "--reports" => {
                i += 1;
                reports_dir = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--reports needs a directory path");
                    std::process::exit(2);
                }));
            }
            "--juliet-limit" => {
                i += 1;
                juliet_limit =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--juliet-limit needs a positive integer");
                        std::process::exit(2);
                    }));
            }
            "--inject-faults" => {
                i += 1;
                inject = Some(
                    args.get(i)
                        .and_then(|s| parse_inject(s))
                        .unwrap_or_else(|| {
                            eprintln!(
                                "--inject-faults needs `seed=N,rate=R` (rate in [0,1], default 1)"
                            );
                            std::process::exit(2);
                        }),
                );
            }
            "--scale" => {
                i += 1;
                scale = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--scale needs a number");
                    std::process::exit(2);
                });
            }
            "--threads" => {
                i += 1;
                threads_flag = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--threads needs a positive integer");
                    std::process::exit(2);
                });
            }
            "--top" => {
                i += 1;
                top = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--top needs a positive integer");
                    std::process::exit(2);
                });
            }
            "--out" => {
                i += 1;
                out_dir = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a directory path");
                    std::process::exit(2);
                });
            }
            other => which.push(other.to_string()),
        }
        i += 1;
    }
    // `explain <figure|workload>` is extracted before figure selection
    // so its target doesn't double as a figure request.
    let mut explain_target: Option<String> = None;
    let mut explain_diff: Option<(String, String)> = None;
    let mut explain_trend = false;
    if let Some(pos) = which.iter().position(|w| w == "explain") {
        match which.get(pos + 1).map(String::as_str) {
            Some("diff") => {
                let end = (pos + 4).min(which.len());
                let taken: Vec<String> = which.drain(pos..end).collect();
                if taken.len() != 4 {
                    eprintln!("explain diff needs two bundle paths: explain diff <A> <B>");
                    std::process::exit(2);
                }
                explain_diff = Some((taken[2].clone(), taken[3].clone()));
            }
            Some("trend") => {
                which.drain(pos..pos + 2);
                explain_trend = true;
            }
            _ => {
                let end = (pos + 2).min(which.len());
                let mut taken: Vec<String> = which.drain(pos..end).collect();
                explain_target = Some(if taken.len() == 2 {
                    taken.pop().expect("two elements")
                } else {
                    "fig14".to_string()
                });
            }
        }
    }
    if which.is_empty() && explain_target.is_none() && explain_diff.is_none() && !explain_trend {
        which.push("all".into());
    }
    // `explain diff` and `explain trend` are pure artifact readers — no
    // guest world, no figure runs. Handle them before the build.
    if let Some((a, b)) = &explain_diff {
        std::process::exit(run_explain_diff(a, b, top, gate));
    }
    if explain_trend {
        std::process::exit(run_explain_trend("BENCH_history.jsonl"));
    }
    // Reject unknown flags and figure names up front, before the (slow)
    // guest world is built for nothing.
    const KNOWN: &[&str] = &[
        "all",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "rules",
        "soundness",
        "disasm",
        "report",
        "serve",
        "gauntlet",
    ];
    let mut prev_takes_arg = false;
    for w in &which {
        let is_subcmd_target =
            std::mem::replace(&mut prev_takes_arg, w == "disasm" || w == "report");
        if !is_subcmd_target && !KNOWN.contains(&w.as_str()) {
            eprintln!(
                "unknown argument `{w}` (expected one of: {})",
                KNOWN.join(", ")
            );
            std::process::exit(2);
        }
    }
    let all = which.iter().any(|w| w == "all");
    let want = |name: &str| all || which.iter().any(|w| w == name);
    // Result files that could not be written, and everything else that
    // fails the run: an unknown case or module, a failed oracle or parity
    // check. Each is reported where it happens; both set the exit code.
    let mut failures = 0u32;
    let mut errors = 0u32;

    // Black-box event ring: every run of the world records into it, and
    // it dumps to the metrics directory (or `--out`) on panic and on
    // degradation trips. Observation-only — figure bytes are identical
    // with the recorder on or off (test-enforced).
    let flight = if flight_flag {
        let dump_dir = metrics_out.clone().unwrap_or_else(|| out_dir.clone());
        let flight = Flight::armed(Some(dump_dir.clone().into()));
        flight.dump_on_panic();
        eprintln!("flight recorder armed (black box dumps to {dump_dir})");
        flight
    } else {
        Flight::default()
    };

    eprintln!("building guest world (scale {scale}) ...");
    let mut ew = build_eval_world(scale);
    ew.flight = flight;
    ew.config.threads = threads_flag;
    ew.config.inject = inject;
    // Persistent rule store: figure and serve runs consult it before
    // analyzing and commit fresh analyses back. Store failures degrade
    // to in-process analysis — never an error — and all store
    // diagnostics go to stderr so figure stdout/results stay
    // byte-identical with the store on or off.
    let mut rule_store: Option<std::sync::Arc<janitizer_store::RuleStore>> = None;
    if let Some(dir) = &store_dir {
        let failures = janitizer_store::FailurePlan {
            transient_write_failures: 0,
            crash_after_commits: store_kill_after,
        };
        match janitizer_store::RuleStore::open_with(
            dir,
            janitizer_store::RetryPolicy::default(),
            failures,
            ew.flight.clone(),
        ) {
            Ok(st) => {
                let st = std::sync::Arc::new(st);
                let recovered = st.stats().recovered;
                if recovered > 0 {
                    eprintln!(
                        "store: recovered from an interrupted commit at {dir} \
                         (recovered={recovered})"
                    );
                }
                ew.cache = std::sync::Arc::new(janitizer_core::RuleCache::with_store(st.clone()));
                rule_store = Some(st);
            }
            Err(e) => {
                eprintln!("store: failed to open {dir} ({e}); continuing without a store");
            }
        }
    } else if store_kill_after.is_some() {
        eprintln!("--store-kill-after has no effect without --store");
    }
    if let Some(fi) = inject {
        eprintln!(
            "fault injection ON: seed={} rate={} (rule files take the untrusted load path)",
            fi.seed, fi.rate
        );
    }
    let mut per_figure: Vec<(String, f64)> = Vec::new();

    for name in ["fig7", "fig8", "fig9", "fig11", "fig12", "fig13", "fig14"] {
        if want(name) {
            let t0 = std::time::Instant::now();
            let r = run_figure(&ew, name).expect("known figure");
            per_figure.push((name.to_string(), t0.elapsed().as_secs_f64() * 1e3));
            print!("{}", r.render());
            persist(name, &r, &mut failures);
        }
    }
    if want("fig10") {
        let t0 = std::time::Instant::now();
        let dir = reports_dir.as_ref().map(std::path::Path::new);
        let r = fig10_with(&ew, dir, juliet_limit);
        per_figure.push(("fig10".to_string(), t0.elapsed().as_secs_f64() * 1e3));
        print!("{}", r.render());
        println!("JASan FNs by category: {:?}", r.jasan_fn_by_category);
        if let Some(d) = dir {
            let n = std::fs::read_dir(d).map(|it| it.count()).unwrap_or(0);
            eprintln!("{n} report file(s) written to {}", d.display());
        }
    }
    if want("rules") {
        let mut total = 0usize;
        if let Err(e) = std::fs::create_dir_all("results/rules") {
            eprintln!("error: failed to create results/rules: {e}");
            failures += 1;
        }
        for name in ew.world.store.names() {
            let image = ew.world.store.get(name).expect("listed");
            let file =
                janitizer_core::analyze_statically(&image, &janitizer_jasan::Jasan::hybrid());
            let bytes = file.to_bytes();
            total += file.rules.len();
            let path = format!("results/rules/{name}.jrul");
            match write_atomic(&path, &bytes) {
                Ok(()) => println!(
                    "{name:<16} {:>6} rules ({:>8} bytes) -> {path}",
                    file.rules.len(),
                    bytes.len()
                ),
                Err(e) => {
                    eprintln!("error: failed to write {path}: {e}");
                    failures += 1;
                }
            }
        }
        println!("total: {total} rewrite rules");
    }
    if which.iter().any(|w| w == "report") {
        let case_id: usize = which
            .iter()
            .skip_while(|w| *w != "report")
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        match juliet_report(&ew, case_id) {
            Some(reports) if !reports.is_empty() => {
                for rep in &reports {
                    print!("{}", rep.render_text());
                    if let Some(dir) = reports_dir.as_ref().map(std::path::Path::new) {
                        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| {
                            write_atomic(
                                dir.join(format!("{}.json", rep.id)),
                                rep.to_json().render_pretty().as_bytes(),
                            )
                        }) {
                            eprintln!("error: failed to write report JSON: {e}");
                            failures += 1;
                        }
                    }
                }
            }
            Some(_) => println!("case {case_id}: no violation detected"),
            None => {
                eprintln!("unknown Juliet case `{case_id}` (see fig10 suite)");
                errors += 1;
            }
        }
    }
    if which.iter().any(|w| w == "disasm") {
        let target = which
            .iter()
            .skip_while(|w| *w != "disasm")
            .nth(1)
            .cloned()
            .unwrap_or_else(|| "gcc".into());
        match ew.world.store.get(&target) {
            Some(image) => {
                let cfg = janitizer_analysis::analyze_module(&image);
                print!("{}", janitizer_analysis::disassemble(&image, &cfg));
            }
            None => {
                eprintln!("unknown module `{target}`");
                errors += 1;
            }
        }
    }
    if want("soundness") {
        println!("== 6.2.2 soundness: false positives on benign runs ==");
        println!("{:<12}{:>14}{:>10}", "benchmark", "Lockdown(S)", "JCFI");
        for (name, ld, jc) in soundness(&ew) {
            println!("{name:<12}{ld:>14}{jc:>10}");
        }
    }
    if which.iter().any(|w| w == "gauntlet") {
        // Hostile-module gauntlet: every hostility class analyzed and run
        // under the analyzer and the no-evidence ablation. A failing cell
        // (a panic, an engine error, or a lost detection) fails the process.
        let r = hostile_gauntlet(&ew.flight);
        print!("{}", r.render());
        let write_all = || -> std::io::Result<()> {
            std::fs::create_dir_all("results")?;
            write_atomic("results/hostile-gauntlet.csv", r.to_csv().as_bytes())?;
            write_atomic("results/hostile-gauntlet.json", r.to_json().as_bytes())?;
            Ok(())
        };
        match write_all() {
            Ok(()) => {
                eprintln!("gauntlet results written to results/hostile-gauntlet.{{csv,json}}")
            }
            Err(e) => {
                eprintln!("error: failed to write results/hostile-gauntlet.{{csv,json}}: {e}");
                failures += 1;
            }
        }
        if !r.all_ok() {
            eprintln!("gauntlet: one or more cells failed their oracle");
            errors += 1;
        }
    }
    if which.iter().any(|w| w == "serve") {
        // Supervised analysis service: deterministic multi-client
        // simulation with byte-parity verification against fresh
        // in-process analyses. The summary is deterministic (stdout);
        // scheduling-dependent supervision counters go to stderr.
        let run = serve_sim(&ew, &serve_cfg);
        print!("{}", run.summary);
        let stats = run.stats;
        eprintln!(
            "serve: served={} degraded={} timeouts={} panics_isolated={} retries={} \
             store_failures={} peak_in_flight={} from_memory={} from_store={} from_analysis={}",
            stats.served,
            stats.degraded,
            stats.timeouts,
            stats.panics_isolated,
            stats.retries,
            stats.store_failures,
            stats.peak_in_flight,
            stats.memory,
            stats.store,
            stats.analyzed
        );
        let parity_bad = run.summary.contains("MISMATCH");
        let json = serve_summary_json(&serve_cfg, &stats, parity_bad);
        let path = format!("{out_dir}/serve-summary.json");
        match std::fs::create_dir_all(&out_dir).and_then(|()| write_atomic(&path, json.as_bytes()))
        {
            Ok(()) => eprintln!("serve summary written to {path}"),
            Err(e) => {
                eprintln!("error: failed to write {path}: {e}");
                failures += 1;
            }
        }
        if let Some(dir) = &metrics_out {
            // Live-metrics snapshot: the deterministic serve-metrics
            // document (byte-identical across --threads), the host-side
            // latency/queue document, and the OpenMetrics exposition.
            let write_all = || -> std::io::Result<()> {
                std::fs::create_dir_all(dir)?;
                write_atomic(
                    format!("{dir}/serve-metrics.json"),
                    run.metrics_json.as_bytes(),
                )?;
                write_atomic(
                    format!("{dir}/serve-metrics-host.json"),
                    run.host_metrics_json.as_bytes(),
                )?;
                write_atomic(
                    format!("{dir}/serve-metrics.om"),
                    run.openmetrics.as_bytes(),
                )?;
                Ok(())
            };
            match write_all() {
                Ok(()) => eprintln!("serve metrics written to {dir}/serve-metrics.{{json,om}}"),
                Err(e) => {
                    eprintln!("error: failed to write serve metrics under {dir}: {e}");
                    failures += 1;
                }
            }
            if ew.flight.is_armed() {
                match ew.flight.dump_to(std::path::Path::new(dir), "snapshot") {
                    Some(p) => eprintln!("flight black box written to {}", p.display()),
                    None => eprintln!("error: failed to write flight black box under {dir}"),
                }
            }
        }
        if parity_bad {
            eprintln!("serve: byte-parity violation detected");
            errors += 1;
        }
    }

    if all {
        // Measured serial-vs-parallel speedup: re-run fig14 at one thread
        // against the figure's recorded parallel wall time. The rule
        // cache is warm for both sides, so the ratio isolates the thread
        // fan-out (the cache's own win shows up in the hit counters).
        let workers = ew.config.workers();
        let serial_parallel = if workers > 1 {
            let t0 = std::time::Instant::now();
            let _ = fig14(&ew);
            let parallel_ms = t0.elapsed().as_secs_f64() * 1e3;
            ew.config.threads = 1;
            let t1 = std::time::Instant::now();
            let _ = fig14(&ew);
            let serial_ms = t1.elapsed().as_secs_f64() * 1e3;
            ew.config.threads = threads_flag;
            Some((serial_ms, parallel_ms))
        } else {
            None
        };
        match write_bench(&per_figure, workers, ew.cache.stats(), serial_parallel) {
            Ok(()) => eprintln!("benchmark summary written to BENCH_eval.json"),
            Err(e) => {
                eprintln!("error: failed to write BENCH_eval.json: {e}");
                failures += 1;
            }
        }
        let store_stats = rule_store.as_ref().map(|st| st.stats());
        match append_bench_history(&per_figure, workers, ew.cache.stats(), store_stats) {
            Ok(()) => eprintln!("benchmark history appended to BENCH_history.jsonl"),
            Err(e) => {
                eprintln!("error: failed to append BENCH_history.jsonl: {e}");
                failures += 1;
            }
        }
    }

    if let Some(target) = &explain_target {
        // `explain <figure|workload>`: run the target with profiling
        // armed and export the three overhead-attribution artifacts.
        ew.config.profile = true;
        if let Some(r) = run_figure(&ew, target) {
            print!("{}", r.render());
        } else if let Some(idx) = ew
            .world
            .workloads
            .iter()
            .position(|w| w.name == target.as_str())
        {
            // One workload under the representative tool configurations.
            const EXPLAIN_CONFIGS: &[ToolConfig] = &[
                ToolConfig::NullClient,
                ToolConfig::Valgrind,
                ToolConfig::JasanDyn,
                ToolConfig::JasanHybrid,
                ToolConfig::JcfiHybrid,
                ToolConfig::BinCfi,
            ];
            for cfg in EXPLAIN_CONFIGS {
                if run_config(&ew, idx, *cfg).is_none() {
                    eprintln!("explain: {} is inapplicable to `{target}`", cfg.label());
                }
            }
        } else {
            eprintln!(
                "explain: unknown target `{target}` (expected fig7..fig14 except fig10, \
                 or a workload name)"
            );
            std::process::exit(2);
        }
        let profiles = ew.take_profiles();
        println!("\n== overhead budgets ({target}) ==");
        write_explain_artifacts(target, top, &out_dir, &profiles, &mut failures);
    }

    if inject.is_some() {
        let rows = ew.degraded_summary();
        let total: u64 = rows.iter().map(|(_, _, n)| n).sum();
        let modules: std::collections::BTreeSet<&str> =
            rows.iter().map(|(m, _, _)| m.as_str()).collect();
        println!(
            "degraded: {total} module load(s) fell back to dynamic-only mode across {} module(s)",
            modules.len()
        );
        for (module, reason, n) in &rows {
            println!("  {module}: {reason} x{n}");
        }
    }

    if let Some(st) = &rule_store {
        eprintln!("{}", janitizer_store::stats_line(&st.stats()));
        let (files, bytes) = st.quarantine_usage();
        if files > 0 || quarantine_limit.is_some() {
            eprintln!(
                "store quarantine: {files} entr{} ({bytes} bytes)",
                if files == 1 { "y" } else { "ies" }
            );
        }
        if let Some(limit) = quarantine_limit {
            let removed = st.prune_quarantine(limit);
            if removed > 0 {
                eprintln!("store quarantine: pruned {removed} oldest past the limit of {limit}");
            }
        }
    } else if quarantine_limit.is_some() {
        eprintln!("--quarantine-limit has no effect without --store");
    }

    if failures > 0 {
        eprintln!("{failures} result file(s) could not be written");
    }
    if errors > 0 {
        eprintln!("{errors} request(s) or check(s) failed");
    }
    if failures + errors > 0 {
        std::process::exit(1);
    }
}
