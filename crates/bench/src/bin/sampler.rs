//! Samples the host CPU while the SPEC-shaped programs run under the
//! chosen tools, and prints the out-of-line functions ranked by samples.
//!
//! ```text
//! cargo run --release -p janitizer-bench --bin sampler -- \
//!     [--programs a,b,...] [--tools jasan,jcfi,null,native] \
//!     [--scale 0.25] [--seconds 10]
//! ```
//!
//! It samples every millisecond of process CPU time and prints the top
//! 25 functions. Set-up (world build, native references, rule-cache warm-up) runs
//! before the timer is armed, so the table covers steady-state guest
//! runs only. Every run's exit code and stdout are checked against the
//! native reference; mismatches are counted as failed runs.

use janitizer_bench::sampler::{rank, table, Sampler, Symbolizer};
use janitizer_core::{
    dependency_closure, run_hybrid, run_native, HybridOptions, RuleCache, SecurityPlugin,
};
use janitizer_dbt::{Engine, EngineOptions, NullTool};
use janitizer_jasan::{Jasan, RT_MODULE};
use janitizer_jcfi::Jcfi;
use janitizer_vm::{load_process, LoadOptions};
use janitizer_workloads::{build_world, BuildOptions, World};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FUEL: u64 = 30_000_000_000;
const TOOLS: [&str; 4] = ["jasan", "jcfi", "null", "native"];
/// Process CPU time between two samples.
const INTERVAL_US: u64 = 1000;
/// Rows of the printed table.
const TOP: usize = 25;

struct Config {
    programs: Vec<String>,
    tools: Vec<String>,
    scale: f64,
    seconds: f64,
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        programs: Vec::new(),
        tools: vec!["jasan".into(), "jcfi".into()],
        scale: 0.25,
        seconds: 10.0,
    };
    let list = |v: &str| {
        v.split(',')
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--programs" => cfg.programs = list(&value),
            "--tools" => cfg.tools = list(&value),
            "--scale" => cfg.scale = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if let Some(t) = cfg.tools.iter().find(|t| !TOOLS.contains(&t.as_str())) {
        return Err(format!(
            "unknown tool {t} (expected one of {})",
            TOOLS.join(",")
        ));
    }
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if cfg.tools.is_empty() || !positive(cfg.scale) || !positive(cfg.seconds) {
        return Err("--tools, --scale and --seconds must be non-empty/positive".into());
    }
    Ok(cfg)
}

fn load(world: &World, prog: usize, tool: &str) -> LoadOptions {
    LoadOptions {
        args: vec![world.args[prog]],
        preload: if tool == "jasan" {
            vec![RT_MODULE.into()]
        } else {
            Vec::new()
        },
        ..LoadOptions::default()
    }
}

/// One guest run; returns `(exit code, stdout, guest instructions)`.
fn run_one(
    world: &World,
    prog: usize,
    tool: &str,
    cache: &Arc<RuleCache>,
) -> Option<(i64, String, u64)> {
    let name = world.workloads[prog].name;
    let opts = HybridOptions {
        load: load(world, prog, tool),
        fuel: FUEL,
        rule_cache: Some(Arc::clone(cache)),
        ..HybridOptions::default()
    };
    let hybrid = |r: janitizer_core::HybridRun| Some((r.outcome.code()?, r.stdout, r.insns));
    match tool {
        "jasan" => hybrid(run_hybrid(&world.store, name, Jasan::hybrid(), &opts).ok()?),
        "jcfi" => hybrid(run_hybrid(&world.store, name, Jcfi::hybrid(), &opts).ok()?),
        "null" => {
            let mut p = load_process(&world.store, name, &opts.load).ok()?;
            let out = Engine::new(EngineOptions::default()).run(&mut p, &mut NullTool, FUEL);
            Some((out.code()?, p.stdout_string(), p.insns))
        }
        _ => {
            let (exit, p) = run_native(&world.store, name, &opts.load, FUEL).ok()?;
            Some((exit.code()?, p.stdout_string(), p.insns))
        }
    }
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("sampler: {e}");
            return ExitCode::from(2);
        }
    };
    let world = build_world(&BuildOptions {
        scale: cfg.scale,
        ..BuildOptions::default()
    });
    let progs: Vec<usize> = if cfg.programs.is_empty() {
        (0..world.workloads.len()).collect()
    } else {
        let mut v = Vec::new();
        for p in &cfg.programs {
            match world.workloads.iter().position(|w| w.name == p) {
                Some(i) => v.push(i),
                None => {
                    eprintln!("sampler: unknown program {p}");
                    return ExitCode::from(2);
                }
            }
        }
        v
    };
    // Native references, then every rule file the runs will look up.
    let expected: Vec<(i64, String)> = progs
        .iter()
        .map(|&p| {
            let (exit, proc) = run_native(
                &world.store,
                world.workloads[p].name,
                &load(&world, p, "native"),
                FUEL,
            )
            .expect("workload loads");
            (
                exit.code().expect("native reference exits"),
                proc.stdout_string(),
            )
        })
        .collect();
    let cache = Arc::new(RuleCache::new());
    let (jasan, jcfi) = (Jasan::hybrid(), Jcfi::hybrid());
    for (tool, plugin) in [("jasan", &jasan as &dyn SecurityPlugin), ("jcfi", &jcfi)] {
        if !cfg.tools.iter().any(|t| t == tool) {
            continue;
        }
        let mut roots: Vec<String> = progs
            .iter()
            .map(|&p| world.workloads[p].name.to_string())
            .collect();
        if tool == "jasan" {
            roots.push(RT_MODULE.into());
        }
        roots.push("ld.so".into());
        for name in dependency_closure(&world.store, &roots) {
            if let Some(image) = world.store.get(&name) {
                cache.get_or_analyze(&image, plugin, true);
            }
        }
    }
    let symbolizer = match Symbolizer::for_self() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sampler: {e}");
            return ExitCode::FAILURE;
        }
    };

    let budget = Duration::from_secs_f64(cfg.seconds);
    let capacity = (cfg.seconds * 1e6 / INTERVAL_US as f64) as usize * 2 + 1024;
    let sampler = match Sampler::start(INTERVAL_US, capacity) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sampler: {e}");
            return ExitCode::FAILURE;
        }
    };
    let t0 = Instant::now();
    let (mut runs, mut failed, mut insns) = (0u64, 0u64, 0u64);
    'outer: loop {
        for (i, &p) in progs.iter().enumerate() {
            for tool in &cfg.tools {
                if t0.elapsed() >= budget {
                    break 'outer;
                }
                runs += 1;
                match run_one(&world, p, tool, &cache) {
                    Some((code, stdout, n))
                        if (code, &stdout) == (expected[i].0, &expected[i].1) =>
                    {
                        insns += n
                    }
                    _ => {
                        failed += 1;
                        eprintln!(
                            "sampler: {} under {tool} failed its check",
                            world.workloads[p].name
                        );
                    }
                }
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let samples = sampler.stop();
    let rows = rank(&samples, &symbolizer);

    let programs = if cfg.programs.is_empty() {
        format!("all({})", progs.len())
    } else {
        cfg.programs.join(",")
    };
    println!(
        "sampler: programs={programs} tools={} scale={} seconds={}",
        cfg.tools.join(","),
        cfg.scale,
        cfg.seconds
    );
    println!(
        "runs={runs} failed={failed} guest_insns={insns} guest_mips={:.1} wall_s={wall:.2} samples={} dropped={}",
        insns as f64 / wall / 1e6,
        samples.rips.len(),
        samples.dropped
    );
    print!("{}", table(&rows, TOP));
    if failed > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
