//! The Janitizer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <spec-protect|juliet-triage|analyze-serve> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in one process and one closed loop (one op at a
//! time), checks every op's output, and prints one JSON object as the
//! last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Progress and the
//! per-layer self-time table go to standard error. `README.md` in this
//! directory documents the workloads and the metric map.

mod hybrid;
mod juliet;
mod layers;
mod serve;
mod spec;
mod stats;
mod trace;

use janitizer_core::{RuleCache, SecurityPlugin};
use janitizer_obj::Image;
use janitizer_telemetry::json::Json;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// How one run is configured.
#[derive(Clone, Debug)]
pub struct Config {
    /// Picks the workload's inputs; the program only receives them.
    pub seed: u64,
    /// Measurement time; whole passes over the inputs run until it is
    /// spent (at least one pass, two when traced).
    pub seconds: f64,
    /// Record per-layer spans (every other pass) instead of measuring
    /// end to end.
    pub trace: bool,
    /// Corrupts the expected result of the first op, so the output
    /// check must count exactly one failed op. Used by the smoke test.
    pub sabotage: bool,
    /// Input scale of the SPEC-shaped programs.
    pub scale: f64,
}

/// One named metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A workload's result.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Op latencies and verdicts of one run.
#[derive(Default)]
pub struct Ops {
    /// Latencies of untraced ops, in ms.
    pub ms: Vec<f64>,
    /// Latencies of traced ops, in ms.
    pub traced_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn with_capacity(n: usize) -> Ops {
        Ops {
            ms: Vec::with_capacity(n),
            ..Ops::default()
        }
    }

    /// Records one op's latency and whether its output checked out.
    pub fn record(&mut self, ms: f64, traced: bool, ok: bool) {
        if traced {
            self.traced_ms.push(ms);
        } else {
            self.ms.push(ms);
        }
        self.count(ok);
    }

    /// Counts a checked operation without a latency sample.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The end-to-end metrics every workload reports, from its untraced
    /// ops.
    pub fn common_metrics(&self, setup_s: f64) -> Vec<Metric> {
        let total_s = self.ms.iter().sum::<f64>() / 1e3;
        vec![
            metric("setup_s", setup_s, "s"),
            metric("op_ms_p50", stats::quantile(&self.ms, 0.5), "ms"),
            metric("op_ms_p90", stats::quantile(&self.ms, 0.9), "ms"),
            metric(
                "ops_per_s",
                stats::ratio(self.ms.len() as f64, total_s),
                "1/s",
            ),
            metric("peak_rss_mb", stats::peak_rss_mib(), "MiB"),
        ]
    }
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Runs `setup` repeatedly, dropping each result before the next is
/// built, and returns the last result with the median set-up time. An
/// untraced run sets up at least 3 and at most 100 times, until half a
/// second is spent, so that short set-ups still give a steady median; a
/// traced run, which reports no set-up time, sets up once.
pub fn repeat_setup<S>(cfg: &Config, mut setup: impl FnMut() -> S) -> (S, f64) {
    let (min, max) = if cfg.trace { (1, 1) } else { (3, 100) };
    let mut times: Vec<f64> = Vec::new();
    let mut kept = None;
    while times.len() < min || (times.len() < max && times.iter().sum::<f64>() < 0.5) {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    eprintln!("set-up times (s): {times:?}");
    (kept.expect("at least one set-up"), stats::median(&times))
}

/// Runs whole passes until `cfg.seconds` are spent. In a traced run the
/// even passes are traced and the odd ones are not, so one run measures
/// the tracing overhead; the recorder is returned.
pub fn run_passes(cfg: &Config, mut pass: impl FnMut(bool)) -> Option<trace::Recorder> {
    let mut parked = None;
    if cfg.trace {
        trace::start();
        parked = trace::finish();
    }
    let min_passes = if cfg.trace { 2 } else { 1 };
    let t = Instant::now();
    let mut n = 0;
    loop {
        let traced = cfg.trace && n % 2 == 0;
        if traced {
            trace::resume(parked.take().expect("recorder is parked between passes"));
        }
        let tp = Instant::now();
        pass(traced);
        eprintln!(
            "pass {n}: {:.3} s{}",
            tp.elapsed().as_secs_f64(),
            if traced { " (traced)" } else { "" }
        );
        if traced {
            parked = trace::finish();
        }
        n += 1;
        if n >= min_passes && t.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    eprintln!("{n} passes in {:.2} s", t.elapsed().as_secs_f64());
    parked
}

/// `(module, plugin)` rule-cache keys.
pub type CacheKeys<'a> = [(Arc<Image>, &'a dyn SecurityPlugin)];

/// Timed cold fills of fresh rule caches: what a restarted process
/// without a rule store pays before its first run.
#[derive(Default)]
pub struct ColdFills {
    /// Latency of each (module, plugin) fill, in ms.
    pub ms: Vec<f64>,
    kib: f64,
    secs: f64,
}

impl ColdFills {
    /// Fills a fresh cache with every `(image, plugin)` key, timing each.
    pub fn fill(&mut self, keys: &CacheKeys) -> Arc<RuleCache> {
        let cache = Arc::new(RuleCache::new());
        for (image, plugin) in keys {
            self.fill_one(&cache, image, *plugin);
        }
        cache
    }

    /// Fills one key of `cache`, which must not hold it yet, and times it.
    pub fn fill_one(&mut self, cache: &RuleCache, image: &Arc<Image>, plugin: &dyn SecurityPlugin) {
        let t = Instant::now();
        cache.get_or_analyze(image, plugin, true);
        let dt = t.elapsed().as_secs_f64();
        self.ms.push(dt * 1e3);
        self.secs += dt;
        self.kib += image.code_bytes() as f64 / 1024.0;
    }

    /// KiB of module code analyzed per second of fill time.
    pub fn kib_per_s(&self) -> f64 {
        stats::ratio(self.kib, self.secs)
    }
}

/// Directory, inside the working directory, for the run's scratch
/// files and trace output.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).expect("create .bench_out");
    dir
}

fn parse_args() -> Result<(String, Config), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let cfg = Config {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        sabotage: false,
        scale: spec::SCALE,
    };
    Ok((workload, cfg))
}

/// Runs one workload by name.
pub fn run_workload(workload: &str, cfg: &Config) -> Result<Report, String> {
    match workload {
        "spec-protect" => Ok(spec::run(cfg)),
        "juliet-triage" => Ok(juliet::run(cfg)),
        "analyze-serve" => Ok(serve::run(cfg)),
        _ => Err(format!("unknown workload `{workload}`")),
    }
}

fn result_json(r: &Report) -> String {
    let metrics = r.metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::F64(m.value)), ("unit", Json::str(m.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(r.failed == 0)),
        ("attempted", Json::U64(r.attempted)),
        ("failed", Json::U64(r.failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

fn main() {
    let (workload, cfg) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run_workload(&workload, &cfg) {
        Ok(report) => println!("{}", result_json(&report)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKLOADS: [&str; 3] = ["spec-protect", "juliet-triage", "analyze-serve"];

    /// The metric names `BENCHMARK.json` lists under `section`.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("section lists metrics")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("named")
                    .to_string()
            })
            .collect()
    }

    /// One run at minimum size: one pass (two when traced), and the
    /// SPEC-shaped programs at a fifth of the benchmark's scale.
    fn smoke(workload: &str, trace: bool, sabotage: bool) -> Json {
        let cfg = Config {
            seed: 3,
            seconds: 0.0,
            trace,
            sabotage,
            scale: spec::SCALE / 5.0,
        };
        let report = run_workload(workload, &cfg).expect("known workload");
        Json::parse(&result_json(&report)).expect("the result line is JSON")
    }

    #[test]
    fn every_metric_is_printed_with_its_unit() {
        for workload in WORKLOADS {
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let r = smoke(workload, trace, false);
                assert_eq!(
                    r.get("failed").and_then(Json::as_u64),
                    Some(0),
                    "{workload}"
                );
                assert!(r.get("attempted").and_then(Json::as_u64).unwrap() > 0);
                let metrics = r.get("metrics").and_then(Json::as_obj).expect("metrics");
                let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(names, declared(section), "{workload} {section}");
                for (name, m) in metrics {
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    let value = m
                        .get("value")
                        .and_then(Json::as_f64)
                        .expect("numeric value");
                    assert!(!unit.is_empty() && value.is_finite(), "{workload} {name}");
                    assert!(trace || value > 0.0, "{workload} {name} reads {value}");
                }
            }
        }
    }

    #[test]
    fn a_wrong_expectation_fails_exactly_one_op() {
        for workload in ["spec-protect", "juliet-triage"] {
            let r = smoke(workload, false, true);
            assert_eq!(
                r.get("failed").and_then(Json::as_u64),
                Some(1),
                "{workload}"
            );
            assert_eq!(r.get("correct"), Some(&Json::Bool(false)));
        }
    }

    #[test]
    fn traced_runs_match_plain_runs() {
        let world = janitizer_workloads::build_world(&janitizer_workloads::BuildOptions {
            scale: 0.05,
            ..Default::default()
        });
        let cache = Arc::new(RuleCache::new());
        for name in ["mcf", "gcc", "lbm"] {
            let opts = janitizer_core::HybridOptions {
                load: janitizer_vm::LoadOptions {
                    preload: vec![janitizer_jasan::RT_MODULE.into()],
                    ..Default::default()
                },
                rule_cache: Some(Arc::clone(&cache)),
                ..Default::default()
            };
            let jasan = janitizer_jasan::Jasan::hybrid;
            let plain = hybrid::run(&world.store, name, jasan(), &opts, "jasan.on_start").unwrap();
            trace::start();
            let traced = hybrid::run(&world.store, name, jasan(), &opts, "jasan.on_start").unwrap();
            let rec = trace::finish().expect("recording");
            assert!(!rec.spans.is_empty());
            assert_eq!(plain.outcome, traced.outcome, "{name}");
            assert_eq!(plain.cycles, traced.cycles, "{name}");
            assert_eq!(plain.stdout, traced.stdout, "{name}");
            assert_eq!(
                plain.stats.blocks_translated,
                traced.stats.blocks_translated
            );
            assert_eq!(plain.coverage.static_blocks, traced.coverage.static_blocks);
        }
    }
}
