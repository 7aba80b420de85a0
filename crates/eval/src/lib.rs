//! # Evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§6) on
//! the synthetic substrate: run [`build_eval_world`] once, then each
//! `figN` function produces a [`FigResult`] whose rows mirror the paper's
//! series. The `janitizer-eval` binary prints them; `EXPERIMENTS.md`
//! records paper-vs-measured values.

use janitizer_baselines::{
    bincfi_static_air, lockdown_costs, memcheck_costs, memcheck_runtime, retrowrite_applicable,
    static_rewriter_costs, CfiBaseline, CfiPolicy, Memcheck, Retrowrite, MEMCHECK_RT,
};
use janitizer_core::{
    rules_from_disasm, run_hybrid, run_native, EngineOptions, FaultInjection, HybridOptions,
    HybridRun, RuleCache, RunOutcome, RunProfile, SecurityPlugin, StaticContext, TbItem,
    ViolationReport,
};
use janitizer_dbt::DecodedBlock;
use janitizer_jasan::{Jasan, RT_MODULE};
use janitizer_jcfi::{static_air, CtiKind, Jcfi};
use janitizer_obj::Image;
use janitizer_rules::RewriteRule;
use janitizer_vm::{LoadOptions, ModuleStore, Process};
use janitizer_workloads::{
    build_case, build_world, juliet_suite, BuildOptions, JulietCategory, World,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

#[cfg(test)]
mod tests;

/// One figure/table reproduction: named columns over per-workload rows.
#[derive(Clone, Debug)]
pub struct FigResult {
    /// Figure identifier and caption.
    pub title: String,
    /// Column (series) names.
    pub columns: Vec<String>,
    /// `(workload, value-per-column)`; `None` renders as the paper's ✗.
    pub rows: Vec<(String, Vec<Option<f64>>)>,
    /// Whether higher is better (AIR) or lower (slowdown).
    pub higher_is_better: bool,
    /// Summarize with the arithmetic mean (percent figures) instead of
    /// geometric means.
    pub use_mean: bool,
}

impl FigResult {
    /// Geometric mean per column over rows where the column has a value.
    pub fn geomean(&self) -> Vec<Option<f64>> {
        (0..self.columns.len())
            .map(|c| {
                let vals: Vec<f64> = self
                    .rows
                    .iter()
                    .filter_map(|(_, vs)| vs[c])
                    .filter(|v| *v > 0.0)
                    .collect();
                if vals.is_empty() {
                    None
                } else {
                    Some((vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp())
                }
            })
            .collect()
    }

    /// Geometric mean restricted to rows where *every* column has a value
    /// (the paper's `geomean-x`).
    pub fn geomean_x(&self) -> Vec<Option<f64>> {
        let full: Vec<&Vec<Option<f64>>> = self
            .rows
            .iter()
            .filter(|(_, vs)| vs.iter().all(Option::is_some))
            .map(|(_, vs)| vs)
            .collect();
        (0..self.columns.len())
            .map(|c| {
                let vals: Vec<f64> = full.iter().filter_map(|vs| vs[c]).collect();
                if vals.is_empty() {
                    None
                } else {
                    Some((vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp())
                }
            })
            .collect()
    }

    /// Arithmetic mean per column (used for percentage figures).
    pub fn mean(&self) -> Vec<Option<f64>> {
        (0..self.columns.len())
            .map(|c| {
                let vals: Vec<f64> = self.rows.iter().filter_map(|(_, vs)| vs[c]).collect();
                if vals.is_empty() {
                    None
                } else {
                    Some(vals.iter().sum::<f64>() / vals.len() as f64)
                }
            })
            .collect()
    }

    /// Renders an aligned text table (the harness output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let _ = write!(out, "{:<12}", "benchmark");
        for c in &self.columns {
            let _ = write!(out, "{c:>16}");
        }
        let _ = writeln!(out);
        let fmt = |v: &Option<f64>| match v {
            Some(x) => format!("{x:.3}"),
            None => "x".into(),
        };
        for (name, vs) in &self.rows {
            let _ = write!(out, "{name:<12}");
            for v in vs {
                let _ = write!(out, "{:>16}", fmt(v));
            }
            let _ = writeln!(out);
        }
        if self.use_mean {
            let means: Vec<Option<f64>> = (0..self.columns.len())
                .map(|c| {
                    let vals: Vec<f64> = self.rows.iter().filter_map(|(_, vs)| vs[c]).collect();
                    if vals.is_empty() {
                        None
                    } else {
                        Some(vals.iter().sum::<f64>() / vals.len() as f64)
                    }
                })
                .collect();
            let _ = write!(out, "{:<12}", "mean");
            for v in &means {
                let _ = write!(out, "{:>16}", fmt(v));
            }
            let _ = writeln!(out);
        } else {
            let _ = write!(out, "{:<12}", "geomean");
            for v in &self.geomean() {
                let _ = write!(out, "{:>16}", fmt(v));
            }
            let _ = writeln!(out);
            let _ = write!(out, "{:<12}", "geomean-x");
            for v in &self.geomean_x() {
                let _ = write!(out, "{:>16}", fmt(v));
            }
            let _ = writeln!(out);
        }
        out
    }

    /// JSON rendering (for archival next to the CSVs).
    pub fn to_json(&self) -> String {
        use janitizer_telemetry::json::Json;
        Json::obj([
            ("title", Json::str(self.title.clone())),
            (
                "columns",
                Json::Arr(self.columns.iter().map(|c| Json::str(c.clone())).collect()),
            ),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|(name, vs)| {
                            Json::Arr(vec![
                                Json::str(name.clone()),
                                Json::Arr(vs.iter().map(|v| Json::from(*v)).collect()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("higher_is_better", Json::Bool(self.higher_is_better)),
            ("use_mean", Json::Bool(self.use_mean)),
        ])
        .render_pretty()
    }

    /// CSV rendering for downstream plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "benchmark,{}", self.columns.join(","));
        for (name, vs) in &self.rows {
            let cells: Vec<String> = vs
                .iter()
                .map(|v| v.map(|x| format!("{x:.4}")).unwrap_or_default())
                .collect();
            let _ = writeln!(out, "{name},{}", cells.join(","));
        }
        out
    }
}

/// A pass-through plugin measuring pure engine overhead (the figures'
/// "Null client").
#[derive(Debug, Default)]
pub struct NullPlugin;

impl SecurityPlugin for NullPlugin {
    fn name(&self) -> &str {
        "null"
    }
    fn static_pass(&self, _image: &Image, _ctx: &StaticContext) -> Vec<RewriteRule> {
        Vec::new()
    }
    fn instrument_static(
        &mut self,
        _proc: &mut Process,
        block: &DecodedBlock,
        _rules: &janitizer_core::BlockRules<'_>,
    ) -> Vec<TbItem> {
        block
            .insns
            .iter()
            .map(|&(pc, i, n)| TbItem::Guest(pc, i, n))
            .collect()
    }
    fn instrument_dynamic(&mut self, _proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
        block
            .insns
            .iter()
            .map(|&(pc, i, n)| TbItem::Guest(pc, i, n))
            .collect()
    }
}

/// The tool configurations of the paper's figures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ToolConfig {
    /// Native execution (the baseline denominator).
    Native,
    /// DynamoRIO-style null client.
    NullClient,
    /// Valgrind/Memcheck-like dynamic-only sanitizer.
    Valgrind,
    /// JASan without static analysis.
    JasanDyn,
    /// RetroWrite-like static-only sanitizer.
    Retrowrite,
    /// JASan hybrid, conservative save/restore (Figure 8 "base").
    JasanHybridBase,
    /// JASan hybrid with liveness optimization (the headline config).
    JasanHybrid,
    /// Lockdown with its strong policy.
    LockdownStrong,
    /// Lockdown with its weak policy.
    LockdownWeak,
    /// JCFI without static analysis.
    JcfiDyn,
    /// JCFI hybrid.
    JcfiHybrid,
    /// JCFI forward-edge only (Figure 11).
    JcfiForwardOnly,
    /// BinCFI-like static CFI.
    BinCfi,
}

impl ToolConfig {
    /// Stable label used in profile artifacts and result keys.
    pub fn label(&self) -> &'static str {
        match self {
            ToolConfig::Native => "native",
            ToolConfig::NullClient => "null-client",
            ToolConfig::Valgrind => "valgrind",
            ToolConfig::JasanDyn => "jasan-dyn",
            ToolConfig::Retrowrite => "retrowrite",
            ToolConfig::JasanHybridBase => "jasan-hybrid-base",
            ToolConfig::JasanHybrid => "jasan-hybrid",
            ToolConfig::LockdownStrong => "lockdown-strong",
            ToolConfig::LockdownWeak => "lockdown-weak",
            ToolConfig::JcfiDyn => "jcfi-dyn",
            ToolConfig::JcfiHybrid => "jcfi-hybrid",
            ToolConfig::JcfiForwardOnly => "jcfi-forward",
            ToolConfig::BinCfi => "bincfi",
        }
    }
}

/// Result of one tool×workload run.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Slowdown relative to native cycles.
    pub slowdown: f64,
    /// Exit code (for cross-checking against native).
    pub code: Option<i64>,
    /// Security reports raised.
    pub reports: usize,
    /// Fraction of blocks only seen dynamically (percent).
    pub dynamic_fraction: f64,
    /// Dynamic AIR (CFI tools only).
    pub dair: Option<f64>,
    /// Dynamic AIR for indirect jumps only.
    pub dair_jumps: Option<f64>,
}

/// A run's inputs: everything a figure run reads besides the guest world
/// and its rule cache. A plain value carried by [`EvalWorld`], so two
/// worlds with different configurations can run side by side in one
/// process.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunConfig {
    /// Worker threads for the parallel fan-out (`0` = one per available
    /// core, `1` = the fully serial reference). Figure bytes are
    /// identical at any count.
    pub threads: usize,
    /// Collect overhead-attribution profiles into the world's profile
    /// sink ([`EvalWorld::take_profiles`]); `explain` sets this.
    pub profile: bool,
    /// When set (`--inject-faults`), every figure run routes its rule
    /// files through the untrusted serialize-verify-load path with seeded
    /// corruption, exercising the degraded dynamic-only mode under the
    /// real evaluation workloads. `None` (the default) keeps the trusted
    /// in-memory fast path and byte-identical figure output.
    pub inject: Option<FaultInjection>,
}

impl RunConfig {
    /// The effective worker-thread count.
    pub fn workers(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }
}

/// Per-`(workload, config-label)` map, in deterministic key order.
type CellMap<T> = Mutex<BTreeMap<(String, String), T>>;

/// The evaluation world: workloads plus the extra runtimes the baselines
/// need, the run's configuration, and the sinks its runs report into.
pub struct EvalWorld {
    /// The guest universe (including the Memcheck runtime).
    pub world: World,
    /// Analyze-once rule cache shared by every run of the invocation:
    /// each (module, plugin configuration) pair is statically analyzed at
    /// most once no matter how many figure cells execute it.
    pub cache: Arc<RuleCache>,
    /// The run's inputs.
    pub config: RunConfig,
    /// Tally of degraded module loads, keyed by `(module, reason)`.
    degraded: CellMap<u64>,
    /// Profile sink keyed by `(workload, config-label)`. Each cell merges
    /// only runs of the same workload (one address space, one
    /// deterministic layout), so merged profiles are byte-identical at
    /// any thread count: merging is a commutative sum and the key order
    /// is fixed.
    profiles: CellMap<RunProfile>,
}

impl EvalWorld {
    /// Wraps a built guest world with a cold rule cache and empty sinks,
    /// adding the Memcheck runtime when the world lacks it.
    pub fn new(mut world: World, config: RunConfig) -> EvalWorld {
        if world.store.get(MEMCHECK_RT).is_none() {
            world.store.add(memcheck_runtime());
        }
        EvalWorld {
            world,
            cache: Arc::new(RuleCache::new()),
            config,
            degraded: Mutex::default(),
            profiles: Mutex::default(),
        }
    }

    fn note_degraded(&self, run: &HybridRun) {
        if run.degraded.is_empty() {
            return;
        }
        let mut map = self.degraded.lock().unwrap_or_else(|e| e.into_inner());
        for d in &run.degraded {
            *map.entry((d.module.clone(), d.reason.as_str().to_string()))
                .or_insert(0) += 1;
        }
    }

    /// Snapshot of the degraded-module tally as `(module, reason, count)`
    /// rows in module order. Fed by every hybrid run the figures execute;
    /// read back by the CLI to print the degradation summary line.
    pub fn degraded_summary(&self) -> Vec<(String, String, u64)> {
        self.degraded
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|((m, r), n)| (m.clone(), r.clone(), *n))
            .collect()
    }

    fn note_profile(&self, workload: &str, label: &str, prof: RunProfile) {
        let mut map = self.profiles.lock().unwrap_or_else(|e| e.into_inner());
        match map.entry((workload.to_string(), label.to_string())) {
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&prof),
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(prof);
            }
        }
    }

    /// Drains the profiles collected while [`RunConfig::profile`] was set:
    /// `(workload, config-label) → profile` in deterministic key order.
    pub fn take_profiles(&self) -> BTreeMap<(String, String), RunProfile> {
        std::mem::take(&mut *self.profiles.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// Builds the evaluation world at the given input scale, with the
/// default [`RunConfig`].
pub fn build_eval_world(scale: f64) -> EvalWorld {
    let world = build_world(&BuildOptions {
        scale,
        ..BuildOptions::default()
    });
    EvalWorld::new(world, RunConfig::default())
}

/// Parses the `--inject-faults` argument: `seed=N,rate=R` in either
/// order (`rate` defaults to 1.0 when omitted).
pub fn parse_inject(spec: &str) -> Option<FaultInjection> {
    let mut fi = FaultInjection { seed: 0, rate: 1.0 };
    let mut saw_seed = false;
    for part in spec.split(',') {
        let (key, value) = part.split_once('=')?;
        match key.trim() {
            "seed" => {
                fi.seed = value.trim().parse().ok()?;
                saw_seed = true;
            }
            "rate" => {
                fi.rate = value.trim().parse().ok()?;
                if !(0.0..=1.0).contains(&fi.rate) {
                    return None;
                }
            }
            _ => return None,
        }
    }
    saw_seed.then_some(fi)
}

// The atomic writer moved into `janitizer-store` (every persistent
// artifact — store entries, journal, result files — now shares the one
// crash-safe primitive); re-exported here to keep the eval API stable.
pub use janitizer_store::atomic::{write_atomic, write_atomic_with};

/// Maps `f` over `items` on `workers` scoped OS threads, returning the
/// results **in item order** — the output is identical to a serial
/// `items.iter().map(f).collect()`, whatever the interleaving, so callers
/// stay byte-deterministic. Work is handed out through an atomic index
/// (no chunking) to keep long-running cells from serializing a chunk.
fn par_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let out: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                *out[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            });
        }
    });
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("worker filled its slot")
        })
        .collect()
}

const FUEL: u64 = 30_000_000_000;

fn base_opts(ew: &EvalWorld, load: LoadOptions) -> HybridOptions {
    HybridOptions {
        load,
        fuel: FUEL,
        rule_cache: Some(Arc::clone(&ew.cache)),
        inject_faults: ew.config.inject,
        profile: ew.config.profile,
        ..HybridOptions::default()
    }
}

/// Runs one workload under one tool configuration. `None` means the tool
/// is inapplicable to this binary (the figures' ✗ marks).
pub fn run_config(ew: &EvalWorld, idx: usize, cfg: ToolConfig) -> Option<RunSummary> {
    let w = &ew.world.workloads[idx];
    let args = vec![ew.world.args[idx]];
    let store = &ew.world.store;
    let plain_load = LoadOptions {
        args: args.clone(),
        ..LoadOptions::default()
    };
    let jasan_load = LoadOptions {
        args: args.clone(),
        preload: vec![RT_MODULE.into()],
        ..LoadOptions::default()
    };
    let memcheck_load = LoadOptions {
        args: args.clone(),
        preload: vec![MEMCHECK_RT.into()],
        ..LoadOptions::default()
    };

    let (native_exit, native_proc) = run_native(store, w.name, &plain_load, FUEL).ok()?;
    let native_cycles = native_proc.cycles.max(1);
    let native_code = native_exit.code();

    let summarize = |mut run: HybridRun, dair: Option<f64>, dair_jumps: Option<f64>| {
        ew.note_degraded(&run);
        if let Some(mut prof) = run.profile.take() {
            prof.native_cycles = Some(native_cycles);
            ew.note_profile(w.name, cfg.label(), prof);
        }
        RunSummary {
            slowdown: run.cycles as f64 / native_cycles as f64,
            code: run.outcome.code(),
            reports: run.engine.reports.len(),
            dynamic_fraction: run.coverage.dynamic_fraction(),
            dair,
            dair_jumps,
        }
    };

    let result = match cfg {
        ToolConfig::Native => RunSummary {
            slowdown: 1.0,
            code: native_code,
            reports: 0,
            dynamic_fraction: 0.0,
            dair: None,
            dair_jumps: None,
        },
        ToolConfig::NullClient => {
            let run = run_hybrid(store, w.name, NullPlugin, &base_opts(ew, plain_load)).ok()?;
            summarize(run, None, None)
        }
        ToolConfig::Valgrind => {
            let opts = HybridOptions {
                dynamic_only: true,
                engine: EngineOptions {
                    costs: memcheck_costs(),
                    ..Default::default()
                },
                ..base_opts(ew, memcheck_load)
            };
            let run = run_hybrid(store, w.name, Memcheck::new(), &opts).ok()?;
            summarize(run, None, None)
        }
        ToolConfig::JasanDyn => {
            let opts = HybridOptions {
                dynamic_only: true,
                ..base_opts(ew, jasan_load)
            };
            let run = run_hybrid(store, w.name, Jasan::hybrid(), &opts).ok()?;
            summarize(run, None, None)
        }
        ToolConfig::Retrowrite => {
            // Applicability: the main executable and the libraries it is
            // statically linked against must be PIC and reassembleable.
            let exe = store.get(w.name)?;
            retrowrite_applicable(&[&exe]).ok()?;
            let opts = HybridOptions {
                engine: EngineOptions {
                    costs: static_rewriter_costs(),
                    ..Default::default()
                },
                ..base_opts(ew, jasan_load)
            };
            let run = run_hybrid(store, w.name, Retrowrite::new(), &opts).ok()?;
            summarize(run, None, None)
        }
        ToolConfig::JasanHybridBase => {
            let run = run_hybrid(
                store,
                w.name,
                Jasan::hybrid_base(),
                &base_opts(ew, jasan_load),
            )
            .ok()?;
            summarize(run, None, None)
        }
        ToolConfig::JasanHybrid => {
            let run =
                run_hybrid(store, w.name, Jasan::hybrid(), &base_opts(ew, jasan_load)).ok()?;
            summarize(run, None, None)
        }
        ToolConfig::LockdownStrong | ToolConfig::LockdownWeak => {
            if w.lockdown_fails {
                return None;
            }
            let policy = if cfg == ToolConfig::LockdownStrong {
                CfiPolicy::LockdownStrong
            } else {
                CfiPolicy::LockdownWeak
            };
            let tool = CfiBaseline::new(policy);
            let state = std::rc::Rc::clone(&tool.state);
            let opts = HybridOptions {
                dynamic_only: true,
                engine: EngineOptions {
                    costs: lockdown_costs(),
                    halt_on_violation: false, // log-and-continue for FPs
                    ..Default::default()
                },
                ..base_opts(ew, plain_load)
            };
            let run = run_hybrid(store, w.name, tool, &opts).ok()?;
            let dair = state.borrow().dynamic_air();
            summarize(run, Some(dair), None)
        }
        ToolConfig::JcfiDyn | ToolConfig::JcfiHybrid | ToolConfig::JcfiForwardOnly => {
            let tool = if cfg == ToolConfig::JcfiForwardOnly {
                Jcfi::forward_only()
            } else {
                Jcfi::hybrid()
            };
            let state = std::rc::Rc::clone(&tool.state);
            let opts = HybridOptions {
                dynamic_only: cfg == ToolConfig::JcfiDyn,
                ..base_opts(ew, plain_load)
            };
            let run = run_hybrid(store, w.name, tool, &opts).ok()?;
            let (dair, dj) = {
                let st = state.borrow();
                (st.dynamic_air(), st.dynamic_air_of(CtiKind::Jump))
            };
            summarize(run, Some(dair), dj)
        }
        ToolConfig::BinCfi => {
            let exe = store.get(w.name)?;
            if !janitizer_baselines::reassembly_sound(&exe) {
                return None;
            }
            let tool = CfiBaseline::new(CfiPolicy::BinCfi);
            let state = std::rc::Rc::clone(&tool.state);
            let opts = HybridOptions {
                engine: EngineOptions {
                    costs: static_rewriter_costs(),
                    ..Default::default()
                },
                ..base_opts(ew, plain_load)
            };
            let run = run_hybrid(store, w.name, tool, &opts).ok()?;
            let dair = state.borrow().dynamic_air();
            summarize(run, Some(dair), None)
        }
    };
    Some(result)
}

fn fig_over_workloads(
    ew: &EvalWorld,
    title: &str,
    configs: &[(&str, ToolConfig)],
    metric: impl Fn(&RunSummary) -> Option<f64> + Sync,
    higher_is_better: bool,
) -> FigResult {
    // Every (workload, config) cell is an independent deterministic run;
    // fan them out and reassemble in fixed index order, so the table is
    // byte-identical to the serial nested loop at any thread count.
    let cells: Vec<(usize, ToolConfig)> = (0..ew.world.workloads.len())
        .flat_map(|i| configs.iter().map(move |(_, cfg)| (i, *cfg)))
        .collect();
    let vals = par_map(ew.config.workers(), &cells, |&(i, cfg)| {
        run_config(ew, i, cfg).and_then(|s| metric(&s))
    });
    let rows = ew
        .world
        .workloads
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let start = i * configs.len();
            (
                w.name.to_string(),
                vals[start..start + configs.len()].to_vec(),
            )
        })
        .collect();
    FigResult {
        title: title.into(),
        columns: configs.iter().map(|(n, _)| n.to_string()).collect(),
        rows,
        higher_is_better,
        use_mean: false,
    }
}

/// Figure 7: JASan overhead vs Valgrind, JASan-dyn, RetroWrite.
pub fn fig7(ew: &EvalWorld) -> FigResult {
    fig_over_workloads(
        ew,
        "Figure 7: JASan (binary ASan) slowdown on SPEC-shaped workloads",
        &[
            ("Valgrind", ToolConfig::Valgrind),
            ("JASan-dyn", ToolConfig::JasanDyn),
            ("Retrowrite", ToolConfig::Retrowrite),
            ("JASan-hybrid", ToolConfig::JasanHybrid),
        ],
        |s| Some(s.slowdown),
        false,
    )
}

/// Figure 8: JASan overhead breakdown.
pub fn fig8(ew: &EvalWorld) -> FigResult {
    fig_over_workloads(
        ew,
        "Figure 8: JASan overhead breakdown",
        &[
            ("Null-client", ToolConfig::NullClient),
            ("Hybrid-base", ToolConfig::JasanHybridBase),
            ("Hybrid-full", ToolConfig::JasanHybrid),
            ("JASan-dyn", ToolConfig::JasanDyn),
        ],
        |s| Some(s.slowdown),
        false,
    )
}

/// Figure 9: JCFI overhead vs Lockdown and BinCFI.
pub fn fig9(ew: &EvalWorld) -> FigResult {
    fig_over_workloads(
        ew,
        "Figure 9: JCFI slowdown vs Lockdown and BinCFI",
        &[
            ("Lockdown", ToolConfig::LockdownStrong),
            ("JCFI-dyn", ToolConfig::JcfiDyn),
            ("JCFI-hybrid", ToolConfig::JcfiHybrid),
            ("BinCFI", ToolConfig::BinCfi),
        ],
        |s| Some(s.slowdown),
        false,
    )
}

/// Figure 11: forward-only vs full JCFI.
pub fn fig11(ew: &EvalWorld) -> FigResult {
    fig_over_workloads(
        ew,
        "Figure 11: forward/backward contribution to JCFI overhead",
        &[
            ("Null-client", ToolConfig::NullClient),
            ("+Forward", ToolConfig::JcfiForwardOnly),
            ("+Backward", ToolConfig::JcfiHybrid),
        ],
        |s| Some(s.slowdown),
        false,
    )
}

/// Figure 12: dynamic AIR.
pub fn fig12(ew: &EvalWorld) -> FigResult {
    let mut r = fig_over_workloads(
        ew,
        "Figure 12: dynamic AIR (%) — higher is better",
        &[
            ("Lockdown(S)", ToolConfig::LockdownStrong),
            ("JCFI-dyn", ToolConfig::JcfiDyn),
            ("JCFI-hybrid", ToolConfig::JcfiHybrid),
            ("Lockdown(W)", ToolConfig::LockdownWeak),
        ],
        |s| s.dair,
        true,
    );
    r.use_mean = true;
    r
}

/// Figure 13: static AIR, JCFI vs BinCFI.
pub fn fig13(ew: &EvalWorld) -> FigResult {
    let mut rows = Vec::new();
    let libs: Vec<Image> = ["libjc.so", "libjf.so"]
        .iter()
        .filter_map(|n| ew.world.store.get(n).map(|a| (*a).clone()))
        .collect();
    for w in &ew.world.workloads {
        let Some(exe) = ew.world.store.get(w.name) else {
            rows.push((w.name.to_string(), vec![None, None]));
            continue;
        };
        let mut images: Vec<&Image> = vec![&exe];
        images.extend(libs.iter());
        let jcfi = Some(static_air(&images));
        let bincfi = if janitizer_baselines::reassembly_sound(&exe) {
            Some(bincfi_static_air(&images))
        } else {
            None
        };
        rows.push((w.name.to_string(), vec![jcfi, bincfi]));
    }
    FigResult {
        title: "Figure 13: static AIR (%) — higher is better".into(),
        columns: vec!["JCFI".into(), "BinCFI".into()],
        rows,
        higher_is_better: true,
        use_mean: true,
    }
}

/// Figure 14: fraction of basic blocks only discovered dynamically.
pub fn fig14(ew: &EvalWorld) -> FigResult {
    let mut r = fig_over_workloads(
        ew,
        "Figure 14: % of basic blocks seen only by the dynamic modifier",
        &[("Dynamic-code%", ToolConfig::JasanHybrid)],
        |s| Some(s.dynamic_fraction),
        false,
    );
    r.use_mean = true;
    r
}

/// Detector quality counts for the Juliet comparison (Figure 10).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JulietCounts {
    /// Good variants flagged (should be 0).
    pub false_positives: usize,
    /// Good variants passing.
    pub true_negatives: usize,
    /// Bad variants flagged.
    pub true_positives: usize,
    /// Bad variants missed.
    pub false_negatives: usize,
}

/// Figure 10: Juliet CWE-122 detector comparison.
#[derive(Clone, Debug)]
pub struct JulietResult {
    /// Valgrind/Memcheck counts.
    pub valgrind: JulietCounts,
    /// JASan counts.
    pub jasan: JulietCounts,
    /// Per-category JASan false negatives (diagnostics).
    pub jasan_fn_by_category: Vec<(JulietCategory, usize)>,
}

impl JulietResult {
    /// Renders the Figure 10 table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== Figure 10: Juliet CWE-122 (624 case pairs) ==");
        let _ = writeln!(out, "{:<28}{:>10}{:>10}", "", "Valgrind", "JASan");
        let _ = writeln!(
            out,
            "{:<28}{:>10}{:>10}",
            "good: False Positives", self.valgrind.false_positives, self.jasan.false_positives
        );
        let _ = writeln!(
            out,
            "{:<28}{:>10}{:>10}",
            "good: True Negatives", self.valgrind.true_negatives, self.jasan.true_negatives
        );
        let _ = writeln!(
            out,
            "{:<28}{:>10}{:>10}",
            "bad:  True Positives", self.valgrind.true_positives, self.jasan.true_positives
        );
        let _ = writeln!(
            out,
            "{:<28}{:>10}{:>10}",
            "bad:  False Negatives", self.valgrind.false_negatives, self.jasan.false_negatives
        );
        out
    }
}

/// Runs the Juliet suite under JASan-hybrid and Memcheck (Figure 10),
/// linking each case against the world's libraries.
pub fn fig10(ew: &EvalWorld) -> JulietResult {
    fig10_with(ew, None, None)
}

/// [`fig10`] with forensics: when `reports_dir` is set, every JASan
/// violation additionally emits a forensic report pair
/// (`case<id>-<variant>-<report-id>.txt` / `.json`) into the directory.
/// `limit` truncates the suite (CI smoke runs); `None` runs all 624 case
/// pairs. The detection counts are identical with reporting on or off —
/// forensic capture is observation-only. The JASan runs take the world's
/// fault injection ([`RunConfig::inject`]) and tally their degraded
/// loads in its sink, like every other figure's hybrid runs.
pub fn fig10_with(
    ew: &EvalWorld,
    reports_dir: Option<&std::path::Path>,
    limit: Option<usize>,
) -> JulietResult {
    let base = &ew.world.store;
    if let Some(dir) = reports_dir {
        let _ = std::fs::create_dir_all(dir);
    }
    // Per-figure cache: the 624 case pairs all link against the same
    // shared libraries, whose static analysis is thus paid once instead
    // of once per case run.
    let cache = Arc::new(RuleCache::new());
    let mut suite = juliet_suite();
    if let Some(n) = limit {
        suite.truncate(n);
    }

    // Returns true when a violation is reported.
    let run_case = |store: &ModuleStore, tool_is_jasan: bool, tag: &str| -> bool {
        let result = if tool_is_jasan {
            let opts = HybridOptions {
                load: LoadOptions {
                    preload: vec![RT_MODULE.into()],
                    ..LoadOptions::default()
                },
                fuel: 200_000_000,
                rule_cache: Some(Arc::clone(&cache)),
                inject_faults: ew.config.inject,
                forensics: reports_dir.is_some(),
                ..HybridOptions::default()
            };
            run_hybrid(store, "case", Jasan::hybrid(), &opts)
        } else {
            let opts = HybridOptions {
                dynamic_only: true,
                load: LoadOptions {
                    preload: vec![MEMCHECK_RT.into()],
                    ..LoadOptions::default()
                },
                engine: EngineOptions {
                    costs: memcheck_costs(),
                    ..Default::default()
                },
                fuel: 200_000_000,
                ..HybridOptions::default()
            };
            run_hybrid(store, "case", Memcheck::new(), &opts)
        };
        match result {
            Ok(run) => {
                ew.note_degraded(&run);
                if let Some(dir) = reports_dir {
                    for rep in &run.reports {
                        let stem = dir.join(format!("{tag}-{}", rep.id));
                        let _ =
                            write_atomic(stem.with_extension("txt"), rep.render_text().as_bytes());
                        let _ = write_atomic(
                            stem.with_extension("json"),
                            rep.to_json().render_pretty().as_bytes(),
                        );
                    }
                }
                matches!(run.outcome, RunOutcome::Violation(_)) || !run.engine.reports.is_empty()
            }
            Err(_) => false,
        }
    };

    // Each case pair is an independent four-run experiment; fan the cases
    // out and fold the boolean verdicts back in suite order, so counts
    // match the serial loop exactly.
    let verdicts = par_map(ew.config.workers(), &suite, |case| {
        let good_store = build_case(base, "case", &case.good);
        let bad_store = build_case(base, "case", &case.bad);
        let good_tag = format!("case{:04}-good", case.id);
        let bad_tag = format!("case{:04}-bad", case.id);
        let v = [
            run_case(&good_store, false, &good_tag),
            run_case(&bad_store, false, &bad_tag),
            run_case(&good_store, true, &good_tag),
            run_case(&bad_store, true, &bad_tag),
        ];
        // The throwaway per-case executable is dead after these runs;
        // evicting it keeps the cache bounded while the shared libraries
        // stay memoized.
        cache.evict_module("case");
        v
    });

    let mut valgrind = JulietCounts::default();
    let mut jasan = JulietCounts::default();
    let mut fn_by_cat: std::collections::HashMap<JulietCategory, usize> = Default::default();
    for (case, [good_val, bad_val, good_jas, bad_jas]) in suite.iter().zip(&verdicts) {
        for (flagged_good, flagged_bad, is_jasan, counts) in [
            (good_val, bad_val, false, &mut valgrind),
            (good_jas, bad_jas, true, &mut jasan),
        ] {
            if *flagged_good {
                counts.false_positives += 1;
            } else {
                counts.true_negatives += 1;
            }
            if *flagged_bad {
                counts.true_positives += 1;
            } else {
                counts.false_negatives += 1;
                if is_jasan {
                    *fn_by_cat.entry(case.category).or_default() += 1;
                }
            }
        }
    }
    let mut jasan_fn_by_category: Vec<(JulietCategory, usize)> = fn_by_cat.into_iter().collect();
    jasan_fn_by_category.sort_by_key(|(_, n)| *n);
    JulietResult {
        valgrind,
        jasan,
        jasan_fn_by_category,
    }
}

/// Runs one Juliet case's *bad* variant under JASan-hybrid with forensics
/// enabled and returns the assembled violation reports (`None` when the
/// case id is out of range or the run fails to load). Backs the
/// `eval report <case>` subcommand.
pub fn juliet_report(base: &ModuleStore, case_id: usize) -> Option<Vec<ViolationReport>> {
    let mut base = base.clone();
    if base.get(MEMCHECK_RT).is_none() {
        base.add(memcheck_runtime());
    }
    let case = juliet_suite().into_iter().find(|c| c.id == case_id)?;
    let store = build_case(&base, "case", &case.bad);
    let opts = HybridOptions {
        load: LoadOptions {
            preload: vec![RT_MODULE.into()],
            ..LoadOptions::default()
        },
        fuel: 200_000_000,
        forensics: true,
        ..HybridOptions::default()
    };
    let run = run_hybrid(&store, "case", Jasan::hybrid(), &opts).ok()?;
    Some(run.reports)
}

/// §6.2.2 soundness: which workloads draw Lockdown-strong false positives
/// while JCFI stays clean.
pub fn soundness(ew: &EvalWorld) -> Vec<(String, usize, usize)> {
    let mut rows = Vec::new();
    for (i, w) in ew.world.workloads.iter().enumerate() {
        let lockdown_fp = run_config(ew, i, ToolConfig::LockdownStrong)
            .map(|s| s.reports)
            .unwrap_or(0);
        let jcfi_fp = run_config(ew, i, ToolConfig::JcfiHybrid)
            .map(|s| s.reports)
            .unwrap_or(0);
        if lockdown_fp > 0 || jcfi_fp > 0 {
            rows.push((w.name.to_string(), lockdown_fp, jcfi_fp));
        }
    }
    rows
}

/// Configuration of the deterministic `serve` simulation.
#[derive(Clone, Copy, Debug)]
pub struct ServeSimConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests issued by each client.
    pub requests: usize,
    /// Seed of the per-client request streams.
    pub seed: u64,
    /// Per-request analysis work budget
    /// ([`janitizer_analysis::budget::UNLIMITED`] disarms the deadline).
    pub budget: u64,
}

/// Per-reply provenance tally of one serve simulation: how many replies
/// each fill tier served. *Which client* lands on which tier depends on
/// scheduling, but the per-tier totals do not: the `RuleCache` analyzes
/// each `(module, plugin)` key exactly once (the slot lock is held
/// across the analysis), so for a fixed request set exactly one reply
/// per key is `Analyzed`/`Store` and the rest are `Memory` — at any
/// thread count. The serve-metrics parity test enforces this.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServeProvenance {
    /// Replies served from the in-memory cache.
    pub memory: u64,
    /// Replies served from the persistent store.
    pub store: u64,
    /// Replies that ran a fresh supervised analysis.
    pub analyzed: u64,
}

/// Everything one serve simulation produced: the byte-stable summary,
/// the supervision counters, per-tier provenance, and the service
/// metrics snapshots (deterministic + host + OpenMetrics text).
pub struct ServeSimRun {
    /// Deterministic human-readable summary (print to stdout).
    pub summary: String,
    /// Supervision counter snapshot (scheduling-dependent fields like
    /// `peak_in_flight` included — print to stderr).
    pub stats: janitizer_core::ServeStats,
    /// Per-tier reply provenance totals.
    pub provenance: ServeProvenance,
    /// `janitizer.serve-metrics/v1` — deterministic, byte-identical at
    /// any `--threads`.
    pub metrics_json: String,
    /// `janitizer.serve-metrics-host/v1` — wall-clock queue/latency
    /// truth, never diffed.
    pub host_metrics_json: String,
    /// OpenMetrics exposition of the deterministic metrics registry.
    pub openmetrics: String,
}

impl Default for ServeSimConfig {
    fn default() -> ServeSimConfig {
        ServeSimConfig {
            clients: 4,
            requests: 8,
            seed: 7,
            budget: janitizer_analysis::budget::UNLIMITED,
        }
    }
}

/// The `janitizer-eval serve` mode: a deterministic multi-client
/// simulation of the supervised analysis service. Each client thread
/// draws a seeded request stream over (module, plugin) pairs and asks
/// the shared [`janitizer_core::AnalysisService`] for rules; afterwards
/// every served rule file is compared byte-for-byte against a fresh
/// in-process analysis — the paper's distribute-many invariant: rules
/// served from memory, from the persistent store, or freshly analyzed
/// are indistinguishable to the client.
///
/// Returns a [`ServeSimRun`]: the summary is deterministic (same world,
/// same config → same bytes — print it to stdout); the stats include
/// scheduling-dependent counters (peak in-flight — print them to
/// stderr); the metrics snapshots come straight from the service.
pub fn serve_sim(ew: &EvalWorld, cfg: &ServeSimConfig) -> ServeSimRun {
    use janitizer_core::{AnalysisService, FillSource, ServiceOptions, SplitMix64};

    let modules = ew.world.store.names();
    // Named plugin factories: plugins are not `Send`, so each client
    // thread instantiates its own from these constructors.
    type PluginFactory = fn() -> Box<dyn SecurityPlugin>;
    let plugins: &[(&str, PluginFactory)] = &[
        ("jasan", || Box::new(Jasan::hybrid())),
        ("jcfi", || Box::new(Jcfi::hybrid())),
    ];
    let svc = AnalysisService::new(
        Arc::clone(&ew.cache),
        ServiceOptions {
            budget_units: cfg.budget,
            max_in_flight: ew.config.workers(),
            ..ServiceOptions::default()
        },
    );

    // `(module, plugin)` -> (requests, served bytes, degradation labels).
    type Tally = BTreeMap<(String, String), (u64, Option<Vec<u8>>, Vec<String>)>;
    let merged: Mutex<Tally> = Mutex::new(BTreeMap::new());
    let mismatches = AtomicUsize::new(0);
    let (from_memory, from_store, from_analysis) =
        (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|scope| {
        for c in 0..cfg.clients {
            let svc = &svc;
            let modules = &modules;
            let merged = &merged;
            let mismatches = &mismatches;
            let (from_memory, from_store, from_analysis) =
                (&from_memory, &from_store, &from_analysis);
            scope.spawn(move || {
                // Plugins are built per client thread (they are not Send).
                let built: Vec<(&str, Box<dyn SecurityPlugin>)> =
                    plugins.iter().map(|(n, make)| (*n, make())).collect();
                let mut rng = SplitMix64::new(cfg.seed.wrapping_add(c as u64 + 1));
                let mut local: Tally = BTreeMap::new();
                for _ in 0..cfg.requests {
                    let m = (rng.next_u64() as usize) % modules.len();
                    let p = (rng.next_u64() as usize) % built.len();
                    let image = ew.world.store.get(modules[m]).expect("listed module");
                    let reply = svc.request(&image, built[p].1.as_ref(), true);
                    match reply.source {
                        Some(FillSource::Memory) => from_memory.fetch_add(1, Ordering::Relaxed),
                        Some(FillSource::Store) => from_store.fetch_add(1, Ordering::Relaxed),
                        Some(FillSource::Analyzed { .. }) => {
                            from_analysis.fetch_add(1, Ordering::Relaxed)
                        }
                        None => 0,
                    };
                    let slot = local
                        .entry((modules[m].to_string(), built[p].0.to_string()))
                        .or_insert((0, None, Vec::new()));
                    slot.0 += 1;
                    match (&reply.rules, &slot.1) {
                        (Some(file), Some(prev)) => {
                            // Every reply for one key must be byte-identical,
                            // whichever tier served it.
                            if &file.to_bytes() != prev {
                                mismatches.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        (Some(file), None) => slot.1 = Some(file.to_bytes()),
                        (None, _) => {}
                    }
                    if let Some(reason) = reply.degradation {
                        let label = reason.as_str().to_string();
                        if !slot.2.contains(&label) {
                            slot.2.push(label);
                        }
                    }
                }
                let mut all = merged.lock().unwrap_or_else(|e| e.into_inner());
                for (key, (n, bytes, mut labels)) in local {
                    let slot = all.entry(key).or_insert((0, None, Vec::new()));
                    slot.0 += n;
                    match (&bytes, &slot.1) {
                        (Some(b), Some(prev)) if b != prev => {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                        (Some(b), None) => slot.1 = Some(b.clone()),
                        _ => {}
                    }
                    labels.retain(|l| !slot.2.contains(l));
                    slot.2.extend(labels);
                }
            });
        }
    });

    // Golden check: every served key against a fresh, storeless,
    // unbudgeted in-process analysis.
    let mut parity_ok = 0usize;
    let mut parity_bad = 0usize;
    let tally = merged.into_inner().unwrap_or_else(|e| e.into_inner());
    let mut out = String::new();
    let _ = writeln!(out, "== serve simulation ==");
    let _ = writeln!(
        out,
        "clients={} requests-per-client={} seed={}",
        cfg.clients, cfg.requests, cfg.seed
    );
    for ((module, plugin_name), (n, bytes, mut labels)) in tally {
        let verdict = match &bytes {
            Some(served) => {
                let image = ew.world.store.get(&module).expect("listed module");
                let make = plugins
                    .iter()
                    .find(|(n2, _)| *n2 == plugin_name)
                    .expect("known plugin");
                let fresh = janitizer_core::analyze_statically(&image, make.1().as_ref());
                if &fresh.to_bytes() == served {
                    parity_ok += 1;
                    "parity=ok"
                } else {
                    parity_bad += 1;
                    "parity=MISMATCH"
                }
            }
            None => "unserved",
        };
        labels.sort();
        let degr = if labels.is_empty() {
            String::new()
        } else {
            format!(" degraded[{}]", labels.join(","))
        };
        let _ = writeln!(
            out,
            "{module:<16} {plugin_name:<6} requests={n:<4} {verdict}{degr}"
        );
    }
    let stats = svc.stats();
    let _ = writeln!(
        out,
        "parity: {parity_ok} ok, {parity_bad} mismatched, {} cross-reply mismatches",
        mismatches.load(Ordering::Relaxed)
    );
    let provenance = ServeProvenance {
        memory: from_memory.load(Ordering::Relaxed),
        store: from_store.load(Ordering::Relaxed),
        analyzed: from_analysis.load(Ordering::Relaxed),
    };
    ServeSimRun {
        summary: out,
        stats,
        provenance,
        metrics_json: svc.serve_metrics_json(),
        host_metrics_json: svc.host_metrics_json(),
        openmetrics: janitizer_telemetry::export::to_openmetrics(&svc.metrics_registry()),
    }
}

/// Renders the serve-simulation summary JSON: request/parity totals,
/// per-reply [`FillSource`](janitizer_core::FillSource) provenance
/// counts, and the supervision counters
/// (`serve.{retries,timeouts,panics_isolated}`), so daemon behavior is
/// observable without reading logs.
pub fn serve_summary_json(
    cfg: &ServeSimConfig,
    stats: &janitizer_core::ServeStats,
    prov: &ServeProvenance,
    parity_mismatch: bool,
) -> String {
    use janitizer_telemetry::json::Json;
    Json::obj([
        ("schema", Json::str("janitizer.serve-summary/v1")),
        ("clients", Json::U64(cfg.clients as u64)),
        ("requests_per_client", Json::U64(cfg.requests as u64)),
        ("seed", Json::U64(cfg.seed)),
        ("parity_mismatch", Json::Bool(parity_mismatch)),
        (
            "provenance",
            Json::obj([
                ("memory", Json::U64(prov.memory)),
                ("store", Json::U64(prov.store)),
                ("analyzed", Json::U64(prov.analyzed)),
            ]),
        ),
        (
            "serve",
            Json::obj([
                ("served", Json::U64(stats.served)),
                ("degraded", Json::U64(stats.degraded)),
                ("retries", Json::U64(stats.retries)),
                ("timeouts", Json::U64(stats.timeouts)),
                ("panics_isolated", Json::U64(stats.panics_isolated)),
                ("store_failures", Json::U64(stats.store_failures)),
                ("peak_in_flight", Json::U64(stats.peak_in_flight)),
            ]),
        ),
    ])
    .render_pretty()
}

/// Schema tag stamped on every `BENCH_history.jsonl` line this build
/// appends. Lines written before the tag existed (the seed's first
/// line, which also lacks `figure_wall_ms`) are tolerated by
/// [`bench_trend`] and reported as pre-schema rather than parsed.
pub const BENCH_HISTORY_SCHEMA: &str = "janitizer.bench-history/v1";

/// Renders the wall-clock trend from `BENCH_history.jsonl` content: one
/// row per run (total wall ms and delta vs. the previous run), then the
/// last run's per-figure change. Pre-schema lines (no `figure_wall_ms`)
/// contribute their total but are skipped by the per-figure section;
/// unparseable lines are counted and skipped.
pub fn bench_trend(history: &str) -> String {
    use janitizer_telemetry::json::Json;
    let mut out = String::new();
    type TrendRow = (String, u64, f64, Option<BTreeMap<String, f64>>);
    let mut rows: Vec<TrendRow> = Vec::new();
    let mut skipped = 0usize;
    for line in history.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(doc) = Json::parse(line) else {
            skipped += 1;
            continue;
        };
        let date = doc
            .get("date")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let threads = doc.get("threads").and_then(Json::as_u64).unwrap_or(0);
        let Some(total) = doc.get("total_wall_ms").and_then(Json::as_f64) else {
            skipped += 1;
            continue;
        };
        let figures = doc.get("figure_wall_ms").and_then(Json::as_obj).map(|obj| {
            obj.iter()
                .filter_map(|(k, v)| v.as_f64().map(|ms| (k.clone(), ms)))
                .collect::<BTreeMap<String, f64>>()
        });
        rows.push((date, threads, total, figures));
    }
    let _ = writeln!(
        out,
        "== bench trend: {} run(s){} ==",
        rows.len(),
        if skipped > 0 {
            format!(", {skipped} unparseable line(s) skipped")
        } else {
            String::new()
        }
    );
    let mut prev_total: Option<f64> = None;
    for (date, threads, total, figures) in &rows {
        let delta = match prev_total {
            Some(p) if p > 0.0 => format!("{:+.1}%", (total / p - 1.0) * 100.0),
            _ => "    -".to_string(),
        };
        let _ = writeln!(
            out,
            "{date}  threads={threads}  total {total:>12.1} ms  {delta}{}",
            if figures.is_none() {
                "  (pre-schema)"
            } else {
                ""
            }
        );
        prev_total = Some(*total);
    }
    // Per-figure change between the last two runs that carried figures.
    let with_figs: Vec<&BTreeMap<String, f64>> =
        rows.iter().filter_map(|(_, _, _, f)| f.as_ref()).collect();
    if with_figs.len() >= 2 {
        let (prev, last) = (
            with_figs[with_figs.len() - 2],
            with_figs[with_figs.len() - 1],
        );
        let _ = writeln!(out, "-- last run per figure --");
        for (fig, ms) in last {
            match prev.get(fig) {
                Some(p) if *p > 0.0 => {
                    let _ = writeln!(
                        out,
                        "  {fig:<8}{ms:>12.1} ms  {:+.1}%",
                        (ms / p - 1.0) * 100.0
                    );
                }
                _ => {
                    let _ = writeln!(out, "  {fig:<8}{ms:>12.1} ms  (new)");
                }
            }
        }
    }
    out
}

// =====================================================================
// Hostile-module gauntlet: the analyzer against its no-evidence ablation.
// =====================================================================

/// One `(hostile class, disassembly)` cell of the gauntlet.
#[derive(Clone, Debug)]
pub struct GauntletCell {
    /// Hostility class (`stripped`, `data-island`, `overlap`,
    /// `jump-table`).
    pub class: String,
    /// Module name in the store.
    pub module: String,
    /// `evidence` (the analyzer) or `hybrid` (the no-evidence ablation:
    /// [`janitizer_analysis::analyze_module`] alone).
    pub backend: &'static str,
    /// Ground-truth instruction bytes in the module.
    pub code_bytes: u64,
    /// Ground-truth bytes inside statically instrumented
    /// (`Proven`/`Likely`) blocks.
    pub static_bytes: u64,
    /// Regions degraded for contradictory code/data evidence.
    pub low_confidence: u64,
    /// Regions degraded as overlap-resolution losers.
    pub conflicts: u64,
    /// Runtime blocks that fell back dynamically inside degraded regions.
    pub region_fallback_blocks: u64,
    /// `exited(0)` / `violation` / `error: ..` / `panic: ..`.
    pub outcome: String,
    /// A JASan violation was reported.
    pub detected: bool,
    /// The cell met its oracle: no crash, detection preserved exactly
    /// when expected.
    pub ok: bool,
}

impl GauntletCell {
    /// Static coverage of the ground-truth bytes, in percent.
    pub fn coverage_pct(&self) -> f64 {
        if self.code_bytes == 0 {
            return 0.0;
        }
        self.static_bytes as f64 * 100.0 / self.code_bytes as f64
    }
}

/// The full gauntlet: every hostile class under the ablation and the
/// analyzer.
#[derive(Clone, Debug)]
pub struct GauntletResult {
    /// Cells, ablation first, then the analyzer; classes in suite order.
    pub cells: Vec<GauntletCell>,
}

impl GauntletResult {
    /// Every cell met its oracle (the hard acceptance bar: no panics, no
    /// errors, detections preserved under degradation).
    pub fn all_ok(&self) -> bool {
        self.cells.iter().all(|c| c.ok)
    }

    /// Classes where the analyzer's static coverage *strictly* exceeds
    /// the ablation's.
    pub fn evidence_gains(&self) -> Vec<String> {
        let cov = |class: &str, backend: &str| {
            self.cells
                .iter()
                .find(|c| c.class == class && c.backend == backend)
                .map(|c| c.static_bytes)
        };
        let mut classes: Vec<String> = self
            .cells
            .iter()
            .map(|c| c.class.clone())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        classes.retain(|cl| match (cov(cl, "evidence"), cov(cl, "hybrid")) {
            (Some(e), Some(h)) => e > h,
            _ => false,
        });
        classes
    }

    /// Aligned table for stdout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== hostile-module gauntlet (analyzer vs no-evidence ablation) =="
        );
        let _ = writeln!(
            out,
            "{:<12}{:<12}{:>10}{:>12}{:>9}{:>9}{:>9}  {:<14}{:>7}{:>5}",
            "class",
            "backend",
            "coverage",
            "bytes",
            "lowconf",
            "conflict",
            "regdyn",
            "outcome",
            "detect",
            "ok"
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{:<12}{:<12}{:>9.1}%{:>12}{:>9}{:>9}{:>9}  {:<14}{:>7}{:>5}",
                c.class,
                c.backend,
                c.coverage_pct(),
                format!("{}/{}", c.static_bytes, c.code_bytes),
                c.low_confidence,
                c.conflicts,
                c.region_fallback_blocks,
                c.outcome,
                if c.detected { "yes" } else { "-" },
                if c.ok { "ok" } else { "FAIL" }
            );
        }
        let gains = self.evidence_gains();
        let _ = writeln!(
            out,
            "the analyzer strictly increases static coverage on {} class(es): {}",
            gains.len(),
            if gains.is_empty() {
                "-".into()
            } else {
                gains.join(", ")
            }
        );
        out
    }

    /// CSV mirror of the table.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "class,backend,code_bytes,static_bytes,coverage_pct,low_confidence,conflicts,\
             region_fallback_blocks,outcome,detected,ok\n",
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{},{},{},{},{:.2},{},{},{},{},{},{}",
                c.class,
                c.backend,
                c.code_bytes,
                c.static_bytes,
                c.coverage_pct(),
                c.low_confidence,
                c.conflicts,
                c.region_fallback_blocks,
                c.outcome,
                c.detected,
                c.ok
            );
        }
        out
    }

    /// Schema-stable JSON document (`janitizer.hostile-gauntlet/v1`).
    pub fn to_json(&self) -> String {
        use janitizer_telemetry::json::Json;
        let gains = self.evidence_gains();
        Json::obj([
            ("schema", Json::str("janitizer.hostile-gauntlet/v1")),
            ("all_ok", Json::Bool(self.all_ok())),
            (
                "evidence_gain_classes",
                Json::Arr(gains.into_iter().map(Json::str).collect()),
            ),
            (
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("class", Json::str(c.class.clone())),
                                ("module", Json::str(c.module.clone())),
                                ("backend", Json::str(c.backend)),
                                ("code_bytes", Json::U64(c.code_bytes)),
                                ("static_bytes", Json::U64(c.static_bytes)),
                                ("coverage_pct", Json::F64(c.coverage_pct())),
                                ("low_confidence_regions", Json::U64(c.low_confidence)),
                                ("conflict_regions", Json::U64(c.conflicts)),
                                (
                                    "region_fallback_blocks",
                                    Json::U64(c.region_fallback_blocks),
                                ),
                                ("outcome", Json::str(c.outcome.clone())),
                                ("detected", Json::Bool(c.detected)),
                                ("ok", Json::Bool(c.ok)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .render_pretty()
    }
}

/// Ground-truth bytes covered by statically instrumented blocks
/// (`Proven` or `Likely` tiers).
fn gauntlet_static_bytes(
    res: &janitizer_analysis::DisasmResult,
    code_ranges: &[(u64, u64)],
) -> u64 {
    use janitizer_analysis::ConfidenceTier;
    let mut covered = 0u64;
    for block in res.cfg.blocks.values() {
        let tier = res
            .tiers
            .get(&block.start)
            .copied()
            .unwrap_or(ConfidenceTier::Proven);
        if !matches!(tier, ConfidenceTier::Proven | ConfidenceTier::Likely) {
            continue;
        }
        for &(s, e) in code_ranges {
            let lo = block.start.max(s);
            let hi = block.end.min(e);
            if lo < hi {
                covered += hi - lo;
            }
        }
    }
    covered
}

/// Runs the hostile-module gauntlet: every hostile class analyzed and
/// executed under JASan-hybrid, first with the no-evidence ablation
/// (rules from [`janitizer_analysis::analyze_module`] alone, supplied as
/// a rule override), then with the analyzer. Every module must analyze
/// soundly or degrade per region — a panic or engine error fails the
/// cell, and the overlap class's heap overflow must stay detected under
/// both.
pub fn hostile_gauntlet() -> GauntletResult {
    use janitizer_analysis as analysis;
    let mut cells = Vec::new();
    for backend in ["hybrid", "evidence"] {
        let ablation = backend == "hybrid";
        for m in janitizer_workloads::hostile_suite() {
            let code_bytes = m.code_bytes();
            let janitizer_workloads::HostileModule {
                name,
                class,
                image,
                code_ranges,
                expect_violation,
                ..
            } = m;
            let res = if ablation {
                analysis::DisasmResult::untiered(analysis::analyze_module(&image))
            } else {
                analysis::analyze_tiered(&image)
            };
            let static_bytes = gauntlet_static_bytes(&res, &code_ranges);
            let low_confidence = res
                .degraded
                .iter()
                .filter(|r| r.cause == analysis::RegionCause::LowConfidence)
                .count() as u64;
            let conflicts = res
                .degraded
                .iter()
                .filter(|r| r.cause == analysis::RegionCause::Conflict)
                .count() as u64;

            let mut opts = HybridOptions {
                load: LoadOptions {
                    preload: vec![RT_MODULE.into()],
                    ..LoadOptions::default()
                },
                fuel: 200_000_000,
                ..HybridOptions::default()
            };
            if ablation {
                let rules = rules_from_disasm(&image, res, &Jasan::hybrid());
                opts.rule_overrides
                    .insert(name.to_string(), rules.to_bytes());
            }
            let mut store = janitizer_workloads::library_base();
            store.add(image);
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_hybrid(&store, name, Jasan::hybrid(), &opts)
            }));
            let (outcome, detected, region_fallback_blocks, crashed) = match run {
                Ok(Ok(r)) => {
                    let detected = matches!(r.outcome, RunOutcome::Violation(_))
                        || !r.engine.reports.is_empty();
                    let outcome = match &r.outcome {
                        RunOutcome::Exited(c) => format!("exited({c})"),
                        RunOutcome::Violation(_) => "violation".into(),
                        RunOutcome::Fault(f) => format!("fault({f:?})"),
                        RunOutcome::OutOfFuel => "out-of-fuel".into(),
                    };
                    let crashed = matches!(r.outcome, RunOutcome::Fault(_) | RunOutcome::OutOfFuel)
                        && !detected;
                    (
                        outcome,
                        detected,
                        r.coverage.region_fallback_blocks,
                        crashed,
                    )
                }
                Ok(Err(e)) => (format!("error: {e}"), false, 0, true),
                Err(_) => ("panic".into(), false, 0, true),
            };
            let ok = !crashed && detected == expect_violation;
            cells.push(GauntletCell {
                class: class.to_string(),
                module: name.to_string(),
                backend,
                code_bytes,
                static_bytes,
                low_confidence,
                conflicts,
                region_fallback_blocks,
                outcome,
                detected,
                ok,
            });
        }
    }
    GauntletResult { cells }
}
