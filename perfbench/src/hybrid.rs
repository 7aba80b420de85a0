//! One guest run under a Janitizer tool, in two forms: the plain
//! [`run_hybrid`] call (untraced ops) and a replica of it assembled from
//! the same public calls with a span around each layer (traced ops).
//! Both give the same outcome, cycles and output; the smoke test checks
//! that they agree.

use crate::trace;
use janitizer_core::{
    dependency_closure, run_hybrid, CoverageStats, EngineStats, HybridOptions, JanitizerError,
    JanitizerTool, RuleRepo, RunOutcome, SecurityPlugin,
};
use janitizer_dbt::{DecodedBlock, Engine, NullTool, RegionSet, TbItem, Tool};
use janitizer_vm::{load_process, LoadOptions, ModuleStore, Process};
use std::collections::HashMap;
use std::time::Instant;

/// Cycle budget of every guest run: far above what any workload needs.
pub const FUEL: u64 = 30_000_000_000;

/// The observable result of one guest run.
pub struct GuestRun {
    pub outcome: RunOutcome,
    pub cycles: u64,
    pub insns: u64,
    pub stats: EngineStats,
    pub coverage: CoverageStats,
    pub stdout: String,
    /// Modules or regions the run demoted to dynamic-only.
    pub degraded: usize,
}

impl GuestRun {
    /// Whether the tool flagged the run (the Juliet verdict).
    pub fn flagged(&self) -> bool {
        matches!(self.outcome, RunOutcome::Violation(_)) || !self.stats.reports.is_empty()
    }
}

/// Runs `exe` under `plugin`; traced when the recorder is active.
/// `start_span` names the span around the plugin's start-up hook.
pub fn run<P: SecurityPlugin>(
    store: &ModuleStore,
    exe: &str,
    plugin: P,
    opts: &HybridOptions,
    start_span: &'static str,
) -> Result<GuestRun, JanitizerError> {
    if !trace::active() {
        let r = run_hybrid(store, exe, plugin, opts)?;
        return Ok(GuestRun {
            outcome: r.outcome,
            cycles: r.cycles,
            insns: r.insns,
            stats: r.engine,
            coverage: r.coverage,
            stdout: r.stdout,
            degraded: r.degraded.len(),
        });
    }
    run_traced(store, exe, plugin, opts, start_span)
}

/// [`run_hybrid`]'s default path (static rules from the shared rule
/// cache, trusted in-memory rules, no forensics or profile), rebuilt
/// from public calls so each layer gets a span.
fn run_traced<P: SecurityPlugin>(
    store: &ModuleStore,
    exe: &str,
    plugin: P,
    opts: &HybridOptions,
    start_span: &'static str,
) -> Result<GuestRun, JanitizerError> {
    let cache = opts
        .rule_cache
        .as_ref()
        .expect("traced runs use the shared rule cache");
    let mut repo = RuleRepo::new();
    let mut regions: HashMap<String, RegionSet> = HashMap::new();
    let mut degraded = 0;
    let before = cache.stats();
    trace::span("core.rules_for_run", || {
        let mut roots: Vec<String> = vec![exe.to_string()];
        roots.extend(opts.load.preload.iter().cloned());
        roots.push("ld.so".into());
        for name in dependency_closure(store, &roots) {
            let Some(image) = store.get(&name) else {
                continue;
            };
            let (file, ctx, _) = cache.get_or_analyze_full(&image, &plugin, true);
            degraded += ctx.degraded_regions.len();
            if !ctx.degraded_regions.is_empty() {
                regions.insert(
                    name,
                    RegionSet::from_ranges(ctx.degraded_regions.iter().map(|r| (r.start, r.len))),
                );
            }
            repo.add_shared(file);
        }
    });
    let after = cache.stats();
    trace::add("core.rule_cache_hits", (after.hits - before.hits) as f64);
    trace::add(
        "core.rule_cache_lookups",
        (after.hits + after.misses - before.hits - before.misses) as f64,
    );
    let mut proc = trace::span("vm.load_process", || load_process(store, exe, &opts.load))?;
    let mut inner = JanitizerTool::new(plugin, repo);
    inner.set_degraded_regions(regions);
    let mut tool = Timed { inner, start_span };
    let mut engine = Engine::new(opts.engine.clone());
    let fuel = if opts.fuel == 0 { FUEL } else { opts.fuel };
    let outcome = trace::span("dbt.engine_run", || engine.run(&mut proc, &mut tool, fuel));
    let run = GuestRun {
        outcome,
        cycles: proc.cycles,
        insns: proc.insns,
        stats: std::mem::take(&mut engine.stats),
        coverage: tool.inner.coverage(),
        stdout: proc.stdout_string(),
        degraded,
    };
    trace::span("dbt.teardown", || drop((engine, tool, proc)));
    record_engine(&run);
    Ok(run)
}

/// Adds one run's engine counters and modeled cycle classes to the
/// trace.
fn record_engine(run: &GuestRun) {
    let s = &run.stats;
    for (name, v) in [
        ("dbt.blocks_translated", s.blocks_translated),
        ("dbt.guest_insns", s.guest_insns),
        ("dbt.probe_runs", s.probe_runs),
        ("dbt.chained_transfers", s.chained_transfers),
        ("dbt.superblocks_formed", s.superblocks_formed),
        ("dbt.trace_exits", s.trace_exits),
        ("dbt.checks_fused", s.checks_fused),
        ("dbt.checks_hoisted", s.checks_hoisted),
        ("dbt.check_execs", s.checks_fused + s.probe_runs),
        ("dbt.indirect_transfers", s.indirect_transfers),
        ("dbt.indirect_chain_hits", s.indirect_chain_hits),
        ("dbt.translation_cycles", s.translation_cycles),
        ("dbt.dispatch_cycles", s.dispatch_cycles),
        ("dbt.probe_cycles", s.probe_cycles),
        ("dbt.total_cycles", run.cycles),
        ("core.static_blocks", run.coverage.static_blocks),
        (
            "core.classified_blocks",
            run.coverage.static_blocks + run.coverage.dynamic_blocks,
        ),
    ] {
        trace::add(name, v as f64);
    }
}

/// The same guest run under the null client: translation and dispatch
/// without a tool or rules. Returns the wall time in milliseconds; the
/// differential against the tool's own run is the tool's cost.
pub fn null_client_ms(store: &ModuleStore, exe: &str, load: &LoadOptions) -> f64 {
    let t = Instant::now();
    trace::span("dbt.null_client", || {
        let mut proc = load_process(store, exe, load).expect("the tool run loaded this program");
        let mut engine = Engine::new(Default::default());
        engine.run(&mut proc, &mut NullTool, FUEL);
        drop((engine, proc));
    });
    t.elapsed().as_secs_f64() * 1e3
}

/// Times the tool callbacks the engine makes, so engine self time is the
/// engine run minus these spans.
struct Timed<T: Tool> {
    inner: T,
    start_span: &'static str,
}

impl<T: Tool> Tool for Timed<T> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_start(&mut self, proc: &mut Process) {
        trace::span(self.start_span, || self.inner.on_start(proc));
    }

    fn on_module_load(&mut self, proc: &mut Process, module_id: usize) {
        trace::span("core.on_module_load", || {
            self.inner.on_module_load(proc, module_id)
        });
    }

    fn instrument_block(&mut self, proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
        trace::span("core.instrument_block", || {
            self.inner.instrument_block(proc, block)
        })
    }

    fn on_exit(&mut self, proc: &mut Process) {
        trace::span("core.on_exit", || self.inner.on_exit(proc));
    }
}
