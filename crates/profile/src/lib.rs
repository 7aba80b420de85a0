//! # Deterministic hotness & overhead attribution
//!
//! Aggregates the DBT engine's cycle-model-exact profile counters
//! ([`janitizer_dbt::EngineProfile`]) into symbolized, mergeable
//! [`RunProfile`]s and exports three schema-stable artifacts:
//!
//! * **`janitizer.profile/v2` JSON** — per-function/per-block/per-site
//!   rollups, block→successor edge counts, and top-N hot-edge chains
//!   (NET-style hot-trace candidates);
//! * **folded stacks** — `flamegraph.pl`-ready cycle attribution,
//!   one `tool;module;function;class` stack per line;
//! * **overhead budget tables** — each workload×tool overhead ratio
//!   decomposed into ranked contributors (cost classes, probe sites,
//!   hot edges).
//!
//! Everything here is *observation*: the profile is built after the
//! engine run from counters that never feed back into execution, and
//! every map is a `BTreeMap`, so merged profiles are byte-identical
//! regardless of collection order (thread-count independence).

pub mod diff;

use janitizer_dbt::{
    BlockProfile, EdgeKind, EngineProfile, ProbeClass, SiteOrigin, SiteProfile, Stats,
};
use janitizer_diag::Symbolizer;
use janitizer_telemetry::json::Json;
use janitizer_vm::Process;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Symbolized identity of one translated block.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct BlockKey {
    /// Containing module (`"<unmapped>"` for bootstrap blocks).
    pub module: String,
    /// Containing function (the block pc when unresolved).
    pub function: String,
    /// Block start pc.
    pub pc: u64,
}

/// Symbolized identity of one instrumentation site.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct SiteKey {
    /// Owning tool.
    pub tool: String,
    /// Probe kind within the tool.
    pub kind: String,
    /// Guarded guest pc.
    pub pc: u64,
}

/// One site's aggregated profile row.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SiteRow {
    /// Containing module.
    pub module: String,
    /// Containing function.
    pub function: String,
    /// Instrumentation style.
    pub class: ProbeClass,
    /// Static rule vs. dynamic fallback.
    pub origin: SiteOrigin,
    /// Execution/cycle/violation/elision counters.
    pub stats: SiteProfile,
}

/// Per-class cycle totals of a profile.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ClassTotals {
    /// Pure guest cycles.
    pub guest: u64,
    /// Engine translation (block build + per-insn).
    pub translate: u64,
    /// Tool translation-time charges (dynamic-fallback analysis).
    pub tool_translate: u64,
    /// Indirect-transfer dispatch lookups.
    pub dispatch: u64,
    /// Inline-class probe cycles.
    pub inline_probes: u64,
    /// Clean-call-class probe cycles.
    pub clean_call_probes: u64,
}

impl ClassTotals {
    /// Engine-attributed overhead: everything except guest and
    /// tool-translate — by construction equal to
    /// [`Stats::total_overhead_cycles`].
    pub fn engine_overhead(&self) -> u64 {
        self.translate + self.dispatch + self.inline_probes + self.clean_call_probes
    }

    /// All overhead on top of pure guest execution.
    pub fn overhead(&self) -> u64 {
        self.engine_overhead() + self.tool_translate
    }

    /// Every attributed cycle.
    pub fn total(&self) -> u64 {
        self.overhead() + self.guest
    }
}

/// Engine-level counters carried alongside the cycle classes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EngineTotals {
    /// Blocks translated.
    pub blocks_translated: u64,
    /// Guest instructions executed.
    pub guest_insns: u64,
    /// Probe executions.
    pub probe_runs: u64,
    /// Indirect control transfers.
    pub indirect_transfers: u64,
    /// Oversized (uncached) translations.
    pub oversized_blocks: u64,
    /// Indirect transfers satisfied by a block's inlined target cache
    /// (charged the cheap `chain_hit` instead of the full lookup).
    pub indirect_chain_hits: u64,
    /// Loop-invariant shadow checks answered by the hoisted fast path
    /// (cost-free elision; profiled as `elided`, not as probe runs).
    pub checks_hoisted: u64,
}

/// One hot-edge chain: a maximal sequence of blocks stitched along the
/// hottest successor edges (a NET-style hot-trace candidate).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HotChain {
    /// Block start pcs, in execution order.
    pub blocks: Vec<u64>,
    /// The coldest edge count along the chain (its execution floor).
    pub min_count: u64,
}

/// A symbolized, mergeable profile of one (or several merged) hybrid
/// runs of one tool over one executable.
#[derive(Clone, PartialEq, Debug)]
pub struct RunProfile {
    /// Tool name (`plugin.name()`).
    pub tool: String,
    /// Executable name.
    pub exe: String,
    /// Engine runs merged into this profile.
    pub runs: u64,
    /// Process cycle delta of the profiled run(s) — the conservation
    /// target for [`RunProfile::class_totals`].
    pub total_cycles: u64,
    /// Native (uninstrumented) cycles of the same workload, when known;
    /// enables overhead ratios in the budget table.
    pub native_cycles: Option<u64>,
    /// Engine counter totals.
    pub engine: EngineTotals,
    /// Per-block rows, keyed `(module, function, pc)`.
    pub blocks: BTreeMap<BlockKey, BlockProfile>,
    /// Per-site rows, keyed `(tool, kind, pc)`.
    pub sites: BTreeMap<SiteKey, SiteRow>,
    /// Block→successor transfer counts.
    pub edges: BTreeMap<(u64, u64, EdgeKind), u64>,
    /// `pc → module!function` labels for edge endpoints.
    pub labels: BTreeMap<u64, String>,
}

fn symbolize(sym: &Symbolizer, pc: u64) -> (String, String) {
    let f = sym.resolve(pc);
    let module = f.module.unwrap_or_else(|| "<unmapped>".to_string());
    let function = f.symbol.unwrap_or_else(|| format!("{pc:#x}"));
    (module, function)
}

impl RunProfile {
    /// Builds a symbolized profile from the engine's raw counters. Must
    /// be called while the [`Process`] is still alive (the load map
    /// backs symbolization), after the engine run completes.
    /// `total_cycles` is the process's cycle delta for the profiled run.
    pub fn build(
        prof: &EngineProfile,
        stats: &Stats,
        proc: &Process,
        tool: &str,
        exe: &str,
        total_cycles: u64,
    ) -> RunProfile {
        let sym = Symbolizer::from_process(proc);
        let mut cache: BTreeMap<u64, (String, String)> = BTreeMap::new();
        let mut resolve = |pc: u64| -> (String, String) {
            cache
                .entry(pc)
                .or_insert_with(|| symbolize(&sym, pc))
                .clone()
        };

        let mut blocks = BTreeMap::new();
        for (pc, bp) in &prof.blocks {
            let (module, function) = resolve(*pc);
            blocks.insert(
                BlockKey {
                    module,
                    function,
                    pc: *pc,
                },
                *bp,
            );
        }
        let mut sites = BTreeMap::new();
        for (site, sp) in &prof.sites {
            let (module, function) = resolve(site.pc);
            sites.insert(
                SiteKey {
                    tool: site.tool.to_string(),
                    kind: site.kind.to_string(),
                    pc: site.pc,
                },
                SiteRow {
                    module,
                    function,
                    class: site.class,
                    origin: site.origin,
                    stats: *sp,
                },
            );
        }
        let mut labels = BTreeMap::new();
        for (from, to, _) in prof.edges.keys() {
            for pc in [*from, *to] {
                let (m, f) = resolve(pc);
                labels.entry(pc).or_insert_with(|| format!("{m}!{f}"));
            }
        }
        RunProfile {
            tool: tool.to_string(),
            exe: exe.to_string(),
            runs: 1,
            total_cycles,
            native_cycles: None,
            engine: EngineTotals {
                blocks_translated: stats.blocks_translated,
                guest_insns: stats.guest_insns,
                probe_runs: stats.probe_runs,
                indirect_transfers: stats.indirect_transfers,
                oversized_blocks: stats.oversized_blocks,
                indirect_chain_hits: stats.indirect_chain_hits,
                checks_hoisted: stats.checks_hoisted,
            },
            blocks,
            sites,
            edges: prof.edges.clone(),
            labels,
        }
    }

    /// Per-class cycle totals, summed over all blocks. Conservation
    /// (test-enforced): `engine_overhead()` equals
    /// [`Stats::total_overhead_cycles`] and `total()` equals
    /// [`RunProfile::total_cycles`].
    pub fn class_totals(&self) -> ClassTotals {
        let mut t = ClassTotals::default();
        for b in self.blocks.values() {
            t.guest += b.guest_cycles;
            t.translate += b.translate_cycles;
            t.tool_translate += b.tool_translate_cycles;
            t.dispatch += b.dispatch_cycles;
            t.inline_probes += b.inline_probe_cycles;
            t.clean_call_probes += b.clean_call_cycles;
        }
        t
    }

    /// Merges another profile of the same (tool, exe) cell into this
    /// one. All counters are commutative sums over deterministic keys,
    /// so any merge order yields byte-identical artifacts.
    pub fn merge(&mut self, other: &RunProfile) {
        debug_assert_eq!(self.tool, other.tool);
        debug_assert_eq!(self.exe, other.exe);
        self.runs += other.runs;
        self.total_cycles += other.total_cycles;
        self.native_cycles = match (self.native_cycles, other.native_cycles) {
            (Some(a), Some(b)) => Some(a + b),
            (a, b) => a.or(b),
        };
        let e = &mut self.engine;
        e.blocks_translated += other.engine.blocks_translated;
        e.guest_insns += other.engine.guest_insns;
        e.probe_runs += other.engine.probe_runs;
        e.indirect_transfers += other.engine.indirect_transfers;
        e.oversized_blocks += other.engine.oversized_blocks;
        e.indirect_chain_hits += other.engine.indirect_chain_hits;
        e.checks_hoisted += other.engine.checks_hoisted;
        for (k, b) in &other.blocks {
            let dst = self.blocks.entry(k.clone()).or_default();
            dst.execs += b.execs;
            dst.translations += b.translations;
            dst.guest_insns += b.guest_insns;
            dst.translate_cycles += b.translate_cycles;
            dst.tool_translate_cycles += b.tool_translate_cycles;
            dst.dispatch_cycles += b.dispatch_cycles;
            dst.inline_probe_cycles += b.inline_probe_cycles;
            dst.clean_call_cycles += b.clean_call_cycles;
            dst.guest_cycles += b.guest_cycles;
        }
        for (k, row) in &other.sites {
            let dst = self.sites.entry(k.clone()).or_insert_with(|| SiteRow {
                module: row.module.clone(),
                function: row.function.clone(),
                class: row.class,
                origin: row.origin,
                stats: SiteProfile::default(),
            });
            dst.stats.execs += row.stats.execs;
            dst.stats.cycles += row.stats.cycles;
            dst.stats.violations += row.stats.violations;
            dst.stats.elided += row.stats.elided;
        }
        for (k, n) in &other.edges {
            *self.edges.entry(*k).or_insert(0) += n;
        }
        for (pc, l) in &other.labels {
            self.labels.entry(*pc).or_insert_with(|| l.clone());
        }
    }

    /// Per-function rollup: `(module, function) → (execs, per-class
    /// totals)`, in deterministic key order.
    pub fn functions(&self) -> BTreeMap<(String, String), (u64, ClassTotals)> {
        let mut out: BTreeMap<(String, String), (u64, ClassTotals)> = BTreeMap::new();
        for (k, b) in &self.blocks {
            let (execs, t) = out
                .entry((k.module.clone(), k.function.clone()))
                .or_default();
            *execs += b.execs;
            t.guest += b.guest_cycles;
            t.translate += b.translate_cycles;
            t.tool_translate += b.tool_translate_cycles;
            t.dispatch += b.dispatch_cycles;
            t.inline_probes += b.inline_probe_cycles;
            t.clean_call_probes += b.clean_call_cycles;
        }
        out
    }

    /// Sites ranked hottest-first: by attributed cycles, then
    /// executions, then key (fully deterministic).
    pub fn ranked_sites(&self) -> Vec<(&SiteKey, &SiteRow)> {
        let mut v: Vec<_> = self.sites.iter().collect();
        v.sort_by(|(ka, a), (kb, b)| {
            b.stats
                .cycles
                .cmp(&a.stats.cycles)
                .then(b.stats.execs.cmp(&a.stats.execs))
                .then(ka.cmp(kb))
        });
        v
    }

    /// Edges ranked most-frequent-first, then by key.
    pub fn ranked_edges(&self) -> Vec<(&(u64, u64, EdgeKind), &u64)> {
        let mut v: Vec<_> = self.edges.iter().collect();
        v.sort_by(|(ka, a), (kb, b)| b.cmp(a).then(ka.cmp(kb)));
        v
    }

    /// Top-`top` hot-edge chains: seeded at the most frequent edges and
    /// greedily extended along each block's hottest successor while the
    /// successor count stays within half of the chain's floor: the
    /// NET-style hot-trace candidates.
    pub fn hot_chains(&self, top: usize) -> Vec<HotChain> {
        // Hottest successor per source block (count desc, then target
        // asc for determinism).
        let mut best_succ: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for ((from, to, _), n) in &self.edges {
            let e = best_succ.entry(*from).or_insert((0, u64::MAX));
            if *n > e.0 || (*n == e.0 && *to < e.1) {
                *e = (*n, *to);
            }
        }
        let mut chains: Vec<HotChain> = Vec::new();
        for ((from, to, _), count) in self.ranked_edges().into_iter().take(top.max(1) * 2) {
            let mut blocks = vec![*from, *to];
            let mut min_count = *count;
            while blocks.len() < 16 {
                let tail = *blocks.last().expect("non-empty chain");
                let Some(&(n, next)) = best_succ.get(&tail) else {
                    break;
                };
                if n == 0 || n * 2 < min_count || blocks.contains(&next) {
                    break;
                }
                min_count = min_count.min(n);
                blocks.push(next);
            }
            if !chains.iter().any(|c| c.blocks == blocks) {
                chains.push(HotChain { blocks, min_count });
            }
            if chains.len() >= top {
                break;
            }
        }
        chains
    }

    /// Dynamic executions of checks the static analysis proved away
    /// (`TbItem::Note` sites) — what the hybrid pipeline saved,
    /// execution-weighted.
    pub fn checks_elided(&self) -> u64 {
        self.sites.values().map(|s| s.stats.elided).sum()
    }

    /// Renders the schema-stable `janitizer.profile/v2` JSON document.
    /// `top` bounds the block/site/edge/chain arrays (totals always
    /// cover everything).
    pub fn to_json(&self, top: usize) -> Json {
        let t = self.class_totals();
        let mut cycles = vec![
            ("total".to_string(), Json::U64(self.total_cycles)),
            ("guest".to_string(), Json::U64(t.guest)),
            ("translate".to_string(), Json::U64(t.translate)),
            ("tool_translate".to_string(), Json::U64(t.tool_translate)),
            ("dispatch".to_string(), Json::U64(t.dispatch)),
            ("inline_probes".to_string(), Json::U64(t.inline_probes)),
            (
                "clean_call_probes".to_string(),
                Json::U64(t.clean_call_probes),
            ),
            ("overhead".to_string(), Json::U64(t.overhead())),
        ];
        if let Some(n) = self.native_cycles {
            cycles.push(("native".to_string(), Json::U64(n)));
        }

        let mut hot_blocks: Vec<_> = self.blocks.iter().collect();
        hot_blocks
            .sort_by(|(ka, a), (kb, b)| b.total_cycles().cmp(&a.total_cycles()).then(ka.cmp(kb)));
        let blocks = hot_blocks
            .into_iter()
            .take(top)
            .map(|(k, b)| {
                Json::obj([
                    ("pc", Json::U64(k.pc)),
                    ("module", Json::str(k.module.clone())),
                    ("function", Json::str(k.function.clone())),
                    ("execs", Json::U64(b.execs)),
                    ("translations", Json::U64(b.translations)),
                    ("guest_insns", Json::U64(b.guest_insns)),
                    ("guest_cycles", Json::U64(b.guest_cycles)),
                    ("translate_cycles", Json::U64(b.translate_cycles)),
                    ("tool_translate_cycles", Json::U64(b.tool_translate_cycles)),
                    ("dispatch_cycles", Json::U64(b.dispatch_cycles)),
                    ("inline_probe_cycles", Json::U64(b.inline_probe_cycles)),
                    ("clean_call_cycles", Json::U64(b.clean_call_cycles)),
                ])
            })
            .collect();

        let sites = self
            .ranked_sites()
            .into_iter()
            .take(top)
            .enumerate()
            .map(|(rank, (k, row))| {
                Json::obj([
                    ("rank", Json::U64(rank as u64 + 1)),
                    ("tool", Json::str(k.tool.clone())),
                    ("kind", Json::str(k.kind.clone())),
                    ("pc", Json::U64(k.pc)),
                    ("module", Json::str(row.module.clone())),
                    ("function", Json::str(row.function.clone())),
                    ("class", Json::str(row.class.as_str())),
                    ("origin", Json::str(row.origin.as_str())),
                    ("execs", Json::U64(row.stats.execs)),
                    ("cycles", Json::U64(row.stats.cycles)),
                    ("violations", Json::U64(row.stats.violations)),
                    ("elided", Json::U64(row.stats.elided)),
                ])
            })
            .collect();

        let edges = self
            .ranked_edges()
            .into_iter()
            .take(top)
            .map(|((from, to, kind), n)| {
                Json::obj([
                    ("from", Json::U64(*from)),
                    ("to", Json::U64(*to)),
                    ("kind", Json::str(kind.as_str())),
                    ("count", Json::U64(*n)),
                    (
                        "from_sym",
                        Json::str(self.labels.get(from).cloned().unwrap_or_default()),
                    ),
                    (
                        "to_sym",
                        Json::str(self.labels.get(to).cloned().unwrap_or_default()),
                    ),
                ])
            })
            .collect();

        let chains = self
            .hot_chains(top)
            .into_iter()
            .map(|c| {
                Json::obj([
                    (
                        "blocks",
                        Json::Arr(c.blocks.iter().map(|pc| Json::U64(*pc)).collect()),
                    ),
                    (
                        "syms",
                        Json::Arr(
                            c.blocks
                                .iter()
                                .map(|pc| {
                                    Json::str(self.labels.get(pc).cloned().unwrap_or_default())
                                })
                                .collect(),
                        ),
                    ),
                    ("min_count", Json::U64(c.min_count)),
                ])
            })
            .collect();

        let functions = self
            .functions()
            .into_iter()
            .map(|((module, function), (execs, t))| {
                Json::obj([
                    ("module", Json::str(module)),
                    ("function", Json::str(function)),
                    ("execs", Json::U64(execs)),
                    ("guest_cycles", Json::U64(t.guest)),
                    ("overhead_cycles", Json::U64(t.overhead())),
                ])
            })
            .collect();

        Json::obj([
            ("schema", Json::str("janitizer.profile/v2")),
            ("tool", Json::str(self.tool.clone())),
            ("exe", Json::str(self.exe.clone())),
            ("runs", Json::U64(self.runs)),
            ("cycles", Json::Obj(cycles)),
            (
                "engine",
                Json::obj([
                    (
                        "blocks_translated",
                        Json::U64(self.engine.blocks_translated),
                    ),
                    ("guest_insns", Json::U64(self.engine.guest_insns)),
                    ("probe_runs", Json::U64(self.engine.probe_runs)),
                    (
                        "indirect_transfers",
                        Json::U64(self.engine.indirect_transfers),
                    ),
                    ("oversized_blocks", Json::U64(self.engine.oversized_blocks)),
                    (
                        "indirect_chain_hits",
                        Json::U64(self.engine.indirect_chain_hits),
                    ),
                    ("checks_hoisted", Json::U64(self.engine.checks_hoisted)),
                    ("checks_elided", Json::U64(self.checks_elided())),
                    ("site_rows", Json::U64(self.sites.len() as u64)),
                ]),
            ),
            ("functions", Json::Arr(functions)),
            ("blocks", Json::Arr(blocks)),
            ("sites", Json::Arr(sites)),
            ("edges", Json::Arr(edges)),
            ("hot_chains", Json::Arr(chains)),
        ])
    }

    /// Folded-stack cycle attribution (`flamegraph.pl`-ready): one
    /// `tool;module;function;class cycles` line per non-zero bucket,
    /// sorted.
    pub fn to_folded(&self) -> String {
        let mut buckets: BTreeMap<String, u64> = BTreeMap::new();
        for (k, b) in &self.blocks {
            let base = format!("{};{};{}", self.tool, k.module, k.function);
            for (class, cycles) in [
                ("guest", b.guest_cycles),
                ("translate", b.translate_cycles),
                ("tool-translate", b.tool_translate_cycles),
                ("dispatch", b.dispatch_cycles),
                ("inline-probes", b.inline_probe_cycles),
                ("clean-call-probes", b.clean_call_cycles),
            ] {
                if cycles > 0 {
                    *buckets.entry(format!("{base};{class}")).or_insert(0) += cycles;
                }
            }
        }
        let mut out = String::new();
        for (stack, cycles) in buckets {
            let _ = writeln!(out, "{stack} {cycles}");
        }
        out
    }

    /// The overhead-budget table: the cell's overhead decomposed by
    /// class, then the ranked top-`top` probe sites and hot edges.
    pub fn budget_table(&self, top: usize) -> String {
        let t = self.class_totals();
        let overhead = t.overhead().max(1);
        let mut out = String::new();
        let ratio = self
            .native_cycles
            .filter(|n| *n > 0)
            .map(|n| self.total_cycles as f64 / n as f64);
        match ratio {
            Some(r) => {
                let _ = writeln!(
                    out,
                    "== overhead budget: {} under {} (slowdown {r:.2}x) ==",
                    self.exe, self.tool
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "== overhead budget: {} under {} ==",
                    self.exe, self.tool
                );
            }
        }
        let _ = writeln!(out, "{:<20}{:>14}{:>10}", "class", "cycles", "% ovh");
        for (name, cycles) in [
            ("dbt-translate", t.translate),
            ("tool-translate", t.tool_translate),
            ("dispatch", t.dispatch),
            ("inline-probes", t.inline_probes),
            ("clean-call-probes", t.clean_call_probes),
        ] {
            let _ = writeln!(
                out,
                "{name:<20}{cycles:>14}{:>9.1}%",
                100.0 * cycles as f64 / overhead as f64
            );
        }
        let _ = writeln!(out, "{:<20}{:>14}", "guest", t.guest);
        let e = &self.engine;
        if e.indirect_transfers > 0 {
            let _ = writeln!(
                out,
                "indirect transfers: {} ({} inlined-target chain hits, {:.1}%)",
                e.indirect_transfers,
                e.indirect_chain_hits,
                100.0 * e.indirect_chain_hits as f64 / e.indirect_transfers.max(1) as f64
            );
        }
        if e.checks_hoisted > 0 {
            let _ = writeln!(
                out,
                "shadow checks: {} hoisted (loop-invariant)",
                e.checks_hoisted
            );
        }
        let elided = self.checks_elided();
        if elided > 0 {
            let _ = writeln!(
                out,
                "statically elided checks executed: {elided} (across {} site(s))",
                self.sites.values().filter(|s| s.stats.elided > 0).count()
            );
        }

        let ranked = self.ranked_sites();
        if !ranked.is_empty() {
            let _ = writeln!(out, "-- top probe sites --");
            let _ = writeln!(
                out,
                "{:<5}{:<10}{:<16}{:<26}{:>10}{:>12}{:>7}{:>9}{:>8}",
                "rank", "tool", "kind", "site", "execs", "cycles", "% ovh", "origin", "elided"
            );
            for (rank, (k, row)) in ranked.into_iter().take(top).enumerate() {
                let site = format!("{}+{:#x}", row.function, k.pc);
                let _ = writeln!(
                    out,
                    "{:<5}{:<10}{:<16}{:<26}{:>10}{:>12}{:>6.1}%{:>9}{:>8}",
                    rank + 1,
                    k.tool,
                    k.kind,
                    site,
                    row.stats.execs,
                    row.stats.cycles,
                    100.0 * row.stats.cycles as f64 / overhead as f64,
                    row.origin.as_str(),
                    row.stats.elided,
                );
            }
        }

        let chains = self.hot_chains(top);
        if !chains.is_empty() {
            let _ = writeln!(out, "-- top hot edges --");
            for c in chains {
                let names: Vec<String> = c
                    .blocks
                    .iter()
                    .map(|pc| {
                        self.labels
                            .get(pc)
                            .cloned()
                            .unwrap_or_else(|| format!("{pc:#x}"))
                    })
                    .collect();
                let _ = writeln!(out, "  x{:<10} {}", c.min_count, names.join(" -> "));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janitizer_asm::{assemble, AsmOptions};
    use janitizer_dbt::{
        DecodedBlock, Engine, EngineOptions, NullTool, Probe, ProbeResult, ProbeRun, ProbeSite,
        TbItem, Tool,
    };
    use janitizer_link::{link, LinkOptions};
    use janitizer_vm::{load_process, LoadOptions, ModuleStore};

    const LOOP_SUM: &str = ".section text\n.global _start\n_start:\n\
        mov r0, 0\n mov r2, 10\n\
        loop:\n add r0, r2\n sub r2, 1\n cmp r2, 0\n jne loop\n ret\n";

    fn proc_from(src: &str) -> Process {
        let o = assemble("t.s", src, &AsmOptions::default()).unwrap();
        let img = link(&[o], &LinkOptions::executable("t")).unwrap();
        let mut store = ModuleStore::new();
        store.add(img);
        load_process(&store, "t", &LoadOptions::default()).unwrap()
    }

    struct Tagger;
    impl Tool for Tagger {
        fn name(&self) -> &str {
            "tagger"
        }
        fn instrument_block(&mut self, _proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
            let mut items = vec![TbItem::Probe(Probe {
                cost: 3,
                run: ProbeRun::custom(|_| ProbeResult::Ok),
                site: Some(ProbeSite {
                    tool: "tagger",
                    kind: "entry",
                    pc: block.start,
                    class: janitizer_dbt::ProbeClass::Inline,
                    origin: janitizer_dbt::SiteOrigin::Static,
                }),
            })];
            items.extend(
                block
                    .insns
                    .iter()
                    .map(|&(pc, i, n)| TbItem::Guest(pc, i, n)),
            );
            items
        }
    }

    fn profiled_run() -> (RunProfile, Stats, u64) {
        let mut p = proc_from(LOOP_SUM);
        let mut engine = Engine::new(EngineOptions {
            profile: true,
            ..EngineOptions::default()
        });
        let out = engine.run(&mut p, &mut Tagger, 1_000_000);
        assert_eq!(out.code(), Some(55));
        let rp = RunProfile::build(
            engine.profile().unwrap(),
            &engine.stats,
            &p,
            "tagger",
            "t",
            p.cycles,
        );
        (rp, engine.stats.clone(), p.cycles)
    }

    #[test]
    fn rollup_conserves_and_symbolizes() {
        let (rp, stats, cycles) = profiled_run();
        let t = rp.class_totals();
        assert_eq!(t.engine_overhead(), stats.total_overhead_cycles());
        assert_eq!(t.total(), cycles, "all cycles attributed");
        assert!(rp
            .blocks
            .keys()
            .any(|k| k.module == "t" && k.function == "_start"));
        assert!(rp
            .sites
            .keys()
            .all(|k| k.tool == "tagger" && k.kind == "entry"));
        let fns = rp.functions();
        assert!(fns.keys().any(|(m, _)| m == "t"));
    }

    #[test]
    fn exporters_are_deterministic_and_schema_stable() {
        let (a, _, _) = profiled_run();
        let (b, _, _) = profiled_run();
        assert_eq!(
            a.to_json(10).render_pretty(),
            b.to_json(10).render_pretty(),
            "profile JSON is run-to-run deterministic"
        );
        let json = a.to_json(10).render_pretty();
        assert!(json.contains("\"schema\": \"janitizer.profile/v2\""));
        for key in ["cycles", "sites", "edges", "hot_chains", "functions"] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
        let folded = a.to_folded();
        assert!(folded.contains("tagger;t;_start;guest "));
        let budget = a.budget_table(5);
        assert!(budget.contains("-- top probe sites --"));
        assert!(budget.contains("inline-probes"));
    }

    #[test]
    fn merge_is_commutative() {
        let (a, _, _) = profiled_run();
        let (b, _, _) = profiled_run();
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(
            ab.to_json(50).render_pretty(),
            ba.to_json(50).render_pretty()
        );
        assert_eq!(ab.runs, 2);
        assert_eq!(ab.total_cycles, a.total_cycles + b.total_cycles);
        assert_eq!(
            ab.class_totals().total(),
            a.class_totals().total() + b.class_totals().total()
        );
    }

    #[test]
    fn hot_chains_follow_the_loop() {
        let (rp, _, _) = profiled_run();
        let chains = rp.hot_chains(3);
        assert!(!chains.is_empty());
        // The hottest chain's floor is the loop's back-edge count.
        assert!(chains[0].min_count >= 7, "loop edge dominates: {chains:?}");
    }

    #[test]
    fn null_tool_profile_has_no_sites() {
        let mut p = proc_from(LOOP_SUM);
        let mut engine = Engine::new(EngineOptions {
            profile: true,
            ..EngineOptions::default()
        });
        engine.run(&mut p, &mut NullTool, 1_000_000);
        let rp = RunProfile::build(
            engine.profile().unwrap(),
            &engine.stats,
            &p,
            "null",
            "t",
            p.cycles,
        );
        assert!(rp.sites.is_empty());
        assert_eq!(rp.class_totals().total(), p.cycles);
    }
}
