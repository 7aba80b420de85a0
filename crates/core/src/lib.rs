//! # Janitizer — the hybrid static-dynamic framework core
//!
//! Ties the static analyzer (`janitizer-analysis`), the rewrite rules
//! (`janitizer-rules`) and the dynamic modifier (`janitizer-dbt`) together
//! into the workflow of the paper's Figure 1:
//!
//! 1. [`analyze_statically`] runs the generic core-layer analyses over a
//!    module, hands the results ([`StaticContext`]) to a
//!    [`SecurityPlugin`]'s static pass, and collects the emitted rewrite
//!    rules — adding a **no-op rule** for every statically recovered block
//!    the plugin left unmarked (§3.3.4), so the run-time classifier can
//!    tell "statically proven safe" apart from "never analyzed".
//! 2. [`JanitizerTool`] is the dynamic modifier client (Figure 4): at
//!    each module-load event it looks up the module's rule file and
//!    builds a PIC-adjusted per-module [`RuleTable`]; at each new basic
//!    block it classifies the block as *statically seen* (rule-table hit
//!    — apply rules via the plugin's static instrumenter) or *dynamic*
//!    (miss — the plugin's simpler per-block fallback).
//! 3. [`run_hybrid`] orchestrates the whole pipeline for one program and
//!    reports [`CoverageStats`] (the data behind Figure 14).

use janitizer_analysis as analysis;
use janitizer_dbt::{DecodedBlock, Engine, Tool};
pub use janitizer_dbt::{EngineOptions, RunOutcome, TbItem};
use janitizer_obj::{FormatError, Image};
use janitizer_rules::{RewriteRule, RuleFile, RuleTable};
use janitizer_vm::{load_process, LoadError, LoadOptions, ModuleStore, Process};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub use janitizer_dbt::{
    CostModel, JasanContext, JcfiContext, Probe, ProbeResult, ProbeRun, Report, ShadowRow,
    Stats as EngineStats, ToolContext, ViolationContext, ViolationKind,
};
pub use janitizer_diag::{Frame, Symbolizer, ViolationReport};
pub use janitizer_profile::RunProfile;
pub use janitizer_rules::{RuleId, NO_OP};

pub mod fault;
pub use fault::{FaultInjection, Mutation, Mutator, SplitMix64};
pub mod serve;
pub use serve::{AnalysisService, ServeReply, ServeStats, ServiceOptions};

/// The workspace-wide error taxonomy: every way the pipeline can fail on
/// hostile input, wrapped per layer. Untrusted-input paths surface one of
/// these instead of panicking; the fault-injection harness asserts it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JanitizerError {
    /// A JOF object or image (or a rule file) failed to decode.
    Format(FormatError),
    /// Static linking failed.
    Link(janitizer_link::LinkError),
    /// Process setup (mapping, relocation, symbol binding) failed.
    Load(LoadError),
}

impl fmt::Display for JanitizerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JanitizerError::Format(e) => write!(f, "format error: {e}"),
            JanitizerError::Link(e) => write!(f, "link error: {e}"),
            JanitizerError::Load(e) => write!(f, "load error: {e}"),
        }
    }
}

impl std::error::Error for JanitizerError {}

impl From<FormatError> for JanitizerError {
    fn from(e: FormatError) -> JanitizerError {
        JanitizerError::Format(e)
    }
}

impl From<janitizer_link::LinkError> for JanitizerError {
    fn from(e: janitizer_link::LinkError) -> JanitizerError {
        JanitizerError::Link(e)
    }
}

impl From<LoadError> for JanitizerError {
    fn from(e: LoadError) -> JanitizerError {
        JanitizerError::Load(e)
    }
}

/// Why a module was dropped into dynamic-only conservative mode instead
/// of aborting the run (the graceful-degradation policy: bad *rules*
/// must never take down a good *program*).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DegradationReason {
    /// The rule file failed structural decoding (truncated, bad magic,
    /// hostile counts, …).
    BadFormat,
    /// The rule file decoded but its payload checksum did not match.
    ChecksumMismatch,
    /// The rule file carries an older format version — rules from a
    /// previous build of the tools.
    StaleVersion,
    /// The rules verified, but were computed for a different build of
    /// the module (fingerprint over text + symbol table differs).
    FingerprintMismatch,
    /// The persistent rule store failed (I/O error past the retry
    /// budget) while serving this module; the request fell back to
    /// in-process analysis rather than surfacing an error to the client.
    StoreFailure,
    /// The supervised analysis exceeded its deterministic work budget;
    /// the partial (conservative) facts were discarded instead of being
    /// cached or persisted, and the module runs dynamic-only.
    AnalysisTimeout,
    /// The plugin's static pass panicked; the panic was isolated by the
    /// service supervisor and the module runs dynamic-only.
    AnalysisPanic,
    /// The static analyzer marked a byte region of this module as
    /// low-confidence (contradictory code/data evidence); that *region*
    /// — not the whole module — carries no rules and takes the dynamic
    /// fallback.
    LowConfidenceRegion,
    /// Two overlapping candidate instruction sequences claimed the same
    /// bytes and weight resolution rejected one; the losing region runs
    /// dynamic-only.
    DisasmConflict,
}

impl DegradationReason {
    /// Stable label used in run summaries.
    pub fn as_str(&self) -> &'static str {
        match self {
            DegradationReason::BadFormat => "bad-format",
            DegradationReason::ChecksumMismatch => "checksum-mismatch",
            DegradationReason::StaleVersion => "stale-version",
            DegradationReason::FingerprintMismatch => "fingerprint-mismatch",
            DegradationReason::StoreFailure => "store-failure",
            DegradationReason::AnalysisTimeout => "analysis-timeout",
            DegradationReason::AnalysisPanic => "analysis-panic",
            DegradationReason::LowConfidenceRegion => "low-confidence-region",
            DegradationReason::DisasmConflict => "disasm-conflict",
        }
    }

    /// Classifies a rule-file decode error.
    fn from_decode_error(e: &FormatError) -> DegradationReason {
        match e {
            FormatError::BadVersion(_) => DegradationReason::StaleVersion,
            FormatError::Invalid { what } if *what == "rule-file checksum" => {
                DegradationReason::ChecksumMismatch
            }
            _ => DegradationReason::BadFormat,
        }
    }
}

impl fmt::Display for DegradationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One module that [`run_hybrid`] demoted to the dynamic-only fallback.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ModuleDegradation {
    /// Module name.
    pub module: String,
    /// Why its rules were rejected.
    pub reason: DegradationReason,
}

/// Results of the generic (core-layer) static analyses over one module,
/// made available to every plugin's static pass.
#[derive(Debug)]
pub struct StaticContext {
    /// Whole-module CFG.
    pub cfg: analysis::ModuleCfg,
    /// Register and flag liveness (with ipa-ra inbound sets).
    pub liveness: analysis::Liveness,
    /// Detected stack-canary sites.
    pub canaries: Vec<analysis::CanarySite>,
    /// Natural loops.
    pub loops: Vec<analysis::Loop>,
    /// Loop-invariant memory operands.
    pub invariants: Vec<analysis::InvariantAccess>,
    /// Raw-binary code-pointer scan.
    pub scan: analysis::CodePtrScan,
    /// Per-block confidence tiers from the analyzer; blocks absent from
    /// the map are `Proven`.
    pub tiers: std::collections::BTreeMap<u64, analysis::ConfidenceTier>,
    /// Byte regions the analyzer degraded below static instrumentation.
    pub degraded_regions: Vec<analysis::DegradedRegion>,
    /// [`analysis::DisasmResult::backend`] of the disassembly behind
    /// `cfg`. Kept only because `perfbench` builds this struct by
    /// literal; nothing in the workspace reads it.
    pub backend: &'static str,
}

impl StaticContext {
    /// Runs all generic analyses over a module, starting from the
    /// soundness-tiered disassembly of [`analysis::analyze_tiered`].
    pub fn analyze(image: &Image) -> StaticContext {
        StaticContext::from_disasm(image, analysis::analyze_tiered(image))
    }

    /// The generic analyses after disassembly, over a given recovery.
    fn from_disasm(image: &Image, disasm: analysis::DisasmResult) -> StaticContext {
        let analysis::DisasmResult {
            cfg,
            tiers,
            degraded,
            backend,
            ..
        } = disasm;
        let liveness = analysis::compute_liveness(&cfg);
        let canaries = analysis::find_canary_sites(&cfg);
        let loops = analysis::find_loops(&cfg);
        let invariants = analysis::loop_invariant_accesses(&cfg, &loops);
        let scan = analysis::scan_code_pointers(image, &cfg);
        StaticContext {
            cfg,
            liveness,
            canaries,
            loops,
            invariants,
            scan,
            tiers,
            degraded_regions: degraded,
            backend,
        }
    }

    /// Block starts the analyzer marked `Unknown` — the per-region
    /// degradation set: these blocks get no rules (not even the no-op
    /// marker), so the run-time classifier sends exactly them to the
    /// dynamic fallback.
    fn unknown_blocks(&self) -> HashSet<u64> {
        self.tiers
            .iter()
            .filter(|(_, t)| **t == analysis::ConfidenceTier::Unknown)
            .map(|(s, _)| *s)
            .collect()
    }
}

/// The per-instruction rewrite rules of one translation-time block,
/// pre-grouped by the framework so plugins receive borrowed slices
/// instead of per-instruction `Vec` clones (the dispatch fast path).
#[derive(Debug, Default)]
pub struct BlockRules<'a> {
    /// `(instr addr, rules)` sorted by address; addresses without rules
    /// are simply absent.
    entries: Vec<(u64, &'a [RewriteRule])>,
}

impl<'a> BlockRules<'a> {
    /// Builds the lookup from pre-collected `(addr, rules)` pairs.
    pub fn new(mut entries: Vec<(u64, &'a [RewriteRule])>) -> BlockRules<'a> {
        entries.sort_unstable_by_key(|e| e.0);
        BlockRules { entries }
    }

    /// Rules attached to the instruction at `addr` (empty slice when
    /// none). No-op markers are never included.
    pub fn rules_for(&self, addr: u64) -> &'a [RewriteRule] {
        match self.entries.binary_search_by_key(&addr, |e| e.0) {
            Ok(i) => self.entries[i].1,
            Err(_) => &[],
        }
    }

    /// Whether no instruction in the block carries a rule.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A security technique plugged into Janitizer: a cross-block static pass
/// plus a (typically simpler) per-block dynamic fallback (paper §3.4.3:
/// "custom security techniques need to provide two different plug-in
/// passes").
pub trait SecurityPlugin {
    /// Technique name.
    fn name(&self) -> &str;

    /// Key identifying this plugin's *static behaviour* for the
    /// [`RuleCache`]: two plugin instances with the same key must emit
    /// identical rules for identical modules. Configurations that change
    /// the static pass (e.g. JASan's liveness ablations) must extend the
    /// key; configurations that only change the dynamic side need not.
    fn cache_key(&self) -> String {
        self.name().to_string()
    }

    /// Cross-block static pass over one module: emit rewrite rules.
    /// No-op rules for unmarked blocks are added by the framework.
    fn static_pass(&self, image: &Image, ctx: &StaticContext) -> Vec<RewriteRule>;

    /// Called *instead of* [`SecurityPlugin::static_pass`] when the
    /// framework reuses a cached rule file for `image`. Plugins that
    /// stash per-module side state during their static pass (JCFI's hint
    /// tables) rebuild it here from the memoized analysis context; the
    /// reconstruction must be deterministic so cached and fresh runs stay
    /// byte-identical.
    fn on_rules_cached(&self, _image: &Image, _ctx: &StaticContext) {}

    /// One-time dynamic setup (map shadow memory, install tables).
    fn on_start(&mut self, _proc: &mut Process) {}

    /// A module was loaded; `rules` is present when a rule file was found
    /// for it (statically analyzed) and absent for e.g. `dlopen`ed
    /// plugins with no rules, in which case the plugin may run its own
    /// load-time analysis (JCFI's §4.2.2 fallback scan).
    fn on_module_load(
        &mut self,
        _proc: &mut Process,
        _module_id: usize,
        _rules: Option<&RuleTable>,
    ) {
    }

    /// Instruments a statically-seen block by interpreting its rewrite
    /// rules (`rules.rules_for(addr)` yields the rules of each
    /// instruction as a borrowed slice).
    fn instrument_static(
        &mut self,
        proc: &mut Process,
        block: &DecodedBlock,
        rules: &BlockRules<'_>,
    ) -> Vec<TbItem>;

    /// Fallback: instruments a block that was never seen statically
    /// (dlopen without rules, JIT code, or missed static coverage).
    fn instrument_dynamic(&mut self, proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem>;

    /// Called when the guest exits.
    fn on_exit(&mut self, _proc: &mut Process) {}

    /// Drains the tool-specific contexts this plugin recorded for its
    /// violation reports, in report order (index *i* pairs with the
    /// engine's report *i*). Plugins without forensic context keep the
    /// default empty implementation — missing entries render as
    /// [`ToolContext::None`].
    fn take_violation_contexts(&mut self) -> Vec<ToolContext> {
        Vec::new()
    }
}

/// Runs the full static pipeline for one module with one plugin,
/// returning its rewrite-rule file (including the no-op markers for every
/// recovered block).
pub fn analyze_statically(image: &Image, plugin: &dyn SecurityPlugin) -> RuleFile {
    analyze_statically_with(image, plugin, true)
}

/// Like [`analyze_statically`], but `emit_noop_rules` can disable the
/// no-op markers — the ablation showing why §3.3.4 matters: without them
/// every statically-clean block is misclassified as never-analyzed and
/// re-instrumented by the (conservative, more expensive) dynamic
/// fallback.
pub fn analyze_statically_with(
    image: &Image,
    plugin: &dyn SecurityPlugin,
    emit_noop_rules: bool,
) -> RuleFile {
    let ctx = StaticContext::analyze(image);
    emit_rules(image, &ctx, plugin, emit_noop_rules)
}

/// Like [`analyze_statically`], but over a given disassembly instead of
/// the analyzer's — how the no-evidence ablation
/// ([`analysis::DisasmResult::untiered`]) gets its rules.
pub fn rules_from_disasm(
    image: &Image,
    disasm: analysis::DisasmResult,
    plugin: &dyn SecurityPlugin,
) -> RuleFile {
    emit_rules(
        image,
        &StaticContext::from_disasm(image, disasm),
        plugin,
        true,
    )
}

/// The rule-emission half of the static pipeline: runs the plugin's
/// static pass over an already-computed [`StaticContext`] and adds the
/// no-op markers. Split out so the [`RuleCache`] can reuse a memoized
/// context across plugins.
fn emit_rules(
    image: &Image,
    ctx: &StaticContext,
    plugin: &dyn SecurityPlugin,
    emit_noop_rules: bool,
) -> RuleFile {
    let mut file = RuleFile::new(image.name.clone(), image.pic);
    // Stamp the rules with the module build they were computed from, so
    // the run-time loader can reject rules for a different build.
    file.fingerprint = image.fingerprint();
    file.rules = plugin.static_pass(image, ctx);
    // Per-region graceful degradation: blocks the analyzer marked
    // `Unknown` carry no rules at all — neither plugin rules (which
    // would rewrite bytes that may not be code) nor the no-op marker —
    // so the classifier misses them and the dynamic fallback
    // conservatively instruments exactly those regions.
    let unknown = ctx.unknown_blocks();
    if !unknown.is_empty() {
        file.rules.retain(|r| !unknown.contains(&r.bb_addr));
    }
    // No-op rules: mark every statically recovered block so the dynamic
    // classifier can distinguish "seen and clean" from "never seen".
    if emit_noop_rules {
        let marked: HashSet<u64> = file.rules.iter().map(|r| r.bb_addr).collect();
        for &start in ctx.cfg.blocks.keys() {
            if !marked.contains(&start) && !unknown.contains(&start) {
                file.rules.push(RewriteRule::no_op(start));
            }
        }
    }
    file
}

/// A filled cache slot: the memoized rule file plus the context it was
/// derived from (kept for plugin-side-state replay on later hits).
type CachedRules = (Arc<RuleFile>, Arc<StaticContext>);

/// Per-module cache slot: the memoized generic analyses plus every rule
/// file derived from them, keyed by plugin cache key and no-op flag.
struct ModuleEntry {
    /// Pinned image handle. Keeps the allocation (and therefore the
    /// pointer identity used as the cache key) alive for the cache's
    /// lifetime, ruling out ABA reuse of a freed image's address.
    image: Arc<Image>,
    /// Lazily computed generic analysis results, shared by all plugins.
    ctx: Mutex<Option<Arc<StaticContext>>>,
    /// `(plugin cache key, emit_noop)` -> memoized rule file + context.
    slots: Mutex<HashMap<(String, bool), CachedRules>>,
}

/// The analyze-once / run-many cache (paper §3.3.1: rules are computed
/// offline and *reused* at every run). Keyed by module identity (the
/// `Arc<Image>` allocation), plugin cache key, and the no-op-rule flag;
/// each distinct combination is statically analyzed exactly once per
/// cache lifetime, with the expensive generic analyses
/// ([`StaticContext`]) additionally shared across plugins of the same
/// module.
///
/// The cache is `Sync`: concurrent [`RuleCache::get_or_analyze`] calls
/// for the same key block on a per-module mutex, so exactly-once holds
/// even under the parallel evaluation fan-out.
#[derive(Default)]
pub struct RuleCache {
    modules: Mutex<HashMap<usize, Arc<ModuleEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// `(module name, plugin cache key)` -> number of times the plugin's
    /// static pass actually ran (pins the exactly-once guarantee).
    analyses: Mutex<HashMap<(String, String), u64>>,
    /// Optional persistent backing: consulted on in-memory misses and
    /// populated after fresh analyses (the analyze-once story across
    /// *processes*, not just within one).
    store: Option<Arc<janitizer_store::RuleStore>>,
}

/// Where [`RuleCache::get_or_analyze_traced`] got the rule file from —
/// the observability hook of the analysis service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FillSource {
    /// Served from the in-memory slot.
    Memory,
    /// Served from the persistent store (verified on load).
    Store,
    /// Freshly analyzed in-process. `store_failed` is set when a backing
    /// store was configured but failed with an I/O error on the load or
    /// save path — the caller may report [`DegradationReason::StoreFailure`].
    Analyzed {
        /// Persistent-store I/O failed on this request's load/save path.
        store_failed: bool,
    },
}

impl std::fmt::Debug for RuleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleCache")
            .field(
                "modules",
                &self.modules.lock().unwrap_or_else(|e| e.into_inner()).len(),
            )
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish()
    }
}

/// Hit/miss counters of a [`RuleCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleCacheStats {
    /// Rule files served from the cache.
    pub hits: u64,
    /// Rule files computed by running a static pass.
    pub misses: u64,
}

impl RuleCache {
    /// Creates an empty cache.
    pub fn new() -> RuleCache {
        RuleCache::default()
    }

    /// Creates a cache backed by a persistent [`janitizer_store::RuleStore`]:
    /// in-memory misses consult the store before analyzing, and fresh
    /// analyses are committed back, so a later process (or a recovered
    /// store) serves byte-identical rules without re-running any static
    /// pass.
    pub fn with_store(store: Arc<janitizer_store::RuleStore>) -> RuleCache {
        RuleCache {
            store: Some(store),
            ..RuleCache::default()
        }
    }

    /// The persistent backing store, if one was configured.
    pub fn store(&self) -> Option<&Arc<janitizer_store::RuleStore>> {
        self.store.as_ref()
    }

    /// Returns the module's rule file for `plugin`, running the static
    /// pipeline only on the first request per (module, plugin cache key,
    /// no-op flag). On a hit the plugin's
    /// [`SecurityPlugin::on_rules_cached`] hook replays its per-module
    /// side state from the memoized context.
    pub fn get_or_analyze(
        &self,
        image: &Arc<Image>,
        plugin: &dyn SecurityPlugin,
        emit_noop_rules: bool,
    ) -> Arc<RuleFile> {
        self.get_or_analyze_traced(image, plugin, emit_noop_rules).0
    }

    /// [`RuleCache::get_or_analyze`] plus the provenance of the result —
    /// the analysis service uses the trace to report store failures as
    /// degradations instead of errors.
    pub fn get_or_analyze_traced(
        &self,
        image: &Arc<Image>,
        plugin: &dyn SecurityPlugin,
        emit_noop_rules: bool,
    ) -> (Arc<RuleFile>, FillSource) {
        let (file, _, source) = self.get_or_analyze_full(image, plugin, emit_noop_rules);
        (file, source)
    }

    /// [`RuleCache::get_or_analyze_traced`] plus the memoized analysis
    /// context — [`run_hybrid`] reads the analyzer's per-region
    /// degradations from it on every run, hits included.
    pub fn get_or_analyze_full(
        &self,
        image: &Arc<Image>,
        plugin: &dyn SecurityPlugin,
        emit_noop_rules: bool,
    ) -> (Arc<RuleFile>, Arc<StaticContext>, FillSource) {
        let entry = {
            let mut m = self.modules.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(m.entry(Arc::as_ptr(image) as usize).or_insert_with(|| {
                Arc::new(ModuleEntry {
                    image: Arc::clone(image),
                    ctx: Mutex::new(None),
                    slots: Mutex::new(HashMap::new()),
                })
            }))
        };
        let key = (plugin.cache_key(), emit_noop_rules);
        // The slot lock is held across the (possible) analysis so a
        // concurrent request for the same key waits instead of repeating
        // the work — the exactly-once guarantee.
        let mut slots = entry.slots.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((file, ctx)) = slots.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            plugin.on_rules_cached(image, ctx);
            return (Arc::clone(file), Arc::clone(ctx), FillSource::Memory);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // The generic analyses are needed on every fill path: a fresh
        // analysis consumes them directly, and a store hit replays the
        // plugin's side state from them (`on_rules_cached`) — the store
        // elides only the plugin static passes, which is also what keeps
        // store-served and in-process rules byte-identical.
        let ctx = {
            let mut c = entry.ctx.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(c.get_or_insert_with(|| Arc::new(StaticContext::analyze(image))))
        };
        let skey = self.store.as_ref().map(|_| janitizer_store::StoreKey {
            module: image.name.clone(),
            fingerprint: image.fingerprint(),
            plugin: key.0.clone(),
            noop: key.1,
        });
        let mut store_failed = false;
        if let (Some(st), Some(skey)) = (&self.store, &skey) {
            match st.load(skey) {
                Ok(Some(bytes)) => {
                    // A payload whose rule bytes disagree with this module
                    // (stale or tampered, though its envelope verified)
                    // falls through to a fresh analysis, which overwrites
                    // the entry.
                    if let Ok(f) = verify_rule_bytes(image, &bytes) {
                        plugin.on_rules_cached(image, &ctx);
                        let file = Arc::new(f);
                        slots.insert(key, (Arc::clone(&file), Arc::clone(&ctx)));
                        return (file, ctx, FillSource::Store);
                    }
                }
                Ok(None) => {}
                Err(_) => store_failed = true,
            }
        }
        {
            let mut a = self.analyses.lock().unwrap_or_else(|e| e.into_inner());
            *a.entry((image.name.clone(), key.0.clone())).or_insert(0) += 1;
        }
        let file = Arc::new(emit_rules(image, &ctx, plugin, emit_noop_rules));
        if analysis::budget::overrun() {
            // The service-armed budget ran out mid-analysis: the facts are
            // conservative but truncated, so neither memoize nor persist
            // them — the supervisor observes the overrun and degrades.
            // The generic context was necessarily computed under this
            // budget (memoized contexts charge nothing), so it is
            // truncated too: drop it for the next, possibly unbudgeted,
            // fill. The held slot lock makes the discard race-free.
            *entry.ctx.lock().unwrap_or_else(|e| e.into_inner()) = None;
            return (file, ctx, FillSource::Analyzed { store_failed });
        }
        if let (Some(st), Some(skey)) = (&self.store, &skey) {
            store_failed |= st.save(skey, &file.to_bytes()).is_err();
        }
        slots.insert(key, (Arc::clone(&file), Arc::clone(&ctx)));
        (file, ctx, FillSource::Analyzed { store_failed })
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> RuleCacheStats {
        RuleCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// How many times `plugin_key`'s static pass actually ran over the
    /// module named `module` (0 = never, 1 = analyze-once as intended).
    pub fn analysis_count(&self, module: &str, plugin_key: &str) -> u64 {
        self.analyses
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&(module.to_string(), plugin_key.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Drops every entry for modules named `name`, releasing the pinned
    /// image and its analyses. Used by harnesses that build throwaway
    /// single-use executables (the Juliet cases) against long-lived
    /// shared libraries: evicting the throwaway keeps the cache bounded
    /// while `libc`/`ld.so` stay memoized.
    pub fn evict_module(&self, name: &str) {
        self.modules
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|_, e| e.image.name != name);
    }
}

/// The modules the static analyzer would see for the given roots: the
/// roots themselves plus everything reachable through `needed` edges —
/// the `ldd`-discoverable closure of [`run_hybrid`]. Returned in
/// deterministic discovery order.
pub fn dependency_closure(store: &ModuleStore, roots: &[String]) -> Vec<String> {
    let mut queue: Vec<String> = Vec::new();
    let mut enqueued: HashSet<String> = HashSet::new();
    for r in roots {
        if enqueued.insert(r.clone()) {
            queue.push(r.clone());
        }
    }
    let mut qi = 0;
    while qi < queue.len() {
        let name = queue[qi].clone();
        qi += 1;
        let Some(image) = store.get(&name) else {
            continue;
        };
        for dep in &image.needed {
            if enqueued.insert(dep.clone()) {
                queue.push(dep.clone());
            }
        }
    }
    queue
}

/// A repository of rule files keyed by module name — the stand-in for the
/// per-module files of §3.3.1 that "are loaded at run-time with the
/// module".
#[derive(Clone, Debug, Default)]
pub struct RuleRepo {
    files: HashMap<String, Arc<RuleFile>>,
}

impl RuleRepo {
    /// Creates an empty repository.
    pub fn new() -> RuleRepo {
        RuleRepo::default()
    }

    /// Stores a module's rule file.
    pub fn add(&mut self, file: RuleFile) {
        self.add_shared(Arc::new(file));
    }

    /// Stores a module's rule file without copying it — the repo and a
    /// [`RuleCache`] share the same allocation.
    pub fn add_shared(&mut self, file: Arc<RuleFile>) {
        self.files.insert(file.module.clone(), file);
    }

    /// Fetches a module's rule file.
    pub fn get(&self, module: &str) -> Option<&RuleFile> {
        self.files.get(module).map(Arc::as_ref)
    }
}

/// Block-classification counters (the data behind Figure 14).
#[derive(Clone, Copy, Debug, Default)]
pub struct CoverageStats {
    /// Distinct blocks instrumented from rewrite rules (statically seen).
    pub static_blocks: u64,
    /// Distinct blocks that went to the dynamic-analysis fallback.
    pub dynamic_blocks: u64,
    /// Of the dynamic blocks, those inside an analyzer-degraded region —
    /// the region-scoped graceful-degradation fallback, as opposed to
    /// code the static tier never saw at all.
    pub region_fallback_blocks: u64,
}

#[derive(Debug, Default)]
struct CoverageSets {
    static_seen: std::collections::HashSet<u64>,
    dynamic_seen: std::collections::HashSet<u64>,
    region_fallback: std::collections::HashSet<u64>,
}

impl CoverageSets {
    fn stats(&self) -> CoverageStats {
        CoverageStats {
            static_blocks: self.static_seen.len() as u64,
            dynamic_blocks: self.dynamic_seen.len() as u64,
            region_fallback_blocks: self.region_fallback.len() as u64,
        }
    }
}

impl CoverageStats {
    /// Fraction of blocks only seen dynamically, in percent.
    pub fn dynamic_fraction(&self) -> f64 {
        let total = self.static_blocks + self.dynamic_blocks;
        if total == 0 {
            0.0
        } else {
            self.dynamic_blocks as f64 * 100.0 / total as f64
        }
    }
}

/// The dynamic modifier client that implements Janitizer's run-time side:
/// rule loading, PIC adjustment, and the static/dynamic code classifier.
pub struct JanitizerTool<P: SecurityPlugin> {
    /// The plugged-in security technique.
    pub plugin: P,
    repo: RuleRepo,
    /// Per-module rule tables, indexed by module id (Figure 5).
    tables: Vec<Option<RuleTable>>,
    coverage_sets: CoverageSets,
    /// Analyzer-degraded byte regions per module name (image address
    /// space), for classifying misses as region-scoped fallback.
    degraded_regions: HashMap<String, janitizer_dbt::RegionSet>,
}

impl<P: SecurityPlugin> JanitizerTool<P> {
    /// Creates the tool around a plugin and the rule files produced by
    /// the static analyzer.
    pub fn new(plugin: P, repo: RuleRepo) -> JanitizerTool<P> {
        JanitizerTool {
            plugin,
            repo,
            tables: Vec::new(),
            coverage_sets: CoverageSets::default(),
            degraded_regions: HashMap::new(),
        }
    }

    /// Installs the static analyzer's degraded regions, keyed by
    /// module name. Classification-time misses inside these regions
    /// count as [`CoverageStats::region_fallback_blocks`].
    pub fn set_degraded_regions(&mut self, regions: HashMap<String, janitizer_dbt::RegionSet>) {
        self.degraded_regions = regions;
    }

    /// Distinct-block classification counters (Figure 14).
    pub fn coverage(&self) -> CoverageStats {
        self.coverage_sets.stats()
    }

    fn table_for_addr<'a>(
        tables: &'a [Option<RuleTable>],
        proc: &Process,
        addr: u64,
    ) -> Option<&'a RuleTable> {
        let m = proc.module_containing(addr)?;
        tables.get(m.id).and_then(|t| t.as_ref())
    }
}

impl<P: SecurityPlugin> Tool for JanitizerTool<P> {
    fn name(&self) -> &str {
        "janitizer"
    }

    fn on_start(&mut self, proc: &mut Process) {
        self.plugin.on_start(proc);
    }

    fn on_module_load(&mut self, proc: &mut Process, module_id: usize) {
        // Load the module's rewrite rules (if the static analyzer produced
        // any) into a fresh hash table, adjusting addresses by the load
        // bias for PIC modules (Figure 5a).
        let m = &proc.modules[module_id];
        let table = self
            .repo
            .get(&m.image.name)
            .map(|file| RuleTable::from_file(file, m.base));
        while self.tables.len() <= module_id {
            self.tables.push(None);
        }
        self.tables[module_id] = table;
        let t = self.tables[module_id].as_ref();
        self.plugin.on_module_load(proc, module_id, t);
    }

    fn instrument_block(&mut self, proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
        // The loader's bootstrap shim is runtime-injected scaffolding (like
        // a DBT's own trampolines): executed verbatim, never instrumented,
        // and not counted as application code.
        if (janitizer_vm::BOOTSTRAP_BASE..janitizer_vm::BOOTSTRAP_BASE + 0x1000)
            .contains(&block.start)
        {
            return block.passthrough();
        }
        // The classifier (Figure 4): a hit in the owning module's hash
        // table means the block was statically seen.
        let hit = Self::table_for_addr(&self.tables, proc, block.start)
            .and_then(|t| t.lookup_bb(block.start))
            .is_some();
        if hit {
            self.coverage_sets.static_seen.insert(block.start);
            // Pre-group per-instruction rules once across the (possibly
            // merged) translation-time block, handing the plugin borrowed
            // slices into the rule tables — no per-instruction cloning.
            let mut entries: Vec<(u64, &[RewriteRule])> = Vec::with_capacity(block.ops.len());
            for pc in block.ops.iter().map(|op| op.pc) {
                let rules = Self::table_for_addr(&self.tables, proc, pc)
                    .map(|t| t.lookup_instr(pc))
                    .unwrap_or(&[]);
                if !rules.is_empty() {
                    entries.push((pc, rules));
                }
            }
            let lookup = BlockRules::new(entries);
            self.plugin.instrument_static(proc, block, &lookup)
        } else {
            if self.coverage_sets.dynamic_seen.insert(block.start) {
                // Region-scoped fallback attribution: a miss inside a
                // analyzer-degraded region is graceful degradation doing
                // its job, not a static-coverage gap.
                let in_region = proc
                    .module_containing(block.start)
                    .and_then(|m| {
                        let rel = block.start.wrapping_sub(m.base);
                        self.degraded_regions
                            .get(&m.image.name)
                            .map(|r| r.contains(rel))
                    })
                    .unwrap_or(false);
                if in_region {
                    self.coverage_sets.region_fallback.insert(block.start);
                }
            }
            self.plugin.instrument_dynamic(proc, block)
        }
    }

    fn on_exit(&mut self, proc: &mut Process) {
        self.plugin.on_exit(proc);
    }
}

/// Everything produced by one [`run_hybrid`] execution.
#[derive(Debug)]
pub struct HybridRun {
    /// How the guest stopped.
    pub outcome: RunOutcome,
    /// Cycle count (the performance metric; compare against a native run).
    pub cycles: u64,
    /// Guest instruction count.
    pub insns: u64,
    /// Engine statistics (translation/dispatch/probe cycles, reports).
    pub engine: EngineStats,
    /// Static/dynamic block classification.
    pub coverage: CoverageStats,
    /// Captured stdout.
    pub stdout: String,
    /// Forensic reports, one per engine report — empty unless
    /// [`HybridOptions::forensics`] is set.
    pub reports: Vec<ViolationReport>,
    /// Symbolized overhead-attribution profile — `None` unless
    /// [`HybridOptions::profile`] is set. Observation-only: outcome,
    /// cycles, coverage, and stdout are byte-identical either way.
    pub profile: Option<RunProfile>,
    /// Modules whose rules failed integrity verification and were demoted
    /// to dynamic-only conservative instrumentation, sorted by module
    /// name. Empty on a clean run.
    pub degraded: Vec<ModuleDegradation>,
}

/// Options for [`run_hybrid`].
#[derive(Clone, Debug, Default)]
pub struct HybridOptions {
    /// Loader options (preloads, args, binding mode, seed).
    pub load: LoadOptions,
    /// Engine options (cost model, violation policy).
    pub engine: EngineOptions,
    /// Skip the static pass entirely — the paper's "-dyn" configurations,
    /// where every block goes through the dynamic fallback.
    pub dynamic_only: bool,
    /// Emit no-op rules for unmodified blocks (§3.3.4). Disable only for
    /// the ablation study.
    pub no_noop_rules: bool,
    /// Extra modules to analyze statically even though `ldd` cannot
    /// discover them — modelling a `dlopen`ed library that ships with a
    /// rewrite-rule file (paper §3.4 footnote 1: "if a shared object
    /// library is loaded during execution via dlopen and happens to have
    /// an associated file with rewrite rules, they can be processed").
    pub analyze_extra: Vec<String>,
    /// Shared analyze-once cache: when set, per-module rule files are
    /// memoized across [`run_hybrid`] calls instead of re-running the
    /// static pipeline on every run.
    pub rule_cache: Option<Arc<RuleCache>>,
    /// Cycle budget.
    pub fuel: u64,
    /// Assemble a forensic [`ViolationReport`] for every violation
    /// (symbolized backtrace, disasm window, tool context, execution
    /// trail). Observation-only: the deterministic results are identical
    /// either way; off by default to skip the assembly work.
    pub forensics: bool,
    /// Collect the deterministic hotness/overhead-attribution profile
    /// (per-block cycle classes, probe-site accounting, edge counts) and
    /// return it symbolized in [`HybridRun::profile`]. Observation-only,
    /// like `forensics`; off by default to skip the counter upkeep.
    pub profile: bool,
    /// Serialized rule files that replace the static analyzer's output
    /// for the named modules, as if read from an on-disk rule repository.
    /// Each override goes through the full integrity-checked decode, so a
    /// corrupt/stale/mismatched override degrades that module instead of
    /// being trusted.
    pub rule_overrides: HashMap<String, Vec<u8>>,
    /// Deterministically corrupt each module's serialized rule file with
    /// the given seed/rate before the integrity-checked load — the
    /// `--inject-faults` evaluation mode. `None` (the default) keeps the
    /// trusted in-memory fast path, byte-identical to previous behaviour.
    pub inject_faults: Option<FaultInjection>,
}

impl HybridOptions {
    /// Defaults with a generous fuel budget.
    pub fn with_fuel(fuel: u64) -> HybridOptions {
        HybridOptions {
            fuel,
            ..HybridOptions::default()
        }
    }
}

/// Verifies one module's serialized rule file against the module image:
/// integrity-checked decode, then the build-fingerprint comparison. `Ok`
/// is the decoded, trusted file; `Err` is the degradation cause.
fn verify_rule_bytes(image: &Image, bytes: &[u8]) -> Result<RuleFile, DegradationReason> {
    let file = RuleFile::from_bytes(bytes).map_err(|e| DegradationReason::from_decode_error(&e))?;
    if file.module != image.name || file.fingerprint != image.fingerprint() {
        return Err(DegradationReason::FingerprintMismatch);
    }
    Ok(file)
}

/// Runs `exe` under Janitizer with `plugin`: statically analyzes every
/// module in the store (unless `dynamic_only`), loads the process, and
/// executes it under the dynamic modifier.
///
/// Rule-file integrity failures do **not** abort the run: the affected
/// module is dropped into dynamic-only conservative mode (its blocks all
/// miss the classifier and take the plugin's dynamic fallback), the
/// demotion and its cause are recorded in [`HybridRun::degraded`], and
/// the flight recorder of `opts.load` trips a `module-degraded` dump.
///
/// # Errors
///
/// Returns a [`JanitizerError`] if process setup fails.
pub fn run_hybrid<P: SecurityPlugin>(
    store: &ModuleStore,
    exe: &str,
    plugin: P,
    opts: &HybridOptions,
) -> Result<HybridRun, JanitizerError> {
    let mut repo = RuleRepo::new();
    let mut degraded: Vec<ModuleDegradation> = Vec::new();
    let mut region_map: HashMap<String, janitizer_dbt::RegionSet> = HashMap::new();
    if !opts.dynamic_only {
        // The static analyzer sees the executable and the dependencies
        // `ldd` can discover (plus preloads and ld.so) — NOT modules that
        // only arrive via dlopen (paper 3.4, footnote 1).
        let mut roots: Vec<String> = vec![exe.to_string()];
        roots.extend(opts.load.preload.iter().cloned());
        roots.extend(opts.analyze_extra.iter().cloned());
        roots.push("ld.so".into());
        for name in dependency_closure(store, &roots) {
            let Some(image) = store.get(&name) else {
                continue;
            };
            // A module's rules come either from an explicit override (an
            // "on-disk" serialized rule file) or from the static pipeline.
            let override_bytes = opts.rule_overrides.get(&name);
            let file = if override_bytes.is_none() {
                let (f, ctx) = match &opts.rule_cache {
                    Some(cache) => {
                        let (f, ctx, _) =
                            cache.get_or_analyze_full(&image, &plugin, !opts.no_noop_rules);
                        (f, ctx)
                    }
                    None => {
                        let ctx = Arc::new(StaticContext::analyze(&image));
                        let f = Arc::new(emit_rules(&image, &ctx, &plugin, !opts.no_noop_rules));
                        (f, ctx)
                    }
                };
                // Per-region graceful degradation: every byte region the
                // static analyzer refused to trust is recorded (and
                // surfaced through the flight recorder), but
                // the rest of the module keeps full static rules.
                for r in &ctx.degraded_regions {
                    let reason = match r.cause {
                        analysis::RegionCause::LowConfidence => {
                            DegradationReason::LowConfidenceRegion
                        }
                        analysis::RegionCause::Conflict => DegradationReason::DisasmConflict,
                    };
                    opts.load
                        .flight
                        .record("disasm.degraded", Some(&name), r.start, r.len);
                    degraded.push(ModuleDegradation {
                        module: name.clone(),
                        reason,
                    });
                }
                if !ctx.degraded_regions.is_empty() {
                    region_map.insert(
                        name.clone(),
                        janitizer_dbt::RegionSet::from_ranges(
                            ctx.degraded_regions.iter().map(|r| (r.start, r.len)),
                        ),
                    );
                }
                if opts.inject_faults.is_none() {
                    // Trusted in-memory fast path: the rules were computed
                    // in this process, no serialization round-trip needed.
                    repo.add_shared(f);
                    continue;
                }
                Some(f)
            } else {
                None
            };
            // Untrusted path: serialized bytes (override, or the freshly
            // emitted file with faults injected) through the verified load.
            let mut bytes = match (override_bytes, &file) {
                (Some(b), _) => b.clone(),
                (None, Some(f)) => f.to_bytes(),
                (None, None) => unreachable!("no override and no analysis result"),
            };
            if let Some(fi) = opts.inject_faults {
                let mut rng = SplitMix64::new(fi.module_seed(&name));
                if rng.chance(fi.rate) {
                    Mutator::new(rng.next_u64()).mutate(&mut bytes);
                }
            }
            match verify_rule_bytes(&image, &bytes) {
                Ok(f) => repo.add(f),
                Err(reason) => {
                    opts.load.flight.trip("module-degraded", Some(&name), 0, 0);
                    degraded.push(ModuleDegradation {
                        module: name.clone(),
                        reason,
                    });
                }
            }
        }
        degraded.sort_by(|a, b| a.module.cmp(&b.module));
    }
    let mut proc = load_process(store, exe, &opts.load)?;
    let mut tool = JanitizerTool::new(plugin, repo);
    tool.set_degraded_regions(region_map);
    let mut engine_opts = opts.engine.clone();
    engine_opts.profile |= opts.profile;
    let mut engine = Engine::new(engine_opts);
    let fuel = if opts.fuel == 0 {
        2_000_000_000
    } else {
        opts.fuel
    };
    let outcome = engine.run(&mut proc, &mut tool, fuel);
    // Like forensics below, the profile is symbolized while the process
    // (load map, symbol tables) is still alive.
    let profile = engine.take_profile().map(|p| {
        RunProfile::build(
            &p,
            &engine.stats,
            &proc,
            tool.plugin.name(),
            exe,
            proc.cycles,
        )
    });
    // Forensics runs after the engine but while the process (memory,
    // load map) is still alive, so reports see exact violation-time
    // state for halting runs and the final state otherwise.
    let reports = if opts.forensics {
        let name = tool.plugin.name().to_string();
        let tool_ctxs = tool.plugin.take_violation_contexts();
        janitizer_diag::capture_reports(&mut proc, exe, &name, &engine.stats, tool_ctxs)
    } else {
        Vec::new()
    };
    Ok(HybridRun {
        outcome,
        cycles: proc.cycles,
        insns: proc.insns,
        engine: engine.stats.clone(),
        coverage: tool.coverage(),
        stdout: proc.stdout_string(),
        reports,
        profile,
        degraded,
    })
}

/// Runs `exe` natively (no instrumentation) for baseline cycle counts.
///
/// # Errors
///
/// Returns a [`LoadError`] if process setup fails.
pub fn run_native(
    store: &ModuleStore,
    exe: &str,
    load: &LoadOptions,
    fuel: u64,
) -> Result<(janitizer_vm::Exit, Process), LoadError> {
    let mut proc = load_process(store, exe, load)?;
    let fuel = if fuel == 0 { 2_000_000_000 } else { fuel };
    let exit = proc.run_native(fuel);
    Ok((exit, proc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use janitizer_asm::{assemble, AsmOptions};
    use janitizer_isa::Instr;
    use janitizer_link::{link, LinkOptions};
    use janitizer_telemetry::flight::Flight;

    /// A plugin that counts memory accesses, statically marking them with
    /// rule id 7 and dynamically instrumenting everything.
    struct CountPlugin {
        hits: std::rc::Rc<std::cell::Cell<u64>>,
        dyn_hits: std::rc::Rc<std::cell::Cell<u64>>,
    }

    const MEM_RULE: RuleId = 7;

    impl SecurityPlugin for CountPlugin {
        fn name(&self) -> &str {
            "count"
        }

        fn static_pass(&self, _image: &Image, ctx: &StaticContext) -> Vec<RewriteRule> {
            let mut rules = Vec::new();
            for block in ctx.cfg.blocks.values() {
                for (addr, insn) in &block.insns {
                    if insn.mem_access().is_some() {
                        rules.push(RewriteRule::new(MEM_RULE, block.start, *addr));
                    }
                }
            }
            rules
        }

        fn instrument_static(
            &mut self,
            _proc: &mut Process,
            block: &DecodedBlock,
            rules: &BlockRules<'_>,
        ) -> Vec<TbItem> {
            let mut items = Vec::new();
            for &op in &block.ops {
                for r in rules.rules_for(op.pc) {
                    assert_eq!(r.id, MEM_RULE);
                    let hits = self.hits.clone();
                    items.push(TbItem::Probe(Probe::new(
                        3,
                        Box::new(move |_p| {
                            hits.set(hits.get() + 1);
                            ProbeResult::Ok
                        }),
                    )));
                }
                items.push(TbItem::Guest(op));
            }
            items
        }

        fn instrument_dynamic(&mut self, _proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
            let mut items = Vec::new();
            for &op in &block.ops {
                if op.insn.mem_access().is_some() {
                    let hits = self.dyn_hits.clone();
                    items.push(TbItem::Probe(Probe::new(
                        6,
                        Box::new(move |_p| {
                            hits.set(hits.get() + 1);
                            ProbeResult::Ok
                        }),
                    )));
                }
                items.push(TbItem::Guest(op));
            }
            items
        }
    }

    fn test_store(src: &str) -> ModuleStore {
        let o = assemble("t.s", src, &AsmOptions::default()).unwrap();
        let img = link(&[o], &LinkOptions::executable("t")).unwrap();
        let mut store = ModuleStore::new();
        store.add(img);
        store
    }

    const MEM_LOOP: &str = ".section text\n.global _start\n_start:\n\
        la r8, buf\n mov r2, 0\n\
        loop:\n st8 [r8+r2*8], r2\n add r2, 1\n cmp r2, 8\n jne loop\n\
        ld8 r0, [r8+16]\n ret\n\
        .section bss\nbuf: .space 64\n";

    #[test]
    fn static_rules_drive_instrumentation() {
        let hits = std::rc::Rc::new(std::cell::Cell::new(0));
        let dyn_hits = std::rc::Rc::new(std::cell::Cell::new(0));
        let plugin = CountPlugin {
            hits: hits.clone(),
            dyn_hits: dyn_hits.clone(),
        };
        let store = test_store(MEM_LOOP);
        let run = run_hybrid(&store, "t", plugin, &HybridOptions::default()).unwrap();
        assert_eq!(run.outcome.code(), Some(2));
        assert_eq!(hits.get(), 9, "8 stores + 1 load, all statically marked");
        assert_eq!(dyn_hits.get(), 0, "no dynamic fallback for static code");
        assert!(run.coverage.static_blocks > 0);
    }

    #[test]
    fn dynamic_only_routes_everything_to_fallback() {
        let hits = std::rc::Rc::new(std::cell::Cell::new(0));
        let dyn_hits = std::rc::Rc::new(std::cell::Cell::new(0));
        let plugin = CountPlugin {
            hits: hits.clone(),
            dyn_hits: dyn_hits.clone(),
        };
        let store = test_store(MEM_LOOP);
        let opts = HybridOptions {
            dynamic_only: true,
            ..HybridOptions::default()
        };
        let run = run_hybrid(&store, "t", plugin, &opts).unwrap();
        assert_eq!(run.outcome.code(), Some(2));
        assert_eq!(hits.get(), 0);
        assert_eq!(dyn_hits.get(), 9, "same coverage through the fallback");
        assert_eq!(run.coverage.static_blocks, 0);
        assert!(run.coverage.dynamic_blocks > 0);
    }

    #[test]
    fn noop_rules_mark_clean_blocks_as_static() {
        // A block with no memory accesses gets only a no-op rule, but must
        // still classify as statically seen.
        let src = ".section text\n.global _start\n_start:\n mov r0, 4\n ret\n";
        let hits = std::rc::Rc::new(std::cell::Cell::new(0));
        let dyn_hits = std::rc::Rc::new(std::cell::Cell::new(0));
        let plugin = CountPlugin {
            hits: hits.clone(),
            dyn_hits: dyn_hits.clone(),
        };
        let store = test_store(src);
        let run = run_hybrid(&store, "t", plugin, &HybridOptions::default()).unwrap();
        assert_eq!(run.outcome.code(), Some(4));
        assert_eq!(run.coverage.dynamic_blocks, 0, "everything statically seen");
    }

    #[test]
    fn jit_code_goes_to_dynamic_fallback() {
        // Statically analyzed main + JIT-generated code: the generated
        // block must be classified dynamic.
        let src = ".section text\n.global _start\n_start:\n\
             mov r0, 3\n mov r1, 4096\n mov r2, 1\n syscall\n\
             mov r8, r0\n\
             mov r9, 0x20\n st1 [r8], r9\n\
             mov r9, 0x11\n st1 [r8+1], r9\n\
             mov r9, 0\n st4 [r8+2], r9\n\
             mov r9, 0x6c\n st1 [r8+6], r9\n\
             mov r1, r8\n call r8\n mov r0, 5\n ret\n";
        let hits = std::rc::Rc::new(std::cell::Cell::new(0));
        let dyn_hits = std::rc::Rc::new(std::cell::Cell::new(0));
        let plugin = CountPlugin {
            hits: hits.clone(),
            dyn_hits: dyn_hits.clone(),
        };
        let store = test_store(src);
        let run = run_hybrid(&store, "t", plugin, &HybridOptions::default()).unwrap();
        assert_eq!(run.outcome.code(), Some(5));
        assert!(run.coverage.dynamic_blocks >= 1, "the JIT block is dynamic");
        assert!(
            dyn_hits.get() >= 1,
            "the generated ld1 [r1] was instrumented by the fallback"
        );
        assert!(run.coverage.static_blocks > 0);
    }

    #[test]
    fn rule_file_includes_noops_for_all_blocks() {
        let store = test_store(MEM_LOOP);
        let image = store.get("t").unwrap();
        let plugin = CountPlugin {
            hits: Default::default(),
            dyn_hits: Default::default(),
        };
        let file = analyze_statically(&image, &plugin);
        let cfg = analysis::analyze_module(&image);
        let marked: std::collections::HashSet<u64> = file.rules.iter().map(|r| r.bb_addr).collect();
        for start in cfg.blocks.keys() {
            assert!(marked.contains(start), "block {start:#x} unmarked");
        }
        // Round-trips through the on-disk format.
        let back = RuleFile::from_bytes(&file.to_bytes()).unwrap();
        assert_eq!(file, back);
    }

    #[test]
    fn hybrid_run_reports_costs() {
        let store = test_store(MEM_LOOP);
        let plugin = CountPlugin {
            hits: Default::default(),
            dyn_hits: Default::default(),
        };
        let run = run_hybrid(&store, "t", plugin, &HybridOptions::default()).unwrap();
        let (native, nproc) = run_native(&store, "t", &LoadOptions::default(), 0).unwrap();
        assert_eq!(native.code(), Some(2));
        assert!(run.cycles > nproc.cycles, "instrumentation costs cycles");
        assert_eq!(run.insns, nproc.insns, "guest work is identical");
        assert!(run.engine.probe_runs >= 9);
    }

    fn count_plugin() -> (
        CountPlugin,
        std::rc::Rc<std::cell::Cell<u64>>,
        std::rc::Rc<std::cell::Cell<u64>>,
    ) {
        let hits = std::rc::Rc::new(std::cell::Cell::new(0));
        let dyn_hits = std::rc::Rc::new(std::cell::Cell::new(0));
        let plugin = CountPlugin {
            hits: hits.clone(),
            dyn_hits: dyn_hits.clone(),
        };
        (plugin, hits, dyn_hits)
    }

    /// The ISSUE's headline scenario: a deliberately corrupted rule file
    /// must not abort the run — the module degrades to dynamic-only mode
    /// and the cause is visible in the run result.
    #[test]
    fn corrupted_rule_file_degrades_to_dynamic_only() {
        let store = test_store(MEM_LOOP);
        let image = store.get("t").unwrap();
        let (probe, ..) = count_plugin();
        let mut bytes = analyze_statically(&image, &probe).to_bytes();
        let at = bytes.len() - 3;
        bytes[at] ^= 0x40; // payload corruption -> checksum mismatch

        let (plugin, hits, dyn_hits) = count_plugin();
        let opts = HybridOptions {
            rule_overrides: HashMap::from([("t".to_string(), bytes)]),
            ..HybridOptions::default()
        };
        let run = run_hybrid(&store, "t", plugin, &opts).unwrap();
        assert_eq!(run.outcome.code(), Some(2), "the run completes end to end");
        assert_eq!(
            run.degraded,
            vec![ModuleDegradation {
                module: "t".into(),
                reason: DegradationReason::ChecksumMismatch,
            }]
        );
        assert_eq!(run.coverage.static_blocks, 0, "no rules survive");
        assert_eq!(hits.get(), 0);
        assert_eq!(dyn_hits.get(), 9, "conservative fallback covers everything");
    }

    #[test]
    fn stale_rule_version_degrades() {
        let store = test_store(MEM_LOOP);
        let image = store.get("t").unwrap();
        let (probe, ..) = count_plugin();
        let mut bytes = analyze_statically(&image, &probe).to_bytes();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes()); // version 1 = stale

        let (plugin, ..) = count_plugin();
        let opts = HybridOptions {
            rule_overrides: HashMap::from([("t".to_string(), bytes)]),
            ..HybridOptions::default()
        };
        let run = run_hybrid(&store, "t", plugin, &opts).unwrap();
        assert_eq!(run.outcome.code(), Some(2));
        assert_eq!(run.degraded[0].reason, DegradationReason::StaleVersion);
    }

    #[test]
    fn wrong_build_fingerprint_degrades() {
        let store = test_store(MEM_LOOP);
        let image = store.get("t").unwrap();
        let (probe, ..) = count_plugin();
        let mut file = analyze_statically(&image, &probe);
        file.fingerprint ^= 1; // rules "from another build"

        let (plugin, ..) = count_plugin();
        let opts = HybridOptions {
            rule_overrides: HashMap::from([("t".to_string(), file.to_bytes())]),
            ..HybridOptions::default()
        };
        let run = run_hybrid(&store, "t", plugin, &opts).unwrap();
        assert_eq!(run.outcome.code(), Some(2));
        assert_eq!(
            run.degraded[0].reason,
            DegradationReason::FingerprintMismatch
        );
    }

    #[test]
    fn valid_override_is_accepted_verbatim() {
        let store = test_store(MEM_LOOP);
        let image = store.get("t").unwrap();
        let (probe, ..) = count_plugin();
        let bytes = analyze_statically(&image, &probe).to_bytes();

        let (plugin, hits, dyn_hits) = count_plugin();
        let opts = HybridOptions {
            rule_overrides: HashMap::from([("t".to_string(), bytes)]),
            ..HybridOptions::default()
        };
        let run = run_hybrid(&store, "t", plugin, &opts).unwrap();
        assert_eq!(run.outcome.code(), Some(2));
        assert!(run.degraded.is_empty());
        assert_eq!(hits.get(), 9, "verified rules drive static instrumentation");
        assert_eq!(dyn_hits.get(), 0);
    }

    #[test]
    fn fault_injection_is_deterministic_and_never_aborts() {
        let run_with = |seed: u64, flight: Flight| {
            let store = test_store(MEM_LOOP);
            let (plugin, ..) = count_plugin();
            let opts = HybridOptions {
                load: LoadOptions {
                    flight,
                    ..LoadOptions::default()
                },
                inject_faults: Some(FaultInjection { seed, rate: 1.0 }),
                ..HybridOptions::default()
            };
            let run = run_hybrid(&store, "t", plugin, &opts).unwrap();
            assert_eq!(run.outcome.code(), Some(2), "faults never break the guest");
            run.degraded
        };
        let run_once = |seed: u64| run_with(seed, Flight::default());
        for seed in 0..8 {
            assert_eq!(run_once(seed), run_once(seed), "same seed, same outcome");
        }
        // At rate 1.0 every module's rules are mutated; across a handful
        // of seeds at least one mutation must actually break verification.
        let seed = (0..8)
            .find(|&s| !run_once(s).is_empty())
            .expect("some seed degrades");
        // Each degraded module trips the run's flight recorder, which
        // dumps into its own directory.
        let dir = janitizer_store::scratch_dir("core-degraded");
        let flight = Flight::armed(Some(dir.clone()));
        let degraded = run_with(seed, flight.clone());
        let dump = std::fs::read_to_string(dir.join("flight-module-degraded.json"))
            .expect("module-degraded dump written");
        assert!(dump.contains("\"t\""), "the dump names the module");
        let trips = flight.dump_json("test").expect("armed");
        assert_eq!(trips.matches("\"module-degraded\"").count(), degraded.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn coverage_fraction_math() {
        let c = CoverageStats {
            static_blocks: 96,
            dynamic_blocks: 4,
            region_fallback_blocks: 0,
        };
        assert!((c.dynamic_fraction() - 4.0).abs() < 1e-9);
        assert_eq!(CoverageStats::default().dynamic_fraction(), 0.0);
    }

    /// Sanity: TbItem::Guest round-trips the instructions the block had.
    #[test]
    fn null_like_plugin_preserves_program() {
        struct PassThrough;
        impl SecurityPlugin for PassThrough {
            fn name(&self) -> &str {
                "pass"
            }
            fn static_pass(&self, _i: &Image, _c: &StaticContext) -> Vec<RewriteRule> {
                Vec::new()
            }
            fn instrument_static(
                &mut self,
                _p: &mut Process,
                block: &DecodedBlock,
                _r: &BlockRules<'_>,
            ) -> Vec<TbItem> {
                block.passthrough()
            }
            fn instrument_dynamic(
                &mut self,
                _p: &mut Process,
                block: &DecodedBlock,
            ) -> Vec<TbItem> {
                block.passthrough()
            }
        }
        let store = test_store(MEM_LOOP);
        let run = run_hybrid(&store, "t", PassThrough, &HybridOptions::default()).unwrap();
        assert_eq!(run.outcome.code(), Some(2));
        // Every instruction in a guest item is a real decodable one.
        let _ = Instr::Nop;
    }
}
