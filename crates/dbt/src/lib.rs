//! # The dynamic binary modifier engine
//!
//! A DynamoRIO-style dynamic binary translation core (paper Figure 2b,
//! "basic-block builder and dispatcher"): guest code is discovered one
//! basic block at a time as it becomes the target of a control transfer,
//! handed to a [`Tool`] for instrumentation, placed in a code cache, and
//! executed. The engine reproduces the *cost structure* of a real DBT
//! through a deterministic [`CostModel`]:
//!
//! * each block is translated once (per-instruction translation cost);
//! * direct transitions between cached blocks are linked and free;
//! * every executed **indirect** control transfer (`ret`, `call r`,
//!   `jmp r`) pays a hash-lookup penalty — the dominant source of
//!   null-client overhead;
//! * instrumentation pays per-probe costs that the tool computes (inline
//!   sequences are cheap, clean-call-style hooks expensive).
//!
//! Instrumentation is expressed as [`Probe`]s interleaved with guest
//! instructions. Probes run host-side but operate on **real guest state**:
//! a probe that claims scratch registers genuinely writes its
//! intermediate values into them (restoring them only if it also claims
//! to spill), so unsound scratch selection — the `ipa-ra` hazard of paper
//! §4.1.2 — breaks guest programs here exactly as it would on hardware.

pub mod shadow;

pub use shadow::{CheckMode, ShadowCheck, ShadowReporter, ShadowViolation};

use janitizer_isa::{Instr, PcMap, Reg};
use janitizer_vm::{run_ops, Fault, Op, Process, ProcessEvent, RunEnd, MAX_BLOCK};
use std::collections::BTreeMap;
use std::fmt;

/// A sorted set of non-overlapping byte intervals in a module's image
/// address space. The hybrid driver hands one per degraded module to its
/// block classifier so a cache miss inside an analyzer-degraded region is
/// attributed to the *region-scoped* dynamic fallback (as opposed to
/// code the static tier simply never saw).
#[derive(Clone, Debug, Default)]
pub struct RegionSet {
    /// `(start, end)` half-open intervals, sorted and merged.
    spans: Vec<(u64, u64)>,
}

impl RegionSet {
    /// Builds the set from `(start, len)` ranges, merging overlaps.
    pub fn from_ranges<I: IntoIterator<Item = (u64, u64)>>(ranges: I) -> RegionSet {
        let mut spans: Vec<(u64, u64)> = ranges
            .into_iter()
            .filter(|&(_, len)| len > 0)
            .map(|(s, len)| (s, s.saturating_add(len)))
            .collect();
        spans.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
        for (s, e) in spans {
            match merged.last_mut() {
                Some((_, pe)) if s <= *pe => *pe = (*pe).max(e),
                _ => merged.push((s, e)),
            }
        }
        RegionSet { spans: merged }
    }

    /// Whether `addr` falls inside any region.
    pub fn contains(&self, addr: u64) -> bool {
        match self.spans.partition_point(|&(s, _)| s <= addr) {
            0 => false,
            i => addr < self.spans[i - 1].1,
        }
    }

    /// Number of (merged) regions.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the set holds no regions.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Deterministic cycle costs of the translation engine.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Per-guest-instruction translation cost, paid once per block build.
    pub translate_per_insn: u64,
    /// Fixed per-block build cost (allocation, linking).
    pub block_build: u64,
    /// Per-execution penalty of an indirect control transfer whose target
    /// misses the block's inlined target cache (full code-cache hash
    /// lookup; direct branches are linked and free).
    pub indirect_lookup: u64,
    /// Per-execution cost of an indirect transfer whose target *hits* the
    /// block's inlined single-entry target cache (the compare-and-branch
    /// in the exit stub, as in DynamoRIO's inlined indirect-branch
    /// lookup). Misses pay [`CostModel::indirect_lookup`] and install the
    /// new target.
    pub chain_hit: u64,
    /// Cost of a clean-call-style hook (full context switch), for tools
    /// that do not inline their instrumentation.
    pub clean_call: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            translate_per_insn: 50,
            block_build: 300,
            indirect_lookup: 22,
            chain_hit: 4,
            clean_call: 120,
        }
    }
}

/// The category of a security violation, shared by every tool so reports
/// and result files use one canonical vocabulary. `Display` (and
/// [`ViolationKind::as_str`]) produce the exact strings the tools
/// historically emitted, keeping `results/` output unchanged.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ViolationKind {
    /// JASan/Memcheck: access into a heap redzone or past an object.
    HeapBufferOverflow,
    /// JASan/Memcheck: access to freed (quarantined) heap memory.
    HeapUseAfterFree,
    /// JASan: access into a poisoned stack-canary slot.
    StackBufferOverflow,
    /// JASan: access to otherwise-poisoned memory.
    InvalidAccess,
    /// JCFI/CFI baselines: `ret` disagreed with the shadow stack.
    CfiReturn,
    /// JCFI/CFI baselines: indirect call to a disallowed target.
    CfiIcall,
    /// JCFI/CFI baselines: indirect jump to a disallowed target.
    CfiIjmp,
    /// JTaint: control transfer through tainted data.
    TaintedControlTransfer,
    /// Anything else (tests, experimental tools).
    Custom(&'static str),
}

impl ViolationKind {
    /// Canonical string form (the historical `kind` literal).
    pub fn as_str(&self) -> &'static str {
        match self {
            ViolationKind::HeapBufferOverflow => "heap-buffer-overflow",
            ViolationKind::HeapUseAfterFree => "heap-use-after-free",
            ViolationKind::StackBufferOverflow => "stack-buffer-overflow",
            ViolationKind::InvalidAccess => "invalid-access",
            ViolationKind::CfiReturn => "cfi-return-violation",
            ViolationKind::CfiIcall => "cfi-icall-violation",
            ViolationKind::CfiIjmp => "cfi-ijmp-violation",
            ViolationKind::TaintedControlTransfer => "tainted-control-transfer",
            ViolationKind::Custom(s) => s,
        }
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&'static str> for ViolationKind {
    fn from(s: &'static str) -> ViolationKind {
        match s {
            "heap-buffer-overflow" => ViolationKind::HeapBufferOverflow,
            "heap-use-after-free" => ViolationKind::HeapUseAfterFree,
            "stack-buffer-overflow" => ViolationKind::StackBufferOverflow,
            "invalid-access" => ViolationKind::InvalidAccess,
            "cfi-return-violation" => ViolationKind::CfiReturn,
            "cfi-icall-violation" => ViolationKind::CfiIcall,
            "cfi-ijmp-violation" => ViolationKind::CfiIjmp,
            "tainted-control-transfer" => ViolationKind::TaintedControlTransfer,
            other => ViolationKind::Custom(other),
        }
    }
}

/// A security report raised by a probe (e.g. a JASan redzone hit or a JCFI
/// target violation).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Report {
    /// Guest PC of the instruction being guarded.
    pub pc: u64,
    /// Violation category.
    pub kind: ViolationKind,
    /// Human-readable details.
    pub details: String,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {:#x}: {}", self.kind, self.pc, self.details)
    }
}

/// Bound on collected reports (and tool-side violation contexts) for
/// non-halting runs — generous, but finite. Non-halting runs over
/// pathological inputs cannot grow the report vector without limit;
/// overflow is counted in [`Stats::reports_dropped`].
pub const MAX_REPORTS: usize = 10_000;

/// Length of the executed-block ring snapshotted into each violation
/// context as the execution trail.
pub const TRAIL_LEN: usize = 16;

/// Upper bound on the number of translation items (guest instructions
/// plus probes) a block may carry and still be *cached*. Oversized
/// translations execute normally but are rebuilt on every visit, so a
/// hostile tool/input combination cannot grow the code cache without
/// limit through pathologically instrumented blocks. Counted in
/// [`Stats::oversized_blocks`]. Far above anything the bundled tools emit
/// for a [`MAX_BLOCK`]-sized block, so the happy path never hits it.
pub const MAX_TB_ITEMS: usize = 1 << 16;

/// One row of an ASan-style shadow region map: eight shadow bytes
/// (guarding 64 application bytes) starting at application address
/// `base`. `None` marks an unmapped shadow granule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShadowRow {
    /// Application address of the row's first granule (64-byte aligned).
    pub base: u64,
    /// The eight shadow bytes.
    pub shadow: Vec<Option<u8>>,
}

/// JASan-specific context captured at the instant a shadow check fired.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JasanContext {
    /// Faulting application address.
    pub access_addr: u64,
    /// Access width in bytes.
    pub access_size: u64,
    /// Whether the access was a store.
    pub is_write: bool,
    /// Shadow byte guarding the faulting granule.
    pub shadow_byte: u8,
    /// Shadow region map rows around the faulting address.
    pub rows: Vec<ShadowRow>,
}

/// JCFI-specific context captured at the instant a CFI check fired.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JcfiContext {
    /// Kind of control transfer: `return`, `indirect-call` or
    /// `indirect-jump`.
    pub cti: &'static str,
    /// The target the guest actually attempted.
    pub actual: u64,
    /// The single expected target, when the policy has one (shadow-stack
    /// returns).
    pub expected: Option<u64>,
    /// Size of the allowed-target set at this site.
    pub allowed_count: u64,
    /// A deterministic sample of allowed targets (sorted, truncated).
    pub allowed_sample: Vec<u64>,
    /// Top of the shadow stack at violation time (most recent first).
    pub shadow_stack: Vec<u64>,
}

/// Tool-specific violation context, recorded by the plugin that raised
/// the report and rendered by the forensics layer (`janitizer-diag`).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum ToolContext {
    /// No tool-specific context was captured.
    #[default]
    None,
    /// JASan shadow-memory context.
    Jasan(JasanContext),
    /// JCFI expected-vs-actual target sets.
    Jcfi(JcfiContext),
}

/// Engine-side execution context captured when a probe reported a
/// violation: a register snapshot plus the trailing window of executed
/// blocks. Indexed in parallel with [`Stats::reports`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ViolationContext {
    /// Guest PC of the guarded instruction (same as the report's).
    pub pc: u64,
    /// All sixteen general-purpose registers at violation time.
    pub regs: [u64; 16],
    /// Packed condition flags ([`janitizer_isa::Flags::to_byte`]).
    pub flags: u8,
    /// Start addresses of the last executed blocks, oldest first; the
    /// final entry is the block containing the faulting pc.
    pub trail: Vec<u64>,
}

/// Result of running one probe.
#[derive(Debug)]
pub enum ProbeResult {
    /// Fast path: only the probe's base cost is charged.
    Ok,
    /// Slow path: charge additional cycles.
    Extra(u64),
    /// A *hoisted* loop-invariant check whose cached verdict is still
    /// valid: the modeled check lives in the loop preheader, so this
    /// execution runs no check code at all — no cycles, no register or
    /// flag effects, not a probe run. Only valid from probes with
    /// `cost == 0`; counted in [`Stats::checks_hoisted`] and as a
    /// dynamically elided execution in the site profile.
    Hoisted,
    /// A security violation.
    Violation(Report),
}

/// The modeled instrumentation style of a probe: inline sequences are
/// cheap, clean-call hooks pay a full context switch. Used by the
/// profiler to attribute probe cycles by class; the probe's `cost`
/// already reflects the style, so this never changes execution.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ProbeClass {
    /// Inlined instruction sequence (JASan shadow checks, JCFI checks).
    Inline,
    /// Clean-call-style hook with a full context switch (Memcheck).
    CleanCall,
}

impl ProbeClass {
    /// Canonical string form for artifacts.
    pub fn as_str(&self) -> &'static str {
        match self {
            ProbeClass::Inline => "inline",
            ProbeClass::CleanCall => "clean-call",
        }
    }
}

/// Whether an instrumentation site was placed by a static rewrite rule
/// or by the dynamic fallback path (statically-unseen code).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SiteOrigin {
    /// Placed from a rule the static analyzer emitted.
    Static,
    /// Placed by the conservative dynamic fallback.
    Dynamic,
}

impl SiteOrigin {
    /// Canonical string form for artifacts.
    pub fn as_str(&self) -> &'static str {
        match self {
            SiteOrigin::Static => "static",
            SiteOrigin::Dynamic => "dynamic",
        }
    }
}

/// Identity of one instrumentation site: which tool placed what kind of
/// probe at which guest pc. The ordering (tool, kind, pc, …) makes
/// profile maps deterministic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProbeSite {
    /// Owning tool (`"jasan"`, `"jcfi"`, …).
    pub tool: &'static str,
    /// Probe kind within the tool (`"shadow-check"`, `"ret-check"`, …).
    pub kind: &'static str,
    /// Guest pc of the guarded instruction.
    pub pc: u64,
    /// Instrumentation style, for per-class attribution.
    pub class: ProbeClass,
    /// Static rule vs. dynamic fallback.
    pub origin: SiteOrigin,
}

/// What a probe runs.
pub enum ProbeRun {
    /// A JASan shadow check, run inline by the engine.
    ShadowCheck(Box<ShadowCheck>),
    /// Any other host-side callback (canaries, JCFI, JTaint, baselines).
    Custom(Box<dyn FnMut(&mut Process) -> ProbeResult>),
}

impl ProbeRun {
    /// A [`ProbeRun::Custom`] callback.
    pub fn custom(f: impl FnMut(&mut Process) -> ProbeResult + 'static) -> ProbeRun {
        ProbeRun::Custom(Box::new(f))
    }
}

/// Host-side instrumentation operating on guest state.
pub struct Probe {
    /// Cycles charged on every execution (the inline fast-path cost).
    pub cost: u64,
    /// What runs.
    pub run: ProbeRun,
    /// Site identity for profiling attribution. `None` (anonymous
    /// probes: tests, experiments) is attributed as an inline probe
    /// without a per-site row.
    pub site: Option<ProbeSite>,
}

impl Probe {
    /// An anonymous probe (no site attribution).
    pub fn new(cost: u64, run: Box<dyn FnMut(&mut Process) -> ProbeResult>) -> Probe {
        Probe {
            cost,
            run: ProbeRun::Custom(run),
            site: None,
        }
    }
}

impl fmt::Debug for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Probe")
            .field("cost", &self.cost)
            .field("site", &self.site)
            .finish()
    }
}

/// One element of a translated block.
#[derive(Debug)]
pub enum TbItem {
    /// An original guest instruction, as the block builder decoded it.
    Guest(Op),
    /// Injected instrumentation.
    Probe(Probe),
    /// Observation-only marker: a check site the static rules proved
    /// safe, so no probe was emitted. Stripped at translation time —
    /// before the [`MAX_TB_ITEMS`] size guard, so block classification is
    /// identical with profiling on or off — and recorded (when
    /// profiling) so elided work is attributable per site.
    Note(ProbeSite),
}

/// A guest basic block as discovered by the block builder, before
/// instrumentation: the execution kernel's [`Op`]s, ending at the first
/// control-transfer instruction. A tool passes an instruction through by
/// pushing its op as [`TbItem::Guest`], unchanged, static cost included.
#[derive(Clone, Debug)]
pub struct DecodedBlock {
    /// Block start address.
    pub start: u64,
    /// The instructions.
    pub ops: Vec<Op>,
}

impl DecodedBlock {
    /// The block's translation without instrumentation: every guest
    /// instruction, in order, and nothing else.
    pub fn passthrough(&self) -> Vec<TbItem> {
        self.ops.iter().map(|&op| TbItem::Guest(op)).collect()
    }
}

/// An instrumentation client (the paper's "custom security technique").
pub trait Tool {
    /// Tool name (for reports and logs).
    fn name(&self) -> &str;

    /// Called once before guest execution starts, after all statically
    /// loadable modules are mapped (map shadow regions, seed tables).
    fn on_start(&mut self, _proc: &mut Process) {}

    /// Called when a module is mapped — at process setup for static
    /// modules, or during execution for `dlopen`ed ones. This is where
    /// rewrite-rule files are loaded into per-module hash tables.
    fn on_module_load(&mut self, _proc: &mut Process, _module_id: usize) {}

    /// Instruments one newly discovered basic block.
    fn instrument_block(&mut self, proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem>;

    /// Called after the guest exits (flush statistics).
    fn on_exit(&mut self, _proc: &mut Process) {}
}

/// The null client: translation without modification, measuring pure
/// engine overhead (paper §6.1.1 "Null client").
#[derive(Debug, Default)]
pub struct NullTool;

impl Tool for NullTool {
    fn name(&self) -> &str {
        "null"
    }

    fn instrument_block(&mut self, _proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
        block.passthrough()
    }
}

/// Why the engine stopped.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// Guest exited normally.
    Exited(i64),
    /// Guest faulted.
    Fault(Fault),
    /// Fuel exhausted.
    OutOfFuel,
    /// A probe reported a violation and the engine halts on violations.
    Violation(Report),
}

impl RunOutcome {
    /// Exit code for normal termination.
    pub fn code(&self) -> Option<i64> {
        match self {
            RunOutcome::Exited(c) => Some(*c),
            _ => None,
        }
    }
}

/// Execution statistics of one engine run.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Basic blocks translated (code-cache misses).
    pub blocks_translated: u64,
    /// Guest instructions executed.
    pub guest_insns: u64,
    /// Cycles spent translating.
    pub translation_cycles: u64,
    /// Cycles spent on indirect-transfer lookups.
    pub dispatch_cycles: u64,
    /// Cycles spent in probes.
    pub probe_cycles: u64,
    /// Probe executions. Hoisted check hits ([`ProbeResult::Hoisted`])
    /// execute no check code and are *not* probe runs.
    pub probe_runs: u64,
    /// Dynamic count of executed indirect control transfers — every
    /// `ret`/`call r`/`jmp r`, whether it paid the full
    /// [`CostModel::indirect_lookup`] or the cheap
    /// [`CostModel::chain_hit`]. Chaining changes the *cost* of an
    /// indirect transfer, never whether it is counted here.
    pub indirect_transfers: u64,
    /// Indirect transfers that hit the block's inlined target cache and
    /// paid [`CostModel::chain_hit`] instead of the full lookup. Always
    /// `<= indirect_transfers`.
    pub indirect_chain_hits: u64,
    /// Retired with the trace layer: always 0; kept for perfbench.
    pub chained_transfers: u64,
    /// Retired with the trace layer: always 0; kept for perfbench.
    pub superblocks_formed: u64,
    /// Retired with the trace layer: always 0; kept for perfbench.
    pub trace_exits: u64,
    /// Retired with probe fusion: always 0; kept for perfbench.
    pub checks_fused: u64,
    /// Hoisted loop-invariant check executions elided at run time
    /// ([`ProbeResult::Hoisted`]).
    pub checks_hoisted: u64,
    /// All violation reports (in order), capped at [`MAX_REPORTS`].
    pub reports: Vec<Report>,
    /// Engine-side execution contexts, one per entry in `reports`
    /// (same order).
    pub contexts: Vec<ViolationContext>,
    /// Violations observed after `reports` reached the cap.
    pub reports_dropped: u64,
    /// Translations that exceeded [`MAX_TB_ITEMS`] and
    /// were executed without being cached (the translation-size resource
    /// guard: hostile block shapes cannot balloon the code cache).
    pub oversized_blocks: u64,
}

impl Stats {
    /// Cycles the engine added on top of pure guest execution:
    /// translation + dispatch + probes. `dispatch_cycles` covers both
    /// full indirect lookups and the cheap [`CostModel::chain_hit`]
    /// charges of target-cache hits; direct transfers cost zero and
    /// therefore appear in no cycle term. Always at most the process's
    /// total cycle count for the same run.
    pub fn total_overhead_cycles(&self) -> u64 {
        self.translation_cycles + self.dispatch_cycles + self.probe_cycles
    }
}

/// How one block transferred control to its successor, classified by
/// the block's final executed guest instruction: `ret` → [`EdgeKind::Return`],
/// any other indirect CTI → [`EdgeKind::Indirect`], everything else
/// (direct branches, fall-through, syscall-ended blocks) →
/// [`EdgeKind::Direct`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EdgeKind {
    /// Direct branch or fall-through (linked, free under the cost model).
    Direct,
    /// Indirect call/jump (pays the dispatch lookup).
    Indirect,
    /// Return (pays the dispatch lookup).
    Return,
}

impl EdgeKind {
    /// Canonical string form for artifacts.
    pub fn as_str(&self) -> &'static str {
        match self {
            EdgeKind::Direct => "direct",
            EdgeKind::Indirect => "indirect",
            EdgeKind::Return => "return",
        }
    }
}

/// Per-code-cache-slot profile counters for one block, keyed by the
/// block's start pc. Every cycle the engine or the guest spends while
/// the block is current lands in exactly one class, so the per-class
/// sums over all blocks reproduce the engine totals exactly
/// (conservation; see `EngineProfile`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BlockProfile {
    /// Block executions.
    pub execs: u64,
    /// Times the block was (re)translated (cache misses, oversized
    /// rebuilds, post-invalidation rebuilds).
    pub translations: u64,
    /// Guest instructions executed inside the block, cumulative.
    pub guest_insns: u64,
    /// Engine translation cost (block build + per-insn translate).
    pub translate_cycles: u64,
    /// Translation-time cycles the *tool* charged while instrumenting
    /// (the dynamic fallback's per-block analysis cost).
    pub tool_translate_cycles: u64,
    /// Indirect-lookup cycles paid when this block ended in an indirect
    /// transfer.
    pub dispatch_cycles: u64,
    /// Cycles in inline-class probes (cost + slow-path extras).
    pub inline_probe_cycles: u64,
    /// Cycles in clean-call-class probes.
    pub clean_call_cycles: u64,
    /// Pure guest cycles (instruction costs, incl. syscall charges).
    pub guest_cycles: u64,
}

impl BlockProfile {
    /// All attributed cycles of this block, across every class.
    pub fn total_cycles(&self) -> u64 {
        self.translate_cycles
            + self.tool_translate_cycles
            + self.dispatch_cycles
            + self.inline_probe_cycles
            + self.clean_call_cycles
            + self.guest_cycles
    }
}

/// Per-probe-site accounting: executions, modeled cycles, violations,
/// and executions where the check was *elided* by a static rule (the
/// site appeared as a [`TbItem::Note`] in a block that then executed).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SiteProfile {
    /// Probe executions at this site.
    pub execs: u64,
    /// Cycles attributed to this site (cost + slow-path extras).
    pub cycles: u64,
    /// Violations this site reported.
    pub violations: u64,
    /// Dynamic executions where the check was statically elided.
    pub elided: u64,
}

/// The engine-side profile: deterministic, cycle-model-exact counters
/// accumulated while [`EngineOptions::profile`] is on. Observation
/// only — guest results, figure bytes and cycle totals are identical
/// with profiling on or off. Conservation invariants (enforced by
/// tests): per-class sums over `blocks` equal the corresponding
/// [`Stats`] totals, and the sum of *all* classes equals the process's
/// cycle delta for the profiled runs.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct EngineProfile {
    /// Per-block counters keyed by block start pc.
    pub blocks: BTreeMap<u64, BlockProfile>,
    /// Per-site counters keyed by the full site identity.
    pub sites: BTreeMap<ProbeSite, SiteProfile>,
    /// Block→successor transfer counts: `(from_pc, to_pc, kind) → n`.
    pub edges: BTreeMap<(u64, u64, EdgeKind), u64>,
    /// Elided sites per block, captured at translation time; each block
    /// execution counts one avoided check per listed site.
    elided: BTreeMap<u64, Vec<ProbeSite>>,
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// Cost model.
    pub costs: CostModel,
    /// Stop at the first violation (ASan-style) or keep going (collecting
    /// reports).
    pub halt_on_violation: bool,
    /// Collect the deterministic per-block/per-site/per-edge profile
    /// ([`Engine::profile`]). Observation only: results and cycle
    /// totals are byte-identical with it on or off.
    pub profile: bool,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            costs: CostModel::default(),
            halt_on_violation: true,
            profile: false,
        }
    }
}

/// Sentinel for "no target seen yet" in the per-block indirect-target
/// cache (guest pcs never reach it).
const NO_TARGET: u64 = u64::MAX;

/// A translated block in the engine's internal form: the tool's
/// [`TbItem`]s split into the guest ops and the probes placed between
/// them.
struct CachedBlock {
    /// The guest instructions, in order, each with its static cost.
    ops: Vec<Op>,
    /// The probes in order, each with the number of ops that run before
    /// it. The ops between two probes run as one kernel call.
    probes: Vec<(usize, Probe)>,
    /// Statically, does the block end in an indirect CTI? (Only those
    /// pay the modeled dispatch lookup.)
    ends_indirect: bool,
    /// Statically, is the block's final instruction `ret`? (Edge-kind
    /// classification, precomputed so the per-instruction loop does not
    /// re-match it.)
    ends_ret: bool,
    /// Inlined single-entry indirect-target cache (the modeled exit-stub
    /// comparison). Part of the *cost model*.
    itarget: u64,
}

impl CachedBlock {
    fn new(items: Vec<TbItem>) -> CachedBlock {
        let guests = items
            .iter()
            .filter(|i| matches!(i, TbItem::Guest(..)))
            .count();
        let mut ops = Vec::with_capacity(guests);
        let mut probes = Vec::with_capacity(items.len() - guests);
        for item in items {
            match item {
                TbItem::Guest(op) => ops.push(op),
                TbItem::Probe(p) => probes.push((ops.len(), p)),
                TbItem::Note(_) => {}
            }
        }
        let (ends_indirect, ends_ret) = ops.last().map_or((false, false), |o| {
            (o.insn.is_indirect_cti(), matches!(o.insn, Instr::Ret))
        });
        CachedBlock {
            ops,
            probes,
            ends_indirect,
            ends_ret,
            itarget: NO_TARGET,
        }
    }
}

/// The dynamic binary modifier: owns the code cache and drives execution
/// of a [`Process`] under a [`Tool`].
///
/// The code cache is index-based: `index` maps a block's start pc to a
/// slot in `slots`, and the hot dispatch loop does a single hash lookup
/// followed by a slot `take`/put-back — instead of the remove/reinsert
/// pair on a `HashMap<u64, CachedBlock>` that re-hashed the pc and moved
/// the block's item vector through the table twice per execution.
pub struct Engine {
    opts: EngineOptions,
    index: PcMap<u32>,
    slots: Vec<Option<CachedBlock>>,
    free: Vec<u32>,
    cache_gen: u64,
    /// Ring buffer of the start pcs of the last executed blocks (flat
    /// array + wrap position; [`Engine::trail_vec`] restores oldest-first
    /// order). Observation only — never charged to the guest.
    trail: Vec<u64>,
    /// Next overwrite index once the trail ring is full.
    trail_pos: usize,
    /// Accumulated profile when [`EngineOptions::profile`] is on.
    profile: Option<EngineProfile>,
    /// Statistics for the current/last run.
    pub stats: Stats,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("cached_blocks", &self.index.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Engine {
    /// Creates an engine with the given options.
    pub fn new(opts: EngineOptions) -> Engine {
        let profile = opts.profile.then(EngineProfile::default);
        Engine {
            opts,
            index: PcMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            cache_gen: 0,
            trail: Vec::new(),
            trail_pos: 0,
            profile,
            stats: Stats::default(),
        }
    }

    /// The accumulated profile, when [`EngineOptions::profile`] is on.
    pub fn profile(&self) -> Option<&EngineProfile> {
        self.profile.as_ref()
    }

    /// Takes the accumulated profile (resetting collection), when
    /// profiling is on.
    pub fn take_profile(&mut self) -> Option<EngineProfile> {
        self.profile.as_mut().map(std::mem::take)
    }

    /// Snapshots CPU state and the executed-block trail for a violation
    /// at `pc`. Pure observation: charges nothing to the guest.
    fn capture_context(&self, proc: &Process, pc: u64) -> ViolationContext {
        let mut regs = [0u64; 16];
        for r in Reg::ALL {
            regs[r.index()] = proc.cpu.reg(r);
        }
        ViolationContext {
            pc,
            regs,
            flags: proc.cpu.flags.to_byte(),
            trail: self.trail_vec(),
        }
    }

    /// Appends a block pc to the execution-trail ring.
    #[inline]
    fn push_trail(&mut self, pc: u64) {
        if self.trail.len() < TRAIL_LEN {
            self.trail.push(pc);
        } else {
            self.trail[self.trail_pos] = pc;
            self.trail_pos += 1;
            if self.trail_pos == self.trail.len() {
                self.trail_pos = 0;
            }
        }
    }

    /// The trail in oldest-first order (unwinds the ring).
    fn trail_vec(&self) -> Vec<u64> {
        let mut v = Vec::with_capacity(self.trail.len());
        v.extend_from_slice(&self.trail[self.trail_pos..]);
        v.extend_from_slice(&self.trail[..self.trail_pos]);
        v
    }

    /// Places a freshly translated block into a (possibly recycled) slot
    /// and indexes it by its start pc.
    fn cache_block(&mut self, pc: u64, block: CachedBlock) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(block);
                s
            }
            None => {
                self.slots.push(Some(block));
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(pc, slot);
    }

    /// Drops every cached translation (cache generation change or an
    /// explicit flush).
    fn clear_cache_state(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
    }

    /// Runs `proc` under `tool` until exit, fault, violation (if halting)
    /// or `fuel` cycles.
    ///
    /// Module-load events (including `dlopen` during execution) are
    /// forwarded to the tool before the next block executes.
    pub fn run(&mut self, proc: &mut Process, tool: &mut dyn Tool, fuel: u64) -> RunOutcome {
        // A fresh trail per run: blocks from a previous run served by the
        // same engine must not appear in this run's violation contexts.
        self.trail.clear();
        self.trail_pos = 0;
        // Deliver already-pending module loads, then start the tool.
        Self::deliver_module_loads(proc, tool);
        tool.on_start(proc);

        let outcome = self.run_inner(proc, tool, fuel);
        tool.on_exit(proc);
        outcome
    }

    /// Forwards the process's pending module-load events (the static
    /// modules at start-up, `dlopen` during execution) to the tool.
    fn deliver_module_loads(proc: &mut Process, tool: &mut dyn Tool) {
        let pending: Vec<ProcessEvent> = proc.events.drain(..).collect();
        for ev in pending {
            let ProcessEvent::ModuleLoaded { id } = ev;
            proc.flight.record("dbt.module_load", None, id as u64, 0);
            tool.on_module_load(proc, id);
        }
    }

    fn run_inner(&mut self, proc: &mut Process, tool: &mut dyn Tool, fuel: u64) -> RunOutcome {
        loop {
            if proc.cycles >= fuel {
                return RunOutcome::OutOfFuel;
            }
            // JIT writes invalidate the cache.
            if proc.mem.code_generation() != self.cache_gen {
                self.clear_cache_state();
                self.cache_gen = proc.mem.code_generation();
            }
            // Deliver dlopen events raised by the previous block.
            if !proc.events.is_empty() {
                Self::deliver_module_loads(proc, tool);
            }

            let pc = proc.cpu.pc;
            // Execute the block out of its slot, so probes can borrow the
            // engine-free process state. `slot` is `None` for a fresh
            // translation, which is cached after it runs (unless it is
            // oversized).
            let (slot, mut cached, cacheable) = match self.index.get(&pc) {
                Some(&s) => {
                    let b = self.slots[s as usize]
                        .take()
                        .expect("indexed slot occupied");
                    (Some(s), b, true)
                }
                None => match self.translate(proc, tool, pc) {
                    Ok((b, cacheable)) => (None, b, cacheable),
                    Err(f) => return RunOutcome::Fault(f),
                },
            };
            // Record the block in the execution trail before running it,
            // so the final trail entry is the block containing a fault.
            self.push_trail(pc);
            let res = self.exec_items(proc, &mut cached, pc);
            if res.outcome.is_none() {
                self.finish_transfer(proc, &mut cached, pc, &res);
            }
            // Keep the block only when the cache was not invalidated
            // mid-block (e.g. by a guest write to JIT memory).
            if proc.mem.code_generation() == self.cache_gen {
                match slot {
                    Some(s) => self.slots[s as usize] = Some(cached),
                    None if cacheable => self.cache_block(pc, cached),
                    None => {}
                }
            } else if let Some(s) = slot {
                self.index.remove(&pc);
                self.free.push(s);
            }
            if let Some(o) = res.outcome {
                return o;
            }
            proc.cpu.pc = res.next_pc;
        }
    }

    /// Translates the block at `pc` under `tool`, charging the engine's
    /// build cost and whatever the tool charges while instrumenting. The
    /// flag is `false` for a translation over [`MAX_TB_ITEMS`]: it runs,
    /// but is never cached.
    fn translate(
        &mut self,
        proc: &mut Process,
        tool: &mut dyn Tool,
        pc: u64,
    ) -> Result<(CachedBlock, bool), Fault> {
        let block = DecodedBlock {
            start: pc,
            ops: proc.decode_block(pc, MAX_BLOCK)?,
        };
        let build_cost = self.opts.costs.block_build
            + self.opts.costs.translate_per_insn * block.ops.len() as u64;
        proc.cycles += build_cost;
        self.stats.translation_cycles += build_cost;
        self.stats.blocks_translated += 1;
        let cycles_before_instrument = proc.cycles;
        let mut items = tool.instrument_block(proc, &block);
        let tool_translate = proc.cycles - cycles_before_instrument;
        // Elision notes are observation-only markers. They are stripped
        // *before* the size guard below so oversized classification is
        // byte-identical whether or not a tool emits them, and recorded
        // (when profiling) so each execution of the block can count its
        // avoided checks.
        if items.iter().any(|i| matches!(i, TbItem::Note(_))) {
            let mut notes: Vec<ProbeSite> = Vec::new();
            items.retain(|i| match i {
                TbItem::Note(s) => {
                    notes.push(*s);
                    false
                }
                _ => true,
            });
            if let Some(prof) = &mut self.profile {
                prof.elided.insert(pc, notes);
            }
        }
        if let Some(prof) = &mut self.profile {
            let bp = prof.blocks.entry(pc).or_default();
            bp.translations += 1;
            bp.translate_cycles += build_cost;
            bp.tool_translate_cycles += tool_translate;
        }
        let cacheable = items.len() <= MAX_TB_ITEMS;
        if !cacheable {
            // Translation-size guard: run it, don't cache it.
            self.stats.oversized_blocks += 1;
            proc.flight
                .record("dbt.oversized_block", None, pc, items.len() as u64);
        }
        Ok((CachedBlock::new(items), cacheable))
    }

    /// Executes one translated block against `proc`: each run of guest
    /// ops between two probes goes through the execution kernel, then
    /// the probe runs. Charges guest and probe costs and (when
    /// profiling) flushes the block's per-class profile row.
    fn exec_items(&mut self, proc: &mut Process, cached: &mut CachedBlock, pc: u64) -> ExecRes {
        let profiling = self.profile.is_some();
        let mut outcome: Option<RunOutcome> = None;
        let mut next_pc = pc;
        let mut prof_guest_cycles = 0u64;
        let mut prof_guest_insns = 0u64;
        let mut prof_inline = 0u64;
        let mut prof_clean_call = 0u64;
        let CachedBlock { ops, probes, .. } = cached;
        let mut done = 0;
        // Each probe, then the ops after the last probe (as a final step
        // with no probe).
        let mut steps = probes.iter_mut().map(|(at, p)| (*at, Some(p)));
        loop {
            let (at, probe) = steps.next().unwrap_or((ops.len(), None));
            if at > done {
                let guest_before = proc.cycles;
                let ran = run_ops(proc, &ops[done..at]);
                done = at;
                self.stats.guest_insns += ran.insns;
                if profiling {
                    prof_guest_cycles += proc.cycles - guest_before;
                    prof_guest_insns += ran.insns;
                }
                match ran.end {
                    RunEnd::Next(t) => next_pc = t,
                    RunEnd::Exited(c) => outcome = Some(RunOutcome::Exited(c)),
                    RunEnd::Fault(f) => outcome = Some(RunOutcome::Fault(f)),
                }
                if outcome.is_some() {
                    break;
                }
            }
            let Some(p) = probe else { break };
            let probe_before = if profiling { proc.cycles } else { 0 };
            proc.cycles += p.cost;
            self.stats.probe_cycles += p.cost;
            let result = match &mut p.run {
                ProbeRun::ShadowCheck(c) => c.run(proc),
                ProbeRun::Custom(f) => f(proc),
            };
            let mut violated = false;
            let mut hoisted = false;
            match result {
                ProbeResult::Ok => {}
                ProbeResult::Hoisted => {
                    debug_assert_eq!(p.cost, 0, "Hoisted probes must be cost-free");
                    hoisted = true;
                    self.stats.checks_hoisted += 1;
                }
                ProbeResult::Extra(c) => {
                    proc.cycles += c;
                    self.stats.probe_cycles += c;
                }
                ProbeResult::Violation(r) => {
                    violated = true;
                    proc.flight.record("dbt.violation", None, r.pc, 0);
                    if self.stats.reports.len() < MAX_REPORTS {
                        let ctx = self.capture_context(proc, r.pc);
                        self.stats.contexts.push(ctx);
                        self.stats.reports.push(r.clone());
                    } else {
                        self.stats.reports_dropped += 1;
                        if self.stats.reports_dropped == 1 {
                            // First drop is the black-box trip:
                            // forensics is now lossy.
                            proc.flight
                                .trip("report-overflow", None, r.pc, MAX_REPORTS as u64);
                        }
                    }
                    if self.opts.halt_on_violation {
                        outcome = Some(RunOutcome::Violation(r));
                    }
                }
            }
            // A hoisted hit executes no check code: it is a
            // dynamically elided check, not a probe run.
            if !hoisted {
                self.stats.probe_runs += 1;
            }
            if profiling {
                let delta = proc.cycles - probe_before;
                match p.site.map_or(ProbeClass::Inline, |s| s.class) {
                    ProbeClass::Inline => prof_inline += delta,
                    ProbeClass::CleanCall => prof_clean_call += delta,
                }
                if let Some(site) = p.site {
                    let sp = self
                        .profile
                        .as_mut()
                        .expect("profiling implies profile")
                        .sites
                        .entry(site)
                        .or_default();
                    if hoisted {
                        sp.elided += 1;
                    } else {
                        sp.execs += 1;
                        sp.cycles += delta;
                        sp.violations += u64::from(violated);
                    }
                }
            }
            if outcome.is_some() {
                break;
            }
        }
        // How the block ended only matters when it ran to completion
        // (the callers consume these fields only when `outcome` is
        // `None`), and a completed block's last executed instruction is
        // its statically last one.
        let ended_indirect = outcome.is_none() && cached.ends_indirect;
        let ended_ret = outcome.is_none() && cached.ends_ret;
        if let Some(prof) = &mut self.profile {
            let EngineProfile {
                blocks,
                sites,
                elided,
                ..
            } = prof;
            let bp = blocks.entry(pc).or_default();
            bp.execs += 1;
            bp.guest_insns += prof_guest_insns;
            bp.guest_cycles += prof_guest_cycles;
            bp.inline_probe_cycles += prof_inline;
            bp.clean_call_cycles += prof_clean_call;
            if let Some(notes) = elided.get(&pc) {
                for s in notes {
                    sites.entry(*s).or_default().elided += 1;
                }
            }
        }
        ExecRes {
            outcome,
            next_pc,
            ended_indirect,
            ended_ret,
        }
    }

    /// Charges the modeled dispatch cost of a completed block execution
    /// and (when profiling) records its edge. The indirect charge goes
    /// through the block's inlined single-entry target cache: a repeat
    /// target pays [`CostModel::chain_hit`], a new target pays the full
    /// [`CostModel::indirect_lookup`] and installs itself.
    fn finish_transfer(
        &mut self,
        proc: &mut Process,
        cached: &mut CachedBlock,
        pc: u64,
        res: &ExecRes,
    ) {
        if res.ended_indirect {
            self.stats.indirect_transfers += 1;
            let cost = if cached.itarget == res.next_pc {
                self.stats.indirect_chain_hits += 1;
                self.opts.costs.chain_hit
            } else {
                cached.itarget = res.next_pc;
                self.opts.costs.indirect_lookup
            };
            proc.cycles += cost;
            self.stats.dispatch_cycles += cost;
            if let Some(prof) = &mut self.profile {
                prof.blocks.entry(pc).or_default().dispatch_cycles += cost;
            }
        }
        if let Some(prof) = &mut self.profile {
            let kind = if res.ended_ret {
                EdgeKind::Return
            } else if res.ended_indirect {
                EdgeKind::Indirect
            } else {
                EdgeKind::Direct
            };
            *prof.edges.entry((pc, res.next_pc, kind)).or_insert(0) += 1;
        }
    }

    /// Number of blocks currently in the code cache.
    pub fn cached_blocks(&self) -> usize {
        self.index.len()
    }

    /// Clears the code cache (tests and ablations).
    pub fn flush_cache(&mut self) {
        self.clear_cache_state();
    }
}

/// How one block execution ended: the outcome (if the run is over), the
/// successor pc, and the classification of the final executed guest
/// instruction.
struct ExecRes {
    outcome: Option<RunOutcome>,
    next_pc: u64,
    ended_indirect: bool,
    ended_ret: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use janitizer_asm::{assemble, AsmOptions};
    use janitizer_link::{link, LinkOptions};
    use janitizer_vm::{load_process, FaultKind, LoadOptions, ModuleStore};

    fn proc_from(src: &str) -> Process {
        let o = assemble("t.s", src, &AsmOptions::default()).unwrap();
        let img = link(&[o], &LinkOptions::executable("t")).unwrap();
        let mut store = ModuleStore::new();
        store.add(img);
        load_process(&store, "t", &LoadOptions::default()).unwrap()
    }

    /// Run-time address of `name` in the program module `t`.
    fn label(p: &Process, name: &str) -> u64 {
        let m = p.modules.iter().find(|m| m.image.name == "t").unwrap();
        m.base + m.image.symbol(name).expect("label").value
    }

    /// A zero-cost probe that never reports.
    fn no_op_probe() -> TbItem {
        TbItem::Probe(Probe::new(0, Box::new(|_| ProbeResult::Ok)))
    }

    /// Pads the translation of the block starting at `at` with no-op
    /// probes up to `items` translation items; every other block passes
    /// through.
    struct Pad {
        at: u64,
        items: usize,
    }

    impl Tool for Pad {
        fn name(&self) -> &str {
            "pad"
        }
        fn instrument_block(&mut self, _proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
            let pad = if block.start == self.at {
                self.items.saturating_sub(block.ops.len())
            } else {
                0
            };
            let mut items: Vec<TbItem> = (0..pad).map(|_| no_op_probe()).collect();
            items.extend(block.passthrough());
            items
        }
    }

    const LOOP_SUM: &str = ".section text\n.global _start\n_start:\n\
        mov r0, 0\n mov r2, 10\n\
        loop:\n add r0, r2\n sub r2, 1\n cmp r2, 0\n jne loop\n ret\n";

    #[test]
    fn null_tool_preserves_semantics() {
        let mut native = proc_from(LOOP_SUM);
        let native_exit = native.run_native(1_000_000);
        assert_eq!(native_exit.code(), Some(55));

        let mut dbt_proc = proc_from(LOOP_SUM);
        let mut engine = Engine::new(EngineOptions::default());
        let out = engine.run(&mut dbt_proc, &mut NullTool, 1_000_000);
        assert_eq!(out.code(), Some(55));
        assert_eq!(dbt_proc.insns, native.insns, "same instructions executed");
    }

    #[test]
    fn dbt_charges_translation_and_dispatch() {
        let mut native = proc_from(LOOP_SUM);
        native.run_native(1_000_000);

        let mut dbt_proc = proc_from(LOOP_SUM);
        let mut engine = Engine::new(EngineOptions::default());
        engine.run(&mut dbt_proc, &mut NullTool, 1_000_000);
        assert!(
            dbt_proc.cycles > native.cycles,
            "null client is not free: {} vs {}",
            dbt_proc.cycles,
            native.cycles
        );
        assert!(engine.stats.blocks_translated >= 2);
        assert!(engine.stats.translation_cycles > 0);
        // The ret pays an indirect lookup.
        assert!(engine.stats.indirect_transfers >= 1);
        // The loop body is translated once, not per iteration.
        assert!(engine.stats.blocks_translated < 10);
    }

    #[test]
    fn oversized_blocks_execute_but_are_not_cached() {
        // The loop body padded one item past the translation budget: the
        // program must still run to the same result, the body is rebuilt
        // on each of its nine visits and never cached, and the guard is
        // visible in the stats.
        let mut base = proc_from(LOOP_SUM);
        let mut e_base = Engine::new(EngineOptions::default());
        assert_eq!(
            e_base.run(&mut base, &mut NullTool, 1_000_000).code(),
            Some(55)
        );
        assert_eq!(e_base.stats.oversized_blocks, 0, "ordinary programs fit");

        let mut p = proc_from(LOOP_SUM);
        let at = label(&p, "loop");
        let mut engine = Engine::new(EngineOptions::default());
        let mut tool = Pad {
            at,
            items: MAX_TB_ITEMS + 1,
        };
        let out = engine.run(&mut p, &mut tool, 1_000_000);
        assert_eq!(out.code(), Some(55), "guard never changes semantics");
        assert_eq!(engine.stats.oversized_blocks, 9, "rebuilt per visit");
        assert_eq!(engine.cached_blocks(), e_base.cached_blocks() - 1);
        assert_eq!(
            engine.stats.blocks_translated,
            e_base.stats.blocks_translated + 8
        );
        assert_eq!(engine.stats.probe_runs, 9 * (MAX_TB_ITEMS + 1 - 4) as u64);

        // Exactly at the budget the padded block is cached like any other.
        let mut p2 = proc_from(LOOP_SUM);
        let mut engine2 = Engine::new(EngineOptions::default());
        let mut at_budget = Pad {
            at,
            items: MAX_TB_ITEMS,
        };
        assert_eq!(
            engine2.run(&mut p2, &mut at_budget, 1_000_000).code(),
            Some(55)
        );
        assert_eq!(engine2.stats.oversized_blocks, 0);
        assert_eq!(engine2.cached_blocks(), e_base.cached_blocks());
        assert_eq!(p2.cycles, base.cycles, "zero-cost padding is free");
    }

    #[test]
    fn overhead_cycles_bounded_by_total() {
        // Engine-added overhead (translation + dispatch + probes) can
        // never exceed the process's total cycle count, and the parts
        // must sum to the accessor's whole.
        let mut p = proc_from(LOOP_SUM);
        let mut engine = Engine::new(EngineOptions::default());
        engine.run(&mut p, &mut NullTool, 1_000_000);
        let s = &engine.stats;
        assert_eq!(
            s.total_overhead_cycles(),
            s.translation_cycles + s.dispatch_cycles + s.probe_cycles
        );
        assert!(
            s.total_overhead_cycles() <= p.cycles,
            "overhead {} exceeds total process cycles {}",
            s.total_overhead_cycles(),
            p.cycles
        );
        // Monotonic consistency: a second run on the same engine only
        // grows the cumulative stats, and the bound still holds.
        let overhead_after_first = s.total_overhead_cycles();
        let mut p2 = proc_from(LOOP_SUM);
        engine.run(&mut p2, &mut NullTool, 1_000_000);
        assert!(engine.stats.total_overhead_cycles() >= overhead_after_first);
        assert!(engine.stats.total_overhead_cycles() <= p.cycles + p2.cycles);
    }

    #[test]
    fn probes_run_and_charge() {
        let mut p = proc_from(LOOP_SUM);
        struct CountingTool {
            count: std::rc::Rc<std::cell::Cell<u64>>,
        }
        impl Tool for CountingTool {
            fn name(&self) -> &str {
                "count"
            }
            fn instrument_block(
                &mut self,
                _proc: &mut Process,
                block: &DecodedBlock,
            ) -> Vec<TbItem> {
                let mut items = Vec::new();
                let c = self.count.clone();
                items.push(TbItem::Probe(Probe::new(
                    5,
                    Box::new(move |_p| {
                        c.set(c.get() + 1);
                        ProbeResult::Ok
                    }),
                )));
                items.extend(block.passthrough());
                items
            }
        }
        let count = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut tool = CountingTool {
            count: count.clone(),
        };
        let mut engine = Engine::new(EngineOptions::default());
        let out = engine.run(&mut p, &mut tool, 1_000_000);
        assert_eq!(out.code(), Some(55));
        // Block-entry probe runs once per block execution: at least 10
        // loop iterations.
        assert!(count.get() >= 10, "probe ran {} times", count.get());
        assert_eq!(engine.stats.probe_runs, count.get());
        assert_eq!(engine.stats.probe_cycles, count.get() * 5);
    }

    #[test]
    fn violation_halts_when_configured() {
        let mut p = proc_from(LOOP_SUM);
        struct Violator;
        impl Tool for Violator {
            fn name(&self) -> &str {
                "violator"
            }
            fn instrument_block(
                &mut self,
                _proc: &mut Process,
                block: &DecodedBlock,
            ) -> Vec<TbItem> {
                let mut items: Vec<TbItem> = vec![TbItem::Probe(Probe::new(
                    1,
                    Box::new(|p| {
                        ProbeResult::Violation(Report {
                            pc: p.cpu.pc,
                            kind: "test-violation".into(),
                            details: "boom".into(),
                        })
                    }),
                ))];
                items.extend(block.passthrough());
                items
            }
        }
        let mut engine = Engine::new(EngineOptions::default());
        let out = engine.run(&mut p, &mut Violator, 1_000_000);
        assert!(matches!(out, RunOutcome::Violation(_)));
        assert_eq!(engine.stats.reports.len(), 1);

        // Non-halting mode collects reports and finishes.
        let mut p2 = proc_from(LOOP_SUM);
        let mut engine2 = Engine::new(EngineOptions {
            halt_on_violation: false,
            ..EngineOptions::default()
        });
        let out2 = engine2.run(&mut p2, &mut Violator, 1_000_000);
        assert_eq!(out2.code(), Some(55));
        assert!(engine2.stats.reports.len() > 1);
        // Every report comes with its engine-side context, aligned by
        // index and agreeing on the pc.
        assert_eq!(engine2.stats.contexts.len(), engine2.stats.reports.len());
        for (r, c) in engine2.stats.reports.iter().zip(&engine2.stats.contexts) {
            assert_eq!(r.pc, c.pc);
        }
        assert_eq!(engine2.stats.reports_dropped, 0);
    }

    #[test]
    fn max_reports_caps_collection() {
        /// Reports a violation on each of the first `budget` block
        /// executions, then stays quiet.
        struct Violator {
            budget: std::rc::Rc<std::cell::Cell<usize>>,
        }
        impl Tool for Violator {
            fn name(&self) -> &str {
                "violator"
            }
            fn instrument_block(
                &mut self,
                _proc: &mut Process,
                block: &DecodedBlock,
            ) -> Vec<TbItem> {
                let budget = self.budget.clone();
                let mut items: Vec<TbItem> = vec![TbItem::Probe(Probe::new(
                    1,
                    Box::new(move |p| {
                        if budget.get() == 0 {
                            return ProbeResult::Ok;
                        }
                        budget.set(budget.get() - 1);
                        ProbeResult::Violation(Report {
                            pc: p.cpu.pc,
                            kind: ViolationKind::Custom("test-violation"),
                            details: "boom".into(),
                        })
                    }),
                ))];
                items.extend(block.passthrough());
                items
            }
        }
        // More block executions than violations in every run below.
        let src = LOOP_SUM.replace("mov r2, 10", &format!("mov r2, {}", MAX_REPORTS + 10));
        let run = |violations: usize| {
            let mut p = proc_from(&src);
            p.flight = janitizer_telemetry::flight::Flight::armed(None);
            let mut engine = Engine::new(EngineOptions {
                halt_on_violation: false,
                ..EngineOptions::default()
            });
            let mut tool = Violator {
                budget: std::rc::Rc::new(std::cell::Cell::new(violations)),
            };
            assert!(engine.run(&mut p, &mut tool, u64::MAX).code().is_some());
            let dump = p.flight.dump_json("test").expect("armed");
            let trips = dump.matches("\"report-overflow\"").count();
            (p.cycles, engine.stats, trips)
        };
        // The same probes with no violation: nothing is kept.
        let (clean_cycles, clean, trips) = run(0);
        assert!(clean.reports.is_empty());
        assert_eq!(clean.reports_dropped, 0);
        assert_eq!(trips, 0);

        // At the cap: everything is kept, nothing trips, and keeping
        // `MAX_REPORTS` reports and their contexts costs no guest cycle.
        let (at_cap_cycles, at_cap, trips) = run(MAX_REPORTS);
        assert_eq!(at_cap.reports.len(), MAX_REPORTS);
        assert_eq!(at_cap.contexts.len(), MAX_REPORTS);
        assert_eq!(at_cap.reports_dropped, 0);
        assert_eq!(trips, 0);

        // One report past the cap is counted, not kept, and trips the
        // process's flight recorder once.
        let (over_cycles, over, trips) = run(MAX_REPORTS + 1);
        assert_eq!(over.reports.len(), MAX_REPORTS, "reports capped");
        assert_eq!(
            over.contexts.len(),
            MAX_REPORTS,
            "contexts capped with reports"
        );
        assert_eq!(over.reports_dropped, 1, "overflow counted");
        assert_eq!(trips, 1);
        // Neither capture nor the cap changes guest-visible execution.
        assert_eq!(at_cap_cycles, clean_cycles, "capture is observation-only");
        assert_eq!(over_cycles, clean_cycles, "the cap is observation-only");

        // Only the first drop trips.
        let (_, further, trips) = run(MAX_REPORTS + 3);
        assert_eq!(further.reports_dropped, 3);
        assert_eq!(trips, 1);
    }

    #[test]
    fn violation_context_carries_trail_and_registers() {
        /// Logs every executed block's start pc on entry and violates
        /// at the end of a block once the loop has run for a while.
        struct Violator {
            log: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
        }
        impl Tool for Violator {
            fn name(&self) -> &str {
                "violator"
            }
            fn instrument_block(
                &mut self,
                _proc: &mut Process,
                block: &DecodedBlock,
            ) -> Vec<TbItem> {
                let log = self.log.clone();
                let mut items = vec![TbItem::Probe(Probe::new(
                    0,
                    Box::new(move |p| {
                        log.borrow_mut().push(p.cpu.pc);
                        ProbeResult::Ok
                    }),
                ))];
                items.extend(block.passthrough());
                items.push(TbItem::Probe(Probe::new(
                    1,
                    Box::new(|p| {
                        if p.insns > 300 {
                            ProbeResult::Violation(Report {
                                pc: p.cpu.pc,
                                kind: ViolationKind::InvalidAccess,
                                details: "late".into(),
                            })
                        } else {
                            ProbeResult::Ok
                        }
                    }),
                )));
                items
            }
        }
        let mut p = proc_from(HOT_CALL_LOOP);
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut tool = Violator { log: log.clone() };
        let mut engine = Engine::new(EngineOptions::default());
        let out = engine.run(&mut p, &mut tool, 1_000_000);
        assert!(matches!(out, RunOutcome::Violation(_)));
        let ctx = &engine.stats.contexts[0];
        // The ring has wrapped several times; unwound, it holds exactly
        // the newest TRAIL_LEN executed blocks, oldest first.
        let log = log.borrow();
        assert!(log.len() > 3 * TRAIL_LEN, "{} blocks ran", log.len());
        assert_eq!(ctx.trail.len(), TRAIL_LEN, "trail bounded by TRAIL_LEN");
        assert_eq!(ctx.trail, log[log.len() - TRAIL_LEN..]);
        // The trail's final entry is a block of the running program.
        let last = *ctx.trail.last().unwrap();
        assert!(p.module_containing(last).is_some());
        // The stack pointer snapshot points into the stack region.
        assert!(ctx.regs[Reg::SP.index()] >= janitizer_vm::STACK_BASE);
    }

    #[test]
    fn jit_code_invalidates_cache() {
        // Program writes code then runs it; the engine must execute the
        // fresh bytes (cache generation bump).
        let src = ".section text\n.global _start\n_start:\n\
             mov r0, 3\n mov r1, 4096\n mov r2, 1\n syscall\n\
             mov r8, r0\n\
             mov r9, 0x12\n st1 [r8], r9\n\
             mov r9, 0\n st1 [r8+1], r9\n\
             mov r9, 123\n st4 [r8+2], r9\n\
             mov r9, 0x6c\n st1 [r8+6], r9\n\
             call r8\n ret\n";
        let mut p = proc_from(src);
        let mut engine = Engine::new(EngineOptions::default());
        let out = engine.run(&mut p, &mut NullTool, 10_000_000);
        assert_eq!(out.code(), Some(123));
    }

    #[test]
    fn fault_reported_with_pc() {
        let src = ".section text\n.global _start\n_start:\n mov r1, 0x1234\n ld8 r0, [r1]\n ret\n";
        let mut p = proc_from(src);
        let mut engine = Engine::new(EngineOptions::default());
        let out = engine.run(&mut p, &mut NullTool, 1_000_000);
        let RunOutcome::Fault(f) = out else {
            panic!("expected fault: {out:?}")
        };
        assert!(matches!(f.kind, FaultKind::Mem(_)));
    }

    #[test]
    fn out_of_fuel() {
        let src = ".section text\n.global _start\n_start:\nspin:\n jmp spin\n";
        let mut p = proc_from(src);
        let mut engine = Engine::new(EngineOptions::default());
        assert_eq!(
            engine.run(&mut p, &mut NullTool, 5_000),
            RunOutcome::OutOfFuel
        );
    }

    #[test]
    fn module_events_delivered_for_dlopen() {
        let plugin_src = ".section text\n.global plugin_work\nplugin_work:\n mov r0, 9\n ret\n";
        let exe_src = ".section text\n.global _start\n_start:\n\
             mov r0, 5\n la r1, name\n mov r2, 6\n syscall\n\
             mov r8, r0\n\
             mov r0, 6\n mov r1, r8\n la r2, sym\n mov r3, 11\n syscall\n\
             call r0\n ret\n\
             .section rodata\nname: .ascii \"lib.so\"\nsym: .ascii \"plugin_work\"\n";
        let o = assemble("e.s", exe_src, &AsmOptions::default()).unwrap();
        let exe = link(&[o], &LinkOptions::executable("e")).unwrap();
        let po = assemble("p.s", plugin_src, &AsmOptions { pic: true }).unwrap();
        let plugin = link(&[po], &LinkOptions::shared_object("lib.so")).unwrap();
        let mut store = ModuleStore::new();
        store.add(exe);
        store.add(plugin);
        let mut p = load_process(&store, "e", &LoadOptions::default()).unwrap();

        struct LoadLog {
            loads: std::rc::Rc<std::cell::RefCell<Vec<String>>>,
        }
        impl Tool for LoadLog {
            fn name(&self) -> &str {
                "loadlog"
            }
            fn on_module_load(&mut self, proc: &mut Process, id: usize) {
                self.loads
                    .borrow_mut()
                    .push(proc.modules[id].image.name.clone());
            }
            fn instrument_block(
                &mut self,
                _proc: &mut Process,
                block: &DecodedBlock,
            ) -> Vec<TbItem> {
                block.passthrough()
            }
        }
        let loads = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut tool = LoadLog {
            loads: loads.clone(),
        };
        let mut engine = Engine::new(EngineOptions::default());
        let out = engine.run(&mut p, &mut tool, 10_000_000);
        assert_eq!(out.code(), Some(9));
        let seen = loads.borrow();
        assert!(seen.contains(&"e".to_string()), "static module event");
        assert!(
            seen.contains(&"lib.so".to_string()),
            "dlopen event: {seen:?}"
        );
    }

    #[test]
    fn probe_can_mutate_guest_registers() {
        // A probe that clobbers r2 mid-block changes program behaviour —
        // the mechanism behind the ipa-ra soundness experiments.
        let src = ".section text\n.global _start\n_start:\n mov r2, 40\n nop\n mov r0, r2\n ret\n";
        let mut p = proc_from(src);
        struct Clobber;
        impl Tool for Clobber {
            fn name(&self) -> &str {
                "clobber"
            }
            fn instrument_block(
                &mut self,
                _proc: &mut Process,
                block: &DecodedBlock,
            ) -> Vec<TbItem> {
                let mut items = Vec::new();
                for &op in &block.ops {
                    if matches!(op.insn, Instr::Nop) {
                        items.push(TbItem::Probe(Probe::new(
                            1,
                            Box::new(|p: &mut Process| {
                                p.cpu.set_reg(janitizer_isa::Reg::R2, 0xbad);
                                ProbeResult::Ok
                            }),
                        )));
                    }
                    items.push(TbItem::Guest(op));
                }
                items
            }
        }
        let mut engine = Engine::new(EngineOptions::default());
        let out = engine.run(&mut p, &mut Clobber, 1_000_000);
        assert_eq!(
            out.code(),
            Some(0xbad),
            "probe clobber is architecturally real"
        );
    }

    #[test]
    fn profile_conserves_cycles_and_changes_nothing() {
        let mut p_off = proc_from(LOOP_SUM);
        let mut e_off = Engine::new(EngineOptions::default());
        let out_off = e_off.run(&mut p_off, &mut NullTool, 1_000_000);

        let mut p_on = proc_from(LOOP_SUM);
        let mut e_on = Engine::new(EngineOptions {
            profile: true,
            ..EngineOptions::default()
        });
        let out_on = e_on.run(&mut p_on, &mut NullTool, 1_000_000);
        assert_eq!(out_off, out_on, "profiling never changes the outcome");
        assert_eq!(p_off.cycles, p_on.cycles, "profiling is observation-only");
        assert_eq!(p_off.insns, p_on.insns);
        assert!(e_off.profile().is_none());

        // Conservation: per-class sums over blocks reproduce the engine
        // totals exactly, and all classes together account for every
        // process cycle.
        let prof = e_on.profile().expect("profile collected");
        let s = &e_on.stats;
        let sum = |f: fn(&BlockProfile) -> u64| prof.blocks.values().map(f).sum::<u64>();
        assert_eq!(sum(|b| b.translate_cycles), s.translation_cycles);
        assert_eq!(sum(|b| b.dispatch_cycles), s.dispatch_cycles);
        assert_eq!(
            sum(|b| b.inline_probe_cycles + b.clean_call_cycles),
            s.probe_cycles
        );
        assert_eq!(sum(|b| b.guest_insns), s.guest_insns);
        assert_eq!(
            prof.blocks.values().map(|b| b.total_cycles()).sum::<u64>(),
            p_on.cycles,
            "every cycle lands in exactly one class"
        );
        // Execution counts: the loop body block re-executes; its
        // back-edge is direct and the final ret records a Return edge.
        assert!(prof.blocks.values().any(|b| b.execs >= 8));
        assert!(prof
            .edges
            .iter()
            .any(|((_, _, k), n)| *k == EdgeKind::Direct && *n >= 7));
        assert!(prof.edges.keys().any(|(_, _, k)| *k == EdgeKind::Return));
    }

    #[test]
    fn profile_sites_and_elision_notes() {
        struct Tagger;
        impl Tool for Tagger {
            fn name(&self) -> &str {
                "tagger"
            }
            fn instrument_block(
                &mut self,
                _proc: &mut Process,
                block: &DecodedBlock,
            ) -> Vec<TbItem> {
                let mut items = vec![
                    TbItem::Probe(Probe {
                        cost: 7,
                        run: ProbeRun::custom(|_| ProbeResult::Ok),
                        site: Some(ProbeSite {
                            tool: "tagger",
                            kind: "block-entry",
                            pc: block.start,
                            class: ProbeClass::CleanCall,
                            origin: SiteOrigin::Static,
                        }),
                    }),
                    TbItem::Note(ProbeSite {
                        tool: "tagger",
                        kind: "elided-check",
                        pc: block.start,
                        class: ProbeClass::Inline,
                        origin: SiteOrigin::Static,
                    }),
                ];
                items.extend(block.passthrough());
                items
            }
        }

        // Notes must not change execution at all, profiling or not.
        let mut p_plain = proc_from(LOOP_SUM);
        let mut e_plain = Engine::new(EngineOptions::default());
        assert_eq!(
            e_plain.run(&mut p_plain, &mut Tagger, 1_000_000).code(),
            Some(55)
        );

        let mut p = proc_from(LOOP_SUM);
        let mut engine = Engine::new(EngineOptions {
            profile: true,
            ..EngineOptions::default()
        });
        assert_eq!(engine.run(&mut p, &mut Tagger, 1_000_000).code(), Some(55));
        assert_eq!(p.cycles, p_plain.cycles, "notes and profiling are free");

        let prof = engine.profile().unwrap();
        for (pc, bp) in &prof.blocks {
            let entry = prof
                .sites
                .get(&ProbeSite {
                    tool: "tagger",
                    kind: "block-entry",
                    pc: *pc,
                    class: ProbeClass::CleanCall,
                    origin: SiteOrigin::Static,
                })
                .expect("tagged probe recorded");
            assert_eq!(
                entry.execs, bp.execs,
                "one probe execution per block execution"
            );
            assert_eq!(entry.cycles, bp.execs * 7);
            assert_eq!(entry.violations, 0);
            assert_eq!(
                bp.clean_call_cycles,
                bp.execs * 7,
                "clean-call class attribution"
            );
            let elided = prof
                .sites
                .get(&ProbeSite {
                    tool: "tagger",
                    kind: "elided-check",
                    pc: *pc,
                    class: ProbeClass::Inline,
                    origin: SiteOrigin::Static,
                })
                .expect("note recorded");
            assert_eq!(elided.elided, bp.execs, "one avoided check per execution");
            assert_eq!(elided.execs, 0);
        }
        let site_cycles: u64 = prof.sites.values().map(|s| s.cycles).sum();
        assert_eq!(
            site_cycles, engine.stats.probe_cycles,
            "site cycles cover all probes"
        );
    }

    /// A hot call loop: direct transfers plus an indirect leaf return
    /// whose target repeats, so the inlined target cache hits.
    const HOT_CALL_LOOP: &str = ".section text\n.global _start\n_start:\n\
        mov r0, 0\n mov r2, 200\n\
        loop:\n call leaf\n add r0, r1\n sub r2, 1\n cmp r2, 0\n jne loop\n\
        done:\n mov r0, r0\n ret\n\
        leaf:\n mov r1, 2\n ret\n";

    #[test]
    fn hot_call_loop_dispatch_is_pinned() {
        // Every modeled figure input of the one dispatch path, pinned to
        // the values the engine produced when it still had a host-only
        // trace layer (identical with that layer on or off).
        let mut p = proc_from(HOT_CALL_LOOP);
        let mut e = Engine::new(EngineOptions::default());
        let out = e.run(&mut p, &mut NullTool, 10_000_000);
        assert_eq!(out, RunOutcome::Exited(400));
        assert_eq!(p.cycles, 5699);
        assert_eq!(p.insns, 1408);
        let s = &e.stats;
        assert_eq!(s.guest_insns, 1408);
        assert_eq!(s.blocks_translated, 7);
        assert_eq!(s.translation_cycles, 2900);
        assert_eq!(s.dispatch_cycles, 840);
        assert_eq!(s.indirect_transfers, 201);
        assert_eq!(s.indirect_chain_hits, 199);
        assert_eq!(
            (s.chained_transfers, s.superblocks_formed, s.trace_exits),
            (0, 0, 0),
            "retired counters stay 0"
        );
    }

    #[test]
    fn hot_loop_violation_reports_are_pinned() {
        // A violating tool on a hot loop: every report and its context
        // (registers, trail), pinned to the values the engine produced
        // when it still had a host-only trace layer.
        struct Violator;
        impl Tool for Violator {
            fn name(&self) -> &str {
                "violator"
            }
            fn instrument_block(
                &mut self,
                _proc: &mut Process,
                block: &DecodedBlock,
            ) -> Vec<TbItem> {
                let mut items = block.passthrough();
                items.push(TbItem::Probe(Probe::new(
                    2,
                    Box::new(|p| {
                        if p.insns % 97 == 0 {
                            ProbeResult::Violation(Report {
                                pc: p.cpu.pc,
                                kind: ViolationKind::InvalidAccess,
                                details: format!("at insn {}", p.insns),
                            })
                        } else {
                            ProbeResult::Ok
                        }
                    }),
                )));
                items
            }
        }
        let mut p = proc_from(HOT_CALL_LOOP);
        let mut e = Engine::new(EngineOptions {
            halt_on_violation: false,
            ..EngineOptions::default()
        });
        let out = e.run(&mut p, &mut Violator, 10_000_000);
        assert_eq!(out, RunOutcome::Exited(400));
        assert_eq!(p.cycles, 6903);
        assert_eq!(e.stats.probe_runs, 602);

        // The loop's three blocks: head (`call leaf`), leaf, and the
        // block after the call returns.
        const H: u64 = 0x40000c;
        const L: u64 = 0x400027;
        const R: u64 = 0x400011;
        const SP: u64 = 0xe00fffb8;
        // (report pc, insns, r0, r2, sp, newest 8 trail entries)
        let want: [(u64, u64, u64, u64, u64, [u64; 8]); 6] = [
            (L, 97, 26, 187, SP, [H, L, R, H, L, R, H, L]),
            (H, 291, 82, 159, SP - 8, [R, H, L, R, H, L, R, H]),
            (R, 388, 110, 145, SP, [L, R, H, L, R, H, L, R]),
            (L, 776, 220, 90, SP, [H, L, R, H, L, R, H, L]),
            (H, 970, 276, 62, SP - 8, [R, H, L, R, H, L, R, H]),
            (R, 1067, 304, 48, SP, [L, R, H, L, R, H, L, R]),
        ];
        // The older 8 entries of each report's TRAIL_LEN-entry trail.
        let older: [[u64; 8]; 6] = [
            [L, R, H, L, R, H, L, R],
            [H, L, R, H, L, R, H, L],
            [R, H, L, R, H, L, R, H],
            [L, R, H, L, R, H, L, R],
            [H, L, R, H, L, R, H, L],
            [R, H, L, R, H, L, R, H],
        ];
        assert_eq!(e.stats.reports.len(), want.len());
        assert_eq!(e.stats.contexts.len(), want.len());
        assert_eq!(TRAIL_LEN, 16);
        for (((r, c), (pc, insns, r0, r2, sp, newest)), older) in e
            .stats
            .reports
            .iter()
            .zip(&e.stats.contexts)
            .zip(want)
            .zip(older)
        {
            assert_eq!(r.pc, pc);
            assert_eq!(r.kind, ViolationKind::InvalidAccess);
            assert_eq!(r.details, format!("at insn {insns}"));
            assert_eq!(c.pc, pc);
            let mut regs = [0u64; 16];
            regs[0] = r0;
            regs[1] = 2;
            regs[2] = r2;
            regs[Reg::SP.index()] = sp;
            assert_eq!(c.regs, regs, "registers at {insns}");
            assert_eq!(c.trail[..8], older, "older trail at {insns}");
            assert_eq!(c.trail[8..], newest, "newest trail at {insns}");
        }
    }

    #[test]
    fn jit_write_and_flush_rerun_match_a_cold_engine() {
        // The JIT-write program from `jit_code_invalidates_cache` in a
        // hot call loop's company: the generation check must drop stale
        // translations instead of executing them.
        let src = ".section text\n.global _start\n_start:\n\
             mov r0, 3\n mov r1, 4096\n mov r2, 1\n syscall\n\
             mov r8, r0\n\
             mov r9, 0x12\n st1 [r8], r9\n\
             mov r9, 0\n st1 [r8+1], r9\n\
             mov r9, 123\n st4 [r8+2], r9\n\
             mov r9, 0x6c\n st1 [r8+6], r9\n\
             call r8\n ret\n";
        let mut p = proc_from(src);
        let mut engine = Engine::new(EngineOptions::default());
        let out = engine.run(&mut p, &mut NullTool, 10_000_000);
        assert_eq!(out.code(), Some(123));

        // A flush drops every cached translation: a rerun behaves like a
        // cold engine.
        let mut p1 = proc_from(HOT_CALL_LOOP);
        let mut e = Engine::new(EngineOptions::default());
        let out1 = e.run(&mut p1, &mut NullTool, 10_000_000);
        e.flush_cache();
        assert_eq!(e.cached_blocks(), 0);
        let mut p2 = proc_from(HOT_CALL_LOOP);
        let out2 = e.run(&mut p2, &mut NullTool, 10_000_000);
        assert_eq!(out2, out1, "flush-then-rerun reproduces the cold run");
        assert_eq!(p2.cycles, p1.cycles);
    }

    #[test]
    fn oversized_blocks_run_a_call_loop() {
        // An oversized block lives outside the cache, but execution must
        // stay correct: the call loop's final block (ending in the `ret`
        // that leaves `_start`) padded past the translation budget.
        let mut p = proc_from(HOT_CALL_LOOP);
        let mut engine = Engine::new(EngineOptions::default());
        let mut tool = Pad {
            at: label(&p, "done"),
            items: MAX_TB_ITEMS + 1,
        };
        let out = engine.run(&mut p, &mut tool, 10_000_000);
        assert_eq!(out, RunOutcome::Exited(400));
        assert_eq!(engine.stats.oversized_blocks, 1);
        // The same cycles and transfers as the null-client run pinned in
        // `hot_call_loop_dispatch_is_pinned`: zero-cost padding is free.
        assert_eq!(p.cycles, 5699);
        assert_eq!(engine.stats.indirect_transfers, 201);
        assert_eq!(engine.stats.indirect_chain_hits, 199);
        assert_eq!(engine.cached_blocks(), 6);
    }

    #[test]
    fn hoisted_probe_accounting() {
        // Hoisted is a dynamically elided check — no cycles, no probe run.
        struct HoistTool;
        impl Tool for HoistTool {
            fn name(&self) -> &str {
                "hoist"
            }
            fn instrument_block(
                &mut self,
                _proc: &mut Process,
                block: &DecodedBlock,
            ) -> Vec<TbItem> {
                let mut items = vec![
                    TbItem::Probe(Probe::new(5, Box::new(|_| ProbeResult::Ok))),
                    TbItem::Probe(Probe::new(0, Box::new(|_| ProbeResult::Hoisted))),
                ];
                items.extend(block.passthrough());
                items
            }
        }
        let mut p = proc_from(LOOP_SUM);
        let mut engine = Engine::new(EngineOptions::default());
        let out = engine.run(&mut p, &mut HoistTool, 1_000_000);
        assert_eq!(out.code(), Some(55));
        let s = &engine.stats;
        assert!(s.checks_hoisted > 0);
        assert_eq!(s.checks_fused, 0, "fusion is retired");
        assert_eq!(
            s.probe_runs, s.checks_hoisted,
            "hoisted hits are not probe runs"
        );
        assert_eq!(
            s.probe_cycles,
            5 * s.probe_runs,
            "hoisted probes charge nothing"
        );
    }

    #[test]
    fn typed_checks_keep_tb_items_small() {
        // A shadow check is boxed, so it costs a translated block no more
        // than a callback probe does.
        assert!(std::mem::size_of::<TbItem>() <= 72);
    }
}
