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

/// Default bound on collected reports (and tool-side violation
/// contexts) for non-halting runs — generous, but finite.
pub const DEFAULT_MAX_REPORTS: usize = 10_000;

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
    /// An original guest instruction `(pc, instr, next_pc)`.
    Guest(u64, Instr, u64),
    /// Injected instrumentation.
    Probe(Probe),
    /// Observation-only marker: a check site the static rules proved
    /// safe, so no probe was emitted. Stripped at translation time —
    /// before the `max_tb_items` size guard, so block classification is
    /// identical with profiling on or off — and recorded (when
    /// profiling) so elided work is attributable per site.
    Note(ProbeSite),
}

/// A guest basic block as discovered by the block builder, before
/// instrumentation: `(pc, instr, next_pc)` triples ending at the first
/// control-transfer instruction.
#[derive(Clone, Debug)]
pub struct DecodedBlock {
    /// Block start address.
    pub start: u64,
    /// The instructions.
    pub insns: Vec<(u64, Instr, u64)>,
}

impl DecodedBlock {
    /// Address one past the end of the block.
    pub fn end(&self) -> u64 {
        self.insns.last().map(|(_, _, n)| *n).unwrap_or(self.start)
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
        block
            .insns
            .iter()
            .map(|&(pc, insn, next)| TbItem::Guest(pc, insn, next))
            .collect()
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
    /// Control transfers that bypassed the dispatcher entirely: direct
    /// transfers that followed a chain link, plus superblock-internal
    /// segment transitions and loop-back laps. These are *not* indirect
    /// transfers and cost zero modeled cycles — the counter records how
    /// much real dispatcher work (hash lookups, loop-top checks) the
    /// trace layer removed.
    pub chained_transfers: u64,
    /// Superblocks stitched by the hot-trace builder.
    pub superblocks_formed: u64,
    /// Superblock executions that left the trace before its planned end
    /// (a side exit: a conditional went the other way, or a stale segment
    /// tore the trace down). Planned completions are not exits.
    pub trace_exits: u64,
    /// Retired with probe fusion: always 0. Kept because the
    /// `profile/v2` schema and the benchmark still read it.
    pub checks_fused: u64,
    /// Hoisted loop-invariant check executions elided at run time
    /// ([`ProbeResult::Hoisted`]).
    pub checks_hoisted: u64,
    /// All violation reports (in order), capped at
    /// [`EngineOptions::max_reports`].
    pub reports: Vec<Report>,
    /// Engine-side execution contexts, one per entry in `reports`
    /// (same order).
    pub contexts: Vec<ViolationContext>,
    /// Violations observed after `reports` reached the cap.
    pub reports_dropped: u64,
    /// Translations that exceeded [`EngineOptions::max_tb_items`] and
    /// were executed without being cached (the translation-size resource
    /// guard: hostile block shapes cannot balloon the code cache).
    pub oversized_blocks: u64,
}

impl Stats {
    /// Cycles the engine added on top of pure guest execution:
    /// translation + dispatch + probes. `dispatch_cycles` covers both
    /// full indirect lookups and the cheap [`CostModel::chain_hit`]
    /// charges of target-cache hits; chained *direct* transfers and
    /// superblock-internal transitions cost zero and therefore appear in
    /// no cycle term (only in [`Stats::chained_transfers`]). Always at
    /// most the process's total cycle count for the same run.
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

/// Counter-field snapshot of [`Stats`], used to compute per-run deltas
/// when a single engine serves several consecutive runs.
#[derive(Clone, Copy, Default)]
struct StatsMark {
    blocks_translated: u64,
    guest_insns: u64,
    translation_cycles: u64,
    dispatch_cycles: u64,
    probe_cycles: u64,
    probe_runs: u64,
    indirect_transfers: u64,
    indirect_chain_hits: u64,
    chained_transfers: u64,
    superblocks_formed: u64,
    trace_exits: u64,
    checks_fused: u64,
    checks_hoisted: u64,
    oversized_blocks: u64,
}

impl StatsMark {
    fn of(s: &Stats) -> StatsMark {
        StatsMark {
            blocks_translated: s.blocks_translated,
            guest_insns: s.guest_insns,
            translation_cycles: s.translation_cycles,
            dispatch_cycles: s.dispatch_cycles,
            probe_cycles: s.probe_cycles,
            probe_runs: s.probe_runs,
            indirect_transfers: s.indirect_transfers,
            indirect_chain_hits: s.indirect_chain_hits,
            chained_transfers: s.chained_transfers,
            superblocks_formed: s.superblocks_formed,
            trace_exits: s.trace_exits,
            checks_fused: s.checks_fused,
            checks_hoisted: s.checks_hoisted,
            oversized_blocks: s.oversized_blocks,
        }
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// Cost model.
    pub costs: CostModel,
    /// Stop at the first violation (ASan-style) or keep going (collecting
    /// reports).
    pub halt_on_violation: bool,
    /// Maximum guest instructions per block ([`janitizer_vm::MAX_BLOCK`],
    /// the cap native runs use, by default).
    pub max_block: usize,
    /// Upper bound on collected reports (and contexts). Non-halting runs
    /// over pathological inputs cannot grow the report vector without
    /// limit; overflow is counted in [`Stats::reports_dropped`].
    pub max_reports: usize,
    /// Length of the executed-block ring buffer snapshotted into each
    /// violation context as the execution trail.
    pub trail_len: usize,
    /// Upper bound on the number of translation items (guest instructions
    /// plus probes) a block may carry and still be *cached*. Oversized
    /// translations execute normally but are rebuilt on every visit, so a
    /// hostile tool/input combination cannot grow the code cache without
    /// limit through pathologically instrumented blocks. Counted in
    /// [`Stats::oversized_blocks`] and the `dbt.oversized_blocks`
    /// telemetry counter. The default is far above anything the bundled
    /// tools emit for a [`EngineOptions::max_block`]-sized block, so the
    /// happy path never hits it.
    pub max_tb_items: usize,
    /// Collect the deterministic per-block/per-site/per-edge profile
    /// ([`Engine::profile`]). Observation only: results and cycle
    /// totals are byte-identical with it on or off.
    pub profile: bool,
    /// Enable the trace layer: direct-branch chaining between cached
    /// blocks and NET-style superblock formation. Host-mechanism only —
    /// modeled cycles, stats cycle terms and guest results are
    /// byte-identical with traces on or off; the layer removes *real*
    /// dispatcher work (hash lookups, loop-top re-entry) and reports it
    /// in [`Stats::chained_transfers`] / [`Stats::superblocks_formed`].
    pub traces: bool,
    /// Block executions before the trace builder considers a block hot
    /// and tries to stitch a superblock from its dominant successor
    /// chain. Retried every further `trace_hot_threshold` executions
    /// while the block stays unstitched.
    pub trace_hot_threshold: u32,
    /// Maximum blocks per superblock.
    pub trace_max_blocks: usize,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            costs: CostModel::default(),
            halt_on_violation: true,
            max_block: MAX_BLOCK,
            max_reports: DEFAULT_MAX_REPORTS,
            trail_len: 16,
            max_tb_items: 1 << 16,
            profile: false,
            traces: true,
            trace_hot_threshold: 64,
            trace_max_blocks: 16,
        }
    }
}

/// A direct-branch chain link: "when this block's successor is `target`,
/// it lives in `slot` (valid while the slot's generation is `gen`)".
/// Followed without touching the code-cache index; invalidated lazily by
/// the generation check when the target is evicted or retranslated.
#[derive(Clone, Copy, Debug)]
struct ChainLink {
    target: u64,
    slot: u32,
    gen: u32,
}

/// One segment of a superblock: a cached block, pinned by slot and
/// generation. The segment *references* the block's existing translation
/// (no retranslation, no new charges); a generation mismatch at entry
/// tears the superblock down.
#[derive(Clone, Copy, Debug)]
struct SbSeg {
    pc: u64,
    slot: u32,
    gen: u32,
}

/// A NET-style superblock: the dominant successor chain of a hot block,
/// executed as one unit without re-entering the dispatcher between
/// segments. `loop_back` traces (tail branches to head) lap in place.
#[derive(Clone, Debug)]
struct Superblock {
    segs: Vec<SbSeg>,
    loop_back: bool,
}

/// How a superblock execution handed control back.
enum SbExit {
    /// The run is over (exit, fault, violation, out of fuel).
    Outcome(RunOutcome),
    /// Fall back to the dispatcher at the current `proc.cpu.pc`.
    Dispatch,
}

/// Sentinel for "no target seen yet" in per-block successor caches
/// (guest pcs never reach it).
const NO_TARGET: u64 = u64::MAX;

/// A translated block in the engine's internal form: the tool's
/// [`TbItem`]s lowered into the guest instructions as execution-kernel
/// ops, and the probes placed between them.
struct CachedBlock {
    /// The guest instructions, in order, each with its static cost.
    ops: Vec<Op>,
    /// The probes in order, each with the number of ops that run before
    /// it. The ops between two probes run as one kernel call.
    probes: Vec<(usize, Probe)>,
    /// Statically, does the block end in an indirect CTI? (Trace chains
    /// terminate at indirect-ending blocks.)
    ends_indirect: bool,
    /// Statically, is the block's final instruction `ret`? (Edge-kind
    /// classification, precomputed so the per-instruction loop does not
    /// re-match it.)
    ends_ret: bool,
    /// Inlined single-entry indirect-target cache (the modeled exit-stub
    /// comparison). Part of the *cost model*, so it is maintained
    /// identically with traces on or off.
    itarget: u64,
    /// Most-recently-seen successor and its run length — the cheap
    /// always-on stand-in for full edge profiling that trace formation
    /// follows as the dominant successor.
    last_next: u64,
    streak: u32,
    /// Executions left until the next hot-trace formation attempt.
    hot_countdown: u32,
    /// Chain link to the successor block for one direct-branch target.
    link: Option<ChainLink>,
    /// Superblock headed by this block, if one was formed.
    sb: Option<u32>,
}

impl CachedBlock {
    fn new(items: Vec<TbItem>, hot_countdown: u32) -> CachedBlock {
        let guests = items
            .iter()
            .filter(|i| matches!(i, TbItem::Guest(..)))
            .count();
        let mut ops = Vec::with_capacity(guests);
        let mut probes = Vec::with_capacity(items.len() - guests);
        for item in items {
            match item {
                TbItem::Guest(pc, insn, next) => ops.push(Op::new(pc, insn, next)),
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
            last_next: NO_TARGET,
            streak: 0,
            hot_countdown,
            link: None,
            sb: None,
        }
    }

    /// Updates the MRU successor after an execution that transferred to
    /// `next_pc`.
    fn note_successor(&mut self, next_pc: u64) {
        if self.last_next == next_pc {
            self.streak = self.streak.saturating_add(1);
        } else {
            self.last_next = next_pc;
            self.streak = 1;
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
    /// Per-slot generation counters, bumped whenever a slot is freed so
    /// chain links and superblock segments referencing the old occupant
    /// invalidate themselves lazily.
    slot_gens: Vec<u32>,
    /// Formed superblocks, referenced from head blocks' `sb` fields.
    sbs: Vec<Option<Superblock>>,
    sb_free: Vec<u32>,
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
            slot_gens: Vec::new(),
            sbs: Vec::new(),
            sb_free: Vec::new(),
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
        if self.trail.len() < self.opts.trail_len {
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

    /// Places a freshly translated block into a (possibly recycled) slot.
    fn alloc_slot(&mut self, block: CachedBlock) -> u32 {
        match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(block);
                s
            }
            None => {
                self.slots.push(Some(block));
                self.slot_gens.push(0);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Empties a slot after its occupant was invalidated (mid-block JIT
    /// write) and bumps its generation so chain links and superblock
    /// segments that referenced it stop matching.
    fn evict_slot(&mut self, pc: u64, slot: u32) {
        self.index.remove(&pc);
        self.slot_gens[slot as usize] += 1;
        self.free.push(slot);
    }

    /// Drops every cached translation, chain link and superblock (cache
    /// generation change or an explicit flush).
    fn clear_cache_state(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.slot_gens.clear();
        self.sbs.clear();
        self.sb_free.clear();
    }

    /// Builds (but does not cache) the decoded block starting at `pc`.
    fn build_block(
        &self,
        proc: &mut Process,
        pc: u64,
    ) -> Result<DecodedBlock, Fault> {
        let ops = proc.decode_block(pc, self.opts.max_block)?;
        Ok(DecodedBlock {
            start: pc,
            insns: ops.iter().map(|o| (o.pc, o.insn, o.next)).collect(),
        })
    }

    /// Runs `proc` under `tool` until exit, fault, violation (if halting)
    /// or `fuel` cycles.
    ///
    /// Module-load events (including `dlopen` during execution) are
    /// forwarded to the tool before the next block executes.
    pub fn run(&mut self, proc: &mut Process, tool: &mut dyn Tool, fuel: u64) -> RunOutcome {
        let mark = StatsMark::of(&self.stats);
        let cycles_at_entry = proc.cycles;
        // A fresh trail per run: blocks from a previous run served by the
        // same engine must not appear in this run's violation contexts.
        self.trail.clear();
        self.trail_pos = 0;
        // Deliver already-pending module loads, then start the tool.
        let pending: Vec<ProcessEvent> = proc.events.drain(..).collect();
        for ev in pending {
            let ProcessEvent::ModuleLoaded { id } = ev;
            janitizer_telemetry::event!("dbt.module_load", id = id);
            janitizer_telemetry::flight::record(
                "dbt.module_load",
                janitizer_telemetry::flight::NO_MODULE,
                id as u64,
                0,
            );
            tool.on_module_load(proc, id);
        }
        tool.on_start(proc);

        let outcome = self.run_inner(proc, tool, fuel);
        tool.on_exit(proc);
        self.flush_telemetry(mark, cycles_at_entry, proc.cycles);
        outcome
    }

    /// Attributes this run's cycle deltas to the telemetry registry.
    /// Overhead cycles go to `run;dbt;{translate,dispatch,probes}` and
    /// the remainder — pure guest execution — to `run;guest`, so the sum
    /// of span cycles always equals the process's cycle delta.
    fn flush_telemetry(&self, mark: StatsMark, cycles_at_entry: u64, cycles_at_exit: u64) {
        if !janitizer_telemetry::enabled() {
            return;
        }
        let s = &self.stats;
        let translate = s.translation_cycles - mark.translation_cycles;
        let dispatch = s.dispatch_cycles - mark.dispatch_cycles;
        let probes = s.probe_cycles - mark.probe_cycles;
        let total = cycles_at_exit.saturating_sub(cycles_at_entry);
        janitizer_telemetry::cycles("run;dbt;translate", translate);
        janitizer_telemetry::cycles("run;dbt;dispatch", dispatch);
        janitizer_telemetry::cycles("run;dbt;probes", probes);
        janitizer_telemetry::cycles(
            "run;guest",
            total.saturating_sub(translate + dispatch + probes),
        );
        janitizer_telemetry::counter_add(
            "dbt.blocks_translated",
            s.blocks_translated - mark.blocks_translated,
        );
        janitizer_telemetry::counter_add("dbt.guest_insns", s.guest_insns - mark.guest_insns);
        janitizer_telemetry::counter_add("dbt.probe_runs", s.probe_runs - mark.probe_runs);
        janitizer_telemetry::counter_add(
            "dbt.indirect_transfers",
            s.indirect_transfers - mark.indirect_transfers,
        );
        janitizer_telemetry::counter_add(
            "dbt.indirect_chain_hits",
            s.indirect_chain_hits - mark.indirect_chain_hits,
        );
        janitizer_telemetry::counter_add(
            "dbt.chained_transfers",
            s.chained_transfers - mark.chained_transfers,
        );
        janitizer_telemetry::counter_add(
            "dbt.superblocks_formed",
            s.superblocks_formed - mark.superblocks_formed,
        );
        janitizer_telemetry::counter_add("dbt.trace_exits", s.trace_exits - mark.trace_exits);
        janitizer_telemetry::counter_add("dbt.checks_fused", s.checks_fused - mark.checks_fused);
        janitizer_telemetry::counter_add(
            "dbt.checks_hoisted",
            s.checks_hoisted - mark.checks_hoisted,
        );
        janitizer_telemetry::counter_add(
            "dbt.oversized_blocks",
            s.oversized_blocks - mark.oversized_blocks,
        );
    }

    fn run_inner(&mut self, proc: &mut Process, tool: &mut dyn Tool, fuel: u64) -> RunOutcome {
        // A direct-ending block that just executed without a usable chain
        // link, waiting for its successor's slot to resolve: (slot, gen).
        let mut want_link: Option<(u32, u32)> = None;
        loop {
            if proc.cycles >= fuel {
                return RunOutcome::OutOfFuel;
            }
            // JIT writes invalidate the cache — links and traces included.
            if proc.mem.code_generation() != self.cache_gen {
                self.clear_cache_state();
                self.cache_gen = proc.mem.code_generation();
                want_link = None;
            }
            // Deliver dlopen events raised by the previous block.
            if !proc.events.is_empty() {
                let pending: Vec<ProcessEvent> = proc.events.drain(..).collect();
                for ev in pending {
                    let ProcessEvent::ModuleLoaded { id } = ev;
                    janitizer_telemetry::event!("dbt.module_load", id = id);
                    janitizer_telemetry::flight::record(
                        "dbt.module_load",
                        janitizer_telemetry::flight::NO_MODULE,
                        id as u64,
                        0,
                    );
                    tool.on_module_load(proc, id);
                }
            }

            let pc = proc.cpu.pc;
            // `slot` is `None` for an oversized translation: it executes
            // from the local `uncached` binding and is never cached.
            let mut uncached: Option<CachedBlock> = None;
            let slot = if let Some(&s) = self.index.get(&pc) {
                Some(s)
            } else {
                let block = match self.build_block(proc, pc) {
                    Ok(b) => b,
                    Err(f) => return RunOutcome::Fault(f),
                };
                let build_cost = self.opts.costs.block_build
                    + self.opts.costs.translate_per_insn * block.insns.len() as u64;
                proc.cycles += build_cost;
                self.stats.translation_cycles += build_cost;
                self.stats.blocks_translated += 1;
                janitizer_telemetry::histogram_record(
                    "dbt.block_insns",
                    block.insns.len() as u64,
                );
                janitizer_telemetry::event!(
                    "dbt.block_translated",
                    pc = pc,
                    insns = block.insns.len(),
                    cost = build_cost,
                );
                let cycles_before_instrument = proc.cycles;
                let mut items = tool.instrument_block(proc, &block);
                let tool_translate = proc.cycles - cycles_before_instrument;
                // Elision notes are observation-only markers. They are
                // stripped *before* the size guard below so oversized
                // classification is byte-identical whether or not a tool
                // emits them, and recorded (when profiling) so each
                // execution of the block can count its avoided checks.
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
                if items.len() > self.opts.max_tb_items {
                    // Translation-size guard: run it, don't cache it.
                    self.stats.oversized_blocks += 1;
                    janitizer_telemetry::event!(
                        "dbt.oversized_block",
                        pc = pc,
                        items = items.len(),
                    );
                    janitizer_telemetry::flight::record(
                        "dbt.oversized_block",
                        janitizer_telemetry::flight::NO_MODULE,
                        pc,
                        items.len() as u64,
                    );
                    uncached = Some(CachedBlock::new(items, u32::MAX));
                    None
                } else {
                    let hot = self.opts.trace_hot_threshold.max(1);
                    let s = self.alloc_slot(CachedBlock::new(items, hot));
                    self.index.insert(pc, s);
                    // The tool may have been the one to notice a module load
                    // (rule-file loading) — but cache generation may also have
                    // changed; re-check on the next loop iteration.
                    Some(s)
                }
            };

            // Resolve the pending chain link now that the successor's
            // slot is known. The first installed link wins; an oversized
            // successor or an evicted source simply leaves it unlinked.
            if let Some((ls, lgen)) = want_link.take() {
                if let Some(ts) = slot {
                    if self.slot_gens.get(ls as usize) == Some(&lgen) {
                        let tgen = self.slot_gens[ts as usize];
                        if let Some(Some(src)) = self.slots.get_mut(ls as usize) {
                            if src.link.is_none() {
                                src.link = Some(ChainLink { target: pc, slot: ts, gen: tgen });
                            }
                        }
                    }
                }
            }

            let mut cur_pc = pc;
            let mut cur_slot = slot;
            'chain: loop {
                // Hot-trace fast path: a superblock head executes its
                // whole trace without re-entering the dispatcher.
                if self.opts.traces {
                    if let Some(s) = cur_slot {
                        if let Some(sbid) = self.slots[s as usize].as_ref().and_then(|b| b.sb) {
                            match self.run_superblock(proc, sbid, fuel) {
                                SbExit::Outcome(o) => return o,
                                SbExit::Dispatch => break 'chain,
                            }
                        }
                    }
                }
                // Record the block in the execution trail before running
                // it, so the final trail entry is the block containing a
                // fault.
                if self.opts.trail_len > 0 {
                    self.push_trail(cur_pc);
                }
                // Execute the cached block. We temporarily take it out of
                // its slot so probes can borrow the engine-free process
                // state.
                let mut cached = match (uncached.take(), cur_slot) {
                    (Some(b), _) => b,
                    (None, Some(s)) => {
                        self.slots[s as usize].take().expect("indexed slot occupied")
                    }
                    (None, None) => unreachable!("block neither cached nor oversized"),
                };
                let res = self.exec_items(proc, &mut cached, cur_pc);
                if res.outcome.is_none() {
                    self.finish_transfer(proc, &mut cached, cur_pc, &res);
                }
                // Hot-trace candidacy: cheap always-on countdown, retried
                // periodically while the block stays unstitched.
                let mut attempt_form = false;
                if self.opts.traces
                    && cur_slot.is_some()
                    && res.outcome.is_none()
                    && cached.sb.is_none()
                {
                    cached.hot_countdown = cached.hot_countdown.saturating_sub(1);
                    if cached.hot_countdown == 0 {
                        cached.hot_countdown = self.opts.trace_hot_threshold.max(1);
                        attempt_form = true;
                    }
                }
                let link = cached.link;
                // Only put the block back when it was cached at all and
                // the cache was not invalidated mid-block (e.g. by a
                // guest write to JIT memory). Oversized blocks
                // (`cur_slot == None`) are simply dropped.
                if let Some(s) = cur_slot {
                    if proc.mem.code_generation() == self.cache_gen {
                        self.slots[s as usize] = Some(cached);
                    } else {
                        self.evict_slot(cur_pc, s);
                    }
                }
                if let Some(o) = res.outcome {
                    return o;
                }
                proc.cpu.pc = res.next_pc;
                if attempt_form && proc.mem.code_generation() == self.cache_gen {
                    if let Some(s) = cur_slot {
                        self.try_form_trace(cur_pc, s);
                    }
                }
                // Chain following is only for direct transfers with a
                // clean engine state; everything else goes back through
                // the dispatcher's loop-top checks.
                if !self.opts.traces
                    || res.ended_indirect
                    || proc.cycles >= fuel
                    || proc.mem.code_generation() != self.cache_gen
                    || !proc.events.is_empty()
                {
                    break 'chain;
                }
                let Some(s) = cur_slot else { break 'chain };
                match link {
                    Some(l)
                        if l.target == res.next_pc
                            && self.slot_gens.get(l.slot as usize) == Some(&l.gen)
                            && self.slots[l.slot as usize].is_some() =>
                    {
                        self.stats.chained_transfers += 1;
                        cur_pc = res.next_pc;
                        cur_slot = Some(l.slot);
                    }
                    Some(_) => break 'chain,
                    None => {
                        want_link = Some((s, self.slot_gens[s as usize]));
                        break 'chain;
                    }
                }
            }
        }
    }

    /// Executes one translated block against `proc`: each run of guest
    /// ops between two probes goes through the execution kernel, then
    /// the probe runs. Charges guest and probe costs and (when
    /// profiling) flushes the block's per-class profile row. Shared
    /// verbatim by the dispatcher, the chain-following loop and the
    /// superblock runner so every mode produces identical charges,
    /// reports and profile rows.
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
                    janitizer_telemetry::event!(
                        "dbt.violation",
                        kind = r.kind.as_str(),
                        pc = r.pc,
                    );
                    janitizer_telemetry::flight::record(
                        "dbt.violation",
                        janitizer_telemetry::flight::NO_MODULE,
                        r.pc,
                        0,
                    );
                    if self.stats.reports.len() < self.opts.max_reports {
                        let ctx = self.capture_context(proc, r.pc);
                        self.stats.contexts.push(ctx);
                        self.stats.reports.push(r.clone());
                    } else {
                        self.stats.reports_dropped += 1;
                        if self.stats.reports_dropped == 1 {
                            // First drop is the black-box trip:
                            // forensics is now lossy.
                            janitizer_telemetry::flight::trip(
                                "report-overflow",
                                janitizer_telemetry::flight::NO_MODULE,
                                r.pc,
                                self.opts.max_reports as u64,
                            );
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
            let EngineProfile { blocks, sites, elided, .. } = prof;
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
        ExecRes { outcome, next_pc, ended_indirect, ended_ret }
    }

    /// Charges the modeled dispatch cost of a completed block execution
    /// and records its edge and MRU-successor metadata. The indirect
    /// charge goes through the block's inlined single-entry target
    /// cache: a repeat target pays [`CostModel::chain_hit`], a new
    /// target pays the full [`CostModel::indirect_lookup`] and installs
    /// itself. Part of the cost model — identical with traces on or off.
    fn finish_transfer(&mut self, proc: &mut Process, cached: &mut CachedBlock, pc: u64, res: &ExecRes) {
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
        // MRU-successor tracking only feeds trace formation, which is
        // host-only; skip the bookkeeping entirely with traces off.
        if self.opts.traces {
            cached.note_successor(res.next_pc);
        }
    }

    /// Executes a formed superblock: the segments run back to back (and
    /// loop-back traces lap in place) without re-entering the dispatcher,
    /// re-checking the dispatcher's guards (fuel, cache generation,
    /// pending events) between segments so observable behavior is
    /// identical to block-at-a-time execution. Stale segments (generation
    /// mismatch after an eviction) tear the superblock down.
    fn run_superblock(&mut self, proc: &mut Process, sbid: u32, fuel: u64) -> SbExit {
        let mut first = true;
        'laps: loop {
            let nsegs = match self.sbs.get(sbid as usize).and_then(|s| s.as_ref()) {
                Some(sb) => sb.segs.len(),
                None => return SbExit::Dispatch,
            };
            let mut i = 0usize;
            while i < nsegs {
                let (seg, is_last, loop_back) = {
                    let sb = self.sbs[sbid as usize].as_ref().expect("sb checked above");
                    (sb.segs[i], i + 1 == sb.segs.len(), sb.loop_back)
                };
                if !first {
                    // Dispatcher-equivalent guards between segments.
                    if proc.cycles >= fuel {
                        proc.cpu.pc = seg.pc;
                        return SbExit::Outcome(RunOutcome::OutOfFuel);
                    }
                    if proc.mem.code_generation() != self.cache_gen
                        || !proc.events.is_empty()
                    {
                        proc.cpu.pc = seg.pc;
                        return SbExit::Dispatch;
                    }
                }
                first = false;
                // A stale segment (evicted or retranslated occupant)
                // invalidates the whole trace.
                if self.slot_gens.get(seg.slot as usize) != Some(&seg.gen)
                    || self.slots[seg.slot as usize].is_none()
                {
                    self.drop_superblock(sbid);
                    proc.cpu.pc = seg.pc;
                    return SbExit::Dispatch;
                }
                if self.opts.trail_len > 0 {
                    self.push_trail(seg.pc);
                }
                proc.cpu.pc = seg.pc;
                let mut cached = self.slots[seg.slot as usize].take().expect("validated");
                let res = self.exec_items(proc, &mut cached, seg.pc);
                if res.outcome.is_none() {
                    self.finish_transfer(proc, &mut cached, seg.pc, &res);
                }
                if proc.mem.code_generation() == self.cache_gen {
                    self.slots[seg.slot as usize] = Some(cached);
                } else {
                    self.evict_slot(seg.pc, seg.slot);
                }
                if let Some(o) = res.outcome {
                    return SbExit::Outcome(o);
                }
                proc.cpu.pc = res.next_pc;
                if res.ended_indirect {
                    // The trace's planned tail: the dispatcher resolves
                    // indirect targets.
                    return SbExit::Dispatch;
                }
                let expected = if !is_last {
                    Some(self.sbs[sbid as usize].as_ref().expect("sb alive").segs[i + 1].pc)
                } else if loop_back {
                    Some(self.sbs[sbid as usize].as_ref().expect("sb alive").segs[0].pc)
                } else {
                    None
                };
                match expected {
                    Some(e) if e == res.next_pc => {
                        self.stats.chained_transfers += 1;
                        if is_last {
                            continue 'laps;
                        }
                        i += 1;
                    }
                    Some(_) => {
                        // Side exit: a conditional went the other way.
                        self.stats.trace_exits += 1;
                        return SbExit::Dispatch;
                    }
                    None => return SbExit::Dispatch, // planned completion
                }
            }
            return SbExit::Dispatch;
        }
    }

    /// Tries to stitch a superblock from `head`'s dominant successor
    /// chain: follow each block's MRU successor while the streak is
    /// convincing, stopping at indirect-ending blocks, already-visited
    /// blocks, untranslated targets or the size cap. A chain whose tail
    /// branches back to the head becomes a loop-back trace (even with a
    /// single segment — a tight self-loop). Straight-line traces need at
    /// least two segments to be worth stitching.
    fn try_form_trace(&mut self, head_pc: u64, head_slot: u32) {
        const MIN_STREAK: u32 = 2;
        let max = self.opts.trace_max_blocks.max(1);
        let mut segs = vec![SbSeg {
            pc: head_pc,
            slot: head_slot,
            gen: self.slot_gens[head_slot as usize],
        }];
        let mut loop_back = false;
        let mut cur = head_slot;
        while let Some(b) = self.slots[cur as usize].as_ref() {
            if b.ends_indirect || b.streak < MIN_STREAK || b.last_next == NO_TARGET {
                break;
            }
            let next = b.last_next;
            if next == head_pc {
                loop_back = true;
                break;
            }
            if segs.len() >= max || segs.iter().any(|s| s.pc == next) {
                break;
            }
            let Some(&ns) = self.index.get(&next) else { break };
            segs.push(SbSeg { pc: next, slot: ns, gen: self.slot_gens[ns as usize] });
            cur = ns;
        }
        if !(loop_back || segs.len() >= 2) {
            return;
        }
        janitizer_telemetry::event!(
            "dbt.superblock_formed",
            head = head_pc,
            segs = segs.len(),
        );
        janitizer_telemetry::flight::record(
            "dbt.superblock_formed",
            janitizer_telemetry::flight::NO_MODULE,
            head_pc,
            segs.len() as u64,
        );
        let sb = Superblock { segs, loop_back };
        let id = match self.sb_free.pop() {
            Some(i) => {
                self.sbs[i as usize] = Some(sb);
                i
            }
            None => {
                self.sbs.push(Some(sb));
                (self.sbs.len() - 1) as u32
            }
        };
        self.slots[head_slot as usize]
            .as_mut()
            .expect("head block cached")
            .sb = Some(id);
        self.stats.superblocks_formed += 1;
    }

    /// Unlinks a superblock whose segments went stale.
    fn drop_superblock(&mut self, sbid: u32) {
        if let Some(sb) = self.sbs[sbid as usize].take() {
            if let Some(head) = sb.segs.first() {
                if self.slot_gens.get(head.slot as usize) == Some(&head.gen) {
                    if let Some(Some(b)) = self.slots.get_mut(head.slot as usize) {
                        b.sb = None;
                    }
                }
            }
            self.sb_free.push(sbid);
        }
    }

    /// Number of blocks currently in the code cache.
    pub fn cached_blocks(&self) -> usize {
        self.index.len()
    }

    /// Clears the code cache (tests and ablations), including chain
    /// links and superblocks.
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
        // With a tiny translation budget every block is oversized: the
        // program must still run to the same result, nothing may be
        // cached, and the guard must be visible in the stats.
        let mut p = proc_from(LOOP_SUM);
        let mut engine = Engine::new(EngineOptions {
            max_tb_items: 0,
            ..EngineOptions::default()
        });
        let out = engine.run(&mut p, &mut NullTool, 1_000_000);
        assert_eq!(out.code(), Some(55), "guard never changes semantics");
        assert_eq!(engine.cached_blocks(), 0, "nothing cached");
        assert!(engine.stats.oversized_blocks >= 10, "rebuilt per visit");

        // The default budget never triggers for ordinary programs.
        let mut p2 = proc_from(LOOP_SUM);
        let mut engine2 = Engine::new(EngineOptions::default());
        assert_eq!(engine2.run(&mut p2, &mut NullTool, 1_000_000).code(), Some(55));
        assert_eq!(engine2.stats.oversized_blocks, 0);
        assert!(engine2.cached_blocks() > 0);
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
            fn instrument_block(&mut self, _proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
                let mut items = Vec::new();
                let c = self.count.clone();
                items.push(TbItem::Probe(Probe::new(
                    5,
                    Box::new(move |_p| {
                        c.set(c.get() + 1);
                        ProbeResult::Ok
                    }),
                )));
                items.extend(
                    block
                        .insns
                        .iter()
                        .map(|&(pc, i, n)| TbItem::Guest(pc, i, n)),
                );
                items
            }
        }
        let count = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut tool = CountingTool { count: count.clone() };
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
            fn instrument_block(&mut self, _proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
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
                items.extend(block.insns.iter().map(|&(pc, i, n)| TbItem::Guest(pc, i, n)));
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
        struct Violator;
        impl Tool for Violator {
            fn name(&self) -> &str {
                "violator"
            }
            fn instrument_block(&mut self, _proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
                let mut items: Vec<TbItem> = vec![TbItem::Probe(Probe::new(
                    1,
                    Box::new(|p| {
                        ProbeResult::Violation(Report {
                            pc: p.cpu.pc,
                            kind: ViolationKind::Custom("test-violation"),
                            details: "boom".into(),
                        })
                    }),
                ))];
                items.extend(block.insns.iter().map(|&(pc, i, n)| TbItem::Guest(pc, i, n)));
                items
            }
        }
        let mut p = proc_from(LOOP_SUM);
        let mut engine = Engine::new(EngineOptions {
            halt_on_violation: false,
            max_reports: 3,
            ..EngineOptions::default()
        });
        let out = engine.run(&mut p, &mut Violator, 1_000_000);
        assert_eq!(out.code(), Some(55));
        assert_eq!(engine.stats.reports.len(), 3, "reports capped");
        assert_eq!(engine.stats.contexts.len(), 3, "contexts capped with reports");
        assert!(engine.stats.reports_dropped > 0, "overflow counted");

        // The cap does not change guest-visible execution: an uncapped
        // run reaches the same exit with the same cycle count.
        let mut p2 = proc_from(LOOP_SUM);
        let mut engine2 = Engine::new(EngineOptions {
            halt_on_violation: false,
            ..EngineOptions::default()
        });
        assert_eq!(engine2.run(&mut p2, &mut Violator, 1_000_000).code(), Some(55));
        assert_eq!(p.cycles, p2.cycles, "capture is observation-only");
    }

    #[test]
    fn violation_context_carries_trail_and_registers() {
        struct Violator;
        impl Tool for Violator {
            fn name(&self) -> &str {
                "violator"
            }
            fn instrument_block(&mut self, _proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
                let mut items: Vec<TbItem> =
                    block.insns.iter().map(|&(pc, i, n)| TbItem::Guest(pc, i, n)).collect();
                // Violate at the end of the block so several loop
                // iterations land in the trail first.
                items.push(TbItem::Probe(Probe::new(
                    1,
                    Box::new(|p| {
                        if p.insns > 30 {
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
        let mut p = proc_from(LOOP_SUM);
        let mut engine = Engine::new(EngineOptions {
            trail_len: 4,
            ..EngineOptions::default()
        });
        let out = engine.run(&mut p, &mut Violator, 1_000_000);
        assert!(matches!(out, RunOutcome::Violation(_)));
        let ctx = &engine.stats.contexts[0];
        assert_eq!(ctx.trail.len(), 4, "trail bounded by trail_len");
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
        let RunOutcome::Fault(f) = out else { panic!("expected fault: {out:?}") };
        assert!(matches!(f.kind, FaultKind::Mem(_)));
    }

    #[test]
    fn out_of_fuel() {
        let src = ".section text\n.global _start\n_start:\nspin:\n jmp spin\n";
        let mut p = proc_from(src);
        let mut engine = Engine::new(EngineOptions::default());
        assert_eq!(engine.run(&mut p, &mut NullTool, 5_000), RunOutcome::OutOfFuel);
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
            fn instrument_block(&mut self, _proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
                block
                    .insns
                    .iter()
                    .map(|&(pc, i, n)| TbItem::Guest(pc, i, n))
                    .collect()
            }
        }
        let loads = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut tool = LoadLog { loads: loads.clone() };
        let mut engine = Engine::new(EngineOptions::default());
        let out = engine.run(&mut p, &mut tool, 10_000_000);
        assert_eq!(out.code(), Some(9));
        let seen = loads.borrow();
        assert!(seen.contains(&"e".to_string()), "static module event");
        assert!(seen.contains(&"lib.so".to_string()), "dlopen event: {seen:?}");
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
            fn instrument_block(&mut self, _proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
                let mut items = Vec::new();
                for &(pc, i, n) in &block.insns {
                    if matches!(i, Instr::Nop) {
                        items.push(TbItem::Probe(Probe::new(
                            1,
                            Box::new(|p: &mut Process| {
                                p.cpu.set_reg(janitizer_isa::Reg::R2, 0xbad);
                                ProbeResult::Ok
                            }),
                        )));
                    }
                    items.push(TbItem::Guest(pc, i, n));
                }
                items
            }
        }
        let mut engine = Engine::new(EngineOptions::default());
        let out = engine.run(&mut p, &mut Clobber, 1_000_000);
        assert_eq!(out.code(), Some(0xbad), "probe clobber is architecturally real");
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
            fn instrument_block(&mut self, _proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
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
                items.extend(block.insns.iter().map(|&(pc, i, n)| TbItem::Guest(pc, i, n)));
                items
            }
        }

        // Notes must not change execution at all, profiling or not.
        let mut p_plain = proc_from(LOOP_SUM);
        let mut e_plain = Engine::new(EngineOptions::default());
        assert_eq!(e_plain.run(&mut p_plain, &mut Tagger, 1_000_000).code(), Some(55));

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
            assert_eq!(entry.execs, bp.execs, "one probe execution per block execution");
            assert_eq!(entry.cycles, bp.execs * 7);
            assert_eq!(entry.violations, 0);
            assert_eq!(bp.clean_call_cycles, bp.execs * 7, "clean-call class attribution");
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
        assert_eq!(site_cycles, engine.stats.probe_cycles, "site cycles cover all probes");
    }

    /// A hot call loop: direct-chainable blocks plus an indirect leaf
    /// return, so every trace mechanism fires.
    const HOT_CALL_LOOP: &str = ".section text\n.global _start\n_start:\n\
        mov r0, 0\n mov r2, 200\n\
        loop:\n call leaf\n add r0, r1\n sub r2, 1\n cmp r2, 0\n jne loop\n\
        mov r0, r0\n ret\n\
        leaf:\n mov r1, 2\n ret\n";

    #[test]
    fn traces_change_no_observable_state() {
        // Chaining and superblocks are a host-side execution strategy
        // only: the modeled cost — and therefore every observable
        // figure input — is identical with traces on and off.
        let mut p_on = proc_from(HOT_CALL_LOOP);
        let mut e_on = Engine::new(EngineOptions {
            trace_hot_threshold: 4,
            ..EngineOptions::default()
        });
        let out_on = e_on.run(&mut p_on, &mut NullTool, 10_000_000);

        let mut p_off = proc_from(HOT_CALL_LOOP);
        let mut e_off = Engine::new(EngineOptions {
            traces: false,
            ..EngineOptions::default()
        });
        let out_off = e_off.run(&mut p_off, &mut NullTool, 10_000_000);

        assert_eq!(out_on, out_off);
        assert_eq!(p_on.cycles, p_off.cycles, "traces never change modeled cost");
        assert_eq!(p_on.insns, p_off.insns);
        let (on, off) = (&e_on.stats, &e_off.stats);
        assert_eq!(on.guest_insns, off.guest_insns);
        assert_eq!(on.blocks_translated, off.blocks_translated);
        assert_eq!(on.translation_cycles, off.translation_cycles);
        assert_eq!(on.indirect_transfers, off.indirect_transfers);
        assert_eq!(on.indirect_chain_hits, off.indirect_chain_hits);
        assert_eq!(on.dispatch_cycles, off.dispatch_cycles);
        // ...but the host-side mechanisms really engaged.
        assert!(on.chained_transfers > 0, "direct transfers chained");
        assert!(on.superblocks_formed > 0, "hot chain stitched");
        assert_eq!(off.chained_transfers, 0);
        assert_eq!(off.superblocks_formed, 0);
        assert_eq!(off.trace_exits, 0);
    }

    #[test]
    fn superblock_run_reports_identically() {
        // A violating tool on a hot loop: the superblock path must
        // produce the same reports, contexts and cycles as
        // block-at-a-time execution.
        struct Violator;
        impl Tool for Violator {
            fn name(&self) -> &str {
                "violator"
            }
            fn instrument_block(&mut self, _proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
                let mut items: Vec<TbItem> =
                    block.insns.iter().map(|&(pc, i, n)| TbItem::Guest(pc, i, n)).collect();
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
        let mut p_sb = proc_from(HOT_CALL_LOOP);
        let mut e_sb = Engine::new(EngineOptions {
            trace_hot_threshold: 2,
            halt_on_violation: false,
            trail_len: 8,
            ..EngineOptions::default()
        });
        let out_sb = e_sb.run(&mut p_sb, &mut Violator, 10_000_000);
        assert!(e_sb.stats.superblocks_formed > 0, "hot loop stitched");

        let mut p_bb = proc_from(HOT_CALL_LOOP);
        let mut e_bb = Engine::new(EngineOptions {
            traces: false,
            halt_on_violation: false,
            trail_len: 8,
            ..EngineOptions::default()
        });
        let out_bb = e_bb.run(&mut p_bb, &mut Violator, 10_000_000);

        assert_eq!(out_sb, out_bb);
        assert_eq!(p_sb.cycles, p_bb.cycles);
        assert_eq!(e_sb.stats.reports, e_bb.stats.reports, "identical violations");
        assert_eq!(e_sb.stats.probe_runs, e_bb.stats.probe_runs);
        // Context snapshots (registers, trail) agree too: the trace
        // runner pushes the same per-block trail entries.
        assert_eq!(e_sb.stats.contexts.len(), e_bb.stats.contexts.len());
        for (a, b) in e_sb.stats.contexts.iter().zip(&e_bb.stats.contexts) {
            assert_eq!(a.pc, b.pc);
            assert_eq!(a.regs, b.regs);
            assert_eq!(a.trail, b.trail);
        }
    }

    #[test]
    fn jit_invalidation_unlinks_chains_and_traces() {
        // The JIT-write program from `jit_code_invalidates_cache`, but
        // with aggressive trace formation: generation checks must tear
        // down stale links and superblocks instead of executing stale
        // code.
        let src = ".section text\n.global _start\n_start:\n\
             mov r0, 3\n mov r1, 4096\n mov r2, 1\n syscall\n\
             mov r8, r0\n\
             mov r9, 0x12\n st1 [r8], r9\n\
             mov r9, 0\n st1 [r8+1], r9\n\
             mov r9, 123\n st4 [r8+2], r9\n\
             mov r9, 0x6c\n st1 [r8+6], r9\n\
             call r8\n ret\n";
        let mut p = proc_from(src);
        let mut engine = Engine::new(EngineOptions {
            trace_hot_threshold: 1,
            ..EngineOptions::default()
        });
        let out = engine.run(&mut p, &mut NullTool, 10_000_000);
        assert_eq!(out.code(), Some(123));

        // And a flush drops every trace structure: a rerun behaves like
        // a cold engine.
        let mut p1 = proc_from(HOT_CALL_LOOP);
        let mut e = Engine::new(EngineOptions {
            trace_hot_threshold: 2,
            ..EngineOptions::default()
        });
        let out1 = e.run(&mut p1, &mut NullTool, 10_000_000);
        assert!(e.stats.superblocks_formed > 0);
        e.flush_cache();
        assert_eq!(e.cached_blocks(), 0);
        let mut p2 = proc_from(HOT_CALL_LOOP);
        let out2 = e.run(&mut p2, &mut NullTool, 10_000_000);
        assert_eq!(out2, out1, "flush-then-rerun reproduces the cold run");
        assert_eq!(p2.cycles, p1.cycles);
    }

    #[test]
    fn oversized_blocks_never_chain_or_trace() {
        // Oversized blocks are rebuilt per visit and live outside the
        // cache, so they can never be a chain source, a chain target or
        // a trace segment — but execution must stay correct.
        let mut p = proc_from(HOT_CALL_LOOP);
        let mut engine = Engine::new(EngineOptions {
            max_tb_items: 0,
            trace_hot_threshold: 1,
            ..EngineOptions::default()
        });
        let out = engine.run(&mut p, &mut NullTool, 10_000_000);
        assert!(matches!(out, RunOutcome::Exited(_)));
        assert_eq!(engine.stats.chained_transfers, 0);
        assert_eq!(engine.stats.superblocks_formed, 0);
        assert!(engine.stats.oversized_blocks > 0);
    }

    #[test]
    fn hoisted_probe_accounting() {
        // Hoisted is a dynamically elided check — no cycles, no probe run.
        struct HoistTool;
        impl Tool for HoistTool {
            fn name(&self) -> &str {
                "hoist"
            }
            fn instrument_block(&mut self, _proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
                let mut items = vec![
                    TbItem::Probe(Probe::new(5, Box::new(|_| ProbeResult::Ok))),
                    TbItem::Probe(Probe::new(0, Box::new(|_| ProbeResult::Hoisted))),
                ];
                items.extend(block.insns.iter().map(|&(pc, i, n)| TbItem::Guest(pc, i, n)));
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
        assert_eq!(s.probe_runs, s.checks_hoisted, "hoisted hits are not probe runs");
        assert_eq!(s.probe_cycles, 5 * s.probe_runs, "hoisted probes charge nothing");
    }

    #[test]
    fn typed_checks_keep_tb_items_small() {
        // A shadow check is boxed, so it costs a translated block no more
        // than a callback probe does.
        assert!(std::mem::size_of::<TbItem>() <= 72);
    }
}
