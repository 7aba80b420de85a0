//! # JASan: the hybrid binary AddressSanitizer (paper §4.1)
//!
//! Detects memory-safety violations with ASan-style shadow memory and
//! redzones, implemented as a Janitizer [`SecurityPlugin`]:
//!
//! * **Heap**: full object protection. An LD_PRELOAD'ed guest allocator
//!   ([`runtime_module`]) surrounds every allocation with poisoned
//!   redzones and quarantines freed memory.
//! * **Stack**: frame-granularity protection via the compiler's canary —
//!   the static analyzer finds canary stores (Figure 6) and JASan poisons
//!   the canary slot after the prologue writes it, unpoisoning right
//!   before the epilogue re-checks it.
//! * **Checks**: every load/store is preceded by an inline shadow check.
//!   The **static pass** computes register and flag liveness so the
//!   dynamic modifier can skip dead spills (the hybrid-full optimization
//!   of Figure 8); the **dynamic fallback** instruments statically-unseen
//!   blocks conservatively, saving and restoring everything.
//!
//! The inline check genuinely consumes its scratch registers on guest
//! state, so the `ipa-ra` liveness hazard of §4.1.2 is architecturally
//! real here: disable [`JasanOptions::interprocedural_fix`] and programs
//! compiled with MiniC's `ipa_ra` option break — enable it and the
//! callee-side inbound-liveness analysis keeps them working.

mod rt;
mod shadow;

pub use rt::{runtime_module, runtime_module_with, RT_MODULE};
pub use shadow::{
    check_access, classify_poison, map_shadow, poison_range, shadow_addr, shadow_byte_label,
    shadow_mapped, shadow_window, unpoison_range, POISON_HEAP_FREED, POISON_HEAP_REDZONE,
    POISON_STACK_CANARY, SHADOW_BASE,
};

use janitizer_core::{Probe, ProbeResult, ProbeRun, Report, RuleId, SecurityPlugin, StaticContext};
use janitizer_dbt::{
    CheckMode, DecodedBlock, JasanContext, ProbeClass, ProbeSite, ShadowCheck, ShadowReporter,
    ShadowViolation, SiteOrigin, TbItem, ToolContext, MAX_REPORTS,
};
use janitizer_isa::{Instr, MemSize, Reg, TLS_CANARY_OFFSET};
use janitizer_obj::Image;
use janitizer_rules::RewriteRule;
use janitizer_vm::Process;
use std::cell::RefCell;
use std::rc::Rc;

/// Rule: instrument the memory access at this instruction.
/// `data[0]` packs the dead-register mask (bits 0–15) and the
/// flags-live bit (bit 16). `data[1]` bit 0 marks loop-invariant
/// accesses eligible for cached checks; bit 1 additionally marks
/// accesses invariant in a *counted* loop (recognized induction
/// variable), eligible for hoisting the check out of the loop.
pub const RULE_MEM_ACCESS: RuleId = 1;
/// Rule: poison the canary slot; `data[0]` holds the fp displacement
/// (as i64).
pub const RULE_POISON_CANARY: RuleId = 2;
/// Rule: unpoison the canary slot before the epilogue check load.
pub const RULE_UNPOISON_CANARY: RuleId = 3;

/// JASan configuration; the defaults give the paper's "JASan-hybrid
/// (full)" configuration.
#[derive(Clone, Copy, Debug)]
pub struct JasanOptions {
    /// Use static liveness to elide dead spills and flag preservation
    /// (off = the conservative "hybrid (base)" of Figure 8).
    pub use_liveness: bool,
    /// Apply the inter-procedural fix for `ipa-ra`-style convention
    /// breaks (§4.1.2). Disabling it reproduces the soundness bug.
    pub interprocedural_fix: bool,
    /// Demote loop-invariant checks to cached checks (SCEV, §3.3.2).
    pub cached_checks: bool,
    /// Hoist checks that are invariant in a *counted* loop out of the
    /// loop body entirely: the in-loop probe costs zero on a cache hit
    /// (the check conceptually lives in the preheader) and re-runs the
    /// full check whenever the address or poison epoch changed.
    /// Requires `cached_checks`; part of the cost model, so it is
    /// always-on in both the traced and non-traced engine.
    pub hoist_invariants: bool,
    /// Poison stack canaries (frame-granularity stack protection).
    pub poison_canaries: bool,
}

impl Default for JasanOptions {
    fn default() -> JasanOptions {
        JasanOptions {
            use_liveness: true,
            interprocedural_fix: true,
            cached_checks: true,
            hoist_invariants: true,
            poison_canaries: true,
        }
    }
}

/// Inline fast-path cost of a shadow check with no spills and no flag
/// preservation: lea, mov, shr, 1-byte load, cmp, branch.
const CHECK_BASE_COST: u64 = 10;
/// Cost of spilling + restoring one scratch register to TLS.
const SPILL_COST: u64 = 3;
/// Cost of preserving the flags around the check.
const FLAGS_COST: u64 = 3;
/// Fast-path cost of a cached (loop-invariant) check.
const CACHED_HIT_COST: u64 = 4;
/// Inline cost of canary poison/unpoison instrumentation.
const CANARY_COST: u64 = 5;

/// One shadow check to build: the instruction, the liveness facts the
/// static pass proved, and the specialization mode.
#[derive(Clone, Copy)]
struct CheckReq {
    pc: u64,
    insn: Instr,
    dead: u16,
    flags_live: bool,
    mode: CheckMode,
    fallback: bool,
}

/// Tool-side violation contexts recorded by failed checks, one per
/// violation report, drained by the forensics layer.
#[derive(Debug, Default)]
struct Captures(RefCell<Vec<ToolContext>>);

impl ShadowReporter for Captures {
    fn report(&self, p: &mut Process, v: &ShadowViolation) -> Report {
        // Record the faulting-access context for forensics — observation
        // only, bounded the same way the engine bounds its report vector
        // so indexes stay aligned.
        let mut caps = self.0.borrow_mut();
        if caps.len() < MAX_REPORTS {
            caps.push(ToolContext::Jasan(JasanContext {
                access_addr: v.addr,
                access_size: v.size,
                is_write: v.is_store,
                shadow_byte: v.shadow_byte,
                rows: shadow::shadow_window(p, v.addr, 5),
            }));
        }
        Report {
            pc: v.pc,
            kind: v.kind,
            details: format!(
                "{} of size {} at {:#x} (shadow {:#04x})",
                if v.is_store { "WRITE" } else { "READ" },
                v.size,
                v.addr,
                v.shadow_byte
            ),
        }
    }
}

/// The JASan plugin.
#[derive(Debug)]
pub struct Jasan {
    /// Configuration.
    pub opts: JasanOptions,
    /// Runtime-module range, excluded from instrumentation (ASan does not
    /// sanitize its own runtime).
    rt_range: Option<(u64, u64)>,
    /// Number of shadow-check probes emitted (diagnostics).
    pub checks_emitted: u64,
    /// Violation contexts, shared with the checks (which outlive
    /// `&mut self`) as their [`ShadowReporter`].
    captures: Rc<Captures>,
}

impl Jasan {
    /// Creates the plugin.
    pub fn new(opts: JasanOptions) -> Jasan {
        Jasan {
            opts,
            rt_range: None,
            checks_emitted: 0,
            captures: Rc::default(),
        }
    }

    /// The paper's JASan-hybrid (full) configuration.
    pub fn hybrid() -> Jasan {
        Jasan::new(JasanOptions::default())
    }

    /// The conservative hybrid configuration of Figure 8 ("base"): rules
    /// from the static pass, but no liveness optimization.
    pub fn hybrid_base() -> Jasan {
        Jasan::new(JasanOptions {
            use_liveness: false,
            cached_checks: false,
            ..JasanOptions::default()
        })
    }

    fn in_rt(&self, addr: u64) -> bool {
        self.rt_range
            .map(|(lo, hi)| addr >= lo && addr < hi)
            .unwrap_or(false)
    }

    /// Scratch selection: two registers, lowest dead first; missing
    /// ones are spilled to TLS slots (cost, but no clobber).
    /// Fixed preference order, as inline-instrumentation tools use:
    /// argument-class caller-saved registers first (they are most
    /// often dead mid-function), then the linker-scratch pair. The
    /// overlap with registers an `ipa-ra` caller may hold values in is
    /// exactly the hazard of paper §4.1.2.
    fn scratch_regs(&self, dead: u16) -> [Option<Reg>; 2] {
        const SCRATCH_PREF: [Reg; 8] = [
            Reg::R5,
            Reg::R4,
            Reg::R3,
            Reg::R2,
            Reg::R6,
            Reg::R7,
            Reg::R1,
            Reg::R0,
        ];
        if !self.opts.use_liveness {
            return [None; 2];
        }
        let mut free = SCRATCH_PREF.into_iter().filter(|r| dead & r.bit() != 0);
        [free.next(), free.next()]
    }

    /// Builds the shadow-check probe for one memory access.
    ///
    /// `req.dead` is the mask of registers instrumentation may clobber;
    /// the check architecturally consumes up to two of them (lowest
    /// first) unless it has to spill, and clobbers the flags unless it
    /// preserves them — making unsound liveness *visible* in guest
    /// results.
    fn make_check(&mut self, req: CheckReq) -> TbItem {
        self.checks_emitted += 1;
        let mem = req.insn.mem_access().expect("rule on a memory access");
        let scratch = self.scratch_regs(req.dead);
        let spills = scratch.iter().filter(|r| r.is_none()).count() as u64;
        let preserve_flags = !self.opts.use_liveness || req.flags_live;
        // Fallback-generated checks use the simpler per-block analysis
        // and a less tuned sequence (paper 3.4.3).
        let full_cost = CHECK_BASE_COST
            + spills * SPILL_COST
            + if preserve_flags { FLAGS_COST } else { 0 }
            + if req.fallback { 3 } else { 0 };
        let (cost, miss_extra) = match req.mode {
            CheckMode::Cached => (CACHED_HIT_COST, full_cost - CACHED_HIT_COST + 2),
            // Hoisted: the in-loop probe is free on a hit; a miss runs
            // (and charges) the full check, as the preheader copy would.
            CheckMode::Hoisted => (0, full_cost),
            CheckMode::Plain => (full_cost, 0),
        };
        let check = ShadowCheck {
            pc: req.pc,
            mem,
            scratch,
            preserve_flags,
            mode: req.mode,
            miss_extra,
            cache: None,
            reporter: self.captures.clone(),
        };
        TbItem::Probe(Probe {
            cost,
            run: ProbeRun::ShadowCheck(Box::new(check)),
            site: Some(ProbeSite {
                tool: "jasan",
                kind: "shadow-check",
                pc: req.pc,
                class: ProbeClass::Inline,
                origin: if req.fallback {
                    SiteOrigin::Dynamic
                } else {
                    SiteOrigin::Static
                },
            }),
        })
    }

    fn make_canary_probe(&self, pc: u64, fp_disp: i32, poison: bool, origin: SiteOrigin) -> TbItem {
        let run = ProbeRun::custom(move |p: &mut Process| -> ProbeResult {
            let slot = p.cpu.reg(Reg::FP).wrapping_add(fp_disp as i64 as u64);
            if poison {
                shadow::poison_range(p, slot, 8, shadow::POISON_STACK_CANARY);
            } else {
                shadow::unpoison_range(p, slot & !7, 8);
            }
            p.note_counter += 1;
            ProbeResult::Ok
        });
        TbItem::Probe(Probe {
            cost: CANARY_COST,
            run,
            site: Some(ProbeSite {
                tool: "jasan",
                kind: if poison {
                    "canary-poison"
                } else {
                    "canary-unpoison"
                },
                pc,
                class: ProbeClass::Inline,
                origin,
            }),
        })
    }
}

impl SecurityPlugin for Jasan {
    fn name(&self) -> &str {
        "jasan"
    }

    fn cache_key(&self) -> String {
        // The emitted rules depend on the options (liveness payloads,
        // cached-check eligibility, canary rules), so each configuration
        // caches separately. The version prefix is bumped whenever the
        // rule payload encoding changes (jasan2: data[1] grew the
        // counted-loop bit), so stale store entries miss instead of
        // decoding wrongly. `hoist_invariants` is a consume-side option
        // — the rule bytes do not depend on it.
        format!(
            "jasan2:l{}i{}c{}p{}",
            self.opts.use_liveness as u8,
            self.opts.interprocedural_fix as u8,
            self.opts.cached_checks as u8,
            self.opts.poison_canaries as u8
        )
    }

    fn static_pass(&self, image: &Image, ctx: &StaticContext) -> Vec<RewriteRule> {
        if image.name == RT_MODULE {
            return Vec::new(); // never instrument the sanitizer runtime
        }
        let mut rules = Vec::new();
        let exempt = janitizer_analysis::canary_exempt_addrs(&ctx.canaries);
        // instr_addr -> invariant in a *counted* loop (hoistable).
        let invariant: std::collections::HashMap<u64, bool> = if self.opts.cached_checks {
            ctx.invariants
                .iter()
                .map(|i| (i.instr_addr, i.counted))
                .collect()
        } else {
            Default::default()
        };
        for block in ctx.cfg.blocks.values() {
            for (addr, insn) in &block.insns {
                if insn.mem_access().is_none() {
                    continue;
                }
                if exempt.binary_search(addr).is_ok() {
                    // Canary accesses are guarded by poisoning, not checks.
                    continue;
                }
                let mut dead = ctx.liveness.dead_regs_at(*addr, insn);
                if self.opts.interprocedural_fix {
                    // Registers live across an in-module call into this
                    // function (ipa-ra) are not actually dead here.
                    if let Some(f) = ctx.cfg.function_containing(*addr) {
                        if let Some(inbound) = ctx.liveness.inbound.get(&f.entry) {
                            dead &= !*inbound;
                        }
                    }
                }
                let flags_live = ctx.liveness.flags_live_at(*addr);
                let packed = dead as u64 | (u64::from(flags_live) << 16);
                let inv_bits = match invariant.get(addr) {
                    None => 0u64,
                    Some(false) => 1,
                    Some(true) => 1 | 2,
                };
                rules.push(
                    RewriteRule::new(RULE_MEM_ACCESS, block.start, *addr)
                        .with_data(0, packed)
                        .with_data(1, inv_bits),
                );
            }
        }
        if self.opts.poison_canaries {
            for site in &ctx.canaries {
                let poison_bb = ctx
                    .cfg
                    .block_containing(site.poison_at)
                    .map(|b| b.start)
                    .unwrap_or(site.poison_at);
                rules.push(
                    RewriteRule::new(RULE_POISON_CANARY, poison_bb, site.poison_at)
                        .with_data(0, site.slot_disp as i64 as u64),
                );
                let unpoison_bb = ctx
                    .cfg
                    .block_containing(site.check_load_addr)
                    .map(|b| b.start)
                    .unwrap_or(site.check_load_addr);
                rules.push(
                    RewriteRule::new(RULE_UNPOISON_CANARY, unpoison_bb, site.check_load_addr)
                        .with_data(0, site.slot_disp as i64 as u64),
                );
            }
        }
        rules
    }

    fn on_start(&mut self, proc: &mut Process) {
        if !shadow::shadow_mapped(&proc.mem) {
            shadow::map_shadow(&mut proc.mem).expect("shadow mapping");
        }
    }

    fn take_violation_contexts(&mut self) -> Vec<ToolContext> {
        std::mem::take(&mut *self.captures.0.borrow_mut())
    }

    fn on_module_load(
        &mut self,
        proc: &mut Process,
        module_id: usize,
        _rules: Option<&janitizer_rules::RuleTable>,
    ) {
        let m = &proc.modules[module_id];
        if m.image.name == RT_MODULE {
            self.rt_range = Some(m.range());
        }
    }

    fn instrument_static(
        &mut self,
        _proc: &mut Process,
        block: &DecodedBlock,
        rules: &janitizer_core::BlockRules<'_>,
    ) -> Vec<TbItem> {
        if self.in_rt(block.start) {
            return block.passthrough();
        }
        let mut items = Vec::new();
        for &op in &block.ops {
            let (pc, insn) = (op.pc, op.insn);
            let mut checked = false;
            for rule in rules.rules_for(pc) {
                match rule.id {
                    RULE_MEM_ACCESS => {
                        let dead = (rule.data[0] & 0xffff) as u16;
                        let flags_live = rule.data[0] >> 16 & 1 != 0;
                        let bits = rule.data[1];
                        let mode = if bits & 2 != 0
                            && self.opts.cached_checks
                            && self.opts.hoist_invariants
                        {
                            CheckMode::Hoisted
                        } else if bits & 1 != 0 && self.opts.cached_checks {
                            CheckMode::Cached
                        } else {
                            CheckMode::Plain
                        };
                        checked = true;
                        items.push(self.make_check(CheckReq {
                            pc,
                            insn,
                            dead,
                            flags_live,
                            mode,
                            fallback: false,
                        }));
                    }
                    RULE_POISON_CANARY => {
                        items.push(self.make_canary_probe(
                            pc,
                            rule.data[0] as i64 as i32,
                            true,
                            SiteOrigin::Static,
                        ));
                    }
                    RULE_UNPOISON_CANARY => {
                        items.push(self.make_canary_probe(
                            pc,
                            rule.data[0] as i64 as i32,
                            false,
                            SiteOrigin::Static,
                        ));
                    }
                    _ => {}
                }
            }
            // A memory access with no check rule was statically proven
            // safe (canary-exempt): record the elided site so the
            // profiler can count checks saved by static analysis.
            if insn.mem_access().is_some() && !checked {
                items.push(TbItem::Note(ProbeSite {
                    tool: "jasan",
                    kind: "shadow-check",
                    pc,
                    class: ProbeClass::Inline,
                    origin: SiteOrigin::Static,
                }));
            }
            items.push(TbItem::Guest(op));
        }
        items
    }

    fn instrument_dynamic(&mut self, proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
        if self.in_rt(block.start) {
            return block.passthrough();
        }
        // The fallback performs its per-block analysis at translation
        // time; charge that one-time work (paper 3.4.3: "simpler and
        // lightweight run-time analysis").
        proc.cycles += 20 * block.ops.len() as u64;
        // Per-block canary detection (the fallback sees one block at a
        // time): prologue store -> poison after it; epilogue re-check ->
        // unpoison before its load and exempt that load.
        let mut poison_after: Option<(usize, i32)> = None;
        let mut unpoison_before: Option<(usize, i32)> = None;
        let mut exempt_idx: Option<usize> = None;
        if self.opts.poison_canaries {
            for (i, w) in block.ops.windows(2).enumerate() {
                let (a, b) = (w[0].insn, w[1].insn);
                if let (
                    Instr::RdTls { rd, off },
                    Instr::St {
                        size: MemSize::B8,
                        rs,
                        base: Reg::FP,
                        disp,
                    },
                ) = (a, b)
                {
                    if off == TLS_CANARY_OFFSET && rd == rs && disp < 0 {
                        // Is this a prologue store or an epilogue check?
                        // Epilogues *load*; this is a store, so: prologue.
                        poison_after = Some((i + 1, disp));
                    }
                }
                if let (
                    Instr::RdTls { off, .. },
                    Instr::Ld {
                        size: MemSize::B8,
                        base: Reg::FP,
                        disp,
                        ..
                    },
                ) = (a, b)
                {
                    if off == TLS_CANARY_OFFSET && disp < 0 {
                        unpoison_before = Some((i + 1, disp));
                        exempt_idx = Some(i + 1);
                    }
                }
            }
        }
        let mut items = Vec::new();
        for (i, &op) in block.ops.iter().enumerate() {
            let (pc, insn) = (op.pc, op.insn);
            if let Some((at, disp)) = unpoison_before {
                if i == at {
                    items.push(self.make_canary_probe(pc, disp, false, SiteOrigin::Dynamic));
                }
            }
            let exempt = exempt_idx == Some(i);
            if insn.mem_access().is_some() && !exempt {
                // Conservative: no liveness — spill everything.
                items.push(self.make_check(CheckReq {
                    pc,
                    insn,
                    dead: 0,
                    flags_live: true,
                    mode: CheckMode::Plain,
                    fallback: true,
                }));
            }
            items.push(TbItem::Guest(op));
            if let Some((after, disp)) = poison_after {
                if i == after {
                    items.push(self.make_canary_probe(pc, disp, true, SiteOrigin::Dynamic));
                }
            }
        }
        items
    }
}
