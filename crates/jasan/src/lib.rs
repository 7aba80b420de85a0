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

use janitizer_core::{Probe, ProbeResult, Report, RuleId, SecurityPlugin, StaticContext};
use janitizer_dbt::{
    DecodedBlock, JasanContext, ProbeClass, ProbeSite, SiteOrigin, TbItem, ToolContext,
    DEFAULT_MAX_REPORTS,
};
use janitizer_isa::{Instr, MemSize, Reg, TLS_CANARY_OFFSET};
use janitizer_obj::Image;
use janitizer_rules::RewriteRule;
use janitizer_vm::Process;
use std::cell::{Cell, RefCell};
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
    /// Fuse adjacent checks on the same base register (small
    /// displacement deltas) into one widened shadow walk: the group
    /// lead precomputes every follower's verdict through a
    /// granule-memoized read, and followers consume it after verifying
    /// address + poison epoch. Host-side execution strategy only — the
    /// modeled cost, architectural effects and reports are identical
    /// with fusion on or off.
    pub fuse_checks: bool,
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
            fuse_checks: true,
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

/// How a shadow check is specialized by the static facts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CheckMode {
    /// Ordinary full check on every execution.
    Plain,
    /// Loop-invariant: cached verdict, cheap hit path (SCEV §3.3.2).
    Cached,
    /// Counted-loop invariant: check hoisted out of the loop — a hit
    /// costs nothing and has no architectural effects at all.
    Hoisted,
}

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

/// A follower verdict precomputed by a fused group's lead:
/// the address it was computed for, the first-granule shadow byte the
/// live sequence would read, the pass/fail verdict, and the poison
/// epoch (`Process::note_counter`) it is valid for.
#[derive(Clone, Copy)]
struct PreVal {
    addr: u64,
    sbyte: u64,
    pass: bool,
    epoch: u64,
}

/// Precomputed-verdict slots shared between a fused lead and its
/// residual followers (slot `k` belongs to follower `k`).
type GroupState = Rc<RefCell<Vec<Option<PreVal>>>>;

/// A check's place in a fused group.
enum CheckRole {
    /// Not fused: the ordinary standalone check.
    Solo,
    /// Group lead: runs its own check live and precomputes every
    /// follower through one granule-memoized shadow walk.
    Lead {
        state: GroupState,
        followers: Vec<janitizer_isa::MemRef>,
    },
    /// Group follower: consumes the lead's verdict when it verifiably
    /// matches this execution, falls back to the full live check
    /// otherwise.
    Residual { state: GroupState, index: usize },
}

/// Pre-lowering instrumentation plan: concrete items pass through,
/// checks carry their facts so the lowering pass can group them.
enum Planned {
    Item(TbItem),
    Guest(u64, Instr, u64),
    Check(CheckReq),
}

/// Capacity of a lead walk's shadow-read memo: a full group (8 members,
/// 64-byte disp span) touches well under this many distinct granules.
const MEMO_CAP: usize = 32;

/// Memoized 1-byte shadow read: within one lead walk, each shadow
/// granule is read from the VM at most once (a fixed-size buffer, so the
/// walk never allocates; shadow reads are pure, so an overflow simply
/// re-reads). `None` mirrors an unmapped-shadow read error.
fn memo_read(
    p: &mut Process,
    memo: &mut [(u64, Option<u64>); MEMO_CAP],
    len: &mut usize,
    saddr: u64,
) -> Option<u64> {
    if let Some(&(_, v)) = memo[..*len].iter().find(|(a, _)| *a == saddr) {
        return v;
    }
    let v = p.mem.read_int(saddr, 1).ok();
    if *len < MEMO_CAP {
        memo[*len] = (saddr, v);
        *len += 1;
    }
    v
}

/// Computes every follower's address, first shadow byte and verdict in
/// one memoized walk, mirroring [`shadow::check_access`] exactly
/// (including its treatment of unmapped shadow as clean). Observation
/// only: no register, flag or memory effects.
fn precompute_followers(p: &mut Process, state: &GroupState, followers: &[janitizer_isa::MemRef]) {
    let mut memo = [(0u64, None); MEMO_CAP];
    let mut memo_len = 0usize;
    let mut slots = state.borrow_mut();
    slots.clear();
    slots.resize(followers.len(), None);
    for (k, m) in followers.iter().enumerate() {
        let mut addr = p.cpu.reg(m.base).wrapping_add(m.disp as i64 as u64);
        if let Some(idx) = m.idx {
            addr = addr.wrapping_add(p.cpu.reg(idx) << m.scale);
        }
        let size = m.size.bytes();
        let sbyte = memo_read(p, &mut memo, &mut memo_len, shadow::shadow_addr(addr)).unwrap_or(0);
        let mut pass = true;
        let end = addr + size;
        let mut g = addr >> 3;
        while g << 3 < end {
            match memo_read(p, &mut memo, &mut memo_len, shadow::SHADOW_BASE + g) {
                // check_access treats an unmapped shadow granule as a
                // clean access and stops walking.
                None => break,
                Some(s) => {
                    let s = s as u8;
                    if s != 0 {
                        if s >= 0x80 {
                            pass = false;
                            break;
                        }
                        let g_start = g << 3;
                        let portion_end = end.min(g_start + 8) - g_start;
                        if portion_end > u64::from(s) {
                            pass = false;
                            break;
                        }
                    }
                }
            }
            g += 1;
        }
        slots[k] = Some(PreVal { addr, sbyte, pass, epoch: p.note_counter });
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
    /// Tool-side violation contexts recorded at check time, one per
    /// violation report, drained by the forensics layer. Shared with the
    /// check probes (which outlive `&mut self`).
    captures: Rc<RefCell<Vec<ToolContext>>>,
}

impl Jasan {
    /// Creates the plugin.
    pub fn new(opts: JasanOptions) -> Jasan {
        Jasan {
            opts,
            rt_range: None,
            checks_emitted: 0,
            captures: Rc::new(RefCell::new(Vec::new())),
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

    fn passthrough(block: &DecodedBlock) -> Vec<TbItem> {
        block
            .insns
            .iter()
            .map(|&(pc, i, n)| TbItem::Guest(pc, i, n))
            .collect()
    }

    /// Scratch selection: two registers, lowest dead first; missing
    /// ones are spilled to TLS slots (cost, but no clobber).
    /// Fixed preference order, as inline-instrumentation tools use:
    /// argument-class caller-saved registers first (they are most
    /// often dead mid-function), then the linker-scratch pair. The
    /// overlap with registers an `ipa-ra` caller may hold values in is
    /// exactly the hazard of paper §4.1.2.
    fn scratch_regs(&self, dead: u16) -> Vec<Reg> {
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
        let mut scratch: Vec<Reg> = Vec::new();
        if self.opts.use_liveness {
            for r in SCRATCH_PREF {
                if dead & r.bit() != 0 && scratch.len() < 2 {
                    scratch.push(r);
                }
            }
        }
        scratch
    }

    /// Register mask a check's inline sequence may clobber.
    fn scratch_mask(&self, dead: u16) -> u16 {
        self.scratch_regs(dead).iter().fold(0, |a, r| a | r.bit())
    }

    /// Builds the shadow-check probe for one memory access.
    ///
    /// `req.dead` is the mask of registers instrumentation may clobber;
    /// the probe architecturally consumes up to two of them (lowest
    /// first) unless it has to spill, and clobbers the flags unless it
    /// preserves them — making unsound liveness *visible* in guest
    /// results. `role` is the check's place in a fused group; fusion
    /// changes host-side work only, never charges or effects.
    fn make_check(&mut self, req: CheckReq, role: CheckRole) -> TbItem {
        self.checks_emitted += 1;
        janitizer_telemetry::counter_add("jasan.checks_emitted", 1);
        let m = req.insn.mem_access().expect("rule on a memory access");
        let scratch = self.scratch_regs(req.dead);
        let spills = 2 - scratch.len() as u64;
        let preserve_flags = !self.opts.use_liveness || req.flags_live;
        // Fallback-generated checks use the simpler per-block analysis
        // and a less tuned sequence (paper 3.4.3).
        let full_cost = CHECK_BASE_COST
            + spills * SPILL_COST
            + if preserve_flags { FLAGS_COST } else { 0 }
            + if req.fallback { 3 } else { 0 };
        let (base_cost, miss_extra) = match req.mode {
            CheckMode::Cached => (CACHED_HIT_COST, full_cost - CACHED_HIT_COST + 2),
            // Hoisted: the in-loop probe is free on a hit; a miss runs
            // (and charges) the full check, as the preheader copy would.
            CheckMode::Hoisted => (0, full_cost),
            CheckMode::Plain => (full_cost, 0),
        };
        let mode = req.mode;
        let pc = req.pc;
        let cache: Rc<Cell<Option<(u64, u64)>>> = Rc::new(Cell::new(None));
        let size = m.size.bytes();
        let captures = self.captures.clone();
        let run = Box::new(move |p: &mut Process| -> ProbeResult {
            let mut addr = p.cpu.reg(m.base).wrapping_add(m.disp as i64 as u64);
            if let Some(idx) = m.idx {
                addr = addr.wrapping_add(p.cpu.reg(idx) << m.scale);
            }
            match mode {
                // Hoisted hit: the check conceptually ran in the loop
                // preheader — no cost, no effects, dynamically elided.
                CheckMode::Hoisted if cache.get() == Some((addr, p.note_counter)) => {
                    return ProbeResult::Hoisted;
                }
                // Cached (loop-invariant) check: a hit skips the shadow
                // load.
                CheckMode::Cached if cache.get() == Some((addr, p.note_counter)) => {
                    if let Some(&s0) = scratch.first() {
                        p.cpu.set_reg(s0, addr);
                    }
                    return ProbeResult::Ok;
                }
                _ => {}
            }
            // Fused residual fast path: consume the lead's precomputed
            // verdict, but only when it verifiably matches this live
            // execution — same address, same poison epoch, and a
            // passing verdict. Anything else re-runs the full check so
            // reports and captures stay byte-identical.
            if let CheckRole::Residual { state, index } = &role {
                if let Some(pre) = state.borrow()[*index] {
                    if pre.addr == addr && pre.epoch == p.note_counter && pre.pass {
                        if let Some(&s0) = scratch.first() {
                            p.cpu.set_reg(s0, shadow::shadow_addr(addr));
                        }
                        if let Some(&s1) = scratch.get(1) {
                            p.cpu.set_reg(s1, pre.sbyte);
                        }
                        if !preserve_flags {
                            p.cpu.flags = janitizer_isa::Flags {
                                zf: pre.sbyte == 0,
                                sf: false,
                                cf: false,
                                of: false,
                            };
                        }
                        cache.set(Some((addr, p.note_counter)));
                        return ProbeResult::Ok;
                    }
                }
            }
            let first = p.mem.read_int(shadow::shadow_addr(addr), 1).ok();
            let shadow_byte = first.unwrap_or(0);
            // The inline sequence leaves its intermediates in the scratch
            // registers and its comparison result in the flags.
            if let Some(&s0) = scratch.first() {
                p.cpu.set_reg(s0, shadow::shadow_addr(addr));
            }
            if let Some(&s1) = scratch.get(1) {
                p.cpu.set_reg(s1, shadow_byte);
            }
            if !preserve_flags {
                p.cpu.flags = janitizer_isa::Flags {
                    zf: shadow_byte == 0,
                    sf: false,
                    cf: false,
                    of: false,
                };
            }
            // Fused lead: precompute every follower's verdict through
            // one granule-memoized shadow walk (observation only),
            // before its own verdict can cut the probe short.
            let fused = if let CheckRole::Lead { state, followers } = &role {
                precompute_followers(p, state, followers);
                followers.len() as u32
            } else {
                0
            };
            if let Some(kind) = shadow::check_access_from(p, addr, size, first.map(|v| v as u8)) {
                janitizer_telemetry::counter_add("jasan.violations", 1);
                // Record the faulting-access context for forensics —
                // observation only, bounded the same way the engine
                // bounds its report vector so indexes stay aligned.
                let mut caps = captures.borrow_mut();
                if caps.len() < DEFAULT_MAX_REPORTS {
                    caps.push(ToolContext::Jasan(JasanContext {
                        access_addr: addr,
                        access_size: size,
                        is_write: m.is_store,
                        shadow_byte: shadow_byte as u8,
                        rows: shadow::shadow_window(p, addr, 5),
                    }));
                }
                drop(caps);
                return ProbeResult::Violation(Report {
                    pc,
                    kind,
                    details: format!(
                        "{} of size {} at {:#x} (shadow {:#04x})",
                        if m.is_store { "WRITE" } else { "READ" },
                        size,
                        addr,
                        shadow_byte
                    ),
                });
            }
            cache.set(Some((addr, p.note_counter)));
            match mode {
                CheckMode::Cached | CheckMode::Hoisted => ProbeResult::Extra(miss_extra),
                CheckMode::Plain if fused > 0 => ProbeResult::Fused(fused),
                CheckMode::Plain => ProbeResult::Ok,
            }
        });
        TbItem::Probe(Probe {
            cost: base_cost,
            run,
            site: Some(ProbeSite {
                tool: "jasan",
                kind: "shadow-check",
                pc,
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
        let run = Box::new(move |p: &mut Process| -> ProbeResult {
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

    /// Lowers a planned instrumentation stream into translated-block
    /// items, grouping runs of fusible checks (same base register, same
    /// index and scale, displacement within ±64 of the lead, at most 8
    /// members) into lead + residual probes. A group is broken by any
    /// intervening write to a member's address registers (guest
    /// instruction defs or a member check's own scratch clobbers) and
    /// by any non-check probe (canary probes poison shadow and advance
    /// the epoch). Shared by the static and dynamic paths; with
    /// `fuse_checks` off, every check lowers to a standalone probe.
    fn lower(&mut self, planned: Vec<Planned>) -> Vec<TbItem> {
        // Pass 1: assign fusion roles.
        let mut roles: Vec<Option<CheckRole>> = (0..planned.len()).map(|_| None).collect();
        let mut group: Vec<usize> = Vec::new();
        let mut defs_mask: u16 = 0;
        let mut lead_mem: Option<janitizer_isa::MemRef> = None;

        fn finalize(group: &mut Vec<usize>, roles: &mut [Option<CheckRole>], planned: &[Planned]) {
            if group.len() >= 2 {
                let state: GroupState = Rc::new(RefCell::new(Vec::new()));
                let followers: Vec<janitizer_isa::MemRef> = group[1..]
                    .iter()
                    .map(|&i| {
                        let Planned::Check(req) = &planned[i] else {
                            unreachable!("group members are checks")
                        };
                        req.insn.mem_access().expect("check on a memory access")
                    })
                    .collect();
                roles[group[0]] = Some(CheckRole::Lead { state: state.clone(), followers });
                for (k, &i) in group[1..].iter().enumerate() {
                    roles[i] = Some(CheckRole::Residual { state: state.clone(), index: k });
                }
            }
            group.clear();
        }

        for (i, pl) in planned.iter().enumerate() {
            match pl {
                Planned::Guest(_, insn, _) => {
                    if !group.is_empty() {
                        defs_mask |= insn.defs();
                    }
                }
                Planned::Item(TbItem::Probe(_)) => {
                    finalize(&mut group, &mut roles, &planned);
                }
                Planned::Item(_) => {}
                Planned::Check(req) => {
                    if !self.opts.fuse_checks || req.mode != CheckMode::Plain {
                        finalize(&mut group, &mut roles, &planned);
                        continue; // stays Solo
                    }
                    let m = req.insn.mem_access().expect("check on a memory access");
                    let addr_regs = m.base.bit() | m.idx.map_or(0, |r| r.bit());
                    let joins = match lead_mem {
                        Some(lm) if !group.is_empty() => {
                            m.base == lm.base
                                && m.idx == lm.idx
                                && m.scale == lm.scale
                                && (i64::from(m.disp) - i64::from(lm.disp)).abs() <= 64
                                && group.len() < 8
                                && defs_mask & addr_regs == 0
                        }
                        _ => false,
                    };
                    if !joins {
                        finalize(&mut group, &mut roles, &planned);
                        lead_mem = Some(m);
                        defs_mask = self.scratch_mask(req.dead);
                    } else {
                        defs_mask |= self.scratch_mask(req.dead);
                    }
                    group.push(i);
                }
            }
        }
        finalize(&mut group, &mut roles, &planned);

        // Pass 2: construct the items in their original order.
        let mut items = Vec::with_capacity(planned.len());
        for (i, pl) in planned.into_iter().enumerate() {
            match pl {
                Planned::Item(t) => items.push(t),
                Planned::Guest(pc, insn, next) => items.push(TbItem::Guest(pc, insn, next)),
                Planned::Check(req) => {
                    let role = roles[i].take().unwrap_or(CheckRole::Solo);
                    items.push(self.make_check(req, role));
                }
            }
        }
        items
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
        // decoding wrongly. `hoist_invariants`/`fuse_checks` are
        // consume-side options — the rule bytes do not depend on them.
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
            ctx.invariants.iter().map(|i| (i.instr_addr, i.counted)).collect()
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
                    janitizer_telemetry::counter_add("jasan.checks_elided", 1);
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
        std::mem::take(&mut *self.captures.borrow_mut())
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
            return Self::passthrough(block);
        }
        let mut planned = Vec::new();
        for &(pc, insn, next) in &block.insns {
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
                        planned.push(Planned::Check(CheckReq {
                            pc,
                            insn,
                            dead,
                            flags_live,
                            mode,
                            fallback: false,
                        }));
                    }
                    RULE_POISON_CANARY => {
                        planned.push(Planned::Item(self.make_canary_probe(
                            pc,
                            rule.data[0] as i64 as i32,
                            true,
                            SiteOrigin::Static,
                        )));
                    }
                    RULE_UNPOISON_CANARY => {
                        planned.push(Planned::Item(self.make_canary_probe(
                            pc,
                            rule.data[0] as i64 as i32,
                            false,
                            SiteOrigin::Static,
                        )));
                    }
                    _ => {}
                }
            }
            // A memory access with no check rule was statically proven
            // safe (canary-exempt): record the elided site so the
            // profiler can count checks saved by static analysis.
            if insn.mem_access().is_some() && !checked {
                planned.push(Planned::Item(TbItem::Note(ProbeSite {
                    tool: "jasan",
                    kind: "shadow-check",
                    pc,
                    class: ProbeClass::Inline,
                    origin: SiteOrigin::Static,
                })));
            }
            planned.push(Planned::Guest(pc, insn, next));
        }
        self.lower(planned)
    }

    fn instrument_dynamic(&mut self, proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
        if self.in_rt(block.start) {
            return Self::passthrough(block);
        }
        // The fallback performs its per-block analysis at translation
        // time; charge that one-time work (paper 3.4.3: "simpler and
        // lightweight run-time analysis").
        proc.cycles += 20 * block.insns.len() as u64;
        // Per-block canary detection (the fallback sees one block at a
        // time): prologue store -> poison after it; epilogue re-check ->
        // unpoison before its load and exempt that load.
        let mut poison_after: Option<(usize, i32)> = None;
        let mut unpoison_before: Option<(usize, i32)> = None;
        let mut exempt_idx: Option<usize> = None;
        if self.opts.poison_canaries {
            for i in 0..block.insns.len().saturating_sub(1) {
                let (_, a, _) = block.insns[i];
                let (_, b, _) = block.insns[i + 1];
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
        let mut planned = Vec::new();
        for (i, &(pc, insn, next)) in block.insns.iter().enumerate() {
            if let Some((at, disp)) = unpoison_before {
                if i == at {
                    planned.push(Planned::Item(self.make_canary_probe(
                        pc,
                        disp,
                        false,
                        SiteOrigin::Dynamic,
                    )));
                }
            }
            let exempt = exempt_idx == Some(i);
            if insn.mem_access().is_some() && !exempt {
                // Conservative: no liveness — spill everything. The
                // fallback still fuses adjacent same-base checks; fusion
                // soundness does not depend on liveness information.
                planned.push(Planned::Check(CheckReq {
                    pc,
                    insn,
                    dead: 0,
                    flags_live: true,
                    mode: CheckMode::Plain,
                    fallback: true,
                }));
            }
            planned.push(Planned::Guest(pc, insn, next));
            if let Some((after, disp)) = poison_after {
                if i == after {
                    planned.push(Planned::Item(self.make_canary_probe(
                        pc,
                        disp,
                        true,
                        SiteOrigin::Dynamic,
                    )));
                }
            }
        }
        self.lower(planned)
    }
}
