//! # Baseline comparators
//!
//! Re-implementations of the *policies and cost structures* of the tools
//! the Janitizer paper compares against, on the same substrate:
//!
//! * [`Memcheck`] — Valgrind-style dynamic-only memory checking: heavy
//!   translation, clean-call-priced checks on every access, a 16-byte
//!   redzone allocator, **no** stack tracking (the source of its Juliet
//!   false negatives).
//! * [`Retrowrite`] — static-only binary ASan: zero run-time translation
//!   overhead and liveness-optimized checks, but **only applicable to
//!   position-independent, cleanly-reassembleable binaries**
//!   ([`retrowrite_applicable`]) and blind to `dlopen`ed/JIT code.
//! * [`CfiPolicy::BinCfi`] — static CFI with the weaker policies of Zhang & Sekar:
//!   forward targets are any scanned constant at an instruction boundary;
//!   returns may go to any call-preceded instruction (no shadow stack).
//!   Also refuses binaries whose code/data mix breaks reassembly.
//! * [`CfiPolicy::LockdownStrong`]/[`CfiPolicy::LockdownWeak`] — dynamic-only CFI on a lighter translator: precise
//!   shadow stack, strong-or-weak forward policy. The **strong** policy
//!   only allows inter-module calls to exported-and-imported symbols, so
//!   stack-passed callbacks (qsort comparators) raise false positives —
//!   the soundness failure of paper §6.2.2.

use janitizer_core::{Probe, ProbeResult, ProbeRun, Report, SecurityPlugin, StaticContext};
use janitizer_dbt::{
    CostModel, DecodedBlock, ProbeClass, ProbeSite, SiteOrigin, TbItem, ViolationKind,
};
use janitizer_isa::Instr;
use janitizer_jasan::{check_access, map_shadow, shadow_mapped};
use janitizer_jcfi::{CfiModuleInfo, CtiKind, SiteStat};
use janitizer_obj::Image;
use janitizer_rules::RewriteRule;
use janitizer_vm::Process;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

/// Module name of Memcheck's interposed allocator (16-byte redzones).
pub const MEMCHECK_RT: &str = "libmemcheck_rt.so";

/// Builds Memcheck's allocator runtime.
pub fn memcheck_runtime() -> Image {
    janitizer_jasan::runtime_module_with(MEMCHECK_RT, 16)
}

/// Valgrind-like engine costs: software MMU and heavyweight translation.
pub fn memcheck_costs() -> CostModel {
    CostModel {
        translate_per_insn: 220,
        block_build: 900,
        indirect_lookup: 30,
        chain_hit: 18,
        clean_call: 120,
    }
}

/// Lockdown's lighter translator (libdetox) costs.
pub fn lockdown_costs() -> CostModel {
    CostModel {
        translate_per_insn: 30,
        block_build: 180,
        indirect_lookup: 16,
        chain_hit: 6,
        clean_call: 100,
    }
}

/// Static rewriters run the program natively: no translation engine.
pub fn static_rewriter_costs() -> CostModel {
    CostModel {
        translate_per_insn: 0,
        block_build: 0,
        indirect_lookup: 0,
        chain_hit: 0,
        clean_call: 0,
    }
}

// ---------------------------------------------------------------------
// Memcheck (Valgrind-like)
// ---------------------------------------------------------------------

/// Valgrind/Memcheck-like dynamic-only memory checker.
///
/// Run it with `dynamic_only = true` and [`memcheck_costs`]; preload
/// [`MEMCHECK_RT`].
#[derive(Debug, Default)]
pub struct Memcheck {
    rt_range: Option<(u64, u64)>,
}

/// Per-access check priced as a clean call plus shadow-state work.
const MEMCHECK_CHECK_COST: u64 = 55;
/// Definedness-propagation cost added to every non-memory instruction.
const MEMCHECK_PROPAGATE_COST: u64 = 4;

impl Memcheck {
    /// Creates the tool.
    pub fn new() -> Memcheck {
        Memcheck::default()
    }
}

impl SecurityPlugin for Memcheck {
    fn name(&self) -> &str {
        "memcheck"
    }

    fn static_pass(&self, _image: &Image, _ctx: &StaticContext) -> Vec<RewriteRule> {
        Vec::new() // dynamic-only: there is no static pass
    }

    fn on_start(&mut self, proc: &mut Process) {
        if !shadow_mapped(&proc.mem) {
            map_shadow(&mut proc.mem).expect("shadow mapping");
        }
    }

    fn on_module_load(
        &mut self,
        proc: &mut Process,
        module_id: usize,
        _rules: Option<&janitizer_rules::RuleTable>,
    ) {
        let m = &proc.modules[module_id];
        if m.image.name == MEMCHECK_RT {
            self.rt_range = Some(m.range());
        }
    }

    fn instrument_static(
        &mut self,
        proc: &mut Process,
        block: &DecodedBlock,
        _rules: &janitizer_core::BlockRules<'_>,
    ) -> Vec<TbItem> {
        // Memcheck has no static mode; treat as dynamic.
        self.instrument_dynamic(proc, block)
    }

    fn instrument_dynamic(&mut self, _proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
        let in_rt = self
            .rt_range
            .map(|(lo, hi)| block.start >= lo && block.start < hi)
            .unwrap_or(false);
        let mut items = Vec::new();
        for &(pc, insn, next) in &block.insns {
            if !in_rt {
                if let Some(m) = insn.mem_access() {
                    let size = m.size.bytes();
                    items.push(TbItem::Probe(Probe {
                        site: Some(ProbeSite {
                            tool: "memcheck",
                            kind: "addr-check",
                            pc,
                            class: ProbeClass::CleanCall,
                            origin: SiteOrigin::Dynamic,
                        }),
                        cost: MEMCHECK_CHECK_COST,
                        run: ProbeRun::custom(move |p: &mut Process| {
                            let mut addr = p.cpu.reg(m.base).wrapping_add(m.disp as i64 as u64);
                            if let Some(idx) = m.idx {
                                addr = addr.wrapping_add(p.cpu.reg(idx) << m.scale);
                            }
                            // No stack tracking: Valgrind's addressability
                            // map treats the whole stack as valid.
                            if p.mem.region_label(addr) == Some("stack") {
                                return ProbeResult::Ok;
                            }
                            match check_access(p, addr, size) {
                                Some(kind) if kind != ViolationKind::StackBufferOverflow => {
                                    ProbeResult::Violation(Report {
                                        pc,
                                        kind,
                                        details: format!(
                                            "{} of size {size} at {addr:#x}",
                                            if m.is_store { "WRITE" } else { "READ" }
                                        ),
                                    })
                                }
                                _ => ProbeResult::Ok,
                            }
                        }),
                    }));
                } else if !insn.is_cti() {
                    // V-bit propagation through ALU state.
                    items.push(TbItem::Probe(Probe {
                        cost: MEMCHECK_PROPAGATE_COST,
                        run: ProbeRun::custom(|_| ProbeResult::Ok),
                        site: Some(ProbeSite {
                            tool: "memcheck",
                            kind: "vbit-propagate",
                            pc,
                            class: ProbeClass::CleanCall,
                            origin: SiteOrigin::Dynamic,
                        }),
                    }));
                }
            }
            items.push(TbItem::Guest(pc, insn, next));
        }
        items
    }
}

// ---------------------------------------------------------------------
// RetroWrite (static-only binary ASan)
// ---------------------------------------------------------------------

/// Why RetroWrite cannot process a binary.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RetrowriteError {
    /// The module is position-dependent; symbolization needs relocations.
    NotPic(String),
    /// Linear-sweep reassembly fails (data interleaved with code).
    ReassemblyUnsound(String),
}

impl std::fmt::Display for RetrowriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetrowriteError::NotPic(m) => {
                write!(f, "retrowrite: `{m}` is not position-independent")
            }
            RetrowriteError::ReassemblyUnsound(m) => {
                write!(f, "retrowrite: `{m}` does not reassemble cleanly")
            }
        }
    }
}

impl std::error::Error for RetrowriteError {}

/// Whether an image survives linear-sweep reassembly: every byte of every
/// code section must decode. Inline jump tables and other data-in-text
/// break this — the unsoundness static-only rewriting cannot avoid
/// (paper §2.1).
pub fn reassembly_sound(image: &Image) -> bool {
    // A *rebasing* relocation that patches bytes inside a code section is
    // data embedded in code (a PIC jump table in .text). Symbol
    // relocations in code are just symbolized immediates, which
    // reassembly handles fine.
    for rel in &image.dyn_relocs {
        if matches!(rel.target, janitizer_obj::DynTarget::Base(_))
            && image
                .section_containing(rel.offset)
                .map(|s| s.kind.is_code())
                .unwrap_or(false)
        {
            return false;
        }
    }
    for sec in image.code_sections() {
        let mut off = 0usize;
        while off < sec.data.len() {
            match janitizer_isa::decode(&sec.data, off) {
                Ok((_, next)) => off = next,
                Err(_) => return false,
            }
        }
    }
    true
}

/// Checks RetroWrite's applicability to a program (the main executable
/// and every statically-known module).
///
/// # Errors
///
/// Returns the first [`RetrowriteError`] encountered.
pub fn retrowrite_applicable(images: &[&Image]) -> Result<(), RetrowriteError> {
    for img in images {
        if !img.pic {
            return Err(RetrowriteError::NotPic(img.name.clone()));
        }
        if !reassembly_sound(img) {
            return Err(RetrowriteError::ReassemblyUnsound(img.name.clone()));
        }
    }
    Ok(())
}

/// RetroWrite-like static-only sanitizer: JASan's static instrumentation
/// (it uses the same liveness trick, paper footnote 10) with **no dynamic
/// fallback** — statically unseen code runs unchecked — and zero
/// translation overhead ([`static_rewriter_costs`]).
#[derive(Debug)]
pub struct Retrowrite {
    inner: janitizer_jasan::Jasan,
}

impl Retrowrite {
    /// Creates the tool.
    pub fn new() -> Retrowrite {
        Retrowrite {
            inner: janitizer_jasan::Jasan::hybrid(),
        }
    }
}

impl Default for Retrowrite {
    fn default() -> Retrowrite {
        Retrowrite::new()
    }
}

impl SecurityPlugin for Retrowrite {
    fn name(&self) -> &str {
        "retrowrite"
    }

    fn cache_key(&self) -> String {
        // The static pass is exactly JASan's, so share its cache slot.
        self.inner.cache_key()
    }

    fn static_pass(&self, image: &Image, ctx: &StaticContext) -> Vec<RewriteRule> {
        self.inner.static_pass(image, ctx)
    }

    fn on_start(&mut self, proc: &mut Process) {
        self.inner.on_start(proc);
    }

    fn on_module_load(
        &mut self,
        proc: &mut Process,
        module_id: usize,
        rules: Option<&janitizer_rules::RuleTable>,
    ) {
        self.inner.on_module_load(proc, module_id, rules);
    }

    fn instrument_static(
        &mut self,
        proc: &mut Process,
        block: &DecodedBlock,
        rules: &janitizer_core::BlockRules<'_>,
    ) -> Vec<TbItem> {
        self.inner.instrument_static(proc, block, rules)
    }

    fn instrument_dynamic(&mut self, _proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
        // The defining gap: statically-unseen code is left untouched.
        block
            .insns
            .iter()
            .map(|&(pc, i, n)| TbItem::Guest(pc, i, n))
            .collect()
    }
}

// ---------------------------------------------------------------------
// CFI baselines (BinCFI, Lockdown)
// ---------------------------------------------------------------------

/// Forward-edge policy of a CFI baseline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CfiPolicy {
    /// BinCFI: targets are any scanned constant at an instruction
    /// boundary; returns go to any call-preceded address; no shadow stack.
    BinCfi,
    /// Lockdown, strong: inter-module calls must target a symbol both
    /// exported by the callee module and imported by the caller module.
    LockdownStrong,
    /// Lockdown, weak: inter-module calls may target any exported symbol.
    LockdownWeak,
}

/// Shared state of a CFI baseline.
#[derive(Debug, Default)]
pub struct BaselineCfiState {
    infos: Vec<Option<CfiModuleInfo>>,
    /// Per-module set of imported-function addresses (resolved), for
    /// Lockdown's strong policy.
    imported: Vec<BTreeSet<u64>>,
    /// Shadow stack (Lockdown only).
    shadow: Vec<u64>,
    /// Executed indirect-CTI sites (for dynamic AIR). Ordered so the
    /// floating-point AIR mean accumulates in a deterministic order.
    pub sites: BTreeMap<u64, SiteStat>,
}

impl BaselineCfiState {
    /// Total executable bytes loaded.
    pub fn total_code_bytes(&self) -> u64 {
        self.infos
            .iter()
            .flatten()
            .map(|i| i.code_bytes)
            .sum::<u64>()
            .max(1)
    }

    /// Dynamic AIR over executed sites, in percent.
    pub fn dynamic_air(&self) -> f64 {
        let s = self.total_code_bytes() as f64;
        if self.sites.is_empty() {
            return 100.0;
        }
        let sum: f64 = self
            .sites
            .values()
            .map(|site| 1.0 - (site.allowed as f64 / s).min(1.0))
            .sum();
        sum / self.sites.len() as f64 * 100.0
    }
}

/// A CFI baseline plugin (BinCFI or Lockdown, selected by policy).
#[derive(Debug)]
pub struct CfiBaseline {
    /// Selected policy.
    pub policy: CfiPolicy,
    /// Shared state (exposed for AIR extraction).
    pub state: Rc<RefCell<BaselineCfiState>>,
    static_info: RefCell<HashMap<String, CfiModuleInfo>>,
}

impl CfiBaseline {
    /// Creates a baseline with the given policy.
    pub fn new(policy: CfiPolicy) -> CfiBaseline {
        CfiBaseline {
            policy,
            state: Rc::new(RefCell::new(BaselineCfiState::default())),
            static_info: RefCell::new(HashMap::new()),
        }
    }

    fn has_shadow_stack(&self) -> bool {
        matches!(
            self.policy,
            CfiPolicy::LockdownStrong | CfiPolicy::LockdownWeak
        )
    }

    /// Profiler identity of one baseline check site. These baselines are
    /// dynamic-only rewriters, so every site is [`SiteOrigin::Dynamic`];
    /// Lockdown instruments inline while BinCFI's trampolines behave
    /// like clean calls.
    fn site(&self, kind: &'static str, pc: u64) -> ProbeSite {
        ProbeSite {
            tool: match self.policy {
                CfiPolicy::BinCfi => "bincfi",
                CfiPolicy::LockdownStrong => "lockdown-strong",
                CfiPolicy::LockdownWeak => "lockdown-weak",
            },
            kind,
            pc,
            class: match self.policy {
                CfiPolicy::BinCfi => ProbeClass::CleanCall,
                _ => ProbeClass::Inline,
            },
            origin: SiteOrigin::Dynamic,
        }
    }

    fn forward_probe(&self, pc: u64, reg: janitizer_isa::Reg, kind: CtiKind) -> TbItem {
        let state = Rc::clone(&self.state);
        let policy = self.policy;
        TbItem::Probe(Probe {
            cost: match policy {
                // BinCFI routes transfers through address-translation
                // trampolines.
                CfiPolicy::BinCfi => 18,
                _ => 11,
            },
            run: ProbeRun::custom(move |p: &mut Process| {
                let target = p.cpu.reg(reg);
                let caller_mid = p.module_containing(pc).map(|m| m.id);
                let target_mid = p.module_containing(target).map(|m| m.id);
                let mut st = state.borrow_mut();
                let (ok, allowed_count) = match policy {
                    CfiPolicy::BinCfi => {
                        // Any scanned boundary constant anywhere, plus the
                        // dynamic-linking special cases BinCFI hard-codes
                        // (PLT stubs and exported symbols).
                        let ok = target_mid
                            .and_then(|id| st.infos.get(id).and_then(|i| i.as_ref()))
                            .map(|i| {
                                i.scanned_boundary_ptrs.contains(&target)
                                    || i.plt_stubs.contains(&target)
                                    || i.exported.contains(&target)
                            })
                            .unwrap_or(p.mem.region_label(target) == Some("jit"));
                        let count: u64 = st
                            .infos
                            .iter()
                            .flatten()
                            .map(|i| {
                                (i.scanned_boundary_ptrs.len()
                                    + i.plt_stubs.len()
                                    + i.exported.len()) as u64
                            })
                            .sum();
                        (ok, count.max(1))
                    }
                    CfiPolicy::LockdownStrong | CfiPolicy::LockdownWeak => {
                        let weak = policy == CfiPolicy::LockdownWeak;
                        let intra = caller_mid.is_some() && caller_mid == target_mid;
                        let info =
                            target_mid.and_then(|id| st.infos.get(id).and_then(|i| i.as_ref()));
                        let ok = match info {
                            None => p.mem.region_label(target) == Some("jit"),
                            Some(i) => {
                                if intra {
                                    i.functions.contains(&target) || i.plt_stubs.contains(&target)
                                } else if weak {
                                    i.exported.contains(&target) || i.functions.contains(&target)
                                } else {
                                    // Strong: exported by callee AND
                                    // imported by caller. Stack-passed
                                    // callbacks fail here (§6.2.2).
                                    // Lockdown ships its own secure
                                    // loader, so resolver machinery is
                                    // always legal.
                                    let is_loader = p
                                        .module_containing(target)
                                        .map(|m| m.image.name == "ld.so")
                                        .unwrap_or(false);
                                    is_loader
                                        || (i.exported.contains(&target)
                                            && caller_mid
                                                .and_then(|id| st.imported.get(id))
                                                .map(|s| s.contains(&target))
                                                .unwrap_or(false))
                                }
                            }
                        };
                        let count: u64 = st
                            .infos
                            .iter()
                            .enumerate()
                            .map(|(id, i)| {
                                let Some(i) = i.as_ref() else { return 0 };
                                if Some(id) == caller_mid {
                                    i.functions.len() as u64 + i.plt_stubs.len() as u64
                                } else if weak {
                                    (i.exported.len() + i.functions.len()) as u64
                                } else {
                                    caller_mid
                                        .and_then(|c| st.imported.get(c))
                                        .map(|s| s.len() as u64)
                                        .unwrap_or(0)
                                }
                            })
                            .sum();
                        (ok, count.max(1))
                    }
                };
                st.sites.insert(
                    pc,
                    SiteStat {
                        kind,
                        allowed: allowed_count,
                    },
                );
                if ok {
                    ProbeResult::Ok
                } else {
                    ProbeResult::Violation(Report {
                        pc,
                        kind: ViolationKind::CfiIcall,
                        details: format!("indirect transfer to {target:#x} denied by policy"),
                    })
                }
            }),
            site: Some(self.site("forward-check", pc)),
        })
    }

    fn ijmp_probe(&self, pc: u64, reg: janitizer_isa::Reg) -> TbItem {
        // Lockdown: any byte within the closest-symbol function.
        let state = Rc::clone(&self.state);
        TbItem::Probe(Probe {
            cost: 9,
            run: ProbeRun::custom(move |p: &mut Process| {
                let target = p.cpu.reg(reg);
                let mut st = state.borrow_mut();
                let info = p
                    .module_containing(pc)
                    .map(|m| m.id)
                    .and_then(|id| st.infos.get(id).and_then(|i| i.as_ref()));
                let (ok, count) = match info {
                    None => (true, 1),
                    Some(i) => {
                        let range = i.function_range_of(pc);
                        let ok = range
                            .map(|(lo, hi)| target >= lo && target < hi)
                            .unwrap_or(true)
                            || i.functions.contains(&target);
                        let count =
                            range.map(|(lo, hi)| hi - lo).unwrap_or(1) + i.functions.len() as u64;
                        (ok, count)
                    }
                };
                st.sites.insert(
                    pc,
                    SiteStat {
                        kind: CtiKind::Jump,
                        allowed: count,
                    },
                );
                if ok {
                    ProbeResult::Ok
                } else {
                    ProbeResult::Violation(Report {
                        pc,
                        kind: ViolationKind::CfiIjmp,
                        details: format!("indirect jump to {target:#x} outside function"),
                    })
                }
            }),
            site: Some(self.site("ijmp-check", pc)),
        })
    }

    fn ret_probe(&self, pc: u64) -> TbItem {
        let state = Rc::clone(&self.state);
        let policy = self.policy;
        TbItem::Probe(Probe {
            cost: match policy {
                // Returns pay BinCFI's hash lookup + trampoline.
                CfiPolicy::BinCfi => 30,
                _ => 5,
            },
            run: ProbeRun::custom(move |p: &mut Process| {
                let target = match p.mem.read_int(p.cpu.reg(janitizer_isa::Reg::R15), 8) {
                    Ok(t) => t,
                    Err(_) => return ProbeResult::Ok,
                };
                let mut st = state.borrow_mut();
                match policy {
                    CfiPolicy::BinCfi => {
                        // Any call-preceded address in any module.
                        let ok = st
                            .infos
                            .iter()
                            .flatten()
                            .any(|i| i.call_preceded.contains(&target))
                            || p.module_containing(target).is_none();
                        let count: u64 = st
                            .infos
                            .iter()
                            .flatten()
                            .map(|i| i.call_preceded.len() as u64)
                            .sum();
                        st.sites.insert(
                            pc,
                            SiteStat {
                                kind: CtiKind::Ret,
                                allowed: count.max(1),
                            },
                        );
                        if ok {
                            ProbeResult::Ok
                        } else {
                            ProbeResult::Violation(Report {
                                pc,
                                kind: ViolationKind::CfiReturn,
                                details: format!("return to non-call-preceded {target:#x}"),
                            })
                        }
                    }
                    _ => {
                        st.sites.insert(
                            pc,
                            SiteStat {
                                kind: CtiKind::Ret,
                                allowed: 1,
                            },
                        );
                        match st.shadow.pop() {
                            None => ProbeResult::Ok,
                            Some(e) if e == target => ProbeResult::Ok,
                            Some(e) => ProbeResult::Violation(Report {
                                pc,
                                kind: ViolationKind::CfiReturn,
                                details: format!("return to {target:#x}, expected {e:#x}"),
                            }),
                        }
                    }
                }
            }),
            site: Some(self.site("ret-check", pc)),
        })
    }

    fn push_probe(&self, pc: u64, ret_addr: u64) -> TbItem {
        let state = Rc::clone(&self.state);
        TbItem::Probe(Probe {
            cost: 4,
            run: ProbeRun::custom(move |_p| {
                state.borrow_mut().shadow.push(ret_addr);
                ProbeResult::Ok
            }),
            site: Some(self.site("shadow-push", pc)),
        })
    }

    fn instrument_common(
        &mut self,
        block: &DecodedBlock,
        info: Option<&CfiModuleInfo>,
    ) -> Vec<TbItem> {
        let mut items = Vec::new();
        for &(pc, insn, next) in &block.insns {
            match insn {
                Instr::Call { .. } | Instr::CallInd { .. } if self.has_shadow_stack() => {
                    items.push(self.push_probe(pc, next));
                }
                _ => {}
            }
            match insn {
                Instr::CallInd { rs } => items.push(self.forward_probe(pc, rs, CtiKind::Call)),
                Instr::JmpInd { rs } => {
                    let in_plt = info
                        .and_then(|i| i.plt_range)
                        .map(|(lo, hi)| pc >= lo && pc < hi)
                        .unwrap_or(false);
                    if self.policy == CfiPolicy::BinCfi || in_plt {
                        items.push(self.forward_probe(pc, rs, CtiKind::Jump));
                    } else {
                        items.push(self.ijmp_probe(pc, rs));
                    }
                }
                Instr::Ret => {
                    // Resolver rets: Lockdown ships a custom secure loader
                    // and BinCFI patches ld.so outright (paper 4.2.3), so
                    // both exempt the resolver idiom; we model the same.
                    let is_resolver = info.map(|i| i.resolver_rets.contains(&pc)).unwrap_or(false);
                    if !is_resolver {
                        items.push(self.ret_probe(pc));
                    }
                }
                _ => {}
            }
            items.push(TbItem::Guest(pc, insn, next));
        }
        items
    }
}

impl SecurityPlugin for CfiBaseline {
    fn name(&self) -> &str {
        match self.policy {
            CfiPolicy::BinCfi => "bincfi",
            CfiPolicy::LockdownStrong => "lockdown-strong",
            CfiPolicy::LockdownWeak => "lockdown-weak",
        }
    }

    fn static_pass(&self, image: &Image, ctx: &StaticContext) -> Vec<RewriteRule> {
        // Baselines are driven entirely by module metadata; the only use
        // of the static pass is to precompute and stash it (BinCFI's
        // offline phase / Lockdown computes it at load).
        self.static_info.borrow_mut().insert(
            image.name.clone(),
            CfiModuleInfo::from_image(image, Some(&ctx.cfg)),
        );
        Vec::new()
    }

    fn on_rules_cached(&self, image: &Image, ctx: &StaticContext) {
        // Replay the `static_pass` stash on cache hits so cached runs see
        // the same precomputed module metadata as fresh ones.
        self.static_info.borrow_mut().insert(
            image.name.clone(),
            CfiModuleInfo::from_image(image, Some(&ctx.cfg)),
        );
    }

    fn on_module_load(
        &mut self,
        proc: &mut Process,
        module_id: usize,
        _rules: Option<&janitizer_rules::RuleTable>,
    ) {
        let m = &proc.modules[module_id];
        let base_info = self
            .static_info
            .borrow()
            .get(&m.image.name)
            .cloned()
            .unwrap_or_else(|| CfiModuleInfo::from_image(&m.image, None));
        let rebased = base_info.rebase(m.base);
        // Lockdown strong: resolve the module's imports to addresses.
        let imported: BTreeSet<u64> = m
            .image
            .imported_functions()
            .filter_map(|name| proc.resolve_symbol(name))
            .collect();
        let mut st = self.state.borrow_mut();
        while st.infos.len() <= module_id {
            st.infos.push(None);
            st.imported.push(BTreeSet::new());
        }
        st.infos[module_id] = Some(rebased);
        st.imported[module_id] = imported;
    }

    fn instrument_static(
        &mut self,
        proc: &mut Process,
        block: &DecodedBlock,
        _rules: &janitizer_core::BlockRules<'_>,
    ) -> Vec<TbItem> {
        self.instrument_dynamic(proc, block)
    }

    fn instrument_dynamic(&mut self, proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
        let info = {
            let st = self.state.borrow();
            proc.module_containing(block.start)
                .map(|m| m.id)
                .and_then(|id| st.infos.get(id).and_then(|i| i.clone()))
        };
        self.instrument_common(block, info.as_ref())
    }
}

/// BinCFI's static AIR (Figure 13 methodology): forward targets are the
/// scanned boundary constants, returns the call-preceded set.
pub fn bincfi_static_air(images: &[&Image]) -> f64 {
    let infos: Vec<CfiModuleInfo> = images
        .iter()
        .map(|i| CfiModuleInfo::from_image(i, None))
        .collect();
    let s: u64 = infos.iter().map(|i| i.code_bytes).sum::<u64>().max(1);
    let fwd: u64 = infos
        .iter()
        .map(|i| i.scanned_boundary_ptrs.len() as u64)
        .sum();
    let rets: u64 = infos.iter().map(|i| i.call_preceded.len() as u64).sum();
    let mut terms = Vec::new();
    for image in images {
        let cfg = janitizer_analysis::analyze_module(image);
        for block in cfg.blocks.values() {
            for (_, insn) in &block.insns {
                let t = match insn {
                    Instr::CallInd { .. } | Instr::JmpInd { .. } => fwd.max(1),
                    Instr::Ret => rets.max(1),
                    _ => continue,
                };
                terms.push(1.0 - (t as f64 / s as f64).min(1.0));
            }
        }
    }
    if terms.is_empty() {
        100.0
    } else {
        terms.iter().sum::<f64>() / terms.len() as f64 * 100.0
    }
}
