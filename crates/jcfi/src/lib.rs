//! # JCFI: hybrid control-flow integrity for binaries (paper §4.2)
//!
//! Policies:
//!
//! * **Forward edges** — indirect calls may target function entries:
//!   within the caller's module, any known function or PLT stub; across
//!   modules, exported functions plus *address-taken* functions found by
//!   scanning the raw binary (so unexported callbacks like `qsort`
//!   comparators stay legal, unlike Lockdown's heuristics — §6.2.2).
//!   Indirect jumps may stay inside their function (at instruction
//!   boundaries when static analysis recovered them) or target function
//!   entries in the same module (tail calls).
//! * **Backward edges** — a precise shadow stack: every call pushes its
//!   return address, every `ret` must match. The ld.so lazy-resolver
//!   `ret` that *dispatches* to the freshly resolved function is detected
//!   statically and given a forward-CFI check instead (§4.2.3).
//!
//! The plugin reports Average Indirect-target Reduction (AIR) both
//! statically ([`static_air`]) and dynamically over executed sites
//! ([`Jcfi::dynamic_air`]), matching the BinCFI and Lockdown
//! methodologies the paper compares against.

mod info;

pub use info::CfiModuleInfo;

use janitizer_core::{Probe, ProbeResult, ProbeRun, Report, RuleId, SecurityPlugin, StaticContext};
use janitizer_dbt::{
    DecodedBlock, JcfiContext, ProbeClass, ProbeSite, SiteOrigin, TbItem, ToolContext,
    ViolationKind, MAX_REPORTS,
};
use janitizer_isa::Instr;
use janitizer_obj::Image;
use janitizer_rules::RewriteRule;
use janitizer_vm::Process;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// Rule: push the return address on the shadow stack (at any call).
pub const RULE_SHADOW_PUSH: RuleId = 10;
/// Rule: verify a `ret` against the shadow stack.
pub const RULE_RET_CHECK: RuleId = 11;
/// Rule: ld.so resolver `ret` — forward-CFI check instead (§4.2.3).
pub const RULE_RET_RESOLVER: RuleId = 12;
/// Rule: verify an indirect call's target.
pub const RULE_ICALL_CHECK: RuleId = 13;
/// Rule: verify an indirect jump's target; `data[0]`/`data[1]` give the
/// enclosing function's range.
pub const RULE_IJMP_CHECK: RuleId = 14;
/// Rule: indirect jump inside a PLT stub — cross-module call policy.
pub const RULE_PLT_JMP: RuleId = 15;

/// The kind of indirect control transfer, for AIR accounting.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CtiKind {
    /// Indirect call.
    Call,
    /// Indirect jump.
    Jump,
    /// Return.
    Ret,
}

/// Per-site execution record.
#[derive(Clone, Copy, Debug)]
pub struct SiteStat {
    /// Kind of transfer.
    pub kind: CtiKind,
    /// Size of the allowed-target set at this site.
    pub allowed: u64,
}

/// Shared run-time CFI state (shadow stack, per-module target tables,
/// AIR accounting), referenced by every probe.
#[derive(Debug, Default)]
pub struct CfiState {
    /// Rebased metadata per module id.
    pub modules: Vec<Option<CfiModuleInfo>>,
    /// The shadow stack of return addresses.
    pub shadow_stack: Vec<u64>,
    /// Executed indirect-CTI sites. Ordered map: the AIR means sum
    /// floating-point terms over the values, and the iteration order must
    /// be deterministic for result files to be byte-reproducible.
    pub sites: BTreeMap<u64, SiteStat>,
    /// Shadow-stack pushes/pops performed.
    pub backward_ops: u64,
    /// Forward checks performed.
    pub forward_checks: u64,
    /// Tool-side violation contexts recorded at check time, one per
    /// violation report (same order), drained by the forensics layer.
    pub captures: Vec<ToolContext>,
}

impl CfiState {
    fn module_info_at(&self, proc: &Process, addr: u64) -> Option<(usize, &CfiModuleInfo)> {
        let m = proc.module_containing(addr)?;
        self.modules
            .get(m.id)
            .and_then(|i| i.as_ref())
            .map(|i| (m.id, i))
    }

    /// Total executable bytes across loaded modules (the AIR denominator).
    pub fn total_code_bytes(&self) -> u64 {
        self.modules
            .iter()
            .flatten()
            .map(|i| i.code_bytes)
            .sum::<u64>()
            .max(1)
    }

    /// Whether `target` is a valid indirect-call destination from
    /// `caller_module` under JCFI's policy.
    pub fn call_allowed(&self, proc: &Process, caller_module: Option<usize>, target: u64) -> bool {
        match self.module_info_at(proc, target) {
            None => {
                // Dynamically generated code has no static target set; the
                // dynamic analyzer admits it (and instruments it when it
                // runs).
                proc.mem.region_label(target) == Some("jit")
            }
            Some((mid, info)) => {
                if Some(mid) == caller_module {
                    info.functions.contains(&target)
                        || info.plt_stubs.contains(&target)
                        || info.address_taken.contains(&target)
                        || info.allowlist.contains(&target)
                } else {
                    info.exported.contains(&target)
                        || info.address_taken.contains(&target)
                        || info.allowlist.contains(&target)
                }
            }
        }
    }

    /// Dynamic AIR over executed indirect-CTI sites, in percent.
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

    /// Dynamic AIR restricted to one CTI kind.
    pub fn dynamic_air_of(&self, kind: CtiKind) -> Option<f64> {
        let s = self.total_code_bytes() as f64;
        let vals: Vec<f64> = self
            .sites
            .values()
            .filter(|x| x.kind == kind)
            .map(|site| 1.0 - (site.allowed as f64 / s).min(1.0))
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64 * 100.0)
        }
    }

    /// |T| for an indirect call from `caller_module` (cached per module by
    /// the caller).
    pub fn call_target_count(&self, caller_module: Option<usize>) -> u64 {
        let mut total = 0u64;
        for (id, info) in self.modules.iter().enumerate() {
            let Some(info) = info else { continue };
            if Some(id) == caller_module {
                total += (info.functions.len()
                    + info.plt_stubs.len()
                    + info.address_taken.len()
                    + info.allowlist.len()) as u64;
            } else {
                total += info.exported.union(&info.address_taken).count() as u64
                    + info.allowlist.len() as u64;
            }
        }
        total.max(1)
    }

    /// Top of the shadow stack (most recent return address first),
    /// truncated for forensic snapshots.
    fn shadow_top(&self) -> Vec<u64> {
        self.shadow_stack.iter().rev().take(16).copied().collect()
    }

    /// A deterministic sample of the allowed indirect-call targets from
    /// `caller_module`: the sorted union of the policy's sets, truncated
    /// to `k` entries.
    fn call_target_sample(&self, caller_module: Option<usize>, k: usize) -> Vec<u64> {
        let mut v: Vec<u64> = Vec::new();
        for (id, info) in self.modules.iter().enumerate() {
            let Some(info) = info else { continue };
            if Some(id) == caller_module {
                v.extend(info.functions.iter().copied());
                v.extend(info.plt_stubs.iter().copied());
            } else {
                v.extend(info.exported.iter().copied());
            }
            v.extend(info.address_taken.iter().copied());
            v.extend(info.allowlist.iter().copied());
        }
        v.sort_unstable();
        v.dedup();
        v.truncate(k);
        v
    }

    /// Records a violation context for forensics, bounded the same way
    /// the engine bounds its report vector so indexes stay aligned.
    fn record_capture(&mut self, ctx: JcfiContext) {
        if self.captures.len() < MAX_REPORTS {
            self.captures.push(ToolContext::Jcfi(ctx));
        }
    }
}

/// JCFI configuration.
#[derive(Clone, Copy, Debug)]
pub struct JcfiOptions {
    /// Enforce forward edges (indirect calls/jumps).
    pub forward: bool,
    /// Enforce backward edges (shadow stack).
    pub backward: bool,
}

impl Default for JcfiOptions {
    fn default() -> JcfiOptions {
        JcfiOptions {
            forward: true,
            backward: true,
        }
    }
}

// Inline-check fast-path costs (cycles).
const COST_SHADOW_PUSH: u64 = 4;
const COST_RET_CHECK: u64 = 5;
const COST_ICALL: u64 = 13;
const COST_IJMP: u64 = 10;
const COST_PLT_JMP: u64 = 6;
/// Extra cost for conservatively-generated fallback checks.
const DYN_EXTRA: u64 = 6;

/// Stable profiler kind label for each JCFI check rule.
fn kind_of(id: RuleId) -> &'static str {
    match id {
        RULE_SHADOW_PUSH => "shadow-push",
        RULE_RET_CHECK => "ret-check",
        RULE_RET_RESOLVER => "resolver-ret",
        RULE_ICALL_CHECK => "icall-check",
        RULE_PLT_JMP => "plt-jmp",
        RULE_IJMP_CHECK => "ijmp-check",
        _ => "other",
    }
}

/// Profiler identity of one JCFI check site; `conservative` marks the
/// dynamic-fallback instrumentation path.
fn site(kind: &'static str, pc: u64, conservative: bool) -> ProbeSite {
    ProbeSite {
        tool: "jcfi",
        kind,
        pc,
        class: ProbeClass::Inline,
        origin: if conservative {
            SiteOrigin::Dynamic
        } else {
            SiteOrigin::Static
        },
    }
}

/// The JCFI plugin.
#[derive(Debug)]
pub struct Jcfi {
    /// Configuration.
    pub opts: JcfiOptions,
    /// Shared run-time state (exposed for metric extraction).
    pub state: Rc<RefCell<CfiState>>,
    /// Metadata computed by static passes, keyed by module name.
    static_info: RefCell<HashMap<String, CfiModuleInfo>>,
}

impl Jcfi {
    /// Creates the plugin.
    pub fn new(opts: JcfiOptions) -> Jcfi {
        Jcfi {
            opts,
            state: Rc::new(RefCell::new(CfiState::default())),
            static_info: RefCell::new(HashMap::new()),
        }
    }

    /// The paper's JCFI-hybrid configuration.
    pub fn hybrid() -> Jcfi {
        Jcfi::new(JcfiOptions::default())
    }

    /// Forward-edge-only configuration (Figure 11's "+ Forward CFI").
    pub fn forward_only() -> Jcfi {
        Jcfi::new(JcfiOptions {
            forward: true,
            backward: false,
        })
    }

    /// Dynamic AIR over executed indirect-CTI sites (Figure 12): the mean
    /// of `1 - |T|/S`, in percent.
    pub fn dynamic_air(&self) -> f64 {
        self.state.borrow().dynamic_air()
    }

    /// Dynamic AIR restricted to one CTI kind.
    pub fn dynamic_air_of(&self, kind: CtiKind) -> Option<f64> {
        self.state.borrow().dynamic_air_of(kind)
    }

    fn push_probe(&self, pc: u64, ret_addr: u64, conservative: bool) -> TbItem {
        let state = Rc::clone(&self.state);
        TbItem::Probe(Probe {
            cost: COST_SHADOW_PUSH + if conservative { 1 } else { 0 },
            run: ProbeRun::custom(move |_p| {
                let mut st = state.borrow_mut();
                st.shadow_stack.push(ret_addr);
                st.backward_ops += 1;
                ProbeResult::Ok
            }),
            site: Some(site(kind_of(RULE_SHADOW_PUSH), pc, conservative)),
        })
    }

    fn ret_probe(&self, pc: u64, conservative: bool) -> TbItem {
        let state = Rc::clone(&self.state);
        TbItem::Probe(Probe {
            cost: COST_RET_CHECK + if conservative { DYN_EXTRA } else { 0 },
            run: ProbeRun::custom(move |p: &mut Process| {
                let target = match p.mem.read_int(p.cpu.reg(janitizer_isa::Reg::SP), 8) {
                    Ok(t) => t,
                    Err(_) => return ProbeResult::Ok, // the ret itself will fault
                };
                let mut st = state.borrow_mut();
                st.backward_ops += 1;
                st.sites.insert(
                    pc,
                    SiteStat {
                        kind: CtiKind::Ret,
                        allowed: 1,
                    },
                );
                match st.shadow_stack.pop() {
                    None => ProbeResult::Ok, // entry frames precede tracking
                    Some(expected) if expected == target => ProbeResult::Ok,
                    Some(expected) => {
                        let fctx = JcfiContext {
                            cti: "return",
                            actual: target,
                            expected: Some(expected),
                            allowed_count: 1,
                            allowed_sample: vec![expected],
                            shadow_stack: st.shadow_top(),
                        };
                        st.record_capture(fctx);
                        ProbeResult::Violation(Report {
                            pc,
                            kind: ViolationKind::CfiReturn,
                            details: format!(
                                "return to {target:#x}, shadow stack expected {expected:#x}"
                            ),
                        })
                    }
                }
            }),
            site: Some(site(kind_of(RULE_RET_CHECK), pc, conservative)),
        })
    }

    fn icall_probe(
        &self,
        pc: u64,
        reg: janitizer_isa::Reg,
        kind: CtiKind,
        cost: u64,
        site_kind: &'static str,
        conservative: bool,
    ) -> TbItem {
        let state = Rc::clone(&self.state);
        TbItem::Probe(Probe {
            cost,
            run: ProbeRun::custom(move |p: &mut Process| {
                let target = p.cpu.reg(reg);
                let caller = p.module_containing(pc).map(|m| m.id);
                let mut st = state.borrow_mut();
                st.forward_checks += 1;
                let allowed_count = st.call_target_count(caller);
                st.sites.insert(
                    pc,
                    SiteStat {
                        kind,
                        allowed: allowed_count,
                    },
                );
                if st.call_allowed(p, caller, target) {
                    ProbeResult::Ok
                } else {
                    let fctx = JcfiContext {
                        cti: "indirect-call",
                        actual: target,
                        expected: None,
                        allowed_count,
                        allowed_sample: st.call_target_sample(caller, 8),
                        shadow_stack: st.shadow_top(),
                    };
                    st.record_capture(fctx);
                    ProbeResult::Violation(Report {
                        pc,
                        kind: ViolationKind::CfiIcall,
                        details: format!("indirect call to invalid target {target:#x}"),
                    })
                }
            }),
            site: Some(site(site_kind, pc, conservative)),
        })
    }

    /// Resolver `ret`: validates the *dispatch* target like a forward call
    /// and leaves the shadow stack alone.
    fn resolver_ret_probe(&self, pc: u64, conservative: bool) -> TbItem {
        let state = Rc::clone(&self.state);
        TbItem::Probe(Probe {
            cost: COST_ICALL,
            run: ProbeRun::custom(move |p: &mut Process| {
                let target = match p.mem.read_int(p.cpu.reg(janitizer_isa::Reg::SP), 8) {
                    Ok(t) => t,
                    Err(_) => return ProbeResult::Ok,
                };
                let caller = p.module_containing(pc).map(|m| m.id);
                let mut st = state.borrow_mut();
                st.forward_checks += 1;
                let allowed_count = st.call_target_count(caller);
                st.sites.insert(
                    pc,
                    SiteStat {
                        kind: CtiKind::Call,
                        allowed: allowed_count,
                    },
                );
                if st.call_allowed(p, None, target) {
                    ProbeResult::Ok
                } else {
                    let fctx = JcfiContext {
                        cti: "indirect-call",
                        actual: target,
                        expected: None,
                        allowed_count,
                        allowed_sample: st.call_target_sample(None, 8),
                        shadow_stack: st.shadow_top(),
                    };
                    st.record_capture(fctx);
                    ProbeResult::Violation(Report {
                        pc,
                        kind: ViolationKind::CfiIcall,
                        details: format!("lazy-resolver dispatch to invalid target {target:#x}"),
                    })
                }
            }),
            site: Some(site(kind_of(RULE_RET_RESOLVER), pc, conservative)),
        })
    }

    fn ijmp_probe(
        &self,
        pc: u64,
        reg: janitizer_isa::Reg,
        func: Option<(u64, u64)>,
        conservative: bool,
    ) -> TbItem {
        let state = Rc::clone(&self.state);
        TbItem::Probe(Probe {
            cost: COST_IJMP + if conservative { DYN_EXTRA } else { 0 },
            run: ProbeRun::custom(move |p: &mut Process| {
                let target = p.cpu.reg(reg);
                let mut st = state.borrow_mut();
                st.forward_checks += 1;
                let (allowed, count) = {
                    let info = st.module_info_at(p, pc).map(|(_, i)| i);
                    match info {
                        None => (true, 1),
                        Some(info) => {
                            let in_func = func
                                .map(|(lo, hi)| target >= lo && target < hi)
                                .unwrap_or(false);
                            let boundary_ok = if info.boundaries.is_empty() {
                                // Load-time analysis only: any byte within
                                // the function (the weaker policy).
                                true
                            } else {
                                info.boundaries.contains(&target)
                            };
                            let tail_call = info.functions.contains(&target);
                            let count = func
                                .map(|(lo, hi)| {
                                    if info.boundaries.is_empty() {
                                        hi - lo
                                    } else {
                                        info.boundaries.range(lo..hi).count() as u64
                                    }
                                })
                                .unwrap_or(0)
                                + info.functions.len() as u64;
                            ((in_func && boundary_ok) || tail_call, count.max(1))
                        }
                    }
                };
                st.sites.insert(
                    pc,
                    SiteStat {
                        kind: CtiKind::Jump,
                        allowed: count,
                    },
                );
                if allowed {
                    ProbeResult::Ok
                } else {
                    // Sample the in-function boundary targets (sorted by
                    // construction: `boundaries` is ordered).
                    let sample: Vec<u64> = st
                        .module_info_at(p, pc)
                        .map(|(_, info)| match func {
                            Some((lo, hi)) if !info.boundaries.is_empty() => {
                                info.boundaries.range(lo..hi).take(8).copied().collect()
                            }
                            _ => info.functions.iter().take(8).copied().collect(),
                        })
                        .unwrap_or_default();
                    let fctx = JcfiContext {
                        cti: "indirect-jump",
                        actual: target,
                        expected: None,
                        allowed_count: count,
                        allowed_sample: sample,
                        shadow_stack: st.shadow_top(),
                    };
                    st.record_capture(fctx);
                    ProbeResult::Violation(Report {
                        pc,
                        kind: ViolationKind::CfiIjmp,
                        details: format!("indirect jump to invalid target {target:#x}"),
                    })
                }
            }),
            site: Some(site(kind_of(RULE_IJMP_CHECK), pc, conservative)),
        })
    }

    /// Shared instrumentation walk; `rules_of` yields rule decisions per
    /// instruction (from the rewrite rules or the fallback analysis).
    fn instrument(
        &mut self,
        block: &DecodedBlock,
        conservative: bool,
        decide: impl Fn(u64, &Instr) -> Vec<(RuleId, [u64; 4])>,
    ) -> Vec<TbItem> {
        let mut items = Vec::new();
        for &op in &block.ops {
            let (pc, insn) = (op.pc, op.insn);
            for (id, data) in decide(pc, &insn) {
                let before = items.len();
                match id {
                    RULE_SHADOW_PUSH if self.opts.backward => {
                        items.push(self.push_probe(pc, op.next, conservative));
                    }
                    RULE_RET_CHECK if self.opts.backward => {
                        items.push(self.ret_probe(pc, conservative));
                    }
                    RULE_RET_RESOLVER if self.opts.forward => {
                        items.push(self.resolver_ret_probe(pc, conservative));
                    }
                    RULE_ICALL_CHECK if self.opts.forward => {
                        if let Instr::CallInd { rs } = insn {
                            items.push(self.icall_probe(
                                pc,
                                rs,
                                CtiKind::Call,
                                COST_ICALL + if conservative { DYN_EXTRA } else { 0 },
                                kind_of(RULE_ICALL_CHECK),
                                conservative,
                            ));
                        }
                    }
                    RULE_PLT_JMP if self.opts.forward => {
                        if let Instr::JmpInd { rs } = insn {
                            items.push(self.icall_probe(
                                pc,
                                rs,
                                CtiKind::Jump,
                                COST_PLT_JMP,
                                kind_of(RULE_PLT_JMP),
                                conservative,
                            ));
                        }
                    }
                    RULE_IJMP_CHECK if self.opts.forward => {
                        if let Instr::JmpInd { rs } = insn {
                            let func = (data[1] != 0).then_some((data[0], data[1]));
                            items.push(self.ijmp_probe(pc, rs, func, conservative));
                        }
                    }
                    _ => {}
                }
                if items.len() == before && id != janitizer_rules::NO_OP {
                    // A rule applied to this site but the configuration
                    // (forward/backward off) dropped the check. The Note
                    // lets the profiler count it per execution; the engine
                    // strips it before translation.
                    items.push(TbItem::Note(site(kind_of(id), pc, conservative)));
                }
            }
            items.push(TbItem::Guest(op));
        }
        items
    }

    /// Emits the rule decisions for one instruction from module metadata,
    /// in order — used both by the static pass (to emit rules) and by the
    /// dynamic fallback (to decide on the fly).
    fn decide_for(
        info: &CfiModuleInfo,
        pc: u64,
        insn: &Instr,
        mut emit: impl FnMut(RuleId, [u64; 4]),
    ) {
        if insn.is_call() {
            emit(RULE_SHADOW_PUSH, [0; 4]);
        }
        match insn {
            Instr::Ret => {
                if info.resolver_rets.contains(&pc) {
                    emit(RULE_RET_RESOLVER, [0; 4]);
                } else {
                    emit(RULE_RET_CHECK, [0; 4]);
                }
            }
            Instr::CallInd { .. } => emit(RULE_ICALL_CHECK, [0; 4]),
            Instr::JmpInd { .. } => {
                let in_plt = info
                    .plt_range
                    .map(|(lo, hi)| pc >= lo && pc < hi)
                    .unwrap_or(false);
                if in_plt {
                    emit(RULE_PLT_JMP, [0; 4]);
                } else {
                    let (lo, hi) = info.function_range_of(pc).unwrap_or((0, 0));
                    emit(RULE_IJMP_CHECK, [lo, hi, 0, 0]);
                }
            }
            _ => {}
        }
    }
}

impl SecurityPlugin for Jcfi {
    fn name(&self) -> &str {
        "jcfi"
    }

    fn take_violation_contexts(&mut self) -> Vec<ToolContext> {
        std::mem::take(&mut self.state.borrow_mut().captures)
    }

    fn static_pass(&self, image: &Image, ctx: &StaticContext) -> Vec<RewriteRule> {
        let info = CfiModuleInfo::from_analysis(image, &ctx.cfg, &ctx.scan);
        let mut rules = Vec::new();
        for block in ctx.cfg.blocks.values() {
            for (addr, insn) in &block.insns {
                Self::decide_for(&info, *addr, insn, |id, data| {
                    let mut r = RewriteRule::new(id, block.start, *addr);
                    r.data = data;
                    rules.push(r);
                });
            }
        }
        self.static_info
            .borrow_mut()
            .insert(image.name.clone(), info);
        rules
    }

    fn on_rules_cached(&self, image: &Image, ctx: &StaticContext) {
        // `static_pass` has a side effect beyond the rules it returns: it
        // stashes CFG-derived module info consumed at load time. Replay
        // that stash when a cached `RuleFile` short-circuits the pass so
        // cached and fresh runs behave identically.
        self.static_info.borrow_mut().insert(
            image.name.clone(),
            CfiModuleInfo::from_analysis(image, &ctx.cfg, &ctx.scan),
        );
    }

    fn on_module_load(
        &mut self,
        proc: &mut Process,
        module_id: usize,
        rules: Option<&janitizer_rules::RuleTable>,
    ) {
        let m = &proc.modules[module_id];
        // Statically analyzed modules ship their hint tables; everything
        // else gets the load-time analysis of §4.2.2 (weaker for stripped
        // modules).
        let base_info = if rules.is_some() {
            self.static_info
                .borrow()
                .get(&m.image.name)
                .cloned()
                .unwrap_or_else(|| CfiModuleInfo::from_image(&m.image))
        } else if m.image.stripped {
            CfiModuleInfo::from_stripped_image(&m.image)
        } else {
            let mut i = CfiModuleInfo::from_image(&m.image);
            // Load-time analysis does not build a full CFG; instruction
            // boundaries are unavailable, weakening the intra-function
            // jump policy (paper footnote 15).
            i.boundaries.clear();
            i
        };
        let rebased = base_info.rebase(m.base);
        let mut st = self.state.borrow_mut();
        while st.modules.len() <= module_id {
            st.modules.push(None);
        }
        st.modules[module_id] = Some(rebased);
    }

    fn instrument_static(
        &mut self,
        proc: &mut Process,
        block: &DecodedBlock,
        rules: &janitizer_core::BlockRules<'_>,
    ) -> Vec<TbItem> {
        // Rewrite-rule payloads carry link-time addresses (function
        // ranges); PIC modules need them rebased, just like the rule keys
        // themselves (3.4.2).
        let bias = proc
            .module_containing(block.start)
            .map(|m| m.base)
            .unwrap_or(0);
        self.instrument(block, false, |pc, _insn| {
            rules
                .rules_for(pc)
                .iter()
                .map(|r| {
                    let mut data = r.data;
                    if r.id == RULE_IJMP_CHECK && data[1] != 0 {
                        data[0] += bias;
                        data[1] += bias;
                    }
                    (r.id, data)
                })
                .collect()
        })
    }

    fn instrument_dynamic(&mut self, proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
        // One-time per-block fallback analysis cost (scanning the block
        // for indirect CTIs and the resolver idiom).
        proc.cycles += 12 * block.ops.len() as u64;
        // The fallback sees one block at a time; decisions come from the
        // module metadata built at load time (or a permissive default for
        // JIT code). The resolver special case is still recognizable
        // within the block: `st8 [sp], rX` immediately before `ret`.
        let mut resolver_rets: Vec<u64> = Vec::new();
        for w in block.ops.windows(2) {
            let (a, b, rpc) = (w[0].insn, w[1].insn, w[1].pc);
            if matches!(
                a,
                Instr::St {
                    base: janitizer_isa::Reg::R15,
                    disp: 0,
                    ..
                }
            ) && matches!(b, Instr::Ret)
            {
                resolver_rets.push(rpc);
            }
        }
        let info = {
            let st = self.state.borrow();
            st.module_info_at(proc, block.start).map(|(_, i)| i.clone())
        };
        self.instrument(block, true, move |pc, insn| {
            let mut base = match &info {
                Some(i) => {
                    let mut v = Vec::new();
                    Self::decide_for(i, pc, insn, |id, data| v.push((id, data)));
                    v
                }
                None => {
                    // JIT / unknown code: shadow-stack discipline plus
                    // permissive forward checks.
                    let mut v = Vec::new();
                    if insn.is_call() {
                        v.push((RULE_SHADOW_PUSH, [0u64; 4]));
                    }
                    match insn {
                        Instr::Ret => v.push((RULE_RET_CHECK, [0; 4])),
                        Instr::CallInd { .. } => v.push((RULE_ICALL_CHECK, [0; 4])),
                        Instr::JmpInd { .. } => v.push((RULE_IJMP_CHECK, [0, 0, 0, 0])),
                        _ => {}
                    }
                    v
                }
            };
            // Apply the in-block resolver detection on top.
            if resolver_rets.contains(&pc) {
                base.retain(|(id, _)| *id != RULE_RET_CHECK);
                base.push((RULE_RET_RESOLVER, [0; 4]));
            }
            base
        })
    }
}

/// Static AIR (Figure 13 methodology): over every indirect CTI in the
/// given images, the mean of `1 - |T|/S`, in percent, under JCFI's
/// policy.
pub fn static_air(images: &[&Image]) -> f64 {
    let infos: Vec<CfiModuleInfo> = images
        .iter()
        .map(|i| CfiModuleInfo::from_image(i))
        .collect();
    let s: u64 = infos.iter().map(|i| i.code_bytes).sum::<u64>().max(1);
    let mut terms: Vec<f64> = Vec::new();
    for (mi, image) in images.iter().enumerate() {
        let info = &infos[mi];
        let cfg = janitizer_analysis::analyze_module(image);
        // Cross-module callable set: exports + address-taken of others.
        let cross: u64 = infos
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != mi)
            .map(|(_, o)| o.exported.union(&o.address_taken).count() as u64)
            .sum();
        let own = (info.functions.len() + info.plt_stubs.len() + info.address_taken.len()) as u64;
        for block in cfg.blocks.values() {
            for (addr, insn) in &block.insns {
                let t = match insn {
                    Instr::CallInd { .. } => own + cross,
                    Instr::Ret => 1,
                    Instr::JmpInd { .. } => {
                        let in_plt = info
                            .plt_range
                            .map(|(lo, hi)| *addr >= lo && *addr < hi)
                            .unwrap_or(false);
                        if in_plt {
                            own + cross
                        } else {
                            let range = info.function_range_of(*addr);
                            range
                                .map(|(lo, hi)| info.boundaries.range(lo..hi).count() as u64)
                                .unwrap_or(0)
                                + info.functions.len() as u64
                        }
                    }
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
