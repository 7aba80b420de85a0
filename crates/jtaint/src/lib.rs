//! # JTaint: dynamic taint tracking on Janitizer
//!
//! The paper's §3.3.3 provides "SSA-level diffuse-chain tracing ... to
//! monitor the flow of untrusted data as seen in taint-tracking
//! mechanisms" as a generic building block and closes hoping Janitizer
//! "will pave the way for many more" techniques. JTaint is that third
//! technique: a whole-program taint tracker built on the same plugin API
//! as JASan and JCFI.
//!
//! * **Sources** — values produced by the input syscalls (`getarg`,
//!   `rand`): everything derived from program input is untrusted.
//! * **Propagation** — per-instruction: ALU results inherit taint from
//!   their operands, loads from their memory granule, stores write their
//!   value's taint to memory. Memory taint is tracked per 8-byte granule.
//! * **Sink** — indirect control transfers: a `call`/`jmp` through a
//!   tainted register (or a `ret` to a tainted return-address slot) is a
//!   control-flow hijack in the making and reports
//!   `tainted-control-transfer`.
//!
//! The hybrid split: the **static pass** precomputes each instruction's
//! propagation action (and proves instructions with neither register defs
//! nor memory effects action-free) so rule-driven probes stay cheap; the
//! **dynamic fallback** re-derives actions per block, at fallback cost —
//! the same static-speeds-up-dynamic pattern as JASan.

use janitizer_core::{Probe, ProbeResult, ProbeRun, Report, RuleId, SecurityPlugin, StaticContext};
use janitizer_dbt::{DecodedBlock, ProbeClass, ProbeSite, SiteOrigin, TbItem, ViolationKind};
use janitizer_isa::{Instr, Reg};
use janitizer_obj::Image;
use janitizer_rules::RewriteRule;
use janitizer_vm::Process;
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

/// Rule: apply the propagation action encoded in `data[0]` (see
/// [`Action`]) at this instruction.
pub const RULE_PROPAGATE: RuleId = 20;
/// Rule: verify the indirect-CTI operand is untainted before transfer.
pub const RULE_SINK_CHECK: RuleId = 21;

/// Per-instruction taint action, encoded into rewrite-rule payloads.
///
/// Layout of the packed `u64`: bits 0–15 source-register mask, bits
/// 16–31 destination-register mask, bit 32 = load, bit 33 = store,
/// bit 34 = syscall-source.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Action {
    /// Registers whose taint feeds the result.
    pub src_mask: u16,
    /// Registers written by the instruction.
    pub dst_mask: u16,
    /// The instruction loads from memory (taint flows memory → dest).
    pub is_load: bool,
    /// The instruction stores to memory (taint flows value → memory).
    pub is_store: bool,
    /// The instruction is an input syscall (taints `r0`).
    pub is_source: bool,
}

impl Action {
    /// Derives the action for one instruction.
    pub fn of(insn: &Instr) -> Action {
        let m = insn.mem_access();
        Action {
            src_mask: insn.uses(),
            dst_mask: insn.defs(),
            is_load: m.map(|m| !m.is_store).unwrap_or(false),
            is_store: m.map(|m| m.is_store).unwrap_or(false),
            is_source: matches!(insn, Instr::Syscall),
        }
    }

    /// Whether the instruction can affect taint state at all.
    pub fn is_noop(&self) -> bool {
        self.dst_mask == 0 && !self.is_store && !self.is_source
    }

    /// Packs the action into a rule payload.
    pub fn pack(&self) -> u64 {
        self.src_mask as u64
            | (self.dst_mask as u64) << 16
            | (self.is_load as u64) << 32
            | (self.is_store as u64) << 33
            | (self.is_source as u64) << 34
    }

    /// Unpacks a rule payload.
    pub fn unpack(v: u64) -> Action {
        Action {
            src_mask: v as u16,
            dst_mask: (v >> 16) as u16,
            is_load: v >> 32 & 1 != 0,
            is_store: v >> 33 & 1 != 0,
            is_source: v >> 34 & 1 != 0,
        }
    }
}

/// Shared taint state.
#[derive(Debug, Default)]
pub struct TaintState {
    /// Per-register taint bits.
    pub regs: u16,
    /// Tainted 8-byte memory granules (by granule index, `addr >> 3`).
    pub mem: HashSet<u64>,
    /// Propagation probe executions (cost accounting/diagnostics).
    pub propagations: u64,
    /// Values tainted at sources.
    pub sourced: u64,
}

impl TaintState {
    /// Whether the 8-byte granule containing `addr` is tainted.
    pub fn mem_tainted(&self, addr: u64) -> bool {
        self.mem.contains(&(addr >> 3))
    }

    fn set_mem(&mut self, addr: u64, tainted: bool) {
        if tainted {
            self.mem.insert(addr >> 3);
        } else {
            self.mem.remove(&(addr >> 3));
        }
    }

    fn reg_tainted(&self, mask: u16) -> bool {
        self.regs & mask != 0
    }
}

/// Taint-relevant input syscall numbers (`getarg`, `rand`).
const SOURCE_SYSCALLS: [u64; 2] = [9, 10];

// Probe costs (cycles): rule-driven propagation is an inline
// couple-of-ops sequence; the fallback re-derives the action.
const PROP_COST_STATIC: u64 = 3;
const PROP_COST_DYN: u64 = 5;
const SINK_COST: u64 = 6;

/// The JTaint plugin.
#[derive(Debug)]
pub struct Jtaint {
    /// Shared taint state (inspect after a run).
    pub state: Rc<RefCell<TaintState>>,
    /// Report sinks as violations (else just count silently).
    pub enforce: bool,
}

impl Jtaint {
    /// Creates an enforcing taint tracker.
    pub fn new() -> Jtaint {
        Jtaint {
            state: Rc::new(RefCell::new(TaintState::default())),
            enforce: true,
        }
    }

    fn propagate_probe(
        &self,
        pc: u64,
        insn: Instr,
        action: Action,
        cost: u64,
        origin: SiteOrigin,
    ) -> TbItem {
        let state = Rc::clone(&self.state);
        TbItem::Probe(Probe {
            cost,
            run: ProbeRun::custom(move |p: &mut Process| {
                let mut st = state.borrow_mut();
                st.propagations += 1;
                if action.is_source {
                    // Syscall: taint the result iff it is an input source;
                    // other syscalls produce trusted values.
                    let n = p.cpu.reg(Reg::R0);
                    st.regs &= !Reg::R0.bit();
                    if SOURCE_SYSCALLS.contains(&n) {
                        st.regs |= Reg::R0.bit();
                        st.sourced += 1;
                    }
                    return ProbeResult::Ok;
                }
                let mut tainted = st.reg_tainted(action.src_mask);
                if let Some(m) = insn.mem_access() {
                    let mut addr = p.cpu.reg(m.base).wrapping_add(m.disp as i64 as u64);
                    if let Some(idx) = m.idx {
                        addr = addr.wrapping_add(p.cpu.reg(idx) << m.scale);
                    }
                    if action.is_load {
                        tainted = st.mem_tainted(addr);
                    } else if action.is_store {
                        let v_tainted = st.reg_tainted(
                            insn.mem_access()
                                .map(|_| match insn {
                                    Instr::St { rs, .. } | Instr::StIdx { rs, .. } => rs.bit(),
                                    _ => 0,
                                })
                                .unwrap_or(0),
                        );
                        st.set_mem(addr, v_tainted);
                        return ProbeResult::Ok;
                    }
                }
                if action.dst_mask != 0 {
                    if tainted {
                        st.regs |= action.dst_mask;
                    } else {
                        st.regs &= !action.dst_mask;
                    }
                }
                ProbeResult::Ok
            }),
            site: Some(ProbeSite {
                tool: "jtaint",
                kind: "propagate",
                pc,
                class: ProbeClass::Inline,
                origin,
            }),
        })
    }

    fn sink_probe(&self, pc: u64, insn: Instr, origin: SiteOrigin) -> TbItem {
        let state = Rc::clone(&self.state);
        let enforce = self.enforce;
        TbItem::Probe(Probe {
            cost: SINK_COST,
            run: ProbeRun::custom(move |p: &mut Process| {
                let st = state.borrow();
                let bad = match insn {
                    Instr::CallInd { rs } | Instr::JmpInd { rs } => st.reg_tainted(rs.bit()),
                    Instr::Ret => st.mem_tainted(p.cpu.reg(Reg::SP)),
                    _ => false,
                };
                if bad && enforce {
                    ProbeResult::Violation(Report {
                        pc,
                        kind: ViolationKind::TaintedControlTransfer,
                        details: format!("indirect transfer controlled by untrusted input: {insn}"),
                    })
                } else {
                    ProbeResult::Ok
                }
            }),
            site: Some(ProbeSite {
                tool: "jtaint",
                kind: "sink-check",
                pc,
                class: ProbeClass::Inline,
                origin,
            }),
        })
    }

    fn instrument(&mut self, block: &DecodedBlock, cost: u64) -> Vec<TbItem> {
        let mut items = Vec::new();
        for &(pc, insn, next) in &block.insns {
            if insn.is_indirect_cti() {
                items.push(self.sink_probe(pc, insn, SiteOrigin::Dynamic));
            }
            let action = Action::of(&insn);
            if !action.is_noop() {
                items.push(self.propagate_probe(pc, insn, action, cost, SiteOrigin::Dynamic));
            }
            items.push(TbItem::Guest(pc, insn, next));
        }
        items
    }
}

impl Default for Jtaint {
    fn default() -> Jtaint {
        Jtaint::new()
    }
}

impl SecurityPlugin for Jtaint {
    fn name(&self) -> &str {
        "jtaint"
    }

    fn static_pass(&self, _image: &Image, ctx: &StaticContext) -> Vec<RewriteRule> {
        let mut rules = Vec::new();
        for block in ctx.cfg.blocks.values() {
            for (addr, insn) in &block.insns {
                if insn.is_indirect_cti() {
                    rules.push(RewriteRule::new(RULE_SINK_CHECK, block.start, *addr));
                }
                let action = Action::of(insn);
                if !action.is_noop() {
                    rules.push(
                        RewriteRule::new(RULE_PROPAGATE, block.start, *addr)
                            .with_data(0, action.pack()),
                    );
                }
            }
        }
        rules
    }

    fn instrument_static(
        &mut self,
        _proc: &mut Process,
        block: &DecodedBlock,
        rules: &janitizer_core::BlockRules<'_>,
    ) -> Vec<TbItem> {
        let mut items = Vec::new();
        for &(pc, insn, next) in &block.insns {
            for rule in rules.rules_for(pc) {
                match rule.id {
                    RULE_SINK_CHECK => {
                        items.push(self.sink_probe(pc, insn, SiteOrigin::Static));
                    }
                    RULE_PROPAGATE => {
                        let action = Action::unpack(rule.data[0]);
                        items.push(self.propagate_probe(
                            pc,
                            insn,
                            action,
                            PROP_COST_STATIC,
                            SiteOrigin::Static,
                        ));
                    }
                    _ => {}
                }
            }
            items.push(TbItem::Guest(pc, insn, next));
        }
        items
    }

    fn instrument_dynamic(&mut self, proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
        // Fallback: derive actions per block at translation time.
        proc.cycles += 10 * block.insns.len() as u64;
        self.instrument(block, PROP_COST_DYN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_pack_roundtrip() {
        for insn in [
            Instr::MovRr {
                rd: Reg::R1,
                rs: Reg::R2,
            },
            Instr::Ld {
                size: janitizer_isa::MemSize::B8,
                rd: Reg::R3,
                base: Reg::R4,
                disp: 8,
            },
            Instr::St {
                size: janitizer_isa::MemSize::B4,
                rs: Reg::R5,
                base: Reg::R6,
                disp: -8,
            },
            Instr::Syscall,
            Instr::AluRi {
                op: janitizer_isa::AluOp::Add,
                rd: Reg::R7,
                imm: 1,
            },
        ] {
            let a = Action::of(&insn);
            assert_eq!(Action::unpack(a.pack()), a, "{insn}");
        }
    }

    #[test]
    fn noop_actions() {
        assert!(Action::of(&Instr::Nop).is_noop());
        assert!(Action::of(&Instr::Jmp { rel: 4 }).is_noop());
        assert!(!Action::of(&Instr::Syscall).is_noop());
        assert!(!Action::of(&Instr::MovRr {
            rd: Reg::R0,
            rs: Reg::R1
        })
        .is_noop());
    }

    #[test]
    fn taint_state_granules() {
        let mut st = TaintState::default();
        st.set_mem(0x1004, true);
        assert!(st.mem_tainted(0x1000));
        assert!(st.mem_tainted(0x1007));
        assert!(!st.mem_tainted(0x1008));
        st.set_mem(0x1000, false);
        assert!(!st.mem_tainted(0x1004));
    }
}
