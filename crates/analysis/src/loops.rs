//! SCEV-lite loop analysis (paper §3.3.2).
//!
//! Finds natural loops, counted-loop trip bounds (a register stepped by a
//! constant and compared against a bound), and memory operands whose
//! address is **loop-invariant** — neither the base register nor the
//! displacement changes inside the loop. JASan uses the invariant set to
//! demote per-iteration shadow checks to a cached check (one full check on
//! the first iteration, a two-instruction address-cache hit afterwards).

use crate::cfg::{Block, ModuleCfg};
use janitizer_isa::{Instr, Reg};
use std::collections::BTreeSet;

/// A natural loop.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Loop {
    /// Loop header block address.
    pub header: u64,
    /// Addresses of the blocks in the loop body (including the header).
    pub body: BTreeSet<u64>,
    /// The back-edge source block.
    pub latch: u64,
    /// Registers written anywhere in the loop body.
    pub clobbered: u16,
    /// A detected counted induction variable, if any.
    pub induction: Option<Induction>,
}

/// A counted induction variable `r += step` bounded by a comparison.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Induction {
    /// The induction register.
    pub reg: Reg,
    /// Per-iteration step.
    pub step: i64,
}

/// A memory operand with a loop-invariant address.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InvariantAccess {
    /// Instruction address.
    pub instr_addr: u64,
    /// Header of the loop it is invariant in.
    pub loop_header: u64,
    /// True when the enclosing loop is *counted* (a recognized induction
    /// variable, SCEV-lite §3.3.2): the trip pattern is regular enough
    /// that a checker may hoist the access's shadow check to the first
    /// iteration and reuse its verdict while the shadow state is
    /// untouched.
    pub counted: bool,
}

/// Work budget for loop discovery, in predecessor-scan block visits:
/// each block added to a loop body is charged the module's block count
/// (what scanning every block for its predecessors once cost), so the
/// units track the quadratic worst case of pathological CFGs; hostile
/// inputs must not be able to spin the analyzer. On exhaustion the loops
/// found so far are returned — strictly conservative: undetected loops
/// just mean fewer cached-check optimizations, never wrong ones.
const LOOP_SCAN_FUEL: u64 = 20_000_000;

/// Finds natural loops via DFS back edges (an edge `a -> h` where `h`
/// dominates `a` is approximated here by reachability: `h` reaches `a`
/// through loop-body blocks only — adequate for compiler-shaped CFGs).
///
/// Bounded by [`LOOP_SCAN_FUEL`]; exhaustion is telemetry-visible
/// (`analysis.fuel_exhausted`) and yields the partial (conservative)
/// result.
pub fn find_loops(cfg: &ModuleCfg) -> Vec<Loop> {
    // Blocks by position in address order, and each block's
    // predecessors as positions, ascending and without repeats.
    let blocks: Vec<&Block> = cfg.blocks.values().collect();
    let position = |a: u64| blocks.binary_search_by_key(&a, |b| b.start).ok();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); blocks.len()];
    for (p, block) in blocks.iter().enumerate() {
        for &s in &block.succs {
            if let Some(i) = position(s) {
                if preds[i].last() != Some(&p) {
                    preds[i].push(p);
                }
            }
        }
    }
    let units = blocks.len() as u64;
    let mut loops = Vec::new();
    let mut fuel = LOOP_SCAN_FUEL;
    // `in_body[b] == walk` marks the blocks of the current walk's body.
    let mut in_body: Vec<usize> = vec![usize::MAX; blocks.len()];
    let mut walk = 0;
    for (latch, block) in blocks.iter().enumerate() {
        for &succ in &block.succs {
            if succ > block.start {
                continue; // back edges go backwards in address order here
            }
            let Some(header) = position(succ) else {
                continue;
            };
            // Collect the body: blocks on paths header ->* latch, found by
            // walking backwards from the latch until the header.
            walk += 1;
            in_body[header] = walk;
            let mut body = vec![header];
            let mut work = vec![latch];
            while let Some(b) = work.pop() {
                if in_body[b] == walk {
                    continue;
                }
                in_body[b] = walk;
                body.push(b);
                match fuel.checked_sub(units) {
                    Some(left) if crate::budget::charge(units) => fuel = left,
                    _ => {
                        janitizer_telemetry::counter_add("analysis.fuel_exhausted", 1);
                        janitizer_telemetry::event!(
                            "analysis.fuel_exhausted",
                            analysis = "loops",
                            found = loops.len(),
                        );
                        return loops;
                    }
                }
                // Only predecessors between the header and the latch join
                // the body; positions order like addresses.
                for &pa in &preds[b] {
                    if pa >= header && pa <= latch && in_body[pa] != walk {
                        work.push(pa);
                    }
                }
            }
            body.sort_unstable();
            let mut clobbered = 0u16;
            // Induction variable: exactly one `add r, imm` / `sub r, imm`
            // of a register that is also compared in the loop.
            let mut steps: [(i64, u32); 16] = [(0, 0); 16];
            let mut compared = 0u16;
            for &b in &body {
                for (_, insn) in &blocks[b].insns {
                    clobbered |= insn.defs();
                    match insn {
                        Instr::Call { .. } | Instr::CallInd { .. } | Instr::Syscall => {
                            clobbered = 0xffff; // calls may clobber anything
                        }
                        Instr::AluRi {
                            op: janitizer_isa::AluOp::Add,
                            rd,
                            imm,
                        } => {
                            let e = &mut steps[rd.index()];
                            e.0 = *imm as i64;
                            e.1 += 1;
                        }
                        Instr::AluRi {
                            op: janitizer_isa::AluOp::Sub,
                            rd,
                            imm,
                        } => {
                            let e = &mut steps[rd.index()];
                            e.0 = -(*imm as i64);
                            e.1 += 1;
                        }
                        Instr::AluRi {
                            op: janitizer_isa::AluOp::Cmp,
                            rd,
                            ..
                        } => compared |= rd.bit(),
                        Instr::AluRr {
                            op: janitizer_isa::AluOp::Cmp,
                            rd,
                            rs,
                        } => compared |= rd.bit() | rs.bit(),
                        _ => {}
                    }
                }
            }
            // Where several registers qualify, the lowest-numbered wins.
            let induction = Reg::ALL
                .iter()
                .find(|r| steps[r.index()].1 == 1 && compared & r.bit() != 0)
                .map(|&reg| Induction {
                    reg,
                    step: steps[reg.index()].0,
                });
            loops.push(Loop {
                header: blocks[header].start,
                body: body.iter().map(|&b| blocks[b].start).collect(),
                latch: blocks[latch].start,
                clobbered,
                induction,
            });
        }
    }
    loops
}

/// Finds loads/stores inside loops whose operand address is invariant:
/// the base (and index, if present) registers are not clobbered anywhere
/// in the loop.
pub fn loop_invariant_accesses(cfg: &ModuleCfg, loops: &[Loop]) -> Vec<InvariantAccess> {
    let mut out = Vec::new();
    for lp in loops {
        if lp.clobbered == 0xffff {
            continue; // a call inside the loop spoils everything
        }
        for b in &lp.body {
            let Some(block) = cfg.blocks.get(b) else {
                continue;
            };
            for (addr, insn) in &block.insns {
                let Some(m) = insn.mem_access() else { continue };
                // Stack-relative operands are already cheap; skip them.
                if m.base == Reg::SP || m.base == Reg::FP {
                    continue;
                }
                let mut addr_regs = m.base.bit();
                if let Some(i) = m.idx {
                    addr_regs |= i.bit();
                }
                if lp.clobbered & addr_regs == 0 {
                    out.push(InvariantAccess {
                        instr_addr: *addr,
                        loop_header: lp.header,
                        counted: lp.induction.is_some(),
                    });
                }
            }
        }
    }
    // One record per instruction; when nested loops disagree, the
    // counted variant wins deterministically (it enables hoisting).
    out.sort_by_key(|a| (a.instr_addr, !a.counted, a.loop_header));
    out.dedup_by_key(|a| a.instr_addr);
    out
}
