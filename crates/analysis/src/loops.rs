//! SCEV-lite loop analysis (paper §3.3.2).
//!
//! Finds natural loops, counted-loop trip bounds (a register stepped by a
//! constant and compared against a bound), and memory operands whose
//! address is **loop-invariant** — neither the base register nor the
//! displacement changes inside the loop. JASan uses the invariant set to
//! demote per-iteration shadow checks to a cached check (one full check on
//! the first iteration, a two-instruction address-cache hit afterwards).

use crate::cfg::ModuleCfg;
use janitizer_isa::{Instr, Reg};
use std::collections::{BTreeSet, HashMap};

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

/// Work budget for loop discovery, in predecessor-scan block visits.
/// The body-collection walk is quadratic in pathological CFGs (every
/// popped block rescans all blocks for predecessors); hostile inputs
/// must not be able to spin the analyzer. On exhaustion the loops found
/// so far are returned — strictly conservative: undetected loops just
/// mean fewer cached-check optimizations, never wrong ones.
const LOOP_SCAN_FUEL: u64 = 20_000_000;

/// Finds natural loops via DFS back edges (an edge `a -> h` where `h`
/// dominates `a` is approximated here by reachability: `h` reaches `a`
/// through loop-body blocks only — adequate for compiler-shaped CFGs).
///
/// Bounded by [`LOOP_SCAN_FUEL`]; exhaustion is telemetry-visible
/// (`analysis.fuel_exhausted`) and yields the partial (conservative)
/// result.
pub fn find_loops(cfg: &ModuleCfg) -> Vec<Loop> {
    let mut loops = Vec::new();
    let mut fuel = LOOP_SCAN_FUEL;
    for (&latch, block) in &cfg.blocks {
        for &succ in &block.succs {
            if succ > latch || !cfg.blocks.contains_key(&succ) {
                continue; // back edges go backwards in address order here
            }
            let header = succ;
            // Collect the body: blocks on paths header ->* latch, found by
            // walking backwards from the latch until the header.
            let mut body: BTreeSet<u64> = BTreeSet::new();
            body.insert(header);
            let mut work = vec![latch];
            while let Some(b) = work.pop() {
                if !body.insert(b) {
                    continue;
                }
                match fuel.checked_sub(cfg.blocks.len() as u64) {
                    Some(left) if crate::budget::charge(cfg.blocks.len() as u64) => fuel = left,
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
                // predecessors of b
                for (&pa, pb) in &cfg.blocks {
                    if pb.succs.contains(&b) && pa >= header && pa <= latch && !body.contains(&pa) {
                        work.push(pa);
                    }
                }
            }
            // Validate: every body block lies in [header, latch].
            if body.iter().any(|b| *b < header || *b > latch) {
                continue;
            }
            let mut clobbered = 0u16;
            for b in &body {
                for (_, insn) in &cfg.blocks[b].insns {
                    clobbered |= insn.defs();
                    if matches!(
                        insn,
                        Instr::Call { .. } | Instr::CallInd { .. } | Instr::Syscall
                    ) {
                        clobbered = 0xffff; // calls may clobber anything
                    }
                }
            }
            // Induction variable: exactly one `add r, imm` / `sub r, imm`
            // of a register that is also compared in the loop.
            let mut steps: HashMap<Reg, (i64, u32)> = HashMap::new();
            let mut compared: BTreeSet<Reg> = BTreeSet::new();
            for b in &body {
                for (_, insn) in &cfg.blocks[b].insns {
                    match insn {
                        Instr::AluRi {
                            op: janitizer_isa::AluOp::Add,
                            rd,
                            imm,
                        } => {
                            let e = steps.entry(*rd).or_insert((0, 0));
                            e.0 = *imm as i64;
                            e.1 += 1;
                        }
                        Instr::AluRi {
                            op: janitizer_isa::AluOp::Sub,
                            rd,
                            imm,
                        } => {
                            let e = steps.entry(*rd).or_insert((0, 0));
                            e.0 = -(*imm as i64);
                            e.1 += 1;
                        }
                        Instr::AluRi {
                            op: janitizer_isa::AluOp::Cmp,
                            rd,
                            ..
                        } => {
                            compared.insert(*rd);
                        }
                        Instr::AluRr {
                            op: janitizer_isa::AluOp::Cmp,
                            rd,
                            rs,
                        } => {
                            compared.insert(*rd);
                            compared.insert(*rs);
                        }
                        _ => {}
                    }
                }
            }
            let induction = steps
                .iter()
                .find(|(r, (_, n))| *n == 1 && compared.contains(r))
                .map(|(r, (step, _))| Induction {
                    reg: *r,
                    step: *step,
                });
            loops.push(Loop {
                header,
                body,
                latch,
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

/// Stack-frame size analysis: the `sub sp, N` in a recognized prologue.
pub fn frame_sizes(cfg: &ModuleCfg) -> HashMap<u64, u64> {
    let mut out = HashMap::new();
    for f in &cfg.functions {
        let Some(block) = cfg.blocks.get(&f.entry) else {
            continue;
        };
        // push fp; mov fp, sp; sub sp, N
        for (_, insn) in block.insns.iter().take(4) {
            if let Instr::AluRi {
                op: janitizer_isa::AluOp::Sub,
                rd: Reg::R15,
                imm,
            } = insn
            {
                out.insert(f.entry, *imm as u64);
                break;
            }
        }
    }
    out
}
