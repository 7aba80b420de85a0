//! Register and arithmetic-flag liveness (paper §3.3.2).
//!
//! Backward dataflow over each function's blocks. The results drive the
//! instrumentation optimization in JASan: a shadow check needs scratch
//! registers and clobbers the flags, so knowing what is *dead* at each
//! instrumentation point lets the dynamic modifier skip spills and flag
//! preservation. Indirect control flow with unknown targets is treated
//! conservatively ("we assume that all arithmetic flags are live").
//!
//! The module also computes the **inter-procedural** patch for the
//! `ipa-ra` hazard of §4.1.2: registers held live across a call site in
//! the caller are reported as `inbound` for the callee, so instrumentation
//! inside the callee will not use them as scratch even though a purely
//! intra-procedural view says they are dead.

use crate::cfg::{ModuleCfg, Term};
use janitizer_isa::{Instr, Reg, ABI};
use std::collections::HashMap;

/// All sixteen registers.
pub const ALL_REGS: u16 = 0xffff;

/// Liveness facts for one module.
#[derive(Clone, Debug, Default)]
pub struct Liveness {
    /// Registers live immediately **before** each instruction.
    pub live_before: HashMap<u64, u16>,
    /// Whether the flags are live immediately before each instruction.
    pub flags_live_before: HashMap<u64, bool>,
    /// For each function entry: caller-saved registers observed live
    /// across a call to it from within this module (the ipa-ra hazard
    /// set). Instrumentation in the callee must treat these as live.
    pub inbound: HashMap<u64, u16>,
}

impl Liveness {
    /// Registers that are safe to clobber before the instruction at
    /// `addr`: neither live-before, nor read by the instruction itself,
    /// nor the stack pointer. Unknown instructions get an empty set
    /// (fully conservative).
    pub fn dead_regs_at(&self, addr: u64, insn: &Instr) -> u16 {
        match self.live_before.get(&addr) {
            Some(live) => !(live | insn.uses() | Reg::SP.bit() | Reg::FP.bit()),
            None => 0,
        }
    }

    /// Whether instrumentation before `addr` must preserve the flags.
    /// Unknown addresses are conservatively live.
    pub fn flags_live_at(&self, addr: u64) -> bool {
        self.flags_live_before.get(&addr).copied().unwrap_or(true)
    }
}

/// Per-block summary used during the fixpoint.
#[derive(Clone, Copy, Default)]
struct BlockFacts {
    live_in: u16,
    flags_in: bool,
}

/// The registers assumed live at a return: the return value and everything
/// the caller expects preserved.
fn ret_live() -> u16 {
    ABI::RET.bit() | ABI::callee_saved_mask() | Reg::SP.bit()
}

/// Transfer function for one instruction (backward).
fn step(insn: &Instr, live_out: u16, flags_out: bool) -> (u16, bool) {
    let mut live = live_out;
    let mut flags = flags_out;
    match insn {
        Instr::Call { .. } | Instr::CallInd { .. } => {
            // The callee may read the argument registers and clobbers the
            // caller-saved set; it preserves callee-saved and sp. Flags
            // are clobbered by calls (not preserved across them).
            live &= !ABI::caller_saved_mask();
            let arg_mask: u16 = ABI::ARGS.iter().map(|r| r.bit()).sum();
            live |= arg_mask | Reg::SP.bit();
            if let Instr::CallInd { rs } = insn {
                live |= rs.bit();
            }
            flags = false;
        }
        Instr::Syscall => {
            live &= !Reg::R0.bit();
            let arg_mask: u16 = ABI::ARGS.iter().map(|r| r.bit()).sum();
            live |= arg_mask;
        }
        Instr::Ret => {
            live = ret_live();
            flags = false;
        }
        _ => {
            live &= !insn.defs();
            live |= insn.uses();
            if insn.uses_sp() {
                live |= Reg::SP.bit();
            }
            if insn.sets_flags() {
                flags = false;
            }
            if insn.reads_flags() {
                flags = true;
            }
        }
    }
    (live, flags)
}

/// Iteration fuel for the fixpoint: rounds before the analysis gives up
/// and falls back to fully conservative facts. Compiler-shaped CFGs
/// converge in a handful of rounds; hostile or degenerate CFGs must not
/// be able to spin the analyzer (ISSUE: resource guards), and — more
/// importantly — facts from a *non-converged* fixpoint may still be
/// optimistic and therefore unsound to optimize on.
const FIXPOINT_FUEL: u64 = 64;

/// Computes liveness for every recovered instruction in the module.
///
/// If the fixpoint does not converge within [`FIXPOINT_FUEL`] rounds the
/// result is an *empty* fact set — which every consumer already treats
/// as fully conservative ([`Liveness::dead_regs_at`] reports nothing
/// dead, [`Liveness::flags_live_at`] reports flags live) — and the
/// exhaustion is telemetry-visible (`analysis.fuel_exhausted`).
pub fn compute_liveness(cfg: &ModuleCfg) -> Liveness {
    let mut facts: HashMap<u64, BlockFacts> = HashMap::new();

    // Fixpoint over blocks (module-wide; function boundaries are handled
    // by the call/ret transfer functions).
    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < FIXPOINT_FUEL {
        // Service-armed work budget: one charge per block visited this
        // round. Exhaustion takes the same conservative bail as fuel.
        if !crate::budget::charge(cfg.blocks.len() as u64) {
            break;
        }
        changed = false;
        rounds += 1;
        for (&start, block) in cfg.blocks.iter().rev() {
            // live-out = union of successor live-ins; unknown successors
            // (unresolved indirect jumps) are fully conservative.
            let (mut live_out, mut flags_out) = match block.term {
                Term::Ret => (ret_live(), false),
                Term::Stop => (0, false),
                Term::IndirectJump { resolved: false } => (ALL_REGS, true),
                _ => {
                    let mut l = 0u16;
                    let mut f = false;
                    for s in &block.succs {
                        if let Some(bf) = facts.get(s) {
                            l |= bf.live_in;
                            f |= bf.flags_in;
                        } else if !cfg.blocks.contains_key(s) {
                            // Successor outside recovered code.
                            l = ALL_REGS;
                            f = true;
                        }
                    }
                    (l, f)
                }
            };
            for (_, insn) in block.insns.iter().rev() {
                let (l, f) = step(insn, live_out, flags_out);
                live_out = l;
                flags_out = f;
            }
            let entry = facts.entry(start).or_default();
            if entry.live_in != live_out || entry.flags_in != flags_out {
                entry.live_in = live_out;
                entry.flags_in = flags_out;
                changed = true;
            }
        }
    }
    janitizer_telemetry::counter_add("analysis.liveness.fixpoint_rounds", rounds);
    janitizer_telemetry::histogram_record("analysis.liveness.rounds_per_module", rounds);
    if changed {
        // Fuel exhausted before convergence: the block facts may still be
        // optimistic, so optimizing on them would be unsound. Fall back
        // to the empty (all-live) fact set.
        janitizer_telemetry::counter_add("analysis.fuel_exhausted", 1);
        janitizer_telemetry::event!(
            "analysis.fuel_exhausted",
            analysis = "liveness",
            rounds = rounds
        );
        return Liveness::default();
    }

    // Final pass: record per-instruction facts and call-site inbound sets.
    let mut live_before = HashMap::new();
    let mut flags_live_before = HashMap::new();
    let mut inbound: HashMap<u64, u16> = HashMap::new();
    for block in cfg.blocks.values() {
        let (mut live_out, mut flags_out) = match block.term {
            Term::Ret => (ret_live(), false),
            Term::Stop => (0, false),
            Term::IndirectJump { resolved: false } => (ALL_REGS, true),
            _ => {
                let mut l = 0u16;
                let mut f = false;
                for s in &block.succs {
                    if let Some(bf) = facts.get(s) {
                        l |= bf.live_in;
                        f |= bf.flags_in;
                    } else if !cfg.blocks.contains_key(s) {
                        l = ALL_REGS;
                        f = true;
                    }
                }
                (l, f)
            }
        };
        // Walk backwards, recording facts *before* each instruction.
        for (addr, insn) in block.insns.iter().rev() {
            // `live_out` here is the liveness *after* `insn`. A direct
            // call whose live-after set still contains caller-saved
            // registers is an ipa-ra-style convention break: record it
            // against the callee.
            if let (Instr::Call { .. }, Some(target)) = (insn, block.call_target) {
                // r0 is excluded: it is live-after as the call's *result*,
                // not as a value held across the call.
                let hazard = live_out & ABI::caller_saved_mask() & !ABI::RET.bit();
                if hazard != 0 {
                    *inbound.entry(target).or_default() |= hazard;
                }
            }
            let (l, f) = step(insn, live_out, flags_out);
            live_before.insert(*addr, l);
            flags_live_before.insert(*addr, f);
            live_out = l;
            flags_out = f;
        }
    }

    Liveness {
        live_before,
        flags_live_before,
        inbound,
    }
}
