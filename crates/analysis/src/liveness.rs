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

use crate::cfg::{Block, ModuleCfg, Term};
use janitizer_isa::{Instr, PcMap, Reg, ABI};
use std::ops::Range;

/// All sixteen registers.
pub const ALL_REGS: u16 = 0xffff;

/// Liveness facts for one module.
#[derive(Clone, Debug, Default)]
pub struct Liveness {
    /// Registers live, and whether the flags are live, immediately
    /// **before** each instruction.
    pub before: PcMap<(u16, bool)>,
    /// For each function entry: caller-saved registers observed live
    /// across a call to it from within this module (the ipa-ra hazard
    /// set). Instrumentation in the callee must treat these as live.
    pub inbound: PcMap<u16>,
}

impl Liveness {
    /// Registers that are safe to clobber before the instruction at
    /// `addr`: neither live-before, nor read by the instruction itself,
    /// nor the stack pointer. Unknown instructions get an empty set
    /// (fully conservative).
    pub fn dead_regs_at(&self, addr: u64, insn: &Instr) -> u16 {
        match self.before.get(&addr) {
            Some((live, _)) => !(live | insn.uses() | Reg::SP.bit() | Reg::FP.bit()),
            None => 0,
        }
    }

    /// Whether instrumentation before `addr` must preserve the flags.
    /// Unknown addresses are conservatively live.
    pub fn flags_live_at(&self, addr: u64) -> bool {
        self.before.get(&addr).is_none_or(|&(_, flags)| flags)
    }
}

/// The registers assumed live at a return: the return value and everything
/// the caller expects preserved.
fn ret_live() -> u16 {
    ABI::RET.bit() | ABI::callee_saved_mask() | Reg::SP.bit()
}

/// A backward transfer function: live registers `r` become
/// `(r & keep) | gen`, and live flags `f` become `(f & fkeep) | fgen`.
/// Every instruction's effect has this shape, and so has any sequence of
/// them, so a block's effect is computed once and applied each round.
#[derive(Clone, Copy)]
struct Transfer {
    keep: u16,
    gen: u16,
    fkeep: bool,
    fgen: bool,
}

impl Transfer {
    /// The effect of an empty sequence.
    const IDENTITY: Transfer = Transfer {
        keep: ALL_REGS,
        gen: 0,
        fkeep: true,
        fgen: false,
    };

    /// The effect of one instruction.
    fn of(insn: &Instr) -> Transfer {
        let arg_mask: u16 = ABI::ARGS.iter().map(|r| r.bit()).sum();
        match insn {
            // The callee may read the argument registers and clobbers the
            // caller-saved set; it preserves callee-saved and sp. Flags
            // are clobbered by calls (not preserved across them).
            Instr::Call { .. } | Instr::CallInd { .. } => Transfer {
                keep: !ABI::caller_saved_mask(),
                gen: arg_mask
                    | Reg::SP.bit()
                    | match insn {
                        Instr::CallInd { rs } => rs.bit(),
                        _ => 0,
                    },
                fkeep: false,
                fgen: false,
            },
            Instr::Syscall => Transfer {
                keep: !Reg::R0.bit(),
                gen: arg_mask,
                ..Transfer::IDENTITY
            },
            Instr::Ret => Transfer {
                keep: 0,
                gen: ret_live(),
                fkeep: false,
                fgen: false,
            },
            _ => Transfer {
                keep: !insn.defs(),
                gen: insn.uses() | if insn.uses_sp() { Reg::SP.bit() } else { 0 },
                fkeep: !insn.sets_flags(),
                fgen: insn.reads_flags(),
            },
        }
    }

    /// Live registers and flags before, given those after.
    fn apply(self, live: u16, flags: bool) -> (u16, bool) {
        (
            (live & self.keep) | self.gen,
            (flags & self.fkeep) | self.fgen,
        )
    }

    /// The effect of running `self`'s instructions, then `later`'s.
    fn then(self, later: Transfer) -> Transfer {
        Transfer {
            keep: later.keep & self.keep,
            gen: (later.gen & self.keep) | self.gen,
            fkeep: later.fkeep & self.fkeep,
            fgen: (later.fgen & self.fkeep) | self.fgen,
        }
    }
}

/// Where a block's live-out facts come from.
enum LiveOut {
    /// Fixed by the terminator, or fully conservative because a
    /// successor lies outside recovered code.
    Fixed(u16, bool),
    /// The union of the live-in facts of these blocks (indices into a
    /// flat successor list).
    Join(Range<usize>),
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
    // Blocks by position in address order; facts and successors are
    // indexed the same way.
    let blocks: Vec<&Block> = cfg.blocks.values().collect();
    let mut succs: Vec<usize> = Vec::new();
    let outs: Vec<LiveOut> = blocks
        .iter()
        .map(|block| match block.term {
            Term::Ret => LiveOut::Fixed(ret_live(), false),
            Term::Stop => LiveOut::Fixed(0, false),
            Term::IndirectJump { resolved: false } => LiveOut::Fixed(ALL_REGS, true),
            _ => {
                let from = succs.len();
                for s in &block.succs {
                    match blocks.binary_search_by_key(s, |b| b.start) {
                        Ok(i) => succs.push(i),
                        Err(_) => {
                            // Successor outside recovered code.
                            succs.truncate(from);
                            return LiveOut::Fixed(ALL_REGS, true);
                        }
                    }
                }
                LiveOut::Join(from..succs.len())
            }
        })
        .collect();
    let live_out = |i: usize, facts: &[(u16, bool)]| match &outs[i] {
        LiveOut::Fixed(l, f) => (*l, *f),
        LiveOut::Join(r) => succs[r.clone()]
            .iter()
            .fold((0, false), |(l, f), &s| (l | facts[s].0, f | facts[s].1)),
    };
    let summaries: Vec<Transfer> = blocks
        .iter()
        .map(|b| {
            b.insns.iter().fold(Transfer::IDENTITY, |t, (_, insn)| {
                t.then(Transfer::of(insn))
            })
        })
        .collect();

    // Fixpoint over blocks (module-wide; function boundaries are handled
    // by the call/ret transfer functions), in reverse address order. A
    // block not yet visited contributes nothing to its predecessors.
    let mut facts: Vec<(u16, bool)> = vec![(0, false); blocks.len()];
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
        for i in (0..blocks.len()).rev() {
            let (l, f) = live_out(i, &facts);
            let live_in = summaries[i].apply(l, f);
            if facts[i] != live_in {
                facts[i] = live_in;
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
    // Where blocks share an instruction, the later block's facts stand.
    let mut before: PcMap<(u16, bool)> = PcMap::default();
    before.reserve(blocks.iter().map(|b| b.insns.len()).sum());
    let mut inbound: PcMap<u16> = PcMap::default();
    for (i, block) in blocks.iter().enumerate() {
        let (mut live_out, mut flags_out) = live_out(i, &facts);
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
            (live_out, flags_out) = Transfer::of(insn).apply(live_out, flags_out);
            before.insert(*addr, (live_out, flags_out));
        }
    }

    Liveness { before, inbound }
}
