//! The guest execution kernel: one loop over pre-decoded instructions,
//! shared by [`Process::run_native`] and the dynamic modifier's
//! translated blocks.
//!
//! A block is decoded once into [`Op`]s, each carrying its static cost,
//! so the loop charges a stored number instead of re-matching the
//! instruction. Each op's cost counts before the op runs, so a fault,
//! an exit or a `cycles` syscall at op `k` sees exactly the costs of ops
//! `1..=k`.

use crate::cpu::{execute, Fault, Step};
use crate::process::Process;
use janitizer_isa::Instr;

/// One pre-decoded guest instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// The instruction.
    pub insn: Instr,
    /// Its address.
    pub pc: u64,
    /// Address just past its encoding.
    pub next: u64,
    /// Its static cost, [`Instr::cost`], computed once at decode.
    pub cost: u64,
}

impl Op {
    /// The op for `insn` at `pc`, whose encoding ends at `next`.
    pub fn new(pc: u64, insn: Instr, next: u64) -> Op {
        Op {
            insn,
            pc,
            next,
            cost: insn.cost(),
        }
    }
}

/// How a run of ops ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunEnd {
    /// Execution continues at this pc: the successor of the last op run.
    Next(u64),
    /// The process exited with a status code.
    Exited(i64),
    /// An op faulted.
    Fault(Fault),
}

/// A run's result: how many ops executed (a faulting or exiting op
/// counts) and how it ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ran {
    /// Ops executed, also added to [`Process::insns`].
    pub insns: u64,
    /// How the run ended.
    pub end: RunEnd,
}

/// The loop. With `EXACT`, it also keeps `p.cpu.pc` at the running op,
/// stops before an op once `fuel` cycles are spent, and stops after an
/// op that changed executable memory, so the caller can re-check both
/// between any two instructions. Without it, op costs add up in a local
/// that is paid into `p.cycles` before a `syscall` runs and when the
/// run returns, which are the only points where the count is read.
#[inline(always)]
fn run<const EXACT: bool>(p: &mut Process, ops: &[Op], fuel: u64, code_gen: u64) -> Ran {
    let mut next = ops.first().map_or(p.cpu.pc, |o| o.pc);
    let mut unpaid = 0;
    let mut ran = ops.len();
    let mut end = None;
    for (i, op) in ops.iter().enumerate() {
        if EXACT && p.cycles >= fuel {
            ran = i;
            next = op.pc;
            break;
        }
        if EXACT {
            p.cpu.pc = op.pc;
            p.cycles += op.cost;
        } else {
            unpaid += op.cost;
        }
        match execute(p, &op.insn, op.next, &mut unpaid) {
            Step::Next => next = op.next,
            Step::Jump(t) => next = t,
            Step::Exit(c) => {
                end = Some(RunEnd::Exited(c));
                ran = i + 1;
                break;
            }
            Step::Fault(kind) => {
                end = Some(RunEnd::Fault(Fault {
                    pc: op.pc,
                    kind: *kind,
                }));
                ran = i + 1;
                break;
            }
        }
        if EXACT && p.mem.code_generation() != code_gen {
            ran = i + 1;
            break;
        }
    }
    p.cycles += unpaid;
    p.insns += ran as u64;
    Ran {
        insns: ran as u64,
        end: end.unwrap_or(RunEnd::Next(next)),
    }
}

/// Runs `ops` in order, charging each op's cost before it executes and
/// counting it in [`Process::insns`]. A taken branch does not end the
/// run: later ops still execute, and the result is the successor of
/// the last one, as a translated block executes its items.
pub fn run_ops(p: &mut Process, ops: &[Op]) -> Ran {
    run::<false>(p, ops, u64::MAX, 0)
}

/// [`run_ops`] that also keeps `p.cpu.pc` at the op running (so a fault
/// or exit leaves it there), stops before an op once `p.cycles >= fuel`,
/// and stops after an op that moved [`crate::Memory::code_generation`]
/// away from `code_gen` (a write to executable memory), returning the
/// pc to resume at. The native loop uses it to stay exact against a
/// per-instruction interpreter on fuel and self-modifying code.
pub(crate) fn run_ops_exact(p: &mut Process, ops: &[Op], fuel: u64, code_gen: u64) -> Ran {
    run::<true>(p, ops, fuel, code_gen)
}
