//! The JX-64 interpreter core: architectural state and single-instruction
//! execution, shared by the native run loop and the dynamic binary
//! modifier (which interleaves instrumentation between guest
//! instructions).

use crate::mem::MemFault;
use crate::process::Process;
use crate::syscall;
use janitizer_isa::{AluOp, Cc, DecodeError, Flags, Instr, Reg};
use std::fmt;

/// Architectural register state of the (single) guest thread.
#[derive(Clone, Debug, Default)]
pub struct CpuState {
    /// General-purpose registers `r0`–`r15`.
    pub regs: [u64; 16],
    /// Condition flags.
    pub flags: Flags,
    /// Program counter.
    pub pc: u64,
}

impl CpuState {
    /// Reads a register.
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.index()] = v;
    }

    /// Evaluates a condition code against the current flags.
    pub fn cond(&self, cc: Cc) -> bool {
        let f = self.flags;
        match cc {
            Cc::Eq => f.zf,
            Cc::Ne => !f.zf,
            Cc::Lt => f.sf != f.of,
            Cc::Le => f.zf || f.sf != f.of,
            Cc::Gt => !f.zf && f.sf == f.of,
            Cc::Ge => f.sf == f.of,
            Cc::B => f.cf,
            Cc::Ae => !f.cf,
        }
    }
}

/// Why execution stopped at a particular instruction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Data access or instruction fetch fault.
    Mem(MemFault),
    /// Integer division by zero.
    DivByZero,
    /// Explicit `trap` instruction.
    Trap,
    /// Undecodable bytes at the program counter.
    Decode(DecodeError),
    /// Unknown syscall number.
    BadSyscall(u64),
    /// Guest-initiated abort (e.g. `__stack_chk_fail`).
    Abort(String),
    /// Lazy binding failed: no module defines the symbol.
    UnresolvedSymbol(String),
    /// `halt` executed outside of a test harness.
    Halt,
}

/// A guest fault, with the program counter at which it occurred.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Fault {
    /// Address of the faulting instruction.
    pub pc: u64,
    /// What went wrong.
    pub kind: FaultKind,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault at {:#x}: ", self.pc)?;
        match &self.kind {
            FaultKind::Mem(m) => write!(f, "{m}"),
            FaultKind::DivByZero => write!(f, "division by zero"),
            FaultKind::Trap => write!(f, "trap"),
            FaultKind::Decode(e) => write!(f, "{e}"),
            FaultKind::BadSyscall(n) => write!(f, "unknown syscall {n}"),
            FaultKind::Abort(m) => write!(f, "abort: {m}"),
            FaultKind::UnresolvedSymbol(s) => write!(f, "unresolved symbol `{s}`"),
            FaultKind::Halt => write!(f, "halt"),
        }
    }
}

impl std::error::Error for Fault {}

/// Result of executing one instruction.
///
/// The fault kind is boxed so that `Step` is a dense four-way tag plus
/// one word: the kernel's match on it then folds into each instruction's
/// arm, and an instruction that falls through jumps straight back to the
/// loop head.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Step {
    /// Fall through to the next sequential instruction.
    Next,
    /// Control transferred to the given address.
    Jump(u64),
    /// The process exited with a status code.
    Exit(i64),
    /// Execution faulted.
    Fault(Box<FaultKind>),
}

impl Step {
    /// [`Step::Fault`] of `kind`, built out of line.
    #[cold]
    #[inline(never)]
    pub(crate) fn fault(kind: FaultKind) -> Step {
        Step::Fault(Box::new(kind))
    }
}

fn alu(op: AluOp, a: u64, b: u64) -> Result<(u64, Flags), FaultKind> {
    let (result, cf, of) = match op {
        AluOp::Add => {
            let (r, c) = a.overflowing_add(b);
            let o = (a as i64).overflowing_add(b as i64).1;
            (r, c, o)
        }
        AluOp::Sub | AluOp::Cmp => {
            let (r, c) = a.overflowing_sub(b);
            let o = (a as i64).overflowing_sub(b as i64).1;
            (r, c, o)
        }
        AluOp::Mul => {
            let r = a.wrapping_mul(b);
            let wide = (a as u128) * (b as u128);
            let c = wide >> 64 != 0;
            (r, c, c)
        }
        AluOp::Divu => {
            if b == 0 {
                return Err(FaultKind::DivByZero);
            }
            (a / b, false, false)
        }
        AluOp::Modu => {
            if b == 0 {
                return Err(FaultKind::DivByZero);
            }
            (a % b, false, false)
        }
        AluOp::And | AluOp::Test => (a & b, false, false),
        AluOp::Or => (a | b, false, false),
        AluOp::Xor => (a ^ b, false, false),
        AluOp::Shl => (a.wrapping_shl((b & 63) as u32), false, false),
        AluOp::Shr => (a.wrapping_shr((b & 63) as u32), false, false),
        AluOp::Sar => (
            ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
            false,
            false,
        ),
    };
    let flags = Flags {
        zf: result == 0,
        sf: (result as i64) < 0,
        cf,
        of,
    };
    Ok((result, flags))
}

#[inline]
fn mem_addr(cpu: &CpuState, base: Reg, idx: Option<(Reg, u8)>, disp: i32) -> u64 {
    let mut a = cpu.reg(base).wrapping_add(disp as i64 as u64);
    if let Some((i, s)) = idx {
        a = a.wrapping_add(cpu.reg(i) << s);
    }
    a
}

#[inline]
fn push(p: &mut Process, v: u64) -> Result<(), MemFault> {
    let sp = p.cpu.reg(Reg::SP).wrapping_sub(8);
    p.mem.write_int(sp, 8, v)?;
    p.cpu.set_reg(Reg::SP, sp);
    Ok(())
}

#[inline]
fn pop(p: &mut Process) -> Result<u64, MemFault> {
    let sp = p.cpu.reg(Reg::SP);
    let v = p.mem.read_int(sp, 8)?;
    p.cpu.set_reg(Reg::SP, sp.wrapping_add(8));
    Ok(v)
}

/// Executes one decoded instruction. Its one caller is the execution
/// kernel ([`crate::run_ops`]), into whose loop it is inlined.
///
/// `next_pc` must be the address immediately after the instruction's
/// encoding; relative branches and `call` return addresses are computed
/// from it. The caller is responsible for updating `process.cpu.pc` and
/// for cycle accounting (so the DBT can charge instrumentation cycles
/// separately). `unpaid` holds cycles the caller has charged but not yet
/// added to `p.cycles`; `syscall`, the one instruction that reads
/// `p.cycles`, adds them first.
#[inline(always)]
pub(crate) fn execute(p: &mut Process, insn: &Instr, next_pc: u64, unpaid: &mut u64) -> Step {
    match *insn {
        Instr::Nop => Step::Next,
        Instr::Halt => Step::fault(FaultKind::Halt),
        Instr::Trap => Step::fault(FaultKind::Trap),
        Instr::MovRr { rd, rs } => {
            let v = p.cpu.reg(rs);
            p.cpu.set_reg(rd, v);
            Step::Next
        }
        Instr::MovI64 { rd, imm } => {
            p.cpu.set_reg(rd, imm);
            Step::Next
        }
        Instr::MovI32 { rd, imm } => {
            p.cpu.set_reg(rd, imm as i64 as u64);
            Step::Next
        }
        Instr::LeaPc { rd, disp } => {
            p.cpu.set_reg(rd, next_pc.wrapping_add(disp as i64 as u64));
            Step::Next
        }
        Instr::Lea { rd, base, disp } => {
            let a = mem_addr(&p.cpu, base, None, disp);
            p.cpu.set_reg(rd, a);
            Step::Next
        }
        Instr::Ld {
            size,
            rd,
            base,
            disp,
        } => {
            let a = mem_addr(&p.cpu, base, None, disp);
            match p.mem.read_int(a, size.bytes()) {
                Ok(v) => {
                    p.cpu.set_reg(rd, v);
                    Step::Next
                }
                Err(f) => Step::fault(FaultKind::Mem(f)),
            }
        }
        Instr::St {
            size,
            rs,
            base,
            disp,
        } => {
            let a = mem_addr(&p.cpu, base, None, disp);
            match p.mem.write_int(a, size.bytes(), p.cpu.reg(rs)) {
                Ok(()) => Step::Next,
                Err(f) => Step::fault(FaultKind::Mem(f)),
            }
        }
        Instr::LdIdx {
            size,
            rd,
            base,
            idx,
            scale,
            disp,
        } => {
            let a = mem_addr(&p.cpu, base, Some((idx, scale)), disp);
            match p.mem.read_int(a, size.bytes()) {
                Ok(v) => {
                    p.cpu.set_reg(rd, v);
                    Step::Next
                }
                Err(f) => Step::fault(FaultKind::Mem(f)),
            }
        }
        Instr::StIdx {
            size,
            rs,
            base,
            idx,
            scale,
            disp,
        } => {
            let a = mem_addr(&p.cpu, base, Some((idx, scale)), disp);
            match p.mem.write_int(a, size.bytes(), p.cpu.reg(rs)) {
                Ok(()) => Step::Next,
                Err(f) => Step::fault(FaultKind::Mem(f)),
            }
        }
        Instr::AluRr { op, rd, rs } => match alu(op, p.cpu.reg(rd), p.cpu.reg(rs)) {
            Ok((v, fl)) => {
                if op.writes_dest() {
                    p.cpu.set_reg(rd, v);
                }
                p.cpu.flags = fl;
                Step::Next
            }
            Err(k) => Step::fault(k),
        },
        Instr::AluRi { op, rd, imm } => match alu(op, p.cpu.reg(rd), imm as i64 as u64) {
            Ok((v, fl)) => {
                if op.writes_dest() {
                    p.cpu.set_reg(rd, v);
                }
                p.cpu.flags = fl;
                Step::Next
            }
            Err(k) => Step::fault(k),
        },
        Instr::Neg { rd } => {
            let (v, fl) = alu(AluOp::Sub, 0, p.cpu.reg(rd)).expect("sub cannot fault");
            p.cpu.set_reg(rd, v);
            p.cpu.flags = fl;
            Step::Next
        }
        Instr::Not { rd } => {
            let v = !p.cpu.reg(rd);
            p.cpu.set_reg(rd, v);
            p.cpu.flags = Flags {
                zf: v == 0,
                sf: (v as i64) < 0,
                cf: false,
                of: false,
            };
            Step::Next
        }
        Instr::Push { rs } => {
            let v = p.cpu.reg(rs);
            match push(p, v) {
                Ok(()) => Step::Next,
                Err(f) => Step::fault(FaultKind::Mem(f)),
            }
        }
        Instr::Pop { rd } => match pop(p) {
            Ok(v) => {
                p.cpu.set_reg(rd, v);
                Step::Next
            }
            Err(f) => Step::fault(FaultKind::Mem(f)),
        },
        Instr::PushF => {
            let v = p.cpu.flags.to_byte() as u64;
            match push(p, v) {
                Ok(()) => Step::Next,
                Err(f) => Step::fault(FaultKind::Mem(f)),
            }
        }
        Instr::PopF => match pop(p) {
            Ok(v) => {
                p.cpu.flags = Flags::from_byte(v as u8);
                Step::Next
            }
            Err(f) => Step::fault(FaultKind::Mem(f)),
        },
        Instr::Jmp { rel } => Step::Jump(next_pc.wrapping_add(rel as i64 as u64)),
        Instr::Jcc { cc, rel } => {
            if p.cpu.cond(cc) {
                Step::Jump(next_pc.wrapping_add(rel as i64 as u64))
            } else {
                Step::Next
            }
        }
        Instr::Call { rel } => match push(p, next_pc) {
            Ok(()) => Step::Jump(next_pc.wrapping_add(rel as i64 as u64)),
            Err(f) => Step::fault(FaultKind::Mem(f)),
        },
        Instr::CallInd { rs } => {
            let target = p.cpu.reg(rs);
            match push(p, next_pc) {
                Ok(()) => Step::Jump(target),
                Err(f) => Step::fault(FaultKind::Mem(f)),
            }
        }
        Instr::JmpInd { rs } => Step::Jump(p.cpu.reg(rs)),
        Instr::Ret => match pop(p) {
            Ok(t) => Step::Jump(t),
            Err(f) => Step::fault(FaultKind::Mem(f)),
        },
        Instr::Syscall => {
            p.cycles += std::mem::take(unpaid);
            syscall::dispatch(p)
        }
        Instr::RdTls { rd, off } => {
            let v = p.read_tls(off);
            p.cpu.set_reg(rd, v);
            Step::Next
        }
        Instr::WrTls { rs, off } => {
            let v = p.cpu.reg(rs);
            p.write_tls(off, v);
            Step::Next
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_flags_add_sub() {
        let (v, f) = alu(AluOp::Add, 1, 2).unwrap();
        assert_eq!(v, 3);
        assert!(!f.zf && !f.sf && !f.cf && !f.of);

        let (_, f) = alu(AluOp::Add, u64::MAX, 1).unwrap();
        assert!(f.zf && f.cf && !f.of);

        let (_, f) = alu(AluOp::Add, i64::MAX as u64, 1).unwrap();
        assert!(f.of && f.sf, "signed overflow wraps negative");

        let (_, f) = alu(AluOp::Cmp, 1, 2).unwrap();
        assert!(f.cf, "unsigned borrow");
        assert!(f.sf != f.of);

        let (_, f) = alu(AluOp::Sub, 5, 5).unwrap();
        assert!(f.zf);
    }

    #[test]
    fn div_by_zero_faults() {
        assert_eq!(alu(AluOp::Divu, 1, 0).unwrap_err(), FaultKind::DivByZero);
        assert_eq!(alu(AluOp::Modu, 1, 0).unwrap_err(), FaultKind::DivByZero);
        assert_eq!(alu(AluOp::Divu, 7, 2).unwrap().0, 3);
        assert_eq!(alu(AluOp::Modu, 7, 2).unwrap().0, 1);
    }

    #[test]
    fn shift_semantics() {
        assert_eq!(alu(AluOp::Shl, 1, 8).unwrap().0, 256);
        assert_eq!(alu(AluOp::Shr, u64::MAX, 63).unwrap().0, 1);
        assert_eq!(
            alu(AluOp::Sar, (-8i64) as u64, 2).unwrap().0,
            (-2i64) as u64
        );
        // Shift counts are masked to 63.
        assert_eq!(alu(AluOp::Shl, 1, 64).unwrap().0, 1);
    }

    #[test]
    fn condition_codes() {
        let mut cpu = CpuState::default();
        // 1 < 2 signed and unsigned.
        let (_, f) = alu(AluOp::Cmp, 1, 2).unwrap();
        cpu.flags = f;
        assert!(cpu.cond(Cc::Lt) && cpu.cond(Cc::B) && cpu.cond(Cc::Ne));
        assert!(!cpu.cond(Cc::Ge) && !cpu.cond(Cc::Eq));
        // -1 < 1 signed, but above unsigned.
        let (_, f) = alu(AluOp::Cmp, u64::MAX, 1).unwrap();
        cpu.flags = f;
        assert!(!cpu.cond(Cc::Gt));
        assert!(cpu.cond(Cc::Lt), "-1 < 1 signed");
        assert!(cpu.cond(Cc::Ae), "u64::MAX >= 1 unsigned");
        // equality
        let (_, f) = alu(AluOp::Cmp, 3, 3).unwrap();
        cpu.flags = f;
        assert!(cpu.cond(Cc::Eq) && cpu.cond(Cc::Le) && cpu.cond(Cc::Ge));
    }

    #[test]
    fn mul_sets_carry_on_wide_result() {
        let (_, f) = alu(AluOp::Mul, 1 << 40, 1 << 40).unwrap();
        assert!(f.cf && f.of);
        let (v, f) = alu(AluOp::Mul, 3, 4).unwrap();
        assert_eq!(v, 12);
        assert!(!f.cf);
    }
}
