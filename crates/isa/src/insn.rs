//! The decoded instruction form and its static metadata.

use crate::reg::Reg;
use std::fmt;

/// Width of a memory access in bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum MemSize {
    /// 1 byte.
    B1 = 1,
    /// 2 bytes.
    B2 = 2,
    /// 4 bytes.
    B4 = 4,
    /// 8 bytes.
    B8 = 8,
}

impl MemSize {
    /// Access width in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        self as u64
    }

    /// Encoding index in `0..4` (log2 of the width).
    #[inline]
    pub fn log2(self) -> u8 {
        match self {
            MemSize::B1 => 0,
            MemSize::B2 => 1,
            MemSize::B4 => 2,
            MemSize::B8 => 3,
        }
    }

    /// Inverse of [`MemSize::log2`].
    #[inline]
    pub fn from_log2(l: u8) -> Option<MemSize> {
        Some(match l {
            0 => MemSize::B1,
            1 => MemSize::B2,
            2 => MemSize::B4,
            3 => MemSize::B8,
            _ => return None,
        })
    }
}

/// Two-operand ALU operations. All of them set the four condition flags.
///
/// `Cmp` and `Test` compute `Sub`/`And` respectively but only write the
/// flags, not the destination register.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum AluOp {
    /// Addition.
    Add = 0,
    /// Subtraction.
    Sub = 1,
    /// Multiplication (low 64 bits).
    Mul = 2,
    /// Unsigned division; division by zero raises a fault.
    Divu = 3,
    /// Unsigned remainder; division by zero raises a fault.
    Modu = 4,
    /// Bitwise and.
    And = 5,
    /// Bitwise or.
    Or = 6,
    /// Bitwise exclusive-or.
    Xor = 7,
    /// Logical shift left (count masked to 63).
    Shl = 8,
    /// Logical shift right.
    Shr = 9,
    /// Arithmetic shift right.
    Sar = 10,
    /// Flags-only subtract.
    Cmp = 11,
    /// Flags-only and.
    Test = 12,
}

impl AluOp {
    /// All operations, indexed by their encoding.
    pub const ALL: [AluOp; 13] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Divu,
        AluOp::Modu,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Sar,
        AluOp::Cmp,
        AluOp::Test,
    ];

    /// Decodes an operation index.
    pub fn from_u8(v: u8) -> Option<AluOp> {
        Self::ALL.get(v as usize).copied()
    }

    /// Whether the operation writes its destination register
    /// (`Cmp`/`Test` do not).
    pub fn writes_dest(self) -> bool {
        !matches!(self, AluOp::Cmp | AluOp::Test)
    }

    /// Mnemonic used by the assembler and disassembler.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Divu => "div",
            AluOp::Modu => "mod",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Sar => "sar",
            AluOp::Cmp => "cmp",
            AluOp::Test => "test",
        }
    }
}

/// Condition codes for conditional branches, in terms of the flags written
/// by the most recent ALU instruction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Cc {
    /// Equal (ZF).
    Eq = 0,
    /// Not equal (!ZF).
    Ne = 1,
    /// Signed less-than (SF != OF).
    Lt = 2,
    /// Signed less-or-equal (ZF || SF != OF).
    Le = 3,
    /// Signed greater-than.
    Gt = 4,
    /// Signed greater-or-equal.
    Ge = 5,
    /// Unsigned below (CF).
    B = 6,
    /// Unsigned at-or-above (!CF).
    Ae = 7,
}

impl Cc {
    /// All condition codes, indexed by encoding.
    pub const ALL: [Cc; 8] = [
        Cc::Eq,
        Cc::Ne,
        Cc::Lt,
        Cc::Le,
        Cc::Gt,
        Cc::Ge,
        Cc::B,
        Cc::Ae,
    ];

    /// Decodes a condition-code index.
    pub fn from_u8(v: u8) -> Option<Cc> {
        Self::ALL.get(v as usize).copied()
    }

    /// The condition with the opposite truth value.
    pub fn negate(self) -> Cc {
        match self {
            Cc::Eq => Cc::Ne,
            Cc::Ne => Cc::Eq,
            Cc::Lt => Cc::Ge,
            Cc::Le => Cc::Gt,
            Cc::Gt => Cc::Le,
            Cc::Ge => Cc::Lt,
            Cc::B => Cc::Ae,
            Cc::Ae => Cc::B,
        }
    }

    /// Mnemonic suffix (`je`, `jne`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cc::Eq => "je",
            Cc::Ne => "jne",
            Cc::Lt => "jl",
            Cc::Le => "jle",
            Cc::Gt => "jg",
            Cc::Ge => "jge",
            Cc::B => "jb",
            Cc::Ae => "jae",
        }
    }
}

/// A decoded JX-64 instruction.
///
/// Relative branch displacements (`rel`) are measured from the **end** of
/// the instruction, as on x86.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Instr {
    /// No operation.
    Nop,
    /// Stops the processor (only meaningful in freestanding tests; programs
    /// normally exit via the `exit` syscall).
    Halt,
    /// Raises an explicit trap fault (like x86 `int3`/`ud2`).
    Trap,
    /// `rd = rs`.
    MovRr {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
    },
    /// `rd = imm` (full 64-bit immediate; how absolute code pointers are
    /// materialized in non-PIC code).
    MovI64 {
        /// Destination register.
        rd: Reg,
        /// 64-bit immediate.
        imm: u64,
    },
    /// `rd = sign_extend(imm)`.
    MovI32 {
        /// Destination register.
        rd: Reg,
        /// Sign-extended immediate.
        imm: i32,
    },
    /// `rd = pc_of_next_instruction + disp` — PC-relative address
    /// materialization, the backbone of position-independent code.
    LeaPc {
        /// Destination register.
        rd: Reg,
        /// Displacement from the next instruction's address.
        disp: i32,
    },
    /// `rd = base + disp` (no memory access, no flags).
    Lea {
        /// Destination register.
        rd: Reg,
        /// Base register.
        base: Reg,
        /// Displacement.
        disp: i32,
    },
    /// `rd = zero_extend(mem[base + disp])`.
    Ld {
        /// Access width.
        size: MemSize,
        /// Destination register.
        rd: Reg,
        /// Base register.
        base: Reg,
        /// Displacement.
        disp: i32,
    },
    /// `mem[base + disp] = truncate(rs)`.
    St {
        /// Access width.
        size: MemSize,
        /// Value register.
        rs: Reg,
        /// Base register.
        base: Reg,
        /// Displacement.
        disp: i32,
    },
    /// `rd = mem[base + idx * (1 << scale) + disp]` — indexed load, used for
    /// arrays and jump tables.
    LdIdx {
        /// Access width.
        size: MemSize,
        /// Destination register.
        rd: Reg,
        /// Base register.
        base: Reg,
        /// Index register.
        idx: Reg,
        /// log2 of the index scale.
        scale: u8,
        /// Displacement.
        disp: i32,
    },
    /// Indexed store.
    StIdx {
        /// Access width.
        size: MemSize,
        /// Value register.
        rs: Reg,
        /// Base register.
        base: Reg,
        /// Index register.
        idx: Reg,
        /// log2 of the index scale.
        scale: u8,
        /// Displacement.
        disp: i32,
    },
    /// `rd = rd <op> rs`, setting all four flags.
    AluRr {
        /// Operation.
        op: AluOp,
        /// Destination (and left operand).
        rd: Reg,
        /// Right operand.
        rs: Reg,
    },
    /// `rd = rd <op> sign_extend(imm)`, setting all four flags.
    AluRi {
        /// Operation.
        op: AluOp,
        /// Destination (and left operand).
        rd: Reg,
        /// Sign-extended right operand.
        imm: i32,
    },
    /// `rd = -rd`, setting flags.
    Neg {
        /// Register negated in place.
        rd: Reg,
    },
    /// `rd = !rd`, setting flags.
    Not {
        /// Register complemented in place.
        rd: Reg,
    },
    /// `sp -= 8; mem[sp] = rs`.
    Push {
        /// Register pushed.
        rs: Reg,
    },
    /// `rd = mem[sp]; sp += 8`.
    Pop {
        /// Register popped into.
        rd: Reg,
    },
    /// Pushes the packed flags word.
    PushF,
    /// Pops the packed flags word.
    PopF,
    /// Unconditional PC-relative jump.
    Jmp {
        /// Displacement from the next instruction.
        rel: i32,
    },
    /// Conditional PC-relative jump.
    Jcc {
        /// Branch condition.
        cc: Cc,
        /// Displacement from the next instruction.
        rel: i32,
    },
    /// PC-relative call: pushes the return address, jumps.
    Call {
        /// Displacement from the next instruction.
        rel: i32,
    },
    /// Indirect call through a register.
    CallInd {
        /// Register holding the target.
        rs: Reg,
    },
    /// Indirect jump through a register.
    JmpInd {
        /// Register holding the target.
        rs: Reg,
    },
    /// Pops the return address and jumps to it.
    Ret,
    /// System call: number in `r0`, arguments in `r1`–`r5`, result in `r0`.
    Syscall,
    /// `rd = tls[off]` — thread-local read (canary cookie, scratch slots).
    RdTls {
        /// Destination register.
        rd: Reg,
        /// Byte offset within the TLS block.
        off: i32,
    },
    /// `tls[off] = rs`.
    WrTls {
        /// Value register.
        rs: Reg,
        /// Byte offset within the TLS block.
        off: i32,
    },
}

impl Instr {
    /// Whether this instruction is a control-transfer instruction: a
    /// branch, call, return, halt or trap — anything that ends a basic
    /// block.
    pub fn is_cti(&self) -> bool {
        matches!(
            self,
            Instr::Jmp { .. }
                | Instr::Jcc { .. }
                | Instr::Call { .. }
                | Instr::CallInd { .. }
                | Instr::JmpInd { .. }
                | Instr::Ret
                | Instr::Halt
                | Instr::Trap
        )
    }

    /// Whether this is an *indirect* control transfer (target unknown
    /// statically) — the instructions CFI instruments.
    pub fn is_indirect_cti(&self) -> bool {
        matches!(
            self,
            Instr::CallInd { .. } | Instr::JmpInd { .. } | Instr::Ret
        )
    }

    /// Whether this is a call of either kind.
    pub fn is_call(&self) -> bool {
        matches!(self, Instr::Call { .. } | Instr::CallInd { .. })
    }

    /// Whether executing this instruction writes the condition flags.
    pub fn sets_flags(&self) -> bool {
        matches!(
            self,
            Instr::AluRr { .. }
                | Instr::AluRi { .. }
                | Instr::Neg { .. }
                | Instr::Not { .. }
                | Instr::PopF
        )
    }

    /// Whether executing this instruction reads the condition flags.
    pub fn reads_flags(&self) -> bool {
        matches!(self, Instr::Jcc { .. } | Instr::PushF)
    }

    /// Whether this instruction loads from or stores to application memory
    /// through a register-addressed operand (the accesses JASan checks).
    /// Stack pushes/pops and TLS accesses are excluded, as in the paper's
    /// sanitizer which does not instrument its own spill traffic.
    pub fn mem_access(&self) -> Option<MemRef> {
        match *self {
            Instr::Ld {
                size, base, disp, ..
            } => Some(MemRef {
                base,
                idx: None,
                scale: 0,
                disp,
                size,
                is_store: false,
            }),
            Instr::St {
                size, base, disp, ..
            } => Some(MemRef {
                base,
                idx: None,
                scale: 0,
                disp,
                size,
                is_store: true,
            }),
            Instr::LdIdx {
                size,
                base,
                idx,
                scale,
                disp,
                ..
            } => Some(MemRef {
                base,
                idx: Some(idx),
                scale,
                disp,
                size,
                is_store: false,
            }),
            Instr::StIdx {
                size,
                base,
                idx,
                scale,
                disp,
                ..
            } => Some(MemRef {
                base,
                idx: Some(idx),
                scale,
                disp,
                size,
                is_store: true,
            }),
            _ => None,
        }
    }

    /// Mask of registers read by this instruction (excluding implicit `sp`
    /// uses of push/pop/call/ret, which the liveness analysis treats
    /// separately via [`Instr::uses_sp`]).
    pub fn uses(&self) -> u16 {
        match *self {
            Instr::MovRr { rs, .. } => rs.bit(),
            Instr::Lea { base, .. } => base.bit(),
            Instr::Ld { base, .. } => base.bit(),
            Instr::St { rs, base, .. } => rs.bit() | base.bit(),
            Instr::LdIdx { base, idx, .. } => base.bit() | idx.bit(),
            Instr::StIdx { rs, base, idx, .. } => rs.bit() | base.bit() | idx.bit(),
            // ALU destinations are read-modify-write.
            Instr::AluRr { rd, rs, .. } => rd.bit() | rs.bit(),
            Instr::AluRi { rd, .. } => rd.bit(),
            Instr::Neg { rd } | Instr::Not { rd } => rd.bit(),
            Instr::Push { rs } => rs.bit(),
            Instr::CallInd { rs } | Instr::JmpInd { rs } => rs.bit(),
            Instr::WrTls { rs, .. } => rs.bit(),
            // Syscalls read the number and up to five arguments.
            Instr::Syscall => {
                Reg::R0.bit()
                    | Reg::R1.bit()
                    | Reg::R2.bit()
                    | Reg::R3.bit()
                    | Reg::R4.bit()
                    | Reg::R5.bit()
            }
            _ => 0,
        }
    }

    /// Mask of registers written by this instruction.
    pub fn defs(&self) -> u16 {
        match *self {
            Instr::MovRr { rd, .. }
            | Instr::MovI64 { rd, .. }
            | Instr::MovI32 { rd, .. }
            | Instr::LeaPc { rd, .. }
            | Instr::Lea { rd, .. }
            | Instr::Ld { rd, .. }
            | Instr::LdIdx { rd, .. }
            | Instr::Pop { rd }
            | Instr::RdTls { rd, .. } => rd.bit(),
            Instr::AluRr { op, rd, .. } | Instr::AluRi { op, rd, .. } if op.writes_dest() => {
                rd.bit()
            }
            Instr::AluRr { .. } | Instr::AluRi { .. } => 0,
            Instr::Neg { rd } | Instr::Not { rd } => rd.bit(),
            // Syscall clobbers the result register.
            Instr::Syscall => Reg::R0.bit(),
            _ => 0,
        }
    }

    /// Whether the instruction implicitly reads/writes the stack pointer.
    pub fn uses_sp(&self) -> bool {
        matches!(
            self,
            Instr::Push { .. }
                | Instr::Pop { .. }
                | Instr::PushF
                | Instr::PopF
                | Instr::Call { .. }
                | Instr::CallInd { .. }
                | Instr::Ret
        )
    }

    /// Deterministic execution cost in cycles, the unit of the performance
    /// model (see `crates/dbt`). Values are loosely modelled on a modern
    /// out-of-order core's amortized throughput costs: most instructions
    /// are 1 cycle, memory 2, multiplies 3, divides 20, syscalls 150.
    pub fn cost(&self) -> u64 {
        match *self {
            Instr::Ld { .. } | Instr::St { .. } | Instr::LdIdx { .. } | Instr::StIdx { .. } => 2,
            Instr::Push { .. } | Instr::Pop { .. } => 2,
            Instr::AluRr { op, .. } | Instr::AluRi { op, .. } => match op {
                AluOp::Mul => 3,
                AluOp::Divu | AluOp::Modu => 20,
                _ => 1,
            },
            Instr::Call { .. } | Instr::CallInd { .. } | Instr::Ret => 2,
            Instr::Syscall => 150,
            Instr::MovI64 { .. } => 1,
            _ => 1,
        }
    }
}

/// Description of a register-addressed memory operand, as returned by
/// [`Instr::mem_access`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemRef {
    /// Base register.
    pub base: Reg,
    /// Optional index register.
    pub idx: Option<Reg>,
    /// log2 scale applied to the index register.
    pub scale: u8,
    /// Constant displacement.
    pub disp: i32,
    /// Access width.
    pub size: MemSize,
    /// `true` for stores, `false` for loads.
    pub is_store: bool,
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn mem(f: &mut fmt::Formatter<'_>, base: Reg, disp: i32) -> fmt::Result {
            if disp == 0 {
                write!(f, "[{base}]")
            } else if disp > 0 {
                write!(f, "[{base}+{disp:#x}]")
            } else {
                write!(f, "[{base}-{:#x}]", -(disp as i64))
            }
        }
        fn memx(
            f: &mut fmt::Formatter<'_>,
            base: Reg,
            idx: Reg,
            scale: u8,
            disp: i32,
        ) -> fmt::Result {
            write!(f, "[{base}+{idx}*{}", 1u32 << scale)?;
            if disp > 0 {
                write!(f, "+{disp:#x}")?;
            } else if disp < 0 {
                write!(f, "-{:#x}", -(disp as i64))?;
            }
            write!(f, "]")
        }
        fn rel32(f: &mut fmt::Formatter<'_>, rel: i32) -> fmt::Result {
            if rel >= 0 {
                write!(f, "pc+{rel:#x}")
            } else {
                write!(f, "pc-{:#x}", -(rel as i64))
            }
        }
        let sz = |s: MemSize| match s {
            MemSize::B1 => "1",
            MemSize::B2 => "2",
            MemSize::B4 => "4",
            MemSize::B8 => "8",
        };
        match *self {
            Instr::Nop => write!(f, "nop"),
            Instr::Halt => write!(f, "halt"),
            Instr::Trap => write!(f, "trap"),
            Instr::MovRr { rd, rs } => write!(f, "mov {rd}, {rs}"),
            Instr::MovI64 { rd, imm } => write!(f, "mov {rd}, {imm:#x}"),
            Instr::MovI32 { rd, imm } => write!(f, "mov {rd}, {imm}"),
            Instr::LeaPc { rd, disp } => {
                write!(f, "lea {rd}, [")?;
                rel32(f, disp)?;
                write!(f, "]")
            }
            Instr::Lea { rd, base, disp } => {
                write!(f, "lea {rd}, ")?;
                mem(f, base, disp)
            }
            Instr::Ld {
                size,
                rd,
                base,
                disp,
            } => {
                write!(f, "ld{} {rd}, ", sz(size))?;
                mem(f, base, disp)
            }
            Instr::St {
                size,
                rs,
                base,
                disp,
            } => {
                write!(f, "st{} ", sz(size))?;
                mem(f, base, disp)?;
                write!(f, ", {rs}")
            }
            Instr::LdIdx {
                size,
                rd,
                base,
                idx,
                scale,
                disp,
            } => {
                write!(f, "ld{} {rd}, ", sz(size))?;
                memx(f, base, idx, scale, disp)
            }
            Instr::StIdx {
                size,
                rs,
                base,
                idx,
                scale,
                disp,
            } => {
                write!(f, "st{} ", sz(size))?;
                memx(f, base, idx, scale, disp)?;
                write!(f, ", {rs}")
            }
            Instr::AluRr { op, rd, rs } => write!(f, "{} {rd}, {rs}", op.mnemonic()),
            Instr::AluRi { op, rd, imm } => write!(f, "{} {rd}, {imm}", op.mnemonic()),
            Instr::Neg { rd } => write!(f, "neg {rd}"),
            Instr::Not { rd } => write!(f, "not {rd}"),
            Instr::Push { rs } => write!(f, "push {rs}"),
            Instr::Pop { rd } => write!(f, "pop {rd}"),
            Instr::PushF => write!(f, "pushf"),
            Instr::PopF => write!(f, "popf"),
            Instr::Jmp { rel } => {
                write!(f, "jmp ")?;
                rel32(f, rel)
            }
            Instr::Jcc { cc, rel } => {
                write!(f, "{} ", cc.mnemonic())?;
                rel32(f, rel)
            }
            Instr::Call { rel } => {
                write!(f, "call ")?;
                rel32(f, rel)
            }
            Instr::CallInd { rs } => write!(f, "call {rs}"),
            Instr::JmpInd { rs } => write!(f, "jmp {rs}"),
            Instr::Ret => write!(f, "ret"),
            Instr::Syscall => write!(f, "syscall"),
            Instr::RdTls { rd, off } => write!(f, "rdtls {rd}, {off:#x}"),
            Instr::WrTls { rs, off } => write!(f, "wrtls {rs}, {off:#x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cti_classification() {
        assert!(Instr::Ret.is_cti());
        assert!(Instr::Ret.is_indirect_cti());
        assert!(Instr::Jmp { rel: 0 }.is_cti());
        assert!(!Instr::Jmp { rel: 0 }.is_indirect_cti());
        assert!(Instr::CallInd { rs: Reg::R3 }.is_indirect_cti());
        assert!(!Instr::Nop.is_cti());
        assert!(Instr::Call { rel: 4 }.is_call());
    }

    #[test]
    fn flag_effects() {
        assert!(Instr::AluRr {
            op: AluOp::Add,
            rd: Reg::R0,
            rs: Reg::R1
        }
        .sets_flags());
        assert!(!Instr::MovRr {
            rd: Reg::R0,
            rs: Reg::R1
        }
        .sets_flags());
        assert!(Instr::Jcc { cc: Cc::Eq, rel: 0 }.reads_flags());
        assert!(!Instr::Jmp { rel: 0 }.reads_flags());
    }

    #[test]
    fn mem_access_metadata() {
        let ld = Instr::Ld {
            size: MemSize::B8,
            rd: Reg::R1,
            base: Reg::R2,
            disp: 16,
        };
        let m = ld.mem_access().unwrap();
        assert!(!m.is_store);
        assert_eq!(m.base, Reg::R2);
        assert_eq!(m.size.bytes(), 8);
        assert!(Instr::Push { rs: Reg::R0 }.mem_access().is_none());
        assert!(Instr::RdTls {
            rd: Reg::R0,
            off: 0
        }
        .mem_access()
        .is_none());
    }

    #[test]
    fn uses_defs() {
        let st = Instr::St {
            size: MemSize::B4,
            rs: Reg::R3,
            base: Reg::R4,
            disp: 0,
        };
        assert_eq!(st.uses(), Reg::R3.bit() | Reg::R4.bit());
        assert_eq!(st.defs(), 0);
        let cmp = Instr::AluRr {
            op: AluOp::Cmp,
            rd: Reg::R1,
            rs: Reg::R2,
        };
        assert_eq!(cmp.defs(), 0, "cmp must not define its destination");
        assert_eq!(cmp.uses(), Reg::R1.bit() | Reg::R2.bit());
    }

    #[test]
    fn cc_negation_is_involutive() {
        for cc in Cc::ALL {
            assert_eq!(cc.negate().negate(), cc);
        }
    }

    #[test]
    fn display_samples() {
        assert_eq!(
            format!(
                "{}",
                Instr::Ld {
                    size: MemSize::B8,
                    rd: Reg::R1,
                    base: Reg::SP,
                    disp: 8
                }
            ),
            "ld8 r1, [sp+0x8]"
        );
        assert_eq!(
            format!(
                "{}",
                Instr::Jcc {
                    cc: Cc::Ne,
                    rel: -5
                }
            ),
            "jne pc-0x5"
        );
    }
}
