//! Variable-length binary encoding of JX-64 instructions.
//!
//! The format is byte-oriented and little-endian: one opcode byte followed
//! by zero or more operand bytes. Register pairs pack into a single byte
//! (`hi << 4 | lo`); immediates and displacements are 4 or 8 bytes.
//! Instruction lengths range from 1 to [`MAX_INSTR_LEN`] bytes, which makes
//! instruction-boundary recovery a genuine static-analysis problem, as it
//! is on x86.

use crate::insn::{AluOp, Cc, Instr, MemSize};
use crate::reg::Reg;
use std::fmt;

/// Longest possible instruction encoding (the `mov rd, imm64` form).
pub const MAX_INSTR_LEN: usize = 10;

// Opcode space layout. Gaps are reserved/undefined and decode errors.
const OP_NOP: u8 = 0x00;
const OP_HALT: u8 = 0x01;
const OP_TRAP: u8 = 0x02;
const OP_MOV_RR: u8 = 0x10;
const OP_MOV_I64: u8 = 0x11;
const OP_MOV_I32: u8 = 0x12;
const OP_LEA_PC: u8 = 0x13;
const OP_LEA: u8 = 0x14;
const OP_LD_BASE: u8 = 0x20; // +log2(size)
const OP_ST_BASE: u8 = 0x24;
const OP_LDX_BASE: u8 = 0x28;
const OP_STX_BASE: u8 = 0x2c;
const OP_ALU_RR_BASE: u8 = 0x30; // +AluOp
const OP_ALU_RI_BASE: u8 = 0x40;
const OP_NEG: u8 = 0x50;
const OP_NOT: u8 = 0x51;
const OP_PUSH: u8 = 0x58;
const OP_POP: u8 = 0x59;
const OP_PUSHF: u8 = 0x5a;
const OP_POPF: u8 = 0x5b;
const OP_JMP: u8 = 0x60;
const OP_JCC_BASE: u8 = 0x61; // +Cc, 0x61..=0x68
const OP_CALL: u8 = 0x69;
const OP_CALL_IND: u8 = 0x6a;
const OP_JMP_IND: u8 = 0x6b;
const OP_RET: u8 = 0x6c;
const OP_SYSCALL: u8 = 0x6d;
const OP_RDTLS: u8 = 0x70;
const OP_WRTLS: u8 = 0x71;

/// Error produced by [`decode`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The byte at `offset` is not a defined opcode.
    UnknownOpcode {
        /// The offending byte.
        opcode: u8,
        /// Offset within the decoded buffer.
        offset: usize,
    },
    /// The instruction starting at `offset` runs past the end of the buffer.
    Truncated {
        /// Offset within the decoded buffer.
        offset: usize,
    },
    /// An indexed memory operand at `offset` has a scale larger than 8.
    BadScale {
        /// Offset within the decoded buffer.
        offset: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DecodeError::UnknownOpcode { opcode, offset } => {
                write!(f, "unknown opcode {opcode:#04x} at offset {offset:#x}")
            }
            DecodeError::Truncated { offset } => {
                write!(f, "truncated instruction at offset {offset:#x}")
            }
            DecodeError::BadScale { offset } => {
                write!(f, "invalid index scale at offset {offset:#x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

#[inline]
fn reg_hi(b: u8) -> Reg {
    Reg::from_index((b >> 4) as usize)
}

#[inline]
fn reg_lo(b: u8) -> Reg {
    Reg::from_index((b & 0xf) as usize)
}

impl Instr {
    /// Appends this instruction's encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Instr::Nop => out.push(OP_NOP),
            Instr::Halt => out.push(OP_HALT),
            Instr::Trap => out.push(OP_TRAP),
            Instr::MovRr { rd, rs } => {
                out.push(OP_MOV_RR);
                out.push((rd.index() as u8) << 4 | rs.index() as u8);
            }
            Instr::MovI64 { rd, imm } => {
                out.push(OP_MOV_I64);
                out.push(rd.index() as u8);
                out.extend_from_slice(&imm.to_le_bytes());
            }
            Instr::MovI32 { rd, imm } => {
                out.push(OP_MOV_I32);
                out.push(rd.index() as u8);
                out.extend_from_slice(&imm.to_le_bytes());
            }
            Instr::LeaPc { rd, disp } => {
                out.push(OP_LEA_PC);
                out.push(rd.index() as u8);
                out.extend_from_slice(&disp.to_le_bytes());
            }
            Instr::Lea { rd, base, disp } => {
                out.push(OP_LEA);
                out.push((rd.index() as u8) << 4 | base.index() as u8);
                out.extend_from_slice(&disp.to_le_bytes());
            }
            Instr::Ld {
                size,
                rd,
                base,
                disp,
            } => {
                out.push(OP_LD_BASE + size.log2());
                out.push((rd.index() as u8) << 4 | base.index() as u8);
                out.extend_from_slice(&disp.to_le_bytes());
            }
            Instr::St {
                size,
                rs,
                base,
                disp,
            } => {
                out.push(OP_ST_BASE + size.log2());
                out.push((rs.index() as u8) << 4 | base.index() as u8);
                out.extend_from_slice(&disp.to_le_bytes());
            }
            Instr::LdIdx {
                size,
                rd,
                base,
                idx,
                scale,
                disp,
            } => {
                out.push(OP_LDX_BASE + size.log2());
                out.push((rd.index() as u8) << 4 | base.index() as u8);
                out.push((idx.index() as u8) << 4 | (scale & 0xf));
                out.extend_from_slice(&disp.to_le_bytes());
            }
            Instr::StIdx {
                size,
                rs,
                base,
                idx,
                scale,
                disp,
            } => {
                out.push(OP_STX_BASE + size.log2());
                out.push((rs.index() as u8) << 4 | base.index() as u8);
                out.push((idx.index() as u8) << 4 | (scale & 0xf));
                out.extend_from_slice(&disp.to_le_bytes());
            }
            Instr::AluRr { op, rd, rs } => {
                out.push(OP_ALU_RR_BASE + op as u8);
                out.push((rd.index() as u8) << 4 | rs.index() as u8);
            }
            Instr::AluRi { op, rd, imm } => {
                out.push(OP_ALU_RI_BASE + op as u8);
                out.push(rd.index() as u8);
                out.extend_from_slice(&imm.to_le_bytes());
            }
            Instr::Neg { rd } => {
                out.push(OP_NEG);
                out.push(rd.index() as u8);
            }
            Instr::Not { rd } => {
                out.push(OP_NOT);
                out.push(rd.index() as u8);
            }
            Instr::Push { rs } => {
                out.push(OP_PUSH);
                out.push(rs.index() as u8);
            }
            Instr::Pop { rd } => {
                out.push(OP_POP);
                out.push(rd.index() as u8);
            }
            Instr::PushF => out.push(OP_PUSHF),
            Instr::PopF => out.push(OP_POPF),
            Instr::Jmp { rel } => {
                out.push(OP_JMP);
                out.extend_from_slice(&rel.to_le_bytes());
            }
            Instr::Jcc { cc, rel } => {
                out.push(OP_JCC_BASE + cc as u8);
                out.extend_from_slice(&rel.to_le_bytes());
            }
            Instr::Call { rel } => {
                out.push(OP_CALL);
                out.extend_from_slice(&rel.to_le_bytes());
            }
            Instr::CallInd { rs } => {
                out.push(OP_CALL_IND);
                out.push(rs.index() as u8);
            }
            Instr::JmpInd { rs } => {
                out.push(OP_JMP_IND);
                out.push(rs.index() as u8);
            }
            Instr::Ret => out.push(OP_RET),
            Instr::Syscall => out.push(OP_SYSCALL),
            Instr::RdTls { rd, off } => {
                out.push(OP_RDTLS);
                out.push(rd.index() as u8);
                out.extend_from_slice(&off.to_le_bytes());
            }
            Instr::WrTls { rs, off } => {
                out.push(OP_WRTLS);
                out.push(rs.index() as u8);
                out.extend_from_slice(&off.to_le_bytes());
            }
        }
    }

    /// Length in bytes of this instruction's encoding.
    pub fn encoded_len(&self) -> usize {
        match self {
            Instr::Nop
            | Instr::Halt
            | Instr::Trap
            | Instr::PushF
            | Instr::PopF
            | Instr::Ret
            | Instr::Syscall => 1,
            Instr::MovRr { .. }
            | Instr::AluRr { .. }
            | Instr::Neg { .. }
            | Instr::Not { .. }
            | Instr::Push { .. }
            | Instr::Pop { .. }
            | Instr::CallInd { .. }
            | Instr::JmpInd { .. } => 2,
            Instr::Jmp { .. } | Instr::Jcc { .. } | Instr::Call { .. } => 5,
            Instr::MovI32 { .. }
            | Instr::LeaPc { .. }
            | Instr::Lea { .. }
            | Instr::Ld { .. }
            | Instr::St { .. }
            | Instr::AluRi { .. }
            | Instr::RdTls { .. }
            | Instr::WrTls { .. } => 6,
            Instr::LdIdx { .. } | Instr::StIdx { .. } => 7,
            Instr::MovI64 { .. } => 10,
        }
    }
}

/// Decodes the instruction starting at `offset` in `bytes`.
///
/// Returns the instruction and the offset of the *next* instruction.
///
/// # Errors
///
/// Returns [`DecodeError`] when the opcode byte is undefined, the operand
/// bytes run past the end of the buffer, or an index scale exceeds 8.
pub fn decode(bytes: &[u8], offset: usize) -> Result<(Instr, usize), DecodeError> {
    let trunc = DecodeError::Truncated { offset };
    let op = *bytes.get(offset).ok_or(trunc)?;

    let need = |n: usize| -> Result<&[u8], DecodeError> {
        bytes.get(offset + 1..offset + 1 + n).ok_or(trunc)
    };
    let i32_at = |b: &[u8], at: usize| i32::from_le_bytes(b[at..at + 4].try_into().unwrap());

    let (insn, operand_len) = match op {
        OP_NOP => (Instr::Nop, 0),
        OP_HALT => (Instr::Halt, 0),
        OP_TRAP => (Instr::Trap, 0),
        OP_MOV_RR => {
            let b = need(1)?;
            (
                Instr::MovRr {
                    rd: reg_hi(b[0]),
                    rs: reg_lo(b[0]),
                },
                1,
            )
        }
        OP_MOV_I64 => {
            let b = need(9)?;
            (
                Instr::MovI64 {
                    rd: reg_lo(b[0]),
                    imm: u64::from_le_bytes(b[1..9].try_into().unwrap()),
                },
                9,
            )
        }
        OP_MOV_I32 => {
            let b = need(5)?;
            (
                Instr::MovI32 {
                    rd: reg_lo(b[0]),
                    imm: i32_at(b, 1),
                },
                5,
            )
        }
        OP_LEA_PC => {
            let b = need(5)?;
            (
                Instr::LeaPc {
                    rd: reg_lo(b[0]),
                    disp: i32_at(b, 1),
                },
                5,
            )
        }
        OP_LEA => {
            let b = need(5)?;
            (
                Instr::Lea {
                    rd: reg_hi(b[0]),
                    base: reg_lo(b[0]),
                    disp: i32_at(b, 1),
                },
                5,
            )
        }
        _ if (OP_LD_BASE..OP_LD_BASE + 4).contains(&op) => {
            let b = need(5)?;
            (
                Instr::Ld {
                    size: MemSize::from_log2(op - OP_LD_BASE).unwrap(),
                    rd: reg_hi(b[0]),
                    base: reg_lo(b[0]),
                    disp: i32_at(b, 1),
                },
                5,
            )
        }
        _ if (OP_ST_BASE..OP_ST_BASE + 4).contains(&op) => {
            let b = need(5)?;
            (
                Instr::St {
                    size: MemSize::from_log2(op - OP_ST_BASE).unwrap(),
                    rs: reg_hi(b[0]),
                    base: reg_lo(b[0]),
                    disp: i32_at(b, 1),
                },
                5,
            )
        }
        _ if (OP_LDX_BASE..OP_LDX_BASE + 4).contains(&op) => {
            let b = need(6)?;
            let scale = b[1] & 0xf;
            if scale > 3 {
                return Err(DecodeError::BadScale { offset });
            }
            (
                Instr::LdIdx {
                    size: MemSize::from_log2(op - OP_LDX_BASE).unwrap(),
                    rd: reg_hi(b[0]),
                    base: reg_lo(b[0]),
                    idx: reg_hi(b[1]),
                    scale,
                    disp: i32_at(b, 2),
                },
                6,
            )
        }
        _ if (OP_STX_BASE..OP_STX_BASE + 4).contains(&op) => {
            let b = need(6)?;
            let scale = b[1] & 0xf;
            if scale > 3 {
                return Err(DecodeError::BadScale { offset });
            }
            (
                Instr::StIdx {
                    size: MemSize::from_log2(op - OP_STX_BASE).unwrap(),
                    rs: reg_hi(b[0]),
                    base: reg_lo(b[0]),
                    idx: reg_hi(b[1]),
                    scale,
                    disp: i32_at(b, 2),
                },
                6,
            )
        }
        _ if (OP_ALU_RR_BASE..OP_ALU_RR_BASE + 13).contains(&op) => {
            let b = need(1)?;
            (
                Instr::AluRr {
                    op: AluOp::from_u8(op - OP_ALU_RR_BASE).unwrap(),
                    rd: reg_hi(b[0]),
                    rs: reg_lo(b[0]),
                },
                1,
            )
        }
        _ if (OP_ALU_RI_BASE..OP_ALU_RI_BASE + 13).contains(&op) => {
            let b = need(5)?;
            (
                Instr::AluRi {
                    op: AluOp::from_u8(op - OP_ALU_RI_BASE).unwrap(),
                    rd: reg_lo(b[0]),
                    imm: i32_at(b, 1),
                },
                5,
            )
        }
        OP_NEG => {
            let b = need(1)?;
            (Instr::Neg { rd: reg_lo(b[0]) }, 1)
        }
        OP_NOT => {
            let b = need(1)?;
            (Instr::Not { rd: reg_lo(b[0]) }, 1)
        }
        OP_PUSH => {
            let b = need(1)?;
            (Instr::Push { rs: reg_lo(b[0]) }, 1)
        }
        OP_POP => {
            let b = need(1)?;
            (Instr::Pop { rd: reg_lo(b[0]) }, 1)
        }
        OP_PUSHF => (Instr::PushF, 0),
        OP_POPF => (Instr::PopF, 0),
        OP_JMP => {
            let b = need(4)?;
            (Instr::Jmp { rel: i32_at(b, 0) }, 4)
        }
        _ if (OP_JCC_BASE..OP_JCC_BASE + 8).contains(&op) => {
            let b = need(4)?;
            (
                Instr::Jcc {
                    cc: Cc::from_u8(op - OP_JCC_BASE).unwrap(),
                    rel: i32_at(b, 0),
                },
                4,
            )
        }
        OP_CALL => {
            let b = need(4)?;
            (Instr::Call { rel: i32_at(b, 0) }, 4)
        }
        OP_CALL_IND => {
            let b = need(1)?;
            (Instr::CallInd { rs: reg_lo(b[0]) }, 1)
        }
        OP_JMP_IND => {
            let b = need(1)?;
            (Instr::JmpInd { rs: reg_lo(b[0]) }, 1)
        }
        OP_RET => (Instr::Ret, 0),
        OP_SYSCALL => (Instr::Syscall, 0),
        OP_RDTLS => {
            let b = need(5)?;
            (
                Instr::RdTls {
                    rd: reg_lo(b[0]),
                    off: i32_at(b, 1),
                },
                5,
            )
        }
        OP_WRTLS => {
            let b = need(5)?;
            (
                Instr::WrTls {
                    rs: reg_lo(b[0]),
                    off: i32_at(b, 1),
                },
                5,
            )
        }
        opcode => return Err(DecodeError::UnknownOpcode { opcode, offset }),
    };
    Ok((insn, offset + 1 + operand_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(i: Instr) {
        let mut buf = Vec::new();
        i.encode(&mut buf);
        assert_eq!(buf.len(), i.encoded_len(), "length mismatch for {i}");
        let (decoded, next) = decode(&buf, 0).unwrap();
        assert_eq!(decoded, i);
        assert_eq!(next, buf.len());
    }

    #[test]
    fn roundtrip_representatives() {
        let samples = [
            Instr::Nop,
            Instr::Halt,
            Instr::Trap,
            Instr::MovRr {
                rd: Reg::R3,
                rs: Reg::R12,
            },
            Instr::MovI64 {
                rd: Reg::R7,
                imm: 0xdead_beef_cafe_f00d,
            },
            Instr::MovI32 {
                rd: Reg::R0,
                imm: -1,
            },
            Instr::LeaPc {
                rd: Reg::R5,
                disp: -0x1000,
            },
            Instr::Lea {
                rd: Reg::R1,
                base: Reg::SP,
                disp: 24,
            },
            Instr::Ld {
                size: MemSize::B4,
                rd: Reg::R2,
                base: Reg::R9,
                disp: -8,
            },
            Instr::St {
                size: MemSize::B1,
                rs: Reg::R6,
                base: Reg::FP,
                disp: 0x7fff_0000,
            },
            Instr::LdIdx {
                size: MemSize::B8,
                rd: Reg::R4,
                base: Reg::R8,
                idx: Reg::R9,
                scale: 3,
                disp: 0x40,
            },
            Instr::StIdx {
                size: MemSize::B2,
                rs: Reg::R4,
                base: Reg::R8,
                idx: Reg::R9,
                scale: 1,
                disp: -4,
            },
            Instr::AluRr {
                op: AluOp::Xor,
                rd: Reg::R0,
                rs: Reg::R0,
            },
            Instr::AluRi {
                op: AluOp::Cmp,
                rd: Reg::R13,
                imm: 1000,
            },
            Instr::Neg { rd: Reg::R2 },
            Instr::Not { rd: Reg::R15 },
            Instr::Push { rs: Reg::FP },
            Instr::Pop { rd: Reg::FP },
            Instr::PushF,
            Instr::PopF,
            Instr::Jmp { rel: 0 },
            Instr::Jcc {
                cc: Cc::Ae,
                rel: -6,
            },
            Instr::Call { rel: 0x1234 },
            Instr::CallInd { rs: Reg::R11 },
            Instr::JmpInd { rs: Reg::R10 },
            Instr::Ret,
            Instr::Syscall,
            Instr::RdTls {
                rd: Reg::R6,
                off: 0x28,
            },
            Instr::WrTls {
                rs: Reg::R6,
                off: 0x100,
            },
        ];
        for s in samples {
            roundtrip(s);
        }
    }

    #[test]
    fn all_alu_ops_and_ccs() {
        for op in AluOp::ALL {
            roundtrip(Instr::AluRr {
                op,
                rd: Reg::R1,
                rs: Reg::R2,
            });
            roundtrip(Instr::AluRi {
                op,
                rd: Reg::R1,
                imm: 7,
            });
        }
        for cc in Cc::ALL {
            roundtrip(Instr::Jcc { cc, rel: 100 });
        }
        for size in [MemSize::B1, MemSize::B2, MemSize::B4, MemSize::B8] {
            roundtrip(Instr::Ld {
                size,
                rd: Reg::R1,
                base: Reg::R2,
                disp: 4,
            });
            roundtrip(Instr::St {
                size,
                rs: Reg::R1,
                base: Reg::R2,
                disp: 4,
            });
        }
    }

    #[test]
    fn unknown_opcode_is_an_error() {
        assert_eq!(
            decode(&[0xff], 0),
            Err(DecodeError::UnknownOpcode {
                opcode: 0xff,
                offset: 0
            })
        );
        assert_eq!(
            decode(&[0x0f], 0),
            Err(DecodeError::UnknownOpcode {
                opcode: 0x0f,
                offset: 0
            })
        );
    }

    #[test]
    fn truncated_operands_are_an_error() {
        // `mov rd, imm64` needs 9 operand bytes.
        assert_eq!(
            decode(&[0x11, 0x00, 0x01], 0),
            Err(DecodeError::Truncated { offset: 0 })
        );
        // Empty buffer.
        assert_eq!(decode(&[], 0), Err(DecodeError::Truncated { offset: 0 }));
    }

    #[test]
    fn bad_scale_is_an_error() {
        let mut buf = Vec::new();
        Instr::LdIdx {
            size: MemSize::B8,
            rd: Reg::R0,
            base: Reg::R1,
            idx: Reg::R2,
            scale: 0,
            disp: 0,
        }
        .encode(&mut buf);
        buf[2] = (buf[2] & 0xf0) | 0x07; // corrupt the scale nibble
        assert_eq!(decode(&buf, 0), Err(DecodeError::BadScale { offset: 0 }));
    }

    #[test]
    fn decode_mid_buffer_uses_absolute_offsets() {
        let mut buf = vec![0u8; 3];
        Instr::Ret.encode(&mut buf);
        let (i, next) = decode(&buf, 3).unwrap();
        assert_eq!(i, Instr::Ret);
        assert_eq!(next, 4);
    }
}
