//! # JX-64: the Janitizer experimental instruction set
//!
//! A 64-bit, little-endian, variable-length-encoded instruction set that
//! stands in for x86-64 in this reproduction of the Janitizer paper
//! (CGO '25). The properties that matter for hybrid binary rewriting are
//! kept faithful to a CISC target:
//!
//! * **variable-length encoding** (1–10 bytes), so instruction boundaries
//!   are non-trivial and "scan the raw binary for code pointers at
//!   instruction boundaries" (BinCFI/JCFI §4.2.1) is a real analysis;
//! * **condition flags** set by ALU instructions, so the arithmetic-flag
//!   liveness analysis of §3.3.2 has something to preserve;
//! * **indirect calls and jumps, returns**, the control-transfer
//!   instructions CFI must police;
//! * **PC-relative addressing** ([`Instr::LeaPc`]) for position-independent
//!   code, plus absolute 64-bit immediates for non-PIC code;
//! * **TLS accesses** ([`Instr::RdTls`]/[`Instr::WrTls`]) used both for the
//!   stack-canary cookie (like x86's `%fs:0x28`) and as spill slots for
//!   inline instrumentation (like DynamoRIO's TLS scratch slots).
//!
//! The crate is purely about representation: [`Instr`] (the decoded form),
//! [`encode`](Instr::encode) / [`decode`], textual disassembly via
//! [`std::fmt::Display`], and static metadata (cycle [`cost`](Instr::cost),
//! flag effects, register uses/defs) consumed by the analyzers.
//!
//! ```
//! use janitizer_isa::{Instr, Reg, decode};
//!
//! # fn main() -> Result<(), janitizer_isa::DecodeError> {
//! let mut code = Vec::new();
//! Instr::MovI32 { rd: Reg::R0, imm: 42 }.encode(&mut code);
//! Instr::Ret.encode(&mut code);
//!
//! let (first, len) = decode(&code, 0)?;
//! assert_eq!(first, Instr::MovI32 { rd: Reg::R0, imm: 42 });
//! assert_eq!(decode(&code, len)?.0, Instr::Ret);
//! # Ok(())
//! # }
//! ```

mod encoding;
mod hash;
mod insn;
mod reg;

pub use encoding::{decode, DecodeError, MAX_INSTR_LEN};
pub use hash::{PcHasher, PcMap, PcSet};
pub use insn::{AluOp, Cc, Instr, MemRef, MemSize};
pub use reg::{Flags, Reg, ABI};

/// TLS offset of the stack-canary cookie (mirrors x86-64's `%fs:0x28`).
pub const TLS_CANARY_OFFSET: i32 = 0x28;
/// First TLS offset reserved as an instrumentation spill slot.
pub const TLS_SCRATCH0: i32 = 0x100;
/// Second TLS spill slot.
pub const TLS_SCRATCH1: i32 = 0x108;
/// Third TLS spill slot (used to preserve the flags word).
pub const TLS_SCRATCH2: i32 = 0x110;
/// Size of the per-thread TLS block mapped by the loader.
pub const TLS_BLOCK_SIZE: u64 = 0x200;
