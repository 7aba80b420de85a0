//! # Janitizer's static analyzer (core layer)
//!
//! The offline half of the hybrid framework (paper §3.3, Figure 2a):
//! whole-module disassembly and CFG recovery over **all** executable
//! sections ([`analyze_module`]) graded per block by soundness tier
//! ([`analyze_tiered`]), register and arithmetic-flag liveness
//! with the inter-procedural `ipa-ra` patch ([`compute_liveness`]),
//! SCEV-lite loop and invariant-address analysis ([`find_loops`],
//! [`loop_invariant_accesses`]), stack-canary pattern detection
//! ([`find_canary_sites`]) and BinCFI-style raw-binary code-pointer
//! scanning ([`scan_code_pointers`]).
//!
//! Security tools (JASan, JCFI) consume these results through their
//! static passes and encode decisions as rewrite rules
//! (`janitizer-rules`) for the dynamic modifier.
//!
//! ```
//! use janitizer_asm::{assemble, AsmOptions};
//! use janitizer_link::{link, LinkOptions};
//! use janitizer_analysis::analyze_module;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let obj = assemble(
//!     "f.s",
//!     ".section text\n.global _start\n_start:\n cmp r0, 0\n je done\n sub r0, 1\ndone:\n ret\n",
//!     &AsmOptions::default(),
//! )?;
//! let image = link(&[obj], &LinkOptions::executable("a.out"))?;
//! let cfg = analyze_module(&image);
//! assert!(cfg.blocks.len() >= 2);
//! # Ok(())
//! # }
//! ```

pub mod budget;
mod canary;
mod cfg;
mod codeptr;
mod disasm;
mod evidence;
mod index;
mod liveness;
mod loops;

pub use canary::{canary_exempt_addrs, find_canary_sites, CanarySite};
pub use cfg::{
    analyze_module, analyze_module_seeded, Block, FuncEntry, JumpTable, ModuleCfg, Term,
};
pub use codeptr::{scan_code_pointers, CodePtrScan};
pub use disasm::disassemble;
pub use evidence::{
    analyze_tiered, disasm_backend, Analyzer, ConfidenceTier, DegradedRegion, DisasmResult,
    RegionCause,
};
pub use liveness::{compute_liveness, Liveness, ALL_REGS};
pub use loops::{find_loops, loop_invariant_accesses, Induction, InvariantAccess, Loop};
