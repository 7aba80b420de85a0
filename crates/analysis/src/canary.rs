//! Stack-canary pattern analysis (paper §3.3.3, Figure 6).
//!
//! Detects the compiler's canary idiom so that (a) the canary machinery
//! itself is never instrumented as an ordinary memory access, and (b)
//! JASan can poison the canary slot after the prologue stores it and
//! unpoison it right before the epilogue re-checks it, turning the canary
//! word into a detection redzone for the whole stack frame.

use crate::cfg::ModuleCfg;
use janitizer_isa::{AluOp, Instr, MemSize, Reg, TLS_CANARY_OFFSET};

/// One detected canary site.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CanarySite {
    /// Entry of the enclosing function, when known.
    pub function: u64,
    /// Address of the prologue store `st8 [fp-8], rX`.
    pub store_addr: u64,
    /// Address of the instruction *after* the store — where poisoning is
    /// injected (Figure 6 injects at the following instruction).
    pub poison_at: u64,
    /// Frame-pointer displacement of the canary slot (negative).
    pub slot_disp: i32,
    /// Address of the epilogue's canary re-load `ld8 rY, [fp-8]` — where
    /// unpoisoning is injected (just before) and which must itself be
    /// exempt from sanitizer checks.
    pub check_load_addr: u64,
}

/// Scans the module for canary prologue/epilogue patterns.
pub fn find_canary_sites(cfg: &ModuleCfg) -> Vec<CanarySite> {
    let mut sites = Vec::new();
    for block in cfg.blocks.values() {
        // Prologue pattern: rdtls rX, 0x28 ; st8 [fp+disp], rX
        for w in block.insns.windows(2) {
            let (_, a) = w[0];
            let (st_addr, b) = w[1];
            let Instr::RdTls { rd, off } = a else {
                continue;
            };
            if off != TLS_CANARY_OFFSET {
                continue;
            }
            let Instr::St {
                size: MemSize::B8,
                rs,
                base: Reg::FP,
                disp,
            } = b
            else {
                continue;
            };
            if rs != rd || disp >= 0 {
                continue;
            }
            // Epilogue: find `rdtls rY, 0x28; ld8 rZ, [fp+disp]; cmp` in
            // the same function.
            let func = cfg
                .function_containing(st_addr)
                .map(|f| (f.entry, f.entry + f.size.max(1)))
                .unwrap_or((block.start, block.end));
            let mut check_load = None;
            'search: for cand in cfg.blocks.values() {
                if cand.start < func.0 || cand.start >= func.1 {
                    continue;
                }
                for w2 in cand.insns.windows(3) {
                    let (_, x) = w2[0];
                    let (ld_addr, y) = w2[1];
                    let (_, z) = w2[2];
                    let Instr::RdTls { off: o2, .. } = x else {
                        continue;
                    };
                    if o2 != TLS_CANARY_OFFSET {
                        continue;
                    }
                    let Instr::Ld {
                        size: MemSize::B8,
                        base: Reg::FP,
                        disp: d2,
                        ..
                    } = y
                    else {
                        continue;
                    };
                    if d2 != disp {
                        continue;
                    }
                    if !matches!(z, Instr::AluRr { op: AluOp::Cmp, .. }) {
                        continue;
                    }
                    if ld_addr == st_addr {
                        continue;
                    }
                    check_load = Some(ld_addr);
                    break 'search;
                }
            }
            let Some(check_load_addr) = check_load else {
                continue;
            };
            // Poison point: the instruction following the store.
            let poison_at = block
                .insns
                .iter()
                .skip_while(|(a2, _)| *a2 != st_addr)
                .nth(1)
                .map(|(a2, _)| *a2)
                .unwrap_or(block.end);
            sites.push(CanarySite {
                function: func.0,
                store_addr: st_addr,
                poison_at,
                slot_disp: disp,
                check_load_addr,
            });
        }
    }
    sites.sort_by_key(|s| s.store_addr);
    sites.dedup_by_key(|s| s.store_addr);
    sites
}

/// Addresses of loads/stores that belong to canary machinery and must be
/// exempt from memory-access instrumentation.
pub fn canary_exempt_addrs(sites: &[CanarySite]) -> Vec<u64> {
    let mut v: Vec<u64> = sites
        .iter()
        .flat_map(|s| [s.store_addr, s.check_load_addr])
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}
