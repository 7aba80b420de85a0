//! Per-module CFI metadata: the "set of valid targets" hints the static
//! analyzer precomputes (paper §4.2.1) and the module-load-time fallback
//! recomputes for modules without hints (§4.2.2).

use janitizer_analysis::{analyze_module, scan_code_pointers, CodePtrScan, ModuleCfg};
use janitizer_obj::{Image, SectionKind};
use std::collections::BTreeSet;

/// CFI-relevant facts about one module, in image (link-time) addresses;
/// [`CfiModuleInfo::rebase`] converts to run-time addresses.
#[derive(Clone, Debug, Default)]
pub struct CfiModuleInfo {
    /// Entry addresses of known functions.
    pub functions: BTreeSet<u64>,
    /// `[entry, end)` ranges of known functions.
    pub func_ranges: Vec<(u64, u64)>,
    /// Exported (dynamic) symbol addresses.
    pub exported: BTreeSet<u64>,
    /// Address-taken function entries discovered by scanning the raw
    /// binary (callbacks that are never exported, §4.2.3).
    pub address_taken: BTreeSet<u64>,
    /// All recovered instruction boundaries.
    pub boundaries: BTreeSet<u64>,
    /// PLT stub addresses (valid intra-module indirect-call targets that
    /// are not functions).
    pub plt_stubs: BTreeSet<u64>,
    /// `.plt` section range, whose indirect jumps follow the cross-module
    /// call policy.
    pub plt_range: Option<(u64, u64)>,
    /// Addresses of `ret` instructions that implement the ld.so
    /// push-resolved-pointer-and-return idiom; these get a forward check
    /// instead of a shadow-stack check (§4.2.3).
    pub resolver_rets: BTreeSet<u64>,
    /// Addresses one past each call instruction (BinCFI's allowed return
    /// targets under its weaker policy).
    pub call_preceded: BTreeSet<u64>,
    /// Raw-scan constants anywhere in code sections (the weakest set,
    /// used for stripped modules).
    pub scanned_code_ptrs: BTreeSet<u64>,
    /// Raw-scan constants at instruction boundaries (BinCFI's allowed
    /// forward targets).
    pub scanned_boundary_ptrs: BTreeSet<u64>,
    /// Allow-list: address-taken targets that are *not* at detected
    /// function boundaries — the libgfortran-style abnormality of §4.2.3
    /// ("we add target addresses to an allow list, similar to Lockdown").
    pub allowlist: BTreeSet<u64>,
    /// Total executable bytes (the `S` of the AIR metric).
    pub code_bytes: u64,
}

impl CfiModuleInfo {
    /// Builds the metadata from a fresh full analysis of `image`: control
    /// flow recovery and the code-pointer scan over it.
    pub fn from_image(image: &Image) -> CfiModuleInfo {
        let cfg = analyze_module(image);
        let scan = scan_code_pointers(image, &cfg);
        CfiModuleInfo::from_analysis(image, &cfg, &scan)
    }

    /// Builds the metadata from an analysis already made (the static
    /// analyzer's hint generation): `cfg` and the code-pointer `scan`
    /// over it, as a `StaticContext` holds them.
    pub fn from_analysis(image: &Image, cfg: &ModuleCfg, scan: &CodePtrScan) -> CfiModuleInfo {
        let mut info = CfiModuleInfo {
            functions: cfg.functions.iter().map(|f| f.entry).collect(),
            func_ranges: cfg
                .functions
                .iter()
                .map(|f| (f.entry, f.entry + f.size.max(1)))
                .collect(),
            exported: image
                .exports()
                .filter(|s| s.kind == janitizer_obj::SymKind::Func)
                .map(|s| s.value)
                .collect(),
            address_taken: scan.at_func_entry.clone(),
            boundaries: cfg.insn_boundaries.clone(),
            plt_stubs: {
                let mut stubs: BTreeSet<u64> = image.plt.iter().map(|p| p.plt_offset).collect();
                // The plt0 lazy trampoline is a legal target of every PLT
                // stub's jump.
                if let Some(plt) = image.section(SectionKind::Plt) {
                    stubs.insert(plt.addr);
                }
                stubs
            },
            plt_range: image.section(SectionKind::Plt).map(|s| (s.addr, s.end())),
            resolver_rets: BTreeSet::new(),
            call_preceded: BTreeSet::new(),
            allowlist: scan
                .at_insn_boundary
                .difference(&scan.at_func_entry)
                .copied()
                .collect(),
            scanned_code_ptrs: scan.in_code.clone(),
            scanned_boundary_ptrs: scan.at_insn_boundary.clone(),
            code_bytes: image.code_bytes(),
        };
        // ld.so-style resolver rets: a `st8 [sp], rX` immediately before a
        // `ret` rewrites the return target — the lazy-binding idiom.
        for block in cfg.blocks.values() {
            for w in block.insns.windows(2) {
                let (_, a) = w[0];
                let (ret_addr, b) = w[1];
                if matches!(
                    a,
                    janitizer_isa::Instr::St {
                        base: janitizer_isa::Reg::R15,
                        disp: 0,
                        ..
                    }
                ) && matches!(b, janitizer_isa::Instr::Ret)
                {
                    info.resolver_rets.insert(ret_addr);
                }
            }
            // Call-preceded addresses (for BinCFI's return policy).
            for (addr, insn) in &block.insns {
                if insn.is_call() {
                    info.call_preceded.insert(addr + insn.encoded_len() as u64);
                }
            }
        }
        info
    }

    /// The weaker load-time variant for stripped modules (§4.2.2): no full
    /// symbol table, so function knowledge degrades to exports plus
    /// scanned constants.
    pub fn from_stripped_image(image: &Image) -> CfiModuleInfo {
        let mut info = CfiModuleInfo::from_image(image);
        // Without full symbols the function set is just the exports; the
        // address-taken refinement cannot check function boundaries, so it
        // falls back to "any scanned constant in a code section" (the
        // paper's exported-symbols-and-code-section-addresses policy).
        info.functions = info.exported.clone();
        info.address_taken = info.scanned_code_ptrs.clone();
        info
    }

    /// Rebases every address by the module's load bias.
    pub fn rebase(&self, bias: u64) -> CfiModuleInfo {
        let shift = |s: &BTreeSet<u64>| s.iter().map(|a| a + bias).collect::<BTreeSet<u64>>();
        CfiModuleInfo {
            functions: shift(&self.functions),
            func_ranges: self
                .func_ranges
                .iter()
                .map(|(a, b)| (a + bias, b + bias))
                .collect(),
            exported: shift(&self.exported),
            address_taken: shift(&self.address_taken),
            boundaries: shift(&self.boundaries),
            plt_stubs: shift(&self.plt_stubs),
            plt_range: self.plt_range.map(|(a, b)| (a + bias, b + bias)),
            resolver_rets: shift(&self.resolver_rets),
            call_preceded: shift(&self.call_preceded),
            scanned_code_ptrs: shift(&self.scanned_code_ptrs),
            allowlist: shift(&self.allowlist),
            scanned_boundary_ptrs: shift(&self.scanned_boundary_ptrs),
            code_bytes: self.code_bytes,
        }
    }

    /// The function range containing `addr`, if known.
    pub fn function_range_of(&self, addr: u64) -> Option<(u64, u64)> {
        self.func_ranges
            .iter()
            .copied()
            .find(|&(lo, hi)| addr >= lo && addr < hi)
    }
}
