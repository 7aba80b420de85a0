//! Raw-binary code-pointer scanning (paper §4.2.1).
//!
//! BinCFI-style discovery of address-taken code: slide a window over every
//! section's raw bytes and collect values that land inside code sections.
//! Two refinements are exposed, matching the paper's comparison:
//!
//! * **BinCFI policy**: any scanned constant at an *instruction boundary*;
//! * **JCFI policy**: only constants that match a *function entry*.
//!
//! For PIC modules, absolute addresses never appear in the raw bytes —
//! they live in dynamic relocations (the GOT-offset case of the paper) —
//! so the scan also walks `dyn_relocs`.

use crate::cfg::ModuleCfg;
use crate::index::ImageIndex;
use janitizer_obj::{DynTarget, Image};
use std::collections::BTreeSet;

/// Results of a code-pointer scan.
#[derive(Clone, Debug, Default)]
pub struct CodePtrScan {
    /// Every scanned constant that lands inside a code section (the
    /// weakest filter — what load-time analysis of stripped binaries can
    /// check, paper §4.2.2).
    pub in_code: BTreeSet<u64>,
    /// Scanned constants that fall on recovered instruction boundaries
    /// (BinCFI's allowed-target set).
    pub at_insn_boundary: BTreeSet<u64>,
    /// The subset that also matches a known function entry (JCFI's
    /// refined set).
    pub at_func_entry: BTreeSet<u64>,
}

/// Scans `image` for code pointers, sliding byte-by-byte over all section
/// contents and walking PIC dynamic relocations.
pub fn scan_code_pointers(image: &Image, cfg: &ModuleCfg) -> CodePtrScan {
    let mut candidates: BTreeSet<u64> = BTreeSet::new();
    let index = ImageIndex::new(image);

    // Raw byte scan: 8-byte window advancing one byte at a time.
    for sec in &image.sections {
        if sec.data.len() < 8 {
            continue;
        }
        for off in 0..=sec.data.len() - 8 {
            let v = u64::from_le_bytes(sec.data[off..off + 8].try_into().unwrap());
            if v != 0 && index.in_code(v) {
                candidates.insert(v);
            }
        }
    }
    // PIC: pointers materialize through dynamic relocations.
    for rel in &image.dyn_relocs {
        if let DynTarget::Base(v) = rel.target {
            if index.in_code(v) {
                candidates.insert(v);
            }
        }
    }
    // PIC code takes addresses PC-relatively (`lea rd, [pc+off]`) — the
    // paper's "offsets with respect to the GOT instead of absolute
    // addresses" case: check whether the offset lands on valid code.
    for block in cfg.blocks.values() {
        let mut iter = block.insns.iter().peekable();
        while let Some((addr, insn)) = iter.next() {
            if let janitizer_isa::Instr::LeaPc { disp, .. } = insn {
                let next = iter
                    .peek()
                    .map(|(a, _)| *a)
                    .unwrap_or(block.end)
                    .max(addr + 1);
                let target = next.wrapping_add(*disp as i64 as u64);
                if index.in_code(target) {
                    candidates.insert(target);
                }
            }
        }
    }

    let func_entries: BTreeSet<u64> = cfg.functions.iter().map(|f| f.entry).collect();
    let at_insn_boundary: BTreeSet<u64> = candidates
        .iter()
        .copied()
        .filter(|v| cfg.insn_boundaries.contains(v))
        .collect();
    let at_func_entry = at_insn_boundary
        .iter()
        .copied()
        .filter(|v| func_entries.contains(v))
        .collect();
    CodePtrScan {
        in_code: candidates,
        at_insn_boundary,
        at_func_entry,
    }
}
