//! objdump-style disassembly listings.

use crate::cfg::ModuleCfg;
use janitizer_obj::Image;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders an objdump-like listing of every recovered block in `image`,
/// with section headers, symbol labels, raw bytes and decoded mnemonics.
///
/// Blocks the static analyzer could not discover are absent — exactly the
/// coverage gap the dynamic modifier later fills, so diffing two listings
/// (static vs executed) visualizes Figure 14.
pub fn disassemble(image: &Image, cfg: &ModuleCfg) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} format, {} bytes of code\n",
        image.name,
        if image.pic { "pic" } else { "non-pic" },
        image.code_bytes()
    );

    // Symbol lookup by address.
    let mut sym_at: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    for s in image.functions() {
        sym_at.entry(s.value).or_default().push(&s.name);
    }
    for p in &image.plt {
        sym_at.entry(p.plt_offset).or_default().push(&p.symbol); // stub label
    }

    let mut last_section = None;
    for block in cfg.blocks.values() {
        let section = image.section_containing(block.start);
        if let Some(sec) = section {
            if last_section != Some(sec.kind) {
                let _ = writeln!(out, "Disassembly of section {}:", sec.kind.name());
                last_section = Some(sec.kind);
            }
        }
        if let Some(names) = sym_at.get(&block.start) {
            for n in names {
                let _ = writeln!(out, "\n{:#010x} <{}>:", block.start, n);
            }
        }
        for (addr, insn) in &block.insns {
            // Raw bytes.
            let mut bytes = Vec::new();
            insn.encode(&mut bytes);
            let hex: String = bytes.iter().map(|b| format!("{b:02x} ")).collect();
            let _ = writeln!(out, "  {addr:#010x}:  {hex:<31} {insn}");
        }
        match block.term {
            crate::cfg::Term::IndirectJump { resolved: false } => {
                let _ = writeln!(out, "  ; unresolved indirect jump");
            }
            crate::cfg::Term::IndirectJump { resolved: true } => {
                if let Some(jt) = cfg
                    .jump_tables
                    .iter()
                    .find(|j| block.insns.last().map(|(a, _)| *a) == Some(j.jmp_addr))
                {
                    let _ = writeln!(
                        out,
                        "  ; jump table at {:#x} with {} targets",
                        jt.table_addr,
                        jt.targets.len()
                    );
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::analyze_module;

    #[test]
    fn listing_contains_symbols_sections_and_bytes() {
        let src = ".section text\n.global _start\n_start:\n mov r0, 7\n call helper\n ret\n\
                   helper:\n add r0, 1\n ret\n";
        let o = janitizer_asm::assemble("t.s", src, &janitizer_asm::AsmOptions::default()).unwrap();
        let img =
            janitizer_link::link(&[o], &janitizer_link::LinkOptions::executable("t")).unwrap();
        let cfg = analyze_module(&img);
        let text = disassemble(&img, &cfg);
        assert!(text.contains("Disassembly of section .text"), "{text}");
        assert!(text.contains("<_start>:"));
        assert!(text.contains("<helper>:"));
        assert!(text.contains("mov r0, 7"));
        assert!(text.contains("ret"));
        // Raw encoding of `ret` (0x6c) appears as hex.
        assert!(text.contains("6c "));
    }

    #[test]
    fn listing_annotates_jump_tables_and_unresolved_jumps() {
        let src = ".section text\n.global _start\n_start:\n\
             cmp r0, 4\n jae def\n la r7, tbl\n ld8 r7, [r7+r0*8]\n jmp r7\n\
             a:\n ret\n b:\n ret\n def:\n la r1, a\n add r1, 1\n jmp r1\n\
             .section rodata\ntbl: .quad a, b, a, b\n";
        let o = janitizer_asm::assemble("t.s", src, &janitizer_asm::AsmOptions::default()).unwrap();
        let img =
            janitizer_link::link(&[o], &janitizer_link::LinkOptions::executable("t")).unwrap();
        let cfg = analyze_module(&img);
        let text = disassemble(&img, &cfg);
        assert!(text.contains("jump table at"), "{text}");
        assert!(text.contains("unresolved indirect jump"), "{text}");
    }
}
