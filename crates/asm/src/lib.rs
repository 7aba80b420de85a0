//! # JX-64 assembler
//!
//! A two-pass assembler from a textual syntax to JOF relocatable
//! [`janitizer_obj::Object`]s. The guest libc, the libgfortran-like low-level library and
//! the hand-written parts of the workloads are written in this syntax; the
//! MiniC compiler also emits it.
//!
//! ## Syntax overview
//!
//! ```text
//! .section text          ; also data, rodata, bss, init, fini
//! .global main
//! main:
//!     push fp
//!     mov fp, sp
//!     mov r0, 42         ; immediates: decimal, hex, 'c'
//!     ld8 r1, [sp+8]     ; loads/stores: ld1/ld2/ld4/ld8, st1/st2/st4/st8
//!     st8 [r1+r2*8+16], r0
//!     la r0, message     ; load address (absolute or PC-relative per mode)
//!     lg r1, counter     ; load address via the GOT (PIC cross-module data)
//!     call puts          ; direct call (may resolve to a PLT stub)
//!     je done
//!     ret
//! done:
//!     ret
//!
//! .section rodata
//! message: .asciz "hello"
//! table:   .quad main, done     ; 8-byte pointers, relocated
//! ```
//!
//! The assembler runs in either **PIC** or **non-PIC** mode
//! ([`AsmOptions::pic`]): `la` expands to `lea rd, [pc+...]` in PIC mode
//! and to `mov rd, imm64` with an absolute relocation otherwise — exactly
//! the distinction that makes RetroWrite-style static rewriting possible
//! for one class of binaries and not the other (paper §2.1).
//!
//! ```
//! use janitizer_asm::{assemble, AsmOptions};
//!
//! # fn main() -> Result<(), janitizer_asm::AsmError> {
//! let obj = assemble(
//!     "exit42.s",
//!     ".section text\n.global _start\n_start:\n mov r0, 0\n mov r1, 42\n syscall\n",
//!     &AsmOptions::default(),
//! )?;
//! assert!(obj.symbol("_start").is_some());
//! # Ok(())
//! # }
//! ```

mod parser;

pub use parser::{assemble, AsmError, AsmOptions};

#[cfg(test)]
mod tests {
    use super::*;
    use janitizer_isa::{decode, Instr, Reg};
    use janitizer_obj::{RelocKind, SectionKind};

    fn asm(src: &str) -> janitizer_obj::Object {
        assemble("test.s", src, &AsmOptions::default()).expect("assembly failed")
    }

    fn asm_pic(src: &str) -> janitizer_obj::Object {
        assemble("test.s", src, &AsmOptions { pic: true }).expect("assembly failed")
    }

    fn decode_all(data: &[u8]) -> Vec<Instr> {
        let mut out = Vec::new();
        let mut off = 0;
        while off < data.len() {
            let (i, next) = decode(data, off).unwrap();
            out.push(i);
            off = next;
        }
        out
    }

    #[test]
    fn basic_instructions_assemble() {
        let obj = asm(".section text\n\
             start:\n\
             \tnop\n\
             \tmov r0, 5\n\
             \tmov r1, r0\n\
             \tadd r1, 3\n\
             \tsub r1, r0\n\
             \tret\n");
        let text = obj.section(SectionKind::Text).unwrap();
        let insns = decode_all(&text.data);
        assert_eq!(insns[0], Instr::Nop);
        assert_eq!(
            insns[1],
            Instr::MovI32 {
                rd: Reg::R0,
                imm: 5
            }
        );
        assert_eq!(
            insns[2],
            Instr::MovRr {
                rd: Reg::R1,
                rs: Reg::R0
            }
        );
        assert_eq!(insns[5], Instr::Ret);
    }

    #[test]
    fn memory_operands() {
        let obj = asm(".section text\n\
             f:\n\
             \tld8 r1, [sp+8]\n\
             \tld4 r2, [r1]\n\
             \tst1 [r1-4], r2\n\
             \tld8 r3, [r1+r2*8+16]\n\
             \tst8 [r1+r2*1], r3\n\
             \tlea r4, [fp-32]\n\
             \tret\n");
        let text = obj.section(SectionKind::Text).unwrap();
        let insns = decode_all(&text.data);
        assert!(matches!(
            insns[0],
            Instr::Ld {
                base: Reg::R15,
                disp: 8,
                ..
            }
        ));
        assert!(matches!(insns[2], Instr::St { disp: -4, .. }));
        assert!(matches!(
            insns[3],
            Instr::LdIdx {
                scale: 3,
                disp: 16,
                ..
            }
        ));
        assert!(matches!(insns[4], Instr::StIdx { scale: 0, .. }));
        assert!(matches!(
            insns[5],
            Instr::Lea {
                base: Reg::R14,
                disp: -32,
                ..
            }
        ));
    }

    #[test]
    fn local_branches_resolve_without_relocs() {
        let obj = asm(".section text\n\
             f:\n\
             \tcmp r0, 0\n\
             \tje out\n\
             \tsub r0, 1\n\
             \tjmp f\n\
             out:\n\
             \tret\n");
        assert!(obj.relocs.is_empty(), "local branches need no relocations");
        let text = obj.section(SectionKind::Text).unwrap();
        let insns = decode_all(&text.data);
        // jmp f: backwards branch.
        let Instr::Jmp { rel } = insns[3] else {
            panic!()
        };
        assert!(rel < 0);
    }

    #[test]
    fn call_emits_plt32_reloc() {
        let obj = asm(".section text\nf:\n\tcall puts\n\tret\n");
        assert_eq!(obj.relocs.len(), 1);
        let r = &obj.relocs[0];
        assert_eq!(r.kind, RelocKind::Plt32);
        assert_eq!(r.symbol, "puts");
        assert_eq!(r.offset, 1, "rel32 operand starts after the opcode byte");
    }

    #[test]
    fn la_mode_dependence() {
        let src = ".section text\nf:\n\tla r0, target\n\tret\n.section data\ntarget: .quad 0\n";
        let nonpic = asm(src);
        let text = nonpic.section(SectionKind::Text).unwrap();
        assert!(matches!(decode_all(&text.data)[0], Instr::MovI64 { .. }));
        assert_eq!(nonpic.relocs[0].kind, RelocKind::Abs64);

        let pic = asm_pic(src);
        let text = pic.section(SectionKind::Text).unwrap();
        assert!(matches!(decode_all(&text.data)[0], Instr::LeaPc { .. }));
        assert_eq!(pic.relocs[0].kind, RelocKind::Pc32);
    }

    #[test]
    fn lg_uses_got() {
        let obj = asm_pic(".section text\nf:\n\tlg r2, shared_counter\n\tret\n");
        assert_eq!(obj.relocs[0].kind, RelocKind::GotPc32);
        let text = obj.section(SectionKind::Text).unwrap();
        let insns = decode_all(&text.data);
        assert!(matches!(insns[0], Instr::LeaPc { rd: Reg::R2, .. }));
        assert!(matches!(
            insns[1],
            Instr::Ld {
                rd: Reg::R2,
                base: Reg::R2,
                ..
            }
        ));
    }

    #[test]
    fn data_directives() {
        let obj = asm(".section data\n\
             bytes: .byte 1, 2, 0xff\n\
             words: .word 0x11223344\n\
             quads: .quad 0x1122334455667788\n\
             blob:  .space 10\n\
             text1: .ascii \"ab\"\n\
             text2: .asciz \"cd\"\n");
        let data = obj.section(SectionKind::Data).unwrap();
        assert_eq!(&data.data[0..3], &[1, 2, 0xff]);
        assert_eq!(&data.data[3..7], &0x11223344u32.to_le_bytes());
        assert_eq!(&data.data[7..15], &0x1122334455667788u64.to_le_bytes());
        assert_eq!(&data.data[25..27], b"ab");
        assert_eq!(&data.data[27..30], b"cd\0");
        assert_eq!(obj.symbol("blob").unwrap().value, 15);
    }

    #[test]
    fn quad_with_symbol_emits_abs64() {
        let obj = asm(".section text\nf:\n\tret\ng:\n\tret\n\
             .section rodata\ntbl: .quad f, g\n");
        let rels: Vec<_> = obj
            .relocs
            .iter()
            .filter(|r| r.section == SectionKind::Rodata)
            .collect();
        assert_eq!(rels.len(), 2);
        assert!(rels.iter().all(|r| r.kind == RelocKind::Abs64));
        assert_eq!(rels[1].offset, 8);
    }

    #[test]
    fn bss_takes_no_file_space() {
        let obj = asm(".section bss\nbuf: .space 4096\n");
        let bss = obj.section(SectionKind::Bss).unwrap();
        assert!(bss.data.is_empty());
        assert_eq!(bss.mem_size, 4096);
    }

    #[test]
    fn globals_and_locals() {
        let obj = asm(".section text\n.global f\nf:\n\tret\nhelper:\n\tret\n");
        use janitizer_obj::SymBind;
        assert_eq!(obj.symbol("f").unwrap().bind, SymBind::Global);
        assert_eq!(obj.symbol("helper").unwrap().bind, SymBind::Local);
    }

    #[test]
    fn function_sizes_recorded() {
        let obj = asm(".section text\nf:\n\tnop\n\tnop\n\tret\ng:\n\tret\n");
        assert_eq!(obj.symbol("f").unwrap().size, 3);
        assert_eq!(obj.symbol("g").unwrap().size, 1);
    }

    #[test]
    fn errors_are_reported_with_lines() {
        let err = assemble(
            "bad.s",
            ".section text\nf:\n\tbogus r0\n",
            &AsmOptions::default(),
        )
        .unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("bad.s:3"), "got: {msg}");
        assert!(assemble("bad.s", "f:\n\tmov r99, 1\n", &AsmOptions::default()).is_err());
        assert!(assemble("dup.s", ".section text\nf:\nf:\n", &AsmOptions::default()).is_err());
        assert!(assemble(
            "undef.s",
            ".section text\nf:\n\tje nowhere\n",
            &AsmOptions::default()
        )
        .is_err());
    }

    #[test]
    fn data_in_text_is_allowed() {
        // Jump tables interleaved with code — the code/data ambiguity that
        // makes static-only disassembly unsound (paper §2.1).
        let obj = asm(".section text\n\
             f:\n\tret\n\
             jumptable: .quad f\n\
             g:\n\tret\n");
        let text = obj.section(SectionKind::Text).unwrap();
        assert_eq!(text.data.len(), 1 + 8 + 1);
        assert_eq!(obj.symbol("g").unwrap().value, 9);
    }

    #[test]
    fn tls_and_stack_instructions() {
        let obj = asm(".section text\n\
             f:\n\
             \trdtls r6, 0x28\n\
             \twrtls r6, 0x100\n\
             \tpushf\n\
             \tpopf\n\
             \tpush r8\n\
             \tpop r8\n\
             \tret\n");
        let insns = decode_all(&obj.section(SectionKind::Text).unwrap().data);
        assert_eq!(
            insns[0],
            Instr::RdTls {
                rd: Reg::R6,
                off: 0x28
            }
        );
        assert_eq!(
            insns[1],
            Instr::WrTls {
                rs: Reg::R6,
                off: 0x100
            }
        );
        assert_eq!(insns[2], Instr::PushF);
    }

    #[test]
    fn align_directive() {
        let obj = asm(".section data\na: .byte 1\n.align 8\nb: .quad 2\n");
        assert_eq!(obj.symbol("b").unwrap().value, 8);
    }

    #[test]
    fn char_and_negative_immediates() {
        let obj = asm(".section text\nf:\n\tmov r0, 'A'\n\tmov r1, -7\n\tret\n");
        let insns = decode_all(&obj.section(SectionKind::Text).unwrap().data);
        assert_eq!(
            insns[0],
            Instr::MovI32 {
                rd: Reg::R0,
                imm: 65
            }
        );
        assert_eq!(
            insns[1],
            Instr::MovI32 {
                rd: Reg::R1,
                imm: -7
            }
        );
    }
}
