//! The hostile-module gauntlet: small executables built to defeat naive
//! disassembly the way stripped and obfuscated production binaries do.
//!
//! Each module carries its own ground truth: `gt<N>`/`gt<N>_end` label
//! pairs bracket the bytes that really are instructions, recorded from
//! the symbol table *before* the image is stripped. A disassembler's
//! static coverage on a hostile module is measured against exactly these
//! ranges, so missed code and mis-decoded data both count against it.
//!
//! Four classes, one per way real binaries go hostile:
//!
//! * `stripped` — functions reachable only through a function-pointer
//!   table, all local symbols removed. Each target starts with the
//!   JX-64 landing-pad anchor so the analyzer can prove them.
//! * `data-island` — a byte blob in `.text` that decodes as plausible
//!   instructions, is fallen into by a never-taken branch, and is read
//!   as data at run time.
//! * `overlap` — one byte region with two valid decodings at different
//!   offsets; the decoy swallows the real code as immediate payload.
//!   The real entry performs a heap overflow, so detection must survive
//!   whatever the analyzer decides about the region.
//! * `jump-table` — an indirect dispatch whose table base lives in a
//!   different register than the jump, outside the analyzer's
//!   pattern-match window, with the case blocks stripped.

use crate::build_exe;
use janitizer_minic::CompileOptions;
use janitizer_obj::Image;

/// One hostile executable plus the oracle needed to judge a disassembler
/// on it.
pub struct HostileModule {
    /// Module (and store) name, e.g. `hostile-stripped`.
    pub name: &'static str,
    /// Hostility class: `stripped`, `data-island`, `overlap` or
    /// `jump-table`.
    pub class: &'static str,
    /// What makes the module hostile, for reports.
    pub describe: &'static str,
    /// The stripped image as it would ship.
    pub image: Image,
    /// Ground-truth instruction byte ranges `[start, end)`, from the
    /// pre-strip `gt<N>`/`gt<N>_end` labels.
    pub code_ranges: Vec<(u64, u64)>,
    /// Whether a JASan run of the module must report a violation (the
    /// fig10-class detection that has to survive degradation).
    pub expect_violation: bool,
}

impl HostileModule {
    /// Total ground-truth instruction bytes.
    pub fn code_bytes(&self) -> u64 {
        self.code_ranges.iter().map(|&(s, e)| e - s).sum()
    }
}

/// Address of a (possibly local) defined label in an unstripped image.
fn label(image: &Image, name: &str) -> u64 {
    image
        .symbols
        .iter()
        .find(|s| s.name == name && !s.is_undefined())
        .map(|s| s.value)
        .unwrap_or_else(|| panic!("hostile module is missing label `{name}`"))
}

/// Collects the `gt<N>`/`gt<N>_end` bracket pairs from an unstripped
/// image.
fn ground_truth(image: &Image) -> Vec<(u64, u64)> {
    let mut ranges = Vec::new();
    for n in 0.. {
        let start = format!("gt{n}");
        if !image.symbols.iter().any(|s| s.name == start) {
            break;
        }
        ranges.push((label(image, &start), label(image, &format!("gt{n}_end"))));
    }
    assert!(!ranges.is_empty(), "hostile module has no gt brackets");
    ranges
}

fn build(name: &'static str, asm: &str) -> (Image, Vec<(u64, u64)>) {
    let image = build_exe(
        name,
        "",
        Some(asm),
        &CompileOptions::default(),
        false,
        false,
    );
    let ranges = ground_truth(&image);
    (image.to_stripped(), ranges)
}

/// `stripped`: three helpers dispatched through a `.rodata` pointer
/// table, every local symbol removed. Each helper opens with the
/// landing-pad anchor (`test r0, 0x414c50`).
fn stripped_module() -> HostileModule {
    let asm = "\
.section text
.global main
main:
gt0:
 la r1, fptab
 mov r2, 0
fploop:
 cmp r2, 3
 jge fpdone
 ld8 r3, [r1+r2*8]
 call r3
 add r2, 1
 jmp fploop
fpdone:
 mov r0, 0
 ret
gt0_end:
helper0:
gt1:
 test r0, 0x414c50
 mov r4, 1
 ret
helper1:
 test r0, 0x414c50
 mov r4, 2
 ret
helper2:
 test r0, 0x414c50
 mov r4, 3
 ret
gt1_end:
.section rodata
.align 8
fptab:
 .quad helper0
 .quad helper1
 .quad helper2
";
    let (image, code_ranges) = build("hostile-stripped", asm);
    HostileModule {
        name: "hostile-stripped",
        class: "stripped",
        describe: "pointer-table dispatch to anchored helpers, all local symbols stripped",
        image,
        code_ranges,
        expect_violation: false,
    }
}

/// `data-island`: an 18-byte blob in `.text` that decodes as padding
/// plus a `mov`, sits on the fall-through edge of a never-taken branch,
/// and is loaded as data at run time.
fn data_island_module() -> HostileModule {
    let asm = "\
.section text
.global main
main:
gt0:
 la r1, island
 ld8 r2, [r1]
 cmp r2, 0
 je skip
gt0_end:
island:
 .byte 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00
 .byte 0x11, 0x05, 0x4a, 0x41, 0x4e, 0x49, 0x54, 0x49, 0x5a, 0x52
skip:
gt1:
 mov r0, 0
 ret
gt1_end:
";
    let (image, code_ranges) = build("hostile-island", asm);
    HostileModule {
        name: "hostile-island",
        class: "data-island",
        describe: "validly-decoding data blob in .text, branch-adjacent and read as data",
        image,
        code_ranges,
        expect_violation: false,
    }
}

/// `overlap`: the decoy decoding at `ovl_region` is a `mov r9, imm64`
/// whose 8 immediate bytes are exactly the real chain at `ovl_region+2`
/// (`st8`/`nop`/`ret`), followed by a bare `ret` byte. The real entry
/// writes one word past an 8-byte heap allocation.
fn overlap_module() -> HostileModule {
    let asm = "\
.section text
.global main
main:
gt0:
 mov r0, 8
 call malloc
 mov r9, r0
 la r1, otab
 ld8 r2, [r1]
 call r2
 mov r0, 0
 ret
gt0_end:
ovl_region:
 .byte 0x11, 0x09
ovl_entry:
gt1:
 st8 [r9+8], r9
 nop
 ret
gt1_end:
 .byte 0x6c
.section rodata
.align 8
otab:
 .quad ovl_entry
 .quad ovl_entry
 .quad ovl_region
";
    let (image, code_ranges) = build("hostile-overlap", asm);
    HostileModule {
        name: "hostile-overlap",
        class: "overlap",
        describe: "two valid decodings of one byte region; real entry overflows a heap chunk",
        image,
        code_ranges,
        expect_violation: true,
    }
}

/// `jump-table`: bounds-checked indirect dispatch whose table base is
/// materialized into a different register than the jump operand, so the
/// analyzer's backward pattern window never matches; case blocks are
/// stripped.
fn jump_table_module() -> HostileModule {
    let asm = "\
.section text
.global main
main:
gt0:
 mov r3, 1
 cmp r3, 3
 jae jt_done
 la r1, jtab
 ld8 r2, [r1+r3*8]
 jmp r2
jt_done:
 mov r0, 0
 ret
gt0_end:
case0:
gt1:
 mov r4, 10
 jmp jt_done
case1:
 mov r4, 11
 jmp jt_done
case2:
 mov r4, 12
 jmp jt_done
gt1_end:
.section rodata
.align 8
jtab:
 .quad case0
 .quad case1
 .quad case2
";
    let (image, code_ranges) = build("hostile-jumptab", asm);
    HostileModule {
        name: "hostile-jumptab",
        class: "jump-table",
        describe: "split-register jump-table dispatch outside the recovery pattern, cases stripped",
        image,
        code_ranges,
        expect_violation: false,
    }
}

/// `tiebreak-overlap-jt`: two overlapping instructions end where a
/// `jmp r2` starts — the `ld8` of a bounds-checked jump-table dispatch
/// and a `nop` decoded from that `ld8`'s last displacement byte, which a
/// never-taken branch reaches. The jump-table walk keeps one of the two
/// as the jump's predecessor, and only the `ld8` leads back to the table.
fn overlap_jump_table_fixture() -> Image {
    let asm = "\
.section text
.global main
main:
 mov r3, 1
 cmp r3, 0
 je tb_decoy
 cmp r3, 3
 jae tb_done
 la r2, tb_tab
 .byte 0x2b, 0x22, 0x33, 0x00, 0x00, 0x00
tb_decoy:
 .byte 0x00
 jmp r2
tb_done:
 mov r0, 0
 ret
tb_case0:
 mov r4, 10
 jmp tb_done
tb_case1:
 mov r4, 11
 jmp tb_done
tb_case2:
 mov r4, 12
 jmp tb_done
.section rodata
.align 8
tb_tab:
 .quad tb_case0
 .quad tb_case1
 .quad tb_case2
";
    build_exe(
        "tiebreak-overlap-jt",
        "",
        Some(asm),
        &CompileOptions::default(),
        false,
        false,
    )
    .to_stripped()
}

/// `tiebreak-overlaid`: a `.rodata` section laid over a helper's code,
/// ahead of `.text` in section order. The first section (in image
/// order) that contains an address owns it, so to the analyzer the
/// helper's bytes are data and the call into it leads nowhere.
fn overlaid_sections_fixture() -> Image {
    let asm = "\
.section text
.global main
main:
 mov r0, 8
 call malloc
 mov r9, r0
 call ov_helper
 mov r0, 0
 ret
ov_helper:
 st8 [r9], r9
 ld8 r1, [r9]
 ret
ov_helper_end:
";
    let mut image = build_exe(
        "tiebreak-overlaid",
        "",
        Some(asm),
        &CompileOptions::default(),
        false,
        false,
    );
    let (start, end) = (label(&image, "ov_helper"), label(&image, "ov_helper_end"));
    let text = image
        .section_containing(start)
        .expect("helper lies in .text");
    let off = (start - text.addr) as usize..(end - text.addr) as usize;
    let overlay = janitizer_obj::Section {
        kind: janitizer_obj::SectionKind::Rodata,
        addr: start,
        data: text.data[off].to_vec(),
        mem_size: end - start,
    };
    image.sections.insert(0, overlay);
    image.to_stripped()
}

/// Two fixtures for the analyzer's first-match tie-breaks, which no
/// world module and no [`hostile_suite`] image exercises: the
/// predecessor the jump-table walk keeps among overlapping instructions,
/// and the section that owns an address where sections overlap. They
/// stay out of the suite, so the gauntlet and every corpus built from
/// it keep their results.
pub fn first_match_fixtures() -> Vec<Image> {
    vec![overlap_jump_table_fixture(), overlaid_sections_fixture()]
}

/// Builds the full gauntlet, one module per hostility class.
pub fn hostile_suite() -> Vec<HostileModule> {
    vec![
        stripped_module(),
        data_island_module(),
        overlap_module(),
        jump_table_module(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauntlet_builds_with_ground_truth() {
        let suite = hostile_suite();
        assert_eq!(suite.len(), 4);
        let classes: Vec<&str> = suite.iter().map(|m| m.class).collect();
        assert_eq!(
            classes,
            ["stripped", "data-island", "overlap", "jump-table"]
        );
        for m in &suite {
            assert!(m.code_bytes() > 0, "{}: empty ground truth", m.name);
            for &(s, e) in &m.code_ranges {
                assert!(s < e, "{}: inverted gt range", m.name);
            }
            // Stripped as shipped: no local labels left to lean on.
            assert!(
                m.image
                    .symbols
                    .iter()
                    .all(|s| s.bind == janitizer_obj::SymBind::Global),
                "{}: local symbols survived the strip",
                m.name
            );
        }
    }

    #[test]
    fn anchors_only_in_stripped_class() {
        for m in hostile_suite() {
            let anchors = m.image.anchor_addrs();
            if m.class == "stripped" {
                assert_eq!(anchors.len(), 3, "one anchor per helper");
            } else {
                assert!(anchors.is_empty(), "{}: unexpected anchors", m.name);
            }
        }
    }
}
