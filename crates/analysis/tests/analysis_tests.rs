//! Static-analyzer tests over real toolchain output.

use janitizer_analysis::*;
use janitizer_asm::{assemble, AsmOptions};
use janitizer_isa::{Instr, Reg};
use janitizer_link::{link, LinkOptions};
use janitizer_minic::{compile, CanaryMode, CompileOptions};
use janitizer_obj::{Image, SectionKind};

fn image_from_asm(src: &str) -> Image {
    let o = assemble("t.s", src, &AsmOptions::default()).expect("asm");
    link(&[o], &LinkOptions::executable("t")).expect("link")
}

fn image_from_c(src: &str, opts: &CompileOptions) -> Image {
    let asm = compile(src, opts).expect("compile");
    let crt = ".section text\n.global __stack_chk_fail\n__stack_chk_fail:\n trap\n";
    let o1 = assemble("t.s", &asm, &AsmOptions::default()).expect("asm");
    let o2 = assemble("crt.s", crt, &AsmOptions::default()).expect("crt");
    link(&[o1, o2], &LinkOptions::executable("t")).expect("link")
}

#[test]
fn straightline_single_block() {
    let img =
        image_from_asm(".section text\n.global _start\n_start:\n mov r0, 1\n add r0, 2\n ret\n");
    let cfg = analyze_module(&img);
    assert_eq!(cfg.blocks.len(), 1);
    let b = cfg.blocks.values().next().unwrap();
    assert_eq!(b.insns.len(), 3);
    assert_eq!(b.term, Term::Ret);
    assert_eq!(cfg.insn_count(), 3);
}

#[test]
fn diamond_cfg() {
    let img = image_from_asm(
        ".section text\n.global _start\n_start:\n cmp r0, 0\n je iszero\n mov r1, 1\n jmp done\n\
         iszero:\n mov r1, 2\ndone:\n ret\n",
    );
    let cfg = analyze_module(&img);
    assert_eq!(cfg.blocks.len(), 4);
    let entry = cfg.blocks.values().next().unwrap();
    assert_eq!(entry.term, Term::CondJump);
    assert_eq!(entry.succs.len(), 2);
    // Both paths converge on the `done` block.
    let done = cfg
        .blocks
        .values()
        .find(|b| b.term == Term::Ret)
        .expect("ret block");
    let preds: usize = cfg
        .blocks
        .values()
        .filter(|b| b.succs.contains(&done.start))
        .count();
    assert_eq!(preds, 2);
}

#[test]
fn calls_create_function_entries() {
    let img = image_from_asm(
        ".section text\n.global _start\n_start:\n call worker\n ret\nworker:\n ret\n",
    );
    let cfg = analyze_module(&img);
    assert!(cfg.functions.iter().any(|f| f.name == "worker"));
    let entry_block = cfg.blocks.values().next().unwrap();
    assert_eq!(entry_block.term, Term::Call);
    assert!(entry_block.call_target.is_some());
}

#[test]
fn all_code_sections_are_analyzed() {
    // Unlike Janus, .init/.fini/.plt must be covered (paper §3.3.1).
    let img = image_from_asm(
        ".section init\nsetup:\n nop\n ret\n\
         .section text\n.global _start\n_start:\n call puts\n ret\n\
         .section fini\nteardown:\n ret\n",
    );
    let cfg = analyze_module(&img);
    let init = img.section(SectionKind::Init).unwrap().addr;
    let fini = img.section(SectionKind::Fini).unwrap().addr;
    let plt = img.section(SectionKind::Plt).unwrap().addr;
    assert!(cfg.blocks.contains_key(&init), ".init recovered");
    assert!(cfg.blocks.contains_key(&fini), ".fini recovered");
    assert!(
        cfg.blocks.keys().any(|&a| a >= plt && a < plt + 32),
        "PLT stubs recovered"
    );
}

#[test]
fn jump_table_recovered_in_nonpic() {
    let src = "long f(long x) { switch (x) {\
                 case 0: return 5; case 1: return 6; case 2: return 7;\
                 case 3: return 8; case 4: return 9; default: return 1; } }\
               long main() { return f(3); }";
    let img = image_from_c(
        src,
        &CompileOptions {
            emit_start: true,
            ..CompileOptions::default()
        },
    );
    let cfg = analyze_module(&img);
    assert_eq!(cfg.jump_tables.len(), 1, "one dense switch, one table");
    let jt = &cfg.jump_tables[0];
    assert_eq!(jt.targets.len(), 5);
    // All targets must be recovered blocks.
    for t in &jt.targets {
        assert!(cfg.blocks.contains_key(t), "table target {t:#x} is a block");
    }
    // And the indirect jump is resolved, not left unknown.
    assert!(cfg.unresolved_indirect.is_empty());
}

#[test]
fn jump_table_recovered_in_pic() {
    let src = "long f(long x) { switch (x) {\
                 case 0: return 5; case 1: return 6; case 2: return 7;\
                 case 3: return 8; case 4: return 9; default: return 1; } }";
    let asm = compile(src, &CompileOptions::default()).unwrap();
    let o = assemble("t.s", &asm, &AsmOptions { pic: true }).unwrap();
    let img = link(&[o], &LinkOptions::shared_object("libt.so")).unwrap();
    let cfg = analyze_module(&img);
    assert_eq!(
        cfg.jump_tables.len(),
        1,
        "PIC jump tables are found through dynamic relocations"
    );
    assert_eq!(cfg.jump_tables[0].targets.len(), 5);
}

#[test]
fn computed_goto_stays_unresolved() {
    // An indirect jump with no recognizable table: static analysis cannot
    // resolve it; the block it reaches is missed.
    let img = image_from_asm(
        ".section text\n.global _start\n_start:\n la r1, hidden\n jmp r1\n\
         hidden_unref:\n nop\nhidden:\n ret\n",
    );
    let cfg = analyze_module(&img);
    assert_eq!(cfg.unresolved_indirect.len(), 1);
}

#[test]
fn liveness_dead_scratch_registers() {
    // After `mov r1, r0`, r2..r13 are dead in this tiny function.
    let img = image_from_asm(
        ".section text\n.global _start\n_start:\n mov r1, r0\n add r1, 1\n st8 [r1], r0\n mov r0, r1\n ret\n",
    );
    let cfg = analyze_module(&img);
    let lv = compute_liveness(&cfg);
    let block = cfg.blocks.values().next().unwrap();
    let (st_addr, st) = block.insns[2];
    assert!(matches!(st, Instr::St { .. }));
    let dead = lv.dead_regs_at(st_addr, &st);
    // r0 and r1 are used by the store; r2 must be free.
    assert_eq!(dead & Reg::R0.bit(), 0);
    assert_eq!(dead & Reg::R1.bit(), 0);
    assert_ne!(dead & Reg::R2.bit(), 0, "r2 is dead scratch");
    assert_eq!(dead & Reg::SP.bit(), 0, "sp is never scratch");
}

#[test]
fn liveness_flags() {
    let img = image_from_asm(
        ".section text\n.global _start\n_start:\n cmp r0, 5\n st8 [r1], r0\n je yes\n ret\nyes:\n ret\n",
    );
    let cfg = analyze_module(&img);
    let lv = compute_liveness(&cfg);
    let block = cfg.blocks.values().next().unwrap();
    let (st_addr, _) = block.insns[1];
    assert!(
        lv.flags_live_at(st_addr),
        "flags live across the store (consumed by je)"
    );
    let (cmp_addr, _) = block.insns[0];
    assert!(
        !lv.flags_live_at(cmp_addr),
        "flags dead before the cmp that defines them"
    );
}

#[test]
fn liveness_conservative_at_unresolved_indirect() {
    let img = image_from_asm(".section text\n.global _start\n_start:\n st8 [r1], r0\n jmp r2\n");
    let cfg = analyze_module(&img);
    let lv = compute_liveness(&cfg);
    let block = cfg.blocks.values().next().unwrap();
    let (st_addr, st) = block.insns[0];
    assert_eq!(
        lv.dead_regs_at(st_addr, &st),
        0,
        "everything live before an unresolved indirect jump"
    );
    assert!(lv.flags_live_at(st_addr));
}

#[test]
fn ipa_ra_inbound_detection() {
    // With ipa_ra, `main` holds a value in a caller-saved register across
    // the call to `leaf`; liveness must report it as inbound for `leaf`.
    let src = "long leaf(long x) { return x + 1; }\
               long main() { long acc = 40; return acc + leaf(1); }";
    let img = image_from_c(
        src,
        &CompileOptions {
            ipa_ra: true,
            emit_start: true,
            ..CompileOptions::default()
        },
    );
    let cfg = analyze_module(&img);
    let lv = compute_liveness(&cfg);
    let leaf = cfg.functions.iter().find(|f| f.name == "leaf").unwrap();
    let inbound = lv.inbound.get(&leaf.entry).copied().unwrap_or(0);
    assert_ne!(
        inbound & 0b111100,
        0,
        "a hold register (r2-r5) must be reported inbound for leaf, got {inbound:#x}"
    );

    // Without ipa_ra there is no hazard.
    let img2 = image_from_c(
        src,
        &CompileOptions {
            emit_start: true,
            ..CompileOptions::default()
        },
    );
    let cfg2 = analyze_module(&img2);
    let lv2 = compute_liveness(&cfg2);
    let leaf2 = cfg2.functions.iter().find(|f| f.name == "leaf").unwrap();
    assert_eq!(
        lv2.inbound.get(&leaf2.entry).copied().unwrap_or(0) & 0b111100,
        0
    );
}

#[test]
fn canary_sites_detected() {
    let src = "long main() { char buf[16]; buf[0] = 1; return buf[0]; }";
    let img = image_from_c(
        src,
        &CompileOptions {
            emit_start: true,
            canary: CanaryMode::Arrays,
            ..CompileOptions::default()
        },
    );
    let cfg = analyze_module(&img);
    let sites = find_canary_sites(&cfg);
    assert_eq!(sites.len(), 1, "one protected frame");
    let s = &sites[0];
    assert_eq!(s.slot_disp, -8);
    assert!(s.poison_at > s.store_addr);
    assert_ne!(s.check_load_addr, 0);
    let exempt = canary_exempt_addrs(&sites);
    assert!(exempt.contains(&s.store_addr));
    assert!(exempt.contains(&s.check_load_addr));
}

#[test]
fn no_canary_sites_without_protection() {
    let src = "long main() { return 7; }";
    let img = image_from_c(
        src,
        &CompileOptions {
            emit_start: true,
            canary: CanaryMode::Off,
            ..CompileOptions::default()
        },
    );
    let cfg = analyze_module(&img);
    assert!(find_canary_sites(&cfg).is_empty());
}

#[test]
fn loops_and_invariants() {
    // for-loop writing through an invariant pointer (r8-like base held in
    // a register the loop never writes).
    let img = image_from_asm(
        ".section text\n.global _start\n_start:\n\
         la r8, buf\n mov r2, 0\n\
         loop:\n ld8 r3, [r8]\n add r3, r2\n st8 [r8], r3\n add r2, 1\n cmp r2, 100\n jne loop\n\
         ret\n\
         .section data\nbuf: .quad 0\n",
    );
    let cfg = analyze_module(&img);
    let loops = find_loops(&cfg);
    assert_eq!(loops.len(), 1);
    let lp = &loops[0];
    assert!(lp.induction.is_some(), "counted loop detected");
    assert_eq!(lp.induction.unwrap().step, 1);
    let inv = loop_invariant_accesses(&cfg, &loops);
    assert_eq!(inv.len(), 2, "both [r8] accesses are invariant: {inv:?}");
}

#[test]
fn loop_with_call_has_no_invariants() {
    let img = image_from_asm(
        ".section text\n.global _start\n_start:\n\
         mov r2, 0\n\
         loop:\n ld8 r3, [r8]\n call helper\n add r2, 1\n cmp r2, 10\n jne loop\n ret\n\
         helper:\n ret\n",
    );
    let cfg = analyze_module(&img);
    let loops = find_loops(&cfg);
    let inv = loop_invariant_accesses(&cfg, &loops);
    assert!(inv.is_empty(), "calls clobber everything");
}

#[test]
fn code_pointer_scan_nonpic() {
    let img = image_from_asm(
        ".section text\n.global _start\n_start:\n ret\nhelper:\n ret\n\
         .section data\nfnptr: .quad helper\nnotptr: .quad 0x1234\n",
    );
    let cfg = analyze_module(&img);
    let scan = scan_code_pointers(&img, &cfg);
    let helper = img.symbol("helper").unwrap().value;
    assert!(scan.at_insn_boundary.contains(&helper));
    assert!(scan.at_func_entry.contains(&helper));
    assert!(!scan.at_insn_boundary.contains(&0x1234));
}

#[test]
fn code_pointer_scan_pic_via_relocs() {
    let o = assemble(
        "lib.s",
        ".section text\n.global api\napi:\n ret\n.section data\ncb: .quad api\n",
        &AsmOptions { pic: true },
    )
    .unwrap();
    let img = link(&[o], &LinkOptions::shared_object("libcb.so")).unwrap();
    let cfg = analyze_module(&img);
    let scan = scan_code_pointers(&img, &cfg);
    let api = img.symbol("api").unwrap().value;
    assert!(
        scan.at_func_entry.contains(&api),
        "PIC address-taken functions found through dyn relocs"
    );
}

#[test]
fn mid_instruction_constant_rejected() {
    // A constant that points into the middle of an instruction is not at
    // an instruction boundary and must be rejected (BinCFI's filter).
    let img = image_from_asm(
        ".section text\n.global _start\n_start:\n mov r0, 0x12345\n ret\n\
         .section data\nmid: .quad _start\n",
    );
    let cfg = analyze_module(&img);
    let scan = scan_code_pointers(&img, &cfg);
    let start = img.symbol("_start").unwrap().value;
    assert!(scan.at_insn_boundary.contains(&start));
    // Fabricate a mid-instruction pointer and verify the boundary filter
    // would reject it.
    assert!(!cfg.insn_boundaries.contains(&(start + 1)));
}

#[test]
fn block_and_function_queries() {
    let img =
        image_from_asm(".section text\n.global _start\n_start:\n nop\n nop\n ret\nother:\n ret\n");
    let cfg = analyze_module(&img);
    let start = img.symbol("_start").unwrap().value;
    assert_eq!(cfg.function_containing(start + 1).unwrap().name, "_start");
    let b = cfg.block_containing(start + 1).unwrap();
    assert_eq!(b.start, start);
    assert!(cfg.block_containing(0xdead_beef).is_none());
}

/// A stripped image whose `helper` is reached by no symbol, direct call
/// or data pointer; `helper` opens with the landing-pad anchor when
/// `anchored`. `prelude` runs first in `_start`, with `call_helper`
/// placing a direct call to it. Returns the image and `helper`'s address.
fn helper_module(prelude: &str, anchored: bool, call_helper: bool) -> (Image, u64) {
    let src = format!(
        ".section text\n.global _start\n_start:\n{prelude}{} mov r0, 0\n ret\n\
         helper:\n{} mov r4, 1\n ret\n",
        if call_helper { " call helper\n" } else { "" },
        if anchored { " test r0, 0x414c50\n" } else { "" },
    );
    let img = image_from_asm(&src);
    let helper = img.symbol("helper").expect("helper label").value;
    (img.to_stripped(), helper)
}

#[test]
fn landing_pad_anchor_proves_an_otherwise_unreachable_helper() {
    let (img, helper) = helper_module("", true, false);
    assert_eq!(img.anchor_addrs(), [helper]);
    assert!(
        !analyze_module(&img).blocks.contains_key(&helper),
        "without evidence the helper is unreachable"
    );
    let res = analyze_tiered(&img);
    assert!(
        res.cfg.blocks.contains_key(&helper),
        "anchor seeds recovery"
    );
    // Blocks absent from the tier map are `Proven`.
    assert_eq!(
        res.tiers
            .get(&helper)
            .copied()
            .unwrap_or(ConfidenceTier::Proven),
        ConfidenceTier::Proven,
        "anchors are ground truth"
    );
    assert!(
        !res.data_regions
            .iter()
            .any(|&(s, l)| (s..s + l).contains(&helper)),
        "the helper is code"
    );
    assert!(res.degraded.is_empty());
}

#[test]
fn data_access_inside_an_anchored_block_does_not_demote_it() {
    // `_start` reads the helper's first word as data.
    let read = " la r1, helper\n ld8 r2, [r1]\n";
    let (img, helper) = helper_module(read, true, false);
    let res = analyze_tiered(&img);
    assert!(
        res.data_regions.contains(&(helper, 1)),
        "the data fact fires"
    );
    assert!(
        !res.tiers.contains_key(&helper),
        "anchored block stays Proven"
    );
    assert!(res.degraded.is_empty(), "nothing degraded");

    // The same read demotes the helper when it is reached by a direct
    // call instead of an anchor.
    let (img, helper) = helper_module(read, false, true);
    let res = analyze_tiered(&img);
    assert_eq!(res.tiers.get(&helper), Some(&ConfidenceTier::Unknown));
    assert_eq!(res.degraded.len(), 1);
    assert_eq!(res.degraded[0].start, helper);
    assert_eq!(res.degraded[0].cause, RegionCause::LowConfidence);
}
