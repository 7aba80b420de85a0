//! §4.2.2: stripped modules fall back to a weaker load-time policy based
//! on exported symbols and scanned constants.

use janitizer_asm::{assemble, AsmOptions};
use janitizer_core::{run_hybrid, HybridOptions, RunOutcome};
use janitizer_jcfi::{CfiModuleInfo, Jcfi};
use janitizer_link::{link, LinkOptions};
use janitizer_vm::{ModuleStore, MINIMAL_LD_SO};

fn lib_src() -> &'static str {
    ".section text\n\
     .global api_entry\n\
     api_entry:\n mov r0, 11\n ret\n\
     internal_helper:\n mov r0, 22\n ret\n\
     .section data\ncb: .quad internal_helper\n"
}

#[test]
fn stripped_info_degrades_gracefully() {
    let o = assemble("lib.s", lib_src(), &AsmOptions { pic: true }).unwrap();
    let full_img = link(
        std::slice::from_ref(&o),
        &LinkOptions::shared_object("lib.so"),
    )
    .unwrap();
    let mut sopts = LinkOptions::shared_object("lib.so");
    sopts.strip = true;
    let stripped_img = link(&[o], &sopts).unwrap();
    assert!(stripped_img.stripped);

    let full = CfiModuleInfo::from_image(&full_img, None);
    let stripped = CfiModuleInfo::from_stripped_image(&stripped_img);

    // Full symbols know both functions; stripped knows only the export.
    assert!(full.functions.len() >= 2);
    assert_eq!(
        stripped.functions, stripped.exported,
        "stripped functions degrade to exports"
    );
    // The stripped address-taken set falls back to boundary constants, so
    // the callback stays (weakly) admitted.
    let helper = full_img.symbol("internal_helper").unwrap().value;
    assert!(full.address_taken.contains(&helper));
    assert!(stripped.address_taken.contains(&helper));
}

#[test]
fn dlopened_stripped_module_still_runs_under_jcfi() {
    // An exe dlopens a *stripped* plugin and calls both an exported entry
    // and an unexported address-taken callback; the weaker load-time
    // policy admits both.
    let o = assemble("plg.s", lib_src(), &AsmOptions { pic: true }).unwrap();
    let mut sopts = LinkOptions::shared_object("libplg.so");
    sopts.strip = true;
    let plugin = link(&[o], &sopts).unwrap();

    let exe_src = ".section text\n.global _start\n_start:\n\
        mov r0, 5\n la r1, name\n mov r2, 9\n syscall\n\
        mov r8, r0\n\
        mov r0, 6\n mov r1, r8\n la r2, sym\n mov r3, 9\n syscall\n\
        call r0\n ret\n\
        .section rodata\nname: .ascii \"libplg.so\"\nsym: .ascii \"api_entry\"\n";
    let eo = assemble("e.s", exe_src, &AsmOptions::default()).unwrap();
    let exe = link(&[eo], &LinkOptions::executable("e")).unwrap();

    let ld = assemble("ld.s", MINIMAL_LD_SO, &AsmOptions { pic: true }).unwrap();
    let mut store = ModuleStore::new();
    store.add(exe);
    store.add(plugin);
    store.add(link(&[ld], &LinkOptions::shared_object("ld.so")).unwrap());

    let run = run_hybrid(&store, "e", Jcfi::hybrid(), &HybridOptions::default()).unwrap();
    assert_eq!(run.outcome.code(), Some(11), "{:?}", run.outcome);
    assert!(run.engine.reports.is_empty());
}

#[test]
fn hijack_still_caught_in_stripped_module() {
    // Weaker is not disabled: a call into the middle of an instruction
    // is still rejected even for stripped modules.
    let o = assemble("plg.s", lib_src(), &AsmOptions { pic: true }).unwrap();
    let mut sopts = LinkOptions::shared_object("libplg.so");
    sopts.strip = true;
    let plugin = link(&[o], &sopts).unwrap();

    let exe_src = ".section text\n.global _start\n_start:\n\
        mov r0, 5\n la r1, name\n mov r2, 9\n syscall\n\
        mov r8, r0\n\
        mov r0, 6\n mov r1, r8\n la r2, sym\n mov r3, 9\n syscall\n\
        add r0, 3\n call r0\n ret\n\
        .section rodata\nname: .ascii \"libplg.so\"\nsym: .ascii \"api_entry\"\n";
    let eo = assemble("e.s", exe_src, &AsmOptions::default()).unwrap();
    let exe = link(&[eo], &LinkOptions::executable("e")).unwrap();
    let ld = assemble("ld.s", MINIMAL_LD_SO, &AsmOptions { pic: true }).unwrap();
    let mut store = ModuleStore::new();
    store.add(exe);
    store.add(plugin);
    store.add(link(&[ld], &LinkOptions::shared_object("ld.so")).unwrap());

    let run = run_hybrid(&store, "e", Jcfi::hybrid(), &HybridOptions::default()).unwrap();
    assert!(
        matches!(&run.outcome, RunOutcome::Violation(r) if r.kind.as_str() == "cfi-icall-violation"),
        "{:?}",
        run.outcome
    );
}
