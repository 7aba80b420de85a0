//! Golden symbolization tests: every resolution path of the
//! [`Symbolizer`] pinned against a real linked-and-loaded process —
//! non-PIC executable, PIC shared object (non-zero load bias), a
//! PLT/GOT-resolved cross-module call, and an address between symbols
//! (nearest-preceding fallback).

use janitizer_asm::{assemble, AsmOptions};
use janitizer_diag::Symbolizer;
use janitizer_link::{link, LinkOptions};
use janitizer_vm::{load_process, LoadOptions, ModuleStore, MINIMAL_LD_SO, PIC_MODULE_BASE};

/// exe `t` (non-PIC, two functions, PLT call into `libfive.so`) +
/// `libfive.so` (PIC) + `ld.so`, loaded into a fresh process.
fn world() -> janitizer_vm::Process {
    let lib = {
        let o = assemble(
            "lib.s",
            ".section text\n.global add_five\nadd_five:\n add r0, 5\n ret\n\
             .global add_six\nadd_six:\n add r0, 6\n ret\n",
            &AsmOptions { pic: true },
        )
        .unwrap();
        link(&[o], &LinkOptions::shared_object("libfive.so")).unwrap()
    };
    let exe = {
        let o = assemble(
            "e.s",
            ".section text\n.global _start\n_start:\n mov r0, 10\n call add_five\n ret\n\
             .global helper\nhelper:\n add r0, 1\n add r0, 2\n ret\n",
            &AsmOptions::default(),
        )
        .unwrap();
        link(&[o], &LinkOptions::executable("t").needs("libfive.so")).unwrap()
    };
    let ld = {
        let o = assemble("ld.s", MINIMAL_LD_SO, &AsmOptions { pic: true }).unwrap();
        link(&[o], &LinkOptions::shared_object("ld.so")).unwrap()
    };
    let mut store = ModuleStore::new();
    store.add(exe);
    store.add(lib);
    store.add(ld);
    load_process(&store, "t", &LoadOptions::default()).unwrap()
}

/// Image-space value of symbol `name` in module `module`, plus the
/// module's load bias.
fn sym_addr(p: &janitizer_vm::Process, module: &str, name: &str) -> u64 {
    let m = p
        .modules
        .iter()
        .find(|m| m.image.name == module)
        .unwrap_or_else(|| panic!("module {module} not loaded"));
    let s = m
        .image
        .functions()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("symbol {name} not in {module}"));
    m.base + s.value
}

#[test]
fn non_pic_symbol_resolves_at_bias_zero() {
    let p = world();
    let exe = p.modules.iter().find(|m| m.image.name == "t").unwrap();
    assert_eq!(exe.base, 0, "non-PIC executable loads unbiased");
    let addr = sym_addr(&p, "t", "helper");
    let f = Symbolizer::from_process(&p).resolve(addr);
    assert_eq!(f.module.as_deref(), Some("t"));
    assert_eq!(f.symbol.as_deref(), Some("helper"));
    assert_eq!(f.offset, 0);
    assert_eq!(f.to_string(), format!("{addr:#010x} in t!helper+0x0"));
}

#[test]
fn pic_module_resolves_through_load_bias() {
    let p = world();
    let lib = p
        .modules
        .iter()
        .find(|m| m.image.name == "libfive.so")
        .unwrap();
    assert!(lib.base >= PIC_MODULE_BASE, "PIC module is biased");
    let addr = sym_addr(&p, "libfive.so", "add_five");
    let f = Symbolizer::from_process(&p).resolve(addr);
    assert_eq!(f.module.as_deref(), Some("libfive.so"));
    assert_eq!(f.symbol.as_deref(), Some("add_five"));
    assert_eq!(f.offset, 0, "bias subtracted before symbol lookup");
}

#[test]
fn plt_stub_resolves_as_import_at_plt() {
    let p = world();
    let exe = p.modules.iter().find(|m| m.image.name == "t").unwrap();
    let plt = exe
        .image
        .plt
        .iter()
        .find(|e| e.symbol == "add_five")
        .expect("cross-module call produced a PLT entry");
    let sym = Symbolizer::from_process(&p);
    // The stub's first byte and an address inside the stub both resolve
    // to the import, not to whatever local symbol precedes .plt.
    for delta in [0u64, 1] {
        let f = sym.resolve(exe.base + plt.plt_offset + delta);
        assert_eq!(f.module.as_deref(), Some("t"));
        assert_eq!(f.symbol.as_deref(), Some("add_five@plt"), "+{delta}");
        assert_eq!(f.offset, delta);
    }
}

#[test]
fn address_between_symbols_uses_nearest_preceding() {
    let p = world();
    // `helper` is 3 instructions; an address past its first instruction
    // is between symbols (assembler symbols carry size 0), so resolution
    // falls back to nearest-preceding + offset.
    let base = sym_addr(&p, "t", "helper");
    let f = Symbolizer::from_process(&p).resolve(base + 4);
    assert_eq!(f.module.as_deref(), Some("t"));
    assert_eq!(f.symbol.as_deref(), Some("helper"));
    assert_eq!(f.offset, 4);
    assert_eq!(f.to_string(), format!("{:#010x} in t!helper+0x4", base + 4));
}

#[test]
fn unmapped_address_is_unknown() {
    let p = world();
    let f = Symbolizer::from_process(&p).resolve(0xdead_0000_0000);
    assert!(f.module.is_none() && f.symbol.is_none());
    assert_eq!(f.to_string(), "0xdead00000000 <unknown>");
}
