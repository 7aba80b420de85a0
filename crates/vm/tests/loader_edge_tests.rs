//! Loader and process edge cases.

use janitizer_asm::{assemble, AsmOptions};
use janitizer_link::{link, LinkOptions};
use janitizer_vm::*;

fn exe(src: &str) -> janitizer_obj::Image {
    let o = assemble("e.s", src, &AsmOptions::default()).unwrap();
    link(&[o], &LinkOptions::executable("e")).unwrap()
}

#[test]
fn missing_module_is_an_error() {
    let store = ModuleStore::new();
    assert!(matches!(
        load_process(&store, "nope", &LoadOptions::default()),
        Err(LoadError::ModuleNotFound(_))
    ));
}

#[test]
fn missing_dependency_is_an_error() {
    let o = assemble(
        "e.s",
        ".section text\n.global _start\n_start:\n ret\n",
        &AsmOptions::default(),
    )
    .unwrap();
    let img = link(&[o], &LinkOptions::executable("e").needs("libmissing.so")).unwrap();
    let mut store = ModuleStore::new();
    store.add(img);
    assert!(matches!(
        load_process(&store, "e", &LoadOptions::default()),
        Err(LoadError::ModuleNotFound(m)) if m == "libmissing.so"
    ));
}

#[test]
fn two_non_pic_modules_conflict() {
    // A non-PIC "library" cannot coexist with a non-PIC executable: both
    // claim the fixed image base.
    let a = exe(".section text\n.global _start\n_start:\n ret\n");
    let o = assemble(
        "l.s",
        ".section text\n.global libfn\nlibfn:\n ret\n",
        &AsmOptions::default(),
    )
    .unwrap();
    let mut lopts = LinkOptions::executable("libweird.so");
    lopts.entry = "libfn".into();
    let weird = link(&[o], &lopts).unwrap();
    let mut a2 = a.clone();
    a2.needed.push("libweird.so".into());
    let mut store = ModuleStore::new();
    store.add(a2);
    store.add(weird);
    assert!(matches!(
        load_process(&store, "e", &LoadOptions::default()),
        Err(LoadError::NonPicConflict(_))
    ));
}

#[test]
fn dlopen_unknown_module_returns_error_handle() {
    let src = ".section text\n.global _start\n_start:\n\
        mov r0, 5\n la r1, name\n mov r2, 10\n syscall\n\
        ; r0 == u64::MAX on failure; map to exit 1/0\n\
        not r0\n cmp r0, 0\n je fail\n mov r0, 0\n ret\n\
        fail:\n mov r0, 1\n ret\n\
        .section rodata\nname: .ascii \"libnope.so\"\n";
    let mut store = ModuleStore::new();
    store.add(exe(src));
    let mut p = load_process(&store, "e", &LoadOptions::default()).unwrap();
    assert_eq!(
        p.run_native(1_000_000),
        Exit::Exited(1),
        "dlopen failed as expected"
    );
}

#[test]
fn dlopen_twice_returns_same_handle() {
    let plugin = {
        let o = assemble(
            "p.s",
            ".section text\n.global f\nf:\n ret\n",
            &AsmOptions { pic: true },
        )
        .unwrap();
        link(&[o], &LinkOptions::shared_object("libp.so")).unwrap()
    };
    let src = ".section text\n.global _start\n_start:\n\
        mov r0, 5\n la r1, name\n mov r2, 7\n syscall\n mov r8, r0\n\
        mov r0, 5\n la r1, name\n mov r2, 7\n syscall\n\
        sub r0, r8\n ret\n\
        .section rodata\nname: .ascii \"libp.so\"\n";
    let mut store = ModuleStore::new();
    store.add(exe(src));
    store.add(plugin);
    let mut p = load_process(&store, "e", &LoadOptions::default()).unwrap();
    assert_eq!(
        p.run_native(1_000_000),
        Exit::Exited(0),
        "same handle twice"
    );
    assert_eq!(
        p.modules
            .iter()
            .filter(|m| m.image.name == "libp.so")
            .count(),
        1,
        "loaded once"
    );
}

#[test]
fn stack_overflow_faults_cleanly() {
    // Infinite recursion exhausts the stack region and faults rather than
    // corrupting anything.
    let src = ".section text\n.global _start\n_start:\nrecurse:\n push r0\n call recurse\n ret\n";
    let mut store = ModuleStore::new();
    store.add(exe(src));
    let mut p = load_process(&store, "e", &LoadOptions::default()).unwrap();
    let exit = p.run_native(500_000_000);
    assert!(
        matches!(
            exit,
            Exit::Fault(Fault {
                kind: FaultKind::Mem(_),
                ..
            })
        ),
        "{exit:?}"
    );
}

#[test]
fn heap_exhaustion_aborts() {
    let src = ".section text\n.global _start\n_start:\n\
        loop:\n mov r0, 2\n mov r1, 0x10000000\n syscall\n jmp loop\n";
    let mut store = ModuleStore::new();
    store.add(exe(src));
    let mut p = load_process(&store, "e", &LoadOptions::default()).unwrap();
    let exit = p.run_native(100_000_000);
    assert!(
        matches!(
            exit,
            Exit::Fault(Fault {
                kind: FaultKind::Abort(_),
                ..
            })
        ),
        "{exit:?}"
    );
}

#[test]
fn division_by_zero_faults() {
    let src = ".section text\n.global _start\n_start:\n mov r0, 1\n mov r1, 0\n div r0, r1\n ret\n";
    let mut store = ModuleStore::new();
    store.add(exe(src));
    let mut p = load_process(&store, "e", &LoadOptions::default()).unwrap();
    assert!(matches!(
        p.run_native(1_000_000),
        Exit::Fault(Fault {
            kind: FaultKind::DivByZero,
            ..
        })
    ));
}

#[test]
fn bad_syscall_number_faults() {
    let src = ".section text\n.global _start\n_start:\n mov r0, 999\n syscall\n ret\n";
    let mut store = ModuleStore::new();
    store.add(exe(src));
    let mut p = load_process(&store, "e", &LoadOptions::default()).unwrap();
    assert!(matches!(
        p.run_native(1_000_000),
        Exit::Fault(Fault {
            kind: FaultKind::BadSyscall(999),
            ..
        })
    ));
}

#[test]
fn executing_data_faults() {
    let src = ".section text\n.global _start\n_start:\n la r1, blob\n jmp r1\n\
               .section data\nblob: .quad 0\n";
    let mut store = ModuleStore::new();
    store.add(exe(src));
    let mut p = load_process(&store, "e", &LoadOptions::default()).unwrap();
    let exit = p.run_native(1_000_000);
    let Exit::Fault(f) = exit else {
        panic!("{exit:?}")
    };
    assert!(matches!(
        f.kind,
        FaultKind::Mem(MemFault {
            access: Access::Fetch,
            ..
        })
    ));
}

#[test]
fn undecodable_bytes_fault_with_decode_error() {
    // Jump into the middle of a multi-byte instruction whose tail bytes do
    // not decode.
    let src = ".section text\n.global _start\n_start:\n\
        la r1, target\n add r1, 2\n jmp r1\n\
        target:\n mov r2, 0xffffffff\n ret\n";
    let mut store = ModuleStore::new();
    store.add(exe(src));
    let mut p = load_process(&store, "e", &LoadOptions::default()).unwrap();
    let exit = p.run_native(1_000_000);
    assert!(
        matches!(
            exit,
            Exit::Fault(Fault {
                kind: FaultKind::Decode(_) | FaultKind::Mem(_) | FaultKind::Halt,
                ..
            }) | Exit::Exited(_)
        ),
        "mid-instruction execution is contained: {exit:?}"
    );
}

#[test]
fn module_ranges_do_not_overlap() {
    let lib = {
        let o = assemble(
            "l.s",
            ".section text\n.global g\ng:\n ret\n.section data\nd: .quad 1\n",
            &AsmOptions { pic: true },
        )
        .unwrap();
        link(&[o], &LinkOptions::shared_object("libl.so")).unwrap()
    };
    let o = assemble(
        "e.s",
        ".section text\n.global _start\n_start:\n call g\n ret\n",
        &AsmOptions::default(),
    )
    .unwrap();
    let img = link(&[o], &LinkOptions::executable("e").needs("libl.so")).unwrap();
    let ld = assemble("ld.s", MINIMAL_LD_SO, &AsmOptions { pic: true }).unwrap();
    let mut store = ModuleStore::new();
    store.add(img);
    store.add(lib);
    store.add(link(&[ld], &LinkOptions::shared_object("ld.so")).unwrap());
    let p = load_process(&store, "e", &LoadOptions::default()).unwrap();
    let mut ranges: Vec<(u64, u64)> = p.modules.iter().map(|m| m.range()).collect();
    ranges.sort();
    for w in ranges.windows(2) {
        assert!(w[0].1 <= w[1].0, "module ranges overlap: {ranges:?}");
    }
}
