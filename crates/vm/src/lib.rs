//! # Guest process virtual machine
//!
//! Everything below the dynamic binary modifier: a sparse permissioned
//! [`Memory`], the JX-64 interpreter (its execution kernel, [`run_ops`]),
//! a syscall layer ([`syscall`]), and a dynamic loader ([`load_process`])
//! that reproduces the mechanisms the Janitizer paper depends on:
//!
//! * `ldd`-style static dependency discovery (modules the static analyzer
//!   can see) versus `dlopen` (modules only the dynamic modifier sees);
//! * LD_PRELOAD interposition (how JASan's allocator takes over
//!   `malloc`/`free`);
//! * PIC module rebasing and dynamic relocations;
//! * lazy PLT binding through an ld.so resolver that *pushes the resolved
//!   pointer and returns to it* — the control-flow abnormality JCFI
//!   special-cases (paper §4.2.3);
//! * JIT code regions (`mmap` with the exec flag), i.e. dynamically
//!   generated code.
//!
//! Execution is deterministic, and "time" is a cycle count accumulated
//! from per-instruction costs; the dynamic modifier layers its own
//! translation and instrumentation costs on top of the same accounting.

mod cpu;
mod kernel;
mod loader;
mod mem;
mod process;
pub mod syscall;

pub use cpu::{CpuState, Fault, FaultKind, Step};
pub use kernel::{run_ops, Op, Ran, RunEnd};
pub use loader::{load_process, LoadError, LoadOptions, ModuleStore};
pub use mem::{Access, MemFault, Memory, Perm};
pub use process::{
    Exit, LoadedModule, Process, ProcessEvent, BOOTSTRAP_BASE, CANARY_VALUE, HEAP_BASE, HEAP_MAX,
    MAX_BLOCK, MMAP_BASE, PIC_MODULE_BASE, PIC_MODULE_STRIDE, STACK_BASE, STACK_SIZE,
};

/// Multiplicative hasher for guest-pc keys. The interpreter and the
/// dynamic modifier index translations by pc on every dispatch, where the
/// default SipHash costs more than the table probe it guards; pcs are
/// plain addresses with no adversarial structure, so a Fibonacci multiply
/// plus an avalanche shift is both cheap and well distributed.
#[derive(Default, Clone)]
pub struct PcHasher(u64);

impl std::hash::Hasher for PcHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback for non-u64 keys (unused on the hot paths).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let mut h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        self.0 = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A `HashMap` keyed by guest pc, using [`PcHasher`].
pub type PcMap<V> = std::collections::HashMap<u64, V, std::hash::BuildHasherDefault<PcHasher>>;

/// Assembly source of a minimal `ld.so` providing the lazy-binding
/// resolver. Real programs use the full ld.so from `janitizer-workloads`;
/// this one is enough for tests and examples.
///
/// The resolver receives `&got_slot` on the stack (pushed by the PLT's
/// `plt0` trampoline), asks the kernel to resolve and patch the slot, then
/// **stores the resolved pointer over its stack argument and `ret`s to
/// it** — the ld.so idiom that violates return-address integrity and that
/// JCFI handles as a special case.
pub const MINIMAL_LD_SO: &str = r#"
.section text
.global __dl_resolve
__dl_resolve:
    push r0
    push r1
    push r2
    push r3
    push r4
    push r5
    pushf
    ld8 r1, [sp+56]     ; &got_slot pushed by plt0
    mov r0, 8           ; SYS_DLFIXUP
    syscall             ; r0 = target; kernel patched the slot
    mov r6, r0
    popf
    pop r5
    pop r4
    pop r3
    pop r2
    pop r1
    pop r0
    st8 [sp], r6        ; overwrite the argument with the target...
    ret                 ; ...and return *into* it (push+ret pattern)
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use janitizer_asm::{assemble, AsmOptions};
    use janitizer_link::{link, LinkOptions};
    use janitizer_obj::Image;

    fn build_exe(src: &str) -> Image {
        let o = assemble("exe.s", src, &AsmOptions::default()).expect("asm");
        link(&[o], &LinkOptions::executable("a.out")).expect("link")
    }

    fn build_ld_so() -> Image {
        let o = assemble("ld.s", MINIMAL_LD_SO, &AsmOptions { pic: true }).expect("asm");
        link(&[o], &LinkOptions::shared_object("ld.so")).expect("link")
    }

    fn run(store: &ModuleStore, exe: &str, opts: &LoadOptions) -> (Exit, Process) {
        let mut p = load_process(store, exe, opts).expect("load");
        let exit = p.run_native(100_000_000);
        (exit, p)
    }

    #[test]
    fn exit_code_roundtrip() {
        let exe = build_exe(
            ".section text\n.global _start\n_start:\n mov r0, 0\n mov r1, 42\n syscall\n",
        );
        let mut store = ModuleStore::new();
        store.add(exe);
        let (exit, _) = run(&store, "a.out", &LoadOptions::default());
        assert_eq!(exit, Exit::Exited(42));
    }

    #[test]
    fn entry_return_value_becomes_exit_code() {
        // _start returns 7; the bootstrap turns that into exit(7).
        let exe = build_exe(".section text\n.global _start\n_start:\n mov r0, 7\n ret\n");
        let mut store = ModuleStore::new();
        store.add(exe);
        let (exit, _) = run(&store, "a.out", &LoadOptions::default());
        assert_eq!(exit, Exit::Exited(7));
    }

    #[test]
    fn write_syscall_captures_stdout() {
        let exe = build_exe(
            ".section text\n.global _start\n_start:\n\
             la r2, msg\n mov r1, 1\n mov r3, 5\n mov r0, 1\n syscall\n\
             mov r0, 0\n mov r1, 0\n syscall\n\
             .section rodata\nmsg: .ascii \"hello\"\n",
        );
        let mut store = ModuleStore::new();
        store.add(exe);
        let (exit, p) = run(&store, "a.out", &LoadOptions::default());
        assert_eq!(exit, Exit::Exited(0));
        assert_eq!(p.stdout_string(), "hello");
    }

    #[test]
    fn arithmetic_loop_computes() {
        // sum 1..=10 -> 55
        let exe = build_exe(
            ".section text\n.global _start\n_start:\n\
             mov r0, 0\n mov r2, 10\n\
             loop:\n add r0, r2\n sub r2, 1\n cmp r2, 0\n jne loop\n\
             ret\n",
        );
        let mut store = ModuleStore::new();
        store.add(exe);
        let (exit, _) = run(&store, "a.out", &LoadOptions::default());
        assert_eq!(exit, Exit::Exited(55));
    }

    #[test]
    fn data_and_bss_access() {
        let exe = build_exe(
            ".section text\n.global _start\n_start:\n\
             la r1, value\n ld8 r0, [r1]\n\
             la r2, buf\n st8 [r2], r0\n ld8 r3, [r2]\n\
             mov r0, r3\n ret\n\
             .section data\nvalue: .quad 1234\n\
             .section bss\nbuf: .space 64\n",
        );
        let mut store = ModuleStore::new();
        store.add(exe);
        let (exit, _) = run(&store, "a.out", &LoadOptions::default());
        assert_eq!(exit, Exit::Exited(1234));
    }

    #[test]
    fn wild_pointer_faults() {
        let exe = build_exe(
            ".section text\n.global _start\n_start:\n mov r1, 0x123456\n ld8 r0, [r1]\n ret\n",
        );
        let mut store = ModuleStore::new();
        store.add(exe);
        let (exit, _) = run(&store, "a.out", &LoadOptions::default());
        let Exit::Fault(f) = exit else { panic!("expected fault, got {exit:?}") };
        assert!(matches!(f.kind, FaultKind::Mem(_)));
    }

    #[test]
    fn write_to_code_faults() {
        let exe = build_exe(
            ".section text\n.global _start\n_start:\n la r1, _start\n st8 [r1], r1\n ret\n",
        );
        let mut store = ModuleStore::new();
        store.add(exe);
        let (exit, _) = run(&store, "a.out", &LoadOptions::default());
        assert!(matches!(exit, Exit::Fault(_)), "text is not writable");
    }

    fn callee_lib() -> Image {
        let o = assemble(
            "lib.s",
            ".section text\n.global add_five\nadd_five:\n add r0, 5\n ret\n\
             .global get_secret\nget_secret:\n la r0, secret\n ld8 r0, [r0]\n ret\n\
             .section data\n.global secret\nsecret: .quad 99\n",
            &AsmOptions { pic: true },
        )
        .expect("asm");
        link(&[o], &LinkOptions::shared_object("libfive.so")).expect("link")
    }

    fn plt_exe() -> Image {
        let o = assemble(
            "exe.s",
            ".section text\n.global _start\n_start:\n\
             mov r0, 10\n call add_five\n call add_five\n ret\n",
            &AsmOptions::default(),
        )
        .expect("asm");
        link(&[o], &LinkOptions::executable("a.out").needs("libfive.so")).expect("link")
    }

    #[test]
    fn cross_module_call_lazy_binding() {
        let mut store = ModuleStore::new();
        store.add(plt_exe());
        store.add(callee_lib());
        store.add(build_ld_so());
        let (exit, p) = run(&store, "a.out", &LoadOptions::default());
        assert_eq!(exit, Exit::Exited(20), "10 + 5 + 5 through the PLT");
        assert_eq!(p.lazy_fixups, 1, "second call uses the patched GOT slot");
    }

    #[test]
    fn cross_module_call_eager_binding() {
        let mut store = ModuleStore::new();
        store.add(plt_exe());
        store.add(callee_lib());
        store.add(build_ld_so());
        let opts = LoadOptions {
            lazy_binding: false,
            ..LoadOptions::default()
        };
        let (exit, p) = run(&store, "a.out", &opts);
        assert_eq!(exit, Exit::Exited(20));
        assert_eq!(p.lazy_fixups, 0, "eager binding never hits the resolver");
    }

    #[test]
    fn lazy_binding_without_ld_so_fails_to_load() {
        let mut store = ModuleStore::new();
        store.add(plt_exe());
        store.add(callee_lib());
        let err = load_process(&store, "a.out", &LoadOptions::default()).unwrap_err();
        assert_eq!(err, LoadError::NoResolver);
    }

    #[test]
    fn ld_preload_interposes_symbols() {
        // An interposer that makes add_five add six instead.
        let interposer = {
            let o = assemble(
                "pre.s",
                ".section text\n.global add_five\nadd_five:\n add r0, 6\n ret\n",
                &AsmOptions { pic: true },
            )
            .unwrap();
            link(&[o], &LinkOptions::shared_object("libpre.so")).unwrap()
        };
        let mut store = ModuleStore::new();
        store.add(plt_exe());
        store.add(callee_lib());
        store.add(interposer);
        store.add(build_ld_so());
        let opts = LoadOptions {
            preload: vec!["libpre.so".into()],
            ..LoadOptions::default()
        };
        let (exit, _) = run(&store, "a.out", &opts);
        assert_eq!(exit, Exit::Exited(22), "preloaded add_five wins: 10+6+6");
    }

    #[test]
    fn pic_data_via_got() {
        let exe = {
            let o = assemble(
                "exe.s",
                ".section text\n.global _start\n_start:\n call get_secret\n ret\n",
                &AsmOptions::default(),
            )
            .unwrap();
            link(&[o], &LinkOptions::executable("a.out").needs("libfive.so")).unwrap()
        };
        let mut store = ModuleStore::new();
        store.add(exe);
        store.add(callee_lib());
        store.add(build_ld_so());
        let (exit, _) = run(&store, "a.out", &LoadOptions::default());
        assert_eq!(exit, Exit::Exited(99), "PIC library reads its own data");
    }

    #[test]
    fn dlopen_and_indirect_call() {
        // The plugin is NOT in the needed list; only dlopen finds it.
        let plugin = {
            let o = assemble(
                "plg.s",
                ".section text\n.global plugin_work\nplugin_work:\n mov r0, 77\n ret\n",
                &AsmOptions { pic: true },
            )
            .unwrap();
            link(&[o], &LinkOptions::shared_object("libplugin.so")).unwrap()
        };
        let exe = build_exe(
            ".section text\n.global _start\n_start:\n\
             mov r0, 5\n la r1, name\n mov r2, 12\n syscall\n\
             mov r8, r0\n\
             mov r0, 6\n mov r1, r8\n la r2, symname\n mov r3, 11\n syscall\n\
             call r0\n ret\n\
             .section rodata\nname: .ascii \"libplugin.so\"\nsymname: .ascii \"plugin_work\"\n",
        );
        let mut store = ModuleStore::new();
        store.add(exe);
        store.add(plugin);
        let (exit, p) = run(&store, "a.out", &LoadOptions::default());
        assert_eq!(exit, Exit::Exited(77));
        let plugin = p
            .modules
            .iter()
            .find(|m| m.image.name == "libplugin.so")
            .expect("plugin loaded");
        assert!(plugin.dlopened, "dlopen-loaded modules are marked");
        assert!(
            p.events
                .contains(&ProcessEvent::ModuleLoaded { id: plugin.id }),
            "driver sees a module-load event"
        );
    }

    #[test]
    fn jit_code_generation_and_execution() {
        // mmap an RWX page, write `mov r0, 123; ret` into it, call it.
        let exe = build_exe(
            ".section text\n.global _start\n_start:\n\
             mov r0, 3\n mov r1, 4096\n mov r2, 1\n syscall\n\
             mov r8, r0\n\
             mov r9, 0x12\n st1 [r8], r9\n\
             mov r9, 0\n st1 [r8+1], r9\n\
             mov r9, 123\n st4 [r8+2], r9\n\
             mov r9, 0x6c\n st1 [r8+6], r9\n\
             call r8\n ret\n",
        );
        let mut store = ModuleStore::new();
        store.add(exe);
        let (exit, _) = run(&store, "a.out", &LoadOptions::default());
        assert_eq!(exit, Exit::Exited(123), "dynamically generated code runs");
    }

    #[test]
    fn sbrk_heap_allocation() {
        let exe = build_exe(
            ".section text\n.global _start\n_start:\n\
             mov r0, 2\n mov r1, 4096\n syscall\n\
             mov r8, r0\n mov r9, 4242\n st8 [r8+100], r9\n ld8 r0, [r8+100]\n ret\n",
        );
        let mut store = ModuleStore::new();
        store.add(exe);
        let (exit, _) = run(&store, "a.out", &LoadOptions::default());
        assert_eq!(exit, Exit::Exited(4242));
    }

    #[test]
    fn canary_in_tls_is_nonzero_and_seeded() {
        let mut store = ModuleStore::new();
        store.add(build_exe(
            ".section text\n.global _start\n_start:\n rdtls r0, 0x28\n ret\n",
        ));
        let (exit, p) = run(&store, "a.out", &LoadOptions::default());
        let Exit::Exited(c) = exit else { panic!() };
        assert_eq!(c as u64, p.canary());
        assert_ne!(p.canary(), 0);
        // Different seed, different cookie.
        let opts = LoadOptions {
            seed: 999,
            ..LoadOptions::default()
        };
        let (exit2, _) = run(&store, "a.out", &opts);
        assert_ne!(exit, exit2);
    }

    #[test]
    fn init_sections_run_before_entry() {
        let exe = build_exe(
            ".section init\nsetup:\n la r8, flag\n mov r9, 1\n st8 [r8], r9\n ret\n\
             .section text\n.global _start\n_start:\n la r8, flag\n ld8 r0, [r8]\n ret\n\
             .section bss\nflag: .space 8\n",
        );
        let mut store = ModuleStore::new();
        store.add(exe);
        let (exit, _) = run(&store, "a.out", &LoadOptions::default());
        assert_eq!(exit, Exit::Exited(1), "init ran before _start");
    }

    #[test]
    fn out_of_fuel_detected() {
        let exe = build_exe(".section text\n.global _start\n_start:\nspin:\n jmp spin\n");
        let mut store = ModuleStore::new();
        store.add(exe);
        let mut p = load_process(&store, "a.out", &LoadOptions::default()).unwrap();
        assert_eq!(p.run_native(10_000), Exit::OutOfFuel);
        assert!(p.cycles >= 10_000);
    }

    #[test]
    fn getarg_syscall_reads_args() {
        let exe = build_exe(
            ".section text\n.global _start\n_start:\n\
             mov r0, 9\n mov r1, 1\n syscall\n ret\n",
        );
        let mut store = ModuleStore::new();
        store.add(exe);
        let opts = LoadOptions {
            args: vec![11, 22, 33],
            ..LoadOptions::default()
        };
        let (exit, _) = run(&store, "a.out", &opts);
        assert_eq!(exit, Exit::Exited(22));
    }

    #[test]
    fn trap_faults() {
        let mut store = ModuleStore::new();
        store.add(build_exe(".section text\n.global _start\n_start:\n trap\n"));
        let (exit, _) = run(&store, "a.out", &LoadOptions::default());
        assert!(matches!(
            exit,
            Exit::Fault(Fault {
                kind: FaultKind::Trap,
                ..
            })
        ));
    }

    #[test]
    fn stack_usage_push_pop() {
        let exe = build_exe(
            ".section text\n.global _start\n_start:\n\
             mov r8, 111\n push r8\n mov r8, 0\n pop r0\n ret\n",
        );
        let mut store = ModuleStore::new();
        store.add(exe);
        let (exit, _) = run(&store, "a.out", &LoadOptions::default());
        assert_eq!(exit, Exit::Exited(111));
    }
}
