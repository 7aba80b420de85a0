//! # The guest world
//!
//! Everything the evaluation runs: the guest C library (`libjc.so`), the
//! libgfortran-like low-level library (`libjf.so`), the dynamic loader
//! (`ld.so`), the sanitizer runtimes, 27 SPEC CPU2006-shaped workload
//! programs ([`all_workloads`], the 28 the paper's figures cover) and the
//! Juliet-like CWE-122 suite
//! ([`juliet_suite`]).
//!
//! [`build_world`] compiles and links the whole universe into a
//! [`ModuleStore`]; [`build_case`] builds a single small program against
//! the same libraries (used by the Juliet harness).

mod hostile;
mod juliet;
mod libc;
mod programs;

pub use hostile::{first_match_fixtures, hostile_suite, HostileModule};

pub use juliet::{
    juliet_suite, JulietCase, JulietCategory, N_HEAP, N_HEAP_TO_STACK, N_HEAP_WIDE,
    N_STACK_TO_HEAP, N_TOTAL,
};
pub use libc::{CRT0, LIBC_C, LIBC_SHIMS, LIBJF};
pub use programs::{all_workloads, Workload};

use janitizer_asm::{assemble, AsmOptions};
use janitizer_link::{link, LinkOptions};
use janitizer_minic::{compile, CanaryMode, CompileOptions};
use janitizer_obj::Image;
use janitizer_vm::{ModuleStore, MINIMAL_LD_SO};

/// World-building configuration.
#[derive(Clone, Debug)]
pub struct BuildOptions {
    /// Multiplier applied to every workload's default input argument.
    pub scale: f64,
    /// Compile the workloads with gcc's `ipa-ra`-style optimization
    /// (exercises the §4.1.2 liveness hazard in full runs).
    pub ipa_ra: bool,
}

impl Default for BuildOptions {
    fn default() -> BuildOptions {
        BuildOptions {
            scale: 1.0,
            ipa_ra: false,
        }
    }
}

/// A fully built guest universe.
#[derive(Clone, Debug)]
pub struct World {
    /// Module store with every executable and library.
    pub store: ModuleStore,
    /// Workload descriptions (executable names match workload names).
    pub workloads: Vec<Workload>,
    /// Scaled default argument per workload, by index.
    pub args: Vec<u64>,
}

fn build_libjc() -> Image {
    let c = compile(
        LIBC_C,
        &CompileOptions {
            canary: CanaryMode::Arrays,
            ..CompileOptions::default()
        },
    )
    .expect("libjc compiles");
    let o1 = assemble("libjc.c.s", &c, &AsmOptions { pic: true }).expect("libjc asm");
    let o2 = assemble("libjc_shims.s", LIBC_SHIMS, &AsmOptions { pic: true }).expect("shims");
    link(&[o1, o2], &LinkOptions::shared_object("libjc.so")).expect("libjc links")
}

fn build_libjf() -> Image {
    let o = assemble("libjf.s", LIBJF, &AsmOptions { pic: true }).expect("libjf asm");
    link(&[o], &LinkOptions::shared_object("libjf.so")).expect("libjf links")
}

fn build_ld_so() -> Image {
    let o = assemble("ld.s", MINIMAL_LD_SO, &AsmOptions { pic: true }).expect("ld.so asm");
    link(&[o], &LinkOptions::shared_object("ld.so")).expect("ld.so links")
}

/// Builds one executable from MiniC source (plus optional extra assembly)
/// against libjc (and optionally libjf).
///
/// # Panics
///
/// Panics on toolchain errors — the inputs are fixed sources, so failures
/// are bugs.
pub fn build_exe(
    name: &str,
    minic_source: &str,
    extra_asm: Option<&str>,
    copts: &CompileOptions,
    pie: bool,
    needs_jf: bool,
) -> Image {
    let aopts = AsmOptions { pic: pie };
    let mut objects = Vec::new();
    objects.push(assemble("crt0.s", CRT0, &aopts).expect("crt0"));
    if !minic_source.is_empty() {
        let asm_text = compile(minic_source, copts)
            .unwrap_or_else(|e| panic!("workload `{name}` failed to compile: {e}"));
        objects.push(
            assemble(&format!("{name}.c.s"), &asm_text, &aopts)
                .unwrap_or_else(|e| panic!("workload `{name}` failed to assemble: {e}")),
        );
    }
    if let Some(asm_src) = extra_asm {
        objects.push(
            assemble(&format!("{name}.s"), asm_src, &aopts)
                .unwrap_or_else(|e| panic!("workload `{name}` asm failed: {e}")),
        );
    }
    let mut lopts = if pie {
        LinkOptions::pie(name)
    } else {
        LinkOptions::executable(name)
    };
    lopts = lopts.needs("libjc.so");
    if needs_jf {
        lopts = lopts.needs("libjf.so");
    }
    link(&objects, &lopts).unwrap_or_else(|e| panic!("workload `{name}` failed to link: {e}"))
}

/// Builds the full world: libraries, runtimes and all 27 workloads.
pub fn build_world(opts: &BuildOptions) -> World {
    let mut store = ModuleStore::new();
    store.add(build_libjc());
    store.add(build_libjf());
    store.add(build_ld_so());
    store.add(janitizer_jasan::runtime_module());

    let workloads = all_workloads();
    let mut args = Vec::new();
    for w in &workloads {
        let copts = CompileOptions {
            canary: CanaryMode::Arrays,
            tables_in_text: w.tables_in_text,
            ipa_ra: opts.ipa_ra,
            ..CompileOptions::default()
        };
        let exe = build_exe(
            w.name,
            &w.source,
            w.extra_asm.as_deref(),
            &copts,
            w.pie,
            w.needs_jf,
        );
        store.add(exe);
        if let Some((pname, psrc)) = &w.plugin {
            let po = assemble(&format!("{pname}.s"), psrc, &AsmOptions { pic: true })
                .expect("plugin asm");
            store.add(link(&[po], &LinkOptions::shared_object(*pname)).expect("plugin links"));
        }
        args.push(((w.default_arg as f64 * opts.scale).round() as u64).max(1));
    }
    World {
        store,
        workloads,
        args,
    }
}

/// Builds a small standalone program (e.g. a Juliet case) against a
/// prebuilt library store: returns a fresh store containing the shared
/// libraries plus the case executable named `name`.
pub fn build_case(base: &ModuleStore, name: &str, source: &str) -> ModuleStore {
    let copts = CompileOptions {
        canary: CanaryMode::Arrays,
        ..CompileOptions::default()
    };
    let exe = build_exe(name, source, None, &copts, false, false);
    let mut store = base.clone();
    store.add(exe);
    store
}

/// The shared-library base store for Juliet cases (libjc + ld.so +
/// sanitizer runtime, no workloads).
pub fn library_base() -> ModuleStore {
    let mut store = ModuleStore::new();
    store.add(build_libjc());
    store.add(build_libjf());
    store.add(build_ld_so());
    store.add(janitizer_jasan::runtime_module());
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use janitizer_vm::{load_process, Exit, LoadOptions};

    fn run_workload(world: &World, idx: usize) -> (Exit, u64) {
        let w = &world.workloads[idx];
        let mut p = load_process(
            &world.store,
            w.name,
            &LoadOptions {
                args: vec![world.args[idx]],
                ..LoadOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("{}: load failed: {e}", w.name));
        let exit = p.run_native(400_000_000);
        (exit, p.insns)
    }

    #[test]
    fn world_builds() {
        let world = build_world(&BuildOptions::default());
        assert_eq!(world.workloads.len(), 28);
        assert!(world.store.get("libjc.so").is_some());
        assert!(world.store.get("libjf.so").is_some());
        assert!(world.store.get("ld.so").is_some());
        assert!(world.store.get("perlbench").is_some());
        assert!(
            world.store.get("liblbm.so").is_some(),
            "lbm's plugin exists"
        );
    }

    #[test]
    fn all_workloads_run_natively() {
        let world = build_world(&BuildOptions {
            scale: 0.2,
            ..BuildOptions::default()
        });
        for i in 0..world.workloads.len() {
            let name = world.workloads[i].name;
            let (exit, insns) = run_workload(&world, i);
            let Exit::Exited(code) = exit else {
                panic!("{name} did not exit cleanly: {exit:?}");
            };
            assert!((0..256).contains(&code), "{name}: exit {code}");
            assert!(insns > 1_000, "{name} too trivial: {insns} instructions");
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        let world = build_world(&BuildOptions {
            scale: 0.2,
            ..BuildOptions::default()
        });
        for i in [0usize, 3, 17, 26] {
            let (a, _) = run_workload(&world, i);
            let (b, _) = run_workload(&world, i);
            assert_eq!(a, b, "{}", world.workloads[i].name);
        }
    }

    #[test]
    fn flags_match_the_paper() {
        let world = build_world(&BuildOptions::default());
        let by_name = |n: &str| world.workloads.iter().find(|w| w.name == n).unwrap();
        // BinCFI failures: gamess and zeusmp (in-text tables).
        assert!(by_name("gamess").tables_in_text);
        assert!(by_name("zeusmp").tables_in_text);
        // Lockdown failures: omnetpp and dealII.
        assert!(by_name("omnetpp").lockdown_fails);
        assert!(by_name("dealII").lockdown_fails);
        // Dynamic-code outliers.
        assert!(by_name("cactusADM").extra_asm.is_some(), "JIT main");
        assert!(by_name("lbm").plugin.is_some(), "dlopen plugin");
        // RetroWrite's C-benchmark coverage is PIE.
        for n in [
            "perlbench",
            "bzip2",
            "gcc",
            "mcf",
            "sjeng",
            "libquantum",
            "h264ref",
            "milc",
            "lbm",
            "sphinx3",
        ] {
            assert!(by_name(n).pie, "{n} should be PIE");
        }
        for n in ["omnetpp", "dealII", "povray", "tonto", "cactusADM"] {
            assert!(!by_name(n).pie, "{n} should be non-PIC");
        }
    }

    #[test]
    fn juliet_suite_shape() {
        let suite = juliet_suite();
        assert_eq!(suite.len(), 624);
        let count = |c: JulietCategory| suite.iter().filter(|x| x.category == c).count();
        assert_eq!(count(JulietCategory::HeapToHeap), N_HEAP);
        assert_eq!(count(JulietCategory::HeapToHeapWide), N_HEAP_WIDE);
        assert_eq!(count(JulietCategory::StackToHeap), N_STACK_TO_HEAP);
        assert_eq!(count(JulietCategory::HeapToStack), N_HEAP_TO_STACK);
    }

    #[test]
    fn juliet_good_variants_run_cleanly() {
        let base = library_base();
        let suite = juliet_suite();
        // Sample across categories.
        for case in suite.iter().step_by(53) {
            let store = build_case(&base, "case", &case.good);
            let mut p = load_process(&store, "case", &LoadOptions::default())
                .unwrap_or_else(|e| panic!("case {}: {e}", case.id));
            let exit = p.run_native(50_000_000);
            assert!(
                matches!(exit, Exit::Exited(_)),
                "good case {} must exit cleanly: {exit:?}",
                case.id
            );
        }
    }

    #[test]
    fn juliet_bad_variants_run_to_completion_natively() {
        // The violations are silent corruption natively (that is the
        // point); they must not crash the VM.
        let base = library_base();
        let suite = juliet_suite();
        for case in suite.iter().step_by(101) {
            let store = build_case(&base, "case", &case.bad);
            let mut p = load_process(&store, "case", &LoadOptions::default()).unwrap();
            let exit = p.run_native(50_000_000);
            assert!(
                matches!(exit, Exit::Exited(_)),
                "bad case {} should still exit natively: {exit:?}",
                case.id
            );
        }
    }
}
