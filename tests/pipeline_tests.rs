//! Workspace-level integration tests: the full pipeline across crates,
//! on the real workload universe.

use janitizer::baselines::{static_rewriter_costs, Retrowrite};
use janitizer::core::EngineOptions;
use janitizer::prelude::*;
use janitizer::rules::RuleFile;

fn small_world() -> janitizer::workloads::World {
    build_world(&BuildOptions {
        scale: 0.1,
        ..Default::default()
    })
}

/// Every tool must preserve the semantics of every workload it can run:
/// same exit code as native, no spurious reports.
#[test]
fn tools_preserve_workload_semantics() {
    let world = small_world();
    let mut store = world.store.clone();
    store.add(janitizer::baselines::memcheck_runtime());
    for (i, w) in world.workloads.iter().enumerate() {
        let load = LoadOptions {
            args: vec![world.args[i]],
            ..Default::default()
        };
        let (native, _) = run_native(&store, w.name, &load, 0).unwrap();
        let native_code = native
            .code()
            .unwrap_or_else(|| panic!("{} native: {native:?}", w.name));

        // JASan hybrid.
        let ja = run_hybrid(
            &store,
            w.name,
            Jasan::hybrid(),
            &HybridOptions {
                load: LoadOptions {
                    preload: vec![RT_MODULE.into()],
                    ..load.clone()
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            ja.outcome.code(),
            Some(native_code),
            "{} under jasan: {:?}",
            w.name,
            ja.outcome
        );
        assert!(
            ja.engine.reports.is_empty(),
            "{} jasan FPs: {:?}",
            w.name,
            ja.engine.reports.first()
        );

        // JCFI hybrid.
        let jc = run_hybrid(
            &store,
            w.name,
            Jcfi::hybrid(),
            &HybridOptions {
                load: load.clone(),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            jc.outcome.code(),
            Some(native_code),
            "{} under jcfi: {:?}",
            w.name,
            jc.outcome
        );
        assert!(
            jc.engine.reports.is_empty(),
            "{} jcfi FPs: {:?}",
            w.name,
            jc.engine.reports.first()
        );
    }
}

/// Rewrite rules survive their on-disk format for every workload module.
#[test]
fn rule_files_roundtrip_for_all_modules() {
    let world = small_world();
    for name in world.store.names() {
        let image = world.store.get(name).unwrap();
        let file = analyze_statically(&image, &Jasan::hybrid());
        let bytes = file.to_bytes();
        let back = RuleFile::from_bytes(&bytes).unwrap();
        assert_eq!(file, back, "rule file roundtrip for {name}");
        assert!(
            !file.rules.is_empty(),
            "{name} should have at least no-op rules"
        );
    }
}

/// The static pass runs once per module, not per program: rules computed
/// for libjc.so apply to every executable that links it.
#[test]
fn shared_library_rules_are_program_independent() {
    let world = small_world();
    let libjc = world.store.get("libjc.so").unwrap();
    let f1 = analyze_statically(&libjc, &Jasan::hybrid());
    let f2 = analyze_statically(&libjc, &Jasan::hybrid());
    assert_eq!(f1, f2, "static analysis is deterministic");
}

/// Static-only rewriting misses dlopen'ed code; the hybrid covers it.
/// (The lbm workload pulls its kernel in via dlopen.)
#[test]
fn hybrid_covers_dlopened_code_retrowrite_does_not() {
    let world = small_world();
    let idx = world
        .workloads
        .iter()
        .position(|w| w.name == "lbm")
        .unwrap();
    let load = LoadOptions {
        args: vec![world.args[idx]],
        preload: vec![RT_MODULE.into()],
        ..Default::default()
    };
    let ja = run_hybrid(
        &world.store,
        "lbm",
        Jasan::hybrid(),
        &HybridOptions {
            load: load.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        ja.coverage.dynamic_blocks > 0,
        "plugin blocks hit the fallback"
    );

    let rw = run_hybrid(
        &world.store,
        "lbm",
        Retrowrite::new(),
        &HybridOptions {
            load,
            engine: EngineOptions {
                costs: static_rewriter_costs(),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    // Same program result, but the static tool never instruments the
    // plugin (it has rules for zero of the dynamic blocks).
    assert_eq!(rw.outcome.code(), ja.outcome.code());
}

/// Deterministic evaluation: two identical hybrid runs produce identical
/// cycle counts (the whole performance model is reproducible).
#[test]
fn hybrid_runs_are_deterministic() {
    let world = small_world();
    for name in ["mcf", "gcc", "cactusADM"] {
        let idx = world.workloads.iter().position(|w| w.name == name).unwrap();
        let load = LoadOptions {
            args: vec![world.args[idx]],
            preload: vec![RT_MODULE.into()],
            ..Default::default()
        };
        let opts = HybridOptions {
            load,
            ..Default::default()
        };
        let a = run_hybrid(&world.store, name, Jasan::hybrid(), &opts).unwrap();
        let b = run_hybrid(&world.store, name, Jasan::hybrid(), &opts).unwrap();
        assert_eq!(a.cycles, b.cycles, "{name} cycles differ");
        assert_eq!(a.insns, b.insns);
        assert_eq!(a.outcome, b.outcome);
    }
}

/// The no-op-rule ablation: disabling §3.3.4's markers pushes clean
/// static blocks into the dynamic fallback and costs performance.
#[test]
fn noop_rules_ablation_costs_cycles() {
    let world = small_world();
    let idx = world
        .workloads
        .iter()
        .position(|w| w.name == "mcf")
        .unwrap();
    let load = LoadOptions {
        args: vec![world.args[idx]],
        preload: vec![RT_MODULE.into()],
        ..Default::default()
    };
    let with = run_hybrid(
        &world.store,
        "mcf",
        Jasan::hybrid(),
        &HybridOptions {
            load: load.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    let without = run_hybrid(
        &world.store,
        "mcf",
        Jasan::hybrid(),
        &HybridOptions {
            load,
            no_noop_rules: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(with.outcome.code(), without.outcome.code());
    assert!(
        without.coverage.dynamic_blocks > with.coverage.dynamic_blocks,
        "clean blocks misclassify without no-op rules"
    );
    assert!(
        without.cycles > with.cycles,
        "misclassification costs cycles: {} vs {}",
        without.cycles,
        with.cycles
    );
}

/// ipa-ra end-to-end over a real workload build: the broken sanitizer
/// corrupts results, the fixed one does not.
#[test]
fn ipa_ra_world_end_to_end() {
    let world = build_world(&BuildOptions {
        scale: 0.1,
        ipa_ra: true,
    });
    let idx = world
        .workloads
        .iter()
        .position(|w| w.name == "sjeng")
        .unwrap();
    let load = LoadOptions {
        args: vec![world.args[idx]],
        preload: vec![RT_MODULE.into()],
        ..Default::default()
    };
    let (native, _) = run_native(&world.store, "sjeng", &load, 0).unwrap();
    let fixed = run_hybrid(
        &world.store,
        "sjeng",
        Jasan::hybrid(),
        &HybridOptions {
            load: load.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(
        fixed.outcome.code(),
        native.code(),
        "interprocedural fix keeps ipa-ra binaries correct"
    );
}

/// The eval harness figures are themselves deterministic and well-formed.
#[test]
fn eval_figures_are_consistent() {
    // Run on a tiny scale through the public eval API.
    let ew = janitizer_eval::build_eval_world(0.05);
    let f14 = janitizer_eval::fig14(&ew);
    assert_eq!(f14.rows.len(), 28);
    // cactusADM must be the dynamic-code outlier.
    let cactus = f14
        .rows
        .iter()
        .find(|(n, _)| n == "cactusADM")
        .and_then(|(_, v)| v[0])
        .unwrap();
    for (name, vals) in &f14.rows {
        if name != "cactusADM" {
            let v = vals[0].unwrap();
            assert!(
                v < cactus,
                "{name} ({v}) should be below cactusADM ({cactus})"
            );
        }
    }
}

/// Footnote 1 of §3.4: a dlopen'ed module that ships a rewrite-rule file
/// is processed like statically-seen code; without one it takes the
/// dynamic fallback.
#[test]
fn dlopened_module_with_rule_file_counts_as_static() {
    let world = small_world();
    let idx = world
        .workloads
        .iter()
        .position(|w| w.name == "lbm")
        .unwrap();
    let load = LoadOptions {
        args: vec![world.args[idx]],
        preload: vec![RT_MODULE.into()],
        ..Default::default()
    };
    // Without rules for the plugin: its blocks are dynamic.
    let without = run_hybrid(
        &world.store,
        "lbm",
        Jasan::hybrid(),
        &HybridOptions {
            load: load.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    // With a rule file shipped for liblbm.so: everything is static.
    let with = run_hybrid(
        &world.store,
        "lbm",
        Jasan::hybrid(),
        &HybridOptions {
            load,
            analyze_extra: vec!["liblbm.so".into()],
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(with.outcome.code(), without.outcome.code());
    assert!(without.coverage.dynamic_blocks > 0);
    assert_eq!(
        with.coverage.dynamic_blocks, 0,
        "rule file makes the plugin statically covered"
    );
    assert!(
        with.cycles <= without.cycles,
        "static rules are no slower than the fallback"
    );
}
