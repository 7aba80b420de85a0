//! Corruption-regression corpus: each minimized fixture under `corpus/`
//! must decode to the *exact* typed error it was built to trigger — no
//! panic, and no silent acceptance. Regenerate the fixtures with
//! `cargo run -p janitizer-faultz --bin faultz-gen-corpus` after format
//! changes, and update the expectations here deliberately.

use janitizer_analysis::{analyze_module, DisasmResult};
use janitizer_core::{rules_from_disasm, run_hybrid, DegradationReason, HybridOptions, RunOutcome};
use janitizer_faultz::MarkerPlugin;
use janitizer_obj::{FormatError, Image, Object};
use janitizer_rules::RuleFile;
use janitizer_store::{JournalRecord, StoreEntry};
use janitizer_vm::{FaultKind, ModuleStore};
use std::path::PathBuf;

/// Compact stable rendering: `BadMagic` carries the raw bytes it saw,
/// which are fixture-specific noise; everything else Debug-prints.
fn label(e: &FormatError) -> String {
    match e {
        FormatError::BadMagic { .. } => "BadMagic".into(),
        other => format!("{other:?}"),
    }
}

fn fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("corpus")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing fixture {name}: {e}"))
}

/// Decodes one fixture by its name prefix and returns the error's Debug
/// rendering (or panics if the hostile input was accepted).
fn decode_err(name: &str, bytes: &[u8]) -> String {
    let err = if name.starts_with("obj_") {
        Object::from_bytes(bytes).expect_err("hostile object accepted")
    } else if name.starts_with("img_") {
        Image::from_bytes(bytes).expect_err("hostile image accepted")
    } else if name.contains("journal") {
        JournalRecord::from_bytes(bytes).expect_err("hostile journal accepted")
    } else if name.starts_with("store_") {
        StoreEntry::from_bytes(bytes).expect_err("hostile store entry accepted")
    } else {
        RuleFile::from_bytes(bytes).expect_err("hostile rule file accepted")
    };
    label(&err)
}

#[test]
fn every_fixture_fails_with_its_exact_typed_error() {
    let cases: &[(&str, &str)] = &[
        ("obj_bad_magic.bin", "BadMagic"),
        ("obj_bad_version.bin", "BadVersion(99)"),
        ("obj_truncated.bin", "Truncated"),
        (
            "obj_reloc_offset.bin",
            r#"Invalid { what: "relocation offset" }"#,
        ),
        ("img_bad_magic.bin", "BadMagic"),
        ("img_truncated.bin", "Truncated"),
        (
            "img_section_span.bin",
            r#"Invalid { what: "section span" }"#,
        ),
        (
            "img_section_data.bin",
            r#"Invalid { what: "section data size" }"#,
        ),
        (
            "img_symbol_range.bin",
            r#"Invalid { what: "symbol range" }"#,
        ),
        ("rules_bad_magic.bin", "BadMagic"),
        ("rules_stale_v1.bin", "BadVersion(1)"),
        (
            "rules_checksum.bin",
            r#"Invalid { what: "rule-file checksum" }"#,
        ),
        ("rules_truncated.bin", "Truncated"),
        ("store_torn_journal.bin", "Truncated"),
        ("store_truncated_entry.bin", "Truncated"),
        (
            "store_checksum_flip.bin",
            r#"Invalid { what: "store-entry checksum" }"#,
        ),
    ];
    assert!(cases.len() >= 12, "corpus floor");
    for (name, expected) in cases {
        let got = decode_err(name, &fixture(name));
        assert_eq!(&got, expected, "{name}");
    }
}

#[test]
fn corpus_directory_has_no_strays() {
    // Every committed fixture must be covered by the expectations above
    // (or, for `hostile_*`, by the run-outcome regression below); a
    // stray file means an untested corruption class.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut found: Vec<String> = std::fs::read_dir(&dir)
        .expect("corpus dir")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    found.sort();
    assert_eq!(found.len(), 20, "fixture count drifted: {found:?}");
    assert_eq!(
        found.iter().filter(|n| n.starts_with("hostile_")).count(),
        4,
        "hostile fixture set drifted: {found:?}"
    );
}

/// Which static analysis a hostile fixture run gets.
#[derive(Clone, Copy, PartialEq)]
enum Analysis {
    /// The analyzer, as every run uses.
    Analyzer,
    /// The no-evidence ablation: rules from `analyze_module` alone,
    /// supplied as a rule override.
    Ablation,
}

/// Runs one hostile fixture end to end under the given analysis and
/// returns the [`janitizer_core::HybridRun`].
fn run_hostile(name: &str, analysis: Analysis) -> janitizer_core::HybridRun {
    let img = Image::from_bytes(&fixture(name)).expect("hostile fixture must decode");
    let module = img.name.clone();
    let mut opts = HybridOptions::with_fuel(2_000_000);
    if analysis == Analysis::Ablation {
        let base = DisasmResult::untiered(analyze_module(&img));
        let rules = rules_from_disasm(&img, base, &MarkerPlugin);
        opts.rule_overrides.insert(module.clone(), rules.to_bytes());
    }
    let mut store = ModuleStore::new();
    store.add(img);
    run_hybrid(&store, &module, MarkerPlugin, &opts).expect("hostile fixture run must not error")
}

/// The `hostile_*` fixtures are *valid* images with targeted hostility;
/// each must produce its exact outcome: graceful per-region degradation,
/// a typed fault, or a clean run — never a panic and never silent
/// misanalysis.
#[test]
fn hostile_fixtures_degrade_with_their_exact_outcome() {
    use Analysis::{Ablation, Analyzer};
    // Pristine subject: exits 0 with nothing degraded.
    let run = run_hostile("hostile_tiny.bin", Analyzer);
    assert_eq!(run.outcome.code(), Some(0), "pristine subject");
    assert!(run.degraded.is_empty(), "pristine subject degraded");

    // Data splice: code bytes are demonstrably read as data. The run
    // still exits 0, and the analyzer records exactly a
    // low-confidence-region degradation for the spliced block.
    let run = run_hostile("hostile_data_splice.bin", Analyzer);
    assert_eq!(
        run.outcome.code(),
        Some(0),
        "splice must still run benignly"
    );
    let reasons: Vec<DegradationReason> = run.degraded.iter().map(|d| d.reason).collect();
    assert_eq!(
        reasons,
        [DegradationReason::LowConfidenceRegion],
        "splice must degrade the contested region"
    );
    assert!(
        run.degraded.iter().all(|d| d.module == "hostile-tiny"),
        "degradation names the module"
    );

    // Jump-table scramble: dispatch lands mid-instruction; the run dies
    // with a typed decode fault, never a panic.
    let run = run_hostile("hostile_jumptab_scramble.bin", Analyzer);
    let RunOutcome::Fault(f) = &run.outcome else {
        panic!("scramble must fault: {:?}", run.outcome);
    };
    assert!(
        matches!(f.kind, FaultKind::Decode(_)),
        "scramble must die on decode, got {:?}",
        f.kind
    );

    // Symbol strip: still exits 0. Without evidence the dispatch targets
    // are reached only through the dynamic fallback; the analyzer
    // recovers them statically.
    let run = run_hostile("hostile_symbol_strip.bin", Ablation);
    assert_eq!(
        run.outcome.code(),
        Some(0),
        "stripped subject must still run"
    );
    assert!(run.degraded.is_empty(), "strip alone must not degrade");
    assert!(
        run.coverage.dynamic_blocks > 0,
        "stripped dispatch targets must fall back to dynamic translation"
    );
    let run = run_hostile("hostile_symbol_strip.bin", Analyzer);
    assert_eq!(
        run.outcome.code(),
        Some(0),
        "stripped subject must still run"
    );
    assert!(run.degraded.is_empty(), "strip alone must not degrade");
    assert_eq!(
        run.coverage.dynamic_blocks, 0,
        "the analyzer must recover the stripped dispatch targets"
    );
}
