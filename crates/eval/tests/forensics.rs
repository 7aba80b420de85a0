//! Forensic-report acceptance tests (fig10 + `report` path): reporting
//! is observation-only (verdicts and rendered figure bytes identical
//! with it on or off), every detection yields a report with a resolved
//! backtrace frame, a faulting-instruction window, tool context and an
//! execution trail, and the text and JSON renderings agree on all
//! addresses.

use janitizer_core::ToolContext;
use janitizer_eval::{build_eval_world, fig10_with, juliet_report};
use std::path::PathBuf;

/// Fresh per-test scratch directory under the target-local temp root.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("janitizer-forensics-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn fig10_reports_are_observation_only_and_well_formed() {
    let ew = build_eval_world(0.05);
    let dir = scratch("fig10");

    let off = fig10_with(&ew, None, Some(6));
    let on = fig10_with(&ew, Some(&dir), Some(6));

    // Byte parity: enabling report emission changes nothing in the
    // figure — capture charges no guest cycles.
    assert_eq!(off.render(), on.render(), "reporting changed figure bytes");
    assert_eq!(off.jasan_fn_by_category, on.jasan_fn_by_category);

    // Every JASan detection wrote a report pair.
    assert!(on.jasan.true_positives >= 1, "subset contains detections");
    let files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("reports dir created")
        .map(|e| e.unwrap().path())
        .collect();
    let json_files: Vec<&PathBuf> = files
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    let txt_count = files
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "txt"))
        .count();
    assert!(!json_files.is_empty(), "at least one JSON report");
    assert_eq!(
        json_files.len(),
        txt_count,
        "reports come in .txt/.json pairs"
    );

    // Schema shape: the stable envelope keys are present in every file.
    for p in &json_files {
        let body = std::fs::read_to_string(p).unwrap();
        for key in [
            "\"schema\": \"janitizer.diag.report/v1\"",
            "\"id\"",
            "\"kind\"",
            "\"pc\"",
            "\"backtrace\"",
            "\"disasm\"",
            "\"registers\"",
            "\"trail\"",
            "\"context\"",
        ] {
            assert!(body.contains(key), "{} missing {key}", p.display());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn juliet_report_carries_full_forensic_context() {
    let ew = build_eval_world(0.05);
    let reports = juliet_report(&ew, 0).expect("case 0 exists");
    assert!(!reports.is_empty(), "case 0 bad variant violates");
    let rep = &reports[0];

    assert_eq!(rep.tool, "jasan");
    assert!(
        rep.id.starts_with("jasan-case-0000-"),
        "stable id, got {}",
        rep.id
    );

    // Backtrace: at least one frame resolved to module!symbol+offset.
    assert!(
        rep.backtrace
            .iter()
            .any(|f| f.module.is_some() && f.symbol.is_some()),
        "no resolved frame in {:?}",
        rep.backtrace
    );
    assert_eq!(rep.backtrace[0].addr, rep.pc, "frame 0 is the faulting pc");

    // Disassembly window contains exactly one fault-marked line, at pc.
    let faults: Vec<_> = rep.disasm.iter().filter(|l| l.fault).collect();
    assert_eq!(faults.len(), 1, "one faulting instruction");
    assert_eq!(faults[0].addr, rep.pc);

    // JASan context with a shadow window around the access.
    let ToolContext::Jasan(j) = &rep.context else {
        panic!("expected JASan context, got {:?}", rep.context);
    };
    assert!(!j.rows.is_empty(), "shadow window captured");
    assert!(j.access_size > 0);

    // Execution trail is present and symbolized.
    assert!(!rep.trail.is_empty(), "execution trail captured");
    assert!(
        rep.trail.iter().all(|f| f.module.is_some()),
        "trail frames in modules"
    );

    // Text and JSON agree on every address: the pc and each backtrace
    // frame render through one shared formatter.
    let text = rep.render_text();
    let json = rep.to_json().render_pretty();
    let pc_str = format!("{:#010x}", rep.pc);
    assert!(text.contains(&pc_str) && json.contains(&pc_str));
    for f in &rep.backtrace {
        let a = format!("{:#010x}", f.addr);
        assert!(
            text.contains(&a) && json.contains(&a),
            "address {a} diverges"
        );
    }
    assert!(
        text.starts_with("==janitizer== ERROR: heap-buffer-overflow"),
        "{text}"
    );
    assert!(text.contains("Faulting instruction window:"));
    assert!(text.contains("JASan shadow map around"));
    assert!(text.contains("Execution trail (oldest block first):"));
}
