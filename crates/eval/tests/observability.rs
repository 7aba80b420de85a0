//! Observability artifacts are deterministic where they claim to be:
//!
//! * `explain diff` on the committed fig14 bundles (the PR7-era
//!   baseline fixture vs. the current artifact) reproduces the known
//!   dispatch improvement and ranks its function-level wins;
//! * the `BENCH_history.jsonl` trend reader tolerates pre-schema lines.
//!
//! That serve metrics and figures are byte-identical at any thread count
//! and with the flight recorder armed is pinned by `knob_parity.rs`.

use janitizer_eval::bench_trend;
use janitizer_profile::diff::{diff_bundles, BundleSummary};

#[test]
fn explain_diff_reproduces_the_committed_dispatch_improvement() {
    let baseline = include_str!("fixtures/explain-fig14-pr7.v2.json");
    let current = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/explain-fig14.v2.json"
    ))
    .expect("committed fig14 explain artifact");
    let (diff, report) = diff_bundles(baseline, &current, 5).expect("both bundles parse");

    let gems = diff
        .cells
        .iter()
        .find(|c| c.workload == "GemsFDTD" && c.config == "jasan-hybrid")
        .expect("GemsFDTD cell present in both bundles");
    let dispatch = gems.cycles["dispatch"];
    assert_eq!(
        (dispatch.before, dispatch.after),
        (1408, 814),
        "the inlined indirect-target cache cut GemsFDTD dispatch cycles 1408 -> 814"
    );
    assert!(dispatch.signed() < 0);
    // The cheaper dispatch ranks its functions as improvements, with no
    // regressing site anywhere in the bundle.
    assert!(!gems.improving_functions().is_empty());
    for cell in &diff.cells {
        assert!(
            cell.regressing_sites().is_empty(),
            "{}/{}: unexpected site regression",
            cell.workload,
            cell.config
        );
    }
    assert!(
        diff.worst_total_ratio() <= 1.0,
        "PR8 regressed no cell total"
    );
    assert!(
        report.contains("1408 -> 814"),
        "report shows the delta:\n{report}"
    );
    assert!(report.contains("top improving functions"));
    // The reverse diff is a regression and would trip a 5% gate.
    let (reverse, _) = diff_bundles(&current, baseline, 5).expect("parse");
    assert!(reverse.worst_total_ratio() > 1.05);
}

#[test]
fn bundle_parse_accepts_both_committed_artifacts() {
    let a = BundleSummary::parse(include_str!("fixtures/explain-fig14-pr7.v2.json")).unwrap();
    assert_eq!(a.target, "fig14");
    assert_eq!(a.cells.len(), 28, "one cell per SPEC workload");
    for cell in a.cells.values() {
        assert!(cell.cycles.contains_key("total"));
        assert!(!cell.functions.is_empty());
    }
}

#[test]
fn bench_trend_tolerates_pre_schema_lines() {
    let history = "\
{\"date\":\"2026-08-01\",\"threads\":1,\"figures\":8,\"total_wall_ms\":200.0}\n\
not json at all\n\
{\"schema\":\"janitizer.bench-history/v1\",\"date\":\"2026-08-02\",\"threads\":1,\
\"total_wall_ms\":100.0,\"figure_wall_ms\":{\"fig7\":60.0,\"fig8\":40.0}}\n\
{\"schema\":\"janitizer.bench-history/v1\",\"date\":\"2026-08-03\",\"threads\":1,\
\"total_wall_ms\":50.0,\"figure_wall_ms\":{\"fig7\":20.0,\"fig9\":30.0}}\n";
    let out = bench_trend(history);
    assert!(out.contains("3 run(s)"), "{out}");
    assert!(out.contains("1 unparseable line(s) skipped"), "{out}");
    assert!(out.contains("(pre-schema)"), "{out}");
    assert!(
        out.contains("-50.0%"),
        "total halved between the last runs:\n{out}"
    );
    assert!(out.contains("fig7"), "{out}");
    assert!(
        out.contains("(new)"),
        "fig9 appears only in the last run:\n{out}"
    );
}
