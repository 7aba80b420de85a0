//! Observability is observation-only, and its artifacts are
//! deterministic where they claim to be:
//!
//! * the `janitizer.serve-metrics/v1` snapshot (and its OpenMetrics
//!   rendering) is byte-identical run-to-run and at any `--threads`
//!   setting — client scheduling may reorder work but never the totals;
//! * figure results are byte-identical with the flight recorder armed
//!   or disarmed — the black box records, it never steers;
//! * `explain diff` on the committed fig14 bundles (the PR7-era
//!   baseline fixture vs. the current artifact) reproduces the known
//!   dispatch improvement and ranks its function-level wins;
//! * the `BENCH_history.jsonl` trend reader tolerates pre-schema lines.
//!
//! The thread-count and flight-recorder switches are process-wide, so
//! these tests serialize on a mutex.

use janitizer_eval::{
    bench_trend, build_eval_world, fig13, fig14, serve_sim, set_threads, ServeSimConfig,
};
use janitizer_profile::diff::{diff_bundles, BundleSummary};
use janitizer_telemetry::flight;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn serve_metrics_snapshot_is_deterministic_across_threads() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = ServeSimConfig::default();
    let mut snapshots: Vec<(String, String, String)> = Vec::new();
    for threads in [1usize, 4, 4] {
        set_threads(threads);
        let ew = build_eval_world(0.05);
        let run = serve_sim(&ew, &cfg);
        assert!(
            run.metrics_json.contains("janitizer.serve-metrics/v1"),
            "snapshot carries its schema tag"
        );
        assert!(
            run.host_metrics_json
                .contains("janitizer.serve-metrics-host/v1"),
            "host snapshot carries its schema tag"
        );
        assert!(
            run.openmetrics.ends_with("# EOF\n"),
            "exposition is terminated"
        );
        // Provenance totals are deterministic (exactly-once analysis per
        // key) and must account for every request.
        let total = run.provenance.memory + run.provenance.store + run.provenance.analyzed;
        assert_eq!(total, (cfg.clients * cfg.requests) as u64);
        snapshots.push((run.summary, run.metrics_json, run.openmetrics));
    }
    set_threads(1);
    for pair in snapshots.windows(2) {
        assert_eq!(pair[0].0, pair[1].0, "serve summary diverged");
        assert_eq!(pair[0].1, pair[1].1, "serve-metrics.json diverged");
        assert_eq!(pair[0].2, pair[1].2, "OpenMetrics exposition diverged");
    }
}

#[test]
fn figures_are_byte_identical_with_flight_recorder_armed() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let run_pair = |armed: bool, threads: usize| {
        if armed {
            flight::arm(flight::DEFAULT_CAPACITY);
        } else {
            flight::disarm();
        }
        set_threads(threads);
        let ew = build_eval_world(0.05);
        let figs = [fig13(&ew), fig14(&ew)];
        flight::disarm();
        set_threads(1);
        figs
    };
    for threads in [1usize, 4] {
        let off = run_pair(false, threads);
        let on = run_pair(true, threads);
        for (a, b) in off.iter().zip(on.iter()) {
            assert_eq!(
                a.render(),
                b.render(),
                "{} (threads {threads}): render diverged",
                a.title
            );
            assert_eq!(
                a.to_csv(),
                b.to_csv(),
                "{} (threads {threads}): CSV diverged",
                a.title
            );
            assert_eq!(
                a.to_json(),
                b.to_json(),
                "{} (threads {threads}): JSON diverged",
                a.title
            );
        }
    }
    // Rule bytes too: the static analyzer's serialized output is
    // unchanged by the recorder.
    let ew = build_eval_world(0.05);
    for name in ew.world.store.names() {
        let image = ew.world.store.get(name).expect("listed");
        flight::arm(flight::DEFAULT_CAPACITY);
        let armed = janitizer_core::analyze_statically(&image, &janitizer_jasan::Jasan::hybrid())
            .to_bytes();
        flight::disarm();
        let plain = janitizer_core::analyze_statically(&image, &janitizer_jasan::Jasan::hybrid())
            .to_bytes();
        assert_eq!(
            armed, plain,
            "{name}: rule bytes diverged under the recorder"
        );
    }
}

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
