//! Knob parity: every evaluation knob documented as observation-only
//! leaves figure and rule bytes unchanged.
//!
//! One guest world is built per test binary. `knobs_change_no_byte`
//! renders one serial, all-knobs-off reference from it — the render,
//! CSV and JSON of fig7–9 and fig11–14, fig10's counts and render, and
//! the `Jasan::hybrid` rule bytes of every module — and then runs one
//! table row per knob on a clone of the world with a cold rule cache,
//! asserting that the bytes the row reproduces match the reference.
//! Rows also check what their knob must produce: profiles that conserve
//! cycles and match across thread counts, and flight recorders that
//! hold module loads and the same event total at any thread count.
//! Last, the serve simulation's snapshots must match at 1, 4 and 4
//! threads.
//!
//! Eval's own knobs (`threads`, `profile`) travel in each world's
//! [`RunConfig`]; a flight row arms its own world's recorder
//! ([`EvalWorld::flight`]).

use janitizer_core::{analyze_statically, RunProfile};
use janitizer_eval::{
    build_eval_world, fig10, fig11, fig12, fig13, fig14, fig7, fig8, fig9, serve_sim,
    serve_summary_json, EvalWorld, FigResult, RunConfig, ServeSimConfig,
};
use janitizer_jasan::Jasan;
use janitizer_telemetry::flight::Flight;
use janitizer_telemetry::json::Json;
use janitizer_workloads::World;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The one guest world of this binary, at the test scale.
fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| build_eval_world(0.05).world)
}

/// A fresh evaluation world over a clone of [`world`]: cold rule cache,
/// empty sinks, the given configuration. The images are shared `Arc`s,
/// so nothing is recompiled.
fn eval_world(config: RunConfig) -> EvalWorld {
    EvalWorld::new(world().clone(), config)
}

fn serial() -> RunConfig {
    RunConfig {
        threads: 1,
        ..RunConfig::default()
    }
}

type Figure = (&'static str, fn(&EvalWorld) -> FigResult);

const FIG7_14: &[Figure] = &[
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
];
const FIG13_14: &[Figure] = &[("fig13", fig13), ("fig14", fig14)];

/// A figure's render, CSV and JSON.
fn figure_bytes(fig: &FigResult) -> [String; 3] {
    [fig.render(), fig.to_csv(), fig.to_json()]
}

/// The first line where `got` and `want` differ, for divergence messages.
fn first_diff(got: &str, want: &str) -> String {
    let (mut g, mut w) = (got.lines(), want.lines());
    for n in 1.. {
        match (g.next(), w.next()) {
            (Some(a), Some(b)) if a == b => continue,
            (None, None) => break,
            (a, b) => return format!("line {n}: got {a:?}, want {b:?}"),
        }
    }
    "no line differs (line endings?)".into()
}

/// Asserts `got == want`, naming the first differing line on failure.
fn assert_same_text(got: &str, want: &str, what: &str) {
    assert!(got == want, "{what} diverged at {}", first_diff(got, want));
}

type Profiles = BTreeMap<(String, String), RunProfile>;

/// Renders `figs` and returns each one's bytes by name, with the
/// profiles its runs collected (none unless the world profiles).
fn render(ew: &EvalWorld, figs: &[Figure]) -> BTreeMap<&'static str, ([String; 3], Profiles)> {
    figs.iter()
        .map(|(name, f)| (*name, (figure_bytes(&f(ew)), ew.take_profiles())))
        .collect()
}

/// fig10's detection counts and render.
fn juliet(ew: &EvalWorld) -> String {
    let r = fig10(ew);
    format!("{:?}\n{:?}\n{}", r.valgrind, r.jasan, r.render())
}

/// `Jasan::hybrid` rule bytes of every world module, in name order.
fn rule_bytes() -> Vec<(String, Vec<u8>)> {
    let store = &world().store;
    store
        .names()
        .into_iter()
        .map(|name| {
            let image = store.get(name).expect("listed module");
            (
                name.to_string(),
                analyze_statically(&image, &Jasan::hybrid()).to_bytes(),
            )
        })
        .collect()
}

/// One knob setting: its name, the world's `RunConfig` (`threads`,
/// `profile`), whether the world's flight recorder is armed, the
/// figures it must reproduce, and whether fig10 is among them.
type Row = (&'static str, usize, bool, bool, &'static [Figure], bool);

#[rustfmt::skip]
const ROWS: &[Row] = &[
    // name                         threads profile flight  figures   fig10
    ("threads=4",                   4,      false,  false,  FIG7_14,  true),
    ("profile, threads=4",          4,      true,   false,  FIG7_14,  false),
    ("profile, threads=1",          1,      true,   false,  FIG13_14, false),
    ("flight recorder, threads=1",  1,      false,  true,   FIG13_14, false),
    ("flight recorder, threads=4",  4,      false,  true,   FIG13_14, false),
];

/// Each `(figure, workload, config)` cell's exported profile artifacts:
/// JSON, folded stacks and the budget table.
type ProfileBytes = BTreeMap<(&'static str, String, String), [String; 3]>;

fn profile_bytes<'a>(
    cells: impl Iterator<Item = (&'static str, &'a (String, String), &'a RunProfile)>,
) -> ProfileBytes {
    cells
        .map(|(fig, (workload, config), p)| {
            (
                (fig, workload.clone(), config.clone()),
                [
                    p.to_json(10).render_pretty(),
                    p.to_folded(),
                    p.budget_table(10),
                ],
            )
        })
        .collect()
}

/// Attribution conservation: every attributed cycle sums exactly to the
/// engine's modeled totals, per block class and per probe site.
fn assert_profiles_conserve_cycles<'a>(
    cells: impl Iterator<Item = (&'static str, &'a (String, String), &'a RunProfile)>,
) {
    let mut tools_with_sites = std::collections::BTreeSet::new();
    let mut n = 0;
    for (fig, (workload, config), p) in cells {
        n += 1;
        let cell = format!("{fig}/{workload}/{config}");
        let t = p.class_totals();
        // Per-block conservation: every cycle the process spent is
        // attributed to exactly one (block, class) bucket.
        assert_eq!(
            t.total(),
            p.total_cycles,
            "{cell}: attributed {} of {} cycles",
            t.total(),
            p.total_cycles
        );
        // Per-site conservation: every probe the plugins register is
        // site-tagged, so the per-site cycle sum covers the probe
        // classes exactly.
        let site_cycles: u64 = p.sites.values().map(|s| s.stats.cycles).sum();
        assert_eq!(
            site_cycles,
            t.inline_probes + t.clean_call_probes,
            "{cell}: untagged probe cycles"
        );
        let site_execs: u64 = p.sites.values().map(|s| s.stats.execs).sum();
        assert_eq!(site_execs, p.engine.probe_runs, "{cell}");
        // Engine counters conserve: a chain hit is a kind of indirect
        // transfer, and hoisted hits surface as elided executions (they
        // are not probe runs, so they must be covered by the sites'
        // elided sum).
        let e = &p.engine;
        assert!(e.indirect_chain_hits <= e.indirect_transfers, "{cell}");
        assert!(e.checks_hoisted <= p.checks_elided(), "{cell}");
        tools_with_sites.extend(p.sites.keys().map(|k| k.tool.clone()));
    }
    assert!(n > 0, "profiling produced no cells");
    // The instrumented cells actually carry sites; the attribution is
    // not vacuous.
    for tool in ["jasan", "jcfi"] {
        assert!(
            tools_with_sites.contains(tool),
            "no {tool} probe sites recorded"
        );
    }
}

/// Serve-simulation snapshots (summary, `serve-summary.json`,
/// serve-metrics JSON, OpenMetrics) must match at 1, 4 and 4 threads:
/// client scheduling may reorder work but never the totals.
fn assert_serve_snapshots_match() {
    let cfg = ServeSimConfig::default();
    let mut snapshots: Vec<[String; 4]> = Vec::new();
    for threads in [1usize, 4, 4] {
        let ew = eval_world(RunConfig {
            threads,
            ..RunConfig::default()
        });
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
        let total = run.stats.memory + run.stats.store + run.stats.analyzed;
        assert_eq!(total, (cfg.clients * cfg.requests) as u64);
        let summary_json = serve_summary_json(&cfg, &run.stats, run.summary.contains("MISMATCH"));
        snapshots.push([run.summary, summary_json, run.metrics_json, run.openmetrics]);
    }
    for pair in snapshots.windows(2) {
        assert_same_text(&pair[1][0], &pair[0][0], "serve summary");
        assert_same_text(&pair[1][1], &pair[0][1], "serve-summary.json");
        assert_same_text(&pair[1][2], &pair[0][2], "serve-metrics.json");
        assert_same_text(&pair[1][3], &pair[0][3], "OpenMetrics exposition");
    }
}

#[test]
fn knobs_change_no_byte() {
    let reference = eval_world(serial());
    let ref_figs = render(&reference, FIG7_14);
    let ref_fig10 = juliet(&reference);
    let ref_rules = rule_bytes();
    assert!(
        ref_figs.values().all(|(_, p)| p.is_empty()),
        "profiling off, yet the sink collected profiles"
    );

    let mut first_profiles: Option<ProfileBytes> = None;
    let mut first_flight_total: Option<u64> = None;
    for &(row, threads, profile, armed, row_figs, with_fig10) in ROWS {
        let mut ew = eval_world(RunConfig {
            threads,
            profile,
            ..RunConfig::default()
        });
        if armed {
            ew.flight = Flight::armed(None);
        }
        let figs = render(&ew, row_figs);
        let rules = rule_bytes();
        let fig10 = with_fig10.then(|| juliet(&ew));

        for (name, ([render, csv, json], _)) in &figs {
            let ([ref_render, ref_csv, ref_json], _) = &ref_figs[name];
            assert_same_text(render, ref_render, &format!("{row}: {name} render"));
            assert_same_text(csv, ref_csv, &format!("{row}: {name} CSV"));
            assert_same_text(json, ref_json, &format!("{row}: {name} JSON"));
        }
        if let Some(fig10) = fig10 {
            assert_same_text(&fig10, &ref_fig10, &format!("{row}: fig10"));
        }
        assert_eq!(rules.len(), ref_rules.len(), "{row}: module set changed");
        for ((name, bytes), (_, ref_bytes)) in rules.iter().zip(&ref_rules) {
            assert!(bytes == ref_bytes, "{row}: {name} rule bytes diverged");
        }
        if armed {
            // The recorder saw the rows' runs, and the event total is a
            // sum over deterministic runs, so it is the same at any
            // thread count.
            let dump = ew.flight.dump_json("test").expect("armed row");
            let dump = Json::parse(&dump).expect("flight dump parses");
            let loads = dump
                .get("events")
                .and_then(Json::as_arr)
                .expect("events array")
                .iter()
                .filter(|e| e.get("kind").and_then(Json::as_str) == Some("vm.module_load"))
                .count();
            assert!(loads > 0, "{row}: no vm.module_load recorded");
            let total = dump
                .get("total_events")
                .and_then(Json::as_u64)
                .expect("total_events");
            assert_eq!(
                total,
                *first_flight_total.get_or_insert(total),
                "{row}: flight event total depends on the thread count"
            );
        }

        let cells = || {
            figs.iter()
                .flat_map(|(fig, (_, p))| p.iter().map(move |(k, p)| (*fig, k, p)))
        };
        if !profile {
            assert!(
                cells().next().is_none(),
                "{row}: profiling off, yet profiles collected"
            );
            continue;
        }
        // Exported profiles are byte-identical at any thread count:
        // merging is a commutative sum in fixed key order.
        let bytes = profile_bytes(cells());
        match &first_profiles {
            None => {
                assert_profiles_conserve_cycles(cells());
                first_profiles = Some(bytes);
            }
            Some(first) => {
                assert_eq!(
                    first
                        .keys()
                        .filter(|k| figs.contains_key(k.0))
                        .collect::<Vec<_>>(),
                    bytes.keys().collect::<Vec<_>>(),
                    "{row}: cell sets diverged across thread counts"
                );
                for (key, [json, folded, budget]) in &bytes {
                    let [json0, folded0, budget0] = &first[key];
                    assert_same_text(json, json0, &format!("{row}: {key:?} profile JSON"));
                    assert_same_text(folded, folded0, &format!("{row}: {key:?} folded"));
                    assert_same_text(budget, budget0, &format!("{row}: {key:?} budget"));
                }
            }
        }
    }
    assert!(first_profiles.is_some(), "the table has a profiling row");
    assert!(first_flight_total.is_some(), "the table has a flight row");

    assert_serve_snapshots_match();
}

/// Two worlds with different configurations run side by side: each run
/// reads only its own world's `RunConfig` and reports into its own
/// sinks, so neither perturbs the other.
#[test]
fn worlds_with_different_configs_run_side_by_side() {
    let plain = eval_world(serial());
    let profiled = eval_world(RunConfig {
        threads: 4,
        profile: true,
        ..RunConfig::default()
    });
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| figure_bytes(&fig14(&plain)));
        let b = s.spawn(|| figure_bytes(&fig14(&profiled)));
        (
            a.join().expect("plain fig14"),
            b.join().expect("profiled fig14"),
        )
    });
    assert_eq!(a, b, "fig14 bytes depend on the other world's config");
    assert!(
        plain.take_profiles().is_empty(),
        "the profiling-off world collected profiles"
    );
    assert!(
        !profiled.take_profiles().is_empty(),
        "the profiling-on world collected none"
    );
}
