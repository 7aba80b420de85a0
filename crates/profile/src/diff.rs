//! # Differential profile comparison — the regression observatory
//!
//! Parses two serialized `janitizer.profile/v2` bundles (the
//! `explain` artifacts the eval harness commits under `results/`) and
//! computes per-cell deltas: cycle classes, engine counters, and the
//! per-function / per-site / per-edge rollups, ranked by absolute
//! regression. The output answers "what got slower between these two
//! commits, and where" from artifacts alone — no re-run required.
//!
//! Everything is parsed back from the schema-stable JSON rather than
//! from live [`RunProfile`](crate::RunProfile)s so the diff works
//! across binary versions: an old artifact may lack engine counters a
//! newer build emits (missing keys diff as zero), and per-site rows are
//! aggregated over pc into `(tool, kind, module, function)` so layout
//! shifts between builds do not masquerade as regressions.

use janitizer_telemetry::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric compared across the two bundles.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Delta {
    /// Value in the first (baseline) bundle.
    pub before: u64,
    /// Value in the second (candidate) bundle.
    pub after: u64,
}

impl Delta {
    /// Signed change (`after - before`); positive is a regression for
    /// cost-like metrics.
    pub fn signed(&self) -> i128 {
        self.after as i128 - self.before as i128
    }

    /// Relative change `after / before`. A zero baseline maps to 1.0
    /// when both sides are zero and `f64::INFINITY` for a new cost.
    pub fn ratio(&self) -> f64 {
        if self.before == 0 {
            if self.after == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.after as f64 / self.before as f64
        }
    }

    /// Percentage change, `(ratio - 1) * 100`.
    pub fn pct(&self) -> f64 {
        (self.ratio() - 1.0) * 100.0
    }

    fn is_changed(&self) -> bool {
        self.before != self.after
    }
}

/// Per-function cost rollup parsed from one cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FnCost {
    /// Block executions attributed to the function.
    pub execs: u64,
    /// Pure guest cycles.
    pub guest: u64,
    /// All overhead cycles on top of guest execution.
    pub overhead: u64,
}

/// Per-site cost rollup, aggregated over pc.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SiteCost {
    /// Probe executions.
    pub execs: u64,
    /// Attributed probe cycles.
    pub cycles: u64,
    /// Dynamic executions of statically-elided checks.
    pub elided: u64,
}

/// Site identity stable across layout changes: `(tool, kind, module,
/// function)` — pc deliberately excluded.
pub type SiteId = (String, String, String, String);

/// One `(workload, config)` cell of a parsed bundle.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CellSummary {
    /// Cycle classes (`total`, `guest`, `dispatch`, …) from the
    /// profile's `cycles` object.
    pub cycles: BTreeMap<String, u64>,
    /// Engine counters (`blocks_translated`, `indirect_chain_hits`, …).
    pub engine: BTreeMap<String, u64>,
    /// `(module, function) → cost` rollup.
    pub functions: BTreeMap<(String, String), FnCost>,
    /// `(tool, kind, module, function) → cost` rollup over the bundled
    /// top-N site rows.
    pub sites: BTreeMap<SiteId, SiteCost>,
    /// `(from_sym, to_sym, kind) → count` over the bundled top-N edges.
    pub edges: BTreeMap<(String, String, String), u64>,
}

/// A parsed `janitizer.profile/v2` bundle, cells keyed by
/// `(workload, config)`.
#[derive(Clone, PartialEq, Debug)]
pub struct BundleSummary {
    /// The bundle's `target` field (e.g. `"fig14"`).
    pub target: String,
    /// Parsed cells.
    pub cells: BTreeMap<(String, String), CellSummary>,
}

fn get_u64(obj: &Json, key: &str) -> u64 {
    obj.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn get_str(obj: &Json, key: &str) -> String {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string()
}

impl BundleSummary {
    /// Parses a serialized bundle. Accepts both the multi-cell bundle
    /// shape (`{schema, target, cells: [{workload, config, profile}]}`)
    /// and a bare single-profile document (treated as one unnamed
    /// cell), so `explain diff` works on any committed artifact.
    pub fn parse(text: &str) -> Result<BundleSummary, String> {
        let doc = Json::parse(text)?;
        let schema = get_str(&doc, "schema");
        if !schema.starts_with("janitizer.profile/") {
            return Err(format!(
                "not a janitizer.profile bundle (schema {schema:?})"
            ));
        }
        let mut cells = BTreeMap::new();
        match doc.get("cells").and_then(Json::as_arr) {
            Some(arr) => {
                for cell in arr {
                    let workload = get_str(cell, "workload");
                    let config = get_str(cell, "config");
                    let profile = cell
                        .get("profile")
                        .ok_or_else(|| format!("cell {workload}/{config} has no profile"))?;
                    cells.insert((workload, config), Self::parse_cell(profile));
                }
            }
            None => {
                // Bare profile document: key the single cell by exe/tool.
                let workload = get_str(&doc, "exe");
                let config = get_str(&doc, "tool");
                cells.insert((workload, config), Self::parse_cell(&doc));
            }
        }
        Ok(BundleSummary {
            target: get_str(&doc, "target"),
            cells,
        })
    }

    fn parse_cell(profile: &Json) -> CellSummary {
        let mut out = CellSummary::default();
        if let Some(obj) = profile.get("cycles").and_then(Json::as_obj) {
            for (k, v) in obj {
                if let Some(n) = v.as_u64() {
                    out.cycles.insert(k.clone(), n);
                }
            }
        }
        if let Some(obj) = profile.get("engine").and_then(Json::as_obj) {
            for (k, v) in obj {
                if let Some(n) = v.as_u64() {
                    out.engine.insert(k.clone(), n);
                }
            }
        }
        if let Some(arr) = profile.get("functions").and_then(Json::as_arr) {
            for f in arr {
                let key = (get_str(f, "module"), get_str(f, "function"));
                let dst = out.functions.entry(key).or_default();
                dst.execs += get_u64(f, "execs");
                dst.guest += get_u64(f, "guest_cycles");
                dst.overhead += get_u64(f, "overhead_cycles");
            }
        }
        if let Some(arr) = profile.get("sites").and_then(Json::as_arr) {
            for s in arr {
                let key = (
                    get_str(s, "tool"),
                    get_str(s, "kind"),
                    get_str(s, "module"),
                    get_str(s, "function"),
                );
                let dst = out.sites.entry(key).or_default();
                dst.execs += get_u64(s, "execs");
                dst.cycles += get_u64(s, "cycles");
                dst.elided += get_u64(s, "elided");
            }
        }
        if let Some(arr) = profile.get("edges").and_then(Json::as_arr) {
            for e in arr {
                let key = (
                    get_str(e, "from_sym"),
                    get_str(e, "to_sym"),
                    get_str(e, "kind"),
                );
                *out.edges.entry(key).or_insert(0) += get_u64(e, "count");
            }
        }
        out
    }
}

fn diff_maps<K: Clone + Ord>(a: &BTreeMap<K, u64>, b: &BTreeMap<K, u64>) -> BTreeMap<K, Delta> {
    let mut out: BTreeMap<K, Delta> = BTreeMap::new();
    for (k, v) in a {
        out.entry(k.clone()).or_default().before = *v;
    }
    for (k, v) in b {
        out.entry(k.clone()).or_default().after = *v;
    }
    out
}

/// The diff of one `(workload, config)` cell.
#[derive(Clone, PartialEq, Debug)]
pub struct CellDiff {
    /// Workload name.
    pub workload: String,
    /// Tool/config name.
    pub config: String,
    /// Cycle-class deltas.
    pub cycles: BTreeMap<String, Delta>,
    /// Engine-counter deltas.
    pub engine: BTreeMap<String, Delta>,
    /// Per-function overhead deltas.
    pub functions: BTreeMap<(String, String), Delta>,
    /// Per-site cycle deltas.
    pub sites: BTreeMap<SiteId, Delta>,
    /// Per-edge count deltas.
    pub edges: BTreeMap<(String, String, String), Delta>,
}

impl CellDiff {
    /// Delta of the cell's `total` cycle class.
    pub fn total(&self) -> Delta {
        self.cycles.get("total").copied().unwrap_or_default()
    }

    fn ranked<K: Clone + Ord>(map: &BTreeMap<K, Delta>, regressions: bool) -> Vec<(K, Delta)> {
        let mut v: Vec<(K, Delta)> = map
            .iter()
            .filter(|(_, d)| d.is_changed())
            .filter(|(_, d)| {
                if regressions {
                    d.signed() > 0
                } else {
                    d.signed() < 0
                }
            })
            .map(|(k, d)| (k.clone(), *d))
            .collect();
        // Largest absolute change first; relative change then key break
        // ties, so the ranking is fully deterministic.
        v.sort_by(|(ka, a), (kb, b)| {
            b.signed()
                .abs()
                .cmp(&a.signed().abs())
                .then(b.ratio().total_cmp(&a.ratio()))
                .then(ka.cmp(kb))
        });
        v
    }

    /// Sites with increased cycles, largest absolute regression first.
    pub fn regressing_sites(&self) -> Vec<(SiteId, Delta)> {
        Self::ranked(&self.sites, true)
    }

    /// Sites with decreased cycles, largest absolute improvement first.
    pub fn improving_sites(&self) -> Vec<(SiteId, Delta)> {
        Self::ranked(&self.sites, false)
    }

    /// Functions whose overhead grew, largest first.
    pub fn regressing_functions(&self) -> Vec<((String, String), Delta)> {
        Self::ranked(&self.functions, true)
    }

    /// Functions whose overhead shrank, largest first.
    pub fn improving_functions(&self) -> Vec<((String, String), Delta)> {
        Self::ranked(&self.functions, false)
    }
}

/// The full diff of two parsed bundles.
#[derive(Clone, PartialEq, Debug)]
pub struct BundleDiff {
    /// Cells present in both bundles, in deterministic key order.
    pub cells: Vec<CellDiff>,
    /// Cells only in the baseline.
    pub only_before: Vec<(String, String)>,
    /// Cells only in the candidate.
    pub only_after: Vec<(String, String)>,
}

impl BundleDiff {
    /// Computes the diff of `before` vs `after`. Cells are matched by
    /// `(workload, config)`; unmatched cells are listed, not diffed.
    pub fn compute(before: &BundleSummary, after: &BundleSummary) -> BundleDiff {
        let mut cells = Vec::new();
        let mut only_before = Vec::new();
        let mut only_after = Vec::new();
        for (key, a) in &before.cells {
            match after.cells.get(key) {
                Some(b) => cells.push(CellDiff {
                    workload: key.0.clone(),
                    config: key.1.clone(),
                    cycles: diff_maps(&a.cycles, &b.cycles),
                    engine: diff_maps(&a.engine, &b.engine),
                    functions: diff_maps(
                        &a.functions
                            .iter()
                            .map(|(k, v)| (k.clone(), v.overhead))
                            .collect(),
                        &b.functions
                            .iter()
                            .map(|(k, v)| (k.clone(), v.overhead))
                            .collect(),
                    ),
                    sites: diff_maps(
                        &a.sites.iter().map(|(k, v)| (k.clone(), v.cycles)).collect(),
                        &b.sites.iter().map(|(k, v)| (k.clone(), v.cycles)).collect(),
                    ),
                    edges: diff_maps(&a.edges, &b.edges),
                }),
                None => only_before.push(key.clone()),
            }
        }
        for key in after.cells.keys() {
            if !before.cells.contains_key(key) {
                only_after.push(key.clone());
            }
        }
        BundleDiff {
            cells,
            only_before,
            only_after,
        }
    }

    /// The worst (largest) per-cell `total`-cycles ratio `after /
    /// before` — the perf gate's pass/fail number. 1.0 when there are
    /// no comparable cells.
    pub fn worst_total_ratio(&self) -> f64 {
        let mut worst: Option<f64> = None;
        for c in &self.cells {
            let r = c.total().ratio();
            worst = Some(worst.map_or(r, |w| w.max(r)));
        }
        worst.unwrap_or(1.0)
    }

    /// Sum of `total` cycles across comparable cells, as a delta.
    pub fn grand_total(&self) -> Delta {
        let mut d = Delta::default();
        for c in &self.cells {
            let t = c.total();
            d.before = d.before.saturating_add(t.before);
            d.after = d.after.saturating_add(t.after);
        }
        d
    }

    /// Renders the human-readable diff report. `top` bounds each ranked
    /// list; cells whose totals are byte-identical are summarized in
    /// one line.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        let g = self.grand_total();
        let _ = writeln!(
            out,
            "== profile diff: {} cell(s), total cycles {} -> {} ({:+.2}%) ==",
            self.cells.len(),
            g.before,
            g.after,
            g.pct()
        );
        for key in &self.only_before {
            let _ = writeln!(out, "  only in baseline: {}/{}", key.0, key.1);
        }
        for key in &self.only_after {
            let _ = writeln!(out, "  only in candidate: {}/{}", key.0, key.1);
        }
        let mut unchanged = 0usize;
        for c in &self.cells {
            if c.cycles.values().all(|d| !d.is_changed())
                && c.engine.values().all(|d| !d.is_changed())
            {
                unchanged += 1;
                continue;
            }
            let t = c.total();
            let _ = writeln!(
                out,
                "-- {}/{}: total {} -> {} ({:+.2}%) --",
                c.workload,
                c.config,
                t.before,
                t.after,
                t.pct()
            );
            for (class, d) in &c.cycles {
                if class != "total" && d.is_changed() {
                    let _ = writeln!(
                        out,
                        "  cycles.{class:<18} {} -> {} ({:+.2}%)",
                        d.before,
                        d.after,
                        d.pct()
                    );
                }
            }
            for (counter, d) in &c.engine {
                if d.is_changed() {
                    let _ = writeln!(out, "  engine.{counter:<18} {} -> {}", d.before, d.after);
                }
            }
            for (title, rows) in [
                ("top regressing sites", c.regressing_sites()),
                ("top improving sites", c.improving_sites()),
            ] {
                if rows.is_empty() {
                    continue;
                }
                let _ = writeln!(out, "  {title}:");
                for ((tool, kind, module, function), d) in rows.into_iter().take(top) {
                    let _ = writeln!(
                        out,
                        "    {tool}:{kind} {module}!{function}  {} -> {} ({:+.2}%)",
                        d.before,
                        d.after,
                        d.pct()
                    );
                }
            }
            for (title, rows) in [
                ("top regressing functions", c.regressing_functions()),
                ("top improving functions", c.improving_functions()),
            ] {
                if rows.is_empty() {
                    continue;
                }
                let _ = writeln!(out, "  {title} (overhead cycles):");
                for ((module, function), d) in rows.into_iter().take(top) {
                    let _ = writeln!(
                        out,
                        "    {module}!{function}  {} -> {} ({:+.2}%)",
                        d.before,
                        d.after,
                        d.pct()
                    );
                }
            }
        }
        if unchanged > 0 {
            let _ = writeln!(out, "-- {unchanged} cell(s) byte-identical --");
        }
        out
    }
}

/// Parses two serialized bundles and renders their diff — the one-call
/// entry point behind `janitizer-eval explain diff`.
pub fn diff_bundles(before: &str, after: &str, top: usize) -> Result<(BundleDiff, String), String> {
    let a = BundleSummary::parse(before).map_err(|e| format!("baseline: {e}"))?;
    let b = BundleSummary::parse(after).map_err(|e| format!("candidate: {e}"))?;
    let d = BundleDiff::compute(&a, &b);
    let report = d.render(top);
    Ok((d, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bundle(dispatch: u64, site_cycles: u64) -> String {
        format!(
            r#"{{
  "schema": "janitizer.profile/v2",
  "target": "fig14",
  "top": 5,
  "cells": [
    {{
      "workload": "GemsFDTD",
      "config": "jasan-hybrid",
      "profile": {{
        "schema": "janitizer.profile/v2",
        "tool": "jasan",
        "exe": "GemsFDTD",
        "runs": 1,
        "cycles": {{"total": {total}, "guest": 100, "dispatch": {dispatch}}},
        "engine": {{"blocks_translated": 4}},
        "functions": [
          {{"module": "m", "function": "f", "execs": 2, "guest_cycles": 100,
            "overhead_cycles": {dispatch}}}
        ],
        "sites": [
          {{"tool": "jasan", "kind": "shadow-check", "pc": 4096, "module": "m",
            "function": "f", "execs": 8, "cycles": {site_cycles}, "elided": 0}},
          {{"tool": "jasan", "kind": "shadow-check", "pc": 8192, "module": "m",
            "function": "f", "execs": 8, "cycles": {site_cycles}, "elided": 0}}
        ],
        "edges": [
          {{"from": 1, "to": 2, "kind": "fall", "count": 9,
            "from_sym": "m!f", "to_sym": "m!g"}}
        ]
      }}
    }}
  ]
}}"#,
            total = 100 + dispatch,
            dispatch = dispatch,
            site_cycles = site_cycles,
        )
    }

    #[test]
    fn parse_aggregates_sites_over_pc() {
        let b = BundleSummary::parse(&bundle(1408, 50)).unwrap();
        assert_eq!(b.target, "fig14");
        let cell = &b.cells[&("GemsFDTD".into(), "jasan-hybrid".into())];
        assert_eq!(cell.cycles["dispatch"], 1408);
        // Two pc rows, one stable site identity.
        assert_eq!(cell.sites.len(), 1);
        let site = &cell.sites[&(
            "jasan".into(),
            "shadow-check".into(),
            "m".into(),
            "f".into(),
        )];
        assert_eq!(site.cycles, 100);
        assert_eq!(site.execs, 16);
    }

    #[test]
    fn diff_ranks_improvements_and_gates() {
        let (d, report) = diff_bundles(&bundle(1408, 50), &bundle(814, 40), 5).unwrap();
        assert_eq!(d.cells.len(), 1);
        let cell = &d.cells[0];
        let dispatch = cell.cycles["dispatch"];
        assert_eq!((dispatch.before, dispatch.after), (1408, 814));
        assert!(dispatch.signed() < 0);
        let improving = cell.improving_sites();
        assert_eq!(improving.len(), 1);
        assert_eq!(improving[0].1.before, 100);
        assert!(cell.regressing_sites().is_empty());
        assert!(d.worst_total_ratio() < 1.0);
        assert!(report.contains("1408 -> 814"), "report:\n{report}");
        assert!(report.contains("top improving sites"));
        // The improved run passes any gate >= its ratio; the reverse
        // diff (a regression) trips a 5% gate.
        let (rev, _) = diff_bundles(&bundle(814, 40), &bundle(1408, 50), 5).unwrap();
        assert!(rev.worst_total_ratio() > 1.05);
    }

    #[test]
    fn diff_tolerates_missing_keys_and_cells() {
        // Baseline lacks engine counters a newer build emits.
        let old = bundle(1408, 50).replace(r#""blocks_translated": 4"#, "");
        let (d, _) = diff_bundles(&old, &bundle(814, 40), 5).unwrap();
        let cell = &d.cells[0];
        assert_eq!(cell.engine["blocks_translated"].before, 0);
        assert_eq!(cell.engine["blocks_translated"].after, 4);
        // Unmatched cells are reported, not diffed.
        let other = bundle(814, 40).replace("GemsFDTD", "astar");
        let (d2, report) = diff_bundles(&bundle(1408, 50), &other, 5).unwrap();
        assert!(d2.cells.is_empty());
        assert_eq!(d2.only_before.len(), 1);
        assert_eq!(d2.only_after.len(), 1);
        assert!(report.contains("only in baseline: GemsFDTD/jasan-hybrid"));
        assert_eq!(d2.worst_total_ratio(), 1.0);
    }

    #[test]
    fn identical_bundles_render_as_unchanged() {
        let (d, report) = diff_bundles(&bundle(814, 40), &bundle(814, 40), 5).unwrap();
        assert_eq!(d.worst_total_ratio(), 1.0);
        assert_eq!(d.grand_total().signed(), 0);
        assert!(report.contains("1 cell(s) byte-identical"), "{report}");
    }

    #[test]
    fn rejects_non_profile_documents() {
        assert!(BundleSummary::parse("{\"schema\": \"janitizer.flight/v1\"}").is_err());
        assert!(BundleSummary::parse("not json").is_err());
    }
}
