//! Exporters: JSON histograms and OpenMetrics-style text.

use crate::json::Json;
use crate::registry::{Histogram, Registry};
use std::fmt::Write as _;

/// Renders one histogram as a JSON object (count/sum/min/max/mean plus
/// the non-empty power-of-two buckets keyed by inclusive lower bound).
pub fn histogram_json(h: &Histogram) -> Json {
    // Only non-empty buckets, labelled by their inclusive lower bound.
    let buckets = Json::Obj(
        h.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| (format!("{}", Histogram::bucket_lo(i)), Json::U64(*n)))
            .collect(),
    );
    Json::obj([
        ("count", Json::U64(h.count)),
        ("sum", Json::U64(h.sum)),
        ("min", Json::U64(h.min)),
        ("max", Json::U64(h.max)),
        ("mean", Json::F64(h.mean())),
        ("buckets_pow2", buckets),
    ])
}

/// Rewrites a metric name into the OpenMetrics charset:
/// `[a-zA-Z0-9_:]`, with dots and every other foreign byte mapped to
/// underscores.
fn openmetrics_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Renders counters and histograms as a deterministic OpenMetrics-style
/// text exposition: counters become `<name>_total`, and power-of-two
/// histograms cumulative
/// `_bucket{le="..."}` series (each `le` is a bucket's inclusive upper
/// bound, `2^i - 1`) plus `_sum`/`_count` and a terminal `+Inf` bucket.
/// BTreeMap iteration keeps the output byte-stable for a given registry,
/// so snapshots can be diffed and golden-tested. Terminated by `# EOF`.
pub fn to_openmetrics(reg: &Registry) -> String {
    let mut out = String::new();
    for (name, v) in &reg.counters {
        let n = openmetrics_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n}_total {v}");
    }
    for (name, h) in &reg.histograms {
        let n = openmetrics_name(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cumulative = 0u64;
        let last = h.buckets.iter().rposition(|&b| b > 0).unwrap_or(0);
        for (i, b) in h.buckets.iter().enumerate().take(last + 1) {
            cumulative += b;
            // Inclusive upper bound of bucket i: 0 for the zero bucket,
            // 2^i - 1 otherwise.
            let le = if i == 0 { 0 } else { (1u128 << i) - 1 };
            let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{n}_sum {}", h.sum);
        let _ = writeln!(out, "{n}_count {}", h.count);
    }
    out.push_str("# EOF\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden-file check: the OpenMetrics exposition format is a public
    /// contract (scrapers parse it line by line).
    #[test]
    fn openmetrics_golden() {
        let mut r = Registry::new();
        r.counter_add("serve.requests", 7);
        r.counter_add("serve.store-failures", 2);
        r.histogram_record("serve.analyze_units", 0);
        r.histogram_record("serve.analyze_units", 5);
        let golden = "\
# TYPE serve_requests counter
serve_requests_total 7
# TYPE serve_store_failures counter
serve_store_failures_total 2
# TYPE serve_analyze_units histogram
serve_analyze_units_bucket{le=\"0\"} 1
serve_analyze_units_bucket{le=\"1\"} 1
serve_analyze_units_bucket{le=\"3\"} 1
serve_analyze_units_bucket{le=\"7\"} 2
serve_analyze_units_bucket{le=\"+Inf\"} 2
serve_analyze_units_sum 5
serve_analyze_units_count 2
# EOF
";
        assert_eq!(to_openmetrics(&r), golden);
        // Deterministic on repeat.
        assert_eq!(to_openmetrics(&r), to_openmetrics(&r));
    }
}
