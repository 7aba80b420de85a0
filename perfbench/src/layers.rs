//! The per-layer metrics of a traced run, derived from the recorded
//! spans and counts. Every workload prints every metric; a layer a
//! workload does not reach reads 0.

use crate::stats::{median, ratio};
use crate::trace::Recorder;
use crate::{metric, out_dir, Metric, Ops, Report};

/// Where a per-layer metric comes from.
enum Src {
    /// Self time of the named spans, per traced op.
    SelfMs(&'static str),
    /// Total time of the named spans (children included), per traced op.
    TotalMs(&'static str),
    /// Median duration of one span of that name.
    MedianMs(&'static str),
    /// A count, per traced op.
    PerOp(&'static str),
    /// One count divided by another.
    Ratio(&'static str, &'static str),
    /// A value recorded once, reported as is.
    Value(&'static str),
}

use Src::*;

/// `(metric, unit, source)`, in output order.
const PER_LAYER: &[(&str, &str, Src)] = &[
    ("minic.compile_ms", "ms", SelfMs("minic.compile")),
    ("asm.assemble_ms", "ms", SelfMs("asm.assemble")),
    ("link.link_ms", "ms", SelfMs("link.link")),
    (
        "analysis.disasm_cfg_ms",
        "ms",
        SelfMs("analysis.disasm_cfg"),
    ),
    ("analysis.liveness_ms", "ms", SelfMs("analysis.liveness")),
    ("analysis.canaries_ms", "ms", SelfMs("analysis.canaries")),
    ("analysis.loops_ms", "ms", SelfMs("analysis.loops")),
    ("analysis.codeptr_ms", "ms", SelfMs("analysis.codeptr")),
    ("analysis.blocks", "count", PerOp("analysis.blocks")),
    (
        "analysis.degraded_regions",
        "count",
        PerOp("analysis.degraded_regions"),
    ),
    ("jasan.static_pass_ms", "ms", SelfMs("jasan.static_pass")),
    ("jcfi.static_pass_ms", "ms", SelfMs("jcfi.static_pass")),
    ("jasan.rules", "count", PerOp("jasan.rules")),
    ("jcfi.rules", "count", PerOp("jcfi.rules")),
    ("rules.encode_ms", "ms", SelfMs("rules.encode")),
    ("rules.decode_ms", "ms", SelfMs("rules.decode")),
    ("rules.bytes", "bytes", PerOp("rules.bytes")),
    ("store.save_ms", "ms", SelfMs("store.save")),
    ("store.load_ms", "ms", SelfMs("store.load")),
    ("store.hits", "count", PerOp("store.hits")),
    ("store.misses", "count", PerOp("store.misses")),
    ("store.corrupt", "count", PerOp("store.corrupt")),
    (
        "core.serve_request_ms.analyzed",
        "ms",
        MedianMs("core.serve_request.analyzed"),
    ),
    (
        "core.serve_request_ms.store",
        "ms",
        MedianMs("core.serve_request.store"),
    ),
    (
        "core.serve_request_ms.memory",
        "ms",
        MedianMs("core.serve_request.memory"),
    ),
    (
        "core.rule_cache_hit_ratio",
        "ratio",
        Ratio("core.rule_cache_hits", "core.rule_cache_lookups"),
    ),
    (
        "core.instrument_block_ms",
        "ms",
        SelfMs("core.instrument_block"),
    ),
    (
        "core.on_module_load_ms",
        "ms",
        SelfMs("core.on_module_load"),
    ),
    ("jasan.on_start_ms", "ms", SelfMs("jasan.on_start")),
    (
        "core.static_block_share",
        "ratio",
        Ratio("core.static_blocks", "core.classified_blocks"),
    ),
    ("vm.load_process_ms", "ms", SelfMs("vm.load_process")),
    ("vm.native_mips", "MIPS", Value("vm.native_mips")),
    ("dbt.engine_run_ms", "ms", TotalMs("dbt.engine_run")),
    ("dbt.engine_self_ms", "ms", SelfMs("dbt.engine_run")),
    ("dbt.teardown_ms", "ms", SelfMs("dbt.teardown")),
    (
        "dbt.blocks_translated",
        "count",
        PerOp("dbt.blocks_translated"),
    ),
    ("dbt.guest_insns", "count", PerOp("dbt.guest_insns")),
    ("dbt.probe_runs", "count", PerOp("dbt.probe_runs")),
    (
        "dbt.chained_transfers",
        "count",
        PerOp("dbt.chained_transfers"),
    ),
    (
        "dbt.superblocks_formed",
        "count",
        PerOp("dbt.superblocks_formed"),
    ),
    ("dbt.trace_exits", "count", PerOp("dbt.trace_exits")),
    ("dbt.checks_fused", "count", PerOp("dbt.checks_fused")),
    ("dbt.checks_hoisted", "count", PerOp("dbt.checks_hoisted")),
    (
        "dbt.chain_hit_ratio",
        "ratio",
        Ratio("dbt.indirect_chain_hits", "dbt.indirect_transfers"),
    ),
    (
        "dbt.fused_ratio",
        "ratio",
        Ratio("dbt.checks_fused", "dbt.check_execs"),
    ),
    (
        "dbt.translation_cycles",
        "ratio",
        Ratio("dbt.translation_cycles", "dbt.total_cycles"),
    ),
    (
        "dbt.dispatch_cycles",
        "ratio",
        Ratio("dbt.dispatch_cycles", "dbt.total_cycles"),
    ),
    (
        "dbt.probe_cycles",
        "ratio",
        Ratio("dbt.probe_cycles", "dbt.total_cycles"),
    ),
    ("dbt.null_client_ms", "ms", TotalMs("dbt.null_client")),
    (
        "jasan.probe_overhead_ms",
        "ms",
        Ratio("jasan.probe_overhead_ms", "jasan.ops"),
    ),
    (
        "jcfi.probe_overhead_ms",
        "ms",
        Ratio("jcfi.probe_overhead_ms", "jcfi.ops"),
    ),
];

/// The report of a traced run: every per-layer metric, plus the traced
/// and untraced op medians of the same run and their difference, the
/// tracing overhead. Also prints the self-time table to standard error
/// and writes the spans to `.bench_out/trace-<workload>-<seed>.json`.
pub fn traced_report(workload: &str, seed: u64, rec: &Recorder, ops: &Ops) -> Report {
    let n = ops.traced_ms.len().max(1) as f64;
    let agg = rec.aggregate();
    let ms = |name: &str, f: fn(&crate::trace::Agg) -> u64| {
        agg.get(name).map_or(0.0, |a| f(a) as f64 / 1e6 / n)
    };
    let mut metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, unit, src)| {
            let v = match src {
                SelfMs(s) => ms(s, |a| a.self_ns),
                TotalMs(s) => ms(s, |a| a.total_ns),
                MedianMs(s) => median(&rec.durations_ms(s)),
                PerOp(s) => rec.sum(s) / n,
                Ratio(a, b) => ratio(rec.sum(a), rec.sum(b)),
                Value(s) => rec.sum(s),
            };
            metric(name, v, unit)
        })
        .collect();
    let traced = median(&ops.traced_ms);
    let untraced = median(&ops.ms);
    metrics.push(metric("bench.traced_op_ms_p50", traced, "ms"));
    metrics.push(metric("bench.untraced_op_ms_p50", untraced, "ms"));
    metrics.push(metric("bench.trace_overhead_ms", traced - untraced, "ms"));

    eprintln!(
        "{:<32} {:>8} {:>12} {:>12}",
        "span", "count", "total ms/op", "self ms/op"
    );
    for (name, a) in &agg {
        eprintln!(
            "{name:<32} {:>8} {:>12.4} {:>12.4}",
            a.count,
            a.total_ns as f64 / 1e6 / n,
            a.self_ns as f64 / 1e6 / n
        );
    }
    let path = out_dir().join(format!("trace-{workload}-{seed}.json"));
    if let Err(e) = std::fs::write(&path, rec.spans_json()) {
        eprintln!("could not write {}: {e}", path.display());
    }
    Report {
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
    }
}
