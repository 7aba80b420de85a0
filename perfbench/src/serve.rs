//! `analyze-serve`: the offline analyze-once / serve-many side, with no
//! guest execution. The corpus is every module of the world plus the
//! four hostile images, each paired with JASan and JCFI. Each round
//! starts from an empty store directory and has three phases, each in
//! its own seeded key order:
//!
//! 1. cold — every key is analyzed, encoded and saved;
//! 2. restart — a fresh cache over a reopened store loads every key;
//! 3. hot — every key is served from memory.
//!
//! An op is one cold-phase request.

use crate::layers::traced_report;
use crate::stats::{median, ratio, shuffle};
use crate::{metric, out_dir, repeat_setup, run_passes, trace, Config, Ops, Report};
use janitizer_analysis as analysis;
use janitizer_core::{
    analyze_statically, AnalysisService, FillSource, RuleCache, SecurityPlugin, ServiceOptions,
    SplitMix64, StaticContext,
};
use janitizer_jasan::Jasan;
use janitizer_jcfi::Jcfi;
use janitizer_obj::Image;
use janitizer_rules::RuleFile;
use janitizer_store::{RuleStore, StoreKey};
use janitizer_workloads::{build_world, hostile_suite, BuildOptions};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One module of the corpus.
struct Module {
    image: Arc<Image>,
    code_kib: f64,
    /// Instructions the static analysis recovers.
    insns: u64,
}

/// One (module, plugin) key and its reference rule bytes.
struct Key {
    module: usize,
    plugin: usize,
    reference: Vec<u8>,
}

/// Which phase a request belongs to, and the fill tier it must hit.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Cold,
    Restart,
    Hot,
}

impl Phase {
    fn span(self) -> &'static str {
        match self {
            Phase::Cold => "core.serve_request.analyzed",
            Phase::Restart => "core.serve_request.store",
            Phase::Hot => "core.serve_request.memory",
        }
    }

    fn expected(self, source: Option<FillSource>) -> bool {
        matches!(
            (self, source),
            (
                Phase::Cold,
                Some(FillSource::Analyzed {
                    store_failed: false
                })
            ) | (Phase::Restart, Some(FillSource::Store))
                | (Phase::Hot, Some(FillSource::Memory))
        )
    }
}

fn plugins() -> [Box<dyn SecurityPlugin>; 2] {
    [Box::new(Jasan::hybrid()), Box::new(Jcfi::hybrid())]
}

const PLUGIN_NAMES: [&str; 2] = ["jasan", "jcfi"];

/// Latency samples reserved per kind: above the cold requests of a
/// 60 s run.
const SAMPLES: usize = 1 << 20;

/// Builds the corpus and each key's reference rules from a fresh,
/// storeless `analyze_statically`.
fn setup() -> (Vec<Module>, Vec<Key>) {
    let world = build_world(&BuildOptions::default());
    let mut names: Vec<&str> = world.store.names();
    names.sort_unstable();
    let mut images: Vec<Arc<Image>> = names
        .iter()
        .map(|n| world.store.get(n).expect("listed module"))
        .collect();
    images.extend(hostile_suite().into_iter().map(|h| Arc::new(h.image)));
    let plugins = plugins();
    let mut modules = Vec::new();
    let mut keys = Vec::new();
    for image in images {
        let cfg = StaticContext::analyze(&image).cfg;
        let insns = cfg.blocks.values().map(|b| b.insns.len() as u64).sum();
        for (p, plugin) in plugins.iter().enumerate() {
            keys.push(Key {
                module: modules.len(),
                plugin: p,
                reference: analyze_statically(&image, plugin.as_ref()).to_bytes(),
            });
        }
        modules.push(Module {
            code_kib: image.code_bytes() as f64 / 1024.0,
            insns,
            image,
        });
    }
    (modules, keys)
}

/// The service phases' shared state within one round.
struct Round<'a> {
    modules: &'a [Module],
    keys: &'a [Key],
    plugins: &'a [Box<dyn SecurityPlugin>; 2],
    traced: bool,
    /// Traced runs only: each module's analysis context, rebuilt phase by
    /// phase next to the service's own analysis.
    contexts: HashMap<usize, StaticContext>,
    /// Encoded cold replies not yet saved, by key.
    unsaved: Vec<(usize, Vec<u8>)>,
}

impl Round<'_> {
    fn store_key(&self, k: usize) -> StoreKey {
        let key = &self.keys[k];
        let image = &self.modules[key.module].image;
        StoreKey {
            module: image.name.clone(),
            fingerprint: image.fingerprint(),
            plugin: self.plugins[key.plugin].cache_key(),
            noop: true,
        }
    }

    /// Saves the encoded cold replies to `store`.
    fn save(&mut self, store: &RuleStore) {
        for (k, bytes) in std::mem::take(&mut self.unsaved) {
            let skey = self.store_key(k);
            trace::span("store.save", || store.save(&skey, &bytes)).expect("store save");
        }
    }

    /// Serves one key through `svc` in `phase`; returns the request's
    /// latency in ms and whether the reply checked out. A cold reply is
    /// then encoded, outside the request's latency, for [`Round::save`].
    fn request(
        &mut self,
        svc: &AnalysisService,
        store: &RuleStore,
        phase: Phase,
        k: usize,
    ) -> (f64, bool) {
        let key = &self.keys[k];
        let image = &self.modules[key.module].image;
        let plugin = self.plugins[key.plugin].as_ref();
        let before = store.stats();
        let cache_before = svc.cache().stats();
        let t = Instant::now();
        let reply = trace::span(phase.span(), || svc.request(image, plugin, true));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let bytes = reply.rules.as_ref().map(|f| match phase {
            Phase::Cold => trace::span("rules.encode", || f.to_bytes()),
            _ => f.to_bytes(),
        });
        let ok = reply.degradation.is_none()
            && phase.expected(reply.source)
            && bytes.as_ref() == Some(&key.reference);
        if let (Phase::Cold, Some(b)) = (phase, bytes) {
            trace::add("rules.bytes", b.len() as f64);
            self.unsaved.push((k, b));
        }
        if !ok {
            eprintln!(
                "analyze-serve: {} / {} failed its check",
                image.name, PLUGIN_NAMES[key.plugin]
            );
        }
        if self.traced {
            let (after, cache_after) = (store.stats(), svc.cache().stats());
            trace::add("store.hits", (after.hits - before.hits) as f64);
            trace::add("store.misses", (after.misses - before.misses) as f64);
            trace::add("store.corrupt", (after.corrupt - before.corrupt) as f64);
            trace::add(
                "core.rule_cache_hits",
                (cache_after.hits - cache_before.hits) as f64,
            );
            trace::add(
                "core.rule_cache_lookups",
                (cache_after.hits + cache_after.misses - cache_before.hits - cache_before.misses)
                    as f64,
            );
            self.layer_breakdown(store, phase, k);
        }
        (ms, ok)
    }

    /// The layers inside a request, which the service runs as one call,
    /// timed separately through the same public functions: for a cold
    /// request the analysis phases in `StaticContext::analyze` order (once
    /// per module, as the cache shares them across plugins) and the
    /// plugin's static pass; for a restart request the store load and
    /// rule decoding.
    fn layer_breakdown(&mut self, store: &RuleStore, phase: Phase, k: usize) {
        let key = &self.keys[k];
        let image = &self.modules[key.module].image;
        match phase {
            Phase::Cold => {
                let ctx = self
                    .contexts
                    .entry(key.module)
                    .or_insert_with(|| analyze_in_phases(image));
                let plugin = self.plugins[key.plugin].as_ref();
                let (span, count) = [
                    ("jasan.static_pass", "jasan.rules"),
                    ("jcfi.static_pass", "jcfi.rules"),
                ][key.plugin];
                let rules = trace::span(span, || plugin.static_pass(image, ctx));
                trace::add(count, rules.len() as f64);
            }
            Phase::Restart => {
                let skey = self.store_key(k);
                let loaded = trace::span("store.load", || store.load(&skey))
                    .expect("store load")
                    .expect("entry was saved in the cold phase");
                trace::span("rules.decode", || RuleFile::from_bytes(&loaded))
                    .expect("stored rules decode");
            }
            Phase::Hot => {}
        }
    }
}

/// The generic analyses of `StaticContext::analyze`, one span per phase.
fn analyze_in_phases(image: &Image) -> StaticContext {
    let d = trace::span("analysis.disasm_cfg", || {
        analysis::disasm_backend().analyze(image)
    });
    trace::add("analysis.blocks", d.cfg.blocks.len() as f64);
    trace::add("analysis.degraded_regions", d.degraded.len() as f64);
    let liveness = trace::span("analysis.liveness", || analysis::compute_liveness(&d.cfg));
    let canaries = trace::span("analysis.canaries", || analysis::find_canary_sites(&d.cfg));
    let (loops, invariants) = trace::span("analysis.loops", || {
        let loops = analysis::find_loops(&d.cfg);
        let inv = analysis::loop_invariant_accesses(&d.cfg, &loops);
        (loops, inv)
    });
    let scan = trace::span("analysis.codeptr", || {
        analysis::scan_code_pointers(image, &d.cfg)
    });
    StaticContext {
        cfg: d.cfg,
        liveness,
        canaries,
        loops,
        invariants,
        scan,
        tiers: d.tiers,
        degraded_regions: d.degraded,
        backend: d.backend,
    }
}

/// Empties the store directory's files, keeping its directories, so
/// the next round starts with an empty store.
fn fresh_dir(dir: &Path) {
    for sub in ["entries", "quarantine"] {
        let Ok(it) = std::fs::read_dir(dir.join(sub)) else {
            continue;
        };
        for e in it {
            std::fs::remove_file(e.expect("list the store").path()).expect("clear the store");
        }
    }
}

pub fn run(cfg: &Config) -> Report {
    let ((modules, keys), setup_s) = repeat_setup(cfg, setup);
    let mut keys = keys;
    if cfg.sabotage {
        keys[0].reference.push(0);
    }
    let plugins = plugins();
    let dir: PathBuf = out_dir().join("serve-store");
    let mut rng = SplitMix64::new(cfg.seed);
    // Room for every sample up front: growing the vectors by doubling
    // would make peak RSS step with the run's throughput.
    let mut ops = Ops::with_capacity(SAMPLES);
    let mut restart_ms = Vec::with_capacity(SAMPLES);
    let (mut cold_s, mut rounds) = (0.0, 0u64);

    let rec = run_passes(cfg, |traced| {
        let mut round = Round {
            modules: &modules,
            keys: &keys,
            plugins: &plugins,
            traced,
            contexts: HashMap::new(),
            unsaved: Vec::new(),
        };
        fresh_dir(&dir);
        let mut phase_order = || {
            let mut o: Vec<usize> = (0..keys.len()).collect();
            shuffle(&mut rng, &mut o);
            o
        };
        let (cold, restart, hot) = (phase_order(), phase_order(), phase_order());

        // Cold: a storeless service analyzes every key; the replies are
        // then saved.
        let store = RuleStore::open(&dir).expect("open a fresh store");
        let svc = AnalysisService::new(Arc::new(RuleCache::new()), ServiceOptions::default());
        for &k in &cold {
            trace::set_op(ops.attempted);
            let (ms, ok) = round.request(&svc, &store, Phase::Cold, k);
            ops.record(ms, traced, ok);
            if !traced {
                cold_s += ms / 1e3;
            }
        }
        round.save(&store);
        drop((svc, store));

        // Restart and hot: a fresh service over the reopened store.
        let store = Arc::new(RuleStore::open(&dir).expect("reopen the store"));
        let svc = AnalysisService::new(
            Arc::new(RuleCache::with_store(Arc::clone(&store))),
            ServiceOptions::default(),
        );
        for (phase, order) in [(Phase::Restart, &restart), (Phase::Hot, &hot)] {
            for &k in order {
                let (ms, ok) = round.request(&svc, &store, phase, k);
                ops.count(ok);
                if phase == Phase::Restart && !traced {
                    restart_ms.push(ms);
                }
            }
        }
        if !traced {
            rounds += 1;
        }
    });
    std::fs::remove_dir_all(&dir).expect("remove the store directory");
    if let Some(rec) = rec {
        return traced_report("analyze-serve", cfg.seed, &rec, &ops);
    }

    let kib: f64 = modules.iter().map(|m| m.code_kib).sum();
    let insns: u64 = modules.iter().map(|m| m.insns).sum();
    let mut metrics = ops.common_metrics(setup_s);
    metrics.extend([
        // Guest instructions the cold phase analyzes per second; this
        // workload executes none.
        metric(
            "guest_mips",
            ratio(rounds as f64 * insns as f64, cold_s * 1e6),
            "MIPS",
        ),
        // Defined over the SPEC-shaped programs, which this workload
        // does not run: the empty geomean.
        metric("modeled_slowdown_geomean", 1.0, "x"),
        metric("restart_ms_p50", median(&restart_ms), "ms"),
        metric(
            "analyze_kb_per_s",
            ratio(rounds as f64 * kib, cold_s),
            "KiB/s",
        ),
    ]);
    Report {
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
    }
}
