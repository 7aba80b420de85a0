//! Persistent-store robustness invariants, end to end:
//!
//! 1. Exactly-once analysis: N threads warming one cold store perform
//!    the expensive static analysis a single time and all observe the
//!    same rule bytes.
//! 2. Golden byte-parity: rules served from a warm store, from a store
//!    recovered after a torn write, and from a plain in-process analysis
//!    are byte-identical.

use janitizer_core::{analyze_statically, FillSource, RuleCache, SecurityPlugin};
use janitizer_eval::build_eval_world;
use janitizer_jasan::Jasan;
use janitizer_store::{scratch_dir, FailurePlan, RetryPolicy, RuleStore, StoreKey};
use janitizer_telemetry::flight::Flight;
use std::sync::Arc;

fn open_store(dir: &std::path::Path) -> Arc<RuleStore> {
    Arc::new(RuleStore::open(dir).expect("open scratch store"))
}

#[test]
fn cold_store_warmed_by_many_threads_analyzes_exactly_once() {
    let ew = build_eval_world(0.05);
    let dir = scratch_dir("eval-warm");
    let store = open_store(&dir);
    let cache = Arc::new(RuleCache::with_store(Arc::clone(&store)));

    let module = ew.world.store.names()[0].to_string();
    let image = ew.world.store.get(&module).expect("listed module");

    const THREADS: usize = 8;
    let mut all_bytes: Vec<Vec<u8>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = &cache;
                let image = &image;
                scope.spawn(move || {
                    // Plugins are not Send; each thread builds its own.
                    let plugin = Jasan::hybrid();
                    cache.get_or_analyze(image, &plugin, true).to_bytes()
                })
            })
            .collect();
        for h in handles {
            all_bytes.push(h.join().expect("warm thread"));
        }
    });

    let plugin_key = Jasan::hybrid().cache_key();
    assert_eq!(
        cache.analysis_count(&module, &plugin_key),
        1,
        "cold-store warm-up must analyze exactly once"
    );
    let first = &all_bytes[0];
    for (i, b) in all_bytes.iter().enumerate() {
        assert_eq!(b, first, "thread {i} observed different rule bytes");
    }

    // Exactly one entry was committed, and a fresh cache over the same
    // directory is served from disk, not by re-analysis.
    assert_eq!(store.entry_count(), 1);
    let store2 = open_store(&dir);
    let cache2 = RuleCache::with_store(Arc::clone(&store2));
    let plugin = Jasan::hybrid();
    let (served, source) = cache2.get_or_analyze_traced(&image, &plugin, true);
    assert!(
        matches!(source, FillSource::Store),
        "expected store hit, got {source:?}"
    );
    assert_eq!(&served.to_bytes(), first);
    assert_eq!(store2.stats().hits, 1);
    assert_eq!(cache2.analysis_count(&module, &plugin_key), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn golden_byte_parity_across_store_tiers() {
    let ew = build_eval_world(0.05);
    let dir = scratch_dir("eval-parity");

    let modules: Vec<String> = ew
        .world
        .store
        .names()
        .into_iter()
        .map(str::to_string)
        .collect();

    // Tier 0: plain in-process analysis — the golden bytes.
    let plugin = Jasan::hybrid();
    let golden: Vec<(String, Vec<u8>)> = modules
        .iter()
        .map(|m| {
            let image = ew.world.store.get(m).expect("listed module");
            (m.clone(), analyze_statically(&image, &plugin).to_bytes())
        })
        .collect();

    // Tier 1: analyze-and-persist through a cold store.
    {
        let store = open_store(&dir);
        let cache = RuleCache::with_store(Arc::clone(&store));
        for (m, want) in &golden {
            let image = ew.world.store.get(m).expect("listed module");
            let (file, source) = cache.get_or_analyze_traced(&image, &plugin, true);
            assert!(matches!(
                source,
                FillSource::Analyzed {
                    store_failed: false
                }
            ));
            assert_eq!(&file.to_bytes(), want, "{m}: cold fill diverged");
        }
    }

    // Tier 2: a warm store serves every module byte-identically.
    {
        let store = open_store(&dir);
        let cache = RuleCache::with_store(Arc::clone(&store));
        for (m, want) in &golden {
            let image = ew.world.store.get(m).expect("listed module");
            let (file, source) = cache.get_or_analyze_traced(&image, &plugin, true);
            assert!(
                matches!(source, FillSource::Store),
                "{m}: expected store hit"
            );
            assert_eq!(&file.to_bytes(), want, "{m}: warm store diverged");
        }
        assert_eq!(store.stats().hits as usize, golden.len());
    }

    // Tier 3: tear one committed entry in half (a simulated mid-write
    // crash), then confirm recovery quarantines it and the re-analysis
    // still lands on the golden bytes.
    let torn_module = golden[0].0.clone();
    {
        let store = open_store(&dir);
        let image = ew.world.store.get(&torn_module).expect("listed module");
        let key = StoreKey {
            module: torn_module.clone(),
            fingerprint: image.fingerprint(),
            plugin: plugin.cache_key(),
            noop: true,
        };
        let path = store.entries_dir().join(key.entry_name());
        let bytes = std::fs::read(&path).expect("committed entry");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("tear entry");
    }
    let flight_dir = scratch_dir("eval-parity-flight");
    {
        let store = Arc::new(
            RuleStore::open_with(
                &dir,
                RetryPolicy::default(),
                FailurePlan::default(),
                Flight::armed(Some(flight_dir.clone())),
            )
            .expect("open scratch store"),
        );
        let cache = RuleCache::with_store(Arc::clone(&store));
        let image = ew.world.store.get(&torn_module).expect("listed module");
        let (file, source) = cache.get_or_analyze_traced(&image, &plugin, true);
        assert!(
            matches!(
                source,
                FillSource::Analyzed {
                    store_failed: false
                }
            ),
            "torn entry must be quarantined and re-analyzed, got {source:?}"
        );
        assert_eq!(
            &file.to_bytes(),
            &golden[0].1,
            "post-recovery bytes diverged"
        );
        assert_eq!(
            store.stats().corrupt,
            1,
            "torn entry must be counted corrupt"
        );
        // The quarantine trips the store's flight recorder, which dumps
        // into its own directory and names the quarantined entry.
        let dump = std::fs::read_to_string(flight_dir.join("flight-store-quarantine.json"))
            .expect("store-quarantine dump written");
        let entry = StoreKey {
            module: torn_module.clone(),
            fingerprint: image.fingerprint(),
            plugin: plugin.cache_key(),
            noop: true,
        }
        .entry_name();
        assert!(dump.contains(&entry), "dump names {entry}");

        // And the repair is durable: the re-analysis re-persisted the
        // entry, so the next open serves it from disk again.
        let store2 = open_store(&dir);
        let cache2 = RuleCache::with_store(Arc::clone(&store2));
        let (file2, source2) = cache2.get_or_analyze_traced(&image, &plugin, true);
        assert!(
            matches!(source2, FillSource::Store),
            "repaired entry not served"
        );
        assert_eq!(file2.to_bytes(), golden[0].1);
    }

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&flight_dir);
}
