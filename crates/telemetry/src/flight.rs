//! The flight recorder: a bounded black-box event ring behind a cheap,
//! cloneable handle.
//!
//! The recorder keeps the *last N raw lifecycle events* so that when
//! something goes wrong in production — a panic, a violation-report
//! overflow, a module degradation — the service can dump a
//! schema-stable JSON black box showing what led up to it.
//!
//! A [`Flight`] is either disarmed (the default: every call is a no-op
//! behind one `Option` check) or armed, sharing one ring among all its
//! clones. The handle rides on the long-lived objects of a run —
//! `LoadOptions` and the `Process` it builds, `HybridOptions::load`,
//! `ServiceOptions` and the `RuleStore` — so two runs in one process
//! record into two rings. The one process-wide piece is the panic hook
//! that [`Flight::dump_on_panic`] installs.
//!
//! Design constraints:
//!
//! - **Bounded.** Events are fixed-size `Copy` records (`&'static str`
//!   kind + two `u64` payloads + an interned module id). The ring is
//!   preallocated when armed; recording overwrites slots in place.
//!   Module names are interned on first use.
//! - **Observation-only.** Nothing in the pipeline reads the ring; the
//!   deterministic cycle model and all result bytes are identical with
//!   the recorder on or off (enforced by `crates/eval` parity tests).
//!
//! Dump triggers: the panic hook, and [`Flight::trip`] at the trip
//! points (`report-overflow` in the DBT, `module-degraded` in
//! `run_hybrid`, `serve-degraded` in the analysis service,
//! `store-quarantine` in the rule store). Dumps use the
//! `janitizer.flight/v1` schema.

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Ring capacity: enough to cover the tail of a large figure run while
/// staying a few hundred KiB resident.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Module id meaning "no module context".
const NO_MODULE: u32 = u32::MAX;

/// One fixed-size black-box event.
#[derive(Clone, Copy)]
struct Event {
    /// Monotonic sequence number (never resets; the gap between the
    /// oldest retained seq and 0 is the drop count).
    seq: u64,
    kind: &'static str,
    /// Interned module id ([`NO_MODULE`] when not module-scoped).
    module: u32,
    a: u64,
    b: u64,
}

struct Ring {
    slots: Vec<Event>,
    next: usize,
    len: usize,
    seq: u64,
    modules: Vec<String>,
    module_ids: BTreeMap<String, u32>,
    /// Where trips write their dumps (`None`: trips only record).
    dump_dir: Option<PathBuf>,
}

impl Ring {
    fn record(&mut self, kind: &'static str, module: Option<&str>, a: u64, b: u64) {
        let module = module.map_or(NO_MODULE, |name| self.intern(name));
        let seq = self.seq;
        self.seq += 1;
        self.slots[self.next] = Event {
            seq,
            kind,
            module,
            a,
            b,
        };
        self.next = (self.next + 1) % self.slots.len();
        self.len = (self.len + 1).min(self.slots.len());
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.module_ids.get(name) {
            return id;
        }
        let id = self.modules.len() as u32;
        self.modules.push(name.to_string());
        self.module_ids.insert(name.to_string(), id);
        id
    }

    /// Retained events, oldest first.
    fn ordered(&self) -> impl Iterator<Item = &Event> {
        let cap = self.slots.len();
        let start = (self.next + cap - self.len) % cap;
        (0..self.len).map(move |i| &self.slots[(start + i) % cap])
    }

    fn to_json(&self, reason: &str) -> Json {
        let dropped = self.ordered().next().map_or(0, |e| e.seq);
        let modules = Json::Arr(self.modules.iter().map(|m| Json::str(m.clone())).collect());
        let rows = Json::Arr(
            self.ordered()
                .map(|e| {
                    let mut fields = vec![
                        ("seq".to_string(), Json::U64(e.seq)),
                        ("kind".to_string(), Json::str(e.kind)),
                    ];
                    if e.module != NO_MODULE {
                        fields.push(("module".to_string(), Json::U64(e.module as u64)));
                    }
                    fields.push(("a".to_string(), Json::U64(e.a)));
                    fields.push(("b".to_string(), Json::U64(e.b)));
                    Json::Obj(fields)
                })
                .collect(),
        );
        Json::obj([
            ("schema", Json::str("janitizer.flight/v1")),
            ("reason", Json::str(reason)),
            ("capacity", Json::U64(self.slots.len() as u64)),
            ("total_events", Json::U64(self.seq)),
            ("dropped", Json::U64(dropped)),
            ("modules", modules),
            ("events", rows),
        ])
    }
}

/// A flight-recorder handle. The default is disarmed; clones of an
/// armed handle share one ring.
#[derive(Clone, Default)]
pub struct Flight(Option<Arc<Mutex<Ring>>>);

impl fmt::Debug for Flight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Flight")
            .field("armed", &self.is_armed())
            .finish()
    }
}

impl Flight {
    /// An armed recorder with a fresh ring of [`DEFAULT_CAPACITY`] slots.
    /// Trips write their dumps into `dump_dir` when it is set.
    pub fn armed(dump_dir: Option<PathBuf>) -> Flight {
        let blank = Event {
            seq: 0,
            kind: "",
            module: NO_MODULE,
            a: 0,
            b: 0,
        };
        Flight(Some(Arc::new(Mutex::new(Ring {
            slots: vec![blank; DEFAULT_CAPACITY],
            next: 0,
            len: 0,
            seq: 0,
            modules: Vec::new(),
            module_ids: BTreeMap::new(),
            dump_dir,
        }))))
    }

    /// Whether this handle records.
    pub fn is_armed(&self) -> bool {
        self.0.is_some()
    }

    fn ring(&self) -> Option<MutexGuard<'_, Ring>> {
        // Every update leaves the ring consistent, so a poisoned lock
        // (a panic elsewhere while recording) still holds a valid ring.
        self.0
            .as_ref()
            .map(|r| r.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Records one event, scoped to `module` by name when given (no-op
    /// when disarmed).
    #[inline]
    pub fn record(&self, kind: &'static str, module: Option<&str>, a: u64, b: u64) {
        if let Some(mut ring) = self.ring() {
            ring.record(kind, module, a, b);
        }
    }

    /// Records a trip event and, when the handle has a dump directory,
    /// writes the black box there as `flight-<reason>.json`.
    pub fn trip(&self, reason: &'static str, module: Option<&str>, a: u64, b: u64) {
        let Some(mut ring) = self.ring() else {
            return;
        };
        ring.record(reason, module, a, b);
        let dir = ring.dump_dir.clone();
        drop(ring);
        if let Some(dir) = dir {
            self.dump_to(&dir, reason);
        }
    }

    /// Renders the black box as a `janitizer.flight/v1` JSON document
    /// (`None` when disarmed). `reason` names the trip (`"panic"`,
    /// `"report-overflow"`, `"module-degraded"`, `"snapshot"`, ...).
    pub fn dump_json(&self, reason: &str) -> Option<String> {
        self.ring().map(|r| r.to_json(reason).render_pretty())
    }

    /// Writes a dump to `dir/flight-<reason>.json` (best-effort: failures
    /// are swallowed — the black box must never take the service down).
    /// Returns the path written, if any.
    pub fn dump_to(&self, dir: &Path, reason: &str) -> Option<PathBuf> {
        let doc = self.dump_json(reason)?;
        let path = dir.join(format!("flight-{reason}.json"));
        std::fs::create_dir_all(dir).ok()?;
        std::fs::write(&path, doc).ok()?;
        Some(path)
    }

    /// Installs a panic hook that trips `panic` on this recorder (writing
    /// `flight-panic.json` into its dump directory) before running the
    /// previous hook. The hook is process-wide and keeps the ring alive.
    pub fn dump_on_panic(&self) {
        let flight = self.clone();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            flight.trip("panic", None, 0, 0);
            prev(info);
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("jz-flight-{tag}-{}", std::process::id()))
    }

    #[test]
    fn disarmed_is_inert() {
        let f = Flight::default();
        f.record("x", Some("m"), 1, 2);
        f.trip("x", None, 1, 2);
        assert!(!f.is_armed());
        assert_eq!(f.dump_json("snapshot"), None);
        assert_eq!(f.dump_to(&scratch("inert"), "snapshot"), None);
    }

    #[test]
    fn ring_keeps_last_n_and_counts_drops() {
        let f = Flight::armed(None);
        let total = DEFAULT_CAPACITY as u64 + 24;
        for i in 0..total {
            f.record("tick", Some("libfoo.jof"), i, i * 2);
        }
        let doc = f.dump_json("snapshot").expect("armed");
        assert!(doc.contains("\"schema\": \"janitizer.flight/v1\""));
        assert!(doc.contains(&format!("\"total_events\": {total},")));
        assert!(doc.contains("\"dropped\": 24,"));
        assert_eq!(doc.matches("\"libfoo.jof\"").count(), 1, "interned once");
        // Oldest retained event is seq 24, newest total - 1.
        assert!(doc.contains("\"seq\": 24,"));
        assert!(doc.contains(&format!("\"seq\": {},", total - 1)));
        assert!(!doc.contains("\"seq\": 23,"));
    }

    #[test]
    fn trip_dumps_into_the_handles_own_dir() {
        let dir = scratch("trip");
        let f = Flight::armed(Some(dir.clone()));
        let other = Flight::armed(None);
        f.clone().record("vm.module_load", Some("bad.jof"), 0, 0);
        other.record("unrelated", None, 0, 0);
        f.trip("module-degraded", Some("bad.jof"), 7, 0);
        let body = std::fs::read_to_string(dir.join("flight-module-degraded.json"))
            .expect("trip wrote its dump");
        assert!(body.contains("\"reason\": \"module-degraded\""));
        assert!(body.contains("\"total_events\": 2,"), "clones share a ring");
        assert!(body.contains("bad.jof"));
        assert!(!body.contains("unrelated"), "handles do not share rings");
        // A handle without a dump dir records the trip but writes nothing.
        other.trip("module-degraded", None, 0, 0);
        assert!(other
            .dump_json("x")
            .unwrap()
            .contains("\"total_events\": 2,"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
