//! The flight recorder: a bounded, always-on black-box event ring.
//!
//! Unlike the [`crate::Registry`] (which aggregates, and is only active
//! when telemetry is enabled for a profiling run), the flight recorder
//! keeps the *last N raw lifecycle events* so that when something goes
//! wrong in production — a panic, a violation-report overflow, a module
//! degradation — the service can dump a schema-stable JSON black box
//! showing what led up to it.
//!
//! Design constraints:
//!
//! - **Zero allocation in steady state.** Events are fixed-size `Copy`
//!   records (`&'static str` kind + two `u64` payloads + an interned
//!   module id). The ring is preallocated at arming time; recording
//!   overwrites slots in place. Module names are interned once per
//!   module load — the only allocation after arming.
//! - **Observation-only.** Nothing in the pipeline reads the ring; the
//!   deterministic cycle model and all result bytes are identical with
//!   the recorder on or off (enforced by `crates/eval` parity tests).
//! - **Cheap when disarmed.** Every record call first checks one
//!   relaxed atomic.
//!
//! Dump triggers: an installed panic hook ([`arm_panic_dump`]), and
//! explicit calls at trip points (report overflow in the DBT, module
//! degradation in core, store quarantine). Dumps use the
//! `janitizer.flight/v1` schema.

use crate::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Default ring capacity: enough to cover the tail of a large figure
/// run while staying a few hundred KiB resident.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Module id meaning "no module context".
pub const NO_MODULE: u32 = u32::MAX;

/// One fixed-size black-box event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic sequence number (never resets while armed; the gap
    /// between the oldest retained seq and 0 is the drop count).
    pub seq: u64,
    /// Static event kind, e.g. `"module.load"`, `"serve.panic"`.
    pub kind: &'static str,
    /// Interned module id ([`NO_MODULE`] when not module-scoped).
    pub module: u32,
    /// First payload word (kind-specific).
    pub a: u64,
    /// Second payload word (kind-specific).
    pub b: u64,
}

struct Ring {
    slots: Vec<FlightEvent>,
    next: usize,
    len: usize,
    seq: u64,
    modules: Vec<String>,
    module_ids: BTreeMap<String, u32>,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let capacity = capacity.max(16);
        Ring {
            slots: vec![
                FlightEvent {
                    seq: 0,
                    kind: "",
                    module: NO_MODULE,
                    a: 0,
                    b: 0,
                };
                capacity
            ],
            next: 0,
            len: 0,
            seq: 0,
            modules: Vec::new(),
            module_ids: BTreeMap::new(),
        }
    }

    fn record(&mut self, kind: &'static str, module: u32, a: u64, b: u64) {
        let seq = self.seq;
        self.seq += 1;
        self.slots[self.next] = FlightEvent {
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
    fn ordered(&self) -> Vec<FlightEvent> {
        let cap = self.slots.len();
        let start = (self.next + cap - self.len) % cap;
        (0..self.len)
            .map(|i| self.slots[(start + i) % cap])
            .collect()
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static RING: Mutex<Option<Ring>> = Mutex::new(None);
static PANIC_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
static HOOK_INSTALLED: AtomicBool = AtomicBool::new(false);

fn with_ring<R>(f: impl FnOnce(&mut Ring) -> R) -> R {
    let mut guard = RING.lock().unwrap_or_else(|e| e.into_inner());
    let ring = guard.get_or_insert_with(|| Ring::new(DEFAULT_CAPACITY));
    f(ring)
}

/// Whether the recorder is currently armed.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arms the recorder with a fresh ring of `capacity` slots (the one
/// allocation; recording is allocation-free afterwards).
pub fn arm(capacity: usize) {
    *RING.lock().unwrap_or_else(|e| e.into_inner()) = Some(Ring::new(capacity));
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms the recorder and drops the ring.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
    *RING.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Interns a module name, returning the id to pass to [`record`].
/// Returns [`NO_MODULE`] when disarmed.
pub fn intern_module(name: &str) -> u32 {
    if !armed() {
        return NO_MODULE;
    }
    with_ring(|r| r.intern(name))
}

/// Records one event (no-op when disarmed).
#[inline]
pub fn record(kind: &'static str, module: u32, a: u64, b: u64) {
    if !armed() {
        return;
    }
    with_ring(|r| r.record(kind, module, a, b));
}

/// Records one event scoped to a module by name (interns on the fly;
/// prefer [`intern_module`] + [`record`] on hot paths).
pub fn record_for(kind: &'static str, module: &str, a: u64, b: u64) {
    if !armed() {
        return;
    }
    with_ring(|r| {
        let id = r.intern(module);
        r.record(kind, id, a, b);
    });
}

/// Renders the black box as a `janitizer.flight/v1` JSON document.
/// `reason` names the trip (`"panic"`, `"report-overflow"`,
/// `"module-degraded"`, `"snapshot"`).
pub fn dump_json(reason: &str) -> String {
    with_ring(|r| {
        let events = r.ordered();
        let dropped = events.first().map(|e| e.seq).unwrap_or(0);
        let modules = Json::Arr(r.modules.iter().map(|m| Json::str(m.clone())).collect());
        let rows = Json::Arr(
            events
                .iter()
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
            ("capacity", Json::U64(r.slots.len() as u64)),
            ("total_events", Json::U64(r.seq)),
            ("dropped", Json::U64(dropped)),
            ("modules", modules),
            ("events", rows),
        ])
        .render_pretty()
    })
}

/// Writes a dump to `dir/flight-<reason>.json` (best-effort: failures
/// are swallowed — the black box must never take the service down).
/// Returns the path written, if any.
pub fn dump_to(dir: &Path, reason: &str) -> Option<PathBuf> {
    if !armed() {
        return None;
    }
    let path = dir.join(format!("flight-{reason}.json"));
    let doc = dump_json(reason);
    std::fs::create_dir_all(dir).ok()?;
    std::fs::write(&path, doc).ok()?;
    Some(path)
}

/// Records a trip event and, when a dump directory is configured,
/// writes the black box as `flight-<reason>.json`. This is the entry
/// point for non-panic triggers: violation-report overflow, module
/// degradation, store quarantine.
pub fn trip(reason: &'static str, module: u32, a: u64, b: u64) {
    if !armed() {
        return;
    }
    record(reason, module, a, b);
    let dir = PANIC_DIR.lock().unwrap_or_else(|e| e.into_inner()).clone();
    if let Some(dir) = dir {
        dump_to(&dir, reason);
    }
}

/// Arms panic dumps: on panic, the black box is written to
/// `dir/flight-panic.json` before the previous panic hook runs. The
/// hook is installed once per process; subsequent calls only update the
/// directory.
pub fn arm_panic_dump(dir: &Path) {
    *PANIC_DIR.lock().unwrap_or_else(|e| e.into_inner()) = Some(dir.to_path_buf());
    if HOOK_INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let dir = PANIC_DIR.lock().unwrap_or_else(|e| e.into_inner()).clone();
        if let Some(dir) = dir {
            record("panic", NO_MODULE, 0, 0);
            dump_to(&dir, "panic");
        }
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The recorder is process-global; serialize tests touching it.
    static SERIAL: StdMutex<()> = StdMutex::new(());

    #[test]
    fn disarmed_is_inert() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        disarm();
        record("x", NO_MODULE, 1, 2);
        assert_eq!(intern_module("m"), NO_MODULE);
        assert!(!armed());
    }

    #[test]
    fn ring_keeps_last_n_and_counts_drops() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        arm(16);
        let m = intern_module("libfoo.jof");
        assert_eq!(intern_module("libfoo.jof"), m, "interning is stable");
        for i in 0..40u64 {
            record("tick", m, i, i * 2);
        }
        let doc = dump_json("snapshot");
        assert!(doc.contains("\"schema\": \"janitizer.flight/v1\""));
        assert!(doc.contains("\"total_events\": 40"));
        assert!(doc.contains("\"dropped\": 24"));
        assert!(doc.contains("\"libfoo.jof\""));
        // Oldest retained event is seq 24, newest 39.
        assert!(doc.contains("\"seq\": 24"));
        assert!(doc.contains("\"seq\": 39"));
        assert!(!doc.contains("\"seq\": 23"));
        disarm();
    }

    #[test]
    fn dump_writes_file() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        arm(16);
        record_for("module.degraded", "bad.jof", 7, 0);
        let dir = std::env::temp_dir().join(format!("jz-flight-{}", std::process::id()));
        let path = dump_to(&dir, "module-degraded").expect("dump written");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"reason\": \"module-degraded\""));
        assert!(body.contains("bad.jof"));
        std::fs::remove_dir_all(&dir).ok();
        disarm();
    }
}
