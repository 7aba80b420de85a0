//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark around calls into the program's
//! public functions; the program itself carries no tracing. Each span
//! records its name, start, end, parent span and the op it belongs to.
//! Counts recorded with [`add`] are summed by name. Nothing is recorded
//! unless [`start`] was called, so untraced runs pay one thread-local
//! check per span.

use janitizer_telemetry::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since [`start`].
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Everything one traced run recorded.
pub struct Recorder {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
    pub sums: BTreeMap<&'static str, f64>,
}

/// Per-name aggregate over all spans of that name.
#[derive(Default, Clone, Copy)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread.
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            sums: BTreeMap::new(),
        })
    });
}

/// Whether spans are being recorded.
pub fn active() -> bool {
    REC.with(|r| r.borrow().is_some())
}

/// Stops recording and returns what was recorded.
pub fn finish() -> Option<Recorder> {
    REC.with(|r| r.borrow_mut().take())
}

/// Resumes recording into a recorder that [`finish`] returned.
pub fn resume(rec: Recorder) {
    REC.with(|r| *r.borrow_mut() = Some(rec));
}

/// Sets the op id stamped on spans opened from now on.
pub fn set_op(op: u64) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.op = op;
        }
    });
}

/// Adds `v` to the count `name`.
pub fn add(name: &'static str, v: f64) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            *rec.sums.entry(name).or_insert(0.0) += v;
        }
    });
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = REC.with(|r| {
        let mut b = r.borrow_mut();
        let rec = b.as_mut()?;
        let id = rec.spans.len() as u32;
        let start_ns = rec.t0.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: rec.open.last().copied(),
            op: rec.op,
        });
        rec.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[id as usize].end_ns = rec.t0.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
    out
}

impl Recorder {
    /// Count, total time and self time (span minus its children) per
    /// span name.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += s.dur_ns();
            a.self_ns += s.dur_ns().saturating_sub(*c);
        }
        out
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// The spans as a JSON array.
    pub fn spans_json(&self) -> String {
        let spans = self.spans.iter().enumerate().map(|(i, s)| {
            Json::obj([
                ("id", Json::U64(i as u64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p.into())),
                ),
                ("op", Json::U64(s.op)),
            ])
        });
        Json::Arr(spans.collect()).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        start();
        set_op(3);
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            add("n", 2.0);
        });
        let rec = finish().expect("recording was started");
        assert!(!active());
        let agg = rec.aggregate();
        let (outer, inner) = (agg["outer"], agg["inner"]);
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[1].op, 3);
        assert_eq!(rec.sum("n"), 2.0);
    }
}
