//! Telemetry on/off parity: enabling collection must not change a single
//! byte of any evaluation result — the cost model is deterministic and
//! telemetry only observes it. This test flips the process-wide switch,
//! so it runs in its own binary and serializes on a mutex.

use janitizer_eval::{build_eval_world, fig13, fig14};
use janitizer_telemetry as telemetry;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn results_identical_with_telemetry_on() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    // Baseline with telemetry off: one fully-dynamic figure and one
    // static-analysis figure.
    telemetry::set_enabled(false);
    let ew = build_eval_world(0.05);
    let f14_off = fig14(&ew);
    let f13_off = fig13(&ew);

    telemetry::reset();
    telemetry::set_enabled(true);
    // A fresh world (and therefore a cold rule cache) so the static
    // pipeline actually re-runs under telemetry rather than being served
    // from the first world's analyze-once cache.
    let ew_on = build_eval_world(0.05);
    let f14_on = fig14(&ew_on);
    let f13_on = fig13(&ew_on);
    telemetry::set_enabled(false);
    let reg = telemetry::snapshot();

    assert_eq!(
        f14_off.to_csv(),
        f14_on.to_csv(),
        "telemetry changed a CSV byte"
    );
    assert_eq!(
        f14_off.to_json(),
        f14_on.to_json(),
        "telemetry changed a JSON byte"
    );
    assert_eq!(f13_off.to_csv(), f13_on.to_csv());
    assert_eq!(f13_off.to_json(), f13_on.to_json());

    // And the enabled run actually collected a meaningful profile.
    assert!(reg.counter("dbt.blocks_translated") > 0);
    assert!(reg.counter("dbt.guest_insns") > 0);
    assert!(reg.spans.contains_key("static;liveness"));
}
