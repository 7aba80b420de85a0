//! Deterministic per-analysis work budget.
//!
//! The PR 5 fuel constants bound each individual analysis against
//! hostile CFGs; the *budget* is the supervision-layer generalization: a
//! thread-local deadline, denominated in units of analysis work rather
//! than wall-clock time, armed by the analysis service before it runs a
//! module and checked afterwards. Exhaustion makes every bounded
//! analysis take its existing conservative bail-out early, so an
//! over-budget module still terminates promptly with sound (if
//! pessimistic) facts — and the service can observe [`overrun`] and
//! degrade the module ([`AnalysisTimeout`]) instead of persisting rules
//! derived from a truncated analysis.
//!
//! Wall-clock-free by design: the same module and the same budget always
//! exhaust at exactly the same point, on any machine, which keeps the
//! byte-parity and crash-recovery tests deterministic.
//!
//! [`AnalysisTimeout`]: https://docs.rs/janitizer-core

use std::cell::Cell;

/// Sentinel meaning "no budget armed" (the default for every thread).
pub const UNLIMITED: u64 = u64::MAX;

thread_local! {
    static REMAINING: Cell<u64> = const { Cell::new(UNLIMITED) };
    static OVERRUN: Cell<bool> = const { Cell::new(false) };
    static SPENT: Cell<u64> = const { Cell::new(0) };
}

/// Arms the current thread's analysis budget with `units` of work and
/// clears any previous overrun and spend meter. Pass [`UNLIMITED`] to
/// disarm.
pub fn set_budget(units: u64) {
    REMAINING.with(|r| r.set(units));
    OVERRUN.with(|o| o.set(false));
    SPENT.with(|s| s.set(0));
}

/// Disarms the budget and clears the overrun flag.
pub fn clear_budget() {
    set_budget(UNLIMITED);
}

/// Charges `units` of work against the armed budget. Returns `false`
/// once the budget is exhausted — callers bail to their conservative
/// result, exactly as on fuel exhaustion. With no budget armed this
/// always returns `true` and costs a few thread-local reads.
pub fn charge(units: u64) -> bool {
    SPENT.with(|s| s.set(s.get().saturating_add(units)));
    REMAINING.with(|r| {
        let left = r.get();
        if left == UNLIMITED {
            return true;
        }
        if let Some(n) = left.checked_sub(units) {
            r.set(n);
            true
        } else {
            r.set(0);
            OVERRUN.with(|o| o.set(true));
            false
        }
    })
}

/// Whether the armed budget has been exhausted since [`set_budget`].
pub fn overrun() -> bool {
    OVERRUN.with(|o| o.get())
}

/// Work units charged on this thread since the last [`set_budget`].
/// Meters even with no budget armed — the analysis service uses this as
/// the deterministic per-request cost sample (units of analysis work,
/// never wall time, so the resulting histogram is byte-stable across
/// hosts and thread counts).
pub fn spent() -> u64 {
    SPENT.with(|s| s.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_budget_never_exhausts() {
        clear_budget();
        for _ in 0..1000 {
            assert!(charge(u64::MAX / 2));
        }
        assert!(!overrun());
    }

    #[test]
    fn armed_budget_exhausts_exactly() {
        set_budget(10);
        assert!(charge(4));
        assert!(charge(6));
        assert!(!overrun(), "spending to exactly zero is within budget");
        assert!(!charge(1), "the first unit past the budget fails");
        assert!(overrun());
        assert!(!charge(1), "and stays failed");
        clear_budget();
        assert!(!overrun(), "disarming clears the overrun");
        assert!(charge(u64::MAX / 2));
    }

    #[test]
    fn rearming_resets() {
        set_budget(1);
        assert!(!charge(5));
        assert!(overrun());
        set_budget(5);
        assert!(!overrun());
        assert!(charge(5));
    }

    #[test]
    fn spend_meter_counts_with_and_without_budget() {
        clear_budget();
        let base = spent();
        charge(3);
        charge(4);
        assert_eq!(spent() - base, 7, "unlimited mode still meters");
        set_budget(10);
        assert_eq!(spent(), 0, "rearming resets the meter");
        charge(6);
        assert_eq!(spent(), 6);
        clear_budget();
    }
}
