//! ASan-style shadow memory: the layout, the one granule walk, and the
//! typed shadow check the engine runs inline.
//!
//! One shadow byte guards eight application bytes:
//! `shadow(a) = SHADOW_BASE + (a >> 3)`. A shadow byte of 0 means fully
//! addressable, `1..=7` means only the first *k* bytes of the granule are
//! addressable, and values `>= 0x80` are poison markers identifying why
//! the granule is off-limits.
//!
//! JASan owns the policy (which accesses get checked, with which scratch
//! registers and costs) and the poisoning; this module owns what the
//! engine needs to run a check without calling back into the tool.

use crate::{ProbeResult, Report, ViolationKind};
use janitizer_isa::{Flags, MemRef, Reg};
use janitizer_vm::{Memory, Process};
use std::rc::Rc;

/// Base of the shadow mapping. Chosen so every application address below
/// 4 GiB maps to `SHADOW_BASE + (a >> 3) < 0x8000_0000`, which fits the
/// positive range of a 32-bit displacement — the inline check sequence
/// needs the shadow base as an immediate.
pub const SHADOW_BASE: u64 = 0x6000_0000;

/// Poison marker: heap left/right redzone.
pub const POISON_HEAP_REDZONE: u8 = 0xfa;
/// Poison marker: freed heap memory (use-after-free).
pub const POISON_HEAP_FREED: u8 = 0xfd;
/// Poison marker: stack canary slot (frame redzone).
pub const POISON_STACK_CANARY: u8 = 0xf1;

/// Shadow address of an application address.
#[inline]
pub fn shadow_addr(a: u64) -> u64 {
    SHADOW_BASE + (a >> 3)
}

/// The shadow byte of granule `g` (application address `g << 3`), or
/// `None` when its shadow is unmapped.
#[inline]
pub fn read_granule(mem: &mut Memory, g: u64) -> Option<u8> {
    mem.read_u8(SHADOW_BASE + g).ok()
}

/// Classifies a poison marker byte into its violation kind.
pub fn classify_poison(s: u8) -> ViolationKind {
    match s {
        POISON_HEAP_REDZONE => ViolationKind::HeapBufferOverflow,
        POISON_HEAP_FREED => ViolationKind::HeapUseAfterFree,
        POISON_STACK_CANARY => ViolationKind::StackBufferOverflow,
        _ => ViolationKind::InvalidAccess,
    }
}

/// The granule walk: the violation kind of a `size`-byte access at
/// `addr`, or `None` when it is clean. `first` is the shadow byte of
/// `addr`'s granule, already read by the caller. An unmapped shadow
/// granule (e.g. shadow-of-shadow) reads as clean, like ASan's zero page,
/// and ends the walk.
#[inline]
pub fn walk(mem: &mut Memory, addr: u64, size: u64, first: Option<u8>) -> Option<ViolationKind> {
    let end = addr + size;
    let first_g = addr >> 3;
    for g in first_g..end.div_ceil(8) {
        let s = if g == first_g {
            first
        } else {
            read_granule(mem, g)
        }?;
        if s != 0 {
            if s >= 0x80 {
                return Some(classify_poison(s));
            }
            // Partial granule: only the first `s` bytes are valid.
            let g_start = g << 3;
            let portion_end = end.min(g_start + 8) - g_start;
            if portion_end > u64::from(s) {
                return Some(ViolationKind::HeapBufferOverflow);
            }
        }
    }
    None
}

/// How a shadow check is specialized by the static facts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckMode {
    /// Ordinary full check on every execution.
    Plain,
    /// Loop-invariant: cached verdict, cheap hit path (SCEV §3.3.2).
    Cached,
    /// Counted-loop invariant: check hoisted out of the loop — a hit
    /// costs nothing and has no architectural effects at all.
    Hoisted,
}

/// A failed shadow check, handed to the tool's [`ShadowReporter`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShadowViolation {
    /// Guest pc of the checked instruction.
    pub pc: u64,
    /// Effective address of the access.
    pub addr: u64,
    /// Access width in bytes.
    pub size: u64,
    /// Whether the access is a store.
    pub is_store: bool,
    /// Shadow byte of the first granule (0 when unmapped).
    pub shadow_byte: u8,
    /// What the walk found.
    pub kind: ViolationKind,
}

/// The cold path of a failed [`ShadowCheck`]: builds the tool's report
/// and may record tool-side context. Never runs for a clean check.
pub trait ShadowReporter {
    /// The report for `v`; `proc` is the state at the failed check.
    fn report(&self, proc: &mut Process, v: &ShadowViolation) -> Report;
}

/// A typed shadow check: the data of JASan's inline check sequence,
/// run by the engine itself instead of through a callback.
///
/// The sequence leaves the shadow address and the first shadow byte in
/// its scratch registers and, unless it preserves them, its comparison
/// in the flags — the architectural effects that make unsound liveness
/// visible in guest results. The engine charges the probe's `cost`; a
/// cached or hoisted miss adds `miss_extra`.
pub struct ShadowCheck {
    /// Guest pc of the checked instruction.
    pub pc: u64,
    /// The checked access.
    pub mem: MemRef,
    /// Up to two scratch registers the sequence clobbers, in use order;
    /// a `None` slot is spilled (a second register only after a first).
    pub scratch: [Option<Reg>; 2],
    /// Whether the sequence saves and restores the flags.
    pub preserve_flags: bool,
    /// Specialization by the static facts.
    pub mode: CheckMode,
    /// Extra cycles of a cached or hoisted check that misses its cache.
    pub miss_extra: u64,
    /// The `(address, poison epoch)` of the last clean verdict.
    pub cache: Option<(u64, u64)>,
    /// Where a violation goes.
    pub reporter: Rc<dyn ShadowReporter>,
}

impl ShadowCheck {
    /// Runs the check against `p`.
    #[inline]
    pub fn run(&mut self, p: &mut Process) -> ProbeResult {
        let m = self.mem;
        let mut addr = p.cpu.reg(m.base).wrapping_add(m.disp as i64 as u64);
        if let Some(idx) = m.idx {
            addr = addr.wrapping_add(p.cpu.reg(idx) << m.scale);
        }
        if self.mode != CheckMode::Plain && self.cache == Some((addr, p.note_counter)) {
            if self.mode == CheckMode::Hoisted {
                // The check conceptually ran in the loop preheader: no
                // cost, no effects, dynamically elided.
                return ProbeResult::Hoisted;
            }
            // A cached hit skips the shadow load.
            if let Some(s0) = self.scratch[0] {
                p.cpu.set_reg(s0, addr);
            }
            return ProbeResult::Ok;
        }
        let first = read_granule(&mut p.mem, addr >> 3);
        let shadow_byte = first.unwrap_or(0);
        if let Some(s0) = self.scratch[0] {
            p.cpu.set_reg(s0, shadow_addr(addr));
        }
        if let Some(s1) = self.scratch[1] {
            p.cpu.set_reg(s1, u64::from(shadow_byte));
        }
        if !self.preserve_flags {
            p.cpu.flags = Flags {
                zf: shadow_byte == 0,
                sf: false,
                cf: false,
                of: false,
            };
        }
        let size = m.size.bytes();
        if let Some(kind) = walk(&mut p.mem, addr, size, first) {
            return self.violation(p, addr, size, shadow_byte, kind);
        }
        self.cache = Some((addr, p.note_counter));
        match self.mode {
            CheckMode::Plain => ProbeResult::Ok,
            CheckMode::Cached | CheckMode::Hoisted => ProbeResult::Extra(self.miss_extra),
        }
    }

    #[cold]
    fn violation(
        &self,
        p: &mut Process,
        addr: u64,
        size: u64,
        shadow_byte: u8,
        kind: ViolationKind,
    ) -> ProbeResult {
        let v = ShadowViolation {
            pc: self.pc,
            addr,
            size,
            is_store: self.mem.is_store,
            shadow_byte,
            kind,
        };
        ProbeResult::Violation(self.reporter.report(p, &v))
    }
}
