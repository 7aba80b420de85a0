//! ASan-style shadow memory: mapping, poisoning and forensic reads.
//!
//! The layout (`shadow(a) = SHADOW_BASE + (a >> 3)`, the poison markers)
//! and the granule walk live in [`janitizer_dbt::shadow`], shared with
//! the engine's typed checks; this module re-exports them.

pub use janitizer_dbt::shadow::{
    classify_poison, shadow_addr, POISON_HEAP_FREED, POISON_HEAP_REDZONE, POISON_STACK_CANARY,
    SHADOW_BASE,
};
use janitizer_dbt::shadow::{read_granule, walk};
use janitizer_dbt::{ShadowRow, ViolationKind};
use janitizer_vm::{Memory, Perm, Process};

/// Maps the shadow regions for the standard process layout, one per
/// application area. Guest memory backs a region page by page on first
/// write, so a shadow region costs only the pages whose granules were
/// ever poisoned or unpoisoned; reading untouched shadow allocates nothing.
pub fn map_shadow(mem: &mut Memory) -> Result<(), String> {
    use janitizer_vm::{HEAP_BASE, HEAP_MAX, MMAP_BASE, STACK_BASE, STACK_SIZE};
    let ranges: [(u64, u64, &str); 4] = [
        // Modules, bootstrap and everything below the shadow itself.
        (0, SHADOW_BASE, "shadow:low"),
        (HEAP_BASE, HEAP_BASE + HEAP_MAX, "shadow:heap"),
        (MMAP_BASE, STACK_BASE, "shadow:mmap"),
        (STACK_BASE, STACK_BASE + STACK_SIZE + 0x1000, "shadow:stack"),
    ];
    for (lo, hi, label) in ranges {
        mem.map(shadow_addr(lo), (hi - lo) >> 3, Perm::RW, label)?;
    }
    Ok(())
}

/// Whether the shadow mapping is present (probe before reading).
pub fn shadow_mapped(mem: &Memory) -> bool {
    mem.is_mapped(SHADOW_BASE, 1)
}

/// Poisons `[addr, addr+len)` with `value` (rounding outward to granule
/// boundaries for the interior, as ASan does for redzones).
pub fn poison_range(proc: &mut Process, addr: u64, len: u64, value: u8) {
    fill_granules(&mut proc.mem, addr >> 3, (addr + len + 7) >> 3, value);
}

/// Unpoisons `[addr, addr+len)`; a trailing partial granule gets the
/// partial-validity count.
pub fn unpoison_range(proc: &mut Process, addr: u64, len: u64) {
    debug_assert_eq!(addr & 7, 0, "allocations are 8-aligned");
    let full = len / 8;
    let first = addr >> 3;
    fill_granules(&mut proc.mem, first, first + full, 0);
    let rem = len % 8;
    if rem != 0 {
        let _ = proc.mem.write_int(SHADOW_BASE + first + full, 1, rem);
    }
}

/// Sets the shadow bytes of granules `first..last` to `value`, one
/// `write_bytes` per run of up to `RUN` granules (copied from a stack
/// buffer, so the one-granule canary probes allocate nothing). A run that
/// is not wholly inside one writable region (it crosses an unmapped gap)
/// is rewritten granule by granule, so every mapped granule is still set
/// and the unmapped ones are skipped, as with per-granule writes.
fn fill_granules(mem: &mut Memory, first: u64, last: u64, value: u8) {
    const RUN: u64 = 256;
    let run = [value; RUN as usize];
    let mut g = first;
    while g < last {
        let n = (last - g).min(RUN);
        if mem
            .write_bytes(SHADOW_BASE + g, &run[..n as usize])
            .is_err()
        {
            for h in g..g + n {
                let _ = mem.write_int(SHADOW_BASE + h, 1, value as u64);
            }
        }
        g += n;
    }
}

/// The core access check: returns the violation kind for a `size`-byte
/// access at `addr`, or `None` when the access is clean. An unmapped
/// shadow (e.g. shadow-of-shadow) reads as unpoisoned, like ASan's
/// zero page. The reference entry to the same walk the engine's typed
/// checks run.
pub fn check_access(proc: &mut Process, addr: u64, size: u64) -> Option<ViolationKind> {
    let first = read_granule(&mut proc.mem, addr >> 3);
    walk(&mut proc.mem, addr, size, first)
}

/// Short human label for a shadow byte, used in the region-map legend of
/// forensic reports (`00` addressable, `01..07` partial, else the poison
/// class).
pub fn shadow_byte_label(s: u8) -> &'static str {
    match s {
        0 => "addressable",
        1..=7 => "partial",
        POISON_HEAP_REDZONE => "heap redzone",
        POISON_HEAP_FREED => "freed heap",
        POISON_STACK_CANARY => "stack canary",
        _ => "poisoned",
    }
}

/// Reads an ASan-report-style shadow window around `addr`: `rows` rows of
/// eight shadow bytes (64 application bytes per row), centred on the row
/// containing `addr`. Unmapped shadow granules read as `None`.
pub fn shadow_window(proc: &mut Process, addr: u64, rows: u64) -> Vec<ShadowRow> {
    let row_of = addr & !63; // 8 granules * 8 bytes
    let first = row_of.saturating_sub((rows / 2) * 64);
    (0..rows)
        .map(|i| {
            let base = first + i * 64;
            let shadow = (0..8)
                .map(|g| read_granule(&mut proc.mem, (base >> 3) + g))
                .collect();
            ShadowRow { base, shadow }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use janitizer_vm::{LoadOptions, ModuleStore, Perm};

    fn blank_process() -> Process {
        // A process with only shadow + one data region.
        let store = ModuleStore::new();
        let mut p = janitizer_vm::load_process(
            &{
                let mut s = store.clone();
                let o = janitizer_asm::assemble(
                    "t.s",
                    ".section text\n.global _start\n_start:\n ret\n",
                    &janitizer_asm::AsmOptions::default(),
                )
                .unwrap();
                s.add(
                    janitizer_link::link(&[o], &janitizer_link::LinkOptions::executable("t"))
                        .unwrap(),
                );
                s
            },
            "t",
            &LoadOptions::default(),
        )
        .unwrap();
        map_shadow(&mut p.mem).unwrap();
        p.mem.map(0x20_0000, 0x1000, Perm::RW, "play").unwrap();
        p
    }

    #[test]
    fn layout_fits_disp32_and_avoids_overlap() {
        assert!(shadow_addr(0xffff_ffff) < 0x8000_0000);
        assert!(SHADOW_BASE <= i32::MAX as u64);
        // Shadow of the app regions lies inside the shadow area.
        for a in [0x40_0000u64, 0x8000_0000, 0xc000_0000, 0xe00f_f000] {
            let s = shadow_addr(a);
            assert!((SHADOW_BASE..0x8000_0000).contains(&s), "{a:#x} -> {s:#x}");
        }
    }

    #[test]
    fn clean_memory_passes() {
        let mut p = blank_process();
        assert_eq!(check_access(&mut p, 0x20_0000, 8), None);
        assert_eq!(check_access(&mut p, 0x20_0004, 1), None);
    }

    #[test]
    fn poison_detects_and_classifies() {
        let mut p = blank_process();
        poison_range(&mut p, 0x20_0100, 32, POISON_HEAP_REDZONE);
        assert_eq!(
            check_access(&mut p, 0x20_0100, 1),
            Some(ViolationKind::HeapBufferOverflow)
        );
        assert_eq!(
            check_access(&mut p, 0x20_011f, 8),
            Some(ViolationKind::HeapBufferOverflow)
        );
        poison_range(&mut p, 0x20_0200, 8, POISON_HEAP_FREED);
        assert_eq!(
            check_access(&mut p, 0x20_0200, 4),
            Some(ViolationKind::HeapUseAfterFree)
        );
        poison_range(&mut p, 0x20_0300, 8, POISON_STACK_CANARY);
        assert_eq!(
            check_access(&mut p, 0x20_0304, 2),
            Some(ViolationKind::StackBufferOverflow)
        );
    }

    #[test]
    fn unpoison_restores_with_partial_tail() {
        let mut p = blank_process();
        poison_range(&mut p, 0x20_0400, 64, POISON_HEAP_REDZONE);
        unpoison_range(&mut p, 0x20_0400, 13); // 8 full + 5 partial
        assert_eq!(check_access(&mut p, 0x20_0400, 8), None);
        assert_eq!(
            check_access(&mut p, 0x20_0408, 5),
            None,
            "first 5 of granule ok"
        );
        assert_eq!(
            check_access(&mut p, 0x20_0408, 8),
            Some(ViolationKind::HeapBufferOverflow),
            "reading past the 13-byte object trips"
        );
        assert_eq!(
            check_access(&mut p, 0x20_040d, 1),
            Some(ViolationKind::HeapBufferOverflow),
            "byte 13 is out of bounds"
        );
    }

    #[test]
    fn wide_access_spilling_into_next_granule() {
        let mut p = blank_process();
        // Object of 8 bytes, then poison.
        unpoison_range(&mut p, 0x20_0500, 8);
        poison_range(&mut p, 0x20_0508, 8, POISON_HEAP_REDZONE);
        assert_eq!(check_access(&mut p, 0x20_0500, 8), None);
        assert_eq!(
            check_access(&mut p, 0x20_0504, 8),
            Some(ViolationKind::HeapBufferOverflow),
            "8-byte access at +4 crosses into the redzone"
        );
    }

    #[test]
    fn unmapped_shadow_reads_clean() {
        let mut p = blank_process();
        // The shadow of the shadow is not mapped; checks inside the shadow
        // region must pass, not fault.
        assert_eq!(check_access(&mut p, SHADOW_BASE + 0x100, 8), None);
    }

    /// Reads the shadow byte of every granule of `[lo, hi)`; unmapped
    /// shadow reads as `None`.
    fn shadow_bytes(p: &mut Process, lo: u64, hi: u64) -> Vec<Option<u8>> {
        (lo >> 3..hi >> 3)
            .map(|g| p.mem.read_int(SHADOW_BASE + g, 1).ok().map(|v| v as u8))
            .collect()
    }

    #[test]
    fn run_writes_match_per_granule_writes_across_gaps() {
        // One shadow write per granule, ignoring faults: the reference.
        fn poison_per_granule(p: &mut Process, addr: u64, len: u64, value: u8) {
            for g in addr >> 3..(addr + len + 7) >> 3 {
                let _ = p.mem.write_int(SHADOW_BASE + g, 1, value as u64);
            }
        }
        fn unpoison_per_granule(p: &mut Process, addr: u64, len: u64) {
            let (first, full, rem) = (addr >> 3, len / 8, len % 8);
            for g in 0..full {
                let _ = p.mem.write_int(SHADOW_BASE + first + g, 1, 0);
            }
            if rem != 0 {
                let _ = p.mem.write_int(SHADOW_BASE + first + full, 1, rem);
            }
        }
        use janitizer_vm::HEAP_BASE;
        // Application ranges whose shadow runs off the end of `shadow:low`
        // into the unmapped shadow-of-shadow, out of that gap into
        // `shadow:heap`, and a range spanning several write runs.
        let cases = [
            (SHADOW_BASE - 0x40, 0x80, true),
            (SHADOW_BASE - 0x1000, 0x3008, true),
            (HEAP_BASE - 0x48, 0x95, true),
            (HEAP_BASE - 0x2000, 0x400d, true),
            (0x20_0008, 0x1805, false),
        ];
        for (addr, len, crosses_gap) in cases {
            let (lo, hi) = (addr - 0x40, addr + len + 0x40);
            let mut reference = blank_process();
            let mut runs = blank_process();
            poison_per_granule(&mut reference, addr - 8, len + 16, POISON_HEAP_REDZONE);
            poison_range(&mut runs, addr - 8, len + 16, POISON_HEAP_REDZONE);
            assert_eq!(
                shadow_bytes(&mut runs, lo, hi),
                shadow_bytes(&mut reference, lo, hi)
            );
            unpoison_per_granule(&mut reference, addr, len);
            unpoison_range(&mut runs, addr, len);
            let bytes = shadow_bytes(&mut runs, lo, hi);
            assert_eq!(
                bytes,
                shadow_bytes(&mut reference, lo, hi),
                "{addr:#x}+{len:#x}"
            );
            assert!(bytes.contains(&Some(0)) && bytes.contains(&Some(POISON_HEAP_REDZONE)));
            assert_eq!(bytes.contains(&None), crosses_gap, "{addr:#x}+{len:#x}");
        }
    }
}
