//! The guest "kernel": syscall numbers and their host-side implementation.
//!
//! The number goes in `r0`, arguments in `r1`–`r5`, the result in `r0`.
//! `r0` is the only register clobbered.

use crate::cpu::{FaultKind, Step};
use crate::process::Process;
use janitizer_isa::Reg;

/// `exit(code)` — terminates the process.
pub const SYS_EXIT: u64 = 0;
/// `write(fd, ptr, len)` — appends to the captured stdout/stderr.
pub const SYS_WRITE: u64 = 1;
/// `sbrk(delta)` — grows the heap, returns the old break.
pub const SYS_SBRK: u64 = 2;
/// `mmap(len, flags)` — maps a fresh region; flag bit 0 requests RWX
/// (JIT) memory. Returns the base address.
pub const SYS_MMAP: u64 = 3;
/// `mmap_fixed(addr, len)` — maps RW memory at a fixed address (used by
/// the sanitizer runtime to establish shadow memory).
pub const SYS_MMAP_FIXED: u64 = 4;
/// `dlopen(name_ptr, name_len)` — loads a shared object and its
/// dependencies at run time; returns a module handle or `u64::MAX`.
pub const SYS_DLOPEN: u64 = 5;
/// `dlsym(handle, name_ptr, name_len)` — looks up an exported symbol in
/// the given module; returns its address or 0.
pub const SYS_DLSYM: u64 = 6;
/// `dlinit(handle)` — returns the module's init routine address (or 0),
/// exactly once; the caller is expected to invoke it.
pub const SYS_DLINIT: u64 = 7;
/// `dl_fixup(&got_slot)` — ld.so's lazy-binding work: resolves the symbol
/// for a GOT slot, patches the slot, returns the target address.
pub const SYS_DLFIXUP: u64 = 8;
/// `getarg(i)` — reads the i-th program argument (0 when absent).
pub const SYS_GETARG: u64 = 9;
/// `rand()` — deterministic pseudo-random u64 (per-process LCG).
pub const SYS_RAND: u64 = 10;
/// `cycles()` — current cycle count (a `rdtsc` stand-in).
pub const SYS_CYCLES: u64 = 11;
/// `abort(msg_ptr, msg_len)` — terminates with a diagnostic fault
/// (`__stack_chk_fail` and friends).
pub const SYS_ABORT: u64 = 12;
/// `note()` — increments the process's notification counter. Used by
/// instrumentation runtimes (e.g. the sanitizer allocator) to signal
/// host-side tools that guest-maintained metadata (shadow memory) changed.
pub const SYS_NOTE: u64 = 13;

/// Executes the syscall selected by the guest's `r0`.
pub fn dispatch(p: &mut Process) -> Step {
    let num = p.cpu.reg(Reg::R0);
    let step = dispatch_inner(p, num);
    if let Step::Fault(_) = &step {
        p.flight.record("vm.fault", None, p.cpu.pc, num);
    }
    step
}

fn dispatch_inner(p: &mut Process, num: u64) -> Step {
    let a1 = p.cpu.reg(Reg::R1);
    let a2 = p.cpu.reg(Reg::R2);
    let a3 = p.cpu.reg(Reg::R3);
    let ret = match num {
        SYS_EXIT => return Step::Exit(a1 as i64),
        SYS_WRITE => {
            let len = a3;
            match p.mem.read_bytes(a2, len) {
                Ok(bytes) => {
                    if a1 == 1 || a1 == 2 {
                        p.stdout.extend_from_slice(&bytes);
                    }
                    len
                }
                Err(f) => return Step::fault(FaultKind::Mem(f)),
            }
        }
        SYS_SBRK => {
            let delta = a1 as i64;
            match p.sbrk(delta) {
                Ok(old) => old,
                Err(msg) => return Step::fault(FaultKind::Abort(format!("sbrk failed: {msg}"))),
            }
        }
        SYS_MMAP => match p.mmap(a1, a2 & 1 != 0) {
            Ok(addr) => addr,
            Err(msg) => return Step::fault(FaultKind::Abort(format!("mmap failed: {msg}"))),
        },
        SYS_MMAP_FIXED => match p.mmap_fixed(a1, a2) {
            Ok(addr) => addr,
            Err(msg) => return Step::fault(FaultKind::Abort(format!("mmap_fixed failed: {msg}"))),
        },
        SYS_DLOPEN => {
            let name = match read_str(p, a1, a2) {
                Ok(n) => n,
                Err(s) => return s,
            };
            match p.dlopen(&name) {
                Ok(handle) => handle as u64,
                Err(_) => u64::MAX,
            }
        }
        SYS_DLSYM => {
            let name = match read_str(p, a2, a3) {
                Ok(n) => n,
                Err(s) => return s,
            };
            p.dlsym(a1 as usize, &name).unwrap_or(0)
        }
        SYS_DLINIT => p.dlinit(a1 as usize).unwrap_or(0),
        SYS_DLFIXUP => match p.dl_fixup(a1) {
            Ok(target) => target,
            Err(sym) => return Step::fault(FaultKind::UnresolvedSymbol(sym)),
        },
        SYS_GETARG => p.args.get(a1 as usize).copied().unwrap_or(0),
        SYS_RAND => p.next_rand(),
        SYS_CYCLES => p.cycles,
        SYS_NOTE => {
            p.note_counter += 1;
            0
        }
        SYS_ABORT => {
            let msg = read_str(p, a1, a2).unwrap_or_else(|_| "abort".into());
            return Step::fault(FaultKind::Abort(msg));
        }
        n => return Step::fault(FaultKind::BadSyscall(n)),
    };
    p.cpu.set_reg(Reg::R0, ret);
    Step::Next
}

fn read_str(p: &mut Process, ptr: u64, len: u64) -> Result<String, Step> {
    if len > 4096 {
        return Err(Step::fault(FaultKind::Abort("string too long".into())));
    }
    match p.mem.read_bytes(ptr, len) {
        Ok(bytes) => Ok(String::from_utf8_lossy(&bytes).into_owned()),
        Err(f) => Err(Step::fault(FaultKind::Mem(f))),
    }
}
