//! The guest process: loaded modules, memory layout, TLS, and run loops.

use crate::cpu::{CpuState, Fault, FaultKind};
use crate::kernel::{run_ops_exact, Op, RunEnd};
use crate::loader;
use crate::mem::{Memory, Perm};
use janitizer_isa::{decode, Instr, PcMap, TLS_BLOCK_SIZE, TLS_CANARY_OFFSET};
use janitizer_obj::Image;
use janitizer_telemetry::flight::Flight;
use std::sync::Arc;

/// Address of the host-synthesized bootstrap code that runs module
/// initializers and then calls the entry point.
pub const BOOTSTRAP_BASE: u64 = 0x0010_0000;
/// First load address for position-independent modules.
pub const PIC_MODULE_BASE: u64 = 0x1000_0000;
/// Spacing between PIC module load addresses.
pub const PIC_MODULE_STRIDE: u64 = 0x0100_0000;
/// Heap (sbrk) base address.
pub const HEAP_BASE: u64 = 0x8000_0000;
/// Maximum heap size.
pub const HEAP_MAX: u64 = 0x3000_0000;
/// Base of the mmap allocation area (JIT regions and anonymous maps).
pub const MMAP_BASE: u64 = 0xC000_0000;
/// Stack region base.
pub const STACK_BASE: u64 = 0xE000_0000;
/// Stack size (grows down from `STACK_BASE + STACK_SIZE`).
pub const STACK_SIZE: u64 = 0x0010_0000;
/// Deterministic stack-canary cookie installed in TLS at load time.
pub const CANARY_VALUE: u64 = 0x00c0_ffee_5afe_0000;
/// Default cap on instructions per decoded block, for both
/// [`Process::run_native`]'s block cache and the DBT's translations.
pub const MAX_BLOCK: usize = 128;

/// A module mapped into a process.
#[derive(Clone, Debug)]
pub struct LoadedModule {
    /// The linked image (shared, as several processes may map it).
    pub image: Arc<Image>,
    /// Load bias: `runtime_address = bias + image_address`. Zero for
    /// non-PIC executables.
    pub base: u64,
    /// Index in [`Process::modules`].
    pub id: usize,
    /// Whether the module was loaded at run time via `dlopen` (and was
    /// therefore invisible to `ldd`-style static dependency discovery).
    pub dlopened: bool,
}

impl LoadedModule {
    /// Converts an image-relative address to its run-time address.
    ///
    /// Wrapping by definition: image addresses are validated against
    /// `MAX_IMAGE_SPAN` at decode time, so a wrap can only come from an
    /// in-memory hostile `Image`; the resulting address then faults at
    /// the memory layer instead of panicking here.
    #[inline]
    pub fn runtime_addr(&self, image_addr: u64) -> u64 {
        self.base.wrapping_add(image_addr)
    }

    /// Run-time address range occupied by the module.
    pub fn range(&self) -> (u64, u64) {
        let lo = self
            .image
            .sections
            .iter()
            .map(|s| s.addr)
            .min()
            .unwrap_or(0);
        (self.base + lo, self.base + self.image.image_end())
    }
}

/// Events the execution driver (e.g. the dynamic modifier) must observe.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProcessEvent {
    /// A module was mapped (at load time or by `dlopen`).
    ModuleLoaded {
        /// Index into [`Process::modules`].
        id: usize,
    },
}

/// How execution finished.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Exit {
    /// Normal termination via the exit syscall.
    Exited(i64),
    /// A guest fault.
    Fault(Fault),
    /// The cycle budget ran out.
    OutOfFuel,
}

impl Exit {
    /// The exit code, if the process terminated normally.
    pub fn code(&self) -> Option<i64> {
        match self {
            Exit::Exited(c) => Some(*c),
            _ => None,
        }
    }
}

/// A single-threaded guest process.
pub struct Process {
    /// Guest memory.
    pub mem: Memory,
    /// Architectural register state.
    pub cpu: CpuState,
    /// Thread-local storage block (canary cookie, instrumentation spill
    /// slots).
    pub tls: Vec<u8>,
    /// Modules in load order; index is the module id / dlopen handle.
    pub modules: Vec<LoadedModule>,
    /// Symbol-resolution scope: module ids in search order.
    pub scope: Vec<usize>,
    /// Captured stdout/stderr bytes.
    pub stdout: Vec<u8>,
    /// Program arguments, read by the guest via `getarg`.
    pub args: Vec<u64>,
    /// Executed-instruction count.
    pub insns: u64,
    /// Accumulated cycle count (the performance metric).
    pub cycles: u64,
    /// Pending events for the execution driver.
    pub events: Vec<ProcessEvent>,
    /// Number of lazy PLT fixups performed.
    pub lazy_fixups: u64,
    /// Generic notification counter bumped by the `note` syscall (see
    /// `syscall::SYS_NOTE`); host tools use it as a change epoch.
    pub note_counter: u64,
    /// Flight recorder for module loads and faults (from
    /// [`LoadOptions::flight`](crate::LoadOptions::flight)); the DBT
    /// records into it too.
    pub flight: Flight,
    /// Module store used to satisfy `dlopen`.
    pub(crate) store: loader::ModuleStore,
    /// Whether PLT GOT slots are bound lazily.
    pub(crate) lazy_binding: bool,
    pub(crate) brk: u64,
    pub(crate) mmap_next: u64,
    pub(crate) rng: u64,
    pub(crate) inits_pending: Vec<usize>,
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("modules", &self.modules.len())
            .field("pc", &format_args!("{:#x}", self.cpu.pc))
            .field("insns", &self.insns)
            .field("cycles", &self.cycles)
            .finish()
    }
}

impl Process {
    pub(crate) fn empty(store: loader::ModuleStore, lazy_binding: bool, seed: u64) -> Process {
        let mut tls = vec![0u8; TLS_BLOCK_SIZE as usize];
        tls[TLS_CANARY_OFFSET as usize..TLS_CANARY_OFFSET as usize + 8]
            .copy_from_slice(&(CANARY_VALUE ^ seed.rotate_left(17)).to_le_bytes());
        Process {
            mem: Memory::new(),
            cpu: CpuState::default(),
            tls,
            modules: Vec::new(),
            scope: Vec::new(),
            stdout: Vec::new(),
            args: Vec::new(),
            insns: 0,
            cycles: 0,
            events: Vec::new(),
            lazy_fixups: 0,
            note_counter: 0,
            flight: Flight::default(),
            store,
            lazy_binding,
            brk: HEAP_BASE,
            mmap_next: MMAP_BASE,
            rng: seed | 1,
            inits_pending: Vec::new(),
        }
    }

    /// The canary cookie installed in TLS.
    pub fn canary(&self) -> u64 {
        self.read_tls(TLS_CANARY_OFFSET)
    }

    /// Reads an 8-byte TLS slot (out-of-range offsets read as 0).
    pub fn read_tls(&self, off: i32) -> u64 {
        let off = off as usize;
        if off + 8 <= self.tls.len() {
            u64::from_le_bytes(self.tls[off..off + 8].try_into().unwrap())
        } else {
            0
        }
    }

    /// Writes an 8-byte TLS slot (out-of-range offsets are ignored).
    pub fn write_tls(&mut self, off: i32, v: u64) {
        let off = off as usize;
        if off + 8 <= self.tls.len() {
            self.tls[off..off + 8].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// The module whose mapped range contains `addr`, if any.
    pub fn module_containing(&self, addr: u64) -> Option<&LoadedModule> {
        self.modules.iter().find(|m| {
            let (lo, hi) = m.range();
            addr >= lo && addr < hi
        })
    }

    /// Resolves an exported symbol by search order (`scope`).
    pub fn resolve_symbol(&self, name: &str) -> Option<u64> {
        for &id in &self.scope {
            let m = &self.modules[id];
            if let Some(sym) = m.image.export(name) {
                return Some(m.runtime_addr(sym.value));
            }
        }
        None
    }

    /// sbrk: grows (or queries, with `delta == 0`) the heap.
    pub(crate) fn sbrk(&mut self, delta: i64) -> Result<u64, String> {
        let old = self.brk;
        if delta < 0 {
            // Shrinking is accepted but the mapping is retained.
            self.brk = self.brk.saturating_add_signed(delta).max(HEAP_BASE);
            return Ok(old);
        }
        let new = old + delta as u64;
        if new > HEAP_BASE + HEAP_MAX {
            return Err("out of heap".into());
        }
        if old == HEAP_BASE && delta > 0 {
            self.mem.map(HEAP_BASE, delta as u64, Perm::RW, "heap")?;
        } else if delta > 0 {
            self.mem.grow(HEAP_BASE, delta as u64)?;
        }
        self.brk = new;
        Ok(old)
    }

    /// mmap: allocates a fresh region (RWX when `exec`).
    pub(crate) fn mmap(&mut self, len: u64, exec: bool) -> Result<u64, String> {
        let len = len.max(1).div_ceil(4096) * 4096;
        let addr = self.mmap_next;
        self.mem.map(
            addr,
            len,
            if exec { Perm::RWX } else { Perm::RW },
            if exec { "jit" } else { "mmap" },
        )?;
        self.mmap_next += len + 4096;
        Ok(addr)
    }

    /// mmap at a fixed address (sanitizer shadow).
    pub(crate) fn mmap_fixed(&mut self, addr: u64, len: u64) -> Result<u64, String> {
        self.mem.map(addr, len, Perm::RW, "shadow")?;
        Ok(addr)
    }

    /// Deterministic per-process pseudo-random generator.
    pub(crate) fn next_rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// `dlopen`: loads a module (and its dependencies) at run time.
    ///
    /// # Errors
    ///
    /// Returns an error string if the module is unknown or loading fails.
    pub fn dlopen(&mut self, name: &str) -> Result<usize, String> {
        if let Some(m) = self.modules.iter().find(|m| m.image.name == name) {
            return Ok(m.id);
        }
        loader::load_into(self, name, true).map_err(|e| e.to_string())
    }

    /// `dlsym`: exported-symbol lookup within one module.
    pub fn dlsym(&self, handle: usize, name: &str) -> Option<u64> {
        let m = self.modules.get(handle)?;
        m.image.export(name).map(|s| m.runtime_addr(s.value))
    }

    /// `dlinit`: returns a pending init routine address for the handle.
    pub fn dlinit(&mut self, handle: usize) -> Option<u64> {
        if let Some(pos) = self.inits_pending.iter().position(|&id| id == handle) {
            self.inits_pending.remove(pos);
            let m = self.modules.get(handle)?;
            return m.image.init.map(|i| m.runtime_addr(i));
        }
        None
    }

    /// ld.so's fixup: resolves the PLT symbol owning `got_slot`, patches
    /// the slot and returns the target.
    ///
    /// # Errors
    ///
    /// Returns the symbol name if no loaded module exports it.
    pub fn dl_fixup(&mut self, got_slot: u64) -> Result<u64, String> {
        let (sym, _mid) = self
            .modules
            .iter()
            .find_map(|m| {
                let (lo, hi) = m.range();
                if got_slot < lo || got_slot >= hi {
                    return None;
                }
                let image_off = got_slot - m.base;
                m.image
                    .plt
                    .iter()
                    .find(|p| p.got_offset == image_off)
                    .map(|p| (p.symbol.clone(), m.id))
            })
            .ok_or_else(|| format!("<no PLT slot at {got_slot:#x}>"))?;
        let target = self.resolve_symbol(&sym).ok_or(sym)?;
        self.mem
            .poke_bytes(got_slot, &target.to_le_bytes())
            .map_err(|f| f.to_string())?;
        self.lazy_fixups += 1;
        Ok(target)
    }

    /// Fetches and decodes the instruction at `pc`.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] on fetch or decode failure.
    pub fn fetch_decode(&mut self, pc: u64) -> Result<(Instr, u64), Fault> {
        let bytes = self
            .mem
            .fetch_bytes(pc, janitizer_isa::MAX_INSTR_LEN as u64)
            .map_err(|m| Fault {
                pc,
                kind: FaultKind::Mem(m),
            })?;
        let (insn, len) = decode(&bytes, 0).map_err(|e| Fault {
            pc,
            kind: FaultKind::Decode(e),
        })?;
        Ok((insn, pc + len as u64))
    }

    /// Decodes the block starting at `pc`: instructions up to and
    /// including the first control transfer or syscall, at most `max`.
    /// A fetch or decode failure after the first instruction ends the
    /// block early; the fault surfaces if execution ever reaches it.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] if the first instruction cannot be fetched or
    /// decoded.
    pub fn decode_block(&mut self, pc: u64, max: usize) -> Result<Vec<Op>, Fault> {
        let mut ops = Vec::new();
        let mut cur = pc;
        loop {
            let (insn, next) = match self.fetch_decode(cur) {
                Ok(v) => v,
                Err(f) if ops.is_empty() => return Err(f),
                Err(_) => break,
            };
            ops.push(Op::new(cur, insn, next));
            if insn.is_cti() || insn == Instr::Syscall || ops.len() >= max {
                break;
            }
            cur = next;
        }
        Ok(ops)
    }

    /// Runs the process natively (no instrumentation) until exit, fault,
    /// or `fuel` cycles.
    ///
    /// Block-at-a-time through the execution kernel, from a cache of
    /// decoded blocks dropped whenever executable memory changes. The
    /// kernel stops between instructions on fuel exhaustion and after
    /// a write to executable memory, so exits, faults, fuel and
    /// self-modifying code behave as under a per-instruction loop.
    pub fn run_native(&mut self, fuel: u64) -> Exit {
        let mut cache: PcMap<Box<[Op]>> = PcMap::default();
        let mut cache_gen = self.mem.code_generation();
        loop {
            if self.cycles >= fuel {
                return Exit::OutOfFuel;
            }
            if self.mem.code_generation() != cache_gen {
                cache.clear();
                cache_gen = self.mem.code_generation();
            }
            let pc = self.cpu.pc;
            let ops = match cache.entry(pc) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(v) => {
                    match self.decode_block(pc, MAX_BLOCK) {
                        Ok(ops) => v.insert(ops.into_boxed_slice()),
                        Err(f) => return Exit::Fault(f),
                    }
                }
            };
            match run_ops_exact(self, ops, fuel, cache_gen).end {
                RunEnd::Next(t) => self.cpu.pc = t,
                RunEnd::Exited(c) => return Exit::Exited(c),
                RunEnd::Fault(f) => return Exit::Fault(f),
            }
        }
    }

    /// The captured stdout as UTF-8 (lossy).
    pub fn stdout_string(&self) -> String {
        String::from_utf8_lossy(&self.stdout).into_owned()
    }
}
