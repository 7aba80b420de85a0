//! Address symbolization over the DBT module load map.
//!
//! A [`Symbolizer`] snapshots the load map of a [`Process`] — every
//! loaded module's image plus its load bias — and resolves run-time
//! addresses back to `module!symbol+offset`. Resolution handles PIC
//! modules (non-zero bias), non-PIC executables (bias 0), PLT stubs
//! (rendered as `symbol@plt`, the import they trampoline to) and
//! addresses between symbols (nearest-preceding function + offset, the
//! assembler's size-0 symbols make this the common case).

use janitizer_obj::Image;
use janitizer_vm::Process;
use std::fmt;
use std::sync::Arc;

/// One symbolized address.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// The run-time address.
    pub addr: u64,
    /// Containing module name, when the address falls inside one.
    pub module: Option<String>,
    /// Resolved symbol name (`name` or `name@plt`), when one was found.
    pub symbol: Option<String>,
    /// Offset from the symbol start (or from the module base when only
    /// the module resolved).
    pub offset: u64,
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.module, &self.symbol) {
            (Some(m), Some(s)) => {
                write!(f, "{:#010x} in {m}!{s}+{:#x}", self.addr, self.offset)
            }
            (Some(m), None) => write!(f, "{:#010x} in {m}+{:#x}", self.addr, self.offset),
            _ => write!(f, "{:#010x} <unknown>", self.addr),
        }
    }
}

/// A loaded module as the symbolizer sees it.
struct MappedModule {
    name: String,
    base: u64,
    lo: u64,
    hi: u64,
    image: Arc<Image>,
}

/// Address → `module!symbol+offset` resolver over a process's load map.
pub struct Symbolizer {
    modules: Vec<MappedModule>,
}

impl Symbolizer {
    /// Snapshots the load map of `proc` (including `dlopen`ed modules).
    pub fn from_process(proc: &Process) -> Symbolizer {
        let modules = proc
            .modules
            .iter()
            .map(|m| {
                let (lo, hi) = m.range();
                MappedModule {
                    name: m.image.name.clone(),
                    base: m.base,
                    lo,
                    hi,
                    image: m.image.clone(),
                }
            })
            .collect();
        Symbolizer { modules }
    }

    fn module_at(&self, addr: u64) -> Option<&MappedModule> {
        self.modules.iter().find(|m| addr >= m.lo && addr < m.hi)
    }

    /// Whether `addr` lies inside a code section of a loaded module —
    /// the plausibility filter for return addresses found on the stack.
    pub fn is_code(&self, addr: u64) -> bool {
        self.module_at(addr)
            .and_then(|m| m.image.section_containing(addr - m.base))
            .is_some_and(|s| s.kind.is_code())
    }

    /// Resolves one run-time address to a [`Frame`].
    pub fn resolve(&self, addr: u64) -> Frame {
        let Some(m) = self.module_at(addr) else {
            return Frame {
                addr,
                module: None,
                symbol: None,
                offset: 0,
            };
        };
        let image_addr = addr - m.base;
        // PLT stubs first: a pc inside a stub is "in" the import it
        // trampolines to, not in whatever local symbol precedes `.plt`.
        if let Some(p) = m.image.plt_entry_containing(image_addr) {
            return Frame {
                addr,
                module: Some(m.name.clone()),
                symbol: Some(format!("{}@plt", p.symbol)),
                offset: image_addr - p.plt_offset,
            };
        }
        if let Some(f) = m.image.function_containing(image_addr) {
            return Frame {
                addr,
                module: Some(m.name.clone()),
                symbol: Some(f.name.clone()),
                offset: image_addr - f.value,
            };
        }
        if let Some((s, off)) = m.image.nearest_symbol(image_addr) {
            return Frame {
                addr,
                module: Some(m.name.clone()),
                symbol: Some(s.name.clone()),
                offset: off,
            };
        }
        Frame {
            addr,
            module: Some(m.name.clone()),
            symbol: None,
            offset: image_addr,
        }
    }
}

impl fmt::Debug for Symbolizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Symbolizer")
            .field("modules", &self.modules.len())
            .finish()
    }
}
