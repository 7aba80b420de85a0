//! The program loader: `ldd`-style dependency closure, section mapping,
//! dynamic relocation, LD_PRELOAD, lazy/eager PLT binding and the
//! bootstrap sequence.

use crate::mem::Perm;
use crate::process::{
    LoadedModule, Process, ProcessEvent, BOOTSTRAP_BASE, PIC_MODULE_BASE, PIC_MODULE_STRIDE,
    STACK_BASE, STACK_SIZE,
};
use janitizer_isa::{Instr, Reg};
use janitizer_link::RESOLVER_SYMBOL;
use janitizer_obj::{DynTarget, Image, SectionKind};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An in-memory "filesystem" of linked images, keyed by module name.
///
/// Stands in for the directories the dynamic linker would search; also
/// consulted by the `dlopen` syscall at run time.
#[derive(Clone, Default)]
pub struct ModuleStore {
    images: HashMap<String, Arc<Image>>,
}

impl fmt::Debug for ModuleStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModuleStore")
            .field("modules", &self.images.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl ModuleStore {
    /// Creates an empty store.
    pub fn new() -> ModuleStore {
        ModuleStore::default()
    }

    /// Adds an image under its own name, returning the shared handle.
    pub fn add(&mut self, image: Image) -> Arc<Image> {
        let arc = Arc::new(image);
        self.images.insert(arc.name.clone(), Arc::clone(&arc));
        arc
    }

    /// Looks up an image by name.
    pub fn get(&self, name: &str) -> Option<Arc<Image>> {
        self.images.get(name).cloned()
    }

    /// Names of all stored modules, in sorted order.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.images.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

/// Loader configuration.
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Modules whose exports take precedence over ordinary libraries
    /// (LD_PRELOAD semantics — how the paper's sanitizer interposes on the
    /// allocator, §4.1).
    pub preload: Vec<String>,
    /// Bind PLT slots lazily through the ld.so resolver (`true`, the
    /// default) or eagerly at load time.
    pub lazy_binding: bool,
    /// Program arguments, readable via the `getarg` syscall.
    pub args: Vec<u64>,
    /// Seed for the process RNG and the stack-canary cookie.
    pub seed: u64,
}

impl Default for LoadOptions {
    fn default() -> LoadOptions {
        LoadOptions {
            preload: Vec::new(),
            lazy_binding: true,
            args: Vec::new(),
            seed: 0x4a41_4e49_5449_5a45, // "JANITIZE"
        }
    }
}

/// Errors produced while building a process image.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LoadError {
    /// The named module is not in the store.
    ModuleNotFound(String),
    /// A region could not be mapped.
    MapFailed(String),
    /// An eagerly-bound symbol could not be resolved.
    UnresolvedSymbol {
        /// The symbol name.
        symbol: String,
        /// Module whose relocation referenced it.
        module: String,
    },
    /// Lazy binding was requested but no module exports the resolver.
    NoResolver,
    /// Two non-PIC modules were requested (their addresses would clash).
    NonPicConflict(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::ModuleNotFound(m) => write!(f, "module `{m}` not found"),
            LoadError::MapFailed(m) => write!(f, "mapping failed: {m}"),
            LoadError::UnresolvedSymbol { symbol, module } => {
                write!(f, "unresolved symbol `{symbol}` needed by `{module}`")
            }
            LoadError::NoResolver => write!(
                f,
                "lazy binding requires an ld.so module exporting `{RESOLVER_SYMBOL}`"
            ),
            LoadError::NonPicConflict(m) => {
                write!(f, "cannot load second non-PIC module `{m}`")
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// Builds a ready-to-run [`Process`] for `exe` (which must be in `store`),
/// mapping it, its `ldd`-discoverable dependency closure, any preloads and
/// (if present) the `ld.so` module, applying dynamic relocations, and
/// synthesizing the bootstrap that runs `.init` routines before the entry
/// point.
///
/// # Errors
///
/// Returns a [`LoadError`] if a module is missing, mapping fails, or an
/// eagerly-bound symbol cannot be resolved.
pub fn load_process(
    store: &ModuleStore,
    exe: &str,
    opts: &LoadOptions,
) -> Result<Process, LoadError> {
    let mut p = Process::empty(store.clone(), opts.lazy_binding, opts.seed);
    p.args = opts.args.clone();

    // Stack.
    p.mem
        .map(STACK_BASE, STACK_SIZE, Perm::RW, "stack")
        .map_err(LoadError::MapFailed)?;
    p.cpu.set_reg(Reg::SP, STACK_BASE + STACK_SIZE - 64);

    // Roots in resolution-scope order: exe, preloads, then (transitively)
    // needed libraries; ld.so goes last when available.
    let mut roots: Vec<String> = vec![exe.to_string()];
    roots.extend(opts.preload.iter().cloned());
    let new_ids = load_closure(&mut p, &roots)?;
    if store.get("ld.so").is_some() && !p.modules.iter().any(|m| m.image.name == "ld.so") {
        load_closure(&mut p, &["ld.so".to_string()])?;
    }
    // Apply relocations now that the whole static closure is mapped.
    let all_ids: Vec<usize> = (0..p.modules.len()).collect();
    for id in &all_ids {
        apply_relocs(&mut p, *id)?;
    }
    let _ = new_ids;

    // Bootstrap: run every module's `.init` (dependencies first), then the
    // entry point, then exit with its return value.
    let exe_module = &p.modules[0];
    let entry = exe_module.runtime_addr(exe_module.image.entry);
    let mut inits: Vec<u64> = p
        .modules
        .iter()
        .rev()
        .filter_map(|m| m.image.init.map(|i| m.runtime_addr(i)))
        .collect();
    inits.push(entry);
    let mut code = Vec::new();
    for target in inits {
        let pc_after = BOOTSTRAP_BASE + code.len() as u64 + 5;
        Instr::Call {
            rel: (target as i64 - pc_after as i64) as i32,
        }
        .encode(&mut code);
    }
    // exit(r0)
    Instr::MovRr {
        rd: Reg::R1,
        rs: Reg::R0,
    }
    .encode(&mut code);
    Instr::MovI32 {
        rd: Reg::R0,
        imm: 0,
    }
    .encode(&mut code);
    Instr::Syscall.encode(&mut code);
    p.mem
        .map(
            BOOTSTRAP_BASE,
            (code.len() as u64).max(64),
            Perm::RX,
            "bootstrap",
        )
        .map_err(LoadError::MapFailed)?;
    p.mem
        .poke_bytes(BOOTSTRAP_BASE, &code)
        .map_err(|f| LoadError::MapFailed(f.to_string()))?;
    p.cpu.pc = BOOTSTRAP_BASE;
    Ok(p)
}

/// Maps `name` (and its unseen dependencies) into the process at run time
/// on behalf of `dlopen`; relocations for the newly loaded modules are
/// applied immediately and their init routines queued for `dlinit`.
///
/// Returns the module id (dlopen handle).
pub(crate) fn load_into(p: &mut Process, name: &str, dlopened: bool) -> Result<usize, LoadError> {
    let new_ids = load_closure(p, &[name.to_string()])?;
    for id in &new_ids {
        p.modules[*id].dlopened = dlopened;
        apply_relocs(p, *id)?;
    }
    if dlopened {
        p.inits_pending.extend(new_ids.iter().copied());
    }
    let id = p
        .modules
        .iter()
        .find(|m| m.image.name == name)
        .map(|m| m.id)
        .expect("just loaded");
    Ok(id)
}

/// Phase 1: maps the given roots and their dependency closure (BFS),
/// skipping modules that are already loaded. Returns the new module ids in
/// load order and appends them to the resolution scope.
fn load_closure(p: &mut Process, roots: &[String]) -> Result<Vec<usize>, LoadError> {
    let mut queue: Vec<String> = roots.to_vec();
    let mut new_ids = Vec::new();
    let mut qi = 0;
    while qi < queue.len() {
        let name = queue[qi].clone();
        qi += 1;
        if p.modules.iter().any(|m| m.image.name == name) {
            continue;
        }
        let image = p
            .store
            .get(&name)
            .ok_or_else(|| LoadError::ModuleNotFound(name.clone()))?;
        let id = map_module(p, image)?;
        new_ids.push(id);
        p.scope.push(id);
        for dep in &p.modules[id].image.needed.clone() {
            if !queue.contains(dep) {
                queue.push(dep.clone());
            }
        }
    }
    Ok(new_ids)
}

/// Maps one module's sections and registers it, without relocating.
fn map_module(p: &mut Process, image: Arc<Image>) -> Result<usize, LoadError> {
    let base = if image.pic {
        let pic_count = p.modules.iter().filter(|m| m.image.pic).count() as u64;
        PIC_MODULE_BASE + pic_count * PIC_MODULE_STRIDE
    } else {
        if p.modules.iter().any(|m| !m.image.pic) {
            return Err(LoadError::NonPicConflict(image.name.clone()));
        }
        0
    };
    for sec in &image.sections {
        let perm = match sec.kind {
            k if k.is_code() => Perm::RX,
            SectionKind::Rodata => Perm::R,
            _ => Perm::RW,
        };
        if sec.mem_size == 0 {
            continue;
        }
        let map_addr = base
            .checked_add(sec.addr)
            .filter(|a| a.checked_add(sec.mem_size).is_some())
            .ok_or_else(|| {
                LoadError::MapFailed(format!(
                    "{}{} wraps the address space",
                    image.name,
                    sec.kind.name()
                ))
            })?;
        p.mem
            .map(
                map_addr,
                sec.mem_size,
                perm,
                format!("{}{}", image.name, sec.kind.name()),
            )
            .map_err(LoadError::MapFailed)?;
        if !sec.data.is_empty() {
            p.mem
                .poke_bytes(map_addr, &sec.data)
                .map_err(|f| LoadError::MapFailed(f.to_string()))?;
        }
    }
    let id = p.modules.len();
    p.modules.push(LoadedModule {
        image,
        base,
        id,
        dlopened: false,
    });
    janitizer_telemetry::flight::record_for(
        "vm.module_load",
        p.modules[id].image.name.as_str(),
        id as u64,
        base,
    );
    p.events.push(ProcessEvent::ModuleLoaded { id });
    Ok(id)
}

/// Phase 2: applies one module's dynamic relocations.
fn apply_relocs(p: &mut Process, id: usize) -> Result<(), LoadError> {
    let m = p.modules[id].clone();
    let plt0 = m
        .image
        .section(SectionKind::Plt)
        .map(|s| m.runtime_addr(s.addr));
    let plt_slots: Vec<u64> = m.image.plt.iter().map(|e| e.got_offset).collect();
    for rel in &m.image.dyn_relocs {
        let slot_addr = m.runtime_addr(rel.offset);
        let value = match &rel.target {
            DynTarget::Base(off) => m.runtime_addr(*off),
            DynTarget::Symbol(sym) => {
                let is_plt_slot = plt_slots.contains(&rel.offset);
                if is_plt_slot && p.lazy_binding && sym != RESOLVER_SYMBOL {
                    // Lazy: point the slot at this module's plt0 trampoline.
                    plt0.ok_or_else(|| LoadError::MapFailed("plt slot without plt".into()))?
                } else {
                    match p.resolve_symbol(sym) {
                        Some(v) => v,
                        None if sym == RESOLVER_SYMBOL => {
                            if p.lazy_binding && !plt_slots.is_empty() {
                                return Err(LoadError::NoResolver);
                            }
                            0 // eager mode never calls through got[0]
                        }
                        None if is_plt_slot => {
                            // Eager binding of a function nothing exports.
                            return Err(LoadError::UnresolvedSymbol {
                                symbol: sym.clone(),
                                module: m.image.name.clone(),
                            });
                        }
                        None => {
                            return Err(LoadError::UnresolvedSymbol {
                                symbol: sym.clone(),
                                module: m.image.name.clone(),
                            })
                        }
                    }
                }
            }
        };
        p.mem
            .poke_bytes(slot_addr, &value.to_le_bytes())
            .map_err(|f| LoadError::MapFailed(f.to_string()))?;
    }
    Ok(())
}
