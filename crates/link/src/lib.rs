//! # Static linker for JX-64
//!
//! Combines JOF relocatable [`Object`]s into a linked [`Image`]: either a
//! position-dependent executable laid out at [`IMAGE_BASE`], or a
//! position-independent shared object laid out at 0 and rebased by the
//! loader. The linker synthesizes the dynamic-linking machinery whose
//! behaviour Janitizer's mechanisms must handle:
//!
//! * a **PLT stub** per imported function (`lea r7, [pc+got_f]`;
//!   `ld8 r6, [r7]`; `jmp r6`), clobbering the `r6`/`r7` linker-scratch
//!   registers as real PLTs clobber `r11`;
//! * a **GOT** whose slot 0 holds the lazy resolver's address and whose
//!   per-function slots are bound either eagerly by the loader or lazily
//!   through the ld.so-style fixup path (including the
//!   push-resolved-pointer-then-`ret` idiom JCFI must special-case,
//!   paper §4.2.3);
//! * **dynamic relocations** for absolute pointers in PIC images (jump
//!   tables, function-pointer tables) and for cross-module data.
//!
//! ```
//! use janitizer_asm::{assemble, AsmOptions};
//! use janitizer_link::{link, LinkOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let obj = assemble(
//!     "tiny.s",
//!     ".section text\n.global _start\n_start:\n mov r0, 0\n mov r1, 0\n syscall\n",
//!     &AsmOptions::default(),
//! )?;
//! let image = link(&[obj], &LinkOptions::executable("tiny"))?;
//! assert!(!image.pic);
//! assert_eq!(image.entry, image.symbol("_start").unwrap().value);
//! # Ok(())
//! # }
//! ```

use janitizer_isa::{Instr, MemSize, Reg};
use janitizer_obj::{
    DynReloc, DynTarget, Image, Object, PltEntry, RelocKind, Section, SectionKind, SymBind,
    SymKind, Symbol, IMAGE_BASE, SECTION_ALIGN,
};
use std::collections::HashMap;
use std::fmt;

/// Symbol name of the run-time lazy resolver exported by the `ld.so`
/// module; GOT slot 0 of every image is bound to it.
pub const RESOLVER_SYMBOL: &str = "__dl_resolve";

/// Size reserved for each PLT stub (including `plt0`).
pub const PLT_STUB_SIZE: u64 = 16;

/// Linker configuration.
#[derive(Clone, Debug)]
pub struct LinkOptions {
    /// Output module name.
    pub name: String,
    /// Produce position-independent output.
    pub pic: bool,
    /// Produce a shared object (no entry point required).
    pub shared: bool,
    /// `DT_NEEDED`-style dependencies, in search order.
    pub needed: Vec<String>,
    /// Entry symbol for executables.
    pub entry: String,
    /// Drop local/function symbols from the output (like `strip`).
    pub strip: bool,
}

impl LinkOptions {
    /// Options for a conventional non-PIC executable.
    pub fn executable(name: impl Into<String>) -> LinkOptions {
        LinkOptions {
            name: name.into(),
            pic: false,
            shared: false,
            needed: Vec::new(),
            entry: "_start".into(),
            strip: false,
        }
    }

    /// Options for a position-independent executable.
    pub fn pie(name: impl Into<String>) -> LinkOptions {
        LinkOptions {
            pic: true,
            ..LinkOptions::executable(name)
        }
    }

    /// Options for a PIC shared object.
    pub fn shared_object(name: impl Into<String>) -> LinkOptions {
        LinkOptions {
            name: name.into(),
            pic: true,
            shared: true,
            needed: Vec::new(),
            entry: String::new(),
            strip: false,
        }
    }

    /// Adds a dependency on a shared object.
    pub fn needs(mut self, lib: impl Into<String>) -> LinkOptions {
        self.needed.push(lib.into());
        self
    }
}

/// Errors produced by [`link`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinkError {
    /// The same global symbol is defined by two objects.
    DuplicateSymbol {
        /// Symbol name.
        symbol: String,
        /// Objects that both define it.
        objects: (String, String),
    },
    /// The entry symbol of an executable is missing.
    MissingEntry(String),
    /// A PC-relative displacement does not fit in 32 bits.
    RelocOutOfRange {
        /// Symbol the relocation refers to.
        symbol: String,
    },
    /// A structurally invalid relocation.
    BadReloc {
        /// Symbol the relocation refers to.
        symbol: String,
        /// Description of the problem.
        reason: String,
    },
    /// The merged layout overflows the address space. Only reachable
    /// with hostile section sizes; well-formed objects never get close.
    ImageTooLarge {
        /// Which quantity overflowed.
        what: &'static str,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::DuplicateSymbol { symbol, objects } => write!(
                f,
                "duplicate symbol `{symbol}` defined in `{}` and `{}`",
                objects.0, objects.1
            ),
            LinkError::MissingEntry(e) => write!(f, "undefined entry symbol `{e}`"),
            LinkError::RelocOutOfRange { symbol } => {
                write!(f, "relocation against `{symbol}` out of range")
            }
            LinkError::BadReloc { symbol, reason } => {
                write!(f, "bad relocation against `{symbol}`: {reason}")
            }
            LinkError::ImageTooLarge { what } => {
                write!(f, "image layout overflow: {what}")
            }
        }
    }
}

impl std::error::Error for LinkError {}

fn align_up(v: u64, a: u64) -> Result<u64, LinkError> {
    v.checked_next_multiple_of(a)
        .ok_or(LinkError::ImageTooLarge {
            what: "section alignment",
        })
}

/// Links `objects` into a single [`Image`].
///
/// # Errors
///
/// Returns a [`LinkError`] on duplicate global definitions, a missing
/// entry symbol (for executables), or out-of-range displacements.
pub fn link(objects: &[Object], opts: &LinkOptions) -> Result<Image, LinkError> {
    // ---- 1. merge section contents, remembering each object's chunk base.
    let mut merged: HashMap<SectionKind, Vec<u8>> = HashMap::new();
    let mut bss_total: u64 = 0;
    // (object index, section kind) -> offset of that object's chunk within
    // the merged section.
    let mut chunk_base: HashMap<(usize, SectionKind), u64> = HashMap::new();
    for (oi, obj) in objects.iter().enumerate() {
        for sec in &obj.sections {
            if sec.kind == SectionKind::Bss {
                bss_total = align_up(bss_total, 8)?;
                chunk_base.insert((oi, sec.kind), bss_total);
                bss_total = bss_total
                    .checked_add(sec.mem_size)
                    .ok_or(LinkError::ImageTooLarge { what: "bss size" })?;
            } else {
                let buf = merged.entry(sec.kind).or_default();
                // Pad to 8; zero bytes decode as `nop` so code stays sound.
                while !buf.len().is_multiple_of(8) {
                    buf.push(0);
                }
                chunk_base.insert((oi, sec.kind), buf.len() as u64);
                buf.extend_from_slice(&sec.data);
            }
        }
    }

    // ---- 2. global symbol resolution (merged-section-relative values).
    struct Def {
        section: SectionKind,
        value: u64, // offset within merged section
        size: u64,
        kind: SymKind,
        bind: SymBind,
        object: usize,
    }
    let mut defs: HashMap<String, Def> = HashMap::new();
    for (oi, obj) in objects.iter().enumerate() {
        for sym in &obj.symbols {
            let Some(sec) = sym.section else { continue };
            let base = chunk_base.get(&(oi, sec)).copied().unwrap_or(0);
            let global = sym.bind == SymBind::Global;
            // Local symbols get object-qualified names to avoid clashes.
            let key = if global {
                sym.name.clone()
            } else {
                format!("{}::{}", obj.name, sym.name)
            };
            if let Some(prev) = defs.get(&key) {
                if global {
                    return Err(LinkError::DuplicateSymbol {
                        symbol: sym.name.clone(),
                        objects: (objects[prev.object].name.clone(), obj.name.clone()),
                    });
                }
            }
            defs.insert(
                key,
                Def {
                    section: sec,
                    value: base + sym.value,
                    size: sym.size,
                    kind: sym.kind,
                    bind: sym.bind,
                    object: oi,
                },
            );
        }
    }
    // Resolution helper: relocations refer first to a local symbol of the
    // same object, then to a global.
    let resolve = |oi: usize, name: &str| -> Option<(SectionKind, u64)> {
        let local_key = format!("{}::{}", objects[oi].name, name);
        if let Some(d) = defs.get(&local_key) {
            return Some((d.section, d.value));
        }
        defs.get(name)
            .filter(|d| d.bind == SymBind::Global)
            .map(|d| (d.section, d.value))
    };

    // ---- 3. collect imports: PLT entries (function calls) & GOT symbols.
    let mut plt_syms: Vec<String> = Vec::new();
    let mut got_syms: Vec<String> = Vec::new(); // GotPc32 targets, defined or not
    for (oi, obj) in objects.iter().enumerate() {
        for rel in &obj.relocs {
            match rel.kind {
                RelocKind::Plt32 | RelocKind::Pc32 => {
                    if resolve(oi, &rel.symbol).is_none() && !plt_syms.contains(&rel.symbol) {
                        plt_syms.push(rel.symbol.clone());
                    }
                }
                RelocKind::GotPc32 => {
                    if !got_syms.contains(&rel.symbol) {
                        got_syms.push(rel.symbol.clone());
                    }
                }
                RelocKind::Abs64 => {}
            }
        }
    }

    // ---- 4. lay out sections within the image address space.
    let base = if opts.pic { 0 } else { IMAGE_BASE };
    let mut addr = base;
    let mut sec_addr: HashMap<SectionKind, u64> = HashMap::new();
    let mut out_sections: Vec<Section> = Vec::new();

    // GOT: slot 0 = resolver, slot 1 = reserved, then PLT slots, then data.
    let need_got = !plt_syms.is_empty() || !got_syms.is_empty();
    let got_len = if need_got {
        (2 + plt_syms.len() + got_syms.len()) as u64 * 8
    } else {
        0
    };
    // PLT: slot 0 is the lazy trampoline, then one stub per import.
    let plt_len = if plt_syms.is_empty() {
        0
    } else {
        (1 + plt_syms.len() as u64) * PLT_STUB_SIZE
    };

    let mut section_bytes: HashMap<SectionKind, Vec<u8>> = HashMap::new();
    for kind in SectionKind::LAYOUT_ORDER {
        let bytes = match kind {
            SectionKind::Plt => {
                if plt_len == 0 {
                    continue;
                }
                vec![0u8; plt_len as usize]
            }
            SectionKind::Got => {
                if got_len == 0 {
                    continue;
                }
                vec![0u8; got_len as usize]
            }
            SectionKind::Bss => {
                if bss_total == 0 {
                    continue;
                }
                addr = align_up(addr, SECTION_ALIGN)?;
                sec_addr.insert(kind, addr);
                let mut s = Section::zeroed(kind, bss_total);
                s.addr = addr;
                addr = addr
                    .checked_add(bss_total)
                    .ok_or(LinkError::ImageTooLarge {
                        what: "bss placement",
                    })?;
                out_sections.push(s);
                continue;
            }
            _ => match merged.remove(&kind) {
                Some(b) if !b.is_empty() => b,
                _ => continue,
            },
        };
        addr = align_up(addr, SECTION_ALIGN)?;
        sec_addr.insert(kind, addr);
        addr = addr
            .checked_add(bytes.len() as u64)
            .ok_or(LinkError::ImageTooLarge {
                what: "section placement",
            })?;
        section_bytes.insert(kind, bytes);
    }

    // `None` when the symbol's claimed section produced no output (a
    // hostile object can declare a symbol in a section it never defines)
    // or the address arithmetic would wrap.
    let sym_addr =
        |sec: SectionKind, value: u64| -> Option<u64> { sec_addr.get(&sec)?.checked_add(value) };

    // ---- 5. GOT layout & dynamic relocations.
    let got_base = sec_addr.get(&SectionKind::Got).copied();
    let mut dyn_relocs: Vec<DynReloc> = Vec::new();
    let mut got_slot_of: HashMap<String, u64> = HashMap::new(); // symbol -> got addr
    let mut plt_entries: Vec<PltEntry> = Vec::new();
    if let Some(got_base) = got_base {
        dyn_relocs.push(DynReloc {
            offset: got_base,
            target: DynTarget::Symbol(RESOLVER_SYMBOL.into()),
        });
        let mut slot = got_base + 16;
        let plt_base = sec_addr.get(&SectionKind::Plt).copied().unwrap_or(0);
        for (i, sym) in plt_syms.iter().enumerate() {
            let stub = plt_base + (1 + i as u64) * PLT_STUB_SIZE;
            plt_entries.push(PltEntry {
                symbol: sym.clone(),
                plt_offset: stub,
                got_offset: slot,
            });
            got_slot_of.insert(sym.clone(), slot);
            // The loader binds this slot eagerly, or points it at plt0 for
            // lazy binding.
            dyn_relocs.push(DynReloc {
                offset: slot,
                target: DynTarget::Symbol(sym.clone()),
            });
            slot += 8;
        }
        for sym in &got_syms {
            got_slot_of.insert(sym.clone(), slot);
            // GOT data slots: module-local symbols just need rebasing,
            // imports need a load-time symbol search.
            let target = if let Some(a) = resolve(0, sym)
                .or_else(|| (0..objects.len()).find_map(|oi| resolve(oi, sym)))
                .and_then(|(sec, v)| sym_addr(sec, v))
            {
                DynTarget::Base(a - base)
            } else {
                // Unresolvable here (import, or a symbol in an absent
                // section): defer to the loader's symbol search.
                DynTarget::Symbol(sym.clone())
            };
            dyn_relocs.push(DynReloc {
                offset: slot,
                target,
            });
            slot += 8;
        }
    }

    // ---- 6. synthesize PLT stubs.
    if !plt_syms.is_empty() {
        let plt_base = sec_addr[&SectionKind::Plt];
        let got0 = got_base.expect("plt requires got");
        let plt = section_bytes.get_mut(&SectionKind::Plt).unwrap();
        // plt0: lazy trampoline. On entry r7 = &got[f] (set by the stub).
        {
            let mut code = Vec::new();
            Instr::Push { rs: Reg::R7 }.encode(&mut code); // resolver argument
            let lea_end = plt_base + code.len() as u64 + 6;
            Instr::LeaPc {
                rd: Reg::R6,
                disp: (got0 as i64 - lea_end as i64) as i32,
            }
            .encode(&mut code);
            Instr::Ld {
                size: MemSize::B8,
                rd: Reg::R6,
                base: Reg::R6,
                disp: 0,
            }
            .encode(&mut code);
            Instr::JmpInd { rs: Reg::R6 }.encode(&mut code);
            plt[..code.len()].copy_from_slice(&code);
        }
        for entry in &plt_entries {
            let stub_off = (entry.plt_offset - plt_base) as usize;
            let mut code = Vec::new();
            let lea_end = entry.plt_offset + 6;
            Instr::LeaPc {
                rd: Reg::R7,
                disp: (entry.got_offset as i64 - lea_end as i64) as i32,
            }
            .encode(&mut code);
            Instr::Ld {
                size: MemSize::B8,
                rd: Reg::R6,
                base: Reg::R7,
                disp: 0,
            }
            .encode(&mut code);
            Instr::JmpInd { rs: Reg::R6 }.encode(&mut code);
            plt[stub_off..stub_off + code.len()].copy_from_slice(&code);
        }
    }

    // ---- 7. apply relocations.
    for (oi, obj) in objects.iter().enumerate() {
        for rel in &obj.relocs {
            let Some(&cb) = chunk_base.get(&(oi, rel.section)) else {
                return Err(LinkError::BadReloc {
                    symbol: rel.symbol.clone(),
                    reason: format!("object has no {} section", rel.section.name()),
                });
            };
            let Some(&sec_base) = sec_addr.get(&rel.section) else {
                return Err(LinkError::BadReloc {
                    symbol: rel.symbol.clone(),
                    reason: format!("{} was empty after merging", rel.section.name()),
                });
            };
            let patch_addr = cb
                .checked_add(rel.offset)
                .and_then(|o| sec_base.checked_add(o))
                .ok_or_else(|| LinkError::BadReloc {
                    symbol: rel.symbol.clone(),
                    reason: "relocation offset overflows the address space".into(),
                })?;
            let patch_off = (patch_addr - sec_base) as usize;
            let Some(buf) = section_bytes.get_mut(&rel.section) else {
                return Err(LinkError::BadReloc {
                    symbol: rel.symbol.clone(),
                    reason: format!("{} has no contents to patch", rel.section.name()),
                });
            };
            if patch_off + 4 > buf.len() {
                return Err(LinkError::BadReloc {
                    symbol: rel.symbol.clone(),
                    reason: "relocation offset out of section bounds".into(),
                });
            }
            match rel.kind {
                RelocKind::Abs64 => {
                    if patch_off + 8 > buf.len() {
                        return Err(LinkError::BadReloc {
                            symbol: rel.symbol.clone(),
                            reason: "8-byte relocation offset out of section bounds".into(),
                        });
                    }
                    if let Some(a) = resolve(oi, &rel.symbol).and_then(|(sec, v)| sym_addr(sec, v))
                    {
                        // Addend arithmetic wraps by convention (as in ELF).
                        let target = a.wrapping_add(rel.addend as u64);
                        if opts.pic {
                            dyn_relocs.push(DynReloc {
                                offset: patch_addr,
                                target: DynTarget::Base(target),
                            });
                        } else {
                            buf[patch_off..patch_off + 8].copy_from_slice(&target.to_le_bytes());
                        }
                    } else {
                        dyn_relocs.push(DynReloc {
                            offset: patch_addr,
                            target: DynTarget::Symbol(rel.symbol.clone()),
                        });
                    }
                }
                RelocKind::Pc32 | RelocKind::Plt32 => {
                    let target = if let Some(a) =
                        resolve(oi, &rel.symbol).and_then(|(sec, v)| sym_addr(sec, v))
                    {
                        a
                    } else {
                        // Route through the PLT stub.
                        plt_entries
                            .iter()
                            .find(|p| p.symbol == rel.symbol)
                            .map(|p| p.plt_offset)
                            .ok_or_else(|| LinkError::BadReloc {
                                symbol: rel.symbol.clone(),
                                reason: "undefined symbol with no PLT entry".into(),
                            })?
                    };
                    let p = patch_addr + 4;
                    // i128 keeps hostile addends from overflowing the
                    // intermediate; the i32 range check rejects them.
                    let disp = target as i128 + rel.addend as i128 - p as i128;
                    let disp = i32::try_from(disp).map_err(|_| LinkError::RelocOutOfRange {
                        symbol: rel.symbol.clone(),
                    })?;
                    buf[patch_off..patch_off + 4].copy_from_slice(&disp.to_le_bytes());
                }
                RelocKind::GotPc32 => {
                    let slot = got_slot_of[&rel.symbol];
                    let p = patch_addr + 4;
                    let disp = slot as i128 + rel.addend as i128 - p as i128;
                    let disp = i32::try_from(disp).map_err(|_| LinkError::RelocOutOfRange {
                        symbol: rel.symbol.clone(),
                    })?;
                    buf[patch_off..patch_off + 4].copy_from_slice(&disp.to_le_bytes());
                }
            }
        }
    }

    // ---- 8. assemble the image.
    let mut img = Image::new(opts.name.clone(), opts.pic, opts.shared);
    for kind in SectionKind::LAYOUT_ORDER {
        if let Some(bytes) = section_bytes.remove(&kind) {
            let mut s = Section::new(kind, bytes);
            s.addr = sec_addr[&kind];
            img.sections.push(s);
        }
    }
    img.sections.extend(out_sections);
    img.sections.sort_by_key(|s| s.addr);

    for (key, d) in &defs {
        let name = key.rsplit("::").next().unwrap_or(key).to_string();
        // `.L`-style assembler-local labels participate in relocation but
        // are not real symbols; keeping them out preserves function sizes
        // derived from label spacing (as GNU as/ld do).
        if name.starts_with('.') {
            continue;
        }
        // A symbol in a section that produced no output (hostile objects
        // can claim one) has no address; drop it rather than fabricate one.
        let Some(value) = sym_addr(d.section, d.value) else {
            continue;
        };
        img.symbols.push(Symbol {
            name,
            kind: d.kind,
            bind: d.bind,
            section: Some(d.section),
            value,
            size: d.size,
        });
    }
    img.symbols
        .sort_by(|a, b| a.value.cmp(&b.value).then(a.name.cmp(&b.name)));

    img.needed = opts.needed.clone();
    img.plt = plt_entries;
    img.dyn_relocs = dyn_relocs;
    img.init = sec_addr.get(&SectionKind::Init).copied();
    img.fini = sec_addr.get(&SectionKind::Fini).copied();

    if !opts.shared {
        let entry = img
            .symbol(&opts.entry)
            .ok_or_else(|| LinkError::MissingEntry(opts.entry.clone()))?;
        img.entry = entry.value;
    }
    if opts.strip {
        img = img.to_stripped();
    }
    Ok(img)
}

#[cfg(test)]
mod tests {
    use super::*;
    use janitizer_asm::{assemble, AsmOptions};
    use janitizer_isa::decode;

    fn obj(name: &str, src: &str, pic: bool) -> Object {
        assemble(name, src, &AsmOptions { pic }).expect("asm")
    }

    #[test]
    fn single_object_executable() {
        let o = obj(
            "a.s",
            ".section text\n.global _start\n_start:\n mov r0, 0\n syscall\n",
            false,
        );
        let img = link(&[o], &LinkOptions::executable("a.out")).unwrap();
        assert!(!img.pic);
        assert_eq!(img.entry, IMAGE_BASE);
        assert!(img.plt.is_empty());
    }

    #[test]
    fn cross_object_call_resolves_directly() {
        let a = obj(
            "a.s",
            ".section text\n.global _start\n_start:\n call helper\n halt\n",
            false,
        );
        let b = obj(
            "b.s",
            ".section text\n.global helper\nhelper:\n ret\n",
            false,
        );
        let img = link(&[a, b], &LinkOptions::executable("a.out")).unwrap();
        assert!(img.plt.is_empty(), "locally-defined calls bypass the PLT");
        // Decode the call and check it lands on `helper`.
        let text = img.section(SectionKind::Text).unwrap();
        let (call, next) = decode(&text.data, 0).unwrap();
        let Instr::Call { rel } = call else {
            panic!("expected call")
        };
        let target = (text.addr + next as u64).wrapping_add(rel as i64 as u64);
        assert_eq!(target, img.symbol("helper").unwrap().value);
    }

    #[test]
    fn undefined_call_gets_plt_and_got() {
        let a = obj(
            "a.s",
            ".section text\n.global _start\n_start:\n call puts\n halt\n",
            false,
        );
        let img = link(&[a], &LinkOptions::executable("a.out").needs("libjc.so")).unwrap();
        assert_eq!(img.plt.len(), 1);
        assert_eq!(img.plt[0].symbol, "puts");
        assert_eq!(img.needed, vec!["libjc.so".to_string()]);
        // GOT slot 0 must be bound to the resolver.
        assert!(matches!(
            &img.dyn_relocs[0].target,
            DynTarget::Symbol(s) if s == RESOLVER_SYMBOL
        ));
        // The call must target the PLT stub.
        let text = img.section(SectionKind::Text).unwrap();
        let (call, next) = decode(&text.data, 0).unwrap();
        let Instr::Call { rel } = call else { panic!() };
        let target = (text.addr + next as u64).wrapping_add(rel as i64 as u64);
        assert_eq!(target, img.plt[0].plt_offset);
        // The stub decodes to lea/ld/jmp.
        let plt = img.section(SectionKind::Plt).unwrap();
        let off = (img.plt[0].plt_offset - plt.addr) as usize;
        let (i1, n1) = decode(&plt.data, off).unwrap();
        assert!(matches!(i1, Instr::LeaPc { rd: Reg::R7, .. }));
        let (i2, n2) = decode(&plt.data, n1).unwrap();
        assert!(matches!(
            i2,
            Instr::Ld {
                rd: Reg::R6,
                base: Reg::R7,
                ..
            }
        ));
        let (i3, _) = decode(&plt.data, n2).unwrap();
        assert!(matches!(i3, Instr::JmpInd { rs: Reg::R6 }));
    }

    #[test]
    fn linked_image_supports_symbolizer_queries() {
        // The forensics symbolizer leans on two Image lookups; pin their
        // behaviour on a linked image with both local symbols and a PLT.
        let a = obj(
            "a.s",
            ".section text\n.global _start\n_start:\n call puts\n halt\n\
             .global helper\nhelper:\n ret\n",
            false,
        );
        let img = link(&[a], &LinkOptions::executable("a.out").needs("libjc.so")).unwrap();
        let start = img.symbol("_start").unwrap().value;
        let helper = img.symbol("helper").unwrap().value;
        // Nearest-preceding: between `_start` and `helper` the earlier
        // symbol wins, with the distance as offset.
        let (s, off) = img.nearest_symbol(helper - 1).unwrap();
        assert_eq!(s.name, "_start");
        assert_eq!(off, helper - 1 - start);
        let (s, off) = img.nearest_symbol(helper).unwrap();
        assert_eq!((s.name.as_str(), off), ("helper", 0));
        assert!(
            img.nearest_symbol(start.wrapping_sub(1)).is_none(),
            "before first symbol"
        );
        // PLT stubs: every byte of the stub maps back to its entry.
        let e = img.plt[0].clone();
        let plt_sec = img.section(SectionKind::Plt).unwrap();
        assert_eq!(
            img.plt_entry_containing(e.plt_offset).unwrap().symbol,
            "puts"
        );
        assert_eq!(
            img.plt_entry_containing(plt_sec.end() - 1).unwrap().symbol,
            "puts"
        );
        assert!(
            img.plt_entry_containing(e.plt_offset - 1).is_none(),
            "text is not PLT"
        );
    }

    #[test]
    fn plt_stub_lea_points_at_got_slot() {
        let a = obj(
            "a.s",
            ".section text\n.global _start\n_start:\n call puts\n halt\n",
            false,
        );
        let img = link(&[a], &LinkOptions::executable("a.out")).unwrap();
        let e = &img.plt[0];
        let plt = img.section(SectionKind::Plt).unwrap();
        let off = (e.plt_offset - plt.addr) as usize;
        let (i1, n1) = decode(&plt.data, off).unwrap();
        let Instr::LeaPc { disp, .. } = i1 else {
            panic!()
        };
        let lea_end = plt.addr + n1 as u64;
        assert_eq!(lea_end.wrapping_add(disp as i64 as u64), e.got_offset);
    }

    #[test]
    fn duplicate_global_symbols_rejected() {
        let a = obj("a.s", ".section text\n.global f\nf:\n ret\n", false);
        let b = obj("b.s", ".section text\n.global f\nf:\n ret\n", false);
        let mut opts = LinkOptions::executable("a.out");
        opts.entry = "f".into();
        assert!(matches!(
            link(&[a, b], &opts),
            Err(LinkError::DuplicateSymbol { .. })
        ));
    }

    #[test]
    fn local_symbols_do_not_clash() {
        let a = obj(
            "a.s",
            ".section text\n.global _start\n_start:\n call helper_a\n halt\nhelper_a:\n ret\nlocal1:\n ret\n",
            false,
        );
        let b = obj(
            "b.s",
            ".section text\n.global helper_a2\nhelper_a2:\n ret\nlocal1:\n ret\n",
            false,
        );
        // Both objects define a local `local1`; this must not error.
        let img = link(&[a, b], &LinkOptions::executable("a.out")).unwrap();
        assert!(img.symbol("_start").is_some());
    }

    #[test]
    fn missing_entry_is_an_error() {
        let a = obj("a.s", ".section text\nf:\n ret\n", false);
        assert_eq!(
            link(&[a], &LinkOptions::executable("a.out")),
            Err(LinkError::MissingEntry("_start".into()))
        );
    }

    #[test]
    fn shared_object_is_pic_with_base_zero() {
        let a = obj(
            "lib.s",
            ".section text\n.global helper\nhelper:\n la r0, value\n ld8 r0, [r0]\n ret\n.section data\nvalue: .quad 7\n",
            true,
        );
        let img = link(&[a], &LinkOptions::shared_object("libdemo.so")).unwrap();
        assert!(img.pic && img.shared);
        let text = img.section(SectionKind::Text).unwrap();
        assert!(
            text.addr < IMAGE_BASE,
            "PIC images are linked at low addresses"
        );
        // PIC `la` resolves to LeaPc patched at link time.
        let (i1, n1) = decode(&text.data, 0).unwrap();
        let Instr::LeaPc { disp, .. } = i1 else {
            panic!("got {i1}")
        };
        let target = (text.addr + n1 as u64).wrapping_add(disp as i64 as u64);
        assert_eq!(target, img.symbol("value").unwrap().value);
    }

    #[test]
    fn pic_jump_table_gets_dynamic_relocs() {
        let a = obj(
            "lib.s",
            ".section text\n.global f\nf:\n ret\ng:\n ret\n.section rodata\ntbl: .quad f, g\n",
            true,
        );
        let img = link(&[a], &LinkOptions::shared_object("libt.so")).unwrap();
        let base_relocs: Vec<_> = img
            .dyn_relocs
            .iter()
            .filter(|d| matches!(d.target, DynTarget::Base(_)))
            .collect();
        assert_eq!(base_relocs.len(), 2);
        let DynTarget::Base(off) = base_relocs[0].target else {
            unreachable!()
        };
        assert_eq!(off, img.symbol("f").unwrap().value);
    }

    #[test]
    fn nonpic_jump_table_is_patched_absolutely() {
        let a = obj(
            "a.s",
            ".section text\n.global _start\n_start:\n ret\n.section rodata\ntbl: .quad _start\n",
            false,
        );
        let img = link(&[a], &LinkOptions::executable("a.out")).unwrap();
        let ro = img.section(SectionKind::Rodata).unwrap();
        let ptr = u64::from_le_bytes(ro.data[..8].try_into().unwrap());
        assert_eq!(ptr, img.entry);
        assert!(img
            .dyn_relocs
            .iter()
            .all(|d| !matches!(d.target, DynTarget::Base(_))));
    }

    #[test]
    fn got_data_slot_for_lg() {
        let a = obj(
            "lib.s",
            ".section text\n.global get\nget:\n lg r0, counter\n ld8 r0, [r0]\n ret\n",
            true,
        );
        let img = link(
            &[a],
            &LinkOptions::shared_object("libg.so").needs("libjc.so"),
        )
        .unwrap();
        // `counter` is imported: its GOT slot needs a symbol search.
        assert!(img
            .dyn_relocs
            .iter()
            .any(|d| matches!(&d.target, DynTarget::Symbol(s) if s == "counter")));
    }

    #[test]
    fn init_fini_recorded() {
        let a = obj(
            "a.s",
            ".section init\ninit_code:\n nop\n ret\n.section text\n.global _start\n_start:\n halt\n.section fini\nfini_code:\n ret\n",
            false,
        );
        let img = link(&[a], &LinkOptions::executable("a.out")).unwrap();
        assert!(img.init.is_some());
        assert!(img.fini.is_some());
        assert_eq!(img.init, img.section(SectionKind::Init).map(|s| s.addr));
    }

    #[test]
    fn stripped_output_keeps_exports_only() {
        let a = obj(
            "lib.s",
            ".section text\n.global api\napi:\n ret\ninternal:\n ret\n",
            true,
        );
        let mut opts = LinkOptions::shared_object("libs.so");
        opts.strip = true;
        let img = link(&[a], &opts).unwrap();
        assert!(img.stripped);
        assert!(img.symbol("api").is_some());
        assert!(img.symbol("internal").is_none());
    }

    #[test]
    fn sections_are_aligned_and_disjoint() {
        let a = obj(
            "a.s",
            ".section text\n.global _start\n_start:\n call puts\n halt\n.section data\nd: .quad 1\n.section bss\nb: .space 100\n",
            false,
        );
        let img = link(&[a], &LinkOptions::executable("a.out")).unwrap();
        let mut prev_end = 0;
        for s in &img.sections {
            assert_eq!(s.addr % SECTION_ALIGN, 0);
            assert!(s.addr >= prev_end, "sections must not overlap");
            prev_end = s.end();
        }
    }

    #[test]
    fn image_serialization_roundtrip_after_link() {
        let a = obj(
            "a.s",
            ".section text\n.global _start\n_start:\n call puts\n halt\n",
            false,
        );
        let img = link(&[a], &LinkOptions::executable("a.out").needs("libjc.so")).unwrap();
        let back = Image::from_bytes(&img.to_bytes()).unwrap();
        assert_eq!(img, back);
    }
}

#[cfg(test)]
mod error_tests {
    use super::*;
    use janitizer_obj::{Reloc, RelocKind, Section, SymBind, SymKind, Symbol};

    #[test]
    fn reloc_into_missing_section_is_rejected() {
        let mut obj = Object::new("bad.o");
        obj.sections
            .push(Section::new(SectionKind::Text, vec![0x6c]));
        obj.symbols.push(Symbol {
            name: "_start".into(),
            kind: SymKind::Func,
            bind: SymBind::Global,
            section: Some(SectionKind::Text),
            value: 0,
            size: 1,
        });
        // Relocation claims to patch .data, which the object lacks.
        obj.relocs.push(Reloc {
            section: SectionKind::Data,
            offset: 0,
            kind: RelocKind::Abs64,
            symbol: "_start".into(),
            addend: 0,
        });
        let err = link(&[obj], &LinkOptions::executable("bad")).unwrap_err();
        assert!(matches!(err, LinkError::BadReloc { .. }), "{err}");
    }

    #[test]
    fn undefined_data_symbol_becomes_loader_responsibility() {
        // An Abs64 against an undefined symbol must not fail the link; it
        // becomes a dynamic relocation for the loader.
        let mut obj = Object::new("d.o");
        let mut data = Section::new(SectionKind::Data, vec![0u8; 8]);
        data.addr = 0;
        obj.sections.push(data);
        obj.sections.push(Section::new(SectionKind::Text, {
            let mut v = Vec::new();
            janitizer_isa::Instr::Ret.encode(&mut v);
            v
        }));
        obj.symbols.push(Symbol {
            name: "_start".into(),
            kind: SymKind::Func,
            bind: SymBind::Global,
            section: Some(SectionKind::Text),
            value: 0,
            size: 1,
        });
        obj.relocs.push(Reloc {
            section: SectionKind::Data,
            offset: 0,
            kind: RelocKind::Abs64,
            symbol: "external_thing".into(),
            addend: 0,
        });
        let img = link(&[obj], &LinkOptions::executable("d").needs("libx.so")).unwrap();
        assert!(img
            .dyn_relocs
            .iter()
            .any(|r| matches!(&r.target, DynTarget::Symbol(s) if s == "external_thing")));
    }

    #[test]
    fn symbol_in_absent_section_does_not_panic() {
        // A hostile object can declare a symbol in a section kind it never
        // defines; the linker must not index into the layout map for it.
        let mut obj = Object::new("ghost.o");
        obj.sections.push(Section::new(SectionKind::Text, {
            let mut v = Vec::new();
            janitizer_isa::Instr::Ret.encode(&mut v);
            v
        }));
        obj.symbols.push(Symbol {
            name: "_start".into(),
            kind: SymKind::Func,
            bind: SymBind::Global,
            section: Some(SectionKind::Text),
            value: 0,
            size: 1,
        });
        obj.symbols.push(Symbol {
            name: "ghost".into(),
            kind: SymKind::Object,
            bind: SymBind::Global,
            section: Some(SectionKind::Data), // no data section exists
            value: 0x10,
            size: 8,
        });
        let img = link(&[obj], &LinkOptions::executable("ghost")).unwrap();
        assert!(img.symbol("ghost").is_none(), "ghost symbol has no address");
        assert!(img.symbol("_start").is_some());
    }

    #[test]
    fn oversized_bss_is_a_typed_error() {
        let mut obj = Object::new("big.o");
        obj.sections.push(Section::new(SectionKind::Text, {
            let mut v = Vec::new();
            janitizer_isa::Instr::Ret.encode(&mut v);
            v
        }));
        let mut huge = Section::zeroed(SectionKind::Bss, u64::MAX - 4);
        huge.addr = 0;
        obj.sections.push(huge);
        let mut huge2 = Section::zeroed(SectionKind::Bss, u64::MAX - 4);
        huge2.addr = 0;
        let mut obj2 = Object::new("big2.o");
        obj2.sections.push(huge2);
        obj.symbols.push(Symbol {
            name: "_start".into(),
            kind: SymKind::Func,
            bind: SymBind::Global,
            section: Some(SectionKind::Text),
            value: 0,
            size: 1,
        });
        let err = link(&[obj, obj2], &LinkOptions::executable("big")).unwrap_err();
        assert!(matches!(err, LinkError::ImageTooLarge { .. }), "{err}");
    }

    #[test]
    fn error_display_is_informative() {
        let e = LinkError::DuplicateSymbol {
            symbol: "f".into(),
            objects: ("a.o".into(), "b.o".into()),
        };
        assert!(format!("{e}").contains("duplicate symbol `f`"));
        let e = LinkError::MissingEntry("_start".into());
        assert!(format!("{e}").contains("_start"));
        let e = LinkError::RelocOutOfRange { symbol: "g".into() };
        assert!(format!("{e}").contains("out of range"));
    }
}
