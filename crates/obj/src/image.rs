//! Linked images: executables and shared objects ready to be loaded.

use crate::format::{checksum64, FormatError, Reader, Writer};
use crate::object::{Section, SectionKind, SymBind, SymKind, Symbol};
use crate::{IMG_MAGIC, MAX_IMAGE_SPAN};

const IMG_VERSION: u32 = 1;

/// Alignment of each section within an image's address space.
pub const SECTION_ALIGN: u64 = 0x40;

/// The CET-style landing-pad anchor: the encoding of
/// `test r0, 0x414c50` — a flags-only instruction with a magic
/// immediate (`"PLA"`), executable as a no-op at any indirect-entry
/// point, analogous to x86 `ENDBR64`. Toolchains that opt in place it at
/// indirect-call/jump targets; [`Image::anchor_addrs`] scans for it and
/// the static analyzer treats the hits as sound indirect-target ground
/// truth.
pub const ANCHOR_SEQ: [u8; 6] = [0x4c, 0x00, 0x50, 0x4c, 0x41, 0x00];

/// One procedure-linkage-table stub within an [`Image`].
///
/// A PLT stub is the local, statically-known entry point for a function
/// that may live in another module; calls to it go through the GOT slot at
/// `got_offset`, which the loader binds either eagerly or lazily.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PltEntry {
    /// Imported symbol name.
    pub symbol: String,
    /// Module-relative address of the stub in `.plt`.
    pub plt_offset: u64,
    /// Module-relative address of the associated GOT slot.
    pub got_offset: u64,
}

/// What a dynamic relocation resolves to.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DynTarget {
    /// The load-time address of a named symbol (searched across modules).
    Symbol(String),
    /// `module_load_base + offset` — a module-local pointer that only needs
    /// rebasing (PIC images only).
    Base(u64),
}

/// An 8-byte slot the loader must patch when the module is loaded.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DynReloc {
    /// Module-relative address of the slot.
    pub offset: u64,
    /// Value to store.
    pub target: DynTarget,
}

/// A linked module: the loader's unit of mapping, and the static
/// analyzer's unit of analysis.
///
/// Position-independent images have `pic == true` and addresses relative
/// to 0; position-dependent executables have `pic == false` and absolute
/// addresses starting at [`crate::IMAGE_BASE`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Image {
    /// Module name (e.g. `a.out`, `libjc.so`).
    pub name: String,
    /// Whether the image is position-independent.
    pub pic: bool,
    /// Whether this is a shared object (as opposed to the main executable).
    pub shared: bool,
    /// Whether the full symbol table was stripped, leaving only exports.
    /// JCFI falls back to a weaker policy for stripped modules (§4.2.2).
    pub stripped: bool,
    /// Entry point (for executables): address of `_start`.
    pub entry: u64,
    /// Address of the `.init` routine to run at load, if any.
    pub init: Option<u64>,
    /// Address of the `.fini` routine to run at exit, if any.
    pub fini: Option<u64>,
    /// Sections with their final (module-relative or absolute) addresses.
    pub sections: Vec<Section>,
    /// Symbol table (module-relative values). Contains at least the
    /// exported symbols; full function symbols unless `stripped`.
    pub symbols: Vec<Symbol>,
    /// Names of shared objects this module depends on (like `DT_NEEDED`).
    pub needed: Vec<String>,
    /// PLT stubs for imported functions.
    pub plt: Vec<PltEntry>,
    /// Dynamic relocations the loader applies at load time.
    pub dyn_relocs: Vec<DynReloc>,
}

impl Image {
    /// Creates an empty image.
    pub fn new(name: impl Into<String>, pic: bool, shared: bool) -> Image {
        Image {
            name: name.into(),
            pic,
            shared,
            stripped: false,
            entry: 0,
            init: None,
            fini: None,
            sections: Vec::new(),
            symbols: Vec::new(),
            needed: Vec::new(),
            plt: Vec::new(),
            dyn_relocs: Vec::new(),
        }
    }

    /// Returns the section of the given kind, if present.
    pub fn section(&self, kind: SectionKind) -> Option<&Section> {
        self.sections.iter().find(|s| s.kind == kind)
    }

    /// Returns the section containing `addr` (module-relative/absolute,
    /// matching the image's own address space).
    pub fn section_containing(&self, addr: u64) -> Option<&Section> {
        self.sections.iter().find(|s| s.contains(addr))
    }

    /// Iterates over the executable sections in layout order.
    pub fn code_sections(&self) -> impl Iterator<Item = &Section> {
        self.sections.iter().filter(|s| s.kind.is_code())
    }

    /// Total bytes of executable code (the `S` denominator of the static
    /// AIR metric).
    pub fn code_bytes(&self) -> u64 {
        self.code_sections().map(|s| s.mem_size).sum()
    }

    /// One past the highest address used by any section.
    pub fn image_end(&self) -> u64 {
        self.sections.iter().map(Section::end).max().unwrap_or(0)
    }

    /// Looks up a defined symbol by name.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols
            .iter()
            .find(|s| s.name == name && !s.is_undefined())
    }

    /// Looks up an *exported* (global, defined) symbol by name — the set
    /// visible to other modules at load time.
    pub fn export(&self, name: &str) -> Option<&Symbol> {
        self.symbols
            .iter()
            .find(|s| s.name == name && s.bind == SymBind::Global && !s.is_undefined())
    }

    /// Iterates over all exported symbols.
    pub fn exports(&self) -> impl Iterator<Item = &Symbol> {
        self.symbols
            .iter()
            .filter(|s| s.bind == SymBind::Global && !s.is_undefined())
    }

    /// Iterates over defined function symbols — the function-boundary
    /// information JCFI's static analysis uses (§4.2.1).
    pub fn functions(&self) -> impl Iterator<Item = &Symbol> {
        self.symbols
            .iter()
            .filter(|s| s.kind == SymKind::Func && !s.is_undefined())
    }

    /// Names of functions this module imports through its PLT.
    pub fn imported_functions(&self) -> impl Iterator<Item = &str> {
        self.plt.iter().map(|p| p.symbol.as_str())
    }

    /// Returns the function symbol whose `[value, value+size)` range
    /// contains `addr`, if any.
    pub fn function_containing(&self, addr: u64) -> Option<&Symbol> {
        self.functions()
            .find(|s| addr >= s.value && addr < s.value + s.size.max(1))
    }

    /// Returns the nearest defined function symbol at or preceding `addr`
    /// together with the offset from its start. This is the symbolizer's
    /// fallback when no symbol's `[value, value+size)` range contains the
    /// address (assembler-produced symbols often carry size 0); ties on
    /// `value` break toward the lexically smallest name so lookups are
    /// deterministic.
    pub fn nearest_symbol(&self, addr: u64) -> Option<(&Symbol, u64)> {
        self.functions()
            .filter(|s| s.value <= addr)
            .max_by(|a, b| a.value.cmp(&b.value).then(b.name.cmp(&a.name)))
            .map(|s| (s, addr - s.value))
    }

    /// Returns the PLT entry whose stub contains the module-relative
    /// `addr`. A stub extends from its `plt_offset` to the next entry's
    /// (or the end of the section holding it), so any pc inside the stub
    /// resolves to the imported symbol.
    pub fn plt_entry_containing(&self, addr: u64) -> Option<&PltEntry> {
        let entry = self
            .plt
            .iter()
            .filter(|p| p.plt_offset <= addr)
            .max_by_key(|p| p.plt_offset)?;
        let next = self
            .plt
            .iter()
            .map(|p| p.plt_offset)
            .filter(|&o| o > entry.plt_offset)
            .min();
        let end = next.or_else(|| self.section_containing(entry.plt_offset).map(Section::end))?;
        (addr < end).then_some(entry)
    }

    /// Produces a stripped copy: local and function symbols removed,
    /// keeping only exported globals (what `strip` leaves in `.dynsym`).
    pub fn to_stripped(&self) -> Image {
        let mut img = self.clone();
        img.stripped = true;
        img.symbols
            .retain(|s| s.bind == SymBind::Global && !s.is_undefined());
        img
    }

    /// Addresses of every landing-pad anchor ([`ANCHOR_SEQ`]) in the
    /// image's code sections. The static analyzer treats these as sound
    /// indirect-entry ground truth: the marker is a flags-only `test`
    /// with a magic immediate (the ENDBR analogue), so executing through
    /// it is a no-op and scanning for it cannot be confused by ordinary
    /// immediates shorter than the full 6-byte pattern.
    pub fn anchor_addrs(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for sec in self.sections.iter().filter(|s| s.kind.is_code()) {
            for (off, w) in sec.data.windows(ANCHOR_SEQ.len()).enumerate() {
                // The first-byte test skips the slice compare on almost
                // every offset.
                if w[0] == ANCHOR_SEQ[0] && w == ANCHOR_SEQ {
                    out.push(sec.addr + off as u64);
                }
            }
        }
        out
    }

    /// Content fingerprint of the module: a checksum over the text
    /// section and the symbol table. Stored in every rule file's
    /// integrity header so the hybrid driver can detect stale rules —
    /// rules computed for a *different build* of a same-named module —
    /// and degrade that module to dynamic-only mode instead of applying
    /// wrong-address rewrites.
    pub fn fingerprint(&self) -> u64 {
        let mut w = Writer::new();
        if let Some(text) = self.section(SectionKind::Text) {
            w.put_u64(text.addr);
            w.put_u64(text.mem_size);
            w.put_bytes(&text.data);
        }
        for s in &self.symbols {
            w.put_str(&s.name);
            w.put_u8(s.kind as u8);
            w.put_u8(s.bind as u8);
            w.put_u8(s.section.map(|k| k as u8 + 1).unwrap_or(0));
            w.put_u64(s.value);
            w.put_u64(s.size);
        }
        checksum64(&w.into_bytes())
    }

    /// Serializes the image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_header(IMG_MAGIC, IMG_VERSION);
        w.put_str(&self.name);
        w.put_u8(self.pic as u8);
        w.put_u8(self.shared as u8);
        w.put_u8(self.stripped as u8);
        w.put_u64(self.entry);
        w.put_u8(self.init.is_some() as u8);
        w.put_u64(self.init.unwrap_or(0));
        w.put_u8(self.fini.is_some() as u8);
        w.put_u64(self.fini.unwrap_or(0));
        w.put_u32(self.sections.len() as u32);
        for s in &self.sections {
            w.put_u8(s.kind as u8);
            w.put_u64(s.addr);
            w.put_u64(s.mem_size);
            w.put_bytes(&s.data);
        }
        w.put_u32(self.symbols.len() as u32);
        for s in &self.symbols {
            w.put_str(&s.name);
            w.put_u8(s.kind as u8);
            w.put_u8(s.bind as u8);
            w.put_u8(s.section.is_some() as u8);
            w.put_u8(s.section.map(|k| k as u8).unwrap_or(0));
            w.put_u64(s.value);
            w.put_u64(s.size);
        }
        w.put_u32(self.needed.len() as u32);
        for n in &self.needed {
            w.put_str(n);
        }
        w.put_u32(self.plt.len() as u32);
        for p in &self.plt {
            w.put_str(&p.symbol);
            w.put_u64(p.plt_offset);
            w.put_u64(p.got_offset);
        }
        w.put_u32(self.dyn_relocs.len() as u32);
        for d in &self.dyn_relocs {
            w.put_u64(d.offset);
            match &d.target {
                DynTarget::Symbol(s) => {
                    w.put_u8(0);
                    w.put_str(s);
                    w.put_u64(0);
                }
                DynTarget::Base(off) => {
                    w.put_u8(1);
                    w.put_str("");
                    w.put_u64(*off);
                }
            }
        }
        w.into_bytes()
    }

    /// Deserializes an image.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] on bad magic, truncation or invalid tags.
    pub fn from_bytes(bytes: &[u8]) -> Result<Image, FormatError> {
        let (mut r, version) = Reader::with_header(bytes, IMG_MAGIC)?;
        if version != IMG_VERSION {
            return Err(FormatError::BadVersion(version));
        }
        let name = r.str()?;
        let pic = r.u8()? != 0;
        let shared = r.u8()? != 0;
        let stripped = r.u8()? != 0;
        let entry = r.u64()?;
        let has_init = r.u8()? != 0;
        let init_v = r.u64()?;
        let has_fini = r.u8()? != 0;
        let fini_v = r.u64()?;
        let mut img = Image::new(name, pic, shared);
        img.stripped = stripped;
        img.entry = entry;
        img.init = has_init.then_some(init_v);
        img.fini = has_fini.then_some(fini_v);
        for (what, v) in [
            ("entry point", entry),
            ("init address", if has_init { init_v } else { 0 }),
            ("fini address", if has_fini { fini_v } else { 0 }),
        ] {
            if v > MAX_IMAGE_SPAN {
                return Err(FormatError::Invalid { what });
            }
        }
        let nsec = r.u32()?;
        for _ in 0..nsec {
            let kind_raw = r.u8()?;
            let kind = SectionKind::LAYOUT_ORDER
                .iter()
                .copied()
                .find(|k| *k as u8 == kind_raw)
                .ok_or(FormatError::BadTag {
                    what: "section kind",
                    value: kind_raw as u32,
                })?;
            let addr = r.u64()?;
            let mem_size = r.u64()?;
            let data = r.bytes()?;
            let s = Section {
                kind,
                addr,
                data,
                mem_size,
            };
            s.validate()?;
            img.sections.push(s);
        }
        let nsym = r.u32()?;
        for _ in 0..nsym {
            let name = r.str()?;
            let kind = match r.u8()? {
                0 => SymKind::Func,
                1 => SymKind::Object,
                v => {
                    return Err(FormatError::BadTag {
                        what: "symbol kind",
                        value: v as u32,
                    })
                }
            };
            let bind = match r.u8()? {
                0 => SymBind::Local,
                1 => SymBind::Global,
                v => {
                    return Err(FormatError::BadTag {
                        what: "symbol binding",
                        value: v as u32,
                    })
                }
            };
            let has_section = r.u8()? != 0;
            let raw = r.u8()?;
            let section = if has_section {
                Some(
                    SectionKind::LAYOUT_ORDER
                        .iter()
                        .copied()
                        .find(|k| *k as u8 == raw)
                        .ok_or(FormatError::BadTag {
                            what: "symbol section",
                            value: raw as u32,
                        })?,
                )
            } else {
                None
            };
            let value = r.u64()?;
            let size = r.u64()?;
            let sym = Symbol {
                name,
                kind,
                bind,
                section,
                value,
                size,
            };
            sym.validate()?;
            img.symbols.push(sym);
        }
        let nneed = r.u32()?;
        for _ in 0..nneed {
            img.needed.push(r.str()?);
        }
        let nplt = r.u32()?;
        for _ in 0..nplt {
            let symbol = r.str()?;
            let plt_offset = r.u64()?;
            let got_offset = r.u64()?;
            if plt_offset > MAX_IMAGE_SPAN || got_offset > MAX_IMAGE_SPAN {
                return Err(FormatError::Invalid { what: "plt entry" });
            }
            img.plt.push(PltEntry {
                symbol,
                plt_offset,
                got_offset,
            });
        }
        let nrel = r.u32()?;
        for _ in 0..nrel {
            let offset = r.u64()?;
            if offset > MAX_IMAGE_SPAN {
                return Err(FormatError::Invalid {
                    what: "dyn reloc offset",
                });
            }
            let tag = r.u8()?;
            let sym = r.str()?;
            let off = r.u64()?;
            let target = match tag {
                0 => DynTarget::Symbol(sym),
                1 if off > MAX_IMAGE_SPAN => {
                    return Err(FormatError::Invalid {
                        what: "dyn reloc base offset",
                    })
                }
                1 => DynTarget::Base(off),
                v => {
                    return Err(FormatError::BadTag {
                        what: "dyn reloc target",
                        value: v as u32,
                    })
                }
            };
            img.dyn_relocs.push(DynReloc { offset, target });
        }
        Ok(img)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_image() -> Image {
        let mut img = Image::new("libdemo.so", true, true);
        let mut text = Section::new(SectionKind::Text, vec![0x6c; 32]);
        text.addr = 0x100;
        let mut plt = Section::new(SectionKind::Plt, vec![0x00; 16]);
        plt.addr = 0x80;
        let mut got = Section::new(SectionKind::Got, vec![0; 24]);
        got.addr = 0x200;
        let mut data = Section::zeroed(SectionKind::Bss, 128);
        data.addr = 0x300;
        img.sections.extend([plt, text, got, data]);
        img.entry = 0x100;
        img.init = Some(0x100);
        img.symbols.push(Symbol {
            name: "helper".into(),
            kind: SymKind::Func,
            bind: SymBind::Global,
            section: Some(SectionKind::Text),
            value: 0x110,
            size: 16,
        });
        img.symbols.push(Symbol {
            name: "internal".into(),
            kind: SymKind::Func,
            bind: SymBind::Local,
            section: Some(SectionKind::Text),
            value: 0x100,
            size: 16,
        });
        img.needed.push("libjc.so".into());
        img.plt.push(PltEntry {
            symbol: "puts".into(),
            plt_offset: 0x80,
            got_offset: 0x208,
        });
        img.dyn_relocs.push(DynReloc {
            offset: 0x208,
            target: DynTarget::Symbol("puts".into()),
        });
        img.dyn_relocs.push(DynReloc {
            offset: 0x210,
            target: DynTarget::Base(0x110),
        });
        img
    }

    #[test]
    fn image_roundtrip() {
        let img = sample_image();
        let back = Image::from_bytes(&img.to_bytes()).unwrap();
        assert_eq!(img, back);
    }

    #[test]
    fn lookup_helpers() {
        let img = sample_image();
        assert!(img.section(SectionKind::Text).is_some());
        assert_eq!(
            img.section_containing(0x105).unwrap().kind,
            SectionKind::Text
        );
        assert_eq!(img.section_containing(0x84).unwrap().kind, SectionKind::Plt);
        assert!(img.section_containing(0x4000).is_none());
        assert_eq!(img.code_bytes(), 48);
        assert_eq!(img.image_end(), 0x300 + 128);
    }

    #[test]
    fn export_visibility() {
        let img = sample_image();
        assert!(img.export("helper").is_some());
        assert!(img.export("internal").is_none(), "locals are not exported");
        assert_eq!(img.exports().count(), 1);
        assert_eq!(img.functions().count(), 2);
        assert_eq!(img.imported_functions().collect::<Vec<_>>(), vec!["puts"]);
    }

    #[test]
    fn function_containing_respects_ranges() {
        let img = sample_image();
        assert_eq!(img.function_containing(0x118).unwrap().name, "helper");
        assert_eq!(img.function_containing(0x100).unwrap().name, "internal");
        assert!(img.function_containing(0x90).is_none());
    }

    #[test]
    fn stripping_removes_locals() {
        let img = sample_image().to_stripped();
        assert!(img.stripped);
        assert!(img.symbol("internal").is_none());
        assert!(img.symbol("helper").is_some());
    }
}
