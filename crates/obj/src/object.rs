//! Relocatable objects: sections, symbols and relocations.

use crate::format::{cap_alloc, FormatError, Reader, Writer};
use crate::{MAX_IMAGE_SPAN, OBJ_MAGIC};

const OBJ_VERSION: u32 = 1;

/// The role of a section, which determines placement and permissions.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum SectionKind {
    /// Initialization code, run before `main` (like ELF `.init`).
    Init = 0,
    /// Procedure-linkage-table stubs (linker-synthesized).
    Plt = 1,
    /// Ordinary program code.
    Text = 2,
    /// Finalization code, run at exit (like ELF `.fini`).
    Fini = 3,
    /// Read-only data.
    Rodata = 4,
    /// Global-offset table (linker-synthesized).
    Got = 5,
    /// Initialized writable data.
    Data = 6,
    /// Zero-initialized writable data (occupies no file bytes).
    Bss = 7,
}

impl SectionKind {
    /// All kinds, in their canonical layout order within an image.
    pub const LAYOUT_ORDER: [SectionKind; 8] = [
        SectionKind::Init,
        SectionKind::Plt,
        SectionKind::Text,
        SectionKind::Fini,
        SectionKind::Rodata,
        SectionKind::Got,
        SectionKind::Data,
        SectionKind::Bss,
    ];

    /// Whether the section holds executable code.
    pub fn is_code(self) -> bool {
        matches!(
            self,
            SectionKind::Init | SectionKind::Plt | SectionKind::Text | SectionKind::Fini
        )
    }

    /// Whether the section is writable at run time.
    pub fn is_writable(self) -> bool {
        matches!(
            self,
            SectionKind::Got | SectionKind::Data | SectionKind::Bss
        )
    }

    /// Conventional section name (`.text`, `.data`, ...).
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Init => ".init",
            SectionKind::Plt => ".plt",
            SectionKind::Text => ".text",
            SectionKind::Fini => ".fini",
            SectionKind::Rodata => ".rodata",
            SectionKind::Got => ".got",
            SectionKind::Data => ".data",
            SectionKind::Bss => ".bss",
        }
    }

    fn from_u8(v: u8) -> Result<SectionKind, FormatError> {
        Self::LAYOUT_ORDER
            .iter()
            .copied()
            .find(|k| *k as u8 == v)
            .ok_or(FormatError::BadTag {
                what: "section kind",
                value: v as u32,
            })
    }
}

/// A named chunk of bytes within an [`Object`] or [`crate::Image`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Section {
    /// Role of the section.
    pub kind: SectionKind,
    /// Start address. Section-relative 0 in objects; module-relative (PIC)
    /// or absolute (non-PIC executable) in images.
    pub addr: u64,
    /// Contents. Empty for `.bss`.
    pub data: Vec<u8>,
    /// Size in memory; equals `data.len()` except for `.bss`.
    pub mem_size: u64,
}

impl Section {
    /// Decode-time invariants for a section read from untrusted bytes:
    /// the span must fit in [`MAX_IMAGE_SPAN`] without overflow and the
    /// file bytes must not exceed the memory size. Enforced by both
    /// [`Object::from_bytes`] and [`crate::Image::from_bytes`] so every
    /// consumer can rely on `addr + mem_size` arithmetic being safe.
    pub(crate) fn validate(&self) -> Result<(), FormatError> {
        match self.addr.checked_add(self.mem_size) {
            Some(end) if end <= MAX_IMAGE_SPAN => {}
            _ => {
                return Err(FormatError::Invalid {
                    what: "section span",
                })
            }
        }
        if self.data.len() as u64 > self.mem_size {
            return Err(FormatError::Invalid {
                what: "section data size",
            });
        }
        Ok(())
    }

    /// Creates a section whose memory size equals its data length.
    pub fn new(kind: SectionKind, data: Vec<u8>) -> Section {
        let mem_size = data.len() as u64;
        Section {
            kind,
            addr: 0,
            data,
            mem_size,
        }
    }

    /// Creates a `.bss`-style section of `size` zero bytes.
    pub fn zeroed(kind: SectionKind, size: u64) -> Section {
        Section {
            kind,
            addr: 0,
            data: Vec::new(),
            mem_size: size,
        }
    }

    /// Address one past the section's last byte.
    pub fn end(&self) -> u64 {
        self.addr + self.mem_size
    }

    /// Whether `addr` falls inside this section.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.addr && addr < self.end()
    }
}

/// Whether a symbol names code or data.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum SymKind {
    /// A function entry point.
    Func = 0,
    /// A data object.
    Object = 1,
}

/// Symbol binding/visibility.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum SymBind {
    /// Visible only within the defining module.
    Local = 0,
    /// Visible across modules; participates in dynamic linking.
    Global = 1,
}

/// A symbol-table entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Symbol {
    /// Symbol name.
    pub name: String,
    /// Code or data.
    pub kind: SymKind,
    /// Local or global.
    pub bind: SymBind,
    /// Defining section, or `None` for undefined (imported) symbols.
    pub section: Option<SectionKind>,
    /// Value: section-relative in objects, module-relative in images.
    pub value: u64,
    /// Size in bytes (0 when unknown).
    pub size: u64,
}

impl Symbol {
    /// Whether the symbol is undefined and must be resolved at link or
    /// load time.
    pub fn is_undefined(&self) -> bool {
        self.section.is_none()
    }

    /// Decode-time invariant for a symbol read from untrusted bytes: its
    /// `[value, value + size]` range must fit in [`MAX_IMAGE_SPAN`], so
    /// range queries like [`crate::Image::function_containing`] cannot
    /// overflow.
    pub(crate) fn validate(&self) -> Result<(), FormatError> {
        match self.value.checked_add(self.size) {
            Some(end) if end < MAX_IMAGE_SPAN => Ok(()),
            _ => Err(FormatError::Invalid {
                what: "symbol range",
            }),
        }
    }
}

/// Relocation kinds understood by the linker and loader.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum RelocKind {
    /// Patch 8 bytes with the absolute address `S + A`.
    Abs64 = 0,
    /// Patch 4 bytes with `S + A - P` where `P` is the address *after* the
    /// 4 patched bytes (matching JX-64's end-of-instruction-relative
    /// branches and `lea pc` displacements).
    Pc32 = 1,
    /// Like [`RelocKind::Pc32`], but `S` is the address of the symbol's GOT
    /// slot; forces the linker to allocate one.
    GotPc32 = 2,
    /// Like [`RelocKind::Pc32`], but `S` is the symbol's PLT stub when the
    /// symbol is (or may be) defined in another module.
    Plt32 = 3,
}

impl RelocKind {
    fn from_u8(v: u8) -> Result<RelocKind, FormatError> {
        Ok(match v {
            0 => RelocKind::Abs64,
            1 => RelocKind::Pc32,
            2 => RelocKind::GotPc32,
            3 => RelocKind::Plt32,
            _ => {
                return Err(FormatError::BadTag {
                    what: "relocation kind",
                    value: v as u32,
                })
            }
        })
    }
}

/// A relocation record in a relocatable object.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Reloc {
    /// Section whose contents are patched.
    pub section: SectionKind,
    /// Offset of the patched bytes within that section.
    pub offset: u64,
    /// How to patch.
    pub kind: RelocKind,
    /// Name of the referenced symbol.
    pub symbol: String,
    /// Constant addend.
    pub addend: i64,
}

/// A relocatable object file: the assembler's output, the linker's input.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Object {
    /// Object name (usually the source file name).
    pub name: String,
    /// Sections present in this object (at most one per [`SectionKind`]).
    pub sections: Vec<Section>,
    /// Symbol table.
    pub symbols: Vec<Symbol>,
    /// Relocations to apply at link time.
    pub relocs: Vec<Reloc>,
}

impl Object {
    /// Creates an empty object with the given name.
    pub fn new(name: impl Into<String>) -> Object {
        Object {
            name: name.into(),
            ..Object::default()
        }
    }

    /// Returns the section of the given kind, if present.
    pub fn section(&self, kind: SectionKind) -> Option<&Section> {
        self.sections.iter().find(|s| s.kind == kind)
    }

    /// Returns a defined symbol by name.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// Serializes the object.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_header(OBJ_MAGIC, OBJ_VERSION);
        w.put_str(&self.name);
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
            match s.section {
                Some(k) => {
                    w.put_u8(1);
                    w.put_u8(k as u8);
                }
                None => {
                    w.put_u8(0);
                    w.put_u8(0);
                }
            }
            w.put_u64(s.value);
            w.put_u64(s.size);
        }
        w.put_u32(self.relocs.len() as u32);
        for r in &self.relocs {
            w.put_u8(r.section as u8);
            w.put_u64(r.offset);
            w.put_u8(r.kind as u8);
            w.put_str(&r.symbol);
            w.put_i64(r.addend);
        }
        w.into_bytes()
    }

    /// Deserializes an object.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] on bad magic, truncation or invalid tags.
    pub fn from_bytes(bytes: &[u8]) -> Result<Object, FormatError> {
        let (mut r, version) = Reader::with_header(bytes, OBJ_MAGIC)?;
        if version != OBJ_VERSION {
            return Err(FormatError::BadVersion(version));
        }
        let name = r.str()?;
        let nsec = r.u32()?;
        // Preallocations are capped by what the remaining input could
        // actually encode: a corrupted count field yields a clean
        // `Truncated` error, never a monster allocation.
        let mut sections = Vec::with_capacity(cap_alloc(nsec, r.remaining(), 21));
        for _ in 0..nsec {
            let kind = SectionKind::from_u8(r.u8()?)?;
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
            sections.push(s);
        }
        let nsym = r.u32()?;
        let mut symbols = Vec::with_capacity(cap_alloc(nsym, r.remaining(), 24));
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
            let raw_kind = r.u8()?;
            let section = if has_section {
                Some(SectionKind::from_u8(raw_kind)?)
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
            symbols.push(sym);
        }
        let nrel = r.u32()?;
        let mut relocs = Vec::with_capacity(cap_alloc(nrel, r.remaining(), 22));
        for _ in 0..nrel {
            let section = SectionKind::from_u8(r.u8()?)?;
            let offset = r.u64()?;
            if offset > MAX_IMAGE_SPAN {
                return Err(FormatError::Invalid {
                    what: "relocation offset",
                });
            }
            let kind = RelocKind::from_u8(r.u8()?)?;
            let symbol = r.str()?;
            let addend = r.i64()?;
            relocs.push(Reloc {
                section,
                offset,
                kind,
                symbol,
                addend,
            });
        }
        Ok(Object {
            name,
            sections,
            symbols,
            relocs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_object() -> Object {
        let mut o = Object::new("sample.jo");
        o.sections
            .push(Section::new(SectionKind::Text, vec![0x6c, 0x00]));
        o.sections
            .push(Section::new(SectionKind::Data, vec![0; 16]));
        o.sections.push(Section::zeroed(SectionKind::Bss, 64));
        o.symbols.push(Symbol {
            name: "main".into(),
            kind: SymKind::Func,
            bind: SymBind::Global,
            section: Some(SectionKind::Text),
            value: 0,
            size: 2,
        });
        o.symbols.push(Symbol {
            name: "puts".into(),
            kind: SymKind::Func,
            bind: SymBind::Global,
            section: None,
            value: 0,
            size: 0,
        });
        o.relocs.push(Reloc {
            section: SectionKind::Text,
            offset: 1,
            kind: RelocKind::Plt32,
            symbol: "puts".into(),
            addend: 0,
        });
        o
    }

    #[test]
    fn object_roundtrip() {
        let o = sample_object();
        let bytes = o.to_bytes();
        let back = Object::from_bytes(&bytes).unwrap();
        assert_eq!(o, back);
    }

    #[test]
    fn undefined_symbol_detection() {
        let o = sample_object();
        assert!(!o.symbol("main").unwrap().is_undefined());
        assert!(o.symbol("puts").unwrap().is_undefined());
        assert!(o.symbol("nope").is_none());
    }

    #[test]
    fn section_kind_properties() {
        assert!(SectionKind::Text.is_code());
        assert!(SectionKind::Plt.is_code());
        assert!(!SectionKind::Data.is_code());
        assert!(SectionKind::Data.is_writable());
        assert!(!SectionKind::Rodata.is_writable());
        assert_eq!(SectionKind::Text.name(), ".text");
    }

    #[test]
    fn section_contains() {
        let mut s = Section::new(SectionKind::Text, vec![0; 10]);
        s.addr = 100;
        assert!(s.contains(100));
        assert!(s.contains(109));
        assert!(!s.contains(110));
        assert!(!s.contains(99));
        assert_eq!(s.end(), 110);
    }

    #[test]
    fn corrupt_input_rejected() {
        let o = sample_object();
        let mut bytes = o.to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Object::from_bytes(&bytes),
            Err(FormatError::BadMagic { .. })
        ));
        let bytes = o.to_bytes();
        assert!(Object::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }
}
