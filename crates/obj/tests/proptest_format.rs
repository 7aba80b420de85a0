//! Property tests: arbitrary objects and images survive serialization,
//! and corrupted containers never panic the decoder.

use janitizer_obj::*;
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = SectionKind> {
    prop::sample::select(SectionKind::LAYOUT_ORDER.to_vec())
}

fn arb_section() -> impl Strategy<Value = Section> {
    (
        arb_kind(),
        0u64..0x1_0000,
        prop::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(kind, addr, data)| {
            let mut s = if kind == SectionKind::Bss {
                Section::zeroed(kind, data.len() as u64 + 8)
            } else {
                Section::new(kind, data)
            };
            s.addr = addr;
            s
        })
}

fn arb_symbol() -> impl Strategy<Value = Symbol> {
    (
        "[a-zA-Z_][a-zA-Z0-9_]{0,14}",
        any::<bool>(),
        any::<bool>(),
        prop::option::of(arb_kind()),
        0u64..0x1_0000,
        0u64..256,
    )
        .prop_map(|(name, func, global, section, value, size)| Symbol {
            name,
            kind: if func { SymKind::Func } else { SymKind::Object },
            bind: if global {
                SymBind::Global
            } else {
                SymBind::Local
            },
            section,
            value,
            size,
        })
}

fn arb_reloc() -> impl Strategy<Value = Reloc> {
    (
        arb_kind(),
        0u64..0x1000,
        prop::sample::select(vec![
            RelocKind::Abs64,
            RelocKind::Pc32,
            RelocKind::GotPc32,
            RelocKind::Plt32,
        ]),
        "[a-z_][a-z0-9_]{0,10}",
        -1000i64..1000,
    )
        .prop_map(|(section, offset, kind, symbol, addend)| Reloc {
            section,
            offset,
            kind,
            symbol,
            addend,
        })
}

fn arb_object() -> impl Strategy<Value = Object> {
    (
        "[a-z][a-z0-9_.]{0,12}",
        prop::collection::vec(arb_section(), 0..6),
        prop::collection::vec(arb_symbol(), 0..12),
        prop::collection::vec(arb_reloc(), 0..12),
    )
        .prop_map(|(name, sections, symbols, relocs)| Object {
            name,
            sections,
            symbols,
            relocs,
        })
}

fn arb_image() -> impl Strategy<Value = Image> {
    (
        arb_object(),
        any::<bool>(),
        any::<bool>(),
        prop::collection::vec("[a-z]{1,8}\\.so", 0..4),
        prop::collection::vec((0u64..0x1000, "[a-z]{1,8}", any::<bool>()), 0..6),
    )
        .prop_map(|(obj, pic, shared, needed, rels)| {
            let mut img = Image::new(obj.name.clone(), pic, shared);
            img.sections = obj.sections;
            img.symbols = obj.symbols;
            img.needed = needed;
            img.entry = 0x40;
            img.init = Some(0x80);
            img.dyn_relocs = rels
                .into_iter()
                .map(|(offset, sym, by_symbol)| DynReloc {
                    offset,
                    target: if by_symbol {
                        DynTarget::Symbol(sym)
                    } else {
                        DynTarget::Base(offset)
                    },
                })
                .collect();
            img
        })
}

proptest! {
    #[test]
    fn object_roundtrip(obj in arb_object()) {
        let back = Object::from_bytes(&obj.to_bytes()).unwrap();
        prop_assert_eq!(obj, back);
    }

    #[test]
    fn image_roundtrip(img in arb_image()) {
        let back = Image::from_bytes(&img.to_bytes()).unwrap();
        prop_assert_eq!(img, back);
    }

    /// Decoding arbitrary garbage never panics.
    #[test]
    fn decoder_is_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Object::from_bytes(&bytes);
        let _ = Image::from_bytes(&bytes);
    }

    /// Truncating a valid encoding at any point errors instead of
    /// misparsing.
    #[test]
    fn truncation_always_detected(obj in arb_object(), frac in 0.0f64..1.0) {
        let bytes = obj.to_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            prop_assert!(Object::from_bytes(&bytes[..cut]).is_err());
        }
    }
}
