//! Regenerates the minimized corruption-regression corpus under
//! `crates/faultz/corpus/`. Each fixture is a small serialized artifact
//! with exactly one corruption, paired (in `tests/corpus.rs`) with the
//! exact typed error its decode must produce.
//!
//! Run from the workspace root after changing the serialization formats:
//!
//! ```text
//! cargo run -p janitizer-faultz --bin faultz-gen-corpus
//! ```

use janitizer_core::analyze_statically;
use janitizer_faultz::{hostile_mutate, hostile_tiny_exe, tiny_exe, HostileMutation, MarkerPlugin};
use janitizer_obj::{
    Image, Object, Reloc, RelocKind, Section, SectionKind, SymBind, SymKind, Symbol,
};
use std::path::Path;

fn write(dir: &Path, name: &str, bytes: &[u8]) {
    std::fs::write(dir.join(name), bytes).expect("write fixture");
    println!("wrote {name} ({} bytes)", bytes.len());
}

fn tiny_object_bytes() -> Vec<u8> {
    let mut obj = Object::new("fx.o");
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
    obj.to_bytes()
}

fn main() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    std::fs::create_dir_all(&dir).expect("corpus dir");

    // ---- object fixtures -------------------------------------------------
    let obj_ok = tiny_object_bytes();

    let mut b = obj_ok.clone();
    b[0..4].copy_from_slice(b"XXXX");
    write(&dir, "obj_bad_magic.bin", &b);

    let mut b = obj_ok.clone();
    b[4..8].copy_from_slice(&99u32.to_le_bytes());
    write(&dir, "obj_bad_version.bin", &b);

    write(&dir, "obj_truncated.bin", &obj_ok[..10]);

    let mut obj = Object::new("fx.o");
    obj.sections
        .push(Section::new(SectionKind::Text, vec![0x6c]));
    obj.relocs.push(Reloc {
        section: SectionKind::Text,
        offset: janitizer_obj::MAX_IMAGE_SPAN + 1,
        kind: RelocKind::Abs64,
        symbol: "x".into(),
        addend: 0,
    });
    write(&dir, "obj_reloc_offset.bin", &obj.to_bytes());

    // ---- image fixtures --------------------------------------------------
    let img_ok = tiny_exe().to_bytes();

    let mut b = img_ok.clone();
    b[0..4].copy_from_slice(b"XXXX");
    write(&dir, "img_bad_magic.bin", &b);

    write(&dir, "img_truncated.bin", &img_ok[..10]);

    let mut img = Image::new("fx", false, false);
    let mut s = Section::new(SectionKind::Text, vec![0x6c]);
    s.addr = u64::MAX - 1; // span wraps / exceeds MAX_IMAGE_SPAN
    img.sections.push(s);
    write(&dir, "img_section_span.bin", &img.to_bytes());

    let mut img = Image::new("fx", false, false);
    let mut s = Section::new(SectionKind::Text, vec![0x6c]);
    s.mem_size = 0; // 1 data byte claims to fit in 0
    img.sections.push(s);
    write(&dir, "img_section_data.bin", &img.to_bytes());

    let mut img = Image::new("fx", false, false);
    img.sections
        .push(Section::new(SectionKind::Text, vec![0x6c]));
    img.symbols.push(Symbol {
        name: "ghost".into(),
        kind: SymKind::Object,
        bind: SymBind::Global,
        section: Some(SectionKind::Text),
        value: u64::MAX,
        size: 1,
    });
    write(&dir, "img_symbol_range.bin", &img.to_bytes());

    // ---- rule-file fixtures ----------------------------------------------
    let rules_ok = analyze_statically(&tiny_exe(), &MarkerPlugin).to_bytes();

    let mut b = rules_ok.clone();
    b[0..4].copy_from_slice(b"XXXX");
    write(&dir, "rules_bad_magic.bin", &b);

    let mut b = rules_ok.clone();
    b[4..8].copy_from_slice(&1u32.to_le_bytes());
    write(&dir, "rules_stale_v1.bin", &b);

    let mut b = rules_ok.clone();
    let at = b.len() - 3;
    b[at] ^= 0x40; // payload flip -> checksum mismatch
    write(&dir, "rules_checksum.bin", &b);

    write(&dir, "rules_truncated.bin", &rules_ok[..10]);

    // ---- rule-store fixtures ---------------------------------------------
    let tiny = tiny_exe();
    let rules = analyze_statically(&tiny, &MarkerPlugin);
    let entry_ok = janitizer_faultz::store_entry_bytes(&tiny, &rules);
    let journal_ok = janitizer_store::JournalRecord {
        entry_name: janitizer_faultz::store_key(&tiny).entry_name(),
    }
    .to_bytes();

    write(
        &dir,
        "store_torn_journal.bin",
        &journal_ok[..journal_ok.len() / 2],
    );

    write(
        &dir,
        "store_truncated_entry.bin",
        &entry_ok[..entry_ok.len() / 2],
    );

    let mut b = entry_ok.clone();
    let at = b.len() - 3;
    b[at] ^= 0x40; // flip inside the rule payload -> entry checksum mismatch
    write(&dir, "store_checksum_flip.bin", &b);

    // ---- hostile-module fixtures -----------------------------------------
    // Valid images with targeted hostility: these decode fine and are
    // paired (in tests/corpus.rs) with the exact run outcome or
    // degradation they must produce.
    let hostile = hostile_tiny_exe();
    write(&dir, "hostile_tiny.bin", &hostile.to_bytes());
    for kind in HostileMutation::all() {
        let name = format!("hostile_{}.bin", kind.name().replace('-', "_"));
        write(&dir, &name, &hostile_mutate(kind, &hostile).to_bytes());
    }
}
