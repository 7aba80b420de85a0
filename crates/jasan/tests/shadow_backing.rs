//! Shadow memory costs only what a run touches: poisoning the shadow of a
//! PIC module and of the heap backs a few pages of guest memory, not the
//! tens of MiB between `SHADOW_BASE` and the shadow of the module.

use janitizer_asm::{assemble, AsmOptions};
use janitizer_jasan::{
    map_shadow, poison_range, shadow_addr, unpoison_range, POISON_HEAP_FREED, POISON_HEAP_REDZONE,
    POISON_STACK_CANARY,
};
use janitizer_link::{link, LinkOptions};
use janitizer_vm::{load_process, LoadOptions, ModuleStore, Process, HEAP_BASE, PIC_MODULE_BASE};

fn tiny_process() -> Process {
    let mut store = ModuleStore::new();
    let obj = assemble(
        "t.s",
        ".section text\n.global _start\n_start:\n ret\n",
        &AsmOptions::default(),
    )
    .unwrap();
    store.add(link(&[obj], &LinkOptions::executable("t")).unwrap());
    load_process(&store, "t", &LoadOptions::default()).unwrap()
}

/// The shadow bytes of the 16 granules starting at application address `a`.
fn shadow_of(p: &mut Process, a: u64) -> Vec<u8> {
    p.mem.read_bytes(shadow_addr(a), 16).unwrap()
}

#[test]
fn poisoning_module_and_heap_shadow_backs_a_few_pages() {
    let mut p = tiny_process();
    let loaded = p.mem.backed_bytes();
    map_shadow(&mut p.mem).unwrap();
    assert_eq!(
        p.mem.backed_bytes(),
        loaded,
        "mapping the shadow allocates nothing"
    );

    // A canary-style frame in the first PIC module: three poisoned slots,
    // the middle one released again.
    let module = PIC_MODULE_BASE + 0x40;
    poison_range(&mut p, module + 8, 24, POISON_STACK_CANARY);
    unpoison_range(&mut p, module + 16, 8);
    // A heap chunk: redzones around a 13-byte object, then a freed chunk.
    let heap = HEAP_BASE + 0x1000;
    poison_range(&mut p, heap, 48, POISON_HEAP_REDZONE);
    unpoison_range(&mut p, heap + 8, 13);
    poison_range(&mut p, heap + 64, 16, POISON_HEAP_FREED);

    let (c, r, f) = (POISON_STACK_CANARY, POISON_HEAP_REDZONE, POISON_HEAP_FREED);
    assert_eq!(
        shadow_of(&mut p, module),
        [0, c, 0, c, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    );
    assert_eq!(
        shadow_of(&mut p, heap),
        [r, 0, 5, r, r, r, 0, 0, f, f, 0, 0, 0, 0, 0, 0]
    );
    // Untouched shadow between the two reads as addressable.
    assert_eq!(shadow_of(&mut p, PIC_MODULE_BASE + 0x10_0000), [0; 16]);

    let grown = p.mem.backed_bytes() - loaded;
    assert!(
        grown > 0 && grown <= 16 << 10,
        "shadow backing grew by {grown} bytes"
    );
}
