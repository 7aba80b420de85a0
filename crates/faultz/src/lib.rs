//! # Fault-injection harness (hostile-input hardening)
//!
//! Drives the deterministic byte mutator of `janitizer_core::fault` over
//! a corpus built from the evaluation's own modules: serialized JOF
//! objects, linked images, and rewrite-rule files. Every corrupted input
//! is pushed through the corresponding pipeline stage — decode, link,
//! and (for the executables and rule files) a full [`run_hybrid`]
//! execution — under `catch_unwind`, asserting the framework's hostile-
//! input contract:
//!
//! * the pipeline **never panics**, for any corruption;
//! * every failure surfaces as a **typed error** (`FormatError`,
//!   `LinkError`, `LoadError`) or as a recorded module **degradation**.
//!
//! The harness is seeded and fully deterministic: the same `--seed`
//! yields a byte-identical summary JSON, which CI diffs across runs.

use janitizer_asm::{assemble, AsmOptions};
use janitizer_core::{
    analyze_statically, run_hybrid, BlockRules, HybridOptions, Mutator, SecurityPlugin, SplitMix64,
    StaticContext, TbItem,
};
use janitizer_dbt::DecodedBlock;
use janitizer_link::{link, LinkOptions};
use janitizer_obj::{Image, Object};
use janitizer_rules::{RewriteRule, RuleFile};
use janitizer_vm::{ModuleStore, Process};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What kind of artifact a corpus entry is, which decides the pipeline
/// stages its mutations are pushed through.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ItemKind {
    /// A serialized relocatable [`Object`]: decode, then (if it still
    /// decodes) a full static link.
    Object,
    /// A serialized linked [`Image`]: decode + fingerprint; standalone
    /// executables additionally run the full hybrid pipeline.
    Image {
        /// Run the decoded image end to end under [`run_hybrid`].
        runnable: bool,
    },
    /// A serialized [`RuleFile`]: decode, then a full [`run_hybrid`] with
    /// the corrupted bytes installed as the module's rule override
    /// (exercising the graceful-degradation path).
    Rules,
    /// A serialized store-entry envelope (`JSTE`): the corrupted bytes
    /// are planted at their content address in a scratch
    /// [`janitizer_store::RuleStore`] and loaded back — a corrupt entry
    /// must be quarantined and reported as a miss, never served.
    StoreEntry,
    /// A serialized write-journal record (`JJRN`): the corrupted bytes
    /// are planted as the journal of a scratch store holding one valid
    /// committed entry, and the store is re-opened — recovery must
    /// complete (rollback or verify scan), clear the journal, and keep
    /// the valid entry intact.
    StoreJournal,
}

/// One corpus entry: pristine bytes plus how to exercise them.
pub struct CorpusItem {
    /// Stable name used in the summary.
    pub name: &'static str,
    /// Artifact kind.
    pub kind: ItemKind,
    /// The uncorrupted serialized artifact.
    pub bytes: Vec<u8>,
}

/// A tiny standalone program (no imports, no libraries) whose full
/// pipeline run costs microseconds — the run-trial subject.
const TINY_SRC: &str = ".section text\n.global _start\n_start:\n\
    la r8, buf\n mov r2, 0\n\
    loop:\n st8 [r8+r2*8], r2\n add r2, 1\n cmp r2, 8\n jne loop\n\
    ld8 r0, [r8+16]\n ret\n\
    .section bss\nbuf: .space 64\n";

/// A minimal plugin that marks memory accesses statically and passes
/// instructions through unchanged — enough to produce non-trivial rule
/// files and drive the classifier, with no tool-specific state.
pub struct MarkerPlugin;

impl SecurityPlugin for MarkerPlugin {
    fn name(&self) -> &str {
        "faultz-marker"
    }

    fn static_pass(&self, _image: &Image, ctx: &StaticContext) -> Vec<RewriteRule> {
        let mut rules = Vec::new();
        for block in ctx.cfg.blocks.values() {
            for (addr, insn) in &block.insns {
                if insn.mem_access().is_some() {
                    rules.push(RewriteRule::new(7, block.start, *addr));
                }
            }
        }
        rules
    }

    fn instrument_static(
        &mut self,
        _proc: &mut Process,
        block: &DecodedBlock,
        _rules: &BlockRules<'_>,
    ) -> Vec<TbItem> {
        block.passthrough()
    }

    fn instrument_dynamic(&mut self, _proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
        block.passthrough()
    }
}

/// The tiny standalone executable image, assembled from `TINY_SRC`.
pub fn tiny_exe() -> Image {
    let obj = assemble("tiny.s", TINY_SRC, &AsmOptions::default()).expect("tiny asm");
    link(&[obj], &LinkOptions::executable("tiny")).expect("tiny links")
}

/// The hostile-mutation subject: a rodata blob load plus a two-entry
/// pointer-table dispatch, with every patch site labeled so the
/// [`hostile_mutate`] surgeries below hit exact bytes. Benign as built:
/// dispatches to `case_a` and exits 0.
const HOSTILE_TINY_SRC: &str = ".section text\n.global _start\n_start:\n\
    splice_site:\n la r6, blob\n ld8 r7, [r6]\n\
    la r1, jtab\n mov r2, 0\n ld8 r3, [r1+r2*8]\n call r3\n\
    mov r0, 0\n ret\n\
    case_a:\n mov r4, 1\n ret\n\
    case_b:\n mov r4, 2\n ret\n\
    .align 8\n\
    .section rodata\n.align 8\n\
    blob:\n .quad 7\n\
    jtab:\n .quad case_a\n .quad case_b\n";

/// The pristine hostile-mutation subject, assembled from
/// `HOSTILE_TINY_SRC`.
pub fn hostile_tiny_exe() -> Image {
    let obj =
        assemble("hostile-tiny.s", HOSTILE_TINY_SRC, &AsmOptions::default()).expect("hostile asm");
    link(&[obj], &LinkOptions::executable("hostile-tiny")).expect("hostile links")
}

/// The targeted hostile-module mutations: each reproduces one way real
/// binaries defeat static disassembly, as a surgical byte patch on
/// [`hostile_tiny_exe`] rather than random corruption.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HostileMutation {
    /// Retargets the blob load at `splice_site` to read `case_b`'s
    /// instruction bytes as data — code and data now share a region, and
    /// the analyzer must degrade it instead of trusting either
    /// interpretation.
    DataSplice,
    /// Adds one to every jump-table entry, so dispatch lands mid-
    /// instruction. Execution must die with a typed decode fault, never
    /// a panic.
    JumpTableScramble,
    /// Strips the symbol table; the dispatch targets survive only as
    /// dynamically-discovered blocks.
    SymbolStrip,
}

impl HostileMutation {
    /// All mutations, in fixture order.
    pub fn all() -> [HostileMutation; 3] {
        [
            HostileMutation::DataSplice,
            HostileMutation::JumpTableScramble,
            HostileMutation::SymbolStrip,
        ]
    }

    /// Stable kebab-case name (fixture files use it with `-` -> `_`).
    pub fn name(self) -> &'static str {
        match self {
            HostileMutation::DataSplice => "data-splice",
            HostileMutation::JumpTableScramble => "jumptab-scramble",
            HostileMutation::SymbolStrip => "symbol-strip",
        }
    }
}

/// Address of a defined label in the (unstripped) hostile subject.
fn hostile_label(image: &Image, name: &str) -> u64 {
    image
        .symbols
        .iter()
        .find(|s| s.name == name && !s.is_undefined())
        .map(|s| s.value)
        .unwrap_or_else(|| panic!("hostile subject is missing label `{name}`"))
}

/// Reads the little-endian u64 at `addr` from whichever section holds it.
fn hostile_read8(image: &Image, addr: u64) -> u64 {
    let sec = image
        .sections
        .iter()
        .find(|s| addr >= s.addr && addr + 8 <= s.addr + s.data.len() as u64)
        .expect("hostile patch site inside a section");
    let off = (addr - sec.addr) as usize;
    u64::from_le_bytes(sec.data[off..off + 8].try_into().unwrap())
}

/// Overwrites the little-endian u64 at `addr` in place.
fn hostile_patch8(image: &mut Image, addr: u64, value: u64) {
    let sec = image
        .sections
        .iter_mut()
        .find(|s| addr >= s.addr && addr + 8 <= s.addr + s.data.len() as u64)
        .expect("hostile patch site inside a section");
    let off = (addr - sec.addr) as usize;
    sec.data[off..off + 8].copy_from_slice(&value.to_le_bytes());
}

/// Applies one hostile mutation to a pristine [`hostile_tiny_exe`]
/// image, returning the mutated image (the input is left untouched).
pub fn hostile_mutate(kind: HostileMutation, image: &Image) -> Image {
    match kind {
        HostileMutation::SymbolStrip => image.to_stripped(),
        HostileMutation::DataSplice => {
            // `la r6, blob` is a `mov r6, imm64`; its immediate starts 2
            // bytes in. Point it at case_b's code instead of the blob.
            let mut img = image.clone();
            let site = hostile_label(image, "splice_site") + 2;
            let target = hostile_label(image, "case_b");
            hostile_patch8(&mut img, site, target);
            img
        }
        HostileMutation::JumpTableScramble => {
            let mut img = image.clone();
            let jtab = hostile_label(image, "jtab");
            for i in 0..2 {
                let at = jtab + i * 8;
                let v = hostile_read8(&img, at);
                hostile_patch8(&mut img, at, v.wrapping_add(1));
            }
            img
        }
    }
}

/// Builds the mutation corpus from the evaluation's own modules: the
/// shared-library base the figure runs load (libjc, libjf, ld.so, the
/// sanitizer runtime), a tiny standalone executable, raw objects, and
/// rule files for both.
pub fn build_corpus() -> Vec<CorpusItem> {
    let mut corpus = Vec::new();

    // Raw relocatable objects -> decode + link trials.
    let tiny_obj = assemble("tiny.s", TINY_SRC, &AsmOptions::default()).expect("tiny asm");
    corpus.push(CorpusItem {
        name: "obj:tiny",
        kind: ItemKind::Object,
        bytes: tiny_obj.to_bytes(),
    });
    let crt0 = assemble(
        "crt0.s",
        janitizer_workloads::CRT0,
        &AsmOptions { pic: true },
    )
    .expect("crt0 asm");
    corpus.push(CorpusItem {
        name: "obj:crt0",
        kind: ItemKind::Object,
        bytes: crt0.to_bytes(),
    });

    // The tiny executable -> decode + full-pipeline run trials.
    let tiny = tiny_exe();
    corpus.push(CorpusItem {
        name: "img:tiny",
        kind: ItemKind::Image { runnable: true },
        bytes: tiny.to_bytes(),
    });

    // The evaluation's shared modules (fig14 inputs) -> decode trials.
    let base = janitizer_workloads::library_base();
    for name in base.names() {
        let image = base.get(name).expect("listed module exists");
        let leaked: &'static str = Box::leak(format!("img:{name}").into_boxed_str());
        corpus.push(CorpusItem {
            name: leaked,
            kind: ItemKind::Image { runnable: false },
            bytes: image.to_bytes(),
        });
    }

    // Rule files -> decode + degradation-run trials.
    let tiny_rules = analyze_statically(&tiny, &MarkerPlugin);
    corpus.push(CorpusItem {
        name: "rules:tiny",
        kind: ItemKind::Rules,
        bytes: tiny_rules.to_bytes(),
    });
    let libjc = base.get("libjc.so").expect("libjc exists");
    let libjc_rules = analyze_statically(&libjc, &MarkerPlugin);
    corpus.push(CorpusItem {
        name: "rules:libjc.so",
        kind: ItemKind::Rules,
        bytes: libjc_rules.to_bytes(),
    });

    // The hostile-mutation subject and its three targeted mutants ->
    // decode + full-pipeline run trials (random corruption stacks on top
    // of the targeted hostility).
    let hostile = hostile_tiny_exe();
    corpus.push(CorpusItem {
        name: "img:hostile-tiny",
        kind: ItemKind::Image { runnable: true },
        bytes: hostile.to_bytes(),
    });
    for kind in HostileMutation::all() {
        let leaked: &'static str =
            Box::leak(format!("img:hostile-{}", kind.name()).into_boxed_str());
        corpus.push(CorpusItem {
            name: leaked,
            kind: ItemKind::Image { runnable: true },
            bytes: hostile_mutate(kind, &hostile).to_bytes(),
        });
    }

    // Store formats -> quarantine/recovery trials against a scratch
    // on-disk store.
    corpus.push(CorpusItem {
        name: "store:entry",
        kind: ItemKind::StoreEntry,
        bytes: store_entry_bytes(&tiny, &tiny_rules),
    });
    corpus.push(CorpusItem {
        name: "store:journal",
        kind: ItemKind::StoreJournal,
        bytes: janitizer_store::JournalRecord {
            entry_name: store_key(&tiny).entry_name(),
        }
        .to_bytes(),
    });

    corpus
}

/// The store content address the store trials commit under.
pub fn store_key(tiny: &Image) -> janitizer_store::StoreKey {
    janitizer_store::StoreKey {
        module: tiny.name.clone(),
        fingerprint: tiny.fingerprint(),
        plugin: "faultz-marker".into(),
        noop: true,
    }
}

/// The pristine serialized store-entry envelope the store trials mutate.
pub fn store_entry_bytes(tiny: &Image, rules: &RuleFile) -> Vec<u8> {
    janitizer_store::StoreEntry {
        key: store_key(tiny),
        rule_bytes: rules.to_bytes(),
    }
    .to_bytes()
}

/// Harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct HarnessOptions {
    /// Master seed for the deterministic mutation stream.
    pub seed: u64,
    /// Number of mutation trials.
    pub iters: u64,
}

impl Default for HarnessOptions {
    fn default() -> HarnessOptions {
        HarnessOptions {
            seed: 1,
            iters: 500,
        }
    }
}

/// Deterministic harness result: everything in sorted maps so the JSON
/// rendering is byte-identical for a given seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Summary {
    /// The seed the trials used.
    pub seed: u64,
    /// Trials executed.
    pub iters: u64,
    /// Trials that panicked (the hard invariant: must be 0).
    pub panics: u64,
    /// `item/mutation/outcome` -> count.
    pub outcomes: BTreeMap<String, u64>,
}

impl Summary {
    /// Renders the summary as deterministic JSON (sorted keys, no
    /// timestamps, no floats).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"iters\": {},\n", self.iters));
        out.push_str(&format!("  \"panics\": {},\n", self.panics));
        out.push_str("  \"outcomes\": {\n");
        let n = self.outcomes.len();
        for (i, (k, v)) in self.outcomes.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            out.push_str(&format!("    \"{k}\": {v}{comma}\n"));
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// Stable outcome label for a `FormatError` (variant name only — payload
/// values are already captured by determinism of the whole summary).
fn format_err_label(e: &janitizer_obj::FormatError) -> &'static str {
    use janitizer_obj::FormatError as F;
    match e {
        F::BadMagic { .. } => "err:bad-magic",
        F::BadVersion(_) => "err:bad-version",
        F::Truncated => "err:truncated",
        F::BadString => "err:bad-string",
        F::BadTag { .. } => "err:bad-tag",
        F::Invalid { .. } => "err:invalid",
    }
}

/// One decode-and-exercise trial over already-corrupted bytes. Returns
/// the outcome label. Must never panic — the caller's `catch_unwind`
/// converts any panic into a harness failure.
fn trial(kind: ItemKind, bytes: &[u8]) -> String {
    match kind {
        ItemKind::Object => match Object::from_bytes(bytes) {
            Err(e) => format_err_label(&e).into(),
            Ok(obj) => {
                let mut opts = LinkOptions::executable("fz");
                opts.entry = "_start".into();
                match link(&[obj], &opts) {
                    Ok(_) => "ok:linked".into(),
                    Err(_) => "err:link".into(),
                }
            }
        },
        ItemKind::Image { runnable } => match Image::from_bytes(bytes) {
            Err(e) => format_err_label(&e).into(),
            Ok(img) => {
                let _ = img.fingerprint();
                if !runnable || img.shared {
                    return "ok:decoded".into();
                }
                let name = img.name.clone();
                let mut store = ModuleStore::new();
                store.add(img);
                let opts = HybridOptions::with_fuel(2_000_000);
                match run_hybrid(&store, &name, MarkerPlugin, &opts) {
                    Ok(_) => "ok:ran".into(),
                    Err(_) => "err:run".into(),
                }
            }
        },
        ItemKind::Rules => {
            let decoded = RuleFile::from_bytes(bytes);
            // Regardless of whether the bytes decode, the full pipeline
            // must absorb them as an override: verification failure means
            // degradation, never an abort.
            let store = {
                let mut s = ModuleStore::new();
                s.add(tiny_exe());
                s
            };
            let opts = HybridOptions {
                rule_overrides: std::collections::HashMap::from([(
                    "tiny".to_string(),
                    bytes.to_vec(),
                )]),
                fuel: 2_000_000,
                ..HybridOptions::default()
            };
            let run = match run_hybrid(&store, "tiny", MarkerPlugin, &opts) {
                Ok(r) => r,
                Err(_) => return "err:run".into(),
            };
            match (decoded, run.degraded.first()) {
                (Err(e), Some(d)) => {
                    format!("{}+degraded:{}", format_err_label(&e), d.reason.as_str())
                }
                (Err(e), None) => format!("{}+no-degradation", format_err_label(&e)),
                (Ok(_), Some(d)) => format!("ok:decoded+degraded:{}", d.reason.as_str()),
                (Ok(_), None) => "ok:accepted".into(),
            }
        }
        ItemKind::StoreEntry => store_entry_trial(bytes),
        ItemKind::StoreJournal => store_journal_trial(bytes),
    }
}

/// Plants possibly-corrupt entry bytes at their content address in a
/// scratch store and loads them back. The invariant: a verified entry is
/// served byte-exactly; anything else is quarantined and reported as a
/// miss — *never* served corrupt, never a panic. `BAD:` labels mark
/// invariant violations (the regression tests assert their absence).
fn store_entry_trial(bytes: &[u8]) -> String {
    use janitizer_store::{RuleStore, StoreEntry};
    let dir = janitizer_store::scratch_dir("fz-entry");
    let key = store_key(&tiny_exe());
    let label = (|| {
        let store = match RuleStore::open(&dir) {
            Ok(s) => s,
            Err(_) => return "err:open".to_string(),
        };
        if std::fs::write(store.entries_dir().join(key.entry_name()), bytes).is_err() {
            return "err:plant".into();
        }
        let decoded = StoreEntry::from_bytes(bytes);
        match store.load(&key) {
            Ok(Some(served)) => match &decoded {
                Ok(e) if e.key == key && e.rule_bytes == served => "ok:served".into(),
                _ => "BAD:served-corrupt".into(),
            },
            Ok(None) => {
                if store.stats().corrupt == 0 {
                    // A miss without a quarantine means the planted file
                    // vanished some other way — still safe, but distinct.
                    return "miss:unquarantined".into();
                }
                match &decoded {
                    Err(e) => format!("{}+quarantined", format_err_label(e)),
                    Ok(_) => "key-mismatch+quarantined".into(),
                }
            }
            Err(_) => "err:io".into(),
        }
    })();
    let _ = std::fs::remove_dir_all(&dir);
    label
}

/// Plants possibly-corrupt journal bytes over a scratch store holding
/// one valid committed entry, then re-opens it. The invariant: recovery
/// always completes, the journal is cleared, and the valid entry
/// survives and is served byte-exactly.
fn store_journal_trial(bytes: &[u8]) -> String {
    use janitizer_store::{JournalRecord, RuleStore};
    let dir = janitizer_store::scratch_dir("fz-journal");
    let tiny = tiny_exe();
    let key = store_key(&tiny);
    let rule_bytes = analyze_statically(&tiny, &MarkerPlugin).to_bytes();
    let label = (|| {
        {
            let store = match RuleStore::open(&dir) {
                Ok(s) => s,
                Err(_) => return "err:open".to_string(),
            };
            if store.save(&key, &rule_bytes).is_err() {
                return "err:seed-save".into();
            }
        }
        if std::fs::write(dir.join("journal"), bytes).is_err() {
            return "err:plant".into();
        }
        let store = match RuleStore::open(&dir) {
            Ok(s) => s,
            Err(_) => return "BAD:reopen-failed".to_string(),
        };
        if store.journal_path().exists() {
            return "BAD:journal-left".into();
        }
        if store.stats().recovered == 0 {
            return "BAD:recovery-uncounted".into();
        }
        match store.load(&key) {
            Ok(Some(served)) if served == rule_bytes => match JournalRecord::from_bytes(bytes) {
                Ok(_) => "ok:journal+recovered".into(),
                Err(e) => format!("{}+scan-recovered", format_err_label(&e)),
            },
            _ => "BAD:lost-entry".into(),
        }
    })();
    let _ = std::fs::remove_dir_all(&dir);
    label
}

/// Runs `iters` seeded mutation trials over the corpus, asserting the
/// no-panic contract. Deterministic: same options, same [`Summary`].
pub fn run_harness(opts: &HarnessOptions) -> Summary {
    let corpus = build_corpus();
    run_harness_over(opts, &corpus)
}

/// [`run_harness`] over a caller-provided corpus (reusable across seeds).
pub fn run_harness_over(opts: &HarnessOptions, corpus: &[CorpusItem]) -> Summary {
    // Silence the default panic hook for the duration: a caught panic is
    // a *counted result* here, not something to spray on stderr.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut rng = SplitMix64::new(opts.seed);
    let mut outcomes: BTreeMap<String, u64> = BTreeMap::new();
    let mut panics = 0u64;
    for _ in 0..opts.iters {
        let item = &corpus[rng.below(corpus.len() as u64) as usize];
        let mut bytes = item.bytes.clone();
        let mutation = Mutator::new(rng.next_u64()).mutate(&mut bytes);
        let kind = item.kind;
        let label = match catch_unwind(AssertUnwindSafe(|| trial(kind, &bytes))) {
            Ok(l) => l,
            Err(_) => {
                panics += 1;
                "PANIC".to_string()
            }
        };
        *outcomes
            .entry(format!("{}/{}/{label}", item.name, mutation.name()))
            .or_insert(0) += 1;
    }

    std::panic::set_hook(prev_hook);
    Summary {
        seed: opts.seed,
        iters: opts.iters,
        panics,
        outcomes,
    }
}

/// Re-exported so the corpus generator and tests share one definition.
pub use janitizer_core::JanitizerError;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_is_deterministic_and_panic_free() {
        let corpus = build_corpus();
        let opts = HarnessOptions { seed: 3, iters: 60 };
        let a = run_harness_over(&opts, &corpus);
        let b = run_harness_over(&opts, &corpus);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.panics, 0, "pipeline panicked:\n{}", a.to_json());
        assert_eq!(a.outcomes.values().sum::<u64>(), 60);
    }

    #[test]
    fn different_seeds_differ() {
        let corpus = build_corpus();
        let a = run_harness_over(&HarnessOptions { seed: 1, iters: 40 }, &corpus);
        let b = run_harness_over(&HarnessOptions { seed: 2, iters: 40 }, &corpus);
        assert_ne!(a.outcomes, b.outcomes);
    }

    #[test]
    fn summary_json_shape() {
        let s = Summary {
            seed: 9,
            iters: 2,
            panics: 0,
            outcomes: BTreeMap::from([("a/b/c".into(), 2)]),
        };
        let j = s.to_json();
        assert!(j.contains("\"seed\": 9"));
        assert!(j.contains("\"a/b/c\": 2"));
        assert!(j.ends_with("}\n"));
    }
}
