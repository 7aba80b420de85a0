//! The soundness-tiered disassembler: the analyzer every static pass runs.
//!
//! The recursive/linear hybrid of
//! [`analyze_module`](crate::analyze_module) trusts every decode chain it
//! reaches; on hostile modules (stripped symbols, data-in-code islands,
//! overlapping sequences, obfuscated jump tables) that trust is misplaced
//! in both directions — code is missed and data is decoded.
//! [`analyze_tiered`] starts from that recovery and grades every block
//! with a [`ConfidenceTier`], so rule emission can degrade *per region*
//! instead of per module:
//!
//! * Datalog-Disassembly-style weighted facts (valid decode chains,
//!   data-pointer corroboration, data-access overlap, alignment, padding
//!   penalties) promote corroborated chains the hybrid cannot reach to
//!   `Likely` code, demote blocks whose bytes are demonstrably read as
//!   data to `Unknown`, and resolve overlapping candidate sequences by
//!   aggregate weight, recording the losers as conflicts.
//! * CET-style landing-pad anchors ([`janitizer_obj::ANCHOR_SEQ`]) are
//!   sound indirect-entry ground truth: anchored blocks seed recovery and
//!   stay `Proven`.
//!
//! On benign modules none of these facts fire, so the analyzer's rules are
//! byte-identical to the hybrid's. Tiers flow into rule emission:
//! `Proven`/`Likely` blocks receive full static instrumentation, `Unknown`
//! blocks get *no* rules (not even the no-op marker), so the run-time
//! classifier misses them and the dynamic fallback conservatively
//! instruments exactly those regions.

use crate::cfg::{recover, ModuleCfg};
use crate::index::ImageIndex;
use janitizer_isa::{decode, Instr, Reg};
use janitizer_obj::{Image, SectionKind};
use std::collections::{BTreeMap, BTreeSet};

/// How sure the analyzer is that a recovered block really is code.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ConfidenceTier {
    /// Sound by construction: reached from symbols/entry seeds (or a
    /// landing-pad anchor) through direct control flow.
    Proven,
    /// Recovered from corroborated evidence (weighted-fact fixpoint);
    /// instrumented statically, but not ground truth.
    Likely,
    /// Contradictory evidence — the bytes may not be code. Degraded to
    /// the dynamic fallback per region.
    Unknown,
    /// Demonstrably accessed as data.
    Data,
}

impl ConfidenceTier {
    /// Stable label for summaries and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            ConfidenceTier::Proven => "proven",
            ConfidenceTier::Likely => "likely",
            ConfidenceTier::Unknown => "unknown",
            ConfidenceTier::Data => "data",
        }
    }
}

/// Why a byte region was degraded below static instrumentation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegionCause {
    /// The region's bytes carry contradictory code/data evidence.
    LowConfidence,
    /// Two overlapping candidate decode sequences claimed the region and
    /// weight resolution rejected this one.
    Conflict,
}

impl RegionCause {
    /// Stable label for summaries and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            RegionCause::LowConfidence => "low-confidence",
            RegionCause::Conflict => "conflict",
        }
    }
}

/// A byte region (image address space) the analyzer degraded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DegradedRegion {
    /// First byte of the region.
    pub start: u64,
    /// Region length in bytes.
    pub len: u64,
    /// Why it was degraded.
    pub cause: RegionCause,
}

/// The output of one whole-module disassembly.
#[derive(Clone, Debug)]
pub struct DisasmResult {
    /// Recovered control flow (a superset of
    /// [`analyze_module`](crate::analyze_module)'s when evidence promotes
    /// unreachable code).
    pub cfg: ModuleCfg,
    /// Per-block confidence, keyed by block start. Blocks absent from
    /// the map are `Proven`.
    pub tiers: BTreeMap<u64, ConfidenceTier>,
    /// Regions degraded to the dynamic fallback, sorted by start.
    pub degraded: Vec<DegradedRegion>,
    /// `(addr, len)` byte ranges proven to be accessed as data.
    pub data_regions: Vec<(u64, u64)>,
    /// `"evidence"` from [`analyze_tiered`], `"hybrid"` from
    /// [`DisasmResult::untiered`]. Kept only because `perfbench` reads
    /// it (into `StaticContext::backend`).
    pub backend: &'static str,
}

impl DisasmResult {
    /// The no-evidence ablation: `cfg` as recovered (normally by
    /// [`analyze_module`](crate::analyze_module)), every block `Proven`,
    /// nothing degraded.
    pub fn untiered(cfg: ModuleCfg) -> DisasmResult {
        DisasmResult {
            cfg,
            tiers: BTreeMap::new(),
            degraded: Vec::new(),
            data_regions: Vec::new(),
            backend: "hybrid",
        }
    }

    /// The confidence tier of the byte at `addr`.
    pub fn tier_at(&self, addr: u64) -> ConfidenceTier {
        if self
            .data_regions
            .iter()
            .any(|&(s, l)| addr >= s && addr < s + l)
        {
            return ConfidenceTier::Data;
        }
        match self.cfg.block_containing(addr) {
            Some(b) => self
                .tiers
                .get(&b.start)
                .copied()
                .unwrap_or(ConfidenceTier::Proven),
            None => ConfidenceTier::Unknown,
        }
    }
}

/// Fact weights (Datalog-Disassembly-style, scaled to small integers).
/// A candidate chain is promoted when its aggregate weight reaches
/// [`W_PROMOTE`].
mod weight {
    /// Every structurally valid decode chain earns this.
    pub const VALID_CHAIN: i32 = 1;
    /// Per referencing pointer found in `.rodata`.
    pub const RODATA_PTR: i32 = 3;
    /// Per referencing pointer found in writable `.data`.
    pub const DATA_PTR: i32 = 2;
    /// Target address is 8-byte aligned (function-entry convention).
    pub const ALIGNED: i32 = 1;
    /// A defined symbol names the target.
    pub const SYMBOL_HINT: i32 = 4;
    /// Chain decodes exclusively to `nop` — zero padding, not code.
    pub const ALL_NOP: i32 = -4;
    /// Degenerate chain (fewer than two instructions).
    pub const SHORT_CHAIN: i32 = -2;
    /// Promotion threshold.
    pub const W_PROMOTE: i32 = 4;
}

/// A linearly decoded candidate instruction sequence.
struct Chain {
    start: u64,
    end: u64,
    /// Instruction start addresses, in order.
    starts: Vec<u64>,
    all_nop: bool,
}

/// Decodes a candidate chain at `start`: every instruction must decode,
/// every direct branch target must land in a code section, and the chain
/// must end at a terminator or merge into a known instruction boundary.
/// Chains that run misaligned into already-recovered code are rejected —
/// that disagreement is exactly the overlap the weights must not trust.
/// `reach` holds, for every block of `base` in start order, its start and
/// the furthest end of the blocks up to it: some block covers `a` exactly
/// when the last entry starting at or below `a` reaches past it.
fn decode_chain(
    index: &ImageIndex,
    base: &ModuleCfg,
    reach: &[(u64, u64)],
    start: u64,
) -> Option<Chain> {
    let in_recovered = |a: u64| {
        let i = reach.partition_point(|&(s, _)| s <= a);
        i > 0 && reach[i - 1].1 > a
    };
    index.code_section(start)?;
    let mut starts = Vec::new();
    let mut all_nop = true;
    let mut pc = start;
    for _ in 0..96 {
        if base.insn_boundaries.contains(&pc) {
            // Merges consistently into known code.
            return Some(Chain {
                start,
                end: pc,
                starts,
                all_nop,
            });
        }
        if in_recovered(pc) {
            // Misaligned overlap with recovered code: contradictory.
            return None;
        }
        let sec = index.code_section(pc)?;
        let off = (pc - sec.addr) as usize;
        let (insn, next_off) = decode(&sec.data, off).ok()?;
        let next = pc + (next_off - off) as u64;
        starts.push(pc);
        if !matches!(insn, Instr::Nop) {
            all_nop = false;
        }
        // Direct targets must themselves be plausible code.
        let direct_target = match insn {
            Instr::Jmp { rel } | Instr::Jcc { rel, .. } | Instr::Call { rel } => {
                Some(next.wrapping_add(rel as i64 as u64))
            }
            _ => None,
        };
        if direct_target.is_some_and(|t| !index.in_code(t)) {
            return None;
        }
        match insn {
            Instr::Jmp { .. } | Instr::JmpInd { .. } | Instr::Ret | Instr::Halt | Instr::Trap => {
                return Some(Chain {
                    start,
                    end: next,
                    starts,
                    all_nop,
                });
            }
            _ => pc = next,
        }
    }
    // Ran past the window without terminating: not a credible function.
    None
}

/// Collects `data-access` facts: addresses inside code sections that the
/// recovered code demonstrably reads or writes *as data* (a constant
/// address materialized into a register and then used as a load/store
/// base within the same block).
fn collect_data_facts(index: &ImageIndex, cfg: &ModuleCfg) -> BTreeSet<u64> {
    fn dest_reg(i: &Instr) -> Option<Reg> {
        match *i {
            Instr::MovRr { rd, .. }
            | Instr::MovI64 { rd, .. }
            | Instr::MovI32 { rd, .. }
            | Instr::LeaPc { rd, .. }
            | Instr::Lea { rd, .. }
            | Instr::Ld { rd, .. }
            | Instr::LdIdx { rd, .. }
            | Instr::Neg { rd }
            | Instr::Not { rd }
            | Instr::Pop { rd }
            | Instr::RdTls { rd, .. } => Some(rd),
            Instr::AluRr { op, rd, .. } | Instr::AluRi { op, rd, .. } => {
                op.writes_dest().then_some(rd)
            }
            _ => None,
        }
    }
    let mut facts = BTreeSet::new();
    for block in cfg.blocks.values() {
        // Register -> the constant address it holds, within this block.
        let mut consts: [Option<u64>; 16] = [None; 16];
        for (idx, (_, insn)) in block.insns.iter().enumerate() {
            let base_reg = match *insn {
                Instr::Ld { base, .. }
                | Instr::St { base, .. }
                | Instr::LdIdx { base, .. }
                | Instr::StIdx { base, .. } => Some(base),
                _ => None,
            };
            if let Some(b) = base_reg {
                if let Some(addr) = consts[b.index()] {
                    let disp = match *insn {
                        Instr::Ld { disp, .. }
                        | Instr::St { disp, .. }
                        | Instr::LdIdx { disp, .. }
                        | Instr::StIdx { disp, .. } => disp,
                        _ => 0,
                    };
                    let a = addr.wrapping_add(disp as i64 as u64);
                    if index.in_code(a) {
                        facts.insert(a);
                    }
                }
            }
            match *insn {
                Instr::MovI64 { rd, imm } => consts[rd.index()] = Some(imm),
                Instr::MovI32 { rd, imm } => consts[rd.index()] = Some(imm as i64 as u64),
                Instr::LeaPc { rd, disp } => {
                    // disp is relative to the next instruction.
                    let next = block
                        .insns
                        .get(idx + 1)
                        .map(|(a, _)| *a)
                        .unwrap_or(block.end);
                    consts[rd.index()] = Some(next.wrapping_add(disp as i64 as u64));
                }
                _ => {
                    if let Some(rd) = dest_reg(insn) {
                        consts[rd.index()] = None;
                    }
                }
            }
        }
    }
    facts
}

/// Scans non-code sections for 8-byte-aligned words that point into a
/// code section at an address the base recovery never decoded — the
/// corroboration facts for candidate chains. Returns
/// `target -> aggregate pointer weight`.
fn scan_pointer_facts(index: &ImageIndex, base: &ModuleCfg) -> BTreeMap<u64, i32> {
    let mut refs: BTreeMap<u64, i32> = BTreeMap::new();
    for sec in &index.image().sections {
        let w = match sec.kind {
            SectionKind::Rodata => weight::RODATA_PTR,
            SectionKind::Data => weight::DATA_PTR,
            _ => continue,
        };
        let mut a = sec.addr.next_multiple_of(8);
        while a + 8 <= sec.end() {
            if let Some(v) = index.pointer(a) {
                if index.in_code(v) && !base.insn_boundaries.contains(&v) {
                    *refs.entry(v).or_insert(0) += w;
                }
            }
            a += 8;
        }
    }
    refs
}

/// Recovers `image`'s control flow with a confidence tier per block:
/// base recovery, fact collection, weighted promotion with overlap
/// resolution, seeded re-recovery from the promoted entries and the
/// landing-pad anchors, and data-overlap demotion.
pub fn analyze_tiered(image: &Image) -> DisasmResult {
    let anchors = image.anchor_addrs();
    let index = ImageIndex::new(image);
    let base = recover(&index, &[]);
    let data_facts = collect_data_facts(&index, &base);
    let ptr_facts = scan_pointer_facts(&index, &base);

    // Weigh candidate chains at every corroborated target.
    let mut candidates: Vec<(i32, Chain)> = Vec::new();
    let (reach, symbol_addrs): (Vec<(u64, u64)>, BTreeSet<u64>) = if ptr_facts.is_empty() {
        Default::default()
    } else {
        (
            base.blocks
                .values()
                .scan(0, |far, b| {
                    *far = b.end.max(*far);
                    Some((b.start, *far))
                })
                .collect(),
            image.symbols.iter().map(|s| s.value).collect(),
        )
    };
    for (&target, &ptr_w) in &ptr_facts {
        let Some(chain) = decode_chain(&index, &base, &reach, target) else {
            continue;
        };
        let mut w = weight::VALID_CHAIN + ptr_w;
        if target % 8 == 0 {
            w += weight::ALIGNED;
        }
        if symbol_addrs.contains(&target) {
            w += weight::SYMBOL_HINT;
        }
        if chain.all_nop {
            w += weight::ALL_NOP;
        }
        if chain.starts.len() < 2 {
            w += weight::SHORT_CHAIN;
        }
        if w >= weight::W_PROMOTE {
            candidates.push((w, chain));
        }
    }

    // Resolve overlapping candidate sequences by aggregate weight:
    // heaviest first; a candidate whose bytes intersect an accepted
    // chain with disagreeing instruction starts is a conflict.
    candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.start.cmp(&b.1.start)));
    let mut accepted: Vec<Chain> = Vec::new();
    let mut degraded: Vec<DegradedRegion> = Vec::new();
    for (_, cand) in candidates {
        let overlap = accepted
            .iter()
            .find(|c| cand.start < c.end && c.start < cand.end);
        match overlap {
            None => accepted.push(cand),
            Some(winner) => {
                // Boundary agreement over the contested bytes: both chains
                // must place exactly the same instruction starts inside the
                // overlap. A chain that swallows the other's code as
                // immediate payload has no boundaries there at all — that
                // absence is itself the disagreement.
                let lo = cand.start.max(winner.start);
                let hi = cand.end.min(winner.end);
                let in_overlap = |a: &&u64| **a >= lo && **a < hi;
                let consistent = cand
                    .starts
                    .iter()
                    .filter(in_overlap)
                    .eq(winner.starts.iter().filter(in_overlap));
                if consistent {
                    accepted.push(cand);
                } else {
                    degraded.push(DegradedRegion {
                        start: cand.start,
                        len: cand.end - cand.start,
                        cause: RegionCause::Conflict,
                    });
                }
            }
        }
    }

    // Seeded re-recovery over the promoted entries (and anchors), run to
    // the same fixpoint as the base pass. Tier assignment: base blocks
    // stay Proven (absent from the map), anchored entries are Proven
    // ground truth, everything newly recovered is Likely.
    let mut seeds: Vec<u64> = accepted.iter().map(|c| c.start).collect();
    seeds.extend(anchors.iter().copied());
    seeds.sort_unstable();
    seeds.dedup();
    let anchor_set: BTreeSet<u64> = anchors.iter().copied().collect();
    let mut tiers: BTreeMap<u64, ConfidenceTier> = BTreeMap::new();
    let cfg = if seeds.is_empty() {
        base
    } else {
        let cfg = recover(&index, &seeds);
        for &start in cfg.blocks.keys() {
            if !base.blocks.contains_key(&start) && !anchor_set.contains(&start) {
                tiers.insert(start, ConfidenceTier::Likely);
            }
        }
        cfg
    };

    // Demotion: a block whose bytes are demonstrably read as data mixes
    // code and data — degrade it (anchored entries stay sound).
    let mut data_regions: Vec<(u64, u64)> = Vec::new();
    for &fact in &data_facts {
        data_regions.push((fact, 1));
        let Some(b) = cfg.block_containing(fact) else {
            continue;
        };
        if anchor_set.contains(&b.start) {
            continue;
        }
        if tiers.insert(b.start, ConfidenceTier::Unknown) != Some(ConfidenceTier::Unknown) {
            degraded.push(DegradedRegion {
                start: b.start,
                len: b.end - b.start,
                cause: RegionCause::LowConfidence,
            });
        }
    }
    degraded.sort_by_key(|r| (r.start, r.len));
    degraded.dedup();

    DisasmResult {
        cfg,
        tiers,
        degraded,
        data_regions,
        backend: "evidence",
    }
}

/// The analyzer as a value, for `perfbench`, which calls
/// `disasm_backend().analyze(image)`. Workspace code calls
/// [`analyze_tiered`].
pub struct Analyzer;

impl Analyzer {
    /// Same as [`analyze_tiered`].
    pub fn analyze(&self, image: &Image) -> DisasmResult {
        analyze_tiered(image)
    }
}

/// The analyzer. Kept only because `perfbench` names it.
pub fn disasm_backend() -> Analyzer {
    Analyzer
}
