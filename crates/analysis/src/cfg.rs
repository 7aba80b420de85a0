//! Whole-module disassembly and control-flow recovery.
//!
//! Unlike Janus, which only builds control flow for `.text`, Janitizer
//! extends recovery to **all** executable sections (`.init`, `.plt`,
//! `.text`, `.fini`) so that every statically-reachable block can be
//! analyzed and marked (paper §3.3.1).
//!
//! Recovery is recursive-traversal seeded from the entry point, init/fini
//! routines, function symbols and PLT stubs, iterated to a fixpoint with
//! jump-table discovery. Indirect control transfers whose targets cannot
//! be resolved statically are recorded as unresolved — the blocks they
//! reach may be *missed*, which is precisely the gap the dynamic
//! modifier's fallback covers (Figure 14).

use crate::index::ImageIndex;
use janitizer_isa::{decode, Instr, PcMap, PcSet, Reg};
use janitizer_obj::{Image, SectionKind};
use std::collections::{BTreeMap, BTreeSet};

/// How a basic block ends.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Term {
    /// Falls through into the next block (block was split by an incoming
    /// edge).
    FallThrough,
    /// Unconditional direct jump.
    Jump,
    /// Conditional branch (target + fallthrough).
    CondJump,
    /// Indirect jump; `resolved` is true when a jump table bound its
    /// targets.
    IndirectJump {
        /// Whether targets were recovered from a jump table.
        resolved: bool,
    },
    /// Direct call (successor is the fallthrough; the callee is a separate
    /// function entry).
    Call,
    /// Indirect call.
    IndirectCall,
    /// Return.
    Ret,
    /// `halt`, `trap`, or undecodable tail.
    Stop,
}

/// A recovered basic block.
#[derive(Clone, Debug)]
pub struct Block {
    /// Start address (image address space: module-relative for PIC).
    pub start: u64,
    /// Instructions as `(address, instruction)` pairs.
    pub insns: Vec<(u64, Instr)>,
    /// Address one past the last instruction.
    pub end: u64,
    /// Intra-procedural successors (branch targets and fallthroughs;
    /// for calls, the fallthrough only).
    pub succs: Vec<u64>,
    /// Direct call target, if the terminator is a call.
    pub call_target: Option<u64>,
    /// Terminator kind.
    pub term: Term,
}

impl Block {
    /// The terminator instruction with its address.
    pub fn terminator(&self) -> Option<&(u64, Instr)> {
        self.insns.last()
    }
}

/// A function entry discovered from symbols or direct-call targets.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FuncEntry {
    /// Best-known name (symbol name, or a synthesized `fn_<addr>`).
    pub name: String,
    /// Entry address.
    pub entry: u64,
    /// Size in bytes (0 when unknown).
    pub size: u64,
}

impl FuncEntry {
    /// Whether `addr` falls in the function's known range.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.entry && addr < self.entry + self.size.max(1)
    }
}

/// A recovered jump table.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JumpTable {
    /// Address of the indirect jump it feeds.
    pub jmp_addr: u64,
    /// Address of the table data.
    pub table_addr: u64,
    /// Recovered target addresses.
    pub targets: Vec<u64>,
}

/// The result of whole-module control-flow recovery.
#[derive(Clone, Debug, Default)]
pub struct ModuleCfg {
    /// Basic blocks keyed by start address.
    pub blocks: BTreeMap<u64, Block>,
    /// Known function entries, sorted by address.
    pub functions: Vec<FuncEntry>,
    /// Every recovered instruction start address (the "instruction
    /// boundary" set used by code-pointer scanning).
    pub insn_boundaries: BTreeSet<u64>,
    /// Recovered jump tables.
    pub jump_tables: Vec<JumpTable>,
    /// Addresses of indirect CTIs whose targets remain unknown.
    pub unresolved_indirect: Vec<u64>,
}

impl ModuleCfg {
    /// The function whose range contains `addr`, if any.
    pub fn function_containing(&self, addr: u64) -> Option<&FuncEntry> {
        self.functions.iter().find(|f| f.contains(addr))
    }

    /// The block containing the instruction at `addr`, if recovered.
    pub fn block_containing(&self, addr: u64) -> Option<&Block> {
        self.blocks
            .range(..=addr)
            .next_back()
            .map(|(_, b)| b)
            .filter(|b| addr < b.end)
    }

    /// Total number of recovered instructions.
    pub fn insn_count(&self) -> usize {
        self.blocks.values().map(|b| b.insns.len()).sum()
    }
}

fn fetch(index: &ImageIndex, addr: u64) -> Option<(Instr, u64)> {
    let sec = index.code_section(addr)?;
    let off = (addr - sec.addr) as usize;
    let (insn, next) = decode(&sec.data, off).ok()?;
    Some((insn, addr + (next - off) as u64))
}

/// Recovers control flow for all executable sections of `image`.
pub fn analyze_module(image: &Image) -> ModuleCfg {
    recover(&ImageIndex::new(image), &[])
}

/// Like [`analyze_module`], but with `extra_seeds` added to the
/// traversal roots. [`crate::analyze_tiered`] re-runs recovery with
/// extra seeds when it finds entry points the symbol/entry seeding cannot
/// see (data-section code pointers, anchor markers); with no extra seeds
/// the result is identical to [`analyze_module`].
pub fn analyze_module_seeded(image: &Image, extra_seeds: &[u64]) -> ModuleCfg {
    recover(&ImageIndex::new(image), extra_seeds)
}

/// [`analyze_module_seeded`] over a prebuilt index of the image.
pub(crate) fn recover(index: &ImageIndex, extra_seeds: &[u64]) -> ModuleCfg {
    let image = index.image();
    // ---- seeds: entry, init, fini, function symbols, PLT stubs.
    let mut seeds: BTreeSet<u64> = BTreeSet::new();
    seeds.extend(extra_seeds.iter().copied());
    if !image.shared && image.entry != 0 {
        seeds.insert(image.entry);
    }
    if let Some(i) = image.init {
        seeds.insert(i);
    }
    if let Some(f) = image.fini {
        seeds.insert(f);
    }
    for s in image.functions() {
        seeds.insert(s.value);
    }
    if let Some(plt) = image.section(SectionKind::Plt) {
        // plt0 and each stub.
        let mut a = plt.addr;
        while a < plt.end() {
            seeds.insert(a);
            a += 16;
        }
    }

    // ---- pass 1 (iterated): discover reachable instructions. `insn_at`
    // grows from empty in traversal order: its iteration order decides
    // which predecessor the jump-table walk picks among overlapping
    // instructions and the order of `jump_tables`.
    let mut insn_at: PcMap<(Instr, u64)> = PcMap::default();
    let mut leaders: PcSet = seeds.iter().copied().collect();
    let mut call_targets: BTreeSet<u64> = BTreeSet::new();
    let mut jump_tables: Vec<JumpTable> = Vec::new();
    let mut resolved_ind: PcMap<Vec<u64>> = PcMap::default();

    let mut frontier: Vec<u64> = seeds.iter().copied().collect();
    for _round in 0..8 {
        while let Some(start) = frontier.pop() {
            let mut pc = start;
            loop {
                if insn_at.contains_key(&pc) {
                    break;
                }
                let Some((insn, next)) = fetch(index, pc) else {
                    break;
                };
                insn_at.insert(pc, (insn, next));
                match insn {
                    Instr::Jmp { rel } => {
                        let t = next.wrapping_add(rel as i64 as u64);
                        leaders.insert(t);
                        frontier.push(t);
                        break;
                    }
                    Instr::Jcc { rel, .. } => {
                        let t = next.wrapping_add(rel as i64 as u64);
                        leaders.insert(t);
                        leaders.insert(next);
                        frontier.push(t);
                        pc = next;
                    }
                    Instr::Call { rel } => {
                        let t = next.wrapping_add(rel as i64 as u64);
                        call_targets.insert(t);
                        leaders.insert(t);
                        leaders.insert(next);
                        frontier.push(t);
                        pc = next;
                    }
                    Instr::CallInd { .. } => {
                        leaders.insert(next);
                        pc = next;
                    }
                    Instr::JmpInd { .. } | Instr::Ret | Instr::Halt | Instr::Trap => break,
                    // The dynamic modifier ends blocks at syscalls, so the
                    // static analyzer must mark the continuation as a
                    // block of its own or it would misclassify as
                    // dynamically-discovered code.
                    Instr::Syscall => {
                        leaders.insert(next);
                        pc = next;
                    }
                    _ => pc = next,
                }
            }
        }

        // Jump-table discovery over the instructions found so far: look
        // for `cmp rI, N` ... `jae _` ... `la rT, TBL` ... `ld8 rT,
        // [rT + rI*8]` ... `jmp rT` within a window.
        let mut new_targets = Vec::new();
        let jumps: Vec<(u64, Reg)> = insn_at
            .iter()
            .filter_map(|(&a, &(insn, _))| match insn {
                Instr::JmpInd { rs } if !resolved_ind.contains_key(&a) => Some((a, rs)),
                _ => None,
            })
            .collect();
        // The instruction ending where each address starts; among
        // overlapping instructions, the first in `insn_at` order.
        let mut pred: PcMap<u64> = PcMap::default();
        if !jumps.is_empty() {
            pred.reserve(insn_at.len());
            for (&pc, &(_, next)) in &insn_at {
                pred.entry(next).or_insert(pc);
            }
        }
        for (a, rs) in jumps {
            // Walk backwards up to 8 instructions collecting the pattern.
            let mut window = Vec::with_capacity(8);
            let mut cur = a;
            for _ in 0..8 {
                let Some(&prev) = pred.get(&cur) else {
                    break;
                };
                window.push(prev);
                cur = prev;
            }
            let mut table_addr: Option<u64> = None;
            let mut idx_reg = None;
            let mut bound: Option<u64> = None;
            for &w in &window {
                match insn_at[&w].0 {
                    Instr::LdIdx {
                        rd,
                        base,
                        idx,
                        scale: 3,
                        disp: 0,
                        ..
                    } if rd == rs && base == rs => idx_reg = Some(idx),
                    Instr::MovI64 { rd, imm } if rd == rs => table_addr = Some(imm),
                    Instr::LeaPc { rd, disp } if rd == rs => {
                        let (_, next) = insn_at[&w];
                        table_addr = Some(next.wrapping_add(disp as i64 as u64));
                    }
                    Instr::AluRi {
                        op: janitizer_isa::AluOp::Cmp,
                        rd,
                        imm,
                    } if Some(rd) == idx_reg && imm > 0 => bound = Some(imm as u64),
                    _ => {}
                }
            }
            if let (Some(tbl), Some(n)) = (table_addr, bound) {
                let n = n.min(4096);
                let mut targets = Vec::new();
                for i in 0..n {
                    match index.pointer(tbl + i * 8) {
                        Some(t) if index.in_code(t) => targets.push(t),
                        _ => break,
                    }
                }
                if !targets.is_empty() {
                    for &t in &targets {
                        leaders.insert(t);
                        new_targets.push(t);
                    }
                    resolved_ind.insert(a, targets.clone());
                    jump_tables.push(JumpTable {
                        jmp_addr: a,
                        table_addr: tbl,
                        targets,
                    });
                }
            }
        }
        if new_targets.is_empty() {
            break;
        }
        frontier = new_targets;
    }

    // ---- pass 2: group instructions into blocks at leaders, in address
    // order.
    let mut leader_list: Vec<u64> = leaders
        .iter()
        .copied()
        .filter(|l| insn_at.contains_key(l))
        .collect();
    leader_list.sort_unstable();
    let mut blocks: Vec<(u64, Block)> = Vec::with_capacity(leader_list.len());
    let mut unresolved = Vec::new();
    for &start in &leader_list {
        let mut insns = Vec::new();
        let mut pc = start;
        let (term, succs, call_target, end) = loop {
            let Some(&(insn, next)) = insn_at.get(&pc) else {
                break (Term::Stop, Vec::new(), None, pc);
            };
            insns.push((pc, insn));
            match insn {
                Instr::Jmp { rel } => {
                    let t = next.wrapping_add(rel as i64 as u64);
                    break (Term::Jump, vec![t], None, next);
                }
                Instr::Jcc { rel, .. } => {
                    let t = next.wrapping_add(rel as i64 as u64);
                    break (Term::CondJump, vec![t, next], None, next);
                }
                Instr::Call { rel } => {
                    let t = next.wrapping_add(rel as i64 as u64);
                    break (Term::Call, vec![next], Some(t), next);
                }
                Instr::CallInd { .. } => break (Term::IndirectCall, vec![next], None, next),
                Instr::JmpInd { .. } => {
                    if let Some(ts) = resolved_ind.get(&pc) {
                        break (
                            Term::IndirectJump { resolved: true },
                            ts.clone(),
                            None,
                            next,
                        );
                    }
                    unresolved.push(pc);
                    break (
                        Term::IndirectJump { resolved: false },
                        Vec::new(),
                        None,
                        next,
                    );
                }
                Instr::Ret => break (Term::Ret, Vec::new(), None, next),
                Instr::Halt | Instr::Trap => break (Term::Stop, Vec::new(), None, next),
                Instr::Syscall => break (Term::FallThrough, vec![next], None, next),
                _ => {
                    if leaders.contains(&next) {
                        break (Term::FallThrough, vec![next], None, next);
                    }
                    pc = next;
                }
            }
        };
        blocks.push((
            start,
            Block {
                start,
                insns,
                end,
                succs,
                call_target,
                term,
            },
        ));
    }

    // ---- functions: symbols (authoritative) + direct-call targets.
    let mut functions: Vec<FuncEntry> = image
        .functions()
        .map(|s| FuncEntry {
            name: s.name.clone(),
            entry: s.value,
            size: s.size,
        })
        .collect();
    let known: PcSet = functions.iter().map(|f| f.entry).collect();
    for &t in &call_targets {
        if !known.contains(&t) {
            functions.push(FuncEntry {
                name: format!("fn_{t:x}"),
                entry: t,
                size: 0,
            });
        }
    }
    functions.sort_by_key(|f| f.entry);
    // Infer missing sizes from the next function entry.
    for i in 0..functions.len() {
        if functions[i].size == 0 {
            let next = functions.get(i + 1).map(|f| f.entry).unwrap_or(u64::MAX);
            functions[i].size = next.saturating_sub(functions[i].entry);
        }
    }

    let cfg = ModuleCfg {
        insn_boundaries: insn_at.keys().copied().collect(),
        blocks: blocks.into_iter().collect(),
        functions,
        jump_tables,
        unresolved_indirect: unresolved,
    };
    if janitizer_telemetry::enabled() {
        janitizer_telemetry::counter_add("analysis.cfg.jump_tables", cfg.jump_tables.len() as u64);
        janitizer_telemetry::counter_add(
            "analysis.cfg.unresolved_indirect",
            cfg.unresolved_indirect.len() as u64,
        );
        // Per-function size distribution: instructions whose address falls
        // in each recovered function's range.
        for f in &cfg.functions {
            let insns = cfg
                .insn_boundaries
                .range(f.entry..f.entry.saturating_add(f.size))
                .count() as u64;
            janitizer_telemetry::histogram_record("analysis.func_insns", insns);
        }
    }
    cfg
}
