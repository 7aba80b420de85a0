//! # Violation forensics (`janitizer-diag`)
//!
//! Turns the bare violation reports the DBT engine collects into
//! analyst-grade diagnostics, ASan-report style. For every violation the
//! pipeline combines three capture points:
//!
//! 1. the **engine context** ([`janitizer_dbt::ViolationContext`]):
//!    register snapshot, flags and the executed-block ring buffer,
//!    recorded by the engine when the probe fired;
//! 2. the **tool context** ([`janitizer_dbt::ToolContext`]): JASan's
//!    shadow-memory window around the faulting access or JCFI's
//!    expected-vs-actual target sets, recorded by the plugin inside the
//!    violating probe (where the facts are in scope);
//! 3. the **load map**: a [`Symbolizer`] over every loaded module's
//!    symbol table (JOF images + DBT load biases) resolves addresses to
//!    `module!symbol+offset`, PLT-stub aware.
//!
//! [`capture_reports`] assembles these into [`ViolationReport`]s — a
//! symbolized backtrace (shadow-stack walk when JCFI recorded one, a
//! conservative guest-stack scan otherwise), a disassembled window
//! around the faulting pc, the tool section, and the execution trail —
//! and each report renders as both human-readable text
//! ([`ViolationReport::render_text`]) and schema-stable JSON
//! ([`ViolationReport::to_json`], schema [`REPORT_SCHEMA`]). Report IDs
//! are deterministic (`tool-exe-seq-pc`).
//!
//! Everything here is *observation*: no capture path charges guest
//! cycles, so enabling forensics cannot change any deterministic result.

mod report;
mod symbolize;

pub use report::{DisasmLine, ViolationReport, REPORT_SCHEMA};
pub use symbolize::{Frame, Symbolizer};

use janitizer_dbt::{Stats, ToolContext, ViolationContext};
use janitizer_isa::Reg;
use janitizer_vm::{Process, STACK_BASE, STACK_SIZE};

/// Upper bound on backtrace depth.
const MAX_FRAMES: usize = 8;
/// Guest-stack words scanned for plausible return addresses.
const SCAN_WORDS: u64 = 256;
/// Instructions decoded into the faulting-pc window.
const WINDOW_INSNS: usize = 12;
/// Decode-walk bound between the block start and the faulting pc
/// (instrumented blocks can be long; runaway guard, not a window size).
const MAX_WALK: usize = 65_536;

/// Builds the symbolized backtrace for one violation. Frame 0 is the
/// faulting pc; the rest come from JCFI's shadow stack when the tool
/// recorded one, else from a conservative scan of the guest stack that
/// keeps only words landing in a code section of a loaded module.
fn build_backtrace(
    sym: &Symbolizer,
    proc: &mut Process,
    ctx: &ViolationContext,
    tool_ctx: &ToolContext,
) -> Vec<Frame> {
    let mut frames = vec![sym.resolve(ctx.pc)];
    if let ToolContext::Jcfi(j) = tool_ctx {
        if !j.shadow_stack.is_empty() {
            frames.extend(j.shadow_stack.iter().map(|&a| sym.resolve(a)));
            frames.truncate(MAX_FRAMES);
            return frames;
        }
    }
    let mut a = ctx.regs[Reg::SP.index()] & !7;
    let top = STACK_BASE + STACK_SIZE;
    let mut scanned = 0;
    while a < top && scanned < SCAN_WORDS && frames.len() < MAX_FRAMES {
        if let Ok(w) = proc.mem.read_int(a, 8) {
            if w != ctx.pc && sym.is_code(w) {
                frames.push(sym.resolve(w));
            }
        }
        a += 8;
        scanned += 1;
    }
    frames
}

/// Disassembles a window of instructions around the faulting pc,
/// starting from the beginning of the block that contained it (the last
/// trail entry) so the window shows the lead-up, not just the fault.
fn build_disasm_window(proc: &mut Process, ctx: &ViolationContext) -> Vec<DisasmLine> {
    fn line(proc: &mut Process, pc: u64, fault: bool) -> Option<(DisasmLine, u64)> {
        let (insn, next) = proc.fetch_decode(pc).ok()?;
        let mut bytes = Vec::new();
        insn.encode(&mut bytes);
        let hex: String = bytes.iter().map(|b| format!("{b:02x} ")).collect();
        Some((
            DisasmLine {
                addr: pc,
                bytes: hex,
                text: insn.to_string(),
                fault,
            },
            next,
        ))
    }
    let start = ctx
        .trail
        .last()
        .copied()
        .filter(|&b| b <= ctx.pc)
        .unwrap_or(ctx.pc);
    // Walk from the block start to the fault, keeping a rolling window of
    // lead-up instructions (instrumented blocks can be far longer than
    // the window).
    let mut window: std::collections::VecDeque<DisasmLine> = Default::default();
    let mut pc = start;
    let mut found = false;
    for _ in 0..MAX_WALK {
        let Some((l, next)) = line(proc, pc, pc == ctx.pc) else {
            break;
        };
        found = l.fault;
        window.push_back(l);
        pc = next;
        if found {
            break;
        }
        if window.len() > WINDOW_INSNS - 3 {
            window.pop_front();
        }
    }
    if !found {
        // The straight-line walk never met the pc (mid-block entry or a
        // foreign trail entry): restart at the faulting pc itself.
        window.clear();
        pc = ctx.pc;
        if let Some((l, next)) = line(proc, pc, true) {
            window.push_back(l);
            pc = next;
            found = true;
        }
    }
    if found {
        // A couple of instructions of fall-through context.
        for _ in 0..2 {
            let Some((l, next)) = line(proc, pc, false) else {
                break;
            };
            window.push_back(l);
            pc = next;
        }
    }
    window.into()
}

/// Assembles one [`ViolationReport`] per collected engine report,
/// pairing report *i* with engine context *i* and tool context *i*
/// (missing tool entries render as [`ToolContext::None`]).
pub fn capture_reports(
    proc: &mut Process,
    exe: &str,
    tool: &str,
    stats: &Stats,
    tool_ctxs: Vec<ToolContext>,
) -> Vec<ViolationReport> {
    let sym = Symbolizer::from_process(proc);
    let mut out = Vec::with_capacity(stats.reports.len());
    for (i, r) in stats.reports.iter().enumerate() {
        // The engine records contexts in lockstep with reports; tolerate
        // a missing one (foreign Stats values) with an empty snapshot.
        let fallback = ViolationContext {
            pc: r.pc,
            regs: [0; 16],
            flags: 0,
            trail: Vec::new(),
        };
        let ctx = stats.contexts.get(i).unwrap_or(&fallback);
        let tool_ctx = tool_ctxs.get(i).cloned().unwrap_or_default();
        let id = format!("{tool}-{exe}-{i:04}-{:x}", r.pc);
        out.push(ViolationReport {
            id,
            tool: tool.to_string(),
            exe: exe.to_string(),
            seq: i,
            kind: r.kind,
            pc: r.pc,
            details: r.details.clone(),
            backtrace: build_backtrace(&sym, proc, ctx, &tool_ctx),
            disasm: build_disasm_window(proc, ctx),
            regs: ctx.regs,
            flags: ctx.flags,
            trail: ctx.trail.iter().map(|&b| sym.resolve(b)).collect(),
            context: tool_ctx,
        });
    }
    out
}
