//! The violation report: one struct, two renderers.
//!
//! Both the human-readable text and the JSON document are derived from
//! the same [`ViolationReport`] fields through the same address
//! formatter, so the two renderings agree on every address by
//! construction.

use crate::symbolize::Frame;
use janitizer_dbt::{JasanContext, JcfiContext, ShadowRow, ToolContext, ViolationKind};
use janitizer_isa::Reg;
use janitizer_telemetry::json::Json;
use std::fmt::Write as _;

/// Schema tag stamped into every JSON report; bump on layout changes.
pub const REPORT_SCHEMA: &str = "janitizer.diag.report/v1";

/// One disassembled instruction of the faulting-pc window.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DisasmLine {
    /// Instruction address.
    pub addr: u64,
    /// Raw encoded bytes, `objdump`-style hex.
    pub bytes: String,
    /// Decoded mnemonic.
    pub text: String,
    /// Whether this is the faulting instruction.
    pub fault: bool,
}

/// A fully assembled forensic report for one violation.
#[derive(Clone, Debug)]
pub struct ViolationReport {
    /// Stable identifier: `tool-exe-seq-pc` (deterministic, clock-free).
    pub id: String,
    /// Reporting plugin (`jasan`, `jcfi`, ...).
    pub tool: String,
    /// Executable the violation occurred in.
    pub exe: String,
    /// Index of this report within the run (report *i* of the engine).
    pub seq: usize,
    /// Violation category.
    pub kind: ViolationKind,
    /// Guest pc of the guarded instruction.
    pub pc: u64,
    /// The raw one-line detail string from the probe.
    pub details: String,
    /// Symbolized backtrace; frame 0 is the faulting pc.
    pub backtrace: Vec<Frame>,
    /// Disassembly window around the faulting pc.
    pub disasm: Vec<DisasmLine>,
    /// Register snapshot at violation time.
    pub regs: [u64; 16],
    /// Packed condition flags.
    pub flags: u8,
    /// Symbolized execution trail (oldest block first).
    pub trail: Vec<Frame>,
    /// Tool-specific context.
    pub context: ToolContext,
}

/// The one address formatter both renderers share.
fn addr_str(a: u64) -> String {
    format!("{a:#010x}")
}

fn frame_json(f: &Frame) -> Json {
    Json::obj([
        ("addr", Json::str(addr_str(f.addr))),
        (
            "module",
            f.module.as_deref().map(Json::str).unwrap_or(Json::Null),
        ),
        (
            "symbol",
            f.symbol.as_deref().map(Json::str).unwrap_or(Json::Null),
        ),
        ("offset", Json::str(format!("{:#x}", f.offset))),
    ])
}

fn shadow_row_text(row: &ShadowRow, fault_addr: Option<u64>) -> String {
    let mut line = format!("  {}:", addr_str(row.base));
    for (g, s) in row.shadow.iter().enumerate() {
        let granule = row.base + g as u64 * 8;
        let hit = fault_addr.is_some_and(|a| a >= granule && a < granule + 8);
        let cell = match s {
            Some(b) => format!("{b:02x}"),
            None => "--".into(),
        };
        if hit {
            let _ = write!(line, " [{cell}]");
        } else {
            let _ = write!(line, "  {cell} ");
        }
    }
    line
}

fn jasan_text(out: &mut String, j: &JasanContext) {
    let _ = writeln!(
        out,
        "JASan shadow map around {} ({} of size {}, shadow byte {:#04x} = {}):",
        addr_str(j.access_addr),
        if j.is_write { "WRITE" } else { "READ" },
        j.access_size,
        j.shadow_byte,
        shadow_label(j.shadow_byte),
    );
    for row in &j.rows {
        let _ = writeln!(out, "{}", shadow_row_text(row, Some(j.access_addr)));
    }
    let _ = writeln!(
        out,
        "  Legend: 00 addressable, 01-07 partial, fa heap redzone, fd freed heap, f1 stack canary, -- unmapped"
    );
}

/// Local copy of JASan's shadow-byte legend: diag cannot depend on the
/// jasan crate (jasan depends on the layers below diag), so the marker
/// values are matched by their architectural constants.
fn shadow_label(s: u8) -> &'static str {
    match s {
        0 => "addressable",
        1..=7 => "partial granule",
        0xfa => "heap redzone",
        0xfd => "freed heap",
        0xf1 => "stack canary",
        _ => "poisoned",
    }
}

fn jcfi_text(out: &mut String, j: &JcfiContext, bt: &[Frame]) {
    let _ = writeln!(out, "JCFI {} policy check failed:", j.cti);
    let _ = writeln!(out, "  actual target:   {}", addr_str(j.actual));
    match j.expected {
        Some(e) => {
            let _ = writeln!(out, "  expected target: {}", addr_str(e));
        }
        None => {
            let _ = writeln!(out, "  expected target: (any of the allowed set)");
        }
    }
    let sample: Vec<String> = j.allowed_sample.iter().map(|&a| addr_str(a)).collect();
    let _ = writeln!(
        out,
        "  allowed set: {} target(s){}",
        j.allowed_count,
        if sample.is_empty() {
            String::new()
        } else {
            format!(" (sample: {})", sample.join(", "))
        }
    );
    if !j.shadow_stack.is_empty() {
        let _ = writeln!(out, "  shadow stack (top first):");
        for (i, &a) in j.shadow_stack.iter().enumerate() {
            // Reuse the backtrace's symbolization when it walked the
            // shadow stack (frame 0 is the pc, frames 1.. the stack).
            match bt.get(i + 1).filter(|f| f.addr == a) {
                Some(f) => {
                    let _ = writeln!(out, "    {f}");
                }
                None => {
                    let _ = writeln!(out, "    {}", addr_str(a));
                }
            }
        }
    }
}

fn context_json(ctx: &ToolContext) -> Json {
    match ctx {
        ToolContext::None => Json::obj([("type", Json::str("none"))]),
        ToolContext::Jasan(j) => Json::obj([
            ("type", Json::str("jasan")),
            ("access_addr", Json::str(addr_str(j.access_addr))),
            ("access_size", Json::U64(j.access_size)),
            ("is_write", Json::Bool(j.is_write)),
            ("shadow_byte", Json::str(format!("{:#04x}", j.shadow_byte))),
            (
                "rows",
                Json::Arr(
                    j.rows
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("base", Json::str(addr_str(r.base))),
                                (
                                    "shadow",
                                    Json::Arr(
                                        r.shadow
                                            .iter()
                                            .map(|s| match s {
                                                Some(b) => Json::str(format!("{b:02x}")),
                                                None => Json::Null,
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        ToolContext::Jcfi(j) => Json::obj([
            ("type", Json::str("jcfi")),
            ("cti", Json::str(j.cti)),
            ("actual", Json::str(addr_str(j.actual))),
            (
                "expected",
                j.expected
                    .map(|e| Json::str(addr_str(e)))
                    .unwrap_or(Json::Null),
            ),
            ("allowed_count", Json::U64(j.allowed_count)),
            (
                "allowed_sample",
                Json::Arr(
                    j.allowed_sample
                        .iter()
                        .map(|&a| Json::str(addr_str(a)))
                        .collect(),
                ),
            ),
            (
                "shadow_stack",
                Json::Arr(
                    j.shadow_stack
                        .iter()
                        .map(|&a| Json::str(addr_str(a)))
                        .collect(),
                ),
            ),
        ]),
    }
}

impl ViolationReport {
    /// Renders the ASan-style human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "==janitizer== ERROR: {} at pc {} (tool {}, exe {}, report {})",
            self.kind,
            addr_str(self.pc),
            self.tool,
            self.exe,
            self.id
        );
        let _ = writeln!(out, "==janitizer== {}", self.details);
        for (i, f) in self.backtrace.iter().enumerate() {
            let _ = writeln!(out, "    #{i} {f}");
        }
        if !self.disasm.is_empty() {
            let _ = writeln!(out, "Faulting instruction window:");
            for l in &self.disasm {
                let marker = if l.fault { "=>" } else { "  " };
                let _ = writeln!(
                    out,
                    "  {marker} {}:  {:<31} {}",
                    addr_str(l.addr),
                    l.bytes,
                    l.text
                );
            }
        }
        let _ = writeln!(out, "Registers:");
        for chunk in Reg::ALL.chunks(4) {
            let line: Vec<String> = chunk
                .iter()
                .map(|&r| format!("{r}={}", addr_str(self.regs[r.index()])))
                .collect();
            let _ = writeln!(out, "  {}", line.join("  "));
        }
        let _ = writeln!(out, "  flags={:#04x}", self.flags);
        match &self.context {
            ToolContext::None => {}
            ToolContext::Jasan(j) => jasan_text(&mut out, j),
            ToolContext::Jcfi(j) => jcfi_text(&mut out, j, &self.backtrace),
        }
        if !self.trail.is_empty() {
            let _ = writeln!(out, "Execution trail (oldest block first):");
            for f in &self.trail {
                let _ = writeln!(out, "  {f}");
            }
        }
        out
    }

    /// Renders the schema-stable JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(REPORT_SCHEMA)),
            ("id", Json::str(&self.id)),
            ("tool", Json::str(&self.tool)),
            ("exe", Json::str(&self.exe)),
            ("seq", Json::U64(self.seq as u64)),
            ("kind", Json::str(self.kind.as_str())),
            ("pc", Json::str(addr_str(self.pc))),
            ("details", Json::str(&self.details)),
            (
                "backtrace",
                Json::Arr(self.backtrace.iter().map(frame_json).collect()),
            ),
            (
                "disasm",
                Json::Arr(
                    self.disasm
                        .iter()
                        .map(|l| {
                            Json::obj([
                                ("addr", Json::str(addr_str(l.addr))),
                                ("bytes", Json::str(l.bytes.trim_end())),
                                ("text", Json::str(&l.text)),
                                ("fault", Json::Bool(l.fault)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "registers",
                Json::obj(
                    Reg::ALL
                        .iter()
                        .map(|&r| (r.to_string(), Json::str(addr_str(self.regs[r.index()])))),
                ),
            ),
            ("flags", Json::str(format!("{:#04x}", self.flags))),
            (
                "trail",
                Json::Arr(self.trail.iter().map(frame_json).collect()),
            ),
            ("context", context_json(&self.context)),
        ])
    }
}
