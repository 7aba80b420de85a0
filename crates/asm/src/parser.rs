//! Line-oriented parser and two-pass encoder.

use janitizer_isa::{AluOp, Cc, Instr, MemSize, Reg};
use janitizer_obj::{Object, Reloc, RelocKind, Section, SectionKind, SymBind, SymKind, Symbol};
use std::collections::HashMap;
use std::fmt;

/// Assembler configuration.
#[derive(Clone, Debug, Default)]
pub struct AsmOptions {
    /// Assemble for position-independent linking: `la` becomes PC-relative
    /// instead of an absolute 64-bit immediate.
    pub pic: bool,
}

/// An assembly error with source position.
#[derive(Clone, Debug)]
pub struct AsmError {
    /// Source file name.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

/// A pending symbolic reference inside emitted bytes.
#[derive(Debug)]
struct Fixup {
    section: SectionKind,
    /// Offset of the 4- or 8-byte field to patch.
    offset: u64,
    kind: RelocKind,
    symbol: String,
    line: usize,
    /// Conditional branches must resolve within the object; there is no
    /// cross-module relocation for them.
    must_resolve: bool,
}

#[derive(Default)]
struct SectionBuf {
    data: Vec<u8>,
    bss_size: u64,
}

struct Assembler<'a> {
    file: String,
    opts: &'a AsmOptions,
    sections: HashMap<SectionKind, SectionBuf>,
    current: SectionKind,
    /// symbol name -> (section, offset)
    labels: HashMap<String, (SectionKind, u64)>,
    label_order: Vec<(String, SectionKind, u64)>,
    globals: Vec<String>,
    fixups: Vec<Fixup>,
    line: usize,
}

impl<'a> Assembler<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, AsmError> {
        Err(AsmError {
            file: self.file.clone(),
            line: self.line,
            message: msg.into(),
        })
    }

    fn cur(&mut self) -> &mut SectionBuf {
        self.sections.entry(self.current).or_default()
    }

    fn here(&mut self) -> u64 {
        let c = self.current;
        let buf = self.sections.entry(c).or_default();
        if c == SectionKind::Bss {
            buf.bss_size
        } else {
            buf.data.len() as u64
        }
    }

    fn emit(&mut self, i: Instr) {
        let buf = self.cur();
        i.encode(&mut buf.data);
    }

    fn define_label(&mut self, name: &str) -> Result<(), AsmError> {
        if self.labels.contains_key(name) {
            return self.err(format!("duplicate label `{name}`"));
        }
        let off = self.here();
        self.labels.insert(name.to_string(), (self.current, off));
        self.label_order.push((name.to_string(), self.current, off));
        Ok(())
    }
}

fn parse_reg(tok: &str) -> Option<Reg> {
    match tok {
        "sp" => Some(Reg::SP),
        "fp" => Some(Reg::FP),
        _ => {
            let n: usize = tok.strip_prefix('r')?.parse().ok()?;
            Reg::try_from_index(n)
        }
    }
}

fn parse_int(tok: &str) -> Option<i64> {
    let tok = tok.trim();
    if let Some(ch) = tok.strip_prefix('\'') {
        let ch = ch.strip_suffix('\'')?;
        let c = match ch {
            "\\n" => b'\n',
            "\\t" => b'\t',
            "\\0" => 0,
            "\\\\" => b'\\',
            _ if ch.len() == 1 => ch.as_bytes()[0],
            _ => return None,
        };
        return Some(c as i64);
    }
    let (neg, body) = match tok.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, tok),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()? as i64
    } else {
        body.parse::<u64>().ok()? as i64
    };
    Some(if neg { v.wrapping_neg() } else { v })
}

/// A parsed memory operand `[base]`, `[base±disp]`, `[base+idx*scale]`,
/// `[base+idx*scale±disp]`.
struct MemOperand {
    base: Reg,
    idx: Option<(Reg, u8)>,
    disp: i32,
}

fn parse_mem(tok: &str) -> Option<MemOperand> {
    let inner = tok.strip_prefix('[')?.strip_suffix(']')?;
    // Split on +/- while keeping signs for displacements.
    let mut base: Option<Reg> = None;
    let mut idx: Option<(Reg, u8)> = None;
    let mut disp: i64 = 0;
    let mut rest = inner;
    let mut first = true;
    while !rest.is_empty() {
        let (sign, term_start) = if first {
            (1i64, rest)
        } else if let Some(r) = rest.strip_prefix('+') {
            (1, r)
        } else if let Some(r) = rest.strip_prefix('-') {
            (-1, r)
        } else {
            return None;
        };
        first = false;
        let term_end = term_start
            .char_indices()
            .find(|&(i, c)| i > 0 && (c == '+' || c == '-'))
            .map(|(i, _)| i)
            .unwrap_or(term_start.len());
        let term = &term_start[..term_end];
        rest = &term_start[term_end..];
        if let Some((r, s)) = term.split_once('*') {
            let reg = parse_reg(r.trim())?;
            let scale: u64 = parse_int(s.trim())? as u64;
            let log2 = match scale {
                1 => 0,
                2 => 1,
                4 => 2,
                8 => 3,
                _ => return None,
            };
            if idx.is_some() || sign < 0 {
                return None;
            }
            idx = Some((reg, log2));
        } else if let Some(reg) = parse_reg(term.trim()) {
            if sign < 0 {
                return None;
            }
            if base.is_none() {
                base = Some(reg);
            } else if idx.is_none() {
                idx = Some((reg, 0));
            } else {
                return None;
            }
        } else {
            let v = parse_int(term.trim())?;
            disp += sign * v;
        }
    }
    Some(MemOperand {
        base: base?,
        idx,
        disp: i32::try_from(disp).ok()?,
    })
}

fn split_operands(s: &str) -> Vec<String> {
    // Split on commas not inside brackets or quotes.
    let mut out = Vec::new();
    let mut depth = 0;
    let mut in_str = false;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            '[' if !in_str => {
                depth += 1;
                cur.push(c);
            }
            ']' if !in_str => {
                depth -= 1;
                cur.push(c);
            }
            ',' if depth == 0 && !in_str => {
                out.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ';' | '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn alu_op(m: &str) -> Option<AluOp> {
    Some(match m {
        "add" => AluOp::Add,
        "sub" => AluOp::Sub,
        "mul" => AluOp::Mul,
        "div" => AluOp::Divu,
        "mod" => AluOp::Modu,
        "and" => AluOp::And,
        "or" => AluOp::Or,
        "xor" => AluOp::Xor,
        "shl" => AluOp::Shl,
        "shr" => AluOp::Shr,
        "sar" => AluOp::Sar,
        "cmp" => AluOp::Cmp,
        "test" => AluOp::Test,
        _ => return None,
    })
}

fn cond_code(m: &str) -> Option<Cc> {
    Some(match m {
        "je" => Cc::Eq,
        "jne" => Cc::Ne,
        "jl" => Cc::Lt,
        "jle" => Cc::Le,
        "jg" => Cc::Gt,
        "jge" => Cc::Ge,
        "jb" => Cc::B,
        "jae" => Cc::Ae,
        _ => return None,
    })
}

fn mem_size(suffix: &str) -> Option<MemSize> {
    Some(match suffix {
        "1" => MemSize::B1,
        "2" => MemSize::B2,
        "4" => MemSize::B4,
        "8" => MemSize::B8,
        _ => return None,
    })
}

impl<'a> Assembler<'a> {
    /// Emits a branch-like instruction with a symbolic target. The rel32
    /// field is assumed to be the final 4 bytes of the encoding.
    fn emit_branch(&mut self, template: Instr, symbol: &str, reloc: RelocKind) {
        let must_resolve = matches!(template, Instr::Jcc { .. });
        let start = self.here();
        self.emit(template);
        let end = self.here();
        self.fixups.push(Fixup {
            section: self.current,
            offset: end - 4,
            kind: reloc,
            symbol: symbol.to_string(),
            line: self.line,
            must_resolve,
        });
        debug_assert!(end - start >= 4);
    }

    fn handle_directive(&mut self, name: &str, rest: &str) -> Result<(), AsmError> {
        match name {
            ".section" => {
                self.current = match rest.trim().trim_start_matches('.') {
                    "text" => SectionKind::Text,
                    "data" => SectionKind::Data,
                    "rodata" => SectionKind::Rodata,
                    "bss" => SectionKind::Bss,
                    "init" => SectionKind::Init,
                    "fini" => SectionKind::Fini,
                    other => return self.err(format!("unknown section `{other}`")),
                };
                self.cur();
                Ok(())
            }
            ".global" => {
                self.globals.push(rest.trim().to_string());
                Ok(())
            }
            ".byte" | ".word" | ".quad" => {
                if self.current == SectionKind::Bss {
                    return self.err("initialized data in .bss");
                }
                let width = match name {
                    ".byte" => 1,
                    ".word" => 4,
                    _ => 8,
                };
                for val in split_operands(rest) {
                    if let Some(v) = parse_int(&val) {
                        let here = self.cur();
                        match width {
                            1 => here.data.push(v as u8),
                            4 => here.data.extend_from_slice(&(v as u32).to_le_bytes()),
                            _ => here.data.extend_from_slice(&(v as u64).to_le_bytes()),
                        }
                    } else if width == 8 {
                        // Symbolic pointer: emit zeros plus an Abs64 reloc.
                        let offset = self.here();
                        self.cur().data.extend_from_slice(&[0u8; 8]);
                        self.fixups.push(Fixup {
                            section: self.current,
                            offset,
                            kind: RelocKind::Abs64,
                            symbol: val.clone(),
                            line: self.line,
                            must_resolve: false,
                        });
                    } else {
                        return self.err(format!("bad value `{val}` for {name}"));
                    }
                }
                Ok(())
            }
            ".space" => {
                let n = parse_int(rest.trim())
                    .filter(|v| *v >= 0)
                    .ok_or_else(|| AsmError {
                        file: self.file.clone(),
                        line: self.line,
                        message: format!("bad .space size `{rest}`"),
                    })? as u64;
                if self.current == SectionKind::Bss {
                    self.cur().bss_size += n;
                } else {
                    let buf = self.cur();
                    buf.data.extend(std::iter::repeat_n(0u8, n as usize));
                }
                Ok(())
            }
            ".ascii" | ".asciz" => {
                let rest = rest.trim();
                let Some(body) = rest.strip_prefix('"').and_then(|r| r.strip_suffix('"')) else {
                    return self.err("string literal expected");
                };
                let mut bytes = Vec::new();
                let mut chars = body.chars();
                while let Some(c) = chars.next() {
                    if c == '\\' {
                        match chars.next() {
                            Some('n') => bytes.push(b'\n'),
                            Some('t') => bytes.push(b'\t'),
                            Some('0') => bytes.push(0),
                            Some('\\') => bytes.push(b'\\'),
                            Some('"') => bytes.push(b'"'),
                            _ => return self.err("bad escape in string"),
                        }
                    } else {
                        bytes.push(c as u8);
                    }
                }
                if name == ".asciz" {
                    bytes.push(0);
                }
                self.cur().data.extend_from_slice(&bytes);
                Ok(())
            }
            ".align" => {
                let n = parse_int(rest.trim())
                    .filter(|v| *v > 0)
                    .ok_or_else(|| AsmError {
                        file: self.file.clone(),
                        line: self.line,
                        message: "bad alignment".into(),
                    })? as u64;
                let here = self.here();
                let pad = (n - here % n) % n;
                if self.current == SectionKind::Bss {
                    self.cur().bss_size += pad;
                } else {
                    let buf = self.cur();
                    buf.data.extend(std::iter::repeat_n(0u8, pad as usize));
                }
                Ok(())
            }
            _ => self.err(format!("unknown directive `{name}`")),
        }
    }

    fn handle_instruction(&mut self, mnem: &str, rest: &str) -> Result<(), AsmError> {
        if self.current == SectionKind::Bss {
            return self.err("instructions not allowed in .bss");
        }
        let ops = split_operands(rest);
        let reg_at = |i: usize| -> Result<Reg, AsmError> {
            ops.get(i)
                .and_then(|t| parse_reg(t))
                .ok_or_else(|| AsmError {
                    file: self.file.clone(),
                    line: self.line,
                    message: format!("expected register operand {i} for `{mnem}`"),
                })
        };

        match mnem {
            "nop" => self.emit(Instr::Nop),
            "halt" => self.emit(Instr::Halt),
            "trap" => self.emit(Instr::Trap),
            "ret" => self.emit(Instr::Ret),
            "syscall" => self.emit(Instr::Syscall),
            "pushf" => self.emit(Instr::PushF),
            "popf" => self.emit(Instr::PopF),
            "push" => {
                let rs = reg_at(0)?;
                self.emit(Instr::Push { rs });
            }
            "pop" => {
                let rd = reg_at(0)?;
                self.emit(Instr::Pop { rd });
            }
            "neg" => {
                let rd = reg_at(0)?;
                self.emit(Instr::Neg { rd });
            }
            "not" => {
                let rd = reg_at(0)?;
                self.emit(Instr::Not { rd });
            }
            "mov" => {
                let rd = reg_at(0)?;
                let src = ops.get(1).cloned().unwrap_or_default();
                if let Some(rs) = parse_reg(&src) {
                    self.emit(Instr::MovRr { rd, rs });
                } else if let Some(v) = parse_int(&src) {
                    if let Ok(imm) = i32::try_from(v) {
                        self.emit(Instr::MovI32 { rd, imm });
                    } else {
                        self.emit(Instr::MovI64 { rd, imm: v as u64 });
                    }
                } else {
                    return self.err(format!("bad mov source `{src}`"));
                }
            }
            "la" => {
                let rd = reg_at(0)?;
                let sym = ops.get(1).cloned().ok_or_else(|| AsmError {
                    file: self.file.clone(),
                    line: self.line,
                    message: "la needs a symbol".into(),
                })?;
                if self.opts.pic {
                    self.emit_branch(Instr::LeaPc { rd, disp: 0 }, &sym, RelocKind::Pc32);
                } else {
                    let offset = self.here() + 2; // imm64 field
                    self.emit(Instr::MovI64 { rd, imm: 0 });
                    self.fixups.push(Fixup {
                        section: self.current,
                        offset,
                        kind: RelocKind::Abs64,
                        symbol: sym,
                        line: self.line,
                        must_resolve: false,
                    });
                }
            }
            "lg" => {
                let rd = reg_at(0)?;
                let sym = ops.get(1).cloned().ok_or_else(|| AsmError {
                    file: self.file.clone(),
                    line: self.line,
                    message: "lg needs a symbol".into(),
                })?;
                self.emit_branch(Instr::LeaPc { rd, disp: 0 }, &sym, RelocKind::GotPc32);
                self.emit(Instr::Ld {
                    size: MemSize::B8,
                    rd,
                    base: rd,
                    disp: 0,
                });
            }
            "lea" => {
                let rd = reg_at(0)?;
                let m = ops
                    .get(1)
                    .and_then(|t| parse_mem(t))
                    .ok_or_else(|| AsmError {
                        file: self.file.clone(),
                        line: self.line,
                        message: "lea needs a memory operand".into(),
                    })?;
                if m.idx.is_some() {
                    return self.err("lea does not support index registers");
                }
                self.emit(Instr::Lea {
                    rd,
                    base: m.base,
                    disp: m.disp,
                });
            }
            "jmp" => {
                let t = ops.first().cloned().unwrap_or_default();
                if let Some(rs) = parse_reg(&t) {
                    self.emit(Instr::JmpInd { rs });
                } else {
                    self.emit_branch(Instr::Jmp { rel: 0 }, &t, RelocKind::Pc32);
                }
            }
            "call" => {
                let t = ops.first().cloned().unwrap_or_default();
                if let Some(rs) = parse_reg(&t) {
                    self.emit(Instr::CallInd { rs });
                } else {
                    self.emit_branch(Instr::Call { rel: 0 }, &t, RelocKind::Plt32);
                }
            }
            "rdtls" => {
                let rd = reg_at(0)?;
                let off = ops
                    .get(1)
                    .and_then(|t| parse_int(t))
                    .ok_or_else(|| AsmError {
                        file: self.file.clone(),
                        line: self.line,
                        message: "rdtls needs an offset".into(),
                    })? as i32;
                self.emit(Instr::RdTls { rd, off });
            }
            "wrtls" => {
                let rs = reg_at(0)?;
                let off = ops
                    .get(1)
                    .and_then(|t| parse_int(t))
                    .ok_or_else(|| AsmError {
                        file: self.file.clone(),
                        line: self.line,
                        message: "wrtls needs an offset".into(),
                    })? as i32;
                self.emit(Instr::WrTls { rs, off });
            }
            _ => {
                if let Some(cc) = cond_code(mnem) {
                    let t = ops.first().cloned().unwrap_or_default();
                    self.emit_branch(Instr::Jcc { cc, rel: 0 }, &t, RelocKind::Pc32);
                } else if let Some(op) = alu_op(mnem) {
                    let rd = reg_at(0)?;
                    let src = ops.get(1).cloned().unwrap_or_default();
                    if let Some(rs) = parse_reg(&src) {
                        self.emit(Instr::AluRr { op, rd, rs });
                    } else if let Some(v) = parse_int(&src) {
                        let imm = i32::try_from(v).map_err(|_| AsmError {
                            file: self.file.clone(),
                            line: self.line,
                            message: "ALU immediate out of i32 range".into(),
                        })?;
                        self.emit(Instr::AluRi { op, rd, imm });
                    } else {
                        return self.err(format!("bad operand `{src}`"));
                    }
                } else if let Some(size) = mnem.strip_prefix("ld").and_then(mem_size) {
                    let rd = reg_at(0)?;
                    let m = ops
                        .get(1)
                        .and_then(|t| parse_mem(t))
                        .ok_or_else(|| AsmError {
                            file: self.file.clone(),
                            line: self.line,
                            message: "load needs a memory operand".into(),
                        })?;
                    match m.idx {
                        None => self.emit(Instr::Ld {
                            size,
                            rd,
                            base: m.base,
                            disp: m.disp,
                        }),
                        Some((idx, scale)) => self.emit(Instr::LdIdx {
                            size,
                            rd,
                            base: m.base,
                            idx,
                            scale,
                            disp: m.disp,
                        }),
                    }
                } else if let Some(size) = mnem.strip_prefix("st").and_then(mem_size) {
                    let m = ops
                        .first()
                        .and_then(|t| parse_mem(t))
                        .ok_or_else(|| AsmError {
                            file: self.file.clone(),
                            line: self.line,
                            message: "store needs a memory operand first".into(),
                        })?;
                    let rs = reg_at(1)?;
                    match m.idx {
                        None => self.emit(Instr::St {
                            size,
                            rs,
                            base: m.base,
                            disp: m.disp,
                        }),
                        Some((idx, scale)) => self.emit(Instr::StIdx {
                            size,
                            rs,
                            base: m.base,
                            idx,
                            scale,
                            disp: m.disp,
                        }),
                    }
                } else {
                    return self.err(format!("unknown mnemonic `{mnem}`"));
                }
            }
        }
        Ok(())
    }
}

/// Assembles `source` into a relocatable [`Object`].
///
/// # Errors
///
/// Returns an [`AsmError`] carrying `file` and the 1-based line number on
/// any syntax error, unknown mnemonic, out-of-range operand, duplicate
/// label, or branch to an unknown local symbol that is not resolvable by
/// relocation.
pub fn assemble(file: &str, source: &str, opts: &AsmOptions) -> Result<Object, AsmError> {
    let mut a = Assembler {
        file: file.to_string(),
        opts,
        sections: HashMap::new(),
        current: SectionKind::Text,
        labels: HashMap::new(),
        label_order: Vec::new(),
        globals: Vec::new(),
        fixups: Vec::new(),
        line: 0,
    };

    for (idx, raw) in source.lines().enumerate() {
        a.line = idx + 1;
        let mut line = strip_comment(raw).trim();
        // Labels (possibly several, possibly followed by code).
        while let Some(colon) = line.find(':') {
            let (head, tail) = line.split_at(colon);
            let head = head.trim();
            if head.is_empty()
                || !head
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '$')
                || head.contains(' ')
            {
                break;
            }
            a.define_label(head)?;
            line = tail[1..].trim();
        }
        if line.is_empty() {
            continue;
        }
        if let Some(stripped) = line.strip_prefix('.') {
            let (name, rest) = match stripped.find(char::is_whitespace) {
                Some(ws) => (&line[..ws + 1], &line[ws + 1..]),
                None => (line, ""),
            };
            a.handle_directive(name.trim(), rest)?;
        } else {
            let (mnem, rest) = match line.find(char::is_whitespace) {
                Some(ws) => (&line[..ws], &line[ws + 1..]),
                None => (line, ""),
            };
            a.handle_instruction(mnem, rest)?;
        }
    }

    // Second pass: resolve fixups against local labels or emit relocations.
    let mut relocs = Vec::new();
    let fixups = std::mem::take(&mut a.fixups);
    for f in fixups {
        match a.labels.get(&f.symbol) {
            Some(&(sec, target))
                if sec == f.section
                    && f.kind != RelocKind::Abs64
                    && f.kind != RelocKind::GotPc32 =>
            {
                // Same-section PC-relative reference: patch directly.
                let p = f.offset + 4;
                let rel = target as i64 - p as i64;
                let rel = i32::try_from(rel).map_err(|_| AsmError {
                    file: a.file.clone(),
                    line: f.line,
                    message: "branch displacement out of range".into(),
                })?;
                let buf = a.sections.get_mut(&f.section).unwrap();
                buf.data[f.offset as usize..f.offset as usize + 4]
                    .copy_from_slice(&rel.to_le_bytes());
            }
            _ => {
                // Known-in-other-section, or external: leave to the linker.
                if f.must_resolve && !a.labels.contains_key(&f.symbol) {
                    return Err(AsmError {
                        file: a.file.clone(),
                        line: f.line,
                        message: format!("conditional branch to undefined symbol `{}`", f.symbol),
                    });
                }
                relocs.push(Reloc {
                    section: f.section,
                    offset: f.offset,
                    kind: f.kind,
                    symbol: f.symbol,
                    addend: 0,
                });
            }
        }
    }

    // Build the symbol table with sizes derived from label spacing.
    let mut obj = Object::new(file);
    // BTreeMap: symbol-table order must not depend on hash iteration, so
    // that the same source always serializes to the same object bytes.
    let mut per_section: std::collections::BTreeMap<SectionKind, Vec<(String, u64)>> =
        std::collections::BTreeMap::new();
    for (name, sec, off) in &a.label_order {
        per_section
            .entry(*sec)
            .or_default()
            .push((name.clone(), *off));
    }
    for (sec, mut labels) in per_section {
        labels.sort_by_key(|(_, off)| *off);
        let sec_end = a
            .sections
            .get(&sec)
            .map(|b| {
                if sec == SectionKind::Bss {
                    b.bss_size
                } else {
                    b.data.len() as u64
                }
            })
            .unwrap_or(0);
        for i in 0..labels.len() {
            let (name, off) = &labels[i];
            // `.L`-style labels are assembler-local: they do not bound the
            // size of real symbols (GNU as behaviour), and get size 0
            // themselves.
            let size = if name.starts_with('.') {
                0
            } else {
                labels[i + 1..]
                    .iter()
                    .find(|(n, _)| !n.starts_with('.'))
                    .map(|(_, o)| *o)
                    .unwrap_or(sec_end)
                    .saturating_sub(*off)
            };
            let bind = if a.globals.contains(name) {
                SymBind::Global
            } else {
                SymBind::Local
            };
            obj.symbols.push(Symbol {
                name: name.clone(),
                kind: if sec.is_code() {
                    SymKind::Func
                } else {
                    SymKind::Object
                },
                bind,
                section: Some(sec),
                value: *off,
                size,
            });
        }
    }
    // Undefined symbols referenced by relocations.
    for r in &relocs {
        if !a.labels.contains_key(&r.symbol) && obj.symbol(&r.symbol).is_none() {
            obj.symbols.push(Symbol {
                name: r.symbol.clone(),
                kind: SymKind::Func,
                bind: SymBind::Global,
                section: None,
                value: 0,
                size: 0,
            });
        }
    }

    for (kind, buf) in a.sections {
        if kind == SectionKind::Bss {
            if buf.bss_size > 0 {
                obj.sections
                    .push(Section::zeroed(SectionKind::Bss, buf.bss_size));
            }
        } else if !buf.data.is_empty() {
            obj.sections.push(Section::new(kind, buf.data));
        }
    }
    obj.sections.sort_by_key(|s| s.kind);
    obj.relocs = relocs;
    Ok(obj)
}
