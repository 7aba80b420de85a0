//! MiniC code generation to JX-64 textual assembly.
//!
//! The generated code deliberately reproduces the idioms the Janitizer
//! paper's analyses must handle:
//!
//! * **stack canaries** (gcc `-fstack-protector` style): the prologue
//!   copies the TLS cookie to `[fp-8]`, the epilogue re-checks it and
//!   calls `__stack_chk_fail` on mismatch — the pattern JASan's canary
//!   analysis detects and poisons (paper §3.3.3, Figure 6);
//! * **jump tables** for dense `switch`es (indexed load + indirect jump),
//!   placed in `.rodata` by default or — with
//!   [`CompileOptions::tables_in_text`] — interleaved with code, the
//!   code/data ambiguity that breaks static-only rewriting (§2.1);
//! * the **`ipa-ra` convention break** (§4.1.2): with
//!   [`CompileOptions::ipa_ra`], a value may be kept in a caller-saved
//!   register across a call to a same-unit function known not to touch
//!   it, which invalidates purely intra-procedural liveness reasoning.

use crate::ast::*;
use crate::parser::{parse, ParseError};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

/// When to emit stack-canary protection.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CanaryMode {
    /// Never.
    Off,
    /// Functions with local arrays (gcc's default heuristic).
    #[default]
    Arrays,
    /// Every function.
    All,
}

/// Compiler configuration.
#[derive(Clone, Debug, Default)]
pub struct CompileOptions {
    /// Stack-canary policy.
    pub canary: CanaryMode,
    /// Allow the calling-convention break of gcc's `ipa-ra`: hold values
    /// in caller-saved registers across calls to same-unit functions that
    /// provably do not use them.
    pub ipa_ra: bool,
    /// Emit `switch` jump tables into `.text` instead of `.rodata`
    /// (models compilers that inter-mix code and data).
    pub tables_in_text: bool,
    /// Emit a `_start` that calls `main` (for libc-less programs).
    pub emit_start: bool,
}

/// A compilation error.
#[derive(Clone, Debug)]
pub enum CompileError {
    /// Syntax error.
    Parse(ParseError),
    /// Semantic error (unknown variable, bad lvalue, ...).
    Semantic(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Semantic(m) => write!(f, "semantic error: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> CompileError {
        CompileError::Parse(e)
    }
}

#[derive(Clone)]
struct LocalVar {
    /// Positive distance below `fp`: the slot lives at `[fp - off]`.
    off: i64,
    ty: Type,
    is_array: bool,
}

struct GlobalVar {
    ty: Type,
    is_array: bool,
}

struct FnCtx<'a> {
    gen: &'a mut Codegen,
    name: String,
    scopes: Vec<HashMap<String, LocalVar>>,
    next_off: i64,
    label_n: usize,
    breaks: Vec<String>,
    continues: Vec<String>,
    body: String,
    /// Deferred `.rodata` lines (string literals, jump tables).
    rodata: String,
}

struct Codegen {
    opts: CompileOptions,
    globals: HashMap<String, GlobalVar>,
    known_funcs: HashMap<String, bool>, // name -> is_static
    /// Register-usage masks of already-compiled functions (for ipa-ra).
    compiled_masks: HashMap<String, u16>,
    str_n: usize,
}

fn scan_frame_size(stmts: &[Stmt]) -> i64 {
    let mut total = 0;
    for s in stmts {
        match s {
            Stmt::Decl { ty, array, .. } => {
                let sz = match array {
                    Some(n) => (ty.size() * n).div_ceil(8) * 8,
                    None => 8,
                };
                total += sz as i64;
            }
            Stmt::If { t, e, .. } => total += scan_frame_size(t) + scan_frame_size(e),
            Stmt::While { body, .. } => total += scan_frame_size(body),
            Stmt::For {
                init, step, body, ..
            } => {
                if let Some(i) = init {
                    total += scan_frame_size(std::slice::from_ref(i));
                }
                if let Some(st) = step {
                    total += scan_frame_size(std::slice::from_ref(st));
                }
                total += scan_frame_size(body);
            }
            Stmt::Switch { cases, default, .. } => {
                for (_, b) in cases {
                    total += scan_frame_size(b);
                }
                total += scan_frame_size(default);
            }
            Stmt::Block(b) => total += scan_frame_size(b),
            _ => {}
        }
    }
    total
}

fn has_local_array(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Decl { array, .. } => array.is_some(),
        Stmt::If { t, e, .. } => has_local_array(t) || has_local_array(e),
        Stmt::While { body, .. } => has_local_array(body),
        Stmt::For {
            init, step, body, ..
        } => {
            init.as_deref()
                .map(|i| has_local_array(std::slice::from_ref(i)))
                == Some(true)
                || step
                    .as_deref()
                    .map(|s| has_local_array(std::slice::from_ref(s)))
                    == Some(true)
                || has_local_array(body)
        }
        Stmt::Switch { cases, default, .. } => {
            cases.iter().any(|(_, b)| has_local_array(b)) || has_local_array(default)
        }
        Stmt::Block(b) => has_local_array(b),
        _ => false,
    })
}

/// Extracts the set of registers mentioned in generated assembly text.
fn used_regs_mask(text: &str) -> u16 {
    let mut mask = 0u16;
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let boundary = i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
        if boundary && c == b'r' {
            let mut j = i + 1;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            let after_ok =
                j >= bytes.len() || !(bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_');
            if j > i + 1 && after_ok {
                if let Ok(n) = text[i + 1..j].parse::<u16>() {
                    if n < 16 {
                        mask |= 1 << n;
                    }
                }
            }
            i = j;
            continue;
        }
        if boundary && bytes[i..].starts_with(b"sp") {
            mask |= 1 << 15;
        }
        if boundary && bytes[i..].starts_with(b"fp") {
            mask |= 1 << 14;
        }
        i += 1;
    }
    mask
}

impl<'a> FnCtx<'a> {
    fn emit(&mut self, line: impl AsRef<str>) {
        let _ = writeln!(self.body, "    {}", line.as_ref());
    }

    fn label(&mut self, prefix: &str) -> String {
        self.label_n += 1;
        format!(".L{}_{}_{}", prefix, self.name, self.label_n)
    }

    fn place_label(&mut self, l: &str) {
        let _ = writeln!(self.body, "{l}:");
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, CompileError> {
        Err(CompileError::Semantic(format!(
            "{}: {}",
            self.name,
            msg.into()
        )))
    }

    fn lookup_local(&self, name: &str) -> Option<&LocalVar> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn declare(&mut self, name: &str, ty: Type, array: Option<u64>) -> LocalVar {
        let sz = match array {
            Some(n) => (ty.size() * n).div_ceil(8) * 8,
            None => 8,
        } as i64;
        self.next_off += sz;
        let v = LocalVar {
            off: self.next_off,
            ty,
            is_array: array.is_some(),
        };
        self.scopes
            .last_mut()
            .expect("scope stack non-empty")
            .insert(name.to_string(), v.clone());
        v
    }

    /// Static type of an expression (defaulting to `long`).
    fn type_of(&self, e: &Expr) -> Type {
        match e {
            Expr::Str(_) => Type::Ptr(Box::new(Type::Char)),
            Expr::Var(n) => {
                if let Some(l) = self.lookup_local(n) {
                    if l.is_array {
                        Type::Ptr(Box::new(l.ty.clone()))
                    } else {
                        l.ty.clone()
                    }
                } else if let Some(g) = self.gen.globals.get(n) {
                    if g.is_array {
                        Type::Ptr(Box::new(g.ty.clone()))
                    } else {
                        g.ty.clone()
                    }
                } else {
                    Type::Long
                }
            }
            Expr::Un { op: UnOp::Deref, e } => self.type_of(e).deref(),
            Expr::Un { op: UnOp::Addr, e } => Type::Ptr(Box::new(self.type_of(e))),
            Expr::Un { .. } => Type::Long,
            Expr::Index { base, .. } => self.type_of(base).deref(),
            Expr::Bin {
                op: BinOp::Add | BinOp::Sub,
                l,
                r,
            } => {
                let lt = self.type_of(l);
                if matches!(lt, Type::Ptr(_)) {
                    lt
                } else {
                    let rt = self.type_of(r);
                    if matches!(rt, Type::Ptr(_)) {
                        rt
                    } else {
                        Type::Long
                    }
                }
            }
            Expr::Assign { target, .. } => self.type_of(target),
            Expr::Cond { t, .. } => self.type_of(t),
            _ => Type::Long,
        }
    }

    fn load_suffix(ty: &Type) -> &'static str {
        if ty.size() == 1 {
            "1"
        } else {
            "8"
        }
    }

    /// Emits code leaving the *address* of lvalue `e` in r0.
    fn emit_addr(&mut self, e: &Expr) -> Result<Type, CompileError> {
        match e {
            Expr::Var(n) => {
                if let Some(l) = self.lookup_local(n).cloned() {
                    self.emit(format!("lea r0, [fp-{}]", l.off));
                    Ok(l.ty)
                } else if let Some(g) = self.gen.globals.get(n) {
                    let ty = g.ty.clone();
                    self.emit(format!("la r0, {n}"));
                    Ok(ty)
                } else {
                    self.err(format!("unknown variable `{n}`"))
                }
            }
            Expr::Un { op: UnOp::Deref, e } => {
                let t = self.type_of(e).deref();
                self.eval(e)?;
                Ok(t)
            }
            Expr::Index { base, idx } => {
                let elem = self.type_of(base).deref();
                self.eval(base)?;
                self.emit("push r0");
                self.eval(idx)?;
                if elem.size() > 1 {
                    self.emit(format!("shl r0, {}", elem.size().trailing_zeros()));
                }
                self.emit("pop r1");
                self.emit("add r0, r1");
                Ok(elem)
            }
            _ => self.err("expression is not an lvalue"),
        }
    }

    fn emit_bool_from_flags(&mut self, jcc: &str) {
        let lt = self.label("true");
        self.emit("mov r0, 1");
        self.emit(format!("{jcc} {lt}"));
        self.emit("mov r0, 0");
        self.place_label(&lt);
    }

    fn apply_bin(&mut self, op: BinOp, scale_r_by: u64) -> Result<(), CompileError> {
        // Left value in r1, right in r0; result to r0.
        if scale_r_by > 1 {
            self.emit(format!("shl r0, {}", scale_r_by.trailing_zeros()));
        }
        match op {
            BinOp::Add => {
                self.emit("add r1, r0");
                self.emit("mov r0, r1");
            }
            BinOp::Sub => {
                self.emit("sub r1, r0");
                self.emit("mov r0, r1");
            }
            BinOp::Mul => {
                self.emit("mul r1, r0");
                self.emit("mov r0, r1");
            }
            BinOp::Div => {
                self.emit("div r1, r0");
                self.emit("mov r0, r1");
            }
            BinOp::Mod => {
                self.emit("mod r1, r0");
                self.emit("mov r0, r1");
            }
            BinOp::And => {
                self.emit("and r1, r0");
                self.emit("mov r0, r1");
            }
            BinOp::Or => {
                self.emit("or r1, r0");
                self.emit("mov r0, r1");
            }
            BinOp::Xor => {
                self.emit("xor r1, r0");
                self.emit("mov r0, r1");
            }
            BinOp::Shl => {
                self.emit("shl r1, r0");
                self.emit("mov r0, r1");
            }
            BinOp::Shr => {
                self.emit("sar r1, r0");
                self.emit("mov r0, r1");
            }
            BinOp::Lt => {
                self.emit("cmp r1, r0");
                self.emit_bool_from_flags("jl");
            }
            BinOp::Le => {
                self.emit("cmp r1, r0");
                self.emit_bool_from_flags("jle");
            }
            BinOp::Gt => {
                self.emit("cmp r1, r0");
                self.emit_bool_from_flags("jg");
            }
            BinOp::Ge => {
                self.emit("cmp r1, r0");
                self.emit_bool_from_flags("jge");
            }
            BinOp::Eq => {
                self.emit("cmp r1, r0");
                self.emit_bool_from_flags("je");
            }
            BinOp::Ne => {
                self.emit("cmp r1, r0");
                self.emit_bool_from_flags("jne");
            }
            BinOp::LAnd | BinOp::LOr => unreachable!("short-circuit handled in eval"),
        }
        Ok(())
    }

    /// Evaluates `e` into r0.
    fn eval(&mut self, e: &Expr) -> Result<(), CompileError> {
        match e {
            Expr::Num(v) => {
                self.emit(format!("mov r0, {v}"));
            }
            Expr::Str(s) => {
                let label = format!(".Lstr{}", self.gen.str_n);
                self.gen.str_n += 1;
                let mut lit = String::new();
                for &b in s {
                    match b {
                        b'\n' => lit.push_str("\\n"),
                        b'\t' => lit.push_str("\\t"),
                        b'"' => lit.push_str("\\\""),
                        b'\\' => lit.push_str("\\\\"),
                        0 => lit.push_str("\\0"),
                        b => lit.push(b as char),
                    }
                }
                let _ = writeln!(self.rodata, "{label}: .asciz \"{lit}\"");
                self.emit(format!("la r0, {label}"));
            }
            Expr::Var(n) => {
                if let Some(l) = self.lookup_local(n).cloned() {
                    if l.is_array {
                        self.emit(format!("lea r0, [fp-{}]", l.off));
                    } else {
                        self.emit(format!("ld{} r0, [fp-{}]", Self::load_suffix(&l.ty), l.off));
                    }
                } else if let Some(g) = self.gen.globals.get(n) {
                    let is_array = g.is_array;
                    let suffix = Self::load_suffix(&g.ty);
                    self.emit(format!("la r0, {n}"));
                    if !is_array {
                        self.emit(format!("ld{suffix} r0, [r0]"));
                    }
                } else if self.gen.known_funcs.contains_key(n) {
                    // Function designator decays to its address.
                    self.emit(format!("la r0, {n}"));
                } else {
                    return self.err(format!("unknown variable `{n}`"));
                }
            }
            Expr::Un { op, e } => match op {
                UnOp::Neg => {
                    self.eval(e)?;
                    self.emit("neg r0");
                }
                UnOp::BitNot => {
                    self.eval(e)?;
                    self.emit("not r0");
                }
                UnOp::LNot => {
                    self.eval(e)?;
                    self.emit("cmp r0, 0");
                    self.emit_bool_from_flags("je");
                }
                UnOp::Deref => {
                    let t = self.type_of(e).deref();
                    self.eval(e)?;
                    self.emit(format!("ld{} r0, [r0]", Self::load_suffix(&t)));
                }
                UnOp::Addr => match &**e {
                    Expr::Var(n)
                        if self.lookup_local(n).is_none() && !self.gen.globals.contains_key(n) =>
                    {
                        // &function
                        self.emit(format!("la r0, {n}"));
                    }
                    lv => {
                        self.emit_addr(lv)?;
                    }
                },
            },
            Expr::Index { .. } => {
                let t = self.emit_addr(e)?;
                self.emit(format!("ld{} r0, [r0]", Self::load_suffix(&t)));
            }
            Expr::Bin { op, l, r } => match op {
                BinOp::LAnd => {
                    let lf = self.label("and_false");
                    let le = self.label("and_end");
                    self.eval(l)?;
                    self.emit("cmp r0, 0");
                    self.emit(format!("je {lf}"));
                    self.eval(r)?;
                    self.emit("cmp r0, 0");
                    self.emit(format!("je {lf}"));
                    self.emit("mov r0, 1");
                    self.emit(format!("jmp {le}"));
                    self.place_label(&lf);
                    self.emit("mov r0, 0");
                    self.place_label(&le);
                }
                BinOp::LOr => {
                    let lt = self.label("or_true");
                    let le = self.label("or_end");
                    self.eval(l)?;
                    self.emit("cmp r0, 0");
                    self.emit(format!("jne {lt}"));
                    self.eval(r)?;
                    self.emit("cmp r0, 0");
                    self.emit(format!("jne {lt}"));
                    self.emit("mov r0, 0");
                    self.emit(format!("jmp {le}"));
                    self.place_label(&lt);
                    self.emit("mov r0, 1");
                    self.place_label(&le);
                }
                _ => {
                    // Pointer-arithmetic scaling.
                    let lt = self.type_of(l);
                    let rt = self.type_of(r);
                    let scale = match op {
                        BinOp::Add | BinOp::Sub
                            if matches!(lt, Type::Ptr(_)) && !matches!(rt, Type::Ptr(_)) =>
                        {
                            lt.pointee_size()
                        }
                        _ => 1,
                    };
                    // `int + ptr`: normalize so the pointer is on the left.
                    let (l, r, scale) = if *op == BinOp::Add
                        && matches!(rt, Type::Ptr(_))
                        && !matches!(lt, Type::Ptr(_))
                    {
                        (r, l, rt.pointee_size())
                    } else {
                        (l, r, scale)
                    };

                    // ipa-ra: hold the left value in a free caller-saved
                    // register across a simple direct call.
                    if let Some(hold) = self.ipa_hold_reg(r) {
                        self.eval(l)?;
                        self.emit(format!("mov r{hold}, r0"));
                        self.eval(r)?;
                        self.emit(format!("mov r1, r{hold}"));
                        self.apply_bin(*op, scale)?;
                    } else {
                        self.eval(l)?;
                        self.emit("push r0");
                        self.eval(r)?;
                        self.emit("pop r1");
                        self.apply_bin(*op, scale)?;
                    }
                }
            },
            Expr::Assign { target, value, op } => {
                match op {
                    None => {
                        // Fast path for scalar locals.
                        if let Expr::Var(n) = &**target {
                            if let Some(l) = self.lookup_local(n).cloned() {
                                if !l.is_array {
                                    self.eval(value)?;
                                    self.emit(format!(
                                        "st{} [fp-{}], r0",
                                        Self::load_suffix(&l.ty),
                                        l.off
                                    ));
                                    return Ok(());
                                }
                            }
                        }
                        let t = { self.emit_addr(target)? };
                        self.emit("push r0");
                        self.eval(value)?;
                        self.emit("pop r1");
                        self.emit(format!("st{} [r1], r0", Self::load_suffix(&t)));
                    }
                    Some(op) => {
                        let t = self.emit_addr(target)?;
                        let sfx = Self::load_suffix(&t);
                        self.emit("push r0");
                        self.emit("ld8 r1, [sp]");
                        self.emit(format!("ld{sfx} r0, [r1]"));
                        self.emit("push r0");
                        self.eval(value)?;
                        self.emit("pop r1");
                        // Pointer compound add/sub scales (p += n).
                        let scale =
                            if matches!(t, Type::Ptr(_)) && matches!(op, BinOp::Add | BinOp::Sub) {
                                t.pointee_size()
                            } else {
                                1
                            };
                        self.apply_bin(*op, scale)?;
                        self.emit("pop r1");
                        self.emit(format!("st{sfx} [r1], r0"));
                    }
                }
            }
            Expr::Call { callee, args } => {
                // Evaluate arguments left-to-right onto the stack.
                for a in args {
                    self.eval(a)?;
                    self.emit("push r0");
                }
                enum Kind {
                    Direct(String),
                    Indirect,
                }
                let kind = match &**callee {
                    Expr::Var(n)
                        if self.lookup_local(n).is_none() && !self.gen.globals.contains_key(n) =>
                    {
                        Kind::Direct(n.clone())
                    }
                    other => {
                        self.eval(other)?;
                        self.emit("mov r7, r0");
                        Kind::Indirect
                    }
                };
                for i in (0..args.len()).rev() {
                    self.emit(format!("pop r{i}"));
                }
                match kind {
                    Kind::Direct(n) => self.emit(format!("call {n}")),
                    Kind::Indirect => self.emit("call r7"),
                }
            }
            Expr::Cond { c, t, f } => {
                let lf = self.label("cond_f");
                let le = self.label("cond_e");
                self.eval(c)?;
                self.emit("cmp r0, 0");
                self.emit(format!("je {lf}"));
                self.eval(t)?;
                self.emit(format!("jmp {le}"));
                self.place_label(&lf);
                self.eval(f)?;
                self.place_label(&le);
            }
        }
        Ok(())
    }

    /// Decides whether `e` is a call we can hold a value across in a
    /// caller-saved register (the ipa-ra optimization); returns the
    /// register number.
    fn ipa_hold_reg(&self, e: &Expr) -> Option<u16> {
        if !self.gen.opts.ipa_ra {
            return None;
        }
        let Expr::Call { callee, args } = e else {
            return None;
        };
        let Expr::Var(name) = &**callee else {
            return None;
        };
        if self.lookup_local(name).is_some() || self.gen.globals.contains_key(name) {
            return None;
        }
        let mask = *self.gen.compiled_masks.get(name)?;
        if !args
            .iter()
            .all(|a| matches!(a, Expr::Num(_) | Expr::Var(_)))
        {
            return None;
        }
        // Candidate caller-saved registers not used by the callee and not
        // needed for argument passing.
        for cand in [5u16, 4, 3, 2] {
            if (cand as usize) < args.len() {
                continue;
            }
            if mask & (1 << cand) == 0 {
                return Some(cand);
            }
        }
        None
    }

    fn eval_cond_jump_false(&mut self, c: &Expr, target: &str) -> Result<(), CompileError> {
        self.eval(c)?;
        self.emit("cmp r0, 0");
        self.emit(format!("je {target}"));
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Expr(e) => self.eval(e)?,
            Stmt::Decl {
                name,
                ty,
                array,
                init,
            } => {
                let v = self.declare(name, ty.clone(), *array);
                if let Some(init) = init {
                    if v.is_array {
                        return self.err("array initializers are not supported for locals");
                    }
                    self.eval(init)?;
                    self.emit(format!("st{} [fp-{}], r0", Self::load_suffix(&v.ty), v.off));
                }
            }
            Stmt::If { c, t, e } => {
                let lf = self.label("else");
                let le = self.label("endif");
                self.eval_cond_jump_false(c, &lf)?;
                self.scopes.push(HashMap::new());
                for s in t {
                    self.stmt(s)?;
                }
                self.scopes.pop();
                if !e.is_empty() {
                    self.emit(format!("jmp {le}"));
                }
                self.place_label(&lf);
                if !e.is_empty() {
                    self.scopes.push(HashMap::new());
                    for s in e {
                        self.stmt(s)?;
                    }
                    self.scopes.pop();
                    self.place_label(&le);
                }
            }
            Stmt::While { c, body } => {
                let lh = self.label("while");
                let le = self.label("wend");
                self.place_label(&lh.clone());
                self.eval_cond_jump_false(c, &le)?;
                self.breaks.push(le.clone());
                self.continues.push(lh.clone());
                self.scopes.push(HashMap::new());
                for s in body {
                    self.stmt(s)?;
                }
                self.scopes.pop();
                self.continues.pop();
                self.breaks.pop();
                self.emit(format!("jmp {lh}"));
                self.place_label(&le);
            }
            Stmt::For {
                init,
                c,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let lh = self.label("for");
                let lc = self.label("fstep");
                let le = self.label("fend");
                self.place_label(&lh.clone());
                if let Some(c) = c {
                    self.eval_cond_jump_false(c, &le)?;
                }
                self.breaks.push(le.clone());
                self.continues.push(lc.clone());
                self.scopes.push(HashMap::new());
                for s in body {
                    self.stmt(s)?;
                }
                self.scopes.pop();
                self.continues.pop();
                self.breaks.pop();
                self.place_label(&lc);
                if let Some(st) = step {
                    self.stmt(st)?;
                }
                self.emit(format!("jmp {lh}"));
                self.place_label(&le);
                self.scopes.pop();
            }
            Stmt::Return(e) => {
                if let Some(e) = e {
                    self.eval(e)?;
                } else {
                    self.emit("mov r0, 0");
                }
                self.emit(format!("jmp .Lret_{}", self.name));
            }
            Stmt::Break => {
                let Some(l) = self.breaks.last().cloned() else {
                    return self.err("`break` outside loop or switch");
                };
                self.emit(format!("jmp {l}"));
            }
            Stmt::Continue => {
                let Some(l) = self.continues.last().cloned() else {
                    return self.err("`continue` outside loop");
                };
                self.emit(format!("jmp {l}"));
            }
            Stmt::Switch { e, cases, default } => self.switch(e, cases, default)?,
            Stmt::Block(b) => {
                self.scopes.push(HashMap::new());
                for s in b {
                    self.stmt(s)?;
                }
                self.scopes.pop();
            }
        }
        Ok(())
    }

    fn switch(
        &mut self,
        e: &Expr,
        cases: &[(i64, Vec<Stmt>)],
        default: &[Stmt],
    ) -> Result<(), CompileError> {
        let lend = self.label("swend");
        let ldef = self.label("swdef");
        self.eval(e)?;
        let min = cases.iter().map(|(v, _)| *v).min().unwrap_or(0);
        let max = cases.iter().map(|(v, _)| *v).max().unwrap_or(0);
        let dense = cases.len() >= 4 && (max - min) < 3 * cases.len() as i64 && (max - min) < 512;
        let case_labels: Vec<String> = (0..cases.len()).map(|_| self.label("case")).collect();
        if dense {
            // Jump table: bounds check, indexed load, indirect jump.
            let tbl = self.label("tbl");
            if min != 0 {
                self.emit(format!("sub r0, {min}"));
            }
            self.emit(format!("cmp r0, {}", max - min + 1));
            self.emit(format!("jae {ldef}"));
            self.emit(format!("la r7, {tbl}"));
            self.emit("ld8 r7, [r7+r0*8]");
            self.emit("jmp r7");
            // Emit the table itself.
            let mut tbl_lines = format!("{tbl}:\n");
            for slot in 0..=(max - min) {
                let target = cases
                    .iter()
                    .position(|(v, _)| *v == min + slot)
                    .map(|i| case_labels[i].clone())
                    .unwrap_or_else(|| ldef.clone());
                let _ = writeln!(tbl_lines, "    .quad {target}");
            }
            if self.gen.opts.tables_in_text {
                // Interleave the table with the code (code/data ambiguity).
                self.body.push_str(&tbl_lines);
            } else {
                self.rodata.push_str(&tbl_lines);
            }
        } else {
            for (i, (v, _)) in cases.iter().enumerate() {
                self.emit(format!("cmp r0, {v}"));
                self.emit(format!("je {}", case_labels[i]));
            }
            self.emit(format!("jmp {ldef}"));
        }
        self.breaks.push(lend.clone());
        for (i, (_, body)) in cases.iter().enumerate() {
            self.place_label(&case_labels[i]);
            self.scopes.push(HashMap::new());
            for s in body {
                self.stmt(s)?;
            }
            self.scopes.pop();
            self.emit(format!("jmp {lend}"));
        }
        self.place_label(&ldef);
        self.scopes.push(HashMap::new());
        for s in default {
            self.stmt(s)?;
        }
        self.scopes.pop();
        self.breaks.pop();
        self.place_label(&lend);
        Ok(())
    }
}

impl Codegen {
    fn compile_func(&mut self, f: &Func) -> Result<String, CompileError> {
        let canary = match self.opts.canary {
            CanaryMode::Off => false,
            CanaryMode::All => true,
            CanaryMode::Arrays => has_local_array(&f.body),
        };
        let mut ctx = FnCtx {
            gen: self,
            name: f.name.clone(),
            scopes: vec![HashMap::new()],
            next_off: if canary { 8 } else { 0 },
            label_n: 0,
            breaks: Vec::new(),
            continues: Vec::new(),
            body: String::new(),
            rodata: String::new(),
        };

        // Frame: [fp-8] canary (if any), then params, then locals.
        let frame_raw = ctx.next_off + 8 * f.params.len() as i64 + scan_frame_size(&f.body);
        let frame = (frame_raw + 15) / 16 * 16;

        // Prologue.
        let mut head = String::new();
        if !f.is_static {
            let _ = writeln!(head, ".global {}", f.name);
        }
        let _ = writeln!(head, "{}:", f.name);
        let _ = writeln!(head, "    push fp");
        let _ = writeln!(head, "    mov fp, sp");
        if frame > 0 {
            let _ = writeln!(head, "    sub sp, {frame}");
        }
        if canary {
            // The canary pattern the static analyzer recognizes.
            let _ = writeln!(head, "    rdtls r6, 0x28");
            let _ = writeln!(head, "    st8 [fp-8], r6");
        }
        // Spill parameters.
        for (i, (pname, pty)) in f.params.iter().enumerate() {
            let v = ctx.declare(pname, pty.clone(), None);
            let _ = writeln!(head, "    st8 [fp-{}], r{}", v.off, i);
        }

        for s in &f.body {
            ctx.stmt(s)?;
        }
        // Implicit `return 0`.
        ctx.emit("mov r0, 0");
        let name = ctx.name.clone();
        ctx.place_label(&format!(".Lret_{name}"));
        if canary {
            ctx.emit("rdtls r6, 0x28");
            ctx.emit("ld8 r7, [fp-8]");
            ctx.emit("cmp r6, r7");
            ctx.emit(format!("jne .Lchk_{name}"));
        }
        ctx.emit("mov sp, fp");
        ctx.emit("pop fp");
        ctx.emit("ret");
        if canary {
            ctx.place_label(&format!(".Lchk_{name}"));
            ctx.emit("call __stack_chk_fail");
        }
        let body = std::mem::take(&mut ctx.body);
        let rodata = std::mem::take(&mut ctx.rodata);

        let mut out = head;
        out.push_str(&body);
        if !rodata.is_empty() {
            out.push_str(".section rodata\n");
            out.push_str(&rodata);
            out.push_str(".section text\n");
        }
        self.compiled_masks
            .insert(f.name.clone(), used_regs_mask(&out));
        Ok(out)
    }

    fn emit_global(&self, g: &Global, out: &mut String) -> Result<(), CompileError> {
        let elem = g.ty.size();
        match &g.init {
            GlobalInit::None => {
                let n = g.array.unwrap_or(1).max(1);
                let _ = writeln!(out, ".section bss");
                let _ = writeln!(out, ".global {}", g.name);
                let _ = writeln!(out, "{}: .space {}", g.name, (elem * n).max(8));
            }
            init => {
                let _ = writeln!(out, ".section data");
                let _ = writeln!(out, ".global {}", g.name);
                let _ = writeln!(out, "{}:", g.name);
                fn one(out: &mut String, elem: u64, init: &GlobalInit) -> Result<(), CompileError> {
                    match init {
                        GlobalInit::Int(v) => {
                            if elem == 1 {
                                let _ = writeln!(out, "    .byte {v}");
                            } else {
                                let _ = writeln!(out, "    .quad {v}");
                            }
                        }
                        GlobalInit::Addr(s) => {
                            let _ = writeln!(out, "    .quad {s}");
                        }
                        GlobalInit::Str(s) => {
                            let mut lit = String::new();
                            for &b in s {
                                match b {
                                    b'\n' => lit.push_str("\\n"),
                                    b'\t' => lit.push_str("\\t"),
                                    b'"' => lit.push_str("\\\""),
                                    b'\\' => lit.push_str("\\\\"),
                                    0 => lit.push_str("\\0"),
                                    b => lit.push(b as char),
                                }
                            }
                            let _ = writeln!(out, "    .asciz \"{lit}\"");
                        }
                        GlobalInit::List(items) => {
                            for i in items {
                                one(out, elem, i)?;
                            }
                        }
                        GlobalInit::None => {}
                    }
                    Ok(())
                }
                one(out, elem, init)?;
                // Pad explicit-size arrays whose initializer is shorter.
                if let (Some(n), GlobalInit::List(items)) = (g.array, init) {
                    if n > 0 && (n as usize) > items.len() {
                        let _ = writeln!(
                            out,
                            "    .space {}",
                            (n as usize - items.len()) as u64 * elem
                        );
                    }
                }
            }
        }
        Ok(())
    }
}

/// Compiles MiniC source to JX-64 assembly text (to be fed to
/// `janitizer_asm::assemble`).
///
/// # Errors
///
/// Returns a [`CompileError`] on parse or semantic errors.
pub fn compile(src: &str, opts: &CompileOptions) -> Result<String, CompileError> {
    let prog = parse(src)?;
    let mut gen = Codegen {
        opts: opts.clone(),
        globals: HashMap::new(),
        known_funcs: HashMap::new(),
        compiled_masks: HashMap::new(),
        str_n: 0,
    };
    for g in &prog.globals {
        gen.globals.insert(
            g.name.clone(),
            GlobalVar {
                ty: g.ty.clone(),
                is_array: g.array.is_some(),
            },
        );
    }
    for f in &prog.funcs {
        gen.known_funcs.insert(f.name.clone(), f.is_static);
    }

    let mut out = String::new();
    out.push_str(".section text\n");
    if opts.emit_start {
        out.push_str(".global _start\n_start:\n    call main\n    ret\n");
    }
    for f in &prog.funcs {
        let code = gen.compile_func(f)?;
        out.push_str(&code);
    }
    for g in &prog.globals {
        gen.emit_global(g, &mut out)?;
    }
    Ok(out)
}
