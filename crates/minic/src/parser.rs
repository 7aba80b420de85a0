//! Recursive-descent / Pratt parser for MiniC.

use crate::ast::*;
use crate::lexer::{lex, SpannedTok, Tok};
use std::fmt;

/// A parse error with source line.
#[derive(Clone, Debug)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
}

const KEYWORDS: &[&str] = &[
    "long", "char", "if", "else", "while", "for", "return", "break", "continue", "switch", "case",
    "default", "static",
];

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn line(&self) -> usize {
        self.toks[self.pos].line
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.line(),
            message: msg.into(),
        })
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found {}", self.peek()))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) if !KEYWORDS.contains(&s.as_str()) => Ok(s),
            t => Err(ParseError {
                line: self.line(),
                message: format!("expected identifier, found {t}"),
            }),
        }
    }

    fn peek_type(&self) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == "long" || s == "char")
    }

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        let base = if self.eat_kw("long") {
            Type::Long
        } else if self.eat_kw("char") {
            Type::Char
        } else {
            return self.err(format!("expected type, found {}", self.peek()));
        };
        let mut t = base;
        while self.eat_punct("*") {
            t = Type::Ptr(Box::new(t));
        }
        Ok(t)
    }

    // ---- expressions (Pratt) ----

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_assign()
    }

    fn parse_assign(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_cond()?;
        let op = match self.peek() {
            Tok::Punct("=") => None,
            Tok::Punct("+=") => Some(BinOp::Add),
            Tok::Punct("-=") => Some(BinOp::Sub),
            Tok::Punct("*=") => Some(BinOp::Mul),
            Tok::Punct("/=") => Some(BinOp::Div),
            Tok::Punct("%=") => Some(BinOp::Mod),
            Tok::Punct("&=") => Some(BinOp::And),
            Tok::Punct("|=") => Some(BinOp::Or),
            Tok::Punct("^=") => Some(BinOp::Xor),
            Tok::Punct("<<=") => Some(BinOp::Shl),
            Tok::Punct(">>=") => Some(BinOp::Shr),
            _ => return Ok(lhs),
        };
        self.bump();
        let value = self.parse_assign()?;
        Ok(Expr::Assign {
            target: Box::new(lhs),
            value: Box::new(value),
            op,
        })
    }

    fn parse_cond(&mut self) -> Result<Expr, ParseError> {
        let c = self.parse_binary(0)?;
        if self.eat_punct("?") {
            let t = self.parse_expr()?;
            self.expect_punct(":")?;
            let f = self.parse_cond()?;
            Ok(Expr::Cond {
                c: Box::new(c),
                t: Box::new(t),
                f: Box::new(f),
            })
        } else {
            Ok(c)
        }
    }

    fn bin_prec(tok: &Tok) -> Option<(BinOp, u8)> {
        let (op, p) = match tok {
            Tok::Punct("||") => (BinOp::LOr, 1),
            Tok::Punct("&&") => (BinOp::LAnd, 2),
            Tok::Punct("|") => (BinOp::Or, 3),
            Tok::Punct("^") => (BinOp::Xor, 4),
            Tok::Punct("&") => (BinOp::And, 5),
            Tok::Punct("==") => (BinOp::Eq, 6),
            Tok::Punct("!=") => (BinOp::Ne, 6),
            Tok::Punct("<") => (BinOp::Lt, 7),
            Tok::Punct("<=") => (BinOp::Le, 7),
            Tok::Punct(">") => (BinOp::Gt, 7),
            Tok::Punct(">=") => (BinOp::Ge, 7),
            Tok::Punct("<<") => (BinOp::Shl, 8),
            Tok::Punct(">>") => (BinOp::Shr, 8),
            Tok::Punct("+") => (BinOp::Add, 9),
            Tok::Punct("-") => (BinOp::Sub, 9),
            Tok::Punct("*") => (BinOp::Mul, 10),
            Tok::Punct("/") => (BinOp::Div, 10),
            Tok::Punct("%") => (BinOp::Mod, 10),
            _ => return None,
        };
        Some((op, p))
    }

    fn parse_binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        while let Some((op, prec)) = Self::bin_prec(self.peek()) {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.parse_binary(prec + 1)?;
            lhs = Expr::Bin {
                op,
                l: Box::new(lhs),
                r: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        let op = match self.peek() {
            Tok::Punct("-") => Some(UnOp::Neg),
            Tok::Punct("!") => Some(UnOp::LNot),
            Tok::Punct("~") => Some(UnOp::BitNot),
            Tok::Punct("*") => Some(UnOp::Deref),
            Tok::Punct("&") => Some(UnOp::Addr),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let e = self.parse_unary()?;
            return Ok(Expr::Un { op, e: Box::new(e) });
        }
        if self.eat_punct("++") {
            let e = self.parse_unary()?;
            return Ok(Expr::Assign {
                target: Box::new(e),
                value: Box::new(Expr::Num(1)),
                op: Some(BinOp::Add),
            });
        }
        if self.eat_punct("--") {
            let e = self.parse_unary()?;
            return Ok(Expr::Assign {
                target: Box::new(e),
                value: Box::new(Expr::Num(1)),
                op: Some(BinOp::Sub),
            });
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.parse_primary()?;
        loop {
            if self.eat_punct("(") {
                let mut args = Vec::new();
                if !self.eat_punct(")") {
                    loop {
                        args.push(self.parse_expr()?);
                        if self.eat_punct(")") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                if args.len() > 6 {
                    return self.err("at most 6 call arguments are supported");
                }
                e = Expr::Call {
                    callee: Box::new(e),
                    args,
                };
            } else if self.eat_punct("[") {
                let idx = self.parse_expr()?;
                self.expect_punct("]")?;
                e = Expr::Index {
                    base: Box::new(e),
                    idx: Box::new(idx),
                };
            } else if self.eat_punct("++") {
                // Statement-position postfix increment; value semantics of
                // the pre-increment are accepted for MiniC.
                e = Expr::Assign {
                    target: Box::new(e),
                    value: Box::new(Expr::Num(1)),
                    op: Some(BinOp::Add),
                };
            } else if self.eat_punct("--") {
                e = Expr::Assign {
                    target: Box::new(e),
                    value: Box::new(Expr::Num(1)),
                    op: Some(BinOp::Sub),
                };
            } else {
                return Ok(e);
            }
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Tok::Int(v) => Ok(Expr::Num(v)),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::Ident(s) if !KEYWORDS.contains(&s.as_str()) => Ok(Expr::Var(s)),
            Tok::Punct("(") => {
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            t => Err(ParseError {
                line: self.line(),
                message: format!("unexpected {t} in expression"),
            }),
        }
    }

    // ---- statements ----

    fn parse_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_punct("{")?;
        let mut out = Vec::new();
        while !self.eat_punct("}") {
            if matches!(self.peek(), Tok::Eof) {
                return self.err("unterminated block");
            }
            out.push(self.parse_stmt()?);
        }
        Ok(out)
    }

    fn parse_simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        // A declaration or expression, without the trailing `;` (used by
        // `for` headers).
        if self.peek_type() {
            let ty = self.parse_type()?;
            let name = self.ident()?;
            let array = if self.eat_punct("[") {
                let Tok::Int(n) = self.bump() else {
                    return self.err("array size must be an integer literal");
                };
                self.expect_punct("]")?;
                Some(n as u64)
            } else {
                None
            };
            let init = if self.eat_punct("=") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            Ok(Stmt::Decl {
                name,
                ty,
                array,
                init,
            })
        } else {
            Ok(Stmt::Expr(self.parse_expr()?))
        }
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        if self.eat_kw("if") {
            self.expect_punct("(")?;
            let c = self.parse_expr()?;
            self.expect_punct(")")?;
            let t = if matches!(self.peek(), Tok::Punct("{")) {
                self.parse_block()?
            } else {
                vec![self.parse_stmt()?]
            };
            let e = if self.eat_kw("else") {
                if matches!(self.peek(), Tok::Punct("{")) {
                    self.parse_block()?
                } else {
                    vec![self.parse_stmt()?]
                }
            } else {
                Vec::new()
            };
            return Ok(Stmt::If { c, t, e });
        }
        if self.eat_kw("while") {
            self.expect_punct("(")?;
            let c = self.parse_expr()?;
            self.expect_punct(")")?;
            let body = if matches!(self.peek(), Tok::Punct("{")) {
                self.parse_block()?
            } else {
                vec![self.parse_stmt()?]
            };
            return Ok(Stmt::While { c, body });
        }
        if self.eat_kw("for") {
            self.expect_punct("(")?;
            let init = if self.eat_punct(";") {
                None
            } else {
                let s = self.parse_simple_stmt()?;
                self.expect_punct(";")?;
                Some(Box::new(s))
            };
            let c = if self.eat_punct(";") {
                None
            } else {
                let e = self.parse_expr()?;
                self.expect_punct(";")?;
                Some(e)
            };
            let step = if self.eat_punct(")") {
                None
            } else {
                let s = self.parse_simple_stmt()?;
                self.expect_punct(")")?;
                Some(Box::new(s))
            };
            let body = if matches!(self.peek(), Tok::Punct("{")) {
                self.parse_block()?
            } else {
                vec![self.parse_stmt()?]
            };
            return Ok(Stmt::For {
                init,
                c,
                step,
                body,
            });
        }
        if self.eat_kw("return") {
            if self.eat_punct(";") {
                return Ok(Stmt::Return(None));
            }
            let e = self.parse_expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Return(Some(e)));
        }
        if self.eat_kw("break") {
            self.expect_punct(";")?;
            return Ok(Stmt::Break);
        }
        if self.eat_kw("continue") {
            self.expect_punct(";")?;
            return Ok(Stmt::Continue);
        }
        if self.eat_kw("switch") {
            self.expect_punct("(")?;
            let e = self.parse_expr()?;
            self.expect_punct(")")?;
            self.expect_punct("{")?;
            let mut cases: Vec<(i64, Vec<Stmt>)> = Vec::new();
            let mut default = Vec::new();
            let mut in_default = false;
            let mut current: Option<i64> = None;
            let mut body: Vec<Stmt> = Vec::new();
            loop {
                if self.eat_punct("}") {
                    break;
                }
                if self.eat_kw("case") {
                    if let Some(v) = current.take() {
                        cases.push((v, std::mem::take(&mut body)));
                    } else if in_default {
                        default = std::mem::take(&mut body);
                        in_default = false;
                    }
                    let neg = self.eat_punct("-");
                    let Tok::Int(v) = self.bump() else {
                        return self.err("case label must be an integer literal");
                    };
                    self.expect_punct(":")?;
                    current = Some(if neg { -v } else { v });
                    continue;
                }
                if self.eat_kw("default") {
                    if let Some(v) = current.take() {
                        cases.push((v, std::mem::take(&mut body)));
                    }
                    self.expect_punct(":")?;
                    in_default = true;
                    continue;
                }
                if current.is_none() && !in_default {
                    return self.err("statement before first `case`");
                }
                body.push(self.parse_stmt()?);
            }
            if let Some(v) = current.take() {
                cases.push((v, body));
            } else if in_default {
                default = body;
            }
            return Ok(Stmt::Switch { e, cases, default });
        }
        if matches!(self.peek(), Tok::Punct("{")) {
            return Ok(Stmt::Block(self.parse_block()?));
        }
        let s = self.parse_simple_stmt()?;
        self.expect_punct(";")?;
        Ok(s)
    }

    // ---- top level ----

    fn parse_global_init(&mut self) -> Result<GlobalInit, ParseError> {
        if self.eat_punct("{") {
            let mut items = Vec::new();
            if !self.eat_punct("}") {
                loop {
                    items.push(self.parse_global_init()?);
                    if self.eat_punct("}") {
                        break;
                    }
                    self.expect_punct(",")?;
                }
            }
            return Ok(GlobalInit::List(items));
        }
        if self.eat_punct("&") {
            return Ok(GlobalInit::Addr(self.ident()?));
        }
        let neg = self.eat_punct("-");
        match self.bump() {
            Tok::Int(v) => Ok(GlobalInit::Int(if neg { -v } else { v })),
            Tok::Str(s) if !neg => Ok(GlobalInit::Str(s)),
            Tok::Ident(s) if !neg && !KEYWORDS.contains(&s.as_str()) => Ok(GlobalInit::Addr(s)),
            t => Err(ParseError {
                line: self.line(),
                message: format!("bad global initializer: {t}"),
            }),
        }
    }

    fn parse_program(&mut self) -> Result<Program, ParseError> {
        let mut prog = Program::default();
        while !matches!(self.peek(), Tok::Eof) {
            let is_static = self.eat_kw("static");
            let ty = self.parse_type()?;
            let name = self.ident()?;
            if self.eat_punct("(") {
                // Function definition.
                let mut params = Vec::new();
                if !self.eat_punct(")") {
                    loop {
                        let pty = self.parse_type()?;
                        let pname = self.ident()?;
                        params.push((pname, pty));
                        if self.eat_punct(")") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                if params.len() > 6 {
                    return self.err("at most 6 parameters are supported");
                }
                let body = self.parse_block()?;
                prog.funcs.push(Func {
                    name,
                    params,
                    body,
                    is_static,
                });
            } else {
                // Global variable.
                let array = if self.eat_punct("[") {
                    if self.eat_punct("]") {
                        Some(0)
                    } else {
                        let Tok::Int(n) = self.bump() else {
                            return self.err("array size must be an integer literal");
                        };
                        self.expect_punct("]")?;
                        Some(n as u64)
                    }
                } else {
                    None
                };
                let init = if self.eat_punct("=") {
                    self.parse_global_init()?
                } else {
                    GlobalInit::None
                };
                self.expect_punct(";")?;
                prog.globals.push(Global {
                    name,
                    ty,
                    array,
                    init,
                });
            }
        }
        Ok(prog)
    }
}

/// Parses a MiniC translation unit.
///
/// # Errors
///
/// Returns a [`ParseError`] with the 1-based source line on any lexical or
/// syntactic error.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src).map_err(|e| ParseError {
        line: e.line,
        message: e.message,
    })?;
    Parser { toks, pos: 0 }.parse_program()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal_function() {
        let p = parse("long main() { return 42; }").unwrap();
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].name, "main");
        assert_eq!(p.funcs[0].body, vec![Stmt::Return(Some(Expr::Num(42)))]);
    }

    #[test]
    fn parse_params_and_types() {
        let p = parse("long f(long a, char *s, long **pp) { return a; }").unwrap();
        let f = &p.funcs[0];
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[1].1, Type::Ptr(Box::new(Type::Char)));
        assert_eq!(
            f.params[2].1,
            Type::Ptr(Box::new(Type::Ptr(Box::new(Type::Long))))
        );
    }

    #[test]
    fn precedence() {
        let p = parse("long f() { return 1 + 2 * 3; }").unwrap();
        let Stmt::Return(Some(Expr::Bin {
            op: BinOp::Add, r, ..
        })) = &p.funcs[0].body[0]
        else {
            panic!()
        };
        assert!(matches!(**r, Expr::Bin { op: BinOp::Mul, .. }));
    }

    #[test]
    fn globals_and_initializers() {
        let p = parse(
            "long x; long y = 5; long tbl[4]; long fns[] = {&f, &g}; char msg[] = \"hi\";\
             long f() { return 0; } long g() { return 1; }",
        )
        .unwrap();
        assert_eq!(p.globals.len(), 5);
        assert_eq!(p.globals[1].init, GlobalInit::Int(5));
        assert_eq!(
            p.globals[3].init,
            GlobalInit::List(vec![
                GlobalInit::Addr("f".into()),
                GlobalInit::Addr("g".into())
            ])
        );
        assert_eq!(p.globals[4].init, GlobalInit::Str(b"hi".to_vec()));
    }

    #[test]
    fn control_flow() {
        let p = parse(
            "long f(long n) {\
               long s = 0;\
               for (long i = 0; i < n; i++) { s += i; }\
               while (s > 100) { s -= 1; if (s == 50) break; else continue; }\
               return s;\
             }",
        )
        .unwrap();
        assert_eq!(p.funcs.len(), 1);
    }

    #[test]
    fn switch_cases() {
        let p = parse(
            "long f(long x) { switch (x) { case 1: return 10; case 2: return 20; default: return 0; } }",
        )
        .unwrap();
        let Stmt::Switch { cases, default, .. } = &p.funcs[0].body[0] else {
            panic!()
        };
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].0, 1);
        assert_eq!(default.len(), 1);
    }

    #[test]
    fn pointers_and_address_of() {
        let p = parse("long f(long *p) { *p = 1; return p[2] + *(p + 3); }").unwrap();
        assert_eq!(p.funcs.len(), 1);
        let p2 = parse("long g() { long x; long *q = &x; return *q; }").unwrap();
        assert_eq!(p2.funcs.len(), 1);
    }

    #[test]
    fn compound_assignment_and_incdec() {
        let p = parse("long f() { long x = 0; x += 3; x <<= 1; x++; ++x; x--; return x; }");
        assert!(p.is_ok());
    }

    #[test]
    fn ternary() {
        let p = parse("long f(long a) { return a ? 1 : 2; }").unwrap();
        assert!(matches!(
            p.funcs[0].body[0],
            Stmt::Return(Some(Expr::Cond { .. }))
        ));
    }

    #[test]
    fn errors_have_lines() {
        let e = parse("long f() {\n return $; }").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(parse("long f( { }").is_err());
        assert!(parse("long f() { case 1: ; }").is_err());
        assert!(parse("long f() { switch (1) { return 2; } }").is_err());
    }

    #[test]
    fn static_functions() {
        let p =
            parse("static long helper() { return 1; } long main() { return helper(); }").unwrap();
        assert!(p.funcs[0].is_static);
        assert!(!p.funcs[1].is_static);
    }
}
