//! MiniC tokenizer.

use std::fmt;

/// A MiniC token.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Tok {
    /// Integer literal.
    Int(i64),
    /// String literal (unescaped bytes).
    Str(Vec<u8>),
    /// Identifier or keyword.
    Ident(String),
    /// Punctuation / operator.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Str(_) => write!(f, "string literal"),
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Punct(p) => write!(f, "`{p}`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source line (1-based).
#[derive(Clone, Debug)]
pub struct SpannedTok {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: usize,
}

/// A lexical error.
#[derive(Clone, Debug)]
pub struct LexError {
    /// 1-based source line.
    pub line: usize,
    /// Description.
    pub message: String,
}

const PUNCTS: &[&str] = &[
    "<<=", ">>=", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=", "++", "--", "->", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">",
    "=", "(", ")", "{", "}", "[", "]", ";", ",", "?", ":",
];

/// Tokenizes MiniC source.
///
/// # Errors
///
/// Returns a [`LexError`] on unterminated strings/chars or stray bytes.
pub fn lex(src: &str) -> Result<Vec<SpannedTok>, LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1;
    'outer: while i < bytes.len() {
        let c = bytes[i];
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == b'/' && i + 1 < bytes.len() {
            if bytes[i + 1] == b'/' {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            if bytes[i + 1] == b'*' {
                i += 2;
                while i + 1 < bytes.len() {
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        continue 'outer;
                    }
                    i += 1;
                }
                return Err(LexError {
                    line,
                    message: "unterminated block comment".into(),
                });
            }
        }
        // Numbers.
        if c.is_ascii_digit() {
            let start = i;
            if c == b'0' && i + 1 < bytes.len() && (bytes[i + 1] | 0x20) == b'x' {
                i += 2;
                while i < bytes.len() && bytes[i].is_ascii_hexdigit() {
                    i += 1;
                }
                let v = i64::from_str_radix(&src[start + 2..i], 16).map_err(|e| LexError {
                    line,
                    message: format!("bad hex literal: {e}"),
                })?;
                out.push(SpannedTok {
                    tok: Tok::Int(v),
                    line,
                });
            } else {
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let v: i64 = src[start..i].parse().map_err(|e| LexError {
                    line,
                    message: format!("bad integer literal: {e}"),
                })?;
                out.push(SpannedTok {
                    tok: Tok::Int(v),
                    line,
                });
            }
            continue;
        }
        // Identifiers / keywords.
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.push(SpannedTok {
                tok: Tok::Ident(src[start..i].to_string()),
                line,
            });
            continue;
        }
        // Char literal -> integer token.
        if c == b'\'' {
            i += 1;
            let v = if bytes.get(i) == Some(&b'\\') {
                i += 1;
                let e = *bytes.get(i).ok_or(LexError {
                    line,
                    message: "unterminated char literal".into(),
                })?;
                i += 1;
                match e {
                    b'n' => b'\n',
                    b't' => b'\t',
                    b'0' => 0,
                    b'\\' => b'\\',
                    b'\'' => b'\'',
                    _ => {
                        return Err(LexError {
                            line,
                            message: "bad escape in char literal".into(),
                        })
                    }
                }
            } else {
                let v = *bytes.get(i).ok_or(LexError {
                    line,
                    message: "unterminated char literal".into(),
                })?;
                i += 1;
                v
            };
            if bytes.get(i) != Some(&b'\'') {
                return Err(LexError {
                    line,
                    message: "unterminated char literal".into(),
                });
            }
            i += 1;
            out.push(SpannedTok {
                tok: Tok::Int(v as i64),
                line,
            });
            continue;
        }
        // String literal.
        if c == b'"' {
            i += 1;
            let mut s = Vec::new();
            loop {
                let b = *bytes.get(i).ok_or(LexError {
                    line,
                    message: "unterminated string literal".into(),
                })?;
                i += 1;
                match b {
                    b'"' => break,
                    b'\\' => {
                        let e = *bytes.get(i).ok_or(LexError {
                            line,
                            message: "unterminated string escape".into(),
                        })?;
                        i += 1;
                        s.push(match e {
                            b'n' => b'\n',
                            b't' => b'\t',
                            b'0' => 0,
                            b'\\' => b'\\',
                            b'"' => b'"',
                            _ => {
                                return Err(LexError {
                                    line,
                                    message: "bad escape in string".into(),
                                })
                            }
                        });
                    }
                    b'\n' => {
                        return Err(LexError {
                            line,
                            message: "newline in string literal".into(),
                        })
                    }
                    b => s.push(b),
                }
            }
            out.push(SpannedTok {
                tok: Tok::Str(s),
                line,
            });
            continue;
        }
        // Punctuation.
        for p in PUNCTS {
            if src[i..].starts_with(p) {
                out.push(SpannedTok {
                    tok: Tok::Punct(p),
                    line,
                });
                i += p.len();
                continue 'outer;
            }
        }
        return Err(LexError {
            line,
            message: format!("unexpected character `{}`", c as char),
        });
    }
    out.push(SpannedTok {
        tok: Tok::Eof,
        line,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("long x = 42;"),
            vec![
                Tok::Ident("long".into()),
                Tok::Ident("x".into()),
                Tok::Punct("="),
                Tok::Int(42),
                Tok::Punct(";"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn hex_char_string() {
        assert_eq!(toks("0xff")[0], Tok::Int(255));
        assert_eq!(toks("'A'")[0], Tok::Int(65));
        assert_eq!(toks("'\\n'")[0], Tok::Int(10));
        assert_eq!(toks("\"hi\\n\"")[0], Tok::Str(b"hi\n".to_vec()));
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("1 // c\n 2 /* d \n e */ 3"),
            vec![Tok::Int(1), Tok::Int(2), Tok::Int(3), Tok::Eof]
        );
    }

    #[test]
    fn multichar_operators_longest_match() {
        assert_eq!(
            toks("a <<= b << c <= d"),
            vec![
                Tok::Ident("a".into()),
                Tok::Punct("<<="),
                Tok::Ident("b".into()),
                Tok::Punct("<<"),
                Tok::Ident("c".into()),
                Tok::Punct("<="),
                Tok::Ident("d".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn line_numbers_tracked() {
        let ts = lex("a\nb\n\nc").unwrap();
        assert_eq!(ts[0].line, 1);
        assert_eq!(ts[1].line, 2);
        assert_eq!(ts[2].line, 4);
    }

    #[test]
    fn errors() {
        assert!(lex("\"unterminated").is_err());
        assert!(lex("'x").is_err());
        assert!(lex("/* unterminated").is_err());
        assert!(lex("@").is_err());
    }
}
