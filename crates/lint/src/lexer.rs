//! A lossy Rust tokenizer for lint rules.
//!
//! This is not a full Rust lexer: it recognizes exactly enough structure
//! for the code model — identifiers, punctuation, string/char literals
//! (including raw and byte strings), numbers, lifetimes — and it keeps
//! every comment with its line range, because suppressions are
//! comments. Everything inside a string or comment produces no
//! identifier tokens, so a doc example containing `.lock()` is no
//! acquisition.
//!
//! The approach follows `crates/vquel/src/lexer.rs`: a single forward
//! pass over a peekable character cursor.

/// One lexical token with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq)]
pub struct Tok {
    pub kind: TokKind,
    pub line: u32,
}

#[derive(Debug, Clone, PartialEq)]
pub enum TokKind {
    /// Identifier or keyword (`unsafe`, `let`, `unwrap`, `_`, …).
    Ident(String),
    /// Single punctuation character (`#`, `[`, `(`, `.`, `!`, `=`, …).
    Punct(char),
    /// Any string, raw string, byte string, or char literal.
    Str,
    /// Numeric literal (integers and floats, lexed loosely).
    Num,
    /// A lifetime such as `'a`.
    Lifetime,
}

impl Tok {
    pub fn is_ident(&self, name: &str) -> bool {
        matches!(&self.kind, TokKind::Ident(s) if s == name)
    }

    pub fn is_punct(&self, c: char) -> bool {
        matches!(&self.kind, TokKind::Punct(p) if *p == c)
    }
}

/// A comment with its line range (`line..=end_line`); `text` is the body
/// without the `//` / `/*` markers.
#[derive(Debug, Clone, PartialEq)]
pub struct Comment {
    pub line: u32,
    pub end_line: u32,
    pub text: String,
    /// Doc comments (`///`, `//!`, `/** */`, `/*! */`) document an item;
    /// they are never suppressions.
    pub doc: bool,
}

#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Cursor {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenize `src`, keeping comments. Never fails: unterminated literals
/// or comments simply end at EOF (the linter must degrade gracefully on
/// code that does not compile yet).
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
    };
    let mut out = Lexed::default();
    while let Some(c) = cur.peek() {
        let line = cur.line;
        match c {
            c if c.is_whitespace() => {
                cur.bump();
            }
            '/' if cur.peek_at(1) == Some('/') => line_comment(&mut cur, &mut out),
            '/' if cur.peek_at(1) == Some('*') => block_comment(&mut cur, &mut out),
            '"' => {
                string_literal(&mut cur);
                out.toks.push(Tok {
                    kind: TokKind::Str,
                    line,
                });
            }
            '\'' => quote_token(&mut cur, &mut out, line),
            c if c.is_ascii_digit() => {
                number(&mut cur);
                out.toks.push(Tok {
                    kind: TokKind::Num,
                    line,
                });
            }
            c if is_ident_start(c) => ident_or_prefixed_literal(&mut cur, &mut out, line),
            other => {
                cur.bump();
                out.toks.push(Tok {
                    kind: TokKind::Punct(other),
                    line,
                });
            }
        }
    }
    out
}

fn line_comment(cur: &mut Cursor, out: &mut Lexed) {
    let line = cur.line;
    cur.bump();
    cur.bump(); // consume `//`
    let mut text = String::new();
    while let Some(c) = cur.peek() {
        if c == '\n' {
            break;
        }
        text.push(c);
        cur.bump();
    }
    // `///` and `//!` are doc comments; `////…` is a plain comment again.
    let doc = (text.starts_with('/') && !text.starts_with("//")) || text.starts_with('!');
    let body = text
        .trim_start_matches(['/', '!'])
        .trim_start()
        .trim_end()
        .to_owned();
    out.comments.push(Comment {
        line,
        end_line: line,
        text: body,
        doc,
    });
}

fn block_comment(cur: &mut Cursor, out: &mut Lexed) {
    let line = cur.line;
    cur.bump();
    cur.bump(); // consume `/*`
    let doc = matches!(cur.peek(), Some('*' | '!')) && cur.peek_at(1) != Some('*');
    let mut depth = 1usize;
    let mut text = String::new();
    while let Some(c) = cur.peek() {
        if c == '/' && cur.peek_at(1) == Some('*') {
            depth += 1;
            cur.bump();
            cur.bump();
            text.push_str("/*");
        } else if c == '*' && cur.peek_at(1) == Some('/') {
            cur.bump();
            cur.bump();
            depth -= 1;
            if depth == 0 {
                break;
            }
            text.push_str("*/");
        } else {
            text.push(c);
            cur.bump();
        }
    }
    out.comments.push(Comment {
        line,
        end_line: cur.line,
        text: text.trim().to_owned(),
        doc,
    });
}

/// Consume a `"…"` literal (escape-aware). The opening quote is at the
/// cursor.
fn string_literal(cur: &mut Cursor) {
    cur.bump(); // opening quote
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '"' => break,
            _ => {}
        }
    }
}

/// Consume a raw string body `r##"…"##`. The cursor sits on the first
/// `#` or the opening quote.
fn raw_string_literal(cur: &mut Cursor) {
    let mut hashes = 0usize;
    while cur.peek() == Some('#') {
        hashes += 1;
        cur.bump();
    }
    cur.bump(); // opening quote
    'outer: while let Some(c) = cur.bump() {
        if c == '"' {
            for ahead in 0..hashes {
                if cur.peek_at(ahead) != Some('#') {
                    continue 'outer;
                }
            }
            for _ in 0..hashes {
                cur.bump();
            }
            break;
        }
    }
}

/// Disambiguate `'a` (lifetime) from `'x'` / `'\n'` (char literal). The
/// cursor sits on the opening quote.
fn quote_token(cur: &mut Cursor, out: &mut Lexed, line: u32) {
    let next = cur.peek_at(1);
    let after = cur.peek_at(2);
    let lifetime = matches!(next, Some(c) if is_ident_start(c)) && after != Some('\'');
    if lifetime {
        cur.bump(); // quote
        while matches!(cur.peek(), Some(c) if is_ident_continue(c)) {
            cur.bump();
        }
        out.toks.push(Tok {
            kind: TokKind::Lifetime,
            line,
        });
    } else {
        cur.bump(); // opening quote
        while let Some(c) = cur.bump() {
            match c {
                '\\' => {
                    cur.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
        out.toks.push(Tok {
            kind: TokKind::Str,
            line,
        });
    }
}

/// Lex a number loosely: digits, `_`, type suffixes, and a decimal point
/// when followed by a digit (so `0..n` stays a range, not a float).
fn number(cur: &mut Cursor) {
    while let Some(c) = cur.peek() {
        let in_number = c.is_ascii_alphanumeric()
            || c == '_'
            || (c == '.' && matches!(cur.peek_at(1), Some(d) if d.is_ascii_digit()));
        if !in_number {
            break;
        }
        cur.bump();
    }
}

/// Lex an identifier, handling the literal prefixes `r"…"`, `r#"…"#`,
/// `b"…"`, `br#"…"#`, `b'…'`, and raw identifiers `r#ident`.
fn ident_or_prefixed_literal(cur: &mut Cursor, out: &mut Lexed, line: u32) {
    let mut name = String::new();
    while let Some(c) = cur.peek() {
        if is_ident_continue(c) {
            name.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    match (name.as_str(), cur.peek()) {
        ("r" | "br", Some('"')) => {
            raw_string_literal(cur);
            out.toks.push(Tok {
                kind: TokKind::Str,
                line,
            });
        }
        ("r" | "br", Some('#')) => {
            // Count hashes: a quote after them means a raw string; an
            // identifier char means a raw identifier (`r#type`).
            let mut ahead = 0usize;
            while cur.peek_at(ahead) == Some('#') {
                ahead += 1;
            }
            if cur.peek_at(ahead) == Some('"') {
                raw_string_literal(cur);
                out.toks.push(Tok {
                    kind: TokKind::Str,
                    line,
                });
            } else {
                cur.bump(); // the `#`
                let mut raw = String::new();
                while let Some(c) = cur.peek() {
                    if is_ident_continue(c) {
                        raw.push(c);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident(raw),
                    line,
                });
            }
        }
        ("b", Some('"')) => {
            string_literal(cur);
            out.toks.push(Tok {
                kind: TokKind::Str,
                line,
            });
        }
        ("b", Some('\'')) => {
            cur.bump(); // opening quote
            while let Some(c) = cur.bump() {
                match c {
                    '\\' => {
                        cur.bump();
                    }
                    '\'' => break,
                    _ => {}
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Str,
                line,
            });
        }
        _ => out.toks.push(Tok {
            kind: TokKind::Ident(name),
            line,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_produce_no_idents() {
        let src = r##"
            // x.unwrap() in a comment
            /* panic!("no") */
            let s = "y.unwrap()";
            let r = r#"panic!()"#;
            let b = b"unwrap";
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_owned()), "{ids:?}");
        assert!(!ids.contains(&"panic".to_owned()), "{ids:?}");
    }

    #[test]
    fn comments_keep_lines_and_doc_flags() {
        let lexed = lex("/// doc\n// SAFETY: fine\n/* block\nspans */ let x = 1;");
        assert_eq!(lexed.comments.len(), 3);
        assert!(lexed.comments[0].doc);
        assert!(!lexed.comments[1].doc);
        assert_eq!(lexed.comments[1].text, "SAFETY: fine");
        assert_eq!(lexed.comments[1].line, 2);
        assert_eq!((lexed.comments[2].line, lexed.comments[2].end_line), (3, 4));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        let chars = lexed.toks.iter().filter(|t| t.kind == TokKind::Str).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn ranges_are_not_floats() {
        let lexed = lex("for i in 0..10 { a[i.0] = 1.5; }");
        let dots = lexed.toks.iter().filter(|t| t.is_punct('.')).count();
        // `0..10` contributes two dots, `i.0` one; `1.5` is one number.
        assert_eq!(dots, 3);
        let nums = lexed.toks.iter().filter(|t| t.kind == TokKind::Num).count();
        assert_eq!(nums, 4); // 0, 10, 0 (tuple index), 1.5
    }

    #[test]
    fn method_call_pattern_is_visible() {
        let lexed = lex("value.unwrap()");
        let t = &lexed.toks;
        assert!(t[0].is_ident("value"));
        assert!(t[1].is_punct('.'));
        assert!(t[2].is_ident("unwrap"));
        assert!(t[3].is_punct('('));
    }

    #[test]
    fn raw_strings_with_hashes_swallow_quotes_and_panics() {
        // `r#"…"#` may contain bare quotes; `r##"…"##` may even contain
        // `"#`. Nothing inside may leak out as identifiers.
        let src = r####"let a = r#"has "quotes" and panic!()"#; let b = r##"ends "# not here"##; done"####;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "a", "let", "b", "done"], "{ids:?}");
    }

    #[test]
    fn byte_strings_and_raw_byte_strings_are_opaque() {
        let src = r###"let x = b"unwrap() bytes"; let y = br#"panic!("x")"#; let c = b'q';"###;
        let lexed = lex(src);
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_owned()), "{ids:?}");
        assert!(!ids.contains(&"panic".to_owned()), "{ids:?}");
        let strs = lexed.toks.iter().filter(|t| t.kind == TokKind::Str).count();
        assert_eq!(strs, 3, "b\"…\", br#\"…\"#, and b'…' are all literals");
    }

    #[test]
    fn shift_right_lexes_as_two_single_closers() {
        // `Vec<Vec<u8>>` ends in the same two characters as `x >> 2`;
        // emitting single `>` puncts lets the parser close two generic
        // levels without a dedicated `>>` token.
        let lexed = lex("let m: Vec<Vec<u8>> = x >> 2;");
        let gts = lexed.toks.iter().filter(|t| t.is_punct('>')).count();
        assert_eq!(gts, 4, "two generic closers + the shift's two");
    }

    #[test]
    fn raw_identifiers_lex_to_their_unprefixed_name() {
        let lexed = lex("let r#type = 1; r#match.lock();");
        let ids = idents("let r#type = 1; r#match.lock();");
        assert!(ids.contains(&"type".to_owned()), "{ids:?}");
        assert!(ids.contains(&"match".to_owned()), "{ids:?}");
        // The `.lock()` method-call shape stays visible through `r#`.
        let t = &lexed.toks;
        let dot = t.iter().position(|t| t.is_punct('.')).unwrap();
        assert!(t[dot + 1].is_ident("lock"));
    }

    #[test]
    fn nested_block_comments_and_unterminated_input() {
        let lexed = lex("/* a /* b */ c */ x");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.toks.len(), 1);
        // Unterminated constructs end at EOF without panicking.
        lex("\"open");
        lex("/* open");
        lex("r#\"open");
    }
}
