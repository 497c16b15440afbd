//! A lightweight code model on top of the lexer: the item parser.
//!
//! Rule L010 needs to know *which function* a token belongs to, what
//! that function calls, and which lock guards it holds over which spans
//! of code. This module parses the token stream into just enough
//! structure for that — `fn` boundaries, per-function call sites, and
//! `.lock()` acquisitions with a *held region* for each guard — without
//! becoming a Rust parser. Like the lexer it is lossy and must degrade
//! gracefully on code that does not compile.
//!
//! Held-region model (token indices into the file's token stream):
//!
//! - `let g = m.lock()…;` — held from the acquisition to the end of the
//!   enclosing block, or to an earlier `drop(g)`.
//! - `if let Ok(g) = m.lock() { … }` / `while let …` — held to the end
//!   of the statement's block.
//! - `match m.lock() { … }` — scrutinee temporaries live through the
//!   match, so the guard is held to the match's closing brace.
//! - any other temporary — held to the statement's `;`, or to the `{`
//!   opening an `if`/`while` body (condition temporaries drop there).
//!
//! The model records *every* call site with the same held-region
//! information, because a call may turn out to be an acquisition once
//! the graph layer discovers guard-returning functions (the workspace's
//! `locked()` idiom).

use crate::lexer::{Lexed, Tok, TokKind};
use crate::rules::is_test_path;

/// A `.lock()` acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct Acquisition {
    pub line: u32,
    /// Token index of the `lock` name.
    pub tok: usize,
    /// Exclusive end of the held region (token index).
    pub held_to: usize,
}

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name: the identifier directly before the `(`.
    pub name: String,
    /// True for `.name(…)` method calls.
    pub is_method: bool,
    pub line: u32,
    pub tok: usize,
    /// Held region the call's result would occupy *if* the callee turns
    /// out to be a guard-returning function.
    pub held_to: usize,
    /// `name()` with an empty argument list (distinguishes the blocking
    /// `handle.join()` from `Vec::join(sep)`).
    pub no_args: bool,
}

/// One function item.
#[derive(Debug, Clone)]
pub struct FnModel {
    /// Bare name.
    pub name: String,
    /// Inside a `#[cfg(test)]` region or a test-classified file.
    pub in_test: bool,
    /// The return type names a `MutexGuard`.
    pub returns_guard: bool,
    /// Token range of the body: `(open_brace, close_brace)`; `None` for
    /// bodyless declarations.
    pub body: Option<(usize, usize)>,
    pub calls: Vec<CallSite>,
    pub acquisitions: Vec<Acquisition>,
    /// True when the function's tail expression acquires a lock: callers
    /// receive the guard (`fn locked(…) -> MutexGuard` idiom). The graph
    /// layer extends this transitively.
    pub tail_guard: bool,
    /// Call names appearing in the tail expression (for transitive
    /// guard-source discovery).
    pub tail_calls: Vec<String>,
}

/// The parsed model of one source file.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative (or `//@path` pseudo) path.
    pub path: String,
    pub fns: Vec<FnModel>,
}

/// Keywords that look like `name (` in the token stream but are not
/// calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "mut", "ref", "move",
    "in", "as", "use", "pub", "crate", "super", "where", "impl", "trait", "struct", "enum", "mod",
    "const", "static", "unsafe", "extern", "async", "await", "dyn", "break", "continue", "type",
];

/// Build the code model for one lexed file. `in_test` is the
/// `#[cfg(test)]` token mask from `rules::test_region_mask`.
pub fn build(path: &str, lexed: &Lexed, in_test: &[bool]) -> FileModel {
    let toks = &lexed.toks;
    let file_is_test = is_test_path(path);
    let enclosing_close = enclosing_block_close(toks);
    let mut fns = Vec::new();

    // Pass 1: locate every `fn` item and its body. Scanning resumes
    // *inside* a body so nested `fn` items are found too; pass 2
    // excludes their ranges from the enclosing function's sites.
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn") {
            if let Some((f, resume)) = parse_fn(toks, i, in_test, file_is_test) {
                i = f.body.map_or(resume, |(open, _)| open + 1);
                fns.push(f);
                continue;
            }
        }
        i += 1;
    }

    // Pass 2: extract calls and acquisitions per body, skipping the
    // ranges of functions nested inside (their sites belong to them).
    let bodies: Vec<(usize, usize)> = fns.iter().filter_map(|f| f.body).collect();
    for f in &mut fns {
        let Some((open, close)) = f.body else {
            continue;
        };
        let nested: Vec<(usize, usize)> = bodies
            .iter()
            .copied()
            .filter(|&(o, c)| o > open && c < close)
            .collect();
        extract_sites(toks, open, close, &nested, &enclosing_close, f);
    }
    FileModel {
        path: path.to_owned(),
        fns,
    }
}

/// For each token, the index of the `}` closing the innermost `{` that
/// encloses it (or `toks.len()` when not inside any brace).
fn enclosing_block_close(toks: &[Tok]) -> Vec<usize> {
    let closes = brace_closes(toks);
    let mut out = vec![toks.len(); toks.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if t.is_punct('{') {
            stack.push(closes[k]);
        }
        out[k] = stack.last().copied().unwrap_or(toks.len());
        if t.is_punct('}') {
            stack.pop();
            // the `}` itself belongs to the block it closes
        }
    }
    out
}

/// For each `{` token, the index of its matching `}` (or the last token
/// when unbalanced).
fn brace_closes(toks: &[Tok]) -> Vec<usize> {
    let mut out = vec![toks.len().saturating_sub(1); toks.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if t.is_punct('{') {
            stack.push(k);
        } else if t.is_punct('}') {
            if let Some(open) = stack.pop() {
                out[open] = k;
            }
        }
    }
    out
}

/// Index of the token closing the bracket `open` opens (`(`/`{`), or the
/// last token when unbalanced.
fn matching_close(toks: &[Tok], open: usize) -> usize {
    let (open_ch, close_ch) = match toks[open].kind {
        TokKind::Punct('(') => ('(', ')'),
        _ => ('{', '}'),
    };
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(open_ch) {
            depth += 1;
        } else if t.is_punct(close_ch) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Parse the `fn` item whose `fn` keyword is at `at`. Returns the model
/// and the index to resume scanning from.
fn parse_fn(
    toks: &[Tok],
    at: usize,
    in_test: &[bool],
    file_is_test: bool,
) -> Option<(FnModel, usize)> {
    let name = match toks.get(at + 1).map(|t| &t.kind) {
        Some(TokKind::Ident(n)) => n.clone(),
        _ => return None, // `fn(` type position
    };
    let mut k = at + 2;
    // Generic parameters: skip `<…>` with angle-depth tracking. A `>`
    // preceded by `-` or `=` is part of `->`/`=>` and closes nothing —
    // and since the lexer emits `>` one char at a time, `Vec<Vec<u8>>`
    // naturally closes two levels.
    if matches!(toks.get(k), Some(t) if t.is_punct('<')) {
        let mut depth = 0i32;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>')
                && !(k > 0 && (toks[k - 1].is_punct('-') || toks[k - 1].is_punct('=')))
            {
                depth -= 1;
                if depth == 0 {
                    k += 1;
                    break;
                }
            } else if t.is_punct('{') || t.is_punct(';') {
                break; // malformed; bail out of the generics scan
            }
            k += 1;
        }
    }
    // Scan to the body `{` or declaration `;`, looking for a guard type
    // between a paren-depth-0 `->` and `where`/body.
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut in_ret = false;
    let mut returns_guard = false;
    let mut body_open = None;
    while k < toks.len() {
        let t = &toks[k];
        match &t.kind {
            TokKind::Punct('(') => paren += 1,
            TokKind::Punct(')') => paren -= 1,
            TokKind::Punct('[') => bracket += 1,
            TokKind::Punct(']') => bracket -= 1,
            TokKind::Punct('{') if paren == 0 && bracket == 0 => {
                body_open = Some(k);
                break;
            }
            TokKind::Punct(';') if paren == 0 && bracket == 0 => break,
            TokKind::Punct('>')
                if paren == 0 && bracket == 0 && k > 0 && toks[k - 1].is_punct('-') =>
            {
                in_ret = true;
            }
            TokKind::Ident(id) if id == "where" && paren == 0 && bracket == 0 => {
                in_ret = false;
            }
            TokKind::Ident(id) if in_ret => {
                returns_guard |= id == "MutexGuard";
            }
            _ => {}
        }
        k += 1;
    }
    let body = body_open.map(|open| (open, matching_close(toks, open)));
    let end = body.map(|(_, close)| close).unwrap_or(k);
    let model = FnModel {
        name,
        in_test: file_is_test || in_test.get(at).copied().unwrap_or(false),
        returns_guard,
        body,
        calls: Vec::new(),
        acquisitions: Vec::new(),
        tail_guard: false,
        tail_calls: Vec::new(),
    };
    Some((model, end + 1))
}

/// Extract call sites and acquisitions from a body range, skipping
/// nested fn bodies.
fn extract_sites(
    toks: &[Tok],
    open: usize,
    close: usize,
    nested: &[(usize, usize)],
    enclosing_close: &[usize],
    f: &mut FnModel,
) {
    let mut i = open + 1;
    while i < close {
        if let Some(&(_, nc)) = nested.iter().find(|&&(no, _)| no == i) {
            i = nc + 1;
            continue;
        }
        let name = match &toks[i].kind {
            TokKind::Ident(n) => n.as_str(),
            _ => {
                i += 1;
                continue;
            }
        };
        // `name!(…)` macros are not call sites (their argument tokens
        // still get scanned).
        let followed_by_paren = matches!(toks.get(i + 1), Some(t) if t.is_punct('('));
        if !followed_by_paren || NON_CALL_KEYWORDS.contains(&name) {
            i += 1;
            continue;
        }
        let is_method = i > 0 && toks[i - 1].is_punct('.');
        let no_args = matching_close(toks, i + 1) == i + 2;
        let held_to = held_region(toks, i, close, enclosing_close);
        let line = toks[i].line;
        if name == "lock" && is_method && no_args {
            f.acquisitions.push(Acquisition {
                line,
                tok: i,
                held_to,
            });
        } else {
            f.calls.push(CallSite {
                name: name.to_owned(),
                is_method,
                line,
                tok: i,
                held_to,
                no_args,
            });
        }
        i += 1;
    }

    // Tail expression: tokens after the last body-top-level `;` (or the
    // whole body). A guard acquired there is returned to the caller.
    let tail_start = last_top_level_semi(toks, open, close).map_or(open + 1, |s| s + 1);
    let in_tail = |tok: usize| tok >= tail_start && tok < close;
    f.tail_guard = f.acquisitions.iter().any(|a| in_tail(a.tok));
    f.tail_calls = f
        .calls
        .iter()
        .filter(|c| in_tail(c.tok))
        .map(|c| c.name.clone())
        .collect();
}

/// Index of the last `;` at brace depth 1 inside `open..close`.
fn last_top_level_semi(toks: &[Tok], open: usize, close: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut last = None;
    for (k, t) in toks.iter().enumerate().take(close).skip(open) {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => depth -= 1,
            TokKind::Punct(';') if depth == 1 => last = Some(k),
            _ => {}
        }
    }
    last
}

/// The held-region end for a potential guard produced at token `site`,
/// per the module-level held-region model.
fn held_region(toks: &[Tok], site: usize, body_close: usize, enclosing_close: &[usize]) -> usize {
    let start = statement_start(toks, site);
    let head = &toks[start];
    let head_is = |s: &str| head.is_ident(s);

    // Binding: a `let` between the statement start and the site.
    let binding = (start..site)
        .find(|&k| toks[k].is_ident("let"))
        .and_then(|let_at| binding_name(toks, let_at, site));

    if head_is("let") {
        return match binding {
            Some(name) => {
                let block_end = enclosing_close
                    .get(site)
                    .copied()
                    .unwrap_or(body_close)
                    .min(body_close);
                drop_site(toks, site, block_end, &name)
            }
            // `let _ = …` never binds: the guard drops at once.
            None => site + 1,
        };
    }
    if let (true, Some(name)) = (head_is("if") || head_is("while"), &binding) {
        // `if let Ok(g) = …` — the guard lives for the statement's block.
        if let Some(block_open) = first_depth0_brace(toks, site, body_close) {
            let block_end = matching_close(toks, block_open).min(body_close);
            return drop_site(toks, site, block_end, name);
        }
    }
    // Temporary: scan forward for the statement end. `match` scrutinee
    // temporaries live through the match block; `if`/`while` condition
    // temporaries drop at the block's `{`.
    let mut depth = 0i32;
    for k in site..body_close {
        match toks[k].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct('{') => {
                if depth == 0 {
                    return if head_is("match") {
                        matching_close(toks, k).min(body_close)
                    } else {
                        k
                    };
                }
                depth += 1;
            }
            TokKind::Punct('}') => {
                if depth == 0 {
                    return k;
                }
                depth -= 1;
            }
            TokKind::Punct(';') if depth == 0 => return k,
            _ => {}
        }
    }
    body_close
}

/// Walk back from `site` to the token after the previous `;`, `{`, or
/// `}` — the first token of the enclosing statement.
fn statement_start(toks: &[Tok], site: usize) -> usize {
    let mut k = site;
    while k > 0 {
        let prev = &toks[k - 1];
        if prev.is_punct(';') || prev.is_punct('{') || prev.is_punct('}') {
            return k;
        }
        k -= 1;
    }
    0
}

/// Extract the bound name from a `let` pattern: the last identifier
/// before the `=` (skipping `mut`/`ref`, so `Ok(g)` and `Some(mut g)`
/// both yield `g`). A `:` type annotation ends the pattern. Returns
/// `None` for `_`.
fn binding_name(toks: &[Tok], let_at: usize, before: usize) -> Option<String> {
    let mut name: Option<String> = None;
    for k in let_at + 1..before {
        match &toks[k].kind {
            TokKind::Punct('=') => break,
            TokKind::Punct(':')
                if !matches!(toks.get(k + 1), Some(t) if t.is_punct(':'))
                    && (k == 0 || !toks[k - 1].is_punct(':')) =>
            {
                break;
            }
            TokKind::Ident(id) if id != "mut" && id != "ref" && id != "_" => {
                name = Some(id.clone());
            }
            _ => {}
        }
    }
    name
}

/// First `{` at paren/bracket depth 0 after `site` (an `if let` /
/// `while let` statement's block).
fn first_depth0_brace(toks: &[Tok], site: usize, limit: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().take(limit).skip(site) {
        match t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct('{') if depth == 0 => return Some(k),
            TokKind::Punct(';') if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// An explicit `drop(name)` before `limit` ends the held region early
/// (the `drop` call itself is outside the region).
fn drop_site(toks: &[Tok], from: usize, limit: usize, name: &str) -> usize {
    for k in from..limit.min(toks.len()) {
        if toks[k].is_ident("drop")
            && matches!(toks.get(k + 1), Some(t) if t.is_punct('('))
            && matches!(toks.get(k + 2), Some(t) if t.is_ident(name))
            && matches!(toks.get(k + 3), Some(t) if t.is_punct(')'))
        {
            return k;
        }
    }
    limit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_region_mask;

    fn model(path: &str, src: &str) -> FileModel {
        let lexed = lex(src);
        let mask = test_region_mask(&lexed.toks);
        build(path, &lexed, &mask)
    }

    #[test]
    fn finds_fns_in_impls_and_nested_fns() {
        let m = model(
            "crates/demo/src/a.rs",
            "pub fn free() { fn inner() {} }\nimpl Widget { fn helper(&self) {} pub fn go(&self) {} }",
        );
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["free", "inner", "helper", "go"]);
    }

    #[test]
    fn generics_with_shift_and_arrows_do_not_break_parsing() {
        let m = model(
            "crates/demo/src/a.rs",
            "fn f<T: Into<Vec<Vec<u8>>>, F: Fn() -> u32>(x: T, g: F) -> Result<Vec<u8>, String> { g(); Ok(Vec::new()) }\nfn after() {}",
        );
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["f", "after"]);
        assert!(!m.fns[0].returns_guard);
    }

    #[test]
    fn let_bound_guard_held_to_block_end_or_drop() {
        let m = model(
            "crates/demo/src/a.rs",
            "fn f(m: &std::sync::Mutex<u32>) { let g = m.lock().unwrap_or_default(); work(); drop(g); after(); }",
        );
        let f = &m.fns[0];
        assert_eq!(f.acquisitions.len(), 1);
        let a = &f.acquisitions[0];
        let work = f.calls.iter().find(|c| c.name == "work").unwrap();
        let after = f.calls.iter().find(|c| c.name == "after").unwrap();
        assert!(work.tok < a.held_to, "work() is inside the held region");
        assert!(after.tok > a.held_to, "after() is past drop(g)");
    }

    #[test]
    fn match_scrutinee_temporaries_live_through_the_match() {
        let m = model(
            "crates/demo/src/a.rs",
            "fn f(m: &std::sync::Mutex<u32>) { match m.lock() { _ => inside() } outside(); }",
        );
        let f = &m.fns[0];
        let a = &f.acquisitions[0];
        let inside = f.calls.iter().find(|c| c.name == "inside").unwrap();
        let outside = f.calls.iter().find(|c| c.name == "outside").unwrap();
        assert!(inside.tok < a.held_to);
        assert!(outside.tok > a.held_to);
    }

    #[test]
    fn guard_returning_fn_is_detected_via_tail_expression() {
        let m = model(
            "crates/demo/src/a.rs",
            "fn locked(m: &std::sync::Mutex<u32>) -> std::sync::MutexGuard<'_, u32> { m.lock().unwrap_or_else(std::sync::PoisonError::into_inner) }",
        );
        assert!(m.fns[0].tail_guard && m.fns[0].returns_guard);
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let m = model(
            "crates/demo/src/a.rs",
            "fn lib() {}\n#[cfg(test)]\nmod tests { fn t() {} }",
        );
        assert!(!m.fns[0].in_test);
        assert!(m.fns[1].in_test);
    }
}
