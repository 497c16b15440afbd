//! A lightweight code model on top of the lexer: the item parser.
//!
//! The token-level rules (L001–L007) treat a file as a flat token
//! stream; the concurrency rules (L009–L012) need to know *which
//! function* a token belongs to, what that function calls, and which
//! guards it holds over which spans of code. This module parses the
//! token stream into just enough structure for that — `fn` / `impl` /
//! `mod` boundaries, per-function call sites, and guard-acquisition
//! sites (`.lock()`, `.borrow{,_mut}()`, `BufferPool::lease`,
//! `Recorder::enter*` / `.span(…)`) with a *held region* for each
//! guard — without becoming a Rust parser. Like the lexer it is lossy
//! and must degrade gracefully on code that does not compile.
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
//! The model records *every* call site with the same binding/held-region
//! information, because a call may turn out to be an acquisition once
//! the graph layer discovers guard-returning functions (the workspace's
//! `locked()` idiom).

use crate::lexer::{Lexed, Tok, TokKind};
use crate::rules::classify;

/// What kind of guard an acquisition site produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardKind {
    /// `Mutex::lock` (an `std` lock guard).
    Lock,
    /// `RefCell::borrow` / `borrow_mut`.
    Borrow,
    /// `BufferPool::lease` — a page lease pin.
    Lease,
    /// An obs span guard (`enter*` / `.span(…)`); excluded from the
    /// lock-order rules but recorded for completeness and L012.
    Span,
}

/// A direct guard acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct Acquisition {
    pub kind: GuardKind,
    /// Lock class (deadlock-analysis resource name), e.g.
    /// `metrics-registry` or `lockdemo.rs:order_a` for unmapped files.
    pub class: String,
    pub line: u32,
    /// Token index of the acquisition's method/function name.
    pub tok: usize,
    /// Exclusive end of the held region (token index).
    pub held_to: usize,
    /// `let`-binding name, if the guard is bound.
    pub binding: Option<String>,
}

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name: the identifier directly before the `(`.
    pub name: String,
    /// Receiver identifier for `recv.name(…)` method calls.
    pub recv: Option<String>,
    /// True for `.name(…)` method calls (resolution is conservative for
    /// these: common std method names never resolve across files).
    pub is_method: bool,
    pub line: u32,
    pub tok: usize,
    /// Held region the call's result would occupy *if* the callee turns
    /// out to be a guard-returning function.
    pub held_to: usize,
    pub binding: Option<String>,
    /// `name()` with an empty argument list (distinguishes the blocking
    /// `handle.join()` from `Vec::join(sep)`).
    pub no_args: bool,
    /// The call's statement is `let _ = …;` — the value is discarded.
    pub let_discard: bool,
}

/// One function item.
#[derive(Debug, Clone)]
pub struct FnModel {
    /// Bare name.
    pub name: String,
    /// `Type::name` inside an `impl` block, `mod::name` inside a named
    /// module, else the bare name. Display-only.
    pub qual: String,
    pub line: u32,
    pub is_pub: bool,
    /// Inside a `#[cfg(test)]` region or a test-classified file.
    pub in_test: bool,
    /// Identifier tokens of the return type (empty when none).
    pub ret_idents: Vec<String>,
    /// Token range of the body: `(open_brace, close_brace)`; `None` for
    /// bodyless declarations.
    pub body: Option<(usize, usize)>,
    pub calls: Vec<CallSite>,
    pub acquisitions: Vec<Acquisition>,
    /// True when the function's tail expression contains a guard
    /// acquisition: callers receive the guard (`fn locked(…) ->
    /// MutexGuard` idiom). The graph layer extends this transitively.
    pub tail_guard: Option<(GuardKind, String)>,
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

/// Files whose guards all protect one well-known engine resource. Any
/// `.lock()`/`.borrow*()` in these files maps to the named class; other
/// files fall back to a per-receiver class so unrelated mutexes stay
/// distinguishable.
const CLASS_BY_PATH: &[(&str, &str)] = &[
    ("crates/obs/src/metrics.rs", "metrics-registry"),
    ("crates/obs/src/journal.rs", "journal-ring"),
    ("crates/obs/src/span.rs", "span-tree"),
    ("crates/pagestore/src/buffer.rs", "buffer-pool"),
    ("crates/orpheus-server/src/server.rs", "session-table"),
    ("crates/orpheus-server/src/session.rs", "session-table"),
    ("crates/orpheus-server/src/engine.rs", "commit-queue"),
    ("crates/exec-pool/src/", "pool-queue"),
];

/// Names that create an obs span guard.
pub const SPAN_CALLS: &[&str] = &["enter", "enter_request", "enter_with", "span"];

/// Keywords that look like `name (` in the token stream but are not
/// calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "mut", "ref", "move",
    "in", "as", "use", "pub", "crate", "super", "where", "impl", "trait", "struct", "enum", "mod",
    "const", "static", "unsafe", "extern", "async", "await", "dyn", "break", "continue", "type",
];

/// Resolve the lock class for an acquisition in `path` whose receiver
/// identifier is `recv`.
fn lock_class(path: &str, recv: Option<&str>) -> String {
    for (prefix, class) in CLASS_BY_PATH {
        if path.starts_with(prefix) {
            return (*class).to_owned();
        }
    }
    let stem = path.rsplit('/').next().unwrap_or(path);
    format!("{stem}:{}", recv.unwrap_or("anon"))
}

/// Build the code model for one lexed file. `in_test` is the
/// `#[cfg(test)]` token mask from `rules::test_region_mask`.
pub fn build(path: &str, lexed: &Lexed, in_test: &[bool]) -> FileModel {
    let toks = &lexed.toks;
    let class = classify(path);
    let enclosing_close = enclosing_block_close(toks);
    let mut fns = Vec::new();
    let mut fn_starts = Vec::new(); // body ranges, for nested-fn exclusion

    // Pass 1: locate every `fn` item and its body.
    let mut scopes: Vec<(String, usize)> = Vec::new(); // (name, close brace)
    let mut i = 0usize;
    while i < toks.len() {
        while let Some(&(_, close)) = scopes.last() {
            if i > close {
                scopes.pop();
            } else {
                break;
            }
        }
        let t = &toks[i];
        if t.is_ident("impl") || t.is_ident("mod") {
            if let Some((name, open)) = scope_header(toks, i) {
                let close = matching_brace(toks, open);
                scopes.push((name, close));
                i = open + 1;
                continue;
            }
        }
        if t.is_ident("fn") {
            if let Some(f) = parse_fn(toks, i, &scopes, in_test, class.test_code) {
                // Resume *inside* the body so nested `fn` items are
                // found too; pass 2 excludes their ranges from the
                // enclosing function's sites.
                let resume = f.0.body.map(|(open, _)| open + 1).unwrap_or(f.1);
                if let Some(body) = f.0.body {
                    fn_starts.push(body);
                }
                fns.push(f.0);
                i = resume;
                continue;
            }
        }
        i += 1;
    }

    // Pass 2: extract calls and acquisitions per body, skipping the
    // ranges of functions nested inside (their sites belong to them).
    for f in &mut fns {
        let Some((open, close)) = f.body else {
            continue;
        };
        let nested: Vec<(usize, usize)> = fn_starts
            .iter()
            .copied()
            .filter(|&(o, c)| o > open && c < close)
            .collect();
        extract_sites(path, toks, open, close, &nested, &enclosing_close, f);
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

fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Parse an `impl`/`mod` header at `at`; returns the scope name and the
/// index of its opening `{`. `mod name;` declarations return `None`.
fn scope_header(toks: &[Tok], at: usize) -> Option<(String, usize)> {
    let mut name = String::new();
    let mut k = at + 1;
    let mut angle = 0i32;
    while k < toks.len() {
        match &toks[k].kind {
            TokKind::Punct('{') if angle == 0 => {
                return if name.is_empty() {
                    None
                } else {
                    Some((name, k))
                };
            }
            TokKind::Punct(';') if angle == 0 => return None,
            TokKind::Punct('<') => angle += 1,
            // `->`/`=>` never appear in a scope header's type position
            // at angle depth 0, but guard anyway.
            TokKind::Punct('>') if angle > 0 => angle -= 1,
            // `impl Trait for Type` — keep the *last* path segment seen
            // outside angle brackets, which is the implementing type.
            TokKind::Ident(id) if angle == 0 && id != "for" && id != "where" => {
                name = id.clone();
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// Parse the `fn` item whose `fn` keyword is at `at`. Returns the model
/// and the index to resume scanning from.
fn parse_fn(
    toks: &[Tok],
    at: usize,
    scopes: &[(String, usize)],
    in_test: &[bool],
    file_is_test: bool,
) -> Option<(FnModel, usize)> {
    let name = match toks.get(at + 1).map(|t| &t.kind) {
        Some(TokKind::Ident(n)) => n.clone(),
        _ => return None, // `fn(` type position
    };
    let is_pub = leading_qualifiers_contain_pub(toks, at);
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
    // Scan to the body `{` or declaration `;`, capturing return-type
    // identifiers between a paren-depth-0 `->` and `where`/body.
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut in_ret = false;
    let mut ret_idents = Vec::new();
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
            TokKind::Ident(id) if in_ret => ret_idents.push(id.clone()),
            _ => {}
        }
        k += 1;
    }
    let body = body_open.map(|open| (open, matching_brace(toks, open)));
    let qual = match scopes.last() {
        Some((scope, _)) => format!("{scope}::{name}"),
        None => name.clone(),
    };
    let end = body.map(|(_, close)| close).unwrap_or(k);
    let model = FnModel {
        name,
        qual,
        line: toks[at].line,
        is_pub,
        in_test: file_is_test || in_test.get(at).copied().unwrap_or(false),
        ret_idents,
        body,
        calls: Vec::new(),
        acquisitions: Vec::new(),
        tail_guard: None,
        tail_calls: Vec::new(),
    };
    Some((model, end + 1))
}

/// Walk backwards over the qualifier tokens before `fn` (`pub`,
/// `pub(crate)`, `const`, `unsafe`, `async`, `extern "C"`) looking for
/// `pub`.
fn leading_qualifiers_contain_pub(toks: &[Tok], fn_at: usize) -> bool {
    let mut k = fn_at;
    let mut budget = 8usize;
    while k > 0 && budget > 0 {
        k -= 1;
        budget -= 1;
        match &toks[k].kind {
            TokKind::Ident(id)
                if matches!(
                    id.as_str(),
                    "pub" | "crate" | "super" | "in" | "const" | "unsafe" | "async" | "extern"
                ) =>
            {
                if id == "pub" {
                    return true;
                }
            }
            TokKind::Punct('(') | TokKind::Punct(')') | TokKind::Str => {}
            _ => return false,
        }
    }
    false
}

/// Extract call sites and acquisitions from a body range, skipping
/// nested fn bodies.
#[allow(clippy::too_many_arguments)] // internal helper, reads better flat
fn extract_sites(
    path: &str,
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
        let followed_by_paren = matches!(toks.get(i + 1), Some(t) if t.is_punct('('));
        if !followed_by_paren || NON_CALL_KEYWORDS.contains(&name) {
            i += 1;
            continue;
        }
        // `name!(…)` macros are not call sites (their argument tokens
        // still get scanned).
        if matches!(toks.get(i + 1), Some(t) if t.is_punct('!')) {
            i += 1;
            continue;
        }
        let is_method = i > 0 && toks[i - 1].is_punct('.');
        let recv = if is_method && i >= 2 {
            match &toks[i - 2].kind {
                TokKind::Ident(r) => Some(r.clone()),
                _ => None,
            }
        } else {
            None
        };
        let args_close = matching_paren_from(toks, i + 1);
        let no_args = args_close == i + 2;
        let (binding, held_to, let_discard) = held_region(toks, i, close, enclosing_close);
        let line = toks[i].line;

        let guard = match name {
            "lock" if is_method && no_args => Some(GuardKind::Lock),
            "borrow" | "borrow_mut" if is_method && no_args => Some(GuardKind::Borrow),
            "lease" => Some(GuardKind::Lease),
            n if SPAN_CALLS.contains(&n) => Some(GuardKind::Span),
            _ => None,
        };
        if let Some(kind) = guard {
            let class = match kind {
                GuardKind::Lease => "buffer-pool".to_owned(),
                GuardKind::Span => "span-guard".to_owned(),
                _ => lock_class(path, recv.as_deref()),
            };
            f.acquisitions.push(Acquisition {
                kind,
                class,
                line,
                tok: i,
                held_to,
                binding,
            });
        } else {
            f.calls.push(CallSite {
                name: name.to_owned(),
                recv,
                is_method,
                line,
                tok: i,
                held_to,
                binding,
                no_args,
                let_discard,
            });
        }
        i += 1;
    }

    // Tail expression: tokens after the last body-top-level `;` (or the
    // whole body). A guard acquired there is returned to the caller.
    let tail_start = last_top_level_semi(toks, open, close).map_or(open + 1, |s| s + 1);
    f.tail_guard = f
        .acquisitions
        .iter()
        .find(|a| a.tok >= tail_start && a.tok < close && a.kind != GuardKind::Span)
        .map(|a| (a.kind, a.class.clone()));
    f.tail_calls = f
        .calls
        .iter()
        .filter(|c| c.tok >= tail_start && c.tok < close)
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

fn matching_paren_from(toks: &[Tok], at: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(at) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Compute the binding name, held-region end, and `let _ =` flag for a
/// potential guard produced at token `site`, per the module-level
/// held-region model.
fn held_region(
    toks: &[Tok],
    site: usize,
    body_close: usize,
    enclosing_close: &[usize],
) -> (Option<String>, usize, bool) {
    let start = statement_start(toks, site);
    let head = &toks[start];
    let head_is = |s: &str| head.is_ident(s);

    // Binding: a `let` between the statement start and the site.
    let binding = (start..site)
        .find(|&k| toks[k].is_ident("let"))
        .and_then(|let_at| binding_name(toks, let_at, site));

    if head_is("let") {
        match binding {
            Some(name) => {
                let block_end = enclosing_close
                    .get(site)
                    .copied()
                    .unwrap_or(body_close)
                    .min(body_close);
                return (
                    Some(name.clone()),
                    drop_site(toks, site, block_end, &name),
                    false,
                );
            }
            // `let _ = …` never binds: the guard drops at once.
            None => return (None, site + 1, true),
        }
    }
    if (head_is("if") || head_is("while")) && binding.is_some() {
        // `if let Ok(g) = …` — the guard lives for the statement's block.
        let name = binding.clone().unwrap_or_default();
        if let Some(block_open) = first_depth0_brace(toks, site, body_close) {
            let block_end = brace_close_from(toks, block_open).min(body_close);
            return (binding, drop_site(toks, site, block_end, &name), false);
        }
    }
    // Temporary: scan forward for the statement end. `match` scrutinee
    // temporaries live through the match block; `if`/`while` condition
    // temporaries drop at the block's `{`.
    let mut depth = 0i32;
    let mut k = site;
    while k < body_close {
        let t = &toks[k];
        match t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct('{') => {
                if depth == 0 {
                    return if head_is("match") {
                        (None, brace_close_from(toks, k).min(body_close), false)
                    } else {
                        (None, k, false)
                    };
                }
                depth += 1;
            }
            TokKind::Punct('}') => {
                if depth == 0 {
                    return (None, k, false);
                }
                depth -= 1;
            }
            TokKind::Punct(';') if depth == 0 => return (None, k, false),
            _ => {}
        }
        k += 1;
    }
    (None, body_close, false)
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

fn brace_close_from(toks: &[Tok], open: usize) -> usize {
    matching_brace(toks, open)
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
    fn finds_fns_and_impl_scope() {
        let m = model(
            "crates/demo/src/a.rs",
            "pub fn free() {}\nimpl Widget { fn helper(&self) {} pub fn go(&self) {} }",
        );
        let names: Vec<&str> = m.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(names, ["free", "Widget::helper", "Widget::go"]);
        assert!(m.fns[0].is_pub);
        assert!(!m.fns[1].is_pub);
        assert!(m.fns[2].is_pub);
    }

    #[test]
    fn generics_with_shift_and_arrows_do_not_break_parsing() {
        let m = model(
            "crates/demo/src/a.rs",
            "fn f<T: Into<Vec<Vec<u8>>>, F: Fn() -> u32>(x: T, g: F) -> Result<Vec<u8>, String> { g(); Ok(Vec::new()) }\nfn after() {}",
        );
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["f", "after"]);
        assert!(m.fns[0].ret_idents.iter().any(|i| i == "Result"));
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
        assert_eq!(a.binding.as_deref(), Some("g"));
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
        assert!(matches!(m.fns[0].tail_guard, Some((GuardKind::Lock, _))));
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
