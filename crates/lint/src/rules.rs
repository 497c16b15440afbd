//! The rule catalog and the suppression engine.
//!
//! Each rule protects an invariant the compiler cannot check; the rule
//! ids are stable and documented in `crates/lint/README.md`:
//!
//! - **L001** — no `unwrap()` / `expect()` / `panic!` / `unreachable!` /
//!   `todo!` / `unimplemented!` in library code of the engine crates.
//! - **L002** — no `let _ = …` discards or bare guard-call statements in
//!   engine library code (an RAII span guard bound to `_` drops
//!   immediately and silently records zero time).
//! - **L003** — no `Instant::now` / `SystemTime` in `relstore::cost` /
//!   `orpheus_core::plan` (cost estimates must be deterministic).
//! - **L004** — every `unsafe` carries a `// SAFETY:` comment.
//! - **L005** — no `#[ignore]` anywhere in the workspace.
//! - **L006** — every `#[allow(…)]` and every `// lint:allow(Lxxx)`
//!   suppression carries a written reason.
//! - **L007** — no raw `std::thread::{spawn, scope, Builder}` outside
//!   `crates/exec-pool` (all engine parallelism goes through the worker
//!   pool so joins and panics are accounted for; long-lived threads use
//!   `exec_pool::ServiceThread`, the sanctioned escape hatch).
//! - **L009** — no lock-order cycles across the engine's lock classes
//!   (metrics registry, journal ring, buffer pool, session table,
//!   group-commit queue, pool queue): a cycle in the held-across-call
//!   graph is a potential deadlock (`graph.rs`).
//! - **L010** — no Mutex/RwLock guard held across a blocking boundary
//!   (`fsync`, the WAL write path, channel `recv`, thread `join`).
//! - **L011** — no silently discarded `Result` in engine library code
//!   (statement-level `.ok();`, `let _ =` on a Result-returning call).
//! - **L012** — every `pub fn` command entry point (returning
//!   `CommandOutput` in orpheus-core/orpheus-server) must create an obs
//!   span, directly or transitively, or carry a reasoned suppression.
//! - **L013** — no `std::env::{var, var_os, vars, set_var, remove_var}`
//!   in the library code of the engine crates or `deltastore`: settings
//!   are parsed once by the binary and passed down.
//!
//! Suppression: a non-doc comment `// lint:allow(L001): reason` on the
//! finding's line or the line directly above silences that rule there.
//! A suppression without a reason does not suppress and is itself an
//! L006 finding.

use crate::lexer::{Comment, Lexed, Tok, TokKind};

/// Crates whose library code must never panic (L001/L002): the storage
/// engine holds the user's only copy of the data.
pub const ENGINE_CRATES: &[&str] = &[
    "pagestore",
    "relstore",
    "orpheus-core",
    "models",
    "obs",
    "exec-pool",
    "orpheus-server",
];

/// Vendored dependency shims; external API surface, exempt from the
/// engine-crate rules (but not from L004–L006).
pub const VENDORED_SHIMS: &[&str] = &["rand", "proptest", "criterion"];

/// Modules whose cost arithmetic must stay deterministic (L003).
const DETERMINISTIC_PREFIXES: &[&str] = &[
    "crates/relstore/src/cost",
    "crates/orpheus-core/src/plan.rs",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    L001,
    L002,
    L003,
    L004,
    L005,
    L006,
    L007,
    L009,
    L010,
    L011,
    L012,
    L013,
}

impl Rule {
    const ALL: [Rule; 12] = {
        use Rule::*;
        [
            L001, L002, L003, L004, L005, L006, L007, L009, L010, L011, L012, L013,
        ]
    };

    /// The stable id, `Lxxx`: the variant's name.
    pub fn id(self) -> String {
        format!("{self:?}")
    }

    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == s.trim())
    }
}

/// One lint finding, rendered as `file:line: Lxxx message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub line: u32,
    pub rule: Rule,
    pub msg: String,
}

/// What a file's path says about which rules apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// Library code (`src/`) of one of [`ENGINE_CRATES`].
    pub engine_lib: bool,
    /// Library code of an engine crate or `deltastore`: no environment
    /// reads (L013).
    pub env_free: bool,
    /// `crates/relstore/src/cost*`, `crates/orpheus-core/src/plan.rs`.
    pub deterministic: bool,
    /// `crates/exec-pool/` — the one place allowed to create threads.
    pub pool_code: bool,
    /// Integration-test source (a `tests/` directory): compiled only into
    /// test harnesses, so the engine/thread rules don't apply — like
    /// `#[cfg(test)]` regions, but path-scoped (integration tests carry
    /// `#[test]` without a `cfg(test)` wrapper).
    pub test_code: bool,
}

/// Classify a workspace-relative path (forward slashes).
pub fn classify(rel_path: &str) -> FileClass {
    let rel = rel_path.trim_start_matches("./").replace('\\', "/");
    let mut segs = rel.split('/');
    let (engine_lib, env_free, test_code) = match (segs.next(), segs.next(), segs.next()) {
        (Some("crates"), Some(krate), Some("src")) => {
            let engine = ENGINE_CRATES.contains(&krate);
            (engine, engine || krate == "deltastore", false)
        }
        (Some("crates"), Some(_), Some("tests")) | (Some("tests"), _, _) => (false, false, true),
        _ => (false, false, false),
    };
    let deterministic = DETERMINISTIC_PREFIXES.iter().any(|p| rel.starts_with(p));
    let pool_code = rel.starts_with("crates/exec-pool/");
    FileClass {
        engine_lib,
        env_free,
        deterministic,
        pool_code,
        test_code,
    }
}

/// Lint one source file in isolation: the per-file rules plus the graph
/// rules run over just this file. Cross-file lock-order cycles need the
/// workspace entry point (`crate::lint_sources`), which shares the
/// call graph across files.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    crate::lint_sources(&[(rel_path.to_owned(), src.to_owned())])
        .into_iter()
        .map(|ff| ff.finding)
        .collect()
}

/// The token-level rules (L001–L007, L013, and L011's `.ok();` arm) for one
/// lexed file. The graph rules (L009/L010/L012 and L011's `let _ =`
/// arm) are added by `graph::analyze`; suppressions are applied by
/// [`finalize`] once both are in.
pub(crate) fn per_file_findings(rel_path: &str, lexed: &Lexed, in_test: &[bool]) -> Vec<Finding> {
    let class = classify(rel_path);
    let toks = &lexed.toks;
    let mut findings = Vec::new();

    if class.engine_lib {
        l001_no_panicking_calls(toks, in_test, &mut findings);
        l002_no_discarded_guards(toks, in_test, &mut findings);
        l011_no_statement_level_ok_discards(toks, in_test, &mut findings);
    }
    if class.deterministic {
        l003_deterministic_cost(toks, in_test, &mut findings);
    }
    if class.env_free {
        l013_no_environment(toks, in_test, &mut findings);
    }
    l004_safety_comments(toks, &lexed.comments, &mut findings);
    l005_no_ignored_tests(toks, &mut findings);
    l006_allow_needs_reason(toks, &lexed.comments, &mut findings);
    if !class.pool_code && !class.test_code {
        l007_no_raw_threads(toks, in_test, &mut findings);
    }
    findings
}

/// Apply the suppression contract and order the file's findings.
pub(crate) fn finalize(findings: &mut Vec<Finding>, comments: &[Comment]) {
    let suppressions = collect_suppressions(comments, findings);
    findings.retain(|f| {
        !suppressions.iter().any(|s| {
            s.rules.contains(&f.rule) && (f.line == s.end_line || f.line == s.end_line + 1)
        })
    });
    findings.sort_by_key(|f| (f.line, f.rule));
}

// ---------------------------------------------------------------------
// cfg(test) regions
// ---------------------------------------------------------------------

/// Per-token flag: true inside an item annotated `#[cfg(test)]` (the
/// attribute itself included).
pub(crate) fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && matches!(toks.get(i + 1), Some(t) if t.is_punct('[')) {
            let close = matching_bracket(toks, i + 1);
            if attr_is_cfg_test(&toks[i + 2..close.min(toks.len())]) {
                // Skip any further attributes, then swallow the item.
                let mut j = close + 1;
                while j < toks.len()
                    && toks[j].is_punct('#')
                    && matches!(toks.get(j + 1), Some(t) if t.is_punct('['))
                {
                    j = matching_bracket(toks, j + 1) + 1;
                }
                let end = item_end(toks, j);
                for flag in mask.iter_mut().take((end + 1).min(toks.len())).skip(i) {
                    *flag = true;
                }
                i = end + 1;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// `true` for attribute content that is exactly `cfg(test)`.
fn attr_is_cfg_test(content: &[Tok]) -> bool {
    content.len() == 4
        && content[0].is_ident("cfg")
        && content[1].is_punct('(')
        && content[2].is_ident("test")
        && content[3].is_punct(')')
}

/// Index of the `]` matching the `[` at `open` (or the last token).
fn matching_bracket(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Index of the token that ends the item starting at `start`: the `}`
/// closing its body, or a top-level `;` for braceless items.
fn item_end(toks: &[Tok], start: usize) -> usize {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut brace = 0i32;
    let mut entered_brace = false;
    for (k, t) in toks.iter().enumerate().skip(start) {
        match t.kind {
            TokKind::Punct('(') => paren += 1,
            TokKind::Punct(')') => paren -= 1,
            TokKind::Punct('[') => bracket += 1,
            TokKind::Punct(']') => bracket -= 1,
            TokKind::Punct('{') => {
                brace += 1;
                entered_brace = true;
            }
            TokKind::Punct('}') => {
                brace -= 1;
                if entered_brace && brace == 0 {
                    return k;
                }
            }
            TokKind::Punct(';') if !entered_brace && paren == 0 && bracket == 0 => {
                return k;
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

const PANICKING_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn l001_no_panicking_calls(toks: &[Tok], in_test: &[bool], findings: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if in_test[i] {
            continue;
        }
        if let TokKind::Ident(name) = &toks[i].kind {
            let method_call = (name == "unwrap" || name == "expect")
                && i > 0
                && toks[i - 1].is_punct('.')
                && matches!(toks.get(i + 1), Some(t) if t.is_punct('('));
            if method_call {
                findings.push(Finding {
                    line: toks[i].line,
                    rule: Rule::L001,
                    msg: format!(
                        "`.{name}()` can panic in engine library code; \
                         return the crate's typed error instead"
                    ),
                });
            }
            let panicking_macro = PANICKING_MACROS.contains(&name.as_str())
                && matches!(toks.get(i + 1), Some(t) if t.is_punct('!'));
            if panicking_macro {
                findings.push(Finding {
                    line: toks[i].line,
                    rule: Rule::L001,
                    msg: format!(
                        "`{name}!` aborts the engine mid-operation; \
                         return the crate's typed error instead"
                    ),
                });
            }
        }
    }
}

/// Names that construct an obs RAII span guard.
fn is_guard_call(toks: &[Tok], i: usize) -> bool {
    (toks[i].is_ident("span") || toks[i].is_ident("enter"))
        && matches!(toks.get(i + 1), Some(t) if t.is_punct('('))
}

fn l002_no_discarded_guards(toks: &[Tok], in_test: &[bool], findings: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if in_test[i] {
            continue;
        }
        // (a) `let _ = …;` — the wildcard never binds, so the value (and
        // any RAII guard inside it) drops at the `=`.
        if toks[i].is_ident("let")
            && matches!(toks.get(i + 1), Some(t) if t.is_ident("_"))
            && matches!(toks.get(i + 2), Some(t) if t.is_punct('='))
        {
            let rhs_end = statement_end(toks, i + 3);
            let spanish = (i + 3..rhs_end).any(|j| is_guard_call(toks, j));
            let msg = if spanish {
                "`let _ = …` drops the obs span guard immediately (zero time \
                 recorded); bind it to a named `_guard`"
                    .to_owned()
            } else {
                "`let _ = …` silently discards the value (an RAII guard would \
                 drop immediately); use `drop(…)`, a named binding, or \
                 `// lint:allow(L002): reason`"
                    .to_owned()
            };
            findings.push(Finding {
                line: toks[i].line,
                rule: Rule::L002,
                msg,
            });
        }
        // (b) a bare `….span("…");` statement: the guard is a temporary
        // that drops at the statement's semicolon.
        if is_guard_call(toks, i) && statement_initial_chain(toks, i) {
            let close = matching_paren(toks, i + 1);
            if matches!(toks.get(close + 1), Some(t) if t.is_punct(';')) {
                findings.push(Finding {
                    line: toks[i].line,
                    rule: Rule::L002,
                    msg: "span guard discarded at the end of the statement; \
                          bind it with `let _guard = …`"
                        .to_owned(),
                });
            }
        }
    }
}

/// L011 (token arm): a statement that ends in `.ok();` evaluated for
/// nothing converts an error into silence — `fallible().ok();` neither
/// propagates nor logs. (`let maybe = fallible().ok();` binds the
/// Option and is fine; the `let _ =` arm lives in `graph.rs` where the
/// callee's return type is known.)
fn l011_no_statement_level_ok_discards(
    toks: &[Tok],
    in_test: &[bool],
    findings: &mut Vec<Finding>,
) {
    for i in 0..toks.len() {
        if in_test[i] {
            continue;
        }
        let ok_call = toks[i].is_ident("ok")
            && i > 0
            && toks[i - 1].is_punct('.')
            && matches!(toks.get(i + 1), Some(t) if t.is_punct('('))
            && matches!(toks.get(i + 2), Some(t) if t.is_punct(')'))
            && matches!(toks.get(i + 3), Some(t) if t.is_punct(';'));
        if !ok_call {
            continue;
        }
        // Only expression statements: a `let`, an assignment, or a
        // `return` consumes the Option.
        let mut start = i;
        while start > 0 {
            let prev = &toks[start - 1];
            if prev.is_punct(';') || prev.is_punct('{') || prev.is_punct('}') {
                break;
            }
            start -= 1;
        }
        let consumed = (start..i).any(|k| {
            toks[k].is_ident("let") || toks[k].is_ident("return") || toks[k].is_punct('=')
        });
        if !consumed {
            findings.push(Finding {
                line: toks[i].line,
                rule: Rule::L011,
                msg: "`.ok();` silently discards this Result (the error is \
                      lost); propagate with `?`, handle it, or suppress with \
                      a written reason"
                    .to_owned(),
            });
        }
    }
}

/// Walk backwards over a `recv.path::to.` chain; true if the chain is the
/// start of a statement (preceded by `;`, `{`, `}`, or file start).
fn statement_initial_chain(toks: &[Tok], mut i: usize) -> bool {
    while i > 0 {
        let prev = &toks[i - 1];
        let chainlike =
            prev.is_punct('.') || prev.is_punct(':') || matches!(prev.kind, TokKind::Ident(_));
        if chainlike {
            i -= 1;
        } else {
            break;
        }
    }
    i == 0 || toks[i - 1].is_punct(';') || toks[i - 1].is_punct('{') || toks[i - 1].is_punct('}')
}

/// Index of the `)` matching the `(` at `open` (or the last token).
fn matching_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
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

/// Index of the `;` ending the statement starting at `start` (depth-aware).
fn statement_end(toks: &[Tok], start: usize) -> usize {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut brace = 0i32;
    for (k, t) in toks.iter().enumerate().skip(start) {
        match t.kind {
            TokKind::Punct('(') => paren += 1,
            TokKind::Punct(')') => paren -= 1,
            TokKind::Punct('[') => bracket += 1,
            TokKind::Punct(']') => bracket -= 1,
            TokKind::Punct('{') => brace += 1,
            TokKind::Punct('}') => brace -= 1,
            TokKind::Punct(';') if paren == 0 && bracket == 0 && brace == 0 => return k,
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

fn l003_deterministic_cost(toks: &[Tok], in_test: &[bool], findings: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if in_test[i] {
            continue;
        }
        if path_tail(toks, i, "Instant", &["now"]).is_some() {
            findings.push(Finding {
                line: toks[i].line,
                rule: Rule::L003,
                msg: "`Instant::now` in cost/plan code makes estimates \
                      nondeterministic; measure in obs spans instead"
                    .to_owned(),
            });
        }
        if toks[i].is_ident("SystemTime") {
            findings.push(Finding {
                line: toks[i].line,
                rule: Rule::L003,
                msg: "`SystemTime` in cost/plan code makes estimates \
                      nondeterministic; thread time in as a parameter"
                    .to_owned(),
            });
        }
    }
}

/// The `std::env` functions that read or change the process environment.
const ENV_ACCESS: &[&str] = &["var", "var_os", "vars", "vars_os", "set_var", "remove_var"];

fn l013_no_environment(toks: &[Tok], in_test: &[bool], findings: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if in_test[i] {
            continue;
        }
        if let Some(name) = path_tail(toks, i, "env", ENV_ACCESS) {
            findings.push(Finding {
                line: toks[i].line,
                rule: Rule::L013,
                msg: format!(
                    "`env::{name}` in library code: settings are parsed once by \
                     the binary and passed down as typed values"
                ),
            });
        }
    }
}

/// The name after `head::` at token `i`, if it is one of `names`.
fn path_tail<'t>(toks: &'t [Tok], i: usize, head: &str, names: &[&str]) -> Option<&'t str> {
    let sep = |k: usize| matches!(toks.get(k), Some(t) if t.is_punct(':'));
    if !toks[i].is_ident(head) || !sep(i + 1) || !sep(i + 2) {
        return None;
    }
    match &toks.get(i + 3)?.kind {
        TokKind::Ident(name) if names.contains(&name.as_str()) => Some(name),
        _ => None,
    }
}

/// Thread-creating names under `std::thread` that bypass the pool.
const RAW_THREAD_ENTRIES: &[&str] = &["spawn", "scope", "Builder"];

fn l007_no_raw_threads(toks: &[Tok], in_test: &[bool], findings: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if in_test[i] {
            continue;
        }
        if let Some(name) = path_tail(toks, i, "thread", RAW_THREAD_ENTRIES) {
            findings.push(Finding {
                line: toks[i].line,
                rule: Rule::L007,
                msg: format!(
                    "raw `thread::{name}` bypasses exec-pool \
                     (joins and worker panics go unaccounted); use \
                     `exec_pool::WorkerPool` for scoped fan-out or \
                     `exec_pool::ServiceThread` for named long-lived services"
                ),
            });
        }
    }
}

fn l004_safety_comments(toks: &[Tok], comments: &[Comment], findings: &mut Vec<Finding>) {
    for t in toks {
        if t.is_ident("unsafe") {
            // A SAFETY comment may span several `//` lines; accept it when
            // the contiguous run of comment lines it starts reaches the
            // `unsafe` (or it sits on the same line).
            let documented = comments.iter().any(|c| {
                !c.doc
                    && c.text.contains("SAFETY:")
                    && (c.line == t.line || comment_block_reaches(comments, c, t.line))
            });
            if !documented {
                findings.push(Finding {
                    line: t.line,
                    rule: Rule::L004,
                    msg: "`unsafe` without a `// SAFETY:` comment on the same \
                          line or the line above"
                        .to_owned(),
                });
            }
        }
    }
}

/// Indices `(hash, open_bracket)` of every outer or inner attribute.
fn attribute_starts(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_punct('#') {
            continue;
        }
        if matches!(toks.get(i + 1), Some(t) if t.is_punct('[')) {
            out.push((i, i + 1));
        } else if matches!(toks.get(i + 1), Some(t) if t.is_punct('!'))
            && matches!(toks.get(i + 2), Some(t) if t.is_punct('['))
        {
            out.push((i, i + 2));
        }
    }
    out
}

/// True if the comment run starting at `c` — extended line-by-line through
/// directly adjacent non-doc comments — ends on the line above `target`.
fn comment_block_reaches(comments: &[Comment], c: &Comment, target: u32) -> bool {
    let mut end = c.end_line;
    loop {
        if end + 1 == target {
            return true;
        }
        match comments
            .iter()
            .find(|n| !n.doc && n.line == end + 1 && n.end_line >= n.line)
        {
            Some(next) => end = next.end_line,
            None => return false,
        }
    }
}

fn l005_no_ignored_tests(toks: &[Tok], findings: &mut Vec<Finding>) {
    for (hash, open) in attribute_starts(toks) {
        if matches!(toks.get(open + 1), Some(t) if t.is_ident("ignore")) {
            findings.push(Finding {
                line: toks[hash].line,
                rule: Rule::L005,
                msg: "`#[ignore]` hides lost coverage (recovery tests must \
                      run); fix or delete the test"
                    .to_owned(),
            });
        }
    }
}

fn l006_allow_needs_reason(toks: &[Tok], comments: &[Comment], findings: &mut Vec<Finding>) {
    for (hash, open) in attribute_starts(toks) {
        if matches!(toks.get(open + 1), Some(t) if t.is_ident("allow")) {
            let line = toks[hash].line;
            let reasoned = comments.iter().any(|c| {
                !c.doc
                    && !c.text.trim().is_empty()
                    && (c.line == line || c.end_line == line || c.end_line + 1 == line)
            });
            if !reasoned {
                findings.push(Finding {
                    line,
                    rule: Rule::L006,
                    msg: "`#[allow(…)]` without a reason comment on the same \
                          line or the line above"
                        .to_owned(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------

struct Suppression {
    rules: Vec<Rule>,
    end_line: u32,
}

/// Parse `lint:allow(Lxxx[, Lyyy]): reason` comments. Malformed or
/// reasonless suppressions become L006 findings and suppress nothing.
fn collect_suppressions(comments: &[Comment], findings: &mut Vec<Finding>) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        if c.doc {
            continue;
        }
        let Some(start) = c.text.find("lint:allow(") else {
            continue;
        };
        let rest = &c.text[start + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            findings.push(Finding {
                line: c.line,
                rule: Rule::L006,
                msg: "malformed `lint:allow(…)` suppression (missing `)`)".to_owned(),
            });
            continue;
        };
        let mut rules = Vec::new();
        let mut bad = false;
        for part in rest[..close].split(',') {
            match Rule::parse(part) {
                Some(r) => rules.push(r),
                None => {
                    findings.push(Finding {
                        line: c.line,
                        rule: Rule::L006,
                        msg: format!("unknown rule id `{}` in lint:allow", part.trim()),
                    });
                    bad = true;
                }
            }
        }
        let reason = rest[close + 1..]
            .trim_start_matches([':', '-', '—', ' '])
            .trim();
        if !reason.chars().any(|ch| ch.is_alphabetic()) {
            findings.push(Finding {
                line: c.line,
                rule: Rule::L006,
                msg: "`lint:allow(…)` suppression without a written reason".to_owned(),
            });
            continue;
        }
        if !bad && !rules.is_empty() {
            out.push(Suppression {
                rules,
                end_line: c.end_line,
            });
        }
    }
    out
}
