//! The rule catalog, path classes, `#[cfg(test)]` regions and the
//! suppression engine.
//!
//! The catalog holds the one rule the compiler cannot check (the
//! token-level rules are clippy lints; `README.md` maps each retired id
//! to its lint):
//!
//! - **L010** — no `Mutex` guard held across a blocking boundary
//!   (`fsync`, the WAL write path, channel `recv`, thread `join`),
//!   directly or through callees (`graph.rs`).
//!
//! Suppression: a non-doc comment `// lint:allow(L010): reason` on the
//! finding's line or the line directly above silences that rule there.
//! A suppression without a written reason, or naming an id outside the
//! catalog, suppresses nothing.

use crate::lexer::{Comment, Tok, TokKind};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    L010,
}

impl Rule {
    const ALL: [Rule; 1] = [Rule::L010];

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

/// Integration-test source (a `tests/` directory): compiled only into
/// test harnesses, so its functions are test code, like `#[cfg(test)]`
/// regions, and never call targets for other files.
pub fn is_test_path(rel_path: &str) -> bool {
    let rel = rel_path.trim_start_matches("./").replace('\\', "/");
    let mut segs = rel.split('/');
    matches!(
        (segs.next(), segs.next(), segs.next()),
        (Some("crates"), Some(_), Some("tests")) | (Some("tests"), _, _)
    )
}

/// Drop the findings a reasoned suppression covers and order the rest.
pub(crate) fn finalize(findings: &mut Vec<Finding>, comments: &[Comment]) {
    let suppressions = collect_suppressions(comments);
    findings.retain(|f| {
        !suppressions.iter().any(|(rules, end_line)| {
            rules.contains(&f.rule) && (f.line == *end_line || f.line == end_line + 1)
        })
    });
    findings.sort_by_key(|f| (f.line, f.rule));
}

/// Parse `lint:allow(Lxxx[, Lyyy]): reason` comments into `(rules, last
/// line)`. One without a reason or naming an unknown id is skipped.
fn collect_suppressions(comments: &[Comment]) -> Vec<(Vec<Rule>, u32)> {
    let mut out = Vec::new();
    for c in comments.iter().filter(|c| !c.doc) {
        let Some(start) = c.text.find("lint:allow(") else {
            continue;
        };
        let rest = &c.text[start + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rules: Option<Vec<Rule>> = rest[..close].split(',').map(Rule::parse).collect();
        let reason = rest[close + 1..].trim_start_matches([':', '-', '—', ' ']);
        if let Some(rules) = rules {
            if reason.chars().any(char::is_alphabetic) {
                out.push((rules, c.end_line));
            }
        }
    }
    out
}

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
