//! `orpheus-lint`: the workspace's call-graph rule, the one invariant
//! the compiler and clippy cannot check. It links nothing.
//!
//! The group-commit design rests on one lock discipline: no `Mutex`
//! guard is held across an fsync, the WAL write path, a channel receive
//! or a thread join (rule L010). Seeing that takes a call graph
//! across crates, so this crate tokenizes the workspace's Rust sources
//! (no rustc, no external parser), builds a lightweight code model
//! (`model`: fn boundaries, call sites, guard held-regions) and a
//! workspace call graph (`graph`). Token-level rules are clippy lints in
//! the workspace manifest; see `README.md`.
//!
//! Findings print as `file:line: Lxxx message` and the binary exits
//! non-zero when any survive suppression — `scripts/ci.sh` runs it as a
//! gate.

pub mod graph;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod walk;

use std::fs;
use std::io;
use std::path::Path;

pub use rules::{Finding, Rule};

/// A finding bound to the file it was found in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileFinding {
    pub path: String,
    pub finding: Finding,
}

impl std::fmt::Display for FileFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.path,
            self.finding.line,
            self.finding.rule.id(),
            self.finding.msg
        )
    }
}

/// Lint a set of sources *together*: the rule runs over the shared
/// workspace model (so a blocking callee in another file is still
/// seen), then per-file suppressions apply. `files` holds
/// `(workspace-relative path, contents)`; findings come back sorted by
/// `(path, line, rule)`.
pub fn lint_sources(files: &[(String, String)]) -> Vec<FileFinding> {
    let lexed: Vec<lexer::Lexed> = files.iter().map(|(_, src)| lexer::lex(src)).collect();
    let models: Vec<model::FileModel> = files
        .iter()
        .zip(&lexed)
        .map(|((rel, _), lx)| model::build(rel, lx, &rules::test_region_mask(&lx.toks)))
        .collect();
    let mut per_file: Vec<Vec<Finding>> = vec![Vec::new(); files.len()];
    for (file_idx, finding) in graph::analyze(&models) {
        per_file[file_idx].push(finding);
    }
    let mut out = Vec::new();
    for (((rel, _), lx), mut findings) in files.iter().zip(&lexed).zip(per_file) {
        rules::finalize(&mut findings, &lx.comments);
        out.extend(findings.into_iter().map(|finding| FileFinding {
            path: rel.clone(),
            finding,
        }));
    }
    out.sort_by(|a, b| {
        (&a.path, a.finding.line, a.finding.rule).cmp(&(&b.path, b.finding.line, b.finding.rule))
    });
    out
}

/// Every workspace source file under `root` (see [`walk`]), as
/// `(workspace-relative path, contents)`.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    walk::workspace_files(root)?
        .into_iter()
        .map(|(rel, abs)| Ok((rel, fs::read_to_string(&abs)?)))
        .collect()
}

/// Lint every workspace source file under `root`. Returns the findings
/// and the number of files scanned.
pub fn lint_workspace(root: &Path) -> io::Result<(Vec<FileFinding>, usize)> {
    let sources = workspace_sources(root)?;
    Ok((lint_sources(&sources), sources.len()))
}

/// Lint one or more files *jointly* (shared call graph). If a file's
/// first line is a `//@path crates/...` directive, that pseudo-path
/// drives rule scoping (used by the rule fixtures, which live outside
/// the crates they imitate); otherwise the given path is used as-is.
pub fn lint_files(paths: &[&Path]) -> io::Result<Vec<FileFinding>> {
    let mut sources = Vec::with_capacity(paths.len());
    for path in paths {
        let src = fs::read_to_string(path)?;
        let rel = pseudo_path(&src).unwrap_or_else(|| path.to_string_lossy().into_owned());
        sources.push((rel, src));
    }
    Ok(lint_sources(&sources))
}

/// Extract the `//@path …` directive from a fixture's first line.
pub fn pseudo_path(src: &str) -> Option<String> {
    let first = src.lines().next()?;
    let rest = first.strip_prefix("//@path ")?;
    Some(rest.trim().to_owned())
}
