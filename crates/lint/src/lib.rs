//! `orpheus-lint`: a static-analysis pass that enforces the engine's
//! correctness invariants. The analyzer links nothing; the binary links
//! `obs` to render `--json`.
//!
//! The WAL/recovery protocol, the RAII span layer, the analytic cost
//! model, and the multi-session server's lock discipline all rest on
//! conventions the compiler cannot check: no panicking paths inside the
//! storage engine, span guards actually held, cost estimation
//! deterministic, recovery tests never `#[ignore]`d, every suppression
//! justified, no lock-order cycles, and no guard held across an fsync.
//! This crate tokenizes the workspace's Rust sources (no rustc, no
//! external parser), builds a lightweight code model (`model`: fn/impl
//! boundaries, call sites, guard held-regions) and a workspace call +
//! lock-acquisition graph (`graph`), and enforces the numbered rule
//! catalog L001–L013; see `README.md` for the catalog.
//!
//! Findings print as `file:line: Lxxx message` (or as JSON with
//! `--json`) and the binary exits non-zero when any survive
//! suppression — `scripts/ci.sh` runs it as a first-class gate.

pub mod graph;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod walk;

use std::fs;
use std::io;
use std::path::Path;

pub use rules::{classify, lint_source, Finding, Rule};

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

/// Lint a set of sources *together*: per-file rules, then the graph
/// rules over the shared workspace model (so a lock-order cycle split
/// across two files is still a cycle), then per-file suppressions.
/// `files` holds `(workspace-relative path, contents)`; findings come
/// back sorted by `(path, line, rule)`.
pub fn lint_sources(files: &[(String, String)]) -> Vec<FileFinding> {
    let lexed: Vec<lexer::Lexed> = files.iter().map(|(_, src)| lexer::lex(src)).collect();
    let masks: Vec<Vec<bool>> = lexed
        .iter()
        .map(|l| rules::test_region_mask(&l.toks))
        .collect();
    let mut per_file: Vec<Vec<Finding>> = files
        .iter()
        .zip(&lexed)
        .zip(&masks)
        .map(|(((rel, _), lx), mask)| rules::per_file_findings(rel, lx, mask))
        .collect();
    let models: Vec<model::FileModel> = files
        .iter()
        .zip(&lexed)
        .zip(&masks)
        .map(|(((rel, _), lx), mask)| model::build(rel, lx, mask))
        .collect();
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

/// Lint every workspace source file under `root`. Returns the findings
/// and the number of files scanned.
pub fn lint_workspace(root: &Path) -> io::Result<(Vec<FileFinding>, usize)> {
    let files = walk::workspace_files(root)?;
    let scanned = files.len();
    let mut sources = Vec::with_capacity(scanned);
    for (rel, abs) in files {
        sources.push((rel, fs::read_to_string(&abs)?));
    }
    Ok((lint_sources(&sources), scanned))
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

/// Lint a single file (see [`lint_files`]).
pub fn lint_file(path: &Path) -> io::Result<Vec<FileFinding>> {
    lint_files(&[path])
}

/// Extract the `//@path …` directive from a fixture's first line.
pub fn pseudo_path(src: &str) -> Option<String> {
    let first = src.lines().next()?;
    let rest = first.strip_prefix("//@path ")?;
    Some(rest.trim().to_owned())
}
