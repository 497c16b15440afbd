//! The workspace call graph and rule L010: no `Mutex` guard held across
//! a blocking boundary.
//!
//! **Call graph.** Call sites resolve by name with a same-file-first
//! policy: a callee name that resolves inside its own file resolves
//! *only* there (so the `locked()` helpers in obs/exec-pool never
//! cross-contaminate); otherwise every workspace function with that
//! name outside integration tests is a candidate — a `tests/` helper is
//! reachable from its own file only, so a test's `fn load()` that syncs
//! cannot make a library's `x.load()` look blocking. Method calls whose
//! names are ubiquitous std vocabulary (`push`, `get`, `clone`, …) never
//! resolve across files. Calls named `drop` resolve to nothing:
//! `std::mem::drop` is almost always what is meant.
//!
//! **Fixpoints.** Two properties propagate over the call graph until
//! stable: whether a function can block (`fsync`/`sync_all`/
//! `sync_data`, channel `recv`/`recv_timeout`, no-arg `join`, or the WAL
//! write path), and whether it *returns* a held `Mutex` guard (the `fn
//! locked(…) -> MutexGuard` idiom), in which case a call to it is an
//! acquisition at the call site. L010 then walks each function's held
//! regions against the calls inside them. Every thread contending for a
//! lock stalls behind I/O done under it; the group-commit design depends
//! on the commit queue never being wedged behind an fsync.

use std::collections::{BTreeMap, BTreeSet};

use crate::model::{Acquisition, CallSite, FileModel, FnModel};
use crate::rules::{is_test_path, Finding, Rule};

/// Vendored dependency shims: external API surface, not linted.
const VENDORED_SHIMS: &[&str] = &["rand", "proptest", "criterion"];

/// Method names that never resolve across files: std vocabulary that
/// would otherwise alias workspace functions (`.push(…)` is a Vec, not
/// `Journal::push`). Same-file resolution is still allowed.
const COMMON_METHOD_NAMES: &[&str] = &[
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_str",
    "clear",
    "clone",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "count",
    "default",
    "deref",
    "entry",
    "eq",
    "err",
    "expect",
    "extend",
    "filter",
    "find",
    "first",
    "flush",
    "fmt",
    "from",
    "get",
    "get_mut",
    "hash",
    "index",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "map",
    "map_err",
    "max",
    "min",
    "new",
    "next",
    "ok",
    "ok_or",
    "ok_or_else",
    "parse",
    "pop",
    "position",
    "push",
    "read",
    "read_line",
    "read_to_string",
    "recv",
    "recv_timeout",
    "remove",
    "replace",
    "reserve",
    "send",
    "sort",
    "sort_by",
    "sort_by_key",
    "split",
    "sum",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "try_recv",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "with_capacity",
    "write",
    "write_all",
];

/// Callee names that block the calling thread regardless of arguments.
const BLOCKING_ANY_ARGS: &[&str] = &["sync_all", "sync_data", "fsync", "recv_timeout"];

/// Functions that are blocking by *definition site*: `(path fragment,
/// fn name)`. The WAL write/sync path is a blocking boundary even
/// before the fsync — a group-commit leader stalls every follower.
const BLOCKING_DEFS: &[(&str, &str)] = &[("/wal.rs", "write_at"), ("/wal.rs", "sync")];

/// `true` when a call site blocks by name alone (std / OS boundary the
/// call graph cannot see into).
fn direct_blocking(c: &CallSite) -> bool {
    if BLOCKING_ANY_ARGS.contains(&c.name.as_str()) {
        return true;
    }
    // No-arg only: `handle.join()` / `rx.recv()` block; `Vec::join(sep)`
    // and `Wal::recv(buf)`-style calls with arguments do not.
    c.no_args && c.is_method && (c.name == "join" || c.name == "recv")
}

type FnId = (usize, usize); // (file index, fn index)

/// Run L010 over the whole workspace model. Returns findings tagged
/// with the index of the file they belong to.
pub fn analyze(files: &[FileModel]) -> Vec<(usize, Finding)> {
    let ws = Workspace::build(files);
    let mut out = Vec::new();
    for id in ws.all_fns() {
        let f = ws.fn_of(id);
        let path = &files[id.0].path;
        let vendored = VENDORED_SHIMS
            .iter()
            .any(|v| path.starts_with(&format!("crates/{v}/")));
        if f.in_test || vendored {
            continue;
        }
        let mut reported: BTreeSet<u32> = BTreeSet::new();
        for a in ws.effective_acquisitions(id) {
            for (c, ts) in f.calls.iter().zip(&ws.targets[&id]) {
                if c.tok <= a.tok || c.tok >= a.held_to {
                    continue;
                }
                let blocking = direct_blocking(c) || ts.iter().any(|t| ws.blocking.contains(t));
                if blocking && reported.insert(c.line) {
                    out.push((
                        id.0,
                        Finding {
                            line: c.line,
                            rule: Rule::L010,
                            msg: format!(
                                "`{}(…)` can block (fsync/WAL/recv/join) while \
                                 the mutex guard from line {} is held; every \
                                 thread contending for that lock stalls behind \
                                 the I/O — drop the guard before blocking",
                                c.name, a.line,
                            ),
                        },
                    ));
                }
            }
        }
    }
    out
}

struct Workspace<'a> {
    files: &'a [FileModel],
    /// `fn name → every (file, fn)` defining it.
    by_name: BTreeMap<&'a str, Vec<FnId>>,
    /// Resolved call targets, parallel to each fn's `calls`.
    targets: BTreeMap<FnId, Vec<Vec<FnId>>>,
    /// Fns that may block (directly or transitively).
    blocking: BTreeSet<FnId>,
    /// Fns that hand their caller a held lock guard.
    guard_source: BTreeSet<FnId>,
}

impl<'a> Workspace<'a> {
    fn build(files: &'a [FileModel]) -> Self {
        let mut by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                by_name.entry(&f.name).or_default().push((fi, gi));
            }
        }
        let mut ws = Workspace {
            files,
            by_name,
            targets: BTreeMap::new(),
            blocking: BTreeSet::new(),
            guard_source: BTreeSet::new(),
        };
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                let resolved = f.calls.iter().map(|c| ws.resolve(fi, c)).collect();
                ws.targets.insert((fi, gi), resolved);
            }
        }
        ws.fixpoints();
        ws
    }

    /// Same-file-first name resolution; see the module docs.
    fn resolve(&self, file_idx: usize, c: &CallSite) -> Vec<FnId> {
        if c.name == "drop" {
            return Vec::new();
        }
        let Some(candidates) = self.by_name.get(c.name.as_str()) else {
            return Vec::new();
        };
        let in_file: Vec<FnId> = candidates
            .iter()
            .copied()
            .filter(|&(fi, _)| fi == file_idx)
            .collect();
        if !in_file.is_empty() {
            return in_file;
        }
        // Common std vocabulary never resolves across files — neither
        // `.push(…)` (a Vec) nor `Thing::new(…)` (any constructor).
        if COMMON_METHOD_NAMES.contains(&c.name.as_str()) {
            return Vec::new();
        }
        candidates
            .iter()
            .copied()
            .filter(|&(fi, _)| !is_test_path(&self.files[fi].path))
            .collect()
    }

    fn fn_of(&self, id: FnId) -> &'a FnModel {
        &self.files[id.0].fns[id.1]
    }

    fn all_fns(&self) -> impl Iterator<Item = FnId> + '_ {
        self.files
            .iter()
            .enumerate()
            .flat_map(|(fi, file)| (0..file.fns.len()).map(move |gi| (fi, gi)))
    }

    fn fixpoints(&mut self) {
        for id in self.all_fns().collect::<Vec<_>>() {
            let f = self.fn_of(id);
            let path = &self.files[id.0].path;
            if f.calls.iter().any(direct_blocking)
                || BLOCKING_DEFS
                    .iter()
                    .any(|(frag, name)| path.contains(frag) && f.name == *name)
            {
                self.blocking.insert(id);
            }
            // A fn is guard-*returning* only when its signature says so:
            // a guard acquired in tail position inside a constructor that
            // returns an owning type (`fn open() -> Db`) does NOT hand
            // its caller a live guard.
            if f.tail_guard && f.returns_guard {
                self.guard_source.insert(id);
            }
        }
        // Propagate until stable. The workspace has a few thousand fns,
        // so a simple iterate-to-fixpoint is plenty fast.
        loop {
            let mut changed = false;
            for id in self.all_fns().collect::<Vec<_>>() {
                let f = self.fn_of(id);
                let targets = &self.targets[&id];
                let blocks = targets.iter().flatten().any(|t| self.blocking.contains(t));
                // Guard sources propagate through tail calls, but only
                // into fns whose signature also returns a guard type.
                let source = f.returns_guard
                    && f.calls
                        .iter()
                        .zip(targets)
                        .filter(|(c, _)| f.tail_calls.contains(&c.name))
                        .any(|(_, ts)| ts.iter().any(|t| self.guard_source.contains(t)));
                changed |= blocks && self.blocking.insert(id);
                changed |= source && self.guard_source.insert(id);
            }
            if !changed {
                break;
            }
        }
    }

    /// Direct lock acquisitions plus derived ones (a call to a
    /// guard-returning fn acquires that guard at the call site).
    fn effective_acquisitions(&self, id: FnId) -> Vec<Acquisition> {
        let f = self.fn_of(id);
        let mut out = f.acquisitions.clone();
        for (c, ts) in f.calls.iter().zip(&self.targets[&id]) {
            if ts.iter().any(|t| self.guard_source.contains(t)) {
                out.push(Acquisition {
                    line: c.line,
                    tok: c.tok,
                    held_to: c.held_to,
                });
            }
        }
        out.sort_by_key(|a| a.tok);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::model::build;
    use crate::rules::test_region_mask;

    fn models(files: &[(&str, &str)]) -> Vec<FileModel> {
        files
            .iter()
            .map(|(path, src)| {
                let lexed = lex(src);
                let mask = test_region_mask(&lexed.toks);
                build(path, &lexed, &mask)
            })
            .collect()
    }

    #[test]
    fn same_file_resolution_wins_over_workspace() {
        let ms = models(&[
            (
                "crates/demo/src/a.rs",
                "fn helper() {} fn caller() { helper(); }",
            ),
            ("crates/demo/src/b.rs", "fn helper() {}"),
        ]);
        let ws = Workspace::build(&ms);
        let caller = (0usize, 1usize);
        assert_eq!(ws.targets[&caller][0], vec![(0, 0)]);
    }

    #[test]
    fn blocking_propagates_through_the_call_graph() {
        let ms = models(&[(
            "crates/demo/src/a.rs",
            "fn leaf(f: &std::fs::File) { let _r = f.sync_data(); }\nfn mid(f: &std::fs::File) { leaf(f); }\nfn top(f: &std::fs::File) { mid(f); }",
        )]);
        let ws = Workspace::build(&ms);
        assert!(ws.blocking.contains(&(0, 0)));
        assert!(ws.blocking.contains(&(0, 2)));
    }

    #[test]
    fn guard_source_idiom_is_an_acquisition_at_the_call_site() {
        let ms = models(&[(
            "crates/demo/src/a.rs",
            "use std::sync::{Mutex, MutexGuard, PoisonError};\n\
             fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> { m.lock().unwrap_or_else(PoisonError::into_inner) }\n\
             fn f(m: &Mutex<u32>, file: &std::fs::File) { let g = locked(m); let _r = file.sync_all(); let _v = *g; }",
        )]);
        let out = analyze(&ms);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].1.rule, Rule::L010);
    }
}
