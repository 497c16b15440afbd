//! Workspace-wide analysis over the code model: the call graph, the
//! lock-acquisition graph, and the concurrency rules L009–L012.
//!
//! **Call graph.** Call sites resolve by name with a same-file-first
//! policy: a callee name that resolves inside its own file resolves
//! *only* there (so the four `locked()` helpers in obs/exec-pool never
//! cross-contaminate); otherwise every workspace function with that
//! name outside integration tests is a candidate — a `tests/` helper is
//! reachable from its own file only, so a test's `fn load()` that syncs
//! cannot make a library's `x.load()` look blocking. Method calls whose
//! names are ubiquitous std vocabulary (`push`, `get`, `clone`, …) never
//! resolve across files — resolving `.push(…)` to `Journal::push` would
//! hallucinate an edge into the journal ring from every vector append.
//! Calls named `drop` resolve to nothing: `std::mem::drop` is almost
//! always what is meant.
//!
//! **Lock-acquisition graph.** Nodes are lock *classes* (one per
//! engine resource: `metrics-registry`, `journal-ring`, `buffer-pool`,
//! `session-table`, `commit-queue`, `pool-queue`, plus per-receiver
//! classes for unmapped files). There is an edge `A → B` when some
//! function holds a guard of class `A` across a point that acquires
//! `B` — either a direct acquisition in the same body or a call whose
//! (transitive) callees acquire `B`. "Held across call" is the edge
//! relation because that is the only way lock orders compose across
//! functions: the callee inherits the caller's held set. A cycle in
//! this graph is a lock-order inversion: two threads entering it from
//! different edges can each hold what the other wants (L009).
//!
//! **Fixpoints.** Four properties propagate over the call graph until
//! stable: the set of classes a function may acquire; whether it can
//! block (`fsync`/`sync_all`/`sync_data`, channel `recv`/
//! `recv_timeout`, no-arg `join`, or the WAL write path) for L010;
//! whether it creates an obs span for L012; and whether it *returns* a
//! guard (the `fn locked(…) -> MutexGuard` idiom), in which case a
//! `let`-bound call to it is an acquisition at the call site.

use std::collections::{BTreeMap, BTreeSet};

use crate::model::{Acquisition, CallSite, FileModel, GuardKind};
use crate::rules::{classify, Finding, Rule, VENDORED_SHIMS};

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

/// Return-type identifiers that mark a fn as handing its caller a live
/// guard (`fn locked(…) -> MutexGuard<…>` and friends).
const GUARD_RET_TYPES: &[&str] = &[
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "Ref",
    "RefMut",
    "PageLease",
];

fn returns_guard_type(f: &crate::model::FnModel) -> bool {
    f.ret_idents
        .iter()
        .any(|r| GUARD_RET_TYPES.contains(&r.as_str()))
}

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

/// Run the graph rules over the whole workspace model. Returns findings
/// tagged with the index of the file they belong to.
pub fn analyze(files: &[FileModel]) -> Vec<(usize, Finding)> {
    let ws = Workspace::build(files);
    let mut out = Vec::new();
    l009_lock_order_cycles(&ws, &mut out);
    l010_no_guard_across_blocking(&ws, &mut out);
    l011_no_discarded_results(&ws, &mut out);
    l012_command_entry_points_traced(&ws, &mut out);
    out
}

struct Workspace<'a> {
    files: &'a [FileModel],
    /// `fn name → every (file, fn)` defining it.
    by_name: BTreeMap<&'a str, Vec<FnId>>,
    /// Resolved call targets, parallel to each fn's `calls`.
    targets: BTreeMap<FnId, Vec<Vec<FnId>>>,
    /// Classes each fn may (transitively) acquire.
    acquires: BTreeMap<FnId, BTreeSet<String>>,
    /// Fns that may block (directly or transitively).
    blocking: BTreeSet<FnId>,
    /// Fns that (transitively) create an obs span.
    creates_span: BTreeSet<FnId>,
    /// Guard-returning fns and the guard they return.
    guard_source: BTreeMap<FnId, (GuardKind, String)>,
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
            acquires: BTreeMap::new(),
            blocking: BTreeSet::new(),
            creates_span: BTreeSet::new(),
            guard_source: BTreeMap::new(),
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
            .filter(|&(fi, _)| !classify(&self.files[fi].path).test_code)
            .collect()
    }

    fn fn_of(&self, id: FnId) -> &'a crate::model::FnModel {
        &self.files[id.0].fns[id.1]
    }

    fn all_fns(&self) -> impl Iterator<Item = FnId> + '_ {
        self.files
            .iter()
            .enumerate()
            .flat_map(|(fi, file)| (0..file.fns.len()).map(move |gi| (fi, gi)))
    }

    fn fixpoints(&mut self) {
        // Seeds. Only Mutex/RwLock guards feed the lock graph: a RefCell
        // borrow or page lease cannot block another thread, so it cannot
        // be a deadlock edge (it stays in the model for other uses).
        for id in self.all_fns().collect::<Vec<_>>() {
            let f = self.fn_of(id);
            let path = &self.files[id.0].path;
            let mut acq = BTreeSet::new();
            for a in &f.acquisitions {
                if a.kind == GuardKind::Lock {
                    acq.insert(a.class.clone());
                }
                if a.kind == GuardKind::Span {
                    self.creates_span.insert(id);
                }
            }
            self.acquires.insert(id, acq);
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
            if let Some(g) = &f.tail_guard {
                if returns_guard_type(f) {
                    self.guard_source.insert(id, g.clone());
                }
            }
        }
        // Propagate until stable. The workspace has a few hundred fns,
        // so a simple iterate-to-fixpoint is plenty fast.
        loop {
            let mut changed = false;
            for id in self.all_fns().collect::<Vec<_>>() {
                let callee_ids: Vec<FnId> = self.targets[&id].iter().flatten().copied().collect();
                // acquires ∪= callees' acquires
                let mut gained: Vec<String> = Vec::new();
                for t in &callee_ids {
                    for cls in &self.acquires[t] {
                        if !self.acquires[&id].contains(cls) {
                            gained.push(cls.clone());
                        }
                    }
                }
                if !gained.is_empty() {
                    self.acquires.get_mut(&id).unwrap().extend(gained);
                    changed = true;
                }
                // blocking / creates_span propagate along calls
                if !self.blocking.contains(&id)
                    && callee_ids.iter().any(|t| self.blocking.contains(t))
                {
                    self.blocking.insert(id);
                    changed = true;
                }
                if !self.creates_span.contains(&id)
                    && callee_ids.iter().any(|t| self.creates_span.contains(t))
                {
                    self.creates_span.insert(id);
                    changed = true;
                }
                // guard sources propagate through tail calls, but only
                // into fns whose signature also returns a guard type
                if !self.guard_source.contains_key(&id) && returns_guard_type(self.fn_of(id)) {
                    let f = self.fn_of(id);
                    let tail_names: Vec<&String> = f.tail_calls.iter().collect();
                    let found = f
                        .calls
                        .iter()
                        .zip(&self.targets[&id])
                        .filter(|(c, _)| tail_names.contains(&&c.name))
                        .flat_map(|(_, ts)| ts.iter())
                        .find_map(|t| self.guard_source.get(t).cloned());
                    if let Some(g) = found {
                        self.guard_source.insert(id, g);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Direct lock acquisitions plus derived ones (a `let`-bound call
    /// to a guard-returning fn acquires that guard at the call site).
    /// Span guards, borrows, and leases are excluded — they do not
    /// block other threads, so they are not deadlock participants.
    fn effective_acquisitions(&self, id: FnId) -> Vec<Acquisition> {
        let f = self.fn_of(id);
        let mut out: Vec<Acquisition> = f
            .acquisitions
            .iter()
            .filter(|a| a.kind == GuardKind::Lock)
            .cloned()
            .collect();
        for (c, ts) in f.calls.iter().zip(&self.targets[&id]) {
            let source = ts
                .iter()
                .find_map(|t| self.guard_source.get(t))
                .filter(|(kind, _)| *kind == GuardKind::Lock);
            if let Some((kind, class)) = source {
                out.push(Acquisition {
                    kind: *kind,
                    class: class.clone(),
                    line: c.line,
                    tok: c.tok,
                    held_to: c.held_to,
                    binding: c.binding.clone(),
                });
            }
        }
        out.sort_by_key(|a| a.tok);
        out
    }

    /// Should this file produce graph-rule findings at all?
    fn reportable(&self, file_idx: usize) -> bool {
        let path = &self.files[file_idx].path;
        let vendored = VENDORED_SHIMS
            .iter()
            .any(|v| path.starts_with(&format!("crates/{v}/")));
        !vendored && !classify(path).test_code
    }
}

// ---------------------------------------------------------------------
// L009 — lock-order cycles
// ---------------------------------------------------------------------

/// One held-across edge `from → to` with the site that creates it.
struct Edge {
    from: String,
    to: String,
    file: usize,
    line: u32,
    via: String,
}

fn l009_lock_order_cycles(ws: &Workspace, out: &mut Vec<(usize, Finding)>) {
    let mut edges: Vec<Edge> = Vec::new();
    let mut seen: BTreeSet<(usize, u32, String, String)> = BTreeSet::new();
    for id in ws.all_fns() {
        let f = ws.fn_of(id);
        if f.in_test || !ws.reportable(id.0) {
            continue;
        }
        let acqs = ws.effective_acquisitions(id);
        for a in &acqs {
            // Direct nested acquisition of a different class.
            for b in &acqs {
                if b.tok > a.tok && b.tok < a.held_to && b.class != a.class {
                    push_edge(&mut edges, &mut seen, a, &b.class, id.0, b.line, "acquired");
                }
            }
            // A call whose transitive callees acquire a different class.
            for (c, ts) in f.calls.iter().zip(&ws.targets[&id]) {
                if c.tok <= a.tok || c.tok >= a.held_to {
                    continue;
                }
                let mut classes: BTreeSet<&String> =
                    ts.iter().flat_map(|t| ws.acquires[t].iter()).collect();
                classes.retain(|cls| **cls != a.class);
                for cls in classes {
                    let via = format!("via `{}(…)`", c.name);
                    push_edge(&mut edges, &mut seen, a, cls, id.0, c.line, &via);
                }
            }
        }
    }

    // Build the class digraph and find its cycles (any edge whose head
    // reaches back to its tail participates in one).
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &edges {
        adj.entry(e.from.as_str())
            .or_default()
            .insert(e.to.as_str());
    }
    for e in &edges {
        // The path already ends at `e.from`, closing the cycle.
        if let Some(path) = path_between(&adj, e.to.as_str(), e.from.as_str()) {
            let mut cycle = vec![e.from.as_str()];
            cycle.extend(path);
            out.push((
                e.file,
                Finding {
                    line: e.line,
                    rule: Rule::L009,
                    msg: format!(
                        "acquiring `{}` while holding `{}` ({}) closes a \
                         lock-order cycle [{}]; two threads entering it from \
                         different edges deadlock — release the held guard \
                         first or fix one global order",
                        e.to,
                        e.from,
                        e.via,
                        cycle.join(" -> "),
                    ),
                },
            ));
        }
    }
}

fn push_edge(
    edges: &mut Vec<Edge>,
    seen: &mut BTreeSet<(usize, u32, String, String)>,
    held: &Acquisition,
    to: &str,
    file: usize,
    line: u32,
    via: &str,
) {
    if seen.insert((file, line, held.class.clone(), to.to_owned())) {
        edges.push(Edge {
            from: held.class.clone(),
            to: to.to_owned(),
            file,
            line,
            via: via.to_owned(),
        });
    }
}

/// Shortest path `from ⇝ to` in the class digraph (BFS, deterministic
/// because the adjacency sets are ordered). Excludes the start node
/// itself from the returned path's head.
fn path_between<'c>(
    adj: &BTreeMap<&'c str, BTreeSet<&'c str>>,
    from: &'c str,
    to: &str,
) -> Option<Vec<&'c str>> {
    let mut prev: BTreeMap<&'c str, &'c str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    let mut visited = BTreeSet::from([from]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![n];
            let mut cur = n;
            while let Some(&p) = prev.get(cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &next in adj.get(n).into_iter().flatten() {
            if visited.insert(next) {
                prev.insert(next, n);
                queue.push_back(next);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// L010 — no Mutex/RwLock guard held across a blocking boundary
// ---------------------------------------------------------------------

fn l010_no_guard_across_blocking(ws: &Workspace, out: &mut Vec<(usize, Finding)>) {
    for id in ws.all_fns() {
        let f = ws.fn_of(id);
        if f.in_test || !ws.reportable(id.0) {
            continue;
        }
        let locks: Vec<Acquisition> = ws
            .effective_acquisitions(id)
            .into_iter()
            .filter(|a| a.kind == GuardKind::Lock)
            .collect();
        if locks.is_empty() {
            continue;
        }
        let mut reported: BTreeSet<u32> = BTreeSet::new();
        for a in &locks {
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
}

// ---------------------------------------------------------------------
// L011 — no silently discarded Result in engine library code
// ---------------------------------------------------------------------

fn l011_no_discarded_results(ws: &Workspace, out: &mut Vec<(usize, Finding)>) {
    for id in ws.all_fns() {
        let f = ws.fn_of(id);
        let path = &ws.files[id.0].path;
        if f.in_test || !classify(path).engine_lib {
            continue;
        }
        for (c, ts) in f.calls.iter().zip(&ws.targets[&id]) {
            // `let _ = fallible();` where the callee's return type is a
            // Result: the error is dropped without a trace. (L002 also
            // fires on the `let _ =` shape; L011 adds *why* it matters.)
            if c.let_discard
                && ts
                    .iter()
                    .any(|t| ws.fn_of(*t).ret_idents.iter().any(|r| r == "Result"))
            {
                out.push((
                    id.0,
                    Finding {
                        line: c.line,
                        rule: Rule::L011,
                        msg: format!(
                            "`let _ =` discards the `Result` from `{}(…)`; \
                             propagate with `?`, handle the error, or \
                             suppress with a written reason",
                            c.name,
                        ),
                    },
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// L012 — command entry points must be traced
// ---------------------------------------------------------------------

/// Crates whose public command surface must create obs spans.
const TRACED_CRATES: &[&str] = &["crates/orpheus-core/src", "crates/orpheus-server/src"];

fn l012_command_entry_points_traced(ws: &Workspace, out: &mut Vec<(usize, Finding)>) {
    for id in ws.all_fns() {
        let f = ws.fn_of(id);
        let path = &ws.files[id.0].path;
        if f.in_test || !TRACED_CRATES.iter().any(|p| path.starts_with(p)) {
            continue;
        }
        let command_entry = f.is_pub && f.ret_idents.iter().any(|r| r == "CommandOutput");
        if command_entry && !ws.creates_span.contains(&id) {
            out.push((
                id.0,
                Finding {
                    line: f.line,
                    rule: Rule::L012,
                    msg: format!(
                        "pub command entry point `{}` returns CommandOutput \
                         but never creates an obs span (directly or via its \
                         callees); trace it with `enter_request`/`span` or \
                         suppress with a written reason",
                        f.qual,
                    ),
                },
            ));
        }
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
        let ws = Workspace::build(&ms);
        let mut out = Vec::new();
        l010_no_guard_across_blocking(&ws, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].1.rule, Rule::L010);
    }
}
