//! Structured tracing spans.
//!
//! A span measures one named region of work; spans entered while
//! another is open on the same thread become its children, so the
//! recorder accumulates a call tree: `orpheus.commit` contains
//! `pagestore.checkpoint` contains `pagestore.wal.fsync`. Rather than
//! logging one event per entry (which a buffer-pool miss path would turn
//! into millions of records), the [`Recorder`] aggregates in place: each
//! tree node keeps an entry count and total wall-clock time, bounded by
//! the number of *distinct* paths, not the number of entries.
//!
//! Guards are RAII: a span closes when its guard drops, including during
//! a panic unwind, so the tree never ends up with dangling open spans.
//! The recorder is thread-safe (a mutex around the tree plus a
//! per-thread cursor), and cheap enough for buffer-pool miss paths: one
//! lock on enter, one on close.
//!
//! # Request tracing
//!
//! On top of the aggregate tree, every span carries a [`TraceCtx`]: a
//! trace id naming the originating request and a span id naming this
//! particular entry. Spans opened with plain [`Recorder::enter`] inherit
//! the ids of the innermost open span on the thread; [`Recorder::enter_request`]
//! starts a fresh trace (unless one is already open, e.g. the server's
//! session span); [`Recorder::enter_with`] re-attaches work on *another*
//! thread — the engine thread, the group-commit leader — to the submitting
//! request's trace and tree position. Sampled spans additionally emit
//! begin/end events into the recorder's [`Journal`], which is what makes
//! individual requests (rather than aggregates) reconstructible.

use crate::journal::Journal;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Index of the implicit root node in a recorder's arena.
const ROOT: usize = 0;

/// Mint a process-unique trace id. The pid is folded into the high bits
/// so dumps from different processes (server + CLI client) never collide
/// when viewed together; the low 40 bits are a counter, which keeps
/// `trace_id % sample` head-sampling well distributed.
fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    ((std::process::id() as u64) << 40) | (n & 0xff_ffff_ffff)
}

/// Mint a fresh trace id for a transport layer that needs one before any
/// span opens — e.g. a server session adopting a query that arrived
/// without a wire trace. Never returns 0.
pub fn mint_trace_id() -> u64 {
    next_trace_id()
}

/// Mint a process-unique span id (0 is reserved for "no span").
pub(crate) fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The identity of a request and of one open span within it — the value
/// that crosses thread and process boundaries so remote work re-attaches
/// to the originating request.
///
/// A `TraceCtx` is `Copy` and carries no lifetime: capture it on the
/// submitting thread ([`SpanGuard::ctx`]) or rebuild it from the wire
/// ([`TraceCtx::from_wire`]), move it to the worker, and open the
/// worker's span with [`Recorder::enter_with`]. A trace id of `0` means
/// "untraced": spans still aggregate into the tree but never reach the
/// journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    trace_id: u64,
    span_id: u64,
    /// Aggregate-tree node of the span that created this context; used
    /// as the parent so worker subtrees nest under the submitting span.
    /// Bounds-checked against the arena on use, so a context captured
    /// before a [`Recorder::reset`] degrades to top level instead of
    /// misfiling.
    node: usize,
}

impl TraceCtx {
    /// The request's trace id (0 = untraced).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Rebuild a context from a trace id received over the wire. The
    /// tree position is unknown on this side, so spans opened with it
    /// start at top level, carrying the caller's trace id.
    pub fn from_wire(trace_id: u64) -> TraceCtx {
        TraceCtx {
            trace_id,
            span_id: 0,
            node: ROOT,
        }
    }
}

#[derive(Debug)]
struct Node {
    name: &'static str,
    children: Vec<usize>,
    count: u64,
    total: Duration,
}

/// Per-thread cursor: the innermost open span and its trace identity.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    node: usize,
    trace_id: u64,
    span_id: u64,
}

#[derive(Debug)]
struct Inner {
    nodes: Vec<Node>,
    current: HashMap<ThreadId, Cursor>,
}

impl Inner {
    fn fresh() -> Self {
        Inner {
            nodes: vec![Node {
                name: "",
                children: Vec::new(),
                count: 0,
                total: Duration::ZERO,
            }],
            current: HashMap::new(),
        }
    }

    fn child_named(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&c) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return c;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name,
            children: Vec::new(),
            count: 0,
            total: Duration::ZERO,
        });
        self.nodes[parent].children.push(idx);
        idx
    }
}

/// Thread-safe collector of span timings, aggregated into a tree.
///
/// Cloning a `Recorder` clones a handle to the same tree (the inner
/// state is shared), so a buffer pool, a database, and a test can all
/// write to one scoped recorder without threading lifetimes around.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Mutex<Inner>>,
    journal: Arc<Journal>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh, empty recorder (scoped use: one per database or test)
    /// with a journal configured from `ORPHEUS_TRACE_SAMPLE`.
    pub fn new() -> Self {
        Recorder {
            inner: Arc::new(Mutex::new(Inner::fresh())),
            journal: Arc::new(Journal::from_env()),
        }
    }

    /// A recorder whose journal has an explicit capacity and sampling
    /// rate, independent of the environment (tests, embedders).
    pub fn with_journal(capacity: usize, sample: u64) -> Self {
        Recorder {
            inner: Arc::new(Mutex::new(Inner::fresh())),
            journal: Arc::new(Journal::new(capacity, sample)),
        }
    }

    /// The event journal sampled spans record into.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Lock the tree, recovering from poisoning: guards close during
    /// panic unwinds, and a panicking instrumented thread must not
    /// disable tracing for every other thread (each mutation leaves the
    /// tree consistent, so the poisoned state is safe to reuse).
    fn locked(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Open a span named `name` under the innermost open span of this
    /// thread (or at top level), inheriting that span's trace identity.
    /// Closes — records count and elapsed wall time — when the returned
    /// guard drops, panic included.
    pub fn enter(&self, name: &'static str) -> SpanGuard {
        self.enter_impl(name, None, false)
    }

    /// Open a span that begins a new request: if no traced span is open
    /// on this thread a fresh trace id is minted; an already-open trace
    /// (e.g. the server session span) is inherited instead.
    pub fn enter_request(&self, name: &'static str) -> SpanGuard {
        self.enter_impl(name, None, true)
    }

    /// Open a span as a child of `ctx` — captured on another thread —
    /// instead of this thread's innermost span. This is how the engine
    /// thread and the group-commit leader re-attach their work to the
    /// originating request's trace and tree position.
    pub fn enter_with(&self, name: &'static str, ctx: TraceCtx) -> SpanGuard {
        self.enter_impl(name, Some(ctx), false)
    }

    fn enter_impl(&self, name: &'static str, ctx: Option<TraceCtx>, mint: bool) -> SpanGuard {
        let thread = std::thread::current().id();
        let mut inner = self.locked();
        let (parent_node, mut trace_id, parent_span_id) = match ctx {
            // An explicit context wins; clamp a stale node (captured
            // before a reset) back to the root.
            Some(c) => {
                let node = if c.node < inner.nodes.len() {
                    c.node
                } else {
                    ROOT
                };
                (node, c.trace_id, c.span_id)
            }
            None => match inner.current.get(&thread) {
                Some(cur) => (cur.node, cur.trace_id, cur.span_id),
                None => (ROOT, 0, 0),
            },
        };
        if mint && trace_id == 0 {
            trace_id = next_trace_id();
        }
        let span_id = if trace_id != 0 { next_span_id() } else { 0 };
        let node = inner.child_named(parent_node, name);
        let prev = inner.current.insert(
            thread,
            Cursor {
                node,
                trace_id,
                span_id,
            },
        );
        drop(inner);
        if self.journal.sampled(trace_id) {
            self.journal.begin(trace_id, span_id, parent_span_id, name);
        }
        SpanGuard {
            recorder: self.clone(),
            node,
            prev,
            thread,
            trace_id,
            span_id,
            parent_span_id,
            start: Instant::now(),
        }
    }

    /// Number of threads with an open span cursor. Cursors are removed
    /// when a thread's outermost span closes, so this returns to zero
    /// once all guards have dropped — the regression hook for the old
    /// entry-per-thread-forever leak.
    pub fn open_cursors(&self) -> usize {
        self.locked().current.len()
    }

    /// Discard every recorded span and journaled event (open guards
    /// still close safely: a stale cursor from before the reset falls
    /// back to the root).
    pub fn reset(&self) {
        *self.locked() = Inner::fresh();
        self.journal.clear();
    }

    /// Snapshot the aggregated tree.
    pub fn report(&self) -> SpanReport {
        let inner = self.locked();
        fn build(inner: &Inner, idx: usize) -> SpanStats {
            let n = &inner.nodes[idx];
            let children: Vec<SpanStats> = n.children.iter().map(|&c| build(inner, c)).collect();
            let child_total: Duration = children.iter().map(|c| c.total).sum();
            SpanStats {
                name: n.name.to_owned(),
                count: n.count,
                total: n.total,
                self_time: n.total.saturating_sub(child_total),
                children,
            }
        }
        let roots: Vec<SpanStats> = inner.nodes[ROOT]
            .children
            .iter()
            .map(|&c| build(&inner, c))
            .collect();
        SpanReport { roots }
    }

    fn close(&self, guard: &SpanGuard, elapsed: Duration) {
        let mut inner = self.locked();
        // A reset between enter and close invalidates the indices; the
        // shrunk arena tells us to drop the sample rather than misfile it.
        let journal_name = if guard.node < inner.nodes.len() {
            let node = &mut inner.nodes[guard.node];
            node.count += 1;
            node.total += elapsed;
            self.journal.sampled(guard.trace_id).then_some(node.name)
        } else {
            None
        };
        // Restore the previous cursor — and remove the entry outright
        // when this was the thread's outermost span, so churning threads
        // (server sessions, pool workers) don't grow the map forever.
        match guard.prev {
            Some(prev) if prev.node < inner.nodes.len() => {
                inner.current.insert(guard.thread, prev);
            }
            _ => {
                inner.current.remove(&guard.thread);
            }
        }
        drop(inner);
        if let Some(name) = journal_name {
            self.journal.end(
                guard.trace_id,
                guard.span_id,
                guard.parent_span_id,
                name,
                elapsed,
            );
        }
    }
}

/// RAII guard for an open span; closes it on drop.
#[must_use = "a span guard closes its span when dropped; binding it to _ closes immediately"]
pub struct SpanGuard {
    recorder: Recorder,
    node: usize,
    prev: Option<Cursor>,
    thread: ThreadId,
    trace_id: u64,
    span_id: u64,
    parent_span_id: u64,
    start: Instant,
}

impl SpanGuard {
    /// The trace context of this span, for handing to workers.
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id,
            span_id: self.span_id,
            node: self.node,
        }
    }

    /// The trace id this span belongs to (0 = untraced).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        self.recorder.close(self, elapsed);
    }
}

/// Aggregated statistics of one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    pub name: String,
    /// Times a guard for this path closed.
    pub count: u64,
    /// Total wall-clock time, children included.
    pub total: Duration,
    /// Wall-clock time not attributed to any child span.
    pub self_time: Duration,
    pub children: Vec<SpanStats>,
}

/// Snapshot of a recorder's aggregated span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanReport {
    pub roots: Vec<SpanStats>,
}

impl SpanReport {
    /// Depth-first search for a span path by name.
    pub fn find(&self, name: &str) -> Option<&SpanStats> {
        fn dfs<'a>(nodes: &'a [SpanStats], name: &str) -> Option<&'a SpanStats> {
            for n in nodes {
                if n.name == name {
                    return Some(n);
                }
                if let Some(hit) = dfs(&n.children, name) {
                    return Some(hit);
                }
            }
            None
        }
        dfs(&self.roots, name)
    }

    /// Render as an indented tree with counts and timings.
    pub fn to_text(&self) -> String {
        fn fmt_dur(d: Duration) -> String {
            let us = d.as_micros();
            if us >= 10_000 {
                format!("{:.2}ms", d.as_secs_f64() * 1e3)
            } else {
                format!("{us}us")
            }
        }
        fn render(out: &mut String, n: &SpanStats, depth: usize) {
            out.push_str(&format!(
                "{}{}  count={} total={} self={}\n",
                "  ".repeat(depth),
                n.name,
                n.count,
                fmt_dur(n.total),
                fmt_dur(n.self_time),
            ));
            for c in &n.children {
                render(out, c, depth + 1);
            }
        }
        if self.roots.is_empty() {
            return "(no spans recorded)\n".to_owned();
        }
        let mut out = String::new();
        for r in &self.roots {
            render(&mut out, r, 0);
        }
        out
    }

    /// Render as JSON (an array of span trees).
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        fn node_json(n: &SpanStats) -> Json {
            Json::object(vec![
                ("name", Json::Str(n.name.clone())),
                ("count", Json::Num(n.count as f64)),
                ("total_us", Json::Num(n.total.as_micros() as f64)),
                ("self_us", Json::Num(n.self_time.as_micros() as f64)),
                (
                    "children",
                    Json::Arr(n.children.iter().map(node_json).collect()),
                ),
            ])
        }
        Json::Arr(self.roots.iter().map(node_json).collect())
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "concurrency tests spawn their own threads"
)]
mod tests {
    use super::*;
    use crate::journal::Phase;

    #[test]
    fn spans_nest_into_a_tree_and_aggregate() {
        let rec = Recorder::new();
        for _ in 0..3 {
            let _outer = rec.enter("outer");
            let _inner = rec.enter("inner");
        }
        {
            let _other = rec.enter("other");
        }
        let report = rec.report();
        assert_eq!(report.roots.len(), 2);
        let outer = report.find("outer").unwrap();
        assert_eq!(outer.count, 3);
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].name, "inner");
        assert_eq!(outer.children[0].count, 3);
        assert!(outer.total >= outer.children[0].total);
        assert_eq!(report.find("other").unwrap().count, 1);
        // inner is nested, not a root.
        assert!(report.roots.iter().all(|r| r.name != "inner"));
    }

    #[test]
    fn sibling_spans_share_one_node_per_name() {
        let rec = Recorder::new();
        {
            let _p = rec.enter("parent");
            drop(rec.enter("child"));
            drop(rec.enter("child"));
        }
        let parent = rec.report().find("parent").unwrap().clone();
        assert_eq!(parent.children.len(), 1);
        assert_eq!(parent.children[0].count, 2);
    }

    #[test]
    fn guard_closes_span_during_panic_unwind() {
        let rec = Recorder::new();
        let r2 = rec.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _outer = r2.enter("panicky");
            let _inner = r2.enter("doomed");
            panic!("boom");
        }));
        assert!(result.is_err());
        let report = rec.report();
        // Both guards closed during unwind: counts recorded, cursor reset.
        assert_eq!(report.find("panicky").unwrap().count, 1);
        assert_eq!(report.find("doomed").unwrap().count, 1);
        // A new span after the panic lands at top level, not under the
        // panicked span (the cursor was restored by the unwinding drops).
        drop(rec.enter("after"));
        let report = rec.report();
        assert!(report.roots.iter().any(|r| r.name == "after"));
        assert!(report.find("panicky").unwrap().children.len() == 1);
    }

    #[test]
    fn reset_between_enter_and_close_is_safe() {
        let rec = Recorder::new();
        let guard = rec.enter("stale");
        rec.reset();
        drop(guard); // must not panic or misfile into the fresh arena
        assert!(rec.report().roots.is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let rec = Recorder::new();
        {
            let _outer = rec.enter("o");
            let _inner = rec.enter("i");
            std::thread::sleep(Duration::from_millis(2));
        }
        let o = rec.report().find("o").unwrap().clone();
        assert!(o.total >= Duration::from_millis(2));
        assert!(o.self_time < o.total);
    }

    #[test]
    fn recorders_are_thread_safe() {
        let rec = Recorder::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = rec.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let _g = r.enter("work");
                        let _c = r.enter("step");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = rec.report();
        assert_eq!(report.find("work").unwrap().count, 400);
        assert_eq!(report.find("step").unwrap().count, 400);
    }

    #[test]
    fn text_render_shows_counts() {
        let rec = Recorder::new();
        drop(rec.enter("alpha"));
        let text = rec.report().to_text();
        assert!(text.contains("alpha"), "{text}");
        assert!(text.contains("count=1"), "{text}");
        assert_eq!(Recorder::new().report().to_text(), "(no spans recorded)\n");
    }

    #[test]
    fn cursor_entries_are_removed_when_threads_finish() {
        // Regression: the old cursor map kept one entry per thread
        // forever; with churning session workers that is a leak.
        let rec = Recorder::with_journal(1024, 1);
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let r = rec.clone();
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        let _g = r.enter_request("job");
                        let _c = r.enter("part");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.open_cursors(), 0);
        assert_eq!(rec.report().find("job").unwrap().count, 160);
    }

    #[test]
    fn cursor_is_removed_even_after_a_mid_span_reset() {
        let rec = Recorder::new();
        let outer = rec.enter("outer");
        rec.reset();
        drop(outer);
        assert_eq!(rec.open_cursors(), 0);
    }

    #[test]
    fn enter_request_mints_and_children_inherit() {
        let rec = Recorder::with_journal(1024, 1);
        let (trace, child_trace) = {
            let req = rec.enter_request("request");
            let child = rec.enter("child");
            (req.trace_id(), child.trace_id())
        };
        assert_ne!(trace, 0);
        assert_eq!(trace, child_trace, "plain enter inherits the trace id");
        // A second request gets a different trace id.
        let other = rec.enter_request("request").trace_id();
        assert_ne!(other, trace);
        // Untraced spans stay untraced.
        assert_eq!(rec.enter("loose").trace_id(), 0);
    }

    #[test]
    fn enter_request_inherits_an_open_trace() {
        let rec = Recorder::with_journal(1024, 1);
        let session = rec.enter_request("session");
        let req = rec.enter_request("request");
        assert_eq!(req.trace_id(), session.trace_id());
        drop(req);
        drop(session);
    }

    #[test]
    fn enter_with_reattaches_to_the_captured_context() {
        let rec = Recorder::with_journal(1024, 1);
        let ctx = {
            let req = rec.enter_request("request");
            req.ctx()
        };
        let r2 = rec.clone();
        let worker_trace = std::thread::spawn(move || {
            let g = r2.enter_with("worker", ctx);
            g.trace_id()
        })
        .join()
        .unwrap();
        assert_eq!(worker_trace, ctx.trace_id());
        // The worker subtree nests under the request in the aggregate tree.
        let report = rec.report();
        let req = report.find("request").unwrap();
        assert_eq!(req.children.len(), 1);
        assert_eq!(req.children[0].name, "worker");
        assert!(report.roots.iter().all(|r| r.name != "worker"));
    }

    #[test]
    fn untraced_spans_never_reach_the_journal() {
        let rec = Recorder::with_journal(1024, 1);
        drop(rec.enter("plain"));
        assert!(rec.journal().is_empty());
        assert_eq!(rec.journal().allocs(), 0);
    }

    #[test]
    fn sampled_request_emits_begin_and_end_events() {
        let rec = Recorder::with_journal(1024, 1);
        let trace = {
            let req = rec.enter_request("request");
            drop(rec.enter("step"));
            req.trace_id()
        };
        let events = rec.journal().trace_events(trace);
        assert_eq!(events.len(), 4, "{events:?}");
        assert_eq!(events[0].phase, Phase::Begin);
        assert_eq!(events[0].name, "request");
        // The step's parent span id is the request's span id.
        let req_span = events[0].span_id;
        let step_begin = events
            .iter()
            .find(|e| e.phase == Phase::Begin && e.name == "step")
            .unwrap();
        assert_eq!(step_begin.parent_span_id, req_span);
        // End events carry durations and close in LIFO order.
        assert_eq!(events[3].phase, Phase::End);
        assert_eq!(events[3].name, "request");
    }

    #[test]
    fn disabled_journal_records_nothing_for_requests() {
        let rec = Recorder::with_journal(1024, 0);
        {
            let _req = rec.enter_request("request");
            drop(rec.enter("step"));
        }
        assert_eq!(rec.journal().allocs(), 0);
        assert!(rec.journal().is_empty());
        // The aggregate tree still works.
        assert_eq!(rec.report().find("request").unwrap().count, 1);
    }

    #[test]
    fn journal_durations_reconcile_with_aggregate_totals() {
        // Per-name summed End durations must equal the aggregate tree's
        // totals (within per-event truncation: each End truncates to
        // whole microseconds, the tree keeps full precision).
        let rec = Recorder::with_journal(4096, 1);
        for _ in 0..5 {
            let _req = rec.enter_request("request");
            for _ in 0..3 {
                drop(rec.enter("step"));
            }
        }
        let report = rec.report();
        let events = rec.journal().snapshot();
        for name in ["request", "step"] {
            let agg = report.find(name).unwrap();
            let journal_us: u64 = events
                .iter()
                .filter(|e| e.phase == Phase::End && e.name == name)
                .map(|e| e.dur_us)
                .sum();
            let agg_us = agg.total.as_micros() as u64;
            let events_n = agg.count; // one End per close
            assert!(
                agg_us.saturating_sub(journal_us) <= events_n,
                "{name}: aggregate {agg_us}us vs journal {journal_us}us over {events_n} events"
            );
            assert!(journal_us <= agg_us, "{name}: journal overshoots");
        }
    }

    #[test]
    fn wire_context_carries_the_remote_trace_id() {
        let rec = Recorder::with_journal(1024, 1);
        let ctx = TraceCtx::from_wire(0xbeef);
        let g = rec.enter_with("session", ctx);
        assert_eq!(g.trace_id(), 0xbeef);
        drop(g);
        assert_eq!(rec.journal().trace_events(0xbeef).len(), 2);
    }
}
