//! EXPLAIN ANALYZE: per-operator runtime statistics.
//!
//! An [`Instrumented`] node wraps any executor and records, per operator:
//! rows emitted, `next()` calls, cumulative wall-clock time, and the
//! *measured* buffer-pool traffic ([`pagestore::IoStats`]) that flowed
//! through `ctx.tracker.measured` while the operator (and its subtree)
//! ran. All recorded figures are **inclusive** of children; exclusive
//! ("self") figures are derived at render time, the same way PostgreSQL's
//! `EXPLAIN ANALYZE` presents actual time.
//!
//! Plan builders call [`wrap`] bottom-up: each call boxes the operator
//! inside an instrumented shell and returns an [`ExplainNode`] carrying
//! the operator's label, its *estimated* rows/pages (from the cost
//! model), and a shared handle to the runtime stats. After the plan is
//! drained, [`ExplainNode::snapshot`] freezes the tree into an
//! [`ExplainReport`] that renders estimated-vs-actual as text or JSON.
//!
//! The root node's inclusive `measured` reconciles with the pool's
//! `IoStats` delta for the same query — asserted in tests here and in
//! `orpheus-core` — which is what makes the actual column trustworthy.

use crate::exec::{BoxExec, ExecContext, Executor};
use crate::schema::Schema;
use crate::table::Row;
use obs::Json;
use pagestore::IoStats;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Runtime counters of one instrumented operator (inclusive of children).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpStats {
    /// Rows the operator emitted.
    pub rows: u64,
    /// `next()` calls received (rows + the final `None`).
    pub next_calls: u64,
    /// Wall-clock time spent inside `next()`, children included.
    pub wall: Duration,
    /// Measured buffer-pool traffic while inside `next()`, children
    /// included (delta of `ctx.tracker.measured`).
    pub measured: IoStats,
}

/// Planner-side estimate attached to an operator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Estimate {
    /// Rows the operator is expected to emit.
    pub rows: f64,
    /// Heap pages the operator is expected to read.
    pub pages: f64,
}

impl Estimate {
    pub fn new(rows: f64, pages: f64) -> Self {
        Estimate { rows, pages }
    }
}

/// Executor shell that records [`OpStats`] around every `next()` call.
pub struct Instrumented<'a> {
    child: BoxExec<'a>,
    stats: Rc<RefCell<OpStats>>,
}

impl Executor for Instrumented<'_> {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn next(&mut self, ctx: &mut ExecContext) -> crate::error::Result<Option<Row>> {
        let before = ctx.tracker.measured;
        let start = Instant::now();
        let out = self.child.next(ctx);
        let wall = start.elapsed();
        let delta = ctx.tracker.measured.since(&before);
        let mut s = self.stats.borrow_mut();
        s.next_calls += 1;
        s.wall += wall;
        s.measured.absorb(&delta);
        if let Ok(Some(_)) = &out {
            s.rows += 1;
        }
        out
    }
}

/// One operator in an explain tree: label, estimate, live runtime stats.
#[derive(Debug, Clone)]
pub struct ExplainNode {
    pub label: String,
    pub estimate: Estimate,
    stats: Rc<RefCell<OpStats>>,
    pub children: Vec<ExplainNode>,
}

/// Box `exec` inside an [`Instrumented`] shell and return it together
/// with the [`ExplainNode`] observing it. `children` are the explain
/// nodes of the operator's (already wrapped) inputs.
pub fn wrap<'a>(
    exec: BoxExec<'a>,
    label: impl Into<String>,
    estimate: Estimate,
    children: Vec<ExplainNode>,
) -> (BoxExec<'a>, ExplainNode) {
    let stats = Rc::new(RefCell::new(OpStats::default()));
    let node = ExplainNode {
        label: label.into(),
        estimate,
        stats: Rc::clone(&stats),
        children,
    };
    (Box::new(Instrumented { child: exec, stats }), node)
}

impl ExplainNode {
    /// The operator's runtime stats as recorded so far.
    pub fn stats(&self) -> OpStats {
        *self.stats.borrow()
    }

    /// Freeze the subtree into an immutable snapshot.
    pub fn snapshot(&self) -> ExplainSnapshot {
        let children: Vec<ExplainSnapshot> = self.children.iter().map(|c| c.snapshot()).collect();
        let stats = self.stats();
        let child_wall: Duration = children.iter().map(|c| c.stats.wall).sum();
        ExplainSnapshot {
            label: self.label.clone(),
            estimate: self.estimate,
            stats,
            self_wall: stats.wall.saturating_sub(child_wall),
            children,
        }
    }
}

/// Immutable snapshot of one operator's estimated and actual figures.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainSnapshot {
    pub label: String,
    pub estimate: Estimate,
    /// Inclusive runtime stats.
    pub stats: OpStats,
    /// Wall time not attributed to any child operator.
    pub self_wall: Duration,
    pub children: Vec<ExplainSnapshot>,
}

/// A complete EXPLAIN ANALYZE result: the plan tree plus query totals.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainReport {
    pub root: ExplainSnapshot,
    /// The pool's `IoStats` delta across the whole query — the root
    /// operator's inclusive `measured` must reconcile with this.
    pub pool_delta: IoStats,
    /// End-to-end wall time, plan construction included.
    pub wall: Duration,
}

fn fmt_dur(d: Duration) -> String {
    let us = d.as_micros();
    if us >= 10_000 {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{us}us")
    }
}

impl ExplainReport {
    /// Render the plan tree, one operator per line:
    ///
    /// ```text
    /// HashJoin  (est rows=100 pages=4) (act rows=97 pages=12/3 time=1.30ms self=0.20ms next=98)
    ///   SeqScan t  (est rows=500 pages=10) (act ...)
    /// ```
    ///
    /// `pages=L/P` is measured logical/physical page reads.
    pub fn to_text(&self) -> String {
        fn render(out: &mut String, n: &ExplainSnapshot, depth: usize) {
            let s = &n.stats;
            out.push_str(&format!(
                "{}{}  (est rows={:.0} pages={:.0}) (act rows={} pages={}/{} time={} self={} next={})",
                "  ".repeat(depth),
                n.label,
                n.estimate.rows,
                n.estimate.pages,
                s.rows,
                s.measured.logical_reads,
                s.measured.physical_reads,
                fmt_dur(s.wall),
                fmt_dur(n.self_wall),
                s.next_calls,
            ));
            out.push('\n');
            for c in &n.children {
                render(out, c, depth + 1);
            }
        }
        let mut out = String::new();
        render(&mut out, &self.root, 0);
        out.push_str(&format!(
            "total: rows={} wall={} | pool delta: {}\n",
            self.root.stats.rows,
            fmt_dur(self.wall),
            self.pool_delta,
        ));
        out
    }

    /// JSON form: `{"plan": <node>, "pool_delta": {...}, "wall_us": n}`.
    pub fn to_json(&self) -> Json {
        fn node_json(n: &ExplainSnapshot) -> Json {
            let s = &n.stats;
            Json::object(vec![
                ("label", Json::Str(n.label.clone())),
                ("est_rows", Json::Num(n.estimate.rows)),
                ("est_pages", Json::Num(n.estimate.pages)),
                ("act_rows", Json::Num(s.rows as f64)),
                ("next_calls", Json::Num(s.next_calls as f64)),
                ("logical_reads", Json::Num(s.measured.logical_reads as f64)),
                (
                    "physical_reads",
                    Json::Num(s.measured.physical_reads as f64),
                ),
                ("time_us", Json::Num(s.wall.as_micros() as f64)),
                ("self_us", Json::Num(n.self_wall.as_micros() as f64)),
                (
                    "children",
                    Json::Arr(n.children.iter().map(node_json).collect()),
                ),
            ])
        }
        Json::object(vec![
            ("plan", node_json(&self.root)),
            (
                "pool_delta",
                Json::object(vec![
                    (
                        "logical_reads",
                        Json::Num(self.pool_delta.logical_reads as f64),
                    ),
                    (
                        "physical_reads",
                        Json::Num(self.pool_delta.physical_reads as f64),
                    ),
                    ("evictions", Json::Num(self.pool_delta.evictions as f64)),
                ]),
            ),
            ("wall_us", Json::Num(self.wall.as_micros() as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, Filter, HashJoin, SeqScan, Values};
    use crate::expr::Expr;
    use crate::schema::Column;
    use crate::table::Table;
    use crate::value::{DataType, Value};

    fn table_with_rows(n: i64) -> Table {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int64),
            Column::new("val", DataType::Int64),
        ]);
        let mut t = Table::new("t", schema);
        for i in 0..n {
            t.insert(vec![Value::Int64(i), Value::Int64(i * 10)])
                .unwrap();
        }
        t
    }

    #[test]
    fn instrumented_counts_rows_and_next_calls() {
        let t = table_with_rows(120);
        let mut ctx = ExecContext::new();
        let (mut exec, node) = wrap(
            Box::new(SeqScan::new(&t)),
            "SeqScan t",
            Estimate::new(120.0, 3.0),
            vec![],
        );
        let rows = collect(exec.as_mut(), &mut ctx).unwrap();
        assert_eq!(rows.len(), 120);
        let s = node.stats();
        assert_eq!(s.rows, 120);
        assert_eq!(s.next_calls, 121, "rows plus the final None");
        assert!(s.measured.logical_reads > 0, "scan pulls heap pages");
    }

    #[test]
    fn nested_stats_are_inclusive_and_reconcile_with_pool_delta() {
        let t = table_with_rows(200);
        let pool_before = t.pool().stats();
        let mut ctx = ExecContext::new();
        let (scan, scan_node) = wrap(
            Box::new(SeqScan::new(&t)),
            "SeqScan t",
            Estimate::new(200.0, 4.0),
            vec![],
        );
        let (mut filter, filter_node) = wrap(
            Box::new(Filter::new(
                scan,
                Expr::col(0).lt(Expr::lit(Value::Int64(50))),
            )),
            "Filter id < 50",
            Estimate::new(50.0, 0.0),
            vec![scan_node],
        );
        let start = Instant::now();
        let rows = collect(filter.as_mut(), &mut ctx).unwrap();
        let report = ExplainReport {
            root: filter_node.snapshot(),
            pool_delta: t.pool().stats().since(&pool_before),
            wall: start.elapsed(),
        };
        assert_eq!(rows.len(), 50);
        let root = &report.root;
        assert_eq!(root.stats.rows, 50);
        let scan_snap = &root.children[0];
        assert_eq!(scan_snap.stats.rows, 200);
        // Inclusive: the filter saw every page its scan pulled.
        assert_eq!(
            root.stats.measured.logical_reads,
            scan_snap.stats.measured.logical_reads
        );
        // Reconciliation: root inclusive measured == pool delta.
        assert_eq!(
            root.stats.measured.logical_reads, report.pool_delta.logical_reads,
            "instrumented total must match the pool's own delta"
        );
        assert_eq!(
            root.stats.measured.physical_reads,
            report.pool_delta.physical_reads
        );
        // Parent wall time includes the child's.
        assert!(root.stats.wall >= scan_snap.stats.wall);
        let text = report.to_text();
        assert!(text.contains("Filter id < 50"), "{text}");
        assert!(text.contains("est rows=50"), "{text}");
        assert!(text.contains("act rows=50"), "{text}");
    }

    #[test]
    fn hash_join_plan_renders_and_parses_as_json() {
        let t = table_with_rows(100);
        let mut ctx = ExecContext::new();
        let (build, build_node) = wrap(
            Box::new(Values::ints("id", 0..10)),
            "Values rids",
            Estimate::new(10.0, 0.0),
            vec![],
        );
        let (probe, probe_node) = wrap(
            Box::new(SeqScan::new(&t)),
            "SeqScan t",
            Estimate::new(100.0, 2.0),
            vec![],
        );
        let (mut join, join_node) = wrap(
            Box::new(HashJoin::new(build, probe, 0, 0)),
            "HashJoin id=id",
            Estimate::new(10.0, 2.0),
            vec![build_node, probe_node],
        );
        let start = Instant::now();
        let rows = collect(join.as_mut(), &mut ctx).unwrap();
        assert_eq!(rows.len(), 10);
        let report = ExplainReport {
            root: join_node.snapshot(),
            pool_delta: IoStats::default(),
            wall: start.elapsed(),
        };
        let json = report.to_json().to_string_pretty();
        let doc = obs::parse(&json).unwrap();
        assert_eq!(
            doc.get_path("plan/act_rows").and_then(Json::as_f64),
            Some(10.0)
        );
        let children = doc.get_path("plan/children").unwrap();
        match children {
            Json::Arr(items) => assert_eq!(items.len(), 2),
            other => panic!("children not an array: {other:?}"),
        }
    }
}
