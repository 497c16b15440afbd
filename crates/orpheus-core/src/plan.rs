//! One logical plan, one lowering (§3.3.2).
//!
//! The middleware has exactly one translation of a versioned query: the
//! parsed [`VQuery`] becomes a [`LogicalPlan`] in [`LogicalPlan::of`], and
//! [`lower`] turns that plan into a `relstore` operator tree. `lower` is
//! generic over two small things:
//!
//! * a [`Source`] — where version membership and star rows come from: the
//!   engine's split-by-rlist tables ([`Tables`]) or a pinned
//!   [`Snapshot`](crate::Snapshot);
//! * a [`Decorator`] — what happens to each operator as it is built:
//!   nothing ([`Plain`], what `run` and `diff` execute) or
//!   [`relstore::wrap`] with a label and an [`Estimate`]
//!   ([`Instrumented`], what `explain analyze` executes).
//!
//! `EXPLAIN ANALYZE` therefore reports the tree the engine runs by
//! construction: there is no second builder to drift.

use crate::cvd::{common, only_in, Cvd};
use crate::error::{Error, Result};
use crate::metadata::{data_name, data_schema};
use crate::query::{Predicate, QueryResult, VQuery};
use partition::{Rid, Vid};
use relstore::{
    collect, AggFunc, BoxExec, Column, ColumnTest, DataType, Database, Estimate, ExecContext,
    Executor, ExplainNode, HashJoin, Limit, RidFetch, Row, Schema, Value, WorkerPool,
};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::fmt::Arguments;
use std::rc::Rc;

/// A set of records named by version algebra.
#[derive(Debug, Clone, PartialEq)]
pub enum RidSet {
    /// Records of any listed version.
    Union(Vec<Vid>),
    /// Records of the first version that the second lacks (`v_diff`).
    Diff(Vid, Vid),
    /// Records every listed version holds (`v_intersect`).
    Intersect(Vec<Vid>),
}

impl RidSet {
    /// The set's record ids, ascending — data-table order — given every
    /// version's ascending record list (index = vid).
    pub(crate) fn resolve(&self, versions: &[Vec<Rid>]) -> Result<Vec<Rid>> {
        let rids = |v: &Vid| {
            let list = versions.get(v.idx()).ok_or(Error::VersionNotFound(v.0))?;
            Ok(list.as_slice())
        };
        Ok(match self {
            RidSet::Union(vs) => {
                let mut union = Vec::new();
                for v in vs {
                    union.extend_from_slice(rids(v)?);
                }
                union.sort_unstable();
                union.dedup();
                union
            }
            RidSet::Diff(a, b) => only_in(rids(a)?, rids(b)?),
            RidSet::Intersect(vs) => common(vs.iter().map(rids).collect::<Result<Vec<_>>>()?),
        })
    }
}

/// The relational meaning of a versioned query. `Fetch` yields the star
/// rows `[rid, attrs…]` of a record set that pass its predicate, in
/// data-table order; `Limit` keeps its input's schema; `JoinOn`
/// concatenates its inputs' schemas.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    Fetch(RidSet, Option<Predicate>),
    Limit {
        input: Box<LogicalPlan>,
        n: usize,
    },
    /// Equi-join of two star-row inputs on one attribute.
    JoinOn {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        on: String,
    },
    /// `agg(col)` per version over every (version, record) membership of
    /// the CVD, the predicate applied to the record before aggregating;
    /// `[vid, agg]` rows in ascending vid order, for each version holding
    /// a record that passes.
    AggregateByVid {
        agg: AggFunc,
        col: String,
        predicate: Option<Predicate>,
    },
}

impl LogicalPlan {
    /// The one translation from query shape to plan.
    pub fn of(query: &VQuery) -> LogicalPlan {
        let version = |v: &Vid| Box::new(LogicalPlan::Fetch(RidSet::Union(vec![*v]), None));
        match query {
            VQuery::SelectVersions {
                versions,
                predicate,
                limit,
                ..
            } => {
                let plan = LogicalPlan::Fetch(RidSet::Union(versions.clone()), predicate.clone());
                match *limit {
                    Some(n) => LogicalPlan::Limit {
                        input: Box::new(plan),
                        n,
                    },
                    None => plan,
                }
            }
            VQuery::AggregateByVersion {
                agg,
                agg_col,
                predicate,
                ..
            } => LogicalPlan::AggregateByVid {
                agg: *agg,
                col: agg_col.clone(),
                predicate: predicate.clone(),
            },
            VQuery::Diff { a, b, .. } => LogicalPlan::Fetch(RidSet::Diff(*a, *b), None),
            VQuery::Intersect { versions, .. } => {
                LogicalPlan::Fetch(RidSet::Intersect(versions.clone()), None)
            }
            VQuery::JoinVersions {
                left, right, on, ..
            } => LogicalPlan::JoinOn {
                left: version(left),
                right: version(right),
                on: on.clone(),
            },
        }
    }
}

/// What [`lower`] does with each operator it builds: the operator, the
/// nodes of its inputs, its label, and its estimate as a function of its
/// inputs' explain nodes. A decorator that keeps no explain tree neither
/// formats the label nor calls `estimate`.
pub(crate) trait Decorator {
    /// The per-operator record threaded up the tree.
    type Node;

    fn wrap<'a>(
        &self,
        exec: BoxExec<'a>,
        inputs: Vec<Self::Node>,
        label: Arguments<'_>,
        estimate: impl FnOnce(&[ExplainNode]) -> Estimate,
    ) -> Op<'a, Self>;

    /// Attach a parallel operator's per-worker row counts to its node.
    fn set_worker_rows(node: &mut Self::Node, cell: Rc<RefCell<Vec<u64>>>);
}

/// An operator and its decorator node.
pub(crate) type Op<'a, D> = (BoxExec<'a>, <D as Decorator>::Node);

/// The identity decorator: the executor comes back untouched, so a plain
/// plan pays nothing per `next()`.
pub(crate) struct Plain;

impl Decorator for Plain {
    type Node = ();

    fn wrap<'a>(
        &self,
        exec: BoxExec<'a>,
        _inputs: Vec<()>,
        _label: Arguments<'_>,
        _estimate: impl FnOnce(&[ExplainNode]) -> Estimate,
    ) -> Op<'a, Self> {
        (exec, ())
    }

    fn set_worker_rows(_node: &mut (), _cell: Rc<RefCell<Vec<u64>>>) {}
}

/// Threads every operator through [`relstore::wrap`], so it records
/// actual rows, `next()` calls, wall time and measured page I/O next to
/// the planner's estimate. The estimates use the PostgreSQL-default cost
/// model the rest of the system charges with ([`CostModel`]), so the
/// estimated-vs-actual gap in the rendered tree is the gap the Fig. 5.7
/// experiments measure.
pub(crate) struct Instrumented;

impl Decorator for Instrumented {
    type Node = ExplainNode;

    fn wrap<'a>(
        &self,
        exec: BoxExec<'a>,
        inputs: Vec<ExplainNode>,
        label: Arguments<'_>,
        estimate: impl FnOnce(&[ExplainNode]) -> Estimate,
    ) -> Op<'a, Self> {
        let estimate = estimate(&inputs);
        relstore::wrap(exec, label.to_string(), estimate, inputs)
    }

    fn set_worker_rows(node: &mut ExplainNode, cell: Rc<RefCell<Vec<u64>>>) {
        node.set_worker_rows(cell);
    }
}

/// The `[rid, attrs…]` star schema of `src`, `pred` resolved against it,
/// and the tag of a fetch leaf: the predicate (`… where k > 3`), then
/// `side`.
fn pushed_down<S: Source>(
    src: &S,
    pred: Option<&Predicate>,
    side: &str,
) -> Result<(Schema, Option<ColumnTest>, String)> {
    let star = src.star();
    let resolve = |(col, op, v): &Predicate| ColumnTest::new(star.index_of(col)?, *op, v.clone());
    let test = pred.map(resolve).transpose()?;
    let tag = match &test {
        Some(t) => format!(" where {}{side}", t.describe(&star)),
        None => side.to_owned(),
    };
    Ok((star, test, tag))
}

/// Where a plan's leaves read from.
pub(crate) trait Source {
    /// The `[rid, attrs…]` star schema.
    fn star(&self) -> Schema;
    /// Every version's record ids, ascending; index = vid.
    fn versions(&self) -> &[Vec<Rid>];
    /// Star rows of `rids` (ascending) that pass `test`, in data-table
    /// order; a row that fails is never materialised.
    fn fetch<'a, D: Decorator>(
        &'a self,
        rids: Vec<Rid>,
        test: Option<ColumnTest>,
        side: &str,
        dec: &D,
    ) -> Result<Op<'a, D>>;
}

/// The engine source: a CVD's split-by-rlist tables, optionally read
/// through a morsel worker pool (`None`, or a single-thread pool, reads
/// on the calling thread).
pub struct Tables<'a> {
    pub db: &'a Database,
    pub cvd: &'a Cvd,
    pub pool: Option<WorkerPool>,
}

impl Tables<'_> {
    /// Lower `plan` against these tables and drain it.
    pub fn run(&self, plan: &LogicalPlan, ctx: &mut ExecContext) -> Result<QueryResult> {
        Ok(execute(plan, self, &Plain, ctx)?.0)
    }
}

impl Source for Tables<'_> {
    fn star(&self) -> Schema {
        data_schema(self.cvd)
    }

    fn versions(&self) -> &[Vec<Rid>] {
        self.cvd.version_records_raw()
    }

    /// The split-by-rlist retrieval step, `data ⨝ rids`: one [`RidFetch`]
    /// of the rids as row ids (a record's rid is its row id in the data
    /// table), which reads only the pages holding the wanted records, tests
    /// each on its encoded tuple, and emits the `[rid, attrs…]` star rows
    /// that pass in data-table order at every thread count, so higher
    /// operators (limits, joins, the version aggregate) see one stream. Its
    /// estimate is exact but for the test's selectivity: the directory names
    /// the rows and pages before anything is read.
    fn fetch<'a, D: Decorator>(
        &'a self,
        rids: Vec<Rid>,
        test: Option<ColumnTest>,
        side: &str,
        dec: &D,
    ) -> Result<Op<'a, D>> {
        let data = self.db.table(&data_name(self.cvd.name()))?;
        let rids = rids.iter().map(|r| r.0 as i64);
        let share = test.as_ref().map_or(1.0, ColumnTest::selectivity);
        let fetch = RidFetch::new(data, rids, self.pool.as_ref()).with_test(test);
        let est = Estimate::new(fetch.rows() as f64 * share, fetch.touched_pages() as f64)
            .with_parallelism(fetch.parallelism());
        let worker_rows = fetch.worker_rows();
        let label = format_args!("RidFetch {}{side}", data.name());
        let (fetch, mut node) = dec.wrap(Box::new(fetch), vec![], label, |_| est);
        D::set_worker_rows(&mut node, worker_rows);
        Ok((fetch, node))
    }
}

/// A lowered plan: the operator tree, its decorator node, and the schema
/// results are reported under.
pub(crate) type Lowered<'a, D> = (BoxExec<'a>, <D as Decorator>::Node, Schema);

/// Lower `plan` to an operator tree over `src`, each operator passed
/// through `dec`. The only function that builds operators from plan
/// shapes. `side` tags the leaf labels of a join's inputs
/// (`" (left)"` / `" (right)"`); it is empty at the root. A fetch's
/// label also names its pushed-down predicate (`… where k > 3`).
pub(crate) fn lower<'a, S: Source, D: Decorator>(
    plan: &LogicalPlan,
    src: &'a S,
    dec: &D,
    side: &str,
) -> Result<Lowered<'a, D>> {
    match plan {
        LogicalPlan::Fetch(set, predicate) => {
            let (star, test, tag) = pushed_down(src, predicate.as_ref(), side)?;
            let (exec, node) = src.fetch(set.resolve(src.versions())?, test, &tag, dec)?;
            Ok((exec, node, star))
        }
        LogicalPlan::Limit { input, n } => {
            let (input, node, schema) = lower(input, src, dec, side)?;
            let limit = Box::new(Limit::new(input, *n));
            let (exec, node) = dec.wrap(limit, vec![node], format_args!("Limit {n}"), |c| {
                Estimate::new((*n as f64).min(c[0].estimate.rows), c[0].estimate.pages)
            });
            Ok((exec, node, schema))
        }
        LogicalPlan::JoinOn { left, right, on } => {
            // The join attribute must be Int64 (the engine's join-key type).
            let col = src.star().index_of(on)?;
            let (left, lnode, lschema) = lower(left, src, dec, " (left)")?;
            let (right, rnode, rschema) = lower(right, src, dec, " (right)")?;
            let join = Box::new(HashJoin::new(left, right, col, col));
            let label = format_args!("HashJoin left.{on}=right.{on}");
            let (exec, node) = dec.wrap(join, vec![lnode, rnode], label, |c| {
                let (l, r) = (c[0].estimate, c[1].estimate);
                Estimate::new(l.rows.max(r.rows), l.pages + r.pages)
            });
            Ok((exec, node, lschema.join(&rschema)))
        }
        LogicalPlan::AggregateByVid {
            agg,
            col,
            predicate,
        } => {
            let (star, test, tag) = pushed_down(src, predicate.as_ref(), side)?;
            let column = star.index_of(col)?;
            let versions = src.versions();
            let holders = holders(versions);
            let rids = holders
                .iter()
                .enumerate()
                .filter(|(_, vids)| !vids.is_empty())
                .map(|(r, _)| Rid(r as u64))
                .collect();
            let (input, node) = src.fetch(rids, test, &tag, dec)?;
            let Column { name, dtype, .. } = star.columns()[column].clone();
            let dtype = match agg {
                AggFunc::Count => DataType::Int64,
                AggFunc::Avg => DataType::Float64,
                _ => dtype,
            };
            let schema = Schema::new(vec![
                Column::new("vid", DataType::Int64),
                Column::nullable(format!("{}_{name}", agg_name(*agg)), dtype),
            ]);
            let aggregate = VersionAggregate {
                input,
                holders,
                versions: versions.len(),
                agg: *agg,
                column,
                name,
                schema: schema.clone(),
                out: None,
            };
            let label = format_args!("VersionAggregate {}({col}) by vid", agg_name(*agg));
            let (exec, node) = dec.wrap(Box::new(aggregate), vec![node], label, |c| {
                Estimate::new(versions.len() as f64, c[0].estimate.pages)
            });
            Ok((exec, node, schema))
        }
    }
}

/// Every version's records inverted: for each rid (the index), the
/// versions holding it, ascending. One walk over the memberships.
fn holders(versions: &[Vec<Rid>]) -> Vec<Vec<Vid>> {
    let records = versions.iter().filter_map(|rids| rids.last());
    let mut holders = vec![Vec::new(); records.map(|r| r.idx() + 1).max().unwrap_or(0)];
    for (v, rids) in versions.iter().enumerate() {
        for r in rids {
            holders[r.idx()].push(Vid(v as u32));
        }
    }
    holders
}

fn agg_name(agg: AggFunc) -> &'static str {
    match agg {
        AggFunc::Count => "count",
        AggFunc::Sum => "sum",
        AggFunc::Avg => "avg",
        AggFunc::Min => "min",
        AggFunc::Max => "max",
    }
}

/// `GROUP BY vid` over one fetch of every record some version holds:
/// each star row fetched updates the accumulator of every version that
/// holds its rid, so a record is tested and decoded once however many
/// versions share it. A version folds its rows in the fetch's
/// data-table order. Emits `[vid, agg]` in ascending vid order, for each
/// version that received a row.
struct VersionAggregate<'a> {
    input: BoxExec<'a>,
    /// The versions holding each rid (index = rid).
    holders: Vec<Vec<Vid>>,
    versions: usize,
    agg: AggFunc,
    /// The aggregated star column, and its name.
    column: usize,
    name: String,
    schema: Schema,
    out: Option<std::vec::IntoIter<Row>>,
}

impl VersionAggregate<'_> {
    /// Drain the fetch into one accumulator per version, then finish them.
    fn fold(&mut self, ctx: &mut ExecContext) -> relstore::Result<Vec<Row>> {
        let mut accs: Vec<Option<Acc>> = vec![None; self.versions];
        while let Some(row) = self.input.next(ctx)? {
            let rid = row[0].as_i64().and_then(|r| usize::try_from(r).ok());
            let Some(vids) = rid.and_then(|r| self.holders.get(r)) else {
                let msg = format!("fetched row {} is no version's record", row[0]);
                return Err(relstore::Error::InvalidOperation(msg));
            };
            ctx.tracker.ops(vids.len() as u64);
            for v in vids {
                let acc = accs[v.idx()].get_or_insert_with(Acc::default);
                acc.add(self.agg, &row[self.column]);
            }
        }
        let mut rows = Vec::new();
        for (v, acc) in accs.into_iter().enumerate() {
            if let Some(acc) = acc {
                let value = acc.finish(self.agg, &self.name)?;
                rows.push(vec![Value::Int64(v as i64), value]);
            }
        }
        ctx.tracker.emit(rows.len() as u64);
        Ok(rows)
    }
}

impl Executor for VersionAggregate<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self, ctx: &mut ExecContext) -> relstore::Result<Option<Row>> {
        if self.out.is_none() {
            self.out = Some(self.fold(ctx)?.into_iter());
        }
        Ok(self.out.as_mut().and_then(Iterator::next))
    }
}

/// One version's running aggregate. Int64 values add exactly in `i128`,
/// Float64 values in `f64` in the order they arrive; NULL is skipped.
#[derive(Debug, Clone, Default)]
struct Acc {
    count: u64,
    int: i128,
    float: Option<f64>,
    /// The least (`min`) or greatest (`max`) value so far.
    best: Option<Value>,
}

impl Acc {
    fn add(&mut self, agg: AggFunc, v: &Value) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        let beats = |want: Ordering| self.best.as_ref().is_none_or(|b| v.total_cmp(b) == want);
        match (agg, v) {
            (AggFunc::Sum | AggFunc::Avg, Value::Int64(x)) => self.int += i128::from(*x),
            (AggFunc::Sum | AggFunc::Avg, Value::Float64(x)) => {
                *self.float.get_or_insert(0.0) += x;
            }
            (AggFunc::Min, _) if beats(Ordering::Less) => self.best = Some(v.clone()),
            (AggFunc::Max, _) if beats(Ordering::Greater) => self.best = Some(v.clone()),
            _ => {}
        }
    }

    /// The aggregate's value. A `sum` of Int64 `column` outside Int64 is
    /// an error, as in PostgreSQL; `avg` divides the exact total.
    fn finish(self, agg: AggFunc, column: &str) -> relstore::Result<Value> {
        Ok(match agg {
            AggFunc::Count => Value::Int64(self.count as i64),
            _ if self.count == 0 => Value::Null,
            AggFunc::Sum => match self.float {
                Some(x) => Value::Float64(x),
                None => Value::Int64(i64::try_from(self.int).map_err(|_| {
                    relstore::Error::TypeError(format!("bigint out of range: sum({column})"))
                })?),
            },
            AggFunc::Avg => {
                Value::Float64(self.float.unwrap_or(self.int as f64) / self.count as f64)
            }
            AggFunc::Min | AggFunc::Max => self.best.unwrap_or(Value::Null),
        })
    }
}

/// Lower `plan` over `src` with `dec` and drain it. The node comes back
/// so an instrumenting caller can snapshot it afterwards.
pub(crate) fn execute<S: Source, D: Decorator>(
    plan: &LogicalPlan,
    src: &S,
    dec: &D,
    ctx: &mut ExecContext,
) -> Result<(QueryResult, D::Node)> {
    let (mut exec, node, schema) = lower(plan, src, dec, "")?;
    let rows = collect(exec.as_mut(), ctx)?;
    Ok((QueryResult { schema, rows }, node))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::commands::{CommandOutput, OrpheusDb};
    use crate::query::parse_query;
    use relstore::{BinOp, Column, DataType, Row, Value, Values};

    /// Three CVDs. `T`: three columns (int key, text, int), four versions —
    /// v1 and v2 branch from v0 with one new row each, v3 merges them.
    /// `E`: schema-evolved — v1 adds a `bonus` column, so v0's records are
    /// narrower than the union schema and read back NULL-padded.
    /// `S`: a sparse history — 40 versions fork from a one-page root, each
    /// adding a page of records of its own, so any one version lives on a
    /// small share of a multi-page data table.
    /// `F`: a Float64 column whose sums depend on the order they are taken
    /// in (`1e16 + 1.0` is `1e16`); three versions fork from the root.
    pub(crate) fn corpus_db() -> OrpheusDb {
        let mut odb = OrpheusDb::new();
        load_corpus(&mut odb);
        odb
    }

    /// Load the corpus CVDs into `odb`.
    pub(crate) fn load_corpus(odb: &mut OrpheusDb) {
        odb.create_user("alice").unwrap();
        odb.login("alice").unwrap();
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int64),
            Column::new("name", DataType::Text),
            Column::new("score", DataType::Int64),
        ]);
        let rows: Vec<Row> = (0..20)
            .map(|i| {
                vec![
                    Value::Int64(i),
                    Value::Text(format!("r{i}")),
                    Value::Int64(i * 7 % 13),
                ]
            })
            .collect();
        odb.init_cvd("T", schema, vec!["k".into()], rows).unwrap();
        odb.execute("checkout T -v 0 -t w1").unwrap();
        odb.execute("insert w1 100,extra,42").unwrap();
        odb.execute("commit -t w1 -m v1").unwrap();
        odb.execute("checkout T -v 0 -t w2").unwrap();
        odb.execute("insert w2 200,other,7").unwrap();
        odb.execute("commit -t w2 -m v2").unwrap();
        odb.execute("checkout T -v 1 2 -t w3").unwrap();
        odb.execute("commit -t w3 -m merge").unwrap();

        let schema = Schema::new(vec![
            Column::new("k", DataType::Int64),
            Column::new("score", DataType::Int64),
        ]);
        let rows: Vec<Row> = (0..6)
            .map(|i| vec![Value::Int64(i), Value::Int64(i * 10)])
            .collect();
        odb.init_cvd("E", schema, vec!["k".into()], rows).unwrap();
        let csv = odb.checkout_csv("E", &[Vid(0)], "e.csv").unwrap();
        let widened: String = csv
            .lines()
            .enumerate()
            .map(|(i, line)| match i {
                0 => format!("{line},bonus\n"),
                // Rewrite half the records; the rest stay v0's narrow ones.
                _ if i % 2 == 0 => format!("{line}1,{i}\n"),
                _ => format!("{line},\n"),
            })
            .collect();
        odb.commit_csv("e.csv", &widened, "k:int,score:int,bonus:int", "widen")
            .unwrap();

        let schema = Schema::new(vec![
            Column::new("k", DataType::Int64),
            Column::new("pad", DataType::Text),
        ]);
        let wide = |k: i64| format!("{k}-{}", "s".repeat(300));
        let rows: Vec<Row> = (0..25)
            .map(|k| vec![Value::Int64(k), Value::Text(wide(k))])
            .collect();
        odb.init_cvd("S", schema, vec!["k".into()], rows).unwrap();
        for child in 1..=40i64 {
            let file = format!("s{child}.csv");
            let mut csv = odb.checkout_csv("S", &[Vid(0)], &file).unwrap();
            for k in (child * 1000..).take(25) {
                csv.push_str(&format!("{k},{}\n", wide(k)));
            }
            odb.commit_csv(&file, &csv, "k:int,pad:text", "fork")
                .unwrap();
        }

        let schema = Schema::new(vec![
            Column::new("k", DataType::Int64),
            Column::new("x", DataType::Float64),
        ]);
        let xs = [0.1, 0.2, 0.3, 1e16, 1.0, -1e16, 0.7];
        let rows: Vec<Row> = (0..)
            .zip(xs)
            .map(|(k, x)| vec![Value::Int64(k), Value::Float64(x)])
            .collect();
        odb.init_cvd("F", schema, vec!["k".into()], rows).unwrap();
        for (child, x) in [(1, "0.1"), (2, "1.0"), (3, "-0.3")] {
            odb.execute(&format!("checkout F -v 0 -t f{child}"))
                .unwrap();
            odb.execute(&format!("insert f{child} {},{x}", 100 + child))
                .unwrap();
            odb.execute(&format!("commit -t f{child} -m fork")).unwrap();
        }
    }

    /// Every query form the parser accepts, over both corpus CVDs.
    pub(crate) const QUERY_CORPUS: &[&str] = &[
        // SELECT: one version, several, text and numeric predicates, LIMIT.
        "SELECT * FROM VERSION 0 OF CVD T",
        "SELECT * FROM VERSION 1, 2 OF CVD T",
        "SELECT * FROM VERSION 3 OF CVD T WHERE score > 5",
        "SELECT * FROM VERSION 0, 3 OF CVD T WHERE name = 'r3'",
        "SELECT * FROM VERSION 1, 2, 3 OF CVD T LIMIT 7",
        "SELECT * FROM VERSION 0, 1 OF CVD T WHERE score > 4 LIMIT 2",
        "SELECT * FROM VERSION 2 OF CVD T WHERE name != 'other' LIMIT 30",
        // Pushed-down predicates: every operator on an int column…
        "SELECT * FROM VERSION 3 OF CVD T WHERE score = 7",
        "SELECT * FROM VERSION 3 OF CVD T WHERE score <> 7",
        "SELECT * FROM VERSION 3 OF CVD T WHERE score <= 3",
        "SELECT * FROM VERSION 3 OF CVD T WHERE k < 4",
        "SELECT * FROM VERSION 1, 2 OF CVD T WHERE k >= 19 LIMIT 2",
        "SELECT * FROM VERSION 3 OF CVD T WHERE score <> 0 LIMIT 3",
        // …on a text column…
        "SELECT * FROM VERSION 3 OF CVD T WHERE name > 'r5'",
        "SELECT * FROM VERSION 0 OF CVD T WHERE name <= 'r12'",
        "SELECT * FROM VERSION 3 OF CVD T WHERE name <> 'r3' LIMIT 4",
        "SELECT * FROM VERSION 1 OF CVD T WHERE name = 'extra' LIMIT 1",
        // …an Int64 column against a float literal…
        "SELECT * FROM VERSION 3 OF CVD T WHERE score > 4.5",
        "SELECT * FROM VERSION 3 OF CVD T WHERE score = 7.0 LIMIT 1",
        "SELECT * FROM VERSION 0 OF CVD T WHERE score < 6.5",
        // …and `rid`, the column every reply carries.
        "SELECT * FROM VERSION 3 OF CVD T WHERE rid = 1",
        "SELECT * FROM VERSION 3 OF CVD T WHERE rid > 18 LIMIT 2",
        "SELECT * FROM VERSION 40 OF CVD S WHERE rid >= 1010",
        "SELECT vid, count(*) FROM CVD T WHERE rid <> 0 GROUP BY vid",
        // GROUP BY vid: all five aggregates, with and without WHERE.
        "SELECT vid, count(*) FROM CVD T GROUP BY vid",
        "SELECT vid, sum(score) FROM CVD T GROUP BY vid",
        "SELECT vid, avg(score) FROM CVD T GROUP BY vid",
        "SELECT vid, min(k) FROM CVD T GROUP BY vid",
        "SELECT vid, max(score) FROM CVD T WHERE k > 4 GROUP BY vid",
        "SELECT vid, sum(score) FROM CVD T WHERE score > 4 GROUP BY vid",
        "SELECT vid, count(k) FROM CVD T WHERE name = 'extra' GROUP BY vid",
        // …a root shared by 41 versions, a WHERE most versions fail…
        "SELECT vid, count(*) FROM CVD S GROUP BY vid",
        "SELECT vid, max(k) FROM CVD S WHERE k > 17000 GROUP BY vid",
        // …and Float64 sums whose bits depend on row order.
        "SELECT vid, sum(x) FROM CVD F GROUP BY vid",
        "SELECT vid, avg(x) FROM CVD F GROUP BY vid",
        "SELECT vid, sum(x) FROM CVD F WHERE k < 3 GROUP BY vid",
        // V_DIFF both ways, V_INTERSECT binary and n-ary.
        "SELECT * FROM V_DIFF(1, 2) OF CVD T",
        "SELECT * FROM V_DIFF(2, 1) OF CVD T",
        "SELECT * FROM V_DIFF(3, 0) OF CVD T",
        // (empty: the merge v3 holds everything v0 does)
        "SELECT * FROM V_DIFF(0, 3) OF CVD T",
        "SELECT * FROM V_INTERSECT(1, 2) OF CVD T",
        "SELECT * FROM V_INTERSECT(0, 1, 2, 3) OF CVD T",
        // JOIN on int columns: a key and a many-to-many attribute.
        "SELECT * FROM VERSION 1 OF CVD T JOIN VERSION 2 ON k",
        "SELECT * FROM VERSION 0 OF CVD T JOIN VERSION 3 ON score",
        "SELECT * FROM VERSION 1 OF CVD T JOIN VERSION 3 ON rid",
        // Schema-evolved CVD: v0's records are padded to the union schema.
        "SELECT * FROM VERSION 0 OF CVD E",
        "SELECT * FROM VERSION 0, 1 OF CVD E WHERE score > 10 LIMIT 5",
        "SELECT * FROM VERSION 1 OF CVD E WHERE bonus > 2",
        // A NULL-padded column: NULL passes no comparison, not even `<>`.
        "SELECT * FROM VERSION 0, 1 OF CVD E WHERE bonus <> 4",
        "SELECT * FROM VERSION 0, 1 OF CVD E WHERE bonus >= 4",
        "SELECT * FROM VERSION 0 OF CVD E WHERE bonus = 2",
        "SELECT * FROM VERSION 1 OF CVD E WHERE bonus < 7 LIMIT 2",
        "SELECT * FROM VERSION 0, 1 OF CVD E WHERE score != 10.0 LIMIT 5",
        "SELECT vid, count(bonus) FROM CVD E GROUP BY vid",
        "SELECT vid, max(bonus) FROM CVD E WHERE score > 0 GROUP BY vid",
        "SELECT * FROM V_DIFF(1, 0) OF CVD E",
        "SELECT * FROM V_INTERSECT(0, 1) OF CVD E",
        "SELECT * FROM VERSION 0 OF CVD E JOIN VERSION 1 ON k",
        // Sparse history: a leaf, two leaves filtered, a leaf minus the root.
        "SELECT * FROM VERSION 40 OF CVD S",
        "SELECT * FROM VERSION 17, 40 OF CVD S WHERE k > 17010 LIMIT 30",
        "SELECT * FROM V_DIFF(23, 0) OF CVD S",
    ];

    fn message(out: CommandOutput) -> String {
        match out {
            CommandOutput::Message(m) => m,
            other => panic!("expected message, got {other:?}"),
        }
    }

    /// The differential oracle over the corpus: the engine at one and at
    /// four threads, a pinned snapshot,
    /// and the instrumented plan (root `act rows`, root measured reads ==
    /// pool delta, text and JSON renderings) agree on every query.
    #[test]
    fn corpus_agrees_across_threads_snapshot_and_explain() {
        let answers: Vec<QueryResult> = corpus_agrees();
        // The pushed-down predicates select something and not everything.
        let selected = |sql: &str| {
            answers[QUERY_CORPUS.iter().position(|q| *q == sql).unwrap()]
                .rows
                .len()
        };
        assert_eq!(
            selected("SELECT * FROM VERSION 3 OF CVD T WHERE rid = 1"),
            1
        );
        assert_eq!(
            selected("SELECT * FROM VERSION 0, 1 OF CVD E WHERE bonus <> 4"),
            2
        );
        assert_eq!(
            selected("SELECT * FROM VERSION 3 OF CVD T WHERE score = 7.0 LIMIT 1"),
            1
        );
    }

    fn corpus_agrees() -> Vec<QueryResult> {
        let mut odb = corpus_db();
        // The padded-row case is really in the corpus: v0 of `E` predates
        // `bonus`, so its rows are widened with a trailing NULL.
        let narrow = odb.run("SELECT * FROM VERSION 0 OF CVD E").unwrap();
        assert_eq!(narrow.rows.len(), 6);
        assert!(narrow
            .rows
            .iter()
            .all(|r| r[..] == [r[0].clone(), r[1].clone(), r[2].clone(), Value::Null]));
        let mut results = Vec::new();
        for sql in QUERY_CORPUS {
            let query = parse_query(sql).unwrap();
            odb.set_threads(1);
            let base = odb.run(sql).unwrap();
            results.push(base.clone());
            let pinned = odb.snapshot(query.cvd()).unwrap().run(sql).unwrap();
            assert_eq!(pinned.schema, base.schema, "snapshot schema: {sql}");
            assert_eq!(pinned.rows, base.rows, "snapshot rows: {sql}");
            for threads in [1, 4] {
                odb.set_threads(threads);
                assert_eq!(odb.run(sql).unwrap(), base, "{threads} threads: {sql}");
                // The instrumented lowering yields the same result…
                let tables = odb.tables(query.cvd()).unwrap();
                let mut ctx = ExecContext::new();
                let (explained, _) =
                    execute(&LogicalPlan::of(&query), &tables, &Instrumented, &mut ctx).unwrap();
                assert_eq!(explained, base, "instrumented, {threads} threads: {sql}");
                // …and its report reconciles with the buffer pool.
                let report = odb.explain_analyze(sql).unwrap();
                let root = &report.root.stats;
                assert_eq!(root.rows, base.rows.len() as u64, "{sql}");
                assert_eq!(
                    root.measured.logical_reads, report.pool_delta.logical_reads,
                    "{sql}"
                );
                assert_eq!(
                    root.measured.physical_reads, report.pool_delta.physical_reads,
                    "{sql}"
                );
                // The shell command renders the same report, as text…
                let text = message(odb.execute(&format!("explain analyze {sql}")).unwrap());
                assert!(text.contains("act rows="), "{text}");
                // …and as JSON carrying the plan tree.
                let json = message(
                    odb.execute(&format!("explain analyze --json {sql}"))
                        .unwrap(),
                );
                let doc = obs::parse(&json).unwrap();
                assert_eq!(
                    doc.get_path("plan/act_rows").and_then(|v| v.as_f64()),
                    Some(base.rows.len() as f64),
                    "{json}"
                );
                assert!(doc.get_path("pool_delta/logical_reads").is_some(), "{json}");
                // A fetch decodes the rows it emits and no others.
                if let VQuery::SelectVersions { limit: None, .. } = query {
                    let decoded = report.pool_delta.tuples_decoded;
                    assert_eq!(decoded, base.rows.len() as u64, "{threads} threads: {sql}");
                }
            }
        }
        results
    }

    /// A selective WHERE costs the rows it returns: the filtered fetch
    /// decodes exactly those, its label names the predicate, its estimate
    /// applies the selectivity, and `explain analyze` still reconciles
    /// with the pool — on the pages, the I/O of the unfiltered fetch.
    #[test]
    fn a_filtered_select_decodes_only_the_rows_it_returns() {
        let mut odb = corpus_db();
        for threads in [1, 4] {
            odb.set_threads(threads);
            let all = odb
                .explain_analyze("SELECT * FROM VERSION 40 OF CVD S")
                .unwrap();
            let sql = "SELECT * FROM VERSION 40 OF CVD S WHERE k > 40020";
            let before = odb.database().io_stats();
            let rows = odb.run(sql).unwrap().rows;
            assert_eq!(rows.len(), 4, "{threads} threads");
            let decoded = odb.database().io_stats().since(&before).tuples_decoded;
            assert_eq!(decoded, 4, "{threads} threads");
            let report = odb.explain_analyze(sql).unwrap();
            let fetch = &report.root;
            assert_eq!(fetch.label, "RidFetch S__sbr_data where k > 40020");
            assert!(fetch.children.is_empty());
            assert_eq!(fetch.stats.rows, 4);
            assert_eq!(fetch.estimate.rows, 50.0 * (1.0 / 3.0));
            assert_eq!(report.pool_delta.tuples_decoded, 4);
            let reads = fetch.stats.measured.logical_reads;
            assert_eq!(reads, report.pool_delta.logical_reads);
            assert_eq!(reads, all.pool_delta.logical_reads);
        }
    }

    /// `WHERE rid …` resolves against the star schema every reply carries:
    /// it used to fail with "column not found: rid", engine and pinned.
    #[test]
    fn rid_predicates_run_on_the_engine_and_pinned() {
        let mut odb = corpus_db();
        let snap = odb.snapshot("T").unwrap();
        for threads in [1, 4] {
            odb.set_threads(threads);
            for (sql, want) in [
                ("SELECT * FROM VERSION 3 OF CVD T WHERE rid = 20", vec![20]),
                (
                    "SELECT * FROM VERSION 1, 2 OF CVD T WHERE rid > 19",
                    vec![20, 21],
                ),
                (
                    "SELECT * FROM VERSION 3 OF CVD T WHERE rid <= 1 LIMIT 1",
                    vec![0],
                ),
            ] {
                for result in [odb.run(sql).unwrap(), snap.run(sql).unwrap()] {
                    let rids: Vec<Value> = result.rows.iter().map(|r| r[0].clone()).collect();
                    assert_eq!(
                        rids,
                        want.iter().map(|&r| Value::Int64(r)).collect::<Vec<_>>(),
                        "{sql}"
                    );
                }
            }
            let sql = "SELECT vid, count(*) FROM CVD T WHERE rid >= 20 GROUP BY vid";
            let counts = odb.run(sql).unwrap().rows;
            assert_eq!(counts, snap.run(sql).unwrap().rows);
            // v0 holds no such record, so it has no group.
            let per_version: Vec<Value> = counts.iter().map(|r| r[1].clone()).collect();
            assert_eq!(per_version, [1, 1, 2].map(Value::Int64));
        }
    }

    /// A version of a sparse history is read through the pages that hold
    /// it, not through the table: the leaf select's one `RidFetch` node
    /// reads exactly the pages its estimate names — a small share of the
    /// heap — at either thread count.
    #[test]
    fn sparse_history_select_reads_only_the_pages_holding_the_version() {
        let mut odb = corpus_db();
        let heap_pages = {
            let tables = odb.tables("S").unwrap();
            let data = tables.db.table(&data_name(tables.cvd.name())).unwrap();
            data.num_heap_pages() as u64
        };
        assert!(heap_pages >= 40, "{heap_pages}");
        for threads in [1, 4] {
            odb.set_threads(threads);
            let report = odb
                .explain_analyze("SELECT * FROM VERSION 40 OF CVD S")
                .unwrap();
            let fetch = &report.root;
            assert_eq!(fetch.label, "RidFetch S__sbr_data");
            assert!(fetch.children.is_empty());
            assert_eq!(fetch.stats.rows, 50);
            assert_eq!(fetch.estimate.rows, 50.0);
            let reads = fetch.stats.measured.logical_reads;
            assert_eq!(fetch.estimate.pages as u64, reads, "{threads} threads");
            assert_eq!(report.pool_delta.logical_reads, reads);
            assert!(
                reads >= 2 && reads * 4 < heap_pages,
                "{reads} of {heap_pages}"
            );
        }
    }

    /// The reference leg: every GROUP BY of the corpus, folded here from
    /// each version's own `SELECT *` rows (Int64 sums in `i128`, Float64
    /// sums in row order), is the version aggregate's answer, schema
    /// included, on the engine and pinned, at 1 and 4 threads.
    #[test]
    fn group_by_vid_is_each_versions_select_folded() {
        let mut odb = corpus_db();
        let mut groups = 0;
        for sql in QUERY_CORPUS {
            let query = parse_query(sql).unwrap();
            let VQuery::AggregateByVersion { agg, agg_col, .. } = &query else {
                continue;
            };
            let want = folded(&odb, sql, query.cvd(), *agg, agg_col);
            groups += want.rows.len();
            let pinned = odb.snapshot(query.cvd()).unwrap();
            assert_eq!(pinned.run(sql).unwrap(), want, "pinned: {sql}");
            for threads in [1, 4] {
                odb.set_threads(threads);
                let got = odb.run(sql).unwrap();
                assert_eq!(got, want, "{threads} threads: {sql}");
            }
        }
        assert_eq!(groups, 111);
    }

    /// `sql`, a `GROUP BY vid` over `cvd`, answered by folding `agg(col)`
    /// over each version's `SELECT * … [WHERE …]`.
    fn folded(odb: &OrpheusDb, sql: &str, cvd: &str, agg: AggFunc, col: &str) -> QueryResult {
        let filter = match sql.split_once(" WHERE ") {
            Some((_, test)) => format!(" WHERE {}", test.trim_end_matches(" GROUP BY vid")),
            None => String::new(),
        };
        let star = data_schema(odb.cvd(cvd).unwrap());
        let column = star.column(star.index_of(col).unwrap()).unwrap().dtype;
        let dtype = match agg {
            AggFunc::Count => DataType::Int64,
            AggFunc::Avg => DataType::Float64,
            _ => column,
        };
        let schema = Schema::new(vec![
            Column::new("vid", DataType::Int64),
            Column::nullable(format!("{}_{col}", agg_name(agg)), dtype),
        ]);
        let mut rows = Vec::new();
        for v in 0..odb.cvd(cvd).unwrap().num_versions() {
            let select = format!("SELECT * FROM VERSION {v} OF CVD {cvd}{filter}");
            let version = odb.run(&select).unwrap();
            if version.rows.is_empty() {
                continue;
            }
            let c = version.schema.index_of(col).unwrap();
            let values: Vec<&Value> = version
                .rows
                .iter()
                .map(|r| &r[c])
                .filter(|v| !v.is_null())
                .collect();
            let n = values.len();
            let ints = || {
                values
                    .iter()
                    .map(|v| i128::from(v.as_i64().unwrap()))
                    .sum::<i128>()
            };
            let floats = || values.iter().fold(0.0, |sum, v| sum + v.as_f64().unwrap());
            let float = column == DataType::Float64;
            let by = |a: &&Value, b: &&Value| a.total_cmp(b);
            let value = match agg {
                AggFunc::Count => Value::Int64(n as i64),
                _ if n == 0 => Value::Null,
                AggFunc::Sum if float => Value::Float64(floats()),
                AggFunc::Sum => Value::Int64(i64::try_from(ints()).unwrap()),
                AggFunc::Avg if float => Value::Float64(floats() / n as f64),
                AggFunc::Avg => Value::Float64(ints() as f64 / n as f64),
                AggFunc::Min => values.iter().copied().min_by(by).cloned().unwrap(),
                AggFunc::Max => values.iter().copied().max_by(by).cloned().unwrap(),
            };
            rows.push(vec![Value::Int64(v as i64), value]);
        }
        QueryResult { schema, rows }
    }

    /// GROUP BY vid costs its records, not its memberships: one aggregate
    /// over one fetch leaf, which decodes each record that passes once
    /// however many of the 41 versions hold it, and reconciles with the
    /// pool. The aggregate charges an op per version a fetched row
    /// reaches and a tuple per group.
    #[test]
    fn group_by_vid_decodes_each_passing_record_once() {
        let shapes = [
            (
                "SELECT vid, count(*) FROM CVD S GROUP BY vid",
                "VersionAggregate count(rid) by vid",
                "RidFetch S__sbr_data",
                1025,
            ),
            (
                "SELECT vid, max(k) FROM CVD S WHERE k > 17000 GROUP BY vid",
                "VersionAggregate max(k) by vid",
                "RidFetch S__sbr_data where k > 17000",
                24 + 23 * 25,
            ),
        ];
        let mut odb = corpus_db();
        for threads in [1, 4] {
            odb.set_threads(threads);
            for (sql, root_label, leaf, decoded) in shapes {
                let report = odb.explain_analyze(sql).unwrap();
                let root = &report.root;
                assert_eq!(root.label, root_label);
                assert_eq!(root.estimate.rows, 41.0);
                let [fetch] = &root.children[..] else {
                    panic!("{sql}: {:?}", root.children.len())
                };
                assert_eq!(fetch.label, leaf);
                assert!(fetch.children.is_empty());
                assert_eq!(report.pool_delta.tuples_decoded, decoded, "{sql}");
                assert_eq!(fetch.stats.rows, decoded, "{sql}");
                let reads = root.stats.measured.logical_reads;
                assert_eq!(reads, report.pool_delta.logical_reads, "{sql}");
            }
        }
        let snap = corpus_db().snapshot("S").unwrap();
        let plan = LogicalPlan::of(&parse_query(shapes[0].0).unwrap());
        let mut pinned = String::new();
        label_tree(
            &lower(&plan, &snap, &Instrumented, "").unwrap().1,
            0,
            &mut pinned,
        );
        assert_eq!(
            pinned,
            "VersionAggregate count(rid) by vid\n\x20 Values star rows\n"
        );
        let (mut root, (), _) = lower(&plan, &snap, &Plain, "").unwrap();
        let mut ctx = ExecContext::new();
        assert_eq!(collect(root.as_mut(), &mut ctx).unwrap().len(), 41);
        // 25 root records in 41 versions, 40 × 25 in one each.
        assert_eq!(ctx.tracker.operator_evals, 25 * 41 + 40 * 25);
        // The leaf's rows and the aggregate's groups.
        assert_eq!(ctx.tracker.tuples, 1025 + 41);
    }

    /// Int64 sums are exact: two `i64::MAX` rows used to answer
    /// `sum = -2` and `avg = -1.0`. A sum outside Int64 is an error naming
    /// the column, engine and pinned alike; `avg` divides the exact total,
    /// and a sum that passes outside Int64 and comes back is exact.
    #[test]
    fn int64_sums_neither_wrap_nor_lose_the_average() {
        let mut odb = OrpheusDb::new();
        odb.create_user("alice").unwrap();
        odb.login("alice").unwrap();
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int64),
            Column::new("n", DataType::Int64),
        ]);
        let rows = [i64::MAX, i64::MAX, -i64::MAX]
            .into_iter()
            .zip(0..)
            .map(|(n, id)| vec![Value::Int64(id), Value::Int64(n)])
            .collect();
        odb.init_cvd("B", schema, vec!["id".into()], rows).unwrap();
        let snap = odb.snapshot("B").unwrap();
        let sum = "SELECT vid, sum(n) FROM CVD B WHERE id < 2 GROUP BY vid";
        let engine = odb.run(sum).unwrap_err().to_string();
        assert_eq!(engine, "storage: type error: bigint out of range: sum(n)");
        assert_eq!(snap.run(sum).unwrap_err().to_string(), engine);
        let avg = "SELECT vid, avg(n) FROM CVD B WHERE id < 2 GROUP BY vid";
        let sum_all = "SELECT vid, sum(n) FROM CVD B GROUP BY vid";
        for (sql, want) in [
            (avg, Value::Float64(i64::MAX as f64)),
            (sum_all, Value::Int64(i64::MAX)),
        ] {
            for result in [odb.run(sql).unwrap(), snap.run(sql).unwrap()] {
                assert_eq!(result.rows, [[Value::Int64(0), want.clone()]], "{sql}");
            }
        }
    }

    /// The aggregate's column is named after the star column it reads: an
    /// attribute named `vid` gives `sum_vid` (the rlist join named it
    /// `sum_rhs_vid`).
    #[test]
    fn an_attribute_named_vid_aggregates_under_its_own_name() {
        let mut odb = OrpheusDb::new();
        odb.create_user("alice").unwrap();
        odb.login("alice").unwrap();
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int64),
            Column::new("vid", DataType::Int64),
        ]);
        let rows = vec![vec![Value::Int64(1), Value::Int64(40)]];
        odb.init_cvd("V", schema, vec!["k".into()], rows).unwrap();
        let result = odb
            .run("SELECT vid, sum(vid) FROM CVD V GROUP BY vid")
            .unwrap();
        let names: Vec<&str> = result
            .schema
            .columns()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, ["vid", "sum_vid"]);
        assert_eq!(result.rows, [[Value::Int64(0), Value::Int64(40)]]);
    }

    /// A decorator that keeps the label tree but hands back the *plain*
    /// executor: what `run` executes, described the way `explain` would.
    struct Labelled;

    impl Decorator for Labelled {
        type Node = ExplainNode;

        fn wrap<'a>(
            &self,
            exec: BoxExec<'a>,
            inputs: Vec<ExplainNode>,
            label: Arguments<'_>,
            estimate: impl FnOnce(&[ExplainNode]) -> Estimate,
        ) -> Op<'a, Self> {
            let unit = Box::new(Values::ints("unit", []));
            (exec, Instrumented.wrap(unit, inputs, label, estimate).1)
        }

        fn set_worker_rows(_node: &mut ExplainNode, _cell: Rc<RefCell<Vec<u64>>>) {}
    }

    fn label_tree(node: &ExplainNode, depth: usize, out: &mut String) {
        out.push_str(&format!("{}{}\n", "  ".repeat(depth), node.label));
        for child in &node.children {
            label_tree(child, depth + 1, out);
        }
    }

    /// Drift regression: `explain analyze` used to instrument a streaming
    /// `HashJoin(rid_join, rid_join)` for the JOIN form while `run`
    /// materialised both sides into `Values` first. Both now lower one
    /// `LogicalPlan`; the decorator cannot change the tree.
    #[test]
    fn explain_labels_are_the_tree_run_executes() {
        let mut odb = corpus_db();
        let sql = "SELECT * FROM VERSION 1 OF CVD T JOIN VERSION 2 ON k";
        let plan = LogicalPlan::of(&parse_query(sql).unwrap());
        for threads in [1, 4] {
            odb.set_threads(threads);
            let tables = odb.tables("T").unwrap();
            let mut explained = String::new();
            label_tree(
                &lower(&plan, &tables, &Instrumented, "").unwrap().1,
                0,
                &mut explained,
            );
            let mut executed = String::new();
            let mut run = lower(&plan, &tables, &Labelled, "").unwrap();
            label_tree(&run.1, 0, &mut executed);
            assert_eq!(explained, executed, "{threads} threads");
            // One tree at every thread count: a fetch per join input.
            assert_eq!(
                explained,
                "HashJoin left.k=right.k\n\
                 \x20 RidFetch T__sbr_data (left)\n\
                 \x20 RidFetch T__sbr_data (right)\n"
            );
            // The labelled tree is the plain one: draining it is `run`.
            let rows = collect(run.0.as_mut(), &mut ExecContext::new()).unwrap();
            assert_eq!(rows, odb.run(sql).unwrap().rows);
        }
        // The same plan over a pinned snapshot differs only at the leaves.
        let snap = odb.snapshot("T").unwrap();
        let mut pinned = String::new();
        label_tree(
            &lower(&plan, &snap, &Instrumented, "").unwrap().1,
            0,
            &mut pinned,
        );
        assert_eq!(
            pinned,
            "HashJoin left.k=right.k\n\
             \x20 Values star rows (left)\n\
             \x20 Values star rows (right)\n"
        );
    }

    #[test]
    fn one_translation_per_query_form() {
        let plan = |sql| LogicalPlan::of(&parse_query(sql).unwrap());
        assert_eq!(
            plan("SELECT * FROM VERSION 1, 2 OF CVD T WHERE k > 3 LIMIT 5"),
            LogicalPlan::Limit {
                input: Box::new(LogicalPlan::Fetch(
                    RidSet::Union(vec![Vid(1), Vid(2)]),
                    Some(("k".into(), BinOp::Gt, Value::Int64(3))),
                )),
                n: 5,
            }
        );
        assert_eq!(
            plan("SELECT * FROM V_DIFF(2, 1) OF CVD T"),
            LogicalPlan::Fetch(RidSet::Diff(Vid(2), Vid(1)), None)
        );
        assert_eq!(
            plan("SELECT * FROM V_INTERSECT(0, 1, 2) OF CVD T"),
            LogicalPlan::Fetch(RidSet::Intersect(vec![Vid(0), Vid(1), Vid(2)]), None)
        );
    }
}
