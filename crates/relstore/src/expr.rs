//! Scalar expressions evaluated against rows.

use crate::cost::CostTracker;
use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::value::Value;
use std::cmp::Ordering;

/// Binary comparison / arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
}

/// The aggregate functions of a versioned `GROUP BY vid` query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to the column at this ordinal position.
    Col(usize),
    /// A literal.
    Const(Value),
    /// Binary operator.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    /// PostgreSQL `left <@ right` for int arrays: every element of the left
    /// array occurs in the right array. This is the containment check the
    /// combined-table and split-by-vlist checkout queries use
    /// (`ARRAY[vid] <@ vlist`, Table 4.1).
    ArrayContains(Box<Expr>, Box<Expr>),
    /// PostgreSQL `array_append(arr, elem)` — the commit-side `vlist + vj`.
    ArrayAppend(Box<Expr>, Box<Expr>),
    /// `IS NULL`.
    IsNull(Box<Expr>),
}

impl Expr {
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Const(v.into())
    }

    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Eq, Box::new(self), Box::new(rhs))
    }

    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Gt, Box::new(self), Box::new(rhs))
    }

    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Lt, Box::new(self), Box::new(rhs))
    }

    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }

    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }

    /// `ARRAY[needle] <@ col(haystack)` convenience: containment of a single
    /// int in an int-array column.
    pub fn array_has(haystack: Expr, needle: impl Into<Value>) -> Expr {
        Expr::ArrayContains(
            Box::new(Expr::Const(match needle.into() {
                Value::Int64(v) => Value::IntArray(vec![v]),
                other => other,
            })),
            Box::new(haystack),
        )
    }

    /// Evaluate against `row`, charging operator costs to `tracker`.
    pub fn eval(&self, row: &[Value], tracker: &mut CostTracker) -> Result<Value> {
        tracker.ops(1);
        match self {
            Expr::Col(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| Error::TypeError(format!("column index {i} out of bounds"))),
            Expr::Const(v) => Ok(v.clone()),
            Expr::Bin(op, l, r) => {
                let lv = l.eval(row, tracker)?;
                let rv = r.eval(row, tracker)?;
                eval_bin(*op, &lv, &rv)
            }
            Expr::And(l, r) => {
                let lv = l.eval(row, tracker)?;
                match lv.as_bool() {
                    Some(false) => Ok(Value::Bool(false)),
                    Some(true) => r.eval(row, tracker),
                    None if lv.is_null() => Ok(Value::Null),
                    None => Err(Error::TypeError("AND on non-boolean".into())),
                }
            }
            Expr::Or(l, r) => {
                let lv = l.eval(row, tracker)?;
                match lv.as_bool() {
                    Some(true) => Ok(Value::Bool(true)),
                    Some(false) => r.eval(row, tracker),
                    None if lv.is_null() => Ok(Value::Null),
                    None => Err(Error::TypeError("OR on non-boolean".into())),
                }
            }
            Expr::Not(e) => {
                let v = e.eval(row, tracker)?;
                match v.as_bool() {
                    Some(b) => Ok(Value::Bool(!b)),
                    None if v.is_null() => Ok(Value::Null),
                    None => Err(Error::TypeError("NOT on non-boolean".into())),
                }
            }
            Expr::ArrayContains(needle, haystack) => {
                let nv = needle.eval(row, tracker)?;
                let hv = haystack.eval(row, tracker)?;
                match (nv.as_int_array(), hv.as_int_array()) {
                    (Some(n), Some(h)) => {
                        // Linear containment scan: this is the expensive
                        // per-record array operation that makes
                        // combined-table checkout slow (§4.2). Charge one
                        // operator eval per element examined.
                        tracker.ops(h.len() as u64);
                        Ok(Value::Bool(n.iter().all(|x| h.contains(x))))
                    }
                    _ => Err(Error::TypeError("<@ expects int arrays".into())),
                }
            }
            Expr::ArrayAppend(arr, elem) => {
                let av = arr.eval(row, tracker)?;
                let ev = elem.eval(row, tracker)?;
                match (av.as_int_array(), ev.as_i64()) {
                    (Some(a), Some(e)) => {
                        // Appending copies the array — the cost that makes
                        // combined-table / split-by-vlist commits slow.
                        tracker.ops(a.len() as u64 + 1);
                        let mut out = a.to_vec();
                        out.push(e);
                        Ok(Value::IntArray(out))
                    }
                    _ => Err(Error::TypeError("array_append expects (int[], int)".into())),
                }
            }
            Expr::IsNull(e) => Ok(Value::Bool(e.eval(row, tracker)?.is_null())),
        }
    }

    /// Evaluate as a predicate: NULL counts as false (SQL WHERE semantics).
    pub fn matches(&self, row: &[Value], tracker: &mut CostTracker) -> Result<bool> {
        Ok(self.eval(row, tracker)?.as_bool().unwrap_or(false))
    }
}

/// `column op literal`: a WHERE term a leaf judges on one value of each
/// row before it materialises the row. Its verdict is
/// [`Expr::matches`] of `Bin(op, Col(column), Const(literal))`, by the
/// same comparison, so NULL and Int-vs-Float semantics are the filter's.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnTest {
    pub(crate) column: usize,
    /// Always a comparison.
    op: BinOp,
    literal: Value,
}

/// PostgreSQL's default selectivity guesses (`eqsel` / inequality).
const EQ_SEL: f64 = 0.005;
const INEQ_SEL: f64 = 1.0 / 3.0;

impl ColumnTest {
    /// Operator evaluations the equivalent [`Expr`] charges per row.
    pub const OPS: u64 = 3;

    /// A test of `column` by the comparison `op`; any other operator is a
    /// type error.
    pub fn new(column: usize, op: BinOp, literal: Value) -> Result<Self> {
        comparison(op)?;
        Ok(ColumnTest {
            column,
            op,
            literal,
        })
    }

    /// Whether the tested column's value `v` satisfies the comparison (a
    /// NULL or incomparable value does not).
    pub(crate) fn holds(&self, v: &Value) -> bool {
        matches!(compare(self.op, v, &self.literal), Ok(Some(true)))
    }

    /// The planner's guess at the share of rows that pass.
    pub fn selectivity(&self) -> f64 {
        match self.op {
            BinOp::Eq => EQ_SEL,
            _ => INEQ_SEL,
        }
    }

    /// `name op literal`, the column named as `schema` names it.
    pub fn describe(&self, schema: &Schema) -> String {
        let name = schema.column(self.column).map_or("?", |c| c.name.as_str());
        let op = comparison(self.op).map_or("?", |c| c.0);
        match &self.literal {
            Value::Text(s) => format!("{name} {op} '{s}'"),
            lit => format!("{name} {op} {lit}"),
        }
    }

    /// The test as an expression over rows whose tested columns start at
    /// `offset`.
    pub fn expr(&self, offset: usize) -> Expr {
        let column = Box::new(Expr::col(offset + self.column));
        Expr::Bin(self.op, column, Box::new(Expr::Const(self.literal.clone())))
    }
}

/// A comparison operator's symbol and the orderings it holds for.
type Comparison = (&'static str, fn(Ordering) -> bool);

/// `op` as a [`Comparison`]; any other operator is a type error.
fn comparison(op: BinOp) -> Result<Comparison> {
    use BinOp::*;
    Ok(match op {
        Eq => ("=", Ordering::is_eq),
        Ne => ("!=", Ordering::is_ne),
        Lt => ("<", Ordering::is_lt),
        Le => ("<=", Ordering::is_le),
        Gt => (">", Ordering::is_gt),
        Ge => (">=", Ordering::is_ge),
        Add | Sub | Mul => {
            return Err(Error::TypeError(format!(
                "{op:?} is not a comparison operator"
            )))
        }
    })
}

/// `l op r` under three-valued logic: `None` when either side is NULL or
/// the two are incomparable.
fn compare(op: BinOp, l: &Value, r: &Value) -> Result<Option<bool>> {
    Ok(l.compare(r).map(comparison(op)?.1))
}

fn eval_bin(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    match op {
        Eq | Ne | Lt | Le | Gt | Ge => Ok(compare(op, l, r)?.map_or(Value::Null, Value::Bool)),
        Add | Sub | Mul => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            if let (Some(a), Some(b)) = (l.as_i64(), r.as_i64()) {
                let v = match op {
                    Add => a.wrapping_add(b),
                    Sub => a.wrapping_sub(b),
                    Mul => a.wrapping_mul(b),
                    _ => {
                        return Err(Error::TypeError(format!(
                            "{op:?} is not an arithmetic operator"
                        )))
                    }
                };
                return Ok(Value::Int64(v));
            }
            match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => {
                    let v = match op {
                        Add => a + b,
                        Sub => a - b,
                        Mul => a * b,
                        _ => {
                            return Err(Error::TypeError(format!(
                                "{op:?} is not an arithmetic operator"
                            )))
                        }
                    };
                    Ok(Value::Float64(v))
                }
                _ => Err(Error::TypeError(format!(
                    "arithmetic on non-numeric values {l} and {r}"
                ))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> CostTracker {
        CostTracker::new()
    }

    #[test]
    fn comparisons() {
        let row = [Value::Int64(5), Value::from("x")];
        let e = Expr::col(0).gt(Expr::lit(3i64));
        assert_eq!(e.eval(&row, &mut t()).unwrap(), Value::Bool(true));
        let e = Expr::col(1).eq(Expr::lit("x"));
        assert_eq!(e.eval(&row, &mut t()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn null_propagates_and_where_is_false() {
        let row = [Value::Null];
        let e = Expr::col(0).eq(Expr::lit(1i64));
        assert_eq!(e.eval(&row, &mut t()).unwrap(), Value::Null);
        assert!(!e.matches(&row, &mut t()).unwrap());
    }

    #[test]
    fn array_containment() {
        let row = [Value::IntArray(vec![1, 3, 7])];
        assert_eq!(
            Expr::array_has(Expr::col(0), 3i64)
                .eval(&row, &mut t())
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::array_has(Expr::col(0), 4i64)
                .eval(&row, &mut t())
                .unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn array_append_copies() {
        let row = [Value::IntArray(vec![1, 2])];
        let e = Expr::ArrayAppend(Box::new(Expr::col(0)), Box::new(Expr::lit(9i64)));
        assert_eq!(
            e.eval(&row, &mut t()).unwrap(),
            Value::IntArray(vec![1, 2, 9])
        );
    }

    #[test]
    fn containment_cost_scales_with_array_len() {
        let short = [Value::IntArray(vec![1; 2])];
        let long = [Value::IntArray(vec![1; 200])];
        let e = Expr::array_has(Expr::col(0), 2i64);
        let mut ta = t();
        e.eval(&short, &mut ta).unwrap();
        let mut tb = t();
        e.eval(&long, &mut tb).unwrap();
        assert!(tb.operator_evals > ta.operator_evals + 100);
    }

    #[test]
    fn arithmetic() {
        let row = [Value::Int64(6), Value::Float64(0.5)];
        let e = Expr::Bin(BinOp::Mul, Box::new(Expr::col(0)), Box::new(Expr::col(1)));
        assert_eq!(e.eval(&row, &mut t()).unwrap(), Value::Float64(3.0));
    }

    #[test]
    fn short_circuit_and() {
        let row = [Value::Bool(false)];
        // Right side would error (column out of bounds) if evaluated.
        let e = Expr::col(0).and(Expr::col(99).eq(Expr::lit(1i64)));
        assert_eq!(e.eval(&row, &mut t()).unwrap(), Value::Bool(false));
    }
}
