//! Runtime values and data types.
//!
//! The engine supports the handful of types the OrpheusDB experiments need:
//! 64-bit integers (record attributes, `rid`/`vid`), floats, text (metadata),
//! booleans (tombstones in the delta model), and integer arrays (the
//! `vlist`/`rlist` versioning attributes of Chapter 4).

use std::cmp::Ordering;
use std::fmt;

/// The data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int64,
    Float64,
    Text,
    Bool,
    /// An ordered array of 64-bit integers (PostgreSQL `int[]`).
    IntArray,
}

impl DataType {
    /// Human-readable name, matching the attribute-table entries of §4.3.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int64 => "integer",
            DataType::Float64 => "decimal",
            DataType::Text => "string",
            DataType::Bool => "boolean",
            DataType::IntArray => "integer[]",
        }
    }

    /// The type [`name`](Self::name) names — how stored catalogs (table
    /// descriptors, attribute tables) read a type back.
    pub fn from_name(name: &str) -> Option<DataType> {
        use DataType::*;
        [Int64, Float64, Text, Bool, IntArray]
            .into_iter()
            .find(|t| t.name() == name)
    }

    /// Whether a value of `self` can be widened to `other` without loss
    /// (used by schema evolution: integer → decimal → string, as in §4.3).
    pub fn widens_to(self, other: DataType) -> bool {
        use DataType::*;
        matches!(
            (self, other),
            (Int64, Int64)
                | (Int64, Float64)
                | (Int64, Text)
                | (Float64, Float64)
                | (Float64, Text)
                | (Text, Text)
                | (Bool, Bool)
                | (Bool, Text)
                | (IntArray, IntArray)
        )
    }

    /// The most general common type of two types, if one exists.
    pub fn generalize(self, other: DataType) -> Option<DataType> {
        if self == other {
            Some(self)
        } else if self.widens_to(other) {
            Some(other)
        } else if other.widens_to(self) {
            Some(self)
        } else {
            // Fall back to text, which everything except arrays widens to.
            if self.widens_to(DataType::Text) && other.widens_to(DataType::Text) {
                Some(DataType::Text)
            } else {
                None
            }
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A runtime value. `Null` is a member of every type.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int64(i64),
    Float64(f64),
    Text(String),
    Bool(bool),
    IntArray(Vec<i64>),
    Null,
}

impl Value {
    /// The data type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Int64(_) => Some(DataType::Int64),
            Value::Float64(_) => Some(DataType::Float64),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
            Value::IntArray(_) => Some(DataType::IntArray),
            Value::Null => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract an `i64`, if this is an integer value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int64(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract an `f64`, widening integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float64(v) => Some(*v),
            Value::Int64(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_int_array(&self) -> Option<&[i64]> {
        match self {
            Value::IntArray(a) => Some(a),
            _ => None,
        }
    }

    /// Widen this value to `target`, per [`DataType::widens_to`].
    pub fn widen(&self, target: DataType) -> Option<Value> {
        match (self, target) {
            (Value::Null, _) => Some(Value::Null),
            (Value::Int64(v), DataType::Int64) => Some(Value::Int64(*v)),
            (Value::Int64(v), DataType::Float64) => Some(Value::Float64(*v as f64)),
            (Value::Int64(v), DataType::Text) => Some(Value::Text(v.to_string())),
            (Value::Float64(v), DataType::Float64) => Some(Value::Float64(*v)),
            (Value::Float64(v), DataType::Text) => Some(Value::Text(v.to_string())),
            (Value::Text(s), DataType::Text) => Some(Value::Text(s.clone())),
            (Value::Bool(b), DataType::Bool) => Some(Value::Bool(*b)),
            (Value::Bool(b), DataType::Text) => Some(Value::Text(b.to_string())),
            (Value::IntArray(a), DataType::IntArray) => Some(Value::IntArray(a.clone())),
            _ => None,
        }
    }

    /// SQL-style three-valued comparison: `None` if either side is null or
    /// the types are incomparable.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int64(a), Value::Int64(b)) => Some(a.cmp(b)),
            (Value::Float64(a), Value::Float64(b)) => a.partial_cmp(b),
            (Value::Int64(a), Value::Float64(b)) => (*a as f64).partial_cmp(b),
            (Value::Float64(a), Value::Int64(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::IntArray(a), Value::IntArray(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total ordering for sorting: nulls first, then by type tag, then value.
    /// Needed because `Value` contains floats and so cannot derive `Ord`.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn tag(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int64(_) => 2,
                Value::Float64(_) => 2, // numerics compare together
                Value::Text(_) => 3,
                Value::IntArray(_) => 4,
            }
        }
        match self.compare(other) {
            Some(ord) => ord,
            None => match (self, other) {
                (Value::Null, Value::Null) => Ordering::Equal,
                _ => tag(self).cmp(&tag(other)),
            },
        }
    }

    /// Approximate in-memory size in bytes, used for storage accounting.
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Int64(_) => 8,
            Value::Float64(_) => 8,
            Value::Text(s) => s.len().max(1),
            Value::Bool(_) => 1,
            Value::IntArray(a) => 8 * a.len() + 8,
            Value::Null => 1,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int64(v) => fmt::Display::fmt(v, f),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::IntArray(a) => {
                write!(f, "{{")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<Vec<i64>> for Value {
    fn from(v: Vec<i64>) -> Self {
        Value::IntArray(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_numerics_cross_type() {
        assert_eq!(
            Value::Int64(3).compare(&Value::Float64(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float64(2.5).compare(&Value::Int64(3)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn compare_null_is_unknown() {
        assert_eq!(Value::Null.compare(&Value::Int64(1)), None);
        assert_eq!(Value::Int64(1).compare(&Value::Null), None);
    }

    #[test]
    fn total_cmp_orders_nulls_first() {
        let mut vals = [Value::Int64(2), Value::Null, Value::Int64(1)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int64(1));
    }

    #[test]
    fn widening_rules() {
        assert!(DataType::Int64.widens_to(DataType::Float64));
        assert!(DataType::Int64.widens_to(DataType::Text));
        assert!(!DataType::Float64.widens_to(DataType::Int64));
        assert_eq!(
            DataType::Int64.generalize(DataType::Float64),
            Some(DataType::Float64)
        );
        assert_eq!(
            DataType::Bool.generalize(DataType::Int64),
            Some(DataType::Text)
        );
        assert_eq!(DataType::IntArray.generalize(DataType::Int64), None);
    }

    #[test]
    fn widen_value() {
        assert_eq!(
            Value::Int64(7).widen(DataType::Float64),
            Some(Value::Float64(7.0))
        );
        assert_eq!(
            Value::Int64(7).widen(DataType::Text),
            Some(Value::Text("7".into()))
        );
        assert_eq!(Value::Text("x".into()).widen(DataType::Int64), None);
    }

    #[test]
    fn display_array() {
        assert_eq!(Value::IntArray(vec![1, 2, 3]).to_string(), "{1,2,3}");
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(Value::Int64(0).byte_size(), 8);
        assert_eq!(Value::IntArray(vec![1, 2]).byte_size(), 24);
    }
}
