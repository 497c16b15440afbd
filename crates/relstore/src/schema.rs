//! Table schemas.

use crate::error::{Error, Result};
use crate::value::{DataType, Value};
use std::collections::HashMap;

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub dtype: DataType,
    pub nullable: bool,
}

impl Column {
    /// A non-nullable column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
            nullable: false,
        }
    }

    /// A nullable column (used e.g. for attributes added by schema
    /// evolution, which are NULL in pre-existing records; §4.3).
    pub fn nullable(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
            nullable: true,
        }
    }
}

/// An ordered list of columns with by-name lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
    by_name: HashMap<String, usize>,
}

impl Schema {
    pub fn new(columns: Vec<Column>) -> Self {
        let by_name = columns
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), i))
            .collect();
        Schema { columns, by_name }
    }

    pub fn empty() -> Self {
        Schema::new(Vec::new())
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    pub fn column(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| Error::ColumnNotFound(name.to_owned()))
    }

    pub fn contains(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// Append a column, returning its index. Fails on duplicate names.
    pub fn add_column(&mut self, col: Column) -> Result<usize> {
        if self.contains(&col.name) {
            return Err(Error::SchemaMismatch(format!(
                "duplicate column {}",
                col.name
            )));
        }
        let idx = self.columns.len();
        self.by_name.insert(col.name.clone(), idx);
        self.columns.push(col);
        Ok(idx)
    }

    /// Widen the type of an existing column (schema evolution, §4.3:
    /// e.g. integer → decimal). Fails if the change is not a widening.
    pub fn widen_column(&mut self, name: &str, to: DataType) -> Result<()> {
        let idx = self.index_of(name)?;
        let from = self.columns[idx].dtype;
        if !from.widens_to(to) {
            return Err(Error::TypeError(format!(
                "cannot widen {name}: {from} to {to}"
            )));
        }
        self.columns[idx].dtype = to;
        Ok(())
    }

    /// Validate that `row` conforms to this schema.
    pub fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(Error::SchemaMismatch(format!(
                "expected {} values, got {}",
                self.columns.len(),
                row.len()
            )));
        }
        for (v, c) in row.iter().zip(&self.columns) {
            match v.data_type() {
                None => {
                    if !c.nullable {
                        return Err(Error::SchemaMismatch(format!(
                            "null in non-nullable column {}",
                            c.name
                        )));
                    }
                }
                Some(dt) => {
                    if dt != c.dtype {
                        return Err(Error::SchemaMismatch(format!(
                            "column {} expects {}, got {}",
                            c.name, c.dtype, dt
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// A schema projecting the columns at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema::new(
            indices
                .iter()
                .filter_map(|&i| self.columns.get(i).cloned())
                .collect(),
        )
    }

    /// Concatenate two schemas (join output). Right-side duplicate names get
    /// a `rhs_` prefix so lookups stay unambiguous.
    pub fn join(&self, right: &Schema) -> Schema {
        let mut cols = self.columns.clone();
        let mut out = Schema::new(Vec::new());
        for c in cols.drain(..) {
            // A schema's own column names are unique, so re-adding them
            // into an empty schema cannot collide.
            drop(out.add_column(c));
        }
        for c in right.columns() {
            let name = if out.contains(&c.name) {
                format!("rhs_{}", c.name)
            } else {
                c.name.clone()
            };
            // The rhs_ prefix de-duplicated the name above.
            drop(out.add_column(Column {
                name,
                dtype: c.dtype,
                nullable: c.nullable,
            }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int64),
            Column::nullable("b", DataType::Text),
        ])
    }

    #[test]
    fn index_lookup() {
        let s = schema();
        assert_eq!(s.index_of("a").unwrap(), 0);
        assert_eq!(s.index_of("b").unwrap(), 1);
        assert!(s.index_of("c").is_err());
    }

    #[test]
    fn check_row_types_and_nulls() {
        let s = schema();
        assert!(s.check_row(&[Value::Int64(1), Value::Null]).is_ok());
        assert!(s.check_row(&[Value::Null, Value::Null]).is_err());
        assert!(s.check_row(&[Value::Int64(1), Value::Int64(2)]).is_err());
        assert!(s.check_row(&[Value::Int64(1)]).is_err());
    }

    #[test]
    fn add_and_widen() {
        let mut s = schema();
        s.add_column(Column::new("c", DataType::Int64)).unwrap();
        assert!(s.add_column(Column::new("c", DataType::Int64)).is_err());
        s.widen_column("c", DataType::Float64).unwrap();
        assert_eq!(s.column(2).unwrap().dtype, DataType::Float64);
        assert!(s.widen_column("c", DataType::Int64).is_err());
    }

    #[test]
    fn join_renames_duplicates() {
        let s = schema();
        let j = s.join(&schema());
        assert_eq!(j.len(), 4);
        assert!(j.contains("rhs_a"));
        assert!(j.contains("rhs_b"));
    }

    #[test]
    fn project_keeps_order() {
        let s = schema();
        let p = s.project(&[1, 0]);
        assert_eq!(p.column(0).unwrap().name, "b");
        assert_eq!(p.column(1).unwrap().name, "a");
    }
}
