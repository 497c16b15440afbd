//! Error types for the storage engine.

use std::fmt;

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A table with this name already exists.
    TableExists(String),
    /// No table with this name exists.
    TableNotFound(String),
    /// No column with this name exists in the schema.
    ColumnNotFound(String),
    /// A row's arity or value types do not match the table schema.
    SchemaMismatch(String),
    /// A schema of `columns` columns is wider than a row may be.
    TooManyColumns { columns: usize, limit: usize },
    /// A uniqueness constraint (primary key) was violated.
    DuplicateKey(String),
    /// An expression was evaluated against an incompatible value.
    TypeError(String),
    /// A referenced index does not exist.
    IndexNotFound(String),
    /// A row id does not refer to a live row.
    RowNotFound(u64),
    /// The operation's inputs violate its preconditions (e.g. merge join on
    /// unsorted input).
    InvalidOperation(String),
    /// The paged storage layer failed (bad address, pool exhausted, I/O).
    Storage(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::TableExists(n) => write!(f, "table already exists: {n}"),
            Error::TableNotFound(n) => write!(f, "table not found: {n}"),
            Error::ColumnNotFound(n) => write!(f, "column not found: {n}"),
            Error::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            Error::TooManyColumns { columns, limit } => {
                write!(
                    f,
                    "too many columns: {columns} (a row holds at most {limit})"
                )
            }
            Error::DuplicateKey(m) => write!(f, "duplicate key: {m}"),
            Error::TypeError(m) => write!(f, "type error: {m}"),
            Error::IndexNotFound(n) => write!(f, "index not found: {n}"),
            Error::RowNotFound(id) => write!(f, "row not found: {id}"),
            Error::InvalidOperation(m) => write!(f, "invalid operation: {m}"),
            Error::Storage(m) => write!(f, "storage error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<pagestore::Error> for Error {
    fn from(e: pagestore::Error) -> Self {
        Error::Storage(e.to_string())
    }
}
