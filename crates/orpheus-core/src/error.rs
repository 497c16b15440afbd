//! OrpheusDB errors.

use std::fmt;

pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by the versioning layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// An error from the underlying storage engine.
    Storage(relstore::Error),
    /// The CVD does not exist.
    CvdNotFound(String),
    /// A CVD with this name already exists.
    CvdExists(String),
    /// The version id does not exist in the CVD.
    VersionNotFound(u32),
    /// A commit violated the primary-key constraint within one version.
    PrimaryKeyViolation(String),
    /// The committed table/file does not trace back to a checkout.
    NotCheckedOut(String),
    /// The acting user lacks permission on the staging table.
    PermissionDenied { user: String, table: String },
    /// No such user / user already exists / no user logged in.
    UserError(String),
    /// Command-line or query parse error.
    Parse(String),
    /// Schema evolution produced an incompatible change.
    SchemaEvolution(String),
    /// `recover` would discard these checked-out tables, whose pages no
    /// log protects.
    CheckedOut(Vec<String>),
    /// An internal invariant of the versioning layer was violated
    /// (e.g. an index pointing at a missing row). Raised instead of
    /// panicking: the CVD may hold the only copy of the data, so a
    /// broken invariant must surface as an error, never as an abort.
    Internal(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Storage(e) => write!(f, "storage: {e}"),
            Error::CvdNotFound(n) => write!(f, "cvd not found: {n}"),
            Error::CvdExists(n) => write!(f, "cvd already exists: {n}"),
            Error::VersionNotFound(v) => write!(f, "version not found: v{v}"),
            Error::PrimaryKeyViolation(m) => write!(f, "primary key violation: {m}"),
            Error::NotCheckedOut(t) => write!(f, "table was not checked out from a cvd: {t}"),
            Error::PermissionDenied { user, table } => {
                write!(f, "user {user} may not access staging table {table}")
            }
            Error::UserError(m) => write!(f, "user error: {m}"),
            Error::Parse(m) => write!(f, "parse error: {m}"),
            Error::SchemaEvolution(m) => write!(f, "schema evolution: {m}"),
            Error::CheckedOut(tables) => write!(
                f,
                "recovery would discard checked-out tables: {}; commit them first",
                tables.join(", ")
            ),
            Error::Internal(m) => write!(f, "internal invariant violated: {m}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<relstore::Error> for Error {
    fn from(e: relstore::Error) -> Self {
        Error::Storage(e)
    }
}
