//! Error type shared by pagers, the buffer pool, and heap files.

use std::fmt;

pub type Result<T> = std::result::Result<T, Error>;

#[derive(Debug)]
pub enum Error {
    /// A page id beyond the pager's allocated range, or one no page file
    /// can hold (a log record naming `u32::MAX`).
    PageOutOfBounds(u32),
    /// Every buffer-pool frame is pinned; nothing can be evicted.
    PoolExhausted { capacity: usize },
    /// A tuple address that does not point at a live tuple.
    BadAddress(String),
    /// The page is pinned with a conflicting borrow (e.g. re-pinning a
    /// page while a mutable guard to it is live).
    PageBusy(u32),
    /// A read lease was requested on a dirty page. Leases freeze a page
    /// image for worker threads; an uncheckpointed page has no stable
    /// image to freeze, so the caller must copy (or checkpoint) instead.
    PageDirty(u32),
    /// Underlying file I/O failure (file-backed pager only).
    Io(std::io::Error),
    /// A persisted file whose size is not a whole number of pages.
    CorruptFile { len: u64 },
    /// A non-empty write-ahead log without a header this build wrote:
    /// one from an older build, or not a log. Refused rather than read as
    /// empty, which would drop whatever it commits.
    UnreadableLog(std::path::PathBuf),
    /// A durability operation (recover/checkpoint accounting) on a pool
    /// with no write-ahead log attached.
    NotDurable,
    /// An internal invariant of the storage engine was violated. Raised
    /// instead of panicking: the caller may hold the only copy of the
    /// data, so a broken invariant must surface as an error, never as an
    /// abort mid-operation.
    Invariant(&'static str),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::PageOutOfBounds(id) => write!(f, "page {id} is out of bounds"),
            Error::PoolExhausted { capacity } => {
                write!(f, "all {capacity} buffer frames are pinned")
            }
            Error::BadAddress(what) => write!(f, "bad tuple address: {what}"),
            Error::PageBusy(id) => {
                write!(f, "page {id} is pinned with a conflicting borrow")
            }
            Error::PageDirty(id) => {
                write!(f, "page {id} is dirty and cannot be leased")
            }
            Error::Io(e) => write!(f, "pager I/O error: {e}"),
            Error::CorruptFile { len } => {
                write!(f, "file length {len} is not a multiple of the page size")
            }
            Error::UnreadableLog(p) => write!(f, "{}: unreadable write-ahead log", p.display()),
            Error::NotDurable => {
                write!(f, "no write-ahead log is attached to this pool")
            }
            Error::Invariant(what) => {
                write!(f, "internal invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}
