//! # pagestore — paged storage with real I/O accounting
//!
//! A small storage engine in the PostgreSQL mould, built for the
//! OrpheusDB reproduction so that `relstore`'s *estimated* I/O costs can
//! be checked against *measured* page traffic:
//!
//! * [`Page`] — fixed 8 KiB slotted pages for variable-width tuples.
//! * [`Pager`] — page-granular backends: [`MemPager`], [`FilePager`].
//! * [`BufferPool`] — fixed-capacity cache with clock (second-chance)
//!   eviction, RAII pin guards, dirty tracking, and explicit checkpoint.
//! * [`HeapFile`] — unordered tuple storage with TOAST-style overflow
//!   chains for oversized tuples.
//! * [`IoStats`] — logical/physical reads, evictions, write-backs, and
//!   WAL traffic, snapshot-and-diff style.
//! * [`Wal`] — redo-only write-ahead log of checksummed page images in
//!   a pre-written file that each write-back recycles; [`recover`]
//!   replays committed batches and discards torn and stale ones, so a
//!   WAL-attached pool's [`checkpoint`](BufferPool::checkpoint) is an
//!   atomic, crash-safe durability point that costs one write and one
//!   log fsync.
//! * [`FaultPager`] / [`FaultWal`] — fault-injection wrappers that fail
//!   the Nth I/O (error, short write, crash-stop) for crash-point tests.

mod buffer;
mod error;
mod fault;
mod heap;
mod page;
mod pager;
mod recovery;
mod stats;
mod wal;

pub use buffer::{BufferPool, PageLease, PageMut, PageRef};
pub use error::{Error, Result};
pub use fault::{FaultKind, FaultPager, FaultPlan, FaultWal};
pub use heap::{slot_tuple, HeapFile, PageView, SlotTuple, TupleAddr, INLINE_LIMIT};
pub use page::{live_cells, Page, PageId, MAX_INLINE_TUPLE, PAGE_SIZE};
pub use pager::{FilePager, MemPager, Pager};
pub use recovery::{recover, RecoveryReport};
pub use stats::IoStats;
pub use wal::{
    crc32, crc32_update, Entry, FileWalStore, Lsn, MemWalStore, Wal, WalRecord, WalStore,
    FILE_HEADER, RECORD_HEADER,
};
