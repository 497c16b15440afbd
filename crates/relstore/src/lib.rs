//! # relstore — an embedded relational storage engine
//!
//! `relstore` is the storage substrate underneath the OrpheusDB reproduction.
//! The original system is a middleware layer over PostgreSQL 9.5; this crate
//! provides the slice of a relational engine that the paper's experiments
//! exercise:
//!
//! * heap tables with a configurable **physical clustering order** (the
//!   paper's experiments in Fig. 5.7 compare tables clustered on `rid`
//!   against tables clustered on the relation primary key),
//! * hash and btree **indexes** (primary-key and secondary),
//! * an **executor** with sequential scans, filters, projections, hash
//!   joins, merge joins, index-nested-loop joins, and limits,
//! * first-class **integer-array columns** with the containment (`<@`)
//!   and append operations that OrpheusDB's `vlist`/`rlist`
//!   representations rely on, and
//! * a PostgreSQL-style **cost model** (`seq_page_cost`, `random_page_cost`,
//!   `cpu_tuple_cost`, …) tracked per operation, so experiments can report
//!   both wall-clock time and deterministic estimated cost, and
//! * real paged storage: heap tuples live on `pagestore`'s 8 KiB slotted
//!   pages behind a shared **buffer pool**, so alongside the estimates the
//!   tracker reports *measured* logical reads, buffer misses, evictions,
//!   and write-backs ([`CostTracker::measured`](cost::CostTracker)).
//!
//! The engine is deliberately single-node: every comparison in the paper is
//! *relative* (between storage models, join strategies, or partitioning
//! schemes), and those relationships are preserved by the operator
//! implementations, the cost accounting, and the page-level I/O counters.
//!
//! ## Quick example
//!
//! ```
//! use relstore::{Database, Schema, Column, DataType, Value, Row};
//!
//! let mut db = Database::new();
//! let schema = Schema::new(vec![
//!     Column::new("id", DataType::Int64),
//!     Column::new("name", DataType::Text),
//! ]);
//! db.create_table("people", schema).unwrap();
//! let t = db.table_mut("people").unwrap();
//! t.insert(Row::from(vec![Value::Int64(1), Value::from("ada")])).unwrap();
//! t.insert(Row::from(vec![Value::Int64(2), Value::from("grace")])).unwrap();
//! assert_eq!(t.live_row_count(), 2);
//! ```

// Library code surfaces a broken invariant as a typed error, never as an
// abort, and drops no `Result` or span guard unread; test code may panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::unused_result_ok))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![expect(
    clippy::needless_range_loop,
    reason = "index loops mirror the paper's pseudocode over parallel arrays"
)]

pub mod codec;
pub mod cost;
pub mod db;
mod directory;
pub mod error;
pub mod exec;
pub mod explain;
pub mod expr;
pub mod fetch;
pub mod index;
pub mod schema;
pub mod table;
pub mod value;

pub use cost::{CostModel, CostTracker, RC_PER_COST_UNIT};
pub use db::Database;
pub use error::{Error, Result};
pub use exec::{
    collect, BoxExec, ExecContext, Executor, Filter, HashJoin, IndexNestedLoopJoin, Limit,
    MergeJoin, Project, SeqScan, Values,
};
pub use explain::{
    wrap, Estimate, ExplainNode, ExplainReport, ExplainSnapshot, Instrumented, OpStats,
};
pub use expr::{AggFunc, BinOp, ColumnTest, Expr};
pub use fetch::RidFetch;
pub use index::{Index, IndexKind};
pub use schema::{Column, Schema};
pub use table::{Clustering, Row, RowId, Table, DEFAULT_POOL_PAGES};
pub use value::{DataType, Value};

// The paged storage layer underneath heap tables, re-exported so callers
// can size pools and read I/O counters without a direct pagestore dep.
pub use pagestore::{BufferPool, IoStats, RecoveryReport, PAGE_SIZE};
