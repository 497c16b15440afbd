//! Observability layer for the workspace: structured tracing spans, a
//! metrics registry, and a dependency-free JSON value type.
//!
//! Everything here is vendored in the same offline style as the
//! rand/proptest shims — no external crates. Four modules:
//!
//! - [`span`]: RAII span guards aggregating into a thread-safe call tree
//!   ([`Recorder`]), for attributing wall-clock time to subsystems
//!   (`orpheus.commit` → `pagestore.checkpoint` → `pagestore.wal.fsync`).
//! - [`metrics`]: counters, gauges, and log2-bucketed latency histograms
//!   with p50/p95/p99 ([`Registry`]); names follow `subsystem.object.verb`.
//! - [`json`]: minimal JSON writer + parser so snapshots can be exported
//!   (`metrics --json`) and validated in tests/CI without serde.
//! - [`journal`]: a head-sampled ring of per-span begin/end events
//!   ([`Journal`]) keyed by [`TraceCtx`] trace ids, exportable as
//!   Chrome-trace-event JSONL (`trace dump --json`) — the per-request
//!   complement to the aggregate-only [`Recorder`] tree. The ring is one
//!   fixed 1 MiB array of 40-byte slots, written without allocating.
//!
//! Span names are `&'static str`: every span is named by a literal at its
//! call site, so neither the tree nor the journal copies a name.
//!
//! Both `Recorder` and `Registry` are cheap cloneable handles to shared
//! state, scoped: a `Database` or a test owns one, so parallel tests
//! stay hermetic. There is no process-wide recorder.

// Library code surfaces a broken invariant as a typed error, never as an
// abort, and drops no `Result` or span guard unread; test code may panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::unused_result_ok))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]

pub mod journal;
pub mod json;
pub mod metrics;
pub mod span;

pub use journal::{Journal, Phase, SpanEvent};
pub use json::{missing_keys, parse, Json, ParseError};
pub use metrics::{Histogram, Registry};
pub use span::{mint_trace_id, Recorder, SpanGuard, SpanReport, SpanStats, TraceCtx};
