//! The four workloads. `benchmarks/README.md` says why each exists; the
//! names and reasons are also in `BENCHMARK.json`, and a unit test keeps
//! the two in step.
//!
//! Sizes are frozen: a round is a fixed number of operations from a
//! byte-identical starting state (commit cost grows with history length,
//! so a time-bounded phase would measure a different history on a faster
//! build). `--seconds` only decides how many rounds are run.

use crate::data::Source;

/// Closed-loop client connections (the sandbox has 2 cores).
pub const CLIENTS: usize = 2;
/// Server session workers.
pub const SESSION_WORKERS: usize = 4;
/// Buffer pool of the durable workloads, in 8 KiB pages: every seeded
/// store fits (a durable CVD larger than its pool cannot be reopened).
pub const DURABLE_POOL_PAGES: usize = 8192;
/// The in-memory engine's fixed pool (`relstore::DEFAULT_POOL_PAGES`).
pub const MEMORY_POOL_PAGES: usize = relstore::DEFAULT_POOL_PAGES;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CycleDurable,
    ReadPinned,
    ReadEngineCold,
    MixedDurable,
}

#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub source: Source,
    /// Durable store in a data directory, or the in-memory engine.
    pub durable: bool,
    /// Whether a round changes the store, so the next one needs a fresh copy.
    pub mutates: bool,
    /// Unmeasured units each client runs first, so caches and lazy set-up
    /// are out of the way.
    pub warmup_units: usize,
    /// Measured units per client per round.
    pub units_per_client: usize,
    pub inserts_per_cycle: usize,
    pub queries_per_cycle: usize,
    /// `WHERE a1 > …` threshold of the selective scan.
    pub select_min_a1: i64,
    /// Share of queries that are `V_DIFF(v, parent(v))`, in percent.
    pub diff_pct: u64,
    /// `read_pinned` re-pins before every this-many-th unit.
    pub repin_every: usize,
}

impl Spec {
    pub fn pool_pages(&self) -> usize {
        if self.durable {
            DURABLE_POOL_PAGES
        } else {
            MEMORY_POOL_PAGES
        }
    }
}

pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "cycle_durable",
        kind: Kind::CycleDurable,
        source: Source::Cur(200, 20, 50),
        durable: true,
        mutates: true,
        warmup_units: 5,
        units_per_client: 100,
        inserts_per_cycle: 10,
        queries_per_cycle: 0,
        select_min_a1: 0,
        diff_pct: 0,
        repin_every: usize::MAX,
    },
    Spec {
        name: "read_pinned",
        kind: Kind::ReadPinned,
        source: Source::Cur(200, 20, 50),
        durable: true,
        mutates: false,
        warmup_units: 100,
        units_per_client: 2000,
        inserts_per_cycle: 0,
        queries_per_cycle: 0,
        select_min_a1: 8_999, // ~10% of a version
        diff_pct: 20,
        repin_every: 100,
    },
    Spec {
        name: "read_engine_cold",
        kind: Kind::ReadEngineCold,
        source: Source::Wire {
            base_rows: 2_000,
            versions: 46,
            inserts: 500,
        },
        durable: false,
        mutates: false,
        warmup_units: 10,
        units_per_client: 100,
        inserts_per_cycle: 0,
        queries_per_cycle: 0,
        select_min_a1: 9_899, // ~1% of a version
        diff_pct: 10,
        repin_every: usize::MAX,
    },
    Spec {
        name: "mixed_durable",
        kind: Kind::MixedDurable,
        source: Source::Cur(200, 20, 50),
        durable: true,
        mutates: true,
        warmup_units: 5,
        units_per_client: 100,
        inserts_per_cycle: 10,
        queries_per_cycle: 2,
        select_min_a1: 9_899,
        diff_pct: 10,
        repin_every: usize::MAX,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}
