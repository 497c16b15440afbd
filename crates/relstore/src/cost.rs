//! PostgreSQL-style cost accounting.
//!
//! The Chapter 5 experiments (notably Fig. 5.7, the checkout-cost-model
//! validation) depend on the *relationship* between the amount of data an
//! operator touches and the time it takes: sequential scans are linear in
//! pages read, index probes into an unclustered table cost a random page
//! each, and hundreds of thousands of random I/Os degrade into the
//! equivalent of a full sequential scan. We reproduce those relationships by
//! charging each operator with PostgreSQL's default cost constants and
//! reporting accumulated cost units alongside wall-clock time.
//!
//! Since the heap moved onto `pagestore`'s buffer pool, every tracker also
//! carries a [`measured`](CostTracker::measured) snapshot of *actual* page
//! traffic (logical reads, buffer misses, evictions, write-backs) diffed
//! from the pool around each table access — the estimated and measured
//! sides of the same operator can be compared directly.

#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use pagestore::IoStats;

/// Cost-model constants (PostgreSQL defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of reading one page sequentially (`seq_page_cost`).
    pub seq_page: f64,
    /// Cost of reading one page at a random location (`random_page_cost`).
    pub random_page: f64,
    /// CPU cost of processing one tuple (`cpu_tuple_cost`).
    pub cpu_tuple: f64,
    /// CPU cost of processing one index entry (`cpu_index_tuple_cost`).
    pub cpu_index_tuple: f64,
    /// CPU cost of one operator/function evaluation (`cpu_operator_cost`).
    pub cpu_operator: f64,
    /// Rows per heap page. With ~100 4-byte attributes the paper's rows are
    /// ≈400 bytes, ~20 per 8 KB page; our scaled rows (20 ints = 160 B) fit
    /// ~50 per page.
    pub rows_per_page: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            seq_page: 1.0,
            random_page: 4.0,
            cpu_tuple: 0.01,
            cpu_index_tuple: 0.005,
            cpu_operator: 0.0025,
            rows_per_page: 50,
        }
    }
}

/// Conversion used when experiments want a deterministic pseudo-time:
/// one cost unit ≈ this many simulated milliseconds. Calibrated so a
/// 1M-row sequential scan (20k pages) ≈ 2 simulated seconds, in the same
/// ballpark as the paper's measurements.
pub const RC_PER_COST_UNIT: f64 = 0.1;

/// Accumulates the raw I/O and CPU counters of executed operators.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostTracker {
    /// Pages read sequentially.
    pub seq_pages: u64,
    /// Pages read at random offsets (index heap fetches on unclustered data).
    pub random_pages: u64,
    /// Tuples materialized/emitted by operators.
    pub tuples: u64,
    /// Index entries traversed.
    pub index_tuples: u64,
    /// Scalar operator evaluations (comparisons, hash probes, array ops).
    pub operator_evals: u64,
    /// Measured buffer-pool traffic for the operations charged above
    /// (filled in by `Table` heap accesses; zero for purely estimated use).
    pub measured: IoStats,
}

impl CostTracker {
    pub fn new() -> Self {
        CostTracker::default()
    }

    /// Record a sequential scan over `rows` rows.
    pub fn seq_scan(&mut self, rows: u64, model: &CostModel) {
        self.seq_pages += rows.div_ceil(model.rows_per_page as u64);
        self.tuples += rows;
    }

    /// Record `n` random heap fetches (one page each).
    pub fn random_fetches(&mut self, n: u64) {
        self.random_pages += n;
        self.tuples += n;
    }

    /// Record fetches of `n` rows that are physically clustered together,
    /// i.e. one initial seek plus a sequential run.
    pub fn clustered_fetches(&mut self, n: u64, model: &CostModel) {
        if n == 0 {
            return;
        }
        self.random_pages += 1;
        self.seq_pages += n.div_ceil(model.rows_per_page as u64).saturating_sub(1);
        self.tuples += n;
    }

    pub fn index_probes(&mut self, n: u64) {
        self.index_tuples += n;
    }

    pub fn ops(&mut self, n: u64) {
        self.operator_evals += n;
    }

    pub fn emit(&mut self, n: u64) {
        self.tuples += n;
    }

    /// Total cost in PostgreSQL cost units.
    pub fn total(&self, model: &CostModel) -> f64 {
        self.seq_pages as f64 * model.seq_page
            + self.random_pages as f64 * model.random_page
            + self.tuples as f64 * model.cpu_tuple
            + self.index_tuples as f64 * model.cpu_index_tuple
            + self.operator_evals as f64 * model.cpu_operator
    }

    /// Deterministic pseudo-milliseconds for this cost.
    pub fn simulated_millis(&self, model: &CostModel) -> f64 {
        self.total(model) * RC_PER_COST_UNIT
    }

    /// Estimated pages read (sequential + random), for comparison against
    /// `measured.logical_reads`.
    pub fn estimated_pages(&self) -> u64 {
        self.seq_pages + self.random_pages
    }

    /// Merge another tracker's counters into this one.
    pub fn absorb(&mut self, other: &CostTracker) {
        self.seq_pages += other.seq_pages;
        self.random_pages += other.random_pages;
        self.tuples += other.tuples;
        self.index_tuples += other.index_tuples;
        self.operator_evals += other.operator_evals;
        self.measured.absorb(&other.measured);
    }

    /// Publish the estimated counters into a metrics registry under
    /// `relstore.tracker.*`. Counters are *set* (not added), so
    /// republishing a cumulative tracker is idempotent. The `measured`
    /// side publishes through [`IoStats::publish`] on the pool's own
    /// cumulative stats instead, to avoid double counting.
    pub fn publish(&self, registry: &obs::Registry) {
        registry.counter_set("relstore.tracker.seq_pages", self.seq_pages);
        registry.counter_set("relstore.tracker.random_pages", self.random_pages);
        registry.counter_set("relstore.tracker.tuples", self.tuples);
        registry.counter_set("relstore.tracker.index_tuples", self.index_tuples);
        registry.counter_set("relstore.tracker.operator_evals", self.operator_evals);
    }

    /// Difference since an earlier snapshot. Saturates at zero so that a
    /// snapshot taken before a counter reset (e.g. the CLI's
    /// `stats reset`) diffs to nothing instead of panicking or wrapping.
    pub fn since(&self, earlier: &CostTracker) -> CostTracker {
        CostTracker {
            seq_pages: self.seq_pages.saturating_sub(earlier.seq_pages),
            random_pages: self.random_pages.saturating_sub(earlier.random_pages),
            tuples: self.tuples.saturating_sub(earlier.tuples),
            index_tuples: self.index_tuples.saturating_sub(earlier.index_tuples),
            operator_evals: self.operator_evals.saturating_sub(earlier.operator_evals),
            measured: self.measured.since(&earlier.measured),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_scan_pages_round_up() {
        let m = CostModel::default();
        let mut t = CostTracker::new();
        t.seq_scan(51, &m);
        assert_eq!(t.seq_pages, 2);
        assert_eq!(t.tuples, 51);
    }

    #[test]
    fn random_vs_sequential_cost() {
        let m = CostModel::default();
        let mut rand = CostTracker::new();
        rand.random_fetches(1000);
        let mut seq = CostTracker::new();
        seq.seq_scan(1000, &m);
        // 1000 random fetches must cost far more than scanning 1000 rows.
        assert!(rand.total(&m) > 10.0 * seq.total(&m));
    }

    #[test]
    fn clustered_fetch_is_nearly_sequential() {
        let m = CostModel::default();
        let mut clustered = CostTracker::new();
        clustered.clustered_fetches(500, &m);
        let mut rand = CostTracker::new();
        rand.random_fetches(500);
        assert!(clustered.total(&m) < rand.total(&m) / 5.0);
    }

    #[test]
    fn absorb_and_since() {
        let mut a = CostTracker::new();
        a.ops(5);
        let snap = a;
        a.ops(7);
        assert_eq!(a.since(&snap).operator_evals, 7);
        let mut b = CostTracker::new();
        b.absorb(&a);
        assert_eq!(b.operator_evals, 12);
    }

    #[test]
    fn publish_exports_estimated_counters() {
        let m = CostModel::default();
        let mut t = CostTracker::new();
        t.seq_scan(100, &m);
        t.index_probes(4);
        let reg = obs::Registry::new();
        t.publish(&reg);
        assert_eq!(reg.counter("relstore.tracker.seq_pages"), 2);
        assert_eq!(reg.counter("relstore.tracker.tuples"), 100);
        assert_eq!(reg.counter("relstore.tracker.index_tuples"), 4);
        t.publish(&reg); // idempotent republish of the same snapshot
        assert_eq!(reg.counter("relstore.tracker.tuples"), 100);
    }

    /// Regression: diffing a fresh tracker against a snapshot from before
    /// a reset used unchecked `u64` subtraction — panic in debug, wrap in
    /// release. It must saturate to zero.
    #[test]
    fn since_saturates_across_a_reset() {
        let m = CostModel::default();
        let mut t = CostTracker::new();
        t.seq_scan(100, &m);
        t.random_fetches(5);
        t.index_probes(3);
        t.ops(9);
        t.measured.logical_reads = 11;
        let pre_reset_snapshot = t;
        let after_reset = CostTracker::new(); // counters zeroed
        let d = after_reset.since(&pre_reset_snapshot);
        assert_eq!(d.seq_pages, 0);
        assert_eq!(d.random_pages, 0);
        assert_eq!(d.tuples, 0);
        assert_eq!(d.index_tuples, 0);
        assert_eq!(d.operator_evals, 0);
        assert_eq!(d.measured, pagestore::IoStats::default());
        assert_eq!(d.total(&m), 0.0);
    }
}
