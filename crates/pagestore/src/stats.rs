//! Buffer-pool I/O accounting.
//!
//! Every experiment in the reproduction compares storage models and join
//! strategies by their *I/O behaviour*; [`IoStats`] is the measured
//! counterpart to `relstore`'s estimated cost model. Counters accumulate
//! monotonically; callers snapshot and diff with [`IoStats::since`].

use std::fmt;

/// A snapshot of buffer-pool traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Page requests served through the pool (hits + misses).
    pub logical_reads: u64,
    /// Page requests that went to the pager (buffer misses).
    pub physical_reads: u64,
    /// Resident pages displaced to make room for another page.
    pub evictions: u64,
    /// Dirty pages written back to the pager during eviction.
    pub write_backs: u64,
    /// Dirty pages written by explicit flush/checkpoint calls.
    pub flushed_writes: u64,
    /// Records appended to the write-ahead log (page images + commits).
    pub wal_appends: u64,
    /// Bytes appended to the write-ahead log.
    pub wal_bytes: u64,
    /// fsync calls issued against the write-ahead log.
    pub wal_fsyncs: u64,
    /// Durability points whose write extended the log file: those that
    /// found it cut to zero by a close, or ran past its pre-written
    /// length. Their fsync also commits the file's new size.
    pub wal_file_grows: u64,
    /// Sync calls issued against the pager (the data file's fsyncs).
    pub pager_syncs: u64,
    /// Completed durability points
    /// ([`checkpoint`](crate::BufferPool::checkpoint)).
    pub checkpoints: u64,
    /// Completed write-backs: the log's pages written to the data file,
    /// the file synced, the log emptied.
    pub wal_drains: u64,
    /// Tuple bytes the coordinator *copied* to hand to morsel workers
    /// (overflow-chain resolution or dirty-page fallbacks). The zero-copy
    /// lease path never increments this; the perf gate asserts it stays
    /// ≈ 0 on the parallel scan path.
    pub bytes_copied_to_workers: u64,
    /// Transient buffers allocated in the morsel hot loop (page copies,
    /// per-row scratch) — the allocations the lease rework moved out of
    /// the per-row path. Should stay O(workers), not O(rows).
    pub morsel_allocs: u64,
    /// Bytes of tuple payload written through the page codec (Flat or
    /// Delta). The frontier bench divides this by logical row bytes to
    /// report the compression ratio; the perf gate pins it.
    pub tuple_bytes_encoded: u64,
    /// Tuples decoded from page bytes back into rows (scan + fetch paths,
    /// sequential and morsel workers alike — thread-count independent).
    pub tuples_decoded: u64,
    /// Wall-clock nanoseconds spent decoding page tuples on the
    /// page-scan path, kept in nanoseconds so that pages decoded in under
    /// a microsecond still add up. Published in microseconds as a gauge,
    /// never gated: latency is host-dependent (see crates/bench/src/gate.rs).
    pub decode_nanos: u64,
}

impl IoStats {
    pub fn new() -> Self {
        IoStats::default()
    }

    /// Requests served from memory.
    pub fn hits(&self) -> u64 {
        self.logical_reads - self.physical_reads
    }

    /// Fraction of logical reads served from memory (1.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.logical_reads == 0 {
            1.0
        } else {
            self.hits() as f64 / self.logical_reads as f64
        }
    }

    /// Total pages written to the pager, for any reason.
    pub fn pages_written(&self) -> u64 {
        self.write_backs + self.flushed_writes
    }

    /// Whether any WAL traffic was counted. A non-durable pool never
    /// accumulates WAL counters, so reports gate their WAL section here.
    pub fn has_wal_traffic(&self) -> bool {
        self.wal_appends > 0 || self.wal_bytes > 0 || self.wal_fsyncs > 0
    }

    /// Counter deltas since an earlier snapshot. Saturates at zero: a
    /// snapshot taken before a counter reset is "from the future" and
    /// must diff to nothing, not panic or wrap.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        self.zip(earlier, u64::saturating_sub)
    }

    /// Merge another snapshot's counters into this one.
    pub fn absorb(&mut self, other: &IoStats) {
        *self = self.zip(other, |a, b| a + b);
    }

    /// Every counter of `self` combined with the same one of `other`.
    fn zip(&self, other: &IoStats, f: impl Fn(u64, u64) -> u64) -> IoStats {
        let (a, b) = (self, other);
        IoStats {
            logical_reads: f(a.logical_reads, b.logical_reads),
            physical_reads: f(a.physical_reads, b.physical_reads),
            evictions: f(a.evictions, b.evictions),
            write_backs: f(a.write_backs, b.write_backs),
            flushed_writes: f(a.flushed_writes, b.flushed_writes),
            wal_appends: f(a.wal_appends, b.wal_appends),
            wal_bytes: f(a.wal_bytes, b.wal_bytes),
            wal_fsyncs: f(a.wal_fsyncs, b.wal_fsyncs),
            wal_file_grows: f(a.wal_file_grows, b.wal_file_grows),
            pager_syncs: f(a.pager_syncs, b.pager_syncs),
            checkpoints: f(a.checkpoints, b.checkpoints),
            wal_drains: f(a.wal_drains, b.wal_drains),
            bytes_copied_to_workers: f(a.bytes_copied_to_workers, b.bytes_copied_to_workers),
            morsel_allocs: f(a.morsel_allocs, b.morsel_allocs),
            tuple_bytes_encoded: f(a.tuple_bytes_encoded, b.tuple_bytes_encoded),
            tuples_decoded: f(a.tuples_decoded, b.tuples_decoded),
            decode_nanos: f(a.decode_nanos, b.decode_nanos),
        }
    }

    /// Publish every counter into a metrics registry under
    /// `pagestore.pool.*` / `pagestore.wal.*` / `pagestore.pager.*`, plus
    /// the hit ratio as a
    /// gauge. Counters are *set* (not added), so republishing the same
    /// cumulative snapshot is idempotent.
    pub fn publish(&self, registry: &obs::Registry) {
        registry.counter_set("pagestore.pool.logical_reads", self.logical_reads);
        registry.counter_set("pagestore.pool.physical_reads", self.physical_reads);
        registry.counter_set("pagestore.pool.evictions", self.evictions);
        registry.counter_set("pagestore.pool.write_backs", self.write_backs);
        registry.counter_set("pagestore.pool.flushed_writes", self.flushed_writes);
        registry.counter_set("pagestore.pool.checkpoints", self.checkpoints);
        registry.counter_set(
            "pagestore.pool.bytes_copied_to_workers",
            self.bytes_copied_to_workers,
        );
        registry.counter_set("pagestore.pool.morsel_allocs", self.morsel_allocs);
        registry.counter_set("pagestore.page.encoded_bytes", self.tuple_bytes_encoded);
        registry.counter_set("pagestore.page.decoded_tuples", self.tuples_decoded);
        // Wall-clock: a gauge, not a counter — the perf gate never pins
        // latency, only deterministic work counters.
        let decode_us = self.decode_nanos as f64 / 1_000.0;
        registry.gauge_set("pagestore.page.decode_us", decode_us);
        registry.counter_set("pagestore.wal.appends", self.wal_appends);
        registry.counter_set("pagestore.wal.bytes", self.wal_bytes);
        registry.counter_set("pagestore.wal.fsyncs", self.wal_fsyncs);
        registry.counter_set("pagestore.wal.file_grows", self.wal_file_grows);
        registry.counter_set("pagestore.wal.drains", self.wal_drains);
        registry.counter_set("pagestore.pager.syncs", self.pager_syncs);
        registry.gauge_set("pagestore.pool.hit_ratio", self.hit_rate());
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "logical {} | physical {} | hit rate {:.1}% | evictions {} | written {}",
            self.logical_reads,
            self.physical_reads,
            self.hit_rate() * 100.0,
            self.evictions,
            self.pages_written(),
        )?;
        // Non-durable pools have no WAL: suppress the segment rather than
        // print misleading zeros.
        if self.has_wal_traffic() {
            write!(
                f,
                " | wal {} rec / {} B / {} fsync",
                self.wal_appends, self.wal_bytes, self.wal_fsyncs,
            )?;
        }
        // The zero-copy lease path keeps both at zero; only print the
        // segment when a copy fallback actually fired.
        if self.bytes_copied_to_workers > 0 || self.morsel_allocs > 0 {
            write!(
                f,
                " | par {} B copied / {} morsel allocs",
                self.bytes_copied_to_workers, self.morsel_allocs,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_since() {
        let mut s = IoStats::new();
        assert_eq!(s.hit_rate(), 1.0);
        s.logical_reads = 10;
        s.physical_reads = 2;
        assert_eq!(s.hits(), 8);
        assert!((s.hit_rate() - 0.8).abs() < 1e-12);
        let snap = s;
        s.logical_reads = 15;
        s.physical_reads = 3;
        s.evictions = 1;
        let d = s.since(&snap);
        assert_eq!(d.logical_reads, 5);
        assert_eq!(d.physical_reads, 1);
        assert_eq!(d.evictions, 1);
        let mut acc = IoStats::new();
        acc.absorb(&d);
        acc.absorb(&d);
        assert_eq!(acc.logical_reads, 10);
    }

    /// Regression: diffing against a snapshot taken *before* a reset used
    /// unchecked subtraction — panic in debug, wrap in release. It must
    /// saturate to zero instead.
    #[test]
    fn since_saturates_across_a_reset() {
        let mut s = IoStats::new();
        s.logical_reads = 40;
        s.physical_reads = 12;
        s.evictions = 3;
        s.write_backs = 2;
        s.flushed_writes = 5;
        s.wal_appends = 7;
        s.wal_bytes = 1000;
        s.wal_fsyncs = 2;
        s.checkpoints = 1;
        let pre_reset_snapshot = s;
        let after_reset = IoStats::new(); // `reset_stats` zeroes everything
        let d = after_reset.since(&pre_reset_snapshot);
        assert_eq!(d, IoStats::new());
        assert_eq!(d.hits(), 0);
    }

    #[test]
    fn since_and_absorb_cover_wal_fsyncs() {
        let mut s = IoStats::new();
        s.wal_fsyncs = 5;
        s.pager_syncs = 1;
        s.wal_drains = 1;
        s.wal_file_grows = 1;
        let snap = s;
        s.wal_fsyncs = 9;
        s.pager_syncs = 3;
        s.wal_drains = 2;
        s.wal_file_grows = 4;
        let d = s.since(&snap);
        let counts = |s: &IoStats| (s.wal_fsyncs, s.pager_syncs, s.wal_drains, s.wal_file_grows);
        assert_eq!(counts(&d), (4, 2, 1, 3));
        let mut acc = IoStats::new();
        acc.absorb(&d);
        assert_eq!(counts(&acc), (4, 2, 1, 3));
        let reg = obs::Registry::new();
        s.publish(&reg);
        assert_eq!(reg.counter("pagestore.pager.syncs"), 3);
        assert_eq!(reg.counter("pagestore.wal.drains"), 2);
        assert_eq!(reg.counter("pagestore.wal.file_grows"), 4);
    }

    /// Regression: the Display impl printed "wal 0 rec / 0 B" even for
    /// pools with no WAL at all, so non-durable `stats` output carried a
    /// misleading WAL segment.
    #[test]
    fn display_omits_wal_segment_without_wal_traffic() {
        let mut s = IoStats::new();
        s.logical_reads = 3;
        assert!(!format!("{s}").contains("wal"));
        s.wal_appends = 2;
        s.wal_bytes = 100;
        s.wal_fsyncs = 1;
        let text = format!("{s}");
        assert!(text.contains("wal 2 rec / 100 B / 1 fsync"), "{text}");
    }

    #[test]
    fn worker_copy_counters_flow_through_since_absorb_and_publish() {
        let mut s = IoStats::new();
        s.bytes_copied_to_workers = 8192;
        s.morsel_allocs = 4;
        let snap = s;
        s.bytes_copied_to_workers = 10240;
        s.morsel_allocs = 7;
        let d = s.since(&snap);
        assert_eq!(d.bytes_copied_to_workers, 2048);
        assert_eq!(d.morsel_allocs, 3);
        let mut acc = IoStats::new();
        acc.absorb(&d);
        assert_eq!(acc.bytes_copied_to_workers, 2048);
        assert_eq!(acc.morsel_allocs, 3);
        let reg = obs::Registry::new();
        s.publish(&reg);
        assert_eq!(reg.counter("pagestore.pool.bytes_copied_to_workers"), 10240);
        assert_eq!(reg.counter("pagestore.pool.morsel_allocs"), 7);
        // Display stays silent while the zero-copy path holds.
        assert!(!format!("{}", IoStats::new()).contains("copied"));
        assert!(format!("{s}").contains("10240 B copied / 7 morsel allocs"));
    }

    #[test]
    fn codec_counters_flow_through_since_absorb_and_publish() {
        let mut s = IoStats::new();
        s.tuple_bytes_encoded = 1000;
        s.tuples_decoded = 10;
        s.decode_nanos = 50_000;
        let snap = s;
        s.tuple_bytes_encoded = 1600;
        s.tuples_decoded = 25;
        s.decode_nanos = 80_500;
        let d = s.since(&snap);
        assert_eq!(d.tuple_bytes_encoded, 600);
        assert_eq!(d.tuples_decoded, 15);
        assert_eq!(d.decode_nanos, 30_500);
        let mut acc = IoStats::new();
        acc.absorb(&d);
        acc.absorb(&d);
        assert_eq!(acc.tuples_decoded, 30);
        let reg = obs::Registry::new();
        s.publish(&reg);
        assert_eq!(reg.counter("pagestore.page.encoded_bytes"), 1600);
        assert_eq!(reg.counter("pagestore.page.decoded_tuples"), 25);
        assert_eq!(reg.gauge("pagestore.page.decode_us"), Some(80.5));
    }

    #[test]
    fn publish_exports_counters_and_hit_ratio() {
        let mut s = IoStats::new();
        s.logical_reads = 10;
        s.physical_reads = 2;
        s.wal_fsyncs = 3;
        let reg = obs::Registry::new();
        s.publish(&reg);
        assert_eq!(reg.counter("pagestore.pool.logical_reads"), 10);
        assert_eq!(reg.counter("pagestore.wal.fsyncs"), 3);
        assert_eq!(reg.gauge("pagestore.pool.hit_ratio"), Some(0.8));
        // Republishing the same snapshot is idempotent.
        s.publish(&reg);
        assert_eq!(reg.counter("pagestore.pool.logical_reads"), 10);
    }
}
