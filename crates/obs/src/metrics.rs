//! Metrics registry: counters, gauges, and log-scale latency histograms.
//!
//! Names follow `subsystem.object.verb` (e.g. `pagestore.wal.fsyncs`,
//! `orpheus.commit.latency_us`). A [`Registry`] is a cloneable handle to
//! shared state: a database owns a scoped registry so parallel tests stay
//! hermetic, while [`Registry::global`] serves code with no scope at hand.
//!
//! Histograms use power-of-two buckets — bucket 0 holds exactly `{0}`,
//! bucket `i` holds `[2^(i-1), 2^i)` — so a microsecond-latency histogram
//! spans nanos-to-hours in 64 fixed buckets. Quantiles interpolate within
//! the bucket and clamp to the observed `[min, max]`, which keeps a
//! single-observation histogram exact at every percentile.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use crate::json::Json;

const BUCKETS: usize = 65; // {0} plus one per bit of u64

/// Log2-bucketed histogram of `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Lower/upper bounds of bucket `i`: `{0}` for 0, else `[2^(i-1), 2^i)`.
    fn bucket_bounds(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 0)
        } else {
            (1u64 << (i - 1), (1u64 << (i - 1)).saturating_mul(2))
        }
    }

    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) by walking buckets and
    /// interpolating linearly inside the target bucket, clamped to the
    /// observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let before = seen as f64;
            seen += n;
            if (seen as f64) >= target {
                let (lo, hi) = Self::bucket_bounds(i);
                let frac = if n == 0 {
                    0.0
                } else {
                    ((target - before) / n as f64).clamp(0.0, 1.0)
                };
                let est = lo as f64 + frac * (hi as f64 - lo as f64);
                return est.clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Cloneable handle to a shared metrics store.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Inner>>,
}

impl Registry {
    /// A fresh, empty registry (scoped use: one per database or test).
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-wide registry, for code without a scoped one at hand.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Lock the store, recovering from poisoning: metrics are written
    /// from drop paths that run during panic unwinds, and one panicking
    /// thread must not silence the registry for the rest of the process
    /// (every mutation leaves the maps consistent).
    fn locked(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Add `delta` to a monotonically increasing counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.locked();
        *inner.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Set a counter to an absolute cumulative value. Used when a
    /// subsystem republishes a running total (e.g. `IoStats`), where
    /// repeated publishes must be idempotent rather than additive.
    pub fn counter_set(&self, name: &str, value: u64) {
        let mut inner = self.locked();
        inner.counters.insert(name.to_owned(), value);
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.locked().counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut inner = self.locked();
        inner.gauges.insert(name.to_owned(), value);
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.locked().gauges.get(name).copied()
    }

    /// Record one observation into a named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        let mut inner = self.locked();
        inner
            .histograms
            .entry(name.to_owned())
            .or_default()
            .observe(value);
    }

    /// Record a duration in microseconds into a named histogram.
    pub fn observe_duration(&self, name: &str, d: Duration) {
        self.observe(name, d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Snapshot a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.locked().histograms.get(name).cloned()
    }

    /// Drop every metric.
    pub fn reset(&self) {
        *self.locked() = Inner::default();
    }

    /// Pretty text report, sections sorted by name.
    pub fn render_text(&self) -> String {
        let inner = self.locked();
        if inner.counters.is_empty() && inner.gauges.is_empty() && inner.histograms.is_empty() {
            return "(no metrics recorded)\n".to_owned();
        }
        let width = inner
            .counters
            .keys()
            .chain(inner.gauges.keys())
            .chain(inner.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        if !inner.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &inner.counters {
                out.push_str(&format!("  {k:<width$}  {v}\n"));
            }
        }
        if !inner.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &inner.gauges {
                out.push_str(&format!("  {k:<width$}  {v:.4}\n"));
            }
        }
        if !inner.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (k, h) in &inner.histograms {
                out.push_str(&format!(
                    "  {k:<width$}  count={} mean={:.1} p50={:.0} p95={:.0} p99={:.0} max={}\n",
                    h.count(),
                    h.mean(),
                    h.p50(),
                    h.p95(),
                    h.p99(),
                    h.max(),
                ));
            }
        }
        out
    }

    /// JSON snapshot: `{"counters": {..}, "gauges": {..}, "histograms":
    /// {name: {count, sum, min, max, mean, p50, p95, p99}}}`.
    pub fn to_json(&self) -> Json {
        let inner = self.locked();
        let counters = Json::Obj(
            inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                .collect(),
        );
        let gauges = Json::Obj(
            inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            inner
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Json::object(vec![
                            ("count", Json::Num(h.count() as f64)),
                            ("sum", Json::Num(h.sum() as f64)),
                            ("min", Json::Num(h.min() as f64)),
                            ("max", Json::Num(h.max() as f64)),
                            ("mean", Json::Num(h.mean())),
                            ("p50", Json::Num(h.p50())),
                            ("p95", Json::Num(h.p95())),
                            ("p99", Json::Num(h.p99())),
                        ]),
                    )
                })
                .collect(),
        );
        Json::object(vec![
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_set_is_idempotent() {
        let reg = Registry::new();
        reg.counter_add("a.b.c", 2);
        reg.counter_add("a.b.c", 3);
        assert_eq!(reg.counter("a.b.c"), 5);
        reg.counter_set("x.y.z", 10);
        reg.counter_set("x.y.z", 10);
        assert_eq!(reg.counter("x.y.z"), 10);
        assert_eq!(reg.counter("missing"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let reg = Registry::new();
        reg.gauge_set("pool.hit_ratio", 0.25);
        reg.gauge_set("pool.hit_ratio", 0.75);
        assert_eq!(reg.gauge("pool.hit_ratio"), Some(0.75));
        assert_eq!(reg.gauge("missing"), None);
    }

    #[test]
    fn bucket_assignment_at_boundaries() {
        // bucket 0 = {0}; bucket i = [2^(i-1), 2^i)
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn single_observation_is_exact_at_every_percentile() {
        let mut h = Histogram::new();
        h.observe(777);
        for q in [0.0, 0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 777.0, "q={q}");
        }
        assert_eq!(h.min(), 777);
        assert_eq!(h.max(), 777);
        assert_eq!(h.mean(), 777.0);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn quantiles_are_monotone_and_clamped() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 200, 300, 1000, 5000, 10_000, 60_000] {
            h.observe(v);
        }
        let mut prev = 0.0;
        for i in 0..=100 {
            let q = h.quantile(i as f64 / 100.0);
            assert!(q >= prev, "quantile not monotone at {i}: {q} < {prev}");
            assert!(q >= h.min() as f64 && q <= h.max() as f64);
            prev = q;
        }
        // p99 must land near the top of the distribution.
        assert!(h.p99() >= 10_000.0, "p99={}", h.p99());
        assert!(h.p50() <= 1000.0, "p50={}", h.p50());
    }

    #[test]
    fn uniform_observations_interpolate_within_bucket() {
        // 100 observations all equal to 512: every quantile clamps to 512.
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.observe(512);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(h.quantile(q), 512.0);
        }
    }

    #[test]
    fn boundary_values_land_in_distinct_buckets() {
        // 2^k - 1 and 2^k straddle a bucket boundary; the quantile walk
        // must still separate a bimodal distribution at that boundary.
        let mut h = Histogram::new();
        for _ in 0..50 {
            h.observe(255); // bucket 8
        }
        for _ in 0..50 {
            h.observe(256); // bucket 9
        }
        assert!(h.quantile(0.25) <= 255.0 + 1.0);
        assert!(h.quantile(0.90) >= 256.0);
        assert_eq!(h.min(), 255);
        assert_eq!(h.max(), 256);
    }

    #[test]
    fn zero_observations_stay_in_zero_bucket() {
        let mut h = Histogram::new();
        h.observe(0);
        h.observe(0);
        h.observe(8);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.max(), 8);
    }

    #[test]
    fn duration_observations_convert_to_micros() {
        let reg = Registry::new();
        reg.observe_duration("op.latency_us", Duration::from_millis(3));
        let h = reg.histogram("op.latency_us").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 3000);
    }

    #[test]
    fn json_snapshot_has_three_sections_and_parses() {
        let reg = Registry::new();
        reg.counter_add("pagestore.wal.fsyncs", 4);
        reg.gauge_set("pagestore.pool.hit_ratio", 0.9);
        reg.observe("orpheus.commit.latency_us", 1500);
        let text = reg.to_json().to_string_pretty();
        let doc = crate::json::parse(&text).unwrap();
        assert_eq!(
            doc.get_path("counters/pagestore.wal.fsyncs")
                .and_then(Json::as_f64),
            Some(4.0)
        );
        assert_eq!(
            doc.get_path("gauges/pagestore.pool.hit_ratio")
                .and_then(Json::as_f64),
            Some(0.9)
        );
        assert!(doc
            .get_path("histograms/orpheus.commit.latency_us/p99")
            .is_some());
    }

    #[test]
    fn reset_clears_everything() {
        let reg = Registry::new();
        reg.counter_add("c", 1);
        reg.gauge_set("g", 1.0);
        reg.observe("h", 1);
        reg.reset();
        assert_eq!(reg.counter("c"), 0);
        assert_eq!(reg.gauge("g"), None);
        assert!(reg.histogram("h").is_none());
        assert_eq!(reg.render_text(), "(no metrics recorded)\n");
    }

    #[test]
    fn text_render_lists_all_kinds() {
        let reg = Registry::new();
        reg.counter_add("counter.one", 7);
        reg.gauge_set("gauge.one", 0.5);
        reg.observe("hist.one", 100);
        let text = reg.render_text();
        assert!(text.contains("counter.one"), "{text}");
        assert!(text.contains("gauge.one"), "{text}");
        assert!(text.contains("hist.one"), "{text}");
        assert!(text.contains("p99"), "{text}");
    }
}
