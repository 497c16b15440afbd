//! The CI perf-regression gate's comparison engine.
//!
//! Compares a freshly produced metrics snapshot (`metrics_smoke.json`
//! from the `obs_smoke` workload) against the checked-in baseline with
//! per-key tolerances. The gated quantities are the *deterministic* work
//! counters — page reads, WAL appends/fsyncs, tracker tuples/evals —
//! which this repository uses as its machine-independent perf proxy
//! throughout; wall-clock latency fields are never gated (CI hosts vary),
//! but the deterministic `count` of each latency histogram is.
//!
//! A counter may regress (exceed baseline by more than its tolerance) →
//! gate failure. A counter may *improve* past tolerance → the gate
//! passes but asks for a baseline refresh, so the better number becomes
//! the new floor.

use obs::Json;

/// Relative tolerance for a metric key, or `None` when the key is not
/// gated. Sections are `counters`, `gauges`, `histograms`.
pub fn tolerance(section: &str, key: &str) -> Option<f64> {
    match section {
        // Estimated-cost tracker counters are fully deterministic —
        // tightest band.
        "counters" if key.starts_with("relstore.tracker.") => Some(0.05),
        // Page/WAL traffic is deterministic given a fixed pool size, but
        // leave headroom for benign layout drift.
        "counters" => Some(0.10),
        // Hit ratio is a quality gauge: gated on the downside only (a
        // higher ratio is never a regression).
        "gauges" if key == "pagestore.pool.hit_ratio" => Some(0.15),
        // Latency histograms: the event counts are deterministic and
        // gated exactly; the microsecond fields are host noise.
        "histograms" if key.ends_with("/count") => Some(0.0),
        _ => None,
    }
}

/// Outcome of one baseline/current comparison.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Keys whose current value regressed past tolerance (gate fails).
    pub regressions: Vec<String>,
    /// Keys whose current value improved past tolerance (refresh hint).
    pub improvements: Vec<String>,
    /// Gated keys checked.
    pub checked: usize,
}

impl GateReport {
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn flatten(v: &Json, prefix: String, out: &mut Vec<(String, f64)>) {
    match v {
        Json::Num(n) => out.push((prefix, *n)),
        Json::Obj(m) => {
            for (k, v) in m {
                let p = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}/{k}")
                };
                flatten(v, p, out);
            }
        }
        _ => {}
    }
}

fn numeric_keys(doc: &Json, section: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    if let Some(v) = doc.get(section) {
        flatten(v, String::new(), &mut out);
    }
    out
}

/// Compare `current` against `baseline`. Every gated key present in the
/// baseline must exist in the current snapshot (a vanished counter is a
/// regression: the instrumentation was lost).
pub fn compare(baseline: &Json, current: &Json) -> GateReport {
    let mut report = GateReport::default();
    for section in ["counters", "gauges", "histograms"] {
        for (key, base) in numeric_keys(baseline, section) {
            let Some(tol) = tolerance(section, &key) else {
                continue;
            };
            report.checked += 1;
            let path = format!("{section}/{key}");
            let Some(cur) = current.get_path(&path).and_then(Json::as_f64) else {
                report
                    .regressions
                    .push(format!("{path}: present in baseline, missing from current"));
                continue;
            };
            // `hit_ratio` is higher-is-better; everything else gated is
            // a work counter where higher is worse.
            let higher_is_better = key == "pagestore.pool.hit_ratio";
            let (worse, better) = if higher_is_better {
                (base - cur, cur - base)
            } else {
                (cur - base, base - cur)
            };
            let band = base.abs() * tol;
            // Exactly-gated keys (tolerance 0) regress on drift in either
            // direction — a vanished histogram observation is lost
            // instrumentation, not a win.
            let drifted = worse > band + f64::EPSILON || (tol == 0.0 && better > f64::EPSILON);
            if drifted {
                report.regressions.push(format!(
                    "{path}: baseline {base}, current {cur} (beyond ±{:.0}%)",
                    tol * 100.0
                ));
            } else if better > band + f64::EPSILON {
                report
                    .improvements
                    .push(format!("{path}: baseline {base}, current {cur}"));
            }
        }
    }
    report
}

/// The most bytes each frontier dataset may store: what the Flat codec
/// stored for it when Flat became the one page format. A dataset with
/// no bound here fails [`check_frontier`].
const FRONTIER_MAX_BYTES: [(&str, f64); 4] = [
    ("SCI_SMOKE", 493_864.0),
    ("CUR_SMOKE", 907_168.0),
    ("SCI_1M", 318_833_534.0),
    ("CUR_1M", 903_977_946.0),
];

/// Absolute assertions over the `frontier_smoke.json` results document
/// (the storage/recreation gate).
///
/// Needs no baseline, unlike [`compare`]: every dataset's stored bytes
/// must stay within its recorded bound ([`FRONTIER_MAX_BYTES`]), so a
/// change that bloats the pages fails; every frontier point must respect its
/// budget (`storage_records ≤ beta`) and more budget must never worsen
/// the objective (ΣR at the loosest factor ≤ ΣR at the tightest); the
/// budget-oracle leg must stay within its recorded LMG/exact ratio bound
/// or record why it was skipped; and the full (1M) tier must either have
/// run or carry a skip reason — a silently dropped leg is a regression.
/// Wall-clock checkout times are reported but never gated.
pub fn check_frontier(doc: &Json) -> GateReport {
    let mut report = GateReport::default();
    let num = |v: &Json, path: &str| v.get_path(path).and_then(Json::as_f64);

    let datasets = match doc.get("datasets") {
        Some(Json::Arr(d)) if !d.is_empty() => d.as_slice(),
        _ => {
            report.regressions.push("datasets: missing or empty".into());
            report.checked += 1;
            &[]
        }
    };
    for (i, ds) in datasets.iter().enumerate() {
        let name = ds
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned();
        report.checked += 1;
        let bound = FRONTIER_MAX_BYTES.iter().find(|(n, _)| *n == name);
        match (num(ds, "storage/bytes"), bound) {
            (Some(bytes), Some(&(_, max))) if bytes <= max => {}
            (Some(bytes), Some(&(_, max))) => report.regressions.push(format!(
                "datasets[{i}] {name}: stored bytes {bytes} above the recorded {max}"
            )),
            (None, _) => report
                .regressions
                .push(format!("datasets[{i}] {name}: storage/bytes missing")),
            (Some(_), None) => report
                .regressions
                .push(format!("datasets[{i}] {name}: no recorded byte bound")),
        }
        report.checked += 1;
        match ds.get("frontier") {
            Some(Json::Arr(points)) if !points.is_empty() => {
                for (j, p) in points.iter().enumerate() {
                    match (num(p, "storage_records"), num(p, "beta")) {
                        (Some(s), Some(b)) if s <= b => {}
                        (Some(s), Some(b)) => report.regressions.push(format!(
                            "datasets[{i}] {name} frontier[{j}]: storage {s} exceeds budget β {b}"
                        )),
                        _ => report.regressions.push(format!(
                            "datasets[{i}] {name} frontier[{j}]: storage_records or beta missing"
                        )),
                    }
                }
                let first = num(&points[0], "sum_recreation");
                let last = points.last().and_then(|p| num(p, "sum_recreation"));
                match (first, last) {
                    (Some(tight), Some(loose)) if loose <= tight => {}
                    (Some(tight), Some(loose)) => report.regressions.push(format!(
                        "datasets[{i}] {name}: ΣR worsened with budget ({tight} → {loose})"
                    )),
                    _ => report.regressions.push(format!(
                        "datasets[{i}] {name}: frontier sum_recreation missing"
                    )),
                }
            }
            _ => report
                .regressions
                .push(format!("datasets[{i}] {name}: frontier missing or empty")),
        }
    }

    report.checked += 1;
    match doc.get_path("budget_oracle/ran") {
        Some(Json::Bool(true)) => {
            match (
                num(doc, "budget_oracle/worst_ratio"),
                num(doc, "budget_oracle/max_ratio"),
            ) {
                (Some(worst), Some(max)) if worst <= max => {}
                (Some(worst), Some(max)) => report.regressions.push(format!(
                    "budget_oracle: LMG/exact ratio {worst:.3} above the {max:.1} bound"
                )),
                _ => report
                    .regressions
                    .push("budget_oracle: worst_ratio/max_ratio missing".into()),
            }
        }
        Some(Json::Bool(false)) => {
            let reason = doc
                .get_path("budget_oracle/skip_reason")
                .and_then(Json::as_str)
                .unwrap_or("");
            if reason.is_empty() {
                report
                    .regressions
                    .push("budget_oracle: skipped without a recorded skip_reason".into());
            }
        }
        _ => report
            .regressions
            .push("budget_oracle/ran: missing from results".into()),
    }

    report.checked += 1;
    match doc.get_path("full_tier/ran") {
        Some(Json::Bool(true)) => {}
        Some(Json::Bool(false)) => {
            let reason = doc
                .get_path("full_tier/skip_reason")
                .and_then(Json::as_str)
                .unwrap_or("");
            if reason.is_empty() {
                report
                    .regressions
                    .push("full_tier: skipped without a recorded skip_reason".into());
            }
        }
        _ => report
            .regressions
            .push("full_tier/ran: missing from results".into()),
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(logical_reads: f64, tuples: f64, hit: f64, commits: f64) -> Json {
        obs::parse(&format!(
            r#"{{
              "counters": {{
                "pagestore.pool.logical_reads": {logical_reads},
                "relstore.tracker.tuples": {tuples}
              }},
              "gauges": {{ "pagestore.pool.hit_ratio": {hit} }},
              "histograms": {{
                "orpheus.commit.latency_us": {{ "count": {commits}, "p50": 1400 }}
              }}
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_snapshots_pass() {
        let b = snapshot(38.0, 123.0, 1.0, 3.0);
        let r = compare(&b, &b);
        assert!(r.passed(), "{:?}", r.regressions);
        assert!(r.improvements.is_empty());
        // logical_reads + tuples + hit_ratio + commit count are gated.
        assert_eq!(r.checked, 4);
    }

    #[test]
    fn counter_regression_fails() {
        let b = snapshot(38.0, 123.0, 1.0, 3.0);
        let c = snapshot(38.0, 140.0, 1.0, 3.0); // tuples +13.8% > 5%
        let r = compare(&b, &c);
        assert_eq!(r.regressions.len(), 1, "{:?}", r.regressions);
        assert!(r.regressions[0].contains("relstore.tracker.tuples"));
    }

    #[test]
    fn small_drift_within_tolerance_passes() {
        let b = snapshot(38.0, 123.0, 1.0, 3.0);
        let c = snapshot(41.0, 125.0, 1.0, 3.0); // +7.9% and +1.6%
        assert!(compare(&b, &c).passed());
    }

    #[test]
    fn improvement_passes_but_is_reported() {
        let b = snapshot(38.0, 123.0, 1.0, 3.0);
        let c = snapshot(20.0, 123.0, 1.0, 3.0);
        let r = compare(&b, &c);
        assert!(r.passed());
        assert_eq!(r.improvements.len(), 1);
    }

    #[test]
    fn hit_ratio_gated_downward_only() {
        let b = snapshot(38.0, 123.0, 0.9, 3.0);
        let worse = snapshot(38.0, 123.0, 0.5, 3.0);
        assert!(!compare(&b, &worse).passed());
        let better = snapshot(38.0, 123.0, 1.0, 3.0);
        assert!(compare(&b, &better).passed());
    }

    #[test]
    fn histogram_count_exact_latency_ignored() {
        let b = snapshot(38.0, 123.0, 1.0, 3.0);
        // One lost commit observation fails even though p50 is ignored.
        let c = snapshot(38.0, 123.0, 1.0, 2.0);
        let r = compare(&b, &c);
        assert!(!r.passed());
        assert!(r.regressions[0].contains("latency_us/count"));
    }

    #[test]
    fn missing_gated_key_fails() {
        let b = snapshot(38.0, 123.0, 1.0, 3.0);
        let c = obs::parse(r#"{"counters": {}, "gauges": {}, "histograms": {}}"#).unwrap();
        let r = compare(&b, &c);
        assert!(!r.passed());
        assert!(r.regressions.iter().any(|m| m.contains("missing")));
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "each test names only the knob it perturbs; a struct would repeat the JSON"
    )]
    fn frontier_doc(
        bytes: f64,
        storage: f64,
        beta: f64,
        sum_tight: f64,
        sum_loose: f64,
        worst_ratio: f64,
        full_ran: bool,
        full_reason: &str,
    ) -> Json {
        obs::parse(&format!(
            r#"{{
              "tier": "smoke",
              "datasets": [
                {{
                  "name": "SCI_SMOKE",
                  "versions": 60,
                  "records": 2400,
                  "storage": {{ "bytes": {bytes} }},
                  "recreation": {{
                    "sampled_versions": 12,
                    "ms_per_checkout": 1.0,
                    "decoded_tuples": 9000
                  }},
                  "frontier": [
                    {{"factor": 1.0, "beta": {beta}, "min_storage": {beta},
                      "storage_records": {storage}, "sum_recreation": {sum_tight},
                      "max_recreation": 900, "materialized": 1}},
                    {{"factor": 5.0, "beta": {b5}, "min_storage": {beta},
                      "storage_records": {storage}, "sum_recreation": {sum_loose},
                      "max_recreation": 400, "materialized": 7}}
                  ]
                }}
              ],
              "budget_oracle": {{
                "ran": true, "skip_reason": "", "cases": 12,
                "worst_ratio": {worst_ratio}, "max_ratio": 1.5
              }},
              "full_tier": {{ "ran": {full_ran}, "skip_reason": "{full_reason}" }}
            }}"#,
            b5 = beta * 5.0,
        ))
        .unwrap()
    }

    fn good_frontier() -> Json {
        frontier_doc(
            493_864.0,
            5000.0,
            5000.0,
            9000.0,
            4000.0,
            1.1,
            false,
            "tier runs locally",
        )
    }

    #[test]
    fn frontier_good_doc_passes() {
        let r = check_frontier(&good_frontier());
        assert!(r.passed(), "{:?}", r.regressions);
        // 2 per dataset + oracle + full-tier contract.
        assert_eq!(r.checked, 4);
    }

    #[test]
    fn frontier_bytes_above_the_recorded_bound_fail() {
        let doc = frontier_doc(
            493_865.0, 5000.0, 5000.0, 9000.0, 4000.0, 1.1, false, "local",
        );
        let r = check_frontier(&doc);
        assert!(!r.passed());
        assert!(r
            .regressions
            .iter()
            .any(|m| m.contains("stored bytes 493865 above the recorded 493864")));
    }

    #[test]
    fn frontier_dataset_without_a_bound_fails() {
        let doc = good_frontier().to_string_pretty();
        let doc = obs::parse(&doc.replace("SCI_SMOKE", "SCI_NEW")).unwrap();
        let r = check_frontier(&doc);
        assert!(r
            .regressions
            .iter()
            .any(|m| m.contains("SCI_NEW: no recorded byte bound")));
    }

    #[test]
    fn frontier_budget_overrun_fails() {
        let doc = frontier_doc(
            493_864.0, 6000.0, 5000.0, 9000.0, 4000.0, 1.1, false, "local",
        );
        let r = check_frontier(&doc);
        assert!(!r.passed());
        assert!(r.regressions.iter().any(|m| m.contains("exceeds budget")));
    }

    #[test]
    fn frontier_recreation_must_not_worsen_with_budget() {
        let doc = frontier_doc(
            493_864.0, 5000.0, 5000.0, 4000.0, 9000.0, 1.1, false, "local",
        );
        let r = check_frontier(&doc);
        assert!(!r.passed());
        assert!(r
            .regressions
            .iter()
            .any(|m| m.contains("worsened with budget")));
    }

    #[test]
    fn frontier_oracle_ratio_bound_enforced() {
        let doc = frontier_doc(
            493_864.0, 5000.0, 5000.0, 9000.0, 4000.0, 2.7, false, "local",
        );
        let r = check_frontier(&doc);
        assert!(!r.passed());
        assert!(r
            .regressions
            .iter()
            .any(|m| m.contains("above the 1.5 bound")));
    }

    #[test]
    fn frontier_silent_full_tier_skip_fails() {
        let doc = frontier_doc(493_864.0, 5000.0, 5000.0, 9000.0, 4000.0, 1.1, false, "");
        let r = check_frontier(&doc);
        assert!(!r.passed());
        assert!(r
            .regressions
            .iter()
            .any(|m| m.contains("full_tier: skipped without a recorded skip_reason")));
    }

    #[test]
    fn frontier_empty_doc_fails_everything() {
        let doc = obs::parse(r#"{"tier": "smoke"}"#).unwrap();
        let r = check_frontier(&doc);
        assert_eq!(r.regressions.len(), 3, "{:?}", r.regressions);
    }
}
