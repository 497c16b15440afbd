//! Percentile and sample-count rules shared by every metric.

/// A 95th percentile needs ten samples beyond it to mean anything
/// (choosing-metrics § 1), i.e. at least 200 samples.
pub const P95_MIN_SAMPLES: usize = 200;

/// Nearest-rank percentile (`q` in `(0, 1]`) of unsorted samples; `None`
/// for an empty set.
fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn p50(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.50)
}

/// Refused (`None`) below [`P95_MIN_SAMPLES`] samples.
pub fn p95(samples: &[f64]) -> Option<f64> {
    if samples.len() < P95_MIN_SAMPLES {
        return None;
    }
    percentile(samples, 0.95)
}

/// Median of per-round (or per-repetition) values; the mean of the two
/// middle ones for an even count, 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was counted (an idle layer).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(p50(&s), Some(100.0));
        assert_eq!(p95(&s), Some(190.0));
        assert_eq!(p50(&[7.0]), Some(7.0));
        assert_eq!(p50(&[]), None);
    }

    #[test]
    fn p95_is_refused_below_200_samples() {
        let s: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(p95(&s), None);
        assert!(p50(&s).is_some());
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
