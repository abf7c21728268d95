//! Order statistics over measured samples. Every percentile here is computed
//! from the raw samples, never from the program's power-of-two histogram
//! buckets, which can be off by up to 2x.

/// Samples that must lie beyond a reported percentile for it to be trusted.
pub const TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (0..=100) by linear interpolation between closest
/// ranks. Returns `None` on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Median, or `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Whether `n` samples leave at least [`TAIL_SAMPLES`] beyond the `p`-th
/// percentile.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    n as f64 * (100.0 - p) / 100.0 >= TAIL_SAMPLES as f64
}

/// `(percentile, value)`: `preferred` when at least [`TAIL_SAMPLES`] samples
/// lie beyond it, else the highest percentile that leaves that many (at
/// least the median).
pub fn tail(values: &[f64], preferred: f64) -> (f64, f64) {
    let n = values.len();
    let pct = if supports_percentile(n, preferred) {
        preferred
    } else {
        (100.0 * (1.0 - TAIL_SAMPLES as f64 / n as f64)).max(50.0)
    };
    (pct, percentile(values, pct).unwrap_or(0.0))
}

/// Arithmetic mean, `0` on an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, `0` when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_support_needs_ten_samples_beyond() {
        assert!(supports_percentile(1000, 99.0));
        assert!(!supports_percentile(999, 99.0));
        assert!(supports_percentile(100, 90.0));
        assert!(!supports_percentile(99, 90.0));
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&v, 90.0).0, 80.0, "50 samples leave ten beyond p80");
        assert_eq!(tail(&v[..5], 90.0).0, 50.0);
    }
}
