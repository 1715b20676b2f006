//! Order statistics and means the benchmark reports.  Every one of them is
//! NaN for no samples (a subject whose every operation failed), which the
//! report then names as a metric without a finite value.

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// The highest percentile not above `wanted` that still has [`MIN_BEYOND`] of
/// `n` samples beyond it, and never below the median.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    let supported = 1.0 - MIN_BEYOND as f64 / n as f64;
    wanted.min(supported).max(0.5)
}

/// The `wanted` percentile of `samples`, lowered to the highest one the
/// sample count supports.  Returns the value and the percentile used.
pub fn percentile(samples: &[f64], wanted: f64) -> (f64, f64) {
    let used = supported_percentile(samples.len(), wanted);
    (quantile_sorted(&sorted(samples), used), used)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method the
/// driver uses), so `compare` reports the spread the driver will see.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let m = data.len();
    if m < 2 {
        let only = data.first().copied().unwrap_or(f64::NAN);
        return (only, only, only);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 100 samples: exactly ten lie beyond the p90, one beyond the p99.
        assert_eq!(supported_percentile(100, 0.9), 0.9);
        assert!((supported_percentile(100, 0.99) - 0.9).abs() < 1e-12);
        assert_eq!(supported_percentile(1_000, 0.99), 0.99);
        assert!(supported_percentile(999, 0.99) < 0.99);
        // Too few samples for any tail: the median is what is left.
        assert_eq!(supported_percentile(12, 0.9), 0.5);
        assert_eq!(supported_percentile(0, 0.9), 0.5);

        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let (value, used) = percentile(&samples, 0.99);
        assert!((used - 0.95).abs() < 1e-12);
        assert!((value - 190.05).abs() < 1e-9);
        let (value, used) = percentile(&samples, 0.5);
        assert_eq!((value, used), (100.5, 0.5));
    }

    #[test]
    fn no_samples_read_nan() {
        assert!(median(&[]).is_nan());
        assert!(geomean(&[]).is_nan());
        assert!(mean(&[]).is_nan());
        assert!(percentile(&[], 0.9).0.is_nan());
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
    }
}
