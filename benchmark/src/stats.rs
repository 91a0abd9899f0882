//! Order statistics and means used for every reported figure.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method) because that is what the acceptance check
//! computes over ten runs; using the same rule here keeps `run_sets.sh` and
//! the in-run `harness.rep_iqr_share` comparable with it.

/// The value at fractional 1-based rank `rank` of `sorted`, linearly
/// interpolated and clamped to the ends.
fn at_rank(sorted: &[f64], rank: f64) -> f64 {
    let n = sorted.len();
    let rank = rank.clamp(1.0, n as f64);
    let below = rank.floor() as usize;
    let above = (below + 1).min(n);
    let frac = rank - below as f64;
    sorted[below - 1] + frac * (sorted[above - 1] - sorted[below - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    at_rank(&sorted, (sorted.len() as f64 + 1.0) / 2.0)
}

/// First and third quartile, exactly as `statistics.quantiles(values, n=4)`
/// computes them (including its extrapolation past the extremes for very
/// small samples). A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    match values.len() {
        0 => return (0.0, 0.0),
        1 => return (values[0], values[0]),
        _ => {}
    }
    let sorted = sorted(values);
    let len = sorted.len();
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let mid = median(values);
    if mid == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / mid.abs()
}

/// The `p`-th percentile (0–100) by linear interpolation between order
/// statistics (rank `1 + p/100 * (n - 1)`).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    at_rank(&sorted, 1.0 + p / 100.0 * (sorted.len() as f64 - 1.0))
}

/// Geometric mean of strictly positive values (0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `numerator / denominator`, or 0 when the denominator is 0 — per-layer
/// ratios of a layer that did no work read 0 instead of NaN.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert!((iqr_share(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let values: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 0.0), 0.0);
        assert_eq!(percentile(&[1.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn geomean_and_ratio() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
