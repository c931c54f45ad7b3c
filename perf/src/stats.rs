//! Order statistics over trial values. Metrics are medians of trials,
//! never best-of-N: the median is what a second run reproduces.

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the rule the benchmark's
/// acceptance check applies). One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "no trial values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if v.len() == 1 {
        return (v[0], v[0], v[0]);
    }
    let ld = v.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the benchmark's bounds are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The `p`-quantile (0..=1) of already sorted integer samples, by the
/// nearest-rank rule.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> u32 {
    assert!(!sorted.is_empty(), "no samples");
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 0.5), 50);
        assert_eq!(percentile_sorted(&s, 0.99), 99);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
    }
}
