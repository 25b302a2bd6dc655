//! Order statistics used for every reported number: nearest-rank
//! percentiles for latency samples, and median / quartiles for per-round
//! host-clock values.

/// Nearest-rank percentile of an ascending-sorted sample (`q` in `0..=1`);
/// 0 for an empty sample. Same rule as `SimReport`'s percentiles.
pub fn percentile_nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so a spread
/// computed here equals the one the acceptance check computes. Fewer than
/// two values have no spread: both quartiles equal the single value (or 0).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |i: usize| -> f64 {
        // Cut point i of 4 over n values: position i*(n+1)/4, 1-based.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range over the median: the run-to-run spread every bound
/// in `BENCHMARK.json` is compared with. 0 when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_nearest_rank(&s, 0.50), 50);
        assert_eq!(percentile_nearest_rank(&s, 0.99), 99);
        assert_eq!(percentile_nearest_rank(&s, 1.0), 100);
        assert_eq!(percentile_nearest_rank(&s, 0.0), 1, "rank clamps to 1");
        assert_eq!(percentile_nearest_rank(&[7], 0.99), 7);
        assert_eq!(percentile_nearest_rank(&[], 0.5), 0);
        // 5 samples: p50 -> ceil(2.5) = 3rd, p99 -> ceil(4.95) = 5th.
        assert_eq!(percentile_nearest_rank(&[10, 20, 30, 40, 50], 0.5), 30);
        assert_eq!(percentile_nearest_rank(&[10, 20, 30, 40, 50], 0.99), 50);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[4.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 4.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]);
        assert_eq!((q1, q3), (7.5, 22.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12, "(8.25 - 2.75) / 5.5");
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
