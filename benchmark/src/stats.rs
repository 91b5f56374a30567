//! Order statistics used for every reported number.

/// Sorts `v` ascending (all benchmark samples are finite).
pub fn sort(v: &mut [f64]) {
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite sample"));
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice; 0 for
/// an empty one.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Sorts `v` and returns its nearest-rank percentile.
pub fn percentile_of(mut v: Vec<f64>, p: u32) -> f64 {
    sort(&mut v);
    percentile(&v, p)
}

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of p50/p90/p99 that `n` samples support: a percentile is
/// reported only with at least ten samples beyond it.
pub fn supported_percentile(n: usize) -> Option<u32> {
    [99u32, 90, 50]
        .into_iter()
        .find(|&p| n - (n * p as usize).div_ceil(100) >= 10)
}

/// Quartile cut points of `v` as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method the acceptance check uses).
pub fn quartiles(mut v: Vec<f64>) -> [f64; 3] {
    sort(&mut v);
    let m = v.len();
    assert!(m >= 2, "quartiles need two samples");
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_share(v: Vec<f64>) -> f64 {
    let [q1, _, q3] = quartiles(v.clone());
    (q3 - q1) / median(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&v[..3], 50), 2.0);
        assert_eq!(percentile(&[], 50), 0.0);
    }

    #[test]
    fn picker_wants_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50));
        assert_eq!(supported_percentile(99), Some(50));
        assert_eq!(supported_percentile(100), Some(90));
        assert_eq!(supported_percentile(999), Some(90));
        assert_eq!(supported_percentile(1000), Some(99));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(v.clone()), [2.75, 5.5, 8.25]);
        assert!((iqr_share(v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(vec![3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(vec![5.0]), 5.0);
    }
}
