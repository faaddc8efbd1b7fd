//! Order statistics and the bound comparison the benchmark judges itself
//! (and every later change) with.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted values (mean of the two middle ones for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) does, so
/// the spreads printed here are the ones the acceptance check computes.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// By what share of `first` the value `second` is *worse* (negative when it
/// is better).
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    let diff = match better {
        Better::Lower => second - first,
        Better::Higher => first - second,
    };
    if first == 0.0 {
        if diff > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        diff / first.abs()
    }
}

/// Whether `second` is no worse than `first` by more than `bound`.
pub fn within_bound(better: Better, bound: f64, first: f64, second: f64) -> bool {
    worsening(better, first, second) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[1, 2, 3], 50.0), Some(2));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[5.0, 5.0, 5.0, 5.0]), Some(0.0));
    }

    #[test]
    fn bound_comparison_respects_direction() {
        // Lower is better: 10 % slower is outside a 5 % bound, 4 % inside.
        assert!(!within_bound(Better::Lower, 0.05, 100.0, 110.0));
        assert!(within_bound(Better::Lower, 0.05, 100.0, 104.0));
        assert!(within_bound(Better::Lower, 0.05, 100.0, 50.0));
        // Higher is better: losing 10 % throughput is outside, gaining is in.
        assert!(!within_bound(Better::Higher, 0.05, 100.0, 90.0));
        assert!(within_bound(Better::Higher, 0.05, 100.0, 96.0));
        assert!(within_bound(Better::Higher, 0.05, 100.0, 200.0));
        // A zero bound demands "no worse at all".
        assert!(within_bound(Better::Lower, 0.0, 42.0, 42.0));
        assert!(!within_bound(Better::Lower, 0.0, 42.0, 42.5));
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 1.0), f64::INFINITY);
    }
}
