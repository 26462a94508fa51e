//! Exact order statistics over raw samples the benchmark keeps itself.
//!
//! Every percentile the benchmark reports comes from here, never from
//! a `vqd_obs::LogHistogram` (whose quantiles are bucket bounds and can
//! exceed the observed maximum).

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the samples at or below it. `None` for
/// an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n)
}

/// Samples strictly above the nearest-rank percentile `p` of `n`
/// samples: a percentile is only quoted when this is at least 10.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Median of unsorted values (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 50.0).unwrap_or(f64::NAN)
}

/// Sort ascending; NaN sorts last.
pub fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

/// A timing distribution summarised the way the benchmark quotes it:
/// median, a high percentile, and the sample count behind them.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        sort(&mut v);
        Summary {
            n: v.len(),
            p50: percentile(&v, 50.0).unwrap_or(f64::NAN),
            p99: percentile(&v, 99.0).unwrap_or(f64::NAN),
            max: v.last().copied().unwrap_or(f64::NAN),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: sort, then index the textbook nearest rank.
    fn reference(values: &[f64], p: f64) -> f64 {
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite test data"));
        let n = v.len();
        let mut k = 1;
        while (k as f64) < p / 100.0 * n as f64 {
            k += 1;
        }
        v[k - 1]
    }

    #[test]
    fn percentile_matches_sorted_array_reference() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for n in [1usize, 2, 3, 10, 99, 100, 101, 999, 1000, 1234] {
            let values: Vec<f64> = (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % 10_000) as f64 / 7.0
                })
                .collect();
            let mut sorted = values.clone();
            sort(&mut sorted);
            for p in [0.0, 1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
                assert_eq!(
                    percentile(&sorted, p),
                    Some(reference(&values, p)),
                    "n={n} p={p}"
                );
            }
        }
    }

    #[test]
    fn percentile_never_leaves_the_observed_range() {
        let v = [3.0, 5.0, 8.0];
        assert_eq!(percentile(&v, 0.0), Some(3.0));
        assert_eq!(percentile(&v, 100.0), Some(8.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p99_has_ten_samples_beyond_it_from_a_thousand() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(1200, 99.0), 12);
        assert_eq!(beyond(0, 99.0), 0);
    }
}
