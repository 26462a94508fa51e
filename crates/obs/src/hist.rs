//! Log-linear histograms: fixed memory, mergeable, bounded relative
//! error on quantiles.
//!
//! Values are bucketed HdrHistogram-style: the exponent of the value
//! selects an octave and the top [`SUB_BITS`] mantissa bits select one
//! of [`SUBS`] linear sub-buckets inside it, so every bucket spans at
//! most `1/16` of its value — quantile estimates are upper bucket
//! bounds clamped to the observed `[min, max]`, and therefore within
//! `+6.25 %` of the true order statistic and never outside the data.
//! The exponent range is clamped to `[MIN_EXP, MAX_EXP]`
//! (≈ 2.3e-10 … 1.8e19), which covers every quantity the pipeline
//! records (nanoseconds to bytes); out-of-range values saturate into
//! the first/last bucket. Non-positive values are counted separately
//! (they carry no magnitude to bucket), NaNs are counted and otherwise
//! ignored.
//!
//! Merging is bucket-wise addition, so it is associative and
//! commutative: any sharding of a value stream across threads merges
//! back to the identical histogram (proven by proptest).

/// Linear sub-buckets per octave (2^SUB_BITS).
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
pub const SUBS: usize = 1 << SUB_BITS;
/// Smallest representable exponent (values below saturate).
const MIN_EXP: i32 = -32;
/// Largest representable exponent (values above saturate).
const MAX_EXP: i32 = 63;
/// Total bucket count.
/// Total bucket count — the valid index range for
/// [`LogHistogram::from_parts`] sparse pairs.
pub const BUCKETS: usize = ((MAX_EXP - MIN_EXP + 1) as usize) * SUBS;

/// A mergeable log-linear histogram of `f64` samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogHistogram {
    /// Bucket counts; allocated lazily on the first positive record.
    buckets: Vec<u64>,
    /// Positive, finite samples recorded (the quantile population).
    count: u64,
    /// Samples that were `<= 0.0` (magnitude-less; excluded from
    /// quantiles but reported).
    non_positive: u64,
    /// NaN samples (always a bug upstream, but never a panic here).
    nan: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Bucket index for a positive finite value.
fn index_of(v: f64) -> usize {
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7FF) as i32 - 1023;
    if exp < MIN_EXP {
        return 0;
    }
    if exp > MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    (exp - MIN_EXP) as usize * SUBS + sub
}

/// Upper bound of bucket `i` (the value a quantile estimate reports).
fn upper_bound(i: usize) -> f64 {
    let exp = MIN_EXP + (i / SUBS) as i32;
    let sub = (i % SUBS) as f64;
    (2f64).powi(exp) * (1.0 + (sub + 1.0) / SUBS as f64)
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        if v.is_nan() {
            self.nan += 1;
            return;
        }
        if v <= 0.0 {
            self.non_positive += 1;
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = vec![0; BUCKETS];
        }
        self.buckets[index_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        if self.count == 1 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    /// Merge `other` into `self` (bucket-wise addition; commutative
    /// and associative).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count > 0 {
            if self.buckets.is_empty() {
                self.buckets = vec![0; BUCKETS];
            }
            for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
                *a += b;
            }
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
            self.count += other.count;
            self.sum += other.sum;
        }
        self.non_positive += other.non_positive;
        self.nan += other.nan;
    }

    /// Positive samples recorded (the quantile population).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples that were zero or negative.
    pub fn non_positive(&self) -> u64 {
        self.non_positive
    }

    /// NaN samples seen.
    pub fn nan(&self) -> u64 {
        self.nan
    }

    /// Sum of positive samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of positive samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count > 0 {
            self.sum / self.count as f64
        } else {
            0.0
        }
    }

    /// Smallest positive sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count > 0 {
            self.min
        } else {
            0.0
        }
    }

    /// Largest positive sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count > 0 {
            self.max
        } else {
            0.0
        }
    }

    /// Quantile estimate: the upper bound of the bucket holding the
    /// `q`-th order statistic of the positive samples, clamped to the
    /// observed `[min, max]`. Guaranteed in `[v, v * (1 + 1/SUBS)]`
    /// for the true order statistic `v` (within the clamped exponent
    /// range), and monotone in `q`. Returns 0 for an empty histogram;
    /// `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the order statistic: ceil(q * n), at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return upper_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// `(p50, p95, p99)` shorthand.
    pub fn percentiles(&self) -> (f64, f64, f64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }

    /// Upper bound of bucket index `i` — the boundary a cumulative
    /// (`le`) series reports for that bucket.
    pub fn bucket_bound(i: usize) -> f64 {
        upper_bound(i.min(BUCKETS - 1))
    }

    /// Occupied buckets as `(index, count)` pairs, ascending. Empty
    /// buckets are skipped, so the result is `O(distinct magnitudes)`
    /// rather than the full table.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Cumulative bucket series for exposition: `(upper_bound,
    /// cumulative_count)` at every occupied bucket, ascending, with the
    /// final entry's count equal to [`count`](LogHistogram::count).
    /// Counts are monotone non-decreasing by construction. Empty
    /// histograms yield an empty series.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, c) in self.nonzero_buckets() {
            cum += c;
            out.push((upper_bound(i), cum));
        }
        out
    }

    /// Reassemble a histogram from its serialized parts: sparse
    /// `(bucket index, count)` pairs plus the scalar fields. The
    /// inverse of reading [`nonzero_buckets`] and the accessors —
    /// used by the model drift stamp's text round trip. Rejects
    /// out-of-range bucket indices, bucket/count mismatches and
    /// non-finite extrema.
    pub fn from_parts(
        sparse: &[(usize, u64)],
        non_positive: u64,
        nan: u64,
        sum: f64,
        min: f64,
        max: f64,
    ) -> Result<LogHistogram, String> {
        let mut h = LogHistogram::new();
        let mut count = 0u64;
        if !sparse.is_empty() {
            h.buckets = vec![0; BUCKETS];
            for &(i, c) in sparse {
                if i >= BUCKETS {
                    return Err(format!("bucket index {i} out of range (max {BUCKETS})"));
                }
                if c == 0 {
                    return Err(format!("bucket {i} has zero count"));
                }
                h.buckets[i] += c;
                count += c;
            }
        }
        if count > 0 && !(sum.is_finite() && min.is_finite() && max.is_finite()) {
            return Err("non-finite histogram extrema".to_string());
        }
        if count > 0 && min > max {
            return Err(format!("histogram min {min} > max {max}"));
        }
        h.count = count;
        h.non_positive = non_positive;
        h.nan = nan;
        if count > 0 {
            h.sum = sum;
            h.min = min;
            h.max = max;
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zeroes() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn single_value_quantiles_are_tight() {
        let mut h = LogHistogram::new();
        h.record(100.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let est = h.quantile(q);
            assert!(
                est >= 100.0 && est <= 100.0 * (1.0 + 1.0 / SUBS as f64),
                "{est}"
            );
        }
        assert_eq!(h.min(), 100.0);
        assert_eq!(h.max(), 100.0);
        assert_eq!(h.mean(), 100.0);
    }

    #[test]
    fn non_positive_and_nan_are_counted_not_bucketed() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::NAN);
        h.record(2.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.non_positive(), 2);
        assert_eq!(h.nan(), 1);
        assert!(h.quantile(0.5) >= 2.0);
    }

    #[test]
    fn saturates_outside_exponent_range() {
        let mut h = LogHistogram::new();
        h.record(1e-300);
        h.record(1e300);
        assert_eq!(h.count(), 2);
        // Both land in the clamped edge buckets; quantiles stay finite
        // and ordered.
        assert!(h.quantile(0.01) <= h.quantile(0.99));
        assert!(h.quantile(0.99).is_finite());
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_complete() {
        let mut h = LogHistogram::new();
        for v in [0.5, 1.0, 3.2, 19.0, 19.0, 1e6, 7e-8, 42.0] {
            h.record(v);
        }
        let series = h.cumulative_buckets();
        assert!(!series.is_empty());
        for w in series.windows(2) {
            assert!(w[0].0 < w[1].0, "bounds not ascending: {series:?}");
            assert!(w[0].1 <= w[1].1, "counts not monotone: {series:?}");
        }
        assert_eq!(series.last().map(|&(_, c)| c), Some(h.count()));
        // Every bound is a real bucket upper bound and brackets max.
        assert!(series.last().is_some_and(|&(ub, _)| ub >= h.max()));
        assert!(LogHistogram::new().cumulative_buckets().is_empty());
    }

    #[test]
    fn from_parts_round_trips() {
        let mut h = LogHistogram::new();
        for v in [0.5, 3.2, 19.0, -1.0, 0.0, f64::NAN, 1e6] {
            h.record(v);
        }
        let sparse: Vec<(usize, u64)> = h.nonzero_buckets().collect();
        let back = LogHistogram::from_parts(
            &sparse,
            h.non_positive(),
            h.nan(),
            h.sum(),
            h.min(),
            h.max(),
        )
        .unwrap();
        assert_eq!(back, h);
        // Corruption is rejected, not panicked on.
        assert!(LogHistogram::from_parts(&[(usize::MAX, 1)], 0, 0, 1.0, 1.0, 1.0).is_err());
        assert!(LogHistogram::from_parts(&[(3, 0)], 0, 0, 1.0, 1.0, 1.0).is_err());
        assert!(LogHistogram::from_parts(&[(3, 1)], 0, 0, f64::NAN, 1.0, 1.0).is_err());
        assert!(LogHistogram::from_parts(&[(3, 1)], 0, 0, 1.0, 2.0, 1.0).is_err());
    }

    #[test]
    fn merge_matches_sequential() {
        let vals = [0.5, 1.0, 3.2, 19.0, 19.0, 1e6, 7e-8, 42.0];
        let mut all = LogHistogram::new();
        for v in vals {
            all.record(v);
        }
        let (mut a, mut b) = (LogHistogram::new(), LogHistogram::new());
        for (i, v) in vals.iter().enumerate() {
            if i % 2 == 0 {
                a.record(*v)
            } else {
                b.record(*v)
            }
        }
        a.merge(&b);
        // Buckets, counts and extrema are exactly shard-invariant; the
        // running sum differs only by FP addition-order rounding.
        assert_eq!(a.buckets, all.buckets);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
        assert!((a.sum() - all.sum()).abs() <= all.sum() * 1e-12);
    }
}
