//! Log-bucketed (HDR-style) histograms recorded online in the event loop.
//!
//! A [`LogHistogram`] trades exactness for constant memory and O(1) inserts:
//! values land in geometrically-spaced buckets — [`SUB_BUCKETS_PER_OCTAVE`]
//! buckets per doubling, so every bucket spans a fixed ≈9 % relative width —
//! and percentiles interpolate between bucket representatives. The promise
//! the parity test pins down: a histogram percentile is within one bucket
//! width of the exact [`percentile_by_selection`](crate::metrics::percentile_by_selection)
//! answer over the same samples.
//!
//! Cluster roll-ups merge per-device histograms by bucket-count addition
//! ([`LogHistogram::merged`] / [`percentile_from_parts`]):
//! the merged histogram is *identical* to one recorded from the union, so a
//! one-device cluster reproduces the single-runtime histogram bit for bit.

/// Buckets per octave (per doubling of the value). 8 sub-buckets make each
/// bucket span a factor of 2^(1/8) ≈ 1.0905 — a ≈9 % relative width, which
/// bounds the percentile error the parity test checks.
pub const SUB_BUCKETS_PER_OCTAVE: usize = 8;

/// Values below this threshold (including zero and negatives, which the
/// runtime never produces but the histogram tolerates) land in the dedicated
/// underflow bucket 0, represented as 0.
const LOWEST_TRACKED: f64 = 1e-3;

/// Hard cap on the bucket vector so a wild value cannot balloon memory:
/// bucket `MAX_BUCKET` starts at `LOWEST_TRACKED · 2^(MAX_BUCKET−1)/8` ≈ 1e21,
/// far beyond any modeled microsecond quantity.
const MAX_BUCKET: usize = 1 + 80 * SUB_BUCKETS_PER_OCTAVE;

/// Explicit mantissa bits of an `f64`, its exponent bias and the biased
/// exponent of ∞/NaN.
const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: usize = 1023;
const EXPONENT_INFINITE: usize = 2047;

/// `2^(j/8)`, `j = 0..=8`: where a mantissa in `[1, 2)` enters the next
/// sub-bucket (2.0 is only ever approached from below).
const SUB_BUCKET_EDGES: [f64; SUB_BUCKETS_PER_OCTAVE + 1] = [
    1.0,
    1.090_507_732_665_257_7,
    1.189_207_115_002_721,
    1.296_839_554_651_009_6,
    std::f64::consts::SQRT_2,
    1.542_210_825_407_940_7,
    1.681_792_830_507_429,
    1.834_008_086_409_342_4,
    2.0,
];

/// How close to an edge a mantissa is sent to `log2`: its rounding moves
/// `8·log2` by ≈1e-13 over the tracked range, four orders of magnitude less.
const EDGE_GUARD: f64 = 1e-9;

/// An online log-bucketed histogram of non-negative `f64` samples
/// (latencies in microseconds, queue depths).
///
/// Recording is O(1) (a few compares on the value's bits and a vector bump,
/// growing the bucket vector on demand); memory is bounded by
/// `MAX_BUCKET`. Equality is structural — two histograms are equal exactly
/// when they saw the same multiset of samples at bucket resolution *and* the
/// same floating-point sum, which is what the cluster-vs-runtime equivalence
/// tests compare.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    /// `counts[0]` is the underflow bucket (< [`LOWEST_TRACKED`]); bucket
    /// `i ≥ 1` counts samples in `[lower_bound(i), lower_bound(i+1))`.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: Vec::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    /// The bucket index a value lands in: `1 + ⌊8·log2(value / floor)⌋`,
    /// read off the ratio's bits — eight sub-buckets per exponent step, the
    /// sub-bucket being how many `2^(j/8)` edges the mantissa has reached. A
    /// mantissa within [`EDGE_GUARD`] of an edge (where `log2`'s own rounding
    /// decides) asks [`Self::bucket_by_log2`], so every index is that formula's.
    fn bucket_of(value: f64) -> usize {
        // NaN and sub-floor values (the comparison is false for NaN) both
        // land in the underflow bucket.
        if value.is_nan() || value < LOWEST_TRACKED {
            return 0;
        }
        let bits = (value / LOWEST_TRACKED).to_bits();
        let exponent = (bits >> MANTISSA_BITS) as usize;
        // The ratio is at least 1; an infinite one has no mantissa to read.
        if !(EXPONENT_BIAS..EXPONENT_INFINITE).contains(&exponent) {
            return Self::bucket_by_log2(value);
        }
        let mantissa_field = bits & ((1 << MANTISSA_BITS) - 1);
        let mantissa = f64::from_bits(mantissa_field | (EXPONENT_BIAS as u64) << MANTISSA_BITS);
        let mut reached = 0;
        let mut near_edge = false;
        for edge in SUB_BUCKET_EDGES {
            reached += usize::from(edge <= mantissa);
            near_edge |= (mantissa - edge).abs() < EDGE_GUARD;
        }
        if near_edge {
            return Self::bucket_by_log2(value);
        }
        // `reached` counts the edge at 1.0, which is the `1 +` of the formula.
        ((exponent - EXPONENT_BIAS) * SUB_BUCKETS_PER_OCTAVE + reached).min(MAX_BUCKET)
    }

    /// [`Self::bucket_of`] for a value at or above the floor by the formula
    /// itself: what the bits must agree with, and fall back on near an edge.
    fn bucket_by_log2(value: f64) -> usize {
        let octaves = (value / LOWEST_TRACKED).log2();
        let sub_buckets = (octaves * SUB_BUCKETS_PER_OCTAVE as f64).floor() as usize;
        sub_buckets.saturating_add(1).min(MAX_BUCKET)
    }

    /// The lower edge of bucket `index` (0 for the underflow bucket).
    fn lower_bound(index: usize) -> f64 {
        if index == 0 {
            0.0
        } else {
            LOWEST_TRACKED * (((index - 1) as f64) / SUB_BUCKETS_PER_OCTAVE as f64).exp2()
        }
    }

    /// The value a bucket stands for when interpolating percentiles: the
    /// geometric midpoint of its edges (0 for the underflow bucket, whose
    /// samples are all "smaller than the tracking floor").
    fn representative(index: usize) -> f64 {
        if index == 0 {
            0.0
        } else {
            Self::lower_bound(index) * (0.5 / SUB_BUCKETS_PER_OCTAVE as f64).exp2()
        }
    }

    /// The width of the bucket a value lands in — the resolution promise:
    /// histogram percentiles sit within one such width of the exact answer.
    pub fn bucket_width_at(value: f64) -> f64 {
        let index = Self::bucket_of(value);
        Self::lower_bound(index + 1) - Self::lower_bound(index)
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.record_times(value, 1);
    }

    /// Folds a table of integer samples, `counts[v]` of each `v`: exact below
    /// 2^53, so bit for bit a [`record`](Self::record) of each sample.
    pub(crate) fn record_counts(&mut self, counts: &[u64]) {
        for (value, &times) in counts.iter().enumerate().filter(|(_, &n)| n > 0) {
            self.record_times(value as f64, times);
        }
    }

    fn record_times(&mut self, value: f64, times: u64) {
        let index = Self::bucket_of(value);
        if self.counts.len() <= index {
            self.counts.resize(index + 1, 0);
        }
        self.counts[index] += times;
        self.count += times;
        self.sum += value * times as f64;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (0 when empty).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Linear-interpolated percentile (`p` in 0..=1) at bucket resolution —
    /// the same `rank = p·(n−1)` / lerp construction as the serve's exact
    /// percentiles, with order statistics replaced by their bucket representatives.
    /// Returns 0 when empty (matching the exact paths).
    pub fn percentile(&self, p: f64) -> f64 {
        percentile_from_parts(&[self], p)
    }

    /// Iterates the non-empty buckets as `(upper_edge, cumulative_count)`
    /// pairs — the shape a Prometheus `_bucket{le="…"}` exposition wants.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut cumulative = 0u64;
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(index, &n)| {
                cumulative += n;
                (Self::lower_bound(index + 1), cumulative)
            })
            .collect()
    }

    /// Merges several histograms by bucket-count addition — the cluster
    /// roll-up path. Merging a single histogram reproduces it exactly, so a
    /// one-device cluster's merged histogram equals the runtime's.
    pub fn merged(parts: &[&LogHistogram]) -> LogHistogram {
        let len = parts.iter().map(|p| p.counts.len()).max().unwrap_or(0);
        let mut counts = vec![0u64; len];
        let mut count = 0u64;
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for part in parts {
            for (slot, &n) in counts.iter_mut().zip(&part.counts) {
                *slot += n;
            }
            count += part.count;
            sum += part.sum;
            if part.min < min {
                min = part.min;
            }
            if part.max > max {
                max = part.max;
            }
        }
        LogHistogram {
            counts,
            count,
            sum,
            min,
            max,
        }
    }
}

/// Percentile (`p` in 0..=1) over several histograms *without materializing
/// the merge* — a cumulative walk over the shared bucket grid.
/// `percentile_from_parts(&[h], p)` equals
/// `h.percentile(p)`, and the walk over many parts equals
/// `LogHistogram::merged(parts).percentile(p)` by construction (bucket
/// counts add).
pub fn percentile_from_parts(parts: &[&LogHistogram], p: f64) -> f64 {
    let total: u64 = parts.iter().map(|part| part.count).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = p.clamp(0.0, 1.0) * (total - 1) as f64;
    let low = rank.floor() as u64;
    let high = rank.ceil() as u64;
    let weight = rank - low as f64;
    let len = parts
        .iter()
        .map(|part| part.counts.len())
        .max()
        .unwrap_or(0);
    // Every sample sits at or above its part's minimum, and `bucket_of` is
    // monotone, so no part has a count below the smallest minimum's bucket —
    // the walk can start there instead of scanning leading zeros. NaN is the
    // exception: `record` files it in the underflow bucket without touching
    // the minimum, so a part with anything there starts the walk at 0.
    let start = parts
        .iter()
        .filter(|part| part.count > 0)
        .map(|part| match part.counts.first() {
            Some(0) if part.min.is_finite() => LogHistogram::bucket_of(part.min),
            _ => 0,
        })
        .min()
        .unwrap_or(0);
    let mut cumulative = 0u64;
    let mut low_value = None;
    for index in start..len {
        let here: u64 = parts
            .iter()
            .map(|part| part.counts.get(index).copied().unwrap_or(0))
            .sum();
        if here == 0 {
            continue;
        }
        cumulative += here;
        // The representative costs an exp2 — only materialize it at the two
        // rank-crossing buckets, not on every bucket the walk passes.
        if low_value.is_none() && cumulative > low {
            low_value = Some(LogHistogram::representative(index));
        }
        if cumulative > high {
            let representative = LogHistogram::representative(index);
            // `low <= high`, so the walk crossed `low` at or before here.
            let low_value = low_value.expect("low rank is at or before high rank");
            return low_value * (1.0 - weight) + representative * weight;
        }
    }
    // The walk starts at or below every non-empty bucket, so it counts all
    // `total` samples and crosses `high <= total - 1` before it ends.
    unreachable!("the cumulative walk covers every recorded sample")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::percentile_by_selection;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// A depth table folded once equals the same depths recorded one by
        /// one, in event order: bucket counts, count, sum, min and max.
        #[test]
        fn a_folded_depth_table_equals_per_sample_records(
            (seed, samples, spread) in (proptest::prelude::any::<u64>(), 0usize..400, 1u64..3_000),
        ) {
            // xorshift; zero is its fixed point.
            let mut state = seed | 1;
            let mut recorded = LogHistogram::new();
            let mut table: Vec<u64> = Vec::new();
            for _ in 0..samples {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Zero in about a quarter of the samples, as an idle loop has.
                let depth = if state % 4 == 0 { 0 } else { (state >> 2) % spread } as usize;
                recorded.record(depth as f64);
                if table.len() <= depth {
                    table.resize(depth + 1, 0);
                }
                table[depth] += 1;
            }
            let mut folded = LogHistogram::new();
            folded.record_counts(&table);
            proptest::prop_assert_eq!(&folded, &recorded);
            proptest::prop_assert_eq!(folded.sum().to_bits(), recorded.sum().to_bits());
        }
    }

    #[test]
    fn empty_and_degenerate_histograms_match_the_exact_paths() {
        let empty = LogHistogram::new();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.percentile(0.5), 0.0);
        assert_eq!(empty.min(), 0.0);
        assert_eq!(empty.max(), 0.0);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(percentile_from_parts(&[], 0.5), 0.0);

        let mut single = LogHistogram::new();
        single.record(7.0);
        let exact = percentile_by_selection(&mut [7.0], 0.99);
        let width = LogHistogram::bucket_width_at(7.0);
        assert!((single.percentile(0.99) - exact).abs() <= width);
        assert_eq!(single.count(), 1);
        assert_eq!(single.min(), 7.0);
        assert_eq!(single.max(), 7.0);
    }

    #[test]
    fn all_equal_samples_collapse_to_one_bucket() {
        let mut hist = LogHistogram::new();
        for _ in 0..100 {
            hist.record(42.0);
        }
        let width = LogHistogram::bucket_width_at(42.0);
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert!(
                (hist.percentile(p) - 42.0).abs() <= width,
                "p={p}: {} vs 42 ± {width}",
                hist.percentile(p)
            );
        }
        assert_eq!(hist.cumulative_buckets().len(), 1);
    }

    #[test]
    fn percentiles_stay_within_one_bucket_width_of_selection() {
        let mut seed = 0xD1CEu64;
        let values: Vec<f64> = (0..499)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed % 100_000) as f64 * 0.03125
            })
            .collect();
        let mut hist = LogHistogram::new();
        for &value in &values {
            hist.record(value);
        }
        for p in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let mut scratch = values.clone();
            let exact = percentile_by_selection(&mut scratch, p);
            let width = LogHistogram::bucket_width_at(exact);
            assert!(
                (hist.percentile(p) - exact).abs() <= width,
                "p={p}: hist {} vs exact {exact} ± {width}",
                hist.percentile(p)
            );
        }
    }

    #[test]
    fn merged_histograms_equal_a_union_recording() {
        let mut seed = 0xFEEDu64;
        let mut parts = vec![LogHistogram::new(); 3];
        let mut union = LogHistogram::new();
        let mut exact: Vec<f64> = Vec::new();
        for _ in 0..300 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let value = (seed % 10_000) as f64 * 0.125;
            let part = (seed % 3) as usize;
            parts[part].record(value);
            union.record(value);
            exact.push(value);
        }
        let views: Vec<&LogHistogram> = parts.iter().collect();
        let merged = LogHistogram::merged(&views);
        assert_eq!(merged.counts, union.counts);
        assert_eq!(merged.count, union.count);
        assert_eq!(merged.min, union.min);
        assert_eq!(merged.max, union.max);
        // The walk-without-materializing path agrees with the merge, and
        // both sit within a bucket width of exact selection over the union.
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile_from_parts(&views, p), merged.percentile(p));
            let exact = percentile_by_selection(&mut exact, p);
            let width = LogHistogram::bucket_width_at(exact);
            assert!((merged.percentile(p) - exact).abs() <= width, "p={p}");
        }
    }

    #[test]
    fn merging_one_histogram_is_the_identity() {
        let mut hist = LogHistogram::new();
        for value in [0.0, 0.5, 1.0, 3.75, 1e6] {
            hist.record(value);
        }
        assert_eq!(LogHistogram::merged(&[&hist]), hist);
    }

    #[test]
    fn reading_the_bits_gives_the_log2_formulas_bucket_everywhere() {
        let mut checked = 0usize;
        let mut check = |value: f64| {
            let by_formula = if value.is_nan() || value < LOWEST_TRACKED {
                0
            } else {
                LogHistogram::bucket_by_log2(value)
            };
            assert_eq!(
                LogHistogram::bucket_of(value),
                by_formula,
                "value {value:e} (bits {:#018x})",
                value.to_bits()
            );
            checked += 1;
        };
        let ulps = |value: f64, steps: i64| f64::from_bits((value.to_bits() as i64 + steps) as u64);

        for special in [
            0.0,
            -0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 8.0,
            f64::from_bits(1),
        ] {
            check(special);
        }
        // Every sub-bucket edge of every octave — past `MAX_BUCKET`'s, where
        // the index saturates — stepped over ulp by ulp (inside the guard
        // band, where the formula itself answers) and across the band's own
        // border (where the bits must agree with it unaided).
        for octave in 0..=84 {
            for sub in 0..SUB_BUCKETS_PER_OCTAVE {
                let edge = LOWEST_TRACKED
                    * (octave as f64 + sub as f64 / SUB_BUCKETS_PER_OCTAVE as f64).exp2();
                for steps in -4..=4 {
                    check(ulps(edge, steps));
                }
                for band in [0.5e-9, 0.999_999e-9, 1.000_001e-9, 2e-9, 1e-6] {
                    check(edge * (1.0 - band));
                    check(edge * (1.0 + band));
                }
            }
            // Exact powers of two times the floor.
            check(LOWEST_TRACKED * f64::from(octave).exp2());
        }
        assert_eq!(LogHistogram::bucket_of(1e30), MAX_BUCKET);
        assert_eq!(LogHistogram::bucket_of(f64::INFINITY), MAX_BUCKET);

        // A million values with random mantissas, exponents from a decade
        // under the floor to past the last bucket.
        let mut seed = 0x0B5E_55EDu64;
        for _ in 0..1_000_000 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let exponent = EXPONENT_BIAS as u64 - 14 + (seed >> MANTISSA_BITS) % 90;
            let mantissa = seed & ((1 << MANTISSA_BITS) - 1);
            check(f64::from_bits(exponent << MANTISSA_BITS | mantissa));
        }
        assert!(checked > 1_000_000);
    }

    #[test]
    fn a_nan_sample_beside_finite_ones_does_not_panic_a_percentile() {
        // NaN lands in the underflow bucket but not in the minimum; the walk
        // used to start at the minimum's bucket, miss it and run off the end.
        let mut hist = LogHistogram::new();
        hist.record(f64::NAN);
        hist.record(5.0);
        assert_eq!(hist.percentile(0.0), LogHistogram::representative(0));
        let top = hist.percentile(1.0);
        assert!((top - 5.0).abs() <= LogHistogram::bucket_width_at(5.0));
        let merged = percentile_from_parts(&[&LogHistogram::new(), &hist], 1.0);
        assert_eq!(merged, top);
    }

    #[test]
    fn underflow_and_overflow_stay_bounded() {
        let mut hist = LogHistogram::new();
        hist.record(0.0);
        hist.record(-1.0);
        hist.record(1e30);
        assert_eq!(hist.count(), 3);
        assert!(hist.counts.len() <= MAX_BUCKET + 1);
        assert_eq!(hist.counts[0], 2, "zero and negatives share bucket 0");
    }
}
