//! Cut-point search and value→bin mapping.
//!
//! Cut search is pass 1 of set-up (pass 2, quantization, lives in
//! [`crate::quantized`]): ⟨feature⟩ tasks on scoped threads, each gathering
//! one column into a per-worker key buffer. The cuts are at most `max_bins`
//! order statistics, so a long column is not sorted: its keys are bucketed
//! by one counting pass, a prefix sum and a scatter, and each quantile rank
//! is selected inside its own bucket (`CountingScratch::cuts_by_counting`).
//! A column too short to repay 64 Ki counters is sorted in place. Either
//! way the cuts equal the exact-sort oracle kept in this module's tests, bit
//! for bit. Transient memory is `threads × (n_rows × 6 + 256 KiB)` bytes —
//! never a whole-matrix copy.
//!
//! The module also owns both ways of mapping a value to its bin:
//! [`FeatureCuts::value_to_bin`], a binary search, for single values
//! (prediction, tests), and the crate-private `BinLookup`, a monotone slot
//! table pass 2 builds once per feature and task for whole columns.

use crate::bundling::BundleMap;
use crate::setup::{run_tasks, setup_threads, split_mut, split_ranges, SetupInput};
use harp_data::FeatureMatrix;
use serde::{Deserialize, Serialize};

/// Configuration for histogram initialization.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BinningConfig {
    /// Maximum bins per feature, at most 255 (one `u8` value is reserved as
    /// the dense missing sentinel). The paper's default is 256; ours is 255.
    pub max_bins: u16,
}

impl Default for BinningConfig {
    fn default() -> Self {
        Self { max_bins: 255 }
    }
}

impl BinningConfig {
    /// Config with a custom bin budget.
    ///
    /// # Panics
    /// Panics if `max_bins` is 0 or exceeds 255.
    pub fn with_max_bins(max_bins: u16) -> Self {
        assert!((1..=255).contains(&max_bins), "max_bins must be in 1..=255");
        Self { max_bins }
    }
}

/// Cut points of one feature: ascending inclusive upper bounds. Bin `i`
/// holds values `v` with `cuts[i-1] < v <= cuts[i]`; values above the last
/// cut clamp into the last bin (unseen test values).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureCuts {
    /// Ascending inclusive upper bounds; empty for never-present features.
    pub cuts: Vec<f32>,
}

impl FeatureCuts {
    /// Number of bins (0 for a never-present feature).
    pub fn n_bins(&self) -> u16 {
        self.cuts.len() as u16
    }

    /// Maps a present value to its bin id. `-inf` lands in bin 0 and `+inf`
    /// in the last bin, like any value outside the cuts; `NaN` is a missing
    /// value and has no bin — both matrix layouts drop it before this call.
    #[inline]
    pub fn value_to_bin(&self, v: f32) -> u8 {
        debug_assert!(!v.is_nan(), "missing values have no bin");
        let idx = self.cuts.partition_point(|&c| c < v);
        idx.min(self.cuts.len().saturating_sub(1)) as u8
    }

    /// The inclusive upper bound of `bin` — the raw-value threshold a split
    /// at this bin corresponds to.
    pub fn upper(&self, bin: u8) -> f32 {
        self.cuts[bin as usize]
    }
}

/// [`FeatureCuts::value_to_bin`] for pass 2 of set-up, where one feature's
/// cuts serve a whole column: a table over equal-width slots of the finite
/// cuts' span that says how many cuts lie in lower slots. `slot` is monotone
/// in `v` and the cuts are slotted by the same function, so every cut in a
/// lower slot than `v`'s is `< v`, every cut in a higher one is not, and only
/// the cuts sharing `v`'s slot — usually none — are compared. At most
/// [`MAX_SLOTS`](Self::MAX_SLOTS) + 1 bytes.
pub(crate) struct BinLookup<'a> {
    cuts: &'a [f32],
    vmin: f32,
    /// Slots per unit of value; 0 when the span overflows (every value is in
    /// slot 0 and the walk is the plain search), `inf` when it is empty.
    scale: f32,
    /// `start[s]` = cuts in slots below `s`; length `slots + 1`.
    start: Vec<u8>,
}

impl<'a> BinLookup<'a> {
    const MAX_SLOTS: usize = 4096;
    /// The table's `u8` counts hold this many cuts — every mapper set-up
    /// builds, since bin 255 is the missing sentinel.
    const MAX_CUTS: usize = 255;

    /// The lookup for `cuts`, or `None` when a column of `n_values` is too
    /// short to repay building it (or the cuts are more than bins can hold).
    pub(crate) fn for_column(cuts: &'a FeatureCuts, n_values: usize) -> Option<Self> {
        let cuts = &cuts.cuts[..];
        let slots = (16 * cuts.len()).next_power_of_two().min(Self::MAX_SLOTS);
        if cuts.is_empty() || cuts.len() > Self::MAX_CUTS || n_values < 4 * slots {
            return None;
        }
        let mut finite = cuts.iter().copied().filter(|c| c.is_finite());
        let vmin = finite.next().unwrap_or(0.0);
        let span = finite.next_back().unwrap_or(vmin) - vmin;
        let scale = if span.is_finite() { slots as f32 / span } else { 0.0 };
        let mut lookup = Self { cuts, vmin, scale, start: vec![0; slots + 1] };
        for &c in cuts {
            let s = lookup.slot(c);
            lookup.start[s + 1] += 1;
        }
        for s in 0..slots {
            lookup.start[s + 1] += lookup.start[s];
        }
        Some(lookup)
    }

    /// Monotone in `v`: subtraction, multiplication by a non-negative
    /// constant and the saturating cast (`NaN` — `0 × inf`, `inf × 0` — and
    /// negatives to 0) all are.
    #[inline]
    fn slot(&self, v: f32) -> usize {
        (((v - self.vmin) * self.scale) as usize).min(self.start.len() - 2)
    }

    /// Equals [`FeatureCuts::value_to_bin`] for every non-`NaN` `v`.
    #[inline]
    pub(crate) fn bin(&self, v: f32) -> u8 {
        debug_assert!(!v.is_nan(), "missing values have no bin");
        let s = self.slot(v);
        let (lo, hi) = (usize::from(self.start[s]), usize::from(self.start[s + 1]));
        let last = self.cuts.len() - 1;
        let below = if hi - lo <= 1 {
            // No branch on whether the slot holds a cut: the next cut up is
            // in a higher slot, hence not `< v` (and past the last cut the
            // clamp below absorbs the count).
            usize::from(self.cuts[lo.min(last)] < v)
        } else {
            self.cuts[lo..hi].partition_point(|&c| c < v)
        };
        (lo + below).min(last) as u8
    }
}

/// Per-feature cuts for a whole dataset plus flattened-histogram offsets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BinMapper {
    features: Vec<FeatureCuts>,
    /// `bin_offsets[f]` = sum of bins of features `0..f`; length
    /// `n_features + 1`.
    bin_offsets: Vec<u32>,
    /// Exclusive-feature-bundling storage map, when the quantizer decided to
    /// fuse mutually-exclusive sparse features into dense synthetic columns.
    /// Features, cuts, and offsets above always stay in ORIGINAL feature
    /// coordinates — the bundle map only describes how bins are stored.
    bundles: Option<BundleMap>,
}

impl BinMapper {
    /// Builds cut points for every column of `matrix`: exact quantiles of
    /// the present values (one bin per distinct value when they fit the
    /// budget), columns searched in parallel on scoped threads. This is the
    /// first half of set-up — the wall-clock a user pays before the first
    /// tree, which no trainer phase accounts for.
    pub fn from_matrix(matrix: &FeatureMatrix, config: BinningConfig) -> Self {
        let threads = setup_threads();
        Self::from_input(&SetupInput::new(matrix, threads), config, threads)
    }

    /// [`from_matrix`](Self::from_matrix) over an already gathered input, on
    /// `threads` threads (the cuts do not depend on the count).
    pub(crate) fn from_input(
        input: &SetupInput<'_>,
        config: BinningConfig,
        threads: usize,
    ) -> Self {
        assert!((1..=255).contains(&config.max_bins), "max_bins must be in 1..=255");
        Self::from_cuts(search_cuts(input, usize::from(config.max_bins), threads))
    }

    /// Assembles a mapper from precomputed cuts.
    pub fn from_cuts(features: Vec<FeatureCuts>) -> Self {
        let mut bin_offsets = Vec::with_capacity(features.len() + 1);
        let mut acc = 0u32;
        bin_offsets.push(0);
        for f in &features {
            acc += u32::from(f.n_bins());
            bin_offsets.push(acc);
        }
        Self { features, bin_offsets, bundles: None }
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.features.len()
    }

    /// Bin count of feature `f`.
    pub fn n_bins(&self, f: usize) -> u16 {
        self.features[f].n_bins()
    }

    /// Largest per-feature bin count.
    pub fn max_bins_used(&self) -> u16 {
        self.features.iter().map(FeatureCuts::n_bins).max().unwrap_or(0)
    }

    /// Per-feature used-bin widths (actual cut counts, not the configured
    /// cap) — drives compressed-layout selection (u4 vs u8) and sink
    /// padding.
    pub fn bin_widths(&self) -> impl ExactSizeIterator<Item = u16> + '_ {
        self.features.iter().map(FeatureCuts::n_bins)
    }

    /// The exclusive-feature-bundling storage map, if bundling engaged.
    pub fn bundles(&self) -> Option<&BundleMap> {
        self.bundles.as_ref()
    }

    /// Attaches a bundle map (set by the quantizer once it decides bundled
    /// storage pays off for this dataset).
    pub(crate) fn set_bundles(&mut self, map: BundleMap) {
        self.bundles = Some(map);
    }

    /// Sum of bins over all features (flattened histogram width).
    pub fn total_bins(&self) -> u32 {
        *self.bin_offsets.last().expect("offsets nonempty")
    }

    /// Start offset of feature `f` in a flattened per-node histogram.
    pub fn bin_offset(&self, f: usize) -> u32 {
        self.bin_offsets[f]
    }

    /// The whole flattened offset table: `offsets[f]` is the bin offset of
    /// feature `f`, `offsets[n_features]` is [`total_bins`](Self::total_bins).
    /// Kernels index this table directly instead of calling
    /// [`bin_offset`](Self::bin_offset) per cell.
    pub fn bin_offsets(&self) -> &[u32] {
        &self.bin_offsets
    }

    /// The cuts of feature `f`.
    pub fn cuts(&self, f: usize) -> &FeatureCuts {
        &self.features[f]
    }

    /// Coefficient of variation of per-feature bin counts — the `CV` column
    /// of Table III, measuring bin-distribution dispersion (and therefore
    /// feature-parallel load imbalance).
    pub fn bin_cv(&self) -> f64 {
        let counts: Vec<f64> = self.features.iter().map(|f| f64::from(f.n_bins())).collect();
        if counts.is_empty() {
            return 0.0;
        }
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / counts.len() as f64;
        var.sqrt() / mean
    }
}

/// Pass 1 of set-up: ⟨feature⟩ tasks over contiguous feature ranges, one
/// range per thread, each worker reusing one key buffer (and, for long
/// columns, one [`CountingScratch`]) for its columns.
fn search_cuts(input: &SetupInput<'_>, max_bins: usize, threads: usize) -> Vec<FeatureCuts> {
    let mut features = vec![FeatureCuts { cuts: Vec::new() }; input.n_cols()];
    let ranges = split_ranges(input.n_cols(), threads, 1);
    // Allocated here and lent to the workers: memory freed inside a
    // short-lived thread stays resident in that thread's allocator arena,
    // where nothing the caller allocates afterwards can reuse it.
    let buffer_len = input.max_column_len();
    let mut buffers: Vec<(Vec<u32>, CountingScratch)> = ranges
        .iter()
        .map(|_| (Vec::with_capacity(buffer_len), CountingScratch::for_columns_of(buffer_len)))
        .collect();
    let outputs = split_mut(&mut features, ranges.iter().map(|r| r.len()));
    let mut tasks = Vec::new();
    for ((range, mine), (keys, scratch)) in ranges.into_iter().zip(outputs).zip(&mut buffers) {
        tasks.push(move || {
            for (f, out) in range.zip(mine) {
                keys.clear();
                input.for_each_in_col(f, |v| keys.push(sort_key(v)));
                *out = cuts_from_keys(keys, scratch, max_bins);
            }
        });
    }
    run_tasks(tasks);
    features
}

/// Maps a non-`NaN` value to a `u32` whose unsigned order is
/// [`f32::total_cmp`]'s (`-0.0` just below `+0.0`), so a column sorts with
/// plain integer compares instead of re-deriving this key in every
/// comparison.
#[inline]
fn sort_key(v: f32) -> u32 {
    let bits = v.to_bits();
    // Negative: flip every bit. Non-negative: set the sign bit.
    bits ^ ((((bits as i32) >> 31) as u32) | 0x8000_0000)
}

/// Inverse of [`sort_key`].
#[inline]
fn key_value(key: u32) -> f32 {
    f32::from_bits(if key & 0x8000_0000 != 0 { key ^ 0x8000_0000 } else { !key })
}

/// Columns at least this long take the counting arm of [`cuts_from_keys`]:
/// it zeroes and prefix-sums up to [`BUCKETS`] counters per column, which a
/// short column (the 558-value columns of a 4 096-feature sparse matrix)
/// would pay thousands of times over for a sort that is already cheap.
const COUNTING_MIN_KEYS: usize = 1 << 15;

/// `log2` of the bucket count of the counting arm.
const BUCKET_BITS: u32 = 16;
const BUCKETS: usize = 1 << BUCKET_BITS;

/// Appends the value of `key` unless it equals the last cut — `f32`
/// equality, so `-0.0` and `+0.0` share the cut `-0.0`.
fn push_new(cuts: &mut Vec<f32>, key: u32) {
    let v = key_value(key);
    if cuts.last() != Some(&v) {
        cuts.push(v);
    }
}

/// Position in the ascending run of `n` keys of quantile rank `i` of
/// `max_bins` (the largest key is rank `max_bins`).
fn rank_position(i: usize, n: usize, max_bins: usize) -> usize {
    (i * n / max_bins).max(1) - 1
}

/// Builds the cuts of one column from the sort keys of its present values,
/// reordering them in place. Up to `max_bins` distinct values get one bin
/// each; beyond that the cuts are the exact `i/max_bins` quantiles, the
/// largest value last. "Distinct" is `f32` equality, so `-0.0` and `+0.0`
/// share the cut `-0.0`.
///
/// A short column is sorted. A long one ([`COUNTING_MIN_KEYS`]) is bucketed
/// by counting, and each quantile rank is selected inside its own bucket;
/// only when the column may fit one bin per distinct value are the buckets
/// sorted into the full ascending run.
fn cuts_from_keys(keys: &mut [u32], scratch: &mut CountingScratch, max_bins: usize) -> FeatureCuts {
    let cuts = if keys.len() < COUNTING_MIN_KEYS {
        keys.sort_unstable();
        cuts_of_run(keys, max_bins)
    } else {
        scratch.cuts_by_counting(keys, max_bins)
    };
    FeatureCuts { cuts }
}

/// The cut rule, read off the ascending run of a column's keys.
fn cuts_of_run(keys: &[u32], max_bins: usize) -> Vec<f32> {
    let n = keys.len();
    let mut cuts: Vec<f32> = Vec::new();
    // A high-cardinality column leaves this loop after `max_bins + 1`
    // distinct values, i.e. almost at once.
    for &key in keys {
        push_new(&mut cuts, key);
        if cuts.len() > max_bins {
            cuts.clear();
            for i in 1..=max_bins {
                push_new(&mut cuts, keys[rank_position(i, n, max_bins)]);
            }
            break;
        }
    }
    cuts
}

/// A pass-1 worker's buffers for the counting arm of [`cuts_from_keys`]:
/// one counter per bucket and the keys' low bits in bucket order. Empty
/// when no column of the input is long enough to use them.
struct CountingScratch {
    /// Per bucket: its key count, then its start, then (after the scatter)
    /// its exclusive end in `low`.
    ends: Vec<u32>,
    /// The bits of `key - kmin` below the bucket index, grouped by bucket.
    low: Vec<u16>,
}

impl CountingScratch {
    /// Scratch for columns of at most `max_column_len` keys.
    fn for_columns_of(max_column_len: usize) -> Self {
        if max_column_len < COUNTING_MIN_KEYS {
            return Self { ends: Vec::new(), low: Vec::new() };
        }
        Self { ends: vec![0; BUCKETS], low: vec![0; max_column_len] }
    }

    /// The cuts of a column without sorting it: buckets `keys` by the top
    /// [`BUCKET_BITS`] bits of their span with one counting pass, a prefix
    /// sum and one scatter of the remaining low bits (at most 16 of them, so
    /// a narrow-range column still spreads over the buckets). With more than
    /// `max_bins + 1` non-empty buckets the column certainly holds more than
    /// `max_bins` distinct values — `-0.0` and `+0.0` are the one pair of
    /// keys that is a single value — and each quantile rank is resolved
    /// inside its own bucket. Otherwise every bucket is sorted, `keys` is
    /// rewritten as the full ascending run and [`cuts_of_run`] reads it.
    fn cuts_by_counting(&mut self, keys: &mut [u32], max_bins: usize) -> Vec<f32> {
        let n = keys.len();
        let (kmin, kmax) = keys.iter().fold((u32::MAX, 0), |(lo, hi), &k| (lo.min(k), hi.max(k)));
        let span = kmax - kmin;
        let shift = (u32::BITS - span.leading_zeros()).saturating_sub(BUCKET_BITS);
        let low_mask = (1u32 << shift) - 1;
        let ends = &mut self.ends[..(span >> shift) as usize + 1];
        let low = &mut self.low[..n];

        ends.fill(0);
        for &k in keys.iter() {
            ends[((k - kmin) >> shift) as usize] += 1;
        }
        let (mut start, mut non_empty) = (0u32, 0usize);
        for e in ends.iter_mut() {
            non_empty += usize::from(*e != 0);
            start += std::mem::replace(e, start);
        }
        for &k in keys.iter() {
            let at = &mut ends[((k - kmin) >> shift) as usize];
            low[*at as usize] = ((k - kmin) & low_mask) as u16;
            *at += 1;
        }
        let bucket = |b: usize| {
            let start = if b == 0 { 0 } else { ends[b - 1] as usize };
            (start, ends[b] as usize, kmin + ((b as u32) << shift))
        };

        if non_empty <= max_bins + 1 {
            for b in 0..ends.len() {
                let (start, end, base) = bucket(b);
                low[start..end].sort_unstable();
                for (key, &l) in keys[start..end].iter_mut().zip(&low[start..end]) {
                    *key = base + u32::from(l);
                }
            }
            return cuts_of_run(keys, max_bins);
        }

        let mut cuts = Vec::with_capacity(max_bins);
        let (mut b, mut i) = (0, 1);
        while i <= max_bins {
            let first = rank_position(i, n, max_bins);
            while ends[b] as usize <= first {
                b += 1;
            }
            let (start, end, base) = bucket(b);
            // Ranks `i..next` fall in this bucket.
            let mut next = i + 1;
            while next <= max_bins && rank_position(next, n, max_bins) < end {
                next += 1;
            }
            let members = &mut low[start..end];
            let at = |r: usize| rank_position(r, n, max_bins) - start;
            if next - i > 2 {
                // One sort serves them all: a column whose keys share a
                // bucket costs one sort, never `max_bins` selections.
                members.sort_unstable();
                for r in i..next {
                    push_new(&mut cuts, base + u32::from(members[at(r)]));
                }
            } else {
                let (_, &mut l, above) = members.select_nth_unstable(at(i));
                push_new(&mut cuts, base + u32::from(l));
                // A second rank at the same position is the same cut.
                if next - i == 2 && at(i + 1) > at(i) {
                    let (_, &mut l, _) = above.select_nth_unstable(at(i + 1) - at(i) - 1);
                    push_new(&mut cuts, base + u32::from(l));
                }
            }
            i = next;
        }
        cuts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_data::{CsrMatrix, DenseMatrix};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn dense(n_rows: usize, n_cols: usize, f: impl Fn(usize, usize) -> f32) -> FeatureMatrix {
        let mut v = Vec::with_capacity(n_rows * n_cols);
        for r in 0..n_rows {
            for c in 0..n_cols {
                v.push(f(r, c));
            }
        }
        FeatureMatrix::Dense(DenseMatrix::from_vec(n_rows, n_cols, v))
    }

    /// The cut rule, as the exact-sort branch of the pre-pipeline
    /// `build_cuts` stated it: the oracle [`cuts_from_keys`] must match
    /// bitwise.
    fn build_cuts_oracle(mut values: Vec<f32>, max_bins: usize) -> FeatureCuts {
        if values.is_empty() {
            return FeatureCuts { cuts: Vec::new() };
        }
        let mut cuts: Vec<f32>;
        values.sort_by(f32::total_cmp);
        // Distinct values; if they fit the budget, one bin per value.
        let mut distinct = values.clone();
        distinct.dedup();
        if distinct.len() <= max_bins {
            cuts = distinct;
        } else {
            let n = values.len();
            cuts = (1..=max_bins)
                .map(|i| {
                    let pos = (i * n / max_bins).clamp(1, n);
                    values[pos - 1]
                })
                .collect();
            let max = *values.last().expect("nonempty");
            if *cuts.last().expect("nonempty") < max {
                cuts.push(max);
            }
        }
        cuts.sort_by(f32::total_cmp);
        cuts.dedup();
        FeatureCuts { cuts }
    }

    fn bits(cuts: &FeatureCuts) -> Vec<u32> {
        cuts.cuts.iter().map(|c| c.to_bits()).collect()
    }

    /// One column of `n` cells, `None` = missing, in one of four value
    /// shapes: continuous, a few distinct levels (heavy ties), signed zeros
    /// among small integers, and infinities among continuous values.
    fn shaped_column(seed: u64, n: usize, shape: u8, missing: f64) -> Vec<Option<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                if rng.gen::<f64>() < missing {
                    return None;
                }
                Some(match shape {
                    0 => rng.gen_range(-1e3f32..1e3),
                    1 => rng.gen_range(0..7u32) as f32 * 0.5 - 1.0,
                    2 => [-0.0, 0.0, -1.0, 1.0, 0.0, -0.0][rng.gen_range(0..6usize)],
                    _ => match rng.gen_range(0..10u32) {
                        0 => f32::INFINITY,
                        1 => f32::NEG_INFINITY,
                        _ => rng.gen_range(-5f32..5.0),
                    },
                })
            })
            .collect()
    }

    /// The same column as a one-feature dense matrix and as a one-feature
    /// CSR matrix.
    fn as_matrices(column: &[Option<f32>]) -> [FeatureMatrix; 2] {
        let dense: Vec<f32> = column.iter().map(|v| v.unwrap_or(f32::NAN)).collect();
        let rows: Vec<Vec<(u32, f32)>> =
            column.iter().map(|v| v.map(|v| (0, v)).into_iter().collect()).collect();
        [
            FeatureMatrix::Dense(DenseMatrix::from_vec(column.len(), 1, dense)),
            FeatureMatrix::Sparse(CsrMatrix::from_rows(1, &rows)),
        ]
    }

    #[test]
    fn sort_key_orders_like_total_cmp_and_round_trips() {
        let vals = [
            f32::NEG_INFINITY,
            -3.5,
            -f32::MIN_POSITIVE,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            2.0,
            f32::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(sort_key(w[0]) < sort_key(w[1]), "{} !< {}", w[0], w[1]);
        }
        for v in vals {
            assert_eq!(key_value(sort_key(v)).to_bits(), v.to_bits());
        }
    }

    /// A column above the old 200 000-row sketch threshold gets the exact
    /// quantiles, through both layouts and at any thread count.
    #[test]
    fn large_column_matches_the_oracle() {
        let column = shaped_column(5, 250_000, 0, 0.03);
        let present: Vec<f32> = column.iter().flatten().copied().collect();
        let want = build_cuts_oracle(present, 255);
        assert_eq!(want.n_bins(), 255);
        for matrix in as_matrices(&column) {
            for threads in [1, 3] {
                let mapper = BinMapper::from_input(
                    &SetupInput::new(&matrix, threads),
                    BinningConfig::default(),
                    threads,
                );
                assert_eq!(bits(mapper.cuts(0)), bits(&want));
            }
        }
    }

    #[test]
    fn cuts_do_not_depend_on_the_thread_count() {
        let d = harp_data::SynthConfig::new(harp_data::DatasetKind::HiggsLike, 3)
            .with_scale(0.1)
            .generate();
        let input = SetupInput::new(&d.features, 1);
        let one = BinMapper::from_input(&input, BinningConfig::default(), 1);
        for threads in [2, 5, 64] {
            let many = BinMapper::from_input(&input, BinningConfig::default(), threads);
            for f in 0..one.n_features() {
                assert_eq!(bits(one.cuts(f)), bits(many.cuts(f)), "feature {f} at {threads}");
            }
        }
    }

    /// Cuts of a one-column input through both layouts at 1 and 3 threads,
    /// against the oracle.
    fn assert_matches_oracle(column: &[Option<f32>], max_bins: u16) {
        let present: Vec<f32> = column.iter().flatten().copied().collect();
        let want = build_cuts_oracle(present, usize::from(max_bins));
        for matrix in as_matrices(column) {
            for threads in [1, 3] {
                let mapper = BinMapper::from_input(
                    &SetupInput::new(&matrix, threads),
                    BinningConfig::with_max_bins(max_bins),
                    threads,
                );
                assert_eq!(bits(mapper.cuts(0)), bits(&want), "{max_bins} bins");
            }
        }
    }

    /// Long columns (the counting arm) whose keys crowd the buckets in every
    /// way the arm distinguishes.
    #[test]
    fn counting_arm_matches_the_oracle_on_crowded_columns() {
        let n = 40_000usize;
        let mut rng = StdRng::seed_from_u64(17);
        let mut column = |value: &mut dyn FnMut(usize, &mut StdRng) -> f32| -> Vec<Option<f32>> {
            (0..n).map(|i| Some(value(i, &mut rng))).collect()
        };
        let columns = [
            // Neighbouring floats: a key span of a few bucket widths.
            column(&mut |i, _| 1.0 + i as f32 * 1e-7),
            // One outlier stretches the span; the rest share one bucket.
            column(&mut |i, rng| if i == 7 { 1e30 } else { 1.0 + rng.gen::<f32>() * 1e-4 }),
            // Most keys in a few buckets (dozens of ranks each), the rest
            // over enough buckets to certify high cardinality.
            column(&mut |i, rng| match i % 10 {
                0 => rng.gen_range(-1e3f32..1e3),
                _ => 1.0 + rng.gen::<f32>() * 0.05,
            }),
            column(&mut |_, _| 2.5),
            column(&mut |_, rng| match rng.gen_range(0..4u32) {
                0 => f32::INFINITY,
                1 => f32::NEG_INFINITY,
                _ => rng.gen_range(-5f32..5.0),
            }),
        ];
        for column in &columns {
            for max_bins in [1, 2, 3, 16, 254, 255] {
                assert_matches_oracle(column, max_bins);
            }
        }
    }

    /// `-0.0` and `+0.0` are two keys — two buckets, once the span is narrow
    /// enough — and one cut: a column of exactly `max_bins` distinct values
    /// fills `max_bins + 1` buckets and still gets one bin per value, and one
    /// more value tips it into quantiles.
    #[test]
    fn both_zeros_count_as_one_value_in_the_counting_arm() {
        for max_bins in [3u16, 16, 255] {
            for distinct in [max_bins, max_bins + 1] {
                // Zeros and subnormals: adjacent keys, so every key has its
                // own bucket.
                let mut levels = vec![-0.0f32, 0.0];
                levels.extend((1..u32::from(distinct)).map(f32::from_bits));
                let mut rng = StdRng::seed_from_u64(u64::from(distinct));
                let column: Vec<Option<f32>> = (0..40_000)
                    .map(|i| {
                        Some(
                            levels
                                [if i < levels.len() { i } else { rng.gen_range(0..levels.len()) }],
                        )
                    })
                    .collect();
                assert_matches_oracle(&column, max_bins);
                let mapper = BinMapper::from_matrix(
                    &as_matrices(&column)[0],
                    BinningConfig::with_max_bins(max_bins),
                );
                if distinct == max_bins {
                    assert_eq!(mapper.n_bins(0), max_bins, "one bin per value");
                    assert_eq!(mapper.cuts(0).cuts[0].to_bits(), (-0.0f32).to_bits());
                }
            }
        }
    }

    /// The column-length rule picks an arm, never a result: lengths on both
    /// sides of it match the oracle, and one short column gives the same
    /// cuts through either arm.
    #[test]
    fn both_arms_of_the_length_rule_give_the_same_cuts() {
        for shape in 0..4 {
            for n in [COUNTING_MIN_KEYS - 1, COUNTING_MIN_KEYS, COUNTING_MIN_KEYS + 1] {
                assert_matches_oracle(&shaped_column(3, n, shape, 0.0), 255);
            }
            for (n, max_bins) in [(1, 4), (2, 1), (300, 255), (5_000, 16), (5_000, 255)] {
                let column = shaped_column(9, n, shape, 0.0);
                let mut keys: Vec<u32> = column.iter().flatten().map(|&v| sort_key(v)).collect();
                let mut scratch = CountingScratch { ends: vec![0; BUCKETS], low: vec![0; n] };
                let counted = scratch.cuts_by_counting(&mut keys.clone(), max_bins);
                let sorted = cuts_from_keys(&mut keys, &mut scratch, max_bins);
                assert_eq!(
                    bits(&FeatureCuts { cuts: counted }),
                    bits(&sorted),
                    "shape {shape}, n {n}"
                );
            }
        }
    }

    /// `BinLookup::bin` is `value_to_bin` on every probe a cut set can be
    /// asked about: each cut and its two neighbours, the zeros, the
    /// infinities, the extremes, the smallest subnormals and random bits.
    #[test]
    fn bin_lookup_equals_value_to_bin() {
        let mut cut_sets: Vec<Vec<f32>> = vec![
            vec![0.75],
            vec![f32::NEG_INFINITY, f32::INFINITY],
            vec![f32::NEG_INFINITY, -1.0, 2.0, f32::INFINITY],
            // A span that overflows: `scale` is 0, the walk the plain search.
            vec![-3e38, 3e38],
            (1..=9u32).map(f32::from_bits).collect(),
            vec![-0.0, 1e-45, 3e-45],
            (0..3).map(|i| f32::from_bits(1.5f32.to_bits() + i)).collect(),
            (0..255).map(|i| 1e-3 * 1.07f32.powi(i)).collect(),
            (0..255).map(|i| (i - 100) as f32).collect(),
        ];
        for shape in 0..4 {
            let present: Vec<f32> =
                shaped_column(21, 20_000, shape, 0.0).into_iter().flatten().collect();
            cut_sets.extend([3, 31, 255].map(|bins| build_cuts_oracle(present.clone(), bins).cuts));
        }
        let mut rng = StdRng::seed_from_u64(4);
        for cuts in cut_sets {
            let cuts = FeatureCuts { cuts };
            let lookup = BinLookup::for_column(&cuts, usize::MAX).expect("long column");
            let mut probes = vec![0.0, -0.0, 1e-45, -1e-45, f32::MAX, f32::MIN];
            probes.extend([f32::INFINITY, f32::NEG_INFINITY]);
            for &c in &cuts.cuts {
                let key = sort_key(c);
                probes.extend([key.wrapping_sub(1), key, key.wrapping_add(1)].map(key_value));
            }
            probes.extend((0..4_000).map(|_| f32::from_bits(rng.gen())));
            for v in probes.into_iter().filter(|v| !v.is_nan()) {
                assert_eq!(lookup.bin(v), cuts.value_to_bin(v), "{v:e} in {:?}", cuts.cuts);
            }
        }
    }

    /// The lookup is built only for columns long enough to repay it, and
    /// never for a feature without cuts.
    #[test]
    fn bin_lookup_is_for_long_columns_only() {
        let cuts = FeatureCuts { cuts: (0..255).map(|i| i as f32).collect() };
        assert!(BinLookup::for_column(&cuts, 4 * 4096 - 1).is_none());
        assert!(BinLookup::for_column(&cuts, 4 * 4096).is_some());
        let few = FeatureCuts { cuts: vec![1.0, 2.0] };
        assert!(BinLookup::for_column(&few, 127).is_none());
        assert!(BinLookup::for_column(&few, 128).is_some());
        assert!(BinLookup::for_column(&FeatureCuts { cuts: vec![] }, usize::MAX).is_none());
    }

    #[test]
    fn degenerate_columns_get_defined_cuts() {
        let n = 40;
        let m = dense(n, 4, |r, c| match c {
            0 => f32::NAN,
            1 => 2.5,
            2 => [f32::NEG_INFINITY, f32::INFINITY][r % 2],
            _ => [f32::NEG_INFINITY, -1.0, 1.0, f32::INFINITY][r % 4],
        });
        let mapper = BinMapper::from_matrix(&m, BinningConfig::default());
        assert_eq!(mapper.n_bins(0), 0, "an all-NaN column is never present");
        assert_eq!(mapper.cuts(1).cuts, vec![2.5], "a constant column is one bin");
        assert_eq!(mapper.cuts(2).cuts, vec![f32::NEG_INFINITY, f32::INFINITY]);
        assert_eq!(mapper.cuts(2).value_to_bin(f32::NEG_INFINITY), 0);
        assert_eq!(mapper.cuts(2).value_to_bin(0.0), 1);
        assert_eq!(mapper.cuts(2).value_to_bin(f32::INFINITY), 1);
        // Infinities among finite values take the outer bins, seen or not.
        assert_eq!(mapper.cuts(3).value_to_bin(f32::NEG_INFINITY), 0);
        assert_eq!(mapper.cuts(3).value_to_bin(f32::INFINITY), 3);
        assert_eq!(mapper.cuts(1).value_to_bin(f32::INFINITY), 0);
        assert_eq!(mapper.cuts(1).value_to_bin(f32::NEG_INFINITY), 0);
    }

    /// An explicit NaN in sparse input is a missing entry, not a cut.
    #[test]
    fn sparse_nan_entries_do_not_reach_the_cuts() {
        let rows = vec![
            vec![(0, 1.0), (1, f32::NAN)],
            vec![(0, f32::NAN), (1, 4.0)],
            vec![(0, 3.0), (1, 2.0)],
        ];
        let m = FeatureMatrix::Sparse(CsrMatrix::from_rows(2, &rows));
        let mapper = BinMapper::from_matrix(&m, BinningConfig::default());
        assert_eq!(mapper.cuts(0).cuts, vec![1.0, 3.0]);
        assert_eq!(mapper.cuts(1).cuts, vec![2.0, 4.0]);
    }

    #[test]
    fn low_cardinality_gets_one_bin_per_value() {
        let m = dense(100, 1, |r, _| (r % 5) as f32);
        let mapper = BinMapper::from_matrix(&m, BinningConfig::default());
        assert_eq!(mapper.n_bins(0), 5);
        for level in 0..5 {
            assert_eq!(mapper.cuts(0).value_to_bin(level as f32), level as u8);
        }
    }

    #[test]
    fn high_cardinality_respects_max_bins() {
        let mut rng = StdRng::seed_from_u64(1);
        let values: Vec<f32> = (0..10_000).map(|_| rng.gen()).collect();
        let m = FeatureMatrix::Dense(DenseMatrix::from_vec(10_000, 1, values));
        let cfg = BinningConfig::with_max_bins(64);
        let mapper = BinMapper::from_matrix(&m, cfg);
        assert!(mapper.n_bins(0) <= 64);
        assert!(mapper.n_bins(0) >= 60, "got {} bins", mapper.n_bins(0));
    }

    #[test]
    fn bins_are_roughly_balanced() {
        let mut rng = StdRng::seed_from_u64(2);
        let values: Vec<f32> = (0..20_000).map(|_| rng.gen::<f32>().powi(3)).collect();
        let m = FeatureMatrix::Dense(DenseMatrix::from_vec(20_000, 1, values.clone()));
        let mapper = BinMapper::from_matrix(&m, BinningConfig::with_max_bins(32));
        let mut counts = vec![0usize; mapper.n_bins(0) as usize];
        for v in &values {
            counts[mapper.cuts(0).value_to_bin(*v) as usize] += 1;
        }
        let expect = 20_000 / counts.len();
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                c < expect * 3 && c > expect / 3,
                "bin {b} holds {c} values (expected ~{expect}) despite skew"
            );
        }
    }

    #[test]
    fn missing_values_are_excluded_from_cuts() {
        let m = dense(100, 1, |r, _| if r % 2 == 0 { f32::NAN } else { r as f32 });
        let mapper = BinMapper::from_matrix(&m, BinningConfig::default());
        assert_eq!(mapper.n_bins(0), 50);
    }

    #[test]
    fn never_present_feature_has_zero_bins() {
        let m = FeatureMatrix::Sparse(CsrMatrix::from_rows(
            3,
            &[vec![(0, 1.0)], vec![(0, 2.0), (2, 3.0)]],
        ));
        let mapper = BinMapper::from_matrix(&m, BinningConfig::default());
        assert_eq!(mapper.n_bins(1), 0);
        assert_eq!(mapper.n_bins(0), 2);
        assert_eq!(mapper.n_bins(2), 1);
    }

    #[test]
    fn offsets_are_prefix_sums() {
        let mapper = BinMapper::from_cuts(vec![
            FeatureCuts { cuts: vec![1.0, 2.0] },
            FeatureCuts { cuts: vec![] },
            FeatureCuts { cuts: vec![0.5, 1.5, 2.5] },
        ]);
        assert_eq!(mapper.bin_offset(0), 0);
        assert_eq!(mapper.bin_offset(1), 2);
        assert_eq!(mapper.bin_offset(2), 2);
        assert_eq!(mapper.total_bins(), 5);
        assert_eq!(mapper.max_bins_used(), 3);
    }

    #[test]
    fn out_of_range_values_clamp_to_outer_bins() {
        let mapper = BinMapper::from_cuts(vec![FeatureCuts { cuts: vec![1.0, 2.0, 3.0] }]);
        assert_eq!(mapper.cuts(0).value_to_bin(-5.0), 0);
        assert_eq!(mapper.cuts(0).value_to_bin(99.0), 2);
    }

    #[test]
    fn bin_cv_zero_for_uniform_counts() {
        let mapper = BinMapper::from_cuts(vec![
            FeatureCuts { cuts: vec![1.0, 2.0] },
            FeatureCuts { cuts: vec![3.0, 4.0] },
        ]);
        assert!(mapper.bin_cv() < 1e-12);
    }

    #[test]
    fn bin_cv_positive_for_skewed_counts() {
        let mapper = BinMapper::from_cuts(vec![
            FeatureCuts { cuts: vec![1.0] },
            FeatureCuts { cuts: (0..100).map(|i| i as f32).collect() },
        ]);
        assert!(mapper.bin_cv() > 0.9);
    }

    proptest! {
        /// The cut search equals the exact-sort oracle bit for bit, dense
        /// and CSR, over every value shape and bin budget.
        #[test]
        fn prop_cut_search_matches_oracle(
            seed in any::<u64>(),
            n in 0usize..700,
            shape in 0u8..4,
            missing in 0.0f64..0.6,
            max_bins in 1u16..256,
            threads in 1usize..4,
        ) {
            let column = shaped_column(seed, n, shape, missing);
            let present: Vec<f32> = column.iter().flatten().copied().collect();
            let want = build_cuts_oracle(present, usize::from(max_bins));
            for matrix in as_matrices(&column) {
                let mapper = BinMapper::from_input(
                    &SetupInput::new(&matrix, threads),
                    BinningConfig::with_max_bins(max_bins),
                    threads,
                );
                prop_assert_eq!(bits(mapper.cuts(0)), bits(&want));
            }
        }

        /// Binning must be monotone: v1 <= v2 implies bin(v1) <= bin(v2).
        #[test]
        fn prop_binning_is_monotone(
            mut values in prop::collection::vec(-1e3f32..1e3, 2..500),
            max_bins in 1u16..40,
        ) {
            let m = FeatureMatrix::Dense(DenseMatrix::from_vec(values.len(), 1, values.clone()));
            let mapper = BinMapper::from_matrix(&m, BinningConfig { max_bins });
            values.sort_by(f32::total_cmp);
            let bins: Vec<u8> = values.iter().map(|&v| mapper.cuts(0).value_to_bin(v)).collect();
            for w in bins.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }

        /// Every training value must map inside the bin whose upper bound
        /// dominates it.
        #[test]
        fn prop_values_respect_upper_bounds(
            values in prop::collection::vec(-1e3f32..1e3, 1..300),
        ) {
            let m = FeatureMatrix::Dense(DenseMatrix::from_vec(values.len(), 1, values.clone()));
            let mapper = BinMapper::from_matrix(&m, BinningConfig::with_max_bins(16));
            for &v in &values {
                let b = mapper.cuts(0).value_to_bin(v);
                prop_assert!(v <= mapper.cuts(0).upper(b), "value {} above bin {} upper {}", v, b, mapper.cuts(0).upper(b));
                if b > 0 {
                    prop_assert!(v > mapper.cuts(0).upper(b - 1));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The counting arm (columns of 2^15 keys and more) equals the
        /// oracle bit for bit too. Few cases: each sorts 10^5 floats twice.
        #[test]
        fn prop_counting_cut_search_matches_oracle(
            seed in any::<u64>(),
            n in (1usize << 15)..100_000,
            shape in 0u8..4,
            missing in 0.0f64..0.3,
            max_bins in 0usize..6,
            threads in 1usize..4,
        ) {
            let max_bins = [1u16, 2, 3, 16, 254, 255][max_bins];
            // Missing cells may leave fewer than 2^15 keys: either arm must agree.
            let column = shaped_column(seed, n, shape, missing);
            let present: Vec<f32> = column.iter().flatten().copied().collect();
            let want = build_cuts_oracle(present, usize::from(max_bins));
            for matrix in as_matrices(&column) {
                let mapper = BinMapper::from_input(
                    &SetupInput::new(&matrix, threads),
                    BinningConfig::with_max_bins(max_bins),
                    threads,
                );
                prop_assert_eq!(bits(mapper.cuts(0)), bits(&want));
            }
        }
    }
}
