//! Cut-point search and value→bin mapping.
//!
//! Cut search is pass 1 of set-up (pass 2, quantization, lives in
//! [`crate::quantized`]): ⟨feature⟩ tasks on scoped threads, each gathering
//! one column into a per-worker key buffer. The cuts are at most `max_bins`
//! order statistics, so a long column is not sorted: its keys are bucketed
//! by one counting pass, a prefix sum and a scatter, and each quantile rank
//! is selected inside its own bucket (`CountingScratch::cuts_by_counting`).
//! A column too short to repay 64 Ki counters is sorted in place — a sparse
//! one as ⟨key, position⟩ pairs, which also bin it in one walk when set-up
//! hands in the CSC-order bins, so pass 2 never searches its cuts; a long one
//! that turns out to hold at most `max_bins` distinct values is finished by
//! its gather, which collected them in a small capped set (`FewKeys`). Every
//! way the cuts equal the exact-sort oracle kept in this module's tests, bit
//! for bit. Transient memory is `threads × (n_rows × 6 + 260 KiB)` bytes,
//! plus `threads × min(longest column, 2¹⁵) × 8` of pairs for sparse input —
//! never a whole-matrix copy.
//!
//! The module also owns every way of mapping a value to its bin:
//! [`FeatureCuts::value_to_bin`], a binary search, for single values
//! (prediction, pass 2 on runs too short for a lookup, tests) and the
//! definition the others are tested against; the crate-private `BinLookup`,
//! a monotone slot table pass 2 builds once per feature and task and runs
//! long columns through, eight cells a step where the host has AVX2; and
//! the walk over a sorted sparse column (`cuts_of_sorted_pairs`).

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
/// [`MAX_SLOTS`](Self::MAX_SLOTS) + 4 bytes.
///
/// A cell's bin has one definition, [`bin`](Self::bin); whole columns go
/// through [`bin_run`](Self::bin_run), whose vector body computes eight
/// cells per step and hands back to `bin` every lane it cannot finish.
pub(crate) struct BinLookup<'a> {
    cuts: &'a [f32],
    vmin: f32,
    /// Slots per unit of value; 0 when the span overflows (every value is in
    /// slot 0 and the walk is the plain search), `inf` when it is empty.
    scale: f32,
    /// The highest slot, `slots - 1`.
    last_slot: usize,
    /// `start[s]` = cuts in slots below `s` for `s` in `0..=slots`, then
    /// [`START_PAD`](Self::START_PAD) bytes nobody interprets: the vector
    /// body reads `start[s]` and `start[s + 1]` as the low bytes of one
    /// 32-bit load at `s`.
    start: Vec<u8>,
}

impl<'a> BinLookup<'a> {
    const MAX_SLOTS: usize = 4096;
    /// The table's `u8` counts hold this many cuts — every mapper set-up
    /// builds, since bin 255 is the missing sentinel.
    const MAX_CUTS: usize = 255;
    /// Bytes after `start[slots]`, so that four bytes can be read at any index
    /// of the table.
    const START_PAD: usize = 3;

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
        let start = vec![0; slots + 1 + Self::START_PAD];
        let mut lookup = Self { cuts, vmin, scale, last_slot: slots - 1, start };
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
        (((v - self.vmin) * self.scale) as usize).min(self.last_slot)
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

    /// Bins a run of cells: `out[i]` becomes the bin of `values[i * stride]`,
    /// or `missing` where that value is `NaN`. One body per call: eight cells
    /// a step where the host has AVX2, `bin` cell by cell elsewhere — the
    /// same bytes either way.
    ///
    /// # Panics
    /// Panics if the run's last cell lies outside `values`.
    pub(crate) fn bin_run(&self, values: &[f32], stride: usize, missing: u8, out: &mut [u8]) {
        let Some(steps) = out.len().checked_sub(1) else { return };
        let last_cell = steps.checked_mul(stride);
        assert!(last_cell.is_some_and(|cell| cell < values.len()), "run outside the values");
        #[cfg(target_arch = "x86_64")]
        if stride <= Self::MAX_VECTOR_STRIDE && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected just now; the run's last cell, hence
            // every cell, is inside `values` (asserted above), and the stride
            // is within the vector body's limit.
            unsafe { self.bin_run_avx2(values, stride, missing, out) };
            return;
        }
        self.bin_run_scalar(values, stride, missing, out);
    }

    /// The scalar body of [`bin_run`](Self::bin_run), and the tail of the
    /// vector one.
    fn bin_run_scalar(&self, values: &[f32], stride: usize, missing: u8, out: &mut [u8]) {
        for (i, bin) in out.iter_mut().enumerate() {
            let v = values[i * stride];
            *bin = if v.is_nan() { missing } else { self.bin(v) };
        }
    }

    /// Largest stride the vector body takes: its eight lane offsets
    /// `0..=7 × stride` are 32-bit gather indices.
    #[cfg(target_arch = "x86_64")]
    const MAX_VECTOR_STRIDE: usize = i32::MAX as usize / 8;

    /// The vector body of [`bin_run`](Self::bin_run): the arithmetic of
    /// [`slot`](Self::slot) and of the one-cut arm of [`bin`](Self::bin) on
    /// eight cells at once. A lane whose slot holds several cuts is handed
    /// to `bin` itself, so there is no second search to keep equal. The loop
    /// over the run lives in here because nothing inlines across a
    /// `target_feature` boundary: called once per eight cells from an
    /// un-annotated loop this body was slower than the scalar one.
    ///
    /// # Safety
    /// The host supports AVX2; `i * stride < values.len()` for every
    /// `i < out.len()`; `stride <= MAX_VECTOR_STRIDE`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn bin_run_avx2(&self, values: &[f32], stride: usize, missing: u8, out: &mut [u8]) {
        use std::arch::x86_64::*;
        let vmin = _mm256_set1_ps(self.vmin);
        let scale = _mm256_set1_ps(self.scale);
        let zero = _mm256_setzero_ps();
        let last_slot = _mm256_set1_ps(self.last_slot as f32);
        let last_cut = _mm256_set1_epi32(self.cuts.len() as i32 - 1);
        let low_byte = _mm256_set1_epi32(0xFF);
        let one = _mm256_set1_epi32(1);
        let missing_lanes = _mm256_set1_epi32(i32::from(missing));
        let lane_cells = _mm256_mullo_epi32(
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            _mm256_set1_epi32(stride as i32),
        );
        // Byte 0 of each 32-bit lane, gathered into the low four bytes of
        // its 128-bit half.
        let low_bytes = _mm256_setr_epi8(
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        );

        let whole = out.len() - out.len() % 8;
        for (step, bins) in out[..whole].chunks_exact_mut(8).enumerate() {
            let cell = step * 8 * stride;
            debug_assert!(cell + 7 * stride < values.len());
            // SAFETY: lane `i` reads `values[cell + i * stride]`, cell
            // `step * 8 + i < out.len()` of the run — in bounds by this
            // function's contract — and `7 * stride` fits an `i32`.
            let v = unsafe {
                let at = values.as_ptr().add(cell);
                if stride == 1 {
                    _mm256_loadu_ps(at)
                } else {
                    _mm256_i32gather_ps::<4>(at, lane_cells)
                }
            };
            // `slot`: `max` and `min` return their second operand when the
            // first is `NaN`, so `NaN` goes to slot 0 as in the saturating
            // cast, and what is left converts exactly.
            let scaled = _mm256_mul_ps(_mm256_sub_ps(v, vmin), scale);
            let slot = _mm256_cvttps_epi32(_mm256_min_ps(_mm256_max_ps(scaled, zero), last_slot));
            debug_assert!(lanes_are_below(slot, self.start.len().saturating_sub(3)));
            // SAFETY: every lane of `slot` is in `0..=last_slot`, and the
            // four bytes at `start[slot]` end at most at `last_slot + 3`,
            // inside the table of `last_slot + 2 + START_PAD` bytes.
            let counts = unsafe { _mm256_i32gather_epi32::<1>(self.start.as_ptr().cast(), slot) };
            let lo = _mm256_and_si256(counts, low_byte);
            let hi = _mm256_and_si256(_mm256_srli_epi32::<8>(counts), low_byte);
            let candidate = _mm256_min_epi32(lo, last_cut);
            debug_assert!(lanes_are_below(candidate, self.cuts.len()));
            // SAFETY: the index is clamped to `cuts.len() - 1`, and the
            // lookup is never built for an empty cut set.
            let cut = unsafe { _mm256_i32gather_ps::<4>(self.cuts.as_ptr(), candidate) };
            // An all-ones lane is −1: subtracting it counts the cut below `v`.
            let below = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LT_OQ>(cut, v));
            let bin = _mm256_min_epi32(_mm256_sub_epi32(lo, below), last_cut);
            let absent = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_UNORD_Q>(v, v));
            let bin = _mm256_blendv_epi8(bin, missing_lanes, absent);
            let packed = _mm256_shuffle_epi8(bin, low_bytes);
            let (low, high) = (
                _mm256_extract_epi32::<0>(packed) as u32,
                _mm256_extract_epi32::<4>(packed) as u32,
            );
            bins.copy_from_slice(&(u64::from(low) | u64::from(high) << 32).to_le_bytes());

            let crowded = _mm256_cmpgt_epi32(_mm256_sub_epi32(hi, lo), one);
            let mut again =
                _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_andnot_si256(absent, crowded)));
            while again != 0 {
                let lane = again.trailing_zeros() as usize;
                bins[lane] = self.bin(values[cell + lane * stride]);
                again &= again - 1;
            }
        }
        if whole < out.len() {
            self.bin_run_scalar(&values[whole * stride..], stride, missing, &mut out[whole..]);
        }
    }
}

/// Whether every 32-bit lane of `v` is in `0..bound`: the debug-build check
/// of the vector body's gather indices.
///
/// # Safety
/// The host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lanes_are_below(v: std::arch::x86_64::__m256i, bound: usize) -> bool {
    let mut lanes = [0i32; 8];
    // SAFETY: `lanes` is 32 writable bytes, and the store is unaligned.
    unsafe { std::arch::x86_64::_mm256_storeu_si256(lanes.as_mut_ptr().cast(), v) };
    lanes.iter().all(|&lane| usize::try_from(lane).is_ok_and(|lane| lane < bound))
}

/// Per-feature cuts for a whole dataset plus flattened-histogram offsets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BinMapper {
    features: Vec<FeatureCuts>,
    /// `bin_offsets[f]` = sum of bins of features `0..f`; length
    /// `n_features + 1`.
    bin_offsets: Vec<u32>,
}

impl BinMapper {
    /// Builds cut points for every column of `matrix`: exact quantiles of
    /// the present values (one bin per distinct value when they fit the
    /// budget), columns searched in parallel on scoped threads. This is the
    /// first half of set-up — the wall-clock a user pays before the first
    /// tree, which no trainer phase accounts for.
    pub fn from_matrix(matrix: &FeatureMatrix, config: BinningConfig) -> Self {
        let threads = setup_threads();
        Self::from_input(&SetupInput::new(matrix, threads), config, threads, None)
    }

    /// [`from_matrix`](Self::from_matrix) over an already gathered input, on
    /// `threads` threads (the cuts do not depend on the count). Handed
    /// `csc_bins` — sparse input only, one byte per entry of the value CSC in
    /// its order — it also writes the bins of every column it sorts
    /// ([`bins_while_cutting`]); the other bytes are left as they were.
    pub(crate) fn from_input(
        input: &SetupInput<'_>,
        config: BinningConfig,
        threads: usize,
        csc_bins: Option<&mut [u8]>,
    ) -> Self {
        assert!((1..=255).contains(&config.max_bins), "max_bins must be in 1..=255");
        Self::from_cuts(search_cuts(input, usize::from(config.max_bins), threads, csc_bins))
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
        Self { features, bin_offsets }
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
    /// cap).
    pub fn bin_widths(&self) -> impl ExactSizeIterator<Item = u16> + '_ {
        self.features.iter().map(FeatureCuts::n_bins)
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
/// columns, one [`CountingScratch`]) for its columns. A long column's keys
/// also pass through the worker's [`FewKeys`] as they are gathered, and a
/// column that turns out to hold at most `max_bins` values is finished by
/// its gather: the set is its cuts.
///
/// A sparse column the sort arm takes ([`bins_while_cutting`]) is sorted as
/// ⟨key, position⟩ pairs instead, in a buffer of its own, and when
/// `csc_bins` — one byte per entry of the value CSC, in its order — is
/// given, the sorted pairs also write that column's bins
/// ([`cuts_of_sorted_pairs`]).
fn search_cuts(
    input: &SetupInput<'_>,
    max_bins: usize,
    threads: usize,
    csc_bins: Option<&mut [u8]>,
) -> Vec<FeatureCuts> {
    let mut features = vec![FeatureCuts { cuts: Vec::new() }; input.n_cols()];
    let ranges = split_ranges(input.n_cols(), threads, 1);
    let csc = match input {
        SetupInput::Sparse(_, csc) => Some(csc),
        SetupInput::Dense(_) => None,
    };
    let range_bins: Vec<Option<&mut [u8]>> = match (csc, csc_bins) {
        (Some(csc), Some(bins)) => {
            assert_eq!(bins.len(), csc.vals.len(), "one bin per entry of the value CSC");
            let lens = ranges.iter().map(|r| csc.indptr[r.end] - csc.indptr[r.start]);
            split_mut(bins, lens).into_iter().map(Some).collect()
        }
        (None, Some(_)) => panic!("only a sparse input has CSC-order bins"),
        (_, None) => ranges.iter().map(|_| None).collect(),
    };
    // Allocated here and lent to the workers: memory freed inside a
    // short-lived thread stays resident in that thread's allocator arena,
    // where nothing the caller allocates afterwards can reuse it. Only the
    // columns no pair buffer takes gather bare keys.
    let longest = input.max_column_len();
    let key_len = if csc.is_some() && bins_while_cutting(longest) { 0 } else { longest };
    let pair_len = if csc.is_some() { longest.min(COUNTING_MIN_KEYS) } else { 0 };
    let mut buffers: Vec<(Vec<u32>, Vec<u64>, CountingScratch)> = ranges
        .iter()
        .map(|_| {
            let scratch = CountingScratch::for_columns_of(key_len);
            (Vec::with_capacity(key_len), Vec::with_capacity(pair_len), scratch)
        })
        .collect();
    let outputs = split_mut(&mut features, ranges.iter().map(|r| r.len()));
    let mut tasks = Vec::new();
    for (((range, mine), mut bins), (keys, pairs, scratch)) in
        ranges.into_iter().zip(outputs).zip(range_bins).zip(&mut buffers)
    {
        tasks.push(move || {
            let base = csc.map_or(0, |c| c.indptr[range.start]);
            for (f, out) in range.zip(mine) {
                if let Some(csc) = csc.filter(|c| bins_while_cutting(c.col(f).len())) {
                    let col = csc.col(f);
                    let col_bins =
                        bins.as_deref_mut().map(|b| &mut b[col.start - base..col.end - base]);
                    *out = cuts_of_sorted_pairs(&csc.vals[col], pairs, max_bins, col_bins);
                    continue;
                }
                keys.clear();
                // Only where the counting arm would run: a short column's
                // sort is cheaper than probing for every key of it.
                if input.column_len(f) >= COUNTING_MIN_KEYS {
                    let few = &mut scratch.few;
                    few.reset(max_bins);
                    input.for_each_in_col(f, |v| {
                        let key = sort_key(v);
                        keys.push(key);
                        few.insert(key);
                    });
                    if let Some(cuts) = few.cuts() {
                        *out = FeatureCuts { cuts };
                        continue;
                    }
                } else {
                    input.for_each_in_col(f, |v| keys.push(sort_key(v)));
                }
                *out = cuts_from_keys(keys, scratch, max_bins);
            }
        });
    }
    run_tasks(tasks);
    features
}

/// Whether pass 1 sorts a sparse column of `column_len` entries — and so,
/// handed the CSC-order bins, bins it too, leaving pass 2 only the columns
/// long enough for the counting arm.
pub(crate) fn bins_while_cutting(column_len: usize) -> bool {
    column_len < COUNTING_MIN_KEYS
}

/// The sort arm for one sparse column of `values` (shorter than
/// [`COUNTING_MIN_KEYS`], so a position fits the low half of a pair): sorts
/// `sort_key(v) << 32 | position` pairs, reads the cuts off their high
/// halves by the one [`cuts_of_run`] rule and, given `bins` (the column's
/// slice of the CSC-order bins), bins the column in one walk over the pairs.
///
/// The walk equals [`FeatureCuts::value_to_bin`]: that is the clamped number
/// of cuts `c < v`, and because the values arrive ascending in
/// [`f32::total_cmp`] order — never descending in `<`, `±0` included — that
/// number never falls along the walk, so the cursor only moves up.
fn cuts_of_sorted_pairs(
    values: &[f32],
    pairs: &mut Vec<u64>,
    max_bins: usize,
    bins: Option<&mut [u8]>,
) -> FeatureCuts {
    assert!(bins_while_cutting(values.len()), "a position fits the low half of a pair");
    let key = |pair: u64| (pair >> 32) as u32;
    pairs.clear();
    pairs.extend((0u64..).zip(values).map(|(at, &v)| u64::from(sort_key(v)) << 32 | at));
    pairs.sort_unstable();
    let cuts = cuts_of_run(pairs, key, max_bins);
    if let Some(bins) = bins {
        let mut p = 0;
        for &pair in pairs.iter() {
            let v = key_value(key(pair));
            while p < cuts.len() && cuts[p] < v {
                p += 1;
            }
            bins[pair as u32 as usize] = p.min(cuts.len() - 1) as u8;
        }
    }
    FeatureCuts { cuts }
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
        cuts_of_run(keys, |key| key, max_bins)
    } else {
        scratch.cuts_by_counting(keys, max_bins)
    };
    FeatureCuts { cuts }
}

/// The cut rule, read off a run ascending in the keys `key` reads from its
/// items (a column's bare keys, or its ⟨key, position⟩ pairs).
fn cuts_of_run<T: Copy>(run: &[T], key: impl Fn(T) -> u32, max_bins: usize) -> Vec<f32> {
    let n = run.len();
    let mut cuts: Vec<f32> = Vec::new();
    // A high-cardinality column leaves this loop after `max_bins + 1`
    // distinct values, i.e. almost at once.
    for &item in run {
        push_new(&mut cuts, key(item));
        if cuts.len() > max_bins {
            cuts.clear();
            for i in 1..=max_bins {
                push_new(&mut cuts, key(run[rank_position(i, n, max_bins)]));
            }
            break;
        }
    }
    cuts
}

/// The distinct keys of a column for as long as they may be `max_bins`
/// distinct values — `max_bins + 1` keys, since `-0.0` and `+0.0` are two
/// keys and one value: an open-addressed table at a quarter full or less.
/// Once one key too many has arrived the set is *overflowed*, holds nothing
/// of use and takes no more.
struct FewKeys {
    /// [`SLOTS`](Self::SLOTS) keys, 0 = empty: no value has the sort key 0
    /// (it is that of a `NaN` bit pattern). Empty for a worker that will not
    /// meet a long column.
    table: Vec<u32>,
    /// Distinct keys seen, `max_bins + 2` once overflowed.
    len: usize,
    max_bins: usize,
}

impl FewKeys {
    const SLOTS: usize = 1024;

    /// Empties the set for a column that gets at most `max_bins` bins.
    fn reset(&mut self, max_bins: usize) {
        assert!(4 * (max_bins + 1) <= Self::SLOTS, "a probe must find an empty slot");
        self.table.fill(0);
        (self.len, self.max_bins) = (0, max_bins);
    }

    fn overflowed(&self) -> bool {
        self.len > self.max_bins + 1
    }

    #[inline]
    fn insert(&mut self, key: u32) {
        debug_assert_ne!(key, 0, "not the sort key of a value");
        if self.overflowed() {
            return;
        }
        let mut at = (key.wrapping_mul(0x9E37_79B1) >> 22) as usize;
        loop {
            match self.table[at] {
                held if held == key => return,
                0 => break,
                _ => at = (at + 1) % Self::SLOTS,
            }
        }
        self.len += 1;
        if !self.overflowed() {
            self.table[at] = key;
        }
    }

    /// The cuts of the column whose keys were inserted, when it holds at
    /// most `max_bins` distinct values — one bin each, as [`cuts_of_run`]
    /// reads them off the sorted column. `None` otherwise, overflowed or
    /// holding `max_bins + 1` keys without both zeros among them.
    fn cuts(&self) -> Option<Vec<f32>> {
        if self.overflowed() {
            return None;
        }
        let mut keys: Vec<u32> = self.table.iter().copied().filter(|&key| key != 0).collect();
        keys.sort_unstable();
        let mut cuts = Vec::with_capacity(keys.len());
        for key in keys {
            push_new(&mut cuts, key);
        }
        (cuts.len() <= self.max_bins).then_some(cuts)
    }
}

/// A pass-1 worker's buffers for long columns: the [`FewKeys`] their gather
/// feeds and, for the counting arm of [`cuts_from_keys`], one counter per
/// bucket and the keys' low bits in bucket order. Empty when no column of
/// the input is long enough to use them.
struct CountingScratch {
    few: FewKeys,
    /// Per bucket: its key count, then its start, then (after the scatter)
    /// its exclusive end in `low`.
    ends: Vec<u32>,
    /// The bits of `key - kmin` below the bucket index, grouped by bucket.
    low: Vec<u16>,
}

impl CountingScratch {
    /// Scratch for columns of at most `max_column_len` keys.
    fn for_columns_of(max_column_len: usize) -> Self {
        let long = max_column_len >= COUNTING_MIN_KEYS;
        let sized = |len: usize| if long { len } else { 0 };
        Self {
            few: FewKeys { table: vec![0; sized(FewKeys::SLOTS)], len: 0, max_bins: 0 },
            ends: vec![0; sized(BUCKETS)],
            low: vec![0; sized(max_column_len)],
        }
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
            return cuts_of_run(keys, |key| key, max_bins);
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
                    None,
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
        let one = BinMapper::from_input(&input, BinningConfig::default(), 1, None);
        for threads in [2, 5, 64] {
            let many = BinMapper::from_input(&input, BinningConfig::default(), threads, None);
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
                    None,
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
                let mut scratch = CountingScratch::for_columns_of(n.max(COUNTING_MIN_KEYS));
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

    /// The capped set finishes exactly the long columns that fit one bin per
    /// value: columns of `max_bins`, `max_bins + 1` and `max_bins + 2`
    /// distinct keys, with and without the `±0` pair (two keys, one value)
    /// and with missing cells, against the oracle through both layouts — and
    /// the set itself says `Some` where the values fit and `None` where they
    /// do not, overflowed or one key short of it.
    #[test]
    fn few_keys_finish_the_columns_that_fit_one_bin_per_value() {
        let n = COUNTING_MIN_KEYS + 1_000;
        for max_bins in [1usize, 3, 16, 255] {
            for n_keys in max_bins..=max_bins + 2 {
                for (zero_pair, missing) in [(false, 0.0), (true, 0.0), (false, 0.2), (true, 0.2)] {
                    if zero_pair && n_keys < 2 {
                        continue;
                    }
                    let mut levels: Vec<f32> = if zero_pair { vec![-0.0, 0.0] } else { Vec::new() };
                    let others =
                        (1..).map(|i| if i % 2 == 0 { i as f32 * 0.5 } else { -(i as f32) });
                    levels.extend(others.take(n_keys - levels.len()));
                    let mut rng = StdRng::seed_from_u64((max_bins * 8 + n_keys) as u64);
                    // Every level once, then levels and holes at random.
                    let column: Vec<Option<f32>> = (0..n)
                        .map(|i| match levels.get(i) {
                            Some(&level) => Some(level),
                            None if rng.gen::<f64>() < missing => None,
                            None => Some(levels[rng.gen_range(0..levels.len())]),
                        })
                        .collect();

                    let present: Vec<f32> = column.iter().flatten().copied().collect();
                    let want = build_cuts_oracle(present.clone(), max_bins);
                    let mut few = CountingScratch::for_columns_of(n).few;
                    few.reset(max_bins);
                    present.iter().for_each(|&v| few.insert(sort_key(v)));
                    let fits = n_keys - usize::from(zero_pair) <= max_bins;
                    let case = format!("{n_keys} keys for {max_bins} bins, zeros {zero_pair}");
                    match few.cuts() {
                        Some(cuts) => {
                            assert!(fits, "{case}: finished a column that needs quantiles");
                            assert_eq!(bits(&FeatureCuts { cuts }), bits(&want), "{case}");
                        }
                        None => assert!(!fits, "{case}: declined a column it holds"),
                    }
                    assert_matches_oracle(&column, max_bins as u16);
                }
            }
        }
    }

    /// A reset set is empty, whatever it held and however it overflowed, and
    /// a key colliding with a held one still finds its own slot.
    #[test]
    fn few_keys_reset_forgets_and_collisions_probe_on() {
        let mut few = CountingScratch::for_columns_of(COUNTING_MIN_KEYS).few;
        few.reset(3);
        (1..=9u32).for_each(|i| few.insert(sort_key(i as f32)));
        assert_eq!(few.cuts(), None, "nine keys overflow a set for three bins");
        few.reset(255);
        assert_eq!(few.cuts(), Some(Vec::new()), "an all-missing column has no cuts");
        // 255 keys into 1 024 slots collide; every one must come back.
        let values: Vec<f32> = (0..255).map(|i| i as f32 * 1e-3).collect();
        for _ in 0..2 {
            values.iter().for_each(|&v| few.insert(sort_key(v)));
        }
        assert_eq!(few.cuts(), Some(values));
    }

    /// Cut sets for every arm of the run kernel, by `kind`: a single cut,
    /// infinite ends (alone and around finite cuts), a span that overflows
    /// (`scale == 0`, every cut in slot 0), subnormals around the zeros,
    /// neighbouring floats far from a lone outlier (many cuts a slot),
    /// geometric and random spacings.
    fn run_kernel_cuts(kind: u8, rng: &mut StdRng) -> Vec<f32> {
        let mut random = |n: usize, lo: f32, hi: f32| -> Vec<f32> {
            let mut cuts: Vec<f32> = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
            cuts.sort_by(f32::total_cmp);
            cuts.dedup();
            cuts
        };
        match kind {
            0 => random(1, -10.0, 10.0),
            1 => vec![f32::NEG_INFINITY, f32::INFINITY],
            2 => {
                let mut cuts = vec![f32::NEG_INFINITY];
                cuts.extend(random(30, -5.0, 5.0));
                cuts.push(f32::INFINITY);
                cuts
            }
            3 => {
                let mut cuts = vec![-3e38];
                cuts.extend(random(20, -1e3, 1e3));
                cuts.push(3e38);
                cuts
            }
            4 => {
                let mut cuts: Vec<f32> = (1..=6u32).rev().map(|b| -f32::from_bits(b)).collect();
                cuts.push(-0.0);
                cuts.extend((1..=6u32).map(f32::from_bits));
                cuts
            }
            5 => {
                let mut cuts: Vec<f32> =
                    (0..40).map(|i| f32::from_bits(1.5f32.to_bits() + i)).collect();
                cuts.push(1e6);
                cuts
            }
            6 => (0..255).map(|i| 1e-3 * 1.07f32.powi(i)).collect(),
            _ => random(255, -1e3, 1e3),
        }
    }

    /// Values a run can hold: missing cells, the zeros, the infinities, the
    /// extremes, subnormals, every cut with its two neighbours, values
    /// inside the cuts' span and random bit patterns.
    fn run_kernel_values(cuts: &[f32], n: usize, rng: &mut StdRng) -> Vec<f32> {
        let specials =
            [f32::NAN, -f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::MAX, f32::MIN];
        let (lo, hi) = (cuts[0].max(-1e30), cuts[cuts.len() - 1].min(1e30));
        (0..n)
            .map(|_| match rng.gen_range(0..6u32) {
                0 => specials[rng.gen_range(0..specials.len())],
                1 => f32::from_bits(rng.gen_range(0..4u32) | rng.gen_range(0..2u32) << 31),
                2 | 3 => {
                    let key = sort_key(cuts[rng.gen_range(0..cuts.len())]);
                    let near = key.wrapping_add(rng.gen_range(0..3u32)).wrapping_sub(1);
                    // One below `-inf`'s key or above `+inf`'s is a `NaN`'s:
                    // a missing cell, as good a probe as any.
                    key_value(near)
                }
                4 if lo < hi => rng.gen_range(lo..hi),
                _ => f32::from_bits(rng.gen()),
            })
            .collect()
    }

    /// Says once per test binary that the vector body cannot run here.
    #[cfg(target_arch = "x86_64")]
    fn host_has_avx2() -> bool {
        static SAID: std::sync::Once = std::sync::Once::new();
        let has = std::arch::is_x86_feature_detected!("avx2");
        if !has {
            SAID.call_once(|| {
                eprintln!("SKIPPED: no AVX2 on this host, BinLookup::bin_run_avx2 is NOT tested")
            });
        }
        has
    }

    #[test]
    #[should_panic(expected = "run outside the values")]
    fn bin_run_rejects_a_run_that_leaves_the_values() {
        let cuts = FeatureCuts { cuts: vec![1.0, 2.0] };
        let lookup = BinLookup::for_column(&cuts, usize::MAX).expect("long column");
        // Nine cells at stride 3 end at cell 24.
        lookup.bin_run(&[0.5; 24], 3, 255, &mut [0; 9]);
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

    /// Table III's `CV` column: each generator, quantized with the default
    /// config, lands within 0.1 of the paper's bin-count CV, in the paper's
    /// order. At scale 0.1 the yfcc-like CV reads ≈ 0.11 against the paper's
    /// 0.06; at 0.05 it reads ≈ 0.15, within 0.01 of the bound, and from 0.5
    /// on it is 0. The dense shapes do not move with scale.
    #[test]
    fn bin_cv_tracks_table_iii() {
        use harp_data::{DatasetKind, SynthConfig};
        let cv = |kind: DatasetKind| {
            let d = SynthConfig::new(kind, 42).with_scale(0.1).generate();
            let cv = crate::QuantizedMatrix::from_matrix(&d.features, BinningConfig::default())
                .mapper()
                .bin_cv();
            let paper = kind.paper_stats().cv;
            assert!((cv - paper).abs() <= 0.1, "{}: CV {cv:.3} vs paper {paper:.2}", kind.name());
            cv
        };
        let [higgs, airline, criteo, yfcc, synset] = DatasetKind::ALL.map(cv);
        assert!(airline > criteo && criteo > higgs, "{airline} > {criteo} > {higgs}");
        assert!(higgs > yfcc.max(synset), "{higgs} > max({yfcc}, {synset})");
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
                    None,
                );
                prop_assert_eq!(bits(mapper.cuts(0)), bits(&want));
            }
        }

        /// The run kernel's two bodies and its dispatcher write, lane for
        /// lane, `value_to_bin` of every present cell and the missing byte
        /// for every `NaN`: run lengths 0..=17 (every tail of the eight-lane
        /// step), stride 1 and a row-major matrix's, the run ending on the
        /// last element of `values` (a lane read past its cell would leave
        /// the allocation) and `out` poisoned beforehand. The cut sets put
        /// values in the last slot (the padded 32-bit read of `start`),
        /// above the last cut (the clamped cut index) and in slots holding
        /// several cuts (the re-run lanes).
        #[test]
        fn prop_bin_run_bodies_equal_value_to_bin(
            seed in any::<u64>(),
            kind in 0u8..8,
            m in 2usize..40,
            first in 0usize..3,
            missing in any::<u8>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cuts = FeatureCuts { cuts: run_kernel_cuts(kind, &mut rng) };
            let lookup = BinLookup::for_column(&cuts, usize::MAX).expect("long column");
            let poison = missing.wrapping_add(1);
            for (n, stride) in (0..=17usize).flat_map(|n| [(n, 1), (n, m)]) {
                let len = if n == 0 { first } else { first + (n - 1) * stride + 1 };
                let values = run_kernel_values(&cuts.cuts, len, &mut rng);
                // Any alignment of the first cell.
                let values = &values[first..];
                let want: Vec<u8> = (0..n)
                    .map(|i| values[i * stride])
                    .map(|v| if v.is_nan() { missing } else { cuts.value_to_bin(v) })
                    .collect();
                let case = format!("{n} cells at stride {stride} of {values:?} in {:?}", cuts.cuts);

                let mut out = vec![poison; n];
                lookup.bin_run_scalar(values, stride, missing, &mut out);
                prop_assert!(out == want, "scalar body {out:?} != {want:?}: {case}");
                out.fill(poison);
                lookup.bin_run(values, stride, missing, &mut out);
                prop_assert!(out == want, "dispatcher {out:?} != {want:?}: {case}");
                #[cfg(target_arch = "x86_64")]
                if host_has_avx2() {
                    out.fill(poison);
                    // SAFETY: AVX2 detected; `values` holds the run's last
                    // cell (`len` above); `stride` is far below the limit.
                    unsafe { lookup.bin_run_avx2(values, stride, missing, &mut out) };
                    prop_assert!(out == want, "vector body {out:?} != {want:?}: {case}");
                }
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
                    None,
                );
                prop_assert_eq!(bits(mapper.cuts(0)), bits(&want));
            }
        }
    }
}
