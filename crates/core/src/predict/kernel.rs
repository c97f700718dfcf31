//! Blocked batch-traversal kernels.
//!
//! All kernels share one loop structure: trees in the *outer* loop, the
//! rows of one block in the inner loop, so a tree's node arrays stay
//! cache-hot while a whole block streams through it. Because the tree loop
//! is outermost, each output slot still accumulates its trees in ensemble
//! order — the sums are bitwise identical to the per-row recursive
//! reference ([`crate::tree::Tree::predict`] summed tree by tree).
//!
//! The per-row hop chain `node → child → grandchild` is a serial chain of
//! dependent loads, so a single cursor leaves the core mostly idle. Dense
//! kernels therefore walk [`LANES`] rows at once: leaves self-loop and
//! every tree records its max depth, so a *padded* walk of exactly
//! `max_steps` hops needs no leaf check — the lane loop has no
//! data-dependent branches and the lanes' load chains overlap. Trees
//! deeper than [`MAX_PADDED_STEPS`] (leafwise growth can dig hundreds of
//! levels while the average path stays short) fall back to a per-row
//! early-exit walk.
//!
//! Output addressing is strided: row `r` of the block writes
//! `out[(r - lo) * stride + offset + group]`, which serves both plain
//! row-major `n × n_groups` buffers (`stride = n_groups`, `offset = 0`)
//! and the trainer's interleaved eval buffers (one group of a wider row).

use super::flat::FlatForest;
use harp_binning::{QuantizedMatrix, MISSING_BIN};
use harp_data::{CsrMatrix, DenseMatrix, FeatureMatrix};

/// Rows traversed simultaneously by the padded dense walks.
const LANES: usize = 8;

/// Depth cutoff for padded traversal: above this, a padded walk would pay
/// for the worst-case path on every row, so the early-exit walk wins.
const MAX_PADDED_STEPS: u32 = 32;

/// Scores rows `lo..hi` of `features`, accumulating into `out` (the slice
/// covering those rows, `(hi - lo) * stride` long).
pub(super) fn score_block(
    forest: &FlatForest,
    features: &FeatureMatrix,
    lo: usize,
    hi: usize,
    out: &mut [f32],
    stride: usize,
    offset: usize,
) {
    match features {
        FeatureMatrix::Dense(m) => score_block_dense(forest, m, lo, hi, out, stride, offset),
        FeatureMatrix::Sparse(m) => score_block_sparse(forest, m, lo, hi, out, stride, offset),
    }
}

/// One routing hop on raw values: missing (NaN) follows the default
/// direction. Safe to call on a leaf (it steps to itself).
///
/// The packed node array is indexed without a bounds check: `n` always
/// comes from a `left`/`right` entry (or a root offset), which by
/// construction stay inside the node arrays. The row access stays checked
/// — it guards against a matrix narrower than the model. The missing-value
/// handling is branchless: `v <= t` is false for NaN, so NaN lands on the
/// default direction via the OR term and non-NaN values are unaffected.
#[inline(always)]
fn step_raw(forest: &FlatForest, n: usize, row: &[f32]) -> usize {
    // SAFETY: `n < n_nodes` by construction (see above).
    let node = unsafe { *forest.packed.get_unchecked(n) };
    let v = row[node.feature()];
    let go_left = (v <= node.threshold) | (v.is_nan() & node.default_left());
    (if go_left { node.left } else { node.right }) as usize
}

/// One routing hop on bins: [`MISSING_BIN`] follows the default direction.
/// Forest indexing is unchecked as in [`step_raw`].
#[inline(always)]
fn step_binned(forest: &FlatForest, n: usize, row: &[u8]) -> usize {
    // SAFETY: `n < n_nodes` by construction (see `step_raw`).
    let node = unsafe { *forest.packed.get_unchecked(n) };
    let b = row[node.feature()];
    let bin = unsafe { *forest.bin.get_unchecked(n) };
    let missing = b == MISSING_BIN;
    let go_left = (missing & node.default_left()) | (!missing & (b <= bin));
    (if go_left { node.left } else { node.right }) as usize
}

fn score_block_dense(
    forest: &FlatForest,
    m: &DenseMatrix,
    lo: usize,
    hi: usize,
    out: &mut [f32],
    stride: usize,
    offset: usize,
) {
    let g = forest.n_groups;
    for t in 0..forest.n_trees() {
        let group = t % g;
        let root = forest.tree_offsets[t] as usize;
        let steps = forest.max_steps[t];
        if steps <= MAX_PADDED_STEPS {
            let mut r = lo;
            while r + LANES <= hi {
                let rows: [&[f32]; LANES] = std::array::from_fn(|lane| m.row(r + lane));
                let mut n = [root; LANES];
                for _ in 0..steps {
                    for lane in 0..LANES {
                        n[lane] = step_raw(forest, n[lane], rows[lane]);
                    }
                }
                for lane in 0..LANES {
                    out[(r + lane - lo) * stride + offset + group] += forest.value[n[lane]];
                }
                r += LANES;
            }
            for r in r..hi {
                let row = m.row(r);
                let mut n = root;
                for _ in 0..steps {
                    n = step_raw(forest, n, row);
                }
                out[(r - lo) * stride + offset + group] += forest.value[n];
            }
        } else {
            for r in lo..hi {
                let row = m.row(r);
                let mut n = root;
                while !forest.is_leaf(n) {
                    n = step_raw(forest, n, row);
                }
                out[(r - lo) * stride + offset + group] += forest.value[n];
            }
        }
    }
}

fn score_block_sparse(
    forest: &FlatForest,
    m: &CsrMatrix,
    lo: usize,
    hi: usize,
    out: &mut [f32],
    stride: usize,
    offset: usize,
) {
    let g = forest.n_groups;
    for t in 0..forest.n_trees() {
        let group = t % g;
        let root = forest.tree_offsets[t] as usize;
        for r in lo..hi {
            let (cols, values) = m.row_slices(r);
            let mut n = root;
            while !forest.is_leaf(n) {
                let go_left = match cols.binary_search(&forest.feature[n]) {
                    Ok(i) => values[i] <= forest.threshold[n],
                    Err(_) => forest.default_left[n],
                };
                n = (if go_left { forest.left[n] } else { forest.right[n] }) as usize;
            }
            out[(r - lo) * stride + offset + group] += forest.value[n];
        }
    }
}

/// Scores rows `lo..hi` of a row-major dense bin buffer (the serving
/// protocol's quantized payload): same routing as the binned matrix path —
/// `bin <= split.bin` goes left, [`MISSING_BIN`] follows the default
/// direction — with the padded lane walk of the dense kernels.
#[allow(clippy::too_many_arguments)]
pub(super) fn score_block_bin_rows(
    forest: &FlatForest,
    bins: &[u8],
    n_cols: usize,
    lo: usize,
    hi: usize,
    out: &mut [f32],
    stride: usize,
    offset: usize,
) {
    let g = forest.n_groups;
    let row = |r: usize| &bins[r * n_cols..(r + 1) * n_cols];
    for t in 0..forest.n_trees() {
        let group = t % g;
        let root = forest.tree_offsets[t] as usize;
        let steps = forest.max_steps[t];
        if steps <= MAX_PADDED_STEPS {
            let mut r = lo;
            while r + LANES <= hi {
                let rows: [&[u8]; LANES] = std::array::from_fn(|lane| row(r + lane));
                let mut n = [root; LANES];
                for _ in 0..steps {
                    for lane in 0..LANES {
                        n[lane] = step_binned(forest, n[lane], rows[lane]);
                    }
                }
                for lane in 0..LANES {
                    out[(r + lane - lo) * stride + offset + group] += forest.value[n[lane]];
                }
                r += LANES;
            }
            for r in r..hi {
                let row = row(r);
                let mut n = root;
                for _ in 0..steps {
                    n = step_binned(forest, n, row);
                }
                out[(r - lo) * stride + offset + group] += forest.value[n];
            }
        } else {
            for r in lo..hi {
                let row = row(r);
                let mut n = root;
                while !forest.is_leaf(n) {
                    n = step_binned(forest, n, row);
                }
                out[(r - lo) * stride + offset + group] += forest.value[n];
            }
        }
    }
}

/// Scores rows `lo..hi` of an already-binned matrix: routes on the stored
/// bin thresholds (`bin <= split.bin` goes left, [`MISSING_BIN`] follows
/// the default direction) — exactly the trainer's partition predicate, so
/// no raw values and no quantization round-trip are needed.
pub(super) fn score_block_binned(
    forest: &FlatForest,
    qm: &QuantizedMatrix,
    lo: usize,
    hi: usize,
    out: &mut [f32],
    stride: usize,
    offset: usize,
) {
    let g = forest.n_groups;
    let dense_storage = qm.dense_row(lo.min(qm.n_rows().saturating_sub(1))).is_some();
    for t in 0..forest.n_trees() {
        let group = t % g;
        let root = forest.tree_offsets[t] as usize;
        let steps = forest.max_steps[t];
        if dense_storage && steps <= MAX_PADDED_STEPS {
            let mut r = lo;
            while r + LANES <= hi {
                let rows: [&[u8]; LANES] =
                    std::array::from_fn(|lane| qm.dense_row(r + lane).expect("dense storage"));
                let mut n = [root; LANES];
                for _ in 0..steps {
                    for lane in 0..LANES {
                        n[lane] = step_binned(forest, n[lane], rows[lane]);
                    }
                }
                for lane in 0..LANES {
                    out[(r + lane - lo) * stride + offset + group] += forest.value[n[lane]];
                }
                r += LANES;
            }
            for r in r..hi {
                let row = qm.dense_row(r).expect("dense storage");
                let mut n = root;
                for _ in 0..steps {
                    n = step_binned(forest, n, row);
                }
                out[(r - lo) * stride + offset + group] += forest.value[n];
            }
        } else {
            for r in lo..hi {
                let mut n = root;
                if let Some(row) = qm.dense_row(r) {
                    while !forest.is_leaf(n) {
                        n = step_binned(forest, n, row);
                    }
                } else {
                    let (cols, bins) = qm.sparse_row(r).expect("sparse storage");
                    while !forest.is_leaf(n) {
                        let go_left = match cols.binary_search(&forest.feature[n]) {
                            Ok(i) => bins[i] <= forest.bin[n],
                            Err(_) => forest.default_left[n],
                        };
                        n = (if go_left { forest.left[n] } else { forest.right[n] }) as usize;
                    }
                }
                out[(r - lo) * stride + offset + group] += forest.value[n];
            }
        }
    }
}
