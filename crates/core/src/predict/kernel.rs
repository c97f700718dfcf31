//! The blocked batch-traversal walk, written once for every row source.
//!
//! Trees are the *outer* loop and the rows of one block the inner loop, so
//! a tree's nodes stay cache-hot while a whole block streams through it.
//! Because the tree loop is outermost, each output slot still accumulates
//! its trees in ensemble order — the sums are bitwise identical to the
//! per-row recursive reference ([`crate::tree::Tree::predict`] summed tree
//! by tree).
//!
//! A row source ([`Source`]) supplies the routing predicate; the walk is
//! the same for dense `f32` rows, dense `u8` bin rows (a `BinRows` payload
//! or a dense quantized slab) and both CSR kinds. The per-row hop chain
//! `node → child → grandchild` is a serial chain of dependent loads, so a
//! single cursor leaves the core mostly idle. On dense sources the walk
//! therefore steps [`LANES`] rows at once: leaves self-loop and every tree
//! records its max depth, so a *padded* walk of exactly `max_steps` hops
//! needs no leaf check — the lane loop has no data-dependent branches and
//! the lanes' load chains overlap. Everything else — sparse rows, a
//! block's last `< LANES` rows, and trees deeper than
//! [`MAX_PADDED_STEPS`] (leafwise growth can dig hundreds of levels while
//! the average path stays short) — takes the per-row early-exit walk. Both
//! park on the same leaf.
//!
//! Output addressing is strided: row `r` of the block writes
//! `out[(r - lo) * stride + offset + group]`, which serves both plain
//! row-major `n × n_groups` buffers (`stride = n_groups`, `offset = 0`)
//! and the trainer's interleaved eval buffers (one group of a wider row).

use super::driver::BinRows;
use super::flat::{FlatForest, PackedNode};
use harp_binning::{QuantizedMatrix, MISSING_BIN};
use harp_data::FeatureMatrix;
use std::ops::Range;

/// Rows traversed simultaneously by the padded walk.
const LANES: usize = 8;

/// Depth cutoff for padded traversal: above this, a padded walk would pay
/// for the worst-case path on every row, so the early-exit walk wins.
const MAX_PADDED_STEPS: u32 = 32;

/// A cell type the walk compares against a split: a raw value against the
/// threshold, or a bin against the node's bin threshold.
trait Cell: Copy {
    /// Whether a present cell goes left at node `n`.
    fn goes_left(self, forest: &FlatForest, n: usize, node: PackedNode) -> bool;
    /// Whether a dense cell, which may hold the type's missing marker (NaN,
    /// [`MISSING_BIN`]), goes left; branchless.
    fn dense_goes_left(self, forest: &FlatForest, n: usize, node: PackedNode) -> bool;
}

impl Cell for f32 {
    #[inline(always)]
    fn goes_left(self, _: &FlatForest, _: usize, node: PackedNode) -> bool {
        self <= node.threshold
    }

    /// `v <= t` is false for NaN, so NaN lands on the default direction
    /// via the OR term and other values are unaffected.
    #[inline(always)]
    fn dense_goes_left(self, forest: &FlatForest, n: usize, node: PackedNode) -> bool {
        self.goes_left(forest, n, node) | (self.is_nan() & node.default_left())
    }
}

impl Cell for u8 {
    #[inline(always)]
    fn goes_left(self, forest: &FlatForest, n: usize, _: PackedNode) -> bool {
        // SAFETY: `n < n_nodes == bin.len()`, as in `step`.
        self <= unsafe { *forest.bin.get_unchecked(n) }
    }

    #[inline(always)]
    fn dense_goes_left(self, forest: &FlatForest, n: usize, node: PackedNode) -> bool {
        let missing = self == MISSING_BIN;
        (missing & node.default_left()) | (!missing & self.goes_left(forest, n, node))
    }
}

/// Rows the walk can route.
trait Source: Copy {
    /// One row's cells.
    type Row: Copy;
    /// Whether every hop costs the same on every row, so the padded lane
    /// walk pays.
    const DENSE: bool;
    fn row(self, r: usize) -> Self::Row;
    /// Whether `row` goes left at absolute node `n`, whose record is `node`.
    fn goes_left(row: Self::Row, forest: &FlatForest, n: usize, node: PackedNode) -> bool;
}

/// Row-major cells, `n_cols` per row; a missing cell holds its type's
/// marker (NaN, [`MISSING_BIN`]).
#[derive(Clone, Copy)]
struct Dense<'a, C> {
    cells: &'a [C],
    n_cols: usize,
}

impl<'a, C: Cell> Source for Dense<'a, C> {
    type Row = &'a [C];
    const DENSE: bool = true;

    #[inline(always)]
    fn row(self, r: usize) -> &'a [C] {
        &self.cells[r * self.n_cols..(r + 1) * self.n_cols]
    }

    /// The row access stays checked: it guards against a row narrower than
    /// the model.
    #[inline(always)]
    fn goes_left(row: &'a [C], forest: &FlatForest, n: usize, node: PackedNode) -> bool {
        row[node.feature()].dense_goes_left(forest, n, node)
    }
}

/// CSR rows with strictly ascending columns; an absent column is missing.
#[derive(Clone, Copy)]
struct Csr<'a, C> {
    indptr: &'a [usize],
    cols: &'a [u32],
    cells: &'a [C],
}

impl<'a, C: Cell> Source for Csr<'a, C> {
    type Row = (&'a [u32], &'a [C]);
    const DENSE: bool = false;

    #[inline(always)]
    fn row(self, r: usize) -> Self::Row {
        let span = self.indptr[r]..self.indptr[r + 1];
        (&self.cols[span.clone()], &self.cells[span])
    }

    #[inline(always)]
    fn goes_left(
        (cols, cells): Self::Row,
        forest: &FlatForest,
        n: usize,
        node: PackedNode,
    ) -> bool {
        match cols.binary_search(&(node.feature() as u32)) {
            Ok(i) => cells[i].goes_left(forest, n, node),
            Err(_) => node.default_left(),
        }
    }
}

/// One routing hop. Safe to call on a leaf (it steps to itself).
#[inline(always)]
fn step<S: Source>(forest: &FlatForest, n: usize, row: S::Row) -> usize {
    // SAFETY: `n` is a tree's root offset or a child id read from
    // `packed`. `FlatForest::from_trees` runs `check_model` first, which
    // rejects an empty tree and any child id outside its tree, so every
    // such id is below `n_nodes`;
    // `tests/predict_equivalence.rs::hostile_models_are_typed_errors`
    // builds the models that would violate it.
    let node = unsafe { *forest.packed.get_unchecked(n) };
    (if S::goes_left(row, forest, n, node) { node.left } else { node.right }) as usize
}

/// Scores `rows` of `src`, accumulating into `out` (the slice covering
/// those rows, `rows.len() * stride` long).
fn walk<S: Source>(
    forest: &FlatForest,
    src: S,
    rows: Range<usize>,
    out: &mut [f32],
    stride: usize,
    offset: usize,
) {
    let (lo, hi) = (rows.start, rows.end);
    for t in 0..forest.n_trees() {
        let slot = offset + t % forest.n_groups;
        let root = forest.tree_offsets[t] as usize;
        let steps = forest.max_steps[t];
        let mut r = lo;
        if S::DENSE && steps <= MAX_PADDED_STEPS {
            while r + LANES <= hi {
                let lane_rows: [S::Row; LANES] = std::array::from_fn(|lane| src.row(r + lane));
                let mut n = [root; LANES];
                for _ in 0..steps {
                    for lane in 0..LANES {
                        n[lane] = step::<S>(forest, n[lane], lane_rows[lane]);
                    }
                }
                for lane in 0..LANES {
                    out[(r + lane - lo) * stride + slot] += forest.value[n[lane]];
                }
                r += LANES;
            }
        }
        for r in r..hi {
            let row = src.row(r);
            let mut n = root;
            while !forest.is_leaf(n) {
                n = step::<S>(forest, n, row);
            }
            out[(r - lo) * stride + slot] += forest.value[n];
        }
    }
}

/// The rows a [`score_block`] call reads from.
#[derive(Clone, Copy)]
pub(super) enum Input<'a> {
    /// Raw values, dense or CSR.
    Features(&'a FeatureMatrix),
    /// A row-major bin payload.
    Bins(&'a BinRows<'a>),
    /// One slab of an already-binned store. A dense slab is the same
    /// row-major source as a [`BinRows`] payload.
    Quantized(&'a QuantizedMatrix),
}

/// Scores `rows` of `input`, accumulating into `out` (the slice covering
/// those rows, `rows.len() * stride` long). Binned input routes on
/// the stored bin thresholds — exactly the trainer's partition predicate,
/// so no raw values and no quantization round-trip are needed.
pub(super) fn score_block(
    forest: &FlatForest,
    input: Input<'_>,
    rows: Range<usize>,
    out: &mut [f32],
    stride: usize,
    offset: usize,
) {
    let (cells, n_cols) = match input {
        Input::Features(FeatureMatrix::Dense(m)) => {
            let src = Dense { cells: m.values(), n_cols: m.n_cols() };
            return walk(forest, src, rows, out, stride, offset);
        }
        Input::Features(FeatureMatrix::Sparse(m)) => {
            let (indptr, cols, cells) = m.parts();
            return walk(forest, Csr { indptr, cols, cells }, rows, out, stride, offset);
        }
        Input::Bins(payload) => (payload.bins, payload.n_cols),
        Input::Quantized(qm) => match qm.dense_row_major() {
            Some(bins) => (bins, qm.n_features()),
            None => {
                let (indptr, cols, cells) = qm.sparse_csr().expect("sparse storage");
                return walk(forest, Csr { indptr, cols, cells }, rows, out, stride, offset);
            }
        },
    };
    walk(forest, Dense { cells, n_cols }, rows, out, stride, offset);
}
