//! The flattened forest layout: one packed record per node.

use super::check::check_model;
use crate::params::LossKind;
use crate::tree::{SplitData, Tree};

/// One node's routing data in 16 bytes, so one load per hop fetches the
/// split feature (with the missing-value direction in the top bit), the
/// raw threshold, and both children.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub(super) struct PackedNode {
    /// Split feature in the low 31 bits; top bit set = missing goes left.
    pub(super) feature_and_default: u32,
    /// Raw-value threshold: `value <= threshold` goes left.
    pub(super) threshold: f32,
    /// Absolute left-child index; a leaf points to itself.
    pub(super) left: u32,
    /// Absolute right-child index; a leaf points to itself.
    pub(super) right: u32,
}

impl PackedNode {
    #[inline(always)]
    pub(super) fn feature(self) -> usize {
        (self.feature_and_default & 0x7FFF_FFFF) as usize
    }

    #[inline(always)]
    pub(super) fn default_left(self) -> bool {
        self.feature_and_default & 0x8000_0000 != 0
    }
}

/// What a leaf routes on: feature 0, threshold +inf, bin 255 and missing
/// left all go left, and a leaf's children are itself, so a padded walk
/// can keep stepping without a leaf check.
const LEAF: SplitData =
    SplitData { feature: 0, bin: u8::MAX, threshold: f32::INFINITY, default_left: true, gain: 0.0 };

/// An ensemble compiled into contiguous per-node arrays for batch scoring.
///
/// The arena [`Tree`] layout is convenient to grow but hostile to traverse
/// at inference time: every hop dereferences a 70-byte `Node` whose split
/// lives behind an `Option`, so a batch of rows thrashes the cache. The
/// flat layout concatenates all trees into three per-node arrays — the
/// 16-byte `PackedNode` a hop reads, the bin threshold the binned path
/// compares against, and the leaf value — 21 bytes per node, so the
/// blocked walk streams a tree's few cache lines across a whole row block
/// before moving on.
///
/// Node `i` of tree `t` lives at index `tree_offsets[t] + i`; child indices
/// are absolute. A **leaf points to itself** (`left == right == n`), so
/// walking exactly `max_steps` hops from the root always parks on the
/// row's leaf — shallow trees can therefore be traversed with a fixed,
/// branch-free step count. Routing is identical to
/// [`Tree::route`]: `value <= threshold` (or, on binned input,
/// `bin <= bin[n]`) goes left, missing values follow the default direction.
#[derive(Debug, Clone)]
pub struct FlatForest {
    pub(super) n_features: usize,
    pub(super) n_groups: usize,
    pub(super) loss: LossKind,
    pub(super) base_scores: Vec<f32>,
    /// Start of each tree's nodes; length `n_trees + 1`.
    pub(super) tree_offsets: Vec<u32>,
    /// Max depth per tree: walking this many hops from the root reaches
    /// the leaf (leaves self-loop, so overshooting is harmless).
    pub(super) max_steps: Vec<u32>,
    /// Routing record per node.
    pub(super) packed: Vec<PackedNode>,
    /// Bin threshold per node: `bin <= bin` goes left on quantized input.
    pub(super) bin: Vec<u8>,
    /// Leaf value (0 for internal nodes).
    pub(super) value: Vec<f32>,
}

impl FlatForest {
    /// Compiles `trees` into the flat layout.
    ///
    /// # Panics
    /// Panics if the model fails the structural check a loaded model is
    /// held to (`GbdtModel::from_json` returns the same failure as an
    /// error): a base score per group, whole rounds of trees, and every
    /// tree a well-formed binary tree on features below `n_features`
    /// whose node depths are their path lengths.
    pub fn from_trees(
        trees: &[Tree],
        base_scores: Vec<f32>,
        loss: LossKind,
        n_features: usize,
    ) -> Self {
        let n_nodes: usize = trees.iter().map(Tree::n_nodes).sum();
        let mut tree_offsets = Vec::with_capacity(trees.len() + 1);
        let mut max_steps = vec![0; trees.len()];
        let mut packed = Vec::with_capacity(n_nodes);
        let mut bin = Vec::with_capacity(n_nodes);
        let mut value = Vec::with_capacity(n_nodes);
        // One pass over the nodes checks and compiles them; node 0 opens
        // each tree. The visited children are in range, so the absolute
        // ids fit the node count the check has bounded.
        let checked = check_model(trees, &base_scores, loss, n_features, |t, i, node| {
            if i == 0 {
                tree_offsets.push(packed.len() as u32);
            }
            let offset = tree_offsets[t];
            max_steps[t] = max_steps[t].max(node.depth);
            let (split, left, right) = match &node.split {
                Some(s) => (*s, offset + node.left, offset + node.right),
                None => (LEAF, offset + i, offset + i),
            };
            packed.push(PackedNode {
                feature_and_default: split.feature | (u32::from(split.default_left) << 31),
                threshold: split.threshold,
                left,
                right,
            });
            bin.push(split.bin);
            value.push(if node.split.is_some() { 0.0 } else { node.weight });
        });
        if let Err(e) = checked {
            panic!("invalid model: {e}");
        }
        tree_offsets.push(packed.len() as u32);
        let n_groups = loss.n_groups();
        Self {
            n_features,
            n_groups,
            loss,
            base_scores,
            tree_offsets,
            max_steps,
            packed,
            bin,
            value,
        }
    }

    /// Compiles a single tree as a scalar forest with a zero base score —
    /// the shape the trainer's incremental evaluation accumulates with.
    pub fn single_tree(tree: &Tree, n_features: usize) -> Self {
        Self::from_trees(std::slice::from_ref(tree), vec![0.0], LossKind::SquaredError, n_features)
    }

    /// Whether absolute node `n` is a leaf (leaves self-loop).
    #[inline]
    pub(super) fn is_leaf(&self, n: usize) -> bool {
        self.packed[n].left as usize == n
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.tree_offsets.len() - 1
    }

    /// Total node count across all trees.
    pub fn n_nodes(&self) -> usize {
        self.packed.len()
    }

    /// Number of model groups (1 for scalar losses, classes for softmax).
    pub fn n_groups(&self) -> usize {
        self.n_groups
    }

    /// Number of features the model was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Per-group constant initial scores.
    pub fn base_scores(&self) -> &[f32] {
        &self.base_scores
    }

    /// The training loss (decides the prediction transform).
    pub fn loss(&self) -> LossKind {
        self.loss
    }

    /// Bytes held by the compiled arrays (the run-ledger `flat_forest`
    /// gauge; capacity, not length, since spare capacity is resident too).
    pub fn memory_bytes(&self) -> usize {
        self.base_scores.capacity() * 4
            + self.tree_offsets.capacity() * 4
            + self.max_steps.capacity() * 4
            + self.packed.capacity() * std::mem::size_of::<PackedNode>()
            + self.bin.capacity()
            + self.value.capacity() * 4
    }

    /// Argmax class per row of row-major raw scores (0.5-thresholded
    /// binary decision for scalar losses).
    pub fn classes_from_raw(&self, raw: &[f32]) -> Vec<u32> {
        let g = self.n_groups;
        if g == 1 {
            return raw.iter().map(|&s| u32::from(self.loss.transform(s) > 0.5)).collect();
        }
        raw.chunks_exact(g)
            .map(|row| {
                let mut best = 0usize;
                for (c, &s) in row.iter().enumerate() {
                    if s > row[best] {
                        best = c;
                    }
                }
                best as u32
            })
            .collect()
    }
}
