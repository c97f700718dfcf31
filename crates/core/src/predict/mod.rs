//! Flattened block-parallel batch inference.
//!
//! The training side of this crate is built around cache-conscious blocked
//! kernels; this module applies the same discipline to the *prediction*
//! path. A trained [`GbdtModel`](crate::GbdtModel) compiles into a
//! [`FlatForest`] — a struct-of-arrays layout with every tree's nodes in
//! contiguous parallel arrays — and a [`Predictor`] drives blocked
//! traversal over it:
//!
//! * **Row blocking**: rows are scored in blocks (default
//!   [`DEFAULT_ROW_BLOCK`]) with trees in the outer loop, so one tree's
//!   node arrays stay cache-hot across a whole block.
//! * **Quantized fast path**: [`Predictor::predict_raw_store`] routes on
//!   `u8` bins of an already-binned [`QuantStore`] (an in-memory
//!   `harp_binning::QuantizedMatrix` or a chunked store) using each split's
//!   bin threshold — the same predicate the trainer partitions with.
//! * **Parallel driver**: [`Predictor::with_pool`] fans row blocks out on
//!   the instrumented `harp-parallel` pool; with
//!   [`Predictor::with_breakdown`] the time lands in the Predict entry of
//!   the run's [`PhaseClock`](harp_parallel::PhaseClock), alongside
//!   BuildHist / FindSplit / ApplySplit.
//!
//! Every path is bitwise identical to the per-row recursive reference
//! ([`Tree::predict`](crate::tree::Tree::predict) summed in ensemble
//! order, i.e.
//! [`GbdtModel::predict_raw_groups_row`](crate::GbdtModel::predict_raw_groups_row)
//! row by row), which the tests spell out as their reference
//! (`tests/predict_equivalence.rs::recursive_reference`).

mod driver;
mod flat;
mod kernel;

pub use driver::{BinRows, Predictor, DEFAULT_ROW_BLOCK};
pub use flat::FlatForest;

use harp_binning::QuantStore;
use harp_data::FeatureMatrix;
use harp_parallel::ThreadPool;

/// Default-configuration shortcuts; build a [`Predictor`] to set block
/// size, pool, or phase attribution explicitly.
impl FlatForest {
    /// Raw (margin) scores, serial blocked traversal.
    pub fn predict_raw(&self, features: &FeatureMatrix) -> Vec<f32> {
        Predictor::new(self).predict_raw(features)
    }

    /// Raw scores with row blocks scored in parallel on `pool`. Bitwise
    /// identical to [`predict_raw`](Self::predict_raw).
    pub fn predict_raw_parallel(&self, features: &FeatureMatrix, pool: &ThreadPool) -> Vec<f32> {
        Predictor::new(self).with_pool(pool).predict_raw(features)
    }

    /// Raw scores for already-binned rows (routes on bins directly).
    pub fn predict_raw_store(&self, store: &dyn QuantStore) -> Vec<f32> {
        Predictor::new(self).predict_raw_store(store)
    }

    /// Response-scale predictions (probabilities for logistic/softmax,
    /// identity for squared error).
    pub fn predict(&self, features: &FeatureMatrix) -> Vec<f32> {
        Predictor::new(self).predict(features)
    }

    /// Argmax class per row (0.5-thresholded binary decision for scalar
    /// losses).
    pub fn predict_class(&self, features: &FeatureMatrix) -> Vec<u32> {
        Predictor::new(self).predict_class(features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::LossKind;
    use crate::tree::{NodeStats, SplitData, Tree};
    use harp_binning::{BinningConfig, QuantizedMatrix};
    use harp_data::{CsrMatrix, DenseMatrix};
    use harp_parallel::{PhaseClock, TracePhase};

    fn two_level_tree() -> Tree {
        let mut t = Tree::new_root(NodeStats { g: 0.0, h: 4.0, count: 4 });
        let (l, r) = t.apply_split(
            0,
            SplitData { feature: 0, bin: 1, threshold: 0.5, default_left: false, gain: 2.0 },
            NodeStats { g: -1.0, h: 2.0, count: 2 },
            NodeStats { g: 1.0, h: 2.0, count: 2 },
        );
        let (ll, lr) = t.apply_split(
            l,
            SplitData { feature: 1, bin: 0, threshold: -0.25, default_left: true, gain: 1.0 },
            NodeStats { g: -0.5, h: 1.0, count: 1 },
            NodeStats { g: -0.5, h: 1.0, count: 1 },
        );
        t.node_mut(ll).weight = 1.0;
        t.node_mut(lr).weight = 2.0;
        t.node_mut(r).weight = -3.0;
        t
    }

    fn forest() -> FlatForest {
        FlatForest::from_trees(
            &[two_level_tree(), two_level_tree()],
            vec![0.25],
            LossKind::Logistic,
            2,
        )
    }

    #[test]
    fn compile_concatenates_trees() {
        let f = forest();
        assert_eq!(f.n_trees(), 2);
        assert_eq!(f.n_nodes(), 10);
        assert_eq!(f.tree_offsets, vec![0, 5, 10]);
        // Second tree's children are absolute indices.
        assert_eq!(f.left[5], 5 + 1);
        assert_eq!(f.right[5], 5 + 2);
        // Leaves self-loop (node 7 is the second tree's right leaf).
        assert_eq!(f.left[7], 7);
        assert_eq!(f.right[7], 7);
        assert_eq!(f.max_steps, vec![2, 2]);
    }

    #[test]
    fn flat_matches_recursive_reference() {
        let f = forest();
        let tree = two_level_tree();
        let m = FeatureMatrix::Dense(DenseMatrix::from_vec(
            4,
            2,
            vec![0.0, -1.0, 0.0, 0.0, 1.0, 0.0, f32::NAN, f32::NAN],
        ));
        let got = f.predict_raw(&m);
        for (r, &score) in got.iter().enumerate() {
            let expect = 0.25 + 2.0 * tree.predict(|feat| m.get(r, feat as usize));
            assert_eq!(score, expect, "row {r}");
        }
    }

    #[test]
    fn sparse_and_dense_agree() {
        let f = forest();
        // Sparse rows: absent entries are missing, dense uses NaN.
        let dense = FeatureMatrix::Dense(DenseMatrix::from_vec(
            3,
            2,
            vec![0.0, f32::NAN, f32::NAN, -1.0, 1.0, 1.0],
        ));
        let sparse = FeatureMatrix::Sparse(CsrMatrix::from_rows(
            2,
            &[vec![(0, 0.0)], vec![(1, -1.0)], vec![(0, 1.0), (1, 1.0)]],
        ));
        assert_eq!(f.predict_raw(&dense), f.predict_raw(&sparse));
    }

    #[test]
    fn block_size_does_not_change_results() {
        let f = forest();
        let values: Vec<f32> = (0..200).map(|i| (i % 7) as f32 / 3.0 - 1.0).collect();
        let m = FeatureMatrix::Dense(DenseMatrix::from_vec(100, 2, values));
        let reference = f.predict_raw(&m);
        for block in [1, 3, 17, 1000] {
            assert_eq!(Predictor::new(&f).block_rows(block).predict_raw(&m), reference);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let f = forest();
        let values: Vec<f32> = (0..600).map(|i| (i % 11) as f32 / 5.0 - 1.0).collect();
        let m = FeatureMatrix::Dense(DenseMatrix::from_vec(300, 2, values));
        let pool = ThreadPool::new(4);
        assert_eq!(f.predict_raw_parallel(&m, &pool), f.predict_raw(&m));
    }

    #[test]
    fn binned_path_routes_like_the_partition_predicate() {
        // Quantize a matrix whose bins line up with the tree's bin
        // thresholds, then check bin routing against per-row reference
        // routing on the same bins.
        let m = FeatureMatrix::Dense(DenseMatrix::from_vec(
            5,
            2,
            vec![0.0, -1.0, 0.3, 0.0, 0.7, 1.0, 1.5, f32::NAN, f32::NAN, 0.5],
        ));
        let qm = QuantizedMatrix::from_matrix(&m, BinningConfig::default());
        let f = forest();
        let got = f.predict_raw_store(&qm);
        for (r, &score) in got.iter().enumerate() {
            let mut expect = 0.25f32;
            for t in 0..f.n_trees() {
                let mut n = f.tree_offsets[t] as usize;
                while f.left[n] as usize != n {
                    let go_left = match qm.bin(r, f.feature[n] as usize) {
                        Some(b) => b <= f.bin[n],
                        None => f.default_left[n],
                    };
                    n = (if go_left { f.left[n] } else { f.right[n] }) as usize;
                }
                expect += f.value[n];
            }
            assert_eq!(score, expect, "row {r}");
        }
    }

    #[test]
    fn multiclass_interleaves_groups() {
        let loss = LossKind::Softmax { n_classes: 3 };
        let trees: Vec<Tree> = (0..6).map(|_| two_level_tree()).collect();
        let f = FlatForest::from_trees(&trees, vec![0.1, 0.2, 0.3], loss, 2);
        let m = FeatureMatrix::Dense(DenseMatrix::from_vec(2, 2, vec![0.0, 0.0, 1.0, 0.0]));
        let raw = f.predict_raw(&m);
        assert_eq!(raw.len(), 6);
        let tree = two_level_tree();
        for r in 0..2 {
            let contrib = 2.0 * tree.predict(|feat| m.get(r, feat as usize));
            assert_eq!(&raw[r * 3..r * 3 + 3], &[0.1 + contrib, 0.2 + contrib, 0.3 + contrib]);
        }
        let classes = f.predict_class(&m);
        assert_eq!(classes, vec![2, 2]);
    }

    #[test]
    fn accumulate_raw_writes_one_group_of_a_wider_row() {
        let tree = two_level_tree();
        let f = FlatForest::single_tree(&tree, 2);
        let m = FeatureMatrix::Dense(DenseMatrix::from_vec(2, 2, vec![0.0, 0.0, 1.0, 0.0]));
        let mut preds = vec![10.0f32; 2 * 3];
        Predictor::new(&f).accumulate_raw(&m, &mut preds, 3, 1);
        for r in 0..2 {
            let w = tree.predict(|feat| m.get(r, feat as usize));
            assert_eq!(preds[r * 3], 10.0);
            assert_eq!(preds[r * 3 + 1], 10.0 + w);
            assert_eq!(preds[r * 3 + 2], 10.0);
        }
    }

    #[test]
    fn breakdown_records_the_predict_phase() {
        let f = forest();
        let m = FeatureMatrix::Dense(DenseMatrix::from_vec(4, 2, vec![0.0; 8]));
        let clock = PhaseClock::new();
        let _ = Predictor::new(&f).with_breakdown(&clock).predict_raw(&m);
        let ns = clock.snapshot();
        assert!(ns[TracePhase::Predict] > 0);
        assert_eq!(ns[TracePhase::Predict], ns.0.iter().sum::<u64>(), "only Predict is fed");
    }
}
