//! Equivalence properties of the flattened inference engine: for *any*
//! random forest and input matrix, the blocked [`FlatForest`] kernels must
//! be bitwise identical to the per-row recursive reference
//! ([`Tree::predict`] summed in ensemble order), across dense and sparse
//! inputs, missing values, multiclass grouping, block sizes, thread
//! counts, and the binned fast path. Plus: the trainer's incremental
//! validation rescoring must land on exactly the metric a full-model
//! rescore computes.

use harp_binning::{BinningConfig, QuantizedMatrix};
use harp_data::{CsrMatrix, Dataset, DatasetKind, DenseMatrix, FeatureMatrix, SynthConfig};
use harp_parallel::ThreadPool;
use harpgbdt::trainer::{EvalMetric, EvalOptions};
use harpgbdt::{
    FlatForest, GbdtTrainer, LossKind, NodeStats, Predictor, SplitData, TrainParams, Tree,
};
use proptest::prelude::*;

/// Deterministic xorshift generator; proptest drives diversity via seeds.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform-ish value in [-1, 1].
    fn unit(&mut self) -> f32 {
        (self.next() % 2001) as f32 / 1000.0 - 1.0
    }
}

fn grow(tree: &mut Tree, node: u32, depth: u32, n_features: u32, rng: &mut Rng) {
    if depth == 0 || rng.next() % 4 == 0 {
        tree.node_mut(node).weight = rng.unit();
        return;
    }
    let split = SplitData {
        feature: (rng.next() % u64::from(n_features)) as u32,
        bin: (rng.next() % 16) as u8,
        threshold: rng.unit(),
        default_left: rng.next() % 2 == 0,
        gain: 1.0,
    };
    let stats = NodeStats { g: 0.0, h: 1.0, count: 1 };
    let (l, r) = tree.apply_split(node, split, stats, stats);
    grow(tree, l, depth - 1, n_features, rng);
    grow(tree, r, depth - 1, n_features, rng);
}

fn random_tree(n_features: u32, rng: &mut Rng) -> Tree {
    let mut tree = Tree::new_root(NodeStats { g: 0.0, h: 1.0, count: 1 });
    grow(&mut tree, 0, 1 + (rng.next() % 4) as u32, n_features, rng);
    tree
}

/// A random forest (`rounds` boosting rounds of `groups` trees each),
/// returned both compiled and as the source trees for the reference.
fn random_forest(
    seed: u64,
    n_features: u32,
    rounds: usize,
    multiclass: bool,
) -> (FlatForest, Vec<Tree>) {
    let mut rng = Rng::new(seed);
    let (groups, loss) = if multiclass {
        (3usize, LossKind::Softmax { n_classes: 3 })
    } else {
        (1usize, LossKind::Logistic)
    };
    let trees: Vec<Tree> =
        (0..rounds * groups).map(|_| random_tree(n_features, &mut rng)).collect();
    let base: Vec<f32> = (0..groups).map(|_| rng.unit()).collect();
    let forest = FlatForest::from_trees(&trees, base, loss, n_features as usize);
    (forest, trees)
}

/// Dense matrix in [-1, 1] with ~1-in-5 missing entries, plus the same
/// data as CSR (absent where the dense side is NaN).
fn random_matrices(seed: u64, n_rows: usize, n_features: usize) -> (FeatureMatrix, FeatureMatrix) {
    let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9) | 1);
    let mut values = Vec::with_capacity(n_rows * n_features);
    let mut rows: Vec<Vec<(u32, f32)>> = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let mut row = Vec::new();
        for f in 0..n_features {
            if rng.next() % 5 == 0 {
                values.push(f32::NAN);
            } else {
                let v = rng.unit();
                values.push(v);
                row.push((f as u32, v));
            }
        }
        rows.push(row);
    }
    let dense = FeatureMatrix::Dense(DenseMatrix::from_vec(n_rows, n_features, values));
    let sparse = FeatureMatrix::Sparse(CsrMatrix::from_rows(n_features, &rows));
    (dense, sparse)
}

/// Per-row recursive reference: base scores plus every tree's leaf weight,
/// accumulated in ensemble order (the contract `FlatForest` must match
/// bitwise).
fn recursive_reference(trees: &[Tree], base: &[f32], m: &FeatureMatrix, n_rows: usize) -> Vec<f32> {
    let groups = base.len();
    let mut out = vec![0.0f32; n_rows * groups];
    for r in 0..n_rows {
        out[r * groups..(r + 1) * groups].copy_from_slice(base);
        for (t, tree) in trees.iter().enumerate() {
            out[r * groups + t % groups] += tree.predict(|f| m.get(r, f as usize));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dense, sparse, any block size, and any thread count all reproduce
    /// the recursive reference bitwise.
    #[test]
    fn flat_forest_is_bitwise_identical_to_recursive(
        seed in any::<u64>(),
        n_rows in 1usize..50,
        n_features in 1u32..6,
        rounds in 1usize..4,
        multiclass in any::<bool>(),
        block in 1usize..80,
        threads in 2usize..5,
    ) {
        let (forest, trees) = random_forest(seed, n_features, rounds, multiclass);
        let (dense, sparse) = random_matrices(seed, n_rows, n_features as usize);
        let expect = recursive_reference(&trees, forest.base_scores(), &dense, n_rows);

        prop_assert_eq!(&forest.predict_raw(&dense), &expect);
        prop_assert_eq!(&forest.predict_raw(&sparse), &expect);
        prop_assert_eq!(
            &Predictor::new(&forest).block_rows(block).predict_raw(&dense),
            &expect
        );
        let pool = ThreadPool::new(threads);
        prop_assert_eq!(&forest.predict_raw_parallel(&dense, &pool), &expect);
        prop_assert_eq!(&forest.predict_raw_parallel(&sparse, &pool), &expect);
    }

    /// The quantized fast path routes exactly like per-row traversal on
    /// the same bins (the trainer's partition predicate).
    #[test]
    fn binned_path_matches_per_row_bin_routing(
        seed in any::<u64>(),
        n_rows in 1usize..40,
        n_features in 1u32..5,
        rounds in 1usize..4,
    ) {
        let mut rng = Rng::new(seed);
        let trees: Vec<Tree> =
            (0..rounds).map(|_| random_tree(n_features, &mut rng)).collect();
        let base = rng.unit();
        let forest =
            FlatForest::from_trees(&trees, vec![base], LossKind::Logistic, n_features as usize);
        let (dense, _) = random_matrices(seed, n_rows, n_features as usize);
        let qm = QuantizedMatrix::from_matrix(&dense, BinningConfig::default());

        let got = forest.predict_raw_store(&qm);
        for (r, &score) in got.iter().enumerate() {
            let mut expect = base;
            for tree in &trees {
                let mut id = 0u32;
                let weight = loop {
                    let node = tree.node(id);
                    let Some(split) = &node.split else { break node.weight };
                    let go_left = match qm.bin(r, split.feature as usize) {
                        Some(b) => b <= split.bin,
                        None => split.default_left,
                    };
                    id = if go_left { node.left } else { node.right };
                };
                expect += weight;
            }
            prop_assert_eq!(score, expect);
        }
    }
}

/// Trains with per-round validation and checks the final trace metric is
/// *exactly* the metric of rescoring the finished model from scratch —
/// i.e. the trainer's incremental flat-kernel rescoring accumulates the
/// same f32s as a full batch predict.
#[test]
fn incremental_eval_equals_full_rescore_binary() {
    let data = SynthConfig::new(DatasetKind::HiggsLike, 5).with_scale(0.05).generate();
    let (train, valid) = data.split(0.25, 5);
    let params = TrainParams { n_trees: 12, tree_size: 4, n_threads: 2, ..TrainParams::default() };
    let out = GbdtTrainer::new(params).expect("valid params").train_with_eval(
        &train,
        Some(EvalOptions {
            data: &valid,
            metric: EvalMetric::Auc,
            every: 1,
            early_stopping_rounds: None,
        }),
    );
    let trace = out.diagnostics.trace.expect("trace recorded");
    let last = trace.points().last().expect("at least one eval").metric;
    let full = harp_metrics::auc(&valid.labels, &out.model.predict_raw(&valid.features));
    assert_eq!(last, full, "incremental rescoring must equal a full rescore");
}

#[test]
fn incremental_eval_equals_full_rescore_multiclass() {
    let mut rng = Rng::new(99);
    let n = 400;
    let n_features = 6;
    let mut values = Vec::with_capacity(n * n_features);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let class = (rng.next() % 3) as usize;
        for f in 0..n_features {
            let bump = if f % 3 == class { 0.5 } else { 0.0 };
            values.push(rng.unit() * 0.3 + bump);
        }
        labels.push(class as f32);
    }
    let data = Dataset::new(
        "softmax-equivalence",
        FeatureMatrix::Dense(DenseMatrix::from_vec(n, n_features, values)),
        labels,
    );
    let (train, valid) = data.split(0.25, 9);
    let params = TrainParams {
        loss: LossKind::Softmax { n_classes: 3 },
        n_trees: 6,
        tree_size: 3,
        n_threads: 2,
        ..TrainParams::default()
    };
    let out = GbdtTrainer::new(params).expect("valid params").train_with_eval(
        &train,
        Some(EvalOptions {
            data: &valid,
            metric: EvalMetric::MulticlassLogLoss,
            every: 1,
            early_stopping_rounds: None,
        }),
    );
    let trace = out.diagnostics.trace.expect("trace recorded");
    let last = trace.points().last().expect("at least one eval").metric;
    let probs = out.model.loss().transform_scores(&out.model.predict_raw(&valid.features));
    let full = harp_metrics::multiclass_log_loss(&valid.labels, &probs, 3);
    assert_eq!(last, full, "incremental rescoring must equal a full rescore");
}

/// Regression for the width footgun: a matrix narrower than the model
/// must trip the shared `check_features` guard instead of silently
/// routing on the wrong cells. (Serving exposed this: `TrainParams`
/// never sees prediction-time inputs, so the predictor itself must own
/// the check.)
#[test]
#[should_panic(expected = "feature count mismatch")]
fn narrow_dense_matrix_is_rejected() {
    let (forest, _) = random_forest(7, 8, 2, false);
    let narrow = FeatureMatrix::Dense(DenseMatrix::filled_missing(4, 7));
    let _ = Predictor::new(&forest).predict_raw(&narrow);
}

#[test]
#[should_panic(expected = "feature count mismatch")]
fn narrow_bin_rows_are_rejected() {
    let (forest, _) = random_forest(8, 8, 2, false);
    let bins = vec![0u8; 4 * 7];
    let rows = harpgbdt::predict::BinRows::new(4, 7, &bins);
    let _ = Predictor::new(&forest).predict_raw_bin_rows(&rows);
}

/// Wider-than-model inputs keep working: extra columns are ignored.
#[test]
fn wide_dense_matrix_still_scores() {
    let (forest, trees) = random_forest(9, 8, 2, false);
    let n_rows = 16;
    let (wide, _) = random_matrices(77, n_rows, 11);
    let got = Predictor::new(&forest).predict_raw(&wide);
    let expect = recursive_reference(&trees, forest.base_scores(), &wide, n_rows);
    assert_eq!(got, expect, "extra columns must not change routing");
}
