//! Equivalence properties of the flattened inference engine: for *any*
//! random forest and input matrix, the blocked [`FlatForest`] kernels must
//! be bitwise identical to the per-row recursive reference
//! ([`Tree::predict`] summed in ensemble order), across dense and sparse
//! inputs, missing values, multiclass grouping, block sizes, thread
//! counts, and the binned fast path. Plus: the trainer's incremental
//! validation rescoring must land on exactly the metric a full-model
//! rescore computes.

use harp_binning::{BinningConfig, QuantizedMatrix, MISSING_BIN};
use harp_data::{CsrMatrix, Dataset, DatasetKind, DenseMatrix, FeatureMatrix, SynthConfig};
use harp_parallel::ThreadPool;
use harpgbdt::trainer::{EvalMetric, EvalOptions};
use harpgbdt::tree::NO_NODE;
use harpgbdt::{
    BinRows, FlatForest, GbdtModel, GbdtTrainer, LossKind, NodeStats, Predictor, SplitData,
    TrainParams, Tree,
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

/// A chain 33–40 splits deep, past the padded walk's 32-step cutoff, so
/// every route takes the early-exit walk. Each split sends most rows, and
/// missing values, on down the chain; the other child is a leaf.
fn chain_tree(n_features: u32, rng: &mut Rng) -> Tree {
    let stats = NodeStats { g: 0.0, h: 1.0, count: 1 };
    let mut tree = Tree::new_root(stats);
    let mut node = 0;
    for _ in 0..33 + rng.next() % 8 {
        let left_on = rng.next() % 2 == 0;
        let split = SplitData {
            feature: (rng.next() % u64::from(n_features)) as u32,
            bin: if left_on { 12 } else { 3 },
            threshold: if left_on { 0.8 } else { -0.8 },
            default_left: left_on,
            gain: 1.0,
        };
        let (l, r) = tree.apply_split(node, split, stats, stats);
        let (on, off) = if left_on { (l, r) } else { (r, l) };
        tree.node_mut(off).weight = rng.unit();
        node = on;
    }
    tree.node_mut(node).weight = rng.unit();
    tree
}

/// Tree `t` of a forest: with `deep`, every other tree is a chain.
fn pick_tree(t: usize, deep: bool, n_features: u32, rng: &mut Rng) -> Tree {
    if deep && t % 2 == 0 {
        chain_tree(n_features, rng)
    } else {
        random_tree(n_features, rng)
    }
}

/// A random forest (`rounds` boosting rounds of `groups` trees each),
/// returned both compiled and as the source trees for the reference.
fn random_forest(
    seed: u64,
    n_features: u32,
    rounds: usize,
    multiclass: bool,
    deep: bool,
) -> (FlatForest, Vec<Tree>) {
    let mut rng = Rng::new(seed);
    let (groups, loss) = if multiclass {
        (3usize, LossKind::Softmax { n_classes: 3 })
    } else {
        (1usize, LossKind::Logistic)
    };
    let trees: Vec<Tree> =
        (0..rounds * groups).map(|t| pick_tree(t, deep, n_features, &mut rng)).collect();
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
    /// the recursive reference bitwise, on shallow trees and on chains
    /// deeper than the padded walk takes.
    #[test]
    fn flat_forest_is_bitwise_identical_to_recursive(
        seed in any::<u64>(),
        n_rows in 1usize..50,
        n_features in 1u32..6,
        rounds in 1usize..4,
        multiclass in any::<bool>(),
        block in 1usize..80,
        threads in 2usize..5,
        deep in any::<bool>(),
    ) {
        let (forest, trees) = random_forest(seed, n_features, rounds, multiclass, deep);
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
    /// the same bins (the trainer's partition predicate): on a dense and a
    /// sparse store, and on the same bins as a row-major `BinRows`
    /// payload with a spare column.
    #[test]
    fn binned_path_matches_per_row_bin_routing(
        seed in any::<u64>(),
        n_rows in 1usize..40,
        n_features in 1u32..5,
        rounds in 1usize..4,
        deep in any::<bool>(),
        sparse_store in any::<bool>(),
    ) {
        let mut rng = Rng::new(seed);
        let trees: Vec<Tree> =
            (0..rounds).map(|t| pick_tree(t, deep, n_features, &mut rng)).collect();
        let base = rng.unit();
        let forest =
            FlatForest::from_trees(&trees, vec![base], LossKind::Logistic, n_features as usize);
        let (dense, sparse) = random_matrices(seed, n_rows, n_features as usize);
        let m = if sparse_store { &sparse } else { &dense };
        let qm = QuantizedMatrix::from_matrix(m, BinningConfig::default());
        prop_assert_eq!(qm.is_dense(), !sparse_store);

        let width = n_features as usize + 1;
        let mut payload = vec![MISSING_BIN; n_rows * width];
        for r in 0..n_rows {
            for f in 0..width - 1 {
                if let Some(b) = qm.bin(r, f) {
                    payload[r * width + f] = b;
                }
            }
        }
        let from_payload =
            Predictor::new(&forest).predict_raw_bin_rows(&BinRows::new(n_rows, width, &payload));
        let got = forest.predict_raw_store(&qm);
        prop_assert_eq!(&from_payload, &got);
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

/// A sparse eval set may be narrower than the training data (a LIBSVM file
/// takes its width from the highest index present). Its absent columns are
/// missing: the trainer scores it exactly as the same entries at the
/// training width. A narrower dense eval set is a typed error.
#[test]
fn a_narrower_eval_set_is_widened_when_sparse_and_rejected_when_dense() {
    let data = SynthConfig::new(DatasetKind::HiggsLike, 5).with_scale(0.05).generate();
    let (train, valid) = data.split(0.25, 5);
    let (width, kept) = (train.n_features(), 4);
    let rows: Vec<Vec<(u32, f32)>> = (0..valid.n_rows())
        .map(|r| (0..kept).filter_map(|f| Some((f as u32, valid.features.get(r, f)?))).collect())
        .collect();
    let sparse = |n_cols| FeatureMatrix::Sparse(CsrMatrix::from_rows(n_cols, &rows));
    let narrow = Dataset::new("narrow", sparse(kept), valid.labels.clone());
    let eval = |data| {
        Some(EvalOptions { data, metric: EvalMetric::Auc, every: 1, early_stopping_rounds: None })
    };
    let params = TrainParams { n_trees: 12, tree_size: 4, n_threads: 2, ..TrainParams::default() };
    let trainer = GbdtTrainer::new(params).expect("valid params");
    let out = trainer
        .try_train_with_eval(&train, eval(&narrow))
        .expect("a sparse eval set widens");
    let splits_past = |t: &harpgbdt::tree::Tree| {
        (0..t.n_nodes() as u32).any(|i| t.node(i).split.is_some_and(|s| s.feature >= kept as u32))
    };
    assert!(out.model.trees().iter().any(splits_past), "no split reads a dropped column");
    let trace = out.diagnostics.trace.expect("trace recorded");
    let last = trace.points().last().expect("at least one eval").metric;
    let full = harp_metrics::auc(&valid.labels, &out.model.predict_raw(&sparse(width)));
    assert_eq!(last, full, "absent columns must follow each split's default direction");

    let cells = (0..valid.n_rows()).flat_map(|r| (0..kept).map(move |f| (r, f)));
    let values = cells.map(|(r, f)| valid.features.get(r, f).unwrap_or(f32::NAN)).collect();
    let dense = DenseMatrix::from_vec(valid.n_rows(), kept, values);
    let dense = Dataset::new("narrow", FeatureMatrix::Dense(dense), valid.labels.clone());
    assert_eq!(
        trainer.try_train_with_eval(&train, eval(&dense)).err(),
        Some(format!(
            "eval data rejected: it has {kept} features but the training data has {width}"
        ))
    );
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
    let (forest, _) = random_forest(7, 8, 2, false, false);
    let narrow = FeatureMatrix::Dense(DenseMatrix::filled_missing(4, 7));
    let _ = Predictor::new(&forest).predict_raw(&narrow);
}

#[test]
#[should_panic(expected = "feature count mismatch")]
fn narrow_bin_rows_are_rejected() {
    let (forest, _) = random_forest(8, 8, 2, false, false);
    let bins = vec![0u8; 4 * 7];
    let rows = BinRows::new(4, 7, &bins);
    let _ = Predictor::new(&forest).predict_raw_bin_rows(&rows);
}

/// Wider-than-model inputs keep working: extra columns are ignored.
#[test]
fn wide_dense_matrix_still_scores() {
    let (forest, trees) = random_forest(9, 8, 2, false, false);
    let n_rows = 16;
    let (wide, _) = random_matrices(77, n_rows, 11);
    let got = Predictor::new(&forest).predict_raw(&wide);
    let expect = recursive_reference(&trees, forest.base_scores(), &wide, n_rows);
    assert_eq!(got, expect, "extra columns must not change routing");
}

/// A root split on feature 0 over two leaves, 0.25 (left) and -0.5.
fn three_node_tree() -> Tree {
    let stats = NodeStats { g: 0.0, h: 1.0, count: 1 };
    let mut t = Tree::new_root(stats);
    let split = SplitData { feature: 0, bin: 3, threshold: 0.5, default_left: true, gain: 1.0 };
    let (l, r) = t.apply_split(0, split, stats, stats);
    t.node_mut(l).weight = 0.25;
    t.node_mut(r).weight = -0.5;
    t
}

/// A one-tree model file as JSON, from parts that need not be consistent.
fn model_json(tree: &Tree, base_scores: &str, loss: LossKind, n_features: u64) -> String {
    let tree = serde_json::to_string(tree).unwrap();
    let loss = serde_json::to_string(&loss).unwrap();
    format!(
        r#"{{"trees":[{tree}],"base_scores":{base_scores},"loss":{loss},"n_features":{n_features}}}"#
    )
}

/// An edit that breaks a tree, and the check's message for it.
type TreeEdit = (&'static str, fn(&mut Tree));

/// Hand-edited model files load as typed errors — never `Ok` and then an
/// out-of-bounds read, a panic or a wrong score in the walk — and the
/// compiler refuses the same trees.
#[test]
fn hostile_models_are_typed_errors() {
    let good = model_json(&three_node_tree(), "[0.0]", LossKind::SquaredError, 2);
    let model = GbdtModel::from_json(&good).expect("a well-formed model loads");
    let m = FeatureMatrix::Dense(DenseMatrix::from_vec(1, 2, vec![0.0, 0.0]));
    assert_eq!(model.predict_raw(&m), vec![0.25]);

    let tree_edits: [TreeEdit; 9] = [
        ("node 0 has child 1000 outside 0..3", |t| {
            t.node_mut(0).left = 1000;
            t.node_mut(2).depth = 2;
        }),
        ("node 1 has depth 0 under a node of depth 0", |t| {
            t.node_mut(1).depth = 0;
            t.node_mut(2).depth = 0;
        }),
        ("node 0 has child 4294967295 outside 0..3", |t| {
            t.node_mut(0).left = NO_NODE;
            t.node_mut(0).right = NO_NODE;
        }),
        ("leaf 1 has a child", |t| t.node_mut(1).left = 2),
        ("node 2 is reached twice", |t| t.node_mut(0).left = 2),
        ("node 3 is unreachable from the root", |t| {
            let stats = t.node(1).stats;
            let split = t.node(0).split.unwrap();
            t.apply_split(1, split, stats, stats);
            let leaf = t.node_mut(1);
            (leaf.split, leaf.left, leaf.right) = (None, NO_NODE, NO_NODE);
        }),
        ("node 3 has depth 2 under a node of depth 2", |t| {
            // Nodes 3 and 4 hang off a self-loop, unreachable from the root.
            let stats = t.node(1).stats;
            let split = t.node(0).split.unwrap();
            t.apply_split(1, split, stats, stats);
            let leaf = t.node_mut(1);
            (leaf.split, leaf.left, leaf.right) = (None, NO_NODE, NO_NODE);
            let cycle = t.node_mut(3);
            (cycle.split, cycle.left, cycle.right) = (Some(split), 3, 4);
            t.node_mut(4).depth = 3;
        }),
        ("node 0 splits on feature 2 of 2", |t| t.node_mut(0).split.as_mut().unwrap().feature = 2),
        ("root has depth 1", |t| t.node_mut(0).depth = 1),
    ];
    for (want, edit) in tree_edits {
        let mut tree = three_node_tree();
        edit(&mut tree);
        let json = model_json(&tree, "[0.0]", LossKind::SquaredError, 2);
        let err = GbdtModel::from_json(&json).expect_err(want).to_string();
        assert_eq!(err, format!("invalid model: tree 0: {want}"));
        let compiled = std::panic::catch_unwind(|| {
            FlatForest::from_trees(&[tree], vec![0.0], LossKind::SquaredError, 2)
        });
        let panic = compiled.expect_err(want);
        assert!(panic.downcast_ref::<String>().is_some_and(|p| p.contains(want)), "{want}");
    }

    let t = three_node_tree();
    let two_classes = LossKind::Softmax { n_classes: 2 };
    let model_edits = [
        ("tree 0: empty tree", good.replacen(r#""trees":["#, r#""trees":[{"nodes":[]},"#, 1)),
        ("2 base scores for 1 groups", model_json(&t, "[0.0,0.0]", LossKind::Logistic, 2)),
        ("1 trees do not fill whole rounds of 2", model_json(&t, "[0.0,0.0]", two_classes, 2)),
        (
            "softmax needs at least 2 classes",
            model_json(&t, "[0.0]", LossKind::Softmax { n_classes: 1 }, 2),
        ),
        (
            "2147483648 features do not fit 31-bit feature ids",
            model_json(&t, "[0.0]", LossKind::Logistic, 1 << 31),
        ),
    ];
    for (want, json) in model_edits {
        let err = GbdtModel::from_json(&json).expect_err(want).to_string();
        assert_eq!(err, format!("invalid model: {want}"));
    }

    // Nesting deeper than the parser's 128 levels is an error, not a stack
    // overflow that aborts the process (a model nests 6 deep).
    for depth in [129, 100_000] {
        let deep = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let err = GbdtModel::from_json(&deep).expect_err("too deep").to_string();
        assert_eq!(err, "recursion limit exceeded at offset 128");
    }
}
