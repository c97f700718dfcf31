//! End-to-end engine tests: learning, mode equivalence, determinism,
//! growth-policy semantics.

use super::*;
use crate::params::{BlockConfig, GrowthMethod, LossKind, ParallelMode};
use harp_data::{DatasetKind, DenseMatrix, FeatureMatrix, SynthConfig};

fn dataset(kind: DatasetKind, scale: f64) -> Dataset {
    SynthConfig::new(kind, 17).with_scale(scale).generate()
}

fn base_params() -> TrainParams {
    TrainParams { n_trees: 8, tree_size: 4, n_threads: 4, gamma: 0.1, ..Default::default() }
}

fn train(data: &Dataset, params: TrainParams) -> TrainOutput {
    GbdtTrainer::new(params).unwrap().train(data)
}

/// Predictions of `model` on the dataset's own features.
fn preds(out: &TrainOutput, data: &Dataset) -> Vec<f32> {
    out.model.predict_raw(&data.features)
}

fn assert_same_preds(a: &[f32], b: &[f32], tol: f32, label: &str) {
    assert_eq!(a.len(), b.len());
    for i in 0..a.len() {
        assert!((a[i] - b[i]).abs() <= tol, "{label}: row {i} diverged: {} vs {}", a[i], b[i]);
    }
}

#[test]
fn training_learns_the_synthetic_task() {
    let data = dataset(DatasetKind::HiggsLike, 0.08);
    let (train_set, test_set) = data.split(0.25, 1);
    let params = TrainParams { n_trees: 20, ..base_params() };
    let out = train(&train_set, params);
    let p = out.model.predict(&test_set.features);
    let auc = harp_metrics::auc(&test_set.labels, &p);
    assert!(auc > 0.70, "test AUC too low: {auc}");
}

#[test]
fn more_trees_improve_train_fit() {
    let data = dataset(DatasetKind::Synset, 0.03);
    let few = train(&data, TrainParams { n_trees: 2, ..base_params() });
    let many = train(&data, TrainParams { n_trees: 20, ..base_params() });
    let loss_few = harp_metrics::log_loss(&data.labels, &few.model.predict(&data.features));
    let loss_many = harp_metrics::log_loss(&data.labels, &many.model.predict(&data.features));
    assert!(loss_many < loss_few, "training loss should decrease: {loss_few} -> {loss_many}");
}

#[test]
fn all_modes_learn_equally_well() {
    let data = dataset(DatasetKind::HiggsLike, 0.05);
    let mut aucs = Vec::new();
    for mode in [
        ParallelMode::DataParallel,
        ParallelMode::ModelParallel,
        ParallelMode::Sync,
        ParallelMode::Async,
    ] {
        let params = TrainParams { mode, k: 4, n_trees: 10, ..base_params() };
        let out = train(&data, params);
        let p = out.model.predict(&data.features);
        aucs.push((mode, harp_metrics::auc(&data.labels, &p)));
    }
    for &(mode, auc) in &aucs {
        assert!(auc > 0.75, "{mode:?}: train AUC {auc}");
    }
}

#[test]
fn dp_and_mp_build_identical_trees_single_thread() {
    // With one thread and no histogram subtraction, both modes accumulate
    // every cell in ascending row order => bitwise-identical histograms,
    // identical trees, identical predictions.
    let data = dataset(DatasetKind::AirlineLike, 0.01);
    let mk = |mode| TrainParams {
        mode,
        n_threads: 1,
        hist_subtraction: false,
        n_trees: 5,
        ..base_params()
    };
    let dp = train(&data, mk(ParallelMode::DataParallel));
    let mp = train(&data, mk(ParallelMode::ModelParallel));
    assert_same_preds(&preds(&dp, &data), &preds(&mp, &data), 0.0, "DP vs MP @ T1");
}

#[test]
fn modes_agree_multithreaded_within_tolerance() {
    let data = dataset(DatasetKind::HiggsLike, 0.04);
    let mk = |mode| TrainParams { mode, n_trees: 6, k: 4, ..base_params() };
    let dp = train(&data, mk(ParallelMode::DataParallel));
    let mp = train(&data, mk(ParallelMode::ModelParallel));
    let sync = train(&data, mk(ParallelMode::Sync));
    let p_dp = preds(&dp, &data);
    assert_same_preds(&p_dp, &preds(&mp, &data), 1e-3, "DP vs MP @ T4");
    assert_same_preds(&p_dp, &preds(&sync, &data), 1e-3, "DP vs SYNC @ T4");
}

#[test]
fn async_matches_dp_when_growth_is_gain_limited() {
    // With a gain threshold stopping growth before the leaf budget binds,
    // every positive-gain node is split in any order: ASYNC (loose TopK)
    // and DP (strict) must build the same set of leaves.
    let data = dataset(DatasetKind::AirlineLike, 0.01);
    let mk = |mode| TrainParams {
        mode,
        n_trees: 4,
        tree_size: 10,
        gamma: 2.0,
        hist_subtraction: false,
        k: 4,
        ..base_params()
    };
    let dp = train(&data, mk(ParallelMode::DataParallel));
    let asy = train(&data, mk(ParallelMode::Async));
    assert_same_preds(&preds(&dp, &data), &preds(&asy, &data), 1e-3, "DP vs ASYNC");
    let dp_leaves: Vec<u32> = dp.diagnostics.tree_shapes.iter().map(|s| s.n_leaves).collect();
    let asy_leaves: Vec<u32> = asy.diagnostics.tree_shapes.iter().map(|s| s.n_leaves).collect();
    assert_eq!(dp_leaves, asy_leaves);
}

#[test]
fn deterministic_training_is_bitwise_reproducible() {
    let data = dataset(DatasetKind::CriteoLike, 0.02);
    let params = TrainParams { n_trees: 5, ..base_params() };
    let a = train(&data, params.clone());
    let b = train(&data, params);
    assert_eq!(
        a.model.to_json().unwrap(),
        b.model.to_json().unwrap(),
        "two identical runs must serialize identically"
    );
}

#[test]
fn topk_is_leafwise_generalization() {
    // K=1 leafwise vs K=8: same leaf budget; K=1 splits the single best
    // node each round. Both must respect the budget and learn.
    let data = dataset(DatasetKind::HiggsLike, 0.04);
    for k in [1usize, 4, 8, 32] {
        let params = TrainParams { k, n_trees: 4, tree_size: 5, gamma: 0.0, ..base_params() };
        let out = train(&data, params);
        for shape in &out.diagnostics.tree_shapes {
            assert!(shape.n_leaves <= 32, "K={k}: leaf budget violated: {}", shape.n_leaves);
        }
        let auc = harp_metrics::auc(&data.labels, &out.model.predict(&data.features));
        assert!(auc > 0.7, "K={k}: AUC {auc}");
    }
}

#[test]
fn depthwise_respects_depth_limit() {
    let data = dataset(DatasetKind::Synset, 0.03);
    let params = TrainParams {
        growth: GrowthMethod::Depthwise,
        k: 0,
        tree_size: 3,
        gamma: 0.0,
        n_trees: 3,
        ..base_params()
    };
    let out = train(&data, params);
    for shape in &out.diagnostics.tree_shapes {
        assert!(shape.max_depth <= 3, "depth limit violated: {}", shape.max_depth);
        assert!(shape.n_leaves <= 8);
    }
}

#[test]
fn depthwise_topk_builds_the_same_tree_as_full_depthwise() {
    // §IV-B: depthwise with finite K selects level subsets but "the same
    // tree would be built".
    let data = dataset(DatasetKind::AirlineLike, 0.008);
    let mk = |k| TrainParams {
        growth: GrowthMethod::Depthwise,
        k,
        tree_size: 4,
        n_trees: 4,
        hist_subtraction: false,
        n_threads: 2,
        ..base_params()
    };
    let full = train(&data, mk(0));
    let topk = train(&data, mk(2));
    assert_same_preds(&preds(&full, &data), &preds(&topk, &data), 1e-4, "depthwise K");
}

#[test]
fn leafwise_can_exceed_depthwise_depth() {
    let data = dataset(DatasetKind::CriteoLike, 0.04);
    let params = TrainParams {
        growth: GrowthMethod::Leafwise,
        k: 1,
        tree_size: 5, // 32 leaves
        gamma: 0.0,
        n_trees: 2,
        ..base_params()
    };
    let out = train(&data, params);
    // The response-correlated feature drives repeated splits down one
    // branch: depth must exceed log2(leaves) on this dataset.
    let max_depth = out.diagnostics.tree_shapes.iter().map(|s| s.max_depth).max().unwrap();
    assert!(max_depth > 5, "leafwise tree unexpectedly balanced: depth {max_depth}");
}

#[test]
fn membuf_toggle_does_not_change_results() {
    let data = dataset(DatasetKind::HiggsLike, 0.03);
    let on = train(&data, TrainParams { use_membuf: true, n_trees: 5, ..base_params() });
    let off = train(&data, TrainParams { use_membuf: false, n_trees: 5, ..base_params() });
    assert_same_preds(&preds(&on, &data), &preds(&off, &data), 0.0, "MemBuf toggle");
}

#[test]
fn subtraction_toggle_preserves_quality() {
    let data = dataset(DatasetKind::HiggsLike, 0.04);
    let on = train(&data, TrainParams { hist_subtraction: true, n_trees: 8, ..base_params() });
    let off = train(&data, TrainParams { hist_subtraction: false, n_trees: 8, ..base_params() });
    let auc_on = harp_metrics::auc(&data.labels, &on.model.predict(&data.features));
    let auc_off = harp_metrics::auc(&data.labels, &off.model.predict(&data.features));
    assert!((auc_on - auc_off).abs() < 0.02, "subtraction changed quality: {auc_on} vs {auc_off}");
}

#[test]
fn block_configurations_do_not_change_learning() {
    let data = dataset(DatasetKind::AirlineLike, 0.01);
    let reference = train(
        &data,
        TrainParams { n_trees: 4, hist_subtraction: false, n_threads: 1, ..base_params() },
    );
    let p_ref = preds(&reference, &data);
    for (row, node, feat, bin) in [(64, 2, 2, 16), (0, 4, 1, 0), (100, 0, 3, 64)] {
        let params = TrainParams {
            n_trees: 4,
            hist_subtraction: false,
            n_threads: 1,
            blocks: BlockConfig {
                row_blk_size: row,
                node_blk_size: node,
                feature_blk_size: feat,
                bin_blk_size: bin,
            },
            ..base_params()
        };
        for mode in [ParallelMode::DataParallel, ParallelMode::ModelParallel] {
            let out = train(&data, TrainParams { mode, ..params.clone() });
            assert_same_preds(&p_ref, &preds(&out, &data), 0.0, "block config @ T1");
        }
    }
}

#[test]
fn sparse_dataset_trains_in_all_modes() {
    let data = dataset(DatasetKind::YfccLike, 0.05);
    for mode in [ParallelMode::DataParallel, ParallelMode::ModelParallel, ParallelMode::Async] {
        let params = TrainParams { mode, n_trees: 4, tree_size: 3, ..base_params() };
        let out = train(&data, params);
        let auc = harp_metrics::auc(&data.labels, &out.model.predict(&data.features));
        assert!(auc > 0.6, "{mode:?} on sparse data: AUC {auc}");
    }
}

/// `lambda = 0`, `min_child_weight = 0` on sparse data: in almost every node
/// some feature's leading bins are empty, and the empty left side scores
/// 0 / 0. A NaN gain that won FindSplit would sit in the tree with a child
/// of no rows, and nothing after it could beat it.
#[test]
fn unregularized_sparse_training_never_splits_on_a_nan_gain() {
    let data = dataset(DatasetKind::YfccLike, 0.05);
    let mut barrier_preds: Vec<Vec<u32>> = Vec::new();
    for mode in [
        ParallelMode::DataParallel,
        ParallelMode::ModelParallel,
        ParallelMode::Sync,
        ParallelMode::Async,
    ] {
        let params = TrainParams {
            mode,
            lambda: 0.0,
            min_child_weight: 0.0,
            gamma: 0.0,
            n_trees: 3,
            growth: GrowthMethod::Leafwise,
            k: 4,
            ..base_params()
        };
        let out = train(&data, params);
        for tree in out.model.trees() {
            assert!(tree.n_leaves() > 1, "{mode:?}: nothing split");
            for id in 0..tree.n_nodes() as NodeId {
                let node = tree.node(id);
                assert!(node.stats.count > 0, "{mode:?}: node {id} holds no rows");
                match node.split {
                    Some(split) => assert!(
                        split.gain.is_finite() && split.gain > 0.0,
                        "{mode:?}: node {id} split on gain {}",
                        split.gain
                    ),
                    None => assert!(node.weight.is_finite(), "{mode:?}: leaf {id} weight"),
                }
            }
        }
        if mode != ParallelMode::Async {
            barrier_preds.push(preds(&out, &data).iter().map(|p| p.to_bits()).collect());
        }
    }
    assert!(barrier_preds.windows(2).all(|w| w[0] == w[1]), "DP, MP and SYNC models differ");
}

#[test]
fn squared_error_regression_reduces_rmse() {
    // Regression on a noiseless linear target.
    let n = 500;
    let values: Vec<f32> = (0..n * 2).map(|i| ((i * 37) % 100) as f32 / 100.0).collect();
    let labels: Vec<f32> = (0..n).map(|r| values[r * 2] * 3.0 - values[r * 2 + 1]).collect();
    let data =
        Dataset::new("reg", FeatureMatrix::Dense(DenseMatrix::from_vec(n, 2, values)), labels);
    let params = TrainParams {
        loss: LossKind::SquaredError,
        n_trees: 30,
        tree_size: 4,
        gamma: 0.0,
        ..base_params()
    };
    let out = train(&data, params);
    let p = out.model.predict(&data.features);
    let rmse = harp_metrics::rmse(&data.labels, &p);
    assert!(rmse < 0.4, "regression rmse too high: {rmse}");
}

#[test]
fn eval_trace_and_early_stopping() {
    let data = dataset(DatasetKind::HiggsLike, 0.05);
    let (train_set, valid) = data.split(0.3, 2);
    let params = TrainParams { n_trees: 30, ..base_params() };
    let out = GbdtTrainer::new(params).unwrap().train_with_eval(
        &train_set,
        Some(EvalOptions {
            data: &valid,
            metric: EvalMetric::Auc,
            every: 1,
            early_stopping_rounds: Some(3),
        }),
    );
    let trace = out.diagnostics.trace.as_ref().expect("trace recorded");
    assert!(!trace.points().is_empty());
    assert!(out.diagnostics.best_iteration.is_some());
    // Points are per-iteration and non-decreasing in time.
    let pts = trace.points();
    for w in pts.windows(2) {
        assert!(w[1].elapsed_secs >= w[0].elapsed_secs);
    }
    // If early stopping fired, fewer trees than requested were built.
    if out.model.n_trees() < 30 {
        let best = out.diagnostics.best_iteration.unwrap();
        assert!(out.model.n_trees() >= best);
    }
}

#[test]
fn diagnostics_report_phases_and_profile() {
    let data = dataset(DatasetKind::HiggsLike, 0.03);
    let out = train(&data, TrainParams { n_trees: 3, ..base_params() });
    let d = &out.diagnostics;
    assert_eq!(d.per_tree_secs.len(), 3);
    assert!(d.train_secs > 0.0);
    assert!(d.breakdown.build_hist_secs > 0.0, "BuildHist must be attributed");
    assert!(d.breakdown.find_split_secs > 0.0);
    assert!(d.profile.regions > 0, "fork/join regions must be counted");
    assert!(d.profile.tasks > 0);
    assert!(d.profile.bytes_read > 0);
    assert!(d.mean_tree_secs() > 0.0);
}

#[test]
fn constant_labels_yield_stump_free_trees() {
    let n = 64;
    let values: Vec<f32> = (0..n * 2).map(|i| (i % 7) as f32).collect();
    let data = Dataset::new(
        "const",
        FeatureMatrix::Dense(DenseMatrix::from_vec(n, 2, values)),
        vec![1.0; n],
    );
    let out = train(&data, base_params());
    // No gain anywhere: every tree is a bare root.
    for shape in &out.diagnostics.tree_shapes {
        assert_eq!(shape.n_leaves, 1);
    }
    // And predictions sit at the (clamped) base-rate log odds.
    let p = out.model.predict(&data.features)[0];
    assert!(p > 0.95);
}

#[test]
fn tiny_dataset_does_not_panic() {
    let data = Dataset::new(
        "tiny",
        FeatureMatrix::Dense(DenseMatrix::from_vec(2, 1, vec![0.0, 1.0])),
        vec![0.0, 1.0],
    );
    for mode in [ParallelMode::DataParallel, ParallelMode::Async] {
        let params = TrainParams {
            mode,
            n_trees: 2,
            tree_size: 2,
            min_child_weight: 0.0,
            gamma: 0.0,
            ..base_params()
        };
        let out = train(&data, params);
        assert_eq!(out.model.n_trees(), 2);
    }
}

#[test]
fn threads_do_not_change_learning_quality() {
    let data = dataset(DatasetKind::Synset, 0.02);
    let mut aucs = Vec::new();
    for t in [1usize, 2, 8] {
        let params = TrainParams { n_threads: t, n_trees: 6, ..base_params() };
        let out = train(&data, params);
        aucs.push(harp_metrics::auc(&data.labels, &out.model.predict(&data.features)));
    }
    for w in aucs.windows(2) {
        assert!((w[0] - w[1]).abs() < 0.02, "thread count changed quality: {aucs:?}");
    }
}

#[test]
fn multiclass_softmax_learns_three_classes() {
    // 3-class task: class determined by which third of feature-0 the row
    // falls into, plus a second noisy feature.
    let n = 600;
    let mut values = Vec::with_capacity(n * 2);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let x = (i % 100) as f32 / 100.0;
        let noise = ((i * 7919) % 97) as f32 / 97.0;
        values.push(x);
        values.push(noise);
        labels.push(if x < 0.33 {
            0.0
        } else if x < 0.66 {
            1.0
        } else {
            2.0
        });
    }
    let data =
        Dataset::new("mc", FeatureMatrix::Dense(DenseMatrix::from_vec(n, 2, values)), labels);
    let params = TrainParams {
        loss: LossKind::Softmax { n_classes: 3 },
        n_trees: 15,
        tree_size: 3,
        gamma: 0.0,
        ..base_params()
    };
    let out = train(&data, params);
    assert_eq!(out.model.n_trees(), 45, "one tree per class per round");
    assert_eq!(out.model.n_groups(), 3);
    let err =
        harp_metrics::multiclass_error(&data.labels, &out.model.predict_raw(&data.features), 3);
    assert!(err < 0.05, "multiclass error {err}");
    // Probabilities normalize per row.
    let probs = out.model.predict(&data.features);
    for row in probs.chunks_exact(3).take(10) {
        let s: f32 = row.iter().sum();
        assert!((s - 1.0).abs() < 1e-4);
    }
    // predict_class agrees with argmax of raw scores.
    let classes = out.model.predict_class(&data.features);
    assert_eq!(classes.len(), n);
    let wrong = classes.iter().zip(&data.labels).filter(|(&c, &y)| c != y as u32).count();
    assert!((wrong as f64 / n as f64 - err).abs() < 1e-9);
}

#[test]
fn multiclass_eval_and_early_stopping() {
    let n = 300;
    let values: Vec<f32> = (0..n).map(|i| (i % 50) as f32 / 50.0).collect();
    let labels: Vec<f32> = (0..n).map(|i| ((i % 50) / 17).min(2) as f32).collect();
    let data =
        Dataset::new("mc-eval", FeatureMatrix::Dense(DenseMatrix::from_vec(n, 1, values)), labels);
    let (train_set, valid) = data.split(0.3, 1);
    let params = TrainParams {
        loss: LossKind::Softmax { n_classes: 3 },
        n_trees: 20,
        tree_size: 3,
        gamma: 0.0,
        ..base_params()
    };
    let out = GbdtTrainer::new(params).unwrap().train_with_eval(
        &train_set,
        Some(EvalOptions {
            data: &valid,
            metric: EvalMetric::MulticlassLogLoss,
            every: 1,
            early_stopping_rounds: Some(4),
        }),
    );
    let trace = out.diagnostics.trace.as_ref().expect("trace");
    let first = trace.points().first().unwrap().metric;
    let best = trace.best().unwrap();
    assert!(best < first, "multiclass log-loss should improve: {first} -> {best}");
}

#[test]
fn subsampling_still_learns_and_differs_from_full() {
    let data = dataset(DatasetKind::HiggsLike, 0.05);
    let full = train(&data, TrainParams { n_trees: 10, ..base_params() });
    let sub = train(&data, TrainParams { n_trees: 10, subsample: 0.5, seed: 3, ..base_params() });
    let auc_full = harp_metrics::auc(&data.labels, &full.model.predict(&data.features));
    let auc_sub = harp_metrics::auc(&data.labels, &sub.model.predict(&data.features));
    assert!(auc_sub > 0.7, "subsampled model should still learn: {auc_sub}");
    assert!((auc_full - auc_sub).abs() < 0.1);
    assert_ne!(
        full.model.predict_raw(&data.features),
        sub.model.predict_raw(&data.features),
        "subsampling must change the model"
    );
}

#[test]
fn colsample_restricts_split_features() {
    let data = dataset(DatasetKind::Synset, 0.03);
    let out = train(
        &data,
        TrainParams { n_trees: 6, colsample_bytree: 0.2, seed: 5, gamma: 0.0, ..base_params() },
    );
    // Different trees should use different feature subsets: the union of
    // split features over 6 trees should exceed one tree's 20% budget but
    // the model must still train.
    let imp = out.model.feature_importance();
    let used = imp.iter().filter(|i| i.splits > 0).count();
    assert!(used > 0);
    let auc = harp_metrics::auc(&data.labels, &out.model.predict(&data.features));
    assert!(auc > 0.65, "colsampled model should still learn: {auc}");
}

#[test]
fn sample_weights_shift_the_decision_boundary() {
    let data = dataset(DatasetKind::HiggsLike, 0.05);
    let qm = harp_binning::QuantizedMatrix::from_matrix(
        &data.features,
        harp_binning::BinningConfig::default(),
    );
    // Upweight positives 10x: mean predicted probability must rise.
    let weights: Vec<f32> = data.labels.iter().map(|&y| if y > 0.5 { 10.0 } else { 1.0 }).collect();
    let params = TrainParams { n_trees: 8, ..base_params() };
    let plain = GbdtTrainer::new(params.clone()).unwrap().train_store(&qm, &data.labels, None);
    let weighted = GbdtTrainer::new(params)
        .unwrap()
        .try_train_store_grouped(&qm, &data.labels, Some(&weights), None, None)
        .unwrap();
    let mean = |out: &TrainOutput| {
        let p = out.model.predict(&data.features);
        p.iter().sum::<f32>() / p.len() as f32
    };
    let (mp, mw) = (mean(&plain), mean(&weighted));
    assert!(mw > mp + 0.05, "upweighting positives should raise mean probability: {mp} -> {mw}");
}

#[test]
fn rejected_data_is_reported_one_way() {
    // One validation, one message: every panicking entry point is its
    // `try_*` form unwrapped, so the panic text IS the `Err` text.
    let good = dataset(DatasetKind::HiggsLike, 0.02);
    let mut bad = good.clone();
    bad.labels[3] = 2.0;
    let qm = |d: &Dataset| {
        harp_binning::QuantizedMatrix::from_matrix(
            &d.features,
            harp_binning::BinningConfig::default(),
        )
    };
    let (good_qm, bad_qm) = (qm(&good), qm(&bad));
    let trainer = GbdtTrainer::new(TrainParams { n_trees: 1, ..base_params() }).unwrap();
    let eval = |data| {
        Some(EvalOptions { data, metric: EvalMetric::Auc, every: 1, early_stopping_rounds: None })
    };
    let panic_text = |train: &dyn Fn() -> TrainOutput| {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(train)).err()?;
        payload.downcast_ref::<String>().cloned()
    };

    let err = trainer.try_train_store_grouped(&bad_qm, &bad.labels, None, None, None).err();
    assert_eq!(
        err.as_deref(),
        Some("training data rejected by logistic: logistic labels must lie in [0, 1]; row 3 has 2")
    );
    assert_eq!(trainer.try_train_with_eval(&bad, None).err(), err);
    assert_eq!(panic_text(&|| trainer.train(&bad)), err);
    assert_eq!(panic_text(&|| trainer.train_with_eval(&bad, None)), err);
    assert_eq!(panic_text(&|| trainer.train_store(&bad_qm, &bad.labels, None)), err);

    // Lengths that do not match the store's rows are data errors like any
    // other — not an assert, and not an index panic inside a pool worker.
    let n = good.labels.len();
    let store_err = |labels: &[f32], weights: Option<&[f32]>, groups: Option<&[u32]>| {
        trainer.try_train_store_grouped(&good_qm, labels, weights, groups, None).err()
    };
    let err = store_err(&good.labels[..n - 1], None, None);
    assert_eq!(
        err,
        Some(format!(
            "training data rejected: one label per row required, got {} labels for {n} rows",
            n - 1
        ))
    );
    assert_eq!(panic_text(&|| trainer.train_store(&good_qm, &good.labels[..n - 1], None)), err);
    let short = vec![1.0f32; n - 1];
    assert_eq!(
        store_err(&good.labels, Some(&short), None),
        Some(format!(
            "training data rejected: one weight per row required, got {} weights for {n} rows",
            n - 1
        ))
    );
    assert_eq!(
        store_err(&good.labels, None, Some(&[n as u32 - 1])),
        Some(format!(
            "training data rejected: query-group sizes sum to {} but the data has {n} rows",
            n - 1
        )),
        "a row-wise objective ignores the groups, so the trainer checks them"
    );
    let ranker = GbdtTrainer::new(TrainParams {
        n_trees: 1,
        loss: crate::params::LossKind::LambdaRank { k: 5 },
        ..base_params()
    })
    .unwrap();
    let err = ranker
        .try_train_store_grouped(&good_qm, &good.labels, None, Some(&[n as u32 - 1]), None)
        .err();
    assert!(
        err.as_deref()
            .is_some_and(|e| e.starts_with("training data rejected by lambdarank")),
        "a listwise objective's own message comes first: {err:?}"
    );
    let ones = vec![1.0f32; n];
    assert!(store_err(&good.labels, Some(&ones), Some(&[n as u32])).is_none());

    let err = trainer.try_train_with_eval(&good, eval(&bad)).err();
    assert!(err
        .as_deref()
        .is_some_and(|e| e.starts_with("eval data rejected by logistic: ")));
    assert_eq!(panic_text(&|| trainer.train_store(&good_qm, &good.labels, eval(&bad))), err);
    assert!(trainer.try_train_with_eval(&good, eval(&good)).is_ok());
}

#[test]
fn softmax_rejects_a_negative_class_id() {
    // `-1.0 as usize` saturates to 0 and `(-1.0).fract()` is -0.0, which
    // equals 0.0: only the sign check keeps this row from training as
    // class 0. Eval labels go through the same check.
    let mut good = dataset(DatasetKind::HiggsLike, 0.02);
    for (i, y) in good.labels.iter_mut().enumerate() {
        *y = (i % 3) as f32;
    }
    let mut bad = good.clone();
    bad.labels[5] = -1.0;
    let trainer = GbdtTrainer::new(TrainParams {
        n_trees: 1,
        loss: crate::params::LossKind::Softmax { n_classes: 3 },
        ..base_params()
    })
    .unwrap();
    let eval = |data| {
        Some(EvalOptions {
            data,
            metric: EvalMetric::MulticlassLogLoss,
            every: 1,
            early_stopping_rounds: None,
        })
    };
    let rule = "softmax labels must be class ids 0..3; row 5 has -1";
    assert_eq!(
        trainer.try_train_with_eval(&bad, None).err(),
        Some(format!("training data rejected by softmax:3: {rule}"))
    );
    assert_eq!(
        trainer.try_train_with_eval(&good, eval(&bad)).err(),
        Some(format!("eval data rejected by softmax:3: {rule}"))
    );
    assert!(trainer.try_train_with_eval(&good, eval(&good)).is_ok());
}

#[test]
fn predict_leaf_and_dump_text_work() {
    let data = dataset(DatasetKind::AirlineLike, 0.005);
    let out = train(&data, TrainParams { n_trees: 3, ..base_params() });
    let leaves = out.model.predict_leaf_row(|f| data.features.get(0, f as usize));
    assert_eq!(leaves.len(), 3);
    for (t, &leaf) in leaves.iter().enumerate() {
        assert!(out.model.trees()[t].node(leaf).is_leaf());
    }
    let dump = out.model.dump_text();
    assert!(dump.contains("tree 0"));
    assert!(dump.contains("leaf="));
}

#[test]
fn multiclass_model_json_roundtrip() {
    let n = 90;
    let values: Vec<f32> = (0..n).map(|i| (i % 30) as f32).collect();
    let labels: Vec<f32> = (0..n).map(|i| ((i % 30) / 10) as f32).collect();
    let data =
        Dataset::new("mc-json", FeatureMatrix::Dense(DenseMatrix::from_vec(n, 1, values)), labels);
    let params = TrainParams {
        loss: LossKind::Softmax { n_classes: 3 },
        n_trees: 4,
        tree_size: 2,
        gamma: 0.0,
        ..base_params()
    };
    let out = train(&data, params);
    let back = crate::GbdtModel::from_json(&out.model.to_json().unwrap()).unwrap();
    assert_eq!(back.n_groups(), 3);
    assert_eq!(out.model.predict_raw(&data.features), back.predict_raw(&data.features));
    // Truncation keeps whole rounds.
    let t1 = out.model.truncated(2);
    assert_eq!(t1.n_trees(), 6);
}

#[test]
fn degenerate_row_counts_train_in_every_mode_with_and_without_membuf() {
    // 0, 1 and 2 rows: the in-place gradient path has no root plane to
    // write when there are no rows, and one-row nodes can never split.
    for n in 0..3usize {
        let values: Vec<f32> = (0..n).map(|r| r as f32).collect();
        let labels: Vec<f32> = (0..n).map(|r| (r % 2) as f32).collect();
        let data =
            Dataset::new("tiny", FeatureMatrix::Dense(DenseMatrix::from_vec(n, 1, values)), labels);
        let probe = Dataset::new(
            "probe",
            FeatureMatrix::Dense(DenseMatrix::from_vec(3, 1, vec![-1.0, 0.5, 2.0])),
            vec![0.0; 3],
        );
        let bits = |mode, use_membuf| {
            let params = TrainParams {
                mode,
                use_membuf,
                n_trees: 2,
                tree_size: 2,
                n_threads: 2,
                min_child_weight: 0.0,
                gamma: 0.0,
                ..base_params()
            };
            let out = train(&data, params);
            assert_eq!(out.model.n_trees(), 2, "n={n} {mode:?} membuf={use_membuf}");
            preds(&out, &probe).iter().map(|p| p.to_bits()).collect::<Vec<u32>>()
        };
        let reference = bits(ParallelMode::DataParallel, true);
        for mode in [ParallelMode::DataParallel, ParallelMode::ModelParallel, ParallelMode::Sync] {
            for membuf in [true, false] {
                assert_eq!(bits(mode, membuf), reference, "n={n} {mode:?} membuf={membuf}");
            }
        }
        // ASYNC numbers nodes in completion order; on trees this small the
        // logical model is still the same, MemBuf on or off.
        assert_eq!(bits(ParallelMode::Async, true), bits(ParallelMode::Async, false), "n={n}");
    }
}

#[test]
fn leaves_hold_a_permutation_of_the_rows_after_every_tree() {
    // What `update_predictions`' unsynchronized `+=` and the partition's
    // scatter rest on: however a mode schedules its splits, the leaves' row
    // lists are disjoint and cover `0..n`.
    let data = dataset(DatasetKind::HiggsLike, 1.3);
    let qm = harp_binning::QuantizedMatrix::from_matrix(
        &data.features,
        harp_binning::BinningConfig::default(),
    );
    let n = qm.n_rows();
    assert!(n >= 3 * 8192, "the root and its children must be partitioned by pool tasks");
    let pool = ThreadPool::new(4);
    let clock = PhaseClock::new();
    for mode in [
        ParallelMode::DataParallel,
        ParallelMode::ModelParallel,
        ParallelMode::Sync,
        ParallelMode::Async,
    ] {
        for use_membuf in [true, false] {
            let params =
                TrainParams { mode, use_membuf, tree_size: 6, k: 8, n_threads: 4, ..base_params() };
            let mut engine = TreeEngine::new(&qm, &params, &pool, &clock);
            let mut scores = vec![0.0f32; n];
            for iter in 0..3 {
                let scaling = crate::loss::RowScaling { weights: None, subsample: 1.0, seed: 0 };
                crate::objective::compute_gradients_group(
                    params.loss,
                    &pool,
                    &scores,
                    &data.labels,
                    None,
                    0,
                    &scaling,
                    engine.partition.gradients_mut(),
                );
                let tree = engine.build_tree();
                assert!(tree.n_leaves() > 8, "{mode:?}: tree {iter} barely grew");
                let mut seen = vec![false; n];
                for leaf in tree.leaf_ids() {
                    for &row in engine.partition.rows(leaf) {
                        assert!(
                            !std::mem::replace(&mut seen[row as usize], true),
                            "{mode:?} membuf={use_membuf} tree {iter}: row {row} in two leaves"
                        );
                    }
                }
                assert!(
                    seen.iter().all(|&s| s),
                    "{mode:?} membuf={use_membuf} tree {iter}: a row is in no leaf"
                );
                engine.update_predictions(&tree, &mut scores, 1, 0);
            }
        }
    }
}

#[test]
fn a_dp_batch_that_derives_a_sibling_costs_three_regions_and_its_apply_split() {
    // BuildHist, the replica reduction and one finish region of ⟨job,
    // feature-chunk⟩ tiles that subtract and search — plus the ApplySplit
    // region where the batch's rows reach the partition's pool threshold.
    // K = 1 and leafwise, so the larger tree repeats the smaller one's pops
    // and then carries on: it pays for the children of the split that spent
    // the smaller one's budget and for every split after it but its own last.
    let data = dataset(DatasetKind::HiggsLike, 0.3);
    let run = |tree_size: u32| {
        let params = TrainParams {
            n_trees: 1,
            tree_size,
            k: 1,
            growth: GrowthMethod::Leafwise,
            mode: ParallelMode::DataParallel,
            n_threads: 2,
            gamma: 0.0,
            ..Default::default()
        };
        let out = train(&data, params);
        let profile = out.diagnostics.profile.counters;
        let splits = u64::from(out.diagnostics.tree_shapes[0].n_leaves) - 1;
        assert_eq!(splits, (1 << tree_size) - 1, "the tree must spend its whole budget");
        assert_eq!(profile.hist_cache_hits, splits, "every split must find its parent cached");
        let pooled = profile.partition_scratch_allocs + profile.partition_scratch_reuses;
        (profile.regions, pooled, splits)
    };
    let (small_regions, small_pooled, small_splits) = run(3);
    let (big_regions, big_pooled, big_splits) = run(4);
    let batches = big_splits - small_splits;
    assert!(
        big_regions - small_regions <= 3 * batches + (big_pooled - small_pooled),
        "{batches} more batches cost {} more regions ({} of them ApplySplit)",
        big_regions - small_regions,
        big_pooled - small_pooled
    );
}
