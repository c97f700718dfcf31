//! Cross-crate end-to-end tests: generators → binning → training →
//! evaluation → persistence, over every dataset shape from the paper.

use harp_baselines::Baseline;
use harp_bench::{harp_params, prepared, run_config};
use harp_data::DatasetKind;
use harpgbdt::{GbdtModel, GbdtTrainer};

#[test]
fn every_dataset_shape_is_learnable() {
    for kind in DatasetKind::ALL {
        // yfcc-like has a tiny base row count (2k); at 0.08 its 16-row test
        // split makes AUC pure seed noise, so give it enough rows for the
        // assertion to measure learning rather than luck.
        let scale = if kind == DatasetKind::YfccLike { 0.3 } else { 0.08 };
        let data = prepared(kind, scale, 5);
        let mut params = harp_params(4, 2);
        params.n_trees = 10;
        let res = run_config(&data, &data.quantized, params, false);
        assert!(res.test_auc > 0.60, "{}: held-out AUC only {:.3}", kind.name(), res.test_auc);
    }
}

#[test]
fn harp_beats_baselines_on_no_accuracy_dimension() {
    // The optimization story requires accuracy parity: HarpGBDT's AUC must
    // be within noise of both baselines on the same prepared data.
    let data = prepared(DatasetKind::HiggsLike, 0.1, 9);
    let mut harp = harp_params(5, 2);
    harp.n_trees = 15;
    let harp_res = run_config(&data, &data.quantized, harp, false);
    for baseline in [Baseline::XgbLeaf, Baseline::LightGbm] {
        let mut params = baseline.params(5, 2);
        params.n_trees = 15;
        let res = run_config(&data, &data.quantized, params, false);
        assert!(
            (harp_res.test_auc - res.test_auc).abs() < 0.03,
            "{}: AUC {:.4} vs harp {:.4}",
            baseline.name(),
            res.test_auc,
            harp_res.test_auc
        );
    }
}

#[test]
fn model_persistence_roundtrip_preserves_predictions() {
    let data = prepared(DatasetKind::AirlineLike, 0.02, 3);
    let mut params = harp_params(4, 2);
    params.n_trees = 5;
    let res = run_config(&data, &data.quantized, params, false);
    let json = res.output.model.to_json().expect("serialize");
    let back = GbdtModel::from_json(&json).expect("parse");
    assert_eq!(
        res.output.model.predict_raw(&data.test.features),
        back.predict_raw(&data.test.features)
    );
}

#[test]
fn trainer_accepts_csv_loaded_data() {
    // Loader → trainer integration: write a small CSV, read it back, train.
    let mut csv = String::from("label,f0,f1\n");
    for i in 0..200 {
        let x = (i % 20) as f32 / 20.0;
        let y = ((i * 7) % 13) as f32 / 13.0;
        let label = u8::from(x + 0.3 * y > 0.6);
        csv.push_str(&format!("{label},{x},{y}\n"));
    }
    let data = harp_data::io::read_csv(std::io::Cursor::new(csv), "csv-test").expect("parse csv");
    let params = harpgbdt::TrainParams {
        n_trees: 20,
        tree_size: 3,
        n_threads: 2,
        gamma: 0.0,
        ..Default::default()
    };
    let out = GbdtTrainer::new(params).unwrap().train(&data);
    let preds = out.model.predict(&data.features);
    let auc = harp_metrics::auc(&data.labels, &preds);
    assert!(auc > 0.95, "separable CSV task should be learned: AUC {auc}");
}

#[test]
fn diagnostics_are_consistent_with_model() {
    let data = prepared(DatasetKind::CriteoLike, 0.04, 1);
    let mut params = harp_params(4, 2);
    params.n_trees = 6;
    let res = run_config(&data, &data.quantized, params, true);
    let d = &res.output.diagnostics;
    assert_eq!(d.per_tree_secs.len(), res.output.model.n_trees());
    assert_eq!(d.tree_shapes.len(), res.output.model.n_trees());
    let trace = d.trace.as_ref().expect("trace requested");
    assert_eq!(trace.points().len(), res.output.model.n_trees());
    // Trace time is bounded by total training time (eval excluded from both).
    let last = trace.points().last().expect("one point per tree");
    assert!(last.elapsed_secs <= d.train_secs * 1.0001);
}

#[test]
fn feature_importance_finds_informative_features() {
    // Teacher signals live in the first 32 features; a fat matrix's
    // importance mass must concentrate there.
    let data = prepared(DatasetKind::YfccLike, 0.2, 2);
    let mut params = harp_params(4, 2);
    params.n_trees = 10;
    let res = run_config(&data, &data.quantized, params, false);
    let imp = res.output.model.feature_importance();
    let informative: f64 = imp.iter().take(32).map(|i| i.gain).sum();
    let total: f64 = imp.iter().map(|i| i.gain).sum();
    assert!(total > 0.0, "no splits at all");
    // 32 of 4096 features carry signal (0.8% of columns). At this tiny row
    // count noise features still win some splits, so assert strong
    // *enrichment* rather than outright majority: >=10x the uniform share.
    let share = informative / total;
    let uniform = 32.0 / imp.len() as f64;
    assert!(
        share > 10.0 * uniform,
        "informative features got {:.1}% of gain (uniform would be {:.1}%)",
        share * 100.0,
        uniform * 100.0
    );
}
