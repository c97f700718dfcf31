//! Objective-layer contract tests spanning the whole registry:
//!
//! * finite-difference validation of each objective's analytic `(g, h)`
//!   against numeric derivatives of its reference loss;
//! * serde round-trips for every registered spec, including through a
//!   saved model file;
//! * gradient dispatch over the full registry with no panic path (the old
//!   scalar `LossKind::grad` panicked for softmax);
//! * parse/name round-trips and registry-derived error messages.

use harp_data::workloads;
use harpgbdt::objective::{compute_gradients_group, registry_names, REGISTRY};
use harpgbdt::{GbdtTrainer, LossKind, RowScaling, TrainParams};
use serde::{Deserialize, Serialize};

/// One spec per registry entry; a length mismatch means an objective was
/// added without extending these tests.
fn all_specs() -> Vec<LossKind> {
    let specs = vec![
        LossKind::Logistic,
        LossKind::SquaredError,
        LossKind::Softmax { n_classes: 3 },
        LossKind::Quantile { alpha: 0.9 },
        LossKind::Tweedie { power: 1.5 },
        LossKind::Huber { delta: 2.0 },
        LossKind::LambdaRank { k: 10 },
    ];
    assert_eq!(specs.len(), REGISTRY.len(), "cover every registered objective");
    specs
}

/// The analytic pair of group `group` for one row, through the gradient
/// driver: unweighted, so only the Hessian floor (far below every
/// tolerance here) separates it from the raw formula.
fn raw_gh(spec: LossKind, scores: &[f32], label: f32, group: usize) -> [f32; 2] {
    let pool = harp_parallel::ThreadPool::new(1);
    let mut out = [[0.0f32; 2]; 1];
    compute_gradients_group(
        spec,
        &pool,
        scores,
        &[label],
        None,
        group,
        &RowScaling::default(),
        &mut out,
    );
    out[0]
}

/// Central finite differences of a scalar reference loss: `g ≈ L'`,
/// `h ≈ L''`.
fn fd(loss: impl Fn(f64) -> f64, s: f64) -> (f64, f64) {
    let e = 1e-4;
    let g = (loss(s + e) - loss(s - e)) / (2.0 * e);
    let h = (loss(s + e) - 2.0 * loss(s) + loss(s - e)) / (e * e);
    (g, h)
}

fn close(a: f64, b: f64, tol: f64, what: &str) {
    assert!((a - b).abs() <= tol * (1.0 + b.abs()), "{what}: analytic {a} vs numeric {b}");
}

#[test]
fn logistic_gradients_match_finite_differences() {
    for &y in &[0.0f32, 1.0] {
        for &s in &[-2.0f32, -0.5, 0.0, 0.7, 3.0] {
            let [g, h] = raw_gh(LossKind::Logistic, &[s], y, 0);
            let loss = |t: f64| (1.0 + t.exp()).ln() - f64::from(y) * t;
            let (gn, hn) = fd(loss, f64::from(s));
            close(f64::from(g), gn, 1e-3, "logistic g");
            close(f64::from(h), hn, 1e-3, "logistic h");
        }
    }
}

#[test]
fn squared_error_gradients_match_finite_differences() {
    for &(y, s) in &[(0.0f32, 1.5f32), (3.0, -2.0), (-1.0, -1.0)] {
        let [g, h] = raw_gh(LossKind::SquaredError, &[s], y, 0);
        let loss = |t: f64| 0.5 * (t - f64::from(y)).powi(2);
        let (gn, hn) = fd(loss, f64::from(s));
        close(f64::from(g), gn, 1e-3, "squared g");
        close(f64::from(h), hn, 1e-3, "squared h");
    }
}

#[test]
fn tweedie_gradients_match_finite_differences() {
    let p = 1.5f64;
    for &y in &[0.0f32, 0.5, 3.0] {
        for &s in &[-1.0f32, 0.0, 0.8] {
            let [g, h] = raw_gh(LossKind::Tweedie { power: 1.5 }, &[s], y, 0);
            let loss = |t: f64| {
                -f64::from(y) * ((1.0 - p) * t).exp() / (1.0 - p)
                    + ((2.0 - p) * t).exp() / (2.0 - p)
            };
            let (gn, hn) = fd(loss, f64::from(s));
            close(f64::from(g), gn, 1e-3, "tweedie g");
            close(f64::from(h), hn, 1e-3, "tweedie h");
        }
    }
}

#[test]
fn quantile_gradient_matches_pinball_subgradient() {
    // The pinball loss is piecewise linear: g is the subgradient away from
    // the kink at s = y, and the stand-in Hessian is the conventional 1.
    let alpha = 0.9f32;
    let spec = LossKind::Quantile { alpha };
    for &(y, s) in &[(1.0f32, 3.0f32), (1.0, -2.0), (0.0, 5.0)] {
        let [g, h] = raw_gh(spec, &[s], y, 0);
        let loss = |t: f64| {
            let d = f64::from(y) - t;
            if d >= 0.0 {
                f64::from(alpha) * d
            } else {
                (f64::from(alpha) - 1.0) * d
            }
        };
        let (gn, _) = fd(loss, f64::from(s));
        close(f64::from(g), gn, 1e-3, "quantile g");
        assert_eq!(h, 1.0, "quantile uses a unit stand-in Hessian");
    }
}

#[test]
fn huber_gradient_matches_finite_differences_away_from_the_knee() {
    let delta = 2.0f32;
    let spec = LossKind::Huber { delta };
    // Residuals well inside and well outside the quadratic region.
    for &(y, s) in &[(0.0f32, 0.5f32), (0.0, -1.0), (0.0, 5.0), (0.0, -7.0)] {
        let [g, h] = raw_gh(spec, &[s], y, 0);
        let loss = |t: f64| {
            let r = (t - f64::from(y)).abs();
            let d = f64::from(delta);
            if r <= d {
                0.5 * r * r
            } else {
                d * (r - 0.5 * d)
            }
        };
        let (gn, _) = fd(loss, f64::from(s));
        close(f64::from(g), gn, 1e-3, "huber g");
        assert_eq!(h, 1.0, "huber uses a unit stand-in Hessian");
    }
}

#[test]
fn softmax_gradients_match_finite_differences() {
    let spec = LossKind::Softmax { n_classes: 3 };
    let scores = [0.3f32, -1.2, 0.9];
    for label in 0..3 {
        for group in 0..3 {
            let [g, h] = raw_gh(spec, &scores, label as f32, group);
            // Reference: cross-entropy of the softmax as a function of the
            // perturbed group's score.
            let loss = |t: f64| {
                let mut s: Vec<f64> = scores.iter().map(|&v| f64::from(v)).collect();
                s[group] = t;
                let z: f64 = s.iter().map(|v| v.exp()).sum();
                z.ln() - s[label]
            };
            let (gn, _) = fd(loss, f64::from(scores[group]));
            close(f64::from(g), gn, 1e-3, "softmax g");
            // The booster's softmax Hessian is the conventional scaled
            // 2·p·(1−p), not the raw second derivative p·(1−p).
            let z: f64 = scores.iter().map(|&v| f64::from(v).exp()).sum();
            let p = f64::from(scores[group]).exp() / z;
            close(f64::from(h), 2.0 * p * (1.0 - p), 1e-3, "softmax h");
        }
    }
}

#[test]
fn lambdarank_two_document_closed_form() {
    // One query, two documents, misranked: rel [1, 0], scores [0, 1].
    // gains (1, 0), discounts (1, 1/log2(3)), idcg = 1, so
    // Δndcg = 1 − 1/log2(3). The pair weight is the logistic of the score
    // gap, ρ = 1/(1+e^{s_hi−s_lo}) = 1/(1+e^{−1}) — large because the
    // pair is misranked.
    let pool = harp_parallel::ThreadPool::new(1);
    let mut out = [[0.0f32; 2]; 2];
    compute_gradients_group(
        LossKind::LambdaRank { k: 10 },
        &pool,
        &[0.0, 1.0],
        &[1.0, 0.0],
        Some(&[2]),
        0,
        &RowScaling::default(),
        &mut out,
    );
    let delta_ndcg = 1.0 - 1.0 / 3.0f64.log2();
    let rho = 1.0 / (1.0 + (-1.0f64).exp());
    let lambda = (rho * delta_ndcg) as f32;
    let hess = (rho * (1.0 - rho) * delta_ndcg) as f32;
    assert!((out[0][0] + lambda).abs() < 1e-5, "doc0 pulled up: {:?}", out);
    assert!((out[1][0] - lambda).abs() < 1e-5, "doc1 pushed down: {:?}", out);
    assert!((out[0][1] - hess).abs() < 1e-5 && (out[1][1] - hess).abs() < 1e-5);
    // Invariant: per-query lambdas cancel.
    assert!((out[0][0] + out[1][0]).abs() < 1e-6);
}

#[test]
fn every_registered_spec_serde_round_trips() {
    for spec in all_specs() {
        let v = spec.to_value();
        let back = LossKind::from_value(&v).expect("round-trip");
        assert_eq!(back, spec, "serde round-trip of {spec:?}");
    }
}

#[test]
fn classic_variant_names_stay_serde_stable() {
    // Saved models from before the objective layer carry these exact
    // names; renaming a variant would orphan them.
    let json = serde_json::to_string(&LossKind::Logistic).expect("serialize");
    assert!(json.contains("Logistic"), "{json}");
    let json = serde_json::to_string(&LossKind::Softmax { n_classes: 3 }).expect("serialize");
    assert!(json.contains("Softmax") && json.contains("n_classes"), "{json}");
}

#[test]
fn saved_models_keep_their_objective() {
    for spec in all_specs() {
        let (data, trees) = match spec {
            LossKind::LambdaRank { .. } => (workloads::ranking_queries(20, 10, 4, 5), 3),
            LossKind::Tweedie { .. } => (workloads::tweedie_claims(200, 4, 5), 3),
            LossKind::Logistic | LossKind::Softmax { .. } => {
                let mut d = workloads::huber_sensor(200, 4, 5);
                let classes = spec.n_groups().max(2) as f32;
                for (i, y) in d.labels.iter_mut().enumerate() {
                    *y = (i % classes as usize) as f32;
                }
                (d, 2)
            }
            _ => (workloads::huber_sensor(200, 4, 5), 3),
        };
        let params = TrainParams {
            n_trees: trees,
            tree_size: 3,
            loss: spec,
            n_threads: 2,
            ..TrainParams::default()
        };
        let out = GbdtTrainer::new(params).expect("valid params").train(&data);
        let path = std::env::temp_dir()
            .join(format!("harp-objective-{}.json", spec.name().replace(':', "-")));
        out.model.save(&path).expect("save");
        let loaded = harpgbdt::GbdtModel::load(&path).expect("load");
        assert_eq!(loaded.loss(), spec, "objective survives save/load");
        assert_eq!(
            loaded.predict_raw(&data.features),
            out.model.predict_raw(&data.features),
            "reloaded model predicts identically"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn gradient_dispatch_covers_the_registry_without_panicking() {
    // The old enum had a scalar `grad` that panicked for softmax. No input
    // may reach a panic: every spec computes gradients for every one of
    // its groups here, LambdaRank with the query groups it needs.
    let pool = harp_parallel::ThreadPool::new(2);
    let n = 50usize;
    let labels: Vec<f32> = (0..n).map(|i| (i % 2) as f32).collect();
    let groups: Vec<u32> = vec![10; 5];
    for spec in all_specs() {
        let g = spec.n_groups();
        let preds = vec![0.1f32; n * g];
        let qg = matches!(spec, LossKind::LambdaRank { .. }).then_some(&groups[..]);
        let mut out = vec![[0.0f32; 2]; n];
        for group in 0..g {
            compute_gradients_group(
                spec,
                &pool,
                &preds,
                &labels,
                qg,
                group,
                &RowScaling::default(),
                &mut out,
            );
            assert!(
                out.iter().all(|p| p[0].is_finite() && p[1] > 0.0),
                "{spec:?} group {group}: finite g, floored h"
            );
        }
    }
}

#[test]
fn parse_and_name_round_trip() {
    for spec in all_specs() {
        let round = LossKind::parse(&spec.name()).expect("canonical name parses");
        assert_eq!(round, spec, "parse(name()) round-trip");
    }
    // Registry syntaxes parse too (parameterized ones via their defaults).
    for info in REGISTRY {
        if info.name == "softmax" {
            assert!(LossKind::parse("softmax:3").is_ok());
        } else {
            assert!(LossKind::parse(info.name).is_ok(), "bare {} parses", info.name);
        }
    }
}

#[test]
fn max_delta_step_caps_per_tree_leaf_contributions() {
    // The outlier-heavy sensor workload drives big Newton steps; with the
    // cap on, every raw prediction must stay within
    // base ± n_trees · lr · cap, and without it some row must escape that
    // envelope (proving the cap actually binds).
    let data = workloads::huber_sensor(600, 4, 9);
    let (n_trees, lr, cap) = (10usize, 0.5f32, 0.05f64);
    let train = |max_delta_step: f64| {
        let params = TrainParams {
            n_trees,
            tree_size: 3,
            learning_rate: lr,
            max_delta_step,
            loss: LossKind::SquaredError,
            n_threads: 1,
            ..TrainParams::default()
        };
        GbdtTrainer::new(params).expect("valid params").train(&data)
    };
    let base = f64::from(LossKind::SquaredError.base_scores(&data.labels)[0]);
    let bound = n_trees as f64 * f64::from(lr) * cap + 1e-6;
    let capped = train(cap).model.predict_raw(&data.features);
    assert!(
        capped.iter().all(|&p| (f64::from(p) - base).abs() <= bound),
        "capped predictions must stay within the step envelope"
    );
    let free = train(0.0).model.predict_raw(&data.features);
    assert!(
        free.iter().any(|&p| (f64::from(p) - base).abs() > bound),
        "uncapped training must exceed the envelope on this workload"
    );
}

#[test]
fn unknown_loss_error_lists_the_whole_registry() {
    let err = LossKind::parse("zero-one").unwrap_err();
    for info in REGISTRY {
        assert!(err.contains(info.syntax), "error must mention {}: {err}", info.syntax);
    }
    assert!(err.contains(&registry_names()));
}
