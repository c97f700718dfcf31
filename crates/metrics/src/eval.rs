//! Accuracy metrics.

/// Area under the ROC curve, computed exactly via the Mann–Whitney
/// statistic with average ranks for tied scores.
///
/// `labels` must be `{0, 1}`-valued; `scores` are arbitrary reals (higher =
/// more positive). Returns `0.5` when either class is absent (the
/// conventional "no information" value).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn auc(labels: &[f32], scores: &[f32]) -> f64 {
    assert_eq!(labels.len(), scores.len(), "labels/scores length mismatch");
    let n = labels.len();
    let n_pos = labels.iter().filter(|&&y| y > 0.5).count();
    let n_neg = n - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    // Average ranks across tie groups.
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        // 1-based ranks i+1 ..= j+1 share the average rank.
        let avg_rank = (i + 1 + j + 1) as f64 / 2.0;
        for &idx in &order[i..=j] {
            if labels[idx] > 0.5 {
                rank_sum_pos += avg_rank;
            }
        }
        i = j + 1;
    }
    let u = rank_sum_pos - (n_pos as f64) * (n_pos as f64 + 1.0) / 2.0;
    u / (n_pos as f64 * n_neg as f64)
}

/// Binary cross-entropy of probability predictions, clamped away from 0/1
/// for numerical safety.
///
/// # Panics
/// Panics if the slices have different lengths or `labels` is empty.
pub fn log_loss(labels: &[f32], probs: &[f32]) -> f64 {
    assert_eq!(labels.len(), probs.len(), "labels/probs length mismatch");
    assert!(!labels.is_empty(), "log_loss of empty slice");
    let mut sum = 0.0f64;
    for (&y, &p) in labels.iter().zip(probs) {
        let p = (p as f64).clamp(1e-15, 1.0 - 1e-15);
        sum -= if y > 0.5 { p.ln() } else { (1.0 - p).ln() };
    }
    sum / labels.len() as f64
}

/// Fraction of misclassified rows at the 0.5 probability threshold.
///
/// # Panics
/// Panics if the slices have different lengths or `labels` is empty.
pub fn error_rate(labels: &[f32], probs: &[f32]) -> f64 {
    1.0 - accuracy(labels, probs)
}

/// Fraction of correctly classified rows at the 0.5 probability threshold.
///
/// # Panics
/// Panics if the slices have different lengths or `labels` is empty.
fn accuracy(labels: &[f32], probs: &[f32]) -> f64 {
    assert_eq!(labels.len(), probs.len(), "labels/probs length mismatch");
    assert!(!labels.is_empty(), "accuracy of empty slice");
    let correct = labels.iter().zip(probs).filter(|&(&y, &p)| (p > 0.5) == (y > 0.5)).count();
    correct as f64 / labels.len() as f64
}

/// Multiclass cross-entropy. `labels` hold class ids (`0.0..n_classes`),
/// `probs` is row-major `n_rows × n_classes` (each row summing to ~1).
///
/// # Panics
/// Panics on shape mismatch, empty input, or out-of-range class ids.
pub fn multiclass_log_loss(labels: &[f32], probs: &[f32], n_classes: usize) -> f64 {
    assert!(n_classes >= 2, "need at least two classes");
    assert!(!labels.is_empty(), "multiclass_log_loss of empty slice");
    assert_eq!(probs.len(), labels.len() * n_classes, "probs shape mismatch");
    let mut sum = 0.0f64;
    for (i, &y) in labels.iter().enumerate() {
        let c = y as usize;
        assert!(c < n_classes, "class id {c} out of range");
        let p = (probs[i * n_classes + c] as f64).clamp(1e-15, 1.0);
        sum -= p.ln();
    }
    sum / labels.len() as f64
}

/// Multiclass error rate under argmax prediction. Shapes as in
/// [`multiclass_log_loss`]; ties resolve to the lowest class id.
///
/// # Panics
/// Panics on shape mismatch or empty input.
pub fn multiclass_error(labels: &[f32], scores: &[f32], n_classes: usize) -> f64 {
    assert!(n_classes >= 2, "need at least two classes");
    assert!(!labels.is_empty(), "multiclass_error of empty slice");
    assert_eq!(scores.len(), labels.len() * n_classes, "scores shape mismatch");
    let mut wrong = 0usize;
    for (i, &y) in labels.iter().enumerate() {
        let row = &scores[i * n_classes..(i + 1) * n_classes];
        let mut best = 0usize;
        for (c, &s) in row.iter().enumerate() {
            if s > row[best] {
                best = c;
            }
        }
        if best != y as usize {
            wrong += 1;
        }
    }
    wrong as f64 / labels.len() as f64
}

/// Root mean squared error of raw predictions.
///
/// # Panics
/// Panics if the slices have different lengths or `labels` is empty.
pub fn rmse(labels: &[f32], preds: &[f32]) -> f64 {
    assert_eq!(labels.len(), preds.len(), "labels/preds length mismatch");
    assert!(!labels.is_empty(), "rmse of empty slice");
    let mse = labels
        .iter()
        .zip(preds)
        .map(|(&y, &p)| {
            let d = (y - p) as f64;
            d * d
        })
        .sum::<f64>()
        / labels.len() as f64;
    mse.sqrt()
}

/// Mean pinball (quantile) loss at quantile `alpha`:
/// `mean((alpha - 1[y < pred]) * (y - pred))`. The proper scoring rule for
/// quantile regression — minimized in expectation by the true
/// `alpha`-quantile.
///
/// # Panics
/// Panics if the slices have different lengths, `labels` is empty, or
/// `alpha` is outside `(0, 1)`.
pub fn pinball_loss(labels: &[f32], preds: &[f32], alpha: f32) -> f64 {
    assert_eq!(labels.len(), preds.len(), "labels/preds length mismatch");
    assert!(!labels.is_empty(), "pinball_loss of empty slice");
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
    let a = alpha as f64;
    let sum: f64 = labels
        .iter()
        .zip(preds)
        .map(|(&y, &p)| {
            let d = (y - p) as f64;
            if d >= 0.0 {
                a * d
            } else {
                (a - 1.0) * d
            }
        })
        .sum();
    sum / labels.len() as f64
}

/// Mean Huber loss with transition width `delta`: `r²/2` for residuals
/// within `±delta`, `delta·(|r| - delta/2)` outside.
///
/// # Panics
/// Panics if the slices have different lengths, `labels` is empty, or
/// `delta` is not positive.
pub fn huber_loss(labels: &[f32], preds: &[f32], delta: f32) -> f64 {
    assert_eq!(labels.len(), preds.len(), "labels/preds length mismatch");
    assert!(!labels.is_empty(), "huber_loss of empty slice");
    assert!(delta > 0.0, "delta must be positive");
    let d = delta as f64;
    let sum: f64 = labels
        .iter()
        .zip(preds)
        .map(|(&y, &p)| {
            let r = ((y - p) as f64).abs();
            if r <= d {
                0.5 * r * r
            } else {
                d * (r - 0.5 * d)
            }
        })
        .sum();
    sum / labels.len() as f64
}

/// Mean Tweedie deviance at variance power `power` in `(1, 2)`:
/// `2·(y^{2-p}/((1-p)(2-p)) - y·μ^{1-p}/(1-p) + μ^{2-p}/(2-p))` per row.
/// `mu` are mean predictions on the response scale (must be positive);
/// labels must be non-negative.
///
/// # Panics
/// Panics if the slices have different lengths, `labels` is empty, or
/// `power` is outside `(1, 2)`.
pub fn tweedie_deviance(labels: &[f32], mu: &[f32], power: f32) -> f64 {
    assert_eq!(labels.len(), mu.len(), "labels/mu length mismatch");
    assert!(!labels.is_empty(), "tweedie_deviance of empty slice");
    assert!(power > 1.0 && power < 2.0, "power must be in (1, 2)");
    let p = power as f64;
    let sum: f64 = labels
        .iter()
        .zip(mu)
        .map(|(&y, &m)| {
            let y = y as f64;
            let m = (m as f64).max(1e-15);
            2.0 * (y.powf(2.0 - p) / ((1.0 - p) * (2.0 - p)) - y * m.powf(1.0 - p) / (1.0 - p)
                + m.powf(2.0 - p) / (2.0 - p))
        })
        .sum();
    sum / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// O(P*N) brute-force AUC for cross-checking.
    fn auc_brute(labels: &[f32], scores: &[f32]) -> f64 {
        let pos: Vec<f32> =
            labels.iter().zip(scores).filter(|(&y, _)| y > 0.5).map(|(_, &s)| s).collect();
        let neg: Vec<f32> =
            labels.iter().zip(scores).filter(|(&y, _)| y <= 0.5).map(|(_, &s)| s).collect();
        if pos.is_empty() || neg.is_empty() {
            return 0.5;
        }
        let mut wins = 0.0f64;
        for &p in &pos {
            for &n in &neg {
                if p > n {
                    wins += 1.0;
                } else if p == n {
                    wins += 0.5;
                }
            }
        }
        wins / (pos.len() as f64 * neg.len() as f64)
    }

    #[test]
    fn perfect_ranking_gives_auc_one() {
        let labels = [0.0, 0.0, 1.0, 1.0];
        let scores = [0.1, 0.2, 0.8, 0.9];
        assert!((auc(&labels, &scores) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_ranking_gives_auc_zero() {
        let labels = [1.0, 1.0, 0.0, 0.0];
        let scores = [0.1, 0.2, 0.8, 0.9];
        assert!(auc(&labels, &scores).abs() < 1e-12);
    }

    #[test]
    fn constant_scores_give_half() {
        let labels = [1.0, 0.0, 1.0, 0.0];
        let scores = [0.5; 4];
        assert!((auc(&labels, &scores) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_class_gives_half() {
        assert_eq!(auc(&[1.0, 1.0], &[0.3, 0.9]), 0.5);
        assert_eq!(auc(&[0.0, 0.0], &[0.3, 0.9]), 0.5);
    }

    #[test]
    fn auc_matches_brute_force_with_ties() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let n = rng.gen_range(2..200);
            let labels: Vec<f32> = (0..n).map(|_| (rng.gen::<bool>() as u8) as f32).collect();
            // Coarse scores force plenty of ties.
            let scores: Vec<f32> = (0..n).map(|_| rng.gen_range(0..10) as f32 / 10.0).collect();
            let fast = auc(&labels, &scores);
            let slow = auc_brute(&labels, &scores);
            assert!((fast - slow).abs() < 1e-9, "fast {fast} vs brute {slow}");
        }
    }

    #[test]
    fn log_loss_of_perfect_predictions_is_tiny() {
        let labels = [1.0, 0.0];
        let probs = [1.0, 0.0];
        assert!(log_loss(&labels, &probs) < 1e-10);
    }

    #[test]
    fn log_loss_of_uninformative_predictions_is_ln2() {
        let labels = [1.0, 0.0, 1.0, 0.0];
        let probs = [0.5; 4];
        assert!((log_loss(&labels, &probs) - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn accuracy_and_error_sum_to_one() {
        let labels = [1.0, 0.0, 1.0, 0.0];
        let probs = [0.9, 0.4, 0.2, 0.6];
        let a = accuracy(&labels, &probs);
        let e = error_rate(&labels, &probs);
        assert!((a + e - 1.0).abs() < 1e-12);
        assert!((a - 0.5).abs() < 1e-12);
    }

    #[test]
    fn multiclass_log_loss_of_perfect_predictions_is_tiny() {
        let labels = [0.0, 2.0, 1.0];
        #[rustfmt::skip]
        let probs = [
            1.0, 0.0, 0.0,
            0.0, 0.0, 1.0,
            0.0, 1.0, 0.0,
        ];
        assert!(multiclass_log_loss(&labels, &probs, 3) < 1e-10);
    }

    #[test]
    fn multiclass_log_loss_uniform_is_ln_c() {
        let labels = [0.0, 1.0, 2.0];
        let probs = [1.0 / 3.0; 9];
        let ll = multiclass_log_loss(&labels, &probs, 3);
        assert!((ll - 3.0f64.ln()).abs() < 1e-6);
    }

    #[test]
    fn multiclass_error_counts_argmax_misses() {
        let labels = [0.0, 1.0, 2.0, 1.0];
        #[rustfmt::skip]
        let scores = [
            0.9, 0.1, 0.0, // correct
            0.2, 0.5, 0.3, // correct
            0.6, 0.3, 0.1, // wrong (predicts 0)
            0.1, 0.2, 0.7, // wrong (predicts 2)
        ];
        assert!((multiclass_error(&labels, &scores, 3) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn multiclass_shape_mismatch_panics() {
        let _ = multiclass_error(&[0.0, 1.0], &[0.0; 5], 3);
    }

    #[test]
    fn rmse_simple_case() {
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn pinball_is_asymmetric() {
        // At alpha = 0.9, under-prediction costs 9x over-prediction.
        let under = pinball_loss(&[1.0], &[0.0], 0.9);
        let over = pinball_loss(&[0.0], &[1.0], 0.9);
        // f32 alpha carries ~1e-8 representation error into the f64 sum.
        assert!((under - 0.9).abs() < 1e-6);
        assert!((over - 0.1).abs() < 1e-6);
        assert_eq!(pinball_loss(&[1.0], &[1.0], 0.9), 0.0);
    }

    #[test]
    fn pinball_minimized_at_the_true_quantile() {
        let labels: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let at_q90 = pinball_loss(&labels, &vec![90.0; 100], 0.9);
        let at_median = pinball_loss(&labels, &vec![50.0; 100], 0.9);
        let at_mean_plus = pinball_loss(&labels, &vec![99.0; 100], 0.9);
        assert!(at_q90 < at_median && at_q90 < at_mean_plus);
    }

    #[test]
    fn huber_matches_quadratic_inside_and_linear_outside() {
        assert!((huber_loss(&[0.0], &[1.0], 2.0) - 0.5).abs() < 1e-9);
        // |r| = 5 with delta 2: 2*(5 - 1) = 8.
        assert!((huber_loss(&[0.0], &[5.0], 2.0) - 8.0).abs() < 1e-9);
        assert_eq!(huber_loss(&[3.0], &[3.0], 1.0), 0.0);
    }

    #[test]
    fn tweedie_deviance_zero_at_perfect_fit_and_positive_otherwise() {
        let labels = [0.5f32, 2.0, 4.0];
        let d0 = tweedie_deviance(&labels, &labels, 1.5);
        assert!(d0.abs() < 1e-6, "deviance at the true mean: {d0}");
        let off = tweedie_deviance(&labels, &[1.0, 1.0, 1.0], 1.5);
        assert!(off > d0);
        // Zero labels are legal (the zero-inflated case).
        let z = tweedie_deviance(&[0.0, 0.0], &[0.5, 1.0], 1.5);
        assert!(z > 0.0);
    }

    proptest! {
        #[test]
        fn prop_auc_in_unit_interval(
            labels in prop::collection::vec(0u8..2, 1..100),
            seed in 0u64..1000,
        ) {
            let labels: Vec<f32> = labels.into_iter().map(f32::from).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let scores: Vec<f32> = (0..labels.len()).map(|_| rng.gen()).collect();
            let a = auc(&labels, &scores);
            prop_assert!((0.0..=1.0).contains(&a));
        }

        /// AUC is invariant under strictly monotone transforms of the scores.
        #[test]
        fn prop_auc_monotone_invariant(
            labels in prop::collection::vec(0u8..2, 2..80),
            seed in 0u64..1000,
        ) {
            let labels: Vec<f32> = labels.into_iter().map(f32::from).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let scores: Vec<f32> = (0..labels.len()).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
            let transformed: Vec<f32> = scores.iter().map(|&s| (s * 0.5).exp()).collect();
            prop_assert!((auc(&labels, &scores) - auc(&labels, &transformed)).abs() < 1e-9);
        }

        /// Flipping all labels mirrors the AUC around 0.5.
        #[test]
        fn prop_auc_label_flip_mirrors(
            labels in prop::collection::vec(0u8..2, 2..80),
            seed in 0u64..1000,
        ) {
            let labels: Vec<f32> = labels.into_iter().map(f32::from).collect();
            let flipped: Vec<f32> = labels.iter().map(|&y| 1.0 - y).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let scores: Vec<f32> = (0..labels.len()).map(|_| rng.gen()).collect();
            let a = auc(&labels, &scores);
            let b = auc(&flipped, &scores);
            // Both degenerate single-class cases return exactly 0.5.
            prop_assert!((a + b - 1.0).abs() < 1e-9);
        }
    }
}
