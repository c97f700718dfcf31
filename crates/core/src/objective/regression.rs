//! The empirical quantile behind the quantile and Huber base scores, and
//! the behaviour tests of the three robust/skewed regression losses:
//! quantile (pinball), Tweedie (zero-inflated non-negative targets) and
//! Huber (outlier-robust).

/// Empirical `alpha`-quantile by sorting (nearest-rank); 0 on empty input.
pub(super) fn empirical_quantile(labels: &[f32], alpha: f32) -> f32 {
    if labels.is_empty() {
        return 0.0;
    }
    let mut sorted = labels.to_vec();
    sorted.sort_by(f32::total_cmp);
    let rank = ((alpha as f64) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::super::tests::one_row;
    use super::super::ObjectiveSpec;

    #[test]
    fn quantile_base_is_empirical_quantile() {
        let labels: Vec<f32> = (0..101).map(|i| i as f32).collect();
        assert_eq!(ObjectiveSpec::Quantile { alpha: 0.9 }.base_scores(&labels)[0], 90.0);
        assert_eq!(ObjectiveSpec::Huber { delta: 1.0 }.base_scores(&labels)[0], 50.0);
    }

    #[test]
    fn quantile_gradient_signs() {
        let q = ObjectiveSpec::Quantile { alpha: 0.9 };
        // Under-prediction should be pulled up hard (g = -0.9), over-
        // prediction pushed down gently (g = 0.1).
        assert_eq!(one_row(q, &[0.0], 1.0, 0)[0], -0.9);
        assert!((one_row(q, &[2.0], 1.0, 0)[0] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn tweedie_gradient_zero_at_optimum() {
        // At s = ln(y), μ = y and the deviance gradient vanishes.
        let y = 3.7f32;
        let [g, h] = one_row(ObjectiveSpec::Tweedie { power: 1.5 }, &[y.ln()], y, 0);
        assert!(g.abs() < 1e-5, "g = {g}");
        assert!(h > 0.0);
    }

    #[test]
    fn huber_gradient_is_bounded() {
        let hu = ObjectiveSpec::Huber { delta: 2.0 };
        assert_eq!(one_row(hu, &[100.0], 0.0, 0)[0], 2.0);
        assert_eq!(one_row(hu, &[-100.0], 0.0, 0)[0], -2.0);
        assert_eq!(one_row(hu, &[1.0], 0.0, 0)[0], 1.0);
    }

    #[test]
    fn tweedie_rejects_negative_labels() {
        let t = ObjectiveSpec::Tweedie { power: 1.5 };
        assert!(t.validate_data(&[1.0, -0.5], None).is_err());
        assert!(t.validate_data(&[0.0, 2.5], None).is_ok());
    }
}
