//! The objective layer: gradient boosting is objective-agnostic by
//! construction — every tree fits second-order pairs `(gᵢ, hᵢ)` (Eq. 1) —
//! and which loss produced them is one closed, serialized choice.
//!
//! Two pieces:
//!
//! * [`ObjectiveSpec`] — the objective itself. It is what models and
//!   [`crate::TrainParams`] store (the field keeps its historical name
//!   `loss`, and the three original variants keep their exact serialized
//!   shape) and what the CLI `--loss` strings parse into, and its methods
//!   are the one definition of each loss's label validation, base scores,
//!   score transform and default metric, one `match` arm per loss.
//! * [`compute_gradients_group`] — the gradient-phase driver and the one
//!   definition of each loss's gradients. It picks the loss's formula once
//!   per call, outside the row loop, runs the parallel chunked fill, and
//!   applies the centralized Hessian floor and the per-row weight/subsample
//!   scaling: the formulas give *raw* pairs, and numerical protection is
//!   uniform. Row-wise losses fill their pairs row by row; LambdaRank, whose
//!   pairs couple the rows of a query, fills the whole buffer first.
//!
//! Adding an objective (see DESIGN.md §12): an [`ObjectiveSpec`] variant, a
//! `parse` arm, a [`REGISTRY`] row, and the arms the compiler's exhaustive
//! `match`es ask for. Trainer, model persistence, CLI and eval need nothing
//! else.

mod ranking;
mod regression;

use crate::loss::{sigmoid, GradPair, RowScaling};
use crate::trainer::EvalMetric;
use harp_parallel::ThreadPool;
use serde::{Deserialize, Serialize};

/// Uniform lower bound on every objective's Hessian, applied by the
/// gradient-phase driver. Leaf weights divide by `H + λ`; with `λ = 0` a
/// zero Hessian would blow up, so the floor protects every objective
/// without each one clamping ad hoc.
pub const HESSIAN_FLOOR: f32 = 1e-16;

/// A named, serializable objective specification — the registry key that
/// round-trips through saved models and CLI `--loss` strings.
///
/// The historical name [`crate::LossKind`] is a type alias to this enum;
/// the first three variants keep their exact serialized representation so
/// models written before the objective layer existed still load.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ObjectiveSpec {
    /// Binary logistic regression (the paper's setting for all tasks).
    Logistic,
    /// Squared-error regression.
    SquaredError,
    /// Multiclass softmax: one tree per class per boosting round.
    Softmax {
        /// Number of classes (>= 2). Labels are class ids `0..n_classes`.
        n_classes: u32,
    },
    /// Quantile regression under the pinball loss: the model estimates the
    /// `alpha`-quantile of `y | x` instead of the mean.
    Quantile {
        /// Target quantile in `(0, 1)`; `0.5` is median regression.
        alpha: f32,
    },
    /// Tweedie regression for zero-inflated non-negative targets
    /// (compound Poisson–gamma, e.g. insurance claim amounts). Raw scores
    /// are log-means; predictions are `exp(raw)`.
    Tweedie {
        /// Variance power in `(1, 2)`: `→1` is Poisson-like, `→2`
        /// gamma-like.
        power: f32,
    },
    /// Huber (robust) regression: quadratic near zero, linear in the
    /// tails, so gross outliers contribute bounded gradients.
    Huber {
        /// Residual half-width of the quadratic region (> 0).
        delta: f32,
    },
    /// LambdaMART ranking: pairwise lambda gradients weighted by
    /// |ΔNDCG@k|, computed per query group. Requires query-group sizes on
    /// the training (and eval) data.
    LambdaRank {
        /// NDCG truncation depth (>= 1) for both gradients and the metric.
        k: u32,
    },
}

/// One row of the objective registry: the canonical `--loss` name, its
/// argument syntax, and a one-line summary for help text.
pub struct ObjectiveInfo {
    /// Canonical bare name, e.g. `"quantile"`.
    pub name: &'static str,
    /// Spec syntax, e.g. `"quantile:A"`.
    pub syntax: &'static str,
    /// One-line description for `--help`.
    pub summary: &'static str,
}

/// The registry of every named objective. CLI parsing, error messages, and
/// help text derive from this table, so the accepted-name list cannot
/// drift from the real set.
pub const REGISTRY: &[ObjectiveInfo] = &[
    ObjectiveInfo {
        name: "logistic",
        syntax: "logistic",
        summary: "binary logistic regression (labels 0/1; metric: AUC)",
    },
    ObjectiveInfo {
        name: "squared",
        syntax: "squared",
        summary: "squared-error regression (metric: RMSE)",
    },
    ObjectiveInfo {
        name: "softmax",
        syntax: "softmax:C",
        summary: "C-class softmax, one tree per class per round (metric: mlogloss)",
    },
    ObjectiveInfo {
        name: "quantile",
        syntax: "quantile:A",
        summary: "pinball-loss quantile regression at alpha A in (0,1) (metric: pinball)",
    },
    ObjectiveInfo {
        name: "tweedie",
        syntax: "tweedie:P",
        summary: "Tweedie regression, variance power P in (1,2) (metric: deviance)",
    },
    ObjectiveInfo {
        name: "huber",
        syntax: "huber:D",
        summary: "Huber robust regression with transition width D > 0 (metric: huber)",
    },
    ObjectiveInfo {
        name: "lambdarank",
        syntax: "lambdarank:K",
        summary: "LambdaMART ranking over query groups (metric: ndcg@K)",
    },
];

/// The `A|B|C` summary of accepted `--loss` syntaxes, derived from
/// [`REGISTRY`].
pub fn registry_names() -> String {
    REGISTRY.iter().map(|i| i.syntax).collect::<Vec<_>>().join("|")
}

/// Multi-line registry listing for `--help` output.
pub fn registry_help() -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for info in REGISTRY {
        let _ = writeln!(s, "  {:<14} {}", info.syntax, info.summary);
    }
    s
}

/// A spec's `:ARG` parsed as `T`, or `default` when there is none — the one
/// parameter rule of [`ObjectiveSpec::parse`] and
/// [`EvalMetric::parse`](crate::trainer::EvalMetric::parse).
pub(crate) fn param<T: std::str::FromStr>(
    arg: Option<&str>,
    default: T,
    what: &str,
) -> Result<T, String> {
    match arg {
        None => Ok(default),
        Some(a) => a.parse().map_err(|_| format!("bad {what} {a:?}")),
    }
}

impl ObjectiveSpec {
    /// Parses a spec string (`"logistic"`, `"softmax:4"`, `"quantile:0.9"`,
    /// `"tweedie:1.5"`, `"huber:2"`, `"lambdarank:10"`). Parameterized
    /// objectives accept a bare name with a conventional default
    /// (`quantile` → 0.5, `tweedie` → 1.5, `huber` → 1.0,
    /// `lambdarank` → 10).
    ///
    /// # Errors
    /// Returns a message listing the registry (derived from [`REGISTRY`],
    /// so it cannot drift) for unknown names, and a field-specific message
    /// for bad parameters.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (name, arg) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        let spec = match name {
            "logistic" if arg.is_none() => Self::Logistic,
            "squared" if arg.is_none() => Self::SquaredError,
            "softmax" => {
                let Some(a) = arg else {
                    return Err("softmax needs a class count (softmax:C)".into());
                };
                let n_classes =
                    a.parse().map_err(|_| format!("bad class count {a:?} in \"softmax:{a}\""))?;
                Self::Softmax { n_classes }
            }
            "quantile" => Self::Quantile { alpha: param(arg, 0.5, "quantile alpha")? },
            "tweedie" => Self::Tweedie { power: param(arg, 1.5, "tweedie power")? },
            "huber" => Self::Huber { delta: param(arg, 1.0, "huber delta")? },
            "lambdarank" => Self::LambdaRank { k: param(arg, 10, "ndcg truncation")? },
            _ => {
                return Err(format!("unknown loss {s:?} (expected {})", registry_names()));
            }
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The canonical spec string; `parse(name())` round-trips exactly
    /// (float parameters print with their shortest exact representation).
    pub fn name(&self) -> String {
        match *self {
            Self::Logistic => "logistic".into(),
            Self::SquaredError => "squared".into(),
            Self::Softmax { n_classes } => format!("softmax:{n_classes}"),
            Self::Quantile { alpha } => format!("quantile:{alpha}"),
            Self::Tweedie { power } => format!("tweedie:{power}"),
            Self::Huber { delta } => format!("huber:{delta}"),
            Self::LambdaRank { k } => format!("lambdarank:{k}"),
        }
    }

    /// Validates the spec's parameters.
    ///
    /// # Errors
    /// Returns a message describing the invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Self::Logistic | Self::SquaredError => Ok(()),
            Self::Softmax { n_classes } => {
                if n_classes < 2 {
                    Err("softmax needs at least 2 classes".into())
                } else {
                    Ok(())
                }
            }
            Self::Quantile { alpha } => {
                if alpha > 0.0 && alpha < 1.0 {
                    Ok(())
                } else {
                    Err(format!("quantile alpha must be in (0, 1), got {alpha}"))
                }
            }
            Self::Tweedie { power } => {
                if power > 1.0 && power < 2.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "tweedie power must be in (1, 2) (compound Poisson-gamma), got {power}"
                    ))
                }
            }
            Self::Huber { delta } => {
                if delta > 0.0 && delta.is_finite() {
                    Ok(())
                } else {
                    Err(format!("huber delta must be positive and finite, got {delta}"))
                }
            }
            Self::LambdaRank { k } => {
                if k >= 1 {
                    Ok(())
                } else {
                    Err("lambdarank truncation k must be >= 1".into())
                }
            }
        }
    }

    /// Checks labels (and the query-group sizes ranking needs) before
    /// training or evaluation.
    ///
    /// # Errors
    /// Returns a user-facing message naming the first offending row or the
    /// missing metadata.
    pub fn validate_data(self, labels: &[f32], query_groups: Option<&[u32]>) -> Result<(), String> {
        let check = |valid: &dyn Fn(f32) -> bool, rule: &str| match labels
            .iter()
            .enumerate()
            .find(|&(_, &y)| !valid(y))
        {
            Some((i, y)) => Err(format!("{rule}; row {i} has {y}")),
            None => Ok(()),
        };
        let non_negative = |y: f32| y.is_finite() && y >= 0.0;
        match self {
            Self::Logistic => {
                check(&|y| (0.0..=1.0).contains(&y), "logistic labels must lie in [0, 1]")
            }
            Self::SquaredError | Self::Quantile { .. } | Self::Huber { .. } => {
                check(&|y| y.is_finite(), "labels must be finite")
            }
            Self::Softmax { n_classes } => check(
                // `y as usize` saturates a negative id to class 0, so the
                // sign is checked first.
                &|y| non_negative(y) && y.fract() == 0.0 && (y as usize) < n_classes as usize,
                &format!("softmax labels must be class ids 0..{n_classes}"),
            ),
            Self::Tweedie { .. } => {
                check(&non_negative, "tweedie labels must be finite and non-negative")
            }
            Self::LambdaRank { .. } => {
                let Some(qg) = query_groups else {
                    return Err("lambdarank needs query-group sizes \
                                (Dataset::with_query_groups or --groups)"
                        .into());
                };
                let total: usize = qg.iter().map(|&s| s as usize).sum();
                if total != labels.len() {
                    return Err(format!(
                        "query-group sizes sum to {total} but the dataset has {} rows",
                        labels.len()
                    ));
                }
                check(&non_negative, "relevance labels must be finite and non-negative")
            }
        }
    }

    /// Number of parallel model groups (trees per boosting round): 1 for
    /// scalar objectives, `n_classes` for softmax.
    pub fn n_groups(self) -> usize {
        match self {
            Self::Softmax { n_classes } => n_classes as usize,
            _ => 1,
        }
    }

    /// The objective's preferred validation metric.
    pub fn default_metric(self) -> EvalMetric {
        match self {
            Self::Logistic => EvalMetric::Auc,
            Self::SquaredError => EvalMetric::Rmse,
            Self::Softmax { .. } => EvalMetric::MulticlassLogLoss,
            Self::Quantile { alpha } => EvalMetric::Pinball { alpha },
            Self::Tweedie { power } => EvalMetric::TweedieDeviance { power },
            Self::Huber { delta } => EvalMetric::HuberLoss { delta },
            Self::LambdaRank { k } => EvalMetric::NdcgAt { k },
        }
    }

    /// Converts one raw score to the response scale; per-row prediction
    /// paths call it in a loop. Softmax rows need joint normalization — see
    /// [`transform_scores`](Self::transform_scores).
    #[inline]
    pub fn transform(self, raw: f32) -> f32 {
        match self {
            Self::Logistic => sigmoid(raw),
            Self::Tweedie { .. } => raw.exp(),
            _ => raw,
        }
    }

    /// Transforms a full row-major `n_rows × n_groups` raw-score buffer to
    /// the response scale: [`transform`](Self::transform) per score, except
    /// that softmax normalizes each row of class scores jointly.
    pub fn transform_scores(self, raw: &[f32]) -> Vec<f32> {
        let Self::Softmax { n_classes } = self else {
            return raw.iter().map(|&s| self.transform(s)).collect();
        };
        let c = n_classes as usize;
        assert_eq!(raw.len() % c, 0, "raw score buffer not divisible by class count");
        let mut out = Vec::with_capacity(raw.len());
        for row in raw.chunks_exact(c) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = row.iter().map(|&s| (s - max).exp()).collect();
            let sum: f32 = exps.iter().sum();
            out.extend(exps.iter().map(|&e| e / sum));
        }
        out
    }

    /// Per-group constant initial raw scores minimizing the loss over
    /// `labels` — the data-derived base score of the ensemble: log-odds for
    /// logistic, mean for squared error, per-class log priors for softmax,
    /// the empirical quantile/median for quantile/Huber, log-mean for
    /// Tweedie, zero for ranking (and for every scalar loss on no labels).
    pub fn base_scores(self, labels: &[f32]) -> Vec<f32> {
        let mean = || labels.iter().sum::<f32>() / labels.len() as f32;
        match self {
            Self::Softmax { n_classes } => {
                let c = n_classes as usize;
                let mut counts = vec![0usize; c];
                for &y in labels {
                    let idx = y as usize;
                    assert!(idx < c, "label {y} out of range for {c} classes");
                    counts[idx] += 1;
                }
                let n = labels.len().max(1) as f32;
                counts.into_iter().map(|cnt| ((cnt as f32 / n).max(1e-6)).ln()).collect()
            }
            _ if labels.is_empty() => vec![0.0],
            Self::Logistic => {
                let p = mean().clamp(1e-6, 1.0 - 1e-6);
                vec![(p / (1.0 - p)).ln()]
            }
            Self::SquaredError => vec![mean()],
            Self::Quantile { alpha } => vec![regression::empirical_quantile(labels, alpha)],
            Self::Tweedie { .. } => vec![mean().max(1e-6).ln()],
            // The median minimizes the Huber loss in the linear regime and
            // is near-optimal in the quadratic one — and it is
            // outlier-robust, which is the point of this objective.
            Self::Huber { .. } => vec![regression::empirical_quantile(labels, 0.5)],
            // Ranking scores are translation-invariant.
            Self::LambdaRank { .. } => vec![0.0],
        }
    }

    /// Convenience: fills `out` with unweighted gradient pairs for a
    /// scalar row-wise objective (group 0, no subsampling). See
    /// [`compute_gradients_group`].
    ///
    /// # Panics
    /// Panics on shape mismatches or if the objective is listwise (no
    /// query groups are available through this entry point).
    pub fn compute_gradients(
        self,
        pool: &ThreadPool,
        preds: &[f32],
        labels: &[f32],
        out: &mut [GradPair],
    ) {
        compute_gradients_group(self, pool, preds, labels, None, 0, &RowScaling::default(), out);
    }
}

/// Fills `out` with the gradient pairs of model group `group` for all
/// rows, in parallel — the gradient-phase driver.
///
/// `preds` is row-major `n_rows × n_groups`. The driver owns the numerical
/// post-processing every objective gets uniformly, in this order per row:
/// raw `(g, h)` from the objective, the [`HESSIAN_FLOOR`] clamp on `h`,
/// then the [`RowScaling`] weight/subsample scale (excluded rows carry
/// zero mass). LambdaRank fills the whole buffer first (`query_groups`
/// required), then the same clamp+scale pass runs.
///
/// # Panics
/// Panics on shape mismatches, or for LambdaRank without query groups.
#[allow(clippy::too_many_arguments)]
pub fn compute_gradients_group(
    spec: ObjectiveSpec,
    pool: &ThreadPool,
    preds: &[f32],
    labels: &[f32],
    query_groups: Option<&[u32]>,
    group: usize,
    scaling: &RowScaling<'_>,
    out: &mut [GradPair],
) {
    let groups = spec.n_groups();
    assert!(group < groups, "group {group} out of range");
    assert_eq!(preds.len(), labels.len() * groups, "preds shape mismatch");
    assert_eq!(labels.len(), out.len(), "labels/out length mismatch");
    if let Some(w) = scaling.weights {
        assert_eq!(w.len(), labels.len(), "weights length mismatch");
    }
    let n = labels.len();
    if n == 0 {
        return;
    }
    // Every arm but softmax's has one score per row, `preds[r]`.
    match spec {
        ObjectiveSpec::Logistic => fill_rows(pool, scaling, out, |r, _| {
            let p = sigmoid(preds[r]);
            [p - labels[r], p * (1.0 - p)]
        }),
        ObjectiveSpec::SquaredError => {
            fill_rows(pool, scaling, out, |r, _| [preds[r] - labels[r], 1.0])
        }
        ObjectiveSpec::Softmax { .. } => fill_rows(pool, scaling, out, |r, _| {
            let scores = &preds[r * groups..(r + 1) * groups];
            let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let sum: f32 = scores.iter().map(|&s| (s - max).exp()).sum();
            let p = (scores[group] - max).exp() / sum;
            let y = if labels[r] as usize == group { 1.0 } else { 0.0 };
            // The conventional 2x hessian scaling of softmax boosting
            // (matches XGBoost/LightGBM).
            [p - y, 2.0 * p * (1.0 - p)]
        }),
        // Pinball loss `(α - 1[y < s]) · (y - s)`: piecewise linear, so a
        // unit stand-in Hessian turns the Newton step into a damped
        // gradient step (the standard GBDT treatment).
        ObjectiveSpec::Quantile { alpha } => fill_rows(pool, scaling, out, |r, _| {
            [if preds[r] >= labels[r] { 1.0 - alpha } else { -alpha }, 1.0]
        }),
        // Deviance in the log-mean `s` (constant 2 dropped):
        // `g = -y·e^{(1-p)s} + e^{(2-p)s}`,
        // `h = (p-1)·y·e^{(1-p)s} + (2-p)·e^{(2-p)s}` — both terms positive
        // on valid data, the XGBoost/LightGBM convention.
        ObjectiveSpec::Tweedie { power: rho } => fill_rows(pool, scaling, out, |r, _| {
            let (s, y) = (preds[r], labels[r]);
            let e1 = ((1.0 - rho) * s).exp();
            let e2 = ((2.0 - rho) * s).exp();
            [-y * e1 + e2, (rho - 1.0) * y * e1 + (2.0 - rho) * e2]
        }),
        // Residuals beyond `±delta` contribute a bounded gradient; the tail
        // second derivative is zero, so like quantile a unit Hessian.
        ObjectiveSpec::Huber { delta } => {
            fill_rows(pool, scaling, out, |r, _| [(preds[r] - labels[r]).clamp(-delta, delta), 1.0])
        }
        ObjectiveSpec::LambdaRank { k } => {
            let qg = query_groups.unwrap_or_else(|| {
                panic!(
                    "objective {:?} is listwise and needs query-group sizes \
                     (Dataset::with_query_groups)",
                    spec.name()
                )
            });
            assert_eq!(
                qg.iter().map(|&s| s as usize).sum::<usize>(),
                n,
                "query-group sizes must sum to the row count"
            );
            ranking::lambdarank_grads(k as usize, preds, labels, qg, out);
            fill_rows(pool, scaling, out, |_, pair| pair);
        }
    }
}

/// The chunked parallel fill loop: row `r`'s raw pair is `raw(r, out[r])`,
/// then the [`HESSIAN_FLOOR`] clamp, then the row scale. Each row's pair
/// depends only on that row, so the chunking cannot change a bit.
fn fill_rows(
    pool: &ThreadPool,
    scaling: &RowScaling<'_>,
    out: &mut [GradPair],
    raw: impl Fn(usize, GradPair) -> GradPair + Sync,
) {
    let chunk = (out.len() / (pool.num_threads() * 4)).max(1024);
    let mut pieces: Vec<&mut [GradPair]> = out.chunks_mut(chunk).collect();
    pool.parallel_for_each_mut(&mut pieces, |c, piece, _| {
        let lo = c * chunk;
        for (i, gp) in piece.iter_mut().enumerate() {
            let r = lo + i;
            let mut pair = raw(r, *gp);
            pair[1] = pair[1].max(HESSIAN_FLOOR);
            let scale = scaling.scale(r);
            pair[0] *= scale;
            pair[1] *= scale;
            *gp = pair;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::LossKind;

    fn pool() -> ThreadPool {
        ThreadPool::new(2)
    }

    /// The pair the driver gives one row of `scores` (one per group) at
    /// `label`, unweighted.
    pub(super) fn one_row(
        spec: ObjectiveSpec,
        scores: &[f32],
        label: f32,
        group: usize,
    ) -> GradPair {
        let mut out = [[0.0f32; 2]; 1];
        let pool = ThreadPool::new(1);
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

    #[test]
    fn registry_covers_every_variant() {
        // Each registry row parses to a distinct variant, and every
        // variant's canonical name parses back to itself.
        for spec in all_specs() {
            let back = ObjectiveSpec::parse(&spec.name())
                .unwrap_or_else(|e| panic!("{} must parse: {e}", spec.name()));
            assert_eq!(back, spec, "parse(name()) must round-trip");
        }
        assert_eq!(REGISTRY.len(), all_specs().len(), "one registry row per variant");
    }

    fn all_specs() -> Vec<ObjectiveSpec> {
        vec![
            ObjectiveSpec::Logistic,
            ObjectiveSpec::SquaredError,
            ObjectiveSpec::Softmax { n_classes: 3 },
            ObjectiveSpec::Quantile { alpha: 0.9 },
            ObjectiveSpec::Tweedie { power: 1.5 },
            ObjectiveSpec::Huber { delta: 2.0 },
            ObjectiveSpec::LambdaRank { k: 10 },
        ]
    }

    #[test]
    fn parse_rejections_name_the_registry() {
        let err = ObjectiveSpec::parse("hinge").unwrap_err();
        for info in REGISTRY {
            assert!(err.contains(info.syntax), "error must list {}: {err}", info.syntax);
        }
        assert!(ObjectiveSpec::parse("softmax:x").is_err());
        assert!(ObjectiveSpec::parse("softmax").is_err(), "softmax needs a class count");
        assert!(ObjectiveSpec::parse("quantile:1.5").is_err(), "alpha out of range");
        assert!(ObjectiveSpec::parse("tweedie:2.5").is_err(), "power out of range");
        assert!(ObjectiveSpec::parse("huber:-1").is_err(), "delta must be positive");
        assert!(ObjectiveSpec::parse("lambdarank:0").is_err(), "k must be >= 1");
        assert!(ObjectiveSpec::parse("logistic:1").is_err(), "logistic takes no parameter");
    }

    #[test]
    fn bare_parameterized_names_use_defaults() {
        assert_eq!(
            ObjectiveSpec::parse("quantile").unwrap(),
            ObjectiveSpec::Quantile { alpha: 0.5 }
        );
        assert_eq!(ObjectiveSpec::parse("tweedie").unwrap(), ObjectiveSpec::Tweedie { power: 1.5 });
        assert_eq!(ObjectiveSpec::parse("huber").unwrap(), ObjectiveSpec::Huber { delta: 1.0 });
        assert_eq!(
            ObjectiveSpec::parse("lambdarank").unwrap(),
            ObjectiveSpec::LambdaRank { k: 10 }
        );
    }

    #[test]
    fn logistic_gradients() {
        // At pred 0 (p = 0.5): g = 0.5 - y, h = 0.25.
        let [g, h] = one_row(LossKind::Logistic, &[0.0], 1.0, 0);
        assert!((g + 0.5).abs() < 1e-6);
        assert!((h - 0.25).abs() < 1e-6);
        let [g, _] = one_row(LossKind::Logistic, &[0.0], 0.0, 0);
        assert!((g - 0.5).abs() < 1e-6);
    }

    #[test]
    fn squared_gradients() {
        let [g, h] = one_row(LossKind::SquaredError, &[3.0], 1.0, 0);
        assert_eq!(g, 2.0);
        assert_eq!(h, 1.0);
    }

    #[test]
    fn base_score_logistic_is_log_odds() {
        let labels = [1.0, 1.0, 1.0, 0.0];
        let b = LossKind::Logistic.base_scores(&labels)[0];
        assert!((sigmoid(b) - 0.75).abs() < 1e-5);
    }

    #[test]
    fn base_score_squared_is_mean() {
        assert!((LossKind::SquaredError.base_scores(&[1.0, 2.0, 6.0])[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn parallel_gradients_match_serial() {
        let pool = ThreadPool::new(4);
        let n = 10_000;
        let preds: Vec<f32> = (0..n).map(|i| (i as f32 / 777.0).sin()).collect();
        let labels: Vec<f32> = (0..n).map(|i| (i % 2) as f32).collect();
        let mut par = vec![[0.0f32; 2]; n];
        LossKind::Logistic.compute_gradients(&pool, &preds, &labels, &mut par);
        for i in 0..n {
            let p = sigmoid(preds[i]);
            let expect = [p - labels[i], (p * (1.0 - p)).max(HESSIAN_FLOOR)];
            assert_eq!(par[i], expect, "row {i}");
        }
    }

    #[test]
    fn softmax_gradients_sum_to_zero_across_classes() {
        let pool = pool();
        let spec = LossKind::Softmax { n_classes: 3 };
        let n = 50;
        let preds: Vec<f32> = (0..n * 3).map(|i| ((i * 31) % 17) as f32 / 5.0).collect();
        let labels: Vec<f32> = (0..n).map(|i| (i % 3) as f32).collect();
        let mut per_class = vec![vec![[0.0f32; 2]; n]; 3];
        for (c, out) in per_class.iter_mut().enumerate() {
            compute_gradients_group(
                spec,
                &pool,
                &preds,
                &labels,
                None,
                c,
                &RowScaling::default(),
                out,
            );
        }
        for r in 0..n {
            let g_sum: f32 = per_class.iter().map(|grads| grads[r][0]).sum();
            assert!(g_sum.abs() < 1e-5, "row {r}: class gradients sum to {g_sum}");
            for grads in &per_class {
                assert!(grads[r][1] > 0.0, "hessian must be positive");
            }
        }
    }

    #[test]
    fn softmax_base_scores_are_log_priors() {
        let spec = LossKind::Softmax { n_classes: 3 };
        let labels = [0.0, 0.0, 1.0, 2.0];
        let b = spec.base_scores(&labels);
        assert_eq!(b.len(), 3);
        assert!((b[0] - 0.5f32.ln()).abs() < 1e-6);
        assert!((b[1] - 0.25f32.ln()).abs() < 1e-6);
    }

    #[test]
    fn transform_scores_softmax_rows_normalize() {
        let spec = LossKind::Softmax { n_classes: 3 };
        let raw = [1.0f32, 2.0, 3.0, -1.0, 0.0, 1.0];
        let p = spec.transform_scores(&raw);
        for row in p.chunks_exact(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row[2] > row[1] && row[1] > row[0], "monotone in raw score");
        }
    }

    #[test]
    fn row_scaling_weights_scale_gradients() {
        let pool = ThreadPool::new(1);
        let preds = [0.0f32, 0.0];
        let labels = [1.0f32, 1.0];
        let weights = [1.0f32, 3.0];
        let mut out = [[0.0f32; 2]; 2];
        let scaling = RowScaling { weights: Some(&weights), subsample: 1.0, seed: 0 };
        compute_gradients_group(
            LossKind::Logistic,
            &pool,
            &preds,
            &labels,
            None,
            0,
            &scaling,
            &mut out,
        );
        assert!((out[1][0] / out[0][0] - 3.0).abs() < 1e-6);
        assert!((out[1][1] / out[0][1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn hessian_never_zero() {
        // Extreme predictions must not produce a zero hessian (division by
        // H + λ could otherwise blow up with λ = 0).
        let pool = ThreadPool::new(1);
        let mut out = [[0.0f32; 2]; 1];
        LossKind::Logistic.compute_gradients(&pool, &[100.0], &[1.0], &mut out);
        assert!(out[0][1] > 0.0);
    }

    // Logistic at a saturated score has a raw Hessian of exactly zero:
    // `sigmoid(100.0)` is 1.0 in f32, so `p · (1 − p)` is 0.

    #[test]
    fn driver_floors_every_hessian() {
        let pool = pool();
        let n = 3000; // spans multiple parallel chunks
        let preds: Vec<f32> = (0..n).map(|i| 100.0 + i as f32 / 100.0).collect();
        let labels = vec![0.0f32; n];
        let mut out = vec![[0.0f32; 2]; n];
        LossKind::Logistic.compute_gradients(&pool, &preds, &labels, &mut out);
        for (i, gp) in out.iter().enumerate() {
            assert!(gp[1] >= HESSIAN_FLOOR, "row {i}: hessian {} below floor", gp[1]);
        }
    }

    #[test]
    fn floor_is_applied_before_row_scaling() {
        // A weighted row's floored hessian scales with the weight — the
        // clamp happens on the raw pair, then the scale multiplies.
        let pool = ThreadPool::new(1);
        let weights = [2.5f32];
        let scaling = RowScaling { weights: Some(&weights), subsample: 1.0, seed: 0 };
        let mut out = [[0.0f32; 2]; 1];
        compute_gradients_group(
            LossKind::Logistic,
            &pool,
            &[100.0],
            &[0.0],
            None,
            0,
            &scaling,
            &mut out,
        );
        assert_eq!(out[0][1], HESSIAN_FLOOR * 2.5);
        assert_eq!(out[0][0], 2.5);
    }
}
