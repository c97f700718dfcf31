//! The open objective layer: gradient boosting is objective-agnostic by
//! construction — every tree fits second-order pairs `(gᵢ, hᵢ)` (Eq. 1) —
//! so the loss is a plug-in point, not a hard-coded enum.
//!
//! Three pieces:
//!
//! * [`Objective`] — the object-safe trait: per-row or listwise gradient
//!   pairs, group count, label validation, data-derived base scores, score
//!   transform, and a preferred [`EvalMetric`].
//! * [`ObjectiveSpec`] — the serde-stable registry of named objective
//!   specs. This is what models and [`crate::TrainParams`] store (the field
//!   keeps its historical name `loss`, and the three original variants keep
//!   their exact serialized shape), what the CLI `--loss` strings parse
//!   into, and what [`ObjectiveSpec::build`] turns into a live objective.
//! * [`compute_gradients_group`] — the gradient-phase driver: the parallel
//!   chunked fill loop, the centralized Hessian floor, and the per-row
//!   weight/subsample scaling. Objectives return *raw* pairs; numerical
//!   protection is uniform and lives here, not in each impl.
//!
//! The split between [`RowWiseGrad`] and [`ListwiseGrad`] makes the old
//! "softmax panics in the scalar `grad` path" bug unrepresentable: grouped
//! and listwise objectives simply do not expose a scalar entry point, and
//! the driver dispatches on [`Objective::gradients`] instead of matching an
//! enum.
//!
//! Adding an objective (see DESIGN.md §12): implement [`Objective`] plus
//! one of the gradient traits, add a [`ObjectiveSpec`] variant with its
//! [`REGISTRY`] row, and wire `parse`/`name`/`build`. Everything else —
//! trainer, model persistence, CLI, eval — picks it up through the trait.

mod builtin;
mod ranking;
mod regression;

pub use builtin::{LogisticObjective, SoftmaxObjective, SquaredErrorObjective};
pub use ranking::LambdaRankObjective;
pub use regression::{HuberObjective, QuantileObjective, TweedieObjective};

use crate::loss::{GradPair, RowScaling};
use crate::trainer::EvalMetric;
use harp_parallel::ThreadPool;
use serde::{Deserialize, Serialize};

/// Uniform lower bound on every objective's Hessian, applied by the
/// gradient-phase driver. Leaf weights divide by `H + λ`; with `λ = 0` a
/// zero Hessian would blow up, so the floor protects every objective —
/// including user impls — without each one clamping ad hoc.
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
        fn param<T: std::str::FromStr>(
            arg: Option<&str>,
            default: T,
            what: &str,
        ) -> Result<T, String> {
            match arg {
                None => Ok(default),
                Some(a) => a.parse().map_err(|_| format!("bad {what} {a:?}")),
            }
        }
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

    /// Builds the live objective this spec names.
    ///
    /// # Panics
    /// Panics on an invalid spec; [`validate`](Self::validate) first (the
    /// trainer does, via `TrainParams::validate`).
    pub fn build(&self) -> Box<dyn Objective> {
        self.validate().expect("invalid objective spec");
        match *self {
            Self::Logistic => Box::new(LogisticObjective),
            Self::SquaredError => Box::new(SquaredErrorObjective),
            Self::Softmax { n_classes } => Box::new(SoftmaxObjective::new(n_classes)),
            Self::Quantile { alpha } => Box::new(QuantileObjective::new(alpha)),
            Self::Tweedie { power } => Box::new(TweedieObjective::new(power)),
            Self::Huber { delta } => Box::new(HuberObjective::new(delta)),
            Self::LambdaRank { k } => Box::new(LambdaRankObjective::new(k)),
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

    /// Converts one raw score to the response scale. Kept as a direct
    /// match (no boxing) because per-row prediction paths call it in a
    /// loop. Softmax rows need joint normalization — see
    /// [`transform_scores`](Self::transform_scores).
    #[inline]
    pub fn transform(self, raw: f32) -> f32 {
        match self {
            Self::Logistic => crate::loss::sigmoid(raw),
            Self::Tweedie { .. } => raw.exp(),
            _ => raw,
        }
    }

    /// Transforms a full row-major `n_rows × n_groups` raw-score buffer to
    /// the response scale through the built objective.
    pub fn transform_scores(self, raw: &[f32]) -> Vec<f32> {
        self.build().transform_scores(raw)
    }

    /// Per-group constant initial scores derived from the label
    /// distribution (log-odds for logistic, mean for squared error,
    /// per-class log priors for softmax, the empirical quantile/median for
    /// quantile/Huber, log-mean for Tweedie, zero for ranking).
    pub fn base_scores(self, labels: &[f32]) -> Vec<f32> {
        self.build().base_scores(labels)
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
        let obj = self.build();
        compute_gradients_group(
            obj.as_ref(),
            pool,
            preds,
            labels,
            None,
            0,
            &RowScaling::default(),
            out,
        );
    }
}

/// The object-safe objective trait: everything the trainer, the model, and
/// the CLI need from a loss function.
///
/// Implementations also implement exactly one of [`RowWiseGrad`] or
/// [`ListwiseGrad`] and surface it through [`gradients`](Self::gradients);
/// the driver dispatches on that, so a grouped or listwise objective has
/// no scalar gradient entry point to panic in.
pub trait Objective: Send + Sync {
    /// The registry spec that rebuilds this objective.
    fn spec(&self) -> ObjectiveSpec;

    /// Trees per boosting round (1 unless one-vs-all grouped, e.g.
    /// softmax).
    fn n_groups(&self) -> usize {
        1
    }

    /// Checks labels (and required metadata such as query-group sizes)
    /// before training or evaluation.
    ///
    /// # Errors
    /// Returns a user-facing message describing the first offending row or
    /// missing metadata.
    fn validate_data(&self, labels: &[f32], query_groups: Option<&[u32]>) -> Result<(), String>;

    /// Per-group constant initial raw scores minimizing the loss over
    /// `labels` — the data-derived base score of the ensemble.
    fn base_scores(&self, labels: &[f32]) -> Vec<f32>;

    /// Transforms a row-major `n_rows × n_groups` raw-score buffer to the
    /// response scale.
    fn transform_scores(&self, raw: &[f32]) -> Vec<f32>;

    /// The objective's preferred validation metric.
    fn default_metric(&self) -> EvalMetric;

    /// How this objective computes gradients: row-wise (each row's pair
    /// depends only on that row) or listwise (pairs couple across rows of
    /// a query group).
    fn gradients(&self) -> GradientFn<'_>;
}

/// The gradient path of an objective — the dispatch point that replaces
/// the old panicking scalar/grouped split.
pub enum GradientFn<'a> {
    /// Row-independent: the driver parallelizes over row chunks.
    RowWise(&'a dyn RowWiseGrad),
    /// Whole-buffer: pairs couple across rows (ranking); the driver hands
    /// the objective the full scope and post-processes uniformly.
    Listwise(&'a dyn ListwiseGrad),
}

/// Row-wise first/second-order gradients.
pub trait RowWiseGrad: Sync {
    /// The *raw* `(g, h)` pair of model group `group` for one row.
    /// `scores` is the row's per-group raw-score slice (length
    /// `n_groups`; scalar objectives read `scores[0]`). Do not clamp `h`
    /// or apply sample weights — the driver does both.
    fn grad(&self, scores: &[f32], label: f32, group: usize) -> GradPair;
}

/// Listwise gradients over query groups.
pub trait ListwiseGrad: Sync {
    /// Fills `out` (one pair per row) with raw gradients for the whole
    /// buffer. Rows are grouped consecutively per `scope.query_groups`.
    /// Do not clamp `h` or apply sample weights — the driver does both.
    fn grads(&self, scope: &GradScope<'_>, out: &mut [GradPair]);
}

/// Everything a listwise objective sees: predictions, labels, and the
/// consecutive query-group sizes.
pub struct GradScope<'a> {
    /// Raw scores, row-major `n_rows × n_groups` (`n_groups = 1` for every
    /// current listwise objective).
    pub preds: &'a [f32],
    /// One label per row (graded relevance for ranking).
    pub labels: &'a [f32],
    /// Consecutive group sizes summing to `labels.len()`.
    pub query_groups: &'a [u32],
}

/// Fills `out` with the gradient pairs of model group `group` for all
/// rows, in parallel — the gradient-phase driver.
///
/// `preds` is row-major `n_rows × n_groups`. The driver owns the numerical
/// post-processing every objective gets uniformly, in this order per row:
/// raw `(g, h)` from the objective, the [`HESSIAN_FLOOR`] clamp on `h`,
/// then the [`RowScaling`] weight/subsample scale (excluded rows carry
/// zero mass). Listwise objectives fill the whole buffer first
/// (`query_groups` required), then the same clamp+scale pass runs.
///
/// # Panics
/// Panics on shape mismatches, or for a listwise objective without query
/// groups.
#[allow(clippy::too_many_arguments)]
pub fn compute_gradients_group(
    objective: &dyn Objective,
    pool: &ThreadPool,
    preds: &[f32],
    labels: &[f32],
    query_groups: Option<&[u32]>,
    group: usize,
    scaling: &RowScaling<'_>,
    out: &mut [GradPair],
) {
    let groups = objective.n_groups();
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
    match objective.gradients() {
        GradientFn::RowWise(rw) => {
            parallel_rows(pool, out, |r, gp| {
                let row = &preds[r * groups..(r + 1) * groups];
                let mut pair = rw.grad(row, labels[r], group);
                pair[1] = pair[1].max(HESSIAN_FLOOR);
                let scale = scaling.scale(r);
                pair[0] *= scale;
                pair[1] *= scale;
                *gp = pair;
            });
        }
        GradientFn::Listwise(lw) => {
            let qg = query_groups.unwrap_or_else(|| {
                panic!(
                    "objective {:?} is listwise and needs query-group sizes \
                     (Dataset::with_query_groups)",
                    objective.spec().name()
                )
            });
            assert_eq!(
                qg.iter().map(|&s| s as usize).sum::<usize>(),
                n,
                "query-group sizes must sum to the row count"
            );
            lw.grads(&GradScope { preds, labels, query_groups: qg }, out);
            parallel_rows(pool, out, |r, gp| {
                let mut pair = *gp;
                pair[1] = pair[1].max(HESSIAN_FLOOR);
                let scale = scaling.scale(r);
                pair[0] *= scale;
                pair[1] *= scale;
                *gp = pair;
            });
        }
    }
}

/// The chunked parallel fill loop shared by both gradient paths. Chunk
/// geometry is unchanged from the pre-trait implementation so gradient
/// buffers stay bitwise identical.
fn parallel_rows(pool: &ThreadPool, out: &mut [GradPair], f: impl Fn(usize, &mut GradPair) + Sync) {
    let chunk = (out.len() / (pool.num_threads() * 4)).max(1024);
    let mut pieces: Vec<&mut [GradPair]> = out.chunks_mut(chunk).collect();
    pool.parallel_for_each_mut(&mut pieces, |c, piece, _| {
        let lo = c * chunk;
        for (i, gp) in piece.iter_mut().enumerate() {
            f(lo + i, gp);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::sigmoid;
    use crate::params::LossKind;

    fn pool() -> ThreadPool {
        ThreadPool::new(2)
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
        let rw = LogisticObjective;
        let [g, h] = rw.grad(&[0.0], 1.0, 0);
        assert!((g + 0.5).abs() < 1e-6);
        assert!((h - 0.25).abs() < 1e-6);
        let [g, _] = rw.grad(&[0.0], 0.0, 0);
        assert!((g - 0.5).abs() < 1e-6);
    }

    #[test]
    fn squared_gradients() {
        let [g, h] = SquaredErrorObjective.grad(&[3.0], 1.0, 0);
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
        let rw = LogisticObjective;
        for i in 0..n {
            let mut expect = rw.grad(&preds[i..=i], labels[i], 0);
            expect[1] = expect[1].max(HESSIAN_FLOOR);
            assert_eq!(par[i], expect, "row {i}");
        }
    }

    #[test]
    fn softmax_gradients_sum_to_zero_across_classes() {
        let pool = pool();
        let spec = LossKind::Softmax { n_classes: 3 };
        let obj = spec.build();
        let n = 50;
        let preds: Vec<f32> = (0..n * 3).map(|i| ((i * 31) % 17) as f32 / 5.0).collect();
        let labels: Vec<f32> = (0..n).map(|i| (i % 3) as f32).collect();
        let mut per_class = vec![vec![[0.0f32; 2]; n]; 3];
        for (c, out) in per_class.iter_mut().enumerate() {
            compute_gradients_group(
                obj.as_ref(),
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
        let obj = LossKind::Logistic.build();
        compute_gradients_group(obj.as_ref(), &pool, &preds, &labels, None, 0, &scaling, &mut out);
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

    /// A pathological objective whose raw Hessian is exactly zero — the
    /// driver's centralized floor must protect it (the satellite-2
    /// guarantee for user impls that never heard of the clamp).
    struct ZeroHessian;
    impl RowWiseGrad for ZeroHessian {
        fn grad(&self, scores: &[f32], label: f32, _group: usize) -> GradPair {
            [scores[0] - label, 0.0]
        }
    }
    impl Objective for ZeroHessian {
        fn spec(&self) -> ObjectiveSpec {
            ObjectiveSpec::SquaredError
        }
        fn validate_data(&self, _: &[f32], _: Option<&[u32]>) -> Result<(), String> {
            Ok(())
        }
        fn base_scores(&self, _: &[f32]) -> Vec<f32> {
            vec![0.0]
        }
        fn transform_scores(&self, raw: &[f32]) -> Vec<f32> {
            raw.to_vec()
        }
        fn default_metric(&self) -> EvalMetric {
            EvalMetric::Rmse
        }
        fn gradients(&self) -> GradientFn<'_> {
            GradientFn::RowWise(self)
        }
    }

    #[test]
    fn driver_floors_every_hessian() {
        let pool = pool();
        let n = 3000; // spans multiple parallel chunks
        let preds: Vec<f32> = (0..n).map(|i| i as f32 / 100.0).collect();
        let labels = vec![0.0f32; n];
        let mut out = vec![[0.0f32; 2]; n];
        compute_gradients_group(
            &ZeroHessian,
            &pool,
            &preds,
            &labels,
            None,
            0,
            &RowScaling::default(),
            &mut out,
        );
        for (i, gp) in out.iter().enumerate() {
            assert!(gp[1] >= HESSIAN_FLOOR, "row {i}: hessian {} below floor", gp[1]);
        }
    }

    #[test]
    fn floor_is_applied_before_row_scaling() {
        // A weighted row's floored hessian scales with the weight — the
        // clamp happens on the raw pair, then the scale multiplies, exactly
        // like the pre-trait logistic/softmax arithmetic.
        let pool = ThreadPool::new(1);
        let weights = [2.5f32];
        let scaling = RowScaling { weights: Some(&weights), subsample: 1.0, seed: 0 };
        let mut out = [[0.0f32; 2]; 1];
        compute_gradients_group(&ZeroHessian, &pool, &[1.0], &[0.0], None, 0, &scaling, &mut out);
        assert_eq!(out[0][1], HESSIAN_FLOOR * 2.5);
        assert_eq!(out[0][0], 2.5);
    }
}
