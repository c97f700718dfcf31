//! The validation metric table: [`EvalMetric`] names, parses, checks and
//! computes every metric the trainer's eval set and the CLI's `eval` report.

use crate::objective::{param, ObjectiveSpec};

/// Validation metric for the eval set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvalMetric {
    /// Area under the ROC curve (higher is better). Binary only.
    Auc,
    /// Binary cross-entropy (lower is better).
    LogLoss,
    /// Root mean squared error (lower is better).
    Rmse,
    /// Binary error rate at the 0.5 probability threshold (lower is better).
    Error,
    /// Multiclass cross-entropy (lower is better). Softmax only.
    MulticlassLogLoss,
    /// Multiclass argmax error rate (lower is better). Softmax only.
    MulticlassError,
    /// Pinball (quantile) loss at `alpha` (lower is better).
    Pinball {
        /// Target quantile in `(0, 1)`.
        alpha: f32,
    },
    /// Mean Tweedie deviance at variance power `power` (lower is better).
    TweedieDeviance {
        /// Variance power in `(1, 2)`.
        power: f32,
    },
    /// Mean Huber loss with transition width `delta` (lower is better).
    HuberLoss {
        /// Quadratic/linear transition width.
        delta: f32,
    },
    /// Mean NDCG truncated at `k` over query groups (higher is better).
    /// Requires the eval dataset to carry query-group sizes.
    NdcgAt {
        /// Truncation depth.
        k: u32,
    },
}

impl EvalMetric {
    /// Parses a metric name: `auc`, `logloss`, `rmse`, `error`,
    /// `pinball[:A]` (or `quantile[:A]`), `tweedie[:P]`, `huber[:D]` or
    /// `ndcg[:K]`. `logloss` and `error` name the multiclass metrics on a
    /// softmax `objective`, and a bare parameterized name takes its
    /// parameter from a matching `objective` (`pinball` on `quantile:0.9`
    /// scores at 0.9), else a conventional default.
    ///
    /// # Errors
    /// Returns a message for an unknown name or a bad parameter. Whether the
    /// metric fits the objective is [`check`](Self::check)'s question.
    pub fn parse(s: &str, objective: ObjectiveSpec) -> Result<Self, String> {
        let (name, arg) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        let multiclass = objective.n_groups() > 1;
        Ok(match (name, arg) {
            ("auc", None) => Self::Auc,
            ("rmse", None) => Self::Rmse,
            ("logloss", None) if multiclass => Self::MulticlassLogLoss,
            ("logloss", None) => Self::LogLoss,
            ("error", None) if multiclass => Self::MulticlassError,
            ("error", None) => Self::Error,
            ("pinball" | "quantile", _) => {
                let d = if let ObjectiveSpec::Quantile { alpha } = objective { alpha } else { 0.5 };
                Self::Pinball { alpha: param(arg, d, "pinball alpha")? }
            }
            ("tweedie", _) => {
                let d = if let ObjectiveSpec::Tweedie { power } = objective { power } else { 1.5 };
                Self::TweedieDeviance { power: param(arg, d, "tweedie power")? }
            }
            ("huber", _) => {
                let d = if let ObjectiveSpec::Huber { delta } = objective { delta } else { 1.0 };
                Self::HuberLoss { delta: param(arg, d, "huber delta")? }
            }
            ("ndcg", _) => {
                let d = if let ObjectiveSpec::LambdaRank { k } = objective { k } else { 10 };
                Self::NdcgAt { k: param(arg, d, "ndcg truncation")? }
            }
            _ => {
                return Err(format!(
                    "unknown metric {s:?} (auto|auc|logloss|rmse|error|pinball[:A]|tweedie[:P]|huber[:D]|ndcg[:K])"
                ))
            }
        })
    }

    /// The metrics `eval --metric auto` reports for `objective`: AUC,
    /// log-loss and error for logistic, both multiclass metrics for
    /// softmax, the objective's default metric otherwise.
    pub fn auto(objective: ObjectiveSpec) -> Vec<Self> {
        match objective {
            ObjectiveSpec::Logistic => vec![Self::Auc, Self::LogLoss, Self::Error],
            ObjectiveSpec::Softmax { .. } => vec![Self::MulticlassLogLoss, Self::MulticlassError],
            _ => vec![objective.default_metric()],
        }
    }

    /// Whether larger values of this metric are better.
    pub fn higher_is_better(self) -> bool {
        matches!(self, EvalMetric::Auc | EvalMetric::NdcgAt { .. })
    }

    /// Short stable name for reports and ledgers (e.g. `"auc"`,
    /// `"pinball@0.9"`, `"ndcg@10"`).
    pub fn name(self) -> String {
        match self {
            EvalMetric::Auc => "auc".into(),
            EvalMetric::LogLoss => "logloss".into(),
            EvalMetric::Rmse => "rmse".into(),
            EvalMetric::Error => "error".into(),
            EvalMetric::MulticlassLogLoss => "mlogloss".into(),
            EvalMetric::MulticlassError => "merror".into(),
            EvalMetric::Pinball { alpha } => format!("pinball@{alpha}"),
            EvalMetric::TweedieDeviance { power } => format!("tweedie-deviance@{power}"),
            EvalMetric::HuberLoss { delta } => format!("huber@{delta}"),
            EvalMetric::NdcgAt { k } => format!("ndcg@{k}"),
        }
    }

    /// Whether the metric can score `eval_rows` rows of `objective`'s
    /// scores: every metric needs a row; the multiclass metrics need a
    /// softmax objective and every other one a single score per row;
    /// `ndcg@k` needs query groups and `k >= 1`; a parameter must lie in
    /// its metric's range. [`compute`](Self::compute) does not panic on a
    /// metric that passes, given labels the objective's `validate_data`
    /// accepts.
    ///
    /// # Errors
    /// Returns a message naming the metric and the rule it breaks.
    pub fn check(
        self,
        objective: ObjectiveSpec,
        eval_rows: usize,
        has_query_groups: bool,
    ) -> Result<(), String> {
        let name = self.name();
        let groups = objective.n_groups();
        let multiclass = matches!(self, Self::MulticlassLogLoss | Self::MulticlassError);
        let broken = if eval_rows == 0 {
            "it needs at least one eval row".to_string()
        } else if multiclass && groups < 2 {
            format!(
                "it needs a softmax objective, but {} scores one value per row",
                objective.name()
            )
        } else if !multiclass && groups != 1 {
            format!("it needs one score per row, but {} scores {groups}", objective.name())
        } else {
            match self {
                Self::NdcgAt { .. } if !has_query_groups => "it needs query-group sizes on the \
                    eval data (Dataset::with_query_groups or --groups)"
                    .into(),
                Self::NdcgAt { k: 0 } => "its truncation k must be >= 1".into(),
                Self::Pinball { alpha } if !(alpha > 0.0 && alpha < 1.0) => {
                    "its alpha must be in (0, 1)".into()
                }
                Self::TweedieDeviance { power } if !(power > 1.0 && power < 2.0) => {
                    "its power must be in (1, 2)".into()
                }
                Self::HuberLoss { delta } if delta.is_nan() || delta <= 0.0 => {
                    "its delta must be positive".into()
                }
                _ => return Ok(()),
            }
        };
        Err(format!("metric {name} does not fit: {broken}"))
    }

    /// Whether the metric can score these labels, once [`check`](Self::check)
    /// has passed: the multiclass metrics need every label to be a class id
    /// of the softmax objective (the rule its `validate_data` applies to
    /// training labels); every other metric scores any label.
    ///
    /// # Errors
    /// Returns a message naming the metric and the first label that is not a
    /// class id.
    pub fn check_labels(self, objective: ObjectiveSpec, labels: &[f32]) -> Result<(), String> {
        match self {
            Self::MulticlassLogLoss | Self::MulticlassError => objective
                .validate_data(labels, None)
                .map_err(|e| format!("metric {} does not fit: {e}", self.name())),
            _ => Ok(()),
        }
    }

    /// Computes the metric from row-major raw scores (`n_rows × n_groups`).
    /// `query_groups` carries consecutive group sizes for ranking metrics
    /// (ignored by the others).
    ///
    /// # Panics
    /// Panics where [`check`](Self::check) or
    /// [`check_labels`](Self::check_labels) would return an error.
    pub fn compute(
        self,
        labels: &[f32],
        raw: &[f32],
        objective: ObjectiveSpec,
        query_groups: Option<&[u32]>,
    ) -> f64 {
        let groups = objective.n_groups();
        let response = || objective.transform_scores(raw);
        match self {
            EvalMetric::Auc => harp_metrics::auc(labels, raw),
            EvalMetric::LogLoss => harp_metrics::log_loss(labels, &response()),
            EvalMetric::Rmse => harp_metrics::rmse(labels, raw),
            EvalMetric::Error => harp_metrics::error_rate(labels, &response()),
            EvalMetric::MulticlassLogLoss => {
                harp_metrics::multiclass_log_loss(labels, &response(), groups)
            }
            EvalMetric::MulticlassError => harp_metrics::multiclass_error(labels, raw, groups),
            EvalMetric::Pinball { alpha } => harp_metrics::pinball_loss(labels, raw, alpha),
            EvalMetric::TweedieDeviance { power } => {
                harp_metrics::tweedie_deviance(labels, &response(), power)
            }
            EvalMetric::HuberLoss { delta } => harp_metrics::huber_loss(labels, raw, delta),
            EvalMetric::NdcgAt { k } => {
                let qg = query_groups.expect("checked: ndcg@k has query groups");
                harp_metrics::ndcg_at_k(labels, raw, qg, k as usize)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::EvalMetric::{self, *};
    use crate::objective::ObjectiveSpec::{self, *};

    /// Every spelling the CLI's `eval --metric` takes, with the defaults it
    /// takes from the objective.
    #[test]
    fn parse_takes_every_cli_spelling_and_the_objective_defaults() {
        let cases: [(&str, ObjectiveSpec, EvalMetric); 24] = [
            ("auc", Logistic, Auc),
            ("logloss", Logistic, LogLoss),
            ("logloss", Softmax { n_classes: 3 }, MulticlassLogLoss),
            ("rmse", SquaredError, Rmse),
            ("error", Logistic, Error),
            ("error", Softmax { n_classes: 3 }, MulticlassError),
            ("pinball", Quantile { alpha: 0.9 }, Pinball { alpha: 0.9 }),
            ("pinball", Logistic, Pinball { alpha: 0.5 }),
            ("pinball:0.25", Quantile { alpha: 0.9 }, Pinball { alpha: 0.25 }),
            ("quantile", Quantile { alpha: 0.1 }, Pinball { alpha: 0.1 }),
            ("quantile", SquaredError, Pinball { alpha: 0.5 }),
            ("quantile:0.75", Logistic, Pinball { alpha: 0.75 }),
            ("tweedie", Tweedie { power: 1.3 }, TweedieDeviance { power: 1.3 }),
            ("tweedie", SquaredError, TweedieDeviance { power: 1.5 }),
            ("tweedie:1.7", Tweedie { power: 1.3 }, TweedieDeviance { power: 1.7 }),
            ("huber", Huber { delta: 2.0 }, HuberLoss { delta: 2.0 }),
            ("huber", SquaredError, HuberLoss { delta: 1.0 }),
            ("huber:0.5", Huber { delta: 2.0 }, HuberLoss { delta: 0.5 }),
            ("ndcg", LambdaRank { k: 5 }, NdcgAt { k: 5 }),
            ("ndcg", Logistic, NdcgAt { k: 10 }),
            ("ndcg:3", LambdaRank { k: 5 }, NdcgAt { k: 3 }),
            ("auc", Softmax { n_classes: 3 }, Auc),
            ("rmse", Softmax { n_classes: 3 }, Rmse),
            ("pinball:0.5", Softmax { n_classes: 3 }, Pinball { alpha: 0.5 }),
        ];
        for (s, objective, want) in cases {
            assert_eq!(EvalMetric::parse(s, objective), Ok(want), "{s} on {}", objective.name());
        }
        for bad in ["gini", "auc:1", "mlogloss", "ndcg:x", "pinball:", "huber:two"] {
            assert!(EvalMetric::parse(bad, Logistic).is_err(), "{bad}");
        }
        let err = EvalMetric::parse("gini", Logistic).unwrap_err();
        assert!(err.contains("pinball[:A]"), "unknown metric lists the accepted set: {err}");
    }

    /// Ledgers and `report --diff` key on these names.
    #[test]
    fn names_are_the_recorded_ledger_keys() {
        let names: Vec<String> = [
            Auc,
            LogLoss,
            Rmse,
            Error,
            MulticlassLogLoss,
            MulticlassError,
            Pinball { alpha: 0.9 },
            TweedieDeviance { power: 1.5 },
            HuberLoss { delta: 2.0 },
            NdcgAt { k: 10 },
        ]
        .into_iter()
        .map(EvalMetric::name)
        .collect();
        let want = [
            "auc",
            "logloss",
            "rmse",
            "error",
            "mlogloss",
            "merror",
            "pinball@0.9",
            "tweedie-deviance@1.5",
            "huber@2",
            "ndcg@10",
        ];
        assert_eq!(names, want);
    }

    #[test]
    fn check_labels_rejects_a_label_that_is_not_a_class_id_for_the_multiclass_metrics() {
        let softmax = Softmax { n_classes: 3 };
        for metric in [MulticlassLogLoss, MulticlassError] {
            assert_eq!(metric.check_labels(softmax, &[0.0, 2.0, 1.0]), Ok(()));
            for bad in [5.0, -1.0, 1.5, f32::NAN] {
                let err = metric.check_labels(softmax, &[1.0, bad]).unwrap_err();
                let want = format!("metric {} does not fit: softmax labels must be", metric.name());
                assert!(err.starts_with(&want) && err.contains("row 1 has"), "{err}");
            }
        }
        assert_eq!(Rmse.check_labels(SquaredError, &[-7.5, f32::NAN]), Ok(()));
    }

    #[test]
    fn check_rejects_a_parameter_outside_its_range() {
        let cases = [
            (Pinball { alpha: 1.0 }, SquaredError, "alpha"),
            (TweedieDeviance { power: 2.5 }, SquaredError, "power"),
            (HuberLoss { delta: 0.0 }, SquaredError, "delta"),
            (NdcgAt { k: 0 }, LambdaRank { k: 5 }, "truncation"),
        ];
        for (metric, objective, what) in cases {
            let err = metric.check(objective, 10, true).unwrap_err();
            assert!(err.starts_with(&format!("metric {} does not fit", metric.name())), "{err}");
            assert!(err.contains(what), "{err}");
        }
    }
}
