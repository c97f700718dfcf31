//! Ledger-gated convergence tests for the four objective-layer workloads:
//! quantile, Tweedie, Huber, and LambdaMART ranking. Each test trains on
//! its synthetic workload with per-round evaluation and asserts that
//!
//! * the eval metric improves from start to finish and is monotone to a
//!   tolerance (no sustained divergence), and
//! * the final model beats the constant base-score baseline by a fixed
//!   margin (the objective actually learns, not just initializes well);
//!
//! plus a regression gate: two identical-seed runs produce ledgers that
//! `DiffReport` passes at zero tolerance, while a degraded run trips the
//! `eval/last` gate — the property `harpgbdt report --diff` enforces.

use harp_data::{workloads, Dataset};
use harp_metrics::{DiffOptions, DiffReport, RunLedger};
use harpgbdt::trainer::EvalOptions;
use harpgbdt::{GbdtTrainer, LedgerConfig, LossKind, TrainOutput, TrainParams};

fn train_with_ledger(
    loss: LossKind,
    train: &Dataset,
    test: &Dataset,
    n_trees: usize,
    learning_rate: f32,
) -> TrainOutput {
    let params = TrainParams {
        n_trees,
        tree_size: 4,
        learning_rate,
        // The log link puts a pure-zero leaf's optimum at -inf; cap the
        // Newton step as XGBoost recommends for Tweedie-like objectives.
        max_delta_step: if matches!(loss, LossKind::Tweedie { .. }) { 0.7 } else { 0.0 },
        // Pairwise λ-gradients are an order of magnitude smaller than the
        // row-wise losses'; the paper-default γ=1 would freeze growth.
        gamma: if matches!(loss, LossKind::LambdaRank { .. }) { 0.0 } else { 1.0 },
        lambda: if matches!(loss, LossKind::LambdaRank { .. }) { 0.1 } else { 1.0 },
        loss,
        n_threads: 2,
        seed: 7,
        ledger: LedgerConfig::enabled(),
        ..TrainParams::default()
    };
    GbdtTrainer::new(params)
        .expect("valid params")
        .try_train_with_eval(
            train,
            Some(EvalOptions {
                data: test,
                metric: loss.default_metric(),
                every: 1,
                early_stopping_rounds: None,
            }),
        )
        .expect("objective accepts its own workload")
}

/// The eval metric of a constant base-score prediction — the "learned
/// nothing" floor every run must beat.
fn baseline(loss: LossKind, train: &Dataset, test: &Dataset) -> f64 {
    let base = loss.base_scores(&train.labels);
    assert_eq!(base.len(), 1, "these workloads are all scalar");
    let raw = vec![base[0]; test.n_rows()];
    loss.default_metric()
        .compute(&test.labels, &raw, loss, test.query_groups.as_deref())
}

/// Improvement checks shared by all four workloads: the trace must move in
/// the metric's good direction overall and never regress past `tol`
/// relative to the best value seen.
fn assert_converges(out: &TrainOutput, tol: f64) -> f64 {
    let trace = out.diagnostics.trace.as_ref().expect("eval trace recorded");
    let pts = trace.points();
    assert!(pts.len() >= 10, "expected per-round eval, got {} points", pts.len());
    let first = pts[0].metric;
    let last = pts[pts.len() - 1].metric;
    let mut best = first;
    for p in pts {
        if trace.higher_is_better {
            assert!(
                p.metric >= best - tol * (1.0 + best.abs()),
                "round {}: {} fell more than {tol} below the best {best}",
                p.iteration,
                p.metric
            );
            best = best.max(p.metric);
        } else {
            assert!(
                p.metric <= best + tol * (1.0 + best.abs()),
                "round {}: {} rose more than {tol} above the best {best}",
                p.iteration,
                p.metric
            );
            best = best.min(p.metric);
        }
    }
    if trace.higher_is_better {
        assert!(last > first, "metric should improve: first {first}, last {last}");
    } else {
        assert!(last < first, "metric should improve: first {first}, last {last}");
    }
    last
}

#[test]
fn quantile_regression_converges_and_beats_the_base_score() {
    let data = workloads::quantile_regression(8000, 8, 11);
    let (train, test) = data.split(0.25, 11);
    let loss = LossKind::Quantile { alpha: 0.9 };
    // Pinball steps are bounded by lr·|g| ≤ lr (unit Hessian), so reaching
    // the conditional quantile takes more rounds than the smooth losses.
    let out = train_with_ledger(loss, &train, &test, 120, 0.3);
    let last = assert_converges(&out, 0.05);
    let floor = baseline(loss, &train, &test);
    assert!(
        last < floor * 0.95,
        "pinball@0.9 {last} must beat the constant-quantile baseline {floor} by >= 5%"
    );
}

#[test]
fn tweedie_regression_converges_and_beats_the_base_score() {
    let data = workloads::tweedie_claims(4000, 6, 13);
    let (train, test) = data.split(0.25, 13);
    let loss = LossKind::Tweedie { power: 1.5 };
    let out = train_with_ledger(loss, &train, &test, 40, 0.1);
    let last = assert_converges(&out, 0.05);
    let floor = baseline(loss, &train, &test);
    assert!(
        last < floor * 0.99,
        "tweedie deviance {last} must beat the log-mean baseline {floor} by >= 1%"
    );
}

#[test]
fn huber_regression_converges_and_beats_the_base_score() {
    let data = workloads::huber_sensor(4000, 6, 17);
    let (train, test) = data.split(0.25, 17);
    let loss = LossKind::Huber { delta: 1.0 };
    let out = train_with_ledger(loss, &train, &test, 40, 0.3);
    let last = assert_converges(&out, 0.05);
    let floor = baseline(loss, &train, &test);
    assert!(
        last < floor * 0.85,
        "huber@1 {last} must beat the constant-median baseline {floor} by >= 15%"
    );
}

#[test]
fn lambdarank_converges_and_beats_the_base_score() {
    let data = workloads::ranking_queries(150, 20, 6, 19);
    let (train, test) = data.split_queries(0.25, 19);
    let loss = LossKind::LambdaRank { k: 10 };
    let out = train_with_ledger(loss, &train, &test, 40, 0.3);
    let last = assert_converges(&out, 0.05);
    let floor = baseline(loss, &train, &test);
    assert!(
        last > floor * 1.03,
        "ndcg@10 {last} must beat the untrained ordering {floor} by >= 3%"
    );
}

#[test]
fn convergence_ledger_gates_eval_metric_regressions() {
    let data = workloads::quantile_regression(2000, 6, 23);
    let (train, test) = data.split(0.25, 23);
    let loss = LossKind::Quantile { alpha: 0.9 };

    // Two identical-seed runs: the eval stream (and every deterministic
    // ledger metric) must diff clean at zero tolerance.
    let a = train_with_ledger(loss, &train, &test, 20, 0.3);
    let b = train_with_ledger(loss, &train, &test, 20, 0.3);
    let la = a.diagnostics.ledger.as_ref().expect("ledger recorded");
    let lb = b.diagnostics.ledger.as_ref().expect("ledger recorded");
    assert!(
        la.summary().get("eval/last").is_some(),
        "eval metric must flow into the ledger: {:?}",
        la.summary().metrics
    );
    // Wall time is the one thing two identical runs do not share (on a busy
    // host a 20 ms run can take 150 ms), and it is not what this gate is
    // about: only the deterministic rows are held.
    let gate = DiffOptions { time_tolerance: f64::INFINITY, ..DiffOptions::default() };
    let diff = DiffReport::between(&la.summary(), &lb.summary(), &gate);
    assert!(!diff.failed(), "identical runs must pass the gate:\n{}", diff.render());

    // A degraded run (crippled learning rate) regresses the eval metric;
    // the `eval/last` row must trip the gate.
    let c = train_with_ledger(loss, &train, &test, 20, 0.001);
    let lc = c.diagnostics.ledger.as_ref().expect("ledger recorded");
    let diff = DiffReport::between(&la.summary(), &lc.summary(), &gate);
    assert!(diff.failed(), "eval regression must trip the gate");
    let tripped = diff
        .rows
        .iter()
        .any(|r| r.metric == "eval/last" && r.status == harp_metrics::DiffStatus::Fail);
    assert!(tripped, "eval/last must be a failing row:\n{}", diff.render());

    // Ledgers survive the JSONL round-trip the CLI uses for `report --diff`.
    let path = std::env::temp_dir().join("harp-objective-convergence.jsonl");
    la.write_jsonl(&path).expect("write ledger");
    let reread = RunLedger::read_jsonl(&path).expect("read ledger");
    assert_eq!(reread.summary().get("eval/last"), la.summary().get("eval/last"));
    std::fs::remove_file(&path).ok();
}
