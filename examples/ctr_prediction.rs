//! Click-through-rate prediction on a CRITEO-shaped dataset — the workload
//! the paper's introduction motivates ("the impression of billions of
//! advertisements").
//!
//! Demonstrates: sparse-ish CTR features with missing values, validation
//! with early stopping, the deep-tree pathology of leafwise growth on
//! response-encoded features, and model truncation to the best iteration.
//!
//! Run with: `cargo run --release -p harp-bench --example ctr_prediction`

use harp_data::{DatasetKind, SynthConfig};
use harpgbdt::trainer::{EvalMetric, EvalOptions};
use harpgbdt::{GbdtTrainer, GrowthMethod, LedgerConfig, TrainParams};

fn main() {
    // `HARP_EXAMPLE_QUICK=1` (CI smoke mode) shrinks the run.
    let quick = std::env::var("HARP_EXAMPLE_QUICK").is_ok_and(|v| v != "0");
    let scale = if quick { 0.05 } else { 1.0 };
    let data = SynthConfig::new(DatasetKind::CriteoLike, 7).with_scale(scale).generate();
    let (train, valid) = data.split(0.2, 7);
    println!("CTR data: {}", train.stats());

    // Leafwise growth on CTR data with a response-correlated feature digs
    // very deep trees (the paper reports depth > 150 on CRITEO); raising
    // min_child_weight reins that in, as the paper does.
    for (label, min_child_weight) in [("min_child_weight=1", 1.0), ("min_child_weight=100", 100.0)]
    {
        let params = TrainParams {
            n_trees: if quick { 20 } else { 200 },
            tree_size: 7,
            growth: GrowthMethod::Leafwise,
            k: 16,
            min_child_weight,
            ledger: LedgerConfig::enabled(),
            ..TrainParams::default()
        };
        let out = GbdtTrainer::new(params).expect("valid params").train_with_eval(
            &train,
            Some(EvalOptions {
                data: &valid,
                metric: EvalMetric::Auc,
                every: 5,
                early_stopping_rounds: Some(6),
            }),
        );
        let trace = out.diagnostics.trace.as_ref().expect("trace");
        let best = trace.best_point().expect("at least one evaluation");
        let deepest = out.diagnostics.tree_shapes.iter().map(|s| s.max_depth).max().unwrap_or(0);
        println!(
            "{label}: {} trees built, deepest tree {} levels, best valid AUC {:.4} @ iter {}",
            out.model.n_trees(),
            deepest,
            best.metric,
            best.iteration,
        );

        // Per-round timing and memory come off the run ledger rather than
        // ad-hoc stopwatches: compare early rounds (shallow residual trees)
        // against late ones, and read the histogram pool's high-water mark.
        let ledger = out.diagnostics.ledger.as_ref().expect("ledger enabled");
        let records = ledger.records();
        let mean_ms = |recs: &[harp_metrics::LedgerRecord]| {
            1e3 * recs.iter().map(|r| r.round_secs).sum::<f64>() / recs.len().max(1) as f64
        };
        let head = &records[..records.len().min(10)];
        let tail = &records[records.len().saturating_sub(10)..];
        let peak_kb = records
            .last()
            .map(|r| r.mem.iter().map(|m| m.high_water_bytes).sum::<u64>() / 1024)
            .unwrap_or(0);
        println!(
            "  ledger: {:.2} ms/round over rounds 1-{}, {:.2} ms/round over the last {}; \
             peak training memory {} KB",
            mean_ms(head),
            head.len(),
            mean_ms(tail),
            tail.len(),
            peak_kb,
        );

        // Deploy the model truncated to its best iteration, compiled to
        // the flat inference engine a serving path would hold on to.
        let deployable = out.model.truncated(best.iteration).compile();
        let preds = deployable.predict(&valid.features);
        println!(
            "  deployed (truncated to {} trees): valid AUC {:.4}, log-loss {:.4}",
            deployable.n_trees(),
            harp_metrics::auc(&valid.labels, &preds),
            harp_metrics::log_loss(&valid.labels, &preds)
        );
    }
}
