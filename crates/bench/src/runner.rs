//! Shared experiment plumbing: dataset preparation and configured runs.

use harp_binning::{BinningConfig, QuantStore, QuantizedMatrix};
use harp_data::{Dataset, DatasetKind, SynthConfig};
use harpgbdt::trainer::{EvalMetric, EvalOptions};
use harpgbdt::{BlockConfig, GbdtTrainer, GrowthMethod, ParallelMode, TrainParams};

/// A dataset prepared once for many trainer configurations: raw train/test
/// split plus the quantized training matrix.
pub struct PreparedData {
    /// Raw training split.
    pub train: Dataset,
    /// Raw held-out split.
    pub test: Dataset,
    /// Quantized training matrix (built with training cuts).
    pub quantized: QuantizedMatrix,
}

/// The one shared quantizer for the bench binaries: trainer-default binning
/// and layout options, so a matrix built here is exactly what `GbdtTrainer`
/// would build internally (and what the external-memory cache re-encodes).
pub fn quantize_default(features: &harp_data::FeatureMatrix) -> QuantizedMatrix {
    QuantizedMatrix::from_matrix(features, BinningConfig::default())
}

/// Generates, splits (10% test) and quantizes one dataset.
pub fn prepared(kind: DatasetKind, scale: f64, seed: u64) -> PreparedData {
    let full = SynthConfig::new(kind, seed).with_scale(scale).generate();
    let (train, test) = full.split(0.1, seed);
    let quantized = quantize_default(&train.features);
    PreparedData { train, test, quantized }
}

/// The HarpGBDT configuration used in the paper's headline comparisons
/// (§V-E): `K = 32`, `feature_blk_size = 4`, `node_blk_size = 32`, leafwise,
/// Data Parallelism at `D = 8` and ASYNC for larger trees.
pub fn harp_params(tree_size: u32, threads: usize) -> TrainParams {
    TrainParams {
        tree_size,
        n_threads: threads,
        growth: GrowthMethod::Leafwise,
        k: 32,
        mode: if tree_size <= 8 { ParallelMode::DataParallel } else { ParallelMode::Async },
        blocks: BlockConfig {
            row_blk_size: 0,
            node_blk_size: 32,
            feature_blk_size: 4,
            bin_blk_size: 0,
        },
        ..TrainParams::default()
    }
}

/// Everything one configured training run produces for the report tables.
pub struct RunResult {
    /// Mean seconds per tree (the paper's efficiency metric).
    pub tree_secs: f64,
    /// Total training seconds.
    pub train_secs: f64,
    /// Held-out AUC of the final model.
    pub test_auc: f64,
    /// Full output (model + diagnostics) for deeper inspection.
    pub output: harpgbdt::TrainOutput,
}

/// Trains `params` on `data`'s labels through `store` — the prepared
/// `&data.quantized`, or a chunk cache of it, which trains the
/// bitwise-identical model at a different speed — optionally recording a
/// per-iteration AUC trace against the test split, and evaluates the result.
pub fn run_config(
    data: &PreparedData,
    store: &dyn QuantStore,
    params: TrainParams,
    with_trace: bool,
) -> RunResult {
    let trainer = GbdtTrainer::new(params).expect("valid params");
    let eval = with_trace.then_some(EvalOptions {
        data: &data.test,
        metric: EvalMetric::Auc,
        every: 1,
        early_stopping_rounds: None,
    });
    let output = trainer.train_store(store, &data.train.labels, eval);
    let preds = output.model.compile().predict(&data.test.features);
    let test_auc = harp_metrics::auc(&data.test.labels, &preds);
    RunResult {
        tree_secs: output.diagnostics.mean_tree_secs(),
        train_secs: output.diagnostics.train_secs,
        test_auc,
        output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_splits_and_quantizes() {
        let p = prepared(DatasetKind::HiggsLike, 0.02, 1);
        assert_eq!(p.quantized.n_rows(), p.train.n_rows());
        assert_eq!(p.train.n_features(), p.test.n_features());
        assert!(p.test.n_rows() > 0);
    }

    #[test]
    fn harp_params_match_paper_recipe() {
        let p8 = harp_params(8, 4);
        assert_eq!(p8.mode, ParallelMode::DataParallel);
        assert_eq!(p8.k, 32);
        assert_eq!(p8.blocks.feature_blk_size, 4);
        assert_eq!(p8.blocks.node_blk_size, 32);
        let p12 = harp_params(12, 4);
        assert_eq!(p12.mode, ParallelMode::Async);
        assert!(p8.validate().is_ok());
        assert!(p12.validate().is_ok());
    }

    #[test]
    fn run_config_produces_sane_metrics() {
        let data = prepared(DatasetKind::HiggsLike, 0.03, 3);
        let mut params = harp_params(4, 2);
        params.n_trees = 5;
        let res = run_config(&data, &data.quantized, params, true);
        assert!(res.tree_secs > 0.0);
        assert!(res.train_secs >= res.tree_secs);
        assert!((0.0..=1.0).contains(&res.test_auc));
        assert!(res.output.diagnostics.trace.is_some());
        assert_eq!(res.output.model.n_trees(), 5);
    }
}
