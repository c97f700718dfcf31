//! Shared experiment plumbing: dataset preparation and configured runs.

use harp_binning::{BinningConfig, QuantStore, QuantizedMatrix};
use harp_data::{Dataset, DatasetKind, SynthConfig};
use harpgbdt::trainer::{EvalMetric, EvalOptions};
use harpgbdt::{BlockConfig, GbdtTrainer, GrowthMethod, ParallelMode, TrainParams};

/// A dataset prepared once for many trainer configurations: raw train/test
/// split plus the quantized training matrix.
pub struct PreparedData {
    /// Which paper dataset this imitates.
    pub kind: DatasetKind,
    /// Raw training split.
    pub train: Dataset,
    /// Raw held-out split.
    pub test: Dataset,
    /// Quantized training matrix (built with training cuts).
    pub quantized: QuantizedMatrix,
}

/// The one shared quantizer for every bench binary: trainer-default binning
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
    PreparedData { kind, train, test, quantized }
}

/// Writes the prepared matrix's chunk cache to a scratch file and opens it
/// with a resident budget of `budget_frac` × the decoded byte total (so
/// `0.25` forces ~¾ of the chunks out at any time and `1.0` lets everything
/// stay resident). Chunk granularity targets ~64 chunks so a fractional
/// budget still leaves a multi-chunk sweep window for the DP slots' sweeps
/// while small bench scales keep exercising eviction.
pub fn chunked_store(data: &PreparedData, budget_frac: f64) -> harp_binning::ChunkedStore {
    let qm = &data.quantized;
    let rows_per_chunk = (qm.n_rows() / 64).max(256);
    let path = std::env::temp_dir().join(format!(
        "harp_bench_{}_{}_{}.qsc",
        std::process::id(),
        data.kind.name(),
        qm.n_rows()
    ));
    if !path.exists() {
        harp_binning::write_cache(qm, rows_per_chunk, &path).expect("write chunk cache");
    }
    let budget = (qm.storage_bytes() as f64 * budget_frac).max(1.0) as u64;
    harp_binning::ChunkedStore::open(&path, budget).expect("open chunk cache")
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

/// Shape-aware HarpGBDT configuration (§IV-C / §V-F: "selecting different
/// parallelism method according to the shape of the input matrix"): fat or
/// sparse matrices (many features) use model parallelism with wide feature
/// blocks — conflict-free writes and no replica as wide as the feature
/// axis — while thin dense matrices use the [`harp_params`] recipe.
pub fn harp_params_for(data: &PreparedData, tree_size: u32, threads: usize) -> TrainParams {
    let mut params = harp_params(tree_size, threads);
    if data.train.n_features() >= 512 || !data.quantized.is_dense() {
        params.mode = ParallelMode::ModelParallel;
        params.blocks = BlockConfig {
            row_blk_size: 0,
            node_blk_size: 8,
            feature_blk_size: 32,
            bin_blk_size: 0,
        };
    }
    params
}

/// Warms caches, the allocator and CPU frequency before timed runs by
/// training a few small trees on the prepared data. Call once per binary
/// before the first measured configuration.
pub fn warmup(data: &PreparedData, threads: usize) {
    let params = TrainParams {
        n_trees: 2,
        tree_size: 6,
        n_threads: threads,
        gamma: 0.0,
        ..TrainParams::default()
    };
    let _ = GbdtTrainer::new(params).expect("valid params").train_store(
        &data.quantized,
        &data.train.labels,
        None,
    );
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
/// `&data.quantized`, or a [`chunked_store`] of it, which trains the
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
