//! # HarpGBDT
//!
//! A gradient-boosting decision tree trainer designed for parallel
//! efficiency, reproducing *"HarpGBDT: Optimizing Gradient Boosting Decision
//! Tree for Parallel Efficiency"* (Peng et al., IEEE CLUSTER 2019):
//!
//! * **TopK tree growth** ([`params::GrowthMethod`] + `k`): split the top K
//!   queue candidates concurrently instead of 1 (leafwise) or a whole level
//!   (depthwise), unlocking node-level parallelism at no accuracy cost for
//!   moderate K.
//! * **Block-wise parallelism** ([`params::BlockConfig`]): the GHSum
//!   histogram and the quantized input are 3-D cubes; tasks are configurable
//!   ⟨row, node, feature, bin⟩ blocks. Classic data parallelism and feature
//!   parallelism are special corners of the configuration space.
//! * **Four parallel modes** ([`params::ParallelMode`]): `DataParallel`,
//!   `ModelParallel`, `Sync` (DP→MP→DP phases) and `Async` (barrier-free
//!   node tasks on a spin-locked priority queue).
//! * **MemBuf** (`use_membuf`): gradient replicas stored alongside each
//!   node's row ids for sequential access in node-wise scans.
//!
//! ## Quickstart
//!
//! ```
//! use harpgbdt::{GbdtTrainer, TrainParams};
//! use harp_data::{DatasetKind, SynthConfig};
//!
//! let data = SynthConfig::new(DatasetKind::HiggsLike, 7).with_scale(0.05).generate();
//! let (train, test) = data.split(0.2, 7);
//! let params = TrainParams { n_trees: 10, tree_size: 4, n_threads: 2, ..Default::default() };
//! let out = GbdtTrainer::new(params).unwrap().train(&train);
//! let preds = out.model.predict(&test.features);
//! let auc = harp_metrics::auc(&test.labels, &preds);
//! assert!(auc > 0.6, "model should beat chance, got {auc}");
//! ```

pub mod ensemble;
pub mod growth;
pub mod hist;
pub mod kernels;
pub mod loss;
pub mod objective;
pub mod params;
pub mod partition;
pub mod plan;
pub mod predict;
pub mod split;
pub mod trainer;
pub mod tree;

pub use ensemble::{FeatureImportance, GbdtModel};
// The external-memory surface, re-exported so downstream users (CLI, bench,
// integration tests) reach the whole train-from-a-store story through one
// crate: quantize → `write_cache` → `ChunkedStore::open` → `train_store`.
pub use harp_binning::{
    write_cache, BinningConfig, CacheError, CacheSummary, ChunkIoStats, ChunkedStore,
    LayoutOptions, QuantStore, QuantizedMatrix, SetupTimings, DEFAULT_ROWS_PER_CHUNK,
};
pub use loss::RowScaling;
pub use objective::{ObjectiveInfo, ObjectiveSpec, HESSIAN_FLOOR};
pub use params::{
    BlockConfig, GrowthMethod, LedgerConfig, LossKind, ParallelMode, TraceConfig, TrainParams,
};
pub use plan::{Accumulation, BatchShape, BlockPlan, BlockTask, ResolvedExtents, ScanLayout};
pub use predict::{BinRows, FlatForest, Predictor};
pub use trainer::{Diagnostics, EvalMetric, EvalOptions, GbdtTrainer, TrainOutput, TreeShape};
pub use tree::{Node, NodeId, NodeStats, SplitData, Tree};
