//! The HarpGBDT training engine.
//!
//! [`GbdtTrainer`] runs the boosting loop of Algorithm 1. Each tree is grown
//! by a *batch engine*: the growth queue pops up to `K` candidates (§IV-B),
//! ApplySplit partitions their rows, BuildHist fills the children's GHSum
//! cubes through a block-wise driver (§IV-A), and FindSplit pushes the next
//! generation of candidates. The parallel mode (Table II) decides which
//! driver runs each batch:
//!
//! * `DataParallel` / `ModelParallel` — always the respective driver;
//! * `Sync` — DP while the batch is narrower than the pool, MP in the
//!   middle, DP again when nodes shrink below a row threshold (the paper's
//!   "mix mode (DP, MP, DP)");
//! * `Async` — batch engine (DP) until the queue is as wide as the pool,
//!   then the barrier-free node-task phase (`async_mode`).

mod async_mode;
mod drivers;

pub use drivers::{build_hists_dp, build_hists_mp, DriverCtx, DriverScratch, HistJob};

use crate::ensemble::GbdtModel;
use crate::growth::GrowthQueue;
use crate::hist::{self, HistPool};
use crate::loss::GradPair;
use crate::params::{GrowthMethod, ParallelMode, TrainParams};
use crate::partition::RowPartition;
use crate::split::{better_of, SplitCandidate, SplitSettings};
use crate::tree::{NodeId, NodeStats, Tree};
use harp_binning::{
    sweep_chunks, BinningConfig, ChunkIoStats, LayoutOptions, QuantStore, QuantizedMatrix, Rows,
    MISSING_BIN,
};
use harp_data::Dataset;
use harp_metrics::{
    gauges, BreakdownReport, ConvergenceTrace, LedgerRecord, MemGauge, MemRegistry, PlanStats,
    RunLedger, TimeBreakdown, WorkerSkewReport,
};
use harp_parallel::{
    PhaseSpan, Profile, ProfileReport, Stopwatch, ThreadPool, TracePhase, TraceSink, TraceSnapshot,
};
use std::sync::Arc;

/// Below this average node size, SYNC mode's end phase switches back to DP.
const SYNC_SMALL_NODE_ROWS: usize = 512;

/// Validation metric for the eval set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvalMetric {
    /// Area under the ROC curve (higher is better). Binary only.
    Auc,
    /// Binary cross-entropy (lower is better).
    LogLoss,
    /// Root mean squared error (lower is better).
    Rmse,
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
            EvalMetric::MulticlassLogLoss => "mlogloss".into(),
            EvalMetric::MulticlassError => "merror".into(),
            EvalMetric::Pinball { alpha } => format!("pinball@{alpha}"),
            EvalMetric::TweedieDeviance { power } => format!("tweedie-deviance@{power}"),
            EvalMetric::HuberLoss { delta } => format!("huber@{delta}"),
            EvalMetric::NdcgAt { k } => format!("ndcg@{k}"),
        }
    }

    /// Computes the metric from row-major raw scores (`n_rows × n_groups`).
    /// `query_groups` carries consecutive group sizes for ranking metrics
    /// (ignored by the others).
    ///
    /// # Panics
    /// Panics when the metric does not fit the loss's group count, or for
    /// [`EvalMetric::NdcgAt`] without query groups.
    pub fn compute(
        self,
        labels: &[f32],
        raw: &[f32],
        model_loss: crate::params::LossKind,
        query_groups: Option<&[u32]>,
    ) -> f64 {
        let groups = model_loss.n_groups();
        match self {
            EvalMetric::Auc => {
                assert_eq!(groups, 1, "AUC requires a binary/scalar loss");
                harp_metrics::auc(labels, raw)
            }
            EvalMetric::LogLoss => {
                assert_eq!(groups, 1, "LogLoss requires a binary loss");
                let probs = model_loss.transform_scores(raw);
                harp_metrics::log_loss(labels, &probs)
            }
            EvalMetric::Rmse => {
                assert_eq!(groups, 1, "RMSE requires a scalar loss");
                harp_metrics::rmse(labels, raw)
            }
            EvalMetric::MulticlassLogLoss => {
                let probs = model_loss.transform_scores(raw);
                harp_metrics::multiclass_log_loss(labels, &probs, groups)
            }
            EvalMetric::MulticlassError => harp_metrics::multiclass_error(labels, raw, groups),
            EvalMetric::Pinball { alpha } => {
                assert_eq!(groups, 1, "pinball requires a scalar loss");
                harp_metrics::pinball_loss(labels, raw, alpha)
            }
            EvalMetric::TweedieDeviance { power } => {
                assert_eq!(groups, 1, "tweedie deviance requires a scalar loss");
                let mu = model_loss.transform_scores(raw);
                harp_metrics::tweedie_deviance(labels, &mu, power)
            }
            EvalMetric::HuberLoss { delta } => {
                assert_eq!(groups, 1, "huber loss requires a scalar loss");
                harp_metrics::huber_loss(labels, raw, delta)
            }
            EvalMetric::NdcgAt { k } => {
                assert_eq!(groups, 1, "ndcg requires a scalar loss");
                let qg = query_groups.expect("ndcg@k needs query-group sizes on the eval dataset");
                harp_metrics::ndcg_at_k(labels, raw, qg, k as usize)
            }
        }
    }
}

/// Validation configuration.
pub struct EvalOptions<'a> {
    /// Held-out data (raw features; the model routes on raw thresholds).
    pub data: &'a Dataset,
    /// Metric to track.
    pub metric: EvalMetric,
    /// Evaluate every `every` trees.
    pub every: usize,
    /// Stop after this many evaluations without improvement.
    pub early_stopping_rounds: Option<usize>,
}

/// Shape statistics of one built tree.
#[derive(Debug, Clone, Copy)]
pub struct TreeShape {
    /// Leaf count.
    pub n_leaves: u32,
    /// Maximum depth.
    pub max_depth: u32,
}

/// Everything measured during a training run.
pub struct Diagnostics {
    /// Wall seconds per boosting round (= per tree for scalar losses; one
    /// round builds `n_groups` trees for softmax). Training only,
    /// evaluation excluded.
    pub per_tree_secs: Vec<f64>,
    /// Total training seconds (sum of `per_tree_secs`).
    pub train_secs: f64,
    /// Phase attribution (Fig. 4's quantity).
    pub breakdown: BreakdownReport,
    /// Pool profile (Tables I/VI metrics).
    pub profile: ProfileReport,
    /// Validation trace, when an eval set was provided.
    pub trace: Option<ConvergenceTrace>,
    /// Iteration with the best validation metric.
    pub best_iteration: Option<usize>,
    /// Per-tree shapes.
    pub tree_shapes: Vec<TreeShape>,
    /// Span ledger snapshot, when `TrainParams::trace` was enabled. Export
    /// with [`TraceSnapshot::to_chrome_trace`] for `chrome://tracing` /
    /// Perfetto.
    pub span_trace: Option<TraceSnapshot>,
    /// Per-phase worker busy-time skew derived from the span ledger.
    pub worker_skew: Option<WorkerSkewReport>,
    /// Per-round run ledger, when `TrainParams::ledger` was enabled: one
    /// record per boosting round with phase-time and counter deltas, the
    /// eval metric, tree shape, worker skew and memory-gauge bytes. Stream
    /// it with [`RunLedger::write_jsonl`].
    pub ledger: Option<RunLedger>,
}

impl Diagnostics {
    /// Mean seconds per boosting round — the paper's primary efficiency
    /// metric ("average training time per tree for the first 100 trees";
    /// rounds and trees coincide for the paper's binary tasks).
    pub fn mean_tree_secs(&self) -> f64 {
        if self.per_tree_secs.is_empty() {
            0.0
        } else {
            self.per_tree_secs.iter().sum::<f64>() / self.per_tree_secs.len() as f64
        }
    }
}

/// A trained model plus its diagnostics.
pub struct TrainOutput {
    /// The ensemble.
    pub model: GbdtModel,
    /// Measurements.
    pub diagnostics: Diagnostics,
}

/// The HarpGBDT trainer.
pub struct GbdtTrainer {
    params: TrainParams,
    binning: BinningConfig,
    layout: LayoutOptions,
}

impl GbdtTrainer {
    /// Creates a trainer after validating `params`.
    ///
    /// # Errors
    /// Returns the validation message for inconsistent parameters.
    pub fn new(params: TrainParams) -> Result<Self, String> {
        params.validate()?;
        Ok(Self { params, binning: BinningConfig::default(), layout: LayoutOptions::default() })
    }

    /// Overrides the histogram-initialization configuration.
    pub fn with_binning(mut self, binning: BinningConfig) -> Self {
        self.binning = binning;
        self
    }

    /// Overrides the storage-layout selection (u4 packing, feature
    /// bundling). The default auto-selects compressed layouts.
    pub fn with_layout(mut self, layout: LayoutOptions) -> Self {
        self.layout = layout;
        self
    }

    /// The trainer's parameters.
    pub fn params(&self) -> &TrainParams {
        &self.params
    }

    /// Quantizes `dataset` and trains.
    ///
    /// # Panics
    /// As [`train_with_eval`](Self::train_with_eval).
    pub fn train(&self, dataset: &Dataset) -> TrainOutput {
        self.train_with_eval(dataset, None)
    }

    /// Quantizes `dataset` and trains with optional validation. Query-group
    /// sizes attached to the dataset flow into listwise objectives and
    /// ranking metrics.
    ///
    /// # Panics
    /// Panics with [`try_train_with_eval`](Self::try_train_with_eval)'s
    /// message if the objective rejects the data.
    pub fn train_with_eval(&self, dataset: &Dataset, eval: Option<EvalOptions<'_>>) -> TrainOutput {
        self.try_train_with_eval(dataset, eval).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`train_with_eval`](Self::train_with_eval) but with the
    /// objective's data validation surfaced as an error instead of a panic
    /// (bad labels, missing query groups) — the CLI-friendly entry point.
    ///
    /// # Errors
    /// Returns the objective's validation message for unusable data.
    pub fn try_train_with_eval(
        &self,
        dataset: &Dataset,
        eval: Option<EvalOptions<'_>>,
    ) -> Result<TrainOutput, String> {
        let qm = QuantizedMatrix::from_matrix_opts(&dataset.features, self.binning, self.layout);
        self.try_train_store_grouped(
            &qm,
            &dataset.labels,
            None,
            dataset.query_groups.as_deref(),
            eval,
        )
    }

    /// Trains on already-quantized data through any [`QuantStore`] — the
    /// in-memory [`QuantizedMatrix`] (lets experiments bin once and train
    /// many configurations on identical inputs) or an out-of-core
    /// [`harp_binning::ChunkedStore`]. Chunked training is bitwise identical
    /// to in-core on the same data (see `tests/external_memory.rs`).
    ///
    /// # Panics
    /// As [`train_store_grouped`](Self::train_store_grouped).
    pub fn train_store(
        &self,
        store: &dyn QuantStore,
        labels: &[f32],
        eval: Option<EvalOptions<'_>>,
    ) -> TrainOutput {
        self.train_store_grouped(store, labels, None, None, eval)
    }

    /// [`try_train_store_grouped`](Self::try_train_store_grouped) for
    /// callers that know their data fits the objective.
    ///
    /// # Panics
    /// Panics if `labels.len() != store.n_rows()`, the weights length
    /// differs, or — with `try_train_store_grouped`'s message — the
    /// objective rejects the data.
    pub fn train_store_grouped(
        &self,
        store: &dyn QuantStore,
        labels: &[f32],
        weights: Option<&[f32]>,
        query_groups: Option<&[u32]>,
        eval: Option<EvalOptions<'_>>,
    ) -> TrainOutput {
        self.try_train_store_grouped(store, labels, weights, query_groups, eval)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The full store-mediated entry point, which every other one forwards
    /// to: optional per-row sample weights (they scale each row's gradient
    /// pair) plus optional consecutive query-group sizes (required by
    /// listwise objectives such as LambdaRank and by the `ndcg@k` metric).
    /// The objective's one check of the training and eval data happens
    /// here.
    ///
    /// # Errors
    /// Returns the objective's validation message for unusable data.
    ///
    /// # Panics
    /// Panics if `labels.len() != store.n_rows()` or the weights length
    /// differs.
    pub fn try_train_store_grouped(
        &self,
        store: &dyn QuantStore,
        labels: &[f32],
        weights: Option<&[f32]>,
        query_groups: Option<&[u32]>,
        eval: Option<EvalOptions<'_>>,
    ) -> Result<TrainOutput, String> {
        let qm = store;
        assert_eq!(labels.len(), qm.n_rows(), "one label per row required");
        let params = &self.params;
        let objective = params.loss.build();
        objective
            .validate_data(labels, query_groups)
            .map_err(|e| format!("training data rejected by {}: {e}", params.loss.name()))?;
        if let Some(e) = &eval {
            objective
                .validate_data(&e.data.labels, e.data.query_groups.as_deref())
                .map_err(|err| format!("eval data rejected by {}: {err}", params.loss.name()))?;
        }
        let profile = Arc::new(Profile::new());
        let mut pool = ThreadPool::with_profile(params.n_threads, Arc::clone(&profile));
        // `None` unless tracing is both requested and compiled in; every
        // recording site downstream branches on this option, so the disabled
        // path performs no extra clock reads.
        let sink = TraceSink::new_if(
            params.trace.enabled,
            params.n_threads,
            params.trace.spans_per_worker,
        );
        if let Some(s) = &sink {
            pool.install_trace(Arc::clone(s));
        }
        let sink = pool.trace().cloned();
        let tsink = sink.as_deref();
        let coord = params.n_threads; // coordinator lane of the sink
        let breakdown = TimeBreakdown::new();
        let n = qm.n_rows();
        let groups = objective.n_groups();

        let base_scores = objective.base_scores(labels);
        // Row-major n x groups raw scores.
        let mut preds = vec![0.0f32; n * groups];
        for r in 0..n {
            preds[r * groups..(r + 1) * groups].copy_from_slice(&base_scores);
        }
        let mut grads: Vec<GradPair> = vec![[0.0; 2]; n];
        let max_nodes = 2 * params.max_leaves() + 8;
        let mut engine = TreeEngine {
            qm,
            params,
            pool: &pool,
            breakdown: &breakdown,
            partition: RowPartition::new(n, max_nodes, params.use_membuf),
            hist_pool: HistPool::for_store(
                qm,
                // Subtraction is the cache's only reader.
                if params.hist_subtraction { params.hist_cache_bytes } else { 0 },
            ),
            scratch: DriverScratch::new(),
            settings: SplitSettings {
                lambda: params.lambda,
                gamma: params.gamma,
                min_child_weight: params.min_child_weight,
            },
            feature_mask: Vec::new(),
            pops: 0,
            popped: 0,
        };

        // Run-ledger state: byte gauges plus previous-round baselines for
        // delta computation. Gauges are only allocated (and pools only pay
        // the per-event `fetch_add`) when the ledger is on.
        let mut mem_registry = params.ledger.enabled.then(MemRegistry::new);
        let (hist_pool_g, hist_cache_g, scratch_g, membuf_g, partition_g, flat_g) =
            match &mut mem_registry {
                Some(reg) => (
                    Some(reg.gauge(gauges::HIST_POOL)),
                    Some(reg.gauge(gauges::HIST_CACHE)),
                    Some(reg.gauge(gauges::SCRATCH_ARENA)),
                    Some(reg.gauge(gauges::MEMBUF)),
                    Some(reg.gauge(gauges::PARTITION)),
                    Some(reg.gauge(gauges::FLAT_FOREST)),
                ),
                None => (None, None, None, None, None, None),
            };
        // Quantized-storage accounting: the decoded-equivalent bytes of the
        // store (the dominant allocation of an in-core run) plus, for a
        // chunked store, the resident decoded slab bytes whose high-water
        // mark proves a --mem-budget run stayed under its budget.
        let chunk_g = match &mut mem_registry {
            Some(reg) => {
                reg.gauge(gauges::QUANT_STORE).observe(qm.storage_bytes() as u64);
                (qm.as_single().is_none()).then(|| reg.gauge(gauges::CHUNK_RESIDENT))
            }
            None => None,
        };
        // Cache hit/miss/eviction counters are cheap relaxed atomics; wire
        // them unconditionally so whole-run profile reports always have them.
        engine.hist_pool.instrument(Arc::clone(&profile), hist_pool_g, hist_cache_g);
        if let Some(g) = scratch_g {
            engine.scratch.set_replica_gauge(g);
        }
        let mut run_ledger = params.ledger.enabled.then(RunLedger::new);
        let mut prev_breakdown = BreakdownReport::default();
        let mut prev_counters = profile.snapshot();
        let mut prev_io: ChunkIoStats = qm.io_stats();
        let mut prev_trace_counters = sink.as_ref().map(|s| s.counter_totals());
        let mut prev_lane_busy = sink.as_ref().map(|s| s.phase_busy_by_lane());

        // Record the layout decisions made at quantization time plus the SIMD
        // tier the kernels will dispatch to. Placed after the baseline
        // snapshot so the round-1 ledger delta carries them.
        let layout = qm.layout_stats();
        profile.add_layout_events(
            layout.cols_u4,
            layout.cols_bundled,
            layout.bundle_conflicts,
            crate::kernels::simd_tier().as_u64(),
        );

        // Evaluation state.
        let mut trace = eval.as_ref().map(|e| ConvergenceTrace::new(e.metric.higher_is_better()));
        let mut eval_preds: Vec<f32> = eval
            .as_ref()
            .map(|e| {
                let mut p = vec![0.0f32; e.data.n_rows() * groups];
                for r in 0..e.data.n_rows() {
                    p[r * groups..(r + 1) * groups].copy_from_slice(&base_scores);
                }
                p
            })
            .unwrap_or_default();
        let mut best_metric: Option<f64> = None;
        let mut best_iteration: Option<usize> = None;
        let mut evals_since_best = 0usize;

        let mut trees: Vec<Tree> = Vec::with_capacity(params.n_trees);
        let mut per_tree_secs = Vec::with_capacity(params.n_trees);
        let mut tree_shapes = Vec::with_capacity(params.n_trees);
        let mut train_secs = 0.0f64;

        for iter in 0..params.n_trees {
            let sw = Stopwatch::start();
            for group in 0..groups {
                {
                    let _phase = PhaseSpan::begin(
                        tsink,
                        coord,
                        TracePhase::Gradients,
                        0,
                        iter as u32,
                        Some(&breakdown.other_ns),
                    );
                    let scaling = crate::loss::RowScaling {
                        weights,
                        subsample: params.subsample,
                        seed: params.seed ^ (iter as u64).wrapping_mul(0x9E37_79B9),
                    };
                    crate::objective::compute_gradients_group(
                        objective.as_ref(),
                        &pool,
                        &preds,
                        labels,
                        query_groups,
                        group,
                        &scaling,
                        &mut grads,
                    );
                }
                engine.sample_features(params, iter as u64, group as u64);
                let tree = engine.build_tree(&grads);
                {
                    let _phase = PhaseSpan::begin(
                        tsink,
                        coord,
                        TracePhase::Other,
                        0,
                        iter as u32,
                        Some(&breakdown.other_ns),
                    );
                    engine.update_predictions(&tree, &mut preds, groups, group);
                }
                tree_shapes.push(TreeShape {
                    n_leaves: tree.n_leaves() as u32,
                    max_depth: tree.max_depth(),
                });
                trees.push(tree);
            }
            let secs = sw.elapsed_secs();
            profile.add_wall_ns(sw.elapsed_ns());
            train_secs += secs;
            per_tree_secs.push(secs);

            // Validation (outside the timed region). Early stopping raises a
            // flag instead of breaking so the round's ledger record is still
            // pushed below.
            let mut round_metric: Option<f64> = None;
            let mut stop = false;
            if let Some(e) = &eval {
                if (iter + 1) % e.every.max(1) == 0 || iter + 1 == params.n_trees {
                    for group in 0..groups {
                        let tree = &trees[trees.len() - groups + group];
                        incremental_eval(
                            tree,
                            e.data,
                            &mut eval_preds,
                            groups,
                            group,
                            &breakdown,
                            tsink,
                            flat_g.as_deref(),
                        );
                    }
                    let metric = e.metric.compute(
                        &e.data.labels,
                        &eval_preds,
                        params.loss,
                        e.data.query_groups.as_deref(),
                    );
                    if let Some(tr) = &mut trace {
                        tr.record(iter + 1, train_secs, metric);
                    }
                    round_metric = Some(metric);
                    let improved = match best_metric {
                        None => true,
                        Some(b) => {
                            if e.metric.higher_is_better() {
                                metric > b
                            } else {
                                metric < b
                            }
                        }
                    };
                    if improved {
                        best_metric = Some(metric);
                        best_iteration = Some(iter + 1);
                        evals_since_best = 0;
                    } else {
                        evals_since_best += 1;
                        if let Some(rounds) = e.early_stopping_rounds {
                            if evals_since_best >= rounds {
                                stop = true;
                            }
                        }
                    }
                } else {
                    // Keep eval predictions current even on non-eval trees so
                    // the next evaluation uses all trees.
                    for group in 0..groups {
                        let tree = &trees[trees.len() - groups + group];
                        incremental_eval(
                            tree,
                            e.data,
                            &mut eval_preds,
                            groups,
                            group,
                            &breakdown,
                            tsink,
                            flat_g.as_deref(),
                        );
                    }
                }
            }

            // Chunk-I/O accounting: fold this round's store counters into
            // the profile (all-zero deltas for an in-core store) and refresh
            // the resident gauge. Runs before the ledger hook so the round's
            // counter delta carries its own chunk traffic.
            {
                let io = qm.io_stats();
                profile.add_chunk_io_events(
                    io.chunk_loads - prev_io.chunk_loads,
                    io.chunk_evictions - prev_io.chunk_evictions,
                    io.chunk_prefetch_hits - prev_io.chunk_prefetch_hits,
                );
                prev_io = io;
                if let Some(g) = &chunk_g {
                    g.observe(io.resident_bytes);
                    g.observe_peak(io.resident_high_water);
                }
            }

            // Ledger hook: snapshot this round's deltas.
            if let (Some(ledger), Some(registry)) = (&mut run_ledger, &mem_registry) {
                let bd = breakdown.report();
                let round_bd = bd.since(&prev_breakdown);
                prev_breakdown = bd;
                let now = profile.snapshot();
                let round_counters = now.delta(&prev_counters);
                prev_counters = now;
                let mut counters: Vec<(String, u64)> =
                    round_counters.named().iter().map(|&(n, v)| (n.to_string(), v)).collect();
                if let (Some(s), Some(prev)) = (&sink, &mut prev_trace_counters) {
                    let now = s.counter_totals();
                    let d = now.delta(prev);
                    *prev = now;
                    counters.push(("queue_pops".into(), d.queue_pops));
                    counters.push(("queue_pushes".into(), d.queue_pushes));
                    counters.push(("queue_spin_ns".into(), d.queue_spin_ns));
                }
                let mut skew: Vec<(String, f64)> = Vec::new();
                if let (Some(s), Some(prev)) = (&sink, &mut prev_lane_busy) {
                    let now = s.phase_busy_by_lane();
                    // Workers only: the coordinator lane mostly waits and
                    // would drown the phase imbalance signal.
                    let workers = now.len().saturating_sub(1);
                    let rows: Vec<(&'static str, Vec<u64>)> = TracePhase::all()
                        .into_iter()
                        .map(|p| {
                            let row = (0..workers)
                                .map(|l| now[l][p as usize].saturating_sub(prev[l][p as usize]))
                                .collect();
                            (p.name(), row)
                        })
                        .collect();
                    *prev = now;
                    let report = WorkerSkewReport::from_phase_ns(&rows);
                    skew = report.rows.into_iter().map(|r| (r.phase, r.imbalance)).collect();
                }
                if let Some(g) = &membuf_g {
                    g.observe(engine.partition.membuf_bytes() as u64);
                }
                if let Some(g) = &partition_g {
                    g.observe(engine.partition.index_bytes() as u64);
                }
                let shapes = &tree_shapes[tree_shapes.len() - groups..];
                let (pops, popped) = engine.take_pop_stats();
                let (plan_batches, plan_tasks, ext) = engine.scratch.take_plan_stats();
                ledger.push(LedgerRecord {
                    round: (iter + 1) as u64,
                    elapsed_secs: train_secs,
                    round_secs: secs,
                    phase_secs: vec![
                        ("build_hist".into(), round_bd.build_hist_secs),
                        ("find_split".into(), round_bd.find_split_secs),
                        ("apply_split".into(), round_bd.apply_split_secs),
                        ("predict".into(), round_bd.predict_secs),
                        ("other".into(), round_bd.other_secs),
                    ],
                    counters,
                    eval_metric: round_metric,
                    n_leaves: shapes.iter().map(|s| s.n_leaves).max().unwrap_or(0),
                    max_depth: shapes.iter().map(|s| s.max_depth).max().unwrap_or(0),
                    mean_k_per_pop: if pops > 0 { popped as f64 / pops as f64 } else { 0.0 },
                    mem: registry.snapshot(),
                    skew,
                    plan: PlanStats {
                        batches: plan_batches,
                        tasks: plan_tasks,
                        row_blk: ext.row_blk as u64,
                        node_blk: ext.node_blk as u64,
                        feature_blk: ext.feature_blk as u64,
                        bin_blk: ext.bin_blk as u64,
                        auto: ext.auto,
                    },
                    latency: Default::default(),
                });
            }
            if stop {
                break;
            }
        }

        let (span_trace, worker_skew) = match &sink {
            Some(s) => {
                let snap = s.snapshot();
                let skew = WorkerSkewReport::from_phase_ns(&snap.worker_phase_ns());
                (Some(snap), Some(skew))
            }
            None => (None, None),
        };
        let diagnostics = Diagnostics {
            train_secs,
            per_tree_secs,
            breakdown: breakdown.report(),
            profile: profile.report(params.n_threads),
            trace,
            best_iteration,
            tree_shapes,
            span_trace,
            worker_skew,
            ledger: run_ledger,
        };
        Ok(TrainOutput {
            model: GbdtModel::new(trees, base_scores, params.loss, qm.n_features()),
            diagnostics,
        })
    }
}

/// Adds one tree's contribution to group `group` of the row-major eval
/// score buffer, through the flat blocked engine (attributed to the
/// Predict phase). Bitwise identical to summing `tree.predict` per row.
#[allow(clippy::too_many_arguments)]
fn incremental_eval(
    tree: &Tree,
    data: &Dataset,
    preds: &mut [f32],
    groups: usize,
    group: usize,
    breakdown: &TimeBreakdown,
    trace: Option<&TraceSink>,
    flat_gauge: Option<&MemGauge>,
) {
    let flat = crate::predict::FlatForest::single_tree(tree, data.n_features());
    if let Some(g) = flat_gauge {
        g.observe(flat.memory_bytes() as u64);
    }
    let mut predictor = crate::predict::Predictor::new(&flat).with_breakdown(breakdown);
    if let Some(sink) = trace {
        predictor = predictor.with_trace(sink);
    }
    predictor.accumulate_raw(&data.features, preds, groups, group);
}

/// Per-tree construction engine; buffers persist across trees.
struct TreeEngine<'a> {
    qm: &'a dyn QuantStore,
    params: &'a TrainParams,
    pool: &'a ThreadPool,
    breakdown: &'a TimeBreakdown,
    partition: RowPartition,
    hist_pool: HistPool,
    /// Replica arena and task vectors reused by the drivers across
    /// frontiers and trees.
    scratch: DriverScratch,
    settings: SplitSettings,
    /// Per-tree column-subsampling mask; empty = all features allowed.
    feature_mask: Vec<bool>,
    /// Growth-queue pop count since the last ledger snapshot (batch engine
    /// only; ASYNC's node tasks pop one node each and are not counted).
    pops: u64,
    /// Candidates popped across those pops — `popped / pops` is the round's
    /// effective K.
    popped: u64,
}

impl<'a> TreeEngine<'a> {
    /// The span ledger installed on the pool, if tracing is enabled. The
    /// returned borrow is tied to the pool, not `self`, so spans can stay
    /// open across `&mut self` calls.
    fn sink(&self) -> Option<&'a TraceSink> {
        self.pool.trace().map(Arc::as_ref)
    }

    /// Lane index for spans recorded by the coordinating thread.
    fn coord_lane(&self) -> usize {
        self.pool.num_threads()
    }

    /// Takes and resets the growth-queue pop statistics: `(pops, candidates
    /// popped)` since the previous call.
    fn take_pop_stats(&mut self) -> (u64, u64) {
        let out = (self.pops, self.popped);
        self.pops = 0;
        self.popped = 0;
        out
    }

    /// Regenerates the per-tree column-subsampling mask (empty when
    /// `colsample_bytree == 1`). Deterministic in `(params.seed, iter,
    /// group)`; at least one feature is always kept.
    fn sample_features(&mut self, params: &TrainParams, iter: u64, group: u64) {
        self.feature_mask.clear();
        if params.colsample_bytree >= 1.0 {
            return;
        }
        let m = self.qm.n_features();
        let base = params.seed ^ iter.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (group << 32);
        self.feature_mask = (0..m)
            .map(|f| {
                let h = crate::loss::hash64(base ^ (f as u64).wrapping_mul(0xA24B_AED4_963E_E407));
                ((h >> 11) as f64 / (1u64 << 53) as f64) < f64::from(params.colsample_bytree)
            })
            .collect();
        if !self.feature_mask.iter().any(|&b| b) {
            let h = crate::loss::hash64(base) as usize % m;
            self.feature_mask[h] = true;
        }
    }

    fn mask(&self) -> Option<&[bool]> {
        if self.feature_mask.is_empty() {
            None
        } else {
            Some(&self.feature_mask)
        }
    }

    fn build_tree(&mut self, grads: &[GradPair]) -> Tree {
        self.partition.reset(grads);
        let mut root_stats = NodeStats { g: 0.0, h: 0.0, count: grads.len() as u32 };
        for gp in grads {
            root_stats.g += f64::from(gp[0]);
            root_stats.h += f64::from(gp[1]);
        }
        let mut tree = Tree::new_root(root_stats);
        let mut queue = GrowthQueue::new(self.params.growth);

        // Root histogram + split.
        {
            let mut jobs = vec![HistJob { node: 0, buf: self.hist_pool.alloc().zeroed() }];
            self.run_driver(grads, &mut jobs);
            let found = self.find_splits(&tree, &jobs);
            let HistJob { buf, .. } = jobs.pop().expect("one job");
            match found.into_iter().next().flatten() {
                Some(cand) => {
                    let key = queue.push(0, 0, cand);
                    let remaining = self.params.max_leaves() - 1;
                    self.hist_pool.cache_insert(0, grads.len(), buf, key, remaining);
                }
                None => self.hist_pool.release(buf),
            }
        }

        let mut leaves = 1usize;
        match self.params.mode {
            ParallelMode::Async => {
                // Begin phase: grow with the batch engine until the frontier
                // is as wide as the pool, then go barrier-free.
                while leaves < self.params.max_leaves()
                    && !queue.is_empty()
                    && queue.len() < self.params.n_threads
                {
                    if !self.grow_one_batch(grads, &mut tree, &mut queue, &mut leaves) {
                        break;
                    }
                }
                async_mode::run_async(self, grads, &mut tree, &mut queue, &mut leaves);
            }
            _ => {
                while leaves < self.params.max_leaves() {
                    if !self.grow_one_batch(grads, &mut tree, &mut queue, &mut leaves) {
                        break;
                    }
                }
            }
        }

        // Remaining candidates stay leaves; their cached hists are recycled.
        self.hist_pool.clear_cache();
        let _ = queue.drain();

        // Leaf weights (Eq. 2), scaled by the learning rate. `max_delta_step`
        // caps the unscaled Newton step first (0 = off), which tames the
        // run-away leaves of log-link objectives.
        let lr = f64::from(self.params.learning_rate);
        let lambda = self.params.lambda;
        let cap = self.params.max_delta_step;
        let leaf_ids: Vec<NodeId> = tree.leaf_ids().collect();
        for id in leaf_ids {
            let node = tree.node_mut(id);
            let mut w = node.stats.optimal_weight(lambda);
            if cap > 0.0 {
                w = w.clamp(-cap, cap);
            }
            node.weight = (lr * w) as f32;
        }
        tree
    }

    /// Pops one batch, splits it and — while the tree has leaves left to
    /// spend — builds the children's histograms and queues the next
    /// candidates. Returns `false` when the queue is exhausted.
    fn grow_one_batch(
        &mut self,
        grads: &[GradPair],
        tree: &mut Tree,
        queue: &mut GrowthQueue,
        leaves: &mut usize,
    ) -> bool {
        let batch = queue.pop_batch(self.params.effective_k(), self.params.max_leaves() - *leaves);
        if batch.is_empty() {
            return false;
        }
        self.pops += 1;
        self.popped += batch.len() as u64;

        // ApplySplit: update the tree, then partition rows node by node
        // (chunk-parallel within a node for wide spans, node-parallel when
        // the batch is large). Each candidate spends its leaf and takes its
        // cached histogram in one step, as an ASYNC node task does, so the
        // pool sees the budget exactly as that pop left it.
        let mut splits: Vec<(NodeId, NodeId, NodeId)> = Vec::with_capacity(batch.len());
        let mut parent_bufs: Vec<Option<Vec<f64>>> = Vec::with_capacity(batch.len());
        {
            let _phase = PhaseSpan::begin(
                self.sink(),
                self.coord_lane(),
                TracePhase::ApplySplit,
                batch[0].node,
                batch.len() as u32,
                Some(&self.breakdown.apply_split_ns),
            );
            for c in &batch {
                let (l, r) = tree.apply_split(c.node, c.cand.split, c.cand.left, c.cand.right);
                splits.push((c.node, l, r));
                *leaves += 1;
                parent_bufs.push(self.hist_pool.cache_take(
                    c.node,
                    self.partition.node_len(c.node),
                    self.params.max_leaves() - *leaves,
                ));
            }
            // Routing bins for the whole frontier come from one chunk sweep.
            let items: Vec<(&[u32], &crate::tree::SplitData)> = splits
                .iter()
                .zip(&batch)
                .map(|(&(parent, _, _), c)| (self.partition.rows(parent), &c.cand.split))
                .collect();
            let preds = split_preds_batch(self.qm, &items);
            drop(items);
            if batch.len() >= self.pool.num_threads() * 2 {
                let partition = &self.partition;
                let splits_ro = &splits;
                let preds_ro = &preds;
                let trace = self.sink();
                self.pool.parallel_for(batch.len(), |i, w| {
                    let (parent, l, r) = splits_ro[i];
                    let _span = trace.map(|s| s.span(w, TracePhase::ApplySplit, parent, i as u32));
                    let pred = &preds_ro[i];
                    partition.apply_split(parent, l, r, &|pos, row| pred.goes_left(pos, row), None);
                });
            } else {
                for (i, &(parent, l, r)) in splits.iter().enumerate() {
                    let pred = &preds[i];
                    self.partition.apply_split(
                        parent,
                        l,
                        r,
                        &|pos, row| pred.goes_left(pos, row),
                        Some(self.pool),
                    );
                }
            }
            for &(_, l, r) in &splits {
                tree.node_mut(l).stats.count = self.partition.node_len(l) as u32;
                tree.node_mut(r).stats.count = self.partition.node_len(r) as u32;
            }
        }

        // The remaining leaf budget decides which histograms can still be
        // read: none once it is spent (these children can never split), and
        // otherwise only those of the `remaining` best-ranked candidates.
        let remaining = self.params.max_leaves() - *leaves;
        if remaining == 0 {
            let mut skipped = 0;
            for (&(_, l, r), pbuf) in splits.iter().zip(parent_bufs) {
                if let Some(pbuf) = pbuf {
                    self.hist_pool.release(pbuf);
                }
                skipped += u64::from(self.eligible(tree, l)) + u64::from(self.eligible(tree, r));
            }
            self.pool.profile().add_hist_builds_skipped(skipped);
            return true;
        }

        // Plan histogram jobs: fresh builds plus parent−sibling subtractions.
        // A parent too small to have been cached (the pool's rule, see
        // `hist::min_cached_rows`) comes back `None` like an evicted one,
        // and both its children are built from rows.
        let mut fresh: Vec<HistJob> = Vec::new();
        // (large_node, parent_buf, index of the small sibling in `fresh`,
        // index of the split in the batch).
        let mut subs: Vec<(NodeId, Vec<f64>, usize, usize)> = Vec::new();
        // Each fresh job's place in the queue's FIFO order, which breaks gain
        // ties and so shapes the tree: the smaller (or only) child of every
        // split in batch order, then the larger children in batch order —
        // whether derived or scanned, so the caching rule moves cost, never
        // a tie.
        let mut place: Vec<(bool, usize)> = Vec::new();
        for (i, (&(_, l, r), parent_buf)) in splits.iter().zip(parent_bufs).enumerate() {
            let (small, large) =
                if tree.node(l).stats.count <= tree.node(r).stats.count { (l, r) } else { (r, l) };
            let both = self.eligible(tree, l) && self.eligible(tree, r);
            match parent_buf {
                Some(pbuf) if both => {
                    fresh.push(HistJob { node: small, buf: self.hist_pool.alloc().zeroed() });
                    place.push((false, i));
                    subs.push((large, pbuf, fresh.len() - 1, i));
                }
                parent_buf => {
                    if let Some(pbuf) = parent_buf {
                        self.hist_pool.release(pbuf);
                    }
                    for node in [small, large] {
                        if self.eligible(tree, node) {
                            fresh.push(HistJob { node, buf: self.hist_pool.alloc().zeroed() });
                            place.push((both && node == large, i));
                        }
                    }
                }
            }
        }

        // BuildHist (the hotspot).
        {
            let _phase = PhaseSpan::begin(
                self.sink(),
                self.coord_lane(),
                TracePhase::BuildHist,
                batch[0].node,
                fresh.len() as u32,
                Some(&self.breakdown.build_hist_ns),
            );
            self.run_driver(grads, &mut fresh);
            if !subs.is_empty() {
                let fresh_ro: &[HistJob] = &fresh;
                struct SubSlot(*mut f64, usize, NodeId);
                unsafe impl Send for SubSlot {}
                unsafe impl Sync for SubSlot {}
                let slots: Vec<SubSlot> = subs
                    .iter_mut()
                    .map(|(large, buf, si, _)| SubSlot(buf.as_mut_ptr(), *si, *large))
                    .collect();
                let width = self.hist_pool.width();
                let trace = self.sink();
                self.pool.parallel_for(slots.len(), |i, w| {
                    let SubSlot(ptr, small_idx, large) = slots[i];
                    let _span = trace.map(|s| s.span(w, TracePhase::Reduce, large, i as u32));
                    // SAFETY: each sub owns its parent buffer exclusively.
                    let buf = unsafe { std::slice::from_raw_parts_mut(ptr, width) };
                    hist::subtract_in_place(buf, &fresh_ro[small_idx].buf);
                });
            }
        }

        // FindSplit on all children that got a histogram.
        let mut jobs: Vec<HistJob> = fresh;
        for (large, pbuf, _, i) in subs {
            jobs.push(HistJob { node: large, buf: pbuf });
            place.push((true, i));
        }
        let found = {
            let _phase = PhaseSpan::begin(
                self.sink(),
                self.coord_lane(),
                TracePhase::FindSplit,
                batch[0].node,
                jobs.len() as u32,
                Some(&self.breakdown.find_split_ns),
            );
            self.find_splits(tree, &jobs)
        };
        let mut queued: Vec<_> = place.into_iter().zip(jobs.into_iter().zip(found)).collect();
        queued.sort_unstable_by_key(|&(place, _)| place);
        for (_, (job, cand)) in queued {
            match cand {
                Some(cand) => {
                    let depth = tree.node(job.node).depth;
                    let key = queue.push(job.node, depth, cand);
                    let rows = self.partition.node_len(job.node);
                    self.hist_pool.cache_insert(job.node, rows, job.buf, key, remaining);
                }
                None => self.hist_pool.release(job.buf),
            }
        }
        true
    }

    /// Whether `node` may be split further.
    fn eligible(&self, tree: &Tree, node: NodeId) -> bool {
        let n = tree.node(node);
        n.depth < self.max_depth_limit() && n.stats.count >= 2
    }

    fn max_depth_limit(&self) -> u32 {
        match self.params.growth {
            GrowthMethod::Depthwise => self.params.tree_size,
            GrowthMethod::Leafwise => u32::MAX,
        }
    }

    /// Dispatches a batch of histogram jobs to the configured driver.
    fn run_driver(&mut self, grads: &[GradPair], jobs: &mut [HistJob]) {
        if jobs.is_empty() {
            return;
        }
        let use_mp = match self.params.mode {
            ParallelMode::DataParallel => false,
            ParallelMode::ModelParallel => true,
            // ASYNC's begin phase behaves like DP.
            ParallelMode::Async => false,
            ParallelMode::Sync => {
                let total_rows: usize = jobs.iter().map(|j| self.partition.node_len(j.node)).sum();
                let avg = total_rows / jobs.len().max(1);
                // (DP, MP, DP): DP while the frontier is narrow, DP again
                // once nodes are small, MP in between.
                jobs.len() >= self.pool.num_threads() / 2 && avg >= SYNC_SMALL_NODE_ROWS
            }
        };
        let ctx = DriverCtx {
            qm: self.qm,
            params: self.params,
            pool: self.pool,
            partition: &self.partition,
            grads,
        };
        if use_mp {
            drivers::build_hists_mp(&ctx, &mut self.scratch, jobs);
        } else {
            drivers::build_hists_dp(&ctx, &mut self.scratch, jobs);
        }
    }

    /// Finds the best split of every job's node, feature-chunk parallel.
    fn find_splits(&self, tree: &Tree, jobs: &[HistJob]) -> Vec<Option<SplitCandidate>> {
        let m = self.qm.n_features();
        if jobs.is_empty() || m == 0 {
            return vec![None; jobs.len()];
        }
        let t = self.pool.num_threads();
        let n_chunks = ((4 * t).div_ceil(jobs.len())).clamp(1, m);
        let chunk = m.div_ceil(n_chunks);
        let n_chunks = m.div_ceil(chunk);
        // Partial results per (job, chunk), written by exactly one task.
        struct Partials(*mut Option<SplitCandidate>);
        unsafe impl Send for Partials {}
        unsafe impl Sync for Partials {}
        impl Partials {
            fn get(&self) -> *mut Option<SplitCandidate> {
                self.0
            }
        }
        let mut partials: Vec<Option<SplitCandidate>> = vec![None; jobs.len() * n_chunks];
        let ptr = Partials(partials.as_mut_ptr());
        let mapper = self.qm.mapper();
        let settings = &self.settings;
        let mask = self.mask();
        let trace = self.sink();
        self.pool.parallel_for(jobs.len() * n_chunks, |i, w| {
            let job_idx = i / n_chunks;
            let c = i % n_chunks;
            let f_lo = c * chunk;
            let f_hi = (f_lo + chunk).min(m);
            let job = &jobs[job_idx];
            let _span = trace.map(|s| s.span(w, TracePhase::FindSplit, job.node, c as u32));
            let node = tree.node(job.node);
            let cand = crate::split::find_split_masked(
                &job.buf,
                &node.stats,
                mapper,
                f_lo..f_hi,
                settings,
                mask,
            );
            // SAFETY: slot `i` is written by exactly this task.
            unsafe { *ptr.get().add(i) = cand };
        });
        (0..jobs.len())
            .map(|j| {
                let mut best = None;
                for c in 0..n_chunks {
                    best = better_of(best, partials[j * n_chunks + c]);
                }
                best
            })
            .collect()
    }

    /// Adds each leaf's weight to its rows' predictions (group `offset` of
    /// a row-major `n x stride` score buffer).
    fn update_predictions(&self, tree: &Tree, preds: &mut [f32], stride: usize, offset: usize) {
        let leaf_ids: Vec<NodeId> = tree.leaf_ids().collect();
        struct Ptr(*mut f32);
        unsafe impl Send for Ptr {}
        unsafe impl Sync for Ptr {}
        impl Ptr {
            fn get(&self) -> *mut f32 {
                self.0
            }
        }
        let ptr = Ptr(preds.as_mut_ptr());
        let partition = &self.partition;
        self.pool.parallel_for(leaf_ids.len(), |i, _| {
            let id = leaf_ids[i];
            let w = tree.node(id).weight;
            // SAFETY: leaves own disjoint row sets.
            for &row in partition.rows(id) {
                unsafe { *ptr.get().add(row as usize * stride + offset) += w };
            }
        });
    }
}

/// How a [`SplitPred`] resolves a row's routing bin.
enum SplitRoute<'a> {
    /// Dense u8 column borrow (in-core fast path).
    Dense(&'a [u8]),
    /// Bundled synthetic column borrow plus the feature's slot window.
    Bundled { col: &'a [u8], lo: u16, width: u16 },
    /// Per-row CSR binary search (in-core sparse).
    Sparse(&'a QuantizedMatrix),
    /// The node's effective routing bins by position in its row list,
    /// gathered chunk by chunk up front (out-of-core stores).
    Gathered(Vec<u8>),
}

impl<'a> SplitRoute<'a> {
    /// The route that borrows feature `f`'s column from a store resident as
    /// one matrix — nothing to gather, nothing to copy. One of the two
    /// places that ask for the in-core *representation*
    /// ([`QuantStore::as_single`]): a borrowed column is not a row read, so
    /// it has no chunk sweep to go through.
    fn borrowed(store: &'a dyn QuantStore, f: usize) -> Option<Self> {
        let qm = store.as_single()?;
        Some(if let Some(col) = qm.dense_col(f) {
            SplitRoute::Dense(col)
        } else if qm.is_bundled() {
            let slot = qm.mapper().bundles().expect("bundle map").slot(f);
            let col = qm.bundled_col(slot.col as usize).expect("bundled storage");
            SplitRoute::Bundled { col, lo: slot.offset, width: slot.width }
        } else {
            SplitRoute::Sparse(qm)
        })
    }
}

/// The left/right routing predicate for one split over binned data.
pub(crate) struct SplitPred<'a> {
    f: usize,
    bin: u8,
    default_left: bool,
    route: SplitRoute<'a>,
}

/// Builds the routing predicate for `split` over a node whose (ascending)
/// row list is `rows`: [`split_preds_batch`] for a frontier of one.
pub(crate) fn split_pred<'a>(
    store: &'a dyn QuantStore,
    rows: &[u32],
    split: &crate::tree::SplitData,
) -> SplitPred<'a> {
    split_preds_batch(store, &[(rows, split)])
        .pop()
        .expect("one predicate per split")
}

/// Builds the routing predicates for a whole frontier of splits at once,
/// each over its node's (ascending) row list. A store resident as one
/// matrix lends its routing columns (O(1) per split, rows unused); any other
/// store gathers every node's routing bins in ONE chunk sweep — per-node
/// gathers would pin each node's full chunk span once per split, which under
/// a resident budget reloads most of the cache for every split in the batch
/// — so the partition hot loop never pins chunks. Call this BEFORE
/// `RowPartition::apply_split` mutates the nodes' spans: the sweep reads the
/// row lists in place, and the gathered bins stay valid by position.
pub(crate) fn split_preds_batch<'a>(
    store: &'a dyn QuantStore,
    items: &[(&[u32], &crate::tree::SplitData)],
) -> Vec<SplitPred<'a>> {
    let mut preds: Vec<SplitPred<'a>> = items
        .iter()
        .map(|&(rows, split)| {
            let f = split.feature as usize;
            let route = SplitRoute::borrowed(store, f)
                .unwrap_or_else(|| SplitRoute::Gathered(Vec::with_capacity(rows.len())));
            SplitPred { f, bin: split.bin, default_left: split.default_left, route }
        })
        .collect();
    if preds.iter().any(|p| matches!(p.route, SplitRoute::Gathered(_))) {
        let cursors: Vec<Rows<'_>> = items.iter().map(|&(rows, _)| Rows::List(rows)).collect();
        sweep_chunks(
            store,
            &cursors,
            |_| {},
            |run| {
                let pred = &mut preds[run.cursor];
                if let SplitRoute::Gathered(bins) = &mut pred.route {
                    run.slab.route_bins_for(pred.f, run.rows.list(), bins);
                }
            },
        );
    }
    preds
}

impl SplitPred<'_> {
    /// Whether `row` routes left. Every route resolves the row to its
    /// feature-local effective bin (or [`MISSING_BIN`] when absent), then
    /// applies one shared `b <= bin` / default-direction rule, so all four
    /// storage paths route identically. `pos` is the row's index within the
    /// split node's span (what [`RowPartition::apply_split`] passes); the
    /// gathered route resolves it positionally — a by-row binary search per
    /// routed row dominated out-of-core ApplySplit time.
    pub(crate) fn goes_left(&self, pos: usize, row: u32) -> bool {
        let b = match &self.route {
            SplitRoute::Dense(col) => col[row as usize],
            SplitRoute::Bundled { col, lo, width } => {
                // The stored bin encodes which member feature is present:
                // only values inside `f`'s slot window belong to it,
                // anything else means `f` is absent in this row.
                let b = u16::from(col[row as usize]);
                if b.wrapping_sub(*lo) < *width {
                    (b - lo) as u8
                } else {
                    MISSING_BIN
                }
            }
            SplitRoute::Sparse(qm) => {
                let (cols, bins) = qm.sparse_row(row as usize).expect("sparse storage");
                match cols.binary_search(&(self.f as u32)) {
                    Ok(i) => bins[i],
                    Err(_) => MISSING_BIN,
                }
            }
            SplitRoute::Gathered(bins) => bins[pos],
        };
        if b == MISSING_BIN {
            self.default_left
        } else {
            b <= self.bin
        }
    }
}

#[cfg(test)]
mod tests;
