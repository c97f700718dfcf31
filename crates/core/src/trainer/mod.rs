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
//!
//! Whatever the mode, a split's children are expanded by one pipeline: the
//! growth state ([`frontier`]) claims the candidate, plans which child is
//! scanned and which derived, and files the results; one executor
//! ([`expand`]) runs the batch, its policy picking only how a scanned
//! child's lanes are *filled*; and one tile body does `parent − small` →
//! FindSplit on the filled lanes. A DP
//! batch is BuildHist into full-width job buffers (+ the replica reduction)
//! and one finish region of ⟨job, feature-chunk⟩ tiles. An MP batch is one
//! region: each ⟨node-block, feature-block⟩ task scans, subtracts and
//! searches its tile while it is in cache, and a child gets a full-width
//! buffer only if its histogram can be filed. An ASYNC node task row-scans
//! its children's buffers and finishes each as one tile, on the spot.

mod async_mode;
mod drivers;
mod frontier;
mod telemetry;

pub use drivers::{
    build_hists_dp, expand, DerivedSibling, DriverCtx, DriverScratch, HistJob, SplitSearch,
    TileJob, TileOutcome,
};

use crate::ensemble::GbdtModel;
use crate::hist::HistPool;
use crate::params::{BatchPolicy, TrainParams};
use crate::partition::RowPartition;
use crate::split::{SplitCandidate, SplitSettings};
use crate::tree::{NodeId, NodeStats, Tree};
use frontier::{Children, Frontier};
use harp_binning::{
    sweep_chunks, BinningConfig, LayoutOptions, QuantStore, QuantizedMatrix, Rows, MISSING_BIN,
};
use harp_data::Dataset;
use harp_metrics::{
    gauges, BreakdownReport, ConvergenceTrace, LedgerRecord, PlanStats, RunLedger, WorkerSkewReport,
};
use harp_parallel::{
    PhaseClock, PhaseSpan, Profile, ProfileReport, ThreadPool, TracePhase, TraceSink, TraceSnapshot,
};
use std::sync::Arc;
use std::time::Instant;
use telemetry::{RoundLedger, Totals};

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
    /// Panics with [`try_train_store_grouped`](Self::try_train_store_grouped)'s
    /// message if the data is rejected.
    pub fn train_store(
        &self,
        store: &dyn QuantStore,
        labels: &[f32],
        eval: Option<EvalOptions<'_>>,
    ) -> TrainOutput {
        self.try_train_store_grouped(store, labels, None, None, eval)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The full store-mediated entry point, which every other one forwards
    /// to: optional per-row sample weights (they scale each row's gradient
    /// pair) plus optional consecutive query-group sizes (required by
    /// listwise objectives such as LambdaRank and by the `ndcg@k` metric).
    /// The one check of the training and eval data happens here.
    ///
    /// # Errors
    /// Returns a message for unusable data: more rows than one
    /// [`RowPartition`] holds, a label, weight or query-group count that does
    /// not match `store.n_rows()`, or whatever the objective's own validation
    /// rejects.
    pub fn try_train_store_grouped(
        &self,
        store: &dyn QuantStore,
        labels: &[f32],
        weights: Option<&[f32]>,
        query_groups: Option<&[u32]>,
        eval: Option<EvalOptions<'_>>,
    ) -> Result<TrainOutput, String> {
        let qm = store;
        let params = &self.params;
        let n = qm.n_rows();
        RowPartition::check_rows(n).map_err(|e| format!("training data rejected: {e}"))?;
        for (what, len) in [("label", Some(labels.len())), ("weight", weights.map(<[f32]>::len))] {
            if let Some(len) = len.filter(|&len| len != n) {
                return Err(format!(
                    "training data rejected: one {what} per row required, got {len} {what}s for {n} rows"
                ));
            }
        }
        params
            .loss
            .validate_data(labels, query_groups)
            .map_err(|e| format!("training data rejected by {}: {e}", params.loss.name()))?;
        // Listwise objectives have checked this already; row-wise ones
        // ignore the groups, but sizes that miss the row count are a caller
        // error either way.
        let grouped_rows = query_groups.map(|qg| qg.iter().map(|&s| s as usize).sum::<usize>());
        if let Some(total) = grouped_rows.filter(|&total| total != n) {
            return Err(format!(
                "training data rejected: query-group sizes sum to {total} but the data has {n} rows"
            ));
        }
        if let Some(e) = &eval {
            params
                .loss
                .validate_data(&e.data.labels, e.data.query_groups.as_deref())
                .map_err(|err| format!("eval data rejected by {}: {err}", params.loss.name()))?;
        }
        let profile = Arc::new(Profile::new());
        let mut pool = ThreadPool::with_profile(params.n_threads, Arc::clone(&profile));
        // Installed only when tracing is requested; every recording site
        // downstream branches on `pool.trace()`, so the disabled path
        // performs no extra clock reads.
        if params.trace.enabled {
            pool.install_trace(TraceSink::new(params.n_threads));
        }
        let sink = pool.trace().map(Arc::as_ref);
        let clock = PhaseClock::new();
        let groups = params.loss.n_groups();

        let base_scores = params.loss.base_scores(labels);
        // Row-major n x groups raw scores.
        let mut preds = vec![0.0f32; n * groups];
        for r in 0..n {
            preds[r * groups..(r + 1) * groups].copy_from_slice(&base_scores);
        }
        let mut engine = TreeEngine::new(qm, params, &pool, &clock);

        // Every figure the run reports is a view of one `read_totals()`; the
        // ledger (when on) holds the previous round's read as its one
        // baseline. Gauges are only allocated (and pools only pay the
        // per-event `fetch_add`) when the ledger is on.
        let io_start = qm.io_stats();
        let read_totals = || Totals::read(&pool, &clock, qm, &io_start);
        // A chunked store also accounts its resident decoded slab bytes,
        // whose high-water mark proves a --mem-budget run stayed under its
        // budget.
        let chunked = qm.as_single().is_none();
        let mut ledger = params.ledger.enabled.then(|| RoundLedger::new(chunked, read_totals()));
        let mut gauge = |name| ledger.as_mut().map(|l| l.mem.gauge(name));
        // Cache hit/miss/eviction counters are cheap relaxed atomics; wire
        // them unconditionally so whole-run profile reports always have them.
        engine.frontier.hists.instrument(
            Arc::clone(&profile),
            gauge(gauges::HIST_POOL),
            gauge(gauges::HIST_CACHE),
        );
        if let Some(g) = gauge(gauges::SCRATCH_ARENA) {
            engine.scratch.set_replica_gauge(g);
        }
        // The decoded-equivalent bytes of the store: the dominant allocation
        // of an in-core run.
        if let Some(g) = gauge(gauges::QUANT_STORE) {
            g.observe(qm.storage_bytes() as u64);
        }

        // Record the layout decisions made at quantization time plus the SIMD
        // tier the kernels will dispatch to. Placed after the ledger's
        // baseline read so the round-1 delta carries them.
        let layout = qm.layout_stats();
        profile.add_layout_events(
            layout.cols_u4,
            layout.cols_bundled,
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
            let t0 = Instant::now();
            for group in 0..groups {
                {
                    let _phase = engine.phase(TracePhase::Gradients, 0, iter as u32);
                    let scaling = crate::loss::RowScaling {
                        weights,
                        subsample: params.subsample,
                        seed: params.seed ^ (iter as u64).wrapping_mul(0x9E37_79B9),
                    };
                    crate::objective::compute_gradients_group(
                        params.loss,
                        &pool,
                        &preds,
                        labels,
                        query_groups,
                        group,
                        &scaling,
                        engine.partition.gradients_mut(),
                    );
                }
                engine.sample_features(params, iter as u64, group as u64);
                let tree = engine.build_tree();
                {
                    let _phase = engine.phase(TracePhase::Other, 0, iter as u32);
                    engine.update_predictions(&tree, &mut preds, groups, group);
                }
                tree_shapes.push(TreeShape {
                    n_leaves: tree.n_leaves() as u32,
                    max_depth: tree.max_depth(),
                });
                trees.push(tree);
            }
            let elapsed = t0.elapsed();
            let secs = elapsed.as_secs_f64();
            profile.add_wall_ns(elapsed.as_nanos() as u64);
            train_secs += secs;
            per_tree_secs.push(secs);

            // Validation (outside the timed region). Early stopping raises a
            // flag instead of breaking so the round's ledger record is still
            // pushed below.
            let mut round_metric: Option<f64> = None;
            let mut stop = false;
            if let Some(e) = &eval {
                // Every round, so the next evaluation uses all trees: each
                // new tree's contribution goes into its group of the eval
                // scores through the flat blocked engine (the Predict phase;
                // bitwise identical to summing `tree.predict` per row).
                let flat_gauge = ledger.as_mut().map(|l| l.mem.gauge(gauges::FLAT_FOREST));
                for (group, tree) in trees[trees.len() - groups..].iter().enumerate() {
                    let flat = crate::predict::FlatForest::single_tree(tree, e.data.n_features());
                    if let Some(g) = &flat_gauge {
                        g.observe(flat.memory_bytes() as u64);
                    }
                    let mut predictor =
                        crate::predict::Predictor::new(&flat).with_breakdown(&clock);
                    if let Some(sink) = sink {
                        predictor = predictor.with_trace(sink);
                    }
                    predictor.accumulate_raw(&e.data.features, &mut eval_preds, groups, group);
                }
                if (iter + 1) % e.every.max(1) == 0 || iter + 1 == params.n_trees {
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
                }
            }

            // Ledger hook: this round is one read minus the previous one.
            if let Some(l) = &mut ledger {
                l.mem.gauge(gauges::MEMBUF).observe(engine.partition.membuf_bytes() as u64);
                l.mem.gauge(gauges::PARTITION).observe(engine.partition.index_bytes() as u64);
                if chunked {
                    let io = qm.io_stats();
                    let resident = l.mem.gauge(gauges::CHUNK_RESIDENT);
                    resident.observe(io.resident_bytes);
                    resident.observe_peak(io.resident_high_water);
                }
                let shapes = &tree_shapes[tree_shapes.len() - groups..];
                let (pops, popped) = engine.take_pop_stats();
                let (plan_batches, plan_tasks, ext) = engine.scratch.take_plan_stats();
                l.push(
                    read_totals(),
                    LedgerRecord {
                        round: (iter + 1) as u64,
                        elapsed_secs: train_secs,
                        round_secs: secs,
                        eval_metric: round_metric,
                        n_leaves: shapes.iter().map(|s| s.n_leaves).max().unwrap_or(0),
                        max_depth: shapes.iter().map(|s| s.max_depth).max().unwrap_or(0),
                        mean_k_per_pop: if pops > 0 { popped as f64 / pops as f64 } else { 0.0 },
                        plan: PlanStats {
                            batches: plan_batches,
                            tasks: plan_tasks,
                            row_blk: ext.row_blk as u64,
                            node_blk: ext.node_blk as u64,
                            feature_blk: ext.feature_blk as u64,
                            bin_blk: ext.bin_blk as u64,
                            auto: ext.auto,
                        },
                        ..Default::default()
                    },
                );
            }
            if stop {
                break;
            }
        }

        let (span_trace, worker_skew) = match sink {
            Some(s) => {
                let snap = s.snapshot();
                let skew = WorkerSkewReport::from_phase_ns(&snap.worker_phase_ns());
                (Some(snap), Some(skew))
            }
            None => (None, None),
        };
        let totals = read_totals();
        let diagnostics = Diagnostics {
            train_secs,
            per_tree_secs,
            breakdown: totals.breakdown(),
            profile: totals.counters.report(params.n_threads),
            trace,
            best_iteration,
            tree_shapes,
            span_trace,
            worker_skew,
            ledger: ledger.map(|l| l.ledger),
        };
        Ok(TrainOutput {
            model: GbdtModel::new(trees, base_scores, params.loss, qm.n_features()),
            diagnostics,
        })
    }
}

/// Per-tree construction engine; buffers persist across trees.
struct TreeEngine<'a> {
    qm: &'a dyn QuantStore,
    params: &'a TrainParams,
    pool: &'a ThreadPool,
    /// The run's phase clock, fed by [`phase`](Self::phase).
    clock: &'a PhaseClock,
    partition: RowPartition,
    /// The growth queue, the histogram pool and the leaf count.
    frontier: Frontier<'a>,
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
    fn new(
        qm: &'a dyn QuantStore,
        params: &'a TrainParams,
        pool: &'a ThreadPool,
        clock: &'a PhaseClock,
    ) -> Self {
        let max_nodes = 2 * params.max_leaves() + 8;
        Self {
            qm,
            params,
            pool,
            clock,
            partition: RowPartition::new(qm.n_rows(), max_nodes, params.use_membuf),
            frontier: Frontier::new(
                params,
                pool.profile(),
                // Subtraction is the cache's only reader.
                HistPool::for_store(
                    qm,
                    if params.hist_subtraction { crate::hist::HIST_CACHE_BYTES } else { 0 },
                ),
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
        }
    }

    /// The span ledger installed on the pool, if tracing is enabled. The
    /// returned borrow is tied to the pool, not `self`, so spans can stay
    /// open across `&mut self` calls.
    fn sink(&self) -> Option<&'a TraceSink> {
        self.pool.trace().map(Arc::as_ref)
    }

    /// Times a coordinator-side phase: the interval lands in the run's
    /// clock and, when tracing, as a span on the coordinator lane (the one
    /// after the workers'). Barrier modes thereby attribute
    /// coordinator-inclusive wall time.
    fn phase(&self, phase: TracePhase, node: u32, block: u32) -> PhaseSpan<'a> {
        let coord = self.pool.num_threads();
        PhaseSpan::begin(self.sink(), coord, phase, node, block, Some(self.clock))
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

    /// Grows one tree over the gradients the objective wrote into
    /// `self.partition.gradients_mut()`.
    fn build_tree(&mut self) -> Tree {
        self.partition.start_tree();
        // Row order, whichever array holds the round's gradients.
        let grads = match self.partition.grads(0) {
            [] => self.partition.global_grads(),
            membuf => membuf,
        };
        let mut root_stats = NodeStats { g: 0.0, h: 0.0, count: grads.len() as u32 };
        for gp in grads {
            root_stats.g += f64::from(gp[0]);
            root_stats.h += f64::from(gp[1]);
        }
        let mut tree = Tree::new_root(root_stats);

        // Root histogram + split.
        let mut root = Children::root(root_stats);
        let found = self.expand(&mut root);
        self.frontier.file(root, found);

        // Barrier batches until the queue is spent — or, under ASYNC, until
        // the frontier is as wide as the pool, when the rest of the tree
        // grows barrier-free.
        while self.frontier.open() {
            if self.policy(self.frontier.width(), 0) == BatchPolicy::NodeTasks {
                async_mode::run_async(self, &mut tree);
                break;
            }
            self.grow_one_batch(&mut tree);
        }
        self.frontier.reset();

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

    /// Claims one batch off an open frontier, splits it, and expands and
    /// files the children the leaf budget still pays for.
    fn grow_one_batch(&mut self, tree: &mut Tree) {
        let batch = self.frontier.claim(self.params.effective_k(), &self.partition);
        self.pops += 1;
        self.popped += batch.len() as u64;

        // ApplySplit: update the tree, then partition the rows of the whole
        // batch as one region of ⟨node, row-block⟩ tasks (inline when the
        // batch holds few rows).
        let mut splits: Vec<(NodeId, NodeId, NodeId)> = Vec::with_capacity(batch.len());
        {
            let _phase = self.phase(TracePhase::ApplySplit, batch[0].0.node, batch.len() as u32);
            for (c, _) in &batch {
                let (l, r) = tree.apply_split(c.node, c.cand.split, c.cand.left, c.cand.right);
                splits.push((c.node, l, r));
            }
            // Routing bins for the whole frontier come from one chunk sweep.
            let items: Vec<(&[u32], &crate::tree::SplitData)> = batch
                .iter()
                .map(|(c, _)| (self.partition.rows(c.node), &c.cand.split))
                .collect();
            let preds = split_preds_batch(self.qm, &items);
            drop(items);
            self.partition.apply_splits(
                &splits,
                &|i, pos, row| preds[i].goes_left(pos, row),
                Some(self.pool),
            );
            for &(_, l, r) in &splits {
                tree.node_mut(l).stats.count = self.partition.node_len(l) as u32;
                tree.node_mut(r).stats.count = self.partition.node_len(r) as u32;
            }
        }

        let mut children = Children::default();
        for (&(_, l, r), (c, parent)) in splits.iter().zip(batch) {
            let kids = [l, r].map(|node| (node, tree.node(node).stats));
            self.frontier.children(parent, c.depth + 1, kids, &mut children);
        }
        let found = self.expand(&mut children);
        self.frontier.file(children, found);
    }

    /// BuildHist (the hotspot) and FindSplit for one batch of planned
    /// children: `found[j]` is the best split of job `j`'s node and of its
    /// derived sibling. The mode's policy for the batch picks how the
    /// scanned children's lanes are filled, and whether a child that cannot
    /// be filed gets a full-width buffer at all; `drivers::expand` does the
    /// rest.
    fn expand(&mut self, children: &mut Children) -> Vec<[Option<SplitCandidate>; 2]> {
        let jobs = &mut children.jobs[..];
        let Some(head) = jobs.first().map(|j| j.node) else {
            return Vec::new();
        };
        let total_rows: usize = jobs.iter().map(|j| self.partition.node_len(j.node)).sum();
        // A histogram batch is a barrier construct: ASYNC builds one only in
        // its begin phase, which is DP whatever the batch's width.
        let policy = match self.policy(jobs.len(), total_rows) {
            BatchPolicy::Exclusive => BatchPolicy::Exclusive,
            _ => BatchPolicy::Replicated,
        };
        let ctx = DriverCtx {
            qm: self.qm,
            params: self.params,
            pool: self.pool,
            partition: &self.partition,
            grads: self.partition.global_grads(),
        };
        let search = split_search(&self.settings, &self.feature_mask);

        // An Exclusive batch holds a full-width buffer only for a histogram
        // that can be filed, and only the parent's own for a sibling that
        // can.
        let fused = policy == BatchPolicy::Exclusive;
        let remaining = self.frontier.remaining();
        let hists = &mut self.frontier.hists;
        for job in jobs.iter_mut() {
            let full = |node| !fused || hists.files(ctx.partition.node_len(node), remaining);
            if let Some(sibling) = &mut job.sibling {
                sibling.in_place = full(sibling.node);
            }
            job.buf = full(job.node).then(|| hists.alloc().zeroed());
        }

        let wall_start = Instant::now();
        let start_ns = self.sink().map(TraceSink::now_ns);
        let TileOutcome { found, fill_ns, build_ns, find_ns } =
            drivers::expand(&ctx, &mut self.scratch, jobs, search, policy, None);
        // A Replicated fill is all BuildHist; the tile region's wall goes to
        // the clock (and, tracing, the coordinator lane) in the proportion
        // the workers spent their time.
        let wall = wall_start.elapsed().as_nanos() as u64;
        let tiles = wall - fill_ns;
        let build = fill_ns
            + if build_ns + find_ns == 0 {
                tiles
            } else {
                (u128::from(tiles) * u128::from(build_ns) / u128::from(build_ns + find_ns)) as u64
            };
        self.clock.add(TracePhase::BuildHist, build);
        self.clock.add(TracePhase::FindSplit, wall - build);
        if let (Some(sink), Some(t0)) = (self.sink(), start_ns) {
            let coord = sink.coordinator_lane();
            let n = jobs.len() as u32;
            sink.record(coord, TracePhase::BuildHist, head, n, t0, t0 + build);
            sink.record(coord, TracePhase::FindSplit, head, n, t0 + build, t0 + wall);
        }
        found
    }

    /// Table II for a frontier of `width` nodes holding `rows` rows in all.
    fn policy(&self, width: usize, rows: usize) -> BatchPolicy {
        self.params
            .mode
            .batch_policy(width, rows / width.max(1), self.pool.num_threads())
    }

    /// Adds each leaf's weight to its rows' predictions (group `offset` of
    /// a row-major `n x stride` score buffer).
    fn update_predictions(&self, tree: &Tree, preds: &mut [f32], stride: usize, offset: usize) {
        let leaf_ids: Vec<NodeId> = tree.leaf_ids().collect();
        struct Ptr(*mut f32);
        // SAFETY: the pointer is only dereferenced inside the region below,
        // while `preds` stays mutably borrowed by this call, and at indices
        // no two tasks share (see the loop).
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
            // SAFETY: leaves own disjoint row sets — their row lists are a
            // permutation of `0..n` (the partition's spans tile the planes;
            // `leaves_hold_a_permutation_of_the_rows_after_every_tree` pins
            // it in all four modes) — so no two tasks touch one score, and
            // `row * stride + offset < n * stride = preds.len()`.
            for &row in partition.rows(id) {
                unsafe { *ptr.get().add(row as usize * stride + offset) += w };
            }
        });
    }
}

/// FindSplit's inputs for the tree being grown (`mask` empty: every feature
/// is allowed).
fn split_search<'s>(settings: &'s SplitSettings, mask: &'s [bool]) -> SplitSearch<'s> {
    SplitSearch { settings, mask: (!mask.is_empty()).then_some(mask) }
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
