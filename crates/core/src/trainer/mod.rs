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
//! * `Sync` — MP for a batch of at least `threads / 2` nodes (integer
//!   division) averaging at least 512 rows, DP for any other: DP while the
//!   batch is narrower than half the pool, DP again once nodes shrink below
//!   512 rows (the paper's "mix mode (DP, MP, DP)"). At `threads ≤ 3` the
//!   width test always passes, so even the root batch is MP when it holds
//!   512 rows or more;
//! * `Async` — DP batches until the queue is as wide as the pool, then the
//!   barrier-free node-task phase (`async_mode`).
//!
//! Whatever the mode, a split is taken by one step (`TreeEngine::step`), on
//! the barrier loop's batch of `K` claims or on an ASYNC node task's batch
//! of one: the growth state ([`frontier`]), which owns the tree, claims the
//! candidate and applies it, ApplySplit partitions the rows, the frontier
//! plans which child is scanned and which derived, and files the results;
//! one executor
//! ([`expand`]) runs the batch, its [`Accumulation`](crate::plan::Accumulation) picking only how a
//! scanned child's lanes are *filled*; and one tile body does `parent − small` →
//! FindSplit on the filled lanes. A DP
//! batch is one region of schedule slots, each sweeping its tasks' rows
//! into full-width job buffers and finishing the one-row-block jobs' tiles
//! it filled, plus, when a job spans several row blocks, one region of
//! ⟨job, feature-chunk⟩ tiles that fold its replicas and finish it. An MP
//! batch is one region: each ⟨node-block, feature-block⟩ task scans, subtracts and
//! searches its tile while it is in cache, and a child gets a full-width
//! buffer only if its histogram can be filed. An ASYNC node task's batch is
//! a DP batch planned for one schedule slot — no row blocks, so no replica
//! and no fold — that runs as that slot on the task's own worker.

mod async_mode;
mod drivers;
mod frontier;
mod metric;
mod telemetry;

pub use drivers::{
    expand, DerivedSibling, DriverCtx, DriverScratch, SplitSearch, TileJob, TileOutcome,
};
pub use metric::EvalMetric;

use crate::ensemble::GbdtModel;
use crate::hist::{HistPool, StaleHist};
use crate::params::TrainParams;
use crate::partition::RowPartition;
use crate::split::SplitSettings;
use crate::tree::{NodeId, NodeStats, Tree};
use frontier::{Children, Claim, Frontier};
use harp_binning::{sweep_chunks, BinningConfig, QuantStore, QuantizedMatrix, Rows, MISSING_BIN};
use harp_data::{Dataset, FeatureMatrix};
use harp_metrics::{
    BreakdownReport, ConvergenceTrace, LedgerRecord, MemTable, RunLedger, WorkerSkewReport,
};
use harp_parallel::{
    PhaseClock, PhaseSpan, Profile, ProfileReport, SpinMutex, SpinMutexGuard, ThreadPool,
    TracePhase, TraceSink, TraceSnapshot,
};
use std::sync::Arc;
use std::time::Instant;
use telemetry::{RoundLedger, Totals};

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
    /// Validation trace, when an eval set was provided; its
    /// [`best_point`](ConvergenceTrace::best_point) is the best round.
    pub trace: Option<ConvergenceTrace>,
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
}

impl GbdtTrainer {
    /// Creates a trainer after validating `params`.
    ///
    /// # Errors
    /// Returns the validation message for inconsistent parameters.
    pub fn new(params: TrainParams) -> Result<Self, String> {
        params.validate()?;
        Ok(Self { params })
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

    /// Like [`train_with_eval`](Self::train_with_eval) but with the data
    /// checks surfaced as an error instead of a panic (bad labels, missing
    /// query groups, an eval metric that does not fit) — the CLI-friendly
    /// entry point.
    ///
    /// # Errors
    /// Returns [`try_train_store_grouped`](Self::try_train_store_grouped)'s
    /// message for unusable data.
    pub fn try_train_with_eval(
        &self,
        dataset: &Dataset,
        eval: Option<EvalOptions<'_>>,
    ) -> Result<TrainOutput, String> {
        let qm = QuantizedMatrix::from_matrix(&dataset.features, BinningConfig::default());
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
    /// not match `store.n_rows()`, a weight that is not finite and
    /// non-negative, whatever the objective's own validation rejects, an
    /// eval metric that does not fit the objective or the eval set
    /// ([`EvalMetric::check`]), or a dense eval matrix narrower than `store`
    /// ([`fits_width`](crate::predict::fits_width): a narrower sparse one is
    /// scored as it is, its absent columns missing). Each is rejected
    /// before any tree is built.
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
        let mut rows = weights.unwrap_or_default().iter().enumerate();
        if let Some((i, w)) = rows.find(|(_, w)| !(w.is_finite() && **w >= 0.0)) {
            return Err(format!(
                "training data rejected: weights must be finite and non-negative; row {i} has {w}"
            ));
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
            let (rows, grouped) = (e.data.n_rows(), e.data.query_groups.is_some());
            e.metric
                .check(params.loss, rows, grouped)
                .map_err(|err| format!("eval data rejected: {err}"))?;
            params
                .loss
                .validate_data(&e.data.labels, e.data.query_groups.as_deref())
                .map_err(|err| format!("eval data rejected by {}: {err}", params.loss.name()))?;
            let features = &e.data.features;
            let sparse = matches!(features, FeatureMatrix::Sparse(_));
            if !crate::predict::fits_width(features.n_cols(), sparse, qm.n_features()) {
                return Err(format!(
                    "eval data rejected: it has {} features but the training data has {}",
                    features.n_cols(),
                    qm.n_features()
                ));
            }
        }
        // Whatever the caller freed before this call (set-up's temporaries,
        // an earlier run) leaves the resident set here, so the run's peak
        // counts the bytes some part of the program still holds.
        release_free_heap();
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
        let mut preds = base_scores.repeat(n);
        // The run's byte gauges, written whether or not the ledger reads
        // them.
        let mem = Arc::new(MemTable::default());
        let mut engine = TreeEngine::new(qm, params, &pool, &clock, &mem);
        let mut scratch = DriverScratch::new();

        // Every figure the run reports is a view of one `read_totals()`; the
        // ledger (when on) holds the previous round's read as its one
        // baseline.
        let io_start = qm.io_stats();
        let read_totals = || Totals::read(&pool, &clock, qm, &io_start);
        // A chunked store also accounts its resident decoded slab bytes,
        // whose high-water mark proves a --mem-budget run stayed under its
        // budget.
        let chunked = qm.as_single().is_none();
        let mut ledger = params.ledger.enabled.then(|| RoundLedger::new(read_totals()));
        // The decoded-equivalent bytes of the store: the dominant allocation
        // of an in-core run. A sparse store counts its CSR whether or not a
        // row read has built it (an MP run never does), so the gauge is a
        // property of the data, not of the mode.
        mem.quant_store.observe(qm.storage_bytes() as u64);

        // Record the CPU's vector tier. Placed after the ledger's baseline
        // read so the round-1 delta carries it.
        profile.set_simd_tier(crate::kernels::simd_tier().as_u64());

        // Evaluation state.
        let mut trace = eval.as_ref().map(|e| ConvergenceTrace::new(e.metric.higher_is_better()));
        let mut eval_preds =
            eval.as_ref().map_or_else(Vec::new, |e| base_scores.repeat(e.data.n_rows()));

        let mut trees: Vec<Tree> = Vec::with_capacity(params.n_trees);
        let mut per_tree_secs = Vec::with_capacity(params.n_trees);
        let mut tree_shapes = Vec::with_capacity(params.n_trees);
        let mut train_secs = 0.0f64;

        for iter in 0..params.n_trees {
            let t0 = Instant::now();
            for group in 0..groups {
                {
                    let _phase = engine.phase(None, TracePhase::Gradients, 0, iter as u32);
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
                let tree = engine.build_tree(&mut scratch);
                {
                    let _phase = engine.phase(None, TracePhase::Other, 0, iter as u32);
                    engine.partition.add_leaf_scores(engine.pool, &tree, &mut preds, groups, group);
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
                for (group, tree) in trees[trees.len() - groups..].iter().enumerate() {
                    let flat = crate::predict::FlatForest::single_tree(tree, qm.n_features());
                    mem.flat_forest.observe(flat.memory_bytes() as u64);
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
                    let trace = trace.as_mut().expect("set with `eval`");
                    let improved = trace.record(iter + 1, train_secs, metric);
                    round_metric = Some(metric);
                    stop = !improved
                        && e.early_stopping_rounds.is_some_and(|r| trace.evals_since_best() >= r);
                }
            }

            mem.membuf.observe(engine.partition.membuf_bytes() as u64);
            mem.partition.observe(engine.partition.index_bytes() as u64);
            if chunked {
                let io = qm.io_stats();
                mem.chunk_resident.observe(io.resident_bytes);
                mem.chunk_resident.observe_peak(io.resident_high_water);
            }
            // Ledger hook: this round is one read minus the previous one.
            if let Some(l) = &mut ledger {
                let shapes = &tree_shapes[tree_shapes.len() - groups..];
                let (pops, popped) = engine.take_pop_stats();
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
                        mem: mem.records(chunked),
                        ..Default::default()
                    },
                );
            }
            if stop {
                break;
            }
        }

        let totals = read_totals();
        let span_trace = sink.map(TraceSink::snapshot);
        let worker_skew = sink.map(|_| totals.worker_skew());
        let diagnostics = Diagnostics {
            train_secs,
            per_tree_secs,
            breakdown: totals.breakdown(),
            profile: totals.counters.report(params.n_threads),
            trace,
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

/// Hands the allocator's free pages back to the OS: glibc's
/// `malloc_trim(0)`, which returns every whole free page of every arena,
/// not only the top of the main heap that `free` trims on its own. Called
/// once per training call, after set-up and before the working set is
/// built; a no-op where the allocator is not glibc's.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointer and touches only memory the
        // allocator owns and no live allocation uses, under each arena's own
        // lock, so it is sound at any moment and on any thread, with other
        // threads allocating or not. Its return value (whether any memory
        // went back) needs no answer.
        unsafe { malloc_trim(0) };
    }
}

/// Per-tree construction engine; buffers persist across trees.
struct TreeEngine<'a> {
    qm: &'a dyn QuantStore,
    params: &'a TrainParams,
    pool: &'a ThreadPool,
    /// The run's phase clock, fed by [`phase`](Self::phase).
    clock: &'a PhaseClock,
    /// The run's byte gauges.
    mem: &'a MemTable,
    partition: RowPartition,
    /// The tree being grown, the growth queue, the histogram pool and the
    /// leaf count, behind the lock ASYNC's node tasks share.
    frontier: SpinMutex<Frontier<'a>>,
    /// One driver scratch per pool worker, for the ASYNC node tasks that
    /// worker runs: only its own worker locks one, so the lock is never
    /// contended, and the arena and plan tables outlive the tasks.
    node_scratch: Vec<SpinMutex<DriverScratch>>,
    settings: SplitSettings,
    /// Per-tree column-subsampling mask; empty = all features allowed.
    feature_mask: Vec<bool>,
    /// Growth-queue pop count since the last ledger snapshot (barrier loop
    /// only; ASYNC's node tasks claim one node each and are not counted).
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
        mem: &'a Arc<MemTable>,
    ) -> Self {
        let max_nodes = 2 * params.max_leaves() + 8;
        // Subtraction is the cache's only reader.
        let budget = if params.hist_subtraction { crate::hist::HIST_CACHE_BYTES } else { 0 };
        let hists = HistPool::for_store(qm, budget, Arc::clone(pool.profile()), Arc::clone(mem));
        Self {
            qm,
            params,
            pool,
            clock,
            mem,
            partition: RowPartition::new(qm.n_rows(), max_nodes, params.use_membuf),
            frontier: SpinMutex::new(Frontier::new(params, pool.profile(), hists)),
            node_scratch: (0..pool.num_threads()).map(|_| SpinMutex::default()).collect(),
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

    /// Times a phase: the interval lands in the run's clock and, when
    /// tracing, as a span on worker `on`'s lane — or, for `None`, the
    /// coordinator's (the one after the workers'), so that barrier modes
    /// attribute coordinator-inclusive wall time.
    fn phase(&self, on: Option<usize>, phase: TracePhase, node: u32, block: u32) -> PhaseSpan<'a> {
        let lane = on.unwrap_or(self.pool.num_threads());
        PhaseSpan::begin(self.sink(), lane, phase, node, block, Some(self.clock))
    }

    /// Locks the frontier, adding any spin to the pool's lock-wait time.
    fn frontier(&self) -> SpinMutexGuard<'_, Frontier<'a>> {
        self.frontier.lock_timed(&self.pool.profile().lock_wait_ns)
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
    /// `self.partition.gradients_mut()`; barrier batches expand through
    /// `scratch`.
    fn build_tree(&mut self, scratch: &mut DriverScratch) -> Tree {
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

        // Root histogram + split.
        let root = self.frontier.get_mut().root(root_stats);
        self.expand(root, None, scratch);

        // Barrier batches until the queue is spent — or, under ASYNC, until
        // the frontier is as wide as the pool, when the rest of the tree
        // grows barrier-free.
        let threads = self.pool.num_threads();
        while self.frontier.get_mut().open() {
            let width = self.frontier.get_mut().width();
            if self.params.mode.runs_node_tasks(width, threads) {
                async_mode::run_async(self);
                break;
            }
            let claims = self.frontier.get_mut().claim(self.params.effective_k(), &self.partition);
            self.pops += 1;
            self.popped += claims.len() as u64;
            self.step(claims, None, scratch);
        }
        let mut tree = self.frontier.get_mut().finish();

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

    /// The split step of every mode: partitions the rows of the `claims`
    /// the frontier has applied to the tree, then plans, expands and files
    /// the children the leaf budget still pays for. The barrier loop runs it
    /// on a batch of `K` claims with `on = None`; an ASYNC node task on its
    /// one claim with `on` = the worker it runs on, which partitions inline
    /// and runs the children's fill as its own task.
    fn step(&self, claims: Vec<Claim>, on: Option<usize>, scratch: &mut DriverScratch) {
        let Some(head) = claims.first().map(|c| c.node) else {
            return;
        };
        // ApplySplit: the rows of the whole batch as one region of ⟨node,
        // row-block⟩ tasks (inline when the batch holds few rows, or when
        // the step is itself a pool task).
        {
            let _phase = self.phase(on, TracePhase::ApplySplit, head, claims.len() as u32);
            // Routing bins for the whole batch come from one chunk sweep.
            let items: Vec<_> =
                claims.iter().map(|c| (self.partition.rows(c.node), &c.split)).collect();
            let preds = split_preds_batch(self.qm, &items);
            drop(items);
            let splits: Vec<_> = claims.iter().map(|c| (c.node, c.kids[0], c.kids[1])).collect();
            let pool = on.is_none().then_some(self.pool);
            self.partition
                .apply_splits(&splits, &|i, pos, row| preds[i].goes_left(pos, row), pool);
        }

        // If the budget ran out while the rows moved, no child gets a
        // histogram.
        let mut children = Children::default();
        let mut frontier = self.frontier();
        for Claim { parent, kids, .. } in claims {
            let counts = kids.map(|node| (node, self.partition.node_len(node) as u32));
            frontier.children(parent, counts, &mut children);
        }
        drop(frontier);
        self.expand(children, on, scratch);
    }

    /// BuildHist (the hotspot) and FindSplit for one batch of planned
    /// children, which are then filed. The accumulation picks how the
    /// scanned children's lanes are filled, and whether a child that cannot
    /// be filed gets a full-width buffer at all; `drivers::expand` does the
    /// rest.
    fn expand(&self, mut children: Children, on: Option<usize>, scratch: &mut DriverScratch) {
        let jobs = &mut children.jobs[..];
        let Some(head) = jobs.first().map(|j| j.node) else {
            return;
        };
        let n = jobs.len() as u32;
        let rows: usize = jobs.iter().map(|j| self.partition.node_len(j.node)).sum();
        // Table II: an ASYNC batch, a node task's included, is DP.
        let threads = self.pool.num_threads();
        let acc = self.params.mode.accumulation(jobs.len(), rows / jobs.len(), threads);
        let ctx = DriverCtx {
            qm: self.qm,
            params: self.params,
            pool: self.pool,
            partition: &self.partition,
            grads: self.partition.global_grads(),
            mem: self.mem,
        };
        let search = split_search(&self.settings, &self.feature_mask);

        {
            let _phase = self.phase(on, TracePhase::BuildHist, head, n);
            let fused = ctx.fused(acc);
            for job in jobs.iter_mut() {
                let stale = self.frontier().equip(job, fused, &self.partition);
                job.buf = stale.map(StaleHist::zeroed);
            }
        }

        let wall_start = Instant::now();
        let start_ns = self.sink().map(TraceSink::now_ns);
        let TileOutcome { found, build_ns, find_ns } =
            drivers::expand(&ctx, scratch, jobs, search, acc, on);
        if on.is_some() {
            // A node task attributes its worker's own time.
            self.clock.add(TracePhase::BuildHist, build_ns);
            self.clock.add(TracePhase::FindSplit, find_ns);
        } else {
            // A batch's wall goes to the clock (and, tracing, the
            // coordinator lane) in the proportion the workers spent their
            // time.
            let wall = wall_start.elapsed().as_nanos() as u64;
            let build = if build_ns + find_ns == 0 {
                wall
            } else {
                (u128::from(wall) * u128::from(build_ns) / u128::from(build_ns + find_ns)) as u64
            };
            self.clock.add(TracePhase::BuildHist, build);
            self.clock.add(TracePhase::FindSplit, wall - build);
            if let (Some(sink), Some(t0)) = (self.sink(), start_ns) {
                let coord = sink.coordinator_lane();
                sink.record(coord, TracePhase::BuildHist, head, n, t0, t0 + build);
                sink.record(coord, TracePhase::FindSplit, head, n, t0 + build, t0 + wall);
            }
        }

        let _phase = self.phase(on, TracePhase::FindSplit, head, n);
        self.frontier().file(children, found);
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
    /// The node's effective routing bins by position in its row list,
    /// gathered chunk by chunk up front (out-of-core stores, and sparse
    /// storage, whose gather walks the feature's CSC column).
    Gathered(Vec<u8>),
}

impl<'a> SplitRoute<'a> {
    /// The route that borrows feature `f`'s dense column from a store
    /// resident as one matrix — nothing to gather, nothing to copy.
    /// One of the two places that ask for the in-core *representation*
    /// ([`QuantStore::as_single`]): a borrowed column is not a row read, so
    /// it has no chunk sweep to go through. Sparse storage has no column to
    /// lend by row id, so it is gathered like a chunked store.
    fn borrowed(store: &'a dyn QuantStore, f: usize) -> Option<Self> {
        store.as_single()?.dense_col(f).map(SplitRoute::Dense)
    }
}

/// The left/right routing predicate for one split over binned data.
pub(crate) struct SplitPred<'a> {
    f: usize,
    bin: u8,
    default_left: bool,
    route: SplitRoute<'a>,
}

/// Builds the routing predicates for a whole frontier of splits at once,
/// each over its node's (ascending) row list. A dense store resident as
/// one matrix lends its routing columns (O(1) per split, rows
/// unused); any other store gathers every node's routing bins in ONE chunk
/// sweep — per-node gathers would pin each node's full chunk span once per
/// split, which under a resident budget reloads most of the cache for every
/// split in the batch — so the partition hot loop never pins chunks. Call this BEFORE
/// `RowPartition::apply_splits` mutates the nodes' spans: the sweep reads the
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
    /// applies one shared `b <= bin` / default-direction rule, so every
    /// route agrees. `pos` is the row's index within the
    /// split node's span (what [`RowPartition::apply_splits`] passes); the
    /// gathered route resolves it positionally — a by-row binary search per
    /// routed row dominated out-of-core ApplySplit time.
    pub(crate) fn goes_left(&self, pos: usize, row: u32) -> bool {
        let b = match &self.route {
            SplitRoute::Dense(col) => col[row as usize],
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
