//! Training hyper-parameters and the system parameters of Table IV.

use serde::{Deserialize, Serialize};

/// Tree growth method (§II-A, §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GrowthMethod {
    /// Split leaves level by level; `k = 0` splits a whole level at once
    /// (classic depthwise), `k > 0` selects K leaves at a time, building the
    /// same tree (§IV-B, Fig. 6a).
    Depthwise,
    /// Split the leaves with the largest loss change; `k = 1` is classic
    /// leafwise, `k > 1` is the paper's TopK method (Fig. 6d).
    Leafwise,
}

/// Parallel mode (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParallelMode {
    /// Data parallelism: row blocks, per-thread model replicas, reduction.
    DataParallel,
    /// Model parallelism: (node, feature, bin) blocks with exclusive writes.
    ModelParallel,
    /// Mixed (DP, MP, DP): DP while few candidates, MP in the middle, DP at
    /// the end when nodes are tiny.
    Sync,
    /// Mixed (X, node parallelism, X): DP while few candidates, then
    /// node-level tasks on a shared priority queue with no barriers.
    Async,
}

/// Below this mean node size, SYNC's end phase switches back to DP.
const SYNC_SMALL_NODE_ROWS: usize = 512;

/// How one batch of a mode's schedule runs — the cells of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Row blocks accumulate into replicas that are reduced afterwards (DP).
    Replicated,
    /// ⟨node, feature, bin⟩ blocks write their job's histogram exclusively
    /// (MP).
    Exclusive,
    /// No batch: barrier-free node tasks on the shared queue (ASYNC's
    /// middle phase; a tree that enters it stays in it).
    NodeTasks,
}

impl ParallelMode {
    /// Table II in one place: the policy for a frontier of `width` nodes of
    /// `mean_rows` rows each on a pool of `threads`. SYNC is (DP, MP, DP) —
    /// DP while the frontier is narrow, DP again once nodes are small, MP in
    /// between; ASYNC is DP until the frontier is as wide as the pool.
    pub fn batch_policy(self, width: usize, mean_rows: usize, threads: usize) -> BatchPolicy {
        match self {
            ParallelMode::DataParallel => BatchPolicy::Replicated,
            ParallelMode::ModelParallel => BatchPolicy::Exclusive,
            ParallelMode::Sync if width >= threads / 2 && mean_rows >= SYNC_SMALL_NODE_ROWS => {
                BatchPolicy::Exclusive
            }
            ParallelMode::Sync => BatchPolicy::Replicated,
            ParallelMode::Async if width >= threads => BatchPolicy::NodeTasks,
            ParallelMode::Async => BatchPolicy::Replicated,
        }
    }
}

pub use crate::objective::ObjectiveSpec;

/// The historical name of [`ObjectiveSpec`]. The loss layer is now the open
/// [`crate::objective`] registry; this alias keeps every existing
/// `LossKind::Logistic`-style construction and pattern site compiling (and
/// the serialized field name `loss` unchanged).
pub type LossKind = ObjectiveSpec;

/// Block-size system parameters (Table IV). `0` means "all" (the paper's
/// convention for unlimited block extent); [`BlockConfig::Auto`] defers the
/// choice to the per-batch cost model in [`crate::plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockConfig {
    /// Rows per data-parallel task; `0` derives `N / n_threads`.
    pub row_blk_size: usize,
    /// Tree-node candidates fused into one task; `0` means all in the batch.
    pub node_blk_size: usize,
    /// Features per task; `0` means all features.
    pub feature_blk_size: usize,
    /// Bins per model-parallel task; `0` (or ≥ max bins) disables bin
    /// blocking, the setting used throughout the paper's experiments.
    pub bin_blk_size: usize,
}

impl Default for BlockConfig {
    fn default() -> Self {
        Self { row_blk_size: 0, node_blk_size: 1, feature_blk_size: 0, bin_blk_size: 0 }
    }
}

impl BlockConfig {
    /// Sentinel extent marking an auto-tuned field. Deliberately `2^53` —
    /// the largest integer the JSON number representation round-trips
    /// exactly — so a serialized `Auto` config survives model save/load
    /// (`usize::MAX` would come back off by one and stop comparing equal).
    pub const AUTO_EXTENT: usize = 1 << 53;

    /// Defer block sizing to the per-batch cost model
    /// ([`crate::plan::auto_config`]): working-set-vs-L2 fit, task count
    /// versus thread count, and redundant-read volume pick the extents for
    /// every BuildHist batch.
    ///
    /// A `const` rather than an enum variant so explicit configs keep their
    /// exhaustive-struct-literal construction sites unchanged.
    #[allow(non_upper_case_globals)]
    pub const Auto: BlockConfig = BlockConfig {
        row_blk_size: Self::AUTO_EXTENT,
        node_blk_size: Self::AUTO_EXTENT,
        feature_blk_size: Self::AUTO_EXTENT,
        bin_blk_size: Self::AUTO_EXTENT,
    };

    /// Is this the auto-tuned configuration?
    pub fn is_auto(&self) -> bool {
        *self == Self::Auto
    }

    /// Validates an explicit configuration.
    ///
    /// The `0 = unlimited` sentinel is always legal — including
    /// `node_blk_size = 0` under model parallelism, which is exactly the
    /// XGB-Approx vertical-plane preset (all nodes of the batch fused into
    /// one task group, see `harp-baselines`). Rejected instead are configs
    /// that are degenerate under every dataset:
    ///
    /// * a `bin_blk_size` beyond the 256-bin quantization ceiling (bins are
    ///   `u8`; such a block can never split anything — use `0` to disable
    ///   bin blocking);
    /// * extents at or beyond [`Self::AUTO_EXTENT`] unless *all four* carry
    ///   the sentinel (a partially-auto config is a construction bug, and
    ///   larger extents would not survive JSON serialization).
    ///
    /// # Errors
    /// Returns a message describing the first degenerate field.
    pub fn validate(&self) -> Result<(), String> {
        if self.is_auto() {
            return Ok(());
        }
        let fields = [
            ("row_blk_size", self.row_blk_size),
            ("node_blk_size", self.node_blk_size),
            ("feature_blk_size", self.feature_blk_size),
            ("bin_blk_size", self.bin_blk_size),
        ];
        for (name, v) in fields {
            if v == Self::AUTO_EXTENT {
                return Err(format!(
                    "{name} carries the auto sentinel but the other block extents are \
                     explicit; use BlockConfig::Auto to auto-tune all four"
                ));
            }
            if v > Self::AUTO_EXTENT {
                return Err(format!(
                    "{name} = {v} exceeds the largest representable block extent \
                     ({}); use 0 for an unlimited block",
                    Self::AUTO_EXTENT
                ));
            }
        }
        if self.bin_blk_size > 256 {
            return Err(format!(
                "bin_blk_size = {} exceeds the 256-bin quantization ceiling, so it can \
                 never block anything; use 0 to disable bin blocking",
                self.bin_blk_size
            ));
        }
        Ok(())
    }

    /// Resolves `row_blk_size` for a dataset of `n` rows on `t` threads.
    pub fn rows_per_block(&self, n: usize, t: usize) -> usize {
        if self.row_blk_size > 0 {
            self.row_blk_size
        } else {
            (n / t).max(1)
        }
    }

    /// Resolves `node_blk_size` for a batch of `batch` nodes.
    pub fn nodes_per_block(&self, batch: usize) -> usize {
        if self.node_blk_size > 0 {
            self.node_blk_size.min(batch.max(1))
        } else {
            batch.max(1)
        }
    }

    /// Resolves `feature_blk_size` for `m` features.
    pub fn features_per_block(&self, m: usize) -> usize {
        if self.feature_blk_size > 0 {
            self.feature_blk_size.min(m.max(1))
        } else {
            m.max(1)
        }
    }

    /// Resolves `bin_blk_size` for a feature with `b` bins.
    pub fn bins_per_block(&self, b: usize) -> usize {
        if self.bin_blk_size > 0 {
            self.bin_blk_size.min(b.max(1))
        } else {
            b.max(1)
        }
    }
}

/// Span-ledger tracing configuration (see `harp_parallel::trace`).
///
/// Off by default: training then performs no extra clock reads and the
/// diagnostics carry no snapshot. When enabled, every worker (plus the
/// coordinator) records phase spans into a fixed `spans_per_worker` ring —
/// drop-oldest, so long runs keep the newest window — and the trainer
/// attaches a [`harp_parallel::TraceSnapshot`] plus a per-phase worker-skew
/// table to its diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TraceConfig {
    /// Record spans and counters during training.
    pub enabled: bool,
    /// Ring capacity per worker lane, in spans (rounded up to a power of
    /// two by the sink).
    pub spans_per_worker: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { enabled: false, spans_per_worker: 1 << 14 }
    }
}

impl TraceConfig {
    /// Convenience constructor for an enabled default-capacity config.
    pub fn enabled() -> Self {
        Self { enabled: true, ..Self::default() }
    }
}

// Manual impl (not derived) so models serialized before this field existed
// still deserialize: a missing `trace` object falls back to the default.
impl serde::Deserialize for TraceConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v.as_obj().ok_or_else(|| serde::Error::new("expected trace config object"))?;
        Ok(Self {
            enabled: serde::field(obj, "enabled")?,
            spans_per_worker: serde::field(obj, "spans_per_worker")?,
        })
    }

    fn missing() -> Option<Self> {
        Some(Self::default())
    }
}

/// Run-ledger configuration (see `harp_metrics::RunLedger`).
///
/// Off by default. When enabled, the trainer snapshots phase-time deltas,
/// profile-counter deltas, the eval metric, tree shape, worker skew, and
/// memory-gauge bytes once per boosting round, and the diagnostics carry a
/// [`harp_metrics::RunLedger`] ready to stream as JSON-lines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct LedgerConfig {
    /// Record one ledger entry per boosting round.
    pub enabled: bool,
}

impl LedgerConfig {
    /// Convenience constructor for an enabled config.
    pub fn enabled() -> Self {
        Self { enabled: true }
    }
}

// Manual impl (not derived) so models serialized before this field existed
// still deserialize: a missing `ledger` object falls back to the default.
impl serde::Deserialize for LedgerConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v.as_obj().ok_or_else(|| serde::Error::new("expected ledger config object"))?;
        Ok(Self { enabled: serde::field(obj, "enabled")? })
    }

    fn missing() -> Option<Self> {
        Some(Self::default())
    }
}

/// Full training configuration.
///
/// Defaults follow §V-A4: `learning_rate = 0.1`, `γ = 1.0`, `λ = 1.0`,
/// `min_child_weight = 1`, logistic loss, 100 trees.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainParams {
    /// Number of boosting rounds.
    pub n_trees: usize,
    /// Shrinkage applied to leaf weights.
    pub learning_rate: f32,
    /// L2 regularization λ on leaf weights.
    pub lambda: f64,
    /// Minimum loss reduction γ to make a split.
    pub gamma: f64,
    /// Minimum hessian sum in a child.
    pub min_child_weight: f64,
    /// Cap on the magnitude of the unscaled Newton leaf step `|w*|`; `0`
    /// disables. Log-link objectives (Tweedie) need this: a pure-zero leaf
    /// has its optimum at `-∞`, and uncapped boosting walks there round
    /// after round, blowing up held-out deviance. XGBoost recommends ~0.7
    /// for such objectives.
    pub max_delta_step: f64,
    /// Tree size `D`: depthwise depth limit `D` (root = depth 0) and leaf
    /// budget `2^D` (see DESIGN.md §6 on the paper's convention).
    pub tree_size: u32,
    /// Growth method.
    pub growth: GrowthMethod,
    /// TopK candidate count; `0` = unlimited (depthwise default), leafwise
    /// default is 1.
    pub k: usize,
    /// Parallel mode.
    pub mode: ParallelMode,
    /// Block-size system parameters.
    pub blocks: BlockConfig,
    /// Worker threads.
    pub n_threads: usize,
    /// Loss function.
    pub loss: LossKind,
    /// Keep gradient replicas next to row ids (§IV-E MemBuf). Off only for
    /// the ablation in Table V.
    pub use_membuf: bool,
    /// Use the parent − sibling histogram subtraction trick when the parent
    /// histogram is cached (off: nothing is cached). Changes floating-point
    /// association, so the determinism tests disable it.
    pub hist_subtraction: bool,
    /// Byte budget for cached candidate histograms. The cache never holds
    /// more than the tree has leaves left to spend, which costs nothing;
    /// under this budget it gives up the candidates the growth queue would
    /// pop last, and those may miss.
    pub hist_cache_bytes: usize,
    /// Use a static task schedule in data-parallel reductions so results are
    /// bitwise reproducible run-to-run.
    pub deterministic: bool,
    /// Per-tree row subsampling rate in `(0, 1]` (stochastic gradient
    /// boosting). Excluded rows get zero gradient mass for that tree; `1.0`
    /// disables sampling, as in all paper experiments (§V-A4 excludes
    /// sampling to keep workloads comparable).
    pub subsample: f32,
    /// Per-tree feature subsampling rate in `(0, 1]`; sampled-out features
    /// are skipped by FindSplit. `1.0` disables.
    pub colsample_bytree: f32,
    /// Seed for the subsampling RNG (training itself is deterministic).
    pub seed: u64,
    /// Span-ledger tracing (disabled by default; zero-cost when off).
    pub trace: TraceConfig,
    /// Per-round run ledger (disabled by default).
    pub ledger: LedgerConfig,
}

impl Default for TrainParams {
    fn default() -> Self {
        Self {
            n_trees: 100,
            learning_rate: 0.1,
            lambda: 1.0,
            gamma: 1.0,
            min_child_weight: 1.0,
            max_delta_step: 0.0,
            tree_size: 8,
            growth: GrowthMethod::Leafwise,
            k: 1,
            mode: ParallelMode::DataParallel,
            blocks: BlockConfig::default(),
            n_threads: harp_parallel::current_num_threads_hint(),
            loss: LossKind::Logistic,
            use_membuf: true,
            hist_subtraction: true,
            hist_cache_bytes: 512 << 20,
            deterministic: true,
            subsample: 1.0,
            colsample_bytree: 1.0,
            seed: 0,
            trace: TraceConfig::default(),
            ledger: LedgerConfig::default(),
        }
    }
}

impl TrainParams {
    /// Maximum number of leaves for this tree size (`2^D`).
    pub fn max_leaves(&self) -> usize {
        1usize << self.tree_size.min(31)
    }

    /// Maximum node depth (root = 0).
    pub fn max_depth(&self) -> u32 {
        match self.growth {
            GrowthMethod::Depthwise => self.tree_size,
            // Leafwise trees may grow deep (the paper sees CRITEO trees
            // deeper than 150); only the leaf budget limits them, plus a
            // generous safety rail.
            GrowthMethod::Leafwise => u32::MAX,
        }
    }

    /// Effective K: how many candidates are popped per growth step.
    pub fn effective_k(&self) -> usize {
        if self.k == 0 {
            usize::MAX
        } else {
            self.k
        }
    }

    /// Validates parameter consistency.
    ///
    /// # Errors
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_trees == 0 {
            return Err("n_trees must be positive".into());
        }
        if self.learning_rate <= 0.0 || self.learning_rate.is_nan() {
            return Err("learning_rate must be positive".into());
        }
        // NaN is named: `NaN < 0.0` is false.
        if [self.lambda, self.gamma, self.min_child_weight]
            .iter()
            .any(|v| v.is_nan() || *v < 0.0)
        {
            return Err("regularizers must be non-negative".into());
        }
        if !(self.max_delta_step >= 0.0 && self.max_delta_step.is_finite()) {
            return Err("max_delta_step must be finite and non-negative (0 disables)".into());
        }
        if self.tree_size == 0 || self.tree_size > 24 {
            return Err("tree_size must be in 1..=24".into());
        }
        if self.n_threads == 0 {
            return Err("n_threads must be positive".into());
        }
        for (name, v) in
            [("subsample", self.subsample), ("colsample_bytree", self.colsample_bytree)]
        {
            if !(v > 0.0 && v <= 1.0) {
                return Err(format!("{name} must be in (0, 1]"));
            }
        }
        self.loss.validate()?;
        self.blocks.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_policies_over_a_widening_then_shrinking_frontier() {
        use BatchPolicy::{Exclusive as E, NodeTasks, Replicated as R};
        // (frontier width, mean rows per node) on a pool of 4: the root, the
        // wide middle of the tree, and the many small nodes of its last
        // levels.
        let frontier = [(1, 100_000), (8, 12_000), (64, 100)];
        let walk = |mode: ParallelMode| frontier.map(|(w, rows)| mode.batch_policy(w, rows, 4));
        assert_eq!(walk(ParallelMode::DataParallel), [R, R, R]);
        assert_eq!(walk(ParallelMode::ModelParallel), [E, E, E]);
        assert_eq!(walk(ParallelMode::Sync), [R, E, R]);
        // ASYNC leaves the batch engine at the second step and never asks
        // again; the policy itself keeps saying so for any pool-wide frontier.
        assert_eq!(walk(ParallelMode::Async), [R, NodeTasks, NodeTasks]);

        // SYNC's two edges, exactly where the trainer has always put them.
        let sync = |w, rows, t| ParallelMode::Sync.batch_policy(w, rows, t);
        assert_eq!((sync(1, 512, 4), sync(2, 512, 4)), (R, E), "narrower than half the pool");
        assert_eq!((sync(8, 511, 4), sync(8, 512, 4)), (R, E), "nodes below 512 rows");
        assert_eq!(sync(0, 512, 1), E, "one thread: half the pool is no width at all");
        let asy = |w, t| ParallelMode::Async.batch_policy(w, 0, t);
        assert_eq!((asy(3, 4), asy(4, 4), asy(1, 1)), (R, NodeTasks, NodeTasks));
    }

    #[test]
    fn defaults_match_paper_settings() {
        let p = TrainParams::default();
        assert_eq!(p.learning_rate, 0.1);
        assert_eq!(p.lambda, 1.0);
        assert_eq!(p.gamma, 1.0);
        assert_eq!(p.min_child_weight, 1.0);
        assert_eq!(p.n_trees, 100);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn max_leaves_is_two_to_the_d() {
        let p = TrainParams { tree_size: 8, ..Default::default() };
        assert_eq!(p.max_leaves(), 256);
        let p = TrainParams { tree_size: 12, ..Default::default() };
        assert_eq!(p.max_leaves(), 4096);
    }

    #[test]
    fn max_delta_step_must_be_finite_and_non_negative() {
        let ok = TrainParams { max_delta_step: 0.7, ..Default::default() };
        assert!(ok.validate().is_ok());
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            let p = TrainParams { max_delta_step: bad, ..Default::default() };
            assert!(p.validate().is_err(), "max_delta_step {bad} must be rejected");
        }
    }

    #[test]
    fn nan_regularizers_are_rejected() {
        for bad in [f64::NAN, -1.0] {
            for p in [
                TrainParams { lambda: bad, ..Default::default() },
                TrainParams { gamma: bad, ..Default::default() },
                TrainParams { min_child_weight: bad, ..Default::default() },
            ] {
                assert!(p.validate().is_err(), "{bad} must be rejected");
            }
        }
        let zero = TrainParams { lambda: 0.0, min_child_weight: 0.0, ..Default::default() };
        assert!(zero.validate().is_ok());
    }

    #[test]
    fn effective_k_zero_is_unlimited() {
        let p = TrainParams { k: 0, ..Default::default() };
        assert_eq!(p.effective_k(), usize::MAX);
        let p = TrainParams { k: 32, ..Default::default() };
        assert_eq!(p.effective_k(), 32);
    }

    #[test]
    fn block_resolution() {
        let b = BlockConfig {
            row_blk_size: 0,
            node_blk_size: 4,
            feature_blk_size: 16,
            bin_blk_size: 0,
        };
        assert_eq!(b.rows_per_block(1000, 8), 125);
        assert_eq!(b.nodes_per_block(32), 4);
        assert_eq!(b.nodes_per_block(2), 2);
        assert_eq!(b.features_per_block(8), 8);
        assert_eq!(b.bins_per_block(255), 255);
        let all = BlockConfig {
            row_blk_size: 64,
            node_blk_size: 0,
            feature_blk_size: 0,
            bin_blk_size: 32,
        };
        assert_eq!(all.rows_per_block(1000, 8), 64);
        assert_eq!(all.nodes_per_block(5), 5);
        assert_eq!(all.features_per_block(128), 128);
        assert_eq!(all.bins_per_block(255), 32);
    }

    #[test]
    fn auto_sentinel_roundtrips_and_validates() {
        let auto = BlockConfig::Auto;
        assert!(auto.is_auto());
        assert!(auto.validate().is_ok());
        assert!(!BlockConfig::default().is_auto());
        // The sentinel must survive the JSON model format exactly.
        let text = serde_json::to_string(&auto).expect("serialize");
        let back: BlockConfig = serde_json::from_str(&text).expect("parse");
        assert!(back.is_auto(), "auto sentinel corrupted by JSON round-trip");
        let p = TrainParams { blocks: BlockConfig::Auto, ..Default::default() };
        assert!(p.validate().is_ok());
    }

    #[test]
    fn zero_sentinel_configs_are_accepted() {
        // `0 = unlimited` everywhere, including node_blk = 0 (the
        // XGB-Approx vertical plane under MP) — documented legal.
        let all_zero =
            BlockConfig { row_blk_size: 0, node_blk_size: 0, feature_blk_size: 0, bin_blk_size: 0 };
        assert!(all_zero.validate().is_ok());
        let p = TrainParams {
            blocks: all_zero,
            mode: ParallelMode::ModelParallel,
            ..Default::default()
        };
        assert!(p.validate().is_ok());
    }

    #[test]
    fn degenerate_block_configs_are_rejected() {
        // Over-ceiling bin block: bins are u8, so > 256 can never block.
        let b = BlockConfig { bin_blk_size: 300, ..Default::default() };
        let err = b.validate().unwrap_err();
        assert!(err.contains("bin_blk_size") && err.contains("256"), "got: {err}");
        // Partially-auto configs are construction bugs, not requests.
        let partial =
            BlockConfig { feature_blk_size: BlockConfig::AUTO_EXTENT, ..Default::default() };
        let err = partial.validate().unwrap_err();
        assert!(err.contains("auto sentinel"), "got: {err}");
        // Extents beyond the sentinel would not survive serialization.
        let huge = BlockConfig { row_blk_size: usize::MAX, ..Default::default() };
        let err = huge.validate().unwrap_err();
        assert!(err.contains("row_blk_size"), "got: {err}");
        // And TrainParams::validate surfaces all of it at build time.
        let p = TrainParams { blocks: b, ..Default::default() };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_fields() {
        for (mutator, msg) in [
            (
                Box::new(|p: &mut TrainParams| p.n_trees = 0) as Box<dyn Fn(&mut TrainParams)>,
                "n_trees",
            ),
            (Box::new(|p: &mut TrainParams| p.tree_size = 0), "tree_size"),
            (Box::new(|p: &mut TrainParams| p.n_threads = 0), "n_threads"),
            (Box::new(|p: &mut TrainParams| p.lambda = -1.0), "regularizers"),
            (Box::new(|p: &mut TrainParams| p.learning_rate = 0.0), "learning_rate"),
        ] {
            let mut p = TrainParams::default();
            mutator(&mut p);
            let err = p.validate().unwrap_err();
            assert!(err.contains(msg), "expected {msg} in {err}");
        }
    }

    #[test]
    fn depthwise_depth_limit_vs_leafwise() {
        let d = TrainParams { growth: GrowthMethod::Depthwise, tree_size: 6, ..Default::default() };
        assert_eq!(d.max_depth(), 6);
        let l = TrainParams { growth: GrowthMethod::Leafwise, tree_size: 6, ..Default::default() };
        assert_eq!(l.max_depth(), u32::MAX);
    }
}
