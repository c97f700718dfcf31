//! Baseline GBDT trainers: XGBoost-hist and LightGBM style scheduling.
//!
//! §IV-A of the HarpGBDT paper shows that the two state-of-the-art systems
//! are *corner cases* of block-wise parallelism:
//!
//! * **XGB-Hist** (the `tree_method=hist` module the paper benchmarks as
//!   "XGBoost"): standard data parallelism, `⟨X, X, 0, 0⟩` — dynamic row
//!   blocks, per-thread model replicas spanning all features, and
//!   `node_blk_size = 1` "to constrain the memory footprint of the model
//!   replicas". Both its depthwise and leafwise variants parallelize
//!   *leaf by leaf*, so thread synchronizations scale as O(2^D).
//! * **LightGBM**: standard feature-wise model parallelism, `⟨0, 1, 0, 1⟩` —
//!   one feature column per task, one leaf at a time.
//!
//! This crate materializes those corners as [`Baseline`] presets over the
//! HarpGBDT engine, mirroring the paper's own methodology: HarpGBDT was
//! built on the XGBoost code base precisely so that scheduling strategies
//! could be compared with identical numeric kernels ("this strategy enables
//! …​ a precise performance evaluation on the extended features by controlled
//! experiments", §V-A2). The presets disable every HarpGBDT-specific
//! optimization: `K = 1` (leaf-by-leaf), `node_blk_size = 1`, no MemBuf.
//!
//! The baselines inherit the instrumented pool, so their barrier counts,
//! CPU utilization, and phase breakdowns are directly comparable with
//! HarpGBDT's — that comparison *is* Tables I/VI and Figs. 4/12.

use harp_data::Dataset;
use harpgbdt::trainer::EvalOptions;
use harpgbdt::{
    Accumulation, BlockConfig, GbdtTrainer, GrowthMethod, ParallelMode, TrainOutput, TrainParams,
};

/// Which baseline system to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// XGBoost `tree_method=hist`, depthwise growth ("XGB-Depth").
    XgbDepth,
    /// XGBoost `tree_method=hist`, leafwise growth ("XGB-Leaf").
    XgbLeaf,
    /// LightGBM: feature-parallel, leafwise ("LightGBM").
    LightGbm,
}

impl Baseline {
    /// The three baselines the paper evaluates, in its column order.
    pub const ALL: [Baseline; 3] = [Baseline::XgbDepth, Baseline::XgbLeaf, Baseline::LightGbm];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Baseline::XgbDepth => "XGB-Depth",
            Baseline::XgbLeaf => "XGB-Leaf",
            Baseline::LightGbm => "LightGBM",
        }
    }

    /// The ⟨row, node, feature, bin⟩ block corner and accumulation policy
    /// this baseline pins — the *named plan preset* over the shared
    /// [`harpgbdt::BlockPlan`] enumerator. The engine feeds this config to
    /// the same `BlockPlan::rebuild` every mode uses; nothing about a
    /// baseline is special beyond the corner it sits in.
    pub fn plan_preset(self) -> (BlockConfig, Accumulation) {
        match self {
            // ⟨X, X, 0, 0⟩: row blocks, per-replica accumulation, all
            // features per task, one leaf at a time.
            Baseline::XgbDepth | Baseline::XgbLeaf => (
                BlockConfig {
                    row_blk_size: 0,
                    node_blk_size: 1,
                    feature_blk_size: 0,
                    bin_blk_size: 0,
                },
                Accumulation::Replicated,
            ),
            // ⟨0, 1, 0, 1⟩: whole rows, one feature column per task,
            // exclusive disjoint writes.
            Baseline::LightGbm => (
                BlockConfig {
                    row_blk_size: 0,
                    node_blk_size: 1,
                    feature_blk_size: 1,
                    bin_blk_size: 0,
                },
                Accumulation::Exclusive,
            ),
        }
    }

    /// The training parameters this baseline corresponds to, for a given
    /// tree size `D` and thread count.
    ///
    /// Everything HarpGBDT adds is disabled: `K = 1` forces leaf-by-leaf
    /// scheduling (one batch = one split = one round of barriers),
    /// `node_blk_size = 1`, MemBuf off. Histogram subtraction stays on —
    /// both original systems implement it.
    pub fn params(self, tree_size: u32, n_threads: usize) -> TrainParams {
        let growth = match self {
            Baseline::XgbLeaf | Baseline::LightGbm => GrowthMethod::Leafwise,
            Baseline::XgbDepth => GrowthMethod::Depthwise,
        };
        let (blocks, accumulation) = self.plan_preset();
        let mode = match accumulation {
            Accumulation::Replicated => ParallelMode::DataParallel,
            Accumulation::Exclusive => ParallelMode::ModelParallel,
        };
        TrainParams {
            growth,
            mode,
            blocks,
            // Leaf-by-leaf.
            k: 1,
            tree_size,
            n_threads,
            use_membuf: false,
            ..TrainParams::default()
        }
    }

    /// A ready trainer for this baseline.
    ///
    /// # Panics
    /// Panics if the preset parameters fail validation (impossible for
    /// valid `tree_size`/`n_threads`).
    pub fn trainer(self, tree_size: u32, n_threads: usize) -> GbdtTrainer {
        GbdtTrainer::new(self.params(tree_size, n_threads)).expect("preset params are valid")
    }

    /// Trains this baseline on `dataset`.
    pub fn train(self, dataset: &Dataset, tree_size: u32, n_threads: usize) -> TrainOutput {
        self.trainer(tree_size, n_threads).train(dataset)
    }

    /// Trains with validation options.
    pub fn train_with_eval(
        self,
        dataset: &Dataset,
        tree_size: u32,
        n_threads: usize,
        eval: Option<EvalOptions<'_>>,
    ) -> TrainOutput {
        self.trainer(tree_size, n_threads).train_with_eval(dataset, eval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_data::{DatasetKind, SynthConfig};

    fn data(scale: f64) -> Dataset {
        SynthConfig::new(DatasetKind::HiggsLike, 5).with_scale(scale).generate()
    }

    #[test]
    fn presets_have_paper_corner_configs() {
        let xgb = Baseline::XgbDepth.params(8, 4);
        assert_eq!(xgb.k, 1);
        assert_eq!(xgb.mode, ParallelMode::DataParallel);
        assert_eq!(xgb.blocks.node_blk_size, 1);
        assert_eq!(xgb.blocks.feature_blk_size, 0);
        assert!(!xgb.use_membuf);
        let lgbm = Baseline::LightGbm.params(8, 4);
        assert_eq!(lgbm.mode, ParallelMode::ModelParallel);
        assert_eq!(lgbm.blocks.feature_blk_size, 1);
        assert_eq!(lgbm.growth, GrowthMethod::Leafwise);
    }

    #[test]
    fn all_baselines_learn() {
        let d = data(0.04);
        for b in Baseline::ALL {
            let mut params = b.params(4, 2);
            params.n_trees = 8;
            let out = GbdtTrainer::new(params).unwrap().train(&d);
            let auc = harp_metrics::auc(&d.labels, &out.model.predict(&d.features));
            assert!(auc > 0.72, "{}: AUC {auc}", b.name());
        }
    }

    #[test]
    fn xgb_and_lightgbm_agree_on_single_thread() {
        // Same kernels, different scheduling: with one thread and no
        // subtraction the leafwise variants are numerically identical.
        let d = data(0.02);
        let mut pa = Baseline::XgbLeaf.params(4, 1);
        let mut pb = Baseline::LightGbm.params(4, 1);
        for p in [&mut pa, &mut pb] {
            p.n_trees = 4;
            p.hist_subtraction = false;
        }
        let a = GbdtTrainer::new(pa).unwrap().train(&d);
        let b = GbdtTrainer::new(pb).unwrap().train(&d);
        assert_eq!(
            a.model.predict_raw(&d.features),
            b.model.predict_raw(&d.features),
            "leafwise XGB and LightGBM should build identical trees at T=1"
        );
    }

    #[test]
    fn barrier_count_scales_with_leaves() {
        // The structural claim behind Fig. 4: leaf-by-leaf scheduling means
        // synchronization counts proportional to the number of leaves.
        let d = data(0.05);
        let regions_at = |tree_size: u32| {
            let mut p = Baseline::XgbLeaf.params(tree_size, 2);
            p.n_trees = 1;
            p.gamma = 0.0;
            let out = GbdtTrainer::new(p).unwrap().train(&d);
            let leaves = out.diagnostics.tree_shapes[0].n_leaves as f64;
            (out.diagnostics.profile.regions as f64, leaves)
        };
        let (r_small, l_small) = regions_at(3);
        let (r_large, l_large) = regions_at(6);
        assert!(l_large > l_small * 3.0, "tree must actually grow");
        let ratio = (r_large / r_small) / (l_large / l_small);
        assert!(
            (0.5..=2.0).contains(&ratio),
            "regions should scale with leaves: {r_small}@{l_small} vs {r_large}@{l_large}"
        );
    }

    #[test]
    fn harp_topk_uses_fewer_barriers_than_baselines() {
        // The core of the paper: K=32 + node blocks cut the number of
        // fork/join regions by ~K relative to leaf-by-leaf scheduling.
        let d = data(0.05);
        let mut harp = TrainParams {
            k: 32,
            tree_size: 6,
            gamma: 0.0,
            n_trees: 1,
            n_threads: 2,
            blocks: BlockConfig { node_blk_size: 32, ..BlockConfig::default() },
            ..TrainParams::default()
        };
        harp.growth = GrowthMethod::Leafwise;
        let harp_out = GbdtTrainer::new(harp).unwrap().train(&d);
        let mut base = Baseline::XgbLeaf.params(6, 2);
        base.n_trees = 1;
        base.gamma = 0.0;
        let base_out = GbdtTrainer::new(base).unwrap().train(&d);
        let hr = harp_out.diagnostics.profile.regions;
        let br = base_out.diagnostics.profile.regions;
        assert!(hr * 4 < br, "HarpGBDT should need far fewer barriers: harp {hr} vs baseline {br}");
    }

    #[test]
    fn buildhist_is_the_hotspot() {
        // §III-A: BuildHist dominates (90% LightGBM, 60% XGBoost at D8).
        // At test scale the effect is weaker but BuildHist must still beat
        // FindSplit, its closest competitor.
        let d = data(0.5);
        for b in [Baseline::XgbLeaf, Baseline::LightGbm] {
            let mut p = b.params(4, 2);
            p.n_trees = 3;
            p.gamma = 0.0;
            let out = GbdtTrainer::new(p)
                .unwrap()
                .with_binning(harp_binning::BinningConfig::with_max_bins(64))
                .train(&d);
            let bd = &out.diagnostics.breakdown;
            assert!(
                bd.build_hist_secs > bd.find_split_secs,
                "{}: BuildHist {:.4}s vs FindSplit {:.4}s",
                b.name(),
                bd.build_hist_secs,
                bd.find_split_secs
            );
        }
    }

    #[test]
    fn presets_enumerate_through_shared_plan() {
        // The presets are corners of the one shared enumerator: building a
        // plan from each preset config yields exactly the task shapes the
        // paper ascribes to that system.
        use harpgbdt::{BatchShape, BlockPlan, ScanLayout};
        let shape = BatchShape {
            n_features: 8,
            layout: ScanLayout::DenseU8,
            max_bins: 64,
            total_bins: 8 * 64,
            n_threads: 4,
        };
        let job_lens = [100usize, 60, 40];
        let mut plan = BlockPlan::new();

        // LightGBM: one ⟨node, feature⟩ column per task, whole rows.
        let (cfg, acc) = Baseline::LightGbm.plan_preset();
        plan.rebuild(&cfg, &shape, &job_lens, acc);
        assert_eq!(plan.tasks().len(), job_lens.len() * shape.n_features);
        assert!(plan.tasks().iter().all(|t| t.features.len() == 1 && t.jobs.len() == 1));

        // XGB-Hist: row blocks with all features, one node per task group.
        let (cfg, acc) = Baseline::XgbDepth.plan_preset();
        plan.rebuild(&cfg, &shape, &job_lens, acc);
        assert!(plan.tasks().iter().all(|t| t.features.len() == shape.n_features));
        assert!(plan.tasks().iter().all(|t| t.jobs.len() == 1));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Baseline::XgbDepth.name(), "XGB-Depth");
        assert_eq!(Baseline::XgbLeaf.name(), "XGB-Leaf");
        assert_eq!(Baseline::LightGbm.name(), "LightGBM");
    }
}
