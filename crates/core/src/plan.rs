//! Block-task planning: one enumerator for every BuildHist scheduler.
//!
//! HarpGBDT's schedulers are all walks over the same ⟨row, node, feature,
//! bin⟩ cube (§IV-A); what distinguishes data parallelism from model
//! parallelism is not the decomposition but the *accumulation policy* —
//! replicated writes folded by a reduction versus exclusive disjoint writes.
//! This module makes that structural: a [`BlockPlan`] enumerates the block
//! tasks of one batch from a [`BlockConfig`] plus a [`BatchShape`], and the
//! drivers in [`crate::trainer::drivers`] are thin executors over the task
//! list. The baseline schedulers in `harp-baselines` are corner configs of
//! the same enumerator, so "XGBoost-hist and LightGBM fall out as special
//! configurations" is literally true of the code path, not just the math.
//!
//! The enumeration order is part of the contract: DP's static schedule pins
//! task → replica assignment to the task index (slot `s` of `T` runs tasks
//! `s, s + T, s + 2T, …`), so any reordering would
//! change floating-point accumulation order. The loops below reproduce the
//! historical driver loops exactly and the equivalence batteries
//! (`tests/mode_equivalence.rs`, `tests/buildhist_equivalence.rs`) hold the
//! line bitwise.
//!
//! On top of the explicit configs sits [`BlockConfig::Auto`]: a small cost
//! model ([`auto_config`]) that picks block extents per batch from the
//! working-set-vs-L2 fit of §IV-E, the task count versus the thread count,
//! and the redundant-read volume of each policy.
//! `tests/ledger.rs::auto_blocks_train_comparably_and_mark_the_ledger`
//! holds its picks to the default config's eval quality and checks that
//! every round's plan stats carry the auto flag.

use crate::params::BlockConfig;
use std::ops::Range;

/// How concurrent tasks combine their histogram writes (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accumulation {
    /// Data parallelism: row chunks of one node run concurrently, so each
    /// schedule slot writes a private replica of the node's histogram and a
    /// deterministic reduction folds the replicas afterwards. A node that is
    /// a single row chunk has nothing to fold and writes exclusively
    /// ([`BlockPlan::replica_slot`]).
    Replicated,
    /// Model parallelism: tasks own disjoint ⟨node, feature, bin⟩ regions
    /// and write the shared buffers directly — no replicas, no reduction.
    Exclusive,
}

/// The physical bin layout the kernels will scan (see `crate::kernels`),
/// as far as the planner cares: how many bin bytes a scan moves and whether
/// a row scan can slice its feature range without re-walking the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanLayout {
    /// Plain dense: one byte per ⟨row, feature⟩.
    DenseU8,
    /// Nibble-packed dense: half the bin bytes of [`ScanLayout::DenseU8`].
    DenseU4,
    /// EFB-bundled: one byte per ⟨row, storage column⟩; rows have no
    /// per-original-feature substructure, so scans cover all features.
    Bundled {
        /// Synthetic storage columns after bundling.
        n_storage_cols: usize,
    },
    /// CSR/CSC: a 4-byte column id plus a 1-byte bin per stored entry.
    Sparse,
}

impl ScanLayout {
    /// Classifies a quantized store. The shape flags are uniform across
    /// chunks (see [`harp_binning::StoreLayout`]), so one classification
    /// holds for every slab a chunked scan later pins.
    pub fn of(store: &dyn harp_binning::QuantStore) -> Self {
        let l = store.layout();
        if l.has_u4 {
            ScanLayout::DenseU4
        } else if l.dense {
            ScanLayout::DenseU8
        } else if l.bundled {
            ScanLayout::Bundled { n_storage_cols: l.n_storage_cols }
        } else {
            ScanLayout::Sparse
        }
    }

    /// Bin bytes one full-row (all features) scan pass reads per row. The
    /// sparse figure is a density-free upper bound; it only ever prices
    /// candidates of the same batch against each other, where it is a
    /// common factor.
    pub fn bin_bytes_per_row(self, n_features: usize) -> f64 {
        match self {
            ScanLayout::DenseU8 => n_features as f64,
            ScanLayout::DenseU4 => n_features.div_ceil(2) as f64,
            ScanLayout::Bundled { n_storage_cols } => n_storage_cols as f64,
            ScanLayout::Sparse => 5.0 * n_features as f64,
        }
    }

    /// Whether a replicated row scan over this layout can restrict itself
    /// to a feature block without re-reading the rest of the row. Dense
    /// bytes and nibbles are sliceable; CSR rows and bundled storage rows
    /// are walked whole (the kernels filter, but the bytes are still read),
    /// so feature-blocking them only multiplies row traffic.
    pub fn feature_sliceable(self) -> bool {
        matches!(self, ScanLayout::DenseU8 | ScanLayout::DenseU4)
    }
}

/// The shape of one BuildHist batch, everything the planner needs to know
/// about the data without touching it.
#[derive(Debug, Clone, Copy)]
pub struct BatchShape {
    /// Feature count `m`.
    pub n_features: usize,
    /// The bin layout scans will read — prices per-layout byte volume and
    /// decides whether replicated row scans may slice features.
    pub layout: ScanLayout,
    /// Largest per-feature bin count (bin-block granularity).
    pub max_bins: usize,
    /// Total bins over all features (histogram lanes / 2).
    pub total_bins: usize,
    /// Worker threads available to execute the plan.
    pub n_threads: usize,
}

/// One block task: the ⟨row, node, feature, bin⟩ sub-cube a single worker
/// invocation covers.
///
/// Replicated tasks carry a single job (`jobs.len() == 1`) and a real row
/// chunk; exclusive tasks fuse a job range and cover every row of each job
/// (`rows` spans the per-job row count, see [`BlockTask::ALL_ROWS`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockTask {
    /// Batch job indices this task accumulates into.
    pub jobs: Range<usize>,
    /// Feature block.
    pub features: Range<usize>,
    /// Row chunk within each job's row span.
    pub rows: Range<usize>,
    /// Bin sub-range within each feature (`None` = all bins).
    pub bins: Option<(usize, usize)>,
}

impl BlockTask {
    /// Sentinel `rows` extent meaning "every row of the job". Exclusive
    /// tasks use it because their jobs have differing row counts; clamp
    /// with [`BlockTask::row_range_for`].
    pub const ALL_ROWS: Range<usize> = 0..usize::MAX;

    /// The task's row range clamped to a job of `len` rows.
    pub fn row_range_for(&self, len: usize) -> Range<usize> {
        self.rows.start.min(len)..self.rows.end.min(len)
    }
}

/// The concrete block extents a plan resolved from its [`BlockConfig`]
/// (sentinels expanded, auto-tuner applied). Recorded per round in the run
/// ledger so `report --diff` catches auto-tuner regressions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolvedExtents {
    /// Rows per replicated task.
    pub row_blk: usize,
    /// Jobs fused per scheduling unit.
    pub node_blk: usize,
    /// Features per task.
    pub feature_blk: usize,
    /// Bins per exclusive task (0 = unblocked).
    pub bin_blk: usize,
    /// Whether the extents came from the [`auto_config`] cost model.
    pub auto: bool,
}

/// The block-task decomposition of one BuildHist batch.
///
/// Reusable: [`BlockPlan::rebuild`] re-enumerates in place without
/// allocating once the task vector has grown to steady state, matching the
/// zero-alloc discipline of the drivers' scratch.
#[derive(Default)]
pub struct BlockPlan {
    tasks: Vec<BlockTask>,
    live_jobs: Vec<usize>,
    /// Per job: its index among the jobs that accumulate into replicas.
    replica_slots: Vec<Option<usize>>,
    n_replicated_jobs: usize,
    extents: ResolvedExtents,
    /// Tasks per [`group`](Self::groups): the bin blocks of one exclusive
    /// ⟨node-block, feature-block⟩ pair; 1 for a replicated plan.
    group_len: usize,
    accumulation: Option<Accumulation>,
    round_batches: u64,
    round_tasks: u64,
}

impl BlockPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// The enumerated tasks, in schedule order.
    pub fn tasks(&self) -> &[BlockTask] {
        &self.tasks
    }

    /// The resolved extents of the last [`BlockPlan::rebuild`].
    pub fn extents(&self) -> ResolvedExtents {
        self.extents
    }

    /// The accumulation policy of the last [`BlockPlan::rebuild`].
    pub fn accumulation(&self) -> Option<Accumulation> {
        self.accumulation
    }

    /// The accumulation policy of job `job_idx` in the last plan. `Some(k)`:
    /// the job spans several row blocks of a replicated plan, so its tasks
    /// accumulate into lanes `k × width ..` of their slot's replica and the
    /// reduction folds them. `None`: the job's tasks cover disjoint
    /// ⟨feature, bin⟩ regions and write the job's own buffer — every job of
    /// an exclusive plan, and the jobs of a replicated plan that are one row
    /// block (their tasks differ only in feature block) or empty. What a
    /// small node costs thus follows its rows, not the histogram width times
    /// the slot count.
    pub fn replica_slot(&self, job_idx: usize) -> Option<usize> {
        self.replica_slots[job_idx]
    }

    /// How many jobs of the last plan accumulate into replicas — the
    /// replica's length in histograms.
    pub fn n_replicated_jobs(&self) -> usize {
        self.n_replicated_jobs
    }

    /// The last plan's tasks grouped by ⟨node-block, feature-block⟩, in
    /// schedule order: an exclusive group holds the pair's bin-block tasks
    /// (one task when bins are unblocked), which together cover whole
    /// features — the unit the fused Exclusive executor hands a worker, so
    /// FindSplit can follow the scan on the same tile.
    pub fn groups(&self) -> std::slice::Chunks<'_, BlockTask> {
        self.tasks.chunks(self.group_len.max(1))
    }

    /// How many tasks of the last plan write their job's buffer directly.
    pub fn n_exclusive_tasks(&self) -> usize {
        self.tasks.iter().filter(|t| self.replica_slots[t.jobs.start].is_none()).count()
    }

    /// Takes and resets the per-round batch/task tally (the ledger hook
    /// reads this once per boosting round).
    pub fn take_round_stats(&mut self) -> (u64, u64, ResolvedExtents) {
        let out = (self.round_batches, self.round_tasks, self.extents);
        self.round_batches = 0;
        self.round_tasks = 0;
        out
    }

    /// Re-enumerates the plan for one batch.
    ///
    /// `job_lens[j]` is the row count of batch job `j`. Replicated plans
    /// skip zero-row jobs up front (their buffers stay zeroed and they must
    /// not emit per-feature-block iterations); exclusive plans keep them —
    /// an empty column scan writes nothing and the region partition stays
    /// trivially disjoint.
    pub fn rebuild(
        &mut self,
        cfg: &BlockConfig,
        shape: &BatchShape,
        job_lens: &[usize],
        acc: Accumulation,
    ) {
        let auto = cfg.is_auto();
        let cfg = if auto { auto_config(shape, job_lens, acc) } else { *cfg };
        self.accumulation = Some(acc);
        self.tasks.clear();
        self.replica_slots.clear();
        self.replica_slots.resize(job_lens.len(), None);
        self.n_replicated_jobs = 0;
        self.group_len = 1;
        match acc {
            Accumulation::Replicated => self.enumerate_replicated(&cfg, shape, job_lens),
            Accumulation::Exclusive => self.enumerate_exclusive(&cfg, shape, job_lens.len()),
        }
        self.extents.auto = auto;
        self.round_batches += 1;
        self.round_tasks += self.tasks.len() as u64;
    }

    /// DP decomposition: ⟨node-block, feature-block, row-chunk⟩ triples,
    /// one job per task. Row chunks never cross node boundaries; a node
    /// block only groups nodes into one scheduling unit (its members'
    /// chunks are emitted consecutively).
    ///
    /// Tasks are emitted row-chunk-major (all feature blocks of one row
    /// chunk adjacent) rather than feature-major: workers then re-read rows
    /// that are still cache-hot, and for an out-of-core [`QuantStore`] the
    /// adjacent feature blocks hit the same resident data chunk instead of
    /// each sweeping the whole chunk sequence — feature-major order is
    /// LRU's pathological case there (every chunk is evicted between its
    /// consecutive uses). Per histogram cell the accumulation order is
    /// feature-independent (only that cell's feature block contributes, row
    /// chunks ascend either way), so single-replica and exclusive results
    /// are bit-for-bit unchanged by the nesting.
    fn enumerate_replicated(&mut self, cfg: &BlockConfig, shape: &BatchShape, job_lens: &[usize]) {
        let m = shape.n_features;
        // Feature-blocking a CSR or bundled row scan would re-walk every
        // row once per block (those rows have no per-original-feature
        // substructure); dense bytes and nibbles are sliceable.
        let f_blk = if shape.layout.feature_sliceable() { cfg.features_per_block(m) } else { m };
        let n_total: usize = job_lens.iter().sum();
        let row_blk = cfg.rows_per_block(n_total.max(1), shape.n_threads);
        let node_blk = cfg.nodes_per_block(job_lens.len());
        self.extents =
            ResolvedExtents { row_blk, node_blk, feature_blk: f_blk, bin_blk: 0, auto: false };

        self.live_jobs.clear();
        self.live_jobs.extend((0..job_lens.len()).filter(|&j| job_lens[j] > 0));

        for node_group in self.live_jobs.chunks(node_blk) {
            for &job_idx in node_group {
                let len = job_lens[job_idx];
                if len > row_blk {
                    self.replica_slots[job_idx] = Some(self.n_replicated_jobs);
                    self.n_replicated_jobs += 1;
                }
                let mut lo = 0usize;
                while lo < len {
                    let hi = (lo + row_blk).min(len);
                    for f_range in feature_blocks(m, f_blk) {
                        self.tasks.push(BlockTask {
                            jobs: job_idx..job_idx + 1,
                            features: f_range.clone(),
                            rows: lo..hi,
                            bins: None,
                        });
                    }
                    lo = hi;
                }
            }
        }
    }

    /// MP decomposition: ⟨node-block, feature-block, bin-block⟩ triples
    /// over disjoint write regions.
    fn enumerate_exclusive(&mut self, cfg: &BlockConfig, shape: &BatchShape, n_jobs: usize) {
        let m = shape.n_features;
        let f_blk = cfg.features_per_block(m);
        let node_blk = cfg.nodes_per_block(n_jobs);
        let max_bins = shape.max_bins.max(1);
        let bin_blk = cfg.bins_per_block(max_bins);
        let n_bin_blocks = max_bins.div_ceil(bin_blk);
        self.group_len = n_bin_blocks;
        self.extents = ResolvedExtents {
            row_blk: 0,
            node_blk,
            feature_blk: f_blk,
            bin_blk: if n_bin_blocks == 1 { 0 } else { bin_blk },
            auto: false,
        };

        for job_lo in (0..n_jobs).step_by(node_blk) {
            let job_range = job_lo..(job_lo + node_blk).min(n_jobs);
            for f_range in feature_blocks(m, f_blk) {
                for bb in 0..n_bin_blocks {
                    let bins = if n_bin_blocks == 1 {
                        None
                    } else {
                        Some((bb * bin_blk, (bb + 1) * bin_blk))
                    };
                    self.tasks.push(BlockTask {
                        jobs: job_range.clone(),
                        features: f_range.clone(),
                        rows: BlockTask::ALL_ROWS,
                        bins,
                    });
                }
            }
        }
    }
}

/// Cache-fit target for one task's write working set (§IV-E). A
/// conservative private-L2 figure: commodity server cores carry 256 KiB–
/// 1 MiB; sizing for the small end keeps the hot region resident
/// everywhere.
pub const L2_TARGET_BYTES: f64 = 256.0 * 1024.0;

/// Bytes of one histogram cell: two `f64` GHSum lanes (§IV-E).
const CELL_BYTES: f64 = 16.0;

/// The write working set of one replicated (DP) task: the feature block's
/// share of the whole-batch replica, across a node block.
///
/// Computed in floating point in precision-preserving order — the old
/// driver estimate (`16 * total_bins * f_blk / m * node_blk` in integer
/// arithmetic) truncated to zero whenever `total_bins * f_blk < m`, i.e.
/// exactly the narrow-feature-block configurations the estimate exists to
/// steer.
pub fn dp_write_working_set(
    total_bins: usize,
    n_features: usize,
    f_blk: usize,
    node_blk: usize,
) -> f64 {
    let m = n_features.max(1);
    let share = f_blk.min(m) as f64 / m as f64;
    CELL_BYTES * total_bins as f64 * share * node_blk as f64
}

/// The write working set of one exclusive (MP) task: the consecutive write
/// region `16 × bin_blk × feature_blk × node_blk` of §IV-E.
pub fn mp_write_working_set(max_bins: usize, bin_blk: usize, f_blk: usize, node_blk: usize) -> f64 {
    let b = max_bins.max(1);
    CELL_BYTES * bin_blk.min(b) as f64 * f_blk as f64 * node_blk as f64
}

/// Stateless feature-block walk shared by the plan enumerators and the
/// serial ASYNC node scans (which run inside worker tasks and cannot hold a
/// per-engine plan). Blocks partition `0..m`, so a blocked scan touches
/// every ⟨row, feature⟩ pair exactly once, in the same per-lane order as an
/// unblocked one — bitwise-identical histograms.
pub fn feature_blocks(m: usize, f_blk: usize) -> impl Iterator<Item = Range<usize>> {
    let f_blk = f_blk.max(1);
    (0..m).step_by(f_blk).map(move |lo| lo..(lo + f_blk).min(m))
}

/// Shared row-block arithmetic (also used by the predict driver): number of
/// blocks covering `n` rows at `block` rows each.
pub fn n_row_blocks(n: usize, block: usize) -> usize {
    n.div_ceil(block.max(1))
}

/// Shared row-block arithmetic: the row range of block `b`.
pub fn row_block(b: usize, block: usize, n: usize) -> Range<usize> {
    let lo = b * block.max(1);
    lo..(lo + block.max(1)).min(n)
}

/// Candidate block extents the auto-tuner considers (powers of two around
/// the paper's Table IV recipes, clamped to the batch).
const CANDIDATES: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Fixed cost charged per enumerated task (scheduling, queue traffic,
/// cold-start of its write region), in byte-equivalents.
const TASK_OVERHEAD: f64 = 2048.0;

/// Fixed cost charged per scheduling group (a node block × feature block
/// unit): fusing nodes amortizes this, which is what pushes `node_blk`
/// above 1 when the write working set allows it.
const GROUP_OVERHEAD: f64 = 8192.0;

/// Picks concrete block extents for one batch: the [`BlockConfig::Auto`]
/// cost model.
///
/// The model prices each candidate ⟨feature_blk, node_blk⟩ pair with three
/// terms and takes the deterministic argmin:
///
/// * **redundant reads** — a replicated row scan re-reads row ids and
///   gradient pairs once per feature block pass (`⌈m / f_blk⌉` passes);
///   exclusive column scans visit each ⟨job, feature⟩ pair exactly once,
///   so only *bin* blocking would re-read columns — which is why the model
///   never bin-blocks (`bin_blk = 0`, the paper's setting).
/// * **write working set vs. L2** (§IV-E) — write volume is multiplied by
///   how far the task's working set overflows [`L2_TARGET_BYTES`], reusing
///   [`dp_write_working_set`] / [`mp_write_working_set`].
/// * **task grain** — a per-task and per-group overhead rewards fusion,
///   and a shortfall of tasks below the thread count scales the whole cost
///   by the idle fraction (replica reduction volume is invariant across
///   candidates — every DP replica spans the batch's multi-block jobs, and
///   `row_blk` is not a candidate — so it prices into every candidate
///   equally and drops out of the argmin).
pub fn auto_config(shape: &BatchShape, job_lens: &[usize], acc: Accumulation) -> BlockConfig {
    let m = shape.n_features.max(1);
    let t = shape.n_threads.max(1);
    let n_live = job_lens.iter().filter(|&&l| l > 0).count().max(1);
    let n_total: usize = job_lens.iter().sum();
    let n_total = n_total.max(1);

    let f_cands = || CANDIDATES.iter().map(|&f| f.min(m)).chain([m]);
    let n_cands = || CANDIDATES.iter().map(|&k| k.min(n_live)).chain([n_live]);

    let mut best = (f64::INFINITY, 1usize, 1usize);
    for f_blk in f_cands() {
        for node_blk in n_cands() {
            let cost = match acc {
                Accumulation::Replicated => {
                    if !shape.layout.feature_sliceable() && f_blk != m {
                        continue; // CSR/bundled row scans cannot slice features
                    }
                    let passes = m.div_ceil(f_blk) as f64;
                    // 4 B row id + 8 B GradPair re-read per pass, plus the
                    // layout's bin bytes (sliceable layouts read each bin
                    // byte exactly once across all passes).
                    let reads =
                        n_total as f64 * (12.0 * passes + shape.layout.bin_bytes_per_row(m));
                    let ws = dp_write_working_set(shape.total_bins, m, f_blk, node_blk);
                    let writes =
                        n_total as f64 * m as f64 * CELL_BYTES * (ws / L2_TARGET_BYTES).max(1.0);
                    // Row chunks resolve to ~t per job-feature pass.
                    let tasks = passes * n_live.max(t) as f64;
                    let groups = passes * (n_live as f64 / node_blk as f64).ceil();
                    let grain = tasks * TASK_OVERHEAD + groups * GROUP_OVERHEAD;
                    (reads + writes + grain) * (t as f64 / tasks).max(1.0)
                }
                Accumulation::Exclusive => {
                    let n_f_blocks = m.div_ceil(f_blk) as f64;
                    let n_groups = (n_live as f64 / node_blk as f64).ceil();
                    let tasks = n_f_blocks * n_groups;
                    let ws = mp_write_working_set(
                        shape.max_bins,
                        shape.max_bins.max(1),
                        f_blk,
                        node_blk,
                    );

                    // Column scans read each ⟨row, feature⟩ bin once, at
                    // the layout's byte width — except bundled storage,
                    // where the per-original-feature walk re-reads the
                    // shared storage column once per member feature.
                    let col_bytes = match shape.layout {
                        ScanLayout::Bundled { .. } => m as f64,
                        l => l.bin_bytes_per_row(m),
                    };
                    let reads = n_total as f64 * col_bytes;
                    let writes =
                        n_total as f64 * m as f64 * CELL_BYTES * (ws / L2_TARGET_BYTES).max(1.0);
                    let grain = tasks * TASK_OVERHEAD + tasks * GROUP_OVERHEAD;
                    (reads + writes + grain) * (t as f64 / tasks).max(1.0)
                }
            };
            if cost < best.0 {
                best = (cost, f_blk, node_blk);
            }
        }
    }

    BlockConfig {
        row_blk_size: 0, // N / threads, the paper's DP setting
        node_blk_size: best.2,
        feature_blk_size: best.1,
        bin_blk_size: 0, // bin blocking only re-reads columns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(m: usize, dense: bool, t: usize) -> BatchShape {
        let layout = if dense { ScanLayout::DenseU8 } else { ScanLayout::Sparse };
        BatchShape { n_features: m, layout, max_bins: 32, total_bins: m * 32, n_threads: t }
    }

    #[test]
    fn replicated_plan_skips_zero_row_jobs() {
        let mut plan = BlockPlan::new();
        plan.rebuild(
            &BlockConfig::default(),
            &shape(4, true, 2),
            &[10, 0, 6],
            Accumulation::Replicated,
        );
        assert!(plan.tasks().iter().all(|t| t.jobs.start != 1));
        assert!(!plan.tasks().is_empty());
    }

    #[test]
    fn only_multi_block_jobs_get_replica_lanes() {
        let mut plan = BlockPlan::new();
        let cfg = BlockConfig { feature_blk_size: 2, ..BlockConfig::default() };
        // 46 rows on 2 threads: row_blk = 23, so only the 30-row job is cut.
        let lens = [10, 0, 6, 30];
        plan.rebuild(&cfg, &shape(4, true, 2), &lens, Accumulation::Replicated);
        assert_eq!(plan.extents().row_blk, 23);
        let slots: Vec<_> = (0..lens.len()).map(|j| plan.replica_slot(j)).collect();
        assert_eq!(slots, [None, None, None, Some(0)]);
        assert_eq!(plan.n_replicated_jobs(), 1);
        // Two feature blocks each for the 10- and the 6-row job, and for
        // each of the 30-row job's two row blocks.
        assert_eq!((plan.n_exclusive_tasks(), plan.tasks().len()), (4, 8));
        // A job of exactly one block is not cut; slots count up in job order.
        let cfg = BlockConfig { row_blk_size: 23, ..cfg };
        plan.rebuild(&cfg, &shape(4, true, 2), &[23, 24, 0, 25], Accumulation::Replicated);
        let slots: Vec<_> = (0..4).map(|j| plan.replica_slot(j)).collect();
        assert_eq!(slots, [None, Some(0), None, Some(1)]);
        // An exclusive plan has no replicas at all.
        plan.rebuild(&cfg, &shape(4, true, 2), &[23, 24], Accumulation::Exclusive);
        assert_eq!(plan.n_replicated_jobs(), 0);
        assert_eq!(plan.n_exclusive_tasks(), plan.tasks().len());
    }

    #[test]
    fn exclusive_plan_keeps_zero_row_jobs() {
        let mut plan = BlockPlan::new();
        plan.rebuild(
            &BlockConfig::default(),
            &shape(4, true, 2),
            &[10, 0, 6],
            Accumulation::Exclusive,
        );
        assert!(plan.tasks().iter().any(|t| t.jobs.contains(&1)));
    }

    #[test]
    fn sparse_replicated_plans_scan_whole_feature_set() {
        let mut plan = BlockPlan::new();
        let cfg = BlockConfig { feature_blk_size: 2, ..BlockConfig::default() };
        plan.rebuild(&cfg, &shape(8, false, 2), &[16], Accumulation::Replicated);
        assert!(plan.tasks().iter().all(|t| t.features == (0..8)));
        assert_eq!(plan.extents().feature_blk, 8);
    }

    #[test]
    fn exclusive_bin_blocks_cover_max_bins() {
        let mut plan = BlockPlan::new();
        let cfg = BlockConfig { bin_blk_size: 10, ..BlockConfig::default() };
        plan.rebuild(&cfg, &shape(3, true, 2), &[5], Accumulation::Exclusive);
        let bins: Vec<_> = plan.tasks().iter().filter_map(|t| t.bins).collect();
        assert!(bins.contains(&(0, 10)) && bins.contains(&(30, 40)));
        assert_eq!(plan.extents().bin_blk, 10);
    }

    #[test]
    fn exclusive_groups_are_the_bin_blocks_of_one_node_and_feature_block() {
        let mut plan = BlockPlan::new();
        let cfg = BlockConfig {
            node_blk_size: 2,
            feature_blk_size: 2,
            bin_blk_size: 10,
            ..BlockConfig::default()
        };
        plan.rebuild(&cfg, &shape(3, true, 2), &[5, 0, 7], Accumulation::Exclusive);
        // 2 node blocks x 2 feature blocks, 4 bin blocks (32 bins by 10) each.
        assert_eq!(plan.groups().len(), 4);
        for group in plan.groups() {
            assert_eq!(group.len(), 4);
            assert!(group
                .iter()
                .all(|t| (&t.jobs, &t.features) == (&group[0].jobs, &group[0].features)));
            let bins: Vec<_> = group.iter().filter_map(|t| t.bins).collect();
            assert_eq!(bins, [(0, 10), (10, 20), (20, 30), (30, 40)]);
        }
        // Unblocked bins: a group is its one task.
        let cfg = BlockConfig { bin_blk_size: 0, ..cfg };
        plan.rebuild(&cfg, &shape(3, true, 2), &[5, 0, 7], Accumulation::Exclusive);
        assert!(plan.groups().all(|g| g.len() == 1 && g[0].bins.is_none()));
        assert_eq!(plan.groups().len(), plan.tasks().len());
    }

    #[test]
    fn row_range_clamps_to_job_len() {
        let task = BlockTask { jobs: 0..3, features: 0..1, rows: BlockTask::ALL_ROWS, bins: None };
        assert_eq!(task.row_range_for(7), 0..7);
        let chunk = BlockTask { jobs: 0..1, features: 0..1, rows: 4..8, bins: None };
        assert_eq!(chunk.row_range_for(6), 4..6);
    }

    #[test]
    fn round_stats_accumulate_and_reset() {
        let mut plan = BlockPlan::new();
        plan.rebuild(&BlockConfig::default(), &shape(4, true, 2), &[8], Accumulation::Replicated);
        plan.rebuild(&BlockConfig::default(), &shape(4, true, 2), &[8], Accumulation::Replicated);
        let (batches, tasks, _) = plan.take_round_stats();
        assert_eq!(batches, 2);
        assert!(tasks > 0);
        assert_eq!(plan.take_round_stats().0, 0);
    }

    #[test]
    fn working_set_estimates_do_not_truncate() {
        // The historical integer estimate truncated to zero here:
        // 16 * 320 * 1 / 4096 = 1 (integer) vs the true 1.25 KiB share.
        let ws = dp_write_working_set(320, 4096, 1, 32);
        assert!(ws > 0.0 && ws < 16.0 * 320.0 * 32.0);
        assert!((mp_write_working_set(32, 32, 4, 8) - 16.0 * 32.0 * 4.0 * 8.0).abs() < 1e-9);
    }

    #[test]
    fn row_block_helpers_cover_exactly() {
        let n = 103;
        let block = 10;
        let mut covered = 0;
        for b in 0..n_row_blocks(n, block) {
            let r = row_block(b, block, n);
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, n);
        assert_eq!(n_row_blocks(0, 10), 0);
    }

    #[test]
    fn auto_config_is_sane_for_both_policies() {
        let s = shape(28, true, 8);
        let lens = vec![4000usize; 16];
        for acc in [Accumulation::Replicated, Accumulation::Exclusive] {
            let cfg = auto_config(&s, &lens, acc);
            assert!(cfg.feature_blk_size >= 1 && cfg.feature_blk_size <= 28);
            assert!(cfg.node_blk_size >= 1 && cfg.node_blk_size <= 16);
            assert_eq!(cfg.bin_blk_size, 0);
            assert_eq!(cfg.row_blk_size, 0);
            let ws = match acc {
                Accumulation::Replicated => dp_write_working_set(
                    s.total_bins,
                    s.n_features,
                    cfg.feature_blk_size,
                    cfg.node_blk_size,
                ),
                Accumulation::Exclusive => mp_write_working_set(
                    s.max_bins,
                    s.max_bins,
                    cfg.feature_blk_size,
                    cfg.node_blk_size,
                ),
            };
            assert!(ws <= 4.0 * L2_TARGET_BYTES, "auto pick blows the cache: {ws}");
        }
    }

    #[test]
    fn auto_config_respects_sparse_row_scans() {
        let s = shape(64, false, 4);
        let cfg = auto_config(&s, &[1000, 1000], Accumulation::Replicated);
        assert_eq!(cfg.feature_blk_size, 64, "sparse DP must scan all features per pass");
    }

    #[test]
    fn bundled_layout_scans_whole_feature_set() {
        let mut s = shape(64, true, 4);
        s.layout = ScanLayout::Bundled { n_storage_cols: 9 };
        let cfg = auto_config(&s, &[1000, 1000], Accumulation::Replicated);
        assert_eq!(cfg.feature_blk_size, 64, "bundled rows are scanned whole");
        let mut plan = BlockPlan::new();
        let two = BlockConfig { feature_blk_size: 2, ..BlockConfig::default() };
        plan.rebuild(&two, &s, &[16], Accumulation::Replicated);
        assert!(plan.tasks().iter().all(|t| t.features == (0..64)));
    }

    #[test]
    fn layout_byte_constants() {
        assert_eq!(ScanLayout::DenseU4.bin_bytes_per_row(9), 5.0);
        assert_eq!(
            ScanLayout::DenseU4.bin_bytes_per_row(64) * 2.0,
            ScanLayout::DenseU8.bin_bytes_per_row(64)
        );
        assert_eq!(ScanLayout::Bundled { n_storage_cols: 3 }.bin_bytes_per_row(64), 3.0);
        assert!(!ScanLayout::Bundled { n_storage_cols: 3 }.feature_sliceable());
        assert!(ScanLayout::DenseU4.feature_sliceable());
    }
}
