//! The one BlockPlan executor: every mode expands a batch through [`expand`].
//!
//! A batch is a list of jobs — one per tree node scanned from its rows, with
//! the sibling to derive from it as `parent − node` where the parent's
//! histogram came out of the cache ([`TileJob`], [`DerivedSibling`]).
//! Expanding it always ends in **one tile body** (`TileBody`): a *tile* is
//! one job's lanes of one feature block; the body fills them unless they come
//! filled, forms the sibling's tile as `parent − small` (in place in the
//! parent's buffer or into scratch) and runs FindSplit on both, one partial
//! candidate per ⟨node, feature-block⟩, folded in ascending block order.
//! Nothing else in the trainer subtracts or searches. The batch's
//! [`BatchPolicy`] picks only where the lanes are filled; the block
//! decomposition lives in [`crate::plan`]:
//!
//! * **Replicated** (DP): a [`BlockPlan`] of ⟨node-block, feature-block,
//!   row-chunk⟩ tasks runs as one region of schedule slots. A job of one
//!   row chunk has tasks that differ only in feature block, so each task
//!   fills one tile of the job's own buffer ([`BlockPlan::replica_slot`]);
//!   the slot that filled it finishes it once its chunk sweep has ended,
//!   and a batch of such jobs is that one region. A job cut into several
//!   row chunks gets lanes in one replica per slot; a second region cuts it
//!   into ⟨job, feature-chunk⟩ tiles, `⌈4T / jobs⌉` chunks per job so that a
//!   narrow batch still spreads over the pool, and each tile's fill is the
//!   fold of its replicas' lanes. Replica and fold cost therefore follow
//!   the rows of a batch, not its node count — the node-proportional
//!   reduction is the scaling weakness of XGB-Hist that Fig. 11 shows for
//!   large trees.
//! * **Exclusive** (MP): the plan's ⟨node-block, feature-block⟩ groups are
//!   the tiles, and the fill happens inside them: a worker column-scans the
//!   group's bin-block tasks into the tile and finishes it while it sits in
//!   L2, so the whole batch is one region. A node whose histogram can be
//!   filed ([`crate::hist::HistPool::files`]) is scanned into its own
//!   full-width buffer and a filed sibling is subtracted in place; every
//!   other tile lives in a per-worker scratch pair of `2 × block lanes` and is
//!   gone after FindSplit.
//! * **NodeTasks** (an ASYNC node task): one tile per job over every
//!   feature, row-scanned into the job's buffer and finished on the calling
//!   worker — no plan and no region.
//!
//! DP runs one schedule, an OpenMP *static* one: slot `t` of `T` processes
//! every `T`-th task into replica `t`, so per-cell accumulation order is
//! independent of thread timing, and a tile folds the replicas in slot
//! order however the lanes are cut. The replicas, tile pairs and plan come
//! from a caller-held [`DriverScratch`] that survives across frontiers and
//! trees. A tile zeroes each replica lane as it folds it, so the arena only
//! ever holds zeroed replicas and hands them out as they are.

use crate::hist::{self, ScratchPool};
use crate::kernels::{
    col_scan_store, row_scan_run, row_scan_store, GradSource, BYTES_PER_CELL, FLOPS_PER_CELL,
};
use crate::loss::GradPair;
use crate::params::{BatchPolicy, TrainParams};
use crate::partition::RowPartition;
use crate::plan::{
    dp_write_working_set, feature_blocks, mp_write_working_set, Accumulation, BatchShape,
    BlockPlan, BlockTask, ResolvedExtents, ScanLayout,
};
use crate::split::{better_of, find_split_tile, SplitCandidate, SplitSettings};
use crate::tree::{NodeId, NodeStats};
use harp_binning::{sweep_chunks, BinMapper, QuantStore, Rows};
use harp_metrics::MemGauge;
use harp_parallel::{PerWorker, ThreadPool, TracePhase, TraceSink};
use std::mem::take;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A node a batch scans from its rows, to be finished one feature-block tile
/// at a time.
pub struct TileJob {
    /// The node whose rows are scanned.
    pub node: NodeId,
    /// Its gradient totals, FindSplit's node statistics.
    pub stats: NodeStats,
    /// The node's own zeroed full-width buffer: the tiles are then its
    /// lanes, and on return it is the node's histogram. `None` (a node of an
    /// Exclusive batch whose histogram cannot be filed,
    /// [`crate::hist::HistPool::files`]) builds every tile in the worker's
    /// scratch, where it is dropped after FindSplit.
    pub buf: Option<Vec<f64>>,
    /// The sibling to derive as `parent − node`, when the parent's histogram
    /// was taken from the cache.
    pub sibling: Option<DerivedSibling>,
}

/// The larger child of a split whose parent's histogram is at hand.
pub struct DerivedSibling {
    /// The derived node.
    pub node: NodeId,
    /// Its gradient totals.
    pub stats: NodeStats,
    /// The parent's histogram.
    pub parent: Vec<f64>,
    /// The sibling's histogram can be filed: each tile is subtracted in
    /// place in `parent`, which on return is the sibling's histogram.
    /// Otherwise `parent` is only read and the difference lives in scratch.
    pub in_place: bool,
}

/// What FindSplit needs besides a histogram and the node's statistics.
#[derive(Clone, Copy)]
pub struct SplitSearch<'a> {
    /// Regularization inputs to the gain formula.
    pub settings: &'a SplitSettings,
    /// Per-tree column-subsampling mask; `None` allows every feature.
    pub mask: Option<&'a [bool]>,
}

/// What an expansion found, and where its time went.
#[derive(Default)]
pub struct TileOutcome {
    /// Per job: the best split of its node and of its derived sibling.
    pub found: Vec<[Option<SplitCandidate>; 2]>,
    /// Nanoseconds the workers spent filling tiles (a schedule slot's chunk
    /// sweep included) and subtracting, summed.
    pub build_ns: u64,
    /// Nanoseconds the workers spent in FindSplit, summed.
    pub find_ns: u64,
}

/// Shared context threaded through the drivers.
pub struct DriverCtx<'a> {
    /// Quantized input, chunk-mediated (in-core or out-of-core).
    pub qm: &'a dyn QuantStore,
    /// Training parameters (block sizes, MemBuf flag).
    pub params: &'a TrainParams,
    /// Worker pool.
    pub pool: &'a ThreadPool,
    /// Row membership and MemBuf.
    pub partition: &'a RowPartition,
    /// Global gradient array (fallback when MemBuf is off).
    pub grads: &'a [GradPair],
}

impl DriverCtx<'_> {
    fn grad_source<'a>(&'a self, node: NodeId) -> GradSource<'a> {
        GradSource::select(self.partition.grads(node), self.grads)
    }

    fn trace(&self) -> Option<&TraceSink> {
        self.pool.trace().map(|s| s.as_ref())
    }

    /// The batch shape the planner sees for this store and pool.
    fn batch_shape(&self) -> BatchShape {
        BatchShape {
            n_features: self.qm.n_features(),
            layout: ScanLayout::of(self.qm),
            max_bins: self.qm.mapper().max_bins_used() as usize,
            total_bins: self.qm.mapper().total_bins() as usize,
            n_threads: self.pool.num_threads(),
        }
    }

    fn report_cells(&self, cells: u64) {
        self.pool.profile().add_bytes(
            cells * (BYTES_PER_CELL - 16),
            cells * 16,
            cells * FLOPS_PER_CELL,
        );
    }
}

/// Caller-held driver scratch: the replica arena, the per-worker tile
/// pairs and the reusable [`BlockPlan`]. One per training engine; it
/// survives across frontiers and trees, so steady-state BuildHist allocates
/// nothing histogram-sized.
#[derive(Default)]
pub struct DriverScratch {
    replicas: ScratchPool,
    /// By worker index: the scan tile and the sibling tile of an Exclusive
    /// batch, back to back. Empty until a worker first builds a tile that
    /// has no full-width buffer to live in.
    tiles: Vec<Vec<f64>>,
    /// Bytes of `tiles` already counted under the arena's gauge.
    tile_bytes: u64,
    plan: BlockPlan,
    job_lens: Vec<usize>,
}

impl DriverScratch {
    /// Creates an empty scratch arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches the run-ledger byte gauge: replicas and tiles count under it.
    pub fn set_replica_gauge(&mut self, gauge: Arc<MemGauge>) {
        self.replicas.set_gauge(gauge);
    }

    /// Takes and resets the plan's per-round batch/task tally plus the last
    /// resolved extents (the per-round ledger hook reads this).
    pub fn take_plan_stats(&mut self) -> (u64, u64, ResolvedExtents) {
        self.plan.take_round_stats()
    }

    /// Rebuilds the shared plan for one batch of jobs over `nodes` and
    /// returns the resolved extents: every planned batch goes through the
    /// one enumerator.
    fn plan_batch(
        &mut self,
        ctx: &DriverCtx<'_>,
        nodes: impl Iterator<Item = NodeId>,
        acc: Accumulation,
    ) -> ResolvedExtents {
        self.job_lens.clear();
        self.job_lens.extend(nodes.map(|node| ctx.partition.node_len(node)));
        self.plan.rebuild(&ctx.params.blocks, &ctx.batch_shape(), &self.job_lens, acc);
        let ext = self.plan.extents();
        let exclusive = self.plan.n_exclusive_tasks();
        let replicated = self.plan.tasks().len() - exclusive;
        ctx.pool
            .profile()
            .add_plan_events(replicated as u64, exclusive as u64, ext.auto as u64);
        ext
    }
}

/// Expands one batch: fills each job's histogram where `policy` says,
/// derives the siblings and runs FindSplit (see the module docs). The tiles
/// run as one pool region, or here when the caller is itself a task of the
/// pool (`inline_on`: its worker index, as for an ASYNC node task); a
/// Replicated batch always runs on the pool.
pub fn expand(
    ctx: &DriverCtx<'_>,
    scratch: &mut DriverScratch,
    jobs: &mut [TileJob],
    search: SplitSearch<'_>,
    policy: BatchPolicy,
    inline_on: Option<usize>,
) -> TileOutcome {
    let (n, m) = (jobs.len(), ctx.qm.n_features());
    if n == 0 {
        return TileOutcome::default();
    }
    let out = if policy == BatchPolicy::Replicated {
        expand_replicated(ctx, scratch, jobs, search)
    } else {
        let (f_blk, tiles): (usize, Vec<Tile<'_>>) = if policy == BatchPolicy::Exclusive {
            let ext = scratch.plan_batch(ctx, jobs.iter().map(|j| j.node), Accumulation::Exclusive);
            // §IV-E: consecutive-write region = 16 × bin_blk × feature_blk ×
            // node_blk (shared with the cost model).
            let max_bins = ctx.qm.mapper().max_bins_used() as usize;
            let bin_blk = if ext.bin_blk == 0 { max_bins.max(1) } else { ext.bin_blk };
            let ws = mp_write_working_set(max_bins, bin_blk, ext.feature_blk, ext.node_blk);
            ctx.pool.profile().observe_region_bytes(ws as u64);
            let groups = scratch.plan.groups().map(|tasks| {
                (tasks[0].jobs.clone(), tasks[0].features.clone(), Fill::Columns(tasks))
            });
            (ext.feature_blk, groups.collect())
        } else {
            // NodeTasks, the degenerate ⟨one node, all rows⟩ task of a
            // Replicated plan: an explicit feature block still slices a dense
            // scan (the same per-lane row order, so the same bits); sparse
            // rows have no per-block substructure and Auto resolves per
            // planned batch, so both scan whole.
            let sliced = ctx.qm.is_dense() && !ctx.params.blocks.is_auto();
            let scan_blk = if sliced { ctx.params.blocks.features_per_block(m) } else { m };
            (m, (0..n).map(|j| (j..j + 1, 0..m, Fill::Rows(scan_blk))).collect())
        };
        // The tiles come job-major, each job's feature blocks ascending.
        let bounds = block_bounds(ctx.qm.mapper(), f_blk);
        let body = TileBody::new(ctx, &mut scratch.tiles, jobs, search, &[&bounds]);
        let mut lanes: Vec<_> = jobs.iter_mut().map(|job| block_lanes(job, &bounds)).collect();
        let mut work: Vec<_> =
            tiles.into_iter().map(|tile| TileWork::new(tile, &mut lanes)).collect();
        match inline_on {
            Some(worker) => work.iter_mut().enumerate().for_each(|(g, t)| body.run(g, t, worker)),
            None => ctx.pool.parallel_for_each_mut(&mut work, |g, t, w| body.run(g, t, w)),
        }
        body.finish(work, &mut scratch.tiles)
    };
    let held = scratch.tiles.iter().map(|t| t.capacity() as u64 * 8).sum::<u64>();
    if held > scratch.tile_bytes {
        scratch.replicas.count_outside(held - scratch.tile_bytes);
        scratch.tile_bytes = held;
    }
    out
}

/// Expands a Replicated batch: executes an [`Accumulation::Replicated`]
/// plan with the static schedule, each slot finishing the one-block jobs'
/// tiles it filled, and then the other jobs' tiles, which fold their
/// replicas, as a second region.
fn expand_replicated(
    ctx: &DriverCtx<'_>,
    scratch: &mut DriverScratch,
    jobs: &mut [TileJob],
    search: SplitSearch<'_>,
) -> TileOutcome {
    let ext = scratch.plan_batch(ctx, jobs.iter().map(|j| j.node), Accumulation::Replicated);
    let DriverScratch { replicas: arena, tiles: stash, plan, job_lens, .. } = scratch;
    let tasks = plan.tasks();
    let (n, m, mapper) = (jobs.len(), ctx.qm.n_features(), ctx.qm.mapper());
    let width = hist::hist_width_for(ctx.qm);
    let n_slots = ctx.pool.num_threads().min(tasks.len());

    // A job of one row block is finished by the slots: its tasks are its
    // feature blocks, ascending, and each fills one tile of its own buffer.
    // Every other job — several row blocks, or none — is cut into ⟨job,
    // feature-chunk⟩ tiles, `⌈4T / jobs⌉` chunks per job, so that a narrow
    // batch still spreads over the pool.
    let by_slot = |j: usize| plan.replica_slot(j).is_none() && job_lens[j] > 0;
    let n_rest = (0..n).filter(|&j| !by_slot(j)).count();
    let n_chunks = (4 * ctx.pool.num_threads()).div_ceil(n_rest.max(1)).clamp(1, m.max(1));
    let chunk = m.div_ceil(n_chunks);
    let (task_bounds, chunk_bounds) =
        (block_bounds(mapper, ext.feature_blk), block_bounds(mapper, chunk));
    let body = TileBody::new(ctx, stash, jobs, search, &[&task_bounds, &chunk_bounds]);
    let mut lanes: Vec<_> = jobs
        .iter_mut()
        .enumerate()
        .map(|(j, job)| block_lanes(job, if by_slot(j) { &task_bounds } else { &chunk_bounds }))
        .collect();

    // One replica per schedule slot, with lanes for the batch's multi-block
    // jobs, drawn zeroed from the arena. A batch of one-block jobs needs none.
    let replica_len = plan.n_replicated_jobs() * width;
    let n_replicas = if replica_len == 0 { 0 } else { n_slots };
    let (mut replicas, fresh): (Vec<_>, Vec<bool>) =
        (0..n_replicas).map(|_| arena.acquire(replica_len)).unzip();
    let allocs = fresh.iter().filter(|&&allocated| allocated).count() as u64;
    ctx.pool.profile().add_scratch_events(allocs, n_replicas as u64 - allocs);

    // What each slot writes: its replica, and per task it runs (in the order
    // it runs them) the task's tile when the task is a one-block job's.
    let mut slots: Vec<(&mut [f64], Vec<_>)> =
        replicas.iter_mut().map(|r| (&mut r[..replica_len], Vec::new())).collect();
    slots.resize_with(n_slots, Default::default);
    for (i, task) in tasks.iter().enumerate() {
        let (j, features) = (task.jobs.start, task.features.clone());
        let tile =
            by_slot(j).then(|| TileWork::new((j..j + 1, features, Fill::Filled), &mut lanes));
        slots[i % n_slots].1.push(tile);
    }
    let (root_identity, row_blk) = (ctx.partition.is_identity_order(), ext.row_blk);

    // When the resident budget holds only `capacity` chunks, concurrent
    // sweeps must stay within an eviction-free window of each other: one
    // that runs `capacity` chunks ahead evicts exactly the chunks the
    // laggards are about to pin, degrading every sweep to a full reload.
    // Slots publish their step count and a leader spin-waits (bounded — a
    // slot may start late) until the slowest is back inside the window; the
    // laggards then hit the leader's decoded chunks instead of reloading
    // their own. The window leaves one chunk of slack beyond the slots'
    // pins: without it a leader's load can evict a chunk a laggard is
    // about to pin, and the load count moves with the slots' timing.
    let capacity = ctx.qm.sweep_capacity();
    let window = if capacity == usize::MAX {
        usize::MAX
    } else {
        capacity.saturating_sub(n_slots + 1).max(1)
    };
    let progress: Vec<AtomicUsize> = (0..n_slots).map(|_| AtomicUsize::new(0)).collect();
    let progress = &progress;
    let throttle = |slot: usize, steps: usize| {
        if window == usize::MAX {
            return;
        }
        progress[slot].store(steps, Ordering::Release);
        let behind = || progress.iter().map(|p| p.load(Ordering::Acquire)).min().unwrap_or(steps);
        let mut spins = 0u32;
        while steps > behind() + window {
            // Bounded: if the pool handed two slots to one worker, the
            // missing sweep never advances — yield so its worker gets
            // scheduled, give up after ~ms and run unthrottled rather than
            // deadlock.
            spins += 1;
            if spins > 1 << 22 {
                break;
            }
            if spins % 1024 == 0 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    };

    // The static schedule: slot `s` runs tasks `s, s + T, s + 2T, …` into
    // its own replica, as the cursors of ONE chunk sweep, which scans every
    // task's rows that fall inside the pinned chunk before moving on. Deep
    // nodes scatter their rows over every chunk, so running each task to
    // completion would sweep the whole chunk sequence once *per task* —
    // under a resident budget, a reload of the entire cache per task. Per
    // histogram cell this is still ascending-row accumulation: tasks sharing
    // a (job, feature) lane in one slot own ascending, disjoint position
    // ranges of the node's ascending row list, so interleaving them chunk by
    // chunk visits exactly the same rows in exactly the same order as
    // running them back to back. In-core the sweep has one step, and that
    // step *is* the tasks run back to back. A tile is complete only once
    // the sweep has ended: the slot then steps out of the throttle and
    // finishes the tiles it filled.
    ctx.pool.parallel_for_each_mut(&mut slots, |slot, (replica, tiles), lane| {
        let t0 = body.now();
        let cursors: Vec<Rows<'_>> = tasks
            .iter()
            .skip(slot)
            .step_by(n_slots)
            .map(|task| {
                let node = body.metas[task.jobs.start].0;
                if node == 0 && root_identity {
                    // Root fast path: the root span starts at row 0 in
                    // identity order, so a task's positions ARE its row ids
                    // and the row-id indirection drops out.
                    Rows::Range(task.rows.clone())
                } else {
                    Rows::List(&ctx.partition.rows(node)[task.rows.clone()])
                }
            })
            .collect();
        let mut cells = 0u64;
        sweep_chunks(
            ctx.qm,
            &cursors,
            |steps| throttle(slot, steps),
            |run| {
                let task = &tasks[slot + run.cursor * n_slots];
                let (job_idx, features) = (task.jobs.start, task.features.clone());
                let node = body.metas[job_idx].0;
                let _span = ctx.trace().map(|s| {
                    s.span(lane, TracePhase::BuildHist, node, (task.rows.start / row_blk) as u32)
                });
                let grads = ctx.grad_source(node).narrow(task.rows.clone(), 0);
                let dst: &mut [f64] = match &mut tiles[run.cursor] {
                    Some(tile) => tile.lanes[0].own.as_mut().expect("a full-width job"),
                    None => {
                        let k = plan.replica_slot(job_idx).expect("a multi-block job");
                        &mut replica[k * width..][hist::lanes(mapper, features.clone())]
                    }
                };
                cells += row_scan_run(run, grads, features, dst);
            },
        );
        progress[slot].store(usize::MAX, Ordering::Release);
        body.cells.fetch_add(cells, Ordering::Relaxed);
        body.build_ns.fetch_add(body.now() - t0, Ordering::Relaxed);
        for (cursor, tile) in tiles.iter_mut().enumerate() {
            if let Some(tile) = tile {
                body.run(slot + cursor * n_slots, tile, lane);
            }
        }
    });
    let mut work: Vec<_> = slots.into_iter().flat_map(|(_, tiles)| tiles).flatten().collect();
    let done = work.len();

    // The other jobs' tiles. A multi-block job's tile takes its replicas'
    // lanes, cut at the same bounds, and folds them in slot order.
    let mut folds: Vec<Vec<_>> = replicas
        .iter_mut()
        .map(|r| r[..replica_len].chunks_mut(width).map(|l| cut_at(l, &chunk_bounds)).collect())
        .collect();
    for j in (0..n).filter(|&j| !by_slot(j)) {
        for features in feature_blocks(m, chunk) {
            let mut tile = TileWork::new((j..j + 1, features, Fill::Filled), &mut lanes);
            if let Some(k) = plan.replica_slot(j) {
                let srcs = folds.iter_mut().map(|r| r[k].next().expect("a replica lane"));
                tile.lanes[0].replicas = srcs.collect();
            }
            work.push(tile);
        }
    }
    ctx.pool.parallel_for_each_mut(&mut work[done..], |g, t, w| body.run(g, t, w));
    let out = body.finish(work, stash);
    // The fold pieces borrow the replicas until here.
    drop(folds);
    for rep in replicas {
        arena.release(rep);
    }

    // The write working set of one DP task: the feature block's share of the
    // replica, across the node block (§IV-E, 16 bytes per cell). Shared with
    // the cost model.
    let total_bins = mapper.total_bins() as usize;
    let ws = dp_write_working_set(total_bins, m, ext.feature_blk, ext.node_blk);
    ctx.pool.profile().observe_region_bytes(ws as u64);
    out
}

/// How a tile's lanes are filled before the tile body runs.
#[derive(Clone, Copy)]
enum Fill<'a> {
    /// A Replicated batch's: the schedule slot that runs the tile filled
    /// them in its chunk sweep (a one-block job), or the tile adds in its
    /// lanes of the job's replicas in slot order ([`BlockLanes::replicas`]),
    /// zeroing each as it reads it, so the replicas go back to the arena
    /// zeroed.
    Filled,
    /// Column-scan the block's features, one of the group's ascending
    /// bin-block tasks at a time (Exclusive).
    Columns(&'a [BlockTask]),
    /// Row-scan the job's rows over the block's features, this many at a
    /// time (NodeTasks).
    Rows(usize),
}

/// One tile as [`expand`] plans it: jobs, feature block, fill.
type Tile<'a> = (Range<usize>, Range<usize>, Fill<'a>);

/// The lane bounds of the blocks of `f_blk` features: each block's first
/// lane, then the width.
fn block_bounds(mapper: &BinMapper, f_blk: usize) -> Vec<usize> {
    let m = mapper.n_features();
    let starts = feature_blocks(m, f_blk).map(|block| hist::lane(mapper, block.start));
    starts.chain([hist::lane(mapper, m)]).collect()
}

/// Cuts `buf` at the ascending lane `bounds` (the first is 0, the last the
/// width): one disjoint piece per consecutive pair, in order.
fn cut_at<'a>(buf: &'a mut [f64], bounds: &'a [usize]) -> impl Iterator<Item = &'a mut [f64]> {
    assert_eq!(Some(&buf.len()), bounds.last(), "cuts cover the whole buffer");
    let mut rest = buf;
    bounds.windows(2).map(move |w| {
        let (piece, tail) = take(&mut rest).split_at_mut(w[1] - w[0]);
        rest = tail;
        piece
    })
}

/// One job's share of a tile: the block's lanes of the full-width buffers
/// the job may come with.
struct BlockLanes<'a> {
    /// Of the job's own buffer ([`TileJob::buf`]).
    own: Option<&'a mut [f64]>,
    /// Of the parent's histogram ([`DerivedSibling::parent`]).
    parent: Option<&'a mut [f64]>,
    /// Of each replica, in slot order, for a multi-block job of a
    /// Replicated batch.
    replicas: Vec<&'a mut [f64]>,
}

/// `job`'s buffers cut at the ascending lane `bounds`: its block lanes,
/// block by block.
fn block_lanes<'a>(
    job: &'a mut TileJob,
    bounds: &'a [usize],
) -> impl Iterator<Item = BlockLanes<'a>> {
    let mut own = job.buf.as_deref_mut().map(|b| cut_at(b, bounds));
    let mut parent = job.sibling.as_mut().map(|s| cut_at(&mut s.parent, bounds));
    (1..bounds.len()).map(move |_| BlockLanes {
        own: own.as_mut().and_then(Iterator::next),
        parent: parent.as_mut().and_then(Iterator::next),
        replicas: Vec::new(),
    })
}

/// One ⟨job-range, feature-block⟩ tile as a worker receives it. The pieces
/// of [`BlockLanes`] are cut out of the buffers up front, so that two tiles
/// share no lane is the borrow checker's statement, not a comment's.
struct TileWork<'a> {
    jobs: Range<usize>,
    features: Range<usize>,
    fill: Fill<'a>,
    /// One per job of `jobs`.
    lanes: Vec<BlockLanes<'a>>,
    /// Per job, the block's best split of the node and of its sibling.
    found: Vec<[Option<SplitCandidate>; 2]>,
}

impl<'a> TileWork<'a> {
    /// `tile`, taking each of its jobs' next block from `lanes` (by job, the
    /// blocks ascending).
    fn new(
        (jobs, features, fill): Tile<'a>,
        lanes: &mut [impl Iterator<Item = BlockLanes<'a>>],
    ) -> Self {
        let lanes = jobs.clone().map(|j| lanes[j].next().expect("a block per tile")).collect();
        Self { jobs, features, fill, lanes, found: Vec::new() }
    }
}

/// What the tile body reads of a job besides its lanes: its node, the
/// node's statistics and `(node, stats, in_place)` of the derived sibling.
type Meta = (NodeId, NodeStats, Option<(NodeId, NodeStats, bool)>);

/// The one tile body every expansion ends in — per job of a tile, the
/// tile's fill, then `parent − small` in place or into the scratch tile,
/// then FindSplit on both — and what it sums over a batch.
struct TileBody<'c> {
    ctx: &'c DriverCtx<'c>,
    search: SplitSearch<'c>,
    metas: Vec<Meta>,
    /// By worker: the scan tile and the sibling tile, back to back.
    pairs: PerWorker<Vec<f64>>,
    /// The lanes of the widest tile.
    tile_lanes: usize,
    cells: AtomicU64,
    /// Nanoseconds the workers spent filling tiles and subtracting.
    build_ns: AtomicU64,
    /// Nanoseconds the workers spent in FindSplit.
    find_ns: AtomicU64,
    epoch: Instant,
}

impl<'c> TileBody<'c> {
    /// A body for the tiles of `jobs` cut at any of `bounds`; it holds the
    /// worker tile pairs of `stash` until [`TileBody::finish`].
    fn new(
        ctx: &'c DriverCtx<'c>,
        stash: &mut [Vec<f64>],
        jobs: &[TileJob],
        search: SplitSearch<'c>,
        bounds: &[&[usize]],
    ) -> Self {
        let n_threads = ctx.pool.num_threads();
        let sibling = |j: &TileJob| j.sibling.as_ref().map(|s| (s.node, s.stats, s.in_place));
        let widths = bounds.iter().flat_map(|b| b.windows(2).map(|w| w[1] - w[0]));
        Self {
            ctx,
            search,
            metas: jobs.iter().map(|j| (j.node, j.stats, sibling(j))).collect(),
            pairs: PerWorker::new(n_threads, |w| stash.get_mut(w).map(take).unwrap_or_default()),
            tile_lanes: widths.max().unwrap_or(0),
            cells: AtomicU64::new(0),
            build_ns: AtomicU64::new(0),
            find_ns: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    fn now(&self) -> u64 {
        self.ctx
            .trace()
            .map_or_else(|| self.epoch.elapsed().as_nanos() as u64, TraceSink::now_ns)
    }

    /// Runs the body on tile `g` on `worker`.
    fn run(&self, g: usize, tile: &mut TileWork<'_>, worker: usize) {
        let (ctx, mapper, trace) = (self.ctx, self.ctx.qm.mapper(), self.ctx.trace());
        let lane_of = |f: usize| hist::lane(mapper, f);
        let (features, fill) = (tile.features.clone(), tile.fill);
        let lane0 = lane_of(features.start);
        let n_lanes = lane_of(features.end) - lane0;
        let pair = self.pairs.get_mut(worker);
        let (mut local_cells, mut local_build, mut local_find) = (0u64, 0u64, 0u64);
        for (job_idx, lanes) in tile.jobs.clone().zip(&mut tile.lanes) {
            let (node, stats, sibling) = self.metas[job_idx];
            let in_place = sibling.is_some_and(|s| s.2);
            let in_scratch = lanes.own.is_none() || (sibling.is_some() && !in_place);
            if in_scratch && pair.len() < 2 * self.tile_lanes {
                pair.resize(2 * self.tile_lanes, 0.0);
            }
            let half = pair.len() / 2;
            let (scan_tile, sibling_tile) = pair.split_at_mut(half);

            let t0 = self.now();
            let small: &mut [f64] = match &mut lanes.own {
                Some(own) => own,
                None => {
                    let t = &mut scan_tile[..n_lanes];
                    hist::zero(t);
                    t
                }
            };
            let rows = ctx.partition.rows(node);
            let grads = ctx.grad_source(node);
            match fill {
                Fill::Filled => {
                    for src in &mut lanes.replicas {
                        for (d, s) in small.iter_mut().zip(src.iter_mut()) {
                            *d += *s;
                            *s = 0.0;
                        }
                    }
                }
                Fill::Columns(tasks) => {
                    for task in tasks {
                        for f in features.clone() {
                            let n_bins = mapper.n_bins(f) as usize;
                            let bin_range = match task.bins {
                                None => 0..n_bins,
                                Some((lo, hi)) => lo.min(n_bins)..hi.min(n_bins),
                            };
                            if bin_range.is_empty() {
                                continue;
                            }
                            let base = lane_of(f) - lane0;
                            let hist_f = &mut small[base..base + n_bins * 2];
                            local_cells +=
                                col_scan_store(ctx.qm, f, rows, grads, bin_range, hist_f);
                        }
                    }
                }
                Fill::Rows(scan_blk) => {
                    for b in feature_blocks(features.len(), scan_blk) {
                        let fs = features.start + b.start..features.start + b.end;
                        let hist = &mut small[lane_of(fs.start) - lane0..lane_of(fs.end) - lane0];
                        local_cells += row_scan_store(ctx.qm, rows, grads, fs, hist, false);
                    }
                }
            }
            // The one tile body.
            let t_filled = trace.map(|s| s.now_ns());
            let large: Option<&[f64]> = match (&mut lanes.parent, in_place) {
                (Some(parent), true) => {
                    hist::subtract_in_place(parent, small);
                    Some(&**parent)
                }
                (Some(parent), false) => {
                    let t = &mut sibling_tile[..n_lanes];
                    hist::subtract(parent, small, t);
                    Some(&*t)
                }
                (None, _) => None,
            };
            let t1 = self.now();
            let find = |tile: &[f64], stats: &NodeStats| {
                let SplitSearch { settings, mask } = self.search;
                find_split_tile(tile, lane0, stats, mapper, features.clone(), settings, mask)
            };
            let found_small = find(small, &stats);
            let found_large = large.zip(sibling).and_then(|(l, (_, stats, _))| find(l, &stats));
            let t2 = self.now();
            tile.found.push([found_small, found_large]);
            local_build += t1 - t0;
            local_find += t2 - t1;
            if let (Some(sink), Some(t_filled)) = (trace, t_filled) {
                if !matches!(fill, Fill::Filled) {
                    sink.record(worker, TracePhase::BuildHist, node, g as u32, t0, t_filled);
                } else if !lanes.replicas.is_empty() {
                    sink.record(worker, TracePhase::Reduce, node, g as u32, t0, t_filled);
                }
                if let Some((sibling, ..)) = sibling {
                    sink.record(worker, TracePhase::Reduce, sibling, g as u32, t_filled, t1);
                }
                sink.record(worker, TracePhase::FindSplit, node, g as u32, t1, t2);
            }
        }
        self.cells.fetch_add(local_cells, Ordering::Relaxed);
        self.build_ns.fetch_add(local_build, Ordering::Relaxed);
        self.find_ns.fetch_add(local_find, Ordering::Relaxed);
    }

    /// Each job's best split — the partial candidates of `tiles` folded in
    /// ascending block order, the order a whole-histogram scan resolves ties
    /// in — and the time the workers spent building and searching. Hands
    /// the tile pairs back to `stash`.
    fn finish(self, mut tiles: Vec<TileWork<'_>>, stash: &mut Vec<Vec<f64>>) -> TileOutcome {
        tiles.sort_by_key(|tile| (tile.jobs.start, tile.features.start));
        let mut found = vec![[None, None]; self.metas.len()];
        for tile in tiles {
            for (job_idx, block) in tile.jobs.zip(tile.found) {
                for (best, partial) in found[job_idx].iter_mut().zip(block) {
                    *best = better_of(*best, partial);
                }
            }
        }
        *stash = self.pairs.into_values();
        self.ctx.report_cells(self.cells.into_inner());
        TileOutcome {
            found,
            build_ns: self.build_ns.into_inner(),
            find_ns: self.find_ns.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::{hist_width_for, reduce_into, HistPool};
    use crate::kernels::row_scan_scalar;
    use crate::params::BlockConfig;
    use crate::split::find_split_range;
    use harp_binning::{BinningConfig, QuantizedMatrix};
    use harp_data::{DatasetKind, SynthConfig};
    use harp_metrics::MemGauge;
    use harp_parallel::Profile;
    use proptest::prelude::*;
    use std::sync::{Arc, OnceLock};

    fn setup(kind: DatasetKind, membuf: bool) -> (QuantizedMatrix, Vec<GradPair>, RowPartition) {
        let d = SynthConfig::new(kind, 42).with_scale(0.02).generate();
        let qm = QuantizedMatrix::from_matrix(&d.features, BinningConfig::with_max_bins(32));
        let n = qm.n_rows();
        let grads: Vec<GradPair> = (0..n).map(|i| [((i * 7) % 13) as f32 - 6.0, 1.0]).collect();
        let mut part = RowPartition::new(n, 64, membuf);
        part.reset(&grads);
        // Split the root twice to get a 3-node frontier {3, 4, 2}.
        part.apply_split(0, 1, 2, &|_, r| r % 2 == 0, None);
        part.apply_split(1, 3, 4, &|_, r| r % 3 == 0, None);
        (qm, grads, part)
    }

    fn reference_hist(
        qm: &QuantizedMatrix,
        part: &RowPartition,
        grads: &[GradPair],
        node: NodeId,
    ) -> Vec<f64> {
        let mut buf = vec![0.0; hist_width_for(qm)];
        row_scan_scalar(
            qm,
            part.rows(node),
            GradSource::Global(grads),
            0..qm.n_features(),
            &mut buf,
        );
        buf
    }

    fn run_driver(
        policy: BatchPolicy,
        params: &TrainParams,
        qm: &QuantizedMatrix,
        part: &RowPartition,
        grads: &[GradPair],
        nodes: &[NodeId],
    ) -> Vec<Vec<f64>> {
        let pool = ThreadPool::new(params.n_threads);
        let mut scratch = DriverScratch::new();
        run_driver_with(policy, params, qm, part, grads, nodes, &pool, &mut scratch)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_driver_with(
        policy: BatchPolicy,
        params: &TrainParams,
        qm: &QuantizedMatrix,
        part: &RowPartition,
        grads: &[GradPair],
        nodes: &[NodeId],
        pool: &ThreadPool,
        scratch: &mut DriverScratch,
    ) -> Vec<Vec<f64>> {
        let ctx = DriverCtx { qm, params, pool, partition: part, grads };
        let width = hist_width_for(qm);
        // Every node has its own buffer and no sibling: on return each
        // buffer is the node's histogram.
        let mut jobs: Vec<TileJob> = nodes
            .iter()
            .map(|&node| TileJob {
                node,
                stats: NodeStats::default(),
                buf: Some(vec![0.0; width]),
                sibling: None,
            })
            .collect();
        expand(&ctx, scratch, &mut jobs, NO_SEARCH, policy, None);
        jobs.into_iter().map(|j| j.buf.expect("full-width")).collect()
    }

    /// FindSplit inputs for the tests that only read histograms.
    const NO_SEARCH: SplitSearch<'static> = SplitSearch {
        settings: &SplitSettings { lambda: 1.0, gamma: 0.0, min_child_weight: 0.0 },
        mask: None,
    };

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert!((a[i] - b[i]).abs() < 1e-9, "lane {i}: {} vs {}", a[i], b[i]);
        }
    }

    #[test]
    fn dp_matches_reference_dense() {
        let (qm, grads, part) = setup(DatasetKind::HiggsLike, true);
        let params = TrainParams { n_threads: 4, ..Default::default() };
        let nodes = [3u32, 4, 2];
        let hists = run_driver(BatchPolicy::Replicated, &params, &qm, &part, &grads, &nodes);
        for (i, &n) in nodes.iter().enumerate() {
            assert_close(&hists[i], &reference_hist(&qm, &part, &grads, n));
        }
    }

    #[test]
    fn dp_root_fast_path_matches_reference() {
        let d = SynthConfig::new(DatasetKind::HiggsLike, 7).with_scale(0.02).generate();
        let qm = QuantizedMatrix::from_matrix(&d.features, BinningConfig::with_max_bins(32));
        let n = qm.n_rows();
        let grads: Vec<GradPair> = (0..n).map(|i| [(i % 11) as f32 - 5.0, 1.0]).collect();
        for membuf in [true, false] {
            let mut part = RowPartition::new(n, 8, membuf);
            part.reset(&grads);
            assert!(part.is_identity_order());
            let params = TrainParams { n_threads: 4, use_membuf: membuf, ..Default::default() };
            let hists = run_driver(BatchPolicy::Replicated, &params, &qm, &part, &grads, &[0u32]);
            assert_close(&hists[0], &reference_hist(&qm, &part, &grads, 0));
        }
    }

    #[test]
    fn mp_matches_reference_dense() {
        let (qm, grads, part) = setup(DatasetKind::HiggsLike, true);
        let params = TrainParams { n_threads: 4, ..Default::default() };
        let nodes = [3u32, 4, 2];
        let hists = run_driver(BatchPolicy::Exclusive, &params, &qm, &part, &grads, &nodes);
        for (i, &n) in nodes.iter().enumerate() {
            assert_close(&hists[i], &reference_hist(&qm, &part, &grads, n));
        }
    }

    #[test]
    fn mp_matches_reference_sparse() {
        let (qm, grads, part) = setup(DatasetKind::YfccLike, true);
        let params = TrainParams { n_threads: 3, ..Default::default() };
        let nodes = [3u32, 4, 2];
        let hists = run_driver(BatchPolicy::Exclusive, &params, &qm, &part, &grads, &nodes);
        for (i, &n) in nodes.iter().enumerate() {
            assert_close(&hists[i], &reference_hist(&qm, &part, &grads, n));
        }
    }

    #[test]
    fn dp_matches_reference_sparse() {
        let (qm, grads, part) = setup(DatasetKind::YfccLike, false);
        let params = TrainParams { n_threads: 2, use_membuf: false, ..Default::default() };
        let nodes = [3u32, 4, 2];
        let hists = run_driver(BatchPolicy::Replicated, &params, &qm, &part, &grads, &nodes);
        for (i, &n) in nodes.iter().enumerate() {
            assert_close(&hists[i], &reference_hist(&qm, &part, &grads, n));
        }
    }

    #[test]
    fn block_configs_do_not_change_results() {
        let (qm, grads, part) = setup(DatasetKind::AirlineLike, true);
        let nodes = [3u32, 4, 2];
        let base = {
            let params = TrainParams { n_threads: 4, ..Default::default() };
            run_driver(BatchPolicy::Exclusive, &params, &qm, &part, &grads, &nodes)
        };
        for (f_blk, n_blk, b_blk) in [(1, 1, 0), (2, 2, 8), (4, 3, 4), (0, 0, 1)] {
            let params = TrainParams {
                n_threads: 4,
                blocks: BlockConfig {
                    row_blk_size: 100,
                    node_blk_size: n_blk,
                    feature_blk_size: f_blk,
                    bin_blk_size: b_blk,
                },
                ..Default::default()
            };
            let hists = run_driver(BatchPolicy::Exclusive, &params, &qm, &part, &grads, &nodes);
            for i in 0..nodes.len() {
                assert_close(&hists[i], &base[i]);
            }
            let dp = run_driver(BatchPolicy::Replicated, &params, &qm, &part, &grads, &nodes);
            for i in 0..nodes.len() {
                assert_close(&dp[i], &base[i]);
            }
        }
    }

    #[test]
    fn deterministic_dp_is_bitwise_reproducible() {
        let (qm, grads, part) = setup(DatasetKind::HiggsLike, true);
        let params = TrainParams { n_threads: 4, ..Default::default() };
        let nodes = [3u32, 4, 2];
        let a = run_driver(BatchPolicy::Replicated, &params, &qm, &part, &grads, &nodes);
        let b = run_driver(BatchPolicy::Replicated, &params, &qm, &part, &grads, &nodes);
        for i in 0..nodes.len() {
            assert_eq!(a[i], b[i], "node {i} not bitwise equal");
        }
    }

    #[test]
    fn pooled_replicas_stay_bitwise_reproducible_across_calls() {
        // The dirty-zeroing bug magnet: the second call reuses replicas the
        // first call dirtied. With row_blk forcing many tasks per slot the
        // dirty set is non-trivial.
        let (qm, grads, part) = setup(DatasetKind::HiggsLike, true);
        let params = TrainParams {
            n_threads: 4,
            blocks: BlockConfig { row_blk_size: 64, ..Default::default() },
            ..Default::default()
        };
        let nodes = [3u32, 4, 2];
        let pool = ThreadPool::new(params.n_threads);
        let mut scratch = DriverScratch::new();
        let first = run_driver_with(
            BatchPolicy::Replicated,
            &params,
            &qm,
            &part,
            &grads,
            &nodes,
            &pool,
            &mut scratch,
        );
        // A second call over a *different* node set in between, to dirty
        // other lanes.
        let _ = run_driver_with(
            BatchPolicy::Replicated,
            &params,
            &qm,
            &part,
            &grads,
            &[2u32],
            &pool,
            &mut scratch,
        );
        let second = run_driver_with(
            BatchPolicy::Replicated,
            &params,
            &qm,
            &part,
            &grads,
            &nodes,
            &pool,
            &mut scratch,
        );
        for i in 0..nodes.len() {
            assert_eq!(first[i], second[i], "node {i} differs with pooled replicas");
        }
    }

    #[test]
    fn pooled_replicas_allocate_only_once() {
        let (qm, grads, part) = setup(DatasetKind::HiggsLike, true);
        let params = TrainParams { n_threads: 4, ..Default::default() };
        let nodes = [3u32, 4, 2];
        let profile = Arc::new(Profile::new());
        let pool = ThreadPool::with_profile(params.n_threads, Arc::clone(&profile));
        let mut scratch = DriverScratch::new();
        let mut first_call_allocs = 0;
        for call in 0..3 {
            let _ = run_driver_with(
                BatchPolicy::Replicated,
                &params,
                &qm,
                &part,
                &grads,
                &nodes,
                &pool,
                &mut scratch,
            );
            let allocs = profile.scratch_allocs.load(Ordering::Relaxed);
            let reuses = profile.scratch_reuses.load(Ordering::Relaxed);
            if call == 0 {
                assert!(allocs > 0, "first call must allocate replicas");
                assert_eq!(reuses, 0);
                first_call_allocs = allocs;
            } else {
                assert_eq!(allocs, first_call_allocs, "steady state must not allocate");
                assert_eq!(reuses, first_call_allocs * call as u64);
            }
        }
    }

    #[test]
    fn membuf_and_global_grads_agree() {
        let (qm, grads, part_mb) = setup(DatasetKind::CriteoLike, true);
        let (_, _, part_nomb) = setup(DatasetKind::CriteoLike, false);
        let params_mb = TrainParams { n_threads: 2, ..Default::default() };
        let params_nomb = TrainParams { n_threads: 2, use_membuf: false, ..Default::default() };
        let nodes = [3u32, 4, 2];
        let a = run_driver(BatchPolicy::Exclusive, &params_mb, &qm, &part_mb, &grads, &nodes);
        let b = run_driver(BatchPolicy::Exclusive, &params_nomb, &qm, &part_nomb, &grads, &nodes);
        for i in 0..nodes.len() {
            assert_close(&a[i], &b[i]);
        }
    }

    #[test]
    fn empty_jobs_are_noop() {
        let (qm, grads, part) = setup(DatasetKind::HiggsLike, true);
        let params = TrainParams { n_threads: 2, ..Default::default() };
        let pool = ThreadPool::new(2);
        let mut scratch = DriverScratch::new();
        let ctx =
            DriverCtx { qm: &qm, params: &params, pool: &pool, partition: &part, grads: &grads };
        for policy in [BatchPolicy::Replicated, BatchPolicy::Exclusive, BatchPolicy::NodeTasks] {
            let out = expand(&ctx, &mut scratch, &mut [], NO_SEARCH, policy, None);
            assert!(out.found.is_empty());
        }
    }

    #[test]
    fn zero_row_jobs_emit_no_tasks_and_stay_zero() {
        let (qm, grads, part) = setup(DatasetKind::HiggsLike, true);
        // Manufacture an empty node: split node 2 sending every row left.
        part.apply_split(2, 5, 6, &|_, _| true, None);
        assert_eq!(part.node_len(6), 0);
        let params = TrainParams { n_threads: 4, ..Default::default() };
        let hists = run_driver(BatchPolicy::Replicated, &params, &qm, &part, &grads, &[3u32, 6, 4]);
        assert!(hists[1].iter().all(|&x| x == 0.0), "zero-row job must stay zeroed");
        assert_close(&hists[0], &reference_hist(&qm, &part, &grads, 3));
        assert_close(&hists[2], &reference_hist(&qm, &part, &grads, 4));
    }

    #[test]
    fn a_replicated_batch_opens_one_region_or_two_with_a_multi_block_job() {
        let (qm, grads, part) = setup(DatasetKind::HiggsLike, true);
        let profile = Arc::new(Profile::new());
        let pool = ThreadPool::with_profile(2, Arc::clone(&profile));
        let regions = |row_blk_size: usize, nodes: &[NodeId]| {
            let blocks = BlockConfig { row_blk_size, ..Default::default() };
            let params = TrainParams { n_threads: 2, blocks, ..Default::default() };
            let mut scratch = DriverScratch::new();
            let before = profile.regions.load(Ordering::Relaxed);
            let policy = BatchPolicy::Replicated;
            run_driver_with(policy, &params, &qm, &part, &grads, nodes, &pool, &mut scratch);
            profile.regions.load(Ordering::Relaxed) - before
        };
        // Three jobs of one row block each: the slots fill and finish them.
        assert_eq!(regions(qm.n_rows(), &[3, 4, 2]), 1);
        // At the default `rows / T`, node 2 (half the rows) spans two row
        // blocks and node 3 (a sixth) one: the slots fill both and finish
        // node 3, node 2's tiles fold its replicas and finish it.
        let lens = (part.node_len(2), part.node_len(3));
        assert!(lens.0 > (lens.0 + lens.1) / 2 && lens.1 <= (lens.0 + lens.1) / 2, "{lens:?}");
        assert_eq!(regions(0, &[3, 2]), 2);
    }

    /// Job `j`'s histogram (of node `node`) as the static schedule of `plan`
    /// over `n_slots` slots builds it: each slot's tasks of the job
    /// accumulated into a zeroed replica, the replicas folded in slot order.
    fn replay_schedule(
        qm: &QuantizedMatrix,
        part: &RowPartition,
        grads: &[GradPair],
        plan: &BlockPlan,
        n_slots: usize,
        (j, node): (usize, NodeId),
    ) -> Vec<f64> {
        let width = hist_width_for(qm);
        let mut all_replicated = vec![0.0; width];
        for slot in 0..n_slots {
            let mut replica = vec![0.0; width];
            let tasks = plan.tasks().iter().skip(slot).step_by(n_slots);
            for task in tasks.filter(|t| t.jobs.start == j) {
                row_scan_scalar(
                    qm,
                    &part.rows(node)[task.rows.clone()],
                    GradSource::Global(grads),
                    task.features.clone(),
                    &mut replica[hist::lanes(qm.mapper(), task.features.clone())],
                );
            }
            reduce_into(&mut all_replicated, &replica);
        }
        all_replicated
    }

    /// A dense matrix at 32 and at 12 bins and a sparse one, quantized once.
    fn scan_layouts() -> &'static [QuantizedMatrix] {
        static LAYOUTS: OnceLock<Vec<QuantizedMatrix>> = OnceLock::new();
        LAYOUTS.get_or_init(|| {
            let quantize = |kind, max_bins| {
                let d = SynthConfig::new(kind, 42).with_scale(0.02).generate();
                QuantizedMatrix::from_matrix(&d.features, BinningConfig::with_max_bins(max_bins))
            };
            let layouts = vec![
                quantize(DatasetKind::HiggsLike, 32),
                quantize(DatasetKind::HiggsLike, 12),
                quantize(DatasetKind::YfccLike, 32),
            ];
            let kinds: Vec<ScanLayout> = layouts.iter().map(|qm| ScanLayout::of(qm)).collect();
            assert_eq!(kinds, [ScanLayout::DenseU8, ScanLayout::DenseU8, ScanLayout::Sparse]);
            layouts
        })
    }

    /// Explicit `row_blk_size` choices next to the default `batch / threads`.
    const ROW_BLKS: [usize; 4] = [0, 0, 48, 300];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The per-job accumulation policy as an equivalence. A batch of
        /// leaves of mixed sizes — the root split down a chain, each level
        /// keeping a random share — goes through the DP executor. A job of
        /// one row block must come out bitwise as the scalar ascending-row
        /// scan; every job must come out bitwise as the replayed static
        /// schedule produces it (each slot's tasks accumulated into a zeroed
        /// replica, replicas folded in slot order); and the arena must have
        /// been asked for lanes for the multi-block jobs only.
        #[test]
        fn one_block_jobs_write_their_own_buffer_and_nothing_else_changes(
            layout in 0usize..3,
            shares in proptest::collection::vec(1u64..8, 1..6),
            threads in 1usize..5,
            row_blk in 0usize..4,
            feature_blk in 0usize..6,
            membuf in any::<bool>(),
        ) {
            let qm = &scan_layouts()[layout];
            let n = qm.n_rows();
            // Positive values over forty binades: their f64 sums round, so
            // any change of accumulation order shows in the last bits.
            let wide = |h: u64| {
                (1.0 + (h % 1024) as f32 / 1024.0) * 2f32.powi((h >> 10) as i32 % 40 - 30)
            };
            let grads: Vec<GradPair> = (0..n as u64)
                .map(|i| [wide(crate::loss::hash64(i)), wide(crate::loss::hash64(!i))])
                .collect();
            let mut part = RowPartition::new(n, 64, membuf);
            part.reset(&grads);
            let mut nodes: Vec<NodeId> = Vec::new();
            for (depth, &share) in shares.iter().enumerate() {
                let parent = 2 * depth as u32;
                let salt = (depth as u64) << 32;
                let keeps = |_, r: u32| crate::loss::hash64(u64::from(r) ^ salt) % 8 < share;
                part.apply_split(parent, parent + 1, parent + 2, &keeps, None);
                nodes.push(parent + 1);
            }
            nodes.push(2 * shares.len() as u32);
            let params = TrainParams {
                n_threads: threads,
                use_membuf: membuf,
                blocks: BlockConfig {
                    row_blk_size: ROW_BLKS[row_blk],
                    feature_blk_size: feature_blk,
                    ..Default::default()
                },
                ..Default::default()
            };

            let pool = ThreadPool::new(threads);
            let mut scratch = DriverScratch::new();
            let arena = Arc::new(MemGauge::new());
            scratch.set_replica_gauge(Arc::clone(&arena));
            let hists = run_driver_with(
                BatchPolicy::Replicated, &params, qm, &part, &grads, &nodes, &pool, &mut scratch,
            );

            // The plan the executor ran, rebuilt here to tell the jobs apart
            // and to replay the static schedule.
            let job_lens: Vec<usize> = nodes.iter().map(|&node| part.node_len(node)).collect();
            let ctx =
                DriverCtx { qm, params: &params, pool: &pool, partition: &part, grads: &grads };
            let mut plan = BlockPlan::new();
            plan.rebuild(&params.blocks, &ctx.batch_shape(), &job_lens, Accumulation::Replicated);
            let n_slots = threads.min(plan.tasks().len());
            let width = hist_width_for(qm);
            let mut multi_block = 0;
            for (j, &node) in nodes.iter().enumerate() {
                if job_lens[j] <= plan.extents().row_blk {
                    let ascending = reference_hist(qm, &part, &grads, node);
                    prop_assert!(hists[j] == ascending, "one-block job {} is not the scan", j);
                } else {
                    multi_block += 1;
                }
                let replayed = replay_schedule(qm, &part, &grads, &plan, n_slots, (j, node));
                prop_assert!(hists[j] == replayed, "job {} is not the static schedule", j);
            }
            let replicas = if multi_block == 0 { 0 } else { n_slots };
            prop_assert_eq!(arena.high_water(), (replicas * multi_block * width * 8) as u64);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The tile pipeline under each of its three fills against the
        /// three regions it replaced, spelled out with reference kernels —
        /// the Exclusive fill (the column scan inside the tile), the
        /// Replicated fill (the slots' chunk sweeps, each slot finishing the
        /// one-block jobs' tiles it filled; with `split_rows`, a job of more
        /// than 48 rows spans several row blocks and its tiles fold its
        /// replicas) and the NodeTasks fill (the row scan inside the tile,
        /// on the calling thread). The
        /// root is cut into leaves and every leaf is split — evenly,
        /// unevenly, into one row and the rest, into nothing and
        /// everything — and the splits
        /// form one batch: where the parent's histogram is "cached" the
        /// smaller child is scanned and the larger derived, elsewhere both
        /// are scanned; every histogram is filed or not at random under the
        /// Exclusive fill and full-width under the other two. Each
        /// node's folded candidate must be what `find_split_range` finds in
        /// its full-width reference histogram (the scalar ascending-row
        /// scan, or the replayed static schedule for a job of several row
        /// blocks; for a derived sibling, parent − small of two such), every
        /// filed buffer must be that histogram bit for bit, and a parent
        /// that was only read must come back untouched. That holds only if
        /// the groups of one job cover disjoint feature-block lanes that
        /// together are all of them, and a parent's buffer is touched by its
        /// own job's groups alone.
        #[test]
        fn fused_tiles_find_what_full_width_histograms_hold(
            layout in 0usize..3,
            splits in proptest::collection::vec((0u64..10, any::<bool>(), 0u8..8), 1..5),
            threads in 1usize..5,
            feature_blk in 0usize..5,
            node_blk in 0usize..4,
            bin_blk in 0usize..3,
            membuf in any::<bool>(),
            fill in 0usize..3,
            split_rows in any::<bool>(),
        ) {
            let qm = &scan_layouts()[layout];
            let (n, m) = (qm.n_rows(), qm.n_features());
            let mapper = qm.mapper();
            let wide = |h: u64| {
                (1.0 + (h % 1024) as f32 / 1024.0) * 2f32.powi((h >> 10) as i32 % 40 - 30)
            };
            let grads: Vec<GradPair> = (0..n as u64)
                .map(|i| [wide(crate::loss::hash64(i)), wide(crate::loss::hash64(!i))])
                .collect();
            let mut part = RowPartition::new(n, 64, membuf);
            part.reset(&grads);
            // Leaves 1, 3, 5, … and the last right child, of about equal size.
            let mut leaves: Vec<NodeId> = Vec::new();
            for depth in 0..splits.len() - 1 {
                let parent = 2 * depth as u32;
                let left = (splits.len() - depth) as u64;
                let keeps = |_, r: u32| crate::loss::hash64(u64::from(r) ^ 0xABCD) % left == 0;
                part.apply_split(parent, parent + 1, parent + 2, &keeps, None);
                leaves.push(parent + 1);
            }
            leaves.push(2 * (splits.len() as u32 - 1));

            let width = hist_width_for(qm);
            let reference = |node: NodeId| {
                let mut buf = vec![0.0; width];
                let all = GradSource::Global(&grads);
                row_scan_scalar(qm, part.rows(node), all, 0..m, &mut buf);
                buf
            };
            let stats_of = |node: NodeId| {
                let mut s = NodeStats { count: part.node_len(node) as u32, ..Default::default() };
                for &r in part.rows(node) {
                    s.g += f64::from(grads[r as usize][0]);
                    s.h += f64::from(grads[r as usize][1]);
                }
                s
            };

            // Split every leaf; what the batch is told and what it must find.
            let parents: Vec<(NodeId, Vec<f64>)> =
                leaves.iter().map(|&leaf| (leaf, reference(leaf))).collect();
            let mut jobs: Vec<TileJob> = Vec::new();
            // Per job: the reference histogram of its node and, with a
            // sibling, the sibling's and the parent's.
            type Refs<'a> = (Vec<f64>, Option<(Vec<f64>, &'a Vec<f64>)>);
            let mut expect: Vec<Refs<'_>> = Vec::new();
            let mut next = 2 * splits.len() as u32 - 1;
            for (&(share, cached, flags), (leaf, parent_ref)) in splits.iter().zip(&parents) {
                let (l, r) = (next, next + 1);
                next += 2;
                let first = part.rows(*leaf).first().copied();
                let goes_left = |_, row: u32| match share {
                    8 => false,
                    9 => Some(row) == first,
                    _ => crate::loss::hash64(u64::from(row) ^ 0x5EED) % 8 < share,
                };
                part.apply_split(*leaf, l, r, &goes_left, None);
                let (small, large) = if part.node_len(l) <= part.node_len(r) { (l, r) } else { (r, l) };
                // Only an Exclusive batch builds a histogram it cannot file
                // in scratch.
                let file_small = fill != 0 || flags & 1 != 0;
                let file_large = fill != 0 || flags & 2 != 0;
                let job = |node, filed: bool, sibling| TileJob {
                    node,
                    stats: stats_of(node),
                    buf: filed.then(|| vec![0.0; width]),
                    sibling,
                };
                if cached {
                    let small_ref = reference(small);
                    let mut large_ref = vec![0.0; width];
                    crate::hist::subtract(parent_ref, &small_ref, &mut large_ref);
                    let sibling = DerivedSibling {
                        node: large,
                        stats: stats_of(large),
                        parent: parent_ref.clone(),
                        in_place: file_large,
                    };
                    jobs.push(job(small, file_small, Some(sibling)));
                    expect.push((small_ref, Some((large_ref, parent_ref))));
                } else {
                    jobs.push(job(small, file_small, None));
                    jobs.push(job(large, file_large, None));
                    expect.extend([(reference(small), None), (reference(large), None)]);
                }
            }

            let params = TrainParams {
                n_threads: threads,
                use_membuf: membuf,
                blocks: BlockConfig {
                    // One row block per job, or several for a Replicated job
                    // of more than 48 rows.
                    row_blk_size: if fill == 1 && split_rows { 48 } else { n },
                    node_blk_size: node_blk,
                    feature_blk_size: [0, 1, 2, 3, m / 2][feature_blk],
                    bin_blk_size: [0, 5, 16][bin_blk],
                },
                ..Default::default()
            };
            let settings = SplitSettings { lambda: 1.0, gamma: 0.0, min_child_weight: 0.0 };
            let pool = ThreadPool::new(threads);
            let mut scratch = DriverScratch::new();
            let arena = Arc::new(MemGauge::new());
            scratch.set_replica_gauge(Arc::clone(&arena));
            let ctx =
                DriverCtx { qm, params: &params, pool: &pool, partition: &part, grads: &grads };
            let search = SplitSearch { settings: &settings, mask: None };
            // A Replicated job of several row blocks is what the static
            // schedule builds, and each slot holds a replica of such jobs.
            let mut replica_bytes = 0;
            if fill == 1 {
                let job_lens: Vec<usize> = jobs.iter().map(|j| part.node_len(j.node)).collect();
                let mut plan = BlockPlan::new();
                plan.rebuild(&params.blocks, &ctx.batch_shape(), &job_lens, Accumulation::Replicated);
                let n_slots = threads.min(plan.tasks().len());
                for (j, (job, refs)) in jobs.iter().zip(&mut expect).enumerate() {
                    if plan.replica_slot(j).is_some() {
                        refs.0 = replay_schedule(qm, &part, &grads, &plan, n_slots, (j, job.node));
                        if let Some((large_ref, parent_ref)) = &mut refs.1 {
                            crate::hist::subtract(parent_ref, &refs.0, large_ref);
                        }
                    }
                }
                if plan.n_replicated_jobs() > 0 {
                    replica_bytes = n_slots * plan.n_replicated_jobs() * width * 8;
                }
            }
            let out = match fill {
                0 => expand(&ctx, &mut scratch, &mut jobs, search, BatchPolicy::Exclusive, None),
                1 => expand(&ctx, &mut scratch, &mut jobs, search, BatchPolicy::Replicated, None),
                _ => {
                    let (policy, worker) = (BatchPolicy::NodeTasks, Some(threads - 1));
                    expand(&ctx, &mut scratch, &mut jobs, search, policy, worker)
                }
            };

            let mut hists = HistPool::for_store(qm, usize::MAX);
            let mut all_filed = true;
            for ((job, found), (small_ref, sibling_refs)) in
                jobs.into_iter().zip(&out.found).zip(&expect)
            {
                let want = find_split_range(small_ref, &job.stats, mapper, 0..m, &settings);
                prop_assert!(found[0] == want, "node {}: {:?} vs {:?}", job.node, found[0], want);
                all_filed &= job.buf.is_some();
                if let Some(buf) = &job.buf {
                    prop_assert!(buf == small_ref, "filed node {} is not its scan", job.node);
                }
                let Some(s) = job.sibling else {
                    prop_assert!(found[1].is_none());
                    continue;
                };
                let (large_ref, parent_ref) = sibling_refs.as_ref().expect("sibling references");
                let want = find_split_range(large_ref, &s.stats, mapper, 0..m, &settings);
                prop_assert!(found[1] == want, "derived node {}: {:?} vs {:?}", s.node, found[1], want);
                all_filed &= s.in_place;
                if s.in_place {
                    prop_assert!(&s.parent == large_ref, "node {} is not parent - small", s.node);
                } else {
                    prop_assert!(&s.parent == *parent_ref, "a parent that was only read changed");
                    // Discarded: the next user must find it zeroed.
                    hists.release(s.parent);
                    prop_assert!(hists.alloc().zeroed().iter().all(|&x| x == 0.0));
                }
            }
            // Scratch is the replicas, plus a tile pair per worker that
            // needed one, and nothing more when every histogram had a buffer
            // of its own.
            let widest = feature_blocks(m, params.blocks.features_per_block(m))
                .map(|b| hist::lanes(mapper, b).len())
                .max()
                .unwrap_or(0);
            prop_assert!(arena.high_water() <= (replica_bytes + threads * 2 * widest * 8) as u64);
            prop_assert!(!all_filed || arena.high_water() == replica_bytes as u64);
        }
    }
}
