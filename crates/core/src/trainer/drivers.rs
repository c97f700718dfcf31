//! The one BlockPlan executor: every mode expands a batch through [`expand`].
//!
//! A batch is a list of jobs — one per tree node scanned from its rows, with
//! the sibling to derive from it as `parent − node` where the parent's
//! histogram came out of the cache ([`TileJob`], [`DerivedSibling`]).
//! Expanding it always ends in **one tile body** (`TileBody`): a *tile* is
//! one job's lanes of one feature block; once they are filled the body forms
//! the sibling's tile as `parent − small` (in place in the parent's buffer
//! or into scratch) and runs FindSplit on both, one partial candidate per
//! ⟨node, feature-block⟩, folded in ascending block order. Nothing else in
//! the trainer subtracts or searches.
//!
//! Every fill runs in **one slot executor**: a *schedule slot* is ONE chunk
//! sweep ([`sweep_chunks`]) whose cursors are the ⟨job, feature-block⟩ pieces
//! of the slot's tiles — row scans, or column scans of one bin block — and a
//! tile is finished as soon as the sweep has visited its cursors' last runs.
//! Concurrent slots stay within an eviction-free window of each other (the
//! sweep throttle of `run_slots`). The batch's [`Accumulation`] picks only
//! how tiles and cursors are dealt to slots; the block decomposition lives
//! in [`crate::plan`]:
//!
//! * **Replicated** (DP): a [`BlockPlan`] of ⟨node-block, feature-block,
//!   row-chunk⟩ tasks, task `i` a row-scan cursor of slot `i mod T`. A job
//!   of one row chunk has tasks that differ only in feature block, so each
//!   task fills one tile of the job's own buffer
//!   ([`BlockPlan::replica_slot`]) and its slot finishes it; a batch of such
//!   jobs is that one region. A job cut into several row chunks gets lanes
//!   in one replica per slot; a second region cuts it into ⟨job,
//!   feature-chunk⟩ tiles, `⌈4T / jobs⌉` chunks per job so that a narrow
//!   batch still spreads over the pool, and each tile's fill is the fold of
//!   its replicas' lanes. Replica and fold cost therefore follow the rows of
//!   a batch, not its node count — the node-proportional reduction is the
//!   scaling weakness of XGB-Hist that Fig. 11 shows for large trees.
//! * **Exclusive** (MP): the plan's ⟨node-block, feature-block⟩ groups are
//!   dealt round-robin to `T` slots, so the whole batch is one region. Each
//!   job of a group is a tile, filled by one column-scan cursor per
//!   bin-block task. A node whose histogram can be filed
//!   ([`crate::hist::HistPool::files`]) is scanned into its own full-width
//!   buffer and a filed sibling is subtracted in place; every other tile is
//!   a piece of its slot's scratch, gone after FindSplit.
//!
//! A batch whose caller is itself a task of the pool (an ASYNC node task)
//! is planned for one schedule slot and runs as that slot on the calling
//! worker, opening no region. It is the Replicated corner: a plan for one
//! slot cuts no job into row blocks, so there is no replica and no fold;
//! the slot's cursors are each job's feature blocks, job by job, and each
//! job is one tile.
//!
//! DP runs one schedule, an OpenMP *static* one: slot `t` of `T` processes
//! every `T`-th task into replica `t`, so per-cell accumulation order is
//! independent of thread timing, and a tile folds the replicas in slot
//! order however the lanes are cut. A slot's lanes — its replica, then the
//! scratch of its tiles that have no buffer, then one sibling tile — come
//! zeroed from the arena of a caller-held [`DriverScratch`], with the plan;
//! both survive across frontiers and trees. Only an in-core Exclusive batch
//! has tiles without a buffer: out of core a tile would fill over the whole
//! chunk sweep and cost a histogram anyway, so every job has its own. In
//! core a sweep is one step and a slot's tiles finish in turn, so they share
//! one scratch piece. A tile zeroes each replica lane as it folds it and
//! each scratch lane once searched, so the arena only ever holds zeroed
//! lanes and hands them out as they are.

use crate::hist::{self, ScratchPool};
use crate::kernels::{col_scan_run, row_scan_run, GradSource, BYTES_PER_CELL, FLOPS_PER_CELL};
use crate::loss::GradPair;
use crate::params::TrainParams;
use crate::partition::RowPartition;
use crate::plan::{
    dp_write_working_set, feature_blocks, mp_write_working_set, Accumulation, BatchShape,
    BlockPlan, BlockTask, ScanLayout,
};
use crate::split::{better_of, find_split_tile, SplitCandidate, SplitSettings};
use crate::tree::{NodeId, NodeStats};
use harp_binning::{sweep_chunks, BinMapper, QuantStore, Rows};
use harp_metrics::MemTable;
use harp_parallel::{ThreadPool, TracePhase, TraceSink};
use std::mem::take;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// A node a batch scans from its rows, to be finished one feature-block tile
/// at a time.
pub struct TileJob {
    /// The node whose rows are scanned.
    pub node: NodeId,
    /// Its gradient totals, FindSplit's node statistics.
    pub stats: NodeStats,
    /// The node's own zeroed full-width buffer: the tiles are then its
    /// lanes, and on return it is the node's histogram. `None` (only in an
    /// Exclusive batch: a node whose histogram cannot be filed,
    /// [`crate::hist::HistPool::files`]) builds every tile in its slot's
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
    /// Otherwise (only in an Exclusive batch) `parent` is only read and the
    /// difference lives in scratch.
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
    /// The run's byte gauges: the arena's lanes count under
    /// `scratch_arena`.
    pub mem: &'a MemTable,
}

impl DriverCtx<'_> {
    fn grad_source<'a>(&'a self, node: NodeId) -> GradSource<'a> {
        GradSource::select(self.partition.grads(node), self.grads)
    }

    fn trace(&self) -> Option<&TraceSink> {
        self.pool.trace().map(|s| s.as_ref())
    }

    /// Whether a batch accumulated as `acc` is fused: scanned into scratch
    /// tiles, a full-width buffer held only for a histogram that can be
    /// filed. Only an in-core Exclusive batch is; out of core a scratch
    /// tile fills over the whole chunk sweep and costs a histogram anyway.
    pub fn fused(&self, acc: Accumulation) -> bool {
        acc == Accumulation::Exclusive && self.qm.n_chunks() == 1
    }

    /// The batch shape the planner sees for this store, run as `slots`
    /// schedule slots.
    fn batch_shape(&self, slots: usize) -> BatchShape {
        BatchShape {
            n_features: self.qm.n_features(),
            layout: ScanLayout::of(self.qm),
            max_bins: self.qm.mapper().max_bins_used() as usize,
            total_bins: self.qm.mapper().total_bins() as usize,
            n_threads: slots,
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

/// Caller-held driver scratch: the arena the schedule slots draw their
/// lanes from and the reusable [`BlockPlan`]. One per training engine; it
/// survives across frontiers and trees, so steady-state BuildHist allocates
/// nothing histogram-sized.
#[derive(Default)]
pub struct DriverScratch {
    arena: ScratchPool,
    plan: BlockPlan,
}

impl DriverScratch {
    /// Creates an empty scratch arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the shared plan for one batch of jobs of `job_lens` rows run
    /// as `slots` schedule slots, counts the batch and its tasks and
    /// observes its write working set (§IV-E, 16 bytes per cell, shared with
    /// the cost model); returns the feature block. Every batch goes through
    /// the one enumerator.
    fn plan_batch(
        &mut self,
        ctx: &DriverCtx<'_>,
        job_lens: &[usize],
        acc: Accumulation,
        slots: usize,
    ) -> usize {
        let (plan, shape) = (&mut self.plan, ctx.batch_shape(slots));
        plan.rebuild(&ctx.params.blocks, &shape, job_lens, acc);
        let ext = plan.extents();
        let (exclusive, profile) = (plan.n_exclusive_tasks(), ctx.pool.profile());
        let replicated = plan.tasks().len() - exclusive;
        profile.add_plan_batch(replicated as u64, exclusive as u64, ext.auto);
        let (m, f_blk, node_blk) = (shape.n_features, ext.feature_blk, ext.node_blk);
        let ws = match acc {
            // The feature block's share of the replica, across the node block.
            Accumulation::Replicated => dp_write_working_set(shape.total_bins, m, f_blk, node_blk),
            // 16 × bin_blk × feature_blk × node_blk.
            Accumulation::Exclusive => {
                let bin_blk = if ext.bin_blk == 0 { shape.max_bins.max(1) } else { ext.bin_blk };
                mp_write_working_set(shape.max_bins, bin_blk, f_blk, node_blk)
            }
        };
        profile.observe_region_bytes(ws as u64);
        f_blk
    }
}

/// Expands one batch: fills each job's histogram as `acc` says, derives the
/// siblings and runs FindSplit (see the module docs). The batch runs as one
/// pool region; when the caller is itself a task of the pool (`inline_on`:
/// its worker index, as for an ASYNC node task) it is planned for one
/// schedule slot and runs as that slot here.
pub fn expand(
    ctx: &DriverCtx<'_>,
    scratch: &mut DriverScratch,
    jobs: &mut [TileJob],
    search: SplitSearch<'_>,
    acc: Accumulation,
    inline_on: Option<usize>,
) -> TileOutcome {
    let (n, m, mapper) = (jobs.len(), ctx.qm.n_features(), ctx.qm.mapper());
    let (replicated, exclusive) = (acc == Accumulation::Replicated, acc == Accumulation::Exclusive);
    let filed = |j: &TileJob| j.buf.is_some() && j.sibling.as_ref().is_none_or(|s| s.in_place);
    let fused = ctx.fused(acc);
    assert!(fused || jobs.iter().all(filed), "only an in-core Exclusive batch builds in scratch");
    if n == 0 {
        return TileOutcome::default();
    }
    let job_lens: Vec<usize> = jobs.iter().map(|j| ctx.partition.node_len(j.node)).collect();
    let threads = if inline_on.is_some() { 1 } else { ctx.pool.num_threads() };
    let f_blk = scratch.plan_batch(ctx, &job_lens, acc, threads);
    let (DriverScratch { arena, plan }, width) = (scratch, hist::hist_width_for(ctx.qm));

    // A job of one row block is finished by the slots: its tasks are its
    // feature blocks, ascending, and each fills one tile of its own buffer —
    // or, planned for one slot, which finishes them one after another
    // anyway, the job is one tile and they are its cursors, searched once.
    // Every other job of a Replicated batch — several row blocks, or none —
    // is cut into ⟨job, feature-chunk⟩ tiles, `⌈4T / jobs⌉` chunks per job,
    // so that a narrow batch still spreads over the pool.
    let by_slot = |j: usize| !replicated || (plan.replica_slot(j).is_none() && job_lens[j] > 0);
    let n_rest = (0..n).filter(|&j| !by_slot(j)).count();
    let n_chunks = (4 * threads).div_ceil(n_rest.max(1)).clamp(1, m.max(1));
    let chunk = m.div_ceil(n_chunks);
    let whole = replicated && threads == 1;
    let tile_of = |features: &Range<usize>| if whole { 0..m } else { features.clone() };
    let tile_blk = if whole { m } else { f_blk };
    let (task_bounds, chunk_bounds) = (block_bounds(mapper, tile_blk), block_bounds(mapper, chunk));
    let body = TileBody::new(ctx, jobs, search);
    let bounds = |j: usize| if by_slot(j) { &task_bounds } else { &chunk_bounds };
    let mut lanes: Vec<_> =
        jobs.iter_mut().zip(0..).map(|(job, j)| block_lanes(job, bounds(j))).collect();

    // The static schedule: the plan's groups — a Replicated task each, or
    // the bin-block tasks of an Exclusive ⟨node-block, feature-block⟩ —
    // dealt round-robin, each group's jobs a tile of its slot filled by one
    // cursor per task (a multi-block job's cursor fills its lanes of the
    // slot's replica instead). Per histogram cell this is still
    // ascending-row accumulation: tasks sharing a (job, feature) lane in one
    // slot own ascending, disjoint position ranges of the node's ascending
    // row list, so interleaving them chunk by chunk visits exactly the same
    // rows in exactly the same order as running them back to back. In core
    // the sweep has one step, and that step *is* the tasks run back to back.
    let n_slots = threads.min(plan.groups().len());
    let mut slots: Vec<Slot<'_>> = (0..n_slots).map(|_| Slot::default()).collect();
    for (g, tasks) in plan.groups().enumerate() {
        let (slot, features) = (&mut slots[g % n_slots], &tasks[0].features);
        for j in tasks[0].jobs.clone() {
            let rows = tasks[0].row_range_for(job_lens[j]);
            let bins = |t: &BlockTask| t.bins.map_or(0..usize::MAX, |(lo, hi)| lo..hi);
            let scans = tasks.iter().map(|t| (features.clone(), exclusive.then(|| bins(t))));
            match plan.replica_slot(j) {
                None => slot.push(j, tile_of(features), rows, scans, &mut lanes),
                Some(k) => slot.cursors.extend(scans.map(|(features, bins)| {
                    let (rows, at) = (rows.clone(), k * width);
                    Cursor { job: j, rows, features, bins, tile: None, at }
                })),
            }
        }
    }
    let replica_len = plan.n_replicated_jobs() * width;
    run_slots(ctx, arena, &body, &mut slots, replica_len, inline_on);
    let (tiles, mut bufs): (Vec<_>, Vec<_>) = slots.into_iter().map(|s| (s.tiles, s.buf)).unzip();

    // The other jobs' tiles. A multi-block job's tile takes its replicas'
    // lanes, cut at the same bounds, and folds them in slot order.
    let mut folds: Vec<Vec<_>> = bufs
        .iter_mut()
        .map(|b| b[..replica_len].chunks_mut(width).map(|l| cut_at(l, &chunk_bounds)).collect())
        .collect();
    let mut work = Vec::new();
    for j in (0..n).filter(|&j| !by_slot(j)) {
        for features in feature_blocks(m, chunk) {
            let mut tile = TileWork::new(j, features, &mut lanes);
            if let Some(k) = plan.replica_slot(j) {
                let srcs = folds.iter_mut().map(|r| r[k].next().expect("a replica lane"));
                tile.lanes.replicas = srcs.collect();
            }
            work.push(tile);
        }
    }
    for_each_on(ctx.pool, inline_on, &mut work, |_, tile, w| _ = body.run(tile, &mut [], 0, w));
    work.extend(tiles.into_iter().flatten());
    let out = body.finish(work);
    // The fold pieces borrow the replicas until here.
    drop(folds);
    for buf in bufs.into_iter().filter(|buf| buf.capacity() > 0) {
        arena.release(buf);
    }
    out
}

/// Runs `slots` as one pool region, or on `inline_on`'s worker.
/// Each slot lays out its lanes — `replica_len` of replicas, then one
/// piece as wide as its widest tile that has no buffer of its own, then
/// its widest sibling tile that has none — draws them zeroed from `arena`,
/// finishes its tiles with no rows to scan, and sweeps its cursors,
/// finishing each other tile after its last run. The lanes stay with the
/// slot, zeroed but for the replicas.
fn run_slots(
    ctx: &DriverCtx<'_>,
    arena: &mut ScratchPool,
    body: &TileBody<'_>,
    slots: &mut [Slot<'_>],
    replica_len: usize,
    inline_on: Option<usize>,
) {
    let mapper = ctx.qm.mapper();
    let lanes_of = |tile: &TileWork<'_>| hist::lanes(mapper, tile.features.clone()).len();
    // Only in core do tiles lack a buffer, and there a sweep is one step in
    // which a slot's tiles finish in turn: their scratch is one piece.
    let (mut acquired, mut allocs) = (0, 0);
    for slot in slots.iter_mut() {
        let unfiled = |t: &&TileWork<'_>| t.lanes.own.is_none();
        let tile = slot.tiles.iter().filter(unfiled).map(lanes_of).max().unwrap_or(0);
        let in_scratch = |t: &&TileWork<'_>| t.lanes.parent.is_some() && !body.in_place(t.job);
        let sibling = slot.tiles.iter().filter(in_scratch).map(lanes_of).max().unwrap_or(0);
        (slot.sibling_at, slot.len) = (tile, replica_len + tile + sibling);
        if slot.len > 0 {
            let (buf, fresh) = arena.acquire(slot.len, &ctx.mem.scratch_arena);
            (slot.buf, acquired, allocs) = (buf, acquired + 1, allocs + u64::from(fresh));
        }
    }
    ctx.pool.profile().add_scratch_events(allocs, acquired - allocs);

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
    let window = capacity.saturating_sub(slots.len() + 1).max(1);
    let progress: Vec<AtomicUsize> = slots.iter().map(|_| AtomicUsize::new(0)).collect();
    let throttle = |s: usize, steps: usize| {
        if capacity == usize::MAX {
            return;
        }
        progress[s].store(steps, Ordering::Release);
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
    let root_identity = ctx.partition.is_identity_order();
    let run = |s: usize, slot: &mut Slot<'_>, lane: usize| {
        let Slot { cursors, tiles, buf, sibling_at, len } = slot;
        let (replicas, scratch) = buf[..*len].split_at_mut(replica_len);
        let (sibling_at, t0) = (*sibling_at, body.now());
        let mut spent = 0;
        for tile in tiles.iter_mut().filter(|t| t.pending == 0) {
            spent += body.run(tile, scratch, sibling_at, lane);
        }
        let rows: Vec<Rows<'_>> = cursors
            .iter()
            .map(|c| match body.metas[c.job].0 {
                // Root fast path: the root span starts at row 0 in identity
                // order, so a row scan's positions ARE its row ids and the
                // row-id indirection drops out.
                0 if root_identity && c.bins.is_none() => Rows::Range(c.rows.clone()),
                node => Rows::List(&ctx.partition.rows(node)[c.rows.clone()]),
            })
            .collect();
        let mut cells = 0u64;
        sweep_chunks(
            ctx.qm,
            &rows,
            |steps| throttle(s, steps),
            |run| {
                let c = &cursors[run.cursor];
                let (node, lanes) = (body.metas[c.job].0, hist::lanes(mapper, c.features.clone()));
                let dst: &mut [f64] = match c.tile {
                    None => &mut replicas[c.at + lanes.start..c.at + lanes.end],
                    Some(t) => {
                        let tile = &mut tiles[t];
                        let lo = lanes.start - hist::lane(mapper, tile.features.start);
                        let piece = match &mut tile.lanes.own {
                            Some(own) => own,
                            None => &mut *scratch,
                        };
                        &mut piece[lo..lo + lanes.len()]
                    }
                };
                let span = ctx
                    .trace()
                    .map(|sink| sink.span(lane, TracePhase::BuildHist, node, run.cursor as u32));
                let grads = ctx.grad_source(node).narrow(c.rows.clone(), 0);
                cells += match &c.bins {
                    None => row_scan_run(run, grads, c.features.clone(), dst),
                    Some(bins) => col_scan_run(run, grads, c.features.clone(), bins.clone(), dst),
                };
                drop(span);
                if let (Some(t), true) = (c.tile, run.pos.end == c.rows.len()) {
                    tiles[t].pending -= 1;
                    if tiles[t].pending == 0 {
                        spent += body.run(&mut tiles[t], scratch, sibling_at, lane);
                    }
                }
            },
        );
        progress[s].store(usize::MAX, Ordering::Release);
        hist::zero(&mut scratch[sibling_at..]);
        body.cells.fetch_add(cells, Ordering::Relaxed);
        body.build_ns.fetch_add(body.now() - t0 - spent, Ordering::Relaxed);
    };
    for_each_on(ctx.pool, inline_on, slots, run);
}

/// Runs `f` on every item: as one pool region, or in turn on `inline_on`'s
/// worker when the caller is itself a task of the pool.
fn for_each_on<T: Send>(
    pool: &ThreadPool,
    inline_on: Option<usize>,
    items: &mut [T],
    f: impl Fn(usize, &mut T, usize) + Sync,
) {
    match inline_on {
        Some(worker) => items.iter_mut().enumerate().for_each(|(i, item)| f(i, item, worker)),
        None => pool.parallel_for_each_mut(items, f),
    }
}

/// One cursor of a slot's sweep: the rows at positions `rows` of job `job`'s
/// row list, scanned over `features` — column-scanned over `bins` when set,
/// row-scanned otherwise — into the slot's tile `tile`, or else into the
/// job's replica histogram, lanes `at..` of the slot's lanes.
struct Cursor {
    job: usize,
    rows: Range<usize>,
    features: Range<usize>,
    bins: Option<Range<usize>>,
    tile: Option<usize>,
    at: usize,
}

/// One schedule slot: ONE chunk sweep whose cursors fill its tiles.
#[derive(Default)]
struct Slot<'a> {
    /// In the order a sweep step visits their runs: a tile's cursors are
    /// consecutive.
    cursors: Vec<Cursor>,
    tiles: Vec<TileWork<'a>>,
    /// Zeroed arena lanes: `replica_len` of replicas, then the scratch —
    /// `sibling_at` lanes for the tile of a job with no buffer, the rest
    /// for the sibling tile.
    buf: Vec<f64>,
    sibling_at: usize,
    len: usize,
}

impl<'a> Slot<'a> {
    /// Adds one cursor per `(features, bins)` of `scans` over job `job`'s
    /// row positions `rows`, filling its tile over `features`: the slot's
    /// last tile when that is the one, else a new tile taking the job's next
    /// block from `lanes`.
    fn push(
        &mut self,
        job: usize,
        features: Range<usize>,
        rows: Range<usize>,
        scans: impl Iterator<Item = (Range<usize>, Option<Range<usize>>)>,
        lanes: &mut [impl Iterator<Item = BlockLanes<'a>>],
    ) {
        if self.tiles.last().is_none_or(|t| (t.job, &t.features) != (job, &features)) {
            self.tiles.push(TileWork::new(job, features, lanes));
        }
        let t = self.tiles.len() - 1;
        for (features, bins) in scans {
            self.tiles[t].pending += usize::from(!rows.is_empty());
            let rows = rows.clone();
            self.cursors.push(Cursor { job, rows, features, bins, tile: Some(t), at: 0 });
        }
    }
}

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

/// One ⟨job, feature-block⟩ tile as a worker receives it. The pieces of
/// [`BlockLanes`] are cut out of the buffers up front, so that two tiles
/// share no lane is the borrow checker's statement, not a comment's.
struct TileWork<'a> {
    job: usize,
    features: Range<usize>,
    lanes: BlockLanes<'a>,
    /// The cursors yet to visit their last run.
    pending: usize,
    /// The block's best split of the node and of its sibling.
    found: [Option<SplitCandidate>; 2],
}

impl<'a> TileWork<'a> {
    /// Job `job`'s tile over `features`, taking the job's next block from
    /// `lanes` (by job, the blocks ascending).
    fn new(
        job: usize,
        features: Range<usize>,
        lanes: &mut [impl Iterator<Item = BlockLanes<'a>>],
    ) -> Self {
        let lanes = lanes[job].next().expect("a block per tile");
        Self { job, features, lanes, pending: 0, found: [None, None] }
    }
}

/// What the tile body reads of a job besides its lanes: its node, the
/// node's statistics and `(node, stats, in_place)` of the derived sibling.
type Meta = (NodeId, NodeStats, Option<(NodeId, NodeStats, bool)>);

/// The one tile body every expansion ends in — the tile's replica fold if
/// it has one, then `parent − small` in place or into the sibling tile, then
/// FindSplit on both — and what it sums over a batch.
struct TileBody<'c> {
    ctx: &'c DriverCtx<'c>,
    search: SplitSearch<'c>,
    metas: Vec<Meta>,
    cells: AtomicU64,
    /// Nanoseconds the workers spent filling tiles and subtracting.
    build_ns: AtomicU64,
    /// Nanoseconds the workers spent in FindSplit.
    find_ns: AtomicU64,
    epoch: Instant,
}

impl<'c> TileBody<'c> {
    /// A body for the tiles of `jobs`.
    fn new(ctx: &'c DriverCtx<'c>, jobs: &[TileJob], search: SplitSearch<'c>) -> Self {
        let sibling = |j: &TileJob| j.sibling.as_ref().map(|s| (s.node, s.stats, s.in_place));
        Self {
            ctx,
            search,
            metas: jobs.iter().map(|j| (j.node, j.stats, sibling(j))).collect(),
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

    /// Whether job `j`'s derived sibling is subtracted in place.
    fn in_place(&self, j: usize) -> bool {
        self.metas[j].2.is_some_and(|s| s.2)
    }

    /// Finishes `tile` on `worker` and returns the nanoseconds it took. A
    /// tile whose job has no buffer is the first lanes of `scratch`, zeroed
    /// again once searched; a sibling that is not subtracted in place goes
    /// to `scratch[sibling_at..]`.
    fn run(
        &self,
        tile: &mut TileWork<'_>,
        scratch: &mut [f64],
        sibling_at: usize,
        worker: usize,
    ) -> u64 {
        let (mapper, trace, features) = (self.ctx.qm.mapper(), self.ctx.trace(), &tile.features);
        let lane0 = hist::lane(mapper, features.start);
        let n_lanes = hist::lane(mapper, features.end) - lane0;
        let (node, stats, sibling) = self.metas[tile.job];
        let (piece, sibling_tile) = scratch.split_at_mut(sibling_at);
        let t0 = self.now();
        let small: &mut [f64] = match &mut tile.lanes.own {
            Some(own) => own,
            None => &mut piece[..n_lanes],
        };
        for src in &mut tile.lanes.replicas {
            for (d, s) in small.iter_mut().zip(src.iter_mut()) {
                *d += *s;
                *s = 0.0;
            }
        }
        let t_filled = trace.map(|s| s.now_ns());
        let large: Option<&[f64]> = match (&mut tile.lanes.parent, self.in_place(tile.job)) {
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
        tile.found = [find(small, &stats), large.zip(sibling).and_then(|(l, s)| find(l, &s.1))];
        let t2 = self.now();
        if tile.lanes.own.is_none() {
            hist::zero(&mut piece[..n_lanes]);
        }
        self.build_ns.fetch_add(t1 - t0, Ordering::Relaxed);
        self.find_ns.fetch_add(t2 - t1, Ordering::Relaxed);
        if let (Some(sink), Some(t_filled)) = (trace, t_filled) {
            let block = features.start as u32;
            if !tile.lanes.replicas.is_empty() {
                sink.record(worker, TracePhase::Reduce, node, block, t0, t_filled);
            }
            if let Some((sibling, ..)) = sibling {
                sink.record(worker, TracePhase::Reduce, sibling, block, t_filled, t1);
            }
            sink.record(worker, TracePhase::FindSplit, node, block, t1, t2);
        }
        t2 - t0
    }

    /// Each job's best split — the partial candidates of `tiles` folded in
    /// ascending block order, the order a whole-histogram scan resolves ties
    /// in — and the time the workers spent building and searching.
    fn finish(self, mut tiles: Vec<TileWork<'_>>) -> TileOutcome {
        tiles.sort_by_key(|tile| (tile.job, tile.features.start));
        let mut found = vec![[None, None]; self.metas.len()];
        for tile in tiles {
            for (best, partial) in found[tile.job].iter_mut().zip(tile.found) {
                *best = better_of(*best, partial);
            }
        }
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
    use harp_binning::{write_cache, BinningConfig, ChunkedStore, QuantizedMatrix};
    use harp_data::{DatasetKind, SynthConfig};
    use harp_metrics::MemTable;
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
        acc: Accumulation,
        params: &TrainParams,
        qm: &QuantizedMatrix,
        part: &RowPartition,
        grads: &[GradPair],
        nodes: &[NodeId],
    ) -> Vec<Vec<f64>> {
        let pool = ThreadPool::new(params.n_threads);
        let mem = MemTable::default();
        let ctx = DriverCtx { qm, params, pool: &pool, partition: part, grads, mem: &mem };
        run_driver_with(acc, &ctx, nodes, &mut DriverScratch::new())
    }

    fn run_driver_with(
        acc: Accumulation,
        ctx: &DriverCtx<'_>,
        nodes: &[NodeId],
        scratch: &mut DriverScratch,
    ) -> Vec<Vec<f64>> {
        let width = hist_width_for(ctx.qm);
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
        expand(ctx, scratch, &mut jobs, NO_SEARCH, acc, None);
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
        let hists = run_driver(Accumulation::Replicated, &params, &qm, &part, &grads, &nodes);
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
            let hists = run_driver(Accumulation::Replicated, &params, &qm, &part, &grads, &[0u32]);
            assert_close(&hists[0], &reference_hist(&qm, &part, &grads, 0));
        }
    }

    #[test]
    fn mp_matches_reference_dense() {
        let (qm, grads, part) = setup(DatasetKind::HiggsLike, true);
        let params = TrainParams { n_threads: 4, ..Default::default() };
        let nodes = [3u32, 4, 2];
        let hists = run_driver(Accumulation::Exclusive, &params, &qm, &part, &grads, &nodes);
        for (i, &n) in nodes.iter().enumerate() {
            assert_close(&hists[i], &reference_hist(&qm, &part, &grads, n));
        }
    }

    #[test]
    fn mp_matches_reference_sparse() {
        let (qm, grads, part) = setup(DatasetKind::YfccLike, true);
        let params = TrainParams { n_threads: 3, ..Default::default() };
        let nodes = [3u32, 4, 2];
        let hists = run_driver(Accumulation::Exclusive, &params, &qm, &part, &grads, &nodes);
        for (i, &n) in nodes.iter().enumerate() {
            assert_close(&hists[i], &reference_hist(&qm, &part, &grads, n));
        }
    }

    #[test]
    fn dp_matches_reference_sparse() {
        let (qm, grads, part) = setup(DatasetKind::YfccLike, false);
        let params = TrainParams { n_threads: 2, use_membuf: false, ..Default::default() };
        let nodes = [3u32, 4, 2];
        let hists = run_driver(Accumulation::Replicated, &params, &qm, &part, &grads, &nodes);
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
            run_driver(Accumulation::Exclusive, &params, &qm, &part, &grads, &nodes)
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
            let hists = run_driver(Accumulation::Exclusive, &params, &qm, &part, &grads, &nodes);
            for i in 0..nodes.len() {
                assert_close(&hists[i], &base[i]);
            }
            let dp = run_driver(Accumulation::Replicated, &params, &qm, &part, &grads, &nodes);
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
        let a = run_driver(Accumulation::Replicated, &params, &qm, &part, &grads, &nodes);
        let b = run_driver(Accumulation::Replicated, &params, &qm, &part, &grads, &nodes);
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
        let (partition, mem) = (&part, &MemTable::default());
        let ctx =
            DriverCtx { qm: &qm, params: &params, pool: &pool, partition, grads: &grads, mem };
        let mut scratch = DriverScratch::new();
        let first = run_driver_with(Accumulation::Replicated, &ctx, &nodes, &mut scratch);
        // A second call over a *different* node set in between, to dirty
        // other lanes.
        let _ = run_driver_with(Accumulation::Replicated, &ctx, &[2u32], &mut scratch);
        let second = run_driver_with(Accumulation::Replicated, &ctx, &nodes, &mut scratch);
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
        let (partition, mem) = (&part, &MemTable::default());
        let ctx =
            DriverCtx { qm: &qm, params: &params, pool: &pool, partition, grads: &grads, mem };
        let mut scratch = DriverScratch::new();
        let mut first_call_allocs = 0;
        for call in 0..3 {
            let _ = run_driver_with(Accumulation::Replicated, &ctx, &nodes, &mut scratch);
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
        let a = run_driver(Accumulation::Exclusive, &params_mb, &qm, &part_mb, &grads, &nodes);
        let b = run_driver(Accumulation::Exclusive, &params_nomb, &qm, &part_nomb, &grads, &nodes);
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
        let (partition, mem) = (&part, &MemTable::default());
        let ctx =
            DriverCtx { qm: &qm, params: &params, pool: &pool, partition, grads: &grads, mem };
        let (r, e) = (Accumulation::Replicated, Accumulation::Exclusive);
        for (acc, inline_on) in [(r, None), (e, None), (r, Some(1))] {
            let out = expand(&ctx, &mut scratch, &mut [], NO_SEARCH, acc, inline_on);
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
        let hists =
            run_driver(Accumulation::Replicated, &params, &qm, &part, &grads, &[3u32, 6, 4]);
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
            let (partition, mem) = (&part, &MemTable::default());
            let ctx =
                DriverCtx { qm: &qm, params: &params, pool: &pool, partition, grads: &grads, mem };
            let before = profile.regions.load(Ordering::Relaxed);
            let acc = Accumulation::Replicated;
            run_driver_with(acc, &ctx, nodes, &mut DriverScratch::new());
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

    /// [`scan_layouts`] through chunk caches of eight chunks, a quarter of
    /// each resident.
    fn chunked_layouts() -> &'static [ChunkedStore] {
        static STORES: OnceLock<Vec<ChunkedStore>> = OnceLock::new();
        STORES.get_or_init(|| {
            let chunked = |(i, qm): (usize, &QuantizedMatrix)| {
                let tmp = format!("harp_drivers_{}_{i}.qsc", std::process::id());
                let path = std::env::temp_dir().join(tmp);
                write_cache(qm, qm.n_rows().div_ceil(8), &path).expect("write cache");
                let store = ChunkedStore::open(&path, qm.storage_bytes() as u64 / 4);
                std::fs::remove_file(&path).ok();
                store.expect("open cache")
            };
            scan_layouts().iter().enumerate().map(chunked).collect()
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
            let (partition, mem) = (&part, &MemTable::default());
            let ctx = DriverCtx { qm, params: &params, pool: &pool, partition, grads: &grads, mem };
            let acc = Accumulation::Replicated;
            let hists = run_driver_with(acc, &ctx, &nodes, &mut DriverScratch::new());

            // The plan the executor ran, rebuilt here to tell the jobs apart
            // and to replay the static schedule.
            let job_lens: Vec<usize> = nodes.iter().map(|&node| part.node_len(node)).collect();
            let mut plan = BlockPlan::new();
            let shape = ctx.batch_shape(threads);
            plan.rebuild(&params.blocks, &shape, &job_lens, Accumulation::Replicated);
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
            prop_assert_eq!(mem.scratch_arena.high_water(), (replicas * multi_block * width * 8) as u64);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The slot executor under explicit and Auto blocks, in core and
        /// through a chunk cache a quarter of which is resident, against
        /// reference kernels, in three fills — Exclusive (column-scan
        /// cursors, tiles dealt round-robin to the slots), Replicated
        /// (row-scan cursors of the static schedule, each slot finishing
        /// the one-block jobs' tiles it filled; with `split_rows`, a job of
        /// more than 48 rows spans several row blocks and its tiles fold its
        /// replicas) and a Replicated batch run inline from inside a pool
        /// task, as an ASYNC node task runs it (planned for one slot, so
        /// `split_rows` cuts nothing, and it must open no region). The
        /// root is cut into leaves and every leaf is split — evenly,
        /// unevenly, into one row and the rest, into nothing and
        /// everything — and the splits
        /// form one batch: where the parent's histogram is "cached" the
        /// smaller child is scanned and the larger derived, elsewhere both
        /// are scanned; every histogram is filed or not at random under the
        /// in-core Exclusive fill and full-width otherwise, as the trainer
        /// equips them. Each
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
            chunked in any::<bool>(),
            auto in any::<bool>(),
        ) {
            let qm = &scan_layouts()[layout];
            let store: &dyn QuantStore = if chunked { &chunked_layouts()[layout] } else { qm };
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
                // Only an in-core Exclusive batch builds a histogram it
                // cannot file in scratch: the trainer equips every job of
                // any other batch with a buffer and every sibling in place.
                let file_small = fill != 0 || chunked || flags & 1 != 0;
                let file_large = fill != 0 || chunked || flags & 2 != 0;
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

            let explicit = BlockConfig {
                // One row block per job, or several for a Replicated job of
                // more than 48 rows on a pool.
                row_blk_size: if fill != 0 && split_rows { 48 } else { n },
                node_blk_size: node_blk,
                feature_blk_size: [0, 1, 2, 3, m / 2][feature_blk],
                bin_blk_size: [0, 5, 16][bin_blk],
            };
            let blocks = if auto { BlockConfig::Auto } else { explicit };
            let (n_threads, use_membuf) = (threads, membuf);
            let params = TrainParams { n_threads, use_membuf, blocks, ..Default::default() };
            let settings = SplitSettings { lambda: 1.0, gamma: 0.0, min_child_weight: 0.0 };
            let profile = Arc::new(Profile::new());
            let pool = ThreadPool::with_profile(threads, Arc::clone(&profile));
            let mut scratch = DriverScratch::new();
            let (partition, mem) = (&part, &MemTable::default());
            let ctx =
                DriverCtx { qm: store, params: &params, pool: &pool, partition, grads: &grads, mem };
            let search = SplitSearch { settings: &settings, mask: None };
            // A Replicated job of several row blocks is what the static
            // schedule builds, and each slot holds a replica of such jobs.
            let mut replica_bytes = 0;
            if fill != 0 {
                let job_lens: Vec<usize> = jobs.iter().map(|j| part.node_len(j.node)).collect();
                let mut plan = BlockPlan::new();
                let slots = if fill == 1 { threads } else { 1 };
                let shape = ctx.batch_shape(slots);
                plan.rebuild(&params.blocks, &shape, &job_lens, Accumulation::Replicated);
                let n_slots = slots.min(plan.tasks().len());
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
                0 => expand(&ctx, &mut scratch, &mut jobs, search, Accumulation::Exclusive, None),
                1 => expand(&ctx, &mut scratch, &mut jobs, search, Accumulation::Replicated, None),
                _ => {
                    let mut task = [(&mut scratch, &mut jobs[..], None, 0)];
                    pool.parallel_for_each_mut(&mut task, |_, (scratch, jobs, out, moved), w| {
                        let regions = || profile.regions.load(Ordering::Relaxed);
                        let before = regions();
                        let acc = Accumulation::Replicated;
                        *out = Some(expand(&ctx, scratch, jobs, search, acc, Some(w)));
                        *moved = regions() - before;
                    });
                    let [(_, _, out, moved)] = task;
                    prop_assert!(moved == 0, "an inline batch opened {} regions", moved);
                    out.expect("the pool ran the task")
                }
            };

            let mut hists = HistPool::for_store(qm, usize::MAX, Arc::default(), Arc::default());
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
            // Scratch is the replicas, plus per slot that needed them a
            // sibling tile and one scratch tile, and nothing more when every
            // histogram had a buffer of its own.
            let widest = feature_blocks(m, params.blocks.features_per_block(m))
                .map(|b| hist::lanes(mapper, b).len())
                .max()
                .unwrap_or(0);
            let arena = mem.scratch_arena.high_water();
            prop_assert!(arena <= (replica_bytes + 2 * threads * widest * 8) as u64);
            prop_assert!(!all_filed || arena == replica_bytes as u64);
        }
    }
}
