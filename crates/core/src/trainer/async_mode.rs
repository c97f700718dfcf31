//! ASYNC mode: barrier-free node-level parallelism (§IV-C, §IV-D).
//!
//! "ASYNC schedules all the computation involved within one tree node as a
//! single task in the intermediate phase …​ in this way, it avoids all the
//! for-loops barrier wait overhead." Workers pop the most promising
//! candidate from a shared spin-locked priority queue, split it, build the
//! children's histograms *serially inside the task*, and push the children
//! back — the loosely-coupled TopK: each of the K threads grabs the best
//! candidate it can see, with no global synchronization after every K
//! splits.
//!
//! Shared state and its guards:
//! * the tree — [`SpinMutex`], touched twice per task for microseconds;
//! * the frontier — the batch engine's own [`GrowthQueue`] and
//!   [`HistPool`] plus the leaf count, behind one [`SpinMutex`]. A task pops
//!   its candidate, claims the leaf and takes the candidate's cached
//!   histogram in one critical section, and files a child's histogram and
//!   queues the child in another. The pool therefore never holds the
//!   histogram of a candidate that is in flight, and its leaf-budget
//!   trimming ([`HistPool::cache_insert`]) is as exact here as between
//!   barriers. Nothing width-sized runs inside: a fresh buffer is popped
//!   off the free list under the lock and zero-filled after it;
//! * row partition — no lock: each task owns its node's span.
//!
//! The [`WorkQueue`] carries one unit token per queued candidate: it wakes a
//! worker, caps the tasks in flight at K and detects the drain, while the
//! order lives in the frontier — a task takes the best candidate there is
//! when it starts, not the one that was best when its token was pushed.

use super::{split_pred, TreeEngine};
use crate::growth::GrowthQueue;
use crate::hist::{self, HistPool};
use crate::kernels::{row_scan_store, GradSource, BYTES_PER_CELL, FLOPS_PER_CELL};
use crate::split::find_split_masked;
use crate::tree::{NodeId, NodeStats, Tree};
use harp_parallel::{PhaseSpan, SpinMutex, TracePhase, WorkQueue};
use std::sync::atomic::{AtomicU64, Ordering};

/// What the node tasks pop from and publish to (see the module docs).
struct Frontier<'a> {
    queue: &'a mut GrowthQueue,
    hists: &'a mut HistPool,
    leaves: usize,
}

/// Runs the queue-driven phase until the growth frontier is exhausted or the
/// leaf budget is spent. The node tasks share `queue` as it stands, and it
/// keeps the candidates that are never split; `tree` and `leaves` are
/// updated in place.
pub(super) fn run_async(
    engine: &mut TreeEngine<'_>,
    tree: &mut Tree,
    queue: &mut GrowthQueue,
    leaves: &mut usize,
) {
    let max_leaves = engine.params.max_leaves();
    if *leaves >= max_leaves || queue.is_empty() {
        return;
    }
    // "K threads select the top candidate as best as they can": node-level
    // concurrency is bounded by K tasks in flight.
    let trace = engine.pool.trace().map(|s| s.as_ref());
    let wq: WorkQueue<()> = WorkQueue::bounded(engine.params.effective_k());
    if let Some(sink) = trace {
        for _ in 0..queue.len() {
            sink.count_queue_push(sink.coordinator_lane());
        }
    }
    wq.push_all(std::iter::repeat_n((), queue.len()));

    let use_scalar = engine.params.use_scalar_kernels;
    let max_depth = engine.max_depth_limit();
    let qm = engine.qm;
    let m = qm.n_features();
    // Each ASYNC node task is the degenerate ⟨one node, all rows⟩ plan task,
    // executed inline — there is nothing to enumerate. An explicit
    // `feature_blk_size` still slices the scan into plan feature blocks:
    // blocks write disjoint histogram lanes in the same per-lane row order,
    // so the result is bitwise-identical while trading grad re-reads for
    // write locality exactly as in the DP executor. Sparse rows have no
    // per-block substructure and Auto resolves per DP batch, not per node;
    // both scan whole.
    let f_blk = if qm.layout().dense && !engine.params.blocks.is_auto() {
        engine.params.blocks.features_per_block(m)
    } else {
        m
    };
    let mapper = qm.mapper();
    let partition = &engine.partition;
    let grads = partition.global_grads();
    let settings = engine.settings;
    // Owned copy: `engine.hist_pool` is mutably borrowed below, so the mask
    // cannot stay borrowed from `engine`.
    let mask_owned: Option<Vec<bool>> = engine.mask().map(<[bool]>::to_vec);
    let mask = mask_owned.as_deref();
    let clock = engine.clock;
    // Per-worker phase timer: ASYNC attributes the sum of its workers' time.
    let timed = |worker: usize, phase: TracePhase, node: NodeId, block: u32| {
        PhaseSpan::begin(trace, worker, phase, node, block, Some(clock))
    };
    let profile = engine.pool.profile();
    let lock_wait = &profile.lock_wait_ns;

    let tree_lock = SpinMutex::new(std::mem::replace(tree, Tree::new_root(NodeStats::default())));
    let frontier =
        SpinMutex::new(Frontier { queue, hists: &mut engine.hist_pool, leaves: *leaves });
    let cells_total = AtomicU64::new(0);

    engine.pool.run_queue(&wq, |(), wq, worker| {
        // Claim the best candidate, one unit of leaf budget and the
        // candidate's histogram together. Once the budget is spent nothing
        // pops, and the queued candidates simply remain leaves.
        let (cand, parent_buf) = {
            let mut f = frontier.lock_timed(lock_wait);
            let budget = max_leaves - f.leaves;
            let Some(cand) = f.queue.pop_batch(1, budget).pop() else {
                return;
            };
            f.leaves += 1;
            let remaining = max_leaves - f.leaves;
            let parent_buf =
                f.hists.cache_take(cand.node, partition.node_len(cand.node), remaining);
            (cand, parent_buf)
        };

        // Tree update (short critical section).
        let (l, r, child_depth) = {
            let _phase = timed(worker, TracePhase::ApplySplit, cand.node, 0);
            let mut t = tree_lock.lock_timed(lock_wait);
            let (l, r) = t.apply_split(cand.node, cand.cand.split, cand.cand.left, cand.cand.right);
            (l, r, t.node(l).depth)
        };

        // Partition this node's span (exclusive ownership, no lock).
        let (ln, rn) = {
            let _phase = timed(worker, TracePhase::ApplySplit, cand.node, 1);
            let pred = split_pred(qm, partition.rows(cand.node), &cand.cand.split);
            partition.apply_split(cand.node, l, r, &|pos, row| pred.goes_left(pos, row), None)
        };
        {
            let mut t = tree_lock.lock_timed(lock_wait);
            t.node_mut(l).stats.count = ln;
            t.node_mut(r).stats.count = rn;
        }

        let eligible = |count: u32| child_depth < max_depth && count >= 2;
        let l_el = eligible(ln);
        let r_el = eligible(rn);

        // If the budget ran out while this task partitioned its rows, no
        // child of it can ever split: none gets a histogram.
        {
            let mut f = frontier.lock_timed(lock_wait);
            if f.leaves >= max_leaves {
                if let Some(pbuf) = parent_buf {
                    f.hists.release(pbuf);
                }
                drop(f);
                profile.add_hist_builds_skipped(u64::from(l_el) + u64::from(r_el));
                return;
            }
        }

        // Build children histograms serially within this task.
        let mut built: Vec<(NodeId, Vec<f64>)> = Vec::with_capacity(2);
        {
            let _phase = timed(worker, TracePhase::BuildHist, cand.node, 0);
            let mut cells = 0u64;
            let mut fresh = |node: NodeId| -> Vec<f64> {
                // The lock covers the pop off the free list; the
                // width-sized fill happens after it is released.
                let stale = frontier.lock_timed(lock_wait).hists.alloc();
                let mut buf = stale.zeroed();
                let rows = partition.rows(node);
                let src = GradSource::select(partition.grads(node), grads);
                for f_range in crate::plan::feature_blocks(m, f_blk) {
                    cells += row_scan_store(qm, rows, src, f_range, &mut buf, use_scalar);
                }
                buf
            };
            // Smaller child first, derived or scanned alike: the publish
            // order breaks gain ties, and must not depend on the cache.
            let ((small, small_el), (large, large_el)) =
                if ln <= rn { ((l, l_el), (r, r_el)) } else { ((r, r_el), (l, l_el)) };
            match parent_buf {
                Some(mut pbuf) if l_el && r_el => {
                    let small_buf = fresh(small);
                    hist::subtract_in_place(&mut pbuf, &small_buf);
                    built.push((small, small_buf));
                    built.push((large, pbuf));
                }
                parent_buf => {
                    if let Some(pbuf) = parent_buf {
                        frontier.lock_timed(lock_wait).hists.release(pbuf);
                    }
                    for (node, eligible) in [(small, small_el), (large, large_el)] {
                        if eligible {
                            built.push((node, fresh(node)));
                        }
                    }
                }
            }
            cells_total.fetch_add(cells, Ordering::Relaxed);
        }

        // FindSplit serially, then publish the children as new candidates.
        let _phase = timed(worker, TracePhase::FindSplit, cand.node, 0);
        for (node, buf) in built {
            let stats = tree_lock.lock_timed(lock_wait).node(node).stats;
            let found = find_split_masked(&buf, &stats, mapper, 0..m, &settings, mask);
            let mut f = frontier.lock_timed(lock_wait);
            let Some(c) = found else {
                f.hists.release(buf);
                continue;
            };
            let remaining = max_leaves - f.leaves;
            let key = f.queue.push(node, child_depth, c);
            f.hists.cache_insert(node, partition.node_len(node), buf, key, remaining);
            drop(f);
            if let Some(sink) = trace {
                sink.count_queue_push(worker);
            }
            wq.push(());
        }
    });

    let cells = cells_total.load(Ordering::Relaxed);
    profile.add_bytes(cells * (BYTES_PER_CELL - 16), cells * 16, cells * FLOPS_PER_CELL);
    *leaves = frontier.into_inner().leaves;
    *tree = tree_lock.into_inner();
}
