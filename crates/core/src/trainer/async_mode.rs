//! ASYNC mode: barrier-free node-level parallelism (§IV-C, §IV-D).
//!
//! "ASYNC schedules all the computation involved within one tree node as a
//! single task in the intermediate phase …​ in this way, it avoids all the
//! for-loops barrier wait overhead." Workers pop the most promising
//! candidate from a shared spin-locked priority queue, split it, expand the
//! children *serially inside the task* — the NodeTasks fill and the tile
//! body of `drivers` — and push them back: the loosely-coupled TopK, each of
//! the K threads grabbing the best candidate it can see, with no global
//! synchronization after every K splits.
//!
//! Shared state and its guards:
//! * the tree — [`SpinMutex`], touched twice per task for microseconds;
//! * the frontier — the batch engine's own [`Frontier`](super::frontier),
//!   behind one [`SpinMutex`]: a task claims its candidate in one critical
//!   section, plans the children in another and files them in a third, so
//!   the pool's leaf-budget trimming is as exact here as between barriers.
//!   Nothing width-sized runs inside: a fresh buffer is popped off the free
//!   list under the lock and zero-filled after it;
//! * row partition — no lock: each task owns its node's span.
//!
//! The [`WorkQueue`] carries one unit token per queued candidate: it wakes a
//! worker, caps the tasks in flight at K and detects the drain, while the
//! order lives in the frontier — a task takes the best candidate there is
//! when it starts, not the one that was best when its token was pushed.

use super::drivers::{self, DriverCtx, DriverScratch};
use super::frontier::Children;
use super::{split_pred, split_search, TreeEngine};
use crate::params::BatchPolicy;
use crate::tree::{NodeId, NodeStats, Tree};
use harp_parallel::{PhaseSpan, SpinMutex, TracePhase, WorkQueue};

/// Runs the queue-driven phase on an open frontier until it is exhausted or
/// the leaf budget is spent. The node tasks share the engine's frontier as
/// it stands, and it keeps the candidates that are never split; `tree` is
/// updated in place.
pub(super) fn run_async(engine: &mut TreeEngine<'_>, tree: &mut Tree) {
    // "K threads select the top candidate as best as they can": node-level
    // concurrency is bounded by K tasks in flight.
    let trace = engine.pool.trace().map(|s| s.as_ref());
    let wq: WorkQueue<()> = WorkQueue::bounded(engine.params.effective_k());
    let width = engine.frontier.width();
    if let Some(sink) = trace {
        for _ in 0..width {
            sink.count_queue_push(sink.coordinator_lane());
        }
    }
    wq.push_all(std::iter::repeat_n((), width));

    let qm = engine.qm;
    let partition = &engine.partition;
    let ctx = DriverCtx {
        qm,
        params: engine.params,
        pool: engine.pool,
        partition,
        grads: partition.global_grads(),
    };
    let search = split_search(&engine.settings, &engine.feature_mask);
    let clock = engine.clock;
    // Per-worker phase timer: ASYNC attributes the sum of its workers' time.
    let timed = |worker: usize, phase: TracePhase, node: NodeId, block: u32| {
        PhaseSpan::begin(trace, worker, phase, node, block, Some(clock))
    };
    let lock_wait = &engine.pool.profile().lock_wait_ns;

    let tree_lock = SpinMutex::new(std::mem::replace(tree, Tree::new_root(NodeStats::default())));
    let frontier = SpinMutex::new(&mut engine.frontier);

    engine.pool.run_queue(&wq, |(), wq, worker| {
        // Once the budget is spent nothing pops, and the queued candidates
        // simply remain leaves.
        let Some((cand, parent)) = frontier.lock_timed(lock_wait).claim(1, partition).pop() else {
            return;
        };

        // Tree update (short critical section).
        let (l, r) = {
            let _phase = timed(worker, TracePhase::ApplySplit, cand.node, 0);
            let mut t = tree_lock.lock_timed(lock_wait);
            t.apply_split(cand.node, cand.cand.split, cand.cand.left, cand.cand.right)
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

        // If the budget ran out while this task partitioned its rows, no
        // child of it gets a histogram.
        let mut children = Children::default();
        let kids = [
            (l, NodeStats { count: ln, ..cand.cand.left }),
            (r, NodeStats { count: rn, ..cand.cand.right }),
        ];
        frontier
            .lock_timed(lock_wait)
            .children(parent, cand.depth + 1, kids, &mut children);
        if children.jobs.is_empty() {
            return;
        }
        {
            let _phase = timed(worker, TracePhase::BuildHist, cand.node, 0);
            for job in &mut children.jobs {
                // The lock covers the pop off the free list; the width-sized
                // zero-fill happens after it is released.
                let stale = frontier.lock_timed(lock_wait).hists.alloc();
                job.buf = Some(stale.zeroed());
            }
        }
        // The children's one-group plan, run inline: the task is itself a
        // pool task and holds no share of the engine's scratch.
        let (jobs, policy) = (&mut children.jobs, BatchPolicy::NodeTasks);
        let out =
            drivers::expand(&ctx, &mut DriverScratch::new(), jobs, search, policy, Some(worker));
        clock.add(TracePhase::BuildHist, out.build_ns);
        clock.add(TracePhase::FindSplit, out.find_ns);

        // Publish the children as new candidates.
        let queued = {
            let _phase = timed(worker, TracePhase::FindSplit, cand.node, 0);
            frontier.lock_timed(lock_wait).file(children, out.found)
        };
        for _ in 0..queued {
            if let Some(sink) = trace {
                sink.count_queue_push(worker);
            }
            wq.push(());
        }
    });

    *tree = tree_lock.into_inner();
}
