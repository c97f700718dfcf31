//! ASYNC mode: barrier-free node-level parallelism (§IV-C, §IV-D).
//!
//! "ASYNC schedules all the computation involved within one tree node as a
//! single task in the intermediate phase …​ in this way, it avoids all the
//! for-loops barrier wait overhead." A node task is the barrier modes' own
//! split step (`TreeEngine::step`) on a batch of one: it claims the most
//! promising candidate off the shared frontier, partitions its rows,
//! expands the children *serially inside the task* and files them — the
//! loosely-coupled TopK, each of the K threads grabbing the best candidate
//! it can see, with no global synchronization after every K splits. The
//! children's batch is a DP (Replicated) batch planned for one schedule
//! slot, which runs as that slot on the task's worker: no row blocks, so
//! no replica and no fold.
//!
//! Shared state and its guards:
//! * the frontier — the barrier loop's own [`Frontier`](super::frontier),
//!   which owns the tree being grown, behind one [`SpinMutex`]: a task
//!   claims its candidate (and applies it to the tree) in one critical
//!   section, writes the children's counts and plans them in another, takes
//!   each child's buffer in a third and files the children in a last one,
//!   so the queue's leaf-budget trimming is as exact here as between
//!   barriers. Nothing width-sized runs inside: a fresh buffer is popped off
//!   the free list under the lock and zero-filled after it;
//! * row partition — no lock: each task owns its node's span.
//!
//! The [`WorkQueue`] carries one unit token per candidate pushed: it wakes a
//! worker, caps the tasks in flight at K and detects the drain, while the
//! order lives in the frontier — a task takes the best candidate there is
//! when it starts, not the one that was best when its token was pushed, and
//! a token whose candidate the leaf budget dropped finds nothing to claim.
//!
//! [`SpinMutex`]: harp_parallel::SpinMutex

use super::{DriverScratch, TreeEngine};
use harp_parallel::WorkQueue;

/// Runs the queue-driven phase on an open frontier until it is exhausted or
/// the leaf budget is spent. The node tasks share the engine's frontier as
/// it stands, and it keeps the candidates that are never split.
pub(super) fn run_async(engine: &TreeEngine<'_>) {
    // "K threads select the top candidate as best as they can": node-level
    // concurrency is bounded by K tasks in flight.
    let wq: WorkQueue<()> = WorkQueue::bounded(engine.params.effective_k());
    wq.push_all(std::iter::repeat_n((), engine.frontier().width()));

    engine.pool.run_queue(&wq, |(), wq, worker| {
        // Once the budget is spent nothing is claimed, and the queued
        // candidates simply remain leaves. The task holds no share of the
        // engine's scratch: it is itself a pool task.
        let claims = engine.frontier().claim(1, &engine.partition);
        let queued = engine.step(claims, Some(worker), &mut DriverScratch::new());
        for _ in 0..queued {
            wq.push(());
        }
    });
}
