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
//!   each child's buffer in a third, files the children in a fourth and
//!   gives up its claim in a last one, so the queue's leaf-budget trimming
//!   is as exact here as between barriers. Nothing width-sized runs inside:
//!   a fresh buffer is popped off the free list under the lock and
//!   zero-filled after it;
//! * row partition — no lock: each task owns its node's span;
//! * driver scratch — one per pool worker, held by the engine for the whole
//!   training call, so a node task reuses the arena and plan tables its
//!   worker's earlier tasks grew.
//!
//! The frontier is the one work list. An idle worker polls it
//! (`Frontier::claim_task`), which claims the best candidate there is —
//! unless K tasks already hold a claim — and tells the pool when the phase
//! is drained: nothing left to claim and no task that could still file
//! more. So every node task the pool runs claims a split.
//!
//! [`SpinMutex`]: harp_parallel::SpinMutex

use super::TreeEngine;

/// Runs the node-task phase on an open frontier until it is exhausted or
/// the leaf budget is spent. The node tasks share the engine's frontier as
/// it stands, and it keeps the candidates that are never split.
pub(super) fn run_async(engine: &TreeEngine<'_>) {
    // "K threads select the top candidate as best as they can": node-level
    // concurrency is bounded by K claims in flight.
    let k = engine.params.effective_k();
    engine.pool.run_queue(
        || engine.frontier().claim_task(k, &engine.partition),
        |claims, worker| {
            // The task holds no share of the barrier loop's scratch (it is
            // itself a pool task): it expands through its worker's.
            engine.step(claims, Some(worker), &mut engine.node_scratch[worker].lock());
            engine.frontier().task_done();
        },
    );
}
