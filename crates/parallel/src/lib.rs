//! Instrumented fork/join parallelism substrate for HarpGBDT.
//!
//! The HarpGBDT paper attributes the poor parallel efficiency of existing GBDT
//! trainers to two causes: OpenMP barrier overhead (up to 42% of CPU time) and
//! memory-bound random access. Reproducing that analysis requires a parallel
//! runtime whose synchronization cost is *observable*, which VTune provided for
//! the original C++/OpenMP systems. This crate is the Rust counterpart:
//!
//! * [`ThreadPool`] — a persistent worker pool exposing OpenMP-style fork/join
//!   regions ([`ThreadPool::parallel_for`]) with dynamic task claiming. Every
//!   region records, per worker, busy time and end-of-region idle (barrier
//!   wait) time into a shared [`Profile`].
//! * [`SpinMutex`] — the "lightweight spin mutex" the paper uses to guard the
//!   shared priority queue in ASYNC mode; acquisition wait time is counted.
//! * [`WorkQueue`] / [`ThreadPool::run_queue`] — a shared priority work queue
//!   for node-level (ASYNC) parallelism: workers pop the best-scored task,
//!   may push new tasks, and terminate collectively when the queue is drained
//!   and no task is in flight.
//! * [`Profile`] / [`ProfileReport`] — software substitutes for the VTune
//!   hardware counters reported in Tables I and VI of the paper (CPU
//!   utilization, barrier overhead share, task latency, bytes moved).
//! * [`TraceSink`] / [`TraceSnapshot`] — the span-level ledger behind the
//!   aggregate counters: per-worker drop-oldest ring buffers of phase spans
//!   plus barrier/queue wait counters, exportable as chrome-trace JSON
//!   (`chrome://tracing`, Perfetto). Off unless a caller installs a sink,
//!   and then free: no sink, no clock reads.
//!
//! The pool is deliberately simple: no work stealing between unrelated jobs,
//! no nested regions. GBDT tree construction is a sequence of wide, flat
//! parallel loops plus one irregular queue-driven phase, and this shape covers
//! both while keeping the accounting exact.

mod chan;
mod pool;
mod profile;
mod queue;
mod spin;
pub mod trace;
mod worker_local;

pub use pool::{current_num_threads_hint, ThreadPool};
pub use profile::{Profile, ProfileCounters, ProfileReport};
pub use queue::{QueueOutcome, WorkQueue};
pub use spin::{SpinMutex, SpinMutexGuard};
pub use trace::{
    LaneSnapshot, PhaseClock, PhaseNs, PhaseSpan, Span, SpanRing, TraceCounters, TracePhase,
    TraceSink, TraceSnapshot, N_TRACE_PHASES,
};
pub use worker_local::PerWorker;
