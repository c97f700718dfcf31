//! Instrumented fork/join parallelism substrate for HarpGBDT.
//!
//! The HarpGBDT paper attributes the poor parallel efficiency of existing GBDT
//! trainers to two causes: OpenMP barrier overhead (up to 42% of CPU time) and
//! memory-bound random access. Reproducing that analysis requires a parallel
//! runtime whose synchronization cost is *observable*, which VTune provided for
//! the original C++/OpenMP systems. This crate is the Rust counterpart:
//!
//! * [`ThreadPool`] — a persistent worker pool exposing OpenMP-style fork/join
//!   regions ([`ThreadPool::parallel_for`]) with dynamic task claiming. A
//!   region is published once, in one mutex-guarded slot that wakes every
//!   worker. Every region records, per worker, busy time and end-of-region
//!   idle (barrier wait) time into a shared [`Profile`].
//! * [`SpinMutex`] — the "lightweight spin mutex" the paper uses to guard the
//!   shared priority queue in ASYNC mode (the trainer's growth frontier);
//!   acquisition wait time is counted.
//! * [`ThreadPool::run_queue`] — the driver of node-level (ASYNC)
//!   parallelism: every worker polls the caller's work source (a closure
//!   answering a [`QueueOutcome`]), runs each task it claims, and stops
//!   once the source reports it drained — nothing left and nothing in
//!   flight. [`WorkQueue`] is a standalone priority queue of that shape.
//! * [`Profile`] / [`ProfileReport`] — software substitutes for the VTune
//!   hardware counters reported in Tables I and VI of the paper (CPU
//!   utilization, barrier overhead share, task latency, bytes moved).
//! * [`TraceSink`] / [`TraceSnapshot`] — the span-level ledger behind the
//!   aggregate counters: per-worker drop-oldest rings of phase spans and
//!   their per-phase busy time, one lock per lane, exportable as
//!   chrome-trace JSON (`chrome://tracing`, Perfetto). Off unless a caller
//!   installs a sink, and then free: no sink, no clock reads. Every count
//!   lives in the [`Profile`].
//!
//! The pool is deliberately simple: no work stealing between unrelated jobs,
//! no nested regions. GBDT tree construction is a sequence of wide, flat
//! parallel loops plus one irregular queue-driven phase, and this shape covers
//! both while keeping the accounting exact.

mod pool;
mod profile;
mod queue;
mod spin;
pub mod trace;

pub use pool::{current_num_threads_hint, ThreadPool};
pub use profile::{Profile, ProfileCounters, ProfileReport};
pub use queue::{QueueOutcome, WorkQueue};
pub use spin::{SpinMutex, SpinMutexGuard};
pub use trace::{
    LaneSnapshot, PhaseClock, PhaseNs, PhaseSpan, Span, TracePhase, TraceSink, TraceSnapshot,
    N_TRACE_PHASES,
};
