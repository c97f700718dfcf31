//! The trainer's end of the telemetry spine: one read of everything a run
//! counts ([`Totals`]), and the per-round ledger as differences of two reads
//! ([`RoundLedger`]). `Diagnostics::profile`, `Diagnostics::breakdown` and
//! every `LedgerRecord` are views of such a read.

use harp_binning::{ChunkIoStats, QuantStore};
use harp_metrics::{BreakdownReport, LedgerRecord, RunLedger, WorkerSkewReport};
use harp_parallel::trace::phase_rows;
use harp_parallel::{PhaseClock, PhaseNs, ProfileCounters, ThreadPool, TracePhase};

/// Everything a run counts, read at one instant (or, from
/// [`delta`](Self::delta), over one interval).
#[derive(Debug, Clone, Default)]
pub(super) struct Totals {
    /// The run's phase clock.
    pub phase_ns: PhaseNs,
    /// The pool's profile, with the store's chunk traffic read in.
    pub counters: ProfileCounters,
    /// The sink's per-lane phase busy time (coordinator last); empty when
    /// not tracing.
    lane_busy: Vec<PhaseNs>,
}

impl Totals {
    /// Reads every source once: the pool's profile and (when tracing) span
    /// sink, the run's phase clock, and the store's chunk-I/O totals since
    /// `io_start` — the store keeps those itself, across runs.
    pub fn read(
        pool: &ThreadPool,
        clock: &PhaseClock,
        store: &dyn QuantStore,
        io_start: &ChunkIoStats,
    ) -> Self {
        let io = store.io_stats();
        let mut counters = pool.profile().snapshot();
        counters.chunk_loads = io.chunk_loads - io_start.chunk_loads;
        counters.chunk_evictions = io.chunk_evictions - io_start.chunk_evictions;
        Self {
            phase_ns: clock.snapshot(),
            counters,
            lane_busy: pool.trace().map(|s| s.phase_busy_by_lane()).unwrap_or_default(),
        }
    }

    /// What happened between `earlier` and `self`.
    pub fn delta(&self, earlier: &Totals) -> Totals {
        Totals {
            phase_ns: self.phase_ns.delta(&earlier.phase_ns),
            counters: self.counters.delta(&earlier.counters),
            lane_busy: self
                .lane_busy
                .iter()
                .zip(&earlier.lane_busy)
                .map(|(a, b)| a.delta(b))
                .collect(),
        }
    }

    /// Fig. 4's five buckets: sums over clock entries, with the gradient and
    /// score-update time under `other`. BuildHist spans enclose their
    /// reduction, and the pool-level wait phases never reach the clock.
    pub fn breakdown(&self) -> BreakdownReport {
        let ns = &self.phase_ns;
        BreakdownReport::from_ns([
            ns[TracePhase::BuildHist],
            ns[TracePhase::FindSplit],
            ns[TracePhase::ApplySplit],
            ns[TracePhase::Predict],
            ns[TracePhase::Gradients] + ns[TracePhase::Other],
        ])
    }

    /// The worker lanes' per-phase busy-time skew; no rows when not
    /// tracing. The coordinator's lane (the last) is left out: it mostly
    /// waits and would drown the phase imbalance signal.
    pub fn worker_skew(&self) -> WorkerSkewReport {
        let workers = &self.lane_busy[..self.lane_busy.len().saturating_sub(1)];
        WorkerSkewReport::from_phase_ns(&phase_rows(workers))
    }
}

/// The per-round run ledger and the one baseline its deltas are taken
/// against.
pub(super) struct RoundLedger {
    pub ledger: RunLedger,
    prev: Totals,
}

impl RoundLedger {
    /// Takes `start` as round 1's baseline.
    pub fn new(start: Totals) -> Self {
        Self { ledger: RunLedger::new(), prev: start }
    }

    /// Closes a round: files `record` with its telemetry fields —
    /// `phase_secs`, `counters`, `skew` and the plan's batch and task
    /// counts — filled from `now` minus the previous round's totals.
    pub fn push(&mut self, now: Totals, mut record: LedgerRecord) {
        let round = now.delta(&self.prev);
        self.prev = now;
        let c = &round.counters;
        record.plan.batches = c.plan_batches;
        record.plan.tasks = c.plan_tasks_replicated + c.plan_tasks_exclusive;
        record.phase_secs =
            round.breakdown().named().iter().map(|&(n, v)| (n.to_string(), v)).collect();
        record.counters = round.counters.named().iter().map(|&(n, v)| (n.to_string(), v)).collect();
        record.skew =
            round.worker_skew().rows.into_iter().map(|r| (r.phase, r.imbalance)).collect();
        self.ledger.push(record);
    }
}
