//! The trainer's end of the telemetry spine: one read of everything a run
//! counts ([`Totals`]), and the per-round ledger as differences of two reads
//! ([`RoundLedger`]). `Diagnostics::profile`, `Diagnostics::breakdown` and
//! every `LedgerRecord` are views of such a read.

use harp_binning::{ChunkIoStats, QuantStore};
use harp_metrics::{
    gauges, BreakdownReport, LedgerRecord, MemRegistry, RunLedger, WorkerSkewReport,
};
use harp_parallel::trace::phase_rows;
use harp_parallel::{PhaseClock, PhaseNs, ProfileCounters, ThreadPool, TraceCounters, TracePhase};

/// Everything a run counts, read at one instant (or, from
/// [`delta`](Self::delta), over one interval).
#[derive(Debug, Clone, Default)]
pub(super) struct Totals {
    /// The run's phase clock.
    pub phase_ns: PhaseNs,
    /// The pool's profile, with the store's chunk traffic read in.
    pub counters: ProfileCounters,
    /// The sink's queue counts; `None` when not tracing.
    queue: Option<TraceCounters>,
    /// The sink's per-lane phase busy time (coordinator last), queue spin
    /// included; empty when not tracing.
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
        counters.chunk_prefetch_hits = io.chunk_prefetch_hits - io_start.chunk_prefetch_hits;
        let sink = pool.trace();
        Self {
            phase_ns: clock.snapshot(),
            counters,
            queue: sink.map(|s| s.counter_totals()),
            lane_busy: sink.map(|s| s.phase_busy_by_lane()).unwrap_or_default(),
        }
    }

    /// What happened between `earlier` and `self`.
    pub fn delta(&self, earlier: &Totals) -> Totals {
        Totals {
            phase_ns: self.phase_ns.delta(&earlier.phase_ns),
            counters: self.counters.delta(&earlier.counters),
            queue: self.queue.zip(earlier.queue).map(|(now, prev)| now.delta(&prev)),
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
}

/// The per-round run ledger and the one baseline its deltas are taken
/// against.
pub(super) struct RoundLedger {
    pub ledger: RunLedger,
    /// Byte gauges; handles are fetched by name where they are handed over.
    pub mem: MemRegistry,
    prev: Totals,
}

impl RoundLedger {
    /// Registers every gauge up front — registration order is the order of
    /// a record's `mem` — and takes `start` as round 1's baseline.
    pub fn new(chunked: bool, start: Totals) -> Self {
        let mut mem = MemRegistry::new();
        for name in [
            gauges::HIST_POOL,
            gauges::HIST_CACHE,
            gauges::SCRATCH_ARENA,
            gauges::MEMBUF,
            gauges::PARTITION,
            gauges::FLAT_FOREST,
            gauges::QUANT_STORE,
        ] {
            mem.gauge(name);
        }
        if chunked {
            mem.gauge(gauges::CHUNK_RESIDENT);
        }
        Self { ledger: RunLedger::new(), mem, prev: start }
    }

    /// Closes a round: files `record` with its telemetry fields —
    /// `phase_secs`, `counters`, `skew`, `mem` — filled from `now` minus the
    /// previous round's totals.
    pub fn push(&mut self, now: Totals, mut record: LedgerRecord) {
        let round = now.delta(&self.prev);
        self.prev = now;
        record.phase_secs =
            round.breakdown().named().iter().map(|&(n, v)| (n.to_string(), v)).collect();
        record.counters = round.counters.named().iter().map(|&(n, v)| (n.to_string(), v)).collect();
        if let Some(q) = round.queue {
            record.counters.extend([
                ("queue_pops".to_string(), q.queue_pops),
                ("queue_pushes".to_string(), q.queue_pushes),
                (
                    "queue_spin_ns".to_string(),
                    round.lane_busy.iter().map(|l| l[TracePhase::QueueSpin]).sum(),
                ),
            ]);
        }
        // Workers only: the coordinator lane (the last) mostly waits and
        // would drown the phase imbalance signal.
        let workers = &round.lane_busy[..round.lane_busy.len().saturating_sub(1)];
        record.skew = WorkerSkewReport::from_phase_ns(&phase_rows(workers))
            .rows
            .into_iter()
            .map(|r| (r.phase, r.imbalance))
            .collect();
        record.mem = self.mem.snapshot();
        self.ledger.push(record);
    }
}
