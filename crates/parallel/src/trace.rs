//! Phase-ledger tracing: lock-free per-worker span rings + chrome-trace export.
//!
//! The paper evaluates HarpGBDT with VTune's per-phase timeline; this module
//! is the software substitute. Every worker lane owns a fixed-capacity ring
//! of [`Span`]s — `(phase, node, block, t_start, t_end)` records stamped with
//! a seqlock-style sequence so a racing reader can never observe a torn span.
//! Recording is wait-free and allocation-free: one `fetch_add` on the lane's
//! head plus three plain stores into a pre-allocated slot. When the ring is
//! full the oldest span is overwritten (drop-oldest), so a trace always holds
//! the newest window of activity.
//!
//! Alongside the rings, each lane keeps aggregate counters: per-phase busy
//! nanoseconds — barrier-wait time (settled by the pool's fork/join regions)
//! and ASYNC queue-spin time among them, as their own phases — and pop/push
//! counts for the ASYNC priority queue.
//!
//! Two consumers exist:
//! * [`TraceSnapshot::to_chrome_trace`] renders the ledger as a chrome
//!   `trace_event` JSON file loadable in `chrome://tracing` or
//!   <https://ui.perfetto.dev>;
//! * [`TraceSnapshot::worker_phase_ns`] feeds the per-phase worker-skew
//!   table in `harp-metrics`.
//!
//! Tracing is a runtime switch: a sink exists only when a caller asks for
//! one (an `Option<Arc<TraceSink>>`), every recording site short-circuits on
//! its absence, and the hot path then carries no clock reads — the disabled
//! overhead budget is < 2% (asserted in the bench smoke).

use crate::profile::counter_table;
use serde::{Deserialize, Serialize};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Declares the phase list **once**: the enum (discriminants in declaration
/// order), the display names, [`TracePhase::all`] and [`N_TRACE_PHASES`] all
/// follow from it — a new phase is one line here.
macro_rules! trace_phases {
    ($( $(#[$doc:meta])* $variant:ident, )*) => {
        /// The phase a span or a [`PhaseClock`] interval is attributed to:
        /// the trainer's time breakdown plus the pool-level wait states.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum TracePhase {
            $( $(#[$doc])* $variant, )*
        }

        /// Number of distinct [`TracePhase`] values.
        pub const N_TRACE_PHASES: usize = [$( TracePhase::$variant, )*].len();

        impl TracePhase {
            /// All phases in discriminant order.
            pub fn all() -> [TracePhase; N_TRACE_PHASES] {
                [$( TracePhase::$variant, )*]
            }

            /// Stable display name (also the chrome-trace event name).
            pub fn name(self) -> &'static str {
                match self {
                    $( TracePhase::$variant => stringify!($variant), )*
                }
            }
        }
    };
}

trace_phases! {
    /// GHSum histogram construction (one span per scheduled task).
    BuildHist,
    /// Histogram reduction / subtraction work derived from BuildHist.
    Reduce,
    /// Split enumeration over finished histograms.
    FindSplit,
    /// Row partitioning after a split is applied.
    ApplySplit,
    /// Inference blocks in the predict driver.
    Predict,
    /// Gradient/hessian computation between trees.
    Gradients,
    /// End-of-region wait for the slowest worker (fork/join barrier).
    BarrierWait,
    /// Spinning on an empty-but-undrained ASYNC work queue.
    QueueSpin,
    /// Everything else the coordinator times (eval, bookkeeping).
    Other,
}

impl TracePhase {
    /// Inverse of `self as u8`; `None` for out-of-range values.
    pub fn from_u8(v: u8) -> Option<Self> {
        Self::all().get(v as usize).copied()
    }
}

/// Nanoseconds per phase, indexed by [`TracePhase`]: one read of a
/// [`PhaseClock`], or the difference of two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseNs(pub [u64; N_TRACE_PHASES]);

impl PhaseNs {
    /// Element-wise saturating difference `self - earlier`.
    pub fn delta(&self, earlier: &PhaseNs) -> PhaseNs {
        let mut out = *self;
        for (d, e) in out.0.iter_mut().zip(earlier.0) {
            *d = d.saturating_sub(e);
        }
        out
    }
}

impl std::ops::Index<TracePhase> for PhaseNs {
    type Output = u64;

    fn index(&self, phase: TracePhase) -> &u64 {
        &self.0[phase as usize]
    }
}

/// `(phase name, per-lane ns)` rows in phase order — the shape the
/// worker-skew table in `harp-metrics` is built from.
pub fn phase_rows(lanes: &[PhaseNs]) -> Vec<(&'static str, Vec<u64>)> {
    TracePhase::all()
        .into_iter()
        .map(|p| (p.name(), lanes.iter().map(|l| l[p]).collect()))
        .collect()
}

/// The phase clock: one relaxed nanosecond accumulator per [`TracePhase`].
/// The trainer owns one per run ([`PhaseSpan`] adds each timed interval to
/// its phase's entry) and every lane of a [`TraceSink`] owns one for its
/// span durations; time breakdowns are sums over a [`PhaseNs`] read of it.
#[derive(Debug, Default)]
pub struct PhaseClock([AtomicU64; N_TRACE_PHASES]);

impl PhaseClock {
    /// Creates a zeroed clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `ns` to `phase`'s entry.
    pub fn add(&self, phase: TracePhase, ns: u64) {
        self.0[phase as usize].fetch_add(ns, Ordering::Relaxed);
    }

    /// Reads every entry.
    pub fn snapshot(&self) -> PhaseNs {
        PhaseNs(std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed)))
    }
}

/// One recorded span. Timestamps are nanoseconds relative to the sink's
/// creation instant; the worker is implicit in which lane holds the span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// `TracePhase` discriminant.
    pub phase: u8,
    /// Tree node the work belonged to (0 when not node-scoped).
    pub node: u32,
    /// Block / task index within the phase (scheduler-specific).
    pub block: u32,
    /// Start, ns since the sink epoch.
    pub t_start_ns: u64,
    /// End, ns since the sink epoch.
    pub t_end_ns: u64,
}

/// One ring slot: a seqlock-stamped span.
///
/// `stamp` is 0 while the slot is empty, `2*seq + 1` while the writer for
/// ticket `seq` is mid-write, and `2*seq + 2` once the payload is published.
struct Slot {
    stamp: AtomicU64,
    data: UnsafeCell<Span>,
}

/// Fixed-capacity drop-oldest span ring.
///
/// Each lane of a [`TraceSink`] owns one ring and is written by exactly one
/// thread at a time (the pool guarantees a worker's lane is quiescent before
/// anyone else — e.g. the barrier settler — writes into it). The seqlock
/// stamps exist so that a reader racing a writer skips the slot instead of
/// returning torn data, and so misuse is detectable rather than undefined.
pub struct SpanRing {
    head: AtomicU64,
    mask: u64,
    slots: Box<[Slot]>,
}

// SAFETY: slot payloads are plain `Copy` data published/consumed under the
// seqlock stamp protocol; `&SpanRing` is shared across threads by design.
unsafe impl Sync for SpanRing {}
unsafe impl Send for SpanRing {}

impl SpanRing {
    /// Creates a ring holding `capacity` spans (rounded up to a power of two,
    /// minimum 8).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two() as u64;
        let slots = (0..cap)
            .map(|_| Slot { stamp: AtomicU64::new(0), data: UnsafeCell::new(Span::default()) })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self { head: AtomicU64::new(0), mask: cap - 1, slots }
    }

    /// Ring capacity in spans.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total spans ever pushed (pushed − capacity, clamped at 0, have been
    /// overwritten).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records one span. Wait-free, allocation-free; overwrites the oldest
    /// span once the ring is full.
    pub fn push(&self, span: Span) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq & self.mask) as usize];
        // Odd stamp: writer in flight. Release so the payload store below is
        // not visible before readers can tell the slot is unstable.
        slot.stamp.store(seq * 2 + 1, Ordering::Release);
        // SAFETY: single writer per ring (module contract); racing readers
        // validate the stamp pair around their copy and discard torn reads.
        unsafe { *slot.data.get() = span };
        // Even stamp: payload published.
        slot.stamp.store(seq * 2 + 2, Ordering::Release);
    }

    /// Copies out every currently-published span, oldest first.
    ///
    /// Slots whose writer is mid-flight (or that got overwritten while being
    /// read) are skipped — the seqlock stamp is re-checked after the copy, so
    /// a torn span is never returned.
    pub fn drain_valid(&self) -> Vec<Span> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let lo = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - lo) as usize);
        for seq in lo..head {
            let slot = &self.slots[(seq & self.mask) as usize];
            let before = slot.stamp.load(Ordering::Acquire);
            if before != seq * 2 + 2 {
                continue; // empty, mid-write, or already lapped
            }
            // SAFETY: payload is plain Copy data; validity of this copy is
            // established by the stamp re-check below.
            let span = unsafe { *slot.data.get() };
            let after = slot.stamp.load(Ordering::Acquire);
            if after == before {
                out.push(span);
            }
        }
        out
    }
}

counter_table! {
    /// One lane's ASYNC queue counts. Its barrier-wait and queue-spin time
    /// are the lane's `BarrierWait` and `QueueSpin` busy entries.
    atomics LaneWaits;
    /// The sink's queue counts, of one lane or summed over lanes —
    /// cumulative since sink creation (subtract two reads for an interval
    /// delta).
    snapshot TraceCounters;

    /// Successful ASYNC queue pops.
    queue_pops,
    /// ASYNC queue pushes.
    queue_pushes,
}

/// Per-lane aggregate counters, padded to avoid false sharing between lanes.
#[repr(align(128))]
#[derive(Default)]
struct LaneCounters {
    busy: PhaseClock,
    waits: LaneWaits,
}

/// The trace ledger: one span ring + counter block per lane.
///
/// Lanes `0..n_workers` belong to the pool's worker threads; lane
/// `n_workers` (the last one, [`coordinator_lane`](Self::coordinator_lane))
/// belongs to the coordinating thread that drives training.
pub struct TraceSink {
    epoch: Instant,
    rings: Vec<SpanRing>,
    counters: Vec<LaneCounters>,
}

impl TraceSink {
    /// Creates a sink with `n_workers + 1` lanes and the default per-lane
    /// capacity (16384 spans).
    pub fn new(n_workers: usize) -> Arc<Self> {
        Self::with_capacity(n_workers, 1 << 14)
    }

    /// Creates a sink with an explicit per-lane span capacity.
    pub fn with_capacity(n_workers: usize, spans_per_lane: usize) -> Arc<Self> {
        let n_lanes = n_workers + 1;
        Arc::new(Self {
            epoch: Instant::now(),
            rings: (0..n_lanes).map(|_| SpanRing::new(spans_per_lane)).collect(),
            counters: (0..n_lanes).map(|_| LaneCounters::default()).collect(),
        })
    }

    /// Number of lanes (workers + coordinator).
    pub fn n_lanes(&self) -> usize {
        self.rings.len()
    }

    /// The lane reserved for the coordinating (non-pool) thread.
    pub fn coordinator_lane(&self) -> usize {
        self.rings.len() - 1
    }

    /// Nanoseconds since the sink epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span on `lane` and charges its duration to the
    /// lane's per-phase busy counter.
    pub fn record(
        &self,
        lane: usize,
        phase: TracePhase,
        node: u32,
        block: u32,
        t_start_ns: u64,
        t_end_ns: u64,
    ) {
        let lane = lane.min(self.rings.len() - 1);
        self.rings[lane].push(Span { phase: phase as u8, node, block, t_start_ns, t_end_ns });
        self.counters[lane].busy.add(phase, t_end_ns.saturating_sub(t_start_ns));
    }

    /// Starts a scoped span on `lane`; the span is recorded when the guard
    /// drops.
    pub fn span(&self, lane: usize, phase: TracePhase, node: u32, block: u32) -> PhaseSpan<'_> {
        PhaseSpan::begin(Some(self), lane, phase, node, block, None)
    }

    /// `lane`'s queue counts (out-of-range lanes land on the
    /// coordinator's).
    fn waits(&self, lane: usize) -> &LaneWaits {
        &self.counters[lane.min(self.counters.len() - 1)].waits
    }

    /// Counts one successful pop from the ASYNC priority queue on `lane`.
    pub fn count_queue_pop(&self, lane: usize) {
        self.waits(lane).queue_pops.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one push into the ASYNC priority queue from `lane`.
    pub fn count_queue_push(&self, lane: usize) {
        self.waits(lane).queue_pushes.fetch_add(1, Ordering::Relaxed);
    }

    /// Sums the queue counters across lanes — a handful of relaxed
    /// loads, safe to call once per boosting round (unlike
    /// [`snapshot`](Self::snapshot), which drains the span rings).
    pub fn counter_totals(&self) -> TraceCounters {
        self.counters
            .iter()
            .fold(TraceCounters::default(), |t, c| t.plus(&c.waits.snapshot()))
    }

    /// Per-lane per-phase busy nanoseconds (cumulative). Two reads bracket
    /// an interval; their [`PhaseNs::delta`]s feed a per-round worker-skew
    /// table without touching the span rings.
    pub fn phase_busy_by_lane(&self) -> Vec<PhaseNs> {
        self.counters.iter().map(|c| c.busy.snapshot()).collect()
    }

    /// Snapshots every lane: published spans sorted by start time plus a
    /// copy of the aggregate counters.
    pub fn snapshot(&self) -> TraceSnapshot {
        let coord = self.coordinator_lane();
        let lanes = self
            .rings
            .iter()
            .zip(&self.counters)
            .enumerate()
            .map(|(i, (ring, c))| {
                let mut spans = ring.drain_valid();
                spans.sort_by_key(|s| (s.t_start_ns, s.t_end_ns));
                LaneSnapshot {
                    name: if i == coord {
                        "coordinator".to_string()
                    } else {
                        format!("worker-{i}")
                    },
                    spans,
                    spans_recorded: ring.pushed(),
                    spans_dropped: ring.pushed().saturating_sub(ring.capacity() as u64),
                    busy_ns: c.busy.snapshot(),
                    waits: c.waits.snapshot(),
                }
            })
            .collect();
        TraceSnapshot { lanes }
    }
}

/// The one scoped phase timer: a single clock pair feeds the [`PhaseClock`]
/// entry of its phase and, when a sink is present, a span on the given lane.
///
/// With neither a sink nor a clock the guard is inert and performs no clock
/// reads — this is the tracing-disabled fast path.
pub struct PhaseSpan<'a> {
    sink: Option<&'a TraceSink>,
    clock: Option<&'a PhaseClock>,
    lane: usize,
    phase: TracePhase,
    node: u32,
    block: u32,
    start: Option<Instant>,
    start_ns: u64,
}

impl<'a> PhaseSpan<'a> {
    /// Starts timing. On drop, `clock` receives the elapsed nanoseconds
    /// under `phase` and `sink` a span on `lane`.
    pub fn begin(
        sink: Option<&'a TraceSink>,
        lane: usize,
        phase: TracePhase,
        node: u32,
        block: u32,
        clock: Option<&'a PhaseClock>,
    ) -> Self {
        let start_ns = sink.map(|s| s.now_ns()).unwrap_or(0);
        let start = if sink.is_none() && clock.is_some() { Some(Instant::now()) } else { None };
        Self { sink, clock, lane, phase, node, block, start, start_ns }
    }
}

impl Drop for PhaseSpan<'_> {
    fn drop(&mut self) {
        if let Some(sink) = self.sink {
            let end = sink.now_ns();
            sink.record(self.lane, self.phase, self.node, self.block, self.start_ns, end);
            if let Some(c) = self.clock {
                c.add(self.phase, end.saturating_sub(self.start_ns));
            }
        } else if let (Some(c), Some(t0)) = (self.clock, self.start) {
            c.add(self.phase, t0.elapsed().as_nanos() as u64);
        }
    }
}

/// A drained copy of one lane of the ledger.
#[derive(Debug, Clone)]
pub struct LaneSnapshot {
    /// Display name: `worker-N` or `coordinator`.
    pub name: String,
    /// Published spans, sorted by start time.
    pub spans: Vec<Span>,
    /// Total spans ever recorded on this lane.
    pub spans_recorded: u64,
    /// Spans lost to drop-oldest overwrite.
    pub spans_dropped: u64,
    /// Aggregate busy ns per phase.
    pub busy_ns: PhaseNs,
    /// ASYNC queue counts of this lane.
    pub waits: TraceCounters,
}

/// A drained copy of the whole ledger; the input to both exporters.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// One entry per lane; the last lane is the coordinator.
    pub lanes: Vec<LaneSnapshot>,
}

impl TraceSnapshot {
    /// Per-phase busy nanoseconds for the pool worker lanes only (the
    /// coordinator lane is excluded — it is not part of the worker team whose
    /// skew the breakdown table measures).
    ///
    /// Returns `(phase name, per-worker ns)` rows in phase order.
    pub fn worker_phase_ns(&self) -> Vec<(&'static str, Vec<u64>)> {
        let workers = self.lanes.len().saturating_sub(1);
        let busy: Vec<PhaseNs> = self.lanes[..workers].iter().map(|l| l.busy_ns).collect();
        phase_rows(&busy)
    }

    /// Per-phase span durations in nanoseconds, pooled across all lanes
    /// (coordinator included — its FindSplit/reduce spans are real work).
    ///
    /// Returns `(phase name, durations)` rows in phase order, skipping
    /// phases with no spans. This is the feed for duration histograms:
    /// span rings already pay the recording cost, so deriving the
    /// distribution here adds nothing to the training hot path. Rings
    /// drop oldest under pressure, so long runs see a suffix sample.
    pub fn phase_durations_ns(&self) -> Vec<(&'static str, Vec<u64>)> {
        TracePhase::all()
            .into_iter()
            .filter_map(|p| {
                let durations: Vec<u64> = self
                    .lanes
                    .iter()
                    .flat_map(|l| &l.spans)
                    .filter(|s| s.phase == p as u8)
                    .map(|s| s.t_end_ns.saturating_sub(s.t_start_ns))
                    .collect();
                if durations.is_empty() {
                    None
                } else {
                    Some((p.name(), durations))
                }
            })
            .collect()
    }

    /// Per-worker barrier-wait nanoseconds (worker lanes only).
    pub fn worker_barrier_wait_ns(&self) -> Vec<u64> {
        let workers = self.lanes.len().saturating_sub(1);
        self.lanes[..workers]
            .iter()
            .map(|l| l.busy_ns[TracePhase::BarrierWait])
            .collect()
    }

    /// Renders the snapshot as chrome `trace_event` JSON (the "JSON object
    /// format": `{"traceEvents": [...]}`), loadable in `chrome://tracing`
    /// and Perfetto.
    ///
    /// * spans become `"ph":"X"` complete events (`ts`/`dur` in µs with ns
    ///   precision), one `tid` per lane;
    /// * lane names become `thread_name` metadata events;
    /// * aggregate counters become one `"ph":"I"` instant event per lane
    ///   with the counters in `args`.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(1 << 16);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"harpgbdt\"}}",
        );
        for (tid, lane) in self.lanes.iter().enumerate() {
            out.push_str(&format!(
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                lane.name
            ));
        }
        let mut t_max = 0u64;
        for (tid, lane) in self.lanes.iter().enumerate() {
            for s in &lane.spans {
                t_max = t_max.max(s.t_end_ns);
                let name = TracePhase::from_u8(s.phase).map(|p| p.name()).unwrap_or("Unknown");
                out.push_str(&format!(
                    ",\n{{\"name\":\"{name}\",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":1,\
                     \"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                     \"args\":{{\"node\":{},\"block\":{}}}}}",
                    s.t_start_ns as f64 / 1e3,
                    s.t_end_ns.saturating_sub(s.t_start_ns) as f64 / 1e3,
                    s.node,
                    s.block
                ));
            }
        }
        for (tid, lane) in self.lanes.iter().enumerate() {
            out.push_str(&format!(
                ",\n{{\"name\":\"lane-counters\",\"ph\":\"I\",\"s\":\"t\",\"pid\":1,\
                 \"tid\":{tid},\"ts\":{:.3},\"args\":{{\
                 \"barrier_wait_ns\":{},\"queue_spin_ns\":{},\"queue_pops\":{},\
                 \"queue_pushes\":{},\"spans_recorded\":{},\"spans_dropped\":{}}}}}",
                t_max as f64 / 1e3,
                lane.busy_ns[TracePhase::BarrierWait],
                lane.busy_ns[TracePhase::QueueSpin],
                lane.waits.queue_pops,
                lane.waits.queue_pushes,
                lane.spans_recorded,
                lane.spans_dropped
            ));
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes [`to_chrome_trace`](Self::to_chrome_trace) output to `path`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_chrome_trace())
    }

    /// Total spans across all lanes.
    pub fn n_spans(&self) -> usize {
        self.lanes.iter().map(|l| l.spans.len()).sum()
    }

    /// Spans on any lane whose phase is `phase`.
    pub fn count_phase(&self, phase: TracePhase) -> usize {
        self.lanes
            .iter()
            .map(|l| l.spans.iter().filter(|s| s.phase == phase as u8).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_spans_after_wraparound() {
        let ring = SpanRing::new(16);
        assert_eq!(ring.capacity(), 16);
        for i in 0..40u64 {
            ring.push(Span {
                phase: TracePhase::BuildHist as u8,
                node: i as u32,
                block: i as u32,
                t_start_ns: i,
                t_end_ns: i + 1,
            });
        }
        let spans = ring.drain_valid();
        assert_eq!(spans.len(), 16);
        // Drop-oldest: exactly spans 24..40 survive, oldest first.
        let nodes: Vec<u32> = spans.iter().map(|s| s.node).collect();
        assert_eq!(nodes, (24u32..40).collect::<Vec<_>>());
        assert_eq!(ring.pushed(), 40);
    }

    #[test]
    fn ring_smaller_than_capacity_returns_everything_in_order() {
        let ring = SpanRing::new(64);
        for i in 0..10u64 {
            ring.push(Span { phase: 0, node: i as u32, block: 0, t_start_ns: i, t_end_ns: i });
        }
        let spans = ring.drain_valid();
        assert_eq!(spans.len(), 10);
        assert!(spans.windows(2).all(|w| w[0].node < w[1].node));
    }

    #[test]
    fn concurrent_lane_writers_never_tear_a_span() {
        // Every lane is hammered by its own thread (the supported contract);
        // each span carries a self-consistency relation that any torn
        // read/write interleaving would break.
        let n_workers = 8;
        let per_thread = 20_000u32;
        let sink = TraceSink::with_capacity(n_workers, 1 << 10);
        std::thread::scope(|s| {
            for lane in 0..n_workers {
                let sink = Arc::clone(&sink);
                s.spawn(move || {
                    for i in 0..per_thread {
                        let start = (i as u64) * 3;
                        sink.record(
                            lane,
                            TracePhase::BuildHist,
                            i,
                            i.wrapping_mul(7),
                            start,
                            start + u64::from(i % 13),
                        );
                    }
                });
            }
        });
        let snap = sink.snapshot();
        let mut seen = 0usize;
        for lane in &snap.lanes[..n_workers] {
            for s in &lane.spans {
                assert_eq!(s.block, s.node.wrapping_mul(7), "torn span: {s:?}");
                assert_eq!(s.t_start_ns, u64::from(s.node) * 3, "torn span: {s:?}");
                assert_eq!(s.t_end_ns - s.t_start_ns, u64::from(s.node % 13), "torn span: {s:?}");
                seen += 1;
            }
            assert_eq!(lane.spans_recorded, u64::from(per_thread));
        }
        assert_eq!(seen, n_workers * (1 << 10));
    }

    #[test]
    fn racing_reader_skips_unstable_slots_instead_of_tearing() {
        // One writer laps a tiny ring while a reader drains concurrently;
        // every span the reader returns must satisfy the writer's invariant.
        let ring = Arc::new(SpanRing::new(8));
        let writer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..200_000u64 {
                    ring.push(Span {
                        phase: 1,
                        node: i as u32,
                        block: (i as u32).wrapping_add(42),
                        t_start_ns: i,
                        t_end_ns: i * 2,
                    });
                }
            })
        };
        for _ in 0..2_000 {
            for s in ring.drain_valid() {
                assert_eq!(s.block, s.node.wrapping_add(42), "torn read: {s:?}");
                assert_eq!(s.t_end_ns, s.t_start_ns * 2, "torn read: {s:?}");
            }
        }
        writer.join().unwrap();
    }

    #[test]
    fn chrome_trace_round_trips_as_json_with_monotone_timestamps() {
        let sink = TraceSink::with_capacity(2, 64);
        for lane in 0..2 {
            for i in 0..20u64 {
                sink.record(
                    lane,
                    TracePhase::all()[(i % 5) as usize],
                    i as u32,
                    lane as u32,
                    i * 100,
                    i * 100 + 50,
                );
            }
        }
        sink.count_queue_pop(1);
        let json = sink.snapshot().to_chrome_trace();

        // Round-trip through the JSON parser: the exporter must emit valid
        // JSON whose complete events have per-tid monotone start times.
        struct RawValue(serde::Value);
        impl serde::Deserialize for RawValue {
            fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
                Ok(RawValue(v.clone()))
            }
        }
        let v = serde_json::from_str::<RawValue>(&json)
            .expect("exporter emitted invalid JSON")
            .0;
        let obj = v.as_obj().expect("top level must be an object");
        let events = obj
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .and_then(|(_, v)| v.as_arr())
            .expect("traceEvents array");
        let mut last_ts: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
        let mut complete_events = 0;
        let mut saw_barrier_counter = false;
        for e in events {
            let fields = e.as_obj().expect("event must be an object");
            let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
            let ph = match get("ph") {
                Some(serde::Value::Str(s)) => s.clone(),
                _ => panic!("event missing ph"),
            };
            if ph == "X" {
                complete_events += 1;
                let tid = get("tid").and_then(|v| v.as_f64()).unwrap() as u64;
                let ts = get("ts").and_then(|v| v.as_f64()).unwrap();
                let dur = get("dur").and_then(|v| v.as_f64()).unwrap();
                assert!(dur >= 0.0);
                let prev = last_ts.insert(tid, ts).unwrap_or(f64::NEG_INFINITY);
                assert!(ts >= prev, "timestamps regress on tid {tid}: {prev} -> {ts}");
            } else if ph == "I" {
                let args = get("args").and_then(|v| v.as_obj().map(<[_]>::to_vec)).unwrap();
                if args.iter().any(|(k, _)| k == "barrier_wait_ns") {
                    saw_barrier_counter = true;
                }
            }
        }
        assert_eq!(complete_events, 40);
        assert!(saw_barrier_counter, "per-lane counter events missing");
    }

    #[test]
    fn phase_durations_pool_spans_across_lanes_and_skip_empty_phases() {
        let sink = TraceSink::with_capacity(2, 64);
        sink.record(0, TracePhase::BuildHist, 0, 0, 100, 350);
        sink.record(1, TracePhase::BuildHist, 1, 0, 200, 260);
        sink.record(sink.coordinator_lane(), TracePhase::FindSplit, 0, 0, 400, 410);
        let snap = sink.snapshot();
        let rows = snap.phase_durations_ns();
        assert_eq!(rows.len(), 2, "phases with no spans must be skipped: {rows:?}");
        let (name, durs) = &rows[0];
        assert_eq!(*name, TracePhase::BuildHist.name());
        let mut durs = durs.clone();
        durs.sort_unstable();
        assert_eq!(durs, vec![60, 250]);
        assert_eq!(rows[1], (TracePhase::FindSplit.name(), vec![10]));
    }

    #[test]
    fn span_guard_records_on_drop_and_busy_counters_accumulate() {
        let sink = TraceSink::with_capacity(1, 64);
        {
            let _g = sink.span(0, TracePhase::FindSplit, 7, 3);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = sink.snapshot();
        assert_eq!(snap.count_phase(TracePhase::FindSplit), 1);
        let s = snap.lanes[0].spans[0];
        assert_eq!((s.node, s.block), (7, 3));
        assert!(s.t_end_ns > s.t_start_ns);
        assert!(snap.lanes[0].busy_ns[TracePhase::FindSplit] >= 1_000_000);
    }

    #[test]
    fn phase_span_feeds_both_counter_and_sink() {
        let only = |phase: TracePhase, ns: &PhaseNs| {
            TracePhase::all().into_iter().all(|p| (ns[p] > 0) == (p == phase))
        };
        let sink = TraceSink::with_capacity(1, 64);
        let clock = PhaseClock::new();
        {
            let _p = PhaseSpan::begin(
                Some(&sink),
                sink.coordinator_lane(),
                TracePhase::BuildHist,
                1,
                0,
                Some(&clock),
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = sink.snapshot();
        assert_eq!(snap.count_phase(TracePhase::BuildHist), 1);
        // One clock pair: the clock entry and the span carry the same interval.
        let span = snap.lanes[sink.coordinator_lane()].spans[0];
        let ns = clock.snapshot();
        assert_eq!(ns[TracePhase::BuildHist], span.t_end_ns - span.t_start_ns);
        assert!(ns[TracePhase::BuildHist] >= 1_000_000);
        assert!(only(TracePhase::BuildHist, &ns), "{ns:?}");

        // A clock and no sink: exactly one interval, in exactly the phase's
        // entry, and each further guard adds exactly one more.
        let c2 = PhaseClock::new();
        let mut reads = Vec::new();
        for _ in 0..3 {
            {
                let _p = PhaseSpan::begin(None, 0, TracePhase::Other, 0, 0, Some(&c2));
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            reads.push(c2.snapshot());
        }
        assert!(reads.iter().all(|ns| only(TracePhase::Other, ns)), "{reads:?}");
        assert!(reads.windows(2).all(|w| w[0][TracePhase::Other] < w[1][TracePhase::Other]));
        assert_eq!(reads[2].delta(&reads[2]), PhaseNs::default());

        // Neither: the guard is inert — it holds no start time, so its drop
        // has nothing to read a clock against.
        let inert = PhaseSpan::begin(None, 0, TracePhase::Other, 0, 0, None);
        assert!(inert.start.is_none() && inert.start_ns == 0);
    }

    #[test]
    fn worker_phase_rows_exclude_coordinator() {
        let sink = TraceSink::with_capacity(3, 64);
        sink.record(0, TracePhase::BuildHist, 0, 0, 0, 100);
        sink.record(sink.coordinator_lane(), TracePhase::BuildHist, 0, 0, 0, 900);
        let snap = sink.snapshot();
        let rows = snap.worker_phase_ns();
        let (name, row) = &rows[TracePhase::BuildHist as usize];
        assert_eq!(*name, "BuildHist");
        assert_eq!(row, &vec![100, 0, 0]);
        assert_eq!(snap.worker_barrier_wait_ns().len(), 3);
    }
}
