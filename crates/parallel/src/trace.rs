//! Phase-ledger tracing: per-worker span rings + chrome-trace export.
//!
//! The paper evaluates HarpGBDT with VTune's per-phase timeline; this module
//! is the software substitute. Every worker lane holds, behind one lock, a
//! fixed-capacity ring of [`Span`]s — `(phase, node, block, t_start, t_end)`
//! records — and the per-phase busy nanoseconds of every span it recorded:
//! barrier-wait time (settled by the pool's fork/join regions) and ASYNC
//! queue-spin time among them, as their own phases. Recording locks the
//! lane, which its worker alone takes on the hot path, and allocates
//! nothing: the ring is sized up front. When the ring is full the oldest
//! span is overwritten (drop-oldest), so a trace always holds the newest
//! window of activity. The sink keeps no counts: those are
//! [`Profile`](crate::Profile)'s, written whether or not anyone traces.
//!
//! Two consumers exist:
//! * [`TraceSnapshot::to_chrome_trace`] renders the ledger as a chrome
//!   `trace_event` JSON file loadable in `chrome://tracing` or
//!   <https://ui.perfetto.dev>;
//! * [`TraceSink::phase_busy_by_lane`] feeds the per-phase worker-skew
//!   table in `harp-metrics`, through [`phase_rows`].
//!
//! Tracing is a runtime switch: a sink exists only when a caller asks for
//! one (an `Option<Arc<TraceSink>>`), every recording site short-circuits on
//! its absence, and the hot path then carries no clock reads — the disabled
//! overhead budget is < 2% of one BuildHist task (asserted in
//! `tests/span_trace.rs`).

use crate::spin::SpinMutex;
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
    /// An ASYNC worker polling a work source that has nothing to claim yet
    /// but is not drained.
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
/// its phase's entry); time breakdowns are sums over a [`PhaseNs`] read of
/// it.
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

/// One lane of a [`TraceSink`]: a fixed-capacity drop-oldest ring of spans
/// and the per-phase busy time of every span recorded on it.
#[derive(Default)]
struct Lane {
    /// The ring. It fills up to the sink's capacity; after that span
    /// `pushed` overwrites slot `pushed % capacity`, the oldest.
    spans: Vec<Span>,
    /// Spans ever recorded on this lane.
    pushed: u64,
    /// Summed span durations per phase, overwritten spans included.
    busy: PhaseNs,
}

impl Lane {
    /// The ring's spans, oldest first. Until the ring wraps `pushed` is
    /// its length, so the oldest span is at slot 0 either way.
    fn oldest_first(&self) -> Vec<Span> {
        let (newer, older) =
            self.spans.split_at((self.pushed % self.spans.len().max(1) as u64) as usize);
        [older, newer].concat()
    }
}

/// A lane behind its lock, padded so that two lanes never share a cache
/// line.
#[repr(align(128))]
struct PaddedLane(SpinMutex<Lane>);

/// The trace ledger: one locked [`Lane`] per worker plus the coordinator's.
///
/// Lanes `0..n_workers` belong to the pool's worker threads; lane
/// `n_workers` (the last one, [`coordinator_lane`](Self::coordinator_lane))
/// belongs to the coordinating thread that drives training.
pub struct TraceSink {
    epoch: Instant,
    capacity: usize,
    lanes: Vec<PaddedLane>,
}

impl TraceSink {
    /// Creates a sink with `n_workers + 1` lanes and the default per-lane
    /// capacity (16384 spans).
    pub fn new(n_workers: usize) -> Arc<Self> {
        Self::with_capacity(n_workers, 1 << 14)
    }

    /// Creates a sink with an explicit per-lane span capacity (rounded up
    /// to a power of two, minimum 8).
    pub fn with_capacity(n_workers: usize, spans_per_lane: usize) -> Arc<Self> {
        let capacity = spans_per_lane.max(8).next_power_of_two();
        let lane = || {
            PaddedLane(SpinMutex::new(Lane {
                spans: Vec::with_capacity(capacity),
                ..Lane::default()
            }))
        };
        Arc::new(Self {
            epoch: Instant::now(),
            capacity,
            lanes: (0..=n_workers).map(|_| lane()).collect(),
        })
    }

    /// The lane reserved for the coordinating (non-pool) thread.
    pub fn coordinator_lane(&self) -> usize {
        self.lanes.len() - 1
    }

    /// Nanoseconds since the sink epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span on `lane` (a lane past the last lands on the
    /// coordinator's) and charges its duration to the lane's busy time
    /// under `phase`. Overwrites the lane's oldest span once its ring is
    /// full.
    pub fn record(
        &self,
        lane: usize,
        phase: TracePhase,
        node: u32,
        block: u32,
        t_start_ns: u64,
        t_end_ns: u64,
    ) {
        let span = Span { phase: phase as u8, node, block, t_start_ns, t_end_ns };
        let mut lane = self.lanes[lane.min(self.lanes.len() - 1)].0.lock();
        if lane.spans.len() < self.capacity {
            lane.spans.push(span);
        } else {
            let oldest = (lane.pushed % self.capacity as u64) as usize;
            lane.spans[oldest] = span;
        }
        lane.pushed += 1;
        lane.busy.0[phase as usize] += t_end_ns.saturating_sub(t_start_ns);
    }

    /// Starts a scoped span on `lane`; the span is recorded when the guard
    /// drops.
    pub fn span(&self, lane: usize, phase: TracePhase, node: u32, block: u32) -> PhaseSpan<'_> {
        PhaseSpan::begin(Some(self), lane, phase, node, block, None)
    }

    /// Per-lane per-phase busy nanoseconds (cumulative). Two reads bracket
    /// an interval; their [`PhaseNs::delta`]s feed a per-round worker-skew
    /// table without copying any span.
    pub fn phase_busy_by_lane(&self) -> Vec<PhaseNs> {
        self.lanes.iter().map(|l| l.0.lock().busy).collect()
    }

    /// Snapshots every lane: its spans sorted by start time, its span
    /// counts and its busy time.
    pub fn snapshot(&self) -> TraceSnapshot {
        let coord = self.coordinator_lane();
        let lanes = self
            .lanes
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let (mut spans, pushed, busy_ns) = {
                    let lane = l.0.lock();
                    (lane.oldest_first(), lane.pushed, lane.busy)
                };
                spans.sort_by_key(|s| (s.t_start_ns, s.t_end_ns));
                LaneSnapshot {
                    name: if i == coord {
                        "coordinator".to_string()
                    } else {
                        format!("worker-{i}")
                    },
                    spans,
                    spans_recorded: pushed,
                    spans_dropped: pushed.saturating_sub(self.capacity as u64),
                    busy_ns,
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
}

/// A drained copy of the whole ledger; the input to both exporters.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// One entry per lane; the last lane is the coordinator.
    pub lanes: Vec<LaneSnapshot>,
}

impl TraceSnapshot {
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
                 \"barrier_wait_ns\":{},\"queue_spin_ns\":{},\
                 \"spans_recorded\":{},\"spans_dropped\":{}}}}}",
                t_max as f64 / 1e3,
                lane.busy_ns[TracePhase::BarrierWait],
                lane.busy_ns[TracePhase::QueueSpin],
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Span `i` of a self-checking sequence: any mix of two spans' fields
    /// fails [`assert_whole`].
    fn checked(i: u32) -> (u32, u32, u64, u64) {
        let start = u64::from(i) * 3;
        (i, i.wrapping_mul(7), start, start + u64::from(i % 13))
    }

    fn assert_whole(s: &Span) {
        let (node, block, start, end) = checked(s.node);
        assert_eq!(
            (s.node, s.block, s.t_start_ns, s.t_end_ns),
            (node, block, start, end),
            "torn span"
        );
    }

    #[test]
    fn ring_keeps_newest_spans_after_wraparound() {
        let sink = TraceSink::with_capacity(0, 16);
        assert_eq!(sink.snapshot().lanes.len(), 1, "no worker: the coordinator's lane alone");
        // Start times run backwards, so the ring's own order (oldest
        // first) and the snapshot's (by start time) differ.
        for i in 0..40u64 {
            sink.record(0, TracePhase::BuildHist, i as u32, 0, 1000 - i, 1000 - i + 2);
        }
        // Drop-oldest: exactly spans 24..40 survive, oldest first.
        let ring: Vec<u32> = sink.lanes[0].0.lock().oldest_first().iter().map(|s| s.node).collect();
        assert_eq!(ring, (24u32..40).collect::<Vec<_>>());
        let lane = &sink.snapshot().lanes[0];
        let nodes: Vec<u32> = lane.spans.iter().map(|s| s.node).collect();
        assert_eq!(nodes, (24u32..40).rev().collect::<Vec<_>>());
        assert_eq!((lane.spans_recorded, lane.spans_dropped), (40, 24));
        // Busy time covers every span recorded, the overwritten ones too.
        assert_eq!(lane.busy_ns[TracePhase::BuildHist], 80);
    }

    #[test]
    fn ring_smaller_than_capacity_returns_everything_in_order() {
        // 50 rounds up to a capacity of 64.
        let sink = TraceSink::with_capacity(0, 50);
        for i in 0..10u64 {
            sink.record(0, TracePhase::Reduce, i as u32, 0, i, i);
        }
        let ring = sink.lanes[0].0.lock().oldest_first();
        let lane = &sink.snapshot().lanes[0];
        assert_eq!(ring, lane.spans);
        assert_eq!(lane.spans.len(), 10);
        assert!(lane.spans.windows(2).all(|w| w[0].node < w[1].node));
        assert_eq!((lane.spans_recorded, lane.spans_dropped), (10, 0));
        for i in 10..65u64 {
            sink.record(0, TracePhase::Reduce, i as u32, 0, i, i);
        }
        let lane = &sink.snapshot().lanes[0];
        assert_eq!((lane.spans.len(), lane.spans_dropped), (64, 1), "capacity is 64, not 50");
        assert_eq!(lane.spans[0].node, 1, "span 0 was the one dropped");
    }

    #[test]
    fn concurrent_lane_writers_never_tear_a_span() {
        // Every lane is hammered by its own thread; each span carries a
        // self-consistency relation that any torn write would break.
        let n_workers = 8;
        let per_thread = 20_000u32;
        let sink = TraceSink::with_capacity(n_workers, 1 << 10);
        std::thread::scope(|s| {
            for lane in 0..n_workers {
                let sink = Arc::clone(&sink);
                s.spawn(move || {
                    for i in 0..per_thread {
                        let (node, block, start, end) = checked(i);
                        sink.record(lane, TracePhase::BuildHist, node, block, start, end);
                    }
                });
            }
        });
        let snap = sink.snapshot();
        let mut seen = 0usize;
        for lane in &snap.lanes[..n_workers] {
            lane.spans.iter().for_each(assert_whole);
            seen += lane.spans.len();
            assert_eq!(lane.spans_recorded, u64::from(per_thread));
        }
        assert_eq!(seen, n_workers * (1 << 10));
    }

    #[test]
    fn a_reader_racing_a_writer_gets_only_whole_spans() {
        // One writer laps a tiny ring while a reader snapshots it; every
        // span the reader gets must be one the writer wrote whole.
        let sink = TraceSink::with_capacity(0, 8);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..200_000u32 {
                    let (node, block, start, end) = checked(i);
                    sink.record(0, TracePhase::Reduce, node, block, start, end);
                }
            });
            for _ in 0..2_000 {
                let snap = sink.snapshot();
                let lane = &snap.lanes[0];
                lane.spans.iter().for_each(assert_whole);
                assert_eq!(lane.spans.len() as u64, lane.spans_recorded.min(8));
            }
        });
    }

    #[test]
    fn a_sink_narrower_than_its_pool_keeps_every_span_whole() {
        // Two lanes for four workers: workers 1..3 all write the
        // coordinator's lane, as does the settler of each region's barrier
        // waits (at most three per region).
        let mut pool = crate::ThreadPool::new(4);
        let sink = TraceSink::with_capacity(1, 64);
        pool.install_trace(Arc::clone(&sink));
        let (regions, calls) = (20u32, 5_000u32);
        for r in 0..regions {
            pool.parallel_for(calls as usize, |i, worker| {
                let (node, block, start, end) = checked(r * calls + i as u32);
                sink.record(worker, TracePhase::BuildHist, node, block, start, end);
            });
        }
        let snap = sink.snapshot();
        assert_eq!(snap.lanes.len(), 2);
        let built = |s: &&Span| s.phase == TracePhase::BuildHist as u8;
        snap.lanes
            .iter()
            .flat_map(|l| l.spans.iter().filter(built))
            .for_each(assert_whole);
        let recorded: u64 = snap.lanes.iter().map(|l| l.spans_recorded).sum();
        let made = u64::from(regions * calls);
        assert!(
            (made..=made + 3 * u64::from(regions)).contains(&recorded),
            "{recorded} spans recorded for {made} calls and at most {} barrier waits",
            3 * regions
        );
        let busy: u64 = snap.lanes.iter().map(|l| l.busy_ns[TracePhase::BuildHist]).sum();
        let want: u64 = (0..regions * calls).map(|i| u64::from(i % 13)).sum();
        assert_eq!(busy, want, "every call's duration is charged exactly once");
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
        assert_eq!(snap.n_spans(), 1);
        let s = snap.lanes[0].spans[0];
        assert_eq!(s.phase, TracePhase::FindSplit as u8);
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
        assert_eq!(snap.n_spans(), 1);
        // One clock pair: the clock entry and the span carry the same interval.
        let span = snap.lanes[sink.coordinator_lane()].spans[0];
        assert_eq!(span.phase, TracePhase::BuildHist as u8);
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
        // The coordinator's lane is the last; the skew table's rows are
        // built from the lanes before it.
        let busy = sink.phase_busy_by_lane();
        assert_eq!(busy.len(), 4);
        assert_eq!(busy[3][TracePhase::BuildHist], 900);
        let rows = phase_rows(&busy[..3]);
        let (name, row) = &rows[TracePhase::BuildHist as usize];
        assert_eq!(*name, "BuildHist");
        assert_eq!(row, &vec![100, 0, 0]);
        let names: Vec<_> = sink.snapshot().lanes.into_iter().map(|l| l.name).collect();
        assert_eq!(names, ["worker-0", "worker-1", "worker-2", "coordinator"]);
    }
}
