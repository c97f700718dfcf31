//! Server counters, latency histograms, and phase accounting.
//!
//! Each counter is one line of [`ServeCounters`]' `counter_table!` and each
//! latency phase one line of [`Phase`]'s `latency_phases!`; every serve
//! output is a view of one [`StatsSnapshot`]: the `Stats` protocol reply,
//! the shutdown summary, the `/metrics` exposition, and the serve
//! [`RunLedger`](harp_metrics::RunLedger) epochs. Phases mirror the
//! trainer's breakdown discipline: `queue_wait` (admission to dispatch),
//! `assemble` (batch → matrix), `predict` (forest traversal), and `write`
//! (response serialization + socket write) partition a request's
//! server-side life. Each phase is recorded once, in an [`AtomicHistogram`],
//! so tails (p99/p999) are observable and the cumulative phase seconds are
//! the histogram's sum; `end_to_end` spans admission to scored reply.

use harp_metrics::{AtomicHistogram, LatencySet, LedgerRecord, RunLedger};
use std::sync::atomic::{AtomicU64, Ordering};

harp_parallel::counter_table! {
    /// The monotone counters of one server instance, bumped on the hot path.
    atomics ServeCounters;
    /// A point-in-time read of [`ServeCounters`]. Each entry's doc is its
    /// `/metrics` HELP text.
    snapshot ServeCounts;

    /// Score requests admitted.
    requests,
    /// Rows admitted in Score requests.
    rows,
    /// Micro-batches dispatched.
    batches,
    /// Requests shed when the queue is full or no reader can start.
    sheds,
    /// Protocol errors answered.
    protocol_errors,
    /// Model hot-swaps installed.
    swaps,
    /// Connections accepted.
    connections,
}

/// Declares the latency phases **once**: each entry's variant is the
/// [`Phase`] a record site names, its position the index of its histogram
/// in [`ServeStats`], and its name the one [`StatsSnapshot::latency`],
/// `/metrics` labels, ledger metrics and `--slo` specs use.
macro_rules! latency_phases {
    ($( $(#[doc = $doc:literal])* $Variant:ident = $name:literal, )*) => {
        /// A recorded serve latency.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Phase {
            $( $(#[doc = $doc])* $Variant, )*
        }

        impl Phase {
            /// Every phase, in snapshot order.
            pub const ALL: [Phase; [$( $name, )*].len()] = [$( Phase::$Variant, )*];

            /// The phase's name.
            pub const fn name(self) -> &'static str {
                match self {
                    $( Phase::$Variant => $name, )*
                }
            }
        }
    };
}

latency_phases! {
    /// Admission to scored reply, per request: spans the four below.
    EndToEnd = "end_to_end",
    /// Admission to dispatch, per request.
    QueueWait = "queue_wait",
    /// Batch assembly, per batch.
    Assemble = "assemble",
    /// Forest traversal, per batch.
    Predict = "predict",
    /// Response write, per reply.
    Write = "write",
}

/// Hot-path telemetry of one server instance.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// The monotone counters.
    pub counters: ServeCounters,
    /// Jobs currently queued for dispatch (gauge: raised before a job is
    /// offered to the queue, lowered when it is refused or dispatched).
    pub queue_depth: AtomicU64,
    /// One latency histogram per [`Phase`], at its index.
    latency: [AtomicHistogram; Phase::ALL.len()],
}

/// A point-in-time read of [`ServeStats`], stamped with the served forest.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StatsSnapshot {
    /// The counters.
    pub counters: ServeCounts,
    /// Generation of the forest being served.
    pub generation: u64,
    /// Feature count of the forest being served.
    pub n_features: u64,
    /// Score groups per row of the forest being served.
    pub n_groups: u64,
    /// Seconds since the server started (distinguishes a fresh process
    /// from a long-lived one whose counters may have wrapped).
    pub uptime_secs: f64,
    /// Jobs queued for dispatch at snapshot time.
    pub queue_depth: u64,
    /// One histogram per [`Phase`], in its order, under its name.
    pub latency: LatencySet,
}

impl ServeStats {
    /// Bumps a count by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one `phase` latency of `ns` nanoseconds.
    pub fn record(&self, phase: Phase, ns: u64) {
        self.latency[phase as usize].record(ns);
    }

    /// Snapshot with the served forest's generation and shape stamped in.
    pub fn snapshot(
        &self,
        generation: u64,
        n_features: u64,
        n_groups: u64,
        uptime_secs: f64,
    ) -> StatsSnapshot {
        StatsSnapshot {
            counters: self.counters.snapshot(),
            generation,
            n_features,
            n_groups,
            uptime_secs,
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            latency: LatencySet(
                Phase::ALL
                    .iter()
                    .map(|&p| (p.name().to_string(), self.latency[p as usize].snapshot()))
                    .collect(),
            ),
        }
    }
}

impl StatsSnapshot {
    /// The cumulative seconds of each phase a request passes through (all
    /// but `end_to_end`), in order: each its histogram's sum.
    pub fn phase_secs(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        Phase::ALL
            .into_iter()
            .filter(|&p| p != Phase::EndToEnd)
            .map(|p| (p.name(), self.latency.get(p.name()).map_or(0.0, |h| h.sum() as f64 / 1e9)))
    }

    /// Renders as one [`LedgerRecord`] for the serve ledger: the epoch
    /// index plays the role of the boosting round, phase seconds carry the
    /// serve phases, counters carry the deltas since the previous epoch,
    /// latency histograms carry per-epoch bucket deltas; the tree-shape,
    /// memory and plan fields stay at their zero defaults (no trees are
    /// grown while serving).
    ///
    /// All deltas saturate at zero: the component loads are relaxed and
    /// can tear across a concurrent epoch boundary, so `prev` may be
    /// momentarily ahead of `self` on individual counters.
    pub fn to_ledger_record(
        &self,
        epoch: u64,
        elapsed_secs: f64,
        prev: &StatsSnapshot,
    ) -> LedgerRecord {
        let latency = LatencySet(
            self.latency
                .0
                .iter()
                .map(|(name, hist)| {
                    let prev_hist = prev.latency.get(name).cloned().unwrap_or_default();
                    (name.clone(), hist.delta_since(&prev_hist))
                })
                .collect(),
        );
        LedgerRecord {
            round: epoch,
            elapsed_secs,
            phase_secs: self
                .phase_secs()
                .zip(prev.phase_secs())
                .map(|((name, now), (_, before))| (name.into(), (now - before).max(0.0)))
                .collect(),
            counters: self
                .counters
                .delta(&prev.counters)
                .named()
                .map(|(n, v)| (n.into(), v))
                .into(),
            latency,
            ..Default::default()
        }
    }
}

/// Accumulates serve epochs into a [`RunLedger`].
#[derive(Debug, Default)]
pub struct ServeLedger {
    ledger: RunLedger,
    prev: StatsSnapshot,
    epoch: u64,
}

impl ServeLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Closes an epoch: records the delta between `snap` and the previous
    /// epoch's snapshot.
    pub fn record_epoch(&mut self, snap: StatsSnapshot, elapsed_secs: f64) {
        self.epoch += 1;
        self.ledger.push(snap.to_ledger_record(self.epoch, elapsed_secs, &self.prev));
        self.prev = snap;
    }

    /// The accumulated ledger.
    pub fn ledger(&self) -> &RunLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adds `n` to each listed counter.
    fn add(counts: &[(&AtomicU64, u64)]) {
        for (counter, n) in counts {
            counter.fetch_add(*n, Ordering::Relaxed);
        }
    }

    #[test]
    fn snapshot_and_ledger_deltas() {
        let s = ServeStats::default();
        ServeStats::bump(&s.counters.requests);
        ServeStats::bump(&s.counters.requests);
        s.counters.rows.fetch_add(128, Ordering::Relaxed);
        s.record(Phase::Predict, 2_000_000_000);
        let snap = s.snapshot(3, 28, 1, 1.5);
        assert_eq!(snap.counters.requests, 2);
        assert_eq!(snap.counters.rows, 128);
        assert_eq!(snap.generation, 3);
        assert_eq!(snap.n_features, 28);
        assert_eq!(snap.uptime_secs, 1.5);
        assert_eq!(snap.queue_depth, 0);
        let names: Vec<&str> = snap.latency.0.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["end_to_end", "queue_wait", "assemble", "predict", "write"]);
        let predict = snap.latency.get("predict").unwrap();
        assert_eq!(predict.count(), 1);
        assert!(predict.quantile(0.99) >= 2_000_000_000);

        let mut ledger = ServeLedger::new();
        ledger.record_epoch(snap.clone(), 1.0);
        ServeStats::bump(&s.counters.requests);
        s.record(Phase::Predict, 1_000_000);
        ledger.record_epoch(s.snapshot(3, 28, 1, 2.5), 2.0);
        let records = ledger.ledger().records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].counters[0], ("requests".into(), 2));
        assert_eq!(records[1].counters[0], ("requests".into(), 1));
        assert_eq!(records[1].round, 2);
        // Names and order are the contract ledgers and dashboards read.
        let names =
            |pairs: &[(String, u64)]| pairs.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
        assert_eq!(
            names(&records[0].counters),
            ["requests", "rows", "batches", "sheds", "protocol_errors", "swaps", "connections"]
        );
        assert_eq!(records[0].counters[1], ("rows".into(), 128));
        assert_eq!(
            records[0].phase_secs,
            [("queue_wait", 0.0), ("assemble", 0.0), ("predict", 2.0), ("write", 0.0)]
                .map(|(n, v)| (n.to_string(), v))
        );
        assert_eq!((records[0].round_secs, records[0].n_leaves, records[0].mem.len()), (0.0, 0, 0));
        // The wire form of a `StatsReply` holds each value once, in field
        // order: the counter table, the forest, the two gauges, the
        // histograms.
        let json = serde_json::to_string(&snap).unwrap();
        assert!(
            json.starts_with(
                "{\"counters\":{\"requests\":2,\"rows\":128,\"batches\":0,\"sheds\":0,\
                 \"protocol_errors\":0,\"swaps\":0,\"connections\":0},\"generation\":3,\
                 \"n_features\":28,\"n_groups\":1,\"uptime_secs\":1.5,\"queue_depth\":0,\
                 \"latency\":["
            ),
            "{json}"
        );
        assert_eq!(serde_json::from_str::<StatsSnapshot>(&json).unwrap(), snap);
        // Epoch histograms are deltas: epoch 2 sees only the 1ms sample.
        let epoch2 = records[1].latency.get("predict").unwrap();
        assert_eq!(epoch2.count(), 1);
        assert!(epoch2.quantile(0.5) < 2_000_000);
        // JSONL round-trip keeps the serve phases and histograms.
        let text = ledger.ledger().to_jsonl();
        let back = RunLedger::from_jsonl(&text).unwrap();
        assert_eq!(back.records(), ledger.ledger().records());

        // A phase is recorded once: its seconds are its histogram's sum.
        s.record(Phase::QueueWait, 3_000);
        s.record(Phase::Assemble, 5_000);
        s.record(Phase::Write, 7_000);
        s.record(Phase::Write, 11);
        let later = s.snapshot(3, 28, 1, 3.5);
        for snap in [&snap, &later] {
            for (name, secs) in snap.phase_secs() {
                let sum = snap.latency.get(name).unwrap().sum();
                assert_eq!(secs, sum as f64 / 1e9, "{name}");
            }
        }
        assert_eq!(later.phase_secs().last(), Some(("write", 7_011.0 / 1e9)));
    }

    /// The serve ledger's records over a fixed traffic sequence, field for
    /// field as recorded before the counters and phases became tables
    /// (`testdata/serve_ledger.jsonl`).
    #[test]
    fn ledger_records_match_the_recorded_sequence() {
        let s = ServeStats::default();
        let c = &s.counters;
        let mut ledger = ServeLedger::new();
        add(&[(&c.requests, 2), (&c.rows, 128), (&c.batches, 1), (&c.connections, 1)]);
        s.record(Phase::Predict, 2_000_000);
        s.record(Phase::QueueWait, 33_333);
        s.record(Phase::EndToEnd, 2_100_000);
        s.record(Phase::Write, 4_321);
        s.record(Phase::Assemble, 999);
        ledger.record_epoch(s.snapshot(1, 28, 1, 1.0), 1.0);
        ledger.record_epoch(s.snapshot(1, 28, 1, 2.0), 2.0);
        add(&[
            (&c.requests, 3),
            (&c.rows, 70),
            (&c.sheds, 1),
            (&c.swaps, 1),
            (&c.protocol_errors, 2),
        ]);
        s.record(Phase::Predict, 1_000_000);
        s.record(Phase::Predict, 3_333_333);
        s.record(Phase::QueueWait, 1);
        s.record(Phase::Write, 77_777);
        s.record(Phase::EndToEnd, 5_000_000);
        ledger.record_epoch(s.snapshot(2, 28, 1, 3.25), 3.25);
        let recorded =
            RunLedger::from_jsonl(include_str!("../testdata/serve_ledger.jsonl")).unwrap();
        assert_eq!(ledger.ledger().records(), recorded.records());
    }

    #[test]
    fn ledger_record_saturates_when_prev_snapshot_reads_ahead() {
        // Relaxed loads can tear across an epoch boundary, leaving `prev`
        // momentarily ahead of `self` on individual counters; the deltas
        // must clamp to zero instead of wrapping to ~u64::MAX.
        let s = ServeStats::default();
        s.counters.requests.fetch_add(9, Ordering::Relaxed);
        s.counters.rows.fetch_add(1001, Ordering::Relaxed);
        let cur = s.snapshot(1, 8, 1, 1.0);
        s.counters.requests.fetch_add(1, Ordering::Relaxed);
        s.record(Phase::QueueWait, 500_000_000);
        let mut prev = s.snapshot(1, 8, 1, 1.0);
        prev.counters.rows = 1000;
        let rec = cur.to_ledger_record(1, 1.0, &prev);
        assert_eq!(rec.counters[0], ("requests".into(), 0), "torn counter must saturate");
        assert_eq!(rec.counters[1], ("rows".into(), 1));
        let (name, qw) = &rec.phase_secs[0];
        assert_eq!(name, "queue_wait");
        assert_eq!(*qw, 0.0, "torn phase seconds must clamp at zero");
    }
}
