//! Server counters, latency histograms, and phase accounting.
//!
//! Every counter is a relaxed atomic bumped on the hot path; a
//! [`StatsSnapshot`] is a consistent-enough point-in-time read used for
//! the `Stats` protocol reply, the shutdown summary, the `/metrics`
//! exposition, and the serve [`RunLedger`](harp_metrics::RunLedger)
//! epochs. Phases mirror the trainer's breakdown discipline: `queue_wait`
//! (admission to dispatch), `assemble` (batch → matrix), `predict` (forest
//! traversal), and `write` (response serialization + socket write)
//! partition a request's server-side life. Each phase is recorded once, in
//! an [`AtomicHistogram`], so tails (p99/p999) are observable and the
//! cumulative phase seconds are the histogram's sum; `end_to_end` spans
//! admission to scored reply.

use harp_metrics::{AtomicHistogram, HistogramSnapshot, LatencySet, LedgerRecord, RunLedger};
use std::sync::atomic::{AtomicU64, Ordering};

/// Hot-path counters for one server instance.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Score requests admitted to the queue.
    pub requests: AtomicU64,
    /// Rows in admitted Score requests.
    pub rows: AtomicU64,
    /// Micro-batches dispatched.
    pub batches: AtomicU64,
    /// Score requests shed by admission control (queue full).
    pub sheds: AtomicU64,
    /// Protocol errors answered (malformed frames, bad shapes).
    pub protocol_errors: AtomicU64,
    /// Model hot-swaps installed.
    pub swaps: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Jobs currently queued for dispatch (gauge: raised before a job is
    /// offered to the queue, lowered when it is refused or dispatched).
    pub queue_depth: AtomicU64,
    /// Admission → scored-reply latency distribution, per request.
    pub e2e_hist: AtomicHistogram,
    /// Queue-wait latency distribution, per request.
    pub queue_wait_hist: AtomicHistogram,
    /// Batch-assembly latency distribution, per batch.
    pub assemble_hist: AtomicHistogram,
    /// Predict latency distribution, per batch.
    pub predict_hist: AtomicHistogram,
    /// Response-write latency distribution, per reply.
    pub write_hist: AtomicHistogram,
}

/// Histogram names as they appear in [`StatsSnapshot::latency`],
/// `/metrics` labels, ledger metrics, and `--slo` specs.
pub const PHASE_HIST_NAMES: [&str; 5] =
    ["end_to_end", "queue_wait", "assemble", "predict", "write"];

/// A point-in-time read of [`ServeStats`].
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StatsSnapshot {
    /// Score requests admitted.
    pub requests: u64,
    /// Rows admitted.
    pub rows: u64,
    /// Micro-batches dispatched.
    pub batches: u64,
    /// Requests shed by admission control.
    pub sheds: u64,
    /// Protocol errors answered.
    pub protocol_errors: u64,
    /// Hot-swaps installed.
    pub swaps: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Generation of the forest being served.
    pub generation: u64,
    /// Feature count of the forest being served.
    pub n_features: u64,
    /// Score groups per row of the forest being served.
    pub n_groups: u64,
    /// Queue-wait seconds (sum over requests): the `queue_wait` histogram's
    /// sum, as are the three phases below theirs.
    pub queue_wait_secs: f64,
    /// Batch-assembly seconds.
    pub assemble_secs: f64,
    /// Predict seconds.
    pub predict_secs: f64,
    /// Response-write seconds.
    pub write_secs: f64,
    /// Seconds since the server started (distinguishes a fresh process
    /// from a long-lived one whose counters may have wrapped). Absent in
    /// pre-histogram snapshots; `Option::missing` keeps them parsing.
    pub uptime_secs: Option<f64>,
    /// Jobs queued for dispatch at snapshot time.
    pub queue_depth: Option<u64>,
    /// Latency histograms in [`PHASE_HIST_NAMES`] order; empty when the
    /// snapshot predates histogram recording.
    pub latency: LatencySet,
}

impl ServeStats {
    /// Bumps a count by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot with the served forest's generation and shape stamped in.
    pub fn snapshot(
        &self,
        generation: u64,
        n_features: u64,
        n_groups: u64,
        uptime_secs: f64,
    ) -> StatsSnapshot {
        let latency = LatencySet(
            PHASE_HIST_NAMES
                .iter()
                .zip([
                    &self.e2e_hist,
                    &self.queue_wait_hist,
                    &self.assemble_hist,
                    &self.predict_hist,
                    &self.write_hist,
                ])
                .map(|(name, h)| ((*name).to_string(), h.snapshot()))
                .collect(),
        );
        let secs = |name| latency.get(name).map_or(0.0, |h| h.sum() as f64 / 1e9);
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            generation,
            n_features,
            n_groups,
            queue_wait_secs: secs("queue_wait"),
            assemble_secs: secs("assemble"),
            predict_secs: secs("predict"),
            write_secs: secs("write"),
            uptime_secs: Some(uptime_secs),
            queue_depth: Some(self.queue_depth.load(Ordering::Relaxed)),
            latency,
        }
    }
}

impl StatsSnapshot {
    /// The monotone counters as `(name, help, value)` in wire order — the
    /// one listing behind the serve ledger's `counters` and the `/metrics`
    /// `harp_serve_<name>_total` families.
    pub fn counters(&self) -> [(&'static str, &'static str, u64); 7] {
        [
            ("requests", "Score requests admitted.", self.requests),
            ("rows", "Rows admitted in Score requests.", self.rows),
            ("batches", "Micro-batches dispatched.", self.batches),
            ("sheds", "Requests shed by admission control.", self.sheds),
            ("protocol_errors", "Protocol errors answered.", self.protocol_errors),
            ("swaps", "Model hot-swaps installed.", self.swaps),
            ("connections", "Connections accepted.", self.connections),
        ]
    }

    /// The cumulative serve-phase seconds as `(name, seconds)`, in the order
    /// a request passes through them.
    pub fn phase_secs(&self) -> [(&'static str, f64); 4] {
        [
            ("queue_wait", self.queue_wait_secs),
            ("assemble", self.assemble_secs),
            ("predict", self.predict_secs),
            ("write", self.write_secs),
        ]
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
                .into_iter()
                .zip(prev.phase_secs())
                .map(|((name, now), (_, before))| (name.into(), (now - before).max(0.0)))
                .collect(),
            counters: self
                .counters()
                .into_iter()
                .zip(prev.counters())
                .map(|((name, _, now), (_, _, before))| (name.into(), now.saturating_sub(before)))
                .collect(),
            latency,
            ..Default::default()
        }
    }

    /// The merged latency histograms as `(name, histogram)` pairs — the
    /// shape [`harp_metrics::evaluate_slo`] consumes.
    pub fn latency_hists(&self) -> &[(String, HistogramSnapshot)] {
        &self.latency.0
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

    #[test]
    fn snapshot_and_ledger_deltas() {
        let s = ServeStats::default();
        ServeStats::bump(&s.requests);
        ServeStats::bump(&s.requests);
        s.rows.fetch_add(128, Ordering::Relaxed);
        s.predict_hist.record(2_000_000_000);
        let snap = s.snapshot(3, 28, 1, 1.5);
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.rows, 128);
        assert_eq!(snap.generation, 3);
        assert_eq!(snap.n_features, 28);
        assert!((snap.predict_secs - 2.0).abs() < 1e-9);
        assert_eq!(snap.uptime_secs, Some(1.5));
        assert_eq!(snap.queue_depth, Some(0));
        assert_eq!(snap.latency.0.len(), PHASE_HIST_NAMES.len());
        let predict = snap.latency.get("predict").unwrap();
        assert_eq!(predict.count(), 1);
        assert!(predict.quantile(0.99) >= 2_000_000_000);

        let mut ledger = ServeLedger::new();
        ledger.record_epoch(snap.clone(), 1.0);
        ServeStats::bump(&s.requests);
        s.predict_hist.record(1_000_000);
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
        // The wire form of a `StatsReply` keeps its keys, in field order.
        let json = serde_json::to_string(&snap).unwrap();
        assert!(
            json.starts_with(
                "{\"requests\":2,\"rows\":128,\"batches\":0,\"sheds\":0,\"protocol_errors\":0,\
                 \"swaps\":0,\"connections\":0,\"generation\":3,\"n_features\":28,\"n_groups\":1,\
                 \"queue_wait_secs\":0.0,\"assemble_secs\":0.0,\"predict_secs\":2.0,\"write_secs\":0.0,\
                 \"uptime_secs\":1.5,\"queue_depth\":0,\"latency\":["
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
        s.queue_wait_hist.record(3_000);
        s.assemble_hist.record(5_000);
        s.write_hist.record(7_000);
        s.write_hist.record(11);
        for snap in [&snap, &s.snapshot(3, 28, 1, 3.5)] {
            for (name, secs) in snap.phase_secs() {
                let sum = snap.latency.get(name).unwrap().sum();
                assert_eq!(secs, sum as f64 / 1e9, "{name}");
            }
        }
        assert_eq!(s.snapshot(3, 28, 1, 3.5).write_secs, 7_011.0 / 1e9);
    }

    #[test]
    fn ledger_record_saturates_when_prev_snapshot_reads_ahead() {
        // Relaxed loads can tear across an epoch boundary, leaving `prev`
        // momentarily ahead of `self` on individual counters; the deltas
        // must clamp to zero instead of wrapping to ~u64::MAX.
        let prev =
            StatsSnapshot { requests: 10, rows: 1000, queue_wait_secs: 0.5, ..Default::default() };
        let cur = StatsSnapshot { requests: 9, rows: 1001, ..Default::default() };
        let rec = cur.to_ledger_record(1, 1.0, &prev);
        assert_eq!(rec.counters[0], ("requests".into(), 0), "torn counter must saturate");
        assert_eq!(rec.counters[1], ("rows".into(), 1));
        let (name, qw) = &rec.phase_secs[0];
        assert_eq!(name, "queue_wait");
        assert_eq!(*qw, 0.0, "torn phase seconds must clamp at zero");
    }
}
