//! The run ledger: one machine-readable record per boosting round.
//!
//! A training run emits one [`LedgerRecord`] per round holding the round's
//! *deltas* — phase seconds since the previous round, profile-counter
//! traffic, the eval metric, tree shape, per-phase worker imbalance, and a
//! snapshot of every [`crate::MemGaugeRecord`] byte gauge. Records stream as
//! JSON-lines (one record per line), the format every structured-log tool
//! ingests, so a run can be tailed live, replayed, summarized, and — the
//! point of the exercise — *diffed against another run mechanically*:
//! [`DiffReport`] compares two summaries metric-by-metric with tolerance
//! thresholds, which is what turns one-off benchmarks into a regression
//! gate.
//!
//! The schema is deliberately generic: metrics travel as `(name, value)`
//! pairs rather than fixed struct fields, so adding a counter or gauge never
//! breaks old ledgers and the comparator needs no per-metric code.

use crate::histogram::LatencySet;
use crate::memory::MemGaugeRecord;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Per-round block-plan statistics: how many BuildHist batches the round
/// planned, how many block tasks they enumerated, and the extents the last
/// batch resolved to (sentinels expanded, auto-tuner applied). Diffing these
/// at zero tolerance is what catches an auto-tuner regression — a changed
/// pick shows up as a changed extent or task count before it shows up as
/// time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PlanStats {
    /// BuildHist batches planned this round.
    pub batches: u64,
    /// Block tasks enumerated across those batches.
    pub tasks: u64,
    /// Resolved rows-per-task extent of the round's last batch.
    pub row_blk: u64,
    /// Resolved node-block extent of the round's last batch.
    pub node_blk: u64,
    /// Resolved feature-block extent of the round's last batch.
    pub feature_blk: u64,
    /// Resolved bin-block extent of the round's last batch (0 = unblocked).
    pub bin_blk: u64,
    /// Whether the extents came from the cost-model auto-tuner.
    pub auto: bool,
}

// Manual impl (not derived) so ledgers written before this field existed
// still parse: a missing `plan` object falls back to zeros.
impl serde::Deserialize for PlanStats {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v.as_obj().ok_or_else(|| serde::Error::new("expected plan stats object"))?;
        Ok(Self {
            batches: serde::field(obj, "batches")?,
            tasks: serde::field(obj, "tasks")?,
            row_blk: serde::field(obj, "row_blk")?,
            node_blk: serde::field(obj, "node_blk")?,
            feature_blk: serde::field(obj, "feature_blk")?,
            bin_blk: serde::field(obj, "bin_blk")?,
            auto: serde::field(obj, "auto")?,
        })
    }

    fn missing() -> Option<Self> {
        Some(Self::default())
    }
}

/// One boosting round's measurements. All time/counter values are deltas
/// over the round; `mem` entries are point-in-time gauge reads.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LedgerRecord {
    /// 1-based boosting round.
    pub round: u64,
    /// Cumulative training seconds at the end of this round (excludes
    /// evaluation).
    pub elapsed_secs: f64,
    /// Wall seconds of this round alone.
    pub round_secs: f64,
    /// Per-phase seconds spent this round (`build_hist`, `find_split`,
    /// `apply_split`, `predict`, `other`).
    pub phase_secs: Vec<(String, f64)>,
    /// Profile-counter deltas this round (scratch/partition alloc + reuse,
    /// hist-cache hits/misses/evictions/trims, histogram builds skipped,
    /// queue pops/pushes/spin, ...).
    pub counters: Vec<(String, u64)>,
    /// Validation metric computed at the end of this round, when an eval set
    /// was attached and this was an eval round.
    pub eval_metric: Option<f64>,
    /// Leaves of the round's largest tree (one tree per round for scalar
    /// losses; max over the group for softmax).
    pub n_leaves: u32,
    /// Depth of the round's deepest tree.
    pub max_depth: u32,
    /// Mean candidates popped per growth-queue pop this round — the
    /// *effective K* (≤ `TrainParams::k`; smaller when the frontier is
    /// narrow).
    pub mean_k_per_pop: f64,
    /// Memory gauges (current + high-water bytes), in registration order.
    pub mem: Vec<MemGaugeRecord>,
    /// Per-phase worker imbalance (max/mean busy time) this round; empty
    /// when span tracing is off.
    pub skew: Vec<(String, f64)>,
    /// Block-plan batches/tasks this round plus the resolved extents
    /// (zeroed in ledgers written before planning was recorded).
    pub plan: PlanStats,
    /// Per-phase latency histograms for this record's window (the serve
    /// ledger's request-tail distributions; empty in training ledgers and
    /// in ledgers written before histograms existed — `LatencySet::missing`
    /// keeps old JSONL parsing, the same trick as `plan`).
    pub latency: LatencySet,
}

/// An in-memory ledger: the ordered records of one run plus JSONL I/O.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunLedger {
    records: Vec<LedgerRecord>,
}

impl RunLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one round's record.
    pub fn push(&mut self, record: LedgerRecord) {
        self.records.push(record);
    }

    /// The recorded rounds, in order.
    pub fn records(&self) -> &[LedgerRecord] {
        &self.records
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no round was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serializes the ledger as JSON-lines (one record per line).
    ///
    /// # Panics
    /// Never — every record field serializes infallibly.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&serde_json::to_string(r).expect("ledger records always serialize"));
            out.push('\n');
        }
        out
    }

    /// Parses a JSON-lines ledger; blank lines are skipped.
    ///
    /// # Errors
    /// Returns a message naming the first malformed line.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let rec: LedgerRecord =
                serde_json::from_str(line).map_err(|e| format!("ledger line {}: {e:?}", i + 1))?;
            records.push(rec);
        }
        Ok(Self { records })
    }

    /// Writes the ledger to `path` as JSON-lines.
    ///
    /// # Errors
    /// Propagates file I/O errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Reads a JSON-lines ledger from `path`.
    ///
    /// # Errors
    /// Returns a message for I/O or parse failures.
    pub fn read_jsonl(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("failed to read ledger {}: {e}", path.display()))?;
        Self::from_jsonl(&text)
    }

    /// Aggregates the run into named summary metrics (see
    /// [`LedgerSummary`]).
    pub fn summary(&self) -> LedgerSummary {
        LedgerSummary::from_records(&self.records)
    }

    /// Renders a per-round table (the `report` subcommand's default view).
    pub fn render_rounds(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>7} {:>6} {:>6} {:>12}",
            "round",
            "ms",
            "build",
            "find",
            "apply",
            "predict",
            "eval",
            "leaves",
            "depth",
            "k/pop",
            "mem hw (KB)"
        );
        for r in &self.records {
            let phase =
                |name: &str| r.phase_secs.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
            let hw_kb: u64 = r.mem.iter().map(|m| m.high_water_bytes).sum::<u64>() / 1024;
            let _ = writeln!(
                out,
                "{:>5} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>10} {:>7} {:>6} {:>6.1} {:>12}",
                r.round,
                r.round_secs * 1e3,
                phase("build_hist") * 1e3,
                phase("find_split") * 1e3,
                phase("apply_split") * 1e3,
                phase("predict") * 1e3,
                r.eval_metric.map_or_else(|| "-".to_string(), |m| format!("{m:.5}")),
                r.n_leaves,
                r.max_depth,
                r.mean_k_per_pop,
                hw_kb
            );
        }
        out
    }
}

/// Whole-run aggregates as a flat `(metric name, value)` list.
///
/// Aggregation rule per family (encoded in the name prefix):
/// * `time/*` and `counter/*` — summed over rounds (deltas sum to run
///   totals);
/// * `mem/<gauge>/high_water_bytes` — max over rounds; `.../current_bytes`
///   — last round's value;
/// * `eval/last` — last recorded eval metric;
/// * `tree/leaves_mean`, `tree/k_per_pop_mean` — means; `tree/depth_max` —
///   max;
/// * `skew/<phase>/imbalance` — max over rounds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LedgerSummary {
    /// Rounds aggregated.
    pub rounds: usize,
    /// `(name, value)` aggregates, in a stable order.
    pub metrics: Vec<(String, f64)>,
}

impl LedgerSummary {
    /// Aggregates `records` (see the type docs for the per-family rules).
    pub fn from_records(records: &[LedgerRecord]) -> Self {
        let mut m: Vec<(String, f64)> = Vec::new();
        let mut upsert = |name: String, v: f64, combine: fn(f64, f64) -> f64| match m
            .iter_mut()
            .find(|(n, _)| *n == name)
        {
            Some((_, cur)) => *cur = combine(*cur, v),
            None => m.push((name, v)),
        };
        let sum = |a: f64, b: f64| a + b;
        let max = f64::max;
        let last = |_a: f64, b: f64| b;

        let mut leaves_sum = 0.0f64;
        let mut k_sum = 0.0f64;
        let mut latency = LatencySet::default();
        for r in records {
            upsert("time/round_secs".into(), r.round_secs, sum);
            for (name, v) in &r.phase_secs {
                upsert(format!("time/{name}_secs"), *v, sum);
            }
            for (name, v) in &r.counters {
                upsert(format!("counter/{name}"), *v as f64, sum);
            }
            if let Some(e) = r.eval_metric {
                upsert("eval/last".into(), e, last);
            }
            for g in &r.mem {
                upsert(format!("mem/{}/high_water_bytes", g.name), g.high_water_bytes as f64, max);
                upsert(format!("mem/{}/current_bytes", g.name), g.current_bytes as f64, last);
            }
            upsert("tree/depth_max".into(), f64::from(r.max_depth), max);
            for (phase, imb) in &r.skew {
                upsert(format!("skew/{phase}/imbalance"), *imb, max);
            }
            // Plan metrics are deterministic: batches/tasks sum to run
            // totals, extents keep the last round's resolution (what the
            // auto-tuner settled on), `auto` flags any tuned round.
            upsert("plan/batches".into(), r.plan.batches as f64, sum);
            upsert("plan/tasks".into(), r.plan.tasks as f64, sum);
            upsert("plan/row_blk".into(), r.plan.row_blk as f64, last);
            upsert("plan/node_blk".into(), r.plan.node_blk as f64, last);
            upsert("plan/feature_blk".into(), r.plan.feature_blk as f64, last);
            upsert("plan/bin_blk".into(), r.plan.bin_blk as f64, last);
            upsert("plan/auto".into(), f64::from(u8::from(r.plan.auto)), max);
            leaves_sum += f64::from(r.n_leaves);
            k_sum += r.mean_k_per_pop;
            latency.merge(&r.latency);
        }
        if !records.is_empty() {
            let n = records.len() as f64;
            m.push(("tree/leaves_mean".into(), leaves_sum / n));
            m.push(("tree/k_per_pop_mean".into(), k_sum / n));
        }
        // Whole-run latency tails: epoch histograms carry deltas, so the
        // merge reconstructs the run's full distribution. The `_ns` suffix
        // routes these through the timing tolerances in `DiffOptions`.
        for (name, hist) in &latency.0 {
            if hist.is_empty() {
                continue;
            }
            for (label, q) in [("p50", 0.5), ("p99", 0.99), ("p999", 0.999)] {
                m.push((format!("latency/{name}/{label}_ns"), hist.quantile(q) as f64));
            }
        }
        Self { rounds: records.len(), metrics: m }
    }

    /// Value of a named metric, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Renders the aggregate list as an aligned table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} rounds", self.rounds);
        for (name, v) in &self.metrics {
            let _ = writeln!(out, "{name:<42} {v:>16.6}");
        }
        out
    }
}

/// Tolerances for [`DiffReport`]. Relative deltas are
/// `|a − b| / max(|a|, |b|)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffOptions {
    /// Hard-fail threshold for deterministic metrics (counters, tree shape,
    /// eval, memory). `0.0` demands exact equality.
    pub tolerance: f64,
    /// Warn threshold applied to every metric (non-gating).
    pub warn: f64,
    /// Hard-fail threshold for timing metrics (`time/*`, `skew/*`, any
    /// `*_ns` counter) — noisy between runs, so gated separately.
    pub time_tolerance: f64,
    /// Timing metrics where both sides are below this many seconds are
    /// reported but never gated: relative error on sub-floor intervals is
    /// scheduler noise, not regression signal.
    pub time_floor_secs: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self { tolerance: 0.0, warn: 0.10, time_tolerance: 0.30, time_floor_secs: 0.05 }
    }
}

/// Outcome of comparing one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffStatus {
    /// Within the warn threshold (or below the timing floor).
    Pass,
    /// Beyond the warn threshold but within the fail threshold.
    Warn,
    /// Beyond the fail threshold — the gate trips.
    Fail,
    /// Present only in run A (informational).
    OnlyA,
    /// Present only in run B (informational).
    OnlyB,
}

impl DiffStatus {
    fn label(self) -> &'static str {
        match self {
            DiffStatus::Pass => "ok",
            DiffStatus::Warn => "WARN",
            DiffStatus::Fail => "FAIL",
            DiffStatus::OnlyA => "only-A",
            DiffStatus::OnlyB => "only-B",
        }
    }
}

/// One metric's A/B comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Metric name.
    pub metric: String,
    /// Value in run A (`NaN` when absent).
    pub a: f64,
    /// Value in run B (`NaN` when absent).
    pub b: f64,
    /// `|a − b| / max(|a|, |b|)`; `0` when both are zero.
    pub rel_delta: f64,
    /// Gate outcome.
    pub status: DiffStatus,
}

/// Metric-by-metric comparison of two runs (or two metric lists).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// One row per metric seen in either input, A's order first.
    pub rows: Vec<DiffRow>,
}

/// Whether a metric name denotes wall-clock time (gated by
/// `time_tolerance`, floored by `time_floor_secs`).
fn is_time_metric(name: &str) -> bool {
    name.starts_with("time/") || name.starts_with("skew/") || name.ends_with("_ns")
}

impl DiffReport {
    /// Compares two run summaries.
    pub fn between(a: &LedgerSummary, b: &LedgerSummary, opts: &DiffOptions) -> Self {
        Self::compare_metrics(&a.metrics, &b.metrics, opts)
    }

    /// Compares two named metric lists (the generic entry point, also used
    /// for bench-table JSON gating).
    pub fn compare_metrics(a: &[(String, f64)], b: &[(String, f64)], opts: &DiffOptions) -> Self {
        let mut rows = Vec::new();
        for (name, va) in a {
            match b.iter().find(|(n, _)| n == name) {
                Some((_, vb)) => rows.push(Self::judge(name, *va, *vb, opts)),
                None => rows.push(DiffRow {
                    metric: name.clone(),
                    a: *va,
                    b: f64::NAN,
                    rel_delta: 0.0,
                    status: DiffStatus::OnlyA,
                }),
            }
        }
        for (name, vb) in b {
            if !a.iter().any(|(n, _)| n == name) {
                rows.push(DiffRow {
                    metric: name.clone(),
                    a: f64::NAN,
                    b: *vb,
                    rel_delta: 0.0,
                    status: DiffStatus::OnlyB,
                });
            }
        }
        Self { rows }
    }

    fn judge(name: &str, a: f64, b: f64, opts: &DiffOptions) -> DiffRow {
        let scale = a.abs().max(b.abs());
        let rel = if scale == 0.0 { 0.0 } else { (a - b).abs() / scale };
        let time = is_time_metric(name);
        // Sub-floor timing intervals carry no regression signal.
        let floor =
            if name.ends_with("_ns") { opts.time_floor_secs * 1e9 } else { opts.time_floor_secs };
        let status = if time && scale < floor {
            DiffStatus::Pass
        } else {
            let fail_at = if time { opts.time_tolerance } else { opts.tolerance };
            if rel > fail_at && rel > opts.warn.min(fail_at) {
                // warn > fail would make Fail unreachable; fail wins.
                DiffStatus::Fail
            } else if rel > opts.warn {
                DiffStatus::Warn
            } else {
                DiffStatus::Pass
            }
        };
        DiffRow { metric: name.to_string(), a, b, rel_delta: rel, status }
    }

    /// Whether any metric tripped the hard gate.
    pub fn failed(&self) -> bool {
        self.rows.iter().any(|r| r.status == DiffStatus::Fail)
    }

    /// Whether any metric exceeded the warn threshold (including failures).
    pub fn warned(&self) -> bool {
        self.rows
            .iter()
            .any(|r| matches!(r.status, DiffStatus::Warn | DiffStatus::Fail))
    }

    /// Rows with the given status.
    pub fn with_status(&self, status: DiffStatus) -> impl Iterator<Item = &DiffRow> {
        self.rows.iter().filter(move |r| r.status == status)
    }

    /// Renders the comparison as an aligned table, worst rows first.
    pub fn render(&self) -> String {
        let mut order: Vec<&DiffRow> = self.rows.iter().collect();
        let rank = |s: DiffStatus| match s {
            DiffStatus::Fail => 0,
            DiffStatus::Warn => 1,
            DiffStatus::Pass => 2,
            DiffStatus::OnlyA | DiffStatus::OnlyB => 3,
        };
        order.sort_by(|x, y| {
            rank(x.status)
                .cmp(&rank(y.status))
                .then_with(|| y.rel_delta.total_cmp(&x.rel_delta))
        });
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<42} {:>16} {:>16} {:>9} {:>7}",
            "metric", "A", "B", "delta", "status"
        );
        let fmt_v = |v: f64| if v.is_nan() { "-".to_string() } else { format!("{v:.6}") };
        for r in order {
            let _ = writeln!(
                out,
                "{:<42} {:>16} {:>16} {:>8.1}% {:>7}",
                r.metric,
                fmt_v(r.a),
                fmt_v(r.b),
                r.rel_delta * 100.0,
                r.status.label()
            );
        }
        let fails = self.with_status(DiffStatus::Fail).count();
        let warns = self.with_status(DiffStatus::Warn).count();
        let _ = writeln!(out, "{} metrics, {fails} failed, {warns} warned", self.rows.len());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: u64, secs: f64, eval: Option<f64>) -> LedgerRecord {
        LedgerRecord {
            round,
            elapsed_secs: secs * round as f64,
            round_secs: secs,
            phase_secs: vec![("build_hist".into(), secs * 0.6), ("find_split".into(), secs * 0.2)],
            counters: vec![("scratch_allocs".into(), u64::from(round == 1)), ("tasks".into(), 40)],
            eval_metric: eval,
            n_leaves: 31 + round as u32,
            max_depth: 6,
            mean_k_per_pop: 8.0,
            mem: vec![
                MemGaugeRecord {
                    name: "hist_pool".into(),
                    current_bytes: 1000 * round,
                    high_water_bytes: 1000 * round,
                },
                MemGaugeRecord {
                    name: "membuf".into(),
                    current_bytes: 4096,
                    high_water_bytes: 4096,
                },
            ],
            skew: vec![("BuildHist".into(), 1.1)],
            plan: PlanStats {
                batches: 3,
                tasks: 24,
                row_blk: 500,
                node_blk: 4,
                feature_blk: 8,
                bin_blk: 0,
                auto: false,
            },
            latency: LatencySet::default(),
        }
    }

    #[test]
    fn jsonl_roundtrip_preserves_records() {
        let mut ledger = RunLedger::new();
        ledger.push(record(1, 0.010, None));
        ledger.push(record(2, 0.012, Some(0.913)));
        let text = ledger.to_jsonl();
        assert_eq!(text.lines().count(), 2, "one JSON line per round");
        let back = RunLedger::from_jsonl(&text).unwrap();
        assert_eq!(back, ledger);
        // Tolerates blank lines (trailing newline, hand-concatenated files).
        let padded = format!("\n{text}\n\n");
        assert_eq!(RunLedger::from_jsonl(&padded).unwrap(), ledger);
    }

    #[test]
    fn jsonl_rejects_garbage_with_line_number() {
        let err = RunLedger::from_jsonl("{\"round\": 1}\nnot json\n").unwrap_err();
        assert!(err.contains("line"), "error should locate the bad line: {err}");
    }

    #[test]
    fn file_roundtrip() {
        let mut ledger = RunLedger::new();
        ledger.push(record(1, 0.01, Some(0.9)));
        let path = std::env::temp_dir().join("harp_ledger_roundtrip_test.jsonl");
        ledger.write_jsonl(&path).unwrap();
        let back = RunLedger::read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, ledger);
    }

    #[test]
    fn summary_aggregation_rules() {
        let mut ledger = RunLedger::new();
        ledger.push(record(1, 0.010, Some(0.90)));
        ledger.push(record(2, 0.030, Some(0.95)));
        let s = ledger.summary();
        assert_eq!(s.rounds, 2);
        assert!((s.get("time/round_secs").unwrap() - 0.040).abs() < 1e-12, "times sum");
        assert!((s.get("time/build_hist_secs").unwrap() - 0.024).abs() < 1e-12);
        assert_eq!(s.get("counter/scratch_allocs").unwrap(), 1.0, "counters sum");
        assert_eq!(s.get("counter/tasks").unwrap(), 80.0);
        assert_eq!(s.get("eval/last").unwrap(), 0.95, "eval keeps the last value");
        assert_eq!(s.get("mem/hist_pool/high_water_bytes").unwrap(), 2000.0, "mem hw is max");
        assert_eq!(s.get("mem/hist_pool/current_bytes").unwrap(), 2000.0, "mem current is last");
        assert!((s.get("tree/leaves_mean").unwrap() - 32.5).abs() < 1e-12);
        assert_eq!(s.get("tree/depth_max").unwrap(), 6.0);
        assert_eq!(s.get("skew/BuildHist/imbalance").unwrap(), 1.1);
        assert_eq!(s.get("plan/batches").unwrap(), 6.0, "plan batches sum");
        assert_eq!(s.get("plan/tasks").unwrap(), 48.0, "plan tasks sum");
        assert_eq!(s.get("plan/feature_blk").unwrap(), 8.0, "extents keep the last value");
        assert_eq!(s.get("plan/auto").unwrap(), 0.0);
    }

    #[test]
    fn ledgers_without_plan_stats_still_parse() {
        // A pre-plan ledger line: every field but `plan`. It must load with
        // zeroed plan stats rather than failing the whole file.
        let mut ledger = RunLedger::new();
        ledger.push(record(1, 0.01, None));
        let line = ledger.to_jsonl();
        let start = line.find(",\"plan\":").expect("plan field serialized");
        let end = start + line[start..].find('}').expect("flat plan object") + 1;
        let stripped = format!("{}{}", &line[..start], &line[end..]);
        assert!(!stripped.contains("plan"));
        let back = RunLedger::from_jsonl(&stripped).unwrap();
        assert_eq!(back.records()[0].plan, PlanStats::default());
        assert_eq!(back.records()[0].round, 1);
    }

    #[test]
    fn diff_passes_identical_runs_at_zero_tolerance() {
        let mut ledger = RunLedger::new();
        ledger.push(record(1, 0.01, Some(0.9)));
        let s = ledger.summary();
        let d = DiffReport::between(&s, &s, &DiffOptions::default());
        assert!(!d.failed());
        assert!(!d.warned());
    }

    #[test]
    fn diff_fails_deterministic_metric_beyond_tolerance() {
        let a = vec![("counter/scratch_allocs".to_string(), 10.0)];
        let b = vec![("counter/scratch_allocs".to_string(), 13.0)];
        let opts = DiffOptions { tolerance: 0.10, ..Default::default() };
        let d = DiffReport::compare_metrics(&a, &b, &opts);
        assert!(d.failed(), "23% drift over a 10% tolerance must fail");
        // Widen the tolerance: same drift passes (warn threshold above it).
        let opts = DiffOptions { tolerance: 0.40, warn: 0.40, ..Default::default() };
        let d = DiffReport::compare_metrics(&a, &b, &opts);
        assert!(!d.failed());
        assert!(!d.warned());
    }

    #[test]
    fn diff_warns_between_warn_and_fail_thresholds() {
        let a = vec![("counter/tasks".to_string(), 100.0)];
        let b = vec![("counter/tasks".to_string(), 115.0)];
        let opts = DiffOptions { tolerance: 0.30, warn: 0.10, ..Default::default() };
        let d = DiffReport::compare_metrics(&a, &b, &opts);
        assert!(!d.failed());
        assert!(d.warned());
        assert_eq!(d.rows[0].status, DiffStatus::Warn);
    }

    #[test]
    fn diff_times_gate_separately_with_floor() {
        // 2x drift on a 4 ms phase: below the 50 ms floor, never gated.
        let a = vec![("time/build_hist_secs".to_string(), 0.004)];
        let b = vec![("time/build_hist_secs".to_string(), 0.008)];
        let d = DiffReport::compare_metrics(&a, &b, &DiffOptions::default());
        assert!(!d.failed());
        assert!(!d.warned());
        // Same drift above the floor trips the 30% time gate.
        let a = vec![("time/build_hist_secs".to_string(), 0.4)];
        let b = vec![("time/build_hist_secs".to_string(), 0.8)];
        let d = DiffReport::compare_metrics(&a, &b, &DiffOptions::default());
        assert!(d.failed());
        // Nanosecond counters use the same floor, scaled.
        let a = vec![("counter/barrier_wait_ns".to_string(), 1.0e6)];
        let b = vec![("counter/barrier_wait_ns".to_string(), 9.0e6)];
        let d = DiffReport::compare_metrics(&a, &b, &DiffOptions::default());
        assert!(!d.failed(), "9 ms of barrier wait is below the floor");
    }

    #[test]
    fn diff_reports_one_sided_metrics_without_gating() {
        let a = vec![("counter/tasks".to_string(), 5.0)];
        let b = vec![("counter/tasks".to_string(), 5.0), ("counter/queue_pops".to_string(), 42.0)];
        let d = DiffReport::compare_metrics(&a, &b, &DiffOptions::default());
        assert!(!d.failed(), "trace-only metrics must not gate a trace-off run");
        assert_eq!(d.with_status(DiffStatus::OnlyB).count(), 1);
    }

    #[test]
    fn diff_render_lists_fails_first() {
        let a = vec![("counter/ok".to_string(), 1.0), ("counter/bad".to_string(), 1.0)];
        let b = vec![("counter/ok".to_string(), 1.0), ("counter/bad".to_string(), 2.0)];
        let d = DiffReport::compare_metrics(&a, &b, &DiffOptions::default());
        let text = d.render();
        let first_data_line = text.lines().nth(1).unwrap();
        assert!(first_data_line.contains("counter/bad"), "worst row first:\n{text}");
        assert!(text.contains("1 failed"));
    }

    #[test]
    fn render_rounds_has_one_line_per_round() {
        let mut ledger = RunLedger::new();
        ledger.push(record(1, 0.01, None));
        ledger.push(record(2, 0.01, Some(0.9)));
        let table = ledger.render_rounds();
        assert_eq!(table.lines().count(), 3, "header + 2 rounds");
        assert!(table.contains("k/pop"));
    }
}
