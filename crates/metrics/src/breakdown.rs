//! Per-phase wall-time attribution for tree construction.
//!
//! Fig. 4 of the paper decomposes per-tree training time into the three core
//! functions of Algorithm 1 — BuildHist, FindSplit, ApplySplit — and shows
//! BuildHist growing as O(2^D) in the baselines where the serial algorithm
//! predicts O(D). A [`BreakdownReport`] is that decomposition in seconds: the
//! trainer derives it from a read of its phase clock (`harp-parallel`'s
//! `PhaseClock`), harnesses take one per tree-size setting and normalize.

use serde::Serialize;

/// Seconds per core phase (plus everything else, e.g. gradient computation
/// and leaf updates) — a plain view, so this crate stays independent of the
/// parallel runtime that keeps the clock.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct BreakdownReport {
    /// BuildHist seconds.
    pub build_hist_secs: f64,
    /// FindSplit seconds.
    pub find_split_secs: f64,
    /// ApplySplit seconds.
    pub apply_split_secs: f64,
    /// Predict (batch scoring) seconds.
    pub predict_secs: f64,
    /// Unattributed seconds.
    pub other_secs: f64,
}

impl BreakdownReport {
    /// From nanosecond totals in field order: BuildHist, FindSplit,
    /// ApplySplit, Predict, other.
    pub fn from_ns(ns: [u64; 5]) -> Self {
        let [build_hist_secs, find_split_secs, apply_split_secs, predict_secs, other_secs] =
            ns.map(|v| v as f64 / 1e9);
        Self { build_hist_secs, find_split_secs, apply_split_secs, predict_secs, other_secs }
    }

    /// Total attributed seconds.
    pub fn total(&self) -> f64 {
        self.build_hist_secs
            + self.find_split_secs
            + self.apply_split_secs
            + self.predict_secs
            + self.other_secs
    }

    /// Fraction of total time spent in BuildHist (the paper's hotspot
    /// statistic: 90% for LightGBM, 60% for XGBoost at D8).
    pub fn build_hist_share(&self) -> f64 {
        let total = self.total();
        if total == 0.0 {
            0.0
        } else {
            self.build_hist_secs / total
        }
    }

    /// `(name, seconds)` view in field order, under the names run ledgers
    /// carry in `phase_secs`.
    pub fn named(&self) -> [(&'static str, f64); 5] {
        [
            ("build_hist", self.build_hist_secs),
            ("find_split", self.find_split_secs),
            ("apply_split", self.apply_split_secs),
            ("predict", self.predict_secs),
            ("other", self.other_secs),
        ]
    }
}

impl std::fmt::Display for BreakdownReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BuildHist {:.3}s ({:.0}%) | FindSplit {:.3}s | ApplySplit {:.3}s | Predict {:.3}s | other {:.3}s",
            self.build_hist_secs,
            self.build_hist_share() * 100.0,
            self.find_split_secs,
            self.apply_split_secs,
            self.predict_secs,
            self.other_secs
        )
    }
}

/// Per-phase worker-level busy time and skew — the table the paper reads off
/// VTune's per-thread timeline to diagnose load imbalance in the SYNC/ASYNC
/// schedulers.
///
/// Constructed from plain `(phase name, per-worker ns)` rows (the span
/// ledger's aggregate counters) so this crate stays independent of the
/// parallel runtime.
#[derive(Debug, Clone, Default, Serialize)]
pub struct WorkerSkewReport {
    /// One row per phase that saw any work.
    pub rows: Vec<PhaseSkewRow>,
}

/// One phase's per-worker busy time distribution.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseSkewRow {
    /// Phase name (BuildHist, FindSplit, ...).
    pub phase: String,
    /// Busy seconds per worker lane.
    pub per_worker_secs: Vec<f64>,
    /// Busiest lane.
    pub max_secs: f64,
    /// Least-busy lane.
    pub min_secs: f64,
    /// Mean over lanes.
    pub mean_secs: f64,
    /// max / min busy ratio (∞-safe: 0 when min is 0 and max is 0, reported
    /// as `f64::INFINITY` when only min is 0). 1.0 = perfectly balanced.
    pub max_min_ratio: f64,
    /// max / mean — the slowdown a barrier at the end of this phase costs
    /// relative to perfect balance.
    pub imbalance: f64,
}

impl WorkerSkewReport {
    /// Builds the table from `(phase name, per-worker nanoseconds)` rows.
    /// Phases with no recorded time anywhere are dropped.
    pub fn from_phase_ns<S: AsRef<str>>(rows: &[(S, Vec<u64>)]) -> Self {
        let rows = rows
            .iter()
            .filter(|(_, ns)| !ns.is_empty() && ns.iter().any(|&v| v > 0))
            .map(|(name, ns)| {
                let secs: Vec<f64> = ns.iter().map(|&v| v as f64 / 1e9).collect();
                let max = secs.iter().cloned().fold(0.0f64, f64::max);
                let min = secs.iter().cloned().fold(f64::INFINITY, f64::min);
                let mean = secs.iter().sum::<f64>() / secs.len() as f64;
                PhaseSkewRow {
                    phase: name.as_ref().to_string(),
                    max_secs: max,
                    min_secs: min,
                    mean_secs: mean,
                    max_min_ratio: if max == 0.0 {
                        0.0
                    } else if min == 0.0 {
                        f64::INFINITY
                    } else {
                        max / min
                    },
                    imbalance: if mean == 0.0 { 0.0 } else { max / mean },
                    per_worker_secs: secs,
                }
            })
            .collect();
        Self { rows }
    }
}

impl std::fmt::Display for WorkerSkewReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<12} {:>10} {:>10} {:>10} {:>9} {:>9}",
            "phase", "max ms", "min ms", "mean ms", "max/min", "max/mean"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} {:>10.2} {:>10.2} {:>10.2} {:>9} {:>9.2}",
                r.phase,
                r.max_secs * 1e3,
                r.min_secs * 1e3,
                r.mean_secs * 1e3,
                if r.max_min_ratio.is_finite() {
                    format!("{:.2}", r.max_min_ratio)
                } else {
                    "inf".to_string()
                },
                r.imbalance
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_converts_ns_to_secs() {
        let r = BreakdownReport::from_ns([2_500_000_000, 500_000_000, 0, 0, 0]);
        assert!((r.build_hist_secs - 2.5).abs() < 1e-12);
        assert!((r.total() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn build_hist_share() {
        let r = BreakdownReport::from_ns([900, 0, 0, 0, 100]);
        assert!((r.build_hist_share() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_share_is_zero() {
        assert_eq!(BreakdownReport::default().build_hist_share(), 0.0);
    }

    #[test]
    fn predict_phase_is_tracked() {
        let r = BreakdownReport::from_ns([0, 0, 0, 1_500_000_000, 0]);
        assert!((r.predict_secs - 1.5).abs() < 1e-12);
        assert!((r.total() - 1.5).abs() < 1e-12);
        assert!(format!("{r}").contains("Predict 1.500s"));
    }

    #[test]
    fn named_view_lists_every_phase_once_and_sums_to_total() {
        let r = BreakdownReport {
            build_hist_secs: 2.5,
            find_split_secs: 0.5,
            apply_split_secs: 0.25,
            predict_secs: 0.125,
            other_secs: 1.0,
        };
        let named = r.named();
        let names: Vec<&str> = named.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["build_hist", "find_split", "apply_split", "predict", "other"]);
        assert!((named.iter().map(|(_, v)| v).sum::<f64>() - r.total()).abs() < 1e-12);
    }

    #[test]
    fn skew_report_computes_ratios_and_drops_empty_phases() {
        let rows = vec![
            ("BuildHist", vec![4_000_000_000u64, 2_000_000_000, 2_000_000_000, 0]),
            ("FindSplit", vec![0, 0, 0, 0]),
            ("ApplySplit", vec![1_000_000_000, 1_000_000_000, 1_000_000_000, 1_000_000_000]),
        ];
        let r = WorkerSkewReport::from_phase_ns(&rows);
        assert_eq!(r.rows.len(), 2, "all-zero phases are dropped");
        let bh = &r.rows[0];
        assert_eq!(bh.phase, "BuildHist");
        assert!((bh.max_secs - 4.0).abs() < 1e-12);
        assert_eq!(bh.min_secs, 0.0);
        assert!(bh.max_min_ratio.is_infinite());
        assert!((bh.imbalance - 2.0).abs() < 1e-12);
        let ap = &r.rows[1];
        assert!((ap.max_min_ratio - 1.0).abs() < 1e-12);
        assert!((ap.imbalance - 1.0).abs() < 1e-12);
        // Display renders one line per surviving phase plus the header.
        let text = format!("{r}");
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("max/min"));
    }
}
