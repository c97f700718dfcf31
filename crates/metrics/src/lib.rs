//! Evaluation metrics and measurement plumbing for the HarpGBDT experiments.
//!
//! * [`auc`], [`log_loss`], [`error_rate`], [`rmse`] — the accuracy metrics
//!   used in §V (AUC is the paper's headline accuracy measure).
//! * [`ConvergenceTrace`] — per-iteration metric/time recording, the
//!   series the paper's *Convergence Speedup* is read from.
//! * [`BreakdownReport`] — per-phase wall-time attribution (BuildHist /
//!   FindSplit / ApplySplit), the quantity plotted in Fig. 4.
//! * [`RunLedger`] — the per-round JSON-lines run ledger: phase-time deltas,
//!   profile-counter deltas, eval metric, tree shape, worker skew, and
//!   the [`MemTable`] of byte gauges; [`DiffReport`] compares two runs with
//!   tolerance thresholds for regression gating.
//! * [`AtomicHistogram`] / [`HistogramSnapshot`] — wait-free log-bucketed
//!   latency histograms with quantile readout and a compact serde
//!   encoding; [`parse_slo`] / [`evaluate_slo`] judge recorded tails
//!   against absolute budgets (the `report --slo` CI gate).

mod breakdown;
mod convergence;
mod eval;
pub mod histogram;
mod ledger;
mod memory;
mod ranking;
mod slo;

pub use breakdown::{BreakdownReport, PhaseSkewRow, WorkerSkewReport};
pub use convergence::{ConvergencePoint, ConvergenceTrace};
pub use eval::{
    auc, error_rate, huber_loss, log_loss, multiclass_error, multiclass_log_loss, pinball_loss,
    rmse, tweedie_deviance,
};
pub use histogram::{AtomicHistogram, HistogramSnapshot, LatencySet};
pub use ledger::{
    DiffOptions, DiffReport, DiffRow, DiffStatus, LedgerRecord, LedgerSummary, PlanStats, RunLedger,
};
pub use memory::{gauges, MemGauge, MemGaugeRecord, MemTable};
pub use ranking::ndcg_at_k;
pub use slo::{evaluate_slo, parse_slo, SloReport, SloRow, SloSpec};
