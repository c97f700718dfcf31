//! Per-iteration convergence recording.
//!
//! §V-A4 of the paper: "training time to achieve the same highest accuracy
//! when training with 1000 trees is used as the performance metric and
//! Convergence Speedup is defined as the ratio of this metric on two
//! systems." [`ConvergenceTrace::time_to_reach`] implements the inner
//! statistic; a Convergence Speedup is the ratio of two such times.

use serde::Serialize;

/// One recorded evaluation point.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ConvergencePoint {
    /// Boosting iteration (number of trees built so far).
    pub iteration: usize,
    /// Cumulative training wall time in seconds.
    pub elapsed_secs: f64,
    /// Metric value (e.g. validation AUC) at this point.
    pub metric: f64,
}

/// An ordered series of evaluation points for one training run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ConvergenceTrace {
    points: Vec<ConvergencePoint>,
    /// Whether larger metric values are better (true for AUC, false for
    /// log-loss).
    pub higher_is_better: bool,
}

impl ConvergenceTrace {
    /// Creates an empty trace; `higher_is_better` selects the comparison
    /// direction for [`best`](Self::best) and
    /// [`time_to_reach`](Self::time_to_reach).
    pub fn new(higher_is_better: bool) -> Self {
        Self { points: Vec::new(), higher_is_better }
    }

    /// Appends one evaluation point.
    ///
    /// # Panics
    /// Panics if iterations or times go backwards.
    pub fn record(&mut self, iteration: usize, elapsed_secs: f64, metric: f64) {
        if let Some(last) = self.points.last() {
            assert!(iteration >= last.iteration, "iterations must be non-decreasing");
            assert!(elapsed_secs >= last.elapsed_secs, "time must be non-decreasing");
        }
        self.points.push(ConvergencePoint { iteration, elapsed_secs, metric });
    }

    /// All recorded points.
    pub fn points(&self) -> &[ConvergencePoint] {
        &self.points
    }

    /// The best metric value seen, or `None` if empty.
    pub fn best(&self) -> Option<f64> {
        let iter = self.points.iter().map(|p| p.metric);
        if self.higher_is_better {
            iter.fold(None, |acc, m| Some(acc.map_or(m, |a: f64| a.max(m))))
        } else {
            iter.fold(None, |acc, m| Some(acc.map_or(m, |a: f64| a.min(m))))
        }
    }

    /// The earliest elapsed time at which the trace reached `target`
    /// (`>= target` if higher is better, else `<=`). `None` if never reached.
    pub fn time_to_reach(&self, target: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| if self.higher_is_better { p.metric >= target } else { p.metric <= target })
            .map(|p| p.elapsed_secs)
    }

    /// Total recorded training time (elapsed time of the last point).
    pub fn total_time(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.elapsed_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(points: &[(usize, f64, f64)]) -> ConvergenceTrace {
        let mut t = ConvergenceTrace::new(true);
        for &(i, s, m) in points {
            t.record(i, s, m);
        }
        t
    }

    #[test]
    fn best_takes_direction_into_account() {
        let t = trace(&[(1, 0.1, 0.6), (2, 0.2, 0.8), (3, 0.3, 0.7)]);
        assert_eq!(t.best(), Some(0.8));
        let mut lower = ConvergenceTrace::new(false);
        lower.record(1, 0.1, 0.6);
        lower.record(2, 0.2, 0.3);
        assert_eq!(lower.best(), Some(0.3));
    }

    #[test]
    fn time_to_reach_finds_first_crossing() {
        let t = trace(&[(1, 1.0, 0.5), (2, 2.0, 0.7), (3, 3.0, 0.7), (4, 4.0, 0.9)]);
        assert_eq!(t.time_to_reach(0.7), Some(2.0));
        assert_eq!(t.time_to_reach(0.95), None);
    }

    #[test]
    fn empty_trace_behaviour() {
        let t = ConvergenceTrace::new(true);
        assert_eq!(t.best(), None);
        assert_eq!(t.total_time(), 0.0);
        assert_eq!(t.time_to_reach(0.5), None);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn backwards_time_panics() {
        let mut t = ConvergenceTrace::new(true);
        t.record(1, 2.0, 0.5);
        t.record(2, 1.0, 0.6);
    }

    #[test]
    fn total_time_is_last_point() {
        let t = trace(&[(1, 1.5, 0.5), (2, 3.5, 0.6)]);
        assert_eq!(t.total_time(), 3.5);
    }
}
