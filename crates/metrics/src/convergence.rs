//! Per-iteration convergence recording.
//!
//! §V-A4 of the paper: "training time to achieve the same highest accuracy
//! when training with 1000 trees is used as the performance metric and
//! Convergence Speedup is defined as the ratio of this metric on two
//! systems." [`ConvergenceTrace`] records the series that statistic is
//! read from.

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

/// An ordered series of evaluation points for one training run, and the
/// one record of its best point: the first point is the best until a later
/// one is strictly better in the metric's direction (a tie keeps the
/// earlier round, and a NaN never becomes the best after the first point).
#[derive(Debug, Clone, Default)]
pub struct ConvergenceTrace {
    points: Vec<ConvergencePoint>,
    /// Whether larger metric values are better (true for AUC, false for
    /// log-loss).
    pub higher_is_better: bool,
    /// Index of the best point in `points`.
    best: usize,
}

impl ConvergenceTrace {
    /// Creates an empty trace; `higher_is_better` selects the comparison
    /// direction for [`best`](Self::best).
    pub fn new(higher_is_better: bool) -> Self {
        Self { points: Vec::new(), higher_is_better, best: 0 }
    }

    /// Appends one evaluation point and reports whether it is the new best.
    ///
    /// # Panics
    /// Panics if iterations or times go backwards.
    pub fn record(&mut self, iteration: usize, elapsed_secs: f64, metric: f64) -> bool {
        let improved = match self.best_point() {
            None => true,
            Some(best) if self.higher_is_better => metric > best.metric,
            Some(best) => metric < best.metric,
        };
        if let Some(last) = self.points.last() {
            assert!(iteration >= last.iteration, "iterations must be non-decreasing");
            assert!(elapsed_secs >= last.elapsed_secs, "time must be non-decreasing");
        }
        self.points.push(ConvergencePoint { iteration, elapsed_secs, metric });
        if improved {
            self.best = self.points.len() - 1;
        }
        improved
    }

    /// All recorded points.
    pub fn points(&self) -> &[ConvergencePoint] {
        &self.points
    }

    /// The best point, or `None` if empty. Its `elapsed_secs` is the
    /// training time to reach the best held-out metric (§V-A4).
    pub fn best_point(&self) -> Option<&ConvergencePoint> {
        self.points.get(self.best)
    }

    /// The best metric value seen, or `None` if empty.
    pub fn best(&self) -> Option<f64> {
        self.best_point().map(|p| p.metric)
    }

    /// Evaluations recorded after the best point (0 if empty).
    pub fn evals_since_best(&self) -> usize {
        self.points.len().saturating_sub(self.best + 1)
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
    fn empty_trace_behaviour() {
        let t = ConvergenceTrace::new(true);
        assert_eq!(t.best(), None);
        assert_eq!(t.total_time(), 0.0);
        assert_eq!(t.evals_since_best(), 0);
    }

    #[test]
    fn the_first_point_is_best_until_a_later_one_is_strictly_better() {
        let mut t = ConvergenceTrace::new(false);
        assert!(t.record(1, 0.1, 0.5), "the first point is the best");
        assert!(!t.record(2, 0.2, 0.5), "a tie keeps the earlier round");
        assert!(!t.record(3, 0.3, f64::NAN), "a NaN is never better");
        assert_eq!((t.best_point().map(|p| p.iteration), t.evals_since_best()), (Some(1), 2));
        assert!(t.record(4, 0.4, 0.4));
        assert_eq!((t.best_point().map(|p| p.iteration), t.evals_since_best()), (Some(4), 0));
        assert!(!t.record(5, 0.5, 0.45));
        assert_eq!((t.best(), t.best_point().map(|p| p.elapsed_secs)), (Some(0.4), Some(0.4)));
        assert_eq!(t.evals_since_best(), 1);
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
