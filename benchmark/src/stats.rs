//! Order statistics for reported values.

/// Percentile `q` in `[0, 1]` of `values`, linearly interpolated between
/// the two nearest order statistics (numpy's default). `NaN` for an empty
/// slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// A reported value: the median of a set of runs with its quartiles and the
/// run count, so a reader sees the spread behind every number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        Self {
            median: median(values),
            q1: percentile(values, 0.25),
            q3: percentile(values, 0.75),
            n: values.len(),
        }
    }

    /// A value measured once (counts, ratios of totals).
    pub fn single(value: f64) -> Self {
        Self { median: value, q1: value, q3: value, n: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.25), 1.75);
        assert_eq!(percentile(&v, 0.75), 3.25);
        assert_eq!(median(&[5.0, 9.0, 7.0]), 7.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        // Out-of-range quantiles clamp instead of indexing out of bounds.
        assert_eq!(percentile(&[1.0, 2.0], 7.0), 2.0);
    }

    #[test]
    fn summary_carries_quartiles_and_count() {
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(s, Summary { median: 30.0, q1: 20.0, q3: 40.0, n: 5 });
        assert_eq!(Summary::single(2.0), Summary { median: 2.0, q1: 2.0, q3: 2.0, n: 1 });
    }
}
