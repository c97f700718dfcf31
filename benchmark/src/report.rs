//! What a run reports: named metrics with units, and the operation tally.

use crate::stats::Summary;
use std::fmt::Write as _;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Summary,
}

impl Metric {
    /// A metric measured once.
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value: Summary::single(value) }
    }
}

/// Operations attempted and failed: one per boosting round, per scoring
/// pass and per correctness check.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one operation; a failed one is described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }
}

/// Aligned `name value unit [q1 .. q3] n` rows.
pub fn render_table(metrics: &[Metric]) -> String {
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for m in metrics {
        let v = &m.value;
        let _ = write!(out, "{:<width$}  {:>14.6} {:<8}", m.name, v.median, m.unit);
        if v.n > 1 {
            let _ = write!(out, " [q1 {:.6} .. q3 {:.6}] n={}", v.q1, v.q3, v.n);
        }
        out.push('\n');
    }
    out
}

/// Whether the run's outputs were right: no op failed and every metric
/// came out as a finite number.
pub fn is_correct(metrics: &[Metric], ops: &Ops) -> bool {
    ops.failed == 0 && metrics.iter().all(|m| m.value.median.is_finite())
}

/// The result line the driver reads: one JSON object, last on stdout.
/// Non-finite values are reported as a failed run rather than printed.
pub fn result_json(metrics: &[Metric], ops: &Ops) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        is_correct(metrics, ops),
        ops.attempted.max(1),
        ops.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.median.is_finite() { m.value.median } else { -1.0 };
        // `{:?}` keeps every digit that round-trips and a `.0` on integers.
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let repeated = Metric { name: "x", unit: "ms", value: Summary::of(&[1.0, 3.0]) };
        let metrics = [Metric::single("setup_s", "s", 0.25), repeated];
        let mut ops = Ops::default();
        ops.check(true, || unreachable!());
        let line = result_json(&metrics, &ops);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"x\": {\"value\": 2.0, \"unit\": \"ms\"}}}"
        );
        ops.check(false, || "boom".into());
        assert!(result_json(&metrics, &ops)
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    fn non_finite_metric_marks_the_run_incorrect() {
        let metrics = [Metric::single("x", "ms", f64::NAN)];
        assert!(result_json(&metrics, &Ops::default()).contains("\"correct\": false"));
    }

    #[test]
    fn table_shows_quartiles_only_for_repeated_measurements() {
        let repeated = Metric { name: "bb", unit: "s", value: Summary::of(&[1.0, 2.0, 3.0]) };
        let t = render_table(&[Metric::single("a", "s", 1.0), repeated]);
        let lines: Vec<_> = t.lines().collect();
        assert!(!lines[0].contains("q1"));
        assert!(lines[1].contains("n=3"));
    }
}
