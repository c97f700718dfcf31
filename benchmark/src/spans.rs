//! In-memory spans recorded by the harness around its calls into each layer.
//!
//! Nothing inside the measured crates is instrumented: a span here is "the
//! harness called this public function", with the span that caused it as
//! parent. Spans live in a `Vec` until the run ends and are then written as
//! a chrome-trace file (`chrome://tracing`, Perfetto).

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` at top level.
    pub parent: Option<usize>,
}

/// Records spans when enabled; times calls either way.
pub struct Recorder {
    t0: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self { t0: Instant::now(), enabled, spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span whose parent is the innermost open one; `None` with
    /// recording off. For a caller whose body cannot be handed to
    /// [`timed`](Self::timed) as a closure; pair with [`close`](Self::close).
    pub fn open(&mut self, name: &str) -> Option<usize> {
        self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: self.t0.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        })
    }

    /// Closes the span [`open`](Self::open) returned; spans close innermost
    /// first.
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            debug_assert_eq!(self.open.last(), Some(&i), "spans must close innermost first");
            self.spans[i].end_ns = self.t0.elapsed().as_nanos() as u64;
            self.open.pop();
        }
    }

    /// Runs `f` as a span, returning its result and wall seconds. With
    /// recording off the only cost is the two clock reads every caller needs
    /// for its own metric anyway.
    pub fn timed<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let span = self.open(name);
        let out = f();
        self.close(span);
        (out, start.elapsed().as_secs_f64())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders `spans` as chrome-trace JSON. Every event carries the workload
/// as its category plus its parent index and self time; `metadata` holds
/// the host fingerprint as `(key, value)` strings.
pub fn chrome_trace(spans: &[Span], workload: &str, metadata: &[(String, String)]) -> String {
    let self_ns = self_times_ns(spans);
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3}}}}}",
            json_escape(&s.name),
            json_escape(workload),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            self_ns[i] as f64 / 1e3,
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("],\"displayTimeUnit\":\"ms\",\"metadata\":{");
    for (i, (k, v)) in metadata.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\"{}\":\"{}\"", json_escape(k), json_escape(v));
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 70, Some(0)),
            // Nested under `a`: reduces a's self time, not root's.
            span("a.inner", 15, 25, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let spans = [
            span("root", 100, 200, None),
            span("x", 110, 150, Some(0)),
            span("y", 140, 180, Some(0)),
            // Starts before and ends after the parent: only 100..200 counts,
            // and that is already covered up to 180.
            span("z", 50, 400, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 0);
        let spans = [span("root", 100, 200, None), span("z", 50, 120, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 80);
    }

    #[test]
    fn recorder_nests_spans_and_stays_empty_when_disabled() {
        let mut rec = Recorder::new(true);
        let outer = rec.open("outer");
        let (v, secs) = rec.timed("inner", || 7);
        rec.timed("inner2", || ());
        rec.close(outer);
        rec.timed("next", || ());
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        let parents: Vec<_> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));

        let mut off = Recorder::new(false);
        let outer = off.open("outer");
        assert_eq!(off.timed("inner", || 3).0, 3);
        off.close(outer);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_escapes_and_lists_every_span() {
        let spans = [span("a\"b", 0, 2000, None), span("c", 500, 1500, Some(0))];
        let text = chrome_trace(&spans, "w", &[("rustc".into(), "1.0 \"x\"".into())]);
        assert!(text.contains("\"name\":\"a\\\"b\""));
        assert!(text.contains("\"parent\":0"));
        assert!(text.contains("\"self_us\":1.000"));
        assert!(text.contains("\"rustc\":\"1.0 \\\"x\\\"\""));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
    }
}
