//! Plain-HTTP `/metrics` exposition (Prometheus text format 0.0.4).
//!
//! A deliberately tiny, std-only HTTP/1.1 responder: one thread, one
//! request per connection, `GET /metrics` answered from a fresh
//! [`StatsSnapshot`], everything else 404. It shares the serve crate's
//! no-async discipline — the scrape path allocates one snapshot and one
//! response string, and never touches the scoring hot path (histograms
//! are read via relaxed loads).
//!
//! Exposition shape:
//!
//! * counters — `harp_serve_requests_total` and friends;
//! * gauges — generation, queue depth, uptime, model shape;
//! * histograms — `harp_serve_phase_latency_seconds{phase="..."}` with
//!   cumulative `le` buckets (log-linear edges from
//!   [`harp_metrics::histogram`], emitted sparsely: only edges whose
//!   cumulative count changes, plus `+Inf`), and
//!   `harp_serve_request_latency_seconds` for end-to-end.

use crate::server::ServerCtx;
use crate::stats::{Phase, ServeCounts, StatsSnapshot};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest request head we will buffer before answering 400.
const MAX_HEAD: usize = 8 * 1024;

/// Binds `addr` for [`spawn`]; returns the listener and the bound address
/// (resolving `:0` port picks).
pub(crate) fn bind(addr: &str) -> std::io::Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind(addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "bad metrics address")
    })?)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    Ok((listener, bound))
}

/// Spawns the exposition thread on a [`bind`]-bound listener. The thread
/// exits when the server's shutdown flag is set.
pub(crate) fn spawn(ctx: Arc<ServerCtx>, listener: TcpListener) -> std::io::Result<JoinHandle<()>> {
    crate::server::spawn("serve-metrics", move || exposition_loop(listener, ctx))
}

fn exposition_loop(listener: TcpListener, ctx: Arc<ServerCtx>) {
    while !ctx.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Serve inline: scrapes are rare (seconds apart) and the
                // response is small, so a thread per scrape buys nothing.
                let _ = answer(stream, &ctx);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
}

fn answer(mut stream: TcpStream, ctx: &ServerCtx) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_HEAD {
            return respond(&mut stream, "400 Bad Request", "text/plain", "oversized head\n");
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    let request_line = head.split(|&b| b == b'\r').next().unwrap_or(&[]);
    let mut parts = std::str::from_utf8(request_line).unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return respond(&mut stream, "405 Method Not Allowed", "text/plain", "GET only\n");
    }
    match path {
        "/metrics" => {
            let body = render_prometheus(&ctx.snapshot());
            respond(&mut stream, "200 OK", "text/plain; version=0.0.4", &body)
        }
        _ => respond(&mut stream, "404 Not Found", "text/plain", "try /metrics\n"),
    }
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

fn gauge(out: &mut String, name: &str, help: &str, value: f64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// One histogram series: cumulative `le` buckets (seconds) + sum + count.
/// `labels` is either empty or a rendered `{phase="..."}` selector.
fn histogram_series(
    out: &mut String,
    name: &str,
    labels: &str,
    hist: &harp_metrics::HistogramSnapshot,
) {
    let mut cum = 0u64;
    for (upper_ns, count) in hist.nonzero_buckets() {
        cum += count;
        let le = upper_ns as f64 / 1e9;
        let sep = if labels.is_empty() { "" } else { "," };
        let inner = labels.trim_start_matches('{').trim_end_matches('}');
        let _ = writeln!(out, "{name}_bucket{{{inner}{sep}le=\"{le}\"}} {cum}");
    }
    let inner = labels.trim_start_matches('{').trim_end_matches('}');
    let sep = if labels.is_empty() { "" } else { "," };
    let _ = writeln!(out, "{name}_bucket{{{inner}{sep}le=\"+Inf\"}} {}", hist.count());
    let _ = writeln!(out, "{name}_sum{labels} {}", hist.sum() as f64 / 1e9);
    let _ = writeln!(out, "{name}_count{labels} {}", hist.count());
}

/// Renders a snapshot as Prometheus text exposition.
///
/// Histogram `le` edges are the log-linear bucket uppers converted to
/// seconds; only edges with samples are emitted (plus `+Inf`), which the
/// exposition format permits — cumulative counts stay monotone.
pub fn render_prometheus(snap: &StatsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    for ((name, value), help) in snap.counters.named().into_iter().zip(ServeCounts::HELP) {
        counter(&mut out, &format!("harp_serve_{name}_total"), help, value);
    }
    gauge(
        &mut out,
        "harp_serve_generation",
        "Generation of the forest being served.",
        snap.generation as f64,
    );
    gauge(&mut out, "harp_serve_queue_depth", "Jobs queued for dispatch.", snap.queue_depth as f64);
    gauge(
        &mut out,
        "harp_serve_uptime_seconds",
        "Seconds since the server started.",
        snap.uptime_secs,
    );
    gauge(
        &mut out,
        "harp_serve_model_features",
        "Feature count of the forest being served.",
        snap.n_features as f64,
    );
    gauge(
        &mut out,
        "harp_serve_model_groups",
        "Score groups per row of the forest being served.",
        snap.n_groups as f64,
    );

    let phase_name = "harp_serve_phase_latency_seconds";
    let _ = writeln!(out, "# HELP {phase_name} Server-side per-phase latency.");
    let _ = writeln!(out, "# TYPE {phase_name} histogram");
    let e2e = Phase::EndToEnd.name();
    for (name, hist) in snap.latency.0.iter().filter(|(name, _)| name != e2e) {
        histogram_series(&mut out, phase_name, &format!("{{phase=\"{name}\"}}"), hist);
    }
    let e2e_name = "harp_serve_request_latency_seconds";
    let _ = writeln!(out, "# HELP {e2e_name} Admission-to-scored-reply latency.");
    let _ = writeln!(out, "# TYPE {e2e_name} histogram");
    histogram_series(&mut out, e2e_name, "", &snap.latency.get(e2e).cloned().unwrap_or_default());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ServeStats;

    fn snapshot_with_traffic() -> StatsSnapshot {
        let s = ServeStats::default();
        ServeStats::bump(&s.counters.requests);
        s.counters.rows.fetch_add(64, Ordering::Relaxed);
        s.record(Phase::Predict, 1_500_000);
        s.record(Phase::Predict, 2_500_000);
        s.record(Phase::QueueWait, 10_000);
        s.record(Phase::Assemble, 5_000);
        s.record(Phase::Write, 7_000);
        s.record(Phase::EndToEnd, 3_000_000);
        s.snapshot(7, 28, 1, 12.5)
    }

    #[test]
    fn exposition_contains_every_family_and_cumulative_buckets() {
        let text = render_prometheus(&snapshot_with_traffic());
        for family in [
            "harp_serve_requests_total 1",
            "harp_serve_rows_total 64",
            "harp_serve_generation 7",
            "harp_serve_uptime_seconds 12.5",
            "harp_serve_queue_depth 0",
            "# TYPE harp_serve_phase_latency_seconds histogram",
            "# TYPE harp_serve_request_latency_seconds histogram",
            "harp_serve_request_latency_seconds_count 1",
        ] {
            assert!(text.contains(family), "missing {family:?} in:\n{text}");
        }
        for phase in ["queue_wait", "assemble", "predict", "write"] {
            let needle = format!("harp_serve_phase_latency_seconds_bucket{{phase=\"{phase}\"");
            assert!(text.contains(&needle), "missing {needle:?} in:\n{text}");
        }
        // predict saw two samples: its +Inf bucket must read 2 and the
        // first `le` bucket must be below it (cumulative, monotone).
        assert!(text.contains("harp_serve_phase_latency_seconds_count{phase=\"predict\"} 2"));
        let predict_buckets: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("harp_serve_phase_latency_seconds_bucket{phase=\"predict\""))
            .collect();
        assert!(predict_buckets.len() >= 3, "two samples + +Inf: {predict_buckets:?}");
        let counts: Vec<u64> = predict_buckets
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "not cumulative: {counts:?}");
        assert_eq!(*counts.last().unwrap(), 2);
    }

    /// Every family, name, HELP line, order and value, byte for byte as
    /// recorded before the counters and phases became tables
    /// (`testdata/exposition.prom`), over fixed counts and samples.
    #[test]
    fn exposition_matches_the_recorded_golden_text() {
        let s = ServeStats::default();
        let c = &s.counters;
        for (counter, n) in [
            (&c.requests, 5),
            (&c.rows, 320),
            (&c.batches, 3),
            (&c.sheds, 2),
            (&c.protocol_errors, 1),
            (&c.swaps, 4),
            (&c.connections, 6),
            (&s.queue_depth, 2),
        ] {
            counter.fetch_add(n, Ordering::Relaxed);
        }
        for (phase, samples) in [
            (Phase::EndToEnd, &[3_000_000, 4_500_000, 120_000_000][..]),
            (Phase::QueueWait, &[10_000, 250_000]),
            (Phase::Assemble, &[5_000, 6_000, 700_000]),
            (Phase::Predict, &[1_500_000, 2_500_000]),
            (Phase::Write, &[7_000, 11]),
        ] {
            for &ns in samples {
                s.record(phase, ns);
            }
        }
        let text = render_prometheus(&s.snapshot(7, 28, 3, 12.5));
        assert_eq!(text, include_str!("../testdata/exposition.prom"));
    }

    #[test]
    fn empty_snapshot_still_exposes_families() {
        let text = render_prometheus(&StatsSnapshot::default());
        assert!(text.contains("harp_serve_requests_total 0"));
        assert!(text.contains("harp_serve_request_latency_seconds_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("harp_serve_request_latency_seconds_count 0"));
    }
}
