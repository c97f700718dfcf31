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
use crate::stats::StatsSnapshot;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest request head we will buffer before answering 400.
const MAX_HEAD: usize = 8 * 1024;

/// Binds `addr` and spawns the exposition thread; returns the bound
/// address (resolving `:0` port picks) and the join handle. The thread
/// exits when the server's shutdown flag is set.
pub(crate) fn spawn(
    ctx: Arc<ServerCtx>,
    addr: &str,
) -> std::io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "bad metrics address")
    })?)?;
    let bound = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let handle = std::thread::Builder::new()
        .name("serve-metrics".into())
        .spawn(move || exposition_loop(listener, ctx))
        .expect("spawn metrics thread");
    Ok((bound, handle))
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
    for (name, help, value) in snap.counters() {
        counter(&mut out, &format!("harp_serve_{name}_total"), help, value);
    }
    gauge(
        &mut out,
        "harp_serve_generation",
        "Generation of the forest being served.",
        snap.generation as f64,
    );
    gauge(
        &mut out,
        "harp_serve_queue_depth",
        "Jobs queued for dispatch.",
        snap.queue_depth.unwrap_or(0) as f64,
    );
    gauge(
        &mut out,
        "harp_serve_uptime_seconds",
        "Seconds since the server started.",
        snap.uptime_secs.unwrap_or(0.0),
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
    for (name, hist) in &snap.latency.0 {
        if name == "end_to_end" {
            continue;
        }
        histogram_series(&mut out, phase_name, &format!("{{phase=\"{name}\"}}"), hist);
    }
    let e2e_name = "harp_serve_request_latency_seconds";
    let _ = writeln!(out, "# HELP {e2e_name} Admission-to-scored-reply latency.");
    let _ = writeln!(out, "# TYPE {e2e_name} histogram");
    if let Some(e2e) = snap.latency.get("end_to_end") {
        histogram_series(&mut out, e2e_name, "", e2e);
    } else {
        histogram_series(&mut out, e2e_name, "", &harp_metrics::HistogramSnapshot::default());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ServeStats;

    fn snapshot_with_traffic() -> StatsSnapshot {
        let s = ServeStats::default();
        ServeStats::bump(&s.requests);
        s.rows.fetch_add(64, Ordering::Relaxed);
        s.predict_hist.record(1_500_000);
        s.predict_hist.record(2_500_000);
        s.queue_wait_hist.record(10_000);
        s.assemble_hist.record(5_000);
        s.write_hist.record(7_000);
        s.e2e_hist.record(3_000_000);
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
        // Counter and gauge families: names, help text, order and values,
        // byte for byte.
        let head = "\
# HELP harp_serve_requests_total Score requests admitted.
# TYPE harp_serve_requests_total counter
harp_serve_requests_total 1
# HELP harp_serve_rows_total Rows admitted in Score requests.
# TYPE harp_serve_rows_total counter
harp_serve_rows_total 64
# HELP harp_serve_batches_total Micro-batches dispatched.
# TYPE harp_serve_batches_total counter
harp_serve_batches_total 0
# HELP harp_serve_sheds_total Requests shed by admission control.
# TYPE harp_serve_sheds_total counter
harp_serve_sheds_total 0
# HELP harp_serve_protocol_errors_total Protocol errors answered.
# TYPE harp_serve_protocol_errors_total counter
harp_serve_protocol_errors_total 0
# HELP harp_serve_swaps_total Model hot-swaps installed.
# TYPE harp_serve_swaps_total counter
harp_serve_swaps_total 0
# HELP harp_serve_connections_total Connections accepted.
# TYPE harp_serve_connections_total counter
harp_serve_connections_total 0
# HELP harp_serve_generation Generation of the forest being served.
# TYPE harp_serve_generation gauge
harp_serve_generation 7
# HELP harp_serve_queue_depth Jobs queued for dispatch.
# TYPE harp_serve_queue_depth gauge
harp_serve_queue_depth 0
# HELP harp_serve_uptime_seconds Seconds since the server started.
# TYPE harp_serve_uptime_seconds gauge
harp_serve_uptime_seconds 12.5
# HELP harp_serve_model_features Feature count of the forest being served.
# TYPE harp_serve_model_features gauge
harp_serve_model_features 28
# HELP harp_serve_model_groups Score groups per row of the forest being served.
# TYPE harp_serve_model_groups gauge
harp_serve_model_groups 1
# HELP harp_serve_phase_latency_seconds Server-side per-phase latency.
";
        assert!(text.starts_with(head), "exposition head changed:\n{text}");
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

    #[test]
    fn empty_snapshot_still_exposes_families() {
        let text = render_prometheus(&StatsSnapshot::default());
        assert!(text.contains("harp_serve_requests_total 0"));
        assert!(text.contains("harp_serve_request_latency_seconds_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("harp_serve_request_latency_seconds_count 0"));
    }
}
