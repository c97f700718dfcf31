//! Serving load generator — emits `BENCH_serve.json`.
//!
//! Drives a `harp-serve` scoring server with closed-loop clients at fixed
//! concurrency levels, reporting sustained request/row throughput and
//! p50/p99/p999 latency; floods a deliberately tiny-queue server to prove
//! admission control sheds typed `Overloaded` responses under saturation;
//! and fires the shared malformed-frame battery.
//!
//! With no `--addr`, a quickstart-shaped model (HIGGS-like, 10 trees
//! quick / 50 full) is trained in-process and served on a loopback port.
//! With `--addr HOST:PORT` (the CI smoke job), an external server is
//! driven instead; `--shutdown` additionally sends a Shutdown frame when
//! done.
//!
//! `harpgbdt report --bench-diff` gates the exact cells: the ok, typed-reply
//! and malformed-battery pass rates. Every timing cell, and the
//! admitted/shed split that timing decides, is written `~…`, which the gate
//! skips: in 20 runs against a local server, all but two client timing
//! cells left ±30 % of the snapshot at least once (EXPERIMENTS.md, "One
//! experiment harness").
//!
//! Regenerate the committed snapshot with:
//! `cargo run --release -p harp-bench --bin bench_serve`
//! (writes `results/BENCH_serve.json` unless `--out` overrides it).

use harp_bench::{ExpArgs, Table};
use harp_data::{DatasetKind, SynthConfig};
use harp_serve::protocol::{write_frame, Frame, RowsPayload};
use harp_serve::{ErrorCode, Phase, ScoreReply, ServeClient, ServeConfig};
use harpgbdt::{FlatForest, GbdtTrainer, GrowthMethod, TrainParams};
use std::net::SocketAddr;
use std::time::Instant;

/// Rows per Score request in the load sweep — small enough to be a
/// realistic online request, large enough to exercise coalescing.
const REQ_ROWS: usize = 64;

/// Concurrency levels of the sweep (fixed across modes so the bench-diff
/// metric names stay stable).
const CONCURRENCY: &[usize] = &[1, 4, 16];

struct ServeArgs {
    exp: ExpArgs,
    addr: Option<SocketAddr>,
    shutdown: bool,
}

/// Pulls the serve-specific flags out before handing the rest to
/// [`ExpArgs::try_parse`] (which rejects unknown flags).
fn parse_args() -> ServeArgs {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut rest = Vec::new();
    let mut addr = None;
    let mut shutdown = false;
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("error: --addr requires HOST:PORT");
                    std::process::exit(2);
                });
                addr = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("error: --addr expects HOST:PORT, got {v:?}");
                    std::process::exit(2);
                }));
            }
            "--shutdown" => shutdown = true,
            _ => rest.push(flag),
        }
    }
    let exp = match ExpArgs::try_parse(rest) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: bench_serve [--scale F] [--threads N] [--trees N] [--seed N] [--full] \
                 [--test] [--out PATH] [--addr HOST:PORT] [--shutdown]"
            );
            std::process::exit(2);
        }
    };
    ServeArgs { exp, addr, shutdown }
}

/// Trains the quickstart-shaped model the acceptance target is defined
/// against.
fn train_forest(args: &ExpArgs, scale: f64, trees: usize) -> FlatForest {
    let data = SynthConfig::new(DatasetKind::HiggsLike, args.seed).with_scale(scale).generate();
    let params = TrainParams {
        n_trees: trees,
        tree_size: 6,
        growth: GrowthMethod::Leafwise,
        k: 32,
        n_threads: args.threads,
        ..TrainParams::default()
    };
    GbdtTrainer::new(params).expect("valid params").train(&data).model.compile()
}

/// Deterministic pseudo-random dense rows (LCG; no rand dependency in the
/// bin target).
fn dense_rows(n_rows: usize, n_cols: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n_rows * n_cols)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) % 4000) as f32 / 1000.0 - 2.0
        })
        .collect()
}

/// Deterministic pseudo-random bin rows.
fn bin_rows(n_rows: usize, n_cols: usize, seed: u64) -> Vec<u8> {
    let mut s = seed | 1;
    (0..n_rows * n_cols)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) % 64) as u8
        })
        .collect()
}

struct SweepResult {
    n_requests: usize,
    n_ok: usize,
    secs: f64,
    /// Sorted request latencies in nanoseconds.
    latencies: Vec<u64>,
}

impl SweepResult {
    fn req_per_sec(&self) -> f64 {
        self.n_requests as f64 / self.secs
    }

    fn rows_per_sec(&self) -> f64 {
        (self.n_requests * REQ_ROWS) as f64 / self.secs
    }

    fn percentile_ms(&self, p: f64) -> f64 {
        if self.latencies.is_empty() {
            return f64::NAN;
        }
        let idx =
            ((self.latencies.len() as f64 * p).ceil() as usize).clamp(1, self.latencies.len()) - 1;
        self.latencies[idx] as f64 / 1e6
    }

    fn ok_rate(&self) -> f64 {
        if self.n_requests == 0 {
            return 0.0;
        }
        100.0 * self.n_ok as f64 / self.n_requests as f64
    }
}

/// Closed-loop load: `conc` clients each issue `reqs_per_client`
/// synchronous Score round-trips.
fn run_sweep(
    addr: SocketAddr,
    conc: usize,
    reqs_per_client: usize,
    n_features: usize,
    n_groups: usize,
    binned: bool,
    seed: u64,
) -> SweepResult {
    let t0 = Instant::now();
    let handles: Vec<_> = (0..conc)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect load client");
                let mut latencies = Vec::with_capacity(reqs_per_client);
                let mut ok = 0usize;
                for r in 0..reqs_per_client {
                    let req_seed = seed ^ ((c as u64) << 32) ^ r as u64;
                    let t = Instant::now();
                    let reply = if binned {
                        client.score_binned(
                            n_features as u32,
                            bin_rows(REQ_ROWS, n_features, req_seed),
                        )
                    } else {
                        client.score_dense(
                            n_features as u32,
                            dense_rows(REQ_ROWS, n_features, req_seed),
                        )
                    };
                    latencies.push(t.elapsed().as_nanos() as u64);
                    if let Ok(ScoreReply::Scores { scores, .. }) = reply {
                        if scores.len() == REQ_ROWS * n_groups {
                            ok += 1;
                        }
                    }
                }
                (latencies, ok)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut n_ok = 0;
    for h in handles {
        let (l, ok) = h.join().expect("load client panicked");
        latencies.extend(l);
        n_ok += ok;
    }
    let secs = t0.elapsed().as_secs_f64();
    latencies.sort_unstable();
    SweepResult { n_requests: conc * reqs_per_client, n_ok, secs, latencies }
}

struct SaturationResult {
    admitted: usize,
    shed: usize,
    /// Replies that were neither well-shaped Scores nor typed Overloaded.
    untyped: usize,
}

/// Floods a tiny-queue server with pipelined bursts so admission control
/// must shed, and classifies every reply.
fn run_saturation(forest: FlatForest, threads: usize, seed: u64) -> SaturationResult {
    let n_features = forest.n_features();
    let n_groups = forest.n_groups();
    let cfg = ServeConfig {
        queue_depth: 2,
        window_us: 2_000,
        max_batch_rows: 1 << 20,
        threads,
        ..ServeConfig::default()
    };
    let mut handle = harp_serve::serve(forest, cfg).expect("start saturation server");
    let addr = handle.local_addr();
    const FLOODERS: usize = 8;
    const BURST: usize = 16;
    const BURSTS: usize = 4;
    const ROWS: usize = 256;
    let flooders: Vec<_> = (0..FLOODERS)
        .map(|f| {
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect flooder");
                let (mut admitted, mut shed, mut untyped) = (0usize, 0usize, 0usize);
                for b in 0..BURSTS {
                    // Pipeline a whole burst before reading any reply: the
                    // bounded queue cannot absorb it, so some must shed.
                    for r in 0..BURST {
                        let rows = RowsPayload::Dense {
                            n_cols: n_features as u32,
                            values: dense_rows(
                                ROWS,
                                n_features,
                                seed ^ ((f as u64) << 40) ^ ((b as u64) << 20) ^ r as u64,
                            ),
                        };
                        let corr = (b * BURST + r) as u32 + 1;
                        write_frame(client.stream_mut(), &Frame::Score { corr, rows })
                            .expect("write burst");
                    }
                    for _ in 0..BURST {
                        match harp_serve::protocol::read_frame(
                            client.stream_mut(),
                            harp_serve::protocol::DEFAULT_MAX_PAYLOAD,
                        ) {
                            Ok(Some(Frame::Scores { scores, .. }))
                                if scores.len() == ROWS * n_groups =>
                            {
                                admitted += 1;
                            }
                            Ok(Some(Frame::Error { code: ErrorCode::Overloaded, .. })) => {
                                shed += 1;
                            }
                            _ => untyped += 1,
                        }
                    }
                }
                (admitted, shed, untyped)
            })
        })
        .collect();
    let mut out = SaturationResult { admitted: 0, shed: 0, untyped: 0 };
    for h in flooders {
        let (a, s, u) = h.join().expect("flooder panicked");
        out.admitted += a;
        out.shed += s;
        out.untyped += u;
    }
    handle.shutdown();
    handle.wait();
    out
}

fn main() {
    let args = parse_args();
    let exp = &args.exp;
    let reqs_per_client = if exp.test {
        25
    } else if exp.full {
        1000
    } else {
        250
    };

    // The system under test: external (--addr) or in-process quickstart.
    let mut in_process = None;
    let addr = match args.addr {
        Some(a) => a,
        None => {
            let forest = train_forest(exp, exp.data_scale(0.05, 0.5), exp.n_trees(10, 50));
            let cfg = ServeConfig { threads: exp.threads, ..ServeConfig::default() };
            let handle = harp_serve::serve(forest, cfg).expect("start server");
            let addr = handle.local_addr();
            in_process = Some(handle);
            addr
        }
    };

    // The model's shape comes from the server itself, so an external
    // server needs no side-channel configuration.
    let mut probe = ServeClient::connect(addr).expect("connect probe client");
    probe.ping().expect("server did not answer ping");
    let snap0 = probe.stats().expect("server did not answer stats");
    let (n_features, n_groups) = (snap0.n_features as usize, snap0.n_groups as usize);
    drop(probe);

    // Warm the server (page in the forest, settle the batcher).
    run_sweep(addr, 2, 10, n_features, n_groups, false, exp.seed);

    // --- Closed-loop load sweep at fixed concurrency levels.
    let mut sweep_tbl = Table::new(
        "Serve load sweep (dense 64-row requests)",
        &["concurrency", "requests", "req/s", "rows/s", "p50 ms", "p99 ms", "p999 ms", "ok rate"],
    );
    let mut peak_rows_per_sec = 0.0f64;
    let mut dense_mid: Option<SweepResult> = None;
    for &conc in CONCURRENCY {
        let res = run_sweep(addr, conc, reqs_per_client, n_features, n_groups, false, exp.seed);
        peak_rows_per_sec = peak_rows_per_sec.max(res.rows_per_sec());
        sweep_tbl.row(vec![
            conc.to_string(),
            res.n_requests.to_string(),
            format!("~{:.0}", res.req_per_sec()),
            format!("~{:.0}", res.rows_per_sec()),
            format!("~{:.3}", res.percentile_ms(0.50)),
            format!("~{:.3}", res.percentile_ms(0.99)),
            format!("~{:.3}", res.percentile_ms(0.999)),
            format!("{:.1}%", res.ok_rate()),
        ]);
        if conc == 4 {
            dense_mid = Some(res);
        }
    }
    sweep_tbl.note(format!(
        "model: {n_features} features x {n_groups} group(s); closed loop, {reqs_per_client} \
         requests per client; peak {peak_rows_per_sec:.0} rows/s (acceptance target >= 100000 \
         rows/s on the quickstart model); `~` cells are informational, the gate reads the ok \
         rates"
    ));
    sweep_tbl.print();

    // --- Quantized payloads against dense at the middle concurrency.
    let mut layout_tbl = Table::new(
        "Serve payload layouts (64-row requests, concurrency 4)",
        &["layout", "req/s", "rows/s", "p50 ms", "ok rate"],
    );
    let dense4 = dense_mid.expect("sweep includes concurrency 4");
    let binned4 = run_sweep(addr, 4, reqs_per_client, n_features, n_groups, true, exp.seed);
    for (name, res) in [("dense f32", &dense4), ("binned u8", &binned4)] {
        layout_tbl.row(vec![
            name.to_string(),
            format!("~{:.0}", res.req_per_sec()),
            format!("~{:.0}", res.rows_per_sec()),
            format!("~{:.3}", res.percentile_ms(0.50)),
            format!("{:.1}%", res.ok_rate()),
        ]);
    }
    layout_tbl.note(
        "binned rows skip quantization and route on u8 bin thresholds directly; payload is \
         4x smaller on the wire",
    );
    layout_tbl.print();

    // --- Saturation: a deliberately tiny queue must shed, typed.
    // Always in-process (the external server's queue is sized to *not*
    // shed under this load).
    let sat_forest = match &in_process {
        Some(h) => h.slot().load().forest.clone(),
        None => train_forest(exp, 0.02, 5),
    };
    let sat = run_saturation(sat_forest, exp.threads.min(2), exp.seed);
    let total = (sat.admitted + sat.shed + sat.untyped) as f64;
    let mut sat_tbl =
        Table::new("Admission control under saturation (queue depth 2)", &["metric", "value"]);
    sat_tbl.row(vec!["replies".into(), format!("{}", total as u64)]);
    sat_tbl.row(vec!["admitted".into(), format!("~{}", sat.admitted)]);
    sat_tbl.row(vec!["shed (typed Overloaded)".into(), format!("~{}", sat.shed)]);
    sat_tbl.row(vec![
        "typed reply rate".into(),
        format!("{:.1}%", 100.0 * (sat.admitted + sat.shed) as f64 / total),
    ]);
    sat_tbl.note(
        "8 flooders x 4 pipelined bursts of 16 x 256-row requests against queue depth 2: \
         every reply must be a well-shaped Scores or a typed Overloaded error — \
         overload is shed, never stalled or dropped silently",
    );
    sat_tbl.print();

    // --- The shared malformed-frame battery.
    let battery = harp_serve::battery::run_battery(addr, n_features as u32);
    let mut battery_tbl = Table::new("Malformed-frame battery", &["battery", "cases", "pass rate"]);
    match &battery {
        Ok(cases) => {
            battery_tbl.row(vec![
                "malformed-input".into(),
                cases.len().to_string(),
                "100.0%".into(),
            ]);
        }
        Err(e) => {
            battery_tbl.row(vec!["malformed-input".into(), "0".into(), "0.0%".into()]);
            eprintln!("BATTERY FAILURE: {e}");
        }
    }
    battery_tbl.note(
        "each case sends hostile bytes (bad magic/version, oversize length, truncated \
         frames, mid-frame disconnect, shape lies) and asserts a typed error or a clean \
         close, then proves the server still answers a well-formed ping",
    );
    battery_tbl.print();

    // --- Server-reported latency quantiles, cross-checked against the
    // client's view. All cells are `~`-marked (informational): latency is
    // machine-varying, and the regression gate for it is `report --slo` /
    // ledger diffs, not the bench snapshot.
    let mut server_tbl = Table::new(
        "Server-side latency histograms (from /metrics histograms)",
        &["phase", "p50", "p99", "p999", "samples"],
    );
    let mut e2e_p99_ms = f64::NAN;
    if let Ok(mut c) = ServeClient::connect(addr) {
        if let Ok(s) = c.stats() {
            for (name, hist) in &s.latency.0 {
                if hist.is_empty() {
                    continue;
                }
                if name == Phase::EndToEnd.name() {
                    e2e_p99_ms = hist.quantile(0.99) as f64 / 1e6;
                }
                server_tbl.row(vec![
                    name.clone(),
                    format!("~{:.3} ms", hist.quantile(0.5) as f64 / 1e6),
                    format!("~{:.3} ms", hist.quantile(0.99) as f64 / 1e6),
                    format!("~{:.3} ms", hist.quantile(0.999) as f64 / 1e6),
                    hist.count().to_string(),
                ]);
            }
            let c = &s.counters;
            println!(
                "\nserver counters: {} requests / {} rows / {} batches, {} sheds, {} protocol \
                 errors, gen {}",
                c.requests, c.rows, c.batches, c.sheds, c.protocol_errors, s.generation
            );
        }
    }
    // Cross-check: client-side p99 (conc-4 sweep) against the server's
    // whole-run end-to-end p99. Not 1:1 — the server distribution pools
    // every sweep (including conc 16) — but wild divergence would flag a
    // recording bug.
    let client_p99_ms = dense4.percentile_ms(0.99);
    if e2e_p99_ms.is_finite() && e2e_p99_ms > 0.0 {
        server_tbl.row(vec![
            "client p99 (conc 4) / server e2e p99 (run)".into(),
            format!("~{:.2}x", client_p99_ms / e2e_p99_ms),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    server_tbl.note(
        "histograms recorded server-side (log-linear buckets, <=6.25% relative error); the \
         server pools every sweep into one distribution, so the ratio row is a sanity check, \
         not an identity; `~` cells are informational — latency gating happens via \
         `report --slo`",
    );
    server_tbl.print();

    let default_out = std::path::PathBuf::from("results/BENCH_serve.json");
    let out = exp.out.as_deref().unwrap_or(&default_out);
    Table::write_json(&[&sweep_tbl, &layout_tbl, &sat_tbl, &battery_tbl, &server_tbl], out)
        .expect("write json");
    println!("\nwrote {}", out.display());

    if args.shutdown {
        let mut c = ServeClient::connect(addr).expect("connect for shutdown");
        c.shutdown_server().expect("server acknowledged shutdown");
        println!("sent Shutdown; server acknowledged");
    }
    if let Some(mut h) = in_process {
        h.shutdown();
        h.wait();
    }

    if !exp.test && peak_rows_per_sec < 100_000.0 {
        eprintln!(
            "WARNING: peak {peak_rows_per_sec:.0} rows/s is below the 100k rows/s acceptance \
             target"
        );
    }
    if battery.is_err() {
        std::process::exit(1);
    }
}
