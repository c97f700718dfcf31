//! Concurrency and protocol battery for the online scoring service.
//!
//! Four pillars, mirroring the serving design's hazards:
//!
//! * **Protocol**: proptest round-trips of every frame type and a
//!   malformed-input battery against a live server — hostile bytes get a
//!   typed error or a clean close, never a panic or a hang.
//! * **Hot swap**: concurrent scoring threads during repeated model swaps;
//!   every response is bitwise-identical to exactly one of the two models
//!   (a torn forest would produce a third value), and no request is lost.
//! * **Micro-batch window**: with an injected manual clock, a lone request
//!   holds until the window deadline passes, and a full batch flushes
//!   without any clock movement.
//! * **Admission control**: a deliberately tiny queue sheds with typed
//!   `Overloaded` responses under a pipelined flood while a well-behaved
//!   client keeps getting prompt answers.

use harp_data::{DatasetKind, DenseMatrix, FeatureMatrix, SynthConfig};
use harp_serve::protocol::{
    parse_header, read_frame, write_frame, Frame, RowsPayload, DEFAULT_MAX_PAYLOAD, HEADER_LEN,
};
use harp_serve::{
    serve, serve_with_clock, ErrorCode, ManualClock, ScoreReply, ServeClient, ServeConfig,
};
use harpgbdt::predict::BinRows;
use harpgbdt::{FlatForest, GbdtTrainer, GrowthMethod, Predictor, TrainParams};
use proptest::prelude::*;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Trains a small HIGGS-like forest; different `(seed, trees)` give
/// models whose scores differ on essentially every row.
fn train_forest(seed: u64, trees: usize) -> FlatForest {
    let data = SynthConfig::new(DatasetKind::HiggsLike, seed).with_scale(0.02).generate();
    let params = TrainParams {
        n_trees: trees,
        tree_size: 4,
        growth: GrowthMethod::Leafwise,
        k: 8,
        n_threads: 1,
        ..TrainParams::default()
    };
    GbdtTrainer::new(params).expect("valid params").train(&data).model.compile()
}

/// Deterministic dense rows (same LCG family as the bench generator).
fn dense_rows(n_rows: usize, n_cols: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n_rows * n_cols)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) % 4000) as f32 / 1000.0 - 2.0
        })
        .collect()
}

fn bin_rows(n_rows: usize, n_cols: usize, seed: u64) -> Vec<u8> {
    let mut s = seed | 1;
    (0..n_rows * n_cols)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) % 64) as u8
        })
        .collect()
}

/// Reference scores for raw dense rows via the local predictor.
fn local_dense_scores(forest: &FlatForest, n_cols: usize, values: &[f32]) -> Vec<f32> {
    let n_rows = values.len() / n_cols;
    let m = FeatureMatrix::Dense(DenseMatrix::from_vec(n_rows, n_cols, values.to_vec()));
    Predictor::new(forest).predict_raw(&m)
}

// ---------------------------------------------------------------------------
// Protocol: proptest round-trips and no-panic guarantees.

/// Printable-ASCII string from arbitrary bytes (Reload paths must be
/// UTF-8; Error/StatsReply text is free-form).
fn ascii(bytes: &[u8]) -> String {
    bytes.iter().map(|b| (b % 94 + 32) as char).collect()
}

/// Builds one of the 12 frame shapes from flat generated ingredients (the
/// vendored proptest has no `prop_oneof`, so variant choice is a selector
/// byte and the raw pools are truncated to the drawn dimensions).
fn build_frame(
    sel: u8,
    corr: u32,
    dims: (usize, usize),
    f32_pool: Vec<f32>,
    byte_pool: Vec<u8>,
    aux: u64,
) -> Frame {
    let (n_cols, n_rows) = dims;
    let need = n_cols * n_rows;
    match sel % 12 {
        0 => Frame::Score {
            corr,
            rows: RowsPayload::Dense {
                n_cols: n_cols as u32,
                values: f32_pool.iter().cycle().take(need).copied().collect(),
            },
        },
        1 => Frame::Score {
            corr,
            rows: RowsPayload::Binned {
                n_cols: n_cols as u32,
                bins: byte_pool.iter().cycle().take(need).copied().collect(),
            },
        },
        2 => Frame::Ping { corr },
        3 => Frame::Reload { corr, path: None },
        4 => Frame::Reload { corr, path: Some(ascii(&byte_pool[..byte_pool.len() % 40])) },
        5 => Frame::Stats { corr },
        6 => Frame::Shutdown { corr },
        7 => {
            let n_groups = (aux % 3 + 1) as usize;
            let len = f32_pool.len() - f32_pool.len() % n_groups;
            Frame::Scores { corr, n_groups: n_groups as u32, scores: f32_pool[..len].to_vec() }
        }
        8 => Frame::Error {
            corr,
            code: ErrorCode::from_u16((aux % 8 + 1) as u16).expect("valid code"),
            message: ascii(&byte_pool),
        },
        9 => Frame::Pong { corr },
        10 => Frame::ReloadOk { corr, generation: aux },
        _ => Frame::StatsReply { corr, json: ascii(&byte_pool) },
    }
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        any::<u8>(),
        any::<u32>(),
        (1usize..6, 1usize..5),
        proptest::collection::vec(any::<f32>(), 20..21),
        proptest::collection::vec(any::<u8>(), 20..21),
        any::<u64>(),
    )
        .prop_map(|(sel, corr, dims, f32s, bytes, aux)| {
            build_frame(sel, corr, dims, f32s, bytes, aux)
        })
}

proptest! {
    /// Every frame survives encode → header parse → decode bitwise (byte
    /// comparison, so `NaN` payloads count as equal).
    #[test]
    fn every_frame_round_trips(frame in arb_frame()) {
        let bytes = frame.encode();
        let header: [u8; HEADER_LEN] =
            bytes[..HEADER_LEN].try_into().expect("header slice");
        let h = parse_header(&header, DEFAULT_MAX_PAYLOAD).expect("header parses");
        prop_assert_eq!(h.payload_len as usize, bytes.len() - HEADER_LEN);
        let back = Frame::decode(h.frame_type, h.corr, &bytes[HEADER_LEN..])
            .expect("payload decodes");
        prop_assert_eq!(back.corr(), frame.corr());
        prop_assert_eq!(back.encode(), bytes);
    }

    /// Truncating a valid frame's payload at any point never panics the
    /// decoder — it either errors or parses a shorter-but-valid payload.
    #[test]
    fn truncated_payloads_never_panic(frame in arb_frame(), cut in 0usize..200) {
        let bytes = frame.encode();
        let payload = &bytes[HEADER_LEN..];
        let cut = cut.min(payload.len());
        let header: [u8; HEADER_LEN] =
            bytes[..HEADER_LEN].try_into().expect("header slice");
        let h = parse_header(&header, DEFAULT_MAX_PAYLOAD).expect("header parses");
        let _ = Frame::decode(h.frame_type, h.corr, &payload[..cut]);
    }

    /// Arbitrary header bytes never panic the parser, and non-HG magic is
    /// always rejected.
    #[test]
    fn arbitrary_headers_never_panic(raw in proptest::collection::vec(any::<u8>(), 12..13)) {
        let bytes: [u8; HEADER_LEN] = raw.as_slice().try_into().expect("12 bytes");
        let parsed = parse_header(&bytes, DEFAULT_MAX_PAYLOAD);
        if &bytes[..2] != b"HG" {
            prop_assert!(parsed.is_err());
        }
    }
}

// ---------------------------------------------------------------------------
// Live server: malformed battery, shapes, equivalence, stats.

#[test]
fn malformed_battery_against_live_server() {
    let forest = train_forest(1, 4);
    let n_features = forest.n_features() as u32;
    let mut h = serve(forest, ServeConfig::default()).expect("start server");
    let passed =
        harp_serve::battery::run_battery(h.local_addr(), n_features).expect("battery green");
    assert!(passed.len() >= 10, "battery should cover at least 10 hostile cases: {passed:?}");
    // The server survived every case and still answers cleanly.
    let mut client = ServeClient::connect(h.local_addr()).expect("connect");
    client.ping().expect("server alive after battery");
    h.shutdown();
    h.wait();
}

#[test]
fn wrong_shapes_get_typed_rejections() {
    let forest = train_forest(2, 4);
    let n_features = forest.n_features();
    let cfg = ServeConfig { max_rows_per_req: 128, ..ServeConfig::default() };
    let mut h = serve(forest, cfg).expect("start server");
    let mut client = ServeClient::connect(h.local_addr()).expect("connect");

    // Narrower than the model: silent misrouting guarded by a typed error.
    let narrow = client
        .score_dense((n_features - 1) as u32, dense_rows(4, n_features - 1, 7))
        .expect("io ok");
    assert!(
        matches!(narrow, ScoreReply::Rejected { code: ErrorCode::BadShape, .. }),
        "narrow rows must be BadShape, got {narrow:?}"
    );

    // Oversized request: bounced before touching the queue.
    let oversize = client
        .score_dense(n_features as u32, dense_rows(129, n_features, 7))
        .expect("io ok");
    assert!(
        matches!(oversize, ScoreReply::Rejected { code: ErrorCode::BadShape, .. }),
        "over-limit rows must be BadShape, got {oversize:?}"
    );

    // Wider than the model is fine (extra columns ignored), matching the
    // offline predictor contract.
    let wide = client
        .score_dense((n_features + 3) as u32, dense_rows(4, n_features + 3, 7))
        .expect("io");
    assert!(matches!(wide, ScoreReply::Scores { .. }), "wider rows must score, got {wide:?}");
    h.shutdown();
    h.wait();
}

#[test]
fn served_scores_match_local_predictor_dense_and_binned() {
    let forest = train_forest(3, 6);
    let n_features = forest.n_features();
    let n_rows = 37;
    let mut h = serve(forest.clone(), ServeConfig::default()).expect("start server");
    let mut client = ServeClient::connect(h.local_addr()).expect("connect");

    let values = dense_rows(n_rows, n_features, 11);
    match client.score_dense(n_features as u32, values.clone()).expect("io ok") {
        ScoreReply::Scores { scores, .. } => {
            let expect = local_dense_scores(&forest, n_features, &values);
            assert_eq!(scores, expect, "served dense scores must match the local predictor");
        }
        other => panic!("dense request rejected: {other:?}"),
    }

    let bins = bin_rows(n_rows, n_features, 13);
    match client.score_binned(n_features as u32, bins.clone()).expect("io ok") {
        ScoreReply::Scores { scores, .. } => {
            let rows = BinRows::new(n_rows, n_features, &bins);
            let expect = Predictor::new(&forest).predict_raw_bin_rows(&rows);
            assert_eq!(scores, expect, "served binned scores must match the local predictor");
        }
        other => panic!("binned request rejected: {other:?}"),
    }
    h.shutdown();
    h.wait();
}

#[test]
fn stats_frame_reports_counters_and_shape() {
    let forest = train_forest(4, 4);
    let n_features = forest.n_features();
    let mut h = serve(forest, ServeConfig::default()).expect("start server");
    let mut client = ServeClient::connect(h.local_addr()).expect("connect");
    for i in 0..5 {
        let reply = client
            .score_dense(n_features as u32, dense_rows(8, n_features, i))
            .expect("io ok");
        assert!(matches!(reply, ScoreReply::Scores { .. }));
    }
    let snap = client.stats().expect("stats reply parses");
    assert_eq!(snap.n_features as usize, n_features);
    assert_eq!(snap.generation, 1);
    assert!(snap.counters.requests >= 5, "admitted requests counted: {snap:?}");
    assert!(snap.counters.rows >= 40, "admitted rows counted: {snap:?}");
    assert!(snap.counters.batches >= 1, "batches dispatched: {snap:?}");
    // Telemetry fields: uptime, an idle queue, and per-phase histograms.
    assert!(snap.uptime_secs > 0.0, "uptime reported: {snap:?}");
    assert_eq!(snap.queue_depth, 0, "every admitted job was dispatched: {snap:?}");
    for phase in harp_serve::Phase::ALL.map(harp_serve::Phase::name) {
        let hist = snap.latency.get(phase).unwrap_or_else(|| panic!("{phase} histogram missing"));
        assert!(hist.count() >= 1, "{phase} histogram recorded samples: {snap:?}");
    }
    let e2e = snap.latency.get("end_to_end").expect("e2e histogram");
    assert!(e2e.quantile(0.99) >= e2e.quantile(0.5), "quantiles are monotone");
    h.shutdown();
    h.wait();
}

/// A `serve` that fails leaves no server behind: when the metrics port is
/// taken, the scoring port is released again and nothing accepts on it.
#[test]
fn a_failed_serve_leaves_no_listener_running() {
    use std::net::TcpListener;
    let held = TcpListener::bind("127.0.0.1:0").expect("hold a port");
    let free = TcpListener::bind("127.0.0.1:0").expect("pick a port");
    let addr = free.local_addr().expect("picked port");
    drop(free);
    let cfg = ServeConfig {
        addr: addr.to_string(),
        metrics_addr: Some(held.local_addr().expect("held port").to_string()),
        ..ServeConfig::default()
    };
    let err = serve(train_forest(13, 2), cfg).err().expect("the metrics port is taken");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    assert!(TcpStream::connect(addr).is_err(), "something still accepts on {addr}");
    TcpListener::bind(addr).expect("the scoring port is free again");
}

#[test]
fn metrics_endpoint_serves_prometheus_exposition() {
    use std::io::{Read as _, Write as _};
    let forest = train_forest(12, 4);
    let n_features = forest.n_features();
    let cfg = ServeConfig { metrics_addr: Some("127.0.0.1:0".into()), ..ServeConfig::default() };
    let mut h = serve(forest, cfg).expect("start server");
    let metrics_addr = h.metrics_addr().expect("metrics endpoint bound");

    // Generate traffic so every phase histogram has samples.
    let mut client = ServeClient::connect(h.local_addr()).expect("connect");
    for i in 0..5 {
        let reply = client
            .score_dense(n_features as u32, dense_rows(8, n_features, i))
            .expect("io ok");
        assert!(matches!(reply, ScoreReply::Scores { .. }));
    }

    // Raw-TCP scrape: a plain HTTP/1.1 GET, no client library.
    let scrape = |path: &str| -> String {
        let mut s = TcpStream::connect(metrics_addr).expect("connect metrics");
        write!(s, "GET {path} HTTP/1.1\r\nHost: harp\r\nConnection: close\r\n\r\n")
            .expect("write request");
        let mut response = String::new();
        s.read_to_string(&mut response).expect("read response");
        response
    };
    let response = scrape("/metrics");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "scrape status: {response}");
    assert!(
        response.contains("Content-Type: text/plain; version=0.0.4"),
        "exposition content type: {response}"
    );
    for family in [
        "harp_serve_requests_total",
        "harp_serve_queue_depth",
        "harp_serve_uptime_seconds",
        "# TYPE harp_serve_phase_latency_seconds histogram",
        "harp_serve_request_latency_seconds_bucket",
    ] {
        assert!(response.contains(family), "missing {family:?} in scrape:\n{response}");
    }
    for phase in ["queue_wait", "assemble", "predict", "write"] {
        let needle = format!("harp_serve_phase_latency_seconds_bucket{{phase=\"{phase}\"");
        assert!(response.contains(&needle), "missing {needle:?} in scrape:\n{response}");
    }
    // Anything else 404s without wedging the endpoint.
    assert!(scrape("/nope").starts_with("HTTP/1.1 404"));
    assert!(scrape("/metrics").starts_with("HTTP/1.1 200 OK"), "endpoint survives a 404");

    h.shutdown();
    h.wait();
}

#[test]
fn serve_ledger_round_trips_latency_histograms() {
    let dir = std::env::temp_dir().join(format!("harp_serve_ledger_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ledger_path = dir.join("serve-ledger.jsonl");
    let forest = train_forest(13, 4);
    let n_features = forest.n_features();
    let cfg = ServeConfig {
        ledger_out: Some(ledger_path.clone()),
        ledger_every_batches: 1,
        ..ServeConfig::default()
    };
    let mut h = serve(forest, cfg).expect("start server");
    let mut client = ServeClient::connect(h.local_addr()).expect("connect");
    for i in 0..4 {
        let reply = client
            .score_dense(n_features as u32, dense_rows(8, n_features, i))
            .expect("io ok");
        assert!(matches!(reply, ScoreReply::Scores { .. }));
    }
    drop(client);
    h.shutdown();
    h.wait();

    let ledger = harp_metrics::RunLedger::read_jsonl(&ledger_path).expect("ledger parses");
    assert!(!ledger.records().is_empty(), "serve ledger has epochs");
    let mut merged = harp_metrics::LatencySet::default();
    for r in ledger.records() {
        merged.merge(&r.latency);
    }
    let predict = merged.get("predict").expect("predict histogram in ledger");
    assert!(predict.count() >= 1, "epoch deltas carried samples");
    // The summary exposes tail metrics the diff gate can regress on.
    let summary = ledger.summary();
    assert!(
        summary.metrics.iter().any(|(name, _)| name == "latency/predict/p99_ns"),
        "summary emits latency quantile metrics: {:?}",
        summary.metrics.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Hot swap under concurrent load.

#[test]
fn hot_swap_every_response_is_exactly_one_model_bitwise() {
    let forest_a = train_forest(5, 4);
    let forest_b = train_forest(6, 9); // different seed AND depth: scores differ
    let n_features = forest_a.n_features();
    const ROWS: usize = 16;
    let values = dense_rows(ROWS, n_features, 99);
    let expect_a = local_dense_scores(&forest_a, n_features, &values);
    let expect_b = local_dense_scores(&forest_b, n_features, &values);
    assert_ne!(expect_a, expect_b, "the two models must disagree on the probe rows");

    let mut h = serve(forest_a.clone(), ServeConfig::default()).expect("start server");
    let addr = h.local_addr();

    const SCORERS: usize = 4;
    const REQS: usize = 150;
    let scorers: Vec<_> = (0..SCORERS)
        .map(|_| {
            let (values, expect_a, expect_b) = (values.clone(), expect_a.clone(), expect_b.clone());
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect scorer");
                let (mut from_a, mut from_b) = (0usize, 0usize);
                for _ in 0..REQS {
                    match client.score_dense(n_features as u32, values.clone()).expect("io ok") {
                        ScoreReply::Scores { scores, .. } => {
                            // Bitwise: a torn forest (half-swapped trees)
                            // would produce a third vector.
                            if scores == expect_a {
                                from_a += 1;
                            } else if scores == expect_b {
                                from_b += 1;
                            } else {
                                panic!("response matches neither model bitwise");
                            }
                        }
                        other => panic!("request rejected during swap: {other:?}"),
                    }
                }
                (from_a, from_b)
            })
        })
        .collect();

    // Swap from this thread (the slot borrow must not outlive the server
    // handle): flip between the two models until every scorer finishes.
    let mut swaps = 0u64;
    while scorers.iter().any(|s| !s.is_finished()) {
        h.slot().swap(if swaps % 2 == 0 { forest_b.clone() } else { forest_a.clone() });
        swaps += 1;
        std::thread::sleep(Duration::from_micros(500));
    }

    let mut total_a = 0;
    let mut total_b = 0;
    for s in scorers {
        let (a, b) = s.join().expect("scorer panicked");
        total_a += a;
        total_b += b;
    }
    // No request lost: every one of the SCORERS*REQS requests was answered
    // (the loop above would have panicked or timed out otherwise).
    assert_eq!(total_a + total_b, SCORERS * REQS);
    assert!(swaps > 10, "swapper should have cycled many times, did {swaps}");
    assert!(
        total_a > 0 && total_b > 0,
        "both generations must be observed (a={total_a}, b={total_b})"
    );
    h.shutdown();
    h.wait();
}

#[test]
fn reload_frame_installs_model_from_disk() {
    let dir = std::env::temp_dir().join(format!("harp_serve_reload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let model_path = dir.join("model.json");

    let data = SynthConfig::new(DatasetKind::HiggsLike, 8).with_scale(0.02).generate();
    let out_a = GbdtTrainer::new(TrainParams {
        n_trees: 3,
        tree_size: 4,
        n_threads: 1,
        ..TrainParams::default()
    })
    .expect("valid params")
    .train(&data);
    let out_b = GbdtTrainer::new(TrainParams {
        n_trees: 7,
        tree_size: 4,
        n_threads: 1,
        ..TrainParams::default()
    })
    .expect("valid params")
    .train(&data);

    let forest_b = out_b.model.compile();
    let n_features = forest_b.n_features();
    let values = dense_rows(8, n_features, 21);
    let expect_b = local_dense_scores(&forest_b, n_features, &values);

    let mut h = serve(out_a.model.compile(), ServeConfig::default()).expect("start server");
    let mut client = ServeClient::connect(h.local_addr()).expect("connect");

    // Reload against a missing file: typed failure, old model keeps serving.
    let missing = client
        .reload(Some(dir.join("nope.json").to_str().expect("utf8 path")))
        .expect("io ok");
    assert!(
        matches!(missing, Err((ErrorCode::ReloadFailed, _))),
        "missing file must be ReloadFailed, got {missing:?}"
    );

    out_b.model.save(&model_path).expect("save model B");
    let gen = client
        .reload(Some(model_path.to_str().expect("utf8 path")))
        .expect("io ok")
        .expect("reload succeeds");
    assert_eq!(gen, 2, "second generation installed");

    match client.score_dense(n_features as u32, values.clone()).expect("io ok") {
        ScoreReply::Scores { scores, .. } => {
            assert_eq!(scores, expect_b, "post-reload scores must come from the new model");
        }
        other => panic!("request rejected after reload: {other:?}"),
    }

    // A model file whose tree points past its nodes is refused before it is
    // compiled, and the installed forest keeps serving.
    let mut json = out_b.model.to_json().expect("serialize");
    json = json.replacen(r#""left":1,"#, r#""left":1000,"#, 1);
    let hostile = dir.join("hostile.json");
    std::fs::write(&hostile, json).expect("write hostile model");
    let refused = client.reload(Some(hostile.to_str().expect("utf8 path"))).expect("io ok");
    match refused {
        Err((ErrorCode::ReloadFailed, msg)) => assert!(msg.contains("child 1000"), "{msg}"),
        other => panic!("hostile model must be ReloadFailed, got {other:?}"),
    }
    match client.score_dense(n_features as u32, values).expect("io ok") {
        ScoreReply::Scores { scores, .. } => assert_eq!(scores, expect_b, "old forest serves"),
        other => panic!("request rejected after a refused reload: {other:?}"),
    }
    h.shutdown();
    h.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Micro-batch window with an injected clock.

#[test]
fn batch_window_holds_until_manual_deadline() {
    let forest = train_forest(9, 3);
    let n_features = forest.n_features();
    let clock = ManualClock::new();
    let cfg = ServeConfig {
        window_us: 1_000_000, // 1s of *manual* time: never expires on its own
        max_batch_rows: 1 << 20,
        ..ServeConfig::default()
    };
    let mut h = serve_with_clock(forest, cfg, Arc::new(clock.clone())).expect("start server");

    let mut stream = TcpStream::connect(h.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let rows =
        RowsPayload::Dense { n_cols: n_features as u32, values: dense_rows(4, n_features, 3) };
    write_frame(&mut stream, &Frame::Score { corr: 1, rows }).expect("write");

    // Under-full batch, deadline not reached: no reply may arrive.
    stream.set_read_timeout(Some(Duration::from_millis(300))).expect("timeout");
    match read_frame(&mut stream, DEFAULT_MAX_PAYLOAD) {
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut => {}
        other => panic!("batch must hold until the window expires, got {other:?}"),
    }

    // Advance past the window: the held batch flushes.
    clock.advance(Duration::from_secs(2).as_nanos() as u64);
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    match read_frame(&mut stream, DEFAULT_MAX_PAYLOAD).expect("read") {
        Some(Frame::Scores { corr, .. }) => assert_eq!(corr, 1),
        other => panic!("expected Scores after deadline, got {other:?}"),
    }
    h.shutdown();
    h.wait();
}

#[test]
fn full_batch_flushes_without_clock_movement() {
    let forest = train_forest(10, 3);
    let n_features = forest.n_features();
    let clock = ManualClock::new();
    let cfg = ServeConfig {
        window_us: 1_000_000,
        max_batch_rows: 8, // one 8-row request fills the batch
        ..ServeConfig::default()
    };
    let mut h = serve_with_clock(forest, cfg, Arc::new(clock.clone())).expect("start server");
    let mut client = ServeClient::connect(h.local_addr()).expect("connect");
    let reply = client
        .score_dense(n_features as u32, dense_rows(8, n_features, 5))
        .expect("io ok");
    assert!(
        matches!(reply, ScoreReply::Scores { .. }),
        "a full batch must flush immediately even with a frozen clock: {reply:?}"
    );
    h.shutdown();
    h.wait();
}

// ---------------------------------------------------------------------------
// Admission control under saturation.

#[test]
fn saturation_sheds_typed_while_polite_client_stays_served() {
    let forest = train_forest(11, 4);
    let n_features = forest.n_features();
    let cfg = ServeConfig {
        queue_depth: 2,
        window_us: 2_000,
        max_batch_rows: 1 << 20,
        threads: 1,
        ..ServeConfig::default()
    };
    let mut h = serve(forest, cfg).expect("start server");
    let addr = h.local_addr();

    const FLOODERS: usize = 6;
    const BURST: usize = 16;
    const BURSTS: usize = 3;
    const ROWS: usize = 256;
    let flooders: Vec<_> = (0..FLOODERS)
        .map(|f| {
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect flooder");
                let (mut admitted, mut shed) = (0usize, 0usize);
                for b in 0..BURSTS {
                    for r in 0..BURST {
                        let rows = RowsPayload::Dense {
                            n_cols: n_features as u32,
                            values: dense_rows(ROWS, n_features, (f * 1000 + b * 100 + r) as u64),
                        };
                        let corr = (b * BURST + r) as u32 + 1;
                        write_frame(client.stream_mut(), &Frame::Score { corr, rows })
                            .expect("write burst");
                    }
                    for _ in 0..BURST {
                        match read_frame(client.stream_mut(), DEFAULT_MAX_PAYLOAD).expect("read") {
                            Some(Frame::Scores { .. }) => admitted += 1,
                            Some(Frame::Error { code: ErrorCode::Overloaded, .. }) => shed += 1,
                            other => {
                                panic!("overload reply must be Scores or Overloaded: {other:?}")
                            }
                        }
                    }
                }
                (admitted, shed)
            })
        })
        .collect();

    // A polite closed-loop client during the flood: every round trip must
    // complete within its (generous) timeout — shed or served, never
    // stalled. This is the "p99 of admitted requests stays bounded" claim
    // in its non-flaky form.
    let polite = std::thread::spawn(move || {
        let mut client = ServeClient::connect(addr).expect("connect polite");
        for i in 0..20 {
            let reply = client
                .score_dense(n_features as u32, dense_rows(4, n_features, i))
                .expect("io ok");
            match reply {
                ScoreReply::Scores { .. } => {}
                ScoreReply::Rejected { code: ErrorCode::Overloaded, .. } => {}
                other => panic!("polite client got an untyped reply: {other:?}"),
            }
        }
    });

    let mut total_admitted = 0;
    let mut total_shed = 0;
    for fh in flooders {
        let (a, s) = fh.join().expect("flooder panicked");
        total_admitted += a;
        total_shed += s;
    }
    polite.join().expect("polite client panicked");

    assert_eq!(total_admitted + total_shed, FLOODERS * BURST * BURSTS, "no reply lost");
    assert!(total_shed > 0, "queue depth 2 must shed under a pipelined flood");
    assert!(total_admitted > 0, "some requests must still be admitted");
    // The polite client's shed replies count too, so the server's counter
    // is at least the flooders' tally.
    let snap = h.snapshot();
    assert!(snap.counters.sheds >= total_shed as u64, "server counted every shed: {snap:?}");
    h.shutdown();
    h.wait();
}
