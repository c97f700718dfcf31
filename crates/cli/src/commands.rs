//! The CLI subcommand implementations.

use crate::opts::Opts;
use harp_data::{Dataset, DatasetKind, FeatureMatrix, SynthConfig};
use harp_metrics::{DiffOptions, DiffReport, RunLedger};
use harpgbdt::trainer::{EvalMetric, EvalOptions};
use harpgbdt::{
    BlockConfig, GbdtModel, GbdtTrainer, GrowthMethod, LedgerConfig, LossKind, ParallelMode,
    TraceConfig, TrainParams,
};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

fn load(path: &str) -> Result<Dataset, String> {
    harp_data::io::read_path(path).map_err(|e| format!("failed to read {path}: {e}"))
}

fn load_model(path: &str) -> Result<GbdtModel, String> {
    GbdtModel::load(path).map_err(|e| format!("failed to load model {path}: {e}"))
}

/// Parses `--loss`. The accepted names, parameter defaults, and the
/// unknown-name error all come from the objective registry
/// ([`harpgbdt::objective::REGISTRY`]), so this list cannot drift from the
/// set of objectives the trainer actually supports.
fn parse_loss(s: &str) -> Result<LossKind, String> {
    LossKind::parse(s)
}

/// Reads whitespace/newline-separated query-group sizes from `path` and
/// attaches them to `data`, validating that they cover the rows exactly.
fn attach_groups(data: Dataset, path: &str) -> Result<Dataset, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("failed to read {path}: {e}"))?;
    let mut sizes = Vec::new();
    for tok in text.split_whitespace() {
        let s: u32 = tok.parse().map_err(|_| format!("{path}: bad group size {tok:?}"))?;
        if s == 0 {
            return Err(format!("{path}: query groups must be non-empty"));
        }
        sizes.push(s);
    }
    let total: usize = sizes.iter().map(|&s| s as usize).sum();
    if total != data.n_rows() {
        return Err(format!(
            "{path}: group sizes sum to {total} rows but the data has {}",
            data.n_rows()
        ));
    }
    Ok(data.with_query_groups(sizes))
}

fn parse_mode(s: &str) -> Result<ParallelMode, String> {
    match s {
        "dp" => Ok(ParallelMode::DataParallel),
        "mp" => Ok(ParallelMode::ModelParallel),
        "sync" => Ok(ParallelMode::Sync),
        "async" => Ok(ParallelMode::Async),
        other => Err(format!("unknown mode {other:?} (dp|mp|sync|async)")),
    }
}

/// Parses `--blocks R,N,F,B` / `--auto-blocks` into a [`BlockConfig`]
/// (`0` = unlimited, matching `TrainParams`; `--auto-blocks` selects the
/// cost-model auto-tuner). Degenerate explicit configs are rejected by
/// `TrainParams::validate` with the rest of the parameters.
fn parse_blocks(opts: &Opts) -> Result<BlockConfig, String> {
    let explicit = opts.get("--blocks");
    if opts.switch("--auto-blocks") {
        if explicit.is_some() {
            return Err("--blocks and --auto-blocks are mutually exclusive".into());
        }
        return Ok(BlockConfig::Auto);
    }
    let Some(s) = explicit else {
        return Ok(BlockConfig::default());
    };
    let parts: Vec<&str> = s.split(',').collect();
    if parts.len() != 4 {
        return Err(format!("--blocks expects R,N,F,B (four comma-separated sizes), got {s:?}"));
    }
    let mut v = [0usize; 4];
    for (dst, p) in v.iter_mut().zip(&parts) {
        *dst = p.trim().parse().map_err(|_| format!("--blocks: cannot parse {p:?}"))?;
    }
    Ok(BlockConfig {
        row_blk_size: v[0],
        node_blk_size: v[1],
        feature_blk_size: v[2],
        bin_blk_size: v[3],
    })
}

/// Parses a byte count with an optional binary suffix: `1048576`, `512k`,
/// `96m`, `2g` (case-insensitive, powers of 1024).
fn parse_bytes(s: &str) -> Result<u64, String> {
    let t = s.trim();
    let (num, shift) = match t.char_indices().last() {
        Some((i, 'k' | 'K')) => (&t[..i], 10),
        Some((i, 'm' | 'M')) => (&t[..i], 20),
        Some((i, 'g' | 'G')) => (&t[..i], 30),
        _ => (t, 0),
    };
    let n: u64 = num.trim().parse().map_err(|_| format!("cannot parse byte count {s:?}"))?;
    n.checked_shl(shift)
        .filter(|v| v >> shift == n)
        .ok_or_else(|| format!("byte count {s:?} overflows"))
}

/// Default cache-file path next to the data file.
fn default_cache_path(data: &str) -> String {
    format!("{data}.qsc")
}

/// Quantizes `data` with the trainer's default binning configuration
/// (the cache must hold exactly the matrix `train` would build in-core, or
/// chunked training could not be bitwise-identical). Also returns the
/// report line saying how long the two set-up passes took — time no trainer
/// phase or ledger record covers.
fn quantize_default(data: &Dataset) -> (harpgbdt::QuantizedMatrix, String) {
    let (qm, t) = harpgbdt::QuantizedMatrix::from_matrix_timed(
        &data.features,
        harpgbdt::BinningConfig::default(),
    );
    (qm, format!("setup: cuts {:.3} s, quantize {:.3} s", t.cut_secs, t.quantize_secs))
}

/// Quantizes `data`, writes its chunk cache to `path` and opens (which
/// verifies) it under `mem_budget` resident bytes. The returned line times
/// all four steps of the chunked set-up.
fn build_cache(
    data: &Dataset,
    path: &str,
    rows_per_chunk: usize,
    mem_budget: u64,
) -> Result<(harpgbdt::ChunkedStore, String), String> {
    let (qm, mut line) = quantize_default(data);
    let start = Instant::now();
    harpgbdt::write_cache(&qm, rows_per_chunk, Path::new(path))
        .map_err(|e| format!("failed to build cache {path}: {e}"))?;
    let cache_write_secs = start.elapsed().as_secs_f64();
    drop(qm);
    let start = Instant::now();
    let store = harpgbdt::ChunkedStore::open(Path::new(path), mem_budget)
        .map_err(|e| format!("failed to open cache {path}: {e}"))?;
    let open_secs = start.elapsed().as_secs_f64();
    let _ = write!(line, ", cache write {cache_write_secs:.3} s, open+verify {open_secs:.3} s");
    Ok((store, line))
}

/// Opens the chunk cache for `data` at `path` under `mem_budget` resident
/// bytes. An existing cache is reused only if it is no older than the data
/// file, holds the data's row and feature counts and, when
/// `--rows-per-chunk` was given, is cut into chunks of that many rows;
/// otherwise it is rebuilt, and the returned line says why. A data file
/// replaced by an older-dated one of the same shape is not detected.
fn open_or_build_cache(
    data: &Dataset,
    data_path: &str,
    path: &str,
    rows_per_chunk: Option<usize>,
    mem_budget: u64,
) -> Result<(harpgbdt::ChunkedStore, String), String> {
    let modified = |p: &str| std::fs::metadata(p).and_then(|m| m.modified()).ok();
    let stale = if !Path::new(path).exists() {
        None
    } else if modified(path) < modified(data_path) {
        Some(format!("it is older than {data_path}"))
    } else {
        let store = harpgbdt::ChunkedStore::open(Path::new(path), mem_budget)
            .map_err(|e| format!("failed to open cache {path}: {e}"))?;
        let (s, cols) = (store.summary(), harpgbdt::QuantStore::n_features(&store));
        let (rows, want) = (data.n_rows(), data.n_features());
        if (s.n_rows, cols) != (rows, want) {
            Some(format!("it holds {} rows x {cols} features, the data {rows} x {want}", s.n_rows))
        } else if let Some(r) = rows_per_chunk.filter(|&r| r != s.rows_per_chunk) {
            Some(format!("it has {} rows per chunk, not {r}", s.rows_per_chunk))
        } else {
            return Ok((store, format!("external memory: reusing cache {path}")));
        }
    };
    let rows_per_chunk = rows_per_chunk.unwrap_or(harpgbdt::DEFAULT_ROWS_PER_CHUNK);
    let (store, setup_line) = build_cache(data, path, rows_per_chunk, mem_budget)?;
    let s = store.summary();
    let built = match stale {
        None => format!("built cache {path} ("),
        Some(why) => format!("rebuilt cache {path} ({why}; "),
    };
    let note = format!(
        "{setup_line}\nexternal memory: {built}{} chunks x {} rows, {} file bytes)",
        s.n_chunks, s.rows_per_chunk, s.file_bytes
    );
    Ok((store, note))
}

fn parse_growth(s: &str) -> Result<GrowthMethod, String> {
    match s {
        "leafwise" => Ok(GrowthMethod::Leafwise),
        "depthwise" => Ok(GrowthMethod::Depthwise),
        other => Err(format!("unknown growth {other:?} (leafwise|depthwise)")),
    }
}

/// `harpgbdt train`.
pub fn train(args: &[String]) -> Result<String, String> {
    let opts = Opts::parse("train", args)?;
    let trace_out = opts.get("--trace-out");
    let ledger_out = opts.get("--ledger-out");
    // Reject unusable external-memory knobs up front — before the (possibly
    // long) data load — rather than silently ignoring them.
    let external = opts.switch("--external-memory");
    if !external {
        for flag in ["--mem-budget", "--cache", "--rows-per-chunk"] {
            if opts.get(flag).is_some() {
                return Err(format!("{flag} requires --external-memory"));
            }
        }
    }
    let data_path = opts.required("--data")?;
    let mut data = load(data_path)?;
    if let Some(p) = opts.get("--groups") {
        data = attach_groups(data, p)?;
    }
    let model_path = opts.required("--model")?;
    let defaults = TrainParams::default();
    let params = TrainParams {
        n_trees: opts.parse_or("--trees", 100usize)?,
        tree_size: opts.parse_or("--tree-size", 6u32)?,
        learning_rate: opts.parse_or("--learning-rate", defaults.learning_rate)?,
        gamma: opts.parse_or("--gamma", defaults.gamma)?,
        lambda: opts.parse_or("--lambda", defaults.lambda)?,
        min_child_weight: opts.parse_or("--min-child-weight", defaults.min_child_weight)?,
        max_delta_step: opts.parse_or("--max-delta-step", defaults.max_delta_step)?,
        growth: parse_growth(opts.get("--growth").unwrap_or("leafwise"))?,
        k: opts.parse_or("--k", 32usize)?,
        mode: parse_mode(opts.get("--mode").unwrap_or("dp"))?,
        n_threads: opts.parse_or("--threads", harp_parallel::current_num_threads_hint())?,
        loss: parse_loss(opts.get("--loss").unwrap_or("logistic"))?,
        subsample: opts.parse_or("--subsample", 1.0f32)?,
        colsample_bytree: opts.parse_or("--colsample", 1.0f32)?,
        seed: opts.parse_or("--seed", 0u64)?,
        blocks: parse_blocks(&opts)?,
        // The ledger's skew rows read the span trace, so --ledger-out turns
        // tracing on too (its queue counters are `Profile` entries, written
        // with or without a trace).
        trace: if trace_out.is_some() || ledger_out.is_some() {
            TraceConfig::enabled()
        } else {
            defaults.trace
        },
        ledger: if ledger_out.is_some() { LedgerConfig::enabled() } else { defaults.ledger },
        ..defaults
    };
    let trainer = GbdtTrainer::new(params.clone())?;

    let valid = match opts.get("--valid") {
        Some(path) => {
            let mut v = load(path)?;
            if let Some(p) = opts.get("--valid-groups") {
                v = attach_groups(v, p)?;
            }
            Some(v)
        }
        None => None,
    };
    let eval = match &valid {
        Some(v) => Some(EvalOptions {
            data: v,
            metric: params.loss.default_metric(),
            every: 1,
            early_stopping_rounds: opts.parse_opt("--early-stop")?,
        }),
        None => None,
    };

    let mut setup_notes: Vec<String> = Vec::new();
    let out = if external {
        let cache_path = opts
            .get("--cache")
            .map_or_else(|| default_cache_path(data_path), str::to_string);
        let rows_per_chunk = opts.parse_opt("--rows-per-chunk")?;
        let budget = parse_bytes(opts.get("--mem-budget").unwrap_or("256m"))?;
        let (store, note) =
            open_or_build_cache(&data, data_path, &cache_path, rows_per_chunk, budget)?;
        let decoded = store.summary().decoded_bytes;
        setup_notes.push(format!("{note}; budget {budget} bytes over {decoded} decoded"));
        let out = trainer.try_train_store_grouped(
            &store,
            &data.labels,
            None,
            data.query_groups.as_deref(),
            eval,
        )?;
        let io = harpgbdt::QuantStore::io_stats(&store);
        setup_notes.push(format!(
            "chunk I/O: {} loads, {} evictions; resident high water {} bytes",
            io.chunk_loads, io.chunk_evictions, io.resident_high_water
        ));
        out
    } else {
        // What `try_train_with_eval` does, with set-up timed on the way.
        let (qm, setup_line) = quantize_default(&data);
        setup_notes.push(setup_line);
        trainer.try_train_store_grouped(
            &qm,
            &data.labels,
            None,
            data.query_groups.as_deref(),
            eval,
        )?
    };
    out.model
        .save(model_path)
        .map_err(|e| format!("failed to save model {model_path}: {e}"))?;

    let mut report = String::new();
    let _ = writeln!(
        report,
        "trained {} trees on {} rows x {} features in {:.2}s ({:.2} ms/round)",
        out.model.n_trees(),
        data.n_rows(),
        data.n_features(),
        out.diagnostics.train_secs,
        out.diagnostics.mean_tree_secs() * 1e3
    );
    for note in &setup_notes {
        let _ = writeln!(report, "{note}");
    }
    if let Some(best) = out.diagnostics.trace.as_ref().and_then(|t| t.best_point()) {
        let _ = writeln!(report, "validation: best {:.5} at round {}", best.metric, best.iteration);
    }
    if let Some(path) = trace_out {
        let snap = out
            .diagnostics
            .span_trace
            .as_ref()
            .ok_or_else(|| "tracing was enabled but no span trace was collected".to_string())?;
        snap.write_chrome_trace(std::path::Path::new(path))
            .map_err(|e| format!("failed to write trace {path}: {e}"))?;
        let _ = writeln!(
            report,
            "trace: {} spans across {} lanes written to {path} (load in ui.perfetto.dev)",
            snap.n_spans(),
            snap.lanes.len()
        );
        if let Some(skew) = &out.diagnostics.worker_skew {
            let _ = writeln!(report, "per-phase worker skew:");
            let _ = write!(report, "{skew}");
        }
        // Span-duration tails, derived from the already-recorded trace —
        // the histograms cost the training hot path nothing extra.
        let durations = snap.phase_durations_ns();
        if !durations.is_empty() {
            let _ = writeln!(report, "per-phase span durations (from trace):");
            for (phase, durs) in durations {
                let hist = harp_metrics::HistogramSnapshot::from_durations(durs);
                let _ = writeln!(
                    report,
                    "  {phase:<12} p50 {:>9.1}us | p99 {:>9.1}us | p999 {:>9.1}us ({} spans)",
                    hist.quantile(0.5) as f64 / 1e3,
                    hist.quantile(0.99) as f64 / 1e3,
                    hist.quantile(0.999) as f64 / 1e3,
                    hist.count()
                );
            }
        }
    }
    if let Some(path) = ledger_out {
        let ledger = out
            .diagnostics
            .ledger
            .as_ref()
            .ok_or_else(|| "ledger was enabled but no ledger was collected".to_string())?;
        ledger
            .write_jsonl(Path::new(path))
            .map_err(|e| format!("failed to write ledger {path}: {e}"))?;
        let _ = writeln!(
            report,
            "ledger: {} round records written to {path} (inspect with `harpgbdt report --ledger {path}`)",
            ledger.len()
        );
    }
    let _ = writeln!(report, "model saved to {model_path}");
    Ok(report)
}

/// Scores `data` through a compiled engine, in parallel on `--threads`
/// workers (defaulting to the host's hint), returning raw margin scores. A
/// narrower dense file is an error; a narrower LIBSVM file is scored as it
/// is, its absent columns missing (`harpgbdt::predict::fits_width`).
fn predict_raw_threaded(
    opts: &Opts,
    engine: &harpgbdt::FlatForest,
    data: &Dataset,
) -> Result<Vec<f32>, String> {
    let sparse = matches!(data.features, FeatureMatrix::Sparse(_));
    if !harpgbdt::predict::fits_width(data.n_features(), sparse, engine.n_features()) {
        return Err(format!(
            "data has {} features but the model expects {}",
            data.n_features(),
            engine.n_features()
        ));
    }
    let threads: usize = opts.parse_or("--threads", harp_parallel::current_num_threads_hint())?;
    if threads <= 1 {
        Ok(engine.predict_raw(&data.features))
    } else {
        let pool = harp_parallel::ThreadPool::new(threads);
        Ok(engine.predict_raw_parallel(&data.features, &pool))
    }
}

/// `harpgbdt predict`.
pub fn predict(args: &[String]) -> Result<String, String> {
    let opts = Opts::parse("predict", args)?;
    let model = load_model(opts.required("--model")?)?;
    let data = load(opts.required("--data")?)?;
    let engine = model.compile();
    let raw = predict_raw_threaded(&opts, &engine, &data)?;
    let lines: Vec<String> = if opts.switch("--class") {
        engine.classes_from_raw(&raw).iter().map(u32::to_string).collect()
    } else if opts.switch("--raw") {
        format_rows(&raw, model.n_groups())
    } else {
        format_rows(&model.loss().transform_scores(&raw), model.n_groups())
    };
    let text = lines.join("\n") + "\n";
    match opts.get("--out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("failed to write {path}: {e}"))?;
            Ok(format!("{} predictions written to {path}\n", lines.len()))
        }
        None => Ok(text),
    }
}

fn format_rows(values: &[f32], groups: usize) -> Vec<String> {
    values
        .chunks_exact(groups)
        .map(|row| row.iter().map(|v| format!("{v}")).collect::<Vec<_>>().join(","))
        .collect()
}

/// `harpgbdt eval`: each of the `--metric` names' [`EvalMetric`]s (the
/// objective's [`EvalMetric::auto`] set for `auto`) on one line.
pub fn eval(args: &[String]) -> Result<String, String> {
    let opts = Opts::parse("eval", args)?;
    let model = load_model(opts.required("--model")?)?;
    let mut data = load(opts.required("--data")?)?;
    if let Some(p) = opts.get("--groups") {
        data = attach_groups(data, p)?;
    }
    let spec = model.loss();
    let metrics = match opts.get("--metric").unwrap_or("auto") {
        "auto" => EvalMetric::auto(spec),
        name => vec![EvalMetric::parse(name, spec)?],
    };
    let qg = data.query_groups.as_deref();
    for metric in &metrics {
        metric.check(spec, data.n_rows(), qg.is_some())?;
        metric.check_labels(spec, &data.labels)?;
    }
    let raw = predict_raw_threaded(&opts, &model.compile(), &data)?;
    let mut out = String::new();
    for metric in metrics {
        let value = metric.compute(&data.labels, &raw, spec, qg);
        let _ = writeln!(out, "{:<10} {value:.6}", metric.name());
    }
    Ok(out)
}

/// The `args` remainder and the `(A, B)` paths pulled out by [`extract_pair`].
type PairExtraction = (Vec<String>, Option<(String, String)>);

/// Pulls `flag A B` (a flag with two positional paths) out of `args` so the
/// remainder parses as ordinary `--flag value` pairs.
///
/// # Errors
/// Returns a message when the flag is present without two following paths.
fn extract_pair(args: &[String], flag: &str) -> Result<PairExtraction, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok((args.to_vec(), None));
    };
    let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
        return Err(format!("{flag} requires two file paths (A B)"));
    };
    if a.starts_with("--") || b.starts_with("--") {
        return Err(format!("{flag} requires two file paths (A B)"));
    }
    let pair = (a.clone(), b.clone());
    let mut rest = args.to_vec();
    rest.drain(i..i + 3);
    Ok((rest, Some(pair)))
}

/// One results table of a bench JSON dump (`results/BENCH_*.json`).
#[derive(serde::Deserialize)]
struct BenchTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// Parses a cell holding a dimensionless quantity (`"2.76x"`, `"42.1%"`).
/// Cells with physical units (ms, bytes) are machine-dependent and skipped,
/// as are explicitly signed percentages (`"+0.3%"`): those are noise deltas
/// near zero, where relative comparison is meaningless.
fn dimensionless(cell: &str) -> Option<f64> {
    let s = cell.trim();
    if s.starts_with(['+', '-']) {
        return None;
    }
    let num = s.strip_suffix('x').or_else(|| s.strip_suffix('%'))?;
    num.trim().parse().ok()
}

/// Flattens bench tables into `(title/row/column, value)` metrics over the
/// dimensionless cells.
fn bench_metrics(tables: &[BenchTable]) -> Vec<(String, f64)> {
    let mut m = Vec::new();
    for t in tables {
        for row in &t.rows {
            let Some(label) = row.first() else { continue };
            for (j, cell) in row.iter().enumerate().skip(1) {
                let Some(v) = dimensionless(cell) else { continue };
                let header = t.headers.get(j).map_or("col", String::as_str);
                m.push((format!("{}/{}/{}", t.title, label, header), v));
            }
        }
    }
    m
}

fn read_bench_metrics(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("failed to read {path}: {e}"))?;
    let tables: Vec<BenchTable> =
        serde_json::from_str(&text).map_err(|e| format!("failed to parse {path}: {e:?}"))?;
    Ok(bench_metrics(&tables))
}

/// Renders a diff and converts a tripped gate into `Err` (non-zero exit).
fn finish_diff(a: &str, b: &str, diff: &DiffReport) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(out, "A = {a}");
    let _ = writeln!(out, "B = {b}");
    out.push_str(&diff.render());
    if diff.failed() {
        Err(out)
    } else {
        Ok(out)
    }
}

/// `harpgbdt report`.
pub fn report(args: &[String]) -> Result<String, String> {
    // --diff / --bench-diff take two positional paths; pull them out before
    // flag parsing (the parser accepts only --flag value pairs).
    let (args, diff) = extract_pair(args, "--diff")?;
    let (args, bench_diff) = extract_pair(&args, "--bench-diff")?;
    let opts = Opts::parse("report", &args)?;
    let d = DiffOptions::default();
    let diff_opts = DiffOptions {
        tolerance: opts.parse_or("--tolerance", d.tolerance)?,
        warn: opts.parse_or("--warn", d.warn)?,
        time_tolerance: opts.parse_or("--time-tolerance", d.time_tolerance)?,
        time_floor_secs: opts.parse_or("--time-floor", d.time_floor_secs)?,
    };
    // --ignore drops metrics by name prefix before gating — for diffs across
    // configs whose diagnostics are expected to differ (e.g. chunk-I/O
    // traffic when comparing an in-core run against an external-memory one).
    let ignore: Vec<String> = opts
        .get("--ignore")
        .map(|s| {
            s.split(',')
                .map(str::trim)
                .filter(|p| !p.is_empty())
                .map(String::from)
                .collect()
        })
        .unwrap_or_default();
    let keep = |metrics: Vec<(String, f64)>| -> Vec<(String, f64)> {
        metrics
            .into_iter()
            .filter(|(n, _)| !ignore.iter().any(|p| n.starts_with(p)))
            .collect()
    };
    if let Some(spec) = opts.get("--slo") {
        if diff.is_some() || bench_diff.is_some() {
            return Err("--slo cannot be combined with --diff/--bench-diff".to_string());
        }
        return report_slo(spec, &opts);
    }
    match (opts.get("--ledger"), diff, bench_diff) {
        (Some(path), None, None) => {
            let ledger = RunLedger::read_jsonl(Path::new(path))?;
            let mut out = String::new();
            let _ = writeln!(out, "{path}: {} round records", ledger.len());
            let _ = writeln!(out);
            out.push_str(&ledger.render_rounds());
            let _ = writeln!(out);
            out.push_str(&ledger.summary().render());
            Ok(out)
        }
        (None, Some((a, b)), None) => {
            let la = RunLedger::read_jsonl(Path::new(&a))?;
            let lb = RunLedger::read_jsonl(Path::new(&b))?;
            let ma = keep(la.summary().metrics);
            let mb = keep(lb.summary().metrics);
            let diff = DiffReport::compare_metrics(&ma, &mb, &diff_opts);
            finish_diff(&a, &b, &diff)
        }
        (None, None, Some((a, b))) => {
            let ma = keep(read_bench_metrics(&a)?);
            let mb = keep(read_bench_metrics(&b)?);
            let diff = DiffReport::compare_metrics(&ma, &mb, &diff_opts);
            finish_diff(&a, &b, &diff)
        }
        _ => {
            Err("report needs exactly one of: --ledger FILE, --diff A B, --bench-diff A B"
                .to_string())
        }
    }
}

/// The `report --slo` gate: judges recorded latency histograms against
/// absolute tail budgets; a tripped budget returns `Err` (non-zero exit),
/// mirroring the `--diff` gate's discipline.
fn report_slo(spec: &str, opts: &Opts) -> Result<String, String> {
    let specs = harp_metrics::parse_slo(spec)?;
    let (source, hists) = match (opts.get("--ledger"), opts.get("--snapshot")) {
        (Some(path), None) => {
            let ledger = RunLedger::read_jsonl(Path::new(path))?;
            // Epoch records carry per-epoch histogram deltas; merging them
            // reconstructs the whole run's distribution.
            let mut merged = harp_metrics::LatencySet::default();
            for r in ledger.records() {
                merged.merge(&r.latency);
            }
            (path.to_string(), merged.0)
        }
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("failed to read snapshot {path}: {e}"))?;
            let snap: harp_serve::StatsSnapshot = serde_json::from_str(&text)
                .map_err(|e| format!("failed to parse snapshot {path}: {e}"))?;
            (path.to_string(), snap.latency.0)
        }
        _ => {
            return Err("--slo needs exactly one of: --ledger FILE (serve ledger JSONL) or \
                        --snapshot FILE (Stats-reply JSON)"
                .to_string())
        }
    };
    let verdict = harp_metrics::evaluate_slo(&specs, &hists);
    let mut out = String::new();
    let _ = writeln!(out, "SLO gate over {source}:");
    out.push_str(&verdict.render());
    if verdict.failed() {
        Err(out)
    } else {
        Ok(out)
    }
}

/// `harpgbdt importance`.
pub fn importance(args: &[String]) -> Result<String, String> {
    let opts = Opts::parse("importance", args)?;
    let model = load_model(opts.required("--model")?)?;
    let top: usize = opts.parse_or("--top", 20usize)?;
    let mut rows: Vec<(usize, f64, u64)> = model
        .feature_importance()
        .iter()
        .enumerate()
        .map(|(f, i)| (f, i.gain, i.splits))
        .filter(|r| r.2 > 0)
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out = String::new();
    let _ = writeln!(out, "{:<10} {:>14} {:>8}", "feature", "gain", "splits");
    for (f, gain, splits) in rows.into_iter().take(top) {
        let _ = writeln!(out, "f{f:<9} {gain:>14.4} {splits:>8}");
    }
    Ok(out)
}

/// `harpgbdt dump`.
pub fn dump(args: &[String]) -> Result<String, String> {
    let opts = Opts::parse("dump", args)?;
    let model = load_model(opts.required("--model")?)?;
    Ok(model.dump_text())
}

/// `harpgbdt synth`.
pub fn synth(args: &[String]) -> Result<String, String> {
    let opts = Opts::parse("synth", args)?;
    let kind = opts.required("--kind")?;
    let kind = DatasetKind::parse(kind)
        .ok_or_else(|| format!("unknown kind {kind:?} (higgs|airline|criteo|yfcc|synset)"))?;
    let out_path = opts.required("--out")?;
    let rows: Option<usize> = opts.parse_opt("--rows")?;
    let seed: u64 = opts.parse_or("--seed", 42u64)?;
    let scale = rows.map_or(1.0, |r| r as f64 / kind.base_rows() as f64);
    let data = SynthConfig::new(kind, seed).with_scale(scale).generate();
    let file =
        std::fs::File::create(out_path).map_err(|e| format!("failed to create {out_path}: {e}"))?;
    let writer = std::io::BufWriter::new(file);
    let result = if out_path.ends_with(".csv") {
        harp_data::io::write_csv(writer, &data)
    } else {
        harp_data::io::write_libsvm(writer, &data)
    };
    result.map_err(|e| format!("failed to write {out_path}: {e}"))?;
    Ok(format!(
        "wrote {} ({} rows x {} features) to {out_path}\n",
        kind.name(),
        data.n_rows(),
        data.n_features()
    ))
}

/// `harpgbdt cache` — quantize a data file and write the chunked
/// external-memory cache ahead of time, so `train --external-memory` (and
/// repeated experiment sweeps) skip the quantization pass entirely.
pub fn cache(args: &[String]) -> Result<String, String> {
    let opts = Opts::parse("cache", args)?;
    let data = load(opts.required("--data")?)?;
    let out_path = opts
        .get("--out")
        .map_or_else(|| default_cache_path(opts.required("--data").unwrap()), str::to_string);
    let rows_per_chunk = opts.parse_or("--rows-per-chunk", harpgbdt::DEFAULT_ROWS_PER_CHUNK)?;
    // Opened only to verify what was written; nothing is decoded.
    let (store, setup_line) = build_cache(&data, &out_path, rows_per_chunk, 0)?;
    let summary = store.summary();
    Ok(format!(
        "{setup_line}\n\
         cached {} rows x {} features to {out_path}\n\
         {} chunks x {} rows | {} file bytes | {} decoded bytes ({:.2}x)\n",
        summary.n_rows,
        data.n_features(),
        summary.n_chunks,
        summary.rows_per_chunk,
        summary.file_bytes,
        summary.decoded_bytes,
        summary.decoded_bytes as f64 / summary.file_bytes.max(1) as f64
    ))
}

/// `harpgbdt serve` — a long-running scoring server over the compiled
/// forest. Prints the listening line immediately (stdout, flushed), then
/// blocks until a `Shutdown` frame arrives; the returned summary prints
/// after the server drains.
pub fn serve(args: &[String]) -> Result<String, String> {
    let opts = Opts::parse("serve", args)?;
    let model_path = opts.required("--model")?;
    let model = load_model(model_path)?;
    let forest = model.compile();
    let (n_trees, n_features) = (forest.n_trees(), forest.n_features());
    let trace_out = opts.get("--trace-out").map(str::to_string);
    let defaults = harp_serve::ServeConfig::default();
    let cfg = harp_serve::ServeConfig {
        addr: opts.get("--addr").unwrap_or("127.0.0.1:7077").to_string(),
        threads: opts.parse_or("--threads", defaults.threads)?,
        window_us: opts.parse_or("--window-us", defaults.window_us)?,
        max_batch_rows: opts.parse_or("--max-batch-rows", defaults.max_batch_rows)?,
        queue_depth: opts.parse_or("--queue-depth", defaults.queue_depth)?,
        max_rows_per_req: opts.parse_or("--max-rows-per-req", defaults.max_rows_per_req)?,
        model_path: Some(model_path.into()),
        watch_ms: opts.parse_opt("--watch-ms")?,
        ledger_out: opts.get("--ledger-out").map(Into::into),
        ledger_every_batches: opts.parse_or("--ledger-every", defaults.ledger_every_batches)?,
        trace: trace_out.is_some(),
        metrics_addr: opts.get("--metrics-addr").map(str::to_string),
    };
    let mut handle =
        harp_serve::serve(forest, cfg).map_err(|e| format!("failed to start server: {e}"))?;
    // The listening line must appear before `run()` returns: clients (and
    // the CI smoke job) wait for it before connecting.
    println!(
        "serving {model_path} ({n_trees} trees, {n_features} features) on {} — send a Shutdown \
         frame (or `bench_serve --shutdown`) to stop",
        handle.local_addr()
    );
    if let Some(addr) = handle.metrics_addr() {
        println!("metrics: http://{addr}/metrics (Prometheus text exposition)");
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    while !handle.is_shutting_down() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    handle.wait();
    let snap = handle.snapshot();
    if let Some(path) = trace_out {
        if let Some(sink) = handle.trace() {
            sink.snapshot()
                .write_chrome_trace(Path::new(&path))
                .map_err(|e| format!("failed to write trace {path}: {e}"))?;
        }
    }
    let (mut s, c) = (String::new(), &snap.counters);
    let _ = writeln!(
        s,
        "served {} requests ({} rows) in {} batches over {} connections",
        c.requests, c.rows, c.batches, c.connections
    );
    let _ = writeln!(
        s,
        "sheds {} | protocol errors {} | swaps {} (gen {})",
        c.sheds, c.protocol_errors, c.swaps, snap.generation
    );
    let phases: Vec<String> = snap
        .phase_secs()
        .map(|(name, secs)| format!("{} {secs:.3}", name.replace('_', "-")))
        .collect();
    let _ = writeln!(s, "phase seconds: {}", phases.join(" | "));
    for (name, hist) in &snap.latency.0 {
        if hist.is_empty() {
            continue;
        }
        let _ = writeln!(
            s,
            "latency {name:<11} p50 {:>9.3}ms | p99 {:>9.3}ms | p999 {:>9.3}ms ({} samples)",
            hist.quantile(0.5) as f64 / 1e6,
            hist.quantile(0.99) as f64 / 1e6,
            hist.quantile(0.999) as f64 / 1e6,
            hist.count()
        );
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_parsing() {
        assert_eq!(parse_loss("logistic").unwrap(), LossKind::Logistic);
        assert_eq!(parse_loss("squared").unwrap(), LossKind::SquaredError);
        assert_eq!(parse_loss("softmax:4").unwrap(), LossKind::Softmax { n_classes: 4 });
        assert_eq!(parse_loss("quantile:0.9").unwrap(), LossKind::Quantile { alpha: 0.9 });
        assert_eq!(parse_loss("tweedie").unwrap(), LossKind::Tweedie { power: 1.5 });
        assert_eq!(parse_loss("huber:2").unwrap(), LossKind::Huber { delta: 2.0 });
        assert_eq!(parse_loss("lambdarank:5").unwrap(), LossKind::LambdaRank { k: 5 });
        assert!(parse_loss("softmax:x").is_err());
        assert!(parse_loss("quantile:1.5").is_err(), "out-of-range alpha is rejected");
        let err = parse_loss("hinge").unwrap_err();
        assert!(err.contains("lambdarank:K"), "unknown-loss error lists the registry: {err}");
    }

    #[test]
    fn train_help_prints_the_registry() {
        let help = crate::run(&args(&["train", "--help"])).unwrap();
        for info in harpgbdt::objective::REGISTRY {
            assert!(help.contains(info.syntax), "--help must list {}", info.syntax);
        }
        assert!(help.contains("--groups FILE"));
    }

    #[test]
    fn metric_parsing_defaults_come_from_the_model() {
        let m = EvalMetric::parse("pinball", LossKind::Quantile { alpha: 0.9 }).unwrap();
        assert_eq!(m, EvalMetric::Pinball { alpha: 0.9 });
        let m = EvalMetric::parse("pinball:0.25", LossKind::Logistic).unwrap();
        assert_eq!(m, EvalMetric::Pinball { alpha: 0.25 });
        let m = EvalMetric::parse("ndcg", LossKind::LambdaRank { k: 5 }).unwrap();
        assert_eq!(m, EvalMetric::NdcgAt { k: 5 });
        let m = EvalMetric::parse("tweedie:1.7", LossKind::Tweedie { power: 1.3 }).unwrap();
        assert_eq!(m, EvalMetric::TweedieDeviance { power: 1.7 });
        assert!(EvalMetric::parse("ndcg:x", LossKind::Logistic).is_err());
        let err = EvalMetric::parse("gini", LossKind::Logistic).unwrap_err();
        assert!(err.contains("pinball[:A]"), "unknown metric lists the accepted set: {err}");
    }

    #[test]
    fn mode_and_growth_parsing() {
        assert_eq!(parse_mode("async").unwrap(), ParallelMode::Async);
        assert!(parse_mode("turbo").is_err());
        assert_eq!(parse_growth("depthwise").unwrap(), GrowthMethod::Depthwise);
        assert!(parse_growth("widthwise").is_err());
    }

    #[test]
    fn block_flag_parsing() {
        let o = Opts::parse("train", &args(&["--blocks", "0,32,16,0"])).unwrap();
        let b = parse_blocks(&o).unwrap();
        assert_eq!(
            (b.row_blk_size, b.node_blk_size, b.feature_blk_size, b.bin_blk_size),
            (0, 32, 16, 0)
        );
        let o = Opts::parse("train", &args(&["--auto-blocks"])).unwrap();
        assert!(parse_blocks(&o).unwrap().is_auto());
        let o = Opts::parse("train", &args(&[])).unwrap();
        assert_eq!(parse_blocks(&o).unwrap(), BlockConfig::default());
        let o = Opts::parse("train", &args(&["--blocks", "1,2,3"])).unwrap();
        assert!(parse_blocks(&o).is_err(), "three extents must be rejected");
        let o = Opts::parse("train", &args(&["--blocks", "1,2,3,4", "--auto-blocks"])).unwrap();
        assert!(parse_blocks(&o).is_err(), "mutually exclusive flags");
    }

    #[test]
    fn byte_count_parsing() {
        assert_eq!(parse_bytes("1048576").unwrap(), 1 << 20);
        assert_eq!(parse_bytes("512k").unwrap(), 512 << 10);
        assert_eq!(parse_bytes("96M").unwrap(), 96 << 20);
        assert_eq!(parse_bytes("2g").unwrap(), 2 << 30);
        assert!(parse_bytes("12q").is_err());
        assert!(parse_bytes("").is_err());
        assert!(parse_bytes("99999999999999999999g").is_err(), "overflow is an error");
    }

    #[test]
    fn external_memory_knobs_require_the_switch() {
        let err = train(&args(&["--data", "x.csv", "--model", "m.json", "--mem-budget", "64m"]))
            .unwrap_err();
        assert!(err.contains("--external-memory"), "{err}");
    }

    #[test]
    fn cache_then_external_memory_train_roundtrip() {
        let dir = std::env::temp_dir();
        let data_path = dir.join("harp_cli_xmem.csv");
        let model_a = dir.join("harp_cli_xmem_a.json");
        let model_b = dir.join("harp_cli_xmem_b.json");
        let cache_path = dir.join("harp_cli_xmem.qsc");
        let data = SynthConfig::new(DatasetKind::HiggsLike, 11).with_scale(0.02).generate();
        let file = std::fs::File::create(&data_path).unwrap();
        harp_data::io::write_csv(std::io::BufWriter::new(file), &data).unwrap();

        let out = cache(&args(&[
            "--data",
            data_path.to_str().unwrap(),
            "--out",
            cache_path.to_str().unwrap(),
            "--rows-per-chunk",
            "64",
        ]))
        .unwrap();
        assert!(out.contains("chunks"), "{out}");
        // The set-up line covers all four steps of the chunked set-up.
        let covers_setup = |text: &str| {
            let line = text.lines().find(|l| l.starts_with("setup: cuts ")).unwrap_or("");
            ["quantize ", "cache write ", "open+verify "]
                .iter()
                .all(|part| line.contains(part))
        };
        assert!(covers_setup(&out), "{out}");

        let common = ["--trees", "4", "--tree-size", "3", "--threads", "2", "--seed", "7"];
        let mut a = args(&["--data", data_path.to_str().unwrap()]);
        a.extend(args(&["--model", model_a.to_str().unwrap()]));
        a.extend(args(&common));
        let report = train(&a).unwrap();
        assert!(report.contains("setup: cuts "), "{report}");

        let mut b = args(&["--data", data_path.to_str().unwrap()]);
        b.extend(args(&["--model", model_b.to_str().unwrap()]));
        b.extend(args(&common));
        b.extend(args(&[
            "--external-memory",
            "--cache",
            cache_path.to_str().unwrap(),
            "--mem-budget",
            "64k",
        ]));
        let report = train(&b).unwrap();
        assert!(report.contains("reusing cache"), "{report}");
        assert!(report.contains("chunk I/O"), "{report}");

        // The external-memory model is byte-identical to the in-core one.
        let ja = std::fs::read_to_string(&model_a).unwrap();
        let jb = std::fs::read_to_string(&model_b).unwrap();
        assert_eq!(ja, jb, "chunked training must match in-core bitwise");

        // First use builds the cache itself and reports the same line.
        std::fs::remove_file(&cache_path).unwrap();
        let report = train(&b).unwrap();
        assert!(report.contains("built cache"), "{report}");
        assert!(covers_setup(&report), "{report}");
        assert_eq!(ja, std::fs::read_to_string(&model_b).unwrap());
        for p in [data_path, model_a, model_b, cache_path] {
            std::fs::remove_file(p).ok();
        }
    }

    fn write_higgs(path: &Path, seed: u64, scale: f64) {
        let data = SynthConfig::new(DatasetKind::HiggsLike, seed).with_scale(scale).generate();
        let file = std::fs::File::create(path).unwrap();
        harp_data::io::write_csv(std::io::BufWriter::new(file), &data).unwrap();
    }

    /// Dates `path` `secs` after (or, negative, before) `reference`.
    fn date_after(path: &Path, reference: &Path, secs: i64) {
        let at = std::fs::metadata(reference).unwrap().modified().unwrap();
        let step = std::time::Duration::from_secs(secs.unsigned_abs());
        let when = if secs >= 0 { at + step } else { at - step };
        std::fs::File::options()
            .write(true)
            .open(path)
            .unwrap()
            .set_modified(when)
            .unwrap();
    }

    /// Trains a small model on `data` into `model` with `extra` flags;
    /// returns the report and the saved model.
    fn train_small(data: &Path, model: &Path, extra: &[&str]) -> (String, String) {
        let mut a = args(&["--data", data.to_str().unwrap(), "--model", model.to_str().unwrap()]);
        a.extend(args(&["--trees", "3", "--tree-size", "3", "--threads", "2", "--seed", "7"]));
        a.extend(args(extra));
        let report = train(&a).unwrap();
        (report, std::fs::read_to_string(model).unwrap())
    }

    #[test]
    fn a_newer_data_file_of_the_same_shape_rebuilds_the_cache() {
        let dir = std::env::temp_dir();
        let (data, cache_path) = (dir.join("harp_cli_newer.csv"), dir.join("harp_cli_newer.qsc"));
        let (model_a, model_b) =
            (dir.join("harp_cli_newer_a.json"), dir.join("harp_cli_newer_b.json"));
        let cache_arg = cache_path.to_str().unwrap();
        let chunked = ["--external-memory", "--cache", cache_arg, "--mem-budget", "64k"];
        write_higgs(&data, 1, 0.02);
        cache(&args(&["--data", data.to_str().unwrap(), "--out", cache_arg])).unwrap();
        // Same shape, other values, dated after the cache.
        write_higgs(&data, 2, 0.02);
        date_after(&data, &cache_path, 5);
        let (report, chunked_model) = train_small(&data, &model_b, &chunked);
        let (_, in_core) = train_small(&data, &model_a, &[]);
        assert_eq!(chunked_model, in_core, "a stale cache trained another model: {report}");
        assert!(report.contains("rebuilt cache") && report.contains("older than"), "{report}");
        // Dated before the rebuilt cache, the data is what it holds, at the
        // default chunk size it was rebuilt with.
        date_after(&data, &cache_path, -5);
        let (report, _) = train_small(&data, &model_b, &chunked);
        assert!(report.contains("reusing cache"), "{report}");
        // A differing --rows-per-chunk rebuilds; the same one reuses.
        let at_64 = [&chunked[..], &["--rows-per-chunk", "64"]].concat();
        let (report, _) = train_small(&data, &model_b, &at_64);
        assert!(report.contains("rows per chunk, not 64"), "{report}");
        let (report, _) = train_small(&data, &model_b, &at_64);
        assert!(report.contains("reusing cache"), "{report}");
        for p in [data, cache_path, model_a, model_b] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn a_cache_of_another_row_count_is_rebuilt() {
        let dir = std::env::temp_dir();
        let (data, cache_path) = (dir.join("harp_cli_rows.csv"), dir.join("harp_cli_rows.qsc"));
        let (model_a, model_b) =
            (dir.join("harp_cli_rows_a.json"), dir.join("harp_cli_rows_b.json"));
        let cache_arg = cache_path.to_str().unwrap();
        write_higgs(&data, 1, 0.025);
        cache(&args(&["--data", data.to_str().unwrap(), "--out", cache_arg])).unwrap();
        // Fewer rows, dated before the cache: only the shape tells.
        write_higgs(&data, 2, 0.02);
        date_after(&data, &cache_path, -5);
        let chunked = ["--external-memory", "--cache", cache_arg, "--mem-budget", "64k"];
        let (report, chunked_model) = train_small(&data, &model_b, &chunked);
        assert!(report.contains("rebuilt cache") && report.contains("500 rows x 28"), "{report}");
        let (_, in_core) = train_small(&data, &model_a, &[]);
        assert_eq!(chunked_model, in_core, "a rebuilt cache trains the in-core model");
        for p in [data, cache_path, model_a, model_b] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn format_rows_groups() {
        assert_eq!(format_rows(&[1.0, 2.0, 3.0, 4.0], 2), vec!["1,2", "3,4"]);
        assert_eq!(format_rows(&[1.5], 1), vec!["1.5"]);
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn extract_pair_pulls_two_positionals() {
        let (rest, pair) =
            extract_pair(&args(&["--diff", "a.jsonl", "b.jsonl", "--warn", "0.2"]), "--diff")
                .unwrap();
        assert_eq!(pair, Some(("a.jsonl".into(), "b.jsonl".into())));
        assert_eq!(rest, args(&["--warn", "0.2"]));
        let (rest, pair) = extract_pair(&args(&["--warn", "0.2"]), "--diff").unwrap();
        assert_eq!(pair, None);
        assert_eq!(rest, args(&["--warn", "0.2"]));
        assert!(extract_pair(&args(&["--diff", "a.jsonl"]), "--diff").is_err());
        assert!(extract_pair(&args(&["--diff", "a.jsonl", "--warn"]), "--diff").is_err());
    }

    #[test]
    fn dimensionless_cells_only() {
        assert_eq!(dimensionless("2.76x"), Some(2.76));
        assert_eq!(dimensionless(" 42.1% "), Some(42.1));
        assert_eq!(dimensionless("3.14"), None, "unitless plain numbers are ambiguous");
        assert_eq!(dimensionless("12.5 ms"), None);
        assert_eq!(dimensionless("+0.3%"), None, "signed deltas are run-to-run noise");
        assert_eq!(dimensionless("-1.2%"), None);
    }

    fn write_ledger(name: &str, rounds: &[(u64, u64)]) -> std::path::PathBuf {
        write_ledger_eval(name, rounds, None)
    }

    fn write_ledger_eval(
        name: &str,
        rounds: &[(u64, u64)],
        eval_last: Option<f64>,
    ) -> std::path::PathBuf {
        let mut ledger = RunLedger::new();
        for &(round, tasks) in rounds {
            let is_last = round == rounds.last().unwrap().0;
            ledger.push(harp_metrics::LedgerRecord {
                round,
                elapsed_secs: 0.01 * round as f64,
                round_secs: 0.01,
                phase_secs: vec![("build_hist".into(), 0.006)],
                counters: vec![("tasks".into(), tasks)],
                eval_metric: if is_last { eval_last } else { None },
                n_leaves: 31,
                max_depth: 6,
                mean_k_per_pop: 8.0,
                mem: Vec::new(),
                skew: Vec::new(),
                plan: harp_metrics::PlanStats { batches: 1, tasks },
                latency: Default::default(),
            });
        }
        let path = std::env::temp_dir().join(name);
        ledger.write_jsonl(&path).unwrap();
        path
    }

    #[test]
    fn report_diff_passes_identical_and_fails_on_drift() {
        let a = write_ledger("harp_cli_diff_a.jsonl", &[(1, 100), (2, 100)]);
        let b = write_ledger("harp_cli_diff_b.jsonl", &[(1, 100), (2, 100)]);
        let c = write_ledger("harp_cli_diff_c.jsonl", &[(1, 100), (2, 300)]);
        let ab = args(&["--diff", a.to_str().unwrap(), b.to_str().unwrap()]);
        assert!(report(&ab).is_ok(), "identical ledgers must pass at zero tolerance");
        let ac = args(&["--diff", a.to_str().unwrap(), c.to_str().unwrap()]);
        let err = report(&ac).unwrap_err();
        assert!(err.contains("FAIL"), "counter drift must fail: {err}");
        // Widening the tolerance turns the same drift into a pass.
        let ac_loose = args(&[
            "--diff",
            a.to_str().unwrap(),
            c.to_str().unwrap(),
            "--tolerance",
            "0.9",
            "--warn",
            "0.9",
        ]);
        assert!(report(&ac_loose).is_ok());
        for p in [a, b, c] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn report_diff_gates_eval_metric_regression() {
        // A convergence ledger: identical phase records, but run C's final
        // eval metric drifted. `report --diff` must trip on `eval/last`.
        let a = write_ledger_eval("harp_cli_eval_a.jsonl", &[(1, 100), (2, 100)], Some(0.95));
        let b = write_ledger_eval("harp_cli_eval_b.jsonl", &[(1, 100), (2, 100)], Some(0.95));
        let c = write_ledger_eval("harp_cli_eval_c.jsonl", &[(1, 100), (2, 100)], Some(0.80));
        let ab = args(&["--diff", a.to_str().unwrap(), b.to_str().unwrap()]);
        assert!(report(&ab).is_ok(), "identical eval metrics must pass");
        let ac = args(&["--diff", a.to_str().unwrap(), c.to_str().unwrap()]);
        let err = report(&ac).unwrap_err();
        assert!(err.contains("FAIL"), "eval-metric drift must exit non-zero: {err}");
        assert!(err.contains("eval/last"), "the tripped row names the metric: {err}");
        for p in [a, b, c] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn report_requires_exactly_one_input() {
        assert!(report(&args(&[])).is_err());
    }

    /// A serve-shaped ledger: one epoch whose `predict` histogram carries
    /// the given samples.
    fn write_serve_ledger(name: &str, predict_ns: &[u64]) -> std::path::PathBuf {
        let mut ledger = RunLedger::new();
        ledger.push(harp_metrics::LedgerRecord {
            round: 1,
            elapsed_secs: 1.0,
            round_secs: 0.0,
            phase_secs: vec![("predict".into(), 0.001)],
            counters: vec![("requests".into(), predict_ns.len() as u64)],
            eval_metric: None,
            n_leaves: 0,
            max_depth: 0,
            mean_k_per_pop: 0.0,
            mem: Vec::new(),
            skew: Vec::new(),
            plan: Default::default(),
            latency: harp_metrics::LatencySet(vec![(
                "predict".into(),
                harp_metrics::HistogramSnapshot::from_durations(predict_ns.iter().copied()),
            )]),
        });
        let path = std::env::temp_dir().join(name);
        ledger.write_jsonl(&path).unwrap();
        path
    }

    #[test]
    fn report_slo_fails_non_zero_on_violation_and_passes_under_budget() {
        // p99 of these samples is ~3ms: a 1ms budget must trip, 250ms must not.
        let path = write_serve_ledger("harp_cli_slo.jsonl", &[1_000_000, 2_000_000, 3_000_000]);
        let tight = args(&["--slo", "predict:p99<1ms", "--ledger", path.to_str().unwrap()]);
        let err = report(&tight).unwrap_err();
        assert!(err.contains("FAIL"), "violated SLO must exit non-zero: {err}");
        let loose = args(&["--slo", "predict:p99<250ms", "--ledger", path.to_str().unwrap()]);
        let out = report(&loose).unwrap();
        assert!(out.contains("ok"), "generous SLO must pass: {out}");
        // An SLO over a phase the ledger never measured must also fail.
        let missing = args(&["--slo", "write:p99<250ms", "--ledger", path.to_str().unwrap()]);
        assert!(report(&missing).unwrap_err().contains("no data"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn report_slo_reads_a_snapshot_file() {
        let stats = harp_serve::ServeStats::default();
        stats.record(harp_serve::Phase::Predict, 2_000_000);
        let snap = stats.snapshot(1, 8, 1, 0.5);
        let path = std::env::temp_dir().join("harp_cli_slo_snap.json");
        std::fs::write(&path, serde_json::to_string(&snap).unwrap()).unwrap();
        let tight = args(&["--slo", "predict:p99<1ms", "--snapshot", path.to_str().unwrap()]);
        assert!(report(&tight).is_err());
        let loose = args(&["--slo", "predict:p99<1s", "--snapshot", path.to_str().unwrap()]);
        assert!(report(&loose).is_ok());
        // Every field but the histograms is required: a snapshot without
        // its uptime is a typed parse error, not a zero.
        let json = serde_json::to_string(&snap).unwrap().replace("\"uptime_secs\":0.5,", "");
        std::fs::write(&path, json).unwrap();
        let err = report(&loose).unwrap_err();
        assert!(err.starts_with("failed to parse snapshot"), "{err}");
        assert!(err.contains("missing field `uptime_secs`"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn report_renders_a_ledger() {
        let a = write_ledger("harp_cli_render.jsonl", &[(1, 10)]);
        let out = report(&args(&["--ledger", a.to_str().unwrap()])).unwrap();
        assert!(out.contains("1 round records"));
        assert!(out.contains("counter/tasks"));
        std::fs::remove_file(a).ok();
    }
}
