//! BuildHist throughput runner — emits `BENCH_buildhist.json`.
//!
//! The kernel table times the scalar reference kernels (`row_scan_scalar`,
//! `col_scan_scalar`, which tests compare against and training never runs)
//! beside the specialized branch-lean kernels training uses. Both are
//! bitwise identical (see `tests/buildhist_equivalence.rs`), so the delta is
//! pure throughput. The other tables compare compressed against
//! uncompressed layouts, a chunked store against in-core scans, and the
//! span trace and run ledger on against off.
//!
//! Regenerate the committed snapshot with:
//! `cargo run --release -p harp-bench --bin bench_buildhist`
//! (writes `results/BENCH_buildhist.json` unless `--out` overrides it).

use std::time::Instant;

use harp_bench::{prepared, run_config, ExpArgs, Table};
use harp_binning::{BinningConfig, LayoutOptions, QuantizedMatrix};
use harp_data::{CsrMatrix, DatasetKind, FeatureMatrix, SynthConfig};
use harpgbdt::kernels::{
    col_scan, col_scan_scalar, row_scan, row_scan_root, row_scan_scalar, GradSource,
};
use harpgbdt::{hist, LedgerConfig, ParallelMode, TraceConfig, TrainParams};

struct Fixture {
    qm: QuantizedMatrix,
    grads: Vec<[f32; 2]>,
    rows: Vec<u32>,
    width: usize,
}

fn fixture(kind: DatasetKind, scale: f64, seed: u64) -> Fixture {
    let d = SynthConfig::new(kind, seed).with_scale(scale).generate();
    let qm = harp_bench::quantize_default(&d.features);
    let n = qm.n_rows();
    let grads: Vec<[f32; 2]> = (0..n).map(|i| [((i % 17) as f32) - 8.0, 0.25]).collect();
    let rows: Vec<u32> = (0..n as u32).collect();
    let width = hist::hist_width(qm.mapper().total_bins(), qm.n_features());
    Fixture { qm, grads, rows, width }
}

/// One full per-feature `col_scan` sweep (each feature over its own bin
/// range), returning total cells touched.
fn layout_col_sweep(
    qm: &QuantizedMatrix,
    rows: &[u32],
    grads: &[[f32; 2]],
    buf: &mut [f64],
) -> u64 {
    let mut cells = 0;
    for f in 0..qm.n_features() {
        let n_bins = qm.mapper().n_bins(f) as usize;
        if n_bins == 0 {
            continue;
        }
        let base = qm.mapper().bin_offset(f) as usize * 2;
        cells += col_scan(
            qm,
            f,
            rows,
            GradSource::Global(grads),
            0..n_bins,
            &mut buf[base..base + n_bins * 2],
        );
    }
    cells
}

/// Best-of-`reps` wall time of one invocation of `f`, in seconds.
fn best_secs(reps: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let args = ExpArgs::parse();
    let reps = if args.full { 21 } else { 9 };
    let kernel_scale = args.data_scale(1.0, 8.0);

    // --- Single-thread kernel comparison: scalar reference vs specialized.
    let higgs = fixture(DatasetKind::HiggsLike, kernel_scale, args.seed);
    let yfcc = fixture(DatasetKind::YfccLike, kernel_scale, args.seed);
    let m = higgs.qm.n_features();
    let sm = yfcc.qm.n_features();
    let membuf: Vec<[f32; 2]> = higgs.rows.iter().map(|&r| higgs.grads[r as usize]).collect();
    let mut buf = vec![0.0; higgs.width.max(yfcc.width)];

    let mut kernels = Table::new(
        format!(
            "BuildHist kernels, single thread ({} HIGGS-like rows, {} YFCC-like rows)",
            higgs.qm.n_rows(),
            yfcc.qm.n_rows()
        ),
        &["kernel", "scalar ms", "specialized ms", "speedup"],
    );
    let mut dense_row_speedup = 0.0;
    // Warm one rep of each pair before timing so page faults and branch
    // history settle, then record best-of-`reps` for both sides.
    let mut case = |name: &str,
                    scalar: &mut dyn FnMut(&mut [f64]) -> u64,
                    fast: &mut dyn FnMut(&mut [f64]) -> u64| {
        scalar(&mut buf);
        fast(&mut buf);
        let s = best_secs(reps, || scalar(&mut buf));
        let f = best_secs(reps, || fast(&mut buf));
        if name == "dense row_scan (global grads)" {
            dense_row_speedup = s / f;
        }
        kernels.row(vec![
            name.to_string(),
            format!("{:.3}", s * 1e3),
            format!("{:.3}", f * 1e3),
            format!("{:.2}x", s / f),
        ]);
    };
    case(
        "dense row_scan (global grads)",
        &mut |buf| {
            row_scan_scalar(&higgs.qm, &higgs.rows, GradSource::Global(&higgs.grads), 0..m, buf)
        },
        &mut |buf| row_scan(&higgs.qm, &higgs.rows, GradSource::Global(&higgs.grads), 0..m, buf),
    );
    case(
        "dense row_scan (MemBuf grads)",
        &mut |buf| row_scan_scalar(&higgs.qm, &higgs.rows, GradSource::MemBuf(&membuf), 0..m, buf),
        &mut |buf| row_scan(&higgs.qm, &higgs.rows, GradSource::MemBuf(&membuf), 0..m, buf),
    );
    case(
        "root contiguous scan",
        &mut |buf| {
            row_scan_scalar(&higgs.qm, &higgs.rows, GradSource::Global(&higgs.grads), 0..m, buf)
        },
        &mut |buf| {
            row_scan_root(
                &higgs.qm,
                0..higgs.rows.len(),
                GradSource::Global(&higgs.grads),
                0..m,
                buf,
            )
        },
    );
    case(
        "sparse row_scan (global grads)",
        &mut |buf| {
            row_scan_scalar(&yfcc.qm, &yfcc.rows, GradSource::Global(&yfcc.grads), 0..sm, buf)
        },
        &mut |buf| row_scan(&yfcc.qm, &yfcc.rows, GradSource::Global(&yfcc.grads), 0..sm, buf),
    );
    case(
        "col_scan (all features)",
        &mut |buf| {
            let mut cells = 0;
            for f in 0..m {
                let n_bins = higgs.qm.mapper().n_bins(f) as usize;
                let base = higgs.qm.mapper().bin_offset(f) as usize * 2;
                cells += col_scan_scalar(
                    &higgs.qm,
                    f,
                    &higgs.rows,
                    GradSource::Global(&higgs.grads),
                    0..n_bins,
                    &mut buf[base..base + n_bins * 2],
                );
            }
            cells
        },
        &mut |buf| {
            let mut cells = 0;
            for f in 0..m {
                let n_bins = higgs.qm.mapper().n_bins(f) as usize;
                let base = higgs.qm.mapper().bin_offset(f) as usize * 2;
                cells += col_scan(
                    &higgs.qm,
                    f,
                    &higgs.rows,
                    GradSource::Global(&higgs.grads),
                    0..n_bins,
                    &mut buf[base..base + n_bins * 2],
                );
            }
            cells
        },
    );
    kernels.note(
        "scalar = retained reference kernels (row_scan_scalar, col_scan_scalar); \
         specialized = branch-lean default path; outputs are bitwise identical",
    );
    kernels.note(format!(
        "acceptance: dense row_scan (global grads) speedup {:.2}x (target >= 1.50x)",
        dense_row_speedup
    ));
    kernels.print();

    // --- Compressed layouts: the u4 nibble pack and EFB bundling against
    // their uncompressed equivalents, same SIMD tier and grad source on
    // both sides — the delta is pure layout (bin-byte volume and lane-LUT
    // routing), not kernel specialization.
    let synset = SynthConfig::new(DatasetKind::Synset, args.seed)
        .with_scale(args.data_scale(0.25, 2.0))
        .generate();
    let low_card = BinningConfig::with_max_bins(16);
    let u8_qm = QuantizedMatrix::from_matrix_opts(
        &synset.features,
        low_card,
        LayoutOptions::uncompressed(),
    );
    let u4_qm =
        QuantizedMatrix::from_matrix_opts(&synset.features, low_card, LayoutOptions::default());
    assert!(u4_qm.u4().is_some(), "SYNSET at max_bin=16 must engage the u4 pack");
    let sn = u4_qm.n_rows();
    let sm2 = u4_qm.n_features();
    let sgrads: Vec<[f32; 2]> = (0..sn).map(|i| [((i % 17) as f32) - 8.0, 0.25]).collect();
    let srows: Vec<u32> = (0..sn as u32).collect();
    let swidth = hist::hist_width(u4_qm.mapper().total_bins(), sm2);

    // Grouped one-hot CSR: the EFB shape. Dimensions follow YFCC's spirit
    // (many low-support features) at a size the bench budget allows; the
    // group count stays under the bundler's default probe budget so every
    // feature can reach its group's bundle.
    let (groups, per) = (24usize, 16usize);
    let bm = groups * per;
    let bn = (sn / 2).max(1024);
    let mut s = args.seed | 1;
    let bundle_rows: Vec<Vec<(u32, f32)>> = (0..bn)
        .map(|_| {
            (0..groups)
                .filter_map(|g| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let r = s >> 33;
                    (r % 4 != 0).then(|| {
                        let f = (g * per) as u32 + ((r >> 4) % per as u64) as u32;
                        (f, ((r >> 8) % 13) as f32 + 1.0)
                    })
                })
                .collect()
        })
        .collect();
    let bundle_matrix = FeatureMatrix::Sparse(CsrMatrix::from_rows(bm, &bundle_rows));
    let sparse_qm =
        QuantizedMatrix::from_matrix_opts(&bundle_matrix, low_card, LayoutOptions::uncompressed());
    let bundled_qm =
        QuantizedMatrix::from_matrix_opts(&bundle_matrix, low_card, LayoutOptions::default());
    let bundled_on = bundled_qm.is_bundled();
    let bgrads: Vec<[f32; 2]> = (0..bn).map(|i| [((i % 13) as f32) - 6.0, 0.5]).collect();
    let brows: Vec<u32> = (0..bn as u32).collect();
    let bwidth = hist::hist_width(sparse_qm.mapper().total_bins(), bm);

    let mut lbuf = vec![0.0; swidth.max(bwidth)];
    let mut layouts = Table::new(
        format!(
            "Compressed bin layouts, single thread ({sn} SYNSET rows @ max_bin=16, \
             {bn} one-hot rows x {bm} features)"
        ),
        &["case", "uncompressed ms", "compressed ms", "speedup"],
    );
    let mut u4_row_speedup = 0.0;
    let mut lcase = |name: &str,
                     base: &mut dyn FnMut(&mut [f64]) -> u64,
                     packed: &mut dyn FnMut(&mut [f64]) -> u64| {
        base(&mut lbuf);
        packed(&mut lbuf);
        let b = best_secs(reps, || base(&mut lbuf));
        let p = best_secs(reps, || packed(&mut lbuf));
        if name == "u4 vs u8 dense row_scan" {
            u4_row_speedup = b / p;
        }
        // Bundled rows are informational: their speedups swing far outside
        // the bench-diff gate's tolerance run to run, so the `~` prefix
        // keeps them out of the dimensionless-cell comparison.
        let speedup = if name.starts_with("bundled") {
            format!("~{:.2}x", b / p)
        } else {
            format!("{:.2}x", b / p)
        };
        layouts.row(vec![
            name.to_string(),
            format!("{:.3}", b * 1e3),
            format!("{:.3}", p * 1e3),
            speedup,
        ]);
    };
    lcase(
        "u4 vs u8 dense row_scan",
        &mut |buf| row_scan(&u8_qm, &srows, GradSource::Global(&sgrads), 0..sm2, buf),
        &mut |buf| row_scan(&u4_qm, &srows, GradSource::Global(&sgrads), 0..sm2, buf),
    );
    lcase(
        "u4 vs u8 col_scan (all features)",
        &mut |buf| layout_col_sweep(&u8_qm, &srows, &sgrads, buf),
        &mut |buf| layout_col_sweep(&u4_qm, &srows, &sgrads, buf),
    );
    if bundled_on {
        lcase(
            "bundled vs sparse row_scan (one-hot)",
            &mut |buf| row_scan(&sparse_qm, &brows, GradSource::Global(&bgrads), 0..bm, buf),
            &mut |buf| row_scan(&bundled_qm, &brows, GradSource::Global(&bgrads), 0..bm, buf),
        );
        lcase(
            "bundled vs sparse col_scan (all features)",
            &mut |buf| layout_col_sweep(&sparse_qm, &brows, &bgrads, buf),
            &mut |buf| layout_col_sweep(&bundled_qm, &brows, &bgrads, buf),
        );
        layouts.note(format!(
            "bundling fused {bm} one-hot features into {} columns",
            bundled_qm.layout_stats().cols_bundled
        ));
        layouts.note(
            "bundled col_scan is expected to lose badly: each original feature pays a full \
             column walk over the fused bundle instead of its CSC nnz list, so MP scans on \
             bundled storage cost m× — the plan cost model prices this (Exclusive reads \
             scale with m under ScanLayout::Bundled) and steers MP away from it",
        );
    } else {
        layouts.note("bundling did not engage on this scale (gates missed) — rows omitted");
    }
    layouts.note(format!(
        "acceptance: u4 dense row_scan speedup {u4_row_speedup:.2}x over u8 (target > 1.00x); \
         SIMD tier {}",
        harpgbdt::kernels::simd_tier().name()
    ));
    layouts.print();

    // --- External memory: the same dense row scan through a ChunkedStore at
    // shrinking resident budgets. 100% holds every chunk resident after the
    // first sweep (prefetch-hit steady state); 25% forces ~3/4 of the chunks
    // to cycle through eviction on every sweep, so the delta is the decode +
    // mmap-read cost the budget buys back. Outputs are bitwise identical.
    let mut xmem = Table::new(
        format!("External-memory row_scan, single thread ({} HIGGS-like rows)", higgs.qm.n_rows()),
        &["store", "budget", "ms/sweep", "vs in-core", "loads", "evictions"],
    );
    {
        use harpgbdt::kernels::row_scan_store;
        use harpgbdt::QuantStore as _;
        let incore = best_secs(reps, || {
            row_scan(&higgs.qm, &higgs.rows, GradSource::Global(&higgs.grads), 0..m, &mut buf)
        });
        xmem.row(vec![
            "in-core".into(),
            "-".into(),
            format!("{:.3}", incore * 1e3),
            "1.00".into(),
            "-".into(),
            "-".into(),
        ]);
        let path = std::env::temp_dir().join(format!(
            "harp_buildhist_{}_{}.qsc",
            std::process::id(),
            higgs.qm.n_rows()
        ));
        let rows_per_chunk = (higgs.qm.n_rows() / 16).max(256);
        harpgbdt::write_cache(&higgs.qm, rows_per_chunk, &path).expect("write chunk cache");
        for frac in [1.0, 0.5, 0.25] {
            let budget = (higgs.qm.storage_bytes() as f64 * frac).max(1.0) as u64;
            let store = harpgbdt::ChunkedStore::open(&path, budget).expect("open chunk cache");
            let secs = best_secs(reps, || {
                row_scan_store(
                    &store,
                    &higgs.rows,
                    GradSource::Global(&higgs.grads),
                    0..m,
                    &mut buf,
                    false,
                )
            });
            let io = store.io_stats();
            xmem.row(vec![
                "chunked".into(),
                format!("{:.0}%", frac * 100.0),
                format!("{:.3}", secs * 1e3),
                format!("{:.2}", secs / incore),
                io.chunk_loads.to_string(),
                io.chunk_evictions.to_string(),
            ]);
        }
        std::fs::remove_file(&path).ok();
        xmem.note(
            "vs in-core is chunked/in-core time (lower is better; 1.0 = free); \
             loads/evictions count chunk decodes and LRU evictions across all reps",
        );
    }
    xmem.print();

    let data = prepared(DatasetKind::HiggsLike, args.data_scale(0.5, 4.0), args.seed);
    let n_trees = args.n_trees(10, 60);
    harp_bench::warmup(&data, args.threads);

    // --- Span-ledger overhead: the same training config with the trace
    // ledger off (the shipping default) and on. The disabled path performs no
    // clock reads at all — its budget (< 2% vs the pre-trace snapshot of this
    // file) is checked by regenerating `results/BENCH_buildhist.json` on the
    // same machine; the enabled path is the cost a user pays for
    // `--trace-out` and is expected to stay within a few percent.
    let default_out = std::path::PathBuf::from("results/BENCH_buildhist.json");
    let out = args.out.as_deref().unwrap_or(&default_out);
    let mut overhead = Table::new(
        format!("Span-ledger overhead, HIGGS-like, {} threads, sync mode", args.threads),
        &["tracing", "ms/tree", "spans", "overhead"],
    );
    let mut trace_overhead_pct = 0.0;
    {
        let mut base: Option<f64> = None;
        for enabled in [false, true] {
            let params = TrainParams {
                n_trees,
                n_threads: args.threads,
                mode: ParallelMode::Sync,
                trace: if enabled { TraceConfig::enabled() } else { TraceConfig::default() },
                ..TrainParams::default()
            };
            // Best-of-3 to shake scheduler noise out of the comparison.
            let res = (0..3)
                .map(|_| run_config(&data, &data.quantized, params.clone(), false))
                .min_by(|a, b| a.tree_secs.total_cmp(&b.tree_secs))
                .unwrap();
            let b = *base.get_or_insert(res.tree_secs);
            let spans = res.output.diagnostics.span_trace.as_ref().map_or(0, |s| s.n_spans());
            if enabled {
                trace_overhead_pct = (res.tree_secs / b - 1.0) * 100.0;
                let sample = out.with_file_name("trace_sample.json");
                if let Some(snap) = &res.output.diagnostics.span_trace {
                    snap.write_chrome_trace(&sample).expect("write sample trace");
                    println!("wrote sample trace to {}", sample.display());
                }
            }
            overhead.row(vec![
                if enabled { "on" } else { "off" }.to_string(),
                format!("{:.2}", res.tree_secs * 1e3),
                spans.to_string(),
                format!("{:+.1}%", (res.tree_secs / b - 1.0) * 100.0),
            ]);
        }
    }
    overhead.note(
        "off = TraceConfig::default() (no clock reads on any recording site); \
         on = the full per-task span ledger drained to chrome-trace JSON",
    );
    overhead.print();

    // --- Run-ledger overhead: the per-round metrics ledger (phase/counter
    // deltas + memory gauges) on vs off, with the span trace off in both
    // runs so only the ledger's own cost is measured. Budget: <= 1%.
    let mut ledger_tbl = Table::new(
        format!("Run-ledger overhead, HIGGS-like, {} threads, sync mode", args.threads),
        &["ledger", "ms/tree", "rounds", "overhead"],
    );
    let ledger_overhead_pct;
    {
        // Interleave off/on reps instead of running two sequential blocks:
        // the expected delta is sub-percent, and a block-level frequency or
        // cache drift would otherwise dwarf it.
        let mut best = [f64::INFINITY; 2];
        let mut rounds = 0;
        for _ in 0..5 {
            for (i, enabled) in [false, true].into_iter().enumerate() {
                let params = TrainParams {
                    n_trees,
                    n_threads: args.threads,
                    mode: ParallelMode::Sync,
                    ledger: if enabled { LedgerConfig::enabled() } else { LedgerConfig::default() },
                    ..TrainParams::default()
                };
                let res = run_config(&data, &data.quantized, params, false);
                if res.tree_secs < best[i] {
                    best[i] = res.tree_secs;
                    if let Some(ledger) = &res.output.diagnostics.ledger {
                        rounds = ledger.len();
                        let sample = out.with_file_name("ledger_sample.jsonl");
                        ledger.write_jsonl(&sample).expect("write sample ledger");
                    }
                }
            }
        }
        println!(
            "wrote sample run ledger to {}",
            out.with_file_name("ledger_sample.jsonl").display()
        );
        ledger_overhead_pct = (best[1] / best[0] - 1.0) * 100.0;
        for (i, enabled) in [false, true].into_iter().enumerate() {
            ledger_tbl.row(vec![
                if enabled { "on" } else { "off" }.to_string(),
                format!("{:.2}", best[i] * 1e3),
                if enabled { rounds } else { 0 }.to_string(),
                format!("{:+.1}%", (best[i] / best[0] - 1.0) * 100.0),
            ]);
        }
    }
    ledger_tbl.note(
        "both rows run with the span trace off; the delta is the cost of \
         per-round counter snapshots, breakdown deltas, and memory gauges \
         (budget <= 1%; compare with `harpgbdt report --diff` on two ledgers)",
    );
    ledger_tbl.print();

    Table::write_json(&[&kernels, &layouts, &xmem, &overhead, &ledger_tbl], out)
        .expect("write json");
    println!("\nwrote {}", out.display());
    if dense_row_speedup < 1.5 {
        eprintln!(
            "WARNING: dense row_scan speedup {dense_row_speedup:.2}x is below the 1.5x target"
        );
    }
    if u4_row_speedup <= 1.0 {
        eprintln!(
            "WARNING: u4 dense row_scan speedup {u4_row_speedup:.2}x does not beat the u8 layout"
        );
    }
    if trace_overhead_pct > 10.0 {
        eprintln!(
            "WARNING: enabled span-ledger overhead {trace_overhead_pct:+.1}% exceeds the 10% alarm \
             threshold (the disabled path is budgeted at < 2% vs the pre-trace snapshot)"
        );
    }
    if ledger_overhead_pct > 1.0 {
        eprintln!("WARNING: run-ledger overhead {ledger_overhead_pct:+.1}% exceeds the 1% budget");
    }
}
