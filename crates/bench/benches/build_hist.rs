//! BuildHist micro-benchmarks: specialized vs scalar kernels, the driver
//! matrix {dense, sparse} × {DP, MP} × {MemBuf on, off}, and the root fast
//! path. `cargo bench --bench build_hist` runs them all;
//! `-- row_scan` etc. filters by substring.
//!
//! The setup phase cross-checks every fast kernel against its scalar
//! reference bitwise, so `cargo bench --bench build_hist -- --test` is a
//! cheap CI smoke test even though Criterion skips the timed sections.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use harp_binning::{BinningConfig, QuantizedMatrix};
use harp_data::{DatasetKind, SynthConfig};
use harp_parallel::{PhaseSpan, ThreadPool, TracePhase, TraceSink};
use harpgbdt::kernels::{
    col_scan, col_scan_scalar, row_scan, row_scan_root, row_scan_scalar, GradSource,
};
use harpgbdt::params::BatchPolicy;
use harpgbdt::partition::RowPartition;
use harpgbdt::split::SplitSettings;
use harpgbdt::trainer::{
    build_hists_dp, expand, DriverCtx, DriverScratch, HistJob, SplitSearch, TileJob,
};
use harpgbdt::{hist, NodeStats, ParallelMode, TrainParams};

struct Fixture {
    qm: QuantizedMatrix,
    grads: Vec<[f32; 2]>,
    rows: Vec<u32>,
    width: usize,
}

fn setup(kind: DatasetKind, scale: f64) -> Fixture {
    let d = SynthConfig::new(kind, 1).with_scale(scale).generate();
    let qm = QuantizedMatrix::from_matrix(&d.features, BinningConfig::default());
    let n = qm.n_rows();
    let grads: Vec<[f32; 2]> = (0..n).map(|i| [((i % 17) as f32) - 8.0, 0.25]).collect();
    let rows: Vec<u32> = (0..n as u32).collect();
    let width = hist::hist_width(qm.mapper().total_bins(), qm.n_features());
    Fixture { qm, grads, rows, width }
}

/// Bitwise cross-check of the fast kernels against the scalar reference —
/// fails loudly before any timing if the kernels diverge.
fn verify_kernels(fx: &Fixture) {
    let m = fx.qm.n_features();
    let mut fast = vec![0.0; fx.width];
    let mut scalar = vec![0.0; fx.width];
    row_scan(&fx.qm, &fx.rows, GradSource::Global(&fx.grads), 0..m, &mut fast);
    row_scan_scalar(&fx.qm, &fx.rows, GradSource::Global(&fx.grads), 0..m, &mut scalar);
    assert_eq!(fast, scalar, "row_scan diverged from scalar reference");
    let mut root = vec![0.0; fx.width];
    row_scan_root(&fx.qm, 0..fx.rows.len(), GradSource::Global(&fx.grads), 0..m, &mut root);
    assert_eq!(root, scalar, "row_scan_root diverged from scalar reference");
    for f in (0..m).step_by((m / 4).max(1)) {
        let n_bins = fx.qm.mapper().n_bins(f) as usize;
        if n_bins == 0 {
            continue;
        }
        let mut cf = vec![0.0; n_bins * 2];
        let mut cs = vec![0.0; n_bins * 2];
        col_scan(&fx.qm, f, &fx.rows, GradSource::Global(&fx.grads), 0..n_bins, &mut cf);
        col_scan_scalar(&fx.qm, f, &fx.rows, GradSource::Global(&fx.grads), 0..n_bins, &mut cs);
        assert_eq!(cf, cs, "col_scan diverged from scalar reference at feature {f}");
    }
}

fn bench_kernels(c: &mut Criterion) {
    let fx = setup(DatasetKind::Synset, 0.25);
    verify_kernels(&fx);
    let m = fx.qm.n_features();
    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);

    for (name, scalar) in [("specialized", false), ("scalar", true)] {
        group.bench_function(format!("row_scan/global/{name}"), |b| {
            let mut hist = vec![0.0; fx.width];
            b.iter(|| {
                hist.fill(0.0);
                if scalar {
                    row_scan_scalar(
                        &fx.qm,
                        &fx.rows,
                        GradSource::Global(&fx.grads),
                        0..m,
                        &mut hist,
                    )
                } else {
                    row_scan(&fx.qm, &fx.rows, GradSource::Global(&fx.grads), 0..m, &mut hist)
                }
            });
        });
    }
    group.bench_function("row_scan/membuf", |b| {
        let membuf: Vec<[f32; 2]> = fx.rows.iter().map(|&r| fx.grads[r as usize]).collect();
        let mut hist = vec![0.0; fx.width];
        b.iter(|| {
            hist.fill(0.0);
            row_scan(&fx.qm, &fx.rows, GradSource::MemBuf(&membuf), 0..m, &mut hist)
        });
    });
    group.bench_function("row_scan/root_contiguous", |b| {
        let mut hist = vec![0.0; fx.width];
        b.iter(|| {
            hist.fill(0.0);
            row_scan_root(&fx.qm, 0..fx.rows.len(), GradSource::Global(&fx.grads), 0..m, &mut hist)
        });
    });
    for f_blk in [4usize, 32] {
        group.bench_with_input(
            BenchmarkId::new("row_scan/feature_block", f_blk),
            &f_blk,
            |b, &f_blk| {
                let mut hist = vec![0.0; fx.width];
                b.iter(|| {
                    hist.fill(0.0);
                    let mut cells = 0;
                    let mut lo = 0;
                    while lo < m {
                        let hi = (lo + f_blk).min(m);
                        cells += row_scan(
                            &fx.qm,
                            &fx.rows,
                            GradSource::Global(&fx.grads),
                            lo..hi,
                            &mut hist,
                        );
                        lo = hi;
                    }
                    cells
                });
            },
        );
    }
    for (name, scalar) in [("specialized", false), ("scalar", true)] {
        group.bench_function(format!("col_scan/all_features/{name}"), |b| {
            let mut hist = vec![0.0; fx.width];
            b.iter(|| {
                hist.fill(0.0);
                let mut cells = 0;
                for f in 0..m {
                    let n_bins = fx.qm.mapper().n_bins(f) as usize;
                    let base = fx.qm.mapper().bin_offset(f) as usize * 2;
                    let dst = &mut hist[base..base + n_bins * 2];
                    cells += if scalar {
                        col_scan_scalar(
                            &fx.qm,
                            f,
                            &fx.rows,
                            GradSource::Global(&fx.grads),
                            0..n_bins,
                            dst,
                        )
                    } else {
                        col_scan(&fx.qm, f, &fx.rows, GradSource::Global(&fx.grads), 0..n_bins, dst)
                    };
                }
                cells
            });
        });
    }

    // Sparse input (YFCC-like shape).
    let sfx = setup(DatasetKind::YfccLike, 0.25);
    verify_kernels(&sfx);
    for (name, scalar) in [("specialized", false), ("scalar", true)] {
        group.bench_function(format!("row_scan/sparse/{name}"), |b| {
            let mut hist = vec![0.0; sfx.width];
            let sm = sfx.qm.n_features();
            b.iter(|| {
                hist.fill(0.0);
                if scalar {
                    row_scan_scalar(
                        &sfx.qm,
                        &sfx.rows,
                        GradSource::Global(&sfx.grads),
                        0..sm,
                        &mut hist,
                    )
                } else {
                    row_scan(&sfx.qm, &sfx.rows, GradSource::Global(&sfx.grads), 0..sm, &mut hist)
                }
            });
        });
    }
    group.finish();
}

/// One driver invocation over a 3-node frontier, mirroring mid-tree training.
fn bench_drivers(c: &mut Criterion) {
    let mut group = c.benchmark_group("drivers");
    group.sample_size(10);
    let pool = ThreadPool::new(4);
    for (data_name, kind) in [("dense", DatasetKind::Synset), ("sparse", DatasetKind::YfccLike)] {
        for membuf in [true, false] {
            let fx = setup(kind, 0.12);
            let n = fx.qm.n_rows();
            let mut part = RowPartition::new(n, 64, membuf);
            part.reset(&fx.grads);
            part.apply_split(0, 1, 2, &|_, r| r % 2 == 0, None);
            part.apply_split(1, 3, 4, &|_, r| r % 3 == 0, None);
            let params = TrainParams { n_threads: 4, use_membuf: membuf, ..TrainParams::default() };
            let nodes = [3u32, 4, 2];
            for (mode_name, mode) in
                [("dp", ParallelMode::DataParallel), ("mp", ParallelMode::ModelParallel)]
            {
                let id = format!("frontier/{data_name}/{mode_name}/membuf_{membuf}");
                group.bench_function(id, |b| {
                    let mut scratch = DriverScratch::new();
                    let mut jobs: Vec<HistJob> = nodes
                        .iter()
                        .map(|&node| HistJob { node, buf: vec![0.0; fx.width] })
                        .collect();
                    // MP is the fused pipeline: scan and FindSplit per tile,
                    // every node filed (its tiles are its buffer's lanes).
                    let mut tile_jobs: Vec<TileJob> = nodes
                        .iter()
                        .map(|&node| {
                            let mut stats = NodeStats {
                                count: part.node_len(node) as u32,
                                ..Default::default()
                            };
                            for &row in part.rows(node) {
                                stats.g += f64::from(fx.grads[row as usize][0]);
                                stats.h += f64::from(fx.grads[row as usize][1]);
                            }
                            TileJob { node, stats, buf: Some(vec![0.0; fx.width]), sibling: None }
                        })
                        .collect();
                    let settings = SplitSettings { lambda: 1.0, gamma: 0.0, min_child_weight: 1.0 };
                    b.iter(|| {
                        let ctx = DriverCtx {
                            qm: &fx.qm,
                            params: &params,
                            pool: &pool,
                            partition: &part,
                            grads: &fx.grads,
                        };
                        match mode {
                            ParallelMode::ModelParallel => {
                                for j in &mut tile_jobs {
                                    j.buf.as_mut().expect("filed").fill(0.0);
                                }
                                let search = SplitSearch { settings: &settings, mask: None };
                                let policy = BatchPolicy::Exclusive;
                                expand(&ctx, &mut scratch, &mut tile_jobs, search, policy, None)
                                    .found
                            }
                            _ => {
                                for j in &mut jobs {
                                    j.buf.fill(0.0);
                                }
                                build_hists_dp(&ctx, &mut scratch, &mut jobs);
                                Vec::new()
                            }
                        }
                    });
                });
            }
        }
    }
    group.finish();
}

/// Span-ledger smoke: tracing must not perturb results, and the *disabled*
/// recording path must cost well under 2% of one BuildHist task. Runs in the
/// setup phase, so `cargo bench --bench build_hist -- --test` exercises it.
fn trace_smoke(_c: &mut Criterion) {
    let fx = setup(DatasetKind::Synset, 0.08);
    let n = fx.qm.n_rows();
    let mut part = RowPartition::new(n, 64, true);
    part.reset(&fx.grads);
    part.apply_split(0, 1, 2, &|_, r| r % 2 == 0, None);
    part.apply_split(1, 3, 4, &|_, r| r % 3 == 0, None);
    let params = TrainParams { n_threads: 4, ..TrainParams::default() };
    let nodes = [3u32, 4, 2];
    let run = |pool: &ThreadPool| -> Vec<Vec<f64>> {
        let mut scratch = DriverScratch::new();
        let mut jobs: Vec<HistJob> =
            nodes.iter().map(|&node| HistJob { node, buf: vec![0.0; fx.width] }).collect();
        let ctx =
            DriverCtx { qm: &fx.qm, params: &params, pool, partition: &part, grads: &fx.grads };
        build_hists_dp(&ctx, &mut scratch, &mut jobs);
        jobs.into_iter().map(|j| j.buf).collect()
    };

    let plain = ThreadPool::new(4);
    let untraced = run(&plain);
    let mut frontier_secs = f64::INFINITY;
    for _ in 0..5 {
        let t = std::time::Instant::now();
        std::hint::black_box(run(&plain));
        frontier_secs = frontier_secs.min(t.elapsed().as_secs_f64());
    }

    let mut traced_pool = ThreadPool::new(4);
    traced_pool.install_trace(TraceSink::with_capacity(4, 1 << 12));
    let traced = run(&traced_pool);
    assert_eq!(untraced, traced, "span ledger must not perturb histogram results");

    let sink = traced_pool.trace().expect("installed above");
    let snap = sink.snapshot();
    let n_tasks = snap.count_phase(TracePhase::BuildHist);
    assert!(n_tasks > 0, "traced driver run must record BuildHist spans");

    // Disabled-path budget: `PhaseSpan::begin` with no sink and no
    // counter is the per-task cost every recording site pays when
    // tracing is off. Amortize 1M inert begins and compare against the
    // measured per-task BuildHist time.
    let calls = 1_000_000u32;
    let t = std::time::Instant::now();
    for i in 0..calls {
        std::hint::black_box(PhaseSpan::begin(
            std::hint::black_box(None),
            0,
            TracePhase::BuildHist,
            i,
            0,
            std::hint::black_box(None),
        ));
    }
    let disabled_per_call = t.elapsed().as_secs_f64() / calls as f64;
    let per_task = frontier_secs * 4.0 / n_tasks as f64;
    assert!(
        disabled_per_call < 0.02 * per_task,
        "disabled span overhead {:.1}ns per call exceeds 2% of a {:.1}us BuildHist task",
        disabled_per_call * 1e9,
        per_task * 1e6
    );
}

criterion_group!(benches, trace_smoke, bench_kernels, bench_drivers);
criterion_main!(benches);
