//! The span trace's two promises about a BuildHist fill: recording changes
//! no result, and the recording site costs next to nothing while tracing is
//! off. Its own test binary, so the timed part runs beside no other test.
//! What tracing costs when it is on is `benchmark/`'s
//! `core.trainer.trace_overhead`.

use harp_binning::{BinningConfig, QuantizedMatrix};
use harp_data::{DatasetKind, SynthConfig};
use harp_metrics::MemTable;
use harp_parallel::{PhaseSpan, ThreadPool, TracePhase, TraceSink};
use harpgbdt::hist::hist_width_for;
use harpgbdt::partition::RowPartition;
use harpgbdt::plan::Accumulation;
use harpgbdt::split::SplitSettings;
use harpgbdt::trainer::{expand, DriverCtx, DriverScratch, SplitSearch, TileJob};
use harpgbdt::{NodeStats, TrainParams};

/// A DP fill of a 3-node mid-tree frontier on 4 workers — the Replicated
/// fill of `expand`, each node into its own buffer, with no sibling to
/// derive — traced and not: the histograms are bitwise equal and the traced
/// pool records BuildHist spans. A disabled `PhaseSpan::begin` (no sink, no
/// counter: the per-task cost every recording site pays when tracing is
/// off), amortized over 1 M calls, costs less than 2 % of one BuildHist task
/// of that fill (the best of 5 of the workers' summed BuildHist times /
/// tasks).
#[test]
fn traced_dp_fill_is_bitwise_untraced_and_a_disabled_span_costs_under_2pc_of_a_task() {
    let d = SynthConfig::new(DatasetKind::Synset, 1).with_scale(0.08).generate();
    let qm = QuantizedMatrix::from_matrix(&d.features, BinningConfig::default());
    let n = qm.n_rows();
    let grads: Vec<[f32; 2]> = (0..n).map(|i| [((i % 17) as f32) - 8.0, 0.25]).collect();
    let width = hist_width_for(&qm);
    let mut part = RowPartition::new(n, 64, true);
    part.reset(&grads);
    part.apply_split(0, 1, 2, &|_, r| r % 2 == 0, None);
    part.apply_split(1, 3, 4, &|_, r| r % 3 == 0, None);
    let params = TrainParams { n_threads: 4, ..TrainParams::default() };
    let settings = SplitSettings { lambda: 1.0, gamma: 0.0, min_child_weight: 0.0 };
    let search = SplitSearch { settings: &settings, mask: None };
    // The histograms, and the workers' summed BuildHist nanoseconds.
    let run = |pool: &ThreadPool| -> (Vec<Vec<f64>>, u64) {
        let mut scratch = DriverScratch::new();
        let mut jobs: Vec<TileJob> = [3u32, 4, 2]
            .iter()
            .map(|&node| TileJob {
                node,
                stats: NodeStats::default(),
                buf: Some(vec![0.0; width]),
                sibling: None,
            })
            .collect();
        let ctx = DriverCtx {
            qm: &qm,
            params: &params,
            pool,
            partition: &part,
            grads: &grads,
            mem: &MemTable::default(),
        };
        let out = expand(&ctx, &mut scratch, &mut jobs, search, Accumulation::Replicated, None);
        (jobs.into_iter().map(|j| j.buf.expect("full-width")).collect(), out.build_ns)
    };

    let plain = ThreadPool::new(4);
    let (untraced, _) = run(&plain);
    let mut build_secs = f64::INFINITY;
    for _ in 0..5 {
        let (hists, build_ns) = run(&plain);
        std::hint::black_box(hists);
        build_secs = build_secs.min(build_ns as f64 * 1e-9);
    }

    let mut traced_pool = ThreadPool::new(4);
    traced_pool.install_trace(TraceSink::with_capacity(4, 1 << 12));
    let (traced, _) = run(&traced_pool);
    assert_eq!(untraced, traced, "the span trace must not perturb histogram results");
    let snap = traced_pool.trace().expect("installed above").snapshot();
    let n_tasks = snap
        .lanes
        .iter()
        .flat_map(|l| &l.spans)
        .filter(|s| s.phase == TracePhase::BuildHist as u8)
        .count();
    assert!(n_tasks > 0, "a traced fill must record BuildHist spans");

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
    let disabled_per_call = t.elapsed().as_secs_f64() / f64::from(calls);
    let per_task = build_secs / n_tasks as f64;
    assert!(
        disabled_per_call < 0.02 * per_task,
        "disabled span overhead {:.1} ns per call exceeds 2 % of a {:.1} us BuildHist task",
        disabled_per_call * 1e9,
        per_task * 1e6
    );
}
