//! BuildHist kernel-specialization safety net.
//!
//! The specialized kernels (unrolled dense row scan with sink cells, root
//! fast path, galloping column scan) must be *bitwise* equal to the retained
//! scalar row reference on any input — same values, same accumulation order.
//! These property tests drive random dense/sparse matrices with missing
//! values, some with an all-missing (0-bin) first, middle or last column,
//! through the store-level scans training calls, on the quantized
//! matrix as an in-core store (whose sweep is one step into the kernel), and
//! through `row_scan_store`'s reference arm; the fixture test pins
//! whole-training output across versions, and the steady-state tests pin
//! the replica arena's zero-allocation guarantee through the Replicated
//! fill of `expand`.

use harp_binning::{BinningConfig, QuantizedMatrix};
use harp_data::{CsrMatrix, Dataset, DatasetKind, DenseMatrix, FeatureMatrix, SynthConfig};
use harp_parallel::{Profile, ThreadPool};
use harpgbdt::hist::{hist_width_for, lane, lanes};
use harpgbdt::kernels::{col_scan_store, row_scan_root_store, row_scan_store, GradSource};
use harpgbdt::params::BatchPolicy;
use harpgbdt::partition::RowPartition;
use harpgbdt::split::SplitSettings;
use harpgbdt::trainer::{expand, DriverCtx, DriverScratch, SplitSearch, TileJob};
use harpgbdt::{GbdtTrainer, GrowthMethod, NodeStats, ParallelMode, TrainParams};
use proptest::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::Arc;

type Grad = [f32; 2];

struct Case {
    qm: QuantizedMatrix,
    grads: Vec<Grad>,
    /// An ascending strict subset of the rows (like a tree node's row set).
    rows: Vec<u32>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn grads_and_rows(n: usize, seed: u64) -> (Vec<Grad>, Vec<u32>) {
    let mut s = seed;
    let grads = (0..n)
        .map(|_| {
            let r = splitmix(&mut s);
            [((r % 31) as f32) - 15.0, ((r >> 8) % 7) as f32 * 0.25 + 0.25]
        })
        .collect();
    let keep = (splitmix(&mut s) % 3) + 1; // keep 1/1, 1/2 or 1/3 of rows
    let rows = (0..n as u32).filter(|r| u64::from(*r) % keep == 0).collect();
    (grads, rows)
}

/// The column `blank` picks to be all-missing among `m`: none, the first,
/// a middle one or the last.
fn blank_column(blank: usize, m: usize) -> Option<usize> {
    [None, Some(0), Some(m / 2), Some(m - 1)][blank]
}

/// Quantizes `matrix`; an all-missing column has no bins.
fn quantized(matrix: &FeatureMatrix, blank: Option<usize>) -> QuantizedMatrix {
    let qm = QuantizedMatrix::from_matrix(matrix, BinningConfig::with_max_bins(16));
    if let Some(c) = blank {
        assert_eq!(qm.mapper().n_bins(c), 0, "all-missing column {c} has bins");
    }
    qm
}

/// Random dense matrix with missing values (NaN), quantized.
fn dense_case() -> impl Strategy<Value = Case> {
    (1usize..120, 1usize..9, any::<u64>(), 0usize..4).prop_map(|(n, m, seed, blank)| {
        let blank = blank_column(blank, m);
        let mut s = seed;
        let mut values = Vec::with_capacity(n * m);
        for i in 0..n * m {
            let r = splitmix(&mut s);
            if r % 13 == 0 || Some(i % m) == blank {
                values.push(f32::NAN);
            } else {
                values.push((r % 500) as f32 / 100.0);
            }
        }
        let qm = quantized(&FeatureMatrix::Dense(DenseMatrix::from_vec(n, m, values)), blank);
        let (grads, rows) = grads_and_rows(n, seed ^ 0xABCD);
        Case { qm, grads, rows }
    })
}

/// Random CSR matrix (absent = missing; a blank column's entries are NaN),
/// quantized.
fn sparse_case() -> impl Strategy<Value = Case> {
    (1usize..120, 2usize..9, any::<u64>(), 0usize..4).prop_map(|(n, m, seed, blank)| {
        let blank = blank_column(blank, m);
        let mut s = seed;
        let rows_vec: Vec<Vec<(u32, f32)>> = (0..n)
            .map(|_| {
                (0..m as u32)
                    .filter_map(|c| {
                        let r = splitmix(&mut s);
                        let v = if Some(c as usize) == blank {
                            f32::NAN
                        } else {
                            (r % 500) as f32 / 100.0
                        };
                        (r % 3 != 0).then_some((c, v))
                    })
                    .collect()
            })
            .collect();
        let qm = quantized(&FeatureMatrix::Sparse(CsrMatrix::from_rows(m, &rows_vec)), blank);
        let (grads, rows) = grads_and_rows(n, seed ^ 0xABCD);
        Case { qm, grads, rows }
    })
}

/// Fast vs scalar row scan over a feature-block split, both grad sources.
fn check_row_scan(case: &Case, n_blocks: usize) {
    let (qm, rows) = (&case.qm, &case.rows);
    let m = qm.n_features();
    let width = hist_width_for(qm);
    let membuf: Vec<Grad> = rows.iter().map(|&r| case.grads[r as usize]).collect();
    let blk = m.div_ceil(n_blocks.clamp(1, m));
    let mut fast = vec![0.0; width];
    let mut scalar = vec![0.0; width];
    let mut fast_mb = vec![0.0; width];
    let mut cells_fast = 0u64;
    let mut cells_scalar = 0u64;
    let mut lo = 0;
    while lo < m {
        let hi = (lo + blk).min(m);
        let (all, block) = (GradSource::Global(&case.grads), lanes(qm.mapper(), lo..hi));
        cells_fast += row_scan_store(qm, rows, all, lo..hi, &mut fast[block.clone()], false);
        cells_scalar += row_scan_store(qm, rows, all, lo..hi, &mut scalar[block.clone()], true);
        let mb = GradSource::MemBuf(&membuf);
        row_scan_store(qm, rows, mb, lo..hi, &mut fast_mb[block], false);
        lo = hi;
    }
    assert_eq!(fast, scalar, "specialized row scan != scalar ({n_blocks} blocks)");
    assert_eq!(fast_mb, scalar, "MemBuf row scan != scalar ({n_blocks} blocks)");
    assert_eq!(cells_fast, cells_scalar, "cell counts diverged");
}

/// Column scan vs the scalar row reference, every feature: a feature's
/// lanes of the row reference are its column, summed in the same ascending
/// row order.
fn check_col_scan(case: &Case) {
    let (qm, rows, all) = (&case.qm, &case.rows, GradSource::Global(&case.grads));
    for f in 0..qm.n_features() {
        let n_bins = qm.mapper().n_bins(f) as usize;
        if n_bins == 0 {
            continue;
        }
        let mut fast = vec![0.0; n_bins * 2];
        let mut scalar = vec![0.0; hist_width_for(qm)];
        let cf = col_scan_store(qm, f, rows, all, 0..n_bins, &mut fast);
        let block = lanes(qm.mapper(), f..f + 1);
        let cs = row_scan_store(qm, rows, all, f..f + 1, &mut scalar[block], true);
        let base = lane(qm.mapper(), f);
        assert_eq!(fast, scalar[base..base + n_bins * 2], "column scan != scalar at feature {f}");
        assert_eq!(cf, cs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dense_row_scan_bitwise_equals_scalar(case in dense_case(), n_blocks in 1usize..4) {
        check_row_scan(&case, n_blocks);
    }

    #[test]
    fn sparse_row_scan_bitwise_equals_scalar(case in sparse_case(), n_blocks in 1usize..4) {
        check_row_scan(&case, n_blocks);
    }

    #[test]
    fn col_scan_bitwise_equals_scalar_dense(case in dense_case()) {
        check_col_scan(&case);
    }

    #[test]
    fn col_scan_bitwise_equals_scalar_sparse(case in sparse_case()) {
        check_col_scan(&case);
    }

    #[test]
    fn root_scan_bitwise_equals_slice_scan(case in dense_case()) {
        let n = case.qm.n_rows();
        let m = case.qm.n_features();
        let width = hist_width_for(&case.qm);
        let (qm, grads) = (&case.qm, GradSource::Global(&case.grads));
        let all: Vec<u32> = (0..n as u32).collect();
        let mut by_slice = vec![0.0; width];
        let mut by_range = vec![0.0; width];
        row_scan_store(qm, &all, grads, 0..m, &mut by_slice, false);
        row_scan_root_store(qm, 0..n, grads, 0..m, &mut by_range);
        prop_assert_eq!(&by_slice, &by_range);
        // Sub-range of the root span (a row chunk of a DP task).
        let lo = n / 3;
        let mut chunk_slice = vec![0.0; width];
        let mut chunk_range = vec![0.0; width];
        row_scan_store(qm, &all[lo..], grads, 0..m, &mut chunk_slice, false);
        row_scan_root_store(qm, lo..n, grads, 0..m, &mut chunk_range);
        prop_assert_eq!(&chunk_slice, &chunk_range);
    }
}

/// The proptests above draw small random matrices only. This runs the three
/// store-level scans on two whole benchmark-shaped stores at scale 0.25 —
/// SYNSET's dense 5 000 rows, and YFCC-like's 500 rows of 4 096 sparse
/// features, whose CSR the first row read transposes from the CSC — over
/// every row: the row scan and the root fast path against the scalar row
/// reference, and the column scan against that reference's lanes on every
/// fourth feature.
#[test]
fn kernels_bitwise_equal_scalar_on_synset_and_yfcc_shapes() {
    for kind in [DatasetKind::Synset, DatasetKind::YfccLike] {
        let d = SynthConfig::new(kind, 1).with_scale(0.25).generate();
        let qm = QuantizedMatrix::from_matrix(&d.features, BinningConfig::default());
        let (n, m) = (qm.n_rows(), qm.n_features());
        let grads: Vec<Grad> = (0..n).map(|i| [((i % 17) as f32) - 8.0, 0.25]).collect();
        let rows: Vec<u32> = (0..n as u32).collect();
        let src = GradSource::Global(&grads);
        let width = hist_width_for(&qm);
        let mut fast = vec![0.0; width];
        let mut scalar = vec![0.0; width];
        let mut root = vec![0.0; width];
        row_scan_store(&qm, &rows, src, 0..m, &mut fast, false);
        row_scan_store(&qm, &rows, src, 0..m, &mut scalar, true);
        row_scan_root_store(&qm, 0..n, src, 0..m, &mut root);
        assert_eq!(fast, scalar, "{kind:?}: the row scan diverged from the scalar reference");
        assert_eq!(root, scalar, "{kind:?}: the root scan diverged from the scalar reference");
        for f in (0..m).step_by((m / 4).max(1)) {
            let n_bins = qm.mapper().n_bins(f) as usize;
            if n_bins == 0 {
                continue;
            }
            let mut cf = vec![0.0; n_bins * 2];
            col_scan_store(&qm, f, &rows, src, 0..n_bins, &mut cf);
            let base = lane(qm.mapper(), f);
            assert_eq!(
                cf,
                scalar[base..base + n_bins * 2],
                "{kind:?}: the column scan diverged from the scalar reference at {f}"
            );
        }
    }
}

/// The sparse row scan builds a histogram wider than its pass budget (96 Ki
/// bins) in cache-blocked feature passes, each row resuming at a cursor the
/// previous pass left. The proptests' matrices are far narrower and the
/// YFCC-like check scans every row and feature with global gradients only,
/// so this drives that walk where it can go wrong: 450 columns of ~255 bins,
/// a node's row subset, a feature block that starts and ends inside rows
/// and spans a pass boundary, MemBuf and global gradients.
#[test]
fn cache_blocked_sparse_row_scan_bitwise_equals_scalar() {
    let (n, m) = (600usize, 450usize);
    let mut s = 0x0b10_c4ed;
    let rows_vec: Vec<Vec<(u32, f32)>> = (0..n)
        .map(|_| {
            (0..m as u32)
                .filter_map(|c| {
                    let r = splitmix(&mut s);
                    (r % 2 == 0).then_some((c, ((r >> 8) % 4096) as f32))
                })
                .collect()
        })
        .collect();
    let qm = QuantizedMatrix::from_matrix(
        &FeatureMatrix::Sparse(CsrMatrix::from_rows(m, &rows_vec)),
        BinningConfig::default(),
    );
    let (grads, _) = grads_and_rows(n, 0x5eed);
    let rows: Vec<u32> = (0..n as u32).filter(|r| r % 3 != 1).collect();
    let membuf: Vec<Grad> = rows.iter().map(|&r| grads[r as usize]).collect();
    let f_range = 7..m - 7;
    let block = lanes(qm.mapper(), f_range.clone());
    // One cell is two lanes; a feature's sink adds one cell per feature.
    let bins = block.len() / 2 - f_range.len();
    assert!(bins > 96 * 1024 && bins < 2 * 96 * 1024, "{bins} bins: not a two-pass block");
    let width = hist_width_for(&qm);
    let mut scalar = vec![0.0; width];
    let cs = row_scan_store(
        &qm,
        &rows,
        GradSource::Global(&grads),
        f_range.clone(),
        &mut scalar[block.clone()],
        true,
    );
    for src in [GradSource::Global(&grads), GradSource::MemBuf(&membuf)] {
        let mut fast = vec![0.0; width];
        let cf = row_scan_store(&qm, &rows, src, f_range.clone(), &mut fast[block.clone()], false);
        assert_eq!(cf, cs, "cell counts diverged");
        assert!(fast == scalar, "the cache-blocked walk diverged from the scalar reference");
    }
}

fn fixture_params(mode: ParallelMode, use_membuf: bool) -> TrainParams {
    TrainParams {
        n_trees: 5,
        tree_size: 4,
        n_threads: 4,
        k: 4,
        growth: GrowthMethod::Leafwise,
        mode,
        use_membuf,
        deterministic: true,
        // Subtraction changes FP association; the fixture pins the pure
        // BuildHist path.
        hist_subtraction: false,
        ..TrainParams::default()
    }
}

fn fixture_data() -> Dataset {
    SynthConfig::new(DatasetKind::HiggsLike, 42).with_scale(0.02).generate()
}

fn prediction_hash(params: TrainParams, data: &Dataset) -> (usize, u64) {
    let out = GbdtTrainer::new(params).unwrap().train(data);
    let preds = out.model.predict_raw(&data.features);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in &preds {
        h ^= u64::from(p.to_bits());
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (preds.len(), h)
}

/// Training output is bitwise identical to the version *before* the kernel
/// specialization: this hash was produced by the pre-change scalar-only
/// trainer on the same data and parameters.
#[test]
fn training_fixture_is_bitwise_stable_across_versions() {
    const EXPECTED_N: usize = 400;
    const EXPECTED_HASH: u64 = 0x27f7_6bdc_6855_2b22;
    let data = fixture_data();
    for (name, params) in [
        ("dp_membuf", fixture_params(ParallelMode::DataParallel, true)),
        ("dp_global", fixture_params(ParallelMode::DataParallel, false)),
        ("mp_membuf", fixture_params(ParallelMode::ModelParallel, true)),
    ] {
        let (n, h) = prediction_hash(params, &data);
        assert_eq!(n, EXPECTED_N, "{name}: prediction count changed");
        assert_eq!(h, EXPECTED_HASH, "{name}: predictions changed bitwise across versions");
    }
}

/// The Replicated fill of `nodes`, each into its own zeroed full-width
/// buffer: `expand` under `BatchPolicy::Replicated` with no sibling to
/// derive, whose tiles only read the filled buffers, so on return each
/// buffer is its node's histogram.
fn dp_fill(ctx: &DriverCtx<'_>, scratch: &mut DriverScratch, nodes: &[u32]) -> Vec<Vec<f64>> {
    let width = hist_width_for(ctx.qm);
    let mut jobs: Vec<TileJob> = nodes
        .iter()
        .map(|&node| TileJob {
            node,
            stats: NodeStats::default(),
            buf: Some(vec![0.0; width]),
            sibling: None,
        })
        .collect();
    let settings = SplitSettings { lambda: 1.0, gamma: 0.0, min_child_weight: 0.0 };
    let search = SplitSearch { settings: &settings, mask: None };
    expand(ctx, scratch, &mut jobs, search, BatchPolicy::Replicated, None);
    jobs.into_iter().map(|j| j.buf.expect("full-width")).collect()
}

/// Two consecutive driver calls on pooled replicas are bitwise identical:
/// the fold hands every replica back zeroed, as a fresh one.
#[test]
fn pooled_replicas_reproduce_bitwise_across_frontiers() {
    let data = fixture_data();
    let qm = QuantizedMatrix::from_matrix(&data.features, BinningConfig::default());
    let n = qm.n_rows();
    let grads: Vec<Grad> = (0..n).map(|i| [((i * 13) % 23) as f32 - 11.0, 1.0]).collect();
    let mut part = RowPartition::new(n, 64, true);
    part.reset(&grads);
    part.apply_split(0, 1, 2, &|_, r| r % 2 == 0, None);
    part.apply_split(1, 3, 4, &|_, r| r % 5 == 0, None);
    let params = TrainParams { n_threads: 4, deterministic: true, ..TrainParams::default() };
    let pool = ThreadPool::new(4);
    let ctx = DriverCtx { qm: &qm, params: &params, pool: &pool, partition: &part, grads: &grads };
    let mut scratch = DriverScratch::new();
    let first = dp_fill(&ctx, &mut scratch, &[3, 4, 2]);
    let _interleaved = dp_fill(&ctx, &mut scratch, &[2]);
    let second = dp_fill(&ctx, &mut scratch, &[3, 4, 2]);
    assert_eq!(first, second, "pooled replicas leaked state between frontiers");
}

/// Steady-state training performs no replica allocations: the arena only
/// allocates while the first tree discovers the frontier shapes, and trees
/// 2..n reuse everything.
#[test]
fn replica_arena_stops_allocating_after_first_tree() {
    let data = fixture_data();
    let one_tree = TrainParams { n_trees: 1, ..fixture_params(ParallelMode::DataParallel, true) };
    let out = GbdtTrainer::new(one_tree).unwrap().train(&data);
    let first_tree_allocs = out.diagnostics.profile.scratch_allocs;
    assert!(first_tree_allocs > 0, "DP training must use the replica arena");

    let five_trees = fixture_params(ParallelMode::DataParallel, true);
    let out = GbdtTrainer::new(five_trees).unwrap().train(&data);
    assert_eq!(
        out.diagnostics.profile.scratch_allocs, first_tree_allocs,
        "trees after the first must not allocate replicas"
    );
    assert!(out.diagnostics.profile.scratch_reuses > 0, "later trees must reuse pooled replicas");
}

/// Same guarantee at the driver level with an explicit profile: repeated
/// same-shape frontiers allocate exactly once.
#[test]
fn driver_steady_state_is_allocation_free() {
    let data = fixture_data();
    let qm = QuantizedMatrix::from_matrix(&data.features, BinningConfig::default());
    let n = qm.n_rows();
    let grads: Vec<Grad> = (0..n).map(|i| [(i % 7) as f32 - 3.0, 1.0]).collect();
    let mut part = RowPartition::new(n, 64, true);
    part.reset(&grads);
    part.apply_split(0, 1, 2, &|_, r| r % 2 == 0, None);
    let params = TrainParams { n_threads: 4, ..TrainParams::default() };
    let profile = Arc::new(Profile::new());
    let pool = ThreadPool::with_profile(4, Arc::clone(&profile));
    let ctx = DriverCtx { qm: &qm, params: &params, pool: &pool, partition: &part, grads: &grads };
    let mut scratch = DriverScratch::new();
    for call in 0..4 {
        dp_fill(&ctx, &mut scratch, &[1, 2]);
        let allocs = profile.scratch_allocs.load(Ordering::Relaxed);
        let reuses = profile.scratch_reuses.load(Ordering::Relaxed);
        if call == 0 {
            assert!(allocs > 0);
            assert_eq!(reuses, 0);
        } else {
            assert_eq!(allocs + reuses, allocs * (call as u64 + 1), "steady state allocated");
        }
    }
}
