//! BuildHist kernel-specialization safety net.
//!
//! The specialized kernels (unrolled dense row scan with sink cells, root
//! fast path, galloping column scan) must be *bitwise* equal to the retained
//! scalar references on any input — same values, same accumulation order.
//! These property tests drive random dense/sparse matrices with missing
//! values through both paths; the fixture test pins whole-training output
//! across versions, and the steady-state tests pin the replica arena's
//! zero-allocation guarantee.

use harp_binning::{BinningConfig, QuantizedMatrix};
use harp_data::{CsrMatrix, Dataset, DatasetKind, DenseMatrix, FeatureMatrix, SynthConfig};
use harp_parallel::{Profile, ThreadPool};
use harpgbdt::hist::hist_width;
use harpgbdt::kernels::{
    col_scan, col_scan_scalar, row_scan, row_scan_root, row_scan_scalar, GradSource,
};
use harpgbdt::partition::RowPartition;
use harpgbdt::trainer::{build_hists_dp, DriverCtx, DriverScratch, HistJob};
use harpgbdt::{GbdtTrainer, GrowthMethod, ParallelMode, TrainParams};
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

/// Random dense matrix with missing values (NaN), quantized.
fn dense_case() -> impl Strategy<Value = Case> {
    (1usize..120, 1usize..9, any::<u64>()).prop_map(|(n, m, seed)| {
        let mut s = seed;
        let mut values = Vec::with_capacity(n * m);
        for _ in 0..n * m {
            let r = splitmix(&mut s);
            if r % 13 == 0 {
                values.push(f32::NAN);
            } else {
                values.push((r % 500) as f32 / 100.0);
            }
        }
        let qm = QuantizedMatrix::from_matrix(
            &FeatureMatrix::Dense(DenseMatrix::from_vec(n, m, values)),
            BinningConfig::with_max_bins(16),
        );
        let (grads, rows) = grads_and_rows(n, seed ^ 0xABCD);
        Case { qm, grads, rows }
    })
}

/// Random CSR matrix (absent = missing), quantized.
fn sparse_case() -> impl Strategy<Value = Case> {
    (1usize..120, 2usize..9, any::<u64>()).prop_map(|(n, m, seed)| {
        let mut s = seed;
        let rows_vec: Vec<Vec<(u32, f32)>> = (0..n)
            .map(|_| {
                (0..m as u32)
                    .filter_map(|c| {
                        let r = splitmix(&mut s);
                        (r % 3 != 0).then_some((c, (r % 500) as f32 / 100.0))
                    })
                    .collect()
            })
            .collect();
        let qm = QuantizedMatrix::from_matrix(
            &FeatureMatrix::Sparse(CsrMatrix::from_rows(m, &rows_vec)),
            BinningConfig::with_max_bins(16),
        );
        let (grads, rows) = grads_and_rows(n, seed ^ 0xABCD);
        Case { qm, grads, rows }
    })
}

/// Random grouped one-hot CSR matrix: features inside a group are mutually
/// exclusive (at most one present per row), groups are independent.
fn one_hot_matrix() -> impl Strategy<Value = FeatureMatrix> {
    (8usize..80, 2usize..5, any::<u64>()).prop_map(|(n, groups, seed)| {
        let mut s = seed;
        let per = 4usize;
        let m = groups * per;
        // Deterministic preamble: every cross-group feature pair co-occurs
        // in some row.
        let mut rows: Vec<Vec<(u32, f32)>> = Vec::new();
        for g in 0..groups {
            for g2 in g + 1..groups {
                for a in 0..per {
                    for b in 0..per {
                        rows.push(vec![((g * per + a) as u32, 1.0), ((g2 * per + b) as u32, 1.0)]);
                    }
                }
            }
        }
        rows.extend((0..n).map(|_| {
            (0..groups)
                .filter_map(|g| {
                    let r = splitmix(&mut s);
                    (r % 4 != 0).then(|| {
                        let f = (g * per) as u32 + ((r >> 4) % per as u64) as u32;
                        (f, ((r >> 8) % 5) as f32 + 1.0)
                    })
                })
                .collect()
        }));
        FeatureMatrix::Sparse(CsrMatrix::from_rows(m, &rows))
    })
}

/// Dense matrix of at most 12 distinct values per feature, quantized at a
/// 16-bin budget, so every feature's bins fit well inside the budget.
fn few_values_dense_case() -> impl Strategy<Value = Case> {
    (1usize..100, 1usize..9, any::<u64>()).prop_map(|(n, m, seed)| {
        let mut s = seed;
        let values: Vec<f32> = (0..n * m)
            .map(|_| {
                let r = splitmix(&mut s);
                if r % 11 == 0 {
                    f32::NAN
                } else {
                    (r % 12) as f32
                }
            })
            .collect();
        let qm = QuantizedMatrix::from_matrix(
            &FeatureMatrix::Dense(DenseMatrix::from_vec(n, m, values)),
            BinningConfig::with_max_bins(16),
        );
        let (grads, rows) = grads_and_rows(n, seed ^ 0xABCD);
        Case { qm, grads, rows }
    })
}

fn padded(qm: &QuantizedMatrix) -> usize {
    hist_width(qm.mapper().total_bins(), qm.n_features())
}

/// Fast vs scalar row scan over a feature-block split, both grad sources.
fn check_row_scan(case: &Case, n_blocks: usize) {
    let m = case.qm.n_features();
    let width = padded(&case.qm);
    let membuf: Vec<Grad> = case.rows.iter().map(|&r| case.grads[r as usize]).collect();
    let blk = m.div_ceil(n_blocks.clamp(1, m));
    let mut fast = vec![0.0; width];
    let mut scalar = vec![0.0; width];
    let mut fast_mb = vec![0.0; width];
    let mut cells_fast = 0u64;
    let mut cells_scalar = 0u64;
    let mut lo = 0;
    while lo < m {
        let hi = (lo + blk).min(m);
        cells_fast +=
            row_scan(&case.qm, &case.rows, GradSource::Global(&case.grads), lo..hi, &mut fast);
        cells_scalar += row_scan_scalar(
            &case.qm,
            &case.rows,
            GradSource::Global(&case.grads),
            lo..hi,
            &mut scalar,
        );
        row_scan(&case.qm, &case.rows, GradSource::MemBuf(&membuf), lo..hi, &mut fast_mb);
        lo = hi;
    }
    assert_eq!(fast, scalar, "specialized row_scan != scalar ({n_blocks} blocks)");
    assert_eq!(fast_mb, scalar, "MemBuf row_scan != scalar ({n_blocks} blocks)");
    assert_eq!(cells_fast, cells_scalar, "cell counts diverged");
}

/// Fast vs scalar column scan, every feature.
fn check_col_scan(case: &Case) {
    for f in 0..case.qm.n_features() {
        let n_bins = case.qm.mapper().n_bins(f) as usize;
        if n_bins == 0 {
            continue;
        }
        let mut fast = vec![0.0; n_bins * 2];
        let mut scalar = vec![0.0; n_bins * 2];
        let cf = col_scan(
            &case.qm,
            f,
            &case.rows,
            GradSource::Global(&case.grads),
            0..n_bins,
            &mut fast,
        );
        let cs = col_scan_scalar(
            &case.qm,
            f,
            &case.rows,
            GradSource::Global(&case.grads),
            0..n_bins,
            &mut scalar,
        );
        assert_eq!(fast, scalar, "col_scan != scalar at feature {f}");
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
        let width = padded(&case.qm);
        let all: Vec<u32> = (0..n as u32).collect();
        let mut by_slice = vec![0.0; width];
        let mut by_range = vec![0.0; width];
        row_scan(&case.qm, &all, GradSource::Global(&case.grads), 0..m, &mut by_slice);
        row_scan_root(&case.qm, 0..n, GradSource::Global(&case.grads), 0..m, &mut by_range);
        prop_assert_eq!(&by_slice, &by_range);
        // Sub-range of the root span (a row chunk of a DP task).
        let lo = n / 3;
        let mut chunk_slice = vec![0.0; width];
        let mut chunk_range = vec![0.0; width];
        row_scan(&case.qm, &all[lo..], GradSource::Global(&case.grads), 0..m, &mut chunk_slice);
        row_scan_root(&case.qm, lo..n, GradSource::Global(&case.grads), 0..m, &mut chunk_range);
        prop_assert_eq!(&chunk_slice, &chunk_range);
    }

    /// Every SIMD tier (clamped to what the host supports) produces bitwise
    /// the same histograms as the scalar reference, on a dense and on a
    /// sparse store.
    #[test]
    fn forced_tiers_bitwise_equal_scalar(
        dense in few_values_dense_case(),
        matrix in one_hot_matrix(),
        tier_idx in 0usize..2,
    ) {
        use harpgbdt::kernels::{row_scan_forced_tier, SimdTier};
        let tier = [SimdTier::Scalar, SimdTier::Avx2][tier_idx];
        let sparse_qm = QuantizedMatrix::from_matrix(&matrix, BinningConfig::with_max_bins(16));
        let (sgrads, srows) = grads_and_rows(sparse_qm.n_rows(), 0x5eed);
        let sparse = Case { qm: sparse_qm, grads: sgrads, rows: srows };
        for case in [&dense, &sparse] {
            let m = case.qm.n_features();
            let width = padded(&case.qm);
            let mut forced = vec![0.0; width];
            let mut scalar = vec![0.0; width];
            row_scan_forced_tier(
                tier, &case.qm, &case.rows, GradSource::Global(&case.grads), 0..m, &mut forced,
            );
            row_scan_scalar(&case.qm, &case.rows, GradSource::Global(&case.grads), 0..m, &mut scalar);
            prop_assert_eq!(&forced, &scalar);
            for f in 0..m {
                let n_bins = case.qm.mapper().n_bins(f) as usize;
                if n_bins == 0 {
                    continue;
                }
                let mut fast = vec![0.0; n_bins * 2];
                let mut slow = vec![0.0; n_bins * 2];
                col_scan(
                    &case.qm, f, &case.rows, GradSource::Global(&case.grads),
                    0..n_bins, &mut fast,
                );
                col_scan_scalar(
                    &case.qm, f, &case.rows, GradSource::Global(&case.grads),
                    0..n_bins, &mut slow,
                );
                prop_assert_eq!(&fast, &slow);
            }
        }
    }
}

/// The proptests above draw small random matrices only. This runs the three
/// kernels on two whole benchmark-shaped stores at scale 0.25 — SYNSET's
/// dense 5 000 rows, and YFCC-like's 500 rows of 4 096 sparse features,
/// whose CSR the first row read transposes from the CSC — over every row:
/// `row_scan` and the root fast path against the scalar row reference, and
/// `col_scan` against the scalar column reference on every fourth feature.
#[test]
fn kernels_bitwise_equal_scalar_on_synset_and_yfcc_shapes() {
    for kind in [DatasetKind::Synset, DatasetKind::YfccLike] {
        let d = SynthConfig::new(kind, 1).with_scale(0.25).generate();
        let qm = QuantizedMatrix::from_matrix(&d.features, BinningConfig::default());
        let (n, m) = (qm.n_rows(), qm.n_features());
        let grads: Vec<Grad> = (0..n).map(|i| [((i % 17) as f32) - 8.0, 0.25]).collect();
        let rows: Vec<u32> = (0..n as u32).collect();
        let src = GradSource::Global(&grads);
        let width = padded(&qm);
        let mut fast = vec![0.0; width];
        let mut scalar = vec![0.0; width];
        let mut root = vec![0.0; width];
        row_scan(&qm, &rows, src, 0..m, &mut fast);
        row_scan_scalar(&qm, &rows, src, 0..m, &mut scalar);
        row_scan_root(&qm, 0..n, src, 0..m, &mut root);
        assert_eq!(fast, scalar, "{kind:?}: row_scan diverged from the scalar reference");
        assert_eq!(root, scalar, "{kind:?}: row_scan_root diverged from the scalar reference");
        for f in (0..m).step_by((m / 4).max(1)) {
            let n_bins = qm.mapper().n_bins(f) as usize;
            if n_bins == 0 {
                continue;
            }
            let mut cf = vec![0.0; n_bins * 2];
            let mut cs = vec![0.0; n_bins * 2];
            col_scan(&qm, f, &rows, src, 0..n_bins, &mut cf);
            col_scan_scalar(&qm, f, &rows, src, 0..n_bins, &mut cs);
            assert_eq!(cf, cs, "{kind:?}: col_scan diverged from the scalar reference at {f}");
        }
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

/// Two consecutive driver calls on pooled replicas are bitwise identical:
/// the dirty-range re-zeroing restores exact fresh-buffer state.
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
    let width = hist_width(qm.mapper().total_bins(), qm.n_features());
    let mut scratch = DriverScratch::new();
    let run = |nodes: &[u32], scratch: &mut DriverScratch| -> Vec<Vec<f64>> {
        let ctx =
            DriverCtx { qm: &qm, params: &params, pool: &pool, partition: &part, grads: &grads };
        let mut jobs: Vec<HistJob> =
            nodes.iter().map(|&node| HistJob { node, buf: vec![0.0; width] }).collect();
        build_hists_dp(&ctx, scratch, &mut jobs);
        jobs.into_iter().map(|j| j.buf).collect()
    };
    let first = run(&[3, 4, 2], &mut scratch);
    let _interleaved = run(&[2], &mut scratch);
    let second = run(&[3, 4, 2], &mut scratch);
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
    let width = hist_width(qm.mapper().total_bins(), qm.n_features());
    let mut scratch = DriverScratch::new();
    for call in 0..4 {
        let ctx =
            DriverCtx { qm: &qm, params: &params, pool: &pool, partition: &part, grads: &grads };
        let mut jobs: Vec<HistJob> =
            [1u32, 2].iter().map(|&node| HistJob { node, buf: vec![0.0; width] }).collect();
        build_hists_dp(&ctx, &mut scratch, &mut jobs);
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
