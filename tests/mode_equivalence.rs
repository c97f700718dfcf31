//! Cross-crate equivalence: all parallel modes, both baselines, any thread
//! count and any block configuration must train the *same statistical
//! model* — they only differ in scheduling.
//!
//! The property battery at the bottom goes further: under a configuration
//! where per-cell accumulation order is pinned (deterministic static DP
//! schedule, one row chunk per node, no histogram subtraction), all four
//! modes must grow **bitwise identical** trees on random dense/sparse data
//! with missing values, across MemBuf on/off and K ∈ {1, 4, 32}.

use harp_baselines::Baseline;
use harp_bench::prepared;
use harp_data::{CsrMatrix, Dataset, DatasetKind, DenseMatrix, FeatureMatrix};
use harpgbdt::{
    write_cache, BlockConfig, ChunkedStore, GbdtTrainer, GrowthMethod, ParallelMode, QuantStore,
    TrainParams, Tree,
};
use proptest::prelude::*;

fn params_t1() -> TrainParams {
    TrainParams {
        n_trees: 4,
        tree_size: 4,
        n_threads: 1,
        hist_subtraction: false,
        gamma: 0.1,
        growth: GrowthMethod::Leafwise,
        k: 1,
        ..Default::default()
    }
}

#[test]
fn every_scheduler_is_bitwise_identical_at_one_thread() {
    // Single thread + no subtraction: histogram accumulation order is the
    // ascending row order in every scheduler => identical models.
    let data = prepared(DatasetKind::HiggsLike, 0.03, 7);
    let mut reference: Option<Vec<f32>> = None;
    let mut configs: Vec<(String, TrainParams)> = vec![
        ("harp-dp".into(), TrainParams { mode: ParallelMode::DataParallel, ..params_t1() }),
        ("harp-mp".into(), TrainParams { mode: ParallelMode::ModelParallel, ..params_t1() }),
        ("harp-sync".into(), TrainParams { mode: ParallelMode::Sync, ..params_t1() }),
    ];
    for b in [Baseline::XgbLeaf, Baseline::LightGbm] {
        let mut p = b.params(4, 1);
        p.n_trees = 4;
        p.hist_subtraction = false;
        p.gamma = 0.1;
        configs.push((b.name().into(), p));
    }
    for (name, params) in configs {
        let out = GbdtTrainer::new(params).unwrap().train_store(
            &data.quantized,
            &data.train.labels,
            None,
        );
        let preds = out.model.predict_raw(&data.test.features);
        match &reference {
            None => reference = Some(preds),
            Some(r) => assert_eq!(r, &preds, "{name} diverged from the reference model"),
        }
    }
}

#[test]
fn block_configuration_never_changes_the_model_multithreaded_mp() {
    // MP accumulates per cell in ascending row order regardless of blocks
    // and thread count => bitwise identical even at T=4.
    let data = prepared(DatasetKind::AirlineLike, 0.01, 2);
    let mk = |blocks: BlockConfig| TrainParams {
        mode: ParallelMode::ModelParallel,
        n_threads: 4,
        blocks,
        ..params_t1()
    };
    let reference = GbdtTrainer::new(mk(BlockConfig::default()))
        .unwrap()
        .train_store(&data.quantized, &data.train.labels, None)
        .model
        .predict_raw(&data.test.features);
    for blocks in [
        BlockConfig { row_blk_size: 0, node_blk_size: 4, feature_blk_size: 1, bin_blk_size: 0 },
        BlockConfig { row_blk_size: 0, node_blk_size: 0, feature_blk_size: 3, bin_blk_size: 16 },
        BlockConfig { row_blk_size: 0, node_blk_size: 2, feature_blk_size: 0, bin_blk_size: 7 },
    ] {
        let out = GbdtTrainer::new(mk(blocks)).unwrap().train_store(
            &data.quantized,
            &data.train.labels,
            None,
        );
        assert_eq!(
            reference,
            out.model.predict_raw(&data.test.features),
            "blocks {blocks:?} changed the model"
        );
    }
}

#[test]
fn async_and_sync_agree_when_gain_limits_growth() {
    let data = prepared(DatasetKind::HiggsLike, 0.02, 4);
    let mk = |mode| TrainParams {
        mode,
        n_threads: 4,
        k: 8,
        tree_size: 10,
        gamma: 1.0, // growth stops on gain, not on the leaf budget
        n_trees: 3,
        hist_subtraction: false,
        ..params_t1()
    };
    let sync = GbdtTrainer::new(mk(ParallelMode::Sync)).unwrap().train_store(
        &data.quantized,
        &data.train.labels,
        None,
    );
    let asy = GbdtTrainer::new(mk(ParallelMode::Async)).unwrap().train_store(
        &data.quantized,
        &data.train.labels,
        None,
    );
    let ps = sync.model.predict_raw(&data.test.features);
    let pa = asy.model.predict_raw(&data.test.features);
    for i in 0..ps.len() {
        assert!((ps[i] - pa[i]).abs() < 1e-3, "row {i}: SYNC {} vs ASYNC {}", ps[i], pa[i]);
    }
}

/// ASYNC at K = 1 has one node task in flight, the barrier loop's batch of
/// one: it saves DP's K = 1 model byte for byte, with subtraction on and
/// the leaf budget binding, in core and through a chunk cache. Each node's
/// rows are one row block, so DP sums every cell in row order, as a node
/// task does.
#[test]
fn async_at_k1_saves_the_dp_k1_model_with_subtraction_on() {
    // 900 yfcc-like rows fill a D5 budget; D7 would take 4× the rows and
    // a 16 MB histogram per node.
    for (kind, scale, depths) in [
        (DatasetKind::HiggsLike, 0.1, &[3, 5, 7][..]),
        (DatasetKind::CriteoLike, 0.1, &[3, 5, 7]),
        (DatasetKind::YfccLike, 0.5, &[3, 5]),
    ] {
        let data = prepared(kind, scale, 3);
        let path =
            std::env::temp_dir().join(format!("harp_async_k1_{}_{kind:?}.qsc", std::process::id()));
        write_cache(&data.quantized, data.quantized.n_rows() / 8, &path).expect("write cache");
        let chunked = ChunkedStore::open(&path, u64::MAX).expect("open cache");
        let stores: [(&str, &dyn QuantStore); 2] =
            [("in core", &data.quantized), ("chunked", &chunked)];
        for (tree_size, n_threads) in depths.iter().flat_map(|&d| [(d, 1), (d, 2)]) {
            for (store_name, store) in stores {
                let model = |mode| {
                    let params = TrainParams {
                        mode,
                        k: 1,
                        tree_size,
                        n_threads,
                        n_trees: 2,
                        growth: GrowthMethod::Leafwise,
                        gamma: 0.0,
                        min_child_weight: 0.0,
                        blocks: BlockConfig { row_blk_size: 1 << 28, ..BlockConfig::default() },
                        ..TrainParams::default()
                    };
                    assert!(params.hist_subtraction, "subtraction is on by default");
                    let out = GbdtTrainer::new(params).unwrap().train_store(
                        store,
                        &data.train.labels,
                        None,
                    );
                    let budget = 1u32 << tree_size;
                    let shapes = &out.diagnostics.tree_shapes;
                    assert!(
                        shapes.iter().any(|s| s.n_leaves == budget),
                        "{kind:?} D{tree_size}: no tree reached its {budget} leaves: {shapes:?}"
                    );
                    out.model.to_json().unwrap()
                };
                assert_eq!(
                    model(ParallelMode::DataParallel),
                    model(ParallelMode::Async),
                    "{kind:?} D{tree_size} T{n_threads} {store_name}: ASYNC K=1 diverged from DP"
                );
            }
        }
        drop(chunked);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn deterministic_mode_is_stable_across_repeats_and_models_match() {
    let data = prepared(DatasetKind::CriteoLike, 0.02, 6);
    let params = TrainParams { n_threads: 4, deterministic: true, k: 8, n_trees: 3, ..params_t1() };
    let runs: Vec<String> = (0..3)
        .map(|_| {
            GbdtTrainer::new(params.clone())
                .unwrap()
                .train_store(&data.quantized, &data.train.labels, None)
                .model
                .to_json()
                .unwrap()
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
}

#[test]
fn sparse_and_dense_schedulers_agree_on_yfcc() {
    let data = prepared(DatasetKind::YfccLike, 0.05, 8);
    let dp = GbdtTrainer::new(TrainParams { mode: ParallelMode::DataParallel, ..params_t1() })
        .unwrap()
        .train_store(&data.quantized, &data.train.labels, None);
    let mp = GbdtTrainer::new(TrainParams { mode: ParallelMode::ModelParallel, ..params_t1() })
        .unwrap()
        .train_store(&data.quantized, &data.train.labels, None);
    assert_eq!(
        dp.model.predict_raw(&data.test.features),
        mp.model.predict_raw(&data.test.features),
        "CSR row scans and CSC column scans must produce the same model"
    );
}

// ---------------------------------------------------------------------------
// Property battery: bitwise mode equivalence on random data.
//
// Recipe for a bitwise-comparable configuration:
//  * `deterministic: true`       — static DP task→replica schedule;
//  * `hist_subtraction: false`   — both children built from rows, never by
//    parent-minus-sibling (subtraction changes the summation expression);
//  * `row_blk_size: 1 << 28`     — one row chunk per (node, feature-range)
//    task, so DP accumulates each cell in ascending row order exactly like
//    MP's per-cell column scan and ASYNC's serial whole-node scan (chunked
//    rows would regroup the f64 sums: (a+b)+(c+d) != ((a+b)+c)+d);
//  * `gamma: 0.1`, big `tree_size` — growth stops on gain, never on the
//    leaf budget, so the grown split-set is order-independent even though
//    the four modes expand nodes in different orders.
// Node ids then differ only by expansion order, so models are compared via
// a canonical recursive dump plus bitwise predictions.

/// Depth-first canonical encoding of a tree: split identity (bitwise) for
/// internal nodes, leaf weight bits for leaves. Independent of node ids.
fn canonical_dump(tree: &Tree, id: u32, out: &mut Vec<u64>) {
    let node = tree.node(id);
    match (&node.split, node.is_leaf()) {
        (Some(s), false) => {
            out.push(1);
            out.push(u64::from(s.feature));
            out.push(u64::from(s.bin));
            out.push(u64::from(s.default_left));
            out.push(u64::from(s.threshold.to_bits()));
            out.push(s.gain.to_bits());
            canonical_dump(tree, node.left, out);
            canonical_dump(tree, node.right, out);
        }
        _ => {
            out.push(0);
            out.push(u64::from(node.weight.to_bits()));
        }
    }
}

/// Random dense or sparse dataset with missing values, xorshift-filled so a
/// failing case reproduces from `(n, m, seed, sparse)` alone.
fn random_dataset() -> impl Strategy<Value = Dataset> {
    (8usize..80, 2usize..6, any::<u64>(), any::<bool>()).prop_map(|(n, m, seed, sparse)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let labels: Vec<f32> = (0..n).map(|_| (next() % 2) as f32).collect();
        let features = if sparse {
            let rows: Vec<Vec<(u32, f32)>> = (0..n)
                .map(|_| {
                    (0..m as u32)
                        .filter_map(|c| {
                            let r = next();
                            // ~60% fill; absent cells are the missing values.
                            (r % 5 < 3).then(|| (c, ((r >> 8) % 1000) as f32 / 500.0 - 1.0))
                        })
                        .collect()
                })
                .collect();
            FeatureMatrix::Sparse(CsrMatrix::from_rows(m, &rows))
        } else {
            let values: Vec<f32> = (0..n * m)
                .map(|_| {
                    let r = next();
                    if r % 11 == 0 {
                        f32::NAN // explicit missing values in the dense path
                    } else {
                        (r % 1000) as f32 / 500.0 - 1.0
                    }
                })
                .collect();
            FeatureMatrix::Dense(DenseMatrix::from_vec(n, m, values))
        };
        Dataset::new("prop", features, labels)
    })
}

fn bitwise_params(mode: ParallelMode, use_membuf: bool, k: usize) -> TrainParams {
    TrainParams {
        n_trees: 2,
        tree_size: 12,
        n_threads: 2,
        mode,
        growth: GrowthMethod::Leafwise,
        k,
        use_membuf,
        deterministic: true,
        hist_subtraction: false,
        gamma: 0.1,
        blocks: BlockConfig { row_blk_size: 1 << 28, ..BlockConfig::default() },
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// DP / MP / SYNC / ASYNC, MemBuf on/off, K in {1, 4, 32}: all 24
    /// configurations grow bitwise-identical trees and predictions.
    #[test]
    fn all_modes_are_bitwise_identical_on_random_data(data in random_dataset()) {
        let mut reference: Option<(Vec<Vec<u64>>, Vec<u32>)> = None;
        for mode in [
            ParallelMode::DataParallel,
            ParallelMode::ModelParallel,
            ParallelMode::Sync,
            ParallelMode::Async,
        ] {
            for use_membuf in [true, false] {
                for k in [1usize, 4, 32] {
                    let out = GbdtTrainer::new(bitwise_params(mode, use_membuf, k))
                        .unwrap()
                        .train(&data);
                    let dumps: Vec<Vec<u64>> = out
                        .model
                        .trees()
                        .iter()
                        .map(|t| {
                            let mut v = Vec::new();
                            canonical_dump(t, 0, &mut v);
                            v
                        })
                        .collect();
                    let pred_bits: Vec<u32> = out
                        .model
                        .predict_raw(&data.features)
                        .iter()
                        .map(|p| p.to_bits())
                        .collect();
                    match &reference {
                        None => reference = Some((dumps, pred_bits)),
                        Some((ref_dumps, ref_bits)) => {
                            prop_assert!(
                                ref_dumps == &dumps,
                                "trees diverged: {:?} membuf={} k={}", mode, use_membuf, k
                            );
                            prop_assert!(
                                ref_bits == &pred_bits,
                                "predictions diverged: {:?} membuf={} k={}", mode, use_membuf, k
                            );
                        }
                    }
                }
            }
        }
    }
}
