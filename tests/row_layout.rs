//! Who builds a dense store's row major. Set-up writes only the column
//! major; training derives the row major on its own thread right before its
//! first Replicated batch, and binned scoring before it hands out score
//! tasks. So an MP run, and a SYNC run whose every batch is Exclusive, never
//! hold it; DP and ASYNC build it exactly once, on the training thread; and
//! when it is built does not change the model.
//!
//! A counting global allocator counts the allocations of exactly the row
//! major's size, and which of them the calling thread made. The shape makes
//! that size odd, so no array of a wider element has it, and no other
//! byte-per-row-and-feature array exists beside the column major, which is
//! built before the count starts. The allocator is process-wide, so this
//! file holds a single `#[test]`.

mod counting_alloc;

use harp_binning::{BinningConfig, QuantizedMatrix};
use harp_data::{DenseMatrix, FeatureMatrix};
use harp_parallel::ThreadPool;
use harpgbdt::{GbdtTrainer, LossKind, ParallelMode, Predictor, TrainParams};
use rand::{rngs::StdRng, Rng, SeedableRng};

#[test]
fn only_runs_that_scan_rows_derive_the_row_major_on_the_training_thread() {
    let mut rng = StdRng::seed_from_u64(53);
    let (n, m) = (20_011usize, 7usize);
    let values: Vec<f32> = (0..n * m).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
    let labels: Vec<f32> = (0..n)
        .map(|r| values[r * m] - values[r * m + 3] + rng.gen_range(-1.0f32..1.0))
        .collect();
    let dense = FeatureMatrix::Dense(DenseMatrix::from_vec(n, m, values));
    let store = || QuantizedMatrix::from_matrix(&dense, BinningConfig::default());
    let (row_major, pool) = (n * m, ThreadPool::new(2));

    // Squared error gives every row a hessian of 1, so a child holds at
    // least `min_child_weight` = 512 rows: every SYNC batch at T = 2 is then
    // Exclusive (`ParallelMode::accumulation`).
    for (mode, derived) in [
        (ParallelMode::ModelParallel, (0, 0)),
        (ParallelMode::Sync, (0, 0)),
        (ParallelMode::DataParallel, (1, 1)),
        (ParallelMode::Async, (1, 1)),
    ] {
        let params = TrainParams {
            n_trees: 3,
            tree_size: 4,
            n_threads: 2,
            mode,
            loss: LossKind::SquaredError,
            min_child_weight: 512.0,
            ..Default::default()
        };
        let trainer = GbdtTrainer::new(params).expect("valid params");
        let fresh = store();
        let (out, allocs) = counting_alloc::allocs_of_size(row_major, || {
            trainer.train_store(&fresh, &labels, None)
        });
        assert_eq!(
            allocs, derived,
            "{mode:?}: row-major allocations (anywhere, on the training thread)"
        );
        assert!(out.diagnostics.tree_shapes[0].n_leaves > 4);
        // ASYNC is not run-to-run deterministic at T = 2.
        if mode != ParallelMode::Async {
            let ready = store();
            ready.derive_rows();
            let again = trainer.train_store(&ready, &labels, None);
            assert_eq!(
                out.model.to_json().unwrap(),
                again.model.to_json().unwrap(),
                "{mode:?}: the model depends on when the row major was built"
            );
        }

        // Binned scoring on a pool reads rows: it derives them once, on the
        // caller, before any score task runs.
        let (flat, fresh) = (out.model.compile(), store());
        let predictor = Predictor::new(&flat).with_pool(&pool);
        let (scores, allocs) =
            counting_alloc::allocs_of_size(row_major, || predictor.predict_raw_store(&fresh));
        assert_eq!(allocs, (1, 1), "{mode:?}: scoring's row-major allocations");
        assert_eq!(scores, out.model.predict_raw(&dense), "{mode:?}: binned scores");
    }
}
