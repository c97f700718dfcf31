//! Training's memory footprint, gated: a counting global allocator measures
//! the peak of live heap bytes while `train_store` runs on a store that
//! already exists, and the peak may exceed what the run is designed to hold
//! per row — the row partition's two planes (row id + MemBuf gradient pair
//! each) and its routing mask, the raw scores, and with MemBuf off the one
//! row-ordered gradient array instead of the planes' gradient halves — only
//! by the histogram pool and replica arena (as the run's own ledger gauges
//! report them) plus a fixed slack. A second row-ordered gradient array
//! beside the partition's (what the trainer kept until the partition took
//! the gradients over) breaks the bound by `n × 8` bytes.
//!
//! The allocator is process-wide, so this file holds a single `#[test]`.

mod counting_alloc;

use harp_binning::{BinningConfig, QuantizedMatrix};
use harp_data::{DenseMatrix, FeatureMatrix};
use harp_metrics::gauges;
use harpgbdt::{GbdtTrainer, LedgerConfig, ParallelMode, TrainParams};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Bookkeeping the bound does not model: trees, ledger records, plan and
/// task tables, the growth queue, per-batch routing predicates.
const SLACK_BYTES: usize = 1 << 20;

#[test]
fn training_peak_is_two_planes_a_mask_and_the_scores() {
    let mut rng = StdRng::seed_from_u64(18);
    let (n, m) = (300_000usize, 8usize);
    let values: Vec<f32> = (0..n * m).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
    let labels: Vec<f32> = (0..n)
        .map(|r| f32::from(values[r * m] + values[r * m + 3] + rng.gen_range(-1.0f32..1.0) > 0.0))
        .collect();
    let dense = FeatureMatrix::Dense(DenseMatrix::from_vec(n, m, values));
    let store = QuantizedMatrix::from_matrix(&dense, BinningConfig::default());
    drop(dense);

    for mode in [ParallelMode::DataParallel, ParallelMode::Sync] {
        for use_membuf in [true, false] {
            let params = TrainParams {
                n_trees: 3,
                tree_size: 6,
                n_threads: 2,
                mode,
                use_membuf,
                ledger: LedgerConfig::enabled(),
                ..Default::default()
            };
            let trainer = GbdtTrainer::new(params).expect("valid params");
            let (out, peak) =
                counting_alloc::peak_during(|| trainer.train_store(&store, &labels, None));
            let ledger = out.diagnostics.ledger.as_ref().expect("ledger on");
            let last = ledger.records().last().expect("one record per round");
            let high_water = |name: &str| {
                last.mem
                    .iter()
                    .find(|g| g.name == name)
                    .map_or(0, |g| g.high_water_bytes as usize)
            };
            let hists = high_water(gauges::HIST_POOL) + high_water(gauges::SCRATCH_ARENA);
            // Row ids 4 B and gradients 8 B in each plane, or one gradient
            // array; the mask 1 B; the raw scores 4 B.
            let per_row = if use_membuf { 2 * 12 + 1 + 4 } else { 2 * 4 + 1 + 8 + 4 };
            let bound = n * per_row + hists + SLACK_BYTES;
            assert!(
                peak <= bound,
                "{mode:?} membuf={use_membuf}: training peaked at {peak} live bytes, over {n} rows \
                 x {per_row} + histograms {hists} + slack = {bound}"
            );
            assert!(out.model.n_trees() == 3 && out.diagnostics.tree_shapes[0].n_leaves > 32);
        }
    }
}
