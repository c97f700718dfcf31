//! Property-based tests over the whole pipeline: random small datasets
//! through binning and training, checking structural invariants that must
//! hold for *any* input.

use harp_binning::{BinningConfig, QuantizedMatrix};
use harp_data::{Dataset, DenseMatrix, FeatureMatrix};
use harpgbdt::{GbdtTrainer, GrowthMethod, ParallelMode, TrainParams};
use proptest::prelude::*;

/// Strategy: a small random dense dataset with optional missing values.
fn small_dataset() -> impl Strategy<Value = Dataset> {
    (2usize..60, 1usize..6, any::<u64>()).prop_map(|(n, m, seed)| {
        // xorshift-ish deterministic fill; proptest drives diversity via
        // (n, m, seed).
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut values = Vec::with_capacity(n * m);
        for _ in 0..n * m {
            let r = next();
            if r % 11 == 0 {
                values.push(f32::NAN);
            } else {
                values.push((r % 1000) as f32 / 1000.0);
            }
        }
        let labels: Vec<f32> = (0..n).map(|_| (next() % 2) as f32).collect();
        Dataset::new("prop", FeatureMatrix::Dense(DenseMatrix::from_vec(n, m, values)), labels)
    })
}

fn quick_params(tree_size: u32, mode: ParallelMode, growth: GrowthMethod) -> TrainParams {
    TrainParams {
        n_trees: 2,
        tree_size,
        mode,
        growth,
        k: 2,
        n_threads: 2,
        gamma: 0.0,
        min_child_weight: 0.0,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Training must never panic and must respect the leaf budget and the
    /// depthwise depth limit, whatever the data looks like.
    #[test]
    fn training_respects_structural_limits(
        data in small_dataset(),
        tree_size in 1u32..5,
        mode_idx in 0usize..4,
        growth_idx in 0usize..2,
    ) {
        let mode = [
            ParallelMode::DataParallel,
            ParallelMode::ModelParallel,
            ParallelMode::Sync,
            ParallelMode::Async,
        ][mode_idx];
        let growth = [GrowthMethod::Leafwise, GrowthMethod::Depthwise][growth_idx];
        let out = GbdtTrainer::new(quick_params(tree_size, mode, growth))
            .unwrap()
            .train(&data);
        for shape in &out.diagnostics.tree_shapes {
            prop_assert!(shape.n_leaves as usize <= 1 << tree_size,
                "leaf budget violated: {} > 2^{tree_size}", shape.n_leaves);
            if growth == GrowthMethod::Depthwise {
                prop_assert!(shape.max_depth <= tree_size,
                    "depth limit violated: {} > {tree_size}", shape.max_depth);
            }
        }
        // Predictions must be finite for every row.
        for p in out.model.predict(&data.features) {
            prop_assert!(p.is_finite());
        }
    }

    /// Quantization must preserve the per-feature value ordering the tree
    /// routing relies on: bin(a) <= bin(b) iff a <= b (up to cut ties).
    #[test]
    fn quantization_preserves_routing_order(data in small_dataset()) {
        let qm = QuantizedMatrix::from_matrix(&data.features, BinningConfig::default());
        for f in 0..data.n_features() {
            let mut pairs: Vec<(f32, u8)> = Vec::new();
            for r in 0..data.n_rows() {
                if let (Some(v), Some(b)) = (data.features.get(r, f), qm.bin(r, f)) {
                    pairs.push((v, b));
                }
            }
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in pairs.windows(2) {
                prop_assert!(w[0].1 <= w[1].1,
                    "feature {f}: value {} got bin {} but larger value {} got bin {}",
                    w[0].0, w[0].1, w[1].0, w[1].1);
            }
        }
    }

    /// A model must predict identically before and after JSON round-trip.
    #[test]
    fn serialization_is_lossless(data in small_dataset()) {
        let out = GbdtTrainer::new(quick_params(3, ParallelMode::DataParallel, GrowthMethod::Leafwise))
            .unwrap()
            .train(&data);
        let back = harpgbdt::GbdtModel::from_json(&out.model.to_json().unwrap()).unwrap();
        prop_assert_eq!(
            out.model.predict_raw(&data.features),
            back.predict_raw(&data.features)
        );
    }

    /// Ensemble predictions decompose as base_score + sum of tree outputs.
    #[test]
    fn prediction_is_additive(data in small_dataset()) {
        let out = GbdtTrainer::new(quick_params(3, ParallelMode::Sync, GrowthMethod::Leafwise))
            .unwrap()
            .train(&data);
        let model = &out.model;
        for r in 0..data.n_rows().min(8) {
            let value = |f: u32| data.features.get(r, f as usize);
            let direct = model.predict_raw_row(value);
            let manual: f32 = model.base_scores()[0]
                + model.trees().iter().map(|t| t.predict(value)).sum::<f32>();
            prop_assert!((direct - manual).abs() < 1e-5);
        }
    }
}
