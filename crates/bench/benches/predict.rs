//! Batch-prediction benchmarks: per-row recursive traversal vs the
//! flattened blocked kernel (over row-block sizes) vs the parallel driver
//! and the quantized fast path, on a HIGGS-shaped test set.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use harp_binning::{BinningConfig, QuantizedMatrix};
use harp_data::{DatasetKind, SynthConfig};
use harpgbdt::{GbdtTrainer, Predictor, TrainParams};

fn bench_predict(c: &mut Criterion) {
    let data = SynthConfig::new(DatasetKind::HiggsLike, 1).with_scale(0.2).generate();
    let (train, test) = data.split(0.5, 1);
    let params = TrainParams {
        n_trees: 50,
        tree_size: 6,
        n_threads: harp_parallel::current_num_threads_hint(),
        ..TrainParams::default()
    };
    let model = GbdtTrainer::new(params).expect("valid params").train(&train).model;
    let engine = model.compile();
    let qm = QuantizedMatrix::from_matrix(&test.features, BinningConfig::default());

    let mut group = c.benchmark_group("predict");
    group.sample_size(10);

    group.bench_function("recursive/per_row", |b| {
        b.iter(|| {
            (0..test.features.n_rows())
                .flat_map(|r| model.predict_raw_groups_row(|f| test.features.get(r, f as usize)))
                .collect::<Vec<f32>>()
        });
    });
    for block in [16usize, 64, 256, 1024] {
        group.bench_with_input(BenchmarkId::new("flat/block", block), &block, |b, &block| {
            b.iter(|| Predictor::new(&engine).block_rows(block).predict_raw(&test.features));
        });
    }
    group.bench_function("flat/binned", |b| {
        b.iter(|| engine.predict_raw_store(&qm));
    });
    let pool = harp_parallel::ThreadPool::new(harp_parallel::current_num_threads_hint());
    group.bench_function("flat/parallel", |b| {
        b.iter(|| engine.predict_raw_parallel(&test.features, &pool));
    });
    group.finish();
}

criterion_group!(benches, bench_predict);
criterion_main!(benches);
