//! Set-up micro-benchmark: pass 1 (cut search, `BinMapper::from_matrix`) and
//! pass 2 (quantization, `QuantizedMatrix::with_mapper`) at 50k and 500k
//! rows, on a dense 8-feature matrix and a CSR matrix of the same shape at
//! 30% density.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use harp_binning::{BinMapper, BinningConfig, QuantizedMatrix};
use harp_data::{CsrMatrix, DenseMatrix, FeatureMatrix};
use rand::{rngs::StdRng, Rng, SeedableRng};

const FEATURES: usize = 8;

fn dense(n: usize, rng: &mut StdRng) -> FeatureMatrix {
    let values = (0..n * FEATURES).map(|_| rng.gen()).collect();
    FeatureMatrix::Dense(DenseMatrix::from_vec(n, FEATURES, values))
}

fn csr(n: usize, rng: &mut StdRng) -> FeatureMatrix {
    let rows: Vec<Vec<(u32, f32)>> = (0..n)
        .map(|_| {
            let present: Vec<u32> =
                (0..FEATURES as u32).filter(|_| rng.gen::<f32>() < 0.3).collect();
            present.into_iter().map(|c| (c, rng.gen())).collect()
        })
        .collect();
    FeatureMatrix::Sparse(CsrMatrix::from_rows(FEATURES, &rows))
}

fn bench_setup(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let mut group = c.benchmark_group("setup");
    group.sample_size(10);
    for n in [50_000usize, 500_000] {
        for (layout, matrix) in [("dense", dense(n, &mut rng)), ("csr", csr(n, &mut rng))] {
            group.bench_with_input(
                BenchmarkId::new(format!("cut_search_{layout}"), n),
                &matrix,
                |b, m| b.iter(|| BinMapper::from_matrix(m, BinningConfig::default())),
            );
            let mapper = BinMapper::from_matrix(&matrix, BinningConfig::default());
            group.bench_with_input(
                BenchmarkId::new(format!("quantize_{layout}"), n),
                &matrix,
                |b, m| {
                    b.iter_batched(
                        || mapper.clone(),
                        |mapper| QuantizedMatrix::with_mapper(m, mapper),
                        BatchSize::LargeInput,
                    )
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_setup);
criterion_main!(benches);
