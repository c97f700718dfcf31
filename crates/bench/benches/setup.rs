//! Set-up micro-benchmark: pass 1 (cut search, `BinMapper::from_matrix`) and
//! pass 2 (quantization, `QuantizedMatrix::with_mapper`) at 50k and 500k
//! rows, on a dense 8-feature matrix and a CSR matrix of the same shape at
//! 30% density — and, on the end-to-end benchmark's own shapes, the two
//! passes of the sparse path (the 1 800 × 4 096 CSR `yfcc` train split at
//! S ≈ 0.31, whose rows hold ≈ 1 270 features where the 8-feature CSR above
//! shows no transpose cost; neither pass builds the store's CSR, which the
//! first row read transposes from its CSC) plus `setup_yfcc`, its whole
//! set-up through
//! `QuantizedMatrix::from_matrix` — the benchmark's path, on which pass 1
//! also bins the columns it sorts, its store checked against `with_mapper`'s
//! — and, on the dense 360 000 × 28 `higgs` train
//! split, the two passes plus the two chunk cache steps (`write_cache`,
//! `ChunkedStore::open`). `quantize_dense/*` times dense pass 2 on that shape
//! and on `airline`'s thin 864 000 × 8 through the library and through the
//! per-cell definition it must equal.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use harp_binning::{
    write_cache, BinMapper, BinningConfig, ChunkedStore, QuantStore, QuantizedMatrix, MISSING_BIN,
};
use harp_data::{CsrMatrix, DatasetKind, DenseMatrix, FeatureMatrix, SynthConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};

const FEATURES: usize = 8;
/// `benchmark/src/workloads.rs`: the `higgs_*`, `airline_thin_sync` and
/// `yfcc_sparse_mp` train splits and the chunk size.
const HIGGS_ROWS: usize = 360_000;
const AIRLINE_ROWS: usize = 864_000;
const YFCC_ROWS: usize = 1_800;
const ROWS_PER_CHUNK: usize = 16_384;

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

fn synth(kind: DatasetKind, rows: usize) -> FeatureMatrix {
    let scale = rows as f64 / kind.base_rows() as f64;
    SynthConfig::new(kind, 7).with_scale(scale).generate().features
}

fn bench_passes(
    group: &mut criterion::BenchmarkGroup<'_>,
    layout: &str,
    n: usize,
    matrix: &FeatureMatrix,
) {
    group.bench_with_input(BenchmarkId::new(format!("cut_search_{layout}"), n), matrix, |b, m| {
        b.iter(|| BinMapper::from_matrix(m, BinningConfig::default()))
    });
    let mapper = BinMapper::from_matrix(matrix, BinningConfig::default());
    group.bench_with_input(BenchmarkId::new(format!("quantize_{layout}"), n), matrix, |b, m| {
        b.iter_batched(
            || mapper.clone(),
            |mapper| QuantizedMatrix::with_mapper(m, mapper),
            BatchSize::LargeInput,
        )
    });
}

/// The whole sparse set-up as the end-to-end benchmark runs it,
/// `QuantizedMatrix::from_matrix`: pass 1 bins every column it sorts, so
/// `quantize_yfcc` (`with_mapper`, which searches every bin) no longer times
/// the path the benchmark takes. Set-up builds the CSC alone; the CSR is
/// transposed from it on the first row read, which no timed closure makes.
/// The store is compared byte for byte with `with_mapper`'s of the same
/// mapper outside the timed closure, CSR included, so `-- --test` (CI)
/// checks pass 1's bins and the transpose back on the full shape.
fn bench_setup_sparse(group: &mut criterion::BenchmarkGroup<'_>, n: usize, matrix: &FeatureMatrix) {
    let walked = QuantizedMatrix::from_matrix(matrix, BinningConfig::default());
    let searched = QuantizedMatrix::with_mapper(matrix, walked.mapper().clone());
    assert!(walked.sparse_csr().is_some(), "the yfcc shape stays sparse");
    // `assert!`, not `assert_eq!`: a failure would print 2.3 M entries.
    assert!(walked.sparse_csr() == searched.sparse_csr(), "yfcc: CSR bins differ");
    for f in 0..walked.n_features() {
        assert!(walked.sparse_col(f) == searched.sparse_col(f), "yfcc: CSC column {f} differs");
    }
    drop((walked, searched));
    group.bench_with_input(BenchmarkId::new("setup_yfcc", n), matrix, |b, m| {
        b.iter(|| QuantizedMatrix::from_matrix(m, BinningConfig::default()))
    });
}

/// Dense pass 2 by both bodies there are to compare from outside the crate:
/// `run_kernel`, the library's quantizer (whole tiles through
/// `BinLookup::bin_run` — eight cells a step where the host has AVX2, its
/// scalar body elsewhere — on every set-up thread), and `per_cell`, the
/// definition of a stored byte: [`FeatureCuts::value_to_bin`] of each present
/// cell on one thread. The two stores are compared byte for byte outside the
/// timed closures, so `-- --test` (CI) checks the kernel on the full shape.
///
/// [`FeatureCuts::value_to_bin`]: harp_binning::FeatureCuts::value_to_bin
fn bench_quantize_dense(
    group: &mut criterion::BenchmarkGroup<'_>,
    shape: &str,
    matrix: &FeatureMatrix,
) {
    let FeatureMatrix::Dense(dense) = matrix else { panic!("{shape} is a dense shape") };
    let (n, m) = (dense.n_rows(), dense.n_cols());
    let mapper = BinMapper::from_matrix(matrix, BinningConfig::default());
    let per_cell = || {
        let (mut rows, mut cols) = (vec![0u8; n * m], vec![0u8; n * m]);
        for (i, &v) in dense.values().iter().enumerate() {
            let (r, f) = (i / m, i % m);
            let bin = if v.is_nan() { MISSING_BIN } else { mapper.cuts(f).value_to_bin(v) };
            rows[i] = bin;
            cols[f * n + r] = bin;
        }
        (rows, cols)
    };
    let run_kernel = |mapper: BinMapper| QuantizedMatrix::with_mapper(matrix, mapper);

    let (qm, (rows, cols)) = (run_kernel(mapper.clone()), per_cell());
    assert_eq!(qm.dense_row_major(), Some(&rows[..]), "{shape}: row-major bytes");
    for (f, col) in cols.chunks(n).enumerate() {
        assert_eq!(qm.dense_col(f), Some(col), "{shape}: column {f}");
    }
    drop((qm, rows, cols));

    group.bench_function(format!("quantize_dense/run_kernel/{shape}"), |b| {
        b.iter_batched(|| mapper.clone(), run_kernel, BatchSize::LargeInput)
    });
    group.bench_function(format!("quantize_dense/per_cell/{shape}"), |b| b.iter(per_cell));
}

fn bench_setup(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let mut group = c.benchmark_group("setup");
    group.sample_size(10);
    for n in [50_000usize, 500_000] {
        bench_passes(&mut group, "dense", n, &dense(n, &mut rng));
        bench_passes(&mut group, "csr", n, &csr(n, &mut rng));
    }

    let matrix = synth(DatasetKind::YfccLike, YFCC_ROWS);
    assert!(matches!(matrix, FeatureMatrix::Sparse(_)), "the yfcc shape takes the sparse path");
    bench_passes(&mut group, "yfcc", matrix.n_rows(), &matrix);
    bench_setup_sparse(&mut group, matrix.n_rows(), &matrix);

    let matrix = synth(DatasetKind::AirlineLike, AIRLINE_ROWS);
    bench_quantize_dense(&mut group, &format!("{}x{}", matrix.n_rows(), matrix.n_cols()), &matrix);

    let matrix = synth(DatasetKind::HiggsLike, HIGGS_ROWS);
    let n = matrix.n_rows();
    bench_passes(&mut group, "higgs", n, &matrix);
    bench_quantize_dense(&mut group, &format!("{n}x{}", matrix.n_cols()), &matrix);
    let qm = QuantizedMatrix::from_matrix(&matrix, BinningConfig::default());
    drop(matrix);
    let path = std::env::temp_dir().join(format!("harp_bench_setup_{}.qsc", std::process::id()));
    // To a path that holds no file, as every set-up of the end-to-end
    // benchmark writes it (replacing a file also pays for freeing the old).
    group.bench_function(format!("cache_write_higgs/{n}"), |b| {
        b.iter_batched(
            || drop(std::fs::remove_file(&path)),
            |()| write_cache(&qm, ROWS_PER_CHUNK, &path).expect("write chunk cache"),
            BatchSize::PerIteration,
        )
    });
    // Outside the timed closures, so `-- --test` (CI) drives the whole
    // chunked set-up once and checks the cache reopens as the matrix.
    write_cache(&qm, ROWS_PER_CHUNK, &path).expect("write chunk cache");
    let store = ChunkedStore::open(&path, u64::MAX).expect("open chunk cache");
    assert_eq!(QuantStore::storage_bytes(&store), qm.storage_bytes());
    drop(store);
    group.bench_function(format!("cache_open_higgs/{n}"), |b| {
        b.iter(|| ChunkedStore::open(&path, u64::MAX).expect("open chunk cache"))
    });
    let _ = std::fs::remove_file(&path);
    group.finish();
}

criterion_group!(benches, bench_setup);
criterion_main!(benches);
