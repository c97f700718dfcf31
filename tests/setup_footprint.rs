//! Set-up's memory footprint, gated exactly: a counting global allocator
//! measures the peak of live heap bytes while `QuantizedMatrix::from_matrix`
//! runs, and the peak may exceed the storage the call returns only by the
//! transient the pipeline is designed to hold — one `n_rows × 4`-byte key
//! buffer per thread for dense input, the `nnz × 8`-byte column-major copy
//! for sparse input — plus a fixed slack. A whole-matrix copy of the raw
//! values (what the pre-pipeline `BinMapper::from_matrix` made) breaks the
//! bound.
//!
//! Pass 1 runs before the storage exists, so the whole-call bound would
//! admit a pass-1 transient as large as the storage. `BinMapper::from_matrix`
//! is therefore measured alone as well: per thread one `u32` key and one
//! `u16` low-bits entry per row plus the bucket counters of the counting cut
//! search — still less than a copy of the matrix.
//!
//! The allocator is process-wide, so this file holds a single `#[test]`.

mod counting_alloc;

use harp_binning::{BinMapper, BinningConfig, QuantizedMatrix};
use harp_data::{CsrMatrix, DenseMatrix, FeatureMatrix};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Bookkeeping the bound does not model: per-feature cut vectors, task
/// lists, thread stacks' heap side, the CSR/CSC offset tables' twins.
const SLACK_BYTES: usize = 1 << 20;

#[test]
fn setup_peak_is_storage_plus_the_designed_transient() {
    let threads = harp_parallel::current_num_threads_hint();
    let mut rng = StdRng::seed_from_u64(12);

    let (n, m) = (300_000usize, 8usize);
    let values: Vec<f32> = (0..n * m)
        .map(|i| if i % 41 == 0 { f32::NAN } else { rng.gen_range(-4.0f32..4.0) })
        .collect();
    let dense = FeatureMatrix::Dense(DenseMatrix::from_vec(n, m, values));
    let (mapper, peak) =
        counting_alloc::peak_during(|| BinMapper::from_matrix(&dense, BinningConfig::default()));
    assert_eq!(mapper.max_bins_used(), 255);
    let bound = threads * (n * 6 + 2 * 65_536 * 4) + SLACK_BYTES;
    assert!(
        peak <= bound,
        "the cut search peaked at {peak} live bytes, over {threads} threads x ({n} rows x 6 + two \
         64 Ki-counter arrays) + slack = {bound}"
    );
    drop(mapper);

    let (q, peak) = counting_alloc::peak_during(|| {
        QuantizedMatrix::from_matrix(&dense, BinningConfig::default())
    });
    assert!(q.is_dense() && q.mapper().max_bins_used() == 255);
    let bound = q.storage_bytes() + threads * n * 4 + SLACK_BYTES;
    assert!(
        peak <= bound,
        "dense set-up peaked at {peak} live bytes, over storage {} + {threads} threads x {n} rows \
         x 4 + slack = {bound}",
        q.storage_bytes()
    );
    drop((q, dense));

    // 30%-dense columns overlap in almost every row, so nothing bundles and
    // the storage stays CSR + CSC.
    let (n, m) = (100_000usize, 32u32);
    let rows: Vec<Vec<(u32, f32)>> = (0..n)
        .map(|_| {
            let present = (0..m).filter(|_| rng.gen::<f32>() < 0.3).collect::<Vec<_>>();
            present.into_iter().map(|c| (c, rng.gen())).collect()
        })
        .collect();
    let sparse = FeatureMatrix::Sparse(CsrMatrix::from_rows(m as usize, &rows));
    drop(rows);
    let nnz = sparse.n_present();
    let (q, peak) = counting_alloc::peak_during(|| {
        QuantizedMatrix::from_matrix(&sparse, BinningConfig::default())
    });
    assert!(q.sparse_csr().is_some(), "the sparse input must stay sparse");
    let bound = q.storage_bytes() + nnz * 8 + SLACK_BYTES;
    assert!(
        peak <= bound,
        "sparse set-up peaked at {peak} live bytes, over storage {} + nnz {nnz} x 8 + slack = {bound}",
        q.storage_bytes()
    );
}
