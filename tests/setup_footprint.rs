//! Set-up's memory footprint, gated exactly: a counting global allocator
//! measures the peak of live heap bytes while `QuantizedMatrix::from_matrix`
//! runs, and the peak may exceed the storage the call returns only by the
//! transient the pipeline is designed to hold — one `n_rows × 4`-byte key
//! buffer per thread for dense input; for sparse input the `nnz × 8`-byte
//! column-major copy, its `blocks × n_cols × 8`-byte cursor table and one
//! pair buffer per thread, 8 bytes for each entry of the longest column the
//! cut search sorts (fewer than 2¹⁵) — plus a fixed slack. A whole-matrix
//! copy of the raw values (what the pre-pipeline `BinMapper::from_matrix`
//! made) breaks the bound, and so does a cursor table per thread on a matrix
//! wider than its threads' share of entries.
//!
//! Pass 1 runs before the storage exists, so the whole-call bound would
//! admit a pass-1 transient as large as the storage. `BinMapper::from_matrix`
//! is therefore measured alone as well: on dense input, per thread one `u32`
//! key and one `u16` low-bits entry per row plus the bucket counters of the
//! counting cut search — still less than a copy of the matrix; on sparse
//! input whose columns all sort as pairs, the column-major copy, its table
//! and the pair buffers, under a slack smaller than a key buffer — a pair
//! buffer sized by `nnz`, or a key buffer held beside it, breaks that bound.
//!
//! The allocator is process-wide, so this file holds a single `#[test]`.

mod counting_alloc;

use harp_binning::{BinMapper, BinningConfig, LayoutOptions, QuantizedMatrix};
use harp_data::{CsrMatrix, DenseMatrix, FeatureMatrix};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Bookkeeping the bound does not model: per-feature cut vectors, task
/// lists, thread stacks' heap side, the CSR/CSC offset tables' twins.
const SLACK_BYTES: usize = 1 << 20;

/// The same for sparse pass 1 alone, whose bookkeeping is little more than
/// a cut vector per feature (≈ 35 KB on the 32-feature matrix below): less
/// than one `u32` key per entry of its longest column, so a worker holding
/// such a key buffer beside its pair buffer breaks the bound.
const PASS1_SLACK_BYTES: usize = 96 << 10;

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
    // ≈ 30 000 entries a column: all of them take the sort arm, as pairs.
    let longest = longest_column(&sparse);
    assert!(longest < 1 << 15 && PASS1_SLACK_BYTES < longest * 4);
    let table = transpose_table_bytes(nnz, m as usize, threads);
    let pairs = pair_buffer_bytes(longest, threads);
    let (mapper, peak) =
        counting_alloc::peak_during(|| BinMapper::from_matrix(&sparse, BinningConfig::default()));
    assert_eq!(mapper.max_bins_used(), 255);
    let bound = nnz * 8 + table + pairs + PASS1_SLACK_BYTES;
    assert!(
        peak <= bound,
        "sparse cut search peaked at {peak} live bytes, over nnz {nnz} x 8 + cursor table \
         {table} + pair buffers {pairs} + slack = {bound}"
    );
    drop(mapper);
    let (q, peak) = counting_alloc::peak_during(|| {
        QuantizedMatrix::from_matrix(&sparse, BinningConfig::default())
    });
    assert!(q.sparse_csr().is_some(), "the sparse input must stay sparse");
    let bound = q.storage_bytes() + nnz * 8 + table + pairs + SLACK_BYTES;
    assert!(
        peak <= bound,
        "sparse set-up peaked at {peak} live bytes, over storage {} + nnz {nnz} x 8 + cursor \
         table {table} + pair buffers {pairs} + slack = {bound}",
        q.storage_bytes()
    );
    drop((q, sparse));

    // Wide and short: 2^18 columns for 2^15 entries. One cursor per ⟨thread,
    // column⟩ would be `threads` x 2 MB to place 128 KB of row ids; the block
    // rule transposes such a matrix as one block, through one cursor per
    // column (`n_cols` words, what its `indptr` takes anyway). Its mapper —
    // one cut vector per column — is what is big here, and is counted.
    let (n, m, row_len) = (64usize, 1usize << 18, 512usize);
    let rows: Vec<Vec<(u32, f32)>> = (0..n)
        .map(|r| (0..row_len).map(|k| ((k * (m / row_len) + r) as u32, rng.gen())).collect())
        .collect();
    let sparse = FeatureMatrix::Sparse(CsrMatrix::from_rows(m, &rows));
    drop(rows);
    let nnz = sparse.n_present();
    assert!(m > nnz / threads.max(1) && nnz / (4 * m) == 0);
    let (q, peak) = counting_alloc::peak_during(|| {
        QuantizedMatrix::from_matrix_opts(
            &sparse,
            BinningConfig::default(),
            LayoutOptions::uncompressed(),
        )
    });
    assert!(q.sparse_csr().is_some());
    let mapper = q.mapper();
    let cut_bytes: usize = (0..m).map(|f| mapper.cuts(f).cuts.capacity() * 4).sum();
    let mapper_bytes = m * std::mem::size_of_val(mapper.cuts(0)) + (m + 1) * 4 + cut_bytes;
    let table = transpose_table_bytes(nnz, m, threads);
    assert_eq!(table, m * 8, "one block: the table is one cursor per column");
    let pairs = pair_buffer_bytes(longest_column(&sparse), threads);
    let bound = q.storage_bytes() + mapper_bytes + nnz * 8 + table + pairs + SLACK_BYTES;
    assert!(
        peak <= bound,
        "wide sparse set-up peaked at {peak} live bytes, over storage {} + mapper {mapper_bytes} \
         + nnz {nnz} x 8 + cursor table {table} + pair buffers {pairs} + slack = {bound}",
        q.storage_bytes()
    );
}

/// Bytes of the sparse transpose's cursor table: `n_cols` words for each of
/// `clamp(nnz / (4 x n_cols), 1, threads)` row blocks, so never more than a
/// quarter of the entries' words unless one block's worth already is.
fn transpose_table_bytes(nnz: usize, n_cols: usize, threads: usize) -> usize {
    (nnz / (4 * n_cols)).clamp(1, threads.max(1)) * n_cols * 8
}

/// Bytes of pass 1's ⟨key, position⟩ pair buffers: one per thread, `u64`s
/// for the longest column the sort arm takes (`< 2^15` entries).
fn pair_buffer_bytes(longest_column: usize, threads: usize) -> usize {
    threads * longest_column.min(1 << 15) * 8
}

/// Entries in the longest column of a sparse matrix.
fn longest_column(matrix: &FeatureMatrix) -> usize {
    let FeatureMatrix::Sparse(csr) = matrix else { panic!("a sparse matrix") };
    let mut counts = vec![0usize; csr.n_cols()];
    csr.parts().1.iter().for_each(|&c| counts[c as usize] += 1);
    counts.into_iter().max().unwrap_or(0)
}
