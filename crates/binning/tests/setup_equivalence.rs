//! Set-up's fast paths against their definitions, byte for byte, on the
//! end-to-end benchmark's own train-split shapes (`benchmark/src/workloads.rs`).
//! The crate's proptests draw small random matrices; these run the sizes
//! the benchmark runs.

use harp_binning::{
    write_cache, BinMapper, BinningConfig, ChunkedStore, QuantStore, QuantizedMatrix, MISSING_BIN,
};
use harp_data::{DatasetKind, FeatureMatrix, SynthConfig};

const HIGGS_ROWS: usize = 360_000;
const AIRLINE_ROWS: usize = 864_000;
const YFCC_ROWS: usize = 1_800;
const ROWS_PER_CHUNK: usize = 16_384;

fn synth(kind: DatasetKind, rows: usize) -> FeatureMatrix {
    let scale = rows as f64 / kind.base_rows() as f64;
    SynthConfig::new(kind, 7).with_scale(scale).generate().features
}

/// On the sparse 1 800 × 4 096 yfcc shape, `from_matrix` — whose pass 1
/// bins every column it sorts — stores the same bytes as `with_mapper`,
/// which searches every bin, in the CSR (transposed from the CSC on this
/// first row read) and in every CSC column.
#[test]
fn from_matrix_store_equals_with_mapper_store_on_the_yfcc_shape() {
    let matrix = synth(DatasetKind::YfccLike, YFCC_ROWS);
    assert!(matches!(matrix, FeatureMatrix::Sparse(_)), "the yfcc shape takes the sparse path");
    let walked = QuantizedMatrix::from_matrix(&matrix, BinningConfig::default());
    let searched = QuantizedMatrix::with_mapper(&matrix, walked.mapper().clone());
    assert!(walked.sparse_csr().is_some(), "the yfcc shape stays sparse");
    // `assert!`, not `assert_eq!`: a failure would print 2.3 M entries.
    assert!(walked.sparse_csr() == searched.sparse_csr(), "yfcc: CSR bins differ");
    for f in 0..walked.n_features() {
        assert!(walked.sparse_col(f) == searched.sparse_col(f), "yfcc: CSC column {f} differs");
    }
}

/// Dense pass 2 (`with_mapper`'s run kernel: whole tiles through
/// `BinLookup::bin_run`, its AVX2 body where the host has one, on every
/// set-up thread) stores in the column major exactly what the definition of
/// a stored byte gives: `value_to_bin` of each present cell, one at a time;
/// and the row major the first row read transposes from it holds the same
/// bytes in row order.
fn assert_run_kernel_equals_per_cell(matrix: &FeatureMatrix) {
    let FeatureMatrix::Dense(dense) = matrix else { panic!("a dense shape") };
    let (n, m) = (dense.n_rows(), dense.n_cols());
    let mapper = BinMapper::from_matrix(matrix, BinningConfig::default());
    let (mut rows, mut cols) = (vec![0u8; n * m], vec![0u8; n * m]);
    for (i, &v) in dense.values().iter().enumerate() {
        let (r, f) = (i / m, i % m);
        let bin = if v.is_nan() { MISSING_BIN } else { mapper.cuts(f).value_to_bin(v) };
        rows[i] = bin;
        cols[f * n + r] = bin;
    }
    let qm = QuantizedMatrix::with_mapper(matrix, mapper);
    assert!(qm.dense_row_major() == Some(&rows[..]), "{n}x{m}: row-major bytes differ");
    for (f, col) in cols.chunks(n).enumerate() {
        assert!(qm.dense_col(f) == Some(col), "{n}x{m}: column {f} differs");
    }
}

#[test]
fn dense_run_kernel_equals_per_cell_value_to_bin_on_the_higgs_shape() {
    assert_run_kernel_equals_per_cell(&synth(DatasetKind::HiggsLike, HIGGS_ROWS));
}

#[test]
fn dense_run_kernel_equals_per_cell_value_to_bin_on_the_airline_shape() {
    assert_run_kernel_equals_per_cell(&synth(DatasetKind::AirlineLike, AIRLINE_ROWS));
}

/// The chunked set-up the `higgs_chunked_dp` workload runs — `write_cache`
/// of the in-core store, then `ChunkedStore::open`, which checksums every
/// chunk — reopens on the 360 000 × 28 shape reporting the in-core
/// `storage_bytes`.
#[test]
fn chunk_cache_reopens_with_the_in_core_storage_bytes_on_the_higgs_shape() {
    let qm = QuantizedMatrix::from_matrix(
        &synth(DatasetKind::HiggsLike, HIGGS_ROWS),
        BinningConfig::default(),
    );
    let path = std::env::temp_dir().join(format!("harp_setup_equiv_{}.qsc", std::process::id()));
    write_cache(&qm, ROWS_PER_CHUNK, &path).expect("write chunk cache");
    let reopened = ChunkedStore::open(&path, u64::MAX).map(|store| store.storage_bytes());
    let _ = std::fs::remove_file(&path);
    assert_eq!(reopened.expect("open chunk cache"), qm.storage_bytes());
}
