//! Set-up's memory footprint, gated exactly: a counting global allocator
//! measures the peak of live heap bytes while `QuantizedMatrix::from_matrix`
//! runs. On dense input the peak may exceed the storage the call returns
//! only by the transient the pipeline is designed to hold — one
//! `n_rows × 4`-byte key buffer per thread — plus a fixed slack. A
//! whole-matrix copy of the raw values (what the pre-pipeline
//! `BinMapper::from_matrix` made) breaks the bound.
//!
//! A dense matrix whose features all fit 16 bins is stored as its two byte
//! majors and nothing else (`2 × n × m` bytes), under the same bound: a
//! nibble-packed side copy of the cells breaks it.
//!
//! Sparse set-up builds the CSC alone: one 4-byte word per entry (first the
//! value, then the row id, in one buffer) and one bin byte, the CSC's
//! offsets, the `blocks × n_cols × 8`-byte cursor table of the transpose and
//! one pair buffer per thread, 8 bytes for each entry of the longest column
//! the cut search sorts (fewer than 2¹⁵), plus a fixed slack. The bound has
//! no term for a CSR, whose `nnz × 5` bytes are far over the slack; a value
//! copy held beside the row ids breaks it too, and so does a cursor table
//! per thread on a matrix wider than its threads' share of entries, and so
//! does a dense copy of one-hot groups fused into shared columns. Set-up
//! followed by model-parallel training is gated the same way: MP scans and
//! routes by column, so the run never builds a CSR.
//!
//! Pass 1 runs before the storage exists, so the whole-call bound would
//! admit a pass-1 transient as large as the storage. `BinMapper::from_matrix`
//! is therefore measured alone as well: on dense input, per thread one `u32`
//! key and one `u16` low-bits entry per row plus the bucket counters of the
//! counting cut search — still less than a copy of the matrix; on sparse
//! input whose columns all sort as pairs, the column-major values, their
//! offsets and table and the pair buffers, under a slack smaller than a key
//! buffer — a pair buffer sized by `nnz`, a key buffer held beside it, or
//! row ids beside the values, breaks that bound.
//!
//! The allocator is process-wide, so this file holds a single `#[test]`.

mod counting_alloc;

use harp_binning::{BinMapper, BinningConfig, QuantizedMatrix};
use harp_data::{CsrMatrix, DatasetKind, DenseMatrix, FeatureMatrix, SynthConfig};
use harp_metrics::gauges;
use harpgbdt::{GbdtTrainer, LedgerConfig, ParallelMode, TrainParams};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Bookkeeping the bound does not model: per-feature cut vectors, task
/// lists, thread stacks' heap side; in training, trees, ledger records,
/// plan and task tables.
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

    // Every feature on at most 13 bins: one byte per cell in each major is
    // the whole store.
    let (n, m) = (100_000usize, 28usize);
    let values: Vec<f32> = (0..n * m)
        .map(|i| if i % 23 == 0 { f32::NAN } else { f32::from(rng.gen_range(0..13u8)) })
        .collect();
    let low = FeatureMatrix::Dense(DenseMatrix::from_vec(n, m, values));
    let (q, peak) = counting_alloc::peak_during(|| {
        QuantizedMatrix::from_matrix(&low, BinningConfig::default())
    });
    assert!(q.is_dense() && q.mapper().max_bins_used() <= 16);
    assert_eq!(q.storage_bytes(), 2 * n * m, "a <= 16-bin dense store is its two majors alone");
    let bound = 2 * n * m + threads * n * 4 + SLACK_BYTES;
    assert!(
        peak <= bound,
        "<= 16-bin dense set-up peaked at {peak} live bytes, over 2 majors of {n} x {m} + \
         {threads} threads x {n} rows x 4 + slack = {bound}"
    );
    drop((q, low));

    // 30%-dense columns overlap in almost every row.
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
    let offsets = (m as usize + 1) * 8;
    let bound = nnz * 4 + offsets + table + pairs + PASS1_SLACK_BYTES;
    assert!(
        peak <= bound,
        "sparse cut search peaked at {peak} live bytes, over nnz {nnz} x 4 + offsets {offsets} + \
         cursor table {table} + pair buffers {pairs} + slack = {bound}"
    );
    drop(mapper);
    let (q, peak) = counting_alloc::peak_during(|| {
        QuantizedMatrix::from_matrix(&sparse, BinningConfig::default())
    });
    assert!(q.sparse_col(0).is_some(), "the sparse input must stay sparse");
    let bound = nnz * 5 + offsets + table + pairs + SLACK_BYTES;
    assert!(
        peak <= bound,
        "sparse set-up peaked at {peak} live bytes, over nnz {nnz} x 5 + offsets {offsets} + \
         cursor table {table} + pair buffers {pairs} + slack = {bound}"
    );
    drop((q, sparse));

    // One-hot: 20 groups of 16 features, one feature of each group in every
    // row. The store is the CSC (and its CSR's size, counted as the data's),
    // with no dense copy of the groups beside or instead of it.
    let (n, groups, per) = (50_000usize, 20usize, 16usize);
    let m = groups * per;
    let rows: Vec<Vec<(u32, f32)>> = (0..n)
        .map(|_| {
            (0..groups)
                .map(|g| {
                    ((g * per + rng.gen_range(0..per)) as u32, f32::from(rng.gen_range(1..4u8)))
                })
                .collect()
        })
        .collect();
    let one_hot = FeatureMatrix::Sparse(CsrMatrix::from_rows(m, &rows));
    drop(rows);
    let nnz = one_hot.n_present();
    assert_eq!(nnz, n * groups);
    let table = transpose_table_bytes(nnz, m, threads);
    let pairs = pair_buffer_bytes(longest_column(&one_hot), threads);
    let (q, peak) = counting_alloc::peak_during(|| {
        QuantizedMatrix::from_matrix(&one_hot, BinningConfig::default())
    });
    assert!(q.sparse_col(0).is_some(), "one-hot groups are stored as a CSC");
    let offsets = (m + 1) * 8;
    assert_eq!(q.storage_bytes(), 2 * nnz * 5 + (n + 1) * 8 + offsets);
    let bound = nnz * 5 + offsets + table + pairs + SLACK_BYTES;
    assert!(
        peak <= bound,
        "one-hot set-up peaked at {peak} live bytes, over nnz {nnz} x 5 + offsets {offsets} + \
         cursor table {table} + pair buffers {pairs} + slack = {bound}"
    );
    drop((q, one_hot));

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
        QuantizedMatrix::from_matrix(&sparse, BinningConfig::default())
    });
    assert!(q.sparse_col(0).is_some());
    let mapper = mapper_bytes(q.mapper());
    let table = transpose_table_bytes(nnz, m, threads);
    assert_eq!(table, m * 8, "one block: the table is one cursor per column");
    let pairs = pair_buffer_bytes(longest_column(&sparse), threads);
    let offsets = (m + 1) * 8;
    let bound = nnz * 5 + offsets + mapper + table + pairs + SLACK_BYTES;
    assert!(
        peak <= bound,
        "wide sparse set-up peaked at {peak} live bytes, over nnz {nnz} x 5 + offsets {offsets} \
         + mapper {mapper} + cursor table {table} + pair buffers {pairs} + slack = {bound}"
    );
    drop((q, sparse));

    // The end-to-end benchmark's sparse shape at half its rows, set up and
    // trained model-parallel in one measurement: beside the set-up bound,
    // training holds its row partition (two planes of row id + MemBuf
    // gradient pair, the routing mask), the raw scores and the histograms
    // its ledger reports. Its CSR would be ≈ 6 MB.
    let yfcc = SynthConfig::new(DatasetKind::YfccLike, 5).with_scale(0.5).generate();
    let (n, m) = (yfcc.features.n_rows(), yfcc.features.n_cols());
    let nnz = yfcc.features.n_present();
    let params = TrainParams {
        n_trees: 2,
        tree_size: 4,
        n_threads: 2,
        mode: ParallelMode::ModelParallel,
        ledger: LedgerConfig::enabled(),
        ..Default::default()
    };
    let trainer = GbdtTrainer::new(params).expect("valid params");
    let ((q, out), peak) = counting_alloc::peak_during(|| {
        let q = QuantizedMatrix::from_matrix(&yfcc.features, BinningConfig::default());
        let out = trainer.train_store(&q, &yfcc.labels, None);
        (q, out)
    });
    assert!(q.sparse_col(0).is_some(), "the yfcc shape stays sparse");
    assert!(out.model.n_trees() == 2 && out.diagnostics.tree_shapes[0].n_leaves > 4);
    let ledger = out.diagnostics.ledger.as_ref().expect("ledger on");
    let last = ledger.records().last().expect("one record per round");
    let high_water = |name: &str| {
        last.mem
            .iter()
            .find(|g| g.name == name)
            .map_or(0, |g| g.high_water_bytes as usize)
    };
    let hists = high_water(gauges::HIST_POOL) + high_water(gauges::SCRATCH_ARENA);
    let csc = nnz * 5 + (m + 1) * 8 + mapper_bytes(q.mapper());
    let setup = transpose_table_bytes(nnz, m, threads)
        + pair_buffer_bytes(longest_column(&yfcc.features), threads);
    let training = n * (2 * 12 + 1 + 4) + hists;
    let bound = csc + setup + training + SLACK_BYTES;
    let csr = nnz * 5 + (n + 1) * 8;
    assert!(csr > 4 * SLACK_BYTES, "a CSR must be far over the slack");
    assert!(
        peak <= bound,
        "set-up and MP training peaked at {peak} live bytes, over CSC {csc} + set-up transient \
         {setup} + training {training} + slack = {bound} (a CSR is {csr})"
    );
}

/// Heap bytes of a mapper: one cut vector per feature and the offsets.
fn mapper_bytes(mapper: &BinMapper) -> usize {
    let m = mapper.n_features();
    let cut_bytes: usize = (0..m).map(|f| mapper.cuts(f).cuts.capacity() * 4).sum();
    m * std::mem::size_of_val(mapper.cuts(0)) + (m + 1) * 4 + cut_bytes
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
