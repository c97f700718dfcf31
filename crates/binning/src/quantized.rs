//! Quantized (binned) feature matrices in scan-friendly layouts.
//!
//! The trainer's two scan patterns need different layouts (§IV-A views Input
//! as a ⟨row, bin, feature⟩ cube):
//!
//! * **Row scans** (data parallelism): each task walks a row-block and, for
//!   each row, all features — served by row-major dense storage or CSR.
//! * **Column scans** (feature/model parallelism): each task walks a feature
//!   block across the rows of one node — served by column-major dense
//!   storage or CSC.
//!
//! Both kinds follow one rule: set-up builds the column layout, and the row
//! layout is its transpose, made on first need. Dense storage is built as
//! the column major, and its row major is a cache-blocked transpose of it;
//! sparse storage is built as the CSC, and its CSR is the transpose of that
//! CSC. A run that only scans columns never holds the row layout; the
//! trainer and the predictor make it on their own thread before they hand
//! row reads to a pool ([`QuantizedMatrix::derive_rows`]), and any row read
//! makes it if they have not. Even with both dense majors the 1-byte bins
//! are 2× smaller than the original 4-byte floats. Those are the only two
//! layouts: a store is dense `u8` in both majors or a sparse CSC with its
//! CSR (DESIGN.md §13 says why nothing is packed or bundled on top).

use crate::bytes::SharedBytes;
use crate::codec::Cursor;
use crate::mapper::{bins_while_cutting, BinLookup, BinMapper, BinningConfig};
use crate::setup::{
    run_tasks, setup_threads, split_mut, split_ranges, CscCopy, SetupInput, ValueCsc,
};
use harp_data::{DenseMatrix, FeatureMatrix};
use std::ops::Range;
use std::sync::OnceLock;
use std::time::Instant;

/// Dense-storage sentinel for a missing value. Real bins are `0..=254`.
pub const MISSING_BIN: u8 = u8::MAX;

#[derive(Debug, Clone)]
struct QCsr {
    indptr: Vec<usize>,
    cols: Vec<u32>,
    bins: Vec<u8>,
}

#[derive(Debug, Clone)]
struct QCsc {
    indptr: Vec<usize>,
    rows: Vec<u32>,
    bins: Vec<u8>,
}

impl QCsc {
    /// The CSR of the same entries: the transpose of the transpose, with
    /// columns ascending in every row.
    fn to_csr(&self, n_rows: usize) -> QCsr {
        let CscCopy { indptr, rows: cols, vals: bins } =
            CscCopy::transpose(n_rows, &self.indptr, &self.rows, &self.bins, setup_threads());
        QCsr { indptr, cols, bins }
    }

    /// Per column, the span of its entries whose rows fall in `rows` — a
    /// chunk's entries, as the rows ascend within a column.
    fn chunk_spans(&self, rows: Range<usize>) -> impl Iterator<Item = Range<usize>> + '_ {
        self.indptr.windows(2).map(move |w| {
            let col = &self.rows[w[0]..w[1]];
            let at = |row: usize| w[0] + col.partition_point(|&r| (r as usize) < row);
            at(rows.start)..at(rows.end)
        })
    }

    /// Entries in the chunk of `rows`.
    fn chunk_nnz(&self, rows: Range<usize>) -> usize {
        self.chunk_spans(rows).map(|span| span.len()).sum()
    }
}

/// Linear steps [`seek_row`] takes before it gallops.
pub(crate) const GALLOP_AFTER: usize = 16;

/// One step of a merge-walk down a CSC column whose rows `col_rows` ascend:
/// the first position at or after `k` whose row is not below `row`. Up to
/// 16 linear steps, then a binary search of the rest (a skewed column
/// degrades a linear cursor to O(entries) per node). Column scans and split
/// routing both walk a column's rows this way.
#[inline]
pub fn seek_row(col_rows: &[u32], mut k: usize, row: u32) -> usize {
    let mut steps = 0usize;
    while k < col_rows.len() && col_rows[k] < row {
        k += 1;
        steps += 1;
        if steps == GALLOP_AFTER {
            return k + col_rows[k..].partition_point(|&r| r < row);
        }
    }
    k
}

#[derive(Debug, Clone)]
enum Storage {
    /// Built as the column major; the row major is filled by the first row
    /// read ([`QuantizedMatrix::dense_row_major`]), or set by a chunk
    /// decode, whose blob holds it.
    Dense { row_major: OnceLock<SharedBytes>, col_major: SharedBytes },
    /// Built as the CSC; the CSR is filled by the first row read
    /// ([`QuantizedMatrix::sparse_rows`]), or set by a chunk decode, whose
    /// blob holds it.
    Sparse { csr: OnceLock<QCsr>, csc: QCsc },
}

/// Wall seconds of the two passes of one set-up
/// ([`QuantizedMatrix::from_matrix_timed`]).
#[derive(Debug, Clone, Copy)]
pub struct SetupTimings {
    /// Pass 1: gathering columns and searching their cuts. For sparse input
    /// also the CSR → CSC scatter of the values before it and the bins of
    /// every column shorter than 2¹⁵ entries, which the cut search's sort
    /// writes.
    pub cut_secs: f64,
    /// Pass 2: quantizing into the column major. For sparse input that is
    /// binning the columns of 2¹⁵ entries and more and scattering the row
    /// ids into the values' buffer. Neither kind builds its row layout here.
    pub quantize_secs: f64,
}

/// A binned dataset: [`BinMapper`] plus `u8` bin storage in a column layout
/// (dense column major or CSC), built at set-up, and a row layout (dense
/// row major or CSR), transposed from it on first need
/// ([`derive_rows`](Self::derive_rows)).
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    n_rows: usize,
    mapper: BinMapper,
    storage: Storage,
}

impl QuantizedMatrix {
    /// Builds cuts from `matrix` and quantizes it.
    pub fn from_matrix(matrix: &FeatureMatrix, config: BinningConfig) -> Self {
        Self::from_matrix_timed(matrix, config).0
    }

    /// [`from_matrix`](Self::from_matrix) that also reports how long each
    /// set-up pass took.
    pub fn from_matrix_timed(
        matrix: &FeatureMatrix,
        config: BinningConfig,
    ) -> (Self, SetupTimings) {
        Self::from_matrix_threads(matrix, config, setup_threads())
    }

    /// Set-up on `threads` threads; the result does not depend on the count.
    pub(crate) fn from_matrix_threads(
        matrix: &FeatureMatrix,
        config: BinningConfig,
        threads: usize,
    ) -> (Self, SetupTimings) {
        let start = Instant::now();
        let input = SetupInput::new(matrix, threads);
        // Zeroed, not filled: first touched by the pass that bins the column.
        let mut csc_bins = match &input {
            SetupInput::Sparse(_, csc) => Some(vec![0u8; csc.vals.len()]),
            SetupInput::Dense(_) => None,
        };
        let mapper = BinMapper::from_input(&input, config, threads, csc_bins.as_deref_mut());
        let cut_secs = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let qm = Self::from_input(input, mapper, threads, csc_bins);
        (qm, SetupTimings { cut_secs, quantize_secs: start.elapsed().as_secs_f64() })
    }

    /// Quantizes `matrix` with existing cuts (e.g. apply training cuts to a
    /// validation set).
    pub fn with_mapper(matrix: &FeatureMatrix, mapper: BinMapper) -> Self {
        let threads = setup_threads();
        Self::from_input(SetupInput::new(matrix, threads), mapper, threads, None)
    }

    /// Pass 2 of set-up: quantizes `input` with `mapper`'s cuts. `csc_bins`
    /// is what pass 1 handed back for sparse input: the CSC-order bins with
    /// every column it sorted already written.
    fn from_input(
        input: SetupInput<'_>,
        mapper: BinMapper,
        threads: usize,
        csc_bins: Option<Vec<u8>>,
    ) -> Self {
        assert_eq!(input.n_cols(), mapper.n_features(), "mapper/matrix feature mismatch");
        let (n_rows, storage) = match input {
            SetupInput::Dense(dense) => {
                let col_major = quantize_dense(dense, &mapper, threads).into();
                (dense.n_rows(), Storage::Dense { row_major: OnceLock::new(), col_major })
            }
            SetupInput::Sparse(sparse, value_csc) => {
                let csc = quantize_sparse(value_csc, &mapper, threads, csc_bins);
                (sparse.n_rows(), Storage::Sparse { csr: OnceLock::new(), csc })
            }
        };
        Self { n_rows, mapper, storage }
    }

    /// Builds the row layout — the dense row major or the sparse CSR — on
    /// the set-up threads, unless a row read or a chunk decode has. A row
    /// read builds it too; a caller that is about to hand row reads to a
    /// pool calls this first on its own thread, so the layout is not built
    /// inside a pool task (DESIGN.md §17 says why).
    pub fn derive_rows(&self) {
        let _ = (self.dense_row_major(), self.sparse_rows());
    }

    /// The sparse CSR, transposed from the CSC on the first call, or `None`
    /// for dense storage. Every sparse row read goes through here.
    fn sparse_rows(&self) -> Option<&QCsr> {
        match &self.storage {
            Storage::Sparse { csr, csc } => Some(csr.get_or_init(|| csc.to_csr(self.n_rows))),
            Storage::Dense { .. } => None,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of (original) features.
    pub fn n_features(&self) -> usize {
        self.mapper.n_features()
    }

    /// The cut points used for quantization.
    pub fn mapper(&self) -> &BinMapper {
        &self.mapper
    }

    /// Whether storage is dense (one byte column per feature).
    pub fn is_dense(&self) -> bool {
        matches!(self.storage, Storage::Dense { .. })
    }

    /// The bin of `(row, f)`, or `None` if missing. Slow; for tests and
    /// single lookups.
    pub fn bin(&self, row: usize, f: usize) -> Option<u8> {
        match &self.storage {
            Storage::Dense { col_major, .. } => {
                let b = col_major[f * self.n_rows + row];
                (b != MISSING_BIN).then_some(b)
            }
            Storage::Sparse { .. } => {
                let (cols, bins) = self.sparse_row(row).expect("sparse storage");
                cols.binary_search(&(f as u32)).ok().map(|i| bins[i])
            }
        }
    }

    /// Dense row-major slice of one row (`MISSING_BIN` marks gaps), or
    /// `None` for sparse storage. The first row read of a matrix builds its
    /// row major.
    #[inline]
    pub fn dense_row(&self, row: usize) -> Option<&[u8]> {
        let m = self.n_features();
        self.dense_row_major().map(|rows| &rows[row * m..(row + 1) * m])
    }

    /// The whole dense row-major bin matrix (`n_rows * n_features` bytes,
    /// `MISSING_BIN` marks gaps), or `None` for sparse storage. The first
    /// call transposes it from the column major; every dense row read goes
    /// through here.
    /// Every stored bin is either `MISSING_BIN` or strictly below the
    /// feature's [`BinMapper::n_bins`] — quantization clamps into range, and
    /// a cache is checked for it when opened — which lets scan kernels index
    /// flattened histograms without per-cell checks.
    #[inline]
    pub fn dense_row_major(&self) -> Option<&[u8]> {
        match &self.storage {
            Storage::Dense { row_major, col_major } => Some(row_major.get_or_init(|| {
                let m = self.n_features();
                transpose_columns(col_major, self.n_rows, m, setup_threads()).into()
            })),
            Storage::Sparse { .. } => None,
        }
    }

    /// Dense column-major slice of one feature (`MISSING_BIN` marks gaps),
    /// or `None` for sparse storage.
    #[inline]
    pub fn dense_col(&self, f: usize) -> Option<&[u8]> {
        match &self.storage {
            Storage::Dense { col_major, .. } => {
                Some(&col_major[f * self.n_rows..(f + 1) * self.n_rows])
            }
            Storage::Sparse { .. } => None,
        }
    }

    /// Sparse CSC entries of feature `f` as `(rows, bins)` slices (row
    /// order), or `None` for dense storage.
    pub fn sparse_col(&self, f: usize) -> Option<(&[u32], &[u8])> {
        match &self.storage {
            Storage::Sparse { csc, .. } => {
                let span = csc.indptr[f]..csc.indptr[f + 1];
                Some((&csc.rows[span.clone()], &csc.bins[span]))
            }
            Storage::Dense { .. } => None,
        }
    }

    /// The raw sparse CSR arrays as `(indptr, cols, bins)`, or `None` for
    /// dense storage. Row `r` owns entries `indptr[r]..indptr[r+1]` of
    /// `cols`/`bins`; columns are strictly ascending within a row. The
    /// first row read of a matrix builds its CSR.
    pub fn sparse_csr(&self) -> Option<(&[usize], &[u32], &[u8])> {
        self.sparse_rows().map(|csr| (&csr.indptr[..], &csr.cols[..], &csr.bins[..]))
    }

    /// Sparse CSR entries of row `r` as `(cols, bins)` slices, or `None`
    /// for dense storage.
    pub fn sparse_row(&self, r: usize) -> Option<(&[u32], &[u8])> {
        self.sparse_rows().map(|csr| {
            let span = csr.indptr[r]..csr.indptr[r + 1];
            (&csr.cols[span.clone()], &csr.bins[span])
        })
    }

    /// Decoded-equivalent heap bytes of the bin storage: both dense majors,
    /// or, for sparse storage, both majors, a 4-byte index and a 1-byte bin
    /// per entry in each plus their offset arrays — the row layout whether
    /// or not it has been built: the figure is a property of the data, equal
    /// for an in-core matrix and the slabs of its cache.
    pub fn storage_bytes(&self) -> usize {
        match &self.storage {
            Storage::Dense { col_major, .. } => 2 * col_major.len(),
            Storage::Sparse { csc, .. } => {
                let nnz = csc.rows.len();
                (nnz + nnz * 4 + (self.n_rows + 1) * 8) + (nnz + nnz * 4 + csc.indptr.len() * 8)
            }
        }
    }

    /// Appends, for each listed row, the *routing byte* of feature `f`: the
    /// stored bin, or [`MISSING_BIN`] when the cell is absent. The result
    /// drives split routing uniformly across storages — `MISSING_BIN`
    /// follows the split's default direction, any real bin compares against
    /// the threshold — which is what lets a chunked store hand ApplySplit an
    /// owned per-node gather instead of a borrowed column. `rows` must
    /// ascend: sparse storage merges them with the column's CSC rows
    /// ([`seek_row`]), so routing never builds the CSR.
    pub fn route_bins_for(&self, f: usize, rows: &[u32], out: &mut Vec<u8>) {
        out.reserve(rows.len());
        match &self.storage {
            Storage::Dense { col_major, .. } => {
                let col = &col_major[f * self.n_rows..(f + 1) * self.n_rows];
                out.extend(rows.iter().map(|&r| col[r as usize]));
            }
            Storage::Sparse { csc, .. } => {
                let span = csc.indptr[f]..csc.indptr[f + 1];
                let (col_rows, col_bins) = (&csc.rows[span.clone()], &csc.bins[span]);
                let mut k = 0;
                out.extend(rows.iter().map(|&r| {
                    k = seek_row(col_rows, k, r);
                    if col_rows.get(k) == Some(&r) {
                        col_bins[k]
                    } else {
                        MISSING_BIN
                    }
                }));
            }
        }
    }

    /// Exact [`storage_bytes`](Self::storage_bytes) a decoded chunk slab of
    /// `rows` will occupy — computed without decoding, so the cache writer
    /// can advertise decoded sizes in the header.
    pub(crate) fn chunk_storage_bytes(&self, rows: std::ops::Range<usize>) -> usize {
        let n = rows.len();
        let m = self.n_features();
        match &self.storage {
            Storage::Dense { .. } => 2 * n * m,
            Storage::Sparse { csc, .. } => {
                let e = csc.chunk_nnz(rows);
                (e + e * 4 + (n + 1) * 8) + (e + e * 4 + (m + 1) * 8)
            }
        }
    }

    /// Exact length of the blob [`encode_chunk`](Self::encode_chunk) writes
    /// for `rows` — known without encoding, so the cache writer can lay out
    /// every chunk's offset before any task starts.
    pub(crate) fn encoded_chunk_bytes(&self, rows: std::ops::Range<usize>) -> usize {
        let n = rows.len();
        // kind, n_rows.
        let head = 1 + 8;
        match &self.storage {
            Storage::Dense { .. } => head + 2 * n * self.n_features(),
            Storage::Sparse { csc, .. } => head + 8 + (n + 1) * 8 + csc.chunk_nnz(rows) * (4 + 1),
        }
    }

    /// Serializes rows `rows` as a self-contained chunk blob (rows re-rooted
    /// at 0). Dense chunks write both majors decoded — the chunk's row major,
    /// transposed tile by tile straight from the column major (the whole
    /// matrix's row major is never built for it), then its gathered column
    /// major — so that [`decode_chunk`] on the training hot path is a pair
    /// of views: a chunked scan re-decodes a chunk on every cache miss, so
    /// the transpose cost belongs here, paid once at cache-build time.
    /// Sparse chunks write their CSR, placed from the CSC by counting (the
    /// matrix's own CSR is never built for it either), and rebuild the CSC
    /// mirror on decode (an `O(nnz)` bucket pass).
    ///
    /// Blob layout: `kind u8` ([`CHUNK_DENSE`] / [`CHUNK_SPARSE`]),
    /// `n_rows u64`, then for dense the `n_rows × m` row major and the
    /// `m × n_rows` column major, for sparse `nnz u64`, the `n_rows + 1`
    /// offsets as `u64`, the column ids as `u32` and the bins.
    pub(crate) fn encode_chunk(&self, rows: std::ops::Range<usize>, out: &mut Vec<u8>) {
        use crate::codec::put_u64;
        let m = self.n_features();
        let n = rows.len();
        out.reserve(self.encoded_chunk_bytes(rows.clone()));
        match &self.storage {
            Storage::Dense { col_major, .. } => {
                out.push(CHUNK_DENSE);
                put_u64(out, n as u64);
                let at = out.len();
                out.resize(at + n * m, 0);
                transpose_rows(col_major, self.n_rows, m, rows.clone(), &mut out[at..]);
                // The chunk's column major: rows.start..rows.end of each
                // column, gathered into a contiguous slab-shaped run.
                for f in 0..m {
                    let col = &col_major[f * self.n_rows..(f + 1) * self.n_rows];
                    out.extend_from_slice(&col[rows.clone()]);
                }
            }
            Storage::Sparse { csc, .. } => {
                // The chunk's CSR from the CSC: count each row's entries,
                // turn the counts into row starts, then place the entries
                // column by column, which keeps columns ascending in a row.
                let spans: Vec<Range<usize>> = csc.chunk_spans(rows.clone()).collect();
                let mut next = vec![0usize; n + 1];
                for span in &spans {
                    for &r in &csc.rows[span.clone()] {
                        next[r as usize - rows.start + 1] += 1;
                    }
                }
                for i in 0..n {
                    next[i + 1] += next[i];
                }
                let nnz = next[n];
                out.push(CHUNK_SPARSE);
                put_u64(out, n as u64);
                put_u64(out, nnz as u64);
                for &at in &next {
                    put_u64(out, at as u64);
                }
                let cols_at = out.len();
                let bins_at = cols_at + 4 * nnz;
                out.resize(bins_at + nnz, 0);
                for (f, span) in spans.into_iter().enumerate() {
                    for k in span {
                        let at = &mut next[csc.rows[k] as usize - rows.start];
                        out[cols_at + 4 * *at..][..4].copy_from_slice(&(f as u32).to_le_bytes());
                        out[bins_at + *at] = csc.bins[k];
                        *at += 1;
                    }
                }
            }
        }
    }

    /// Decodes an [`encode_chunk`](Self::encode_chunk) blob into a
    /// self-contained slab matrix (rows numbered `0..chunk_len`) carrying a
    /// clone of `mapper`. A dense slab's majors are bounds-checked *views*
    /// of the blob — when the blob aliases the cache file's mapping, decode
    /// allocates nothing and the slab reads straight from page cache. Sparse
    /// chunks rebuild their CSC mirror with the same bucket placement
    /// construction uses. Either way a decoded slab is bitwise-identical to
    /// slicing the original matrix. The bins are not checked here: a cache
    /// checks every chunk's once, when it is opened ([`check_chunk`]).
    ///
    /// [`check_chunk`]: Self::check_chunk
    pub(crate) fn decode_chunk(blob: &SharedBytes, mapper: &BinMapper) -> Result<Self, String> {
        let m = mapper.n_features();
        let (n_rows, storage) = match ChunkParts::of(blob, m)? {
            ChunkParts::Dense { n, row_major, col_major } => (
                n,
                Storage::Dense {
                    row_major: OnceLock::from(blob.slice(row_major)),
                    col_major: blob.slice(col_major),
                },
            ),
            ChunkParts::Sparse { n, indptr, cols, bins } => {
                let indptr: Vec<usize> =
                    blob[indptr].chunks_exact(8).map(|w| le_u64(w) as usize).collect();
                let cols: Vec<u32> = blob[cols].chunks_exact(4).map(le_u32).collect();
                let bins = blob[bins].to_vec();
                if cols.iter().any(|&c| c as usize >= m) {
                    return Err("chunk column id out of range".into());
                }
                // The blob holds the CSR; its CSC comes from the transpose
                // construction uses, on this thread: chunks are decoded by
                // tasks of their own.
                let CscCopy { indptr: csc_indptr, rows, vals: csc_bins } =
                    CscCopy::transpose(m, &indptr, &cols, &bins, 1);
                let storage = Storage::Sparse {
                    csr: OnceLock::from(QCsr { indptr, cols, bins }),
                    csc: QCsc { indptr: csc_indptr, rows, bins: csc_bins },
                };
                (n, storage)
            }
        };
        Ok(Self { n_rows, mapper: mapper.clone(), storage })
    }

    /// Checks a chunk blob the way [`ChunkedStore::open`] must before any
    /// scan reads it, and returns its row count: the blob's counts fit its
    /// bytes, and every bin it stores is one its feature has — a dense cell
    /// of either major below `n_bins(f)` or [`MISSING_BIN`], a sparse entry
    /// below the `n_bins` of its column, whose id is below `n_features`.
    /// The kernels index histograms by stored bin without a check, so a
    /// checksum-valid blob breaking this would write out of bounds.
    ///
    /// [`ChunkedStore::open`]: crate::ChunkedStore::open
    pub(crate) fn check_chunk(blob: &[u8], mapper: &BinMapper) -> Result<usize, String> {
        let m = mapper.n_features();
        // `n_bins(f)`, capped at 255: every byte below it is a bin of `f`.
        let limits: Vec<u8> =
            mapper.bin_widths().map(|w| u8::try_from(w).unwrap_or(u8::MAX)).collect();
        match ChunkParts::of(blob, m)? {
            ChunkParts::Dense { n, row_major, col_major } => {
                if n == 0 || m == 0 {
                    return Ok(n);
                }
                // `b + 1` wraps MISSING_BIN to 0, so a cell is valid iff
                // `b + 1 <= n_bins(f)`: one running maximum per feature.
                let row_high = row_major_high(&blob[row_major], m);
                let col_high = blob[col_major]
                    .chunks_exact(n)
                    .map(|col| col.iter().fold(0u8, |high, &b| high.max(b.wrapping_add(1))));
                for (f, ((&row, col), &limit)) in
                    row_high.iter().zip(col_high).zip(&limits).enumerate()
                {
                    if row > limit || col > limit {
                        let major = if row > limit { "row" } else { "column" };
                        return Err(format!("feature {f} stores a bin it lacks ({major} major)"));
                    }
                }
                Ok(n)
            }
            ChunkParts::Sparse { n, cols, bins, .. } => {
                let cols = blob[cols].chunks_exact(4).map(le_u32);
                for (c, &b) in cols.zip(&blob[bins]) {
                    if limits.get(c as usize).is_none_or(|&limit| b >= limit) {
                        return Err(format!("entry of column {c} stores a bin it lacks"));
                    }
                }
                Ok(n)
            }
        }
    }
}

/// Chunk blob kinds ([`QuantizedMatrix::encode_chunk`]).
const CHUNK_DENSE: u8 = 0;
const CHUNK_SPARSE: u8 = 1;

/// Where the parts of a chunk blob lie, every count read from it checked
/// against the bytes it holds: a count must not overflow, and the bytes it
/// implies must be left in the blob, before anything of that size is viewed
/// or allocated.
enum ChunkParts {
    Dense { n: usize, row_major: Range<usize>, col_major: Range<usize> },
    Sparse { n: usize, indptr: Range<usize>, cols: Range<usize>, bins: Range<usize> },
}

impl ChunkParts {
    fn of(blob: &[u8], m: usize) -> Result<Self, String> {
        fn take(
            cur: &mut Cursor<'_>,
            count: usize,
            width: usize,
            what: &str,
        ) -> Result<Range<usize>, String> {
            let start = cur.pos();
            count
                .checked_mul(width)
                .and_then(|len| cur.take(len))
                .map(|_| start..cur.pos())
                .ok_or_else(|| format!("chunk blob too short for its {what}"))
        }
        let mut cur = Cursor::new(blob);
        let kind = cur.get_u8().ok_or("chunk blob truncated: kind")?;
        let n = cur.get_u64().ok_or("chunk blob truncated: n_rows")? as usize;
        let parts = match kind {
            CHUNK_DENSE => {
                let row_major = take(&mut cur, n, m, "dense rows")?;
                let col_major = take(&mut cur, n, m, "dense cols")?;
                ChunkParts::Dense { n, row_major, col_major }
            }
            CHUNK_SPARSE => {
                let nnz = cur.get_u64().ok_or("chunk blob truncated: nnz")?;
                let offsets = n.checked_add(1).ok_or("chunk row count out of range")?;
                let indptr = take(&mut cur, offsets, 8, "indptr")?;
                let cols = take(&mut cur, nnz as usize, 4, "column ids")?;
                let bins = take(&mut cur, nnz as usize, 1, "bins")?;
                // The row offsets walk the entries: from 0 to `nnz`, never
                // backwards (the transpose would panic on a step back).
                let mut at = blob[indptr.clone()].chunks_exact(8).map(le_u64);
                let walks = at.next() == Some(0)
                    && at.try_fold(0, |prev, next| (next >= prev).then_some(next)) == Some(nnz);
                if !walks {
                    return Err("chunk indptr does not walk nnz entries".into());
                }
                ChunkParts::Sparse { n, indptr, cols, bins }
            }
            k => return Err(format!("unknown chunk kind {k}")),
        };
        if cur.remaining() != 0 {
            return Err("trailing bytes after chunk payload".into());
        }
        Ok(parts)
    }
}

/// The largest `b + 1` of each column of the `m`-wide row-major `cells`
/// (wrapping, so [`MISSING_BIN`] counts as 0). The running maximum is kept
/// over blocks of whole rows a multiple of 32 cells long, so that for any
/// `m` its loop is one the compiler vectorizes.
fn row_major_high(cells: &[u8], m: usize) -> Vec<u8> {
    let rows_per_block = 32 >> m.trailing_zeros().min(5);
    let mut high = vec![0u8; m * rows_per_block];
    let blocks = cells.chunks_exact(high.len());
    let rest = blocks.remainder();
    for block in blocks.chain([rest]) {
        for (high, &b) in high.iter_mut().zip(block) {
            *high = (*high).max(b.wrapping_add(1));
        }
    }
    high.chunks_exact(m).fold(vec![0u8; m], |mut acc, row| {
        acc.iter_mut().zip(row).for_each(|(a, &h)| *a = (*a).max(h));
        acc
    })
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("eight bytes"))
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("four bytes"))
}

/// Rows per dense tile: a tile's raw values, and the row-major bytes a
/// transpose writes for it, stay cache-resident while the tile is walked
/// once per feature.
const TILE_ROWS: usize = 256;

/// Quantizes a dense matrix into its column major with ⟨row-block⟩ tasks:
/// each owns the block's rows of every column, so nothing is staged or
/// copied afterwards.
fn quantize_dense(dense: &DenseMatrix, mapper: &BinMapper, threads: usize) -> Vec<u8> {
    let (n_rows, m) = (dense.n_rows(), dense.n_cols());
    // Zeroed, not filled: the pages are first touched by the tasks that
    // own them, which write every cell, [`MISSING_BIN`] included.
    let mut col_major = vec![0; n_rows * m];
    if col_major.is_empty() {
        return col_major;
    }
    let blocks = split_ranges(n_rows, threads, TILE_ROWS);
    let mut block_cols: Vec<Vec<&mut [u8]>> =
        blocks.iter().map(|_| Vec::with_capacity(m)).collect();
    for col in col_major.chunks_mut(n_rows) {
        let pieces = split_mut(col, blocks.iter().map(|b| b.len()));
        for (cols, piece) in block_cols.iter_mut().zip(pieces) {
            cols.push(piece);
        }
    }
    let mut tasks = Vec::new();
    for (block, mut cols) in blocks.into_iter().zip(block_cols) {
        let values = &dense.values()[block.start * m..block.end * m];
        tasks.push(move || quantize_block(values, mapper, &mut cols));
    }
    run_tasks(tasks);
    col_major
}

/// Quantizes one row block tile by tile, feature by feature within a tile:
/// one feature's cuts are live at a time. A tile's cells of one feature are
/// binned as one strided run into the block's slice of that column
/// ([`BinLookup::bin_run`]; cell by cell through
/// [`value_to_bin`](crate::FeatureCuts::value_to_bin) when the block is too
/// short for a lookup).
/// `cols[f]` is the block's slice of column `f`; absent (`NaN`) cells get
/// [`MISSING_BIN`].
fn quantize_block(values: &[f32], mapper: &BinMapper, cols: &mut [&mut [u8]]) {
    let m = cols.len();
    let n_rows = values.len() / m;
    let lookups: Vec<_> = (0..m).map(|f| BinLookup::for_column(mapper.cuts(f), n_rows)).collect();
    for tile in (0..n_rows).step_by(TILE_ROWS) {
        let tile = tile..(tile + TILE_ROWS).min(n_rows);
        for (f, col) in cols.iter_mut().enumerate() {
            let col = &mut col[tile.clone()];
            match &lookups[f] {
                Some(lookup) => lookup.bin_run(&values[tile.start * m + f..], m, MISSING_BIN, col),
                None => {
                    let cuts = mapper.cuts(f);
                    for (bin, r) in col.iter_mut().zip(tile.clone()) {
                        let v = values[r * m + f];
                        *bin = if v.is_nan() { MISSING_BIN } else { cuts.value_to_bin(v) };
                    }
                }
            }
        }
    }
}

/// The row major of the `n_rows`-row, `m`-column column major `col_major`,
/// by ⟨row-block⟩ tasks on set-up's [`run_tasks`], each transposing its
/// block's rows ([`transpose_rows`]) into its own slice of the output.
fn transpose_columns(col_major: &[u8], n_rows: usize, m: usize, threads: usize) -> Vec<u8> {
    // Zeroed, not filled: first touched by the task that owns the page.
    let mut row_major = vec![0; n_rows * m];
    if row_major.is_empty() {
        return row_major;
    }
    let blocks = split_ranges(n_rows, threads, TILE_ROWS);
    let outs = split_mut(&mut row_major, blocks.iter().map(|b| b.len() * m));
    let tasks = blocks
        .into_iter()
        .zip(outs)
        .map(|(rows, out)| move || transpose_rows(col_major, n_rows, m, rows, out))
        .collect();
    run_tasks(tasks);
    row_major
}

/// Writes rows `rows` of the `n_rows`-row, `m`-column column major
/// `col_major` into `out` (`rows.len()` rows of `m` bytes) row-major. The
/// rows are taken [`TILE_ROWS`] at a time, and a tile eight features at a
/// time: eight bytes of each of eight columns are read as words, transposed
/// in registers and stored as eight bytes of each of eight rows, so every
/// read and write moves a word and the tile's rows stay in cache across its
/// feature blocks. The last `m mod 8` features, and the rows past a tile's
/// last octet, are copied byte by byte.
fn transpose_rows(col_major: &[u8], n_rows: usize, m: usize, rows: Range<usize>, out: &mut [u8]) {
    assert!(col_major.len() == n_rows * m && rows.end <= n_rows, "rows of the column major");
    assert_eq!(out.len(), rows.len() * m, "one output row per row");
    let col = |f: usize| &col_major[f * n_rows..(f + 1) * n_rows];
    let wide = m - m % 8;
    for tile in (rows.start..rows.end).step_by(TILE_ROWS) {
        let tile = tile..(tile + TILE_ROWS).min(rows.end);
        let dst = &mut out[(tile.start - rows.start) * m..(tile.end - rows.start) * m];
        let whole = tile.start + (tile.len() - tile.len() % 8);
        for f0 in (0..wide).step_by(8) {
            let cols: [&[u8]; 8] = std::array::from_fn(|k| col(f0 + k));
            for r in (tile.start..whole).step_by(8) {
                let words = std::array::from_fn(|k| le_u64(&cols[k][r..r + 8]));
                for (i, word) in transpose_8x8(words).into_iter().enumerate() {
                    let at = (r - tile.start + i) * m + f0;
                    dst[at..at + 8].copy_from_slice(&word.to_le_bytes());
                }
            }
        }
        // The rows past the last whole octet, and the features past the
        // last whole block of eight.
        for (f, cells) in (0..m).map(|f| (f, col(f))) {
            let rows = if f < wide { whole..tile.end } else { tile.clone() };
            for r in rows {
                dst[(r - tile.start) * m + f] = cells[r];
            }
        }
    }
}

/// Transposes an 8 × 8 byte matrix held as eight little-endian words, one
/// row each (byte `j` of word `i` is cell `(i, j)`): three rounds of masked
/// swaps, of 4 × 4, 2 × 2 and 1 × 1 byte blocks.
fn transpose_8x8(mut w: [u64; 8]) -> [u64; 8] {
    for (half, mask) in
        [(4usize, 0x0000_0000_FFFF_FFFFu64), (2, 0x0000_FFFF_0000_FFFF), (1, 0x00FF_00FF_00FF_00FF)]
    {
        let shift = 8 * half as u32;
        for i in (0..8).filter(|i| i & half == 0) {
            let (lo, hi) = (w[i], w[i + half]);
            // Cell (i, j + half) trades places with cell (i + half, j).
            let t = ((lo >> shift) ^ hi) & mask;
            w[i] = lo ^ (t << shift);
            w[i + half] = hi ^ t;
        }
    }
    w
}

/// Quantizes a sparse matrix from its value CSC: ⟨feature-range⟩ tasks
/// quantize column-at-a-time (one cut table live per task), then the
/// values' buffer takes the CSC's row ids ([`ValueCsc::into_rows`]). Given
/// `csc_bins` from pass 1, the columns it sorted are binned already
/// ([`bins_while_cutting`]) and only the long ones are binned here.
fn quantize_sparse(
    value_csc: ValueCsc<'_>,
    mapper: &BinMapper,
    threads: usize,
    csc_bins: Option<Vec<u8>>,
) -> QCsc {
    let (col_ptr, vals) = (&value_csc.indptr, &value_csc.vals);
    let binned_while_cutting = csc_bins.is_some();
    let mut csc_bins = csc_bins.unwrap_or_else(|| vec![0u8; vals.len()]);
    assert_eq!(csc_bins.len(), vals.len(), "one bin per entry of the value CSC");
    let ranges = split_ranges(col_ptr.len() - 1, threads, 1);
    let outputs =
        split_mut(&mut csc_bins, ranges.iter().map(|r| col_ptr[r.end] - col_ptr[r.start]));
    let mut tasks = Vec::new();
    for (range, mine) in ranges.into_iter().zip(outputs) {
        let base = col_ptr[range.start];
        tasks.push(move || {
            for f in range {
                let col = col_ptr[f]..col_ptr[f + 1];
                if binned_while_cutting && bins_while_cutting(col.len()) {
                    continue;
                }
                let cuts = mapper.cuts(f);
                let bins = &mut mine[col.start - base..col.end - base];
                let vals = &vals[col];
                // A stored entry is never `NaN`, so no bin is the missing one.
                match BinLookup::for_column(cuts, vals.len()) {
                    Some(lookup) => lookup.bin_run(vals, 1, MISSING_BIN, bins),
                    None => {
                        for (bin, &v) in bins.iter_mut().zip(vals) {
                            *bin = cuts.value_to_bin(v);
                        }
                    }
                }
            }
        });
    }
    run_tasks(tasks);
    let (indptr, rows) = value_csc.into_rows();
    QCsc { indptr, rows, bins: csc_bins }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harp_data::{CsrMatrix, DenseMatrix};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn dense_matrix() -> FeatureMatrix {
        // 4 rows x 3 features; feature 1 has a missing value.
        FeatureMatrix::Dense(DenseMatrix::from_vec(
            4,
            3,
            vec![
                0.0,
                10.0,
                5.0, //
                1.0,
                f32::NAN,
                6.0, //
                2.0,
                30.0,
                7.0, //
                3.0,
                20.0,
                8.0,
            ],
        ))
    }

    fn sparse_matrix() -> FeatureMatrix {
        FeatureMatrix::Sparse(CsrMatrix::from_rows(
            3,
            &[vec![(0, 1.0), (2, 5.0)], vec![(1, 2.0)], vec![(0, 3.0), (1, 4.0), (2, 6.0)]],
        ))
    }

    #[test]
    fn dense_bins_match_mapper() {
        let m = dense_matrix();
        let q = QuantizedMatrix::from_matrix(&m, BinningConfig::default());
        // Feature 0 has 4 distinct values -> bins 0..=3 in value order.
        for r in 0..4 {
            assert_eq!(q.bin(r, 0), Some(r as u8));
        }
        // Missing cell reports None.
        assert_eq!(q.bin(1, 1), None);
    }

    /// Every present `(row, feature, bin)` of `q`, sorted: read from its row
    /// major (the dense rows or the sparse CSR) and from its column major
    /// (the dense columns or the CSC).
    fn entries_by_major(q: &QuantizedMatrix) -> [Vec<(u32, u32, u8)>; 2] {
        let present = |bins: &[u8]| -> Vec<(u32, u8)> {
            let cells = bins.iter().enumerate().filter(|&(_, &b)| b != MISSING_BIN);
            cells.map(|(i, &b)| (i as u32, b)).collect()
        };
        let mut from_rows = vec![];
        for r in 0..q.n_rows() {
            let row = match q.dense_row(r) {
                Some(bins) => present(bins),
                None => {
                    let (cols, bins) = q.sparse_row(r).expect("sparse storage");
                    cols.iter().copied().zip(bins.iter().copied()).collect()
                }
            };
            from_rows.extend(row.into_iter().map(|(c, b)| (r as u32, c, b)));
        }
        let mut from_cols = vec![];
        for c in 0..q.n_features() {
            let col = match q.dense_col(c) {
                Some(bins) => present(bins),
                None => {
                    let (rows, bins) = q.sparse_col(c).expect("sparse storage");
                    rows.iter().copied().zip(bins.iter().copied()).collect()
                }
            };
            from_cols.extend(col.into_iter().map(|(r, b)| (r, c as u32, b)));
        }
        from_rows.sort_unstable();
        from_cols.sort_unstable();
        [from_rows, from_cols]
    }

    #[test]
    fn row_and_col_scans_agree_dense() {
        let q = QuantizedMatrix::from_matrix(&dense_matrix(), BinningConfig::default());
        let [from_rows, from_cols] = entries_by_major(&q);
        assert_eq!(from_rows, from_cols);
    }

    #[test]
    fn row_and_col_scans_agree_sparse() {
        let q = QuantizedMatrix::from_matrix(&sparse_matrix(), BinningConfig::default());
        let [from_rows, from_cols] = entries_by_major(&q);
        assert_eq!(from_rows, from_cols);
        assert_eq!(from_rows.len(), 6);
    }

    #[test]
    fn csc_rows_are_in_row_order() {
        let q = QuantizedMatrix::from_matrix(&sparse_matrix(), BinningConfig::default());
        for f in 0..q.n_features() {
            let (rows, _) = q.sparse_col(f).unwrap();
            for w in rows.windows(2) {
                assert!(w[0] < w[1], "feature {f} rows out of order");
            }
        }
    }

    #[test]
    fn dense_row_slice_has_missing_sentinel() {
        let q = QuantizedMatrix::from_matrix(&dense_matrix(), BinningConfig::default());
        let row = q.dense_row(1).unwrap();
        assert_eq!(row[1], MISSING_BIN);
        assert_ne!(row[0], MISSING_BIN);
    }

    #[test]
    fn sparse_has_no_dense_slices() {
        let q = QuantizedMatrix::from_matrix(&sparse_matrix(), BinningConfig::default());
        assert!(q.dense_row(0).is_none());
        assert!(q.dense_col(0).is_none());
        assert!(!q.is_dense());
        assert!(q.sparse_row(0).is_some());
    }

    #[test]
    fn with_mapper_applies_training_cuts_to_new_data() {
        let train = dense_matrix();
        let q_train = QuantizedMatrix::from_matrix(&train, BinningConfig::default());
        // New data with out-of-range values clamps into existing bins.
        let test = FeatureMatrix::Dense(DenseMatrix::from_vec(1, 3, vec![-100.0, 100.0, 6.5]));
        let q_test = QuantizedMatrix::with_mapper(&test, q_train.mapper().clone());
        assert_eq!(q_test.bin(0, 0), Some(0));
        assert_eq!(q_test.bin(0, 1), Some(q_train.mapper().n_bins(1) as u8 - 1));
    }

    #[test]
    fn storage_bytes_counts_both_copies() {
        // Every width is ≤ 4 bins, and the two majors are all there is.
        let q = QuantizedMatrix::from_matrix(&dense_matrix(), BinningConfig::default());
        assert_eq!(q.storage_bytes(), 2 * 4 * 3);
    }

    #[test]
    fn uniformly_dense_sparse_data_stays_sparse() {
        // Every feature present in every row: the store is still a CSC.
        let rows: Vec<Vec<(u32, f32)>> = (0..32)
            .map(|r| (0..16).map(|f| (f as u32, (r * f % 7) as f32)).collect())
            .collect();
        let m = FeatureMatrix::Sparse(CsrMatrix::from_rows(16, &rows));
        let q = QuantizedMatrix::from_matrix(&m, BinningConfig::default());
        assert!(!q.is_dense() && q.sparse_row(0).is_some());
    }

    #[test]
    #[should_panic(expected = "feature mismatch")]
    fn mapper_feature_mismatch_panics() {
        let q = QuantizedMatrix::from_matrix(&dense_matrix(), BinningConfig::default());
        let narrow = FeatureMatrix::Dense(DenseMatrix::from_vec(1, 1, vec![1.0]));
        let _ = QuantizedMatrix::with_mapper(&narrow, q.mapper().clone());
    }

    /// A taller dense matrix (crosses the tile boundary): the row major
    /// derived from the column major must match a brute-force reference
    /// transpose cell for cell.
    #[test]
    fn one_pass_dense_construction_matches_reference_transpose() {
        let (n, m) = (1000usize, 5usize);
        let vals: Vec<f32> = (0..n * m)
            .map(|i| if i % 37 == 0 { f32::NAN } else { ((i * 31) % 97) as f32 })
            .collect();
        let q = QuantizedMatrix::from_matrix(
            &FeatureMatrix::Dense(DenseMatrix::from_vec(n, m, vals)),
            BinningConfig::default(),
        );
        let rm = q.dense_row_major().unwrap();
        for f in 0..m {
            let col = q.dense_col(f).unwrap();
            for r in 0..n {
                assert_eq!(col[r], rm[r * m + f], "cell ({r},{f})");
            }
        }
    }

    /// Both quantizers store, for every cell, `value_to_bin` of its value —
    /// or nothing for a missing one — whichever way the cell was binned. The
    /// matrix is long enough at one thread for every column to get its
    /// lookup (the run kernel: stride `m` in 256-row tiles, stride 1 down a
    /// CSC column holding eleven cells in twelve) and short enough from two
    /// threads up that a dense block's 255-cut columns fall back to the
    /// per-cell search; its row count leaves a tail in the last tile and in
    /// the last eight-lane step.
    #[test]
    fn both_quantizers_store_value_to_bin_of_every_cell() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (n, m) = (5 * 4096 + 203, 5usize);
        let mut rng = StdRng::seed_from_u64(11);
        let cells: Vec<Option<f32>> = (0..n * m)
            .map(|i| match (i % m, rng.gen_range(0..12u32)) {
                (_, 0) => None,
                (0, _) => Some(rng.gen_range(-1e3f32..1e3)),
                (1, _) => Some(rng.gen_range(0..7u32) as f32 * 0.5 - 1.0),
                (2, k) => Some([f32::NEG_INFINITY, -0.0, 0.0, f32::INFINITY][k as usize % 4]),
                // Crowded near 1, with a far tail: several cuts share a slot.
                (3, k) if k < 10 => Some(1.0 + rng.gen::<f32>() * 1e-4),
                (3, _) => Some(rng.gen_range(1e3f32..1e6)),
                _ => Some(rng.gen::<f32>().powi(8)),
            })
            .collect();
        let dense: Vec<f32> = cells.iter().map(|c| c.unwrap_or(f32::NAN)).collect();
        let rows: Vec<Vec<(u32, f32)>> = cells
            .chunks(m)
            .map(|row| (0u32..).zip(row).filter_map(|(c, v)| v.map(|v| (c, v))).collect())
            .collect();
        let matrices = [
            FeatureMatrix::Dense(DenseMatrix::from_vec(n, m, dense)),
            FeatureMatrix::Sparse(CsrMatrix::from_rows(m, &rows)),
        ];
        for matrix in &matrices {
            for threads in [1, 2, 7] {
                let q =
                    QuantizedMatrix::from_matrix_threads(matrix, BinningConfig::default(), threads)
                        .0;
                assert_eq!(q.is_dense(), matches!(matrix, FeatureMatrix::Dense(_)));
                assert_eq!(q.mapper().n_bins(0), 255, "a column on the 4 096-slot table");
                for (i, cell) in cells.iter().enumerate() {
                    let (r, f) = (i / m, i % m);
                    let want = cell.map(|v| q.mapper().cuts(f).value_to_bin(v));
                    assert_eq!(q.bin(r, f), want, "cell ({r}, {f}) at {threads} threads");
                }
            }
        }
    }

    /// Every stored byte and the mapper (cuts, offsets) agree.
    fn assert_same_storage(a: &QuantizedMatrix, b: &QuantizedMatrix) {
        assert_eq!(
            serde_json::to_string(a.mapper()).unwrap(),
            serde_json::to_string(b.mapper()).unwrap()
        );
        assert_eq!(a.storage_bytes(), b.storage_bytes());
        assert_eq!(a.dense_row_major(), b.dense_row_major());
        assert_eq!(a.sparse_csr(), b.sparse_csr());
        assert_eq!(a.n_features(), b.n_features());
        for c in 0..a.n_features() {
            assert_eq!(a.dense_col(c), b.dense_col(c), "column {c}");
            assert_eq!(a.sparse_col(c), b.sparse_col(c), "column {c}");
        }
    }

    /// Set-up at 1 thread and at N threads (more than there are tiles or
    /// features, too) builds the same matrix: dense at many and at few
    /// bins, and sparse.
    #[test]
    fn setup_is_identical_at_any_thread_count() {
        use harp_data::{DatasetKind, SynthConfig};
        let low_card: Vec<f32> = (0..1000 * 5)
            .map(|i| if i % 37 == 0 { f32::NAN } else { ((i * 31) % 11) as f32 })
            .collect();
        let inputs = [
            SynthConfig::new(DatasetKind::HiggsLike, 5).with_scale(0.1).generate().features,
            FeatureMatrix::Dense(DenseMatrix::from_vec(1000, 5, low_card)),
            SynthConfig::new(DatasetKind::YfccLike, 5).with_scale(0.1).generate().features,
        ];
        let build = |m: &FeatureMatrix, threads| {
            QuantizedMatrix::from_matrix_threads(m, BinningConfig::default(), threads).0
        };
        let dense: Vec<bool> = inputs
            .iter()
            .map(|m| {
                let one = build(m, 1);
                for threads in [2, 3, 7, 10_000] {
                    assert_same_storage(&one, &build(m, threads));
                }
                // The public entry point (host thread count) agrees too.
                assert_same_storage(
                    &one,
                    &QuantizedMatrix::from_matrix(m, BinningConfig::default()),
                );
                one.is_dense()
            })
            .collect();
        assert_eq!(dense, [true, true, false], "the inputs must cover both storages");
    }

    /// One sparse column's values, by `shape`: continuous; runs of equal
    /// values up to two quantile steps long, so ties straddle the rank
    /// positions; both zeros and both infinities among ±1; at most
    /// `max_bins` distinct values; one to three more than `max_bins`.
    fn walk_column(rng: &mut StdRng, len: usize, shape: u8, max_bins: usize) -> Vec<f32> {
        match shape {
            0 => (0..len).map(|_| rng.gen_range(-1e3f32..1e3)).collect(),
            1 => {
                let run = rng.gen_range(1..2 * (len / max_bins) + 3);
                (0..len).map(|i| (i / run) as f32 * 0.25).collect()
            }
            2 => {
                let levels = [-0.0, 0.0, f32::NEG_INFINITY, f32::INFINITY, -1.0, 1.0];
                (0..len).map(|_| levels[rng.gen_range(0..levels.len())]).collect()
            }
            _ => {
                let n = if shape == 3 {
                    rng.gen_range(1..max_bins + 1)
                } else {
                    max_bins + rng.gen_range(1..4usize)
                };
                let levels: Vec<f32> = (0..n).map(|_| rng.gen_range(-1e3f32..1e3)).collect();
                (0..len).map(|_| levels[rng.gen_range(0..n)]).collect()
            }
        }
    }

    /// A 2¹⁵-row sparse matrix holding, in random column order, one column
    /// of 2¹⁵ − 1 entries (the longest pass 1 sorts) and one of 2¹⁵ (the
    /// shortest it counts), an empty and a one-entry column, and short
    /// columns of up to 800 entries, each at rows of its own stride.
    fn walk_matrix(seed: u64, max_bins: usize, n_short: usize) -> FeatureMatrix {
        let n = 1usize << 15;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lens = vec![n - 1, n];
        lens.extend((0..n_short).map(|i| match i {
            0 | 1 => i,
            _ => rng.gen_range(2..800),
        }));
        for i in (1..lens.len()).rev() {
            lens.swap(i, rng.gen_range(0..i + 1));
        }
        let mut rows = vec![Vec::new(); n];
        for (c, &len) in lens.iter().enumerate() {
            let shape = rng.gen_range(0..5u8);
            let values = walk_column(&mut rng, len, shape, max_bins);
            // An odd stride visits every row of a power-of-two count once.
            let (start, stride) = (rng.gen_range(0..n), 2 * rng.gen_range(0..n / 2) + 1);
            for (k, v) in values.into_iter().enumerate() {
                rows[(start + k * stride) % n].push((c as u32, v));
            }
        }
        FeatureMatrix::Sparse(CsrMatrix::from_rows(lens.len(), &rows))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The bins pass 1 writes by walking a sorted column are the bins the
        /// search writes: sparse set-up stores exactly what `with_mapper`
        /// stores with the mapper it built, at 1, 2 and 7 threads (every
        /// range's last column walked), over every `max_bins` and the value
        /// shapes of `walk_column`, with both arms of the length rule in one
        /// matrix.
        #[test]
        fn prop_sparse_setup_stores_what_the_search_stores(
            seed in any::<u64>(),
            max_bins in 1u16..256,
            n_short in 2usize..12,
        ) {
            let matrix = walk_matrix(seed, usize::from(max_bins), n_short);
            let config = BinningConfig::with_max_bins(max_bins);
            for threads in [1, 2, 7] {
                let q = QuantizedMatrix::from_matrix_threads(&matrix, config, threads).0;
                prop_assert!(q.sparse_csr().is_some());
                let searched = QuantizedMatrix::with_mapper(&matrix, q.mapper().clone());
                assert_same_storage(&q, &searched);
            }
        }
    }

    /// NaN in sparse input is a missing entry end to end, and ±inf take the
    /// outer bins in both layouts.
    #[test]
    fn nan_is_missing_and_infinities_take_the_outer_bins() {
        let rows = vec![
            vec![(0, f32::NEG_INFINITY), (1, f32::NAN)],
            vec![(0, 1.0), (1, 4.0)],
            vec![(0, f32::NAN)],
            vec![(0, f32::INFINITY), (1, 2.0)],
        ];
        let sparse = FeatureMatrix::Sparse(CsrMatrix::from_rows(2, &rows));
        let mut dense = DenseMatrix::filled_missing(4, 2);
        for (r, row) in rows.iter().enumerate() {
            for &(c, v) in row {
                dense.set(r, c as usize, v);
            }
        }
        for m in [sparse, FeatureMatrix::Dense(dense)] {
            let q = QuantizedMatrix::from_matrix(&m, BinningConfig::default());
            assert_eq!(q.mapper().n_bins(0), 3);
            assert_eq!(q.mapper().n_bins(1), 2);
            let col0: Vec<_> = (0..4).map(|r| q.bin(r, 0)).collect();
            let col1: Vec<_> = (0..4).map(|r| q.bin(r, 1)).collect();
            assert_eq!(col0, vec![Some(0), Some(1), None, Some(2)]);
            assert_eq!(col1, vec![None, Some(1), None, Some(0)]);
        }
    }

    #[test]
    fn empty_and_columnless_matrices_quantize() {
        for (n, m) in [(0usize, 3usize), (5, 0), (0, 0)] {
            let d = FeatureMatrix::Dense(DenseMatrix::from_vec(n, m, vec![0.5; n * m]));
            let q = QuantizedMatrix::from_matrix(&d, BinningConfig::default());
            assert_eq!((q.n_rows(), q.n_features(), q.storage_bytes()), (n, m, 0));
        }
        let s = FeatureMatrix::Sparse(CsrMatrix::from_rows(3, &[vec![], vec![]]));
        let q = QuantizedMatrix::from_matrix(&s, BinningConfig::default());
        assert_eq!((q.n_rows(), q.mapper().total_bins()), (2, 0));
    }

    fn assert_chunk_round_trip(q: &QuantizedMatrix, rows: std::ops::Range<usize>) {
        let mut blob = Vec::new();
        q.encode_chunk(rows.clone(), &mut blob);
        assert_eq!(blob.len(), q.encoded_chunk_bytes(rows.clone()), "advertised blob length");
        let slab = QuantizedMatrix::decode_chunk(&blob.into(), q.mapper()).expect("decode");
        assert_eq!(slab.n_rows(), rows.len());
        assert_eq!(slab.n_features(), q.n_features());
        assert_eq!(slab.is_dense(), q.is_dense());
        for (local, global) in rows.clone().enumerate() {
            for f in 0..q.n_features() {
                assert_eq!(slab.bin(local, f), q.bin(global, f), "cell ({global},{f})");
            }
        }
        assert_eq!(
            slab.storage_bytes(),
            q.chunk_storage_bytes(rows),
            "advertised decoded bytes must match the real slab"
        );
    }

    #[test]
    fn chunk_codec_round_trips_dense() {
        let q = QuantizedMatrix::from_matrix(&dense_matrix(), BinningConfig::default());
        assert_chunk_round_trip(&q, 0..2);
        assert_chunk_round_trip(&q, 2..4);
        assert_chunk_round_trip(&q, 0..4);
    }

    #[test]
    fn chunk_codec_round_trips_sparse() {
        let q = QuantizedMatrix::from_matrix(&sparse_matrix(), BinningConfig::default());
        assert!(q.sparse_row(0).is_some());
        assert_chunk_round_trip(&q, 0..1);
        assert_chunk_round_trip(&q, 1..3);
        assert_chunk_round_trip(&q, 0..3);
    }

    #[test]
    fn chunk_decode_rejects_truncation_and_bad_kind() {
        let q = QuantizedMatrix::from_matrix(&dense_matrix(), BinningConfig::default());
        let mut blob = Vec::new();
        q.encode_chunk(0..4, &mut blob);
        let truncated = blob[..blob.len() - 1].to_vec();
        assert!(QuantizedMatrix::decode_chunk(&truncated.into(), q.mapper()).is_err());
        let mut bad = blob.clone();
        bad[0] = 9;
        assert!(QuantizedMatrix::decode_chunk(&bad.into(), q.mapper()).is_err());
        let mut long = blob;
        long.push(0);
        assert!(QuantizedMatrix::decode_chunk(&long.into(), q.mapper()).is_err());
    }

    /// A chunk blob is input from outside the program: an `indptr` that
    /// starts at 0 and ends at `nnz` but steps backwards in between is an
    /// `Err`, not the panic the transpose would raise on it.
    #[test]
    fn chunk_decode_rejects_a_non_monotone_indptr() {
        let q = QuantizedMatrix::from_matrix(&sparse_matrix(), BinningConfig::default());
        let mut blob = Vec::new();
        q.encode_chunk(0..3, &mut blob);
        // kind, n_rows, nnz, then the four row offsets [0, 2, 3, 6].
        let indptr_at = |k: usize| 17 + 8 * k..17 + 8 * (k + 1);
        assert_eq!(blob[indptr_at(1)], 2u64.to_le_bytes());
        assert_eq!(blob[indptr_at(2)], 3u64.to_le_bytes());
        blob[indptr_at(1)].copy_from_slice(&3u64.to_le_bytes());
        blob[indptr_at(2)].copy_from_slice(&2u64.to_le_bytes());
        let err = QuantizedMatrix::decode_chunk(&blob.into(), q.mapper()).map(|_| ()).unwrap_err();
        assert!(err.contains("indptr"), "{err}");
    }

    /// A chunk blob's counts are input from outside the program too: a
    /// row, entry or column count the blob's bytes cannot hold is an `Err`
    /// before anything of its size is allocated or viewed, whether its sizes
    /// overflow or only outrun the blob — dense and sparse.
    #[test]
    fn chunk_decode_rejects_counts_the_blob_cannot_hold() {
        for q in [
            QuantizedMatrix::from_matrix(&dense_matrix(), BinningConfig::default()),
            QuantizedMatrix::from_matrix(&sparse_matrix(), BinningConfig::default()),
        ] {
            let mut blob = Vec::new();
            q.encode_chunk(0..q.n_rows(), &mut blob);
            // The row count, then the sparse entry count.
            let fields = [1..9, 9..17];
            for field in &fields[..if q.is_dense() { 1 } else { 2 }] {
                for lie in [u64::MAX, 1 << 62, 1 << 40, 1 << 20] {
                    let mut bad = blob.clone();
                    bad[field.clone()].copy_from_slice(&lie.to_le_bytes());
                    let got = QuantizedMatrix::decode_chunk(&bad.into(), q.mapper());
                    assert!(got.is_err(), "{lie} at {field:?} decoded");
                }
            }
        }
    }

    /// Sparse set-up as it used to be built: the input's own CSR, every
    /// entry binned by `value_to_bin`. The oracle of the CSR the first row
    /// read transposes from the CSC.
    fn binned_input_csr(csr: &CsrMatrix, mapper: &BinMapper) -> (Vec<usize>, Vec<u32>, Vec<u8>) {
        let (row_ptr, cols, vals) = csr.parts();
        let bins = cols.iter().zip(vals).map(|(&c, &v)| mapper.cuts(c as usize).value_to_bin(v));
        (row_ptr.to_vec(), cols.to_vec(), bins.collect())
    }

    /// Whether a matrix's row layout — the dense row major or the sparse
    /// CSR — has been built.
    fn holds_rows(q: &QuantizedMatrix) -> bool {
        match &q.storage {
            Storage::Dense { row_major, .. } => row_major.get().is_some(),
            Storage::Sparse { csr, .. } => csr.get().is_some(),
        }
    }

    /// Set-up builds the CSC alone; column reads and split routing leave it
    /// so, and the first row read makes the CSR set-up used to build, byte
    /// for byte: over the transpose battery's shapes (holes, empty rows and
    /// columns, one column, wider than long, nothing at all) and the yfcc
    /// shape, set up at 1, 2, 3 and 7 threads. (`CscCopy::transpose` of the
    /// CSC is checked at any thread count in `setup.rs`.)
    #[test]
    fn the_first_row_read_builds_the_binned_input_csr() {
        use harp_data::{DatasetKind, SynthConfig};
        let yfcc = SynthConfig::new(DatasetKind::YfccLike, 5).with_scale(0.05).generate().features;
        let FeatureMatrix::Sparse(yfcc) = yfcc else { panic!("the yfcc shape is sparse") };
        let mut matrices = crate::setup::tests::holed_matrices();
        matrices.push(yfcc);
        for csr in matrices {
            let matrix = FeatureMatrix::Sparse(csr.clone());
            for threads in [1, 2, 3, 7] {
                let q = QuantizedMatrix::from_matrix_threads(
                    &matrix,
                    BinningConfig::default(),
                    threads,
                )
                .0;
                assert!(!holds_rows(&q), "set-up built a CSR");
                let rows: Vec<u32> = (0..q.n_rows() as u32).step_by(2).collect();
                for f in 0..q.n_features() {
                    q.sparse_col(f).expect("sparse storage");
                    q.route_bins_for(f, &rows, &mut Vec::new());
                }
                assert!(!holds_rows(&q), "a column read built a CSR");
                let want = binned_input_csr(&csr, q.mapper());
                assert_eq!(q.sparse_csr(), Some((&want.0[..], &want.1[..], &want.2[..])));
                assert!(holds_rows(&q));
            }
        }
    }

    /// The reference sparse blob of `rows`: their slice of the matrix's
    /// CSR, offsets re-rooted at 0.
    fn blob_from_the_csr(q: &QuantizedMatrix, rows: Range<usize>) -> Vec<u8> {
        let (indptr, cols, bins) = q.sparse_csr().expect("sparse storage");
        let base = indptr[rows.start];
        let entries = base..indptr[rows.end];
        let mut blob = vec![CHUNK_SPARSE];
        crate::codec::put_u64(&mut blob, rows.len() as u64);
        crate::codec::put_u64(&mut blob, entries.len() as u64);
        for &at in &indptr[rows.start..=rows.end] {
            crate::codec::put_u64(&mut blob, (at - base) as u64);
        }
        for &c in &cols[entries.clone()] {
            crate::codec::put_u32(&mut blob, c);
        }
        blob.extend_from_slice(&bins[entries]);
        blob
    }

    /// Writing a sparse store's chunk cache leaves the store without its
    /// CSR: each chunk's CSR is placed from the CSC. The blobs, their
    /// advertised lengths and decoded sizes, and the whole file are what a
    /// store whose CSR was built first gives, and each blob is the slice of
    /// that CSR — over the transpose battery's shapes and the yfcc shape,
    /// at chunk sizes that leave a short last chunk, one row per chunk and
    /// one chunk in all.
    #[test]
    fn a_sparse_cache_is_written_without_the_csr() {
        use harp_data::{DatasetKind, SynthConfig};
        let yfcc = SynthConfig::new(DatasetKind::YfccLike, 5).with_scale(0.05).generate().features;
        let FeatureMatrix::Sparse(yfcc) = yfcc else { panic!("the yfcc shape is sparse") };
        let mut matrices = crate::setup::tests::holed_matrices();
        matrices.push(yfcc);
        let dir = std::env::temp_dir();
        let path =
            |tag: &str| dir.join(format!("harp_sparse_cache_{tag}_{}.qsc", std::process::id()));
        for (i, csr) in matrices.into_iter().enumerate() {
            let matrix = FeatureMatrix::Sparse(csr);
            let lazy = QuantizedMatrix::from_matrix(&matrix, BinningConfig::default());
            let built = QuantizedMatrix::from_matrix(&matrix, BinningConfig::default());
            built.derive_rows();
            let n = lazy.n_rows();
            if n == 0 {
                continue;
            }
            for rows_per_chunk in [1, 7, n] {
                let (a, b) = (path("lazy"), path("built"));
                crate::write_cache(&lazy, rows_per_chunk, &a)
                    .expect("write the lazy store's cache");
                assert!(!holds_rows(&lazy), "matrix {i}: writing a cache built the CSR");
                crate::write_cache(&built, rows_per_chunk, &b)
                    .expect("write the built store's cache");
                let (a_bytes, b_bytes) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
                assert!(
                    a_bytes == b_bytes,
                    "matrix {i}, {rows_per_chunk} rows a chunk: the files differ"
                );
                std::fs::remove_file(a).unwrap();
                std::fs::remove_file(b).unwrap();
                for start in (0..n).step_by(rows_per_chunk) {
                    let rows = start..(start + rows_per_chunk).min(n);
                    let mut blob = Vec::new();
                    lazy.encode_chunk(rows.clone(), &mut blob);
                    assert_eq!(
                        blob,
                        blob_from_the_csr(&built, rows.clone()),
                        "matrix {i} {rows:?}"
                    );
                    assert_eq!(lazy.encoded_chunk_bytes(rows.clone()), blob.len());
                    assert_eq!(
                        lazy.chunk_storage_bytes(rows.clone()),
                        built.chunk_storage_bytes(rows.clone())
                    );
                }
                assert!(!holds_rows(&lazy), "matrix {i}: encoding a chunk built the CSR");
            }
            assert_chunk_round_trip(&lazy, 0..n);
        }
    }

    /// A dense matrix of `n × m` cells, one in 37 missing, the rest on
    /// `levels` values.
    fn dense_levels(n: usize, m: usize, levels: usize) -> FeatureMatrix {
        let vals = (0..n * m)
            .map(|i| if i % 37 == 0 { f32::NAN } else { ((i * 31) % levels) as f32 })
            .collect();
        FeatureMatrix::Dense(DenseMatrix::from_vec(n, m, vals))
    }

    /// Set-up builds the dense column major alone; column reads, cell
    /// lookups and routing leave it so, and the row major that the first row
    /// read transposes from it is, byte for byte, what set-up's pass 2 wrote
    /// beside the column major before it became lazy — each cell's
    /// `value_to_bin`, or [`MISSING_BIN`], in row order — transposed at 1, 2
    /// and 3 threads and at more threads than there are tiles, over shapes
    /// that leave a partial octet of rows and of features, a partial tile,
    /// and fewer than eight features.
    #[test]
    fn the_first_row_read_builds_the_eager_row_major() {
        for (n, m) in [(1000, 5), (1037, 8), (777, 28), (9, 17), (8, 8), (1, 3), (513, 1)] {
            let matrix = dense_levels(n, m, 97);
            let FeatureMatrix::Dense(dense) = &matrix else { unreachable!() };
            for threads in [1, 2, 3, 10_000] {
                let q = QuantizedMatrix::from_matrix_threads(
                    &matrix,
                    BinningConfig::default(),
                    threads,
                )
                .0;
                assert!(!holds_rows(&q), "{n}x{m}: set-up built the row major");
                let rows: Vec<u32> = (0..n as u32).step_by(3).collect();
                for f in 0..m {
                    q.dense_col(f).expect("dense storage");
                    q.route_bins_for(f, &rows, &mut Vec::new());
                    q.bin(n - 1, f);
                }
                assert!(!holds_rows(&q), "{n}x{m}: a column read built the row major");
                let eager: Vec<u8> = dense
                    .values()
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| match v.is_nan() {
                        true => MISSING_BIN,
                        false => q.mapper().cuts(i % m).value_to_bin(v),
                    })
                    .collect();
                let Storage::Dense { col_major, .. } = &q.storage else { unreachable!() };
                assert!(transpose_columns(col_major, n, m, threads) == eager, "{n}x{m} {threads}");
                q.derive_rows();
                assert!(holds_rows(&q) && q.dense_row_major() == Some(&eager[..]), "{n}x{m}");
            }
        }
    }

    /// The register transpose is the transpose: every cell of a matrix whose
    /// bytes all differ lands at its mirror.
    #[test]
    fn transpose_8x8_mirrors_every_cell() {
        let words: [u64; 8] =
            std::array::from_fn(|i| u64::from_le_bytes(std::array::from_fn(|j| (8 * i + j) as u8)));
        let out = transpose_8x8(words);
        for (i, word) in out.iter().enumerate() {
            assert_eq!(word.to_le_bytes(), std::array::from_fn(|j| (8 * j + i) as u8), "row {i}");
        }
    }

    /// A dense chunk's row major is transposed from the column major for
    /// its rows alone: encoding every chunk of a matrix, at any offset and
    /// length, leaves the matrix's own row major unbuilt, and the bytes are
    /// the rows the matrix derives when asked.
    #[test]
    fn dense_chunks_are_transposed_from_the_columns() {
        let (n, m) = (1037, 19);
        let q = QuantizedMatrix::from_matrix(&dense_levels(n, m, 53), BinningConfig::default());
        let mut blobs = Vec::new();
        for rows in [0..n, 5..300, 257..1030, 1036..1037, 0..8] {
            let mut blob = Vec::new();
            q.encode_chunk(rows.clone(), &mut blob);
            blobs.push((rows, blob));
        }
        assert!(!holds_rows(&q), "encoding a chunk built the matrix's row major");
        let all = q.dense_row_major().expect("dense storage");
        for (rows, blob) in blobs {
            assert_eq!(blob[9..9 + rows.len() * m], all[rows.start * m..rows.end * m], "{rows:?}");
            assert_chunk_round_trip(&q, rows);
        }
    }

    #[test]
    fn route_bins_match_cell_lookups_across_storages() {
        for q in [
            QuantizedMatrix::from_matrix(&dense_matrix(), BinningConfig::default()),
            QuantizedMatrix::from_matrix(&sparse_matrix(), BinningConfig::default()),
        ] {
            let rows: Vec<u32> = (0..q.n_rows() as u32).step_by(2).collect();
            for f in 0..q.n_features() {
                let mut got = Vec::new();
                q.route_bins_for(f, &rows, &mut got);
                let want: Vec<u8> =
                    rows.iter().map(|&r| q.bin(r as usize, f).unwrap_or(MISSING_BIN)).collect();
                assert_eq!(got, want, "feature {f}");
            }
        }
    }
}
