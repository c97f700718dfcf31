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
//! Both layouts are materialized at construction; the 2× memory cost of the
//! 1-byte bins is still 2× smaller than the original 4-byte floats.
//!
//! Two compressed layouts ride on top (see DESIGN.md §13):
//!
//! * **u4 packing** ([`U4Pack`]): when every feature uses ≤ 16 bins, a
//!   nibble-packed copy of both majors halves the bin bytes the scan
//!   kernels stream. The `u8` majors are kept — partitioning, prediction,
//!   and the scalar reference kernels keep their byte views.
//! * **Exclusive feature bundling** ([`crate::bundling`]): mutually
//!   exclusive sparse features fuse into dense synthetic columns so sparse
//!   workloads leave the merge/gallop path entirely.

use crate::bundling::{plan_bundles, too_long_a_row_to_bundle, BundleMap};
use crate::bytes::SharedBytes;
use crate::mapper::{bins_while_cutting, BinLookup, BinMapper, BinningConfig};
use crate::setup::{
    run_tasks, setup_threads, split_mut, split_ranges, CscCopy, SetupInput, ValueCsc,
};
use harp_data::{CsrMatrix, DenseMatrix, FeatureMatrix};
use std::time::Instant;

/// Dense-storage sentinel for a missing value. Real bins are `0..=254`.
pub const MISSING_BIN: u8 = u8::MAX;

/// Packed-nibble sentinel for a missing value (only features with ≤ 15 used
/// bins can hold missing values in a u4 pack).
pub const MISSING_NIBBLE: u8 = 0xF;

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

/// Nibble-packed (u4) copy of dense storage: two bins per byte in both
/// majors, selected automatically when every feature fits 16 bins. Kernels
/// read half the bin bytes; missing packs as [`MISSING_NIBBLE`] and resolves
/// through the per-feature lane table, so accumulation stays branch-free.
#[derive(Debug, Clone)]
pub struct U4Pack {
    n_rows: usize,
    n_cols: usize,
    /// `n_rows × ceil(m/2)` bytes; the low nibble holds the even feature.
    /// Owned when packed in-core; a zero-copy view of the cache mapping
    /// when decoded from a chunk blob.
    row_major: SharedBytes,
    /// `m × ceil(n_rows/2)` bytes; the low nibble holds the even row.
    col_major: SharedBytes,
    /// `m × 16` flattened-histogram lanes: `lanes[f*16 + nibble]` is
    /// `bin_offset(f) + nibble` for a used bin and the per-feature sink lane
    /// `total_bins + f` otherwise (missing or unused nibble).
    lanes: Vec<u32>,
    /// Per-feature "no missing value in this column" flags. A clean
    /// feature's stored nibbles are all real bins (a 16-bin feature only
    /// packs when clean), so kernels can resolve its lanes as plain
    /// `bin_offset(f) + nibble` with no missing-sentinel select at all.
    clean: Vec<bool>,
}

impl U4Pack {
    /// Packs dense `u8` majors. Returns `None` unless every feature has
    /// ≤ 15 used bins, or exactly 16 with no missing value in its column
    /// (nibble `0xF` must stay free as the missing sentinel otherwise).
    fn build(
        n_rows: usize,
        m: usize,
        row_major: &[u8],
        col_major: &[u8],
        mapper: &BinMapper,
    ) -> Option<Self> {
        if n_rows == 0 || m == 0 {
            return None;
        }
        let widths: Vec<u16> = mapper.bin_widths().collect();
        for (f, &w) in widths.iter().enumerate() {
            if w > 16 {
                return None;
            }
            if w == 16 && col_major[f * n_rows..(f + 1) * n_rows].contains(&MISSING_BIN) {
                return None;
            }
        }
        let row_stride = m.div_ceil(2);
        let mut rm = vec![0u8; n_rows * row_stride];
        for r in 0..n_rows {
            for (f, &b) in row_major[r * m..(r + 1) * m].iter().enumerate() {
                let nib = if b == MISSING_BIN { MISSING_NIBBLE } else { b };
                debug_assert!(nib < 16);
                rm[r * row_stride + f / 2] |= nib << (4 * (f & 1));
            }
        }
        let col_stride = n_rows.div_ceil(2);
        let mut cm = vec![0u8; m * col_stride];
        for f in 0..m {
            for (r, &b) in col_major[f * n_rows..(f + 1) * n_rows].iter().enumerate() {
                let nib = if b == MISSING_BIN { MISSING_NIBBLE } else { b };
                cm[f * col_stride + r / 2] |= nib << (4 * (r & 1));
            }
        }
        let total = mapper.total_bins();
        let mut lanes = vec![0u32; m * 16];
        for (f, &w) in widths.iter().enumerate() {
            for nib in 0..16u16 {
                lanes[f * 16 + nib as usize] =
                    if nib < w { mapper.bin_offset(f) + u32::from(nib) } else { total + f as u32 };
            }
        }
        let clean = (0..m)
            .map(|f| !col_major[f * n_rows..(f + 1) * n_rows].contains(&MISSING_BIN))
            .collect();
        Some(Self { n_rows, n_cols: m, row_major: rm.into(), col_major: cm.into(), lanes, clean })
    }

    /// Reassembles a pack from already-packed nibble buffers (the chunk
    /// cache stores them verbatim so decode hands views straight through —
    /// zero-copy when the buffers alias the cache mapping). The lane table
    /// is a pure function of the mapper and is the one piece recomputed —
    /// it is `m × 16` entries, negligible next to the nibble payloads.
    fn from_packed(
        n_rows: usize,
        n_cols: usize,
        row_major: SharedBytes,
        col_major: SharedBytes,
        clean: Vec<bool>,
        mapper: &BinMapper,
    ) -> Self {
        let total = mapper.total_bins();
        let mut lanes = vec![0u32; n_cols * 16];
        for (f, w) in mapper.bin_widths().enumerate() {
            for nib in 0..16u16 {
                lanes[f * 16 + nib as usize] =
                    if nib < w { mapper.bin_offset(f) + u32::from(nib) } else { total + f as u32 };
            }
        }
        Self { n_rows, n_cols, row_major, col_major, lanes, clean }
    }

    /// Bytes per packed row.
    pub fn row_stride(&self) -> usize {
        self.n_cols.div_ceil(2)
    }

    /// Bytes per packed column.
    pub fn col_stride(&self) -> usize {
        self.n_rows.div_ceil(2)
    }

    /// Packed bytes of feature column `f`.
    #[inline]
    pub fn packed_col(&self, f: usize) -> &[u8] {
        let s = self.col_stride();
        &self.col_major[f * s..(f + 1) * s]
    }

    /// The whole packed row-major buffer.
    pub fn packed_rows(&self) -> &[u8] {
        &self.row_major
    }

    /// The nibble stored at `(row, f)` ([`MISSING_NIBBLE`] marks gaps in
    /// features with ≤ 15 bins).
    #[inline]
    pub fn nibble(&self, r: usize, f: usize) -> u8 {
        (self.row_major[r * self.row_stride() + f / 2] >> (4 * (f & 1))) & 0xF
    }

    /// The `m × 16` nibble → histogram-lane table (sinks included).
    pub fn lanes(&self) -> &[u32] {
        &self.lanes
    }

    /// Per-feature missing-free flags: `clean()[f]` means column `f` stores
    /// no [`MISSING_BIN`], so every stored nibble is a real bin and
    /// `bin_offset(f) + nibble` is its histogram lane unconditionally.
    pub fn clean(&self) -> &[bool] {
        &self.clean
    }

    /// Heap bytes of the packed copies (both majors + lane table).
    pub fn bytes(&self) -> usize {
        self.row_major.len() + self.col_major.len() + self.lanes.len() * 4 + self.clean.len()
    }
}

#[derive(Debug, Clone)]
enum Storage {
    Dense {
        row_major: SharedBytes,
        col_major: SharedBytes,
        u4: Option<U4Pack>,
    },
    /// EFB output: dense majors over `n_cols` synthetic columns in
    /// bundle-local bin coordinates (see [`crate::bundling::BundleMap`]).
    Bundled {
        row_major: SharedBytes,
        col_major: SharedBytes,
        n_cols: usize,
    },
    Sparse {
        csr: QCsr,
        csc: QCsc,
    },
}

/// Compressed-layout selection (on by default; every compressed layout is an
/// exact, loss-free re-encoding).
#[derive(Debug, Clone, Copy)]
pub struct LayoutOptions {
    /// Attach a nibble-packed copy to dense storage when eligible, and try
    /// exclusive feature bundling on sparse storage.
    pub compress: bool,
}

impl Default for LayoutOptions {
    fn default() -> Self {
        Self { compress: true }
    }
}

impl LayoutOptions {
    /// Plain u8 layouts only — the pre-compression behavior.
    pub fn uncompressed() -> Self {
        Self { compress: false }
    }
}

/// Layout decisions made for one matrix, for ledger/profile surfacing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayoutStats {
    /// Feature columns carried in the u4 side-pack (0 or `n_features`).
    pub cols_u4: u64,
    /// Synthetic storage columns when bundling engaged (0 otherwise).
    pub cols_bundled: u64,
}

/// Wall seconds of the two passes of one set-up
/// ([`QuantizedMatrix::from_matrix_timed`]).
#[derive(Debug, Clone, Copy)]
pub struct SetupTimings {
    /// Pass 1: gathering columns and searching their cuts. For sparse input
    /// also the CSR → CSC transpose before it and the bins of every column
    /// shorter than 2¹⁵ entries, which the cut search's sort writes.
    pub cut_secs: f64,
    /// Pass 2: quantizing into both majors, then layout selection (u4
    /// packing, bundling). For sparse input that is binning the columns of
    /// 2¹⁵ entries and more, the gather back to CSR order and layout
    /// selection.
    pub quantize_secs: f64,
}

/// A binned dataset: [`BinMapper`] plus `u8` bin storage in both row- and
/// column-major layouts.
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    n_rows: usize,
    mapper: BinMapper,
    storage: Storage,
}

impl QuantizedMatrix {
    /// Builds cuts from `matrix` and quantizes it, with default layout
    /// selection (u4 packing and bundling auto-engage when profitable).
    pub fn from_matrix(matrix: &FeatureMatrix, config: BinningConfig) -> Self {
        Self::from_matrix_opts(matrix, config, LayoutOptions::default())
    }

    /// [`from_matrix`](Self::from_matrix) with explicit layout selection.
    pub fn from_matrix_opts(
        matrix: &FeatureMatrix,
        config: BinningConfig,
        layout: LayoutOptions,
    ) -> Self {
        Self::from_matrix_timed(matrix, config, layout).0
    }

    /// [`from_matrix_opts`](Self::from_matrix_opts) that also reports how
    /// long each set-up pass took.
    pub fn from_matrix_timed(
        matrix: &FeatureMatrix,
        config: BinningConfig,
        layout: LayoutOptions,
    ) -> (Self, SetupTimings) {
        Self::from_matrix_threads(matrix, config, layout, setup_threads())
    }

    /// Set-up on `threads` threads; the result does not depend on the count.
    pub(crate) fn from_matrix_threads(
        matrix: &FeatureMatrix,
        config: BinningConfig,
        layout: LayoutOptions,
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
        let mut qm = Self::from_input(input, mapper, layout, threads, csc_bins);
        if layout.compress {
            qm.try_bundle();
        }
        (qm, SetupTimings { cut_secs, quantize_secs: start.elapsed().as_secs_f64() })
    }

    /// Quantizes `matrix` with existing cuts (e.g. apply training cuts to a
    /// validation set). A mapper carrying a bundle map reproduces bundled
    /// storage for sparse input deterministically (no re-planning).
    ///
    /// # Panics
    /// Panics if the mapper's bundle map puts two features present in one
    /// row of `matrix` into one bundle (it never does on the rows it was
    /// planned on).
    pub fn with_mapper(matrix: &FeatureMatrix, mapper: BinMapper) -> Self {
        Self::with_mapper_opts(matrix, mapper, LayoutOptions::default())
    }

    /// [`with_mapper`](Self::with_mapper) with explicit layout selection
    /// (bundle planning never runs here; only a map already attached to the
    /// mapper is applied).
    pub fn with_mapper_opts(
        matrix: &FeatureMatrix,
        mapper: BinMapper,
        layout: LayoutOptions,
    ) -> Self {
        let threads = setup_threads();
        Self::from_input(SetupInput::new(matrix, threads), mapper, layout, threads, None)
    }

    /// Pass 2 of set-up: quantizes `input` with `mapper`'s cuts. `csc_bins`
    /// is what pass 1 handed back for sparse input: the CSC-order bins with
    /// every column it sorted already written.
    fn from_input(
        input: SetupInput<'_>,
        mapper: BinMapper,
        layout: LayoutOptions,
        threads: usize,
        csc_bins: Option<Vec<u8>>,
    ) -> Self {
        assert_eq!(input.n_cols(), mapper.n_features(), "mapper/matrix feature mismatch");
        let (n_rows, storage) = match input {
            SetupInput::Dense(dense) => {
                let (n_rows, m) = (dense.n_rows(), dense.n_cols());
                let (row_major, col_major) = quantize_dense(dense, &mapper, threads);
                let u4 = (layout.compress && mapper.max_bins_used() <= 16)
                    .then(|| U4Pack::build(n_rows, m, &row_major, &col_major, &mapper))
                    .flatten();
                let storage =
                    Storage::Dense { row_major: row_major.into(), col_major: col_major.into(), u4 };
                (n_rows, storage)
            }
            SetupInput::Sparse(sparse, value_csc) => {
                let n_rows = sparse.n_rows();
                let (csr, csc) = quantize_sparse(sparse, value_csc, &mapper, threads, csc_bins);
                let storage = match mapper.bundles() {
                    Some(map) => {
                        let (row_major, col_major, n_cols) = build_bundled(n_rows, &csr, map);
                        Storage::Bundled {
                            row_major: row_major.into(),
                            col_major: col_major.into(),
                            n_cols,
                        }
                    }
                    None => Storage::Sparse { csr, csc },
                };
                (n_rows, storage)
            }
        };
        Self { n_rows, mapper, storage }
    }

    /// Runs the EFB planning pass on sparse storage and switches to bundled
    /// dense columns when profitable (no-op otherwise).
    fn try_bundle(&mut self) {
        let Storage::Sparse { csr, csc } = &self.storage else { return };
        // Every stored entry has a bin, so a CSR row's length is its count of
        // present features with a bin.
        let longest_row = csr.indptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        if too_long_a_row_to_bundle(longest_row, self.n_features()) {
            return;
        }
        let widths: Vec<u16> = self.mapper.bin_widths().collect();
        let map = plan_bundles(self.n_rows, &widths, self.mapper.bin_offsets(), |f| {
            &csc.rows[csc.indptr[f]..csc.indptr[f + 1]]
        });
        let Some(map) = map else { return };
        let (row_major, col_major, n_cols) = build_bundled(self.n_rows, csr, &map);
        self.mapper.set_bundles(map);
        self.storage =
            Storage::Bundled { row_major: row_major.into(), col_major: col_major.into(), n_cols };
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of (original) features.
    pub fn n_features(&self) -> usize {
        self.mapper.n_features()
    }

    /// Number of physical storage columns: `n_features`, or the bundle
    /// count when bundling engaged.
    pub fn n_storage_cols(&self) -> usize {
        match &self.storage {
            Storage::Bundled { n_cols, .. } => *n_cols,
            _ => self.n_features(),
        }
    }

    /// The cut points used for quantization.
    pub fn mapper(&self) -> &BinMapper {
        &self.mapper
    }

    /// Whether storage is plain dense (one byte column per feature).
    /// Bundled storage answers `false`: its columns are synthetic, so
    /// per-feature slicing of scans does not apply.
    pub fn is_dense(&self) -> bool {
        matches!(self.storage, Storage::Dense { .. })
    }

    /// Whether exclusive feature bundling engaged.
    pub fn is_bundled(&self) -> bool {
        matches!(self.storage, Storage::Bundled { .. })
    }

    /// The nibble-packed copy of dense storage, when selected.
    pub fn u4(&self) -> Option<&U4Pack> {
        match &self.storage {
            Storage::Dense { u4, .. } => u4.as_ref(),
            _ => None,
        }
    }

    /// Layout decisions for ledger/profile counters.
    pub fn layout_stats(&self) -> LayoutStats {
        match &self.storage {
            Storage::Dense { u4, .. } => LayoutStats {
                cols_u4: if u4.is_some() { self.n_features() as u64 } else { 0 },
                ..LayoutStats::default()
            },
            Storage::Bundled { n_cols, .. } => {
                LayoutStats { cols_bundled: *n_cols as u64, ..LayoutStats::default() }
            }
            Storage::Sparse { .. } => LayoutStats::default(),
        }
    }

    /// The bin of `(row, f)`, or `None` if missing. Slow; for tests and
    /// single lookups. `f` is always an ORIGINAL feature id — bundled
    /// storage translates internally.
    pub fn bin(&self, row: usize, f: usize) -> Option<u8> {
        match &self.storage {
            Storage::Dense { row_major, .. } => {
                let b = row_major[row * self.n_features() + f];
                (b != MISSING_BIN).then_some(b)
            }
            Storage::Bundled { row_major, n_cols, .. } => {
                let slot = self.mapper.bundles().expect("bundled storage has a map").slot(f);
                if slot.width == 0 {
                    return None;
                }
                let b = row_major[row * n_cols + slot.col as usize];
                if b == MISSING_BIN {
                    return None;
                }
                let b = u16::from(b);
                (b >= slot.offset && b < slot.offset + slot.width).then(|| (b - slot.offset) as u8)
            }
            Storage::Sparse { csr, .. } => {
                let span = csr.indptr[row]..csr.indptr[row + 1];
                csr.cols[span.clone()]
                    .binary_search(&(f as u32))
                    .ok()
                    .map(|i| csr.bins[span.start + i])
            }
        }
    }

    /// Dense row-major slice of one row (`MISSING_BIN` marks gaps), or
    /// `None` for sparse/bundled storage.
    #[inline]
    pub fn dense_row(&self, row: usize) -> Option<&[u8]> {
        match &self.storage {
            Storage::Dense { row_major, .. } => {
                let m = self.n_features();
                Some(&row_major[row * m..(row + 1) * m])
            }
            _ => None,
        }
    }

    /// The whole dense row-major bin matrix (`n_rows * n_features` bytes,
    /// `MISSING_BIN` marks gaps), or `None` for sparse/bundled storage.
    /// Every stored bin is either `MISSING_BIN` or strictly below the
    /// feature's [`BinMapper::n_bins`] — quantization clamps into range —
    /// which lets scan kernels index flattened histograms without per-cell
    /// checks.
    #[inline]
    pub fn dense_row_major(&self) -> Option<&[u8]> {
        match &self.storage {
            Storage::Dense { row_major, .. } => Some(row_major),
            _ => None,
        }
    }

    /// Dense column-major slice of one feature (`MISSING_BIN` marks gaps),
    /// or `None` for sparse/bundled storage.
    #[inline]
    pub fn dense_col(&self, f: usize) -> Option<&[u8]> {
        match &self.storage {
            Storage::Dense { col_major, .. } => {
                Some(&col_major[f * self.n_rows..(f + 1) * self.n_rows])
            }
            _ => None,
        }
    }

    /// The bundled row-major storage (`n_rows × n_storage_cols` bytes in
    /// bundle-local bin coordinates), or `None` when bundling is off.
    #[inline]
    pub fn bundled_row_major(&self) -> Option<&[u8]> {
        match &self.storage {
            Storage::Bundled { row_major, .. } => Some(row_major),
            _ => None,
        }
    }

    /// Bundled column-major slice of synthetic column `c`, or `None` when
    /// bundling is off.
    #[inline]
    pub fn bundled_col(&self, c: usize) -> Option<&[u8]> {
        match &self.storage {
            Storage::Bundled { col_major, .. } => {
                Some(&col_major[c * self.n_rows..(c + 1) * self.n_rows])
            }
            _ => None,
        }
    }

    /// Visits the present `(feature, bin)` pairs of one row, in original
    /// feature coordinates. Dense/sparse storage visits in ascending
    /// feature order; bundled storage visits in storage-column order.
    pub fn for_each_in_row(&self, row: usize, mut visit: impl FnMut(u32, u8)) {
        match &self.storage {
            Storage::Dense { row_major, .. } => {
                let m = self.n_features();
                for (c, &b) in row_major[row * m..(row + 1) * m].iter().enumerate() {
                    if b != MISSING_BIN {
                        visit(c as u32, b);
                    }
                }
            }
            Storage::Bundled { row_major, n_cols, .. } => {
                let map = self.mapper.bundles().expect("bundled storage has a map");
                for (c, &b) in row_major[row * n_cols..(row + 1) * n_cols].iter().enumerate() {
                    if b != MISSING_BIN {
                        if let Some((f, local)) = map.translate(c, b) {
                            visit(f, local);
                        }
                    }
                }
            }
            Storage::Sparse { csr, .. } => {
                for i in csr.indptr[row]..csr.indptr[row + 1] {
                    visit(csr.cols[i], csr.bins[i]);
                }
            }
        }
    }

    /// Visits the present `(row, bin)` pairs of one (original) feature
    /// column, in row order.
    pub fn for_each_in_col(&self, f: usize, mut visit: impl FnMut(u32, u8)) {
        match &self.storage {
            Storage::Dense { col_major, .. } => {
                for (r, &b) in col_major[f * self.n_rows..(f + 1) * self.n_rows].iter().enumerate()
                {
                    if b != MISSING_BIN {
                        visit(r as u32, b);
                    }
                }
            }
            Storage::Bundled { col_major, .. } => {
                let slot = self.mapper.bundles().expect("bundled storage has a map").slot(f);
                if slot.width == 0 {
                    return;
                }
                let c = slot.col as usize;
                let (lo, hi) = (slot.offset, slot.offset + slot.width);
                for (r, &b) in col_major[c * self.n_rows..(c + 1) * self.n_rows].iter().enumerate()
                {
                    let b = u16::from(b);
                    if b >= lo && b < hi {
                        visit(r as u32, (b - lo) as u8);
                    }
                }
            }
            Storage::Sparse { csc, .. } => {
                for i in csc.indptr[f]..csc.indptr[f + 1] {
                    visit(csc.rows[i], csc.bins[i]);
                }
            }
        }
    }

    /// Sparse CSC entries of feature `f` as `(rows, bins)` slices (row
    /// order), or `None` for dense/bundled storage.
    pub fn sparse_col(&self, f: usize) -> Option<(&[u32], &[u8])> {
        match &self.storage {
            Storage::Sparse { csc, .. } => {
                let span = csc.indptr[f]..csc.indptr[f + 1];
                Some((&csc.rows[span.clone()], &csc.bins[span]))
            }
            _ => None,
        }
    }

    /// The raw sparse CSR arrays as `(indptr, cols, bins)`, or `None` for
    /// dense/bundled storage. Row `r` owns entries `indptr[r]..indptr[r+1]`
    /// of `cols`/`bins`; columns are strictly ascending within a row.
    pub fn sparse_csr(&self) -> Option<(&[usize], &[u32], &[u8])> {
        match &self.storage {
            Storage::Sparse { csr, .. } => Some((&csr.indptr, &csr.cols, &csr.bins)),
            _ => None,
        }
    }

    /// Sparse CSR entries of row `r` as `(cols, bins)` slices, or `None`
    /// for dense/bundled storage.
    pub fn sparse_row(&self, r: usize) -> Option<(&[u32], &[u8])> {
        match &self.storage {
            Storage::Sparse { csr, .. } => {
                let span = csr.indptr[r]..csr.indptr[r + 1];
                Some((&csr.cols[span.clone()], &csr.bins[span]))
            }
            _ => None,
        }
    }

    /// Approximate heap footprint of the bin storage in bytes (compressed
    /// side-copies included).
    pub fn storage_bytes(&self) -> usize {
        match &self.storage {
            Storage::Dense { row_major, col_major, u4 } => {
                row_major.len() + col_major.len() + u4.as_ref().map_or(0, U4Pack::bytes)
            }
            Storage::Bundled { row_major, col_major, .. } => row_major.len() + col_major.len(),
            Storage::Sparse { csr, csc } => {
                csr.bins.len()
                    + csr.cols.len() * 4
                    + csr.indptr.len() * 8
                    + csc.bins.len()
                    + csc.rows.len() * 4
                    + csc.indptr.len() * 8
            }
        }
    }

    /// Appends, for each listed row, the *routing byte* of original feature
    /// `f`: the stored bin, or [`MISSING_BIN`] when the cell is absent, with
    /// bundled storage translated back into feature-local bins. The result
    /// drives split routing uniformly across storages — `MISSING_BIN`
    /// follows the split's default direction, any real bin compares against
    /// the threshold — which is what lets a chunked store hand ApplySplit an
    /// owned per-node gather instead of a borrowed column.
    pub fn route_bins_for(&self, f: usize, rows: &[u32], out: &mut Vec<u8>) {
        out.reserve(rows.len());
        match &self.storage {
            Storage::Dense { col_major, .. } => {
                let col = &col_major[f * self.n_rows..(f + 1) * self.n_rows];
                out.extend(rows.iter().map(|&r| col[r as usize]));
            }
            Storage::Bundled { col_major, .. } => {
                let slot = self.mapper.bundles().expect("bundled storage has a map").slot(f);
                if slot.width == 0 {
                    out.extend(std::iter::repeat_n(MISSING_BIN, rows.len()));
                    return;
                }
                let col = &col_major[slot.col as usize * self.n_rows..];
                let (lo, width) = (slot.offset, slot.width);
                out.extend(rows.iter().map(|&r| {
                    let b = u16::from(col[r as usize]);
                    if b.wrapping_sub(lo) < width {
                        (b - lo) as u8
                    } else {
                        MISSING_BIN
                    }
                }));
            }
            Storage::Sparse { csr, .. } => {
                out.extend(rows.iter().map(|&r| {
                    let span = csr.indptr[r as usize]..csr.indptr[r as usize + 1];
                    match csr.cols[span.clone()].binary_search(&(f as u32)) {
                        Ok(i) => csr.bins[span.start + i],
                        Err(_) => MISSING_BIN,
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
            Storage::Dense { u4, .. } => {
                let u4_bytes = if u4.is_some() {
                    n * m.div_ceil(2) + m * n.div_ceil(2) + m * 16 * 4 + m
                } else {
                    0
                };
                2 * n * m + u4_bytes
            }
            Storage::Bundled { n_cols, .. } => 2 * n * n_cols,
            Storage::Sparse { csr, .. } => {
                let e = csr.indptr[rows.end] - csr.indptr[rows.start];
                (e + e * 4 + (n + 1) * 8) + (e + e * 4 + (m + 1) * 8)
            }
        }
    }

    /// Exact length of the blob [`encode_chunk`](Self::encode_chunk) writes
    /// for `rows` — known without encoding, so the cache writer can lay out
    /// every chunk's offset before any task starts.
    pub(crate) fn encoded_chunk_bytes(&self, rows: std::ops::Range<usize>) -> usize {
        let n = rows.len();
        let m = self.n_features();
        // kind, u4 flag, n_rows.
        let head = 1 + 1 + 8;
        match &self.storage {
            Storage::Dense { u4, .. } => {
                let u4_bytes =
                    if u4.is_some() { n * m.div_ceil(2) + m * n.div_ceil(2) + m } else { 0 };
                head + 2 * n * m + u4_bytes
            }
            Storage::Bundled { n_cols, .. } => head + 8 + 2 * n * n_cols,
            Storage::Sparse { csr, .. } => {
                let nnz = csr.indptr[rows.end] - csr.indptr[rows.start];
                head + 8 + (n + 1) * 8 + nnz * (4 + 1)
            }
        }
    }

    /// Serializes rows `rows` as a self-contained chunk blob (rows re-rooted
    /// at 0). Dense and bundled chunks write the *decoded* layouts verbatim
    /// (row major, gathered column major, pre-packed u4 nibbles) so that
    /// [`decode_chunk`] on the training hot path is a handful of `memcpy`s —
    /// a chunked scan re-decodes a chunk on every cache miss, so the
    /// transpose/pack cost belongs here, paid once at cache-build time.
    /// Sparse chunks still rebuild their CSC mirror on decode (an `O(nnz)`
    /// bucket pass; sparse storage is column-scanned far less often).
    ///
    /// Blob layout: `kind u8` (0 dense / 1 bundled / 2 sparse), `u4 u8`
    /// flag, `n_rows u64`, then per-kind payload.
    pub(crate) fn encode_chunk(&self, rows: std::ops::Range<usize>, out: &mut Vec<u8>) {
        use crate::codec::{put_u32, put_u64};
        let m = self.n_features();
        let n = rows.len();
        out.reserve(self.encoded_chunk_bytes(rows.clone()));
        match &self.storage {
            Storage::Dense { row_major, col_major, u4 } => {
                out.push(0);
                out.push(u8::from(u4.is_some()));
                put_u64(out, n as u64);
                let payload = out.len();
                out.extend_from_slice(&row_major[rows.start * m..rows.end * m]);
                // The chunk's column major: rows.start..rows.end of each
                // column, gathered into a contiguous slab-shaped run.
                for f in 0..m {
                    let col = &col_major[f * self.n_rows..(f + 1) * self.n_rows];
                    out.extend_from_slice(&col[rows.clone()]);
                }
                if u4.is_some() {
                    // Re-pack the chunk's nibbles with the construction
                    // routine (nibble phase depends on the chunk-local row
                    // index, so the full matrix's pack cannot be sliced).
                    // Succeeds because the full-matrix pack did: bin widths
                    // are mapper-global and a missing-free column stays
                    // missing-free in any row subset.
                    let (chunk_rm, chunk_cm) = out[payload..].split_at(n * m);
                    let p = U4Pack::build(n, m, chunk_rm, chunk_cm, &self.mapper)
                        .expect("a chunk of a u4-packed matrix packs");
                    out.extend_from_slice(&p.row_major);
                    out.extend_from_slice(&p.col_major);
                    out.extend(p.clean.iter().map(|&c| u8::from(c)));
                }
            }
            Storage::Bundled { row_major, col_major, n_cols } => {
                out.push(1);
                out.push(0);
                put_u64(out, n as u64);
                put_u64(out, *n_cols as u64);
                out.extend_from_slice(&row_major[rows.start * n_cols..rows.end * n_cols]);
                for c in 0..*n_cols {
                    let col = &col_major[c * self.n_rows..(c + 1) * self.n_rows];
                    out.extend_from_slice(&col[rows.clone()]);
                }
            }
            Storage::Sparse { csr, .. } => {
                out.push(2);
                out.push(0);
                put_u64(out, n as u64);
                let base = csr.indptr[rows.start];
                let nnz = csr.indptr[rows.end] - base;
                put_u64(out, nnz as u64);
                for r in rows.start..=rows.end {
                    put_u64(out, (csr.indptr[r] - base) as u64);
                }
                for &c in &csr.cols[base..base + nnz] {
                    put_u32(out, c);
                }
                out.extend_from_slice(&csr.bins[base..base + nnz]);
            }
        }
    }

    /// Decodes an [`encode_chunk`](Self::encode_chunk) blob into a
    /// self-contained slab matrix (rows numbered `0..chunk_len`) carrying a
    /// clone of `mapper`. Dense and bundled layouts were written decoded, so
    /// their byte buffers become bounds-checked *views* of the blob — when
    /// the blob aliases the cache file's mapping, decode allocates nothing
    /// but the u4 lane table (a pure function of the mapper) and the slab
    /// reads straight from page cache. Sparse chunks still rebuild their
    /// CSC mirror with the same bucket placement construction uses. Either
    /// way a decoded slab is bitwise-identical to slicing the original
    /// matrix.
    pub(crate) fn decode_chunk(blob: &SharedBytes, mapper: &BinMapper) -> Result<Self, String> {
        use crate::codec::Cursor;
        let m = mapper.n_features();
        let mut cur = Cursor::new(blob);
        let view = |cur: &mut Cursor, len: usize, what: &str| -> Result<SharedBytes, String> {
            let start = cur.pos();
            cur.take(len).ok_or_else(|| format!("chunk blob truncated: {what}"))?;
            Ok(blob.slice(start..start + len))
        };
        let kind = cur.get_u8().ok_or("chunk blob truncated: kind")?;
        let want_u4 = cur.get_u8().ok_or("chunk blob truncated: u4 flag")? != 0;
        let n = cur.get_u64().ok_or("chunk blob truncated: n_rows")? as usize;
        let storage = match kind {
            0 => {
                let row_major = view(&mut cur, n * m, "dense rows")?;
                let col_major = view(&mut cur, n * m, "dense cols")?;
                let u4 = if want_u4 {
                    let rm = view(&mut cur, n * m.div_ceil(2), "u4 rows")?;
                    let cm = view(&mut cur, m * n.div_ceil(2), "u4 cols")?;
                    let clean: Vec<bool> = cur
                        .take(m)
                        .ok_or("chunk blob truncated: u4 clean flags")?
                        .iter()
                        .map(|&b| b != 0)
                        .collect();
                    Some(U4Pack::from_packed(n, m, rm, cm, clean, mapper))
                } else {
                    None
                };
                Storage::Dense { row_major, col_major, u4 }
            }
            1 => {
                let n_cols = cur.get_u64().ok_or("chunk blob truncated: n_cols")? as usize;
                if mapper.bundles().is_none() {
                    return Err("bundled chunk but mapper has no bundle map".into());
                }
                let row_major = view(&mut cur, n * n_cols, "bundled rows")?;
                let col_major = view(&mut cur, n * n_cols, "bundled cols")?;
                Storage::Bundled { row_major, col_major, n_cols }
            }
            2 => {
                let nnz = cur.get_u64().ok_or("chunk blob truncated: nnz")? as usize;
                let mut indptr = Vec::with_capacity(n + 1);
                for _ in 0..=n {
                    indptr.push(cur.get_u64().ok_or("chunk blob truncated: indptr")? as usize);
                }
                if indptr[0] != 0 || indptr[n] != nnz || indptr.windows(2).any(|w| w[0] > w[1]) {
                    return Err("chunk indptr does not walk nnz entries".into());
                }
                let mut cols = Vec::with_capacity(nnz);
                for _ in 0..nnz {
                    cols.push(cur.get_u32().ok_or("chunk blob truncated: cols")?);
                }
                let bins = cur.take(nnz).ok_or("chunk blob truncated: bins")?.to_vec();
                if cols.iter().any(|&c| c as usize >= m) {
                    return Err("chunk column id out of range".into());
                }
                // The CSC mirror by the transpose construction uses, on this
                // thread: chunks are decoded by tasks of their own.
                let CscCopy { indptr: csc_indptr, rows, vals: csc_bins, .. } =
                    CscCopy::transpose(m, &indptr, &cols, &bins, 1);
                Storage::Sparse {
                    csr: QCsr { indptr, cols, bins },
                    csc: QCsc { indptr: csc_indptr, rows, bins: csc_bins },
                }
            }
            k => return Err(format!("unknown chunk kind {k}")),
        };
        if cur.remaining() != 0 {
            return Err("trailing bytes after chunk payload".into());
        }
        Ok(Self { n_rows: n, mapper: mapper.clone(), storage })
    }
}

/// Rows per dense transpose tile: a tile's raw values and the row-major
/// bytes written for it stay cache-resident while the tile is walked once per
/// feature.
const TILE_ROWS: usize = 256;

/// Quantizes a dense matrix into its row and column majors with ⟨row-block⟩
/// tasks: each owns the block's rows of `row_major` and the same rows of
/// every column of `col_major`, so nothing is staged or copied afterwards.
fn quantize_dense(dense: &DenseMatrix, mapper: &BinMapper, threads: usize) -> (Vec<u8>, Vec<u8>) {
    let (n_rows, m) = (dense.n_rows(), dense.n_cols());
    // Zeroed, not filled: the pages are first touched by the tasks that
    // own them, which write every cell, [`MISSING_BIN`] included.
    let mut row_major = vec![0; n_rows * m];
    let mut col_major = vec![0; n_rows * m];
    if row_major.is_empty() {
        return (row_major, col_major);
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
    let block_rows = split_mut(&mut row_major, blocks.iter().map(|b| b.len() * m));
    let mut tasks = Vec::new();
    for ((block, rows), mut cols) in blocks.into_iter().zip(block_rows).zip(block_cols) {
        let values = &dense.values()[block.start * m..block.end * m];
        tasks.push(move || quantize_block(values, mapper, rows, &mut cols));
    }
    run_tasks(tasks);
    (row_major, col_major)
}

/// Quantizes one row block tile by tile, feature by feature within a tile:
/// one feature's cuts are live at a time. A tile's cells of one feature are
/// binned as one strided run into the block's slice of that column
/// ([`BinLookup::bin_run`]; cell by cell through
/// [`value_to_bin`](crate::FeatureCuts::value_to_bin) when the block is too
/// short for a lookup), and the run is copied out to the row-major bytes
/// while the tile is hot.
/// `cols[f]` is the block's slice of column `f`; absent (`NaN`) cells get
/// [`MISSING_BIN`].
fn quantize_block(values: &[f32], mapper: &BinMapper, rows: &mut [u8], cols: &mut [&mut [u8]]) {
    let m = cols.len();
    let n_rows = rows.len() / m;
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
            for (r, &bin) in tile.clone().zip(col.iter()) {
                rows[r * m + f] = bin;
            }
        }
    }
}

/// Quantizes a sparse matrix into CSR + CSC bin storage from its value CSC:
/// ⟨feature-range⟩ tasks quantize column-at-a-time (one cut table live per
/// task), then the ⟨row-block⟩ tasks of the transpose gather the bins back
/// into CSR order, each writing its own rows of the CSR arrays.
/// `value_csc.rows` becomes the CSC mirror's row ids as is. Given
/// `csc_bins` from pass 1, the columns it sorted are binned already
/// ([`bins_while_cutting`]) and only the long ones are binned here.
fn quantize_sparse(
    sparse: &CsrMatrix,
    mut value_csc: ValueCsc,
    mapper: &BinMapper,
    threads: usize,
    csc_bins: Option<Vec<u8>>,
) -> (QCsr, QCsc) {
    let (col_ptr, vals) = (&value_csc.indptr, &value_csc.vals);
    let binned_while_cutting = csc_bins.is_some();
    let mut csc_bins = csc_bins.unwrap_or_else(|| vec![0u8; vals.len()]);
    assert_eq!(csc_bins.len(), vals.len(), "one bin per entry of the value CSC");
    let ranges = split_ranges(sparse.n_cols(), threads, 1);
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
    value_csc.vals = Vec::new();

    let (row_ptr, cols, _) = sparse.parts();
    let (n_rows, nnz) = (sparse.n_rows(), cols.len());
    // Zeroed, not copied: the pages are first touched by the tasks that own
    // them.
    let mut csr = QCsr { indptr: vec![0; n_rows + 1], cols: vec![0; nnz], bins: vec![0; nnz] };
    csr.indptr[n_rows] = nnz;
    let blocks = value_csc.gather_blocks();
    let ptr_out = split_mut(&mut csr.indptr[..n_rows], blocks.iter().map(|b| b.rows.len()));
    let cols_out = split_mut(&mut csr.cols, blocks.iter().map(|b| b.entries(row_ptr).len()));
    let bins_out = split_mut(&mut csr.bins, blocks.iter().map(|b| b.entries(row_ptr).len()));
    let mut tasks = Vec::new();
    for (((block, ptr), block_cols), block_bins) in
        blocks.into_iter().zip(ptr_out).zip(cols_out).zip(bins_out)
    {
        let csc_bins = &csc_bins;
        tasks.push(move || {
            ptr.copy_from_slice(&row_ptr[block.rows.clone()]);
            block_cols.copy_from_slice(&cols[block.entries(row_ptr)]);
            block.gather(block_cols, csc_bins, block_bins);
        });
    }
    run_tasks(tasks);
    let CscCopy { indptr, rows, .. } = value_csc;
    (csr, QCsc { indptr, rows, bins: csc_bins })
}

/// Materializes bundled dense majors from quantized CSR entries and a
/// bundle map.
///
/// # Panics
/// Panics if a row holds two members of one bundle: a map is exclusive on
/// the rows it was planned on, and storing one of the two would drop the
/// other.
fn build_bundled(n_rows: usize, csr: &QCsr, map: &BundleMap) -> (Vec<u8>, Vec<u8>, usize) {
    let n_cols = map.n_cols();
    let mut row_major = vec![MISSING_BIN; n_rows * n_cols];
    for r in 0..n_rows {
        for i in csr.indptr[r]..csr.indptr[r + 1] {
            let slot = map.slot(csr.cols[i] as usize);
            if slot.width == 0 {
                continue;
            }
            let cell = &mut row_major[r * n_cols + slot.col as usize];
            assert_eq!(*cell, MISSING_BIN, "row {r} holds two members of bundle {}", slot.col);
            *cell = (slot.offset + u16::from(csr.bins[i])) as u8;
        }
    }
    let mut col_major = vec![MISSING_BIN; n_rows * n_cols];
    for r in 0..n_rows {
        for c in 0..n_cols {
            col_major[c * n_rows + r] = row_major[r * n_cols + c];
        }
    }
    (row_major, col_major, n_cols)
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

    /// 64 rows over 16 one-hot groups of 4 features each — bundling fuses
    /// each group into one synthetic column.
    fn one_hot_matrix() -> FeatureMatrix {
        let (n, groups, k) = (64usize, 16usize, 4usize);
        let rows: Vec<Vec<(u32, f32)>> = (0..n)
            .map(|r| (0..groups).map(|g| ((g * k + r % k) as u32, 1.0 + (r % k) as f32)).collect())
            .collect();
        FeatureMatrix::Sparse(CsrMatrix::from_rows(groups * k, &rows))
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

    #[test]
    fn row_and_col_scans_agree_dense() {
        let q = QuantizedMatrix::from_matrix(&dense_matrix(), BinningConfig::default());
        let mut from_rows = vec![];
        for r in 0..q.n_rows() {
            q.for_each_in_row(r, |c, b| from_rows.push((r as u32, c, b)));
        }
        let mut from_cols = vec![];
        for c in 0..q.n_features() {
            q.for_each_in_col(c, |r, b| from_cols.push((r, c as u32, b)));
        }
        from_rows.sort_unstable();
        from_cols.sort_unstable();
        assert_eq!(from_rows, from_cols);
    }

    #[test]
    fn row_and_col_scans_agree_sparse() {
        let q = QuantizedMatrix::from_matrix(&sparse_matrix(), BinningConfig::default());
        let mut from_rows = vec![];
        for r in 0..q.n_rows() {
            q.for_each_in_row(r, |c, b| from_rows.push((r as u32, c, b)));
        }
        let mut from_cols = vec![];
        for c in 0..q.n_features() {
            q.for_each_in_col(c, |r, b| from_cols.push((r, c as u32, b)));
        }
        from_rows.sort_unstable();
        from_cols.sort_unstable();
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
    fn storage_bytes_counts_both_copies_and_u4_pack() {
        let q = QuantizedMatrix::from_matrix(&dense_matrix(), BinningConfig::default());
        // All widths ≤ 4 so the u4 pack engages: 4 packed rows of
        // ceil(3/2) bytes + 3 packed cols of ceil(4/2) bytes + the 3×16
        // lane table + the 3 clean flags.
        assert!(q.u4().is_some());
        assert_eq!(q.storage_bytes(), 2 * 4 * 3 + (4 * 2 + 3 * 2 + 3 * 16 * 4 + 3));
        let plain = QuantizedMatrix::from_matrix_opts(
            &dense_matrix(),
            BinningConfig::default(),
            LayoutOptions::uncompressed(),
        );
        assert!(plain.u4().is_none());
        assert_eq!(plain.storage_bytes(), 2 * 4 * 3);
    }

    #[test]
    fn u4_pack_round_trips_every_cell() {
        let q = QuantizedMatrix::from_matrix(&dense_matrix(), BinningConfig::default());
        let pack = q.u4().expect("widths ≤ 15 pack");
        for r in 0..q.n_rows() {
            for f in 0..q.n_features() {
                let nib = pack.nibble(r, f);
                match q.bin(r, f) {
                    Some(b) => assert_eq!(nib, b),
                    None => assert_eq!(nib, MISSING_NIBBLE),
                }
            }
        }
        // Lane table: used nibbles map to the feature's histogram range,
        // the rest to the per-feature sink.
        let total = q.mapper().total_bins();
        for f in 0..q.n_features() {
            let w = q.mapper().n_bins(f);
            for nib in 0..16u16 {
                let lane = pack.lanes()[f * 16 + nib as usize];
                if nib < w {
                    assert_eq!(lane, q.mapper().bin_offset(f) + u32::from(nib));
                } else {
                    assert_eq!(lane, total + f as u32);
                }
            }
        }
    }

    #[test]
    fn u4_pack_declines_wide_features() {
        // 17 distinct values -> 17 bins on feature 0: no pack.
        let vals: Vec<f32> = (0..17).map(|i| i as f32).collect();
        let m = FeatureMatrix::Dense(DenseMatrix::from_vec(17, 1, vals));
        let q = QuantizedMatrix::from_matrix(&m, BinningConfig::default());
        assert!(q.u4().is_none());
        assert_eq!(q.layout_stats(), LayoutStats::default());
    }

    #[test]
    fn u4_pack_declines_16_bins_with_missing() {
        // Exactly 16 bins AND a missing value: nibble 0xF can't serve both.
        let mut vals: Vec<f32> = (0..17).map(|i| (i % 16) as f32).collect();
        vals[16] = f32::NAN;
        let m = FeatureMatrix::Dense(DenseMatrix::from_vec(17, 1, vals));
        let q = QuantizedMatrix::from_matrix(&m, BinningConfig::default());
        assert_eq!(q.mapper().max_bins_used(), 16);
        assert!(q.u4().is_none());

        // 16 bins with no missing value packs fine.
        let vals: Vec<f32> = (0..32).map(|i| (i % 16) as f32).collect();
        let m = FeatureMatrix::Dense(DenseMatrix::from_vec(32, 1, vals));
        let q = QuantizedMatrix::from_matrix(&m, BinningConfig::default());
        assert!(q.u4().is_some());
    }

    #[test]
    fn bundling_fuses_one_hot_groups() {
        let q = QuantizedMatrix::from_matrix(&one_hot_matrix(), BinningConfig::default());
        assert!(q.is_bundled());
        assert_eq!(q.n_storage_cols(), 16, "one synthetic column per one-hot group");
        assert_eq!(q.n_features(), 64);
        let stats = q.layout_stats();
        assert_eq!(stats.cols_bundled, 16);
        // Dense/sparse views are both unavailable; the bundled views exist.
        assert!(q.dense_row(0).is_none() && q.sparse_row(0).is_none());
        assert!(q.bundled_row_major().is_some() && q.bundled_col(0).is_some());
    }

    #[test]
    fn bundling_preserves_every_cell() {
        let plain = QuantizedMatrix::from_matrix_opts(
            &one_hot_matrix(),
            BinningConfig::default(),
            LayoutOptions::uncompressed(),
        );
        let bundled = QuantizedMatrix::from_matrix(&one_hot_matrix(), BinningConfig::default());
        assert!(!plain.is_bundled() && bundled.is_bundled());
        for r in 0..plain.n_rows() {
            for f in 0..plain.n_features() {
                assert_eq!(plain.bin(r, f), bundled.bin(r, f), "cell ({r},{f})");
            }
        }
        // Column visits agree too (row order, original coordinates).
        for f in 0..plain.n_features() {
            let mut a = vec![];
            let mut b = vec![];
            plain.for_each_in_col(f, |r, bin| a.push((r, bin)));
            bundled.for_each_in_col(f, |r, bin| b.push((r, bin)));
            assert_eq!(a, b, "feature {f}");
        }
    }

    #[test]
    fn with_mapper_reproduces_bundled_storage() {
        let train = one_hot_matrix();
        let q = QuantizedMatrix::from_matrix(&train, BinningConfig::default());
        assert!(q.is_bundled());
        let q2 = QuantizedMatrix::with_mapper(&train, q.mapper().clone());
        assert!(q2.is_bundled());
        assert_eq!(q.bundled_row_major().unwrap(), q2.bundled_row_major().unwrap());
    }

    #[test]
    fn uniformly_dense_sparse_data_stays_sparse() {
        // Every feature present in every row: zero-conflict bundling finds
        // nothing to fuse.
        let rows: Vec<Vec<(u32, f32)>> = (0..32)
            .map(|r| (0..16).map(|f| (f as u32, (r * f % 7) as f32)).collect())
            .collect();
        let m = FeatureMatrix::Sparse(CsrMatrix::from_rows(16, &rows));
        let q = QuantizedMatrix::from_matrix(&m, BinningConfig::default());
        assert!(!q.is_bundled());
        assert!(q.sparse_row(0).is_some());
    }

    #[test]
    #[should_panic(expected = "feature mismatch")]
    fn mapper_feature_mismatch_panics() {
        let q = QuantizedMatrix::from_matrix(&dense_matrix(), BinningConfig::default());
        let narrow = FeatureMatrix::Dense(DenseMatrix::from_vec(1, 1, vec![1.0]));
        let _ = QuantizedMatrix::with_mapper(&narrow, q.mapper().clone());
    }

    /// A taller dense matrix (crosses the blocked-transpose boundary) built
    /// twice: the blocked one-pass construction must match a brute-force
    /// reference transpose cell for cell.
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
                let (cfg, layout) = (BinningConfig::default(), LayoutOptions::uncompressed());
                let q = QuantizedMatrix::from_matrix_threads(matrix, cfg, layout, threads).0;
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

    /// Every stored byte, the u4 side-pack and the mapper (cuts, offsets,
    /// bundle map) agree.
    fn assert_same_storage(a: &QuantizedMatrix, b: &QuantizedMatrix) {
        assert_eq!(
            serde_json::to_string(a.mapper()).unwrap(),
            serde_json::to_string(b.mapper()).unwrap()
        );
        assert_eq!(a.storage_bytes(), b.storage_bytes());
        assert_eq!(a.dense_row_major(), b.dense_row_major());
        assert_eq!(a.bundled_row_major(), b.bundled_row_major());
        assert_eq!(a.sparse_csr(), b.sparse_csr());
        assert_eq!(a.n_storage_cols(), b.n_storage_cols());
        for c in 0..a.n_storage_cols() {
            assert_eq!(a.dense_col(c), b.dense_col(c), "column {c}");
            assert_eq!(a.bundled_col(c), b.bundled_col(c), "column {c}");
            assert_eq!(a.sparse_col(c), b.sparse_col(c), "column {c}");
        }
        assert_eq!(a.u4().is_some(), b.u4().is_some());
        if let (Some(pa), Some(pb)) = (a.u4(), b.u4()) {
            assert_eq!(pa.packed_rows(), pb.packed_rows());
            assert_eq!((pa.lanes(), pa.clean()), (pb.lanes(), pb.clean()));
            for f in 0..a.n_features() {
                assert_eq!(pa.packed_col(f), pb.packed_col(f), "packed column {f}");
            }
        }
    }

    /// Set-up at 1 thread and at N threads (more than there are tiles or
    /// features, too) builds the same matrix: u8 dense, u4-packed dense,
    /// sparse and bundled.
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
            one_hot_matrix(),
        ];
        let build = |m: &FeatureMatrix, threads| {
            let (cfg, layout) = (BinningConfig::default(), LayoutOptions::default());
            QuantizedMatrix::from_matrix_threads(m, cfg, layout, threads).0
        };
        let kinds: Vec<(bool, bool, bool)> = inputs
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
                (one.is_dense(), one.u4().is_some(), one.is_bundled())
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                (true, false, false),
                (true, true, false),
                (false, false, false),
                (false, false, true)
            ],
            "the four inputs must cover the four storages"
        );
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
        /// search writes: sparse set-up stores exactly what `with_mapper_opts`
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
            let (config, layout) = (BinningConfig::with_max_bins(max_bins), LayoutOptions::uncompressed());
            for threads in [1, 2, 7] {
                let q = QuantizedMatrix::from_matrix_threads(&matrix, config, layout, threads).0;
                prop_assert!(q.sparse_csr().is_some());
                let searched = QuantizedMatrix::with_mapper_opts(&matrix, q.mapper().clone(), layout);
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
            let q = QuantizedMatrix::from_matrix_opts(
                &m,
                BinningConfig::default(),
                LayoutOptions::uncompressed(),
            );
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
        assert_eq!(slab.is_bundled(), q.is_bundled());
        assert_eq!(slab.u4().is_some(), q.u4().is_some());
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
    fn chunk_codec_round_trips_dense_with_u4() {
        let q = QuantizedMatrix::from_matrix(&dense_matrix(), BinningConfig::default());
        assert!(q.u4().is_some());
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
    fn chunk_codec_round_trips_bundled() {
        let q = QuantizedMatrix::from_matrix(&one_hot_matrix(), BinningConfig::default());
        assert!(q.is_bundled());
        assert_chunk_round_trip(&q, 0..16);
        assert_chunk_round_trip(&q, 16..64);
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
        // kind, u4 flag, n_rows, nnz, then the four row offsets [0, 2, 3, 6].
        let indptr_at = |k: usize| 18 + 8 * k..18 + 8 * (k + 1);
        assert_eq!(blob[indptr_at(1)], 2u64.to_le_bytes());
        assert_eq!(blob[indptr_at(2)], 3u64.to_le_bytes());
        blob[indptr_at(1)].copy_from_slice(&3u64.to_le_bytes());
        blob[indptr_at(2)].copy_from_slice(&2u64.to_le_bytes());
        let err = QuantizedMatrix::decode_chunk(&blob.into(), q.mapper()).map(|_| ()).unwrap_err();
        assert!(err.contains("indptr"), "{err}");
    }

    #[test]
    fn route_bins_match_cell_lookups_across_storages() {
        for q in [
            QuantizedMatrix::from_matrix(&dense_matrix(), BinningConfig::default()),
            QuantizedMatrix::from_matrix(&sparse_matrix(), BinningConfig::default()),
            QuantizedMatrix::from_matrix(&one_hot_matrix(), BinningConfig::default()),
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
