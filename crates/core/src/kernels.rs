//! BuildHist scan kernels (Algorithm 2).
//!
//! Two access patterns, matching the two parallelism families of §II-B,
//! each reached through a [`QuantStore`] sweep:
//!
//! * [`row_scan_store`] — walk a set of rows, accumulating every feature in
//!   a feature block: the data-parallel kernel (writes span the whole
//!   feature block of one node — a private replica or an exclusively owned
//!   buffer). [`row_scan_root_store`] is its root fast path.
//! * [`col_scan_store`] — walk the columns of a feature block restricted to
//!   a node's rows and a bin block: the model-parallel kernel (writes
//!   confined to those features' bins of that node — a `16 × bin_blk ×
//!   feature_blk × node_blk` region, §IV-E). One chunk sweep serves the
//!   whole block: each chunk run scans every column of it in turn.
//!
//! Each is one [`sweep_chunks`] over one run body, `row_scan_run` or
//! `col_scan_run`. The trainer calls the run bodies alone, as cursors of its
//! schedule slots' sweeps (`trainer::drivers`); the store-level scans serve
//! the tests and the benchmark's kernel probes.
//!
//! Both are monomorphized over a gradient reader (MemBuf slice vs. global
//! gather, the "+MemBuf" ablation of Table V) so the per-cell gradient
//! dispatch disappears, and both index the mapper's flattened
//! [`harp_binning::BinMapper::bin_offsets`] table directly. The storage
//! kind alone picks the body — dense `u8` or sparse CSR/CSC, the store's
//! only two byte layouts (DESIGN.md §13) — and every body accumulates
//! through one function, `add_cell`: two IEEE `f64` adds per cell, on every
//! CPU. Each cell gets those adds in row-ascending order, so output is
//! bitwise identical to the retained scalar row reference (the `scalar` arm
//! of [`row_scan_store`]; the column reference lives in this module's
//! tests).
//!
//! The row scans write the lanes of their feature block, laid out as
//! [`crate::hist`] says: each feature's bins, then its *sink cell*. The
//! dense row body routes `MISSING_BIN` cells branch-free into their
//! feature's sink and zeroes the sinks before the buffer leaves the kernel
//! (see [`row_scan_store`] for the layout contract). Sparse storage has no
//! missing sentinel to route and never writes a sink.
//!
//! All kernels return the number of histogram accumulations performed so
//! drivers can report byte traffic and FLOPs to the profiler.

use crate::loss::GradPair;
use harp_binning::{seek_row, QuantizedMatrix, MISSING_BIN};
use std::ops::Range;
use std::sync::OnceLock;

/// Gradient source for a node scan: MemBuf slice or global gather.
#[derive(Clone, Copy)]
pub enum GradSource<'a> {
    /// Node-aligned `(g, h)` replica; index = position within the node.
    MemBuf(&'a [GradPair]),
    /// Global array indexed by row id (random access).
    Global(&'a [GradPair]),
}

impl<'a> GradSource<'a> {
    /// Picks MemBuf when the slice is non-empty, else the global array.
    pub fn select(membuf: &'a [GradPair], global: &'a [GradPair]) -> Self {
        if membuf.is_empty() {
            GradSource::Global(global)
        } else {
            GradSource::MemBuf(membuf)
        }
    }

    /// Narrows the source to the scan positions `positions`, whose row ids
    /// are re-based to start at `first_row`: a MemBuf replica is positional,
    /// so it keeps the positions' sub-slice; the global array is row-id
    /// indexed, so it is re-based at `first_row` (0 keeps the ids global).
    #[inline]
    pub(crate) fn narrow(self, positions: Range<usize>, first_row: usize) -> Self {
        match self {
            GradSource::MemBuf(m) => GradSource::MemBuf(&m[positions]),
            GradSource::Global(g) => GradSource::Global(&g[first_row..]),
        }
    }

    #[inline]
    fn get(&self, pos_in_node: usize, row: u32) -> GradPair {
        match self {
            GradSource::MemBuf(m) => m[pos_in_node],
            GradSource::Global(g) => g[row as usize],
        }
    }
}

/// Monomorphized gradient access: implementations resolve either by scan
/// position (MemBuf) or by row id (global gather) with no per-cell branch.
trait GradRead: Copy {
    /// The `(g, h)` pair of the `i`-th scanned row, whose row id is `row`.
    fn get(&self, i: usize, row: u32) -> GradPair;
    /// Hints the upcoming access; no-op where the walk is sequential.
    fn prefetch(&self, i: usize, row: u32);
}

#[derive(Clone, Copy)]
struct MemBufRead<'a>(&'a [GradPair]);

impl GradRead for MemBufRead<'_> {
    #[inline(always)]
    fn get(&self, i: usize, _row: u32) -> GradPair {
        self.0[i]
    }

    #[inline(always)]
    fn prefetch(&self, _i: usize, _row: u32) {
        // Sequential walk; the hardware prefetcher covers it.
    }
}

#[derive(Clone, Copy)]
struct GlobalRead<'a>(&'a [GradPair]);

impl GradRead for GlobalRead<'_> {
    #[inline(always)]
    fn get(&self, _i: usize, row: u32) -> GradPair {
        self.0[row as usize]
    }

    #[inline(always)]
    fn prefetch(&self, _i: usize, row: u32) {
        if let Some(p) = self.0.get(row as usize) {
            prefetch_read(std::ptr::from_ref(p));
        }
    }
}

/// Monomorphized row-id access: an explicit id slice or a contiguous range
/// (the root fast path, where the id is the scan position itself).
trait RowSet: Copy {
    /// True when row `i` is `base + i`: accesses keyed by the row id walk
    /// memory sequentially, so software prefetch is pure overhead.
    const SEQUENTIAL: bool;
    fn len(&self) -> usize;
    fn get(&self, i: usize) -> u32;
}

#[derive(Clone, Copy)]
struct SliceRows<'a>(&'a [u32]);

impl RowSet for SliceRows<'_> {
    const SEQUENTIAL: bool = false;

    #[inline(always)]
    fn len(&self) -> usize {
        self.0.len()
    }

    #[inline(always)]
    fn get(&self, i: usize) -> u32 {
        self.0[i]
    }
}

#[derive(Clone, Copy)]
struct ContigRows {
    base: u32,
    len: usize,
}

impl RowSet for ContigRows {
    const SEQUENTIAL: bool = true;

    #[inline(always)]
    fn len(&self) -> usize {
        self.len
    }

    #[inline(always)]
    fn get(&self, i: usize) -> u32 {
        self.base + i as u32
    }
}

/// How many rows ahead the dense scan prefetches bin rows and gathered
/// gradients (two unrolled quads).
const PREFETCH_ROWS: usize = 8;

/// Software prefetch into all cache levels; portable no-op off x86-64.
#[inline(always)]
fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it never faults, even on bad addresses.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Adds `gh` to the `(Σg, Σh)` cell at lanes `cell` and `cell + 1` of the
/// buffer behind `hp`: two IEEE `f64` adds, which LLVM emits as one 128-bit
/// `addpd`. Every BuildHist body accumulates through it.
///
/// # Safety
/// `cell + 1` must be in bounds of the buffer behind `hp`.
#[inline(always)]
unsafe fn add_cell(hp: *mut f64, cell: usize, gh: (f64, f64)) {
    // SAFETY: the caller guarantees `cell..cell + 2` in bounds.
    unsafe {
        *hp.add(cell) += gh.0;
        *hp.add(cell + 1) += gh.1;
    }
}

/// A row's `(g, h)` pair widened to the histogram's `f64`.
#[inline(always)]
fn widen([g, h]: GradPair) -> (f64, f64) {
    (f64::from(g), f64::from(h))
}

// ---------------------------------------------------------------------------
// CPU vector tier (reported, not dispatched on)
// ---------------------------------------------------------------------------

/// The CPU's vector tier, detected once: `Avx2` where the CPU has AVX2.
/// Set-up's `BinLookup::bin_run` takes its vector body on the same test;
/// BuildHist does not dispatch on it — its bodies accumulate one way on
/// every CPU (DESIGN.md §13). The ledger's `simd_tier` entry records it, so
/// a run says which set-up body it had.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// No AVX2 (any CPU off x86-64, or one without it).
    Scalar = 0,
    /// `is_x86_feature_detected!("avx2")` holds.
    Avx2 = 2,
}

impl SimdTier {
    /// Stable lowercase name for ledger/report surfaces.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
        }
    }

    /// Ledger encoding: 0 = scalar, 2 = avx2. The values are the explicit
    /// discriminants, fixed so that ledgers of different builds compare.
    pub fn as_u64(self) -> u64 {
        self as u64
    }
}

/// This CPU's [`SimdTier`], cached after the first call.
pub fn simd_tier() -> SimdTier {
    static DETECTED: OnceLock<SimdTier> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return SimdTier::Avx2;
        }
        SimdTier::Scalar
    })
}

// ---------------------------------------------------------------------------
// Row scan
// ---------------------------------------------------------------------------

/// Accumulates `rows` × features `f_range` into `hist` (the lanes of
/// `f_range`). Returns the accumulation count (missing cells excluded). The
/// layout contract is [`row_scan_store`]'s.
fn row_scan(
    qm: &QuantizedMatrix,
    rows: &[u32],
    grads: GradSource<'_>,
    f_range: Range<usize>,
    hist: &mut [f64],
) -> u64 {
    match grads {
        GradSource::MemBuf(m) => {
            assert!(m.len() >= rows.len(), "MemBuf shorter than the row set");
            row_scan_impl(qm, SliceRows(rows), MemBufRead(m), f_range, hist)
        }
        GradSource::Global(g) => row_scan_impl(qm, SliceRows(rows), GlobalRead(g), f_range, hist),
    }
}

/// [`row_scan`] over the contiguous rows `row_range` — the root fast path,
/// where the row set is `0..n` (or any span of it) and the MemBuf position
/// equals the row id, so the row-id indirection drops out entirely.
///
/// A `GradSource::MemBuf` slice must be aligned to `row_range` (entry `i`
/// belongs to row `row_range.start + i`), which at the root it is.
fn row_scan_root(
    qm: &QuantizedMatrix,
    row_range: Range<usize>,
    grads: GradSource<'_>,
    f_range: Range<usize>,
    hist: &mut [f64],
) -> u64 {
    assert!(row_range.end <= qm.n_rows(), "row range out of bounds");
    let rows = ContigRows { base: row_range.start as u32, len: row_range.len() };
    match grads {
        GradSource::MemBuf(m) => {
            assert!(m.len() >= rows.len, "MemBuf shorter than the row range");
            row_scan_impl(qm, rows, MemBufRead(m), f_range, hist)
        }
        GradSource::Global(g) => row_scan_impl(qm, rows, GlobalRead(g), f_range, hist),
    }
}

/// The storage picks the body: dense or sparse.
fn row_scan_impl<R: RowSet, G: GradRead>(
    qm: &QuantizedMatrix,
    rows: R,
    grads: G,
    f_range: Range<usize>,
    hist: &mut [f64],
) -> u64 {
    assert!(f_range.end <= qm.n_features(), "feature range out of bounds");
    // The bodies' unchecked writes rest on this: every cell they address
    // is a cell of `f_range`'s lanes.
    let lanes = crate::hist::lanes(qm.mapper(), f_range.clone());
    assert_eq!(hist.len(), lanes.len(), "a row scan writes exactly its feature block's lanes");
    if let Some(row_major) = qm.dense_row_major() {
        return dense_row_scan(qm, row_major, rows, grads, f_range, hist);
    }
    sparse_row_scan(qm, rows, grads, f_range, hist)
}

/// The specialized dense body: 4-row unroll, feature-outer within each quad
/// (same-cell accumulation order stays row-ascending, as in the scalar
/// scan), software prefetch [`PREFETCH_ROWS`] ahead, and branch-free
/// missing-bin routing into each feature's sink cell.
fn dense_row_scan<R: RowSet, G: GradRead>(
    qm: &QuantizedMatrix,
    row_major: &[u8],
    rows: R,
    grads: G,
    f_range: Range<usize>,
    hist: &mut [f64],
) -> u64 {
    let m = qm.n_features();
    let offsets = qm.mapper().bin_offsets();
    // `hist` is the lanes of `f_range`, feature after feature: each one's
    // `n_bins` bin cells, then its sink. A walk over `block.windows(2)`
    // meets each feature's bin offset next to the following one's.
    let block = &offsets[f_range.start..=f_range.end];
    let n = rows.len();
    let hp = hist.as_mut_ptr();

    // Per-cell safety: a stored bin is < n_bins(f) <= 255 or MISSING_BIN =
    // 255 (the QuantizedMatrix invariant), so `min(b, n_bins)` is bin b or,
    // for a missing cell, the sink — one of the `n_bins + 1` cells at
    // `cells_f`, which lie in `hist` (row_scan_impl asserts its length). The
    // same compare counts the cell: `b < n_bins` exactly when it is present.
    #[inline(always)]
    unsafe fn acc(cells_f: *mut f64, n_bins: u32, b: u8, gh: (f64, f64)) -> u64 {
        let b = u32::from(b);
        // SAFETY: cell bounds per the invariant above.
        unsafe { add_cell(cells_f, b.min(n_bins) as usize * 2, gh) };
        u64::from(b < n_bins)
    }

    let row_bins = |row: u32| -> &[u8] { &row_major[row as usize * m..row as usize * m + m] };
    let mut cells = 0u64;
    let mut i = 0usize;
    while i + 4 <= n {
        if i + PREFETCH_ROWS + 4 <= n {
            for d in 0..4 {
                let r = rows.get(i + PREFETCH_ROWS + d);
                prefetch_read(&row_major[r as usize * m + f_range.start]);
                grads.prefetch(i + PREFETCH_ROWS + d, r);
            }
        }
        let (r0, r1, r2, r3) = (rows.get(i), rows.get(i + 1), rows.get(i + 2), rows.get(i + 3));
        let (gh0, gh1) = (widen(grads.get(i, r0)), widen(grads.get(i + 1, r1)));
        let (gh2, gh3) = (widen(grads.get(i + 2, r2)), widen(grads.get(i + 3, r3)));
        let (b0, b1, b2, b3) = (row_bins(r0), row_bins(r1), row_bins(r2), row_bins(r3));
        let mut cells_f = hp;
        for (f, w) in f_range.clone().zip(block.windows(2)) {
            let n_bins = w[1] - w[0];
            // SAFETY: f < f_range.end <= m bounds every slice; `cells_f` is
            // feature f's first cell (one past `hist` after the last
            // feature); cell indices per the invariant above.
            unsafe {
                cells += acc(cells_f, n_bins, *b0.get_unchecked(f), gh0);
                cells += acc(cells_f, n_bins, *b1.get_unchecked(f), gh1);
                cells += acc(cells_f, n_bins, *b2.get_unchecked(f), gh2);
                cells += acc(cells_f, n_bins, *b3.get_unchecked(f), gh3);
                cells_f = cells_f.add(n_bins as usize * 2 + 2);
            }
        }
        i += 4;
    }
    while i < n {
        let r = rows.get(i);
        let gh = widen(grads.get(i, r));
        let bins = row_bins(r);
        let mut cells_f = hp;
        for (f, w) in f_range.clone().zip(block.windows(2)) {
            let n_bins = w[1] - w[0];
            // SAFETY: as in the unrolled body.
            unsafe {
                cells += acc(cells_f, n_bins, *bins.get_unchecked(f), gh);
                cells_f = cells_f.add(n_bins as usize * 2 + 2);
            }
        }
        i += 1;
    }
    // Strip the sinks: missing mass never leaves the kernel, keeping the
    // buffer bitwise identical to the scalar reference.
    let base = block[0] as usize + f_range.start;
    for f in f_range {
        let sink = (offsets[f + 1] as usize + f - base) * 2;
        hist[sink..sink + 2].fill(0.0);
    }
    cells
}

/// Bin capacity of one internal pass of the sparse scan (≈ 1.5 MiB of
/// `(Σg, Σh)` cells, sized to sit inside a 2 MiB L2 with headroom for the
/// entry stream): histograms wider than this are built in feature blocks
/// small enough to stay cache-resident, instead of write-thrashing the
/// whole multi-MB buffer row by row.
const SPARSE_PASS_BINS: u32 = 96 * 1024;

/// The sparse CSR body: per-row feature-range restriction and an
/// accumulate that steps two entries at a time. The random hist write is
/// the bound. When `f_range` spans more than [`SPARSE_PASS_BINS`] bins, the
/// scan runs in several feature-block passes over the row set, each
/// touching only a cache-sized slice of the histogram. Distinct cells
/// commute, and within one cell the row order is unchanged, so the result
/// stays bitwise identical to the single-pass scalar reference.
fn sparse_row_scan<R: RowSet, G: GradRead>(
    qm: &QuantizedMatrix,
    rows: R,
    grads: G,
    f_range: Range<usize>,
    hist: &mut [f64],
) -> u64 {
    let offsets = qm.mapper().bin_offsets();
    let m = qm.n_features();
    let n = rows.len();
    let hp = hist.as_mut_ptr();
    let mut cells = 0u64;
    // `hist` holds the lanes of `f_range`: cell `offsets[c] + c + b - base`
    // is column c's bin b.
    let base = offsets[f_range.start] as usize + f_range.start;

    // SAFETY contract: k < cols.len(); f_range.start <= cols[k] <
    // f_range.end and bins[k] < n_bins(cols[k]) (QuantizedMatrix
    // invariant), so the returned lane is in the lanes of `f_range`, which
    // `hist` is (row_scan_impl asserts its length).
    #[inline(always)]
    unsafe fn cell_at(offsets: &[u32], base: usize, cols: &[u32], bins: &[u8], k: usize) -> usize {
        // SAFETY: per the contract above.
        unsafe {
            let c = *cols.get_unchecked(k) as usize;
            (*offsets.get_unchecked(c) as usize + c + *bins.get_unchecked(k) as usize - base) * 2
        }
    }

    // Accumulates one row slice `[lo, hi)` for both walks below. It steps
    // two entries at a time, resolving both cells before either add: a
    // one-entry loop read the wide-histogram row-scan probes slower by
    // median (EXPERIMENTS.md, "One cell accumulate").
    //
    // SAFETY contract: `lo <= hi <= cols.len()`, and every entry of the
    // slice meets `cell_at`'s contract.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn accumulate(
        offsets: &[u32],
        base: usize,
        cols: &[u32],
        bins: &[u8],
        lo: usize,
        hi: usize,
        gh: (f64, f64),
        hp: *mut f64,
    ) {
        // SAFETY: per the contract above.
        unsafe {
            let mut k = lo;
            while k + 2 <= hi {
                let a = cell_at(offsets, base, cols, bins, k);
                let b = cell_at(offsets, base, cols, bins, k + 1);
                add_cell(hp, a, gh);
                add_cell(hp, b, gh);
                k += 2;
            }
            if k < hi {
                add_cell(hp, cell_at(offsets, base, cols, bins, k), gh);
            }
        }
    }

    let span = offsets[f_range.end] - offsets[f_range.start];
    if span > SPARSE_PASS_BINS && n > 1 {
        // Cache-blocked passes. Each row keeps an absolute cursor into the
        // shared CSR entry arrays; feature blocks are visited in ascending
        // order, so every pass resumes a row where the previous pass
        // stopped and finds its end with a short linear walk over lines
        // the accumulate reads anyway — no per-pass binary searches. The
        // widened `(g, h)` pairs and per-row entry bounds are resolved once
        // up front so the per-(row, pass) loop is three sequential scratch
        // reads plus the walk.
        let (indptr, all_cols, all_bins) = qm.sparse_csr().expect("sparse storage");
        let mut cursor: Vec<usize> = Vec::with_capacity(n);
        let mut ends: Vec<usize> = Vec::with_capacity(n);
        let mut ghs: Vec<(f64, f64)> = Vec::with_capacity(n);
        for i in 0..n {
            let row = rows.get(i);
            let (s, e) = (indptr[row as usize], indptr[row as usize + 1]);
            let lo = if f_range.start == 0 {
                s
            } else {
                s + all_cols[s..e].partition_point(|&c| (c as usize) < f_range.start)
            };
            let end = if f_range.end == m {
                e
            } else {
                s + all_cols[s..e].partition_point(|&c| (c as usize) < f_range.end)
            };
            cursor.push(lo);
            ends.push(end);
            ghs.push(widen(grads.get(i, row)));
        }
        let mut fs = f_range.start;
        while fs < f_range.end {
            // Advance the block edge until its bin span would exceed the
            // pass budget (always at least one feature).
            let mut fe = fs + 1;
            while fe < f_range.end && offsets[fe + 1] - offsets[fs] <= SPARSE_PASS_BINS {
                fe += 1;
            }
            let fe_col = fe as u32;
            // SAFETY: i < n bounds the scratch reads; the walk keeps
            // k < end <= all_cols.len(); accumulate per its contract.
            unsafe {
                for i in 0..n {
                    let lo = *cursor.get_unchecked(i);
                    let end = *ends.get_unchecked(i);
                    let mut k = lo;
                    while k < end && *all_cols.get_unchecked(k) < fe_col {
                        k += 1;
                    }
                    let gh = *ghs.get_unchecked(i);
                    accumulate(offsets, base, all_cols, all_bins, lo, k, gh, hp);
                    *cursor.get_unchecked_mut(i) = k;
                    cells += (k - lo) as u64;
                }
            }
            fs = fe;
        }
        return cells;
    }

    let full = f_range.start == 0 && f_range.end == m;
    for i in 0..n {
        let row = rows.get(i);
        if i + 1 < n {
            grads.prefetch(i + 1, rows.get(i + 1));
        }
        let gh = widen(grads.get(i, row));
        let (cols, bins) = qm.sparse_row(row as usize).expect("sparse storage");
        // Restrict to the feature block; row entries are sorted by column.
        let (lo, hi) = if full {
            (0, cols.len())
        } else {
            (
                cols.partition_point(|&c| (c as usize) < f_range.start),
                cols.partition_point(|&c| (c as usize) < f_range.end),
            )
        };
        // SAFETY: accumulate per its contract (lo <= hi <= cols.len() from
        // partition_point).
        unsafe { accumulate(offsets, base, cols, bins, lo, hi, gh, hp) };
        cells += (hi - lo) as u64;
    }
    cells
}

/// The scalar row-scan reference: one `match` per gradient read, one
/// [`crate::hist::lane`] call and one missing-bin branch per cell, so the
/// specialized kernels have a bitwise ground truth, which
/// [`row_scan_store`]'s `scalar` arm runs. Writes no sink cell. Handles
/// both storage kinds through the slow accessors; `hist` is the lanes of
/// `f_range`, as for every row scan.
pub(crate) fn row_scan_scalar(
    qm: &QuantizedMatrix,
    rows: &[u32],
    grads: GradSource<'_>,
    f_range: Range<usize>,
    hist: &mut [f64],
) -> u64 {
    let mapper = qm.mapper();
    let base = crate::hist::lane(mapper, f_range.start);
    let cell_of = |f: usize, b: u8| crate::hist::lane(mapper, f) - base + usize::from(b) * 2;
    let mut cells = 0u64;
    if qm.is_dense() {
        for (i, &row) in rows.iter().enumerate() {
            let [g, h] = grads.get(i, row);
            let bins = qm.dense_row(row as usize).expect("dense storage");
            for f in f_range.clone() {
                let b = bins[f];
                if b == MISSING_BIN {
                    continue;
                }
                let cell = cell_of(f, b);
                hist[cell] += f64::from(g);
                hist[cell + 1] += f64::from(h);
                cells += 1;
            }
        }
    } else {
        let full = f_range.start == 0 && f_range.end == qm.n_features();
        for (i, &row) in rows.iter().enumerate() {
            let [g, h] = grads.get(i, row);
            let (cols, bins) = qm.sparse_row(row as usize).expect("sparse storage");
            let (lo, hi) = if full {
                (0, cols.len())
            } else {
                (
                    cols.partition_point(|&c| (c as usize) < f_range.start),
                    cols.partition_point(|&c| (c as usize) < f_range.end),
                )
            };
            for k in lo..hi {
                let f = cols[k] as usize;
                let cell = cell_of(f, bins[k]);
                hist[cell] += f64::from(g);
                hist[cell + 1] += f64::from(h);
                cells += 1;
            }
        }
    }
    cells
}

// ---------------------------------------------------------------------------
// Column scan
// ---------------------------------------------------------------------------

/// Accumulates feature `f` over `rows` into `hist` (that feature's bins
/// only: `n_bins * 2` lanes), restricted to the bins in `bins`. Returns the
/// accumulation count.
///
/// `rows` must be ascending (guaranteed by the stable partition). A
/// contiguous row set (detected: `last - first + 1 == len`, e.g. all rows,
/// or one side of a contiguous partition) takes a sequential fast path with
/// no per-row prefetch and, for sparse storage, a direct CSC span walk.
fn col_scan(
    qm: &QuantizedMatrix,
    f: usize,
    rows: &[u32],
    grads: GradSource<'_>,
    bins: Range<usize>,
    hist: &mut [f64],
) -> u64 {
    if rows.is_empty() {
        return 0;
    }
    if let GradSource::MemBuf(m) = grads {
        assert!(m.len() >= rows.len(), "MemBuf shorter than the row set");
    }
    let (contig, sliced) = (ContigRows { base: rows[0], len: rows.len() }, SliceRows(rows));
    match (grads, (rows[rows.len() - 1] - rows[0]) as usize + 1 == rows.len()) {
        (GradSource::MemBuf(m), true) => col_scan_body(qm, f, contig, MemBufRead(m), bins, hist),
        (GradSource::MemBuf(m), false) => col_scan_body(qm, f, sliced, MemBufRead(m), bins, hist),
        (GradSource::Global(g), true) => col_scan_body(qm, f, contig, GlobalRead(g), bins, hist),
        (GradSource::Global(g), false) => col_scan_body(qm, f, sliced, GlobalRead(g), bins, hist),
    }
}

/// The column-scan body. Kept out of line so that each ⟨row set, gradient
/// source⟩ instantiation is a function of its own: inlined, all four share
/// `col_scan`'s code, and the single-thread column probe ran ≈ 40 % slower
/// with the same instructions (EXPERIMENTS.md).
#[inline(never)]
fn col_scan_body<R: RowSet, G: GradRead>(
    qm: &QuantizedMatrix,
    f: usize,
    rows: R,
    grads: G,
    bin_range: Range<usize>,
    hist_f: &mut [f64],
) -> u64 {
    let n = rows.len();
    if n == 0 {
        return 0;
    }
    let n_bins = qm.mapper().n_bins(f) as usize;
    let full_bins = bin_range.start == 0 && bin_range.end >= n_bins;
    assert!(hist_f.len() >= n_bins * 2, "hist_f shorter than the feature's bins");
    let hp = hist_f.as_mut_ptr();
    let mut cells = 0u64;

    if let Some(col) = qm.dense_col(f) {
        for i in 0..n {
            let row = rows.get(i);
            if !R::SEQUENTIAL && i + PREFETCH_ROWS < n {
                prefetch_read(&col[rows.get(i + PREFETCH_ROWS) as usize]);
            }
            let b = col[row as usize];
            if b == MISSING_BIN {
                continue;
            }
            if !full_bins && !bin_range.contains(&(b as usize)) {
                continue;
            }
            let gh = widen(grads.get(i, row));
            // SAFETY: b < n_bins (QuantizedMatrix invariant).
            unsafe { add_cell(hp, usize::from(b) * 2, gh) };
            cells += 1;
        }
        return cells;
    }
    // Sparse CSC.
    let (col_rows, col_bins) = qm.sparse_col(f).expect("sparse storage");
    if R::SEQUENTIAL {
        // Contiguous node rows: the matching entries are one CSC span —
        // walk it directly instead of merging row-by-row.
        let base = rows.get(0);
        let end = base + n as u32;
        let k0 = col_rows.partition_point(|&r| r < base);
        let k1 = k0 + col_rows[k0..].partition_point(|&r| r < end);
        for k in k0..k1 {
            let row = col_rows[k];
            let b = col_bins[k] as usize;
            if full_bins || bin_range.contains(&b) {
                let gh = widen(grads.get((row - base) as usize, row));
                // SAFETY: b < n_bins (QuantizedMatrix invariant).
                unsafe { add_cell(hp, b * 2, gh) };
                cells += 1;
            }
        }
        return cells;
    }
    // General row sets: merge-walk the CSC column (rows ascending) with the
    // node's rows (also ascending), galloping over long gaps.
    let mut k = 0usize;
    for i in 0..n {
        let row = rows.get(i);
        k = seek_row(col_rows, k, row);
        if k == col_rows.len() {
            break;
        }
        if col_rows[k] == row {
            let b = col_bins[k];
            if full_bins || bin_range.contains(&(b as usize)) {
                let gh = widen(grads.get(i, row));
                // SAFETY: b < n_bins (QuantizedMatrix invariant).
                unsafe { add_cell(hp, usize::from(b) * 2, gh) };
                cells += 1;
            }
            k += 1;
        }
    }
    cells
}

// ---------------------------------------------------------------------------
// Store-mediated scans (out-of-core chunk dispatch)
// ---------------------------------------------------------------------------

use harp_binning::{sweep_chunks, ChunkRun, QuantStore, Rows};

/// Row-scans one run of a chunk sweep — where every store-mediated row scan
/// meets a kernel. `grads` belongs to the run's whole cursor and is narrowed
/// to the run (its positions in the cursor, its rows re-based at the chunk
/// start, so chunk-local row ids index it). A list run takes [`row_scan`], a
/// range run the root fast path [`row_scan_root`].
pub(crate) fn row_scan_run(
    run: &ChunkRun<'_>,
    grads: GradSource<'_>,
    f_range: Range<usize>,
    hist: &mut [f64],
) -> u64 {
    let grads = grads.narrow(run.pos.clone(), run.start);
    match &run.rows {
        Rows::List(rows) => row_scan(run.slab, rows, grads, f_range, hist),
        Rows::Range(rows) => row_scan_root(run.slab, rows.clone(), grads, f_range, hist),
    }
}

/// Accumulates `rows` × features `f_range` into `hist`, the lanes of
/// `f_range` in a node's histogram, through a [`QuantStore`]: a
/// [`sweep_chunks`] of the ascending row list, whose chunk-ascending runs
/// preserve the per-cell row-ascending `f64` accumulation order, so the
/// result is bitwise identical to a monolithic scan — which is what the
/// sweep's single step over an in-memory store is. Returns the
/// accumulation count (missing cells excluded). With `scalar`, every run
/// takes the scalar reference scan instead, for callers that time or check
/// the specialized path against it; training always passes `false`.
///
/// # Layout contract
/// `hist` is exactly [`crate::hist::lanes`]`(f_range)` of a node's
/// histogram, rebased to 0 (for `0..n_features`, the whole buffer): each
/// feature's bin cells followed by its zeroed `(Σg, Σh)` sink cell. On dense
/// storage a missing cell accumulates branch-free into its feature's sink,
/// and the kernel re-zeroes the sinks of `f_range` before returning, so the
/// bin cells — and the sinks — leave exactly as the scalar reference
/// produces them. Sparse storage has no absent entries to route and never
/// writes a sink.
pub fn row_scan_store(
    store: &dyn QuantStore,
    rows: &[u32],
    grads: GradSource<'_>,
    f_range: Range<usize>,
    hist: &mut [f64],
    scalar: bool,
) -> u64 {
    let mut cells = 0u64;
    sweep_chunks(
        store,
        &[Rows::List(rows)],
        |_| {},
        |run| {
            cells += if scalar {
                let grads = grads.narrow(run.pos.clone(), run.start);
                row_scan_scalar(run.slab, run.rows.list(), grads, f_range.clone(), hist)
            } else {
                row_scan_run(run, grads, f_range.clone(), hist)
            };
        },
    );
    cells
}

/// [`row_scan_store`] over the contiguous rows `row_range` — the root fast
/// path, where the row set is `0..n` (or any span of it), with the same
/// layout contract: contiguous global
/// rows map to contiguous chunk-local rows, so each chunk run scans its
/// rows with no row-id list at all. A `GradSource::MemBuf` slice must be
/// aligned to `row_range` (entry `i` belongs to row `row_range.start + i`),
/// which at the root it is.
pub fn row_scan_root_store(
    store: &dyn QuantStore,
    row_range: Range<usize>,
    grads: GradSource<'_>,
    f_range: Range<usize>,
    hist: &mut [f64],
) -> u64 {
    let mut cells = 0u64;
    sweep_chunks(
        store,
        &[Rows::Range(row_range)],
        |_| {},
        |run| cells += row_scan_run(run, grads, f_range.clone(), hist),
    );
    cells
}

/// Column-scans one run of a chunk sweep: each feature of `f_range` with a
/// bin in `bins` in turn, over the run's rows — where every store-mediated
/// column scan meets a kernel. `grads` belongs to the run's whole cursor, as
/// for [`row_scan_run`]; `hist` is exactly [`crate::hist::lanes`]`(f_range)`,
/// rebased to 0.
pub(crate) fn col_scan_run(
    run: &ChunkRun<'_>,
    grads: GradSource<'_>,
    f_range: Range<usize>,
    bins: Range<usize>,
    hist: &mut [f64],
) -> u64 {
    let mapper = run.slab.mapper();
    let lanes = crate::hist::lanes(mapper, f_range.clone());
    assert_eq!(hist.len(), lanes.len(), "hist is the lanes of f_range");
    let (rows, grads) = (run.rows.list(), grads.narrow(run.pos.clone(), run.start));
    let mut cells = 0u64;
    // A feature with no bin in `bins` adds nothing.
    for f in f_range.filter(|&f| bins.start < bins.end.min(mapper.n_bins(f) as usize)) {
        let base = crate::hist::lane(mapper, f) - lanes.start;
        let hist_f = &mut hist[base..base + mapper.n_bins(f) as usize * 2];
        cells += col_scan(run.slab, f, rows, grads, bins.clone(), hist_f);
    }
    cells
}

/// Accumulates `rows` × features `f_range` into `hist`, restricted to the
/// bins in `bins` (`0..usize::MAX`: every bin), through a [`QuantStore`]: one
/// [`sweep_chunks`] of the ascending row list whose every run is a
/// [`col_scan_run`], so a chunk is pinned once however many columns the call
/// covers. Every cell still adds its rows in ascending order (the runs
/// ascend), so the result is bitwise identical to a monolithic scan. Returns
/// the accumulation count. A contiguous node row set stays contiguous within
/// every chunk run, so the per-chunk scans keep the sequential fast paths.
///
/// `hist` is exactly [`crate::hist::lanes`]`(f_range)` of a node's
/// histogram, rebased to 0, as for [`row_scan_store`]; a column scan skips
/// missing cells and never writes a sink.
pub fn col_scan_store(
    store: &dyn QuantStore,
    rows: &[u32],
    grads: GradSource<'_>,
    f_range: Range<usize>,
    bins: Range<usize>,
    hist: &mut [f64],
) -> u64 {
    let mut cells = 0u64;
    sweep_chunks(
        store,
        &[Rows::List(rows)],
        |_| {},
        |run| cells += col_scan_run(run, grads, f_range.clone(), bins.clone(), hist),
    );
    cells
}

/// Estimated bytes moved per accumulation, for the memory-bound proxy:
/// 16 B GHSum read + 16 B write + 1 B bin + 8 B gradient.
pub const BYTES_PER_CELL: u64 = 41;

/// FLOPs per accumulation (one add each for g and h).
pub(crate) const FLOPS_PER_CELL: u64 = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use harp_binning::BinningConfig;
    use harp_data::{CsrMatrix, DenseMatrix, FeatureMatrix};
    use proptest::prelude::*;

    /// The scalar column-scan reference (per-cell gradient `match`, linear
    /// merge cursor) that the column scan is held to bit for bit; see
    /// [`row_scan_scalar`].
    fn col_scan_scalar(
        qm: &QuantizedMatrix,
        f: usize,
        rows: &[u32],
        grads: GradSource<'_>,
        bin_range: Range<usize>,
        hist_f: &mut [f64],
    ) -> u64 {
        let mut cells = 0u64;
        let full_bins = bin_range.start == 0 && bin_range.end >= qm.mapper().n_bins(f) as usize;
        if let Some(col) = qm.dense_col(f) {
            for (i, &row) in rows.iter().enumerate() {
                let b = col[row as usize];
                if b == MISSING_BIN {
                    continue;
                }
                if !full_bins && !bin_range.contains(&(b as usize)) {
                    continue;
                }
                let [g, h] = grads.get(i, row);
                let cell = usize::from(b) * 2;
                hist_f[cell] += f64::from(g);
                hist_f[cell + 1] += f64::from(h);
                cells += 1;
            }
        } else {
            let (col_rows, col_bins) = qm.sparse_col(f).expect("sparse storage");
            let mut k = 0usize;
            for (i, &row) in rows.iter().enumerate() {
                while k < col_rows.len() && col_rows[k] < row {
                    k += 1;
                }
                if k == col_rows.len() {
                    break;
                }
                if col_rows[k] == row {
                    let b = col_bins[k];
                    if full_bins || bin_range.contains(&(b as usize)) {
                        let [g, h] = grads.get(i, row);
                        let cell = usize::from(b) * 2;
                        hist_f[cell] += f64::from(g);
                        hist_f[cell + 1] += f64::from(h);
                        cells += 1;
                    }
                    k += 1;
                }
            }
        }
        cells
    }

    fn dense_matrix() -> FeatureMatrix {
        // 6 rows x 3 features; feature 1 has two missing cells.
        FeatureMatrix::Dense(DenseMatrix::from_vec(
            6,
            3,
            vec![
                0.0,
                5.0,
                1.0, //
                1.0,
                f32::NAN,
                1.0, //
                2.0,
                6.0,
                0.0, //
                0.0,
                5.0,
                0.0, //
                1.0,
                f32::NAN,
                1.0, //
                2.0,
                7.0,
                0.0,
            ],
        ))
    }

    fn dense_qm() -> QuantizedMatrix {
        QuantizedMatrix::from_matrix(&dense_matrix(), BinningConfig::default())
    }

    fn sparse_qm() -> QuantizedMatrix {
        let m = FeatureMatrix::Sparse(CsrMatrix::from_rows(
            3,
            &[vec![(0, 1.0), (2, 4.0)], vec![(1, 2.0)], vec![(0, 2.0), (1, 3.0)], vec![(2, 5.0)]],
        ));
        QuantizedMatrix::from_matrix(&m, BinningConfig::default())
    }

    fn all_qms() -> Vec<QuantizedMatrix> {
        vec![dense_qm(), sparse_qm()]
    }

    fn grads(n: usize) -> Vec<GradPair> {
        (0..n).map(|i| [1.0 + i as f32, 0.5]).collect()
    }

    /// A whole node histogram: every feature's bins and its sink.
    fn hist_for(qm: &QuantizedMatrix) -> Vec<f64> {
        vec![0.0; crate::hist::hist_width_for(qm)]
    }

    /// The lanes of `features` in `hist`, which a row scan of them takes.
    fn block<'a>(
        qm: &QuantizedMatrix,
        hist: &'a mut [f64],
        features: Range<usize>,
    ) -> &'a mut [f64] {
        &mut hist[crate::hist::lanes(qm.mapper(), features)]
    }

    /// Reference accumulation via the slow accessor (sinks zero).
    fn reference(
        qm: &QuantizedMatrix,
        rows: &[u32],
        g: &[GradPair],
        f_range: Range<usize>,
    ) -> Vec<f64> {
        let mut hist = hist_for(qm);
        for &row in rows {
            for f in f_range.clone() {
                if let Some(b) = qm.bin(row as usize, f) {
                    let cell = crate::hist::lane(qm.mapper(), f) + usize::from(b) * 2;
                    hist[cell] += f64::from(g[row as usize][0]);
                    hist[cell + 1] += f64::from(g[row as usize][1]);
                }
            }
        }
        hist
    }

    #[test]
    fn row_scan_dense_matches_reference() {
        let qm = dense_qm();
        let g = grads(6);
        let rows: Vec<u32> = vec![0, 2, 3, 5];
        let mut hist = hist_for(&qm);
        let cells = row_scan(&qm, &rows, GradSource::Global(&g), 0..3, &mut hist);
        assert_eq!(hist, reference(&qm, &rows, &g, 0..3));
        assert_eq!(cells, 12); // 4 rows x 3 features, none missing for these rows
    }

    #[test]
    fn row_scan_skips_missing() {
        let qm = dense_qm();
        let g = grads(6);
        let rows: Vec<u32> = vec![1, 4]; // rows with a missing feature-1 cell
        let mut hist = hist_for(&qm);
        let cells = row_scan(&qm, &rows, GradSource::Global(&g), 0..3, &mut hist);
        assert_eq!(cells, 4);
        assert_eq!(hist, reference(&qm, &rows, &g, 0..3));
    }

    #[test]
    fn row_scan_strips_sink_cells() {
        let qm = dense_qm();
        let g = grads(6);
        let rows: Vec<u32> = (0..6).collect();
        let mut hist = hist_for(&qm);
        row_scan(&qm, &rows, GradSource::Global(&g), 0..3, &mut hist);
        for f in 0..3 {
            // A feature's sink is the last cell of its lanes.
            let sink = crate::hist::lane(qm.mapper(), f + 1) - 2;
            assert_eq!(hist[sink..sink + 2], [0.0, 0.0], "feature {f}'s sink must leave zeroed");
        }
    }

    #[test]
    fn row_scan_feature_block_restricts_columns() {
        for qm in all_qms() {
            let n = qm.n_rows();
            let g = grads(n);
            let rows: Vec<u32> = (0..n as u32).collect();
            let mut hist = hist_for(&qm);
            row_scan(&qm, &rows, GradSource::Global(&g), 1..2, block(&qm, &mut hist, 1..2));
            assert_eq!(hist, reference(&qm, &rows, &g, 1..2));
            // Feature 0's cells untouched.
            let f0_cells = qm.mapper().n_bins(0) as usize * 2;
            assert!(hist[..f0_cells].iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn row_scan_membuf_matches_global() {
        for qm in all_qms() {
            let n = qm.n_rows();
            let g = grads(n);
            let m = qm.n_features();
            let rows: Vec<u32> = vec![(n - 1) as u32, 0, 3]; // arbitrary subset, any order
            let membuf: Vec<GradPair> = rows.iter().map(|&r| g[r as usize]).collect();
            let mut h1 = hist_for(&qm);
            let mut h2 = hist_for(&qm);
            row_scan(&qm, &rows, GradSource::Global(&g), 0..m, &mut h1);
            row_scan(&qm, &rows, GradSource::MemBuf(&membuf), 0..m, &mut h2);
            assert_eq!(h1, h2);
        }
    }

    #[test]
    fn row_scan_root_matches_slice_scan() {
        for qm in all_qms() {
            let n = qm.n_rows();
            let g = grads(n);
            let m = qm.n_features();
            let rows: Vec<u32> = (0..n as u32).collect();
            let mut by_slice = hist_for(&qm);
            let mut by_range = hist_for(&qm);
            row_scan(&qm, &rows, GradSource::Global(&g), 0..m, &mut by_slice);
            row_scan_root(&qm, 0..n, GradSource::Global(&g), 0..m, &mut by_range);
            assert_eq!(by_slice, by_range);
            // MemBuf at the root: position == row id.
            let mut by_membuf = hist_for(&qm);
            row_scan_root(&qm, 0..n, GradSource::MemBuf(&g), 0..m, &mut by_membuf);
            assert_eq!(by_slice, by_membuf);
            // A strict sub-range too.
            let mut sub_slice = hist_for(&qm);
            let mut sub_range = hist_for(&qm);
            row_scan(&qm, &rows[1..n], GradSource::Global(&g), 0..m, &mut sub_slice);
            row_scan_root(&qm, 1..n, GradSource::Global(&g), 0..m, &mut sub_range);
            assert_eq!(sub_slice, sub_range);
        }
    }

    #[test]
    fn row_scan_matches_scalar_bitwise() {
        for qm in all_qms() {
            let n = qm.n_rows();
            let g = grads(n);
            let m = qm.n_features();
            for f_range in [0..m, 1..m, 0..1] {
                let rows: Vec<u32> = (0..n as u32).collect();
                let mut fast = hist_for(&qm);
                let mut scalar = hist_for(&qm);
                let all = GradSource::Global(&g);
                let fast_lanes = block(&qm, &mut fast, f_range.clone());
                let cf = row_scan(&qm, &rows, all, f_range.clone(), fast_lanes);
                let scalar_lanes = block(&qm, &mut scalar, f_range.clone());
                let cs = row_scan_scalar(&qm, &rows, all, f_range, scalar_lanes);
                assert_eq!(cf, cs);
                assert_eq!(fast, scalar);
            }
        }
    }

    #[test]
    fn row_scan_sparse_matches_reference() {
        let qm = sparse_qm();
        let g = grads(4);
        let rows: Vec<u32> = vec![0, 1, 2, 3];
        let mut hist = hist_for(&qm);
        let cells = row_scan(&qm, &rows, GradSource::Global(&g), 0..3, &mut hist);
        assert_eq!(cells, 6);
        assert_eq!(hist, reference(&qm, &rows, &g, 0..3));
    }

    #[test]
    fn row_scan_sparse_feature_block() {
        let qm = sparse_qm();
        let g = grads(4);
        let rows: Vec<u32> = vec![0, 2, 3];
        let mut hist = hist_for(&qm);
        row_scan(&qm, &rows, GradSource::Global(&g), 1..3, block(&qm, &mut hist, 1..3));
        assert_eq!(hist, reference(&qm, &rows, &g, 1..3));
    }

    #[test]
    fn col_scan_matches_row_scan_per_feature() {
        for qm in all_qms() {
            let n = qm.n_rows();
            let g = grads(n);
            let rows: Vec<u32> = (0..n as u32).collect();
            let mut full = hist_for(&qm);
            row_scan(&qm, &rows, GradSource::Global(&g), 0..qm.n_features(), &mut full);
            for f in 0..qm.n_features() {
                let n_bins = qm.mapper().n_bins(f) as usize;
                let mut hist_f = vec![0.0; n_bins * 2];
                col_scan(&qm, f, &rows, GradSource::Global(&g), 0..n_bins, &mut hist_f);
                let base = crate::hist::lane(qm.mapper(), f);
                assert_eq!(&full[base..base + n_bins * 2], &hist_f[..], "feature {f}");
                let mut scalar_f = vec![0.0; n_bins * 2];
                col_scan_scalar(&qm, f, &rows, GradSource::Global(&g), 0..n_bins, &mut scalar_f);
                assert_eq!(hist_f, scalar_f, "feature {f} scalar col_scan");
            }
        }
    }

    #[test]
    fn col_scan_subset_rows_all_layouts() {
        // A non-contiguous ascending subset: the merge/indirect paths.
        for qm in all_qms() {
            let n = qm.n_rows();
            let g = grads(n);
            let rows: Vec<u32> = (0..n as u32).filter(|r| r % 3 != 1).collect();
            for f in 0..qm.n_features() {
                let n_bins = qm.mapper().n_bins(f) as usize;
                if n_bins == 0 {
                    continue;
                }
                let mut fast = vec![0.0; n_bins * 2];
                let mut scalar = vec![0.0; n_bins * 2];
                let cf = col_scan(&qm, f, &rows, GradSource::Global(&g), 0..n_bins, &mut fast);
                let cs =
                    col_scan_scalar(&qm, f, &rows, GradSource::Global(&g), 0..n_bins, &mut scalar);
                assert_eq!(cf, cs, "feature {f} cell count");
                assert_eq!(fast, scalar, "feature {f}");
            }
        }
    }

    #[test]
    fn col_scan_bin_block_restricts_bins() {
        let qm = dense_qm();
        let g = grads(6);
        let rows: Vec<u32> = (0..6).collect();
        let f = 0;
        let n_bins = qm.mapper().n_bins(f) as usize;
        assert!(n_bins >= 3);
        let mut blocked = vec![0.0; n_bins * 2];
        col_scan(&qm, f, &rows, GradSource::Global(&g), 0..1, &mut blocked);
        let mut full = vec![0.0; n_bins * 2];
        col_scan(&qm, f, &rows, GradSource::Global(&g), 0..n_bins, &mut full);
        assert_eq!(&blocked[..2], &full[..2]);
        assert!(blocked[2..].iter().all(|&x| x == 0.0));
    }

    /// The store-level column scan lays a feature block out as
    /// `hist::lanes` does and clamps one bin block to each feature's bins:
    /// the same bits and cells as one `col_scan` per feature.
    #[test]
    fn col_scan_store_fills_a_feature_block_per_feature() {
        for qm in all_qms() {
            let (n, mapper) = (qm.n_rows(), qm.mapper());
            let (g, rows) = (grads(n), (0..n as u32).filter(|r| r % 3 != 1).collect::<Vec<_>>());
            let fs = 1..qm.n_features();
            let lanes = crate::hist::lanes(mapper, fs.clone());
            for bins in [0..usize::MAX, 1..3, 300..400] {
                let mut got = vec![0.0; lanes.len()];
                let cells = col_scan_store(
                    &qm,
                    &rows,
                    GradSource::Global(&g),
                    fs.clone(),
                    bins.clone(),
                    &mut got,
                );
                let (mut want, mut want_cells) = (vec![0.0; lanes.len()], 0);
                for f in fs.clone() {
                    let n_bins = mapper.n_bins(f) as usize;
                    let base = crate::hist::lane(mapper, f) - lanes.start;
                    let hist_f = &mut want[base..base + n_bins * 2];
                    let clamped = bins.start.min(n_bins)..bins.end.min(n_bins);
                    want_cells += col_scan(&qm, f, &rows, GradSource::Global(&g), clamped, hist_f);
                }
                assert_eq!((cells, got), (want_cells, want), "bins {bins:?}");
            }
        }
    }

    #[test]
    fn col_scan_subset_rows_sparse() {
        let qm = sparse_qm();
        let g = grads(4);
        let rows: Vec<u32> = vec![1, 2]; // subset; ascending
        for f in 0..3 {
            let n_bins = qm.mapper().n_bins(f) as usize;
            if n_bins == 0 {
                continue;
            }
            let mut hist_f = vec![0.0; n_bins * 2];
            col_scan(&qm, f, &rows, GradSource::Global(&g), 0..n_bins, &mut hist_f);
            let reference_full = reference(&qm, &rows, &g, f..f + 1);
            let base = crate::hist::lane(qm.mapper(), f);
            assert_eq!(&reference_full[base..base + n_bins * 2], &hist_f[..], "feature {f}");
        }
    }

    #[test]
    fn col_scan_gallops_over_skewed_column() {
        // One hot column where the node's rows all sit past a long dense
        // prefix: the gallop must skip the prefix, and the result must match
        // the linear-cursor scalar walk exactly. Rows are offset-contiguous
        // here, so also check a truly scattered subset (gallop path).
        let n = 2000usize;
        let rows_data: Vec<Vec<(u32, f32)>> = (0..n)
            .map(|r| {
                let mut entries = vec![(0u32, (r % 7) as f32)];
                if r >= n - 5 {
                    entries.push((1, 1.0));
                }
                entries
            })
            .collect();
        let m = FeatureMatrix::Sparse(CsrMatrix::from_rows(2, &rows_data));
        let qm = QuantizedMatrix::from_matrix(&m, BinningConfig::default());
        let g = grads(n);
        let tail: Vec<u32> = ((n - 8) as u32..n as u32).collect();
        let scattered: Vec<u32> =
            (0..n as u32).filter(|r| r % 97 == 3 || *r >= (n - 5) as u32).collect();
        for rows in [&tail, &scattered] {
            for f in 0..2 {
                let n_bins = qm.mapper().n_bins(f) as usize;
                let mut fast = vec![0.0; n_bins * 2];
                let mut scalar = vec![0.0; n_bins * 2];
                let cf = col_scan(&qm, f, rows, GradSource::Global(&g), 0..n_bins, &mut fast);
                let cs =
                    col_scan_scalar(&qm, f, rows, GradSource::Global(&g), 0..n_bins, &mut scalar);
                assert_eq!(cf, cs, "feature {f} cell count");
                assert_eq!(fast, scalar, "feature {f}");
            }
        }
    }

    #[test]
    fn simd_tier_is_clamped_and_named() {
        let t = simd_tier();
        #[cfg(target_arch = "x86_64")]
        assert_eq!(t == SimdTier::Avx2, is_x86_feature_detected!("avx2"));
        assert!(["scalar", "avx2"].contains(&t.name()));
        assert_eq!(SimdTier::Scalar.as_u64(), 0);
        assert_eq!(SimdTier::Avx2.as_u64(), 2);
    }

    #[test]
    fn grad_source_select_prefers_membuf() {
        let g = grads(2);
        let mb = grads(1);
        assert!(matches!(GradSource::select(&mb, &g), GradSource::MemBuf(_)));
        assert!(matches!(GradSource::select(&[], &g), GradSource::Global(_)));
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Per-row gradients, and an ascending subset keeping 1/1, 1/2 or 1/3 of
    /// the rows (like a tree node's row set).
    fn grads_and_rows(n: usize, seed: u64) -> (Vec<GradPair>, Vec<u32>) {
        let mut s = seed;
        let grads = (0..n)
            .map(|_| {
                let r = splitmix(&mut s);
                [((r % 31) as f32) - 15.0, ((r >> 8) % 7) as f32 * 0.25 + 0.25]
            })
            .collect();
        let keep = (splitmix(&mut s) % 3) + 1;
        let rows = (0..n as u32).filter(|r| u64::from(*r) % keep == 0).collect();
        (grads, rows)
    }

    /// Dense matrix of at most 12 distinct values per feature, some
    /// missing, quantized at a 16-bin budget, with its gradients and rows.
    fn few_values_dense_case() -> impl Strategy<Value = (QuantizedMatrix, Vec<GradPair>, Vec<u32>)>
    {
        (1usize..100, 1usize..9, any::<u64>()).prop_map(|(n, m, seed)| {
            let mut s = seed;
            let values: Vec<f32> = (0..n * m)
                .map(|_| {
                    let r = splitmix(&mut s);
                    if r % 11 == 0 {
                        f32::NAN
                    } else {
                        (r % 12) as f32
                    }
                })
                .collect();
            let qm = QuantizedMatrix::from_matrix(
                &FeatureMatrix::Dense(DenseMatrix::from_vec(n, m, values)),
                BinningConfig::with_max_bins(16),
            );
            let (grads, rows) = grads_and_rows(n, seed ^ 0xABCD);
            (qm, grads, rows)
        })
    }

    /// Random grouped one-hot CSR matrix: features inside a group are
    /// mutually exclusive (at most one present per row), groups are
    /// independent, and every cross-group feature pair co-occurs in some
    /// row.
    fn one_hot_matrix() -> impl Strategy<Value = FeatureMatrix> {
        (8usize..80, 2usize..5, any::<u64>()).prop_map(|(n, groups, seed)| {
            let mut s = seed;
            let per = 4usize;
            let m = groups * per;
            let mut rows: Vec<Vec<(u32, f32)>> = Vec::new();
            for g in 0..groups {
                for g2 in g + 1..groups {
                    for a in 0..per {
                        for b in 0..per {
                            rows.push(vec![
                                ((g * per + a) as u32, 1.0),
                                ((g2 * per + b) as u32, 1.0),
                            ]);
                        }
                    }
                }
            }
            rows.extend((0..n).map(|_| {
                (0..groups)
                    .filter_map(|g| {
                        let r = splitmix(&mut s);
                        (r % 4 != 0).then(|| {
                            let f = (g * per) as u32 + ((r >> 4) % per as u64) as u32;
                            (f, ((r >> 8) % 5) as f32 + 1.0)
                        })
                    })
                    .collect()
            }));
            FeatureMatrix::Sparse(CsrMatrix::from_rows(m, &rows))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The row and the column scan produce bitwise the same histograms
        /// as the scalar references, on a dense and on a sparse store.
        #[test]
        fn scans_bitwise_equal_scalar(
            dense in few_values_dense_case(),
            matrix in one_hot_matrix(),
        ) {
            let sparse_qm = QuantizedMatrix::from_matrix(&matrix, BinningConfig::with_max_bins(16));
            let (sgrads, srows) = grads_and_rows(sparse_qm.n_rows(), 0x5eed);
            let sparse = (sparse_qm, sgrads, srows);
            for (qm, grads, rows) in [&dense, &sparse] {
                let m = qm.n_features();
                let all = GradSource::Global(grads);
                let mut scanned = hist_for(qm);
                let mut scalar = hist_for(qm);
                row_scan(qm, rows, all, 0..m, &mut scanned);
                row_scan_scalar(qm, rows, all, 0..m, &mut scalar);
                prop_assert_eq!(&scanned, &scalar);
                for f in 0..m {
                    let n_bins = qm.mapper().n_bins(f) as usize;
                    if n_bins == 0 {
                        continue;
                    }
                    let mut fast = vec![0.0; n_bins * 2];
                    let mut slow = vec![0.0; n_bins * 2];
                    col_scan(qm, f, rows, all, 0..n_bins, &mut fast);
                    col_scan_scalar(qm, f, rows, all, 0..n_bins, &mut slow);
                    prop_assert_eq!(&fast, &slow);
                }
            }
        }
    }
}
