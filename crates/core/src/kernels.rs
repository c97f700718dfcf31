//! BuildHist scan kernels (Algorithm 2).
//!
//! Two access patterns, matching the two parallelism families of §II-B:
//!
//! * [`row_scan`] — walk a set of rows, accumulating every feature in a
//!   feature block: the data-parallel kernel (writes span the whole feature
//!   block of one node — a private replica or an exclusively owned buffer).
//! * [`col_scan`] — walk one feature column restricted to a node's rows:
//!   the model-parallel kernel (writes confined to that feature's bins of
//!   that node — a `16 × bin_blk × feature_blk × node_blk` region, §IV-E).
//!
//! Both are monomorphized over [`GradRead`] (MemBuf slice vs. global
//! gather, the "+MemBuf" ablation of Table V) so the per-cell gradient
//! dispatch disappears, and both index the mapper's flattened
//! [`harp_binning::BinMapper::bin_offsets`] table directly. The storage
//! layout picks the body — dense `u8`, nibble-packed u4, bundled, or sparse
//! CSR/CSC (DESIGN.md §13) — and the CPU picks the [`SimdTier`], detected
//! once: on AVX2 the u4 and sparse bodies fold two *distinct* cells per
//! 256-bit add, and every other body (or any body on another CPU) issues
//! two scalar adds per cell. Every tier performs the identical per-cell
//! IEEE adds in the identical row-ascending order, so output is bitwise
//! identical to the retained scalar reference ([`row_scan_scalar`] /
//! [`col_scan_scalar`]).
//!
//! The dense bodies route `MISSING_BIN` cells branch-free into per-feature
//! *sink cells* appended past the real histogram (see [`row_scan`] for the
//! layout contract) and zero them before the buffer leaves the kernel; the
//! bundled body routes absent cells into one shared sink cell the same
//! way. Sparse storage has no missing sentinel to route and needs no sink
//! padding.
//!
//! All kernels return the number of histogram accumulations performed so
//! drivers can report byte traffic and FLOPs to the profiler.

use crate::loss::GradPair;
use harp_binning::{QuantizedMatrix, MISSING_BIN};
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
pub const PREFETCH_ROWS: usize = 8;

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

/// Lanes a row-scan histogram buffer must have beyond the real cells: one
/// `(Σg, Σh)` sink cell per feature, appended after `total_bins`.
pub fn sink_lanes(n_features: usize) -> usize {
    n_features * 2
}

// ---------------------------------------------------------------------------
// SIMD tier detection
// ---------------------------------------------------------------------------

/// Instruction tier the specialized kernels accumulate with, picked by CPU
/// detection alone. Only the bodies that can fold two *distinct* cells into
/// one add (u4 feature pairs, sparse entry pairs) have an AVX2 variant;
/// every other body accumulates with two scalar adds per cell on every
/// tier. Every tier produces bitwise-identical histograms (DESIGN.md §13):
/// the lanes of a 256-bit add are independent IEEE adds, and cells are
/// never paired unless provably distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Portable two-scalar-adds path (any CPU without AVX2).
    Scalar = 0,
    /// Two distinct cells folded per 256-bit add (sparse pairs, u4 feature
    /// pairs); runtime-gated on `is_x86_feature_detected!("avx2")`.
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

/// The widest tier this CPU supports.
fn detected_tier() -> SimdTier {
    static DETECTED: OnceLock<SimdTier> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return SimdTier::Avx2;
        }
        SimdTier::Scalar
    })
}

/// The tier the specialized kernels dispatch to: the detected one, cached
/// after the first call.
pub fn simd_tier() -> SimdTier {
    detected_tier()
}

// ---------------------------------------------------------------------------
// Cell accumulators
// ---------------------------------------------------------------------------

/// One histogram-cell accumulate, monomorphized per [`SimdTier`]. A "cell"
/// is the `(Σg, Σh)` f64 pair at lanes `cell` and `cell + 1`. All
/// implementations perform the same two IEEE f64 adds — the AVX2 variant
/// just issues them for two provably distinct cells as one vector op, so
/// results are bitwise identical across tiers.
trait CellAcc: Copy {
    /// The packed `(g, h)` pair, widened to f64 once per row.
    type Gh: Copy;

    fn pack(g: f32, h: f32) -> Self::Gh;

    /// Accumulates `gh` into the cell at lanes `cell..cell + 2`.
    ///
    /// # Safety
    /// `cell + 1` must be in bounds of the buffer behind `hp`.
    unsafe fn add(hp: *mut f64, cell: usize, gh: Self::Gh);

    /// Accumulates `gh` into two cells of the same row.
    ///
    /// # Safety
    /// Both cells in bounds, and `cell0 != cell1` — a 256-bit fold of the
    /// same cell would collapse two ordered adds into one.
    #[inline(always)]
    unsafe fn add2(hp: *mut f64, cell0: usize, cell1: usize, gh: Self::Gh) {
        // SAFETY: forwarded per-cell contracts.
        unsafe {
            Self::add(hp, cell0, gh);
            Self::add(hp, cell1, gh);
        }
    }
}

#[derive(Clone, Copy)]
struct PortableAcc;

impl CellAcc for PortableAcc {
    type Gh = (f64, f64);

    #[inline(always)]
    fn pack(g: f32, h: f32) -> (f64, f64) {
        (f64::from(g), f64::from(h))
    }

    #[inline(always)]
    unsafe fn add(hp: *mut f64, cell: usize, gh: (f64, f64)) {
        // SAFETY: caller guarantees cell..cell + 2 in bounds.
        unsafe {
            *hp.add(cell) += gh.0;
            *hp.add(cell + 1) += gh.1;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::CellAcc;
    use core::arch::x86_64::*;

    /// AVX2 tier: one unaligned 128-bit `(Σg, Σh)` add per cell (lanewise
    /// IEEE, bitwise equal to two scalar f64 adds), and two *distinct* cells
    /// of one row folded into a single 256-bit add. Only reached through the
    /// `#[target_feature(enable = "avx2")]` kernel wrappers.
    #[derive(Clone, Copy)]
    pub(super) struct Avx2Acc;

    impl CellAcc for Avx2Acc {
        type Gh = __m128d;

        #[inline(always)]
        fn pack(g: f32, h: f32) -> __m128d {
            // SAFETY: SSE2 is part of the x86-64 baseline.
            unsafe { _mm_set_pd(f64::from(h), f64::from(g)) }
        }

        #[inline(always)]
        unsafe fn add(hp: *mut f64, cell: usize, gh: __m128d) {
            // SAFETY: caller guarantees bounds.
            unsafe {
                let p = hp.add(cell);
                _mm_storeu_pd(p, _mm_add_pd(_mm_loadu_pd(p), gh));
            }
        }

        #[inline(always)]
        unsafe fn add2(hp: *mut f64, cell0: usize, cell1: usize, gh: __m128d) {
            // SAFETY: caller guarantees bounds and cell0 != cell1, so the
            // two 128-bit halves are independent IEEE adds.
            unsafe {
                let p0 = hp.add(cell0);
                let p1 = hp.add(cell1);
                let cur = _mm256_set_m128d(_mm_loadu_pd(p1), _mm_loadu_pd(p0));
                let sum = _mm256_add_pd(cur, _mm256_set_m128d(gh, gh));
                _mm_storeu_pd(p0, _mm256_castpd256_pd128(sum));
                _mm_storeu_pd(p1, _mm256_extractf128_pd::<1>(sum));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Row scan
// ---------------------------------------------------------------------------

/// Accumulates `rows` × features `f_range` into `hist` (one node's full
/// buffer, indexed by the mapper's bin offsets). Returns the accumulation
/// count (missing cells excluded).
///
/// # Layout contract
/// For dense storage (u8 or u4-packed), `hist` must be the *padded* layout
/// of [`crate::hist::hist_width`]: `total_bins * 2` real lanes followed by
/// [`sink_lanes`] zeroed sink lanes. Missing cells accumulate branch-free
/// into feature `f`'s sink cell at index `total_bins + f` and the kernel
/// re-zeroes the sinks of `f_range` before returning, so the buffer's real
/// cells — and the sinks — leave exactly as the scalar reference
/// ([`row_scan_scalar`]) produces them. Bundled storage routes absent
/// cells into one shared sink cell at lane `total_bins` (two extra lanes,
/// re-zeroed likewise); sparse storage has no absent entries to route and
/// needs no padding (`total_bins * 2` lanes suffice).
pub fn row_scan(
    qm: &QuantizedMatrix,
    rows: &[u32],
    grads: GradSource<'_>,
    f_range: Range<usize>,
    hist: &mut [f64],
) -> u64 {
    row_scan_forced_tier(simd_tier(), qm, rows, grads, f_range, hist)
}

/// [`row_scan`] pinned to `tier` (clamped to the detected ceiling). Test
/// hook for the tier-equivalence suites.
#[doc(hidden)]
pub fn row_scan_forced_tier(
    tier: SimdTier,
    qm: &QuantizedMatrix,
    rows: &[u32],
    grads: GradSource<'_>,
    f_range: Range<usize>,
    hist: &mut [f64],
) -> u64 {
    let tier = tier.min(detected_tier());
    match grads {
        GradSource::MemBuf(m) => {
            assert!(m.len() >= rows.len(), "MemBuf shorter than the row set");
            row_scan_impl(qm, SliceRows(rows), MemBufRead(m), f_range, hist, tier)
        }
        GradSource::Global(g) => {
            row_scan_impl(qm, SliceRows(rows), GlobalRead(g), f_range, hist, tier)
        }
    }
}

/// [`row_scan`] over the contiguous rows `row_range` — the root fast path,
/// where the row set is `0..n` (or any span of it) and the MemBuf position
/// equals the row id, so the row-id indirection drops out entirely.
///
/// A `GradSource::MemBuf` slice must be aligned to `row_range` (entry `i`
/// belongs to row `row_range.start + i`), which at the root it is.
pub fn row_scan_root(
    qm: &QuantizedMatrix,
    row_range: Range<usize>,
    grads: GradSource<'_>,
    f_range: Range<usize>,
    hist: &mut [f64],
) -> u64 {
    assert!(row_range.end <= qm.n_rows(), "row range out of bounds");
    let tier = simd_tier();
    let rows = ContigRows { base: row_range.start as u32, len: row_range.len() };
    match grads {
        GradSource::MemBuf(m) => {
            assert!(m.len() >= rows.len, "MemBuf shorter than the row range");
            row_scan_impl(qm, rows, MemBufRead(m), f_range, hist, tier)
        }
        GradSource::Global(g) => row_scan_impl(qm, rows, GlobalRead(g), f_range, hist, tier),
    }
}

/// The layout picks the body: u4-packed before plain dense (a pack rides on
/// dense storage), then bundled, then sparse. The tier only matters to the
/// two bodies that fold distinct cell pairs (u4, sparse); the dense u8 and
/// bundled bodies have no such pair (two rows of a quad may hit the same
/// cell), so they accumulate with [`PortableAcc`] on every tier.
fn row_scan_impl<R: RowSet, G: GradRead>(
    qm: &QuantizedMatrix,
    rows: R,
    grads: G,
    f_range: Range<usize>,
    hist: &mut [f64],
    tier: SimdTier,
) -> u64 {
    let m = qm.n_features();
    assert!(f_range.end <= m, "feature range out of bounds");
    if let Some(pack) = qm.u4() {
        return match tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: tier is clamped to the detected ceiling, so AVX2 is
            // available on this CPU.
            SimdTier::Avx2 => unsafe { u4_row_scan_avx2(qm, pack, rows, grads, f_range, hist) },
            _ => u4_row_scan::<R, G, PortableAcc>(qm, pack, rows, grads, f_range, hist),
        };
    }
    if let Some(row_major) = qm.dense_row_major() {
        return dense_row_scan(qm, row_major, rows, grads, f_range, hist);
    }
    if qm.is_bundled() {
        return bundled_row_scan(qm, rows, grads, f_range, hist);
    }
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamped tier ⇒ AVX2 available.
        SimdTier::Avx2 => unsafe { sparse_row_scan_avx2(qm, rows, grads, f_range, hist) },
        _ => sparse_row_scan::<R, G, PortableAcc>(qm, rows, grads, f_range, hist),
    }
}

/// The specialized dense body: 4-row unroll, feature-outer within each quad
/// (same-cell accumulation order stays row-ascending, as in the scalar
/// scan), software prefetch [`PREFETCH_ROWS`] ahead, and branch-free
/// missing-bin routing into the per-feature sinks.
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
    let total = qm.mapper().total_bins();
    assert!(
        hist.len() >= total as usize * 2 + sink_lanes(m),
        "dense row_scan needs the padded hist layout (total_bins*2 + sink lanes)"
    );
    let n = rows.len();
    let hp = hist.as_mut_ptr();

    // Per-cell safety: a stored bin is < n_bins(f) or MISSING_BIN (the
    // QuantizedMatrix invariant), so the selected index is either
    // offsets[f] + b < offsets[f+1] <= total or the sink total + f < total
    // + m; both fit the padded buffer asserted above.
    #[inline(always)]
    unsafe fn acc(hp: *mut f64, off: u32, sink: u32, b: u8, gh: (f64, f64)) -> u64 {
        let miss = u32::from(b == MISSING_BIN);
        let mask = miss.wrapping_neg();
        let cell = (((off + u32::from(b)) & !mask) | (sink & mask)) as usize * 2;
        // SAFETY: cell bounds per the invariant above.
        unsafe {
            PortableAcc::add(hp, cell, gh);
        }
        u64::from(1 - miss)
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
        let ([g0, h0], [g1, h1]) = (grads.get(i, r0), grads.get(i + 1, r1));
        let ([g2, h2], [g3, h3]) = (grads.get(i + 2, r2), grads.get(i + 3, r3));
        let pack = PortableAcc::pack;
        let (gh0, gh1, gh2, gh3) = (pack(g0, h0), pack(g1, h1), pack(g2, h2), pack(g3, h3));
        let (b0, b1, b2, b3) = (row_bins(r0), row_bins(r1), row_bins(r2), row_bins(r3));
        for f in f_range.clone() {
            // SAFETY: f < f_range.end <= m bounds every slice; cell indices
            // per the invariant above.
            unsafe {
                let off = *offsets.get_unchecked(f);
                let sink = total + f as u32;
                cells += acc(hp, off, sink, *b0.get_unchecked(f), gh0);
                cells += acc(hp, off, sink, *b1.get_unchecked(f), gh1);
                cells += acc(hp, off, sink, *b2.get_unchecked(f), gh2);
                cells += acc(hp, off, sink, *b3.get_unchecked(f), gh3);
            }
        }
        i += 4;
    }
    while i < n {
        let r = rows.get(i);
        let [g, h] = grads.get(i, r);
        let gh = PortableAcc::pack(g, h);
        let bins = row_bins(r);
        for f in f_range.clone() {
            // SAFETY: as in the unrolled body.
            unsafe {
                let off = *offsets.get_unchecked(f);
                cells += acc(hp, off, total + f as u32, *bins.get_unchecked(f), gh);
            }
        }
        i += 1;
    }
    // Strip the sinks: missing mass never leaves the kernel, keeping the
    // buffer bitwise identical to the scalar reference.
    for f in f_range {
        hist[(total as usize + f) * 2] = 0.0;
        hist[(total as usize + f) * 2 + 1] = 0.0;
    }
    cells
}

/// The u4-packed dense body: half the bin bytes of [`dense_row_scan`], the
/// same 4-row unroll and sink routing, plus feature-pairing so the AVX2
/// tier folds two cells per add. Nibbles resolve to histogram lanes with
/// pure arithmetic — a stored nibble is either a real bin (`offset + nib`)
/// or `0xF`, whose meaning (bin 15 of a missing-free 16-bin feature, or
/// [`harp_binning::MISSING_NIBBLE`] → sink) is pre-resolved per feature
/// from the pack's lane table, so no per-cell table load is needed.
/// Distinct features always map to distinct lanes (disjoint bin windows;
/// per-feature sinks), satisfying the [`CellAcc::add2`] contract.
fn u4_row_scan<R: RowSet, G: GradRead, A: CellAcc>(
    qm: &QuantizedMatrix,
    pack: &harp_binning::U4Pack,
    rows: R,
    grads: G,
    f_range: Range<usize>,
    hist: &mut [f64],
) -> u64 {
    let m = qm.n_features();
    let total = qm.mapper().total_bins();
    assert!(
        hist.len() >= total as usize * 2 + sink_lanes(m),
        "u4 row_scan needs the padded hist layout (total_bins*2 + sink lanes)"
    );
    let offsets = qm.mapper().bin_offsets();
    let lanes = pack.lanes();
    let clean = pack.clean();
    let stride = pack.row_stride();
    let packed = pack.packed_rows();
    let hp = hist.as_mut_ptr();
    let n = rows.len();
    let mut cells = 0u64;

    /// Lane of one extracted nibble: `off + nib` for a real bin, the
    /// feature's pre-resolved nibble-15 lane (`l15`) otherwise. Branch-free
    /// (mask select), mirroring the dense u8 missing routing.
    #[inline(always)]
    fn lane(nib: u32, off: u32, l15: u32) -> u32 {
        let mask = u32::from(nib == 0xF).wrapping_neg();
        ((off + nib) & !mask) | (l15 & mask)
    }

    /// `(bin_offset, nibble-15 lane)` of feature `f`.
    ///
    /// # Safety
    /// `f < m` (offsets has m+1 entries, lanes has m*16).
    #[inline(always)]
    unsafe fn consts_of(offsets: &[u32], lanes: &[u32], f: usize) -> (u32, u32) {
        // SAFETY: per the contract above.
        unsafe { (*offsets.get_unchecked(f), *lanes.get_unchecked(f * 16 + 15)) }
    }

    let row_bits =
        |row: u32| -> &[u8] { &packed[row as usize * stride..row as usize * stride + stride] };
    let mut i = 0usize;
    while i + 4 <= n {
        if i + PREFETCH_ROWS + 4 <= n {
            for d in 0..4 {
                let r = rows.get(i + PREFETCH_ROWS + d);
                prefetch_read(&packed[r as usize * stride + (f_range.start >> 1)]);
                grads.prefetch(i + PREFETCH_ROWS + d, r);
            }
        }
        let (r0, r1, r2, r3) = (rows.get(i), rows.get(i + 1), rows.get(i + 2), rows.get(i + 3));
        let ([g0, h0], [g1, h1]) = (grads.get(i, r0), grads.get(i + 1, r1));
        let ([g2, h2], [g3, h3]) = (grads.get(i + 2, r2), grads.get(i + 3, r3));
        let (gh0, gh1, gh2, gh3) =
            (A::pack(g0, h0), A::pack(g1, h1), A::pack(g2, h2), A::pack(g3, h3));
        let (p0, p1, p2, p3) = (row_bits(r0), row_bits(r1), row_bits(r2), row_bits(r3));
        let quad = [(p0, gh0), (p1, gh1), (p2, gh2), (p3, gh3)];
        let mut f = f_range.start;
        // Head: an odd-aligned leading feature (high nibble of its byte) so
        // the paired body below always starts on a byte boundary.
        if f & 1 == 1 && f < f_range.end {
            // SAFETY: f < f_range.end <= m; f >> 1 < stride.
            unsafe {
                let (off, l15) = consts_of(offsets, lanes, f);
                for (p, gh) in quad {
                    let a = lane(u32::from(*p.get_unchecked(f >> 1) >> 4), off, l15);
                    A::add(hp, a as usize * 2, gh);
                    cells += u64::from(a < total);
                }
            }
            f += 1;
        }
        while f + 2 <= f_range.end {
            // SAFETY: f + 1 < f_range.end <= m; f is even so both nibbles
            // of byte f >> 1 belong to features f (low) and f + 1 (high),
            // whose lanes are always distinct (add2 contract).
            unsafe {
                let bix = f >> 1;
                let off0 = *offsets.get_unchecked(f);
                let off1 = *offsets.get_unchecked(f + 1);
                if *clean.get_unchecked(f) & *clean.get_unchecked(f + 1) {
                    // Missing-free feature pair: every nibble is a real
                    // bin, so the lane is plain offset arithmetic and the
                    // count is unconditional.
                    for (p, gh) in quad {
                        let byte = u32::from(*p.get_unchecked(bix));
                        let (a, b) = (off0 + (byte & 0xF), off1 + (byte >> 4));
                        A::add2(hp, a as usize * 2, b as usize * 2, gh);
                    }
                    cells += 8;
                } else {
                    let l15_0 = *lanes.get_unchecked(f * 16 + 15);
                    let l15_1 = *lanes.get_unchecked(f * 16 + 31);
                    for (p, gh) in quad {
                        let byte = u32::from(*p.get_unchecked(bix));
                        let (a, b) = (lane(byte & 0xF, off0, l15_0), lane(byte >> 4, off1, l15_1));
                        A::add2(hp, a as usize * 2, b as usize * 2, gh);
                        cells += u64::from(a < total) + u64::from(b < total);
                    }
                }
            }
            f += 2;
        }
        if f < f_range.end {
            // Tail: one even-aligned feature left (low nibble).
            // SAFETY: f < f_range.end <= m.
            unsafe {
                let (off, l15) = consts_of(offsets, lanes, f);
                for (p, gh) in quad {
                    let a = lane(u32::from(*p.get_unchecked(f >> 1) & 0xF), off, l15);
                    A::add(hp, a as usize * 2, gh);
                    cells += u64::from(a < total);
                }
            }
        }
        i += 4;
    }
    while i < n {
        let r = rows.get(i);
        let [g, h] = grads.get(i, r);
        let gh = A::pack(g, h);
        let p = row_bits(r);
        for f in f_range.clone() {
            // SAFETY: f < f_range.end <= m.
            unsafe {
                let (off, l15) = consts_of(offsets, lanes, f);
                let nib = u32::from((*p.get_unchecked(f >> 1) >> ((f & 1) * 4)) & 0xF);
                let a = lane(nib, off, l15);
                A::add(hp, a as usize * 2, gh);
                cells += u64::from(a < total);
            }
        }
        i += 1;
    }
    for f in f_range {
        hist[(total as usize + f) * 2] = 0.0;
        hist[(total as usize + f) * 2 + 1] = 0.0;
    }
    cells
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn u4_row_scan_avx2<R: RowSet, G: GradRead>(
    qm: &QuantizedMatrix,
    pack: &harp_binning::U4Pack,
    rows: R,
    grads: G,
    f_range: Range<usize>,
    hist: &mut [f64],
) -> u64 {
    u4_row_scan::<R, G, x86::Avx2Acc>(qm, pack, rows, grads, f_range, hist)
}

/// The bundled body: walk the synthetic dense columns and resolve each
/// stored bin through the per-column lane LUT, which lands accumulates
/// directly in the ORIGINAL flattened histogram (so FindSplit needs no
/// translation). A feature block restricts by lane window — feature `f`'s
/// lanes occupy `bin_offsets[f]..bin_offsets[f+1]`, so
/// `bin_offsets[start]..bin_offsets[end]` covers exactly `f_range`; missing
/// and conflict-dropped bins resolve to [`harp_binning::bundling::NO_LANE`]
/// (`u32::MAX`), which no window contains. Out-of-window cells accumulate
/// branch-free into one shared sink cell at lane `total_bins` (absence is
/// common in bundled data, so a branch would mispredict constantly); the
/// sink is re-zeroed before the buffer leaves the kernel.
fn bundled_row_scan<R: RowSet, G: GradRead>(
    qm: &QuantizedMatrix,
    rows: R,
    grads: G,
    f_range: Range<usize>,
    hist: &mut [f64],
) -> u64 {
    let map = qm.mapper().bundles().expect("bundled storage has a map");
    let brm = qm.bundled_row_major().expect("bundled storage");
    let n_cols = qm.n_storage_cols();
    let offsets = qm.mapper().bin_offsets();
    let total = qm.mapper().total_bins();
    assert!(
        hist.len() >= total as usize * 2 + 2,
        "bundled row_scan needs the sink cell past total_bins"
    );
    let lut = map.cell_lut_flat();
    let lane_lo = offsets[f_range.start];
    let win = offsets[f_range.end] - lane_lo;
    let hp = hist.as_mut_ptr();
    let n = rows.len();
    let mut cells = 0u64;
    for i in 0..n {
        let row = rows.get(i);
        if !R::SEQUENTIAL && i + PREFETCH_ROWS < n {
            let r = rows.get(i + PREFETCH_ROWS);
            prefetch_read(&brm[r as usize * n_cols]);
            grads.prefetch(i + PREFETCH_ROWS, r);
        }
        let [g, h] = grads.get(i, row);
        let gh = PortableAcc::pack(g, h);
        let rb = &brm[row as usize * n_cols..row as usize * n_cols + n_cols];
        for (c, &b) in rb.iter().enumerate() {
            // SAFETY: the LUT has 256 entries per storage column; a passing
            // lane is < total and the sink is lane `total`, both in bounds
            // of the buffer asserted above.
            unsafe {
                let lane = *lut.get_unchecked((c << 8) | b as usize);
                let hit = lane.wrapping_sub(lane_lo) < win;
                let target = if hit { lane } else { total };
                PortableAcc::add(hp, target as usize * 2, gh);
                cells += u64::from(hit);
            }
        }
    }
    hist[total as usize * 2] = 0.0;
    hist[total as usize * 2 + 1] = 0.0;
    cells
}

/// Entries resolved-and-prefetched ahead of accumulation by the sparse
/// scan: cell indices for up to one chunk are materialized (issuing a
/// prefetch each) before any of the chunk's adds run, so every random hist
/// access has a full chunk's worth of address-generation work between its
/// prefetch and its use — enough to cover a DRAM miss on multi-MB buffers.
const SPARSE_CHUNK: usize = 16;

/// Bin capacity of one internal pass of the sparse scan (≈ 1.5 MiB of
/// `(Σg, Σh)` cells, sized to sit inside a 2 MiB L2 with headroom for the
/// entry stream): histograms wider than this are built in feature blocks
/// small enough to stay cache-resident, instead of write-thrashing the
/// whole multi-MB buffer row by row.
const SPARSE_PASS_BINS: u32 = 96 * 1024;

/// The sparse CSR body: per-row feature-range restriction by binary search
/// and entry-paired accumulates (distinct columns ⇒ distinct cells, so the
/// AVX2 tier folds two per add). The random hist write is the bound, and
/// two layers address it:
///
/// * **Cache blocking.** When `f_range` spans more than
///   [`SPARSE_PASS_BINS`] bins, the scan runs in several feature-block
///   passes over the row set, each touching only a cache-sized slice of
///   the histogram. Distinct cells commute, and within one cell the row
///   order is unchanged, so the result stays bitwise identical to the
///   single-pass scalar reference.
/// * **Chunked prefetch.** Each row slice is processed in
///   [`SPARSE_CHUNK`]-entry chunks: phase one resolves the chunk's cell
///   indices into a stack buffer and prefetches each, phase two replays
///   the buffer into paired adds — same entry order, bitwise identical.
fn sparse_row_scan<R: RowSet, G: GradRead, A: CellAcc>(
    qm: &QuantizedMatrix,
    rows: R,
    grads: G,
    f_range: Range<usize>,
    hist: &mut [f64],
) -> u64 {
    let offsets = qm.mapper().bin_offsets();
    let total = qm.mapper().total_bins();
    assert!(hist.len() >= total as usize * 2, "hist shorter than total_bins * 2");
    let m = qm.n_features();
    let n = rows.len();
    let hp = hist.as_mut_ptr();
    let mut cells = 0u64;
    let mut cellbuf = [0usize; SPARSE_CHUNK];

    // SAFETY contract: k < cols.len(); cols[k] < m and bins[k] <
    // n_bins(cols[k]) (QuantizedMatrix invariant), so the returned cell is
    // < total_bins * 2.
    #[inline(always)]
    unsafe fn cell_at(offsets: &[u32], cols: &[u32], bins: &[u8], k: usize) -> usize {
        // SAFETY: per the contract above.
        unsafe {
            (*offsets.get_unchecked(*cols.get_unchecked(k) as usize) as usize
                + *bins.get_unchecked(k) as usize)
                * 2
        }
    }

    // Direct paired accumulate over one row slice `[lo, hi)` — used by the
    // cache-blocked passes, where the histogram slice is cache-resident
    // and the prefetch phase of the chunked variant would be dead weight.
    //
    // SAFETY contract: `lo <= hi <= cols.len()`; paired cells belong to
    // strictly ascending columns, hence are distinct (add2 contract).
    #[inline(always)]
    unsafe fn accumulate_direct<A: CellAcc>(
        offsets: &[u32],
        cols: &[u32],
        bins: &[u8],
        lo: usize,
        hi: usize,
        gh: A::Gh,
        hp: *mut f64,
    ) {
        // SAFETY: per the contract above.
        unsafe {
            let mut k = lo;
            while k + 2 <= hi {
                let a = cell_at(offsets, cols, bins, k);
                let b = cell_at(offsets, cols, bins, k + 1);
                A::add2(hp, a, b, gh);
                k += 2;
            }
            if k < hi {
                A::add(hp, cell_at(offsets, cols, bins, k), gh);
            }
        }
    }

    // The chunked accumulate over one row slice `[lo, hi)`.
    //
    // SAFETY contract: `lo <= hi <= cols.len()`; paired cells belong to
    // strictly ascending columns, hence are distinct (add2 contract).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn accumulate<A: CellAcc>(
        offsets: &[u32],
        cols: &[u32],
        bins: &[u8],
        lo: usize,
        hi: usize,
        gh: A::Gh,
        hp: *mut f64,
        cellbuf: &mut [usize; SPARSE_CHUNK],
    ) {
        // SAFETY: per the contract above.
        unsafe {
            let mut k = lo;
            while k < hi {
                let c = (hi - k).min(SPARSE_CHUNK);
                for (j, slot) in cellbuf[..c].iter_mut().enumerate() {
                    let cell = cell_at(offsets, cols, bins, k + j);
                    prefetch_read(hp.add(cell));
                    *slot = cell;
                }
                let mut j = 0usize;
                while j + 2 <= c {
                    A::add2(hp, *cellbuf.get_unchecked(j), *cellbuf.get_unchecked(j + 1), gh);
                    j += 2;
                }
                if j < c {
                    A::add(hp, *cellbuf.get_unchecked(j), gh);
                }
                k += c;
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
        // packed `(g, h)` pairs and per-row entry bounds are resolved once
        // up front so the per-(row, pass) loop is three sequential scratch
        // reads plus the walk.
        let (indptr, all_cols, all_bins) = qm.sparse_csr().expect("sparse storage");
        let mut cursor: Vec<usize> = Vec::with_capacity(n);
        let mut ends: Vec<usize> = Vec::with_capacity(n);
        let mut ghs: Vec<A::Gh> = Vec::with_capacity(n);
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
            let [g, h] = grads.get(i, row);
            ghs.push(A::pack(g, h));
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
            // k < end <= all_cols.len(); accumulate per its contract
            // (ascending columns within a row ⇒ distinct cells).
            unsafe {
                for i in 0..n {
                    let lo = *cursor.get_unchecked(i);
                    let end = *ends.get_unchecked(i);
                    let mut k = lo;
                    while k < end && *all_cols.get_unchecked(k) < fe_col {
                        k += 1;
                    }
                    accumulate_direct::<A>(
                        offsets,
                        all_cols,
                        all_bins,
                        lo,
                        k,
                        *ghs.get_unchecked(i),
                        hp,
                    );
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
        let [g, h] = grads.get(i, row);
        let gh = A::pack(g, h);
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
        // partition_point, ascending columns within a row).
        unsafe {
            accumulate::<A>(offsets, cols, bins, lo, hi, gh, hp, &mut cellbuf);
        }
        cells += (hi - lo) as u64;
    }
    cells
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sparse_row_scan_avx2<R: RowSet, G: GradRead>(
    qm: &QuantizedMatrix,
    rows: R,
    grads: G,
    f_range: Range<usize>,
    hist: &mut [f64],
) -> u64 {
    sparse_row_scan::<R, G, x86::Avx2Acc>(qm, rows, grads, f_range, hist)
}

/// The scalar row-scan reference: one `match` per gradient read, one
/// `bin_offset` call and one missing-bin branch per cell. Retained verbatim
/// so the specialized kernels have a bitwise ground truth (and the bench
/// runner a "before" measurement). Needs no sink padding. Handles every
/// storage layout through the slow accessors (a u4 pack rides on dense u8
/// storage, so the dense branch covers it).
pub fn row_scan_scalar(
    qm: &QuantizedMatrix,
    rows: &[u32],
    grads: GradSource<'_>,
    f_range: Range<usize>,
    hist: &mut [f64],
) -> u64 {
    let mapper = qm.mapper();
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
                let cell = (mapper.bin_offset(f) + u32::from(b)) as usize * 2;
                hist[cell] += f64::from(g);
                hist[cell + 1] += f64::from(h);
                cells += 1;
            }
        }
    } else if qm.is_bundled() {
        // Storage-column order, matching the specialized bundled body; a
        // cell is touched at most once per row, so per-cell accumulation
        // order is row-ascending either way.
        for (i, &row) in rows.iter().enumerate() {
            let [g, h] = grads.get(i, row);
            qm.for_each_in_row(row as usize, |f, b| {
                let f = f as usize;
                if f_range.contains(&f) {
                    let cell = (mapper.bin_offset(f) + u32::from(b)) as usize * 2;
                    hist[cell] += f64::from(g);
                    hist[cell + 1] += f64::from(h);
                    cells += 1;
                }
            });
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
                let cell = (mapper.bin_offset(f) + u32::from(bins[k])) as usize * 2;
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

/// After this many linear probe steps, the sparse column merge-walk switches
/// to a `partition_point` gallop (skewed columns degrade the linear cursor
/// to O(nnz_col) per node otherwise).
const GALLOP_AFTER: usize = 16;

/// Accumulates feature `f` over `rows` into `hist_f` (that feature's bins
/// only: `n_bins * 2` lanes), restricted to bins in `bin_range`. Returns the
/// accumulation count. `f` is always an ORIGINAL feature id; bundled
/// storage resolves it to its synthetic column internally.
///
/// `rows` must be ascending (guaranteed by the stable partition). A
/// contiguous row set (detected: `last - first + 1 == len`, e.g. all rows,
/// or one side of a contiguous partition) takes a sequential fast path with
/// no per-row prefetch and, for sparse storage, a direct CSC span walk.
pub fn col_scan(
    qm: &QuantizedMatrix,
    f: usize,
    rows: &[u32],
    grads: GradSource<'_>,
    bin_range: Range<usize>,
    hist_f: &mut [f64],
) -> u64 {
    if rows.is_empty() {
        return 0;
    }
    let contig = (rows[rows.len() - 1] - rows[0]) as usize + 1 == rows.len();
    match grads {
        GradSource::MemBuf(m) => {
            assert!(m.len() >= rows.len(), "MemBuf shorter than the row set");
            if contig {
                let r = ContigRows { base: rows[0], len: rows.len() };
                col_scan_body(qm, f, r, MemBufRead(m), bin_range, hist_f)
            } else {
                col_scan_body(qm, f, SliceRows(rows), MemBufRead(m), bin_range, hist_f)
            }
        }
        GradSource::Global(g) => {
            if contig {
                let r = ContigRows { base: rows[0], len: rows.len() };
                col_scan_body(qm, f, r, GlobalRead(g), bin_range, hist_f)
            } else {
                col_scan_body(qm, f, SliceRows(rows), GlobalRead(g), bin_range, hist_f)
            }
        }
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

    if let Some(pack) = qm.u4() {
        // Half the bin bytes of the u8 column. A nibble is valid iff it is
        // < n_bins(f): MISSING_NIBBLE (0xF) exceeds any packable width ≤ 15,
        // and a 16-bin feature only packs when its column has no missing.
        let pcol = pack.packed_col(f);
        if R::SEQUENTIAL {
            // Contiguous rows: each packed byte covers two consecutive
            // rows, so walk bytes and unpack both nibbles — half the loads
            // of the u8 column walk, all shifts constant.
            let base = rows.get(0) as usize;
            let end = base + n;
            if full_bins && pack.clean()[f] {
                // Missing-free column, whole bin range: every nibble is a
                // real in-range bin, so the walk is check-free.
                let mut row = base;
                if row & 1 == 1 {
                    let [g, h] = grads.get(0, row as u32);
                    // SAFETY: nibbles of a clean column are < n_bins.
                    unsafe {
                        PortableAcc::add(
                            hp,
                            usize::from(pcol[row >> 1] >> 4) * 2,
                            PortableAcc::pack(g, h),
                        )
                    };
                    row += 1;
                }
                while row + 2 <= end {
                    // SAFETY: row + 1 < end <= n_rows ⇒ row >> 1 <
                    // col_stride; clean nibbles are < n_bins.
                    unsafe {
                        let byte = *pcol.get_unchecked(row >> 1);
                        let [g, h] = grads.get(row - base, row as u32);
                        PortableAcc::add(hp, usize::from(byte & 0xF) * 2, PortableAcc::pack(g, h));
                        let [g, h] = grads.get(row + 1 - base, (row + 1) as u32);
                        PortableAcc::add(hp, usize::from(byte >> 4) * 2, PortableAcc::pack(g, h));
                    }
                    row += 2;
                }
                if row < end {
                    let [g, h] = grads.get(row - base, row as u32);
                    // SAFETY: as above.
                    unsafe {
                        PortableAcc::add(
                            hp,
                            usize::from(pcol[row >> 1] & 0xF) * 2,
                            PortableAcc::pack(g, h),
                        )
                    };
                }
                return n as u64;
            }
            let mut handle = |row: usize, nib: u8| {
                let b = nib as usize;
                if b < n_bins && (full_bins || bin_range.contains(&b)) {
                    let [g, h] = grads.get(row - base, row as u32);
                    // SAFETY: b < n_bins; buffer length asserted above.
                    unsafe { PortableAcc::add(hp, b * 2, PortableAcc::pack(g, h)) };
                    cells += 1;
                }
            };
            let mut row = base;
            if row & 1 == 1 {
                handle(row, pcol[row >> 1] >> 4);
                row += 1;
            }
            while row + 2 <= end {
                // SAFETY: row + 1 < end <= n_rows, so row >> 1 < col_stride.
                let byte = unsafe { *pcol.get_unchecked(row >> 1) };
                handle(row, byte & 0xF);
                handle(row + 1, byte >> 4);
                row += 2;
            }
            if row < end {
                handle(row, pcol[row >> 1] & 0xF);
            }
            return cells;
        }
        for i in 0..n {
            let row = rows.get(i) as usize;
            if i + PREFETCH_ROWS < n {
                prefetch_read(&pcol[rows.get(i + PREFETCH_ROWS) as usize >> 1]);
            }
            let b = ((pcol[row >> 1] >> ((row & 1) * 4)) & 0xF) as usize;
            if b >= n_bins {
                continue;
            }
            if !full_bins && !bin_range.contains(&b) {
                continue;
            }
            let [g, h] = grads.get(i, row as u32);
            // SAFETY: b < n_bins; buffer length asserted above.
            unsafe { PortableAcc::add(hp, b * 2, PortableAcc::pack(g, h)) };
            cells += 1;
        }
        return cells;
    }
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
            let [g, h] = grads.get(i, row);
            // SAFETY: b < n_bins (QuantizedMatrix invariant).
            unsafe { PortableAcc::add(hp, usize::from(b) * 2, PortableAcc::pack(g, h)) };
            cells += 1;
        }
        return cells;
    }
    if qm.is_bundled() {
        let slot = qm.mapper().bundles().expect("bundled storage has a map").slot(f);
        if slot.width == 0 {
            return 0;
        }
        let col = qm.bundled_col(slot.col as usize).expect("bundled storage");
        let (lo, hi) = (slot.offset, slot.offset + slot.width);
        for i in 0..n {
            let row = rows.get(i);
            if !R::SEQUENTIAL && i + PREFETCH_ROWS < n {
                prefetch_read(&col[rows.get(i + PREFETCH_ROWS) as usize]);
            }
            let b = u16::from(col[row as usize]);
            if b < lo || b >= hi {
                continue;
            }
            let local = usize::from(b - lo);
            if !full_bins && !bin_range.contains(&local) {
                continue;
            }
            let [g, h] = grads.get(i, row);
            // SAFETY: local < slot.width == n_bins(f).
            unsafe { PortableAcc::add(hp, local * 2, PortableAcc::pack(g, h)) };
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
                let [g, h] = grads.get((row - base) as usize, row);
                // SAFETY: b < n_bins (QuantizedMatrix invariant).
                unsafe { PortableAcc::add(hp, b * 2, PortableAcc::pack(g, h)) };
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
        let mut steps = 0usize;
        while k < col_rows.len() && col_rows[k] < row {
            k += 1;
            steps += 1;
            if steps == GALLOP_AFTER {
                k += col_rows[k..].partition_point(|&r| r < row);
                break;
            }
        }
        if k == col_rows.len() {
            break;
        }
        if col_rows[k] == row {
            let b = col_bins[k];
            if full_bins || bin_range.contains(&(b as usize)) {
                let [g, h] = grads.get(i, row);
                // SAFETY: b < n_bins (QuantizedMatrix invariant).
                unsafe { PortableAcc::add(hp, usize::from(b) * 2, PortableAcc::pack(g, h)) };
                cells += 1;
            }
            k += 1;
        }
    }
    cells
}

/// The scalar column-scan reference (per-cell gradient `match`, linear
/// merge cursor); see [`row_scan_scalar`]. The dense branch covers
/// u4-packed matrices (the pack rides on dense u8 storage).
pub fn col_scan_scalar(
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
    } else if qm.is_bundled() {
        let slot = qm.mapper().bundles().expect("bundled storage has a map").slot(f);
        if slot.width == 0 {
            return 0;
        }
        let col = qm.bundled_col(slot.col as usize).expect("bundled storage");
        let (lo, hi) = (slot.offset, slot.offset + slot.width);
        for (i, &row) in rows.iter().enumerate() {
            let b = u16::from(col[row as usize]);
            if b < lo || b >= hi {
                continue;
            }
            let local = usize::from(b - lo);
            if !full_bins && !bin_range.contains(&local) {
                continue;
            }
            let [g, h] = grads.get(i, row);
            hist_f[local * 2] += f64::from(g);
            hist_f[local * 2 + 1] += f64::from(h);
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

// ---------------------------------------------------------------------------
// Store-mediated scans (out-of-core chunk dispatch)
// ---------------------------------------------------------------------------

use harp_binning::{sweep_chunks, ChunkRun, QuantStore, Rows};

/// Narrows a cursor's gradient source to one of its runs: a MemBuf replica
/// is positional within the cursor, so the run's sub-slice stays aligned
/// with the chunk-local rows; the global array is row-id indexed, so
/// re-basing it at the chunk start makes chunk-local ids index correctly.
#[inline]
fn sub_grads<'a>(grads: GradSource<'a>, run: &ChunkRun<'_>) -> GradSource<'a> {
    match grads {
        GradSource::MemBuf(m) => GradSource::MemBuf(&m[run.pos.clone()]),
        GradSource::Global(g) => GradSource::Global(&g[run.start..]),
    }
}

/// Row-scans one run of a chunk sweep — where every store-mediated row scan
/// meets a kernel. `grads` belongs to the run's whole cursor. A list run
/// takes [`row_scan`], a range run the root fast path [`row_scan_root`].
pub(crate) fn row_scan_run(
    run: &ChunkRun<'_>,
    grads: GradSource<'_>,
    f_range: Range<usize>,
    hist: &mut [f64],
) -> u64 {
    let grads = sub_grads(grads, run);
    match &run.rows {
        Rows::List(rows) => row_scan(run.slab, rows, grads, f_range, hist),
        Rows::Range(rows) => row_scan_root(run.slab, rows.clone(), grads, f_range, hist),
    }
}

/// [`row_scan`] through a [`QuantStore`]: a [`sweep_chunks`] of the
/// ascending row list, whose chunk-ascending runs preserve the per-cell
/// row-ascending `f64` accumulation order, so the result is bitwise
/// identical to a monolithic scan — which is what the sweep's single step
/// over an in-memory store is. With `scalar`, every run takes the reference
/// [`row_scan_scalar`] instead, for callers that time or check the
/// specialized path against it; training always passes `false`.
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
                let grads = sub_grads(grads, run);
                row_scan_scalar(run.slab, run.rows.list(), grads, f_range.clone(), hist)
            } else {
                row_scan_run(run, grads, f_range.clone(), hist)
            };
        },
    );
    cells
}

/// [`row_scan_root`] through a [`QuantStore`]: contiguous global rows map
/// to contiguous chunk-local rows, so each chunk run keeps the root fast
/// path (no row-id list at all). A `GradSource::MemBuf` slice must be
/// aligned to `row_range` exactly as in [`row_scan_root`].
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

/// [`col_scan`] through a [`QuantStore`]; same sweep and determinism
/// argument as [`row_scan_store`]. A contiguous node row set stays
/// contiguous within every chunk run, so the per-chunk scans keep the
/// sequential fast paths.
pub fn col_scan_store(
    store: &dyn QuantStore,
    f: usize,
    rows: &[u32],
    grads: GradSource<'_>,
    bin_range: Range<usize>,
    hist_f: &mut [f64],
) -> u64 {
    let mut cells = 0u64;
    sweep_chunks(
        store,
        &[Rows::List(rows)],
        |_| {},
        |run| {
            let (rows, grads) = (run.rows.list(), sub_grads(grads, run));
            cells += col_scan(run.slab, f, rows, grads, bin_range.clone(), hist_f);
        },
    );
    cells
}

/// Estimated bytes moved per accumulation, for the memory-bound proxy:
/// 16 B GHSum read + 16 B write + 1 B bin + 8 B gradient.
pub const BYTES_PER_CELL: u64 = 41;

/// FLOPs per accumulation (one add each for g and h).
pub const FLOPS_PER_CELL: u64 = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use harp_binning::{BinningConfig, LayoutOptions};
    use harp_data::{CsrMatrix, DenseMatrix, FeatureMatrix};

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

    /// All features fit 16 bins, so the default layout attaches a u4 pack
    /// and `row_scan`/`col_scan` exercise the nibble paths.
    fn dense_qm() -> QuantizedMatrix {
        let qm = QuantizedMatrix::from_matrix(&dense_matrix(), BinningConfig::default());
        assert!(qm.u4().is_some(), "test fixture expects the u4 pack to engage");
        qm
    }

    /// The same matrix with compression off: the plain dense u8 kernels.
    fn dense_qm_u8() -> QuantizedMatrix {
        let qm = QuantizedMatrix::from_matrix_opts(
            &dense_matrix(),
            BinningConfig::default(),
            LayoutOptions::uncompressed(),
        );
        assert!(qm.u4().is_none());
        qm
    }

    fn sparse_qm() -> QuantizedMatrix {
        let m = FeatureMatrix::Sparse(CsrMatrix::from_rows(
            3,
            &[vec![(0, 1.0), (2, 4.0)], vec![(1, 2.0)], vec![(0, 2.0), (1, 3.0)], vec![(2, 5.0)]],
        ));
        let qm = QuantizedMatrix::from_matrix(&m, BinningConfig::default());
        assert!(!qm.is_bundled(), "3 features must stay plain sparse");
        qm
    }

    /// 32 rows × 16 one-hot-grouped features: bundling fuses each group of
    /// 4 mutually-exclusive features into one synthetic column.
    fn bundled_qm() -> QuantizedMatrix {
        let rows: Vec<Vec<(u32, f32)>> = (0..32)
            .map(|r| (0..4u32).map(|grp| (grp * 4 + (r + grp) % 4, (r % 3 + 1) as f32)).collect())
            .collect();
        let m = FeatureMatrix::Sparse(CsrMatrix::from_rows(16, &rows));
        let qm = QuantizedMatrix::from_matrix(&m, BinningConfig::default());
        assert!(qm.is_bundled(), "test fixture expects bundling to engage");
        qm
    }

    fn all_qms() -> Vec<QuantizedMatrix> {
        vec![dense_qm(), dense_qm_u8(), sparse_qm(), bundled_qm()]
    }

    fn grads(n: usize) -> Vec<GradPair> {
        (0..n).map(|i| [1.0 + i as f32, 0.5]).collect()
    }

    /// Padded buffer: real cells plus the per-feature sinks.
    fn hist_for(qm: &QuantizedMatrix) -> Vec<f64> {
        vec![0.0; qm.mapper().total_bins() as usize * 2 + sink_lanes(qm.n_features())]
    }

    /// Reference accumulation via the slow accessor (padded, sinks zero).
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
                    let cell = (qm.mapper().bin_offset(f) + u32::from(b)) as usize * 2;
                    hist[cell] += f64::from(g[row as usize][0]);
                    hist[cell + 1] += f64::from(g[row as usize][1]);
                }
            }
        }
        hist
    }

    #[test]
    fn row_scan_dense_matches_reference() {
        for qm in [dense_qm(), dense_qm_u8()] {
            let g = grads(6);
            let rows: Vec<u32> = vec![0, 2, 3, 5];
            let mut hist = hist_for(&qm);
            let cells = row_scan(&qm, &rows, GradSource::Global(&g), 0..3, &mut hist);
            assert_eq!(hist, reference(&qm, &rows, &g, 0..3));
            assert_eq!(cells, 12); // 4 rows x 3 features, none missing for these rows
        }
    }

    #[test]
    fn row_scan_skips_missing() {
        for qm in [dense_qm(), dense_qm_u8()] {
            let g = grads(6);
            let rows: Vec<u32> = vec![1, 4]; // rows with a missing feature-1 cell
            let mut hist = hist_for(&qm);
            let cells = row_scan(&qm, &rows, GradSource::Global(&g), 0..3, &mut hist);
            assert_eq!(cells, 4);
            assert_eq!(hist, reference(&qm, &rows, &g, 0..3));
        }
    }

    #[test]
    fn row_scan_strips_sink_cells() {
        for qm in [dense_qm(), dense_qm_u8()] {
            let g = grads(6);
            let rows: Vec<u32> = (0..6).collect();
            let mut hist = hist_for(&qm);
            row_scan(&qm, &rows, GradSource::Global(&g), 0..3, &mut hist);
            let total = qm.mapper().total_bins() as usize;
            assert!(hist[total * 2..].iter().all(|&x| x == 0.0), "sinks must leave zeroed");
        }
    }

    #[test]
    fn row_scan_feature_block_restricts_columns() {
        for qm in all_qms() {
            let n = qm.n_rows();
            let g = grads(n);
            let rows: Vec<u32> = (0..n as u32).collect();
            let mut hist = hist_for(&qm);
            row_scan(&qm, &rows, GradSource::Global(&g), 1..2, &mut hist);
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
                let cf = row_scan(&qm, &rows, GradSource::Global(&g), f_range.clone(), &mut fast);
                let cs = row_scan_scalar(&qm, &rows, GradSource::Global(&g), f_range, &mut scalar);
                assert_eq!(cf, cs);
                assert_eq!(fast, scalar);
            }
        }
    }

    #[test]
    fn row_scan_all_tiers_match_scalar_bitwise() {
        for qm in all_qms() {
            let n = qm.n_rows();
            let g = grads(n);
            let m = qm.n_features();
            let rows: Vec<u32> = (0..n as u32).collect();
            let mut scalar = hist_for(&qm);
            row_scan_scalar(&qm, &rows, GradSource::Global(&g), 0..m, &mut scalar);
            for tier in [SimdTier::Scalar, SimdTier::Avx2] {
                let mut fast = hist_for(&qm);
                row_scan_forced_tier(tier, &qm, &rows, GradSource::Global(&g), 0..m, &mut fast);
                assert_eq!(fast, scalar, "tier {} differs", tier.name());
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
        row_scan(&qm, &rows, GradSource::Global(&g), 1..3, &mut hist);
        assert_eq!(hist, reference(&qm, &rows, &g, 1..3));
    }

    #[test]
    fn row_scan_bundled_matches_reference_and_counts() {
        let qm = bundled_qm();
        let n = qm.n_rows();
        let g = grads(n);
        let rows: Vec<u32> = (0..n as u32).collect();
        let mut hist = hist_for(&qm);
        let cells = row_scan(&qm, &rows, GradSource::Global(&g), 0..16, &mut hist);
        assert_eq!(cells, 32 * 4, "one present feature per group per row");
        assert_eq!(hist, reference(&qm, &rows, &g, 0..16));
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
                let base = qm.mapper().bin_offset(f) as usize * 2;
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
        for qm in [dense_qm(), dense_qm_u8()] {
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
            let base = qm.mapper().bin_offset(f) as usize * 2;
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
    fn col_scan_all_tiers_match_scalar_bitwise() {
        for qm in all_qms() {
            let n = qm.n_rows();
            let g = grads(n);
            let rows: Vec<u32> = (0..n as u32).collect();
            for f in 0..qm.n_features() {
                let n_bins = qm.mapper().n_bins(f) as usize;
                let mut scalar = vec![0.0; n_bins * 2];
                col_scan_scalar(&qm, f, &rows, GradSource::Global(&g), 0..n_bins, &mut scalar);
                // One body serves every tier: a column scan accumulates one
                // cell per matching row, with no distinct pair to fold.
                let mut fast = vec![0.0; n_bins * 2];
                col_scan(&qm, f, &rows, GradSource::Global(&g), 0..n_bins, &mut fast);
                assert_eq!(fast, scalar, "feature {f}");
            }
        }
    }

    #[test]
    fn simd_tier_is_clamped_and_named() {
        let t = simd_tier();
        assert!(t <= detected_tier());
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
}
