//! What the two set-up passes share: the input both read, and how their
//! tasks are spread over threads.
//!
//! Set-up is raw features → trainable [`crate::QuantizedMatrix`]. Pass 1
//! ([`crate::mapper`]) cuts the features into one range per thread and
//! finds each range's cuts; pass 2 ([`crate::quantized`]) runs one task per
//! row block (dense) or feature range (sparse) and writes the bins. Every
//! task owns a disjoint slice of the output and no task's result depends on
//! which thread ran it, so the outcome is byte-identical at any thread
//! count. The chunk cache ([`crate::cache`]) is written and verified by
//! ⟨chunk-range⟩ tasks under the same rule.
//!
//! A sparse matrix adds three regions of ⟨row-block⟩ tasks around the two
//! passes, all over the same blocks ([`Scatter`]): before pass 1 every
//! block counts its entries per ⟨block, column⟩ and, after one prefix sum
//! over those counts, scatters its values into the column-major copy both
//! passes read; after pass 2 has binned them, the blocks walk the same
//! cursors back and scatter the row ids into the buffer that held the
//! values. Set-up never builds a row layout: the quantized matrix
//! transposes its CSC, or its dense column major, on first need.

use harp_data::{CsrMatrix, DenseMatrix, FeatureMatrix};
use std::marker::PhantomData;
use std::ops::Range;

/// Threads set-up runs on: one per available core.
pub(crate) fn setup_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Splits `0..n` into at most `parts` contiguous, non-empty ranges whose
/// lengths are multiples of `align` (the last one takes the remainder).
pub(crate) fn split_ranges(n: usize, parts: usize, align: usize) -> Vec<Range<usize>> {
    let units = n.div_ceil(align);
    let per_part = units.div_ceil(parts.max(1)).max(1) * align;
    (0..n).step_by(per_part).map(|start| start..(start + per_part).min(n)).collect()
}

/// Cuts `slice` into consecutive pieces of the given lengths — the disjoint
/// output slices the tasks of one pass own.
pub(crate) fn split_mut<T>(
    mut slice: &mut [T],
    lens: impl IntoIterator<Item = usize>,
) -> Vec<&mut [T]> {
    lens.into_iter()
        .map(|len| {
            let (piece, rest) = std::mem::take(&mut slice).split_at_mut(len);
            slice = rest;
            piece
        })
        .collect()
}

/// Runs every task to completion, the last one on the calling thread and the
/// others on scoped threads (so a single task spawns nothing). A panicking
/// task panics the caller once all have finished.
pub(crate) fn run_tasks<F: FnOnce() + Send>(tasks: Vec<F>) {
    std::thread::scope(|scope| {
        let mut tasks = tasks.into_iter();
        let on_caller = tasks.next_back();
        for task in tasks {
            scope.spawn(task);
        }
        if let Some(task) = on_caller {
            task();
        }
    });
}

/// Column-major copy of a CSR matrix's entries: one [`Scatter`] plan, then
/// one walk that places the values and the row ids together.
pub(crate) struct CscCopy<T> {
    /// Column start offsets into `rows`/`vals`; length `n_cols + 1`.
    pub indptr: Vec<usize>,
    /// Row ids, ascending within a column.
    pub rows: Vec<u32>,
    pub vals: Vec<T>,
}

/// The set-up input's column-major copy. Pass 1 reads each column's values
/// for the cut search and pass 2 quantizes them column-at-a-time (each
/// feature's cut table is touched once); then [`into_rows`](Self::into_rows)
/// scatters the row ids of the quantized CSC into the buffer that held the
/// values, so set-up holds one 4-byte array per entry, never two.
pub(crate) struct ValueCsc<'a> {
    /// Column start offsets into `vals`; length `n_cols + 1`.
    pub indptr: Vec<usize>,
    /// The entries' values, column by column, rows ascending in a column.
    pub vals: Vec<f32>,
    scatter: Scatter<'a>,
}

impl<'a> ValueCsc<'a> {
    /// Transposes the values of `csr` on at most `threads` threads.
    fn new(csr: &'a CsrMatrix, threads: usize) -> Self {
        let (row_ptr, cols, values) = csr.parts();
        let (indptr, mut scatter) = Scatter::plan(csr.n_cols(), row_ptr, cols, threads);
        let mut vals = vec![0f32; cols.len()];
        scatter.place(&mut vals, |_, i| values[i], None);
        Self { indptr, vals, scatter }
    }

    /// Entry range of column `f`.
    pub fn col(&self, f: usize) -> Range<usize> {
        self.indptr[f]..self.indptr[f + 1]
    }

    /// Trades the values for the entries' row ids, in the same allocation:
    /// the `(indptr, rows)` of the quantized CSC.
    pub fn into_rows(self) -> (Vec<usize>, Vec<u32>) {
        let Self { indptr, vals, mut scatter } = self;
        // `f32` and `u32` share size and alignment, so the collect reuses
        // the values' allocation (`value_buffer_becomes_the_row_ids` pins
        // it).
        let mut rows: Vec<u32> = vals.into_iter().map(f32::to_bits).collect();
        scatter.place(&mut rows, |r, _| r as u32, None);
        (indptr, rows)
    }
}

/// How many row blocks a transpose of `nnz` entries over `n_cols` columns
/// runs as: one per thread, but no more than keep the `blocks × n_cols`
/// cursor table under a quarter of the entries it places — a wide-and-short
/// matrix is transposed by fewer tasks, never through a table larger than
/// itself.
fn transpose_blocks(nnz: usize, n_cols: usize, threads: usize) -> usize {
    (nnz / (4 * n_cols.max(1))).clamp(1, threads.max(1))
}

/// A slice the tasks of one region write through `&self`, each at indices no
/// other task touches.
struct ScatterSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _exclusive: PhantomData<&'a mut [T]>,
}

// SAFETY: the wrapper stands for the `&mut [T]` it was made from (`Send`
// needs `T: Send`, as for that borrow). Sharing it hands out nothing but
// `write`, whose callers promise that no two threads name the same index, so
// no element is ever accessed from two threads at once.
unsafe impl<T: Send> Send for ScatterSlice<'_, T> {}
// SAFETY: as for `Send`: a shared `ScatterSlice` hands out only `write`, and
// its callers keep each index to one thread.
unsafe impl<T: Send> Sync for ScatterSlice<'_, T> {}

impl<'a, T> ScatterSlice<'a, T> {
    fn new(slice: &'a mut [T]) -> Self {
        Self { ptr: slice.as_mut_ptr(), len: slice.len(), _exclusive: PhantomData }
    }

    /// Stores `value` at `idx`.
    ///
    /// # Safety
    /// No other thread reads or writes element `idx` while `self` is shared.
    #[inline]
    unsafe fn write(&self, idx: usize, value: T) {
        assert!(idx < self.len, "scatter out of bounds");
        // SAFETY: in bounds (checked) of the exclusively borrowed slice;
        // unshared (caller). `T` is `Copy` at every call site, so the
        // overwritten element needs no drop.
        unsafe { self.ptr.add(idx).write(value) }
    }
}

/// Pairs every row block with its `n_cols` cursors of the block-major table.
fn block_cursors<'a>(
    blocks: &'a [Range<usize>],
    cursors: &'a mut [usize],
    n_cols: usize,
) -> impl Iterator<Item = (Range<usize>, &'a mut [usize])> {
    blocks.iter().cloned().zip(split_mut(cursors, blocks.iter().map(|_| n_cols)))
}

/// A counting sort of a CSR matrix's entries into column-major slots, run
/// as ⟨row-block⟩ tasks: every block counts its entries per column, one
/// prefix over the ⟨column, block⟩ counts (column-major, block-minor, so a
/// column's rows still ascend) gives each pair its slot range, and then
/// every [`place`](Self::place) walks each block's own rows through its own
/// cursors. Where a task's entries land depends on the blocks, what a slot
/// receives does not.
pub(crate) struct Scatter<'a> {
    row_ptr: &'a [usize],
    cols: &'a [u32],
    n_cols: usize,
    /// The row blocks the entries are placed by.
    blocks: Vec<Range<usize>>,
    /// `cursors[b * n_cols + c]`: where ⟨block `b`, column `c`⟩'s cursor
    /// stands — at the first slot of the pair's range, or one past its last
    /// once a walk went up.
    cursors: Vec<usize>,
    /// Whether the cursors stand at the ends of their ranges.
    at_end: bool,
}

impl<'a> Scatter<'a> {
    /// Counts the entries of the CSR arrays `(row_ptr, cols)` of a matrix
    /// with `n_cols` columns on at most `threads` threads; returns the
    /// column-major copy's `indptr` (length `n_cols + 1`) and the plan.
    ///
    /// # Panics
    /// Panics on a column id `>= n_cols` or a `row_ptr` that does not walk
    /// `0..cols.len()`.
    pub fn plan(
        n_cols: usize,
        row_ptr: &'a [usize],
        cols: &'a [u32],
        threads: usize,
    ) -> (Vec<usize>, Self) {
        let (n_rows, nnz) = (row_ptr.len().saturating_sub(1), cols.len());
        let blocks = split_ranges(n_rows, transpose_blocks(nnz, n_cols, threads), 1);

        // Entries per ⟨block, column⟩.
        let mut cursors = vec![0usize; blocks.len() * n_cols];
        let mut tasks = Vec::new();
        for (block, counts) in block_cursors(&blocks, &mut cursors, n_cols) {
            tasks.push(move || {
                for r in block {
                    for &c in &cols[row_ptr[r]..row_ptr[r + 1]] {
                        counts[c as usize] += 1;
                    }
                }
            });
        }
        run_tasks(tasks);

        // Counts to first slots, column-major and block-minor.
        let mut indptr = Vec::with_capacity(n_cols + 1);
        let mut slot = 0usize;
        for c in 0..n_cols {
            indptr.push(slot);
            for b in 0..blocks.len() {
                let count = std::mem::replace(&mut cursors[b * n_cols + c], slot);
                slot += count;
            }
        }
        indptr.push(slot);
        // The slot ranges of the ⟨block, column⟩ pairs now tile `0..slot`,
        // and every entry was counted once: what `place`'s writes rely on.
        assert_eq!(slot, nnz, "row_ptr does not walk the entries once");
        (indptr, Self { row_ptr, cols, n_cols, blocks, cursors, at_end: false })
    }

    /// Writes `item(r, i)` of every entry `i` (of row `r`) at the entry's
    /// slot of `out` and, given `rows`, `r` at the same slot of `rows`. A
    /// walk goes up its cursors, the next one walks the entries backwards
    /// and goes back down, so each leaves the cursors where the next one
    /// starts and every walk puts an entry in the same slot.
    pub fn place<T: Copy + Send>(
        &mut self,
        out: &mut [T],
        item: impl Fn(usize, usize) -> T + Sync,
        rows: Option<&mut [u32]>,
    ) {
        let nnz = self.cols.len();
        assert!(
            out.len() == nnz && rows.as_ref().is_none_or(|r| r.len() == nnz),
            "one slot per entry"
        );
        let (row_ptr, cols, down) = (self.row_ptr, self.cols, self.at_end);
        let (out, rows) = (ScatterSlice::new(out), rows.map(ScatterSlice::new));
        let mut tasks = Vec::new();
        for (block, cursor) in block_cursors(&self.blocks, &mut self.cursors, self.n_cols) {
            let (out, rows, item) = (&out, &rows, &item);
            tasks.push(move || {
                let mut put = |r: usize, i: usize| {
                    let at = &mut cursor[cols[i] as usize];
                    if down {
                        *at -= 1;
                    }
                    // SAFETY: `*at` is inside the slot range of this task's
                    // ⟨block, column⟩ pair. Going up, the cursor started at
                    // the range's first slot and has advanced once per entry
                    // of that column among the block's rows — the walk
                    // `plan` counted the range's length by; going down, it
                    // started one past the range's last slot, where the walk
                    // up left it, and has stepped back once per such entry.
                    // The ranges of distinct pairs are disjoint (one prefix
                    // sum laid them end to end) and this task alone holds
                    // this cursor, so no other thread names the slot.
                    unsafe {
                        out.write(*at, item(r, i));
                        if let Some(rows) = rows {
                            rows.write(*at, r as u32);
                        }
                    }
                    if !down {
                        *at += 1;
                    }
                };
                if down {
                    for r in block.rev() {
                        (row_ptr[r]..row_ptr[r + 1]).rev().for_each(|i| put(r, i));
                    }
                } else {
                    for r in block {
                        (row_ptr[r]..row_ptr[r + 1]).for_each(|i| put(r, i));
                    }
                }
            });
        }
        run_tasks(tasks);
        self.at_end = !down;
    }
}

impl<T: Copy + Default + Send + Sync> CscCopy<T> {
    /// Transposes the CSR arrays `(row_ptr, cols, vals)` of a matrix with
    /// `n_cols` columns on at most `threads` threads. A column-major copy is
    /// the CSR of the transposed matrix, so the same call turns a CSC back
    /// into a CSR.
    ///
    /// # Panics
    /// Panics on a column id `>= n_cols` or a `row_ptr` that does not walk
    /// `0..cols.len()`.
    pub fn transpose(
        n_cols: usize,
        row_ptr: &[usize],
        cols: &[u32],
        vals: &[T],
        threads: usize,
    ) -> Self {
        assert_eq!(vals.len(), cols.len(), "cols/vals length mismatch");
        let (indptr, mut scatter) = Scatter::plan(n_cols, row_ptr, cols, threads);
        let mut out = vec![T::default(); cols.len()];
        let mut rows = vec![0u32; cols.len()];
        scatter.place(&mut out, |_, i| vals[i], Some(&mut rows));
        Self { indptr, rows, vals: out }
    }
}

/// The input of both set-up passes: a dense matrix as it is, or a CSR
/// matrix with its column-major copy.
pub(crate) enum SetupInput<'a> {
    Dense(&'a DenseMatrix),
    Sparse(&'a CsrMatrix, ValueCsc<'a>),
}

impl<'a> SetupInput<'a> {
    /// Reads `matrix`; a sparse one is transposed on `threads` threads.
    pub fn new(matrix: &'a FeatureMatrix, threads: usize) -> Self {
        match matrix {
            FeatureMatrix::Dense(d) => Self::Dense(d),
            FeatureMatrix::Sparse(s) => Self::Sparse(s, ValueCsc::new(s, threads)),
        }
    }

    pub fn n_cols(&self) -> usize {
        match self {
            Self::Dense(d) => d.n_cols(),
            Self::Sparse(s, _) => s.n_cols(),
        }
    }

    /// Most present values column `f` can hold.
    pub fn column_len(&self, f: usize) -> usize {
        match self {
            Self::Dense(d) => d.n_rows(),
            Self::Sparse(_, csc) => csc.col(f).len(),
        }
    }

    /// Most present values any one column can hold — the size of a pass-1
    /// worker's buffer.
    pub fn max_column_len(&self) -> usize {
        (0..self.n_cols()).map(|f| self.column_len(f)).max().unwrap_or(0)
    }

    /// Visits the present values of column `f` (dense: a strided read that
    /// skips `NaN`; sparse: the column's CSC slice).
    pub fn for_each_in_col(&self, f: usize, mut visit: impl FnMut(f32)) {
        match self {
            Self::Dense(d) => {
                let (values, m) = (d.values(), d.n_cols());
                let last = values.len().saturating_sub(1);
                for at in (f..values.len()).step_by(m) {
                    prefetch_read(&values[(at + GATHER_AHEAD_ROWS * m).min(last)]);
                    let v = values[at];
                    if !v.is_nan() {
                        visit(v);
                    }
                }
            }
            Self::Sparse(_, csc) => csc.vals[csc.col(f)].iter().copied().for_each(visit),
        }
    }
}

/// How many rows ahead of the cell it reads the dense column gather asks
/// for: the strided sweep touches one cell per cache line or two, too far
/// apart for the hardware to run ahead of, and waits for each miss in turn.
const GATHER_AHEAD_ROWS: usize = 256;

/// Asks for `cell` to be brought into cache; a no-op off x86-64.
#[inline(always)]
fn prefetch_read(cell: &f32) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the address is that of a live reference, so it is in bounds;
    // the instruction is a hint that reads and writes nothing the program
    // can observe.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(cell).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = cell;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn split_ranges_cover_in_aligned_parts() {
        assert_eq!(split_ranges(10, 3, 1), vec![0..4, 4..8, 8..10]);
        assert_eq!(split_ranges(1000, 2, 256), vec![0..512, 512..1000]);
        assert_eq!(split_ranges(100, 4, 256), vec![0..100]);
        assert_eq!(split_ranges(3, 8, 1), vec![0..1, 1..2, 2..3]);
        assert_eq!(split_ranges(5, 0, 1), vec![0..5]);
        assert!(split_ranges(0, 4, 256).is_empty());
    }

    #[test]
    fn split_mut_cuts_consecutive_pieces() {
        let mut v = [1, 2, 3, 4, 5, 6];
        let pieces = split_mut(&mut v, [2, 0, 3]);
        assert_eq!(pieces, vec![&[1, 2][..], &[][..], &[3, 4, 5][..]]);
    }

    #[test]
    fn run_tasks_runs_each_task_once() {
        let mut hits = vec![0u32; 5];
        run_tasks(hits.iter_mut().map(|h| move || *h += 1).collect());
        assert_eq!(hits, vec![1; 5]);
        run_tasks(Vec::<fn()>::new());
    }

    /// The transpose as one thread's counting sort: the oracle of
    /// [`CscCopy::transpose`].
    fn serial_transpose(csr: &CsrMatrix) -> (Vec<usize>, Vec<u32>, Vec<f32>) {
        let (row_ptr, cols, values) = csr.parts();
        let m = csr.n_cols();
        let mut indptr = vec![0usize; m + 1];
        for &c in cols {
            indptr[c as usize + 1] += 1;
        }
        for c in 0..m {
            indptr[c + 1] += indptr[c];
        }
        let mut rows = vec![0u32; cols.len()];
        let mut vals = vec![0f32; cols.len()];
        let mut cursor = indptr[..m].to_vec();
        // CSR rows ascend, so each column's rows come out sorted.
        for r in 0..csr.n_rows() {
            for i in row_ptr[r]..row_ptr[r + 1] {
                let at = &mut cursor[cols[i] as usize];
                rows[*at] = r as u32;
                vals[*at] = values[i];
                *at += 1;
            }
        }
        (indptr, rows, vals)
    }

    fn transpose(csr: &CsrMatrix, threads: usize) -> CscCopy<f32> {
        let (row_ptr, cols, values) = csr.parts();
        CscCopy::transpose(csr.n_cols(), row_ptr, cols, values, threads)
    }

    /// `n_rows × n_cols` with each cell present with probability `density`,
    /// except in every `hole`-th row and column (left empty); cell `(r, c)`
    /// holds a value that names it.
    fn holed_matrix(n_rows: usize, n_cols: usize, density: f64, hole: usize) -> CsrMatrix {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64((n_rows * 31 + n_cols) as u64);
        let rows: Vec<Vec<(u32, f32)>> = (0..n_rows)
            .map(|r| {
                (0..n_cols)
                    .filter(|c| (r + 1) % hole != 0 && (c + 1) % hole != 0 && rng.gen_bool(density))
                    .map(|c| (c as u32, (r * n_cols + c) as f32))
                    .collect()
            })
            .collect();
        CsrMatrix::from_rows(n_cols, &rows)
    }

    /// The matrices of the transpose battery: holes, one column, more
    /// threads than rows, wider than long, many blocks over many columns,
    /// and no rows, columns or entries at all.
    pub(crate) fn holed_matrices() -> Vec<CsrMatrix> {
        vec![
            holed_matrix(97, 13, 0.6, 5),
            holed_matrix(400, 3, 0.9, 7),
            holed_matrix(64, 1, 1.0, 9),
            holed_matrix(5, 2, 1.0, 4),
            // Wider than its rows are long: the block rule allows one block.
            holed_matrix(6, 300, 0.2, 11),
            holed_matrix(40, 700, 0.5, 13),
            CsrMatrix::from_rows(4, &[]),
            CsrMatrix::from_rows(0, &[vec![], vec![]]),
            CsrMatrix::from_rows(3, &[vec![], vec![], vec![]]),
        ]
    }

    #[test]
    fn value_csc_is_the_transpose() {
        let csr = CsrMatrix::from_rows(
            3,
            &[vec![(0, 1.0), (2, 5.0)], vec![(1, 2.0)], vec![(0, 3.0), (1, 4.0), (2, 6.0)]],
        );
        let csc = transpose(&csr, 1);
        assert_eq!(csc.indptr, vec![0, 2, 4, 6]);
        assert_eq!(csc.rows, vec![0, 2, 1, 2, 0, 2]);
        assert_eq!(csc.vals, vec![1.0, 3.0, 2.0, 4.0, 5.0, 6.0]);
    }

    /// The ⟨row-block⟩ transpose equals the serial one at any thread count —
    /// a slot written twice, or by the wrong block, puts a wrong row id or
    /// value (or leaves a zero) where the oracle has the right one — and its
    /// cursor table holds the invariant the scatter's `unsafe` writes rest
    /// on, after the walk up and again after the walk back down. Set-up's
    /// copy (values up, row ids down into the same buffer) and the
    /// transpose of the transpose agree with it too.
    #[test]
    fn transpose_equals_the_serial_oracle_at_any_thread_count() {
        let mut most_blocks = 0;
        for csr in &holed_matrices() {
            let want = serial_transpose(csr);
            let (row_ptr, cols, values) = csr.parts();
            let m = csr.n_cols();
            for threads in [1, 2, 3, 7, 10_000] {
                let csc = transpose(csr, threads);
                assert_eq!((&csc.indptr, &csc.rows, &csc.vals), (&want.0, &want.1, &want.2));
                let back =
                    CscCopy::transpose(csr.n_rows(), &csc.indptr, &csc.rows, &csc.vals, threads);
                assert_eq!(
                    (&back.indptr[..], &back.rows[..], &back.vals[..]),
                    (row_ptr, cols, values)
                );

                let value_csc = ValueCsc::new(csr, threads);
                assert_eq!((&value_csc.indptr, &value_csc.vals), (&want.0, &want.2));
                assert_eq!(value_csc.into_rows(), (want.0.clone(), want.1.clone()));

                let (indptr, mut scatter) = Scatter::plan(m, row_ptr, cols, threads);
                let n_blocks = scatter.blocks.len();
                most_blocks = most_blocks.max(n_blocks);
                assert!(n_blocks <= threads && n_blocks * m <= csr.nnz().max(m));
                let covered: Vec<usize> = scatter.blocks.iter().flat_map(|b| b.clone()).collect();
                assert_eq!(covered, (0..csr.n_rows()).collect::<Vec<_>>());
                // The walk up moves every pair's cursor from its range's start
                // to its end: in column-major, block-minor order one pair's
                // end is the next one's start, from the column's first slot
                // to the next column's.
                let starts = scatter.cursors.clone();
                let mut slots = vec![f32::NAN; csr.nnz()];
                scatter.place(&mut slots, |_, i| values[i], None);
                assert_eq!(slots, want.2);
                for c in 0..m {
                    assert_eq!(starts.get(c).copied().unwrap_or(indptr[c]), indptr[c]);
                    for b in 0..n_blocks {
                        let end = scatter.cursors[b * m + c];
                        let next = starts.get((b + 1) * m + c).copied().unwrap_or(indptr[c + 1]);
                        assert!(
                            starts[b * m + c] <= end && end == next,
                            "pair ({b}, {c}) is not tiled"
                        );
                    }
                }
                let mut ids = vec![u32::MAX; csr.nnz()];
                scatter.place(&mut ids, |r, _| r as u32, None);
                assert_eq!(ids, want.1, "the walk down at {threads} threads");
                assert_eq!(scatter.cursors, starts, "the walk down returns every cursor");
            }
        }
        assert!(most_blocks >= 7, "the battery must reach many-block transposes");
    }

    /// The trade in [`ValueCsc::into_rows`] keeps the allocation: set-up's
    /// footprint counts one 4-byte array per entry, not two.
    #[test]
    fn value_buffer_becomes_the_row_ids() {
        let csr = holed_matrix(97, 13, 0.6, 5);
        let csc = ValueCsc::new(&csr, 2);
        let at = csc.vals.as_ptr() as usize;
        let (_, rows) = csc.into_rows();
        assert_eq!(rows.as_ptr() as usize, at);
    }

    #[test]
    fn transpose_block_rule_bounds_the_cursor_table() {
        // The benchmark's sparse shape: as many blocks as threads.
        assert_eq!(transpose_blocks(2_280_000, 4096, 2), 2);
        assert_eq!(transpose_blocks(2_280_000, 4096, 64), 64);
        assert_eq!(transpose_blocks(2_280_000, 4096, 1000), 139);
        // Wide and short: one block, whatever the thread count.
        assert_eq!(transpose_blocks(16_384, 262_144, 64), 1);
        assert_eq!(transpose_blocks(0, 0, 8), 1);
        assert_eq!(transpose_blocks(100, 1, 0), 1);
    }
}
