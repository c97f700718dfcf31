//! What the two set-up passes share: the input both read, and how their
//! tasks are spread over threads.
//!
//! Set-up is raw features → trainable [`crate::QuantizedMatrix`]. Pass 1
//! ([`crate::mapper`]) runs one task per feature and finds the cuts; pass 2
//! ([`crate::quantized`]) runs one task per row block (dense) or feature
//! range (sparse) and writes the bins. Every task owns a disjoint slice of
//! the output and no task's result depends on which thread ran it, so the
//! outcome is byte-identical at any thread count. The chunk cache
//! ([`crate::cache`]) is written and verified by ⟨chunk-range⟩ tasks under
//! the same rule.

use harp_data::{CsrMatrix, DenseMatrix, FeatureMatrix};
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

/// Column-major copy of a CSR matrix's entries, built by one counting sort.
/// Pass 1 reads each column's values for the cut search; pass 2 quantizes
/// them column-at-a-time (each feature's cut table is touched once) and
/// keeps `rows` as the row ids of the quantized CSC mirror.
pub(crate) struct ValueCsc {
    /// Column start offsets into `rows`/`vals`; length `n_cols + 1`.
    pub indptr: Vec<usize>,
    /// Row ids, ascending within a column.
    pub rows: Vec<u32>,
    pub vals: Vec<f32>,
}

impl ValueCsc {
    fn from_csr(csr: &CsrMatrix) -> Self {
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
        Self { indptr, rows, vals }
    }

    /// Entry range of column `f`.
    pub fn col(&self, f: usize) -> Range<usize> {
        self.indptr[f]..self.indptr[f + 1]
    }
}

/// The input of both set-up passes: a dense matrix as it is, or a CSR
/// matrix with its column-major copy.
pub(crate) enum SetupInput<'a> {
    Dense(&'a DenseMatrix),
    Sparse(&'a CsrMatrix, ValueCsc),
}

impl<'a> SetupInput<'a> {
    pub fn new(matrix: &'a FeatureMatrix) -> Self {
        match matrix {
            FeatureMatrix::Dense(d) => Self::Dense(d),
            FeatureMatrix::Sparse(s) => Self::Sparse(s, ValueCsc::from_csr(s)),
        }
    }

    pub fn n_cols(&self) -> usize {
        match self {
            Self::Dense(d) => d.n_cols(),
            Self::Sparse(s, _) => s.n_cols(),
        }
    }

    /// Most present values any one column can hold — the size of a pass-1
    /// worker's buffer.
    pub fn max_column_len(&self) -> usize {
        match self {
            Self::Dense(d) => d.n_rows(),
            Self::Sparse(_, csc) => csc.indptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0),
        }
    }

    /// Visits the present values of column `f` (dense: a strided read that
    /// skips `NaN`; sparse: the column's CSC slice).
    pub fn for_each_in_col(&self, f: usize, mut visit: impl FnMut(f32)) {
        match self {
            Self::Dense(d) => {
                for &v in d.values().iter().skip(f).step_by(d.n_cols()) {
                    if !v.is_nan() {
                        visit(v);
                    }
                }
            }
            Self::Sparse(_, csc) => csc.vals[csc.col(f)].iter().copied().for_each(visit),
        }
    }
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn value_csc_is_the_transpose() {
        let csr = CsrMatrix::from_rows(
            3,
            &[vec![(0, 1.0), (2, 5.0)], vec![(1, 2.0)], vec![(0, 3.0), (1, 4.0), (2, 6.0)]],
        );
        let csc = ValueCsc::from_csr(&csr);
        assert_eq!(csc.indptr, vec![0, 2, 4, 6]);
        assert_eq!(csc.rows, vec![0, 2, 1, 2, 0, 2]);
        assert_eq!(csc.vals, vec![1.0, 3.0, 2.0, 4.0, 5.0, 6.0]);
    }
}
