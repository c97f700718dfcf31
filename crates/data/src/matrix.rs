//! Dense and sparse feature matrices.
//!
//! Raw feature values are `f32`; missing entries are `f32::NAN` in the dense
//! layout and simply absent in the CSR layout. Downstream, `harp-binning`
//! quantizes either layout into `u8` bin ids (the paper's 1-byte Input
//! representation, §IV-E).

/// Dense row-major feature matrix. Missing values are `NaN`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n_rows: usize,
    n_cols: usize,
    values: Vec<f32>,
}

impl DenseMatrix {
    /// Creates a matrix from row-major `values` (`n_rows * n_cols` long).
    ///
    /// # Panics
    /// Panics if the buffer length does not match the shape.
    pub fn from_vec(n_rows: usize, n_cols: usize, values: Vec<f32>) -> Self {
        assert_eq!(values.len(), n_rows * n_cols, "dense buffer length mismatch");
        Self { n_rows, n_cols, values }
    }

    /// Creates an all-missing matrix.
    pub fn filled_missing(n_rows: usize, n_cols: usize) -> Self {
        Self { n_rows, n_cols, values: vec![f32::NAN; n_rows * n_cols] }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns (features).
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// The value at `(row, col)`; `NaN` encodes missing.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        self.values[row * self.n_cols + col]
    }

    /// Sets the value at `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, v: f32) {
        self.values[row * self.n_cols + col] = v;
    }

    /// Borrow of one row.
    pub fn row(&self, row: usize) -> &[f32] {
        &self.values[row * self.n_cols..(row + 1) * self.n_cols]
    }

    /// Raw row-major buffer.
    pub fn values(&self) -> &[f32] {
        &self.values
    }
}

/// Compressed sparse row matrix; absent entries are missing. An explicit
/// `NaN` entry is dropped at construction, so "present" always means "has a
/// value" — the same reading the dense layout and the CSV loader give `NaN`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    /// Row start offsets into `indices`/`values`; length `n_rows + 1`.
    indptr: Vec<usize>,
    /// Column indices, strictly increasing within a row.
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Creates a CSR matrix from raw parts. Entries whose value is `NaN` are
    /// treated as missing and removed.
    ///
    /// # Panics
    /// Panics if the parts are inconsistent (offsets non-monotonic, lengths
    /// mismatched, column indices out of range or non-increasing in a row).
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        let mut m = Self { n_rows, n_cols, indptr, indices, values };
        m.assert_consistent();
        if m.values.iter().any(|v| v.is_nan()) {
            m.drop_nan_entries();
        }
        m
    }

    /// The checks of [`from_parts`](Self::from_parts).
    fn assert_consistent(&self) {
        let Self { n_rows, n_cols, indptr, indices, values } = self;
        assert_eq!(indptr.len(), n_rows + 1, "indptr length must be n_rows + 1");
        assert_eq!(indices.len(), values.len(), "indices/values length mismatch");
        assert_eq!(*indptr.last().unwrap_or(&0), indices.len(), "indptr must end at nnz");
        for r in 0..*n_rows {
            assert!(indptr[r] <= indptr[r + 1], "indptr must be monotonic");
            let row = &indices[indptr[r]..indptr[r + 1]];
            for pair in row.windows(2) {
                assert!(pair[0] < pair[1], "column indices must be strictly increasing in a row");
            }
            if let Some(&last) = row.last() {
                assert!((last as usize) < *n_cols, "column index out of range");
            }
        }
    }

    /// The rows in `idx` (any order, repeats allowed) as a matrix. Rows of a
    /// consistent matrix are consistent and hold no `NaN`, so the arrays are
    /// assembled from the source slices as they are.
    fn select_rows(&self, idx: &[u32]) -> Self {
        let nnz = idx.iter().map(|&r| self.indptr[r as usize + 1] - self.indptr[r as usize]).sum();
        let mut indptr = Vec::with_capacity(idx.len() + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        indptr.push(0);
        for &r in idx {
            let span = self.indptr[r as usize]..self.indptr[r as usize + 1];
            indices.extend_from_slice(&self.indices[span.clone()]);
            values.extend_from_slice(&self.values[span]);
            indptr.push(indices.len());
        }
        let m = Self { n_rows: idx.len(), n_cols: self.n_cols, indptr, indices, values };
        #[cfg(debug_assertions)]
        m.assert_consistent();
        m
    }

    /// `self` on top of `other` (same column count): the arrays
    /// concatenated, `other`'s offsets moved past `self`'s entries.
    fn vstack(&self, other: &Self) -> Self {
        let indptr = self
            .indptr
            .iter()
            .copied()
            .chain(other.indptr[1..].iter().map(|&p| p + self.nnz()));
        let m = Self {
            n_rows: self.n_rows + other.n_rows,
            n_cols: self.n_cols,
            indptr: indptr.collect(),
            indices: [&self.indices[..], &other.indices].concat(),
            values: [&self.values[..], &other.values].concat(),
        };
        #[cfg(debug_assertions)]
        m.assert_consistent();
        m
    }

    /// Compacts `NaN` entries out of `indices`/`values` and re-bases `indptr`.
    fn drop_nan_entries(&mut self) {
        let mut kept = 0;
        let mut start = 0;
        for r in 0..self.n_rows {
            let end = self.indptr[r + 1];
            for i in start..end {
                if !self.values[i].is_nan() {
                    self.indices[kept] = self.indices[i];
                    self.values[kept] = self.values[i];
                    kept += 1;
                }
            }
            start = end;
            self.indptr[r + 1] = kept;
        }
        self.indices.truncate(kept);
        self.values.truncate(kept);
    }

    /// Builds a CSR matrix from per-row `(col, value)` pairs (each row's
    /// pairs must be sorted by column).
    pub fn from_rows(n_cols: usize, rows: &[Vec<(u32, f32)>]) -> Self {
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        indptr.push(0usize);
        let nnz: usize = rows.iter().map(|r| r.len()).sum();
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for row in rows {
            for &(c, v) in row {
                indices.push(c);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        Self::from_parts(rows.len(), n_cols, indptr, indices, values)
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored (present) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The raw `(indptr, indices, values)` arrays: row `r` owns entries
    /// `indptr[r]..indptr[r + 1]`, columns strictly ascending within a row.
    pub fn parts(&self) -> (&[usize], &[u32], &[f32]) {
        (&self.indptr, &self.indices, &self.values)
    }

    /// The `(col, value)` pairs of one row.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let span = self.indptr[row]..self.indptr[row + 1];
        self.indices[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }

    /// The `(cols, values)` slices of one row — the borrow the batch
    /// prediction kernel binary-searches instead of re-resolving `indptr`
    /// per node visit.
    #[inline]
    pub fn row_slices(&self, row: usize) -> (&[u32], &[f32]) {
        let span = self.indptr[row]..self.indptr[row + 1];
        (&self.indices[span.clone()], &self.values[span])
    }

    /// The value at `(row, col)`, or `None` if missing. Binary search.
    pub fn get(&self, row: usize, col: usize) -> Option<f32> {
        let span = self.indptr[row]..self.indptr[row + 1];
        let cols = &self.indices[span.clone()];
        cols.binary_search(&(col as u32)).ok().map(|i| self.values[span.start + i])
    }
}

/// A feature matrix in either dense or sparse layout.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureMatrix {
    /// Row-major dense storage, `NaN` = missing.
    Dense(DenseMatrix),
    /// CSR sparse storage, absent = missing.
    Sparse(CsrMatrix),
}

impl FeatureMatrix {
    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        match self {
            Self::Dense(m) => m.n_rows(),
            Self::Sparse(m) => m.n_rows(),
        }
    }

    /// Number of columns (features).
    pub fn n_cols(&self) -> usize {
        match self {
            Self::Dense(m) => m.n_cols(),
            Self::Sparse(m) => m.n_cols(),
        }
    }

    /// The value at `(row, col)`; `None` means missing.
    pub fn get(&self, row: usize, col: usize) -> Option<f32> {
        match self {
            Self::Dense(m) => {
                let v = m.get(row, col);
                if v.is_nan() {
                    None
                } else {
                    Some(v)
                }
            }
            Self::Sparse(m) => m.get(row, col),
        }
    }

    /// Number of present (non-missing) entries.
    pub fn n_present(&self) -> usize {
        match self {
            Self::Dense(m) => m.values().iter().filter(|v| !v.is_nan()).count(),
            Self::Sparse(m) => m.nnz(),
        }
    }

    /// Density `S = #present / (N * M)` — Table III's sparseness statistic.
    pub fn density(&self) -> f64 {
        let cells = self.n_rows() * self.n_cols();
        if cells == 0 {
            0.0
        } else {
            self.n_present() as f64 / cells as f64
        }
    }

    /// Visits every present entry of `row` as `(col, value)`.
    pub fn for_each_in_row(&self, row: usize, mut f: impl FnMut(u32, f32)) {
        match self {
            Self::Dense(m) => {
                for (c, &v) in m.row(row).iter().enumerate() {
                    if !v.is_nan() {
                        f(c as u32, v);
                    }
                }
            }
            Self::Sparse(m) => {
                for (c, v) in m.row(row) {
                    f(c, v);
                }
            }
        }
    }

    /// Extracts the rows in `idx` (in order) into a new matrix of the same
    /// layout.
    pub fn select_rows(&self, idx: &[u32]) -> Self {
        match self {
            Self::Dense(m) => {
                let mut values = Vec::with_capacity(idx.len() * m.n_cols());
                for &r in idx {
                    values.extend_from_slice(m.row(r as usize));
                }
                Self::Dense(DenseMatrix::from_vec(idx.len(), m.n_cols(), values))
            }
            Self::Sparse(m) => Self::Sparse(m.select_rows(idx)),
        }
    }

    /// Vertically stacks `self` on top of `other`.
    ///
    /// # Panics
    /// Panics if column counts differ or the layouts differ.
    pub fn vstack(&self, other: &Self) -> Self {
        assert_eq!(self.n_cols(), other.n_cols(), "vstack requires equal column counts");
        match (self, other) {
            (Self::Dense(a), Self::Dense(b)) => {
                let mut values = a.values().to_vec();
                values.extend_from_slice(b.values());
                Self::Dense(DenseMatrix::from_vec(a.n_rows() + b.n_rows(), a.n_cols(), values))
            }
            (Self::Sparse(a), Self::Sparse(b)) => Self::Sparse(a.vstack(b)),
            _ => panic!("vstack requires matching layouts"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dense() -> FeatureMatrix {
        FeatureMatrix::Dense(DenseMatrix::from_vec(
            2,
            3,
            vec![1.0, f32::NAN, 3.0, 4.0, 5.0, f32::NAN],
        ))
    }

    fn small_sparse() -> FeatureMatrix {
        FeatureMatrix::Sparse(CsrMatrix::from_rows(
            3,
            &[vec![(0, 1.0), (2, 3.0)], vec![(0, 4.0), (1, 5.0)]],
        ))
    }

    #[test]
    fn dense_get_and_missing() {
        let m = small_dense();
        assert_eq!(m.get(0, 0), Some(1.0));
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.get(1, 2), None);
    }

    #[test]
    fn sparse_get_and_missing() {
        let m = small_sparse();
        assert_eq!(m.get(0, 2), Some(3.0));
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.get(1, 1), Some(5.0));
    }

    #[test]
    fn density_counts_present_cells() {
        assert!((small_dense().density() - 4.0 / 6.0).abs() < 1e-12);
        assert!((small_sparse().density() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn dense_and_sparse_row_visits_agree() {
        let d = small_dense();
        let s = small_sparse();
        for r in 0..2 {
            let mut dv = vec![];
            let mut sv = vec![];
            d.for_each_in_row(r, |c, v| dv.push((c, v)));
            s.for_each_in_row(r, |c, v| sv.push((c, v)));
            assert_eq!(dv, sv);
        }
    }

    #[test]
    fn select_rows_reorders_and_duplicates() {
        let m = small_dense();
        let sel = m.select_rows(&[1, 0, 1]);
        assert_eq!(sel.n_rows(), 3);
        assert_eq!(sel.get(0, 0), Some(4.0));
        assert_eq!(sel.get(1, 0), Some(1.0));
        assert_eq!(sel.get(2, 1), Some(5.0));
    }

    #[test]
    fn select_rows_sparse_preserves_entries() {
        let m = small_sparse();
        let sel = m.select_rows(&[1]);
        assert_eq!(sel.n_rows(), 1);
        assert_eq!(sel.get(0, 0), Some(4.0));
        assert_eq!(sel.get(0, 2), None);
    }

    #[test]
    fn vstack_dense() {
        let m = small_dense();
        let both = m.vstack(&m);
        assert_eq!(both.n_rows(), 4);
        assert_eq!(both.get(2, 0), Some(1.0));
    }

    #[test]
    fn vstack_sparse() {
        let m = small_sparse();
        let both = m.vstack(&m);
        assert_eq!(both.n_rows(), 4);
        assert_eq!(both.n_present(), 8);
    }

    /// `select_rows` and `vstack` assemble CSR arrays from the source slices;
    /// the result equals the per-row `from_rows` construction they replaced,
    /// on random matrices with empty rows, repeats and reordering.
    #[test]
    fn sparse_select_rows_and_vstack_equal_the_per_row_construction() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        fn random(rng: &mut StdRng, n_rows: usize, n_cols: u32) -> Vec<Vec<(u32, f32)>> {
            (0..n_rows)
                .map(|r| {
                    let density = if r % 3 == 0 { 0.0 } else { rng.gen_range(0.1..0.9) };
                    let present: Vec<u32> = (0..n_cols).filter(|_| rng.gen_bool(density)).collect();
                    present.into_iter().map(|c| (c, rng.gen())).collect()
                })
                .collect()
        }
        for (n_a, n_b, n_cols) in [(17, 9, 6), (1, 0, 3), (0, 4, 5), (0, 0, 0), (40, 40, 1)] {
            let (rows_a, rows_b) = (random(&mut rng, n_a, n_cols), random(&mut rng, n_b, n_cols));
            let sparse = |rows: &[Vec<(u32, f32)>]| {
                FeatureMatrix::Sparse(CsrMatrix::from_rows(n_cols as usize, rows))
            };
            let (a, b) = (sparse(&rows_a), sparse(&rows_b));
            assert_eq!(a.vstack(&b), sparse(&[rows_a.clone(), rows_b].concat()));
            let idx: Vec<u32> = (0..3 * n_a).map(|_| rng.gen_range(0..n_a) as u32).collect();
            let picked: Vec<_> = idx.iter().map(|&r| rows_a[r as usize].clone()).collect();
            assert_eq!(a.select_rows(&idx), sparse(&picked));
            assert_eq!(a.select_rows(&[]), sparse(&[]));
        }
    }

    #[test]
    fn csr_nan_entries_are_missing() {
        let m = CsrMatrix::from_rows(
            3,
            &[vec![(0, f32::NAN), (2, 3.0)], vec![(1, f32::NAN)], vec![(0, 4.0), (1, f32::NAN)]],
        );
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.parts(), (&[0, 1, 1, 2][..], &[2, 0][..], &[3.0, 4.0][..]));
        assert_eq!(m.get(0, 0), None);
        assert_eq!(m.get(0, 2), Some(3.0));
        assert_eq!(m.row(1).count(), 0);
        let mut seen = vec![];
        FeatureMatrix::Sparse(m).for_each_in_row(2, |c, v| seen.push((c, v)));
        assert_eq!(seen, vec![(0, 4.0)]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dense_shape_mismatch_panics() {
        let _ = DenseMatrix::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn csr_unsorted_row_panics() {
        let _ = CsrMatrix::from_parts(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn csr_col_out_of_range_panics() {
        let _ = CsrMatrix::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]);
    }
}
