//! Labeled datasets: features + binary labels, splitting and statistics.

use crate::matrix::FeatureMatrix;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;

/// A labeled dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable name, e.g. `"higgs-like"`.
    pub name: String,
    /// Feature matrix.
    pub features: FeatureMatrix,
    /// One label per row. Binary tasks use `{0.0, 1.0}`; regression tasks use
    /// arbitrary values; ranking tasks use graded relevances.
    pub labels: Vec<f32>,
    /// Consecutive query-group sizes for ranking tasks (`None` for row-wise
    /// tasks). When present, the sizes sum to `n_rows()` and rows of one
    /// query are contiguous.
    pub query_groups: Option<Vec<u32>>,
}

impl Dataset {
    /// Creates a dataset, checking that labels and rows line up.
    ///
    /// # Panics
    /// Panics if `labels.len() != features.n_rows()`.
    pub fn new(name: impl Into<String>, features: FeatureMatrix, labels: Vec<f32>) -> Self {
        assert_eq!(labels.len(), features.n_rows(), "one label per row required");
        Self { name: name.into(), features, labels, query_groups: None }
    }

    /// Attaches consecutive query-group sizes (ranking tasks).
    ///
    /// # Panics
    /// Panics if the sizes do not sum to the row count or any group is
    /// empty.
    pub fn with_query_groups(mut self, groups: Vec<u32>) -> Self {
        let total: usize = groups.iter().map(|&s| s as usize).sum();
        assert_eq!(total, self.n_rows(), "query-group sizes must sum to the row count");
        assert!(groups.iter().all(|&s| s > 0), "query groups must be non-empty");
        self.query_groups = Some(groups);
        self
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.features.n_cols()
    }

    /// Extracts the rows in `idx` into a new dataset. Query groups do not
    /// survive arbitrary row selection and are dropped; use
    /// [`split_queries`](Self::split_queries) to subset ranking data.
    pub fn select_rows(&self, idx: &[u32]) -> Self {
        Self {
            name: self.name.clone(),
            features: self.features.select_rows(idx),
            labels: idx.iter().map(|&r| self.labels[r as usize]).collect(),
            query_groups: None,
        }
    }

    /// Random train/test split; `test_fraction` of rows (rounded down) go to
    /// the test set. Deterministic for a fixed `seed`.
    ///
    /// # Panics
    /// Panics on ranking data (row-level shuffling would tear queries
    /// apart) — use [`split_queries`](Self::split_queries) instead.
    pub fn split(&self, test_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(
            self.query_groups.is_none(),
            "row-level split would tear query groups apart; use split_queries"
        );
        assert!((0.0..1.0).contains(&test_fraction), "test_fraction must be in [0, 1)");
        let mut idx: Vec<u32> = (0..self.n_rows() as u32).collect();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        let n_test = (self.n_rows() as f64 * test_fraction) as usize;
        let (test_idx, train_idx) = idx.split_at(n_test);
        let mut train_idx = train_idx.to_vec();
        let mut test_idx = test_idx.to_vec();
        // Sort back to row order so row-locality (and stable-partition
        // determinism downstream) is preserved.
        train_idx.sort_unstable();
        test_idx.sort_unstable();
        (self.select_rows(&train_idx), self.select_rows(&test_idx))
    }

    /// Train/test split of ranking data by whole queries: `test_fraction`
    /// of the query groups (rounded down) go to the test set, keeping every
    /// query intact and re-attaching group sizes to both halves.
    /// Deterministic for a fixed `seed`.
    ///
    /// # Panics
    /// Panics if the dataset carries no query groups.
    pub fn split_queries(&self, test_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        let groups = self.query_groups.as_ref().expect("split_queries needs query groups");
        assert!((0.0..1.0).contains(&test_fraction), "test_fraction must be in [0, 1)");
        let mut q_idx: Vec<u32> = (0..groups.len() as u32).collect();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        q_idx.shuffle(&mut rng);
        let n_test = (groups.len() as f64 * test_fraction) as usize;
        let (test_q, train_q) = q_idx.split_at(n_test);
        // Row offset of each query.
        let mut offsets = Vec::with_capacity(groups.len());
        let mut acc = 0u32;
        for &sz in groups {
            offsets.push(acc);
            acc += sz;
        }
        let part = |qs: &[u32]| -> Dataset {
            // Keep query order so row-locality is preserved, like split().
            let mut qs = qs.to_vec();
            qs.sort_unstable();
            let mut rows = Vec::new();
            let mut sizes = Vec::with_capacity(qs.len());
            for &q in &qs {
                let (off, sz) = (offsets[q as usize], groups[q as usize]);
                rows.extend(off..off + sz);
                sizes.push(sz);
            }
            self.select_rows(&rows).with_query_groups(sizes)
        };
        (part(train_q), part(test_q))
    }

    /// Shape and balance statistics (the data-side half of Table III).
    pub fn stats(&self) -> DatasetStats {
        let n = self.n_rows();
        let positives = self.labels.iter().filter(|&&y| y > 0.5).count();
        DatasetStats {
            name: self.name.clone(),
            n_rows: n,
            n_features: self.n_features(),
            density: self.features.density(),
            positive_rate: if n == 0 { 0.0 } else { positives as f64 / n as f64 },
        }
    }
}

/// Summary statistics of a dataset.
#[derive(Debug, Clone, Serialize)]
pub struct DatasetStats {
    /// Dataset name.
    pub name: String,
    /// `N` in Table III.
    pub n_rows: usize,
    /// `M` in Table III.
    pub n_features: usize,
    /// `S` in Table III.
    pub density: f64,
    /// Fraction of positive labels.
    pub positive_rate: f64,
}

impl std::fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<14} N={:<9} M={:<6} S={:.2} pos={:.2}",
            self.name, self.n_rows, self.n_features, self.density, self.positive_rate
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DenseMatrix;

    fn tiny(n: usize) -> Dataset {
        let values: Vec<f32> = (0..n * 2).map(|i| i as f32).collect();
        let labels: Vec<f32> = (0..n).map(|i| (i % 2) as f32).collect();
        Dataset::new("tiny", FeatureMatrix::Dense(DenseMatrix::from_vec(n, 2, values)), labels)
    }

    #[test]
    fn split_partitions_all_rows() {
        let d = tiny(100);
        let (train, test) = d.split(0.25, 7);
        assert_eq!(train.n_rows(), 75);
        assert_eq!(test.n_rows(), 25);
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let d = tiny(50);
        let (a, _) = d.split(0.2, 42);
        let (b, _) = d.split(0.2, 42);
        assert_eq!(a.labels, b.labels);
        let (c, _) = d.split(0.2, 43);
        assert_ne!(a.labels, c.labels, "different seeds should differ (w.h.p.)");
    }

    #[test]
    fn split_keeps_rows_and_labels_aligned() {
        let d = tiny(40);
        let (train, test) = d.split(0.5, 1);
        for part in [train, test] {
            for r in 0..part.n_rows() {
                // feature 0 of row i in `tiny` equals 2*i; label = i % 2.
                let f0 = part.features.get(r, 0).unwrap();
                let orig_row = (f0 / 2.0) as usize;
                assert_eq!(part.labels[r], (orig_row % 2) as f32);
            }
        }
    }

    #[test]
    fn stats_reports_shape_and_balance() {
        let d = tiny(10);
        let s = d.stats();
        assert_eq!(s.n_rows, 10);
        assert_eq!(s.n_features, 2);
        assert!((s.positive_rate - 0.5).abs() < 1e-9);
        assert!((s.density - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one label per row")]
    fn label_row_mismatch_panics() {
        let m = FeatureMatrix::Dense(DenseMatrix::from_vec(2, 1, vec![0.0, 1.0]));
        let _ = Dataset::new("bad", m, vec![1.0]);
    }

    #[test]
    fn query_groups_attach() {
        let d = tiny(10).with_query_groups(vec![4, 3, 3]);
        assert_eq!(d.query_groups.as_deref(), Some(&[4, 3, 3][..]));
    }

    #[test]
    #[should_panic(expected = "sum to the row count")]
    fn bad_query_group_sizes_panic() {
        let _ = tiny(10).with_query_groups(vec![4, 4]);
    }

    #[test]
    #[should_panic(expected = "use split_queries")]
    fn row_split_of_ranking_data_panics() {
        let _ = tiny(10).with_query_groups(vec![5, 5]).split(0.2, 1);
    }

    #[test]
    fn split_queries_keeps_queries_intact() {
        // Queries of distinct sizes so halves are identifiable.
        let d = tiny(60).with_query_groups(vec![10, 20, 5, 15, 7, 3]);
        let (train, test) = d.split_queries(0.33, 9);
        let tg = train.query_groups.as_ref().unwrap();
        let sg = test.query_groups.as_ref().unwrap();
        assert_eq!(tg.len() + sg.len(), 6);
        assert_eq!(
            tg.iter().chain(sg).map(|&s| s as usize).sum::<usize>(),
            60,
            "every row lands in exactly one half"
        );
        assert_eq!(train.n_rows(), tg.iter().map(|&s| s as usize).sum::<usize>());
        // Rows inside a query stay contiguous: labels alternate 0/1 in
        // `tiny`, and feature 0 of row i is 2*i, so within each group the
        // f0 values must be consecutive even numbers.
        let mut start = 0usize;
        for &sz in tg {
            let f0: Vec<f32> = (start..start + sz as usize)
                .map(|r| train.features.get(r, 0).unwrap())
                .collect();
            for w in f0.windows(2) {
                assert_eq!(w[1] - w[0], 2.0, "query torn apart: {f0:?}");
            }
            start += sz as usize;
        }
        // Deterministic per seed.
        let (again, _) = d.split_queries(0.33, 9);
        assert_eq!(again.labels, train.labels);
    }
}
