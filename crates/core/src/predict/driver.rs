//! The batch-prediction driver: row blocking, optional pool parallelism,
//! optional phase attribution.

use super::flat::FlatForest;
use super::kernel;
use crate::plan::{n_row_blocks, row_block};
use harp_binning::{sweep_chunks, QuantStore, Rows};
use harp_data::FeatureMatrix;
use harp_parallel::{PhaseClock, PhaseSpan, ThreadPool, TracePhase, TraceSink};

/// Default rows per block: small enough that a block's outputs stay in L1,
/// large enough to amortize streaming each tree's node arrays.
pub const DEFAULT_ROW_BLOCK: usize = 64;

/// A borrowed block of dense already-binned rows: row-major `u8` bin ids,
/// `harp_binning::MISSING_BIN` encoding missing. This is the shape the
/// serving protocol's quantized payload arrives in — no `BinMapper` is
/// needed because routing compares bins against each split's stored bin
/// threshold directly.
#[derive(Debug, Clone, Copy)]
pub struct BinRows<'a> {
    /// Number of rows.
    pub n_rows: usize,
    /// Columns per row; must be at least the model's feature count.
    pub n_cols: usize,
    /// Row-major bins, `n_rows * n_cols` long.
    pub bins: &'a [u8],
}

impl<'a> BinRows<'a> {
    /// Wraps a row-major bin buffer.
    ///
    /// # Panics
    /// Panics if the buffer length does not match the shape.
    pub fn new(n_rows: usize, n_cols: usize, bins: &'a [u8]) -> Self {
        assert_eq!(bins.len(), n_rows * n_cols, "bin buffer length mismatch");
        Self { n_rows, n_cols, bins }
    }
}

/// A configured scoring pass over a [`FlatForest`].
///
/// ```
/// # use harpgbdt::{GbdtTrainer, TrainParams};
/// # use harp_data::{DatasetKind, SynthConfig};
/// # let data = SynthConfig::new(DatasetKind::HiggsLike, 7).with_scale(0.02).generate();
/// # let params = TrainParams { n_trees: 3, tree_size: 3, n_threads: 1, ..Default::default() };
/// # let model = GbdtTrainer::new(params).unwrap().train(&data).model;
/// use harpgbdt::predict::Predictor;
/// let engine = model.compile();
/// let pool = harp_parallel::ThreadPool::new(2);
/// let raw = Predictor::new(&engine).with_pool(&pool).predict_raw(&data.features);
/// assert_eq!(raw, model.predict_raw(&data.features));
/// ```
pub struct Predictor<'a> {
    forest: &'a FlatForest,
    pool: Option<&'a ThreadPool>,
    clock: Option<&'a PhaseClock>,
    trace: Option<&'a TraceSink>,
    block_rows: usize,
}

impl<'a> Predictor<'a> {
    /// A serial predictor with the default block size.
    pub fn new(forest: &'a FlatForest) -> Self {
        Self { forest, pool: None, clock: None, trace: None, block_rows: DEFAULT_ROW_BLOCK }
    }

    /// Scores row blocks in parallel on `pool` (outputs stay bitwise
    /// identical to the serial pass: blocks are disjoint and accumulation
    /// order within a row never changes).
    pub fn with_pool(mut self, pool: &'a ThreadPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attributes scoring time to `clock`'s Predict entry (the phase next
    /// to BuildHist / FindSplit / ApplySplit in the time breakdown).
    pub fn with_breakdown(mut self, clock: &'a PhaseClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Records per-block Predict spans into the ledger (worker lanes when a
    /// pool is installed, the coordinator lane otherwise).
    pub fn with_trace(mut self, sink: &'a TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Overrides the rows-per-block granularity (minimum 1).
    pub fn block_rows(mut self, rows: usize) -> Self {
        self.block_rows = rows.max(1);
        self
    }

    /// Raw (margin) scores: length `n_rows` for scalar losses, row-major
    /// `n_rows × n_groups` for multiclass.
    ///
    /// # Panics
    /// Panics if `features` has fewer columns than the model's feature
    /// count — silently routing on wrong cells (a dense matrix narrower
    /// than the model reads the *next row's* values) is never acceptable.
    pub fn predict_raw(&self, features: &FeatureMatrix) -> Vec<f32> {
        self.check_features(features.n_cols());
        let mut out = self.base_filled(features.n_rows());
        self.run(features.n_rows(), &mut out, |lo, hi, dst| {
            kernel::score_block(self.forest, features, lo, hi, dst, self.forest.n_groups, 0);
        });
        out
    }

    /// Raw scores for already-binned rows behind any [`QuantStore`] — the
    /// in-memory [`harp_binning::QuantizedMatrix`] or a chunked store (the
    /// quantized fast path: routes on `u8` bins, no raw values needed). Each
    /// row block is scored against the chunk slabs it intersects, one
    /// [`sweep_chunks`] step per slab; per-row scoring never crosses a chunk
    /// boundary, so the output is bitwise identical whatever the chunking.
    ///
    /// # Panics
    /// Panics if `store` has fewer features than the model expects.
    pub fn predict_raw_store(&self, store: &dyn QuantStore) -> Vec<f32> {
        self.check_features(store.n_features());
        let stride = self.forest.n_groups;
        let mut out = self.base_filled(store.n_rows());
        self.run(store.n_rows(), &mut out, |lo, hi, dst| {
            sweep_chunks(
                store,
                &[Rows::Range(lo..hi)],
                |_| {},
                |run| {
                    let rows = run.rows.range();
                    kernel::score_block_binned(
                        self.forest,
                        run.slab,
                        rows.start,
                        rows.end,
                        &mut dst[run.pos.start * stride..run.pos.end * stride],
                        stride,
                        0,
                    );
                },
            );
        });
        out
    }

    /// Raw scores for dense already-binned rows — the serving protocol's
    /// quantized payload: row-major `u8` bin ids routed on each split's bin
    /// threshold exactly like [`predict_raw_store`](Self::predict_raw_store),
    /// with `harp_binning::MISSING_BIN` following the default direction.
    ///
    /// # Panics
    /// Panics if `rows` has fewer columns than the model's feature count.
    pub fn predict_raw_bin_rows(&self, rows: &BinRows<'_>) -> Vec<f32> {
        self.check_features(rows.n_cols);
        let mut out = self.base_filled(rows.n_rows);
        self.run(rows.n_rows, &mut out, |lo, hi, dst| {
            kernel::score_block_bin_rows(
                self.forest,
                rows.bins,
                rows.n_cols,
                lo,
                hi,
                dst,
                self.forest.n_groups,
                0,
            );
        });
        out
    }

    /// Response-scale predictions (probabilities for logistic/softmax,
    /// identity for squared error).
    pub fn predict(&self, features: &FeatureMatrix) -> Vec<f32> {
        self.forest.loss().transform_scores(&self.predict_raw(features))
    }

    /// Argmax class per row (0.5-thresholded binary decision for scalar
    /// losses).
    pub fn predict_class(&self, features: &FeatureMatrix) -> Vec<u32> {
        self.forest.classes_from_raw(&self.predict_raw(features))
    }

    /// Adds tree contributions (no base score) into group `offset` of a
    /// row-major `n × stride` score buffer — the trainer's incremental
    /// evaluation shape.
    ///
    /// # Panics
    /// Panics if `preds.len() != features.n_rows() * stride`,
    /// `offset + n_groups > stride`, or `features` is narrower than the
    /// model's feature count.
    pub fn accumulate_raw(
        &self,
        features: &FeatureMatrix,
        preds: &mut [f32],
        stride: usize,
        offset: usize,
    ) {
        self.check_features(features.n_cols());
        let n = features.n_rows();
        assert_eq!(preds.len(), n * stride, "prediction buffer shape mismatch");
        assert!(offset + self.forest.n_groups() <= stride, "group offset out of range");
        self.run_strided(n, preds, stride, |lo, hi, dst| {
            kernel::score_block(self.forest, features, lo, hi, dst, stride, offset);
        });
    }

    /// The feature-count guard shared by every scoring entry point. Wider
    /// matrices are fine (extra columns are ignored, matching the CLI);
    /// narrower ones would silently route on the wrong cells.
    fn check_features(&self, n_cols: usize) {
        assert!(
            n_cols >= self.forest.n_features,
            "feature count mismatch: input has {} columns but the model expects {}",
            n_cols,
            self.forest.n_features
        );
    }

    fn base_filled(&self, n_rows: usize) -> Vec<f32> {
        let g = self.forest.n_groups();
        let mut out = vec![0.0f32; n_rows * g];
        for row in out.chunks_exact_mut(g) {
            row.copy_from_slice(self.forest.base_scores());
        }
        out
    }

    fn run(&self, n_rows: usize, out: &mut [f32], score: impl Fn(usize, usize, &mut [f32]) + Sync) {
        self.run_strided(n_rows, out, self.forest.n_groups(), score);
    }

    /// Drives `score` over row blocks; `out` is row-major `n × stride` and
    /// each call receives the sub-slice for its block.
    fn run_strided(
        &self,
        n_rows: usize,
        out: &mut [f32],
        stride: usize,
        score: impl Fn(usize, usize, &mut [f32]) + Sync,
    ) {
        let _phase = PhaseSpan::begin(None, 0, TracePhase::Predict, 0, 0, self.clock);
        let block = self.block_rows;
        let n_blocks = n_row_blocks(n_rows, block);
        let trace = self.trace;
        match self.pool {
            Some(pool) if n_blocks > 1 => {
                struct Ptr(*mut f32);
                unsafe impl Send for Ptr {}
                unsafe impl Sync for Ptr {}
                impl Ptr {
                    fn get(&self) -> *mut f32 {
                        self.0
                    }
                }
                let ptr = Ptr(out.as_mut_ptr());
                pool.parallel_for(n_blocks, |b, w| {
                    let _span = trace.map(|s| s.span(w, TracePhase::Predict, 0, b as u32));
                    let rows = row_block(b, block, n_rows);
                    let (lo, hi) = (rows.start, rows.end);
                    // SAFETY: blocks cover disjoint row ranges of `out`.
                    let dst = unsafe {
                        std::slice::from_raw_parts_mut(
                            ptr.get().add(lo * stride),
                            (hi - lo) * stride,
                        )
                    };
                    score(lo, hi, dst);
                });
            }
            _ => {
                let _span = trace
                    .map(|s| s.span(s.coordinator_lane(), TracePhase::Predict, 0, n_blocks as u32));
                for b in 0..n_blocks {
                    let rows = row_block(b, block, n_rows);
                    let (lo, hi) = (rows.start, rows.end);
                    score(lo, hi, &mut out[lo * stride..hi * stride]);
                }
            }
        }
    }
}
