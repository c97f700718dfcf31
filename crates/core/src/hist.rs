//! GHSum histogram buffers, reduction, subtraction and the caching rule.
//!
//! A node's histogram ("GHSum", Fig. 5) is one flat `f64` buffer of
//! interleaved `(Σg, Σh)` cells, feature-major: feature `f` owns the lanes
//! [`lanes`]`(f..f + 1)`, its `n_bins(f)` cells followed by one *sink cell*,
//! so `cell(f, b) = (bin_offset(f) + f + b) * 2` and the buffer is
//! `(total_bins + n_features) * 2` lanes wide. A batch of nodes is simply a
//! batch of such buffers — the ⟨node, feature, bin⟩ cube of §IV-A with the
//! node axis unrolled — and a feature block is one contiguous lane range,
//! which lets block tasks own private pieces of a buffer with no atomics.
//!
//! The sink cell is the branch-free missing-value target of the dense
//! row-scan kernel ([`crate::kernels::row_scan_store`]), which zeroes it
//! before the buffer leaves the kernel, so every consumer (reduction,
//! subtraction, FindSplit) sees zeros there and the cell is inert. Sparse
//! stores have no missing sentinel and never write it; they share the
//! layout so that one lane function serves every store.
//!
//! [`HistPool`] recycles buffers and rules which candidate histograms are
//! kept for the parent−sibling subtraction trick, which skips half of
//! BuildHist. The growth queue holds each kept histogram with its candidate
//! ([`crate::growth::GrowthQueue`]), so the queue's order alone decides what
//! is dropped: a candidate that can never pop takes its histogram with it,
//! and under the pool's byte budget ([`HIST_CACHE_BYTES`] in training) the
//! lowest-ranked histogram goes. The pool keeps a node only where the
//! subtraction is the cheaper way to the node's larger child
//! ([`min_cached_rows`], one formula for dense and CSR stores, which on a
//! dense store prices that child at its smallest, half the node's rows, so
//! every subtraction it pays for saves at least the cells it reads): below
//! that size both children are scanned. [`HistPool::files`] is the same
//! decision asked ahead of the build, which lets the Exclusive executor
//! (`trainer::drivers`) give a full-width buffer only to a histogram that
//! can be filed and keep every other one in its schedule slot's scratch.
//! [`ScratchPool`] is the arena the schedule slots draw their lanes from:
//! replicas — lanes for the jobs of a batch that are cut into several row
//! blocks — and the scratch tiles of an Exclusive batch survive across
//! frontiers and trees, and come back zeroed from the fold that reads them
//! or the tile body that searched them, so reuse clears nothing.

use harp_metrics::{MemGauge, MemTable};
use harp_parallel::Profile;
use std::ops::Range;
use std::sync::Arc;

/// Byte budget of the histograms the trainer's growth queue holds. The
/// queue never holds more than the tree has leaves left to spend, which
/// costs nothing; under this budget it gives up the histograms of the
/// candidates it would pop last, and those may miss.
pub const HIST_CACHE_BYTES: usize = 512 << 20;

/// Width in `f64` lanes of one node histogram: `total_bins` cells plus one
/// sink cell per feature, two lanes each.
fn hist_width(total_bins: u32, n_features: usize) -> usize {
    (total_bins as usize + n_features) * 2
}

/// Width in `f64` lanes of one node histogram of `store`.
pub fn hist_width_for(store: &dyn harp_binning::QuantStore) -> usize {
    hist_width(store.mapper().total_bins(), store.n_features())
}

/// The first lane of feature `f` (`f == n_features`: the width).
pub fn lane(mapper: &harp_binning::BinMapper, f: usize) -> usize {
    (mapper.bin_offset(f) as usize + f) * 2
}

/// The lanes of features `features`: each feature's bin cells, then its
/// sink cell.
pub fn lanes(mapper: &harp_binning::BinMapper, features: Range<usize>) -> Range<usize> {
    lane(mapper, features.start)..lane(mapper, features.end)
}

/// The fewest rows a node must have for its histogram to be cached.
///
/// The cached histogram has one reader: `large child = parent − small
/// child`, a pass over `total_bins` cells that saves the scan of the larger
/// child — its rows times the store's stored cells per row, a row's stored
/// cells being [`QuantStore::stored_cells`](harp_binning::QuantStore::stored_cells)
/// over the store's rows (the columns of a dense row, the mean entry count
/// of a CSR row). The larger child is not known when the histogram is
/// filed, only the node's own row count, which is at hand again when the
/// node is split, so both ends decide alike — as do all four modes, the rule
/// being a function of the row count and the store alone. How that count
/// prices the larger child depends on the layout:
///
/// * dense: at its smallest, half the node's rows. The histogram is kept
///   only where `rows ÷ 2 × n_features > total_bins`, so every subtraction
///   the pool pays for saves at least the cells it reads; between that and
///   the node's full row count a scanned cell costs about what a subtracted
///   bin does, and the histogram is not worth the memory it holds;
/// * CSR: at the node's full row count, `rows × stored_cells ÷ n_rows >
///   total_bins`. An Exclusive column scan of a sparse column costs tens of
///   subtracted bins per stored entry, so every histogram this holds
///   already pays, and the halved price would scan the root's larger child.
///
/// On a wide sparse matrix the rule is most of the point: a 4 096-feature
/// histogram of a million bins is not worth keeping for a node whose rows
/// hold a few thousand entries.
pub fn min_cached_rows(store: &dyn harp_binning::QuantStore) -> usize {
    let larger_child_share = if store.is_dense() { 2 } else { 1 };
    let priced_bins = larger_child_share * u64::from(store.mapper().total_bins());
    min_rows_out_scanning(priced_bins, store.n_rows(), store.stored_cells())
}

/// Smallest `rows` with `rows × stored_cells ÷ n_rows > bins`:
/// `⌊bins × n_rows ÷ stored_cells⌋ + 1`.
fn min_rows_out_scanning(bins: u64, n_rows: usize, stored_cells: u64) -> usize {
    (u128::from(bins) * n_rows as u128 / u128::from(stored_cells.max(1))) as usize + 1
}

/// Zeroes a histogram buffer.
pub fn zero(buf: &mut [f64]) {
    buf.fill(0.0);
}

/// `dst += src`, cell-wise — the replica reduction of data parallelism.
///
/// # Panics
/// Panics if lengths differ.
pub fn reduce_into(dst: &mut [f64], src: &[f64]) {
    assert_eq!(dst.len(), src.len(), "histogram width mismatch in reduce");
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `large = parent − small`, cell-wise — the histogram subtraction trick.
///
/// # Panics
/// Panics if lengths differ.
pub fn subtract(parent: &[f64], small: &[f64], large: &mut [f64]) {
    assert_eq!(parent.len(), small.len(), "histogram width mismatch in subtract");
    assert_eq!(parent.len(), large.len(), "histogram width mismatch in subtract");
    for i in 0..parent.len() {
        large[i] = parent[i] - small[i];
    }
}

/// In-place variant: `buf = buf − small` (reuses the parent's buffer for the
/// large child).
pub fn subtract_in_place(buf: &mut [f64], small: &[f64]) {
    assert_eq!(buf.len(), small.len(), "histogram width mismatch in subtract");
    for (b, s) in buf.iter_mut().zip(small) {
        *b -= s;
    }
}

/// A buffer handed out by [`HistPool::alloc`], still holding whatever its
/// last use left in it. Handing out is a pop, cheap enough for a critical
/// section; [`zeroed`](Self::zeroed), the only way to the lanes, is the
/// width-sized part and needs no lock.
pub struct StaleHist {
    /// `None`: the free list was empty and the buffer is yet to be allocated.
    recycled: Option<Vec<f64>>,
    width: usize,
}

impl StaleHist {
    /// The buffer, zero-filled.
    pub fn zeroed(self) -> Vec<f64> {
        match self.recycled {
            Some(mut buf) => {
                zero(&mut buf);
                buf
            }
            None => vec![0.0; self.width],
        }
    }
}

/// Buffer recycler plus the caching rule of candidate histograms: which
/// histograms the growth queue may hold, and how many.
pub struct HistPool {
    width: usize,
    /// Nodes with fewer rows are never cached ([`min_cached_rows`]).
    min_cached_rows: usize,
    free: Vec<Vec<f64>>,
    /// Histograms the growth queue holds ([`hold`](Self::hold)).
    held: usize,
    budget_bytes: usize,
    /// Hit/miss/eviction/trim counters (cache traffic shows up in the run
    /// ledger).
    profile: Arc<Profile>,
    /// `hist_pool`: the bytes this pool ever allocated (free + held +
    /// outstanding; monotone, since buffers circulate rather than drop).
    /// `hist_cache`: the bytes held in the growth queue.
    mem: Arc<MemTable>,
}

impl HistPool {
    /// Creates a pool for a dense matrix of `n_features` columns and
    /// `total_bins` bins that caches nodes of `min_cached_rows` rows or more,
    /// with a cache budget of `budget_bytes`, counting its cache traffic in
    /// `profile` and its bytes in `mem`. Training sizes and rules its pool
    /// by the store ([`for_store`](Self::for_store)).
    pub fn new(
        total_bins: u32,
        n_features: usize,
        min_cached_rows: usize,
        budget_bytes: usize,
        profile: Arc<Profile>,
        mem: Arc<MemTable>,
    ) -> Self {
        let width = hist_width(total_bins, n_features);
        Self::with_shape(width, min_cached_rows, budget_bytes, profile, mem)
    }

    /// Creates a pool sized and ruled for `store`'s layout
    /// ([`hist_width_for`], [`min_cached_rows`]).
    pub fn for_store(
        store: &dyn harp_binning::QuantStore,
        budget_bytes: usize,
        profile: Arc<Profile>,
        mem: Arc<MemTable>,
    ) -> Self {
        let (width, min_cached_rows) = (hist_width_for(store), min_cached_rows(store));
        Self::with_shape(width, min_cached_rows, budget_bytes, profile, mem)
    }

    fn with_shape(
        width: usize,
        min_cached_rows: usize,
        budget_bytes: usize,
        profile: Arc<Profile>,
        mem: Arc<MemTable>,
    ) -> Self {
        Self { width, min_cached_rows, free: Vec::new(), held: 0, budget_bytes, profile, mem }
    }

    /// Histogram lane count.
    pub fn width(&self) -> usize {
        self.width
    }

    fn entry_bytes(&self) -> u64 {
        self.width as u64 * 8
    }

    /// Hands out a buffer, reusing a returned one when possible. No
    /// width-sized work happens here: the caller zero-fills it
    /// ([`StaleHist::zeroed`]) once it is out of any lock the pool sits
    /// behind.
    pub fn alloc(&mut self) -> StaleHist {
        let recycled = self.free.pop();
        if recycled.is_none() {
            self.mem.hist_pool.add(self.entry_bytes());
        }
        StaleHist { recycled, width: self.width }
    }

    /// Whether a node of `rows` rows has its histogram cached — asked with
    /// the same count when the node is filed and when it is split.
    pub fn caches(&self, rows: usize) -> bool {
        rows >= self.min_cached_rows
    }

    /// How many histograms the byte budget holds.
    fn byte_cap(&self) -> usize {
        self.budget_bytes.checked_div(self.width * 8).unwrap_or(usize::MAX)
    }

    /// Whether the histogram of a node of `rows` rows, built with
    /// `remaining` leaves unspent, can be filed at all — the question an
    /// executor asks *before* it builds, because a histogram that cannot be
    /// filed needs no full-width buffer: [`caches`](Self::caches), a byte
    /// budget that holds at least one, and a leaf left to spend on it.
    /// (Whether it then *is* kept still depends on its candidate's rank,
    /// which [`GrowthQueue::push`](crate::growth::GrowthQueue::push)
    /// settles.)
    pub fn files(&self, rows: usize, remaining: usize) -> bool {
        remaining > 0 && self.byte_cap() > 0 && self.caches(rows)
    }

    /// Returns a buffer to the free list.
    pub fn release(&mut self, buf: Vec<f64>) {
        debug_assert_eq!(buf.len(), self.width);
        self.free.push(buf);
    }

    /// The histogram of a node of `rows` rows, for its candidate in the
    /// growth queue to hold for a later subtraction — unless the node is too
    /// small for the subtraction to pay ([`caches`](Self::caches)) or the
    /// byte budget is zero, which disables caching (and therefore
    /// subtraction): then the buffer is recycled and the split will scan
    /// both children.
    pub fn keep(&mut self, hist: Vec<f64>, rows: usize) -> Option<Vec<f64>> {
        if self.byte_cap() == 0 || !self.caches(rows) {
            self.release(hist);
            return None;
        }
        Some(hist)
    }

    /// Whether the byte budget has room for one more histogram held.
    pub(crate) fn has_room(&self) -> bool {
        self.held < self.byte_cap()
    }

    /// Counts a histogram into those the growth queue holds.
    pub(crate) fn hold(&mut self) {
        self.held += 1;
        self.mem.hist_cache.add(self.entry_bytes());
    }

    /// Counts a histogram out of those the growth queue holds.
    pub(crate) fn unhold(&mut self) {
        self.held -= 1;
        self.mem.hist_cache.sub(self.entry_bytes());
    }

    /// A node of `rows` rows is being split, its candidate holding `hist`:
    /// counts the lookup and hands the histogram over. A node too small to
    /// have been cached is not looked up — that is a decline, not a miss.
    pub fn lookup(&mut self, hist: Option<Vec<f64>>, rows: usize) -> Option<Vec<f64>> {
        if !self.caches(rows) {
            self.profile.add_hist_cache_declined();
            return None;
        }
        self.profile.add_hist_cache_lookup(hist.is_some());
        if hist.is_some() {
            self.unhold();
        }
        hist
    }

    /// Recycles a histogram whose candidate ranks beyond the leaves left:
    /// nothing will ever read it.
    pub(crate) fn trim(&mut self, hist: Vec<f64>) {
        self.profile.add_hist_cache_trimmed(1);
        self.release(hist);
    }

    /// Recycles a histogram the byte budget has no room for: its candidate
    /// may still pop, and will miss.
    pub(crate) fn evict(&mut self, hist: Vec<f64>) {
        self.profile.add_hist_cache_evictions(1);
        self.release(hist);
    }
}

/// Reusable arena of schedule-slot lanes: DP replicas and Exclusive scratch
/// tiles. They survive across frontiers and trees, and a buffer in the arena
/// holds zeros: the replica fold zeroes every lane it reads, the tile body
/// every scratch lane it searched, and the kernels leave nothing else
/// written. So
/// [`acquire`](Self::acquire) hands a buffer out as it is — the equivalent of
/// a fresh `vec![0.0; len]` without the allocation or a clear.
#[derive(Default)]
pub struct ScratchPool {
    free: Vec<Vec<f64>>,
}

impl ScratchPool {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out a zeroed buffer of at least `len` lanes, adding the bytes
    /// of any capacity it allocates to `gauge` (monotone, since buffers
    /// circulate rather than drop). Returns the buffer and whether a heap
    /// allocation (fresh buffer or capacity growth) occurred — the
    /// profiling signal for the steady-state zero-alloc guarantee.
    pub fn acquire(&mut self, len: usize, gauge: &MemGauge) -> (Vec<f64>, bool) {
        let Some(mut buf) = self.free.pop() else {
            let buf = vec![0.0; len];
            gauge.add((buf.capacity() * 8) as u64);
            return (buf, true);
        };
        let grown = buf.capacity() < len;
        if grown {
            let before = buf.capacity();
            // Round up so repeated small growth amortizes.
            buf.reserve(len.next_power_of_two() - buf.len());
            gauge.add(((buf.capacity() - before) * 8) as u64);
        }
        if buf.len() < len {
            // Within capacity this is a fill, not an allocation; the new
            // lanes start at exactly +0.0 like a fresh buffer.
            buf.resize(len, 0.0);
        }
        (buf, grown)
    }

    /// Returns a buffer to the arena. It must hold zeros: the next
    /// [`acquire`](Self::acquire) hands it out as it is.
    pub fn release(&mut self, buf: Vec<f64>) {
        debug_assert!(buf.iter().all(|&x| x == 0.0), "a replica came back written");
        self.free.push(buf);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::growth::{Candidate, GrowthQueue};
    use crate::params::GrowthMethod;
    use crate::split::SplitCandidate;
    use crate::tree::{NodeId, NodeStats, SplitData};

    /// No leaf-budget bound: only the byte budget limits what is held.
    const UNBOUNDED: usize = usize::MAX;

    /// A node large enough to be cached whatever the pool's shape.
    const ROWS: usize = usize::MAX;

    fn leafwise() -> GrowthQueue {
        GrowthQueue::new(GrowthMethod::Leafwise)
    }

    /// Files `node`'s histogram the way the frontier does: kept if the pool
    /// caches a node of `rows` rows, then queued with its candidate at
    /// `depth` and `gain` under `remaining` leaves left.
    fn file(
        queue: &mut GrowthQueue,
        pool: &mut HistPool,
        node: NodeId,
        rows: usize,
        hist: Vec<f64>,
        (depth, gain): (u32, f64),
        remaining: usize,
    ) {
        let split = SplitData { feature: 0, bin: 0, threshold: 0.0, default_left: false, gain };
        let stats = NodeStats::default();
        let cand = SplitCandidate { split, left: stats, right: stats };
        let hist = pool.keep(hist, rows);
        queue.push(Candidate { node, depth, cand, hist }, remaining, pool);
    }

    /// Splits every queued candidate of [`ROWS`] rows, best first: each
    /// node with the first lane of its histogram, if it held one.
    fn split_all(queue: &mut GrowthQueue, pool: &mut HistPool) -> Vec<(NodeId, Option<f64>)> {
        let popped = queue.pop_batch(usize::MAX);
        popped
            .into_iter()
            .map(|c| {
                let lane = pool.lookup(c.hist, ROWS).map(|hist| {
                    let lane = hist[0];
                    pool.release(hist);
                    lane
                });
                (c.node, lane)
            })
            .collect()
    }
    #[test]
    fn reduce_adds_cellwise() {
        let mut a = vec![1.0, 2.0, 3.0];
        reduce_into(&mut a, &[10.0, 20.0, 30.0]);
        assert_eq!(a, vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn subtract_forms_sibling() {
        let parent = vec![5.0, 7.0];
        let small = vec![2.0, 3.0];
        let mut large = vec![0.0; 2];
        subtract(&parent, &small, &mut large);
        assert_eq!(large, vec![3.0, 4.0]);
        let mut buf = parent.clone();
        subtract_in_place(&mut buf, &small);
        assert_eq!(buf, large);
    }

    #[test]
    fn width_includes_sink_cells() {
        use harp_binning::{BinMapper, FeatureCuts};
        assert_eq!(hist_width(4, 3), 8 + 6);
        assert_eq!(hist_width(4, 0), 8);
        // Each feature owns its bins, then its sink: three bins, an
        // all-missing column (no bins) and two bins.
        let mapper = BinMapper::from_cuts(
            [3, 0, 2]
                .iter()
                .map(|&n| FeatureCuts { cuts: (0..n).map(|i| i as f32).collect() })
                .collect(),
        );
        assert_eq!(lanes(&mapper, 0..1), 0..8);
        assert_eq!(lanes(&mapper, 1..2), 8..10, "a 0-bin feature owns its sink alone");
        assert_eq!(lanes(&mapper, 2..3), 10..16);
        assert_eq!(lanes(&mapper, 0..3).end, hist_width(mapper.total_bins(), 3));
    }

    #[test]
    fn pool_reuses_buffers_zeroed() {
        let mut pool = HistPool::new(4, 0, 0, 1 << 20, Arc::default(), Arc::default());
        let mut b = pool.alloc().zeroed();
        assert_eq!(b.len(), 8);
        b[3] = 9.0;
        pool.release(b);
        let b2 = pool.alloc().zeroed();
        assert!(b2.iter().all(|&x| x == 0.0), "reused buffer must be zeroed");
    }

    #[test]
    fn small_nodes_are_declined_not_cached_and_not_looked_up() {
        let (profile, mem) = (Arc::new(Profile::new()), Arc::new(MemTable::default()));
        let mut queue = leafwise();
        // A pool that caches nodes of 17 rows or more.
        let mut pool = HistPool::new(64, 4, 17, 1 << 20, Arc::clone(&profile), Arc::clone(&mem));
        assert!(!pool.caches(16) && pool.caches(17));
        let buf = pool.alloc().zeroed();
        file(&mut queue, &mut pool, 1, 16, buf, (0, 9.0), UNBOUNDED);
        assert_eq!((queue.len(), queue.held()), (1, 0));
        // The refused buffer went back to the free list.
        let buf = pool.alloc().zeroed();
        assert_eq!(mem.hist_pool.current(), (buf.len() * 8) as u64);
        file(&mut queue, &mut pool, 2, 17, buf, (0, 1.0), UNBOUNDED);
        let [small, large]: [Candidate; 2] = queue.pop_batch(2).try_into().unwrap();
        assert!(pool.lookup(small.hist, 16).is_none());
        assert!(pool.lookup(large.hist, 17).is_some());
        let c = profile.snapshot();
        assert_eq!((c.hist_cache_declined, c.hist_cache_hits, c.hist_cache_misses), (1, 1, 0));
        assert_eq!(c.hist_cache_trimmed + c.hist_cache_evictions, 0);
    }

    #[test]
    fn a_pop_that_takes_nothing_trims_to_the_budget() {
        let profile = Arc::new(Profile::new());
        let mut queue = leafwise();
        let mut pool = HistPool::new(64, 4, 17, 1 << 20, Arc::clone(&profile), Arc::default());
        // Two leaves left and three candidates: a 3-row node, never cached,
        // ranks first, so the lower of the two cached ones can never pop. It
        // goes with its histogram when it is pushed — not later, when the
        // 3-row node's pop takes nothing out.
        file(&mut queue, &mut pool, 9, 3, vec![0.0; 136], (0, 9.0), 2);
        file(&mut queue, &mut pool, 1, 17, vec![0.0; 136], (0, 5.0), 2);
        file(&mut queue, &mut pool, 2, 17, vec![0.0; 136], (0, 1.0), 2);
        assert_eq!((queue.len(), queue.held()), (2, 1));
        let [first, second]: [Candidate; 2] = queue.pop_batch(2).try_into().unwrap();
        assert!(pool.lookup(first.hist, 3).is_none());
        assert!(pool.lookup(second.hist, 17).is_some());
        let c = profile.snapshot();
        assert_eq!((c.hist_cache_declined, c.hist_cache_trimmed, c.hist_cache_hits), (1, 1, 1));
        assert_eq!(c.hist_cache_misses, 0);
    }

    fn quantized(kind: harp_data::DatasetKind, scale: f64) -> harp_binning::QuantizedMatrix {
        use harp_binning::{BinningConfig, QuantizedMatrix};
        let d = harp_data::SynthConfig::new(kind, 42).with_scale(scale).generate();
        QuantizedMatrix::from_matrix(&d.features, BinningConfig::with_max_bins(32))
    }

    #[test]
    fn a_dense_store_caches_a_node_only_where_its_larger_child_out_scans_the_subtraction() {
        use harp_data::DatasetKind;
        for kind in [DatasetKind::HiggsLike, DatasetKind::CriteoLike, DatasetKind::AirlineLike] {
            let store = quantized(kind, 0.02);
            assert!(store.is_dense());
            let (bins, cols) = (store.mapper().total_bins() as usize, store.n_features());
            let pool = HistPool::for_store(&store, 1 << 30, Arc::default(), Arc::default());
            let min = min_cached_rows(&store);
            assert!(pool.caches(min) && !pool.caches(min - 1), "{kind:?}: the pool reads the rule");
            // Half of every accepted node's rows out-scan the subtraction, so
            // its larger child, ⌈rows / 2⌉ rows or more, does too.
            for rows in min..min + 2 * cols {
                assert!(pool.caches(rows));
                assert!(rows * cols > 2 * bins, "{kind:?}: {rows} rows x {cols} vs 2 x {bins}");
                assert!(rows.div_ceil(2) * cols > bins, "{kind:?}: {rows} rows may not pay");
            }
            // The row count just below the threshold does not.
            assert!((min - 1) * cols <= 2 * bins, "{kind:?}: {} rows already pay", min - 1);
        }
    }

    #[test]
    fn a_sparse_store_prices_the_larger_child_at_the_whole_node() {
        let store = quantized(harp_data::DatasetKind::YfccLike, 0.2);
        let (n, bins) = (store.n_rows(), u128::from(store.mapper().total_bins()));
        let entries = store.sparse_csr().expect("CSR storage").1.len() as u128;
        // The smallest node whose own rows' entries out-number the bins.
        let min = min_cached_rows(&store);
        assert_eq!(min as u128, bins * n as u128 / entries + 1);
        // So the root and its larger child, half the root's rows or more,
        // are still held.
        let pool = HistPool::for_store(&store, 1 << 30, Arc::default(), Arc::default());
        assert!(pool.caches(n) && pool.caches(n.div_ceil(2)), "{min} of {n} rows");
        assert!(!pool.caches(min - 1));
    }

    #[test]
    fn a_chunked_store_caches_what_the_in_core_store_of_its_data_does() {
        use harp_binning::{write_cache, ChunkedStore, QuantStore};
        use harp_data::DatasetKind;
        for (tag, kind) in [("dense", DatasetKind::CriteoLike), ("sparse", DatasetKind::YfccLike)] {
            let store = quantized(kind, 0.05);
            let path = std::env::temp_dir()
                .join(format!("harp_min_cached_rows_{tag}_{}.qsc", std::process::id()));
            write_cache(&store, store.n_rows() / 3, &path).expect("write cache");
            let chunked = ChunkedStore::open(&path, u64::MAX).expect("open cache");
            assert!(chunked.n_chunks() > 1);
            assert_eq!(chunked.is_dense(), store.is_dense());
            assert_eq!(min_cached_rows(&chunked), min_cached_rows(&store), "{tag}");
            drop(chunked);
            std::fs::remove_file(&path).expect("remove cache");
        }
    }

    #[test]
    fn cache_roundtrip() {
        let mut queue = leafwise();
        let mut pool = HistPool::new(2, 0, 0, 1 << 20, Arc::default(), Arc::default());
        let mut b = pool.alloc().zeroed();
        b[0] = 42.0;
        file(&mut queue, &mut pool, 7, ROWS, b, (0, 1.0), UNBOUNDED);
        assert_eq!(queue.held(), 1);
        assert_eq!(split_all(&mut queue, &mut pool), [(7, Some(42.0))]);
        assert!(queue.is_empty());
    }

    #[test]
    fn cache_evicts_lowest_gain_first() {
        // width = 2 bins -> 4 lanes -> 32 bytes per entry; budget: 2 entries.
        let mut queue = leafwise();
        let mut pool = HistPool::new(2, 0, 0, 64, Arc::default(), Arc::default());
        file(&mut queue, &mut pool, 1, ROWS, vec![1.0; 4], (0, 5.0), UNBOUNDED);
        file(&mut queue, &mut pool, 2, ROWS, vec![2.0; 4], (0, 1.0), UNBOUNDED);
        file(&mut queue, &mut pool, 3, ROWS, vec![3.0; 4], (0, 3.0), UNBOUNDED);
        assert_eq!((queue.len(), queue.held()), (3, 2));
        let split = split_all(&mut queue, &mut pool);
        assert_eq!(split, [(1, Some(1.0)), (3, Some(3.0)), (2, None)], "lowest gain evicted");
    }

    #[test]
    fn eviction_skips_stale_heap_entries() {
        let mut queue = leafwise();
        let mut pool = HistPool::new(2, 0, 0, 64, Arc::default(), Arc::default());
        file(&mut queue, &mut pool, 1, ROWS, vec![1.0; 4], (0, 1.0), UNBOUNDED);
        // A popped entry leaves the eviction order with it.
        assert_eq!(split_all(&mut queue, &mut pool), [(1, Some(1.0))]);
        file(&mut queue, &mut pool, 2, ROWS, vec![2.0; 4], (0, 2.0), UNBOUNDED);
        file(&mut queue, &mut pool, 3, ROWS, vec![3.0; 4], (0, 3.0), UNBOUNDED);
        // Budget forces one eviction: node 2 (lowest live gain), although
        // node 1's gain was lower still.
        file(&mut queue, &mut pool, 4, ROWS, vec![4.0; 4], (0, 4.0), UNBOUNDED);
        assert_eq!(queue.held(), 2);
        let split = split_all(&mut queue, &mut pool);
        assert_eq!(split, [(4, Some(4.0)), (3, Some(3.0)), (2, None)]);
    }

    #[test]
    fn eviction_is_heap_fast_for_many_entries() {
        // 1000 pushes into a 10-histogram budget: each eviction walks up
        // from the lowest-ranked entry to the first histogram held, and the
        // survivors must be the 10 highest gains.
        let mut queue = leafwise();
        let mut pool = HistPool::new(2, 0, 0, 32 * 10, Arc::default(), Arc::default());
        for i in 0..1000u32 {
            let buf = vec![f64::from(i); 4];
            file(&mut queue, &mut pool, i, ROWS, buf, (0, f64::from(i)), UNBOUNDED);
        }
        assert_eq!(queue.held(), 10);
        let split = split_all(&mut queue, &mut pool);
        let held: Vec<_> = split.iter().filter_map(|&(node, lane)| lane.map(|_| node)).collect();
        assert_eq!(held, (990..1000).rev().collect::<Vec<_>>(), "a high-gain entry was evicted");
    }

    #[test]
    fn zero_budget_disables_cache() {
        let mem = Arc::new(MemTable::default());
        let mut queue = leafwise();
        let mut pool = HistPool::new(2, 0, 0, 0, Arc::default(), Arc::clone(&mem));
        let buf = pool.alloc().zeroed();
        file(&mut queue, &mut pool, 1, ROWS, buf, (0, 10.0), UNBOUNDED);
        assert_eq!((queue.len(), queue.held()), (1, 0));
        // The rejected buffer must have been recycled.
        let _ = pool.alloc().zeroed();
        assert_eq!(mem.hist_pool.current(), 32);
    }

    #[test]
    fn clear_recycles_everything() {
        let mem = Arc::new(MemTable::default());
        let mut queue = leafwise();
        let mut pool = HistPool::new(2, 0, 0, 1 << 20, Arc::default(), Arc::clone(&mem));
        for node in [1, 2] {
            let buf = pool.alloc().zeroed();
            file(&mut queue, &mut pool, node, ROWS, buf, (0, f64::from(node)), UNBOUNDED);
        }
        queue.clear(&mut pool);
        assert!(queue.is_empty());
        assert_eq!(mem.hist_cache.current(), 0);
        // Both buffers are back on the free list.
        let _ = (pool.alloc().zeroed(), pool.alloc().zeroed());
        assert_eq!(mem.hist_pool.current(), 64);
    }

    #[test]
    fn gain_ties_keep_the_older_entry() {
        // The queue pops equal gains oldest first, so under pressure the
        // newest of a tie is the one to give up — newcomer or resident.
        let mut queue = leafwise();
        let mut pool = HistPool::new(2, 0, 0, 64, Arc::default(), Arc::default());
        file(&mut queue, &mut pool, 1, ROWS, vec![1.0; 4], (0, 2.0), UNBOUNDED);
        file(&mut queue, &mut pool, 2, ROWS, vec![2.0; 4], (0, 2.0), UNBOUNDED);
        // The newest of the tie is refused.
        file(&mut queue, &mut pool, 3, ROWS, vec![3.0; 4], (0, 2.0), UNBOUNDED);
        // Node 4 outranks both; of the tied residents the newer (2) goes.
        file(&mut queue, &mut pool, 4, ROWS, vec![4.0; 4], (0, 3.0), UNBOUNDED);
        let split = split_all(&mut queue, &mut pool);
        assert_eq!(split, [(4, Some(4.0)), (1, Some(1.0)), (2, None), (3, None)]);
    }

    #[test]
    fn worst_ranked_newcomer_is_recycled_not_inserted() {
        let (profile, mem) = (Arc::new(Profile::new()), Arc::new(MemTable::default()));
        let mut queue = leafwise();
        let mut pool = HistPool::new(2, 0, 0, 64, Arc::clone(&profile), Arc::clone(&mem));
        file(&mut queue, &mut pool, 1, ROWS, vec![1.0; 4], (0, 5.0), UNBOUNDED);
        file(&mut queue, &mut pool, 2, ROWS, vec![2.0; 4], (0, 3.0), UNBOUNDED);
        file(&mut queue, &mut pool, 3, ROWS, vec![3.0; 4], (0, 1.0), UNBOUNDED);
        assert_eq!(profile.snapshot().hist_cache_evictions, 1, "byte pressure, not a trim");
        // The newcomer stays a candidate; the residents outrank its histogram.
        assert_eq!((queue.len(), queue.held()), (3, 2));
        // The refused buffer feeds the next alloc instead of a fresh one.
        let _ = pool.alloc().zeroed();
        assert_eq!(mem.hist_pool.current(), 0);
        let split = split_all(&mut queue, &mut pool);
        assert_eq!(split, [(1, Some(1.0)), (2, Some(2.0)), (3, None)]);
    }

    #[test]
    fn depthwise_keeps_the_shallower_node() {
        // Depthwise growth pops by depth before gain, and so does eviction.
        let mut queue = GrowthQueue::new(GrowthMethod::Depthwise);
        let mut pool = HistPool::new(2, 0, 0, 64, Arc::default(), Arc::default());
        file(&mut queue, &mut pool, 1, ROWS, vec![1.0; 4], (2, 9.0), UNBOUNDED);
        file(&mut queue, &mut pool, 2, ROWS, vec![2.0; 4], (1, 0.5), UNBOUNDED);
        file(&mut queue, &mut pool, 3, ROWS, vec![3.0; 4], (1, 0.1), UNBOUNDED);
        let split = split_all(&mut queue, &mut pool);
        assert_eq!(
            split,
            [(2, Some(2.0)), (3, Some(3.0)), (1, None)],
            "the deeper node pops last, whatever its gain"
        );
    }

    #[test]
    fn leaf_budget_caps_the_cache_and_counts_trims() {
        let (profile, mem) = (Arc::new(Profile::new()), Arc::new(MemTable::default()));
        let mut queue = leafwise();
        let mut pool = HistPool::new(2, 0, 0, 1 << 20, Arc::clone(&profile), Arc::clone(&mem));
        for (node, gain) in [(1, 4.0), (2, 1.0), (3, 3.0), (4, 2.0)] {
            file(&mut queue, &mut pool, node, ROWS, vec![0.0; 4], (0, gain), 4);
        }
        assert_eq!(queue.held(), 4);
        // Two leaves left to spend: a newcomer competes for two places, and
        // the residents ranked beyond them go as well.
        file(&mut queue, &mut pool, 5, ROWS, vec![0.0; 4], (0, 3.5), 2);
        assert_eq!((queue.len(), queue.held()), (2, 2));
        assert_eq!(mem.hist_cache.current(), 64);
        file(&mut queue, &mut pool, 6, ROWS, vec![0.0; 4], (0, 0.5), 2);
        assert_eq!(queue.len(), 2);
        assert_eq!(split_all(&mut queue, &mut pool), [(1, Some(0.0)), (5, Some(0.0))]);
        // With the budget spent nothing is kept at all.
        file(&mut queue, &mut pool, 7, ROWS, vec![0.0; 4], (0, 9.0), 0);
        assert!(queue.is_empty());
        assert_eq!(mem.hist_cache.current(), 0);
        let c = profile.snapshot();
        assert_eq!(c.hist_cache_trimmed, 5, "nodes 2, 4 and 3, then 6 and 7");
        assert_eq!(c.hist_cache_evictions, 0, "the byte budget never pressed");
        assert_eq!(c.hist_cache_misses, 0);
    }

    #[test]
    fn scratch_pool_hands_back_what_it_was_given() {
        let (mut pool, gauge) = (ScratchPool::new(), MemGauge::new());
        let (buf, fresh) = pool.acquire(8, &gauge);
        assert!(fresh, "first acquire allocates");
        let at = buf.as_ptr();
        pool.release(buf);
        let (buf, fresh) = pool.acquire(8, &gauge);
        assert!(!fresh, "steady-state acquire must not allocate");
        assert_eq!(buf.as_ptr(), at, "the released buffer is the one handed out");
        assert!(buf.iter().all(|&x| x == 0.0));
        pool.release(buf);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a replica came back written")]
    fn scratch_pool_rejects_a_written_replica() {
        let (mut pool, gauge) = (ScratchPool::new(), MemGauge::new());
        let (mut buf, _) = pool.acquire(4, &gauge);
        buf[1] = 1.0;
        pool.release(buf);
    }

    #[test]
    fn scratch_pool_growth_counts_as_alloc() {
        let (mut pool, gauge) = (ScratchPool::new(), MemGauge::new());
        let (buf, _) = pool.acquire(4, &gauge);
        pool.release(buf);
        let (buf, grown) = pool.acquire(16, &gauge);
        assert!(grown, "growth is an allocation event");
        assert_eq!(&buf[..16], &[0.0; 16]);
        pool.release(buf);
        let (buf, grown) = pool.acquire(16, &gauge);
        assert!(!grown);
        assert!(buf.len() >= 16);
        pool.release(buf);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn reduce_width_mismatch_panics() {
        let mut a = vec![0.0; 2];
        reduce_into(&mut a, &[0.0; 3]);
    }

    #[test]
    fn instrumented_pool_counts_lookups_and_evictions() {
        let profile = Arc::new(Profile::new());
        let mut queue = leafwise();
        // 32 bytes/entry, budget for 2 entries.
        let mut pool = HistPool::new(2, 0, 0, 64, Arc::clone(&profile), Arc::default());
        file(&mut queue, &mut pool, 1, ROWS, vec![1.0; 4], (0, 5.0), UNBOUNDED);
        file(&mut queue, &mut pool, 2, ROWS, vec![2.0; 4], (0, 1.0), UNBOUNDED);
        // Node 3 evicts node 2's histogram: two hits, then node 2's miss.
        file(&mut queue, &mut pool, 3, ROWS, vec![3.0; 4], (0, 3.0), UNBOUNDED);
        let split = split_all(&mut queue, &mut pool);
        assert_eq!(split, [(1, Some(1.0)), (3, Some(3.0)), (2, None)]);
        let c = profile.snapshot();
        assert_eq!(c.hist_cache_hits, 2);
        assert_eq!(c.hist_cache_misses, 1);
        assert_eq!(c.hist_cache_evictions, 1);
        assert_eq!(c.hist_cache_trimmed, 0);
    }

    #[test]
    fn cache_gauge_high_water_survives_evictions_and_clear() {
        let mem = Arc::new(MemTable::default());
        let mut queue = leafwise();
        let mut pool = HistPool::new(2, 0, 0, 64, Arc::default(), Arc::clone(&mem));
        let a = pool.alloc().zeroed();
        let b = pool.alloc().zeroed();
        assert_eq!(mem.hist_pool.current(), 64, "two fresh 32-byte buffers");
        file(&mut queue, &mut pool, 1, ROWS, a, (0, 5.0), UNBOUNDED);
        file(&mut queue, &mut pool, 2, ROWS, b, (0, 1.0), UNBOUNDED);
        assert_eq!(mem.hist_cache.current(), 64);
        assert_eq!(mem.hist_cache.high_water(), 64);
        let c = pool.alloc().zeroed();
        // Node 3 evicts node 2's histogram and recycles it.
        file(&mut queue, &mut pool, 3, ROWS, c, (0, 3.0), UNBOUNDED);
        assert_eq!(mem.hist_cache.current(), 64, "eviction then insert nets out");
        let best = queue.pop_batch(1).pop().unwrap();
        assert!(pool.lookup(best.hist, ROWS).is_some());
        assert_eq!(mem.hist_cache.current(), 32, "a pop shrinks occupancy");
        queue.clear(&mut pool);
        assert_eq!(mem.hist_cache.current(), 0, "clear empties occupancy");
        assert_eq!(mem.hist_cache.high_water(), 64, "peak survives shrink");
        assert_eq!(mem.hist_pool.current(), 96, "pool total is monotone");
        // Recycled buffers do not re-count.
        let _ = pool.alloc().zeroed();
        assert_eq!(mem.hist_pool.current(), 96);
    }

    #[test]
    fn scratch_gauge_tracks_capacity_growth() {
        let (mut pool, gauge) = (ScratchPool::new(), MemGauge::new());
        let (buf, _) = pool.acquire(4, &gauge);
        let cap0 = gauge.current();
        assert!(cap0 >= 32, "fresh 4-lane replica counted");
        pool.release(buf);
        let (buf, grown) = pool.acquire(16, &gauge);
        assert!(grown);
        assert!(gauge.current() >= 128, "growth adds the capacity delta");
        assert_eq!(gauge.current(), gauge.high_water());
        pool.release(buf);
        let before = gauge.current();
        let (buf, grown) = pool.acquire(16, &gauge);
        assert!(!grown);
        assert_eq!(gauge.current(), before, "steady-state reuse adds nothing");
        pool.release(buf);
    }
}
