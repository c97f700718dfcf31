//! GHSum histogram buffers, reduction, subtraction and the candidate cache.
//!
//! A node's histogram ("GHSum", Fig. 5) is one flat `f64` buffer of
//! interleaved `(Σg, Σh)` cells, feature-major with per-feature bin offsets
//! from the [`harp_binning::BinMapper`]:
//! `cell(f, b) = (bin_offset(f) + b) * 2`. A batch of nodes is simply a batch
//! of such buffers — the ⟨node, feature, bin⟩ cube of §IV-A with the node
//! axis unrolled, which lets block tasks address private index ranges with no
//! atomics.
//!
//! Buffers carry `n_features` extra *sink cells* past the real bins — the
//! branch-free missing-value target of the specialized row-scan kernel
//! ([`crate::kernels::row_scan`]). The kernels strip them before a buffer is
//! read, so every consumer (reduction, subtraction, FindSplit) sees zeros
//! there and the padding is inert.
//!
//! [`HistPool`] recycles buffers and caches candidate histograms so the
//! parent−sibling subtraction trick can skip half of BuildHist. A cached
//! histogram is only ever read when its candidate is split, so the cache
//! keeps at most as many as the tree has leaves left to spend — the
//! best-ranked ones, in the growth queue's own order
//! ([`RankKey`]) — and hands every other buffer straight back to the free
//! list; a byte budget ([`HIST_CACHE_BYTES`] in training) bounds it the same
//! way. It caches a node only where the subtraction is the cheaper way to
//! the node's larger child ([`min_cached_rows`], one formula for dense,
//! bundled and CSR stores):
//! below that size both children are scanned. [`HistPool::files`] is the
//! same decision asked ahead of the build, which lets the Exclusive executor
//! (`trainer::drivers`) give a full-width buffer only to a histogram that
//! can be filed and keep every other one in a per-worker tile.
//! [`ScratchPool`] is the data-parallel replica arena: replica buffers —
//! lanes for the jobs of a batch that are cut into several row blocks —
//! survive across frontiers and trees, and come back zeroed from the fold
//! that reads them, so reuse clears nothing.

use crate::growth::RankKey;
use crate::tree::NodeId;
use harp_metrics::MemGauge;
use harp_parallel::Profile;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Byte budget of the trainer's candidate-histogram cache. The cache never
/// holds more than the tree has leaves left to spend, which costs nothing;
/// under this budget it gives up the candidates the growth queue would pop
/// last, and those may miss.
pub const HIST_CACHE_BYTES: usize = 512 << 20;

/// Width in `f64` lanes of one node histogram in the *padded* layout:
/// `total_bins * 2` real lanes plus one sink cell (2 lanes) per feature.
pub fn hist_width(total_bins: u32, n_features: usize) -> usize {
    total_bins as usize * 2 + crate::kernels::sink_lanes(n_features)
}

/// Storage-aware [`hist_width`]: only dense layouts (u8 or u4-packed) route
/// missing values through the per-feature sink cells, so sparse matrices
/// get unpadded `total_bins * 2` buffers and bundled matrices a single
/// shared sink cell (absent bins route there branch-free).
/// A wider (padded) buffer is always acceptable to the kernels; this trims
/// the per-node footprint where the padding is provably never written.
pub fn hist_width_for(store: &dyn harp_binning::QuantStore) -> usize {
    let layout = store.layout();
    let sinks = if layout.dense {
        crate::kernels::sink_lanes(store.n_features())
    } else if layout.bundled {
        2
    } else {
        0
    };
    store.mapper().total_bins() as usize * 2 + sinks
}

/// The fewest rows a node must have for its histogram to be cached.
///
/// The cached histogram has one reader: `large child = parent − small
/// child`, a pass over `total_bins` cells that saves the scan of the larger
/// child — `rows × stored cells per row` cells at most, a row's stored cells
/// being [`QuantStore::stored_cells`](harp_binning::QuantStore::stored_cells)
/// over the store's rows (the storage columns of a dense or bundled row, the
/// mean entry count of a CSR row). The histogram is kept only where that
/// scan is the larger of the two: `rows × stored_cells ÷ n_rows >
/// total_bins`, one integer formula for every layout. On a wide sparse
/// matrix that is most of the point: a 4 096-feature histogram of a million
/// bins is not worth keeping for a node whose rows hold a few thousand
/// entries. The node's own row count stands in for the larger child's
/// (between half of it and all of it) because it is what is known when the
/// histogram is filed, and the same count is at hand when the node is
/// split, so both ends decide alike — as do all four modes, the rule being
/// a function of the row count and the store alone.
pub fn min_cached_rows(store: &dyn harp_binning::QuantStore) -> usize {
    min_rows_out_scanning(store.mapper().total_bins(), store.n_rows(), store.stored_cells())
}

/// Smallest `rows` with `rows × stored_cells ÷ n_rows > total_bins`:
/// `⌊total_bins × n_rows ÷ stored_cells⌋ + 1`.
fn min_rows_out_scanning(total_bins: u32, n_rows: usize, stored_cells: u64) -> usize {
    (u128::from(total_bins) * n_rows as u128 / u128::from(stored_cells.max(1))) as usize + 1
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

struct Cached {
    data: Vec<f64>,
    key: RankKey,
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

/// Buffer recycler plus bounded cache of candidate histograms.
pub struct HistPool {
    width: usize,
    /// Nodes with fewer rows are never cached ([`min_cached_rows`]).
    min_cached_rows: usize,
    free: Vec<Vec<f64>>,
    cache: HashMap<NodeId, Cached>,
    /// `cache` in growth order: the first entry is the one the queue would
    /// pop last, hence the next to go.
    order: BTreeSet<(RankKey, NodeId)>,
    budget_bytes: usize,
    /// Hit/miss/eviction/trim counters (cache traffic shows up in the run
    /// ledger).
    profile: Option<Arc<Profile>>,
    /// Total bytes this pool ever allocated (free + cached + outstanding);
    /// monotone, since buffers circulate rather than drop.
    pool_gauge: Option<Arc<MemGauge>>,
    /// Bytes currently resident in the candidate cache (shrinks on take,
    /// trim, eviction and clear).
    cache_gauge: Option<Arc<MemGauge>>,
}

impl HistPool {
    /// Creates a pool for a dense u8 matrix of `n_features` columns and
    /// `total_bins` bins (padded histograms) with a cache budget of
    /// `budget_bytes`.
    pub fn new(total_bins: u32, n_features: usize, budget_bytes: usize) -> Self {
        Self::with_shape(
            hist_width(total_bins, n_features),
            // One row stores `n_features` cells.
            min_rows_out_scanning(total_bins, 1, n_features as u64),
            budget_bytes,
        )
    }

    /// Creates a pool sized and ruled for `store`'s layout
    /// ([`hist_width_for`], [`min_cached_rows`]).
    pub fn for_store(store: &dyn harp_binning::QuantStore, budget_bytes: usize) -> Self {
        Self::with_shape(hist_width_for(store), min_cached_rows(store), budget_bytes)
    }

    fn with_shape(width: usize, min_cached_rows: usize, budget_bytes: usize) -> Self {
        Self {
            width,
            min_cached_rows,
            free: Vec::new(),
            cache: HashMap::new(),
            order: BTreeSet::new(),
            budget_bytes,
            profile: None,
            pool_gauge: None,
            cache_gauge: None,
        }
    }

    /// Attaches the profile (cache hit/miss/eviction/trim counters) and
    /// optional byte gauges consumed by the run ledger.
    pub fn instrument(
        &mut self,
        profile: Arc<Profile>,
        pool_gauge: Option<Arc<MemGauge>>,
        cache_gauge: Option<Arc<MemGauge>>,
    ) {
        self.profile = Some(profile);
        self.pool_gauge = pool_gauge;
        self.cache_gauge = cache_gauge;
    }

    /// Histogram lane count (padded).
    pub fn width(&self) -> usize {
        self.width
    }

    fn entry_bytes(&self) -> usize {
        self.width * 8
    }

    /// Hands out a buffer, reusing a returned one when possible. No
    /// width-sized work happens here: the caller zero-fills it
    /// ([`StaleHist::zeroed`]) once it is out of any lock the pool sits
    /// behind.
    pub fn alloc(&mut self) -> StaleHist {
        let recycled = self.free.pop();
        if recycled.is_none() {
            if let Some(g) = &self.pool_gauge {
                g.add(self.entry_bytes() as u64);
            }
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
        self.budget_bytes.checked_div(self.entry_bytes()).unwrap_or(usize::MAX)
    }

    /// Whether the histogram of a node of `rows` rows, built with
    /// `remaining` leaves unspent, can be filed at all — the question an
    /// executor asks *before* it builds, because a histogram that cannot be
    /// filed needs no full-width buffer: [`caches`](Self::caches), a byte
    /// budget that holds at least one, and a leaf left to spend on it.
    /// (Whether it then *is* kept still depends on its candidate's rank,
    /// which [`cache_insert`](Self::cache_insert) settles.)
    pub fn files(&self, rows: usize, remaining: usize) -> bool {
        remaining > 0 && self.byte_cap() > 0 && self.caches(rows)
    }

    /// Returns a buffer to the free list.
    pub fn release(&mut self, buf: Vec<f64>) {
        debug_assert_eq!(buf.len(), self.width);
        self.free.push(buf);
    }

    /// Caches the histogram of `node` (of `rows` rows) for a later
    /// subtraction, filed under the `key` its candidate pops by — unless the
    /// node is too small for the subtraction to pay ([`caches`](Self::caches)),
    /// in which case the buffer is recycled and the split will scan both
    /// children. `remaining` is the tree's unspent leaf
    /// budget: the cache holds at most that many entries (and at most what
    /// the byte budget fits), so when it is full the lowest-ranked of the
    /// residents and the newcomer is recycled instead. Dropping for the leaf
    /// budget is free: every split pops the queue's top and lowers the
    /// budget by one, and a push only lowers existing ranks, so a candidate
    /// that ranks beyond the budget once stays there until the tree is
    /// finished and is never split. A zero byte budget disables caching
    /// (and therefore subtraction).
    pub fn cache_insert(
        &mut self,
        node: NodeId,
        rows: usize,
        data: Vec<f64>,
        key: RankKey,
        remaining: usize,
    ) {
        let byte_cap = self.byte_cap();
        if byte_cap == 0 || !self.caches(rows) {
            self.release(data);
            return;
        }
        if let Some(old) = self.cache.remove(&node) {
            // Re-insert: the entry is re-filed under its new key.
            self.order.remove(&(old.key, node));
            self.uncache(old.data);
        }
        while self.cache.len() >= remaining.min(byte_cap) {
            // One histogram goes: the lowest-ranked resident, or the
            // newcomer if it ranks lower still. Beyond the leaf budget
            // nothing will ever read it (a trim); under byte pressure its
            // candidate may still pop, and will miss (an eviction).
            if let Some(p) = &self.profile {
                if self.cache.len() >= remaining {
                    p.add_hist_cache_trimmed(1);
                } else {
                    p.add_hist_cache_evictions(1);
                }
            }
            match self.order.first() {
                Some(&(worst, _)) if worst < key => self.recycle_lowest(),
                _ => {
                    self.release(data);
                    return;
                }
            }
        }
        self.cache.insert(node, Cached { data, key });
        self.order.insert((key, node));
        if let Some(g) = &self.cache_gauge {
            g.add(self.entry_bytes() as u64);
        }
    }

    /// Recycles the cached histogram the queue would pop last.
    fn recycle_lowest(&mut self) {
        let (_, victim) = self.order.pop_first().expect("the cache is not empty");
        let entry = self.cache.remove(&victim).expect("order indexes the cache");
        self.uncache(entry.data);
    }

    /// Moves a buffer that just left `cache` to the free list.
    fn uncache(&mut self, data: Vec<f64>) {
        if let Some(g) = &self.cache_gauge {
            g.sub(self.entry_bytes() as u64);
        }
        self.free.push(data);
    }

    /// `node` (of `rows` rows) is being split, which leaves `remaining`
    /// leaves to spend: removes and returns its cached histogram, if still
    /// present. A node too small to have been cached is not looked up —
    /// that is a decline, not a miss. A hit lowers the cache and the budget
    /// together; a pop that took nothing out lowered the budget alone, and
    /// what now ranks beyond it is recycled (as free as on insert: with
    /// `remaining` better-ranked entries cached, it can never pop).
    pub fn cache_take(&mut self, node: NodeId, rows: usize, remaining: usize) -> Option<Vec<f64>> {
        let out = if self.caches(rows) {
            let hit = self.cache.remove(&node).map(|c| {
                self.order.remove(&(c.key, node));
                if let Some(g) = &self.cache_gauge {
                    g.sub(self.entry_bytes() as u64);
                }
                c.data
            });
            if let Some(p) = &self.profile {
                p.add_hist_cache_lookup(hit.is_some());
            }
            hit
        } else {
            if let Some(p) = &self.profile {
                p.add_hist_cache_declined();
            }
            None
        };
        while self.cache.len() > remaining {
            self.recycle_lowest();
            if let Some(p) = &self.profile {
                p.add_hist_cache_trimmed(1);
            }
        }
        out
    }

    /// Drops every cached histogram (end of tree) back to the free list.
    pub fn clear_cache(&mut self) {
        if let Some(g) = &self.cache_gauge {
            g.sub((self.cache.len() * self.entry_bytes()) as u64);
        }
        let drained: Vec<Vec<f64>> = self.cache.drain().map(|(_, c)| c.data).collect();
        self.free.extend(drained);
        self.order.clear();
    }

    /// Number of cached candidate histograms.
    pub fn cached_len(&self) -> usize {
        self.cache.len()
    }
}

/// Reusable arena of DP replica buffers. Replicas survive across frontiers
/// and trees, and a replica in the arena holds zeros: the replica fold zeroes
/// every lane it reads, and the kernels leave nothing else written. So
/// [`acquire`](Self::acquire) hands a buffer out as it is — the equivalent of
/// a fresh `vec![0.0; len]` without the allocation or a clear.
#[derive(Default)]
pub struct ScratchPool {
    free: Vec<Vec<f64>>,
    /// Bytes of replica capacity owned by the arena (counted at allocation
    /// and growth; monotone, since replicas circulate rather than drop).
    gauge: Option<Arc<MemGauge>>,
}

impl ScratchPool {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches the byte gauge consumed by the run ledger.
    pub fn set_gauge(&mut self, gauge: Arc<MemGauge>) {
        self.gauge = Some(gauge);
    }

    /// Counts `bytes` of driver scratch under the arena's gauge (replica
    /// capacity, and the Exclusive executor's per-worker tiles next to it).
    pub fn count_outside(&self, bytes: u64) {
        if let Some(g) = &self.gauge {
            g.add(bytes);
        }
    }

    /// Hands out a zeroed buffer of at least `len` lanes. Returns the buffer
    /// and whether a heap allocation (fresh buffer or capacity growth)
    /// occurred — the profiling signal for the steady-state zero-alloc
    /// guarantee.
    pub fn acquire(&mut self, len: usize) -> (Vec<f64>, bool) {
        let Some(mut buf) = self.free.pop() else {
            let buf = vec![0.0; len];
            self.count_outside((buf.capacity() * 8) as u64);
            return (buf, true);
        };
        let grown = buf.capacity() < len;
        if grown {
            let before = buf.capacity();
            // Round up so repeated small growth amortizes.
            buf.reserve(len.next_power_of_two() - buf.len());
            self.count_outside(((buf.capacity() - before) * 8) as u64);
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
    use crate::growth::GrowthQueue;
    use crate::params::GrowthMethod;
    use crate::split::SplitCandidate;
    use crate::tree::{NodeStats, SplitData};

    /// No leaf-budget bound: only the byte budget limits the cache.
    const UNBOUNDED: usize = usize::MAX;

    /// A node large enough to be cached whatever the pool's shape.
    const ROWS: usize = usize::MAX;

    /// Mints rank keys the way the trainer gets them: from a growth queue,
    /// in push order.
    struct Keys(GrowthQueue);

    impl Keys {
        fn leafwise() -> Self {
            Self(GrowthQueue::new(GrowthMethod::Leafwise))
        }

        fn at_depth(&mut self, depth: u32, gain: f64) -> RankKey {
            let split = SplitData { feature: 0, bin: 0, threshold: 0.0, default_left: false, gain };
            let stats = NodeStats::default();
            self.0.push(0, depth, SplitCandidate { split, left: stats, right: stats })
        }

        fn gain(&mut self, gain: f64) -> RankKey {
            self.at_depth(0, gain)
        }
    }

    /// A bundled store of `n_rows` rows: four one-hot groups of four
    /// features, every group present in every row.
    pub(crate) fn one_hot_store(n_rows: u64) -> harp_binning::QuantizedMatrix {
        use harp_binning::{BinningConfig, QuantStore, QuantizedMatrix};
        use harp_data::{CsrMatrix, FeatureMatrix};
        let rows: Vec<Vec<(u32, f32)>> = (0..n_rows)
            .map(|r| {
                let pick = |g: u64| crate::loss::hash64(r * 4 + g);
                (0..4)
                    .map(|g| ((g * 4 + pick(g) % 4) as u32, (pick(g) >> 8) as f32 % 5.0))
                    .collect()
            })
            .collect();
        let store = QuantizedMatrix::from_matrix(
            &FeatureMatrix::Sparse(CsrMatrix::from_rows(16, &rows)),
            BinningConfig::with_max_bins(32),
        );
        assert!(store.layout().bundled);
        store
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
        assert_eq!(hist_width(4, 3), 8 + 6);
        assert_eq!(hist_width(4, 0), 8);
    }

    #[test]
    fn pool_reuses_buffers_zeroed() {
        let mut pool = HistPool::new(4, 0, 1 << 20);
        let mut b = pool.alloc().zeroed();
        assert_eq!(b.len(), 8);
        b[3] = 9.0;
        pool.release(b);
        let b2 = pool.alloc().zeroed();
        assert!(b2.iter().all(|&x| x == 0.0), "reused buffer must be zeroed");
    }

    #[test]
    fn small_nodes_are_declined_not_cached_and_not_looked_up() {
        let profile = Arc::new(Profile::new());
        let pool_gauge = Arc::new(MemGauge::new());
        let mut keys = Keys::leafwise();
        // 64 bins over 4 dense columns: 16 rows scan 64 cells, a tie the
        // scan wins; 17 rows scan 68 and the subtraction pays.
        let mut pool = HistPool::new(64, 4, 1 << 20);
        pool.instrument(Arc::clone(&profile), Some(Arc::clone(&pool_gauge)), None);
        assert!(!pool.caches(16) && pool.caches(17));
        let buf = pool.alloc().zeroed();
        pool.cache_insert(1, 16, buf, keys.gain(9.0), UNBOUNDED);
        assert_eq!(pool.cached_len(), 0);
        assert!(pool.cache_take(1, 16, UNBOUNDED).is_none());
        // The refused buffer went back to the free list.
        let buf = pool.alloc().zeroed();
        assert_eq!(pool_gauge.current(), (buf.len() * 8) as u64);
        pool.cache_insert(2, 17, buf, keys.gain(1.0), UNBOUNDED);
        assert!(pool.cache_take(2, 17, UNBOUNDED).is_some());
        let c = profile.snapshot();
        assert_eq!((c.hist_cache_declined, c.hist_cache_hits, c.hist_cache_misses), (1, 1, 0));
        assert_eq!(c.hist_cache_trimmed + c.hist_cache_evictions, 0);
    }

    #[test]
    fn a_pop_that_takes_nothing_trims_to_the_budget() {
        let profile = Arc::new(Profile::new());
        let mut keys = Keys::leafwise();
        let mut pool = HistPool::new(64, 4, 1 << 20);
        pool.instrument(Arc::clone(&profile), None, None);
        pool.cache_insert(1, 17, vec![0.0; 136], keys.gain(5.0), 2);
        pool.cache_insert(2, 17, vec![0.0; 136], keys.gain(1.0), 2);
        // A 3-row node splits: nothing to take, but one leaf fewer to spend,
        // and the lower-ranked of the two residents can no longer pop.
        assert!(pool.cache_take(9, 3, 1).is_none());
        assert_eq!(pool.cached_len(), 1);
        assert!(pool.cache_take(1, 17, 0).is_some());
        let c = profile.snapshot();
        assert_eq!((c.hist_cache_declined, c.hist_cache_trimmed, c.hist_cache_hits), (1, 1, 1));
        assert_eq!(c.hist_cache_misses, 0);
    }

    #[test]
    fn min_cached_rows_prices_the_layout() {
        use harp_binning::{write_cache, BinningConfig, ChunkedStore, QuantStore, QuantizedMatrix};
        use harp_data::{DatasetKind, SynthConfig};
        let quantized = |kind| {
            let d = SynthConfig::new(kind, 42).with_scale(0.02).generate();
            QuantizedMatrix::from_matrix(&d.features, BinningConfig::with_max_bins(32))
        };
        // The one formula, spelled out: the smallest `rows` whose scan reads
        // more cells than the histogram has bins.
        let check = |store: &dyn QuantStore, cells_per_row: f64| {
            let bins = f64::from(store.mapper().total_bins());
            let min = min_cached_rows(store);
            assert!(min as f64 * cells_per_row > bins, "{min} rows x {cells_per_row} vs {bins}");
            assert!((min - 1) as f64 * cells_per_row <= bins, "{} rows already pay", min - 1);
            min
        };

        // Dense: the threshold it always was, `total_bins / columns + 1`.
        let dense = quantized(DatasetKind::HiggsLike);
        assert!(dense.layout().dense);
        let (bins, cols) = (dense.mapper().total_bins() as usize, dense.n_features());
        assert_eq!(check(&dense, cols as f64), bins / cols + 1);
        let pool = HistPool::for_store(&dense, 1 << 30);
        assert!(pool.caches(bins / cols + 1) && !pool.caches(bins / cols));

        // Bundled: a row stores one cell per bundle, not per feature.
        let bundled = one_hot_store(200);
        let cols = bundled.layout().n_storage_cols;
        assert_eq!(check(&bundled, cols as f64), bundled.mapper().total_bins() as usize / cols + 1);

        // CSR: a row stores its entries, so the threshold follows density,
        // not width — and sits far above the dense one of the same shape.
        let sparse = quantized(DatasetKind::YfccLike);
        let entries = sparse.sparse_csr().expect("CSR storage").1.len();
        let min = check(&sparse, entries as f64 / sparse.n_rows() as f64);
        assert!(min > sparse.mapper().total_bins() as usize / sparse.n_features() + 1);

        // The same CSR data behind a chunk cache decides alike.
        let path =
            std::env::temp_dir().join(format!("harp_min_cached_rows_{}.qsc", std::process::id()));
        write_cache(&sparse, sparse.n_rows() / 3, &path).expect("write cache");
        let chunked = ChunkedStore::open(&path, u64::MAX).expect("open cache");
        assert!(chunked.n_chunks() > 1);
        assert_eq!(min_cached_rows(&chunked), min);
        drop(chunked);
        std::fs::remove_file(&path).expect("remove cache");
    }

    #[test]
    fn cache_roundtrip() {
        let mut keys = Keys::leafwise();
        let mut pool = HistPool::new(2, 0, 1 << 20);
        let mut b = pool.alloc().zeroed();
        b[0] = 42.0;
        pool.cache_insert(7, ROWS, b, keys.gain(1.0), UNBOUNDED);
        assert_eq!(pool.cached_len(), 1);
        let back = pool.cache_take(7, ROWS, UNBOUNDED).unwrap();
        assert_eq!(back[0], 42.0);
        assert!(pool.cache_take(7, ROWS, UNBOUNDED).is_none());
    }

    #[test]
    fn cache_evicts_lowest_gain_first() {
        // width = 2 bins -> 4 lanes -> 32 bytes per entry; budget: 2 entries.
        let mut keys = Keys::leafwise();
        let mut pool = HistPool::new(2, 0, 64);
        pool.cache_insert(1, ROWS, vec![1.0; 4], keys.gain(5.0), UNBOUNDED);
        pool.cache_insert(2, ROWS, vec![2.0; 4], keys.gain(1.0), UNBOUNDED);
        pool.cache_insert(3, ROWS, vec![3.0; 4], keys.gain(3.0), UNBOUNDED);
        assert_eq!(pool.cached_len(), 2);
        assert!(
            pool.cache_take(2, ROWS, UNBOUNDED).is_none(),
            "lowest-gain entry should be evicted"
        );
        assert!(pool.cache_take(1, ROWS, UNBOUNDED).is_some());
        assert!(pool.cache_take(3, ROWS, UNBOUNDED).is_some());
    }

    #[test]
    fn eviction_skips_stale_heap_entries() {
        let mut keys = Keys::leafwise();
        let mut pool = HistPool::new(2, 0, 64);
        pool.cache_insert(1, ROWS, vec![1.0; 4], keys.gain(1.0), UNBOUNDED);
        // A taken entry leaves the eviction order with it.
        assert!(pool.cache_take(1, ROWS, UNBOUNDED).is_some());
        pool.cache_insert(2, ROWS, vec![2.0; 4], keys.gain(2.0), UNBOUNDED);
        pool.cache_insert(3, ROWS, vec![3.0; 4], keys.gain(3.0), UNBOUNDED);
        // Budget forces one eviction: node 2 (lowest live gain), although
        // node 1's gain was lower still.
        pool.cache_insert(4, ROWS, vec![4.0; 4], keys.gain(4.0), UNBOUNDED);
        assert_eq!(pool.cached_len(), 2);
        assert!(pool.cache_take(2, ROWS, UNBOUNDED).is_none());
        assert!(pool.cache_take(3, ROWS, UNBOUNDED).is_some());
        assert!(pool.cache_take(4, ROWS, UNBOUNDED).is_some());
    }

    #[test]
    fn reinsert_updates_gain_not_duplicates() {
        let mut keys = Keys::leafwise();
        let mut pool = HistPool::new(2, 0, 64);
        pool.cache_insert(1, ROWS, vec![1.0; 4], keys.gain(0.5), UNBOUNDED);
        pool.cache_insert(1, ROWS, vec![1.5; 4], keys.gain(9.0), UNBOUNDED); // re-insert with high gain
        pool.cache_insert(2, ROWS, vec![2.0; 4], keys.gain(2.0), UNBOUNDED);
        assert_eq!(pool.cached_len(), 2);
        // Over budget: node 2 must go (1's live gain is 9.0, its old 0.5
        // key must not evict it).
        pool.cache_insert(3, ROWS, vec![3.0; 4], keys.gain(5.0), UNBOUNDED);
        assert_eq!(pool.cached_len(), 2);
        assert_eq!(pool.cache_take(1, ROWS, UNBOUNDED).unwrap()[0], 1.5);
        assert!(pool.cache_take(2, ROWS, UNBOUNDED).is_none());
    }

    #[test]
    fn eviction_is_heap_fast_for_many_entries() {
        // 1000 inserts into a 10-entry budget: O(n log n) total, and the
        // survivors must be the 10 highest gains.
        let mut keys = Keys::leafwise();
        let mut pool = HistPool::new(2, 0, 32 * 10);
        for i in 0..1000u32 {
            pool.cache_insert(i, ROWS, vec![0.0; 4], keys.gain(f64::from(i)), UNBOUNDED);
        }
        assert_eq!(pool.cached_len(), 10);
        for i in 990..1000 {
            assert!(pool.cache_take(i, ROWS, UNBOUNDED).is_some(), "high-gain entry {i} evicted");
        }
    }

    #[test]
    fn zero_budget_disables_cache() {
        let mut pool = HistPool::new(2, 0, 0);
        pool.cache_insert(1, ROWS, vec![0.0; 4], Keys::leafwise().gain(10.0), UNBOUNDED);
        assert_eq!(pool.cached_len(), 0);
        // The rejected buffer must have been recycled.
        let _ = pool.alloc().zeroed();
    }

    #[test]
    fn clear_cache_recycles_everything() {
        let mut keys = Keys::leafwise();
        let mut pool = HistPool::new(2, 0, 1 << 20);
        pool.cache_insert(1, ROWS, vec![0.0; 4], keys.gain(1.0), UNBOUNDED);
        pool.cache_insert(2, ROWS, vec![0.0; 4], keys.gain(2.0), UNBOUNDED);
        pool.clear_cache();
        assert_eq!(pool.cached_len(), 0);
    }

    #[test]
    fn gain_ties_keep_the_older_entry() {
        // The queue pops equal gains oldest first, so under pressure the
        // newest of a tie is the one to give up — newcomer or resident.
        let mut keys = Keys::leafwise();
        let mut pool = HistPool::new(2, 0, 64);
        pool.cache_insert(1, ROWS, vec![1.0; 4], keys.gain(2.0), UNBOUNDED);
        pool.cache_insert(2, ROWS, vec![2.0; 4], keys.gain(2.0), UNBOUNDED);
        pool.cache_insert(3, ROWS, vec![3.0; 4], keys.gain(2.0), UNBOUNDED);
        assert!(pool.cache_take(3, ROWS, UNBOUNDED).is_none(), "the newest of the tie is refused");
        // Node 4 outranks both; of the tied residents the newer (2) goes.
        pool.cache_insert(4, ROWS, vec![4.0; 4], keys.gain(3.0), UNBOUNDED);
        assert!(pool.cache_take(2, ROWS, UNBOUNDED).is_none());
        assert!(pool.cache_take(1, ROWS, UNBOUNDED).is_some());
        assert!(pool.cache_take(4, ROWS, UNBOUNDED).is_some());
    }

    #[test]
    fn worst_ranked_newcomer_is_recycled_not_inserted() {
        let profile = Arc::new(Profile::new());
        let pool_gauge = Arc::new(MemGauge::new());
        let mut keys = Keys::leafwise();
        let mut pool = HistPool::new(2, 0, 64);
        pool.instrument(Arc::clone(&profile), Some(Arc::clone(&pool_gauge)), None);
        pool.cache_insert(1, ROWS, vec![1.0; 4], keys.gain(5.0), UNBOUNDED);
        pool.cache_insert(2, ROWS, vec![2.0; 4], keys.gain(3.0), UNBOUNDED);
        pool.cache_insert(3, ROWS, vec![3.0; 4], keys.gain(1.0), UNBOUNDED);
        assert_eq!(profile.snapshot().hist_cache_evictions, 1, "byte pressure, not a trim");
        assert!(
            pool.cache_take(1, ROWS, UNBOUNDED).is_some()
                && pool.cache_take(2, ROWS, UNBOUNDED).is_some()
        );
        assert!(pool.cache_take(3, ROWS, UNBOUNDED).is_none(), "residents outrank the newcomer");
        // The refused buffer feeds the next alloc instead of a fresh one.
        let _ = pool.alloc().zeroed();
        assert_eq!(pool_gauge.current(), 0);
    }

    #[test]
    fn depthwise_keeps_the_shallower_node() {
        // Depthwise growth pops by depth before gain, and so must the cache.
        let mut keys = Keys(GrowthQueue::new(GrowthMethod::Depthwise));
        let mut pool = HistPool::new(2, 0, 64);
        pool.cache_insert(1, ROWS, vec![1.0; 4], keys.at_depth(2, 9.0), UNBOUNDED);
        pool.cache_insert(2, ROWS, vec![2.0; 4], keys.at_depth(1, 0.5), UNBOUNDED);
        pool.cache_insert(3, ROWS, vec![3.0; 4], keys.at_depth(1, 0.1), UNBOUNDED);
        assert!(
            pool.cache_take(1, ROWS, UNBOUNDED).is_none(),
            "the deeper node pops last, whatever its gain"
        );
        assert!(pool.cache_take(2, ROWS, UNBOUNDED).is_some());
        assert!(pool.cache_take(3, ROWS, UNBOUNDED).is_some());
    }

    #[test]
    fn leaf_budget_caps_the_cache_and_counts_trims() {
        let profile = Arc::new(Profile::new());
        let cache_gauge = Arc::new(MemGauge::new());
        let mut keys = Keys::leafwise();
        let mut pool = HistPool::new(2, 0, 1 << 20);
        pool.instrument(Arc::clone(&profile), None, Some(Arc::clone(&cache_gauge)));
        for (node, gain) in [(1, 4.0), (2, 1.0), (3, 3.0), (4, 2.0)] {
            pool.cache_insert(node, ROWS, vec![0.0; 4], keys.gain(gain), 4);
        }
        assert_eq!(pool.cached_len(), 4);
        // Two leaves left to spend: a newcomer competes for two places, and
        // the residents ranked beyond them go as well.
        pool.cache_insert(5, ROWS, vec![0.0; 4], keys.gain(3.5), 2);
        assert_eq!(pool.cached_len(), 2);
        assert_eq!(cache_gauge.current(), 64);
        pool.cache_insert(6, ROWS, vec![0.0; 4], keys.gain(0.5), 2);
        assert_eq!(pool.cached_len(), 2);
        assert!(
            pool.cache_take(1, ROWS, UNBOUNDED).is_some()
                && pool.cache_take(5, ROWS, UNBOUNDED).is_some()
        );
        // With the budget spent nothing is kept at all.
        pool.cache_insert(7, ROWS, vec![0.0; 4], keys.gain(9.0), 0);
        assert_eq!(pool.cached_len(), 0);
        assert_eq!(cache_gauge.current(), 0);
        let c = profile.snapshot();
        assert_eq!(c.hist_cache_trimmed, 5, "nodes 2, 4 and 3, then 6 and 7");
        assert_eq!(c.hist_cache_evictions, 0, "the byte budget never pressed");
        assert_eq!(c.hist_cache_misses, 0);
    }

    #[test]
    fn scratch_pool_hands_back_what_it_was_given() {
        let mut pool = ScratchPool::new();
        let (buf, fresh) = pool.acquire(8);
        assert!(fresh, "first acquire allocates");
        let at = buf.as_ptr();
        pool.release(buf);
        let (buf, fresh) = pool.acquire(8);
        assert!(!fresh, "steady-state acquire must not allocate");
        assert_eq!(buf.as_ptr(), at, "the released buffer is the one handed out");
        assert!(buf.iter().all(|&x| x == 0.0));
        pool.release(buf);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a replica came back written")]
    fn scratch_pool_rejects_a_written_replica() {
        let mut pool = ScratchPool::new();
        let (mut buf, _) = pool.acquire(4);
        buf[1] = 1.0;
        pool.release(buf);
    }

    #[test]
    fn scratch_pool_growth_counts_as_alloc() {
        let mut pool = ScratchPool::new();
        let (buf, _) = pool.acquire(4);
        pool.release(buf);
        let (buf, grown) = pool.acquire(16);
        assert!(grown, "growth is an allocation event");
        assert_eq!(&buf[..16], &[0.0; 16]);
        pool.release(buf);
        let (buf, grown) = pool.acquire(16);
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
        let mut keys = Keys::leafwise();
        // 32 bytes/entry, budget for 2 entries.
        let mut pool = HistPool::new(2, 0, 64);
        pool.instrument(Arc::clone(&profile), None, None);
        pool.cache_insert(1, ROWS, vec![1.0; 4], keys.gain(5.0), UNBOUNDED);
        pool.cache_insert(2, ROWS, vec![2.0; 4], keys.gain(1.0), UNBOUNDED);
        pool.cache_insert(3, ROWS, vec![3.0; 4], keys.gain(3.0), UNBOUNDED); // evicts node 2
        assert!(pool.cache_take(1, ROWS, UNBOUNDED).is_some()); // hit
        assert!(pool.cache_take(2, ROWS, UNBOUNDED).is_none()); // miss (evicted)
        let c = profile.snapshot();
        assert_eq!(c.hist_cache_hits, 1);
        assert_eq!(c.hist_cache_misses, 1);
        assert_eq!(c.hist_cache_evictions, 1);
        assert_eq!(c.hist_cache_trimmed, 0);
    }

    #[test]
    fn cache_gauge_high_water_survives_evictions_and_clear() {
        let cache_gauge = Arc::new(MemGauge::new());
        let pool_gauge = Arc::new(MemGauge::new());
        let mut keys = Keys::leafwise();
        let mut pool = HistPool::new(2, 0, 64);
        pool.instrument(
            Arc::new(Profile::new()),
            Some(Arc::clone(&pool_gauge)),
            Some(Arc::clone(&cache_gauge)),
        );
        let a = pool.alloc().zeroed();
        let b = pool.alloc().zeroed();
        assert_eq!(pool_gauge.current(), 64, "two fresh 32-byte buffers");
        pool.cache_insert(1, ROWS, a, keys.gain(5.0), UNBOUNDED);
        pool.cache_insert(2, ROWS, b, keys.gain(1.0), UNBOUNDED);
        assert_eq!(cache_gauge.current(), 64);
        assert_eq!(cache_gauge.high_water(), 64);
        let c = pool.alloc().zeroed();
        pool.cache_insert(3, ROWS, c, keys.gain(3.0), UNBOUNDED); // evicts node 2, recycles it
        assert_eq!(cache_gauge.current(), 64, "eviction then insert nets out");
        assert!(pool.cache_take(1, ROWS, UNBOUNDED).is_some());
        assert_eq!(cache_gauge.current(), 32, "take shrinks occupancy");
        pool.clear_cache();
        assert_eq!(cache_gauge.current(), 0, "clear empties occupancy");
        assert_eq!(cache_gauge.high_water(), 64, "peak survives shrink");
        assert_eq!(pool_gauge.current(), 96, "pool total is monotone");
        // Recycled buffers do not re-count.
        let _ = pool.alloc().zeroed();
        assert_eq!(pool_gauge.current(), 96);
    }

    #[test]
    fn replacement_insert_keeps_cache_gauge_flat() {
        let gauge = Arc::new(MemGauge::new());
        let mut keys = Keys::leafwise();
        let mut pool = HistPool::new(2, 0, 1 << 20);
        pool.instrument(Arc::new(Profile::new()), None, Some(Arc::clone(&gauge)));
        pool.cache_insert(1, ROWS, vec![1.0; 4], keys.gain(1.0), UNBOUNDED);
        pool.cache_insert(1, ROWS, vec![2.0; 4], keys.gain(2.0), UNBOUNDED);
        assert_eq!(gauge.current(), 32, "re-insert replaces, not grows");
        assert_eq!(gauge.high_water(), 32);
    }

    #[test]
    fn scratch_gauge_tracks_capacity_growth() {
        let gauge = Arc::new(MemGauge::new());
        let mut pool = ScratchPool::new();
        pool.set_gauge(Arc::clone(&gauge));
        let (buf, _) = pool.acquire(4);
        let cap0 = gauge.current();
        assert!(cap0 >= 32, "fresh 4-lane replica counted");
        pool.release(buf);
        let (buf, grown) = pool.acquire(16);
        assert!(grown);
        assert!(gauge.current() >= 128, "growth adds the capacity delta");
        assert_eq!(gauge.current(), gauge.high_water());
        pool.release(buf);
        let before = gauge.current();
        let (buf, grown) = pool.acquire(16);
        assert!(!grown);
        assert_eq!(gauge.current(), before, "steady-state reuse adds nothing");
        pool.release(buf);
    }
}
