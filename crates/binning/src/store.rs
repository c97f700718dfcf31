//! The object-mediated storage layer: [`QuantStore`] abstracts *where*
//! quantized rows live so the training and prediction drivers stop assuming
//! one resident [`QuantizedMatrix`].
//!
//! Two implementations ship:
//!
//! * [`QuantizedMatrix`] itself — the in-memory store: one chunk spanning
//!   every row, whose pin is a borrow of the matrix.
//! * [`crate::cache::ChunkedStore`] — the out-of-core store: row-block
//!   aligned chunks decoded on demand from a memory-mapped cache file under
//!   a resident-byte budget with LRU eviction.
//!
//! The contract that keeps chunked training **bitwise identical** to
//! in-core: a chunk is a contiguous ascending row range, and every reader
//! walks its (ascending) rows chunk by chunk in ascending chunk order —
//! which reproduces the exact per-histogram-cell `f64` accumulation order of
//! a monolithic scan. That walk is written once, as [`sweep_chunks`]; scans,
//! split routing and scoring are its visitors, and the in-memory store is
//! the case where it has one step.

use crate::mapper::BinMapper;
use crate::quantized::QuantizedMatrix;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// Chunk-I/O counters of a store. All zero for an in-memory store; a
/// chunked store reports cumulative loads and evictions plus the current
/// and high-water resident decoded bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkIoStats {
    /// Chunks decoded from the cache file (a re-load after eviction counts
    /// again).
    pub chunk_loads: u64,
    /// Chunks evicted to stay under the resident-byte budget.
    pub chunk_evictions: u64,
    /// Decoded bytes currently resident.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes` over the store's lifetime.
    pub resident_high_water: u64,
}

/// A pinned chunk: a guard that keeps one chunk's decoded slab alive for
/// the duration of a scan. Dereferences to the slab matrix, whose rows are
/// renumbered `0..chunk_len` (chunk-local ids).
pub enum PinnedChunk<'a> {
    /// The in-memory store's single "chunk" — a borrow of the whole matrix.
    Borrowed(&'a QuantizedMatrix),
    /// A decoded slab held alive by refcount; eviction skips chunks with
    /// outstanding pins.
    Cached(Arc<QuantizedMatrix>),
}

impl Deref for PinnedChunk<'_> {
    type Target = QuantizedMatrix;

    #[inline]
    fn deref(&self) -> &QuantizedMatrix {
        match self {
            PinnedChunk::Borrowed(qm) => qm,
            PinnedChunk::Cached(qm) => qm,
        }
    }
}

/// Read surface the scan kernels and split routing need from quantized
/// storage, chunk-mediated. See the [module docs](self) for the determinism
/// contract.
pub trait QuantStore: Sync {
    /// Total rows across all chunks.
    fn n_rows(&self) -> usize;

    /// Number of (original) features.
    fn n_features(&self) -> usize;

    /// The cut points shared by every chunk.
    fn mapper(&self) -> &BinMapper;

    /// Whether storage is dense `u8` (one byte column per feature) rather
    /// than sparse. Every chunk of a store shares its kind, so plan and
    /// kernel dispatch decided from it holds for every slab a scan pins.
    fn is_dense(&self) -> bool;

    /// Decoded-equivalent storage bytes of the whole matrix (what an
    /// in-memory store of the same data would occupy). A chunked store
    /// answers from its header without decoding anything.
    fn storage_bytes(&self) -> usize;

    /// Cells a scan of every row reads: `n_rows × n_features` bytes on
    /// dense storage, the entry count on sparse storage —
    /// exact, and equal for an in-core and a chunked store of the same data.
    /// The sparse count is read back from [`storage_bytes`](Self::storage_bytes),
    /// which counts every entry twice (CSR and CSC, a 4-byte index and a
    /// 1-byte bin each — the CSR whether or not a row read has built it)
    /// plus 8-byte offset arrays of `rows + 1` and `features + 1` entries
    /// per slab; a chunked store reports the sum over its slabs.
    fn stored_cells(&self) -> u64 {
        if self.is_dense() {
            return self.n_rows() as u64 * self.n_features() as u64;
        }
        let offsets = 8 * (self.n_rows() + self.n_chunks() * (self.n_features() + 2));
        (self.storage_bytes() - offsets) as u64 / 10
    }

    /// Number of chunks (1 for in-memory).
    fn n_chunks(&self) -> usize;

    /// Global row range of chunk `c`. Chunks are contiguous, ascending, and
    /// non-empty.
    fn chunk_rows(&self, c: usize) -> Range<usize>;

    /// The chunk containing global row `row`.
    fn chunk_of_row(&self, row: usize) -> usize;

    /// Pins chunk `c`'s decoded slab for a scan, loading it on the calling
    /// thread if absent.
    fn pin(&self, c: usize) -> PinnedChunk<'_>;

    /// How many decoded chunks fit the resident budget at once, or
    /// `usize::MAX` when residency is unbounded (in-core stores, or a
    /// budget that covers every chunk). Drivers that run several sweep
    /// cursors concurrently keep them within this window of each other:
    /// cursors spread wider than the budget evict each other's upcoming
    /// chunks and degrade every sweep to a full reload.
    fn sweep_capacity(&self) -> usize {
        usize::MAX
    }

    /// Appends the routing byte of original feature `f` for each listed
    /// global row: the feature-local bin, or
    /// [`MISSING_BIN`](crate::MISSING_BIN) when absent. `rows` must be
    /// ascending (node row lists are).
    fn gather_route_bins(&self, f: usize, rows: &[u32], out: &mut Vec<u8>) {
        out.reserve(rows.len());
        sweep_chunks(
            self,
            &[Rows::List(rows)],
            |_| {},
            |run| run.slab.route_bins_for(f, run.rows.list(), out),
        );
    }

    /// The whole matrix when it is resident as one [`QuantizedMatrix`], for
    /// the callers that borrow that *representation* (a routing column)
    /// rather than read rows; every row reader goes through
    /// [`sweep_chunks`].
    fn as_single(&self) -> Option<&QuantizedMatrix> {
        None
    }

    /// Cumulative chunk-I/O counters. Zeros for in-memory.
    fn io_stats(&self) -> ChunkIoStats {
        ChunkIoStats::default()
    }

    /// Builds the row layout row reads need, unless it is built: an
    /// in-memory store's dense row major or sparse CSR
    /// ([`QuantizedMatrix::derive_rows`]). A decoded slab holds its rows
    /// already, so a chunked store has nothing to build. Callers that hand
    /// row reads to a pool call it first, on their own thread.
    fn derive_rows(&self) {}
}

impl QuantStore for QuantizedMatrix {
    fn n_rows(&self) -> usize {
        QuantizedMatrix::n_rows(self)
    }

    fn n_features(&self) -> usize {
        QuantizedMatrix::n_features(self)
    }

    fn mapper(&self) -> &BinMapper {
        QuantizedMatrix::mapper(self)
    }

    fn is_dense(&self) -> bool {
        QuantizedMatrix::is_dense(self)
    }

    fn storage_bytes(&self) -> usize {
        QuantizedMatrix::storage_bytes(self)
    }

    fn n_chunks(&self) -> usize {
        1
    }

    fn chunk_rows(&self, c: usize) -> Range<usize> {
        assert_eq!(c, 0, "in-memory store has a single chunk");
        0..QuantizedMatrix::n_rows(self)
    }

    fn chunk_of_row(&self, _row: usize) -> usize {
        0
    }

    fn pin(&self, c: usize) -> PinnedChunk<'_> {
        assert_eq!(c, 0, "in-memory store has a single chunk");
        PinnedChunk::Borrowed(self)
    }

    fn as_single(&self) -> Option<&QuantizedMatrix> {
        Some(self)
    }

    fn derive_rows(&self) {
        QuantizedMatrix::derive_rows(self)
    }
}

/// An ascending set of rows: an explicit id list, or a contiguous range (the
/// root fast path, where no id list exists). Global ids as a
/// [`sweep_chunks`] cursor, chunk-local ids inside a [`ChunkRun`].
#[derive(Debug, Clone)]
pub enum Rows<'a> {
    /// Ascending row ids.
    List(&'a [u32]),
    /// Contiguous rows.
    Range(Range<usize>),
}

impl<'a> Rows<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Rows::List(l) => l.len(),
            Rows::Range(r) => r.len(),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The id list. A list cursor yields list runs, so its visitor calls
    /// this.
    ///
    /// # Panics
    /// Panics on a range.
    pub fn list(&self) -> &'a [u32] {
        match self {
            Rows::List(l) => l,
            Rows::Range(_) => panic!("a row range has no id list"),
        }
    }

    /// The row range; the counterpart of [`list`](Self::list).
    ///
    /// # Panics
    /// Panics on a list.
    pub fn range(&self) -> Range<usize> {
        match self {
            Rows::Range(r) => r.clone(),
            Rows::List(_) => panic!("a row list is not a range"),
        }
    }

    /// The row at `pos`, if any.
    fn get(&self, pos: usize) -> Option<usize> {
        match self {
            Rows::List(l) => l.get(pos).map(|&r| r as usize),
            Rows::Range(r) => (pos < r.len()).then(|| r.start + pos),
        }
    }

    /// How many rows from `pos` on lie below row `end`.
    fn count_below(&self, pos: usize, end: usize) -> usize {
        match self {
            Rows::List(l) => l[pos..].partition_point(|&r| (r as usize) < end),
            Rows::Range(r) => r.end.min(end).saturating_sub(r.start + pos),
        }
    }
}

/// One ⟨chunk, cursor⟩ intersection of a [`sweep_chunks`]: the rows of one
/// cursor that live in the pinned chunk.
pub struct ChunkRun<'a> {
    /// Index of the cursor the run belongs to.
    pub cursor: usize,
    /// The pinned chunk's decoded slab; its rows are numbered from 0.
    pub slab: &'a QuantizedMatrix,
    /// Global id of the slab's row 0 (what re-bases a row-indexed array).
    pub start: usize,
    /// The run's positions within the cursor (what slices a positional one).
    pub pos: Range<usize>,
    /// The run's rows, chunk-local: `local + start == global`.
    pub rows: Rows<'a>,
}

/// The one chunk walk. Visits every non-empty intersection of a chunk with
/// one of the `cursors` — steps in ascending chunk order, within a step the
/// cursors in index order, so the runs of one cursor ascend — which is the
/// order that keeps every reader bitwise equal to a monolithic scan (see the
/// [module docs](self)). `before_step(i)` runs ahead of step `i`'s pin: the
/// place to pace concurrent sweeps ([`QuantStore::sweep_capacity`]).
///
/// Two guarantees callers rely on:
/// * **ascending chunks** — a chunk is pinned at most once per sweep, and
///   only while its runs are visited; a sweep pins nothing else, so its
///   pins are exactly the chunks its cursors touch;
/// * **borrow at zero** — a chunk that starts at row 0 hands the visitor the
///   caller's own id slice; only later chunks are renumbered into a buffer.
///   A one-chunk store therefore costs no search, no copy and no allocation.
///
/// # Panics
/// Panics if a range cursor ends past the store's last row.
pub fn sweep_chunks<S: QuantStore + ?Sized>(
    store: &S,
    cursors: &[Rows<'_>],
    mut before_step: impl FnMut(usize),
    mut visit: impl FnMut(&ChunkRun<'_>),
) {
    for cur in cursors {
        match cur {
            Rows::List(l) => debug_assert!(l.is_sorted(), "a cursor's row list must ascend"),
            Rows::Range(r) => assert!(r.end <= store.n_rows(), "row range out of bounds"),
        }
    }
    if store.n_chunks() == 1 {
        if cursors.iter().all(Rows::is_empty) {
            return;
        }
        before_step(0);
        let slab = store.pin(0);
        for (cursor, rows) in cursors.iter().enumerate().filter(|(_, c)| !c.is_empty()) {
            let rows = rows.clone();
            visit(&ChunkRun { cursor, slab: &slab, start: 0, pos: 0..rows.len(), rows });
        }
        return;
    }

    // Per cursor: rows consumed, and where this step's run ends.
    let mut at = vec![[0usize; 2]; cursors.len()];
    let chunk_at = |k: usize, pos: usize| cursors[k].get(pos).map(|r| store.chunk_of_row(r));
    let mut next = (0..cursors.len()).filter_map(|k| chunk_at(k, 0)).min();
    let mut local: Vec<u32> = Vec::new();
    let mut step = 0;
    while let Some(c) = next {
        before_step(step);
        step += 1;
        let span = store.chunk_rows(c);
        next = None;
        for (k, [pos, cut]) in at.iter_mut().enumerate() {
            *cut = *pos + cursors[k].count_below(*pos, span.end);
            next = next.into_iter().chain(chunk_at(k, *cut)).min();
        }
        let slab = store.pin(c);
        for (cursor, [pos, cut]) in at.iter_mut().enumerate() {
            if pos == cut {
                continue;
            }
            let rows = match &cursors[cursor] {
                Rows::Range(r) => {
                    Rows::Range(r.start + *pos - span.start..r.start + *cut - span.start)
                }
                Rows::List(l) if span.start == 0 => Rows::List(&l[*pos..*cut]),
                Rows::List(l) => {
                    local.clear();
                    local.extend(l[*pos..*cut].iter().map(|&r| r - span.start as u32));
                    Rows::List(&local)
                }
            };
            visit(&ChunkRun { cursor, slab: &slab, start: span.start, pos: *pos..*cut, rows });
            *pos = *cut;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::BinningConfig;
    use crate::quantized::MISSING_BIN;
    use harp_data::{DenseMatrix, FeatureMatrix};
    use proptest::prelude::*;
    use std::sync::Mutex;

    fn qm() -> QuantizedMatrix {
        let vals: Vec<f32> = (0..40).map(|i| (i % 7) as f32).collect();
        QuantizedMatrix::from_matrix(
            &FeatureMatrix::Dense(DenseMatrix::from_vec(10, 4, vals)),
            BinningConfig::default(),
        )
    }

    #[test]
    fn in_memory_store_is_one_borrowed_chunk() {
        let q = qm();
        let store: &dyn QuantStore = &q;
        assert_eq!(store.n_chunks(), 1);
        assert_eq!(store.chunk_rows(0), 0..10);
        assert_eq!(store.chunk_of_row(9), 0);
        assert!(store.as_single().is_some());
        assert_eq!(store.io_stats(), ChunkIoStats::default());
        let pinned = store.pin(0);
        assert_eq!(pinned.n_rows(), 10);
        assert!(matches!(pinned, PinnedChunk::Borrowed(_)));
    }

    #[test]
    fn in_memory_layout_reflects_matrix_flags() {
        let q = qm();
        assert!(QuantStore::is_dense(&q));
        assert_eq!(QuantStore::stored_cells(&q), 10 * 4);
    }

    /// Chunk geometry only: chunk `c` is rows `bounds[c]..bounds[c + 1]`,
    /// every pin lends the same slab (the sweep's visitor need not read it),
    /// and pins are logged in call order.
    struct Geometry {
        bounds: Vec<usize>,
        slab: QuantizedMatrix,
        /// Pinned chunks.
        log: Mutex<Vec<usize>>,
    }

    impl QuantStore for Geometry {
        fn n_rows(&self) -> usize {
            *self.bounds.last().unwrap()
        }
        fn n_features(&self) -> usize {
            self.slab.n_features()
        }
        fn mapper(&self) -> &BinMapper {
            self.slab.mapper()
        }
        fn is_dense(&self) -> bool {
            self.slab.is_dense()
        }
        fn storage_bytes(&self) -> usize {
            self.slab.storage_bytes()
        }
        fn n_chunks(&self) -> usize {
            self.bounds.len() - 1
        }
        fn chunk_rows(&self, c: usize) -> Range<usize> {
            self.bounds[c]..self.bounds[c + 1]
        }
        fn chunk_of_row(&self, row: usize) -> usize {
            self.bounds.partition_point(|&b| b <= row) - 1
        }
        fn pin(&self, c: usize) -> PinnedChunk<'_> {
            self.log.lock().unwrap().push(c);
            PinnedChunk::Borrowed(&self.slab)
        }
    }

    fn mix(x: u64) -> u64 {
        let x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sweep as a property: over random chunk boundaries (one chunk
        /// included), 1..=4 random ascending lists and one contiguous range,
        /// every row of every cursor is visited exactly once and in order,
        /// steps ascend in chunk index and are never empty, `before_step`
        /// counts them, `local + start == global`, and a chunk starting at
        /// row 0 hands back the caller's own slice.
        #[test]
        fn sweep_visits_every_row_once_in_chunk_order(
            chunk_lens in proptest::collection::vec(1usize..60, 1..7),
            lists in proptest::collection::vec((any::<u64>(), 0u64..5), 1..5),
            range_ends in (any::<usize>(), any::<usize>()),
        ) {
            let mut bounds = vec![0];
            for len in chunk_lens {
                bounds.push(bounds.last().unwrap() + len);
            }
            let store = Geometry { bounds, slab: qm(), log: Mutex::new(Vec::new()) };
            let n = store.n_rows();
            let lists: Vec<Vec<u32>> = lists
                .iter()
                .map(|&(seed, share)| {
                    (0..n as u32).filter(|&r| mix(seed ^ u64::from(r)) % 16 < share).collect()
                })
                .collect();
            let (a, b) = (range_ends.0 % (n + 1), range_ends.1 % (n + 1));
            let mut cursors: Vec<Rows<'_>> = lists.iter().map(|l| Rows::List(l)).collect();
            cursors.push(Rows::Range(a.min(b)..a.max(b)));

            let mut seen: Vec<Vec<usize>> = vec![Vec::new(); cursors.len()];
            let mut steps = Vec::new();
            let mut visited_steps = Vec::new();
            let mut failure = None;
            sweep_chunks(
                &store,
                &cursors,
                |i| steps.push(i),
                |run| {
                    let chunk = *store.log.lock().unwrap().last().expect("pinned");
                    let span = store.chunk_rows(chunk);
                    let local: Vec<usize> = match &run.rows {
                        Rows::List(l) => l.iter().map(|&r| r as usize).collect(),
                        Rows::Range(r) => r.clone().collect(),
                    };
                    let borrowed = match (&run.rows, &cursors[run.cursor]) {
                        (Rows::List(got), Rows::List(given)) if run.start == 0 => {
                            std::ptr::eq(got.as_ptr(), given.as_ptr())
                        }
                        _ => true,
                    };
                    if run.start != span.start
                        || local.is_empty()
                        || local.iter().any(|&r| r >= span.len())
                        || run.pos != (seen[run.cursor].len()..seen[run.cursor].len() + local.len())
                        || !borrowed
                    {
                        failure.get_or_insert(format!("bad run of cursor {}", run.cursor));
                    }
                    seen[run.cursor].extend(local.iter().map(|&r| r + run.start));
                    if visited_steps.last() != Some(&chunk) {
                        visited_steps.push(chunk);
                    }
                },
            );
            prop_assert!(failure.is_none(), "{:?}", failure);
            for (cur, seen) in cursors.iter().zip(&seen) {
                let want: Vec<usize> = match cur {
                    Rows::List(l) => l.iter().map(|&r| r as usize).collect(),
                    Rows::Range(r) => r.clone().collect(),
                };
                prop_assert_eq!(seen, &want);
            }
            let pins = store.log.lock().unwrap();
            prop_assert!(pins.windows(2).all(|w| w[0] < w[1]), "pins {:?}", pins);
            prop_assert_eq!(&*pins, &visited_steps);
            prop_assert_eq!(steps, (0..pins.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn gather_matches_cell_lookups() {
        let q = qm();
        let rows: Vec<u32> = vec![0, 3, 7, 9];
        let mut got = Vec::new();
        QuantStore::gather_route_bins(&q, 2, &rows, &mut got);
        let want: Vec<u8> =
            rows.iter().map(|&r| q.bin(r as usize, 2).unwrap_or(MISSING_BIN)).collect();
        assert_eq!(got, want);
    }
}
