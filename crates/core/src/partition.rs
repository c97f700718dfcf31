//! ApplySplit: row-to-node membership (the paper's NodeMap) and MemBuf.
//!
//! Rows are kept grouped by node: each node owns a contiguous span, and
//! splitting a node stably partitions its span into the left child's rows
//! followed by the right child's. Stability matters: row ids stay ascending
//! inside every node, which (a) preserves input locality and (b) makes
//! histogram accumulation order — and therefore the whole training run —
//! deterministic (DESIGN.md §6).
//!
//! When MemBuf is enabled (§IV-E), each row's gradient pair travels with its
//! row id, so node-wise scans read `(row_id, g, h)` sequentially instead of
//! gathering gradients from a random-access global array — the "+MemBuf" row
//! of Table V.
//!
//! # Two planes, one move per row
//! The partition holds two *planes* of `(row ids, MemBuf gradients)`. A node's
//! span word records which plane its rows live in; a split reads the parent's
//! span in its plane and writes the left child, then the right child, into
//! the **same range of the other plane**. The parent's range is dead the
//! moment it is split, so nothing is copied back: every row moves once per
//! split. The root lives in plane 0, its children in plane 1, theirs in
//! plane 0 again.
//!
//! A split is two passes over ⟨node, row-block⟩ pieces. The *mark* pass asks
//! the routing predicate once per row, writes the answer into a byte mask
//! addressed by span position (nodes own disjoint spans, hence disjoint mask
//! pieces) and counts the lefts of each block. The *move* pass scatters each
//! block by the mask through a branch-free destination select; exclusive
//! prefixes of the per-block counts give every block its own left and right
//! destination range, so blocks move concurrently.
//!
//! [`RowPartition::apply_splits`] runs a whole batch of splits: inline, one
//! block per node, when no pool is given (an ASYNC node task) or the batch is
//! small; otherwise as **one pool region** of all mark tasks followed by all
//! move tasks. The pool hands out task indices in order, so by the time a
//! move task is claimed every mark task is claimed too and runs without
//! waiting on anything; a move task spins (then yields) on its node's latch,
//! which the node's last mark task opens after turning the block counts into
//! prefixes.
//!
//! # Gradient ownership
//! The partition owns the round's gradients: the objective writes them into
//! [`RowPartition::gradients_mut`] — the root plane's MemBuf half, in row
//! order, or with MemBuf off the one row-ordered array
//! ([`RowPartition::global_grads`]) that node scans gather from.
//!
//! # Concurrency model
//! All splitting operations take `&self`; the safety argument is that nodes
//! own disjoint spans, and callers only operate on nodes they own: the batch
//! engine splits distinct nodes of one batch, ASYNC tasks each own one node.
//! The span table uses atomics so concurrently created children are visible
//! across worker threads.

use crate::loss::GradPair;
use crate::plan::{n_row_blocks, row_block};
use harp_parallel::{SpinMutex, ThreadPool, TracePhase};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Fixed-length buffer whose elements are read and written through `&self`
/// by the tasks of a split, each within ranges it alone owns.
struct SyncBuf<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: the buffer owns its allocation like a `Box<[T]>` (so `Send` needs
// `T: Send`). Sharing `&SyncBuf` hands out element access only through the
// `unsafe` methods below, whose callers promise that a range being written is
// touched by no other thread — the partition upholds it with the plane
// discipline: live nodes own disjoint spans, children tile their parent's
// range in the *other* plane, and the per-block prefix sums give every
// ⟨node, row-block⟩ move task its own two destination ranges.
unsafe impl<T: Send> Send for SyncBuf<T> {}
unsafe impl<T: Send + Sync> Sync for SyncBuf<T> {}

impl<T: Copy + Default> SyncBuf<T> {
    fn new(len: usize) -> Self {
        let boxed = vec![T::default(); len].into_boxed_slice();
        Self { ptr: Box::into_raw(boxed).cast::<T>(), len }
    }

    /// The whole buffer; `&mut self` is the exclusivity.
    fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: `ptr`/`len` describe the allocation made in `new`.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }

    /// # Safety
    /// No thread writes inside `range` while the slice is alive.
    unsafe fn slice(&self, range: Range<usize>) -> &[T] {
        assert!(range.start <= range.end && range.end <= self.len, "range out of bounds");
        // SAFETY: in bounds (checked); unwritten meanwhile (caller).
        unsafe { std::slice::from_raw_parts(self.ptr.add(range.start), range.len()) }
    }

    /// # Safety
    /// No other thread reads or writes inside `range` while the slice is
    /// alive.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, range: Range<usize>) -> &mut [T] {
        assert!(range.start <= range.end && range.end <= self.len, "range out of bounds");
        // SAFETY: in bounds (checked); exclusive meanwhile (caller).
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len()) }
    }

    /// The scatter primitive: stores `value` at `idx`.
    ///
    /// # Safety
    /// `idx < len`, and no other thread reads or writes element `idx`
    /// concurrently.
    #[inline(always)]
    unsafe fn write(&self, idx: usize, value: T) {
        debug_assert!(idx < self.len, "scatter out of bounds");
        // SAFETY: in bounds and unshared (caller).
        unsafe { self.ptr.add(idx).write(value) }
    }
}

impl<T> Drop for SyncBuf<T> {
    fn drop(&mut self) {
        // SAFETY: reassembles the box `new` leaked; `&mut self` in `drop`
        // means no slice of it is alive.
        drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(self.ptr, self.len)) });
    }
}

/// One of the two `(row ids, MemBuf gradients)` planes a split ping-pongs
/// between. The gradient half is empty when MemBuf is off.
struct Plane {
    rows: SyncBuf<u32>,
    grads: SyncBuf<GradPair>,
}

/// A node's rows: positions `start..start + len` of plane `plane`.
#[derive(Clone, Copy)]
struct Span {
    plane: usize,
    start: usize,
    len: usize,
}

impl Span {
    /// Span-table value of a node without rows assigned.
    const UNASSIGNED: u64 = u64::MAX;

    /// `start` in the high word, the plane bit and a 31-bit `len` in the
    /// low one. `start <= MAX_ROWS < 2^31`, so no span packs to
    /// [`UNASSIGNED`](Self::UNASSIGNED).
    fn pack(self) -> u64 {
        ((self.start as u64) << 32) | ((self.plane as u64) << 31) | self.len as u64
    }

    fn unpack(v: u64) -> Self {
        Self {
            plane: ((v >> 31) & 1) as usize,
            start: (v >> 32) as usize,
            len: (v & 0x7FFF_FFFF) as usize,
        }
    }

    fn range(self) -> Range<usize> {
        self.start..self.start + self.len
    }
}

/// The most rows one partition can hold: a span word keeps a position and a
/// length in 31 bits each beside the plane bit.
const MAX_ROWS: usize = (1 << 31) - 1;

/// A batch with fewer rows than this in total is partitioned inline even
/// when a pool is available: a region costs more than moving them.
const MIN_PARALLEL_SPAN: usize = 8192;

/// Rows per ⟨node, row-block⟩ task of a pooled batch. Fixed — not derived
/// from the thread count — so the task list is a property of the batch.
const ROW_BLOCK: usize = 4096;

/// Reusable tables of a pooled batch, held behind a spin lock so repeated
/// batches perform no heap allocation once the vectors have grown to the
/// steady-state block and batch sizes.
#[derive(Default)]
struct BatchScratch {
    /// `(split, block within its node)` of every ⟨node, row-block⟩ task.
    tasks: Vec<(u32, u32)>,
    /// Per split: the index of its first task; one more entry closes the
    /// last.
    first: Vec<usize>,
    /// Per task: its block's left count, then — once the node's last mark
    /// task has run — the lefts in the node's blocks before it.
    counts: Vec<AtomicU32>,
    /// Per split, the mark latch: mark tasks still to run, plus one for the
    /// prefix pass. Zero releases the node's move tasks.
    pending: Vec<AtomicU32>,
    /// Per split: rows routed left.
    n_left: Vec<AtomicU32>,
}

impl BatchScratch {
    /// Lays out the task list of `lens` (rows of each split's parent) and
    /// arms the latches. Returns whether a table had to grow.
    fn prepare(&mut self, lens: impl Iterator<Item = usize>) -> bool {
        self.tasks.clear();
        self.first.clear();
        for (i, len) in lens.enumerate() {
            self.first.push(self.tasks.len());
            self.tasks
                .extend((0..n_row_blocks(len, ROW_BLOCK)).map(|b| (i as u32, b as u32)));
        }
        self.first.push(self.tasks.len());
        let n_splits = self.first.len() - 1;
        let grew = self.tasks.len() > self.counts.len() || n_splits > self.pending.len();
        if self.tasks.len() > self.counts.len() {
            self.counts.resize_with(self.tasks.len(), AtomicU32::default);
        }
        if n_splits > self.pending.len() {
            self.pending.resize_with(n_splits, AtomicU32::default);
            self.n_left.resize_with(n_splits, AtomicU32::default);
        }
        for i in 0..n_splits {
            let blocks = (self.first[i + 1] - self.first[i]) as u32;
            // A node without rows has no task to wait for.
            self.pending[i].store(if blocks == 0 { 0 } else { blocks + 1 }, Ordering::Relaxed);
            self.n_left[i].store(0, Ordering::Relaxed);
        }
        grew
    }

    fn heap_bytes(&self) -> usize {
        self.tasks.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.first.capacity() * std::mem::size_of::<usize>()
            + (self.counts.capacity() + self.pending.capacity() + self.n_left.capacity())
                * std::mem::size_of::<AtomicU32>()
    }
}

/// Raised by a mark task that unwinds, so move tasks waiting on its node's
/// latch give up and the region can join and re-raise.
struct PoisonOnUnwind<'a>(&'a AtomicBool);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// Row membership and the round's gradients for one tree under construction.
pub struct RowPartition {
    n_rows: usize,
    planes: [Plane; 2],
    /// One routing answer per span position (1 = left), written by a
    /// split's mark pass and read by its move pass.
    mask: SyncBuf<u8>,
    /// The row-ordered gradient array when MemBuf is off; empty otherwise.
    global: Vec<GradPair>,
    /// Packed [`Span`] per node id.
    spans: Vec<AtomicU64>,
    use_membuf: bool,
    /// True between `start_tree` and the first split: the root's row buffer
    /// is the identity permutation, so a position in the root span IS its
    /// row id (the root-scan fast path relies on this).
    identity: AtomicBool,
    /// Task tables of pooled batches, reused across calls and trees.
    /// Spin-locked: pooled batches are only issued one at a time (from the
    /// coordinator), so the lock is uncontended; it merely keeps
    /// `apply_splits` callable through `&self`.
    batch: SpinMutex<BatchScratch>,
}

impl RowPartition {
    /// Checks that `n_rows` rows fit one partition — without allocating
    /// anything, so a trainer can ask before it sizes its buffers.
    ///
    /// # Errors
    /// Returns the rejection message for more than `2^31 − 1` rows.
    pub fn check_rows(n_rows: usize) -> Result<(), String> {
        if n_rows <= MAX_ROWS {
            Ok(())
        } else {
            Err(format!("at most {MAX_ROWS} rows fit one row partition, got {n_rows}"))
        }
    }

    /// Allocates buffers for `n_rows` rows and at most `max_nodes` nodes.
    ///
    /// # Panics
    /// Panics if [`check_rows`](Self::check_rows) rejects `n_rows`.
    pub fn new(n_rows: usize, max_nodes: usize, use_membuf: bool) -> Self {
        if let Err(e) = Self::check_rows(n_rows) {
            panic!("{e}");
        }
        let use_membuf = use_membuf && n_rows > 0;
        let plane = || Plane {
            rows: SyncBuf::new(n_rows),
            grads: SyncBuf::new(if use_membuf { n_rows } else { 0 }),
        };
        Self {
            n_rows,
            planes: [plane(), plane()],
            mask: SyncBuf::new(n_rows),
            global: vec![[0.0; 2]; if use_membuf { 0 } else { n_rows }],
            spans: (0..max_nodes).map(|_| AtomicU64::new(Span::UNASSIGNED)).collect(),
            use_membuf,
            identity: AtomicBool::new(false),
            batch: SpinMutex::new(BatchScratch::default()),
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Bytes held by MemBuf — the gradient halves of the two planes; zero
    /// when MemBuf is off. This is the "+MemBuf" overhead of Table V.
    pub fn membuf_bytes(&self) -> usize {
        if self.use_membuf {
            2 * self.n_rows * std::mem::size_of::<GradPair>()
        } else {
            0
        }
    }

    /// Bytes held by everything else: the row-id halves of the two planes,
    /// the routing mask, the span table, the pooled-batch tables and — with
    /// MemBuf off — the row-ordered gradient array (see
    /// [`membuf_bytes`](Self::membuf_bytes) for the MemBuf share).
    pub fn index_bytes(&self) -> usize {
        2 * self.n_rows * std::mem::size_of::<u32>()
            + self.n_rows
            + self.global.len() * std::mem::size_of::<GradPair>()
            + self.spans.len() * std::mem::size_of::<AtomicU64>()
            + self.batch.lock().heap_bytes()
    }

    /// Where the round's gradients are written, one pair per row in row
    /// order: the root plane's MemBuf half, or the row-ordered array when
    /// MemBuf is off. Splits overwrite the former, so fill it before
    /// [`start_tree`](Self::start_tree) and not after the tree's first
    /// split.
    pub fn gradients_mut(&mut self) -> &mut [GradPair] {
        if self.use_membuf {
            self.planes[0].grads.as_mut_slice()
        } else {
            &mut self.global
        }
    }

    /// The row-ordered gradient array node scans gather from when MemBuf is
    /// off. Empty while MemBuf is on: every node with rows then has its
    /// [`grads`](Self::grads).
    pub fn global_grads(&self) -> &[GradPair] {
        &self.global
    }

    /// Starts a new tree over the gradients already written through
    /// [`gradients_mut`](Self::gradients_mut): identity row order under the
    /// root node (id 0), every other node unassigned.
    pub fn start_tree(&mut self) {
        for s in &self.spans {
            s.store(Span::UNASSIGNED, Ordering::Relaxed);
        }
        for (i, r) in self.planes[0].rows.as_mut_slice().iter_mut().enumerate() {
            *r = i as u32;
        }
        self.set_span(0, Span { plane: 0, start: 0, len: self.n_rows });
        self.identity.store(true, Ordering::Release);
    }

    /// Starts a new tree with a copy of `grads`, one pair per row in row
    /// order.
    ///
    /// # Panics
    /// Panics if `grads.len() != n_rows`.
    pub fn reset(&mut self, grads: &[GradPair]) {
        assert_eq!(grads.len(), self.n_rows, "gradient count mismatch");
        self.gradients_mut().copy_from_slice(grads);
        self.start_tree();
    }

    /// Whether the row buffer is still the identity permutation (no split
    /// applied since the tree was started).
    pub fn is_identity_order(&self) -> bool {
        self.identity.load(Ordering::Acquire)
    }

    fn set_span(&self, node: u32, span: Span) {
        debug_assert!(span.start + span.len <= self.n_rows, "node {node}: span outside the planes");
        self.spans[node as usize].store(span.pack(), Ordering::Release);
    }

    fn span_of(&self, node: u32) -> Span {
        let v = self.spans[node as usize].load(Ordering::Acquire);
        assert_ne!(v, Span::UNASSIGNED, "node {node} has no row span");
        Span::unpack(v)
    }

    /// The positions `node`'s rows occupy in its plane.
    ///
    /// # Panics
    /// Panics if the node has no assigned span.
    pub fn span(&self, node: u32) -> Range<usize> {
        self.span_of(node).range()
    }

    /// Number of rows in `node`.
    pub fn node_len(&self, node: u32) -> usize {
        self.span_of(node).len
    }

    /// The row ids of `node`, ascending.
    ///
    /// # Safety contract (upheld by the trainer)
    /// The caller must not be concurrently splitting `node` or an ancestor.
    pub fn rows(&self, node: u32) -> &[u32] {
        let span = self.span_of(node);
        // SAFETY: see method docs — only a split of a node that covers this
        // range writes inside it, in either plane.
        unsafe { self.planes[span.plane].rows.slice(span.range()) }
    }

    /// The MemBuf gradient slice of `node`, aligned with
    /// [`rows`](Self::rows). Empty when MemBuf is disabled.
    pub fn grads(&self, node: u32) -> &[GradPair] {
        if !self.use_membuf {
            return &[];
        }
        let span = self.span_of(node);
        // SAFETY: see `rows`.
        unsafe { self.planes[span.plane].grads.slice(span.range()) }
    }

    /// Stably partitions `parent`'s span: rows satisfying `goes_left` first.
    /// Assigns spans to `left`/`right` and returns `(left_len, right_len)`.
    /// The batch of one: see [`apply_splits`](Self::apply_splits).
    ///
    /// `goes_left` receives `(pos, row)` where `pos` is the row's index
    /// within the parent's span (its position in `rows(parent)` before the
    /// partition) — routes that pre-gather per-node data (the out-of-core
    /// path) resolve it positionally instead of searching by row id. It is
    /// asked exactly once per row.
    ///
    /// `pool` lets a large span be partitioned by pool tasks; pass `None`
    /// from inside a worker task (ASYNC mode) to stay inline.
    pub fn apply_split(
        &self,
        parent: u32,
        left: u32,
        right: u32,
        goes_left: &(impl Fn(usize, u32) -> bool + Sync),
        pool: Option<&ThreadPool>,
    ) -> (u32, u32) {
        self.apply_splits(&[(parent, left, right)], &|_, pos, row| goes_left(pos, row), pool);
        (self.node_len(left) as u32, self.node_len(right) as u32)
    }

    /// Applies a batch of splits `(parent, left, right)` of distinct nodes:
    /// each parent's span is stably partitioned into the other plane and
    /// its children are assigned the two halves. `goes_left(i, pos, row)`
    /// routes a row of split `i` (see [`apply_split`](Self::apply_split))
    /// and is asked exactly once per row.
    ///
    /// With a pool and at least [`MIN_PARALLEL_SPAN`] rows in the batch, the
    /// splits run as ONE pool region of ⟨node, row-block⟩ tasks — every
    /// mark task, then every move task — whatever the batch's width and the
    /// pool's size. Otherwise (no pool: an ASYNC node task; or a small
    /// batch) they run inline on the caller, node by node.
    pub fn apply_splits(
        &self,
        splits: &[(u32, u32, u32)],
        goes_left: &(impl Fn(usize, usize, u32) -> bool + Sync),
        pool: Option<&ThreadPool>,
    ) {
        self.identity.store(false, Ordering::Release);
        let total: usize = splits.iter().map(|&(parent, _, _)| self.node_len(parent)).sum();
        match pool {
            Some(pool) if total >= MIN_PARALLEL_SPAN => {
                self.split_in_region(pool, splits, goes_left)
            }
            _ => {
                for (i, &(parent, left, right)) in splits.iter().enumerate() {
                    let src = self.span_of(parent);
                    let n_left = self.mark(src, 0..src.len, &|pos, row| goes_left(i, pos, row));
                    self.move_block(src, 0..src.len, src.start, src.start + n_left);
                    self.set_children(src, left, right, n_left);
                }
            }
        }
    }

    /// The pooled batch: one region of `2 × blocks` tasks, claimed in index
    /// order — marks first, so every mark task is running or done before
    /// the first move task can start waiting for one.
    fn split_in_region(
        &self,
        pool: &ThreadPool,
        splits: &[(u32, u32, u32)],
        goes_left: &(impl Fn(usize, usize, u32) -> bool + Sync),
    ) {
        let mut scratch = self.batch.lock();
        let grew = scratch.prepare(splits.iter().map(|&(parent, _, _)| self.node_len(parent)));
        pool.profile().add_partition_scratch_event(grew);
        let BatchScratch { tasks, first, counts, pending, n_left } = &*scratch;
        let n_blocks = tasks.len();
        let poisoned = AtomicBool::new(false);
        let trace = pool.trace();
        pool.parallel_for(2 * n_blocks, |t, worker| {
            let (i, b) = tasks[t % n_blocks];
            let i = i as usize;
            let parent = splits[i].0;
            let _span = trace.map(|s| s.span(worker, TracePhase::ApplySplit, parent, b));
            let src = self.span_of(parent);
            let block = row_block(b as usize, ROW_BLOCK, src.len);
            if t < n_blocks {
                let poison = PoisonOnUnwind(&poisoned);
                let lefts = self.mark(src, block, &|pos, row| goes_left(i, pos, row));
                drop(poison);
                counts[t].store(lefts as u32, Ordering::Relaxed);
                // AcqRel: the node's last mark task sees every count stored
                // before the earlier decrements.
                if pending[i].fetch_sub(1, Ordering::AcqRel) == 2 {
                    let mut before = 0u32;
                    for c in &counts[first[i]..first[i + 1]] {
                        before += c.swap(before, Ordering::Relaxed);
                    }
                    n_left[i].store(before, Ordering::Relaxed);
                    // Release, paired with the move tasks' Acquire loads:
                    // opens the latch over the prefixes and the mask.
                    pending[i].store(0, Ordering::Release);
                }
                return;
            }
            // Bounded spin, then yield: with more threads than cores the
            // mark task this waits for may need this core.
            let mut spins = 0u32;
            while pending[i].load(Ordering::Acquire) != 0 {
                if poisoned.load(Ordering::Acquire) {
                    return;
                }
                spins += 1;
                if spins % 64 == 0 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            let lefts_before = counts[t - n_blocks].load(Ordering::Relaxed) as usize;
            let rights_before = block.start - lefts_before;
            let right_base = src.start + n_left[i].load(Ordering::Relaxed) as usize;
            self.move_block(src, block, src.start + lefts_before, right_base + rights_before);
        });
        for (i, &(parent, left, right)) in splits.iter().enumerate() {
            let lefts = n_left[i].load(Ordering::Relaxed) as usize;
            self.set_children(self.span_of(parent), left, right, lefts);
        }
    }

    /// The mark pass over one block (positions `block` of `src`): asks
    /// `goes_left(pos, row)` once per row, records the answers in the mask
    /// and returns the number of lefts.
    fn mark(
        &self,
        src: Span,
        block: Range<usize>,
        goes_left: &impl Fn(usize, u32) -> bool,
    ) -> usize {
        let at = src.start + block.start..src.start + block.end;
        // SAFETY: the caller owns `src`'s node (module concurrency model),
        // nothing writes its rows until it is split again, and this block's
        // mask piece belongs to this task alone: blocks of one node are
        // disjoint, and so are the spans of distinct live nodes.
        let (rows, mask) =
            unsafe { (self.planes[src.plane].rows.slice(at.clone()), self.mask.slice_mut(at)) };
        let mut n_left = 0usize;
        for (i, (&row, m)) in rows.iter().zip(mask).enumerate() {
            let left = goes_left(block.start + i, row);
            *m = u8::from(left);
            n_left += usize::from(left);
        }
        n_left
    }

    /// The move pass over one block: scatters its rows (and gradients) by
    /// the mask into the other plane, lefts from position `left_at` on and
    /// rights from `right_at` on, each in source order.
    fn move_block(&self, src: Span, block: Range<usize>, left_at: usize, right_at: usize) {
        let at = src.start + block.start..src.start + block.end;
        let (from, to) = (&self.planes[src.plane], &self.planes[src.plane ^ 1]);
        // SAFETY (reads): the node's mark pass is complete — inline by
        // program order, in a region by the Acquire load of the node's latch
        // — and nothing else writes `src`'s range of its own plane or mask.
        let (rows, mask) = unsafe { (from.rows.slice(at.clone()), self.mask.slice(at.clone())) };
        let grads = if self.use_membuf {
            // SAFETY: as `rows`.
            unsafe { from.grads.slice(at) }
        } else {
            &[]
        };
        // The one bounds check of the scatter below, per block instead of
        // per row: both destination ranges, as the mask itself sizes them,
        // lie inside the parent's range.
        let lefts = mask.iter().filter(|&&m| m != 0).count();
        let end = src.start + src.len;
        assert!(
            src.start <= left_at
                && left_at + lefts <= end
                && src.start <= right_at
                && right_at + (mask.len() - lefts) <= end,
            "destinations outside the parent's range"
        );
        let (mut l, mut r) = (left_at, right_at);
        // Branch-free destination select: the next left or the next right
        // slot, by the mask byte.
        let mut next = |m: u8| {
            let m = usize::from(m != 0);
            let dst = if m != 0 { l } else { r };
            l += m;
            r += 1 - m;
            dst
        };
        // SAFETY (both loops): the left cursor takes `lefts` steps from
        // `left_at` and the right cursor the rest from `right_at`, so every
        // write is in bounds by the assert above. The mask holds exactly the
        // answers the block counts were summed from, so these are the
        // block's own two destination ranges — inside `src.range()` of the
        // other plane, which is dead (its node was split into `src`'s plane,
        // or never existed) and which the prefix sums carve into ranges no
        // two blocks share.
        if self.use_membuf {
            for ((&row, &g), &m) in rows.iter().zip(grads).zip(mask) {
                let dst = next(m);
                unsafe {
                    to.rows.write(dst, row);
                    to.grads.write(dst, g);
                }
            }
        } else {
            for (&row, &m) in rows.iter().zip(mask) {
                let dst = next(m);
                unsafe { to.rows.write(dst, row) };
            }
        }
    }

    /// Hands `src`'s range of the other plane to the children: `n_left` rows
    /// to `left`, the rest to `right`.
    fn set_children(&self, src: Span, left: u32, right: u32, n_left: usize) {
        assert!(n_left <= src.len, "more lefts than rows");
        let plane = src.plane ^ 1;
        self.set_span(left, Span { plane, start: src.start, len: n_left });
        self.set_span(right, Span { plane, start: src.start + n_left, len: src.len - n_left });
        // Two move tasks writing one destination would break the order a
        // stable partition of ascending rows must keep.
        debug_assert!(
            [left, right].iter().all(|&c| self.rows(c).windows(2).all(|w| w[0] < w[1])),
            "children of a split must hold ascending rows"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(n: usize, membuf: bool) -> RowPartition {
        let mut p = RowPartition::new(n, 64, membuf);
        let grads: Vec<GradPair> = (0..n).map(|i| [i as f32, 1.0]).collect();
        p.reset(&grads);
        p
    }

    #[test]
    fn reset_assigns_all_rows_to_root() {
        let p = fresh(10, true);
        assert_eq!(p.rows(0), (0..10).collect::<Vec<u32>>().as_slice());
        assert_eq!(p.node_len(0), 10);
        assert_eq!(p.grads(0)[3], [3.0, 1.0]);
        assert!(p.is_identity_order());
    }

    #[test]
    fn identity_order_cleared_by_split_and_restored_by_reset() {
        let p = fresh(10, true);
        assert!(p.is_identity_order());
        p.apply_split(0, 1, 2, &|_, r| r % 2 == 0, None);
        assert!(!p.is_identity_order());
        let mut p = p;
        let grads: Vec<GradPair> = (0..10).map(|i| [i as f32, 1.0]).collect();
        p.reset(&grads);
        assert!(p.is_identity_order());
    }

    #[test]
    fn split_is_stable_and_complete() {
        let p = fresh(10, true);
        p.apply_split(0, 1, 2, &|_, r| r % 3 == 0, None);
        assert_eq!(p.rows(1), &[0, 3, 6, 9]);
        assert_eq!(p.rows(2), &[1, 2, 4, 5, 7, 8]);
        // MemBuf permuted identically.
        assert_eq!(p.grads(1)[1], [3.0, 1.0]);
        assert_eq!(p.grads(2)[0], [1.0, 1.0]);
    }

    #[test]
    fn nested_splits_partition_spans() {
        let p = fresh(16, true);
        p.apply_split(0, 1, 2, &|_, r| r < 8, None);
        p.apply_split(1, 3, 4, &|_, r| r % 2 == 0, None);
        p.apply_split(2, 5, 6, &|_, r| r >= 12, None);
        assert_eq!(p.rows(3), &[0, 2, 4, 6]);
        assert_eq!(p.rows(4), &[1, 3, 5, 7]);
        assert_eq!(p.rows(5), &[12, 13, 14, 15]);
        assert_eq!(p.rows(6), &[8, 9, 10, 11]);
        // Sibling spans are adjacent inside the parent span.
        assert_eq!(p.span(3).end, p.span(4).start);
        assert_eq!(p.span(5).end, p.span(6).start);
    }

    #[test]
    fn empty_side_allowed() {
        let p = fresh(5, true);
        let (l, r) = p.apply_split(0, 1, 2, &|_, _| true, None);
        assert_eq!((l, r), (5, 0));
        assert_eq!(p.node_len(2), 0);
        assert_eq!(p.rows(1), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn parallel_partition_matches_serial() {
        let n = 50_000;
        let pool = ThreadPool::new(4);
        let pred = |_: usize, r: u32| (r.wrapping_mul(2654435761)) % 5 < 2;
        let ps = fresh(n, true);
        ps.apply_split(0, 1, 2, &pred, None);
        let pp = fresh(n, true);
        pp.apply_split(0, 1, 2, &pred, Some(&pool));
        assert_eq!(ps.rows(1), pp.rows(1));
        assert_eq!(ps.rows(2), pp.rows(2));
        assert_eq!(ps.grads(1), pp.grads(1));
    }

    #[test]
    fn parallel_partition_scratch_is_reused_across_splits_and_trees() {
        let n = 60_000;
        let profile = std::sync::Arc::new(harp_parallel::Profile::new());
        let pool = ThreadPool::with_profile(4, std::sync::Arc::clone(&profile));
        let grads: Vec<GradPair> = (0..n).map(|i| [i as f32, 1.0]).collect();
        let mut p = RowPartition::new(n, 64, true);
        for tree in 0..3 {
            p.reset(&grads);
            // Root split is the largest span this partition will ever see, so
            // the first call sizes the scratch for good.
            p.apply_split(0, 1, 2, &|_, r| r % 2 == 0, Some(&pool));
            p.apply_split(1, 3, 4, &|_, r| r % 3 == 0, Some(&pool));
            let allocs = profile.partition_scratch_allocs.load(Ordering::Relaxed);
            let reuses = profile.partition_scratch_reuses.load(Ordering::Relaxed);
            if tree == 0 {
                assert_eq!(allocs, 1, "only the first parallel split may allocate");
                assert_eq!(reuses, 1);
            }
            assert_eq!(allocs, 1, "steady state must not allocate (tree {tree})");
            assert_eq!(allocs + reuses, 2 * (tree + 1));
        }
        // Results stay correct through the reused scratch.
        assert!(p.rows(3).windows(2).all(|w| w[0] < w[1]));
        assert_eq!(p.node_len(3) + p.node_len(4) + p.node_len(2), n);
    }

    #[test]
    fn rows_stay_ascending_after_splits() {
        let n = 20_000;
        let pool = ThreadPool::new(3);
        let p = fresh(n, false);
        p.apply_split(0, 1, 2, &|_, r| r % 7 == 0, Some(&pool));
        p.apply_split(2, 3, 4, &|_, r| r % 3 == 0, Some(&pool));
        for node in [1u32, 3, 4] {
            let rows = p.rows(node);
            for w in rows.windows(2) {
                assert!(w[0] < w[1], "node {node} rows out of order");
            }
        }
    }

    #[test]
    fn membuf_disabled_returns_empty() {
        let p = fresh(10, false);
        assert!(!p.use_membuf);
        assert!(p.grads(0).is_empty());
        p.apply_split(0, 1, 2, &|_, r| r < 5, None);
        assert_eq!(p.rows(1), &[0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "no row span")]
    fn unassigned_node_panics() {
        let p = fresh(4, false);
        let _ = p.span(7);
    }

    #[test]
    fn reset_clears_previous_tree() {
        let mut p = fresh(8, true);
        p.apply_split(0, 1, 2, &|_, r| r < 4, None);
        let grads: Vec<GradPair> = (0..8).map(|i| [-(i as f32), 2.0]).collect();
        p.reset(&grads);
        assert_eq!(p.node_len(0), 8);
        assert_eq!(p.grads(0)[2], [-2.0, 2.0]);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.span(1)));
        assert!(caught.is_err(), "old child span must be cleared");
    }

    #[test]
    fn row_limit_is_checked_without_allocating() {
        assert!(RowPartition::check_rows(0).is_ok());
        assert!(RowPartition::check_rows(MAX_ROWS).is_ok());
        assert_eq!(MAX_ROWS, 2_147_483_647);
        let err = RowPartition::check_rows(MAX_ROWS + 1).unwrap_err();
        assert_eq!(err, "at most 2147483647 rows fit one row partition, got 2147483648");
        // The largest span the word can hold survives the round trip, in
        // either plane, and is not the unassigned marker.
        for plane in [0, 1] {
            let word = Span { plane, start: MAX_ROWS, len: 0 }.pack();
            assert_ne!(word, Span::UNASSIGNED);
            let full = Span::unpack(Span { plane, start: 0, len: MAX_ROWS }.pack());
            assert_eq!((full.plane, full.start, full.len), (plane, 0, MAX_ROWS));
        }
    }

    #[test]
    #[should_panic(expected = "at most 2147483647 rows")]
    fn new_rejects_more_rows_than_a_span_word_holds() {
        // Panics on the check, before any buffer is sized.
        let _ = RowPartition::new(MAX_ROWS + 1, 4, true);
    }

    #[test]
    fn byte_accounting_equals_what_new_allocated() {
        for (n, membuf) in [(0usize, true), (1, true), (1000, true), (1000, false)] {
            let p = RowPartition::new(n, 16, membuf);
            let planes: usize = p
                .planes
                .iter()
                .map(|pl| pl.rows.len * 4 + pl.grads.len * std::mem::size_of::<GradPair>())
                .sum();
            let allocated = planes
                + p.mask.len
                + p.global.len() * std::mem::size_of::<GradPair>()
                + p.spans.len() * 8;
            assert_eq!(p.index_bytes() + p.membuf_bytes(), allocated, "n={n} membuf={membuf}");
            assert_eq!(p.membuf_bytes(), if membuf { 2 * n * 8 } else { 0 });
            // One gradient array of n pairs, wherever it lives.
            assert_eq!(p.global_grads().len(), if membuf && n > 0 { 0 } else { n });
        }
    }

    #[test]
    fn gradients_written_in_place_are_the_roots() {
        for membuf in [true, false] {
            let mut p = RowPartition::new(6, 8, membuf);
            for (i, g) in p.gradients_mut().iter_mut().enumerate() {
                *g = [i as f32, 2.0];
            }
            p.start_tree();
            assert_eq!(p.rows(0), &[0, 1, 2, 3, 4, 5]);
            if membuf {
                assert_eq!(p.grads(0)[4], [4.0, 2.0]);
                assert!(p.global_grads().is_empty());
            } else {
                assert!(p.grads(0).is_empty());
                assert_eq!(p.global_grads()[4], [4.0, 2.0]);
            }
            p.apply_split(0, 1, 2, &|_, r| r % 2 == 1, None);
            p.apply_split(1, 3, 4, &|_, r| r > 1, None);
            assert_eq!(p.rows(3), &[3, 5]);
            if membuf {
                assert_eq!(p.grads(3), &[[3.0, 2.0], [5.0, 2.0]]);
            }
        }
    }

    /// Pools of 1–4 threads and one of 8 (oversubscribed on a small host),
    /// shared by every proptest case.
    fn pools() -> &'static [ThreadPool] {
        static POOLS: std::sync::OnceLock<Vec<ThreadPool>> = std::sync::OnceLock::new();
        POOLS.get_or_init(|| [1, 2, 3, 4, 8].into_iter().map(ThreadPool::new).collect())
    }

    /// The routing rules the reference test draws from: everything one way,
    /// one row split off either end, by row id, by position.
    fn route(kind: u8, salt: u32, pos: usize, row: u32) -> bool {
        match kind % 6 {
            0 => true,
            1 => false,
            2 => pos == 0,
            3 => pos != 0,
            4 => row.wrapping_mul(2654435761).wrapping_add(salt) % 7 < 3,
            _ => (pos as u32 ^ salt) % 3 == 0,
        }
    }

    /// What a node must hold: its rows and their gradients.
    type Model = Vec<(u32, Vec<u32>)>;

    fn grad_of(row: u32) -> GradPair {
        [row as f32, (row % 7) as f32]
    }

    /// Every live node of `p` holds exactly the model's rows (ascending) and
    /// their gradients, and the live spans tile `0..n`.
    fn check_against(p: &RowPartition, live: &Model, membuf: bool) -> Result<(), String> {
        let mut spans = Vec::new();
        for (node, rows) in live {
            if p.rows(*node) != rows.as_slice() {
                return Err(format!("node {node}: rows differ from the reference"));
            }
            if !rows.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("node {node}: rows not ascending"));
            }
            let want: Vec<GradPair> =
                if membuf { rows.iter().map(|&r| grad_of(r)).collect() } else { Vec::new() };
            if p.grads(*node) != want.as_slice() {
                return Err(format!("node {node}: gradients differ from the reference"));
            }
            spans.push(p.span(*node));
        }
        spans.sort_by_key(|s| (s.start, s.end));
        let mut at = 0;
        for s in spans {
            if s.start != at {
                return Err(format!("live spans leave a gap or overlap at {at}"));
            }
            at = s.end;
        }
        if at != p.n_rows() {
            return Err(format!("live spans end at {at}, not {}", p.n_rows()));
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(40))]

        /// The partition against `Iterator::partition`: seven levels of
        /// nested splits (a range is back in plane 0 after levels 2, 4 and
        /// 6), each level applied as one `apply_splits` batch to one
        /// partition and split by split to another, inline or through a
        /// pool of 1–4 or 8 threads.
        #[test]
        fn nested_splits_match_the_reference_partition(
            tiny in proptest::any::<bool>(),
            n_raw in 0usize..40_001,
            membuf in proptest::any::<bool>(),
            pool_idx in 0usize..6,
            routes in proptest::collection::vec((0u8..6, proptest::any::<u32>()), 8..40),
        ) {
            let n = if tiny { n_raw % 4 } else { n_raw };
            let pool = pool_idx.checked_sub(1).map(|i| &pools()[i]);
            let grads: Vec<GradPair> = (0..n as u32).map(grad_of).collect();
            let mut batched = RowPartition::new(n, 256, membuf);
            let mut single = RowPartition::new(n, 256, membuf);
            batched.reset(&grads);
            single.reset(&grads);
            let mut live: Model = vec![(0, (0..n as u32).collect())];
            let mut next_id = 1u32;
            let mut drawn = routes.iter().cycle();
            for _level in 0..7 {
                // The largest nodes split (at most 12 a level keeps the node
                // table small); ties and empty nodes are split too.
                live.sort_by_key(|(node, rows)| (std::cmp::Reverse(rows.len()), *node));
                let width = live.len().min(12);
                let parents: Vec<(u32, Vec<u32>)> = live.drain(..width).collect();
                let chosen: Vec<(u8, u32)> = parents.iter().map(|_| *drawn.next().unwrap()).collect();
                let splits: Vec<(u32, u32, u32)> = parents
                    .iter()
                    .map(|(parent, _)| {
                        next_id += 2;
                        (*parent, next_id - 2, next_id - 1)
                    })
                    .collect();
                batched.apply_splits(
                    &splits,
                    &|i, pos, row| route(chosen[i].0, chosen[i].1, pos, row),
                    pool,
                );
                for (i, ((_, rows), &(parent, l, r))) in parents.iter().zip(&splits).enumerate() {
                    let (kind, salt) = chosen[i];
                    let (lens_l, lens_r) =
                        single.apply_split(parent, l, r, &|pos, row| route(kind, salt, pos, row), pool);
                    let (left, right): (Vec<_>, Vec<_>) = rows
                        .iter()
                        .enumerate()
                        .partition(|&(pos, &row)| route(kind, salt, pos, row));
                    let ids = |side: Vec<(usize, &u32)>| side.into_iter().map(|(_, &r)| r).collect::<Vec<u32>>();
                    let (left, right) = (ids(left), ids(right));
                    proptest::prop_assert_eq!((lens_l as usize, lens_r as usize), (left.len(), right.len()));
                    proptest::prop_assert_eq!(single.rows(l), left.as_slice());
                    proptest::prop_assert_eq!(single.rows(r), right.as_slice());
                    live.push((l, left));
                    live.push((r, right));
                }
                for (name, p) in [("batched", &batched), ("one by one", &single)] {
                    if let Err(e) = check_against(p, &live, membuf && n > 0) {
                        return Err(proptest::TestCaseError::fail(format!("{name}: {e}")));
                    }
                }
            }
        }
    }

    #[test]
    fn tasks_splitting_their_own_subtrees_concurrently_give_the_serial_result() {
        // The ASYNC contract: each OS thread owns one grandchild of the root
        // and splits it down three more levels through `&RowPartition`.
        let n = 40_000u32;
        let build = |concurrent: bool| {
            let grads: Vec<GradPair> = (0..n).map(grad_of).collect();
            let mut p = RowPartition::new(n as usize, 128, true);
            p.reset(&grads);
            let p = p;
            p.apply_split(0, 1, 2, &|_, r| r % 2 == 0, None);
            p.apply_split(1, 3, 4, &|_, r| r % 3 == 0, None);
            p.apply_split(2, 5, 6, &|_, r| r % 5 < 2, None);
            let subtree = |top: u32| {
                // Node ids 16·top … are this task's own.
                let mut frontier = vec![top];
                let mut next = 16 * top;
                for level in 0..3u32 {
                    let mut children = Vec::new();
                    for parent in frontier {
                        let salt = parent + level;
                        p.apply_split(
                            parent,
                            next,
                            next + 1,
                            &|_, r| r.wrapping_mul(2654435761).wrapping_add(salt) % 3 == 0,
                            None,
                        );
                        children.extend([next, next + 1]);
                        next += 2;
                    }
                    frontier = children;
                }
            };
            if concurrent {
                let barrier = std::sync::Barrier::new(4);
                std::thread::scope(|s| {
                    for top in 3..7u32 {
                        let (barrier, subtree) = (&barrier, &subtree);
                        s.spawn(move || {
                            barrier.wait();
                            subtree(top);
                        });
                    }
                });
            } else {
                (3..7).for_each(subtree);
            }
            p
        };
        let (serial, concurrent) = (build(false), build(true));
        let mut total = 0;
        for top in 3..7u32 {
            for leaf in 16 * top + 6..16 * top + 14 {
                assert_eq!(serial.rows(leaf), concurrent.rows(leaf), "leaf {leaf}");
                assert_eq!(serial.grads(leaf), concurrent.grads(leaf), "leaf {leaf}");
                assert_eq!(serial.span(leaf), concurrent.span(leaf), "leaf {leaf}");
                total += concurrent.node_len(leaf);
            }
        }
        assert_eq!(total, n as usize);
    }

    #[test]
    fn a_predicate_panicking_in_a_mark_task_re_raises_instead_of_hanging() {
        // Eight threads on a small host: move tasks are claimed and waiting
        // on the latch of the node whose mark task dies.
        let pool = ThreadPool::new(8);
        let p = fresh(100_000, true);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.apply_split(
                0,
                1,
                2,
                &|pos, _| if pos == 99_000 { panic!("routing failed") } else { pos % 2 == 0 },
                Some(&pool),
            )
        }));
        assert!(res.is_err(), "the region must re-raise the task's panic");
        // The pool and a fresh tree are usable afterwards.
        let mut p = p;
        let grads: Vec<GradPair> = (0..100_000).map(|i| [i as f32, 1.0]).collect();
        p.reset(&grads);
        assert_eq!(p.apply_split(0, 1, 2, &|pos, _| pos % 2 == 0, Some(&pool)), (50_000, 50_000));
    }

    #[test]
    fn a_batch_is_one_region_of_row_block_tasks_at_any_width() {
        let profile = std::sync::Arc::new(harp_parallel::Profile::new());
        let pool = ThreadPool::with_profile(8, std::sync::Arc::clone(&profile));
        let regions = || profile.regions.load(Ordering::Relaxed);
        let tasks = || profile.tasks.load(Ordering::Relaxed);

        // Eight nodes of 8 192 rows — fewer than 2·T nodes, each a "large"
        // one — are one region, not a count and a scatter region per node.
        let p = fresh(8 * 8192, true);
        let mut splits = Vec::new();
        // Peel 8 192 rows off the front, seven times: nodes 1, 3, …, 13, 14.
        let mut rest = 0u32;
        for i in 0..7u32 {
            let cut = (i + 1) * 8192;
            p.apply_split(rest, 2 * i + 1, 2 * i + 2, &|_, r| r < cut, None);
            rest = 2 * i + 2;
        }
        let nodes: Vec<u32> = (0..7).map(|i| 2 * i + 1).chain([14]).collect();
        for (i, &node) in nodes.iter().enumerate() {
            assert_eq!(p.node_len(node), 8192);
            splits.push((node, 20 + 2 * i as u32, 21 + 2 * i as u32));
        }
        let (r0, t0) = (regions(), tasks());
        p.apply_splits(&splits, &|_, _, r| r % 2 == 0, Some(&pool));
        assert_eq!(regions() - r0, 1, "a batch of 8 large nodes must be one region");
        assert_eq!(tasks() - t0, 2 * 8 * (8192 / ROW_BLOCK) as u64);
        for &(_, l, r) in &splits {
            assert_eq!((p.node_len(l), p.node_len(r)), (4096, 4096));
        }

        // Eight nodes of 1 000 rows beside one of 100 000: the small ones
        // are pool tasks of the same region, not coordinator work.
        let p = fresh(108_000, false);
        let mut splits = Vec::new();
        let mut rest = 0u32;
        for i in 0..8u32 {
            let cut = (i + 1) * 1000;
            p.apply_split(rest, 2 * i + 1, 2 * i + 2, &|_, r| r < cut, None);
            rest = 2 * i + 2;
            splits.push((2 * i + 1, 20 + 2 * i, 21 + 2 * i));
        }
        assert_eq!(p.node_len(rest), 100_000);
        splits.push((rest, 40, 41));
        let (r0, t0) = (regions(), tasks());
        p.apply_splits(&splits, &|_, _, r| r % 4 == 0, Some(&pool));
        assert_eq!(regions() - r0, 1);
        let blocks = 8 + 100_000usize.div_ceil(ROW_BLOCK);
        assert_eq!(tasks() - t0, 2 * blocks as u64, "every node's blocks are pool tasks");
        assert_eq!(p.node_len(40), 25_000);
        assert_eq!(p.rows(20), (0..1000).step_by(4).collect::<Vec<u32>>().as_slice());

        // A batch with few rows in all stays off the pool.
        let p = fresh(4000, true);
        let (r0, t0) = (regions(), tasks());
        p.apply_splits(&[(0, 1, 2)], &|_, _, r| r % 2 == 0, Some(&pool));
        assert_eq!((regions() - r0, tasks() - t0), (0, 0));
    }
}
