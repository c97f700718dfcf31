//! One tree's growth state, and the three steps every engine takes on it.
//!
//! [`Frontier`] owns the growth queue, the histogram pool and the leaf count.
//! The batch engine calls it directly, ASYNC's node tasks under a spin lock
//! (`async_mode`); either way a split is
//!
//! 1. [`claim`](Frontier::claim)ed — popped, its leaf spent and its cached
//!    histogram taken in one step, so the pool sees the budget exactly as
//!    that pop left it and never holds the histogram of a candidate in
//!    flight: `cached ≤ R` at every intermediate `R`;
//! 2. planned — [`children`](Frontier::children) decides which child is
//!    scanned and which derived as `parent − small`, releases a parent
//!    nothing will read and plans nothing once the budget is spent;
//! 3. [`file`](Frontier::file)d — the expanded children are queued
//!    small-first and their full-width histograms cached for the next
//!    subtraction.
//!
//! Nothing width-sized runs in here: a fresh buffer is popped off
//! [`hists`](Frontier::hists) and zero-filled by the caller, outside any lock.

use super::drivers::{DerivedSibling, TileJob};
use crate::growth::{GrowthQueue, RankedCandidate};
use crate::hist::HistPool;
use crate::params::TrainParams;
use crate::partition::RowPartition;
use crate::split::SplitCandidate;
use crate::tree::{NodeId, NodeStats};
use harp_parallel::Profile;

/// A batch's planned children: the job list the fills take, plus what the
/// queue needs and a [`TileJob`] does not carry.
#[derive(Default)]
pub(super) struct Children {
    pub jobs: Vec<TileJob>,
    /// Per job: its depth, and whether it is the larger child of a split
    /// whose smaller child is scanned too.
    placed: Vec<(u32, bool)>,
}

impl Children {
    /// The root of a tree, which has no split to come from.
    pub fn root(stats: NodeStats) -> Self {
        let mut root = Self::default();
        root.push((0, stats), None, 0, false);
        root
    }

    fn push(
        &mut self,
        (node, stats): (NodeId, NodeStats),
        sibling: Option<DerivedSibling>,
        depth: u32,
        second: bool,
    ) {
        self.jobs.push(TileJob { node, stats, buf: None, sibling });
        self.placed.push((depth, second));
    }
}

/// See the module docs.
pub(super) struct Frontier<'a> {
    queue: GrowthQueue,
    pub hists: HistPool,
    leaves: usize,
    params: &'a TrainParams,
    profile: &'a Profile,
}

impl<'a> Frontier<'a> {
    pub fn new(params: &'a TrainParams, profile: &'a Profile, hists: HistPool) -> Self {
        Self { queue: GrowthQueue::new(params.growth), hists, leaves: 1, params, profile }
    }

    /// Ends a tree: the candidates left in the queue stay leaves and their
    /// cached histograms are recycled.
    pub fn reset(&mut self) {
        self.hists.clear_cache();
        self.queue = GrowthQueue::new(self.params.growth);
        self.leaves = 1;
    }

    /// The unspent leaf budget.
    pub fn remaining(&self) -> usize {
        self.params.max_leaves() - self.leaves
    }

    /// How many candidates wait to be split.
    pub fn width(&self) -> usize {
        self.queue.len()
    }

    /// Whether a [`claim`](Self::claim) would return anything.
    pub fn open(&self) -> bool {
        self.remaining() > 0 && !self.queue.is_empty()
    }

    /// Whether a node at `depth` holding `count` rows may be split further.
    fn eligible(&self, depth: u32, count: u32) -> bool {
        depth < self.params.max_depth() && count >= 2
    }

    /// Pops up to `k` of the best candidates the budget still pays for, each
    /// with its parent histogram if that was cached.
    pub fn claim(
        &mut self,
        k: usize,
        partition: &RowPartition,
    ) -> Vec<(RankedCandidate, Option<Vec<f64>>)> {
        let batch = self.queue.pop_batch(k, self.remaining());
        batch
            .into_iter()
            .map(|c| {
                self.leaves += 1;
                let rows = partition.node_len(c.node);
                (c, self.hists.cache_take(c.node, rows, self.remaining()))
            })
            .collect()
    }

    /// Plans the histograms of a claimed split's two children (at `depth`,
    /// row counts known) into `into`: the smaller child scanned and the
    /// larger derived from `parent` where that histogram is at hand and both
    /// may split, every eligible child scanned otherwise — a parent too
    /// small to have been cached (`hist::min_cached_rows`) comes back `None`
    /// like an evicted one. Smaller child first either way: the queue's FIFO
    /// order breaks gain ties and so shapes the tree, and must not depend on
    /// the cache. Once the budget is spent no child can ever split, and none
    /// gets a histogram.
    pub fn children(
        &mut self,
        parent: Option<Vec<f64>>,
        depth: u32,
        [l, r]: [(NodeId, NodeStats); 2],
        into: &mut Children,
    ) {
        let [small, large] = if l.1.count <= r.1.count { [l, r] } else { [r, l] };
        let eligible = [small, large].map(|(_, stats)| self.eligible(depth, stats.count));
        let spent = self.remaining() == 0;
        match parent {
            Some(parent) if eligible == [true; 2] && !spent => {
                let (node, stats) = large;
                let sibling = DerivedSibling { node, stats, parent, in_place: true };
                into.push(small, Some(sibling), depth, false);
            }
            unused => {
                if let Some(parent) = unused {
                    self.hists.release(parent);
                }
                if spent {
                    let skipped = eligible.iter().filter(|&&e| e).count();
                    self.profile.add_hist_builds_skipped(skipped as u64);
                    return;
                }
                let second = [false, eligible[0]];
                for ((child, eligible), second) in
                    [small, large].into_iter().zip(eligible).zip(second)
                {
                    if eligible {
                        into.push(child, None, depth, second);
                    }
                }
            }
        }
    }

    /// Queues the expanded children (`found[j]`: the best split of job `j`'s
    /// node and of its derived sibling) and files their full-width
    /// histograms: the smaller (or only) child of every split in batch
    /// order, then the larger children in batch order — whether derived or
    /// scanned, so the caching rule moves cost, never a tie. A child with no
    /// admissible split stays a leaf and its buffer is recycled. Returns how
    /// many were queued.
    pub fn file(&mut self, children: Children, found: Vec<[Option<SplitCandidate>; 2]>) -> usize {
        let mut built = Vec::with_capacity(2 * found.len());
        let expanded = children.jobs.into_iter().zip(children.placed).zip(found);
        for ((job, (depth, second)), [cand, sibling_cand]) in expanded {
            built.push((second, depth, job.node, job.stats, job.buf, cand));
            if let Some(DerivedSibling { node, stats, parent, in_place }) = job.sibling {
                // In place, the parent's buffer became the sibling's histogram.
                let buf = if in_place {
                    Some(parent)
                } else {
                    self.hists.release(parent);
                    None
                };
                built.push((true, depth, node, stats, buf, sibling_cand));
            }
        }
        built.sort_by_key(|&(second, ..)| second);
        let mut queued = 0;
        for (_, depth, node, stats, buf, cand) in built {
            let key = cand.map(|cand| self.queue.push(node, depth, cand));
            queued += usize::from(key.is_some());
            match (buf, key) {
                (Some(buf), Some(key)) => {
                    let rows = stats.count as usize;
                    self.hists.cache_insert(node, rows, buf, key, self.remaining());
                }
                (Some(buf), None) => self.hists.release(buf),
                (None, _) => {}
            }
        }
        queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::SplitData;
    use harp_metrics::MemGauge;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// A pool of four-feature, four-bin histograms: nodes of two rows or
    /// more are cached.
    fn pool() -> HistPool {
        HistPool::new(4, 4, usize::MAX)
    }

    fn params(tree_size: u32) -> TrainParams {
        TrainParams { tree_size, ..Default::default() }
    }

    fn stats(count: u32) -> NodeStats {
        NodeStats { g: 0.0, h: f64::from(count), count }
    }

    fn cand(gain: f64) -> Option<SplitCandidate> {
        let split = SplitData { feature: 0, bin: 0, threshold: 0.0, default_left: false, gain };
        Some(SplitCandidate { split, left: stats(0), right: stats(0) })
    }

    /// Gives every planned job a full-width buffer, as a Replicated batch
    /// does.
    fn equip(frontier: &mut Frontier<'_>, children: &mut Children) {
        for job in &mut children.jobs {
            job.buf = Some(frontier.hists.alloc().zeroed());
        }
    }

    /// 32 rows cut into the leaves 1 (1 row), 3, 5, 7 (10 rows each) and 8
    /// (1 row).
    fn five_leaves() -> RowPartition {
        let mut partition = RowPartition::new(32, 16, false);
        partition.reset(&[[0.0, 1.0]; 32]);
        for (parent, last_left) in [(0, 0), (2, 10), (4, 20), (6, 30)] {
            partition.apply_split(parent, parent + 1, parent + 2, &|_, r| r <= last_left, None);
        }
        partition
    }

    #[test]
    fn claim_keeps_the_cache_within_the_budget_each_pop_leaves() {
        let (params, profile) = (params(3), Arc::new(Profile::new()));
        let mut frontier = Frontier::new(&params, &profile, pool());
        frontier.hists.instrument(Arc::clone(&profile), None, None);
        let partition = five_leaves();
        // Five leaves of eight, every one a candidate: the best and the worst
        // too small to be cached, the three between them cached — R = 3.
        frontier.leaves = 5;
        let mut leaves = Children::default();
        for node in [1, 3, 5, 7, 8] {
            leaves.push((node, stats(partition.node_len(node) as u32)), None, 3, false);
        }
        equip(&mut frontier, &mut leaves);
        let found = [9.0, 7.0, 5.0, 3.0, 1.0].map(|gain| [cand(gain), None]).to_vec();
        assert_eq!(frontier.file(leaves, found), 5);
        assert_eq!(frontier.hists.cached_len(), 3);

        // The first pop takes nothing out and leaves R = 2: node 7's
        // histogram ranks beyond it and goes. The second takes node 3's and
        // leaves R = 1, which node 5's still fits. Had both been taken at
        // the R the batch ends on, node 5's would have gone with node 7's.
        let batch = frontier.claim(2, &partition);
        let nodes: Vec<_> = batch.iter().map(|(c, parent)| (c.node, parent.is_some())).collect();
        assert_eq!(nodes, [(1, false), (3, true)]);
        assert_eq!((frontier.remaining(), frontier.hists.cached_len()), (1, 1));
        let count = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!(count(&profile.hist_cache_trimmed), 1);
        assert_eq!(count(&profile.hist_cache_misses), 0);
        // One pop at a time, the invariant is visible after each.
        while frontier.open() {
            frontier.claim(1, &partition);
            assert!(frontier.hists.cached_len() <= frontier.remaining());
        }
        assert_eq!(count(&profile.hist_cache_misses), 0);
    }

    #[test]
    fn children_are_queued_small_first_whether_the_larger_is_derived_or_scanned() {
        let (params, profile) = (params(4), Profile::new());
        // Two splits at one gain throughout, so only the FIFO order ranks
        // them: of nodes (1, 2) with 20 and 12 rows, of (3, 4) with 5 and 9.
        for cached in [[true, false], [false, true], [true, true], [false, false]] {
            let mut frontier = Frontier::new(&params, &profile, pool());
            frontier.leaves = 3;
            let mut children = Children::default();
            for (cached, kids) in cached.into_iter().zip([[(1, 20), (2, 12)], [(3, 5), (4, 9)]]) {
                let parent = cached.then(|| frontier.hists.alloc().zeroed());
                let kids = kids.map(|(node, rows)| (node, stats(rows)));
                frontier.children(parent, 2, kids, &mut children);
            }
            let derived = children.jobs.iter().filter(|j| j.sibling.is_some()).count();
            assert_eq!(derived, cached.iter().filter(|&&c| c).count());
            equip(&mut frontier, &mut children);
            let found = vec![[cand(1.0), cand(1.0)]; children.jobs.len()];
            assert_eq!(frontier.file(children, found), 4);
            let order: Vec<NodeId> =
                frontier.queue.pop_batch(4, 4).iter().map(|c| c.node).collect();
            assert_eq!(order, [2, 3, 1, 4], "parents cached: {cached:?}");
        }
    }

    #[test]
    fn a_spent_budget_releases_the_parent_and_counts_the_builds_it_skips() {
        let (params, profile) = (params(2), Arc::new(Profile::new()));
        let mut frontier = Frontier::new(&params, &profile, pool());
        let allocated = Arc::new(MemGauge::new());
        frontier
            .hists
            .instrument(Arc::clone(&profile), Some(Arc::clone(&allocated)), None);
        frontier.leaves = params.max_leaves();
        let parent = frontier.hists.alloc().zeroed();
        let one_buffer = allocated.current();

        let mut children = Children::default();
        // One child could have split, the other holds a single row.
        frontier.children(Some(parent), 1, [(1, stats(20)), (2, stats(1))], &mut children);
        assert!(children.jobs.is_empty(), "no child of a spent budget gets a histogram");
        assert_eq!(profile.hist_builds_skipped.load(Ordering::Relaxed), 1);
        // The parent's buffer is the next one handed out.
        let _reused = frontier.hists.alloc().zeroed();
        assert_eq!(allocated.current(), one_buffer);
    }
}
